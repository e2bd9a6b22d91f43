//! `xcheck loc` counts pinned on the fixture workspace under
//! `fixtures/loctree`: comment-only and blank lines are not code, the lines
//! of a multi-line string literal are, and `#[cfg(test)]` items, `tests/`
//! and `examples/` are counted apart from library code.

use std::path::{Path, PathBuf};
use std::process::Command;

use xcheck::loc::{self, CrateLoc};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/loctree")
}

#[test]
fn fixture_counts_are_pinned() {
    let crates = loc::count(&fixture_root()).expect("fixture tree must scan");
    assert_eq!(
        crates,
        vec![CrateLoc { name: "demo-crate".into(), lib: 8, unit_tests: 10, tests: 4, examples: 3 }]
    );
    assert_eq!(crates[0].total(), 25);
}

#[test]
fn cli_prints_one_row_per_crate_and_a_total() {
    let out = Command::new(env!("CARGO_BIN_EXE_xcheck"))
        .args(["loc", "--root"])
        .arg(fixture_root())
        .output()
        .expect("run xcheck");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let rows: Vec<Vec<&str>> = stdout.lines().map(|l| l.split_whitespace().collect()).collect();
    assert_eq!(rows[0], ["crate", "lib", "cfg(test)", "tests/", "examples", "total"]);
    assert_eq!(rows[1], ["demo-crate", "8", "10", "4", "3", "25"]);
    assert_eq!(rows[2], ["total", "8", "10", "4", "3", "25"]);
    assert_eq!(rows.len(), 3);
}
