//! Rule-by-rule regression tests against the known-bad fixture workspace
//! under `fixtures/badtree`, plus a self-test that the real repository is
//! clean and CLI-level checks of exit codes and output formats.

use std::path::{Path, PathBuf};
use std::process::Command;

use xcheck::rules::{self, Diagnostic};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/badtree")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn badtree_diags() -> Vec<Diagnostic> {
    rules::run_all(&fixture_root()).expect("fixture tree must scan")
}

fn diags_of_rule<'a>(diags: &'a [Diagnostic], rule: &str) -> Vec<&'a Diagnostic> {
    diags.iter().filter(|d| d.rule == rule).collect()
}

fn locations(diags: &[&Diagnostic]) -> Vec<(String, usize)> {
    diags.iter().map(|d| (d.file.display().to_string(), d.line)).collect()
}

#[test]
fn unsafe_confined_flags_the_leak_and_spares_qsimd() {
    let diags = badtree_diags();
    let hits = diags_of_rule(&diags, "unsafe-confined");
    assert_eq!(locations(&hits), vec![("crates/alpha/src/lib.rs".to_string(), 8)]);
}

#[test]
fn safety_comment_flags_only_the_unjustified_site() {
    let diags = badtree_diags();
    let hits = diags_of_rule(&diags, "safety-comment");
    assert_eq!(locations(&hits), vec![("crates/qsimd/src/lib.rs".to_string(), 14)]);
}

#[test]
fn crate_attrs_flags_the_bare_crate_root_twice() {
    let diags = badtree_diags();
    let hits = diags_of_rule(&diags, "crate-attrs");
    assert_eq!(
        locations(&hits),
        vec![
            ("crates/noattrs/src/lib.rs".to_string(), 1),
            ("crates/noattrs/src/lib.rs".to_string(), 1)
        ]
    );
    assert!(hits[0].message.contains("forbid(unsafe_code)"));
    assert!(hits[1].message.contains("missing_docs"));
}

#[test]
fn service_lock_flags_unwrap_and_wrapped_expect() {
    let diags = badtree_diags();
    let hits = diags_of_rule(&diags, "service-lock");
    assert_eq!(
        locations(&hits),
        vec![
            ("crates/service/src/lib.rs".to_string(), 10),
            ("crates/service/src/lib.rs".to_string(), 16)
        ]
    );
}

#[test]
fn debug_escapes_flagged_in_lib_but_not_main_or_strings() {
    let diags = badtree_diags();
    let hits = diags_of_rule(&diags, "no-debug-escapes");
    assert_eq!(
        locations(&hits),
        vec![
            ("crates/alpha/src/lib.rs".to_string(), 15),
            ("crates/alpha/src/lib.rs".to_string(), 20),
            ("crates/alpha/src/lib.rs".to_string(), 25)
        ]
    );
}

#[test]
fn fault_plan_confined_flags_constructors_but_not_docs_or_strings() {
    let diags = badtree_diags();
    let hits = diags_of_rule(&diags, "fault-plan-confined");
    assert_eq!(
        locations(&hits),
        vec![
            ("crates/service/src/lib.rs".to_string(), 24),
            ("crates/service/src/lib.rs".to_string(), 25)
        ]
    );
    assert!(hits[0].message.contains("chaos tests"));
}

#[test]
fn the_real_repository_is_clean() {
    let diags = rules::run_all(&repo_root()).expect("repo must scan");
    assert!(
        diags.is_empty(),
        "the repository violates its own invariants:\n{}",
        diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
    );
}

#[test]
fn cli_exit_codes_and_text_diagnostics() {
    let out = Command::new(env!("CARGO_BIN_EXE_xcheck"))
        .args(["lint", "--root"])
        .arg(fixture_root())
        .output()
        .expect("run xcheck");
    assert_eq!(out.status.code(), Some(1), "seeded violations must exit 1");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("crates/alpha/src/lib.rs:8: [unsafe-confined]"),
        "file:line diagnostic missing from:\n{stdout}"
    );

    let clean = Command::new(env!("CARGO_BIN_EXE_xcheck"))
        .args(["lint", "--root"])
        .arg(repo_root())
        .output()
        .expect("run xcheck");
    assert_eq!(clean.status.code(), Some(0), "the real tree must lint clean");

    let bad_args =
        Command::new(env!("CARGO_BIN_EXE_xcheck")).arg("frobnicate").output().expect("run xcheck");
    assert_eq!(bad_args.status.code(), Some(2), "usage errors are exit 2, not a lint verdict");
}

#[test]
fn cli_json_format_lists_every_diagnostic() {
    let out = Command::new(env!("CARGO_BIN_EXE_xcheck"))
        .args(["lint", "--format", "json", "--root"])
        .arg(fixture_root())
        .output()
        .expect("run xcheck");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let expected = badtree_diags().len();
    assert_eq!(stdout.matches("\"rule\":").count(), expected);
    assert!(stdout.trim_start().starts_with('['));
    assert!(stdout.trim_end().ends_with(']'));
    assert!(stdout.contains("\"file\": \"crates/service/src/lib.rs\""));
}
