//! `xcheck` — the workspace's invariant linter.
//!
//! The serving stack carries guarantees that ordinary tests cannot see:
//! panic containment via poison-tolerant locks, the confinement of `unsafe`
//! to the SIMD kernel crate, and fault injection kept out of library code.
//! This crate makes those prose invariants machine-checkable:
//!
//! ```text
//! cargo run -p xcheck -- lint              # human-readable file:line diagnostics
//! cargo run -p xcheck -- lint --format json
//! cargo run -p xcheck -- loc               # code lines per crate
//! ```
//!
//! The scanner ([`scan`]) is a comment/string-aware lexer — not a parser —
//! so the whole crate stays std-only, consistent with the repo's offline
//! shim policy. The rules ([`rules`]) are individually testable and run
//! against fixture workspaces under `fixtures/` in `cargo test -p xcheck`;
//! [`loc`] reuses the same scan to count each crate's code lines.
//!
//! Exit codes of the `lint` subcommand: `0` clean, `1` violations found,
//! `2` the lint itself failed (unreadable tree, bad arguments).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod loc;
pub mod rules;
pub mod scan;

use rules::Diagnostic;

/// Renders diagnostics as a JSON array for `--format json` — one object per
/// violation with `rule`, `file`, `line` and `message` fields.
pub fn diagnostics_to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            json::escape(d.rule),
            json::escape(&d.file.display().to_string()),
            d.line,
            json::escape(&d.message)
        ));
    }
    out.push_str(if diags.is_empty() { "]\n" } else { "\n]\n" });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn json_output_is_parseable_and_escaped() {
        let diags = vec![Diagnostic {
            rule: "service-lock",
            file: PathBuf::from("crates/service/src/lib.rs"),
            line: 7,
            message: "`.lock().unwrap()` says \"panic\"".into(),
        }];
        let text = diagnostics_to_json(&diags);
        assert!(text.contains("\"line\": 7"));
        assert!(text.contains("\\\"panic\\\""));
        assert_eq!(diagnostics_to_json(&[]), "[]\n");
    }
}
