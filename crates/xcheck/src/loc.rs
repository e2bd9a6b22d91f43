//! Code-line counts per workspace crate (`xcheck loc`).
//!
//! A code line is one that is neither blank nor comment-only, as the
//! [`scan`](crate::scan) lexer classifies it: doc comments are comments,
//! while the lines of a multi-line string literal are code. Each crate's
//! lines are split into library code (`src/` outside `#[cfg(test)]`
//! items), unit tests (`#[cfg(test)]` items in `src/`), `tests/` files, and
//! `examples/` plus `benches/`, so a change reports its line delta per
//! kind of code.

use std::fmt::Write as _;
use std::path::Path;

use crate::rules::{load_workspace, LintError};
use crate::scan::Line;

/// The code-line counts of one workspace crate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrateLoc {
    /// Package name from the crate's manifest.
    pub name: String,
    /// Library code: `src/` lines outside `#[cfg(test)]` items.
    pub lib: usize,
    /// `#[cfg(test)]` items in `src/`.
    pub unit_tests: usize,
    /// Files under `tests/`.
    pub tests: usize,
    /// Files under `examples/` and `benches/`.
    pub examples: usize,
}

impl CrateLoc {
    /// Every code line of the crate.
    pub fn total(&self) -> usize {
        self.lib + self.unit_tests + self.tests + self.examples
    }
}

/// Counts the code lines of every workspace member at `root`, in the order
/// the workspace manifest lists them.
pub fn count(root: &Path) -> Result<Vec<CrateLoc>, LintError> {
    let ws = load_workspace(root)?;
    let mut crates = Vec::new();
    for member in &ws.members {
        let manifest =
            std::fs::read_to_string(root.join(&member.rel).join("Cargo.toml")).unwrap_or_default();
        let name = package_name(&manifest).unwrap_or_else(|| member.rel.display().to_string());
        let mut loc = CrateLoc { name, ..CrateLoc::default() };
        for (file, scanned) in &member.files {
            let dir = file.strip_prefix(&member.rel).unwrap_or(file).components().next();
            let dir = dir.and_then(|c| c.as_os_str().to_str()).unwrap_or("");
            let in_test = cfg_test_lines(&scanned.lines);
            for (line, &test) in scanned.lines.iter().zip(&in_test) {
                if !line.is_code() {
                    continue;
                }
                *match (dir, test) {
                    ("src", false) => &mut loc.lib,
                    ("src", true) => &mut loc.unit_tests,
                    ("tests", _) => &mut loc.tests,
                    _ => &mut loc.examples,
                } += 1;
            }
        }
        crates.push(loc);
    }
    Ok(crates)
}

/// The `name = "…"` of a manifest's `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_package = line == "[package]";
        } else if let Some(value) = line.strip_prefix("name").map(str::trim_start) {
            if in_package && value.starts_with('=') {
                return Some(value[1..].trim().trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Marks the lines of every `#[cfg(test)]` item: from the attribute to the
/// `;` that ends the item before any brace opens (`use`, `mod x;`), or to
/// the brace that closes its body.
fn cfg_test_lines(lines: &[Line]) -> Vec<bool> {
    let mut marks = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].code.trim_start().starts_with("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let start = i;
        let (mut braces, mut nest, mut opened) = (0usize, 0usize, false);
        'item: while i < lines.len() {
            for c in lines[i].code.chars() {
                match c {
                    '{' => (braces, opened) = (braces + 1, true),
                    '}' => {
                        braces = braces.saturating_sub(1);
                        if opened && braces == 0 {
                            break 'item;
                        }
                    }
                    '(' | '[' => nest += 1,
                    ')' | ']' => nest = nest.saturating_sub(1),
                    ';' if !opened && nest == 0 => break 'item,
                    _ => {}
                }
            }
            i += 1;
        }
        let end = i.min(lines.len() - 1);
        marks[start..=end].fill(true);
        i = end + 1;
    }
    marks
}

/// Renders the counts as a fixed-width table with a closing total row.
pub fn render_table(crates: &[CrateLoc]) -> String {
    let mut sum = CrateLoc { name: "total".into(), ..CrateLoc::default() };
    for c in crates {
        sum.lib += c.lib;
        sum.unit_tests += c.unit_tests;
        sum.tests += c.tests;
        sum.examples += c.examples;
    }
    let mut out = format!(
        "{:<16} {:>7} {:>9} {:>7} {:>8} {:>7}\n",
        "crate", "lib", "cfg(test)", "tests/", "examples", "total"
    );
    for c in crates.iter().chain(std::iter::once(&sum)) {
        let _ = writeln!(
            out,
            "{:<16} {:>7} {:>9} {:>7} {:>8} {:>7}",
            c.name,
            c.lib,
            c.unit_tests,
            c.tests,
            c.examples,
            c.total()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    #[test]
    fn cfg_test_items_end_at_their_semicolon_or_closing_brace() {
        let src = "fn a() {}\n#[cfg(test)]\nuse x::{y, z};\nfn b() {}\n#[cfg(test)]\nmod t {\n    \
                   fn f() -> [u8; 2] { [0; 2] }\n}\nfn c() {}\n";
        let marks = cfg_test_lines(&scan(src).lines);
        assert_eq!(marks, vec![false, true, true, false, true, true, true, true, false]);
    }

    #[test]
    fn package_name_reads_the_package_section_only() {
        let manifest = "[workspace]\nmembers = [\"a\"]\n[package]\nname = \"demo\"\n\
                        [dependencies]\nname = \"other\"\n";
        assert_eq!(package_name(manifest).as_deref(), Some("demo"));
        assert_eq!(package_name("[workspace]\nname = \"x\"\n"), None);
    }
}
