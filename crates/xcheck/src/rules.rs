//! The repo invariants, as individually testable lint rules.
//!
//! Every rule takes the scanned workspace and returns `file:line`
//! [`Diagnostic`]s. The rules encode guarantees the rest of the workspace
//! documents in prose:
//!
//! | rule id           | invariant                                                          |
//! |-------------------|--------------------------------------------------------------------|
//! | `unsafe-confined` | the `unsafe` keyword appears only in `crates/qsimd`                |
//! | `safety-comment`  | every `unsafe` in qsimd has a `// SAFETY:` / `# Safety` comment    |
//! | `crate-attrs`     | crate roots forbid unsafe (qsimd: deny unsafe-op) + warn missing docs |
//! | `service-lock`    | no `.lock().unwrap()` / `.lock().expect(` in `crates/service`      |
//! | `no-debug-escapes`| no `todo!`/`dbg!`/`unimplemented!`/`process::exit` in library code |
//! | `fault-plan-confined` | library code never constructs a non-empty `FaultPlan`          |

use std::fmt;
use std::path::{Path, PathBuf};

use crate::scan::{self, Scanned};

/// One rule violation, anchored to a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule id (stable, kebab-case).
    pub rule: &'static str,
    /// File path relative to the linted root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule, self.message)
    }
}

/// A workspace member crate, discovered from the root manifest.
#[derive(Debug)]
pub struct Member {
    /// Member path relative to the workspace root (`"."` for the root
    /// package itself).
    pub rel: PathBuf,
    /// The scanned Rust files under the member's target directories,
    /// with paths relative to the workspace root.
    pub files: Vec<(PathBuf, Scanned)>,
}

impl Member {
    /// The member directory's final path component (`qsimd`, `service`, …);
    /// the root package is `"."`.
    fn dir_name(&self) -> &str {
        self.rel.file_name().and_then(|n| n.to_str()).unwrap_or(".")
    }
}

/// The scanned workspace every rule runs against.
#[derive(Debug)]
pub struct Workspace {
    /// Member crates, root package included.
    pub members: Vec<Member>,
}

/// A scan/IO failure (not a lint violation).
#[derive(Debug)]
pub struct LintError(pub String);

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for LintError {}

/// Source subdirectories of a member that hold compiled Rust code.
const TARGET_DIRS: &[&str] = &["src", "tests", "examples", "benches"];

/// Discovers the workspace members from `<root>/Cargo.toml` and scans every
/// Rust file under their target directories.
pub fn load_workspace(root: &Path) -> Result<Workspace, LintError> {
    let manifest_path = root.join("Cargo.toml");
    let manifest = std::fs::read_to_string(&manifest_path)
        .map_err(|e| LintError(format!("cannot read {}: {e}", manifest_path.display())))?;
    let mut rels = parse_members(&manifest);
    if manifest.contains("[package]") && !rels.iter().any(|r| r == Path::new(".")) {
        rels.push(PathBuf::from("."));
    }
    if rels.is_empty() {
        return Err(LintError(format!(
            "no workspace members and no [package] in {}",
            manifest_path.display()
        )));
    }
    let mut members = Vec::new();
    for rel in rels {
        let mut files = Vec::new();
        for dir in TARGET_DIRS {
            let abs = root.join(&rel).join(dir);
            if abs.is_dir() {
                collect_rust_files(&abs, &mut files)
                    .map_err(|e| LintError(format!("walking {}: {e}", abs.display())))?;
            }
        }
        files.sort();
        let mut scanned = Vec::new();
        for file in files {
            let source = std::fs::read_to_string(&file)
                .map_err(|e| LintError(format!("cannot read {}: {e}", file.display())))?;
            let rel_file = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            scanned.push((rel_file, scan::scan(&source)));
        }
        members.push(Member { rel, files: scanned });
    }
    Ok(Workspace { members })
}

/// Extracts the quoted entries of the `members = [ … ]` array from a
/// workspace manifest (comment-tolerant, order-preserving, deduplicated).
fn parse_members(manifest: &str) -> Vec<PathBuf> {
    let mut rels: Vec<PathBuf> = Vec::new();
    let mut in_members = false;
    for raw in manifest.lines() {
        let line = raw.split('#').next().unwrap_or("");
        if !in_members {
            if let Some(rest) = line.split_once("members").map(|(_, r)| r) {
                if rest.trim_start().starts_with('=') {
                    in_members = true;
                }
            }
        }
        if in_members {
            let mut rest = line;
            while let Some(open) = rest.find('"') {
                let Some(close) = rest[open + 1..].find('"') else { break };
                let entry = &rest[open + 1..open + 1 + close];
                if !entry.is_empty() && !rels.iter().any(|r| r == Path::new(entry)) {
                    rels.push(PathBuf::from(entry));
                }
                rest = &rest[open + 1 + close + 1..];
            }
            if line.contains(']') {
                break;
            }
        }
    }
    rels
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs every rule over the workspace at `root`, returning the combined,
/// location-sorted diagnostics (empty = clean tree).
pub fn run_all(root: &Path) -> Result<Vec<Diagnostic>, LintError> {
    let ws = load_workspace(root)?;
    let mut diags = Vec::new();
    diags.extend(unsafe_confined(&ws));
    diags.extend(safety_comment(&ws));
    diags.extend(crate_attrs(&ws));
    diags.extend(service_lock(&ws));
    diags.extend(no_debug_escapes(&ws));
    diags.extend(fault_plan_confined(&ws));
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(diags)
}

/// The one crate allowed to contain `unsafe` (by directory name, so the
/// fixture workspaces can mirror the layout).
const UNSAFE_CRATE: &str = "qsimd";

/// `unsafe-confined`: the `unsafe` keyword may appear only inside the
/// designated SIMD crate. Everything else carries `#![forbid(unsafe_code)]`
/// (checked separately by `crate-attrs`) — this rule catches the keyword
/// even in files the compiler attribute does not reach (tests, examples)
/// and reports the exact line.
pub fn unsafe_confined(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for member in &ws.members {
        if member.dir_name() == UNSAFE_CRATE {
            continue;
        }
        for (file, scanned) in &member.files {
            for (idx, line) in scanned.lines.iter().enumerate() {
                if scan::find_token(&line.code, "unsafe").is_some() {
                    diags.push(Diagnostic {
                        rule: "unsafe-confined",
                        file: file.clone(),
                        line: idx + 1,
                        message: format!(
                            "`unsafe` outside crates/{UNSAFE_CRATE} — the workspace confines \
                             unsafe code to the SIMD kernel crate"
                        ),
                    });
                }
            }
        }
    }
    diags
}

/// How many lines above an `unsafe` token the justification search walks
/// before giving up (doc-comment `# Safety` sections sit above attributes
/// and multi-line signatures).
const SAFETY_SEARCH_CAP: usize = 40;

/// `safety-comment`: every `unsafe` keyword in the SIMD crate must be
/// justified by a comment stating the invariant it relies on — either a
/// `// SAFETY:` comment immediately above the statement (attribute lines
/// and the statement's own wrapped lines may intervene) or a `# Safety`
/// doc section on an `unsafe fn`. The search stops at the first line that
/// ends an *earlier* statement (contains `;`, `{` or `}`), so a comment
/// cannot justify more than the one statement below it.
pub fn safety_comment(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for member in &ws.members {
        if member.dir_name() != UNSAFE_CRATE {
            continue;
        }
        for (file, scanned) in &member.files {
            for (idx, line) in scanned.lines.iter().enumerate() {
                if scan::find_token(&line.code, "unsafe").is_none() {
                    continue;
                }
                if !has_safety_justification(scanned, idx) {
                    diags.push(Diagnostic {
                        rule: "safety-comment",
                        file: file.clone(),
                        line: idx + 1,
                        message: "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc \
                                  section) stating the invariant it relies on"
                            .into(),
                    });
                }
            }
        }
    }
    diags
}

fn is_safety_text(comment: &str) -> bool {
    comment.contains("SAFETY:") || comment.contains("# Safety")
}

fn has_safety_justification(scanned: &Scanned, idx: usize) -> bool {
    // A trailing comment on the unsafe line itself counts.
    if is_safety_text(&scanned.lines[idx].comment) {
        return true;
    }
    let mut walked = 0usize;
    for j in (0..idx).rev() {
        let line = &scanned.lines[j];
        walked += 1;
        if walked > SAFETY_SEARCH_CAP {
            return false;
        }
        if is_safety_text(&line.comment) {
            return true;
        }
        if line.is_code_blank() || line.is_attribute() {
            continue;
        }
        // A code line may only intervene while it is part of the same
        // (wrapped) statement; any statement/block terminator means the
        // search crossed into earlier code without finding a justification.
        if line.code.contains(';') || line.code.contains('{') || line.code.contains('}') {
            return false;
        }
    }
    false
}

/// `crate-attrs`: every member's crate root must carry
/// `#![forbid(unsafe_code)]` (the SIMD crate instead documents its
/// exemption with `#![deny(unsafe_op_in_unsafe_fn)]`) and
/// `#![warn(missing_docs)]` (or the stricter `deny`).
pub fn crate_attrs(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for member in &ws.members {
        let root_rel = if member.rel == Path::new(".") {
            PathBuf::from("src/lib.rs")
        } else {
            member.rel.join("src/lib.rs")
        };
        let Some((file, scanned)) = member.files.iter().find(|(f, _)| *f == root_rel) else {
            continue; // pure-binary member; nothing to forbid at a crate root
        };
        let has = |needle: &str| {
            scanned.lines.iter().any(|l| {
                let squashed: String = l.code.chars().filter(|c| !c.is_whitespace()).collect();
                squashed.contains(needle)
            })
        };
        let unsafe_attr_ok = if member.dir_name() == UNSAFE_CRATE {
            has("#![deny(unsafe_op_in_unsafe_fn)]")
        } else {
            has("#![forbid(unsafe_code)]")
        };
        if !unsafe_attr_ok {
            let wanted = if member.dir_name() == UNSAFE_CRATE {
                "#![deny(unsafe_op_in_unsafe_fn)]"
            } else {
                "#![forbid(unsafe_code)]"
            };
            diags.push(Diagnostic {
                rule: "crate-attrs",
                file: file.clone(),
                line: 1,
                message: format!("crate root is missing `{wanted}`"),
            });
        }
        if !has("#![warn(missing_docs)]") && !has("#![deny(missing_docs)]") {
            diags.push(Diagnostic {
                rule: "crate-attrs",
                file: file.clone(),
                line: 1,
                message: "crate root is missing `#![warn(missing_docs)]`".into(),
            });
        }
    }
    diags
}

/// `service-lock`: panicking on a poisoned mutex in the serving crate would
/// turn one contained worker panic into a service-wide cascade, so
/// `crates/service` must route every lock through its poison-tolerant
/// helper — `.lock().unwrap()` / `.lock().expect(…)` are banned outright
/// (`lock_poisoned` recovers with `unwrap_or_else(PoisonError::into_inner)`).
pub fn service_lock(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for member in &ws.members {
        if member.dir_name() != "service" {
            continue;
        }
        for (file, scanned) in &member.files {
            if !file.starts_with(member.rel.join("src")) {
                continue; // tests may assert on locks however they like
            }
            let flat = scanned.flat_code();
            for pattern in [".lock().unwrap()", ".lock().expect("] {
                for line in flat.find_all(pattern, false) {
                    diags.push(Diagnostic {
                        rule: "service-lock",
                        file: file.clone(),
                        line,
                        message: format!(
                            "`{pattern}` panics on a poisoned mutex; use the crate's \
                             poison-tolerant lock helper (`lock_poisoned`)"
                        ),
                    });
                }
            }
        }
    }
    diags
}

/// `no-debug-escapes`: library code (every member's `src/`, excluding
/// `src/bin/` and `src/main.rs` binary roots) must not contain
/// `todo!`/`dbg!`/`unimplemented!` or `std::process::exit` — libraries
/// return typed errors; only binaries may choose an exit code.
pub fn no_debug_escapes(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for member in &ws.members {
        let src_root = if member.rel == Path::new(".") {
            PathBuf::from("src")
        } else {
            member.rel.join("src")
        };
        let bin_root = src_root.join("bin");
        for (file, scanned) in &member.files {
            if !file.starts_with(&src_root)
                || file.starts_with(&bin_root)
                || file.file_name().is_some_and(|n| n == "main.rs")
            {
                continue;
            }
            let flat = scanned.flat_code();
            for (pattern, what) in [
                ("todo!(", "`todo!` placeholder"),
                ("dbg!(", "`dbg!` debug print"),
                ("unimplemented!(", "`unimplemented!` placeholder"),
                ("process::exit(", "`std::process::exit` (libraries return errors)"),
            ] {
                for line in flat.find_all(pattern, true) {
                    diags.push(Diagnostic {
                        rule: "no-debug-escapes",
                        file: file.clone(),
                        line,
                        message: format!("{what} in library code"),
                    });
                }
            }
        }
    }
    diags
}

/// `fault-plan-confined`: a non-empty `FaultPlan` switches on fault
/// injection, which only chaos tests may do — library code (every member's
/// `src/`) must never construct one. The constructors
/// (`FaultPlan::seeded(` / `FaultPlan::builder(`) are confined to the
/// faults module itself (`src/faults.rs`, whose in-module tests exercise
/// them); threading a plan *through* configs is fine, the empty
/// `FaultPlan::default()` is fine, and tests/examples/benches may build
/// whatever schedules they need.
pub fn fault_plan_confined(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for member in &ws.members {
        let src_root = if member.rel == Path::new(".") {
            PathBuf::from("src")
        } else {
            member.rel.join("src")
        };
        let faults_module = src_root.join("faults.rs");
        for (file, scanned) in &member.files {
            if !file.starts_with(&src_root) || *file == faults_module {
                continue;
            }
            let flat = scanned.flat_code();
            for pattern in ["FaultPlan::seeded(", "FaultPlan::builder("] {
                for line in flat.find_all(pattern, true) {
                    diags.push(Diagnostic {
                        rule: "fault-plan-confined",
                        file: file.clone(),
                        line,
                        message: format!(
                            "`{pattern}…)` builds a non-empty fault plan in library code; \
                             fault injection belongs to chaos tests (the empty \
                             `FaultPlan::default()` is fine)"
                        ),
                    });
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_parsing_reads_quoted_entries_and_stops_at_bracket() {
        let manifest = r#"
[workspace]
members = [
    "crates/a", # trailing comment
    "crates/b", "crates/c",
]
exclude = ["crates/zzz"]
"#;
        let members = parse_members(manifest);
        assert_eq!(
            members,
            vec![PathBuf::from("crates/a"), PathBuf::from("crates/b"), PathBuf::from("crates/c")]
        );
    }

    #[test]
    fn member_parsing_dedups_default_members_style_lists() {
        let manifest = "members = [\"a\", \"a\", \"b\"]";
        assert_eq!(parse_members(manifest), vec![PathBuf::from("a"), PathBuf::from("b")]);
    }
}
