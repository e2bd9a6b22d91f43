//! CLI for the workspace invariant linter and line counter.
//!
//! ```text
//! cargo run -p xcheck -- lint [--root <dir>] [--format json|text]
//! cargo run -p xcheck -- loc [--root <dir>]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: xcheck lint [--root <dir>] [--format json|text]\n\
     \x20      xcheck loc [--root <dir>]\n\
     \n\
     `lint` checks the workspace at <dir> (default: this repository) against\n\
     the repo invariants: unsafe confinement, SAFETY comments, crate-root\n\
     attributes, service lock discipline, debug escapes and fault-plan\n\
     confinement. Exit codes: 0 clean, 1 violations, 2 lint failure.\n\
     \n\
     `loc` prints the code lines (neither blank nor comment-only) of every\n\
     workspace crate: library code, #[cfg(test)] items, tests/ and\n\
     examples/ + benches/."
}

#[derive(PartialEq)]
enum Command {
    Lint,
    Loc,
}

struct Args {
    command: Command,
    root: PathBuf,
    json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let command = match it.next().map(String::as_str) {
        Some("lint") => Command::Lint,
        Some("loc") => Command::Loc,
        Some(other) => return Err(format!("unknown subcommand `{other}`")),
        None => return Err("missing subcommand".into()),
    };
    // The manifest dir of this crate is <root>/crates/xcheck; default to the
    // workspace that contains it so `cargo run -p xcheck -- lint` needs no
    // arguments from anywhere inside the repo.
    let mut root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut json = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root =
                    PathBuf::from(it.next().ok_or_else(|| "--root needs a directory".to_string())?);
            }
            "--format" if command == Command::Lint => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("text") => json = false,
                _ => return Err("--format needs `json` or `text`".into()),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args { command, root, json })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("xcheck: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let root = match args.root.canonicalize() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("xcheck: cannot resolve root {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };
    if args.command == Command::Loc {
        return match xcheck::loc::count(&root) {
            Ok(crates) => {
                print!("{}", xcheck::loc::render_table(&crates));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("xcheck: {e}");
                ExitCode::from(2)
            }
        };
    }
    match xcheck::rules::run_all(&root) {
        Ok(diags) => {
            if args.json {
                print!("{}", xcheck::diagnostics_to_json(&diags));
            } else {
                for d in &diags {
                    println!("{d}");
                }
                if diags.is_empty() {
                    eprintln!("xcheck: clean ({} ok)", root.display());
                } else {
                    eprintln!("xcheck: {} violation(s)", diags.len());
                }
            }
            if diags.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("xcheck: {e}");
            ExitCode::from(2)
        }
    }
}
