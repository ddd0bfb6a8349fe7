//! CLI for workspace automation: `cargo xtask lint [options]`.
//!
//! Exit codes: 0 = clean, 1 = findings reported, 2 = usage error.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::lint::{lint_workspace, render_sarif, render_text};
use xtask::rules::ALL_RULES;

const USAGE: &str = "\
usage: cargo xtask lint [options]

options:
  --format <text|sarif>
                       output format (default: text); sarif is what
                       GitHub code scanning ingests (findings carry
                       their call chain as codeFlows)
  --root <dir>         workspace root (default: auto-detected)
  --list-rules         print rule names and descriptions, then exit
  -h, --help           print this help
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint_cmd(&args[1..]),
        Some("-h") | Some("--help") | None => {
            print!("{USAGE}");
            ExitCode::from(if args.is_empty() { 2 } else { 0 })
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn lint_cmd(args: &[String]) -> ExitCode {
    let mut sarif = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("text") => sarif = false,
                Some("sarif") => sarif = true,
                _ => {
                    eprintln!("--format requires `text` or `sarif`\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root requires a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for rule in ALL_RULES {
                    println!("{:<21} {}", rule.name(), rule.describe());
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown option `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    // Default root: the workspace directory containing this crate.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    });

    match lint_workspace(&root) {
        Ok(findings) => {
            if sarif {
                print!("{}", render_sarif(&findings));
            } else {
                print!("{}", render_text(&findings));
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(err) => {
            eprintln!("xtask lint: io error: {err}");
            ExitCode::from(2)
        }
    }
}
