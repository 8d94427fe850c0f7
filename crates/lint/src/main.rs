//! `dcm-lint` — the CI gate binary.
//!
//! ```text
//! dcm-lint [--root DIR]
//! ```
//!
//! Prints one line per finding and a summary line. Exit codes: `0`
//! lint-clean, `1` findings, `2` usage/IO error. Run from the workspace
//! root (what `cargo run -p dcm-lint` does); `tools/ci.sh` runs it ahead
//! of clippy so determinism hazards fail fast.

use std::path::PathBuf;
use std::process::ExitCode;

fn parse_root() -> Result<PathBuf, String> {
    let mut root = PathBuf::from(".");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--help" | "-h" => return Err("usage: dcm-lint [--root DIR]".to_owned()),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(root)
}

fn main() -> ExitCode {
    let root = match parse_root() {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match dcm_lint::run(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dcm-lint: error scanning workspace: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", outcome.text);
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
