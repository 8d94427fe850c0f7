//! `dcm-lint` — the CI gate binary.
//!
//! ```text
//! dcm-lint [--root DIR] [--json PATH] [--quiet]
//! dcm-lint --validate-report PATH
//! ```
//!
//! Exit codes: `0` lint-clean, `1` findings, `2` usage/IO error. Run
//! from the workspace root (what `cargo run -p dcm-lint` does);
//! `tools/ci.sh` runs it ahead of clippy so determinism hazards fail
//! fast, then re-reads the report it wrote through `--validate-report` so
//! schema drift fails the same run.

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json: PathBuf,
    quiet: bool,
    validate_report: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: PathBuf::from("results/lint_report.json"),
        quiet: false,
        validate_report: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--json" => {
                args.json = PathBuf::from(it.next().ok_or("--json needs a path")?);
            }
            "--quiet" | "-q" => args.quiet = true,
            "--validate-report" => {
                args.validate_report = Some(PathBuf::from(
                    it.next().ok_or("--validate-report needs a path")?,
                ));
            }
            "--help" | "-h" => {
                return Err("usage: dcm-lint [--root DIR] [--json PATH] [--quiet]\n\
                     \u{20}      dcm-lint --validate-report PATH"
                    .to_owned());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// Check an existing `lint_report.json` against the documented schema
/// (EXPERIMENTS.md): exit 0 on conformance, 1 with a diagnostic on drift.
fn validate_report(path: &PathBuf) -> ExitCode {
    let json = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dcm-lint: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    match dcm_lint::report::validate(&json) {
        Ok(()) => {
            println!("dcm-lint: {} conforms to schema v3", path.display());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!(
                "dcm-lint: {} violates the report schema: {msg}",
                path.display()
            );
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.validate_report {
        return validate_report(path);
    }

    let outcome = match dcm_lint::run(&args.root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dcm-lint: error scanning workspace: {e}");
            return ExitCode::from(2);
        }
    };

    // The JSON report is written even on a clean tree: downstream tooling
    // reads it unconditionally (EXPERIMENTS.md documents the schema).
    let json_path = args.root.join(&args.json);
    if let Some(dir) = json_path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("dcm-lint: cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    if let Err(e) = std::fs::write(&json_path, &outcome.json) {
        eprintln!("dcm-lint: cannot write {}: {e}", json_path.display());
        return ExitCode::from(2);
    }

    if !args.quiet || !outcome.is_clean() {
        print!("{}", outcome.text);
    }
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
