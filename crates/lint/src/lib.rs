//! # dcm-lint
//!
//! Workspace-wide determinism & numeric-safety static analysis for the
//! dcm simulation suite — the statically-enforced half of the contract
//! DESIGN.md §3.7 states in prose.
//!
//! Every headline artifact of this reproduction (the five golden serving
//! reports, the 1-vs-8-thread CSV diffs, the paper-figure crossovers)
//! rests on bit-identical determinism. Dynamic checks catch a violation
//! only *after* it ships into a report; this tool proves the known hazard
//! classes absent at the source level, on every CI run, before clippy:
//!
//! | rule | hazard |
//! |------|--------|
//! | `D1` | `HashMap`/`HashSet` in simulation crates (iteration order)   |
//! | `D2` | wall-clock / entropy outside test code                       |
//! | `F1` | `partial_cmp` where `total_cmp` is required                  |
//! | `F2` | bare float `==` outside tests                                |
//! | `C1` | unjustified numeric `as` casts in simulation crates          |
//! | `P1` | `unwrap()`/`expect()` in library crates outside tests        |
//! | `D3` | nondeterminism reachable from a sim entry point (call graph) |
//! | `U1` | mixed unit suffixes across `+`/`-`/comparison operands       |
//! | `A1` | allocation reachable from the per-event hot paths            |
//!
//! A finding is either fixed or suppressed by an inline
//! `// dcm-lint: allow(rule-id) reason` pragma next to the code; there is
//! no other suppression mechanism.
//!
//! Pure std, offline, no dependencies — the linter must not depend on
//! anything it judges. See [`rules`] for the engine, [`lexer`] for the
//! hand-rolled token stream it runs on, [`parser`] for the item-level
//! AST, [`callgraph`] for D3/A1 resolution.

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod scan;

use report::Summary;
use rules::Finding;
use std::fs;
use std::io;
use std::path::Path;

/// Everything one lint run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Findings that survive pragmas, sorted.
    pub findings: Vec<Finding>,
    pub summary: Summary,
    /// Human-readable report.
    pub text: String,
    /// Machine-readable report (`results/lint_report.json` content).
    pub json: String,
    /// `D3` entry points and `A1` roots that name no function in the
    /// tree (see [`rules::WorkspaceStats::unmatched_roots`]).
    pub unmatched_roots: Vec<String>,
}

impl Outcome {
    /// Whether the tree is lint-clean (exit code 0).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lint the workspace rooted at `root`.
///
/// # Errors
/// Propagates I/O errors reading the tree (an unreadable file is an
/// error, not a silent skip — silence would fake cleanliness).
pub fn run(root: &Path) -> io::Result<Outcome> {
    let files = scan::workspace_files(root)?;
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for rel in &files {
        sources.push((rel.clone(), fs::read_to_string(root.join(rel))?));
    }
    let (findings, stats) = rules::lint_workspace(&sources);
    let summary = Summary {
        files_scanned: files.len(),
        findings: findings.len(),
        functions_indexed: stats.functions_indexed,
        call_edges: stats.call_edges,
    };
    let text = report::render_text(&findings, summary);
    let json = report::render_json(&findings, summary);
    Ok(Outcome {
        findings,
        summary,
        text,
        json,
        unmatched_roots: stats.unmatched_roots,
    })
}
