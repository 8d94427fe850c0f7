//! End-to-end tests of the `dcm-lint` pipeline: fixture mini-workspaces
//! under `tests/fixtures/` (one directory per scenario, excluded from the
//! real scan), a self-scan of the actual workspace, and byte-identity of
//! the reports across runs.

use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Findings a fixture run produced, as (rule, path) pairs.
fn run_rules(name: &str) -> Vec<(String, String)> {
    let out = dcm_lint::run(&fixture(name)).expect("fixture scan");
    out.findings
        .iter()
        .map(|f| (f.rule.to_owned(), f.path.clone()))
        .collect()
}

#[test]
fn positive_fixtures_fire_their_rule_and_fail_the_run() {
    for (ws, rule) in [
        ("ws_d1_pos", "D1"),
        ("ws_d2_pos", "D2"),
        ("ws_f1_pos", "F1"),
        ("ws_f2_pos", "F2"),
        ("ws_c1_pos", "C1"),
        ("ws_p1_pos", "P1"),
        ("ws_lint_pos", "LINT"),
        ("ws_d3_pos", "D3"),
        ("ws_u1_pos", "U1"),
        ("ws_a1_pos", "A1"),
    ] {
        let out = dcm_lint::run(&fixture(ws)).expect("fixture scan");
        assert!(
            !out.is_clean(),
            "{ws}: expected a failing run (nonzero exit)"
        );
        assert!(
            out.findings.iter().any(|f| f.rule == rule),
            "{ws}: expected a {rule} finding, got {:?}",
            out.findings
        );
    }
}

#[test]
fn negative_fixtures_are_clean() {
    for ws in [
        "ws_d1_neg",
        "ws_d2_neg",
        "ws_f1_neg",
        "ws_f2_neg",
        "ws_c1_neg",
        "ws_p1_neg",
        "ws_pragma_ok",
        "ws_pragma_parens",
        "ws_d3_neg",
        "ws_u1_neg",
        "ws_a1_neg",
    ] {
        let got = run_rules(ws);
        assert!(got.is_empty(), "{ws}: expected clean, got {got:?}");
    }
}

#[test]
fn d1_fixture_reports_file_and_both_hash_types() {
    let out = dcm_lint::run(&fixture("ws_d1_pos")).expect("fixture scan");
    assert!(out
        .findings
        .iter()
        .all(|f| f.path == "crates/vllm/src/lib.rs" && f.rule == "D1"));
    // `use` line + return type + constructor call.
    assert_eq!(out.findings.len(), 3);
    assert_eq!(out.findings[0].line, 2);
}

#[test]
fn d3_catches_transitive_hash_order_that_d1_misses() {
    // The fixture's `HashMap` sits in a non-simulation crate, which D1
    // does not scan — yet `ServingEngine::run` reaches it through a
    // cross-crate call. Only the call-graph rule sees the impurity.
    let out = dcm_lint::run(&fixture("ws_d3_pos")).expect("fixture scan");
    assert!(
        out.findings
            .iter()
            .all(|f| f.rule != "D1" && f.rule != "D2"),
        "fixture must be D1/D2-clean: {:?}",
        out.findings
    );
    let d3: Vec<_> = out.findings.iter().filter(|f| f.rule == "D3").collect();
    assert!(!d3.is_empty(), "expected a D3 finding: {:?}", out.findings);
    assert!(
        d3[0].path == "crates/bench/src/lib.rs" && d3[0].message.contains("ServingEngine::run"),
        "finding must name the hazard file and the entry-point chain: {d3:?}"
    );
}

#[test]
fn a1_names_the_hot_path_chain() {
    let out = dcm_lint::run(&fixture("ws_a1_pos")).expect("fixture scan");
    let a1: Vec<_> = out.findings.iter().filter(|f| f.rule == "A1").collect();
    assert!(
        a1.iter().any(|f| f.message.contains("EventQueue::push")),
        "A1 must cite the reachability chain from the hot-path root: {a1:?}"
    );
}

#[test]
fn self_scan_the_real_workspace_is_clean() {
    let out = dcm_lint::run(&workspace_root()).expect("workspace scan");
    assert!(
        out.is_clean(),
        "workspace must be lint-clean; found:\n{}",
        out.text
    );
    assert!(out.summary.files_scanned > 50, "scan looks truncated");
    assert!(
        out.unmatched_roots.is_empty(),
        "every D3 entry point and A1 root must name a function; unmatched: {:?}",
        out.unmatched_roots
    );
}

#[test]
fn reports_are_byte_identical_across_runs() {
    let root = workspace_root();
    let a = dcm_lint::run(&root).expect("first run");
    let b = dcm_lint::run(&root).expect("second run");
    assert_eq!(a.text, b.text, "text report must be deterministic");
    assert_eq!(a.json, b.json, "JSON report must be deterministic");
}
