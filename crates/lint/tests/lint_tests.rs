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
        ("ws_r1_pos", "R1"),
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
        "ws_r1_neg",
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
fn a1_counts_every_container_call_that_can_grow() {
    let out = dcm_lint::run(&fixture("ws_a1_pos")).expect("fixture scan");
    for name in [
        "push",
        "push_back",
        "push_front",
        "extend",
        "extend_from_slice",
        "reserve",
        "resize",
        "resize_with",
    ] {
        let marker = format!("`.{name}()`");
        assert!(
            out.findings
                .iter()
                .any(|f| f.rule == "A1" && f.message.contains(&marker)),
            "A1 must flag {marker} on a hot path: {:?}",
            out.findings
        );
    }
}

#[test]
fn r1_flags_unreached_fns_and_stale_or_misplaced_pragmas() {
    let out = dcm_lint::run(&fixture("ws_r1_pos")).expect("fixture scan");
    let got: Vec<(&str, u32)> = out.findings.iter().map(|f| (f.rule, f.line)).collect();
    // `unreached`, `only_dcmbench_tests` (`dcmbench/src/tests.rs` is no
    // root), the pragma on `served` (a bench binary calls it), the one
    // over a private fn, `PagedKvCache::blocks_of` (the bench binary's
    // `attend` calls `blocks_of` on a `BlockList` parameter) and
    // `LookupBatch::validate` (`serve` calls `validate` on a `FaultPlan`
    // parameter it also passes whole to `timeline`).
    assert_eq!(
        got,
        [
            ("R1", 3),
            ("R1", 7),
            ("LINT", 11),
            ("LINT", 16),
            ("R1", 33),
            ("R1", 55)
        ],
        "{:?}",
        out.findings
    );
    assert!(out.findings[2].message.contains("main → served"));
}

#[test]
fn removing_the_bins_call_makes_r1_flag_the_callee() {
    // The fixture is clean as written; the same workspace without the
    // bench binary's `engine.run(..)` call leaves `ServingEngine::run`
    // reached from no root.
    let root = fixture("ws_r1_neg");
    let bin = "crates/bench/src/bin/serve.rs";
    let sources: Vec<(String, String)> = dcm_lint::scan::workspace_files(&root)
        .expect("fixture scan")
        .into_iter()
        .map(|rel| {
            let src = std::fs::read_to_string(root.join(&rel)).expect("fixture file");
            (rel, src)
        })
        .collect();
    let (clean, _) = dcm_lint::rules::lint_workspace(&sources);
    assert!(clean.is_empty(), "{clean:?}");
    let mutated: Vec<(String, String)> = sources
        .into_iter()
        .map(|(rel, src)| {
            let src = if rel == bin {
                src.replace("engine.run(&clock)", "0.0")
            } else {
                src
            };
            (rel, src)
        })
        .collect();
    let (findings, _) = dcm_lint::rules::lint_workspace(&mutated);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "R1" && f.message.contains("ServingEngine::run")),
        "{findings:?}"
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
}
