//! In-process smoke tests: the serving workloads at tiny sizes, one call
//! of every probe, and the metric and artifact lists kept in step with
//! `BENCHMARK.json` and `crates/bench/src/bin/`.

use super::*;
use std::time::Duration;

/// One call of every probe, on small inputs.
fn tiny_probes() -> ProbeConfig {
    ProbeConfig {
        min_region: Duration::ZERO,
        regions: 1,
        events: 1_000,
        exact_samples: 1_000,
    }
}

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel)
}

/// The `name`s listed under `section` in `BENCHMARK.json`.
fn benchmark_names(section: &str) -> Vec<String> {
    let doc = std::fs::read_to_string(repo_file("BENCHMARK.json")).expect("read BENCHMARK.json");
    let start = doc
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn serving_workloads_run_at_tiny_sizes() {
    for w in Workload::ALL {
        let Some(spec) = w.serving() else { continue };
        let spec = spec.with_requests(200);
        let mut spans = Spans::new(true);
        let a = workloads::serving_rep(&spec, 7, &mut spans);
        let b = workloads::serving_rep(&spec, 7, &mut Spans::new(false));
        assert_eq!((a.attempted, a.failed), (1, 0), "{}", w.name());
        assert_eq!(a.digest, b.digest, "{} must be deterministic", w.name());
        assert!(a.wall_s > 0.0 && a.setup_s > 0.0 && a.peak_rss_mb > 0.0);
        assert!(a.sim_tokens > 0);
        assert!(spans.spans().iter().any(|s| s.name == "vllm.cluster.run"));
    }
}

#[test]
fn every_metric_is_emitted_under_its_benchmark_json_name() {
    let probes = probes::all(tiny_probes(), 7, &mut Spans::new(false));
    for m in &probes {
        assert!(m.value.is_finite() && m.value > 0.0, "{m:?}");
    }
    let none = || ChildRep {
        rep: None,
        spans: Vec::new(),
        started: Instant::now(),
    };
    let per_layer: Vec<String> = rep_metrics(&none(), &none(), &none())
        .into_iter()
        .chain(probes)
        .map(|m| m.name)
        .collect();
    let end_to_end: Vec<String> = END_TO_END.iter().map(|m| m.0.to_owned()).collect();
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();

    assert_eq!(per_layer, benchmark_names("per_layer"));
    assert_eq!(end_to_end, benchmark_names("end_to_end"));
    assert_eq!(workloads, benchmark_names("workloads"));
    let mut all: Vec<&String> = per_layer.iter().chain(&end_to_end).collect();
    assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
    assert!(per_layer.len() <= 128);
    all.sort();
    all.dedup();
    assert_eq!(
        all.len(),
        per_layer.len() + end_to_end.len(),
        "names are unique"
    );
}

#[test]
fn artifact_list_is_every_bench_binary_but_perf_report() {
    let dir = repo_file("crates/bench/src/bin");
    let mut found: Vec<String> = std::fs::read_dir(&dir)
        .expect("read the bench binaries")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            Some(name.strip_suffix(".rs")?.to_owned())
        })
        .filter(|n| n != "perf_report")
        .collect();
    found.sort();
    let mut listed: Vec<&str> = workloads::ARTIFACTS.to_vec();
    listed.sort_unstable();
    assert_eq!(found, listed);
}

#[test]
fn rep_lines_round_trip() {
    let rep = Rep {
        setup_s: 0.012_345_678_9,
        wall_s: 2.5,
        peak_rss_mb: 33.886_718_75,
        digest: 0x49fd_b56a_0058_d82c,
        attempted: 28,
        failed: 1,
        sim_tokens: 19_983_195,
    };
    assert_eq!(Rep::from_line(&rep.to_line()), Some(rep));
    assert_eq!(Rep::from_line("rep\t1\t2"), None);
}

#[test]
fn args_parse_the_documented_flags() {
    let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
    let a = parse("--workload poisson_ff --seed 3 --seconds 10 --trace 1").expect("valid");
    assert_eq!(
        (a.workload, a.seed, a.seconds, a.trace, a.child),
        (Workload::PoissonFf, 3, 10.0, true, false)
    );
    assert!(parse("--seed 3").is_err(), "workload is required");
    assert!(parse("--workload nope").is_err());
    assert!(parse("--workload poisson_ff --trace 2").is_err());
    assert!(parse("--workload poisson_ff --seconds").is_err());
}
