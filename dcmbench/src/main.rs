//! `dcmbench`: host-time benchmark of the dcm simulator. One invocation
//! measures one workload; see README.md for the workloads, metrics and
//! how to compare two commits.
//!
//! ```text
//! cargo run --release --manifest-path dcmbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each rep runs in a fresh child process of this binary (with
//! `DCM_THREADS=1`), so at most two threads run at once and every rep
//! starts with a cold heap. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod probes;
mod spans;
mod stats;
#[cfg(test)]
mod tests;
mod workloads;

use probes::{Metric, ProbeConfig};
use spans::{Span, Spans};
use stats::{median, quartiles};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use workloads::{Rep, Workload};

const USAGE: &str = "usage: dcmbench --workload <paper_artifacts|poisson_ff|online_exact_jsq|faults_fabric_kv> [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one rep and print it in the child protocol.
    child: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::PaperArtifacts,
        seed: workloads::PINNED_SEED,
        seconds: 30.0,
        trace: false,
        child: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--child" {
            args.child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("workload"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dcmbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = if args.child {
        child(&args).map(|()| true)
    } else {
        parent(&args)
    };
    match result {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("dcmbench: {e}");
            std::process::exit(1);
        }
    }
}

/// `<target>/release`, where this binary and the artifact binaries live.
fn bin_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| "binary has no parent directory".to_owned())
}

/// `<target>/dcmbench`: results, traces and the artifacts' working
/// directories.
fn out_dir(bin_dir: &Path) -> PathBuf {
    bin_dir.parent().unwrap_or(bin_dir).join("dcmbench")
}

fn child(args: &Args) -> Result<(), String> {
    let mut spans = Spans::new(args.trace);
    let rep = match args.workload.serving() {
        Some(spec) => workloads::serving_rep(&spec, args.seed, &mut spans),
        None => {
            let bin_dir = bin_dir()?;
            workloads::artifacts_rep(&bin_dir, &out_dir(&bin_dir).join("tmp"), &mut spans)
        }
    };
    let mut text = String::new();
    for s in spans.spans() {
        let _ = writeln!(text, "{}", spans::to_line(s));
    }
    let _ = writeln!(text, "{}", rep.to_line());
    std::io::stdout()
        .write_all(text.as_bytes())
        .map_err(|e| format!("cannot write rep: {e}"))
}

/// One rep as the parent saw it: `None` when the child crashed or
/// printed no rep.
struct ChildRep {
    rep: Option<Rep>,
    spans: Vec<Span>,
    started: Instant,
}

fn spawn_rep(workload: Workload, seed: u64, trace: bool) -> Result<ChildRep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let started = Instant::now();
    let out = Command::new(exe)
        .args(["--child", "--workload", workload.name(), "--seed"])
        .arg(seed.to_string())
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("DCM_THREADS", "1")
        .env_remove("DCM_SMOKE")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a rep: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rep = if out.status.success() {
        stdout.lines().last().and_then(Rep::from_line)
    } else {
        None
    };
    if rep.is_none() {
        eprintln!(
            "dcmbench: a {} rep failed ({})",
            workload.name(),
            out.status
        );
    }
    Ok(ChildRep {
        rep,
        spans: stdout.lines().filter_map(spans::from_line).collect(),
        started,
    })
}

/// Build the artifact binaries into the target directory this binary was
/// built into, so the paper-artifact reps run the same source.
fn build_artifacts(bin_dir: &Path) -> Result<(), String> {
    let target_dir = bin_dir.parent().ok_or("target directory not found")?;
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "dcm-bench", "--bins", "--manifest-path"])
        .arg(&manifest)
        .arg("--target-dir")
        .arg(target_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("building the artifact binaries failed ({status})"))
    }
}

fn parent(args: &Args) -> Result<bool, String> {
    let bin_dir = bin_dir()?;
    build_artifacts(&bin_dir)?;
    let out_dir = out_dir(&bin_dir);
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    if args.trace {
        traced(args, &out_dir)
    } else {
        measured(args, &out_dir)
    }
}

/// Totals and the correctness verdict over a run's reps: no failed
/// operation, one digest across reps, and that digest equal to the
/// pinned one where a digest is pinned.
struct Verdict {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
    correct: bool,
}

fn verdict(workload: Workload, seed: u64, reps: &[&ChildRep]) -> Verdict {
    let (mut attempted, mut failed) = (0, 0);
    let mut digests = Vec::new();
    for r in reps {
        match &r.rep {
            Some(rep) => {
                attempted += rep.attempted;
                failed += rep.failed;
                digests.push(rep.digest);
            }
            None => {
                attempted += workload.ops_per_rep();
                failed += workload.ops_per_rep();
            }
        }
    }
    let digest = digests.first().copied();
    let same = digests.iter().all(|d| Some(*d) == digest);
    let pinned = workload.pinned_digest(seed);
    let matches_pin = pinned.is_none_or(|p| digest == Some(p));
    if !same {
        eprintln!("dcmbench: reps disagree on the output digest: {digests:016x?}");
    }
    if !matches_pin {
        eprintln!(
            "dcmbench: output digest {:016x} differs from the pinned {:016x}",
            digest.unwrap_or(0),
            pinned.unwrap_or(0)
        );
    }
    Verdict {
        attempted,
        failed,
        digest,
        correct: failed == 0 && same && matches_pin && digest.is_some(),
    }
}

/// The per-rep value of an end-to-end metric.
type RepValue = fn(&Rep) -> f64;

/// How a run's reps are summarised into the reported value.
type Summary = fn(&[f64]) -> f64;

/// The end-to-end metrics: name, unit, the per-rep value and its summary
/// over a run's reps.
///
/// `wall_s` is the first quartile of the run's reps. Every rep does the
/// same deterministic work, so the spread between reps is the host's: on
/// a shared host most reps run in a steady mode, spells 1.3-2x slower
/// last from one rep to minutes, and short spells run faster. The median
/// moves with the share of the run spent in slow spells and the minimum
/// with one lucky rep; the first quartile does neither. Set-up and
/// memory are medians.
const END_TO_END: [(&str, &str, RepValue, Summary); 3] = [
    ("wall_s", "s", |r| r.wall_s, |v| quartiles(v).0),
    ("setup_s", "s", |r| r.setup_s, median),
    ("peak_rss_mb", "MiB", |r| r.peak_rss_mb, median),
];

/// Reps back to back until `--seconds` have passed, then the end-to-end
/// metrics over them.
fn measured(args: &Args, out_dir: &Path) -> Result<bool, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        reps.push(spawn_rep(args.workload, args.seed, false)?);
    }
    let all: Vec<&ChildRep> = reps.iter().collect();
    let v = verdict(args.workload, args.seed, &all);
    let ok: Vec<&Rep> = reps.iter().filter_map(|r| r.rep.as_ref()).collect();
    if ok.is_empty() {
        return Err("no rep completed".to_owned());
    }
    let column = |f: RepValue| ok.iter().map(|r| f(r)).collect::<Vec<f64>>();
    let name = args.workload.name();
    let mut report = String::new();
    let mut metrics = Vec::new();
    for (metric, unit, f, summary) in END_TO_END {
        let values = column(f);
        let value = summary(&values);
        let (q1, q3) = quartiles(&values);
        let med = median(&values);
        println!(
            "{name} {metric} {value} {unit} (reps: median {med} q1 {q1} q3 {q3}, n={})",
            values.len()
        );
        let _ = write!(
            report,
            "\"{metric}\": {{\"value\": {value}, \"median\": {med}, \"q1\": {q1}, \"q3\": {q3}, \"reps\": [{}]}}, ",
            join(&values)
        );
        metrics.push(Metric {
            name: metric.to_owned(),
            value,
            unit,
        });
    }
    if args.workload.serving().is_some() {
        // Correct reps serve the same tokens: the digest pins them.
        let wall_s = metrics.iter().find(|m| m.name == "wall_s");
        println!(
            "{name} sim_tokens_per_wall_s {} tokens/s (not gated)",
            ok[0].sim_tokens as f64 / wall_s.map_or(f64::NAN, |m| m.value)
        );
    }
    let file = out_dir.join(format!("{name}-seed{}.json", args.seed));
    let doc = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"digest\": \"{:016x}\", {report}\"result\": {}}}\n",
        args.seed,
        v.digest.unwrap_or(0),
        result_json(&v, &metrics)
    );
    std::fs::write(&file, doc).map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!("{}", result_json(&v, &metrics));
    Ok(v.correct)
}

/// One untraced and one traced rep of the workload, one traced pass over
/// the artifacts, and every layer probe. Spans go to a Chrome trace.
fn traced(args: &Args, out_dir: &Path) -> Result<bool, String> {
    let mut spans = Spans::new(true);
    let w = args.workload;
    let rep = |spans: &mut Spans, w: Workload, trace: bool| {
        let (r, _) = spans.span(&format!("rep.{}", w.name()), || {
            spawn_rep(w, args.seed, trace)
        });
        let r = r?;
        let offset_us = r.started.duration_since(spans.origin()).as_secs_f64() * 1e6;
        spans.adopt(r.spans.clone(), offset_us, 1);
        Ok::<_, String>(r)
    };
    let base = rep(&mut spans, w, false)?;
    let traced = rep(&mut spans, w, true)?;
    let artifacts = if w == Workload::PaperArtifacts {
        None
    } else {
        Some(rep(&mut spans, Workload::PaperArtifacts, true)?)
    };
    let art = artifacts.as_ref().unwrap_or(&traced);

    let mut metrics = rep_metrics(&base, &traced, art);
    metrics.extend(probes::all(ProbeConfig::full(), args.seed, &mut spans));

    let mut v = verdict(w, args.seed, &[&base, &traced]);
    if let Some(a) = &artifacts {
        let va = verdict(Workload::PaperArtifacts, args.seed, &[a]);
        v.attempted += va.attempted;
        v.failed += va.failed;
        v.correct &= va.correct;
    }
    let file = out_dir.join(format!("trace-{}-seed{}.json", w.name(), args.seed));
    std::fs::write(&file, spans.chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    for m in &metrics {
        println!("{} {} {} {}", w.name(), m.name, m.value, m.unit);
    }
    println!("chrome trace: {}", file.display());
    println!("{}", result_json(&v, &metrics));
    Ok(v.correct)
}

/// The traced rep's wall time and its excess over the untraced one; then
/// the host seconds of each artifact binary in a traced artifacts rep,
/// and the rest of that rep's wall time (process start-up and waiting).
fn rep_metrics(base: &ChildRep, traced: &ChildRep, artifacts: &ChildRep) -> Vec<Metric> {
    let wall = |r: &ChildRep| r.rep.map_or(f64::NAN, |r| r.wall_s);
    let metric = |name: &str, value| Metric {
        name: name.to_owned(),
        value,
        unit: "s",
    };
    let mut out = vec![
        metric("trace.rep_s", wall(traced)),
        metric("trace.overhead_s", wall(traced) - wall(base)),
    ];
    let mut attributed = 0.0;
    for name in workloads::ARTIFACTS {
        let secs = artifacts
            .spans
            .iter()
            .find(|s| s.name == format!("artifact.{name}"))
            .map_or(f64::NAN, |s| s.dur_us / 1e6);
        attributed += secs;
        out.push(metric(&format!("artifact.{name}.wall_s"), secs));
    }
    out.push(metric(
        "artifact.unattributed_s",
        wall(artifacts) - attributed,
    ));
    out
}

fn join(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// The result line. A value that is not finite (a rep that never ran)
/// makes the result incorrect.
fn result_json(v: &Verdict, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_owned()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.correct && finite,
        v.attempted,
        v.failed,
        body.join(", ")
    )
}
