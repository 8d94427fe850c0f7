#!/usr/bin/env sh
# Local CI gate: lint-clean and test-green, exactly what reviewers run.
#
#   sh tools/ci.sh
#
# Everything resolves offline (external deps are path shims under shims/),
# so this needs no network access.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

# Determinism & numeric-safety static analysis (DESIGN.md §3.7): fails on
# any hazard not covered by an inline `// dcm-lint: allow(rule) reason`
# pragma, the only suppression mechanism. Runs before clippy so the cheap,
# domain-specific gate fires first. Report: results/lint_report.json.
echo "==> dcm-lint"
cargo run -q --release -p dcm-lint

# The report the lint run just wrote must conform to the schema that
# EXPERIMENTS.md documents (schema_version 3): downstream tooling reads
# it unconditionally, so drift fails the same CI run that produced it.
echo "==> dcm-lint --validate-report results/lint_report.json"
cargo run -q --release -p dcm-lint -- --validate-report results/lint_report.json

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The API docs build without a warning: a citation such as `[42]` reads
# as a broken link unless escaped, and public docs may not link private
# items.
echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Determinism: run every figure/extension binary, in its one (full)
# configuration, serially and at 8 threads, each run in a fresh working
# directory (binaries write results/ relative to the cwd), and diff
# everything the two runs produced: stdout, stderr and every written
# file. The thread count is an explicit override, not a host probe, so
# this exercises the parallel sweep harness even on 1-core CI boxes. At
# 8 threads each worker thread compiles and prices into step tables of
# its own.
echo "==> determinism: every bench binary at DCM_THREADS=1 vs 8"
cargo build -q --release -p dcm-bench
bin_dir=$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)
det_tmp=$(mktemp -d)
trap 'rm -rf "$det_tmp"' EXIT
for bin in crates/bench/src/bin/*.rs; do
    name=$(basename "$bin" .rs)
    echo "==> determinism: $name"
    for threads in 1 8; do
        mkdir "$det_tmp/$name.$threads"
        (cd "$det_tmp/$name.$threads" &&
            DCM_THREADS=$threads "$bin_dir/$name" >stdout 2>stderr)
    done
    diff -r "$det_tmp/$name.1" "$det_tmp/$name.8"
done
echo "==> determinism OK"

# Run every example once: they walk through the public API (the serving
# example through the single-engine and cluster entry points) and are
# otherwise only compiled, by clippy --all-targets.
echo "==> running examples"
for ex in examples/*.rs; do
    name=$(basename "$ex" .rs)
    echo "==> example: $name"
    cargo run -q --release -p dcm-examples --example "$name" >/dev/null
done

# Differential suite under an explicit 2-thread override: the
# queue-vs-list-model, slab-vs-map (the public slab that dcmbench times;
# the engine no longer uses it), histogram, fast-forward (on one
# replica, i.e. the single engine, and on several) and
# flow-vs-closed-form fabric equivalence properties, the attention
# pricing paths (slice, stats and memoized) against each other and an
# exact stretch's summed prices against token-by-token steps, the
# stretch pricer against pricing each step's projection, the batch
# projection kept across inserts, removes and grow-alls against a
# rebuild, the split pipeline makespan against its recurrence, the
# exact-stretch cut invariance (lazy, eager and slowdown-window
# catch-ups give one report), the MME geometry search against its f64
# argmin spec, the per-thread step tables' report invariance and counts,
# graphs with repeated blocks against their flat twins (bit for bit) and
# the Llama lowerings' block structure, the never-panic, never-hang
# cluster runs, the cluster's arrival order against one queue holding
# every arrival (and permuted traces) and the exact percentile against
# sorting a copy, plus the steady-state allocation audit must hold
# regardless of the parallelism the host advertises.
echo "==> differential suite (DCM_THREADS=2)"
DCM_THREADS=2 cargo test -q -p dcm-tests \
    --test prop_queue_diff --test prop_slab_diff --test prop_histogram \
    --test prop_batch_stats --test prop_stretch_cuts \
    --test prop_fast_forward --test prop_cluster_ff --test prop_fabric_diff \
    --test prop_mme_select --test prop_step_cost_memo --test prop_graph_blocks \
    --test step_cost_memo_counts --test prop_robustness --test prop_arrival_order \
    --test alloc_steady_state

# Host-time benchmark (dcmbench/, a package of its own; see its README).
# Its in-process smoke tests run the serving workloads at a tiny size and
# every layer probe once. Then one rep of each workload at the pinned seed must
# reproduce the output digest pinned in dcmbench/src/workloads.rs. Host
# timings are printed, not gated here: comparing two commits needs
# repeated runs of both on one quiet host (README "Compare two commits").
# `--locked` fails the step if dcmbench/Cargo.lock is stale, instead of
# letting cargo rewrite that frozen file.
echo "==> dcmbench smoke tests"
cargo test -q --locked --manifest-path dcmbench/Cargo.toml
for w in paper_artifacts poisson_ff online_exact_jsq faults_fabric_kv; do
    echo "==> dcmbench digest: $w"
    cargo run -q --release --locked --manifest-path dcmbench/Cargo.toml -- \
        --workload "$w" --seconds 0 >/dev/null
done

echo "==> ci OK"
