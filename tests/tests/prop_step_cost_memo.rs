//! The per-thread step tables (DESIGN.md §3.6) must be invisible: a
//! family's `ServingReport` is a pure function of its device, model, `tp`,
//! backend and trace, whichever families ran before it on its thread, and
//! whether its siblings ran serially or on 8 threads.
//!
//! A thread cannot empty its tables, so each family's oracle is a *fresh
//! twin*: the same device under a name no earlier run used. Names do not
//! enter pricing, but they do enter the family key, so the twin starts as
//! a family of its own and compiles every step it prices. A key that
//! conflated a family with one that prices differently would hand it the
//! other's step times, and its report would leave its twin's. Three
//! backends share the Gaudi-2 Llama-8B family, so its attention tables
//! must be chosen by backend as well.

use dcm_compiler::Device;
use dcm_core::par::par_map;
use dcm_core::specs::DeviceSpec;
use dcm_vllm::attention::PagedBackend;
use dcm_vllm::dataset::Request;
use dcm_vllm::engine::ServingEngine;
use dcm_workloads::llama::LlamaConfig;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// One (device, model, tp) group and the attention backend it serves with.
struct Family {
    spec: DeviceSpec,
    arch: fn(DeviceSpec) -> Device,
    backend: PagedBackend,
    model: LlamaConfig,
    tp: usize,
}

/// Families that share graphs and lengths but not step times, including
/// two mutated Gaudi-2 specs that keep the name "Gaudi-2", and every
/// backend's attention tables.
fn families() -> Vec<Family> {
    let gaudi = |spec, model, tp| Family {
        spec,
        arch: Device::gaudi_like,
        backend: PagedBackend::GaudiOpt,
        model,
        tp,
    };
    let gpu = |spec| Family {
        spec,
        arch: Device::a100_like,
        backend: PagedBackend::A100Fused,
        model: LlamaConfig::llama31_8b(),
        tp: 1,
    };
    let small = LlamaConfig::llama31_8b;
    let on_gaudi2 = |backend| Family {
        backend,
        ..gaudi(DeviceSpec::gaudi2(), small(), 1)
    };
    let mut sectors = DeviceSpec::gaudi2();
    sectors.memory.min_access_bytes = 32;
    let mut slow_hbm = DeviceSpec::gaudi2();
    slow_hbm.memory.hbm_bandwidth_bps /= 2.0;
    vec![
        gaudi(DeviceSpec::gaudi2(), small(), 1),
        gpu(DeviceSpec::a100()),
        gaudi(DeviceSpec::gaudi3(), small(), 1),
        gpu(DeviceSpec::gaudi2()),
        gaudi(sectors, small(), 1),
        gaudi(slow_hbm, small(), 1),
        gaudi(DeviceSpec::gaudi2(), LlamaConfig::llama31_70b(), 4),
        gaudi(DeviceSpec::gaudi2(), LlamaConfig::llama31_70b(), 8),
        on_gaudi2(PagedBackend::GaudiBase),
        on_gaudi2(PagedBackend::GaudiFusedHypothetical),
    ]
}

/// Source of device names no run in this process has used.
static TWINS: AtomicU64 = AtomicU64::new(0);

/// Serve `trace` on family `f`, under a fresh name if `twin`, and render
/// the report with `{:?}`, which prints every float exactly (`-0.0` too).
fn serve(f: &Family, twin: bool, trace: &[Request], max_batch: usize) -> String {
    let mut spec = f.spec.clone();
    if twin {
        let n = TWINS.fetch_add(1, Ordering::Relaxed);
        spec.name = format!("{} twin {n}", spec.name);
    }
    let device = (f.arch)(spec);
    let report = ServingEngine::new(&device, f.model.clone(), f.tp, f.backend, max_batch)
        .run(trace)
        .unwrap();
    format!("{report:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn reports_ignore_family_order_and_threads(
        shape in proptest::collection::vec((1usize..700, 1usize..24, 0.0f64..0.05), 1..7),
        order_keys in proptest::collection::vec(0u32..1000, 20..21),
        max_batch in 1usize..6,
        wide in 0u8..2,
    ) {
        let fams = families();
        let mut at = 0.0;
        let trace: Vec<Request> = shape
            .iter()
            .zip(0u64..)
            .map(|(&(input, output, gap), id)| {
                at += gap;
                Request { arrival_s: at, ..Request::new(id, input, output) }
            })
            .collect();
        // Every family and its twin, in a random order.
        let mut jobs: Vec<(usize, bool)> =
            (0..fams.len()).flat_map(|i| [(i, false), (i, true)]).collect();
        jobs.sort_by_key(|&(i, twin)| order_keys[(2 * i + usize::from(twin)) % order_keys.len()]);
        let threads = if wide == 1 { 8 } else { 1 };
        let first = par_map(&jobs, threads, |&(i, twin)| {
            ((i, twin), serve(&fams[i], twin, &trace, max_batch))
        });
        let report_of = |want: (usize, bool)| {
            first.iter().find(|(job, _)| *job == want).map(|(_, r)| r.clone()).unwrap()
        };
        for (i, f) in fams.iter().enumerate() {
            let own = report_of((i, false));
            prop_assert_eq!(&own, &report_of((i, true)), "family {} vs its twin", i);
            // Served again, alone and now warm, after every other family.
            prop_assert_eq!(&own, &serve(f, false, &trace, max_batch), "family {} rerun", i);
        }
    }
}
