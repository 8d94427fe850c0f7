//! Steady-state allocation audit for the million-request hot paths.
//!
//! A counting global allocator wraps `System`; after a warm-up phase that
//! lets every container reach its high-water capacity, the measured
//! windows must allocate **zero** times:
//!
//! * the event queue under hold-model churn (pop-min, push successor) —
//!   the heap keeps its buffer across pops;
//! * the event queue under a bulk fill and drain — `with_capacity(n)`
//!   takes `n` pushes and a full `pop_due` drain with no further
//!   allocation;
//! * the public sequence slab (which `dcmbench` times; the engine keeps a
//!   pre-sized `Vec`) under admit/complete churn — free-list reuse;
//! * `BatchStats` under add/grow/remove churn — the sorted-vec histogram
//!   retains capacity across boundary crossings;
//! * PagedAttention decode-step pricing on every backend, from a
//!   `BatchStats` and from a length slice — no warm-up at all: the cost
//!   model never allocates;
//! * the memoized price on every backend, once one pass over a fixed set
//!   of shapes has allocated the table's pages;
//! * the engine's `BatchGrowth` projection under insert/remove/grow-all
//!   churn, in its pre-sized buffers;
//! * a stretch's prices through a `StretchPricer`, once its table's
//!   pages are allocated, and a pricer kept across a cut, resumed;
//! * the Gaudi MME geometry search (`GaudiMme::batched_gemm`).
//!
//! This file deliberately holds a single `#[test]` so the harness runs
//! nothing concurrently with the measured windows.

use dcm_compiler::Device;
use dcm_core::sim::EventQueue;
use dcm_core::{DType, DeviceSpec};
use dcm_mme::{GaudiMme, GemmEngine, GemmShape};
use dcm_vllm::attention::{
    BatchGrowth, BatchShape, BatchStats, GemmTerms, PagedAttention, PagedBackend,
};
use dcm_vllm::dataset::Request;
use dcm_vllm::slab::SeqSlab;
use dcm_workloads::llama::LlamaConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Count allocations performed by `f`.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn hot_paths_are_allocation_free_after_warmup() {
    // --- Event queue: hold model --------------------------------------
    // K events in flight; each iteration pops the minimum and pushes its
    // successor a deterministic stride later.
    const K: usize = 256;
    const SPACING: f64 = 0.5;
    let mut q: EventQueue<u64> = EventQueue::with_capacity(K);
    for i in 0..K {
        let id = u64::try_from(i).expect("small");
        // dcm-lint gets no say here (test crate), but avoid `as` anyway.
        q.push(f64::from(u16::try_from(i).expect("small")) * SPACING, 0, id);
    }
    // Each popped event is re-armed one full revolution later, keeping K
    // events uniformly spaced forever — the stationary regime a saturated
    // decode loop's arrival queue sits in.
    let churn = |q: &mut EventQueue<u64>, iters: usize| {
        let revolution = f64::from(u16::try_from(K).expect("small")) * SPACING;
        for _ in 0..iters {
            let e = q.pop().expect("queue holds K events");
            q.push(e.time + revolution, e.priority, e.payload);
        }
    };
    churn(&mut q, 8 * K); // warm-up
    let (queue_allocs, ()) = allocations_in(|| churn(&mut q, 8 * K));
    assert_eq!(
        queue_allocs, 0,
        "event queue allocated {queue_allocs} times in steady state"
    );

    // --- Event queue: bulk fill and drain -----------------------------
    // A pre-sized queue takes a whole trace up front (increasing times,
    // four events per instant, so `seq` breaks exact ties), then drains
    // it through `pop_due` — the shape of a cluster run's arrival queue.
    const N: u16 = 4096;
    let mut q: EventQueue<u16> = EventQueue::with_capacity(usize::from(N));
    let (bulk_allocs, popped) = allocations_in(|| {
        for i in 0..N {
            q.push(f64::from(i / 4) * 0.25, 0, i);
        }
        std::iter::from_fn(|| q.pop_due(f64::from(N))).count()
    });
    assert_eq!(popped, usize::from(N));
    assert_eq!(
        bulk_allocs, 0,
        "event queue allocated {bulk_allocs} times in a pre-sized bulk fill"
    );

    // --- Sequence slab: admit/complete churn --------------------------
    const BATCH: usize = 16;
    let mut slab = SeqSlab::with_capacity(BATCH);
    let mut slots = Vec::with_capacity(BATCH);
    let fill = |slab: &mut SeqSlab, slots: &mut Vec<_>, base: u64| {
        for i in 0..BATCH {
            let id = base + u64::try_from(i).expect("small");
            slots.push(slab.insert(Request::new(id, 128, 64), 63, 0.5, 1, 129));
        }
    };
    fill(&mut slab, &mut slots, 0);
    let churn_slab = |slab: &mut SeqSlab, slots: &mut Vec<_>, rounds: u64| {
        for r in 0..rounds {
            // Mutate every slot (a decode step), then retire and replace
            // half the batch (completion + admission churn).
            for &s in slots.iter() {
                let rem = slab.remaining(s);
                slab.set_remaining(s, rem.saturating_sub(1));
                slab.set_produced(s, slab.produced(s) + 1);
                slab.set_kv_tokens(s, slab.kv_tokens(s) + 1);
            }
            for _ in 0..BATCH / 2 {
                let s = slots.pop().expect("non-empty");
                slab.remove(s);
            }
            for i in 0..BATCH / 2 {
                let id = 1_000_000 + r * 64 + u64::try_from(i).expect("small");
                slots.push(slab.insert(Request::new(id, 128, 64), 63, 0.5, 1, 129));
            }
        }
    };
    churn_slab(&mut slab, &mut slots, 4);
    let (slab_allocs, ()) = allocations_in(|| churn_slab(&mut slab, &mut slots, 64));
    assert_eq!(
        slab_allocs, 0,
        "slab allocated {slab_allocs} times in steady state"
    );
    assert_eq!(slab.capacity(), BATCH, "churn must not grow the slab");

    // --- BatchStats: add/grow/remove churn ----------------------------
    let mut stats = BatchStats::new(128);
    let mut lens = [0usize; BATCH];
    for (i, len) in lens.iter_mut().enumerate() {
        *len = 128 + i * 37;
        stats.add(*len);
    }
    let churn_stats = |stats: &mut BatchStats, lens: &mut [usize; BATCH], rounds: usize| {
        for _ in 0..rounds {
            for len in lens.iter_mut() {
                stats.grow(*len); // crosses block boundaries regularly
                *len += 1;
            }
            // Retire the longest, admit a fresh short one.
            let (imax, &max) = lens
                .iter()
                .enumerate()
                .max_by_key(|&(_, &l)| l)
                .expect("non-empty");
            stats.remove(max);
            lens[imax] = 128;
            stats.add(128);
        }
    };
    churn_stats(&mut stats, &mut lens, 64);
    let (stats_allocs, ()) = allocations_in(|| churn_stats(&mut stats, &mut lens, 512));
    assert_eq!(
        stats_allocs, 0,
        "BatchStats allocated {stats_allocs} times in steady state"
    );

    // --- Attention pricing: every backend, both entry points ----------
    let (gaudi, a100) = (Device::gaudi2(), Device::a100());
    for (device, backend) in [
        (&gaudi, PagedBackend::GaudiBase),
        (&gaudi, PagedBackend::GaudiOpt),
        (&a100, PagedBackend::A100Fused),
        (&gaudi, PagedBackend::GaudiFusedHypothetical),
    ] {
        let pa = PagedAttention::new(device, backend, &LlamaConfig::llama31_8b(), 1);
        let stats = BatchStats::from_lens(&lens, pa.batch_stats().block_tokens());
        let (attn_allocs, t) = allocations_in(|| {
            pa.decode_cost_from_stats(&stats, 0.0).time() + pa.decode_cost(&lens, 0.3).time()
        });
        assert!(t > 0.0);
        assert_eq!(
            attn_allocs, 0,
            "{backend:?} decode pricing allocated {attn_allocs} times"
        );
    }

    // --- Memoized attention pricing: a warm table reads in place -------
    let shapes: Vec<BatchShape> = (0..64)
        .map(|d| {
            let grown: Vec<usize> = lens.iter().map(|&l| l + 37 * d).collect();
            BatchStats::from_lens(&grown, 128).shape()
        })
        .collect();
    for (device, backend) in [
        (&gaudi, PagedBackend::GaudiBase),
        (&gaudi, PagedBackend::GaudiOpt),
        (&a100, PagedBackend::A100Fused),
        (&gaudi, PagedBackend::GaudiFusedHypothetical),
    ] {
        let pa = PagedAttention::new(device, backend, &LlamaConfig::llama31_8b(), 1);
        let mut terms = GemmTerms::default();
        let price_all = |terms: &mut GemmTerms| {
            shapes
                .iter()
                .map(|&shape| pa.decode_time_of(shape, terms))
                .sum::<f64>()
        };
        let cold = price_all(&mut terms);
        let (memo_allocs, warm) = allocations_in(|| price_all(&mut terms));
        assert_eq!(warm.to_bits(), cold.to_bits());
        assert_eq!(
            memo_allocs, 0,
            "{backend:?} memoized pricing allocated {memo_allocs} times once warm"
        );
    }

    // --- Batch projection: insert/remove/grow-all churn ----------------
    // Each round retires the longest sequence, admits a fresh one and
    // grows the batch by a stretch, as the serving engine does.
    let mut growth = BatchGrowth::with_capacity(128, BATCH);
    let mut held = lens;
    for &t in &held {
        growth.insert(t);
    }
    let churn_growth = |growth: &mut BatchGrowth, held: &mut [usize; BATCH], rounds: usize| {
        for round in 0..rounds {
            let (imax, &max) = held
                .iter()
                .enumerate()
                .max_by_key(|&(_, &t)| t)
                .expect("non-empty");
            growth.remove(max);
            held[imax] = 128 + round % 97;
            growth.insert(held[imax]);
            let k = 1 + round % 150;
            growth.grow_all(k);
            for t in held.iter_mut() {
                *t += k;
            }
        }
        growth.after(1000)
    };
    churn_growth(&mut growth, &mut held, 16);
    let (growth_allocs, shape) = allocations_in(|| churn_growth(&mut growth, &mut held, 512));
    assert_eq!(shape.count, BATCH);
    assert_eq!(
        growth_allocs, 0,
        "BatchGrowth allocated {growth_allocs} times in steady state"
    );

    // --- Stretch prices: every backend, once the table is warm ----------
    for (device, backend) in [
        (&gaudi, PagedBackend::GaudiBase),
        (&gaudi, PagedBackend::GaudiOpt),
        (&a100, PagedBackend::A100Fused),
        (&gaudi, PagedBackend::GaudiFusedHypothetical),
    ] {
        let pa = PagedAttention::new(device, backend, &LlamaConfig::llama31_8b(), 1);
        let mut terms = GemmTerms::default();
        let stretch = |terms: &mut GemmTerms| {
            let mut prices = pa.stretch_pricer(&growth);
            (0..300)
                .map(|_| prices.step(&pa, &growth, terms))
                .sum::<f64>()
        };
        let cold = stretch(&mut terms);
        let (stretch_allocs, warm) = allocations_in(|| stretch(&mut terms));
        assert_eq!(warm.to_bits(), cold.to_bits());
        assert_eq!(
            stretch_allocs, 0,
            "{backend:?} stretch pricing allocated {stretch_allocs} times once warm"
        );
    }

    // --- A cut stretch resumed: its kept pricer steps on ---------------
    // A catch-up that cuts an exact stretch short keeps the pricer, which
    // borrows nothing. The next one prices on from the same projection
    // and charges the pool with the blocks of the steps run.
    let pa = PagedAttention::new(
        &gaudi,
        PagedBackend::GaudiOpt,
        &LlamaConfig::llama31_8b(),
        1,
    );
    let mut terms = GemmTerms::default();
    let mut warmup = pa.stretch_pricer(&growth);
    let cold = (0..300)
        .map(|_| warmup.step(&pa, &growth, &mut terms))
        .sum::<f64>();
    let mut kept = pa.stretch_pricer(&growth);
    let first = (0..150)
        .map(|_| kept.step(&pa, &growth, &mut terms))
        .sum::<f64>();
    let (resume_allocs, (total, held)) = allocations_in(|| {
        let total = (0..150).fold(first, |sum, _| sum + kept.step(&pa, &growth, &mut terms));
        (total, growth.blocks_after(kept.steps()))
    });
    assert_eq!(total.to_bits(), cold.to_bits());
    assert_eq!(held, growth.blocks_after(300));
    assert_eq!(
        resume_allocs, 0,
        "a resumed stretch allocated {resume_allocs} times once warm"
    );

    // --- MME geometry search over decode-shaped batched GEMMs ----------
    let mme = GaudiMme::new(&DeviceSpec::gaudi2());
    let (mme_allocs, t) = allocations_in(|| {
        (1..=64)
            .map(|b| {
                mme.batched_gemm(b, GemmShape::new(4, 128, 64 * b), DType::Bf16)
                    .cost
                    .time()
            })
            .sum::<f64>()
    });
    assert!(t > 0.0);
    assert_eq!(
        mme_allocs, 0,
        "GaudiMme::batched_gemm allocated {mme_allocs} times"
    );
}
