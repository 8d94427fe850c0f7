//! Differential suite for the matrix engines' searches and the batched
//! GEMM's engine choice.
//!
//! `GaudiMme` prices a pruned geometry menu. Its executable spec here is
//! the search over the whole menu: the argmin of `systolic::run_batched`
//! cycles over all of `gaudi_candidates`, ties (within 1e-9 cycles) to the
//! fewest MACs, then to the earlier candidate. The two must pick the same
//! geometry, and `batched_gemm` must return, bit for bit, the run this
//! file prices for that geometry from the spec alone (`locked_run`), with
//! the gated MAC fraction of the chosen geometry. `GaudiMme::fixed` must
//! return the stock geometry's run, powering every MAC.
//!
//! `A100TensorCore::select_tile` stops its unsplit scan early and scores
//! a split factor only while it can still win. Its spec is the full scan
//! of all 24 menu entries. `Device::op_cost` asks the matrix engine only
//! whether it ties or beats the vector lowering, and `Device::op_time`
//! skips the matrix engine when that lowering is memory-bound. Their spec
//! is the rule both replaced: run the matrix search, then take the vector
//! lowering only when it is strictly faster.

use dcm_compiler::{Device, Op};
use dcm_core::cast::{u64_to_f64, usize_to_f64, usize_to_u64};
use dcm_core::cost::{Engine, OpCost};
use dcm_core::{DType, DeviceSpec};
use dcm_mme::a100::TileChoice;
use dcm_mme::geometry::gaudi_candidates;
use dcm_mme::Geometry;
use dcm_mme::{systolic, A100TensorCore, GaudiMme, GemmConfig, GemmEngine, GemmRun, GemmShape};
use proptest::prelude::*;

/// Gaudi-2, Gaudi-3, and a three-array Gaudi-2 whose menu has split
/// configurations of three arrays (a divisor that is not a power of two).
fn spec(idx: usize) -> DeviceSpec {
    match idx % 3 {
        0 => DeviceSpec::gaudi2(),
        1 => DeviceSpec::gaudi3(),
        _ => {
            let mut s = DeviceSpec::gaudi2();
            s.matrix.count = 3;
            s
        }
    }
}

fn reference(spec: &DeviceSpec, shape: GemmShape, batch: usize) -> Geometry {
    let m = &spec.matrix;
    let mut best: Option<(f64, usize, Geometry)> = None;
    for g in gaudi_candidates(m.mac_rows, m.mac_cols, m.count) {
        let cycles = systolic::run_batched(shape, g, batch).cycles;
        let better = best.is_none_or(|(bc, bm, _)| {
            cycles < bc - 1e-9 || ((cycles - bc).abs() <= 1e-9 && g.macs() < bm)
        });
        if better {
            best = Some((cycles, g.macs(), g));
        }
    }
    best.expect("non-empty menu").2
}

/// The MME's sustained clock fraction and per-dispatch launch time,
/// restated so that `locked_run` shares no pricing code with the engine.
const MME_SUSTAINED_FRACTION: f64 = 0.997;
const MME_LAUNCH_S: f64 = 2.0e-6;

/// The run `spec`'s MME must return when it runs `g`: `g`'s
/// `run_batched` cycles at the sustained clock, slowed by the ratio of
/// the BF16 peak to `dtype`'s, plus one launch; single-pass bytes at
/// stream bandwidth; and the fraction of the MAC budget `g` powers.
fn locked_run(
    spec: &DeviceSpec,
    g: Geometry,
    shape: GemmShape,
    batch: usize,
    dtype: DType,
) -> GemmRun {
    let m = &spec.matrix;
    let cycles = systolic::run_batched(shape, g, batch).cycles;
    let slowdown = m.peak_flops_bf16 / m.peak_flops(dtype);
    let bytes = shape.ideal_bytes(dtype) * usize_to_u64(batch);
    GemmRun {
        cost: OpCost {
            engine: Engine::Matrix,
            compute_s: cycles * slowdown / (m.clock_hz * MME_SUSTAINED_FRACTION) + MME_LAUNCH_S,
            memory_s: u64_to_f64(bytes) / spec.memory.stream_bandwidth(),
            flops: shape.flops() * usize_to_f64(batch),
            bus_bytes: bytes,
            useful_bytes: bytes,
        },
        config: GemmConfig::Geometry(g),
        powered_fraction: g.powered_fraction(m.mac_rows * m.mac_cols * m.count),
    }
}

/// `got` equals `want` bit for bit.
fn assert_same_run(got: &GemmRun, want: &GemmRun, at: &str) {
    assert_eq!(got.config, want.config, "{at}");
    assert_eq!(
        cost_bits((got.cost, got.powered_fraction)),
        cost_bits((want.cost, want.powered_fraction)),
        "{at}"
    );
}

fn check(spec_idx: usize, shape: GemmShape, batch: usize, dtype: DType) {
    let spec = spec(spec_idx);
    let at = format!("spec {spec_idx} {shape} x{batch} {dtype:?}");
    let mme = GaudiMme::new(&spec);
    let want = reference(&spec, shape, batch);
    assert_eq!(mme.select_geometry(shape, batch), want, "{at}");
    let expected = locked_run(&spec, want, shape, batch, dtype);
    assert_same_run(&mme.batched_gemm(batch, shape, dtype), &expected, &at);

    let m = &spec.matrix;
    let stock = Geometry::new(m.mac_rows, m.mac_cols, m.count);
    let fixed = GaudiMme::fixed(&spec).batched_gemm(batch, shape, dtype);
    assert_eq!(fixed.powered_fraction.to_bits(), 1.0_f64.to_bits(), "{at}");
    let expected = locked_run(&spec, stock, shape, batch, dtype);
    assert_same_run(&fixed, &expected, &at);
}

const ALL_DTYPES: [DType; 5] = [
    DType::Bf16,
    DType::Fp16,
    DType::Fp32,
    DType::Int32,
    DType::Int8,
];

/// The A100's CTA tile menu and split factors, in selection order.
const TILE_MENU: [(usize, usize); 6] = [
    (256, 128),
    (128, 256),
    (128, 128),
    (128, 64),
    (64, 128),
    (64, 64),
];
const SPLIT_K_MENU: [usize; 4] = [1, 2, 4, 8];

/// The full scan `select_tile` replaced: every tile at every split
/// factor, skipping a split that leaves a reduction slice shorter than
/// 64, ranked by `max(cycles / clock, bytes / stream bandwidth)` with the
/// BF16 single-pass bytes plus the split's FP32 partial sums; strict `<`,
/// so the earlier menu entry keeps a tie.
fn full_scan(tc: &A100TensorCore, shape: GemmShape, batch: usize, dtype: DType) -> TileChoice {
    let spec = DeviceSpec::a100();
    let mut best: Option<(f64, TileChoice)> = None;
    for (h, w) in TILE_MENU {
        for kf in SPLIT_K_MENU {
            if kf > 1 && shape.k / kf < 64 {
                continue;
            }
            let tile = TileChoice {
                height: h,
                width: w,
                split_k: kf,
                tiles: shape.m.div_ceil(h) * shape.n.div_ceil(w) * kf,
            };
            let compute = tc.cycles(shape, tile, batch, dtype) / spec.matrix.clock_hz;
            let bytes = shape.ideal_bytes(DType::Bf16) * usize_to_u64(batch)
                + usize_to_u64(shape.m * shape.n * 4 * 2 * (kf - 1) * batch);
            let t = compute.max(u64_to_f64(bytes) / spec.memory.stream_bandwidth());
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, tile));
            }
        }
    }
    best.expect("non-empty menu").1
}

fn check_a100(shape: GemmShape, batch: usize, dtype: DType) {
    let tc = A100TensorCore::new(&DeviceSpec::a100());
    let want = full_scan(&tc, shape, batch, dtype);
    assert_eq!(
        tc.select_tile(shape, batch, dtype),
        want,
        "{shape} x{batch} {dtype:?}"
    );
    let run = tc.batched_gemm(batch, shape, dtype);
    assert_eq!(
        run.config,
        GemmConfig::Cta {
            height: want.height,
            width: want.width,
            split_k: want.split_k,
            batch,
        }
    );
    check_within(&tc, &run, batch, shape, dtype);
}

/// `batched_gemm_within` returns `run` exactly when `run` takes no longer
/// than the budget: at the run's time, at the float just below it, at its
/// compute and memory times, and at the vector lowering's memory time.
fn check_within(tc: &A100TensorCore, run: &GemmRun, batch: usize, shape: GemmShape, dtype: DType) {
    let t = run.cost.time();
    for budget in [
        t,
        t.next_down(),
        run.cost.compute_s,
        run.cost.memory_s,
        floor_s(batch, shape, dtype),
    ] {
        let want = (budget >= t).then(|| run.clone());
        assert_eq!(
            tc.batched_gemm_within(batch, shape, dtype, budget),
            want,
            "{shape} x{batch} {dtype:?} within {budget}"
        );
    }
}

/// The A100 vector lowering's memory time: single-pass bytes at stream
/// bandwidth.
fn floor_s(batch: usize, shape: GemmShape, dtype: DType) -> f64 {
    u64_to_f64(shape.ideal_bytes(dtype) * usize_to_u64(batch))
        / DeviceSpec::a100().memory.stream_bandwidth()
}

/// The vector-engine lowering of a batched GEMM: dot products at the
/// vector FMA rate, single-pass bytes at stream bandwidth.
fn vector_lowering(spec: &DeviceSpec, batch: usize, shape: GemmShape, dtype: DType) -> OpCost {
    let flops = shape.flops() * usize_to_f64(batch);
    let bytes = shape.ideal_bytes(dtype) * usize_to_u64(batch);
    OpCost {
        engine: Engine::Vector,
        compute_s: flops / spec.vector_peak_flops(dtype),
        memory_s: u64_to_f64(bytes) / spec.memory.stream_bandwidth(),
        flops,
        bus_bytes: bytes,
        useful_bytes: bytes,
    }
}

fn cost_bits((c, powered): (OpCost, f64)) -> (Engine, [u64; 6]) {
    (
        c.engine,
        [
            c.compute_s.to_bits(),
            c.memory_s.to_bits(),
            c.flops.to_bits(),
            c.bus_bytes,
            c.useful_bytes,
            powered.to_bits(),
        ],
    )
}

/// `op_cost` and `op_time` of a batched GEMM against the rule they
/// replaced: run the matrix search, then take the vector lowering only
/// when it is strictly faster.
fn check_op(device: &Device, batch: usize, shape: GemmShape, dtype: DType) {
    let matrix = device.batched_gemm(batch, shape, dtype);
    let vector = vector_lowering(device.spec(), batch, shape, dtype);
    let want = if vector.time() < matrix.cost.time() {
        (vector, 0.0)
    } else {
        (matrix.cost, matrix.powered_fraction)
    };
    let op = Op::batched_gemm(batch, shape, dtype);
    let got = device.op_cost(&op);
    let at = || format!("{} {shape} x{batch} {dtype:?}", device.name());
    assert_eq!(cost_bits(got), cost_bits(want), "{}", at());
    assert_eq!(
        device.op_time(&op).to_bits(),
        got.0.time().to_bits(),
        "{}",
        at()
    );
}

#[test]
fn decode_shapes_match_the_full_searches() {
    // The serving engine's decode attention products at head_dim 128:
    // 4 query heads per KV head (Llama-3.1-8B), where the vector lowering
    // is memory-bound, and 8 (Llama-70B), where on Gaudi-2 it is
    // compute-bound beyond a few dozen tokens.
    let devices = [Device::gaudi2(), Device::gaudi3(), Device::a100()];
    for g in [4usize, 8] {
        for len in 1usize..=8192 {
            let batch = 1 + len * 37 % 2048;
            for shape in [GemmShape::new(g, 128, len), GemmShape::new(g, len, 128)] {
                for device in &devices {
                    check_op(device, batch, shape, DType::Bf16);
                }
                if len % 8 == 0 {
                    check_a100(shape, batch, DType::Bf16);
                }
            }
        }
    }
}

#[test]
fn search_matches_the_f64_argmin_on_paper_and_decode_shapes() {
    // Figure 7 sweeps, the serving engine's decode attention products
    // (4 query heads per KV head, head_dim 128), and degenerate sides.
    let dims = [1usize, 3, 4, 63, 64, 65, 128, 200, 1000, 4096, 16384];
    for spec_idx in 0..3 {
        for &m in &dims {
            for &n in &dims {
                for (k, batch) in [(128, 1), (16384, 1), (1000, 128), (4, 7)] {
                    for dtype in ALL_DTYPES {
                        check(spec_idx, GemmShape::new(m, k, n), batch, dtype);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn search_matches_the_f64_argmin(
        spec_idx in 0usize..3,
        m in 1usize..20_000,
        k in 1usize..20_000,
        n in 1usize..20_000,
        batch in 1usize..600,
        dtype_idx in 0usize..5,
    ) {
        check(spec_idx, GemmShape::new(m, k, n), batch, ALL_DTYPES[dtype_idx]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a100_selection_and_engine_choice_match_the_full_search(
        m in 1usize..20_000,
        k in 1usize..20_000,
        n in 1usize..20_000,
        batch in 1usize..257,
        dtype_idx in 0usize..5,
        device_idx in 0usize..3,
    ) {
        let shape = GemmShape::new(m, k, n);
        let dtype = ALL_DTYPES[dtype_idx];
        check_a100(shape, batch, dtype);
        let device = [Device::gaudi2(), Device::gaudi3(), Device::a100()][device_idx].clone();
        check_op(&device, batch, shape, dtype);
    }
}
