//! Checks the paper's seven key takeaways directionally against the
//! simulation, printing PASS/FAIL for each.

use dcm_bench::banner;
use dcm_compiler::Device;
use dcm_core::DType;
use dcm_embedding::{BatchedTableOp, EmbeddingConfig, EmbeddingOp};
use dcm_mem::GatherScatterEngine;
use dcm_mme::{GaudiMme, GemmEngine, GemmShape};
use dcm_net::{Collective, CollectiveModel};
use dcm_tpc::engine::{StreamKernel, VectorEngineModel};
use dcm_vllm::attention::{PagedAttention, PagedBackend};
use dcm_workloads::dlrm::{DlrmConfig, DlrmServer};
use dcm_workloads::llama::{LlamaConfig, LlamaServer};

fn check(id: &str, claim: &str, ok: bool) -> bool {
    println!("[{}] KT{id}: {claim}", if ok { "PASS" } else { "FAIL" });
    ok
}

#[allow(clippy::too_many_lines)]
fn main() {
    banner(
        "Key takeaways #1-#7",
        "directional checks of every takeaway in the paper",
    );
    let gaudi = Device::gaudi2();
    let a100 = Device::a100();
    let mut all = true;

    // KT#1: Gaudi-2 wins GEMM on performance and utilization, thanks to
    // reconfigurability.
    {
        let shape = GemmShape::square(2048);
        let g = gaudi.gemm(shape, DType::Bf16);
        let a = a100.gemm(shape, DType::Bf16);
        let gu = g.utilization(gaudi.matrix_peak_flops(DType::Bf16));
        let au = a.utilization(a100.matrix_peak_flops(DType::Bf16));
        let mme = GaudiMme::new(gaudi.spec());
        let fixed = GaudiMme::fixed(gaudi.spec());
        let irregular = GemmShape::new(16384, 16384, 128);
        let cfg_beats_fixed = mme.gemm(irregular, DType::Bf16).cost.time()
            < fixed.gemm(irregular, DType::Bf16).cost.time();
        all &= check(
            "1",
            "Gaudi-2 GEMM: higher absolute perf and utilization; reconfigurability helps",
            g.cost.time() < a.cost.time() && gu > au && cfg_beats_fixed,
        );
    }

    // KT#2: 3.5x vector gap in absolute non-GEMM performance, comparable
    // efficiency.
    {
        let gv = VectorEngineModel::new(gaudi.spec());
        let av = VectorEngineModel::new(a100.spec());
        let k = StreamKernel::triad().with_intensity_scale(512);
        let gt = gv.throughput(&k.clone().with_unroll(8), 24, DType::Bf16);
        let at = av.throughput(&k, 108, DType::Bf16);
        let gu = gv.utilization(
            &StreamKernel::triad()
                .with_intensity_scale(512)
                .with_unroll(8),
            24,
            DType::Bf16,
        );
        let au = av.utilization(
            &StreamKernel::triad().with_intensity_scale(512),
            108,
            DType::Bf16,
        );
        all &= check(
            "2",
            "vector: A100 ~3.5x faster absolute, both ~equal utilization",
            (at / gt - 3.5).abs() < 0.5 && (gu - au).abs() < 0.1,
        );
    }

    // KT#3: competitive streaming, poor sub-256B random access.
    {
        let ge = GatherScatterEngine::new(gaudi.spec());
        let ae = GatherScatterEngine::new(a100.spec());
        let n = 1 << 20;
        let big_ok = ae.gather_utilization(n, 1024) - ge.gather_utilization(n, 1024) < 0.15;
        let small_bad = ae.gather_utilization(n, 64) > 2.0 * ge.gather_utilization(n, 64);
        all &= check(
            "3",
            "memory: competitive streaming/large gathers, 256B granularity hurts small gathers",
            big_ok && small_bad,
        );
    }

    // KT#4: collective scaling is a fabric property.
    {
        let gc = CollectiveModel::new(gaudi.spec());
        let ac = CollectiveModel::new(a100.spec());
        let g_decline = gc.bus_utilization(Collective::AllReduce, 32 << 20, 2)
            / gc.bus_utilization(Collective::AllReduce, 32 << 20, 8);
        let a_stable = ac.bus_utilization(Collective::AllReduce, 32 << 20, 2)
            / ac.bus_utilization(Collective::AllReduce, 32 << 20, 8);
        all &= check(
            "4",
            "communication: P2P mesh declines with fewer devices, switch stays flat",
            g_decline < 0.3 && (a_stable - 1.0).abs() < 0.2,
        );
    }

    // KT#5: LLM serving favors Gaudi (energy), RecSys favors A100.
    {
        let server = LlamaServer::new(LlamaConfig::llama31_8b(), 1);
        let g = server.serve(&gaudi, 64, 100, 100);
        let a = server.serve(&a100, 64, 100, 100);
        let llm_ok =
            g.total_time_s() < a.total_time_s() && g.energy_per_token() < a.energy_per_token();
        let cfg = DlrmConfig::rm2(64);
        let rs_g =
            DlrmServer::new(cfg.clone()).serve(&gaudi, &BatchedTableOp::new(gaudi.spec()), 4096);
        let rs_a = DlrmServer::new(cfg).serve(&a100, &BatchedTableOp::new(a100.spec()), 4096);
        let recsys_ok = rs_g.time_s() > rs_a.time_s() && rs_g.energy_j > rs_a.energy_j;
        all &= check(
            "5",
            "end-to-end: Gaudi-2 wins LLM perf+energy; loses small-vector RecSys perf+energy",
            llm_ok && recsys_ok,
        );
    }

    // KT#6: TPC-C embedding kernels ~95% of A100 for >=256B, ~47% below.
    {
        let gb = BatchedTableOp::new(gaudi.spec());
        let ab = BatchedTableOp::new(a100.spec());
        let big = EmbeddingConfig::rm2_like(512);
        let small = EmbeddingConfig::rm2_like(64);
        let r_big = ab.cost(&big, 2048).time() / gb.cost(&big, 2048).time();
        let r_small = ab.cost(&small, 2048).time() / gb.cost(&small, 2048).time();
        all &= check(
            "6",
            "embedding: near-parity for >=256B vectors, ~half throughput below",
            r_big > 0.75 && r_small < 0.6,
        );
    }

    // KT#7: optimized vLLM attention still ~2.2x behind A100, but
    // end-to-end LLM performance is competitive.
    {
        let model = LlamaConfig::llama31_8b();
        let opt = PagedAttention::new(&gaudi, PagedBackend::GaudiOpt, &model, 1);
        let fused = PagedAttention::new(&a100, PagedBackend::A100Fused, &model, 1);
        let lens = vec![4096usize; 32];
        let kernel_gap = opt.decode_cost(&lens, 0.0).time() / fused.decode_cost(&lens, 0.0).time();
        let server = LlamaServer::new(model, 1);
        let e2e = server.serve(&a100, 32, 100, 200).total_time_s()
            / server.serve(&gaudi, 32, 100, 200).total_time_s();
        all &= check(
            "7",
            "vLLM: attention kernel ~2x behind A100, end-to-end competitive",
            kernel_gap > 1.3 && e2e > 0.9,
        );
    }

    println!();
    if all {
        println!("all key takeaways reproduced");
    } else {
        println!("SOME TAKEAWAYS FAILED");
        std::process::exit(1);
    }
}
