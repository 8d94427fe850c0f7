//! Regenerates Figure 4: the roofline of achieved BF16 TFLOPS for
//! square-shaped GEMMs (M=K=N) and irregularly-shaped GEMMs (N fixed at
//! 16) on both devices.

use dcm_bench::{banner, compare};
use dcm_compiler::Device;
use dcm_core::metrics::Table;
use dcm_core::roofline::Roofline;
use dcm_core::DType;
use dcm_mme::GemmShape;

fn main() {
    banner(
        "Figure 4: Roofline of achieved BF16 TFLOPS (square + N=16 GEMMs)",
        "Gaudi-2 outperforms A100 on every shape; 429 TFLOPS (99.3% of peak) at 8192^3",
    );
    let gaudi = Device::gaudi2();
    let a100 = Device::a100();
    let g_roof = Roofline::matrix(gaudi.spec(), DType::Bf16);
    let a_roof = Roofline::matrix(a100.spec(), DType::Bf16);
    println!(
        "rooflines: Gaudi-2 peak {:.0} TFLOPS ridge {:.0} F/B | A100 peak {:.0} TFLOPS ridge {:.0} F/B\n",
        g_roof.peak_flops() / 1e12,
        g_roof.ridge(),
        a_roof.peak_flops() / 1e12,
        a_roof.ridge()
    );

    let mut t = Table::new(
        "Figure 4 data points",
        &[
            "shape",
            "marker",
            "OI (F/B)",
            "Gaudi-2 TF",
            "A100 TF",
            "speedup",
        ],
    );
    let mut shapes: Vec<(GemmShape, &str)> = Vec::new();
    for p in [9usize, 10, 11, 12, 13] {
        shapes.push((GemmShape::square(1 << p), "square"));
    }
    for p in [11usize, 12, 13, 14] {
        let n = 1 << p;
        shapes.push((GemmShape::new(n, n, 16), "irregular"));
    }
    for (shape, marker) in &shapes {
        let g = gaudi.gemm(*shape, DType::Bf16);
        let a = a100.gemm(*shape, DType::Bf16);
        t.push(&[
            shape.to_string(),
            (*marker).to_owned(),
            format!("{:.1}", shape.intensity(DType::Bf16)),
            format!("{:.1}", g.achieved_flops() / 1e12),
            format!("{:.1}", a.achieved_flops() / 1e12),
            format!("{:.2}x", a.cost.time() / g.cost.time()),
        ]);
    }
    print!("{}", t.render());

    let peak = gaudi.gemm(GemmShape::square(8192), DType::Bf16);
    println!();
    compare(
        "Gaudi-2 achieved TFLOPS at 8192^3",
        429.0,
        peak.achieved_flops() / 1e12,
    );
    compare(
        "Gaudi-2 fraction of peak at 8192^3",
        0.993,
        peak.achieved_flops() / gaudi.matrix_peak_flops(DType::Bf16),
    );
    let wins = shapes
        .iter()
        .filter(|(s, _)| {
            gaudi.gemm(*s, DType::Bf16).cost.time() < a100.gemm(*s, DType::Bf16).cost.time()
        })
        .count();
    compare(
        "shapes where Gaudi-2 wins (of all swept)",
        shapes.len() as f64,
        wins as f64,
    );
}
