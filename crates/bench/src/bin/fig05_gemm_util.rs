//! Regenerates Figure 5: compute-utilization heatmaps for (a)
//! square-shaped and (b) irregularly-shaped GEMMs on both devices.

use dcm_bench::{banner, compare};
use dcm_compiler::Device;
use dcm_core::metrics::Heatmap;
use dcm_core::DType;
use dcm_mme::GemmShape;

fn util(device: &Device, shape: GemmShape) -> f64 {
    device
        .gemm(shape, DType::Bf16)
        .utilization(device.matrix_peak_flops(DType::Bf16))
}

fn square_heatmap(device: &Device, sizes: &[usize]) -> Heatmap {
    // Figure 5(a) leaves non-square cells vacant; we render the square
    // diagonal as a single row.
    let cols = sizes.iter().map(|s| s.to_string()).collect();
    let mut h = Heatmap::new(
        format!("Figure 5(a) square GEMM utilization, {}", device.name()),
        "device",
        "M=K=N",
        cols,
    );
    h.push_row(
        device.name().to_owned(),
        sizes
            .iter()
            .map(|&s| util(device, GemmShape::square(s)))
            .collect(),
    );
    h
}

fn irregular_heatmap(device: &Device, dims: &[usize]) -> Heatmap {
    let cols = dims.iter().map(|d| d.to_string()).collect();
    let mut h = Heatmap::new(
        format!(
            "Figure 5(b) irregular GEMM (N=16) utilization, {}",
            device.name()
        ),
        "M",
        "K",
        cols,
    );
    for &m in dims {
        h.push_row(
            m.to_string(),
            dims.iter()
                .map(|&k| util(device, GemmShape::new(m, k, 16)))
                .collect(),
        );
    }
    h
}

fn main() {
    banner(
        "Figure 5: GEMM compute utilization (achieved/peak)",
        "Gaudi-2 averages ~4.5pp higher utilization than A100, max ~32pp at 2048^3",
    );
    let gaudi = Device::gaudi2();
    let a100 = Device::a100();
    let sizes = [512usize, 1024, 2048, 4096, 8192];
    let dims = [2048usize, 4096, 8192, 16384];

    let gs = square_heatmap(&gaudi, &sizes);
    let as_ = square_heatmap(&a100, &sizes);
    print!("{}", gs.render(3));
    print!("{}", as_.render(3));
    print!("{}", irregular_heatmap(&gaudi, &dims).render(3));
    print!("{}", irregular_heatmap(&a100, &dims).render(3));

    let gaps: Vec<f64> = sizes
        .iter()
        .map(|&s| util(&gaudi, GemmShape::square(s)) - util(&a100, GemmShape::square(s)))
        .collect();
    println!();
    compare(
        "mean square-GEMM utilization gap (pp)",
        4.5,
        100.0 * gaps.iter().sum::<f64>() / gaps.len() as f64,
    );
    compare(
        "max utilization gap (pp, paper: at 2048^3)",
        32.0,
        100.0 * gaps.iter().cloned().fold(f64::MIN, f64::max),
    );
    compare(
        "Gaudi-2 utilization at 8192^3",
        0.993,
        util(&gaudi, GemmShape::square(8192)),
    );
}
