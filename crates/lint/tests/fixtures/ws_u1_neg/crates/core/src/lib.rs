//! U1 negative: same-unit arithmetic and rate conversions are fine.
fn total_s(compute_s: f64, memory_s: f64) -> f64 {
    compute_s + memory_s
}

fn time_s(total_bytes: f64, rate_bytes_per_s: f64) -> f64 {
    total_bytes / rate_bytes_per_s
}

fn scaled_s(base_s: f64, factor: f64, overhead_s: f64) -> f64 {
    base_s * factor + overhead_s
}
