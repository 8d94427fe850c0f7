//! F1 negative: total_cmp sorts, and *defining* partial_cmp is not a call.
pub struct Sample(pub f64);

impl PartialEq for Sample {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl PartialOrd for Sample {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.0.total_cmp(&other.0))
    }
}

fn sort_times(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}
