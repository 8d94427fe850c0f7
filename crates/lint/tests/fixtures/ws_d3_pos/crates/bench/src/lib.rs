//! Tally helper in a non-simulation crate: D1 scans only simulation
//! crates, so this `HashMap` is D1-clean.
use std::collections::HashMap;

pub fn distinct(ids: &[u64]) -> usize {
    let seen: HashMap<u64, ()> = ids.iter().map(|&id| (id, ())).collect();
    seen.len()
}
