//! Tally helper used only by the bench harness itself — never on a call
//! path from a sim entry point, so D3 stays quiet (and D1 scans only
//! simulation crates).
use std::collections::HashMap;

pub fn distinct(ids: &[u64]) -> usize {
    let seen: HashMap<u64, ()> = ids.iter().map(|&id| (id, ())).collect();
    seen.len()
}

pub fn harness(ids: &[u64]) -> usize {
    distinct(ids)
}
