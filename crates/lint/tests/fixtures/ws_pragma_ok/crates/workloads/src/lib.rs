//! Suppression fixture: every violation carries a well-formed pragma,
//! so the tree is clean.
use std::collections::HashMap; // dcm-lint: allow(D1) keyed lookup only, never iterated

// dcm-lint: allow(D1) keyed lookup only, never iterated
fn table() -> HashMap<u64, usize> {
    // dcm-lint: allow(D1) keyed lookup only, never iterated
    HashMap::new()
}

fn mean(total: usize, n: usize) -> f64 {
    // dcm-lint: allow(C1) counts stay far below 2^53
    total as f64 / n as f64
}
