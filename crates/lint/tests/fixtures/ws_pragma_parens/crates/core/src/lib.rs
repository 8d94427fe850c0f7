//! Pragma reasons may contain `(` and `)` without tripping the LINT
//! meta-rule or breaking the rule-id list parse.
use std::collections::HashMap; // dcm-lint: allow(D1) keyed (id -> slot) lookup, never iterated

// dcm-lint: allow(D1) returns the keyed (id -> slot) table
fn table() -> HashMap<u64, usize> {
    // dcm-lint: allow(D1) constructor for the keyed (id -> slot) table
    HashMap::new()
}

fn ratio(n: usize) -> f64 {
    // dcm-lint: allow(C1) count < 2^53 (exact in f64)
    n as f64
}
