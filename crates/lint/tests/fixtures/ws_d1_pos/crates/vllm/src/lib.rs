//! D1 positive: hash collections in a simulation crate.
use std::collections::HashMap;

fn routing_table() -> HashMap<u64, usize> {
    HashMap::new()
}
