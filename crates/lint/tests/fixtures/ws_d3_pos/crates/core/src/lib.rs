//! D3 positive: the sim entry point reaches a hash-ordered container in
//! a non-simulation crate — transitive impurity that the crate-scoped D1
//! cannot see.
pub struct ServingEngine;

impl ServingEngine {
    pub fn run(&mut self, ids: &[u64]) -> usize {
        dcm_bench::distinct(ids)
    }
}
