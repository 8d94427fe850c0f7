//! R1 positive: a `pub fn` no root reaches, one that only `dcmbench`'s
//! tests call, a stale `allow(R1)` pragma and one that covers no `pub fn`.
pub fn unreached() -> u32 {
    1
}

pub fn only_dcmbench_tests() -> u32 {
    2
}

// dcm-lint: allow(R1) §4 case study entry point; served_matches_reference
pub fn served() -> u32 {
    misplaced()
}

// dcm-lint: allow(R1) a private helper is no API root
fn misplaced() -> u32 {
    3
}

pub struct BlockList;

impl BlockList {
    pub fn blocks_of(&self, i: usize) -> usize {
        i
    }
}

/// Only `attend` calls a `blocks_of`, on a `BlockList`.
pub struct PagedKvCache;

impl PagedKvCache {
    pub fn blocks_of(&self, id: usize) -> usize {
        id
    }
}

/// `list` is a `BlockList`, so its `blocks_of` is not the cache's.
pub fn attend(list: &BlockList, i: usize) -> usize {
    list.blocks_of(i)
}

pub struct FaultPlan;

impl FaultPlan {
    pub fn validate(&self, replicas: usize) -> usize {
        replicas
    }
}

/// Only `serve` calls a `validate`, on a `FaultPlan`.
pub struct LookupBatch;

impl LookupBatch {
    pub fn validate(&self, tables: usize) -> usize {
        tables
    }
}

pub fn timeline(plan: &FaultPlan) -> usize {
    plan.validate(0)
}

/// Handing `plan` on whole to `timeline` rebinds nothing, so `plan` still
/// pins `validate` to `FaultPlan`.
pub fn serve(plan: &FaultPlan, replicas: usize) -> usize {
    plan.validate(replicas) + timeline(plan)
}
