//! R1 negative: every `pub fn` is reached from a root (a bench binary,
//! an example, `dcmbench/src`, a trait impl or an `allow(R1)` API root).
pub struct ServingEngine {
    items: Vec<Item>,
}

impl ServingEngine {
    pub fn new() -> Self {
        ServingEngine { items: Vec::new() }
    }

    pub fn run(&mut self, clock: &SimClock) -> f64 {
        if Self::drained(&self.items) {
            clock.elapsed()
        } else {
            0.0
        }
    }

    /// Reached only through `Self::drained`.
    pub fn drained(items: &[Item]) -> bool {
        items.iter().all(Item::ready)
    }
}

pub struct Item;

impl Item {
    /// Named as a value by `ServingEngine::drained`, never called.
    pub fn ready(&self) -> bool {
        true
    }
}

#[derive(Default)]
pub struct SimClock {
    now: f64,
}

impl SimClock {
    pub fn elapsed(&self) -> f64 {
        self.now
    }
}

/// Called from `examples/demo.rs`.
pub fn from_example() -> u32 {
    1
}

/// Called from `dcmbench/src/main.rs`.
pub fn timed_entry() -> u32 {
    2
}

pub struct Walk;

impl Iterator for Walk {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        Some(counted())
    }
}

/// Called only from a trait impl.
pub fn counted() -> u32 {
    3
}

// dcm-lint: allow(R1) §4 case study entry point; case_study_matches_reference
pub fn case_study() -> u32 {
    case_study_helper()
}

/// Reached through the declared API root.
pub fn case_study_helper() -> u32 {
    4
}

pub struct Table;

impl Table {
    /// Called on `store` once `rebound` has rebound it to a `Table`.
    pub fn gathers(&self) -> u32 {
        5
    }
}

pub struct Store;

impl Store {
    pub fn gathers(&self) -> u32 {
        6
    }
}

/// Rebinds its parameter, whose declared type then pins no call.
pub fn rebound(store: &Store) -> u32 {
    let store = Table;
    store.gathers()
}
