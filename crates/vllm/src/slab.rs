//! Struct-of-arrays slab of decode sequences, which the serving engine
//! no longer uses.
//!
//! [`SeqSlab`] stores each per-sequence field (KV token count, remaining
//! budget, produced count, first-token timestamp, request) in its own
//! dense column indexed by a slot number, and recycles a freed slot
//! through a free list, so steady-state inserts and removes allocate
//! nothing. The engine keeps one record per sequence in a `Vec` sorted by
//! id and bounded by `max_decode_batch` instead (DESIGN.md §3.8). The
//! slab stays only because `dcmbench`'s `vllm.slab.insert_remove_ns`
//! probe times it; both go in the first benchmark change (ROADMAP "The
//! benchmark changes").
//!
//! Slots are addressed by a generational [`SlotId`]: removing a sequence
//! bumps the slot's generation, so a stale id can never silently read the
//! slot's next tenant — it panics instead. `tests/tests/prop_slab_diff.rs`
//! pins the slab, staleness included, against a `BTreeMap` model.

use crate::dataset::Request;

/// Generational handle to one slab slot. Obtained from
/// [`SeqSlab::insert`]; invalidated (for panics, not UB) by
/// [`SeqSlab::remove`] on the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotId {
    index: usize,
    generation: u32,
}

/// Struct-of-arrays storage for the per-sequence state of an active
/// decode batch. See the module docs for layout and invariants.
#[derive(Debug, Default, Clone)]
pub struct SeqSlab {
    /// Original request (immutable per tenant) — read at preemption,
    /// completion and crash harvest.
    request: Vec<Request>,
    /// Output tokens still to produce.
    remaining: Vec<usize>,
    /// Simulated time the first output token was emitted (TTFT anchor).
    first_token_t: Vec<f64>,
    /// Output tokens produced so far (survives preemption via the ready
    /// queue, not the slab).
    produced: Vec<usize>,
    /// Mirror of the KV cache's token count for this sequence, including
    /// the cache's failed-append inflation — keeps the decode loop free
    /// of map lookups into the cache.
    kv_tokens: Vec<usize>,
    /// Current generation of each slot; a [`SlotId`] is live iff its
    /// generation matches.
    generation: Vec<u32>,
    /// Recycled slot indices, reused LIFO.
    free: Vec<usize>,
    /// Live sequence count.
    len: usize,
}

impl SeqSlab {
    /// An empty slab with room for `capacity` concurrent sequences before
    /// any column reallocates.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        SeqSlab {
            request: Vec::with_capacity(capacity),
            remaining: Vec::with_capacity(capacity),
            first_token_t: Vec::with_capacity(capacity),
            produced: Vec::with_capacity(capacity),
            kv_tokens: Vec::with_capacity(capacity),
            generation: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            len: 0,
        }
    }

    /// Live sequences.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no sequence is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots ever allocated (live + free) — the high-water mark of
    /// batch concurrency.
    #[must_use]
    // dcm-lint: allow(R1) SeqSlab oracle API; prop_slab_diff::slab_matches_btreemap_model
    pub fn capacity(&self) -> usize {
        self.generation.len()
    }

    /// Resolve a handle to its column index, panicking on staleness.
    fn idx(&self, slot: SlotId) -> usize {
        assert_eq!(
            self.generation[slot.index], slot.generation,
            "stale slot id {slot:?}"
        );
        slot.index
    }

    /// Whether `slot` still addresses a live sequence. O(1) — this is the
    /// decode loop's membership test for snapshot ids across preemptions.
    #[must_use]
    pub fn contains(&self, slot: SlotId) -> bool {
        slot.index < self.generation.len() && self.generation[slot.index] == slot.generation
    }

    /// Insert a sequence, reusing a freed slot when one exists.
    pub fn insert(
        &mut self,
        request: Request,
        remaining: usize,
        first_token_t: f64,
        produced: usize,
        kv_tokens: usize,
    ) -> SlotId {
        self.len += 1;
        if let Some(i) = self.free.pop() {
            self.request[i] = request;
            self.remaining[i] = remaining;
            self.first_token_t[i] = first_token_t;
            self.produced[i] = produced;
            self.kv_tokens[i] = kv_tokens;
            SlotId {
                index: i,
                generation: self.generation[i],
            }
        } else {
            // dcm-lint: allow(A1) slab growth path: amortized doubling, hit only while the live set expands
            self.request.push(request);
            // dcm-lint: allow(A1) slab growth path: amortized doubling, hit only while the live set expands
            self.remaining.push(remaining);
            // dcm-lint: allow(A1) slab growth path: amortized doubling, hit only while the live set expands
            self.first_token_t.push(first_token_t);
            // dcm-lint: allow(A1) slab growth path: amortized doubling, hit only while the live set expands
            self.produced.push(produced);
            // dcm-lint: allow(A1) slab growth path: amortized doubling, hit only while the live set expands
            self.kv_tokens.push(kv_tokens);
            // dcm-lint: allow(A1) slab growth path: amortized doubling, hit only while the live set expands
            self.generation.push(0);
            SlotId {
                index: self.generation.len() - 1,
                generation: 0,
            }
        }
    }

    /// Remove a live sequence, returning its request and invalidating
    /// every outstanding [`SlotId`] for the slot.
    ///
    /// # Panics
    /// Panics if `slot` is stale.
    pub fn remove(&mut self, slot: SlotId) -> Request {
        let i = self.idx(slot);
        self.generation[i] = self.generation[i].wrapping_add(1);
        // dcm-lint: allow(A1) free list never exceeds slab capacity, so pushes reuse released capacity
        self.free.push(i);
        self.len -= 1;
        self.request[i]
    }

    /// Output tokens still to produce.
    #[must_use]
    // dcm-lint: allow(R1) SeqSlab oracle API; prop_slab_diff::slab_matches_btreemap_model
    pub fn remaining(&self, slot: SlotId) -> usize {
        self.remaining[self.idx(slot)]
    }

    /// Set the remaining output-token budget.
    // dcm-lint: allow(R1) SeqSlab oracle API; prop_slab_diff::slab_matches_btreemap_model
    pub fn set_remaining(&mut self, slot: SlotId, remaining: usize) {
        let i = self.idx(slot);
        self.remaining[i] = remaining;
    }

    /// Simulated time of the first output token.
    #[must_use]
    // dcm-lint: allow(R1) SeqSlab oracle API; prop_slab_diff::slab_matches_btreemap_model
    pub fn first_token_t(&self, slot: SlotId) -> f64 {
        self.first_token_t[self.idx(slot)]
    }

    /// Output tokens produced so far.
    #[must_use]
    // dcm-lint: allow(R1) SeqSlab oracle API; prop_slab_diff::slab_matches_btreemap_model
    pub fn produced(&self, slot: SlotId) -> usize {
        self.produced[self.idx(slot)]
    }

    /// Set the produced-token count.
    // dcm-lint: allow(R1) SeqSlab oracle API; prop_slab_diff::slab_matches_btreemap_model
    pub fn set_produced(&mut self, slot: SlotId, produced: usize) {
        let i = self.idx(slot);
        self.produced[i] = produced;
    }

    /// Mirrored KV-cache token count (append attempts included).
    #[must_use]
    // dcm-lint: allow(R1) SeqSlab oracle API; prop_slab_diff::slab_matches_btreemap_model
    pub fn kv_tokens(&self, slot: SlotId) -> usize {
        self.kv_tokens[self.idx(slot)]
    }

    /// Set the mirrored KV-cache token count.
    // dcm-lint: allow(R1) SeqSlab oracle API; prop_slab_diff::slab_matches_btreemap_model
    pub fn set_kv_tokens(&mut self, slot: SlotId, kv_tokens: usize) {
        let i = self.idx(slot);
        self.kv_tokens[i] = kv_tokens;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64) -> Request {
        Request::new(id, 128, 16)
    }

    #[test]
    fn insert_then_read_back() {
        let mut slab = SeqSlab::default();
        let a = slab.insert(req(7), 15, 0.25, 1, 129);
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.request[slab.idx(a)].id, 7);
        assert_eq!(slab.remaining(a), 15);
        assert_eq!(slab.first_token_t(a), 0.25);
        assert_eq!(slab.produced(a), 1);
        assert_eq!(slab.kv_tokens(a), 129);
    }

    #[test]
    fn slots_are_independent() {
        let mut slab = SeqSlab::default();
        let a = slab.insert(req(0), 10, 0.0, 1, 10);
        let b = slab.insert(req(1), 20, 1.0, 1, 20);
        slab.set_remaining(a, 9);
        slab.set_kv_tokens(b, 21);
        assert_eq!(slab.remaining(a), 9);
        assert_eq!(slab.remaining(b), 20);
        assert_eq!(slab.kv_tokens(a), 10);
        assert_eq!(slab.kv_tokens(b), 21);
    }

    #[test]
    fn freed_slots_are_reused_lifo_and_capacity_stays_flat() {
        let mut slab = SeqSlab::with_capacity(4);
        let ids: Vec<SlotId> = (0..4).map(|i| slab.insert(req(i), 1, 0.0, 1, 1)).collect();
        assert_eq!(slab.capacity(), 4);
        slab.remove(ids[1]);
        slab.remove(ids[3]);
        // LIFO reuse: the most recently freed slot (index of ids[3]) first.
        let c = slab.insert(req(10), 1, 0.0, 1, 1);
        let d = slab.insert(req(11), 1, 0.0, 1, 1);
        assert_eq!(slab.capacity(), 4, "churn must not grow the slab");
        assert_eq!(slab.len(), 4);
        assert_eq!(slab.request[slab.idx(c)].id, 10);
        assert_eq!(slab.request[slab.idx(d)].id, 11);
    }

    #[test]
    #[should_panic(expected = "stale slot id")]
    fn stale_id_panics_after_reuse() {
        let mut slab = SeqSlab::default();
        let a = slab.insert(req(0), 1, 0.0, 1, 1);
        slab.remove(a);
        let _b = slab.insert(req(1), 1, 0.0, 1, 1); // same index, new generation
        let _ = slab.remaining(a);
    }

    #[test]
    #[should_panic(expected = "stale slot id")]
    fn double_remove_panics() {
        let mut slab = SeqSlab::default();
        let a = slab.insert(req(0), 1, 0.0, 1, 1);
        slab.remove(a);
        slab.remove(a);
    }

    #[test]
    fn contains_tracks_liveness() {
        let mut slab = SeqSlab::default();
        let a = slab.insert(req(0), 1, 0.0, 1, 1);
        assert!(slab.contains(a));
        slab.remove(a);
        assert!(!slab.contains(a));
        let b = slab.insert(req(1), 1, 0.0, 1, 1);
        assert!(slab.contains(b));
        assert!(!slab.contains(a), "old generation must stay dead");
    }
}
