//! Differential property test: the struct-of-arrays sequence slab plus a
//! sorted `(id, slot)` vector must be semantically identical to a
//! `BTreeMap<u64, ModelSeq>` model — same membership, same field values,
//! same ascending-id iteration order, same youngest-victim (`last()`)
//! selection — under arbitrary admit/mutate/preempt interleavings with
//! slot churn. The serving engine no longer uses the slab: it keeps one
//! record per sequence in a `Vec` sorted by id. This suite guards the
//! public `SeqSlab` that `dcmbench` still times, and goes with it (ROADMAP
//! "The benchmark changes").

use dcm_vllm::dataset::Request;
use dcm_vllm::slab::{SeqSlab, SlotId};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq)]
struct ModelSeq {
    request_id: u64,
    remaining: usize,
    first_token_t: f64,
    produced: usize,
    kv_tokens: usize,
}

/// The system under test: slab + sorted active vector.
#[derive(Default)]
struct SoaState {
    slab: SeqSlab,
    active: Vec<(u64, SlotId)>,
}

impl SoaState {
    fn insert(&mut self, seq: ModelSeq) {
        let slot = self.slab.insert(
            Request::new(seq.request_id, 64, seq.remaining + 1),
            seq.remaining,
            seq.first_token_t,
            seq.produced,
            seq.kv_tokens,
        );
        let pos = self
            .active
            .binary_search_by_key(&seq.request_id, |&(i, _)| i)
            .expect_err("fresh id");
        self.active.insert(pos, (seq.request_id, slot));
    }

    fn remove(&mut self, id: u64) -> ModelSeq {
        let pos = self
            .active
            .binary_search_by_key(&id, |&(i, _)| i)
            .expect("live id");
        let (_, slot) = self.active.remove(pos);
        let out = ModelSeq {
            request_id: id,
            remaining: self.slab.remaining(slot),
            first_token_t: self.slab.first_token_t(slot),
            produced: self.slab.produced(slot),
            kv_tokens: self.slab.kv_tokens(slot),
        };
        let req = self.slab.remove(slot);
        assert_eq!(req.id, id, "slab returned the wrong tenant");
        out
    }

    fn snapshot(&self) -> Vec<ModelSeq> {
        self.active
            .iter()
            .map(|&(id, slot)| ModelSeq {
                request_id: id,
                remaining: self.slab.remaining(slot),
                first_token_t: self.slab.first_token_t(slot),
                produced: self.slab.produced(slot),
                kv_tokens: self.slab.kv_tokens(slot),
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replay a random op script against the slab and the map model,
    /// checking full-state equality (including iteration order and the
    /// preemption-victim choice) after every op.
    #[test]
    fn slab_matches_btreemap_model(
        ops in proptest::collection::vec(
            (0u8..4, 0u64..40, 1usize..500, 0u32..1_000_000), 0..200),
    ) {
        let mut soa = SoaState::default();
        let mut map: BTreeMap<u64, ModelSeq> = BTreeMap::new();
        for &(op, id_seed, scalar, t_raw) in &ops {
            match op % 4 {
                // Admit a new sequence under a fresh id.
                0 => {
                    if let std::collections::btree_map::Entry::Vacant(slot) = map.entry(id_seed) {
                        let seq = ModelSeq {
                            request_id: id_seed,
                            remaining: scalar,
                            first_token_t: f64::from(t_raw) * 1e-4,
                            produced: 1,
                            kv_tokens: 64 + scalar,
                        };
                        soa.insert(seq);
                        slot.insert(seq);
                    }
                }
                // Decode-step mutation of one live sequence.
                1 => {
                    if let Some((&id, _)) = map.iter().nth(scalar % map.len().max(1)) {
                        let m = map.get_mut(&id).expect("picked live");
                        m.remaining = m.remaining.saturating_sub(1);
                        m.produced += 1;
                        m.kv_tokens += 1;
                        let pos = soa
                            .active
                            .binary_search_by_key(&id, |&(i, _)| i)
                            .expect("live id");
                        let slot = soa.active[pos].1;
                        soa.slab.set_remaining(slot, m.remaining);
                        soa.slab.set_produced(slot, m.produced);
                        soa.slab.set_kv_tokens(slot, m.kv_tokens);
                    }
                }
                // Preempt the youngest (highest id) — the engine's victim
                // rule: map side uses `keys().rev().next()`, slab side
                // uses the sorted vector's last element.
                2 => {
                    let map_victim = map.keys().next_back().copied();
                    let soa_victim = soa.active.last().map(|&(i, _)| i);
                    prop_assert_eq!(map_victim, soa_victim);
                    if let Some(v) = map_victim {
                        let expected = map.remove(&v).expect("victim live");
                        let got = soa.remove(v);
                        prop_assert_eq!(got, expected);
                    }
                }
                // Complete an arbitrary live sequence.
                _ => {
                    if let Some((&id, _)) = map.iter().nth(scalar % map.len().max(1)) {
                        let expected = map.remove(&id).expect("picked live");
                        let got = soa.remove(id);
                        prop_assert_eq!(got, expected);
                    }
                }
            }
            // Full-state equivalence, in iteration order.
            let model: Vec<ModelSeq> = map.values().copied().collect();
            prop_assert_eq!(soa.snapshot(), model);
            prop_assert_eq!(soa.slab.len(), map.len());
        }
        // Slot churn must not have grown the slab past peak concurrency.
        prop_assert!(soa.slab.capacity() <= ops.len().max(1));
    }
}
