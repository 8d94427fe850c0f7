//! The paged KV-cache block manager.
//!
//! vLLM's core idea [42]: divide the KV cache into fixed-size blocks and
//! allocate them on demand as sequences grow, instead of pre-allocating
//! worst-case contiguous buffers. This eliminates fragmentation and raises
//! the maximum batch size (§4.2).

use dcm_core::cast::usize_to_u64;
use dcm_core::error::{DcmError, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifier of one serving request/sequence.
pub type SeqId = u64;

/// A paged KV-cache block manager for one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PagedKvCache {
    block_tokens: usize,
    num_blocks: usize,
    free: Vec<usize>,
    allocated: BTreeMap<SeqId, Vec<usize>>,
    seq_tokens: BTreeMap<SeqId, usize>,
}

impl PagedKvCache {
    /// Create a cache of `num_blocks` blocks of `block_tokens` tokens.
    ///
    /// # Panics
    /// Panics if either parameter is zero.
    #[must_use]
    pub fn new(num_blocks: usize, block_tokens: usize) -> Self {
        assert!(num_blocks > 0 && block_tokens > 0);
        PagedKvCache {
            block_tokens,
            num_blocks,
            free: (0..num_blocks).rev().collect(),
            allocated: BTreeMap::new(),
            seq_tokens: BTreeMap::new(),
        }
    }

    /// Size a cache from device HBM: capacity minus `reserved_bytes`
    /// (weights, activations), divided by the per-block footprint.
    ///
    /// # Errors
    /// Returns [`DcmError::ResourceExhausted`] if nothing fits.
    pub fn sized_for(
        hbm_capacity_bytes: u64,
        reserved_bytes: u64,
        kv_bytes_per_token: u64,
        block_tokens: usize,
    ) -> Result<Self> {
        let available = hbm_capacity_bytes.saturating_sub(reserved_bytes);
        let block_bytes = kv_bytes_per_token * usize_to_u64(block_tokens);
        let num_blocks = usize::try_from(available / block_bytes.max(1)).unwrap_or(usize::MAX);
        if num_blocks == 0 {
            return Err(DcmError::ResourceExhausted(format!(
                "no KV blocks fit: {available} B available, {block_bytes} B per block"
            )));
        }
        Ok(Self::new(num_blocks, block_tokens))
    }

    /// Tokens per block.
    #[must_use]
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Total blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Free blocks.
    #[must_use]
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Blocks needed to hold `tokens` tokens.
    #[must_use]
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_tokens)
    }

    /// Whether a sequence of `tokens` tokens could be admitted right now.
    #[must_use]
    pub fn can_admit(&self, tokens: usize) -> bool {
        self.blocks_for(tokens) <= self.free_blocks()
    }

    /// Admit a new sequence holding `tokens` tokens (its prompt).
    ///
    /// # Errors
    /// Returns [`DcmError::ResourceExhausted`] if blocks are unavailable or
    /// [`DcmError::InvalidConfig`] if the id is live.
    pub fn admit(&mut self, id: SeqId, tokens: usize) -> Result<()> {
        if self.allocated.contains_key(&id) {
            return Err(DcmError::InvalidConfig(format!(
                "sequence {id} already live"
            )));
        }
        let need = self.blocks_for(tokens.max(1));
        if need > self.free.len() {
            return Err(DcmError::ResourceExhausted(format!(
                "need {need} blocks, {} free",
                self.free.len()
            )));
        }
        let blocks = self.free.split_off(self.free.len() - need);
        self.allocated.insert(id, blocks);
        self.seq_tokens.insert(id, tokens.max(1));
        Ok(())
    }

    /// Append one generated token to a sequence, allocating a new block at
    /// block boundaries.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] for unknown sequences or
    /// [`DcmError::ResourceExhausted`] when out of blocks.
    pub fn append_token(&mut self, id: SeqId) -> Result<()> {
        let tokens = self
            .seq_tokens
            .get_mut(&id)
            // dcm-lint: allow(A1) format! sits in the ok_or_else closure: cold error path, never runs steady-state
            .ok_or_else(|| DcmError::InvalidConfig(format!("unknown sequence {id}")))?;
        *tokens += 1;
        let need = tokens.div_ceil(self.block_tokens);
        let have = self.allocated[&id].len();
        if need > have {
            let block = self
                .free
                .pop()
                .ok_or_else(|| DcmError::ResourceExhausted("KV cache out of blocks".to_owned()))?;
            // dcm-lint: allow(P1, A1) key verified live above; block list grows once per block_tokens tokens
            self.allocated.get_mut(&id).expect("checked").push(block);
        }
        Ok(())
    }

    /// Append `n` generated tokens to a sequence at once — a decode
    /// stretch's bulk path. Exactly equivalent to `n` successive
    /// [`append_token`](Self::append_token) calls stopping at the first
    /// error, including the count-before-fail accounting (the token that
    /// found no block is still counted) and the block pop order.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] for unknown sequences or
    /// [`DcmError::ResourceExhausted`] when the stretch outruns the free
    /// blocks.
    pub fn append_tokens(&mut self, id: SeqId, n: usize) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        // One lookup per map: a stretch updates every sequence this way.
        let (Some(tokens), Some(alloc)) =
            (self.seq_tokens.get_mut(&id), self.allocated.get_mut(&id))
        else {
            // dcm-lint: allow(A1) format! on the unknown-sequence error path: cold, never runs steady-state
            return Err(DcmError::InvalidConfig(format!("unknown sequence {id}")));
        };
        let target = *tokens + n;
        let extra = target
            .div_ceil(self.block_tokens)
            .saturating_sub(alloc.len());
        if extra > self.free.len() {
            // Mirror the per-token loop's first failure: every free block
            // was consumed on the way there, and the token that found none
            // is counted.
            *tokens = (alloc.len() + self.free.len()) * self.block_tokens + 1;
            alloc.extend(self.free.drain(..).rev()); // pop order
            return Err(DcmError::ResourceExhausted(
                "KV cache out of blocks".to_owned(),
            ));
        }
        *tokens = target;
        if extra > 0 {
            let from = self.free.len() - extra;
            alloc.extend(self.free.drain(from..).rev()); // pop order
        }
        Ok(())
    }

    /// Release a completed sequence's blocks.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] for unknown sequences.
    pub fn release(&mut self, id: SeqId) -> Result<()> {
        let blocks = self
            .allocated
            .remove(&id)
            .ok_or_else(|| DcmError::InvalidConfig(format!("unknown sequence {id}")))?;
        self.free.extend(blocks);
        self.seq_tokens.remove(&id);
        Ok(())
    }

    /// Current block list of a live sequence.
    #[must_use]
    pub fn blocks_of(&self, id: SeqId) -> Option<&[usize]> {
        self.allocated.get(&id).map(Vec::as_slice)
    }

    /// Current token count of a live sequence.
    #[must_use]
    pub fn tokens_of(&self, id: SeqId) -> Option<usize> {
        self.seq_tokens.get(&id).copied()
    }

    /// Live sequences.
    #[must_use]
    pub fn live_sequences(&self) -> usize {
        self.allocated.len()
    }

    /// Build the baseline 2-D padded [`crate::block::BlockTable`] over the
    /// given live sequences — the structure the Gaudi vLLM fork hands its
    /// gather kernel (§4.2).
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] if any id is not live or the
    /// list is empty.
    pub fn block_table(&self, ids: &[SeqId]) -> Result<crate::block::BlockTable> {
        crate::block::BlockTable::new(&self.collect_blocks(ids)?)
    }

    /// Build the optimized 1-D [`crate::block::BlockList`] over the given
    /// live sequences.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] if any id is not live or the
    /// list is empty.
    pub fn block_list(&self, ids: &[SeqId]) -> Result<crate::block::BlockList> {
        crate::block::BlockList::new(&self.collect_blocks(ids)?)
    }

    fn collect_blocks(&self, ids: &[SeqId]) -> Result<Vec<Vec<usize>>> {
        ids.iter()
            .map(|id| {
                self.allocated
                    .get(id)
                    .cloned()
                    .ok_or_else(|| DcmError::InvalidConfig(format!("unknown sequence {id}")))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_grow_release_cycle() {
        let mut c = PagedKvCache::new(10, 4);
        c.admit(1, 6).unwrap(); // 2 blocks
        assert_eq!(c.free_blocks(), 8);
        assert_eq!(c.blocks_of(1).unwrap().len(), 2);
        // Tokens 7, 8 stay in block 2; token 9 needs block 3.
        c.append_token(1).unwrap();
        c.append_token(1).unwrap();
        assert_eq!(c.blocks_of(1).unwrap().len(), 2);
        c.append_token(1).unwrap();
        assert_eq!(c.blocks_of(1).unwrap().len(), 3);
        assert_eq!(c.tokens_of(1), Some(9));
        c.release(1).unwrap();
        assert_eq!(c.free_blocks(), 10);
        assert_eq!(c.live_sequences(), 0);
    }

    #[test]
    fn append_tokens_matches_repeated_append_token() {
        // Success path: same counts, same block lists, same free list.
        let mut bulk = PagedKvCache::new(10, 4);
        let mut steps = bulk.clone();
        bulk.admit(1, 6).unwrap();
        steps.admit(1, 6).unwrap();
        bulk.append_tokens(1, 7).unwrap();
        for _ in 0..7 {
            steps.append_token(1).unwrap();
        }
        assert_eq!(bulk, steps);
        bulk.append_tokens(1, 0).unwrap();
        assert_eq!(bulk, steps);
        // Failure path: both stop at the first token that finds no block,
        // with identical count-before-fail state.
        let mut bulk = PagedKvCache::new(3, 4);
        let mut steps = bulk.clone();
        bulk.admit(1, 4).unwrap();
        steps.admit(1, 4).unwrap();
        assert!(matches!(
            bulk.append_tokens(1, 100),
            Err(DcmError::ResourceExhausted(_))
        ));
        while steps.append_token(1).is_ok() {}
        assert_eq!(bulk, steps);
        assert_eq!(bulk.tokens_of(1), Some(13)); // 3 blocks * 4 + 1
                                                 // Unknown id.
        assert!(bulk.append_tokens(9, 1).is_err());
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut c = PagedKvCache::new(2, 4);
        c.admit(1, 8).unwrap();
        assert!(!c.can_admit(1));
        assert!(matches!(c.admit(2, 1), Err(DcmError::ResourceExhausted(_))));
        assert!(matches!(
            c.append_token(1),
            Err(DcmError::ResourceExhausted(_))
        ));
    }

    #[test]
    fn duplicate_and_unknown_ids_error() {
        let mut c = PagedKvCache::new(4, 4);
        c.admit(1, 1).unwrap();
        assert!(c.admit(1, 1).is_err());
        assert!(c.append_token(99).is_err());
        assert!(c.release(99).is_err());
    }

    #[test]
    fn sized_for_device_capacity() {
        // 8B model on Gaudi-2: 16 GB of weights, 128 KiB KV per token,
        // 128-token blocks => 16 MiB per block.
        let c = PagedKvCache::sized_for(96 << 30, 16 << 30, 128 << 10, 128).unwrap();
        assert_eq!(c.num_blocks(), 5120);
        assert!(PagedKvCache::sized_for(1 << 30, 1 << 30, 1 << 10, 128).is_err());
    }

    #[test]
    fn blocks_are_reused_after_release() {
        let mut c = PagedKvCache::new(3, 2);
        c.admit(1, 6).unwrap();
        c.release(1).unwrap();
        c.admit(2, 6).unwrap();
        assert_eq!(c.blocks_of(2).unwrap().len(), 3);
    }

    #[test]
    fn block_layouts_reflect_live_state() {
        let mut c = PagedKvCache::new(16, 4);
        c.admit(1, 9).unwrap(); // 3 blocks
        c.admit(2, 3).unwrap(); // 1 block
        let table = c.block_table(&[1, 2]).unwrap();
        let list = c.block_list(&[1, 2]).unwrap();
        assert_eq!(table.batch(), 2);
        assert_eq!(table.width(), 3);
        assert_eq!(table.effectual_gathers(), 4);
        assert_eq!(table.redundant_gathers(), 2); // seq 2 padded 1 -> 3
        assert_eq!(list.total_gathers(), 4);
        assert_eq!(list.blocks_of(0), c.blocks_of(1).unwrap());
        // Growth is visible in fresh layouts.
        for _ in 0..4 {
            c.append_token(2).unwrap();
        }
        let list2 = c.block_list(&[1, 2]).unwrap();
        assert_eq!(list2.blocks_of(1).len(), 2);
        // Unknown ids error.
        assert!(c.block_table(&[9]).is_err());
        assert!(c.block_list(&[]).is_err());
    }

    #[test]
    fn paging_admits_more_than_worst_case_reservation() {
        // The motivating property: with 16 blocks of 4 tokens, paged
        // allocation admits 8 sequences of 8 actual tokens, where a
        // worst-case (say 32-token) contiguous reservation would admit 2.
        let mut c = PagedKvCache::new(16, 4);
        for id in 0..8 {
            c.admit(id, 8).unwrap();
        }
        assert_eq!(c.live_sequences(), 8);
        assert_eq!(c.free_blocks(), 0);
    }
}
