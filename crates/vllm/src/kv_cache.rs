//! The paged KV-cache block manager.
//!
//! vLLM's core idea \[42\]: divide the KV cache into fixed-size blocks and
//! allocate them on demand as sequences grow, instead of pre-allocating
//! worst-case contiguous buffers. This eliminates fragmentation and raises
//! the maximum batch size (§4.2).
//!
//! Nothing here names a block: attention prices a batch from its block
//! counts (`BatchShape`), and the §4.2 layouts live in [`crate::block`]
//! over explicit block lists. So blocks are counted. `KvPool` holds one
//! device's block arithmetic, and the serving engine runs it over the
//! token counts its batch already keeps; [`PagedKvCache`] is the same
//! pool under a map of sequences.

use dcm_core::cast::{usize_to_f64, usize_to_u64};
use dcm_core::error::{DcmError, Result};
use std::collections::BTreeMap;

/// Identifier of one serving request/sequence.
pub type SeqId = u64;

/// One device's KV blocks, counted: how many there are, how many are
/// free, and the rules by which a sequence of `t` tokens holds, takes and
/// gives them back. A sequence that has appended without a failure holds
/// `⌈t/B⌉` blocks of `B` tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct KvPool {
    block_tokens: usize,
    blocks: usize,
    free: usize,
}

impl KvPool {
    /// A pool of `blocks` free blocks of `block_tokens` tokens.
    pub(crate) fn new(blocks: usize, block_tokens: usize) -> Self {
        KvPool {
            block_tokens,
            blocks,
            free: blocks,
        }
    }

    /// Size a pool from device HBM: capacity minus `reserved_bytes`
    /// (weights, activations), divided by the per-block footprint.
    ///
    /// # Errors
    /// Returns [`DcmError::ResourceExhausted`] if nothing fits.
    pub(crate) fn sized_for(
        hbm_capacity_bytes: u64,
        reserved_bytes: u64,
        kv_bytes_per_token: u64,
        block_tokens: usize,
    ) -> Result<Self> {
        let available = hbm_capacity_bytes.saturating_sub(reserved_bytes);
        let block_bytes = kv_bytes_per_token * usize_to_u64(block_tokens);
        let blocks = usize::try_from(available / block_bytes.max(1)).unwrap_or(usize::MAX);
        if blocks == 0 {
            return Err(DcmError::ResourceExhausted(format!(
                "no KV blocks fit: {available} B available, {block_bytes} B per block"
            )));
        }
        Ok(Self::new(blocks, block_tokens))
    }

    /// Blocks that hold `tokens` tokens: `⌈tokens/B⌉`.
    pub(crate) fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_tokens)
    }

    /// Total blocks.
    pub(crate) fn blocks(&self) -> usize {
        self.blocks
    }

    /// Free blocks.
    pub(crate) fn free(&self) -> usize {
        self.free
    }

    /// Blocks lent out.
    pub(crate) fn used(&self) -> usize {
        self.blocks - self.free
    }

    /// Whether `tokens` tokens' blocks are free right now.
    pub(crate) fn fits(&self, tokens: usize) -> bool {
        self.blocks_for(tokens) <= self.free
    }

    /// Fraction of blocks in use.
    pub(crate) fn used_fraction(&self) -> f64 {
        1.0 - usize_to_f64(self.free) / usize_to_f64(self.blocks)
    }

    /// Take `n` blocks, which the caller has checked are free.
    pub(crate) fn take(&mut self, n: usize) {
        self.free -= n;
    }

    /// Give back `n` blocks.
    pub(crate) fn give(&mut self, n: usize) {
        self.free += n;
    }

    /// Append one token to a sequence of `tokens` tokens holding `held`
    /// blocks, taking a block when the token needs one. The token is
    /// counted before the check (count-before-fail): with no block free
    /// the append fails, `tokens` still rises by one and nothing is taken.
    pub(crate) fn append(&mut self, tokens: &mut usize, held: &mut usize) -> bool {
        *tokens += 1;
        if self.blocks_for(*tokens) > *held {
            if self.free == 0 {
                return false;
            }
            self.free -= 1;
            *held += 1;
        }
        true
    }

    /// Append `n ≥ 1` tokens at once, taking every block the sequence
    /// then lacks. Where those outrun the free blocks it ends as the
    /// per-token loop's first failure: every free block taken, and the
    /// token that found none counted.
    pub(crate) fn append_tokens(&mut self, tokens: &mut usize, held: &mut usize, n: usize) -> bool {
        let extra = self.blocks_for(*tokens + n).saturating_sub(*held);
        if extra > self.free {
            *held += std::mem::take(&mut self.free);
            *tokens = *held * self.block_tokens + 1;
            return false;
        }
        self.free -= extra;
        *held += extra;
        *tokens += n;
        true
    }
}

/// A paged KV-cache block manager for one device: a pool of counted
/// blocks and each live sequence's token count and held blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct PagedKvCache {
    pool: KvPool,
    /// `(tokens, held blocks)` of each live sequence.
    seqs: BTreeMap<SeqId, (usize, usize)>,
}

fn unknown(id: SeqId) -> DcmError {
    DcmError::InvalidConfig(format!("unknown sequence {id}"))
}

fn out_of_blocks() -> DcmError {
    DcmError::ResourceExhausted("KV cache out of blocks".to_owned())
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
            pool: KvPool::new(num_blocks, block_tokens),
            seqs: BTreeMap::new(),
        }
    }

    /// Free blocks.
    #[must_use]
    pub fn free_blocks(&self) -> usize {
        self.pool.free()
    }

    /// Whether a sequence of `tokens` tokens could be admitted right now.
    #[must_use]
    pub fn can_admit(&self, tokens: usize) -> bool {
        self.pool.fits(tokens)
    }

    /// Admit a new sequence holding `tokens` tokens (its prompt).
    ///
    /// # Errors
    /// Returns [`DcmError::ResourceExhausted`] if blocks are unavailable or
    /// [`DcmError::InvalidConfig`] if the id is live.
    pub fn admit(&mut self, id: SeqId, tokens: usize) -> Result<()> {
        if self.seqs.contains_key(&id) {
            return Err(DcmError::InvalidConfig(format!(
                "sequence {id} already live"
            )));
        }
        let tokens = tokens.max(1);
        let need = self.pool.blocks_for(tokens);
        if need > self.pool.free() {
            return Err(DcmError::ResourceExhausted(format!(
                "need {need} blocks, {} free",
                self.pool.free()
            )));
        }
        self.pool.take(need);
        self.seqs.insert(id, (tokens, need));
        Ok(())
    }

    /// Append one generated token to a sequence, taking a new block at
    /// block boundaries. The token is counted even when no block is free
    /// (count-before-fail).
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] for unknown sequences or
    /// [`DcmError::ResourceExhausted`] when out of blocks.
    pub fn append_token(&mut self, id: SeqId) -> Result<()> {
        let (tokens, held) = self.seqs.get_mut(&id).ok_or_else(|| unknown(id))?;
        if self.pool.append(tokens, held) {
            Ok(())
        } else {
            Err(out_of_blocks())
        }
    }

    /// Append `n` generated tokens to a sequence at once: from a sequence
    /// that holds `⌈t/B⌉` blocks, what `n` successive
    /// [`append_token`](Self::append_token) calls stopping at the first
    /// error leave.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] for unknown sequences or
    /// [`DcmError::ResourceExhausted`] when the tokens outrun the free
    /// blocks.
    pub fn append_tokens(&mut self, id: SeqId, n: usize) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        let (tokens, held) = self.seqs.get_mut(&id).ok_or_else(|| unknown(id))?;
        if self.pool.append_tokens(tokens, held, n) {
            Ok(())
        } else {
            Err(out_of_blocks())
        }
    }

    /// Release a completed sequence's blocks.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] for unknown sequences.
    pub fn release(&mut self, id: SeqId) -> Result<()> {
        let (_, held) = self.seqs.remove(&id).ok_or_else(|| unknown(id))?;
        self.pool.give(held);
        Ok(())
    }

    /// Blocks a live sequence holds.
    #[must_use]
    pub fn blocks_of(&self, id: SeqId) -> Option<usize> {
        self.seqs.get(&id).map(|&(_, held)| held)
    }

    /// Current token count of a live sequence.
    #[must_use]
    pub fn tokens_of(&self, id: SeqId) -> Option<usize> {
        self.seqs.get(&id).map(|&(tokens, _)| tokens)
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
        assert_eq!(c.blocks_of(1), Some(2));
        // Tokens 7, 8 stay in block 2; token 9 needs block 3.
        c.append_token(1).unwrap();
        c.append_token(1).unwrap();
        assert_eq!(c.blocks_of(1), Some(2));
        c.append_token(1).unwrap();
        assert_eq!(c.blocks_of(1), Some(3));
        assert_eq!(c.tokens_of(1), Some(9));
        c.release(1).unwrap();
        assert_eq!(c.free_blocks(), 10);
        assert_eq!(c.blocks_of(1), None);
    }

    #[test]
    fn append_tokens_matches_repeated_append_token() {
        // Success path: same counts, same held blocks, same free count.
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
        assert!(bulk.append_tokens(9, 1).is_err()); // unknown id
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
        let pool = KvPool::sized_for(96 << 30, 16 << 30, 128 << 10, 128).unwrap();
        assert_eq!((pool.blocks(), pool.free()), (5120, 5120));
        assert!(KvPool::sized_for(1 << 30, 1 << 30, 1 << 10, 128).is_err());
    }

    #[test]
    fn blocks_are_reused_after_release() {
        let mut c = PagedKvCache::new(3, 2);
        c.admit(1, 6).unwrap();
        c.release(1).unwrap();
        c.admit(2, 6).unwrap();
        assert_eq!(c.blocks_of(2), Some(3));
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
        assert!((0..8).all(|id| c.blocks_of(id) == Some(2)));
        assert_eq!(c.free_blocks(), 0);
    }
}
