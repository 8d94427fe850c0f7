//! The block-naming KV cache `prop_vllm.rs` checks
//! `dcm_vllm::kv_cache::PagedKvCache` against: the cache as it was before
//! it counted blocks instead of naming them.

use std::collections::BTreeMap;

/// A paged KV cache that hands out block ids: a free list popped from the
/// back, each sequence's block list, and its token count, which an append
/// raises before it looks for a block (count-before-fail).
#[derive(Debug, Clone)]
pub struct BlockIdCache {
    block_tokens: usize,
    free: Vec<usize>,
    /// `(tokens, blocks)` of each live sequence.
    seqs: BTreeMap<u64, (usize, Vec<usize>)>,
}

impl BlockIdCache {
    /// `num_blocks` free blocks of `block_tokens` tokens; block 0 is
    /// popped first.
    #[must_use]
    pub fn new(num_blocks: usize, block_tokens: usize) -> Self {
        BlockIdCache {
            block_tokens,
            free: (0..num_blocks).rev().collect(),
            seqs: BTreeMap::new(),
        }
    }

    /// Free blocks.
    #[must_use]
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Whether `tokens` tokens' blocks are free.
    #[must_use]
    pub fn can_admit(&self, tokens: usize) -> bool {
        tokens.div_ceil(self.block_tokens) <= self.free.len()
    }

    /// Admit `id` with `tokens` tokens (at least one); `false`, changing
    /// nothing, if it is live or its blocks are not free.
    pub fn admit(&mut self, id: u64, tokens: usize) -> bool {
        let tokens = tokens.max(1);
        let need = tokens.div_ceil(self.block_tokens);
        if self.seqs.contains_key(&id) || need > self.free.len() {
            return false;
        }
        let blocks = self.free.split_off(self.free.len() - need);
        self.seqs.insert(id, (tokens, blocks));
        true
    }

    /// Append one token to `id`, popping a block when the count needs
    /// more than it holds; `false` if `id` is not live or no block is
    /// free, in which case the token is still counted.
    pub fn append_token(&mut self, id: u64) -> bool {
        let Some((tokens, blocks)) = self.seqs.get_mut(&id) else {
            return false;
        };
        *tokens += 1;
        if tokens.div_ceil(self.block_tokens) > blocks.len() {
            match self.free.pop() {
                Some(b) => blocks.push(b),
                None => return false,
            }
        }
        true
    }

    /// Append `n` tokens to `id` at once, popping every block the count
    /// then lacks. If they outrun the free list, every free block is
    /// popped and the count is set to the token after them.
    pub fn append_tokens(&mut self, id: u64, n: usize) -> bool {
        if n == 0 {
            return true;
        }
        let Some((tokens, blocks)) = self.seqs.get_mut(&id) else {
            return false;
        };
        let extra = (*tokens + n)
            .div_ceil(self.block_tokens)
            .saturating_sub(blocks.len());
        if extra > self.free.len() {
            blocks.extend(self.free.drain(..).rev());
            *tokens = blocks.len() * self.block_tokens + 1;
            return false;
        }
        let from = self.free.len() - extra;
        blocks.extend(self.free.drain(from..).rev());
        *tokens += n;
        true
    }

    /// Return `id`'s blocks to the free list; `false` if it is not live.
    pub fn release(&mut self, id: u64) -> bool {
        match self.seqs.remove(&id) {
            Some((_, blocks)) => {
                self.free.extend(blocks);
                true
            }
            None => false,
        }
    }

    /// Token count of a live sequence.
    #[must_use]
    pub fn tokens_of(&self, id: u64) -> Option<usize> {
        self.seqs.get(&id).map(|(tokens, _)| *tokens)
    }

    /// Block ids a live sequence holds.
    #[must_use]
    pub fn blocks_of(&self, id: u64) -> Option<&[usize]> {
        self.seqs.get(&id).map(|(_, blocks)| blocks.as_slice())
    }
}
