//! KV-cache index layouts: the 2-D zero-padded `BlockTable` versus the 1-D
//! `BlockList` (Figure 16), plus functional attention over both proving
//! they compute the same thing.
//!
//! The baseline Gaudi vLLM fork stores "the indices of KV cache blocks
//! required by each query" in a 2-D tensor padded with zeros for shorter
//! sequences, "leading to unnecessary gathering of KV cache blocks"
//! (§4.2). The optimized version concatenates "only the effectual KV cache
//! block indices" into a 1-D `BlockList`.

use dcm_core::cast::usize_to_f32;
use dcm_core::error::{DcmError, Result};
use dcm_core::linalg;
use dcm_core::tensor::Tensor;
use dcm_core::DType;
use serde::{Deserialize, Serialize};

/// The 2-D padded block-index layout of `vLLM_base` (Figure 16(a)).
///
/// Row `i` lists the cache blocks of sequence `i`, padded with block 0 up
/// to the widest sequence in the batch. Padded entries are *gathered
/// anyway* by the baseline kernel — that redundancy is the layout's cost.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockTable {
    rows: Vec<Vec<usize>>,
    width: usize,
    effectual: Vec<usize>,
}

impl BlockTable {
    /// Build the padded table from per-sequence block lists.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] if `per_seq` is empty or any
    /// sequence has no blocks.
    // dcm-lint: allow(R1) §4 BlockTable vs BlockList; prop_vllm::block_layouts_agree
    pub fn new(per_seq: &[Vec<usize>]) -> Result<Self> {
        if per_seq.is_empty() || per_seq.iter().any(Vec::is_empty) {
            return Err(DcmError::InvalidConfig(
                "block table needs at least one block per sequence".to_owned(),
            ));
        }
        let width = per_seq.iter().map(Vec::len).max().unwrap_or(0);
        let effectual = per_seq.iter().map(Vec::len).collect();
        let rows = per_seq
            .iter()
            .map(|blocks| {
                let mut row = blocks.clone();
                row.resize(width, 0); // zero-padding, as in the Gaudi fork
                row
            })
            .collect();
        Ok(BlockTable {
            rows,
            width,
            effectual,
        })
    }

    /// Sequences in the batch.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.rows.len()
    }

    /// Total block gathers the baseline kernel issues (padded entries
    /// included).
    #[must_use]
    pub fn total_gathers(&self) -> usize {
        self.batch() * self.width
    }

    /// Gathers that fetch real data.
    #[must_use]
    pub fn effectual_gathers(&self) -> usize {
        self.effectual.iter().sum()
    }

    /// Redundant gathers caused by zero-padding.
    #[must_use]
    // dcm-lint: allow(R1) §4 BlockTable vs BlockList; block::block_table_padding_accounting
    pub fn redundant_gathers(&self) -> usize {
        self.total_gathers() - self.effectual_gathers()
    }

    /// Padded block row of sequence `i`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[usize] {
        &self.rows[i]
    }

    /// Effectual block count of sequence `i`.
    #[must_use]
    pub fn effectual_of(&self, i: usize) -> usize {
        self.effectual[i]
    }
}

/// The 1-D effectual-only layout of `vLLM_opt` (Figure 16(b)): a flat
/// concatenation of block indices plus per-sequence offsets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockList {
    list: Vec<usize>,
    offsets: Vec<usize>,
}

impl BlockList {
    /// Build the list from per-sequence block lists.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] if `per_seq` is empty or any
    /// sequence has no blocks.
    // dcm-lint: allow(R1) §4 BlockTable vs BlockList; prop_vllm::block_layouts_agree
    pub fn new(per_seq: &[Vec<usize>]) -> Result<Self> {
        if per_seq.is_empty() || per_seq.iter().any(Vec::is_empty) {
            return Err(DcmError::InvalidConfig(
                "block list needs at least one block per sequence".to_owned(),
            ));
        }
        let mut list = Vec::new();
        let mut offsets = Vec::with_capacity(per_seq.len() + 1);
        offsets.push(0);
        for blocks in per_seq {
            list.extend_from_slice(blocks);
            offsets.push(list.len());
        }
        Ok(BlockList { list, offsets })
    }

    /// Total (all effectual) block gathers.
    #[must_use]
    // dcm-lint: allow(R1) §4 BlockTable vs BlockList; prop_vllm::block_layouts_agree
    pub fn total_gathers(&self) -> usize {
        self.list.len()
    }

    /// Block indices of sequence `i`.
    #[must_use]
    pub fn blocks_of(&self, i: usize) -> &[usize] {
        &self.list[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// A functional single-head KV cache stored as scattered blocks: block `b`
/// holds `block_tokens` rows of `head_dim` keys and values.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockStore {
    /// `keys[b]` is a `[block_tokens, head_dim]` tensor.
    pub keys: Vec<Tensor>,
    /// `values[b]`, same shape.
    pub values: Vec<Tensor>,
    /// Tokens per block.
    pub block_tokens: usize,
}

impl BlockStore {
    /// Random block store with `num_blocks` blocks.
    #[must_use]
    // dcm-lint: allow(R1) §4 BlockTable vs BlockList; prop_vllm::block_layouts_agree
    pub fn random<R: rand::Rng + ?Sized>(
        num_blocks: usize,
        block_tokens: usize,
        head_dim: usize,
        r: &mut R,
    ) -> Self {
        let mk = |r: &mut R| Tensor::random([block_tokens, head_dim], DType::Fp32, r);
        BlockStore {
            keys: (0..num_blocks).map(|_| mk(r)).collect(),
            values: (0..num_blocks).map(|_| mk(r)).collect(),
            block_tokens,
        }
    }

    fn assemble(&self, blocks: &[usize], tokens: usize) -> Result<(Tensor, Tensor)> {
        let head_dim = self.keys[0].shape().dim(1);
        let mut k = Tensor::zeros([tokens, head_dim], DType::Fp32);
        let mut v = Tensor::zeros([tokens, head_dim], DType::Fp32);
        for (bi, &b) in blocks.iter().enumerate() {
            let kb = self
                .keys
                .get(b)
                .ok_or_else(|| DcmError::IndexOutOfBounds(format!("block {b}")))?;
            let vb = &self.values[b];
            for t in 0..self.block_tokens {
                let row = bi * self.block_tokens + t;
                if row >= tokens {
                    break;
                }
                k.row_mut(row).copy_from_slice(kb.row(t));
                v.row_mut(row).copy_from_slice(vb.row(t));
            }
        }
        Ok((k, v))
    }

    /// Single-query attention over `tokens` cached tokens addressed by
    /// `blocks`: `softmax(q K^T / sqrt(d)) V`.
    ///
    /// # Errors
    /// Returns an error if a block index is invalid or shapes disagree.
    pub fn attend(&self, query: &Tensor, blocks: &[usize], tokens: usize) -> Result<Tensor> {
        if query.shape().rank() != 2 || query.shape().dim(0) != 1 {
            return Err(DcmError::ShapeMismatch(
                "query must be [1, head_dim]".to_owned(),
            ));
        }
        let (k, v) = self.assemble(blocks, tokens)?;
        let d = usize_to_f32(query.shape().dim(1));
        let scores = linalg::matmul(query, &linalg::transpose(&k))?;
        let scaled = linalg::scale(&scores, 1.0 / d.sqrt());
        let probs = linalg::softmax_rows(&scaled);
        linalg::matmul(&probs, &v)
    }

    /// Attention through the padded [`BlockTable`] for sequence `i`:
    /// gathers the padded row (redundant blocks included) but masks scores
    /// beyond the effectual length — functionally identical, wastefully
    /// gathered.
    ///
    /// # Errors
    /// Returns an error on invalid blocks or shapes.
    // dcm-lint: allow(R1) §4 BlockTable vs BlockList; prop_vllm::block_layouts_agree
    pub fn attend_block_table(
        &self,
        query: &Tensor,
        table: &BlockTable,
        i: usize,
        tokens: usize,
    ) -> Result<Tensor> {
        // Gather the padded row in full (the baseline's redundancy)...
        let padded_row = table.row(i);
        let (_k_padded, _v_padded) =
            self.assemble(padded_row, padded_row.len() * self.block_tokens)?;
        // ...then compute on the effectual prefix only.
        let effectual = &padded_row[..table.effectual_of(i)];
        self.attend(query, effectual, tokens)
    }

    /// Attention through the [`BlockList`] for sequence `i`.
    ///
    /// # Errors
    /// Returns an error on invalid blocks or shapes.
    // dcm-lint: allow(R1) §4 BlockTable vs BlockList; prop_vllm::block_layouts_agree
    pub fn attend_block_list(
        &self,
        query: &Tensor,
        list: &BlockList,
        i: usize,
        tokens: usize,
    ) -> Result<Tensor> {
        self.attend(query, list.blocks_of(i), tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_core::rng;

    fn per_seq() -> Vec<Vec<usize>> {
        vec![vec![3, 1, 4], vec![5], vec![2, 6]]
    }

    #[test]
    fn block_table_padding_accounting() {
        let t = BlockTable::new(&per_seq()).unwrap();
        assert_eq!(t.batch(), 3);
        assert_eq!(t.total_gathers(), 9);
        assert_eq!(t.effectual_gathers(), 6);
        assert_eq!(t.redundant_gathers(), 3);
        assert_eq!(t.row(1), &[5, 0, 0]);
        assert_eq!(t.effectual_of(1), 1);
    }

    #[test]
    fn block_list_has_no_padding() {
        let l = BlockList::new(&per_seq()).unwrap();
        assert_eq!(l.total_gathers(), 6);
        assert_eq!(l.blocks_of(0), &[3, 1, 4]);
        assert_eq!(l.blocks_of(1), &[5]);
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(BlockTable::new(&[]).is_err());
        assert!(BlockTable::new(&[vec![]]).is_err());
        assert!(BlockList::new(&[]).is_err());
    }

    #[test]
    fn uniform_lengths_have_zero_padding() {
        let t = BlockTable::new(&[vec![1, 2], vec![3, 4]]).unwrap();
        assert_eq!(t.redundant_gathers(), 0);
    }

    #[test]
    fn table_and_list_attention_agree_with_dense() {
        let mut r = rng::seeded(7);
        let store = BlockStore::random(8, 4, 16, &mut r);
        let seqs = vec![vec![3usize, 1, 4], vec![5], vec![2, 6]];
        let lens = [10usize, 4, 7]; // tokens per sequence (<= blocks*4)
        let table = BlockTable::new(&seqs).unwrap();
        let list = BlockList::new(&seqs).unwrap();
        for i in 0..3 {
            let q = Tensor::random([1, 16], DType::Fp32, &mut r);
            let dense = store.attend(&q, &seqs[i], lens[i]).unwrap();
            let via_table = store.attend_block_table(&q, &table, i, lens[i]).unwrap();
            let via_list = store.attend_block_list(&q, &list, i, lens[i]).unwrap();
            assert!(
                dense.max_abs_diff(&via_table).unwrap() < 1e-5,
                "seq {i} table"
            );
            assert!(
                dense.max_abs_diff(&via_list).unwrap() < 1e-5,
                "seq {i} list"
            );
        }
    }

    #[test]
    fn partial_last_block_is_truncated() {
        let mut r = rng::seeded(8);
        let store = BlockStore::random(4, 4, 8, &mut r);
        let q = Tensor::random([1, 8], DType::Fp32, &mut r);
        // 6 tokens over 2 blocks of 4: second block only half used.
        let out6 = store.attend(&q, &[0, 1], 6).unwrap();
        let out8 = store.attend(&q, &[0, 1], 8).unwrap();
        // Different effective lengths must give different results.
        assert!(out6.max_abs_diff(&out8).unwrap() > 1e-7);
    }

    #[test]
    fn bad_blocks_and_shapes_error() {
        let mut r = rng::seeded(9);
        let store = BlockStore::random(2, 4, 8, &mut r);
        let q = Tensor::random([1, 8], DType::Fp32, &mut r);
        assert!(store.attend(&q, &[7], 4).is_err());
        let bad_q = Tensor::random([2, 8], DType::Fp32, &mut r);
        assert!(store.attend(&bad_q, &[0], 4).is_err());
    }
}
