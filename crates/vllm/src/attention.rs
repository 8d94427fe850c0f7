//! Timing models of three PagedAttention implementations (Figure 17(a–c)).
//!
//! * [`PagedBackend::GaudiBase`] — the baseline Gaudi vLLM fork: the 2-D
//!   padded `BlockTable` drives *per-block* PyTorch-level gather ops (each
//!   its own kernel dispatch), the gathered KV is materialized
//!   contiguously in HBM, and FusedSDPA then runs per request on the
//!   padded length. Nothing overlaps — the data layout defeats the graph
//!   compiler's MME/TPC pipelining pass (§4.2).
//! * [`PagedBackend::GaudiOpt`] — the optimized version: one batched
//!   gather over the effectual `BlockList`, queries restructured so the
//!   score/value products run as one batched GEMM, and the graph compiler
//!   slices gather and GEMM into pipelined sub-operations.
//! * [`PagedBackend::A100Fused`] — vLLM's CUDA PagedAttention kernel:
//!   blocks are read *inside* the kernel (no staging copy), batched across
//!   requests.

use dcm_compiler::{Device, Op};
use dcm_core::cast::{f64_to_u64, f64_to_usize, u64_to_f64, usize_to_f64};
use dcm_core::cost::{Engine, OpCost};
use dcm_core::timeline::EvenPipeline;
use dcm_core::DType;
use dcm_mem::hbm::{AccessPattern, HbmModel};
use dcm_mme::GemmShape;
use dcm_workloads::llama::LlamaConfig;
use serde::{Deserialize, Serialize};

/// Default KV-cache block size in tokens (the Gaudi vLLM fork default).
pub const DEFAULT_BLOCK_TOKENS: usize = 128;

/// Per-op dispatch overhead of a PyTorch-level block copy in the baseline
/// implementation (host round trip per `index_select`-style op).
const PYTORCH_OP_OVERHEAD_S: f64 = 1.5e-6;

/// Sub-operation slices the graph compiler uses when the layout lets it
/// pipeline (§2.2).
const PIPELINE_SLICES: usize = 16;

/// Which PagedAttention implementation to price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PagedBackend {
    /// Baseline Gaudi fork: padded BlockTable, per-block ops, no overlap.
    GaudiBase,
    /// Optimized Gaudi: BlockList, batched GEMM, MME/TPC pipelining.
    GaudiOpt,
    /// CUDA fused kernel on A100.
    A100Fused,
    /// *Hypothetical* Gaudi kernel with direct MME access from TPC-C —
    /// the low-level interface the paper's Discussion asks Intel for. A
    /// FlashAttention-style fused kernel becomes expressible: blocks are
    /// read once from HBM straight into SRAM and consumed by the MME, with
    /// no contiguous staging copy. Used by the `ablate_fused_attention`
    /// binary to quantify how much of the remaining 2.2x kernel gap the
    /// missing interface costs.
    GaudiFusedHypothetical,
}

/// Incrementally maintained aggregates of a decode batch's sequence
/// lengths — the *complete* input of the PagedAttention cost model.
///
/// [`PagedAttention::decode_cost`] never looks at individual lengths:
/// it consumes only the batch size, the length sum (for the mean), the
/// effectual block count (Σ per-sequence blocks) and the widest
/// sequence's block count (for the padded table). This accumulator
/// maintains exactly those four aggregates under the three mutations a
/// serving engine performs — a sequence joins the batch ([`add`]), grows
/// by one token ([`grow`]), or leaves ([`remove`]) — in O(1) amortized
/// time per mutation (`max` via a block-count multiset, so removals of
/// the current maximum are O(log distinct-block-counts), with the number
/// of distinct counts bounded by max-seq-len / block-size).
///
/// A decode step over a batch of N sequences prices from these in O(1)
/// instead of O(N) (DESIGN.md §3.6).
/// [`PagedAttention::decode_cost_from_stats`] is bit-identical to
/// [`PagedAttention::decode_cost`] on the equivalent length slice
/// (property-pinned in `tests/tests/prop_batch_stats.rs`). The serving
/// engine keeps a [`BatchGrowth`] instead, which also projects the batch
/// forward.
///
/// [`add`]: BatchStats::add
/// [`grow`]: BatchStats::grow
/// [`remove`]: BatchStats::remove
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    block_tokens: usize,
    count: usize,
    sum_lens: usize,
    sum_blocks: usize,
    /// Multiset of per-sequence block counts as sorted `(count,
    /// sequences at it)` pairs; the last entry is the max-blocks
    /// aggregate. Distinct counts are bounded by max-seq-len /
    /// block-size, so the sorted-Vec inserts are short memmoves and the
    /// Vec's retained capacity makes steady-state mutation
    /// allocation-free (unlike the BTreeMap's per-node boxes).
    block_hist: Vec<(usize, usize)>,
}

impl BatchStats {
    /// An empty batch over KV blocks of `block_tokens` tokens.
    ///
    /// # Panics
    /// Panics if `block_tokens` is zero.
    #[must_use]
    pub fn new(block_tokens: usize) -> Self {
        assert!(block_tokens > 0, "block_tokens must be positive");
        BatchStats {
            block_tokens,
            count: 0,
            sum_lens: 0,
            sum_blocks: 0,
            block_hist: Vec::new(),
        }
    }

    /// Build the aggregates of `seq_lens` from scratch — the reference
    /// the incremental path is property-tested against.
    #[must_use]
    pub fn from_lens(seq_lens: &[usize], block_tokens: usize) -> Self {
        let mut s = BatchStats::new(block_tokens);
        for &l in seq_lens {
            s.add(l);
        }
        s
    }

    /// KV blocks held by a sequence of `len` cached tokens (a zero-length
    /// sequence still pins one block, matching the cost model).
    fn blocks_for(&self, len: usize) -> usize {
        len.max(1).div_ceil(self.block_tokens)
    }

    /// Add `n` sequences to the multiset slot for `b` blocks.
    fn hist_add(&mut self, b: usize, n: usize) {
        match self.block_hist.binary_search_by_key(&b, |&(k, _)| k) {
            Ok(i) => self.block_hist[i].1 += n,
            // dcm-lint: allow(A1) histogram keys are distinct block counts, bounded by max sequence length / block size
            Err(i) => self.block_hist.insert(i, (b, n)),
        }
    }

    /// Remove one sequence from the multiset slot for `b` blocks.
    ///
    /// # Panics
    /// Panics if no tracked sequence has that block count.
    fn hist_remove(&mut self, b: usize) {
        let Ok(i) = self.block_hist.binary_search_by_key(&b, |&(k, _)| k) else {
            panic!("BatchStats desync: no sequence at {b} blocks");
        };
        self.block_hist[i].1 -= 1;
        if self.block_hist[i].1 == 0 {
            self.block_hist.remove(i);
        }
    }

    /// A sequence of `len` cached tokens joins the batch.
    pub fn add(&mut self, len: usize) {
        let b = self.blocks_for(len);
        self.count += 1;
        self.sum_lens += len;
        self.sum_blocks += b;
        self.hist_add(b, 1);
    }

    /// A sequence of `len` cached tokens leaves the batch. `len` must be
    /// the length the batch currently accounts for it (i.e. as last
    /// passed to [`add`](Self::add) / advanced by [`grow`](Self::grow)).
    ///
    /// # Panics
    /// Panics if no tracked sequence has `len`'s block count — a
    /// desynchronized caller would silently corrupt every later cost.
    pub fn remove(&mut self, len: usize) {
        let b = self.blocks_for(len);
        self.hist_remove(b);
        self.count -= 1;
        self.sum_lens -= len;
        self.sum_blocks -= b;
    }

    /// A tracked sequence of `len` cached tokens grows to `len + 1`
    /// (one decoded token appended). Equivalent to
    /// `remove(len); add(len + 1)` but touches the multiset only when
    /// the token crosses a block boundary.
    ///
    /// # Panics
    /// Panics if no tracked sequence has `len`'s block count.
    pub fn grow(&mut self, len: usize) {
        self.grow_by(len, 1);
    }

    /// A tracked sequence of `len` cached tokens grows by `n` decoded
    /// tokens in one step — a decode stretch's bulk update.
    /// Equivalent to `n` successive [`grow`](Self::grow) calls (which is
    /// itself `remove(len); add(len + n)`), but touches the multiset at
    /// most once.
    ///
    /// # Panics
    /// Panics if no tracked sequence has `len`'s block count.
    pub fn grow_by(&mut self, len: usize, n: usize) {
        if n == 0 {
            return;
        }
        self.sum_lens += n;
        let old_b = self.blocks_for(len);
        let new_b = self.blocks_for(len + n);
        if new_b != old_b {
            self.hist_remove(old_b);
            self.hist_add(new_b, 1);
            self.sum_blocks += new_b - old_b;
        }
    }

    /// Forget every tracked sequence (the batch emptied at once, e.g. a
    /// replica crash draining its work). Keeps the block size.
    pub fn clear(&mut self) {
        self.count = 0;
        self.sum_lens = 0;
        self.sum_blocks = 0;
        self.block_hist.clear();
    }

    /// KV block size in tokens these aggregates were computed under.
    #[must_use]
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Sequences in the batch.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of cached-token lengths.
    #[must_use]
    pub fn sum_lens(&self) -> usize {
        self.sum_lens
    }

    /// Total effectual KV blocks (Σ per-sequence block counts).
    #[must_use]
    pub fn sum_blocks(&self) -> usize {
        self.sum_blocks
    }

    /// Block count of the widest sequence (0 for an empty batch).
    #[must_use]
    pub fn max_blocks(&self) -> usize {
        self.block_hist.last().map_or(0, |&(b, _)| b)
    }

    /// The four aggregates, as the value [`PagedAttention::decode_cost_of`]
    /// prices.
    #[must_use]
    pub fn shape(&self) -> BatchShape {
        BatchShape {
            count: self.count,
            sum_lens: self.sum_lens,
            sum_blocks: self.sum_blocks,
            max_blocks: self.max_blocks(),
        }
    }
}

/// The four aggregates [`PagedAttention`] prices a decode step from
/// (DESIGN.md §3.6), as a `Copy` value: the [`shape`](BatchStats::shape)
/// of a [`BatchStats`], of a length slice, or of a batch that does not
/// exist yet — a decode stretch's projected batch ([`BatchGrowth`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchShape {
    /// Sequences in the batch.
    pub count: usize,
    /// Sum of cached-token lengths.
    pub sum_lens: usize,
    /// Total effectual KV blocks (Σ per-sequence block counts).
    pub sum_blocks: usize,
    /// Block count of the widest sequence (0 for an empty batch).
    pub max_blocks: usize,
}

impl BatchShape {
    /// The shape of `seq_lens` under `block_tokens`-token blocks — what
    /// [`BatchStats::from_lens`] accumulates, in one pass and without its
    /// histogram.
    pub(crate) fn of_lens(seq_lens: impl IntoIterator<Item = usize>, block_tokens: usize) -> Self {
        let mut s = BatchShape::default();
        for len in seq_lens {
            let blocks = len.max(1).div_ceil(block_tokens);
            s.count += 1;
            s.sum_lens += len;
            s.sum_blocks += blocks;
            s.max_blocks = s.max_blocks.max(blocks);
        }
        s
    }
}

/// A decode batch's projection, kept up to date as the batch changes:
/// the [`BatchShape`] it has after every sequence grows by `n` tokens, in
/// one binary search per `n`. A closed-form stretch's searches probe
/// about ten stretch lengths, an exact stretch's [`StretchPricer`] prices
/// each of its steps from it, and `after(0)` is the batch's own shape.
///
/// A sequence of `t ≥ 1` tokens holds `⌈t/B⌉ = q + 1` blocks of `B`
/// tokens, where `t − 1 = q·B + r` and `0 ≤ r < B`. Grown by
/// `n = a·B + c` tokens (`0 ≤ c < B`) it holds `q + a + 1 + [r ≥ B − c]`
/// blocks. Over the batch that is `Σq + count·(a + 1) + #{r ≥ B − c}`:
/// one binary search over the sorted remainders. The widest sequence
/// stays the widest, so `max_blocks` is `⌈(max t + n)/B⌉`.
///
/// Growing every sequence by `k` tokens adds `k` to every `r` modulo `B`,
/// which rotates their sorted order. So the remainders are stored as
/// `(r − rot) mod B`, ascending, and [`grow_all`](Self::grow_all) moves
/// `rot` and adds the carries to `Σq` in O(log batch); the token counts
/// are stored as `t + lift`, ascending, and a grow-all lowers `lift`.
/// [`insert`](Self::insert) and [`remove`](Self::remove) move one
/// sequence each, in memmoves bounded by the batch cap.
#[derive(Debug, Clone)]
pub struct BatchGrowth {
    block_tokens: usize,
    /// Every sequence's `(r − rot) mod B`, ascending.
    rems: Vec<usize>,
    /// What grow-alls have added to every remainder, modulo `B`.
    rot: usize,
    /// Every sequence's `t + lift`, ascending.
    lifted: Vec<usize>,
    /// [`LIFT`] minus the tokens grow-alls have added since the batch
    /// was last empty.
    lift: usize,
    /// `Σq` over the batch.
    sum_q: usize,
    /// `Σt` over the batch.
    sum_lens: usize,
}

/// `lift` of an empty [`BatchGrowth`]: grow-alls can add `usize::MAX / 2`
/// tokens (2⁶³ on a 64-bit target) before the batch next empties.
const LIFT: usize = usize::MAX / 2;

impl BatchGrowth {
    /// An empty batch over KV blocks of `block_tokens` tokens, with room
    /// for `capacity` sequences before [`insert`](Self::insert)
    /// allocates.
    ///
    /// # Panics
    /// Panics if `block_tokens` is zero.
    #[must_use]
    pub fn with_capacity(block_tokens: usize, capacity: usize) -> Self {
        assert!(block_tokens > 0, "block_tokens must be positive");
        BatchGrowth {
            block_tokens,
            rems: Vec::with_capacity(capacity),
            rot: 0,
            lifted: Vec::with_capacity(capacity),
            lift: LIFT,
            sum_q: 0,
            sum_lens: 0,
        }
    }

    /// The stored remainder and `q` of a sequence of `t` tokens.
    fn split(&self, t: usize) -> (usize, usize) {
        let b = self.block_tokens;
        (((t - 1) % b + b - self.rot) % b, (t - 1) / b)
    }

    /// Stored remainders below `v`.
    fn below(&self, v: usize) -> usize {
        self.rems.partition_point(|&x| x < v)
    }

    /// A sequence of `t` cached tokens joins the batch.
    ///
    /// # Panics
    /// Panics if the sequence holds no token.
    pub fn insert(&mut self, t: usize) {
        assert!(t > 0, "a growing sequence holds at least one token");
        let (v, q) = self.split(t);
        let i = self.below(v);
        // dcm-lint: allow(A1) one remainder per active sequence, bounded by the decode batch cap the capacity was sized to
        self.rems.insert(i, v);
        let key = t + self.lift;
        let j = self.lifted.partition_point(|&x| x < key);
        // dcm-lint: allow(A1) one token count per active sequence, bounded by the decode batch cap the capacity was sized to
        self.lifted.insert(j, key);
        self.sum_q += q;
        self.sum_lens += t;
    }

    /// A sequence of `t` cached tokens leaves the batch: `t` is the
    /// length the batch accounts for it, as inserted and grown since.
    ///
    /// # Panics
    /// Panics if no sequence of `t` tokens is in the batch — a
    /// desynchronized caller would silently corrupt every later price.
    pub fn remove(&mut self, t: usize) {
        let (v, q) = self.split(t);
        let (Ok(i), Ok(j)) = (
            self.rems.binary_search(&v),
            self.lifted.binary_search(&(t + self.lift)),
        ) else {
            panic!("BatchGrowth desync: no sequence of {t} tokens");
        };
        self.rems.remove(i);
        self.lifted.remove(j);
        self.sum_q -= q;
        self.sum_lens -= t;
        if self.rems.is_empty() {
            self.clear();
        }
    }

    /// Every sequence grows by `k` tokens: a stretch's `k` decode steps.
    pub fn grow_all(&mut self, k: usize) {
        let (b, count) = (self.block_tokens, self.rems.len());
        if count == 0 {
            return;
        }
        self.sum_q += count * (k / b) + self.carries(k % b);
        self.sum_lens += count * k;
        self.lift -= k;
        self.rot = (self.rot + k % b) % b;
    }

    /// Forget every sequence (a replica crash drains the batch at once).
    /// Keeps the block size and the capacity.
    pub fn clear(&mut self) {
        self.rems.clear();
        self.lifted.clear();
        (self.rot, self.lift) = (0, LIFT);
        (self.sum_q, self.sum_lens) = (0, 0);
    }

    /// Sequences whose remainder is at least `B − c`, for `c < B`: those
    /// that `c` more tokens carry into a new block.
    fn carries(&self, c: usize) -> usize {
        if c == 0 {
            return 0;
        }
        let (b, rot) = (self.block_tokens, self.rot);
        // Stored remainders below `B − rot`, which `rot` has not wrapped.
        let unwrapped = self.below(b - rot);
        let floor = b - c;
        if floor >= rot {
            // Only unwrapped remainders, `r = v + rot`, reach `floor`.
            unwrapped - self.below(floor - rot)
        } else {
            // Every unwrapped one does, and wrapped ones from `v + rot − B`.
            unwrapped + self.rems.len() - self.below(floor + b - rot)
        }
    }

    /// KV blocks the batch holds once every sequence has grown by `n`.
    #[must_use]
    pub fn blocks_after(&self, n: usize) -> usize {
        let b = self.block_tokens;
        self.sum_q + self.rems.len() * (n / b + 1) + self.carries(n % b)
    }

    /// The least growth `m > n` at which some sequence needs a new block,
    /// where `(r + m) mod B = 0`: the block counts of `after(n)` hold up
    /// to `m − 1`. `(r + n) mod B` is `(v + s) mod B` for the rotation
    /// `s = (rot + n) mod B`, and its largest value `x` puts `m` at
    /// `n + B − x`.
    ///
    /// # Panics
    /// Panics if the batch is empty.
    fn next_crossing(&self, n: usize) -> usize {
        let b = self.block_tokens;
        let s = (self.rot + n % b) % b;
        let x = match self.below(b - s) {
            0 => self.rems[self.rems.len() - 1] + s - b,
            i => self.rems[i - 1] + s,
        };
        n + b - x
    }

    /// The shape after every sequence grows by `n` tokens: what
    /// [`BatchStats::grow_by`] on every member would leave.
    #[must_use]
    pub fn after(&self, n: usize) -> BatchShape {
        let count = self.rems.len();
        BatchShape {
            count,
            sum_lens: self.sum_lens + n * count,
            sum_blocks: self.blocks_after(n),
            max_blocks: self
                .lifted
                .last()
                .map_or(0, |&top| (top - self.lift + n).div_ceil(self.block_tokens)),
        }
    }
}

/// PagedAttention timing model bound to a device and model.
#[derive(Debug, Clone)]
pub struct PagedAttention {
    device: Device,
    hbm: HbmModel,
    backend: PagedBackend,
    layers: usize,
    q_heads: usize,
    kv_heads: usize,
    head_dim: usize,
    tp: usize,
    block_tokens: usize,
}

impl PagedAttention {
    /// Build the model for `device` running `cfg` under `tp`-way tensor
    /// parallelism. A `tp` that is zero or does not divide the query heads
    /// panics at the first price, which a serving run checks for first.
    #[must_use]
    pub fn new(device: &Device, backend: PagedBackend, cfg: &LlamaConfig, tp: usize) -> Self {
        PagedAttention {
            hbm: HbmModel::new(device.spec()),
            device: device.clone(),
            backend,
            layers: cfg.layers,
            q_heads: cfg.q_heads,
            kv_heads: cfg.kv_heads,
            head_dim: cfg.head_dim,
            tp,
            block_tokens: DEFAULT_BLOCK_TOKENS,
        }
    }

    /// Override the KV block size in tokens.
    #[must_use]
    pub fn with_block_tokens(mut self, tokens: usize) -> Self {
        assert!(tokens > 0);
        self.block_tokens = tokens;
        self
    }

    /// The backend being priced.
    #[must_use]
    pub fn backend(&self) -> PagedBackend {
        self.backend
    }

    /// KV bytes of one cache block (K and V separately) per layer on this
    /// device.
    #[must_use]
    pub fn block_bytes(&self) -> usize {
        let kv_heads_local = (self.kv_heads / self.tp).max(1);
        self.block_tokens * kv_heads_local * self.head_dim * DType::Bf16.size_bytes()
    }

    /// Cost of the attention portion of one decode step over sequences of
    /// `seq_lens` cached tokens, with an *additional* injected
    /// zero-padding fraction `extra_padding` in `[0, 1)` (the Figure 17(b)
    /// sweep; `0.0` leaves only the natural padding from length skew).
    ///
    /// The returned cost's `time()` is the wall time across all layers.
    ///
    /// # Panics
    /// Panics if `seq_lens` is empty or `extra_padding` is out of range.
    #[must_use]
    pub fn decode_cost(&self, seq_lens: &[usize], extra_padding: f64) -> OpCost {
        self.decode_cost_of(
            BatchShape::of_lens(seq_lens.iter().copied(), self.block_tokens),
            extra_padding,
        )
    }

    /// An empty [`BatchStats`] accumulator with this model's KV block
    /// size, ready to maintain incrementally.
    #[must_use]
    pub fn batch_stats(&self) -> BatchStats {
        BatchStats::new(self.block_tokens)
    }

    /// [`decode_cost`](Self::decode_cost) from incrementally maintained
    /// batch aggregates — O(1) in the batch size. Bit-identical to the
    /// slice path for equivalent inputs: the cost model consumes *only*
    /// the aggregates [`BatchStats`] carries.
    ///
    /// # Panics
    /// Panics if `stats` is empty, was built under a different KV block
    /// size, or `extra_padding` is out of range.
    #[must_use]
    pub fn decode_cost_from_stats(&self, stats: &BatchStats, extra_padding: f64) -> OpCost {
        self.decode_cost_of(self.shape_of(stats), extra_padding)
    }

    /// The cost model proper: the attention cost of one decode step over
    /// a batch of `shape`, whose blocks are this model's
    /// ([`batch_stats`](Self::batch_stats)`().block_tokens()` tokens).
    /// Allocation-free and memo-free: it prices the batched-GEMM pair
    /// itself, so it is the reference the memoized
    /// [`decode_time_of`](Self::decode_time_of) is checked against.
    ///
    /// # Panics
    /// Panics if the batch is empty or `extra_padding` is out of range.
    #[must_use]
    pub fn decode_cost_of(&self, shape: BatchShape, extra_padding: f64) -> OpCost {
        let g = self.geometry(shape, extra_padding);
        let (scores, values) = self.gemm_pair(self.gemm_key(&g));
        let gather = self.gather(&g);
        let wall = gather.stage.wall(g.batch, self.gemm_term(&scores, &values));
        let (flops, bus_bytes, useful_bytes) = self.gemm_work(g.batch, &scores, &values);
        let layer = OpCost {
            engine: Engine::Vector,
            compute_s: wall,
            memory_s: gather.mem_s.min(wall),
            flops,
            bus_bytes: gather.bus_bytes + bus_bytes,
            useful_bytes: gather.useful_bytes + useful_bytes,
        };
        scale_cost(layer, usize_to_f64(self.layers))
    }

    /// `decode_cost_of(shape, 0.0).time()`, bit for bit, with the GEMM
    /// term read from `terms`: a price is a table read, the backend's HBM
    /// accesses and its wall formula. Only a miss prices the batched-GEMM
    /// pair (on Gaudi, two MME geometry searches). `terms` must only ever
    /// serve models of this one (device, model, tp) family and backend:
    /// it is keyed by GEMM shape alone. Allocates only when a cell lands
    /// on a page not touched before.
    ///
    /// # Panics
    /// Panics if the batch is empty.
    #[must_use]
    pub fn decode_time_of(&self, shape: BatchShape, terms: &mut GemmTerms) -> f64 {
        let g = self.geometry(shape, 0.0);
        let term = terms.get_or_price(self.gemm_key(&g), |key| self.priced_term(key));
        self.time_of(&self.gather(&g), g.batch, term)
    }

    /// The prices of a decode stretch's steps over the batch `growth`
    /// projects: see [`StretchPricer`].
    ///
    /// # Panics
    /// Panics if the batch is empty.
    #[must_use]
    pub fn stretch_pricer(&self, growth: &BatchGrowth) -> StretchPricer {
        let g = self.geometry(growth.after(0), 0.0);
        StretchPricer {
            k: 0,
            crossing: growth.next_crossing(0),
            batch: g.batch,
            mean_len: g.mean_len,
            key: self.gemm_key(&g),
            gather: self.gather(&g),
        }
    }

    /// The shape of `stats`, which must use this model's block size.
    fn shape_of(&self, stats: &BatchStats) -> BatchShape {
        assert!(
            stats.block_tokens() == self.block_tokens,
            "BatchStats block size {} != model block size {}",
            stats.block_tokens(),
            self.block_tokens
        );
        stats.shape()
    }

    fn heads_local(&self) -> usize {
        self.q_heads / self.tp
    }

    fn kv_local(&self) -> usize {
        (self.kv_heads / self.tp).max(1)
    }

    /// Query heads sharing one K/V head (GQA group size).
    fn q_group(&self) -> usize {
        self.heads_local() / self.kv_local()
    }

    /// The block counts and lengths a decode step over `shape` is priced
    /// at, with `extra_padding` injected into the padded table. Every
    /// price passes through here, so the head split is checked here.
    fn geometry(&self, shape: BatchShape, extra_padding: f64) -> Geometry {
        assert!(
            self.tp >= 1 && self.q_heads.is_multiple_of(self.tp),
            "tp must divide q_heads"
        );
        assert!(shape.count > 0, "need at least one sequence");
        assert!((0.0..1.0).contains(&extra_padding), "padding out of range");
        let batch = shape.count;
        let effectual = shape.sum_blocks;
        let natural_padded = batch * shape.max_blocks;
        // `.floor()` makes the former truncating `as usize` casts explicit.
        let padded = f64_to_usize((usize_to_f64(effectual) / (1.0 - extra_padding)).floor())
            .max(natural_padded);
        let padded_len = f64_to_usize(
            (usize_to_f64(padded) / usize_to_f64(batch) * usize_to_f64(self.block_tokens)).floor(),
        );
        Geometry {
            batch,
            effectual,
            padded,
            mean_len: shape.sum_lens / batch,
            padded_len,
        }
    }

    /// The (GEMM batch, GEMM length) of the backend's batched-GEMM pair:
    /// the baseline runs SDPA per request over the padded length, the
    /// others batch every request at the mean length.
    fn gemm_key(&self, g: &Geometry) -> (usize, usize) {
        match self.backend {
            PagedBackend::GaudiBase => (self.kv_local(), g.padded_len.max(1)),
            PagedBackend::GaudiOpt
            | PagedBackend::A100Fused
            | PagedBackend::GaudiFusedHypothetical => {
                (g.batch * self.kv_local(), g.mean_len.max(1))
            }
        }
    }

    /// The score and value products of one layer at `(batch, len)`: one
    /// pair of GEMMs per KV-head group.
    fn gemm_pair(&self, (batch, len): (usize, usize)) -> (OpCost, OpCost) {
        let (scores, _) = self.device.op_cost(&Op::batched_gemm(
            batch,
            GemmShape::new(self.q_group(), self.head_dim, len),
            DType::Bf16,
        ));
        let (values, _) = self.device.op_cost(&Op::batched_gemm(
            batch,
            GemmShape::new(self.q_group(), len, self.head_dim),
            DType::Bf16,
        ));
        (scores, values)
    }

    /// The one number the wall formula takes from the GEMM pair: its
    /// time on the staged Gaudi backends, its arithmetic time in the
    /// fused kernels, whose block reads are priced separately.
    fn gemm_term(&self, scores: &OpCost, values: &OpCost) -> f64 {
        match self.backend {
            PagedBackend::GaudiBase | PagedBackend::GaudiOpt => scores.time() + values.time(),
            PagedBackend::A100Fused | PagedBackend::GaudiFusedHypothetical => {
                scores.compute_s + values.compute_s
            }
        }
    }

    /// The flops and (bus, useful) bytes the GEMM pair adds to one layer:
    /// the baseline runs it once per request, and the fused kernels count
    /// only their in-kernel block reads.
    fn gemm_work(&self, batch: usize, scores: &OpCost, values: &OpCost) -> (f64, u64, u64) {
        let flops = scores.flops + values.flops;
        match self.backend {
            PagedBackend::GaudiBase => {
                let bytes = (scores.useful_bytes + values.useful_bytes)
                    * u64::try_from(batch).unwrap_or(u64::MAX);
                (flops * usize_to_f64(batch), bytes, bytes)
            }
            PagedBackend::GaudiOpt => (
                flops,
                scores.bus_bytes + values.bus_bytes,
                scores.useful_bytes + values.useful_bytes,
            ),
            PagedBackend::A100Fused | PagedBackend::GaudiFusedHypothetical => (flops, 0, 0),
        }
    }

    /// The GEMM term at `key`, priced from the batched-GEMM pair: what a
    /// [`GemmTerms`] miss stores.
    fn priced_term(&self, key: (usize, usize)) -> f64 {
        let (scores, values) = self.gemm_pair(key);
        self.gemm_term(&scores, &values)
    }

    /// One layer's KV gather at geometry `g`: the backend's HBM accesses,
    /// the stage they form, and their time and bytes. The GEMM pair's own
    /// flops and bytes are [`gemm_work`](Self::gemm_work)'s.
    fn gather(&self, g: &Geometry) -> Gather {
        let bb = self.block_bytes();
        match self.backend {
            PagedBackend::GaudiBase | PagedBackend::GaudiOpt => {
                let base = self.backend == PagedBackend::GaudiBase;
                // The baseline copies the padded table block by block, the
                // optimized one gathers the effectual blocks at once; K and
                // V each.
                let gathers = 2 * if base { g.padded } else { g.effectual };
                let reads = self.hbm.access(gathers, bb, AccessPattern::Random);
                let writes = self.hbm.access(gathers, bb, AccessPattern::Stream);
                let stage = if base {
                    Stage::Serial(
                        usize_to_f64(gathers) * PYTORCH_OP_OVERHEAD_S
                            + reads.time_s
                            + writes.time_s,
                    )
                } else {
                    Stage::Pipelined(EvenPipeline::new(
                        PYTORCH_OP_OVERHEAD_S + reads.time_s + writes.time_s,
                        PIPELINE_SLICES,
                    ))
                };
                Gather {
                    stage,
                    mem_s: reads.time_s + writes.time_s,
                    bus_bytes: reads.bus_bytes + writes.bus_bytes,
                    useful_bytes: reads.useful_bytes + writes.useful_bytes,
                }
            }
            PagedBackend::A100Fused | PagedBackend::GaudiFusedHypothetical => {
                let reads = self.hbm.access(g.effectual * 2, bb, AccessPattern::Random);
                Gather {
                    stage: Stage::Overlapped(reads.time_s),
                    mem_s: reads.time_s,
                    bus_bytes: reads.bus_bytes,
                    useful_bytes: reads.useful_bytes,
                }
            }
        }
    }

    /// A decode step's time from its gather, batch and GEMM term: the
    /// float operations of `scale_cost(layer, layers).time()` on the layer
    /// [`decode_cost_of`](Self::decode_cost_of) builds, without its bytes.
    fn time_of(&self, gather: &Gather, batch: usize, gemm: f64) -> f64 {
        let wall = gather.stage.wall(batch, gemm);
        let layers = usize_to_f64(self.layers);
        (wall * layers).max(gather.mem_s.min(wall) * layers)
    }
}

/// The block counts and lengths of one decode step: what
/// [`PagedAttention`] prices besides its batched-GEMM pair.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    batch: usize,
    /// Σ per-sequence KV blocks.
    effectual: usize,
    /// Blocks of the padded table: `batch ×` the widest sequence's, or
    /// more under injected padding.
    padded: usize,
    /// Mean cached length, rounded down.
    mean_len: usize,
    /// Per-request length of the padded table, in tokens.
    padded_len: usize,
}

/// One layer's KV gather at one block geometry (see
/// [`PagedAttention::gather`]).
#[derive(Debug, Clone, Copy)]
struct Gather {
    stage: Stage,
    /// HBM time of the gather's accesses: the layer's memory-time bound.
    mem_s: f64,
    bus_bytes: u64,
    useful_bytes: u64,
}

/// How a backend's gather meets its GEMM pair: each backend's one wall
/// formula.
#[derive(Debug, Clone, Copy)]
enum Stage {
    /// GaudiBase: the per-block copies (dispatch plus HBM time), then
    /// FusedSDPA launched per request on the padded length, in series.
    Serial(f64),
    /// GaudiOpt: the batched gather, pipelined with the batched GEMM pair
    /// over [`PIPELINE_SLICES`] sub-operations.
    Pipelined(EvenPipeline),
    /// Fused kernels: the in-kernel block reads' time, overlapped with
    /// the pair's arithmetic, plus one dispatch.
    Overlapped(f64),
}

impl Stage {
    /// One layer's wall time with GEMM term `gemm` over `batch` requests.
    fn wall(&self, batch: usize, gemm: f64) -> f64 {
        match self {
            Stage::Serial(copies) => copies + gemm * usize_to_f64(batch),
            Stage::Pipelined(gather) => gather.makespan(gemm),
            Stage::Overlapped(reads) => gemm.max(*reads) + PYTORCH_OP_OVERHEAD_S,
        }
    }
}

/// The attention prices of a decode stretch's steps, in order: the
/// `k`-th [`step`](Self::step) returns the bits of
/// [`PagedAttention::decode_time_of`]`(growth.after(k), terms)` on every
/// backend, recomputing only what moved (DESIGN.md §3.8).
///
/// It borrows nothing: each step is handed the attention model and the
/// projection the pricer was made from, so a stretch that a horizon cuts
/// short keeps its pricer and resumes where it stopped.
///
/// Over a stretch the batch and the GEMM batch are fixed, and the mean
/// length rises by exactly one per step (`⌊(S + k·c)/c⌋ = ⌊S/c⌋ + k`), so
/// the GEMM term is the next cell of one [`GemmTerms`] row. The block
/// counts, and with them the geometry, the baseline's GEMM key and the
/// backend's HBM gather, change only at a step where some sequence needs
/// a new block; the pricer reprices them there. On GaudiOpt the gather's
/// producer prefix is kept, so a gather-bound step's makespan is one add
/// ([`EvenPipeline`]).
#[derive(Debug)]
pub struct StretchPricer {
    /// The step the next [`step`](Self::step) prices.
    k: usize,
    /// The first step whose block counts differ from `gather`'s.
    crossing: usize,
    batch: usize,
    /// Mean cached length at step 0, rounded down.
    mean_len: usize,
    /// The GEMM key: the baseline's until `crossing`, the GEMM batch of
    /// the others.
    key: (usize, usize),
    gather: Gather,
}

impl StretchPricer {
    /// The attention time of the next step: the `k`-th call returns
    /// `pa.decode_time_of(growth.after(k), terms)`, reading `terms` as
    /// that call would (same family and backend, same cells in the same
    /// order). `pa` and `growth` must be the model and the projection the
    /// pricer was made from, `growth` unchanged since.
    pub fn step(
        &mut self,
        pa: &PagedAttention,
        growth: &BatchGrowth,
        terms: &mut GemmTerms,
    ) -> f64 {
        debug_assert_eq!(growth.after(0).count, self.batch, "projection changed");
        if self.k == self.crossing {
            let g = pa.geometry(growth.after(self.k), 0.0);
            self.key = pa.gemm_key(&g);
            self.gather = pa.gather(&g);
            self.crossing = growth.next_crossing(self.k);
        }
        let key = match pa.backend {
            PagedBackend::GaudiBase => self.key,
            _ => (self.key.0, (self.mean_len + self.k).max(1)),
        };
        let term = terms.get_or_price(key, |key| pa.priced_term(key));
        self.k += 1;
        pa.time_of(&self.gather, self.batch, term)
    }

    /// Steps priced so far.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.k
    }
}

/// Cells per [`GemmTerms`] page: 1 KiB of `f64`.
const PAGE_CELLS: usize = 128;

/// Page slots a [`GemmTerms`] row's directory grows by: lengths below
/// 8,192 need one directory allocation. Growing it slot by slot scattered
/// small reallocations among the pages and raised the peak RSS of a
/// 10⁵-request cluster run by about 0.5 MiB.
const DIRECTORY_STEP: usize = 64;

/// A memo of the GEMM terms [`PagedAttention::decode_time_of`] prices
/// from, for one (device, model, tp) family under one backend, keyed by
/// the (GEMM batch, GEMM length) the backend passes to
/// `Op::batched_gemm`. A value is a pure function of its key, so a
/// read returns the bits pricing the pair would.
///
/// Rows by GEMM batch, indexed by GEMM length, in fixed-size pages of
/// `PAGE_CELLS` cells allocated on first touch: growth never copies a
/// cell, and memory is bounded by the pages touched (a few hundred KiB
/// for a 10⁵-request cluster run). Nothing is evicted and there is no
/// size knob: a table lives as long as its owner.
#[derive(Debug, Default)]
pub struct GemmTerms {
    /// `rows[batch][len / PAGE_CELLS][len % PAGE_CELLS]`; an unpriced
    /// cell holds NaN.
    rows: Vec<Vec<Option<Box<[f64; PAGE_CELLS]>>>>,
    misses: u64,
}

impl GemmTerms {
    /// Cells priced so far (a full scan; not for the hot path).
    #[must_use]
    pub fn cells(&self) -> usize {
        self.rows
            .iter()
            .flatten()
            .flatten()
            .map(|page| page.iter().filter(|t| !t.is_nan()).count())
            .sum()
    }

    /// Reads that found their cell unpriced and priced it.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The term at `key`, from `price(key)` on the first read.
    fn get_or_price(
        &mut self,
        key: (usize, usize),
        price: impl FnOnce((usize, usize)) -> f64,
    ) -> f64 {
        let (batch, len) = key;
        if batch >= self.rows.len() {
            self.rows.resize_with(batch + 1, Vec::new);
        }
        let row = &mut self.rows[batch];
        let (page, cell) = (len / PAGE_CELLS, len % PAGE_CELLS);
        if page >= row.len() {
            row.resize_with((page + 1).next_multiple_of(DIRECTORY_STEP), || None);
        }
        // dcm-lint: allow(A1) one 1 KiB page per PAGE_CELLS lengths of a GEMM batch, on first touch only: bounded by the shapes a run prices
        let page = row[page].get_or_insert_with(|| Box::new([f64::NAN; PAGE_CELLS]));
        if page[cell].is_nan() {
            self.misses += 1;
            page[cell] = price(key);
        }
        page[cell]
    }
}

fn scale_cost(mut c: OpCost, f: f64) -> OpCost {
    c.compute_s *= f;
    c.memory_s *= f;
    c.flops *= f;
    // `.floor()` makes the truncating `as u64` casts explicit.
    c.bus_bytes = f64_to_u64((u64_to_f64(c.bus_bytes) * f).floor());
    c.useful_bytes = f64_to_u64((u64_to_f64(c.useful_bytes) * f).floor());
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(backend: PagedBackend) -> PagedAttention {
        let device = match backend {
            PagedBackend::A100Fused => Device::a100(),
            _ => Device::gaudi2(),
        };
        PagedAttention::new(&device, backend, &LlamaConfig::llama31_8b(), 1)
    }

    #[test]
    fn fig17a_opt_speedup_over_base() {
        // ~7.4x average at 0% injected padding (4K context, batch 32 is
        // the headline cell).
        let base = setup(PagedBackend::GaudiBase);
        let opt = setup(PagedBackend::GaudiOpt);
        let lens = vec![4096usize; 32];
        let s = base.decode_cost(&lens, 0.0).time() / opt.decode_cost(&lens, 0.0).time();
        assert!(s > 4.0 && s < 14.0, "speedup {s}");
    }

    #[test]
    fn fig17b_padding_amplifies_the_gap() {
        // Up to ~55.7x at 90% padded indices, average ~21x over 10–90%.
        let base = setup(PagedBackend::GaudiBase);
        let opt = setup(PagedBackend::GaudiOpt);
        let lens = vec![4096usize; 32];
        let opt_t = opt.decode_cost(&lens, 0.0).time();
        let s90 = base.decode_cost(&lens, 0.9).time() / opt_t;
        let s10 = base.decode_cost(&lens, 0.1).time() / opt_t;
        assert!(s90 > s10 * 3.0, "padding should amplify: {s10} -> {s90}");
        assert!(s90 > 25.0 && s90 < 110.0, "s90 {s90}");
        let mean: f64 = (1..=9)
            .map(|i| base.decode_cost(&lens, i as f64 / 10.0).time() / opt_t)
            .sum::<f64>()
            / 9.0;
        assert!(mean > 10.0 && mean < 40.0, "mean {mean}");
    }

    #[test]
    fn fig17c_opt_reaches_about_half_of_a100() {
        // The optimized Gaudi PagedAttention achieves ~45% of the A100
        // fused kernel (§4.2 reports a remaining 2.2x gap).
        let opt = setup(PagedBackend::GaudiOpt);
        let a100 = setup(PagedBackend::A100Fused);
        let lens = vec![4096usize; 32];
        let ratio = a100.decode_cost(&lens, 0.0).time() / opt.decode_cost(&lens, 0.0).time();
        assert!(ratio > 0.3 && ratio < 0.75, "gaudi/a100 ratio {ratio}");
    }

    #[test]
    fn natural_padding_from_skewed_lengths() {
        let base = setup(PagedBackend::GaudiBase);
        let uniform = vec![2048usize; 16];
        let mut skewed = vec![256usize; 15];
        skewed.push(2048);
        // Same max length, so the baseline gathers the same padded table,
        // but the skewed batch has far fewer effectual blocks.
        let opt = setup(PagedBackend::GaudiOpt);
        let base_ratio =
            base.decode_cost(&skewed, 0.0).time() / base.decode_cost(&uniform, 0.0).time();
        let opt_ratio =
            opt.decode_cost(&skewed, 0.0).time() / opt.decode_cost(&uniform, 0.0).time();
        assert!(
            base_ratio > 0.9,
            "baseline insensitive to skew: {base_ratio}"
        );
        assert!(opt_ratio < 0.5, "opt benefits from skew: {opt_ratio}");
    }

    #[test]
    fn cost_scales_with_context_and_batch() {
        let opt = setup(PagedBackend::GaudiOpt);
        let short = opt.decode_cost(&[512; 16], 0.0).time();
        let long = opt.decode_cost(&[4096; 16], 0.0).time();
        assert!(long > 3.0 * short);
        let small = opt.decode_cost(&[2048; 8], 0.0).time();
        let big = opt.decode_cost(&vec![2048; 64], 0.0).time();
        assert!(big > 3.0 * small);
    }

    #[test]
    fn tp_shards_the_kv_blocks() {
        let d = Device::gaudi2();
        let cfg = LlamaConfig::llama31_70b();
        let t1 = PagedAttention::new(&d, PagedBackend::GaudiOpt, &cfg, 1);
        let t8 = PagedAttention::new(&d, PagedBackend::GaudiOpt, &cfg, 8);
        assert_eq!(t8.block_bytes(), t1.block_bytes() / 8);
        let lens = vec![2048usize; 16];
        assert!(t8.decode_cost(&lens, 0.0).time() < t1.decode_cost(&lens, 0.0).time());
    }

    #[test]
    fn hypothetical_fused_kernel_closes_most_of_the_gap() {
        // The Discussion's what-if: direct MME access from TPC-C would let
        // a FlashAttention-style kernel skip the HBM staging copy. It must
        // land between today's opt kernel and the A100 (which still has a
        // small bandwidth edge at attention's access pattern).
        let d = Device::gaudi2();
        let cfg = LlamaConfig::llama31_8b();
        let opt = PagedAttention::new(&d, PagedBackend::GaudiOpt, &cfg, 1);
        let fused = PagedAttention::new(&d, PagedBackend::GaudiFusedHypothetical, &cfg, 1);
        let a100 = setup(PagedBackend::A100Fused);
        let lens = vec![4096usize; 32];
        let t_opt = opt.decode_cost(&lens, 0.0).time();
        let t_fused = fused.decode_cost(&lens, 0.0).time();
        let t_a100 = a100.decode_cost(&lens, 0.0).time();
        assert!(t_fused < t_opt, "fused {t_fused} vs opt {t_opt}");
        // With the staging copy gone, Gaudi's higher bandwidth competes.
        assert!(t_fused < t_a100 * 1.2, "fused {t_fused} vs a100 {t_a100}");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_batch_rejected() {
        let opt = setup(PagedBackend::GaudiOpt);
        let _ = opt.decode_cost(&[], 0.0);
    }

    #[test]
    #[should_panic(expected = "padding")]
    fn bad_padding_rejected() {
        let opt = setup(PagedBackend::GaudiOpt);
        let _ = opt.decode_cost(&[128], 1.0);
    }

    #[test]
    fn batch_stats_track_slice_aggregates() {
        let lens = [0usize, 1, 127, 128, 129, 4096, 700];
        let s = BatchStats::from_lens(&lens, 128);
        assert_eq!(s.count(), lens.len());
        assert_eq!(s.sum_lens(), lens.iter().sum::<usize>());
        assert_eq!(
            s.sum_blocks(),
            lens.iter().map(|&l| l.max(1).div_ceil(128)).sum::<usize>()
        );
        assert_eq!(s.max_blocks(), 32); // 4096 / 128
    }

    #[test]
    fn batch_stats_grow_matches_remove_then_add() {
        let mut grown = BatchStats::from_lens(&[127, 128, 300], 128);
        let mut replaced = grown.clone();
        grown.grow(127); // crosses the 1-block boundary
        grown.grow(300); // stays inside block 3
        replaced.remove(127);
        replaced.add(128);
        replaced.remove(300);
        replaced.add(301);
        assert_eq!(grown, replaced);
    }

    #[test]
    fn batch_stats_grow_by_matches_repeated_grow() {
        let mut bulk = BatchStats::from_lens(&[100, 250, 4000], 128);
        let mut steps = bulk.clone();
        bulk.grow_by(100, 300); // crosses several block boundaries
        bulk.grow_by(250, 5); // stays inside its block
        bulk.grow_by(4000, 0); // no-op
        for i in 0..300 {
            steps.grow(100 + i);
        }
        for i in 0..5 {
            steps.grow(250 + i);
        }
        assert_eq!(bulk, steps);
    }

    #[test]
    fn batch_stats_remove_restores_the_smaller_batch() {
        let mut s = BatchStats::from_lens(&[64, 4096, 64], 128);
        s.remove(4096);
        assert_eq!(s, BatchStats::from_lens(&[64, 64], 128));
        assert_eq!(s.max_blocks(), 1);
    }

    #[test]
    fn decode_cost_from_stats_is_bit_identical_to_slice_path() {
        let lens = vec![17usize, 900, 2048, 2048, 4095, 1, 333];
        for backend in [
            PagedBackend::GaudiBase,
            PagedBackend::GaudiOpt,
            PagedBackend::A100Fused,
        ] {
            let pa = setup(backend);
            let stats = BatchStats::from_lens(&lens, 128);
            for padding in [0.0, 0.1, 0.9] {
                let a = pa.decode_cost(&lens, padding);
                let b = pa.decode_cost_from_stats(&stats, padding);
                assert_eq!(
                    a.time().to_bits(),
                    b.time().to_bits(),
                    "{backend:?} {padding}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_stats_rejected() {
        let opt = setup(PagedBackend::GaudiOpt);
        let _ = opt.decode_cost_from_stats(&opt.batch_stats(), 0.0);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn mismatched_block_size_rejected() {
        let opt = setup(PagedBackend::GaudiOpt);
        let _ = opt.decode_cost_from_stats(&BatchStats::from_lens(&[64], 16), 0.0);
    }

    #[test]
    #[should_panic(expected = "desync")]
    fn desynchronized_remove_panics() {
        let mut s = BatchStats::from_lens(&[64], 128);
        s.remove(4096);
    }
}
