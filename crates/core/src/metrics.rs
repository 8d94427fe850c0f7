//! Statistics and plain-text rendering shared by the figure-regeneration
//! binaries.
//!
//! The paper presents its results as heatmaps (Figures 5, 7, 11–13, 17a/c),
//! line series (Figures 4, 8–10, 15, 17d/e) and tables. [`Heatmap`] and
//! [`Table`] render the same data as aligned ASCII so `cargo run -p
//! dcm-bench --bin figXX_*` reproduces each artifact on stdout.

use crate::cast::usize_to_f64;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Arithmetic mean. Returns 0 for an empty slice.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / usize_to_f64(xs.len())
    }
}

/// Geometric mean. Returns 0 for an empty slice.
///
/// # Panics
/// Panics if any value is non-positive.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive values, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / usize_to_f64(xs.len())).exp()
}

/// Maximum value. Returns 0 only for an empty slice; negative data is
/// returned as-is (log-ratio heatmap grids legitimately go below zero).
#[must_use]
pub fn max(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Minimum value. Returns 0 only for an empty slice; negative data is
/// returned as-is.
#[must_use]
pub fn min(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Percentile (`p` in `0..=100`) as the sample whose sorted index is the
/// *rounded* linear rank `p/100 * (n-1)` — numpy's `interpolation="nearest"`.
/// Every result is an actual sample (no interpolation): `p = 0` is the
/// minimum, `p = 100` the maximum, and with two samples the split falls at
/// `p = 50` (which rounds up to the larger sample). Returns 0 for an empty
/// slice.
///
/// The rank is selected in a copy, in O(n), not sorted for: samples
/// equal under [`f64::total_cmp`] have the same bits, so the selected
/// sample is the sorted one, bit for bit.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    debug_assert!(xs.iter().all(|x| !x.is_nan()), "NaN in percentile input");
    let rank = crate::cast::f64_to_usize(
        ((p / 100.0) * (crate::cast::usize_to_f64(xs.len()) - 1.0)).round(),
    );
    let mut v = xs.to_vec();
    let (_, sample, _) = v.select_nth_unstable_by(rank.min(xs.len() - 1), f64::total_cmp);
    *sample
}

/// Sub-octave resolution of [`LogHistogram`]: each power-of-two octave is
/// split linearly into `2^HISTOGRAM_SUBBIN_BITS` bins.
pub const HISTOGRAM_SUBBIN_BITS: u32 = 6;

/// Right-shift that maps an f64 bit pattern to its histogram bin: keeps
/// the 11 exponent bits plus the top [`HISTOGRAM_SUBBIN_BITS`] mantissa
/// bits.
const SUBBIN_SHIFT: u32 = 52 - HISTOGRAM_SUBBIN_BITS;

/// Guaranteed relative-error bound of [`LogHistogram`] quantiles versus
/// the exact order statistic, for positive normal samples.
///
/// Proof sketch: within octave `e` every bin spans `w = 2^e / 2^k`
/// (`k` = [`HISTOGRAM_SUBBIN_BITS`]) and its low edge is `m >= 2^e`. The
/// reported representative is the bin midpoint, so for any sample `v` in
/// the bin `|v - rep| <= w/2`, hence `|v - rep| / v <= (w/2) / m <=
/// 2^-(k+1)`. The rank-`r` order statistic lies in the bin the quantile
/// walk stops at, so the bound applies to every reported quantile.
pub const HISTOGRAM_MAX_RELATIVE_ERROR: f64 = 1.0 / 128.0;

/// How a [`LatencyRecorder`] stores its distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricsMode {
    /// Store every sample verbatim; quantiles are exact order statistics.
    /// The default — all golden-pinned reports use this mode.
    #[default]
    Exact,
    /// Fixed-bin log histogram: O(1) memory per distinct scale, quantiles
    /// within [`HISTOGRAM_MAX_RELATIVE_ERROR`] of the exact order
    /// statistic, bit-deterministic bin assignment. For million-request
    /// runs where storing every sample defeats the SoA refit.
    Histogram,
}

/// A deterministic fixed-bin logarithmic histogram of non-negative
/// samples.
///
/// The bin of a sample is derived from its IEEE-754 *bit pattern* — the
/// exponent plus the top [`HISTOGRAM_SUBBIN_BITS`] mantissa bits — never
/// from `ln()`/`log2()` (whose libm implementations vary per platform), so
/// bin assignment is bit-identical everywhere. Because the bit pattern of
/// positive floats is monotone in value, bin indices are monotone too and
/// quantile walks visit bins in value order.
///
/// Count, sum (hence mean), min and max are tracked exactly; only the
/// interior shape is quantized. Zero samples get a dedicated exact bin.
/// Quantiles report the midpoint of the bin holding the rounded-rank
/// order statistic (see [`percentile`]), clamped into the exact
/// `[min, max]` — which makes singleton and two-extreme cases exact and
/// bounds everything else by [`HISTOGRAM_MAX_RELATIVE_ERROR`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Sparse `(bin index, count)` pairs, sorted by index. Latency
    /// distributions touch a few dozen distinct bins, so inserts are a
    /// short memmove and steady-state recording allocates nothing.
    bins: Vec<(u32, u64)>,
    zeros: u64,
    count: usize,
    sum: f64,
    min: f64,
    max: f64,
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bin index of a positive sample: exponent and top mantissa bits of
    /// the IEEE-754 pattern. Pure bit arithmetic — no libm — and monotone
    /// in the sample value.
    #[must_use]
    pub fn bin_index(sample: f64) -> u32 {
        // dcm-lint: allow(C1) 64-bit pattern >> 46 leaves 18 bits — fits u32
        (sample.to_bits() >> SUBBIN_SHIFT) as u32
    }

    /// Half-open value range `[lo, hi)` covered by bin `idx`.
    #[must_use]
    pub fn bin_bounds(idx: u32) -> (f64, f64) {
        let lo = f64::from_bits(u64::from(idx) << SUBBIN_SHIFT);
        let hi = f64::from_bits((u64::from(idx) + 1) << SUBBIN_SHIFT);
        (lo, hi)
    }

    /// The value a bin reports for the samples it holds: its midpoint.
    fn bin_rep(idx: u32) -> f64 {
        let (lo, hi) = Self::bin_bounds(idx);
        0.5 * (lo + hi)
    }

    /// Record one sample.
    ///
    /// # Panics
    /// Panics on NaN, negative or infinite samples — latencies are finite
    /// and non-negative by construction, and the bin map needs that.
    pub fn record(&mut self, sample: f64) {
        assert!(!sample.is_nan(), "cannot record NaN");
        assert!(
            sample >= 0.0 && sample.is_finite(),
            "log-histogram samples must be finite and non-negative, got {sample}"
        );
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        self.count += 1;
        self.sum += sample;
        if sample > 0.0 {
            let idx = Self::bin_index(sample);
            match self.bins.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(i) => self.bins[i].1 += 1,
                // dcm-lint: allow(A1) bin count is bounded by the log-bucket range, ~128 worst case
                Err(i) => self.bins.insert(i, (idx, 1)),
            }
        } else {
            self.zeros += 1;
        }
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Exact arithmetic mean (sum and count are tracked exactly); 0 when
    /// empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / crate::cast::usize_to_f64(self.count)
        }
    }

    /// Exact largest sample; 0 when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Exact smallest sample; 0 when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Quantile with `p` in `0..=100`; 0 when empty. Uses the same
    /// rounded-linear-rank definition as [`percentile`], then reports the
    /// clamped midpoint of the bin holding that order statistic — within
    /// [`HISTOGRAM_MAX_RELATIVE_ERROR`] of the exact answer.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = crate::cast::f64_to_usize(
            ((p / 100.0) * (crate::cast::usize_to_f64(self.count) - 1.0)).round(),
        )
        .min(self.count - 1);
        // dcm-lint: allow(C1) usize → u64 is lossless on every supported target
        let rank = rank as u64;
        if rank < self.zeros {
            return 0.0;
        }
        let mut seen = self.zeros;
        for &(idx, c) in &self.bins {
            if rank < seen + c {
                return Self::bin_rep(idx).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Absorb all of `other`'s bins and exact scalars.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.zeros += other.zeros;
        for &(idx, c) in &other.bins {
            match self.bins.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(i) => self.bins[i].1 += c,
                // dcm-lint: allow(A1) merge inserts at most the bounded log-bucket range, ~128 worst case
                Err(i) => self.bins.insert(i, (idx, c)),
            }
        }
    }

    /// `(representative value, count)` pairs in ascending value order,
    /// zeros first — the quantized view of the distribution.
    #[must_use]
    pub fn nonempty_bins(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.bins.len() + 1);
        if self.zeros > 0 {
            out.push((0.0, self.zeros));
        }
        for &(idx, c) in &self.bins {
            out.push((Self::bin_rep(idx).clamp(self.min, self.max), c));
        }
        out
    }
}

/// Internal storage of a [`LatencyRecorder`], selected by [`MetricsMode`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Samples {
    Exact(Vec<f64>),
    Histogram(LogHistogram),
}

impl Default for Samples {
    fn default() -> Self {
        Samples::Exact(Vec::new())
    }
}

/// A streaming recorder of latency (or any scalar) samples — the backing
/// store for the serving layer's p50/p95/p99 TTFT and TPOT numbers.
///
/// Two modes (see [`MetricsMode`]):
///
/// * **Exact** (the default, used by every golden-pinned report): samples
///   are kept verbatim, in recording order, and each quantile selects its
///   rank in a copy, so quantiles are *exact* order statistics (the
///   rounded-linear-rank definition of [`percentile`], no sketching or
///   interpolation) and runs are bit-reproducible.
/// * **Histogram**: a [`LogHistogram`] — constant memory per distinct
///   scale, quantiles within [`HISTOGRAM_MAX_RELATIVE_ERROR`], exact
///   count/mean/max. For million-request sweeps.
///
/// Recorders from replica shards can be [`merged`](Self::merge) into a
/// cluster-wide distribution; merging requires matching modes (build the
/// aggregate with [`LatencyRecorder::with_mode`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyRecorder {
    samples: Samples,
}

impl LatencyRecorder {
    /// An empty recorder in exact mode.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty recorder in the given mode.
    #[must_use]
    pub fn with_mode(mode: MetricsMode) -> Self {
        match mode {
            MetricsMode::Exact => Self::default(),
            MetricsMode::Histogram => LatencyRecorder {
                samples: Samples::Histogram(LogHistogram::new()),
            },
        }
    }

    /// An empty recorder in histogram mode.
    #[must_use]
    pub fn histogram_mode() -> Self {
        Self::with_mode(MetricsMode::Histogram)
    }

    /// This recorder's storage mode.
    #[must_use]
    pub fn mode(&self) -> MetricsMode {
        match self.samples {
            Samples::Exact(_) => MetricsMode::Exact,
            Samples::Histogram(_) => MetricsMode::Histogram,
        }
    }

    /// Record one sample.
    ///
    /// # Panics
    /// Panics on a NaN sample — quantiles would be meaningless. Histogram
    /// mode additionally rejects negative and infinite samples.
    pub fn record(&mut self, sample: f64) {
        match &mut self.samples {
            Samples::Exact(v) => {
                assert!(!sample.is_nan(), "cannot record NaN");
                // dcm-lint: allow(A1) Exact mode is an opt-in debugging aid; production runs use Histogram
                v.push(sample);
            }
            Samples::Histogram(h) => h.record(sample),
        }
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> usize {
        match &self.samples {
            Samples::Exact(v) => v.len(),
            Samples::Histogram(h) => h.count(),
        }
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Arithmetic mean; 0 when empty. Exact in both modes.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match &self.samples {
            Samples::Exact(v) => mean(v),
            Samples::Histogram(h) => h.mean(),
        }
    }

    /// Largest sample; 0 when empty. Exact in both modes.
    #[must_use]
    pub fn max(&self) -> f64 {
        match &self.samples {
            Samples::Exact(v) => max(v),
            Samples::Histogram(h) => h.max(),
        }
    }

    /// Quantile at the rounded linear rank (see [`percentile`]) with `p`
    /// in `0..=100`; 0 when empty. Exact mode returns the order statistic
    /// itself; histogram mode is within
    /// [`HISTOGRAM_MAX_RELATIVE_ERROR`] of it.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        match &self.samples {
            Samples::Exact(v) => percentile(v, p),
            Samples::Histogram(h) => h.quantile(p),
        }
    }

    /// The (p50, p95, p99) triple most figures report.
    #[must_use]
    pub fn summary(&self) -> (f64, f64, f64) {
        (
            self.quantile(50.0),
            self.quantile(95.0),
            self.quantile(99.0),
        )
    }

    /// Absorb all samples of `other`.
    ///
    /// # Panics
    /// Panics if the modes differ — quantize-then-merge and
    /// merge-then-quantize disagree, so the mismatch is a bug upstream.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        match (&mut self.samples, &other.samples) {
            (Samples::Exact(a), Samples::Exact(b)) => a.extend_from_slice(b),
            (Samples::Histogram(a), Samples::Histogram(b)) => a.merge(b),
            _ => panic!("cannot merge recorders with different metrics modes"),
        }
    }

    /// Evenly-spaced histogram over `[min, max]` with `bins` buckets,
    /// returned as `(bucket_lower_edge, count)` pairs. Empty recorder or
    /// zero `bins` yields an empty vec. In histogram mode the counts come
    /// from the quantized bins (each attributed to its representative).
    #[must_use]
    pub fn histogram(&self, bins: usize) -> Vec<(f64, usize)> {
        if self.is_empty() || bins == 0 {
            return Vec::new();
        }
        let (lo, hi, points): (f64, f64, Vec<(f64, usize)>) = match &self.samples {
            Samples::Exact(v) => (min(v), max(v), v.iter().map(|&s| (s, 1usize)).collect()),
            Samples::Histogram(h) => (
                h.min(),
                h.max(),
                h.nonempty_bins()
                    .into_iter()
                    // dcm-lint: allow(C1) per-bin count ≤ total count ≤ usize::MAX
                    .map(|(v, c)| (v, c as usize))
                    .collect(),
            ),
        };
        let width = ((hi - lo) / usize_to_f64(bins)).max(f64::MIN_POSITIVE);
        let mut counts = vec![0usize; bins];
        for &(s, c) in &points {
            // dcm-lint: allow(C1) truncating is the binning; NaN (from an infinite sample) saturates to bin 0
            let idx = (((s - lo) / width) as usize).min(bins - 1);
            counts[idx] += c;
        }
        counts
            .into_iter()
            .enumerate()
            .map(|(i, c)| (lo + usize_to_f64(i) * width, c))
            .collect()
    }
}

/// Format a value with an SI suffix, e.g. `format_si(2.45e12, "B/s")` =>
/// `"2.45 TB/s"`.
#[must_use]
pub fn format_si(value: f64, unit: &str) -> String {
    let (scaled, prefix) = si_scale(value);
    format!("{scaled:.2} {prefix}{unit}")
}

/// Quote a CSV field if it contains separators or quotes.
fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

fn si_scale(value: f64) -> (f64, &'static str) {
    let abs = value.abs();
    if abs >= 1e12 {
        (value / 1e12, "T")
    } else if abs >= 1e9 {
        (value / 1e9, "G")
    } else if abs >= 1e6 {
        (value / 1e6, "M")
    } else if abs >= 1e3 {
        (value / 1e3, "k")
    } else {
        (value, "")
    }
}

/// A labeled 2-D grid of values — the building block for every heatmap
/// figure. Rows and columns carry axis labels (e.g. batch size × output
/// length).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Heatmap {
    title: String,
    row_axis: String,
    col_axis: String,
    row_labels: Vec<String>,
    col_labels: Vec<String>,
    values: Vec<Vec<f64>>,
}

impl Heatmap {
    /// Create an empty heatmap with the given axes. Rows are appended with
    /// [`Heatmap::push_row`].
    #[must_use]
    pub fn new(
        title: impl Into<String>,
        row_axis: impl Into<String>,
        col_axis: impl Into<String>,
        col_labels: Vec<String>,
    ) -> Self {
        Heatmap {
            title: title.into(),
            row_axis: row_axis.into(),
            col_axis: col_axis.into(),
            row_labels: Vec::new(),
            col_labels,
            values: Vec::new(),
        }
    }

    /// Append a row of values.
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the number of column labels.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.col_labels.len(),
            "row width must match column labels"
        );
        self.row_labels.push(label.into());
        self.values.push(values);
    }

    /// All cell values, flattened row-major.
    #[must_use]
    pub fn flat_values(&self) -> Vec<f64> {
        self.values.iter().flatten().copied().collect()
    }

    /// Cell value at (row, col).
    #[must_use]
    pub fn at(&self, row: usize, col: usize) -> f64 {
        self.values[row][col]
    }

    /// Number of (rows, cols).
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.values.len(), self.col_labels.len())
    }

    /// Arithmetic mean over all cells.
    #[must_use]
    pub fn mean(&self) -> f64 {
        mean(&self.flat_values())
    }

    /// Maximum over all cells.
    #[must_use]
    pub fn max(&self) -> f64 {
        max(&self.flat_values())
    }

    /// Minimum over all cells.
    #[must_use]
    pub fn min(&self) -> f64 {
        min(&self.flat_values())
    }

    /// Export as CSV (row label column first) for external plotting.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", csv_escape(&self.row_axis));
        for c in &self.col_labels {
            let _ = write!(out, ",{}", csv_escape(c));
        }
        let _ = writeln!(out);
        for (label, row) in self.row_labels.iter().zip(&self.values) {
            let _ = write!(out, "{}", csv_escape(label));
            for v in row {
                let _ = write!(out, ",{v}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Render as aligned ASCII with `prec` decimal places.
    #[must_use]
    pub fn render(&self, prec: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "# rows: {}, cols: {}", self.row_axis, self.col_axis);
        let cell = |v: f64| format!("{v:.prec$}");
        let mut width = self
            .col_labels
            .iter()
            .map(String::len)
            .max()
            .unwrap_or(0)
            .max(6);
        for row in &self.values {
            for &v in row {
                width = width.max(cell(v).len());
            }
        }
        let label_w = self
            .row_labels
            .iter()
            .map(String::len)
            .max()
            .unwrap_or(0)
            .max(self.row_axis.len());
        let _ = write!(out, "{:label_w$}", self.row_axis);
        for c in &self.col_labels {
            let _ = write!(out, " {c:>width$}");
        }
        let _ = writeln!(out);
        for (label, row) in self.row_labels.iter().zip(&self.values) {
            let _ = write!(out, "{label:label_w$}");
            for &v in row {
                let _ = write!(out, " {:>width$}", cell(v));
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// A generic column-aligned text table (for Table 1 / Table 3 style output
/// and line-series figures rendered as columns).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of pre-formatted cells.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "cell count must match headers"
        );
        self.rows.push(cells);
    }

    /// Append a row from displayable values.
    pub fn push<T: ToString>(&mut self, cells: &[T]) {
        self.push_row(cells.iter().map(ToString::to_string).collect());
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Export as CSV for external plotting.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| csv_escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter()
                    .map(|c| csv_escape(c))
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        out
    }

    /// Render as aligned ASCII.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(out, "{h:>w$}  ");
        }
        let _ = writeln!(out);
        for w in widths.iter() {
            let _ = write!(out, "{}  ", "-".repeat(*w));
        }
        let _ = writeln!(out);
        for row in &self.rows {
            for (c, w) in row.iter().zip(&widths) {
                let _ = write!(out, "{c:>w$}  ");
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn min_max_percentile() {
        let xs = [3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(max(&xs), 5.0);
        assert_eq!(min(&xs), 1.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn min_max_keep_negative_data() {
        // Regression: max/min used to clamp legitimate negative values to
        // zero (log-ratio heatmap grids go negative). Only the empty slice
        // maps to 0.
        let xs = [-5.0, -3.0, -4.5];
        assert_eq!(max(&xs), -3.0);
        assert_eq!(min(&xs), -5.0);
        assert_eq!(max(&[-0.25]), -0.25);
        assert_eq!(min(&[-0.25]), -0.25);
        assert_eq!(max(&[]), 0.0);
        assert_eq!(min(&[]), 0.0);
        // Mixed-sign data keeps both extremes.
        let mixed = [-2.0, 0.5, -7.0, 3.0];
        assert_eq!(max(&mixed), 3.0);
        assert_eq!(min(&mixed), -7.0);
    }

    #[test]
    fn heatmap_min_max_handle_negative_cells() {
        // Heatmap::min/max delegate to the helpers; a log2-ratio grid that
        // is entirely below zero must report its true extremes.
        let mut h = Heatmap::new("log2 ratio", "r", "c", vec!["a".into(), "b".into()]);
        h.push_row("x", vec![-1.5, -0.5]);
        assert_eq!(h.max(), -0.5);
        assert_eq!(h.min(), -1.5);
    }

    #[test]
    fn percentile_boundaries_pin_the_rounded_rank_definition() {
        // The pinned definition: sorted index = round(p/100 * (n-1)).
        // p = 0 and p = 100 are exactly the min and max...
        let xs = [10.0, 30.0, 20.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        // ...a single sample answers every p...
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[7.0], 100.0), 7.0);
        // ...and two samples split at p = 50, which rounds half away from
        // zero onto the larger sample.
        let two = [1.0, 9.0];
        assert_eq!(percentile(&two, 49.0), 1.0);
        assert_eq!(percentile(&two, 50.0), 9.0);
        assert_eq!(percentile(&two, 51.0), 9.0);
        // n = 100 samples 1..=100: index = round(p * 0.99).
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 51.0);
        assert_eq!(percentile(&hundred, 95.0), 95.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
    }

    #[test]
    fn recorder_quantiles_are_exact_on_known_distributions() {
        // 1..=100 uniformly: nearest-rank quantiles are exactly computable.
        let mut r = LatencyRecorder::new();
        for v in (1..=100).rev() {
            r.record(f64::from(v));
        }
        assert_eq!(r.count(), 100);
        assert_eq!(r.quantile(0.0), 1.0);
        // rank = round(p/100 * 99): p50 -> index 50 -> value 51.
        assert_eq!(r.quantile(50.0), 51.0);
        assert_eq!(r.quantile(95.0), 95.0);
        assert_eq!(r.quantile(99.0), 99.0);
        assert_eq!(r.quantile(100.0), 100.0);
        assert_eq!(r.max(), 100.0);
        assert!((r.mean() - 50.5).abs() < 1e-12);
        let (p50, p95, p99) = r.summary();
        assert_eq!((p50, p95, p99), (51.0, 95.0, 99.0));
        // Two-point distribution: quantiles snap to the nearest sample.
        let mut two = LatencyRecorder::new();
        two.record(1.0);
        two.record(9.0);
        assert_eq!(two.quantile(49.0), 1.0);
        assert_eq!(two.quantile(51.0), 9.0);
    }

    #[test]
    fn recorder_empty_and_merge() {
        let empty = LatencyRecorder::new();
        assert_eq!(empty.mode(), MetricsMode::Exact);
        assert!(empty.is_empty());
        assert_eq!(empty.quantile(99.0), 0.0);
        assert_eq!(empty.mean(), 0.0);
        assert!(empty.histogram(4).is_empty());

        let mut a = LatencyRecorder::new();
        a.record(1.0);
        a.record(2.0);
        let mut b = LatencyRecorder::new();
        b.record(3.0);
        b.record(4.0);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.quantile(100.0), 4.0);
        assert!((a.mean() - 2.5).abs() < 1e-12);
        a.merge(&empty);
        assert_eq!(a.count(), 4);
    }

    #[test]
    fn recorder_histogram_covers_all_samples() {
        let mut r = LatencyRecorder::new();
        for v in 0..10 {
            r.record(f64::from(v));
        }
        let hist = r.histogram(3);
        assert_eq!(hist.len(), 3);
        let total: usize = hist.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 10);
        // Edges ascend from the minimum sample.
        assert_eq!(hist[0].0, 0.0);
        assert!(hist.windows(2).all(|w| w[0].0 < w[1].0));
        // A constant distribution lands in one bucket.
        let mut flat = LatencyRecorder::new();
        flat.record(5.0);
        flat.record(5.0);
        let h = flat.histogram(4);
        assert_eq!(h.iter().map(|&(_, c)| c).sum::<usize>(), 2);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn recorder_rejects_nan() {
        LatencyRecorder::new().record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn histogram_recorder_rejects_nan() {
        LatencyRecorder::histogram_mode().record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn histogram_recorder_rejects_negative() {
        LatencyRecorder::histogram_mode().record(-1.0);
    }

    #[test]
    fn histogram_mode_tracks_exact_scalars_and_bounded_quantiles() {
        let mut h = LatencyRecorder::histogram_mode();
        let mut e = LatencyRecorder::new();
        assert_eq!(h.mode(), MetricsMode::Histogram);
        assert_eq!(h.quantile(99.0), 0.0, "empty recorder");
        for v in (1..=100).rev() {
            h.record(f64::from(v));
            e.record(f64::from(v));
        }
        // Count, mean and max are exact in histogram mode.
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 100.0);
        assert!((h.mean() - e.mean()).abs() < 1e-12);
        // Quantiles are within the documented relative-error bound of the
        // exact order statistic.
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            let exact = e.quantile(p);
            let approx = h.quantile(p);
            assert!(
                (approx - exact).abs() <= exact * HISTOGRAM_MAX_RELATIVE_ERROR,
                "p{p}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn histogram_mode_edge_cases_are_exact() {
        // Singleton: min==max clamp makes every quantile the sample itself.
        let mut one = LatencyRecorder::histogram_mode();
        one.record(0.000_731_5); // sub-millisecond TTFT scale
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(one.quantile(p), 0.000_731_5);
        }
        // Zeros occupy a dedicated exact bin.
        let mut z = LatencyRecorder::histogram_mode();
        z.record(0.0);
        z.record(0.0);
        z.record(4.0);
        assert_eq!(z.quantile(0.0), 0.0);
        assert_eq!(z.quantile(100.0), 4.0);
        let hist = z.histogram(2);
        assert_eq!(hist.iter().map(|&(_, c)| c).sum::<usize>(), 3);
    }

    #[test]
    fn histogram_bins_are_monotone_and_cover_their_samples() {
        let values = [1e-9, 7.3e-4, 0.02, 0.5, 1.0, 3.25, 1e6];
        let mut prev = 0u32;
        for v in values {
            let idx = LogHistogram::bin_index(v);
            assert!(idx >= prev, "bin index must be monotone in the value");
            prev = idx;
            let (lo, hi) = LogHistogram::bin_bounds(idx);
            assert!(lo <= v && v < hi, "{v} outside its bin [{lo}, {hi})");
        }
    }

    #[test]
    #[should_panic(expected = "different metrics modes")]
    fn merging_mismatched_modes_panics() {
        let mut e = LatencyRecorder::new();
        e.merge(&LatencyRecorder::histogram_mode());
    }

    #[test]
    fn si_formatting() {
        assert_eq!(format_si(2.45e12, "B/s"), "2.45 TB/s");
        assert_eq!(format_si(11.0e12, "FLOPS"), "11.00 TFLOPS");
        assert_eq!(format_si(530.0e9, "FLOPS"), "530.00 GFLOPS");
        assert_eq!(format_si(42.0, "x"), "42.00 x");
    }

    #[test]
    fn heatmap_stats_and_render() {
        let mut h = Heatmap::new("Fig X", "batch", "len", vec!["25".into(), "100".into()]);
        h.push_row("1", vec![1.0, 2.0]);
        h.push_row("64", vec![3.0, 4.0]);
        assert_eq!(h.shape(), (2, 2));
        assert_eq!(h.at(1, 0), 3.0);
        assert!((h.mean() - 2.5).abs() < 1e-12);
        assert_eq!(h.max(), 4.0);
        assert_eq!(h.min(), 1.0);
        let text = h.render(2);
        assert!(text.contains("Fig X"));
        assert!(text.contains("3.00"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn heatmap_rejects_ragged_rows() {
        let mut h = Heatmap::new("t", "r", "c", vec!["a".into()]);
        h.push_row("x", vec![1.0, 2.0]);
    }

    #[test]
    fn table_render_is_aligned() {
        let mut t = Table::new("Table 1", &["metric", "A100", "Gaudi-2"]);
        t.push(&["TFLOPS", "312", "432"]);
        t.push(&["HBM", "2.0", "2.45"]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("Table 1"));
        // All rows render to the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "cell count")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push(&["only-one"]);
    }

    #[test]
    fn csv_exports() {
        let mut h = Heatmap::new("t", "r", "c", vec!["x".into(), "y,z".into()]);
        h.push_row("row1", vec![1.5, 2.0]);
        let csv = h.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("r,x,\"y,z\""));
        assert!(csv.contains("row1,1.5,2"));

        let mut t = Table::new("t", &["metric", "value"]);
        t.push(&["a\"b", "1"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a\"\"b\""));
        assert!(csv.starts_with("metric,value"));
    }
}
