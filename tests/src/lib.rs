//! Host crate for the cross-crate integration tests in `tests/tests/`.
//!
//! The integration suite exercises complete paths through the stack:
//! graph-compiler execution on both devices, embedding operators inside
//! DLRM serving, paged attention inside the serving engine, and the
//! directional claims of the paper's key takeaways.
//!
//! The crate also holds the models the property suites check fast paths
//! against: [`ListQueue`] for `dcm_core::sim::EventQueue`
//! (`prop_queue_diff.rs`), [`timeline`]'s per-slice recurrences for
//! `dcm_core::timeline::even_pipeline_makespan` (`prop_models.rs`), and
//! [`kv_cache`]'s block-naming cache for `dcm_vllm`'s counting
//! `PagedKvCache` (`prop_vllm.rs`). They live here, not in the library
//! crates, because nothing but those suites uses them. So does
//! [`report_bits`], by which the metamorphic suites compare cluster
//! reports.

use dcm_core::sim::Event;
use dcm_vllm::cluster::{ClusterReport, ReplicaStats};
use dcm_vllm::engine::ServingReport;
use std::cmp::Ordering;

pub mod kv_cache;
pub mod timeline;

/// An event queue kept as a plain list: the executable specification of
/// `dcm_core::sim::EventQueue`. A pop finds the minimum by a linear scan
/// under its own comparator, so the model shares no code, and no data
/// structure, with the heap it checks.
#[derive(Default)]
pub struct ListQueue<T> {
    events: Vec<Event<T>>,
    next_seq: u64,
}

impl<T> ListQueue<T> {
    /// Schedule `payload` at `time` with tie-break class `priority`.
    /// Returns the event's insertion index.
    pub fn push(&mut self, time: f64, priority: u32, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Event {
            time,
            priority,
            seq,
            payload,
        });
        seq
    }

    /// Index of the next event: earliest time (IEEE total order), then
    /// lowest priority, then lowest insertion index.
    fn head(&self) -> Option<usize> {
        let pop_order = |a: &Event<T>, b: &Event<T>| -> Ordering {
            a.time
                .total_cmp(&b.time)
                .then(a.priority.cmp(&b.priority))
                .then(a.seq.cmp(&b.seq))
        };
        (0..self.events.len()).min_by(|&a, &b| pop_order(&self.events[a], &self.events[b]))
    }

    /// Remove and return the next event.
    pub fn pop(&mut self) -> Option<Event<T>> {
        self.head().map(|i| self.events.remove(i))
    }

    /// Time of the next event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<f64> {
        self.head().map(|i| self.events[i].time)
    }

    /// Pop the next event only if its time is at or before `horizon`.
    pub fn pop_due(&mut self, horizon: f64) -> Option<Event<T>> {
        if self.peek_time()? <= horizon {
            self.pop()
        } else {
            None
        }
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Remove every event, in pop order.
    pub fn drain_ordered(&mut self) -> Vec<Event<T>> {
        std::iter::from_fn(|| self.pop()).collect()
    }
}

/// Every number a cluster report carries, floats as bit patterns.
/// The destructuring names every field, so a new one fails to compile
/// until it is compared too.
pub fn report_bits(report: &ClusterReport) -> Vec<u64> {
    let ServingReport {
        completed,
        total_output_tokens,
        total_time_s,
        throughput_tps,
        mean_ttft_s,
        mean_tpot_s,
        p50_ttft_s,
        p95_ttft_s,
        p99_ttft_s,
        p50_tpot_s,
        p95_tpot_s,
        p99_tpot_s,
        mean_queue_delay_s,
        p99_queue_delay_s,
        peak_batch,
        preemptions,
        shed,
        failed,
        retries,
        lost_tokens,
        goodput_tps,
        slo_attainment,
    } = report.serving;
    let mut bits: Vec<u64> = [
        total_time_s,
        throughput_tps,
        mean_ttft_s,
        mean_tpot_s,
        p50_ttft_s,
        p95_ttft_s,
        p99_ttft_s,
        p50_tpot_s,
        p95_tpot_s,
        p99_tpot_s,
        mean_queue_delay_s,
        p99_queue_delay_s,
        goodput_tps,
        slo_attainment,
    ]
    .map(f64::to_bits)
    .to_vec();
    let counts = [
        completed,
        total_output_tokens,
        peak_batch,
        preemptions,
        shed,
        failed,
        retries,
        lost_tokens,
    ];
    bits.extend(counts.map(|c| c as u64));
    for &ReplicaStats {
        dispatched,
        completed,
        output_tokens,
        busy_s,
        utilization,
        preemptions,
        crashes,
    } in &report.per_replica
    {
        bits.extend([dispatched, completed, output_tokens, preemptions, crashes].map(|c| c as u64));
        bits.extend([busy_s.to_bits(), utilization.to_bits()]);
    }
    bits
}
