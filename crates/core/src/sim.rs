//! Deterministic discrete-event simulation core.
//!
//! Every serving layer in the workspace advances the same kind of
//! simulation: a set of timestamped events (request arrivals, replica
//! faults, scheduler iterations) consumed in time order on a shared
//! clock. Before this module each layer hand-merged its own timelines
//! with ad-hoc `while` loops; the loops were individually correct but the
//! tie-breaking rules lived in three places and could drift. This module
//! centralizes them:
//!
//! * [`EventQueue`] — a binary min-heap with a *total* order: events pop
//!   by `(time, priority, seq)`, where `seq` is the insertion index. Two
//!   events can never be "equal", so a simulation driven by the queue is
//!   deterministic by construction: the same pushes always replay in the
//!   same order, bit for bit, regardless of queue internals.
//!   `tests/tests/prop_queue_diff.rs` checks it against a linear-scan
//!   list model (`ListQueue` in the `dcm-tests` crate) under randomized
//!   workloads and asserts bit-identical pop order.
//! * [`SimClock`] — a monotone simulated clock. It only moves forward, so
//!   an event processed at time `t` can never observe state from the
//!   future, and a fast-forward past an idle gap is explicit.
//!
//! Determinism contract: all randomness lives *outside* the core — in
//! seeded traces ([`rng::seeded`](crate::rng::seeded)) and seeded fault
//! plans — and the core never consults a clock or RNG of its own. Given
//! the same events, a run replays identically on any platform, which is
//! what lets the workspace pin whole serving reports as IEEE-754 bit
//! patterns.
//!
//! Priorities are small integers chosen by the simulation layer; lower
//! pops first at equal times. The cluster layer, for example, orders a
//! replica recovery (0) before a slowdown edge (1, 2) before a crash (3)
//! before a fabric delivery (4) at the same instant. It reads arrivals
//! from the trace instead of queueing them and takes each only after
//! every queued event at its instant, so a replica crashing exactly when
//! a request arrives can never receive it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled event, as returned by [`EventQueue::pop`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event<T> {
    /// Simulated time of the event in seconds.
    pub time: f64,
    /// Tie-break class at equal times; lower pops first.
    pub priority: u32,
    /// Insertion index — the final, total-order tie-break.
    pub seq: u64,
    /// The event itself.
    pub payload: T,
}

/// Heap entry. `BinaryHeap` is a max-heap, so [`Ord`] is the *reverse* of
/// pop order: earliest time (IEEE total order), then lowest priority,
/// then lowest insertion index. `seq` is unique, so no two entries
/// compare equal.
struct Entry<T>(Event<T>);

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (&self.0, &other.0);
        a.time
            .total_cmp(&b.time)
            .then(a.priority.cmp(&b.priority))
            .then(a.seq.cmp(&b.seq))
            .reverse()
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for Entry<T> {}

/// A discrete-event queue with a total pop order on `(time, priority,
/// seq)`, backed by a binary min-heap.
///
/// `seq` increments on every push, so the order events were scheduled in
/// is the last tie-break: two pushes at the same `(time, priority)` pop
/// in push order, exactly like a stable sort of the whole event list.
/// The pop order depends only on the event keys, so any two correct
/// implementations of the order pop bit-identically.
///
/// Push and pop are O(log n). Neither allocates once the heap holds its
/// high-water number of events: a pop keeps the buffer's capacity, and
/// [`with_capacity`](Self::with_capacity) pre-sizes it for a bulk fill
/// (`tests/tests/alloc_steady_state.rs` pins both with a counting
/// allocator).
///
/// ```
/// use dcm_core::sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(2.0, 0, "late");
/// q.push(1.0, 1, "early-low-class");
/// q.push(1.0, 0, "early-high-class");
/// q.push(1.0, 0, "early-high-class-second");
/// assert_eq!(q.pop_due(0.5), None); // nothing is due yet
/// let order: Vec<&str> = std::iter::from_fn(|| q.pop_due(1.0).map(|e| e.payload)).collect();
/// assert_eq!(order, ["early-high-class", "early-high-class-second", "early-low-class"]);
/// assert_eq!(q.peek_time(), Some(2.0));
/// ```
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue pre-sized for `capacity` events. Large sweeps push
    /// whole arrival traces (plus fault timelines) up front; pre-sizing
    /// skips the repeated doubling those pushes would otherwise pay.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedule `payload` at `time` with tie-break class `priority`.
    /// Returns the event's insertion index.
    ///
    /// # Panics
    /// Panics on a NaN time — NaN has no place in a total order.
    pub fn push(&mut self, time: f64, priority: u32, payload: T) -> u64 {
        assert!(!time.is_nan(), "event time must not be NaN");
        let seq = self.next_seq;
        self.next_seq += 1;
        // dcm-lint: allow(A1) the heap grows only past its high-water length, by doubling: amortized O(1)/event; asserted by alloc_steady_state.rs
        self.heap.push(Entry(Event {
            time,
            priority,
            seq,
            payload,
        }));
        seq
    }

    /// Remove and return the next event in `(time, priority, seq)` order.
    pub fn pop(&mut self) -> Option<Event<T>> {
        self.heap.pop().map(|e| e.0)
    }

    /// Time of the next event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.0.time)
    }

    /// Pop the next event only if it is due at or before `horizon`
    /// (`time <= horizon`); otherwise leave the queue untouched and
    /// return `None`. The bulk-horizon primitive for drain loops
    /// (`while let Some(e) = q.pop_due(t)`) — one call replaces the
    /// peek-compare-pop dance and can never drop an event past the
    /// horizon. A NaN `horizon` compares false and pops nothing.
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
        self.heap.len()
    }

    /// Whether no events are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Remove every event, in pop order.
    pub fn drain_ordered(&mut self) -> Vec<Event<T>> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(e) = self.pop() {
            out.push(e);
        }
        out
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

/// A monotone simulated clock: time moves forward only.
///
/// ```
/// use dcm_core::sim::SimClock;
/// let mut clock = SimClock::new();
/// clock.advance_by(1.5);
/// clock.advance_to(1.0); // in the past: a no-op, never rewinds
/// assert_eq!(clock.now(), 1.5);
/// clock.advance_to(3.0);
/// assert_eq!(clock.now(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimClock {
    now: f64,
}

impl SimClock {
    /// A clock at `t = 0`.
    #[must_use]
    pub fn new() -> Self {
        SimClock { now: 0.0 }
    }

    /// Current simulated time in seconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advance by a non-negative duration and return the new time.
    ///
    /// # Panics
    /// Debug-panics on a negative or non-finite duration.
    pub fn advance_by(&mut self, dt: f64) -> f64 {
        debug_assert!(dt.is_finite() && dt >= 0.0, "bad clock step {dt}");
        self.now += dt;
        self.now
    }

    /// Fast-forward to `t` if it is in the future; a past `t` is a no-op
    /// (the clock never rewinds). Returns the new time.
    ///
    /// # Panics
    /// Debug-panics on a NaN target.
    pub fn advance_to(&mut self, t: f64) -> f64 {
        debug_assert!(!t.is_nan(), "bad clock target {t}");
        self.now = self.now.max(t);
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, 0, 'c');
        q.push(1.0, 0, 'a');
        q.push(2.0, 0, 'b');
        let order: Vec<char> = q.drain_ordered().into_iter().map(|e| e.payload).collect();
        assert_eq!(order, ['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_pop_by_priority_then_seq() {
        let mut q = EventQueue::new();
        q.push(1.0, 2, "p2-first");
        q.push(1.0, 0, "p0-first");
        q.push(1.0, 2, "p2-second");
        q.push(1.0, 0, "p0-second");
        let order: Vec<&str> = q.drain_ordered().into_iter().map(|e| e.payload).collect();
        assert_eq!(order, ["p0-first", "p0-second", "p2-first", "p2-second"]);
    }

    #[test]
    fn seq_makes_the_order_total() {
        // 100 events at one instant with one priority: pure insertion
        // order, regardless of heap layout.
        let mut q = EventQueue::new();
        for i in 0..100usize {
            q.push(1.0, 0, i);
        }
        let order: Vec<usize> = q.drain_ordered().into_iter().map(|e| e.payload).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_is_consistent() {
        let mut q = EventQueue::new();
        q.push(5.0, 0, "late");
        q.push(1.0, 0, "first");
        assert_eq!(q.pop().unwrap().payload, "first");
        q.push(2.0, 0, "second");
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.pop().unwrap().payload, "second");
        assert_eq!(q.pop().unwrap().payload, "late");
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn with_capacity_changes_nothing_observable() {
        // Capacity is a pure allocation hint: pop order, seq numbering
        // and len are identical to a `new()` queue.
        let mut a = EventQueue::new();
        let mut b = EventQueue::with_capacity(64);
        for i in 0..10usize {
            assert_eq!(a.push(i as f64 * 0.5, 0, i), b.push(i as f64 * 0.5, 0, i));
        }
        assert_eq!(a.len(), b.len());
        let pa: Vec<usize> = a.drain_ordered().into_iter().map(|e| e.payload).collect();
        let pb: Vec<usize> = b.drain_ordered().into_iter().map(|e| e.payload).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn len_and_seq_track_pushes() {
        let mut q = EventQueue::new();
        assert_eq!(q.push(1.0, 0, ()), 0);
        assert_eq!(q.push(1.0, 0, ()), 1);
        assert_eq!(q.len(), 2);
        let _ = q.pop();
        // seq keeps counting across pops: uniqueness is forever.
        assert_eq!(q.push(1.0, 0, ()), 2);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_is_rejected() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, 0, ());
    }

    #[test]
    fn negative_and_infinite_times_order_correctly() {
        // The queue itself permits any non-NaN time; layers add their own
        // range checks.
        let mut q = EventQueue::new();
        q.push(f64::INFINITY, 0, "inf");
        q.push(-1.0, 0, "neg");
        q.push(0.0, 0, "zero");
        q.push(f64::NEG_INFINITY, 0, "-inf");
        let order: Vec<&str> = q.drain_ordered().into_iter().map(|e| e.payload).collect();
        assert_eq!(order, ["-inf", "neg", "zero", "inf"]);
    }

    #[test]
    fn clock_is_monotone() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance_by(2.0);
        c.advance_to(1.0);
        assert_eq!(c.now(), 2.0, "advance_to never rewinds");
        c.advance_to(2.5);
        assert_eq!(c.now(), 2.5);
        c.advance_by(0.0);
        assert_eq!(c.now(), 2.5);
    }

    #[test]
    fn identical_push_sequences_replay_identically() {
        // Determinism: two queues fed the same sequence pop the same
        // sequence — the property every serving golden test leans on.
        let feed = |q: &mut EventQueue<usize>| {
            for i in 0..50usize {
                let t = (i * 7 % 13) as f64 * 0.5;
                q.push(t, (i % 3) as u32, i);
            }
        };
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        feed(&mut a);
        feed(&mut b);
        let pa: Vec<usize> = a.drain_ordered().into_iter().map(|e| e.payload).collect();
        let pb: Vec<usize> = b.drain_ordered().into_iter().map(|e| e.payload).collect();
        assert_eq!(pa, pb);
    }
}
