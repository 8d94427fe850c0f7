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
//! * [`EventQueue`] — a priority queue with a *total* order: events pop by
//!   `(time, priority, seq)`, where `seq` is the insertion index. Two
//!   events can never be "equal", so a simulation driven by the queue is
//!   deterministic by construction: the same pushes always replay in the
//!   same order, bit for bit, regardless of queue internals.
//!   The original `BinaryHeap`-backed implementation survives as the
//!   executable reference (`HeapEventQueue` in the `dcm-tests` crate):
//!   `tests/tests/prop_queue_diff.rs` asserts bit-identical pop order
//!   between the two under randomized workloads.
//! * [`SimClock`] — a monotone simulated clock. It only moves forward, so
//!   an event processed at time `t` can never observe state from the
//!   future, and a fast-forward past an idle gap is explicit.
//!
//! [`EventQueue`] is a calendar queue (a hashed timing wheel, Brown 1988):
//! events hash into time buckets of a calibrated width and a cursor walks
//! the buckets in time order, giving amortized O(1) push/pop for the
//! arrival-stream patterns the serving layers generate, versus the heap's
//! O(log n) sift per operation. The structure is *observably* identical to
//! the heap: the pop order depends only on the event keys, never on bucket
//! layout (each pop selects the full-key minimum of the earliest non-empty
//! bucket, and the floor-based bucket map is monotone in time, so the
//! earliest bucket always contains the global minimum).
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
//! before an arrival (4) at the same instant, so a replica crashing
//! exactly when a request arrives can never receive it.

use std::cell::Cell;
use std::cmp::Ordering;

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

/// Pop order: earliest time, then lowest priority, then lowest seq.
fn key_cmp(a: (f64, u32, u64), b: (f64, u32, u64)) -> Ordering {
    a.0.total_cmp(&b.0)
        .then_with(|| a.1.cmp(&b.1))
        .then_with(|| a.2.cmp(&b.2))
}

/// Queue size at which the calendar first calibrates its bucket width and
/// spreads out of the single bootstrap bucket. Below this a linear scan of
/// one bucket beats any wheel bookkeeping.
const CALIBRATE_LEN: usize = 32;

/// Upper bound on the bucket array — past this the calendar stops
/// doubling and accepts longer per-bucket chains (2^20 buckets already
/// covers million-event traces at ~1 event/bucket).
const MAX_SLOTS: usize = 1 << 20;

/// Calendar entry: the event key and payload plus its home bucket number,
/// computed once at insertion so scans never re-derive float quotients.
struct WheelEntry<T> {
    time: f64,
    priority: u32,
    seq: u64,
    bucket: i64,
    payload: T,
}

/// Location of the current minimum — memoized so repeated
/// [`EventQueue::peek_time`] calls (the promote-arrivals loop does one per
/// scheduler iteration) cost O(1) instead of a bucket walk.
#[derive(Clone, Copy)]
struct MinLoc {
    time: f64,
    priority: u32,
    seq: u64,
    bucket: i64,
    slot: usize,
    idx: usize,
}

/// A discrete-event queue with a total pop order on `(time, priority,
/// seq)`, backed by a calendar of time buckets (a hashed timing wheel).
///
/// `seq` increments on every push, so the order events were scheduled in
/// is the last tie-break: two pushes at the same `(time, priority)` pop
/// in push order, exactly like a stable sort of the whole event list.
///
/// ## Invariants (the soundness argument, DESIGN.md §3.8)
///
/// * **Monotone bucket map.** An event's bucket is
///   `floor(time / width)` (saturating at the `i64` extremes), computed
///   once at insertion. The map is monotone in time, so for any two
///   events `a.time < b.time` implies `a.bucket <= b.bucket`: the
///   earliest non-empty bucket always contains the global minimum.
/// * **Cursor lower bound.** `cursor <= bucket` for every live entry:
///   pushes lower it, and a pop sets it to the popped bucket, which the
///   previous invariant shows is a lower bound for everything remaining.
///   The pop scan may therefore start at the cursor without ever skipping
///   an earlier event.
/// * **Full-key selection.** Within the first non-empty bucket the pop
///   selects the minimum by the *full* `(time, priority, seq)` key, so
///   the result is independent of per-bucket layout — the queue is
///   deterministic by construction and bit-identical to a binary heap on
///   the same key (pinned by `tests/tests/prop_queue_diff.rs`).
/// * **Saturation safety.** Times whose quotient exceeds the `i64` range
///   (including ±∞, which the serving layers use as sentinels) saturate
///   into the extreme buckets. Saturation is monotone, so order is still
///   decided correctly — by the full-key comparison within the merged
///   extreme bucket.
///
/// Steady-state pushes and pops allocate nothing: a pop is a
/// `swap_remove`, and a push appends into a bucket whose `Vec` retains
/// its high-water capacity. Allocation happens only when a bucket first
/// grows and on the O(log n) doubling rebuilds
/// (`tests/tests/alloc_steady_state.rs` pins this with a counting
/// allocator).
///
/// ```
/// use dcm_core::sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(2.0, 0, "late");
/// q.push(1.0, 1, "early-low-class");
/// q.push(1.0, 0, "early-high-class");
/// let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
/// assert_eq!(order, ["early-high-class", "early-low-class", "late"]);
/// ```
pub struct EventQueue<T> {
    /// Bucket array; `slots.len()` is a power of two.
    slots: Vec<Vec<WheelEntry<T>>>,
    /// `slots.len() - 1`, for the bucket→slot masking.
    mask: i64,
    /// Bucket width in seconds; calibrated to the mean inter-event gap at
    /// rebuild time. Always positive and finite.
    width: f64,
    /// Lower bound on the bucket number of every live entry; `i64::MAX`
    /// when empty.
    cursor: i64,
    len: usize,
    next_seq: u64,
    /// Memoized location of the minimum entry (`None` = not computed).
    cached_min: Cell<Option<MinLoc>>,
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
    /// the bootstrap bucket skips the repeated doubling those pushes
    /// would otherwise pay before the first calibration rebuild.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            slots: vec![Vec::with_capacity(capacity)],
            mask: 0,
            width: 1.0,
            cursor: i64::MAX,
            len: 0,
            next_seq: 0,
            cached_min: Cell::new(None),
        }
    }

    /// Reserve room for at least `additional` more events, spread across
    /// the current buckets.
    pub fn reserve(&mut self, additional: usize) {
        let per_slot = additional / self.slots.len() + 1;
        for s in &mut self.slots {
            s.reserve(per_slot);
        }
    }

    /// Bucket number of `time` under width `w`: `floor(time / w)`,
    /// saturating at the `i64` extremes (monotone, so order within the
    /// merged extreme buckets is still decided by the full key).
    fn bucket_of(time: f64, w: f64) -> i64 {
        // dcm-lint: allow(C1) f64→i64 `as` saturates (the intended clamp); NaN rejected at push
        ((time / w).floor()) as i64
    }

    fn slot_of(&self, bucket: i64) -> usize {
        // Masking the two's-complement low bits maps each bucket to a slot
        // consistently for negative buckets too; the result is in
        // 0..slots.len() so the cast is lossless.
        // dcm-lint: allow(C1) masked non-negative i64 → usize is lossless
        (bucket & self.mask) as usize
    }

    /// Queue length that triggers the next doubling rebuild.
    fn rebuild_threshold(&self) -> usize {
        if self.slots.len() == 1 {
            CALIBRATE_LEN
        } else if self.slots.len() >= MAX_SLOTS {
            usize::MAX
        } else {
            self.slots.len() * 2
        }
    }

    /// Re-bucket everything into `n.next_power_of_two()` slots with a
    /// width calibrated to the mean gap of the currently queued events —
    /// the classic calendar-queue resize. O(len), amortized by doubling.
    fn rebuild(&mut self, n: usize) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut finite = 0usize;
        for s in &self.slots {
            for e in s {
                if e.time.is_finite() {
                    lo = lo.min(e.time);
                    hi = hi.max(e.time);
                    finite += 1;
                }
            }
        }
        let span = hi - lo;
        if finite >= 2 && span > 0.0 && span.is_finite() {
            self.width = span / crate::cast::usize_to_f64(finite);
        }
        let nslots = n.next_power_of_two().clamp(64, MAX_SLOTS);
        let old = std::mem::take(&mut self.slots);
        // dcm-lint: allow(A1) rebuild doubles capacity, amortized O(1)/event; asserted by alloc_steady_state.rs
        self.slots = (0..nslots).map(|_| Vec::new()).collect();
        // dcm-lint: allow(C1) nslots ≤ 2^20, exactly representable
        self.mask = (nslots - 1) as i64;
        self.cursor = i64::MAX;
        for s in old {
            for e in s {
                let bucket = Self::bucket_of(e.time, self.width);
                self.cursor = self.cursor.min(bucket);
                let slot = self.slot_of(bucket);
                // dcm-lint: allow(A1) redistribution during amortized rebuild; asserted by alloc_steady_state.rs
                self.slots[slot].push(WheelEntry { bucket, ..e });
            }
        }
        self.cached_min.set(None);
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
        if self.len + 1 > self.rebuild_threshold() {
            self.rebuild(self.len + 1);
        }
        let bucket = Self::bucket_of(time, self.width);
        let slot = self.slot_of(bucket);
        // dcm-lint: allow(A1) slot vecs retain capacity across pops; steady state asserted by alloc_steady_state.rs
        self.slots[slot].push(WheelEntry {
            time,
            priority,
            seq,
            bucket,
            payload,
        });
        self.len += 1;
        self.cursor = self.cursor.min(bucket);
        if let Some(m) = self.cached_min.get() {
            if key_cmp((time, priority, seq), (m.time, m.priority, m.seq)) == Ordering::Less {
                self.cached_min.set(Some(MinLoc {
                    time,
                    priority,
                    seq,
                    bucket,
                    slot,
                    idx: self.slots[slot].len() - 1,
                }));
            }
        }
        seq
    }

    /// Locate the minimum entry: walk buckets from the cursor (one year =
    /// one lap of the bucket array), falling back to a direct scan when
    /// the calendar is sparse. Memoized in `cached_min`; read-only
    /// otherwise, so peeks can share it.
    fn find_min(&self) -> Option<MinLoc> {
        if self.len == 0 {
            return None;
        }
        if let Some(m) = self.cached_min.get() {
            return Some(m);
        }
        for step in 0..self.slots.len() {
            // Bucket indices saturate at i64::MAX (the +inf bucket).
            let Some(b) = i64::try_from(step)
                .ok()
                .and_then(|s| self.cursor.checked_add(s))
            else {
                break;
            };
            if let Some(m) = self.min_in_bucket(b) {
                self.cached_min.set(Some(m));
                return Some(m);
            }
        }
        // Sparse year: direct search. The bucket map is monotone in time,
        // so the global full-key minimum is also in the lowest bucket.
        let mut best: Option<MinLoc> = None;
        for (slot, entries) in self.slots.iter().enumerate() {
            for (idx, e) in entries.iter().enumerate() {
                let candidate = (e.time, e.priority, e.seq);
                if best.is_none_or(|m| key_cmp(candidate, (m.time, m.priority, m.seq)).is_lt()) {
                    best = Some(MinLoc {
                        time: e.time,
                        priority: e.priority,
                        seq: e.seq,
                        bucket: e.bucket,
                        slot,
                        idx,
                    });
                }
            }
        }
        self.cached_min.set(best);
        best
    }

    /// Full-key minimum among the entries homed in bucket `b`, if any.
    fn min_in_bucket(&self, b: i64) -> Option<MinLoc> {
        let slot = self.slot_of(b);
        let mut best: Option<MinLoc> = None;
        for (idx, e) in self.slots[slot].iter().enumerate() {
            if e.bucket != b {
                continue; // a different lap of the calendar
            }
            let candidate = (e.time, e.priority, e.seq);
            if best.is_none_or(|m| key_cmp(candidate, (m.time, m.priority, m.seq)).is_lt()) {
                best = Some(MinLoc {
                    time: e.time,
                    priority: e.priority,
                    seq: e.seq,
                    bucket: b,
                    slot,
                    idx,
                });
            }
        }
        best
    }

    /// Remove and return the next event in `(time, priority, seq)` order.
    pub fn pop(&mut self) -> Option<Event<T>> {
        let m = self.find_min()?;
        self.cached_min.set(None);
        self.cursor = m.bucket;
        self.len -= 1;
        let e = self.slots[m.slot].swap_remove(m.idx);
        debug_assert_eq!(e.seq, m.seq, "cached minimum desynced from storage");
        Some(Event {
            time: e.time,
            priority: e.priority,
            seq: e.seq,
            payload: e.payload,
        })
    }

    /// Time of the next event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<f64> {
        self.find_min().map(|m| m.time)
    }

    /// Pop the next event only if it is due at or before `horizon`
    /// (`time <= horizon`); otherwise leave the queue untouched and
    /// return `None`. The bulk-horizon primitive for drain loops
    /// (`while let Some(e) = q.pop_due(t)`) — one call replaces the
    /// peek-compare-pop dance and can never drop an event past the
    /// horizon. A NaN `horizon` compares false and pops nothing. The
    /// `find_min` result is memoized, so a declined pop costs one
    /// cached comparison, not a bucket scan.
    pub fn pop_due(&mut self, horizon: f64) -> Option<Event<T>> {
        if self.peek_time()? <= horizon {
            self.pop()
        } else {
            None
        }
    }

    /// Payload of the next event without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<&T> {
        self.find_min().map(|m| &self.slots[m.slot][m.idx].payload)
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove every event, in pop order.
    pub fn drain_ordered(&mut self) -> Vec<Event<T>> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(e) = self.pop() {
            out.push(e);
        }
        out
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("next_seq", &self.next_seq)
            .field("slots", &self.slots.len())
            .field("width", &self.width)
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
        // order, regardless of bucket internals. 100 > CALIBRATE_LEN, so
        // this also crosses a rebuild with a degenerate (zero) span.
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
        assert_eq!(q.peek(), Some(&"second"));
        assert_eq!(q.pop().unwrap().payload, "second");
        assert_eq!(q.pop().unwrap().payload, "late");
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn with_capacity_and_reserve_change_nothing_observable() {
        // Capacity is a pure allocation hint: pop order, seq numbering
        // and len are identical to a `new()` queue.
        let mut a = EventQueue::new();
        let mut b = EventQueue::with_capacity(64);
        for i in 0..10usize {
            assert_eq!(a.push(i as f64 * 0.5, 0, i), b.push(i as f64 * 0.5, 0, i));
        }
        b.reserve(100);
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
        // range checks. The saturating bucket map handles the extremes.
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
