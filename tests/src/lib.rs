//! Host crate for the cross-crate integration tests in `tests/tests/`.
//!
//! The integration suite exercises complete paths through the stack:
//! graph-compiler execution on both devices, embedding operators inside
//! DLRM serving, paged attention inside the serving engine, and the
//! directional claims of the paper's key takeaways.
//!
//! The crate also holds [`HeapEventQueue`], the reference implementation
//! `prop_queue_diff.rs` checks `dcm_core::sim::EventQueue` against. It
//! lives here, not in `dcm-core`, because nothing but that differential
//! suite uses it.

use dcm_core::sim::Event;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap entry. `BinaryHeap` is a max-heap, so [`Ord`] is the *reverse* of
/// pop order.
struct Entry<T> {
    time: f64,
    priority: u32,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    /// Pop order, stated on its own rather than shared with the queue
    /// under test: earliest time (IEEE total order), then lowest
    /// priority, then lowest insertion index.
    fn pop_order(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.priority.cmp(&other.priority))
            .then(self.seq.cmp(&other.seq))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.pop_order(other) == Ordering::Equal
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.pop_order(other).reverse()
    }
}

/// A `BinaryHeap`-backed event queue: the executable specification of
/// `dcm_core::sim::EventQueue`.
///
/// Same API, same total pop order on `(time, priority, seq)`, same NaN
/// rejection. The differential suite (`tests/tests/prop_queue_diff.rs`)
/// replays identical push/pop sequences against both and asserts
/// bit-identical behaviour.
#[derive(Default)]
pub struct HeapEventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> HeapEventQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue pre-sized for `capacity` events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        HeapEventQueue {
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
        self.heap.push(Entry {
            time,
            priority,
            seq,
            payload,
        });
        seq
    }

    /// Remove and return the next event in `(time, priority, seq)` order.
    pub fn pop(&mut self) -> Option<Event<T>> {
        self.heap.pop().map(|e| Event {
            time: e.time,
            priority: e.priority,
            seq: e.seq,
            payload: e.payload,
        })
    }

    /// Time of the next event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pop the next event only if it is due at or before `horizon`
    /// (`time <= horizon`); otherwise leave the queue untouched and
    /// return `None`. A NaN `horizon` compares false and pops nothing.
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
        self.heap.peek().map(|e| &e.payload)
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
