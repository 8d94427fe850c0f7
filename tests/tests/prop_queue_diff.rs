//! Differential property tests for the timing-wheel event queue: under
//! arbitrary push/pop interleavings — including same-time/same-priority
//! collisions, negative times, infinities and denormals — the calendar
//! queue ([`EventQueue`]) must pop the bit-identical event sequence of
//! the binary-heap reference ([`HeapEventQueue`]) it replaced. The heap's
//! total order `(time, priority, seq)` via `f64::total_cmp` is the
//! specification; the wheel is an optimization that must be
//! observationally indistinguishable from it.

use dcm_core::sim::EventQueue;
use dcm_tests::HeapEventQueue;
use proptest::prelude::*;

/// Decode a raw `(pool, raw)` pair into a time. Pool 0 draws from a tiny
/// colliding set (exact ties are the point: only `seq` can break them),
/// the others exercise clustered, astronomically sparse, and
/// sub-microsecond regimes — the spreads that stress wheel calibration.
fn decode_time(pool: u8, raw: u16) -> f64 {
    match pool % 4 {
        0 => [
            0.0,
            1.0,
            2.5,
            -3.25,
            1e-300,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ][usize::from(raw) % 7],
        1 => f64::from(raw) * 0.125 - 4096.0,
        2 => (f64::from(raw) - 32768.0) * 1e9,
        _ => f64::from(raw) * 1e-9,
    }
}

/// Full observable key of a popped event, with the time as raw bits so a
/// `-0.0` vs `0.0` divergence would be caught.
type PopKey = (u64, u32, u64, u64);

/// Replay one op script `(op, pool, raw_time, priority)` against both
/// queues, logging every pop (including `None`s), then drain the rest.
fn run_script(ops: &[(u8, u8, u16, u8)]) -> (Vec<Option<PopKey>>, Vec<Option<PopKey>>) {
    let mut heap = HeapEventQueue::new();
    let mut wheel = EventQueue::new();
    let mut heap_log = Vec::new();
    let mut wheel_log = Vec::new();
    let mut payload = 0u64;
    for &(op, pool, raw, priority) in ops {
        if op % 3 < 2 {
            let time = decode_time(pool, raw);
            let priority = u32::from(priority % 3);
            heap.push(time, priority, payload);
            wheel.push(time, priority, payload);
            payload += 1;
        } else {
            heap_log.push(
                heap.pop()
                    .map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload)),
            );
            wheel_log.push(
                wheel
                    .pop()
                    .map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload)),
            );
        }
    }
    for e in heap.drain_ordered() {
        heap_log.push(Some((e.time.to_bits(), e.priority, e.seq, e.payload)));
    }
    for e in wheel.drain_ordered() {
        wheel_log.push(Some((e.time.to_bits(), e.priority, e.seq, e.payload)));
    }
    (heap_log, wheel_log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The wheel's pop sequence is bit-identical to the heap's under
    /// random interleaved traffic, and the leftovers drain identically.
    #[test]
    fn wheel_pops_bit_identical_to_heap(
        ops in proptest::collection::vec((0u8..3, 0u8..4, 0u16..65535, 0u8..3), 0..400),
    ) {
        let (heap_log, wheel_log) = run_script(&ops);
        prop_assert_eq!(heap_log, wheel_log);
    }

    /// Pure push-then-drain at scale: every event comes back, totally
    /// ordered, identically on both queues. A thousand events cross
    /// several wheel calibration rebuilds.
    #[test]
    fn bulk_drain_is_bit_identical(
        times in proptest::collection::vec((0u8..4, 0u16..65535), 0..1000),
    ) {
        let mut heap = HeapEventQueue::with_capacity(times.len());
        let mut wheel = EventQueue::with_capacity(times.len());
        for (i, &(pool, raw)) in times.iter().enumerate() {
            let t = decode_time(pool, raw);
            let priority = u32::try_from(i % 5).expect("small");
            let id = u64::try_from(i).expect("small");
            heap.push(t, priority, id);
            wheel.push(t, priority, id);
        }
        prop_assert_eq!(heap.len(), wheel.len());
        let h: Vec<PopKey> = heap
            .drain_ordered()
            .into_iter()
            .map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload))
            .collect();
        let w: Vec<PopKey> = wheel
            .drain_ordered()
            .into_iter()
            .map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload))
            .collect();
        prop_assert_eq!(h.len(), times.len());
        prop_assert_eq!(h, w);
    }

    /// `pop_due` — the bulk-horizon primitive behind lazy replica
    /// catch-up — agrees bit-for-bit between the queues: a pop happens
    /// iff the head is at or before the horizon, and a declined pop
    /// leaves both queues untouched. Horizons draw from the same
    /// adversarial time pools as the events, so exact horizon-equals-head
    /// ties (which must pop: the bound is inclusive) are common.
    #[test]
    fn pop_due_is_bit_identical_to_heap(
        ops in proptest::collection::vec((0u8..4, 0u8..4, 0u16..65535, 0u8..3), 0..400),
    ) {
        let mut heap = HeapEventQueue::new();
        let mut wheel = EventQueue::new();
        let mut payload = 0u64;
        for &(op, pool, raw, priority) in &ops {
            match op % 4 {
                0 | 1 => {
                    let time = decode_time(pool, raw);
                    let priority = u32::from(priority % 3);
                    heap.push(time, priority, payload);
                    wheel.push(time, priority, payload);
                    payload += 1;
                }
                2 => {
                    let horizon = decode_time(pool, raw);
                    let h = heap
                        .pop_due(horizon)
                        .map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload));
                    let w = wheel
                        .pop_due(horizon)
                        .map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload));
                    prop_assert_eq!(h, w);
                    if let Some((bits, ..)) = h {
                        prop_assert!(
                            f64::from_bits(bits) <= horizon,
                            "popped past the horizon"
                        );
                    }
                }
                _ => {
                    let h = heap.pop().map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload));
                    let w = wheel.pop().map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload));
                    prop_assert_eq!(h, w);
                }
            }
            prop_assert_eq!(heap.len(), wheel.len());
            prop_assert_eq!(heap.is_empty(), wheel.is_empty());
        }
    }

    /// `peek_time`/`peek` agree between the queues before every pop, and
    /// `len` stays in lockstep.
    #[test]
    fn peek_and_len_agree_throughout(
        ops in proptest::collection::vec((0u8..3, 0u8..4, 0u16..65535, 0u8..3), 0..200),
    ) {
        let mut heap = HeapEventQueue::new();
        let mut wheel = EventQueue::new();
        let mut payload = 0u64;
        for &(op, pool, raw, priority) in &ops {
            if op % 3 < 2 {
                let time = decode_time(pool, raw);
                let priority = u32::from(priority % 3);
                heap.push(time, priority, payload);
                wheel.push(time, priority, payload);
                payload += 1;
            } else {
                prop_assert_eq!(
                    heap.peek_time().map(f64::to_bits),
                    wheel.peek_time().map(f64::to_bits)
                );
                prop_assert_eq!(heap.peek().copied(), wheel.peek().copied());
                let h = heap.pop().map(|e| (e.time.to_bits(), e.seq, e.payload));
                let w = wheel.pop().map(|e| (e.time.to_bits(), e.seq, e.payload));
                prop_assert_eq!(h, w);
            }
            prop_assert_eq!(heap.len(), wheel.len());
            prop_assert_eq!(heap.is_empty(), wheel.is_empty());
        }
    }
}

/// A NaN horizon compares false against every head time: `pop_due` must
/// decline — on both queues — and leave the event in place.
#[test]
fn nan_horizon_pops_nothing_on_either_queue() {
    let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
    let mut wheel: EventQueue<u32> = EventQueue::new();
    heap.push(f64::NEG_INFINITY, 0, 7);
    wheel.push(f64::NEG_INFINITY, 0, 7);
    assert!(heap.pop_due(f64::NAN).is_none());
    assert!(wheel.pop_due(f64::NAN).is_none());
    assert_eq!(heap.len(), 1);
    assert_eq!(wheel.len(), 1);
}

#[test]
#[should_panic(expected = "event time must not be NaN")]
fn wheel_rejects_nan_push() {
    let mut q: EventQueue<()> = EventQueue::new();
    q.push(f64::NAN, 0, ());
}

#[test]
#[should_panic(expected = "event time must not be NaN")]
fn heap_rejects_nan_push() {
    let mut q: HeapEventQueue<()> = HeapEventQueue::new();
    q.push(f64::NAN, 0, ());
}

/// `total_cmp` would give a NaN a place after `+inf`, so only the push
/// check keeps one out of a heap that already holds events.
#[test]
#[should_panic(expected = "event time must not be NaN")]
fn heap_nan_time_is_rejected() {
    let mut q: HeapEventQueue<()> = HeapEventQueue::new();
    q.push(f64::INFINITY, 0, ());
    q.push(f64::NAN, 0, ());
}

#[test]
fn sparse_and_clustered_times_survive_rebuilds() {
    // A bimodal distribution (dense cluster + far outliers) exercises
    // the calibrated width, the year-lap fallback and the direct
    // search. Verified against the reference heap.
    let mut wheel = EventQueue::new();
    let mut heap = HeapEventQueue::new();
    let times: Vec<f64> = (0..200)
        .map(|i| {
            if i % 7 == 0 {
                1.0e6 + f64::from(i)
            } else {
                f64::from(i % 13) * 1e-3
            }
        })
        .collect();
    for (i, &t) in times.iter().enumerate() {
        wheel.push(t, (i % 3) as u32, i);
        heap.push(t, (i % 3) as u32, i);
    }
    let pw: Vec<(u64, usize)> = wheel
        .drain_ordered()
        .into_iter()
        .map(|e| (e.time.to_bits(), e.payload))
        .collect();
    let ph: Vec<(u64, usize)> = heap
        .drain_ordered()
        .into_iter()
        .map(|e| (e.time.to_bits(), e.payload))
        .collect();
    assert_eq!(pw, ph);
}

#[test]
fn heap_and_wheel_agree_on_interleaved_traffic() {
    // Mixed pushes and pops (a serving-like pattern: drain a bit,
    // schedule more) must stay in lockstep, including seq numbering.
    let mut wheel = EventQueue::new();
    let mut heap = HeapEventQueue::new();
    let mut step = 0u64;
    for round in 0..40u64 {
        for k in 0..5u64 {
            step = step
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(round + k);
            let t = ((step >> 33) % 1000) as f64 * 0.25;
            let p = (step % 3) as u32;
            assert_eq!(wheel.push(t, p, step), heap.push(t, p, step));
        }
        for _ in 0..3 {
            let a = wheel
                .pop()
                .map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload));
            let b = heap
                .pop()
                .map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload));
            assert_eq!(a, b);
        }
        assert_eq!(wheel.peek_time(), heap.peek_time());
    }
    assert_eq!(
        wheel
            .drain_ordered()
            .into_iter()
            .map(|e| e.seq)
            .collect::<Vec<_>>(),
        heap.drain_ordered()
            .into_iter()
            .map(|e| e.seq)
            .collect::<Vec<_>>()
    );
}
