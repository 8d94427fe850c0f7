//! Differential property tests for the event queue: under arbitrary
//! push/pop interleavings — including same-time/same-priority collisions,
//! negative times, infinities and denormals — the binary-heap
//! [`EventQueue`] must pop the bit-identical event sequence of the
//! linear-scan list model ([`ListQueue`]). The model's total order
//! `(time, priority, seq)` via `f64::total_cmp` is the specification; the
//! heap is an optimization that must be observationally indistinguishable
//! from it.

use dcm_core::sim::EventQueue;
use dcm_tests::ListQueue;
use proptest::prelude::*;

/// Decode a raw `(pool, raw)` pair into a time. Pool 0 draws from a tiny
/// colliding set (exact ties are the point: only `seq` can break them),
/// pools 1–3 exercise clustered, astronomically sparse, and
/// sub-microsecond regimes, and pool 4 is bimodal: a dense cluster of
/// exact ties plus far outliers.
fn decode_time(pool: u8, raw: u16) -> f64 {
    match pool % 5 {
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
        3 => f64::from(raw) * 1e-9,
        _ if raw.is_multiple_of(7) => 1.0e6 + f64::from(raw),
        _ => f64::from(raw % 13) * 1e-3,
    }
}

/// Full observable key of a popped event, with the time as raw bits so a
/// `-0.0` vs `0.0` divergence would be caught.
type PopKey = (u64, u32, u64, u64);

/// Replay one op script `(op, pool, raw_time, priority)` against both
/// queues, logging every pop (including `None`s), then drain the rest.
fn run_script(ops: &[(u8, u8, u16, u8)]) -> (Vec<Option<PopKey>>, Vec<Option<PopKey>>) {
    let mut model = ListQueue::default();
    let mut queue = EventQueue::new();
    let mut model_log = Vec::new();
    let mut queue_log = Vec::new();
    let mut payload = 0u64;
    for &(op, pool, raw, priority) in ops {
        if op % 3 < 2 {
            let time = decode_time(pool, raw);
            let priority = u32::from(priority % 3);
            model.push(time, priority, payload);
            queue.push(time, priority, payload);
            payload += 1;
        } else {
            model_log.push(
                model
                    .pop()
                    .map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload)),
            );
            queue_log.push(
                queue
                    .pop()
                    .map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload)),
            );
        }
    }
    for e in std::iter::from_fn(|| model.pop()) {
        model_log.push(Some((e.time.to_bits(), e.priority, e.seq, e.payload)));
    }
    for e in std::iter::from_fn(|| queue.pop()) {
        queue_log.push(Some((e.time.to_bits(), e.priority, e.seq, e.payload)));
    }
    (model_log, queue_log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The queue's pop sequence is bit-identical to the model's under
    /// random interleaved traffic, and the leftovers drain identically.
    #[test]
    fn queue_pops_bit_identical_to_model(
        ops in proptest::collection::vec((0u8..3, 0u8..4, 0u16..65535, 0u8..3), 0..400),
    ) {
        let (model_log, queue_log) = run_script(&ops);
        prop_assert_eq!(model_log, queue_log);
    }

    /// Pure push-then-drain at scale: every event comes back, totally
    /// ordered, identically on both queues. This is the one property that
    /// draws from pool 4, the bimodal cluster-plus-outliers regime.
    #[test]
    fn bulk_drain_is_bit_identical(
        times in proptest::collection::vec((0u8..5, 0u16..65535), 0..1000),
    ) {
        let mut model = ListQueue::default();
        let mut queue = EventQueue::with_capacity(times.len());
        for (i, &(pool, raw)) in times.iter().enumerate() {
            let t = decode_time(pool, raw);
            let priority = u32::try_from(i % 5).expect("small");
            let id = u64::try_from(i).expect("small");
            model.push(t, priority, id);
            queue.push(t, priority, id);
        }
        prop_assert_eq!(model.len(), queue.len());
        let m: Vec<PopKey> = std::iter::from_fn(|| model.pop())
            .map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload))
            .collect();
        let q: Vec<PopKey> = std::iter::from_fn(|| queue.pop())
            .map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload))
            .collect();
        prop_assert_eq!(m.len(), times.len());
        prop_assert_eq!(m, q);
    }

    /// `pop_due` — the bulk-horizon primitive behind lazy replica
    /// catch-up — agrees bit-for-bit between the queues: a pop happens
    /// iff the head is at or before the horizon, and a declined pop
    /// leaves both queues untouched. Horizons draw from the same
    /// adversarial time pools as the events, so exact horizon-equals-head
    /// ties (which must pop: the bound is inclusive) are common.
    #[test]
    fn pop_due_is_bit_identical_to_model(
        ops in proptest::collection::vec((0u8..4, 0u8..4, 0u16..65535, 0u8..3), 0..400),
    ) {
        let mut model = ListQueue::default();
        let mut queue = EventQueue::new();
        let mut payload = 0u64;
        for &(op, pool, raw, priority) in &ops {
            match op % 4 {
                0 | 1 => {
                    let time = decode_time(pool, raw);
                    let priority = u32::from(priority % 3);
                    model.push(time, priority, payload);
                    queue.push(time, priority, payload);
                    payload += 1;
                }
                2 => {
                    let horizon = decode_time(pool, raw);
                    let m = model
                        .pop_due(horizon)
                        .map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload));
                    let q = queue
                        .pop_due(horizon)
                        .map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload));
                    prop_assert_eq!(m, q);
                    if let Some((bits, ..)) = m {
                        prop_assert!(
                            f64::from_bits(bits) <= horizon,
                            "popped past the horizon"
                        );
                    }
                }
                _ => {
                    let m = model.pop().map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload));
                    let q = queue.pop().map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload));
                    prop_assert_eq!(m, q);
                }
            }
            prop_assert_eq!(model.len(), queue.len());
            prop_assert_eq!(model.is_empty(), queue.is_empty());
        }
    }

    /// `peek_time` agrees between the queues before every pop, and `len`
    /// stays in lockstep.
    #[test]
    fn peek_and_len_agree_throughout(
        ops in proptest::collection::vec((0u8..3, 0u8..4, 0u16..65535, 0u8..3), 0..200),
    ) {
        let mut model = ListQueue::default();
        let mut queue = EventQueue::new();
        let mut payload = 0u64;
        for &(op, pool, raw, priority) in &ops {
            if op % 3 < 2 {
                let time = decode_time(pool, raw);
                let priority = u32::from(priority % 3);
                model.push(time, priority, payload);
                queue.push(time, priority, payload);
                payload += 1;
            } else {
                prop_assert_eq!(
                    model.peek_time().map(f64::to_bits),
                    queue.peek_time().map(f64::to_bits)
                );
                let m = model.pop().map(|e| (e.time.to_bits(), e.seq, e.payload));
                let q = queue.pop().map(|e| (e.time.to_bits(), e.seq, e.payload));
                prop_assert_eq!(m, q);
            }
            prop_assert_eq!(model.len(), queue.len());
            prop_assert_eq!(model.is_empty(), queue.is_empty());
        }
    }
}

/// A NaN horizon compares false against every head time: `pop_due` must
/// decline — on both queues — and leave the event in place.
#[test]
fn nan_horizon_pops_nothing_on_either_queue() {
    let mut model: ListQueue<u32> = ListQueue::default();
    let mut queue: EventQueue<u32> = EventQueue::new();
    model.push(f64::NEG_INFINITY, 0, 7);
    queue.push(f64::NEG_INFINITY, 0, 7);
    assert!(model.pop_due(f64::NAN).is_none());
    assert!(queue.pop_due(f64::NAN).is_none());
    assert_eq!(model.len(), 1);
    assert_eq!(queue.len(), 1);
}

/// `total_cmp` would give a NaN a place after `+inf`, so only the push
/// check keeps one out of a queue that already holds events.
#[test]
#[should_panic(expected = "event time must not be NaN")]
fn nan_push_into_a_nonempty_queue_is_rejected() {
    let mut q: EventQueue<()> = EventQueue::new();
    q.push(f64::INFINITY, 0, ());
    q.push(f64::NAN, 0, ());
}

#[test]
fn queue_and_model_agree_on_interleaved_traffic() {
    // Mixed pushes and pops (a serving-like pattern: drain a bit,
    // schedule more) must stay in lockstep, including seq numbering.
    let mut queue = EventQueue::new();
    let mut model = ListQueue::default();
    let mut step = 0u64;
    for round in 0..40u64 {
        for k in 0..5u64 {
            step = step
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(round + k);
            let t = ((step >> 33) % 1000) as f64 * 0.25;
            let p = (step % 3) as u32;
            assert_eq!(queue.push(t, p, step), model.push(t, p, step));
        }
        for _ in 0..3 {
            let a = queue
                .pop()
                .map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload));
            let b = model
                .pop()
                .map(|e| (e.time.to_bits(), e.priority, e.seq, e.payload));
            assert_eq!(a, b);
        }
        assert_eq!(queue.peek_time(), model.peek_time());
    }
    assert_eq!(
        std::iter::from_fn(|| queue.pop())
            .map(|e| e.seq)
            .collect::<Vec<_>>(),
        std::iter::from_fn(|| model.pop())
            .map(|e| e.seq)
            .collect::<Vec<_>>()
    );
}
