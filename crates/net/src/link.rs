//! Link layer: deterministic max-min fair bandwidth sharing.
//!
//! Given a set of active flows, each pinned to a fixed route of links,
//! this layer answers one question: *what rate does each flow get right
//! now?* The answer is the classic max-min fair allocation computed by
//! progressive filling (water-filling):
//!
//! 1. Grow every unfrozen flow's rate at the same pace.
//! 2. The first link to saturate (the global bottleneck) freezes every
//!    flow that crosses it at its current rate.
//! 3. Repeat with the surviving flows and residual capacities until all
//!    flows are frozen.
//!
//! Determinism: links are scanned in id order and ties in the bottleneck
//! choice resolve to the lowest link id, so the allocation is a pure
//! function of `(capacities, paths)` — byte-identical across runs and
//! thread counts. A solve records which links it chose as bottlenecks:
//! the flow layer reads that record to tell a departure that cannot
//! move any survivor's rate from one that can (DESIGN.md §3.9). The fairness invariants (each iteration freezes at
//! least one flow; a flow's rate never exceeds any of its links' fair
//! shares; saturated links are exactly filled) are property-tested in
//! `tests/tests/prop_fabric_diff.rs`.

use crate::topology::LinkId;
use dcm_core::cast::usize_to_f64;

/// The buffers [`max_min_rates`] works in. A caller that solves again
/// and again (the flow layer, at every arrival and departure) keeps one,
/// so a solve allocates only while the flow count reaches a new high.
#[derive(Debug, Default)]
pub struct MaxMinScratch {
    rate: Vec<f64>,
    frozen: Vec<bool>,
    rem: Vec<f64>,
    cnt: Vec<usize>,
    /// Per link: whether the last solve chose it as the bottleneck of one
    /// of its iterations.
    bottleneck: Vec<bool>,
}

impl MaxMinScratch {
    /// Whether the last solve chose link `l` as the bottleneck of one of
    /// its iterations.
    pub(crate) fn was_bottleneck(&self, l: LinkId) -> bool {
        self.bottleneck[l]
    }
}

/// Max-min fair rates for `flows` flows, flow `f` crossing the links
/// `path(f)`, over links of capacity `capacity[l]` (bytes/s). Returns one
/// rate per flow, in flow order, in `scratch`'s rate buffer, and records
/// in `scratch` which links it chose as bottlenecks.
///
/// Every flow must cross at least one link; a flow with an empty path has
/// no bottleneck and is the caller's responsibility (the flow layer
/// completes such flows instantly instead of calling in here).
///
/// # Panics
/// Panics if a path is empty or references an out-of-range link.
pub fn max_min_rates<'p, 's>(
    capacity: &[f64],
    flows: usize,
    path: impl Fn(usize) -> &'p [usize],
    scratch: &'s mut MaxMinScratch,
) -> &'s [f64] {
    let MaxMinScratch {
        rate,
        frozen,
        rem,
        cnt,
        bottleneck: chosen,
    } = scratch;
    let nl = capacity.len();
    chosen.clear();
    // dcm-lint: allow(A1) a buffer kept across solves: grows only to the topology's link count
    chosen.resize(nl, false);
    rate.clear();
    // dcm-lint: allow(A1) a buffer kept across solves: grows only to the most flows in flight
    rate.resize(flows, 0.0);
    if flows == 0 {
        return rate;
    }
    frozen.clear();
    // dcm-lint: allow(A1) a buffer kept across solves: grows only to the most flows in flight
    frozen.resize(flows, false);
    rem.clear();
    // dcm-lint: allow(A1) a buffer kept across solves: grows only to the topology's link count
    rem.extend_from_slice(capacity);
    cnt.clear();
    // dcm-lint: allow(A1) a buffer kept across solves: grows only to the topology's link count
    cnt.resize(nl, 0);
    for f in 0..flows {
        let p = path(f);
        assert!(!p.is_empty(), "flow with empty path reached the link layer");
        for &l in p {
            assert!(l < nl, "path references unknown link {l}");
            cnt[l] += 1;
        }
    }

    let mut unfrozen = flows;
    // Each iteration freezes >= 1 flow, so `flows` iterations suffice;
    // the bound is a belt-and-braces guard against float pathologies.
    for _ in 0..=flows {
        if unfrozen == 0 {
            break;
        }
        // Global bottleneck: the link whose fair share of residual
        // capacity is smallest. Ties resolve to the lowest link id
        // because `<` is strict and links are scanned in id order.
        let mut bottleneck = usize::MAX;
        let mut inc = f64::INFINITY;
        for (l, (&r, &c)) in rem.iter().zip(cnt.iter()).enumerate() {
            if c == 0 {
                continue;
            }
            let share = r / usize_to_f64(c);
            if share.total_cmp(&inc).is_lt() {
                inc = share;
                bottleneck = l;
            }
        }
        assert!(
            bottleneck != usize::MAX,
            "unfrozen flow crosses no counted link"
        );
        chosen[bottleneck] = true;
        let inc = inc.max(0.0);
        // Grant the increment to every unfrozen flow and charge its links.
        for (f, (r, &done)) in rate.iter_mut().zip(frozen.iter()).enumerate() {
            if done {
                continue;
            }
            *r += inc;
            for &l in path(f) {
                rem[l] -= inc;
            }
        }
        // The bottleneck is exactly filled by construction; pin it to
        // zero so float residue cannot stall the freeze step.
        rem[bottleneck] = 0.0;
        for r in rem.iter_mut() {
            if *r < 0.0 {
                *r = 0.0;
            }
        }
        // Freeze flows crossing any saturated link and retire their
        // demand from the counts.
        for (f, done) in frozen.iter_mut().enumerate() {
            if *done {
                continue;
            }
            let p = path(f);
            if p.iter().any(|&l| rem[l] <= 0.0) {
                *done = true;
                unfrozen -= 1;
                for &l in p {
                    cnt[l] -= 1;
                }
            }
        }
    }
    debug_assert!(frozen.iter().all(|&f| f), "progressive filling stalled");
    rate
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_min(capacity: &[f64], paths: &[&[usize]]) -> Vec<f64> {
        let mut scratch = MaxMinScratch::default();
        max_min_rates(capacity, paths.len(), |f| paths[f], &mut scratch).to_vec()
    }

    #[test]
    fn equal_split_on_shared_link() {
        let rates = max_min(&[12.0], &[&[0], &[0], &[0]]);
        for r in rates {
            assert!((r - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn disjoint_flows_get_full_capacity() {
        let rates = max_min(&[5.0, 7.0], &[&[0], &[1]]);
        assert!((rates[0] - 5.0).abs() < 1e-12);
        assert!((rates[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn classic_water_filling_example() {
        // Flow 0 crosses both links; flow 1 only link 0; flow 2 only
        // link 1. cap = [10, 4]. Bottleneck: link 1 share 2 → flows 0,2
        // freeze at 2; flow 1 then fills link 0's residue: 10-2 = 8.
        let rates = max_min(&[10.0, 4.0], &[&[0, 1], &[0], &[1]]);
        assert!((rates[0] - 2.0).abs() < 1e-12);
        assert!((rates[1] - 8.0).abs() < 1e-12);
        assert!((rates[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn a_solve_records_its_bottlenecks() {
        // The water-filling example above: link 1 bottlenecks the first
        // iteration, link 0 the second. Link 2 carries a flow that link
        // 0 freezes, so it saturates no iteration.
        let mut scratch = MaxMinScratch::default();
        let paths: [&[usize]; 3] = [&[0, 1], &[0, 2], &[1]];
        max_min_rates(&[10.0, 4.0, 100.0], 3, |f| paths[f], &mut scratch);
        let chosen: Vec<bool> = (0..3).map(|l| scratch.was_bottleneck(l)).collect();
        assert_eq!(chosen, [true, true, false]);
        // The record is the last solve's alone.
        max_min_rates(&[10.0, 4.0, 100.0], 1, |_| &[2][..], &mut scratch);
        let chosen: Vec<bool> = (0..3).map(|l| scratch.was_bottleneck(l)).collect();
        assert_eq!(chosen, [false, false, true]);
    }

    #[test]
    fn no_link_oversubscribed() {
        let caps = [3.0, 5.0, 2.0];
        let paths: Vec<&[usize]> = vec![&[0, 1], &[1, 2], &[0, 2], &[1]];
        let rates = max_min(&caps, &paths);
        let mut load = [0.0f64; 3];
        for (r, p) in rates.iter().zip(&paths) {
            for &l in *p {
                load[l] += r;
            }
        }
        for (l, (&used, &cap)) in load.iter().zip(&caps).enumerate() {
            assert!(used <= cap * (1.0 + 1e-9), "link {l}: {used} > {cap}");
        }
    }

    #[test]
    fn deterministic_ties_resolve_low_id_first() {
        // Two identical links, two flows each on one: same rates, and a
        // repeat run is bit-identical.
        let a = max_min(&[4.0, 4.0], &[&[0], &[1]]);
        let b = max_min(&[4.0, 4.0], &[&[0], &[1]]);
        assert_eq!(a[0].to_bits(), b[0].to_bits());
        assert_eq!(a[1].to_bits(), b[1].to_bits());
    }
}
