//! Flow layer: a deterministic flow-level network simulator.
//!
//! A *flow* is a point-to-point transfer of `bytes` along its fixed
//! route in a [`Topology`]. Active flows share link bandwidth max-min
//! fairly ([`crate::link::max_min_rates`]); rates can change only when a
//! flow arrives or departs (fluid model — no packets). Collectives are
//! expressed as dependency DAGs of phases: [`FlowSim::inject_phase`]
//! injects one phase's flows (a ring round, a direct exchange, a gather
//! or a scatter), and they start when the last flow they depend on
//! finishes. That encodes phase barriers (ring rounds, reduce-scatter
//! before all-gather) without any scheduler logic in here.
//!
//! A phase waits on one barrier record, which counts its unfinished
//! dependencies; each dependency lists the barriers waiting on it. A
//! finishing flow decrements those barriers, and one that reaches zero
//! starts its flows in injection order and frees its record for the next
//! barrier. [`FlowSim::inject`] is a phase of one flow.
//!
//! Rates are solved again before time advances past an arrival or a
//! departure, except a departure no other flow can feel: a zero-byte or
//! self flow, which never shares a link, or a flow that crossed only
//! links it had to itself, none of which bottlenecked the last solve.
//! Solving without such a flow gives every survivor the same rate bits
//! (DESIGN.md §3.9 has the proof), so it is not solved.
//!
//! A flow's record lives until its caller takes it
//! ([`FlowSim::take_finished`]); the next injection reuses the slot. A
//! caller that takes each flow as it finishes (the cluster's control
//! fabric) holds only the flows in flight; one that never takes any (the
//! collectives) reads every finish time at the end.
//!
//! Determinism: each flow in flight holds its finish time at its current
//! rate and the number of finish times set before it. The next flow to
//! finish is the least by `(finish time via f64::total_cmp, that
//! number)`, so flows due at one instant finish in the order their
//! finish times were set. A finish time is set only when a flow's rate
//! changes bits (a zero-byte or self flow's, at activation), active
//! flows are scanned in activation order, and [`FlowSim::next_time`]
//! reports only instants at which a flow finishes. The result is
//! byte-identical across runs and `DCM_THREADS` settings, and does not
//! depend on which flows were taken.

use crate::link::{max_min_rates, MaxMinScratch};
use crate::topology::{NodeId, RouteId, Topology};

/// Index of a flow within its [`FlowSim`].
pub type FlowId = usize;

/// Index of a barrier record within its [`FlowSim`].
type BarrierId = usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum FlowState {
    /// Waiting behind a closed barrier.
    #[default]
    Pending,
    /// Transferring.
    Active,
    /// Finished, not yet taken.
    Done,
    /// Taken: the slot waits for the next flow, `next` being the slot
    /// freed before it.
    Free { next: Option<FlowId> },
}

#[derive(Debug, Clone, Default)]
struct FlowRec {
    /// `None` for a self flow (`src == dst`), which crosses no link.
    route: Option<RouteId>,
    remaining: f64,
    rate: f64,
    /// Finish time: at the current rate while active, the time the flow
    /// finished once done.
    due_s: f64,
    /// How many finish times the simulator set before `due_s`: the
    /// tie-break between flows due at one instant.
    order: u64,
    state: FlowState,
    /// The closed barriers waiting on this flow, in the order they were
    /// created.
    waiters: Vec<BarrierId>,
}

impl FlowRec {
    /// Set the finish time, numbered after every one set before it.
    fn set_due(&mut self, due_s: f64, dues_set: &mut u64) {
        self.due_s = due_s;
        self.order = *dues_set;
        *dues_set += 1;
    }
}

/// The flows of one injection call, waiting on their dependencies.
#[derive(Debug, Default)]
struct Barrier {
    /// Dependency flows not yet finished: the barrier opens at zero.
    unmet: usize,
    /// The flows behind the barrier, in injection order. Empty, its
    /// capacity kept, once the barrier opened and freed its record.
    flows: Vec<FlowId>,
    /// While the record is free: the record freed before it.
    next_free: Option<BarrierId>,
}

/// Deterministic flow-level simulator over one [`Topology`].
#[derive(Debug)]
pub struct FlowSim {
    topo: Topology,
    /// Link capacities, read from the topology once.
    caps: Vec<f64>,
    now: f64,
    flows: Vec<FlowRec>,
    /// The slot freed last; the free slots form a list through
    /// `FlowState::Free`.
    free: Option<FlowId>,
    barriers: Vec<Barrier>,
    /// The barrier record freed last; the free records form a list
    /// through `Barrier::next_free`.
    free_barrier: Option<BarrierId>,
    /// Active flow ids in activation order (per-link FIFO order follows
    /// from this because routes are fixed).
    active: Vec<FlowId>,
    /// How many active flows cross each link.
    link_flows: Vec<usize>,
    /// Activated zero-byte and self flows, each due at its activation
    /// instant, in activation order.
    instant: Vec<FlowId>,
    /// Finish times set so far; the next one set gets this `order`.
    dues_set: u64,
    rates: MaxMinScratch,
    /// True when rates must be recomputed before time can advance.
    dirty: bool,
}

impl FlowSim {
    /// A fresh simulator at time zero.
    #[must_use]
    pub fn new(topo: Topology) -> Self {
        let caps: Vec<f64> = topo.links().iter().map(|l| l.capacity_bps).collect();
        FlowSim {
            link_flows: vec![0; caps.len()],
            caps,
            topo,
            now: 0.0,
            flows: Vec::new(),
            free: None,
            barriers: Vec::new(),
            free_barrier: None,
            active: Vec::new(),
            instant: Vec::new(),
            dues_set: 0,
            rates: MaxMinScratch::default(),
            dirty: false,
        }
    }

    /// Inject a flow of `bytes` from `src` to `dst` at the current time,
    /// starting once every flow in `deps` has finished. Returns its id,
    /// which may be the slot of a flow taken earlier.
    ///
    /// Zero-byte flows and flows with `src == dst` complete instantly
    /// when their dependencies do (degenerate inputs are no-ops, same
    /// contract as [`crate::CollectiveModel::time`]).
    ///
    /// # Panics
    /// Panics if no route `src → dst` exists (and `src != dst`), or a
    /// dependency id is unknown or names a flow already taken.
    pub fn inject(&mut self, src: NodeId, dst: NodeId, bytes: u64, deps: &[FlowId]) -> FlowId {
        let route = self.route(src, dst);
        let barrier = self.barrier(deps);
        self.add_flow(route, dcm_core::cast::u64_to_f64(bytes), barrier)
    }

    /// Inject one phase: a flow of `bytes` (fractional: collective
    /// chunks are `bytes / n`) for each `(src, dst)` pair, all starting
    /// once every flow in `deps` has finished. Returns their ids in pair
    /// order, the order in which they start. Same contract as
    /// [`FlowSim::inject`] for each flow.
    ///
    /// # Panics
    /// Panics under the same conditions as [`FlowSim::inject`], or if
    /// `bytes` is negative or not finite.
    pub fn inject_phase(
        &mut self,
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
        bytes: f64,
        deps: &[FlowId],
    ) -> Vec<FlowId> {
        assert!(bytes.is_finite() && bytes >= 0.0, "bad flow size {bytes}");
        let barrier = self.barrier(deps);
        pairs
            .into_iter()
            .map(|(src, dst)| {
                let route = self.route(src, dst);
                self.add_flow(route, bytes, barrier)
            })
            .collect()
    }

    /// The route a flow `src → dst` takes; `None` for a self flow.
    fn route(&self, src: NodeId, dst: NodeId) -> Option<RouteId> {
        if src == dst {
            return None;
        }
        Some(
            self.topo
                .route(src, dst)
                .unwrap_or_else(|| panic!("no route {src} -> {dst}")),
        )
    }

    /// A closed barrier over the flows of `deps` that have not finished,
    /// or `None` if all of them have.
    fn barrier(&mut self, deps: &[FlowId]) -> Option<BarrierId> {
        let mut waits = false;
        for &d in deps {
            let state = self.flows.get(d).map(|f| f.state);
            assert!(
                state.is_some_and(|s| !matches!(s, FlowState::Free { .. })),
                "dependency {d} is unknown or was taken"
            );
            waits |= state != Some(FlowState::Done);
        }
        if !waits {
            return None;
        }
        let b = match self.free_barrier {
            Some(b) => {
                self.free_barrier = self.barriers[b].next_free;
                b
            }
            None => {
                // dcm-lint: allow(A1) only a flow with dependencies gets here: the table grows to the most barriers closed at once
                self.barriers.push(Barrier::default());
                self.barriers.len() - 1
            }
        };
        let mut unmet = 0;
        for &d in deps {
            let dep = &mut self.flows[d];
            // A dependency named twice is waited on once.
            if dep.state != FlowState::Done && dep.waiters.last() != Some(&b) {
                // dcm-lint: allow(A1) only a flow with dependencies gets here: one entry per unfinished dependency of a barrier
                dep.waiters.push(b);
                unmet += 1;
            }
        }
        self.barriers[b].unmet = unmet;
        Some(b)
    }

    /// Put a flow of `bytes` on `route` in a free slot, behind `barrier`
    /// or, with none, active at once. Returns its id.
    fn add_flow(
        &mut self,
        route: Option<RouteId>,
        bytes: f64,
        barrier: Option<BarrierId>,
    ) -> FlowId {
        let id = match self.free {
            Some(id) => {
                let FlowState::Free { next } = self.flows[id].state else {
                    unreachable!("the free list holds only taken slots")
                };
                self.free = next;
                id
            }
            None => {
                // dcm-lint: allow(A1) runs only when no taken slot is free: the table grows to the most flows held at once
                self.flows.push(FlowRec::default());
                self.flows.len() - 1
            }
        };
        let f = &mut self.flows[id];
        f.route = route;
        f.remaining = bytes;
        f.rate = 0.0;
        f.state = FlowState::Pending;
        match barrier {
            // dcm-lint: allow(A1) only a flow with dependencies gets here: one entry per flow behind a barrier
            Some(b) => self.barriers[b].flows.push(id),
            None => self.activate(id, self.now),
        }
        id
    }

    fn activate(&mut self, id: FlowId, t: f64) {
        let f = &mut self.flows[id];
        debug_assert_eq!(f.state, FlowState::Pending);
        f.state = FlowState::Active;
        match f.route {
            Some(r) if f.remaining > 0.0 => {
                for &l in self.topo.route_links(r) {
                    self.link_flows[l] += 1;
                }
                // dcm-lint: allow(A1) holds only flows in flight and keeps its capacity as they finish: grows to the most flows active at once
                self.active.push(id);
                self.dirty = true;
            }
            _ => {
                // Degenerate no-op: due at activation. It finishes in
                // `advance_to` (rather than inline) so dependants start
                // in the order of their dependencies' finish times. It
                // shares no link, so the rates stay as they are.
                f.set_due(t, &mut self.dues_set);
                // dcm-lint: allow(A1) holds only degenerate flows not yet finished and keeps its capacity: grows to the most activated at one instant
                self.instant.push(id);
            }
        }
    }

    /// Bring the max-min allocation up to date and set a new finish time
    /// for every flow whose rate changed.
    fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        let rates = max_min_rates(
            &self.caps,
            self.active.len(),
            |i| {
                let route = self.flows[self.active[i]].route;
                route.map_or(&[][..], |r| self.topo.route_links(r))
            },
            &mut self.rates,
        );
        for (&id, &r) in self.active.iter().zip(rates) {
            let f = &mut self.flows[id];
            // A finish time changes only with the rate: in symmetric
            // phases (ring rounds) most departures leave survivors' rates
            // untouched, and those keep their finish time and its order.
            if r.to_bits() == f.rate.to_bits() {
                continue;
            }
            f.rate = r;
            let eta = if r > 0.0 {
                self.now + (f.remaining / r).max(0.0)
            } else {
                // Starved flow (cannot happen with positive capacities,
                // but stay finite): park it far out; the next rate
                // change moves it.
                self.now + 1.0e18
            };
            f.set_due(eta, &mut self.dues_set);
        }
    }

    /// Integrate transferred bytes for all active flows up to `t`.
    fn integrate(&mut self, t: f64) {
        let dt = t - self.now;
        if dt > 0.0 {
            for &id in &self.active {
                let f = &mut self.flows[id];
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
        }
        self.now = t;
    }

    /// The flow that finishes next, if any is in flight: the least by
    /// `(due_s via f64::total_cmp, order)`. Returns its position in
    /// `instant` followed by `active`, and its finish time. Rates must be
    /// settled.
    fn next_finish(&self) -> Option<(usize, f64)> {
        self.instant
            .iter()
            .chain(&self.active)
            .map(|&id| &self.flows[id])
            .enumerate()
            .min_by(|(_, a), (_, b)| a.due_s.total_cmp(&b.due_s).then(a.order.cmp(&b.order)))
            .map(|(at, f)| (at, f.due_s))
    }

    /// Time of the next flow completion, if any flow is in flight. Some
    /// flow finishes at that instant.
    pub fn next_time(&mut self) -> Option<f64> {
        self.settle();
        self.next_finish().map(|(_, due_s)| due_s)
    }

    /// Advance the simulation to `t`, processing every completion due at
    /// or before it.
    ///
    /// # Panics
    /// Panics if `t` is NaN or before the current time.
    pub fn advance_to(&mut self, t: f64) {
        assert!(!t.is_nan(), "time is NaN");
        assert!(t >= self.now, "time went backwards: {t} < {}", self.now);
        loop {
            self.settle();
            match self.next_finish() {
                Some((at, due_s)) if due_s <= t => {
                    self.integrate(due_s);
                    self.finish(at, due_s);
                }
                _ => break,
            }
        }
        self.integrate(t);
    }

    /// Finish the flow at position `at` of [`next_finish`](Self::next_finish)
    /// at `t`, its finish time.
    fn finish(&mut self, at: usize, t: f64) {
        // Removed in place, so `active` keeps activation order.
        let id = match at.checked_sub(self.instant.len()) {
            Some(i) => {
                let id = self.active.remove(i);
                self.depart(id);
                id
            }
            None => self.instant.remove(at),
        };
        let f = &mut self.flows[id];
        f.state = FlowState::Done;
        f.remaining = 0.0;
        for b in std::mem::take(&mut f.waiters) {
            let barrier = &mut self.barriers[b];
            barrier.unmet -= 1;
            if barrier.unmet == 0 {
                self.open(b, t);
            }
        }
    }

    /// Take a departing active flow off its links, and mark the rates
    /// dirty unless no survivor can feel the departure: a flow that had
    /// each of its links to itself, none of which bottlenecked the last
    /// solve, leaves every survivor's rate bits as they are (DESIGN.md
    /// §3.9).
    fn depart(&mut self, id: FlowId) {
        let Some(route) = self.flows[id].route else {
            unreachable!("an active flow crosses a link")
        };
        for &l in self.topo.route_links(route) {
            self.dirty |= self.link_flows[l] > 1 || self.rates.was_bottleneck(l);
            self.link_flows[l] -= 1;
        }
    }

    /// Start a barrier's flows at `t`, in injection order, and free its
    /// record.
    fn open(&mut self, b: BarrierId, t: f64) {
        let mut flows = std::mem::take(&mut self.barriers[b].flows);
        for &id in &flows {
            self.activate(id, t);
        }
        flows.clear();
        let barrier = &mut self.barriers[b];
        barrier.flows = flows;
        barrier.next_free = self.free_barrier;
        self.free_barrier = Some(b);
    }

    /// Run until every injected flow has finished; returns the
    /// simulation time then: the makespan (time the last flow finished,
    /// excluding route latency), unless an earlier
    /// [`advance_to`](Self::advance_to) went past it.
    ///
    /// # Panics
    /// Panics if pending flows remain whose dependencies can never fire
    /// (a dependency cycle cannot be constructed through the public API,
    /// so this indicates internal inconsistency).
    pub fn run_to_completion(&mut self) -> f64 {
        while let Some(t) = self.next_time() {
            self.advance_to(t);
        }
        assert!(
            self.flows
                .iter()
                .all(|f| matches!(f.state, FlowState::Done | FlowState::Free { .. })),
            "flows stuck pending"
        );
        self.now
    }

    /// Delivery time of a finished flow — its transfer's completion plus
    /// its route's latency (a store-and-forward approximation; zero on
    /// in-node fabrics) — or `None` while the flow is in flight.
    /// Taking a finished flow frees its slot for the next
    /// [`inject`](Self::inject): its id then names nothing, or the flow
    /// injected next.
    ///
    /// # Panics
    /// Panics if the flow was already taken and its slot not reused.
    pub fn take_finished(&mut self, id: FlowId) -> Option<f64> {
        let f = &mut self.flows[id];
        match f.state {
            FlowState::Done => {}
            FlowState::Pending | FlowState::Active => return None,
            FlowState::Free { .. } => panic!("flow {id} was already taken"),
        }
        f.state = FlowState::Free { next: self.free };
        self.free = Some(id);
        Some(f.due_s + f.route.map_or(0.0, |r| self.topo.route_latency(r)))
    }

    /// Transfer completion time (bandwidth release) of a finished flow
    /// that has not been taken. NaN while in flight.
    #[must_use]
    pub fn finish_time(&self, id: FlowId) -> f64 {
        let f = &self.flows[id];
        match f.state {
            FlowState::Pending | FlowState::Active => f64::NAN,
            FlowState::Done | FlowState::Free { .. } => f.due_s,
        }
    }

    /// Bytes still to transfer on one flow that has not been taken
    /// (fractional under the fluid model).
    #[must_use]
    // dcm-lint: allow(R1) test hook; prop_fabric_diff::links_conserve_bytes
    pub fn remaining_bytes(&self, id: FlowId) -> f64 {
        self.flows[id].remaining
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_link() -> Topology {
        let mut t = Topology::new(2);
        let l = t.add_link(0, 1, 10.0, 0.0);
        t.add_route(0, 1, vec![l]);
        t
    }

    #[test]
    fn single_flow_runs_at_line_rate() {
        let mut sim = FlowSim::new(one_link());
        let f = sim.inject(0, 1, 100, &[]);
        let end = sim.run_to_completion();
        assert!((end - 10.0).abs() < 1e-12);
        assert!((sim.finish_time(f) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        // Both start at 0 on a 10 B/s link: rate 5 each. Flow B (50 B)
        // finishes at t=10; flow A (100 B) then gets the full link:
        // 50 B done at t=10, 50 B left at 10 B/s → t=15.
        let mut sim = FlowSim::new(one_link());
        let a = sim.inject(0, 1, 100, &[]);
        let b = sim.inject(0, 1, 50, &[]);
        sim.run_to_completion();
        assert!((sim.finish_time(b) - 10.0).abs() < 1e-9);
        assert!((sim.finish_time(a) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn dependencies_serialize_flows() {
        let mut sim = FlowSim::new(one_link());
        let a = sim.inject(0, 1, 100, &[]);
        let b = sim.inject(0, 1, 100, &[a]);
        // b starts when a finishes at t=10, then has the link alone.
        sim.advance_to(15.0);
        assert_eq!(sim.take_finished(b), None, "b is still transferring");
        assert!((sim.remaining_bytes(b) - 50.0).abs() < 1e-9);
        sim.run_to_completion();
        assert!((sim.finish_time(a) - 10.0).abs() < 1e-12);
        assert!((sim.finish_time(b) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn zero_byte_and_self_flows_are_instant() {
        let mut sim = FlowSim::new(one_link());
        let z = sim.inject(0, 1, 0, &[]);
        let s = sim.inject(0, 0, 1 << 20, &[]);
        let gated = sim.inject(0, 1, 10, &[z, s]);
        let end = sim.run_to_completion();
        assert_eq!(sim.finish_time(z).to_bits(), 0.0f64.to_bits());
        assert_eq!(sim.finish_time(s).to_bits(), 0.0f64.to_bits());
        assert!((end - 1.0).abs() < 1e-12);
        // Its dependencies finished at once, so 10 B at 10 B/s from t=0.
        assert!((sim.finish_time(gated) - 1.0).abs() < 1e-12);
        // A self flow crosses no link and pays no route latency.
        assert_eq!(
            sim.take_finished(s).map(f64::to_bits),
            Some(0.0f64.to_bits())
        );
    }

    #[test]
    fn latency_is_added_to_delivery_not_bandwidth() {
        let mut t = Topology::new(2);
        let l = t.add_link(0, 1, 10.0, 2.5);
        t.add_route(0, 1, vec![l]);
        let mut sim = FlowSim::new(t);
        let f = sim.inject(0, 1, 100, &[]);
        sim.run_to_completion();
        assert!((sim.finish_time(f) - 10.0).abs() < 1e-12);
        let delivered = sim.take_finished(f).expect("the flow finished");
        assert!((delivered - 12.5).abs() < 1e-12);
    }

    #[test]
    fn advance_to_is_incremental() {
        let mut sim = FlowSim::new(one_link());
        let f = sim.inject(0, 1, 100, &[]);
        sim.advance_to(4.0);
        assert!((sim.remaining_bytes(f) - 60.0).abs() < 1e-9);
        assert_eq!(sim.take_finished(f), None, "still in flight at t=4");
        sim.advance_to(20.0);
        let done = sim.take_finished(f).expect("finished by t=20");
        assert!((done - 10.0).abs() < 1e-12);
    }

    #[test]
    fn a_reused_slot_finishes_at_its_own_occupants_time() {
        // A (100 B) and B (20 B) share the 10 B/s link, so A is first due
        // at t=20. B finishes at t=4, A speeds up and finishes at t=12.
        let mut sim = FlowSim::new(one_link());
        let a = sim.inject(0, 1, 100, &[]);
        let b = sim.inject(0, 1, 20, &[]);
        sim.advance_to(12.0);
        let done = sim.take_finished(a).expect("A finished at t=12");
        assert!((done - 12.0).abs() < 1e-12);
        // C takes A's slot at t=12 and needs 10 s alone on the link,
        // past A's first due time of t=20.
        let c = sim.inject(0, 1, 100, &[]);
        assert_eq!(c, a, "the freed slot is reused");
        sim.run_to_completion();
        assert!((sim.finish_time(c) - 22.0).abs() < 1e-12);
        assert!((sim.finish_time(b) - 4.0).abs() < 1e-12, "B was not taken");
    }

    #[test]
    fn next_time_is_the_next_finish_after_a_rate_change() {
        // A (100 B) runs alone until B (20 B) joins at t=2: A has 80 B
        // left and is due at t=18 at half rate. B finishes at t=6, and A,
        // back at full rate with 60 B left, is due at t=12. A finish
        // time A was given earlier (t=10 alone, t=18 shared) is no
        // instant at which anything finishes.
        let mut sim = FlowSim::new(one_link());
        let a = sim.inject(0, 1, 100, &[]);
        sim.advance_to(2.0);
        let b = sim.inject(0, 1, 20, &[]);
        sim.advance_to(6.0);
        assert_eq!(sim.finish_time(b).to_bits(), 6.0f64.to_bits());
        assert_eq!(sim.next_time(), Some(12.0));
        assert_eq!(sim.run_to_completion().to_bits(), 12.0f64.to_bits());
        assert_eq!(sim.finish_time(a).to_bits(), 12.0f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn a_flow_is_taken_once() {
        let mut sim = FlowSim::new(one_link());
        let f = sim.inject(0, 1, 10, &[]);
        sim.run_to_completion();
        sim.take_finished(f);
        sim.take_finished(f);
    }
}
