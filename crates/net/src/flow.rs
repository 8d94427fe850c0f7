//! Flow layer: a deterministic flow-level network simulator on the
//! event core of `dcm-core::sim`.
//!
//! A *flow* is a point-to-point transfer of `bytes` along its fixed
//! route in a [`Topology`]. Active flows share link bandwidth max-min
//! fairly ([`crate::link::max_min_rates`]); rates are recomputed on
//! every flow arrival and departure, the only moments the allocation can
//! change (fluid model — no packets). Collectives are expressed as
//! dependency DAGs: a flow may name dependency flows and only starts
//! when the last of them finishes, which encodes phase barriers (ring
//! rounds, reduce-scatter before all-gather) without any scheduler
//! logic in here.
//!
//! Determinism: the event queue's total order `(time, priority, seq)`
//! breaks simultaneous completions, flows are stored and scanned in
//! injection order, and a flow's completion event is re-scheduled only
//! when its rate actually changes (bit comparison) — stale events are
//! skipped via a per-flow version stamp. The result is byte-identical
//! across runs and `DCM_THREADS` settings.

use crate::link::max_min_rates;
use crate::topology::{LinkId, NodeId, Topology};
use dcm_core::sim::EventQueue;

/// Index of a flow within its [`FlowSim`].
pub type FlowId = usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowState {
    /// Waiting on `unmet` dependency flows.
    Pending,
    /// Transferring.
    Active,
    /// Finished.
    Done,
}

#[derive(Debug, Clone)]
struct FlowRec {
    path: Vec<LinkId>,
    remaining: f64,
    rate: f64,
    /// Stamp incremented on every reschedule; completion events carry
    /// the stamp they were scheduled under and are ignored if stale.
    version: u64,
    state: FlowState,
    unmet: usize,
    children: Vec<FlowId>,
    /// Fixed route latency added to the delivery time (store-and-forward
    /// approximation; zero on in-node fabrics).
    latency_s: f64,
    start_s: f64,
    finish_s: f64,
}

#[derive(Debug, Clone, Copy)]
struct Complete {
    flow: FlowId,
    version: u64,
}

/// Deterministic flow-level simulator over one [`Topology`].
#[derive(Debug)]
pub struct FlowSim {
    topo: Topology,
    now: f64,
    queue: EventQueue<Complete>,
    flows: Vec<FlowRec>,
    /// Active flow ids in injection order (per-link FIFO order follows
    /// from this because routes are fixed).
    active: Vec<FlowId>,
    /// True when rates must be recomputed before time can advance.
    dirty: bool,
    undelivered: usize,
    /// Time the most recent flow finished. Tracked separately from `now`
    /// because draining the queue also visits stale (superseded)
    /// completion events, which advance `now` past the last real finish.
    last_finish_s: f64,
}

impl FlowSim {
    /// A fresh simulator at time zero.
    #[must_use]
    pub fn new(topo: Topology) -> Self {
        FlowSim {
            topo,
            now: 0.0,
            queue: EventQueue::new(),
            flows: Vec::new(),
            active: Vec::new(),
            dirty: false,
            undelivered: 0,
            last_finish_s: 0.0,
        }
    }

    /// The topology being simulated.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Inject a flow of `bytes` from `src` to `dst` at the current time,
    /// starting once every flow in `deps` has finished. Returns its id.
    ///
    /// Zero-byte flows and flows with `src == dst` complete instantly
    /// when their dependencies do (degenerate inputs are no-ops, same
    /// contract as [`crate::CollectiveModel::time`]).
    ///
    /// # Panics
    /// Panics if no route `src → dst` exists (and `src != dst`), or a
    /// dependency id is unknown.
    pub fn inject(&mut self, src: NodeId, dst: NodeId, bytes: u64, deps: &[FlowId]) -> FlowId {
        self.inject_impl(src, dst, dcm_core::cast::u64_to_f64(bytes), deps)
    }

    /// Inject a flow whose size is fractional (collective chunks are
    /// `bytes / n`). Same contract as [`FlowSim::inject`].
    ///
    /// # Panics
    /// Panics under the same conditions as [`FlowSim::inject`], or if
    /// `bytes` is negative or not finite.
    pub fn inject_fractional(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
        deps: &[FlowId],
    ) -> FlowId {
        assert!(bytes.is_finite() && bytes >= 0.0, "bad flow size {bytes}");
        self.inject_impl(src, dst, bytes, deps)
    }

    fn inject_impl(&mut self, src: NodeId, dst: NodeId, bytes: f64, deps: &[FlowId]) -> FlowId {
        let path: Vec<LinkId> = if src == dst {
            Vec::new()
        } else {
            self.topo
                .path(src, dst)
                .unwrap_or_else(|| panic!("no route {src} -> {dst}"))
                .to_vec()
        };
        let latency_s = self.topo.route_latency(src, dst);
        let id = self.flows.len();
        let mut unmet = 0usize;
        for &d in deps {
            assert!(d < id, "dependency {d} of flow {id} is unknown");
            if self.flows[d].state != FlowState::Done {
                self.flows[d].children.push(id);
                unmet += 1;
            }
        }
        self.flows.push(FlowRec {
            path,
            remaining: bytes,
            rate: 0.0,
            version: 0,
            state: FlowState::Pending,
            unmet,
            children: Vec::new(),
            latency_s,
            start_s: f64::NAN,
            finish_s: f64::NAN,
        });
        self.undelivered += 1;
        if unmet == 0 {
            self.activate(id, self.now);
        }
        id
    }

    fn activate(&mut self, id: FlowId, t: f64) {
        let f = &mut self.flows[id];
        debug_assert_eq!(f.state, FlowState::Pending);
        f.state = FlowState::Active;
        f.start_s = t;
        if f.path.is_empty() || f.remaining <= 0.0 {
            // Degenerate no-op: completes at activation. Schedule the
            // event (rather than completing inline) so children activate
            // in deterministic queue order.
            f.version += 1;
            let v = f.version;
            self.queue.push(
                t,
                0,
                Complete {
                    flow: id,
                    version: v,
                },
            );
        } else {
            self.active.push(id);
        }
        self.dirty = true;
    }

    /// Bring the max-min allocation up to date and (re)schedule
    /// completion events for flows whose rate changed.
    fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        let caps: Vec<f64> = self.topo.links().iter().map(|l| l.capacity_bps).collect();
        let paths: Vec<&[LinkId]> = self
            .active
            .iter()
            .map(|&f| self.flows[f].path.as_slice())
            .collect();
        let rates = max_min_rates(&caps, &paths);
        for (i, &id) in self.active.iter().enumerate() {
            let f = &mut self.flows[id];
            let r = rates[i];
            // Reschedule only on a real rate change: in symmetric phases
            // (ring rounds) most departures leave survivors' rates
            // untouched, and skipping the no-op reschedule avoids O(F²)
            // event churn.
            if r.to_bits() == f.rate.to_bits() {
                continue;
            }
            f.rate = r;
            f.version += 1;
            let v = f.version;
            let eta = if r > 0.0 {
                self.now + (f.remaining / r).max(0.0)
            } else {
                // Starved flow (cannot happen with positive capacities,
                // but stay finite): park the event far out; the next
                // rate change reschedules it.
                self.now + 1.0e18
            };
            self.queue.push(
                eta,
                0,
                Complete {
                    flow: id,
                    version: v,
                },
            );
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

    /// Time of the next flow completion, if any flow is in flight.
    pub fn next_time(&mut self) -> Option<f64> {
        self.settle();
        self.queue.peek_time()
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
            let Some(et) = self.queue.peek_time() else {
                break;
            };
            if et > t {
                break;
            }
            let ev = match self.queue.pop() {
                Some(ev) => ev,
                None => break,
            };
            let Complete { flow, version } = ev.payload;
            if self.flows[flow].version != version || self.flows[flow].state != FlowState::Active {
                continue; // stale
            }
            self.integrate(ev.time);
            self.finish(flow, ev.time);
        }
        self.integrate(t);
    }

    fn finish(&mut self, id: FlowId, t: f64) {
        {
            let f = &mut self.flows[id];
            f.state = FlowState::Done;
            f.remaining = 0.0;
            f.finish_s = t;
        }
        self.last_finish_s = t;
        self.active.retain(|&f| f != id);
        self.undelivered -= 1;
        self.dirty = true;
        let children = std::mem::take(&mut self.flows[id].children);
        for c in &children {
            let child = &mut self.flows[*c];
            child.unmet -= 1;
        }
        for c in children {
            if self.flows[c].unmet == 0 && self.flows[c].state == FlowState::Pending {
                self.activate(c, t);
            }
        }
    }

    /// Run until every injected flow has finished; returns the makespan
    /// (time the last flow finished, excluding route latency).
    ///
    /// Note this is the last *finish*, not the final `now()`: draining
    /// the queue also visits stale completion events left behind by rate
    /// reschedules, which advance `now` past the last real finish.
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
            self.flows.iter().all(|f| f.state == FlowState::Done),
            "flows stuck pending"
        );
        self.last_finish_s
    }

    /// True when every injected flow has finished.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.undelivered == 0
    }

    /// Delivery time of a finished flow: transfer completion plus its
    /// route latency. NaN while the flow is in flight.
    #[must_use]
    pub fn delivery_time(&self, id: FlowId) -> f64 {
        let f = &self.flows[id];
        f.finish_s + f.latency_s
    }

    /// Transfer completion time (bandwidth release) of a finished flow.
    /// NaN while in flight.
    #[must_use]
    pub fn finish_time(&self, id: FlowId) -> f64 {
        self.flows[id].finish_s
    }

    /// Time the flow started transferring. NaN while pending.
    #[must_use]
    pub fn start_time(&self, id: FlowId) -> f64 {
        self.flows[id].start_s
    }

    /// Bytes still to transfer on one flow (fractional under the fluid
    /// model).
    #[must_use]
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
        sim.run_to_completion();
        assert!((sim.finish_time(a) - 10.0).abs() < 1e-12);
        assert!((sim.start_time(b) - 10.0).abs() < 1e-12);
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
        assert!((sim.start_time(gated) - 0.0).abs() < 1e-12);
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
        assert!((sim.delivery_time(f) - 12.5).abs() < 1e-12);
    }

    #[test]
    fn advance_to_is_incremental() {
        let mut sim = FlowSim::new(one_link());
        let f = sim.inject(0, 1, 100, &[]);
        sim.advance_to(4.0);
        assert!((sim.remaining_bytes(f) - 60.0).abs() < 1e-9);
        assert!(!sim.is_idle());
        sim.advance_to(20.0);
        assert!(sim.is_idle());
        assert!((sim.finish_time(f) - 10.0).abs() < 1e-12);
    }
}
