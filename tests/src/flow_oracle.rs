//! The flow simulator `prop_fabric_diff.rs` checks `dcm_net::FlowSim`
//! against: the simulator as it was before a phase's flows waited on one
//! barrier and before a departure no other flow can feel skipped the
//! rate solve. Each flow lists the flows that depend on it, a phase is a
//! run of single injections with the same dependencies, and the rates
//! are solved again after every activation and every completion.
//!
//! It reads no route of the topology it mirrors: the routes are passed
//! in, so it shares only the link layer's solve with the simulator it
//! checks.

use dcm_core::cast::u64_to_f64;
use dcm_net::link::{max_min_rates, MaxMinScratch};
use dcm_net::{FlowId, LinkId, LinkSpec, NodeId};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Pending,
    Active,
    Done,
    /// Taken; `next` is the slot freed before it.
    Free {
        next: Option<FlowId>,
    },
}

#[derive(Debug, Clone)]
struct Rec {
    /// `None` for a self flow.
    route: Option<usize>,
    remaining: f64,
    rate: f64,
    due_s: f64,
    order: u64,
    state: State,
    unmet: usize,
    children: Vec<FlowId>,
}

/// One fixed route: its links in hop order and their summed latency.
#[derive(Debug, Clone)]
struct Route {
    links: Vec<LinkId>,
    latency_s: f64,
}

/// A flow-level simulator with one child list per flow and a full
/// max-min solve after every completion. Its public methods mirror
/// `FlowSim`'s.
#[derive(Debug)]
pub struct ChildListSim {
    caps: Vec<f64>,
    routes: Vec<Route>,
    route_ids: BTreeMap<(NodeId, NodeId), usize>,
    now: f64,
    flows: Vec<Rec>,
    free: Option<FlowId>,
    active: Vec<FlowId>,
    instant: Vec<FlowId>,
    dues_set: u64,
    rates: MaxMinScratch,
    dirty: bool,
}

impl ChildListSim {
    /// A simulator at time zero over `links`, with the route `path` for
    /// each `((src, dst), path)` of `routes`.
    #[must_use]
    pub fn new(links: &[LinkSpec], routes: &[((NodeId, NodeId), Vec<LinkId>)]) -> Self {
        let mut route_ids = BTreeMap::new();
        let routes = routes
            .iter()
            .enumerate()
            .map(|(i, (pair, path))| {
                assert!(route_ids.insert(*pair, i).is_none(), "one route per pair");
                Route {
                    links: path.clone(),
                    latency_s: path.iter().map(|&l| links[l].latency_s).sum(),
                }
            })
            .collect();
        ChildListSim {
            caps: links.iter().map(|l| l.capacity_bps).collect(),
            routes,
            route_ids,
            now: 0.0,
            flows: Vec::new(),
            free: None,
            active: Vec::new(),
            instant: Vec::new(),
            dues_set: 0,
            rates: MaxMinScratch::default(),
            dirty: false,
        }
    }

    /// `FlowSim::inject`.
    pub fn inject(&mut self, src: NodeId, dst: NodeId, bytes: u64, deps: &[FlowId]) -> FlowId {
        self.inject_bytes(src, dst, u64_to_f64(bytes), deps)
    }

    /// `FlowSim::inject_phase`: one injection per pair, each with `deps`.
    pub fn inject_phase(
        &mut self,
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
        bytes: f64,
        deps: &[FlowId],
    ) -> Vec<FlowId> {
        pairs
            .into_iter()
            .map(|(src, dst)| self.inject_bytes(src, dst, bytes, deps))
            .collect()
    }

    fn inject_bytes(&mut self, src: NodeId, dst: NodeId, bytes: f64, deps: &[FlowId]) -> FlowId {
        let route = (src != dst).then(|| self.route_ids[&(src, dst)]);
        for &d in deps {
            assert!(
                !matches!(self.flows[d].state, State::Free { .. }),
                "dependency {d} was taken"
            );
        }
        let id = match self.free {
            Some(id) => {
                let State::Free { next } = self.flows[id].state else {
                    unreachable!("the free list holds only taken slots")
                };
                self.free = next;
                id
            }
            None => {
                self.flows.push(Rec {
                    route: None,
                    remaining: 0.0,
                    rate: 0.0,
                    due_s: 0.0,
                    order: 0,
                    state: State::Pending,
                    unmet: 0,
                    children: Vec::new(),
                });
                self.flows.len() - 1
            }
        };
        let mut unmet = 0;
        for &d in deps {
            let dep = &mut self.flows[d];
            if dep.state != State::Done {
                dep.children.push(id);
                unmet += 1;
            }
        }
        let f = &mut self.flows[id];
        f.route = route;
        f.remaining = bytes;
        f.rate = 0.0;
        f.state = State::Pending;
        f.unmet = unmet;
        if unmet == 0 {
            self.activate(id, self.now);
        }
        id
    }

    fn set_due(&mut self, id: FlowId, due_s: f64) {
        let f = &mut self.flows[id];
        f.due_s = due_s;
        f.order = self.dues_set;
        self.dues_set += 1;
    }

    fn activate(&mut self, id: FlowId, t: f64) {
        let f = &mut self.flows[id];
        f.state = State::Active;
        if f.route.is_none() || f.remaining <= 0.0 {
            self.set_due(id, t);
            self.instant.push(id);
        } else {
            self.active.push(id);
        }
        self.dirty = true;
    }

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
                route.map_or(&[][..], |r| &self.routes[r].links)
            },
            &mut self.rates,
        );
        for (&id, &r) in self.active.iter().zip(rates) {
            let f = &mut self.flows[id];
            if r.to_bits() == f.rate.to_bits() {
                continue;
            }
            f.rate = r;
            let eta = if r > 0.0 {
                self.now + (f.remaining / r).max(0.0)
            } else {
                self.now + 1.0e18
            };
            f.due_s = eta;
            f.order = self.dues_set;
            self.dues_set += 1;
        }
    }

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

    fn next_finish(&self) -> Option<(usize, f64)> {
        self.instant
            .iter()
            .chain(&self.active)
            .map(|&id| &self.flows[id])
            .enumerate()
            .min_by(|(_, a), (_, b)| a.due_s.total_cmp(&b.due_s).then(a.order.cmp(&b.order)))
            .map(|(at, f)| (at, f.due_s))
    }

    /// `FlowSim::next_time`.
    pub fn next_time(&mut self) -> Option<f64> {
        self.settle();
        self.next_finish().map(|(_, due_s)| due_s)
    }

    /// `FlowSim::advance_to`.
    pub fn advance_to(&mut self, t: f64) {
        assert!(t >= self.now, "time went backwards");
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

    fn finish(&mut self, at: usize, t: f64) {
        let id = match at.checked_sub(self.instant.len()) {
            Some(i) => self.active.remove(i),
            None => self.instant.remove(at),
        };
        let f = &mut self.flows[id];
        f.state = State::Done;
        f.remaining = 0.0;
        let children = std::mem::take(&mut f.children);
        self.dirty = true;
        for &c in &children {
            self.flows[c].unmet -= 1;
        }
        for c in children {
            if self.flows[c].unmet == 0 && self.flows[c].state == State::Pending {
                self.activate(c, t);
            }
        }
    }

    /// `FlowSim::run_to_completion`.
    pub fn run_to_completion(&mut self) -> f64 {
        while let Some(t) = self.next_time() {
            self.advance_to(t);
        }
        assert!(
            self.flows
                .iter()
                .all(|f| matches!(f.state, State::Done | State::Free { .. })),
            "flows stuck pending"
        );
        self.now
    }

    /// `FlowSim::take_finished`.
    pub fn take_finished(&mut self, id: FlowId) -> Option<f64> {
        let f = &mut self.flows[id];
        match f.state {
            State::Done => {}
            State::Pending | State::Active => return None,
            State::Free { .. } => panic!("flow {id} was already taken"),
        }
        f.state = State::Free { next: self.free };
        self.free = Some(id);
        Some(f.due_s + f.route.map_or(0.0, |r| self.routes[r].latency_s))
    }

    /// `FlowSim::finish_time`.
    #[must_use]
    pub fn finish_time(&self, id: FlowId) -> f64 {
        let f = &self.flows[id];
        match f.state {
            State::Pending | State::Active => f64::NAN,
            State::Done | State::Free { .. } => f.due_s,
        }
    }
}
