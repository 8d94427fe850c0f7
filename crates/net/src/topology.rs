//! Fabric topology: nodes and directed links with per-link capacity and
//! latency, plus fixed routes between endpoint pairs.
//!
//! This is the bottom layer of the flow-level transport. A [`Topology`]
//! is a static description — it holds no simulation state. The two node
//! fabrics of the paper (§2.1) are provided as constructors:
//!
//! * [`Topology::node_fabric`] with [`FabricSpec::P2pMesh`] — the
//!   HLS-Gaudi-2 board: every ordered device pair gets a dedicated
//!   directed link of `links_per_pair × link_bps` (the 21 intra-node
//!   RoCE ports, 3 toward each of the 7 peers).
//! * [`Topology::node_fabric`] with [`FabricSpec::Switched`] — the DGX
//!   A100: each device gets an uplink and a downlink of
//!   `per_device_bps` into an ideal (non-blocking) crossbar hub.
//!
//! Arbitrary topologies (e.g. the cluster control plane in
//! `dcm-vllm::cluster`) are assembled with [`Topology::new`] /
//! [`Topology::add_link`] / [`Topology::add_route`].

use dcm_core::specs::FabricSpec;
use std::collections::BTreeMap;

/// Index of a link within its [`Topology`].
pub type LinkId = usize;

/// Index of an endpoint (device, hub, router, …) within its [`Topology`].
pub type NodeId = usize;

/// One directed link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Usable capacity in bytes/s (protocol efficiency already folded in
    /// by the topology constructor).
    pub capacity_bps: f64,
    /// Propagation/forwarding latency in seconds. Zero for in-node
    /// fabrics (the α term of collectives is charged analytically by the
    /// transport); non-zero for control-plane links.
    pub latency_s: f64,
}

/// Index of a route within its [`Topology`]'s route table.
pub(crate) type RouteId = usize;

/// One fixed route: its links in hop order and their summed latency.
#[derive(Debug, Clone, PartialEq)]
struct Route {
    links: Vec<LinkId>,
    latency_s: f64,
}

/// A static fabric: endpoints, directed links, and fixed routes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Topology {
    num_nodes: usize,
    links: Vec<LinkSpec>,
    /// The route table, indexed by [`RouteId`]: a flow holds its route's
    /// index rather than a copy of its links.
    routes: Vec<Route>,
    /// Route of each ordered endpoint pair. `BTreeMap` (not `HashMap`)
    /// for deterministic iteration.
    route_ids: BTreeMap<(NodeId, NodeId), RouteId>,
}

impl Topology {
    /// An empty topology with `num_nodes` endpoints and no links.
    #[must_use]
    pub fn new(num_nodes: usize) -> Self {
        Topology {
            num_nodes,
            links: Vec::new(),
            routes: Vec::new(),
            route_ids: BTreeMap::new(),
        }
    }

    /// The in-node fabric of one server: mesh or switch, with protocol
    /// `efficiency` folded into every link capacity. Mesh topologies have
    /// `devices` endpoints; switched topologies add one hub endpoint at
    /// index `devices`, the last.
    ///
    /// # Panics
    /// Panics if `devices < 2`.
    #[must_use]
    pub fn node_fabric(fabric: &FabricSpec, devices: usize, efficiency: f64) -> Self {
        assert!(devices >= 2, "a fabric needs at least two devices");
        match *fabric {
            FabricSpec::P2pMesh {
                links_per_pair,
                link_bps,
            } => {
                let mut topo = Topology::new(devices);
                let pair_bps = dcm_core::cast::usize_to_f64(links_per_pair) * link_bps * efficiency;
                for src in 0..devices {
                    for dst in 0..devices {
                        if src == dst {
                            continue;
                        }
                        let l = topo.add_link(src, dst, pair_bps, 0.0);
                        topo.add_route(src, dst, vec![l]);
                    }
                }
                topo
            }
            FabricSpec::Switched { per_device_bps } => {
                let mut topo = Topology::new(devices + 1);
                let hub = devices;
                let cap = per_device_bps * efficiency;
                // Link ids: uplink of device i is 2i, downlink is 2i+1.
                let mut up = Vec::with_capacity(devices);
                let mut down = Vec::with_capacity(devices);
                for dev in 0..devices {
                    up.push(topo.add_link(dev, hub, cap, 0.0));
                    down.push(topo.add_link(hub, dev, cap, 0.0));
                }
                for (src, &u) in up.iter().enumerate() {
                    for (dst, &d) in down.iter().enumerate() {
                        if src == dst {
                            continue;
                        }
                        topo.add_route(src, dst, vec![u, d]);
                    }
                }
                topo
            }
        }
    }

    /// Add a directed link and return its id.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or the capacity is not a
    /// positive finite number.
    pub fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity_bps: f64,
        latency_s: f64,
    ) -> LinkId {
        assert!(src < self.num_nodes && dst < self.num_nodes, "endpoint oob");
        assert!(
            capacity_bps.is_finite() && capacity_bps > 0.0,
            "capacity must be positive and finite"
        );
        assert!(latency_s.is_finite() && latency_s >= 0.0, "bad latency");
        self.links.push(LinkSpec {
            src,
            dst,
            capacity_bps,
            latency_s,
        });
        self.links.len() - 1
    }

    /// Fix the route between an ordered endpoint pair, replacing any
    /// route fixed before. Its latency is summed here, once.
    ///
    /// # Panics
    /// Panics if a link id is out of range or the path is not contiguous
    /// from `src` to `dst`.
    pub fn add_route(&mut self, src: NodeId, dst: NodeId, path: Vec<LinkId>) {
        let mut at = src;
        for &l in &path {
            let link = &self.links[l];
            assert_eq!(link.src, at, "route hop does not start where it should");
            at = link.dst;
        }
        assert_eq!(at, dst, "route does not end at dst");
        let route = Route {
            latency_s: path.iter().map(|&l| self.links[l].latency_s).sum(),
            links: path,
        };
        match self.route_ids.get(&(src, dst)) {
            Some(&id) => self.routes[id] = route,
            None => {
                self.route_ids.insert((src, dst), self.routes.len());
                self.routes.push(route);
            }
        }
    }

    /// Index of the fixed route between an ordered pair, if one exists.
    pub(crate) fn route(&self, src: NodeId, dst: NodeId) -> Option<RouteId> {
        self.route_ids.get(&(src, dst)).copied()
    }

    /// The links of a route, in hop order.
    pub(crate) fn route_links(&self, route: RouteId) -> &[LinkId] {
        &self.routes[route].links
    }

    /// Sum of link latencies along a route.
    pub(crate) fn route_latency(&self, route: RouteId) -> f64 {
        self.routes[route].latency_s
    }

    /// The link table.
    #[must_use]
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_has_dedicated_pair_links() {
        let topo = Topology::node_fabric(
            &FabricSpec::P2pMesh {
                links_per_pair: 3,
                link_bps: 100.0e9 / 8.0,
            },
            8,
            1.0,
        );
        assert_eq!(topo.num_nodes, 8);
        assert_eq!(topo.links.len(), 8 * 7);
        let path = |s, d| topo.route_links(topo.route(s, d).unwrap());
        let p = path(0, 7);
        assert_eq!(p.len(), 1, "direct link");
        assert!((topo.links[p[0]].capacity_bps - 37.5e9).abs() < 1.0);
        // Disjoint ordered pairs use disjoint links.
        assert_ne!(path(0, 7), path(7, 0));
    }

    #[test]
    fn switch_routes_through_hub() {
        let topo = Topology::node_fabric(
            &FabricSpec::Switched {
                per_device_bps: 300.0e9,
            },
            8,
            0.5,
        );
        assert_eq!(topo.num_nodes, 9);
        assert_eq!(topo.links.len(), 16);
        let path = |s, d| topo.route_links(topo.route(s, d).unwrap());
        let p = path(2, 5);
        assert_eq!(p.len(), 2, "uplink + downlink");
        assert!(
            (topo.links[p[0]].capacity_bps - 150.0e9).abs() < 1.0,
            "efficiency folded in"
        );
        // All flows out of device 2 share its uplink.
        assert_eq!(path(2, 5)[0], path(2, 6)[0]);
    }

    #[test]
    fn a_route_added_again_replaces_the_first() {
        let mut topo = Topology::new(3);
        let direct = topo.add_link(0, 2, 1.0, 0.5);
        let (a, b) = (topo.add_link(0, 1, 1.0, 1.0), topo.add_link(1, 2, 1.0, 2.0));
        topo.add_route(0, 2, vec![direct]);
        let r = topo.route(0, 2).unwrap();
        topo.add_route(0, 2, vec![a, b]);
        assert_eq!(topo.route(0, 2), Some(r), "one table entry per pair");
        assert_eq!(topo.route_links(r), [a, b]);
        assert_eq!(topo.route_latency(r).to_bits(), 3.0f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "route does not end")]
    fn bad_route_rejected() {
        let mut topo = Topology::new(3);
        let l = topo.add_link(0, 1, 1.0, 0.0);
        topo.add_route(0, 2, vec![l]);
    }
}
