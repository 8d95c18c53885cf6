//! Shortest-path routing with per-flow ECMP.
//!
//! Routes are precomputed at network build time: a reverse BFS from every
//! host yields hop distances, and each node's next-hop set toward a
//! destination is every port whose peer is one hop closer. At forwarding
//! time a flow picks deterministically among equal-cost ports with a hash
//! of `(flow, node)` — per-flow path pinning, as real fabrics do to avoid
//! intra-flow reordering, while spreading different flows across the
//! fabric.

use std::collections::VecDeque;

use crate::ids::{FlowId, NodeId, PortNo};

/// Adjacency view the router needs: for each node, the list of
/// `(port, peer)` pairs.
pub type Adjacency = Vec<Vec<(PortNo, NodeId)>>;

/// Precomputed next-hop table.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    /// `next[node][dst]` = equal-cost next-hop ports from `node` toward
    /// host `dst`. Empty when unreachable or `node == dst`.
    next: Vec<Vec<Vec<PortNo>>>,
}

impl RoutingTable {
    /// Build the table for all destinations in `dests` (normally all
    /// hosts) over the given adjacency.
    pub fn compute(adj: &Adjacency, dests: &[NodeId]) -> Self {
        let n = adj.len();
        let mut next = vec![vec![Vec::new(); n]; n];

        let mut dist = vec![u32::MAX; n];
        let mut bfs = VecDeque::new();
        for &d in dests {
            // Reverse BFS from the destination. Links are symmetric, so
            // forward adjacency doubles as reverse adjacency.
            dist.iter_mut().for_each(|x| *x = u32::MAX);
            dist[d.idx()] = 0;
            bfs.clear();
            bfs.push_back(d);
            while let Some(u) = bfs.pop_front() {
                for &(_, v) in &adj[u.idx()] {
                    if dist[v.idx()] == u32::MAX {
                        dist[v.idx()] = dist[u.idx()] + 1;
                        bfs.push_back(v);
                    }
                }
            }
            // Next hops: every port leading one step closer.
            for u in 0..n {
                if dist[u] == u32::MAX || dist[u] == 0 {
                    continue;
                }
                let hops: Vec<PortNo> = adj[u]
                    .iter()
                    .filter(|(_, v)| dist[v.idx()] + 1 == dist[u])
                    .map(|(p, _)| *p)
                    .collect();
                next[u][d.idx()] = hops;
            }
        }
        RoutingTable { next }
    }

    /// The equal-cost next-hop set from `node` toward `dst`.
    #[inline]
    pub fn candidates(&self, node: NodeId, dst: NodeId) -> &[PortNo] {
        &self.next[node.idx()][dst.idx()]
    }

    /// Pick the egress port for one flow at one node (per-flow ECMP).
    ///
    /// Panics if there is no route — a topology bug worth failing loudly on.
    #[inline]
    pub fn pick(&self, node: NodeId, dst: NodeId, flow: FlowId) -> PortNo {
        match self.try_pick(node, dst, flow) {
            Some(p) => p,
            None => panic!("no route from node {node:?} to {dst:?} for flow {flow:?}"),
        }
    }

    /// Like [`pick`](Self::pick), but `None` when no route exists —
    /// the forwarding path under fault injection, where a link-down can
    /// legitimately partition the fabric (the packet is dropped and
    /// traced instead of panicking).
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the remainder is below `c.len()`, a usize"
    )]
    pub fn try_pick(&self, node: NodeId, dst: NodeId, flow: FlowId) -> Option<PortNo> {
        let c = self.candidates(node, dst);
        if c.is_empty() {
            return None;
        }
        Some(c[(ecmp_hash(flow, node) % c.len() as u64) as usize])
    }
}

/// `adj` minus every entry whose egress port fails `port_up` — the
/// failover view of the fabric after link-state changes. Link flaps take
/// both directions down together, so the symmetric-links assumption of
/// [`RoutingTable::compute`]'s reverse BFS still holds on the filtered
/// adjacency.
pub fn filter_adjacency(
    adj: &Adjacency,
    mut port_up: impl FnMut(NodeId, PortNo) -> bool,
) -> Adjacency {
    adj.iter()
        .enumerate()
        .map(|(u, ports)| {
            ports
                .iter()
                .filter(|&&(p, _)| port_up(NodeId::from_idx(u), p))
                .copied()
                .collect()
        })
        .collect()
}

/// FNV-1a over (flow, node): cheap, deterministic, well-spread for
/// consecutive ids.
#[inline]
fn ecmp_hash(flow: FlowId, node: NodeId) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in flow.0.to_le_bytes().into_iter().chain(node.0.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build adjacency for a diamond: 0 -- {1,2} -- 3, all symmetric.
    fn diamond() -> Adjacency {
        // ports are per-node indices in insertion order
        vec![
            vec![(PortNo(0), NodeId(1)), (PortNo(1), NodeId(2))], // node 0
            vec![(PortNo(0), NodeId(0)), (PortNo(1), NodeId(3))], // node 1
            vec![(PortNo(0), NodeId(0)), (PortNo(1), NodeId(3))], // node 2
            vec![(PortNo(0), NodeId(1)), (PortNo(1), NodeId(2))], // node 3
        ]
    }

    #[test]
    fn shortest_paths_found() {
        let adj = diamond();
        let rt = RoutingTable::compute(&adj, &[NodeId(0), NodeId(3)]);
        // From 0 to 3: both middle nodes are equal cost.
        assert_eq!(rt.candidates(NodeId(0), NodeId(3)).len(), 2);
        // From 1 to 3: direct port.
        assert_eq!(rt.candidates(NodeId(1), NodeId(3)), &[PortNo(1)]);
        // From 3 to 0 (reverse dest): both.
        assert_eq!(rt.candidates(NodeId(3), NodeId(0)).len(), 2);
        // At the destination itself, no next hop.
        assert!(rt.candidates(NodeId(3), NodeId(3)).is_empty());
    }

    #[test]
    fn ecmp_is_deterministic_per_flow() {
        let adj = diamond();
        let rt = RoutingTable::compute(&adj, &[NodeId(3)]);
        let f = FlowId(12);
        let p1 = rt.pick(NodeId(0), NodeId(3), f);
        let p2 = rt.pick(NodeId(0), NodeId(3), f);
        assert_eq!(p1, p2);
    }

    #[test]
    fn ecmp_spreads_flows() {
        let adj = diamond();
        let rt = RoutingTable::compute(&adj, &[NodeId(3)]);
        let mut counts = [0usize; 2];
        for f in 0..1000 {
            let p = rt.pick(NodeId(0), NodeId(3), FlowId(f));
            counts[p.idx()] += 1;
        }
        // Both paths used substantially (not a 90/10 split).
        assert!(counts[0] > 300 && counts[1] > 300, "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unreachable_panics() {
        let adj: Adjacency = vec![vec![], vec![]]; // two isolated nodes
        let rt = RoutingTable::compute(&adj, &[NodeId(1)]);
        rt.pick(NodeId(0), NodeId(1), FlowId(0));
    }

    #[test]
    fn try_pick_returns_none_when_partitioned() {
        let adj: Adjacency = vec![vec![], vec![]];
        let rt = RoutingTable::compute(&adj, &[NodeId(1)]);
        assert_eq!(rt.try_pick(NodeId(0), NodeId(1), FlowId(0)), None);
    }

    #[test]
    fn filtered_adjacency_fails_over_to_surviving_path() {
        let adj = diamond();
        // Take the 0–1 link down (both directions, as flaps do).
        let filtered = filter_adjacency(&adj, |node, port| {
            let down = (node == NodeId(0) || node == NodeId(1)) && port == PortNo(0);
            !down
        });
        let rt = RoutingTable::compute(&filtered, &[NodeId(3)]);
        // Every flow now routes via node 2 (port 1 at node 0).
        for f in 0..50 {
            assert_eq!(
                rt.try_pick(NodeId(0), NodeId(3), FlowId(f)),
                Some(PortNo(1))
            );
        }
        // Node 1 can still reach 3 directly.
        assert_eq!(
            rt.try_pick(NodeId(1), NodeId(3), FlowId(0)),
            Some(PortNo(1))
        );
    }

    #[test]
    fn line_topology_single_paths() {
        // 0 - 1 - 2
        let adj: Adjacency = vec![
            vec![(PortNo(0), NodeId(1))],
            vec![(PortNo(0), NodeId(0)), (PortNo(1), NodeId(2))],
            vec![(PortNo(0), NodeId(1))],
        ];
        let rt = RoutingTable::compute(&adj, &[NodeId(0), NodeId(2)]);
        assert_eq!(rt.pick(NodeId(0), NodeId(2), FlowId(0)), PortNo(0));
        assert_eq!(rt.pick(NodeId(1), NodeId(2), FlowId(0)), PortNo(1));
        assert_eq!(rt.pick(NodeId(1), NodeId(0), FlowId(0)), PortNo(0));
    }
}
