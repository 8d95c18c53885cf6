//! Topology generators: the single-switch star used by the paper's incast
//! microbenchmarks, a dumbbell for tests, and the 3-layer fat-tree of the
//! datacenter simulations (paper Figure 7).

use dcsim::{BitRate, Bytes, Nanos};

use crate::ids::NodeId;
use crate::network::NetBuilder;

/// A constructed topology: the builder plus the host list and a few
/// structural facts the experiment layer needs.
pub struct Topology {
    /// The partially built network (add RED / finalize with `build`).
    pub builder: NetBuilder,
    /// All host node ids, in creation order.
    pub hosts: Vec<NodeId>,
    /// All switch node ids, in creation order.
    pub switches: Vec<NodeId>,
    /// Every link as an endpoint pair, in creation order. Used by the
    /// fault-injection layer to pick targets (e.g. "all fabric links" =
    /// pairs where both ends are switches).
    pub links: Vec<(NodeId, NodeId)>,
    /// Host link rate.
    pub host_rate: BitRate,
    /// Worst-case number of switch hops between two hosts.
    pub max_hops: u32,
    /// One-way propagation + MTU store-and-forward delay between the two
    /// most distant hosts, used as the protocols' base RTT parameter.
    pub base_rtt: Nanos,
}

impl Topology {
    /// The single-switch star of the incast microbenchmarks: `n_hosts`
    /// hosts, each with a `host_rate` link of `prop` propagation delay to
    /// one switch.
    ///
    /// The paper uses 17 hosts (16-1 incast) and 97 hosts (96-1), 100 Gbps
    /// links, and 1 µs propagation.
    pub fn star(n_hosts: usize, host_rate: BitRate, prop: Nanos) -> Topology {
        assert!(n_hosts >= 2, "a star needs at least two hosts");
        let mut b = NetBuilder::new();
        let hosts: Vec<NodeId> = (0..n_hosts).map(|_| b.add_host()).collect();
        let sw = b.add_switch();
        let mut links = Vec::with_capacity(n_hosts);
        for &h in &hosts {
            b.link(h, sw, host_rate, prop);
            links.push((h, sw));
        }
        let mtu_ser = host_rate.serialization_delay(Bytes::new(1000));
        // Host -> switch -> host, and the ACK back (ACK serialization is
        // negligible; we fold it into the data-packet estimate, matching
        // how the paper quotes a 5 us base RTT for this topology).
        let base_rtt = (prop + mtu_ser) * 4;
        Topology {
            builder: b,
            hosts,
            switches: vec![sw],
            links,
            host_rate,
            max_hops: 1,
            base_rtt,
        }
    }

    /// The paper's incast star: 100 Gbps, 1 µs links.
    pub fn paper_star(n_hosts: usize) -> Topology {
        Topology::star(n_hosts, BitRate::from_gbps(100), Nanos::MICRO)
    }

    /// A dumbbell: `n` hosts on each side of a two-switch core link.
    /// Useful for tests that need an inter-switch bottleneck.
    pub fn dumbbell(
        n_per_side: usize,
        host_rate: BitRate,
        core_rate: BitRate,
        prop: Nanos,
    ) -> Topology {
        let mut b = NetBuilder::new();
        let left: Vec<NodeId> = (0..n_per_side).map(|_| b.add_host()).collect();
        let right: Vec<NodeId> = (0..n_per_side).map(|_| b.add_host()).collect();
        let s0 = b.add_switch();
        let s1 = b.add_switch();
        let mut links = vec![(s0, s1)];
        b.link(s0, s1, core_rate, prop);
        for &h in &left {
            b.link(h, s0, host_rate, prop);
            links.push((h, s0));
        }
        for &h in &right {
            b.link(h, s1, host_rate, prop);
            links.push((h, s1));
        }
        let mtu_ser = host_rate.serialization_delay(Bytes::new(1000));
        let base_rtt = (prop + mtu_ser) * 6;
        let mut hosts = left;
        hosts.extend(right);
        Topology {
            builder: b,
            hosts,
            switches: vec![s0, s1],
            links,
            host_rate,
            max_hops: 2,
            base_rtt,
        }
    }
}

/// Parameters of the 3-layer fat-tree (paper Figure 7).
#[derive(Debug, Clone, Copy)]
pub struct FatTreeConfig {
    /// Number of 2-layer pods.
    pub pods: usize,
    /// ToR switches per pod.
    pub tors_per_pod: usize,
    /// Aggregation switches per pod.
    pub aggs_per_pod: usize,
    /// Hosts attached to each ToR.
    pub hosts_per_tor: usize,
    /// Spine switches (must be a multiple of `aggs_per_pod`; each agg
    /// connects to `spines / aggs_per_pod` spines in its group).
    pub spines: usize,
    /// Host link rate.
    pub host_rate: BitRate,
    /// ToR-Agg and Agg-Spine link rate.
    pub fabric_rate: BitRate,
    /// Propagation delay of every link.
    pub prop: Nanos,
}

impl FatTreeConfig {
    /// The paper's datacenter topology: 320 hosts, 5 pods of 4 ToR + 4 Agg,
    /// 16 spines; 100 Gbps host links, 400 Gbps fabric links, 1 µs
    /// propagation everywhere. Maximum 5 hops between hosts.
    pub fn paper() -> Self {
        FatTreeConfig {
            pods: 5,
            tors_per_pod: 4,
            aggs_per_pod: 4,
            hosts_per_tor: 16,
            spines: 16,
            host_rate: BitRate::from_gbps(100),
            fabric_rate: BitRate::from_gbps(400),
            prop: Nanos::MICRO,
        }
    }

    /// A laptop-scale fat-tree preserving the paper's structure (3 layers,
    /// ECMP fan-out, 4:1 host-to-fabric rate ratio): 2 pods of 2 ToR +
    /// 2 Agg, 4 spines, 8 hosts per ToR = 32 hosts.
    pub fn reduced() -> Self {
        FatTreeConfig {
            pods: 2,
            tors_per_pod: 2,
            aggs_per_pod: 2,
            hosts_per_tor: 8,
            spines: 4,
            host_rate: BitRate::from_gbps(100),
            fabric_rate: BitRate::from_gbps(400),
            prop: Nanos::MICRO,
        }
    }

    /// Total number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.pods * self.tors_per_pod * self.hosts_per_tor
    }

    /// Build the topology.
    pub fn build(&self) -> Topology {
        assert!(self.pods >= 1 && self.tors_per_pod >= 1 && self.aggs_per_pod >= 1);
        assert!(
            self.spines.is_multiple_of(self.aggs_per_pod),
            "spines ({}) must be a multiple of aggs_per_pod ({})",
            self.spines,
            self.aggs_per_pod
        );
        let mut b = NetBuilder::new();
        let mut hosts = Vec::with_capacity(self.num_hosts());
        let mut switches = Vec::new();
        let mut links = Vec::new();

        // Spines first so ids are stable regardless of pod count.
        let spines: Vec<NodeId> = (0..self.spines).map(|_| b.add_switch()).collect();
        switches.extend(&spines);
        let spines_per_agg = self.spines / self.aggs_per_pod;

        for _pod in 0..self.pods {
            let tors: Vec<NodeId> = (0..self.tors_per_pod).map(|_| b.add_switch()).collect();
            let aggs: Vec<NodeId> = (0..self.aggs_per_pod).map(|_| b.add_switch()).collect();
            switches.extend(&tors);
            switches.extend(&aggs);
            // Full bipartite ToR <-> Agg inside the pod.
            for &t in &tors {
                for &a in &aggs {
                    b.link(t, a, self.fabric_rate, self.prop);
                    links.push((t, a));
                }
            }
            // Agg j connects to spine group j.
            for (j, &a) in aggs.iter().enumerate() {
                for s in 0..spines_per_agg {
                    let sp = spines[j * spines_per_agg + s];
                    b.link(a, sp, self.fabric_rate, self.prop);
                    links.push((a, sp));
                }
            }
            // Hosts under each ToR.
            for &t in &tors {
                for _ in 0..self.hosts_per_tor {
                    let h = b.add_host();
                    b.link(h, t, self.host_rate, self.prop);
                    hosts.push(h);
                    links.push((h, t));
                }
            }
        }

        // Base RTT: worst case host->ToR->Agg->Spine->Agg->ToR->host =
        // 6 links each way. Store-and-forward adds one MTU serialization
        // per link.
        let mtu = Bytes::new(1000);
        let host_ser = self.host_rate.serialization_delay(mtu);
        let fabric_ser = self.fabric_rate.serialization_delay(mtu);
        let one_way = (self.prop + host_ser) * 2 + (self.prop + fabric_ser) * 4;
        Topology {
            builder: b,
            hosts,
            switches,
            links,
            host_rate: self.host_rate,
            max_hops: 5,
            base_rtt: one_way * 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;
    use crate::monitor::MonitorConfig;
    use crate::network::NetConfig;
    use dcsim::{Bytes, Simulation};
    use faircc::{AckFeedback, CcMode, CongestionControl, SenderLimits};

    struct FixedRate(BitRate);
    impl CongestionControl for FixedRate {
        fn on_ack(&mut self, _: &AckFeedback) {}
        fn limits(&self) -> SenderLimits {
            SenderLimits::rate_based(self.0)
        }
        fn mode(&self) -> CcMode {
            CcMode::Rate
        }
        fn name(&self) -> &str {
            "fixed"
        }
    }

    #[test]
    fn star_shape() {
        let t = Topology::paper_star(17);
        assert_eq!(t.hosts.len(), 17);
        assert_eq!(t.switches.len(), 1);
        // ~5 us base RTT, matching the paper's Swift setting for this
        // topology (base target delay 5 us).
        assert!(t.base_rtt >= Nanos::from_micros(4) && t.base_rtt <= Nanos::from_micros(6));
    }

    #[test]
    fn paper_fat_tree_counts() {
        let cfg = FatTreeConfig::paper();
        assert_eq!(cfg.num_hosts(), 320);
        let t = cfg.build();
        assert_eq!(t.hosts.len(), 320);
        // 16 spines + 5 pods x (4 ToR + 4 Agg) = 56 switches.
        assert_eq!(t.switches.len(), 56);
        assert_eq!(t.max_hops, 5);
    }

    #[test]
    fn reduced_fat_tree_counts() {
        let cfg = FatTreeConfig::reduced();
        assert_eq!(cfg.num_hosts(), 32);
        let t = cfg.build();
        assert_eq!(t.hosts.len(), 32);
        assert_eq!(t.switches.len(), 4 + 2 * (2 + 2));
    }

    #[test]
    fn fat_tree_cross_pod_flow_completes() {
        let t = FatTreeConfig::reduced().build();
        let hosts = t.hosts.clone();
        let mut net = t
            .builder
            .build(NetConfig::default(), MonitorConfig::default());
        // First host of pod 0 to last host (pod 1): must cross the spine.
        let id = net.add_flow(
            FlowSpec {
                src: hosts[0],
                dst: *hosts.last().expect("topology has hosts"),
                size: Bytes::new(100_000),
                start: Nanos::ZERO,
            },
            Box::new(FixedRate(BitRate::from_gbps(100))),
        );
        let ideal = net.ideal_fct(id);
        let mut sim = Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        sim.run();
        assert!(sim.world().all_finished());
        let fct = sim.world().monitor.fcts()[0].fct();
        assert!(fct >= ideal);
        assert!(
            fct < ideal + Nanos::from_ns(1_000),
            "fct {fct} ideal {ideal}"
        );
    }

    #[test]
    fn fat_tree_intra_tor_flow_is_two_hops() {
        let t = FatTreeConfig::reduced().build();
        let hosts = t.hosts.clone();
        let mut net = t
            .builder
            .build(NetConfig::default(), MonitorConfig::default());
        // hosts[0] and hosts[1] share a ToR: path = host->ToR->host.
        let id = net.add_flow(
            FlowSpec {
                src: hosts[0],
                dst: hosts[1],
                size: Bytes::new(1000),
                start: Nanos::ZERO,
            },
            Box::new(FixedRate(BitRate::from_gbps(100))),
        );
        // 2 links forward: 2*(1000ns + 80ns); ACK back 2*(1000ns + 5ns).
        assert_eq!(net.ideal_fct(id), Nanos::from_ns(2160 + 2010));
    }

    #[test]
    fn dumbbell_bottlenecks_at_core() {
        let t = Topology::dumbbell(
            4,
            BitRate::from_gbps(100),
            BitRate::from_gbps(100),
            Nanos::MICRO,
        );
        assert_eq!(t.hosts.len(), 8);
        assert_eq!(t.switches.len(), 2);
    }

    #[test]
    fn fat_tree_paths_are_loop_free_and_short() {
        use crate::ids::FlowId;
        // Walk the pinned ECMP path for many random (src, dst, flow)
        // triples: it must reach the destination within max_hops+1 links
        // and never revisit a node.
        let t = FatTreeConfig::reduced().build();
        let hosts = t.hosts.clone();
        let max_hops = t.max_hops as usize;
        let net = t
            .builder
            .build(NetConfig::default(), MonitorConfig::default());
        let mut rng = dcsim::DetRng::new(17);
        for trial in 0..500 {
            let src = hosts[rng.index(hosts.len())];
            let dst = hosts[rng.index(hosts.len())];
            if src == dst {
                continue;
            }
            let flow = FlowId(trial);
            let mut cur = src;
            let mut visited = vec![src];
            let mut hops = 0;
            while cur != dst {
                let port = net.route_port(cur, dst, flow);
                let peer = net.node(cur).ports[port.idx()].peer.0;
                assert!(
                    !visited.contains(&peer),
                    "routing loop: {visited:?} then {peer:?}"
                );
                visited.push(peer);
                cur = peer;
                hops += 1;
                assert!(hops <= max_hops + 1, "path too long: {visited:?}");
            }
        }
    }

    #[test]
    fn fat_tree_ecmp_uses_all_uplinks() {
        use crate::ids::FlowId;
        // From one ToR, flows to another pod must spread across both
        // aggregation uplinks (per-flow ECMP).
        let t = FatTreeConfig::reduced().build();
        let hosts = t.hosts.clone();
        let net = t
            .builder
            .build(NetConfig::default(), MonitorConfig::default());
        let src = hosts[0];
        let dst = *hosts.last().expect("topology has hosts"); // other pod
        let tor = net.node(src).ports[0].peer.0;
        let mut used = std::collections::BTreeSet::new();
        for f in 0..64 {
            used.insert(net.route_port(tor, dst, FlowId(f)));
        }
        assert!(
            used.len() >= 2,
            "ECMP pinned every flow to one uplink: {used:?}"
        );
    }

    #[test]
    fn fat_tree_link_list_is_complete() {
        let t = FatTreeConfig::reduced().build();
        // Per pod: 2 ToR x 2 Agg = 4 ToR-Agg links, 2 Agg x 2 spines = 4
        // Agg-Spine links, 16 host links; x 2 pods.
        assert_eq!(t.links.len(), 2 * (4 + 4 + 16));
        let fabric = t
            .links
            .iter()
            .filter(|(a, b)| t.switches.contains(a) && t.switches.contains(b))
            .count();
        assert_eq!(fabric, 16);
        // Host links are exactly the remainder, one per host.
        assert_eq!(t.links.len() - fabric, t.hosts.len());
    }

    #[test]
    #[should_panic(expected = "multiple of aggs_per_pod")]
    fn bad_spine_count_rejected() {
        FatTreeConfig {
            spines: 3,
            ..FatTreeConfig::reduced()
        }
        .build();
    }
}
