//! Post-run link statistics: per-port utilization, queue high-water
//! marks, and drop counts, plus network-wide rollups.
//!
//! The paper's figures only need the monitor's queue/FCT series, but
//! debugging a congestion-control run almost always starts with "which
//! link was the bottleneck and how busy was it" — this module answers
//! that in one call.

use dcsim::Nanos;

use crate::ids::{NodeId, PortNo};
use crate::network::{Network, NodeKind};

/// Summary of one egress port over a completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct PortStats {
    /// Owning node.
    pub node: NodeId,
    /// Port index within the node.
    pub port: PortNo,
    /// Whether the owner is a switch (else a host NIC).
    pub on_switch: bool,
    /// The node at the other end of the wire.
    pub peer: NodeId,
    /// Total bytes transmitted.
    pub tx_bytes: u64,
    /// Total packets transmitted.
    pub tx_packets: u64,
    /// Peak queue backlog in bytes.
    pub max_queue: u64,
    /// Data packets tail-dropped (finite-buffer mode only).
    pub dropped: u64,
    /// Mean utilization over `[0, horizon]`: transmitted bits over
    /// capacity-bits.
    pub utilization: f64,
}

/// Collect stats for every port, using `horizon` as the denominator for
/// utilization (normally the simulation end time).
pub fn port_stats(net: &Network, horizon: Nanos) -> Vec<PortStats> {
    let secs = horizon.as_secs_f64();
    let mut out = Vec::new();
    for (ni, node) in net.nodes_iter().enumerate() {
        for (pi, p) in node.ports.iter().enumerate() {
            let capacity_bits = p.rate.as_f64() * secs;
            out.push(PortStats {
                node: NodeId(ni as u32),
                port: PortNo(pi as u16),
                on_switch: node.kind == NodeKind::Switch,
                peer: p.peer.0,
                tx_bytes: p.tx_bytes(),
                tx_packets: p.tx_packets(),
                max_queue: p.max_qbytes(),
                dropped: p.dropped_packets(),
                utilization: if capacity_bits > 0.0 {
                    (p.tx_bytes() as f64 * 8.0 / capacity_bits).min(1.0)
                } else {
                    0.0
                },
            });
        }
    }
    out
}

/// The busiest port (highest utilization) — the run's bottleneck.
pub fn bottleneck(stats: &[PortStats]) -> Option<&PortStats> {
    stats.iter().max_by(|a, b| {
        a.utilization
            .partial_cmp(&b.utilization)
            .expect("utilization is finite")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;
    use crate::monitor::MonitorConfig;
    use crate::network::{NetBuilder, NetConfig};
    use dcsim::{BitRate, Bytes, Simulation};
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
    fn utilization_matches_offered_load() {
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let sw = b.add_switch();
        b.link(h0, sw, BitRate::from_gbps(100), dcsim::Nanos::MICRO);
        b.link(h1, sw, BitRate::from_gbps(100), dcsim::Nanos::MICRO);
        let mut net = b.build(NetConfig::default(), MonitorConfig::default());
        net.add_flow(
            FlowSpec {
                src: h0,
                dst: h1,
                size: Bytes::new(625_000), // 50 Gbps x 100 us
                start: dcsim::Nanos::ZERO,
            },
            Box::new(FixedRate(BitRate::from_gbps(50))),
        );
        let mut sim = Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        sim.run_until(dcsim::Nanos::from_micros(100));
        let stats = port_stats(sim.world(), dcsim::Nanos::from_micros(100));
        // Four ports: h0 NIC, h1 NIC (ACKs only), and two switch ports.
        assert_eq!(stats.len(), 4);
        let b = bottleneck(&stats).expect("run transmitted on at least one port");
        // Bottleneck is h0's NIC or the switch port toward h1: ~50%.
        assert!(
            (b.utilization - 0.5).abs() < 0.05,
            "bottleneck utilization {}",
            b.utilization
        );
        // The ACK-only direction is nearly idle but nonzero.
        let ack_port = stats
            .iter()
            .find(|s| s.node == h1 && !s.on_switch)
            .expect("h1 has a NIC port in the stats");
        assert!(ack_port.tx_bytes > 0);
        assert!(ack_port.utilization < 0.05);
        // No drops in lossless mode.
        assert!(stats.iter().all(|s| s.dropped == 0));
    }
}
