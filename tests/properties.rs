//! Property-based integration tests: random topologies and traffic must
//! uphold the simulator's conservation invariants. Randomness comes from
//! the in-repo deterministic RNG (seeded per case), so failures replay
//! exactly.

use fairness_repro::dcsim::{BitRate, Bytes, DetRng, Nanos, Simulation};
use fairness_repro::faircc::{AckFeedback, CcMode, CongestionControl, SenderLimits};
use fairness_repro::fairsim::{CcSpec, NetEnv, ProtocolKind, Variant};
use fairness_repro::netsim::{FlowSpec, MonitorConfig, NetBuilder, NetConfig, RedConfig, Topology};

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

/// On a random star with random fixed-rate flows, every flow always
/// completes, every byte is conserved (acked == size), and no FCT
/// beats the physics bound size/line_rate.
#[test]
fn prop_star_flows_complete_and_conserve_bytes() {
    for case in 0..24u64 {
        let mut rng = DetRng::new(0xface_0000 + case);
        let n_hosts = 3 + rng.index(7);
        let mut b = NetBuilder::new();
        let hosts: Vec<_> = (0..n_hosts).map(|_| b.add_host()).collect();
        let sw = b.add_switch();
        for &h in &hosts {
            b.link(h, sw, BitRate::from_gbps(100), Nanos::MICRO);
        }
        let mut net = b.build(NetConfig::default(), MonitorConfig::default());
        let mut n_flows = 0usize;
        for _ in 0..1 + rng.below(11) {
            let src = rng.index(n_hosts);
            let dst = rng.index(n_hosts);
            if src == dst {
                continue;
            }
            n_flows += 1;
            net.add_flow(
                FlowSpec {
                    src: hosts[src],
                    dst: hosts[dst],
                    size: Bytes::new(10_000 + rng.below(490_000)),
                    start: Nanos::from_micros(rng.below(200)),
                },
                Box::new(FixedRate(BitRate::from_gbps(1 + rng.below(79)))),
            );
        }
        if n_flows == 0 {
            continue;
        }
        let mut sim = Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        sim.run_until(Nanos::from_millis(200));
        let net = sim.world();
        assert!(net.all_finished(), "case {case}: some flow never completed");
        for (i, rec) in net.monitor.fcts().iter().enumerate() {
            let f = net.flow(rec.flow);
            // Byte conservation: the sender accounted exactly the flow
            // size, no more (no duplication), no less (no loss).
            assert_eq!(f.acked, f.spec.size.as_u64(), "case {case}");
            assert_eq!(f.sent, f.spec.size.as_u64(), "case {case}");
            // Physics: FCT at least size / line-rate.
            let floor = BitRate::from_gbps(100).serialization_delay(f.spec.size);
            assert!(
                rec.fct() >= floor,
                "case {case}: flow {i} FCT {:?} beat serialization floor {floor:?}",
                rec.fct(),
            );
        }
    }
}

/// The event engine never runs time backwards and conserves pushes/pops
/// across arbitrary interleaving (driven through the whole network stack
/// rather than the raw queue).
#[test]
fn prop_simulation_time_monotone() {
    for seed in (0..1000u64).step_by(41) {
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let sw = b.add_switch();
        b.link(h0, sw, BitRate::from_gbps(100), Nanos::MICRO);
        b.link(h1, sw, BitRate::from_gbps(100), Nanos::MICRO);
        let mut net = b.build(
            NetConfig {
                seed,
                ..NetConfig::default()
            },
            MonitorConfig {
                sample_interval: Some(Nanos::from_micros(7)),
                sample_until: Nanos::from_millis(1),
                watch_ports: vec![],
                track_flow_rates: true,
            },
        );
        net.add_flow(
            FlowSpec {
                src: h0,
                dst: h1,
                size: Bytes::new(100_000),
                start: Nanos::ZERO,
            },
            Box::new(FixedRate(BitRate::from_gbps(50))),
        );
        let mut sim = Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        let mut last = Nanos::ZERO;
        while sim.step() {
            assert!(sim.now() >= last, "seed {seed}: time ran backwards");
            last = sim.now();
        }
        assert!(sim.world().all_finished());
        // Samples are strictly time-ordered.
        let samples = sim.world().monitor.samples();
        for w in samples.windows(2) {
            assert!(w[1].t > w[0].t, "seed {seed}: samples out of order");
        }
    }
}

/// Long-run shares of an N-flow incast whose flows all start together:
/// each flow's goodput, read from the monitor's per-flow rate samples and
/// averaged over the second half of the run, is within a per-protocol
/// tolerance of the fair share C/N, and together they never exceed C.
/// Networks and per-flow congestion control are built the way
/// `IncastScenario` builds them.
///
/// The tolerances are what each control law holds here, not a common
/// target. HPCC and Swift hold every flow within 10-25 % of C/N (HPCC's
/// sum at eta = 0.95 of C) and are no closer 20 ms in — the slow
/// convergence the paper is about. DCQCN's flows stay within a third of
/// each other but 85-90 % *below* C/N for the whole run: four line-rate
/// starts hold the queue over K_max until every flow has been cut to tens
/// of Mbps, and recovery is additive. Timely's gradient law has no unique
/// fixed point (Zhu et al., "ECN or Delay", CoNEXT 2016): under
/// `Variant::Default` one flow keeps 98 % of the link for good, so only
/// its VAI + SF variant is held to a share at all.
#[test]
fn prop_simultaneous_incast_shares_stay_near_fair() {
    const N: usize = 4;
    const RUN: Nanos = Nanos::from_millis(6);
    let line_rate = BitRate::from_gbps(100);
    let both = &[Variant::Default, Variant::VaiSf][..];
    let vai_sf = &[Variant::VaiSf][..];
    for (kind, variants, tolerance) in [
        (ProtocolKind::Hpcc, both, 0.30),
        (ProtocolKind::Swift, both, 0.35),
        (ProtocolKind::Dcqcn, both, 0.95),
        (ProtocolKind::Timely, vai_sf, 0.80),
    ] {
        for &variant in variants {
            let cc = CcSpec::new(kind, variant);
            let mut topo = Topology::paper_star(N + 1);
            if cc.needs_red() {
                topo.builder.red_on_switches(RedConfig::dcqcn_100g());
            }
            let env = NetEnv::incast_star(topo.base_rtt);
            let mut net = topo.builder.build(
                NetConfig::default(),
                MonitorConfig {
                    sample_interval: Some(Nanos::from_micros(5)),
                    sample_until: RUN,
                    watch_ports: vec![],
                    track_flow_rates: true,
                },
            );
            for i in 0..N {
                net.add_flow(
                    FlowSpec {
                        src: topo.hosts[i],
                        dst: topo.hosts[N],
                        size: Bytes::from_mb(100), // outlasts the run even at line rate
                        start: Nanos::ZERO,
                    },
                    cc.build(&env, i as u64),
                );
            }
            let mut sim = Simulation::new(net);
            {
                let (w, q) = sim.split_mut();
                w.prime(q);
            }
            sim.run_until(RUN);
            let late: Vec<_> = sim
                .world()
                .monitor
                .samples()
                .iter()
                .filter(|s| s.t > RUN / 2)
                .collect();
            assert_eq!(late.len(), 600, "{}", cc.label());
            let fair = line_rate.as_u64() as f64 / N as f64;
            let mut total = 0.0;
            for flow in 0..N {
                let mean = late
                    .iter()
                    .map(|s| {
                        assert_eq!(s.flow_rates.len(), N, "every flow is active all run");
                        s.flow_rates[flow].1
                    })
                    .sum::<f64>()
                    / late.len() as f64;
                assert!(
                    (mean / fair - 1.0).abs() <= tolerance,
                    "{}: flow {flow} holds {:.3} of C/N, tolerance {tolerance}",
                    cc.label(),
                    mean / fair,
                );
                total += mean;
            }
            assert!(
                // 0.1 %: a packet per flow may straddle the window's edges.
                total <= line_rate.as_f64() * 1.001,
                "{}: flows delivered {total} bit/s over a {line_rate} link",
                cc.label(),
            );
        }
    }
}
