//! Quickstart: two HPCC flows share a 100 Gbps bottleneck.
//!
//! Builds the smallest interesting network (three hosts, one switch),
//! runs one long flow, lets a second flow join mid-stream, and prints how
//! the protocol splits the bottleneck — the exact situation (a new
//! line-rate flow joining) whose unfairness the paper attacks.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fairness_repro::dcsim::{Bytes, Nanos, Simulation};
use fairness_repro::fairsim::{CcSpec, NetEnv, ProtocolKind, Variant};
use fairness_repro::metrics::jain;
use fairness_repro::netsim::{run_watched, FlowSpec, MonitorConfig, NetConfig, Topology};

fn main() {
    // 1. Topology: a 3-host star (two senders, one receiver).
    let topo = Topology::paper_star(3);
    let hosts = topo.hosts.clone();
    let switch = topo.switches[0];
    let env = NetEnv::incast_star(topo.base_rtt);

    // 2. Network with per-flow rate sampling every 10 us.
    let mut net = topo.builder.build(
        NetConfig::default(),
        MonitorConfig {
            sample_interval: Some(Nanos::from_micros(10)),
            sample_until: Nanos::from_millis(5),
            watch_ports: vec![],
            track_flow_rates: true,
        },
    );
    net.monitor.cfg.watch_ports = vec![net.port_towards(switch, hosts[2]).expect("port")];

    // 3. Two HPCC flows to host 2: the second joins 100 us in, at line
    //    rate, stealing bandwidth from the first.
    let spec = CcSpec::new(ProtocolKind::Hpcc, Variant::Default);
    for (i, start_us) in [0u64, 100].into_iter().enumerate() {
        net.add_flow(
            FlowSpec {
                src: hosts[i],
                dst: hosts[2],
                size: Bytes::from_mb(2),
                start: Nanos::from_micros(start_us),
            },
            spec.build(&env, i as u64),
        );
    }

    // 4. Run.
    let mut sim = Simulation::new(net);
    {
        let (world, queue) = sim.split_mut();
        world.prime(queue);
    }
    let outcome = run_watched(
        &mut sim,
        Nanos::from_millis(5),
        u64::MAX,
        Nanos::from_millis(1),
    );
    let net = sim.world();
    println!("run outcome: {outcome}");
    println!();

    // 5. Report: per-flow goodput over time and the fairness index.
    println!("time(us)  flow0(Gbps)  flow1(Gbps)  queue(KB)  jain");
    println!("-----------------------------------------------------");
    for s in net.monitor.samples().iter().step_by(4) {
        let rate = |id: u32| {
            s.flow_rates
                .iter()
                .find(|(f, _)| f.0 == id)
                .map(|(_, r)| r / 1e9)
                .unwrap_or(0.0)
        };
        let rates: Vec<f64> = s.flow_rates.iter().map(|(_, r)| *r).collect();
        println!(
            "{:>8.0}  {:>11.1}  {:>11.1}  {:>9.1}  {:.3}",
            s.t.as_micros_f64(),
            rate(0),
            rate(1),
            s.queue_bytes[0] as f64 / 1e3,
            if rates.is_empty() { 1.0 } else { jain(&rates) },
        );
    }
    println!();
    for r in net.monitor.fcts() {
        println!(
            "flow {} ({}): start {} -> finish {}  (FCT {})",
            r.flow.0,
            r.size,
            r.start,
            r.finish,
            r.fct()
        );
    }
}
