//! Distributed deep learning on a shared cluster — the paper's motivating
//! application.
//!
//! A ring all-reduce (the gradient exchange of data-parallel training)
//! moves large, bandwidth-bound flows between neighbouring workers. On a
//! shared fat-tree the ring competes with everyone else's small-flow
//! traffic, and because small flows *join at line rate*, the ring's long
//! flows are exactly the victims of slow convergence to fairness: the
//! all-reduce completes only when its **slowest** flow completes, so its
//! step time is a max over per-link tails.
//!
//! This example runs one all-reduce round (8 workers × 4 MB gradient
//! shards) against Alibaba-storage-shaped background traffic, under HPCC
//! and HPCC VAI SF, and reports the all-reduce completion time.
//!
//! ```text
//! cargo run --release --example allreduce
//! ```

use fairness_repro::dcsim::{Bytes, Nanos, Simulation};
use fairness_repro::fairsim::{CcSpec, NetEnv, ProtocolKind, Variant};
use fairness_repro::netsim::{
    run_watched, FatTreeConfig, FlowId, FlowSpec, MonitorConfig, NetConfig, RunOutcome,
};
use fairness_repro::workloads::{
    arrivals::{poisson_arrivals, ArrivalConfig},
    distributions,
};

const WORKERS: usize = 8;
const SHARD: u64 = 4_000_000; // 4 MB per ring step

fn run(variant: Variant) -> (String, f64, f64) {
    let topo = FatTreeConfig::reduced().build();
    let env = NetEnv::fat_tree(topo.base_rtt);
    let hosts = topo.hosts.clone();
    let spec = CcSpec::new(ProtocolKind::Hpcc, variant);
    let mut net = topo
        .builder
        .build(NetConfig::default(), MonitorConfig::default());

    // The ring: workers spread across the fabric (every 4th host, so the
    // ring crosses pods), each sending one shard to its successor.
    let mut ring_ids: Vec<FlowId> = Vec::new();
    for w in 0..WORKERS {
        let src = hosts[w * 4];
        let dst = hosts[((w + 1) % WORKERS) * 4];
        let id = net.add_flow(
            FlowSpec {
                src,
                dst,
                size: Bytes::new(SHARD),
                start: Nanos::from_micros(100),
            },
            spec.build(&env, 7_000 + w as u64),
        );
        ring_ids.push(id);
    }

    // Background: storage-shaped small flows at 30% load.
    let bg = poisson_arrivals(
        &ArrivalConfig {
            n_hosts: hosts.len(),
            host_rate: topo.host_rate,
            load: 0.3,
            horizon: Nanos::from_millis(2),
            seed: 99,
        },
        &distributions::ali_storage(),
    );
    let n_bg = bg.len();
    for (i, f) in bg.iter().enumerate() {
        net.add_flow(
            FlowSpec {
                src: hosts[f.src],
                dst: hosts[f.dst],
                size: f.size,
                start: f.start,
            },
            spec.build(&env, 50_000 + i as u64),
        );
    }

    let label = spec.label();
    let mut sim = Simulation::new(net);
    {
        let (world, queue) = sim.split_mut();
        world.prime(queue);
    }
    let outcome = run_watched(
        &mut sim,
        Nanos::from_millis(20),
        u64::MAX,
        Nanos::from_millis(2),
    );
    assert_eq!(
        outcome,
        RunOutcome::Completed,
        "all-reduce round must drain"
    );
    let net = sim.world();

    let finishes: Vec<f64> = ring_ids
        .iter()
        .map(|id| {
            net.flow(*id)
                .finished
                .expect("ring flow must complete")
                .as_micros_f64()
        })
        .collect();
    let step_time = finishes.iter().cloned().fold(f64::MIN, f64::max) - 100.0;
    let mean_fct = finishes.iter().map(|f| f - 100.0).sum::<f64>() / WORKERS as f64;
    println!(
        "  {label:<14} {n_bg} background flows; ring mean FCT {mean_fct:>7.0} us, \
         all-reduce step {step_time:>7.0} us"
    );
    (label, step_time, mean_fct)
}

fn main() {
    println!(
        "ring all-reduce: {WORKERS} workers x {} MB shards + storage background\n",
        SHARD / 1_000_000
    );
    let (_, base_step, _) = run(Variant::Default);
    let (_, mech_step, _) = run(Variant::VaiSf);
    println!(
        "\nall-reduce step time (max over ring flows): {:.2}x {} with VAI SF",
        (base_step / mech_step).max(mech_step / base_step),
        if mech_step < base_step {
            "faster"
        } else {
            "slower"
        },
    );
    println!("The step is a max over flows, so shaving the per-flow tail shaves the step.");
}
