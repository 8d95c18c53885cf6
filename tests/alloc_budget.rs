//! Allocation budget of the engine hot path, measured.
//!
//! Fat-tree runs dispatch millions of events, and per-event boxing,
//! transient `Vec`s and clones were once measured overtaking algorithmic
//! order. This test counts every heap allocation from `prime` to the end
//! of `run_watched` with a counting `#[global_allocator]` and holds the
//! ratio to events dispatched under [`BUDGET`] on a sampled incast, a
//! fat-tree slice, and the same slice under fabric loss (RTOs, go-back-N,
//! drops). Amortized growth — the calendar, the packet pool, monitor
//! sample vectors — stays far below the budget; one allocation per packet
//! hop overshoots it many times over.
//!
//! The counters are process-global, so everything runs in one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

use fairness_repro::dcsim::{Nanos, Simulation};
use fairness_repro::fairsim::{CcSpec, NetEnv, ProtocolKind, Variant};
use fairness_repro::netsim::{
    run_watched, FatTreeConfig, FaultPlan, FlowSpec, LinkFault, LossModel, MonitorConfig,
    NetConfig, Network, NodeId, RtoBackoff, RunOutcome, Topology,
};
use fairness_repro::workloads::{
    arrivals::mixed_arrivals, distributions, staggered_incast, ArrivalConfig, FlowArrival,
    IncastConfig,
};

/// Most heap allocations per dispatched event any run may make.
const BUDGET: f64 = 0.01;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// `System`, counting allocation calls while `COUNTING` is on.
struct CountingAlloc;

// SAFETY: every method delegates to `System` with the caller's arguments
// unchanged, so `System`'s contract carries over; the counters are plain
// atomics and never touch the allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Add `arrivals` over `hosts`, each flow under `cc`.
fn add_flows(
    net: &mut Network,
    hosts: &[NodeId],
    arrivals: &[FlowArrival],
    cc: CcSpec,
    env: &NetEnv,
) {
    for (i, f) in arrivals.iter().enumerate() {
        net.add_flow(
            FlowSpec {
                src: hosts[f.src],
                dst: hosts[f.dst],
                size: f.size,
                start: f.start,
            },
            cc.build(env, 42 + i as u64),
        );
    }
}

/// One measured run: allocations per event dispatched, how the run ended,
/// and how many packets the wire lost.
type Measured = (f64, RunOutcome, u64);

/// Prime and run `net` to `deadline`, counting allocations.
fn allocs_per_event(net: Network, deadline: Nanos) -> Measured {
    let mut sim = Simulation::new(net);
    ALLOCS.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    {
        let (w, q) = sim.split_mut();
        w.prime(q);
    }
    let outcome = run_watched(&mut sim, deadline, u64::MAX, Nanos::from_millis(1));
    COUNTING.store(false, Relaxed);
    let events = sim.events_handled();
    assert!(
        events > 100_000,
        "too short a run to judge: {events} events"
    );
    let ratio = ALLOCS.load(Relaxed) as f64 / events as f64;
    (ratio, outcome, sim.world().fault_stats().wire_drops)
}

/// The paper's 16-1 staggered incast on its star, sampled every 5 µs
/// with per-flow rates and the bottleneck queue watched.
fn sampled_incast() -> Measured {
    let incast = IncastConfig::paper_16_1();
    let topo = Topology::paper_star(incast.senders + 1);
    let env = NetEnv::incast_star(topo.base_rtt);
    let horizon = Nanos::from_millis(50);
    let mut net = topo.builder.build(
        NetConfig::default(),
        MonitorConfig {
            sample_interval: Some(Nanos::from_micros(5)),
            sample_until: horizon,
            watch_ports: vec![],
            track_flow_rates: true,
        },
    );
    let bottleneck = net
        .port_towards(topo.switches[0], topo.hosts[incast.senders])
        .expect("the receiver hangs off the switch");
    net.monitor.cfg.watch_ports = vec![bottleneck];
    let cc = CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf);
    add_flows(&mut net, &topo.hosts, &staggered_incast(&incast), cc, &env);
    allocs_per_event(net, horizon)
}

/// A 0.3 ms WebSearch + Ali_Storage arrival slice at load 0.5 on the
/// 32-host fat-tree under Swift VAI+SF, drained for 4x as long; with
/// `loss`, uniform loss on every switch–switch link.
fn fat_tree_slice(loss: f64) -> Measured {
    let fat_tree = FatTreeConfig::reduced();
    let topo = fat_tree.build();
    let horizon = Nanos::from_micros(300);
    let dists: Vec<_> = [distributions::WEBSEARCH, distributions::ALI_STORAGE]
        .iter()
        .map(|n| distributions::by_name(n).expect("a stock distribution"))
        .collect();
    let arrivals = mixed_arrivals(
        &ArrivalConfig {
            n_hosts: topo.hosts.len(),
            host_rate: fat_tree.host_rate,
            load: 0.5,
            horizon,
            seed: 42,
        },
        &dists.iter().collect::<Vec<_>>(),
    );
    let mut faults = FaultPlan::none();
    if loss > 0.0 {
        for &(a, b) in &topo.links {
            if topo.switches.contains(&a) && topo.switches.contains(&b) {
                faults = faults.link(LinkFault::on(a, b).with_loss(LossModel::uniform(loss)));
            }
        }
    }
    let cfg = NetConfig {
        faults,
        rto_backoff: RtoBackoff {
            multiplier: 2,
            cap: Nanos::from_millis(1),
            jitter_frac: 0.1,
        },
        ..NetConfig::default()
    };
    let env = NetEnv::fat_tree(topo.base_rtt);
    let mut net = topo.builder.build(cfg, MonitorConfig::default());
    let cc = CcSpec::new(ProtocolKind::Swift, Variant::VaiSf);
    add_flows(&mut net, &topo.hosts, &arrivals, cc, &env);
    allocs_per_event(net, Nanos::from_ns(horizon.as_u64() * 5))
}

#[test]
fn hot_path_allocations_stay_within_budget() {
    let runs = [
        ("sampled 16-1 incast", sampled_incast()),
        ("32-host fat-tree slice", fat_tree_slice(0.0)),
        (
            "32-host fat-tree slice, 1e-3 fabric loss",
            fat_tree_slice(1e-3),
        ),
    ];
    assert!(runs[2].1 .2 > 0, "the lossy slice lost no packet");
    let report: Vec<String> = runs
        .iter()
        .map(|(name, (ratio, outcome, _))| format!("{name}: {ratio:.5} ({outcome})"))
        .collect();
    println!("allocations per event dispatched:\n{}", report.join("\n"));
    assert!(
        runs.iter().all(|(_, (ratio, ..))| *ratio <= BUDGET),
        "over the {BUDGET} allocations-per-event budget — something on the \
         per-packet path allocates:\n{}",
        report.join("\n")
    );
}
