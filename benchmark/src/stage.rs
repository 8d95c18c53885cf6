//! The staged path: one simulated scenario re-assembled from the public
//! pieces `Scenario::run_with` uses, with a timer around each stage.
//!
//! `run_with` builds, runs and collects in one call, so from outside only
//! its total is visible. Re-assembling the same scenario here — topology,
//! `NetBuilder::build`, arrivals, `CcSpec::build` + `Network::add_flow`,
//! `Simulation::with_scheduler`, `Network::prime`, `run_watched` — lets the
//! harness time the stages, slide [`Probe`]/[`TimedCc`] in between the
//! layers, and read counters off the finished [`Network`]. The digest check
//! in [`crate::workload`] proves the re-assembly and the probes transparent:
//! a staged or probed run must reproduce `run_with` flow for flow.

use std::any::Any;

use dcsim::{EventQueue, Nanos, Scheduler, SchedulerKind, Simulation, TimingWheel};
use faircc::CongestionControl;
use fairsim::scenarios::LONG_FLOW_BYTES;
use fairsim::{
    CcSpec, DatacenterScenario, FaultScenario, IncastScenario, NetEnv, ProtocolKind, RunCtx,
    Scenario,
};
use netsim::{
    run_watched, FatTreeConfig, FaultPlan, FlapSchedule, FlowSpec, LinkFault, LossModel,
    MonitorConfig, NetConfig, Network, NodeId, RedConfig, RtoBackoff, RunOutcome, Topology,
};
use workloads::{
    arrivals::{mixed_arrivals, ArrivalConfig},
    distributions, staggered_incast, FlowArrival,
};

use crate::clock::{now_ns, secs};
use crate::probe::{cc_totals, reset_cc, CcTotals, Probe, SchedTotals, TimedCc};

/// One simulated scenario of a workload.
#[derive(Debug, Clone)]
pub enum Case {
    /// A staggered incast on the single-switch star.
    Incast(IncastScenario),
    /// Poisson traffic on a fat-tree.
    Datacenter(DatacenterScenario),
    /// The same under wire loss and a flapping link.
    Faults(FaultScenario),
}

/// What one run of a case produced, reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// How the stall watchdog classified the run.
    pub outcome: RunOutcome,
    /// Events the engine dispatched.
    pub events: u64,
    /// Flows offered.
    pub offered: usize,
    /// Flows completed before the deadline.
    pub completed: usize,
    /// FNV-1a over every completed flow's `(id, size, slowdown bits)` in
    /// completion order, then the event count.
    pub digest: u64,
    /// Smallest slowdown (must be ≥ 1).
    pub min_slowdown: f64,
    /// Slowdowns of the long flows (for the simulated p99.9).
    pub long_slowdowns: Vec<f64>,
    /// Time (µs) from which the windowed Jain index stays ≥ 0.9; incast
    /// runs through `run_with` only (the staged path does not collect the
    /// Jain series — that collection is the layer being measured).
    pub jain_converged_us: Option<f64>,
}

impl RunSummary {
    fn from_raw(
        outcome: RunOutcome,
        events: u64,
        offered: usize,
        raw: &[(u32, u64, f64)],
        jain_converged_us: Option<f64>,
    ) -> RunSummary {
        let mut h = Fnv::new();
        let mut min_slowdown = f64::INFINITY;
        let mut long_slowdowns = Vec::new();
        for &(id, size, slowdown) in raw {
            h.word(u64::from(id));
            h.word(size);
            h.word(slowdown.to_bits());
            min_slowdown = min_slowdown.min(slowdown);
            if size > LONG_FLOW_BYTES {
                long_slowdowns.push(slowdown);
            }
        }
        h.word(events);
        RunSummary {
            outcome,
            events,
            offered,
            completed: raw.len(),
            digest: h.finish(),
            min_slowdown,
            long_slowdowns,
            jain_converged_us,
        }
    }

    /// The parts two runs of one seed must agree on exactly, whichever
    /// path or scheduler produced them.
    pub fn same_simulation(&self, other: &RunSummary) -> bool {
        self.outcome == other.outcome
            && self.events == other.events
            && self.offered == other.offered
            && self.completed == other.completed
            && self.digest == other.digest
    }
}

/// 64-bit FNV-1a over `u64` words (little-endian bytes).
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mix in one word.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Mix in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Case {
    /// The protocol family this case runs.
    pub fn protocol(&self) -> ProtocolKind {
        self.cc().kind
    }

    fn cc(&self) -> &CcSpec {
        match self {
            Case::Incast(s) => &s.cc,
            Case::Datacenter(s) => &s.cc,
            Case::Faults(s) => &s.cc,
        }
    }

    /// Run through the user-facing entry point, `Scenario::run_with`.
    pub fn run_with(&self, seed: u64) -> RunSummary {
        let ctx = RunCtx::new(seed);
        match self {
            Case::Incast(s) => {
                let r = s.run_with(&ctx);
                let converged = r.convergence_time(0.9);
                RunSummary::from_raw(
                    r.outcome,
                    r.events_handled,
                    s.incast.senders,
                    &r.raw,
                    converged,
                )
            }
            Case::Datacenter(s) => {
                let r = s.run_with(&ctx);
                RunSummary::from_raw(r.outcome, r.events_handled, r.n_flows, &r.raw, None)
            }
            Case::Faults(s) => {
                let r = s.run_with(&ctx);
                RunSummary::from_raw(r.outcome, r.events_handled, r.n_flows, &r.raw, None)
            }
        }
    }
}

/// Host seconds of each set-up stage (summed when cases are merged).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// `Topology::paper_star` / `FatTreeConfig::build`.
    pub topo_s: f64,
    /// `NetBuilder::build` (ports, routing tables, fault plan).
    pub net_s: f64,
    /// `workloads::*arrivals`.
    pub arrivals_s: f64,
    /// The `CcSpec::build` + `Network::add_flow` loop.
    pub add_flows_s: f64,
    /// `CcSpec::build` calls timed one by one (traced staging only).
    pub cc_build: crate::probe::Span,
}

impl StageTimes {
    /// The four stages together.
    pub fn total_s(&self) -> f64 {
        self.topo_s + self.net_s + self.arrivals_s + self.add_flows_s
    }

    /// Add another case's stage times to this one.
    pub fn merge(&mut self, o: &StageTimes) {
        self.topo_s += o.topo_s;
        self.net_s += o.net_s;
        self.arrivals_s += o.arrivals_s;
        self.add_flows_s += o.add_flows_s;
        self.cc_build.merge(o.cc_build);
    }
}

/// A scenario built up to the point where it can be primed and run.
pub struct Staged {
    /// The network with every flow registered.
    pub net: Network,
    /// Simulated deadline of the run.
    pub deadline: Nanos,
    /// Event budget (runaway protection).
    pub budget: u64,
    /// Stall-watchdog window.
    pub watchdog: Nanos,
    /// Host time of each stage.
    pub times: StageTimes,
}

/// `fairsim`'s rule for the stall-watchdog window.
fn default_watchdog(deadline: Nanos) -> Nanos {
    Nanos::from_ns(deadline.as_u64() / 4).max(Nanos::from_millis(1))
}

/// The fat-tree arrival list `DatacenterScenario`/`FaultScenario` generate.
fn fat_tree_arrivals(
    fat_tree: &FatTreeConfig,
    mix: &[String],
    load: f64,
    horizon: Nanos,
    seed: u64,
) -> Vec<FlowArrival> {
    let dists: Vec<_> = mix
        .iter()
        .map(|n| distributions::by_name(n).unwrap_or_else(|| panic!("unknown workload {n}")))
        .collect();
    let refs: Vec<&workloads::EmpiricalCdf> = dists.iter().collect();
    mixed_arrivals(
        &ArrivalConfig {
            n_hosts: fat_tree.num_hosts(),
            host_rate: fat_tree.host_rate,
            load,
            horizon,
            seed: seed ^ 0xD15C0,
        },
        &refs,
    )
}

/// `FaultScenario`'s plan: loss on every fabric link, the flap on the last.
fn fault_plan(sc: &FaultScenario, topo: &Topology, deadline: Nanos) -> FaultPlan {
    assert!(!sc.bursty, "the benchmark stages uniform loss only");
    let is_switch = |n: NodeId| topo.switches.contains(&n);
    let fabric: Vec<(NodeId, NodeId)> = topo
        .links
        .iter()
        .copied()
        .filter(|&(a, b)| is_switch(a) && is_switch(b))
        .collect();
    let mut plan = FaultPlan::none();
    for (i, &(a, b)) in fabric.iter().enumerate() {
        let mut f = LinkFault::on(a, b);
        if sc.loss > 0.0 {
            f = f.with_loss(LossModel::uniform(sc.loss));
        }
        if i == fabric.len() - 1 {
            if let Some((period, down_for)) = sc.flap {
                let cycles = (deadline.as_u64() / period.as_u64()).max(1);
                f = f.with_flap(FlapSchedule::periodic(
                    period,
                    down_for,
                    period,
                    u32::try_from(cycles).unwrap_or(u32::MAX),
                ));
            }
        }
        if f.loss.is_some() || f.flap.is_some() {
            plan = plan.link(f);
        }
    }
    plan
}

/// Everything that differs between the scenario families, resolved before
/// the shared build → add flows sequence.
struct Plan {
    topo: Topology,
    env: NetEnv,
    cfg: NetConfig,
    monitor: MonitorConfig,
    /// Per-flow CC seed rule: `seed * mul + flow index`.
    seed_mul: u64,
    deadline: Nanos,
    budget: u64,
    watchdog: Nanos,
}

impl Case {
    /// Build the case up to (not including) `prime`, the way `run_with`
    /// does. With `traced`, every flow's CC is wrapped in [`TimedCc`] and
    /// each `CcSpec::build` call is timed on its own.
    pub fn stage(&self, seed: u64, traced: bool) -> Staged {
        let mut times = StageTimes::default();

        let t0 = now_ns();
        let topo = match self {
            Case::Incast(s) => Topology::paper_star(s.incast.senders + 1),
            Case::Datacenter(s) => s.fat_tree.build(),
            Case::Faults(s) => s.fat_tree.build(),
        };
        let t1 = now_ns();
        times.topo_s = secs(t0, t1);

        let base_cfg = NetConfig {
            seed,
            ..NetConfig::default()
        };
        let plan = match self {
            Case::Incast(s) => Plan {
                env: NetEnv::incast_star(topo.base_rtt),
                cfg: base_cfg,
                monitor: MonitorConfig {
                    sample_interval: Some(s.sample_interval),
                    sample_until: s.horizon,
                    watch_ports: vec![],
                    track_flow_rates: true,
                },
                seed_mul: 1009,
                deadline: s.horizon,
                budget: 2_000_000_000,
                watchdog: default_watchdog(s.horizon),
                topo,
            },
            Case::Datacenter(s) => {
                let deadline = Nanos::from_ns(s.horizon.as_u64() * 5);
                Plan {
                    env: NetEnv::fat_tree(topo.base_rtt),
                    cfg: base_cfg,
                    monitor: MonitorConfig::default(),
                    seed_mul: 31,
                    deadline,
                    budget: 20_000_000_000,
                    watchdog: default_watchdog(deadline),
                    topo,
                }
            }
            Case::Faults(s) => {
                let deadline = Nanos::from_ns(s.horizon.as_u64() * 5);
                let rto_cap = Nanos::from_millis(1);
                Plan {
                    env: NetEnv::fat_tree(topo.base_rtt),
                    cfg: NetConfig {
                        faults: fault_plan(s, &topo, deadline),
                        rto_backoff: RtoBackoff {
                            multiplier: 2,
                            cap: rto_cap,
                            jitter_frac: 0.1,
                        },
                        ..base_cfg
                    },
                    monitor: MonitorConfig::default(),
                    seed_mul: 31,
                    deadline,
                    budget: 20_000_000_000,
                    watchdog: default_watchdog(deadline).max(Nanos::from_ns(rto_cap.as_u64() * 5)),
                    topo,
                }
            }
        };

        let t2 = now_ns();
        let hosts = plan.topo.hosts.clone();
        let mut builder = plan.topo.builder;
        if self.cc().needs_red() {
            builder.red_on_switches(RedConfig::dcqcn_100g());
        }
        let mut net = builder.build(plan.cfg, plan.monitor);
        if let Case::Incast(s) = self {
            let receiver = hosts[s.incast.senders];
            let bottleneck = net
                .port_towards(plan.topo.switches[0], receiver)
                .expect("receiver is attached to the switch");
            net.monitor.cfg.watch_ports = vec![bottleneck];
        }
        let t3 = now_ns();
        times.net_s = secs(t2, t3);

        let arrivals = match self {
            Case::Incast(s) => staggered_incast(&s.incast),
            Case::Datacenter(s) => {
                fat_tree_arrivals(&s.fat_tree, &s.workloads, s.load, s.horizon, seed)
            }
            Case::Faults(s) => {
                fat_tree_arrivals(&s.fat_tree, &s.workloads, s.load, s.horizon, seed)
            }
        };
        let t4 = now_ns();
        times.arrivals_s = secs(t3, t4);

        let spec = *self.cc();
        for (i, f) in arrivals.iter().enumerate() {
            let flow_seed = seed.wrapping_mul(plan.seed_mul).wrapping_add(i as u64);
            let cc: Box<dyn CongestionControl> = if traced {
                let b0 = now_ns();
                let inner = spec.build(&plan.env, flow_seed);
                times.cc_build.merge(crate::probe::Span {
                    n: 1,
                    ns: now_ns().saturating_sub(b0),
                });
                Box::new(TimedCc(inner))
            } else {
                spec.build(&plan.env, flow_seed)
            };
            net.add_flow(
                FlowSpec {
                    src: hosts[f.src],
                    dst: hosts[f.dst],
                    size: f.size,
                    start: f.start,
                },
                cc,
            );
        }
        times.add_flows_s = secs(t4, now_ns());

        Staged {
            net,
            deadline: plan.deadline,
            budget: plan.budget,
            watchdog: plan.watchdog,
            times,
        }
    }
}

/// Counters read off the finished network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Σ `Port::tx_packets`: packet-hops actually transmitted.
    pub hops: u64,
    /// Deepest egress queue seen on any port, bytes.
    pub max_qbytes: u64,
    /// Monitor samples taken.
    pub samples: u64,
    /// Data packets tail-dropped.
    pub drops: u64,
    /// Fault-injection counters.
    pub wire_drops: u64,
    /// Packets lost to a link going down.
    pub link_down_drops: u64,
    /// Route recomputations after link-state changes.
    pub reroutes: u64,
    /// Retransmission timeouts fired.
    pub rto_fires: u64,
}

impl NetCounters {
    fn read(net: &Network) -> NetCounters {
        let mut c = NetCounters::default();
        for node in net.nodes_iter() {
            for port in &node.ports {
                c.hops += port.tx_packets();
                c.max_qbytes = c.max_qbytes.max(port.max_qbytes());
            }
        }
        let f = net.fault_stats();
        c.samples = net.monitor.samples().len() as u64;
        c.drops = net.dropped_data_packets();
        c.wire_drops = f.wire_drops;
        c.link_down_drops = f.link_down_drops;
        c.reroutes = f.reroutes;
        c.rto_fires = f.rto_fires;
        c
    }

    /// Add another case's counters to this one.
    pub fn merge(&mut self, o: &NetCounters) {
        self.hops += o.hops;
        self.max_qbytes = self.max_qbytes.max(o.max_qbytes);
        self.samples += o.samples;
        self.drops += o.drops;
        self.wire_drops += o.wire_drops;
        self.link_down_drops += o.link_down_drops;
        self.reroutes += o.reroutes;
        self.rto_fires += o.rto_fires;
    }
}

/// A finished staged run.
pub struct StagedRun {
    /// What the checks compare against `run_with`.
    pub summary: RunSummary,
    /// Host seconds from `Simulation::with_scheduler` through `prime`.
    pub prime_s: f64,
    /// Host seconds inside `run_watched`.
    pub run_s: f64,
    /// Counters off the finished network.
    pub counters: NetCounters,
}

/// Slowdowns off the finished network, by `run_with`'s own formula.
fn summarize(net: &Network, outcome: RunOutcome, events: u64) -> RunSummary {
    let raw: Vec<(u32, u64, f64)> = net
        .monitor
        .fcts()
        .iter()
        .map(|r| {
            let ideal = net.ideal_fct(r.flow);
            let slowdown = (r.fct().as_u64() as f64 / ideal.as_u64() as f64).max(1.0);
            (r.flow.0, r.size.as_u64(), slowdown)
        })
        .collect();
    RunSummary::from_raw(outcome, events, net.flow_count(), &raw, None)
}

impl Staged {
    /// Prime and run on scheduler `sched`; `after` sees the scheduler once
    /// the run has ended (the probes read their totals out there).
    fn drive<S: Scheduler<netsim::Event>, R>(
        self,
        sched: S,
        after: impl FnOnce(&mut S) -> R,
    ) -> (StagedRun, R) {
        let t0 = now_ns();
        let mut sim = Simulation::with_scheduler(self.net, sched);
        {
            let (world, queue) = sim.split_mut();
            world.prime(queue);
        }
        let t1 = now_ns();
        let outcome = run_watched(&mut sim, self.deadline, self.budget, self.watchdog);
        let t2 = now_ns();
        let extra = after(sim.queue_mut());
        let events = sim.events_handled();
        let net = sim.into_world();
        let run = StagedRun {
            summary: summarize(&net, outcome, events),
            prime_s: secs(t0, t1),
            run_s: secs(t1, t2),
            counters: NetCounters::read(&net),
        };
        (run, extra)
    }

    /// Run un-probed on the given scheduler.
    pub fn run(self, kind: SchedulerKind) -> StagedRun {
        match kind {
            SchedulerKind::Heap => self.drive(EventQueue::new(), |_| ()).0,
            SchedulerKind::Wheel => self.drive(TimingWheel::new(), |_| ()).0,
        }
    }

    /// Run with a [`Probe`] around the given scheduler. Stage with
    /// `traced = true` to have the CC callbacks timed as well.
    pub fn run_probed(self, kind: SchedulerKind) -> (StagedRun, SchedTotals, CcTotals) {
        reset_cc();
        let (run, sched) = match kind {
            SchedulerKind::Heap => self.drive(Probe::new(EventQueue::new()), Probe::finish),
            SchedulerKind::Wheel => self.drive(Probe::new(TimingWheel::new()), Probe::finish),
        };
        (run, sched, cc_totals())
    }

    /// Prime on the default scheduler without running: the end of set-up,
    /// "first event dispatchable". Returns the primed simulation, so that
    /// whoever times set-up drops it after stopping the clock.
    pub fn prime_only(self) -> Box<dyn Any> {
        fn go<S: Scheduler<netsim::Event> + 'static>(net: Network, sched: S) -> Box<dyn Any> {
            let mut sim = Simulation::with_scheduler(net, sched);
            let (world, queue) = sim.split_mut();
            world.prime(queue);
            Box::new(sim)
        }
        match SchedulerKind::default() {
            SchedulerKind::Heap => go(self.net, EventQueue::new()),
            SchedulerKind::Wheel => go(self.net, TimingWheel::new()),
        }
    }
}
