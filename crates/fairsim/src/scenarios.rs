//! The experiment drivers, unified behind the [`Scenario`] trait.
//!
//! A scenario type only *describes* its run (a private `Plan`) and
//! *collects* its own result from the finished network; the private
//! `execute` is the one build → flows → run path in between.

use std::borrow::Cow;

use dcsim::{EventQueue, Nanos, Scheduler, SchedulerKind, Simulation, TimingWheel};
use faircc::CongestionControl;
use metrics::{jain, SlowdownRecord, SlowdownTable};
use netsim::{
    run_watched, FatTreeConfig, FaultPlan, FaultStats, FctRecord, FlapSchedule, FlowSpec,
    LinkFault, LossModel, MonitorConfig, NetConfig, Network, NodeId, RtoBackoff, RunOutcome,
    Topology,
};
use simtrace::{TraceConfig, TraceLevel, Tracer};
use workloads::{
    arrivals::{mixed_arrivals, ArrivalConfig},
    distributions, staggered_incast, FlowArrival, IncastConfig,
};

use crate::spec::{CcSpec, NetEnv};

/// Cross-cutting parameters of one experiment run: everything that is a
/// property of *how* a scenario executes rather than *what* it simulates.
///
/// Scenario structs describe the workload (topology, flows, protocol);
/// a `RunCtx` carries the seed, the observability configuration and, for
/// the tests that compare them, the event calendar. The same scenario value
/// can be re-run under different contexts (new seed, tracing on/off)
/// without mutating it.
#[derive(Debug, Clone, Copy)]
pub struct RunCtx {
    /// Root seed for the run's deterministic randomness.
    pub seed: u64,
    /// The event calendar: `SchedulerKind::default()`, the binary heap, from
    /// [`RunCtx::new`]. Results are calendar-invariant, so only the
    /// byte-identity tests that compare it with the timing wheel set this.
    pub scheduler: SchedulerKind,
    /// Trace/metrics collection level and subsystem filter.
    pub trace: TraceConfig,
}

impl RunCtx {
    /// A context with the given seed, on the default calendar, tracing off.
    pub fn new(seed: u64) -> Self {
        RunCtx {
            seed,
            scheduler: SchedulerKind::default(),
            trace: TraceConfig::off(),
        }
    }

    /// Force the event calendar, for tests that compare the two.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Select the trace/metrics configuration.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }
}

/// An experiment that can be run under a [`RunCtx`].
///
/// All four drivers ([`IncastScenario`], [`DatacenterScenario`],
/// [`TraceScenario`], [`FaultScenario`]) implement this, so harness code
/// can be generic over the scenario type, and seed and trace settings
/// travel in the context, never in scenario fields.
pub trait Scenario {
    /// The result type the run produces.
    type Outcome;

    /// Execute the scenario under the given context.
    fn run_with(&self, ctx: &RunCtx) -> Self::Outcome;
}

/// A finished run, for its scenario to collect from.
struct Finished {
    net: Network,
    outcome: RunOutcome,
    events_handled: u64,
    occupancy_hwm: u64,
    trace: Option<Tracer>,
}

/// Prime and run a primed network to `deadline` under scheduler `S`,
/// with a stall watchdog (see [`netsim::run_watched`]).
///
/// Every scenario funnels through here, so heap and wheel runs execute the
/// exact same driver code — the calendar is the only difference, which is
/// what the scheduler-equivalence tests rely on. The watchdog
/// chunking is event-order transparent, so it does not perturb results.
fn drive<S: Scheduler<netsim::Event> + Default>(
    net: Network,
    deadline: Nanos,
    budget: u64,
    watchdog: Nanos,
) -> Finished {
    let mut sim = Simulation::with_scheduler(net, S::default());
    {
        let (w, q) = sim.split_mut();
        w.prime(q);
    }
    let outcome = run_watched(&mut sim, deadline, budget, watchdog);
    let events_handled = sim.events_handled();
    let occupancy_hwm = sim.occupancy_high_water() as u64;
    let mut net = sim.into_world();
    // Publish end-of-run metrics and detach the tracer for the result;
    // `None` when tracing was configured off, so results stay lightweight
    // on untraced runs.
    let traced = net.tracer().config().level != TraceLevel::Off;
    let trace = traced.then(|| {
        net.publish_metrics();
        net.take_tracer()
    });
    Finished {
        net,
        outcome,
        events_handled,
        occupancy_hwm,
        trace,
    }
}

/// Default stall-watchdog window for a run with the given deadline: a
/// quarter of the deadline, floored at 1 ms so RTT-scale quiet spells and
/// backed-off RTO waits never read as stalls (see [`netsim::run_watched`]).
fn default_watchdog(deadline: Nanos) -> Nanos {
    (deadline / 4).max(Nanos::from_millis(1))
}

/// Everything that differs between the scenario families, resolved
/// before the shared [`execute`] sequence.
struct Plan<'a> {
    topo: Topology,
    env: NetEnv,
    /// Network parameters; [`execute`] sets the seed from the context.
    cfg: NetConfig,
    monitor: MonitorConfig,
    /// Record the backlog of the egress port on the first node that
    /// leads to the second (ports only exist once the network is built).
    watch: Option<(NodeId, NodeId)>,
    /// The flows to inject (host indices into `topo.hosts`).
    arrivals: Cow<'a, [FlowArrival]>,
    /// Per-flow CC seed rule: `ctx.seed * seed_mul + flow index`, so the
    /// probabilistic variants draw an independent stream per flow.
    seed_mul: u64,
    deadline: Nanos,
    /// Event budget (runaway protection).
    budget: u64,
    /// Stall-watchdog window.
    watchdog: Nanos,
}

/// The one way a scenario runs: RED if the protocol needs it → build →
/// tracer → flows → run to the deadline on the context's calendar.
///
/// `cc` supplies the network-side needs (RED marking);
/// `make_cc(env, flow_seed)` each flow's congestion control.
fn execute(
    plan: Plan<'_>,
    cc: &CcSpec,
    ctx: &RunCtx,
    make_cc: &dyn Fn(&NetEnv, u64) -> Box<dyn CongestionControl>,
) -> Finished {
    let hosts = plan.topo.hosts;
    let mut builder = plan.topo.builder;
    if cc.needs_red() {
        builder.red_on_switches(netsim::RedConfig::dcqcn_100g());
    }
    let mut cfg = plan.cfg;
    cfg.seed = ctx.seed;
    let mut net = builder.build(cfg, plan.monitor);
    net.set_tracer(Tracer::new(ctx.trace));
    if let Some((from, towards)) = plan.watch {
        let port = net
            .port_towards(from, towards)
            .expect("the watched port's nodes are linked");
        net.monitor.cfg.watch_ports = vec![port];
    }
    for (i, f) in plan.arrivals.iter().enumerate() {
        let flow_seed = ctx.seed.wrapping_mul(plan.seed_mul).wrapping_add(i as u64);
        net.add_flow(
            FlowSpec {
                src: hosts[f.src],
                dst: hosts[f.dst],
                size: f.size,
                start: f.start,
            },
            make_cc(&plan.env, flow_seed),
        );
    }
    let (deadline, budget, watchdog) = (plan.deadline, plan.budget, plan.watchdog);
    match ctx.scheduler {
        SchedulerKind::Heap => drive::<EventQueue<_>>(net, deadline, budget, watchdog),
        SchedulerKind::Wheel => drive::<TimingWheel<_>>(net, deadline, budget, watchdog),
    }
}

/// Per-flow `(flow id, size, slowdown)` rows in completion order.
///
/// The denominator is the pristine ideal FCT (routed over the pre-fault
/// table), so staggered queueing, reroute detours and retransmissions
/// inflate the numerator only. The ideal rounds serialization up per
/// packet while the link model carries picosecond residue, so a perfectly
/// scheduled flow can undershoot by a few ns; clamp at 1.
fn slowdown_rows(net: &Network) -> Vec<(u32, u64, f64)> {
    let mut raw = Vec::with_capacity(net.monitor.fcts().len());
    for r in net.monitor.fcts() {
        let ideal = net.ideal_fct(r.flow);
        let slowdown = r.fct().ratio(ideal).max(1.0);
        raw.push((r.flow.0, r.size.as_u64(), slowdown));
    }
    raw
}

/// The figures' binned slowdown statistics (100 bins, 99.9 % tail) of
/// [`slowdown_rows`].
fn slowdown_table(raw: &[(u32, u64, f64)]) -> SlowdownTable {
    let records = raw
        .iter()
        .map(|&(_, size, slowdown)| SlowdownRecord { size, slowdown })
        .collect();
    SlowdownTable::build(records, 100, 99.9)
}

/// A 16-1 / 96-1 staggered-incast run (Figures 1-3, 5, 6, 8, 9).
#[derive(Debug, Clone)]
pub struct IncastScenario {
    /// Incast shape (senders, flow size, stagger).
    pub incast: IncastConfig,
    /// Protocol under test.
    pub cc: CcSpec,
    /// Unused by the run: [`Scenario::run_with`] seeds from `ctx.seed`.
    /// Kept because the constructor signature and this field are part of
    /// the API `benchmark/` pins; only a benchmark change can retire it.
    pub seed: u64,
    /// Monitor sampling cadence (paper figures resolve ~10 µs features).
    pub sample_interval: Nanos,
    /// Hard simulation horizon (safety net; incasts normally drain first).
    pub horizon: Nanos,
}

impl IncastScenario {
    /// The paper's configuration for a given sender count and protocol.
    pub fn paper(senders: usize, cc: CcSpec, seed: u64) -> Self {
        let incast = if senders == 96 {
            IncastConfig::paper_96_1()
        } else {
            IncastConfig {
                senders,
                ..IncastConfig::paper_16_1()
            }
        };
        IncastScenario {
            incast,
            cc,
            seed,
            sample_interval: Nanos::from_micros(5),
            horizon: Nanos::from_millis(50),
        }
    }

    /// [`Scenario::run_with`] with the per-flow congestion control built by
    /// `make_cc(env, flow_seed)` instead of by `self.cc` — the entry point
    /// for protocols and parameter settings [`CcSpec`] cannot name. `self.cc`
    /// still decides the network side (RED marking) and the result's
    /// `label`, which the caller usually overwrites.
    pub fn run_with_cc(
        &self,
        ctx: &RunCtx,
        make_cc: &dyn Fn(&NetEnv, u64) -> Box<dyn CongestionControl>,
    ) -> IncastResult {
        self.collect(execute(self.plan(), &self.cc, ctx, make_cc))
    }

    /// The run's description: the paper's star, sampled, bottleneck watched.
    fn plan(&self) -> Plan<'static> {
        let topo = Topology::paper_star(self.incast.senders + 1);
        Plan {
            env: NetEnv::incast_star(topo.base_rtt),
            cfg: NetConfig::default(),
            monitor: MonitorConfig {
                sample_interval: Some(self.sample_interval),
                sample_until: self.horizon,
                watch_ports: vec![],
                track_flow_rates: true,
            },
            // The bottleneck: the switch's egress port to the receiver.
            watch: Some((topo.switches[0], topo.hosts[self.incast.senders])),
            arrivals: staggered_incast(&self.incast).into(),
            seed_mul: 1009,
            deadline: self.horizon,
            budget: 2_000_000_000,
            watchdog: default_watchdog(self.horizon),
            topo,
        }
    }

    /// The figure series and per-flow rows of a finished run.
    fn collect(&self, run: Finished) -> IncastResult {
        let net = &run.net;
        // Jain over a trailing window: instantaneous 5 us rates are shot
        // noise once the fair share falls near one packet per interval
        // (96 flows at ~1 Gbps each send a packet every ~8 us), so the
        // index is computed over enough trailing samples to cover several
        // packets per flow. The window grows with the incast degree.
        let window_us = (self.incast.senders as f64 * 1.25).max(20.0);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a small positive sample count"
        )]
        let k = (window_us / self.sample_interval.as_micros_f64()).ceil() as usize;
        let jain_series = jain_over_trailing_window(net.monitor.samples(), k.max(1));
        let mut queue_series = Vec::with_capacity(net.monitor.samples().len());
        for s in net.monitor.samples() {
            if let Some(q) = s.queue_bytes.first() {
                queue_series.push((s.t.as_micros_f64(), *q));
            }
        }
        IncastResult {
            label: self.cc.label(),
            jain: jain_series,
            queue: queue_series,
            fcts: net.monitor.fcts().to_vec(),
            raw: slowdown_rows(net),
            all_finished: net.all_finished(),
            outcome: run.outcome,
            events_handled: run.events_handled,
            occupancy_hwm: run.occupancy_hwm,
            trace: run.trace,
        }
    }
}

impl Scenario for IncastScenario {
    type Outcome = IncastResult;

    /// Run to completion (or the horizon) and collect the figure series.
    fn run_with(&self, ctx: &RunCtx) -> IncastResult {
        self.run_with_cc(ctx, &|env, flow_seed| self.cc.build(env, flow_seed))
    }
}

/// Compute a Jain-index time series where each point uses per-flow rates
/// averaged over the trailing `k` monitor samples (flows contribute to a
/// point only while active; see [`IncastScenario::collect`] for why
/// smoothing is needed at high incast degree).
///
/// One pass per point: the window's `flow_rates` are added, oldest sample
/// first, into a per-flow accumulator indexed by flow id, and the active
/// flows' means are read out in the newest sample's order. The summation
/// order is part of the byte-identity contract — each flow's `f64` sum is
/// formed oldest to newest over exactly the samples it appears in, so a
/// sliding add/subtract window (different low bits) is not an equivalent.
fn jain_over_trailing_window(samples: &[netsim::Sample], k: usize) -> Vec<(f64, f64)> {
    let flows = samples
        .iter()
        .flat_map(|s| &s.flow_rates)
        .map(|&(f, _)| f.idx() + 1)
        .max()
        .unwrap_or(0);
    // Per-flow `(sum, count)` over the current window, zero between points;
    // `touched` lists the non-zero ones, so clearing costs the window's
    // flows and never the flow table.
    let mut acc = vec![(0.0_f64, 0_u32); flows];
    let mut touched = Vec::with_capacity(flows);
    let mut out = Vec::with_capacity(samples.len());
    for (i, s) in samples.iter().enumerate() {
        if s.flow_rates.is_empty() {
            continue;
        }
        for w in &samples[i.saturating_sub(k - 1)..=i] {
            for &(f, rate) in &w.flow_rates {
                let (sum, n) = &mut acc[f.idx()];
                if *n == 0 {
                    touched.push(f);
                }
                *sum += rate;
                *n += 1;
            }
        }
        // Only the flows active now count, each averaged over the window
        // intervals in which it appears.
        let rates: Vec<f64> = s
            .flow_rates
            .iter()
            .map(|&(f, _)| {
                let (sum, n) = acc[f.idx()];
                sum / n as f64
            })
            .collect();
        for f in touched.drain(..) {
            acc[f.idx()] = (0.0, 0);
        }
        out.push((s.t.as_micros_f64(), jain(&rates)));
    }
    out
}

/// Output of one incast run.
#[derive(Debug, Clone)]
pub struct IncastResult {
    /// Figure-legend label.
    pub label: String,
    /// `(time µs, Jain index)` over the run, active flows only.
    pub jain: Vec<(f64, f64)>,
    /// `(time µs, bottleneck queue bytes)`.
    pub queue: Vec<(f64, u64)>,
    /// Completion records (start-vs-finish scatter).
    pub fcts: Vec<FctRecord>,
    /// Per-flow raw outcomes `(flow id, size, slowdown)` against the
    /// pristine ideal FCT — the sample stream the fleet sweep harness
    /// aggregates into tail percentiles.
    pub raw: Vec<(u32, u64, f64)>,
    /// Whether every flow completed before the horizon.
    pub all_finished: bool,
    /// Structured run disposition from the stall watchdog (completed /
    /// horizon / stalled / budget).
    pub outcome: RunOutcome,
    /// Events the engine dispatched (scheduler-invariant; the benchmark
    /// divides this by wall time for events/sec).
    pub events_handled: u64,
    /// Scheduler occupancy high-water mark (pending events).
    pub occupancy_hwm: u64,
    /// Collected trace events and metrics; `None` when tracing was off.
    pub trace: Option<Tracer>,
}

impl IncastResult {
    /// Time (µs) at which the Jain index first reaches `thresh` *and*
    /// stays at or above it for the remainder of the heavy phase — the
    /// convergence-to-fairness headline number. Returns `None` if never.
    pub fn convergence_time(&self, thresh: f64) -> Option<f64> {
        // Find the last sample below the threshold; convergence is the
        // next sample's time. (Jain dips every time new flows join, so
        // "first crossing" would be misleadingly early.)
        let mut conv: Option<f64> = None;
        for &(t, j) in &self.jain {
            if j < thresh {
                conv = None;
            } else if conv.is_none() {
                conv = Some(t);
            }
        }
        conv
    }

    /// The unfairness integral `∫(1 − J(t)) dt` over the run, in
    /// µs·unfairness — the scalar convergence-quality summary (lower is
    /// better; see `metrics::unfairness_integral`).
    pub fn unfairness_integral(&self) -> f64 {
        metrics::unfairness_integral(&self.jain)
    }

    /// Peak bottleneck queue depth in bytes.
    pub fn peak_queue(&self) -> u64 {
        self.queue.iter().map(|&(_, q)| q).max().unwrap_or(0)
    }

    /// Mean bottleneck queue depth (bytes) over every sample of the run,
    /// whether or not a flow was active in it.
    pub fn mean_queue(&self) -> f64 {
        if self.queue.is_empty() {
            return 0.0;
        }
        self.queue.iter().map(|&(_, q)| q as f64).sum::<f64>() / self.queue.len() as f64
    }

    /// Spread between the first and last flow completion (µs) — the
    /// quantity Figures 2/3/8/9 visualize: fair protocols finish all
    /// staggered flows nearly together.
    pub fn finish_spread_us(&self) -> f64 {
        let finishes: Vec<f64> = self.fcts.iter().map(|r| r.finish.as_micros_f64()).collect();
        if finishes.len() < 2 {
            return 0.0;
        }
        let max = finishes.iter().cloned().fold(f64::MIN, f64::max);
        let min = finishes.iter().cloned().fold(f64::MAX, f64::min);
        max - min
    }

    /// `(start µs, finish µs)` pairs, in flow order (the scatter data).
    pub fn start_finish(&self) -> Vec<(f64, f64)> {
        let mut v: Vec<(f64, f64)> = self
            .fcts
            .iter()
            .map(|r| (r.start.as_micros_f64(), r.finish.as_micros_f64()))
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        v
    }
}

/// The plan the two Poisson fat-tree families share: arrivals drawn from
/// the named distributions up to `horizon`, then a drain.
fn poisson_plan(
    fat_tree: &FatTreeConfig,
    workloads: &[String],
    load: f64,
    horizon: Nanos,
    seed: u64,
) -> Plan<'static> {
    let topo = fat_tree.build();
    let dists: Vec<_> = workloads
        .iter()
        .map(|n| distributions::by_name(n).unwrap_or_else(|| panic!("unknown workload {n}")))
        .collect();
    let dist_refs: Vec<&workloads::EmpiricalCdf> = dists.iter().collect();
    let arrivals = mixed_arrivals(
        &ArrivalConfig {
            n_hosts: topo.hosts.len(),
            host_rate: fat_tree.host_rate,
            load,
            horizon,
            seed: seed ^ 0xD15C0,
        },
        &dist_refs,
    );
    // Arrivals stop at the horizon; give the tail 4x the horizon to
    // drain (starved long flows are exactly what we are measuring).
    let drain_deadline = horizon * 5;
    Plan {
        env: NetEnv::fat_tree(topo.base_rtt),
        cfg: NetConfig::default(),
        monitor: MonitorConfig::default(), // FCTs only; per-flow sampling off
        watch: None,
        arrivals: arrivals.into(),
        seed_mul: 31,
        deadline: drain_deadline,
        budget: 20_000_000_000,
        watchdog: default_watchdog(drain_deadline),
        topo,
    }
}

/// A fat-tree datacenter run (Figures 10-13).
#[derive(Debug, Clone)]
pub struct DatacenterScenario {
    /// Topology.
    pub fat_tree: FatTreeConfig,
    /// Distribution names (one, or two mixed 50/50 — see
    /// [`workloads::distributions::by_name`]).
    pub workloads: Vec<String>,
    /// Offered load fraction (paper: 0.5).
    pub load: f64,
    /// Arrival horizon (paper: 50 ms; the run drains afterwards).
    pub horizon: Nanos,
    /// Protocol under test.
    pub cc: CcSpec,
    /// Unused by the run: [`Scenario::run_with`] seeds from `ctx.seed`
    /// (see [`IncastScenario::seed`] for why the field stays).
    pub seed: u64,
}

impl DatacenterScenario {
    /// The reduced-scale default used by the figure harness (see
    /// DESIGN.md's substitution table): 32-host fat-tree, 2 ms of
    /// arrivals. Pass `FatTreeConfig::paper()` and 50 ms for full scale.
    pub fn reduced(workloads: Vec<String>, cc: CcSpec, seed: u64) -> Self {
        DatacenterScenario {
            fat_tree: FatTreeConfig::reduced(),
            workloads,
            load: 0.5,
            horizon: Nanos::from_millis(2),
            cc,
            seed,
        }
    }
}

impl Scenario for DatacenterScenario {
    type Outcome = DatacenterResult;

    /// Run and build the slowdown tables.
    fn run_with(&self, ctx: &RunCtx) -> DatacenterResult {
        let plan = poisson_plan(
            &self.fat_tree,
            &self.workloads,
            self.load,
            self.horizon,
            ctx.seed,
        );
        let run = execute(plan, &self.cc, ctx, &|env, s| self.cc.build(env, s));
        let raw = slowdown_rows(&run.net);
        DatacenterResult {
            label: self.cc.label(),
            table: slowdown_table(&raw),
            n_flows: run.net.flow_count(),
            completed: raw.len(),
            raw,
            outcome: run.outcome,
            events_handled: run.events_handled,
            occupancy_hwm: run.occupancy_hwm,
            trace: run.trace,
        }
    }
}

/// Output of one datacenter run.
#[derive(Debug, Clone)]
pub struct DatacenterResult {
    /// Figure-legend label.
    pub label: String,
    /// Binned slowdown statistics (tail = 99.9%, median, mean per bin).
    pub table: SlowdownTable,
    /// Flows offered.
    pub n_flows: usize,
    /// Flows completed before the drain deadline.
    pub completed: usize,
    /// Per-flow raw outcomes `(flow id, size, slowdown)` for paired
    /// cross-variant analysis (see [`crate::analysis`]).
    pub raw: Vec<(u32, u64, f64)>,
    /// Structured run disposition from the stall watchdog (completed /
    /// horizon / stalled / budget).
    pub outcome: RunOutcome,
    /// Events the engine dispatched (see [`IncastResult::events_handled`]).
    pub events_handled: u64,
    /// Scheduler occupancy high-water mark (pending events).
    pub occupancy_hwm: u64,
    /// Collected trace events and metrics; `None` when tracing was off.
    pub trace: Option<Tracer>,
}

/// Replay an explicit arrival list (a saved trace, a permutation pattern,
/// or any custom workload) on a fat-tree under one protocol variant.
///
/// This is the general-purpose runner behind `workloads::trace` and the
/// permutation ablation: anything expressible as `Vec<FlowArrival>` can
/// be driven through any [`CcSpec`].
#[derive(Debug, Clone)]
pub struct TraceScenario {
    /// Topology.
    pub fat_tree: FatTreeConfig,
    /// The flows to inject (host indices into the topology's host list).
    pub arrivals: Vec<FlowArrival>,
    /// Protocol under test.
    pub cc: CcSpec,
    /// Hard simulation deadline.
    pub deadline: Nanos,
    /// Optional per-flow rate sampling (for Jain analysis; keep `None`
    /// for large traces).
    pub sample_interval: Option<Nanos>,
}

/// Output of a trace replay.
#[derive(Debug, Clone)]
pub struct TraceResult {
    /// Figure-legend label.
    pub label: String,
    /// Completion records.
    pub fcts: Vec<netsim::FctRecord>,
    /// Per-flow `(flow id, size, slowdown)`.
    pub raw: Vec<(u32, u64, f64)>,
    /// `(time µs, Jain index)` when sampling was enabled.
    pub jain: Vec<(f64, f64)>,
    /// Whether every flow completed before the deadline.
    pub all_finished: bool,
    /// Structured run disposition from the stall watchdog (completed /
    /// horizon / stalled / budget).
    pub outcome: RunOutcome,
    /// Scheduler occupancy high-water mark (pending events).
    pub occupancy_hwm: u64,
    /// Collected trace events and metrics; `None` when tracing was off.
    pub trace: Option<Tracer>,
}

impl Scenario for TraceScenario {
    type Outcome = TraceResult;

    /// Run the replay.
    fn run_with(&self, ctx: &RunCtx) -> TraceResult {
        let topo = self.fat_tree.build();
        let plan = Plan {
            env: NetEnv::fat_tree(topo.base_rtt),
            cfg: NetConfig::default(),
            monitor: MonitorConfig {
                sample_interval: self.sample_interval,
                sample_until: self.deadline,
                watch_ports: vec![],
                track_flow_rates: self.sample_interval.is_some(),
            },
            watch: None,
            arrivals: Cow::Borrowed(&self.arrivals),
            seed_mul: 61,
            deadline: self.deadline,
            budget: 20_000_000_000,
            watchdog: default_watchdog(self.deadline),
            topo,
        };
        let run = execute(plan, &self.cc, ctx, &|env, s| self.cc.build(env, s));
        let net = &run.net;
        TraceResult {
            label: self.cc.label(),
            fcts: net.monitor.fcts().to_vec(),
            raw: slowdown_rows(net),
            // A window of one sample: the instantaneous per-sample index.
            jain: jain_over_trailing_window(net.monitor.samples(), 1),
            all_finished: net.all_finished(),
            outcome: run.outcome,
            occupancy_hwm: run.occupancy_hwm,
            trace: run.trace,
        }
    }
}

/// A fat-tree datacenter run under deterministic fault injection: wire
/// loss on every fabric (switch–switch) link plus an optional periodic
/// flap of one agg–spine link, with exponential RTO backoff and failover
/// rerouting absorbing the damage.
///
/// The family sweeps two knobs — mean loss rate and flap cadence — and
/// reports slowdowns against the *pristine* ideal FCTs (the denominator
/// ignores outages, so rerouting detours and retransmissions show up as
/// slowdown, exactly like the paper's tail-latency figures).
#[derive(Debug, Clone)]
pub struct FaultScenario {
    /// Topology.
    pub fat_tree: FatTreeConfig,
    /// Workload distribution names (see [`DatacenterScenario::workloads`]).
    pub workloads: Vec<String>,
    /// Offered load fraction.
    pub load: f64,
    /// Arrival horizon (the run drains for 4x longer afterwards).
    pub horizon: Nanos,
    /// Protocol under test.
    pub cc: CcSpec,
    /// Unused by the run: [`Scenario::run_with`] seeds from `ctx.seed`
    /// (see [`IncastScenario::seed`] for why the field stays).
    pub seed: u64,
    /// Mean per-packet loss probability applied to every fabric link
    /// (0 = no wire loss).
    pub loss: f64,
    /// Model the loss as bursty Gilbert–Elliott (same mean as `loss`)
    /// instead of uniform Bernoulli.
    pub bursty: bool,
    /// Flap one agg–spine link `(period, down_for)`: down for `down_for`
    /// once every `period`, for the whole run. ECMP siblings survive, so
    /// the fabric stays connected and traffic fails over.
    pub flap: Option<(Nanos, Nanos)>,
}

impl FaultScenario {
    /// The reduced-scale default: 32-host fat-tree, 2 ms of arrivals,
    /// no faults until the knobs are set (chain [`with_loss`] /
    /// [`with_flap`]).
    ///
    /// [`with_loss`]: FaultScenario::with_loss
    /// [`with_flap`]: FaultScenario::with_flap
    pub fn reduced(workloads: Vec<String>, cc: CcSpec, seed: u64) -> Self {
        FaultScenario {
            fat_tree: FatTreeConfig::reduced(),
            workloads,
            load: 0.5,
            horizon: Nanos::from_millis(2),
            cc,
            seed,
            loss: 0.0,
            bursty: false,
            flap: None,
        }
    }

    /// Set the mean fabric loss rate (chainable).
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Use bursty Gilbert–Elliott loss instead of uniform (chainable).
    pub fn with_bursty(mut self) -> Self {
        self.bursty = true;
        self
    }

    /// Flap one agg–spine link: down for `down_for` every `period`
    /// (chainable).
    pub fn with_flap(mut self, period: Nanos, down_for: Nanos) -> Self {
        self.flap = Some((period, down_for));
        self
    }

    /// The loss model realizing `self.loss` as a long-run mean.
    ///
    /// The bursty channel is clean while good and parks 1/6 of packets
    /// in the bad state (enter 0.05 / exit 0.25), so the bad-state loss
    /// is scaled 6x to preserve the requested mean.
    fn loss_model(&self) -> LossModel {
        if self.bursty {
            let (p_enter, p_exit) = (0.05, 0.25);
            let pi_bad = p_enter / (p_enter + p_exit);
            LossModel::bursty(p_enter, p_exit, (self.loss / pi_bad).min(1.0))
        } else {
            LossModel::uniform(self.loss)
        }
    }

    /// Build the fault plan against the constructed topology: loss on
    /// every fabric link, the flap on the *last* fabric link (an
    /// agg–spine link in the fat tree, which always has ECMP siblings).
    fn fault_plan(&self, topo: &Topology, deadline: Nanos) -> FaultPlan {
        let is_switch = |n: NodeId| topo.switches.contains(&n);
        let fabric: Vec<(NodeId, NodeId)> = topo
            .links
            .iter()
            .copied()
            .filter(|&(a, b)| is_switch(a) && is_switch(b))
            .collect();
        assert!(
            !fabric.is_empty(),
            "fault scenario requires a topology with fabric links"
        );
        let mut plan = FaultPlan::none();
        for (i, &(a, b)) in fabric.iter().enumerate() {
            let mut f = LinkFault::on(a, b);
            if self.loss > 0.0 {
                f = f.with_loss(self.loss_model());
            }
            if i == fabric.len() - 1 {
                if let Some((period, down_for)) = self.flap {
                    assert!(
                        down_for < period,
                        "flap outage must be shorter than its period"
                    );
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
}

impl Scenario for FaultScenario {
    type Outcome = FaultResult;

    /// Run under the fault plan and build the slowdown table.
    fn run_with(&self, ctx: &RunCtx) -> FaultResult {
        let mut plan = poisson_plan(
            &self.fat_tree,
            &self.workloads,
            self.load,
            self.horizon,
            ctx.seed,
        );
        // Backoff cap well below the watchdog window: a stalled-looking
        // flow that is merely waiting out its backed-off RTO must get a
        // retransmission attempt within every watchdog chunk.
        let rto_cap = Nanos::from_millis(1);
        plan.cfg.faults = self.fault_plan(&plan.topo, plan.deadline);
        plan.cfg.rto_backoff = RtoBackoff {
            multiplier: 2,
            cap: rto_cap,
            jitter_frac: 0.1,
        };
        plan.watchdog = plan.watchdog.max(rto_cap * 5);
        let run = execute(plan, &self.cc, ctx, &|env, s| self.cc.build(env, s));
        let raw = slowdown_rows(&run.net);
        FaultResult {
            label: self.cc.label(),
            table: slowdown_table(&raw),
            n_flows: run.net.flow_count(),
            completed: raw.len(),
            raw,
            outcome: run.outcome,
            faults: run.net.fault_stats(),
            events_handled: run.events_handled,
            occupancy_hwm: run.occupancy_hwm,
            trace: run.trace,
        }
    }
}

/// Output of one fault-injection run.
#[derive(Debug, Clone)]
pub struct FaultResult {
    /// Figure-legend label.
    pub label: String,
    /// Binned slowdown statistics (vs. pristine ideal FCTs).
    pub table: SlowdownTable,
    /// Flows offered.
    pub n_flows: usize,
    /// Flows completed before the drain deadline.
    pub completed: usize,
    /// Per-flow raw outcomes `(flow id, size, slowdown)`.
    pub raw: Vec<(u32, u64, f64)>,
    /// Structured run disposition from the stall watchdog.
    pub outcome: RunOutcome,
    /// Fault-subsystem counters (wire drops, link-down drops, reroutes,
    /// RTO firings).
    pub faults: FaultStats,
    /// Events the engine dispatched.
    pub events_handled: u64,
    /// Scheduler occupancy high-water mark (pending events).
    pub occupancy_hwm: u64,
    /// Collected trace events and metrics; `None` when tracing was off.
    pub trace: Option<Tracer>,
}

/// Largest flow size still counted as "small" when summarizing long-flow
/// tails (the paper calls flows > 1 MB "long").
pub const LONG_FLOW_BYTES: u64 = 1_000_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ProtocolKind, Variant};
    use dcsim::Bytes;

    /// A tiny 4-1 incast end-to-end smoke test per protocol family.
    #[test]
    fn small_incast_completes_for_every_protocol() {
        for kind in [ProtocolKind::Hpcc, ProtocolKind::Swift, ProtocolKind::Dcqcn] {
            let sc = IncastScenario {
                incast: IncastConfig {
                    senders: 4,
                    flow_size: Bytes::from_kb(200),
                    flows_per_interval: 2,
                    interval: Nanos::from_micros(20),
                },
                cc: CcSpec::new(kind, Variant::Default),
                seed: 5,
                sample_interval: Nanos::from_micros(5),
                horizon: Nanos::from_millis(20),
            };
            let res = sc.run_with(&RunCtx::new(5));
            assert!(res.all_finished, "{:?} did not finish", kind);
            assert_eq!(res.fcts.len(), 4);
            assert!(!res.jain.is_empty());
            assert!(!res.queue.is_empty());
        }
    }

    #[test]
    fn incast_vai_sf_finishes_and_is_fairer_than_default_hpcc() {
        let mk = |variant| {
            IncastScenario {
                incast: IncastConfig {
                    senders: 8,
                    flow_size: Bytes::from_kb(500),
                    flows_per_interval: 2,
                    interval: Nanos::from_micros(20),
                },
                cc: CcSpec::new(ProtocolKind::Hpcc, variant),
                seed: 3,
                sample_interval: Nanos::from_micros(5),
                horizon: Nanos::from_millis(20),
            }
            .run_with(&RunCtx::new(3))
        };
        let default = mk(Variant::Default);
        let vai_sf = mk(Variant::VaiSf);
        assert!(default.all_finished && vai_sf.all_finished);
        // The paper's core claim at micro scale: the staggered flows
        // finish closer together under VAI+SF.
        assert!(
            vai_sf.finish_spread_us() < default.finish_spread_us(),
            "VAI SF spread {} should beat default {}",
            vai_sf.finish_spread_us(),
            default.finish_spread_us()
        );
    }

    #[test]
    fn convergence_time_semantics() {
        let res = IncastResult {
            label: "x".into(),
            jain: vec![
                (0.0, 0.5),
                (10.0, 0.96),
                (20.0, 0.7),
                (30.0, 0.97),
                (40.0, 0.99),
            ],
            queue: vec![(0.0, 100), (10.0, 50)],
            fcts: vec![],
            raw: vec![],
            all_finished: true,
            outcome: RunOutcome::Completed,
            events_handled: 0,
            occupancy_hwm: 0,
            trace: None,
        };
        // The dip at t=20 resets the clock; convergence is at t=30.
        assert_eq!(res.convergence_time(0.95), Some(30.0));
        assert_eq!(res.convergence_time(0.999), None);
        assert_eq!(res.peak_queue(), 100);
    }

    /// The definition [`jain_over_trailing_window`] must reproduce bit for
    /// bit: per active flow, per window sample oldest first, look the flow
    /// up and add its rate.
    fn jain_by_lookup(samples: &[netsim::Sample], k: usize) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        for (i, s) in samples.iter().enumerate() {
            let mut rates = Vec::new();
            for &(fid, _) in &s.flow_rates {
                let (mut sum, mut n) = (0.0, 0u32);
                for w in &samples[i.saturating_sub(k - 1)..=i] {
                    if let Some(&(_, rate)) = w.flow_rates.iter().find(|&&(f, _)| f == fid) {
                        sum += rate;
                        n += 1;
                    }
                }
                rates.push(sum / n as f64);
            }
            if !rates.is_empty() {
                out.push((s.t.as_micros_f64(), jain(&rates)));
            }
        }
        out
    }

    fn sample(t_us: u64, flow_rates: Vec<(u32, f64)>) -> netsim::Sample {
        netsim::Sample {
            t: Nanos::from_micros(t_us),
            queue_bytes: vec![],
            flow_rates: flow_rates
                .into_iter()
                .map(|(f, r)| (netsim::FlowId(f), r))
                .collect(),
        }
    }

    #[test]
    fn one_pass_window_equals_the_per_flow_lookup_bit_for_bit() {
        for case in 0..48u64 {
            let mut rng = dcsim::DetRng::new(0x1a1 + case);
            // Sparse, non-contiguous ids; each flow is present over a span
            // of samples (joins and leaves inside windows) with holes in
            // it, and some samples end up empty.
            let ids: Vec<u32> = (0..2 + rng.below(30))
                .scan(0, |id, _| {
                    *id += 1 + u32::try_from(rng.below(40)).expect("below 40");
                    Some(*id)
                })
                .collect();
            let n_samples = 1 + rng.below(80);
            let spans: Vec<(u64, u64)> = ids
                .iter()
                .map(|_| {
                    let from = rng.below(n_samples);
                    (from, from + 1 + rng.below(n_samples))
                })
                .collect();
            let samples: Vec<netsim::Sample> = (0..n_samples)
                .map(|i| {
                    let mut rates = Vec::new();
                    for (&id, &(from, to)) in ids.iter().zip(&spans) {
                        if from <= i && i < to && rng.below(4) > 0 {
                            rates.push((id, 1e11 * rng.f64()));
                        }
                    }
                    sample(5 * i, rates)
                })
                .collect();
            for k in [1, 2, 24, samples.len() + 7] {
                let got = jain_over_trailing_window(&samples, k);
                let want = jain_by_lookup(&samples, k);
                assert_eq!(got.len(), want.len(), "case {case} k {k}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.0.to_bits(), w.0.to_bits(), "case {case} k {k}: time");
                    assert_eq!(g.1.to_bits(), w.1.to_bits(), "case {case} k {k} t {}", g.0);
                }
            }
        }
    }

    /// The a2fq `get_fairness_index` exemplar divides by `n * sum(x^2)`
    /// unguarded; the series must not turn an idle interval into NaN.
    #[test]
    fn idle_and_lone_flow_samples_are_perfectly_fair() {
        let samples = [
            sample(5, vec![(0, 0.0), (1, 0.0), (2, 0.0)]), // nobody delivered a byte
            sample(10, vec![]),                            // no active flow: no point
            sample(15, vec![(7, 4e10)]),                   // a lone flow
            sample(20, vec![(7, 0.0)]),                    // a lone, stalled flow
        ];
        for k in [1, 3] {
            let series = jain_over_trailing_window(&samples, k);
            assert_eq!(series, [(5.0, 1.0), (15.0, 1.0), (20.0, 1.0)], "window {k}");
        }
    }

    #[test]
    fn trace_replay_runs_a_permutation() {
        let arrivals = workloads::permutation(8, Bytes::from_kb(200), Nanos::ZERO, 3);
        let sc = TraceScenario {
            fat_tree: FatTreeConfig {
                pods: 2,
                tors_per_pod: 1,
                aggs_per_pod: 1,
                hosts_per_tor: 4,
                spines: 1,
                ..FatTreeConfig::reduced()
            },
            arrivals,
            cc: CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
            deadline: Nanos::from_millis(10),
            sample_interval: Some(Nanos::from_micros(10)),
        };
        let res = sc.run_with(&RunCtx::new(1));
        assert!(res.all_finished);
        assert_eq!(res.fcts.len(), 8);
        assert_eq!(res.raw.len(), 8);
        assert!(!res.jain.is_empty());
        for &(_, _, s) in &res.raw {
            assert!(s >= 1.0);
        }
    }

    #[test]
    fn trace_replay_matches_saved_trace_roundtrip() {
        // Serialize a workload, parse it back, and verify the replay is
        // byte-identical to running the original list.
        let arrivals = workloads::permutation(6, Bytes::from_kb(100), Nanos::ZERO, 9);
        let json = workloads::to_json(&arrivals);
        let replayed = workloads::from_json(&json).expect("to_json output round-trips");
        let mk = |a: Vec<workloads::FlowArrival>| TraceScenario {
            fat_tree: FatTreeConfig {
                pods: 2,
                tors_per_pod: 1,
                aggs_per_pod: 1,
                hosts_per_tor: 3,
                spines: 1,
                ..FatTreeConfig::reduced()
            },
            arrivals: a,
            cc: CcSpec::new(ProtocolKind::Swift, Variant::VaiSf),
            deadline: Nanos::from_millis(10),
            sample_interval: None,
        };
        let a = mk(arrivals).run_with(&RunCtx::new(4));
        let b = mk(replayed).run_with(&RunCtx::new(4));
        assert_eq!(a.raw, b.raw);
    }

    #[test]
    fn incast_that_exhausts_its_event_budget_reports_budget() {
        let sc = IncastScenario::paper(4, CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf), 7);
        let mut plan = sc.plan();
        plan.budget = 5_000;
        let make_cc = |env: &NetEnv, flow_seed| sc.cc.build(env, flow_seed);
        let res = sc.collect(execute(plan, &sc.cc, &RunCtx::new(7), &make_cc));
        assert_eq!(res.outcome, RunOutcome::Budget);
        assert_eq!(res.events_handled, 5_000);
        // The truncated run still collects: some samples, no completions.
        assert!(!res.all_finished && res.fcts.is_empty());
        assert!(!res.queue.is_empty());
    }

    #[test]
    fn incast_results_are_scheduler_invariant() {
        let mk = |scheduler| {
            IncastScenario {
                incast: IncastConfig {
                    senders: 4,
                    flow_size: Bytes::from_kb(200),
                    flows_per_interval: 2,
                    interval: Nanos::from_micros(20),
                },
                cc: CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
                seed: 7,
                sample_interval: Nanos::from_micros(5),
                horizon: Nanos::from_millis(20),
            }
            .run_with(&RunCtx::new(7).with_scheduler(scheduler))
        };
        let heap = mk(SchedulerKind::Heap);
        let wheel = mk(SchedulerKind::Wheel);
        assert!(heap.all_finished && wheel.all_finished);
        // Same seed, same dispatch contract: bit-identical outputs.
        assert_eq!(heap.fcts, wheel.fcts);
        assert_eq!(heap.jain, wheel.jain);
        assert_eq!(heap.queue, wheel.queue);
    }

    #[test]
    fn fault_scenario_with_no_knobs_plans_no_faults() {
        // loss = 0, no flap: the fault plan is empty (that the run then
        // equals the plain DatacenterScenario's is tests/one_pipeline.rs).
        let faulty = FaultScenario::reduced(
            vec![distributions::FB_HADOOP.to_string()],
            CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
            2,
        );
        assert!(faulty
            .fault_plan(&faulty.fat_tree.build(), Nanos::from_millis(1))
            .is_empty());
    }

    #[test]
    fn fault_scenario_survives_loss_and_flaps() {
        let sc = FaultScenario {
            horizon: Nanos::from_micros(300),
            ..FaultScenario::reduced(
                vec![distributions::FB_HADOOP.to_string()],
                CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
                2,
            )
        }
        .with_loss(1e-3)
        .with_flap(Nanos::from_micros(200), Nanos::from_micros(40));
        let res = sc.run_with(&RunCtx::new(2));
        assert!(res.n_flows > 0);
        assert!(res.completed > 0, "no flows completed under faults");
        // The injected faults actually fired.
        assert!(res.faults.reroutes >= 2, "flap produced no reroutes");
        assert!(
            res.faults.wire_drops + res.faults.link_down_drops > 0,
            "no packets were harmed"
        );
        for &(_, _, s) in &res.raw {
            assert!(s >= 1.0);
        }
    }

    #[test]
    fn fault_scenario_is_scheduler_invariant() {
        let mk = |scheduler| {
            FaultScenario {
                horizon: Nanos::from_micros(300),
                ..FaultScenario::reduced(
                    vec![distributions::FB_HADOOP.to_string()],
                    CcSpec::new(ProtocolKind::Swift, Variant::VaiSf),
                    7,
                )
            }
            .with_loss(5e-3)
            .with_bursty()
            .with_flap(Nanos::from_micros(250), Nanos::from_micros(50))
            .run_with(&RunCtx::new(7).with_scheduler(scheduler))
        };
        let heap = mk(SchedulerKind::Heap);
        let wheel = mk(SchedulerKind::Wheel);
        assert_eq!(heap.raw, wheel.raw);
        assert_eq!(heap.faults, wheel.faults);
        assert_eq!(heap.outcome, wheel.outcome);
    }

    #[test]
    fn tiny_datacenter_run_produces_slowdowns() {
        let sc = DatacenterScenario {
            fat_tree: FatTreeConfig {
                pods: 2,
                tors_per_pod: 1,
                aggs_per_pod: 1,
                hosts_per_tor: 4,
                spines: 1,
                ..FatTreeConfig::reduced()
            },
            workloads: vec![distributions::FB_HADOOP.to_string()],
            load: 0.3,
            horizon: Nanos::from_micros(300),
            cc: CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
            seed: 2,
        };
        let res = sc.run_with(&RunCtx::new(2));
        assert!(res.n_flows > 0);
        assert!(res.completed > 0, "no flows completed");
        assert!(!res.table.points.is_empty());
        for p in &res.table.points {
            assert!(p.tail >= 1.0 - 1e-6, "slowdown below 1: {}", p.tail);
            assert!(p.median <= p.tail + 1e-9);
        }
    }
}
