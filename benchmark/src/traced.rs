//! The traced pass: one iteration of a workload on the staged path, every
//! layer measured from outside, plus the layer kernels.
//!
//! Per simulated case it makes four runs of the same seed — through
//! `run_with`, staged un-probed on the default scheduler, and staged with
//! the probes in on the heap and on the wheel — and requires all four to
//! produce the same simulation. That is the proof that the re-assembly in
//! [`crate::stage`] is faithful, that the probes are transparent, and that
//! heap and wheel dispatch identically.

use dcsim::{DetRng, EventQueue, Nanos, Scheduler, SchedulerKind, TimingWheel};
use fairsim::ProtocolKind;
use metrics::{SlowdownRecord, SlowdownTable};
use minijson::Value;

use crate::alloc;
use crate::clock::{now_ns, secs};
use crate::names::Metrics;
use crate::probe::{CcTotals, SchedTotals, Span, EVENT_KINDS};
use crate::stage::{Case, NetCounters, RunSummary, StageTimes, StagedRun};
use crate::workload::{nproc, run_sweep_once, sweep_spec, Checks, PassResult, SimBlock, Workload};

/// What the probes saw on one scheduler, summed over a workload's cases.
#[derive(Default)]
struct Probed {
    sched: SchedTotals,
    cc: CcTotals,
    run_s: f64,
}

impl Probed {
    fn share(&self, ns: u64) -> f64 {
        ns as f64 / (self.run_s * 1e9)
    }
}

/// Everything measured over a workload's cases.
#[derive(Default)]
struct Layers {
    run_with_s: f64,
    /// How far apart the two fastest `run_with` samples and the two
    /// fastest staged samples lay: what `run_with_s` minus the staged
    /// stages can resolve.
    collect_floor_s: f64,
    stages: StageTimes,
    prime_s: f64,
    run_s: f64,
    cc_build: Span,
    counters: NetCounters,
    heap: Probed,
    wheel: Probed,
    on_ack_by_protocol: [Span; 4],
    setup_bytes: u64,
    run_allocs: u64,
    run_bytes: u64,
}

fn protocol_slot(kind: ProtocolKind) -> usize {
    match kind {
        ProtocolKind::Hpcc => 0,
        ProtocolKind::Swift => 1,
        ProtocolKind::Dcqcn => 2,
        ProtocolKind::Timely => 3,
    }
}

const ON_ACK_BY_PROTOCOL: [&str; 4] = [
    "cc.hpcc.on_ack_ns",
    "cc.swift.on_ack_ns",
    "cc.dcqcn.on_ack_ns",
    "cc.timely.on_ack_ns",
];

/// Trace one case; returns its `run_with` summary after checking the
/// staged runs against it.
fn trace_case(case: &Case, seed: u64, layers: &mut Layers, checks: &mut Checks) -> RunSummary {
    let default = SchedulerKind::default();

    // Un-probed, on both paths: `run_with`, then the staged path on the
    // default scheduler for the stage times, the un-probed run stage and
    // the allocation traffic. `fairsim.collect_s` is the difference of the
    // two, so the pair is repeated and the fastest of each side kept:
    // interference from outside only ever adds time.
    let mut reference: Option<RunSummary> = None;
    let mut run_with_s = TwoFastest::default();
    let mut staged_s = TwoFastest::default();
    let mut fastest: Option<(StageTimes, StagedRun)> = None;
    let mut rounds = 0;
    while rounds < if run_with_s.first < 2.0 { 3 } else { 2 } {
        rounds += 1;
        let t0 = now_ns();
        let via_run_with = case.run_with(seed);
        run_with_s.add(secs(t0, now_ns()));
        let reference = reference.get_or_insert_with(|| via_run_with.clone());
        checks.run("run_with", &via_run_with, reference);

        let (_, b0) = alloc::snapshot();
        let staged = case.stage(seed, false);
        let (a1, b1) = alloc::snapshot();
        let stages = staged.times;
        let plain = staged.run(default);
        let (a2, b2) = alloc::snapshot();
        checks.run("staged", &plain.summary, reference);
        if rounds == 1 {
            // Allocation counts repeat exactly; one reading is enough.
            layers.setup_bytes += b1 - b0;
            layers.run_allocs += a2 - a1;
            layers.run_bytes += b2 - b1;
            layers.counters.merge(&plain.counters);
        }
        let total = stages.total_s() + plain.prime_s + plain.run_s;
        if total < staged_s.first {
            fastest = Some((stages, plain));
        }
        staged_s.add(total);
    }
    let reference = reference.expect("at least one round ran");
    let (stages, plain) = fastest.expect("at least one round ran");
    layers.run_with_s += run_with_s.first;
    layers.collect_floor_s += run_with_s.gap() + staged_s.gap();
    layers.stages.merge(&stages);
    layers.prime_s += plain.prime_s;
    layers.run_s += plain.run_s;

    for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
        let staged = case.stage(seed, true);
        let cc_build = staged.times.cc_build;
        let (run, sched, cc) = staged.run_probed(kind);
        let into = match kind {
            SchedulerKind::Heap => &mut layers.heap,
            SchedulerKind::Wheel => &mut layers.wheel,
        };
        into.sched.merge(&sched);
        into.cc.merge(&cc);
        into.run_s += run.run_s;
        if kind == default {
            layers.cc_build.merge(cc_build);
            layers.on_ack_by_protocol[protocol_slot(case.protocol())].merge(cc.on_ack);
        }
        checks.run(&format!("probed {kind}"), &run.summary, &reference);
        if sched.pop.n != run.summary.events {
            checks.fail(format!(
                "probed {kind}: probe popped {} events, engine handled {}",
                sched.pop.n, run.summary.events
            ));
        }
    }
    reference
}

/// The two smallest of the samples added.
struct TwoFastest {
    first: f64,
    second: f64,
}

impl Default for TwoFastest {
    fn default() -> Self {
        TwoFastest {
            first: f64::INFINITY,
            second: f64::INFINITY,
        }
    }
}

impl TwoFastest {
    fn add(&mut self, sample: f64) {
        if sample < self.first {
            self.second = std::mem::replace(&mut self.first, sample);
        } else {
            self.second = self.second.min(sample);
        }
    }

    /// How well the fastest sample was reproduced.
    fn gap(&self) -> f64 {
        self.second - self.first
    }
}

fn emit_probed(
    m: &mut Metrics,
    p: &Probed,
    push: &'static str,
    pop: &'static str,
    share: &'static str,
) {
    m.set(push, p.sched.push.mean_ns());
    m.set(pop, p.sched.pop.mean_ns());
    m.set(share, p.share(p.sched.sched_ns()));
}

/// Emit the simulation layers' metrics; returns remarks for the log.
fn emit_layers(m: &mut Metrics, l: &Layers, events: u64, flows: usize) -> Vec<String> {
    let default = match SchedulerKind::default() {
        SchedulerKind::Heap => &l.heap,
        SchedulerKind::Wheel => &l.wheel,
    };
    let ev = events as f64;
    let hops = l.counters.hops as f64;

    m.set("dcsim.events_n", ev);
    m.set("dcsim.events_per_s", ev / l.run_s);
    m.set("dcsim.sched.push_n", default.sched.push.n as f64);
    m.set("dcsim.sched.pop_n", default.sched.pop.n as f64);
    emit_probed(
        m,
        default,
        "dcsim.sched.push_ns",
        "dcsim.sched.pop_ns",
        "dcsim.sched.share",
    );
    m.set(
        "dcsim.sched.occupancy_hwm",
        default.sched.occupancy_hwm as f64,
    );
    emit_probed(
        m,
        &l.wheel,
        "dcsim.sched.wheel_push_ns",
        "dcsim.sched.wheel_pop_ns",
        "dcsim.sched.wheel_share",
    );

    m.set("netsim.topo_build_s", l.stages.topo_s);
    m.set("netsim.net_build_s", l.stages.net_s);
    m.set("netsim.add_flows_s", l.stages.add_flows_s);
    for ((n_key, ns_key), h) in HANDLER_KEYS.into_iter().zip(default.sched.handlers) {
        m.set(n_key, h.n as f64);
        if let Some(ns_key) = ns_key {
            m.set(ns_key, h.mean_ns());
        }
    }
    m.set(
        "netsim.handler_share",
        default.share(default.sched.handler_ns()),
    );
    m.set("netsim.hops_n", hops);
    m.set("netsim.ns_per_hop", l.run_s * 1e9 / hops);
    m.set("netsim.events_per_hop", ev / hops);
    m.set("netsim.max_qbytes", l.counters.max_qbytes as f64);
    m.set("netsim.monitor.samples_n", l.counters.samples as f64);
    m.set("netsim.drops_n", l.counters.drops as f64);
    m.set("netsim.wire_drops_n", l.counters.wire_drops as f64);
    m.set(
        "netsim.link_down_drops_n",
        l.counters.link_down_drops as f64,
    );
    m.set("netsim.reroutes_n", l.counters.reroutes as f64);
    m.set("netsim.rto_fires_n", l.counters.rto_fires as f64);

    let cc = &default.cc;
    m.set("cc.on_ack_n", cc.on_ack.n as f64);
    m.set("cc.on_ack_ns", cc.on_ack.mean_ns());
    m.set("cc.on_send_n", cc.on_send.n as f64);
    m.set("cc.on_send_ns", cc.on_send.mean_ns());
    m.set("cc.on_timer_n", cc.on_timer.n as f64);
    m.set("cc.on_cnp_n", cc.on_cnp.n as f64);
    m.set("cc.on_rto_n", cc.on_rto.n as f64);
    m.set("cc.share", default.share(cc.total_ns()));
    m.set("cc.acks_per_hop", cc.on_ack.n as f64 / hops);
    m.set("cc.build_ns", l.cc_build.mean_ns());
    for (name, span) in ON_ACK_BY_PROTOCOL.iter().zip(l.on_ack_by_protocol) {
        m.set(name, span.mean_ns());
    }

    m.set("workloads.arrivals_s", l.stages.arrivals_s);
    m.set("workloads.flows_n", flows as f64);

    // What `run_with` spends beyond the stages the harness can reproduce:
    // fairsim's result collection (Jain windows, slowdown tables). It is
    // the difference of two separately timed runs, each the fastest of a
    // few; a difference no larger than the distance to the second fastest
    // on both sides is not resolved, and reads 0.
    let staged_s = l.stages.total_s() + l.prime_s + l.run_s;
    let mut collect_s = l.run_with_s - staged_s;
    let mut notes = Vec::new();
    if collect_s <= l.collect_floor_s {
        notes.push(format!(
            "fairsim.collect_s unresolved: run_with {:.6} s - staged path {staged_s:.6} s \
             is within {:.6} s, what the repeats resolve",
            l.run_with_s, l.collect_floor_s
        ));
        collect_s = 0.0;
    }
    m.set("fairsim.collect_s", collect_s);
    m.set("fairsim.collect_share", collect_s / l.run_with_s);

    m.set("alloc.allocs_per_event", l.run_allocs as f64 / ev);
    m.set("alloc.bytes_per_event", l.run_bytes as f64 / ev);
    m.set("alloc.setup_bytes", l.setup_bytes as f64);
    m.set("trace.overhead_ratio", default.run_s / l.run_s);
    notes
}

/// Per event kind, in [`crate::probe::kind_of`] order: the metric names of
/// its handler count and (where declared) mean self time.
const HANDLER_KEYS: [(&str, Option<&str>); EVENT_KINDS] = [
    ("netsim.ev.flowstart_n", None),
    ("netsim.ev.trysend_n", Some("netsim.ev.trysend_ns")),
    ("netsim.ev.txdone_n", Some("netsim.ev.txdone_ns")),
    ("netsim.ev.arrive_n", Some("netsim.ev.arrive_ns")),
    ("netsim.ev.cctimer_n", Some("netsim.ev.cctimer_ns")),
    ("netsim.ev.pfcset_n", None),
    ("netsim.ev.rto_n", Some("netsim.ev.rto_ns")),
    ("netsim.ev.linkset_n", Some("netsim.ev.linkset_ns")),
    ("netsim.ev.sample_n", Some("netsim.ev.sample_ns")),
];

/// The sweep's layers: expansion, the pool at full and at one worker,
/// report building and the JSON round trip.
fn trace_sweep(seed: u64, m: &mut Metrics, checks: &mut Checks) -> RunSummary {
    let t0 = now_ns();
    let cells = sweep_spec(seed).expand();
    let expand_s = secs(t0, now_ns());
    std::hint::black_box(&cells);

    let workers = nproc();
    let parallel = run_sweep_once(seed, workers);
    let serial = run_sweep_once(seed, 1);

    let t1 = now_ns();
    let parsed = Value::parse(&parallel.json);
    let parse_s = secs(t1, now_ns());
    // The sweep digest is over the report bytes, so "same simulation" is
    // "byte-identical report on 1 and on all workers".
    checks.run("sweep, all workers", &parallel.summary, &parallel.summary);
    checks.run("sweep, one worker", &serial.summary, &parallel.summary);
    if let Err(e) = parsed {
        checks.fail(format!("sweep report does not parse: {}", e.message));
    }

    m.set("fleet.runs_n", parallel.runs as f64);
    m.set("fleet.expand_s", expand_s);
    m.set("fleet.run_s", parallel.run_s);
    m.set("fleet.serial_s", serial.run_s);
    m.set(
        "fleet.parallel_eff",
        serial.run_s / (workers as f64 * parallel.run_s),
    );
    m.set("fleet.report_s", parallel.report_s);
    m.set("fleet.json_s", parallel.json_s + parse_s);
    parallel.summary
}

/// Steady-state timer churn on scheduler `S`: `live` pending timers, each
/// pop rescheduling a replacement a short random delta ahead (the
/// `perfbase` dense-timer loop). Returns mean ns per pop + push.
fn dense_timers<S: Scheduler<u32> + Default>(live: u32, churn: u32) -> f64 {
    let mut q = S::default();
    let mut rng = DetRng::new(9);
    for i in 0..live {
        q.push(Nanos::from_ns(rng.below(8_000)), i);
    }
    let t0 = now_ns();
    for _ in 0..churn {
        let (t, id) = q.pop().expect("steady-state population");
        q.push(t + Nanos::from_ns(1 + rng.below(8_000)), id);
    }
    let dt = now_ns().saturating_sub(t0);
    std::hint::black_box(q.len());
    dt as f64 / f64::from(churn)
}

/// Micro-kernels of single layers on fixed synthetic inputs: the same in
/// every workload's traced pass, so they isolate a layer from its callers.
fn kernels(m: &mut Metrics) {
    m.set(
        "dcsim.kernel.dense_heap_ns",
        dense_timers::<EventQueue<u32>>(30_000, 1_000_000),
    );
    m.set(
        "dcsim.kernel.dense_wheel_ns",
        dense_timers::<TimingWheel<u32>>(30_000, 1_000_000),
    );

    let mut rng = DetRng::new(11);
    let rates: Vec<f64> = (0..96).map(|_| 1.0 + rng.f64()).collect();
    let calls = 200_000u32;
    let t0 = now_ns();
    let mut sum = 0.0;
    for _ in 0..calls {
        sum += metrics::jain(std::hint::black_box(&rates));
    }
    let dt = now_ns().saturating_sub(t0);
    std::hint::black_box(sum);
    m.set("metrics.kernel.jain_ns", dt as f64 / f64::from(calls));

    let records: Vec<SlowdownRecord> = (0..10_000)
        .map(|_| SlowdownRecord {
            size: 1 + rng.below(10_000_000),
            slowdown: 1.0 + rng.exp(2.0),
        })
        .collect();
    let t1 = now_ns();
    std::hint::black_box(SlowdownTable::build(records, 100, 99.9));
    m.set("metrics.kernel.slowdown_table_s", secs(t1, now_ns()));

    let samples: Vec<f64> = (0..10_000).map(|_| 1.0 + rng.exp(2.0)).collect();
    let t2 = now_ns();
    std::hint::black_box(fleet::bootstrap_ci(&samples, 50.0, 100, 0.95, 13));
    m.set("fleet.kernel.bootstrap_s", secs(t2, now_ns()));
}

/// Trace every case once and emit the simulation layers' metrics; returns
/// the cases' `run_with` summaries and remarks for the log.
pub fn trace_cases(
    cases: &[Case],
    seed: u64,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> (Vec<RunSummary>, Vec<String>) {
    let mut layers = Layers::default();
    let summaries: Vec<RunSummary> = cases
        .iter()
        .map(|case| trace_case(case, seed, &mut layers, checks))
        .collect();
    let sim = SimBlock::of(&summaries);
    let notes = emit_layers(metrics, &layers, sim.events, sim.offered);
    (summaries, notes)
}

/// The traced pass over one workload.
pub fn traced(workload: Workload, seed: u64) -> PassResult {
    let mut metrics = Metrics::default();
    let mut checks = Checks::default();
    alloc::set_counting(true);
    let (summaries, notes) = if workload == Workload::SweepIncast {
        let sweep = trace_sweep(seed, &mut metrics, &mut checks);
        (vec![sweep], Vec::new())
    } else {
        trace_cases(&workload.cases(seed), seed, &mut metrics, &mut checks)
    };
    alloc::set_counting(false);
    kernels(&mut metrics);
    PassResult {
        metrics,
        checks,
        notes,
        sim: SimBlock::of(&summaries),
        iterations: 1,
    }
}
