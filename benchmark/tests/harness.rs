//! Harness self-tests: the probes are transparent, the attribution adds
//! up, and what the benchmark emits is what `BENCHMARK.json` declares.

use std::sync::{Arc, Mutex};

use dcsim::{BitRate, Bytes, EventQueue, Nanos, Scheduler, SchedulerKind, Simulation, TimingWheel};
use faircc::{AckFeedback, CcMode, CcSnapshot, CongestionControl, SenderLimits};
use fairsim::{CcSpec, IncastScenario, ProtocolKind, Variant};
use minijson::Value;
use netsim::run_watched;
use simbench::compare::BENCHMARK_JSON;
use simbench::names::{MetricDef, Metrics, END_TO_END, PER_LAYER};
use simbench::output::result_json;
use simbench::probe::{cc_totals, reset_cc, Probe, SchedTotals, TimedCc};
use simbench::stage::Case;
use simbench::traced::trace_cases;
use simbench::workload::{Checks, PassResult, SimBlock, Workload};
use workloads::IncastConfig;

const SEED: u64 = 5;

/// A 6-1 incast of 200 kB flows: every layer the probes touch, in a few
/// milliseconds of host time.
fn tiny_incast(kind: ProtocolKind, variant: Variant) -> Case {
    Case::Incast(IncastScenario {
        incast: IncastConfig {
            senders: 6,
            flow_size: Bytes::from_kb(200),
            flows_per_interval: 2,
            interval: Nanos::from_micros(20),
        },
        horizon: Nanos::from_millis(20),
        ..IncastScenario::paper(16, CcSpec::new(kind, variant), SEED)
    })
}

/// Run `case` with the probes in, by hand, keeping the scheduler in reach.
fn probed_by_hand<S: Scheduler<netsim::Event>>(
    case: &Case,
    sched: S,
) -> (SchedTotals, u64, u64, u64) {
    let staged = case.stage(SEED, true);
    let mut sim = Simulation::with_scheduler(staged.net, Probe::new(sched));
    {
        let (world, queue) = sim.split_mut();
        world.prime(queue);
    }
    run_watched(&mut sim, staged.deadline, staged.budget, staged.watchdog);
    let events = sim.events_handled();
    let probe = sim.queue_mut();
    let totals = probe.finish();
    (
        totals,
        events,
        probe.inner().total_pushed(),
        probe.inner().total_popped(),
    )
}

#[test]
fn probes_change_neither_event_order_nor_counts() {
    for (kind, variant) in [
        (ProtocolKind::Hpcc, Variant::VaiSf),
        (ProtocolKind::Swift, Variant::VaiSf),
        (ProtocolKind::Dcqcn, Variant::Default),
        (ProtocolKind::Timely, Variant::VaiSf),
    ] {
        let case = tiny_incast(kind, variant);
        let reference = case.run_with(SEED);
        assert_eq!(reference.completed, 6, "{kind:?} incast drains");

        let staged = case.stage(SEED, false).run(SchedulerKind::default());
        assert!(
            staged.summary.same_simulation(&reference),
            "{kind:?}: staged path"
        );
        for sched in SchedulerKind::ALL {
            let (run, totals, cc) = case.stage(SEED, true).run_probed(sched);
            assert!(
                run.summary.same_simulation(&reference),
                "{kind:?}: probed {sched}"
            );
            assert_eq!(totals.pop.n, reference.events);
            assert_eq!(
                totals.handlers.iter().map(|h| h.n).sum::<u64>(),
                reference.events
            );
            // Every data packet is acknowledged once and announced once.
            assert_eq!(cc.on_ack.n, 6 * 200);
            assert_eq!(cc.on_send.n, 6 * 200);
        }

        let (totals, events, pushed, popped) = probed_by_hand(&case, EventQueue::new());
        assert_eq!((totals.push.n, totals.pop.n), (pushed, popped));
        assert_eq!(events, reference.events);
        let (wheel, ..) = probed_by_hand(&case, TimingWheel::new());
        assert_eq!((wheel.push.n, wheel.pop.n), (pushed, popped));
        assert_eq!(
            wheel.handlers.map(|h| h.n),
            totals.handlers.map(|h| h.n),
            "{kind:?}: heap and wheel dispatch the same events"
        );
    }
}

#[test]
fn attributed_time_sums_to_the_traced_run_stage() {
    let case = tiny_incast(ProtocolKind::Hpcc, Variant::VaiSf);
    // A few attempts: a preemption between two clock reads lands in a
    // span either way, but one at the edges of the run stage does not.
    let mut shares = Vec::new();
    for _ in 0..5 {
        let (run, sched, cc) = case.stage(SEED, true).run_probed(SchedulerKind::Heap);
        let attributed = (sched.sched_ns() + sched.handler_ns() + cc.total_ns()) as f64;
        let share = attributed / (run.run_s * 1e9);
        if (0.9..=1.1).contains(&share) {
            return;
        }
        shares.push(share);
    }
    panic!("scheduler + handlers + CC never came within 10 % of the run stage: {shares:?}");
}

/// A fake that records the calls it receives.
struct Recorder(Arc<Mutex<Vec<String>>>);

impl Recorder {
    fn note(&self, what: String) {
        self.0.lock().expect("no panics while recording").push(what);
    }
}

impl CongestionControl for Recorder {
    fn on_ack(&mut self, fb: &AckFeedback) {
        self.note(format!("on_ack {}", fb.acked.as_u64()));
    }
    fn on_cnp(&mut self, now: Nanos) {
        self.note(format!("on_cnp {}", now.as_u64()));
    }
    fn on_send(&mut self, now: Nanos, bytes: Bytes) {
        self.note(format!("on_send {} {}", now.as_u64(), bytes.as_u64()));
    }
    fn next_timer(&self) -> Option<Nanos> {
        Some(Nanos::from_ns(77))
    }
    fn on_timer(&mut self, now: Nanos) {
        self.note(format!("on_timer {}", now.as_u64()));
    }
    fn on_rto(&mut self, now: Nanos) {
        self.note(format!("on_rto {}", now.as_u64()));
    }
    fn limits(&self) -> SenderLimits {
        SenderLimits::rate_based(BitRate::from_gbps(3))
    }
    fn mode(&self) -> CcMode {
        CcMode::Rate
    }
    fn name(&self) -> &str {
        "recorder"
    }
    fn current_rate(&self) -> BitRate {
        BitRate::from_gbps(5)
    }
    fn snapshot(&self) -> CcSnapshot {
        CcSnapshot {
            window_bytes: 9.0,
            rate: BitRate::from_gbps(7),
            vai_bank: 11.0,
        }
    }
    fn publish_metrics(&self, reg: &mut simtrace::MetricsRegistry) {
        self.note("publish_metrics".to_string());
        let _ = reg;
    }
}

#[test]
fn timed_cc_forwards_every_trait_method() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut cc = TimedCc(Box::new(Recorder(seen.clone())));
    reset_cc();

    let fb = AckFeedback::rtt_only(Nanos::from_ns(1), Nanos::from_ns(2), Bytes::new(1000));
    cc.on_ack(&fb);
    cc.on_cnp(Nanos::from_ns(3));
    cc.on_send(Nanos::from_ns(4), Bytes::new(5));
    cc.on_timer(Nanos::from_ns(6));
    cc.on_rto(Nanos::from_ns(8));
    cc.publish_metrics(&mut simtrace::MetricsRegistry::default());
    assert_eq!(
        *seen.lock().expect("recorder lock"),
        [
            "on_ack 1000",
            "on_cnp 3",
            "on_send 4 5",
            "on_timer 6",
            "on_rto 8",
            "publish_metrics"
        ]
    );

    // The non-default answers prove these reach the wrapped object and
    // not the trait's defaults.
    assert_eq!(cc.next_timer(), Some(Nanos::from_ns(77)));
    assert_eq!(cc.limits(), SenderLimits::rate_based(BitRate::from_gbps(3)));
    assert_eq!(cc.mode(), CcMode::Rate);
    assert_eq!(cc.name(), "recorder");
    assert_eq!(cc.current_rate(), BitRate::from_gbps(5));
    assert_eq!(cc.snapshot().vai_bank, 11.0);

    let t = cc_totals();
    assert_eq!(
        [
            t.on_ack.n,
            t.on_cnp.n,
            t.on_send.n,
            t.on_timer.n,
            t.on_rto.n
        ],
        [1, 1, 1, 1, 1]
    );
    reset_cc();
    assert_eq!(cc_totals().total_ns(), 0);
}

fn contract() -> Value {
    Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses with minijson")
}

fn declared(section: &str) -> Vec<(String, String, String)> {
    contract()[section]
        .as_array()
        .unwrap_or_else(|| panic!("{section} is an array"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m[k].as_str()
                    .unwrap_or_else(|| panic!("{k} is a string"))
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn table(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| {
            (
                d.name.to_string(),
                d.unit.to_string(),
                d.better.as_str().to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_what_the_harness_emits() {
    assert_eq!(declared("end_to_end"), table(END_TO_END));
    assert_eq!(declared("per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = contract()["workloads"]
        .as_array()
        .expect("workloads is an array")
        .iter()
        .map(|w| {
            w["name"]
                .as_str()
                .expect("a workload has a name")
                .to_string()
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for name in &workloads {
        assert_eq!(
            Workload::from_name(name).map(Workload::name),
            Some(name.as_str())
        );
    }
    let contract = contract();
    let keys: Vec<&str> = contract
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn a_traced_pass_emits_every_declared_layer_metric_and_nothing_else() {
    let cases = [tiny_incast(ProtocolKind::Hpcc, Variant::VaiSf)];
    // Names and counts hold on every attempt. The two timing relations are
    // of millisecond-scale runs, so a preemption can break them: they must
    // hold on one attempt of a few.
    let mut timings = Vec::new();
    for _ in 0..5 {
        let mut metrics = Metrics::default();
        let mut checks = Checks::default();
        let (summaries, _notes) = trace_cases(&cases, SEED, &mut metrics, &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.problems);
        assert_eq!(
            checks.attempted, 8,
            "three rounds of run_with + staged, then probed heap and probed wheel"
        );

        // Laying the values out panics on an undeclared name.
        let pass = PassResult {
            metrics,
            checks,
            notes: Vec::new(),
            sim: SimBlock::of(&summaries),
            iterations: 1,
        };
        let line = result_json(&pass, PER_LAYER).to_string();
        let parsed = Value::parse(&line).expect("the result line parses with minijson");
        let emitted: Vec<&str> = parsed["metrics"]
            .as_object()
            .expect("metrics object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let want: Vec<String> = declared("per_layer").into_iter().map(|(n, ..)| n).collect();
        assert_eq!(emitted, want);

        let value = |name: &str| parsed["metrics"][name]["value"].as_f64().expect("a number");
        assert_eq!(value("dcsim.events_n"), pass.sim.events as f64);
        assert_eq!(value("dcsim.sched.pop_n"), pass.sim.events as f64);
        assert_eq!(value("workloads.flows_n"), 6.0);
        assert_eq!(value("cc.on_ack_n"), 1200.0);
        assert!(value("cc.hpcc.on_ack_ns") > 0.0 && value("cc.swift.on_ack_ns") == 0.0);
        assert!(value("netsim.ev.sample_n") > 0.0 && value("netsim.ev.rto_n") == 0.0);
        assert!(value("fairsim.collect_s") >= 0.0);

        let overhead = value("trace.overhead_ratio");
        let attributed =
            value("dcsim.sched.share") + value("netsim.handler_share") + value("cc.share");
        if overhead > 1.0 && (0.9..=1.1).contains(&attributed) {
            return;
        }
        timings.push((overhead, attributed));
    }
    panic!("(overhead ratio, attributed share) never read (> 1, within 10 % of 1): {timings:?}");
}
