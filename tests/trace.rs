//! Golden tests for the simtrace observability layer: the structured
//! event stream must be byte-identical across repeated runs and across
//! event schedulers, and the Chrome `trace_event` export must have the
//! shape Perfetto expects.

use fairness_repro::dcsim::SchedulerKind;
use fairness_repro::fairsim::{
    CcSpec, IncastResult, IncastScenario, ProtocolKind, RunCtx, Scenario, TraceConfig, TraceLevel,
    Variant,
};
use minijson::Value;

fn traced_incast(scheduler: SchedulerKind, level: TraceConfig) -> IncastResult {
    let sc = IncastScenario::paper(8, CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf), 7);
    sc.run_with(&RunCtx::new(7).with_scheduler(scheduler).with_trace(level))
}

#[test]
fn trace_jsonl_is_run_and_scheduler_invariant() {
    let a = traced_incast(SchedulerKind::Heap, TraceConfig::full());
    let b = traced_incast(SchedulerKind::Heap, TraceConfig::full());
    let c = traced_incast(SchedulerKind::Wheel, TraceConfig::full());

    let ja = a
        .trace
        .as_ref()
        .expect("full tracing yields a tracer")
        .to_jsonl();
    let jb = b
        .trace
        .as_ref()
        .expect("full tracing yields a tracer")
        .to_jsonl();
    let jc = c
        .trace
        .as_ref()
        .expect("full tracing yields a tracer")
        .to_jsonl();

    assert!(!ja.is_empty(), "a traced incast must record events");
    assert_eq!(ja, jb, "repeat run trace diverged");
    assert_eq!(ja, jc, "heap vs wheel trace diverged");

    // The Chrome export is derived from the same buffer, so it inherits
    // the determinism; check it anyway since it is a separate code path.
    assert_eq!(
        a.trace.as_ref().expect("tracer").to_chrome(),
        c.trace.as_ref().expect("tracer").to_chrome(),
    );
}

#[test]
fn trace_jsonl_lines_are_wellformed_and_cover_subsystems() {
    let res = traced_incast(SchedulerKind::Heap, TraceConfig::full());
    let jsonl = res.trace.as_ref().expect("tracer").to_jsonl();

    let mut subs_seen = std::collections::BTreeSet::new();
    let mut last_t = 0u64;
    for line in jsonl.lines() {
        let v = Value::parse(line).expect("every JSONL line parses");
        let t = v["t"].as_u64().expect("t is a non-negative integer");
        assert!(t >= last_t, "timestamps must be non-decreasing");
        last_t = t;
        subs_seen.insert(v["sub"].as_str().expect("sub is a string").to_owned());
        assert!(v["ev"].as_str().is_some(), "ev is a string");
    }
    for want in ["port", "flow", "cc"] {
        assert!(
            subs_seen.contains(want),
            "missing '{want}' events: {subs_seen:?}"
        );
    }
}

#[test]
fn chrome_trace_has_perfetto_shape() {
    let res = traced_incast(SchedulerKind::Heap, TraceConfig::full());
    let chrome = res.trace.as_ref().expect("tracer").to_chrome();
    let v = Value::parse(&chrome).expect("chrome export parses as JSON");

    assert_eq!(v["displayTimeUnit"].as_str(), Some("ns"));
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());

    let mut complete_events = 0usize;
    for ev in events {
        assert!(ev.get("name").is_some(), "event has a name");
        assert!(ev.get("cat").is_some(), "event has a category");
        assert!(ev.get("ts").is_some(), "event has a timestamp");
        assert_eq!(ev["pid"].as_u64(), Some(1));
        assert!(ev.get("tid").is_some(), "event has a track id");
        match ev["ph"].as_str().expect("phase is a string") {
            "X" => {
                assert!(ev.get("dur").is_some(), "complete events carry dur");
                complete_events += 1;
            }
            "i" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    // Each of the eight incast flows finishes, emitting one complete
    // ("X") span whose duration is the FCT.
    assert_eq!(complete_events, 8);
}

#[test]
fn subsystem_filter_restricts_the_stream() {
    let cfg = TraceConfig::full().with_filter(fairness_repro::fairsim::Subsystem::Port);
    let res = traced_incast(SchedulerKind::Heap, cfg);
    let jsonl = res.trace.as_ref().expect("tracer").to_jsonl();
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        let v = Value::parse(line).expect("line parses");
        assert_eq!(v["sub"].as_str(), Some("port"));
    }
}

#[test]
fn counters_level_publishes_metrics_without_events() {
    let res = traced_incast(SchedulerKind::Heap, TraceConfig::counters());
    let tr = res.trace.as_ref().expect("counters level keeps the tracer");
    assert_eq!(tr.config().level, TraceLevel::Counters);
    assert!(tr.is_empty(), "no event stream at counters level");

    let reg = tr.metrics();
    assert_eq!(reg.counter("net.flows"), Some(8));
    assert_eq!(reg.counter("net.flows_finished"), Some(8));
    let fct = reg.histogram("monitor.fct_ns").expect("FCT histogram");
    assert_eq!(fct.count(), 8);

    // Tracing must observe, not perturb: the physical results match an
    // untraced run bit for bit.
    let plain = traced_incast(SchedulerKind::Heap, TraceConfig::off());
    assert!(plain.trace.is_none(), "TraceLevel::Off carries no tracer");
    let fcts = |r: &IncastResult| -> Vec<(u32, u64)> {
        r.fcts
            .iter()
            .map(|f| (f.flow.0, f.finish.as_u64()))
            .collect()
    };
    assert_eq!(fcts(&res), fcts(&plain));
    assert_eq!(res.events_handled, plain.events_handled);
}

#[test]
fn occupancy_high_water_is_reported() {
    // The engine's occupancy high-water mark feeds the scenario result,
    // traced or not; a run with dozens of concurrent timers must have a
    // nonzero mark, and it must repeat.
    let a = traced_incast(SchedulerKind::Heap, TraceConfig::off());
    let b = traced_incast(SchedulerKind::Heap, TraceConfig::off());
    assert!(a.occupancy_hwm > 0);
    assert_eq!(a.occupancy_hwm, b.occupancy_hwm);
}
