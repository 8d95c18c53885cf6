//! The scenario layer has one run path: `run_with` is `run_with_cc` with
//! the spec's own factory, and a fault scenario with no faults is the
//! datacenter scenario. (That an incast which exhausts its event budget
//! reports `RunOutcome::Budget` is a `fairsim` unit test: the budget is a
//! constant with no public knob.)

use fairness_repro::dcsim::{Bytes, Nanos, SchedulerKind};
use fairness_repro::fairsim::{
    CcSpec, DatacenterScenario, FaultScenario, IncastScenario, ProtocolKind, RunCtx, Scenario,
    Variant,
};
use fairness_repro::netsim::FaultStats;
use fairness_repro::workloads::IncastConfig;

const SEED: u64 = 11;

fn small_incast(cc: CcSpec) -> IncastScenario {
    IncastScenario {
        incast: IncastConfig {
            senders: 4,
            flow_size: Bytes::from_kb(200),
            flows_per_interval: 2,
            interval: Nanos::from_micros(20),
        },
        horizon: Nanos::from_millis(20),
        ..IncastScenario::paper(16, cc, SEED)
    }
}

#[test]
fn run_with_is_run_with_cc_with_the_specs_factory() {
    // Probabilistic gating actually draws from the per-flow seeded
    // stream, so a drifted seed rule would show.
    let spec = CcSpec::new(ProtocolKind::Hpcc, Variant::Probabilistic);
    let sc = small_incast(spec);
    for scheduler in [SchedulerKind::Heap, SchedulerKind::Wheel] {
        let ctx = RunCtx::new(SEED).with_scheduler(scheduler);
        let stock = sc.run_with(&ctx);
        let custom = sc.run_with_cc(&ctx, &|env, flow_seed| spec.build(env, flow_seed));
        assert!(stock.all_finished);
        assert_eq!(stock.fcts, custom.fcts);
        assert_eq!(stock.jain, custom.jain);
        assert_eq!(stock.queue, custom.queue);
        assert_eq!(stock.raw, custom.raw);
        assert_eq!(stock.outcome, custom.outcome);
        assert_eq!(stock.events_handled, custom.events_handled);
    }
    // The context's seed, not the scenario's field, seeds the run.
    let reseeded = sc.run_with(&RunCtx::new(SEED + 1));
    assert_ne!(sc.run_with(&RunCtx::new(SEED)).fcts, reseeded.fcts);
}

#[test]
fn fault_scenario_with_no_knobs_is_the_datacenter_scenario() {
    let workloads = vec!["FB_Hadoop".to_string()];
    let cc = CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf);
    let ctx = RunCtx::new(2);
    let clean = DatacenterScenario {
        horizon: Nanos::from_micros(300),
        ..DatacenterScenario::reduced(workloads.clone(), cc, 2)
    }
    .run_with(&ctx);
    let faulty = FaultScenario {
        horizon: Nanos::from_micros(300),
        ..FaultScenario::reduced(workloads, cc, 2)
    }
    .run_with(&ctx);
    assert!(!clean.raw.is_empty());
    assert_eq!(faulty.raw, clean.raw, "empty fault plan changed results");
    assert_eq!(faulty.outcome, clean.outcome);
    assert_eq!(faulty.faults, FaultStats::default());
}
