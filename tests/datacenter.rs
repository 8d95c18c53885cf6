//! Datacenter-scale integration: the fat-tree + Poisson workload pipeline
//! produces sane slowdown tables under every protocol (a fast, shrunken
//! version of the Figures 10-13 pipeline).

use fairness_repro::dcsim::{Nanos, SchedulerKind};
use fairness_repro::fairsim::{
    CcSpec, DatacenterScenario, ProtocolKind, RunCtx, Scenario, Variant,
};
use fairness_repro::netsim::FatTreeConfig;

fn tiny(cc: CcSpec, workload: &str, seed: u64) -> fairness_repro::fairsim::DatacenterResult {
    DatacenterScenario {
        fat_tree: FatTreeConfig {
            pods: 2,
            tors_per_pod: 1,
            aggs_per_pod: 1,
            hosts_per_tor: 4,
            spines: 1,
            ..FatTreeConfig::reduced()
        },
        workloads: vec![workload.to_string()],
        load: 0.4,
        horizon: Nanos::from_micros(400),
        cc,
        seed,
    }
    .run_with(&RunCtx::new(seed))
}

#[test]
fn all_protocols_run_hadoop_traffic() {
    for kind in [ProtocolKind::Hpcc, ProtocolKind::Swift, ProtocolKind::Dcqcn] {
        let res = tiny(CcSpec::new(kind, Variant::Default), "FB_Hadoop", 2);
        assert!(res.n_flows > 10, "{kind:?}: only {} flows", res.n_flows);
        assert_eq!(
            res.completed, res.n_flows,
            "{kind:?}: {}/{} flows completed",
            res.completed, res.n_flows
        );
        for p in &res.table.points {
            assert!(p.tail >= 1.0 - 1e-9, "{kind:?}: slowdown {} < 1", p.tail);
            assert!(p.median <= p.tail + 1e-9);
            assert!(p.tail < 10_000.0, "{kind:?}: slowdown {} insane", p.tail);
        }
    }
}

#[test]
fn mixed_workload_pipeline_works() {
    let res = tiny(
        CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
        "WebSearch",
        5,
    );
    assert!(res.completed > 0);
    // WebSearch has real long flows: even a 400 us arrival window should
    // sample well past the small-flow mass.
    let max_size = res
        .table
        .points
        .iter()
        .map(|p| p.size)
        .max()
        .expect("FCT table is non-empty");
    assert!(max_size > 300_000, "largest bin only {max_size}");
}

#[test]
fn same_seed_same_arrivals_across_variants() {
    // The workload must be identical across protocol variants (paired
    // comparison): same flow count for the same seed.
    let a = tiny(
        CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
        "FB_Hadoop",
        11,
    );
    let b = tiny(
        CcSpec::new(ProtocolKind::Swift, Variant::VaiSf),
        "FB_Hadoop",
        11,
    );
    assert_eq!(a.n_flows, b.n_flows);
}

#[test]
fn slowdown_grows_with_flow_size_at_the_tail() {
    // Bandwidth-bound flows suffer more than latency-bound ones under
    // congestion — the structural premise of Figures 10-13. Compare the
    // mean tail of the smallest vs largest deciles.
    let res = tiny(
        CcSpec::new(ProtocolKind::Swift, Variant::Default),
        "WebSearch",
        5,
    );
    let pts = &res.table.points;
    if pts.len() >= 10 {
        let n = pts.len();
        let small: f64 = pts[..n / 5].iter().map(|p| p.tail).sum::<f64>() / (n / 5) as f64;
        let large: f64 = pts[n - n / 5..].iter().map(|p| p.tail).sum::<f64>() / (n / 5) as f64;
        assert!(
            large > small,
            "large-flow tail {large} should exceed small-flow tail {small}"
        );
    }
}

/// The paper's 320-host tree, the one paper-scale run in tier-1: what
/// `RunCtx::new` runs on (the reference heap) and the forced timing wheel
/// must agree on every result.
#[test]
fn paper_scale_tree_is_the_same_on_the_timing_wheel() {
    let sc = DatacenterScenario {
        fat_tree: FatTreeConfig::paper(),
        horizon: Nanos::from_micros(20),
        ..DatacenterScenario::reduced(
            vec!["FB_Hadoop".to_string()],
            CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
            42,
        )
    };
    let on_heap = sc.run_with(&RunCtx::new(42));
    let on_wheel = sc.run_with(&RunCtx::new(42).with_scheduler(SchedulerKind::Wheel));
    assert!(
        on_heap.completed > 200,
        "only {} completed",
        on_heap.completed
    );
    assert_eq!(on_heap.raw, on_wheel.raw);
    assert_eq!(on_heap.outcome, on_wheel.outcome);
    assert_eq!(on_heap.events_handled, on_wheel.events_handled);
}
