//! Cross-crate protocol integration: every protocol × variant drives the
//! packet simulator to completion on the paper's microbenchmark, with
//! sane dynamics.

use fairness_repro::dcsim::{Bytes, Nanos};
use fairness_repro::fairsim::{
    CcSpec, IncastResult, IncastScenario, ProtocolKind, RunCtx, Scenario, Variant,
};
use fairness_repro::workloads::IncastConfig;

const SEED: u64 = 17;

fn scenario(kind: ProtocolKind, variant: Variant) -> IncastScenario {
    IncastScenario {
        incast: IncastConfig {
            senders: 8,
            flow_size: Bytes::from_kb(400),
            flows_per_interval: 2,
            interval: Nanos::from_micros(20),
        },
        cc: CcSpec::new(kind, variant),
        seed: SEED,
        sample_interval: Nanos::from_micros(5),
        horizon: Nanos::from_millis(30),
    }
}

fn run(sc: &IncastScenario) -> IncastResult {
    sc.run_with(&RunCtx::new(SEED))
}

#[test]
fn every_protocol_variant_completes_the_incast() {
    for kind in [ProtocolKind::Hpcc, ProtocolKind::Swift] {
        for variant in [
            Variant::Default,
            Variant::HighAi,
            Variant::Probabilistic,
            Variant::Vai,
            Variant::Sf,
            Variant::VaiSf,
        ] {
            let res = run(&scenario(kind, variant));
            assert!(res.all_finished, "{kind:?}/{variant:?} stalled");
            assert_eq!(res.fcts.len(), 8);
            // Goodput sanity: total bytes over total time within 2x of
            // the bottleneck capacity (protocols cannot beat physics).
            let last_finish = res
                .fcts
                .iter()
                .map(|r| r.finish.as_secs_f64())
                .fold(f64::MIN, f64::max);
            let total_bytes = 8.0 * 400_000.0;
            let rate = total_bytes * 8.0 / last_finish;
            assert!(
                rate < 100e9 * 1.01,
                "{kind:?}/{variant:?} beat line rate: {rate}"
            );
            assert!(
                rate > 10e9,
                "{kind:?}/{variant:?} pathologically slow: {rate}"
            );
        }
    }
}

#[test]
fn timely_completes_the_incast() {
    // Timely (RTT-gradient, rate-based) queues heavily under line-rate
    // incast joins — its known weakness — but must still drain.
    let res = run(&scenario(ProtocolKind::Timely, Variant::Default));
    assert!(res.all_finished);
    assert_eq!(res.fcts.len(), 8);
    let vai_sf = run(&scenario(ProtocolKind::Timely, Variant::VaiSf));
    assert!(vai_sf.all_finished);
}

#[test]
fn dcqcn_baseline_completes_with_red_marking() {
    let res = run(&scenario(ProtocolKind::Dcqcn, Variant::Default));
    assert!(res.all_finished);
    assert_eq!(res.fcts.len(), 8);
}

#[test]
fn queues_stay_bounded_for_all_variants() {
    // HPCC and Swift react per-RTT and keep incast queues to a few
    // hundred KB. DCQCN's CNPs arrive at 50 us granularity against
    // line-rate joiners, so its incast queue legitimately reaches the
    // multi-MB range (the weakness DCQCN+ [Gao et al.] addresses); it
    // must still stay within a real switch's buffer budget.
    for (kind, budget) in [
        (ProtocolKind::Hpcc, 500_000u64),
        (ProtocolKind::Swift, 500_000),
        (ProtocolKind::Dcqcn, 8_000_000),
    ] {
        let res = run(&scenario(kind, Variant::Default));
        assert!(
            res.peak_queue() < budget,
            "{kind:?} peak queue {} above budget {budget}",
            res.peak_queue()
        );
    }
}

#[test]
fn fcts_scale_with_incast_degree() {
    // 16 senders into one link take ~2x as long as 8 senders.
    let small = run(&scenario(ProtocolKind::Hpcc, Variant::Default));
    let mut big_cfg = scenario(ProtocolKind::Hpcc, Variant::Default);
    big_cfg.incast.senders = 16;
    let big = run(&big_cfg);
    let last = |r: &IncastResult| {
        r.fcts
            .iter()
            .map(|x| x.finish.as_micros_f64())
            .fold(f64::MIN, f64::max)
    };
    let ratio = last(&big) / last(&small);
    assert!(
        (1.5..3.0).contains(&ratio),
        "16-1 should take ~2x the 8-1 drain time, got {ratio}"
    );
}

#[test]
fn flows_share_within_protocol_family_reasonably() {
    // At the end of a long overlap phase, per-flow FCTs of the first two
    // (simultaneously started) flows should be close for every protocol.
    for kind in [ProtocolKind::Hpcc, ProtocolKind::Swift, ProtocolKind::Dcqcn] {
        let res = run(&scenario(kind, Variant::Default));
        let f0 = res
            .fcts
            .iter()
            .find(|r| r.flow.0 == 0)
            .expect("flow 0 finished");
        let f1 = res
            .fcts
            .iter()
            .find(|r| r.flow.0 == 1)
            .expect("flow 1 finished");
        let a = f0.fct().as_secs_f64();
        let b = f1.fct().as_secs_f64();
        let ratio = a.max(b) / a.min(b);
        assert!(
            ratio < 1.5,
            "{kind:?}: simultaneous twins diverged {ratio}x ({a} vs {b})"
        );
    }
}
