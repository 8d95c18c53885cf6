//! End-to-end checks of the paper's central claims, at the paper's own
//! microbenchmark scale (16-1 staggered incast, 1 MB flows, 100 Gbps).
//!
//! These are the workspace's "does the reproduction reproduce?" tests:
//! each asserts a *direction* the paper reports (who wins), never an
//! absolute number.

use fairness_repro::fairsim::{CcSpec, IncastScenario, ProtocolKind, RunCtx, Scenario, Variant};

fn run(kind: ProtocolKind, variant: Variant) -> fairness_repro::fairsim::IncastResult {
    let res = IncastScenario::paper(16, CcSpec::new(kind, variant), 42).run_with(&RunCtx::new(42));
    assert!(res.all_finished, "{:?}/{:?} did not drain", kind, variant);
    res
}

/// Section III-E: "Flows that begin last finish first" under default
/// HPCC/Swift — the staggered incast's late joiners (line-rate starts)
/// overtake the early flows.
#[test]
fn default_protocols_let_late_flows_finish_first() {
    for kind in [ProtocolKind::Hpcc, ProtocolKind::Swift] {
        let res = run(kind, Variant::Default);
        let sf = res.start_finish();
        let first_start_finish = sf.first().expect("16 flows").1;
        let last_start_finish = sf.last().expect("16 flows").1;
        assert!(
            last_start_finish < first_start_finish,
            "{kind:?}: expected the last-joining flow to finish before the first \
             (got {last_start_finish} vs {first_start_finish})"
        );
    }
}

/// Section VI-B1 / Figures 8-9: with VAI + SF "the finish time of the
/// flows is much closer together".
#[test]
fn vai_sf_shrinks_finish_spread() {
    for kind in [ProtocolKind::Hpcc, ProtocolKind::Swift] {
        let default = run(kind, Variant::Default);
        let vai_sf = run(kind, Variant::VaiSf);
        assert!(
            vai_sf.finish_spread_us() < default.finish_spread_us() / 2.0,
            "{kind:?}: VAI SF spread {} should be well under default {}",
            vai_sf.finish_spread_us(),
            default.finish_spread_us()
        );
    }
}

/// Figures 5(a)/6(a): VAI SF converges to a Jain index near 1 much
/// quicker than the default settings.
#[test]
fn vai_sf_converges_faster() {
    for kind in [ProtocolKind::Hpcc, ProtocolKind::Swift] {
        let default = run(kind, Variant::Default);
        let vai_sf = run(kind, Variant::VaiSf);
        let t_default = default.convergence_time(0.9);
        let t_vai_sf = vai_sf.convergence_time(0.9).expect("VAI SF must converge");
        // A default run that never converges is an even stronger win.
        if let Some(t) = t_default {
            assert!(
                t_vai_sf < t,
                "{kind:?}: VAI SF converged at {t_vai_sf} vs default {t}"
            );
        }
    }
}

/// The scalar form of the convergence claim: the unfairness integral
/// ∫(1−J)dt over the whole incast must shrink substantially under VAI+SF.
#[test]
fn vai_sf_shrinks_the_unfairness_integral() {
    for kind in [ProtocolKind::Hpcc, ProtocolKind::Swift] {
        let default = run(kind, Variant::Default);
        let vai_sf = run(kind, Variant::VaiSf);
        assert!(
            vai_sf.unfairness_integral() < default.unfairness_integral() * 0.7,
            "{kind:?}: integral {} should be well under default {}",
            vai_sf.unfairness_integral(),
            default.unfairness_integral()
        );
    }
}

/// Figure 1(a,c): the 1 Gbps AI and probabilistic baselines also converge
/// faster than default — the paper's motivation experiments.
#[test]
fn high_ai_and_probabilistic_baselines_improve_fairness() {
    for kind in [ProtocolKind::Hpcc, ProtocolKind::Swift] {
        let default = run(kind, Variant::Default);
        for variant in [Variant::HighAi, Variant::Probabilistic] {
            let alt = run(kind, variant);
            assert!(
                alt.finish_spread_us() < default.finish_spread_us(),
                "{kind:?}/{variant:?}: spread {} should beat default {}",
                alt.finish_spread_us(),
                default.finish_spread_us()
            );
        }
    }
}

/// Figure 1(b,d): the high-AI variant pays for its fairness with more
/// standing queue than default (the latency/fairness trade the paper's
/// mechanisms are designed to avoid).
#[test]
fn high_ai_sustains_more_queue_than_default() {
    for kind in [ProtocolKind::Hpcc, ProtocolKind::Swift] {
        let default = run(kind, Variant::Default);
        let high = run(kind, Variant::HighAi);
        assert!(
            high.mean_queue() > default.mean_queue(),
            "{kind:?}: high-AI mean queue {} should exceed default {}",
            high.mean_queue(),
            default.mean_queue()
        );
    }
}

/// Figure 5(b): HPCC VAI SF still keeps queues near zero outside the
/// join transients (mean queue within a small multiple of default's).
#[test]
fn hpcc_vai_sf_keeps_small_queues() {
    let default = run(ProtocolKind::Hpcc, Variant::Default);
    let vai_sf = run(ProtocolKind::Hpcc, Variant::VaiSf);
    assert!(
        vai_sf.mean_queue() < default.mean_queue() * 4.0 + 10_000.0,
        "VAI SF mean queue {} vs default {}",
        vai_sf.mean_queue(),
        default.mean_queue()
    );
}

/// The 96-1 scaling claim (Figures 5(c,d)/6(c,d)): with six times the
/// senders, VAI SF still converges and drains every flow.
#[test]
fn incast_96_1_with_vai_sf_converges_and_drains() {
    for kind in [ProtocolKind::Hpcc, ProtocolKind::Swift] {
        let res = IncastScenario::paper(96, CcSpec::new(kind, Variant::VaiSf), 42)
            .run_with(&RunCtx::new(42));
        assert!(res.all_finished, "{kind:?} 96-1 did not drain");
        assert_eq!(res.fcts.len(), 96);
        assert!(
            res.convergence_time(0.85).is_some(),
            "{kind:?} 96-1 never became fair"
        );
    }
}

/// The headline tail-latency claim, restated over a seed ensemble: the
/// *ensemble median* of per-seed p99 slowdowns under VAI+SF stays below
/// the baseline's on the 16-1 incast.
///
/// Tolerance: we require VAI+SF to win by at least 3% (factor 0.97)
/// rather than merely tie. The 3-seed ensemble at seed 42 shows a ~11%
/// gap (p99 median ≈ 14.8x vs 16.7x), so 3% leaves headroom for seed
/// noise while still failing if the mechanism stops helping the tail;
/// a strict `<` would pass on a 0.01% fluke win and test nothing.
#[test]
fn vai_sf_improves_ensemble_median_p99_slowdown() {
    use fairness_repro::fleet::{run_sweep, Ensemble, SweepConfig, SweepSpec, WorkloadAxis};

    let spec = SweepSpec {
        name: "claim-p99".to_string(),
        cc: vec![
            CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
            CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
        ],
        workload: WorkloadAxis::Incast { degrees: vec![16] },
        ensemble: Ensemble::new(42, 3),
    };
    let report = run_sweep(&spec, &SweepConfig::new()).report();
    assert_eq!(report.cells.len(), 2);
    let base = report.cells[0]
        .p99_median
        .expect("baseline ensemble produced samples");
    let vai_sf = report.cells[1]
        .p99_median
        .expect("VAI+SF ensemble produced samples");
    assert!(
        vai_sf < base * 0.97,
        "ensemble-median p99 slowdown: VAI+SF {vai_sf:.3} should beat baseline {base:.3} \
         by at least 3%"
    );
}
