//! Fleet sweep harness: spec-expansion properties and report
//! determinism.
//!
//! The expansion properties run as seeded DetRng case loops (the
//! workspace's hermetic stand-in for a property-testing crate): each
//! case draws a random spec — protocol set, degree axis, ensemble — and
//! checks the invariants the report layer builds on. The golden test
//! then pins the end-to-end contract: a sweep's report JSON is
//! byte-identical across reruns and worker counts.

use fairness_repro::dcsim::DetRng;
use fairness_repro::fairsim::{CcSpec, ProtocolKind, Variant};
use fairness_repro::fleet::{run_sweep, Ensemble, SweepConfig, SweepSpec, WorkloadAxis};

const KINDS: [ProtocolKind; 4] = [
    ProtocolKind::Hpcc,
    ProtocolKind::Swift,
    ProtocolKind::Dcqcn,
    ProtocolKind::Timely,
];
const VARIANTS: [Variant; 6] = [
    Variant::Default,
    Variant::HighAi,
    Variant::Probabilistic,
    Variant::Vai,
    Variant::Sf,
    Variant::VaiSf,
];

/// Draw a random incast sweep spec: 1-4 distinct cc specs, 1-4 distinct
/// degrees, a 1-4 replicate ensemble.
fn arbitrary_spec(rng: &mut DetRng) -> SweepSpec {
    let mut cc: Vec<CcSpec> = Vec::new();
    let n_cc = 1 + rng.index(4);
    while cc.len() < n_cc {
        let kind = KINDS[rng.index(KINDS.len())];
        let variant = VARIANTS[rng.index(VARIANTS.len())];
        let spec = CcSpec::new(kind, variant);
        if !cc.contains(&spec) {
            cc.push(spec);
        }
    }
    let mut degrees: Vec<usize> = Vec::new();
    let n_deg = 1 + rng.index(4);
    while degrees.len() < n_deg {
        let d = 2 + rng.index(96);
        if !degrees.contains(&d) {
            degrees.push(d);
        }
    }
    SweepSpec {
        name: "prop".to_string(),
        cc,
        workload: WorkloadAxis::Incast { degrees },
        ensemble: Ensemble::new(rng.next_u64(), 1 + rng.index(4)),
    }
}

#[test]
fn expansion_count_is_the_product_of_axis_sizes() {
    let mut rng = DetRng::new(0x5EED_0001);
    for _ in 0..50 {
        let spec = arbitrary_spec(&mut rng);
        let cells = spec.expand();
        assert_eq!(cells.len(), spec.cell_count());
        assert_eq!(cells.len(), spec.points().len() * spec.cc.len());
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i, "cell index must equal its position");
            assert_eq!(
                c.seeds.len(),
                spec.ensemble.replicates,
                "every cell runs the full ensemble"
            );
        }
    }
}

#[test]
fn expansion_has_no_duplicate_cells_and_is_deterministic() {
    let mut rng = DetRng::new(0x5EED_0002);
    for _ in 0..50 {
        let spec = arbitrary_spec(&mut rng);
        let cells = spec.expand();
        let mut ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate cell ids in expansion");

        // Expansion is a pure function of the spec: rerunning it yields
        // the same cells in the same order.
        let again = spec.expand();
        assert_eq!(cells, again, "expand() must be rerun-stable");
    }
}

#[test]
fn per_cell_seeds_are_rerun_stable_and_shared_across_cc() {
    let mut rng = DetRng::new(0x5EED_0003);
    for _ in 0..50 {
        let spec = arbitrary_spec(&mut rng);
        let cells = spec.expand();
        let n_cc = spec.cc.len();
        for (i, c) in cells.iter().enumerate() {
            // Replicate 0 is the ensemble root: a 1-replicate sweep
            // reproduces the classic single-seed runs.
            assert_eq!(c.seeds[0], spec.ensemble.root_seed);
            // Cells at the same workload point share seeds (common
            // random numbers across the protocol axis)...
            let point_first = &cells[(i / n_cc) * n_cc];
            assert_eq!(c.seeds, point_first.seeds, "cc axis must share seeds");
            // ...and the derivation is rerun-stable.
            assert_eq!(c.seeds, spec.ensemble.seeds_for(&c.point.key()));
        }
        // Distinct points draw distinct derived seeds (replicate >= 1).
        if spec.ensemble.replicates > 1 && spec.points().len() > 1 {
            let a = &cells[0].seeds;
            let b = &cells[cells.len() - 1].seeds;
            assert_ne!(a[1..], b[1..], "points must not share derived seeds");
        }
    }
}

/// The golden end-to-end contract: a 3-seed, 2-variant incast sweep
/// produces byte-identical report JSON across reruns and across worker
/// counts. (Heap vs wheel is pinned per run by `tests/determinism.rs`; a
/// report is built from those run results.)
#[test]
fn sweep_report_json_is_byte_identical_everywhere() {
    let spec = SweepSpec {
        name: "golden".to_string(),
        cc: vec![
            CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
            CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
        ],
        workload: WorkloadAxis::Incast { degrees: vec![8] },
        ensemble: Ensemble::new(7, 3),
    };
    let json_of = |workers: usize| {
        run_sweep(&spec, &SweepConfig::new().with_workers(workers))
            .report()
            .to_json()
    };
    let reference = json_of(4);
    assert_eq!(
        reference,
        json_of(4),
        "rerunning the same sweep changed the report"
    );
    assert_eq!(reference, json_of(1), "worker count leaked into the report");

    let v = minijson::Value::parse(&reference).expect("report is valid JSON");
    let cells = v["cells"].as_array().expect("report has a cells array");
    assert_eq!(cells.len(), 2, "1 degree x 2 variants = 2 cells");
    for cell in cells {
        assert_eq!(
            cell["seeds"].as_array().map(<[minijson::Value]>::len),
            Some(3)
        );
        assert!(
            cell["p99"]["median"].as_f64().is_some(),
            "every cell reports an ensemble-median p99"
        );
        assert_eq!(
            cell["p99"]["ci95"].as_array().map(<[minijson::Value]>::len),
            Some(2),
            "every cell reports a bootstrap CI"
        );
    }
}
