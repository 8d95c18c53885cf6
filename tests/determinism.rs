//! Reproducibility: identical seeds must yield bit-identical experiment
//! outputs across runs — across the thread-parallel harness and across
//! event schedulers (binary heap vs hierarchical timing wheel).

use fairness_repro::dcsim::{
    BitRate, Bytes, EventQueue, Nanos, Scheduler, SchedulerKind, Simulation, TimingWheel,
};
use fairness_repro::fairsim::{
    CcSpec, IncastScenario, NetEnv, ProtocolKind, RunCtx, Scenario, Variant,
};
use fairness_repro::netsim::{self, FlowSpec, MonitorConfig, NetBuilder, NetConfig};

fn fingerprint(kind: ProtocolKind, variant: Variant, seed: u64) -> Vec<(u32, u64)> {
    let res =
        IncastScenario::paper(16, CcSpec::new(kind, variant), seed).run_with(&RunCtx::new(seed));
    res.fcts
        .iter()
        .map(|r| (r.flow.0, r.finish.as_u64()))
        .collect()
}

#[test]
fn identical_seeds_identical_completions() {
    for kind in [ProtocolKind::Hpcc, ProtocolKind::Swift, ProtocolKind::Dcqcn] {
        let a = fingerprint(kind, Variant::Default, 7);
        let b = fingerprint(kind, Variant::Default, 7);
        assert_eq!(a, b, "{kind:?} is not deterministic");
        assert_eq!(a.len(), 16);
    }
}

#[test]
fn probabilistic_variant_depends_on_seed() {
    let a = fingerprint(ProtocolKind::Hpcc, Variant::Probabilistic, 1);
    let b = fingerprint(ProtocolKind::Hpcc, Variant::Probabilistic, 2);
    assert_ne!(a, b, "different seeds should change probabilistic gating");
}

#[test]
fn deterministic_variants_are_seed_independent_in_dynamics() {
    // Default HPCC uses no randomness at all: two different seeds give
    // identical completions (the seed only feeds RED and the
    // probabilistic gate, which are unused here).
    let a = fingerprint(ProtocolKind::Hpcc, Variant::Default, 1);
    let b = fingerprint(ProtocolKind::Hpcc, Variant::Default, 2);
    assert_eq!(a, b);
}

/// The guard against state shared between runs: one run alone, then four
/// copies of it at once on threads (as the figure harness and fleet run
/// cells), all with equal fingerprints. `static mut` needs the denied
/// `unsafe`, and `thread_local!` is a clippy error; this catches what is
/// left (an atomic, a `Mutex`, a `OnceLock`) once it reaches a result.
/// The variant draws from the seeded stream, so state folded into a
/// run's seed shows as well as state folded into its timing.
#[test]
fn parallel_runs_match_serial_runs() {
    let serial = fingerprint(ProtocolKind::Hpcc, Variant::Probabilistic, 9);
    let parallel: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| s.spawn(|| fingerprint(ProtocolKind::Hpcc, Variant::Probabilistic, 9)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fingerprint thread panicked"))
            .collect()
    });
    for p in parallel {
        assert_eq!(p, serial);
    }
}

// ---------------------------------------------------------------------------
// Scheduler golden tests: heap and wheel must produce identical traces.
// ---------------------------------------------------------------------------

/// FNV-1a over a word stream — a tiny, stable trace-fingerprint hash.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Everything a golden run is compared on: dispatch count, per-flow
/// completion records, and a hash folding in the full observable trace
/// (FCTs plus the sampled fairness/queue series where available).
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    events_handled: u64,
    fcts: Vec<(u32, u64, u64)>,
    trace_hash: u64,
}

fn incast_golden_variant(scheduler: SchedulerKind, variant: Variant, seed: u64) -> Golden {
    let res = IncastScenario::paper(16, CcSpec::new(ProtocolKind::Hpcc, variant), seed)
        .run_with(&RunCtx::new(seed).with_scheduler(scheduler));
    assert!(res.all_finished, "incast must drain");
    let fcts: Vec<(u32, u64, u64)> = res
        .fcts
        .iter()
        .map(|r| (r.flow.0, r.start.as_u64(), r.finish.as_u64()))
        .collect();
    let words = fcts
        .iter()
        .flat_map(|&(f, s, e)| [u64::from(f), s, e])
        .chain(
            res.jain
                .iter()
                .flat_map(|&(t, j)| [t.to_bits(), j.to_bits()]),
        )
        .chain(res.queue.iter().flat_map(|&(t, q)| [t.to_bits(), q]))
        .collect::<Vec<_>>();
    Golden {
        events_handled: res.events_handled,
        fcts,
        trace_hash: fnv1a(words),
    }
}

fn incast_golden(scheduler: SchedulerKind, seed: u64) -> Golden {
    incast_golden_variant(scheduler, Variant::VaiSf, seed)
}

/// Two flow pairs crossing a shared bottleneck link (the classic
/// dumbbell), driven directly through `Simulation<Network, S>`.
fn dumbbell_golden(scheduler: SchedulerKind) -> Golden {
    fn build() -> netsim::Network {
        let mut b = NetBuilder::new();
        let s0 = b.add_host();
        let s1 = b.add_host();
        let r0 = b.add_host();
        let r1 = b.add_host();
        let left = b.add_switch();
        let right = b.add_switch();
        for h in [s0, s1] {
            b.link(h, left, BitRate::from_gbps(100), Nanos::MICRO);
        }
        for h in [r0, r1] {
            b.link(h, right, BitRate::from_gbps(100), Nanos::MICRO);
        }
        b.link(left, right, BitRate::from_gbps(100), Nanos::MICRO);
        let mut net = b.build(NetConfig::default(), MonitorConfig::default());
        let env = NetEnv::incast_star(Nanos::from_micros(7));
        let cc = CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf);
        for (i, (src, dst)) in [(s0, r0), (s1, r1)].into_iter().enumerate() {
            net.add_flow(
                FlowSpec {
                    src,
                    dst,
                    size: Bytes::from_kb(300),
                    start: Nanos::ZERO,
                },
                cc.build(&env, 100 + i as u64),
            );
        }
        net
    }

    fn go<S: Scheduler<netsim::Event> + Default>() -> Golden {
        let mut sim = Simulation::with_scheduler(build(), S::default());
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        sim.run_until(Nanos::from_millis(5));
        assert!(sim.world().all_finished(), "dumbbell must drain");
        let fcts: Vec<(u32, u64, u64)> = sim
            .world()
            .monitor
            .fcts()
            .iter()
            .map(|r| (r.flow.0, r.start.as_u64(), r.finish.as_u64()))
            .collect();
        let words = fcts
            .iter()
            .flat_map(|&(f, s, e)| [u64::from(f), s, e])
            .collect::<Vec<_>>();
        Golden {
            events_handled: sim.events_handled(),
            fcts,
            trace_hash: fnv1a(words),
        }
    }

    match scheduler {
        SchedulerKind::Heap => go::<EventQueue<netsim::Event>>(),
        SchedulerKind::Wheel => go::<TimingWheel<netsim::Event>>(),
    }
}

#[test]
fn incast_golden_is_scheduler_and_run_invariant() {
    // Each scheduler twice with the same seed: reruns must be
    // bit-identical, and the two schedulers must agree with each other on
    // dispatch count, per-flow FCTs, and the full trace fingerprint.
    let runs = [
        incast_golden(SchedulerKind::Heap, 7),
        incast_golden(SchedulerKind::Heap, 7),
        incast_golden(SchedulerKind::Wheel, 7),
        incast_golden(SchedulerKind::Wheel, 7),
    ];
    assert_eq!(runs[0].fcts.len(), 16);
    for (i, r) in runs.iter().enumerate().skip(1) {
        assert_eq!(&runs[0], r, "incast run {i} diverged from run 0");
    }
}

#[test]
fn dumbbell_golden_is_scheduler_and_run_invariant() {
    let runs = [
        dumbbell_golden(SchedulerKind::Heap),
        dumbbell_golden(SchedulerKind::Heap),
        dumbbell_golden(SchedulerKind::Wheel),
        dumbbell_golden(SchedulerKind::Wheel),
    ];
    assert_eq!(runs[0].fcts.len(), 2);
    for (i, r) in runs.iter().enumerate().skip(1) {
        assert_eq!(&runs[0], r, "dumbbell run {i} diverged from run 0");
    }
}

#[test]
fn incast_golden_depends_on_seed() {
    // The fingerprint hash is a real function of the run. VaiSf is fully
    // deterministic (seed-independent), so probe with the probabilistic
    // variant, whose gating actually draws from the seeded stream.
    let a = incast_golden_variant(SchedulerKind::Heap, Variant::Probabilistic, 7);
    let b = incast_golden_variant(SchedulerKind::Heap, Variant::Probabilistic, 8);
    assert_ne!(a.trace_hash, b.trace_hash);
}
