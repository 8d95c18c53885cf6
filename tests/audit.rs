//! Proof that the `sim-audit` invariant checks actually fire.
//!
//! Each test deliberately violates one audited invariant — through the
//! `audit_corrupt_*` test hooks or by driving an API outside the engine
//! contract — and asserts the audit panics with its signature message.
//! A final test runs a real scenario end-to-end under audit to show the
//! checks are silent on healthy executions (and that golden results are
//! unchanged, via tests/determinism.rs which also runs under this
//! feature in CI).
//!
//! The whole file is compiled only with `--features sim-audit`; without
//! the feature the hooks do not exist and the checks are compiled out.

#![cfg(feature = "sim-audit")]

use std::panic::{catch_unwind, AssertUnwindSafe};

use fairness_repro::dcsim::{
    Bytes, DetRng, EventQueue, Nanos, Scheduler, SchedulerKind, TimingWheel,
};
use fairness_repro::faircc::{VaiConfig, VariableAi};
use fairness_repro::fairsim::{CcSpec, IncastScenario, ProtocolKind, RunCtx, Scenario, Variant};
use fairness_repro::netsim::packet::{PacketKind, PacketPool};
use fairness_repro::netsim::pfc::PauseCounter;
use fairness_repro::netsim::port::Port;
use fairness_repro::netsim::{NodeId, PortNo};
use fairness_repro::workloads::IncastConfig;

/// Run `f` and return the panic message the audit produced.
fn audit_panic_message<F: FnOnce()>(f: F) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("audit check did not fire");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a string")
}

fn test_port() -> Port {
    Port::new(
        (NodeId(1), PortNo(0)),
        fairness_repro::dcsim::BitRate::from_gbps(100),
        Nanos::MICRO,
    )
}

#[test]
fn corrupted_port_ledger_trips_byte_conservation() {
    let mut pool = PacketPool::new();
    let mut rng = DetRng::new(7);
    let mut port = test_port();
    let h = pool.alloc();
    let pkt = pool.get_mut(h);
    pkt.kind = PacketKind::Data;
    pkt.wire_size = 1000;
    port.enqueue(h, &mut pool, &mut rng)
        .expect("no buffer limit set");

    // Inflate the resident-byte ledger behind the counters' back: the
    // next enqueue's conservation check must catch the mismatch.
    port.audit_corrupt_qbytes(999);
    let msg = audit_panic_message(|| {
        let h = pool.alloc();
        let pkt = pool.get_mut(h);
        pkt.kind = PacketKind::Data;
        pkt.wire_size = 500;
        let _ = port.enqueue(h, &mut pool, &mut rng);
    });
    assert!(msg.contains("sim-audit invariant violated"), "{msg}");
    assert!(msg.contains("port byte conservation"), "{msg}");
}

#[test]
fn pool_double_free_trips_generation_audit() {
    // Freeing the same handle twice is the C-style lifetime bug the
    // generation tags exist to catch: the second free presents a stale
    // generation and must panic instead of corrupting the free list.
    let mut pool = PacketPool::new();
    let h = pool.alloc();
    pool.free(h);
    let msg = audit_panic_message(|| pool.free(h));
    assert!(msg.contains("sim-audit invariant violated"), "{msg}");
    assert!(msg.contains("double free or stale handle"), "{msg}");
}

#[test]
fn pool_stale_handle_read_trips_generation_audit() {
    // A handle kept across a free/realloc of its slot would silently read
    // the *new* occupant's packet without the generation check.
    let mut pool = PacketPool::new();
    let stale = pool.alloc();
    pool.free(stale);
    let fresh = pool.alloc(); // recycles the same slot, bumped generation
    let msg = audit_panic_message(|| {
        let _ = pool.get(stale);
    });
    assert!(msg.contains("sim-audit invariant violated"), "{msg}");
    assert!(msg.contains("stale packet handle read"), "{msg}");
    // The live handle still works after the aborted stale access.
    assert_eq!(pool.get(fresh).wire_size, 0);
}

#[test]
fn pool_stale_handle_write_trips_generation_audit() {
    let mut pool = PacketPool::new();
    let stale = pool.alloc();
    pool.free(stale);
    let _fresh = pool.alloc();
    let msg = audit_panic_message(|| {
        pool.get_mut(stale).wire_size = 1;
    });
    assert!(msg.contains("sim-audit invariant violated"), "{msg}");
    assert!(msg.contains("stale packet handle write"), "{msg}");
}

#[test]
fn heap_time_regression_trips_pop_order_audit() {
    // The engine contract forbids scheduling into the past; doing it
    // straight on the queue makes the pop-order witness fire.
    let mut q = EventQueue::new();
    q.push(Nanos::from_ns(10), "late");
    assert_eq!(q.pop(), Some((Nanos::from_ns(10), "late")));
    q.push(Nanos::from_ns(5), "early");
    let msg = audit_panic_message(|| {
        let _ = q.pop();
    });
    assert!(msg.contains("heap pop order regressed"), "{msg}");
}

#[test]
fn wheel_push_behind_cursor_trips_monotonicity_audit() {
    let mut w: TimingWheel<&str> = TimingWheel::new();
    w.push(Nanos::from_ns(10), "late");
    assert_eq!(w.pop(), Some((Nanos::from_ns(10), "late")));
    let msg = audit_panic_message(|| {
        w.push(Nanos::from_ns(5), "early");
    });
    // In debug builds the engine's pre-existing debug_assert fires first;
    // in release-with-audit builds the audit_assert does. Both name the
    // cursor the push fell behind.
    assert!(msg.contains("cursor"), "{msg}");
}

#[test]
fn unbalanced_pfc_resume_trips_pairing_audit() {
    let mut c = PauseCounter::default();
    c.apply(true);
    c.apply(false); // balanced — fine
    let msg = audit_panic_message(|| {
        c.apply(false); // RESUME with no outstanding PAUSE
    });
    // debug_assert ("unbalanced PFC resume") in debug builds, the audit
    // ("PFC pairing: ...") in release-with-audit builds.
    assert!(
        msg.contains("PFC pairing") || msg.contains("unbalanced PFC resume"),
        "{msg}"
    );
}

#[test]
fn corrupted_vai_bank_trips_bounds_audit() {
    let mut vai = VariableAi::new(VaiConfig::hpcc_default(50_000.0));
    // Push the bank past Bank_Cap behind the algorithm's back.
    vai.audit_corrupt_bank(VaiConfig::hpcc_default(50_000.0).bank_cap * 2.0);
    let msg = audit_panic_message(|| {
        vai.observe(0.0, false);
        vai.on_rtt_end();
    });
    assert!(msg.contains("VAI bank"), "{msg}");

    let mut vai = VariableAi::new(VaiConfig::hpcc_default(50_000.0));
    vai.audit_corrupt_bank(-5.0);
    let msg = audit_panic_message(|| {
        vai.on_rtt_end();
    });
    assert!(msg.contains("VAI bank"), "{msg}");
}

/// A healthy end-to-end run must pass every audit silently, on both
/// schedulers — the audits constrain the implementation, not the model.
#[test]
fn clean_scenario_runs_silently_under_audit() {
    for scheduler in [SchedulerKind::Heap, SchedulerKind::Wheel] {
        let res = IncastScenario {
            incast: IncastConfig {
                senders: 4,
                flow_size: Bytes::from_kb(200),
                flows_per_interval: 2,
                interval: Nanos::from_micros(20),
            },
            cc: CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
            seed: 23,
            sample_interval: Nanos::from_micros(5),
            horizon: Nanos::from_millis(20),
        }
        .run_with(&RunCtx::new(23).with_scheduler(scheduler));
        assert!(res.all_finished, "{scheduler:?} stalled under audit");
        assert_eq!(res.fcts.len(), 4);
    }
}
