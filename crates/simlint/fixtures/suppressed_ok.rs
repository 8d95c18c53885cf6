// Fixture: every violation here carries a suppression — zero findings.
use crate::units::Nanos;

fn sample_count(window_us: f64, interval_us: f64) -> usize {
    // simlint: allow(D4) — bounded sample count, not a unit quantity
    (window_us / interval_us).ceil() as usize
}

fn nudge(t: Nanos) -> Nanos {
    t + 5 // simlint: allow(U1) — fixture demonstrating suppression
}
