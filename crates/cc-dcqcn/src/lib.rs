//! `cc-dcqcn` — DCQCN: Datacenter QCN congestion control (Zhu et al.,
//! SIGCOMM 2015).
//!
//! DCQCN is the paper's point of comparison for *probabilistic feedback*:
//! switches RED-mark packets with a probability that grows with queue
//! depth, receivers convert marks into rate-limited Congestion
//! Notification Packets (CNPs), and senders run a QCN-style rate machine.
//! Because flows with more packets in the queue are proportionally more
//! likely to be marked, DCQCN "does not suffer from unfairness like Swift
//! and HPCC" (paper Section II) — at the cost of slower, coarser reactions.
//!
//! # The rate machine
//!
//! Two rates: the *current* rate `Rc` actually paced, and the *target*
//! rate `Rt` it climbs back toward.
//!
//! * **CNP arrival** — `Rt ← Rc`, `Rc ← Rc·(1 − α/2)`, `α ← (1−g)·α + g`,
//!   and the increase state machine resets.
//! * **α decay timer** (55 µs without CNPs) — `α ← (1−g)·α`.
//! * **Rate increase events** fire on a timer (`T = 300 µs`) and on a byte
//!   counter (`B = 10 MB`), each maintaining an iteration count since the
//!   last CNP:
//!   * *fast recovery* (max(iters) ≤ F=5): `Rc ← (Rt + Rc)/2`;
//!   * *additive increase*: `Rt ← Rt + R_AI`, then `Rc ← (Rt + Rc)/2`;
//!   * *hyper increase* (min(iters) > F): `Rt ← Rt + R_HAI`, then halve
//!     toward `Rc` as above.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use dcsim::{BitRate, Bytes, Nanos};
use faircc::{AckFeedback, CcMode, CongestionControl, MetricsRegistry, SenderLimits};

/// Tunables for one DCQCN flow.
#[derive(Debug, Clone)]
pub struct DcqcnConfig {
    /// Line rate (initial and maximum rate).
    pub line_rate: BitRate,
    /// EWMA gain `g` for α (DCQCN default 1/256).
    pub g: f64,
    /// α decay timer interval (55 µs).
    pub alpha_timer: Nanos,
    /// Rate-increase timer interval (300 µs, the "fast" datacenter
    /// setting).
    pub rate_timer: Nanos,
    /// Rate-increase byte counter (10 MB).
    pub byte_counter: Bytes,
    /// Fast-recovery threshold F (5 iterations).
    pub f: u32,
    /// Additive increase step (40 Mbps).
    pub r_ai: BitRate,
    /// Hyper increase step (400 Mbps).
    pub r_hai: BitRate,
    /// Minimum rate floor (keeps flows alive; 10 Mbps).
    pub min_rate: BitRate,
}

impl DcqcnConfig {
    /// DCQCN defaults for 100 Gbps fabrics (DCQCN paper values with the
    /// faster rate timer used by the HPCC artifact's simulations).
    pub fn default_100g() -> Self {
        DcqcnConfig {
            line_rate: BitRate::from_gbps(100),
            g: 1.0 / 256.0,
            alpha_timer: Nanos::from_micros(55),
            rate_timer: Nanos::from_micros(300),
            byte_counter: Bytes::from_mb(10),
            f: 5,
            r_ai: BitRate::from_mbps(40),
            r_hai: BitRate::from_mbps(400),
            min_rate: BitRate::from_mbps(10),
        }
    }
}

/// One flow's DCQCN state.
pub struct Dcqcn {
    cfg: DcqcnConfig,
    /// Current (paced) rate, bits/s.
    rc: f64,
    /// Target rate, bits/s.
    rt: f64,
    /// Congestion extent estimate α.
    alpha: f64,
    /// Iterations of the rate timer since the last CNP.
    t_iters: u32,
    /// Iterations of the byte counter since the last CNP.
    b_iters: u32,
    /// Bytes sent since the last byte-counter event.
    bytes_since: Bytes,
    /// Next α-decay deadline.
    alpha_due: Nanos,
    /// Next rate-increase deadline.
    rate_due: Nanos,
    /// Whether a CNP was received since the last α timer tick.
    cnp_since_alpha_tick: bool,
}

impl Dcqcn {
    /// A flow starting at line rate with α = 1 (DCQCN convention).
    pub fn new(cfg: DcqcnConfig) -> Self {
        let r0 = cfg.line_rate.as_f64();
        Dcqcn {
            alpha_due: cfg.alpha_timer,
            rate_due: cfg.rate_timer,
            cfg,
            rc: r0,
            rt: r0,
            alpha: 1.0,
            t_iters: 0,
            b_iters: 0,
            bytes_since: Bytes::ZERO,
            cnp_since_alpha_tick: false,
        }
    }

    /// Current rate in bits/s.
    pub fn rate(&self) -> f64 {
        self.rc
    }

    /// Target rate in bits/s.
    pub fn target_rate(&self) -> f64 {
        self.rt
    }

    /// Congestion parameter α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn clamp(&mut self) {
        let max = self.cfg.line_rate.as_f64();
        let min = self.cfg.min_rate.as_f64();
        self.rc = self.rc.clamp(min, max);
        self.rt = self.rt.clamp(min, max);
    }

    /// One rate-increase event (timer- or byte-counter-triggered).
    fn increase(&mut self) {
        let fr = self.cfg.f;
        if self.t_iters.max(self.b_iters) <= fr {
            // Fast recovery: climb halfway back to the target.
        } else if self.t_iters.min(self.b_iters) > fr {
            // Hyper increase.
            self.rt += self.cfg.r_hai.as_f64();
        } else {
            // Additive increase.
            self.rt += self.cfg.r_ai.as_f64();
        }
        self.rc = (self.rt + self.rc) / 2.0;
        self.clamp();
    }
}

impl CongestionControl for Dcqcn {
    fn on_ack(&mut self, _fb: &AckFeedback) {
        // DCQCN reacts to CNPs, not ACKs.
    }

    fn on_cnp(&mut self, _now: Nanos) {
        self.rt = self.rc;
        self.rc *= 1.0 - self.alpha / 2.0;
        self.alpha = (1.0 - self.cfg.g) * self.alpha + self.cfg.g;
        self.t_iters = 0;
        self.b_iters = 0;
        self.bytes_since = Bytes::ZERO;
        self.cnp_since_alpha_tick = true;
        self.clamp();
    }

    fn on_send(&mut self, _now: Nanos, bytes: Bytes) {
        self.bytes_since += bytes;
        if self.bytes_since >= self.cfg.byte_counter {
            self.bytes_since -= self.cfg.byte_counter;
            self.b_iters += 1;
            self.increase();
        }
    }

    fn next_timer(&self) -> Option<Nanos> {
        Some(self.alpha_due.min(self.rate_due))
    }

    fn on_timer(&mut self, now: Nanos) {
        if now >= self.alpha_due {
            if !self.cnp_since_alpha_tick {
                self.alpha *= 1.0 - self.cfg.g;
            }
            self.cnp_since_alpha_tick = false;
            self.alpha_due = now + self.cfg.alpha_timer;
        }
        if now >= self.rate_due {
            self.t_iters += 1;
            self.increase();
            self.rate_due = now + self.cfg.rate_timer;
        }
    }

    fn on_rto(&mut self, _now: Nanos) {
        // Timeout = sustained loss, far beyond what a CNP signals: treat
        // α as saturated, halve the rate, and restart both recovery
        // ladders from fast recovery.
        self.rt = self.rc;
        self.rc *= 0.5;
        self.alpha = 1.0;
        self.t_iters = 0;
        self.b_iters = 0;
        self.bytes_since = Bytes::ZERO;
        self.clamp();
    }

    fn limits(&self) -> SenderLimits {
        SenderLimits::rate_based(BitRate::from_bps_f64(self.rc))
    }

    fn mode(&self) -> CcMode {
        CcMode::Rate
    }

    fn name(&self) -> &str {
        "DCQCN"
    }

    fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        reg.histogram_record_f64("cc.dcqcn.rate_bps", self.rc);
        reg.histogram_record_f64("cc.dcqcn.target_bps", self.rt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dcqcn() -> Dcqcn {
        Dcqcn::new(DcqcnConfig::default_100g())
    }

    #[test]
    fn starts_at_line_rate_with_full_alpha() {
        let d = dcqcn();
        assert_eq!(d.rate(), 100e9);
        assert_eq!(d.alpha(), 1.0);
        assert!(d.limits().window_bytes.is_infinite());
    }

    #[test]
    fn first_cnp_halves_the_rate() {
        let mut d = dcqcn();
        d.on_cnp(Nanos::from_ns(0));
        // α = 1 ⇒ Rc ← Rc/2; Rt keeps the old rate.
        assert_eq!(d.rate(), 50e9);
        assert_eq!(d.target_rate(), 100e9);
        // α moved toward 1 (stays 1 at the fixpoint of the EWMA with g).
        assert!((d.alpha() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_decays_without_cnps() {
        let mut d = dcqcn();
        let mut now = Nanos::from_ns(0);
        for _ in 0..100 {
            now = d.next_timer().expect("DCQCN always arms its rate timer");
            d.on_timer(now);
        }
        assert!(d.alpha() < 0.9, "alpha {}", d.alpha());
        // Decayed alpha means milder decreases.
        let before = d.rate();
        d.on_cnp(now);
        assert!(d.rate() > before * 0.55);
    }

    #[test]
    fn fast_recovery_climbs_halfway_back() {
        let mut d = dcqcn();
        d.on_cnp(Nanos::from_ns(0)); // Rc=50G, Rt=100G
        d.on_timer(
            d.next_timer()
                .expect("DCQCN always arms its rate timer")
                .max(d.rate_due),
        );
        // After one fast-recovery event: Rc = (100+50)/2 = 75G.
        assert!((d.rate() - 75e9).abs() < 1e-3 * 75e9, "{}", d.rate());
    }

    #[test]
    fn additive_phase_raises_target() {
        let mut d = dcqcn();
        d.on_cnp(Nanos::from_ns(0));
        // Drive rate-timer events past fast recovery (F = 5).
        let mut now = Nanos::from_ns(0);
        for _ in 0..7 {
            now += d.cfg.rate_timer;
            d.rate_due = now; // force the rate timer only
            d.alpha_due = now + Nanos::SEC;
            d.on_timer(now);
        }
        // Past F iterations of the timer only: additive phase, target
        // crept above the pre-CNP rate by ~2 * R_AI.
        assert!(d.target_rate() >= 100e9 - 1.0, "rt {}", d.target_rate());
    }

    #[test]
    fn byte_counter_triggers_increases() {
        let mut d = dcqcn();
        d.on_cnp(Nanos::from_ns(0));
        let before = d.rate();
        // 10 MB of sends = one byte-counter iteration.
        for _ in 0..10 {
            d.on_send(Nanos::from_ns(0), Bytes::from_mb(1));
        }
        assert!(d.rate() > before, "byte counter should trigger recovery");
    }

    #[test]
    fn rate_never_exceeds_line_or_drops_below_floor() {
        let mut d = dcqcn();
        // Hammer with CNPs.
        for i in 0..200 {
            d.on_cnp(Nanos::from_ns(i * 1000));
        }
        assert!(d.rate() >= d.cfg.min_rate.as_f64());
        // Then recover for a long time.
        let mut now = Nanos::from_ns(1_000_000);
        for _ in 0..30_000 {
            now = d
                .next_timer()
                .expect("DCQCN always arms its rate timer")
                .max(now);
            d.on_timer(now);
        }
        assert!(d.rate() <= d.cfg.line_rate.as_f64());
        assert!(
            (d.rate() - 100e9).abs() < 1e9,
            "should recover to line rate"
        );
    }

    #[test]
    fn repeated_cnps_converge_rate_to_alpha_fixpoint() {
        let mut d = dcqcn();
        // With CNPs every tick, alpha stays 1 and rate hits the floor.
        for i in 0..100 {
            d.on_cnp(Nanos::from_ns(i * 50_000));
        }
        assert_eq!(d.rate(), d.cfg.min_rate.as_f64());
    }

    #[test]
    fn increase_state_resets_on_cnp() {
        let mut d = dcqcn();
        d.on_cnp(Nanos::from_ns(0));
        let mut now = Nanos::from_ns(0);
        for _ in 0..7 {
            now += d.cfg.rate_timer;
            d.rate_due = now;
            d.alpha_due = now + Nanos::SEC;
            d.on_timer(now);
        }
        assert!(d.t_iters > d.cfg.f);
        d.on_cnp(now);
        assert_eq!(d.t_iters, 0);
        assert_eq!(d.b_iters, 0);
    }
}
