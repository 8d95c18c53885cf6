//! `cc-timely` — Timely: RTT-gradient congestion control (Mittal et al.,
//! SIGCOMM 2015).
//!
//! Timely is the sender-side, rate-based ancestor of Swift and one of the
//! protocols the fairness paper cites when motivating its mechanisms (its
//! *hyper active increase* is the extension the paper suggests adding to
//! Swift). Including it demonstrates the paper's claim that Variable AI
//! and Sampling Frequency are "broadly applicable to other sender
//! reaction-based protocols": both bolt onto Timely here exactly as they
//! do onto HPCC and Swift.
//!
//! # The algorithm
//!
//! Timely smooths the *derivative* of the RTT (is the queue growing or
//! draining?) rather than its absolute value, with absolute guard rails:
//!
//! ```text
//! rtt_diff   = (1−α)·rtt_diff + α·(new_rtt − prev_rtt)
//! gradient   = rtt_diff / min_rtt
//! if new_rtt < T_low  : rate += δ                       (additive)
//! if new_rtt > T_high : rate ×= 1 − β·(1 − T_high/rtt)  (multiplicative)
//! if gradient ≤ 0     : rate += N·δ   (N = 5 after 5 good events: HAI)
//! else                : rate ×= 1 − β·gradient
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

use dcsim::{BitRate, Nanos};
use faircc::{
    AckFeedback, CcMode, CcSnapshot, CongestionControl, MetricsRegistry, SamplingFrequency,
    SenderLimits, SfConfig, VaiConfig, VariableAi,
};

/// Tunables for one Timely flow.
#[derive(Debug, Clone)]
pub struct TimelyConfig {
    /// Line rate (initial and maximum).
    pub line_rate: BitRate,
    /// Propagation-only RTT (`min_rtt`): normalizes the gradient.
    pub min_rtt: Nanos,
    /// Below this RTT the rate always increases additively.
    pub t_low: Nanos,
    /// Above this RTT the rate always decreases multiplicatively.
    pub t_high: Nanos,
    /// EWMA weight for the RTT difference (Timely: 0.875... the paper's
    /// artifact uses α ≈ 0.875 on the *new* sample being damped; we use
    /// the conventional `rtt_diff = (1−α)·old + α·new` with α = 0.875).
    pub alpha: f64,
    /// Multiplicative-decrease strength β (Timely: 0.8).
    pub beta: f64,
    /// Additive increment δ (we use 50 Mbps, matching the paper's AI
    /// setting for HPCC/Swift; Timely's 10 Gbps-era default was 10 Mbps).
    pub delta: BitRate,
    /// Completed gradient-negative events before hyper active increase
    /// engages (Timely: 5).
    pub hai_thresh: u32,
    /// Rate floor.
    pub min_rate: BitRate,
    /// Variable AI (None = stock Timely).
    pub vai: Option<VaiConfig>,
    /// Sampling Frequency (None = per-RTT decreases).
    pub sf: Option<SfConfig>,
}

impl TimelyConfig {
    /// Reasonable defaults for a 100 Gbps fabric with `base_rtt`
    /// propagation: `T_low = base + 2 µs`, `T_high = base + 10 µs`.
    pub fn default_100g(base_rtt: Nanos) -> Self {
        TimelyConfig {
            line_rate: BitRate::from_gbps(100),
            min_rtt: base_rtt,
            t_low: base_rtt + Nanos::from_micros(2),
            t_high: base_rtt + Nanos::from_micros(10),
            alpha: 0.875,
            beta: 0.8,
            delta: BitRate::from_mbps(50),
            hai_thresh: 5,
            min_rate: BitRate::from_mbps(10),
            vai: None,
            sf: None,
        }
    }

    /// Stock Timely plus the fairness paper's mechanisms: VAI fed by
    /// RTT overshoot (tokens above `T_high + 4 µs`, 30 ns per token, as
    /// in the Swift parameterization) and SF at s = 30.
    pub fn with_vai_sf(base_rtt: Nanos) -> Self {
        let base = Self::default_100g(base_rtt);
        let thresh_ns = base.t_high.as_u64() as f64 + 4_000.0;
        TimelyConfig {
            vai: Some(VaiConfig::swift_default(thresh_ns)),
            sf: Some(SfConfig::paper_default()),
            ..base
        }
    }
}

/// One flow's Timely state.
pub struct Timely {
    cfg: TimelyConfig,
    name: &'static str,
    /// Current injection rate, bits/s.
    rate: f64,
    prev_rtt: Option<Nanos>,
    rtt_diff_ns: f64,
    /// Consecutive gradient-negative (or sub-T_low) events.
    good_events: u32,
    /// Per-RTT decrease gate (stock mode).
    last_decrease: Nanos,
    last_rtt: Nanos,
    rtt_mark: Nanos,
    vai: Option<VariableAi>,
    sf: Option<SamplingFrequency>,
}

impl Timely {
    /// A flow starting at line rate.
    pub fn new(cfg: TimelyConfig) -> Self {
        let rate = cfg.line_rate.as_f64();
        let vai = cfg.vai.map(VariableAi::new);
        let sf = cfg.sf.map(SamplingFrequency::new);
        let name = match (&vai, &sf) {
            (Some(_), Some(_)) => "Timely VAI SF",
            (Some(_), None) => "Timely VAI",
            (None, Some(_)) => "Timely SF",
            (None, None) => "Timely",
        };
        Timely {
            cfg,
            name,
            rate,
            prev_rtt: None,
            rtt_diff_ns: 0.0,
            good_events: 0,
            last_decrease: Nanos::ZERO,
            last_rtt: Nanos::ZERO,
            rtt_mark: Nanos::ZERO,
            vai,
            sf,
        }
    }

    /// Current rate in bits/s.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The smoothed normalized RTT gradient.
    pub fn gradient(&self) -> f64 {
        self.rtt_diff_ns / self.cfg.min_rtt.as_u64() as f64
    }

    fn effective_delta(&mut self, spend: bool) -> f64 {
        let base = self.cfg.delta.as_f64();
        match &mut self.vai {
            Some(vai) => base * vai.ai_multiplier(spend),
            None => base,
        }
    }

    fn clamp(&mut self) {
        self.rate = self
            .rate
            .clamp(self.cfg.min_rate.as_f64(), self.cfg.line_rate.as_f64());
    }
}

impl CongestionControl for Timely {
    fn on_ack(&mut self, fb: &AckFeedback) {
        let new_rtt = fb.rtt;

        // Gradient update.
        if let Some(prev) = self.prev_rtt {
            let diff = new_rtt.as_u64() as f64 - prev.as_u64() as f64;
            self.rtt_diff_ns = (1.0 - self.cfg.alpha) * self.rtt_diff_ns + self.cfg.alpha * diff;
        }
        self.prev_rtt = Some(new_rtt);
        let gradient = self.gradient();

        // VAI bookkeeping (congestion measure: raw RTT, congested when
        // above T_high — the regime where Timely decreases).
        let congested = new_rtt > self.cfg.t_high || (new_rtt >= self.cfg.t_low && gradient > 0.0);
        if let Some(vai) = &mut self.vai {
            vai.observe(new_rtt.as_u64() as f64, congested);
        }
        let rtt_boundary =
            fb.now.saturating_sub(self.rtt_mark) >= self.last_rtt && self.last_rtt > Nanos::ZERO;
        if rtt_boundary {
            self.rtt_mark = fb.now;
            if let Some(vai) = &mut self.vai {
                vai.on_rtt_end();
            }
        }

        let sf_boundary = self.sf.as_mut().map(|sf| sf.on_ack()).unwrap_or(false);
        // Stock Timely gates decreases once per *minimum* RTT: gating on
        // the measured RTT would let a deep queue inflate its own
        // reaction period and diverge.
        let may_decrease = if self.sf.is_some() {
            sf_boundary
        } else {
            fb.now.saturating_sub(self.last_decrease) >= self.cfg.min_rtt
        };

        if new_rtt < self.cfg.t_low {
            // Guard rail: always increase below T_low (hyper active
            // increase applies here too — this is exactly where freed
            // bandwidth should be grabbed fastest).
            self.good_events = self.good_events.saturating_add(1);
            let n = if self.good_events >= self.cfg.hai_thresh {
                self.cfg.hai_thresh as f64
            } else {
                1.0
            };
            let d = self.effective_delta(rtt_boundary);
            self.rate += n * d;
        } else if new_rtt > self.cfg.t_high {
            // Guard rail: always decrease above T_high (gated).
            self.good_events = 0;
            if may_decrease {
                self.rate *= 1.0 - self.cfg.beta * (1.0 - self.cfg.t_high.ratio(new_rtt));
                self.last_decrease = fb.now;
            }
        } else if gradient <= 0.0 {
            // Queue draining: additive increase, with hyper active
            // increase after `hai_thresh` consecutive good events.
            self.good_events = self.good_events.saturating_add(1);
            let n = if self.good_events >= self.cfg.hai_thresh {
                self.cfg.hai_thresh as f64
            } else {
                1.0
            };
            let d = self.effective_delta(rtt_boundary);
            self.rate += n * d;
        } else {
            // Queue growing: gradient-proportional decrease (gated).
            self.good_events = 0;
            if may_decrease {
                self.rate *= (1.0 - self.cfg.beta * gradient).max(0.0);
                self.last_decrease = fb.now;
            }
        }

        self.last_rtt = new_rtt;
        self.clamp();
    }

    fn on_rto(&mut self, now: Nanos) {
        // Timeout: halve the rate and forget the good-event streak so
        // hyper active increase cannot fire right after an outage.
        self.rate *= 0.5;
        self.good_events = 0;
        self.last_decrease = now;
        self.clamp();
    }

    fn limits(&self) -> SenderLimits {
        SenderLimits::rate_based(BitRate::from_bps_f64(self.rate))
    }

    fn mode(&self) -> CcMode {
        CcMode::Rate
    }

    fn name(&self) -> &str {
        self.name
    }

    fn snapshot(&self) -> CcSnapshot {
        let l = self.limits();
        CcSnapshot {
            window_bytes: l.window_bytes,
            rate: l.pacing,
            vai_bank: self.vai.as_ref().map_or(0.0, VariableAi::bank),
        }
    }

    fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        reg.histogram_record_f64("cc.timely.rate_bps", self.rate);
        if let Some(vai) = &self.vai {
            reg.histogram_record_f64("cc.timely.vai_bank", vai.bank());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::Bytes;

    const BASE: Nanos = Nanos::from_ns(4_000);

    fn timely() -> Timely {
        Timely::new(TimelyConfig::default_100g(BASE))
    }

    fn ack(now: Nanos, rtt: Nanos) -> AckFeedback {
        AckFeedback::rtt_only(now, rtt, Bytes::new(1000))
    }

    #[test]
    fn starts_at_line_rate() {
        let t = timely();
        assert_eq!(t.rate(), 100e9);
        assert!(t.limits().window_bytes.is_infinite());
        assert_eq!(t.name(), "Timely");
    }

    #[test]
    fn low_rtt_increases_additively() {
        let mut t = timely();
        t.rate = 10e9;
        let mut now = Nanos::from_ns(0);
        for _ in 0..4 {
            now += Nanos::from_ns(1000);
            t.on_ack(&ack(now, Nanos::from_ns(4_500))); // below T_low = 6 us
        }
        // 4 increments of delta (50 Mbps) before the HAI streak engages.
        assert!((t.rate() - (10e9 + 4.0 * 50e6)).abs() < 1.0, "{}", t.rate());
    }

    #[test]
    fn high_rtt_decreases_multiplicatively() {
        let mut t = timely();
        t.last_rtt = BASE;
        // 28 us >> T_high = 14 us: rate ×= 1 − 0.8·(1 − 14/28) = 0.6.
        t.on_ack(&ack(Nanos::from_ns(100_000), Nanos::from_ns(28_000)));
        assert!((t.rate() - 60e9).abs() < 1e6, "{}", t.rate());
    }

    #[test]
    fn decrease_gated_once_per_min_rtt() {
        let mut t = timely();
        t.on_ack(&ack(Nanos::from_ns(100_000), Nanos::from_ns(28_000)));
        let after_first = t.rate();
        // Same congestion, 1 us later (inside one min-RTT): no change.
        t.on_ack(&ack(Nanos::from_ns(101_000), Nanos::from_ns(28_000)));
        assert_eq!(t.rate(), after_first);
        // After a full min-RTT: decreases again.
        t.on_ack(&ack(Nanos::from_ns(104_100), Nanos::from_ns(28_000)));
        assert!(t.rate() < after_first);
    }

    #[test]
    fn negative_gradient_in_band_increases() {
        let mut t = timely();
        t.rate = 10e9;
        let mut now = Nanos::from_ns(0);
        // RTTs in (T_low, T_high) but falling: gradient < 0.
        for (i, rtt_us) in [9.0f64, 8.5, 8.0, 7.5, 7.0].iter().enumerate() {
            now += Nanos::from_ns(1000 * (i as u64 + 1));
            t.on_ack(&ack(now, Nanos::from_ns_f64(*rtt_us * 1000.0)));
        }
        assert!(t.gradient() < 0.0);
        assert!(t.rate() > 10e9);
    }

    #[test]
    fn positive_gradient_in_band_decreases() {
        let mut t = timely();
        t.last_rtt = BASE;
        let mut now = Nanos::from_ns(0);
        // Rising RTTs inside the band.
        for rtt_us in [7.0f64, 8.0, 9.0, 10.0, 11.0] {
            now += Nanos::from_ns(10_000);
            t.on_ack(&ack(now, Nanos::from_ns_f64(rtt_us * 1000.0)));
        }
        assert!(t.gradient() > 0.0);
        assert!(t.rate() < 100e9);
    }

    #[test]
    fn hai_kicks_in_after_streak() {
        let mut t = timely();
        t.rate = 10e9;
        let mut now = Nanos::from_ns(0);
        let mut increments = Vec::new();
        for _ in 0..10 {
            now += Nanos::from_ns(1000);
            let before = t.rate();
            t.on_ack(&ack(now, Nanos::from_ns(4_500)));
            increments.push(t.rate() - before);
        }
        // First increments are delta; after the streak they are 5x delta.
        assert!((increments[0] - 50e6).abs() < 1.0);
        assert!((increments[9] - 250e6).abs() < 1.0, "{:?}", increments);
    }

    #[test]
    fn congestion_resets_hai_streak() {
        let mut t = timely();
        t.rate = 10e9;
        t.last_rtt = BASE;
        let mut now = Nanos::from_ns(0);
        for _ in 0..8 {
            now += Nanos::from_ns(1000);
            t.on_ack(&ack(now, Nanos::from_ns(4_500)));
        }
        assert!(t.good_events >= 5);
        now += Nanos::from_ns(100_000);
        t.on_ack(&ack(now, Nanos::from_ns(30_000)));
        assert_eq!(t.good_events, 0);
    }

    #[test]
    fn rate_clamped_to_floor_and_line() {
        let mut t = timely();
        t.last_rtt = BASE;
        let mut now = Nanos::from_ns(0);
        for _ in 0..200 {
            now += Nanos::from_ns(100_000);
            t.on_ack(&ack(now, Nanos::from_ns(500_000)));
        }
        assert!(t.rate() >= t.cfg.min_rate.as_f64());
        for _ in 0..1_000_000 {
            now += Nanos::from_ns(1000);
            t.on_ack(&ack(now, Nanos::from_ns(4_100)));
            if t.rate() >= 100e9 {
                break;
            }
        }
        assert!(t.rate() <= 100e9);
    }

    #[test]
    fn vai_sf_variant_constructs_and_mints() {
        let mut t = Timely::new(TimelyConfig::with_vai_sf(BASE));
        assert_eq!(t.name(), "Timely VAI SF");
        t.last_rtt = BASE;
        let mut now = Nanos::from_ns(0);
        // Sustained 25 us delays, well above T_high + 4 us.
        for _ in 0..100 {
            now += Nanos::from_ns(4_000);
            t.on_ack(&ack(now, Nanos::from_ns(25_000)));
        }
        assert!(
            t.vai
                .as_ref()
                .expect("VaiSf variant carries a VAI instance")
                .bank()
                > 0.0
        );
    }

    #[test]
    fn sf_gates_decreases_by_ack_count() {
        let mut t = Timely::new(TimelyConfig {
            sf: Some(SfConfig {
                acks_per_decrease: 4,
            }),
            ..TimelyConfig::default_100g(BASE)
        });
        t.last_rtt = BASE;
        let mut now = Nanos::from_ns(0);
        let mut decreases = 0;
        let mut last = t.rate();
        for _ in 0..12 {
            now += Nanos::from_ns(100);
            t.on_ack(&ack(now, Nanos::from_ns(28_000)));
            if t.rate() < last {
                decreases += 1;
                last = t.rate();
            }
        }
        assert_eq!(decreases, 3, "12 ACKs at s=4 must decrease exactly 3x");
    }
}
