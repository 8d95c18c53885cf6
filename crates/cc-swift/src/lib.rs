//! `cc-swift` — Swift: delay-based datacenter congestion control (Kumar et
//! al., SIGCOMM 2020), plus the fairness paper's modifications.
//!
//! Swift compares each ACK's measured round-trip delay against a *target
//! delay* and reacts:
//!
//! * `delay < target` → additive increase (`ai/cwnd` per ACK, i.e. ~`ai`
//!   per RTT), and
//! * `delay ≥ target` → multiplicative decrease by
//!   `mdf = max(1 − β·(delay−target)/delay, max_mdf)` — Equation 1 of the
//!   fairness paper — at most once per round-trip time.
//!
//! The target is not fixed: **topology-based scaling** adds a per-hop term
//! and **flow-based scaling (FBS)** raises the target for flows with small
//! windows (Swift's own fairness aid, which the paper shows is
//! insufficient for long-flow tails).
//!
//! # The fairness paper's modifications (Sections III-D and V)
//!
//! * flows start at line rate (RDMA convention);
//! * a **reference window** (borrowed from HPCC) so per-ACK decreases do
//!   not compound within an update period — required for Sampling
//!   Frequency;
//! * optionally **always-AI**: an additive increase applied on every
//!   update, even decreases, so Variable-AI tokens are always spent;
//! * the "Swift VAI SF" variant disables FBS (VAI + SF replace it) which
//!   also lowers the tolerated queueing delay;
//! * "Swift 1Gbps" (high AI) and "Swift Probabilistic" baselines mirror
//!   the HPCC ones.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use dcsim::{BitRate, DetRng, Nanos};
use faircc::{
    AckFeedback, CcMode, CcSnapshot, CongestionControl, MetricsRegistry, ProbabilisticGate,
    SamplingFrequency, SenderLimits, SfConfig, VaiConfig, VariableAi,
};

/// Flow-based scaling parameters (Swift §4.3).
#[derive(Debug, Clone, Copy)]
pub struct FbsConfig {
    /// Window (packets) above which no scaling applies (`fs_max_cwnd`;
    /// the paper uses 100 on the fat-tree, 50 on the incast star).
    pub max_cwnd: f64,
    /// Window floor for scaling (`fs_min_cwnd`, Swift default 0.1).
    pub min_cwnd: f64,
    /// Maximum extra target delay the scaling may add (`fs_range`).
    pub range: Nanos,
}

impl FbsConfig {
    /// Swift-paper-style defaults for a given topology scale.
    pub fn with_max_cwnd(max_cwnd: f64) -> Self {
        FbsConfig {
            max_cwnd,
            min_cwnd: 0.1,
            // fs_range: a few microseconds of tolerated extra queueing for
            // tiny windows; we use 5 us, on the order of the base target.
            range: Nanos::from_micros(5),
        }
    }

    /// The FBS additive target term for a window of `cwnd` packets:
    /// `clamp(α/√cwnd + β, 0, range)` with α, β chosen so the term spans
    /// exactly `[0, range]` over `[min_cwnd, max_cwnd]`.
    pub fn term(&self, cwnd: f64) -> Nanos {
        let alpha =
            self.range.as_u64() as f64 / (1.0 / self.min_cwnd.sqrt() - 1.0 / self.max_cwnd.sqrt());
        let beta = -alpha / self.max_cwnd.sqrt();
        let cwnd = cwnd.max(self.min_cwnd);
        let raw = alpha / cwnd.sqrt() + beta;
        Nanos::from_ns_f64(raw.clamp(0.0, self.range.as_u64() as f64))
    }
}

/// Hyper additive increase, borrowed from Timely (Mittal et al.,
/// SIGCOMM 2015) — the extension the fairness paper suggests in its
/// evaluation: "Swift may benefit from a hyper additive increase setting
/// like in Timely, which can help grab available bandwidth."
///
/// After `consecutive_needed` whole RTTs without any congestion signal,
/// the additive increase is multiplied by `1 + step · extra_rtts`, capped
/// at `max_multiplier`. Any congested ACK resets the streak, so HAI only
/// accelerates recovery into genuinely idle bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct HyperAiConfig {
    /// Uncongested RTTs required before HAI engages (Timely uses 5).
    pub consecutive_needed: u32,
    /// AI multiplier growth per additional uncongested RTT.
    pub step: f64,
    /// Upper bound on the AI multiplier.
    pub max_multiplier: f64,
}

impl HyperAiConfig {
    /// Timely-flavoured defaults.
    pub fn timely_default() -> Self {
        HyperAiConfig {
            consecutive_needed: 5,
            step: 1.0,
            max_multiplier: 20.0,
        }
    }

    /// The AI multiplier for a streak of `consecutive` uncongested RTTs.
    pub fn multiplier(&self, consecutive: u32) -> f64 {
        if consecutive < self.consecutive_needed {
            1.0
        } else {
            (1.0 + self.step * (consecutive - self.consecutive_needed + 1) as f64)
                .min(self.max_multiplier)
        }
    }
}

/// Tunables for one Swift flow.
#[derive(Debug, Clone)]
pub struct SwiftConfig {
    /// Base (uncongested) round-trip time, used for pacing.
    pub base_rtt: Nanos,
    /// Sender NIC line rate (window cap = line-rate BDP).
    pub line_rate: BitRate,
    /// MTU in bytes (windows are counted in packets of this size).
    pub mtu: u32,
    /// Base target delay (paper: 5 µs).
    pub base_target: Nanos,
    /// Per-switch-hop target increment (topology scaling; paper: 2 µs).
    pub hop_scale: Nanos,
    /// Multiplicative-decrease sensitivity β (paper: 0.8).
    pub beta: f64,
    /// Floor of the decrease factor (paper: max mdf 0.5 ⇒ factor ≥ 0.5).
    pub max_mdf: f64,
    /// Additive increase in packets per RTT (derived from an AI rate).
    pub ai_pkts: f64,
    /// Flow-based scaling (None in the VAI SF variant).
    pub fbs: Option<FbsConfig>,
    /// Apply the additive increase on decreases too (paper's HPCC-inspired
    /// Swift change; enabled in the VAI SF variant).
    pub always_ai: bool,
    /// Variable AI (None = stock Swift).
    pub vai: Option<VaiConfig>,
    /// Sampling Frequency (None = per-RTT decreases).
    pub sf: Option<SfConfig>,
    /// Probabilistic-feedback baseline.
    pub probabilistic: bool,
    /// Timely-style hyper additive increase (None = stock Swift).
    pub hyper_ai: Option<HyperAiConfig>,
}

/// Additive increase in packets/RTT for an AI *rate*.
pub fn ai_pkts(ai_rate: BitRate, base_rtt: Nanos, mtu: u32) -> f64 {
    ai_rate.as_f64() * base_rtt.as_secs_f64() / 8.0 / mtu as f64
}

impl SwiftConfig {
    /// The paper's Swift defaults: AI = 50 Mbps, β = 0.8, max mdf 0.5,
    /// base target 5 µs + 2 µs/hop, FBS with the given max scaling window.
    pub fn paper_default(base_rtt: Nanos, line_rate: BitRate, fbs_max_cwnd: f64) -> Self {
        SwiftConfig {
            base_rtt,
            line_rate,
            mtu: 1000,
            base_target: Nanos::from_micros(5),
            hop_scale: Nanos::from_micros(2),
            beta: 0.8,
            max_mdf: 0.5,
            ai_pkts: ai_pkts(BitRate::from_mbps(50), base_rtt, 1000),
            fbs: Some(FbsConfig::with_max_cwnd(fbs_max_cwnd)),
            always_ai: false,
            vai: None,
            sf: None,
            probabilistic: false,
            hyper_ai: None,
        }
    }

    /// The "Swift 1Gbps" high-AI baseline.
    pub fn high_ai(base_rtt: Nanos, line_rate: BitRate, fbs_max_cwnd: f64) -> Self {
        SwiftConfig {
            ai_pkts: ai_pkts(BitRate::from_gbps(1), base_rtt, 1000),
            ..Self::paper_default(base_rtt, line_rate, fbs_max_cwnd)
        }
    }

    /// The "Swift Probabilistic" baseline.
    pub fn probabilistic(base_rtt: Nanos, line_rate: BitRate, fbs_max_cwnd: f64) -> Self {
        SwiftConfig {
            probabilistic: true,
            ..Self::paper_default(base_rtt, line_rate, fbs_max_cwnd)
        }
    }

    /// The paper's "Swift VAI SF": no FBS, always-AI, Variable AI with one
    /// token per 30 ns of delay and Token_Thresh = target + min-BDP delay
    /// (4 µs at 100 Gbps for 50 KB), Sampling Frequency s = 30.
    pub fn vai_sf(base_rtt: Nanos, line_rate: BitRate, hops: u8) -> Self {
        let base = Self::paper_default(base_rtt, line_rate, 50.0);
        let static_target = base.base_target + base.hop_scale * hops as u64;
        let thresh_ns = static_target.as_u64() as f64 + 4_000.0;
        SwiftConfig {
            fbs: None,
            always_ai: true,
            vai: Some(VaiConfig::swift_default(thresh_ns)),
            sf: Some(SfConfig::paper_default()),
            ..base
        }
    }

    /// Line-rate window in packets.
    pub fn max_cwnd_pkts(&self) -> f64 {
        self.line_rate.bdp(self.base_rtt).as_f64() / self.mtu as f64
    }
}

/// One flow's Swift state.
pub struct Swift {
    cfg: SwiftConfig,
    name: String,
    /// Current congestion window, in packets (may be fractional).
    cwnd: f64,
    /// Reference window for the paper's non-compounding decrease scheme.
    ref_cwnd: f64,
    /// Time of the last committed decrease (per-RTT gating).
    last_decrease: Nanos,
    /// Most recent RTT measurement (the per-RTT gate interval).
    last_rtt: Nanos,
    /// Time the current RTT accounting period started (VAI boundary).
    rtt_mark: Nanos,
    /// Consecutive fully-uncongested RTTs (hyper-AI streak).
    clear_rtts: u32,
    /// Whether any ACK this RTT reported delay >= target.
    congested_this_rtt: bool,
    vai: Option<VariableAi>,
    sf: Option<SamplingFrequency>,
    prob: Option<ProbabilisticGate>,
}

impl Swift {
    /// Create a flow starting at line rate (paper: "we start flows at line
    /// rate in Swift to fit with other RDMA congestion control protocols").
    pub fn new(cfg: SwiftConfig, rng: DetRng) -> Self {
        let cwnd0 = cfg.max_cwnd_pkts();
        let vai = cfg.vai.map(VariableAi::new);
        let sf = cfg.sf.map(SamplingFrequency::new);
        let prob = cfg
            .probabilistic
            .then(|| ProbabilisticGate::new(cwnd0, rng));
        let name = match (&vai, &sf, &prob) {
            (Some(_), Some(_), _) => "Swift VAI SF",
            (Some(_), None, _) => "Swift VAI",
            (None, Some(_), _) => "Swift SF",
            (None, None, Some(_)) => "Swift Probabilistic",
            (None, None, None) => "Swift",
        }
        .to_string();
        Swift {
            cfg,
            name,
            cwnd: cwnd0,
            ref_cwnd: cwnd0,
            last_decrease: Nanos::ZERO,
            last_rtt: Nanos::ZERO,
            rtt_mark: Nanos::ZERO,
            clear_rtts: 0,
            congested_this_rtt: false,
            vai,
            sf,
            prob,
        }
    }

    /// The current hyper-AI streak length (for tests/instrumentation).
    pub fn clear_rtts(&self) -> u32 {
        self.clear_rtts
    }

    /// Current window, in packets.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Reference window, in packets.
    pub fn ref_cwnd(&self) -> f64 {
        self.ref_cwnd
    }

    /// The target delay for the current state: base + per-hop topology
    /// scaling + flow-based scaling.
    pub fn target_delay(&self, hops: u8) -> Nanos {
        let mut t = self.cfg.base_target + self.cfg.hop_scale * hops as u64;
        if let Some(fbs) = &self.cfg.fbs {
            t += fbs.term(self.cwnd);
        }
        t
    }

    fn effective_ai(&mut self, spend: bool) -> f64 {
        match &mut self.vai {
            Some(vai) => self.cfg.ai_pkts * vai.ai_multiplier(spend),
            None => self.cfg.ai_pkts,
        }
    }

    fn clamp(&mut self) {
        let max = self.cfg.max_cwnd_pkts();
        self.cwnd = self.cwnd.clamp(0.001, max);
        self.ref_cwnd = self.ref_cwnd.clamp(0.001, max);
    }
}

impl CongestionControl for Swift {
    fn on_ack(&mut self, fb: &AckFeedback) {
        let delay = fb.rtt;
        let target = self.target_delay(fb.hops);
        let congested = delay >= target;

        // VAI: congestion measure is the raw delay; tokens mint when it
        // exceeds target + BDP-delay (encoded in the config threshold).
        if let Some(vai) = &mut self.vai {
            vai.observe(delay.as_u64() as f64, congested);
        }
        // RTT accounting boundary for VAI and hyper-AI (time-based: one
        // measured RTT).
        self.congested_this_rtt |= congested;
        let rtt_boundary =
            fb.now.saturating_sub(self.rtt_mark) >= self.last_rtt && self.last_rtt > Nanos::ZERO;
        if rtt_boundary {
            self.rtt_mark = fb.now;
            if let Some(vai) = &mut self.vai {
                vai.on_rtt_end();
            }
            if self.congested_this_rtt {
                self.clear_rtts = 0;
            } else {
                self.clear_rtts = self.clear_rtts.saturating_add(1);
            }
            self.congested_this_rtt = false;
        }

        let sf_boundary = self.sf.as_mut().map(|sf| sf.on_ack()).unwrap_or(false);
        let acked_pkts = (fb.acked.as_f64() / self.cfg.mtu as f64).max(1.0);

        if !congested {
            // Additive increase, normalized so it sums to ~ai per RTT;
            // scaled up by the Timely-style hyper-AI multiplier when the
            // path has been congestion-free for several RTTs.
            let hai = self
                .cfg
                .hyper_ai
                .map(|h| h.multiplier(self.clear_rtts))
                .unwrap_or(1.0);
            let ai = self.effective_ai(rtt_boundary) * hai;
            if self.cwnd >= 1.0 {
                self.cwnd += ai * acked_pkts / self.cwnd;
            } else {
                self.cwnd += ai * acked_pkts;
            }
            self.ref_cwnd = self.cwnd;
        } else {
            // Multiplicative decrease from the *reference* window
            // (Equation 1), committed per RTT (stock) or per sampling
            // period (SF), with per-ACK non-compounding adjustments in
            // between when the reference scheme is active.
            let mdf = (1.0
                - self.cfg.beta * (delay.as_u64() as f64 - target.as_u64() as f64)
                    / delay.as_u64() as f64)
                .max(self.cfg.max_mdf);
            let commit = if self.sf.is_some() {
                sf_boundary
            } else {
                fb.now.saturating_sub(self.last_decrease) >= self.last_rtt
            };
            if commit {
                let use_it = match &mut self.prob {
                    Some(gate) => {
                        let r = self.ref_cwnd;
                        gate.should_use(r)
                    }
                    None => true,
                };
                if use_it {
                    let ai = if self.cfg.always_ai {
                        self.effective_ai(true)
                    } else {
                        0.0
                    };
                    self.cwnd = self.ref_cwnd * mdf + ai;
                    self.ref_cwnd = self.cwnd;
                    self.last_decrease = fb.now;
                }
            } else if self.sf.is_some() {
                // Per-ACK adjustment from the unchanged reference: several
                // congested ACKs inside one period do not compound.
                self.cwnd = self.ref_cwnd * mdf;
            }
        }
        // The per-RTT gate uses the *previous* RTT estimate, so a single
        // inflated outlier cannot block its own decrease.
        self.last_rtt = fb.rtt;
        self.clamp();
    }

    fn on_rto(&mut self, now: Nanos) {
        // Retransmission timeout: apply Swift's maximum multiplicative
        // decrease from the reference window and reset the hyper-AI
        // clear-path streak — the path is anything but clear.
        self.cwnd = self.ref_cwnd * self.cfg.max_mdf;
        self.ref_cwnd = self.cwnd;
        self.last_decrease = now;
        self.clear_rtts = 0;
        self.congested_this_rtt = true;
        self.clamp();
    }

    fn limits(&self) -> SenderLimits {
        SenderLimits::windowed(self.cwnd * self.cfg.mtu as f64, self.cfg.base_rtt)
    }

    fn mode(&self) -> CcMode {
        CcMode::Window
    }

    fn name(&self) -> &str {
        &self.name
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
        reg.histogram_record_f64("cc.swift.cwnd_pkts", self.cwnd);
        if let Some(vai) = &self.vai {
            reg.histogram_record_f64("cc.swift.vai_bank", vai.bank());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::Bytes;

    const RTT: Nanos = Nanos::from_ns(5_000);
    const LINE: BitRate = BitRate::from_bps(100_000_000_000);

    fn swift(cfg: SwiftConfig) -> Swift {
        Swift::new(cfg, DetRng::new(3))
    }

    fn ack(now: Nanos, rtt: Nanos) -> AckFeedback {
        AckFeedback {
            now,
            rtt,
            ecn: false,
            int: Default::default(),
            acked: Bytes::new(1000),
            hops: 1,
        }
    }

    #[test]
    fn starts_at_line_rate() {
        let s = swift(SwiftConfig::paper_default(RTT, LINE, 50.0));
        // 100 Gbps * 5 us = 62.5 KB = 62.5 packets.
        assert!((s.cwnd() - 62.5).abs() < 1e-9);
        assert_eq!(s.limits().pacing, LINE);
    }

    #[test]
    fn ai_rate_conversion() {
        // 50 Mbps * 5 us / 8 = 31.25 B = 0.03125 packets.
        assert!((ai_pkts(BitRate::from_mbps(50), RTT, 1000) - 0.03125).abs() < 1e-12);
    }

    #[test]
    fn low_delay_grows_additively() {
        let mut s = swift(SwiftConfig::paper_default(RTT, LINE, 50.0));
        s.cwnd = 10.0;
        s.ref_cwnd = 10.0;
        let before = s.cwnd();
        let mut now = Nanos::from_ns(0);
        // 10 ACKs (one cwnd's worth = one RTT of ACKs) below target.
        for _ in 0..10 {
            now += Nanos::from_ns(500);
            s.on_ack(&ack(now, Nanos::from_ns(4_000))); // below 5+2 us target
        }
        let growth = s.cwnd() - before;
        // ~ai per RTT: 10 acks * ai/cwnd each ≈ 0.03 packets total.
        assert!(growth > 0.0);
        assert!(
            (growth - s.cfg.ai_pkts).abs() < s.cfg.ai_pkts * 0.2,
            "growth {growth} vs ai {}",
            s.cfg.ai_pkts
        );
    }

    #[test]
    fn sub_unity_window_grows_without_normalization() {
        let mut s = swift(SwiftConfig::paper_default(RTT, LINE, 50.0));
        s.cwnd = 0.5;
        s.ref_cwnd = 0.5;
        s.on_ack(&ack(Nanos::from_ns(1000), Nanos::from_ns(4_000)));
        assert!((s.cwnd() - 0.5 - s.cfg.ai_pkts).abs() < 1e-9);
    }

    #[test]
    fn decrease_respects_mdf_floor() {
        let mut s = swift(SwiftConfig::paper_default(RTT, LINE, 50.0));
        s.cwnd = 40.0;
        s.ref_cwnd = 40.0;
        s.last_rtt = RTT;
        // Enormous delay: raw mdf would be ~1-0.8 = 0.2, floor is 0.5.
        s.on_ack(&ack(Nanos::from_ns(100_000), Nanos::from_ns(500_000)));
        assert!((s.cwnd() - 20.0).abs() < 1.0, "cwnd {}", s.cwnd());
    }

    #[test]
    fn decrease_scales_with_congestion_severity() {
        // Mild overshoot: delay 8 us vs 7 us target -> mdf = 1-0.8*(1/8) = 0.9.
        let mut s = swift(SwiftConfig {
            fbs: None,
            ..SwiftConfig::paper_default(RTT, LINE, 50.0)
        });
        s.cwnd = 40.0;
        s.ref_cwnd = 40.0;
        s.last_rtt = RTT;
        s.on_ack(&ack(Nanos::from_ns(100_000), Nanos::from_ns(8_000)));
        assert!((s.cwnd() - 36.0).abs() < 0.01, "cwnd {}", s.cwnd());
    }

    #[test]
    fn only_one_decrease_per_rtt() {
        let mut s = swift(SwiftConfig {
            fbs: None,
            ..SwiftConfig::paper_default(RTT, LINE, 50.0)
        });
        s.cwnd = 40.0;
        s.ref_cwnd = 40.0;
        s.last_rtt = RTT;
        s.on_ack(&ack(Nanos::from_ns(100_000), Nanos::from_ns(8_000)));
        let after_first = s.cwnd();
        // More congested ACKs inside the same RTT: no further decrease.
        for i in 1..5 {
            s.on_ack(&ack(
                Nanos::from_ns(100_000 + i * 500),
                Nanos::from_ns(8_000),
            ));
        }
        assert_eq!(s.cwnd(), after_first);
        // After a full RTT, the next congested ACK decreases again.
        s.on_ack(&ack(
            Nanos::from_ns(100_000) + RTT + Nanos::from_ns(8_000),
            Nanos::from_ns(8_000),
        ));
        assert!(s.cwnd() < after_first);
    }

    #[test]
    fn sf_decreases_every_s_acks_from_reference() {
        let mut s = swift(SwiftConfig {
            sf: Some(SfConfig {
                acks_per_decrease: 4,
            }),
            fbs: None,
            ..SwiftConfig::paper_default(RTT, LINE, 50.0)
        });
        s.cwnd = 40.0;
        s.ref_cwnd = 40.0;
        s.last_rtt = RTT;
        // delay 14us vs 7us target: mdf = 1-0.8*0.5 = 0.6.
        let mut now = Nanos::from_ns(0);
        let mut commits = 0;
        let mut last_ref = s.ref_cwnd();
        for _ in 0..8 {
            now += Nanos::from_ns(100);
            s.on_ack(&ack(now, Nanos::from_ns(14_000)));
            // Between commits, cwnd is ref*mdf but ref is unchanged.
            if (s.ref_cwnd() - last_ref).abs() > 1e-12 {
                commits += 1;
                last_ref = s.ref_cwnd();
            }
            assert!((s.cwnd() - s.ref_cwnd() * 0.6).abs() < 1e-9 || s.cwnd() == s.ref_cwnd());
        }
        assert_eq!(commits, 2, "8 ACKs at s=4 must commit exactly twice");
        // Two commits of 0.6 each: 40 * 0.36 = 14.4.
        assert!((s.ref_cwnd() - 14.4).abs() < 1e-6, "{}", s.ref_cwnd());
    }

    #[test]
    fn fbs_raises_target_for_small_windows() {
        let s = swift(SwiftConfig::paper_default(RTT, LINE, 50.0));
        let mut small = swift(SwiftConfig::paper_default(RTT, LINE, 50.0));
        small.cwnd = 0.5;
        let t_big = s.target_delay(1);
        let t_small = small.target_delay(1);
        assert!(
            t_small > t_big,
            "small window target {t_small} should exceed {t_big}"
        );
        // At max_cwnd the term is ~zero: target = base + hop scale.
        assert_eq!(t_big, Nanos::from_micros(5 + 2));
    }

    #[test]
    fn fbs_term_monotone_and_bounded() {
        let fbs = FbsConfig::with_max_cwnd(50.0);
        let mut last = Nanos::MAX;
        for c in [0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0] {
            let t = fbs.term(c);
            assert!(t <= fbs.range);
            assert!(t <= last, "FBS term must not increase with cwnd");
            last = t;
        }
        assert_eq!(fbs.term(50.0), Nanos::from_ns(0));
        assert_eq!(fbs.term(0.1), fbs.range);
    }

    #[test]
    fn topology_scaling_adds_per_hop() {
        let s = swift(SwiftConfig {
            fbs: None,
            ..SwiftConfig::paper_default(RTT, LINE, 50.0)
        });
        assert_eq!(s.target_delay(1), Nanos::from_micros(7));
        assert_eq!(s.target_delay(5), Nanos::from_micros(15));
    }

    #[test]
    fn always_ai_adds_on_decrease() {
        let mut with = swift(SwiftConfig {
            always_ai: true,
            fbs: None,
            ai_pkts: 2.0, // exaggerate for visibility
            ..SwiftConfig::paper_default(RTT, LINE, 50.0)
        });
        let mut without = swift(SwiftConfig {
            fbs: None,
            ai_pkts: 2.0,
            ..SwiftConfig::paper_default(RTT, LINE, 50.0)
        });
        for s in [&mut with, &mut without] {
            s.cwnd = 40.0;
            s.ref_cwnd = 40.0;
            s.last_rtt = RTT;
        }
        with.on_ack(&ack(Nanos::from_ns(100_000), Nanos::from_ns(8_000)));
        without.on_ack(&ack(Nanos::from_ns(100_000), Nanos::from_ns(8_000)));
        assert!((with.cwnd() - (without.cwnd() + 2.0)).abs() < 1e-9);
    }

    #[test]
    fn vai_sf_variant_mints_tokens_under_heavy_delay() {
        let mut s = swift(SwiftConfig::vai_sf(RTT, LINE, 1));
        s.last_rtt = RTT;
        let mut now = Nanos::from_ns(0);
        // Sustained 20 us delays (well past target 7us + 4us BDP delay).
        for _ in 0..50 {
            now += Nanos::from_ns(5_000);
            s.on_ack(&ack(now, Nanos::from_ns(20_000)));
        }
        assert!(
            s.vai
                .as_ref()
                .expect("VaiSf variant carries a VAI instance")
                .bank()
                > 0.0
        );
    }

    #[test]
    fn cwnd_clamped_to_line_rate() {
        let mut s = swift(SwiftConfig {
            ai_pkts: 1000.0,
            fbs: None,
            ..SwiftConfig::paper_default(RTT, LINE, 50.0)
        });
        for i in 0..100 {
            s.on_ack(&ack(Nanos::from_ns(i * 100), Nanos::from_ns(1_000)));
            assert!(s.cwnd() <= s.cfg.max_cwnd_pkts() + 1e-9);
        }
    }

    #[test]
    fn hyper_ai_multiplier_schedule() {
        let h = HyperAiConfig::timely_default();
        assert_eq!(h.multiplier(0), 1.0);
        assert_eq!(h.multiplier(4), 1.0);
        assert_eq!(h.multiplier(5), 2.0);
        assert_eq!(h.multiplier(7), 4.0);
        assert_eq!(h.multiplier(1000), 20.0); // capped
    }

    #[test]
    fn hyper_ai_accelerates_after_quiet_rtts() {
        let mk = |hyper| {
            let mut s = swift(SwiftConfig {
                fbs: None,
                hyper_ai: hyper,
                ..SwiftConfig::paper_default(RTT, LINE, 50.0)
            });
            s.cwnd = 5.0;
            s.ref_cwnd = 5.0;
            s.last_rtt = RTT;
            s
        };
        let mut stock = mk(None);
        let mut hai = mk(Some(HyperAiConfig::timely_default()));
        // 40 quiet RTTs' worth of ACKs (5 ACKs each, cwnd 5).
        let mut now = Nanos::from_ns(0);
        for _ in 0..40 {
            for _ in 0..5 {
                now += Nanos::from_ns(1_000);
                stock.on_ack(&ack(now, Nanos::from_ns(4_000)));
                hai.on_ack(&ack(now, Nanos::from_ns(4_000)));
            }
        }
        assert!(hai.clear_rtts() > 5, "streak {}", hai.clear_rtts());
        assert!(
            hai.cwnd() > stock.cwnd() * 1.5,
            "HAI cwnd {} should outgrow stock {}",
            hai.cwnd(),
            stock.cwnd()
        );
    }

    #[test]
    fn hyper_ai_streak_resets_on_congestion() {
        let mut s = swift(SwiftConfig {
            fbs: None,
            hyper_ai: Some(HyperAiConfig::timely_default()),
            ..SwiftConfig::paper_default(RTT, LINE, 50.0)
        });
        s.cwnd = 5.0;
        s.ref_cwnd = 5.0;
        s.last_rtt = RTT;
        let mut now = Nanos::from_ns(0);
        for _ in 0..40 {
            now += Nanos::from_ns(1_000);
            s.on_ack(&ack(now, Nanos::from_ns(4_000)));
        }
        assert!(s.clear_rtts() > 0);
        // One congested ACK inside the next RTT kills the streak at the
        // next boundary. (The congested ACK inflates the RTT estimate to
        // 20 us, so the next boundary needs a 20 us gap.)
        now += Nanos::from_ns(1_000);
        s.on_ack(&ack(now, Nanos::from_ns(20_000)));
        now += Nanos::from_ns(25_000);
        s.on_ack(&ack(now, Nanos::from_ns(4_000)));
        assert_eq!(s.clear_rtts(), 0);
    }

    mod properties {
        use super::*;
        use dcsim::DetRng;

        /// Under arbitrary delay sequences the window stays within
        /// [floor, line-rate BDP], never NaN, and the target delay is
        /// monotone non-increasing in cwnd (FBS property).
        #[test]
        fn prop_cwnd_bounded() {
            for case in 0..64u64 {
                let mut rng = DetRng::new(0x5u64 * 0x1000 + case);
                let n = 1 + rng.below(299);
                let mut s = swift(SwiftConfig::vai_sf(RTT, LINE, 1));
                let mut now = Nanos::from_ns(0);
                for _ in 0..n {
                    let d = 1_000 + rng.below(199_000);
                    now += Nanos::from_ns(700);
                    s.on_ack(&ack(now, Nanos::from_ns(d)));
                    assert!(s.cwnd().is_finite(), "case {case}");
                    assert!(s.cwnd() >= 0.001 - 1e-12, "case {case}");
                    assert!(s.cwnd() <= s.cfg.max_cwnd_pkts() + 1e-9, "case {case}");
                    assert!(s.limits().pacing > BitRate::ZERO, "case {case}");
                }
            }
        }

        /// A congested decrease never cuts below the mdf floor in one
        /// step: cwnd_after >= cwnd_before * max_mdf (modulo the
        /// always-AI bonus, which only adds).
        #[test]
        fn prop_single_decrease_respects_floor() {
            for case in 0..64u64 {
                let mut rng = DetRng::new(0xf100 + case);
                let cwnd0 = 1.0 + 59.0 * rng.f64();
                let delay_us = 8 + rng.below(492);
                let mut s = swift(SwiftConfig {
                    fbs: None,
                    ..SwiftConfig::paper_default(RTT, LINE, 50.0)
                });
                s.cwnd = cwnd0;
                s.ref_cwnd = cwnd0;
                s.last_rtt = RTT;
                s.on_ack(&ack(
                    Nanos::from_ns(1_000_000),
                    Nanos::from_micros(delay_us),
                ));
                assert!(
                    s.cwnd() >= cwnd0 * s.cfg.max_mdf - 1e-9,
                    "case {case}: cwnd {} below floor of {}",
                    s.cwnd(),
                    cwnd0 * s.cfg.max_mdf
                );
            }
        }
    }

    #[test]
    fn names_follow_variant() {
        assert_eq!(
            swift(SwiftConfig::paper_default(RTT, LINE, 50.0)).name(),
            "Swift"
        );
        assert_eq!(
            swift(SwiftConfig::probabilistic(RTT, LINE, 50.0)).name(),
            "Swift Probabilistic"
        );
        assert_eq!(
            swift(SwiftConfig::vai_sf(RTT, LINE, 1)).name(),
            "Swift VAI SF"
        );
    }
}
