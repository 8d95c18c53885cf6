//! Deterministic fault injection: per-link loss models, scheduled link
//! flaps with failover rerouting, and exponential RTO backoff.
//!
//! All fault randomness draws from a dedicated [`DetRng`] stream
//! ([`dcsim::Stream::Fault`]) so enabling faults never perturbs the RED
//! stream or the workload — and an empty [`FaultPlan`] performs zero
//! draws, keeping fault-free runs bit-identical to runs built before
//! this module existed (the same zero-cost-when-off contract as the
//! trace layer).

use dcsim::{DetRng, Nanos};

use crate::ids::NodeId;

/// Per-link, per-direction packet loss model, applied to each frame as
/// it begins transmission (the wire is held busy for the serialization
/// time; the frame simply never arrives).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Independent (Bernoulli) loss with probability `p` per packet —
    /// the classic uniform bit-error-rate abstraction.
    Uniform {
        /// Per-packet loss probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott bursty loss: the channel wanders
    /// between a good and a bad state with per-packet transition
    /// probabilities, and each state has its own loss probability.
    GilbertElliott {
        /// P(good → bad), evaluated once per packet while good.
        p_enter_bad: f64,
        /// P(bad → good), evaluated once per packet while bad.
        p_exit_bad: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Uniform Bernoulli loss at rate `p`.
    pub fn uniform(p: f64) -> Self {
        LossModel::Uniform { p }
    }

    /// A bursty Gilbert–Elliott channel that is clean while good and
    /// loses `loss_bad` of packets while bad.
    pub fn bursty(p_enter_bad: f64, p_exit_bad: f64, loss_bad: f64) -> Self {
        LossModel::GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            loss_good: 0.0,
            loss_bad,
        }
    }

    /// The long-run average loss rate of the model (stationary
    /// distribution for Gilbert–Elliott).
    pub fn mean_loss(&self) -> f64 {
        match *self {
            LossModel::Uniform { p } => p,
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                let denom = p_enter_bad + p_exit_bad;
                if denom <= 0.0 {
                    loss_good
                } else {
                    let pi_bad = p_enter_bad / denom;
                    loss_good * (1.0 - pi_bad) + loss_bad * pi_bad
                }
            }
        }
    }
}

/// Live loss-channel state for one link direction.
#[derive(Debug, Clone, Copy)]
pub struct LossState {
    model: LossModel,
    in_bad: bool,
}

impl LossState {
    /// A fresh channel, starting in the good state.
    pub fn new(model: LossModel) -> Self {
        LossState {
            model,
            in_bad: false,
        }
    }

    /// Advance the channel by one packet and decide whether that packet
    /// is lost. Draws come only from the caller-supplied fault stream.
    pub fn lose(&mut self, rng: &mut DetRng) -> bool {
        match self.model {
            LossModel::Uniform { p } => rng.chance(p),
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                if self.in_bad {
                    if rng.chance(p_exit_bad) {
                        self.in_bad = false;
                    }
                } else if rng.chance(p_enter_bad) {
                    self.in_bad = true;
                }
                rng.chance(if self.in_bad { loss_bad } else { loss_good })
            }
        }
    }

    /// Whether the channel is currently in the bad (bursty-loss) state.
    pub fn in_bad(&self) -> bool {
        self.in_bad
    }
}

/// A deterministic schedule of link-down/link-up transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapSchedule {
    /// When the link first goes down.
    pub first_down: Nanos,
    /// How long each outage lasts ([`Nanos::MAX`] = stays down).
    pub down_for: Nanos,
    /// Down-to-down interval for repeated flaps (ignored when
    /// `cycles == 1`). Must exceed `down_for` to leave up-time.
    pub period: Nanos,
    /// Number of outages (≥ 1).
    pub cycles: u32,
}

impl FlapSchedule {
    /// A single outage of `down_for` starting at `at`.
    pub fn once(at: Nanos, down_for: Nanos) -> Self {
        FlapSchedule {
            first_down: at,
            down_for,
            period: Nanos::MAX,
            cycles: 1,
        }
    }

    /// A permanent cut at `at` (the link never comes back).
    pub fn permanent(at: Nanos) -> Self {
        FlapSchedule::once(at, Nanos::MAX)
    }

    /// `cycles` outages of `down_for`, one every `period`.
    pub fn periodic(first_down: Nanos, down_for: Nanos, period: Nanos, cycles: u32) -> Self {
        assert!(cycles >= 1, "a flap schedule needs at least one outage");
        assert!(
            cycles == 1 || period > down_for,
            "flap period must exceed the outage length"
        );
        FlapSchedule {
            first_down,
            down_for,
            period,
            cycles,
        }
    }

    /// Enumerate the `(time, link_up)` transitions of this schedule, in
    /// chronological order.
    pub fn transitions(&self) -> Vec<(Nanos, bool)> {
        let mut out = Vec::new();
        for k in 0..u64::from(self.cycles.max(1)) {
            let down = self.first_down + self.period * k;
            out.push((down, false));
            let up = down + self.down_for;
            if up < Nanos::MAX {
                out.push((up, true));
            }
        }
        out
    }
}

/// Faults applied to one bidirectional link, identified by its
/// endpoints (both directions are affected symmetrically).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Wire loss model, if any.
    pub loss: Option<LossModel>,
    /// Up/down schedule, if any.
    pub flap: Option<FlapSchedule>,
}

impl LinkFault {
    /// A fault entry for the `a`–`b` link with nothing enabled yet.
    pub fn on(a: NodeId, b: NodeId) -> Self {
        LinkFault {
            a,
            b,
            loss: None,
            flap: None,
        }
    }

    /// Attach a loss model.
    pub fn with_loss(mut self, model: LossModel) -> Self {
        self.loss = Some(model);
        self
    }

    /// Attach a flap schedule.
    pub fn with_flap(mut self, flap: FlapSchedule) -> Self {
        self.flap = Some(flap);
        self
    }
}

/// Exponential retransmission-timeout backoff policy.
///
/// The n-th consecutive timeout of a flow waits
/// `min(base · multiplier^n, cap)`, optionally stretched by a
/// deterministic jitter drawn from the fault stream. The backoff level
/// resets to zero whenever the cumulative ACK advances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtoBackoff {
    /// Per-timeout growth factor (1 = fixed timeout, i.e. the old
    /// `NetConfig::rto` behaviour).
    pub multiplier: u32,
    /// Upper bound on the backed-off timeout.
    pub cap: Nanos,
    /// Jitter fraction in `[0, 1)`: each armed timeout is stretched by
    /// `U[0, jitter_frac)` of itself. `0.0` (the default) draws
    /// nothing from the RNG at all.
    pub jitter_frac: f64,
}

impl Default for RtoBackoff {
    fn default() -> Self {
        RtoBackoff {
            multiplier: 2,
            cap: Nanos::from_millis(10),
            jitter_frac: 0.0,
        }
    }
}

impl RtoBackoff {
    /// A fixed timeout with no growth and no jitter (legacy behaviour).
    pub fn fixed() -> Self {
        RtoBackoff {
            multiplier: 1,
            cap: Nanos::MAX,
            jitter_frac: 0.0,
        }
    }

    /// The timeout for backoff `level` with base timeout `base`,
    /// capped (the cap never shrinks the timeout below `base`).
    pub fn timeout(&self, base: Nanos, level: u32) -> Nanos {
        let factor = u64::from(self.multiplier.max(1))
            .checked_pow(level)
            .unwrap_or(u64::MAX);
        (base * factor).min(self.cap.max(base))
    }

    /// The jitter to add on top of `timeout`. Zero — with zero RNG
    /// draws — when `jitter_frac` is 0.
    pub fn jitter(&self, timeout: Nanos, rng: &mut DetRng) -> Nanos {
        if self.jitter_frac <= 0.0 {
            return Nanos::ZERO;
        }
        let frac = self.jitter_frac.min(1.0) * rng.f64();
        Nanos::from_ns_f64(timeout.as_u64() as f64 * frac)
    }
}

/// The full fault schedule for one run. An empty plan (the default) is
/// free: no draws, no extra events, no per-packet work.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Per-link fault entries.
    pub links: Vec<LinkFault>,
}

impl FaultPlan {
    /// The empty plan (no faults).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Add one link's faults (builder style).
    pub fn link(mut self, fault: LinkFault) -> Self {
        self.links.push(fault);
        self
    }
}

/// Run counters for the fault subsystem, published through the metrics
/// registry and readable after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames destroyed by a wire loss model mid-transmission.
    pub wire_drops: u64,
    /// Frames flushed from a downed port's queue or caught in flight
    /// on a link that went down.
    pub link_down_drops: u64,
    /// Routing recomputations triggered by link state changes.
    pub reroutes: u64,
    /// RTO firings that rewound a sender (across all flows).
    pub rto_fires: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let b = RtoBackoff {
            multiplier: 2,
            cap: Nanos::from_micros(900),
            jitter_frac: 0.0,
        };
        let base = Nanos::from_micros(100);
        assert_eq!(b.timeout(base, 0), Nanos::from_micros(100));
        assert_eq!(b.timeout(base, 1), Nanos::from_micros(200));
        assert_eq!(b.timeout(base, 2), Nanos::from_micros(400));
        assert_eq!(b.timeout(base, 3), Nanos::from_micros(800));
        assert_eq!(b.timeout(base, 4), Nanos::from_micros(900)); // capped
        assert_eq!(b.timeout(base, 63), Nanos::from_micros(900));
    }

    #[test]
    fn cap_never_shrinks_below_base() {
        let b = RtoBackoff {
            multiplier: 2,
            cap: Nanos::from_micros(10),
            jitter_frac: 0.0,
        };
        let base = Nanos::from_micros(100);
        assert_eq!(b.timeout(base, 0), base);
        assert_eq!(b.timeout(base, 5), base);
    }

    #[test]
    fn fixed_policy_matches_legacy_rto() {
        let b = RtoBackoff::fixed();
        let base = Nanos::from_micros(100);
        for level in [0, 1, 7, 31] {
            assert_eq!(b.timeout(base, level), base);
        }
    }

    #[test]
    fn huge_levels_saturate() {
        let b = RtoBackoff {
            multiplier: 4,
            cap: Nanos::MAX,
            jitter_frac: 0.0,
        };
        // 4^40 overflows u64; the timeout must saturate, not wrap.
        assert_eq!(b.timeout(Nanos::from_micros(100), 40), Nanos::MAX);
    }

    #[test]
    fn zero_jitter_draws_nothing() {
        let b = RtoBackoff::default();
        let mut a = DetRng::new(7);
        let mut c = DetRng::new(7);
        assert_eq!(b.jitter(Nanos::from_micros(100), &mut a), Nanos::ZERO);
        // The RNG state is untouched: both generators still agree.
        assert_eq!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn jitter_is_bounded() {
        let b = RtoBackoff {
            jitter_frac: 0.5,
            ..RtoBackoff::default()
        };
        let mut rng = DetRng::new(42);
        let t = Nanos::from_micros(100);
        for _ in 0..100 {
            let j = b.jitter(t, &mut rng);
            assert!(j < Nanos::from_micros(50), "jitter {j:?} out of bounds");
        }
    }

    #[test]
    fn flap_transitions_enumerate_in_order() {
        let f = FlapSchedule::periodic(
            Nanos::from_micros(10),
            Nanos::from_micros(2),
            Nanos::from_micros(20),
            3,
        );
        let ts = f.transitions();
        assert_eq!(
            ts,
            vec![
                (Nanos::from_micros(10), false),
                (Nanos::from_micros(12), true),
                (Nanos::from_micros(30), false),
                (Nanos::from_micros(32), true),
                (Nanos::from_micros(50), false),
                (Nanos::from_micros(52), true),
            ]
        );
    }

    #[test]
    fn permanent_cut_has_no_up_transition() {
        let f = FlapSchedule::permanent(Nanos::from_micros(5));
        assert_eq!(f.transitions(), vec![(Nanos::from_micros(5), false)]);
    }

    #[test]
    fn gilbert_elliott_bursts_and_recovers() {
        let mut st = LossState::new(LossModel::bursty(0.05, 0.2, 0.8));
        let mut rng = DetRng::new(1234);
        let mut losses = 0u64;
        let mut bad_packets = 0u64;
        let n = 100_000u64;
        for _ in 0..n {
            if st.lose(&mut rng) {
                losses += 1;
            }
            if st.in_bad() {
                bad_packets += 1;
            }
        }
        // Stationary bad-state share is 0.05/(0.05+0.2) = 0.2; mean loss
        // is 0.8 * 0.2 = 0.16. Allow generous slack.
        let bad_share = bad_packets as f64 / n as f64;
        let loss_rate = losses as f64 / n as f64;
        assert!((0.15..0.25).contains(&bad_share), "bad share {bad_share}");
        assert!((0.12..0.20).contains(&loss_rate), "loss rate {loss_rate}");
        let expect = LossModel::bursty(0.05, 0.2, 0.8).mean_loss();
        assert!((expect - 0.16).abs() < 1e-12);
    }

    #[test]
    fn uniform_loss_rate_matches_p() {
        let mut st = LossState::new(LossModel::uniform(0.03));
        let mut rng = DetRng::new(99);
        let n = 100_000u64;
        let losses = (0..n).filter(|_| st.lose(&mut rng)).count() as f64;
        let rate = losses / n as f64;
        assert!((0.025..0.035).contains(&rate), "rate {rate}");
    }

    #[test]
    fn plan_builder_and_emptiness() {
        assert!(FaultPlan::none().is_empty());
        let plan = FaultPlan::none().link(
            LinkFault::on(NodeId(0), NodeId(1))
                .with_loss(LossModel::uniform(0.01))
                .with_flap(FlapSchedule::once(Nanos::from_micros(5), Nanos::MICRO)),
        );
        assert!(!plan.is_empty());
        assert_eq!(plan.links.len(), 1);
        assert!(plan.links[0].loss.is_some());
        assert!(plan.links[0].flap.is_some());
    }
}
