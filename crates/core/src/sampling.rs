//! Sampling Frequency (paper Section IV-B).
//!
//! HPCC and Swift fully react to at most one congestion signal per RTT —
//! deliberately, to avoid double-reacting to a single congestion event. But
//! reacting per-RTT removes a natural fairness force: a flow with twice the
//! bandwidth receives twice the ACKs, and reacting *per-ACK-group* makes it
//! decrease its rate twice as often. Sampling Frequency restores that force
//! with a tunable cadence: the protocol may perform a multiplicative
//! decrease every `s` acknowledgements (`s = 30` in the paper's evaluation)
//! instead of once per RTT.
//!
//! Two scope rules from the paper:
//!
//! * SF gates **decreases only**. Rate increases stay on the per-RTT
//!   schedule — if increases also ran per `s` ACKs, high-rate flows would
//!   *increase* more often too, cancelling the fairness benefit.
//! * The decrease operates on a per-sampling-period **reference rate**
//!   (HPCC already has one; the paper adds the same scheme to Swift):
//!   per-ACK adjustments are always computed *from the reference*, so
//!   reacting to several ACKs inside one period cannot compound.

/// Configuration for [`SamplingFrequency`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SfConfig {
    /// Number of ACKs between permitted multiplicative decreases (the
    /// paper's `s`; 30 in the evaluation).
    pub acks_per_decrease: u32,
}

impl SfConfig {
    /// The paper's evaluation setting (`s = 30`).
    pub fn paper_default() -> Self {
        SfConfig {
            acks_per_decrease: 30,
        }
    }
}

/// The ACK-counting gate for Sampling Frequency.
///
/// ```
/// use faircc::{SamplingFrequency, SfConfig};
///
/// let mut sf = SamplingFrequency::new(SfConfig { acks_per_decrease: 3 });
/// let fires: Vec<bool> = (0..6).map(|_| sf.on_ack()).collect();
/// assert_eq!(fires, [false, false, true, false, false, true]);
/// ```
///
/// Protocols call [`on_ack`](Self::on_ack) for every acknowledgement; it
/// returns `true` when a sampling-period boundary is crossed, i.e. when the
/// protocol is now allowed to commit a multiplicative decrease (update its
/// reference rate downward).
#[derive(Debug, Clone)]
pub struct SamplingFrequency {
    cfg: SfConfig,
    acks_since_boundary: u32,
    periods_completed: u64,
}

impl SamplingFrequency {
    /// A fresh gate; the first boundary fires after `acks_per_decrease`
    /// ACKs.
    pub fn new(cfg: SfConfig) -> Self {
        assert!(cfg.acks_per_decrease > 0, "s must be at least 1");
        SamplingFrequency {
            cfg,
            acks_since_boundary: 0,
            periods_completed: 0,
        }
    }

    /// Count one ACK; returns `true` exactly at sampling-period boundaries.
    #[inline]
    pub fn on_ack(&mut self) -> bool {
        self.acks_since_boundary += 1;
        if self.acks_since_boundary >= self.cfg.acks_per_decrease {
            self.acks_since_boundary = 0;
            self.periods_completed += 1;
            true
        } else {
            false
        }
    }

    /// Restart the ACK count (e.g. after an RTT-boundary reference update,
    /// so the next period measures a full `s` fresh ACKs).
    #[inline]
    pub fn reset(&mut self) {
        self.acks_since_boundary = 0;
    }

    /// Total boundaries crossed so far (instrumentation).
    pub fn periods_completed(&self) -> u64 {
        self.periods_completed
    }

    /// The configured cadence.
    pub fn config(&self) -> SfConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::DetRng;

    #[test]
    fn boundary_every_s_acks() {
        let mut sf = SamplingFrequency::new(SfConfig {
            acks_per_decrease: 3,
        });
        let fired: Vec<bool> = (0..9).map(|_| sf.on_ack()).collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(sf.periods_completed(), 3);
    }

    #[test]
    fn paper_default_is_thirty() {
        let mut sf = SamplingFrequency::new(SfConfig::paper_default());
        let fires = (0..30).filter(|_| sf.on_ack()).count();
        assert_eq!(fires, 1);
    }

    #[test]
    fn s_of_one_fires_every_ack() {
        let mut sf = SamplingFrequency::new(SfConfig {
            acks_per_decrease: 1,
        });
        assert!(sf.on_ack());
        assert!(sf.on_ack());
    }

    #[test]
    fn reset_restarts_the_period() {
        let mut sf = SamplingFrequency::new(SfConfig {
            acks_per_decrease: 3,
        });
        sf.on_ack();
        sf.on_ack();
        sf.reset();
        assert!(!sf.on_ack());
        assert!(!sf.on_ack());
        assert!(sf.on_ack());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_cadence_rejected() {
        SamplingFrequency::new(SfConfig {
            acks_per_decrease: 0,
        });
    }

    /// Over any number of ACKs, the number of boundaries is exactly
    /// floor(n / s) — the fairness property that a flow with k times
    /// the ACK rate gets k times the decrease opportunities.
    #[test]
    fn prop_boundary_count_is_floor_div() {
        let mut rng = DetRng::new(0x5f);
        for _ in 0..256 {
            let n = rng.below(10_000);
            let s = 1 + u32::try_from(rng.below(99)).expect("below 99");
            let mut sf = SamplingFrequency::new(SfConfig {
                acks_per_decrease: s,
            });
            let fires = (0..n).filter(|_| sf.on_ack()).count() as u64;
            assert_eq!(fires, n / u64::from(s), "n={n} s={s}");
        }
    }
}
