//! The sender-side congestion-control interface.
//!
//! The simulator's host model is deliberately protocol-neutral: every flow
//! owns a boxed [`CongestionControl`] and consults [`SenderLimits`] before
//! each transmission. Window-based protocols (HPCC, Swift) bound the bytes
//! in flight and pace at `window / base_rtt`; rate-based protocols (DCQCN)
//! report an unbounded window and rely purely on the pacing rate.

use crate::feedback::AckFeedback;
use dcsim::{BitRate, Bytes, Nanos};

/// How the host's send loop should throttle a flow right now.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenderLimits {
    /// Maximum bytes allowed in flight (sent but unacknowledged).
    /// `f64::INFINITY` for purely rate-based protocols.
    pub window_bytes: f64,
    /// Packet pacing rate. The NIC line rate still applies on top.
    pub pacing: BitRate,
}

impl SenderLimits {
    /// A window-limited sender paced at `window / base_rtt`.
    pub fn windowed(window_bytes: f64, base_rtt: Nanos) -> Self {
        let secs = base_rtt.as_secs_f64();
        let pacing = if secs > 0.0 {
            BitRate::from_bps_f64(window_bytes * 8.0 / secs)
        } else {
            BitRate::from_bps(u64::MAX)
        };
        SenderLimits {
            window_bytes,
            pacing,
        }
    }

    /// A purely rate-based sender.
    pub fn rate_based(rate: BitRate) -> Self {
        SenderLimits {
            window_bytes: f64::INFINITY,
            pacing: rate,
        }
    }
}

/// Whether a protocol is primarily window- or rate-based; used by the
/// experiment layer for reporting and by tests as a sanity check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcMode {
    /// Bytes-in-flight window plus pacing (HPCC, Swift).
    Window,
    /// Pure injection-rate control (DCQCN).
    Rate,
}

/// A point-in-time view of a protocol's control state, recorded by the
/// observability layer as a `cc_update` trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcSnapshot {
    /// Effective window in bytes (`f64::INFINITY` for rate-based).
    pub window_bytes: f64,
    /// Current pacing/injection rate.
    pub rate: BitRate,
    /// VAI token-bank balance, or 0 for variants without VAI.
    pub vai_bank: f64,
}

/// A sender-side congestion-control algorithm.
///
/// Implementations must be deterministic given the same sequence of calls
/// (any randomness comes from a seeded RNG owned by the instance).
pub trait CongestionControl: Send {
    /// Process one acknowledgement and update internal state.
    fn on_ack(&mut self, fb: &AckFeedback);

    /// Process a DCQCN Congestion Notification Packet. Protocols that do
    /// not use CNPs ignore it.
    fn on_cnp(&mut self, _now: Nanos) {}

    /// Notify the algorithm that `bytes` were handed to the NIC. DCQCN's
    /// byte-counter rate-increase machinery hangs off this.
    fn on_send(&mut self, _now: Nanos, _bytes: Bytes) {}

    /// The next time the algorithm needs a timer callback, if any.
    /// The host schedules `on_timer` at (or after) this instant.
    fn next_timer(&self) -> Option<Nanos> {
        None
    }

    /// Timer callback (see [`next_timer`](Self::next_timer)).
    fn on_timer(&mut self, _now: Nanos) {}

    /// A retransmission timeout fired for this flow: the network saw no
    /// ACK progress for a full (backed-off) RTO and is rewinding to
    /// go-back-N. Protocols should treat this as a severe congestion
    /// signal (at least a multiplicative decrease). Default: nothing,
    /// for protocol-neutral fixtures.
    fn on_rto(&mut self, _now: Nanos) {}

    /// The current transmission limits for this flow.
    fn limits(&self) -> SenderLimits;

    /// Window- or rate-based classification.
    fn mode(&self) -> CcMode;

    /// Short human-readable name ("HPCC", "Swift VAI SF", ...) used in
    /// figure legends.
    fn name(&self) -> &str;

    /// The instantaneous fair-share-relevant sending rate in bits/s,
    /// used by the fairness monitor. For window protocols this is
    /// `window / base_rtt`; for rate protocols the current rate.
    fn current_rate(&self) -> BitRate {
        self.limits().pacing
    }

    /// The state recorded in `cc_update` trace events. The default
    /// derives window and rate from [`limits`](Self::limits) and reports
    /// no VAI bank; VAI-capable protocols override to expose the token
    /// balance.
    fn snapshot(&self) -> CcSnapshot {
        let l = self.limits();
        CcSnapshot {
            window_bytes: l.window_bytes,
            rate: l.pacing,
            vai_bank: 0.0,
        }
    }

    /// Publish end-of-run counters/histograms into the metrics registry
    /// under keys prefixed with this protocol's state (called once per
    /// flow when counters-level tracing is on). Default: nothing.
    fn publish_metrics(&self, _reg: &mut simtrace::MetricsRegistry) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_limits_compute_pacing() {
        // 100 KB window over a 10 us RTT = 80 Gbps.
        let l = SenderLimits::windowed(100_000.0, Nanos::from_micros(10));
        assert_eq!(l.pacing, BitRate::from_gbps(80));
        assert_eq!(l.window_bytes, 100_000.0);
    }

    #[test]
    fn windowed_with_zero_rtt_is_unthrottled() {
        let l = SenderLimits::windowed(1000.0, Nanos::ZERO);
        assert_eq!(l.pacing, BitRate::from_bps(u64::MAX));
    }

    #[test]
    fn rate_based_has_infinite_window() {
        let l = SenderLimits::rate_based(BitRate::from_gbps(25));
        assert!(l.window_bytes.is_infinite());
        assert_eq!(l.pacing, BitRate::from_gbps(25));
    }

    /// A trivial impl to pin down trait-object safety and defaults.
    struct Fixed;
    impl CongestionControl for Fixed {
        fn on_ack(&mut self, _fb: &AckFeedback) {}
        fn limits(&self) -> SenderLimits {
            SenderLimits::rate_based(BitRate::from_gbps(1))
        }
        fn mode(&self) -> CcMode {
            CcMode::Rate
        }
        fn name(&self) -> &str {
            "fixed"
        }
    }

    #[test]
    fn trait_defaults_are_noops() {
        let mut cc: Box<dyn CongestionControl> = Box::new(Fixed);
        cc.on_cnp(Nanos::from_ns(1));
        cc.on_send(Nanos::from_ns(1), Bytes::new(10));
        cc.on_timer(Nanos::from_ns(2));
        cc.on_rto(Nanos::from_ns(3));
        assert_eq!(cc.next_timer(), None);
        assert_eq!(cc.current_rate(), BitRate::from_gbps(1));
        assert_eq!(cc.name(), "fixed");
    }
}
