//! Per-flow sender and receiver state.

use dcsim::{Bytes, Nanos};
use faircc::CongestionControl;

use crate::ids::{FlowId, NodeId};

/// Immutable description of a flow to run.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Payload bytes to transfer.
    pub size: Bytes,
    /// When the sender starts.
    pub start: Nanos,
}

/// The live state of one flow (sender side and receiver side).
pub struct Flow {
    /// This flow's id.
    pub id: FlowId,
    /// The specification it was created from.
    pub spec: FlowSpec,
    /// Payload bytes handed to the NIC so far.
    pub sent: u64,
    /// Cumulative payload bytes acknowledged.
    pub acked: u64,
    /// Completion time, once all bytes are acknowledged.
    pub finished: Option<Nanos>,
    /// The congestion-control algorithm driving this flow.
    pub cc: Box<dyn CongestionControl>,
    /// Earliest time pacing allows the next packet out.
    pub next_allowed: Nanos,
    /// Whether a pacing timer event is already scheduled.
    pub pace_armed: bool,
    /// The earliest currently-scheduled CC timer, if any (dedup guard).
    pub cc_timer_armed: Option<Nanos>,
    /// Receiver side: next expected byte offset (in-order check).
    pub rcv_next: u64,
    /// Receiver side: time of the last CNP sent (DCQCN rate limiting).
    pub last_cnp: Option<Nanos>,
    /// Receiver side: the expected-sequence value already NACKed (one
    /// NACK per loss gap; reset when the gap fills).
    pub last_nack_for: Option<u64>,
    /// Sender side: last time the cumulative ACK advanced (RTO input).
    pub last_progress: Nanos,
    /// Sender side: the scheduled RTO check, if armed (dedup guard).
    pub rto_armed: Option<Nanos>,
    /// Sender side: consecutive-timeout backoff level (0 = base RTO;
    /// reset whenever the cumulative ACK advances).
    pub rto_level: u32,
    /// Sender side: total RTO firings that rewound this flow (the
    /// retransmit counter exposed through the metrics registry).
    pub rto_count: u64,
    /// Sender side: acknowledgements processed so far (drives the trace
    /// layer's CC sampling cadence).
    pub acks_seen: u64,
}

impl Flow {
    /// Create a fresh flow.
    pub fn new(id: FlowId, spec: FlowSpec, cc: Box<dyn CongestionControl>) -> Self {
        assert!(spec.size > Bytes::ZERO, "zero-length flows are not allowed");
        assert!(
            spec.src != spec.dst,
            "flow source and destination must differ"
        );
        Flow {
            id,
            spec,
            sent: 0,
            acked: 0,
            finished: None,
            cc,
            next_allowed: Nanos::ZERO,
            pace_armed: false,
            cc_timer_armed: None,
            rcv_next: 0,
            last_cnp: None,
            last_nack_for: None,
            last_progress: spec.start,
            rto_armed: None,
            rto_level: 0,
            rto_count: 0,
            acks_seen: 0,
        }
    }

    /// Payload bytes in flight (sent, not yet acknowledged).
    #[inline]
    pub fn inflight(&self) -> u64 {
        self.sent - self.acked
    }

    /// Payload bytes not yet handed to the NIC.
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.spec.size.as_u64() - self.sent
    }

    /// Whether a CNP may be emitted now, and record it if so.
    ///
    /// DCQCN receivers rate-limit CNPs to one per `interval` per flow.
    pub fn try_emit_cnp(&mut self, now: Nanos, interval: Nanos) -> bool {
        let due = match self.last_cnp {
            None => true,
            Some(t) => now.saturating_sub(t) >= interval,
        };
        if due {
            self.last_cnp = Some(now);
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::BitRate;
    use faircc::{AckFeedback, CcMode, SenderLimits};

    struct Dummy;
    impl CongestionControl for Dummy {
        fn on_ack(&mut self, _: &AckFeedback) {}
        fn limits(&self) -> SenderLimits {
            SenderLimits::rate_based(BitRate::from_gbps(100))
        }
        fn mode(&self) -> CcMode {
            CcMode::Rate
        }
        fn name(&self) -> &str {
            "dummy"
        }
    }

    fn spec() -> FlowSpec {
        FlowSpec {
            src: NodeId(0),
            dst: NodeId(1),
            size: Bytes::from_mb(1),
            start: Nanos::from_micros(5),
        }
    }

    #[test]
    fn accounting() {
        let mut f = Flow::new(FlowId(0), spec(), Box::new(Dummy));
        f.sent = 5000;
        f.acked = 2000;
        assert_eq!(f.inflight(), 3000);
        assert_eq!(f.remaining(), 995_000);
    }

    #[test]
    fn cnp_rate_limit() {
        let mut f = Flow::new(FlowId(0), spec(), Box::new(Dummy));
        let interval = Nanos::from_micros(50);
        assert!(f.try_emit_cnp(Nanos::from_ns(0), interval));
        assert!(!f.try_emit_cnp(Nanos::from_ns(10_000), interval));
        assert!(!f.try_emit_cnp(Nanos::from_ns(49_999), interval));
        assert!(f.try_emit_cnp(Nanos::from_ns(50_000), interval));
        assert!(!f.try_emit_cnp(Nanos::from_ns(60_000), interval));
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_size_rejected() {
        Flow::new(
            FlowId(0),
            FlowSpec {
                size: Bytes::new(0),
                ..spec()
            },
            Box::new(Dummy),
        );
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn self_flow_rejected() {
        Flow::new(
            FlowId(0),
            FlowSpec {
                dst: NodeId(0),
                ..spec()
            },
            Box::new(Dummy),
        );
    }
}
