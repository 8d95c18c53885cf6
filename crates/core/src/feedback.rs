//! Network feedback records delivered to congestion-control algorithms.
//!
//! The three state-of-the-art signal families the paper discusses are all
//! representable here:
//!
//! * **INT** (HPCC): per-hop telemetry stamped by switches on egress —
//!   queue length, cumulative transmitted bytes, a timestamp, and the link
//!   bandwidth ([`IntHop`], [`IntStack`]).
//! * **RTT** (Swift/Timely): the ACK echoes the data packet's send
//!   timestamp; the simulator computes the round-trip delay.
//! * **ECN** (DCQCN): a RED-marked congestion-experienced bit echoed by the
//!   receiver (and separately, CNPs — see `CongestionControl::on_cnp`).

use dcsim::{BitRate, Bytes, Nanos};

/// Maximum number of hops recorded in an INT stack.
///
/// The paper's fat-tree has at most 5 switch hops between two hosts; we add
/// headroom for the sender-NIC pseudo-hop and future topologies.
pub const MAX_INT_HOPS: usize = 8;

/// Telemetry recorded by one egress port as the packet left it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IntHop {
    /// Bytes queued at the egress port at the moment this packet started
    /// transmission (the packet itself excluded).
    pub qlen: Bytes,
    /// Cumulative bytes ever transmitted by this port, *including* this
    /// packet. HPCC differentiates successive values to estimate link
    /// utilization.
    pub tx_bytes: u64,
    /// Switch-local timestamp when the packet started transmission.
    pub ts: Nanos,
    /// The egress link's line rate.
    pub rate: BitRate,
}

/// The per-packet stack of [`IntHop`] records, in path order.
///
/// Fixed-capacity and inline (no allocation): packets are the hottest object
/// in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IntStack {
    hops: [IntHop; MAX_INT_HOPS],
    len: u8,
}

impl IntStack {
    /// An empty stack.
    pub const fn new() -> Self {
        IntStack {
            hops: [IntHop {
                qlen: Bytes::ZERO,
                tx_bytes: 0,
                ts: Nanos::ZERO,
                rate: BitRate::ZERO,
            }; MAX_INT_HOPS],
            len: 0,
        }
    }

    /// Append one hop record. Silently drops records past [`MAX_INT_HOPS`]
    /// (mirrors the bounded INT header space of real P4 switches).
    #[inline]
    pub fn push(&mut self, hop: IntHop) {
        if (self.len as usize) < MAX_INT_HOPS {
            self.hops[self.len as usize] = hop;
            self.len += 1;
        }
    }

    /// Number of recorded hops.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no hops are recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The recorded hops, in path order.
    #[inline]
    pub fn hops(&self) -> &[IntHop] {
        &self.hops[..self.len as usize]
    }

    /// Remove all hops (when a packet buffer is recycled).
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The maximum queue length across all hops — the paper's "Measured
    /// Congestion" for HPCC-style VAI token generation.
    #[inline]
    pub fn max_qlen(&self) -> Bytes {
        self.hops()
            .iter()
            .map(|h| h.qlen)
            .max()
            .unwrap_or(Bytes::ZERO)
    }
}

/// Everything a congestion-control algorithm learns from one ACK.
#[derive(Debug, Clone, Copy)]
pub struct AckFeedback {
    /// Arrival time of the ACK at the sender.
    pub now: Nanos,
    /// Measured round-trip time (ACK arrival minus the echoed send
    /// timestamp of the data packet it acknowledges).
    pub rtt: Nanos,
    /// Whether the acknowledged data packet was ECN-marked.
    pub ecn: bool,
    /// INT telemetry collected by the acknowledged data packet.
    pub int: IntStack,
    /// Payload bytes newly acknowledged by this ACK.
    pub acked: Bytes,
    /// Number of switch hops the data packet traversed (for Swift's
    /// topology-based scaling).
    pub hops: u8,
}

impl AckFeedback {
    /// A minimal feedback record for tests: `rtt` only, no INT, no ECN.
    pub fn rtt_only(now: Nanos, rtt: Nanos, acked: Bytes) -> Self {
        AckFeedback {
            now,
            rtt,
            ecn: false,
            int: IntStack::new(),
            acked,
            hops: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(qlen: u64) -> IntHop {
        IntHop {
            qlen: Bytes::new(qlen),
            tx_bytes: 0,
            ts: Nanos::from_ns(0),
            rate: BitRate::from_gbps(100),
        }
    }

    #[test]
    fn stack_push_and_read() {
        let mut s = IntStack::new();
        assert!(s.is_empty());
        s.push(hop(10));
        s.push(hop(30));
        s.push(hop(20));
        assert_eq!(s.len(), 3);
        assert_eq!(s.hops()[1].qlen, Bytes::new(30));
        assert_eq!(s.max_qlen(), Bytes::new(30));
    }

    #[test]
    fn stack_saturates_at_capacity() {
        let mut s = IntStack::new();
        for i in 0..(MAX_INT_HOPS as u64 + 5) {
            s.push(hop(i));
        }
        assert_eq!(s.len(), MAX_INT_HOPS);
        // The overflow hops were dropped, so the max is the last kept one.
        assert_eq!(s.max_qlen(), Bytes::new(MAX_INT_HOPS as u64 - 1));
    }

    #[test]
    fn clear_resets() {
        let mut s = IntStack::new();
        s.push(hop(5));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.max_qlen(), Bytes::new(0));
    }

    #[test]
    fn empty_stack_max_qlen_is_zero() {
        assert_eq!(IntStack::new().max_qlen(), Bytes::new(0));
    }
}
