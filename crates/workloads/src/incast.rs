//! The staggered-incast microbenchmark (paper Sections III-D and VI-A).
//!
//! "We use a single switch topology with 17 hosts ... 16 of the hosts have
//! one flow to the 17th host. Two flows start every 20 microseconds and
//! each flow sends 1MB." The 96-1 variant scales the sender count; the
//! stagger is what creates the join-time unfairness the paper studies —
//! each pair of new line-rate flows steals bandwidth from everyone already
//! running.

use dcsim::{Bytes, Nanos};

use crate::arrivals::FlowArrival;

/// Parameters for [`staggered_incast`].
#[derive(Debug, Clone, Copy)]
pub struct IncastConfig {
    /// Number of senders (16 or 96 in the paper).
    pub senders: usize,
    /// Flow size (paper: 1 MB).
    pub flow_size: Bytes,
    /// How many flows start per stagger interval (paper: 2).
    pub flows_per_interval: usize,
    /// The stagger interval (paper: 20 µs).
    pub interval: Nanos,
}

impl IncastConfig {
    /// The paper's 16-1 incast.
    pub fn paper_16_1() -> Self {
        IncastConfig {
            senders: 16,
            flow_size: Bytes::from_mb(1),
            flows_per_interval: 2,
            interval: Nanos::from_micros(20),
        }
    }

    /// The paper's 96-1 incast.
    pub fn paper_96_1() -> Self {
        IncastConfig {
            senders: 96,
            ..Self::paper_16_1()
        }
    }
}

/// Generate the arrival list: sender `i` (host index `i`) starts its flow
/// to the receiver (host index `senders`) at
/// `(i / flows_per_interval) * interval`.
pub fn staggered_incast(cfg: &IncastConfig) -> Vec<FlowArrival> {
    assert!(cfg.senders >= 1);
    assert!(cfg.flows_per_interval >= 1);
    (0..cfg.senders)
        .map(|i| FlowArrival {
            src: i,
            dst: cfg.senders,
            size: cfg.flow_size,
            start: cfg.interval * (i / cfg.flows_per_interval) as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_16_1_shape() {
        let flows = staggered_incast(&IncastConfig::paper_16_1());
        assert_eq!(flows.len(), 16);
        // All flows target host 16 with 1 MB.
        for f in &flows {
            assert_eq!(f.dst, 16);
            assert_eq!(f.size, Bytes::new(1_000_000));
            assert_ne!(f.src, f.dst);
        }
        // Two flows per 20 us slot.
        assert_eq!(flows[0].start, Nanos::from_ns(0));
        assert_eq!(flows[1].start, Nanos::from_ns(0));
        assert_eq!(flows[2].start, Nanos::from_micros(20));
        assert_eq!(flows[15].start, Nanos::from_micros(140));
    }

    #[test]
    fn paper_96_1_spans_longer() {
        let flows = staggered_incast(&IncastConfig::paper_96_1());
        assert_eq!(flows.len(), 96);
        assert_eq!(flows[95].start, Nanos::from_micros(47 * 20));
        assert_eq!(flows[95].dst, 96);
    }

    #[test]
    fn sources_are_distinct() {
        let flows = staggered_incast(&IncastConfig::paper_16_1());
        let mut srcs: Vec<usize> = flows.iter().map(|f| f.src).collect();
        srcs.sort_unstable();
        srcs.dedup();
        assert_eq!(srcs.len(), 16);
    }

    #[test]
    fn custom_stagger() {
        let flows = staggered_incast(&IncastConfig {
            senders: 6,
            flow_size: Bytes::new(500),
            flows_per_interval: 3,
            interval: Nanos::from_micros(5),
        });
        assert_eq!(flows[2].start, Nanos::from_ns(0));
        assert_eq!(flows[3].start, Nanos::from_micros(5));
        assert_eq!(flows[5].start, Nanos::from_micros(5));
    }
}
