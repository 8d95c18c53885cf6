//! Open-loop Poisson traffic for the datacenter simulations.
//!
//! The paper runs "the network at 50% load for 50ms": flows arrive as a
//! Poisson process whose rate is chosen so the *offered* load equals the
//! requested fraction of the hosts' aggregate edge bandwidth, with sizes
//! drawn from an empirical distribution and uniformly random distinct
//! source/destination hosts (the standard HPCC-artifact methodology).

use dcsim::{BitRate, Bytes, DetRng, Nanos};

use crate::distributions::EmpiricalCdf;

/// One flow to inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowArrival {
    /// Source host index (into the topology's host list).
    pub src: usize,
    /// Destination host index.
    pub dst: usize,
    /// Payload size.
    pub size: Bytes,
    /// Start time.
    pub start: Nanos,
}

/// Parameters for [`poisson_arrivals`].
#[derive(Debug, Clone)]
pub struct ArrivalConfig {
    /// Number of hosts in the topology.
    pub n_hosts: usize,
    /// Per-host edge link rate.
    pub host_rate: BitRate,
    /// Offered load as a fraction of aggregate edge bandwidth (paper: 0.5).
    pub load: f64,
    /// Traffic horizon: flows arrive in `[0, horizon)` (paper: 50 ms).
    pub horizon: Nanos,
    /// RNG seed (independent of the network's own seed).
    pub seed: u64,
}

/// Generate the arrival list for one distribution.
///
/// The aggregate arrival rate is
/// `load · n_hosts · host_rate / (8 · mean_size)` flows per second; each
/// arrival picks a uniformly random source and a distinct uniformly random
/// destination.
pub fn poisson_arrivals(cfg: &ArrivalConfig, dist: &EmpiricalCdf) -> Vec<FlowArrival> {
    assert!(cfg.n_hosts >= 2, "need at least two hosts");
    assert!(cfg.load > 0.0 && cfg.load <= 1.0, "load must be in (0, 1]");
    let mut rng = DetRng::new(cfg.seed);
    let mean = dist.mean_bytes();
    let bytes_per_sec = cfg.load * cfg.n_hosts as f64 * cfg.host_rate.bytes_per_sec();
    let flows_per_sec = bytes_per_sec / mean;
    let mean_gap_ns = 1e9 / flows_per_sec;

    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += rng.exp(mean_gap_ns);
        if t >= cfg.horizon.as_u64() as f64 {
            break;
        }
        let src = rng.below(cfg.n_hosts as u64) as usize;
        let mut dst = rng.below(cfg.n_hosts as u64 - 1) as usize;
        if dst >= src {
            dst += 1;
        }
        out.push(FlowArrival {
            src,
            dst,
            size: dist.sample(&mut rng),
            start: Nanos::from_ns(t as u64),
        });
    }
    out
}

/// Generate a mixed workload: each distribution contributes an equal share
/// of the total load (the paper's WebSearch + Alibaba-storage "shared
/// environment"). Arrivals are merged in time order.
pub fn mixed_arrivals(cfg: &ArrivalConfig, dists: &[&EmpiricalCdf]) -> Vec<FlowArrival> {
    assert!(!dists.is_empty());
    let share = cfg.load / dists.len() as f64;
    let mut all = Vec::new();
    for (i, d) in dists.iter().enumerate() {
        let sub = ArrivalConfig {
            load: share,
            seed: cfg.seed.wrapping_add(1 + i as u64),
            ..cfg.clone()
        };
        all.extend(poisson_arrivals(&sub, d));
    }
    all.sort_by_key(|f| f.start);
    all
}

/// A random permutation pattern: every host sends one `size`-byte flow to
/// a distinct destination host (a derangement, so nobody sends to
/// itself), all starting at `start`.
///
/// Permutation traffic is the classic fabric-fairness stressor: there is
/// no incast — each destination receives exactly one flow — so any
/// unfairness comes from ECMP collisions inside the fabric.
pub fn permutation(n_hosts: usize, size: Bytes, start: Nanos, seed: u64) -> Vec<FlowArrival> {
    assert!(n_hosts >= 2, "a permutation needs at least two hosts");
    let mut rng = DetRng::new(seed);
    // Fisher-Yates, then rotate self-mappings away.
    let mut dst: Vec<usize> = (0..n_hosts).collect();
    for i in (1..n_hosts).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        dst.swap(i, j);
    }
    // Fix fixed points by swapping with a neighbour (keeps a derangement).
    for i in 0..n_hosts {
        if dst[i] == i {
            let j = (i + 1) % n_hosts;
            dst.swap(i, j);
        }
    }
    (0..n_hosts)
        .map(|src| FlowArrival {
            src,
            dst: dst[src],
            size,
            start,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{fb_hadoop, websearch};

    fn cfg(load: f64) -> ArrivalConfig {
        ArrivalConfig {
            n_hosts: 32,
            host_rate: BitRate::from_gbps(100),
            load,
            horizon: Nanos::from_millis(10),
            seed: 11,
        }
    }

    #[test]
    fn offered_load_matches_request() {
        let c = cfg(0.5);
        let flows = poisson_arrivals(&c, &fb_hadoop());
        let total_bytes: f64 = flows.iter().map(|f| f.size.as_f64()).sum();
        let capacity_bytes =
            c.n_hosts as f64 * c.host_rate.bytes_per_sec() * c.horizon.as_secs_f64();
        let load = total_bytes / capacity_bytes;
        assert!((load - 0.5).abs() < 0.05, "offered load {load}");
    }

    #[test]
    fn arrivals_sorted_and_in_horizon() {
        let c = cfg(0.3);
        let flows = poisson_arrivals(&c, &fb_hadoop());
        assert!(!flows.is_empty());
        for w in flows.windows(2) {
            assert!(w[1].start >= w[0].start);
        }
        assert!(flows.last().unwrap().start < c.horizon);
    }

    #[test]
    fn src_dst_always_distinct_and_in_range() {
        let c = cfg(0.5);
        let flows = poisson_arrivals(&c, &fb_hadoop());
        for f in &flows {
            assert_ne!(f.src, f.dst);
            assert!(f.src < 32 && f.dst < 32);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let c = cfg(0.4);
        let a = poisson_arrivals(&c, &websearch());
        let b = poisson_arrivals(&c, &websearch());
        assert_eq!(a, b);
        let c2 = ArrivalConfig { seed: 12, ..c };
        let d = poisson_arrivals(&c2, &websearch());
        assert_ne!(a, d);
    }

    #[test]
    fn mixed_workload_splits_load() {
        let c = cfg(0.5);
        let ws = websearch();
        let hd = fb_hadoop();
        let flows = mixed_arrivals(&c, &[&ws, &hd]);
        let total_bytes: f64 = flows.iter().map(|f| f.size.as_f64()).sum();
        let capacity_bytes =
            c.n_hosts as f64 * c.host_rate.bytes_per_sec() * c.horizon.as_secs_f64();
        let load = total_bytes / capacity_bytes;
        assert!((load - 0.5).abs() < 0.05, "offered load {load}");
        // Merged in time order.
        for w in flows.windows(2) {
            assert!(w[1].start >= w[0].start);
        }
    }

    #[test]
    fn permutation_is_a_derangement() {
        for seed in 0..20 {
            for n in [2usize, 3, 8, 32] {
                let flows = permutation(n, Bytes::new(1000), Nanos::ZERO, seed);
                assert_eq!(flows.len(), n);
                let mut dsts: Vec<usize> = flows.iter().map(|f| f.dst).collect();
                for f in &flows {
                    assert_ne!(f.src, f.dst, "n={n} seed={seed}");
                }
                dsts.sort_unstable();
                dsts.dedup();
                assert_eq!(dsts.len(), n, "destinations must be a permutation");
            }
        }
    }

    #[test]
    fn permutation_varies_with_seed() {
        let a = permutation(16, Bytes::new(1000), Nanos::ZERO, 1);
        let b = permutation(16, Bytes::new(1000), Nanos::ZERO, 2);
        assert_ne!(a, b);
        assert_eq!(a, permutation(16, Bytes::new(1000), Nanos::ZERO, 1));
    }

    #[test]
    #[should_panic(expected = "load must be in")]
    fn zero_load_rejected() {
        poisson_arrivals(&cfg(0.0), &fb_hadoop());
    }
}
