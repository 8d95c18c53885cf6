//! Empirical flow-size distributions.
//!
//! The paper takes its distribution files from the HPCC artifact
//! repository. We embed piecewise-linear CDFs reconstructed from the
//! constraints the paper itself states:
//!
//! * **Facebook Hadoop** — "mostly small flows (95% < 300KB) and a small
//!   number of large flows (2.5% > 1MB)";
//! * **Microsoft WebSearch** — "many long flows (30% > 1MB)" (the classic
//!   DCTCP distribution);
//! * **Alibaba storage** — "almost exclusively small flows (96% < 128KB
//!   and 100% < 2MB)".
//!
//! Absolute moments differ from the artifact files; the latency-bound vs.
//! bandwidth-bound flow mix — which drives every trend in Figures 10-13 —
//! is preserved.

use dcsim::{Bytes, DetRng};

/// A piecewise-linear cumulative distribution over flow sizes.
///
/// Points are `(size_bytes, cumulative_probability)`, strictly increasing
/// in both coordinates, ending at probability 1.
#[derive(Debug, Clone)]
pub struct EmpiricalCdf {
    points: Vec<(u64, f64)>,
    name: &'static str,
}

impl EmpiricalCdf {
    /// Build a CDF from `(size, cum_prob)` points. The first point's
    /// probability is the mass at (or below) the first size; sampling
    /// interpolates linearly between points and from 1 byte up to the
    /// first point.
    pub fn new(name: &'static str, points: &[(u64, f64)]) -> Self {
        assert!(!points.is_empty(), "CDF needs at least one point");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "{name}: sizes must increase");
            assert!(w[0].1 <= w[1].1, "{name}: probabilities must not decrease");
        }
        let last = points.last().expect("non-empty");
        assert!(
            (last.1 - 1.0).abs() < 1e-9,
            "{name}: CDF must end at probability 1"
        );
        EmpiricalCdf {
            points: points.to_vec(),
            name,
        }
    }

    /// The distribution's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Inverse-CDF sampling with linear interpolation.
    pub fn sample(&self, rng: &mut DetRng) -> Bytes {
        let u = rng.f64();
        self.quantile(u)
    }

    /// The size at cumulative probability `u` (clamped to `[0, 1]`).
    pub fn quantile(&self, u: f64) -> Bytes {
        let u = u.clamp(0.0, 1.0);
        let mut prev = (1u64, 0.0f64);
        for &(size, p) in &self.points {
            if u <= p {
                if (p - prev.1) <= 1e-12 {
                    return Bytes::new(size);
                }
                let frac = (u - prev.1) / (p - prev.1);
                let sz = prev.0 as f64 + frac * (size as f64 - prev.0 as f64);
                return Bytes::new(sz.max(1.0).round() as u64);
            }
            prev = (size, p);
        }
        Bytes::new(self.points.last().expect("non-empty").0)
    }

    /// The mean flow size implied by the piecewise-linear CDF, used to
    /// convert a load fraction into an arrival rate.
    pub fn mean_bytes(&self) -> f64 {
        // E[X] for a piecewise-linear CDF: sum of segment means weighted
        // by segment probability mass.
        let mut mean = 0.0;
        let mut prev = (1u64, 0.0f64);
        for &(size, p) in &self.points {
            let mass = p - prev.1;
            if mass > 0.0 {
                mean += mass * (prev.0 as f64 + size as f64) / 2.0;
            }
            prev = (size, p);
        }
        mean
    }

    /// The probability that a flow exceeds `bytes`.
    pub fn frac_above(&self, bytes: u64) -> f64 {
        let mut prev = (1u64, 0.0f64);
        for &(size, p) in &self.points {
            if bytes < size {
                if bytes <= prev.0 {
                    return 1.0 - prev.1;
                }
                let frac = (bytes - prev.0) as f64 / (size - prev.0) as f64;
                let cdf = prev.1 + frac * (p - prev.1);
                return 1.0 - cdf;
            }
            prev = (size, p);
        }
        0.0
    }
}

/// Facebook Hadoop (reconstruction): heavy small-flow mass with a thin
/// multi-megabyte tail. 95% < 300 KB; 2.5% > 1 MB.
pub fn fb_hadoop() -> EmpiricalCdf {
    EmpiricalCdf::new(
        "FB_Hadoop",
        &[
            (250, 0.20),
            (500, 0.35),
            (1_000, 0.50),
            (5_000, 0.65),
            (10_000, 0.73),
            (30_000, 0.80),
            (100_000, 0.88),
            (300_000, 0.95),
            (1_000_000, 0.975),
            (3_000_000, 0.99),
            (10_000_000, 1.0),
        ],
    )
}

/// Microsoft WebSearch (the DCTCP distribution): ~30% of flows exceed
/// 1 MB, tail to 30 MB.
pub fn websearch() -> EmpiricalCdf {
    EmpiricalCdf::new(
        "WebSearch",
        &[
            (6_000, 0.15),
            (13_000, 0.20),
            (19_000, 0.30),
            (33_000, 0.40),
            (53_000, 0.53),
            (133_000, 0.60),
            (667_000, 0.70),
            (1_467_000, 0.80),
            (2_107_000, 0.90),
            (6_667_000, 0.95),
            (20_000_000, 0.98),
            (30_000_000, 1.0),
        ],
    )
}

/// Alibaba storage (reconstruction): almost exclusively small flows.
/// 96% < 128 KB, everything < 2 MB.
pub fn ali_storage() -> EmpiricalCdf {
    EmpiricalCdf::new(
        "Ali_Storage",
        &[
            (1_000, 0.30),
            (4_000, 0.55),
            (16_000, 0.75),
            (64_000, 0.90),
            (128_000, 0.96),
            (512_000, 0.985),
            (1_000_000, 0.995),
            (2_000_000, 1.0),
        ],
    )
}

/// Canonical name for [`fb_hadoop`] in experiment configs.
pub const FB_HADOOP: &str = "FB_Hadoop";
/// Canonical name for [`websearch`].
pub const WEBSEARCH: &str = "WebSearch";
/// Canonical name for [`ali_storage`].
pub const ALI_STORAGE: &str = "Ali_Storage";

/// Every name [`by_name`] accepts.
pub const NAMES: [&str; 3] = [FB_HADOOP, WEBSEARCH, ALI_STORAGE];

/// Look a distribution up by its canonical name.
pub fn by_name(name: &str) -> Option<EmpiricalCdf> {
    match name {
        FB_HADOOP => Some(fb_hadoop()),
        WEBSEARCH => Some(websearch()),
        ALI_STORAGE => Some(ali_storage()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hadoop_matches_paper_constraints() {
        let d = fb_hadoop();
        // "95% < 300KB"
        assert!((d.frac_above(300_000) - 0.05).abs() < 0.01);
        // "2.5% > 1MB"
        assert!((d.frac_above(1_000_000) - 0.025).abs() < 0.005);
    }

    #[test]
    fn websearch_matches_paper_constraints() {
        let d = websearch();
        // "30% > 1MB"
        let above_1mb = d.frac_above(1_000_000);
        assert!((0.2..=0.35).contains(&above_1mb), "P(>1MB) = {above_1mb}");
    }

    #[test]
    fn storage_matches_paper_constraints() {
        let d = ali_storage();
        // "96% < 128KB"
        assert!((d.frac_above(128_000) - 0.04).abs() < 0.01);
        // "100% < 2MB"
        assert_eq!(d.frac_above(2_000_000), 0.0);
        assert_eq!(d.quantile(1.0), Bytes::new(2_000_000));
    }

    #[test]
    fn sampling_matches_cdf() {
        let d = websearch();
        let mut rng = DetRng::new(42);
        let n = 100_000;
        let big = (0..n)
            .filter(|_| d.sample(&mut rng).as_u64() > 1_000_000)
            .count();
        let frac = big as f64 / n as f64;
        let expect = d.frac_above(1_000_000);
        assert!(
            (frac - expect).abs() < 0.01,
            "sampled {frac} vs cdf {expect}"
        );
    }

    #[test]
    fn sampled_mean_matches_analytic_mean() {
        let d = fb_hadoop();
        let mut rng = DetRng::new(7);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng).as_f64()).sum();
        let mean = sum / n as f64;
        let analytic = d.mean_bytes();
        assert!(
            (mean - analytic).abs() / analytic < 0.05,
            "sampled {mean} analytic {analytic}"
        );
    }

    #[test]
    fn quantile_monotone() {
        let d = websearch();
        let mut last = 0u64;
        for i in 0..=100 {
            let q = d.quantile(i as f64 / 100.0).as_u64();
            assert!(q >= last, "quantile not monotone at {i}");
            last = q;
        }
    }

    #[test]
    fn samples_never_zero_or_above_max() {
        let d = ali_storage();
        let mut rng = DetRng::new(3);
        for _ in 0..10_000 {
            let s = d.sample(&mut rng);
            assert!(s.as_u64() >= 1);
            assert!(s.as_u64() <= 2_000_000);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(NAMES.iter().all(|n| by_name(n).is_some()));
        assert!(by_name("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "end at probability 1")]
    fn incomplete_cdf_rejected() {
        EmpiricalCdf::new("bad", &[(100, 0.5)]);
    }

    #[test]
    #[should_panic(expected = "sizes must increase")]
    fn unsorted_cdf_rejected() {
        EmpiricalCdf::new("bad", &[(100, 0.5), (50, 1.0)]);
    }
}
