//! The sweep harness's statistics kernel: tail percentiles over per-flow
//! slowdown samples, ensemble medians, and bootstrap confidence
//! intervals.
//!
//! All percentile math delegates to [`metrics::percentile_sorted`]
//! (NIST R-7 linear interpolation) so sweep reports agree with every
//! other quantile in the repository. Bootstrap resampling draws from a
//! [`DetRng`] seeded by the caller, which makes confidence intervals as
//! deterministic as the runs they summarize.

use dcsim::DetRng;
use metrics::percentile_sorted;

/// Bootstrap resample count used by sweep reports. 1000 resamples keeps
/// the CI endpoints stable to well under the between-seed spread while
/// costing microseconds per cell.
pub const BOOTSTRAP_ITERS: usize = 1000;

/// Confidence level used by sweep reports (central 95% interval).
pub const BOOTSTRAP_LEVEL: f64 = 0.95;

/// The four tail percentiles a sweep report tracks per cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Sample count the percentiles were computed over.
    pub n: usize,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

/// Tail percentiles of a sample set; `None` when `samples` is empty
/// (an empty cell has no tail, and inventing one would poison medians
/// downstream).
pub fn percentiles(samples: &[f64]) -> Option<Percentiles> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted_copy(samples);
    Some(Percentiles {
        n: sorted.len(),
        p50: percentile_sorted(&sorted, 50.0),
        p95: percentile_sorted(&sorted, 95.0),
        p99: percentile_sorted(&sorted, 99.0),
        p999: percentile_sorted(&sorted, 99.9),
    })
}

/// Median of a sample set; `None` when empty. For an even count this is
/// the R-7 interpolated midpoint, matching [`percentiles`].
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(percentile_sorted(&sorted_copy(samples), 50.0))
}

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ci {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

/// Percentile-bootstrap confidence interval for the `p`-th percentile of
/// `samples`.
///
/// Draws `iters` resamples (with replacement, sized like the input) from
/// a [`DetRng`] rooted at `seed`, computes the `p`-th percentile of
/// each, and returns the central `level` interval of those estimates.
/// `None` when `samples` is empty or `iters` is zero. With one sample —
/// or all-equal samples — every resample is identical and the interval
/// collapses to a point, which is the honest answer: the bootstrap
/// cannot see variance the ensemble did not produce.
pub fn bootstrap_ci(samples: &[f64], p: f64, iters: usize, level: f64, seed: u64) -> Option<Ci> {
    if samples.is_empty() || iters == 0 {
        return None;
    }
    assert!(
        (0.0..1.0).contains(&level) || level == 1.0,
        "confidence level must be in (0, 1]"
    );
    let n = samples.len();
    let mut rng = DetRng::new(seed);
    let mut scratch = vec![0.0_f64; n];
    let mut estimates = Vec::with_capacity(iters);
    for _ in 0..iters {
        for slot in scratch.iter_mut() {
            *slot = samples[rng.index(n)];
        }
        scratch.sort_by(|a, b| a.partial_cmp(b).expect("slowdown samples are never NaN"));
        estimates.push(percentile_sorted(&scratch, p));
    }
    estimates.sort_by(|a, b| {
        a.partial_cmp(b)
            .expect("percentile estimates are never NaN")
    });
    let alpha = (1.0 - level) / 2.0;
    Some(Ci {
        lo: percentile_sorted(&estimates, alpha * 100.0),
        hi: percentile_sorted(&estimates, (1.0 - alpha) * 100.0),
    })
}

fn sorted_copy(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("slowdown samples are never NaN"));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_match_hand_computed_r7_fixtures() {
        // For [1, 2, 3, 4, 5] under R-7: rank = p/100 * (n-1).
        //   p50 -> rank 2.0 -> 3.0
        //   p95 -> rank 3.8 -> 4 + 0.8*(5-4) = 4.8
        //   p99 -> rank 3.96 -> 4.96
        //   p99.9 -> rank 3.996 -> 4.996
        let p = percentiles(&[5.0, 3.0, 1.0, 4.0, 2.0]).expect("non-empty input");
        assert_eq!(p.n, 5);
        assert!((p.p50 - 3.0).abs() < 1e-12);
        assert!((p.p95 - 4.8).abs() < 1e-12);
        assert!((p.p99 - 4.96).abs() < 1e-12);
        assert!((p.p999 - 4.996).abs() < 1e-12);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn empty_inputs_yield_none_not_garbage() {
        assert_eq!(percentiles(&[]), None);
        assert_eq!(bootstrap_ci(&[], 50.0, 100, 0.95, 1), None);
        assert_eq!(bootstrap_ci(&[1.0], 50.0, 0, 0.95, 1), None);
    }

    #[test]
    fn single_sample_ci_collapses_to_the_sample() {
        let ci = bootstrap_ci(&[3.25], 50.0, 200, 0.95, 9).expect("non-degenerate call");
        assert_eq!(ci.lo, 3.25);
        assert_eq!(ci.hi, 3.25);
    }

    #[test]
    fn all_equal_samples_give_a_point_interval() {
        let ci = bootstrap_ci(&[2.0; 8], 99.0, 300, 0.95, 4).expect("non-degenerate call");
        assert_eq!(ci.lo, 2.0);
        assert_eq!(ci.hi, 2.0);
    }

    #[test]
    fn ci_brackets_the_statistic_and_stays_in_range() {
        let samples: Vec<f64> = (1..=40).map(|i| i as f64).collect();
        let ci = bootstrap_ci(&samples, 50.0, 1000, 0.95, 11).expect("non-degenerate call");
        let m = median(&samples).expect("non-empty");
        assert!(
            ci.lo <= m && m <= ci.hi,
            "CI [{}, {}] misses {m}",
            ci.lo,
            ci.hi
        );
        assert!(ci.lo >= 1.0 && ci.hi <= 40.0, "CI escapes the sample range");
        assert!(
            ci.lo < ci.hi,
            "40 distinct samples should give a real interval"
        );
    }

    #[test]
    fn bootstrap_is_seed_deterministic() {
        let samples = [1.0, 5.0, 2.5, 9.0, 4.0, 4.5, 7.0];
        let a = bootstrap_ci(&samples, 99.0, 500, 0.95, 77).expect("non-degenerate call");
        let b = bootstrap_ci(&samples, 99.0, 500, 0.95, 77).expect("non-degenerate call");
        assert_eq!(a, b);
        // A different seed perturbs the resamples. Checked at the median
        // of a wide sample — extreme percentiles of a 7-point sample are
        // discrete enough that two seeds can tie by coincidence.
        let wide: Vec<f64> = (0..200).map(|i| (i as f64).sin() * 10.0).collect();
        let c = bootstrap_ci(&wide, 50.0, 500, 0.95, 77).expect("non-degenerate call");
        let d = bootstrap_ci(&wide, 50.0, 500, 0.95, 78).expect("non-degenerate call");
        assert!(c != d, "a different seed should perturb the resamples");
    }
}
