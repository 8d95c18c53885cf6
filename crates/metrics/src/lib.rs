//! `metrics` — the measurement math behind the paper's figures.
//!
//! * [`jain`] — the Jain fairness index over instantaneous rates
//!   (Figures 1, 5, 6).
//! * [`percentile`] — interpolated percentile estimation (the 99.9% tails
//!   of Figures 10/11 and the medians of Figures 12/13).
//! * [`SlowdownTable`] — FCT-slowdown analysis binned by flow size, one
//!   point per percentile-of-flows group, exactly how the paper plots
//!   "each data point represents 1% of flows".

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod slowdown;

pub use slowdown::{SlowdownPoint, SlowdownRecord, SlowdownTable};

/// The Jain fairness index of a rate allocation:
/// `(Σx)² / (n · Σx²)` — 1.0 when perfectly fair, `1/n` when one flow
/// holds everything.
///
/// Zero-rate flows count (a starved flow is the unfairness we are
/// measuring). An empty or all-zero slice returns 1.0 (nothing to be
/// unfair about).
pub fn jain(rates: &[f64]) -> f64 {
    let n = rates.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = rates.iter().sum();
    let sum_sq: f64 = rates.iter().map(|r| r * r).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// Linearly interpolated percentile of an *unsorted* slice
/// (`p` in `[0, 100]`). Uses the standard "linear interpolation between
/// closest ranks" definition (NIST R-7). Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty data");
    assert!((0.0..=100.0).contains(&p), "p must be in [0, 100]");
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_sorted(&v, p)
}

/// [`percentile`] over data the caller has already sorted ascending.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty data");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Convenience: the median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The *unfairness integral* of a Jain-index time series:
/// `∫ (1 − J(t)) dt` over the series span, by trapezoidal rule.
///
/// This is a scalar "how unfair, for how long" summary: a protocol that
/// converges instantly scores ~0; one that sits at J = 0.5 for a
/// millisecond scores ~500 (in µs·unfairness when `t` is in µs). It is a
/// strictly better comparison statistic than "time to first reach
/// J ≥ 0.9", which is noisy under rate-sampling quantization.
pub fn unfairness_integral(series: &[(f64, f64)]) -> f64 {
    if series.len() < 2 {
        return 0.0;
    }
    let mut acc = 0.0;
    for w in series.windows(2) {
        let (t0, j0) = w[0];
        let (t1, j1) = w[1];
        let dt = t1 - t0;
        debug_assert!(dt >= 0.0, "series must be time-ordered");
        acc += dt * ((1.0 - j0) + (1.0 - j1)) / 2.0;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::DetRng;

    #[test]
    fn jain_perfectly_fair() {
        assert!((jain(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_single_hog() {
        // One flow with everything: index = 1/n.
        let idx = jain(&[10.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_paper_example_two_to_one() {
        // Two flows at B/2, one at B (the new line-rate flow): the
        // motivating example of Section IV.
        let idx = jain(&[0.5, 0.5, 1.0]);
        let expect = (2.0f64) * 2.0 / (3.0 * 1.5);
        assert!((idx - expect).abs() < 1e-12);
        assert!(idx < 0.9);
    }

    #[test]
    fn jain_scale_invariant() {
        let a = jain(&[1.0, 2.0, 3.0]);
        let b = jain(&[10.0, 20.0, 30.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn jain_degenerate_cases() {
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[0.0, 0.0]), 1.0);
        assert_eq!(jain(&[7.0]), 1.0);
    }

    #[test]
    fn percentile_basics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert!((percentile(&v, 75.0) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
    }

    #[test]
    fn p999_picks_the_tail() {
        let mut v: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        v.reverse();
        let p = percentile(&v, 99.9);
        assert!(p > 997.0, "{p}");
    }

    /// Tiny samples: one element is every percentile; two interpolate
    /// linearly between them.
    #[test]
    fn percentile_of_one_and_two_elements() {
        for p in [0.0, 50.0, 99.9, 100.0] {
            assert_eq!(percentile(&[7.5], p), 7.5, "p {p}");
            assert_eq!(percentile_sorted(&[7.5], p), 7.5, "p {p}");
        }
        for (p, want) in [(0.0, 2.0), (50.0, 4.0), (100.0, 6.0)] {
            assert_eq!(percentile_sorted(&[2.0, 6.0], p), want, "p {p}");
            assert_eq!(percentile(&[6.0, 2.0], p), want, "unsorted, p {p}");
        }
        let p999 = percentile(&[6.0, 2.0], 99.9);
        assert!((p999 - 5.996).abs() < 1e-12 && p999 < 6.0, "{p999}");
        assert_eq!(percentile_sorted(&[2.0, 6.0], 99.9), p999);
    }

    #[test]
    fn median_shortcut() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn unfairness_integral_basics() {
        // Perfectly fair forever: zero.
        assert_eq!(unfairness_integral(&[(0.0, 1.0), (100.0, 1.0)]), 0.0);
        // Flat J = 0.5 for 100 us: 50.
        assert!((unfairness_integral(&[(0.0, 0.5), (100.0, 0.5)]) - 50.0).abs() < 1e-12);
        // Linear ramp 0 -> 1 over 10 us: trapezoid = 5.
        assert!((unfairness_integral(&[(0.0, 0.0), (10.0, 1.0)]) - 5.0).abs() < 1e-12);
        // Degenerate inputs.
        assert_eq!(unfairness_integral(&[]), 0.0);
        assert_eq!(unfairness_integral(&[(5.0, 0.3)]), 0.0);
    }

    #[test]
    fn unfairness_integral_orders_protocols() {
        // A fast-converging series must score lower than a slow one.
        let fast = [(0.0, 0.5), (10.0, 0.95), (100.0, 1.0)];
        let slow = [(0.0, 0.5), (50.0, 0.6), (100.0, 1.0)];
        assert!(unfairness_integral(&fast) < unfairness_integral(&slow));
    }

    /// Jain is always in (0, 1] and equals 1 iff all rates equal.
    #[test]
    fn prop_jain_bounds() {
        let mut rng = DetRng::new(0x7a1);
        for case in 0..256 {
            let rates: Vec<f64> = (0..1 + rng.below(49)).map(|_| 1e12 * rng.f64()).collect();
            let j = jain(&rates);
            assert!(j > 0.0 && j <= 1.0 + 1e-12, "case {case}: jain {j}");
        }
    }

    /// Percentiles are monotone in p and bounded by the extremes.
    #[test]
    fn prop_percentile_monotone() {
        let mut rng = DetRng::new(0x9c7);
        for case in 0..256 {
            let mut vals: Vec<f64> = (0..1 + rng.below(99))
                .map(|_| -1e6 + 2e6 * rng.f64())
                .collect();
            let p1 = 100.0 * rng.f64();
            let p2 = 100.0 * rng.f64();
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (lo, hi) = (p1.min(p2), p1.max(p2));
            let a = percentile_sorted(&vals, lo);
            let b = percentile_sorted(&vals, hi);
            assert!(a <= b + 1e-9, "case {case}");
            assert!(a >= vals[0] - 1e-9, "case {case}");
            assert!(b <= vals[vals.len() - 1] + 1e-9, "case {case}");
        }
    }
}
