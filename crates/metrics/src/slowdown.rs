//! FCT slowdown analysis (Figures 10–13).
//!
//! The paper plots *FCT slowdown* — achieved FCT divided by the
//! theoretical minimum on an idle network — as a function of flow size,
//! with "each data point represent\[ing\] 1% of flows": flows are sorted by
//! size, partitioned into equal-count bins, and each bin contributes one
//! point at its largest flow size with the requested percentile of the
//! slowdowns inside the bin.

use crate::percentile_sorted;

/// One completed flow's contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowdownRecord {
    /// Flow size in bytes.
    pub size: u64,
    /// Achieved FCT divided by ideal FCT (≥ 1 for a correct simulator).
    pub slowdown: f64,
}

/// One plotted point: a size bin and its slowdown statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowdownPoint {
    /// Largest flow size in the bin (the x coordinate).
    pub size: u64,
    /// Number of flows in the bin.
    pub count: usize,
    /// Requested upper percentile (e.g. 99.9%) of slowdown in the bin.
    pub tail: f64,
    /// Median slowdown in the bin.
    pub median: f64,
    /// Mean slowdown in the bin.
    pub mean: f64,
}

/// The full binned table for one protocol run.
#[derive(Debug, Clone)]
pub struct SlowdownTable {
    /// Points in ascending size order.
    pub points: Vec<SlowdownPoint>,
    /// The percentile used for [`SlowdownPoint::tail`].
    pub tail_percentile: f64,
}

impl SlowdownTable {
    /// Build the table: sort by size, split into `n_bins` equal-count
    /// bins (the paper uses 100, i.e. 1% of flows per point), and compute
    /// the `tail_percentile` (e.g. 99.9) and median slowdown per bin.
    ///
    /// If there are fewer records than bins, each record becomes its own
    /// bin.
    pub fn build(mut records: Vec<SlowdownRecord>, n_bins: usize, tail_percentile: f64) -> Self {
        assert!(n_bins > 0, "need at least one bin");
        records.sort_by(|a, b| {
            a.size
                .cmp(&b.size)
                .then(a.slowdown.partial_cmp(&b.slowdown).expect("NaN slowdown"))
        });
        let n = records.len();
        let bins = n_bins.min(n.max(1));
        let mut points = Vec::with_capacity(bins);
        if n == 0 {
            return SlowdownTable {
                points,
                tail_percentile,
            };
        }
        for b in 0..bins {
            let lo = b * n / bins;
            let hi = ((b + 1) * n / bins).max(lo + 1);
            let chunk = &records[lo..hi.min(n)];
            if chunk.is_empty() {
                continue;
            }
            let mut sl: Vec<f64> = chunk.iter().map(|r| r.slowdown).collect();
            sl.sort_by(|a, b| a.partial_cmp(b).expect("NaN slowdown"));
            points.push(SlowdownPoint {
                size: chunk.last().expect("non-empty").size,
                count: chunk.len(),
                tail: percentile_sorted(&sl, tail_percentile),
                median: percentile_sorted(&sl, 50.0),
                mean: sl.iter().sum::<f64>() / sl.len() as f64,
            });
        }
        SlowdownTable {
            points,
            tail_percentile,
        }
    }

    /// Mean of the tail column over bins above `min_size` (a more stable
    /// comparison statistic than the single worst bin).
    pub fn mean_tail_above(&self, min_size: u64) -> Option<f64> {
        let v: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.size > min_size)
            .map(|p| p.tail)
            .collect();
        (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(size: u64, slowdown: f64) -> SlowdownRecord {
        SlowdownRecord { size, slowdown }
    }

    #[test]
    fn bins_are_equal_count_and_sorted() {
        let recs: Vec<_> = (0..100).map(|i| rec(i * 1000 + 1, 2.0)).collect();
        let t = SlowdownTable::build(recs, 10, 99.0);
        assert_eq!(t.points.len(), 10);
        for p in &t.points {
            assert_eq!(p.count, 10);
        }
        // x coordinates ascend.
        for w in t.points.windows(2) {
            assert!(w[1].size > w[0].size);
        }
        assert_eq!(t.points.last().unwrap().size, 99 * 1000 + 1);
    }

    #[test]
    fn tail_and_median_computed_per_bin() {
        // One bin: sizes equal, slowdowns 1..=100.
        let recs: Vec<_> = (1..=100).map(|i| rec(500, i as f64)).collect();
        let t = SlowdownTable::build(recs, 1, 99.0);
        let p = &t.points[0];
        assert!((p.median - 50.5).abs() < 1e-9);
        assert!(p.tail > 98.0);
        assert!((p.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn fewer_records_than_bins() {
        let recs = vec![rec(10, 1.5), rec(20, 2.5), rec(30, 3.5)];
        let t = SlowdownTable::build(recs, 100, 99.9);
        assert_eq!(t.points.len(), 3);
        assert_eq!(t.points[0].count, 1);
        assert!((t.points[2].tail - 3.5).abs() < 1e-12);
    }

    #[test]
    fn empty_input_is_empty_table() {
        let t = SlowdownTable::build(vec![], 100, 99.9);
        assert!(t.points.is_empty());
        assert_eq!(t.mean_tail_above(0), None);
    }

    #[test]
    fn mean_tail_above_filters_small_flows() {
        let recs = vec![
            rec(1_000, 50.0),     // small flow, bad slowdown
            rec(2_000_000, 10.0), // long flow
            rec(3_000_000, 20.0), // long flow, worse
        ];
        let t = SlowdownTable::build(recs, 3, 99.9);
        assert_eq!(t.mean_tail_above(1_000_000), Some(15.0));
    }
}
