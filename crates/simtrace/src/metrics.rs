//! Metrics registry: ordered counters and log-scale histograms.
//!
//! Subsystems publish into a [`MetricsRegistry`] at the end of a run
//! (`Port::publish_metrics`, `Network::publish_metrics`, the CC trait's
//! `publish_metrics`). Keys are dotted paths like `"port.0.1.tx_bytes"`
//! — integers only, never floats, so keys sort and serialize
//! byte-stably. Storage is `BTreeMap` to keep iteration deterministic.

use std::collections::BTreeMap;

use minijson::{obj, Value};

/// A fixed-bucket base-2 log-scale histogram of `u64` samples.
///
/// Bucket `b` holds samples whose bit length is `b` (i.e. values in
/// `[2^(b-1), 2^b)`; bucket 0 holds exactly the value 0). 65 buckets
/// cover the whole `u64` range with no configuration and no floats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (u64::BITS - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Occupied buckets as `(lower_bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| {
                let lo = if b == 0 { 0 } else { 1u64 << (b - 1) };
                (lo, n)
            })
            .collect()
    }

    /// JSON form: scalar stats plus `[lower_bound, count]` bucket pairs.
    pub fn to_value(&self) -> Value {
        obj([
            ("count", Value::from(self.count)),
            ("sum", Value::from(self.sum)),
            ("min", Value::from(self.min())),
            ("max", Value::from(self.max())),
            (
                "buckets",
                Value::Arr(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(lo, n)| Value::Arr(vec![Value::from(lo), Value::from(n)]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Ordered counters and histograms published by subsystems.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `delta` to the counter `key` (creating it at zero).
    pub fn counter_add(&mut self, key: &str, delta: u64) {
        let c = self.counters.entry(key.to_owned()).or_insert(0);
        *c = c.saturating_add(delta);
    }

    /// Set the counter `key` to `value` (last write wins).
    pub fn counter_set(&mut self, key: &str, value: u64) {
        self.counters.insert(key.to_owned(), value);
    }

    /// Current value of a counter, if present.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters.get(key).copied()
    }

    /// Record one sample into the histogram `key`.
    pub fn histogram_record(&mut self, key: &str, value: u64) {
        self.histograms
            .entry(key.to_owned())
            .or_default()
            .record(value);
    }

    /// Record a non-negative float sample, truncated to integer.
    ///
    /// The only lossy float→int conversion in the crate: histogram
    /// buckets are base-2 decades, so sub-integer precision is noise.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "log-scale bucketing; sub-integer precision is immaterial"
    )]
    pub fn histogram_record_f64(&mut self, key: &str, value: f64) {
        self.histogram_record(key, value.max(0.0) as u64);
    }

    /// The histogram at `key`, if present.
    pub fn histogram(&self, key: &str) -> Option<&LogHistogram> {
        self.histograms.get(key)
    }

    /// Whether nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Fold another registry into this one (counters add, histograms
    /// would collide — callers namespace keys per run).
    pub fn absorb(&mut self, other: MetricsRegistry) {
        for (k, v) in other.counters {
            let c = self.counters.entry(k).or_insert(0);
            *c = c.saturating_add(v);
        }
        for (k, h) in other.histograms {
            self.histograms.insert(k, h);
        }
    }

    /// JSON form: `{"counters": {…}, "histograms": {…}}`, key-sorted.
    pub fn to_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Value::from(v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_value()))
            .collect();
        obj([
            ("counters", Value::Obj(counters)),
            ("histograms", Value::Obj(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 2, 3, 4, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        let buckets = h.nonzero_buckets();
        // 0 → bucket lo 0; 1 → lo 1; 2,3 → lo 2; 4 → lo 4; 1024 → lo 1024.
        assert_eq!(buckets[0], (0, 1));
        assert_eq!(buckets[1], (1, 1));
        assert_eq!(buckets[2], (2, 2));
        assert_eq!(buckets[3], (4, 1));
        assert_eq!(buckets[4], (1024, 1));
        assert_eq!(buckets[5], (1u64 << 63, 1));
    }

    #[test]
    fn empty_histogram_has_no_extremes() {
        let h = LogHistogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.to_value()["min"], minijson::Value::Null);
    }

    #[test]
    fn registry_counters_accumulate() {
        let mut r = MetricsRegistry::new();
        r.counter_add("port.tx_bytes", 100);
        r.counter_add("port.tx_bytes", 50);
        r.counter_set("engine.events", 7);
        assert_eq!(r.counter("port.tx_bytes"), Some(150));
        assert_eq!(r.counter("engine.events"), Some(7));
        assert_eq!(r.counter("missing"), None);
    }

    #[test]
    fn f64_samples_truncate_and_clamp() {
        let mut r = MetricsRegistry::new();
        r.histogram_record_f64("h", 1000.9);
        r.histogram_record_f64("h", -5.0);
        let h = r.histogram("h").expect("histogram created");
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
    }

    #[test]
    fn json_is_key_sorted_and_parseable() {
        let mut r = MetricsRegistry::new();
        r.counter_add("z.last", 1);
        r.counter_add("a.first", 2);
        r.histogram_record("fct_ns", 5_000);
        let text = r.to_value().pretty();
        let v = Value::parse(&text).expect("registry emits valid JSON");
        let keys: Vec<&str> = v["counters"]
            .as_object()
            .expect("counters object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["a.first", "z.last"]);
        assert_eq!(v["histograms"]["fct_ns"]["count"].as_u64(), Some(1));
    }

    #[test]
    fn absorb_merges_counters() {
        let mut a = MetricsRegistry::new();
        a.counter_add("n", 1);
        let mut b = MetricsRegistry::new();
        b.counter_add("n", 2);
        b.histogram_record("h", 9);
        a.absorb(b);
        assert_eq!(a.counter("n"), Some(3));
        assert!(a.histogram("h").is_some());
    }
}
