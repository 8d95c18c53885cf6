//! Machine-readable result summaries.
//!
//! The `repro` binary's `--json` mode emits these records so downstream
//! plotting (matplotlib, gnuplot, spreadsheets) can consume experiment
//! output without scraping text tables.

use minijson::{arr, obj, Value};

use crate::scenarios::{DatacenterResult, IncastResult, LONG_FLOW_BYTES};

/// Payloads that can render themselves as a JSON tree.
pub trait ToJson {
    /// Build the JSON value for this payload.
    fn to_value(&self) -> Value;
}

/// Scalar summary of one incast run.
#[derive(Debug, Clone, PartialEq)]
pub struct IncastSummary {
    /// Figure-legend label.
    pub label: String,
    /// Time (µs) to converge to Jain ≥ 0.9 and stay there.
    pub converge_us_at_0_9: Option<f64>,
    /// ∫(1 − J) dt over the run, µs.
    pub unfairness_integral: f64,
    /// Peak bottleneck queue, bytes.
    pub peak_queue_bytes: u64,
    /// Mean bottleneck queue, bytes.
    pub mean_queue_bytes: f64,
    /// Last-minus-first completion, µs.
    pub finish_spread_us: f64,
    /// Whether every flow completed.
    pub all_finished: bool,
    /// `(start µs, finish µs)` per flow, start-ordered.
    pub start_finish_us: Vec<(f64, f64)>,
}

impl From<&IncastResult> for IncastSummary {
    fn from(r: &IncastResult) -> Self {
        IncastSummary {
            label: r.label.clone(),
            converge_us_at_0_9: r.convergence_time(0.9),
            unfairness_integral: r.unfairness_integral(),
            peak_queue_bytes: r.peak_queue(),
            mean_queue_bytes: r.mean_queue(),
            finish_spread_us: r.finish_spread_us(),
            all_finished: r.all_finished,
            start_finish_us: r.start_finish(),
        }
    }
}

impl ToJson for IncastSummary {
    fn to_value(&self) -> Value {
        obj([
            ("label", Value::from(self.label.as_str())),
            ("converge_us_at_0_9", Value::from(self.converge_us_at_0_9)),
            ("unfairness_integral", Value::from(self.unfairness_integral)),
            ("peak_queue_bytes", Value::from(self.peak_queue_bytes)),
            ("mean_queue_bytes", Value::from(self.mean_queue_bytes)),
            ("finish_spread_us", Value::from(self.finish_spread_us)),
            ("all_finished", Value::from(self.all_finished)),
            (
                "start_finish_us",
                arr(self
                    .start_finish_us
                    .iter()
                    .map(|(s, f)| arr([*s, *f]))
                    .collect::<Vec<_>>()),
            ),
        ])
    }
}

/// One slowdown bin in a datacenter summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowdownBin {
    /// Largest flow size in the bin, bytes.
    pub size: u64,
    /// Tail-percentile slowdown (99.9% by default).
    pub tail: f64,
    /// Median slowdown.
    pub median: f64,
}

impl ToJson for SlowdownBin {
    fn to_value(&self) -> Value {
        obj([
            ("size", Value::from(self.size)),
            ("tail", Value::from(self.tail)),
            ("median", Value::from(self.median)),
        ])
    }
}

/// Scalar summary of one datacenter run.
#[derive(Debug, Clone, PartialEq)]
pub struct DatacenterSummary {
    /// Figure-legend label.
    pub label: String,
    /// Flows offered.
    pub n_flows: usize,
    /// Flows completed before the drain deadline.
    pub completed: usize,
    /// Mean tail slowdown over bins with size > 1 MB.
    pub long_flow_tail_mean: Option<f64>,
    /// All bins, size-ascending.
    pub bins: Vec<SlowdownBin>,
}

impl From<&DatacenterResult> for DatacenterSummary {
    fn from(r: &DatacenterResult) -> Self {
        DatacenterSummary {
            label: r.label.clone(),
            n_flows: r.n_flows,
            completed: r.completed,
            long_flow_tail_mean: r.table.mean_tail_above(LONG_FLOW_BYTES),
            bins: r
                .table
                .points
                .iter()
                .map(|p| SlowdownBin {
                    size: p.size,
                    tail: p.tail,
                    median: p.median,
                })
                .collect(),
        }
    }
}

impl ToJson for DatacenterSummary {
    fn to_value(&self) -> Value {
        obj([
            ("label", Value::from(self.label.as_str())),
            ("n_flows", Value::from(self.n_flows)),
            ("completed", Value::from(self.completed)),
            ("long_flow_tail_mean", Value::from(self.long_flow_tail_mean)),
            (
                "bins",
                Value::Arr(self.bins.iter().map(ToJson::to_value).collect()),
            ),
        ])
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_value).collect())
    }
}

/// Serialize any figure payload to pretty JSON.
pub fn to_json<T: ToJson>(value: &T) -> String {
    value.to_value().pretty()
}

/// Serialize a figure payload together with a traced run's metrics
/// registry: `{"summary": ..., "metrics": {"counters": ..., "histograms":
/// ...}}`. This is what the harness writes next to trace files so the
/// counters land beside the numbers they explain.
pub fn to_json_with_metrics<T: ToJson>(value: &T, tracer: &simtrace::Tracer) -> String {
    obj([
        ("summary", value.to_value()),
        ("metrics", tracer.metrics().to_value()),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::Bytes;
    use metrics::{SlowdownRecord, SlowdownTable};

    fn incast_result() -> IncastResult {
        IncastResult {
            label: "HPCC".into(),
            jain: vec![(0.0, 0.5), (10.0, 0.95), (20.0, 1.0)],
            queue: vec![(0.0, 100), (10.0, 50)],
            fcts: vec![netsim::FctRecord {
                flow: netsim::FlowId(0),
                size: Bytes::new(1000),
                start: dcsim::Nanos::from_ns(0),
                finish: dcsim::Nanos::from_ns(5_000),
            }],
            raw: vec![(0, 1000, 1.25)],
            all_finished: true,
            outcome: netsim::RunOutcome::Completed,
            events_handled: 0,
            occupancy_hwm: 0,
            trace: None,
        }
    }

    #[test]
    fn incast_summary_roundtrips_to_json() {
        let s = IncastSummary::from(&incast_result());
        assert_eq!(s.label, "HPCC");
        assert_eq!(s.peak_queue_bytes, 100);
        assert_eq!(s.converge_us_at_0_9, Some(10.0));
        let json = to_json(&s);
        assert!(json.contains("\"label\": \"HPCC\""));
        assert!(json.contains("\"all_finished\": true"));
        // Valid JSON (parse back).
        let v = minijson::Value::parse(&json).expect("exporter emits valid JSON");
        assert_eq!(v["peak_queue_bytes"].as_u64(), Some(100));
    }

    #[test]
    fn metrics_ride_along_with_the_summary() {
        let mut tracer = simtrace::Tracer::new(simtrace::TraceConfig::counters());
        tracer.metrics_mut().counter_add("net.flows", 3);
        let s = IncastSummary::from(&incast_result());
        let json = to_json_with_metrics(&s, &tracer);
        let v = minijson::Value::parse(&json).expect("exporter emits valid JSON");
        assert_eq!(v["summary"]["label"].as_str(), Some("HPCC"));
        assert_eq!(v["metrics"]["counters"]["net.flows"].as_u64(), Some(3));
    }

    #[test]
    fn datacenter_summary_includes_bins() {
        let table = SlowdownTable::build(
            vec![
                SlowdownRecord {
                    size: 1_000,
                    slowdown: 2.0,
                },
                SlowdownRecord {
                    size: 2_000_000,
                    slowdown: 10.0,
                },
            ],
            2,
            99.9,
        );
        let r = DatacenterResult {
            label: "Swift".into(),
            table,
            n_flows: 2,
            completed: 2,
            raw: vec![(0, 1_000, 2.0), (1, 2_000_000, 10.0)],
            outcome: netsim::RunOutcome::Completed,
            events_handled: 0,
            occupancy_hwm: 0,
            trace: None,
        };
        let s = DatacenterSummary::from(&r);
        assert_eq!(s.bins.len(), 2);
        assert_eq!(s.long_flow_tail_mean, Some(10.0));
        let json = to_json(&s);
        let v = minijson::Value::parse(&json).expect("exporter emits valid JSON");
        assert_eq!(v["bins"][1]["size"].as_u64(), Some(2_000_000));
    }
}
