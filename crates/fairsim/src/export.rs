//! Machine-readable result summaries.
//!
//! The `repro` binary's `--json` mode emits these records so downstream
//! plotting (matplotlib, gnuplot, spreadsheets) can consume experiment
//! output without scraping text tables. One JSON tree per result family;
//! a figure's JSON is the array of its runs' trees.

use minijson::{arr, obj, Value};

use crate::scenarios::{DatacenterResult, IncastResult, LONG_FLOW_BYTES};

/// Scalar summary of one incast run, plus its `(start µs, finish µs)`
/// pair per flow, start-ordered.
pub fn incast_value(r: &IncastResult) -> Value {
    let start_finish: Vec<Value> = r
        .start_finish()
        .iter()
        .map(|&(start, finish)| arr([start, finish]))
        .collect();
    obj([
        ("label", Value::from(r.label.as_str())),
        ("converge_us_at_0_9", Value::from(r.convergence_time(0.9))),
        ("unfairness_integral", Value::from(r.unfairness_integral())),
        ("peak_queue_bytes", Value::from(r.peak_queue())),
        ("mean_queue_bytes", Value::from(r.mean_queue())),
        ("finish_spread_us", Value::from(r.finish_spread_us())),
        ("all_finished", Value::from(r.all_finished)),
        ("start_finish_us", Value::Arr(start_finish)),
    ])
}

/// Scalar summary of one datacenter run, plus every slowdown bin
/// (size-ascending; `tail` is the 99.9th percentile).
pub fn datacenter_value(r: &DatacenterResult) -> Value {
    let bins: Vec<Value> = r
        .table
        .points
        .iter()
        .map(|p| {
            obj([
                ("size", Value::from(p.size)),
                ("tail", Value::from(p.tail)),
                ("median", Value::from(p.median)),
            ])
        })
        .collect();
    obj([
        ("label", Value::from(r.label.as_str())),
        ("n_flows", Value::from(r.n_flows)),
        ("completed", Value::from(r.completed)),
        (
            "long_flow_tail_mean",
            Value::from(r.table.mean_tail_above(LONG_FLOW_BYTES)),
        ),
        ("bins", Value::Arr(bins)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::Bytes;
    use metrics::{SlowdownRecord, SlowdownTable};

    #[test]
    fn incast_value_is_valid_json() {
        let r = IncastResult {
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
        };
        let json = incast_value(&r).pretty();
        assert!(json.contains("\"label\": \"HPCC\""));
        assert!(json.contains("\"all_finished\": true"));
        let v = Value::parse(&json).expect("exporter emits valid JSON");
        assert_eq!(v["peak_queue_bytes"].as_u64(), Some(100));
        assert_eq!(v["converge_us_at_0_9"].as_f64(), Some(10.0));
        assert_eq!(v["start_finish_us"][0][1].as_f64(), Some(5.0));
    }

    #[test]
    fn datacenter_value_includes_bins() {
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
        let v = Value::parse(&datacenter_value(&r).pretty()).expect("exporter emits valid JSON");
        assert_eq!(v["bins"].as_array().map(<[Value]>::len), Some(2));
        assert_eq!(v["bins"][1]["size"].as_u64(), Some(2_000_000));
        assert_eq!(v["long_flow_tail_mean"].as_f64(), Some(10.0));
    }
}
