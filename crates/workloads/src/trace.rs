//! Workload traces: serialize generated arrival lists so an experiment's
//! exact traffic can be archived, diffed, or replayed outside the
//! generator (the moral equivalent of the HPCC artifact's `flow.txt`
//! inputs).

use dcsim::{Bytes, Nanos};
use minijson::{obj, Value};

use crate::arrivals::FlowArrival;

/// One line of a serialized trace (plain integers so the JSON is
/// toolchain-neutral).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Source host index.
    pub src: usize,
    /// Destination host index.
    pub dst: usize,
    /// Flow size in bytes.
    pub size_bytes: u64,
    /// Start time in nanoseconds.
    pub start_ns: u64,
}

impl From<&FlowArrival> for TraceRecord {
    fn from(f: &FlowArrival) -> Self {
        TraceRecord {
            src: f.src,
            dst: f.dst,
            size_bytes: f.size.as_u64(),
            start_ns: f.start.as_u64(),
        }
    }
}

impl From<&TraceRecord> for FlowArrival {
    fn from(r: &TraceRecord) -> Self {
        FlowArrival {
            src: r.src,
            dst: r.dst,
            size: Bytes::new(r.size_bytes),
            start: Nanos::from_ns(r.start_ns),
        }
    }
}

/// Why a trace failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The input was not JSON at all.
    Json(minijson::ParseError),
    /// The JSON was well-formed but not shaped like a trace.
    Shape(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Json(e) => write!(f, "invalid JSON: {e}"),
            TraceError::Shape(msg) => write!(f, "invalid trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Serialize an arrival list to JSON.
pub fn to_json(flows: &[FlowArrival]) -> String {
    Value::Arr(
        flows
            .iter()
            .map(TraceRecord::from)
            .map(|r| {
                obj([
                    ("src", Value::from(r.src)),
                    ("dst", Value::from(r.dst)),
                    ("size_bytes", Value::from(r.size_bytes)),
                    ("start_ns", Value::from(r.start_ns)),
                ])
            })
            .collect(),
    )
    .to_string()
}

fn field(record: &Value, key: &str, index: usize) -> Result<u64, TraceError> {
    record[key]
        .as_u64()
        .ok_or_else(|| TraceError::Shape(format!("record {index}: missing integer `{key}`")))
}

/// Parse an arrival list from JSON (inverse of [`to_json`]).
pub fn from_json(json: &str) -> Result<Vec<FlowArrival>, TraceError> {
    let doc = Value::parse(json).map_err(TraceError::Json)?;
    let records = doc
        .as_array()
        .ok_or_else(|| TraceError::Shape("top level must be an array".into()))?;
    records
        .iter()
        .enumerate()
        .map(|(i, rec)| {
            let r = TraceRecord {
                src: field(rec, "src", i)? as usize,
                dst: field(rec, "dst", i)? as usize,
                size_bytes: field(rec, "size_bytes", i)?,
                start_ns: field(rec, "start_ns", i)?,
            };
            Ok(FlowArrival::from(&r))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{poisson_arrivals, ArrivalConfig};
    use crate::distributions::fb_hadoop;
    use dcsim::BitRate;

    fn sample_flows() -> Vec<FlowArrival> {
        poisson_arrivals(
            &ArrivalConfig {
                n_hosts: 8,
                host_rate: BitRate::from_gbps(100),
                load: 0.3,
                horizon: Nanos::from_micros(200),
                seed: 4,
            },
            &fb_hadoop(),
        )
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let flows = sample_flows();
        assert!(!flows.is_empty());
        let json = to_json(&flows);
        let back = from_json(&json).unwrap();
        assert_eq!(flows, back);
    }

    #[test]
    fn json_shape_is_stable() {
        let flows = vec![FlowArrival {
            src: 1,
            dst: 2,
            size: Bytes::new(1000),
            start: Nanos::from_ns(5_000),
        }];
        let json = to_json(&flows);
        assert_eq!(
            json,
            r#"[{"src":1,"dst":2,"size_bytes":1000,"start_ns":5000}]"#
        );
    }

    #[test]
    fn bad_json_is_an_error_not_a_panic() {
        assert!(from_json("not json").is_err());
        assert!(from_json(r#"[{"src":1}]"#).is_err());
        assert!(from_json(r#"{"src":1}"#).is_err());
    }
}
