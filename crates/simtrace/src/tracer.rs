//! The event buffer and its JSONL / Chrome exports.

use dcsim::Nanos;
use minijson::{obj, Value};

use crate::config::{Subsystem, TraceConfig, TraceLevel};
use crate::event::TraceEvent;
use crate::metrics::MetricsRegistry;

/// Buffers structured events and end-of-run metrics for one simulation.
///
/// Owned by the simulated network (or any other producer); recording is
/// gated by [`Tracer::wants`] so disabled configurations never touch
/// the buffer. Time comes from the caller's simulation clock, so the
/// stream is deterministic and ordered.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    cfg: TraceConfig,
    events: Vec<(Nanos, TraceEvent)>,
    metrics: MetricsRegistry,
}

impl Tracer {
    /// A disabled tracer (records nothing).
    pub fn off() -> Self {
        Tracer::default()
    }

    /// A tracer with the given runtime configuration.
    pub fn new(cfg: TraceConfig) -> Self {
        Tracer {
            cfg,
            ..Tracer::default()
        }
    }

    /// The runtime configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Whether full-stream events from `sub` should be recorded.
    #[inline]
    pub fn wants(&self, sub: Subsystem) -> bool {
        self.cfg.level == TraceLevel::Full && self.cfg.subsystems.contains(sub)
    }

    /// Whether a CC state sample should be recorded for a flow that has
    /// processed `acks_seen` acknowledgements (sampled every
    /// `cc_sample_every`-th ACK).
    #[inline]
    pub fn wants_cc(&self, acks_seen: u64) -> bool {
        self.wants(Subsystem::Cc)
            && acks_seen.is_multiple_of(u64::from(self.cfg.cc_sample_every.max(1)))
    }

    /// Whether end-of-run counter/histogram publication is on.
    #[inline]
    pub fn counters_enabled(&self) -> bool {
        self.cfg.level >= TraceLevel::Counters
    }

    /// Append one event at simulation time `t` (no-op unless
    /// [`Tracer::wants`] its subsystem).
    #[inline]
    pub fn record(&mut self, t: Nanos, ev: TraceEvent) {
        if self.wants(ev.subsystem()) {
            if self.events.len() == self.events.capacity() {
                // Traced runs buffer every event until the end of the run;
                // grow in large steps so recording stays cheap.
                self.events.reserve(4096);
            }
            self.events.push((t, ev));
        }
    }

    /// The buffered events, in recording order.
    pub fn events(&self) -> &[(Nanos, TraceEvent)] {
        &self.events
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The metrics registry (for reading and serialization).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The metrics registry, writable (for publication).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Deterministic JSONL: one compact object per event, one per line,
    /// terminated by a trailing newline (empty string when no events).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (t, ev) in &self.events {
            out.push_str(&ev.to_value(*t).to_string());
            out.push('\n');
        }
        out
    }

    /// Chrome `trace_event` JSON (object form with a `traceEvents`
    /// array), loadable in Perfetto / `chrome://tracing`.
    pub fn to_chrome(&self) -> String {
        let events: Vec<Value> = self
            .events
            .iter()
            .map(|(t, ev)| ev.chrome_value(*t))
            .collect();
        obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::from("ns")),
        ])
        .pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(flow: u32) -> TraceEvent {
        TraceEvent::FlowStart { flow, bytes: 1_000 }
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tr = Tracer::off();
        tr.record(Nanos::from_ns(10), ev(0));
        assert!(tr.is_empty());
        assert!(!tr.counters_enabled());
        assert_eq!(tr.to_jsonl(), "");
    }

    #[test]
    fn counters_level_skips_event_buffer() {
        let mut tr = Tracer::new(TraceConfig::counters());
        tr.record(Nanos::from_ns(10), ev(0));
        assert!(tr.is_empty());
        assert!(tr.counters_enabled());
    }

    #[test]
    fn full_tracer_buffers_and_filters() {
        let mut tr = Tracer::new(TraceConfig::full().with_filter(Subsystem::Flow));
        tr.record(Nanos::from_ns(10), ev(1));
        tr.record(
            Nanos::from_ns(20),
            TraceEvent::PfcPause {
                node: 0,
                port: 0,
                paused: true,
            },
        );
        assert_eq!(tr.len(), 1, "pfc filtered out");
        let jsonl = tr.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        let v = Value::parse(jsonl.lines().next().expect("one line")).expect("jsonl line parses");
        assert_eq!(v["ev"].as_str(), Some("flow_start"));
    }

    #[test]
    fn cc_sampling_cadence() {
        let tr = Tracer::new(TraceConfig::full().with_cc_sample_every(4));
        assert!(tr.wants_cc(0));
        assert!(!tr.wants_cc(1));
        assert!(!tr.wants_cc(3));
        assert!(tr.wants_cc(4));
    }

    #[test]
    fn chrome_export_has_trace_events_array() {
        let mut tr = Tracer::new(TraceConfig::full());
        tr.record(Nanos::from_ns(10), ev(0));
        tr.record(
            Nanos::from_ns(5_000),
            TraceEvent::FlowFinish {
                flow: 0,
                bytes: 1_000,
                fct_ns: 4_990,
            },
        );
        let v = Value::parse(&tr.to_chrome()).expect("chrome export parses");
        let evs = v["traceEvents"].as_array().expect("traceEvents array");
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1]["ph"].as_str(), Some("X"));
    }
}
