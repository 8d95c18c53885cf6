//! Run instrumentation: flow-completion records, periodic throughput and
//! queue-depth samples.
//!
//! The paper's figures need three kinds of measurement:
//!
//! * **FCT records** (Figs. 2/3/8/9 scatter plots and Figs. 10-13 slowdown
//!   curves): `(flow, size, start, finish)` per completed flow.
//! * **Per-flow throughput samples** (Jain-index time series, Figs. 1/5/6):
//!   achieved goodput of each active flow over each sampling interval.
//! * **Queue-depth samples** (queue plots, Figs. 1/5/6): backlog of watched
//!   bottleneck ports at each sampling instant.

use dcsim::{Bytes, Nanos};

use crate::flow::Flow;
use crate::ids::{FlowId, NodeId, PortNo};

/// Completion record for one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FctRecord {
    /// Which flow.
    pub flow: FlowId,
    /// Flow size in payload bytes.
    pub size: Bytes,
    /// Sender start time.
    pub start: Nanos,
    /// Time the final acknowledgement reached the sender.
    pub finish: Nanos,
}

impl FctRecord {
    /// The flow completion time.
    pub fn fct(&self) -> Nanos {
        self.finish - self.start
    }
}

/// One periodic measurement instant.
#[derive(Debug, Clone)]
pub struct Sample {
    /// When the sample was taken.
    pub t: Nanos,
    /// Backlogs of the watched ports, in watch order, in bytes.
    pub queue_bytes: Vec<u64>,
    /// Goodput of each active flow over the interval ending at `t`,
    /// in bits/s, in ascending flow-id order. Flows that were inactive the
    /// whole interval are omitted.
    pub flow_rates: Vec<(FlowId, f64)>,
}

/// What to measure.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Interval between samples; `None` disables periodic sampling
    /// (FCTs are always recorded).
    pub sample_interval: Option<Nanos>,
    /// Stop sampling after this time (the experiment horizon).
    pub sample_until: Nanos,
    /// Egress ports whose backlog to record each sample.
    pub watch_ports: Vec<(NodeId, PortNo)>,
    /// Whether to record per-flow rates (disable for large datacenter runs
    /// where only FCTs matter — per-flow sampling is O(flows) per tick).
    pub track_flow_rates: bool,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            sample_interval: None,
            sample_until: Nanos::MAX,
            watch_ports: Vec::new(),
            track_flow_rates: false,
        }
    }
}

/// Collects measurements during a run.
#[derive(Debug, Default)]
pub struct Monitor {
    /// Configuration.
    pub cfg: MonitorConfig,
    /// Completed-flow records, in completion order.
    pub fcts: Vec<FctRecord>,
    /// Periodic samples, in time order.
    pub samples: Vec<Sample>,
    last_acked: Vec<u64>,
    last_sample_at: Nanos,
}

impl Monitor {
    /// A monitor with the given configuration.
    pub fn new(cfg: MonitorConfig) -> Self {
        Monitor {
            cfg,
            ..Default::default()
        }
    }

    /// Record a flow completion.
    pub fn record_fct(&mut self, rec: FctRecord) {
        if self.fcts.len() == self.fcts.capacity() {
            // Completions arrive between events; grow in large steps so
            // steady-state recording never reallocates mid-run.
            self.fcts.reserve(1024);
        }
        self.fcts.push(rec);
    }

    /// Take one periodic sample. `queue_bytes` must align with
    /// `cfg.watch_ports`.
    pub fn take_sample(&mut self, now: Nanos, queue_bytes: Vec<u64>, flows: &[Flow]) {
        let dt = now.saturating_sub(self.last_sample_at).as_secs_f64();
        let want = if self.cfg.track_flow_rates {
            flows.len()
        } else {
            0
        };
        let mut flow_rates = Vec::with_capacity(want);
        if self.samples.len() == self.samples.capacity() {
            // Same amortization as `record_fct`: sampling runs on the
            // event loop, so growth must happen in rare large steps.
            self.samples.reserve(256);
        }
        if self.cfg.track_flow_rates {
            self.last_acked.resize(flows.len(), 0);
            for f in flows {
                let i = f.id.idx();
                let delta = f.acked - self.last_acked[i];
                // A flow contributes if it was active at any point in the
                // interval: it started before `now` and either is still
                // running or finished within the interval.
                let finished_in_interval =
                    f.finished.map(|t| t > self.last_sample_at).unwrap_or(true);
                if f.spec.start <= now && finished_in_interval && dt > 0.0 {
                    flow_rates.push((f.id, delta as f64 * 8.0 / dt));
                }
                self.last_acked[i] = f.acked;
            }
        }
        self.samples.push(Sample {
            t: now,
            queue_bytes,
            flow_rates,
        });
        self.last_sample_at = now;
    }

    /// Whether another sample should be scheduled after `now`.
    pub fn wants_sample_after(&self, now: Nanos) -> Option<Nanos> {
        let iv = self.cfg.sample_interval?;
        let next = now + iv;
        (next <= self.cfg.sample_until).then_some(next)
    }

    /// All completed-flow records.
    pub fn fcts(&self) -> &[FctRecord] {
        &self.fcts
    }

    /// All periodic samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Publish run-level measurement counters and the FCT histogram into
    /// the metrics registry.
    pub fn publish_metrics(&self, reg: &mut simtrace::MetricsRegistry) {
        reg.counter_set("monitor.fcts", self.fcts.len() as u64);
        reg.counter_set("monitor.samples", self.samples.len() as u64);
        for r in &self.fcts {
            reg.histogram_record("monitor.fct_ns", r.fct().as_u64());
            reg.histogram_record("monitor.flow_bytes", r.size.as_u64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;
    use dcsim::BitRate;
    use faircc::{AckFeedback, CcMode, CongestionControl, SenderLimits};

    struct Dummy;
    impl CongestionControl for Dummy {
        fn on_ack(&mut self, _: &AckFeedback) {}
        fn limits(&self) -> SenderLimits {
            SenderLimits::rate_based(BitRate::from_gbps(100))
        }
        fn mode(&self) -> CcMode {
            CcMode::Rate
        }
        fn name(&self) -> &str {
            "dummy"
        }
    }

    fn flow(id: u32, start_us: u64) -> Flow {
        Flow::new(
            FlowId(id),
            FlowSpec {
                src: NodeId(id),
                dst: NodeId(100),
                size: Bytes::from_mb(1),
                start: Nanos::from_micros(start_us),
            },
            Box::new(Dummy),
        )
    }

    #[test]
    fn fct_math() {
        let r = FctRecord {
            flow: FlowId(0),
            size: Bytes::new(1000),
            start: Nanos::from_ns(100),
            finish: Nanos::from_ns(350),
        };
        assert_eq!(r.fct(), Nanos::from_ns(250));
    }

    #[test]
    fn sampling_computes_rates() {
        let mut m = Monitor::new(MonitorConfig {
            sample_interval: Some(Nanos::from_micros(10)),
            track_flow_rates: true,
            ..Default::default()
        });
        let mut flows = vec![flow(0, 0), flow(1, 0)];
        flows[0].acked = 0;
        flows[1].acked = 0;
        m.take_sample(Nanos::ZERO, vec![], &flows);

        flows[0].acked = 12_500; // 12.5 KB in 10 us = 10 Gbps
        flows[1].acked = 25_000; // 20 Gbps
        m.take_sample(Nanos::from_micros(10), vec![7], &flows);

        let s = &m.samples()[1];
        assert_eq!(s.queue_bytes, vec![7]);
        let rates: Vec<f64> = s.flow_rates.iter().map(|(_, r)| *r).collect();
        assert!((rates[0] - 1e10).abs() < 1.0, "{rates:?}");
        assert!((rates[1] - 2e10).abs() < 1.0);
    }

    #[test]
    fn finished_flows_leave_the_rate_set() {
        let mut m = Monitor::new(MonitorConfig {
            sample_interval: Some(Nanos::from_micros(10)),
            track_flow_rates: true,
            ..Default::default()
        });
        let mut flows = vec![flow(0, 0)];
        m.take_sample(Nanos::ZERO, vec![], &flows);
        flows[0].finished = Some(Nanos::from_micros(5));
        flows[0].acked = 1_000_000;
        // Finished within this interval: still contributes its last bytes.
        m.take_sample(Nanos::from_micros(10), vec![], &flows);
        assert_eq!(m.samples()[1].flow_rates.len(), 1);
        // Next interval: long finished, omitted.
        m.take_sample(Nanos::from_micros(20), vec![], &flows);
        assert!(m.samples()[2].flow_rates.is_empty());
    }

    #[test]
    fn unstarted_flows_are_omitted() {
        let mut m = Monitor::new(MonitorConfig {
            sample_interval: Some(Nanos::from_micros(10)),
            track_flow_rates: true,
            ..Default::default()
        });
        let flows = vec![flow(0, 1000)]; // starts at 1 ms
        m.take_sample(Nanos::ZERO, vec![], &flows);
        m.take_sample(Nanos::from_micros(10), vec![], &flows);
        assert!(m.samples()[1].flow_rates.is_empty());
    }

    #[test]
    fn sample_scheduling_respects_horizon() {
        let m = Monitor::new(MonitorConfig {
            sample_interval: Some(Nanos::from_micros(10)),
            sample_until: Nanos::from_micros(25),
            ..Default::default()
        });
        assert_eq!(
            m.wants_sample_after(Nanos::ZERO),
            Some(Nanos::from_micros(10))
        );
        assert_eq!(
            m.wants_sample_after(Nanos::from_micros(15)),
            Some(Nanos::from_micros(25))
        );
        assert_eq!(m.wants_sample_after(Nanos::from_micros(20)), None);
    }

    #[test]
    fn disabled_sampling_schedules_nothing() {
        let m = Monitor::new(MonitorConfig::default());
        assert_eq!(m.wants_sample_after(Nanos::ZERO), None);
    }
}
