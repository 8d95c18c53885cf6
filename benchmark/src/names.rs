//! The metric catalogue: every name the benchmark emits, with its unit.
//!
//! `../BENCHMARK.json` is the contract the driver reads; a self-test holds
//! this table and that file equal, so a metric cannot be emitted without
//! being declared or declared without being emitted.

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the simulator waits for or pays (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    lo("setup_s", "s"),
    lo("wall_s", "s"),
    lo("cpu_s", "s"),
    hi("flows_per_s", "1/s"),
    lo("peak_rss_mb", "MB"),
    hi("completed_share", "ratio"),
];

/// Single-layer measurements (`--trace 1`). Counts and sizes are "lower is
/// better" in the sense that less work for the same simulated result is
/// cheaper; they carry no bound.
pub const PER_LAYER: &[MetricDef] = &[
    // dcsim: the event engine and its two schedulers.
    lo("dcsim.events_n", "count"),
    hi("dcsim.events_per_s", "1/s"),
    lo("dcsim.sched.push_n", "count"),
    lo("dcsim.sched.pop_n", "count"),
    lo("dcsim.sched.push_ns", "ns"),
    lo("dcsim.sched.pop_ns", "ns"),
    lo("dcsim.sched.share", "ratio"),
    lo("dcsim.sched.occupancy_hwm", "count"),
    lo("dcsim.sched.wheel_push_ns", "ns"),
    lo("dcsim.sched.wheel_pop_ns", "ns"),
    lo("dcsim.sched.wheel_share", "ratio"),
    lo("dcsim.kernel.dense_heap_ns", "ns"),
    lo("dcsim.kernel.dense_wheel_ns", "ns"),
    // netsim: building the network, then handling its events.
    lo("netsim.topo_build_s", "s"),
    lo("netsim.net_build_s", "s"),
    lo("netsim.add_flows_s", "s"),
    lo("netsim.ev.flowstart_n", "count"),
    lo("netsim.ev.trysend_n", "count"),
    lo("netsim.ev.trysend_ns", "ns"),
    lo("netsim.ev.txdone_n", "count"),
    lo("netsim.ev.txdone_ns", "ns"),
    lo("netsim.ev.arrive_n", "count"),
    lo("netsim.ev.arrive_ns", "ns"),
    lo("netsim.ev.cctimer_n", "count"),
    lo("netsim.ev.cctimer_ns", "ns"),
    lo("netsim.ev.rto_n", "count"),
    lo("netsim.ev.rto_ns", "ns"),
    lo("netsim.ev.linkset_n", "count"),
    lo("netsim.ev.linkset_ns", "ns"),
    lo("netsim.ev.sample_n", "count"),
    lo("netsim.ev.sample_ns", "ns"),
    lo("netsim.ev.pfcset_n", "count"),
    lo("netsim.handler_share", "ratio"),
    lo("netsim.hops_n", "count"),
    lo("netsim.ns_per_hop", "ns"),
    lo("netsim.events_per_hop", "ratio"),
    lo("netsim.max_qbytes", "B"),
    lo("netsim.monitor.samples_n", "count"),
    lo("netsim.drops_n", "count"),
    lo("netsim.wire_drops_n", "count"),
    lo("netsim.link_down_drops_n", "count"),
    lo("netsim.reroutes_n", "count"),
    lo("netsim.rto_fires_n", "count"),
    // faircc + cc-*: the congestion-control callbacks.
    lo("cc.on_ack_n", "count"),
    lo("cc.on_ack_ns", "ns"),
    lo("cc.on_send_n", "count"),
    lo("cc.on_send_ns", "ns"),
    lo("cc.on_timer_n", "count"),
    lo("cc.on_cnp_n", "count"),
    lo("cc.on_rto_n", "count"),
    lo("cc.share", "ratio"),
    lo("cc.acks_per_hop", "ratio"),
    lo("cc.build_ns", "ns"),
    lo("cc.hpcc.on_ack_ns", "ns"),
    lo("cc.swift.on_ack_ns", "ns"),
    lo("cc.dcqcn.on_ack_ns", "ns"),
    lo("cc.timely.on_ack_ns", "ns"),
    // workloads: generating the arrivals.
    lo("workloads.arrivals_s", "s"),
    lo("workloads.flows_n", "count"),
    // fairsim + metrics: collecting a run's results.
    lo("fairsim.collect_s", "s"),
    lo("fairsim.collect_share", "ratio"),
    lo("metrics.kernel.jain_ns", "ns"),
    lo("metrics.kernel.slowdown_table_s", "s"),
    // fleet (+ minijson): the sweep harness.
    lo("fleet.runs_n", "count"),
    lo("fleet.expand_s", "s"),
    lo("fleet.run_s", "s"),
    lo("fleet.serial_s", "s"),
    hi("fleet.parallel_eff", "ratio"),
    lo("fleet.report_s", "s"),
    lo("fleet.json_s", "s"),
    lo("fleet.kernel.bootstrap_s", "s"),
    // the harness itself.
    lo("alloc.allocs_per_event", "ratio"),
    lo("alloc.bytes_per_event", "B"),
    lo("alloc.setup_bytes", "B"),
    lo("trace.overhead_ratio", "ratio"),
];

/// A set of measured values keyed by declared metric name.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Record `name = value`. Panics if `name` was already recorded.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.0.push((name, value));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Lay the values out in `table` order. Every recorded name must be in
    /// the table; table entries never recorded (layers a workload does not
    /// exercise) read 0.
    pub fn in_table_order(&self, table: &[MetricDef]) -> Vec<(MetricDef, f64)> {
        for (name, _) in &self.0 {
            assert!(
                table.iter().any(|d| d.name == *name),
                "metric {name} is not declared"
            );
        }
        table
            .iter()
            .map(|d| (*d, self.get(d.name).unwrap_or(0.0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
    }

    #[test]
    fn unrecorded_metrics_read_zero_and_undeclared_ones_panic() {
        let mut m = Metrics::default();
        m.set("wall_s", 1.5);
        let laid = m.in_table_order(END_TO_END);
        assert_eq!(laid.len(), END_TO_END.len());
        assert_eq!(laid[1].1, 1.5);
        assert_eq!(laid[0].1, 0.0);
        let mut bad = Metrics::default();
        bad.set("no.such.metric", 1.0);
        assert!(std::panic::catch_unwind(|| bad.in_table_order(END_TO_END)).is_err());
    }
}
