//! Sweep reports: per-cell tail percentiles, ensemble medians, and
//! bootstrap confidence intervals, emitted as machine-readable JSON and
//! a text table.
//!
//! The JSON deliberately excludes anything execution-dependent — no
//! event calendar, worker count, or wall-clock time — so rerunning the
//! same spec yields byte-identical bytes (the golden test pins this).
//! Bootstrap seeds derive from `(root seed, cell id, statistic)` alone,
//! never from run order.

use dcsim::DetRng;
use fairsim::render::{f3, TextTable};
use minijson::{arr, obj, Value};

use crate::run::SweepOutcome;
use crate::spec::fnv1a;
use crate::stats::{self, bootstrap_ci, Ci, Percentiles, BOOTSTRAP_ITERS, BOOTSTRAP_LEVEL};

/// Aggregated statistics for one sweep cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Stable cell id (from [`crate::CellSpec`]).
    pub id: String,
    /// Protocol label ("HPCC", "Swift VAI SF", ...).
    pub label: String,
    /// Axis values as `(axis, value)` pairs.
    pub axes: Vec<(String, String)>,
    /// The seeds that ran, ensemble order.
    pub seeds: Vec<u64>,
    /// Per-replicate run dispositions ("completed" / "horizon" /
    /// "stalled" / "budget"), ensemble order.
    pub outcomes: Vec<String>,
    /// Total slowdown samples pooled across replicates.
    pub samples: usize,
    /// Tail percentiles over the pooled samples; `None` when every
    /// replicate came back empty.
    pub pooled: Option<Percentiles>,
    /// Per-replicate p50 slowdowns (replicates with no samples are
    /// skipped, so this can be shorter than `seeds`).
    pub p50_per_seed: Vec<f64>,
    /// Per-replicate p99 slowdowns.
    pub p99_per_seed: Vec<f64>,
    /// Median of `p50_per_seed`.
    pub p50_median: Option<f64>,
    /// Median of `p99_per_seed` — the headline ensemble statistic.
    pub p99_median: Option<f64>,
    /// Bootstrap 95% CI of the `p50_per_seed` median.
    pub p50_ci95: Option<Ci>,
    /// Bootstrap 95% CI of the `p99_per_seed` median.
    pub p99_ci95: Option<Ci>,
}

/// A full sweep report: one [`CellReport`] per cell, expansion order.
#[derive(Debug, Clone)]
pub struct Report {
    /// Sweep name.
    pub name: String,
    /// Ensemble root seed.
    pub root_seed: u64,
    /// Replicates per cell.
    pub replicates: usize,
    /// Per-cell statistics, expansion order.
    pub cells: Vec<CellReport>,
}

impl Report {
    /// Aggregate a sweep outcome into per-cell statistics.
    pub fn build(outcome: &SweepOutcome) -> Report {
        let cells = outcome
            .cells
            .iter()
            .map(|cell| {
                let mut pooled_samples: Vec<f64> = Vec::new();
                let mut p50_per_seed = Vec::with_capacity(cell.runs.len());
                let mut p99_per_seed = Vec::with_capacity(cell.runs.len());
                let mut outcomes = Vec::with_capacity(cell.runs.len());
                let mut label = String::new();
                for run in &cell.runs {
                    outcomes.push(run.output.outcome().name().to_string());
                    if label.is_empty() {
                        label = run.output.label().to_string();
                    }
                    let slowdowns = run.output.slowdowns();
                    if let Some(p) = stats::percentiles(&slowdowns) {
                        p50_per_seed.push(p.p50);
                        p99_per_seed.push(p.p99);
                    }
                    pooled_samples.extend_from_slice(&slowdowns);
                }
                let ci = |samples: &[f64], stat: &str| {
                    bootstrap_ci(
                        samples,
                        50.0,
                        BOOTSTRAP_ITERS,
                        BOOTSTRAP_LEVEL,
                        ci_seed(outcome.root_seed, &cell.spec.id, stat),
                    )
                };
                CellReport {
                    id: cell.spec.id.clone(),
                    label,
                    axes: cell.spec.point.axes(),
                    seeds: cell.spec.seeds.clone(),
                    outcomes,
                    samples: pooled_samples.len(),
                    pooled: stats::percentiles(&pooled_samples),
                    p50_median: stats::median(&p50_per_seed),
                    p99_median: stats::median(&p99_per_seed),
                    p50_ci95: ci(&p50_per_seed, "p50"),
                    p99_ci95: ci(&p99_per_seed, "p99"),
                    p50_per_seed,
                    p99_per_seed,
                }
            })
            .collect();
        Report {
            name: outcome.name.clone(),
            root_seed: outcome.root_seed,
            replicates: outcome.replicates,
            cells,
        }
    }

    /// Build the JSON tree (execution-independent by construction).
    pub fn to_value(&self) -> Value {
        obj([
            ("sweep", Value::from(self.name.as_str())),
            ("seed", Value::from(self.root_seed)),
            ("replicates", Value::from(self.replicates)),
            (
                "cells",
                Value::Arr(self.cells.iter().map(cell_to_value).collect()),
            ),
        ])
    }

    /// Pretty JSON, byte-identical across reruns of the same spec.
    pub fn to_json(&self) -> String {
        self.to_value().pretty()
    }

    /// Render the human-readable summary table.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "## sweep: {} (seed {}, {} replicate{})\n\n",
            self.name,
            self.root_seed,
            self.replicates,
            if self.replicates == 1 { "" } else { "s" }
        );
        let mut table = TextTable::new(vec![
            "cell",
            "n",
            "p50 med",
            "p99 med",
            "p99 ci95",
            "p99.9 pool",
            "outcomes",
        ]);
        for c in &self.cells {
            table.row(vec![
                c.id.clone(),
                c.samples.to_string(),
                c.p50_median.map(f3).unwrap_or_else(|| "-".to_string()),
                c.p99_median.map(f3).unwrap_or_else(|| "-".to_string()),
                c.p99_ci95
                    .map(|ci| format!("[{}, {}]", f3(ci.lo), f3(ci.hi)))
                    .unwrap_or_else(|| "-".to_string()),
                c.pooled
                    .map(|p| f3(p.p999))
                    .unwrap_or_else(|| "-".to_string()),
                c.outcomes.join(","),
            ]);
        }
        out.push_str(&table.render());
        out
    }
}

/// Deterministic bootstrap seed for one cell's one statistic, derived
/// from inputs only (never execution state).
fn ci_seed(root_seed: u64, cell_id: &str, stat: &str) -> u64 {
    DetRng::new(root_seed)
        .fork(fnv1a("fleet.bootstrap"))
        .fork(fnv1a(cell_id))
        .fork(fnv1a(stat))
        .seed()
}

fn cell_to_value(c: &CellReport) -> Value {
    let axes = Value::Obj(
        c.axes
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(v.as_str())))
            .collect(),
    );
    obj([
        ("id", Value::from(c.id.as_str())),
        ("label", Value::from(c.label.as_str())),
        ("axes", axes),
        ("seeds", arr(c.seeds.clone())),
        (
            "outcomes",
            arr(c.outcomes.iter().map(String::as_str).collect::<Vec<_>>()),
        ),
        ("samples", Value::from(c.samples)),
        ("slowdown", pooled_to_value(c.pooled)),
        (
            "p50",
            stat_to_value(&c.p50_per_seed, c.p50_median, c.p50_ci95),
        ),
        (
            "p99",
            stat_to_value(&c.p99_per_seed, c.p99_median, c.p99_ci95),
        ),
    ])
}

fn pooled_to_value(p: Option<Percentiles>) -> Value {
    match p {
        None => Value::Null,
        Some(p) => obj([
            ("p50", Value::from(p.p50)),
            ("p95", Value::from(p.p95)),
            ("p99", Value::from(p.p99)),
            ("p999", Value::from(p.p999)),
        ]),
    }
}

fn stat_to_value(per_seed: &[f64], median: Option<f64>, ci: Option<Ci>) -> Value {
    obj([
        ("per_seed", arr(per_seed.to_vec())),
        ("median", Value::from(median)),
        (
            "ci95",
            match ci {
                None => Value::Null,
                Some(ci) => arr([ci.lo, ci.hi]),
            },
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_sweep, SweepConfig};
    use crate::spec::{Ensemble, SweepSpec, WorkloadAxis};
    use fairsim::{CcSpec, ProtocolKind, Variant};

    #[test]
    fn report_json_is_valid_and_carries_the_statistics() {
        let spec = SweepSpec {
            name: "report-smoke".to_string(),
            cc: vec![CcSpec::new(ProtocolKind::Hpcc, Variant::Default)],
            workload: WorkloadAxis::Incast { degrees: vec![4] },
            ensemble: Ensemble::new(3, 2),
        };
        let report = run_sweep(&spec, &SweepConfig::new()).report();
        assert_eq!(report.cells.len(), 1);
        let c = &report.cells[0];
        assert_eq!(c.p50_per_seed.len(), 2);
        assert!(c.p99_median.is_some());
        assert!(c.samples > 0);

        let json = report.to_json();
        let v = minijson::Value::parse(&json).expect("report emits valid JSON");
        assert_eq!(v["sweep"].as_str(), Some("report-smoke"));
        assert_eq!(v["replicates"].as_u64(), Some(2));
        let cell = &v["cells"][0];
        assert_eq!(cell["axes"]["workload"].as_str(), Some("incast"));
        assert!(cell["p99"]["median"].as_f64().is_some());
        assert_eq!(
            cell["p99"]["ci95"].as_array().map(<[Value]>::len),
            Some(2),
            "a 2-replicate ensemble still gets a (degenerate-ish) CI"
        );
        // Execution knobs must not leak into the report bytes.
        assert!(!json.contains("scheduler"));
        assert!(!json.contains("workers"));

        let text = report.render_text();
        assert!(text.contains("report-smoke"));
        assert!(text.contains("incast/deg=4/cc=hpcc"));
    }
}
