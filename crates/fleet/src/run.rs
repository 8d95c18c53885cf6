//! Sweep execution: expand a spec, run every `(cell, seed)` pair on the
//! pool, and regroup the results per cell.
//!
//! Each run goes through the same [`fairsim::Scenario::run_with`] seam
//! the single-figure harness uses, with a fresh [`RunCtx`] per
//! replicate — runs share nothing, so the pool can interleave them
//! freely without breaking determinism.

use std::path::PathBuf;

use dcsim::Nanos;
use fairsim::{
    DatacenterResult, DatacenterScenario, FaultResult, FaultScenario, IncastResult, IncastScenario,
    RunCtx, Scenario, TraceConfig, TraceLevel, Tracer,
};
use netsim::{FatTreeConfig, RunOutcome};

use crate::pool;
use crate::spec::{slug, CellSpec, SweepSpec, WorkloadPoint};

/// The result of one sweep run, tagged by scenario family.
#[derive(Debug, Clone)]
pub enum RunOutput {
    /// An incast run.
    Incast(IncastResult),
    /// A datacenter run.
    Datacenter(DatacenterResult),
    /// A fault-injection run.
    Fault(FaultResult),
}

impl RunOutput {
    /// The run's figure-legend label.
    pub fn label(&self) -> &str {
        match self {
            RunOutput::Incast(r) => &r.label,
            RunOutput::Datacenter(r) => &r.label,
            RunOutput::Fault(r) => &r.label,
        }
    }

    /// The run's structured disposition.
    pub fn outcome(&self) -> &RunOutcome {
        match self {
            RunOutput::Incast(r) => &r.outcome,
            RunOutput::Datacenter(r) => &r.outcome,
            RunOutput::Fault(r) => &r.outcome,
        }
    }

    /// Did the stall watchdog fire?
    pub fn is_stalled(&self) -> bool {
        match self.outcome() {
            RunOutcome::Stalled { .. } => true,
            RunOutcome::Completed | RunOutcome::Horizon | RunOutcome::Budget => false,
        }
    }

    /// Per-flow slowdown samples (against the pristine ideal FCT).
    pub fn slowdowns(&self) -> Vec<f64> {
        let raw = match self {
            RunOutput::Incast(r) => &r.raw,
            RunOutput::Datacenter(r) => &r.raw,
            RunOutput::Fault(r) => &r.raw,
        };
        raw.iter().map(|&(_, _, s)| s).collect()
    }

    /// The run's tracer, when tracing was on.
    pub fn trace(&self) -> Option<&Tracer> {
        match self {
            RunOutput::Incast(r) => r.trace.as_ref(),
            RunOutput::Datacenter(r) => r.trace.as_ref(),
            RunOutput::Fault(r) => r.trace.as_ref(),
        }
    }

    /// The incast result, when this was an incast run.
    pub fn as_incast(&self) -> Option<&IncastResult> {
        match self {
            RunOutput::Incast(r) => Some(r),
            RunOutput::Datacenter(_) | RunOutput::Fault(_) => None,
        }
    }

    /// The datacenter result, when this was a datacenter run.
    pub fn as_datacenter(&self) -> Option<&DatacenterResult> {
        match self {
            RunOutput::Datacenter(r) => Some(r),
            RunOutput::Incast(_) | RunOutput::Fault(_) => None,
        }
    }

    /// The fault-injection result, when this was a fault run.
    pub fn as_fault(&self) -> Option<&FaultResult> {
        match self {
            RunOutput::Fault(r) => Some(r),
            RunOutput::Incast(_) | RunOutput::Datacenter(_) => None,
        }
    }
}

/// Execution knobs orthogonal to the sweep spec: worker count and
/// tracing. Neither may change the report (the golden test in
/// `tests/sweep.rs` pins that). `repro` builds one for
/// both its figure and its `--sweep` mode.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Pool width; `None` uses [`pool::default_workers`].
    pub workers: Option<usize>,
    /// Trace/metrics collection level per run.
    pub trace: TraceConfig,
    /// Directory for per-run trace artifacts; `None` discards traces.
    pub trace_dir: Option<PathBuf>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig::new()
    }
}

impl SweepConfig {
    /// Default config: auto worker count, tracing off.
    pub fn new() -> Self {
        SweepConfig {
            workers: None,
            trace: TraceConfig::off(),
            trace_dir: None,
        }
    }

    /// Pin the pool width (chainable).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// The context one run executes under: its seed plus this config's
    /// trace level.
    pub fn run_ctx(&self, seed: u64) -> RunCtx {
        RunCtx::new(seed).with_trace(self.trace)
    }
}

/// One replicate of one cell.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The seed this replicate ran under.
    pub seed: u64,
    /// Its result.
    pub output: RunOutput,
}

/// All replicates of one cell, in ensemble order.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The expanded cell this ran.
    pub spec: CellSpec,
    /// One record per seed, in [`crate::Ensemble`] order.
    pub runs: Vec<RunRecord>,
}

impl CellOutcome {
    /// Unwrap a single-replicate cell's one run (the single-seed figure
    /// path). Panics when the ensemble had more than one replicate.
    pub fn into_only_run(self) -> RunOutput {
        let CellOutcome { spec, mut runs } = self;
        assert!(
            runs.len() == 1,
            "cell {} has {} replicates, expected exactly 1",
            spec.id,
            runs.len()
        );
        runs.remove(0).output
    }
}

/// The full result of a sweep: every cell's every replicate.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Sweep name (from the spec).
    pub name: String,
    /// The ensemble root seed.
    pub root_seed: u64,
    /// Replicates per cell.
    pub replicates: usize,
    /// Cells in expansion order.
    pub cells: Vec<CellOutcome>,
}

impl SweepOutcome {
    /// Did any run's stall watchdog fire?
    pub fn any_stalled(&self) -> bool {
        self.cells
            .iter()
            .any(|c| c.runs.iter().any(|r| r.output.is_stalled()))
    }

    /// Consume into the cell list (expansion order).
    pub fn into_cells(self) -> Vec<CellOutcome> {
        self.cells
    }

    /// Aggregate into a statistical report.
    pub fn report(&self) -> crate::report::Report {
        crate::report::Report::build(self)
    }
}

/// Expand `spec` and run every `(cell, seed)` pair on the pool.
///
/// Results come back grouped per cell in expansion order, replicates in
/// ensemble order — independent of worker count and dispatch order.
/// When `cfg.trace_dir` is set, every traced run's artifacts are written
/// (see [`write_run_artifacts`]) under the sweep name and the cell id.
pub fn run_sweep(spec: &SweepSpec, cfg: &SweepConfig) -> SweepOutcome {
    let cells = spec.expand();
    let mut jobs: Vec<(usize, u64)> = Vec::with_capacity(cells.len() * spec.ensemble.replicates);
    for (ci, cell) in cells.iter().enumerate() {
        for &seed in &cell.seeds {
            jobs.push((ci, seed));
        }
    }
    let workers = cfg.workers.unwrap_or_else(pool::default_workers).max(1);
    let outputs = pool::run_indexed(jobs.len(), workers, |j| {
        let (ci, seed) = jobs[j];
        execute(&cells[ci], seed, &cfg.run_ctx(seed))
    });

    let mut outputs = outputs.into_iter();
    let mut cell_outcomes = Vec::with_capacity(cells.len());
    for cell in cells {
        let runs: Vec<RunRecord> = cell
            .seeds
            .iter()
            .map(|&seed| RunRecord {
                seed,
                output: outputs
                    .next()
                    .unwrap_or_else(|| panic!("missing run for cell {}", cell.id)),
            })
            .collect();
        cell_outcomes.push(CellOutcome { spec: cell, runs });
    }

    let outcome = SweepOutcome {
        name: spec.name.clone(),
        root_seed: spec.ensemble.root_seed,
        replicates: spec.ensemble.replicates,
        cells: cell_outcomes,
    };
    // Sequentially, after the pool joins, so file-system effects never race.
    for cell in &outcome.cells {
        for run in &cell.runs {
            if let Some(tracer) = run.output.trace() {
                write_run_artifacts(cfg, &outcome.name, &cell.spec.id, run.seed, tracer);
            }
        }
    }
    outcome
}

fn execute(cell: &CellSpec, seed: u64, rctx: &RunCtx) -> RunOutput {
    match &cell.point {
        WorkloadPoint::Incast { degree } => {
            RunOutput::Incast(IncastScenario::paper(*degree, cell.cc, seed).run_with(rctx))
        }
        WorkloadPoint::Datacenter {
            mix,
            load,
            full_scale,
        } => {
            let mut sc = DatacenterScenario::reduced(mix.clone(), cell.cc, seed);
            sc.load = *load;
            if *full_scale {
                sc.fat_tree = FatTreeConfig::paper();
                sc.horizon = Nanos::from_millis(50);
            }
            RunOutput::Datacenter(sc.run_with(rctx))
        }
        WorkloadPoint::Faults {
            mix,
            load,
            cell: fault,
            full_scale,
        } => {
            let mut sc = FaultScenario::reduced(mix.clone(), cell.cc, seed).with_loss(fault.loss);
            if fault.bursty {
                sc = sc.with_bursty();
            }
            if let Some((period, down_for)) = fault.flap {
                sc = sc.with_flap(period, down_for);
            }
            sc.load = *load;
            if *full_scale {
                sc.fat_tree = FatTreeConfig::paper();
                sc.horizon = Nanos::from_millis(50);
            }
            RunOutput::Fault(sc.run_with(rctx))
        }
    }
}

/// Write one traced run's artifacts under `cfg.trace_dir` (a no-op when
/// unset): `<sweep>.<run>.s<seed>.trace.jsonl` (structured events) and
/// `.chrome.json` (Perfetto-loadable) at [`TraceLevel::Full`], and
/// `.metrics.json` (counters + histograms) at every level; `sweep` and
/// `run` are slugged. The one artifact writer: sweeps call it per cell
/// replicate, and a harness that runs a scenario outside a sweep calls
/// it with its own names.
pub fn write_run_artifacts(cfg: &SweepConfig, sweep: &str, run: &str, seed: u64, tracer: &Tracer) {
    let Some(dir) = &cfg.trace_dir else { return };
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("cannot create trace dir {}: {e}", dir.display()));
    let stem = format!("{}.{}.s{seed}", slug(sweep), slug(run));
    let write = |suffix: &str, body: String| {
        let path = dir.join(format!("{stem}.{suffix}"));
        std::fs::write(&path, body)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    };
    if tracer.config().level == TraceLevel::Full {
        write("trace.jsonl", tracer.to_jsonl());
        write("chrome.json", tracer.to_chrome());
    }
    write(
        "metrics.json",
        format!("{}\n", tracer.metrics().to_value().pretty()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Ensemble, SweepSpec, WorkloadAxis};
    use fairsim::{CcSpec, ProtocolKind, Variant};

    #[test]
    fn a_tiny_incast_sweep_runs_end_to_end() {
        let spec = SweepSpec {
            name: "tiny".to_string(),
            cc: vec![CcSpec::new(ProtocolKind::Hpcc, Variant::Default)],
            workload: WorkloadAxis::Incast { degrees: vec![4] },
            ensemble: Ensemble::new(1, 2),
        };
        let out = run_sweep(&spec, &SweepConfig::new().with_workers(2));
        assert_eq!(out.cells.len(), 1);
        assert_eq!(out.cells[0].runs.len(), 2);
        assert_eq!(out.cells[0].runs[0].seed, 1);
        assert!(!out.any_stalled());
        for run in &out.cells[0].runs {
            assert!(
                !run.output.slowdowns().is_empty(),
                "an incast run always completes flows"
            );
            assert_eq!(run.output.label(), "HPCC");
        }
    }
}
