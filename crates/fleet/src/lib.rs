//! `fleet` — the sweep harness: declarative scenario sweeps, seed
//! ensembles, and statistical reports.
//!
//! Every figure in this repository compares congestion-control variants,
//! and tail percentiles are exactly the statistic most sensitive to
//! sampling noise — a single seed-42 run is a point sample, not an
//! estimate. `fleet` turns a figure into an instance of a sweep engine:
//!
//! 1. a [`spec::SweepSpec`] declares axes (protocol x variant x workload
//!    point x seed ensemble) and expands them into a deterministic
//!    cartesian product of [`spec::CellSpec`] cells;
//! 2. [`run::run_sweep`] executes every `(cell, seed)` pair on a
//!    work-stealing `std::thread::scope` pool, each run isolated through
//!    the existing [`fairsim::Scenario::run_with`] seam;
//! 3. [`report::Report`] aggregates each cell's per-flow slowdowns into
//!    p50/p95/p99/p99.9, medians across the seed ensemble, and bootstrap
//!    confidence intervals ([`stats`]), emitted as machine-readable JSON
//!    (minijson) plus a text table.
//!
//! Determinism contract: the report depends only on the spec — never on
//! the worker count or the pool's dispatch order. Rerunning a sweep yields
//! byte-identical report JSON; the golden test in `tests/sweep.rs` pins
//! this.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;

pub use report::{CellReport, Report};
pub use run::{
    run_sweep, write_run_artifacts, CellOutcome, RunOutput, RunRecord, SweepConfig, SweepOutcome,
};
pub use spec::{
    fnv1a, preset, preset_names, slug, CellSpec, Ensemble, FaultCell, SweepSpec, WorkloadAxis,
    WorkloadPoint,
};
pub use stats::{bootstrap_ci, median, percentiles, Ci, Percentiles};
