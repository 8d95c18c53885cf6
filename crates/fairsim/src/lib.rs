//! `fairsim` — the experiment layer tying the simulator, protocols,
//! workloads, and metrics together into the paper's benchmarks.
//!
//! Everything here is driven by four scenario types, each of which only
//! *describes* its run and *collects* its own result; one private pipeline
//! in [`scenarios`] builds, runs and tears down every one of them:
//!
//! * [`scenarios::IncastScenario`] — the 16-1 / 96-1 staggered incast on a
//!   single-switch star (Figures 1-3, 5, 6, 8, 9);
//! * [`scenarios::DatacenterScenario`] — Poisson traffic from empirical
//!   flow-size distributions on the 3-layer fat-tree (Figures 10-13);
//! * [`scenarios::FaultScenario`] — the same under fabric wire loss and a
//!   flapping link;
//! * [`scenarios::TraceScenario`] — replay of an explicit arrival list.
//!
//! All four run through [`Scenario::run_with`] under a [`RunCtx`] (seed,
//! tracing) on the event calendar the pipeline picks from the run's size;
//! [`IncastScenario::run_with_cc`] is the one entry point for a congestion
//! control [`CcSpec`] cannot name.
//!
//! A [`spec::CcSpec`] names a protocol (HPCC / Swift / DCQCN / Timely) and
//! a variant (default, high-AI, probabilistic, VAI, SF, VAI+SF), and builds
//! per-flow congestion-control instances from a [`spec::NetEnv`]
//! describing the topology's base RTT, line rate, and minimum BDP.
//!
//! `fairsim` is what the `repro` binary (in the `bench` crate) and the
//! workspace examples call into; it contains no figure-rendering logic of
//! its own beyond plain text tables ([`render`]) and per-run JSON
//! trees ([`export`]).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod export;
pub mod render;
pub mod scenarios;
pub mod series;
pub mod spec;

pub use analysis::PairedComparison;
pub use scenarios::{
    DatacenterResult, DatacenterScenario, FaultResult, FaultScenario, IncastResult, IncastScenario,
    RunCtx, Scenario, TraceResult, TraceScenario,
};
pub use spec::{CcOptions, CcSpec, NetEnv, ProtocolKind, Variant};

// The run context's observability configuration comes from simtrace;
// re-export it so harnesses can name it without depending on simtrace.
pub use simtrace::{Subsystem, TraceConfig, TraceLevel, Tracer};
