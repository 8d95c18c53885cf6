//! `simbench` — the repository's benchmark.
//!
//! Two passes over five workloads (see `README.md` beside this crate and
//! `BENCHMARK.json` at the repository root):
//!
//! * the **end-to-end pass** ([`workload::end_to_end`]) runs a workload
//!   through the entry points a user calls, with no probe attached, and
//!   reports what a user waits for or pays;
//! * the **traced pass** ([`traced::traced`]) re-assembles the same
//!   scenario from the simulator's public pieces ([`stage`]) and measures
//!   each layer from outside ([`probe`]).
//!
//! Both check the simulator's outputs on every run. Nothing in the
//! repository outside this directory is changed by, or knows about, the
//! benchmark: every probe lives here.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod clock;
pub mod compare;
pub mod names;
pub mod output;
pub mod probe;
pub mod stage;
pub mod stats;
pub mod suite;
pub mod traced;
pub mod workload;
