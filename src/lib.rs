//! `fairness-repro` — workspace facade.
//!
//! This crate re-exports the whole reproduction stack so the runnable
//! examples (`examples/`) and the cross-crate integration tests
//! (`tests/`) can reach every layer through one dependency:
//!
//! * [`dcsim`] — the discrete-event engine;
//! * [`netsim`] — the packet-level datacenter network model;
//! * [`faircc`] — the paper's mechanisms (Variable AI, Sampling
//!   Frequency) and the congestion-control trait;
//! * [`cc_hpcc`] / [`cc_swift`] / [`cc_dcqcn`] — the protocols;
//! * [`workloads`] / [`metrics`] / [`fluid`] — traffic, measurement, and
//!   the analytic model;
//! * [`fairsim`] — ready-made paper scenarios;
//! * [`fleet`] — declarative scenario sweeps, seed ensembles, and
//!   statistical reports over those scenarios.
//!
//! Start with `examples/quickstart.rs`.
//!
//! # Unit newtypes are opaque outside `dcsim`
//!
//! `Nanos`, `Bytes` and `BitRate` keep their field private to `dcsim`, so
//! everywhere else — sim crates, support crates, tests, `bench` — an
//! untyped integer becomes a unit only through a named constructor and
//! leaves only through `.as_u64()`, so mixing units needs a visible
//! escape. The compiler enforces it:
//!
//! ```compile_fail
//! let t = fairness_repro::dcsim::Nanos(5); // use Nanos::from_ns(5)
//! ```
//!
//! ```compile_fail
//! let t = fairness_repro::dcsim::Nanos::from_ns(5);
//! let raw = t.0; // use t.as_u64()
//! ```
//!
//! ```
//! use fairness_repro::dcsim::{BitRate, Bytes, Nanos};
//! assert_eq!(Nanos::from_ns(5).as_u64(), 5);
//! assert_eq!(Bytes::new(1).as_u64() + BitRate::from_bps(1).as_u64(), 2);
//! ```

#![deny(unsafe_code)]

pub use cc_dcqcn;
pub use cc_hpcc;
pub use cc_swift;
pub use cc_timely;
pub use dcsim;
pub use faircc;
pub use fairsim;
pub use fleet;
pub use fluid;
pub use metrics;
pub use netsim;
pub use workloads;
