//! Observability layer for the simulator: structured event tracing, a
//! metrics registry, and deterministic trace export.
//!
//! # Design
//!
//! Three pieces, each usable on its own:
//!
//! * [`Tracer`] — an in-memory buffer of `(time, TraceEvent)` pairs with
//!   typed payloads (port enqueue/dequeue/drop/ECN-mark, PFC pause edges,
//!   flow start/finish, congestion-control state samples). Export as
//!   deterministic JSONL ([`Tracer::to_jsonl`]) or as Chrome
//!   `trace_event` JSON loadable in Perfetto ([`Tracer::to_chrome`]).
//! * [`MetricsRegistry`] — ordered counters and fixed-bucket log-scale
//!   histograms ([`LogHistogram`]) that subsystems publish into at the
//!   end of a run. Keys are strings, values are integers or bucket
//!   arrays — no floats in keys, so serialization is byte-stable.
//! * [`TraceConfig`] — the runtime gate: off / counters-only / full,
//!   plus a [`SubsystemMask`] filter and a CC sampling cadence.
//!
//! # Overhead model
//!
//! [`TraceConfig`] is the only gate, and it is a runtime one: every build
//! carries the instrumentation sites. At [`TraceLevel::Off`] (the
//! default) each site costs a single predictable branch on
//! [`Tracer::wants`]; together they measure at 1–2.5 % of a run's wall
//! time on the repository's benchmark (DESIGN.md, "Overhead model").
//! Counters-only skips the event buffer; full tracing appends to a `Vec`
//! per event.
//!
//! # Determinism
//!
//! Everything here is driven by simulation time ([`dcsim::Nanos`]) and
//! seed-deterministic payloads, so trace output is byte-identical across
//! repeated runs and across scheduler implementations (heap vs wheel
//! dispatch identical event streams, per the dcsim equivalence
//! guarantee). There are no wall-clock reads and no hash-ordered
//! collections anywhere in this crate.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod event;
mod metrics;
mod tracer;

pub use config::{Subsystem, SubsystemMask, TraceConfig, TraceLevel};
pub use event::TraceEvent;
pub use metrics::{LogHistogram, MetricsRegistry};
pub use tracer::Tracer;
