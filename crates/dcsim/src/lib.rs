//! `dcsim` — a deterministic discrete-event simulation engine.
//!
//! This crate is the substrate beneath the packet-level network simulator in
//! `netsim`: it provides a nanosecond-resolution clock, a calendar queue
//! with stable FIFO ordering for simultaneous events, a seedable RNG with
//! stream splitting, and a small driver loop.
//!
//! The design goals, in order:
//!
//! 1. **Determinism.** Two runs with the same seed and the same event inserts
//!    produce byte-identical schedules. The calendar queue breaks time ties
//!    by insertion sequence number, so `HashMap` iteration order or heap
//!    internals can never leak into results.
//! 2. **Throughput.** Datacenter simulations at 100 Gbps push hundreds of
//!    millions of events; the hot path is `push`/`pop` on a binary heap of
//!    small entries plus a `match` in the handler. No allocation happens
//!    per event (the event payload type is chosen by the embedder and should
//!    be small and `Copy` where possible).
//! 3. **Embeddability.** The engine owns nothing about networks. Embedders
//!    implement [`World`] and keep all domain state in one struct, arena
//!    style, as recommended for data-oriented simulation cores.
//!
//! # Quick example
//!
//! ```
//! use dcsim::{Nanos, Scheduler, Simulation, TimingWheel, World};
//!
//! struct Counter { fired: u64 }
//!
//! impl World for Counter {
//!     type Event = u32;
//!     fn handle<S: Scheduler<u32>>(&mut self, now: Nanos, ev: u32, q: &mut S) {
//!         self.fired += 1;
//!         if ev < 3 {
//!             q.push(now + Nanos::from_ns(10), ev + 1);
//!         }
//!     }
//! }
//!
//! // Default scheduler: the binary-heap EventQueue.
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.queue_mut().push(Nanos::ZERO, 0);
//! sim.run();
//! assert_eq!(sim.world().fired, 4);
//! assert_eq!(sim.now(), Nanos::from_ns(30));
//!
//! // Same world, timing-wheel scheduler — identical dispatch order.
//! let mut sim = Simulation::with_scheduler(Counter { fired: 0 }, TimingWheel::new());
//! sim.queue_mut().push(Nanos::ZERO, 0);
//! sim.run();
//! assert_eq!(sim.world().fired, 4);
//! assert_eq!(sim.now(), Nanos::from_ns(30));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod engine;
pub mod queue;
pub mod rng;
pub mod sched;
pub mod time;
pub mod units;
pub mod wheel;

pub use engine::{RunOutcome, Simulation, World};
pub use queue::EventQueue;
pub use rng::{DetRng, Stream};
pub use sched::{Scheduler, SchedulerKind};
pub use time::Nanos;
pub use units::{BitRate, Bytes};
pub use wheel::TimingWheel;
