//! The scheduler abstraction: what the engine needs from a future-event list.
//!
//! Two implementations exist, both preserving the engine's dispatch contract
//! exactly — events fire in `(time, insertion seq)` order, so simultaneous
//! events dequeue FIFO:
//!
//! * [`EventQueue`](crate::EventQueue) — a binary heap; `O(log n)` per
//!   operation, no assumptions about time distribution. The reference
//!   calendar: the one the equivalence suites compare against, and
//!   [`Simulation`](crate::Simulation)'s default type parameter.
//! * [`TimingWheel`](crate::TimingWheel) — a hierarchical timing wheel;
//!   amortised `O(1)` push/pop when pending times cluster near `now`, which
//!   is exactly the shape packet simulations produce.
//!
//! Which one a scenario runs on is not a user setting: `fairsim` runs every
//! scenario on the heap (see [`SchedulerKind`]).

use crate::time::Nanos;

/// A future-event list ordered by `(time, insertion seq)`.
///
/// The contract every implementation must honour (the engine and the
/// `scheduler_equivalence` property suite depend on it):
///
/// 1. `pop` returns pending events in non-decreasing time order; events with
///    equal times come back in push order (FIFO tie-breaking).
/// 2. `peek_time` never mutates observable state: callers peek against a
///    deadline and may push events earlier than the peeked time (but `>=`
///    the last popped time) afterwards.
/// 3. Pushes at times `>=` the last popped time are always legal, including
///    re-entrant pushes at exactly that time from inside a handler.
pub trait Scheduler<E> {
    /// Schedule `event` to fire at absolute time `at`.
    fn push(&mut self, at: Nanos, event: E);

    /// Remove and return the earliest event as `(time, event)`.
    fn pop(&mut self) -> Option<(Nanos, E)>;

    /// The firing time of the earliest event, without removing it.
    fn peek_time(&self) -> Option<Nanos>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever pushed (for engine statistics).
    fn total_pushed(&self) -> u64;

    /// Total number of events ever popped.
    fn total_popped(&self) -> u64;

    /// Drop all pending events (e.g. when a run ends at its horizon).
    /// Lifetime counters are preserved. After a clear, pushes must still be
    /// `>=` the last popped time.
    fn clear(&mut self);
}

/// Which [`Scheduler`] implementation a scenario runs on.
///
/// `fairsim` runs on `default()`, the binary heap; a test may force either
/// through `fairsim::RunCtx` to compare the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// Binary-heap calendar queue ([`EventQueue`](crate::EventQueue)).
    #[default]
    Heap,
    /// Hierarchical timing wheel ([`TimingWheel`](crate::TimingWheel)).
    Wheel,
}

impl SchedulerKind {
    /// All kinds, for harnesses that sweep schedulers.
    pub const ALL: [SchedulerKind; 2] = [SchedulerKind::Heap, SchedulerKind::Wheel];
}

/// Lowercase name, for harness log lines (the benchmark prints it).
impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SchedulerKind::Heap => "heap",
            SchedulerKind::Wheel => "wheel",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_heap() {
        assert_eq!(SchedulerKind::default(), SchedulerKind::Heap);
    }
}
