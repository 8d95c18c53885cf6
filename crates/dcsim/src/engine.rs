//! The simulation driver: pulls events off the scheduler in time order
//! and dispatches them to a [`World`].

use crate::queue::EventQueue;
use crate::sched::Scheduler;
use crate::time::Nanos;

/// Domain logic plugged into the engine.
///
/// A `World` holds *all* mutable simulation state (arena style: flat vectors
/// indexed by ids, no interior mutability). The engine guarantees `handle`
/// is called with non-decreasing `now` values.
pub trait World {
    /// The event payload type. Keep it small; it is moved through a heap.
    type Event;

    /// React to one event. New events are scheduled through `queue`; their
    /// times must be `>= now` (enforced by the engine in debug builds).
    ///
    /// Generic over the scheduler so a world runs unchanged on the binary
    /// heap or the timing wheel; implementations just call `queue.push`.
    fn handle<S: Scheduler<Self::Event>>(&mut self, now: Nanos, event: Self::Event, queue: &mut S);
}

/// Why a call to [`Simulation::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely before the deadline.
    Drained,
    /// The deadline was reached with events still pending.
    DeadlineReached,
    /// The event budget was exhausted (runaway-protection).
    BudgetExhausted,
}

/// A discrete-event simulation: a [`World`] plus a clock and a scheduler.
///
/// The scheduler type defaults to the binary-heap [`EventQueue`], the
/// reference calendar; [`with_scheduler`](Simulation::with_scheduler) takes
/// any other (e.g. the timing wheel).
pub struct Simulation<W: World, S: Scheduler<W::Event> = EventQueue<<W as World>::Event>> {
    world: W,
    queue: S,
    now: Nanos,
    events_handled: u64,
    occupancy_hwm: usize,
}

impl<W: World> Simulation<W> {
    /// Wrap a world with an empty heap-backed schedule at time zero.
    pub fn new(world: W) -> Self {
        Simulation::with_scheduler(world, EventQueue::new())
    }
}

impl<W: World, S: Scheduler<W::Event>> Simulation<W, S> {
    /// Wrap a world with an explicit scheduler (e.g. a
    /// [`TimingWheel`](crate::TimingWheel)) at time zero.
    pub fn with_scheduler(world: W, queue: S) -> Self {
        Simulation {
            world,
            queue,
            now: Nanos::ZERO,
            events_handled: 0,
            occupancy_hwm: 0,
        }
    }

    /// Current simulation time (the timestamp of the last handled event).
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of events dispatched so far.
    #[inline]
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Immutable access to the domain state.
    #[inline]
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the schedule (to seed initial events).
    #[inline]
    pub fn queue_mut(&mut self) -> &mut S {
        &mut self.queue
    }

    /// Simultaneous access to the world and the schedule, for setup code
    /// that reads world state while seeding events (e.g. `Network::prime`).
    #[inline]
    pub fn split_mut(&mut self) -> (&mut W, &mut S) {
        (&mut self.world, &mut self.queue)
    }

    /// Highest scheduler occupancy (pending events) observed at any
    /// dispatch, for profiling scheduler sizing.
    #[inline]
    pub fn occupancy_high_water(&self) -> usize {
        self.occupancy_hwm
    }

    /// Dispatch a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.occupancy_hwm = self.occupancy_hwm.max(self.queue.len());
        match self.queue.pop() {
            Some((at, ev)) => {
                debug_assert!(
                    at >= self.now,
                    "time ran backwards: popped {at:?} at now={:?}",
                    self.now
                );
                crate::audit_assert!(
                    at >= self.now,
                    "clock monotonicity: popped {at:?} while now={:?}",
                    self.now
                );
                self.now = at;
                self.events_handled += 1;
                self.world.handle(at, ev, &mut self.queue);
                true
            }
            None => false,
        }
    }

    /// Run until the queue drains.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(Nanos::MAX)
    }

    /// Run until the queue drains or an event would fire after `deadline`
    /// (events at exactly `deadline` are processed).
    ///
    /// On `DeadlineReached` the clock is advanced to `deadline` so that
    /// post-run measurements (e.g. "queue depth at end of horizon") observe
    /// a consistent time, matching ns-3's `Simulator::Stop` semantics.
    pub fn run_until(&mut self, deadline: Nanos) -> RunOutcome {
        self.run_with_budget(deadline, u64::MAX)
    }

    /// Like [`run_until`](Self::run_until) but also stops after dispatching
    /// `budget` events. Tests use this to guard against non-terminating
    /// event storms; the figure harness uses it as a safety net.
    pub fn run_with_budget(&mut self, deadline: Nanos, budget: u64) -> RunOutcome {
        let mut remaining = budget;
        loop {
            match self.queue.peek_time() {
                None => return RunOutcome::Drained,
                Some(t) if t > deadline => {
                    self.now = deadline;
                    return RunOutcome::DeadlineReached;
                }
                Some(_) => {
                    if remaining == 0 {
                        return RunOutcome::BudgetExhausted;
                    }
                    remaining -= 1;
                    self.step();
                }
            }
        }
    }

    /// Tear down into the inner world (to extract results by value).
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wheel::TimingWheel;

    /// A world that records the order in which events arrive.
    struct Recorder {
        seen: Vec<(Nanos, u32)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle<S: Scheduler<u32>>(&mut self, now: Nanos, ev: u32, _q: &mut S) {
            self.seen.push((now, ev));
        }
    }

    #[test]
    fn dispatch_order_is_time_then_fifo() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.queue_mut().push(Nanos(20), 1);
        sim.queue_mut().push(Nanos(10), 2);
        sim.queue_mut().push(Nanos(20), 3);
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(
            sim.world().seen,
            vec![(Nanos(10), 2), (Nanos(20), 1), (Nanos(20), 3)]
        );
        assert_eq!(sim.events_handled(), 3);
    }

    #[test]
    fn dispatch_order_is_identical_on_the_wheel() {
        let mut sim = Simulation::with_scheduler(Recorder { seen: vec![] }, TimingWheel::new());
        sim.queue_mut().push(Nanos(20), 1);
        sim.queue_mut().push(Nanos(10), 2);
        sim.queue_mut().push(Nanos(20), 3);
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(
            sim.world().seen,
            vec![(Nanos(10), 2), (Nanos(20), 1), (Nanos(20), 3)]
        );
        assert_eq!(sim.events_handled(), 3);
    }

    #[test]
    fn deadline_stops_and_advances_clock() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.queue_mut().push(Nanos(10), 1);
        sim.queue_mut().push(Nanos(100), 2);
        assert_eq!(sim.run_until(Nanos(50)), RunOutcome::DeadlineReached);
        assert_eq!(sim.world().seen, vec![(Nanos(10), 1)]);
        assert_eq!(sim.now(), Nanos(50));
        // The pending event survives and can be run later.
        assert_eq!(sim.run_until(Nanos(100)), RunOutcome::Drained);
        assert_eq!(sim.world().seen.len(), 2);
    }

    #[test]
    fn events_exactly_at_deadline_fire() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.queue_mut().push(Nanos(50), 9);
        assert_eq!(sim.run_until(Nanos(50)), RunOutcome::Drained);
        assert_eq!(sim.world().seen, vec![(Nanos(50), 9)]);
    }

    /// A world that reschedules itself forever.
    struct Ticker;
    impl World for Ticker {
        type Event = ();
        fn handle<S: Scheduler<()>>(&mut self, now: Nanos, _: (), q: &mut S) {
            q.push(now + Nanos(1), ());
        }
    }

    #[test]
    fn budget_limits_runaway_worlds() {
        let mut sim = Simulation::new(Ticker);
        sim.queue_mut().push(Nanos(0), ());
        assert_eq!(
            sim.run_with_budget(Nanos::MAX, 1000),
            RunOutcome::BudgetExhausted
        );
        assert_eq!(sim.events_handled(), 1000);
    }

    #[test]
    fn step_on_empty_queue_is_false() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        assert!(!sim.step());
    }

    #[test]
    fn clock_is_monotone_across_cascades() {
        struct Cascade {
            max_seen: Nanos,
            ok: bool,
        }
        impl World for Cascade {
            type Event = u8;
            fn handle<S: Scheduler<u8>>(&mut self, now: Nanos, depth: u8, q: &mut S) {
                self.ok &= now >= self.max_seen;
                self.max_seen = self.max_seen.max(now);
                if depth > 0 {
                    // Schedule both "now" (same-time cascade) and later.
                    q.push(now, depth - 1);
                    q.push(now + Nanos(3), depth - 1);
                }
            }
        }
        let mut sim = Simulation::new(Cascade {
            max_seen: Nanos::ZERO,
            ok: true,
        });
        sim.queue_mut().push(Nanos(1), 6);
        sim.run();
        assert!(sim.world().ok, "clock went backwards");

        let mut sim = Simulation::with_scheduler(
            Cascade {
                max_seen: Nanos::ZERO,
                ok: true,
            },
            TimingWheel::new(),
        );
        sim.queue_mut().push(Nanos(1), 6);
        sim.run();
        assert!(sim.world().ok, "clock went backwards on the wheel");
    }
}
