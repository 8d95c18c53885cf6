//! External probes: time the scheduler, the event handlers and the
//! congestion-control callbacks from outside the simulator.
//!
//! [`Probe`] wraps any [`Scheduler`] of [`netsim::Event`]s. The engine's
//! loop is `peek_time → pop → handle(event, &mut scheduler)`, so from the
//! scheduler's seat the interval between a `pop` returning and the next
//! `peek_time`/`pop` call is exactly one handler invocation, and every
//! `push` inside that interval is one the handler made. [`TimedCc`] wraps a
//! flow's [`CongestionControl`] the same way. Each handler's *self* time is
//! its interval minus the scheduler pushes and CC callbacks inside it.
//!
//! Spans are folded into per-name `(count, total ns)` accumulators as they
//! close — a 320-host run closes ~10⁸ spans — and are read out once when
//! the run ends. Intervals chain (one's end reading is the next one's
//! start), so the probe's own clock reads land inside the intervals they
//! bound and the totals sum to the traced run stage.

use std::cell::Cell;

use dcsim::{BitRate, Bytes, Nanos, Scheduler};
use faircc::{AckFeedback, CcMode, CcSnapshot, CongestionControl, SenderLimits};
use netsim::Event;

use crate::clock::now_ns;

/// Number of [`netsim::Event`] kinds.
pub const EVENT_KINDS: usize = 9;

/// Dense index of an event's kind, `0..EVENT_KINDS`.
pub fn kind_of(ev: &Event) -> usize {
    match ev {
        Event::FlowStart(_) => 0,
        Event::FlowTrySend(_) => 1,
        Event::TxDone { .. } => 2,
        Event::Arrive { .. } => 3,
        Event::CcTimer(_) => 4,
        Event::PfcSet { .. } => 5,
        Event::Rto(_) => 6,
        Event::LinkSet { .. } => 7,
        Event::Sample => 8,
    }
}

/// A `(calls, total ns)` accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Spans closed.
    pub n: u64,
    /// Their summed duration.
    pub ns: u64,
}

impl Span {
    fn add(&mut self, ns: u64) {
        self.n += 1;
        self.ns += ns;
    }

    /// Add another accumulator's spans to this one.
    pub fn merge(&mut self, other: Span) {
        self.n += other.n;
        self.ns += other.ns;
    }

    /// Mean span duration in ns (0 when nothing was recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.ns as f64 / self.n as f64
        }
    }
}

/// What a [`Probe`] recorded over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedTotals {
    /// `push` calls and the time inside them.
    pub push: Span,
    /// Events popped; the time covers the `peek_time` + `pop` pair the
    /// engine issues per event.
    pub pop: Span,
    /// Highest number of pending events seen at a `pop`.
    pub occupancy_hwm: u64,
    /// Per event kind: handler invocations and their *self* time (interval
    /// minus nested pushes and CC callbacks).
    pub handlers: [Span; EVENT_KINDS],
}

impl SchedTotals {
    /// Add another run's totals to this one.
    pub fn merge(&mut self, other: &SchedTotals) {
        self.push.merge(other.push);
        self.pop.merge(other.pop);
        self.occupancy_hwm = self.occupancy_hwm.max(other.occupancy_hwm);
        for (mine, theirs) in self.handlers.iter_mut().zip(other.handlers) {
            mine.merge(theirs);
        }
    }

    /// Time inside the scheduler (pushes, peeks and pops).
    pub fn sched_ns(&self) -> u64 {
        self.push.ns + self.pop.ns
    }

    /// Summed handler self time over every event kind.
    pub fn handler_ns(&self) -> u64 {
        self.handlers.iter().map(|h| h.ns).sum()
    }
}

/// The handler invocation currently open.
#[derive(Debug, Clone, Copy)]
struct OpenHandler {
    kind: usize,
    start_ns: u64,
    push_ns_at_start: u64,
    cc_ns_at_start: u64,
}

/// A transparent timing wrapper around a scheduler: forwards every call
/// unchanged, so event order and counts are the wrapped scheduler's.
pub struct Probe<S> {
    inner: S,
    totals: SchedTotals,
    open: Option<OpenHandler>,
    /// Clock reading at the first `peek_time` after a handler returned
    /// (0 = none yet): where that handler's interval ended and the
    /// scheduler's peek + pop span began. `peek_time` takes `&self`, hence
    /// the `Cell`; a probe belongs to one simulation on one thread.
    sched_entry_ns: Cell<u64>,
}

impl<S> Probe<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        Probe {
            inner,
            totals: SchedTotals::default(),
            open: None,
            sched_entry_ns: Cell::new(0),
        }
    }

    /// Close the last open handler interval and return the totals. Call
    /// once, after the run.
    pub fn finish(&mut self) -> SchedTotals {
        let end = self.take_sched_entry();
        self.close_handler(end);
        self.totals
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Where the scheduler span that is now starting began: the pending
    /// `peek_time` reading, or now.
    fn take_sched_entry(&mut self) -> u64 {
        match self.sched_entry_ns.replace(0) {
            0 => now_ns(),
            t => t,
        }
    }

    fn close_handler(&mut self, end_ns: u64) {
        if let Some(h) = self.open.take() {
            let gross = end_ns.saturating_sub(h.start_ns);
            let nested = (self.totals.push.ns - h.push_ns_at_start)
                + cc_total_ns().saturating_sub(h.cc_ns_at_start);
            self.totals.handlers[h.kind].add(gross.saturating_sub(nested));
        }
    }
}

impl<S: Scheduler<Event>> Scheduler<Event> for Probe<S> {
    fn push(&mut self, at: Nanos, event: Event) {
        let t0 = now_ns();
        self.inner.push(at, event);
        self.totals.push.add(now_ns().saturating_sub(t0));
    }

    fn pop(&mut self) -> Option<(Nanos, Event)> {
        let entry = self.take_sched_entry();
        self.close_handler(entry);
        self.totals.occupancy_hwm = self.totals.occupancy_hwm.max(self.inner.len() as u64);
        let popped = self.inner.pop();
        let exit = now_ns();
        if let Some((_, ev)) = &popped {
            self.totals.pop.add(exit.saturating_sub(entry));
            self.open = Some(OpenHandler {
                kind: kind_of(ev),
                start_ns: exit,
                push_ns_at_start: self.totals.push.ns,
                cc_ns_at_start: cc_total_ns(),
            });
        }
        popped
    }

    fn peek_time(&self) -> Option<Nanos> {
        if self.open.is_some() && self.sched_entry_ns.get() == 0 {
            self.sched_entry_ns.set(now_ns().max(1));
        }
        self.inner.peek_time()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn total_pushed(&self) -> u64 {
        self.inner.total_pushed()
    }

    fn total_popped(&self) -> u64 {
        self.inner.total_popped()
    }

    fn clear(&mut self) {
        self.inner.clear();
    }
}

/// What every [`TimedCc`] on this thread recorded since [`reset_cc`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcTotals {
    /// `on_ack` calls.
    pub on_ack: Span,
    /// `on_send` calls.
    pub on_send: Span,
    /// `on_timer` calls.
    pub on_timer: Span,
    /// `on_cnp` calls.
    pub on_cnp: Span,
    /// `on_rto` calls.
    pub on_rto: Span,
}

impl CcTotals {
    /// Add another run's totals to this one.
    pub fn merge(&mut self, other: &CcTotals) {
        self.on_ack.merge(other.on_ack);
        self.on_send.merge(other.on_send);
        self.on_timer.merge(other.on_timer);
        self.on_cnp.merge(other.on_cnp);
        self.on_rto.merge(other.on_rto);
    }

    /// Time inside all five callbacks.
    pub fn total_ns(&self) -> u64 {
        self.on_ack.ns + self.on_send.ns + self.on_timer.ns + self.on_cnp.ns + self.on_rto.ns
    }
}

// simlint: allow(P1) — harness-side accumulator; a traced run lives on one thread by construction
thread_local! {
    /// The flows of a run own their CC objects behind `Box<dyn
    /// CongestionControl>`, out of the harness's reach once added, and the
    /// probe needs the running CC total to split handler self time from CC
    /// time — hence one per-thread accumulator instead of per-wrapper ones.
    static CC: Cell<CcTotals> = const { Cell::new(CcTotals {
        on_ack: Span { n: 0, ns: 0 },
        on_send: Span { n: 0, ns: 0 },
        on_timer: Span { n: 0, ns: 0 },
        on_cnp: Span { n: 0, ns: 0 },
        on_rto: Span { n: 0, ns: 0 },
    }) };
}

/// Zero this thread's CC accumulator (before a traced run).
pub fn reset_cc() {
    CC.with(|c| c.set(CcTotals::default()));
}

/// This thread's CC accumulator (after a traced run).
pub fn cc_totals() -> CcTotals {
    CC.with(Cell::get)
}

fn cc_total_ns() -> u64 {
    cc_totals().total_ns()
}

/// Run `f`, adding its duration to the span `pick` selects.
fn timed_cc<R>(pick: fn(&mut CcTotals) -> &mut Span, f: impl FnOnce() -> R) -> R {
    let t0 = now_ns();
    let out = f();
    let dt = now_ns().saturating_sub(t0);
    CC.with(|c| {
        let mut t = c.get();
        pick(&mut t).add(dt);
        c.set(t);
    });
    out
}

/// A transparent timing wrapper around one flow's congestion control:
/// times the five event callbacks, forwards everything else untouched.
pub struct TimedCc(pub Box<dyn CongestionControl>);

impl CongestionControl for TimedCc {
    fn on_ack(&mut self, fb: &AckFeedback) {
        timed_cc(|t| &mut t.on_ack, || self.0.on_ack(fb));
    }

    fn on_cnp(&mut self, now: Nanos) {
        timed_cc(|t| &mut t.on_cnp, || self.0.on_cnp(now));
    }

    fn on_send(&mut self, now: Nanos, bytes: Bytes) {
        timed_cc(|t| &mut t.on_send, || self.0.on_send(now, bytes));
    }

    fn next_timer(&self) -> Option<Nanos> {
        self.0.next_timer()
    }

    fn on_timer(&mut self, now: Nanos) {
        timed_cc(|t| &mut t.on_timer, || self.0.on_timer(now));
    }

    fn on_rto(&mut self, now: Nanos) {
        timed_cc(|t| &mut t.on_rto, || self.0.on_rto(now));
    }

    fn limits(&self) -> SenderLimits {
        self.0.limits()
    }

    fn mode(&self) -> CcMode {
        self.0.mode()
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn current_rate(&self) -> BitRate {
        self.0.current_rate()
    }

    fn snapshot(&self) -> CcSnapshot {
        self.0.snapshot()
    }

    fn publish_metrics(&self, reg: &mut simtrace::MetricsRegistry) {
        self.0.publish_metrics(reg);
    }
}
