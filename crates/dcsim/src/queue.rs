//! The calendar queue: a time-ordered event heap with stable FIFO ordering
//! for events scheduled at the same instant.
//!
//! Determinism requirement: ns-3 (the simulator the paper used) breaks ties
//! by a monotonically increasing insertion id, and several congestion-control
//! behaviours (e.g. which of two flows' packets wins a free port) are
//! sensitive to that ordering. We replicate the same discipline: events are
//! ordered by `(time, seq)` where `seq` is assigned at push time.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::sched::Scheduler;
use crate::time::Nanos;

/// One scheduled entry. Private: users see only `(Nanos, E)` pairs.
struct Entry<E> {
    at: Nanos,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. seq is unique, so total order — no unstable comparisons.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list ordered by time with FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    pushed: u64,
    popped: u64,
    /// Events discarded by [`clear`](Self::clear), so the sim-audit
    /// conservation check `pushed == popped + cleared + len` stays exact.
    cleared: u64,
    /// `(time, seq)` of the most recent pop — the sim-audit witness that
    /// dispatch order is monotone in time and FIFO within a timestamp.
    last_popped: Option<(Nanos, u64)>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            pushed: 0,
            popped: 0,
            cleared: 0,
            last_popped: None,
        }
    }

    /// An empty queue with pre-reserved capacity (hot simulations know
    /// roughly how many in-flight events they keep: one per busy link plus
    /// one per paced flow).
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            pushed: 0,
            popped: 0,
            cleared: 0,
            last_popped: None,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    #[inline]
    pub fn push(&mut self, at: Nanos, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Remove and return the earliest event as `(time, event)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        self.heap.pop().map(|e| {
            self.popped += 1;
            if crate::audit::ENABLED {
                if let Some((lt, lseq)) = self.last_popped {
                    crate::audit_assert!(
                        e.at > lt || (e.at == lt && e.seq > lseq),
                        "heap pop order regressed: ({:?}, seq {}) after ({lt:?}, seq {lseq})",
                        e.at,
                        e.seq
                    );
                }
                self.last_popped = Some((e.at, e.seq));
                crate::audit_assert_eq!(
                    self.pushed,
                    self.popped + self.cleared + self.heap.len() as u64,
                    "heap event conservation: pushed != popped + cleared + pending"
                );
            }
            (e.at, e.event)
        })
    }

    /// The firing time of the earliest event, without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever pushed (for engine statistics).
    #[inline]
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total number of events ever popped.
    #[inline]
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Drop all pending events (e.g. when a run ends at its horizon).
    pub fn clear(&mut self) {
        self.cleared += self.heap.len() as u64;
        self.heap.clear();
    }
}

impl<E> Scheduler<E> for EventQueue<E> {
    #[inline]
    fn push(&mut self, at: Nanos, event: E) {
        EventQueue::push(self, at, event)
    }

    #[inline]
    fn pop(&mut self) -> Option<(Nanos, E)> {
        EventQueue::pop(self)
    }

    #[inline]
    fn peek_time(&self) -> Option<Nanos> {
        EventQueue::peek_time(self)
    }

    #[inline]
    fn len(&self) -> usize {
        EventQueue::len(self)
    }

    #[inline]
    fn is_empty(&self) -> bool {
        EventQueue::is_empty(self)
    }

    #[inline]
    fn total_pushed(&self) -> u64 {
        EventQueue::total_pushed(self)
    }

    #[inline]
    fn total_popped(&self) -> u64 {
        EventQueue::total_popped(self)
    }

    #[inline]
    fn clear(&mut self) {
        EventQueue::clear(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Nanos(30), "c");
        q.push(Nanos(10), "a");
        q.push(Nanos(20), "b");
        assert_eq!(q.pop(), Some((Nanos(10), "a")));
        assert_eq!(q.pop(), Some((Nanos(20), "b")));
        assert_eq!(q.pop(), Some((Nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Nanos(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Nanos(5), i)));
        }
    }

    #[test]
    fn interleaved_ties_keep_insertion_order() {
        let mut q = EventQueue::new();
        q.push(Nanos(10), 'x');
        q.push(Nanos(5), 'a');
        q.push(Nanos(10), 'y');
        q.push(Nanos(5), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'x', 'y']);
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.push(Nanos(1), ());
        q.push(Nanos(2), ());
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), 2);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(Nanos(7), 1u8);
        assert_eq!(q.peek_time(), Some(Nanos(7)));
        assert_eq!(q.len(), 1);
    }

    /// Popping everything always yields a sequence sorted by time, and
    /// within equal times, by push order.
    #[test]
    fn prop_pops_sorted_and_stable() {
        let mut rng = DetRng::new(0x9_0e0e);
        for _ in 0..256 {
            let n = rng.index(200);
            let times: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(Nanos(*t), i);
            }
            let mut last: Option<(Nanos, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    assert!(t >= lt);
                    if t == lt {
                        assert!(idx > lidx, "FIFO violated for equal timestamps");
                    }
                }
                assert_eq!(Nanos(times[idx]), t);
                last = Some((t, idx));
            }
        }
    }

    /// Push/pop counts are conserved.
    #[test]
    fn prop_conservation() {
        let mut rng = DetRng::new(0xc0_15e7);
        for _ in 0..256 {
            let n = rng.index(100);
            let times: Vec<u64> = (0..n).map(|_| rng.below(50)).collect();
            let mut q = EventQueue::new();
            for t in &times {
                q.push(Nanos(*t), ());
            }
            let mut m = 0u64;
            while q.pop().is_some() {
                m += 1;
            }
            assert_eq!(m, times.len() as u64);
            assert_eq!(q.total_pushed(), q.total_popped());
        }
    }
}
