//! Scheduler equivalence: the hierarchical timing wheel must be
//! observationally identical to the binary heap — same `(time, event)`
//! pop sequence, including FIFO order within same-timestamp bursts — on
//! randomized push/pop interleavings.
//!
//! The generator deliberately hits the wheel's hard cases:
//! * bursts of events at one timestamp (FIFO tie-break),
//! * re-entrant pushes at exactly the time just dispatched (`now`),
//! * deltas spanning every wheel level, slot boundaries, and the
//!   overflow/spill range beyond the wheel's 2^36 ns span.
//!
//! The same-timestamp burst cases also guard the event heaps' key: both
//! `BinaryHeap`s in the workspace are `(time, seq)`-keyed, and a heap that
//! lost its sequence tie-break pops a burst out of push order here.
//! Likewise `network_events_stay_two_words` guards against boxed event
//! payloads.

use fairness_repro::dcsim::{DetRng, EventQueue, Nanos, Scheduler, TimingWheel};

/// Total randomized sequences checked (the issue floor is 1000).
const SEQUENCES: u64 = 1200;

/// One delta drawn from a mix of wheel-level ranges.
fn random_delta(rng: &mut DetRng) -> u64 {
    match rng.below(8) {
        0 => rng.below(2),                   // now / now+1
        1 => rng.below(64),                  // level 0
        2 => rng.below(1 << 12),             // level 1-2
        3 => rng.below(1 << 24),             // mid levels
        4 => rng.below(1 << 35),             // top in-span level
        5 => (1 << 36) + rng.below(1 << 30), // spill range
        6 => 63 + rng.below(3),              // slot boundary straddle
        _ => (1 << 30) - 1 + rng.below(3),   // coarse block boundary
    }
}

struct Pair {
    heap: EventQueue<u64>,
    wheel: TimingWheel<u64>,
    now: u64,
    next_id: u64,
}

impl Pair {
    fn push(&mut self, t: Nanos) {
        self.heap.push(t, self.next_id);
        self.wheel.push(t, self.next_id);
        self.next_id += 1;
    }

    /// Pop both, assert byte-identical `(time, id)`, advance `now`.
    fn pop(&mut self, seq: u64) -> Option<Nanos> {
        assert_eq!(
            self.heap.peek_time(),
            self.wheel.peek_time(),
            "seq {seq}: peek_time diverged"
        );
        let a = self.heap.pop();
        let b = self.wheel.pop();
        assert_eq!(a, b, "seq {seq}: pop diverged (heap vs wheel)");
        assert_eq!(self.heap.len(), self.wheel.len(), "seq {seq}: len diverged");
        a.map(|(t, _)| {
            self.now = self.now.max(t.as_u64());
            t
        })
    }
}

#[test]
fn wheel_matches_heap_on_randomized_sequences() {
    for seq in 0..SEQUENCES {
        let mut rng = DetRng::new(0x5eed_0000 + seq);
        let mut pair = Pair {
            heap: EventQueue::default(),
            wheel: TimingWheel::default(),
            now: 0,
            next_id: 0,
        };
        let ops = 40 + rng.below(120);
        for _ in 0..ops {
            if rng.chance(0.55) {
                // Push a burst (possibly size 1) at a single timestamp —
                // the pop order within the burst must be push order.
                let t = Nanos::from_ns(pair.now + random_delta(&mut rng));
                for _ in 0..1 + rng.below(3) {
                    pair.push(t);
                }
            } else if let Some(t) = pair.pop(seq) {
                // Re-entrant push at exactly the dispatched time: the
                // engine contract allows scheduling at `now`.
                if rng.chance(0.3) {
                    pair.push(t);
                }
            }
        }
        // Drain fully; the complete tail order must match too.
        while pair.pop(seq).is_some() {}
        assert!(pair.heap.is_empty() && pair.wheel.is_empty());
        assert_eq!(pair.heap.total_popped(), pair.wheel.total_popped());
    }
}

#[test]
fn fifo_ties_survive_a_mid_burst_drain() {
    // A same-timestamp burst pushed in two halves around an unrelated
    // pop must still pop in overall push order.
    let mut pair = Pair {
        heap: EventQueue::default(),
        wheel: TimingWheel::default(),
        now: 0,
        next_id: 0,
    };
    let t = Nanos::from_ns(1_000);
    for _ in 0..4 {
        pair.push(t);
    }
    pair.push(Nanos::from_ns(10)); // earlier event, popped first
    assert_eq!(pair.pop(u64::MAX), Some(Nanos::from_ns(10)));
    for _ in 0..4 {
        pair.push(t); // second half of the tie burst
    }
    for _ in 0..8 {
        assert_eq!(pair.pop(u64::MAX), Some(t));
    }
    assert!(pair.heap.is_empty() && pair.wheel.is_empty());
}

#[test]
fn clear_preserves_counters_and_later_pushes() {
    let mut pair = Pair {
        heap: EventQueue::default(),
        wheel: TimingWheel::default(),
        now: 0,
        next_id: 0,
    };
    for d in [5u64, 70, 1 << 20, (1 << 36) + 9] {
        pair.push(Nanos::from_ns(d));
    }
    pair.pop(u64::MAX);
    pair.heap.clear();
    pair.wheel.clear();
    assert!(pair.heap.is_empty() && pair.wheel.is_empty());
    assert_eq!(pair.heap.total_pushed(), pair.wheel.total_pushed());
    assert_eq!(pair.heap.total_popped(), pair.wheel.total_popped());
    // Pushes after a clear must still work from the last popped time.
    let t = Nanos::from_ns(pair.now + 3);
    pair.push(t);
    assert_eq!(pair.pop(u64::MAX), Some(t));
}

#[test]
fn network_events_stay_two_words() {
    // The schedulers shuffle events constantly (heap sift, wheel
    // cascade); the packet rides as an 8-byte slab handle, so the
    // whole enum must stay two words and `Copy`-movable without
    // touching the allocator.
    let size = std::mem::size_of::<fairness_repro::netsim::Event>();
    assert!(size <= 16, "Event grew to {size} bytes — boxed payload?");
}
