//! A hierarchical timing wheel: the engine's fast calendar for event
//! populations whose firing times cluster near `now` — the shape every
//! packet-level workload produces (serialization delays, RTOs, CC timers
//! are all bounded multiples of the RTT).
//!
//! # Layout
//!
//! Six levels of 64 slots each. Level `l` has slot granularity `64^l` ns, so
//! the wheel directly covers deltas up to `64^6 = 2^36` ns (≈ 68.7 s of
//! simulated time past the cursor); rarer, farther events wait in a spill
//! heap and migrate into the wheel when the cursor approaches. Slots are
//! addressed by *absolute* time: an event firing at `t` held at level `l`
//! lives in slot `(t >> 6l) & 63`. Each level keeps a 64-bit occupancy
//! bitmap, so "next non-empty slot after the cursor" is one `rotate_right`
//! plus `trailing_zeros` — no scanning.
//!
//! # Dispatch contract
//!
//! Identical to [`EventQueue`](crate::EventQueue): pops come back ordered by
//! `(time, push seq)`. Two details carry the FIFO guarantee:
//!
//! * Every entry records the monotone push sequence number. A slot can
//!   accumulate same-time entries *out of* seq order (an early push parked at
//!   level 1 cascades down after a later same-time push landed at level 0
//!   directly), so a drained slot is sorted by seq before dispatch.
//! * `peek_time` is read-only. The engine peeks against deadlines between
//!   runs and users may then push events earlier than the peeked time, so
//!   the peek must not commit the cursor forward. Only `pop` advances it.
//!
//! # Invariants
//!
//! With `cursor` = the last dispatched time (never decreasing; pushes are
//! `>= cursor` by the engine contract):
//!
//! 1. Level-0 entries all fire within `[cursor, cursor + 64)`, so a level-0
//!    slot holds exactly one timestamp and `cursor + trailing_zeros` of the
//!    rotated bitmap is the exact earliest level-0 time.
//! 2. At levels `>= 1`, the slot sharing the cursor's own index *almost*
//!    always holds only next-revolution entries: the cursor enters a block
//!    through a cascade, which drains that block's slot first, and later
//!    pushes into the current block land at a lower level by construction.
//!    The one exception is a cascade whose lower bound ties with a coarser
//!    level's block start — the jump lands exactly on that boundary while
//!    the coarser slot still holds its entries. `upper_first` therefore
//!    verifies the own slot's actual block instead of assuming, and answers
//!    with the block start itself for current-block entries so that slot is
//!    cascaded (healed) before anything else advances.
//! 3. Each occupied slot at level `l` holds entries of a single `64^l`-sized
//!    block (entries are inserted with delta < `64^(l+1)`, one revolution),
//!    so the first occupied slot past the cursor bounds — and at level 0
//!    equals — that level's earliest entry.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::sched::Scheduler;
use crate::time::Nanos;

/// log2 of the slot count per level.
const BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Number of wheel levels.
const LEVELS: usize = 6;
/// Deltas at or beyond this go to the spill heap (`64^LEVELS`).
const SPAN: u64 = 1 << (BITS as u64 * LEVELS as u64);

/// The slot a time (or a block number) falls in: its low `BITS` bits.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "masked to SLOTS - 1, which fits in u32"
)]
fn slot_of(x: u64) -> u32 {
    (x & (SLOTS as u64 - 1)) as u32
}

/// One scheduled entry.
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
        // Inverted so the spill BinaryHeap (a max-heap) pops the earliest
        // (time, seq) first. seq is unique, so the order is total.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Where the next cursor advance should land.
enum Advance {
    /// Commit the level-0 slot holding exactly time `.0`.
    Commit(u64),
    /// Cascade the slot of level `.1` whose block starts at `.0`.
    Cascade(u64, usize),
    /// Migrate spill-heap entries; the earliest fires at `.0`.
    Spill(u64),
}

/// A hierarchical timing-wheel [`Scheduler`]. See the module docs.
pub struct TimingWheel<E> {
    /// `LEVELS * SLOTS` buckets, flat: `slots[level * SLOTS + slot]`.
    slots: Vec<Vec<Entry<E>>>,
    /// Per-level occupancy bitmaps.
    occupied: [u64; LEVELS],
    /// Entries farther than `SPAN` past the cursor, min-ordered.
    spill: BinaryHeap<Entry<E>>,
    /// The drained slot currently being dispatched, sorted by seq
    /// *descending* so `Vec::pop` yields the lowest seq in O(1).
    active: Vec<Entry<E>>,
    /// Lower bound on all pending times; the last popped time.
    cursor: u64,
    next_seq: u64,
    pushed: u64,
    popped: u64,
    pending: usize,
    /// `(time, seq)` of the most recent pop — the sim-audit witness that
    /// dispatch order is monotone in time and FIFO within a timestamp.
    last_popped: Option<(Nanos, u64)>,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimingWheel<E> {
    /// An empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        TimingWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            spill: BinaryHeap::new(),
            active: Vec::new(),
            cursor: 0,
            next_seq: 0,
            pushed: 0,
            popped: 0,
            pending: 0,
            last_popped: None,
        }
    }

    /// sim-audit: the `pending` counter must equal the entries actually
    /// resident across the wheel slots, the spill heap, and the active
    /// drain buffer. O(levels × slots), so checked once per slot drain,
    /// not per pop.
    fn audit_occupancy(&self) {
        if crate::audit::ENABLED {
            let resident: usize = self.slots.iter().map(Vec::len).sum::<usize>()
                + self.spill.len()
                + self.active.len();
            crate::audit_assert_eq!(
                self.pending,
                resident,
                "wheel occupancy accounting: pending != slots + spill + active"
            );
            for (level, &occ) in self.occupied.iter().enumerate() {
                for slot in 0..SLOTS {
                    let has = !self.slots[level * SLOTS + slot].is_empty();
                    crate::audit_assert_eq!(
                        occ & (1 << slot) != 0,
                        has,
                        "wheel bitmap desync at level {level} slot {slot}"
                    );
                }
            }
        }
    }

    /// Place an entry into the wheel or the spill heap, relative to the
    /// current cursor. Used by push and by cascades.
    fn place(&mut self, e: Entry<E>) {
        // The engine contract forbids scheduling into the past; in release
        // builds a violating push is clamped to fire as soon as possible.
        debug_assert!(
            e.at.as_u64() >= self.cursor,
            "push at {:?} is before the wheel cursor {}",
            e.at,
            self.cursor
        );
        crate::audit_assert!(
            e.at.as_u64() >= self.cursor,
            "clock monotonicity: wheel push at {:?} behind cursor {}",
            e.at,
            self.cursor
        );
        let t = e.at.as_u64().max(self.cursor);
        let delta = t - self.cursor;
        if delta >= SPAN {
            self.spill.push(e);
            return;
        }
        // Insertion level: the smallest l with delta < 64^(l+1).
        let level = if delta == 0 {
            0
        } else {
            ((63 - delta.leading_zeros()) / BITS) as usize
        };
        let slot = slot_of(t >> (BITS as u64 * level as u64)) as usize;
        self.slots[level * SLOTS + slot].push(e);
        self.occupied[level] |= 1 << slot;
    }

    /// Exact earliest level-0 firing time, if any (invariant 1).
    #[inline]
    fn level0_next(&self) -> Option<u64> {
        if self.occupied[0] == 0 {
            return None;
        }
        let cur = slot_of(self.cursor);
        let tz = self.occupied[0].rotate_right(cur).trailing_zeros() as u64;
        Some(self.cursor + tz)
    }

    /// For level `l >= 1`: the first occupied slot past the cursor in
    /// rotation order and the start time of its block.
    ///
    /// The cursor's own index usually holds next-revolution entries
    /// (invariant 2) and counts as a full revolution away — but a cascade
    /// whose lower bound ties with a *coarser* level's block start can land
    /// the cursor exactly on that boundary before the coarser slot drains,
    /// so the own slot is checked against the actual block of its entries
    /// rather than assumed. Current-block entries report the block start
    /// itself (<= cursor, the minimum possible bound), which makes the
    /// healing cascade win the very next advance decision.
    #[inline]
    fn upper_first(&self, level: usize) -> Option<(usize, u64)> {
        let occ = self.occupied[level];
        if occ == 0 {
            return None;
        }
        let shift = BITS as u64 * level as u64;
        let cur_block = self.cursor >> shift;
        let cur = slot_of(cur_block);
        let rot = occ.rotate_right(cur);
        if rot & 1 != 0 {
            let slot = cur as usize;
            let e = self.slots[level * SLOTS + slot]
                .first()
                .expect("occupied bit set on empty slot");
            if e.at.0 >> shift == cur_block {
                return Some((slot, cur_block << shift));
            }
        }
        let (off, slot) = if rot & !1 != 0 {
            let tz = (rot & !1).trailing_zeros() as u64;
            (tz, slot_of(cur as u64 + tz) as usize)
        } else {
            (SLOTS as u64, cur as usize)
        };
        Some((slot, (cur_block + off) << shift))
    }

    /// Decide the next advance step. `None` only when nothing is pending
    /// outside `active`.
    fn next_advance(&self) -> Option<Advance> {
        let t0 = self.level0_next();
        let mut best: Option<Advance> = None;
        let mut best_lb = u64::MAX;
        for level in 1..LEVELS {
            if let Some((slot, lb)) = self.upper_first(level) {
                if lb < best_lb {
                    best_lb = lb;
                    best = Some(Advance::Cascade(lb, level * SLOTS + slot));
                }
            }
        }
        if let Some(top) = self.spill.peek() {
            if top.at.0 < best_lb {
                best_lb = top.at.0;
                best = Some(Advance::Spill(top.at.0));
            }
        }
        match t0 {
            // The level-0 time is exact; an upper block with the same lower
            // bound may still hide an equal-time entry with a smaller seq,
            // so level 0 only wins strictly.
            Some(t0) if t0 < best_lb => Some(Advance::Commit(t0)),
            _ => best,
        }
    }

    /// Advance the cursor to the next pending time and drain that level-0
    /// slot into `active`. Caller guarantees something is pending.
    fn drain_next(&mut self) {
        debug_assert!(self.active.is_empty());
        loop {
            match self.next_advance().expect("pending events exist") {
                Advance::Commit(t0) => {
                    let slot = slot_of(t0) as usize;
                    self.occupied[0] &= !(1 << slot);
                    std::mem::swap(&mut self.active, &mut self.slots[slot]);
                    // FIFO: dispatch lowest seq first; `pop` takes from the
                    // back, so sort descending.
                    self.active
                        .sort_unstable_by_key(|e| std::cmp::Reverse(e.seq));
                    self.cursor = t0;
                    if crate::audit::ENABLED {
                        // Invariant 1: a level-0 slot holds one timestamp.
                        for e in &self.active {
                            crate::audit_assert_eq!(
                                e.at.as_u64(),
                                t0,
                                "level-0 slot mixed timestamps at commit"
                            );
                        }
                        self.audit_occupancy();
                    }
                    return;
                }
                Advance::Cascade(lb, idx) => {
                    // Safe: lb is <= every pending firing time (each entry
                    // fires at or after its slot's block start). A healing
                    // cascade of the cursor's own block reports lb <= cursor;
                    // the clamp keeps the cursor monotone.
                    self.cursor = self.cursor.max(lb);
                    self.occupied[idx / SLOTS] &= !(1 << (idx % SLOTS));
                    let mut moved = std::mem::take(&mut self.slots[idx]);
                    for e in moved.drain(..) {
                        self.place(e);
                    }
                    // Hand the allocation back to the (now empty) slot.
                    self.slots[idx] = moved;
                }
                Advance::Spill(at) => {
                    self.cursor = at;
                    while let Some(top) = self.spill.peek() {
                        if top.at.0 - self.cursor >= SPAN {
                            break;
                        }
                        let e = self.spill.pop().expect("peeked");
                        self.place(e);
                    }
                }
            }
        }
    }
}

impl<E> Scheduler<E> for TimingWheel<E> {
    #[inline]
    fn push(&mut self, at: Nanos, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        self.pending += 1;
        self.place(Entry { at, seq, event });
    }

    fn pop(&mut self) -> Option<(Nanos, E)> {
        if self.active.is_empty() {
            if self.pending == 0 {
                return None;
            }
            self.drain_next();
        }
        let e = self.active.pop().expect("drained slot is non-empty");
        self.popped += 1;
        self.pending -= 1;
        if crate::audit::ENABLED {
            if let Some((lt, lseq)) = self.last_popped {
                crate::audit_assert!(
                    e.at > lt || (e.at == lt && e.seq > lseq),
                    "wheel pop order regressed: ({:?}, seq {}) after ({lt:?}, seq {lseq})",
                    e.at,
                    e.seq
                );
            }
            self.last_popped = Some((e.at, e.seq));
        }
        Some((e.at, e.event))
    }

    fn peek_time(&self) -> Option<Nanos> {
        // `active` entries share one timestamp — the minimum pending time:
        // re-entrant pushes at that same time land in the (already drained)
        // level-0 cursor slot and are picked up by the next drain.
        if let Some(e) = self.active.last() {
            return Some(e.at);
        }
        let mut best = self.level0_next();
        for level in 1..LEVELS {
            if let Some((slot, _)) = self.upper_first(level) {
                // The first occupied slot holds this level's earliest entry
                // (invariant 3); later slots start whole blocks after it.
                let slot_min = self.slots[level * SLOTS + slot]
                    .iter()
                    .map(|e| e.at.0)
                    .min()
                    .expect("occupied slot is non-empty");
                best = Some(best.map_or(slot_min, |b| b.min(slot_min)));
            }
        }
        if let Some(top) = self.spill.peek() {
            best = Some(best.map_or(top.at.0, |b| b.min(top.at.0)));
        }
        best.map(Nanos)
    }

    #[inline]
    fn len(&self) -> usize {
        self.pending
    }

    #[inline]
    fn total_pushed(&self) -> u64 {
        self.pushed
    }

    #[inline]
    fn total_popped(&self) -> u64 {
        self.popped
    }

    fn clear(&mut self) {
        for level in 0..LEVELS {
            let mut occ = self.occupied[level];
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                self.slots[level * SLOTS + slot].clear();
                occ &= occ - 1;
            }
            self.occupied[level] = 0;
        }
        self.spill.clear();
        self.active.clear();
        self.pending = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::rng::DetRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = TimingWheel::new();
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
        let mut q = TimingWheel::new();
        for i in 0..100 {
            q.push(Nanos(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Nanos(5), i)));
        }
    }

    #[test]
    fn cascaded_ties_still_dispatch_in_push_order() {
        // Seq inversion inside a slot: push A at t=100 while the cursor is
        // far away (parks at level 1), advance the cursor close, push B at
        // t=100 (lands at level 0 directly), then let A cascade down after
        // B. FIFO demands A pops first.
        let mut q = TimingWheel::new();
        q.push(Nanos(100), "a"); // delta 100 -> level 1
        q.push(Nanos(70), "warp");
        assert_eq!(q.pop(), Some((Nanos(70), "warp"))); // cursor -> 70
        q.push(Nanos(100), "b"); // delta 30 -> level 0
        assert_eq!(q.pop(), Some((Nanos(100), "a")));
        assert_eq!(q.pop(), Some((Nanos(100), "b")));
    }

    #[test]
    fn reentrant_pushes_at_now_extend_the_tie_burst() {
        let mut q = TimingWheel::new();
        q.push(Nanos(50), 0);
        q.push(Nanos(50), 1);
        assert_eq!(q.pop(), Some((Nanos(50), 0)));
        // Handler schedules more work at the same instant.
        q.push(Nanos(50), 2);
        assert_eq!(q.pop(), Some((Nanos(50), 1)));
        assert_eq!(q.pop(), Some((Nanos(50), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_is_exact_and_does_not_commit() {
        let mut q = TimingWheel::new();
        q.push(Nanos(5_000_000), 1); // level 3 territory
        assert_eq!(q.peek_time(), Some(Nanos(5_000_000)));
        // Peeking must not have advanced the cursor: an earlier push is
        // still legal and must pop first.
        q.push(Nanos(3), 2);
        assert_eq!(q.pop(), Some((Nanos(3), 2)));
        assert_eq!(q.pop(), Some((Nanos(5_000_000), 1)));
    }

    #[test]
    fn spill_heap_handles_far_future() {
        let mut q = TimingWheel::new();
        q.push(Nanos(SPAN * 3 + 17), "far");
        q.push(Nanos(2), "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Nanos(2)));
        assert_eq!(q.pop(), Some((Nanos(2), "near")));
        assert_eq!(q.pop(), Some((Nanos(SPAN * 3 + 17), "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn counters_and_clear() {
        let mut q = TimingWheel::new();
        q.push(Nanos(1), ());
        q.push(Nanos(2), ());
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), 2);
        // Post-clear pushes respect the cursor and keep working.
        q.push(Nanos(9), ());
        assert_eq!(q.pop(), Some((Nanos(9), ())));
    }

    #[test]
    fn tied_cascade_at_a_coarser_block_boundary_does_not_strand_entries() {
        // Reduced from a randomized failure: a level-4 cascade whose lower
        // bound sits exactly on a level-5 block boundary used to jump the
        // cursor onto that boundary before level 5's slot drained, after
        // which the slot read as "next revolution" and its entries were
        // popped a whole revolution late (or tripped the cursor assert).
        const L5: u64 = 1 << 30; // level-5 slot granularity
        let mut q = TimingWheel::new();
        // Parks at level 5, slot (124 & 63): block 124.
        q.push(Nanos(124 * L5 + 966_283_264), "late");
        // Move the cursor into block 123 so "late" stays parked.
        q.push(Nanos(123 * L5 + 900_000_000), "warp");
        assert_eq!(q.pop(), Some((Nanos(123 * L5 + 900_000_000), "warp")));
        // Lands at level 4 with a lower bound of exactly 124 * L5 — tying
        // the level-5 slot's block start.
        q.push(Nanos(124 * L5 + 589_824), "tie");
        assert_eq!(q.peek_time(), Some(Nanos(124 * L5 + 589_824)));
        assert_eq!(q.pop(), Some((Nanos(124 * L5 + 589_824), "tie")));
        assert_eq!(q.pop(), Some((Nanos(124 * L5 + 966_283_264), "late")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn matches_heap_on_randomized_mixed_ranges() {
        // Broad in-crate smoke version of tests/scheduler_equivalence.rs:
        // random pushes across all levels and the spill heap, interleaved
        // with pops, must match the binary heap exactly.
        let mut rng = DetRng::new(0xD15C);
        for case in 0..200 {
            let mut heap = EventQueue::new();
            let mut wheel = TimingWheel::new();
            let mut now = 0u64;
            for step in 0..200 {
                if rng.chance(0.6) {
                    let delta = match rng.below(5) {
                        0 => rng.below(4),           // ties & level 0
                        1 => rng.below(64),          // level 0
                        2 => rng.below(1 << 12),     // level 1
                        3 => rng.below(1 << 30),     // mid levels
                        _ => SPAN + rng.below(SPAN), // spill
                    };
                    let ev = case * 1000 + step;
                    heap.push(Nanos(now + delta), ev);
                    wheel.push(Nanos(now + delta), ev);
                } else {
                    let a = heap.pop();
                    let b = wheel.pop();
                    assert_eq!(a, b, "case {case} step {step}");
                    if let Some((t, _)) = a {
                        now = t.0;
                    }
                }
            }
            loop {
                let a = heap.pop();
                let b = wheel.pop();
                assert_eq!(a, b, "case {case} drain");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
