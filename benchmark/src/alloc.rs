//! A counting `#[global_allocator]`, switched on only in the traced pass.
//!
//! The end-to-end pass runs with counting off: each allocation then pays
//! one relaxed load and a predictable branch on top of `System`. The
//! counters are relaxed atomics; totals never lose a count, and the traced
//! pass that reads them is single-threaded.

// `GlobalAlloc` is an unsafe trait by definition; this is the only unsafe
// code of the benchmark and adds nothing but counter bumps around `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

struct Tally {
    counting: AtomicBool,
    allocs: AtomicU64,
    bytes: AtomicU64,
}

// A global allocator can only report through a global. Harness-side:
// the simulator never reads it.
static TALLY: Tally = Tally {
    counting: AtomicBool::new(false),
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};

/// `System`, counting allocation calls and requested bytes while enabled.
pub struct CountingAlloc;

// SAFETY: every method delegates to `System` with the caller's arguments
// unchanged, so `System`'s contract carries over; the counters are plain
// atomics and never touch the allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TALLY.counting.load(Relaxed) {
            TALLY.allocs.fetch_add(1, Relaxed);
            TALLY.bytes.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TALLY.counting.load(Relaxed) {
            // A growing realloc is fresh traffic for the grown part.
            TALLY.allocs.fetch_add(1, Relaxed);
            TALLY
                .bytes
                .fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        }
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch counting on or off (off at process start).
pub fn set_counting(on: bool) {
    TALLY.counting.store(on, Relaxed);
}

/// Cumulative `(allocation calls, bytes requested)` counted so far.
pub fn snapshot() -> (u64, u64) {
    (TALLY.allocs.load(Relaxed), TALLY.bytes.load(Relaxed))
}
