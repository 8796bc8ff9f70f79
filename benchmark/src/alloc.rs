//! The counting global allocator behind `host.allocs_per_op` and
//! `host.alloc_bytes_per_op`: the measured twin of storm-lint's
//! `no-alloc-on-datapath`. The only `unsafe` in the tree lives here.
//!
//! Counting is gated by a static flag, off for timed reps (which then pay
//! one relaxed load per allocation) and on only around the traced rep's
//! run window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Relaxed throughout: the counters are statistics that publish no other
// data, read only after the threads that bumped them were joined.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state
// and `note` itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing realloc is an allocation event for the datapath budget.
        note(new_size);
        // SAFETY: `ptr`, `layout` and `new_size` obey the caller's
        // `GlobalAlloc::realloc` obligations and go to the allocator that
        // issued `ptr`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Zeroes the counters and starts counting.
pub fn start_counting() {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
}

/// Stops counting and returns `(allocations, bytes requested)`.
pub fn stop_counting() -> (u64, u64) {
    COUNTING.store(false, Ordering::Relaxed);
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}
