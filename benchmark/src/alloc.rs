//! A counting global allocator. Counting is off except around the two
//! passes that report `allocs_per_pkt`, so the timed reps pay one relaxed
//! load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

// Statistics only: neither value publishes other data, so `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `GlobalAlloc::alloc`, which the caller upholds.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` obligations pass through as given.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `GlobalAlloc::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above, hence from
        // `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `GlobalAlloc::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`; `new_size` passes through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counts the allocations (on every thread) while `f` runs.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    let out = f();
    ON.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}
