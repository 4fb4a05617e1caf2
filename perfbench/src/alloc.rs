//! Counting global allocator for the `*.allocs_per_record` metrics.
//!
//! Counting is off by default so the untimed and end-to-end passes pay one
//! relaxed load per allocation. The traced run switches it on and reads the
//! counter at span boundaries; on single-threaded passes the counts repeat
//! exactly from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Wraps the system allocator and counts `alloc`/`realloc` calls while
/// enabled.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note() {
    // Relaxed: both atomics are statistics and publish no other data.
    if ENABLED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards the caller's arguments unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counting adds
// no memory access beyond two atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded unchanged; the caller guarantees a non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded unchanged; the caller guarantees a non-zero size.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: forwarded unchanged; the caller guarantees `ptr` came from
        // this allocator with `layout` and that `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts or stops counting.
pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Allocation calls counted so far.
#[inline]
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}
