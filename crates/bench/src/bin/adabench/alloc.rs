//! A counting wrapper over the system allocator, so the traced run can
//! report allocations per item from outside the program. Counting is
//! off unless [`set_counting`] turned it on: the untraced run pays one
//! relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics that publish
// no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes)` counted so far, across every thread.
pub fn counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Pins glibc malloc's thresholds for the life of the process.
///
/// Left alone, glibc raises its mmap threshold whenever a large block is
/// freed, so whether the next large buffer comes from `mmap` or from the
/// heap depends on the order in which threads happened to free theirs:
/// `wire_batch`'s peak RSS read 14 MB or 22 MB from one run to the next.
/// Setting any threshold by hand turns the adjustment off. The trim
/// threshold is set to its own maximum default (128 MB), which leaves
/// the mmap threshold where it starts (128 KB); throughput is unchanged.
///
/// One arena for every thread: with an arena per thread, which arena a
/// rep's fresh threads were handed decided how much of each was
/// touched, and `imaging` peaked at 12 MB or 14 MB from one run to the
/// next. The process runs on one CPU, so the arena's lock is never
/// contended; throughput is unchanged, and `imaging` peaks at 8.5 MB.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only stores the value in malloc's own
    // parameters; it is called before any other thread exists.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, 128 << 20);
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_thresholds() {}
