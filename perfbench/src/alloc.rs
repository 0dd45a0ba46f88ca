//! A counting allocator for the traced run, after the pattern of the
//! repository's zero-allocation test. Only `perfbench-traced` installs it
//! as `#[global_allocator]`, so the measured runs carry no counting
//! cost; without it the counters stay at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts allocations and allocated bytes across every thread, then
/// delegates to the system allocator.
pub struct CountingAlloc;

fn note(bytes: usize) {
    // Statistics only: they publish no other data, so Relaxed suffices.
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method delegates to `System` with the caller's own
// arguments; the counter updates are atomic adds that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations and allocated bytes so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    pub allocations: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

impl AllocCount {
    /// The counters now.
    pub fn now() -> Self {
        Self {
            allocations: ALLOCATIONS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// What was counted since `earlier`.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            allocations: self.allocations - earlier.allocations,
            bytes: self.bytes - earlier.bytes,
        }
    }
}
