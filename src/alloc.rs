//! A counting global allocator for the bench examples.
//!
//! The benches measure steady-state heap allocations per packet rather
//! than assert them, so each bench binary installs [`CountingAlloc`] as
//! its `#[global_allocator]` and hands [`alloc_count`] to its harness. The
//! counter is process-wide; it only counts in a binary that installs the
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation and reallocation, delegating the memory
/// work to [`System`] unchanged.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates allocation to `System` unchanged; the counter is a
// relaxed atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations counted so far in this process.
#[must_use]
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
