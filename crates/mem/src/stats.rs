//! Allocation and collection accounting shared by all managers.
//!
//! Collection pauses go into a [`sysobs::LogHistogram`], the same
//! log-bucketed structure the metrics registry's histograms use, so GC
//! pauses and registry histograms (the router's `net.batch_latency_ns`
//! among them) merge, compare and print through one implementation.

use std::fmt;
use std::time::Duration;
use sysobs::LogHistogram;

/// Allocation and collection accounting for one manager instance.
#[derive(Debug, Clone, Default)]
pub struct MemStats {
    /// Number of successful allocations.
    pub allocs: u64,
    /// Number of explicit frees (manual managers).
    pub frees: u64,
    /// Total bytes handed out over the lifetime of the heap.
    pub bytes_allocated: u64,
    /// Number of collection cycles run.
    pub collections: u64,
    /// Objects reclaimed by collection.
    pub collected_objects: u64,
    /// Bytes copied by moving collectors.
    pub bytes_copied: u64,
    /// Write-barrier triggers (generational).
    pub barrier_hits: u64,
    /// Collection pauses only, in nanoseconds.
    pub gc_pauses: LogHistogram,
}

impl MemStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed collection pause: into this instance's histogram
    /// and, when observability is enabled, into the global `mem.gc_pause_ns`
    /// registry histogram so every manager's pauses aggregate in one place.
    pub fn record_gc_pause(&mut self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.gc_pauses.record(ns);
        sysobs::obs_hist!("mem.gc_pause_ns", ns);
        sysobs::obs_count!("mem.collections", 1);
    }
}

impl fmt::Display for MemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "allocs={} frees={} bytes={} collections={} reclaimed={} pauses[{}]",
            self.allocs,
            self.frees,
            self.bytes_allocated,
            self.collections,
            self.collected_objects,
            self.gc_pauses
        )
    }
}
