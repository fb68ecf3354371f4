//! Allocation and collection accounting shared by all managers.
//!
//! Collection pauses go into a [`sysobs::LogHistogram`], the same
//! log-bucketed structure the router's latency distribution and the metrics
//! registry use, so GC pauses, packet latencies and registry histograms all
//! merge, compare and print through one implementation.

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

    /// Renders these stats as a [`sysobs::Snapshot`], keyed under
    /// `prefix` (e.g. `mem.semispace`) so several managers can merge into
    /// one unified snapshot without colliding.
    #[must_use]
    pub fn to_snapshot(&self, prefix: &str) -> sysobs::Snapshot {
        let mut snap = sysobs::Snapshot::default();
        snap.set_counter(format!("{prefix}.allocs"), self.allocs);
        snap.set_counter(format!("{prefix}.frees"), self.frees);
        snap.set_counter(format!("{prefix}.bytes_allocated"), self.bytes_allocated);
        snap.set_counter(format!("{prefix}.collections"), self.collections);
        snap.set_counter(
            format!("{prefix}.collected_objects"),
            self.collected_objects,
        );
        snap.set_counter(format!("{prefix}.bytes_copied"), self.bytes_copied);
        snap.set_counter(format!("{prefix}.barrier_hits"), self.barrier_hits);
        snap.set_hist(format!("{prefix}.gc_pause_ns"), self.gc_pauses.clone());
        snap
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_stats_snapshot_carries_counters_and_pauses() {
        let mut stats = MemStats::new();
        stats.allocs = 7;
        stats.collections = 2;
        stats.gc_pauses.record(4096);
        let snap = stats.to_snapshot("mem.test");
        assert_eq!(snap.counter("mem.test.allocs"), 7);
        assert_eq!(snap.counter("mem.test.collections"), 2);
        assert_eq!(
            snap.hist("mem.test.gc_pause_ns")
                .map(sysobs::LogHistogram::count),
            Some(1)
        );
    }
}
