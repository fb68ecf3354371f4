//! Stop-the-world mark-sweep collection over the shared [`WordPool`]
//! block allocator.
//!
//! Allocation takes the free-list fast path; when the pool cannot satisfy a
//! request (or an allocation-volume threshold is crossed) the world stops,
//! live objects are marked from the root set, and unmarked objects are swept
//! back onto the free lists. Pause times are recorded per collection so
//! experiment E1 can report the tail the paper worries about.

use crate::freelist::WordPool;
use crate::handle::{object_accessors, HandleTable, Objects};
use crate::stats::MemStats;
use crate::{Handle, Manager, MemError, Word, WORD_BYTES};
use std::time::Instant;

/// A tracing mark-sweep collector.
///
/// ```
/// use sysmem::{Manager, ManagerExt, marksweep::MarkSweepHeap};
///
/// let mut h = MarkSweepHeap::new(1 << 16);
/// let root = h.alloc(1, 0).unwrap();
/// h.add_root(root);
/// let child = h.alloc(0, 1).unwrap();
/// h.link(root, 0, Some(child));
/// h.collect();
/// assert!(h.is_live(child)); // reachable through root
/// h.link(root, 0, None);
/// h.collect();
/// assert!(!h.is_live(child)); // now garbage
/// ```
#[derive(Debug)]
pub struct MarkSweepHeap {
    pool: WordPool,
    /// Objects by pool offset, each with its mark bit.
    table: HandleTable<usize, bool>,
    roots: Vec<Handle>,
    stats: MemStats,
    bytes_since_gc: usize,
    gc_threshold: usize,
}

impl MarkSweepHeap {
    /// Creates a heap with the given capacity in bytes. A collection is
    /// triggered whenever allocation volume since the last collection exceeds
    /// half the capacity, or on allocation failure.
    #[must_use]
    pub fn new(capacity_bytes: usize) -> Self {
        MarkSweepHeap {
            pool: WordPool::new((capacity_bytes / WORD_BYTES).max(4)),
            table: HandleTable::new(),
            roots: Vec::new(),
            stats: MemStats::new(),
            bytes_since_gc: 0,
            gc_threshold: capacity_bytes / 2,
        }
    }

    fn mark_from_roots(&mut self) {
        let mut worklist: Vec<Handle> = self.roots.clone();
        while let Some(h) = worklist.pop() {
            match self.table.get_mut(h) {
                Ok(o) if !o.meta => o.meta = true,
                _ => continue,
            }
            worklist.extend(self.refs(h));
        }
    }

    fn sweep(&mut self) {
        self.table.retain(|o| {
            let marked = std::mem::take(&mut o.meta);
            if !marked {
                self.stats.collected_objects += 1;
                self.pool.free(o.loc);
            }
            marked
        });
    }
}

impl Objects for MarkSweepHeap {
    type Loc = usize;
    type Meta = bool;

    fn table(&self) -> &HandleTable<usize, bool> {
        &self.table
    }

    fn read(&self, at: usize, i: usize) -> Word {
        self.pool.read(at + i)
    }

    fn write(&mut self, at: usize, i: usize, w: Word) {
        self.pool.write(at + i, w);
    }
}

impl Manager for MarkSweepHeap {
    object_accessors!();

    fn name(&self) -> &'static str {
        "mark-sweep"
    }

    fn alloc(&mut self, nrefs: usize, nwords: usize) -> Result<Handle, MemError> {
        let payload = nrefs + nwords;
        if self.bytes_since_gc > self.gc_threshold {
            self.collect();
        }
        let off = match self.pool.alloc(payload) {
            Some(off) => off,
            None => {
                self.collect();
                self.pool.alloc(payload).ok_or(MemError::OutOfMemory {
                    requested: payload * WORD_BYTES,
                })?
            }
        };
        self.stats.allocs += 1;
        self.stats.bytes_allocated += (payload * WORD_BYTES) as u64;
        self.bytes_since_gc += payload * WORD_BYTES;
        Ok(self.table.insert(off, nrefs, nwords, false))
    }

    fn free(&mut self, _h: Handle) -> Result<(), MemError> {
        Err(MemError::Unsupported("mark-sweep reclaims automatically"))
    }

    fn add_root(&mut self, obj: Handle) {
        self.roots.push(obj);
    }

    fn remove_root(&mut self, obj: Handle) {
        if let Some(pos) = self.roots.iter().rposition(|&r| r == obj) {
            self.roots.swap_remove(pos);
        }
    }

    fn collect(&mut self) {
        sysobs::obs_span!("mem.collect.marksweep");
        let t0 = Instant::now();
        self.mark_from_roots();
        self.sweep();
        self.bytes_since_gc = 0;
        self.stats.collections += 1;
        self.stats.record_gc_pause(t0.elapsed());
    }

    fn stats(&self) -> &MemStats {
        &self.stats
    }

    fn live_bytes(&self) -> usize {
        self.table.live_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManagerExt;

    #[test]
    fn unrooted_objects_are_collected() {
        let mut h = MarkSweepHeap::new(4096);
        let o = h.alloc(0, 1).unwrap();
        h.collect();
        assert!(!h.is_live(o));
        assert_eq!(h.stats().collected_objects, 1);
    }

    #[test]
    fn rooted_objects_survive() {
        let mut h = MarkSweepHeap::new(4096);
        let o = h.alloc(0, 1).unwrap();
        h.add_root(o);
        h.put(o, 0, 99);
        h.collect();
        assert_eq!(h.get(o, 0), 99);
    }

    #[test]
    fn transitively_reachable_objects_survive() {
        let mut h = MarkSweepHeap::new(4096);
        let a = h.alloc(1, 0).unwrap();
        let b = h.alloc(1, 0).unwrap();
        let c = h.alloc(0, 1).unwrap();
        h.add_root(a);
        h.link(a, 0, Some(b));
        h.link(b, 0, Some(c));
        h.put(c, 0, 7);
        h.collect();
        assert_eq!(h.get(c, 0), 7);
    }

    #[test]
    fn cycles_are_collected_when_unrooted() {
        let mut h = MarkSweepHeap::new(4096);
        let a = h.alloc(1, 0).unwrap();
        let b = h.alloc(1, 0).unwrap();
        h.link(a, 0, Some(b));
        h.link(b, 0, Some(a));
        h.collect();
        assert!(!h.is_live(a));
        assert!(!h.is_live(b));
    }

    #[test]
    fn gc_runs_on_exhaustion_and_recycles_space() {
        let mut h = MarkSweepHeap::new(1024); // 128 words
                                              // Allocate garbage until well past capacity: must succeed via GC.
        for i in 0..100 {
            let o = h.alloc(0, 8).unwrap();
            h.put(o, 0, i);
        }
        assert!(h.stats().collections > 0);
    }

    #[test]
    fn remove_root_makes_object_collectable() {
        let mut h = MarkSweepHeap::new(4096);
        let o = h.alloc(0, 0).unwrap();
        h.add_root(o);
        h.collect();
        assert!(h.is_live(o));
        h.remove_root(o);
        h.collect();
        assert!(!h.is_live(o));
    }

    #[test]
    fn duplicate_roots_require_matching_removals() {
        let mut h = MarkSweepHeap::new(4096);
        let o = h.alloc(0, 0).unwrap();
        h.add_root(o);
        h.add_root(o);
        h.remove_root(o);
        h.collect();
        assert!(h.is_live(o), "one root registration remains");
    }

    #[test]
    fn oom_when_live_data_exceeds_capacity() {
        let mut h = MarkSweepHeap::new(512); // 64 words
        let mut prev: Option<Handle> = None;
        let mut oom = false;
        for _ in 0..20 {
            match h.alloc(1, 4) {
                Ok(o) => {
                    h.add_root(o);
                    h.set_ref(o, 0, prev).unwrap();
                    prev = Some(o);
                }
                Err(MemError::OutOfMemory { .. }) => {
                    oom = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(oom, "rooted data beyond capacity must OOM, not corrupt");
    }

    #[test]
    fn pause_histogram_records_collections() {
        let mut h = MarkSweepHeap::new(4096);
        for _ in 0..10 {
            h.alloc(0, 4).unwrap();
        }
        h.collect();
        assert_eq!(h.stats().gc_pauses.count(), 1);
    }

    #[test]
    fn churn_reuses_handle_slots() {
        let mut h = MarkSweepHeap::new(1 << 16);
        let peak = crate::handle::tests::churn(&mut h, false);
        assert!(
            h.table.slots() <= peak,
            "{} slots for {peak} live",
            h.table.slots()
        );
    }
}
