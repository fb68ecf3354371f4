//! Generational collection: a bump-allocated nursery with copying promotion
//! into a mark-sweep mature space, connected by a write barrier and
//! remembered set.
//!
//! This is the configuration the paper's Fallacy 1 discussion concedes is
//! "lower overhead, more predictable" than classic GC — experiment E1
//! measures whether its pause profile approaches region allocation.

use crate::freelist::WordPool;
use crate::handle::{object_accessors, HandleTable, Objects};
use crate::stats::MemStats;
use crate::{Handle, Manager, MemError, Word, WORD_BYTES};
use std::collections::HashSet;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Loc {
    Nursery(usize),
    Mature(usize),
}

/// A two-generation collector with write barrier.
///
/// ```
/// use sysmem::{Manager, ManagerExt, generational::GenerationalHeap};
///
/// let mut h = GenerationalHeap::new(1 << 16, 1 << 10);
/// let root = h.alloc(1, 0).unwrap();
/// h.add_root(root);
/// let young = h.alloc(0, 1).unwrap();
/// h.link(root, 0, Some(young));
/// h.put(young, 0, 3);
/// h.minor_collect(); // young survives via the root chain and is promoted
/// assert_eq!(h.get(young, 0), 3);
/// ```
#[derive(Debug)]
pub struct GenerationalHeap {
    nursery: Vec<u64>,
    nursery_bump: usize,
    nursery_words: usize,
    mature: WordPool,
    /// Objects by location, each with its mark bit.
    table: HandleTable<Loc, bool>,
    nursery_list: Vec<Handle>,
    roots: Vec<Handle>,
    remembered: HashSet<Handle>,
    stats: MemStats,
}

impl GenerationalHeap {
    /// Creates a heap with `mature_bytes` of mature space and a nursery of
    /// `nursery_bytes`.
    #[must_use]
    pub fn new(mature_bytes: usize, nursery_bytes: usize) -> Self {
        GenerationalHeap {
            nursery: vec![0; (nursery_bytes / WORD_BYTES).max(4)],
            nursery_bump: 0,
            nursery_words: (nursery_bytes / WORD_BYTES).max(4),
            mature: WordPool::new((mature_bytes / WORD_BYTES).max(4)),
            table: HandleTable::new(),
            nursery_list: Vec::new(),
            roots: Vec::new(),
            remembered: HashSet::new(),
            stats: MemStats::new(),
        }
    }

    /// Number of remembered-set entries (for tests and reports).
    #[must_use]
    pub fn remembered_len(&self) -> usize {
        self.remembered.len()
    }

    fn mature_alloc(&mut self, payload: usize) -> Result<usize, MemError> {
        if let Some(off) = self.mature.alloc(payload) {
            return Ok(off);
        }
        // Reclaim mature garbage and retry. This never re-enters a minor
        // collection (mark_and_sweep_mature is safe mid-promotion), so the
        // collector cannot recurse into itself.
        self.mark_and_sweep_mature();
        self.mature.alloc(payload).ok_or(MemError::OutOfMemory {
            requested: payload * WORD_BYTES,
        })
    }

    /// Copies a live nursery object into the mature space; returns false if
    /// it was already mature or is dead.
    fn promote(&mut self, h: Handle) -> bool {
        let Ok(o) = self.table.get(h) else {
            return false;
        };
        let (Loc::Nursery(off), len) = (o.loc, o.len()) else {
            return false;
        };
        let new_off = self
            .mature_alloc(len)
            .expect("promotion failed: mature space exhausted");
        for i in 0..len {
            self.mature.write(new_off + i, self.nursery[off + i]);
        }
        self.table
            .get_mut(h)
            .expect("sweeps spare nursery objects")
            .loc = Loc::Mature(new_off);
        self.stats.bytes_copied += (len * WORD_BYTES) as u64;
        true
    }

    /// Runs a minor (nursery) collection: promotes reachable nursery objects
    /// and resets the nursery.
    ///
    /// # Panics
    ///
    /// Panics if promotion fails even after a major collection (mature space
    /// exhausted by live data).
    pub fn minor_collect(&mut self) {
        // Pre-emptive: if the mature space cannot absorb a full nursery of
        // survivors, reclaim mature garbage first (cheaper than discovering
        // it mid-promotion).
        if self.mature.free_words() < self.nursery_bump + 64 {
            self.mark_and_sweep_mature();
        }
        let t0 = Instant::now();
        // Promote nursery objects reachable from the roots or from remembered
        // mature objects, scanning every promoted object in turn.
        let mut pending: Vec<Handle> = self.roots.clone();
        for h in std::mem::take(&mut self.remembered) {
            pending.extend(self.refs(h));
        }
        while let Some(h) = pending.pop() {
            if self.promote(h) {
                pending.extend(self.refs(h));
            }
        }
        // Unpromoted nursery objects are dead.
        for h in std::mem::take(&mut self.nursery_list) {
            if matches!(self.table.get(h), Ok(o) if matches!(o.loc, Loc::Nursery(_))) {
                self.table.release(h);
                self.stats.collected_objects += 1;
            }
        }
        self.nursery_bump = 0;
        self.stats.collections += 1;
        self.stats.record_gc_pause(t0.elapsed());
    }

    /// Marks from the roots (traversing nursery and mature objects alike)
    /// and sweeps unmarked *mature* objects. Safe to run at any point,
    /// including mid-promotion: the sweep clears every mark, so no stale
    /// marks survive on nursery objects.
    fn mark_and_sweep_mature(&mut self) {
        let t0 = Instant::now();
        let mut worklist: Vec<Handle> = self.roots.clone();
        while let Some(h) = worklist.pop() {
            match self.table.get_mut(h) {
                Ok(o) if !o.meta => o.meta = true,
                _ => continue,
            }
            worklist.extend(self.refs(h));
        }
        self.table
            .retain(|o| match (o.loc, std::mem::take(&mut o.meta)) {
                (Loc::Mature(off), false) => {
                    self.stats.collected_objects += 1;
                    self.mature.free(off);
                    false
                }
                _ => true,
            });
        self.stats.collections += 1;
        self.stats.record_gc_pause(t0.elapsed());
    }

    /// Runs a full collection: a minor collection followed by mark-sweep over
    /// the mature space.
    pub fn major_collect(&mut self) {
        if self.nursery_bump > 0 || !self.nursery_list.is_empty() {
            self.minor_collect();
        }
        self.mark_and_sweep_mature();
    }
}

impl Objects for GenerationalHeap {
    type Loc = Loc;
    type Meta = bool;

    fn table(&self) -> &HandleTable<Loc, bool> {
        &self.table
    }

    fn read(&self, at: Loc, i: usize) -> Word {
        match at {
            Loc::Nursery(off) => self.nursery[off + i],
            Loc::Mature(off) => self.mature.read(off + i),
        }
    }

    fn write(&mut self, at: Loc, i: usize, w: Word) {
        match at {
            Loc::Nursery(off) => self.nursery[off + i] = w,
            Loc::Mature(off) => self.mature.write(off + i, w),
        }
    }
}

impl Manager for GenerationalHeap {
    object_accessors!(except set_ref);

    fn name(&self) -> &'static str {
        "generational"
    }

    fn alloc(&mut self, nrefs: usize, nwords: usize) -> Result<Handle, MemError> {
        let payload = nrefs + nwords;
        if payload > self.nursery_words {
            return Err(MemError::OutOfMemory {
                requested: payload * WORD_BYTES,
            });
        }
        if self.nursery_bump + payload > self.nursery_words {
            self.minor_collect();
        }
        let off = self.nursery_bump;
        self.nursery_bump += payload;
        self.nursery[off..off + payload].fill(0);
        let h = self.table.insert(Loc::Nursery(off), nrefs, nwords, false);
        self.nursery_list.push(h);
        self.stats.allocs += 1;
        self.stats.bytes_allocated += (payload * WORD_BYTES) as u64;
        Ok(h)
    }

    fn free(&mut self, _h: Handle) -> Result<(), MemError> {
        Err(MemError::Unsupported(
            "generational heap reclaims automatically",
        ))
    }

    fn set_ref(
        &mut self,
        obj: Handle,
        slot: usize,
        target: Option<Handle>,
    ) -> Result<(), MemError> {
        self.write_ref(obj, slot, target)?;
        // Write barrier: record old→young pointers.
        if let Some(t) = target {
            if matches!(self.table.get(obj)?.loc, Loc::Mature(_))
                && matches!(self.table.get(t)?.loc, Loc::Nursery(_))
            {
                self.remembered.insert(obj);
                self.stats.barrier_hits += 1;
            }
        }
        Ok(())
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
        sysobs::obs_span!("mem.collect.generational");
        self.major_collect();
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

    fn heap() -> GenerationalHeap {
        GenerationalHeap::new(1 << 16, 512)
    }

    #[test]
    fn dead_nursery_objects_die_in_minor_gc() {
        let mut h = heap();
        let junk = h.alloc(0, 2).unwrap();
        h.minor_collect();
        assert!(!h.is_live(junk));
    }

    #[test]
    fn rooted_nursery_objects_are_promoted() {
        let mut h = heap();
        let o = h.alloc(0, 1).unwrap();
        h.add_root(o);
        h.put(o, 0, 42);
        h.minor_collect();
        assert_eq!(h.get(o, 0), 42);
        assert!(h.stats().bytes_copied > 0);
    }

    #[test]
    fn write_barrier_keeps_young_objects_alive() {
        let mut h = heap();
        let old = h.alloc(1, 0).unwrap();
        h.add_root(old);
        h.minor_collect(); // old is now mature
        let young = h.alloc(0, 1).unwrap();
        h.put(young, 0, 9);
        h.link(old, 0, Some(young)); // barrier fires
        assert_eq!(h.stats().barrier_hits, 1);
        h.remove_root(old);
        h.add_root(old); // root set unchanged in effect
        h.minor_collect();
        assert_eq!(h.get(young, 0), 9, "remembered set must keep young alive");
    }

    #[test]
    fn nursery_exhaustion_triggers_minor_gc() {
        let mut h = GenerationalHeap::new(1 << 16, 256); // 32-word nursery
        for _ in 0..100 {
            h.alloc(0, 8).unwrap();
        }
        assert!(h.stats().collections > 0);
    }

    #[test]
    fn major_gc_reclaims_dead_mature_objects() {
        let mut h = heap();
        let o = h.alloc(0, 4).unwrap();
        h.add_root(o);
        h.minor_collect(); // promote
        h.remove_root(o);
        h.major_collect();
        assert!(!h.is_live(o));
    }

    #[test]
    fn mature_cycle_is_reclaimed_by_major_gc() {
        let mut h = heap();
        let a = h.alloc(1, 0).unwrap();
        let b = h.alloc(1, 0).unwrap();
        h.add_root(a);
        h.add_root(b);
        h.link(a, 0, Some(b));
        h.set_ref(b, 0, Some(a)).unwrap();
        h.minor_collect();
        h.remove_root(a);
        h.remove_root(b);
        h.major_collect();
        assert!(!h.is_live(a));
        assert!(!h.is_live(b));
    }

    #[test]
    fn oversized_allocation_is_rejected() {
        let mut h = GenerationalHeap::new(1 << 16, 64); // 8-word nursery
        assert!(matches!(h.alloc(0, 100), Err(MemError::OutOfMemory { .. })));
    }

    #[test]
    fn chain_through_nursery_survives_minor_gc() {
        let mut h = heap();
        let a = h.alloc(1, 0).unwrap();
        let b = h.alloc(1, 0).unwrap();
        let c = h.alloc(0, 1).unwrap();
        h.add_root(a);
        h.link(a, 0, Some(b));
        h.link(b, 0, Some(c));
        h.put(c, 0, 77);
        h.minor_collect();
        assert_eq!(h.get(c, 0), 77);
    }

    #[test]
    fn remembered_set_clears_after_minor_gc() {
        let mut h = heap();
        let old = h.alloc(1, 0).unwrap();
        h.add_root(old);
        h.minor_collect();
        let young = h.alloc(0, 0).unwrap();
        h.link(old, 0, Some(young));
        assert_eq!(h.remembered_len(), 1);
        h.minor_collect();
        assert_eq!(h.remembered_len(), 0);
    }

    #[test]
    fn data_integrity_across_many_cycles() {
        let mut h = GenerationalHeap::new(1 << 18, 1024);
        let keep = h.alloc(0, 4).unwrap();
        h.add_root(keep);
        for i in 0..4 {
            h.put(keep, i, 1000 + i as u64);
        }
        for _ in 0..50 {
            h.alloc(1, 8).unwrap();
        }
        h.major_collect();
        for i in 0..4 {
            assert_eq!(h.get(keep, i), 1000 + i as u64);
        }
    }

    #[test]
    fn churn_reuses_handle_slots() {
        let mut h = GenerationalHeap::new(1 << 16, 1 << 12);
        let peak = crate::handle::tests::churn(&mut h, false);
        assert!(
            h.table.slots() <= peak,
            "{} slots for {peak} live",
            h.table.slots()
        );
    }
}
