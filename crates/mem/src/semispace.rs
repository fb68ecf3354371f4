//! Cheney-style semispace copying collection.
//!
//! The heap is split into two equal spaces; allocation bumps a pointer in the
//! active space, and collection copies live objects into the other space,
//! leaving garbage behind. Because handles are indirect (the handle table
//! maps handle → current offset), copying updates only the table — reference
//! slots hold handles and never need rewriting.

use crate::handle::{object_accessors, HandleTable, Objects};
use crate::stats::MemStats;
use crate::{Handle, Manager, MemError, Word, WORD_BYTES};
use std::collections::VecDeque;
use std::time::Instant;

/// A two-space copying collector.
///
/// ```
/// use sysmem::{Manager, ManagerExt, semispace::SemiSpaceHeap};
///
/// let mut h = SemiSpaceHeap::new(1 << 16);
/// let root = h.alloc(0, 1).unwrap();
/// h.add_root(root);
/// h.put(root, 0, 17);
/// h.collect(); // object moves, handle stays valid
/// assert_eq!(h.get(root, 0), 17);
/// ```
#[derive(Debug)]
pub struct SemiSpaceHeap {
    spaces: [Vec<Word>; 2],
    /// Index of the space allocation bumps into.
    active: usize,
    bump: usize,
    space_words: usize,
    /// Objects by (space, offset).
    table: HandleTable<(usize, usize)>,
    roots: Vec<Handle>,
    stats: MemStats,
}

impl SemiSpaceHeap {
    /// Creates a heap with the given *total* capacity in bytes; each space
    /// gets half (the classic 2x space overhead of copying collection).
    #[must_use]
    pub fn new(capacity_bytes: usize) -> Self {
        let space_words = (capacity_bytes / WORD_BYTES / 2).max(4);
        SemiSpaceHeap {
            spaces: [vec![0; space_words], vec![0; space_words]],
            active: 0,
            bump: 0,
            space_words,
            table: HandleTable::new(),
            roots: Vec::new(),
            stats: MemStats::new(),
        }
    }

    /// Copies `h` into to-space if it still resides in from-space; returns
    /// whether a copy happened.
    fn evacuate(&mut self, h: Handle, to: usize, to_bump: &mut usize) -> bool {
        let Ok(o) = self.table.get(h) else {
            return false;
        };
        let ((from, off), len) = (o.loc, o.len());
        if from == to {
            return false;
        }
        debug_assert!(*to_bump + len <= self.space_words, "to-space overflow");
        for i in 0..len {
            self.spaces[to][*to_bump + i] = self.spaces[from][off + i];
        }
        self.table.get_mut(h).expect("live above").loc = (to, *to_bump);
        *to_bump += len;
        self.stats.bytes_copied += (len * WORD_BYTES) as u64;
        true
    }
}

impl Objects for SemiSpaceHeap {
    type Loc = (usize, usize);
    type Meta = ();

    fn table(&self) -> &HandleTable<(usize, usize)> {
        &self.table
    }

    fn read(&self, (space, off): (usize, usize), i: usize) -> Word {
        self.spaces[space][off + i]
    }

    fn write(&mut self, (space, off): (usize, usize), i: usize, w: Word) {
        self.spaces[space][off + i] = w;
    }
}

impl Manager for SemiSpaceHeap {
    object_accessors!();

    fn name(&self) -> &'static str {
        "semispace"
    }

    fn alloc(&mut self, nrefs: usize, nwords: usize) -> Result<Handle, MemError> {
        let payload = nrefs + nwords;
        if self.bump + payload > self.space_words {
            self.collect();
            if self.bump + payload > self.space_words {
                return Err(MemError::OutOfMemory {
                    requested: payload * WORD_BYTES,
                });
            }
        }
        let off = self.bump;
        self.bump += payload;
        self.spaces[self.active][off..off + payload].fill(0);
        self.stats.allocs += 1;
        self.stats.bytes_allocated += (payload * WORD_BYTES) as u64;
        Ok(self.table.insert((self.active, off), nrefs, nwords, ()))
    }

    fn free(&mut self, _h: Handle) -> Result<(), MemError> {
        Err(MemError::Unsupported("semispace reclaims automatically"))
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
        sysobs::obs_span!("mem.collect.semispace");
        let t0 = Instant::now();
        let to = 1 - self.active;
        let mut to_bump = 0usize;
        // Cheney's order: roots first, then the children of each copied
        // object in the order the objects were copied.
        let mut pending: VecDeque<Handle> = self.roots.iter().copied().collect();
        while let Some(h) = pending.pop_front() {
            if self.evacuate(h, to, &mut to_bump) {
                pending.extend(self.refs(h));
            }
        }
        // Anything still in from-space is garbage.
        self.table.retain(|o| {
            let copied = o.loc.0 == to;
            if !copied {
                self.stats.collected_objects += 1;
            }
            copied
        });
        self.active = to;
        self.bump = to_bump;
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
    fn data_survives_copying() {
        let mut h = SemiSpaceHeap::new(4096);
        let a = h.alloc(1, 2).unwrap();
        let b = h.alloc(0, 1).unwrap();
        h.add_root(a);
        h.link(a, 0, Some(b));
        h.put(a, 0, 11);
        h.put(a, 1, 22);
        h.put(b, 0, 33);
        h.collect();
        assert_eq!(h.get(a, 0), 11);
        assert_eq!(h.get(a, 1), 22);
        assert_eq!(h.deref(a, 0), Some(b));
        assert_eq!(h.get(b, 0), 33);
    }

    #[test]
    fn garbage_is_left_behind() {
        let mut h = SemiSpaceHeap::new(4096);
        let junk = h.alloc(0, 4).unwrap();
        h.collect();
        assert!(!h.is_live(junk));
        assert_eq!(h.stats().collected_objects, 1);
        assert_eq!(h.stats().bytes_copied, 0);
    }

    #[test]
    fn collection_triggered_by_exhaustion() {
        let mut h = SemiSpaceHeap::new(1024); // 64 words/space
        for i in 0..50 {
            let o = h.alloc(0, 8).unwrap();
            h.put(o, 0, i);
        }
        assert!(h.stats().collections >= 1);
    }

    #[test]
    fn shared_structure_is_copied_once() {
        let mut h = SemiSpaceHeap::new(4096);
        let shared = h.alloc(0, 1).unwrap();
        let a = h.alloc(1, 0).unwrap();
        let b = h.alloc(1, 0).unwrap();
        h.add_root(a);
        h.add_root(b);
        h.link(a, 0, Some(shared));
        h.link(b, 0, Some(shared));
        h.put(shared, 0, 5);
        let copied_before = h.stats().bytes_copied;
        h.collect();
        // shared(1 word) + a(1) + b(1) = 3 words copied, not 4.
        assert_eq!(h.stats().bytes_copied - copied_before, 3 * 8);
        assert_eq!(h.deref(a, 0), h.deref(b, 0));
    }

    #[test]
    fn cyclic_garbage_is_collected() {
        let mut h = SemiSpaceHeap::new(4096);
        let a = h.alloc(1, 0).unwrap();
        let b = h.alloc(1, 0).unwrap();
        h.link(a, 0, Some(b));
        h.link(b, 0, Some(a));
        h.collect();
        assert!(!h.is_live(a));
        assert!(!h.is_live(b));
    }

    #[test]
    fn rooted_cycle_survives() {
        let mut h = SemiSpaceHeap::new(4096);
        let a = h.alloc(1, 1).unwrap();
        let b = h.alloc(1, 1).unwrap();
        h.add_root(a);
        h.link(a, 0, Some(b));
        h.link(b, 0, Some(a));
        h.put(a, 0, 1);
        h.put(b, 0, 2);
        h.collect();
        assert_eq!(h.get(a, 0), 1);
        assert_eq!(h.get(b, 0), 2);
    }

    #[test]
    fn oom_when_live_exceeds_one_space() {
        let mut h = SemiSpaceHeap::new(256); // 16 words/space
        let a = h.alloc(0, 10).unwrap();
        h.add_root(a);
        assert!(matches!(h.alloc(0, 10), Err(MemError::OutOfMemory { .. })));
    }

    #[test]
    fn repeated_collections_preserve_long_lived_data() {
        let mut h = SemiSpaceHeap::new(8192);
        let keep = h.alloc(0, 4).unwrap();
        h.add_root(keep);
        for i in 0..4 {
            h.put(keep, i, i as u64 + 100);
        }
        for _ in 0..10 {
            h.alloc(0, 16).unwrap();
            h.collect();
        }
        for i in 0..4 {
            assert_eq!(h.get(keep, i), i as u64 + 100);
        }
    }

    #[test]
    fn churn_reuses_handle_slots() {
        let mut h = SemiSpaceHeap::new(1 << 16);
        let peak = crate::handle::tests::churn(&mut h, false);
        assert!(
            h.table.slots() <= peak,
            "{} slots for {peak} live",
            h.table.slots()
        );
    }
}
