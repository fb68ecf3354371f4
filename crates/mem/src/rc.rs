//! Reference counting with an optional Bacon–Rajan trial-deletion cycle
//! collector.
//!
//! Plain reference counting is the "incremental, predictable, and
//! understandable" scheme of the paper's survey — and it leaks cyclic
//! structures, which [`RcHeap::collect`] (the cycle collector) then reclaims.
//! The tests demonstrate both the leak and its repair, reproducing the
//! classic Figure-2 scenario from Wilson's GC survey cited by the course
//! notes that carried the paper.

use crate::freelist::WordPool;
use crate::handle::{object_accessors, HandleTable, Objects};
use crate::stats::MemStats;
use crate::{Handle, Manager, MemError, Word, WORD_BYTES};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Color {
    /// In use or free.
    Black,
    /// Possible member of a cycle.
    Gray,
    /// Member of a garbage cycle.
    White,
    /// Possible root of a garbage cycle.
    Purple,
}

/// An object's count and cycle-collector state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Count {
    strong: u32,
    color: Color,
    buffered: bool,
}

/// A reference-counting manager.
///
/// Counts are adjusted by [`Manager::set_ref`] (the mutator never touches
/// counts directly), roots contribute to the count, and objects free eagerly
/// when their count reaches zero. Cycles survive eager freeing; call
/// [`Manager::collect`] to run trial deletion.
///
/// ```
/// use sysmem::{Manager, ManagerExt, rc::RcHeap};
///
/// let mut h = RcHeap::new(1 << 16);
/// let a = h.alloc(1, 0).unwrap();
/// let b = h.alloc(1, 0).unwrap();
/// h.add_root(a);
/// h.link(a, 0, Some(b)); // b kept alive by a
/// h.remove_root(a);      // whole chain freed eagerly
/// assert!(!h.is_live(a));
/// assert!(!h.is_live(b));
/// ```
#[derive(Debug)]
pub struct RcHeap {
    pool: WordPool,
    table: HandleTable<usize, Count>,
    candidates: Vec<Handle>,
    stats: MemStats,
}

impl RcHeap {
    /// Creates a heap with the given capacity in bytes.
    #[must_use]
    pub fn new(capacity_bytes: usize) -> Self {
        RcHeap {
            pool: WordPool::new((capacity_bytes / WORD_BYTES).max(4)),
            table: HandleTable::new(),
            candidates: Vec::new(),
            stats: MemStats::new(),
        }
    }

    /// Releases `h`'s object (if live) and its storage.
    fn reclaim(&mut self, h: Handle) -> bool {
        let Some(o) = self.table.release(h) else {
            return false;
        };
        self.pool.free(o.loc);
        true
    }

    fn release(&mut self, h: Handle) {
        // Iterative cascade free.
        let mut worklist = vec![h];
        while let Some(h) = worklist.pop() {
            let children: Vec<Handle> = self.refs(h).collect();
            if !self.reclaim(h) {
                continue;
            }
            self.stats.frees += 1;
            for child in children {
                if let Ok(c) = self.table.get_mut(child) {
                    c.meta.strong = c.meta.strong.saturating_sub(1);
                    if c.meta.strong == 0 {
                        worklist.push(child);
                    } else {
                        // A decrement that does not reach zero may have
                        // severed a cycle edge: buffer as candidate.
                        self.suspect(child);
                    }
                }
            }
        }
    }

    /// Marks a live `h` as a possible root of a garbage cycle, buffering it
    /// unless it already is. The colour is set even when it is buffered: an
    /// increment since it was buffered turned it black, and a black
    /// candidate is dropped by [`Manager::collect`] unscanned.
    fn suspect(&mut self, h: Handle) {
        if let Ok(o) = self.table.get_mut(h) {
            o.meta.color = Color::Purple;
            if !std::mem::replace(&mut o.meta.buffered, true) {
                self.candidates.push(h);
            }
        }
    }

    fn dec(&mut self, h: Handle) {
        let Ok(o) = self.table.get_mut(h) else {
            return;
        };
        o.meta.strong = o.meta.strong.saturating_sub(1);
        if o.meta.strong == 0 {
            self.release(h);
        } else {
            self.suspect(h);
        }
    }

    fn inc(&mut self, h: Handle) {
        if let Ok(o) = self.table.get_mut(h) {
            o.meta.strong += 1;
            o.meta.color = Color::Black;
        }
    }

    /// Bytes held by objects whose reference counts are nonzero but which a
    /// tracing collector would reclaim — i.e. leaked cycles. Used by tests
    /// and experiment E1's leak column. Computing this runs a shadow trace
    /// and does not modify the heap.
    #[must_use]
    pub fn cyclic_garbage_bytes(&self) -> usize {
        // Shadow mark from "externally rooted" objects: strong count greater
        // than the number of live internal references to the object.
        let mut internal: HashMap<Handle, u32> = HashMap::new();
        for (h, _) in self.table.iter() {
            for child in self.refs(h) {
                *internal.entry(child).or_default() += 1;
            }
        }
        let mut marked = HashSet::new();
        let mut worklist: Vec<Handle> = self
            .table
            .iter()
            .filter(|(h, o)| o.meta.strong > internal.get(h).copied().unwrap_or(0))
            .map(|(h, _)| h)
            .collect();
        while let Some(h) = worklist.pop() {
            if marked.insert(h) {
                worklist.extend(self.refs(h));
            }
        }
        self.table
            .iter()
            .filter(|(h, _)| !marked.contains(h))
            .map(|(_, o)| o.bytes())
            .sum()
    }

    fn mark_gray(&mut self, start: Handle) {
        let mut stack = vec![start];
        while let Some(h) = stack.pop() {
            match self.table.get_mut(h) {
                Ok(o) if o.meta.color != Color::Gray => o.meta.color = Color::Gray,
                _ => continue,
            }
            for child in self.refs(h).collect::<Vec<_>>() {
                if let Ok(c) = self.table.get_mut(child) {
                    c.meta.strong = c.meta.strong.saturating_sub(1);
                    stack.push(child);
                }
            }
        }
    }

    fn scan(&mut self, start: Handle) {
        let mut stack = vec![start];
        while let Some(h) = stack.pop() {
            let Ok(o) = self.table.get_mut(h) else {
                continue;
            };
            if o.meta.color != Color::Gray {
                continue;
            }
            if o.meta.strong > 0 {
                self.scan_black(h);
            } else {
                o.meta.color = Color::White;
                stack.extend(self.refs(h));
            }
        }
    }

    fn scan_black(&mut self, start: Handle) {
        let mut stack = vec![start];
        if let Ok(o) = self.table.get_mut(start) {
            o.meta.color = Color::Black;
        }
        while let Some(h) = stack.pop() {
            for child in self.refs(h).collect::<Vec<_>>() {
                if let Ok(c) = self.table.get_mut(child) {
                    c.meta.strong += 1;
                    if c.meta.color != Color::Black {
                        c.meta.color = Color::Black;
                        stack.push(child);
                    }
                }
            }
        }
    }

    fn collect_white(&mut self, start: Handle) {
        let mut to_free = Vec::new();
        let mut stack = vec![start];
        while let Some(h) = stack.pop() {
            match self.table.get_mut(h) {
                Ok(o) if o.meta.color == Color::White && !o.meta.buffered => {
                    o.meta.color = Color::Black;
                }
                _ => continue,
            }
            stack.extend(self.refs(h));
            to_free.push(h);
        }
        for h in to_free {
            if self.reclaim(h) {
                self.stats.collected_objects += 1;
            }
        }
    }
}

impl Objects for RcHeap {
    type Loc = usize;
    type Meta = Count;

    fn table(&self) -> &HandleTable<usize, Count> {
        &self.table
    }

    fn read(&self, at: usize, i: usize) -> Word {
        self.pool.read(at + i)
    }

    fn write(&mut self, at: usize, i: usize, w: Word) {
        self.pool.write(at + i, w);
    }
}

impl Manager for RcHeap {
    object_accessors!(except set_ref);

    fn name(&self) -> &'static str {
        "refcount"
    }

    fn alloc(&mut self, nrefs: usize, nwords: usize) -> Result<Handle, MemError> {
        let payload = nrefs + nwords;
        let off = self.pool.alloc(payload).ok_or(MemError::OutOfMemory {
            requested: payload * WORD_BYTES,
        })?;
        self.stats.allocs += 1;
        self.stats.bytes_allocated += (payload * WORD_BYTES) as u64;
        let count = Count {
            strong: 0,
            color: Color::Black,
            buffered: false,
        };
        Ok(self.table.insert(off, nrefs, nwords, count))
    }

    fn free(&mut self, _h: Handle) -> Result<(), MemError> {
        Err(MemError::Unsupported(
            "refcount heap frees when counts reach zero",
        ))
    }

    fn set_ref(
        &mut self,
        obj: Handle,
        slot: usize,
        target: Option<Handle>,
    ) -> Result<(), MemError> {
        let old = self.write_ref(obj, slot, target)?;
        if let Some(t) = target {
            self.inc(t);
        }
        if let Some(old) = old {
            self.dec(old);
        }
        Ok(())
    }

    fn add_root(&mut self, obj: Handle) {
        self.inc(obj);
    }

    fn remove_root(&mut self, obj: Handle) {
        self.dec(obj);
    }

    /// Runs the trial-deletion cycle collector over buffered candidates.
    fn collect(&mut self) {
        sysobs::obs_span!("mem.collect.rc");
        let t0 = Instant::now();
        let mut retained = Vec::new();
        for h in std::mem::take(&mut self.candidates) {
            if let Ok(o) = self.table.get_mut(h) {
                if o.meta.color == Color::Purple {
                    retained.push(h);
                } else {
                    o.meta.buffered = false;
                }
            }
        }
        for &h in &retained {
            self.mark_gray(h);
        }
        for &h in &retained {
            self.scan(h);
        }
        for &h in &retained {
            if let Ok(o) = self.table.get_mut(h) {
                o.meta.buffered = false;
            }
        }
        for &h in &retained {
            self.collect_white(h);
        }
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
    fn eager_free_on_last_reference() {
        let mut h = RcHeap::new(4096);
        let o = h.alloc(0, 1).unwrap();
        h.add_root(o);
        assert!(h.is_live(o));
        h.remove_root(o);
        assert!(!h.is_live(o), "count hit zero: freed immediately");
    }

    #[test]
    fn cascade_free_walks_chains() {
        let mut h = RcHeap::new(4096);
        let a = h.alloc(1, 0).unwrap();
        let b = h.alloc(1, 0).unwrap();
        let c = h.alloc(0, 0).unwrap();
        h.add_root(a);
        h.link(a, 0, Some(b));
        h.link(b, 0, Some(c));
        h.remove_root(a);
        assert!(!h.is_live(a));
        assert!(!h.is_live(b));
        assert!(!h.is_live(c));
    }

    #[test]
    fn overwriting_a_ref_releases_the_old_target() {
        let mut h = RcHeap::new(4096);
        let a = h.alloc(1, 0).unwrap();
        let b = h.alloc(0, 0).unwrap();
        let c = h.alloc(0, 0).unwrap();
        h.add_root(a);
        h.link(a, 0, Some(b));
        h.link(a, 0, Some(c)); // b's count drops to zero
        assert!(!h.is_live(b));
        assert!(h.is_live(c));
    }

    #[test]
    fn cycles_leak_without_the_cycle_collector() {
        let mut h = RcHeap::new(4096);
        let a = h.alloc(1, 1).unwrap();
        let b = h.alloc(1, 1).unwrap();
        h.add_root(a);
        h.link(a, 0, Some(b));
        h.link(b, 0, Some(a)); // cycle
        h.remove_root(a);
        // Both survive: the classic reference-counting leak.
        assert!(h.is_live(a));
        assert!(h.is_live(b));
        assert_eq!(h.cyclic_garbage_bytes(), 32);
    }

    #[test]
    fn cycle_collector_reclaims_leaked_cycles() {
        let mut h = RcHeap::new(4096);
        let a = h.alloc(1, 1).unwrap();
        let b = h.alloc(1, 1).unwrap();
        h.add_root(a);
        h.link(a, 0, Some(b));
        h.link(b, 0, Some(a));
        h.remove_root(a);
        assert!(h.is_live(a), "leaked before cycle collection");
        h.collect();
        assert!(!h.is_live(a));
        assert!(!h.is_live(b));
        assert_eq!(h.cyclic_garbage_bytes(), 0);
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn cycle_collector_spares_externally_reachable_cycles() {
        let mut h = RcHeap::new(4096);
        let a = h.alloc(1, 0).unwrap();
        let b = h.alloc(1, 0).unwrap();
        h.add_root(a);
        h.link(a, 0, Some(b));
        h.link(b, 0, Some(a));
        // a is still rooted: trial deletion must not free the cycle.
        let x = h.alloc(1, 0).unwrap();
        h.add_root(x);
        h.link(x, 0, Some(a));
        h.set_ref(x, 0, None).unwrap(); // buffers a as candidate
        h.collect();
        assert!(h.is_live(a));
        assert!(h.is_live(b));
    }

    #[test]
    fn self_loop_is_collected() {
        let mut h = RcHeap::new(4096);
        let a = h.alloc(1, 0).unwrap();
        h.add_root(a);
        h.link(a, 0, Some(a));
        h.remove_root(a);
        assert!(h.is_live(a), "self-loop leaks under plain RC");
        h.collect();
        assert!(!h.is_live(a));
    }

    #[test]
    fn a_candidate_blackened_by_an_increment_is_recoloured_on_the_next_decrement() {
        let mut h = RcHeap::new(4096);
        let a = h.alloc(1, 0).unwrap();
        h.add_root(a);
        h.add_root(a);
        h.remove_root(a); // buffered purple
        h.link(a, 0, Some(a)); // the increment turns it black, still buffered
        h.remove_root(a); // only the self-loop holds it now
        h.collect();
        assert!(!h.is_live(a), "the self-loop must be collected");
    }

    #[test]
    fn shared_target_freed_only_after_all_owners() {
        let mut h = RcHeap::new(4096);
        let a = h.alloc(1, 0).unwrap();
        let b = h.alloc(1, 0).unwrap();
        let shared = h.alloc(0, 1).unwrap();
        h.add_root(a);
        h.add_root(b);
        h.link(a, 0, Some(shared));
        h.link(b, 0, Some(shared));
        h.remove_root(a);
        assert!(h.is_live(shared), "b still owns shared");
        h.remove_root(b);
        assert!(!h.is_live(shared));
    }

    #[test]
    fn pool_space_is_reused_after_free() {
        let mut h = RcHeap::new(256); // 32 words
        for _ in 0..50 {
            let o = h.alloc(0, 8).unwrap();
            h.add_root(o);
            h.remove_root(o);
        }
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn churn_reuses_handle_slots() {
        let mut h = RcHeap::new(1 << 16);
        let peak = crate::handle::tests::churn(&mut h, false);
        assert!(
            h.table.slots() <= peak,
            "{} slots for {peak} live",
            h.table.slots()
        );
    }
}
