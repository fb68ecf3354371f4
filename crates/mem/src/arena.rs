//! Region (arena) allocation: bump allocation into lexically scoped regions,
//! freed wholesale when the region closes.
//!
//! This is the discipline the paper calls "idiomatic manual storage
//! management" (Challenge 2): allocation is a pointer bump, deallocation is
//! O(1) per region, and the scope structure statically bounds object
//! lifetimes — the model later adopted by Cyclone regions and Rust lifetimes.

use crate::handle::{object_accessors, HandleTable, Obj, Objects};
use crate::stats::MemStats;
use crate::{Handle, Manager, MemError, Word, WORD_BYTES};

/// Identifier of an open region. Regions form a stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(u32);

#[derive(Debug)]
struct Region {
    data: Vec<u64>,
    live_bytes: usize,
    closed: bool,
}

/// A stack-of-regions heap.
///
/// Objects are bump-allocated into the innermost open region by default (or a
/// named region via [`RegionHeap::alloc_in`]). Closing a region frees every
/// object allocated in it; handles into a closed region become invalid, and
/// all accessors report [`MemError::InvalidHandle`] — the dynamic analogue of
/// the static scoping guarantee a region type system would give.
///
/// ```
/// use sysmem::{Manager, ManagerExt, arena::RegionHeap};
///
/// let mut h = RegionHeap::new(1 << 20);
/// let outer = h.open_region();
/// let a = h.alloc(0, 1).unwrap();
/// let inner = h.open_region();
/// let b = h.alloc(0, 1).unwrap();
/// h.close_region(inner);
/// assert!(h.is_live(a));
/// assert!(!h.is_live(b)); // b died with its region
/// h.close_region(outer);
/// ```
#[derive(Debug)]
pub struct RegionHeap {
    regions: Vec<Region>,
    stack: Vec<u32>,
    /// Objects by (region, offset). Slots are never released: an object
    /// dies with its region, which the liveness check reads.
    table: HandleTable<(u32, usize)>,
    stats: MemStats,
    capacity_words: usize,
    used_words: usize,
}

impl RegionHeap {
    /// Creates a heap with the given total capacity in bytes. A base region
    /// (never closeable) is opened automatically.
    #[must_use]
    pub fn new(capacity_bytes: usize) -> Self {
        let mut heap = RegionHeap {
            regions: Vec::new(),
            stack: Vec::new(),
            table: HandleTable::new(),
            stats: MemStats::new(),
            capacity_words: capacity_bytes / WORD_BYTES,
            used_words: 0,
        };
        heap.open_region();
        heap
    }

    /// Opens a new region and makes it the current allocation target.
    pub fn open_region(&mut self) -> RegionId {
        let id = u32::try_from(self.regions.len()).expect("region count fits u32");
        self.regions.push(Region {
            data: Vec::new(),
            live_bytes: 0,
            closed: false,
        });
        self.stack.push(id);
        RegionId(id)
    }

    /// Closes a region, freeing all its objects at once.
    ///
    /// Regions must close in LIFO order; closing a region also closes any
    /// regions opened after it (like unwinding nested scopes).
    ///
    /// # Panics
    ///
    /// Panics if the region is already closed or is the base region.
    pub fn close_region(&mut self, id: RegionId) {
        assert!(id.0 != 0, "the base region cannot be closed");
        assert!(!self.regions[id.0 as usize].closed, "region closed twice");
        while let Some(&top) = self.stack.last() {
            let r = &mut self.regions[top as usize];
            r.closed = true;
            self.used_words -= r.data.len();
            self.stats.collected_objects += 0; // regions free in bulk; no per-object count
            r.data = Vec::new();
            r.live_bytes = 0;
            self.stack.pop();
            if top == id.0 {
                return;
            }
        }
        unreachable!("region {id:?} was not on the stack");
    }

    /// The innermost open region.
    #[must_use]
    pub fn current_region(&self) -> RegionId {
        RegionId(*self.stack.last().expect("base region always open"))
    }

    /// Number of currently open regions (including the base region).
    #[must_use]
    pub fn open_regions(&self) -> usize {
        self.stack.len()
    }

    /// Allocates into a specific open region rather than the innermost one.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Unsupported`] if the region is closed, or
    /// [`MemError::OutOfMemory`] if capacity is exhausted.
    pub fn alloc_in(
        &mut self,
        region: RegionId,
        nrefs: usize,
        nwords: usize,
    ) -> Result<Handle, MemError> {
        let payload = nrefs + nwords;
        if self.used_words + payload > self.capacity_words {
            return Err(MemError::OutOfMemory {
                requested: payload * WORD_BYTES,
            });
        }
        let r = self
            .regions
            .get_mut(region.0 as usize)
            .filter(|r| !r.closed)
            .ok_or(MemError::Unsupported("allocation into closed region"))?;
        let off = r.data.len();
        r.data.resize(off + payload, 0);
        r.live_bytes += payload * WORD_BYTES;
        self.used_words += payload;
        self.stats.allocs += 1;
        self.stats.bytes_allocated += (payload * WORD_BYTES) as u64;
        Ok(self.table.insert((region.0, off), nrefs, nwords, ()))
    }
}

impl Objects for RegionHeap {
    type Loc = (u32, usize);
    type Meta = ();

    fn table(&self) -> &HandleTable<(u32, usize)> {
        &self.table
    }

    fn read(&self, (region, off): (u32, usize), i: usize) -> Word {
        self.regions[region as usize].data[off + i]
    }

    fn write(&mut self, (region, off): (u32, usize), i: usize, w: Word) {
        self.regions[region as usize].data[off + i] = w;
    }

    /// Bulk liveness: an object of a closed region is dead.
    fn object(&self, h: Handle) -> Result<&Obj<(u32, usize)>, MemError> {
        let o = self.table.get(h)?;
        if self.regions[o.loc.0 as usize].closed {
            return Err(MemError::InvalidHandle(h));
        }
        Ok(o)
    }
}

impl Manager for RegionHeap {
    object_accessors!(except set_ref);

    fn name(&self) -> &'static str {
        "region"
    }

    fn alloc(&mut self, nrefs: usize, nwords: usize) -> Result<Handle, MemError> {
        let current = self.current_region();
        self.alloc_in(current, nrefs, nwords)
    }

    fn free(&mut self, _h: Handle) -> Result<(), MemError> {
        Err(MemError::Unsupported(
            "regions free objects in bulk via close_region",
        ))
    }

    fn set_ref(
        &mut self,
        obj: Handle,
        slot: usize,
        target: Option<Handle>,
    ) -> Result<(), MemError> {
        // Region discipline: an object may only point *inward-to-outward*
        // (toward longer-lived regions); this is the aliasing rule a
        // region type system enforces statically.
        if let Some(t) = target {
            if self.object(obj)?.loc.0 < self.object(t)?.loc.0 {
                return Err(MemError::Unsupported(
                    "region discipline violation: reference into shorter-lived region",
                ));
            }
        }
        self.write_ref(obj, slot, target).map(drop)
    }

    fn add_root(&mut self, _obj: Handle) {}

    fn remove_root(&mut self, _obj: Handle) {}

    fn collect(&mut self) {}

    fn stats(&self) -> &MemStats {
        &self.stats
    }

    fn live_bytes(&self) -> usize {
        self.regions
            .iter()
            .filter(|r| !r.closed)
            .map(|r| r.live_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManagerExt;

    #[test]
    fn base_region_allocation_works() {
        let mut h = RegionHeap::new(4096);
        let o = h.alloc(1, 2).unwrap();
        h.put(o, 1, 5);
        assert_eq!(h.get(o, 1), 5);
        assert_eq!(h.live_bytes(), 24);
    }

    #[test]
    fn closing_region_invalidates_its_objects() {
        let mut h = RegionHeap::new(4096);
        let r = h.open_region();
        let o = h.alloc(0, 1).unwrap();
        h.close_region(r);
        assert_eq!(h.get_word(o, 0), Err(MemError::InvalidHandle(o)));
    }

    #[test]
    fn close_unwinds_nested_regions() {
        let mut h = RegionHeap::new(4096);
        let r1 = h.open_region();
        let _r2 = h.open_region();
        let _r3 = h.open_region();
        assert_eq!(h.open_regions(), 4);
        h.close_region(r1);
        assert_eq!(h.open_regions(), 1);
    }

    #[test]
    fn inward_references_are_allowed_outward_rejected() {
        let mut h = RegionHeap::new(4096);
        let outer_obj = h.alloc(1, 0).unwrap();
        let r = h.open_region();
        let inner_obj = h.alloc(1, 0).unwrap();
        // inner -> outer is fine (outer lives longer).
        h.link(inner_obj, 0, Some(outer_obj));
        // outer -> inner would dangle when r closes: rejected.
        assert!(matches!(
            h.set_ref(outer_obj, 0, Some(inner_obj)),
            Err(MemError::Unsupported(_))
        ));
        h.close_region(r);
        assert!(h.is_live(outer_obj));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut h = RegionHeap::new(64); // 8 words
        assert!(h.alloc(0, 6).is_ok());
        assert!(matches!(h.alloc(0, 6), Err(MemError::OutOfMemory { .. })));
    }

    #[test]
    fn closing_region_releases_capacity() {
        let mut h = RegionHeap::new(64);
        let r = h.open_region();
        h.alloc(0, 6).unwrap();
        h.close_region(r);
        assert!(h.alloc(0, 6).is_ok());
    }

    #[test]
    fn explicit_free_is_unsupported() {
        let mut h = RegionHeap::new(4096);
        let o = h.alloc(0, 1).unwrap();
        assert!(matches!(h.free(o), Err(MemError::Unsupported(_))));
    }

    #[test]
    fn alloc_in_targets_named_region() {
        let mut h = RegionHeap::new(4096);
        let base = h.current_region();
        let r = h.open_region();
        let o = h.alloc_in(base, 0, 1).unwrap();
        h.close_region(r);
        assert!(h.is_live(o), "object in outer region survives inner close");
    }

    #[test]
    #[should_panic(expected = "base region cannot be closed")]
    fn closing_base_region_panics() {
        let mut h = RegionHeap::new(4096);
        let base = h.current_region();
        h.close_region(base);
    }

    #[test]
    #[should_panic(expected = "region closed twice")]
    fn double_close_panics() {
        let mut h = RegionHeap::new(4096);
        let r = h.open_region();
        h.close_region(r);
        h.close_region(r);
    }
}
