//! Malloc-style allocation: a word-addressed pool with segregated free lists
//! and boundary-tag coalescing, plus the [`FreeListHeap`] manager built on it.
//!
//! This is the "C baseline" of experiment E1: explicit `alloc`/`free`, no
//! tracing, no moving. The pool itself ([`WordPool`]) is reused by the
//! mark-sweep and generational collectors as their underlying block
//! allocator, so all non-moving managers share identical allocation costs.

use crate::handle::{object_accessors, HandleTable, Objects};
use crate::stats::MemStats;
use crate::{Handle, Manager, MemError, Word, WORD_BYTES};

const NONE: u64 = u64::MAX;
const USED_BIT: u64 = 1;
/// Minimum block size in words: header, next, prev, footer.
const MIN_BLOCK: usize = 4;
const NUM_CLASSES: usize = 32;

/// A word-addressed memory pool with first-fit segregated free lists and
/// immediate boundary-tag coalescing.
///
/// Block layout (`size` counts words and includes header and footer):
///
/// ```text
/// [header: size<<1 | used] [payload or (next,prev) links ...] [footer: same]
/// ```
#[derive(Debug)]
pub struct WordPool {
    data: Vec<u64>,
    heads: [u64; NUM_CLASSES],
    free_words: usize,
}

fn class_of(payload_words: usize) -> usize {
    // Class i holds blocks whose payload capacity is >= 2^i.
    (usize::BITS - 1 - payload_words.max(1).leading_zeros()) as usize % NUM_CLASSES
}

impl WordPool {
    /// Creates a pool with the given capacity in 64-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_words < 4` (too small to hold one block).
    #[must_use]
    pub fn new(capacity_words: usize) -> Self {
        assert!(
            capacity_words >= MIN_BLOCK,
            "pool must hold at least one block"
        );
        let mut pool = WordPool {
            data: vec![0; capacity_words],
            heads: [NONE; NUM_CLASSES],
            free_words: 0,
        };
        pool.install_free_block(0, capacity_words);
        pool.free_words = capacity_words;
        pool
    }

    /// Total capacity in words.
    #[must_use]
    pub fn capacity_words(&self) -> usize {
        self.data.len()
    }

    /// Words currently on free lists (including block headers/footers).
    #[must_use]
    pub fn free_words(&self) -> usize {
        self.free_words
    }

    fn block_size(&self, h: usize) -> usize {
        usize::try_from(self.data[h] >> 1).expect("block size fits usize")
    }

    fn is_used(&self, h: usize) -> bool {
        self.data[h] & USED_BIT != 0
    }

    fn set_header(&mut self, h: usize, size: usize, used: bool) {
        let w = (size as u64) << 1 | u64::from(used);
        self.data[h] = w;
        self.data[h + size - 1] = w;
    }

    fn install_free_block(&mut self, h: usize, size: usize) {
        self.set_header(h, size, false);
        let class = class_of(size - 2);
        let head = self.heads[class];
        self.data[h + 1] = head; // next
        self.data[h + 2] = NONE; // prev
        if head != NONE {
            let head = usize::try_from(head).expect("offset fits");
            self.data[head + 2] = h as u64;
        }
        self.heads[class] = h as u64;
    }

    fn unlink_free_block(&mut self, h: usize) {
        let size = self.block_size(h);
        let class = class_of(size - 2);
        let next = self.data[h + 1];
        let prev = self.data[h + 2];
        if prev == NONE {
            self.heads[class] = next;
        } else {
            let prev = usize::try_from(prev).expect("offset fits");
            self.data[prev + 1] = next;
        }
        if next != NONE {
            let next = usize::try_from(next).expect("offset fits");
            self.data[next + 2] = prev;
        }
    }

    /// Allocates a block with at least `payload_words` of payload and returns
    /// the payload offset, or `None` if no block fits. The first
    /// `payload_words` are zeroed: a recycled block must not leak stale data
    /// (the same hygiene rule a kernel allocator follows).
    pub fn alloc(&mut self, payload_words: usize) -> Option<usize> {
        let want = (payload_words + 2).max(MIN_BLOCK);
        let mut class = class_of(want - 2);
        while class < NUM_CLASSES {
            let mut cur = self.heads[class];
            while cur != NONE {
                let h = usize::try_from(cur).expect("offset fits");
                let size = self.block_size(h);
                if size >= want {
                    self.unlink_free_block(h);
                    // Split if the remainder can stand alone as a block.
                    if size - want >= MIN_BLOCK {
                        self.set_header(h, want, true);
                        self.install_free_block(h + want, size - want);
                        self.free_words -= want;
                    } else {
                        self.set_header(h, size, true);
                        self.free_words -= size;
                    }
                    self.data[h + 1..h + 1 + payload_words].fill(0);
                    return Some(h + 1);
                }
                cur = self.data[h + 1];
            }
            class += 1;
        }
        None
    }

    /// Frees the block whose payload starts at `payload_off`, coalescing with
    /// free neighbours.
    ///
    /// # Panics
    ///
    /// Panics if the offset does not name an allocated block (double free or
    /// corruption).
    pub fn free(&mut self, payload_off: usize) {
        let mut h = payload_off - 1;
        assert!(self.is_used(h), "free of unallocated block at {h}");
        let mut size = self.block_size(h);
        self.free_words += size;
        // Coalesce with previous block.
        if h > 0 {
            let prev_footer = self.data[h - 1];
            if prev_footer & USED_BIT == 0 {
                let prev_size = usize::try_from(prev_footer >> 1).expect("size fits");
                let prev_h = h - prev_size;
                self.unlink_free_block(prev_h);
                h = prev_h;
                size += prev_size;
            }
        }
        // Coalesce with next block.
        let next_h = h + size;
        if next_h < self.data.len() && !self.is_used(next_h) {
            let next_size = self.block_size(next_h);
            self.unlink_free_block(next_h);
            size += next_size;
        }
        self.install_free_block(h, size);
    }

    /// Reads the payload word at absolute offset `off`.
    #[must_use]
    pub fn read(&self, off: usize) -> u64 {
        self.data[off]
    }

    /// Writes the payload word at absolute offset `off`.
    pub fn write(&mut self, off: usize, val: u64) {
        self.data[off] = val;
    }

    /// Walks all blocks in address order, yielding `(payload_off, payload_words, used)`.
    pub fn blocks(&self) -> impl Iterator<Item = (usize, usize, bool)> + '_ {
        let mut h = 0;
        std::iter::from_fn(move || {
            if h >= self.data.len() {
                return None;
            }
            let size = self.block_size(h);
            let item = (h + 1, size - 2, self.is_used(h));
            h += size;
            Some(item)
        })
    }

    /// Checks pool invariants: block sizes tile the pool exactly, headers
    /// match footers, and no two free blocks are adjacent.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn check_invariants(&self) {
        let mut h = 0;
        let mut prev_free = false;
        let mut free_total = 0;
        while h < self.data.len() {
            let size = self.block_size(h);
            assert!(size >= MIN_BLOCK, "undersized block at {h}");
            assert!(h + size <= self.data.len(), "block at {h} overruns pool");
            assert_eq!(
                self.data[h],
                self.data[h + size - 1],
                "header/footer mismatch at {h}"
            );
            let used = self.is_used(h);
            assert!(!prev_free || used, "adjacent free blocks at {h}");
            if !used {
                free_total += size;
            }
            prev_free = !used;
            h += size;
        }
        assert_eq!(h, self.data.len(), "blocks do not tile pool");
        assert_eq!(free_total, self.free_words, "free-word accounting drift");
    }
}

/// A malloc/free-style manager: explicit deallocation, no tracing.
///
/// ```
/// use sysmem::{Manager, ManagerExt, freelist::FreeListHeap};
///
/// let mut heap = FreeListHeap::new(1 << 16);
/// let a = heap.alloc(1, 1).unwrap();
/// let b = heap.alloc(0, 1).unwrap();
/// heap.link(a, 0, Some(b));
/// heap.free(b).unwrap();
/// assert!(heap.free(b).is_err()); // double free is detected
/// ```
#[derive(Debug)]
pub struct FreeListHeap {
    pool: WordPool,
    table: HandleTable<usize>,
    stats: MemStats,
}

impl FreeListHeap {
    /// Creates a heap with the given capacity in bytes.
    #[must_use]
    pub fn new(capacity_bytes: usize) -> Self {
        FreeListHeap {
            pool: WordPool::new((capacity_bytes / WORD_BYTES).max(MIN_BLOCK)),
            table: HandleTable::new(),
            stats: MemStats::new(),
        }
    }

    /// Exposes the underlying pool for invariant checks in tests.
    #[must_use]
    pub fn pool(&self) -> &WordPool {
        &self.pool
    }
}

impl Objects for FreeListHeap {
    type Loc = usize;
    type Meta = ();

    fn table(&self) -> &HandleTable<usize> {
        &self.table
    }

    fn read(&self, at: usize, i: usize) -> Word {
        self.pool.read(at + i)
    }

    fn write(&mut self, at: usize, i: usize, w: Word) {
        self.pool.write(at + i, w);
    }
}

impl Manager for FreeListHeap {
    object_accessors!();

    fn name(&self) -> &'static str {
        "freelist"
    }

    fn alloc(&mut self, nrefs: usize, nwords: usize) -> Result<Handle, MemError> {
        let payload = nrefs + nwords;
        let off = self.pool.alloc(payload).ok_or(MemError::OutOfMemory {
            requested: payload * WORD_BYTES,
        })?;
        self.stats.allocs += 1;
        self.stats.bytes_allocated += (payload * WORD_BYTES) as u64;
        Ok(self.table.insert(off, nrefs, nwords, ()))
    }

    fn free(&mut self, h: Handle) -> Result<(), MemError> {
        let o = self.table.release(h).ok_or(MemError::InvalidHandle(h))?;
        self.pool.free(o.loc);
        self.stats.frees += 1;
        Ok(())
    }

    fn add_root(&mut self, _obj: Handle) {}

    fn remove_root(&mut self, _obj: Handle) {}

    fn collect(&mut self) {}

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
    use proptest::prelude::*;

    #[test]
    fn pool_single_block_alloc_free_roundtrip() {
        let mut p = WordPool::new(64);
        let a = p.alloc(10).unwrap();
        p.check_invariants();
        p.free(a);
        p.check_invariants();
        assert_eq!(p.free_words(), 64);
    }

    #[test]
    fn pool_splits_and_coalesces() {
        let mut p = WordPool::new(128);
        let a = p.alloc(10).unwrap();
        let b = p.alloc(10).unwrap();
        let c = p.alloc(10).unwrap();
        p.check_invariants();
        // Free middle, then left, then right: must coalesce back to one block.
        p.free(b);
        p.check_invariants();
        p.free(a);
        p.check_invariants();
        p.free(c);
        p.check_invariants();
        assert_eq!(p.free_words(), 128);
        assert_eq!(p.blocks().count(), 1);
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let mut p = WordPool::new(16);
        assert!(p.alloc(100).is_none());
        let a = p.alloc(4).unwrap();
        // 16 - 6 = 10 words left; a 9-word payload needs 11.
        assert!(p.alloc(9).is_none());
        p.free(a);
        assert!(p.alloc(9).is_some());
    }

    #[test]
    #[should_panic(expected = "free of unallocated block")]
    fn pool_double_free_panics() {
        let mut p = WordPool::new(64);
        let a = p.alloc(4).unwrap();
        p.free(a);
        p.free(a);
    }

    #[test]
    fn heap_alloc_write_read() {
        let mut h = FreeListHeap::new(4096);
        let o = h.alloc(2, 3).unwrap();
        h.put(o, 0, 7);
        h.put(o, 2, 9);
        assert_eq!(h.get(o, 0), 7);
        assert_eq!(h.get(o, 2), 9);
        assert_eq!(h.get(o, 1), 0);
    }

    #[test]
    fn heap_refs_are_independent_of_words() {
        let mut h = FreeListHeap::new(4096);
        let a = h.alloc(2, 2).unwrap();
        let b = h.alloc(0, 1).unwrap();
        h.link(a, 0, Some(b));
        h.put(a, 0, 0xdead);
        assert_eq!(h.deref(a, 0), Some(b));
        assert_eq!(h.deref(a, 1), None);
    }

    #[test]
    fn heap_use_after_free_is_detected() {
        let mut h = FreeListHeap::new(4096);
        let o = h.alloc(0, 1).unwrap();
        h.free(o).unwrap();
        assert_eq!(h.get_word(o, 0), Err(MemError::InvalidHandle(o)));
        assert_eq!(h.free(o), Err(MemError::InvalidHandle(o)));
        assert!(!h.is_live(o));
    }

    #[test]
    fn heap_out_of_bounds_is_detected() {
        let mut h = FreeListHeap::new(4096);
        let o = h.alloc(1, 1).unwrap();
        assert!(matches!(
            h.get_word(o, 1),
            Err(MemError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            h.get_ref(o, 1),
            Err(MemError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn heap_live_bytes_tracks_alloc_and_free() {
        let mut h = FreeListHeap::new(4096);
        let o = h.alloc(1, 3).unwrap();
        assert_eq!(h.live_bytes(), 32);
        h.free(o).unwrap();
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn heap_link_to_dead_target_is_rejected() {
        let mut h = FreeListHeap::new(4096);
        let a = h.alloc(1, 0).unwrap();
        let b = h.alloc(0, 0).unwrap();
        h.free(b).unwrap();
        assert_eq!(h.set_ref(a, 0, Some(b)), Err(MemError::InvalidHandle(b)));
    }

    proptest! {
        /// Random alloc/free sequences keep pool invariants and match a
        /// shadow model of live payloads.
        #[test]
        fn pool_random_ops_preserve_invariants(ops in proptest::collection::vec((0usize..3, 1usize..40), 1..200)) {
            let mut p = WordPool::new(4096);
            let mut live: Vec<(usize, usize)> = Vec::new();
            for (kind, size) in ops {
                match kind {
                    0 | 1 => {
                        if let Some(off) = p.alloc(size) {
                            live.push((off, size));
                        }
                    }
                    _ => {
                        if !live.is_empty() {
                            let (off, _) = live.swap_remove(size % live.len());
                            p.free(off);
                        }
                    }
                }
                p.check_invariants();
            }
        }

        /// Payload data survives unrelated alloc/free churn.
        #[test]
        fn heap_data_integrity_under_churn(seed in 0u64..1000) {
            let mut h = FreeListHeap::new(1 << 16);
            let keep = h.alloc(0, 4).unwrap();
            for i in 0..4 {
                h.put(keep, i, seed.wrapping_mul(i as u64 + 1));
            }
            let mut tmp = Vec::new();
            for i in 0..50u64 {
                let o = h.alloc(1, (seed as usize + i as usize) % 8 + 1).unwrap();
                tmp.push(o);
                if i % 3 == 0 {
                    if let Some(o) = tmp.pop() {
                        h.free(o).unwrap();
                    }
                }
            }
            for i in 0..4 {
                prop_assert_eq!(h.get(keep, i), seed.wrapping_mul(i as u64 + 1));
            }
        }
    }

    #[test]
    fn churn_reuses_handle_slots() {
        let mut h = FreeListHeap::new(1 << 16);
        let peak = crate::handle::tests::churn(&mut h, true);
        assert!(
            h.table.slots() <= peak,
            "{} slots for {peak} live",
            h.table.slots()
        );
    }
}
