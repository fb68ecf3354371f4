//! Copy-on-write LPM publication over epoch reclamation.
//!
//! [`CowRouteTable`] holds the same stride-4 multibit trie as
//! [`crate::lpm::TrieTable`] — the same node layout, the same edits, the
//! same lookup walk — but in a node slab behind one atomic root pointer, so
//! route updates and packet dispatch overlap instead of excluding each
//! other:
//!
//! * **Writers** (serialized by an internal mutex — route updates are a
//!   control-plane trickle, not a data-plane firehose) clone the spine from
//!   the root to the changed node (at most eight nodes), splice the
//!   unchanged subtrees in by link, and publish the whole update with a
//!   single atomic root store. The replaced spine nodes are retired into a
//!   [`sysmem::epoch::Domain`] and come back through the writer's node pool
//!   once every reader that might have seen them has unpinned — so steady
//!   route churn allocates nothing.
//! * **Readers** ([`RouteReader::pin`], one per worker) pay two `SeqCst`
//!   loads per *batch* — publication count, then root — and from there the
//!   lookup hot path is exactly the plain trie walk: zero synchronization
//!   per packet.
//!
//! Links are relative offsets within the slab, so a reader needs nothing
//! but the root pointer. When the slab fills, the writer copies it into one
//! twice the size (same indices, so every link stays valid) and retires the
//! old slab through the same epoch domain: readers pinned before the next
//! publication keep walking the old copy, which nothing writes any more.
//!
//! The publication counter is the cache generation ([`Routes::generation`]).
//! Ordering is load-bearing and asymmetric on purpose: the **writer stores
//! the root first, then bumps the counter; the reader loads the counter
//! first, then the root.** A reader can therefore observe a *new* root with
//! an *old* counter (it tags fresh decisions with a stale generation and
//! re-invalidates one publication later — conservative), but never an old
//! root with a new counter, which is the ordering that would let a
//! [`crate::cache::FlowCache`] serve pre-update decisions forever.
//!
//! The no-op-insert discipline matches the fixed [`crate::lpm::TrieTable`]:
//! re-installing an identical next hop publishes nothing — no root swap, no
//! counter bump, no cache invalidation anywhere.
//!
//! The publication protocol's unsafe code is confined to this module and
//! leans on three invariants the `syscheck` models
//! (`tests/cowtrie_model.rs`) and the epoch models in `crates/mem` check
//! mechanically: published nodes are immutable; a node is retired only
//! after it becomes unreachable from the published root; and retired nodes
//! are recycled only once no pinned reader can reference them.

use crate::lpm::{canonical, RouteError, Routes, TrieTable};
use crate::stride::{self, Node, RouteSet, Store};
use std::alloc::{self, Layout};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use syscheck::shim::{AtomicPtr, AtomicU64, Mutex};
use sysmem::epoch;

/// Fixed-capacity node storage that never moves: readers hold pointers into
/// it. Slots `0..used` have been written at least once; the rest are
/// uninitialized and never read.
struct Slab<T> {
    base: *mut Node<T>,
    cap: u32,
    used: u32,
}

impl<T: Copy> Slab<T> {
    fn layout(cap: u32) -> Layout {
        Layout::array::<Node<T>>(cap as usize).expect("slab size overflows")
    }

    fn with_capacity(cap: u32) -> Self {
        let cap = cap.max(1);
        // SAFETY: the layout has non-zero size (`cap ≥ 1`, nodes are not
        // zero-sized).
        let base = unsafe { alloc::alloc(Self::layout(cap)) }.cast::<Node<T>>();
        if base.is_null() {
            alloc::handle_alloc_error(Self::layout(cap));
        }
        Slab { base, cap, used: 0 }
    }

    /// A slab holding a copy of `nodes` at the same indices, with room for
    /// `spare` more.
    fn copy_of(nodes: &[Node<T>], spare: u32) -> Self {
        let used = u32::try_from(nodes.len()).expect("node index fits u32");
        let mut slab = Self::with_capacity(used.checked_add(spare).expect("slab size overflows"));
        // SAFETY: the slab holds at least `used` slots, is a fresh
        // allocation (no overlap), and `Node<T>` is `Copy`.
        unsafe { std::ptr::copy_nonoverlapping(nodes.as_ptr(), slab.base, nodes.len()) };
        slab.used = used;
        slab
    }

    /// The slot `i`, which must have been written (`i < used`).
    fn at(&self, i: u32) -> *mut Node<T> {
        assert!(i < self.used, "slot {i} was never written");
        // SAFETY: `i < used ≤ cap`, so the offset stays in the allocation.
        unsafe { self.base.add(i as usize) }
    }

    /// Frees the storage.
    ///
    /// # Safety
    ///
    /// No reader may still reach the slab, and it is not used afterwards.
    unsafe fn free(&self) {
        alloc::dealloc(self.base.cast(), Self::layout(self.cap));
    }
}

/// What travels through the epoch domain: a replaced node's slot, or a
/// whole slab outgrown by the writer. Raw storage is `Send`-wrapped:
/// ownership genuinely transfers (writer retires, collector recycles or
/// frees), and no reader touches it after maturity — that is the epoch
/// protocol's whole job.
enum Retired<T> {
    Node(u32),
    Slab(Slab<T>),
}

// SAFETY: a `Node` index is plain data; a `Slab` is owned storage whose
// pointer no other value aliases once retired, holding `T`s by value.
unsafe impl<T: Send> Send for Retired<T> {}

/// Writer-side state behind the update mutex: the node slab, the
/// recycled-slot pool the epoch collector refills (so steady-state updates
/// reuse slots instead of growing the slab), and the exact route set.
struct WriterState<T> {
    slab: Slab<T>,
    pool: Vec<u32>,
    routes: RouteSet<T>,
    /// The published root's slot.
    root: u32,
    /// Published nodes the current update copied; retired once it
    /// publishes.
    replaced: Vec<u32>,
    /// Slabs the current update outgrew; retired once it publishes.
    outgrown: Vec<Slab<T>>,
    /// Copies the current update pruned before publishing them.
    pruned: u64,
}

impl<T: Copy> Store<T> for WriterState<T> {
    fn node(&self, at: u32) -> &Node<T> {
        // SAFETY: `at` checks `at < used`, so the slot is initialized; the
        // writer lock is held, so nothing writes it meanwhile.
        unsafe { &*self.slab.at(at) }
    }

    fn node_mut(&mut self, at: u32) -> &mut Node<T> {
        // SAFETY: as above; writable nodes are unpublished, so no reader
        // can reach them.
        unsafe { &mut *self.slab.at(at) }
    }

    /// A blank slot: pooled if possible, then the slab's unused tail, then a
    /// slab of twice the size (the old one is retired at publication, since
    /// pinned readers may still walk it).
    fn alloc(&mut self) -> u32 {
        let at = match self.pool.pop() {
            Some(at) => at,
            None => {
                if self.slab.used == self.slab.cap {
                    // SAFETY: slots `0..used` are initialized and nothing
                    // writes them while this borrow lives.
                    let live = unsafe {
                        std::slice::from_raw_parts(self.slab.base, self.slab.used as usize)
                    };
                    let grown = Slab::copy_of(live, self.slab.cap);
                    self.outgrown.push(std::mem::replace(&mut self.slab, grown));
                }
                self.slab.used += 1;
                self.slab.used - 1
            }
        };
        // SAFETY: in bounds; the slot is unreachable from any published
        // root (fresh, or recycled after its grace period).
        unsafe { self.slab.at(at).write(Node::EMPTY) };
        at
    }

    fn writable(&mut self, at: u32) -> u32 {
        let to = self.alloc();
        let mut copy = *self.node(at);
        copy.rebase(at, to);
        *self.node_mut(to) = copy;
        self.replaced.push(at);
        to
    }

    fn release(&mut self, at: u32) {
        // Never published, so straight back to the pool.
        self.pool.push(at);
        self.pruned += 1;
    }

    fn route_set(&mut self) -> &mut RouteSet<T> {
        &mut self.routes
    }

    fn root(&self) -> u32 {
        self.root
    }
}

/// The concurrently readable LPM table: one atomic root, copy-on-write
/// spine publication, epoch-deferred reclamation. See the module docs for
/// the protocol; see [`CowRouteTable::reader`] for the worker side and
/// [`CowRouteTable::insert`]/[`CowRouteTable::remove`] for the writer side.
pub struct CowRouteTable<T: Copy + Send> {
    /// The published root. Never null: an empty table is an empty node.
    root: AtomicPtr<Node<T>>,
    /// Publication counter — the table's [`Routes::generation`]. Bumped
    /// *after* the root store (see the module docs for why that order).
    publications: AtomicU64,
    /// Spine nodes that made it back into the writer's node pool (matured
    /// through the epoch, or pruned before ever publishing) — the
    /// reclamation loop's throughput counter.
    spine_recycled: AtomicU64,
    /// Installed-route count (observability; writer-maintained).
    len: AtomicUsize,
    /// Where replaced spine nodes wait out their grace period.
    domain: Arc<epoch::Domain<Retired<T>>>,
    /// Serializes writers; owns the slab, the recycled-node pool and the
    /// route set.
    writer: Mutex<WriterState<T>>,
}

// SAFETY: the raw pointers inside are governed by the publish/retire
// protocol — readers reach nodes only through a pinned root load, writers
// mutate only unpublished slots under the writer mutex, and reclamation
// waits out every pin. `T` itself crosses threads by value, hence `Send`.
unsafe impl<T: Copy + Send> Send for CowRouteTable<T> {}
unsafe impl<T: Copy + Send> Sync for CowRouteTable<T> {}

impl<T: Copy + Send> Default for CowRouteTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Send> CowRouteTable<T> {
    /// An empty table at publication 0.
    #[must_use]
    pub fn new() -> Self {
        Self::with_parts(&[Node::EMPTY], &[], RouteSet::default(), 0)
    }

    /// A table seeded from an exclusive [`TrieTable`] in one pass: its node
    /// array is copied (same layout, same indices) and published once, at
    /// the publication count equal to the source's generation.
    #[must_use]
    pub fn from_trie(table: &TrieTable<T>) -> Self {
        let (nodes, free, routes) = table.parts();
        Self::with_parts(nodes, free, routes.clone(), table.generation())
    }

    fn with_parts(nodes: &[Node<T>], free: &[u32], routes: RouteSet<T>, publications: u64) -> Self {
        // Spare slots for the first spines cloned before any retiree
        // matures; untouched slots cost address space, not memory.
        #[allow(clippy::cast_possible_truncation)]
        let spare = (nodes.len() / 4) as u32 + 64;
        let slab = Slab::copy_of(nodes, spare);
        let len = routes.len();
        CowRouteTable {
            root: AtomicPtr::new(slab.at(0)),
            publications: AtomicU64::new(publications),
            spine_recycled: AtomicU64::new(0),
            len: AtomicUsize::new(len),
            domain: Arc::new(epoch::Domain::new()),
            writer: Mutex::new(WriterState {
                slab,
                pool: free.to_vec(),
                routes,
                root: 0,
                replaced: Vec::with_capacity(stride::LEVELS),
                outgrown: Vec::new(),
                pruned: 0,
            }),
        }
    }

    /// Number of installed routes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when no routes are installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publications so far — the generation readers tag cache entries with.
    #[must_use]
    pub fn publications(&self) -> u64 {
        self.publications.load(Ordering::SeqCst)
    }

    /// Retired nodes still waiting out their grace period (diagnostics).
    #[must_use]
    pub fn pending_reclaim(&self) -> usize {
        self.domain.pending()
    }

    /// Spine nodes recycled into the writer pool over the table's lifetime.
    #[must_use]
    pub fn spine_recycled(&self) -> u64 {
        self.spine_recycled.load(Ordering::Relaxed)
    }

    /// Registered readers currently inside a pinned critical section.
    #[must_use]
    pub fn pinned_readers(&self) -> usize {
        self.domain.pinned_readers()
    }

    /// Epoch-advance attempts a lagging pinned reader blocked (see
    /// [`sysmem::epoch::Domain::advance_stalls`]).
    #[must_use]
    pub fn advance_stalls(&self) -> u64 {
        self.domain.advance_stalls()
    }

    /// Registers a reader. One per worker thread, created at startup —
    /// registration locks the domain's reader list, pinning does not.
    #[must_use]
    pub fn reader(self: &Arc<Self>) -> RouteReader<T> {
        RouteReader {
            handle: self.domain.register(),
            table: Arc::clone(self),
        }
    }

    /// Installs `prefix/len → next_hop`, returning the replaced next hop if
    /// the canonical route existed. A value-preserving re-insert publishes
    /// nothing at all: no allocation, no root store, no counter bump.
    ///
    /// # Errors
    ///
    /// [`RouteError::PrefixLenOutOfRange`] when `len > 32`.
    ///
    /// # Panics
    ///
    /// Panics if the writer mutex is poisoned (a writer panicked
    /// mid-update, which already aborts the run).
    pub fn insert(&self, prefix: u32, len: u8, next_hop: T) -> Result<Option<T>, RouteError>
    where
        T: PartialEq,
    {
        let prefix = canonical(prefix, len)?;
        let mut w = self.writer.lock().expect("cow writer poisoned");
        let (old, root) = w.insert_route(prefix, len, next_hop);
        if let Some(root) = root {
            self.publish(&mut w, root);
            if old.is_none() {
                self.len.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(old)
    }

    /// Removes the route `prefix/len` (canonicalized), returning its next
    /// hop if it was installed. Cloned spine nodes left empty are pruned
    /// before publication, so the published tree never carries dead
    /// interior nodes. A no-op remove publishes nothing.
    ///
    /// # Errors
    ///
    /// [`RouteError::PrefixLenOutOfRange`] when `len > 32`.
    ///
    /// # Panics
    ///
    /// Panics if the writer mutex is poisoned.
    pub fn remove(&self, prefix: u32, len: u8) -> Result<Option<T>, RouteError> {
        let prefix = canonical(prefix, len)?;
        let mut w = self.writer.lock().expect("cow writer poisoned");
        let (old, root) = w.remove_route(prefix, len);
        if let Some(root) = root {
            self.publish(&mut w, root);
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(old)
    }

    /// Publishes the spine an update built: root first, counter second
    /// (module docs), then retires what it replaced and collects whatever
    /// has matured back into the pool.
    fn publish(&self, w: &mut WriterState<T>, root: u32) {
        w.root = root;
        self.root.store(w.slab.at(root), Ordering::SeqCst);
        self.publications.fetch_add(1, Ordering::SeqCst);
        for at in w.replaced.drain(..) {
            self.domain.retire(Retired::Node(at));
        }
        for slab in w.outgrown.drain(..) {
            self.domain.retire(Retired::Slab(slab));
        }
        let pool = &mut w.pool;
        let mut recycled = std::mem::take(&mut w.pruned);
        self.domain.collect(|r| match r {
            Retired::Node(at) => {
                pool.push(at);
                recycled += 1;
            }
            // SAFETY: matured — no pinned reader can still walk it.
            Retired::Slab(slab) => unsafe { slab.free() },
        });
        self.spine_recycled.fetch_add(recycled, Ordering::Relaxed);
    }

    /// Every installed route as `(canonical_prefix, len, next_hop)`,
    /// depth-first — the differential tests compare this against the
    /// exclusive trie's [`TrieTable::routes`].
    ///
    /// # Panics
    ///
    /// Panics if the writer mutex is poisoned.
    #[must_use]
    pub fn routes(&self) -> Vec<(u32, u8, T)> {
        self.writer
            .lock()
            .expect("cow writer poisoned")
            .routes
            .sorted()
    }
}

impl<T: Copy + Send> Drop for CowRouteTable<T> {
    fn drop(&mut self) {
        // Exclusive access: free every outgrown slab still in the epoch
        // domain, then the current one. Retired node slots are indices
        // into it. A poisoned writer lock leaks the slab rather than panic.
        self.domain.drain(|r| {
            if let Retired::Slab(slab) = r {
                // SAFETY: `&mut self` — no reader or writer remains.
                unsafe { slab.free() }
            }
        });
        if let Ok(w) = self.writer.lock() {
            // SAFETY: as above, and the slab is not touched again.
            unsafe { w.slab.free() }
        }
    }
}

impl<T: Copy + Send + std::fmt::Debug> std::fmt::Debug for CowRouteTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CowRouteTable")
            .field("len", &self.len())
            .field("publications", &self.publications())
            .field("pending_reclaim", &self.pending_reclaim())
            .finish_non_exhaustive()
    }
}

/// A worker's registered read handle. `Send` (create on the dispatcher,
/// move into the worker) but not shareable: one announcement slot, one
/// owner.
pub struct RouteReader<T: Copy + Send> {
    handle: epoch::Handle<Retired<T>>,
    table: Arc<CowRouteTable<T>>,
}

impl<T: Copy + Send> RouteReader<T> {
    /// Pins a consistent view for one batch: epoch pin, then publication
    /// count, then root — in that order (see the module docs). Two `SeqCst`
    /// loads amortized over the whole batch; per-packet lookups through the
    /// view touch no shared state.
    #[must_use]
    pub fn pin(&self) -> RouteView<'_, T> {
        let guard = self.handle.pin();
        let version = self.table.publications.load(Ordering::SeqCst);
        let root = self.table.root.load(Ordering::SeqCst);
        RouteView {
            _guard: guard,
            root,
            version,
        }
    }

    /// The table this reader reads.
    #[must_use]
    pub fn table(&self) -> &Arc<CowRouteTable<T>> {
        &self.table
    }
}

impl<T: Copy + Send> std::fmt::Debug for RouteReader<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteReader").finish_non_exhaustive()
    }
}

/// One pinned snapshot of the route state: a frozen root plus the
/// publication count it is tagged with. While this view lives, nothing it
/// can reach is reclaimed. Implements [`Routes`], so the whole pipeline and
/// the flow cache run against it unchanged.
pub struct RouteView<'a, T: Copy + Send> {
    _guard: epoch::Guard<'a, Retired<T>>,
    root: *const Node<T>,
    version: u64,
}

impl<T: Copy + Send> Routes<T> for RouteView<'_, T> {
    #[inline]
    fn lookup(&self, addr: u32) -> Option<T> {
        // SAFETY: the root was loaded after the guard pinned, so every node
        // reachable from it outlives the guard.
        unsafe { stride::lookup(self.root, addr) }
    }

    #[inline]
    fn generation(&self) -> u64 {
        self.version
    }
}

impl<T: Copy + Send> std::fmt::Debug for RouteView<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteView")
            .field("version", &self.version)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    fn view_lookup(table: &Arc<CowRouteTable<u16>>, addr: u32) -> Option<u16> {
        table.reader().pin().lookup(addr)
    }

    #[test]
    fn longest_prefix_wins_through_a_pinned_view() {
        let t = Arc::new(CowRouteTable::new());
        t.insert(ip(10, 0, 0, 0), 8, 1u16).unwrap();
        t.insert(ip(10, 1, 0, 0), 16, 2).unwrap();
        t.insert(ip(10, 1, 2, 0), 24, 3).unwrap();
        let reader = t.reader();
        let view = reader.pin();
        assert_eq!(view.lookup(ip(10, 9, 9, 9)), Some(1));
        assert_eq!(view.lookup(ip(10, 1, 9, 9)), Some(2));
        assert_eq!(view.lookup(ip(10, 1, 2, 9)), Some(3));
        assert_eq!(view.lookup(ip(11, 0, 0, 1)), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn noop_insert_publishes_nothing() {
        let t = Arc::new(CowRouteTable::new());
        t.insert(ip(10, 0, 0, 0), 8, 1u16).unwrap();
        let pubs = t.publications();
        assert_eq!(t.insert(ip(10, 0, 0, 0), 8, 1).unwrap(), Some(1));
        assert_eq!(t.insert(ip(10, 77, 0, 0), 8, 1).unwrap(), Some(1));
        assert_eq!(
            t.publications(),
            pubs,
            "identical re-insert must not publish"
        );
        assert_eq!(t.remove(ip(172, 16, 0, 0), 12).unwrap(), None);
        assert_eq!(t.publications(), pubs, "no-op remove must not publish");
        assert_eq!(t.insert(ip(10, 0, 0, 0), 8, 2).unwrap(), Some(1));
        assert_eq!(t.publications(), pubs + 1);
    }

    #[test]
    fn a_view_pinned_before_an_update_keeps_its_snapshot() {
        let t = Arc::new(CowRouteTable::new());
        t.insert(ip(10, 0, 0, 0), 8, 1u16).unwrap();
        let reader = t.reader();
        let view = reader.pin();
        t.insert(ip(10, 0, 0, 0), 8, 9).unwrap();
        assert_eq!(view.lookup(ip(10, 5, 5, 5)), Some(1), "snapshot isolation");
        drop(view);
        assert_eq!(reader.pin().lookup(ip(10, 5, 5, 5)), Some(9));
    }

    #[test]
    fn remove_restores_shorter_match_and_prunes() {
        let t = Arc::new(CowRouteTable::new());
        t.insert(ip(10, 0, 0, 0), 8, 1u16).unwrap();
        t.insert(ip(10, 1, 0, 0), 16, 2).unwrap();
        assert_eq!(t.remove(ip(10, 1, 0, 0), 16).unwrap(), Some(2));
        assert_eq!(
            view_lookup(&t, ip(10, 1, 5, 5)),
            Some(1),
            "falls back to /8"
        );
        assert_eq!(t.len(), 1);
        let routes = t.routes();
        assert_eq!(routes, vec![(ip(10, 0, 0, 0), 8, 1)], "pruned: {routes:?}");
        assert_eq!(t.remove(ip(10, 1, 0, 0), 16).unwrap(), None);
    }

    #[test]
    fn from_trie_matches_the_source_table() {
        let mut trie = TrieTable::new();
        trie.insert(0, 0, 7u16).unwrap();
        trie.insert(ip(10, 0, 0, 0), 8, 1).unwrap();
        trie.insert(ip(10, 1, 2, 0), 24, 3).unwrap();
        let cow = Arc::new(CowRouteTable::from_trie(&trie));
        let mut a = trie.routes();
        let mut b = cow.routes();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(cow.publications(), trie.generation());
        for addr in [0, ip(10, 0, 0, 1), ip(10, 1, 2, 200), ip(192, 168, 1, 1)] {
            assert_eq!(view_lookup(&cow, addr), trie.lookup(addr));
        }
    }

    #[test]
    fn unpinned_churn_recycles_spine_nodes() {
        let t = Arc::new(CowRouteTable::new());
        t.insert(ip(10, 1, 2, 0), 24, 1u16).unwrap();
        // Flap the same /24 with no reader pinned: after the pool warms up,
        // every retired spine matures and comes back.
        for i in 0..200u16 {
            t.insert(ip(10, 1, 2, 0), 24, 2 + (i % 2)).unwrap();
        }
        let w = t.writer.lock().unwrap();
        assert!(
            !w.pool.is_empty(),
            "steady churn must feed the node pool (pending {})",
            t.domain.pending()
        );
        drop(w);
        // Unmatured garbage is bounded by the grace period, not the number
        // of updates: at most the bins of the last two epochs.
        assert!(
            t.pending_reclaim() <= 2 * 26,
            "pending {} retired nodes — reclamation is not keeping up",
            t.pending_reclaim()
        );
    }

    #[test]
    fn a_host_route_insert_clones_at_most_one_spine() {
        let t = Arc::new(CowRouteTable::new());
        // Hold a pin from the start so nothing retired matures: the growth
        // of the retired count is then exactly the number of published
        // nodes an update copied.
        let reader = t.reader();
        let view = reader.pin();
        t.insert(ip(10, 1, 2, 3), 32, 1u16).unwrap();
        let before = t.pending_reclaim();
        assert_eq!(before, 1, "only the empty root existed to copy");
        t.insert(ip(10, 1, 2, 4), 32, 2).unwrap();
        let cloned = t.pending_reclaim() - before;
        assert_eq!(cloned, stride::LEVELS, "a /32 shares the full spine");
        assert!(cloned <= 9);
        assert_eq!(view.lookup(ip(10, 1, 2, 4)), None, "pinned snapshot");
        drop(view);
        assert_eq!(view_lookup(&t, ip(10, 1, 2, 4)), Some(2));
    }

    #[test]
    fn steady_host_route_churn_allocates_no_node_slots() {
        let t = Arc::new(CowRouteTable::new());
        let reader = t.reader();
        let mut present = [false; 64];
        let mut flap = |n: usize| {
            for i in 0..n {
                let k = (i * 37) % 64;
                let addr = ip(203, 0, 113, u8::try_from(k).unwrap());
                if present[k] {
                    t.remove(addr, 32).unwrap();
                } else {
                    t.insert(addr, 32, 7u16).unwrap();
                }
                present[k] = !present[k];
                // A worker pinning between publications, as in the router.
                drop(reader.pin());
            }
        };
        flap(256);
        let (used, base, cap) = {
            let w = t.writer.lock().unwrap();
            (w.slab.used, w.slab.base, w.routes.capacity())
        };
        flap(4_096);
        let w = t.writer.lock().unwrap();
        assert_eq!(w.slab.used, used, "churn took fresh slots after warm-up");
        assert_eq!(w.slab.base, base, "churn regrew the slab");
        assert_eq!(w.routes.capacity(), cap, "churn regrew the route set");
    }

    #[test]
    fn an_outgrown_slab_stays_readable_until_its_readers_unpin() {
        let mut trie = TrieTable::new();
        let t = Arc::new(CowRouteTable::new());
        t.insert(ip(10, 0, 0, 0), 8, 1u16).unwrap();
        trie.insert(ip(10, 0, 0, 0), 8, 1u16).unwrap();
        let reader = t.reader();
        let view = reader.pin();
        let base = t.writer.lock().unwrap().slab.base;
        for i in 0..512u32 {
            let addr = ip(10, 0, 0, 0) | (i.wrapping_mul(0x9E37_79B9) & 0x00FF_FFFF);
            t.insert(addr, 32, 2).unwrap();
            trie.insert(addr, 32, 2).unwrap();
        }
        assert_ne!(t.writer.lock().unwrap().slab.base, base, "the slab grew");
        assert!(t.pending_reclaim() > 0);
        // The old snapshot still answers from the slab it was pinned in.
        for i in 0..512u32 {
            let addr = ip(10, 0, 0, 0) | (i.wrapping_mul(0x9E37_79B9) & 0x00FF_FFFF);
            assert_eq!(view.lookup(addr), Some(1));
        }
        drop(view);
        let view = reader.pin();
        for i in 0..4_096u32 {
            let addr = ip(10, 0, 0, 0) | (i.wrapping_mul(0x9E37_79B9) & 0x00FF_FFFF);
            assert_eq!(view.lookup(addr), trie.lookup(addr));
        }
    }

    #[test]
    fn concurrent_readers_only_ever_see_published_hops() {
        // Writer flaps one route between two hops while readers hammer
        // lookups: every observed decision must be one of the published
        // values, and per-reader generations must be non-decreasing.
        let t = Arc::new(CowRouteTable::new());
        t.insert(ip(10, 0, 0, 0), 8, 1u16).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut joins = Vec::new();
        for _ in 0..2 {
            let reader = t.reader();
            let stop = Arc::clone(&stop);
            joins.push(std::thread::spawn(move || {
                let mut last_gen = 0;
                while !stop.load(Ordering::Relaxed) {
                    let view = reader.pin();
                    let hop = view.lookup(ip(10, 5, 5, 5));
                    assert!(hop == Some(1) || hop == Some(2), "unpublished hop {hop:?}");
                    assert!(view.generation() >= last_gen, "generation went backwards");
                    last_gen = view.generation();
                }
            }));
        }
        for i in 0..2_000u16 {
            t.insert(ip(10, 0, 0, 0), 8, 1 + (i % 2)).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(view_lookup(&t, ip(10, 5, 5, 5)), Some(2));
    }
}
