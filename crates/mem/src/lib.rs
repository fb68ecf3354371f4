//! # sysmem — memory-management substrate
//!
//! Seven memory-management disciplines, built to test the paper's Fallacy 1
//! ("factors of 1.5x–2x in performance don't matter") and Challenge 2
//! ("idiomatic manual storage management"). Six are heap managers behind one
//! uniform object model:
//!
//! * [`arena::RegionHeap`] — region/arena allocation (the paper's preferred
//!   "idiomatic manual storage" discipline, as in Cyclone and later Rust),
//! * [`freelist::FreeListHeap`] — malloc-style segregated free lists with
//!   boundary-tag coalescing (the C baseline),
//! * [`rc::RcHeap`] — reference counting, including the classic cyclic-leak
//!   failure mode and an optional trial-deletion cycle collector,
//! * [`marksweep::MarkSweepHeap`] — stop-the-world tracing mark-sweep,
//! * [`semispace::SemiSpaceHeap`] — Cheney-style copying collection,
//! * [`generational::GenerationalHeap`] — nursery copying + promotion with a
//!   write barrier and remembered set, mature-space mark-sweep.
//!
//! The seventh is not a heap but a *protocol*: [`epoch`] — epoch-based
//! reclamation for concurrent readers (pin/unpin guards, deferred retire
//! bins, epoch advancement), built on [`syscheck::shim`] primitives so the
//! whole protocol is model-checkable. It is what lets `sysnet` publish
//! routing-table updates copy-on-write while workers read with zero
//! synchronization in the hot path.
//!
//! All managers implement the [`Manager`] trait over a common object model:
//! an object is a header, `nrefs` reference slots (handles to other objects),
//! and `nwords` 64-bit data words. Handles are indirect (a handle table maps
//! them to current storage), which lets moving collectors relocate objects
//! without invalidating user handles — the same device used by early Smalltalk
//! and some JVMs.
//!
//! All six managers keep their objects in one kind of table (the crate-private
//! `handle` module, which also owns the shared bounds-checked accessors) over
//! [`Slots`], so freeing or collecting an object recycles its slot and a stale
//! handle fails instead of aliasing the object that reused it. The region heap
//! is the one exception: its objects die in bulk when their region closes, so
//! it decides liveness by region and never releases a slot.
//!
//! [`workload`] generates allocation traces with controlled size and lifetime
//! distributions, and records per-operation pause times in a
//! [`sysobs::LogHistogram`] so experiments E1/E6 can report tail latencies.
//!
//! ```
//! use sysmem::{Manager, ManagerExt, arena::RegionHeap};
//!
//! let mut heap = RegionHeap::new(1 << 20);
//! let r = heap.open_region();
//! let obj = heap.alloc(0, 2).unwrap();
//! heap.put(obj, 0, 42);
//! assert_eq!(heap.get(obj, 0), 42);
//! heap.close_region(r); // frees every object in the region at once
//! ```

pub mod arena;
pub mod epoch;
pub mod faulty;
pub mod freelist;
pub mod generational;
mod handle;
pub mod marksweep;
pub mod rc;
pub mod semispace;
pub mod slots;
pub mod stats;
pub mod workload;

use std::fmt;

pub use slots::Slots;

/// A 64-bit data word stored in an object's payload.
pub type Word = u64;

/// An opaque, manager-scoped object handle.
///
/// Handles are indirect: moving collectors may relocate the underlying
/// storage, but the handle remains valid until the object is freed or
/// collected. After that it stays invalid for good, even once the manager
/// reuses its table slot for a new object. It displays as `h<slot>.<generation>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle(pub u64);

/// Errors returned by memory managers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// The heap cannot satisfy the request even after collection.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
    },
    /// The handle does not refer to a live object.
    InvalidHandle(Handle),
    /// A reference-slot or word index was out of bounds for the object.
    IndexOutOfBounds {
        /// The offending handle.
        handle: Handle,
        /// The offending slot or word index.
        index: usize,
        /// Number of valid slots of that kind.
        len: usize,
    },
    /// Operation is not supported by this manager (e.g. `free` on a GC).
    Unsupported(&'static str),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfMemory { requested } => {
                write!(f, "out of memory: {requested} bytes requested")
            }
            MemError::InvalidHandle(h) => write!(f, "invalid handle {h}"),
            MemError::IndexOutOfBounds { handle, index, len } => {
                write!(f, "index {index} out of bounds for {handle} (len {len})")
            }
            MemError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
        }
    }
}

impl std::error::Error for MemError {}

/// Uniform interface over every memory manager in this crate.
///
/// Objects have `nrefs` reference slots (each holding `Option<Handle>`) and
/// `nwords` data words. Tracing collectors treat the reference slots as the
/// object's outgoing edges and the registered roots as the root set.
///
/// # Errors
///
/// All accessors return [`MemError::InvalidHandle`] when given a handle to a
/// dead object and [`MemError::IndexOutOfBounds`] for bad slot indices, so
/// use-after-free is a *detected* error rather than undefined behaviour —
/// this is the "well-typed programs don't go wrong" discipline the paper asks
/// for, applied to storage.
///
/// Managers are `Send` (not `Sync`): every implementation is plain owned
/// data, and requiring it here lets a kernel built over `Box<dyn Manager>`
/// move into model threads under the `syscheck` cooperative scheduler (one
/// thread at a time behind a shimmed mutex — `Sync` is never needed).
pub trait Manager: Send {
    /// A short stable name for reports ("region", "freelist", ...).
    fn name(&self) -> &'static str;

    /// Allocates an object with `nrefs` reference slots and `nwords` data
    /// words, returning its handle. Tracing managers may run a collection to
    /// satisfy the request.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] if space cannot be found.
    fn alloc(&mut self, nrefs: usize, nwords: usize) -> Result<Handle, MemError>;

    /// Fallible allocation entry point for callers with a recovery path.
    ///
    /// Semantically identical to [`Manager::alloc`] for the plain managers;
    /// instrumented managers ([`faulty::FaultyHeap`]) additionally consult
    /// their fault plan here, so code that degrades gracefully under OOM
    /// calls `try_alloc` and code that treats OOM as fatal calls `alloc`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] if space cannot be found or an
    /// injected allocation fault fires.
    fn try_alloc(&mut self, nrefs: usize, nwords: usize) -> Result<Handle, MemError> {
        self.alloc(nrefs, nwords)
    }

    /// Explicitly frees an object (manual managers only).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Unsupported`] on tracing collectors and
    /// [`MemError::InvalidHandle`] on double free.
    fn free(&mut self, h: Handle) -> Result<(), MemError>;

    /// Stores `target` into reference slot `slot` of `obj`.
    ///
    /// # Errors
    ///
    /// Returns an error if `obj` (or `target`) is dead or `slot` is out of
    /// bounds.
    fn set_ref(&mut self, obj: Handle, slot: usize, target: Option<Handle>)
        -> Result<(), MemError>;

    /// Loads reference slot `slot` of `obj`.
    ///
    /// # Errors
    ///
    /// Returns an error if `obj` is dead or `slot` is out of bounds.
    fn get_ref(&self, obj: Handle, slot: usize) -> Result<Option<Handle>, MemError>;

    /// Stores a data word.
    ///
    /// # Errors
    ///
    /// Returns an error if `obj` is dead or `idx` is out of bounds.
    fn set_word(&mut self, obj: Handle, idx: usize, val: Word) -> Result<(), MemError>;

    /// Loads a data word.
    ///
    /// # Errors
    ///
    /// Returns an error if `obj` is dead or `idx` is out of bounds.
    fn get_word(&self, obj: Handle, idx: usize) -> Result<Word, MemError>;

    /// Registers `obj` as a GC root. No-op for purely manual managers.
    fn add_root(&mut self, obj: Handle);

    /// Unregisters one occurrence of `obj` from the root set.
    fn remove_root(&mut self, obj: Handle);

    /// Forces a full collection (no-op for manual managers).
    fn collect(&mut self);

    /// Returns `true` if `h` currently refers to a live object.
    fn is_live(&self, h: Handle) -> bool;

    /// Accounting and pause statistics.
    fn stats(&self) -> &stats::MemStats;

    /// Bytes currently devoted to live objects (headers excluded).
    fn live_bytes(&self) -> usize;
}

/// Size in bytes of one payload word.
pub const WORD_BYTES: usize = std::mem::size_of::<Word>();

/// Computes the payload size in bytes of an object with the given shape.
#[must_use]
pub fn object_bytes(nrefs: usize, nwords: usize) -> usize {
    nrefs * WORD_BYTES + nwords * WORD_BYTES
}

/// Convenience panicking wrappers used heavily by tests and benches.
///
/// These mirror the [`Manager`] accessors but panic on error, which keeps
/// experiment code legible. Production callers should prefer the fallible
/// trait methods.
pub trait ManagerExt: Manager {
    /// Like [`Manager::set_word`] but panics on error.
    ///
    /// # Panics
    ///
    /// Panics if the handle is dead or the index is out of range.
    fn put(&mut self, obj: Handle, idx: usize, val: Word) {
        self.set_word(obj, idx, val).expect("set_word failed");
    }

    /// Like [`Manager::get_word`] but panics on error.
    ///
    /// # Panics
    ///
    /// Panics if the handle is dead or the index is out of range.
    fn get(&self, obj: Handle, idx: usize) -> Word {
        self.get_word(obj, idx).expect("get_word failed")
    }

    /// Like [`Manager::set_ref`] but panics on error.
    ///
    /// # Panics
    ///
    /// Panics if a handle is dead or the slot is out of range.
    fn link(&mut self, obj: Handle, slot: usize, target: Option<Handle>) {
        self.set_ref(obj, slot, target).expect("set_ref failed");
    }

    /// Like [`Manager::get_ref`] but panics on error.
    ///
    /// # Panics
    ///
    /// Panics if the handle is dead or the slot is out of range.
    fn deref(&self, obj: Handle, slot: usize) -> Option<Handle> {
        self.get_ref(obj, slot).expect("get_ref failed")
    }
}

impl<M: Manager + ?Sized> ManagerExt for M {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_bytes_counts_refs_and_words() {
        assert_eq!(object_bytes(0, 0), 0);
        assert_eq!(object_bytes(1, 0), 8);
        assert_eq!(object_bytes(2, 3), 40);
    }

    #[test]
    fn handle_display_is_compact() {
        assert_eq!(Handle(7 | 3 << 32).to_string(), "h7.3");
    }

    #[test]
    fn mem_error_messages_are_lowercase_and_concise() {
        let e = MemError::OutOfMemory { requested: 64 };
        assert_eq!(e.to_string(), "out of memory: 64 bytes requested");
        let e = MemError::IndexOutOfBounds {
            handle: Handle(3),
            index: 9,
            len: 2,
        };
        assert!(e.to_string().contains("index 9"));
    }
}
