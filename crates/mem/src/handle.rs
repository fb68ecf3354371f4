//! The one handle table under every heap manager, and the object accessors
//! all of them share.
//!
//! A manager's [`HandleTable`] is a [`Slots`] of its objects plus their
//! payload bytes. A reference slot stores `Some(h)` as `h`'s bits and `None`
//! as 0, which no [`Handle`] is.
//!
//! A manager keeps only what is its own: where an object's words live (the
//! table's `L`), any per-object collector state (`X`), and its policy.
//! [`Objects`] gives every manager the same bounds-checked accessors over
//! that.

use crate::{Handle, MemError, Slots, Word, WORD_BYTES};

/// Decodes a reference-slot word.
fn decode(w: Word) -> Option<Handle> {
    (w != 0).then_some(Handle(w))
}

/// Encodes a reference for a reference slot.
fn encode(h: Option<Handle>) -> Word {
    h.map_or(0, |h| h.0)
}

/// A live object: where its payload starts, its shape, and the manager's
/// per-object state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Obj<L, X = ()> {
    pub(crate) loc: L,
    pub(crate) nrefs: u32,
    pub(crate) nwords: u32,
    pub(crate) meta: X,
}

impl<L, X> Obj<L, X> {
    /// Payload length in words: reference slots, then data words.
    pub(crate) fn len(&self) -> usize {
        (self.nrefs + self.nwords) as usize
    }

    /// Payload size in bytes.
    pub(crate) fn bytes(&self) -> usize {
        self.len() * WORD_BYTES
    }
}

/// A manager's objects and their live payload bytes.
#[derive(Debug)]
pub(crate) struct HandleTable<L, X = ()> {
    slots: Slots<Obj<L, X>>,
    live_bytes: usize,
}

impl<L, X> HandleTable<L, X> {
    pub(crate) fn new() -> Self {
        HandleTable {
            slots: Slots::default(),
            live_bytes: 0,
        }
    }

    pub(crate) fn insert(&mut self, loc: L, nrefs: usize, nwords: usize, meta: X) -> Handle {
        self.live_bytes += (nrefs + nwords) * WORD_BYTES;
        self.slots.insert(Obj {
            loc,
            nrefs: u32::try_from(nrefs).expect("nrefs fits u32"),
            nwords: u32::try_from(nwords).expect("nwords fits u32"),
            meta,
        })
    }

    /// The live object `h` names, or [`MemError::InvalidHandle`].
    pub(crate) fn get(&self, h: Handle) -> Result<&Obj<L, X>, MemError> {
        self.slots.get(h).ok_or(MemError::InvalidHandle(h))
    }

    pub(crate) fn get_mut(&mut self, h: Handle) -> Result<&mut Obj<L, X>, MemError> {
        self.slots.get_mut(h).ok_or(MemError::InvalidHandle(h))
    }

    pub(crate) fn release(&mut self, h: Handle) -> Option<Obj<L, X>> {
        let obj = self.slots.release(h)?;
        self.live_bytes -= obj.bytes();
        Some(obj)
    }

    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&mut Obj<L, X>) -> bool) {
        let live_bytes = &mut self.live_bytes;
        self.slots.retain(|_, obj| {
            let kept = keep(obj);
            if !kept {
                *live_bytes -= obj.bytes();
            }
            kept
        });
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (Handle, &Obj<L, X>)> {
        self.slots.iter()
    }

    pub(crate) fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slots.footprint()
    }
}

/// Checks `index` against a length of `len` slots of one kind.
fn bound(h: Handle, index: usize, len: u32) -> Result<usize, MemError> {
    if index < len as usize {
        Ok(index)
    } else {
        Err(MemError::IndexOutOfBounds {
            handle: h,
            index,
            len: len as usize,
        })
    }
}

/// A manager's objects: its table and where their words live. Implementing
/// this gives a manager the shared, bounds-checked accessors below.
pub(crate) trait Objects {
    /// Where an object's payload starts (pool offset, region, space, ...).
    type Loc: Copy;
    /// Per-object collector state kept beside the location.
    type Meta;

    fn table(&self) -> &HandleTable<Self::Loc, Self::Meta>;

    /// Payload word `i` (reference slots first, then data words) at `at`.
    fn read(&self, at: Self::Loc, i: usize) -> Word;

    /// Stores payload word `i` at `at`.
    fn write(&mut self, at: Self::Loc, i: usize, w: Word);

    /// The live object `h` names. A manager overrides this only to add a
    /// liveness rule the table cannot see.
    fn object(&self, h: Handle) -> Result<&Obj<Self::Loc, Self::Meta>, MemError> {
        self.table().get(h)
    }

    fn read_word(&self, h: Handle, idx: usize) -> Result<Word, MemError> {
        let o = self.object(h)?;
        Ok(self.read(o.loc, o.nrefs as usize + bound(h, idx, o.nwords)?))
    }

    fn write_word(&mut self, h: Handle, idx: usize, w: Word) -> Result<(), MemError> {
        let o = self.object(h)?;
        let (at, i) = (o.loc, o.nrefs as usize + bound(h, idx, o.nwords)?);
        self.write(at, i, w);
        Ok(())
    }

    fn read_ref(&self, h: Handle, slot: usize) -> Result<Option<Handle>, MemError> {
        let o = self.object(h)?;
        Ok(decode(self.read(o.loc, bound(h, slot, o.nrefs)?)))
    }

    /// Stores `target` into reference `slot` of `h` and returns the
    /// reference it replaced.
    fn write_ref(
        &mut self,
        h: Handle,
        slot: usize,
        target: Option<Handle>,
    ) -> Result<Option<Handle>, MemError> {
        let o = self.object(h)?;
        let (at, i) = (o.loc, bound(h, slot, o.nrefs)?);
        if let Some(t) = target {
            self.object(t)?;
        }
        let old = decode(self.read(at, i));
        self.write(at, i, encode(target));
        Ok(old)
    }

    /// The non-empty references `h` holds; none if `h` is not live. A
    /// reference may itself be stale.
    fn refs(&self, h: Handle) -> impl Iterator<Item = Handle> + '_ {
        let o = self.object(h).ok();
        o.into_iter().flat_map(move |o| {
            (0..o.nrefs as usize).filter_map(move |i| decode(self.read(o.loc, i)))
        })
    }
}

/// Implements the object accessors of [`Manager`](crate::Manager) (`set_ref`,
/// `get_ref`, `set_word`, `get_word`, `is_live`) with the [`Objects`] ones.
/// `object_accessors!(except set_ref)` leaves `set_ref` to a manager whose
/// reference stores do more: a write barrier, count updates, or the region
/// discipline.
macro_rules! object_accessors {
    () => {
        fn set_ref(
            &mut self,
            obj: $crate::Handle,
            slot: usize,
            target: Option<$crate::Handle>,
        ) -> Result<(), $crate::MemError> {
            $crate::handle::Objects::write_ref(self, obj, slot, target).map(drop)
        }

        $crate::handle::object_accessors!(except set_ref);
    };
    (except set_ref) => {
        fn get_ref(
            &self,
            obj: $crate::Handle,
            slot: usize,
        ) -> Result<Option<$crate::Handle>, $crate::MemError> {
            $crate::handle::Objects::read_ref(self, obj, slot)
        }

        fn set_word(
            &mut self,
            obj: $crate::Handle,
            idx: usize,
            val: $crate::Word,
        ) -> Result<(), $crate::MemError> {
            $crate::handle::Objects::write_word(self, obj, idx, val)
        }

        fn get_word(&self, obj: $crate::Handle, idx: usize) -> Result<$crate::Word, $crate::MemError> {
            $crate::handle::Objects::read_word(self, obj, idx)
        }

        fn is_live(&self, h: $crate::Handle) -> bool {
            $crate::handle::Objects::object(self, h).is_ok()
        }
    };
}
pub(crate) use object_accessors;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Manager;

    #[test]
    fn released_slots_are_reused_under_a_new_generation() {
        let mut t: HandleTable<usize> = HandleTable::new();
        let a = t.insert(10, 0, 1, ());
        assert_eq!(t.release(a).map(|o| o.loc), Some(10));
        let b = t.insert(20, 0, 1, ());
        assert_eq!(b.slot(), a.slot());
        assert_ne!(a, b);
        assert_eq!(t.get(a).err(), Some(MemError::InvalidHandle(a)));
        assert_eq!(t.get(b).map(|o| o.loc), Ok(20));
        assert!(t.release(a).is_none(), "a stale handle releases nothing");
        assert_eq!(t.slots(), 1);
    }

    #[test]
    fn handles_and_references_are_never_zero() {
        let mut t: HandleTable<usize> = HandleTable::new();
        let h = t.insert(0, 0, 0, ());
        assert_ne!(h.0, 0);
        assert_eq!(decode(encode(Some(h))), Some(h));
        assert_eq!(decode(encode(None)), None);
        assert_eq!(h.to_string(), "h0.1");
    }

    #[test]
    fn retain_releases_exactly_the_refused_objects() {
        let mut t: HandleTable<usize> = HandleTable::new();
        let hs: Vec<Handle> = (0..6).map(|i| t.insert(i, 0, 0, ())).collect();
        t.retain(|o| o.loc % 2 == 0);
        for (i, h) in hs.iter().enumerate() {
            assert_eq!(t.get(*h).is_ok(), i % 2 == 0);
        }
        assert_eq!(t.iter().count(), 3);
    }

    /// Alloc/retire churn with at most `LIVE` objects live: retires the
    /// oldest once `LIVE` are held (by `free`, or by dropping its root and
    /// collecting), and returns the peak live count the mutator saw.
    pub(crate) fn churn(heap: &mut dyn Manager, manual: bool) -> usize {
        const LIVE: usize = 64;
        let mut live = std::collections::VecDeque::new();
        let mut peak = 0;
        for i in 0..100_000u64 {
            let h = heap.alloc(1, 2).expect("churn fits the heap");
            heap.set_word(h, 1, i).expect("fresh object");
            if !manual {
                heap.add_root(h);
            }
            live.push_back(h);
            peak = peak.max(live.len());
            if live.len() == LIVE {
                let old = live.pop_front().expect("full");
                if manual {
                    heap.free(old).expect("live object");
                } else {
                    heap.remove_root(old);
                    heap.collect();
                }
                assert!(!heap.is_live(old));
            }
        }
        peak
    }
}
