//! The one generation-tagged slot table in the workspace, under the heap
//! managers' handle table and the microkernel's object table.
//!
//! A [`Handle`] is `slot | generation << 32`. Releasing a value bumps its
//! slot's generation and puts the slot on a free list, so the next insert
//! reuses it under a new handle: the table stays as large as the peak live
//! population, and a stale handle fails the generation check instead of
//! aliasing the value that took its slot. A slot whose generation would wrap
//! is retired, never reissued. Generations start at 1, so no handle is 0.

use crate::Handle;
use std::fmt;

impl Handle {
    pub(crate) fn new(slot: u32, generation: u32) -> Self {
        Handle(u64::from(slot) | u64::from(generation) << 32)
    }

    /// The slot this handle names.
    #[must_use]
    pub fn slot(self) -> usize {
        (self.0 & u64::from(u32::MAX)) as usize
    }

    /// The slot's generation when this handle was issued.
    #[must_use]
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl fmt::Display for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}.{}", self.slot(), self.generation())
    }
}

#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// Generation-tagged handle → value table with slot reuse.
#[derive(Debug)]
pub struct Slots<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slots<T> {
    /// Stores `value`, reusing a released slot when there is one.
    ///
    /// # Panics
    ///
    /// If the table already holds `u32::MAX` slots.
    pub fn insert(&mut self, value: T) -> Handle {
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            s.value = Some(value);
            return Handle::new(slot, s.generation);
        }
        let slot = u32::try_from(self.slots.len()).expect("handle space exhausted");
        self.slots.push(Slot {
            generation: 1,
            value: Some(value),
        });
        Handle::new(slot, 1)
    }

    /// The live value `h` names; `None` if `h` was never issued or its
    /// value has been released.
    #[must_use]
    pub fn get(&self, h: Handle) -> Option<&T> {
        let s = self.slots.get(h.slot())?;
        s.value.as_ref().filter(|_| s.generation == h.generation())
    }

    /// Mutable form of [`Slots::get`].
    pub fn get_mut(&mut self, h: Handle) -> Option<&mut T> {
        let s = self.slots.get_mut(h.slot())?;
        s.value.as_mut().filter(|_| s.generation == h.generation())
    }

    /// Releases `h`'s value and returns it, or `None` if `h` is not live.
    /// Every handle to it is stale from here on.
    pub fn release(&mut self, h: Handle) -> Option<T> {
        let s = self.slots.get_mut(h.slot())?;
        let value = s.value.take_if(|_| s.generation == h.generation())?;
        if s.generation < u32::MAX {
            s.generation += 1;
            self.free.push(h.slot() as u32);
        }
        Some(value)
    }

    /// Visits every live value and releases each one `keep` refuses.
    pub fn retain(&mut self, mut keep: impl FnMut(&mut T) -> bool) {
        for slot in 0..self.slots.len() {
            let s = &mut self.slots[slot];
            if s.value.as_mut().is_some_and(|v| !keep(v)) {
                let h = Handle::new(slot as u32, s.generation);
                self.release(h);
            }
        }
    }

    /// Every live value with its handle.
    pub fn iter(&self) -> impl Iterator<Item = (Handle, &T)> {
        self.slots.iter().zip(0..).filter_map(|(s, slot)| {
            s.value
                .as_ref()
                .map(|value| (Handle::new(slot, s.generation), value))
        })
    }

    /// Slots held, live, free or retired: the table's footprint.
    #[must_use]
    pub fn footprint(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slot_whose_generation_would_wrap_is_retired() {
        let mut t: Slots<usize> = Slots::default();
        let a = t.insert(0);
        t.slots[a.slot()].generation = u32::MAX;
        let a = Handle::new(0, u32::MAX);
        assert!(t.release(a).is_some());
        let b = t.insert(0);
        assert_ne!(b.slot(), a.slot(), "the wrapped slot is never reissued");
        assert!(t.get(a).is_none());
        assert_eq!(t.footprint(), 2);
    }
}
