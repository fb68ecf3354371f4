//! A lock primitive built from atomics: the test-and-test-and-set spinlock.
//!
//! It is the building block a kernel uses where blocking is impossible
//! (interrupt paths, scheduler internals), and E7's "what the careful C
//! programmer writes by hand" baseline.
//!
//! All atomics go through `syscheck::shim`, so the same code path that runs
//! in release builds is exhaustively model-checked by the `checker_*` tests
//! below. The checker surfaced two hazards in the original implementation,
//! both fixed here and pinned by `checker_spinlock_mutual_exclusion`:
//!
//! * the test-and-test-and-set read spun with `Relaxed` ordering — upgraded
//!   to `Acquire` so the "looks free" observation synchronizes with the
//!   owner's release before the acquire attempt;
//! * the spin loop was an unbounded busy-wait — on a uniprocessor (or any
//!   oversubscribed box) a spinner burning its whole quantum while the owner
//!   is preempted is a livelock, which the checker reports as a step-budget
//!   blowup. Spinning now escalates to `yield_now` after `SPIN_LIMIT`
//!   iterations.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;
use syscheck::shim::{spin_loop, yield_now, AtomicBool};

/// Iterations a spinner burns before it starts yielding its timeslice to
/// whoever holds the lock.
const SPIN_LIMIT: u32 = 64;

/// Relax the CPU for the first [`SPIN_LIMIT`] iterations, then yield: the
/// lock holder may need our core to make progress.
#[inline]
fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < SPIN_LIMIT {
        spin_loop();
    } else {
        yield_now();
    }
}

/// A test-and-test-and-set spinlock.
///
/// ```
/// use sysconc::spinlock::SpinLock;
/// use std::sync::Arc;
///
/// let lock = Arc::new(SpinLock::new(0u64));
/// let handles: Vec<_> = (0..4)
///     .map(|_| {
///         let lock = Arc::clone(&lock);
///         std::thread::spawn(move || {
///             for _ in 0..1000 {
///                 *lock.lock() += 1;
///             }
///         })
///     })
///     .collect();
/// for h in handles {
///     h.join().unwrap();
/// }
/// assert_eq!(*lock.lock(), 4000);
/// ```
#[derive(Debug, Default)]
pub struct SpinLock<T> {
    locked: AtomicBool,
    data: UnsafeCell<T>,
}

// SAFETY: the lock provides exclusive access to the data; T must be Send to
// cross threads, and the lock itself can then be shared.
unsafe impl<T: Send> Sync for SpinLock<T> {}
unsafe impl<T: Send> Send for SpinLock<T> {}

impl<T> SpinLock<T> {
    /// Wraps `value` in an unlocked spinlock.
    pub const fn new(value: T) -> Self {
        SpinLock {
            locked: AtomicBool::new(false),
            data: UnsafeCell::new(value),
        }
    }

    /// Spins until the lock is acquired.
    pub fn lock(&self) -> SpinGuard<'_, T> {
        let mut spins = 0u32;
        loop {
            // Test-and-test-and-set: spin on a read to avoid cache-line
            // ping-pong, only attempting the RMW when the lock looks free.
            // The read is `Acquire` so observing "unlocked" synchronizes
            // with the previous owner's release.
            while self.locked.load(Ordering::Acquire) {
                backoff(&mut spins);
            }
            if self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return SpinGuard { lock: self };
            }
        }
    }

    /// Tries to acquire without spinning.
    pub fn try_lock(&self) -> Option<SpinGuard<'_, T>> {
        self.locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| SpinGuard { lock: self })
    }
}

/// RAII guard for [`SpinLock`].
#[derive(Debug)]
pub struct SpinGuard<'a, T> {
    lock: &'a SpinLock<T>,
}

impl<T> Deref for SpinGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: guard existence implies exclusive ownership of the lock.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for SpinGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: guard existence implies exclusive ownership of the lock.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for SpinGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn spinlock_provides_mutual_exclusion() {
        let lock = Arc::new(SpinLock::new(0u64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let lock = Arc::clone(&lock);
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        *lock.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), 80_000);
    }

    #[test]
    fn spinlock_try_lock_fails_when_held() {
        let lock = SpinLock::new(5);
        let g = lock.lock();
        assert!(lock.try_lock().is_none());
        drop(g);
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn guards_release_on_drop() {
        let lock = SpinLock::new(1);
        {
            let _g = lock.lock();
        }
        // Must not deadlock:
        assert_eq!(*lock.lock(), 1);
    }

    // ---- syscheck models -------------------------------------------------

    /// Pinned regression model for the two checker-surfaced hazards: every
    /// interleaving of two threads doing two locked increments each must
    /// terminate (bounded spin yields to the owner) and end at exactly 4.
    #[test]
    fn checker_spinlock_mutual_exclusion() {
        let ex = syscheck::explore(&syscheck::Config::default(), || {
            let lock = Arc::new(SpinLock::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let lock = Arc::clone(&lock);
                    syscheck::shim::spawn(move || {
                        for _ in 0..2 {
                            *lock.lock() += 1;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let v = *lock.lock();
            assert_eq!(v, 4, "mutual exclusion violated: {v}");
            v
        });
        assert!(ex.failure.is_none(), "{:?}", ex.failure);
        assert!(ex.complete, "model must be exhaustively explored");
        assert_eq!(ex.distinct_states, 1);
    }
}
