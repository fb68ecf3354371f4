//! Software transactional memory in the TL2 style: versioned optimistic
//! reads, commit-time write locking, and a global version clock.
//!
//! The programming model follows Harris, Marlow, Peyton Jones & Herlihy,
//! *Composable Memory Transactions*: [`atomically`] runs a closure against
//! transactional variables ([`TVar`]); [`Tx::retry`] blocks the transaction
//! until something it read changes; [`Tx::or_else`] composes alternatives.
//! Unlike lock-based code, two correct transactions compose into a correct
//! larger transaction — the property the paper's bank-account example shows
//! locks lack.
//!
//! # Protocol
//!
//! Each `TVar` carries a version word (`clock_at_last_write << 1 | locked`).
//! A transaction snapshots the global clock at start (`rv`), validates every
//! read against `rv`, and at commit time locks its write set in address
//! order, re-validates the read set, publishes values, and stamps them with a
//! fresh clock value. Conflicts abort and transparently re-run the closure.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use syscheck::shim::{sleep, spin_loop, yield_now, AtomicU64, Mutex};

/// The protocol state (clock, versions, value cells) lives behind
/// `syscheck::shim` types so the full TL2 commit dance is model-checkable;
/// the stats counters below are plain `std` atomics on purpose — they are
/// observability, not protocol, and shimming them would only inflate the
/// schedule space.
static GLOBAL_CLOCK: AtomicU64 = AtomicU64::new(0);
static COMMITS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static ABORTS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    /// Aborts noted on this thread. `ABORTS` also counts the aborts of every
    /// other test running in parallel, so a test that pins an exact abort
    /// count reads this tally instead.
    static THREAD_ABORTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Snapshot of global STM counters (commits and aborts since process start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmStats {
    /// Successfully committed transactions.
    pub commits: u64,
    /// Aborted-and-retried attempts (conflicts + explicit retries).
    pub aborts: u64,
}

/// Reads the global STM counters.
#[must_use]
pub fn stm_stats() -> StmStats {
    StmStats {
        commits: COMMITS.load(Ordering::Relaxed),
        aborts: ABORTS.load(Ordering::Relaxed),
    }
}

/// Bumps the commit counter (and its observability mirror).
fn note_commit() {
    COMMITS.fetch_add(1, Ordering::Relaxed);
    sysobs::obs_count!("stm.commits", 1);
}

/// Bumps the abort counter (and its observability mirror).
fn note_abort() {
    ABORTS.fetch_add(1, Ordering::Relaxed);
    #[cfg(test)]
    THREAD_ABORTS.with(|n| n.set(n.get() + 1));
    sysobs::obs_count!("stm.aborts", 1);
}

type Boxed = Arc<dyn Any + Send + Sync>;

#[derive(Debug)]
struct VarCore {
    /// `version << 1 | locked`.
    version: AtomicU64,
    value: Mutex<Boxed>,
}

/// A transactional variable holding a `T`.
///
/// Cloning a `TVar` clones the *handle*; both handles name the same shared
/// cell (like `Arc`).
#[derive(Debug)]
pub struct TVar<T> {
    core: Arc<VarCore>,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar {
            core: Arc::clone(&self.core),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Clone + Send + Sync + 'static> TVar<T> {
    /// Creates a new transactional variable.
    #[must_use]
    pub fn new(value: T) -> Self {
        TVar {
            core: Arc::new(VarCore {
                version: AtomicU64::new(0),
                value: Mutex::new(Arc::new(value)),
            }),
            _marker: std::marker::PhantomData,
        }
    }

    /// Reads the value outside any transaction (a consistent single-variable
    /// snapshot).
    #[must_use]
    pub fn read_atomic(&self) -> T {
        loop {
            let v1 = self.core.version.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                spin_loop();
                continue;
            }
            let val = Arc::clone(&self.core.value.lock().expect("poisoned tvar"));
            let v2 = self.core.version.load(Ordering::Acquire);
            if v1 == v2 {
                return val
                    .downcast_ref::<T>()
                    .expect("tvar type invariant")
                    .clone();
            }
        }
    }

    fn id(&self) -> usize {
        Arc::as_ptr(&self.core) as usize
    }
}

/// Why a transaction attempt stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmAbort {
    /// A read or commit-time validation conflicted with another commit.
    Conflict,
    /// The transaction called [`Tx::retry`]: block until an input changes.
    Retry,
}

/// Result type threaded through transaction bodies (use `?`).
pub type StmResult<T> = Result<T, StmAbort>;

/// An in-flight transaction. Obtain one via [`atomically`].
#[derive(Debug)]
pub struct Tx {
    rv: u64,
    reads: Vec<(usize, Arc<VarCore>, u64)>,
    writes: HashMap<usize, (Arc<VarCore>, Boxed)>,
}

impl Tx {
    fn new() -> Self {
        Tx {
            rv: GLOBAL_CLOCK.load(Ordering::Acquire),
            reads: Vec::new(),
            writes: HashMap::new(),
        }
    }

    /// Reads a `TVar` inside the transaction.
    ///
    /// # Errors
    ///
    /// Returns [`StmAbort::Conflict`] if the variable changed after this
    /// transaction started (the closure will be re-run).
    pub fn read<T: Clone + Send + Sync + 'static>(&mut self, var: &TVar<T>) -> StmResult<T> {
        if let Some((_, pending)) = self.writes.get(&var.id()) {
            return Ok(pending
                .downcast_ref::<T>()
                .expect("tvar type invariant")
                .clone());
        }
        loop {
            let v1 = var.core.version.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                // Locked by a committing transaction; brief wait then retry.
                spin_loop();
                continue;
            }
            let val = Arc::clone(&var.core.value.lock().expect("poisoned tvar"));
            let v2 = var.core.version.load(Ordering::Acquire);
            if v1 == v2 {
                if v1 >> 1 > self.rv {
                    return Err(StmAbort::Conflict);
                }
                self.reads.push((var.id(), Arc::clone(&var.core), v1));
                return Ok(val
                    .downcast_ref::<T>()
                    .expect("tvar type invariant")
                    .clone());
            }
        }
    }

    /// Writes a `TVar` inside the transaction (visible to later reads in the
    /// same transaction, published only at commit).
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `StmResult` so bodies compose with `?`.
    pub fn write<T: Clone + Send + Sync + 'static>(
        &mut self,
        var: &TVar<T>,
        value: T,
    ) -> StmResult<()> {
        self.writes
            .insert(var.id(), (Arc::clone(&var.core), Arc::new(value)));
        Ok(())
    }

    /// Signals that the transaction cannot proceed yet; [`atomically`] will
    /// block until one of the variables read so far changes, then re-run.
    ///
    /// # Errors
    ///
    /// Always returns [`StmAbort::Retry`] (use with `?` or `return`).
    pub fn retry<T>(&self) -> StmResult<T> {
        Err(StmAbort::Retry)
    }

    /// Runs `first`; if it calls [`Tx::retry`], rolls back its writes and
    /// runs `second` instead — Harris et al.'s `orElse` composition.
    ///
    /// # Errors
    ///
    /// Propagates conflicts from either branch, and `Retry` if *both*
    /// branches retry.
    pub fn or_else<T>(
        &mut self,
        first: impl FnOnce(&mut Tx) -> StmResult<T>,
        second: impl FnOnce(&mut Tx) -> StmResult<T>,
    ) -> StmResult<T> {
        let snapshot: HashMap<usize, (Arc<VarCore>, Boxed)> = self
            .writes
            .iter()
            .map(|(k, (core, v))| (*k, (Arc::clone(core), Arc::clone(v))))
            .collect();
        match first(self) {
            Err(StmAbort::Retry) => {
                self.writes = snapshot;
                second(self)
            }
            other => other,
        }
    }

    /// Attempts to commit. Returns `true` on success.
    fn commit(self) -> bool {
        // Read-only transactions validated on the fly: nothing to publish.
        if self.writes.is_empty() {
            note_commit();
            return true;
        }
        // Lock write set in address order (deadlock freedom).
        let mut locked: Vec<(&Arc<VarCore>, u64)> = Vec::with_capacity(self.writes.len());
        let mut entries: Vec<(&usize, &(Arc<VarCore>, Boxed))> = self.writes.iter().collect();
        entries.sort_by_key(|(id, _)| **id);
        for (_, (core, _)) in &entries {
            let v = core.version.load(Ordering::Acquire);
            if v & 1 == 1
                || core
                    .version
                    .compare_exchange(v, v | 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_err()
            {
                for (c, orig) in locked {
                    c.version.store(orig, Ordering::Release);
                }
                note_abort();
                return false;
            }
            locked.push((core, v));
        }
        // Validate read set against rv, tolerating our own locks.
        for (id, core, v1) in &self.reads {
            let cur = core.version.load(Ordering::Acquire);
            let ours = self.writes.contains_key(id);
            let expected = if ours { *v1 | 1 } else { *v1 };
            if cur != expected {
                for (c, orig) in locked {
                    c.version.store(orig, Ordering::Release);
                }
                note_abort();
                return false;
            }
        }
        let wv = GLOBAL_CLOCK.fetch_add(1, Ordering::AcqRel) + 1;
        for (_, (core, value)) in &entries {
            *core.value.lock().expect("poisoned tvar") = Arc::clone(value);
            core.version.store(wv << 1, Ordering::Release);
        }
        note_commit();
        true
    }

    /// Spins until any variable in the read set changes version (used to
    /// implement blocking `retry`).
    fn wait_for_change(&self) {
        if self.reads.is_empty() {
            yield_now();
            return;
        }
        loop {
            for (_, core, v1) in &self.reads {
                if core.version.load(Ordering::Acquire) != *v1 {
                    return;
                }
            }
            yield_now();
        }
    }
}

/// Runs `body` as a transaction, retrying on conflict, until it commits.
///
/// The closure may run multiple times; it must be free of side effects other
/// than `TVar` access (the same contract as STM-Haskell, enforced there by
/// the type system and here by discipline — which is itself one of the
/// paper's points about what a language should check for you).
pub fn atomically<T>(mut body: impl FnMut(&mut Tx) -> StmResult<T>) -> T {
    loop {
        let mut tx = Tx::new();
        match body(&mut tx) {
            Ok(result) => {
                if tx.commit() {
                    return result;
                }
            }
            Err(StmAbort::Conflict) => {
                note_abort();
            }
            Err(StmAbort::Retry) => {
                note_abort();
                tx.wait_for_change();
            }
        }
    }
}

/// Fault site consulted by [`atomically_faulted`] after each successful
/// body run: when it fires, the attempt aborts as if a conflict occurred.
pub const SITE_STM_ABORT: &str = "stm.abort";

/// A bounded retry policy for [`atomically_budgeted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudget {
    /// Maximum attempts (body runs) before giving up. Must be at least 1.
    pub max_attempts: u32,
    /// Backoff before attempt `k` (k ≥ 2): `backoff_base_us << (k - 2)`
    /// microseconds, capped at [`RetryBudget::MAX_BACKOFF_US`]. Zero
    /// disables backoff.
    pub backoff_base_us: u64,
}

impl RetryBudget {
    /// Cap on a single backoff sleep.
    pub const MAX_BACKOFF_US: u64 = 10_000;

    /// A budget of `max_attempts` with 1 µs base backoff.
    #[must_use]
    pub fn attempts(max_attempts: u32) -> Self {
        RetryBudget {
            max_attempts: max_attempts.max(1),
            backoff_base_us: 1,
        }
    }

    fn backoff(&self, attempt: u32) -> u64 {
        if self.backoff_base_us == 0 || attempt < 2 {
            return 0;
        }
        let shift = (attempt - 2).min(20);
        (self.backoff_base_us << shift).min(Self::MAX_BACKOFF_US)
    }
}

impl Default for RetryBudget {
    fn default() -> Self {
        RetryBudget {
            max_attempts: 64,
            backoff_base_us: 1,
        }
    }
}

/// Typed exhaustion error: the transaction kept aborting until its budget
/// ran out. Carries the attempt count so callers can report contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmExhausted {
    /// Attempts consumed (equals the budget's `max_attempts`).
    pub attempts: u32,
}

impl std::fmt::Display for StmExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "transaction aborted {} times and exhausted its retry budget",
            self.attempts
        )
    }
}

impl std::error::Error for StmExhausted {}

/// Like [`atomically`], but bounded: after `budget.max_attempts` aborts the
/// caller gets a typed [`StmExhausted`] instead of an unbounded spin —
/// livelock becomes a reportable, recoverable condition. Attempts after the
/// first back off exponentially to shed contention.
///
/// # Errors
///
/// Returns [`StmExhausted`] when every attempt aborted.
pub fn atomically_budgeted<T>(
    budget: RetryBudget,
    body: impl FnMut(&mut Tx) -> StmResult<T>,
) -> Result<T, StmExhausted> {
    atomically_with(budget, None, body)
}

/// [`atomically_budgeted`] with fault injection: after each successful body
/// run the injector is consulted at [`SITE_STM_ABORT`]; a firing forces an
/// abort-and-retry, consuming budget exactly like a real conflict.
///
/// # Errors
///
/// Returns [`StmExhausted`] when every attempt aborted (injected or real).
pub fn atomically_faulted<T>(
    budget: RetryBudget,
    injector: &sysfault::SharedInjector,
    body: impl FnMut(&mut Tx) -> StmResult<T>,
) -> Result<T, StmExhausted> {
    atomically_with(budget, Some(injector), body)
}

fn atomically_with<T>(
    budget: RetryBudget,
    injector: Option<&sysfault::SharedInjector>,
    mut body: impl FnMut(&mut Tx) -> StmResult<T>,
) -> Result<T, StmExhausted> {
    let max = budget.max_attempts.max(1);
    for attempt in 1..=max {
        let pause = budget.backoff(attempt);
        if pause > 0 {
            sleep(std::time::Duration::from_micros(pause));
        }
        let mut tx = Tx::new();
        match body(&mut tx) {
            Ok(result) => {
                if injector.is_some_and(|i| i.should_fail(SITE_STM_ABORT)) {
                    // Injected abort: throw the attempt away, uncommitted.
                    note_abort();
                    continue;
                }
                if tx.commit() {
                    sysobs::obs_hist!("stm.attempts", u64::from(attempt));
                    return Ok(result);
                }
            }
            Err(StmAbort::Conflict) => {
                note_abort();
            }
            Err(StmAbort::Retry) => {
                note_abort();
                tx.wait_for_change();
            }
        }
    }
    Err(StmExhausted { attempts: max })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::Arc as StdArc;
    use std::thread;

    #[test]
    fn read_write_roundtrip() {
        let v = TVar::new(5i64);
        atomically(|tx| {
            let x = tx.read(&v)?;
            tx.write(&v, x + 1)
        });
        assert_eq!(v.read_atomic(), 6);
    }

    #[test]
    fn reads_see_own_writes() {
        let v = TVar::new(1i64);
        let observed = atomically(|tx| {
            tx.write(&v, 42)?;
            tx.read(&v)
        });
        assert_eq!(observed, 42);
    }

    #[test]
    fn counter_increments_are_not_lost() {
        let v = StdArc::new(TVar::new(0i64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let v = StdArc::clone(&v);
                thread::spawn(move || {
                    for _ in 0..2_000 {
                        atomically(|tx| {
                            let x = tx.read(&v)?;
                            tx.write(&v, x + 1)
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(v.read_atomic(), 16_000, "STM must prevent lost updates");
    }

    #[test]
    fn transfers_conserve_total() {
        let a = StdArc::new(TVar::new(10_000i64));
        let b = StdArc::new(TVar::new(10_000i64));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let a = StdArc::clone(&a);
                let b = StdArc::clone(&b);
                thread::spawn(move || {
                    for i in 0..2_000i64 {
                        let amt = (i + t) % 7;
                        atomically(|tx| {
                            let va = tx.read(&a)?;
                            let vb = tx.read(&b)?;
                            tx.write(&a, va - amt)?;
                            tx.write(&b, vb + amt)
                        });
                    }
                })
            })
            .collect();
        // Concurrent audits must always see the conserved total.
        let auditor = {
            let a = StdArc::clone(&a);
            let b = StdArc::clone(&b);
            thread::spawn(move || {
                for _ in 0..5_000 {
                    let total = atomically(|tx| {
                        let va = tx.read(&a)?;
                        let vb = tx.read(&b)?;
                        Ok(va + vb)
                    });
                    assert_eq!(total, 20_000, "audit saw intermediate state");
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        auditor.join().unwrap();
        assert_eq!(a.read_atomic() + b.read_atomic(), 20_000);
    }

    /// Formerly "sleep 30ms and assert the waiter hasn't finished" — flaky
    /// in both directions. The model checks the real contract in every
    /// schedule: a `retry` transaction completes once (and only because) its
    /// input changes, and no interleaving strands the waiter.
    #[test]
    fn checker_retry_blocks_until_input_changes() {
        let ex = syscheck::explore(&syscheck::Config::default(), || {
            let flag = StdArc::new(TVar::new(false));
            let waiter = {
                let flag = StdArc::clone(&flag);
                syscheck::shim::spawn(move || {
                    atomically(|tx| if tx.read(&flag)? { Ok(()) } else { tx.retry() });
                })
            };
            atomically(|tx| tx.write(&flag, true));
            waiter.join().unwrap();
            0
        });
        assert!(ex.failure.is_none(), "{:?}", ex.failure);
    }

    /// Two transactional increments racing: TL2 must serialize them in every
    /// interleaving of clock reads, version validations, and commit locking.
    #[test]
    fn checker_stm_counter_has_no_lost_updates() {
        let ex = syscheck::explore(&syscheck::Config::default(), || {
            let v = StdArc::new(TVar::new(0i64));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let v = StdArc::clone(&v);
                    syscheck::shim::spawn(move || {
                        atomically(|tx| {
                            let x = tx.read(&v)?;
                            tx.write(&v, x + 1)
                        });
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            let got = v.read_atomic();
            assert_eq!(got, 2, "lost transactional update");
            u64::try_from(got).expect("non-negative")
        });
        assert!(ex.failure.is_none(), "{:?}", ex.failure);
    }

    /// The composition claim, checked exhaustively on a small instance: an
    /// audit transaction never observes a transfer's intermediate state.
    #[test]
    fn checker_stm_transfer_never_exposes_intermediate_state() {
        let ex = syscheck::explore(&syscheck::Config::default(), || {
            let a = StdArc::new(TVar::new(100i64));
            let b = StdArc::new(TVar::new(100i64));
            let t = {
                let a = StdArc::clone(&a);
                let b = StdArc::clone(&b);
                syscheck::shim::spawn(move || {
                    atomically(|tx| {
                        let va = tx.read(&a)?;
                        let vb = tx.read(&b)?;
                        tx.write(&a, va - 30)?;
                        tx.write(&b, vb + 30)
                    });
                })
            };
            let total = atomically(|tx| {
                let va = tx.read(&a)?;
                let vb = tx.read(&b)?;
                Ok(va + vb)
            });
            t.join().unwrap();
            assert_eq!(total, 200, "audit saw a half-applied transfer");
            0
        });
        assert!(ex.failure.is_none(), "{:?}", ex.failure);
    }

    #[test]
    fn or_else_takes_second_branch_on_retry() {
        let empty = TVar::new(Option::<i64>::None);
        let fallback = TVar::new(Some(9i64));
        let got = atomically(|tx| {
            let e = empty.clone();
            let f = fallback.clone();
            tx.or_else(
                move |tx| match tx.read(&e)? {
                    Some(v) => Ok(v),
                    None => tx.retry(),
                },
                move |tx| match tx.read(&f)? {
                    Some(v) => Ok(v),
                    None => tx.retry(),
                },
            )
        });
        assert_eq!(got, 9);
    }

    #[test]
    fn or_else_rolls_back_first_branch_writes() {
        let v = TVar::new(0i64);
        let witness = TVar::new(0i64);
        atomically(|tx| {
            let v2 = v.clone();
            let w = witness.clone();
            tx.or_else(
                move |tx| {
                    tx.write(&v2, 111)?; // must be rolled back
                    tx.retry()
                },
                move |tx| tx.write(&w, 1),
            )
        });
        assert_eq!(v.read_atomic(), 0, "first branch's write leaked");
        assert_eq!(witness.read_atomic(), 1);
    }

    #[test]
    fn tvar_clone_shares_the_cell() {
        let a = TVar::new(1u8);
        let b = a.clone();
        atomically(|tx| tx.write(&a, 7));
        assert_eq!(b.read_atomic(), 7);
    }

    #[test]
    fn budgeted_succeeds_like_atomically() {
        let v = TVar::new(5i64);
        let got = atomically_budgeted(RetryBudget::default(), |tx| {
            let x = tx.read(&v)?;
            tx.write(&v, x + 1)?;
            Ok(x)
        });
        assert_eq!(got, Ok(5));
        assert_eq!(v.read_atomic(), 6);
    }

    #[test]
    fn budgeted_reports_exhaustion_typed() {
        // A body that always retries can never commit; the budget converts
        // the livelock into a typed error. (Plain `atomically` would hang.)
        let v = TVar::new(0u8);
        let r: Result<(), StmExhausted> = atomically_budgeted(
            RetryBudget {
                max_attempts: 3,
                backoff_base_us: 0,
            },
            |tx| {
                // Read something so Retry has a wait set that changes... it
                // won't, so keep the body conflicting instead: bump the var
                // outside the transaction to invalidate the read.
                let x = tx.read(&v)?;
                atomically(|tx2| tx2.write(&v, x.wrapping_add(1)));
                tx.write(&v, x)
            },
        );
        assert_eq!(r, Err(StmExhausted { attempts: 3 }));
        assert!(r.unwrap_err().to_string().contains("retry budget"));
    }

    #[test]
    fn injected_aborts_consume_budget_then_succeed() {
        use sysfault::{FaultPlan, Schedule, SharedInjector};
        let inj = SharedInjector::new(
            FaultPlan::new(3).with_site(SITE_STM_ABORT, Schedule::OneShotAt(1)),
        );
        let v = TVar::new(10i64);
        let before = THREAD_ABORTS.with(Cell::get);
        let got = atomically_faulted(RetryBudget::attempts(4), &inj, |tx| tx.read(&v));
        assert_eq!(got, Ok(10));
        assert_eq!(
            THREAD_ABORTS.with(Cell::get),
            before + 1,
            "injected abort was counted"
        );
        assert_eq!(inj.faults_fired(), 1);
    }

    #[test]
    fn injected_aborts_can_exhaust_the_budget() {
        use sysfault::{FaultPlan, Schedule, SharedInjector};
        let inj =
            SharedInjector::new(FaultPlan::new(3).with_site(SITE_STM_ABORT, Schedule::EveryNth(1)));
        let v = TVar::new(0i64);
        let r = atomically_faulted(
            RetryBudget {
                max_attempts: 5,
                backoff_base_us: 0,
            },
            &inj,
            |tx| tx.read(&v),
        );
        assert_eq!(r, Err(StmExhausted { attempts: 5 }));
        assert_eq!(v.read_atomic(), 0, "no injected attempt may commit");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let b = RetryBudget {
            max_attempts: 40,
            backoff_base_us: 2,
        };
        assert_eq!(b.backoff(1), 0, "first attempt is eager");
        assert_eq!(b.backoff(2), 2);
        assert_eq!(b.backoff(3), 4);
        assert_eq!(b.backoff(40), RetryBudget::MAX_BACKOFF_US);
    }

    #[test]
    fn stats_count_commits() {
        let before = stm_stats().commits;
        let v = TVar::new(0u8);
        atomically(|tx| tx.write(&v, 1));
        assert!(stm_stats().commits > before);
    }
}
