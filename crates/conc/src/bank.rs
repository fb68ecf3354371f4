//! The bank-account composition workload — the paper's (and the course
//! notes') canonical demonstration that lock-based code does not compose.
//!
//! Five implementations of one interface:
//!
//! | Implementation | Model | Composes? |
//! |---|---|---|
//! | [`CoarseLockBank`] | one global mutex | yes, by serializing everything |
//! | [`FineLockBank`] | per-account locks, ordered 2-phase acquisition | yes, but the ordering protocol is part of the API |
//! | [`BrokenComposedBank`] | per-account locks, debit then credit as separate critical sections | **no** — audits observe vanished money |
//! | [`StmBank`] | transactions over [`crate::stm`] | yes, by construction |
//! | [`ActorBank`] | message passing to an owning actor | yes, by construction |
//!
//! [`run_contention`] drives any of them with concurrent transfer threads and
//! a continuous auditor, counting audit anomalies (experiment E7).

use crate::actor::{ask, spawn, Actor, Address, Flow};
use crate::channel::Sender;
use crate::stm::{atomically, TVar};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use syscheck::shim::Mutex;

/// Uniform interface over all bank implementations.
pub trait Bank: Send + Sync {
    /// A short stable name for reports.
    fn name(&self) -> &'static str;

    /// Atomically moves `amount` from `from` to `to`. Returns `false` (and
    /// changes nothing) if `from` has insufficient funds.
    fn transfer(&self, from: usize, to: usize, amount: i64) -> bool;

    /// Sums every balance. A correct implementation always returns the same
    /// total no matter how many transfers race with it.
    fn audit(&self) -> i64;

    /// Reads one balance.
    fn balance(&self, account: usize) -> i64;

    /// Number of accounts.
    fn accounts(&self) -> usize;
}

/// One mutex around the whole vector of balances.
#[derive(Debug)]
pub struct CoarseLockBank {
    balances: Mutex<Vec<i64>>,
}

impl CoarseLockBank {
    /// Creates `n` accounts each holding `initial`.
    #[must_use]
    pub fn new(n: usize, initial: i64) -> Self {
        CoarseLockBank {
            balances: Mutex::new(vec![initial; n]),
        }
    }
}

impl Bank for CoarseLockBank {
    fn name(&self) -> &'static str {
        "coarse-lock"
    }

    fn transfer(&self, from: usize, to: usize, amount: i64) -> bool {
        let mut b = self.balances.lock().expect("bank poisoned");
        if b[from] < amount || from == to {
            return false;
        }
        b[from] -= amount;
        b[to] += amount;
        true
    }

    fn audit(&self) -> i64 {
        self.balances.lock().expect("bank poisoned").iter().sum()
    }

    fn balance(&self, account: usize) -> i64 {
        self.balances.lock().expect("bank poisoned")[account]
    }

    fn accounts(&self) -> usize {
        self.balances.lock().expect("bank poisoned").len()
    }
}

/// Per-account mutexes with a global lock order (lower index first). Correct,
/// scalable — and the ordering protocol is invisible in the types, which is
/// exactly the composition hazard the paper describes.
#[derive(Debug)]
pub struct FineLockBank {
    balances: Vec<Mutex<i64>>,
}

impl FineLockBank {
    /// Creates `n` accounts each holding `initial`.
    #[must_use]
    pub fn new(n: usize, initial: i64) -> Self {
        FineLockBank {
            balances: (0..n).map(|_| Mutex::new(initial)).collect(),
        }
    }
}

impl Bank for FineLockBank {
    fn name(&self) -> &'static str {
        "fine-lock"
    }

    fn transfer(&self, from: usize, to: usize, amount: i64) -> bool {
        if from == to {
            return false;
        }
        // Two-phase locking in index order prevents deadlock.
        let (lo, hi) = if from < to { (from, to) } else { (to, from) };
        let lo_guard = self.balances[lo].lock().expect("bank poisoned");
        let hi_guard = self.balances[hi].lock().expect("bank poisoned");
        let (mut from_guard, mut to_guard) = if from < to {
            (lo_guard, hi_guard)
        } else {
            (hi_guard, lo_guard)
        };
        if *from_guard < amount {
            return false;
        }
        *from_guard -= amount;
        *to_guard += amount;
        true
    }

    fn audit(&self) -> i64 {
        // Lock *all* accounts in order before reading any: a full two-phase
        // audit. Correct, but O(n) lock hold time — the price locks charge.
        let guards: Vec<_> = self
            .balances
            .iter()
            .map(|m| m.lock().expect("bank poisoned"))
            .collect();
        guards.iter().map(|g| **g).sum()
    }

    fn balance(&self, account: usize) -> i64 {
        *self.balances[account].lock().expect("bank poisoned")
    }

    fn accounts(&self) -> usize {
        self.balances.len()
    }
}

/// The broken composition: `debit` and `credit` are each individually
/// correct critical sections, and `transfer` calls one after the other,
/// exposing the in-flight state. Audits can observe the money in neither
/// account. This is the paper's slide-23 example, kept deliberately.
#[derive(Debug)]
pub struct BrokenComposedBank {
    balances: Vec<Mutex<i64>>,
    /// Counts transfers currently between debit and credit (test hook).
    in_flight: syscheck::shim::AtomicU64,
}

impl BrokenComposedBank {
    /// Creates `n` accounts each holding `initial`.
    #[must_use]
    pub fn new(n: usize, initial: i64) -> Self {
        BrokenComposedBank {
            balances: (0..n).map(|_| Mutex::new(initial)).collect(),
            in_flight: syscheck::shim::AtomicU64::new(0),
        }
    }

    /// The individually-correct debit operation.
    pub fn debit(&self, account: usize, amount: i64) -> bool {
        let mut b = self.balances[account].lock().expect("bank poisoned");
        if *b < amount {
            return false;
        }
        *b -= amount;
        true
    }

    /// The individually-correct credit operation.
    pub fn credit(&self, account: usize, amount: i64) {
        *self.balances[account].lock().expect("bank poisoned") += amount;
    }

    /// Transfers currently between their debit and credit halves — the
    /// window in which an audit observes vanished money. Test hook: lets a
    /// detector aim its audits at the window instead of sampling blindly.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }
}

impl Bank for BrokenComposedBank {
    fn name(&self) -> &'static str {
        "broken-composed"
    }

    fn transfer(&self, from: usize, to: usize, amount: i64) -> bool {
        if from == to || !self.debit(from, amount) {
            return false;
        }
        // The intermediate state — money in neither account — is observable
        // right here. yield_now widens the window the way preemption would.
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        syscheck::shim::yield_now();
        self.credit(to, amount);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        true
    }

    fn audit(&self) -> i64 {
        self.balances
            .iter()
            .map(|m| *m.lock().expect("bank poisoned"))
            .sum()
    }

    fn balance(&self, account: usize) -> i64 {
        *self.balances[account].lock().expect("bank poisoned")
    }

    fn accounts(&self) -> usize {
        self.balances.len()
    }
}

/// Transactional bank: transfer and audit are single `atomically` blocks.
#[derive(Debug)]
pub struct StmBank {
    balances: Vec<TVar<i64>>,
}

impl StmBank {
    /// Creates `n` accounts each holding `initial`.
    #[must_use]
    pub fn new(n: usize, initial: i64) -> Self {
        StmBank {
            balances: (0..n).map(|_| TVar::new(initial)).collect(),
        }
    }
}

impl Bank for StmBank {
    fn name(&self) -> &'static str {
        "stm"
    }

    fn transfer(&self, from: usize, to: usize, amount: i64) -> bool {
        if from == to {
            return false;
        }
        atomically(|tx| {
            let f = tx.read(&self.balances[from])?;
            if f < amount {
                return Ok(false);
            }
            let t = tx.read(&self.balances[to])?;
            tx.write(&self.balances[from], f - amount)?;
            tx.write(&self.balances[to], t + amount)?;
            Ok(true)
        })
    }

    fn audit(&self) -> i64 {
        atomically(|tx| {
            let mut total = 0;
            for v in &self.balances {
                total += tx.read(v)?;
            }
            Ok(total)
        })
    }

    fn balance(&self, account: usize) -> i64 {
        self.balances[account].read_atomic()
    }

    fn accounts(&self) -> usize {
        self.balances.len()
    }
}

#[derive(Debug)]
enum BankMsg {
    Transfer {
        from: usize,
        to: usize,
        amount: i64,
        reply: Sender<bool>,
    },
    Audit {
        reply: Sender<i64>,
    },
    Balance {
        account: usize,
        reply: Sender<i64>,
    },
}

struct BankActor {
    balances: Vec<i64>,
}

impl Actor for BankActor {
    type Msg = BankMsg;

    fn handle(&mut self, msg: BankMsg) -> Flow {
        match msg {
            BankMsg::Transfer {
                from,
                to,
                amount,
                reply,
            } => {
                let ok = from != to && self.balances[from] >= amount;
                if ok {
                    self.balances[from] -= amount;
                    self.balances[to] += amount;
                }
                let _ = reply.send(ok);
            }
            BankMsg::Audit { reply } => {
                let _ = reply.send(self.balances.iter().sum());
            }
            BankMsg::Balance { account, reply } => {
                let _ = reply.send(self.balances[account]);
            }
        }
        Flow::Continue
    }
}

/// Message-passing bank: a single actor owns every balance; operations are
/// requests. Atomicity comes from the actor's sequential mailbox.
#[derive(Debug)]
pub struct ActorBank {
    addr: Address<BankMsg>,
    n: usize,
}

impl ActorBank {
    /// Creates `n` accounts each holding `initial`, spawning the owner actor.
    #[must_use]
    pub fn new(n: usize, initial: i64) -> Self {
        let (addr, handle) = spawn(BankActor {
            balances: vec![initial; n],
        });
        // The actor lives as long as any Address clone; detach the handle.
        std::mem::forget(handle);
        ActorBank { addr, n }
    }
}

impl Bank for ActorBank {
    fn name(&self) -> &'static str {
        "actor"
    }

    fn transfer(&self, from: usize, to: usize, amount: i64) -> bool {
        ask(&self.addr, |reply| BankMsg::Transfer {
            from,
            to,
            amount,
            reply,
        })
        .unwrap_or(false)
    }

    fn audit(&self) -> i64 {
        ask(&self.addr, |reply| BankMsg::Audit { reply }).unwrap_or(0)
    }

    fn balance(&self, account: usize) -> i64 {
        ask(&self.addr, |reply| BankMsg::Balance { account, reply }).unwrap_or(0)
    }

    fn accounts(&self) -> usize {
        self.n
    }
}

/// Results of one contention run.
#[derive(Debug, Clone)]
pub struct BankReport {
    /// Implementation name.
    pub bank: &'static str,
    /// Worker threads used.
    pub threads: usize,
    /// Completed transfer attempts (successful or declined).
    pub transfers: u64,
    /// Audits performed.
    pub audits: u64,
    /// Audits that saw a total different from the invariant.
    pub audit_anomalies: u64,
    /// Wall time in nanoseconds.
    pub elapsed_ns: u64,
}

impl BankReport {
    /// Transfer attempts per second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.transfers as f64 / (self.elapsed_ns as f64 / 1e9)
        }
    }
}

/// Drives `bank` with `threads` transfer workers (each performing `ops`
/// pseudo-random transfers) plus one continuous auditor thread, and reports
/// throughput and how many audits observed a violated invariant.
pub fn run_contention(bank: &dyn Bank, threads: usize, ops: usize) -> BankReport {
    let n = bank.accounts();
    let expected: i64 = bank.audit();
    let start = Instant::now();
    let transfers = AtomicU64::new(0);
    let audits = AtomicU64::new(0);
    let anomalies = AtomicU64::new(0);
    let done = std::sync::atomic::AtomicBool::new(false);
    // The transfer threads and the auditor leave one start line together.
    let start_line = std::sync::Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let transfers = &transfers;
            let bank = &bank;
            let start_line = &start_line;
            scope.spawn(move || {
                // Cheap deterministic LCG per thread.
                let mut state = (t as u64).wrapping_mul(0x9e37_79b9) + 1;
                let mut next = move || {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1);
                    (state >> 33) as usize
                };
                start_line.wait();
                for _ in 0..ops {
                    let from = next() % n;
                    let to = next() % n;
                    let amount = i64::try_from(next() % 50).expect("small");
                    bank.transfer(from, to, amount);
                    transfers.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let audits = &audits;
        let anomalies = &anomalies;
        let done = &done;
        let bank = &bank;
        let start_line = &start_line;
        scope.spawn(move || {
            start_line.wait();
            // Audit at least once after the start line, however the
            // threads are scheduled.
            loop {
                let total = bank.audit();
                audits.fetch_add(1, Ordering::Relaxed);
                if total != expected {
                    anomalies.fetch_add(1, Ordering::Relaxed);
                }
                if done.load(Ordering::Acquire) {
                    break;
                }
            }
        });
        // Wait for workers by joining the scope implicitly; signal auditor.
        // (The scope joins all threads at the end; we flip `done` from a
        // monitor thread that waits for the transfer count.)
        let total_ops = (threads * ops) as u64;
        let transfers = &transfers;
        scope.spawn(move || {
            while transfers.load(Ordering::Relaxed) < total_ops {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });
    });
    BankReport {
        bank: bank.name(),
        threads,
        transfers: transfers.load(Ordering::Relaxed),
        audits: audits.load(Ordering::Relaxed),
        audit_anomalies: anomalies.load(Ordering::Relaxed),
        elapsed_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_single_thread(bank: &dyn Bank) {
        let total = bank.audit();
        assert!(bank.transfer(0, 1, 30));
        assert_eq!(bank.balance(0), 70);
        assert_eq!(bank.balance(1), 130);
        assert!(!bank.transfer(0, 1, 1_000), "insufficient funds must fail");
        assert!(!bank.transfer(2, 2, 10), "self-transfer must fail");
        assert_eq!(bank.audit(), total, "total conserved");
    }

    #[test]
    fn coarse_bank_basics() {
        exercise_single_thread(&CoarseLockBank::new(4, 100));
    }

    #[test]
    fn fine_bank_basics() {
        exercise_single_thread(&FineLockBank::new(4, 100));
    }

    #[test]
    fn stm_bank_basics() {
        exercise_single_thread(&StmBank::new(4, 100));
    }

    #[test]
    fn actor_bank_basics() {
        exercise_single_thread(&ActorBank::new(4, 100));
    }

    #[test]
    fn broken_bank_conserves_total_only_when_quiescent() {
        let bank = BrokenComposedBank::new(4, 100);
        assert!(bank.transfer(0, 1, 30));
        assert_eq!(bank.audit(), 400, "sequential use looks correct");
    }

    #[test]
    fn broken_bank_exposes_intermediate_state_deterministically() {
        // Single-threaded demonstration of the composition failure: call the
        // two individually-correct halves and audit in between.
        let bank = BrokenComposedBank::new(2, 100);
        assert!(bank.debit(0, 40));
        let mid_audit = bank.audit();
        assert_eq!(mid_audit, 160, "the money is in neither account");
        bank.credit(1, 40);
        assert_eq!(bank.audit(), 200);
    }

    fn contention_invariant(bank: &dyn Bank) {
        let expected = bank.audit();
        let r = run_contention(bank, 4, 2_000);
        assert_eq!(bank.audit(), expected, "{}: money leaked", bank.name());
        assert_eq!(
            r.audit_anomalies,
            0,
            "{}: audit saw intermediate state",
            bank.name()
        );
        assert!(r.audits > 0);
    }

    #[test]
    fn coarse_bank_survives_contention() {
        contention_invariant(&CoarseLockBank::new(16, 1_000));
    }

    #[test]
    fn fine_bank_survives_contention() {
        contention_invariant(&FineLockBank::new(16, 1_000));
    }

    #[test]
    fn stm_bank_survives_contention() {
        contention_invariant(&StmBank::new(16, 1_000));
    }

    #[test]
    fn actor_bank_survives_contention() {
        contention_invariant(&ActorBank::new(16, 1_000));
    }

    #[test]
    fn broken_bank_still_conserves_after_the_dust_settles() {
        // The broken bank's *final* state is correct (no money is lost by
        // the end); only concurrent observers see anomalies. That is what
        // makes the bug so hard to find — the paper's "failures are silent".
        let bank = BrokenComposedBank::new(16, 1_000);
        let r = run_contention(&bank, 4, 2_000);
        assert_eq!(bank.audit(), 16_000);
        // Anomalies are *likely* but not guaranteed on every run/host, so we
        // only record them; the deterministic test above proves the defect.
        let _ = r.audit_anomalies;
    }

    /// Regression fixture, formerly a race-the-OS-scheduler poll loop (a
    /// million blind audits hoping to land in the debit-credit window). The
    /// checker makes the window a scheduling decision: DFS steers an audit
    /// into it deterministically, the shrinker reduces the reproduction to
    /// its essential preemptions, and random mode pins a replayable seed —
    /// the E13 "known bug detected" row. If someone "fixes" the bank by
    /// holding both locks across the transfer, this test fails and the
    /// fixture must be updated deliberately.
    #[test]
    fn checker_broken_bank_audit_anomaly_is_rediscovered() {
        let model = || {
            let bank = std::sync::Arc::new(BrokenComposedBank::new(2, 100));
            let t = {
                let bank = std::sync::Arc::clone(&bank);
                syscheck::shim::spawn(move || {
                    assert!(bank.transfer(0, 1, 30));
                })
            };
            let observed = bank.audit();
            assert_eq!(observed, 200, "audit saw vanished money");
            t.join().unwrap();
            u64::try_from(bank.audit()).expect("non-negative")
        };
        let cfg = syscheck::Config::default();
        let ex = syscheck::explore(&cfg, model);
        let failure = ex.failure.expect("DFS must expose the audit anomaly");
        assert_eq!(failure.kind, syscheck::FailureKind::Panic);
        assert!(
            failure.message.contains("vanished money"),
            "{}",
            failure.message
        );
        assert!(
            ex.schedules <= 10_000,
            "within the E13 budget: {}",
            ex.schedules
        );

        let shrunk = syscheck::shrink::shrink_failure(&cfg, &failure, model);
        assert!(shrunk.report.failure.is_some());
        assert!(
            (1..=2).contains(&shrunk.deviations.len()),
            "the anomaly needs 1-2 preemptions: {:?}",
            shrunk.deviations
        );

        let exr = syscheck::explore_random(&cfg, 0xE13, model);
        let rf = exr.failure.expect("random mode must also find it");
        let seed = rf.seed.expect("random failures carry seeds");
        let replay = syscheck::replay_seed(&cfg, seed, model);
        assert_eq!(
            replay
                .failure
                .expect("seed replay fails too")
                .trace
                .digest(),
            rf.trace.digest()
        );
    }

    /// The coarse bank under the checker: no interleaving of a transfer and
    /// an audit can observe a torn total.
    #[test]
    fn checker_coarse_bank_audit_always_conserves() {
        let ex = syscheck::explore(&syscheck::Config::default(), || {
            let bank = std::sync::Arc::new(CoarseLockBank::new(2, 100));
            let t = {
                let bank = std::sync::Arc::clone(&bank);
                syscheck::shim::spawn(move || {
                    assert!(bank.transfer(0, 1, 30));
                })
            };
            let total = bank.audit();
            assert_eq!(total, 200);
            t.join().unwrap();
            assert_eq!(bank.audit(), 200);
            0
        });
        assert!(ex.failure.is_none(), "{:?}", ex.failure);
        assert!(ex.complete);
    }

    /// The fine bank's ordered two-phase locking: opposite-direction
    /// transfers must not deadlock in any schedule (drop the ordering and
    /// the checker reports the ABBA deadlock), and the audit never tears.
    #[test]
    fn checker_fine_bank_opposite_transfers_no_deadlock() {
        let ex = syscheck::explore(&syscheck::Config::default(), || {
            let bank = std::sync::Arc::new(FineLockBank::new(2, 100));
            let t = {
                let bank = std::sync::Arc::clone(&bank);
                syscheck::shim::spawn(move || {
                    bank.transfer(1, 0, 10);
                })
            };
            bank.transfer(0, 1, 10);
            t.join().unwrap();
            let total = bank.audit();
            assert_eq!(total, 200);
            0
        });
        assert!(ex.failure.is_none(), "{:?}", ex.failure);
        assert!(ex.complete);
    }

    /// The STM bank under the checker: transfer versus audit, exhaustively.
    #[test]
    fn checker_stm_bank_audit_always_conserves() {
        let ex = syscheck::explore(&syscheck::Config::default(), || {
            let bank = std::sync::Arc::new(StmBank::new(2, 100));
            let t = {
                let bank = std::sync::Arc::clone(&bank);
                syscheck::shim::spawn(move || {
                    assert!(bank.transfer(0, 1, 30));
                })
            };
            let total = bank.audit();
            assert_eq!(total, 200);
            t.join().unwrap();
            0
        });
        assert!(ex.failure.is_none(), "{:?}", ex.failure);
    }

    /// The one intentionally wall-clock stress run for this module: the
    /// original poll-the-window detector, real threads and all. The checker
    /// model above proves the defect deterministically; this keeps evidence
    /// that it is observable on real hardware too.
    #[test]
    #[ignore = "wall-clock stress; run with --ignored"]
    fn stress_broken_bank_anomaly_with_real_threads() {
        use std::sync::atomic::AtomicBool;
        let bank = BrokenComposedBank::new(2, 100);
        let stop = AtomicBool::new(false);
        let mut detected = false;
        std::thread::scope(|scope| {
            let bank_ref = &bank;
            let stop_ref = &stop;
            scope.spawn(move || {
                while !stop_ref.load(Ordering::Acquire) {
                    bank_ref.transfer(0, 1, 10);
                    bank_ref.transfer(1, 0, 10);
                }
            });
            for _ in 0..1_000_000 {
                if bank.in_flight() > 0 && bank.audit() != 200 {
                    detected = true;
                    break;
                }
            }
            stop.store(true, Ordering::Release);
        });
        assert!(
            detected,
            "the composition bug must be observable under contention"
        );
        assert_eq!(bank.audit(), 200, "quiescent total is still conserved");
    }

    #[test]
    fn reports_compute_throughput() {
        let bank = CoarseLockBank::new(4, 100);
        let r = run_contention(&bank, 2, 100);
        assert_eq!(r.transfers, 200);
        assert!(r.throughput() > 0.0);
    }
}
