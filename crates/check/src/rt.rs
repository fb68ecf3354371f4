//! The cooperative scheduler behind the checker.
//!
//! Each model thread is backed by a real OS thread, but only one ever runs:
//! every shim operation funnels into a [`Runtime`] entry point that records
//! a trace event, asks the execution's [`Chooser`] which thread runs next,
//! and hands the single run token over a process-wide condvar. Blocking
//! operations (contended lock acquisition, condvar waits, joins) mark the
//! thread blocked, so "no runnable thread" is a *detected* deadlock rather
//! than a hung test — which is exactly how lost wakeups surface.
//!
//! Determinism contract: given the same model closure and the same chooser
//! decisions, an execution takes the same schedule, produces the same trace
//! digest, and reaches the same terminal state. Models must therefore be
//! deterministic up to scheduling (no wall-clock branching, no ambient
//! randomness) and must create their shared objects inside the closure.

use crate::trace::Trace;
use crate::{Config, FailureKind};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::sync::{PoisonError, TryLockError};
use sysfault::SplitMix64;

/// Shared slot a spawned model thread writes its (possibly panicked) result
/// into; the matching `JoinHandle` takes it out after the model-time join.
pub(crate) type ResultSlot<T> = Arc<StdMutex<Option<std::thread::Result<T>>>>;

/// Panic payload used to unwind parked model threads when an execution
/// aborts (failure recorded or budget exhausted). Never escapes the checker:
/// thread wrappers catch it and finish quietly.
pub(crate) struct SchedAbort;

/// What a blocked model thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiting {
    Lock(u64),
    Cond(u64),
    Join(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Runnable,
    /// Voluntarily stepped aside (`yield_now` / spin hint): schedulable only
    /// when no plain-runnable thread exists, and restored to `Runnable` at
    /// the next decision. This is what makes spin loops explorable — the
    /// spinner cannot starve the thread it is waiting on, so bounded DFS
    /// terminates even on test-and-set loops.
    Yielded,
    Blocked(Waiting),
    Finished,
}

struct ThreadSlot {
    state: TState,
    /// Parked in a timed condvar wait: eligible for a timeout firing.
    timed: bool,
    /// Set when the scheduler fired this thread's timeout; consumed by the
    /// shim `wait_timeout` to report `timed_out()`.
    timeout_fired: bool,
    /// Monotonic block sequence number: timeouts fire on the longest-waiting
    /// timed waiter first, deterministically.
    block_seq: u64,
}

/// One scheduling decision, recorded for replay and shrinking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Decision {
    /// Thread granted the run token.
    pub chosen: usize,
    /// Thread the default policy (stay on the current thread when runnable,
    /// else the lowest-id candidate) would have picked. Deviations from it
    /// are the preemptions shrinking minimizes.
    pub default: usize,
}

/// One node of the DFS schedule tree: how many options the decision had and
/// which branch the current iteration takes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DfsNode {
    pub n_options: usize,
    pub idx: usize,
}

/// Scheduling policy for one execution.
pub(crate) enum Chooser {
    /// Bounded-exhaustive DFS over the schedule tree with a preemption bound.
    Dfs {
        path: Vec<DfsNode>,
        cursor: usize,
        bound: u32,
    },
    /// Seeded-random schedule (one seed = one schedule).
    Random(SplitMix64),
    /// Replay of a recorded choice list (thread ids, one per decision);
    /// falls back to the default policy past the end or on invalid choices.
    Fixed { choices: Vec<usize>, cursor: usize },
    /// Default policy everywhere except at the given steps, where the mapped
    /// thread is chosen if runnable. The shrinker's schedule encoding.
    Deviate(BTreeMap<u64, usize>),
}

impl Chooser {
    /// Picks an index into `allowed` (ordered default-first, non-empty).
    fn choose(&mut self, step: u64, allowed: &[usize]) -> usize {
        match self {
            Chooser::Dfs { path, cursor, .. } => {
                if *cursor == path.len() {
                    path.push(DfsNode {
                        n_options: allowed.len(),
                        idx: 0,
                    });
                }
                let idx = path[*cursor].idx.min(allowed.len() - 1);
                *cursor += 1;
                idx
            }
            Chooser::Random(rng) => {
                usize::try_from(rng.next_u64() % allowed.len() as u64).expect("index fits usize")
            }
            Chooser::Fixed { choices, cursor } => {
                let want = choices.get(*cursor).copied();
                *cursor += 1;
                want.and_then(|w| allowed.iter().position(|&t| t == w))
                    .unwrap_or(0)
            }
            Chooser::Deviate(devs) => devs
                .get(&step)
                .and_then(|w| allowed.iter().position(|&t| t == *w))
                .unwrap_or(0),
        }
    }

    fn preemption_bound(&self) -> u32 {
        match self {
            Chooser::Dfs { bound, .. } => *bound,
            _ => u32::MAX,
        }
    }
}

/// Everything one execution tracks, behind the runtime mutex.
pub(crate) struct ExecState {
    threads: Vec<ThreadSlot>,
    active: usize,
    live: usize,
    steps: u64,
    preemptions: u32,
    next_block_seq: u64,
    chooser: Chooser,
    decisions: Vec<Decision>,
    trace: Trace,
    /// Current holder of each shim lock, by object id.
    lock_owner: HashMap<u64, usize>,
    /// FIFO wait queue of each shim condvar, by object id.
    cond_queue: HashMap<u64, VecDeque<usize>>,
    /// Address -> per-execution object id. Ids are assigned in first-touch
    /// order (deterministic across executions); entries are removed when the
    /// shim object drops so address reuse cannot alias a dead object.
    obj_ids: HashMap<usize, u64>,
    next_obj_id: u64,
    failure: Option<(FailureKind, String)>,
    aborting: bool,
    done: bool,
    max_steps: u64,
    max_threads: usize,
}

/// Outcome of a decision attempt.
enum Decide {
    Chosen(usize),
    Deadlock(String),
    Budget,
}

/// Harvested results of a finished execution.
pub(crate) struct Harvest {
    pub chooser: Chooser,
    pub decisions: Vec<Decision>,
    pub trace: Trace,
    pub failure: Option<(FailureKind, String)>,
    pub preemptions: u32,
}

struct Inner {
    st: StdMutex<ExecState>,
    cv: StdCondvar,
}

/// Count of live runtimes in the process: the shim's fast path is a single
/// relaxed load of this when no checker is active anywhere.
static ACTIVE_RUNTIMES: AtomicUsize = AtomicUsize::new(0);

impl Drop for Inner {
    fn drop(&mut self) {
        ACTIVE_RUNTIMES.fetch_sub(1, Ordering::Relaxed);
    }
}

thread_local! {
    static CURRENT: RefCell<Option<(Runtime, usize)>> = const { RefCell::new(None) };
}

/// The runtime controlling the calling thread, with its model-thread id.
/// `None` on every thread the checker did not spawn — there the shim falls
/// through to `std`.
pub(crate) fn current() -> Option<(Runtime, usize)> {
    if ACTIVE_RUNTIMES.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// Handle on one execution's scheduler.
#[derive(Clone)]
pub(crate) struct Runtime(Arc<Inner>);

impl Runtime {
    pub(crate) fn new(cfg: &Config, chooser: Chooser) -> Self {
        ACTIVE_RUNTIMES.fetch_add(1, Ordering::Relaxed);
        Runtime(Arc::new(Inner {
            st: StdMutex::new(ExecState {
                threads: Vec::new(),
                active: 0,
                live: 0,
                steps: 0,
                preemptions: 0,
                next_block_seq: 0,
                chooser,
                decisions: Vec::new(),
                trace: Trace::default(),
                lock_owner: HashMap::new(),
                cond_queue: HashMap::new(),
                obj_ids: HashMap::new(),
                next_obj_id: 0,
                failure: None,
                aborting: false,
                done: false,
                max_steps: cfg.max_steps,
                max_threads: cfg.max_threads,
            }),
            cv: StdCondvar::new(),
        }))
    }

    fn lock(&self) -> StdMutexGuard<'_, ExecState> {
        // The runtime never panics while holding this lock, but a model
        // thread aborted at exactly the wrong moment must not wedge the
        // teardown path behind a poison error.
        self.0.st.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Per-execution id for a shim object at `addr`, assigned in first-touch
    /// order.
    pub(crate) fn object_id(&self, addr: usize) -> u64 {
        let mut g = self.lock();
        if let Some(&id) = g.obj_ids.get(&addr) {
            return id;
        }
        let id = g.next_obj_id;
        g.next_obj_id += 1;
        g.obj_ids.insert(addr, id);
        id
    }

    /// Forgets a dropped shim object so address reuse gets a fresh id.
    pub(crate) fn forget_object(&self, addr: usize) {
        let mut g = self.lock();
        g.obj_ids.remove(&addr);
    }

    // ---- core scheduling ------------------------------------------------

    /// Makes one scheduling decision. The caller (thread `me`) must hold the
    /// state lock and be the active thread (it may have just blocked or
    /// finished itself). On success the chosen thread is active.
    fn decide(g: &mut ExecState, me: usize) -> Decide {
        loop {
            let runnable: Vec<usize> = g
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.state == TState::Runnable)
                .map(|(i, _)| i)
                .collect();
            let pool: Vec<usize> = if runnable.is_empty() {
                g.threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.state == TState::Yielded)
                    .map(|(i, _)| i)
                    .collect()
            } else {
                runnable
            };
            if pool.is_empty() {
                // Everyone is blocked or finished. A timed waiter models the
                // passage of time: when nothing else can happen, the
                // longest-waiting timeout fires and we retry. Otherwise this
                // is a real deadlock.
                if let Some(t) = Self::earliest_timed_waiter(g) {
                    Self::fire_timeout(g, t);
                    continue;
                }
                if g.live == 0 {
                    // Unreachable from an active thread; finish handles it.
                    return Decide::Chosen(me);
                }
                return Decide::Deadlock(Self::describe_deadlock(g));
            }
            // Default-first ordering: the current thread when it can run,
            // then the others by ascending id. `allowed[0]` is what the
            // default (preemption-free) policy picks — DFS explores it
            // first, and the shrinker measures deviations against it.
            let cur_in_pool = pool.contains(&me);
            let mut allowed: Vec<usize> = Vec::with_capacity(pool.len());
            if cur_in_pool {
                allowed.push(me);
            }
            allowed.extend(pool.into_iter().filter(|&t| t != me));
            let cur_preemptible = cur_in_pool && g.threads[me].state == TState::Runnable;
            if cur_preemptible && g.preemptions >= g.chooser.preemption_bound() {
                // Bound spent: a runnable current thread keeps the token.
                allowed.truncate(1);
            }
            let step = g.steps;
            let idx = g.chooser.choose(step, &allowed);
            let next = allowed[idx];
            if cur_preemptible && next != me {
                g.preemptions += 1;
            }
            g.decisions.push(Decision {
                chosen: next,
                default: allowed[0],
            });
            g.steps += 1;
            // Yield hints are one-shot: everyone is runnable again at the
            // next decision.
            for slot in &mut g.threads {
                if slot.state == TState::Yielded {
                    slot.state = TState::Runnable;
                }
            }
            if g.steps > g.max_steps {
                return Decide::Budget;
            }
            if next != me {
                g.trace.push(step, next, "switch", me as u64);
            }
            g.active = next;
            return Decide::Chosen(next);
        }
    }

    fn earliest_timed_waiter(g: &ExecState) -> Option<usize> {
        g.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.timed && matches!(t.state, TState::Blocked(Waiting::Cond(_))))
            .min_by_key(|(_, t)| t.block_seq)
            .map(|(i, _)| i)
    }

    fn fire_timeout(g: &mut ExecState, t: usize) {
        let TState::Blocked(Waiting::Cond(cond_id)) = g.threads[t].state else {
            return;
        };
        if let Some(q) = g.cond_queue.get_mut(&cond_id) {
            q.retain(|&w| w != t);
        }
        let steps = g.steps;
        g.trace.push(steps, t, "cond.timeout", cond_id);
        let slot = &mut g.threads[t];
        slot.state = TState::Runnable;
        slot.timed = false;
        slot.timeout_fired = true;
    }

    fn describe_deadlock(g: &ExecState) -> String {
        let mut parts = Vec::new();
        for (i, t) in g.threads.iter().enumerate() {
            if let TState::Blocked(w) = t.state {
                parts.push(match w {
                    Waiting::Lock(id) => format!("t{i} waits on lock#{id}"),
                    Waiting::Cond(id) => format!("t{i} waits on cond#{id}"),
                    Waiting::Join(t2) => format!("t{i} waits to join t{t2}"),
                });
            }
        }
        format!("deadlock: {}", parts.join(", "))
    }

    fn fail_locked(&self, g: &mut ExecState, kind: FailureKind, message: String) {
        if g.failure.is_none() {
            let steps = g.steps;
            let active = g.active;
            g.trace.push(steps, active, "fail", 0);
            g.failure = Some((kind, message));
        }
        g.aborting = true;
        self.0.cv.notify_all();
    }

    /// Parks until `me` is active again. Panics with [`SchedAbort`] (after
    /// releasing the lock) if the execution is aborting.
    fn wait_active<'a>(
        &'a self,
        mut g: StdMutexGuard<'a, ExecState>,
        me: usize,
    ) -> StdMutexGuard<'a, ExecState> {
        loop {
            if g.aborting {
                drop(g);
                std::panic::panic_any(SchedAbort);
            }
            if g.active == me {
                return g;
            }
            g = self.0.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// One decision plus handoff: returns with `me` active again (possibly
    /// immediately), or unwinds on abort/deadlock/budget.
    fn advance<'a>(
        &'a self,
        mut g: StdMutexGuard<'a, ExecState>,
        me: usize,
    ) -> StdMutexGuard<'a, ExecState> {
        match Self::decide(&mut g, me) {
            Decide::Chosen(next) => {
                if next != me {
                    self.0.cv.notify_all();
                    g = self.wait_active(g, me);
                }
                g
            }
            Decide::Deadlock(msg) => {
                self.fail_locked(&mut g, FailureKind::Deadlock, msg);
                drop(g);
                std::panic::panic_any(SchedAbort)
            }
            Decide::Budget => {
                let msg = format!("step budget exceeded ({} decisions)", g.steps);
                self.fail_locked(&mut g, FailureKind::StepBudget, msg);
                drop(g);
                std::panic::panic_any(SchedAbort)
            }
        }
    }

    /// Guard at every runtime entry: aborting executions unwind immediately.
    fn entry<'a>(
        &'a self,
        me: usize,
        label: &'static str,
        arg: u64,
    ) -> StdMutexGuard<'a, ExecState> {
        let mut g = self.lock();
        if g.aborting {
            drop(g);
            std::panic::panic_any(SchedAbort);
        }
        debug_assert_eq!(g.active, me, "only the active thread reaches the runtime");
        let steps = g.steps;
        g.trace.push(steps, me, label, arg);
        g
    }

    // ---- shim entry points ----------------------------------------------

    /// A plain decision point: record the operation, maybe switch threads.
    pub(crate) fn yield_point(&self, me: usize, label: &'static str, arg: u64) {
        if std::thread::panicking() {
            return;
        }
        let g = self.entry(me, label, arg);
        drop(self.advance(g, me));
    }

    /// `yield_now` / spin-hint: step aside so anyone else runs first.
    pub(crate) fn yield_hint(&self, me: usize, label: &'static str) {
        if std::thread::panicking() {
            return;
        }
        let mut g = self.entry(me, label, 0);
        g.threads[me].state = TState::Yielded;
        drop(self.advance(g, me));
    }

    /// Acquires shim lock `id` for `me`, blocking (in model time) while held
    /// elsewhere. Barging semantics: a woken waiter races any newcomer.
    pub(crate) fn lock_acquire(&self, me: usize, id: u64) {
        if std::thread::panicking() {
            // Teardown unwind: the execution is aborting and every other
            // thread is parked, so ownership bookkeeping no longer matters.
            return;
        }
        let g = self.entry(me, "lock.acquire", id);
        let mut g = self.advance(g, me);
        loop {
            if let std::collections::hash_map::Entry::Vacant(e) = g.lock_owner.entry(id) {
                e.insert(me);
                return;
            }
            let seq = g.next_block_seq;
            g.next_block_seq += 1;
            let slot = &mut g.threads[me];
            slot.state = TState::Blocked(Waiting::Lock(id));
            slot.block_seq = seq;
            g = self.advance(g, me);
        }
    }

    /// Tries to acquire shim lock `id`; never blocks.
    pub(crate) fn lock_try_acquire(&self, me: usize, id: u64) -> bool {
        if std::thread::panicking() {
            return true;
        }
        let g = self.entry(me, "lock.try", id);
        let mut g = self.advance(g, me);
        if let std::collections::hash_map::Entry::Vacant(e) = g.lock_owner.entry(id) {
            e.insert(me);
            true
        } else {
            false
        }
    }

    /// Releases shim lock `id`. Quiet by design: releasing is not a decision
    /// point (the releasing thread's next shim operation is), and it must be
    /// panic-free so guards can drop during unwinding.
    pub(crate) fn lock_release(&self, me: usize, id: u64) {
        let mut g = self.lock();
        // Once the execution aborts, every parked thread unwinds
        // concurrently — their guard-drop releases interleave in real time,
        // so recording them would make the trace digest racy. Teardown is
        // not part of the schedule; keep it out of the trace.
        if !g.aborting {
            let steps = g.steps;
            g.trace.push(steps, me, "lock.release", id);
        }
        if g.lock_owner.get(&id) == Some(&me) {
            g.lock_owner.remove(&id);
        }
        for slot in &mut g.threads {
            if slot.state == TState::Blocked(Waiting::Lock(id)) {
                slot.state = TState::Runnable;
            }
        }
    }

    /// Releases `lock_id`, parks on `cond_id` (as a timed waiter when
    /// `timed`), and reacquires the lock before returning. The release and
    /// the enqueue are atomic in model time — a *correct* condvar has no
    /// lost-wakeup window; models that want one must build it themselves.
    /// Returns true when the wake was a timeout firing.
    pub(crate) fn cond_wait(&self, me: usize, cond_id: u64, lock_id: u64, timed: bool) -> bool {
        if std::thread::panicking() {
            return false;
        }
        let label = if timed {
            "cond.wait_timed"
        } else {
            "cond.wait"
        };
        let mut g = self.entry(me, label, cond_id);
        if g.lock_owner.get(&lock_id) == Some(&me) {
            g.lock_owner.remove(&lock_id);
        }
        for slot in &mut g.threads {
            if slot.state == TState::Blocked(Waiting::Lock(lock_id)) {
                slot.state = TState::Runnable;
            }
        }
        g.cond_queue.entry(cond_id).or_default().push_back(me);
        let seq = g.next_block_seq;
        g.next_block_seq += 1;
        {
            let slot = &mut g.threads[me];
            slot.state = TState::Blocked(Waiting::Cond(cond_id));
            slot.timed = timed;
            slot.timeout_fired = false;
            slot.block_seq = seq;
        }
        g = self.advance(g, me);
        let fired = {
            let slot = &mut g.threads[me];
            slot.timed = false;
            std::mem::take(&mut slot.timeout_fired)
        };
        drop(g);
        self.lock_acquire(me, lock_id);
        fired
    }

    /// Notifies one (FIFO) or all waiters of shim condvar `cond_id`.
    pub(crate) fn cond_notify(&self, me: usize, cond_id: u64, all: bool) {
        if std::thread::panicking() {
            return;
        }
        let label = if all {
            "cond.notify_all"
        } else {
            "cond.notify"
        };
        let mut g = self.entry(me, label, cond_id);
        let queue = g.cond_queue.entry(cond_id).or_default();
        let woken: Vec<usize> = if all {
            queue.drain(..).collect()
        } else {
            queue.pop_front().into_iter().collect()
        };
        for t in woken {
            let steps = g.steps;
            g.trace.push(steps, t, "cond.wake", cond_id);
            let slot = &mut g.threads[t];
            slot.state = TState::Runnable;
            slot.timed = false;
        }
        drop(self.advance(g, me));
    }

    /// Blocks until model thread `target` finishes.
    pub(crate) fn join_thread(&self, me: usize, target: usize) {
        if std::thread::panicking() {
            return;
        }
        let mut g = self.entry(me, "join", target as u64);
        if g.threads[target].state != TState::Finished {
            let seq = g.next_block_seq;
            g.next_block_seq += 1;
            let slot = &mut g.threads[me];
            slot.state = TState::Blocked(Waiting::Join(target));
            slot.block_seq = seq;
        }
        drop(self.advance(g, me));
    }

    // ---- thread lifecycle -----------------------------------------------

    /// Registers and starts a model thread running `f`. `parent` is `None`
    /// only for the root thread (spawned by the explorer, which is not a
    /// model thread). Returns the model thread id, the result slot, and the
    /// backing OS thread's handle.
    pub(crate) fn spawn_thread<T, F>(
        &self,
        parent: Option<usize>,
        f: F,
    ) -> (usize, ResultSlot<T>, std::thread::JoinHandle<()>)
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let id = {
            let mut g = self.lock();
            if parent.is_some() && g.aborting {
                drop(g);
                std::panic::panic_any(SchedAbort);
            }
            let id = g.threads.len();
            assert!(
                id < g.max_threads,
                "syscheck: model exceeded max_threads ({})",
                g.max_threads
            );
            g.threads.push(ThreadSlot {
                state: TState::Runnable,
                timed: false,
                timeout_fired: false,
                block_seq: 0,
            });
            g.live += 1;
            id
        };
        let slot = Arc::new(StdMutex::new(None));
        let slot2 = Arc::clone(&slot);
        let rt = self.clone();
        let os = std::thread::Builder::new()
            .name(format!("syscheck-t{id}"))
            .spawn(move || {
                CURRENT.with(|c| *c.borrow_mut() = Some((rt.clone(), id)));
                let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    rt.first_wait(id);
                    f()
                }));
                let panic_msg = match &res {
                    Ok(_) => None,
                    Err(e) if e.is::<SchedAbort>() => None,
                    Err(e) => Some(payload_message(e.as_ref())),
                };
                *slot2.lock().unwrap_or_else(PoisonError::into_inner) = Some(res);
                rt.finish_thread(id, panic_msg);
                CURRENT.with(|c| *c.borrow_mut() = None);
            })
            .expect("spawn model thread");
        // Spawning is itself a decision point: the child may run first.
        if let Some(me) = parent {
            self.yield_point(me, "spawn", id as u64);
        }
        (id, slot, os)
    }

    /// Parks a freshly spawned thread until it is first scheduled.
    fn first_wait(&self, me: usize) {
        let g = self.lock();
        drop(self.wait_active(g, me));
    }

    /// Marks `me` finished, wakes joiners, and hands the token on (or ends
    /// the execution when `me` was the last live thread).
    fn finish_thread(&self, me: usize, panic_msg: Option<String>) {
        let mut g = self.lock();
        if let Some(msg) = panic_msg {
            if !g.aborting {
                let steps = g.steps;
                g.trace.push(steps, me, "panic", 0);
            }
            if g.failure.is_none() {
                g.failure = Some((FailureKind::Panic, msg));
            }
            g.aborting = true;
        }
        // Same reasoning as in `lock_release`: threads exiting during an
        // abort race each other in real time, so their exits are untraced.
        if !g.aborting {
            let steps = g.steps;
            g.trace.push(steps, me, "finish", 0);
        }
        g.threads[me].state = TState::Finished;
        g.live -= 1;
        for slot in &mut g.threads {
            if slot.state == TState::Blocked(Waiting::Join(me)) {
                slot.state = TState::Runnable;
            }
        }
        if g.live == 0 {
            g.done = true;
            self.0.cv.notify_all();
            return;
        }
        if g.aborting {
            // Parked threads wake, observe `aborting`, and unwind themselves;
            // the last one out sets `done`.
            self.0.cv.notify_all();
            return;
        }
        match Self::decide(&mut g, me) {
            Decide::Chosen(_) => self.0.cv.notify_all(),
            Decide::Deadlock(msg) => self.fail_locked(&mut g, FailureKind::Deadlock, msg),
            Decide::Budget => {
                let msg = format!("step budget exceeded ({} decisions)", g.steps);
                self.fail_locked(&mut g, FailureKind::StepBudget, msg);
            }
        }
    }

    /// Blocks the explorer until the execution finishes (all threads done).
    pub(crate) fn wait_done(&self) {
        let mut g = self.lock();
        while !g.done {
            g = self.0.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Extracts the execution's results. Call after [`Runtime::wait_done`].
    pub(crate) fn harvest(&self) -> Harvest {
        let mut g = self.lock();
        Harvest {
            chooser: std::mem::replace(&mut g.chooser, Chooser::Random(SplitMix64::new(0))),
            decisions: std::mem::take(&mut g.decisions),
            trace: std::mem::take(&mut g.trace),
            failure: g.failure.take(),
            preemptions: g.preemptions,
        }
    }
}

/// Best-effort rendering of a panic payload.
fn payload_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "model panicked with a non-string payload".to_string()
    }
}

/// Maps a std `TryLockError` guard through, preserving poison state.
pub(crate) fn relock<T: ?Sized>(m: &StdMutex<T>) -> StdMutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Non-blocking std lock that tolerates poison (checked mode only; the
/// runtime's ownership protocol guarantees the lock is actually free).
pub(crate) fn try_relock<T: ?Sized>(m: &StdMutex<T>) -> Option<StdMutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}
