//! # syscheck — deterministic concurrency model checking
//!
//! The paper's Challenge 4 ("managing shared state") is only half answered
//! by building lock, STM, and channel substrates — the other half is
//! *knowing they are right*, and real-thread stress tests only prove a bug
//! exists when the OS scheduler feels like exposing it. This crate makes
//! interleavings an enumerable input, in the mold of loom and CHESS:
//!
//! * [`shim`] — drop-in `std::sync` / `std::thread` replacements that cost
//!   one relaxed load in normal builds and become scheduling decision points
//!   under a checker runtime;
//! * [`explore`] — bounded-exhaustive DFS over the schedule tree with a
//!   preemption bound (small models: every schedule, certainty);
//! * [`explore_random`] — seeded-random schedules (large models: coverage
//!   with a recorded `u64` seed per schedule);
//! * [`replay_seed`] / [`replay_choices`] — byte-for-byte reproduction of a
//!   failing schedule from its seed or its recorded decision list;
//! * [`shrink::shrink_failure`] — minimizes a failing schedule to the few
//!   preemptions that matter, by driving `sysfault::shrink::minimize` over
//!   plans whose fault sites *are* preemptions;
//! * failures carry an obs-style event [`trace::Trace`] of the schedule.
//!
//! The model is sequential consistency: one thread runs at a time and every
//! shimmed operation is a potential switch point. Weak-memory reorderings
//! are out of scope (orderings are recorded, not modeled) — the bugs this
//! repo cares about (torn invariants, lost wakeups, deadlocks, two-phase
//! locking races) are all SC-visible.
//!
//! ```
//! use syscheck::{explore, Config};
//! use syscheck::shim::{spawn, Mutex};
//! use std::sync::Arc;
//!
//! let ex = explore(&Config::default(), || {
//!     let total = Arc::new(Mutex::new(0u64));
//!     let t = {
//!         let total = Arc::clone(&total);
//!         spawn(move || *total.lock().unwrap() += 1)
//!     };
//!     *total.lock().unwrap() += 1;
//!     t.join().unwrap();
//!     let v = *total.lock().unwrap();
//!     assert_eq!(v, 2);
//!     v // terminal-state digest
//! });
//! assert!(ex.failure.is_none());
//! assert!(ex.complete);
//! ```

pub mod shim;
pub mod shrink;
pub mod trace;

mod rt;

use rt::Chooser;
use std::collections::HashSet;
use std::sync::Arc;
use sysfault::SplitMix64;
use trace::Trace;

/// Exploration limits and bounds.
#[derive(Debug, Clone)]
pub struct Config {
    /// DFS preemption bound: schedules may switch away from a runnable
    /// thread at most this many times. 2 finds most real bugs (CHESS's
    /// observation) while keeping small models exhaustively checkable.
    pub preemption_bound: u32,
    /// Per-execution decision budget; exceeding it is a failure (a live
    /// lock or runaway model, not a checker limit to tune around).
    pub max_steps: u64,
    /// Schedule budget for one exploration.
    pub max_schedules: u64,
    /// Model-thread cap per execution.
    pub max_threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemption_bound: 2,
            max_steps: 20_000,
            max_schedules: 10_000,
            max_threads: 8,
        }
    }
}

/// Why a schedule failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A model thread panicked (assertion failure).
    Panic,
    /// No thread could run: every live thread was blocked with no timed
    /// waiter left to fire. Lost wakeups land here.
    Deadlock,
    /// The execution exceeded [`Config::max_steps`] decisions.
    StepBudget,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FailureKind::Panic => "panic",
            FailureKind::Deadlock => "deadlock",
            FailureKind::StepBudget => "step-budget",
        })
    }
}

/// A failing schedule, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// What went wrong.
    pub kind: FailureKind,
    /// Panic message or deadlock description.
    pub message: String,
    /// The schedule's seed when found by [`explore_random`]; replay it with
    /// [`replay_seed`].
    pub seed: Option<u64>,
    /// The decision list (thread id per step); replay it with
    /// [`replay_choices`] — this works for DFS-found failures too.
    pub choices: Vec<usize>,
    /// Preemptions the failing schedule used.
    pub preemptions: u32,
    /// Obs-style event log of the failing schedule.
    pub trace: Trace,
}

/// Result of one exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Schedules executed.
    pub schedules: u64,
    /// Distinct terminal-state digests observed across passing schedules
    /// (the model closure's return value).
    pub distinct_states: usize,
    /// First failing schedule, if any (exploration stops there).
    pub failure: Option<Failure>,
    /// True when DFS exhausted the (bounded) schedule tree.
    pub complete: bool,
}

/// Result of replaying a single schedule.
#[derive(Debug, Clone)]
pub struct Report {
    /// The failure this schedule produces, if any.
    pub failure: Option<Failure>,
    /// Event log of the replayed schedule (also inside `failure`, when set).
    pub trace: Trace,
    /// Terminal-state digest (absent when the schedule failed).
    pub digest: Option<u64>,
    /// Preemptions the schedule used.
    pub preemptions: u32,
}

pub(crate) struct RunOut {
    pub chooser: Chooser,
    pub decisions: Vec<rt::Decision>,
    pub trace: Trace,
    pub digest: Option<u64>,
    pub failure: Option<(FailureKind, String)>,
    pub preemptions: u32,
}

/// Silences the default panic hook on checker-owned threads. Exploration
/// *expects* panics — every failing schedule panics once while the search
/// runs, and shrinking replays the failure dozens of times — so the stock
/// hook would flood stderr with backtraces for failures the checker already
/// captures (message, trace, and schedule all land in [`Failure`]). Panics
/// on the caller's own threads keep the previous hook untouched.
fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let checker_thread = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("syscheck-t"));
            if !checker_thread {
                prev(info);
            }
        }));
    });
}

/// Runs the model once under `chooser`.
pub(crate) fn run_once<F>(cfg: &Config, chooser: Chooser, f: Arc<F>) -> RunOut
where
    F: Fn() -> u64 + Send + Sync + 'static,
{
    assert!(
        rt::current().is_none(),
        "syscheck explorations cannot nest inside a model"
    );
    install_quiet_panic_hook();
    let rtm = rt::Runtime::new(cfg, chooser);
    let model = move || f();
    let (_, slot, os) = rtm.spawn_thread(None, model);
    rtm.wait_done();
    let _ = os.join();
    let digest = slot
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take()
        .and_then(std::result::Result::ok);
    let h = rtm.harvest();
    RunOut {
        chooser: h.chooser,
        decisions: h.decisions,
        trace: h.trace,
        digest,
        failure: h.failure,
        preemptions: h.preemptions,
    }
}

fn failure_from(out: &RunOut, seed: Option<u64>) -> Option<Failure> {
    out.failure.as_ref().map(|(kind, message)| Failure {
        kind: *kind,
        message: message.clone(),
        seed,
        choices: out.decisions.iter().map(|d| d.chosen).collect(),
        preemptions: out.preemptions,
        trace: out.trace.clone(),
    })
}

/// Bounded-exhaustive DFS over the model's schedule tree.
///
/// The model closure runs once per schedule and must be deterministic up to
/// scheduling; its `u64` return value is a terminal-state digest, counted
/// into [`Exploration::distinct_states`]. Exploration stops at the first
/// failing schedule.
pub fn explore<F>(cfg: &Config, f: F) -> Exploration
where
    F: Fn() -> u64 + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut path: Vec<rt::DfsNode> = Vec::new();
    let mut schedules = 0u64;
    let mut distinct = HashSet::new();
    loop {
        let out = run_once(
            cfg,
            Chooser::Dfs {
                path,
                cursor: 0,
                bound: cfg.preemption_bound,
            },
            Arc::clone(&f),
        );
        schedules += 1;
        if out.failure.is_some() {
            let failure = failure_from(&out, None);
            return Exploration {
                schedules,
                distinct_states: distinct.len(),
                failure,
                complete: false,
            };
        }
        if let Some(d) = out.digest {
            distinct.insert(d);
        }
        let Chooser::Dfs { path: p, .. } = out.chooser else {
            unreachable!("DFS runs return DFS choosers")
        };
        path = p;
        // Backtrack to the next unexplored branch; empty path = done.
        loop {
            match path.last_mut() {
                None => {
                    return Exploration {
                        schedules,
                        distinct_states: distinct.len(),
                        failure: None,
                        complete: true,
                    }
                }
                Some(n) => {
                    n.idx += 1;
                    if n.idx < n.n_options {
                        break;
                    }
                    path.pop();
                }
            }
        }
        if schedules >= cfg.max_schedules {
            return Exploration {
                schedules,
                distinct_states: distinct.len(),
                failure: None,
                complete: false,
            };
        }
    }
}

/// Seeded-random schedules: runs up to [`Config::max_schedules`] schedules,
/// each driven by a fresh seed derived from `base_seed`. A failure records
/// the *specific* schedule's seed, so `replay_seed(cfg, failure.seed, f)`
/// reproduces it exactly.
pub fn explore_random<F>(cfg: &Config, base_seed: u64, f: F) -> Exploration
where
    F: Fn() -> u64 + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut sm = SplitMix64::new(base_seed);
    let mut distinct = HashSet::new();
    for k in 0..cfg.max_schedules {
        let seed = sm.next_u64();
        let out = run_once(cfg, Chooser::Random(SplitMix64::new(seed)), Arc::clone(&f));
        if out.failure.is_some() {
            let failure = failure_from(&out, Some(seed));
            return Exploration {
                schedules: k + 1,
                distinct_states: distinct.len(),
                failure,
                complete: false,
            };
        }
        if let Some(d) = out.digest {
            distinct.insert(d);
        }
    }
    Exploration {
        schedules: cfg.max_schedules,
        distinct_states: distinct.len(),
        failure: None,
        complete: false,
    }
}

/// Replays the single schedule a seed denotes (the schedule
/// [`explore_random`] ran with that seed).
pub fn replay_seed<F>(cfg: &Config, seed: u64, f: F) -> Report
where
    F: Fn() -> u64 + Send + Sync + 'static,
{
    let out = run_once(cfg, Chooser::Random(SplitMix64::new(seed)), Arc::new(f));
    Report {
        failure: failure_from(&out, Some(seed)),
        digest: out.digest,
        preemptions: out.preemptions,
        trace: out.trace,
    }
}

/// Replays a recorded decision list ([`Failure::choices`]). Invalid or
/// missing choices fall back to the default policy, so shrunken lists stay
/// replayable.
pub fn replay_choices<F>(cfg: &Config, choices: &[usize], f: F) -> Report
where
    F: Fn() -> u64 + Send + Sync + 'static,
{
    let out = run_once(
        cfg,
        Chooser::Fixed {
            choices: choices.to_vec(),
            cursor: 0,
        },
        Arc::new(f),
    );
    Report {
        failure: failure_from(&out, None),
        digest: out.digest,
        preemptions: out.preemptions,
        trace: out.trace,
    }
}

/// Convenience assertion wrapper: exhaustively explores `f` under the
/// default config and panics with the rendered schedule trace when any
/// schedule fails.
///
/// # Panics
///
/// Panics when a failing schedule is found.
pub fn check<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let ex = explore(&Config::default(), move || {
        f();
        0
    });
    if let Some(failure) = ex.failure {
        panic!(
            "syscheck found a failing schedule ({}): {}\nschedule trace:\n{}",
            failure.kind,
            failure.message,
            failure.trace.render()
        );
    }
}
