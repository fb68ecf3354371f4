//! # sysfault — deterministic, seedable fault injection
//!
//! The paper's systems-code checklist is dominated by *failure*: kernels must
//! keep their invariants when allocation fails, messages vanish, and
//! transactions abort. Testing those paths by hand is hopeless — they are the
//! paths nobody exercises — so this crate makes failure a first-class,
//! *reproducible* input:
//!
//! * a [`FaultPlan`] names injection sites (`"kernel.ipc.drop"`,
//!   `"mem.oom"`, `"stm.abort"`, ...) and gives each a [`Schedule`] —
//!   every-Nth call, per-call probability, or one-shot at call K — under a
//!   single 64-bit seed;
//! * a [`FaultInjector`] evaluates the plan call by call. Each site draws
//!   from its **own** PRNG stream, seeded by `plan.seed ^ fnv(site name)`,
//!   so whether site A fires never depends on how often site B was
//!   consulted — replays are byte-for-byte identical even if unrelated
//!   subsystems interleave differently;
//! * a [`FaultLog`] records every fault that fired (site, per-site call
//!   number, global sequence number) and digests to a single `u64`, so a
//!   failing campaign is reproduced by re-running the same plan and comparing
//!   digests;
//! * [`shrink::minimize`] reduces a failing plan to a minimal one that still
//!   fails — the fault-injection analogue of property-test shrinking.
//!
//! [`SharedInjector`] wraps an injector in `Arc<Mutex<..>>` for the
//! concurrency substrate, where multiple threads consult the same plan.
//!
//! ```
//! use sysfault::{FaultPlan, FaultInjector, Schedule};
//!
//! let plan = FaultPlan::new(42)
//!     .with_site("mem.oom", Schedule::EveryNth(3))
//!     .with_site("kernel.ipc.drop", Schedule::Probability(0.5));
//! let mut inj = FaultInjector::new(plan.clone());
//! let fired: Vec<bool> = (0..6).map(|_| inj.should_fail("mem.oom")).collect();
//! assert_eq!(fired, vec![false, false, true, false, false, true]);
//!
//! // Same plan, fresh injector: identical log digest. Always.
//! let mut replay = FaultInjector::new(plan);
//! for _ in 0..6 { replay.should_fail("mem.oom"); }
//! assert_eq!(inj.log().digest(), replay.log().digest());
//! ```

pub mod shrink;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use sysobs::{fnv_fold, FNV_OFFSET};

/// FNV-1a hash of a byte string; used to derive per-site seeds and log
/// digests. Stable across platforms and runs by construction. The
/// implementation lives in `sysobs` (one copy for fault digests, flow
/// hashing, and trace shape digests); re-exported here so existing callers
/// keep their import path.
pub use sysobs::fnv1a;

/// SplitMix64: tiny, fast, well-distributed PRNG. One per fault site; the
/// concurrency checker's random schedules, the scenario engine's probe
/// addresses and the fuzzer's mutations draw from it too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream starting from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform f64 in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// When a fault site fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Fires on the Nth, 2Nth, 3Nth... consultation of the site (1-based).
    /// `EveryNth(1)` fires always; `EveryNth(0)` never fires.
    EveryNth(u64),
    /// Fires with probability `p` per consultation, drawn from the site's
    /// private PRNG stream. Clamped to [0, 1].
    Probability(f64),
    /// Fires exactly once, on consultation number K (1-based).
    OneShotAt(u64),
}

impl Schedule {
    /// Rate as a rough per-call probability, used only for display.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Schedule::EveryNth(0) => "never".to_string(),
            Schedule::EveryNth(n) => format!("every {n}th call"),
            Schedule::Probability(p) => format!("p={p}"),
            Schedule::OneShotAt(k) => format!("once at call {k}"),
        }
    }
}

/// A complete, seeded fault campaign: which sites fail, and on what schedule.
///
/// Plans are *values*: cloneable, comparable, printable. A failing campaign
/// is its plan; re-running the plan reproduces the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed. Each site derives its stream as `seed ^ fnv(site)`.
    pub seed: u64,
    sites: BTreeMap<String, Schedule>,
}

impl FaultPlan {
    /// An empty plan (no sites, nothing ever fires) under `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            sites: BTreeMap::new(),
        }
    }

    /// Builder: adds or replaces a site schedule.
    #[must_use]
    pub fn with_site(mut self, site: impl Into<String>, schedule: Schedule) -> Self {
        self.sites.insert(site.into(), schedule);
        self
    }

    /// Adds or replaces a site schedule in place.
    pub fn set_site(&mut self, site: impl Into<String>, schedule: Schedule) {
        self.sites.insert(site.into(), schedule);
    }

    /// Removes a site; returns its schedule if it was present.
    pub fn remove_site(&mut self, site: &str) -> Option<Schedule> {
        self.sites.remove(site)
    }

    /// The schedule for `site`, if any.
    #[must_use]
    pub fn site(&self, site: &str) -> Option<&Schedule> {
        self.sites.get(site)
    }

    /// Iterates sites in deterministic (lexicographic) order.
    pub fn sites(&self) -> impl Iterator<Item = (&str, &Schedule)> {
        self.sites.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of scheduled sites.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True if no site is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan(seed={:#x}", self.seed)?;
        for (name, sched) in &self.sites {
            write!(f, ", {name}: {}", sched.describe())?;
        }
        write!(f, ")")
    }
}

/// One fault that fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Site name.
    pub site: String,
    /// 1-based consultation number *of that site* at which it fired.
    pub site_call: u64,
    /// Global sequence number across all sites (0-based injection order).
    pub seq: u64,
}

/// Ordered record of every fault that fired during a campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    records: Vec<FaultRecord>,
}

impl FaultLog {
    /// Number of faults fired.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing fired.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates records in firing order.
    pub fn iter(&self) -> impl Iterator<Item = &FaultRecord> {
        self.records.iter()
    }

    /// Order-sensitive digest of the whole log. Two campaigns with equal
    /// digests fired the same faults at the same points.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.records.iter().fold(FNV_OFFSET, |h, r| {
            let h = fnv_fold(h, fnv1a(r.site.as_bytes()));
            fnv_fold(fnv_fold(h, r.site_call), r.seq)
        })
    }

    fn push(&mut self, site: &str, site_call: u64) {
        let seq = self.records.len() as u64;
        self.records.push(FaultRecord {
            site: site.to_string(),
            site_call,
            seq,
        });
    }
}

/// Publishes `digest` as the *active* campaign digest in the `sysobs`
/// registry (gauge `fault.active_digest`, digest bits stored as `i64`):
/// the link between a live incident and the fault plan that provoked it.
/// A trigger-engine poll loop reads this back with [`active_digest`] and
/// stamps it into every postmortem it captures, making the incident
/// replayable from its plan. Publish 0 (or call with the final digest) at
/// campaign end.
pub fn publish_active_digest(digest: u64) {
    #[allow(clippy::cast_possible_wrap)]
    sysobs::registry()
        .gauge("fault.active_digest")
        .set(digest as i64);
}

/// The published campaign digest, or `None` when no campaign has announced
/// itself (gauge absent or zero).
#[must_use]
pub fn active_digest() -> Option<u64> {
    #[allow(clippy::cast_sign_loss)]
    let d = sysobs::registry().gauge("fault.active_digest").get() as u64;
    (d != 0).then_some(d)
}

#[derive(Debug)]
struct SiteState {
    schedule: Schedule,
    rng: SplitMix64,
    calls: u64,
}

/// Evaluates a [`FaultPlan`] one consultation at a time.
///
/// Each instrumented operation asks `should_fail("site.name")` exactly once;
/// the injector answers from the site's schedule and private PRNG stream and
/// records every `true` in the [`FaultLog`].
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    sites: BTreeMap<String, SiteState>,
    log: FaultLog,
}

impl FaultInjector {
    /// Builds an injector for `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        let sites = plan
            .sites()
            .map(|(name, sched)| {
                let state = SiteState {
                    schedule: *sched,
                    rng: SplitMix64::new(plan.seed ^ fnv1a(name.as_bytes())),
                    calls: 0,
                };
                (name.to_string(), state)
            })
            .collect();
        FaultInjector {
            plan,
            sites,
            log: FaultLog::default(),
        }
    }

    /// An injector that never fires (empty plan). The zero-cost default for
    /// production paths.
    #[must_use]
    pub fn disabled() -> Self {
        FaultInjector::new(FaultPlan::new(0))
    }

    /// Consults `site`: should the current operation fail?
    ///
    /// Sites absent from the plan never fail (and are not counted), so
    /// instrumented code needs no configuration to run fault-free.
    pub fn should_fail(&mut self, site: &str) -> bool {
        let Some(state) = self.sites.get_mut(site) else {
            return false;
        };
        state.calls += 1;
        let fire = match state.schedule {
            Schedule::EveryNth(0) => false,
            Schedule::EveryNth(n) => state.calls % n == 0,
            Schedule::Probability(p) => state.rng.next_f64() < p.clamp(0.0, 1.0),
            Schedule::OneShotAt(k) => state.calls == k,
        };
        if fire {
            self.log.push(site, state.calls);
            // Mirror the firing into the observability layer: a counter for
            // the metrics snapshot, and (under full tracing) an instant
            // event named after the site so a flight-recorder dump lines up
            // with the FaultLog record by (site, site_call).
            sysobs::obs_count!("fault.fired", 1);
            if sysobs::tracing_on() {
                sysobs::instant_dynamic(&format!("fault.fired.{site}"), state.calls);
            }
        }
        fire
    }

    /// The plan this injector is executing.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Everything that has fired so far.
    #[must_use]
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// Total consultations of `site` so far (fired or not).
    #[must_use]
    pub fn calls(&self, site: &str) -> u64 {
        self.sites.get(site).map_or(0, |s| s.calls)
    }
}

/// A cloneable, thread-safe handle to a [`FaultInjector`].
///
/// The concurrency substrate consults one plan from many threads; the kernel
/// holds one of these too so a single campaign spans all three runtime
/// crates.
#[derive(Debug, Clone)]
pub struct SharedInjector {
    inner: Arc<Mutex<FaultInjector>>,
}

impl SharedInjector {
    /// Wraps a plan for shared use.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        SharedInjector {
            inner: Arc::new(Mutex::new(FaultInjector::new(plan))),
        }
    }

    /// A shared injector that never fires.
    #[must_use]
    pub fn disabled() -> Self {
        SharedInjector {
            inner: Arc::new(Mutex::new(FaultInjector::disabled())),
        }
    }

    /// Consults `site` under the lock.
    pub fn should_fail(&self, site: &str) -> bool {
        self.lock().should_fail(site)
    }

    /// Snapshot of the fault log.
    #[must_use]
    pub fn log_snapshot(&self) -> FaultLog {
        self.lock().log().clone()
    }

    /// Digest of the log so far.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.lock().log().digest()
    }

    /// Number of faults fired so far.
    #[must_use]
    pub fn faults_fired(&self) -> usize {
        self.lock().log().len()
    }

    /// Runs `f` with the locked injector (for compound queries).
    pub fn with<R>(&self, f: impl FnOnce(&mut FaultInjector) -> R) -> R {
        f(&mut self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultInjector> {
        // A panic while holding the lock poisons it; the injector state is
        // still internally consistent (every mutation is a single push), so
        // recover the guard rather than propagate the panic.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_nth_fires_periodically() {
        let plan = FaultPlan::new(1).with_site("s", Schedule::EveryNth(4));
        let mut inj = FaultInjector::new(plan);
        let fired: Vec<bool> = (0..8).map(|_| inj.should_fail("s")).collect();
        assert_eq!(
            fired,
            vec![false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn every_zero_never_fires() {
        let mut inj = FaultInjector::new(FaultPlan::new(1).with_site("s", Schedule::EveryNth(0)));
        assert!((0..100).all(|_| !inj.should_fail("s")));
    }

    #[test]
    fn one_shot_fires_exactly_once() {
        let mut inj = FaultInjector::new(FaultPlan::new(1).with_site("s", Schedule::OneShotAt(3)));
        let fired: Vec<bool> = (0..6).map(|_| inj.should_fail("s")).collect();
        assert_eq!(fired.iter().filter(|&&b| b).count(), 1);
        assert!(fired[2]);
    }

    #[test]
    fn probability_rate_is_roughly_honoured() {
        let mut inj =
            FaultInjector::new(FaultPlan::new(7).with_site("s", Schedule::Probability(0.25)));
        let n = 10_000;
        let fired = (0..n).filter(|_| inj.should_fail("s")).count();
        let rate = fired as f64 / f64::from(n);
        assert!((rate - 0.25).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn unknown_sites_never_fail() {
        let mut inj = FaultInjector::disabled();
        assert!(!inj.should_fail("anything"));
        assert!(inj.log().is_empty());
    }

    #[test]
    fn same_seed_same_log_digest() {
        let plan = FaultPlan::new(0xDECAF)
            .with_site("a", Schedule::Probability(0.3))
            .with_site("b", Schedule::EveryNth(7));
        let run = |plan: FaultPlan| {
            let mut inj = FaultInjector::new(plan);
            for i in 0..500 {
                inj.should_fail(if i % 3 == 0 { "b" } else { "a" });
            }
            inj.log().digest()
        };
        assert_eq!(run(plan.clone()), run(plan));
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| FaultPlan::new(seed).with_site("a", Schedule::Probability(0.5));
        let run = |plan: FaultPlan| {
            let mut inj = FaultInjector::new(plan);
            (0..64).map(|_| inj.should_fail("a")).collect::<Vec<_>>()
        };
        assert_ne!(run(mk(1)), run(mk(2)));
    }

    #[test]
    fn site_streams_are_independent_of_interleaving() {
        // Consulting site B more or fewer times must not change site A's
        // decisions — the property that makes replay interleaving-proof.
        let plan = FaultPlan::new(99)
            .with_site("a", Schedule::Probability(0.5))
            .with_site("b", Schedule::Probability(0.5));
        let mut lone = FaultInjector::new(plan.clone());
        let solo: Vec<bool> = (0..32).map(|_| lone.should_fail("a")).collect();
        let mut mixed = FaultInjector::new(plan);
        let interleaved: Vec<bool> = (0..32)
            .map(|_| {
                mixed.should_fail("b");
                mixed.should_fail("b");
                mixed.should_fail("a")
            })
            .collect();
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn log_records_site_call_and_seq() {
        let plan = FaultPlan::new(1).with_site("x", Schedule::EveryNth(2));
        let mut inj = FaultInjector::new(plan);
        for _ in 0..4 {
            inj.should_fail("x");
        }
        let recs: Vec<_> = inj.log().iter().cloned().collect();
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].site_call, recs[0].seq), (2, 0));
        assert_eq!((recs[1].site_call, recs[1].seq), (4, 1));
    }

    #[test]
    fn shared_injector_is_usable_across_threads() {
        let shared = SharedInjector::new(FaultPlan::new(5).with_site("s", Schedule::EveryNth(10)));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = shared.clone();
                scope.spawn(move || {
                    for _ in 0..250 {
                        s.should_fail("s");
                    }
                });
            }
        });
        // 1000 consultations at every-10th = exactly 100 fires, regardless
        // of thread interleaving (the counter is under the lock).
        assert_eq!(shared.faults_fired(), 100);
    }

    #[test]
    fn plan_display_names_sites() {
        let plan = FaultPlan::new(2).with_site("mem.oom", Schedule::EveryNth(3));
        let s = plan.to_string();
        assert!(s.contains("mem.oom"), "{s}");
        assert!(s.contains("every 3th call"), "{s}");
    }
}
