//! E15 — lock-free route updates: copy-on-write epoch publication under
//! live route-flap churn.
//!
//! The paper's Challenge 4 case study, round two. PR 7 left route tables
//! frozen at router start; real control planes flap routes constantly, and
//! the obvious fix — one mutex over the trie, locked by every worker for
//! every batch — is exactly the "lock the world" answer Shapiro's systems
//! programmers reject. The epoch answer (`sysmem::epoch` + the COW trie in
//! `sysnet::cowtrie`) lets writers clone an O(depth) spine and swap one
//! atomic root pointer while readers pay zero synchronization per lookup.
//!
//! Three sections in one table:
//!
//! * **churn** — the full synthetic stream forwarded while an updater
//!   thread flaps a route at a target rate, each rate against the
//!   zero-churn run. The flapped prefix is outside every measured flow, so
//!   every rate routes identical packets and only the publication cost
//!   differs. Invalidation misses show each publication's cache-nuke cost
//!   explicitly.
//! * **visibility** — publish → first-observation latency of a fresh epoch
//!   pin against the COW root.
//! * **models** — the reclamation protocol under `syscheck`: the safe
//!   three-epoch domain verifies exhaustively at preemption bound 2, the
//!   seeded off-by-one (`Domain::new_with_premature_reclaim_bug`) is
//!   rediscovered and shrunk, and COW publication is proven visible to the
//!   next pinned read. The same models run as tier-1 tests in
//!   `crates/mem/tests/epoch_model.rs` and `crates/net/tests/cowtrie_model.rs`.
//!
//! The mutex-guarded trie that used to run beside the COW table as an A/B
//! arm is retired: on a one-core host a mutex taken once per batch is never
//! contended, so the arm could not show the difference it was kept for.
//! The claim rests on the zero-churn ratio and on the exhaustive models.

use super::{fmt_ns, fmt_rate, Scale, Table};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use syscheck::shim::{AtomicBool, AtomicUsize};
use syscheck::{explore, shrink, Config};
use sysmem::epoch::Domain;
use sysnet::bench::{run_churn_sweep, update_visibility, SweepConfig, FLAP_LEN, FLAP_PREFIX};
use sysnet::{CowRouteTable, Routes as _};

/// One reader races one writer over a two-slot canary "structure"; the
/// collect sink "frees" by clearing a shim-atomic alive flag, so a
/// premature reclamation shows up as an assertion instead of real UB.
/// Same model as `crates/mem/tests/epoch_model.rs`.
fn reclaim_model(domain: &Arc<Domain<usize>>) -> u64 {
    let alive = Arc::new([AtomicBool::new(true), AtomicBool::new(true)]);
    let current = Arc::new(AtomicUsize::new(0));
    let handle = domain.register();

    let (a, c) = (Arc::clone(&alive), Arc::clone(&current));
    let reader = syscheck::shim::spawn(move || {
        let guard = handle.pin();
        let i = c.load(Ordering::SeqCst);
        assert!(
            a[i].load(Ordering::SeqCst),
            "pinned reader dereferenced a reclaimed canary (slot {i})"
        );
        drop(guard);
    });

    let unlinked = current.swap(1, Ordering::SeqCst);
    domain.retire(unlinked);
    let mut freed = domain.collect(|i| alive[i].store(false, Ordering::SeqCst));
    reader.join().unwrap();
    for _ in 0..2 {
        freed += domain.collect(|i| alive[i].store(false, Ordering::SeqCst));
    }
    assert_eq!(freed, 1, "exactly the unlinked canary is reclaimed");
    u64::from(alive[0].load(Ordering::SeqCst)) << 1 | u64::from(alive[1].load(Ordering::SeqCst))
}

fn safe_epoch_model() -> u64 {
    reclaim_model(&Arc::new(Domain::new()))
}

fn premature_epoch_model() -> u64 {
    reclaim_model(&Arc::new(Domain::new_with_premature_reclaim_bug()))
}

/// A published COW update must be visible to the next pinned read: the
/// writer publishes then raises a shim flag; a reader that observes the
/// flag and pins afterwards must see the new hop.
fn cow_visibility_model() -> u64 {
    let table: Arc<CowRouteTable<u16>> = Arc::new(CowRouteTable::new());
    table.insert(FLAP_PREFIX, FLAP_LEN, 1).unwrap();
    let reader = table.reader();
    let published = Arc::new(AtomicBool::new(false));

    let (t, p) = (Arc::clone(&table), Arc::clone(&published));
    let writer = syscheck::shim::spawn(move || {
        t.insert(FLAP_PREFIX, FLAP_LEN, 2).unwrap();
        p.store(true, Ordering::SeqCst);
    });

    let saw = published.load(Ordering::SeqCst);
    let view = reader.pin();
    let hop = view.lookup(FLAP_PREFIX | 1);
    if saw {
        assert_eq!(hop, Some(2), "published update invisible to a later pin");
    }
    drop(view);
    writer.join().unwrap();
    u64::from(saw) << 8 | u64::from(hop.unwrap_or(0))
}

fn clean_model_row(t: &mut Table, name: &str, cfg: &Config, model: fn() -> u64) {
    let ex = explore(cfg, model);
    assert!(
        ex.failure.is_none(),
        "{name} must verify clean: {:?}",
        ex.failure
    );
    t.row(vec![
        format!("model: {name}"),
        "—".into(),
        "—".into(),
        "—".into(),
        "—".into(),
        "—".into(),
        ex.schedules.to_string(),
        if ex.complete {
            "clean (exhaustive)".into()
        } else {
            "clean (budget)".into()
        },
    ]);
}

fn bug_model_row(t: &mut Table, name: &str, cfg: &Config, model: fn() -> u64) {
    let ex = explore(cfg, model);
    let failure = ex.failure.as_ref().expect("DFS must find the seeded bug");
    let minimal = shrink::shrink_failure(cfg, failure, model);
    t.row(vec![
        format!("model: {name}"),
        "—".into(),
        "—".into(),
        "—".into(),
        "—".into(),
        "—".into(),
        ex.schedules.to_string(),
        format!(
            "found ({}), {} preempt repro",
            failure.kind,
            minimal.deviations.len()
        ),
    ]);
}

/// Runs E15 at the given scale.
///
/// # Panics
///
/// Panics if a clean model fails or the seeded bug goes unfound.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let cfg = match scale {
        Scale::Quick => SweepConfig {
            packets: 20_000,
            worker_counts: vec![2, 4],
            churn_rates: vec![0, 10_000],
            visibility_samples: 64,
            ..SweepConfig::quick()
        },
        Scale::Full => SweepConfig {
            churn_rates: vec![0, 100, 1_000, 10_000],
            visibility_samples: 512,
            ..SweepConfig::full()
        },
    };

    let mut t = Table::new(
        "E15 — route-flap churn through the cow-epoch route table",
        &[
            "case",
            "updates/s",
            "applied",
            "throughput",
            "inval misses",
            "p50 / p99",
            "schedules",
            "outcome",
        ],
    );

    let points = run_churn_sweep(&cfg);
    let baseline = points
        .iter()
        .find(|p| p.target_updates_per_sec == 0)
        .map(|p| p.pps);
    for p in &points {
        let vs_zero = baseline.map_or_else(
            || "—".into(),
            |b| format!("{:.0} % of zero-churn", 100.0 * p.pps / b.max(1.0)),
        );
        t.row(vec![
            "churn".into(),
            p.target_updates_per_sec.to_string(),
            p.updates_applied.to_string(),
            fmt_rate(p.pps),
            p.invalidation_misses.to_string(),
            "—".into(),
            "—".into(),
            vs_zero,
        ]);
    }

    if let Some(v) = update_visibility(cfg.visibility_samples) {
        t.row(vec![
            "visibility".into(),
            "—".into(),
            v.samples.to_string(),
            "—".into(),
            "—".into(),
            format!("{} / {}", fmt_ns(v.cow_p50_ns), fmt_ns(v.cow_p99_ns)),
            "—".into(),
            "publish → fresh pin".into(),
        ]);
    }

    let check = Config {
        preemption_bound: 2,
        max_schedules: 200_000,
        ..Config::default()
    };
    clean_model_row(&mut t, "epoch 3-epoch reclaim", &check, safe_epoch_model);
    bug_model_row(
        &mut t,
        "epoch off-by-one free",
        &check,
        premature_epoch_model,
    );
    clean_model_row(
        &mut t,
        "cow publish visibility",
        &check,
        cow_visibility_model,
    );

    t.note(
        "churn: the full stream forwarded while an updater thread flaps one \
         /30 next hop at the target rate; the prefix is outside every \
         measured flow, so every rate routes identical packets and only the \
         publication cost differs",
    );
    t.note(
        "inval misses = cache misses attributed to post-publication refills \
         — each publication clears the per-worker flow caches",
    );
    t.note(
        "models: preemption-bound-2 DFS over syscheck's shim scheduler; the \
         safe domain must be exhaustive and clean, the seeded premature \
         reclaim must be found and shrink to ≤ 2 forced preemptions, and a \
         COW publication must be visible to the next pinned read",
    );
    t
}
