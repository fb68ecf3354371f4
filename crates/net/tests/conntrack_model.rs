//! syscheck models of the conntrack cross-shard charge protocol.
//!
//! Every worker shard charges one [`ConntrackShared`] gauge before
//! inserting and uncharges on every removal. The protocol obligations are
//! small and sharp: the gauge never exceeds its cap — not even transiently,
//! which is why `try_charge` is a CAS loop and not a blind
//! `fetch_add`-then-undo — it never underflows, and when every shard has
//! torn down its entries the gauge reads exactly zero. The gauge runs on
//! the `syscheck` shim atomics, so these models explore real interleavings
//! of charge / evict-uncharge / teardown races at the cap boundary.

use std::sync::Arc;
use syscheck::shim::spawn_named;
use syscheck::Config;
use sysnet::conntrack::{ConntrackConfig, TcpSummary};
use sysnet::{Conntrack, ConntrackShared, FlowKey};

/// Two shards hammer a cap-3 gauge with more demand than supply. Each
/// failed charge is answered the way a shard answers it — release one of
/// your own (evict) and retry — and the run ends with a full teardown.
/// The cap and zero-sum properties must hold on every schedule.
fn gauge_model() -> u64 {
    let shared = Arc::new(ConntrackShared::new(3));
    let handles: Vec<_> = (0..2)
        .map(|t| {
            let s = Arc::clone(&shared);
            spawn_named(&format!("shard-{t}"), move || {
                let mut held = 0u64;
                for _ in 0..4 {
                    if s.try_charge() {
                        held += 1;
                    } else if held > 0 {
                        // The shard-side response to a spent gauge: evict
                        // one of your own entries, then retry the charge.
                        s.uncharge();
                        held -= 1;
                        if s.try_charge() {
                            held += 1;
                        }
                    }
                    // The CAS loop's contract: a successful charge can
                    // never be observed above the cap, even mid-race.
                    assert!(s.live() <= s.limit(), "gauge overshot its cap");
                }
                // Teardown: release everything this shard still holds.
                while held > 0 {
                    s.uncharge();
                    held -= 1;
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("shard panicked");
    }
    assert_eq!(shared.live(), 0, "teardown must zero the gauge");
    shared.live() * 100 + shared.limit()
}

/// The same protocol driven through real [`Conntrack`] shards: two workers
/// admit more flows than the shared cap allows, then reap everything by
/// timeout sweep. Structure audits and the zero-sum gauge must survive
/// every interleaving of the insert/evict/uncharge traffic.
fn shard_model() -> u64 {
    let shared = Arc::new(ConntrackShared::new(3));
    let cfg = ConntrackConfig {
        max_flows: 4,
        syn_backlog: 2,
        sweep_batch: 16,
        ..ConntrackConfig::default()
    };
    let handles: Vec<_> = (0..2)
        .map(|t| {
            let s = Arc::clone(&shared);
            spawn_named(&format!("worker-{t}"), move || {
                let mut ct = Conntrack::new(cfg).with_shared(s);
                let syn = TcpSummary {
                    syn: true,
                    ..TcpSummary::default()
                };
                for f in 0..4u32 {
                    let key = FlowKey::canonical(
                        0xAC10_0000 | (t as u32) << 8 | f,
                        0x0A00_0001,
                        40_000,
                        443,
                        6,
                    );
                    // Shed (FlowTableFull) is a legal answer; corruption
                    // is not.
                    let _ = ct.admit_tcp(&key, syn, 1_000);
                    ct.check_invariants().expect("audit after admit");
                }
                // Reap everything by timeout, however much was admitted.
                ct.sweep(u64::MAX / 2);
                ct.check_invariants().expect("audit after sweep");
                assert_eq!(ct.len(), 0, "sweep must reap every entry");
                ct.stats().flows_created
            })
        })
        .collect();
    let created: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("worker panicked"))
        .sum();
    assert_eq!(shared.live(), 0, "reaped shards must zero the gauge");
    assert!(created <= 8, "more creations than SYNs offered");
    // The digest folds only schedule-independent facts: the gauge zeroes
    // out and at least cap-many creations succeeded in total (the gauge
    // admits 3 concurrently; eviction-retry can admit more over time).
    assert!(created >= 3, "the cap's worth of flows must get in");
    shared.live()
}

#[test]
fn checker_gauge_holds_cap_under_random_schedules() {
    let cfg = Config {
        max_schedules: 400,
        ..Config::default()
    };
    let ex = syscheck::explore_random(&cfg, 0xC7_C4A6E, gauge_model);
    assert!(
        ex.failure.is_none(),
        "a schedule broke the charge protocol: {:?}",
        ex.failure
    );
    assert_eq!(ex.schedules, 400);
    assert_eq!(ex.distinct_states, 1, "terminal digest must not vary");
}

#[test]
fn checker_gauge_dfs_prefix_finds_no_failure() {
    let cfg = Config {
        preemption_bound: 2,
        max_schedules: 300,
        ..Config::default()
    };
    let ex = syscheck::explore(&cfg, gauge_model);
    assert!(
        ex.failure.is_none(),
        "DFS prefix broke the gauge: {:?}",
        ex.failure
    );
    assert!(ex.schedules > 0);
}

#[test]
fn checker_shards_conserve_the_gauge_under_random_schedules() {
    let cfg = Config {
        max_schedules: 200,
        ..Config::default()
    };
    let ex = syscheck::explore_random(&cfg, 0x005E_EDC7, shard_model);
    assert!(
        ex.failure.is_none(),
        "a schedule corrupted a shard or the gauge: {:?}",
        ex.failure
    );
    assert_eq!(ex.distinct_states, 1, "terminal digest must not vary");
}

#[test]
fn checker_shard_failures_replay_by_seed() {
    let cfg = Config::default();
    let a = syscheck::replay_seed(&cfg, 0xD16E57, shard_model);
    let b = syscheck::replay_seed(&cfg, 0xD16E57, shard_model);
    assert!(a.failure.is_none() && b.failure.is_none());
    assert_eq!(a.digest, b.digest);
    assert!(a.digest.is_some());
}
