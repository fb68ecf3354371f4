//! syscheck models of the router's dispatch/recycle hot path.
//!
//! The full router is far too large to explore exhaustively, but the
//! protocol obligations are small: every submitted frame is forwarded or
//! dropped exactly once (conservation), no schedule deadlocks the
//! dispatcher ↔ worker ↔ recycle cycle, and shutdown joins every worker.
//! These models run a tiny configuration (2 workers, batch 1, queue
//! depth 1 — the same worst case as `tiny_queue_and_batch_still_conserve`,
//! which maximizes try_send failures and requeue traffic) under seeded
//! random schedules plus a budgeted DFS prefix.

use syscheck::Config;
use sysnet::lpm::TrieTable;
use sysnet::router::{PortId, RouterConfig, ShardedRouter};
use sysrepr::packet::PacketBuilder;

fn table() -> TrieTable<PortId> {
    let mut t = TrieTable::new();
    t.insert(u32::from_be_bytes([10, 0, 0, 0]), 8, 0).unwrap();
    t.insert(0, 0, 1).unwrap();
    t
}

fn frames() -> Vec<Vec<u8>> {
    (0..4u8)
        .map(|i| {
            let mut b = PacketBuilder::udp()
                .src_ip([172, 16, 0, i])
                .dst_ip([10, i % 2, i, 1])
                .payload(&[0xAB; 16]);
            if i == 3 {
                b = b.corrupt_checksum();
            }
            b.build()
        })
        .collect()
}

/// One full dispatch → process → recycle → shutdown cycle on the
/// cooperative scheduler; the digest encodes the conservation counts, so
/// every terminal state must collapse to one digest no matter the schedule.
fn route_model() -> u64 {
    let cfg = RouterConfig {
        workers: 2,
        batch_size: 1,
        queue_depth: 1,
        cache_slots: 0,
        instrument: false,
        conntrack: None,
        lb: None,
        fault_plan: None,
    };
    let mut router = ShardedRouter::start(table(), 2, cfg);
    for frame in frames() {
        router.submit(&frame);
    }
    let report = router.finish();
    let t = &report.stats.totals;
    assert_eq!(t.total_frames(), 4, "router lost or duplicated frames");
    t.forwarded * 100 + t.dropped_total() * 10 + t.per_port.iter().sum::<u64>()
}

#[test]
fn checker_router_conserves_frames_under_random_schedules() {
    let cfg = Config {
        max_schedules: 300,
        ..Config::default()
    };
    let ex = syscheck::explore_random(&cfg, 0xD15BA7C4, route_model);
    assert!(
        ex.failure.is_none(),
        "schedule broke the dispatch/recycle protocol: {:?}",
        ex.failure
    );
    assert_eq!(ex.schedules, 300);
    // Counts are schedule-independent: one terminal state, always.
    assert_eq!(ex.distinct_states, 1, "conservation digest must not vary");
}

#[test]
fn checker_router_dfs_prefix_finds_no_failure() {
    // The state space dwarfs any exhaustive budget; a bounded DFS prefix
    // still covers the preemption-free schedule and its near neighbours,
    // which is where dispatcher-side protocol bugs (lost requeues, recycle
    // deadlocks) would surface first.
    let cfg = Config {
        preemption_bound: 1,
        max_schedules: 200,
        ..Config::default()
    };
    let ex = syscheck::explore(&cfg, route_model);
    assert!(
        ex.failure.is_none(),
        "DFS prefix broke the router: {:?}",
        ex.failure
    );
    assert!(ex.schedules > 0);
}

#[test]
fn checker_router_failures_replay_by_seed() {
    // The replay contract matters even for passing models: any seed must
    // reproduce its schedule's terminal digest exactly.
    let cfg = Config::default();
    let a = syscheck::replay_seed(&cfg, 0xE13, route_model);
    let b = syscheck::replay_seed(&cfg, 0xE13, route_model);
    assert!(a.failure.is_none() && b.failure.is_none());
    assert_eq!(a.digest, b.digest);
    assert!(a.digest.is_some());
}
