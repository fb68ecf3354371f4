//! syscheck models of copy-on-write route publication.
//!
//! The sequential story ("a COW table behaves exactly like the exclusive
//! trie") is the proptest in `cache_properties.rs`. These models check the
//! concurrent half on the cooperative scheduler, where every shim atomic —
//! the root swap, the publication counter, the epoch pins under the reads —
//! is a scheduling decision point:
//!
//! * **publication visibility** — the satellite obligation verbatim: a
//!   published update is visible to the *next* pinned read. The writer
//!   publishes and then raises a shim flag; any reader that observes the
//!   flag and pins afterwards must see the new route, because the root
//!   store is sequenced before the flag store and the pin's root load after
//!   the flag load. No schedule may show the stale hop past the flag.
//! * **snapshot isolation** — the dual: a view pinned *before* doing any
//!   lookups observes exactly one table version across multiple reads, even
//!   mid-publication. Readers never see a half-built spine.
//!
//! The `/1` models keep the DFS tree small enough for a meaningful bounded
//! search; their route sits entirely in the stride-4 root node. The `/5`
//! variants run the same models on a route one stride further down, so
//! every publication clones a two-node spine and links the copied child
//! into the copied root before the root store.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use syscheck::shim::AtomicBool;
use syscheck::Config;
use sysnet::{CowRouteTable, Routes};

/// `0.0.0.0/1` — matches any address with the top bit clear.
const PREFIX: u32 = 0;
const LEN: u8 = 1;
const ADDR: u32 = 0x0BAD_CAFE & 0x7FFF_FFFF;

/// `8.0.0.0/5` — the shortest route stored below the root node.
const DEEP_PREFIX: u32 = 0x0800_0000;
const DEEP_LEN: u8 = 5;
const DEEP_ADDR: u32 = 0x0BAD_CAFE;

fn visibility_model() -> u64 {
    visibility_model_for(PREFIX, LEN, ADDR)
}

fn snapshot_model() -> u64 {
    snapshot_model_for(PREFIX, LEN, ADDR)
}

/// Writer re-points the route from hop 1 to hop 2 and raises the flag;
/// the main thread samples the flag, then pins. Flag observed ⇒ the new
/// hop is the only acceptable answer.
fn visibility_model_for(prefix: u32, len: u8, addr: u32) -> u64 {
    let table: Arc<CowRouteTable<u16>> = Arc::new(CowRouteTable::new());
    table.insert(prefix, len, 1).unwrap();
    let reader = table.reader();
    let published = Arc::new(AtomicBool::new(false));

    let (t, p) = (Arc::clone(&table), Arc::clone(&published));
    let writer = syscheck::shim::spawn(move || {
        t.insert(prefix, len, 2).unwrap();
        p.store(true, Ordering::SeqCst);
    });

    let saw_publication = published.load(Ordering::SeqCst);
    let view = reader.pin();
    let hop = view.lookup(addr);
    if saw_publication {
        assert_eq!(
            hop,
            Some(2),
            "published update invisible to the next pinned read"
        );
    } else {
        assert!(
            hop == Some(1) || hop == Some(2),
            "reader saw a torn table: {hop:?}"
        );
    }
    drop(view);
    writer.join().unwrap();

    assert_eq!(table.publications(), 2, "exactly two publications");
    u64::from(saw_publication) << 8 | u64::from(hop.unwrap_or(0))
}

/// A view pinned before its first lookup reads the same version twice,
/// no matter where the concurrent publication lands between the reads.
fn snapshot_model_for(prefix: u32, len: u8, addr: u32) -> u64 {
    let table: Arc<CowRouteTable<u16>> = Arc::new(CowRouteTable::new());
    table.insert(prefix, len, 1).unwrap();
    let reader = table.reader();

    let t = Arc::clone(&table);
    let writer = syscheck::shim::spawn(move || {
        t.insert(prefix, len, 2).unwrap();
    });

    let view = reader.pin();
    let first = view.lookup(addr);
    let second = view.lookup(addr);
    assert_eq!(
        first, second,
        "a pinned view changed versions between lookups"
    );
    assert!(
        first == Some(1) || first == Some(2),
        "torn table: {first:?}"
    );
    drop(view);
    writer.join().unwrap();
    u64::from(first.unwrap_or(0))
}

#[test]
fn checker_published_update_visible_to_next_pinned_read() {
    let cfg = Config {
        preemption_bound: 2,
        max_schedules: 200_000,
        ..Config::default()
    };
    let ex = syscheck::explore(&cfg, visibility_model);
    assert!(
        ex.failure.is_none(),
        "a schedule hid a published route from a later pin: {:?}",
        ex.failure
    );
    assert!(
        ex.complete,
        "visibility model must be exhaustive at preemption bound 2 \
         ({} schedules ran)",
        ex.schedules
    );
}

#[test]
fn checker_visibility_holds_under_random_schedules() {
    let cfg = Config {
        max_schedules: 500,
        ..Config::default()
    };
    let ex = syscheck::explore_random(&cfg, 0xC0DE_0E15, visibility_model);
    assert!(ex.failure.is_none(), "{:?}", ex.failure);
    assert_eq!(ex.schedules, 500);
}

#[test]
fn checker_pinned_view_is_a_frozen_snapshot() {
    let cfg = Config {
        preemption_bound: 2,
        max_schedules: 200_000,
        ..Config::default()
    };
    let ex = syscheck::explore(&cfg, snapshot_model);
    assert!(
        ex.failure.is_none(),
        "a pinned view tore mid-publication: {:?}",
        ex.failure
    );
    assert!(ex.complete, "snapshot model must be exhaustive");
    // Both hops are legitimate terminal states (pin before vs after the
    // publication); more than two would mean a third, torn, version.
    assert!(
        ex.distinct_states <= 2,
        "torn state: {}",
        ex.distinct_states
    );
}

#[test]
fn checker_deep_spine_update_visible_to_next_pinned_read() {
    assert_eq!(DEEP_ADDR & sysnet::lpm::mask(DEEP_LEN), DEEP_PREFIX);
    let cfg = Config {
        preemption_bound: 2,
        max_schedules: 200_000,
        ..Config::default()
    };
    let ex = syscheck::explore(&cfg, || {
        visibility_model_for(DEEP_PREFIX, DEEP_LEN, DEEP_ADDR)
    });
    assert!(
        ex.failure.is_none(),
        "a schedule hid a two-node spine from a later pin: {:?}",
        ex.failure
    );
    assert!(ex.complete, "deep visibility model must be exhaustive");
}

#[test]
fn checker_deep_spine_pinned_view_is_a_frozen_snapshot() {
    let cfg = Config {
        preemption_bound: 2,
        max_schedules: 200_000,
        ..Config::default()
    };
    let ex = syscheck::explore(&cfg, || {
        snapshot_model_for(DEEP_PREFIX, DEEP_LEN, DEEP_ADDR)
    });
    assert!(
        ex.failure.is_none(),
        "a pinned view tore mid-publication of a two-node spine: {:?}",
        ex.failure
    );
    assert!(ex.complete, "deep snapshot model must be exhaustive");
    assert!(
        ex.distinct_states <= 2,
        "torn state: {}",
        ex.distinct_states
    );
}
