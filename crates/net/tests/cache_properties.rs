//! Differential property tests for the flow cache and the frame pool.
//!
//! The flow cache is an *optimization*: by construction it must never
//! change a routing decision, only skip the trie walk. The differential
//! oracle is therefore the trie itself — for any interleaving of route
//! inserts, removes, and traffic, `FlowCache::lookup_or_route` must return
//! exactly what a direct `TrieTable::lookup` returns at that moment. The
//! generated interleavings concentrate traffic on a small flow pool so
//! cached entries get *hit* after the table changes underneath them —
//! the case the generation counter exists for — and use a tiny cache so
//! direct-mapped collisions and evictions happen constantly.
//!
//! The pool-poisoning tests attack the other new reuse path: recycled
//! frame buffers. A frame written into a recycled buffer must behave
//! identically to one written into a fresh allocation — no stale bytes
//! from the previous tenant may leak into parsing or routing.

use proptest::prelude::*;
use std::sync::Arc;
use sysnet::pipeline::DropReason;
use sysnet::router::{run_stream, RouterConfig, RouterStats};
use sysnet::{CowRouteTable, FlowCache, Routes, TrieTable};
use sysrepr::packet::PacketBuilder;

/// One step of an interleaved table-mutation / traffic history.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert a route (possibly shadowing or duplicating an earlier one).
    Insert { prefix: u32, len: u8, hop: u16 },
    /// Remove a route by a (possibly unmasked) spelling.
    Remove { prefix: u32, len: u8 },
    /// Route one packet of a flow through the cache.
    Traffic { src: u32, dst: u32 },
}

/// Prefixes drawn from a handful of high octets so routes overlap and
/// traffic actually lands under them.
fn arb_prefix() -> impl Strategy<Value = u32> {
    (0u32..4, any::<u32>()).prop_map(|(hi, lo)| ((10 + hi) << 24) | (lo & 0x00FF_FFFF))
}

fn arb_len() -> impl Strategy<Value = u8> {
    prop_oneof![
        4 => prop_oneof![Just(8u8), Just(16u8), Just(24u8)],
        1 => 0u8..=32,
    ]
}

/// Traffic concentrated on a small flow pool (so the same cache entries
/// are probed again after mutations), with an arbitrary-destination tail.
fn arb_traffic() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u32..8, 0u32..16).prop_map(|(s, d)| Op::Traffic {
            src: 0xAC10_0000 | s,
            dst: (10 << 24) | (d << 16) | 0x99,
        }),
        1 => (any::<u32>(), any::<u32>()).prop_map(|(src, dst)| Op::Traffic { src, dst }),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (arb_prefix(), arb_len(), any::<u16>())
            .prop_map(|(prefix, len, hop)| Op::Insert { prefix, len, hop }),
        1 => (arb_prefix(), arb_len()).prop_map(|(prefix, len)| Op::Remove { prefix, len }),
        5 => arb_traffic(),
    ]
}

proptest! {
    /// The headline property: across arbitrary insert/remove/traffic
    /// interleavings, the cached lookup and the direct trie lookup agree
    /// on every single packet. A stale cache entry surviving a table
    /// mutation, a collision routing to the wrong flow's hop, or a missed
    /// negative-entry invalidation all break this equality.
    #[test]
    fn cached_routing_agrees_with_direct_trie(
        ops in proptest::collection::vec(arb_op(), 1..150),
    ) {
        let mut trie: TrieTable<u16> = TrieTable::new();
        // 8 slots: with 128 possible hot flows, collisions are guaranteed.
        let mut cache = FlowCache::new(8);
        for op in &ops {
            match *op {
                Op::Insert { prefix, len, hop } => { let _ = trie.insert(prefix, len, hop); }
                Op::Remove { prefix, len } => { let _ = trie.remove(prefix, len); }
                Op::Traffic { src, dst } => {
                    prop_assert_eq!(
                        cache.lookup_or_route(&trie, src, dst),
                        trie.lookup(dst),
                        "cache diverged at src {:#010x} dst {:#010x}", src, dst
                    );
                }
            }
        }
    }

    /// Re-probing the same flows after every mutation: each traffic step
    /// probes the *whole* flow pool, so entries cached before a mutation
    /// are guaranteed to be consulted after it.
    #[test]
    fn every_cached_flow_survives_every_mutation(
        mutations in proptest::collection::vec(
            (arb_prefix(), arb_len(), any::<u16>(), any::<bool>()), 1..40),
    ) {
        let mut trie: TrieTable<u16> = TrieTable::new();
        let mut cache = FlowCache::new(16);
        let flows: Vec<(u32, u32)> = (0..24u32)
            .map(|f| (0xAC10_0000 | f, (10 << 24) | ((f % 6) << 16) | f))
            .collect();
        for &(prefix, len, hop, insert) in &mutations {
            if insert {
                let _ = trie.insert(prefix, len, hop);
            } else {
                let _ = trie.remove(prefix, len);
            }
            for &(src, dst) in &flows {
                prop_assert_eq!(cache.lookup_or_route(&trie, src, dst), trie.lookup(dst));
            }
        }
    }

    /// The copy-on-write table is sequentially equivalent to the exclusive
    /// trie: the same op history produces the same lookups for every probed
    /// address, the same canonical route set, and the same change count
    /// (publications == generation — so the cache invalidates identically
    /// over either source). The concurrent half of the story — that a
    /// *pinned* view stays frozen while these mutations land — is the
    /// `syscheck` model in `cowtrie_model.rs`; this property pins down the
    /// functional half with full LPM generality.
    #[test]
    fn cow_publication_is_sequentially_equivalent_to_the_trie(
        ops in proptest::collection::vec(arb_op(), 1..150),
    ) {
        let mut trie: TrieTable<u16> = TrieTable::new();
        let cow: Arc<CowRouteTable<u16>> = Arc::new(CowRouteTable::new());
        let reader = cow.reader();
        let mut cache = FlowCache::new(8);
        for op in &ops {
            match *op {
                Op::Insert { prefix, len, hop } => {
                    prop_assert_eq!(
                        trie.insert(prefix, len, hop).ok(),
                        cow.insert(prefix, len, hop).ok()
                    );
                }
                Op::Remove { prefix, len } => {
                    prop_assert_eq!(
                        trie.remove(prefix, len).ok(),
                        cow.remove(prefix, len).ok()
                    );
                }
                Op::Traffic { src, dst } => {
                    let view = reader.pin();
                    prop_assert_eq!(view.lookup(dst), trie.lookup(dst));
                    // The cache fronting a pinned view agrees with the
                    // bare trie too — the whole-pipeline equivalence.
                    prop_assert_eq!(
                        cache.lookup_or_route(&view, src, dst),
                        trie.lookup(dst),
                        "cow-backed cache diverged at src {:#010x} dst {:#010x}", src, dst
                    );
                }
            }
            prop_assert_eq!(cow.publications(), trie.generation());
            prop_assert_eq!(cow.len(), trie.len());
        }
        let mut a = trie.routes();
        let mut b = cow.routes();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b, "route sets diverged after the full history");
    }
}

/// Prefix lengths on and beside every stride-4 node boundary, where
/// controlled prefix expansion and its undo can go wrong.
const BOUNDARY_LENS: [u8; 24] = [
    0, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21, 23, 24, 25, 27, 28, 29, 31, 32,
];

/// One step of a boundary-biased history against both tables.
#[derive(Debug, Clone, Copy)]
enum BoundaryOp {
    Insert {
        prefix: u32,
        len: u8,
        hop: u16,
    },
    Remove {
        prefix: u32,
        len: u8,
    },
    /// Re-install the `n`-th route inserted so far with its current hop:
    /// a routing no-op that must publish nothing.
    Reinsert {
        n: usize,
    },
    Probe {
        dst: u32,
    },
}

/// Addresses under 10.1.2.0/24 and 10.0.0.0/8 with one bit flipped or
/// none, so routes of every length nest inside the same nodes.
fn arb_nested_addr() -> impl Strategy<Value = u32> {
    (0u32..2, 0u32..40).prop_map(|(a, bit)| {
        let anchor = if a == 0 { 0x0A01_0203 } else { 0x0A00_0000 };
        if bit < 32 {
            anchor ^ (1 << bit)
        } else {
            anchor
        }
    })
}

fn arb_boundary_len() -> impl Strategy<Value = u8> {
    (0usize..BOUNDARY_LENS.len()).prop_map(|i| BOUNDARY_LENS[i])
}

fn arb_boundary_op() -> impl Strategy<Value = BoundaryOp> {
    prop_oneof![
        3 => (arb_nested_addr(), arb_boundary_len(), 0u16..3)
            .prop_map(|(prefix, len, hop)| BoundaryOp::Insert { prefix, len, hop }),
        2 => (arb_nested_addr(), arb_boundary_len())
            .prop_map(|(prefix, len)| BoundaryOp::Remove { prefix, len }),
        1 => (0usize..64).prop_map(|n| BoundaryOp::Reinsert { n }),
        3 => arb_nested_addr().prop_map(|dst| BoundaryOp::Probe { dst }),
    ]
}

proptest! {
    /// Boundary-biased histories: the copy-on-write table answers like the
    /// exclusive one after every step, publishes exactly when the exclusive
    /// table's generation moves, and a same-hop re-insert publishes
    /// nothing.
    #[test]
    fn cow_matches_the_exclusive_table_across_stride_boundaries(
        ops in proptest::collection::vec(arb_boundary_op(), 1..120),
    ) {
        let mut trie: TrieTable<u16> = TrieTable::new();
        let cow: Arc<CowRouteTable<u16>> = Arc::new(CowRouteTable::new());
        let reader = cow.reader();
        let mut inserted: Vec<(u32, u8)> = Vec::new();
        for op in &ops {
            match *op {
                BoundaryOp::Insert { prefix, len, hop } => {
                    prop_assert_eq!(trie.insert(prefix, len, hop), cow.insert(prefix, len, hop));
                    inserted.push((prefix, len));
                }
                BoundaryOp::Remove { prefix, len } => {
                    prop_assert_eq!(trie.remove(prefix, len), cow.remove(prefix, len));
                }
                BoundaryOp::Reinsert { n } => {
                    if inserted.is_empty() {
                        continue;
                    }
                    let (prefix, len) = inserted[n % inserted.len()];
                    let m = sysnet::lpm::mask(len);
                    let Some(hop) = trie.routes().into_iter()
                        .find(|&(p, l, _)| l == len && p == prefix & m)
                        .map(|(_, _, h)| h) else { continue };
                    let pubs = cow.publications();
                    prop_assert_eq!(cow.insert(prefix, len, hop), Ok(Some(hop)));
                    prop_assert_eq!(cow.publications(), pubs, "same-hop re-insert published");
                }
                BoundaryOp::Probe { dst } => {
                    prop_assert_eq!(reader.pin().lookup(dst), trie.lookup(dst));
                }
            }
            prop_assert_eq!(cow.publications(), trie.generation());
            prop_assert_eq!(cow.len(), trie.len());
            let view = reader.pin();
            for &(prefix, len) in &inserted {
                let m = sysnet::lpm::mask(len);
                for addr in [prefix & m, prefix | !m] {
                    prop_assert_eq!(view.lookup(addr), trie.lookup(addr));
                }
            }
        }
        prop_assert_eq!(trie.routes(), cow.routes());
    }
}

fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
    u32::from_be_bytes([a, b, c, d])
}

fn table() -> TrieTable<u16> {
    let mut t = TrieTable::new();
    t.insert(ip(10, 0, 0, 0), 8, 0).unwrap();
    t.insert(ip(10, 1, 0, 0), 16, 1).unwrap();
    t.insert(ip(192, 168, 0, 0), 16, 2).unwrap();
    t
}

fn frame(dst: [u8; 4], payload_len: usize) -> Vec<u8> {
    PacketBuilder::udp()
        .src_ip([172, 16, 0, 1])
        .dst_ip(dst)
        .dst_port(4789)
        .payload(&vec![0xEE; payload_len])
        .build()
}

fn run(frames: &[Vec<u8>]) -> RouterStats {
    let config = RouterConfig {
        workers: 2,
        batch_size: 8,
        queue_depth: 2,
        ..RouterConfig::default()
    };
    let (report, _) = run_stream(table(), 3, config, frames);
    report.stats
}

/// Recycled buffers never leak stale bytes: a stream of large routable
/// frames warms the pool with big dirty buffers, then 3-byte runts ride
/// through the same (recycled) buffers. If recycling failed to truncate —
/// leaving the old frame's tail after the runt's bytes — the runts would
/// parse as their buffers' previous tenants and be *forwarded*; instead
/// every one must drop as Malformed.
#[test]
fn recycled_buffers_do_not_resurrect_previous_frames() {
    let mut frames = Vec::new();
    for i in 0..=255u8 {
        frames.push(frame([10, 1, i, 1], 256));
    }
    for _ in 0..256 {
        frames.push(vec![0xAB; 3]); // runt: shorter than any header chain
    }
    let stats = run(&frames);
    assert_eq!(stats.totals.forwarded, 256, "only the valid frames forward");
    assert_eq!(
        stats.totals.dropped[DropReason::Malformed as usize],
        256,
        "every runt drops as malformed — none may parse as a stale buffer"
    );
    assert_eq!(stats.totals.total_frames(), 512);
}

/// Phase additivity: routing a mixed stream through a pool warmed by a
/// *different* stream gives byte-identical per-port and per-drop-reason
/// counts to routing it through a fresh router. Any cross-contamination
/// between a buffer's previous tenant and its current frame breaks the
/// equality `stats(warm ++ mixed) == stats(warm) + stats(mixed)`.
#[test]
fn pool_history_never_changes_routing_outcomes() {
    // Warm stream: big frames, all to one port, some corrupted.
    let mut warm = Vec::new();
    for i in 0..=255u8 {
        let mut b = PacketBuilder::udp()
            .src_ip([172, 16, 1, 1])
            .dst_ip([192, 168, i, 9])
            .dst_port(4789)
            .payload(&[0x55; 300]);
        if i % 7 == 0 {
            b = b.corrupt_checksum();
        }
        warm.push(b.build());
    }
    // Mixed stream: small frames across ports, runts, and no-route dsts.
    let mut mixed = Vec::new();
    for i in 0..=255u8 {
        mixed.push(match i % 4 {
            0 => frame([10, 0, 1, i], 16),
            1 => frame([10, 1, 2, i], 16),
            2 => frame([8, 8, 8, i], 16), // no route
            _ => vec![0xCD; 5],           // runt
        });
    }
    let combined: Vec<Vec<u8>> = warm.iter().chain(mixed.iter()).cloned().collect();

    let (a, b, ab) = (run(&warm), run(&mixed), run(&combined));
    assert_eq!(ab.totals.forwarded, a.totals.forwarded + b.totals.forwarded);
    for r in 0..a.totals.dropped.len() {
        assert_eq!(
            ab.totals.dropped[r],
            a.totals.dropped[r] + b.totals.dropped[r],
            "drop reason {r} not additive across pool reuse"
        );
    }
    for p in 0..a.totals.per_port.len() {
        assert_eq!(
            ab.totals.per_port[p],
            a.totals.per_port[p] + b.totals.per_port[p],
            "port {p} counts not additive across pool reuse"
        );
    }
}
