//! Differential property tests: the stride-4 trie against the linear-scan
//! reference.
//!
//! The [`sysnet::LinearTable`] is correct by inspection — every lookup
//! filters all routes and keeps the longest match. Any divergence between
//! it and the trie on the same operation sequence is a trie bug. The
//! generated tables deliberately pile up overlapping prefixes (nested /8 →
//! /16 → /24 ladders, duplicate canonical keys from unmasked spellings,
//! the /0 default route) because those are exactly the shapes the trie's
//! best-match tracking and canonicalization can get wrong.

use proptest::prelude::*;
use sysnet::{LinearTable, TrieTable};

/// One route-table operation, chosen by proptest.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert a (possibly unmasked, possibly duplicate-canonical) route.
    Insert { prefix: u32, len: u8, hop: u16 },
    /// Remove by a (possibly unmasked) spelling.
    Remove { prefix: u32, len: u8 },
}

/// Prefix lengths concentrated on realistic values but covering 0..=32.
fn arb_len() -> impl Strategy<Value = u8> {
    prop_oneof![
        4 => prop_oneof![Just(8u8), Just(16u8), Just(24u8), Just(32u8)],
        2 => 0u8..=32,
    ]
}

/// Addresses and prefixes drawn from a small pool of high octets so that
/// routes overlap and lookups actually hit nested prefixes, plus a stream
/// of fully arbitrary values.
fn arb_addr() -> impl Strategy<Value = u32> {
    prop_oneof![
        4 => (0u32..4, any::<u32>())
            .prop_map(|(hi, lo)| ((10 + hi) << 24) | (lo & 0x00FF_FFFF)),
        1 => any::<u32>(),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (arb_addr(), arb_len(), any::<u16>())
            .prop_map(|(prefix, len, hop)| Op::Insert { prefix, len, hop }),
        1 => (arb_addr(), arb_len()).prop_map(|(prefix, len)| Op::Remove { prefix, len }),
    ]
}

/// Applies the same op sequence to both tables, asserting that every
/// operation's return value agrees.
fn build_both(ops: &[Op]) -> (TrieTable<u16>, LinearTable<u16>) {
    let mut trie = TrieTable::new();
    let mut linear = LinearTable::new();
    for op in ops {
        match *op {
            Op::Insert { prefix, len, hop } => {
                let a = trie.insert(prefix, len, hop);
                let b = linear.insert(prefix, len, hop);
                assert_eq!(a, b, "insert {prefix:#010x}/{len} disagreed");
            }
            Op::Remove { prefix, len } => {
                let a = trie.remove(prefix, len);
                let b = linear.remove(prefix, len);
                assert_eq!(a, b, "remove {prefix:#010x}/{len} disagreed");
            }
        }
    }
    (trie, linear)
}

proptest! {
    /// The headline property: after an arbitrary insert/remove history,
    /// both tables give the same answer for arbitrary addresses — including
    /// addresses derived from the installed prefixes themselves (prefix
    /// base, broadcast-end, and a mutated-host-bits probe for each route).
    #[test]
    fn trie_agrees_with_linear_reference(
        ops in proptest::collection::vec(arb_op(), 1..60),
        probes in proptest::collection::vec(arb_addr(), 1..40),
    ) {
        let (trie, linear) = build_both(&ops);
        prop_assert_eq!(trie.len(), linear.len());
        for &addr in &probes {
            prop_assert_eq!(trie.lookup(addr), linear.lookup(addr));
        }
        for op in &ops {
            let Op::Insert { prefix, len, .. } = *op else { continue };
            let m = sysnet::lpm::mask(len);
            for addr in [prefix & m, prefix | !m, (prefix & m) ^ 1] {
                prop_assert_eq!(trie.lookup(addr), linear.lookup(addr));
            }
        }
    }

    /// A dense overlapping ladder: every address under 10/8 must resolve to
    /// the deepest installed covering prefix, in both tables.
    #[test]
    fn nested_ladders_resolve_to_deepest_cover(
        host in any::<u32>(),
        default_route in any::<bool>(),
    ) {
        let mut trie = TrieTable::new();
        let mut linear = LinearTable::new();
        let ladder: [(u32, u8, u16); 4] = [
            (10 << 24, 8, 1),
            ((10 << 24) | (1 << 16), 16, 2),
            ((10 << 24) | (1 << 16) | (2 << 8), 24, 3),
            ((10 << 24) | (1 << 16) | (2 << 8) | 9, 32, 4),
        ];
        for (prefix, len, hop) in ladder {
            trie.insert(prefix, len, hop).unwrap();
            linear.insert(prefix, len, hop).unwrap();
        }
        if default_route {
            trie.insert(0, 0, 99).unwrap();
            linear.insert(0, 0, 99).unwrap();
        }
        let addr = (10 << 24) | (host & 0x00FF_FFFF);
        let got = trie.lookup(addr);
        prop_assert_eq!(got, linear.lookup(addr));
        prop_assert!(got.is_some(), "everything under 10/8 is covered");
        let outside = host | 0x8000_0000; // 128.0.0.0/1: never under 10/8
        prop_assert_eq!(trie.lookup(outside), linear.lookup(outside));
        prop_assert_eq!(trie.lookup(outside).is_some(), default_route);
    }

    /// Removing every inserted route (by an arbitrary, possibly unmasked
    /// spelling) leaves both tables empty and answering `None`.
    #[test]
    fn removal_drains_both_tables(
        routes in proptest::collection::vec((arb_addr(), arb_len(), any::<u16>()), 1..40),
        probe in any::<u32>(),
    ) {
        let ops: Vec<Op> =
            routes.iter().map(|&(prefix, len, hop)| Op::Insert { prefix, len, hop }).collect();
        let (mut trie, mut linear) = build_both(&ops);
        for &(prefix, len, _) in &routes {
            // Remove via a different unmasked spelling of the same route.
            let spelling = prefix | (!sysnet::lpm::mask(len) & 0x0055_5555);
            let a = trie.remove(spelling, len);
            let b = linear.remove(spelling, len);
            prop_assert_eq!(a, b);
        }
        prop_assert!(trie.is_empty());
        prop_assert!(linear.is_empty());
        prop_assert_eq!(trie.lookup(probe), None);
    }
}

/// Prefix lengths on and beside every stride-4 node boundary (the trie
/// stores `/1..=/4` in the root, `/5..=/8` one level down, and so on):
/// the shapes where controlled prefix expansion and its undo can go wrong.
const BOUNDARY_LENS: [u8; 23] = [
    0, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21, 23, 24, 25, 27, 28, 29, 31,
];

fn arb_boundary_len() -> impl Strategy<Value = u8> {
    prop_oneof![
        6 => (0usize..BOUNDARY_LENS.len()).prop_map(|i| BOUNDARY_LENS[i]),
        2 => Just(32u8),
        1 => 0u8..=32,
    ]
}

/// A few anchor addresses, a third of the time with one bit flipped: routes
/// of different lengths built from them nest inside the same nodes, so
/// removals keep having to restore a shorter route expanded beside them,
/// and the same route keeps being re-installed with a new or the same hop.
fn arb_anchored_addr() -> impl Strategy<Value = u32> {
    const ANCHORS: [u32; 6] = [
        0x0A01_0203,
        0x0A01_02F0,
        0x0AFF_FFFF,
        0x0000_0000,
        0xFFFF_FFFF,
        0x8000_0001,
    ];
    (0usize..ANCHORS.len(), 0u32..96).prop_map(|(a, bit)| match bit {
        0..=31 => ANCHORS[a] ^ (1 << bit),
        _ => ANCHORS[a],
    })
}

fn arb_boundary_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (arb_anchored_addr(), arb_boundary_len(), 0u16..4)
            .prop_map(|(prefix, len, hop)| Op::Insert { prefix, len, hop }),
        2 => (arb_anchored_addr(), arb_boundary_len())
            .prop_map(|(prefix, len)| Op::Remove { prefix, len }),
    ]
}

/// Probes every installed-or-removed prefix touched by `ops` at its base,
/// its last address, and one address either side of it.
fn probe_all(ops: &[Op], trie: &TrieTable<u16>, linear: &LinearTable<u16>) -> Result<(), String> {
    for op in ops {
        let (Op::Insert { prefix, len, .. } | Op::Remove { prefix, len }) = *op;
        let m = sysnet::lpm::mask(len);
        let base = prefix & m;
        for addr in [
            base,
            base | !m,
            base.wrapping_sub(1),
            (base | !m).wrapping_add(1),
        ] {
            if trie.lookup(addr) != linear.lookup(addr) {
                return Err(format!(
                    "{addr:#010x}: trie {:?}, linear {:?}",
                    trie.lookup(addr),
                    linear.lookup(addr)
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    /// Insert/remove histories biased to stride boundaries agree with the
    /// linear reference after every step, and a hop-preserving re-insert
    /// leaves the generation alone.
    #[test]
    fn stride_boundary_histories_agree_with_linear_reference(
        ops in proptest::collection::vec(arb_boundary_op(), 1..80),
        probes in proptest::collection::vec(arb_anchored_addr(), 1..20),
    ) {
        let mut trie = TrieTable::new();
        let mut linear = LinearTable::new();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert { prefix, len, hop } => {
                    let gen = trie.generation();
                    let old = trie.insert(prefix, len, hop).unwrap();
                    prop_assert_eq!(old, linear.insert(prefix, len, hop).unwrap());
                    prop_assert_eq!(trie.generation() == gen, old == Some(hop));
                }
                Op::Remove { prefix, len } => {
                    prop_assert_eq!(trie.remove(prefix, len), linear.remove(prefix, len));
                }
            }
            prop_assert_eq!(trie.len(), linear.len());
            if let Err(e) = probe_all(&ops[..=i], &trie, &linear) {
                prop_assert!(false, "after op {}: {}", i, e);
            }
        }
        for &addr in &probes {
            prop_assert_eq!(trie.lookup(addr), linear.lookup(addr));
        }
    }
}

#[test]
fn removal_restores_the_shorter_route_expanded_into_the_same_node() {
    // Each ladder sits inside one node: the root (/0../4), level 1
    // (/5../8) and the deepest level (/29../32). Removing the longest
    // route must hand its slots back to the next-shorter one, not to
    // nothing and not to the shortest.
    let ladders: [&[(u32, u8)]; 3] = [
        &[(0, 0), (0, 2), (0, 3), (0, 4)],
        &[
            (0x0800_0000, 5),
            (0x0800_0000, 6),
            (0x0A00_0000, 7),
            (0x0A00_0000, 8),
        ],
        &[
            (0x0A01_0200, 29),
            (0x0A01_0200, 30),
            (0x0A01_0202, 31),
            (0x0A01_0203, 32),
        ],
    ];
    for ladder in ladders {
        let mut trie = TrieTable::new();
        let mut linear = LinearTable::new();
        for (hop, &(prefix, len)) in (1u16..).zip(ladder) {
            trie.insert(prefix, len, hop).unwrap();
            linear.insert(prefix, len, hop).unwrap();
        }
        let (deepest, _) = ladder[ladder.len() - 1];
        // Remove from the longest down; after each removal the deepest
        // address resolves to the next-shorter route.
        for (n, &(prefix, len)) in ladder.iter().enumerate().rev() {
            assert_eq!(trie.remove(prefix, len), linear.remove(prefix, len));
            let want = u16::try_from(n).expect("short ladder");
            assert_eq!(trie.lookup(deepest), (want > 0).then_some(want));
            assert_eq!(trie.lookup(deepest), linear.lookup(deepest));
        }
        assert!(trie.is_empty());
        assert_eq!(trie.node_count(), 1, "every node but the root is pruned");
    }
}

#[test]
fn removing_a_middle_route_keeps_the_longer_and_restores_the_shorter() {
    // /5 and /7 share the level-1 node; /6 sits between them. Removing the
    // /6 must leave the /7's slots alone and give the /6's remaining slots
    // back to the /5.
    let mut trie = TrieTable::new();
    trie.insert(0x0800_0000, 5, 1u16).unwrap();
    trie.insert(0x0800_0000, 6, 2).unwrap();
    trie.insert(0x0A00_0000, 7, 3).unwrap();
    assert_eq!(trie.lookup(0x0900_0000), Some(2));
    assert_eq!(trie.remove(0x0800_0000, 6).unwrap(), Some(2));
    assert_eq!(
        trie.lookup(0x0900_0000),
        Some(1),
        "the /6 falls back to the /5"
    );
    assert_eq!(trie.lookup(0x0B00_0000), Some(3), "the /7 is untouched");
    assert_eq!(trie.lookup(0x0C00_0000), Some(1));
    assert_eq!(trie.lookup(0x1000_0000), None);
}

#[test]
fn reinstalling_a_route_with_a_new_hop_rewrites_every_expanded_slot() {
    for (prefix, len) in [
        (0, 0),
        (0x0800_0000, 5),
        (0x0A01_0200, 30),
        (0x0A01_0203, 32),
    ] {
        let mut trie = TrieTable::new();
        trie.insert(prefix, len, 1u16).unwrap();
        assert_eq!(trie.insert(prefix, len, 2).unwrap(), Some(1));
        let m = sysnet::lpm::mask(len);
        assert_eq!(trie.lookup(prefix), Some(2), "{prefix:#010x}/{len} base");
        assert_eq!(
            trie.lookup(prefix | !m),
            Some(2),
            "{prefix:#010x}/{len} end"
        );
    }
}
