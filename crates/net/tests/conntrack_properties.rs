//! Adversarial property tests for the conntrack flow table.
//!
//! The table's intrusive structure (slab + per-state recency lists + hash
//! chains + free list) has exactly the pointer-soup shape the paper says
//! systems code cannot avoid — so it gets the LangSec treatment: arbitrary
//! segment sequences, hostile flag combinations, time jumps past every
//! timeout, and sweeps at random moments, with [`Conntrack::check_invariants`]
//! auditing the whole structure along the way. A differential property
//! pins the zero-copy frame path ([`route_frame`]) to the direct
//! [`Conntrack::admit_tcp`] summary path: same inputs, same verdicts, same
//! final table.

use proptest::prelude::*;
use sysfault::{FaultInjector, FaultPlan, Schedule};
use sysnet::conntrack::{EvictCause, FlowState, NatRewrite, TcpSummary, SITE_CT_STATE_DESYNC};
use sysnet::lpm::TrieTable;
use sysnet::pipeline::route_frame;
use sysnet::{Conntrack, ConntrackConfig, FlowKey};
use sysrepr::packet::{PacketBuilder, IPPROTO_TCP, TCP_ACK, TCP_FIN, TCP_RST, TCP_SYN};

/// One adversarial step against the table.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Admit a segment for the keyed flow.
    Segment {
        /// Index into the small endpoint pool (collisions guaranteed).
        flow: usize,
        /// Reverse the direction (same canonical key, swapped endpoints).
        reverse: bool,
        flags: u8,
        /// `None` = echo the shard's cookie + 1 (a well-behaved client);
        /// `Some(n)` = an arbitrary, usually wrong, acknowledgment.
        ack_no: Option<u32>,
    },
    /// Advance virtual time.
    Tick { ns: u64 },
    /// Run the watchdog sweep now.
    Sweep,
}

/// A small endpoint pool: collisions, bidirectional traffic, and enough
/// distinct flows to overflow an 8-entry table.
fn endpoints(flow: usize) -> (u32, u32, u16, u16) {
    let f = flow % 24;
    let src = u32::from_be_bytes([172, 16, 0, (f % 6) as u8]);
    let dst = u32::from_be_bytes([10, 0, 0, (f / 6) as u8]);
    (src, dst, 40_000 + (f % 4) as u16, 443)
}

fn key_of(flow: usize) -> FlowKey {
    let (src, dst, sport, dport) = endpoints(flow);
    FlowKey::canonical(src, dst, sport, dport, IPPROTO_TCP)
}

fn arb_flags() -> impl Strategy<Value = u8> {
    prop_oneof![
        3 => Just(TCP_SYN),
        3 => Just(TCP_ACK),
        2 => Just(TCP_SYN | TCP_ACK),
        1 => Just(TCP_FIN | TCP_ACK),
        1 => Just(TCP_RST),
        1 => Just(TCP_FIN),
        1 => any::<u8>(),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0usize..24, any::<bool>(), arb_flags(), prop_oneof![
                2 => Just(None),
                1 => any::<u32>().prop_map(Some),
            ])
            .prop_map(|(flow, reverse, flags, ack_no)| Op::Segment { flow, reverse, flags, ack_no }),
        2 => (0u64..3_000_000_000).prop_map(|ns| Op::Tick { ns }),
        1 => Just(Op::Sweep),
    ]
}

fn tiny_config(defense: bool) -> ConntrackConfig {
    ConntrackConfig {
        max_flows: 8,
        syn_backlog: 3,
        sweep_batch: 4,
        overload_defense: defense,
        ..ConntrackConfig::default()
    }
}

fn summary_of(flags: u8, ack_no: u32) -> TcpSummary {
    TcpSummary {
        syn: flags & TCP_SYN != 0,
        ack: flags & TCP_ACK != 0,
        fin: flags & TCP_FIN != 0,
        rst: flags & TCP_RST != 0,
        ack_no,
    }
}

proptest! {
    /// Any op sequence leaves the intrusive structure sound: no panics,
    /// bounds hold after every step, and the full structural audit passes
    /// at every sweep and at the end. Runs with the defense both on and
    /// off, since the two modes take disjoint eviction paths.
    #[test]
    fn hostile_segments_never_break_the_structure(
        ops in proptest::collection::vec(arb_op(), 1..200),
        defense in any::<bool>(),
    ) {
        let cfg = tiny_config(defense);
        let mut ct = Conntrack::new(cfg);
        let mut now = 0u64;
        for op in &ops {
            match *op {
                Op::Segment { flow, reverse, flags, ack_no } => {
                    let key = key_of(flow);
                    let ack = ack_no.unwrap_or_else(|| ct.cookie(&key).wrapping_add(1));
                    // reverse shares the canonical key by construction.
                    let _ = reverse;
                    let _ = ct.admit_tcp(&key, summary_of(flags, ack), now);
                }
                Op::Tick { ns } => now += ns,
                Op::Sweep => {
                    ct.sweep(now);
                    ct.check_invariants().expect("audit after sweep");
                }
            }
            prop_assert!(ct.len() <= cfg.max_flows, "len {} > cap", ct.len());
            prop_assert!(ct.half_open_len() <= ct.len());
            if defense {
                prop_assert!(
                    ct.half_open_len() <= cfg.syn_backlog,
                    "backlog breached: {} > {}",
                    ct.half_open_len(),
                    cfg.syn_backlog
                );
            }
        }
        ct.check_invariants().expect("final audit");
        // Stats conservation: everything created (cookie establishments
        // included — `insert` counts them too) was either removed or is
        // still live.
        let s = ct.stats();
        prop_assert_eq!(s.flows_created, s.removed_total() + ct.len() as u64);
        prop_assert!(s.cookie_established <= s.flows_created);
    }

    /// With the defense on, overload never cannibalizes established flows:
    /// the naive-LRU eviction cause stays at zero no matter the traffic.
    #[test]
    fn defense_never_evicts_established_flows(
        ops in proptest::collection::vec(arb_op(), 1..200),
    ) {
        let mut ct = Conntrack::new(tiny_config(true));
        let mut now = 0u64;
        for op in &ops {
            match *op {
                Op::Segment { flow, flags, ack_no, .. } => {
                    let key = key_of(flow);
                    let ack = ack_no.unwrap_or_else(|| ct.cookie(&key).wrapping_add(1));
                    let _ = ct.admit_tcp(&key, summary_of(flags, ack), now);
                }
                Op::Tick { ns } => now += ns,
                Op::Sweep => { ct.sweep(now); }
            }
            prop_assert_eq!(
                ct.stats().removed[EvictCause::Lru as usize], 0,
                "defense-on run took the naive-LRU eviction path"
            );
        }
    }

    /// Differential: the zero-copy frame path and the direct summary path
    /// agree packet by packet — same admit/shed verdicts, same live set,
    /// same counters. Catches key-canonicalization or parse drift between
    /// `route_frame` (tracker, no pool) and `admit_tcp`.
    #[test]
    fn frame_path_matches_summary_path(
        ops in proptest::collection::vec(arb_op(), 1..120),
        defense in any::<bool>(),
    ) {
        let cfg = tiny_config(defense);
        let mut by_frame = Conntrack::new(cfg);
        let mut by_summary = Conntrack::new(cfg);
        let mut table = TrieTable::new();
        table.insert(0, 0, 1u16).unwrap();
        let mut now = 0u64;
        for op in &ops {
            match *op {
                Op::Segment { flow, reverse, flags, ack_no } => {
                    let (mut src, mut dst, mut sport, mut dport) = endpoints(flow);
                    if reverse {
                        std::mem::swap(&mut src, &mut dst);
                        std::mem::swap(&mut sport, &mut dport);
                    }
                    let key = FlowKey::canonical(src, dst, sport, dport, IPPROTO_TCP);
                    let ack = ack_no.unwrap_or_else(|| by_frame.cookie(&key).wrapping_add(1));
                    let mut frame = PacketBuilder::tcp()
                        .src_ip(src.to_be_bytes())
                        .dst_ip(dst.to_be_bytes())
                        .src_port(sport)
                        .dst_port(dport)
                        .tcp_flags(flags)
                        .ack_no(ack)
                        .build();
                    let via_frame =
                        route_frame::<false, _>(&mut frame, &table, None, Some((&mut by_frame, None)), now)
                            .map(|_| ());
                    let via_summary = by_summary.admit_tcp(&key, summary_of(flags, ack), now);
                    prop_assert_eq!(via_frame, via_summary, "paths disagree on a packet");
                }
                Op::Tick { ns } => now += ns,
                Op::Sweep => {
                    by_frame.sweep(now);
                    by_summary.sweep(now);
                }
            }
        }
        prop_assert_eq!(by_frame.len(), by_summary.len());
        prop_assert_eq!(by_frame.half_open_len(), by_summary.half_open_len());
        prop_assert_eq!(by_frame.cookie_mode(), by_summary.cookie_mode());
        prop_assert_eq!(by_frame.stats(), by_summary.stats());
        by_frame.check_invariants().expect("frame-path audit");
        by_summary.check_invariants().expect("summary-path audit");
    }
}

/// One adversarial step against a hairpinned NAT pair.
#[derive(Debug, Clone, Copy)]
enum HairpinOp {
    /// A segment arriving under the client↔VIP key (`false`) or the
    /// self-loop client↔backend key (`true`).
    Segment {
        by_reply: bool,
        flags: u8,
        ack_no: u32,
    },
    /// Advance virtual time.
    Tick { ns: u64 },
    /// Run the watchdog sweep now.
    Sweep,
    /// Re-install the pair if a teardown removed it (the balancer would on
    /// the client's next VIP SYN).
    Reinsert,
    /// The balancer's eject path for the assigned backend.
    Eject,
}

fn arb_hairpin_op() -> impl Strategy<Value = HairpinOp> {
    prop_oneof![
        6 => (any::<bool>(), arb_flags(), any::<u32>()).prop_map(|(by_reply, flags, ack_no)| {
            HairpinOp::Segment { by_reply, flags, ack_no }
        }),
        2 => (1u64..30_000_000_000).prop_map(|ns| HairpinOp::Tick { ns }),
        1 => Just(HairpinOp::Sweep),
        1 => Just(HairpinOp::Reinsert),
        1 => Just(HairpinOp::Eject),
    ]
}

proptest! {
    /// Hairpin: the backend host dials its own VIP, so the post-rewrite
    /// (reply) tuple is a self-loop on one host and shares its endpoints
    /// with the pre-rewrite key's client half. Under arbitrary segments by
    /// either key, time jumps, sweeps, teardowns, and backend ejections,
    /// the twins live and die strictly together — never a half-pair — and
    /// the rewrite tuple reads identically through both keys.
    #[test]
    fn hairpin_twins_stay_in_lockstep(
        ops in proptest::collection::vec(arb_hairpin_op(), 1..120),
        defense in any::<bool>(),
    ) {
        let backend_host = u32::from_be_bytes([10, 50, 0, 2]);
        let vip = u32::from_be_bytes([10, 200, 0, 1]);
        let orig = FlowKey::canonical(backend_host, vip, 7_777, 80, IPPROTO_TCP);
        let reply =
            FlowKey::canonical(backend_host, backend_host, 7_777, 8_080, IPPROTO_TCP);
        let nat = NatRewrite {
            client_ip: backend_host,
            client_port: 7_777,
            vip,
            vport: 80,
            backend_ip: backend_host,
            backend_port: 8_080,
            backend: 7,
        };
        let mut ct = Conntrack::new(tiny_config(defense));
        ct.insert_nat(&orig, &reply, nat, FlowState::Established, 0)
            .expect("pair fits an empty table");
        let mut now = 0u64;
        for op in &ops {
            match *op {
                HairpinOp::Segment { by_reply, flags, ack_no } => {
                    let key = if by_reply { reply } else { orig };
                    // create=false is the balancer's shed semantics: only a
                    // VIP assignment may create flows on this path.
                    if let Ok(got) = ct.admit_tcp_nat(&key, summary_of(flags, ack_no), now, false) {
                        prop_assert_eq!(got, Some(nat), "rewrite tuple drifted");
                    }
                }
                HairpinOp::Tick { ns } => now += ns,
                HairpinOp::Sweep => {
                    ct.sweep(now);
                    ct.check_invariants().expect("audit after sweep");
                }
                HairpinOp::Reinsert => {
                    if !ct.contains(&orig) {
                        ct.insert_nat(&orig, &reply, nat, FlowState::Established, now)
                            .expect("both keys are free after a paired removal");
                    }
                }
                HairpinOp::Eject => {
                    let present = ct.contains(&orig);
                    let freed = ct.eject_backend(nat.backend, EvictCause::BackendDead);
                    prop_assert_eq!(freed, if present { 2 } else { 0 });
                }
            }
            prop_assert_eq!(ct.contains(&orig), ct.contains(&reply), "twin lockstep broken");
            if ct.contains(&orig) {
                prop_assert_eq!(ct.nat_of(&orig), Some(nat));
                prop_assert_eq!(ct.nat_of(&reply), Some(nat));
            }
        }
        ct.check_invariants().expect("final audit");
    }
}

/// A fixed xorshift64* stream: the recency-digest run must be the same
/// sequence of ops on every build.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fold(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

/// The rewrite tuple and both keys of NAT pair `p`: client `p` dials one
/// VIP and is balanced to backend `p % 4`.
fn recency_pair(p: u64) -> (FlowKey, FlowKey, NatRewrite) {
    let backend = (p % 4) as u16;
    let nat = NatRewrite {
        client_ip: u32::from_be_bytes([172, 20, 0, p as u8]),
        client_port: 41_000 + p as u16,
        vip: u32::from_be_bytes([10, 200, 0, 1]),
        vport: 80,
        backend_ip: u32::from_be_bytes([10, 50, 0, backend as u8]),
        backend_port: 8_080,
        backend,
    };
    let orig = FlowKey::canonical(
        nat.client_ip,
        nat.vip,
        nat.client_port,
        nat.vport,
        IPPROTO_TCP,
    );
    let reply = FlowKey::canonical(
        nat.client_ip,
        nat.backend_ip,
        nat.client_port,
        nat.backend_port,
        IPPROTO_TCP,
    );
    (orig, reply, nat)
}

/// Runs 4 000 seeded ops over 12 NAT pairs and 10 plain flows against `ct`
/// and returns the digest of every op's result together with `len`,
/// `half_open_len`, `cookie_mode` and `stats().removed` after it. Which
/// entry the sweep, the backlog-pressure evictor and the LRU evictor take
/// depends on recency order, so the digest pins that order.
fn recency_digest(mut ct: Conntrack) -> (u64, Conntrack) {
    const FLAGS: [u8; 6] = [
        TCP_SYN,
        TCP_ACK,
        TCP_SYN | TCP_ACK,
        TCP_FIN | TCP_ACK,
        TCP_RST,
        TCP_FIN,
    ];
    let mut rng = Stream(0x005E_ED0F_2EC0);
    let mut now = 0u64;
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for _ in 0..4_000 {
        now += rng.below(200_000_000);
        let (orig, reply, nat) = recency_pair(rng.below(12));
        let key = if rng.below(2) == 0 { orig } else { reply };
        let flags = if rng.below(8) == 0 {
            rng.next() as u8
        } else {
            FLAGS[rng.below(FLAGS.len() as u64) as usize]
        };
        let result = match rng.below(100) {
            0..=19 => {
                let state = if rng.below(2) == 0 {
                    FlowState::SynSeen
                } else {
                    FlowState::Established
                };
                format!("insert {:?}", ct.insert_nat(&orig, &reply, nat, state, now))
            }
            20..=54 => {
                let ack_no = if rng.below(2) == 0 {
                    ct.cookie(&key).wrapping_add(1)
                } else {
                    rng.next() as u32
                };
                let create = rng.below(2) == 0;
                let got = ct.admit_tcp_nat(&key, summary_of(flags, ack_no), now, create);
                format!("admit {got:?}")
            }
            55..=69 => {
                let plain = key_of(rng.below(10) as usize);
                let ack_no = if rng.below(2) == 0 {
                    ct.cookie(&plain).wrapping_add(1)
                } else {
                    rng.next() as u32
                };
                let got = ct.admit_tcp_nat(&plain, summary_of(flags, ack_no), now, true);
                format!("plain {got:?}")
            }
            70..=84 => format!("refresh {:?}", ct.refresh_nat(&key, now)),
            85..=89 => {
                now += rng.below(6_000_000_000);
                format!("sweep {}", ct.sweep(now))
            }
            90..=96 => format!("sweep {}", ct.sweep(now)),
            _ => format!(
                "eject {}",
                ct.eject_backend(rng.below(4) as u16, EvictCause::BackendDead)
            ),
        };
        h = fold(h, result.as_bytes());
        h = fold(h, &(ct.len() as u64).to_le_bytes());
        h = fold(h, &(ct.half_open_len() as u64).to_le_bytes());
        h = fold(h, &[u8::from(ct.cookie_mode())]);
        // The digests were pinned when `removed` had a seventh slot, sixth
        // in order, for a cause nothing ever counted; folding its zero in
        // place keeps them.
        let removed = ct.stats().removed;
        for n in removed[..5].iter().chain(&[0]).chain(&removed[5..]) {
            h = fold(h, &n.to_le_bytes());
        }
        // `insert_nat` creates half-open pairs without the backlog gate (the
        // VIP-SYN bypass, ROADMAP item 1), so with the defense on the
        // backlog bound alone may be breached; the digest records when.
        let breach = match ct.check_invariants() {
            Ok(()) => 0,
            Err(e) if e.contains("exceeds syn_backlog") => 1,
            Err(e) => panic!("audit after op: {e}"),
        };
        h = fold(h, &[breach]);
    }
    (h, ct)
}

/// Pins the order in which NAT pairs and plain flows age, so that a change
/// to how a pair is linked into the recency lists shows up as a changed
/// digest. Each configuration is checked to take the eviction path it is
/// there for.
#[test]
fn pair_recency_order_is_pinned() {
    let tiny = ConntrackConfig {
        max_flows: 12,
        syn_backlog: 4,
        sweep_batch: 4,
        syn_timeout_ns: 3_000_000_000,
        established_timeout_ns: 20_000_000_000,
        fin_timeout_ns: 8_000_000_000,
        ..ConntrackConfig::default()
    };

    let (digest, ct) = recency_digest(Conntrack::new(tiny));
    let removed = ct.stats().removed;
    assert!(
        removed[EvictCause::HalfOpenPressure as usize] > 0,
        "backlog pressure never fired"
    );
    assert!(
        ct.stats().cookie_mode_entries > 0,
        "cookie mode never engaged"
    );
    assert_eq!(digest, 0x13a9_83d2_01e4_b4cb, "defense-on digest");

    let (digest, ct) = recency_digest(Conntrack::new(ConntrackConfig {
        overload_defense: false,
        ..tiny
    }));
    assert!(
        ct.stats().removed[EvictCause::Lru as usize] > 0,
        "LRU eviction never fired"
    );
    assert_eq!(digest, 0xce01_e163_4488_1656, "defense-off digest");

    let plan = FaultPlan::new(31).with_site(SITE_CT_STATE_DESYNC, Schedule::Probability(0.1));
    let (digest, ct) = recency_digest(Conntrack::new(tiny).with_injector(FaultInjector::new(plan)));
    assert!(ct.stats().desyncs_injected > 0, "state desync never fired");
    assert_eq!(digest, 0xd327_2340_4e48_0a2f, "state-desync digest");
}
