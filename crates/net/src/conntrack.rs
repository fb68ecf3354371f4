//! Connection tracking with overload defense — the L4 flow layer.
//!
//! The router forwards packets; production traffic is *flows*. This module
//! adds the state between the two: a per-worker (sharded) flow table keyed
//! by the canonical 5-tuple (hash-chained, its bucket picked by two
//! multiplies over the key's words rather than a byte-serial fold, since
//! every tracked packet pays for the bucket before its first dependent
//! load), a TCP state machine driven off the zero-copy
//! [`sysrepr::packet::TcpView`] flags, and — because a flow table is a
//! finite resource an attacker can aim at — explicit overload defense:
//!
//! * **Bounded memory by construction.** Every slot is allocated at
//!   start-up into a slab; the table *cannot* exceed `max_flows` entries
//!   no matter the traffic (the paper's Challenge 2: idiomatic resource
//!   management without a collector). Steady state allocates nothing.
//! * **Per-state LRU + timeout eviction.** Each state (half-open,
//!   established, closing) keeps its own intrusive recency list, swept by
//!   a bounded-work watchdog pass (`sweep`) with per-state idle timeouts —
//!   the kernel watchdog pattern applied to flow state.
//! * **SYN-backlog admission control.** Half-open entries are capped
//!   separately (`syn_backlog`); under pressure the *oldest half-open* is
//!   evicted, never an established flow. When half-open churn exhausts the
//!   budget the shard flips into a SYN-cookie-style **stateless fallback**:
//!   SYNs are forwarded without creating state and a flow is established
//!   only by an ACK that echoes the shard's cookie for that 5-tuple.
//!   Established flows keep forwarding at full rate; the flood is shed
//!   with typed [`DropReason`]s.
//!
//! Failure is a first-class input: three `sysfault` sites
//! ([`SITE_CT_TABLE_FULL`], [`SITE_CT_TIMER_STALL`],
//! [`SITE_CT_STATE_DESYNC`]) let a seeded campaign force the shed paths,
//! stall the watchdog, and corrupt per-flow state, and
//! [`Conntrack::check_invariants`] audits the slab/bucket/list structure
//! so campaigns can assert the table survived. Cross-shard accounting
//! ([`ConntrackShared`]) runs on the `syscheck` shim atomics, so the
//! insert/evict/teardown charge protocol is model-checkable
//! (`tests/conntrack_model.rs`).

use crate::pipeline::DropReason;
use std::sync::Arc;
use syscheck::shim::AtomicU64;
use sysfault::FaultInjector;

/// Fault site: an insert behaves as if the table had no evictable capacity.
pub const SITE_CT_TABLE_FULL: &str = "net.conntrack.table_full";
/// Fault site: a due watchdog sweep is skipped (timer stall).
pub const SITE_CT_TIMER_STALL: &str = "net.conntrack.timer_stall";
/// Fault site: a looked-up established flow's state is corrupted to
/// `FinWait` before processing (state desync); the machine must tear the
/// flow down cleanly instead of wedging.
pub const SITE_CT_STATE_DESYNC: &str = "net.conntrack.state_desync";

const NIL: u32 = u32::MAX;

/// A connection's 5-tuple, canonicalized so both directions of one
/// connection map to the same entry (the smaller `(ip, port)` endpoint is
/// stored first, as in kernel conntrack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// First endpoint address (canonical order).
    pub a_ip: u32,
    /// Second endpoint address.
    pub b_ip: u32,
    /// First endpoint port.
    pub a_port: u16,
    /// Second endpoint port.
    pub b_port: u16,
    /// IP protocol number.
    pub proto: u8,
}

impl FlowKey {
    /// Builds the canonical key for a packet seen in either direction.
    #[must_use]
    pub fn canonical(src: u32, dst: u32, sport: u16, dport: u16, proto: u8) -> Self {
        if (src, sport) <= (dst, dport) {
            FlowKey {
                a_ip: src,
                b_ip: dst,
                a_port: sport,
                b_port: dport,
                proto,
            }
        } else {
            FlowKey {
                a_ip: dst,
                b_ip: src,
                a_port: dport,
                b_port: sport,
                proto,
            }
        }
    }

    fn pack(&self) -> [u8; 13] {
        let mut b = [0u8; 13];
        b[0..4].copy_from_slice(&self.a_ip.to_be_bytes());
        b[4..8].copy_from_slice(&self.b_ip.to_be_bytes());
        b[8..10].copy_from_slice(&self.a_port.to_be_bytes());
        b[10..12].copy_from_slice(&self.b_port.to_be_bytes());
        b[12] = self.proto;
        b
    }

    /// FNV-1a hash of the packed tuple: the key backend selection
    /// ([`crate::lb::BackendPool::select`]) ranks backends by, so a flow's
    /// backend is a function of its 5-tuple alone.
    #[must_use]
    pub fn hash(&self) -> u64 {
        sysobs::fnv1a(&self.pack())
    }
}

/// The bucket hash: the key's address word times one odd constant, the
/// ports and protocol xored in, and the result times a second odd
/// constant. A product's top bits depend on every bit of its input, so the
/// top bits [`Conntrack::bucket_of`] keeps mix all 13 key bytes in two
/// multiplies, where FNV-1a takes 13 serial steps. Bucket placement
/// decides no outcome: keys are unique and no list or eviction order reads
/// a bucket. The hash is not keyed.
fn bucket_hash(key: &FlowKey) -> u64 {
    let addrs = (u64::from(key.a_ip) << 32) | u64::from(key.b_ip);
    let rest = (u64::from(key.a_port) << 24) | (u64::from(key.b_port) << 8) | u64::from(key.proto);
    (addrs.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ rest).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// The TCP flags a tracking decision needs, lifted out of a
/// [`sysrepr::packet::TcpView`] (or synthesized in tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpSummary {
    /// SYN flag.
    pub syn: bool,
    /// ACK flag.
    pub ack: bool,
    /// FIN flag.
    pub fin: bool,
    /// RST flag.
    pub rst: bool,
    /// Acknowledgment number (cookie validation in fallback mode).
    pub ack_no: u32,
}

impl TcpSummary {
    /// Extracts the summary from a parsed TCP view.
    #[must_use]
    pub fn from_view(tcp: &sysrepr::packet::TcpView<'_>) -> Self {
        TcpSummary {
            syn: tcp.syn(),
            ack: tcp.ack_flag(),
            fin: tcp.fin(),
            rst: tcp.rst(),
            ack_no: tcp.ack(),
        }
    }
}

/// A tracked flow's state. Indexes the per-state recency lists, timeout
/// table, and packet counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowState {
    /// Half-open: SYN seen, handshake ACK not yet.
    SynSeen = 0,
    /// Handshake complete; the protected class.
    Established = 1,
    /// FIN seen; draining toward close.
    FinWait = 2,
}

/// Number of [`FlowState`] variants.
pub const FLOW_STATES: usize = 3;

/// Why an entry left the table. Indexes [`ConntrackStats::removed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictCause {
    /// Idle past its state's timeout (watchdog sweep).
    Timeout = 0,
    /// Displaced by LRU when the table was full (defense off only).
    Lru = 1,
    /// Oldest half-open displaced under SYN-backlog pressure.
    HalfOpenPressure = 2,
    /// Graceful FIN close.
    Fin = 3,
    /// RST teardown.
    Rst = 4,
    /// Torn down after injected state desync drained it.
    Desync = 5,
    /// NAT'd flow ejected because its assigned backend died
    /// ([`Conntrack::eject_backend`]).
    BackendDead = 6,
}

/// Number of [`EvictCause`] variants.
pub const EVICT_CAUSES: usize = 7;

/// Sizing and policy knobs for one [`Conntrack`] shard.
#[derive(Debug, Clone, Copy)]
pub struct ConntrackConfig {
    /// Hard entry bound per shard (slab size; allocated up front).
    pub max_flows: usize,
    /// Half-open entry budget per shard (≤ `max_flows`).
    pub syn_backlog: usize,
    /// Idle timeout for half-open entries, ns.
    pub syn_timeout_ns: u64,
    /// Idle timeout for established entries, ns.
    pub established_timeout_ns: u64,
    /// Idle timeout for closing entries, ns.
    pub fin_timeout_ns: u64,
    /// Minimum interval between watchdog sweeps, ns.
    pub sweep_interval_ns: u64,
    /// Maximum evictions per sweep call (bounded work — the sweep shares
    /// the worker thread with the data path).
    pub sweep_batch: usize,
    /// Secret mixed into the stateless SYN cookie.
    pub cookie_secret: u64,
    /// When false, every defense is disabled: no backlog cap, no cookie
    /// fallback, and a full table evicts the globally least-recent entry —
    /// established flows included. The naive tracker E14 measures against.
    pub overload_defense: bool,
}

impl Default for ConntrackConfig {
    fn default() -> Self {
        ConntrackConfig {
            max_flows: 65_536,
            syn_backlog: 8_192,
            syn_timeout_ns: 5_000_000_000,
            established_timeout_ns: 300_000_000_000,
            fin_timeout_ns: 30_000_000_000,
            sweep_interval_ns: 100_000_000,
            sweep_batch: 256,
            cookie_secret: 0xC00C_1E5E_C2E7,
            overload_defense: true,
        }
    }
}

/// Counters one shard accumulates (single-owner plain integers; the router
/// aggregates per-worker copies into its report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConntrackStats {
    /// Packets admitted per (post-transition) state.
    pub pkts: [u64; FLOW_STATES],
    /// Entries created (half-open inserts).
    pub flows_created: u64,
    /// Half-open entries promoted to established by a handshake ACK.
    pub flows_promoted: u64,
    /// Flows established directly by a cookie-validated ACK.
    pub cookie_established: u64,
    /// SYNs forwarded statelessly in cookie mode.
    pub stateless_syns: u64,
    /// Entries removed, by [`EvictCause`] index.
    pub removed: [u64; EVICT_CAUSES],
    /// Transitions into the stateless fallback mode.
    pub cookie_mode_entries: u64,
    /// Transitions back out of it.
    pub cookie_mode_exits: u64,
    /// Watchdog sweeps skipped by the injected timer stall.
    pub timer_stalls: u64,
    /// Injected state desyncs applied.
    pub desyncs_injected: u64,
    /// Most entries ever live at once (must stay ≤ `max_flows`).
    pub peak_flows: u64,
    /// Most half-open entries ever live at once.
    pub peak_half_open: u64,
    /// Structure-audit failures ([`Conntrack::check_invariants`]).
    pub invariant_violations: u64,
}

impl ConntrackStats {
    /// Total removals across all causes.
    #[must_use]
    pub fn removed_total(&self) -> u64 {
        self.removed.iter().sum()
    }

    /// Accumulates another shard's counters (peaks take the max).
    pub fn merge(&mut self, other: &ConntrackStats) {
        for (a, b) in self.pkts.iter_mut().zip(other.pkts.iter()) {
            *a += b;
        }
        self.flows_created += other.flows_created;
        self.flows_promoted += other.flows_promoted;
        self.cookie_established += other.cookie_established;
        self.stateless_syns += other.stateless_syns;
        for (a, b) in self.removed.iter_mut().zip(other.removed.iter()) {
            *a += b;
        }
        self.cookie_mode_entries += other.cookie_mode_entries;
        self.cookie_mode_exits += other.cookie_mode_exits;
        self.timer_stalls += other.timer_stalls;
        self.desyncs_injected += other.desyncs_injected;
        self.peak_flows = self.peak_flows.max(other.peak_flows);
        self.peak_half_open = self.peak_half_open.max(other.peak_half_open);
        self.invariant_violations += other.invariant_violations;
    }
}

/// Cross-shard flow accounting: a global live-entry gauge with a hard cap,
/// charged on insert and released on removal. Runs on the `syscheck` shim
/// atomics so the charge/release protocol itself is model-checkable — the
/// interesting interleavings are insert-vs-insert at the cap boundary and
/// evict-then-reinsert races between shards.
#[derive(Debug)]
pub struct ConntrackShared {
    live: AtomicU64,
    limit: u64,
    cookie_shards: AtomicU64,
}

impl ConntrackShared {
    /// A shared gauge capped at `limit` total entries across all shards.
    #[must_use]
    pub fn new(limit: u64) -> Self {
        ConntrackShared {
            live: AtomicU64::new(0),
            limit,
            cookie_shards: AtomicU64::new(0),
        }
    }

    /// The global cap.
    #[must_use]
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Entries currently charged across all shards.
    #[must_use]
    pub fn live(&self) -> u64 {
        self.live.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Shards currently in stateless fallback mode.
    #[must_use]
    pub fn cookie_shards(&self) -> u64 {
        self.cookie_shards
            .load(std::sync::atomic::Ordering::Acquire)
    }

    /// Attempts to charge one entry; `false` means the global cap is spent.
    /// A CAS loop (not a blind `fetch_add`) so the gauge can never
    /// overshoot the cap, even transiently — the property the model test
    /// pins.
    pub fn try_charge(&self) -> bool {
        use std::sync::atomic::Ordering;
        let mut cur = self.live.load(Ordering::Acquire);
        loop {
            if cur >= self.limit {
                return false;
            }
            match self
                .live
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Releases one charge.
    ///
    /// # Panics
    ///
    /// Panics on underflow — releasing a charge that was never taken means
    /// the shard-side accounting is corrupt.
    pub fn uncharge(&self) {
        use std::sync::atomic::Ordering;
        let prev = self.live.fetch_sub(1, Ordering::AcqRel);
        assert!(prev > 0, "conntrack shared gauge underflow");
    }

    /// Records one shard entering (`true`) or leaving (`false`) cookie mode.
    pub fn set_cookie_shard(&self, entering: bool) {
        use std::sync::atomic::Ordering;
        if entering {
            self.cookie_shards.fetch_add(1, Ordering::AcqRel);
        } else {
            let prev = self.cookie_shards.fetch_sub(1, Ordering::AcqRel);
            assert!(prev > 0, "cookie-shard gauge underflow");
        }
    }
}

/// The NAT rewrite tuple a load-balanced flow carries: the client's
/// endpoint, the virtual (VIP) endpoint it dialed, and the backend endpoint
/// the balancer assigned. Stored in the conntrack entry so the forward path
/// can rewrite either direction from one lookup — and so the *direction* of
/// a packet is decided by comparing its endpoints against these, never by
/// the canonical key (which a hairpinned reply can collide with).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NatRewrite {
    /// Client address.
    pub client_ip: u32,
    /// Client port.
    pub client_port: u16,
    /// Virtual (advertised) address the client dialed.
    pub vip: u32,
    /// Virtual port.
    pub vport: u16,
    /// Assigned backend address.
    pub backend_ip: u32,
    /// Assigned backend port.
    pub backend_port: u16,
    /// Index of the backend in its [`crate::lb::BackendPool`] — drain and
    /// ejection bookkeeping.
    pub backend: u16,
}

/// One slab slot. Every live slot is on its hash bucket's chain
/// (`hash_next`); free slots reuse `next` as the free-list link. A record
/// (one tracked connection) is one slot on its state's recency list
/// (`prev`/`next`, most-recent at head), holding the state, `last_seen_ns`
/// and any rewrite. A NAT'd connection is one record with two keys: the
/// client↔VIP slot is the record, and the client↔backend slot is its
/// *reply* key, which holds only its key, its chain link and `twin` → the
/// record, is on no state list and carries no rewrite. So `twin` set with
/// `nat` unset marks a reply slot; the record's `twin` points back.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: FlowKey,
    state: FlowState,
    last_seen_ns: u64,
    prev: u32,
    next: u32,
    hash_next: u32,
    twin: u32,
    nat: Option<NatRewrite>,
}

const EMPTY_KEY: FlowKey = FlowKey {
    a_ip: 0,
    b_ip: 0,
    a_port: 0,
    b_port: 0,
    proto: 0,
};

/// One shard's connection-tracking table. Single-owner (each router worker
/// holds its own, exactly like its [`crate::cache::FlowCache`]); all memory
/// is allocated in [`Conntrack::new`].
#[derive(Debug)]
pub struct Conntrack {
    cfg: ConntrackConfig,
    buckets: Vec<u32>,
    bucket_mask: u64,
    /// `log2(buckets.len())`: [`Self::bucket_of`] keeps this many top bits
    /// of [`bucket_hash`].
    bucket_bits: u32,
    slots: Vec<Slot>,
    free_head: u32,
    /// Per-state recency lists: `[head, tail]` per [`FlowState`].
    lists: [[u32; 2]; FLOW_STATES],
    len: usize,
    half_open: usize,
    cookie_mode: bool,
    /// Half-open-pressure evictions since the last mode decision; a full
    /// backlog's worth of churn flips the shard into cookie mode.
    pressure_evictions: usize,
    last_sweep_ns: u64,
    stats: ConntrackStats,
    injector: Option<FaultInjector>,
    shared: Option<Arc<ConntrackShared>>,
    /// This shard's share of the `net.ct.live` and `net.ct.half_open`
    /// gauges, as last published.
    gauge_share: (i64, i64),
}

impl Conntrack {
    /// Builds a shard, allocating the whole slab up front.
    ///
    /// # Panics
    ///
    /// Panics if `max_flows` is zero or `syn_backlog` exceeds `max_flows`.
    #[must_use]
    pub fn new(cfg: ConntrackConfig) -> Self {
        assert!(cfg.max_flows >= 1, "conntrack needs at least one slot");
        assert!(
            cfg.syn_backlog >= 1 && cfg.syn_backlog <= cfg.max_flows,
            "syn_backlog must be in 1..=max_flows"
        );
        let n_buckets = cfg.max_flows.next_power_of_two();
        let mut slots = Vec::with_capacity(cfg.max_flows);
        for i in 0..cfg.max_flows {
            let next = if i + 1 < cfg.max_flows {
                u32::try_from(i + 1).expect("slab fits u32")
            } else {
                NIL
            };
            slots.push(Slot {
                key: EMPTY_KEY,
                state: FlowState::SynSeen,
                last_seen_ns: 0,
                prev: NIL,
                next,
                hash_next: NIL,
                twin: NIL,
                nat: None,
            });
        }
        Conntrack {
            cfg,
            buckets: vec![NIL; n_buckets],
            bucket_mask: (n_buckets - 1) as u64,
            bucket_bits: n_buckets.trailing_zeros(),
            slots,
            free_head: 0,
            lists: [[NIL; 2]; FLOW_STATES],
            len: 0,
            half_open: 0,
            cookie_mode: false,
            pressure_evictions: 0,
            last_sweep_ns: 0,
            stats: ConntrackStats::default(),
            injector: None,
            shared: None,
            gauge_share: (0, 0),
        }
    }

    /// Attaches a seeded fault injector (the three `net.conntrack.*` sites).
    #[must_use]
    pub fn with_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Attaches the cross-shard accounting gauge.
    #[must_use]
    pub fn with_shared(mut self, shared: Arc<ConntrackShared>) -> Self {
        self.shared = Some(shared);
        self
    }

    /// Entries currently tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Half-open entries currently tracked.
    #[must_use]
    pub fn half_open_len(&self) -> usize {
        self.half_open
    }

    /// Publishes this shard's live and half-open counts into the
    /// router-wide `net.ct.live` and `net.ct.half_open` gauges. A shard adds
    /// the change since its last publication instead of setting the gauge,
    /// so with several workers each gauge holds the sum over shards rather
    /// than whichever shard wrote last.
    pub fn publish_gauges(&mut self) {
        #[allow(clippy::cast_possible_wrap)]
        self.move_gauge_share((self.len as i64, self.half_open as i64));
    }

    /// Takes this shard's share back out of the gauges: a retired shard (a
    /// worker at shutdown) holds no live flows.
    pub fn withdraw_gauges(&mut self) {
        self.move_gauge_share((0, 0));
    }

    fn move_gauge_share(&mut self, to: (i64, i64)) {
        static LIVE: sysobs::GaugeCell = sysobs::GaugeCell::new();
        static HALF_OPEN: sysobs::GaugeCell = sysobs::GaugeCell::new();
        LIVE.get("net.ct.live").add(to.0 - self.gauge_share.0);
        HALF_OPEN
            .get("net.ct.half_open")
            .add(to.1 - self.gauge_share.1);
        self.gauge_share = to;
    }

    /// True while the shard is in stateless SYN-cookie fallback mode.
    #[must_use]
    pub fn cookie_mode(&self) -> bool {
        self.cookie_mode
    }

    /// The shard's counters so far.
    #[must_use]
    pub fn stats(&self) -> &ConntrackStats {
        &self.stats
    }

    /// The shard's configuration.
    #[must_use]
    pub fn config(&self) -> &ConntrackConfig {
        &self.cfg
    }

    /// Digest of the faults this shard's injector has fired (0 without an
    /// injector) — the replay handle for seeded campaigns.
    #[must_use]
    pub fn fault_digest(&self) -> u64 {
        self.injector.as_ref().map_or(0, |i| i.log().digest())
    }

    /// The stateless SYN cookie for a 5-tuple: in fallback mode a flow is
    /// established only by an ACK carrying `cookie(key) + 1` (the client
    /// echoing the sequence number the SYN-ACK derived from this value).
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn cookie(&self, key: &FlowKey) -> u32 {
        let mut buf = [0u8; 21];
        buf[..13].copy_from_slice(&key.pack());
        buf[13..].copy_from_slice(&self.cfg.cookie_secret.to_le_bytes());
        sysobs::fnv1a(&buf) as u32
    }

    // ---- intrusive-structure primitives ---------------------------------

    /// `key`'s bucket: the top `bucket_bits` bits of [`bucket_hash`],
    /// rotated down (a rotate by 0 leaves a one-bucket table at bucket 0).
    fn bucket_of(&self, key: &FlowKey) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        let b = (bucket_hash(key).rotate_left(self.bucket_bits) & self.bucket_mask) as usize;
        b
    }

    /// The record `key` belongs to: a reply key resolves to its NAT pair's
    /// record, so every caller acts on the record alone.
    fn lookup_slot(&self, key: &FlowKey) -> Option<u32> {
        let mut i = self.buckets[self.bucket_of(key)];
        while i != NIL {
            let slot = &self.slots[i as usize];
            if slot.key == *key {
                let is_reply = slot.twin != NIL && slot.nat.is_none();
                return Some(if is_reply { slot.twin } else { i });
            }
            i = slot.hash_next;
        }
        None
    }

    /// Entries record `idx` counts as in `len`, `half_open`,
    /// `flows_created`, `removed` and the peaks: one per key, so a NAT pair
    /// counts as two. How a pair counts is decided here alone; the shared
    /// gauge is charged per slab slot (`alloc_slot`, `free_slot`), which
    /// today is the same number.
    fn weight(&self, idx: u32) -> usize {
        if self.slots[idx as usize].twin == NIL {
            1
        } else {
            2
        }
    }

    fn list_push_head(&mut self, state: FlowState, idx: u32) {
        let s = state as usize;
        let head = self.lists[s][0];
        {
            let slot = &mut self.slots[idx as usize];
            slot.prev = NIL;
            slot.next = head;
            slot.state = state;
        }
        if head != NIL {
            self.slots[head as usize].prev = idx;
        } else {
            self.lists[s][1] = idx;
        }
        self.lists[s][0] = idx;
    }

    fn list_unlink(&mut self, idx: u32) {
        let (state, prev, next) = {
            let slot = &self.slots[idx as usize];
            (slot.state as usize, slot.prev, slot.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.lists[state][0] = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.lists[state][1] = prev;
        }
    }

    fn touch(&mut self, idx: u32, now_ns: u64) {
        let state = self.slots[idx as usize].state;
        self.list_unlink(idx);
        self.list_push_head(state, idx);
        self.slots[idx as usize].last_seen_ns = now_ns;
    }

    fn transition(&mut self, idx: u32, to: FlowState, now_ns: u64) {
        let from = self.slots[idx as usize].state;
        if from == FlowState::SynSeen && to != FlowState::SynSeen {
            self.half_open -= self.weight(idx);
        }
        self.list_unlink(idx);
        self.list_push_head(to, idx);
        self.slots[idx as usize].last_seen_ns = now_ns;
    }

    fn unlink_hash(&mut self, idx: u32) {
        let (b, next) = {
            let slot = &self.slots[idx as usize];
            (self.bucket_of(&slot.key), slot.hash_next)
        };
        let mut cur = self.buckets[b];
        if cur == idx {
            self.buckets[b] = next;
            return;
        }
        while cur != NIL {
            let cur_next = self.slots[cur as usize].hash_next;
            if cur_next == idx {
                self.slots[cur as usize].hash_next = next;
                return;
            }
            cur = cur_next;
        }
        unreachable!("slot {idx} missing from its bucket chain");
    }

    /// Removes record `idx`, freeing its reply key's slot with it (a
    /// half-flow without its mate is a rewrite that only works in one
    /// direction — never leave one behind).
    fn remove(&mut self, idx: u32, cause: EvictCause) {
        let weight = self.weight(idx);
        if self.slots[idx as usize].state == FlowState::SynSeen {
            self.half_open -= weight;
        }
        self.len -= weight;
        self.stats.removed[cause as usize] += weight as u64;
        self.list_unlink(idx);
        let reply = self.slots[idx as usize].twin;
        if reply != NIL {
            self.free_slot(reply);
        }
        self.free_slot(idx);
    }

    fn free_slot(&mut self, idx: u32) {
        self.unlink_hash(idx);
        let slot = &mut self.slots[idx as usize];
        slot.key = EMPTY_KEY;
        slot.prev = NIL;
        slot.hash_next = NIL;
        slot.twin = NIL;
        slot.nat = None;
        slot.next = self.free_head;
        self.free_head = idx;
        self.uncharge_one();
    }

    /// Least-recent live entry across every state list (defense-off LRU).
    fn lru_victim(&self) -> Option<u32> {
        let mut best: Option<u32> = None;
        let mut best_seen = u64::MAX;
        for s in 0..FLOW_STATES {
            let tail = self.lists[s][1];
            if tail != NIL {
                let seen = self.slots[tail as usize].last_seen_ns;
                if seen <= best_seen {
                    best_seen = seen;
                    best = Some(tail);
                }
            }
        }
        best
    }

    /// Allocates a slot for a new entry, evicting per policy when the slab
    /// (or the shared gauge) is spent. `Err` carries the typed shed reason.
    fn alloc_slot(&mut self, now_ns: u64) -> Result<u32, DropReason> {
        if let Some(inj) = &mut self.injector {
            if inj.should_fail(SITE_CT_TABLE_FULL) {
                return Err(DropReason::FlowTableFull);
            }
        }
        // Charge the cross-shard gauge first; a failed charge is a full
        // table from this shard's point of view, and local eviction (which
        // uncharges) is the only way to make room.
        if !self.charge() {
            if self.evict_for_room(now_ns) && self.charge() {
                // fall through to the slab, which now has a free slot
            } else {
                return Err(DropReason::FlowTableFull);
            }
        }
        if self.free_head == NIL && !self.evict_for_room(now_ns) {
            self.uncharge_one();
            return Err(DropReason::FlowTableFull);
        }
        let idx = self.free_head;
        self.free_head = self.slots[idx as usize].next;
        Ok(idx)
    }

    /// Tries to free one slot: the oldest half-open under defense, the
    /// global LRU entry without it. `false` means nothing was evictable.
    fn evict_for_room(&mut self, _now_ns: u64) -> bool {
        if self.cfg.overload_defense {
            let tail = self.lists[FlowState::SynSeen as usize][1];
            if tail != NIL {
                self.remove(tail, EvictCause::HalfOpenPressure);
                self.note_pressure();
                return true;
            }
            false
        } else if let Some(victim) = self.lru_victim() {
            self.remove(victim, EvictCause::Lru);
            true
        } else {
            false
        }
    }

    fn charge(&self) -> bool {
        self.shared.as_ref().is_none_or(|s| s.try_charge())
    }

    fn uncharge_one(&self) {
        if let Some(s) = &self.shared {
            s.uncharge();
        }
    }

    fn note_pressure(&mut self) {
        self.pressure_evictions += 1;
        if !self.cookie_mode && self.pressure_evictions >= self.cfg.syn_backlog {
            self.cookie_mode = true;
            self.stats.cookie_mode_entries += 1;
            // Live registry mirror: the syn-cookie-engaged trigger needs to
            // see engagement while the flood is running, not only in the
            // shard's final stats.
            sysobs::obs_count!("net.ct.cookie_mode_entries", 1);
            sysobs::obs_instant!("net.ct.cookie_mode_enter", self.stats.cookie_mode_entries);
            self.pressure_evictions = 0;
            if let Some(s) = &self.shared {
                s.set_cookie_shard(true);
            }
        }
    }

    fn insert(&mut self, key: FlowKey, state: FlowState, now_ns: u64) -> Result<u32, DropReason> {
        let idx = self.alloc_slot(now_ns)?;
        self.link(idx, key, state, now_ns, NIL);
        Ok(idx)
    }

    /// Puts allocated slot `idx` on `key`'s bucket chain: as a new record at
    /// the head of `state`'s list, or, with `record` set, as that record's
    /// reply key. Counts the entries this adds.
    fn link(&mut self, idx: u32, key: FlowKey, state: FlowState, now_ns: u64, record: u32) {
        let b = self.bucket_of(&key);
        {
            let slot = &mut self.slots[idx as usize];
            slot.key = key;
            slot.hash_next = self.buckets[b];
            slot.twin = record;
            slot.nat = None;
        }
        self.buckets[b] = idx;
        let added = if record == NIL {
            self.slots[idx as usize].last_seen_ns = now_ns;
            self.list_push_head(state, idx);
            self.weight(idx)
        } else {
            let alone = self.weight(record);
            self.slots[idx as usize].next = NIL;
            self.slots[record as usize].twin = idx;
            self.weight(record) - alone
        };
        self.len += added;
        if state == FlowState::SynSeen {
            self.half_open += added;
        }
        self.stats.peak_flows = self.stats.peak_flows.max(self.len as u64);
        self.stats.peak_half_open = self.stats.peak_half_open.max(self.half_open as u64);
        self.stats.flows_created += added as u64;
    }

    // ---- the per-packet decision ----------------------------------------

    /// Decides one TCP packet's fate: `Ok(())` admits it to routing,
    /// `Err(reason)` sheds it. Drives every state transition, the
    /// admission control, and the stateless fallback.
    ///
    /// # Errors
    ///
    /// The typed [`DropReason`] for any packet the tracker sheds.
    pub fn admit_tcp(
        &mut self,
        key: &FlowKey,
        seg: TcpSummary,
        now_ns: u64,
    ) -> Result<(), DropReason> {
        self.admit_tcp_nat(key, seg, now_ns, true).map(|_| ())
    }

    /// [`Self::admit_tcp`] fused with the NAT lookup the balanced path
    /// needs: the same hash walk that decides admission also returns the
    /// flow's stored rewrite tuple (`None` when the flow carries no NAT
    /// state, or was admitted statelessly in cookie mode). With `create`
    /// false an untracked flow is shed as [`DropReason::NoFlow`] instead of
    /// creating an entry — the VIP guard, where assignment (not plain
    /// admission) is the only legal creator.
    ///
    /// # Errors
    ///
    /// The typed [`DropReason`] for any packet the tracker sheds.
    pub fn admit_tcp_nat(
        &mut self,
        key: &FlowKey,
        seg: TcpSummary,
        now_ns: u64,
        create: bool,
    ) -> Result<Option<NatRewrite>, DropReason> {
        let found = self.lookup_slot(key);
        if let Some(idx) = found {
            // Injected state desync: corrupt an established entry to
            // FinWait before processing. The machine must drain the flow
            // cleanly (FinWait forwards, then closes or times out) rather
            // than wedge or corrupt the structure.
            if self.slots[idx as usize].state == FlowState::Established {
                let fire = self
                    .injector
                    .as_mut()
                    .is_some_and(|inj| inj.should_fail(SITE_CT_STATE_DESYNC));
                if fire {
                    self.transition(idx, FlowState::FinWait, now_ns);
                    self.stats.desyncs_injected += 1;
                }
            }
            // Captured pre-admission: a teardown segment (RST, final ACK)
            // removes the entry but is itself forwarded, and still needs
            // its rewrite on the way out.
            let nat = self.slots[idx as usize].nat;
            return self.admit_existing(idx, seg, now_ns).map(|()| nat);
        }
        if !create {
            return Err(DropReason::NoFlow);
        }
        // No entry: only a SYN (or, in fallback mode, a cookie-bearing
        // ACK) may create one. Everything else is shed — the strict
        // stateful stance that makes bare-ACK floods cheap.
        if seg.syn && !seg.ack {
            if self.cookie_mode {
                self.stats.stateless_syns += 1;
                return Ok(None);
            }
            if self.cfg.overload_defense && self.half_open >= self.cfg.syn_backlog {
                let tail = self.lists[FlowState::SynSeen as usize][1];
                debug_assert_ne!(tail, NIL, "half_open > 0 implies a list tail");
                self.remove(tail, EvictCause::HalfOpenPressure);
                self.note_pressure();
                if self.cookie_mode {
                    // The triggering SYN is the first stateless one.
                    self.stats.stateless_syns += 1;
                    return Ok(None);
                }
            }
            self.insert(*key, FlowState::SynSeen, now_ns)?;
            self.stats.pkts[FlowState::SynSeen as usize] += 1;
            return Ok(None);
        }
        if seg.ack && !seg.syn && self.cookie_mode {
            if seg.ack_no == self.cookie(key).wrapping_add(1) {
                self.insert(*key, FlowState::Established, now_ns)?;
                self.stats.cookie_established += 1;
                self.stats.pkts[FlowState::Established as usize] += 1;
                return Ok(None);
            }
            return Err(DropReason::BadCookie);
        }
        Err(DropReason::NoFlow)
    }

    fn admit_existing(&mut self, idx: u32, seg: TcpSummary, now_ns: u64) -> Result<(), DropReason> {
        let state = self.slots[idx as usize].state;
        if seg.rst {
            // RST tears down any state; the packet is forwarded so the
            // peer learns too.
            self.remove(idx, EvictCause::Rst);
            self.stats.pkts[state as usize] += 1;
            return Ok(());
        }
        match state {
            FlowState::SynSeen => {
                if seg.ack && !seg.syn {
                    self.transition(idx, FlowState::Established, now_ns);
                    self.stats.flows_promoted += 1;
                    self.stats.pkts[FlowState::Established as usize] += 1;
                    Ok(())
                } else if seg.syn {
                    // SYN retransmit, or the SYN-ACK leg of the handshake
                    // (same canonical key, reverse direction).
                    self.touch(idx, now_ns);
                    self.stats.pkts[FlowState::SynSeen as usize] += 1;
                    Ok(())
                } else {
                    // Data or FIN on a half-open flow: not a legal
                    // transition; shed the packet, keep the entry (the
                    // handshake may still complete).
                    Err(DropReason::StateViolation)
                }
            }
            FlowState::Established => {
                if seg.fin {
                    self.transition(idx, FlowState::FinWait, now_ns);
                    self.stats.pkts[FlowState::FinWait as usize] += 1;
                } else {
                    self.touch(idx, now_ns);
                    self.stats.pkts[FlowState::Established as usize] += 1;
                }
                Ok(())
            }
            FlowState::FinWait => {
                self.stats.pkts[FlowState::FinWait as usize] += 1;
                if seg.ack && !seg.fin && !seg.syn {
                    // The final ACK of the close handshake.
                    self.remove(idx, EvictCause::Fin);
                } else {
                    // FIN retransmits and stragglers drain until the close
                    // completes or the FinWait timeout reaps the entry.
                    self.touch(idx, now_ns);
                }
                Ok(())
            }
        }
    }

    // ---- NAT entries (load-balancer rewrite state) ----------------------

    /// The rewrite tuple stored for `key`, if any.
    #[must_use]
    pub fn nat_of(&self, key: &FlowKey) -> Option<NatRewrite> {
        self.lookup_slot(key)
            .and_then(|i| self.slots[i as usize].nat)
    }

    /// True if `key` is tracked at all (NAT'd or not).
    #[must_use]
    pub fn contains(&self, key: &FlowKey) -> bool {
        self.lookup_slot(key).is_some()
    }

    /// Inserts a NAT'd flow: one record under the pre-rewrite key (`orig`,
    /// client↔VIP) carrying `nat`, with the post-rewrite key (`reply`,
    /// client↔backend) as its reply key, so a lookup by either key finds
    /// the same record and both live and die together. When rewrite and
    /// canonicalization collapse both tuples to one key (a degenerate
    /// hairpin), the record has no reply key.
    ///
    /// # Errors
    ///
    /// [`DropReason::StateViolation`] if either key is already tracked;
    /// [`DropReason::FlowTableFull`] if the table cannot make room for both
    /// entries (a partial pair is rolled back — a one-directional rewrite
    /// is never left behind).
    pub fn insert_nat(
        &mut self,
        orig: &FlowKey,
        reply: &FlowKey,
        nat: NatRewrite,
        state: FlowState,
        now_ns: u64,
    ) -> Result<(), DropReason> {
        if self.lookup_slot(orig).is_some() {
            return Err(DropReason::StateViolation);
        }
        if orig == reply {
            let a = self.insert(*orig, state, now_ns)?;
            self.slots[a as usize].nat = Some(nat);
            self.stats.pkts[state as usize] += 1;
            return Ok(());
        }
        if self.lookup_slot(reply).is_some() {
            return Err(DropReason::StateViolation);
        }
        let a = self.insert(*orig, state, now_ns)?;
        let b = match self.alloc_slot(now_ns) {
            Ok(b) => b,
            Err(e) => {
                // Roll back the first half — unless the second allocation's
                // own eviction already took it (possible when the first
                // entry was the oldest half-open).
                if self.slots[a as usize].key == *orig {
                    self.remove(a, Self::rollback_cause(state));
                }
                return Err(e);
            }
        };
        if self.slots[a as usize].key != *orig {
            // The second allocation evicted the first half to make room: the
            // pair cannot exist, so the reply half is created and dropped as
            // an orphan.
            self.link(b, *reply, state, now_ns, NIL);
            self.remove(b, Self::rollback_cause(state));
            return Err(DropReason::FlowTableFull);
        }
        self.link(b, *reply, state, now_ns, a);
        self.slots[a as usize].nat = Some(nat);
        self.stats.pkts[state as usize] += 1;
        Ok(())
    }

    /// The eviction cause a rolled-back half-pair is accounted under: the
    /// same cause capacity pressure would have used.
    fn rollback_cause(state: FlowState) -> EvictCause {
        if state == FlowState::SynSeen {
            EvictCause::HalfOpenPressure
        } else {
            EvictCause::Lru
        }
    }

    /// Refreshes a NAT'd flow's recency without driving the TCP machine —
    /// the balanced datagram path's per-packet touch: if `key` is tracked
    /// *and* carries a rewrite, touch its record and return the tuple, in
    /// one hash walk. Flows without NAT state are left untouched (the
    /// caller treats them as untracked).
    pub fn refresh_nat(&mut self, key: &FlowKey, now_ns: u64) -> Option<NatRewrite> {
        let idx = self.lookup_slot(key)?;
        let nat = self.slots[idx as usize].nat?;
        self.touch(idx, now_ns);
        self.stats.pkts[self.slots[idx as usize].state as usize] += 1;
        Some(nat)
    }

    /// Removes every NAT'd flow assigned to `backend` (both keys each),
    /// returning entries freed. A full-slab walk — the balancer calls this
    /// only on a health-probe death verdict, never per packet. Without it a
    /// client's SYN retransmit keeps matching the stale rewrite and chases
    /// the dead backend until the idle timeout; ejecting lets the retry
    /// select a healthy one immediately.
    pub fn eject_backend(&mut self, backend: u16, cause: EvictCause) -> usize {
        let before = self.len;
        for i in 0..self.slots.len() {
            let Some(nat) = self.slots[i].nat else {
                continue;
            };
            if nat.backend == backend {
                self.remove(u32::try_from(i).expect("slab fits u32"), cause);
            }
        }
        before - self.len
    }

    // ---- the watchdog sweep ---------------------------------------------

    /// True when [`Conntrack::sweep`] is due.
    #[must_use]
    pub fn due_sweep(&self, now_ns: u64) -> bool {
        now_ns.saturating_sub(self.last_sweep_ns) >= self.cfg.sweep_interval_ns
    }

    /// The watchdog pass: reaps idle entries (per-state timeouts, least
    /// recent first) with bounded work per call, and re-evaluates the
    /// fallback mode with hysteresis. Returns entries reaped.
    pub fn sweep(&mut self, now_ns: u64) -> usize {
        let stalled = self
            .injector
            .as_mut()
            .is_some_and(|inj| inj.should_fail(SITE_CT_TIMER_STALL));
        if stalled {
            // A stalled timer skips the reap but must not wedge the shard:
            // capacity pressure still evicts, and the next sweep catches
            // up on expiries.
            self.stats.timer_stalls += 1;
            self.last_sweep_ns = now_ns;
            return 0;
        }
        let timeouts = [
            self.cfg.syn_timeout_ns,
            self.cfg.established_timeout_ns,
            self.cfg.fin_timeout_ns,
        ];
        let mut budget = self.cfg.sweep_batch;
        let mut reaped = 0usize;
        for (s, &timeout) in timeouts.iter().enumerate() {
            while budget > 0 {
                let tail = self.lists[s][1];
                if tail == NIL {
                    break;
                }
                let idle = now_ns.saturating_sub(self.slots[tail as usize].last_seen_ns);
                if idle < timeout {
                    break;
                }
                // A NAT pair reaps as two entries in one removal; count (and
                // budget) the real work.
                let freed = self.weight(tail);
                self.remove(tail, EvictCause::Timeout);
                budget = budget.saturating_sub(freed);
                reaped += freed;
            }
        }
        if self.cookie_mode && self.half_open * 2 <= self.cfg.syn_backlog {
            self.cookie_mode = false;
            self.pressure_evictions = 0;
            self.stats.cookie_mode_exits += 1;
            if let Some(s) = &self.shared {
                s.set_cookie_shard(false);
            }
        }
        self.last_sweep_ns = now_ns;
        reaped
    }

    // ---- structure audit -------------------------------------------------

    /// Audits the slab / bucket / list structure: every record on exactly
    /// one state list, every reply key on none and tied both ways to a
    /// record that holds the rewrite, every live slot on one bucket chain,
    /// gauges consistent, bounds respected. Fault campaigns assert this
    /// after injecting table-full, timer-stall, and desync faults.
    ///
    /// # Errors
    ///
    /// A description of the first inconsistency found.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.len > self.cfg.max_flows {
            return Err(format!(
                "len {} exceeds max_flows {}",
                self.len, self.cfg.max_flows
            ));
        }
        if self.cfg.overload_defense && self.half_open > self.cfg.syn_backlog {
            return Err(format!(
                "half_open {} exceeds syn_backlog {}",
                self.half_open, self.cfg.syn_backlog
            ));
        }
        let mut live = vec![false; self.slots.len()];
        let mut live_slots = 0usize;
        let mut listed = 0usize;
        let mut listed_half = 0usize;
        for (s, &[head, tail]) in self.lists.iter().enumerate() {
            let mut prev = NIL;
            let mut i = head;
            while i != NIL {
                let slot = &self.slots[i as usize];
                // A listed slot with a reply key is the pair's record, so it
                // holds the rewrite; one without a rewrite is a reply key.
                if slot.twin != NIL && slot.nat.is_none() {
                    return Err(format!("reply slot {i} on state list {s}"));
                }
                if live[i as usize] {
                    return Err(format!("slot {i} linked twice"));
                }
                live[i as usize] = true;
                live_slots += 1;
                if slot.state as usize != s {
                    return Err(format!(
                        "slot {i} on list {s} but in state {:?}",
                        slot.state
                    ));
                }
                if slot.prev != prev {
                    return Err(format!("slot {i} prev link broken"));
                }
                let r = slot.twin;
                if r != NIL {
                    let reply = self
                        .slots
                        .get(r as usize)
                        .ok_or_else(|| format!("slot {i} reply {r} out of range"))?;
                    if live[r as usize] || reply.twin != i || reply.nat.is_some() {
                        return Err(format!("slot {i} and reply slot {r} are not one pair"));
                    }
                    live[r as usize] = true;
                    live_slots += 1;
                }
                let weight = self.weight(i);
                listed += weight;
                if s == FlowState::SynSeen as usize {
                    listed_half += weight;
                }
                prev = i;
                i = slot.next;
            }
            if self.lists[s][1] != prev || (head == NIL) != (tail == NIL) {
                return Err(format!("list {s} tail mismatch"));
            }
        }
        if listed != self.len {
            return Err(format!(
                "lists hold {listed} entries, len says {}",
                self.len
            ));
        }
        if listed_half != self.half_open {
            return Err(format!(
                "syn-seen list holds {listed_half}, half_open says {}",
                self.half_open
            ));
        }
        let mut chained = 0usize;
        for (b, &head) in self.buckets.iter().enumerate() {
            let mut i = head;
            while i != NIL {
                let slot = &self.slots[i as usize];
                if !live[i as usize] {
                    return Err(format!("slot {i} in bucket {b} but not live"));
                }
                if self.bucket_of(&slot.key) != b {
                    return Err(format!("slot {i} hashed to the wrong bucket"));
                }
                chained += 1;
                i = slot.hash_next;
                if chained > self.slots.len() {
                    return Err("bucket chain cycle".to_string());
                }
            }
        }
        if chained != live_slots {
            return Err(format!(
                "buckets chain {chained} slots, {live_slots} are live"
            ));
        }
        let mut free = 0usize;
        let mut i = self.free_head;
        while i != NIL {
            if live[i as usize] {
                return Err(format!("slot {i} both free and live"));
            }
            free += 1;
            i = self.slots[i as usize].next;
            if free > self.slots.len() {
                return Err("free list cycle".to_string());
            }
        }
        if free + live_slots != self.cfg.max_flows {
            return Err(format!(
                "free {free} + live {live_slots} != max_flows {}",
                self.cfg.max_flows
            ));
        }
        Ok(())
    }

    /// Runs the audit and folds the outcome into the stats (workers call
    /// this once at shutdown so campaigns see violations in the report).
    pub fn audit(&mut self) {
        if self.check_invariants().is_err() {
            self.stats.invariant_violations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;
    const S: u64 = 1_000_000_000;

    fn cfg(max_flows: usize, backlog: usize) -> ConntrackConfig {
        ConntrackConfig {
            max_flows,
            syn_backlog: backlog,
            ..ConntrackConfig::default()
        }
    }

    fn key(n: u32) -> FlowKey {
        FlowKey::canonical(0x0A00_0000 | n, 0xC0A8_0001, 40_000, 443, 6)
    }

    const SYN: TcpSummary = TcpSummary {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        ack_no: 0,
    };
    const ACK: TcpSummary = TcpSummary {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        ack_no: 0,
    };
    const FIN: TcpSummary = TcpSummary {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
        ack_no: 0,
    };
    const RST: TcpSummary = TcpSummary {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
        ack_no: 0,
    };

    fn establish(ct: &mut Conntrack, k: &FlowKey, now: u64) {
        ct.admit_tcp(k, SYN, now).expect("syn admitted");
        ct.admit_tcp(k, ACK, now + MS).expect("ack admitted");
    }

    #[test]
    fn handshake_data_and_close_lifecycle() {
        let mut ct = Conntrack::new(cfg(64, 16));
        let k = key(1);
        establish(&mut ct, &k, 0);
        assert_eq!(ct.len(), 1);
        assert_eq!(ct.half_open_len(), 0);
        for i in 0..5 {
            ct.admit_tcp(&k, ACK, (2 + i) * MS).expect("data admitted");
        }
        ct.admit_tcp(&k, FIN, 10 * MS).expect("fin admitted");
        assert_eq!(ct.len(), 1, "fin-wait entry still present");
        ct.admit_tcp(&k, ACK, 11 * MS).expect("final ack admitted");
        assert_eq!(ct.len(), 0, "graceful close removes the entry");
        assert_eq!(ct.stats().removed[EvictCause::Fin as usize], 1);
        ct.check_invariants().expect("clean structure");
    }

    #[test]
    fn rst_tears_down_in_any_state() {
        let mut ct = Conntrack::new(cfg(64, 16));
        let half = key(1);
        ct.admit_tcp(&half, SYN, 0).unwrap();
        ct.admit_tcp(&half, RST, MS).expect("rst forwarded");
        assert_eq!(ct.len(), 0);
        let full = key(2);
        establish(&mut ct, &full, 0);
        ct.admit_tcp(&full, RST, MS).unwrap();
        assert_eq!(ct.len(), 0);
        assert_eq!(ct.stats().removed[EvictCause::Rst as usize], 2);
    }

    #[test]
    fn unknown_non_syn_packets_are_shed() {
        let mut ct = Conntrack::new(cfg(64, 16));
        assert_eq!(ct.admit_tcp(&key(1), ACK, 0), Err(DropReason::NoFlow));
        assert_eq!(ct.admit_tcp(&key(2), FIN, 0), Err(DropReason::NoFlow));
        assert_eq!(ct.admit_tcp(&key(3), RST, 0), Err(DropReason::NoFlow));
        assert_eq!(ct.len(), 0, "shed packets must not create state");
    }

    #[test]
    fn data_on_half_open_is_a_state_violation() {
        let mut ct = Conntrack::new(cfg(64, 16));
        let k = key(1);
        ct.admit_tcp(&k, SYN, 0).unwrap();
        let data = TcpSummary {
            fin: true,
            ack: false,
            ..TcpSummary::default()
        };
        assert_eq!(ct.admit_tcp(&k, data, MS), Err(DropReason::StateViolation));
        assert_eq!(ct.len(), 1, "the half-open entry survives");
        ct.admit_tcp(&k, ACK, 2 * MS).expect("handshake completes");
    }

    #[test]
    fn syn_retransmits_refresh_not_duplicate() {
        let mut ct = Conntrack::new(cfg(64, 16));
        let k = key(1);
        for i in 0..4 {
            ct.admit_tcp(&k, SYN, i * MS).unwrap();
        }
        assert_eq!(ct.len(), 1);
        assert_eq!(ct.half_open_len(), 1);
    }

    #[test]
    fn both_directions_share_one_entry() {
        let mut ct = Conntrack::new(cfg(64, 16));
        let fwd = FlowKey::canonical(0x0A000001, 0x0B000001, 40_000, 443, 6);
        let rev = FlowKey::canonical(0x0B000001, 0x0A000001, 443, 40_000, 6);
        assert_eq!(fwd, rev, "canonical keys collapse directions");
        ct.admit_tcp(&fwd, SYN, 0).unwrap();
        let synack = TcpSummary {
            syn: true,
            ack: true,
            ..TcpSummary::default()
        };
        ct.admit_tcp(&rev, synack, MS)
            .expect("syn-ack leg admitted");
        assert_eq!(ct.len(), 1);
        ct.admit_tcp(&fwd, ACK, 2 * MS).unwrap();
        assert_eq!(ct.half_open_len(), 0);
    }

    #[test]
    fn backlog_pressure_evicts_oldest_half_open_only() {
        let mut ct = Conntrack::new(cfg(64, 4));
        establish(&mut ct, &key(100), 0);
        for i in 0..4 {
            ct.admit_tcp(&key(i), SYN, u64::from(i) * MS).unwrap();
        }
        assert_eq!(ct.half_open_len(), 4);
        // The 5th SYN displaces the oldest half-open, not the established.
        ct.admit_tcp(&key(4), SYN, 10 * MS).unwrap();
        assert_eq!(ct.half_open_len(), 4);
        assert_eq!(ct.len(), 5);
        assert_eq!(ct.stats().removed[EvictCause::HalfOpenPressure as usize], 1);
        // The displaced flow's ACK now finds nothing.
        assert_eq!(ct.admit_tcp(&key(0), ACK, 11 * MS), Err(DropReason::NoFlow));
        // The established flow is untouched.
        ct.admit_tcp(&key(100), ACK, 12 * MS)
            .expect("still tracked");
        ct.check_invariants().expect("clean structure");
    }

    #[test]
    fn sustained_pressure_enters_cookie_mode_and_sweep_exits_it() {
        let backlog = 4;
        let mut ct = Conntrack::new(cfg(64, backlog));
        let mut n = 0u32;
        // Fill the backlog, then churn a full backlog's worth of pressure
        // evictions: the shard must flip to stateless fallback.
        while !ct.cookie_mode() {
            ct.admit_tcp(&key(n), SYN, u64::from(n) * MS).unwrap();
            n += 1;
            assert!(n < 1000, "cookie mode must engage under sustained churn");
        }
        assert_eq!(ct.stats().cookie_mode_entries, 1);
        let live_before = ct.len();
        ct.admit_tcp(&key(9999), SYN, S).expect("stateless forward");
        assert_eq!(ct.len(), live_before, "stateless SYN creates no state");
        assert_eq!(ct.stats().stateless_syns, 2, "trigger SYN + this one");
        // Reap the half-opens (idle past syn timeout) and the mode exits.
        let reaped = ct.sweep(20 * S);
        assert!(reaped > 0);
        assert!(!ct.cookie_mode(), "hysteresis exit after the reap");
        assert_eq!(ct.stats().cookie_mode_exits, 1);
    }

    #[test]
    fn cookie_ack_establishes_and_bad_cookie_is_shed() {
        let mut ct = Conntrack::new(cfg(64, 2));
        let mut n = 0u32;
        while !ct.cookie_mode() {
            ct.admit_tcp(&key(n), SYN, u64::from(n) * MS).unwrap();
            n += 1;
        }
        let k = key(5000);
        ct.admit_tcp(&k, SYN, S).expect("stateless");
        let good = TcpSummary {
            ack: true,
            ack_no: ct.cookie(&k).wrapping_add(1),
            ..TcpSummary::default()
        };
        let bad = TcpSummary {
            ack: true,
            ack_no: 12345,
            ..TcpSummary::default()
        };
        assert_eq!(
            ct.admit_tcp(&key(5001), bad, S + MS),
            Err(DropReason::BadCookie)
        );
        ct.admit_tcp(&k, good, S + 2 * MS)
            .expect("cookie validates");
        assert_eq!(ct.stats().cookie_established, 1);
        // The flow is now a first-class established entry.
        ct.admit_tcp(&k, ACK, S + 3 * MS).expect("data flows");
        ct.check_invariants().expect("clean structure");
    }

    #[test]
    fn full_table_protects_established_flows() {
        // 4 slots, all established: a new SYN has nothing evictable under
        // defense and is shed with the typed reason.
        let mut ct = Conntrack::new(cfg(4, 4));
        for i in 0..4 {
            establish(&mut ct, &key(i), 0);
        }
        assert_eq!(ct.len(), 4);
        assert_eq!(
            ct.admit_tcp(&key(99), SYN, MS),
            Err(DropReason::FlowTableFull)
        );
        assert_eq!(ct.len(), 4, "established entries untouched");
        for i in 0..4 {
            ct.admit_tcp(&key(i), ACK, 2 * MS)
                .expect("still forwarding");
        }
    }

    #[test]
    fn defense_off_lru_evicts_established() {
        let mut ct = Conntrack::new(ConntrackConfig {
            overload_defense: false,
            ..cfg(4, 4)
        });
        for i in 0..4 {
            establish(&mut ct, &key(i), u64::from(i) * MS);
        }
        // The naive tracker makes room by evicting the least-recent entry —
        // an established flow. This is the failure mode E14 measures.
        ct.admit_tcp(&key(99), SYN, S).expect("naive admit");
        assert_eq!(ct.len(), 4);
        assert_eq!(ct.stats().removed[EvictCause::Lru as usize], 1);
        assert_eq!(ct.admit_tcp(&key(0), ACK, S + MS), Err(DropReason::NoFlow));
    }

    #[test]
    fn sweep_reaps_by_per_state_timeouts() {
        let c = ConntrackConfig {
            syn_timeout_ns: 5 * S,
            established_timeout_ns: 300 * S,
            fin_timeout_ns: 30 * S,
            ..cfg(64, 16)
        };
        let mut ct = Conntrack::new(c);
        ct.admit_tcp(&key(1), SYN, 0).unwrap(); // half-open
        establish(&mut ct, &key(2), 0); // established
        establish(&mut ct, &key(3), 0);
        ct.admit_tcp(&key(3), FIN, MS).unwrap(); // fin-wait
        assert_eq!(ct.len(), 3);
        // 40 s in: the half-open (5 s) and fin-wait (30 s) expire; the
        // established flow (300 s) survives.
        let reaped = ct.sweep(40 * S);
        assert_eq!(reaped, 2);
        assert_eq!(ct.len(), 1);
        ct.admit_tcp(&key(2), ACK, 41 * S)
            .expect("established survives");
        // 400 s idle: the established flow goes too.
        assert_eq!(ct.sweep(441 * S), 1);
        assert!(ct.is_empty());
        assert_eq!(ct.stats().removed[EvictCause::Timeout as usize], 3);
    }

    #[test]
    fn sweep_work_is_bounded_per_call() {
        let c = ConntrackConfig {
            sweep_batch: 8,
            ..cfg(256, 256)
        };
        let mut ct = Conntrack::new(c);
        for i in 0..100 {
            ct.admit_tcp(&key(i), SYN, 0).unwrap();
        }
        assert_eq!(ct.sweep(100 * S), 8, "one batch per call");
        assert_eq!(ct.len(), 92);
        assert_eq!(ct.sweep(101 * S), 8);
    }

    #[test]
    fn due_sweep_follows_the_interval() {
        let c = ConntrackConfig {
            sweep_interval_ns: 100 * MS,
            ..cfg(16, 4)
        };
        let mut ct = Conntrack::new(c);
        assert!(ct.due_sweep(100 * MS));
        ct.sweep(100 * MS);
        assert!(!ct.due_sweep(150 * MS));
        assert!(ct.due_sweep(200 * MS));
    }

    #[test]
    fn injected_table_full_sheds_and_preserves_structure() {
        use sysfault::{FaultPlan, Schedule};
        let plan = FaultPlan::new(7).with_site(SITE_CT_TABLE_FULL, Schedule::EveryNth(2));
        let mut ct = Conntrack::new(cfg(64, 16)).with_injector(FaultInjector::new(plan));
        let mut admitted = 0;
        let mut shed = 0;
        for i in 0..20 {
            match ct.admit_tcp(&key(i), SYN, u64::from(i) * MS) {
                Ok(()) => admitted += 1,
                Err(DropReason::FlowTableFull) => shed += 1,
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!((admitted, shed), (10, 10));
        assert_eq!(ct.len(), 10);
        ct.check_invariants().expect("structure survives injection");
        assert!(ct.fault_digest() != 0, "campaign digest records the fires");
    }

    #[test]
    fn injected_timer_stall_skips_the_reap_without_wedging() {
        use sysfault::{FaultPlan, Schedule};
        let plan = FaultPlan::new(3).with_site(SITE_CT_TIMER_STALL, Schedule::OneShotAt(1));
        let mut ct = Conntrack::new(cfg(64, 16)).with_injector(FaultInjector::new(plan));
        ct.admit_tcp(&key(1), SYN, 0).unwrap();
        assert_eq!(ct.sweep(100 * S), 0, "stalled sweep reaps nothing");
        assert_eq!(ct.stats().timer_stalls, 1);
        assert_eq!(ct.sweep(200 * S), 1, "next sweep catches up");
        ct.check_invariants().expect("clean after stall");
    }

    #[test]
    fn injected_desync_drains_the_flow_cleanly() {
        use sysfault::{FaultPlan, Schedule};
        let plan = FaultPlan::new(11).with_site(SITE_CT_STATE_DESYNC, Schedule::OneShotAt(1));
        let mut ct = Conntrack::new(cfg(64, 16)).with_injector(FaultInjector::new(plan));
        let k = key(1);
        establish(&mut ct, &k, 0);
        // The next packet hits the desync: entry silently flips to FinWait,
        // and the ACK then completes a "close" the flow never asked for.
        ct.admit_tcp(&k, ACK, 2 * MS).expect("drains, not wedges");
        assert_eq!(ct.stats().desyncs_injected, 1);
        assert!(ct.is_empty(), "desynced flow drained out");
        assert_eq!(ct.admit_tcp(&k, ACK, 3 * MS), Err(DropReason::NoFlow));
        ct.check_invariants()
            .expect("structure intact after desync");
    }

    #[test]
    fn shared_gauge_caps_across_shards() {
        let shared = Arc::new(ConntrackShared::new(3));
        let mut a = Conntrack::new(cfg(16, 16)).with_shared(Arc::clone(&shared));
        let mut b = Conntrack::new(cfg(16, 16)).with_shared(Arc::clone(&shared));
        a.admit_tcp(&key(1), SYN, 0).unwrap();
        a.admit_tcp(&key(2), SYN, 0).unwrap();
        b.admit_tcp(&key(3), SYN, 0).unwrap();
        assert_eq!(shared.live(), 3);
        // Shard B is at the global cap: its only evictable room is its own
        // half-open, so the gauge never exceeds the limit.
        b.admit_tcp(&key(4), SYN, MS).expect("evicts own half-open");
        assert_eq!(shared.live(), 3);
        assert_eq!(b.len(), 1);
        a.admit_tcp(&key(1), RST, 2 * MS).unwrap();
        assert_eq!(shared.live(), 2);
        a.check_invariants().unwrap();
        b.check_invariants().unwrap();
    }

    #[test]
    fn peaks_and_audit_are_recorded() {
        let mut ct = Conntrack::new(cfg(8, 8));
        for i in 0..6 {
            ct.admit_tcp(&key(i), SYN, 0).unwrap();
        }
        for i in 0..6 {
            ct.admit_tcp(&key(i), RST, MS).unwrap();
        }
        assert_eq!(ct.stats().peak_flows, 6);
        assert_eq!(ct.stats().peak_half_open, 6);
        ct.audit();
        assert_eq!(ct.stats().invariant_violations, 0);
        assert_eq!(ct.stats().removed[EvictCause::Rst as usize], 6);
    }

    #[test]
    fn stats_merge_sums_counters_and_maxes_peaks() {
        let mut a = ConntrackStats {
            flows_created: 5,
            peak_flows: 10,
            ..ConntrackStats::default()
        };
        let b = ConntrackStats {
            flows_created: 7,
            peak_flows: 3,
            ..ConntrackStats::default()
        };
        a.merge(&b);
        assert_eq!(a.flows_created, 12);
        assert_eq!(a.peak_flows, 10);
    }

    fn nat(n: u32) -> NatRewrite {
        NatRewrite {
            client_ip: 0x0A00_0000 | n,
            client_port: 40_000,
            vip: 0xC0A8_0001,
            vport: 443,
            backend_ip: 0xAC10_0001,
            backend_port: 8_443,
            backend: 0,
        }
    }

    fn nat_keys(n: u32) -> (FlowKey, FlowKey) {
        let r = nat(n);
        (
            FlowKey::canonical(r.client_ip, r.vip, r.client_port, r.vport, 6),
            FlowKey::canonical(r.client_ip, r.backend_ip, r.client_port, r.backend_port, 6),
        )
    }

    #[test]
    fn nat_twins_live_and_die_together() {
        let mut ct = Conntrack::new(cfg(64, 16));
        let (orig, reply) = nat_keys(1);
        ct.insert_nat(&orig, &reply, nat(1), FlowState::SynSeen, 0)
            .expect("pair inserted");
        assert_eq!(ct.len(), 2, "a NAT flow holds two slots");
        assert_eq!(ct.half_open_len(), 2);
        assert_eq!(ct.nat_of(&orig), Some(nat(1)));
        assert_eq!(ct.nat_of(&reply), Some(nat(1)));
        ct.check_invariants().expect("one record, two keys");
        // The handshake ACK on the orig key promotes the whole pair.
        ct.admit_tcp(&orig, ACK, MS).expect("promoted");
        assert_eq!(ct.half_open_len(), 0, "both keys promoted together");
        // Packets on the reply key drive the same flow.
        ct.admit_tcp(&reply, ACK, 2 * MS).expect("reply direction");
        // RST on either key removes the pair.
        ct.admit_tcp(&reply, RST, 3 * MS).expect("rst forwarded");
        assert_eq!(ct.len(), 0, "both twins removed");
        assert!(ct.nat_of(&orig).is_none());
        ct.check_invariants().expect("clean after pair teardown");
    }

    #[test]
    fn audit_rejects_a_reply_key_on_a_state_list() {
        let mut ct = Conntrack::new(cfg(64, 16));
        let (orig, reply) = nat_keys(1);
        ct.insert_nat(&orig, &reply, nat(1), FlowState::Established, 0)
            .unwrap();
        let record = ct.lookup_slot(&reply).unwrap();
        assert_eq!(
            ct.slots[record as usize].key, orig,
            "reply key resolves to the record"
        );
        let r = ct.slots[record as usize].twin;
        ct.list_push_head(FlowState::Established, r);
        let err = ct.check_invariants().unwrap_err();
        assert!(err.contains("reply slot"), "{err}");
    }

    #[test]
    fn nat_insert_rejects_collisions_and_rolls_back_partials() {
        let mut ct = Conntrack::new(cfg(64, 16));
        let (orig, reply) = nat_keys(1);
        ct.admit_tcp(&orig, SYN, 0).unwrap();
        assert_eq!(
            ct.insert_nat(&orig, &reply, nat(1), FlowState::SynSeen, MS),
            Err(DropReason::StateViolation),
            "orig key already tracked"
        );
        // A 2-slot table with both slots established: no room for a pair,
        // and no partial pair may survive the failure.
        let mut tiny = Conntrack::new(cfg(2, 2));
        establish(&mut tiny, &key(50), 0);
        establish(&mut tiny, &key(51), 0);
        let (o2, r2) = nat_keys(2);
        assert_eq!(
            tiny.insert_nat(&o2, &r2, nat(2), FlowState::Established, MS),
            Err(DropReason::FlowTableFull)
        );
        assert_eq!(tiny.len(), 2, "no partial pair left behind");
        assert!(!tiny.contains(&o2) && !tiny.contains(&r2));
        tiny.check_invariants().expect("clean after rollback");
    }

    #[test]
    fn nat_pair_refreshes_and_expires_together() {
        let c = ConntrackConfig {
            established_timeout_ns: 10 * S,
            ..cfg(64, 16)
        };
        let mut ct = Conntrack::new(c);
        let (orig, reply) = nat_keys(1);
        ct.insert_nat(&orig, &reply, nat(1), FlowState::Established, 0)
            .unwrap();
        assert_eq!(
            ct.refresh_nat(&reply, 9 * S),
            Some(nat(1)),
            "tracked flow refreshes"
        );
        assert_eq!(
            ct.refresh_nat(&key(99), 9 * S),
            None,
            "unknown key does not"
        );
        // Sweep at 15 s: the refresh by the reply key at 9 s touched the
        // pair, so neither key is idle past the 10 s timeout. A
        // half-refreshed pair would lose one direction here.
        assert_eq!(ct.sweep(15 * S), 0);
        assert_eq!(ct.len(), 2);
        // At 25 s both expire together.
        assert_eq!(ct.sweep(25 * S), 2);
        assert!(ct.is_empty());
    }

    #[test]
    fn degenerate_hairpin_key_stores_one_entry() {
        // Rewrite collapses orig and reply to the same canonical key.
        let mut ct = Conntrack::new(cfg(64, 16));
        let (orig, _) = nat_keys(1);
        ct.insert_nat(&orig, &orig, nat(1), FlowState::Established, 0)
            .unwrap();
        assert_eq!(ct.len(), 1);
        assert_eq!(ct.nat_of(&orig), Some(nat(1)));
        ct.admit_tcp(&orig, RST, MS).unwrap();
        assert!(ct.is_empty());
        ct.check_invariants().unwrap();
    }

    #[test]
    fn churn_preserves_invariants() {
        // Deterministic mixed churn across many keys, states, and sweeps.
        let mut ct = Conntrack::new(cfg(32, 8));
        let mut t = 0u64;
        for round in 0u32..2000 {
            let k = key(round % 50);
            let seg = match round % 7 {
                0 | 1 => SYN,
                2 | 3 => ACK,
                4 => FIN,
                5 => RST,
                _ => TcpSummary {
                    syn: true,
                    ack: true,
                    ..TcpSummary::default()
                },
            };
            let _ = ct.admit_tcp(&k, seg, t);
            t += 700 * MS;
            if ct.due_sweep(t) {
                ct.sweep(t);
            }
            if round % 128 == 0 {
                ct.check_invariants().expect("invariants under churn");
            }
        }
        ct.check_invariants().expect("final audit");
        assert!(ct.len() <= 32);
    }

    /// `(longest chain, mean probe length)` of `keys` placed by `bucket`
    /// into `buckets` chains; a lookup of a key probes its chain up to it,
    /// so a chain of `c` keys costs `1 + 2 + … + c` probes in all.
    #[allow(clippy::cast_precision_loss)]
    fn chain_stats(
        keys: &[FlowKey],
        buckets: usize,
        bucket: impl Fn(usize, &FlowKey) -> usize,
    ) -> (usize, f64) {
        let mut chains = vec![0usize; buckets];
        for (i, k) in keys.iter().enumerate() {
            chains[bucket(i, k)] += 1;
        }
        let probes: usize = chains.iter().map(|c| c * (c + 1) / 2).sum();
        let longest = chains.into_iter().max().unwrap_or(0);
        (longest, probes as f64 / keys.len() as f64)
    }

    #[test]
    #[allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
    fn bucket_hash_spreads_structured_keys_like_a_uniform_hash() {
        // lb-nat's load: 16 384 keys in a 32 768-slot table (as many
        // buckets). A uniform hash's mean probe length is 1 + (n − 1)/2m;
        // its longest chain is drawn here from splitmix64 placements.
        const KEYS: u32 = 16_384;
        const VIP: u32 = 0x0AC8_0001;
        let ct = Conntrack::new(cfg(32_768, 4_096));
        let buckets = ct.buckets.len();
        let mask = buckets as u64 - 1;
        // 8 192 client↔VIP:80 keys and their client↔backend:8080 reply
        // keys, clients numbered across a /16 wrap as lb-nat's are.
        let lb_nat: Vec<FlowKey> = (0..KEYS / 2)
            .flat_map(|i| {
                let id = 61_440 + i;
                let (cip, cport) = (0x0A09_0000 | (id & 0xFFFF), 1024 + (id >> 16) as u16);
                let backend = 0x0A32_000A + id % 8;
                [
                    FlowKey::canonical(cip, VIP, cport, 80, 6),
                    FlowKey::canonical(cip, backend, cport, 8080, 6),
                ]
            })
            .collect();
        // syn-flood's spoofed SYNs: source j under 198.18/15 to host j
        // under 99/8.
        let syn_flood: Vec<FlowKey> = (0..KEYS)
            .map(|j| FlowKey::canonical(0xC612_0000 | j, 0x6300_0000 | j, 1024, 80, 6))
            .collect();
        // One client sweeping the whole ephemeral range 49152–65535.
        let port_sweep: Vec<FlowKey> = (0..KEYS)
            .map(|p| FlowKey::canonical(0x0A09_0001, VIP, 49_152 + p as u16, 80, 6))
            .collect();
        let splitmix = |i: usize| {
            let mut z = (i as u64)
                .wrapping_add(1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) & mask) as usize
        };
        let (uniform_longest, _) = chain_stats(&lb_nat, buckets, |i, _| splitmix(i));
        let uniform_mean = 1.0 + f64::from(KEYS - 1) / (2.0 * buckets as f64);
        for (name, keys) in [
            ("lb-nat pairs", &lb_nat),
            ("syn-flood", &syn_flood),
            ("port sweep", &port_sweep),
        ] {
            let (longest, mean) = chain_stats(keys, buckets, |_, k| ct.bucket_of(k));
            let (fnv_longest, fnv_mean) =
                chain_stats(keys, buckets, |_, k| (k.hash() & mask) as usize);
            println!(
                "{name}: bucket_hash longest {longest}, mean probe {mean:.3}; \
                 FNV-1a longest {fnv_longest}, mean probe {fnv_mean:.3}; \
                 uniform longest {uniform_longest}, mean probe {uniform_mean:.3}"
            );
            assert!(
                longest <= 2 * uniform_longest,
                "{name}: longest chain {longest} against a uniform {uniform_longest}"
            );
            assert!(
                mean <= 1.1 * uniform_mean,
                "{name}: mean probe {mean:.3} against a uniform {uniform_mean:.3}"
            );
        }
    }
}
