//! L4 load balancing over the conntrack layer.
//!
//! A virtual endpoint (VIP) fronts a weighted pool of backends. The first
//! packet of a flow picks a backend by **weighted rendezvous hashing** over
//! the flow's canonical [`FlowKey::hash`] — stable under pool changes (only
//! flows whose backend left move), no per-flow ring state. The chosen
//! rewrite is stored in the flow's conntrack entry ([`NatRewrite`], twin
//! slots for both tuple directions), so every later packet rewrites from
//! one lookup: destination NAT toward the backend on the forward path,
//! source NAT back to the VIP on the reply path, both via the mutable
//! [`sysrepr::packet`] views with RFC 1624 incremental checksum fixup —
//! zero copies, zero allocations in steady state. The balancer is a stage
//! of [`pipeline::route_frame`]: classify/assign during admission, the
//! rewrite at egress.
//!
//! Health is active: a seeded probe schedule (the [`SITE_LB_PROBE_FAIL`]
//! fault site) drives per-backend up/down verdicts with `fall`/`rise`
//! hysteresis, so backend death — and the failover after it — replays
//! exactly from a [`sysfault::FaultPlan`]. A dead backend's flows are
//! ejected from conntrack ([`Conntrack::eject_backend`]) so client retries
//! re-select immediately; a draining backend takes no new flows but keeps
//! serving established ones — drain never strands a connection.

use crate::cache::FlowCache;
use crate::conntrack::{Conntrack, FlowKey, FlowState, NatRewrite, TcpSummary};
use crate::lpm::Routes;
use crate::pipeline::{self, BatchStats, DropReason, Verdict};
use sysfault::FaultInjector;
use sysobs::{fnv1a, fnv_fold};
use sysrepr::packet::{IPPROTO_TCP, IPPROTO_UDP};

/// Fault site: one backend's health probe fails (the backend looks dead to
/// the prober). Schedule it per-plan to script backend death and recovery.
pub const SITE_LB_PROBE_FAIL: &str = "net.lb.probe_fail";

/// One backend's static identity: where rewritten flows go, and its
/// rendezvous weight (relative share of new flows; must be ≥ 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendConfig {
    /// Backend address.
    pub ip: u32,
    /// Backend port.
    pub port: u16,
    /// Rendezvous weight (share of new flows relative to the pool).
    pub weight: u32,
}

/// A backend's health/assignment state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendState {
    /// Healthy: takes new flows.
    Up = 0,
    /// Administratively draining: serves established flows, takes no new
    /// ones. Probes still run (a draining backend can still die).
    Draining = 1,
    /// Failed `fall` consecutive probes: takes nothing; its flows were
    /// ejected so retries re-select.
    Down = 2,
}

/// Sizing and policy knobs for one [`BackendPool`].
#[derive(Debug, Clone)]
pub struct LbConfig {
    /// The advertised virtual address flows dial.
    pub vip: u32,
    /// The advertised virtual port.
    pub vport: u16,
    /// The backend set (≥ 1 entry, weights ≥ 1).
    pub backends: Vec<BackendConfig>,
    /// Interval between health-probe rounds, ns.
    pub probe_interval_ns: u64,
    /// Consecutive probe failures before a backend is marked [`BackendState::Down`].
    pub fall: u32,
    /// Consecutive probe successes before a down backend returns to
    /// [`BackendState::Up`].
    pub rise: u32,
}

impl Default for LbConfig {
    fn default() -> Self {
        LbConfig {
            vip: u32::from_be_bytes([10, 200, 0, 1]),
            vport: 80,
            backends: Vec::new(),
            probe_interval_ns: 50_000_000,
            fall: 3,
            rise: 2,
        }
    }
}

/// One backend's live record: config plus probe hysteresis counters.
#[derive(Debug, Clone, Copy)]
struct Backend {
    cfg: BackendConfig,
    state: BackendState,
    /// Consecutive probe failures (reset by any success).
    fails: u32,
    /// Consecutive probe successes (reset by any failure).
    oks: u32,
}

/// Counters one pool accumulates (single-owner plain integers, merged
/// across workers like [`crate::conntrack::ConntrackStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LbStats {
    /// New flows assigned a backend.
    pub assigned: u64,
    /// Forward-path rewrites (client → VIP rewritten to backend).
    pub rewrites_to_backend: u64,
    /// Reply-path rewrites (backend → client rewritten to VIP).
    pub rewrites_to_client: u64,
    /// Tracked packets that matched a NAT entry but needed no rewrite
    /// (hairpin: the client addressed the backend directly).
    pub hairpin_passthrough: u64,
    /// VIP flows shed because no backend was up.
    pub no_backend: u64,
    /// Individual backend probes run.
    pub probes: u64,
    /// Probes that failed.
    pub probe_failures: u64,
    /// Up/Draining → Down transitions.
    pub ejections: u64,
    /// Down → Up transitions.
    pub recoveries: u64,
    /// Conntrack entries freed by backend-death ejection.
    pub flows_ejected: u64,
}

impl LbStats {
    /// Accumulates another pool's counters.
    pub fn merge(&mut self, other: &LbStats) {
        self.assigned += other.assigned;
        self.rewrites_to_backend += other.rewrites_to_backend;
        self.rewrites_to_client += other.rewrites_to_client;
        self.hairpin_passthrough += other.hairpin_passthrough;
        self.no_backend += other.no_backend;
        self.probes += other.probes;
        self.probe_failures += other.probe_failures;
        self.ejections += other.ejections;
        self.recoveries += other.recoveries;
        self.flows_ejected += other.flows_ejected;
    }
}

/// One worker's backend pool: selection, health, and rewrite bookkeeping.
/// Single-owner, like the worker's [`Conntrack`] shard; per-worker pools
/// probe independently off derived injector seeds, so a scripted death
/// replays per worker.
#[derive(Debug)]
pub struct BackendPool {
    cfg: LbConfig,
    backends: Vec<Backend>,
    next_probe_ns: u64,
    injector: Option<FaultInjector>,
    stats: LbStats,
    /// Backends downed by the most recent probe round (scratch, reused).
    downed: Vec<u16>,
}

impl BackendPool {
    /// Builds a pool over `cfg.backends`.
    ///
    /// # Panics
    ///
    /// Panics if the backend set is empty or any weight is zero.
    #[must_use]
    pub fn new(cfg: LbConfig) -> Self {
        assert!(
            !cfg.backends.is_empty(),
            "lb pool needs at least one backend"
        );
        assert!(
            cfg.backends.iter().all(|b| b.weight >= 1),
            "backend weights must be >= 1"
        );
        assert!(
            u16::try_from(cfg.backends.len()).is_ok(),
            "backend index must fit u16"
        );
        let backends = cfg
            .backends
            .iter()
            .map(|&cfg| Backend {
                cfg,
                state: BackendState::Up,
                fails: 0,
                oks: 0,
            })
            .collect();
        BackendPool {
            cfg,
            backends,
            next_probe_ns: 0,
            injector: None,
            stats: LbStats::default(),
            downed: Vec::new(),
        }
    }

    /// Attaches a seeded injector for [`SITE_LB_PROBE_FAIL`].
    #[must_use]
    pub fn with_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The pool's configuration.
    #[must_use]
    pub fn config(&self) -> &LbConfig {
        &self.cfg
    }

    /// The pool's counters so far.
    #[must_use]
    pub fn stats(&self) -> &LbStats {
        &self.stats
    }

    /// Number of configured backends.
    #[must_use]
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// True when no backends are configured (never, post-construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Backends currently [`BackendState::Up`].
    #[must_use]
    pub fn healthy(&self) -> usize {
        self.backends
            .iter()
            .filter(|b| b.state == BackendState::Up)
            .count()
    }

    /// A backend's current state.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn state(&self, idx: u16) -> BackendState {
        self.backends[usize::from(idx)].state
    }

    /// A backend's static config.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn backend(&self, idx: u16) -> BackendConfig {
        self.backends[usize::from(idx)].cfg
    }

    /// Starts draining a backend: established flows keep flowing, no new
    /// flows are assigned. No-op unless the backend is up.
    pub fn drain(&mut self, idx: u16) {
        let b = &mut self.backends[usize::from(idx)];
        if b.state == BackendState::Up {
            b.state = BackendState::Draining;
        }
    }

    /// Administratively forces a backend [`BackendState::Down`] — the
    /// scenario engine's scripted kill, bypassing probe hysteresis. As
    /// with a probe-driven death, ejecting the backend's flows
    /// ([`Conntrack::eject_backend`]) is the caller's job. Returns `true`
    /// if the backend transitioned (it was not already down). Note that
    /// passing probes will still resurrect it after `rise` successes;
    /// scenarios that need a permanent death set `rise` to `u32::MAX`.
    pub fn force_down(&mut self, idx: u16) -> bool {
        let b = &mut self.backends[usize::from(idx)];
        if b.state == BackendState::Down {
            return false;
        }
        b.state = BackendState::Down;
        b.fails = 0;
        b.oks = 0;
        self.stats.ejections += 1;
        sysobs::obs_count!("net.lb.ejections", 1);
        true
    }

    /// Administratively returns a down or draining backend to
    /// [`BackendState::Up`] with cleared hysteresis counters. Returns
    /// `true` if the backend transitioned.
    pub fn revive(&mut self, idx: u16) -> bool {
        let b = &mut self.backends[usize::from(idx)];
        if b.state == BackendState::Up {
            return false;
        }
        if b.state == BackendState::Down {
            self.stats.recoveries += 1;
        }
        b.state = BackendState::Up;
        b.fails = 0;
        b.oks = 0;
        true
    }

    /// Digest of the probe-site fault log so far (0 with no injector
    /// attached): the pool's contribution to a scenario's replay digest.
    #[must_use]
    pub fn fault_digest(&self) -> u64 {
        self.injector.as_ref().map_or(0, |inj| inj.log().digest())
    }

    /// Weighted rendezvous selection for a flow: each up backend scores
    /// `weight / -ln(u)` with `u` drawn from FNV-1a over `(flow_hash,
    /// backend identity)`, highest score wins. The standard weighted-HRW
    /// construction: per-flow-deterministic, proportional to weight, and
    /// minimally disruptive — flows only move when *their* backend leaves
    /// the up set.
    #[must_use]
    pub fn select(&self, flow_hash: u64) -> Option<u16> {
        // The hashed bytes are the flow hash, then the backend's identity;
        // the flow-hash prefix is the same for every backend, so it is
        // folded once and each backend continues from it.
        let prefix = fnv1a(&flow_hash.to_le_bytes());
        let mut best: Option<(f64, u16)> = None;
        for (i, b) in self.backends.iter().enumerate() {
            if b.state != BackendState::Up {
                continue;
            }
            let mut id = [0u8; 8];
            id[..4].copy_from_slice(&b.cfg.ip.to_be_bytes());
            id[4..6].copy_from_slice(&b.cfg.port.to_be_bytes());
            id[6..].copy_from_slice(&u16::try_from(i).expect("len checked").to_le_bytes());
            let h = id
                .iter()
                .fold(prefix, |h, &byte| fnv_fold(h, u64::from(byte)));
            // 53 high bits -> u in (0, 1]; nudge off exact zero so ln(u)
            // stays finite.
            #[allow(clippy::cast_precision_loss)]
            let u = ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            let score = f64::from(b.cfg.weight) / -u.ln();
            #[allow(clippy::cast_possible_truncation)]
            let idx = i as u16;
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, idx));
            }
        }
        best.map(|(_, i)| i)
    }

    /// True when a probe round is due.
    #[must_use]
    pub fn probe_due(&self, now_ns: u64) -> bool {
        now_ns >= self.next_probe_ns
    }

    /// Runs a probe round if one is due, returning the backends that just
    /// went down (empty otherwise). Each backend's verdict comes from the
    /// seeded [`SITE_LB_PROBE_FAIL`] site — no injector means every probe
    /// succeeds — with `fall`/`rise` consecutive-count hysteresis, so a
    /// single flaky probe neither kills nor resurrects a backend.
    pub fn maybe_probe(&mut self, now_ns: u64) -> &[u16] {
        self.downed.clear();
        if now_ns < self.next_probe_ns {
            return &self.downed;
        }
        self.next_probe_ns = now_ns.saturating_add(self.cfg.probe_interval_ns);
        for i in 0..self.backends.len() {
            self.stats.probes += 1;
            let failed = self
                .injector
                .as_mut()
                .is_some_and(|inj| inj.should_fail(SITE_LB_PROBE_FAIL));
            let b = &mut self.backends[i];
            if failed {
                self.stats.probe_failures += 1;
                b.oks = 0;
                b.fails += 1;
                if b.fails >= self.cfg.fall && b.state != BackendState::Down {
                    b.state = BackendState::Down;
                    self.stats.ejections += 1;
                    sysobs::obs_count!("net.lb.ejections", 1);
                    self.downed
                        .push(u16::try_from(i).expect("backend index fits u16"));
                }
            } else {
                b.fails = 0;
                b.oks += 1;
                if b.state == BackendState::Down && b.oks >= self.cfg.rise {
                    b.state = BackendState::Up;
                    self.stats.recoveries += 1;
                }
            }
        }
        &self.downed
    }

    /// Records conntrack entries freed by a backend-death ejection.
    pub fn note_flows_ejected(&mut self, n: usize) {
        self.stats.flows_ejected += n as u64;
    }
}

/// Which direction a NAT'd packet rewrites in, decided by comparing its
/// endpoints against the stored [`NatRewrite`] — never by the canonical
/// key, which a hairpinned flow can collide with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NatDir {
    /// Client → VIP: rewrite the destination to the backend.
    ToBackend,
    /// Backend → client: rewrite the source back to the VIP.
    ToClient,
}

/// A packet's transport endpoints as addressed on arrival (before any
/// rewrite).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ends {
    pub(crate) src: u32,
    pub(crate) sport: u16,
    pub(crate) dst: u32,
    pub(crate) dport: u16,
}

impl Ends {
    /// Classifies the packet against its flow's rewrite tuple. Reply
    /// direction is checked first: on a degenerate hairpin (client ==
    /// backend host) the reply's endpoints also match "client dialing the
    /// backend", and replies must win that tie or the VIP source rewrite
    /// never happens. `None`: tracked, but already addressed correctly
    /// (hairpin) — forward as-is.
    fn nat_dir(self, nat: &NatRewrite) -> Option<NatDir> {
        if self.src == nat.backend_ip
            && self.sport == nat.backend_port
            && self.dst == nat.client_ip
            && self.dport == nat.client_port
        {
            Some(NatDir::ToClient)
        } else if self.dst == nat.vip && self.dport == nat.vport {
            Some(NatDir::ToBackend)
        } else {
            None
        }
    }
}

/// The balancer's stages of [`pipeline::route_frame`]: VIP
/// classification and backend assignment during admission, and the NAT
/// rewrite at egress.
impl BackendPool {
    fn is_vip(&self, ends: Ends) -> bool {
        ends.dst == self.cfg.vip && ends.dport == self.cfg.vport
    }

    /// TCP admission with a pool: one fused conntrack walk decides
    /// admission and returns the flow's stored rewrite. VIP-destined flows
    /// are created by assignment only, never by plain admission, and only a
    /// flow-creating SYN may claim a backend; everything else to the VIP
    /// without state is shed like any other stateless TCP. Non-VIP traffic
    /// is admitted exactly as with no pool.
    pub(crate) fn admit_tcp(
        &mut self,
        ct: &mut Conntrack,
        key: &FlowKey,
        seg: TcpSummary,
        ends: Ends,
        now_ns: u64,
    ) -> Result<Verdict, DropReason> {
        let vip = self.is_vip(ends);
        match ct.admit_tcp_nat(key, seg, now_ns, !vip) {
            Ok(Some(nat)) => Ok(self.classify(&nat, ends)),
            Ok(None) => Ok(Verdict::plain(ends.src, ends.dst)),
            Err(DropReason::NoFlow) if vip && seg.syn && !seg.ack => {
                self.assign(ct, key, ends, IPPROTO_TCP, now_ns)
            }
            Err(e) => Err(e),
        }
    }

    /// UDP admission with a pool: a NAT'd flow refreshes its recency and
    /// rewrites; UDP has no handshake, so the first datagram to the VIP
    /// claims a backend and the entry is born established. Non-VIP UDP
    /// stays untracked.
    pub(crate) fn admit_udp(
        &mut self,
        ct: &mut Conntrack,
        ends: Ends,
        now_ns: u64,
    ) -> Result<Verdict, DropReason> {
        let key = FlowKey::canonical(ends.src, ends.dst, ends.sport, ends.dport, IPPROTO_UDP);
        if let Some(nat) = ct.refresh_nat(&key, now_ns) {
            Ok(self.classify(&nat, ends))
        } else if self.is_vip(ends) {
            self.assign(ct, &key, ends, IPPROTO_UDP, now_ns)
        } else {
            Ok(Verdict::plain(ends.src, ends.dst))
        }
    }

    /// The verdict for a packet whose flow already carries a rewrite.
    fn classify(&mut self, nat: &NatRewrite, ends: Ends) -> Verdict {
        if let Some(dir) = ends.nat_dir(nat) {
            return Verdict::rewritten(*nat, dir, ends);
        }
        self.stats.hairpin_passthrough += 1;
        Verdict::plain(ends.src, ends.dst)
    }

    /// Selects a backend for a new VIP flow and installs its twin NAT
    /// entries.
    fn assign(
        &mut self,
        ct: &mut Conntrack,
        key: &FlowKey,
        ends: Ends,
        proto: u8,
        now_ns: u64,
    ) -> Result<Verdict, DropReason> {
        let Some(idx) = self.select(key.hash()) else {
            self.stats.no_backend += 1;
            return Err(DropReason::NoBackend);
        };
        let b = self.backend(idx);
        let nat = NatRewrite {
            client_ip: ends.src,
            client_port: ends.sport,
            vip: ends.dst,
            vport: ends.dport,
            backend_ip: b.ip,
            backend_port: b.port,
            backend: idx,
        };
        let reply = FlowKey::canonical(ends.src, b.ip, ends.sport, b.port, proto);
        let state = if proto == IPPROTO_TCP {
            FlowState::SynSeen
        } else {
            FlowState::Established
        };
        ct.insert_nat(key, &reply, nat, state, now_ns)?;
        self.stats.assigned += 1;
        Ok(Verdict::rewritten(nat, NatDir::ToBackend, ends))
    }

    /// Counts a rewrite the pipeline applied.
    pub(crate) fn note_rewrite(&mut self, dir: NatDir) {
        match dir {
            NatDir::ToBackend => self.stats.rewrites_to_backend += 1,
            NatDir::ToClient => self.stats.rewrites_to_client += 1,
        }
    }
}

/// Instrumented [`pipeline::process_batch`] through a tracker and a pool —
/// kept for the `perfbench` workloads.
pub fn process_batch_lb<T: Copy>(
    frames: &mut [impl AsMut<[u8]>],
    table: &impl Routes<T>,
    cache: Option<&mut FlowCache<T>>,
    ct: &mut Conntrack,
    pool: &mut BackendPool,
    now_ns: u64,
    forward: impl FnMut(T),
) -> BatchStats {
    pipeline::process_batch::<true, T>(
        frames,
        table,
        cache,
        Some((ct, Some(pool))),
        now_ns,
        forward,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conntrack::{ConntrackConfig, EvictCause};
    use crate::lpm::TrieTable;
    use sysfault::{FaultPlan, Schedule};
    use sysrepr::packet::{EthernetView, PacketBuilder, TCP_ACK, TCP_SYN};

    const VIP: [u8; 4] = [10, 200, 0, 1];
    const B0: [u8; 4] = [10, 50, 0, 10];
    const B1: [u8; 4] = [10, 50, 0, 11];
    const B2: [u8; 4] = [10, 50, 0, 12];

    fn pool_config() -> LbConfig {
        LbConfig {
            vip: u32::from_be_bytes(VIP),
            vport: 80,
            backends: vec![
                BackendConfig {
                    ip: u32::from_be_bytes(B0),
                    port: 8080,
                    weight: 1,
                },
                BackendConfig {
                    ip: u32::from_be_bytes(B1),
                    port: 8080,
                    weight: 1,
                },
                BackendConfig {
                    ip: u32::from_be_bytes(B2),
                    port: 8080,
                    weight: 2,
                },
            ],
            probe_interval_ns: 1_000_000,
            fall: 2,
            rise: 2,
        }
    }

    fn table() -> TrieTable<u16> {
        let mut t = TrieTable::new();
        // Backends live under 10.50/16, clients under 10.9/16, VIP /32.
        t.insert(u32::from_be_bytes([10, 50, 0, 0]), 16, 1).unwrap();
        t.insert(u32::from_be_bytes([10, 9, 0, 0]), 16, 2).unwrap();
        t.insert(u32::from_be_bytes(VIP), 32, 3).unwrap();
        t
    }

    /// The balanced pipeline with no flow cache.
    fn route_lb(
        frame: &mut [u8],
        t: &TrieTable<u16>,
        ct: &mut Conntrack,
        pool: &mut BackendPool,
        now: u64,
    ) -> Result<u16, DropReason> {
        pipeline::route_frame::<false, _>(frame, t, None, Some((ct, Some(pool))), now)
    }

    fn syn(client: [u8; 4], sport: u16) -> Vec<u8> {
        PacketBuilder::tcp()
            .src_ip(client)
            .dst_ip(VIP)
            .src_port(sport)
            .dst_port(80)
            .tcp_flags(TCP_SYN)
            .build()
    }

    fn parsed(frame: &[u8]) -> (u32, u32, u16, u16) {
        let ip = EthernetView::parse(frame).unwrap().ipv4().unwrap();
        let tcp = ip.tcp().unwrap();
        (
            u32::from_be_bytes(ip.src()),
            ip.dst_u32(),
            tcp.src_port(),
            tcp.dst_port(),
        )
    }

    #[test]
    fn rendezvous_selection_is_stable_and_weighted() {
        let pool = BackendPool::new(pool_config());
        let mut counts = [0u32; 3];
        for f in 0..6000u64 {
            let h = sysobs::fnv1a(&f.to_le_bytes());
            let a = pool.select(h).unwrap();
            assert_eq!(pool.select(h), Some(a), "selection must be deterministic");
            counts[usize::from(a)] += 1;
        }
        // Backend 2 has weight 2: roughly half the flows, and every backend
        // gets a nontrivial share.
        assert!(counts.iter().all(|&c| c > 600), "counts: {counts:?}");
        assert!(
            counts[2] > counts[0] && counts[2] > counts[1],
            "weight 2 must attract the largest share: {counts:?}"
        );
    }

    /// `select` as first written: one FNV-1a over the whole 16-byte
    /// `(flow hash, backend identity)` seed per up backend.
    fn select_by_full_seed(pool: &BackendPool, flow_hash: u64) -> Option<u16> {
        let mut best: Option<(f64, u16)> = None;
        for (i, b) in pool.backends.iter().enumerate() {
            if b.state != BackendState::Up {
                continue;
            }
            let mut seed = [0u8; 16];
            seed[..8].copy_from_slice(&flow_hash.to_le_bytes());
            seed[8..12].copy_from_slice(&b.cfg.ip.to_be_bytes());
            seed[12..14].copy_from_slice(&b.cfg.port.to_be_bytes());
            seed[14..].copy_from_slice(&u16::try_from(i).unwrap().to_le_bytes());
            let u = ((fnv1a(&seed) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            let score = f64::from(b.cfg.weight) / -u.ln();
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, i as u16));
            }
        }
        best.map(|(_, i)| i)
    }

    #[test]
    fn select_folds_the_prefix_once_and_picks_as_the_full_seed_hash() {
        let mut cfg = pool_config();
        cfg.backends.push(BackendConfig {
            ip: u32::from_be_bytes([10, 50, 0, 13]),
            port: 9090,
            weight: 3,
        });
        let mut pool = BackendPool::new(cfg);
        let same_picks = |pool: &BackendPool| {
            (0..10_000u64).all(|f| {
                let h = sysobs::fnv1a(&f.to_le_bytes());
                pool.select(h) == select_by_full_seed(pool, h)
            })
        };
        assert!(same_picks(&pool), "all backends up");
        pool.drain(1);
        assert!(same_picks(&pool), "one draining");
        assert!(pool.force_down(3));
        assert!(same_picks(&pool), "one draining, one down");
        pool.drain(0);
        pool.drain(2);
        assert!(same_picks(&pool), "none up");
        assert_eq!(pool.select(1), None);
    }

    #[test]
    fn down_backend_moves_only_its_flows() {
        let mut pool = BackendPool::new(pool_config());
        let hashes: Vec<u64> = (0..2000u64)
            .map(|f| sysobs::fnv1a(&f.to_le_bytes()))
            .collect();
        let before: Vec<u16> = hashes.iter().map(|&h| pool.select(h).unwrap()).collect();
        // Kill backend 2 via scripted probes: with 3 probes per round,
        // EveryNth(3) fails exactly the third (backend 2) every round, and
        // fall = 2 downs it after the second round.
        let plan = FaultPlan::new(7).with_site(SITE_LB_PROBE_FAIL, Schedule::EveryNth(3));
        pool = pool.with_injector(sysfault::FaultInjector::new(plan));
        pool.maybe_probe(0);
        let downed = pool.maybe_probe(2_000_000).to_vec();
        assert_eq!(downed, vec![2], "EveryNth(3) fails backend 2 every round");
        for (h, old) in hashes.iter().zip(&before) {
            let new = pool.select(*h).unwrap();
            if *old != 2 {
                assert_eq!(new, *old, "flows on live backends must not move");
            } else {
                assert_ne!(new, 2, "flows on the dead backend must move");
            }
        }
    }

    #[test]
    fn draining_backend_takes_no_new_flows_but_keeps_established() {
        let t = table();
        let mut ct = Conntrack::new(ConntrackConfig::default());
        let mut pool = BackendPool::new(pool_config());
        // Establish one flow; find which backend it landed on.
        let mut f = syn([10, 9, 0, 1], 40_000);
        route_lb(&mut f, &t, &mut ct, &mut pool, 0).unwrap();
        let key = FlowKey::canonical(
            u32::from_be_bytes([10, 9, 0, 1]),
            pool.cfg.vip,
            40_000,
            80,
            IPPROTO_TCP,
        );
        let backend = ct.nat_of(&key).unwrap().backend;
        pool.drain(backend);
        assert_eq!(pool.state(backend), BackendState::Draining);
        // New flows never land on the draining backend...
        for s in 0..200u16 {
            let mut f = syn([10, 9, 1, 1], 41_000 + s);
            route_lb(&mut f, &t, &mut ct, &mut pool, 1).unwrap();
            let k = FlowKey::canonical(
                u32::from_be_bytes([10, 9, 1, 1]),
                pool.cfg.vip,
                41_000 + s,
                80,
                IPPROTO_TCP,
            );
            assert_ne!(ct.nat_of(&k).unwrap().backend, backend);
        }
        // ...but the established flow still forwards, rewritten, both ways.
        let mut ack = PacketBuilder::tcp()
            .src_ip([10, 9, 0, 1])
            .dst_ip(VIP)
            .src_port(40_000)
            .dst_port(80)
            .tcp_flags(TCP_ACK)
            .build();
        assert_eq!(
            route_lb(&mut ack, &t, &mut ct, &mut pool, 2),
            Ok(1),
            "draining must not strand the established flow"
        );
        assert!(ct.contains(&key), "flow survives the drain");
    }

    #[test]
    fn forward_and_reply_rewrites_round_trip() {
        let t = table();
        let mut ct = Conntrack::new(ConntrackConfig::default());
        let mut pool = BackendPool::new(pool_config());
        let client = [10, 9, 0, 7];
        let mut f = syn(client, 50_000);
        assert_eq!(
            route_lb(&mut f, &t, &mut ct, &mut pool, 0),
            Ok(1),
            "rewritten SYN routes to the backend subnet"
        );
        let (src, dst, sport, dport) = parsed(&f);
        assert_eq!(src, u32::from_be_bytes(client), "source untouched");
        assert_eq!(sport, 50_000);
        assert_eq!(dport, 8080, "destination port rewritten");
        let ip = EthernetView::parse(&f).unwrap().ipv4().unwrap();
        ip.verify_checksum().unwrap();
        assert_ne!(dst, pool.cfg.vip, "destination address rewritten");
        // Craft the backend's reply and push it through: src must become
        // the VIP again so the client never sees the backend address.
        let mut reply = PacketBuilder::tcp()
            .src_ip(dst.to_be_bytes())
            .dst_ip(client)
            .src_port(8080)
            .dst_port(50_000)
            .tcp_flags(TCP_ACK)
            .build();
        assert_eq!(
            route_lb(&mut reply, &t, &mut ct, &mut pool, 1),
            Ok(2),
            "reply routes to the client subnet"
        );
        let (rsrc, rdst, rsport, rdport) = parsed(&reply);
        assert_eq!(rsrc, pool.cfg.vip, "reply source is the VIP");
        assert_eq!(rsport, 80, "reply source port is the VIP port");
        assert_eq!(rdst, u32::from_be_bytes(client));
        assert_eq!(rdport, 50_000);
        EthernetView::parse(&reply)
            .unwrap()
            .ipv4()
            .unwrap()
            .verify_checksum()
            .unwrap();
        assert_eq!(pool.stats.rewrites_to_backend, 1);
        assert_eq!(pool.stats.rewrites_to_client, 1);
        // The handshake promoted both twins.
        let key = FlowKey::canonical(
            u32::from_be_bytes(client),
            pool.cfg.vip,
            50_000,
            80,
            IPPROTO_TCP,
        );
        assert!(ct.contains(&key));
        ct.check_invariants().unwrap();
    }

    #[test]
    fn non_syn_vip_packets_without_state_are_shed() {
        let t = table();
        let mut ct = Conntrack::new(ConntrackConfig::default());
        let mut pool = BackendPool::new(pool_config());
        let mut ack = PacketBuilder::tcp()
            .src_ip([10, 9, 0, 1])
            .dst_ip(VIP)
            .src_port(1234)
            .dst_port(80)
            .tcp_flags(TCP_ACK)
            .build();
        assert_eq!(
            route_lb(&mut ack, &t, &mut ct, &mut pool, 0),
            Err(DropReason::NoFlow)
        );
        assert_eq!(ct.len(), 0);
        assert_eq!(pool.stats.assigned, 0);
    }

    #[test]
    fn all_backends_down_sheds_as_no_backend() {
        let t = table();
        let mut ct = Conntrack::new(ConntrackConfig::default());
        let plan = FaultPlan::new(3).with_site(SITE_LB_PROBE_FAIL, Schedule::EveryNth(1));
        let mut pool =
            BackendPool::new(pool_config()).with_injector(sysfault::FaultInjector::new(plan));
        pool.maybe_probe(0);
        pool.maybe_probe(2_000_000);
        assert_eq!(pool.healthy(), 0);
        let mut f = syn([10, 9, 0, 1], 40_000);
        assert_eq!(
            route_lb(&mut f, &t, &mut ct, &mut pool, 0),
            Err(DropReason::NoBackend)
        );
        assert_eq!(pool.stats().no_backend, 1);
        assert_eq!(ct.len(), 0, "a shed SYN leaves no state behind");
    }

    #[test]
    fn udp_vip_flows_balance_and_refresh() {
        let t = table();
        let mut ct = Conntrack::new(ConntrackConfig::default());
        let mut pool = BackendPool::new(pool_config());
        let mut d = PacketBuilder::udp()
            .src_ip([10, 9, 0, 3])
            .dst_ip(VIP)
            .src_port(9999)
            .dst_port(80)
            .payload(b"hello")
            .build();
        assert_eq!(route_lb(&mut d, &t, &mut ct, &mut pool, 0), Ok(1));
        assert_eq!(ct.len(), 2, "udp NAT flow stores its twin pair");
        // Second datagram: same flow, no new assignment.
        let mut d2 = PacketBuilder::udp()
            .src_ip([10, 9, 0, 3])
            .dst_ip(VIP)
            .src_port(9999)
            .dst_port(80)
            .payload(b"again")
            .build();
        assert_eq!(route_lb(&mut d2, &t, &mut ct, &mut pool, 1), Ok(1));
        assert_eq!(pool.stats.assigned, 1);
        assert_eq!(pool.stats.rewrites_to_backend, 2);
        ct.check_invariants().unwrap();
    }

    #[test]
    fn backend_death_ejects_flows_and_failover_reassigns() {
        let t = table();
        // Probes run in backend order, so on a 3-backend pool EveryNth(3)
        // fails exactly backend 2's probe every round: a scripted,
        // replayable single-backend death (fall = 2 → down after round 2).
        let plan = FaultPlan::new(11).with_site(SITE_LB_PROBE_FAIL, Schedule::EveryNth(3));
        let mut pool =
            BackendPool::new(pool_config()).with_injector(sysfault::FaultInjector::new(plan));
        let mut ct = Conntrack::new(ConntrackConfig::default());
        // Establish flows until one lands on the doomed backend 2.
        let client = u32::from_be_bytes([10, 9, 0, 1]);
        let mut victim = None;
        for s in 0..64u16 {
            let mut f = syn([10, 9, 0, 1], 30_000 + s);
            route_lb(&mut f, &t, &mut ct, &mut pool, 0).unwrap();
            let k = FlowKey::canonical(client, pool.cfg.vip, 30_000 + s, 80, IPPROTO_TCP);
            if ct.nat_of(&k).unwrap().backend == 2 {
                victim = Some((k, 30_000 + s));
                break;
            }
        }
        let (key, sport) = victim.expect("some flow lands on backend 2");
        let live_before = ct.len();
        pool.maybe_probe(0);
        let downed = pool.maybe_probe(2_000_000).to_vec();
        assert_eq!(downed, vec![2], "two failed rounds down backend 2 only");
        for &b in &downed {
            let freed = ct.eject_backend(b, EvictCause::BackendDead);
            pool.note_flows_ejected(freed);
        }
        assert!(
            !ct.contains(&key),
            "flows to the dead backend are ejected, twins included"
        );
        assert!(ct.len() < live_before);
        assert_eq!(
            ct.stats().removed[EvictCause::BackendDead as usize] % 2,
            0,
            "NAT ejection removes twins in pairs"
        );
        ct.check_invariants().unwrap();
        // The client retries the same 5-tuple and immediately gets a live
        // backend — no waiting out an idle timeout on the stale rewrite.
        let mut retry = syn([10, 9, 0, 1], sport);
        assert_eq!(
            route_lb(&mut retry, &t, &mut ct, &mut pool, 3_000_000),
            Ok(1)
        );
        assert_ne!(
            ct.nat_of(&key).unwrap().backend,
            2,
            "retry re-selects a live backend"
        );
        assert!(pool.stats().flows_ejected >= 2);
    }

    #[test]
    fn force_down_and_revive_script_backend_lifecycles() {
        let t = table();
        let mut ct = Conntrack::new(ConntrackConfig::default());
        let mut pool = BackendPool::new(pool_config());
        assert!(pool.force_down(2), "first kill transitions");
        assert!(!pool.force_down(2), "second kill is a no-op");
        assert_eq!(pool.state(2), BackendState::Down);
        assert_eq!(pool.healthy(), 2);
        // New flows avoid the killed backend entirely.
        for s in 0..100u16 {
            let mut f = syn([10, 9, 2, 1], 42_000 + s);
            route_lb(&mut f, &t, &mut ct, &mut pool, 0).unwrap();
            let k = FlowKey::canonical(
                u32::from_be_bytes([10, 9, 2, 1]),
                pool.cfg.vip,
                42_000 + s,
                80,
                IPPROTO_TCP,
            );
            assert_ne!(ct.nat_of(&k).unwrap().backend, 2);
        }
        assert!(pool.revive(2));
        assert!(!pool.revive(2), "revive of an up backend is a no-op");
        assert_eq!(pool.healthy(), 3);
        assert_eq!(pool.stats().ejections, 1);
        assert_eq!(pool.stats().recoveries, 1);
        assert_eq!(pool.fault_digest(), 0, "no injector, empty fault log");
        ct.check_invariants().unwrap();
    }

    #[test]
    fn probe_hysteresis_requires_consecutive_failures() {
        // Probability-0.5 probes with fall=3: a single bad probe must not
        // down a backend; only a (seeded, replayable) run of 3 does.
        let mut cfg = pool_config();
        cfg.fall = 3;
        cfg.rise = 2;
        let plan = FaultPlan::new(99).with_site(SITE_LB_PROBE_FAIL, Schedule::Probability(0.5));
        let mut pool = BackendPool::new(cfg).with_injector(sysfault::FaultInjector::new(plan));
        let mut t = 0u64;
        let mut saw_down = false;
        for _ in 0..200 {
            pool.maybe_probe(t);
            t += 2_000_000;
            saw_down |= pool.healthy() < pool.len();
        }
        assert!(saw_down, "p=0.5 over 200 rounds must down something");
        assert!(
            pool.stats().recoveries > 0,
            "rise hysteresis must also recover backends"
        );
        let s = pool.stats();
        assert!(s.probes >= 600);
        assert!(s.probe_failures > 0);
    }

    #[test]
    fn batch_lb_path_counts_and_preserves_conservation() {
        let t = table();
        let mut ct = Conntrack::new(ConntrackConfig::default());
        let mut pool = BackendPool::new(pool_config());
        let mut frames = vec![
            syn([10, 9, 0, 1], 40_000),
            syn([10, 9, 0, 2], 40_001),
            PacketBuilder::tcp()
                .src_ip([10, 9, 0, 3])
                .dst_ip(VIP)
                .src_port(40_002)
                .dst_port(80)
                .tcp_flags(TCP_ACK)
                .build(),
            PacketBuilder::udp()
                .src_ip([10, 9, 0, 4])
                .dst_ip([10, 50, 0, 10])
                .payload(b"direct")
                .build(),
            vec![0u8; 5],
        ];
        let mut hops = Vec::new();
        let stats = pipeline::process_batch::<false, _>(
            &mut frames,
            &t,
            None,
            Some((&mut ct, Some(&mut pool))),
            0,
            |h: u16| hops.push(h),
        );
        assert_eq!(stats.total(), frames.len() as u64);
        assert_eq!(stats.forwarded, 3, "two SYNs + one direct UDP");
        assert_eq!(stats.dropped[DropReason::NoFlow as usize], 1);
        assert_eq!(stats.dropped[DropReason::Malformed as usize], 1);
        assert_eq!(pool.stats().assigned, 2);
        ct.check_invariants().unwrap();
    }
}
