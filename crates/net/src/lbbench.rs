//! The load-balancer bench harness: experiment E17's measurement core.
//!
//! Three questions, three instruments:
//!
//! * **Rewrite tax** — what does NAT rewriting cost on the fast path? The
//!   same client population runs twice through the real sharded router:
//!   once dialing the backends directly (tracked, no LB) and once dialing
//!   the VIP (tracked + rewrite). The headline `rewrite_pps_ratio` is the
//!   second over the first; the ROADMAP target is ≥ 0.9.
//! * **Churn** — does balanced goodput survive connection churn? A
//!   port-scan storm (one-shot SYNs against the VIP host's other ports,
//!   never completing) rides on top of the steady population, and a
//!   slowloris population (many held-open flows, each trickling data)
//!   measures the per-packet cost of a large resident NAT table.
//! * **Failover** — when a backend dies, how fast does goodput come back?
//!   A virtual-clock harness scripts the death through the seeded
//!   [`SITE_LB_PROBE_FAIL`] site (`Schedule::OneShotAt`, exactly
//!   replayable), ejects the victim flows, and counts handshake-retry
//!   ticks until every client delivers data again. The acceptance bar is
//!   recovery within one health-probe interval.
//!
//! Router scenarios reuse the zero-alloc [`FrameForge`] generator from the
//! conntrack bench, so the counting-allocator bracket measures the router,
//! not the traffic source. [`LbBenchReport::to_json`] renders
//! `BENCH_lb.json`.

use crate::conntrack::{Conntrack, ConntrackConfig, EvictCause, FlowKey};
use crate::ctbench::FrameForge;
use crate::lb::{BackendConfig, BackendPool, LbConfig, SITE_LB_PROBE_FAIL};
use crate::lpm::TrieTable;
use crate::pipeline::{route_frame, DropReason};
use crate::router::{PortId, RouterConfig, ShardedRouter};
use std::fmt::Write as _;
use std::time::Instant;
use sysfault::{FaultInjector, FaultPlan, Schedule};
use sysrepr::packet::{IPPROTO_TCP, TCP_ACK, TCP_SYN};

/// Ports the LB bench table spreads over: 1 backends, 2 clients, 3 the
/// VIP host itself (where unrewritten storm SYNs land), 0 default.
pub const LB_PORTS: usize = 4;

/// The bench VIP.
pub const LB_VIP: [u8; 4] = [10, 200, 0, 1];
/// The bench VIP port.
pub const LB_VPORT: u16 = 80;

/// The three bench backends (weights 1, 1, 2 — selection must honor the
/// double share).
#[must_use]
pub fn lb_backends() -> Vec<BackendConfig> {
    [
        ([10u8, 50, 0, 10], 1u32),
        ([10, 50, 0, 11], 1),
        ([10, 50, 0, 12], 2),
    ]
    .iter()
    .map(|&(ip, weight)| BackendConfig {
        ip: u32::from_be_bytes(ip),
        port: 8080,
        weight,
    })
    .collect()
}

/// The bench route table: backends under 10.50/16 (port 1), clients under
/// 10.9/16 (port 2), the VIP host /32 (port 3), default (port 0).
#[must_use]
pub fn lb_table() -> TrieTable<PortId> {
    let mut t = TrieTable::new();
    t.insert(u32::from_be_bytes([10, 50, 0, 0]), 16, 1)
        .expect("valid route");
    t.insert(u32::from_be_bytes([10, 9, 0, 0]), 16, 2)
        .expect("valid route");
    t.insert(u32::from_be_bytes(LB_VIP), 32, 3)
        .expect("valid route");
    t.insert(0, 0, 0).expect("valid route");
    t
}

/// Client flow `f`'s endpoint: unique `(ip, port)` under 10.9/16.
#[allow(clippy::cast_possible_truncation)]
fn client_endpoint(f: usize) -> ([u8; 4], u16) {
    let ip = [10, 9, (f >> 8) as u8, f as u8];
    let port = 1024 + ((f >> 16) as u16 & 0x3FFF);
    (ip, port)
}

/// Storm SYN `j`'s endpoint: unique per packet, aimed at the VIP host's
/// non-service ports so unrewritten scans route to port 3.
#[allow(clippy::cast_possible_truncation)]
fn storm_endpoint(j: u64) -> ([u8; 4], u16, u16) {
    let src = [
        198,
        18 + ((j >> 30) as u8 & 1),
        (j >> 22) as u8,
        (j >> 14) as u8,
    ];
    let sport = 1024 + (j as u16 & 0x3FFF);
    let dport = 8000 + (j % 997) as u16;
    (src, sport, dport)
}

/// Which traffic shape a router scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbScenario {
    /// Clients dial the backends directly; conntrack on, LB off. The
    /// no-rewrite control the pps ratio divides by.
    BaselineNoLb,
    /// Clients dial the VIP; every packet rewrites.
    Steady,
    /// Steady plus a port-scan storm against the VIP host.
    PortScanStorm,
    /// A large held-open population trickling data (stride-scheduled).
    Slowloris,
}

impl LbScenario {
    /// The scenario's record name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LbScenario::BaselineNoLb => "baseline_no_lb",
            LbScenario::Steady => "steady",
            LbScenario::PortScanStorm => "portscan_storm",
            LbScenario::Slowloris => "slowloris",
        }
    }
}

/// Sizing for one LB bench run.
#[derive(Debug, Clone)]
pub struct LbBenchConfig {
    /// Client flows for the baseline / steady / storm scenarios.
    pub flows: usize,
    /// Data packets per flow after establishment.
    pub data_rounds: usize,
    /// Benign-packet floor per scenario (extra data rounds amortize
    /// warm-up, as in the conntrack bench).
    pub min_benign_packets: usize,
    /// Storm fraction of offered load in the port-scan scenario.
    pub storm_mix: f64,
    /// Held-open flows in the slowloris scenario.
    pub slowloris_flows: usize,
    /// Trickle rounds; each round 1/`slowloris_stride` of flows send.
    pub slowloris_rounds: usize,
    /// Stride between talkative flows per trickle round.
    pub slowloris_stride: usize,
    /// Worker threads.
    pub workers: usize,
    /// Frames per batch.
    pub batch_size: usize,
    /// Bounded-queue depth (batches) per worker.
    pub queue_depth: usize,
    /// Per-shard half-open budget.
    pub syn_backlog: usize,
    /// Timed trials per scenario; best by pps recorded.
    pub trials: usize,
    /// Process-wide allocation counter; brackets the second half of each
    /// stream for allocs/packet.
    pub alloc_counter: Option<fn() -> u64>,
}

impl LbBenchConfig {
    /// CI-sized run (well under a second).
    #[must_use]
    pub fn quick() -> Self {
        LbBenchConfig {
            flows: 4_000,
            data_rounds: 6,
            min_benign_packets: 60_000,
            storm_mix: 0.5,
            slowloris_flows: 8_000,
            slowloris_rounds: 192,
            slowloris_stride: 32,
            workers: 2,
            batch_size: 64,
            queue_depth: 8,
            syn_backlog: 1_024,
            trials: 1,
            alloc_counter: None,
        }
    }

    /// Recorded-trajectory run (tens of seconds).
    #[must_use]
    pub fn full() -> Self {
        LbBenchConfig {
            flows: 50_000,
            data_rounds: 6,
            min_benign_packets: 1_000_000,
            storm_mix: 0.5,
            slowloris_flows: 250_000,
            slowloris_rounds: 128,
            slowloris_stride: 32,
            workers: 4,
            batch_size: 64,
            queue_depth: 8,
            syn_backlog: 4_096,
            trials: 3,
            alloc_counter: None,
        }
    }

    /// Router-wide flow-table capacity for `flows` NAT'd flows: twin slots
    /// double the population, and the table is provisioned at ≤ 50 % load
    /// on top of that — open addressing degrades sharply past half full, and
    /// an underprovisioned table would charge probe-chain walks to the
    /// rewrite path and corrupt the control comparison — plus one SYN
    /// backlog per shard of half-open churn.
    #[must_use]
    pub fn capacity_for(&self, flows: usize) -> usize {
        4 * flows + self.workers * self.syn_backlog
    }
}

/// One measured router scenario.
#[derive(Debug, Clone, Copy)]
pub struct LbPoint {
    /// Which scenario.
    pub scenario: LbScenario,
    /// Client flows established.
    pub flows: usize,
    /// Wall-clock packets/sec over the whole stream.
    pub pps: f64,
    /// Median per-packet latency, ns.
    pub p50_ns: u64,
    /// 99th-percentile per-packet latency, ns.
    pub p99_ns: u64,
    /// Benign packets offered (handshakes + data).
    pub benign_sent: u64,
    /// Benign packets forwarded to the backend port.
    pub benign_delivered: u64,
    /// Storm packets offered.
    pub storm_sent: u64,
    /// Storm packets forwarded (port 3 — the unrewritten VIP host route).
    pub storm_forwarded: u64,
    /// New flows the pool assigned a backend.
    pub assigned: u64,
    /// Forward-path rewrites applied.
    pub rewrites_to_backend: u64,
    /// VIP flows shed with no backend up.
    pub no_backend: u64,
    /// Highest single-shard entry count observed.
    pub peak_flows: u64,
    /// Packets shed as NoFlow (storm churn pressure on benign state).
    pub dropped_no_flow: u64,
    /// SYNs shed because no capacity could be reclaimed.
    pub dropped_table_full: u64,
    /// Allocations per packet over the stream's second half.
    pub steady_allocs_per_packet: Option<f64>,
}

impl LbPoint {
    /// Fraction of offered benign packets forwarded.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn benign_delivery(&self) -> f64 {
        if self.benign_sent == 0 {
            0.0
        } else {
            self.benign_delivered as f64 / self.benign_sent as f64
        }
    }
}

/// Runs one router scenario: establishes the client population (SYN then
/// cookie-echo ACK, as in the conntrack bench), then streams data rounds,
/// interleaving storm SYNs at the configured mix for the storm scenario.
#[must_use]
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::too_many_lines
)]
pub fn run_lb_point(cfg: &LbBenchConfig, scenario: LbScenario) -> LbPoint {
    let flows = match scenario {
        LbScenario::Slowloris => cfg.slowloris_flows,
        _ => cfg.flows,
    };
    let ct_cfg = ConntrackConfig {
        max_flows: cfg.capacity_for(flows),
        syn_backlog: cfg.syn_backlog,
        ..ConntrackConfig::default()
    };
    let cookie_ref = Conntrack::new(ct_cfg);
    let lb_cfg = LbConfig {
        vip: u32::from_be_bytes(LB_VIP),
        vport: LB_VPORT,
        backends: lb_backends(),
        ..LbConfig::default()
    };
    let rc = RouterConfig {
        workers: cfg.workers,
        batch_size: cfg.batch_size,
        queue_depth: cfg.queue_depth,
        conntrack: Some(ct_cfg),
        lb: (scenario != LbScenario::BaselineNoLb).then(|| lb_cfg.clone()),
        ..RouterConfig::default()
    };
    let backends = lb_backends();

    // (dst ip, dst port) a client flow dials, per scenario.
    let dial = |f: usize| -> ([u8; 4], u16) {
        if scenario == LbScenario::BaselineNoLb {
            let b = backends[f % backends.len()];
            (b.ip.to_be_bytes(), b.port)
        } else {
            (LB_VIP, LB_VPORT)
        }
    };

    // The offered benign stream: 2 handshake packets per flow, then data.
    let (rounds, benign_total) = if scenario == LbScenario::Slowloris {
        let per_round = flows.div_ceil(cfg.slowloris_stride.max(1));
        (
            cfg.slowloris_rounds,
            2 * flows + cfg.slowloris_rounds * per_round,
        )
    } else {
        let r = cfg
            .data_rounds
            .max((cfg.min_benign_packets / flows.max(1)).saturating_sub(2));
        (r, flows * (2 + r))
    };
    let ratio = if scenario == LbScenario::PortScanStorm && cfg.storm_mix > 0.0 {
        cfg.storm_mix / (1.0 - cfg.storm_mix)
    } else {
        0.0
    };
    let est_total = benign_total + (benign_total as f64 * ratio) as usize;
    let half = est_total / 2;

    let mut forge = FrameForge::new(64);
    let mut router = ShardedRouter::start(lb_table(), LB_PORTS, rc);
    let mut acc = 0.0f64;
    let mut storm_sent = 0u64;
    let mut benign_sent = 0u64;
    let mut submitted = 0usize;
    let mut allocs_mid = None;
    let stride = cfg.slowloris_stride.max(1);
    let t0 = Instant::now();
    let mut offer = |router: &mut ShardedRouter,
                     forge: &mut FrameForge,
                     f: usize,
                     kind: usize,
                     storm_sent: &mut u64,
                     submitted: &mut usize,
                     allocs_mid: &mut Option<u64>| {
        acc += ratio;
        while acc >= 1.0 {
            acc -= 1.0;
            let (src, sport, dport) = storm_endpoint(*storm_sent);
            let frame = forge.shape(false, src, LB_VIP, sport, dport, TCP_SYN, 3, 0);
            router.submit(frame);
            *storm_sent += 1;
            *submitted += 1;
            if *submitted == half {
                *allocs_mid = cfg.alloc_counter.map(|c| c());
            }
        }
        let (src, sport) = client_endpoint(f);
        let (dst, dport) = dial(f);
        let frame = match kind {
            0 => forge.shape(false, src, dst, sport, dport, TCP_SYN, f as u32, 0),
            _ => {
                let key = FlowKey::canonical(
                    u32::from_be_bytes(src),
                    u32::from_be_bytes(dst),
                    sport,
                    dport,
                    IPPROTO_TCP,
                );
                let ack_no = cookie_ref.cookie(&key).wrapping_add(1);
                forge.shape(
                    kind == 2,
                    src,
                    dst,
                    sport,
                    dport,
                    TCP_ACK,
                    f as u32 + 1,
                    ack_no,
                )
            }
        };
        router.submit(frame);
        *submitted += 1;
        if *submitted == half {
            *allocs_mid = cfg.alloc_counter.map(|c| c());
        }
    };
    // Establishment: SYN then handshake ACK, back to back per flow.
    for f in 0..flows {
        for kind in 0..2 {
            offer(
                &mut router,
                &mut forge,
                f,
                kind,
                &mut storm_sent,
                &mut submitted,
                &mut allocs_mid,
            );
            benign_sent += 1;
        }
    }
    // Data rounds: everyone each round, or a rotating stride for slowloris.
    for r in 0..rounds {
        let mut f = if scenario == LbScenario::Slowloris {
            r % stride
        } else {
            0
        };
        let step = if scenario == LbScenario::Slowloris {
            stride
        } else {
            1
        };
        while f < flows {
            offer(
                &mut router,
                &mut forge,
                f,
                2,
                &mut storm_sent,
                &mut submitted,
                &mut allocs_mid,
            );
            benign_sent += 1;
            f += step;
        }
    }
    let allocs_end = cfg.alloc_counter.map(|c| c());
    let report = router.finish();
    let secs = t0.elapsed().as_secs_f64().max(1e-9);

    let t = &report.stats.totals;
    let ct = report.conntrack.as_ref().expect("tracking ran");
    let lb = report.lb.as_ref().copied().unwrap_or_default();
    let steady_allocs_per_packet = match (allocs_mid, allocs_end) {
        (Some(a), Some(b)) if submitted > half => {
            Some(b.saturating_sub(a) as f64 / (submitted - half) as f64)
        }
        _ => None,
    };
    LbPoint {
        scenario,
        flows,
        pps: submitted as f64 / secs,
        p50_ns: report.latency_ns(0.50),
        p99_ns: report.latency_ns(0.99),
        benign_sent,
        benign_delivered: t.per_port.get(1).copied().unwrap_or(0),
        storm_sent,
        storm_forwarded: t.per_port.get(3).copied().unwrap_or(0),
        assigned: lb.assigned,
        rewrites_to_backend: lb.rewrites_to_backend,
        no_backend: lb.no_backend,
        peak_flows: ct.peak_flows,
        dropped_no_flow: t.dropped[DropReason::NoFlow as usize],
        dropped_table_full: t.dropped[DropReason::FlowTableFull as usize],
        steady_allocs_per_packet,
    }
}

/// Sizing for the virtual-clock failover harness.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Client flows held established through the death.
    pub flows: usize,
    /// Measurement ticks after establishment.
    pub rounds: usize,
    /// Virtual nanoseconds per tick (every flow offers one packet per tick).
    pub tick_ns: u64,
    /// Health-probe interval, ns (the recovery budget).
    pub probe_interval_ns: u64,
    /// 1-based probe round whose backend-2 probe fails (`fall` = 1, so
    /// this round *is* the death).
    pub death_round: u64,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            flows: 256,
            rounds: 400,
            tick_ns: 100_000,
            probe_interval_ns: 1_000_000,
            death_round: 20,
        }
    }
}

/// What the failover harness measured.
#[derive(Debug, Clone, Copy)]
pub struct FailoverReport {
    /// Client flows in the run.
    pub flows: usize,
    /// Flows assigned to the doomed backend before death.
    pub victims: u64,
    /// Conntrack entries (twin slots) freed by the ejection.
    pub flows_ejected: u64,
    /// Virtual time of the death verdict.
    pub death_ns: u64,
    /// Virtual time from death to the first tick where every flow
    /// delivered data again; `None` if the run ended first.
    pub recovery_ns: Option<u64>,
    /// The probe interval the recovery is measured against.
    pub probe_interval_ns: u64,
    /// Delivered/offered before the death tick.
    pub goodput_pre: f64,
    /// Delivered/offered from the death tick through recovery.
    pub goodput_during: f64,
    /// Delivered/offered after recovery.
    pub goodput_post: f64,
}

impl FailoverReport {
    /// The acceptance bar: goodput back to 100 % within one probe interval.
    #[must_use]
    pub fn recovered_within_probe_interval(&self) -> bool {
        self.recovery_ns
            .is_some_and(|r| r <= self.probe_interval_ns)
    }
}

/// A virtual client's handshake position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CState {
    NeedSyn,
    NeedAck,
    Established,
}

/// Runs the scripted-death failover harness on the single-threaded LB
/// path under a virtual clock: establish `flows` clients against the VIP,
/// kill backend 2 via `Schedule::OneShotAt` on the probe site (`fall` = 1,
/// deterministic and replayable), eject its flows, and let every orphaned
/// client re-handshake. Goodput is data packets delivered over packets
/// offered; handshake retries spend offered slots without delivering,
/// which is exactly the cost failover should be charged.
#[must_use]
#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
pub fn run_failover(cfg: &FailoverConfig) -> FailoverReport {
    let table = lb_table();
    let lb_cfg = LbConfig {
        vip: u32::from_be_bytes(LB_VIP),
        vport: LB_VPORT,
        backends: lb_backends(),
        probe_interval_ns: cfg.probe_interval_ns,
        fall: 1,
        // The dead backend stays dead for the whole run: recovery is the
        // clients' story here, not the backend's.
        rise: u32::MAX,
    };
    // Probes run in backend order, so call 3k of the probe site is round
    // k's backend-2 probe: OneShotAt(3 * death_round) is a scripted,
    // single-backend death.
    let plan = FaultPlan::new(0xE17)
        .with_site(SITE_LB_PROBE_FAIL, Schedule::OneShotAt(3 * cfg.death_round));
    let mut pool = BackendPool::new(lb_cfg).with_injector(FaultInjector::new(plan));
    let mut ct = Conntrack::new(ConntrackConfig {
        max_flows: 4 * cfg.flows,
        syn_backlog: cfg.flows.max(64),
        ..ConntrackConfig::default()
    });
    let mut forge = FrameForge::new(32);
    let mut now = 0u64;
    let vip = u32::from_be_bytes(LB_VIP);

    let key_of = |f: usize| {
        let (src, sport) = client_endpoint(f);
        FlowKey::canonical(u32::from_be_bytes(src), vip, sport, LB_VPORT, IPPROTO_TCP)
    };
    let send = |state: CState,
                f: usize,
                ct: &mut Conntrack,
                pool: &mut BackendPool,
                forge: &mut FrameForge,
                now: u64| {
        let (src, sport) = client_endpoint(f);
        let (flags, payload) = match state {
            CState::NeedSyn => (TCP_SYN, false),
            CState::NeedAck => (TCP_ACK, false),
            CState::Established => (TCP_ACK, true),
        };
        let ack_no = ct.cookie(&key_of(f)).wrapping_add(1);
        let frame = forge.shape(payload, src, LB_VIP, sport, LB_VPORT, flags, 1, ack_no);
        let mut buf = [0u8; 256];
        let n = frame.len().min(buf.len());
        buf[..n].copy_from_slice(&frame[..n]);
        route_frame::<false, _>(&mut buf[..n], &table, None, Some((ct, Some(pool))), now)
    };

    // Establishment under the running probe clock (death_round is chosen
    // well past it; the assert below keeps configs honest).
    let mut states = vec![CState::NeedSyn; cfg.flows];
    while states.iter().any(|&s| s != CState::Established) {
        now += cfg.tick_ns;
        assert!(
            pool.maybe_probe(now).is_empty(),
            "death_round must land after establishment"
        );
        for (f, st) in states.iter_mut().enumerate() {
            let s = *st;
            if s == CState::Established {
                continue;
            }
            if send(s, f, &mut ct, &mut pool, &mut forge, now).is_ok() {
                *st = match s {
                    CState::NeedSyn => CState::NeedAck,
                    _ => CState::Established,
                };
            }
        }
    }
    let victims = (0..cfg.flows)
        .filter(|&f| ct.nat_of(&key_of(f)).is_some_and(|n| n.backend == 2))
        .count() as u64;

    // Measured ticks: every flow offers one packet per tick; orphans spend
    // ticks re-handshaking.
    let mut death_ns = None;
    let mut recovery_ns = None;
    let mut pre = (0u64, 0u64); // (delivered, offered)
    let mut during = (0u64, 0u64);
    let mut post = (0u64, 0u64);
    for _ in 0..cfg.rounds {
        now += cfg.tick_ns;
        let downed = pool.maybe_probe(now).to_vec();
        for &b in &downed {
            let freed = ct.eject_backend(b, EvictCause::BackendDead);
            pool.note_flows_ejected(freed);
            death_ns.get_or_insert(now);
        }
        let mut delivered = 0u64;
        for (f, st) in states.iter_mut().enumerate() {
            let s = *st;
            match (s, send(s, f, &mut ct, &mut pool, &mut forge, now)) {
                (CState::NeedSyn, Ok(_)) => *st = CState::NeedAck,
                (CState::NeedAck, Ok(_)) => *st = CState::Established,
                (CState::Established, Ok(_)) => delivered += 1,
                (CState::Established, Err(DropReason::NoFlow)) => *st = CState::NeedSyn,
                _ => {}
            }
        }
        let offered = cfg.flows as u64;
        let recovered = delivered == offered;
        match (death_ns, recovery_ns) {
            (None, _) => {
                pre.0 += delivered;
                pre.1 += offered;
            }
            (Some(d), None) => {
                during.0 += delivered;
                during.1 += offered;
                if recovered {
                    recovery_ns = Some(now - d);
                }
            }
            (Some(_), Some(_)) => {
                post.0 += delivered;
                post.1 += offered;
            }
        }
    }
    ct.check_invariants().expect("post-failover audit");
    let frac = |(d, o): (u64, u64)| if o == 0 { 1.0 } else { d as f64 / o as f64 };
    FailoverReport {
        flows: cfg.flows,
        victims,
        flows_ejected: pool.stats().flows_ejected,
        death_ns: death_ns.unwrap_or(0),
        recovery_ns,
        probe_interval_ns: cfg.probe_interval_ns,
        goodput_pre: frac(pre),
        goodput_during: frac(during),
        goodput_post: frac(post),
    }
}

/// The full LB bench record.
#[derive(Debug, Clone)]
pub struct LbBenchReport {
    /// Cores visible to the process.
    pub host_cores: usize,
    /// Worker threads per router scenario.
    pub workers: usize,
    /// Backends in the pool.
    pub backends: usize,
    /// The four router scenarios, baseline first.
    pub scenarios: Vec<LbPoint>,
    /// The virtual-clock failover run.
    pub failover: FailoverReport,
}

impl LbBenchReport {
    /// The no-LB control scenario.
    #[must_use]
    pub fn baseline(&self) -> Option<&LbPoint> {
        self.scenarios
            .iter()
            .find(|p| p.scenario == LbScenario::BaselineNoLb)
    }

    /// The rewriting steady-state scenario.
    #[must_use]
    pub fn steady(&self) -> Option<&LbPoint> {
        self.scenarios
            .iter()
            .find(|p| p.scenario == LbScenario::Steady)
    }

    /// Headline ratio: rewriting steady-state pps over the no-LB control.
    #[must_use]
    pub fn rewrite_pps_ratio(&self) -> Option<f64> {
        match (self.baseline(), self.steady()) {
            (Some(b), Some(s)) if b.pps > 0.0 => Some(s.pps / b.pps),
            _ => None,
        }
    }

    /// Renders the `BENCH_lb.json` record (hand-rolled: no serde in the
    /// container, and the schema is flat).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"bench\": \"lb\",");
        let _ = writeln!(s, "  \"schema\": 1,");
        let _ = writeln!(s, "  \"host_cores\": {},", self.host_cores);
        let _ = writeln!(s, "  \"workers\": {},", self.workers);
        let _ = writeln!(s, "  \"backends\": {},", self.backends);
        let _ = writeln!(s, "  \"scenarios\": [");
        for (i, p) in self.scenarios.iter().enumerate() {
            let comma = if i + 1 == self.scenarios.len() {
                ""
            } else {
                ","
            };
            let allocs = p
                .steady_allocs_per_packet
                .map_or_else(|| "null".to_owned(), |a| format!("{a:.4}"));
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"flows\": {}, \"pps\": {:.0}, \
                 \"p50_ns\": {}, \"p99_ns\": {}, \"benign_sent\": {}, \
                 \"benign_delivered\": {}, \"benign_delivery\": {:.4}, \
                 \"storm_sent\": {}, \"storm_forwarded\": {}, \"assigned\": {}, \
                 \"rewrites_to_backend\": {}, \"no_backend\": {}, \
                 \"peak_flows\": {}, \"dropped_no_flow\": {}, \
                 \"dropped_table_full\": {}, \
                 \"steady_allocs_per_packet\": {allocs}}}{comma}",
                p.scenario.name(),
                p.flows,
                p.pps,
                p.p50_ns,
                p.p99_ns,
                p.benign_sent,
                p.benign_delivered,
                p.benign_delivery(),
                p.storm_sent,
                p.storm_forwarded,
                p.assigned,
                p.rewrites_to_backend,
                p.no_backend,
                p.peak_flows,
                p.dropped_no_flow,
                p.dropped_table_full,
            );
        }
        let _ = writeln!(s, "  ],");
        let f = &self.failover;
        let recovery = f
            .recovery_ns
            .map_or_else(|| "null".to_owned(), |r| r.to_string());
        let _ = writeln!(s, "  \"failover\": {{");
        let _ = writeln!(s, "    \"flows\": {},", f.flows);
        let _ = writeln!(s, "    \"victims\": {},", f.victims);
        let _ = writeln!(s, "    \"flows_ejected\": {},", f.flows_ejected);
        let _ = writeln!(s, "    \"death_ns\": {},", f.death_ns);
        let _ = writeln!(s, "    \"recovery_ns\": {recovery},");
        let _ = writeln!(s, "    \"probe_interval_ns\": {},", f.probe_interval_ns);
        let _ = writeln!(s, "    \"goodput_pre\": {:.4},", f.goodput_pre);
        let _ = writeln!(s, "    \"goodput_during\": {:.4},", f.goodput_during);
        let _ = writeln!(s, "    \"goodput_post\": {:.4},", f.goodput_post);
        let _ = writeln!(
            s,
            "    \"recovery_within_probe_interval\": {}",
            f.recovered_within_probe_interval()
        );
        let _ = writeln!(s, "  }},");
        let steady_allocs = self
            .steady()
            .and_then(|p| p.steady_allocs_per_packet)
            .map_or_else(|| "null".to_owned(), |a| format!("{a:.4}"));
        let ratio = self
            .rewrite_pps_ratio()
            .map_or_else(|| "null".to_owned(), |r| format!("{r:.4}"));
        let _ = writeln!(s, "  \"headline\": {{");
        let _ = writeln!(s, "    \"rewrite_pps_ratio\": {ratio},");
        let _ = writeln!(s, "    \"steady_allocs_per_packet\": {steady_allocs},");
        let _ = writeln!(
            s,
            "    \"recovery_within_probe_interval\": {}",
            f.recovered_within_probe_interval()
        );
        let _ = writeln!(s, "  }}");
        s.push_str("}\n");
        s
    }
}

/// Best of `cfg.trials` runs of one scenario, by pps.
fn best_of(cfg: &LbBenchConfig, scenario: LbScenario) -> LbPoint {
    (0..cfg.trials.max(1))
        .map(|_| run_lb_point(cfg, scenario))
        .max_by(|a, b| a.pps.total_cmp(&b.pps))
        .expect("at least one trial")
}

/// Runs the full LB bench: all four router scenarios plus the
/// virtual-clock failover harness.
#[must_use]
pub fn run_lb_bench(cfg: &LbBenchConfig, failover: &FailoverConfig) -> LbBenchReport {
    let scenarios = [
        LbScenario::BaselineNoLb,
        LbScenario::Steady,
        LbScenario::PortScanStorm,
        LbScenario::Slowloris,
    ]
    .iter()
    .map(|&sc| best_of(cfg, sc))
    .collect();
    LbBenchReport {
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        workers: cfg.workers,
        backends: lb_backends().len(),
        scenarios,
        failover: run_failover(failover),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LbBenchConfig {
        LbBenchConfig {
            flows: 600,
            data_rounds: 4,
            min_benign_packets: 0,
            slowloris_flows: 1_200,
            slowloris_rounds: 8,
            slowloris_stride: 8,
            syn_backlog: 256,
            ..LbBenchConfig::quick()
        }
    }

    #[test]
    fn steady_scenario_delivers_and_rewrites_everything() {
        let p = run_lb_point(&tiny(), LbScenario::Steady);
        assert_eq!(p.benign_sent, 600 * (2 + 4));
        assert_eq!(
            p.benign_delivered, p.benign_sent,
            "every balanced packet lands on the backend port"
        );
        assert_eq!(p.assigned, 600, "one assignment per flow");
        assert_eq!(
            p.rewrites_to_backend, p.benign_sent,
            "every forward packet rewrites"
        );
        assert_eq!(p.storm_sent, 0);
        assert_eq!(p.no_backend, 0);
    }

    #[test]
    fn baseline_scenario_skips_the_lb_entirely() {
        let p = run_lb_point(&tiny(), LbScenario::BaselineNoLb);
        assert_eq!(p.benign_delivered, p.benign_sent, "direct dials forward");
        assert_eq!(p.assigned, 0);
        assert_eq!(p.rewrites_to_backend, 0);
    }

    #[test]
    fn portscan_storm_does_not_dent_benign_delivery() {
        let p = run_lb_point(&tiny(), LbScenario::PortScanStorm);
        assert!(p.storm_sent > 0, "the storm must actually run");
        assert!(
            p.benign_delivery() > 0.99,
            "benign delivery collapsed under the scan: {:.3}",
            p.benign_delivery()
        );
    }

    #[test]
    fn slowloris_population_stays_resident() {
        let p = run_lb_point(&tiny(), LbScenario::Slowloris);
        assert_eq!(p.assigned, 1_200);
        assert_eq!(p.benign_delivered, p.benign_sent);
        // Twin slots: the resident table is twice the flow population.
        assert!(p.peak_flows >= 2 * 1_200 / 2, "population must stay live");
    }

    #[test]
    fn failover_recovers_within_one_probe_interval() {
        let cfg = FailoverConfig {
            flows: 128,
            rounds: 120,
            death_round: 10,
            ..FailoverConfig::default()
        };
        let r = run_failover(&cfg);
        assert!(r.victims > 0, "weight-2 backend 2 must hold flows");
        assert_eq!(r.flows_ejected, 2 * r.victims, "twins ejected in pairs");
        assert!(r.death_ns > 0);
        assert!(
            (r.goodput_pre - 1.0).abs() < 1e-9,
            "steady state is lossless"
        );
        assert!(r.goodput_during < 1.0, "death costs handshake ticks");
        assert!((r.goodput_post - 1.0).abs() < 1e-9, "recovery is complete");
        assert!(
            r.recovered_within_probe_interval(),
            "recovery {:?} must beat the probe interval {}",
            r.recovery_ns,
            r.probe_interval_ns
        );
    }

    #[test]
    fn report_json_is_well_formed_and_carries_the_headline() {
        let report = run_lb_bench(
            &LbBenchConfig {
                flows: 200,
                slowloris_flows: 200,
                slowloris_rounds: 4,
                data_rounds: 2,
                min_benign_packets: 0,
                syn_backlog: 64,
                ..LbBenchConfig::quick()
            },
            &FailoverConfig {
                flows: 64,
                rounds: 80,
                death_round: 8,
                ..FailoverConfig::default()
            },
        );
        assert_eq!(report.scenarios.len(), 4);
        assert!(report.rewrite_pps_ratio().is_some());
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"bench\": \"lb\""));
        assert!(json.contains("\"schema\": 1,"));
        assert!(json.contains("\"name\": \"portscan_storm\""));
        assert!(json.contains("\"failover\": {"));
        assert!(json.contains("\"rewrite_pps_ratio\""));
        assert!(json.contains("\"recovery_within_probe_interval\""));
    }
}
