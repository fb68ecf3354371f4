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
//!   The run is a `sysscenario` scenario (`sysscenario::library::failover`,
//!   on the repo's one virtual-clock LB loop): it scripts the death through
//!   the seeded [`crate::lb::SITE_LB_PROBE_FAIL`] site
//!   (`Schedule::OneShotAt`, exactly replayable), ejects the victim flows,
//!   and counts handshake-retry ticks until every client delivers data
//!   again. This module keeps the run's sizing ([`FailoverConfig`]) and
//!   record ([`FailoverReport`]), since `sysnet` cannot depend on
//!   `sysscenario`. The acceptance bar is recovery within one
//!   health-probe interval.
//!
//! The router scenarios emit their traffic through the conntrack bench's
//! TCP plan and zero-alloc [`crate::ctbench::FrameForge`], so the
//! counting-allocator bracket measures the router, not the traffic source.
//! [`LbBenchReport::to_json`] renders `BENCH_lb.json`.

use crate::bench::{host_cores, opt4, write_rows};
use crate::conntrack::ConntrackConfig;
use crate::ctbench::{delivery, flood_source, Endpoints, TcpPlan};
use crate::lb::{BackendConfig, LbConfig};
use crate::lpm::TrieTable;
use crate::pipeline::DropReason;
use crate::router::{PortId, RouterConfig};
use std::fmt::Write as _;
use sysobs::paired;

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

/// Data rounds per flow after establishment (before the packet floor).
pub const DATA_ROUNDS: usize = 6;
/// Storm fraction of offered load in the port-scan scenario.
pub const STORM_MIX: f64 = 0.5;
/// Slowloris stride: each trickle round one flow in this many sends.
pub const SLOWLORIS_STRIDE: usize = 32;
/// Failover run: virtual nanoseconds per tick (every flow offers one
/// packet per tick).
pub const TICK_NS: u64 = 100_000;
/// Failover run: health-probe interval, ns (the recovery budget).
pub const PROBE_INTERVAL_NS: u64 = 1_000_000;

/// Client flow `f` dialing the VIP: a unique `(ip, port)` under 10.9/16,
/// which the bench table routes back to port 2.
#[allow(clippy::cast_possible_truncation)]
#[must_use]
pub fn vip_client(f: usize) -> Endpoints {
    Endpoints {
        src: [10, 9, (f >> 8) as u8, f as u8],
        dst: LB_VIP,
        sport: 1024 + ((f >> 16) as u16 & 0x3FFF),
        dport: LB_VPORT,
    }
}

/// Storm SYN `j`: the flood source aimed at the VIP host's non-service
/// ports, so unrewritten scans route to port 3.
#[allow(clippy::cast_possible_truncation)]
#[must_use]
pub fn storm_endpoints(j: u64) -> Endpoints {
    let (src, sport) = flood_source(j);
    Endpoints {
        src,
        dst: LB_VIP,
        sport,
        dport: 8000 + (j % 997) as u16,
    }
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
    /// Benign-packet floor per scenario: extra data rounds beyond
    /// [`DATA_ROUNDS`] amortize warm-up, as in the conntrack bench.
    pub min_benign_packets: usize,
    /// Held-open flows in the slowloris scenario.
    pub slowloris_flows: usize,
    /// Trickle rounds; each round 1/[`SLOWLORIS_STRIDE`] of flows send.
    pub slowloris_rounds: usize,
    /// Worker threads (batch size and queue depth are
    /// [`RouterConfig::default`]'s).
    pub workers: usize,
    /// Per-shard half-open budget.
    pub syn_backlog: usize,
    /// Paired rounds over the four scenarios; see [`paired`].
    pub rounds: usize,
    /// Process-wide allocation counter; see [`crate::router::run_trial`].
    pub alloc_counter: Option<fn() -> u64>,
}

impl LbBenchConfig {
    /// CI-sized run (well under a second).
    #[must_use]
    pub fn quick() -> Self {
        LbBenchConfig {
            flows: 4_000,
            min_benign_packets: 60_000,
            slowloris_flows: 8_000,
            slowloris_rounds: 192,
            workers: 2,
            syn_backlog: 1_024,
            rounds: 1,
            alloc_counter: None,
        }
    }

    /// Recorded-trajectory run (tens of seconds).
    #[must_use]
    pub fn full() -> Self {
        LbBenchConfig {
            flows: 50_000,
            min_benign_packets: 1_000_000,
            slowloris_flows: 250_000,
            slowloris_rounds: 128,
            workers: 4,
            syn_backlog: 4_096,
            rounds: 3,
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
    pub fn benign_delivery(&self) -> f64 {
        delivery(self.benign_delivered, self.benign_sent)
    }
}

/// Runs one router scenario: establishes the client population (SYN then
/// cookie-echo ACK, as in the conntrack bench), then streams data rounds
/// (strided for slowloris), interleaving storm SYNs at [`STORM_MIX`] for
/// the storm scenario.
#[must_use]
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
    let lb_cfg = LbConfig {
        vip: u32::from_be_bytes(LB_VIP),
        vport: LB_VPORT,
        backends: lb_backends(),
        ..LbConfig::default()
    };
    let rc = RouterConfig {
        workers: cfg.workers,
        conntrack: Some(ct_cfg),
        lb: (scenario != LbScenario::BaselineNoLb).then_some(lb_cfg),
        ..RouterConfig::default()
    };
    let backends = lb_backends();
    // The no-LB control dials the backends directly instead of the VIP.
    let dial = |f: usize| {
        let ep = vip_client(f);
        if scenario == LbScenario::BaselineNoLb {
            let b = backends[f % backends.len()];
            Endpoints {
                dst: b.ip.to_be_bytes(),
                dport: b.port,
                ..ep
            }
        } else {
            ep
        }
    };
    let (rounds, stride) = if scenario == LbScenario::Slowloris {
        (cfg.slowloris_rounds, SLOWLORIS_STRIDE)
    } else {
        let floor = (cfg.min_benign_packets / flows.max(1)).saturating_sub(2);
        (DATA_ROUNDS.max(floor), 1)
    };
    let plan = TcpPlan {
        flows,
        rounds,
        stride,
        flood_mix: if scenario == LbScenario::PortScanStorm {
            STORM_MIX
        } else {
            0.0
        },
    };
    let (report, timing, storm_sent) =
        plan.trial(lb_table(), LB_PORTS, rc, cfg.alloc_counter, dial, |j| {
            (storm_endpoints(j), 3)
        });

    let t = &report.stats.totals;
    let ct = report.conntrack.as_ref().expect("tracking ran");
    let lb = report.lb.as_ref().copied().unwrap_or_default();
    LbPoint {
        scenario,
        flows,
        pps: timing.pps,
        benign_sent: plan.segments() as u64,
        benign_delivered: t.per_port.get(1).copied().unwrap_or(0),
        storm_sent,
        storm_forwarded: t.per_port.get(3).copied().unwrap_or(0),
        assigned: lb.assigned,
        rewrites_to_backend: lb.rewrites_to_backend,
        no_backend: lb.no_backend,
        peak_flows: ct.peak_flows,
        dropped_no_flow: t.dropped[DropReason::NoFlow as usize],
        dropped_table_full: t.dropped[DropReason::FlowTableFull as usize],
        steady_allocs_per_packet: timing.steady_allocs_per_packet,
    }
}

/// Sizing for the virtual-clock failover run.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Client flows held established through the death.
    pub flows: usize,
    /// Measurement ticks ([`TICK_NS`] each) after establishment.
    pub rounds: usize,
    /// 1-based probe round whose backend-2 probe fails (`fall` = 1, so
    /// this round *is* the death).
    pub death_round: u64,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            flows: 256,
            rounds: 400,
            death_round: 20,
        }
    }
}

/// What the failover run measured.
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
    /// The point `scenario` measured, if it ran.
    fn point(&self, scenario: LbScenario) -> Option<&LbPoint> {
        self.scenarios.iter().find(|p| p.scenario == scenario)
    }

    /// Headline ratio: rewriting steady-state pps over the no-LB control.
    #[must_use]
    pub fn rewrite_pps_ratio(&self) -> Option<f64> {
        let point = |s| self.point(s);
        match (point(LbScenario::BaselineNoLb), point(LbScenario::Steady)) {
            (Some(b), Some(s)) if b.pps > 0.0 => Some(s.pps / b.pps),
            _ => None,
        }
    }

    /// Renders the `BENCH_lb.json` record.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"bench\": \"lb\",");
        let _ = writeln!(s, "  \"schema\": 2,");
        let _ = writeln!(s, "  \"host_cores\": {},", self.host_cores);
        let _ = writeln!(s, "  \"workers\": {},", self.workers);
        let _ = writeln!(s, "  \"backends\": {},", self.backends);
        write_rows(&mut s, "scenarios", &self.scenarios, |p| {
            vec![
                ("name", format!("\"{}\"", p.scenario.name())),
                ("flows", p.flows.to_string()),
                ("pps", format!("{:.0}", p.pps)),
                ("benign_sent", p.benign_sent.to_string()),
                ("benign_delivered", p.benign_delivered.to_string()),
                ("benign_delivery", format!("{:.4}", p.benign_delivery())),
                ("storm_sent", p.storm_sent.to_string()),
                ("storm_forwarded", p.storm_forwarded.to_string()),
                ("assigned", p.assigned.to_string()),
                ("rewrites_to_backend", p.rewrites_to_backend.to_string()),
                ("no_backend", p.no_backend.to_string()),
                ("peak_flows", p.peak_flows.to_string()),
                ("dropped_no_flow", p.dropped_no_flow.to_string()),
                ("dropped_table_full", p.dropped_table_full.to_string()),
                ("steady_allocs_per_packet", opt4(p.steady_allocs_per_packet)),
            ]
        });
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
        let steady_allocs = opt4(
            self.point(LbScenario::Steady)
                .and_then(|p| p.steady_allocs_per_packet),
        );
        let ratio = opt4(self.rewrite_pps_ratio());
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

/// Runs the full LB bench: all four router scenarios as [`paired`] arms,
/// recorded next to the virtual-clock failover run's `failover` report.
#[must_use]
pub fn run_lb_bench(cfg: &LbBenchConfig, failover: FailoverReport) -> LbBenchReport {
    use LbScenario::{BaselineNoLb, PortScanStorm, Slowloris, Steady};
    let arms = [BaselineNoLb, Steady, PortScanStorm, Slowloris];
    let scenarios = paired(
        cfg.rounds,
        arms.len(),
        |p: &LbPoint| p.pps,
        |i| run_lb_point(cfg, arms[i]),
    );
    LbBenchReport {
        host_cores: host_cores(),
        workers: cfg.workers,
        backends: lb_backends().len(),
        scenarios,
        failover,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LbBenchConfig {
        LbBenchConfig {
            flows: 600,
            min_benign_packets: 0,
            slowloris_flows: 1_200,
            slowloris_rounds: 8,
            syn_backlog: 256,
            ..LbBenchConfig::quick()
        }
    }

    #[test]
    fn steady_scenario_delivers_and_rewrites_everything() {
        let p = run_lb_point(&tiny(), LbScenario::Steady);
        assert_eq!(p.benign_sent, 600 * (2 + 6));
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
    fn report_json_is_well_formed_and_carries_the_headline() {
        let report = run_lb_bench(
            &LbBenchConfig {
                flows: 200,
                slowloris_flows: 200,
                slowloris_rounds: 4,
                min_benign_packets: 0,
                syn_backlog: 64,
                ..LbBenchConfig::quick()
            },
            FailoverReport {
                flows: 256,
                victims: 116,
                flows_ejected: 232,
                death_ns: 19_100_000,
                recovery_ns: Some(300_000),
                probe_interval_ns: PROBE_INTERVAL_NS,
                goodput_pre: 1.0,
                goodput_during: 0.660_156_25,
                goodput_post: 1.0,
            },
        );
        assert_eq!(report.scenarios.len(), 4);
        assert!(report.rewrite_pps_ratio().is_some());
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"bench\": \"lb\""));
        assert!(json.contains("\"schema\": 2,"));
        assert!(json.contains("\"name\": \"portscan_storm\""));
        assert!(json.contains("\"failover\": {"));
        assert!(json.contains("\"rewrite_pps_ratio\""));
        assert!(json.contains("\"recovery_within_probe_interval\""));
    }
}
