//! E17 — L4 load balancing: NAT rewrite cost, churn immunity, failover.
//!
//! The `sysnet::lb` layer on top of E14's conntrack: weighted rendezvous
//! backend selection, in-place NAT rewrite with RFC 1624 incremental
//! checksum fixup, and active health checks with drain/eject semantics.
//! Three questions, one table plus a failover block:
//!
//! * **rewrite cost** — what does per-packet NAT rewriting cost against
//!   the no-LB tracked control? (the baseline vs steady rows; the
//!   acceptance floor is ≥ 90 % of control pps);
//! * **churn immunity** — does a port-scan storm or a slowloris
//!   population dent benign VIP delivery? (the storm/slowloris rows);
//! * **failover** — after a scripted backend death (a seeded `sysfault`
//!   probe site, so the run replays), how fast does goodput return?
//!   (the failover notes; the budget is one health-probe interval).
//!
//! The failover run is the `sysscenario` scenario
//! [`sysscenario::library::failover`]. `examples/lb_bench.rs` runs the
//! same harness with a counting allocator and records `BENCH_lb.json`;
//! this table is the EXPERIMENTS.md rendering.

use super::{fmt_ns, fmt_rate, Scale, Table};
use sysnet::lbbench::{run_lb_bench, FailoverConfig, LbBenchConfig, LbPoint};
use sysscenario::library::failover;

fn config_for(scale: Scale) -> LbBenchConfig {
    match scale {
        // Smaller than the bench's own quick mode: this also runs inside
        // `cargo test` at debug optimization.
        Scale::Quick => LbBenchConfig {
            flows: 1_000,
            min_benign_packets: 10_000,
            slowloris_flows: 2_000,
            slowloris_rounds: 48,
            workers: 2,
            ..LbBenchConfig::quick()
        },
        Scale::Full => LbBenchConfig::full(),
    }
}

fn row_of(t: &mut Table, p: &LbPoint) {
    t.row(vec![
        p.scenario.name().to_string(),
        format!("{}", p.flows),
        fmt_rate(p.pps),
        format!("{:.1}%", 100.0 * p.benign_delivery()),
        if p.storm_sent == 0 {
            "—".to_string()
        } else {
            format!("{}/{}", p.storm_forwarded, p.storm_sent)
        },
        p.assigned.to_string(),
        p.rewrites_to_backend.to_string(),
        p.peak_flows.to_string(),
    ]);
}

/// Runs E17 and renders the table.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let cfg = config_for(scale);
    let report = run_lb_bench(&cfg, failover(&FailoverConfig::default()));
    let mut t = Table::new(
        "E17 — L4 load balancing: rewrite cost, churn, failover",
        &[
            "scenario",
            "flows",
            "pps",
            "benign delivery",
            "storm fwd",
            "assigned",
            "rewrites",
            "peak flows",
        ],
    );
    for p in &report.scenarios {
        row_of(&mut t, p);
    }
    t.note(format!(
        "{} workers over {} backends (weights follow the pool config); every scenario except \
         the control runs the full VIP → backend NAT rewrite + TTL path on each forwarded \
         packet.",
        report.workers, report.backends,
    ));
    if let Some(ratio) = report.rewrite_pps_ratio() {
        t.note(format!(
            "headline: the rewriting steady state sustains {:.1}% of the no-LB control's pps \
             (acceptance floor 90% at full scale; the quick run is noisy).",
            100.0 * ratio
        ));
    }
    let f = &report.failover;
    t.note(format!(
        "failover: a seeded probe-site death orphaned {} of {} flows ({} slots ejected, twins \
         included); goodput {:.0}% → {:.0}% → {:.0}% pre/during/post, recovered in {} \
         (budget: one probe interval, {}).",
        f.victims,
        f.flows,
        f.flows_ejected,
        100.0 * f.goodput_pre,
        100.0 * f.goodput_during,
        100.0 * f.goodput_post,
        f.recovery_ns.map_or_else(|| "∞".to_string(), fmt_ns),
        fmt_ns(f.probe_interval_ns),
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e17_renders_all_scenarios_and_the_failover_note() {
        let t = run(Scale::Quick);
        // The control, the steady state, the storm, and the slowloris rows.
        assert_eq!(t.rows.len(), 4);
        assert!(t.notes.iter().any(|n| n.contains("headline")));
        assert!(t.notes.iter().any(|n| n.contains("failover")));
        assert!(t.notes.iter().any(|n| n.contains("recovered in")));
    }
}
