//! E14 — Connection tracking under load and under attack.
//!
//! The robustness counterpart to E10: the same sharded data plane, now
//! running the `sysnet::conntrack` flow layer. Two questions, one table:
//!
//! * **scale** — what does stateful tracking cost as the live benign flow
//!   population grows? (pps and peak table occupancy; the benign-only
//!   rows);
//! * **overload** — when a SYN flood joins the benign traffic, how much
//!   established-flow goodput survives with the overload defense on —
//!   half-open admission control, LRU+timeout eviction, SYN-cookie
//!   stateless fallback — versus the defense off? (the attack rows).
//!
//! The headline the paper's robustness story needs: goodput retained at
//! the hottest attack mix, defense on, against the collapse of the same
//! mix with the defense off. `examples/conntrack_bench.rs` runs the same
//! harness with a counting allocator and records `BENCH_conntrack.json`;
//! this table is the EXPERIMENTS.md rendering.

use super::{fmt_rate, Scale, Table};
use sysnet::ctbench::{run_ct_bench, CtBenchConfig, CtPoint};

fn config_for(scale: Scale) -> CtBenchConfig {
    match scale {
        // Smaller than the bench's own quick mode: this also runs inside
        // `cargo test` at debug optimization.
        Scale::Quick => CtBenchConfig {
            scale_flows: vec![2_000, 10_000],
            attack_flows: 2_000,
            attack_mixes: vec![0.9],
            data_per_flow: 4,
            min_benign_packets: 20_000,
            workers: 2,
            ..CtBenchConfig::quick()
        },
        Scale::Full => CtBenchConfig::full(),
    }
}

fn row_of(t: &mut Table, p: &CtPoint, baseline: Option<&CtPoint>) {
    let goodput = match baseline {
        Some(b) if p.attack_mix > 0.0 => format!("{:.1}%", 100.0 * p.goodput_retained(b)),
        _ => "—".to_string(),
    };
    t.row(vec![
        format!("{}", p.benign_flows),
        format!("{:.0}%", p.attack_mix * 100.0),
        if p.defense { "on" } else { "OFF" }.to_string(),
        fmt_rate(p.pps),
        format!("{:.1}%", 100.0 * p.benign_delivery()),
        goodput,
        format!("{}/{}", p.peak_flows, p.capacity),
        format!(
            "{}|{}",
            p.cookie_mode_entries + p.cookie_established,
            p.stateless_syns
        ),
        p.dropped_no_flow.to_string(),
    ]);
}

/// Runs E14 and renders the table.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let cfg = config_for(scale);
    let report = run_ct_bench(&cfg);
    let mut t = Table::new(
        "E14 — conntrack scale and SYN-flood overload defense",
        &[
            "benign flows",
            "attack mix",
            "defense",
            "pps",
            "benign delivery",
            "goodput retained",
            "peak/capacity",
            "cookie ev|stateless",
            "shed (no-flow)",
        ],
    );
    let baseline = report.baseline().copied();
    for p in report.scale.iter().chain(report.attack.iter()) {
        row_of(&mut t, p, baseline.as_ref());
    }
    t.note(format!(
        "{} workers, SYN backlog {}/shard, {} data packets per benign flow (floored so small \
         populations still stream ≥{} packets); attack rows run {} benign flows against a \
         uniformly interleaved SYN flood.",
        report.workers,
        report.syn_backlog,
        report.data_per_flow,
        cfg.min_benign_packets,
        cfg.attack_flows,
    ));
    if let (Some(h), Some(b)) = (report.headline(), baseline.as_ref()) {
        t.note(format!(
            "headline: at the {:.0}% attack mix the defense retains {:.1}% of baseline \
             established-flow goodput; the table never exceeded its shared capacity gauge.",
            h.attack_mix * 100.0,
            100.0 * h.goodput_retained(b)
        ));
    }
    if let Some(off) = report.attack.iter().find(|p| !p.defense) {
        t.note(format!(
            "defense-off contrast at the same mix: {:.1}% benign delivery — the flood owns the \
             table (peak half-open {}) and established flows are cannibalized by naive LRU.",
            100.0 * off.benign_delivery(),
            off.peak_half_open
        ));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_renders_scale_and_attack_rows() {
        let t = run(Scale::Quick);
        // Two benign-only scale rows, then the attack matrix: baseline,
        // one defended mix, and the defense-off contrast.
        assert_eq!(t.rows.len(), 5);
        assert!(t.notes.iter().any(|n| n.contains("headline")));
        assert!(t.notes.iter().any(|n| n.contains("defense-off")));
    }
}
