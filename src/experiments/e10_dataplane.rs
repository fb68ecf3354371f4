//! E10 — The packet data plane: trie vs linear-scan LPM, one worker vs
//! sharded.
//!
//! The `sysnet` crate promotes the old `packet_router` example into a real
//! forwarding plane; this experiment measures the two structural decisions
//! that promotion made:
//!
//! * **lookup structure** — ns/lookup for the O(n) linear-scan reference vs
//!   the stride-4 multibit trie (at most eight dependent loads) as the
//!   route table grows. The linear scan was
//!   fine at 4 routes; the trie must win by a ≥64-route table or the
//!   structure isn't paying for itself.
//! * **sharding** — end-to-end packets/sec for the full parse → validate
//!   → route pipeline at 1 vs N workers
//!   hash-partitioning flows over bounded channels. On a single-core host
//!   extra CPU-bound workers cannot add throughput, so the table records
//!   the host's core count alongside the sweep.

use super::{fmt_rate, Scale, Table};
use sysnet::bench::{lookup_comparison, run_sweep, SweepConfig};

const SEED: u64 = 0x5EED_0E10;

fn route_sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![4, 64],
        Scale::Full => vec![4, 64, 256],
    }
}

fn sweep_config(scale: Scale) -> SweepConfig {
    let mut cfg = match scale {
        Scale::Quick => SweepConfig::quick(),
        Scale::Full => SweepConfig::full(),
    };
    cfg.batch_sizes = vec![64]; // the batch sweep belongs to router_bench
    cfg
}

/// Runs E10 at the given scale.
#[must_use]
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
pub fn run(scale: Scale) -> Table {
    let mut t = Table::new(
        "E10 — packet data plane: LPM structure and worker sharding",
        &[
            "config",
            "routes",
            "workers",
            "rate",
            "ns/lookup",
            "forwarded",
            "dropped",
        ],
    );

    let lookups = match scale {
        Scale::Quick => 100_000,
        Scale::Full => 2_000_000,
    };
    let mut speedup_64 = 0.0;
    for routes in route_sizes(scale) {
        let point = lookup_comparison(routes, lookups, SEED, scale.rounds());
        if routes >= 64 {
            speedup_64 = point.speedup();
        }
        for (name, ns) in [
            ("lpm lookup: linear", point.linear_ns),
            ("lpm lookup: trie", point.trie_ns),
        ] {
            t.row(vec![
                name.into(),
                format!("{}", point.routes),
                "—".into(),
                fmt_rate(1e9 / ns.max(1e-9)),
                format!("{ns:.1} ns"),
                "—".into(),
                "—".into(),
            ]);
        }
    }

    let cfg = sweep_config(scale);
    let report = run_sweep(&cfg);
    for p in &report.sweep {
        t.row(vec![
            "pipeline stream".into(),
            format!("{}", cfg.routes),
            format!("{}", p.workers),
            fmt_rate(p.pps),
            "—".into(),
            format!("{}", p.forwarded),
            format!("{}", p.dropped),
        ]);
    }

    t.note(format!(
        "trie speedup over linear scan at the largest table: {speedup_64:.1}x \
         (at most 8 trie nodes vs O(n): the gap widens with every route added)"
    ));
    t.note(format!(
        "pipeline: {} packets per config, batch 64, zero-copy sysrepr views, \
         flows hash-partitioned across bounded sysconc channels",
        cfg.packets
    ));
    t.note(format!(
        "host exposes {} core(s): worker scaling is only visible with >1 core \
         (pinned-CI numbers stay flat by construction)",
        report.host_cores
    ));
    t
}
