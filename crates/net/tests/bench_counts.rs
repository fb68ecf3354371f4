//! Pins every non-timing count the three bench harnesses report.
//!
//! Timing fields (pps, latency quantiles, allocs/packet) vary from run to
//! run; the counts do not, as long as one worker owns every flow. With two
//! or more workers the shards share one capacity gauge, so which shard
//! wins a contended slot depends on scheduling and the defense-off attack
//! counts wander. Every point here therefore runs at `workers: 1`.
//!
//! A refactor of the harness plumbing (stream generation, the trial
//! driver, config defaults) must leave every figure below unchanged.

use sysnet::bench::{run_sweep, SweepConfig};
use sysnet::ctbench::{run_ct_point, CtBenchConfig, CtPoint};
use sysnet::lbbench::{run_lb_point, LbBenchConfig, LbPoint, LbScenario};

/// A conntrack point's counts, in field order: benign_flows, capacity,
/// benign_sent, benign_delivered, attack_sent, attack_forwarded,
/// peak_flows, peak_half_open, cookie_mode_entries, cookie_established,
/// stateless_syns, dropped_no_flow, dropped_bad_cookie,
/// dropped_table_full, dropped_state_violation.
fn ct_counts(p: &CtPoint) -> [u64; 15] {
    [
        p.benign_flows as u64,
        p.capacity,
        p.benign_sent,
        p.benign_delivered,
        p.attack_sent,
        p.attack_forwarded,
        p.peak_flows,
        p.peak_half_open,
        p.cookie_mode_entries,
        p.cookie_established,
        p.stateless_syns,
        p.dropped_no_flow,
        p.dropped_bad_cookie,
        p.dropped_table_full,
        p.dropped_state_violation,
    ]
}

/// An LB point's counts, in field order: flows, benign_sent,
/// benign_delivered, storm_sent, storm_forwarded, assigned,
/// rewrites_to_backend, no_backend, peak_flows, dropped_no_flow,
/// dropped_table_full.
fn lb_counts(p: &LbPoint) -> [u64; 11] {
    [
        p.flows as u64,
        p.benign_sent,
        p.benign_delivered,
        p.storm_sent,
        p.storm_forwarded,
        p.assigned,
        p.rewrites_to_backend,
        p.no_backend,
        p.peak_flows,
        p.dropped_no_flow,
        p.dropped_table_full,
    ]
}

#[test]
fn conntrack_points_keep_their_counts() {
    let cfg = CtBenchConfig {
        workers: 1,
        syn_backlog: 256,
        min_benign_packets: 0,
        ..CtBenchConfig::quick()
    };
    let cases: [(f64, bool, [u64; 15]); 3] = [
        (
            0.0,
            true,
            [4000, 4756, 32000, 32000, 0, 0, 4000, 1, 0, 0, 0, 0, 0, 0, 0],
        ),
        (
            0.9,
            true,
            [
                4000, 4756, 32000, 32000, 288_000, 288_000, 4255, 256, 1, 3972, 291_461, 0, 0, 0, 0,
            ],
        ),
        (
            0.9,
            false,
            [
                4000, 4756, 32000, 8000, 288_000, 288_000, 4756, 4756, 0, 0, 0, 24000, 0, 0, 0,
            ],
        ),
    ];
    for (mix, defense, want) in cases {
        let p = run_ct_point(&cfg, 4_000, mix, defense);
        assert_eq!(ct_counts(&p), want, "mix {mix}, defense {defense}");
    }
}

#[test]
fn lb_scenarios_keep_their_counts() {
    let cfg = LbBenchConfig {
        flows: 600,
        min_benign_packets: 0,
        slowloris_flows: 1_200,
        slowloris_rounds: 8,
        syn_backlog: 256,
        workers: 1,
        ..LbBenchConfig::quick()
    };
    let cases: [(LbScenario, [u64; 11]); 4] = [
        (
            LbScenario::BaselineNoLb,
            [600, 4800, 4800, 0, 0, 0, 0, 0, 600, 0, 0],
        ),
        (
            LbScenario::Steady,
            [600, 4800, 4800, 0, 0, 600, 4800, 0, 1200, 0, 0],
        ),
        (
            LbScenario::PortScanStorm,
            [600, 4800, 4800, 4800, 4800, 600, 4800, 0, 1455, 0, 0],
        ),
        (
            LbScenario::Slowloris,
            [1200, 2704, 2704, 0, 0, 1200, 2704, 0, 2400, 0, 0],
        ),
    ];
    for (scenario, want) in cases {
        let p = run_lb_point(&cfg, scenario);
        assert_eq!(lb_counts(&p), want, "{}", scenario.name());
    }
}

#[test]
fn sweep_point_keeps_its_counts() {
    let cfg = SweepConfig {
        packets: 4_000,
        lookups: 10_000,
        worker_counts: vec![1],
        ..SweepConfig::quick()
    };
    let report = run_sweep(&cfg);
    assert_eq!(report.lookup.routes, 65);
    assert_eq!(report.lookup.lookups, 10_000);
    assert_eq!(report.sweep.len(), 1);
    let p = &report.sweep[0];
    assert_eq!((p.workers, p.batch_size), (1, 64));
    assert_eq!((p.forwarded, p.dropped), (3992, 8));
    // 3 474 hits in 3 992 lookups: one worker sees the whole skewed stream.
    // The exact count follows `FlowCache::slot_of`, which decides the flows
    // that share a slot.
    assert!(
        (p.cache_hit_rate - 0.870_240_480_961_923_9).abs() < 1e-12,
        "cache hit rate {}",
        p.cache_hit_rate
    );
}
