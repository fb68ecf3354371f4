//! The load-balancer bench harness: writes `BENCH_lb.json` at the repo
//! root (experiment E17's recorded form).
//!
//! ```sh
//! cargo run --release --example lb_bench            # full run, tens of seconds
//! cargo run --release --example lb_bench -- --quick # CI-sized, prints only
//! ```
//!
//! Four router scenarios — the no-LB tracked control, the rewriting steady
//! state, a port-scan storm riding on the steady population, and a large
//! slowloris population trickling data — plus the virtual-clock failover
//! harness that scripts a backend death through the seeded probe site and
//! measures goodput recovery in handshake-retry ticks.
//!
//! Acceptance floors asserted here (full run):
//!
//! * rewriting steady state sustains ≥ 90 % of the no-LB control's pps;
//! * the steady state allocates (amortized) < 0.05 heap allocations per
//!   packet, traffic generator included;
//! * goodput returns to 100 % within one health-probe interval of the
//!   scripted backend death.

use plos06::alloc::{alloc_count, CountingAlloc};
use sysnet::lbbench::{run_lb_bench, FailoverConfig, LbBenchConfig};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    sysobs::install_panic_dump();
    let quick = std::env::args().any(|a| a == "--quick");
    let mut cfg = if quick {
        LbBenchConfig::quick()
    } else {
        LbBenchConfig::full()
    };
    cfg.alloc_counter = Some(alloc_count);
    let failover = FailoverConfig::default();
    eprintln!(
        "lb bench: {} flows steady, storm mix {:.0} %, {} slowloris flows, \
         {} workers; failover {} flows, probe {} ms...",
        cfg.flows,
        cfg.storm_mix * 100.0,
        cfg.slowloris_flows,
        cfg.workers,
        failover.flows,
        failover.probe_interval_ns / 1_000_000
    );
    let report = run_lb_bench(&cfg, &failover);
    let json = report.to_json();
    print!("{json}");

    for p in &report.scenarios {
        let allocs = p
            .steady_allocs_per_packet
            .expect("alloc counter was supplied");
        assert!(
            allocs < 0.05,
            "steady state must not allocate per packet: {allocs:.4} allocs/pkt \
             in {}",
            p.scenario.name()
        );
        assert!(
            p.benign_delivery() > 0.99,
            "benign delivery collapsed in {}: {:.3}",
            p.scenario.name(),
            p.benign_delivery()
        );
    }
    let f = &report.failover;
    assert!(f.victims > 0, "the scripted death must orphan some flows");
    assert!(
        f.recovered_within_probe_interval(),
        "goodput must recover within one probe interval: {:?} vs {}",
        f.recovery_ns,
        f.probe_interval_ns
    );
    let ratio = report.rewrite_pps_ratio().expect("both scenarios ran");
    eprintln!(
        "headline: rewrite pps ratio {:.3}, failover recovery {} us \
         (budget {} us)",
        ratio,
        f.recovery_ns.unwrap_or(0) / 1_000,
        f.probe_interval_ns / 1_000
    );
    if !quick {
        // The acceptance floor: NAT rewriting must cost < 10 % of the
        // tracked fast path. The quick run skips it — tiny streams make
        // the ratio noisy.
        assert!(
            ratio >= 0.90,
            "rewriting must sustain >= 90 % of the no-LB control: {ratio:.3}"
        );
    }
    if quick {
        eprintln!("(--quick: not writing BENCH_lb.json)");
    } else {
        std::fs::write("BENCH_lb.json", json).expect("write BENCH_lb.json");
        eprintln!("wrote BENCH_lb.json");
    }
}
