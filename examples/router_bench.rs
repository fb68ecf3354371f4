//! The data-plane bench harness: writes `BENCH_router.json` at the repo
//! root.
//!
//! ```sh
//! cargo run --release --example router_bench            # full sweep, a few seconds
//! cargo run --release --example router_bench -- --quick # CI-sized, prints only
//! ```
//!
//! The full sweep measures the linear-vs-trie lookup microbench and the
//! end-to-end pipeline at 1/2/4 workers × batch 16/64/256 over a skewed
//! flow population, then records packets/sec, the flow-cache hit rate, and — via the counting global allocator it
//! installs from `plos06::alloc` — steady-state heap allocations per
//! packet, which the full run asserts is ≈ 0 (the router's buffer pool at
//! work). `--quick` runs a small sweep and skips the file write so CI never
//! clobbers the recorded trajectory with throwaway numbers.

use plos06::alloc::{alloc_count, CountingAlloc};
use sysnet::bench::{run_sweep, SweepConfig};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    // A panicking bench run leaves its flight-recorder tail and metrics
    // snapshot on stderr instead of a bare backtrace.
    sysobs::install_panic_dump();
    let quick = std::env::args().any(|a| a == "--quick");
    let mut cfg = if quick {
        SweepConfig::quick()
    } else {
        SweepConfig::full()
    };
    cfg.alloc_counter = Some(alloc_count);
    eprintln!(
        "router bench: {} packets/config, {} routes, {} flows, workers {:?}, batches {:?}...",
        cfg.packets, cfg.routes, cfg.flows, cfg.worker_counts, cfg.batch_sizes
    );
    let report = run_sweep(&cfg);
    let json = report.to_json();
    print!("{json}");
    assert!(
        report.lookup.speedup() > 1.0,
        "trie must beat the linear scan at {} routes (linear {:.1} ns, trie {:.1} ns)",
        report.lookup.routes,
        report.lookup.linear_ns,
        report.lookup.trie_ns
    );
    for p in &report.sweep {
        let allocs = p
            .steady_allocs_per_packet
            .expect("alloc counter was supplied");
        // The zero-alloc steady state, measured: after the first half of the
        // stream warms the pool, the second half must allocate (amortized)
        // well under one Vec per packet. The budget leaves room for bounded
        // warm-tail growth (stalled-queue churn), not per-packet allocation.
        assert!(
            allocs < 0.05,
            "steady state must not allocate per packet: {allocs:.4} allocs/pkt \
             at workers={} batch={}",
            p.workers,
            p.batch_size
        );
    }
    for p in &report.churn {
        let allocs = p
            .steady_allocs_per_packet
            .expect("alloc counter was supplied");
        // Route churn must not reintroduce per-packet allocation: COW
        // spine clones recycle through the epoch domain's node pool.
        assert!(
            allocs < 0.05,
            "churn steady state allocated: {allocs:.4} allocs/pkt at {}/s",
            p.target_updates_per_sec
        );
    }
    let cow_at = |rate: u64| {
        report
            .churn
            .iter()
            .find(|p| p.target_updates_per_sec == rate)
    };
    if let (Some(base), Some(hot)) = (cow_at(0), cow_at(10_000)) {
        // The tentpole's headline: updates through the copy-on-write path
        // cost the data plane almost nothing — 10k updates/s must keep at
        // least 80 % of the zero-churn throughput.
        assert!(
            hot.pps >= 0.8 * base.pps,
            "cow-epoch throughput collapsed under churn: {:.0} pps at 10k \
             updates/s vs {:.0} pps at zero churn",
            hot.pps,
            base.pps
        );
    }
    if quick {
        eprintln!("(--quick: not writing BENCH_router.json)");
    } else {
        std::fs::write("BENCH_router.json", json).expect("write BENCH_router.json");
        eprintln!("wrote BENCH_router.json");
    }
}
