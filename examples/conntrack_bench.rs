//! The conntrack bench harness: writes `BENCH_conntrack.json` at the repo
//! root (experiment E14's recorded form).
//!
//! ```sh
//! cargo run --release --example conntrack_bench            # full run, tens of seconds
//! cargo run --release --example conntrack_bench -- --quick # CI-sized, prints only
//! ```
//!
//! The full run sweeps the benign-only live-flow population 10k → 1M
//! (pps, p50/p99/p999 latency), then runs the attack matrix at 100k benign
//! flows: 50 % and 90 % SYN-flood mixes with the overload defense on, and
//! the 90 % mix again with the defense off as the collapse contrast. The
//! headline is established-flow goodput retained at the 90 % mix, which
//! the full run asserts stays ≥ 70 % of the benign-only baseline. Both
//! modes assert the steady state allocates (amortized) under 0.05 heap
//! allocations per packet — generator included, via [`FrameForge`]'s
//! in-place template patching.
//!
//! [`FrameForge`]: sysnet::ctbench::FrameForge

use plos06::alloc::{alloc_count, CountingAlloc};
use sysnet::ctbench::{run_ct_bench, CtBenchConfig};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    // A panicking bench run leaves its flight-recorder tail and metrics
    // snapshot on stderr instead of a bare backtrace.
    sysobs::install_panic_dump();
    let quick = std::env::args().any(|a| a == "--quick");
    let mut cfg = if quick {
        CtBenchConfig::quick()
    } else {
        CtBenchConfig::full()
    };
    cfg.alloc_counter = Some(alloc_count);
    eprintln!(
        "conntrack bench: scale {:?} flows, attack at {} flows x mixes {:?}, \
         {} workers, backlog {}...",
        cfg.scale_flows, cfg.attack_flows, cfg.attack_mixes, cfg.workers, cfg.syn_backlog
    );
    let report = run_ct_bench(&cfg);
    let json = report.to_json();
    print!("{json}");

    let baseline = *report.baseline().expect("baseline ran");
    for p in report.scale.iter().chain(report.attack.iter()) {
        // Hard robustness floor: the sharded gauge must cap the table at
        // its configured capacity no matter the offered load.
        assert!(
            p.peak_flows <= p.capacity,
            "flow table exceeded capacity: {} > {} (mix {:.2}, defense {})",
            p.peak_flows,
            p.capacity,
            p.attack_mix,
            p.defense
        );
        let allocs = p
            .steady_allocs_per_packet
            .expect("alloc counter was supplied");
        // Zero-alloc steady state, generator included: after the stream's
        // first half warms the pool and slab, the second half must allocate
        // (amortized) well under one Vec per packet.
        assert!(
            allocs < 0.05,
            "steady state must not allocate per packet: {allocs:.4} allocs/pkt \
             at {} flows, mix {:.2}",
            p.benign_flows,
            p.attack_mix
        );
    }
    let headline = report.headline().expect("attack matrix ran");
    let retained = headline.goodput_retained(&baseline);
    eprintln!(
        "headline: {:.1} % attack mix at {} benign flows -> {:.1} % goodput retained",
        headline.attack_mix * 100.0,
        headline.benign_flows,
        retained * 100.0
    );
    if !quick {
        // The acceptance floor: graceful degradation, not collapse. The
        // quick run skips it — tiny streams make the ratio noisy.
        assert!(
            retained >= 0.70,
            "defense must retain >= 70 % goodput at the hottest mix: {retained:.3}"
        );
    }
    if quick {
        eprintln!("(--quick: not writing BENCH_conntrack.json)");
    } else {
        std::fs::write("BENCH_conntrack.json", json).expect("write BENCH_conntrack.json");
        eprintln!("wrote BENCH_conntrack.json");
    }
}
