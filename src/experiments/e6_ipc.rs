//! E6 — Heap policy inside the IPC fast path (Fallacy 1 in situ).
//!
//! The kernel's message buffers are allocated from an injectable heap
//! manager. The IPC protocol, the cycle model, and the request stream are
//! identical across policies; only the allocator changes. The paper's
//! claim: a GC in the kernel's fast path turns a flat latency profile into
//! one with spikes, which a microkernel cannot ship.

use super::{fmt_ns, Scale, Table};
use microkernel::kernel::Kernel;
use microkernel::rights::Rights;
use std::time::Instant;
use sysmem::freelist::FreeListHeap;
use sysmem::generational::GenerationalHeap;
use sysmem::marksweep::MarkSweepHeap;
use sysmem::semispace::SemiSpaceHeap;
use sysmem::Manager;
use sysobs::LogHistogram;

fn rounds(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 1_000,
        Scale::Full => 50_000,
    }
}

fn heap(policy: &str, bytes: usize) -> Box<dyn Manager> {
    // Sized so that collection actually happens during the run — a kernel
    // heap is small by design; an idle GC would be measuring nothing.
    match policy {
        "freelist" => Box::new(FreeListHeap::new(bytes)),
        "mark-sweep" => Box::new(MarkSweepHeap::new(bytes / 16)),
        "semispace" => Box::new(SemiSpaceHeap::new(bytes / 8)),
        "generational" => Box::new(GenerationalHeap::new(bytes / 16, 1 << 12)),
        other => unreachable!("unknown policy {other}"),
    }
}

struct PolicyResult {
    policy: &'static str,
    cycles_per_rt: u64,
    rt_pauses: LogHistogram,
    gc_max_pause_ns: u64,
    collections: u64,
}

fn drive(policy: &'static str, rounds: usize, words: usize) -> PolicyResult {
    let mut k = Kernel::new(heap(policy, 1 << 20));
    let server = k.spawn_process();
    let client = k.spawn_process();
    let req_s = k.create_endpoint(server).unwrap();
    let req_c = k.grant_cap(server, req_s, client, Rights::SEND).unwrap();
    let rep_s = k.create_endpoint(server).unwrap();
    let rep_c = k.grant_cap(server, rep_s, client, Rights::RECV).unwrap();
    let mut rt_pauses = LogHistogram::new();
    let mut total_cycles = 0u64;
    for _ in 0..rounds {
        let t0 = Instant::now();
        let cycles = k
            .ping_pong(client, server, (req_s, req_c), (rep_s, rep_c), words)
            .expect("round trip");
        rt_pauses.record_duration(t0.elapsed());
        total_cycles += cycles;
    }
    PolicyResult {
        policy,
        cycles_per_rt: total_cycles / rounds.max(1) as u64,
        rt_pauses,
        gc_max_pause_ns: k.heap_max_pause_ns(),
        collections: k.heap_collections(),
    }
}

/// Runs E6 and renders the table.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let rounds = rounds(scale);
    let words = 16;
    let mut t = Table::new(
        "E6 — IPC round-trip latency under four kernel heap policies",
        &[
            "heap policy",
            "cycles/RT",
            "p50",
            "p99",
            "max",
            "GC max pause",
            "GCs",
        ],
    );
    for policy in ["freelist", "mark-sweep", "semispace", "generational"] {
        let r = drive(policy, rounds, words);
        t.row(vec![
            r.policy.to_owned(),
            r.cycles_per_rt.to_string(),
            fmt_ns(r.rt_pauses.percentile(0.50)),
            fmt_ns(r.rt_pauses.percentile(0.99)),
            fmt_ns(r.rt_pauses.max()),
            fmt_ns(r.gc_max_pause_ns),
            r.collections.to_string(),
        ]);
    }
    t.note(format!("{rounds} round trips of {words}-word messages; protocol cycles identical across policies by construction."));
    t.note("paper claim: the cycle model is policy-independent (transparency), but wall-clock tails blow up when collection lands in the path.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_runs_all_policies() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 4);
        // Protocol cycles are identical across policies.
        let cycles: Vec<&String> = t.rows.iter().map(|r| &r[1]).collect();
        assert!(cycles.windows(2).all(|w| w[0] == w[1]), "{cycles:?}");
    }
}
