//! E1 — Allocator throughput and pause tails (Fallacy 1 / Challenge 2).
//!
//! The paper's claim: systems code cannot accept GC's costs and
//! unpredictability, and region/manual disciplines are both fast *and*
//! predictable. This experiment runs the identical allocation trace through
//! six managers and reports throughput plus the pause distribution.

use super::{fmt_rate, Scale, Table};
use sysmem::arena::RegionHeap;
use sysmem::freelist::FreeListHeap;
use sysmem::generational::GenerationalHeap;
use sysmem::marksweep::MarkSweepHeap;
use sysmem::rc::RcHeap;
use sysmem::semispace::SemiSpaceHeap;
use sysmem::workload::{
    run_region_workload, run_workload, Lifetime, ReclaimStrategy, WorkloadReport, WorkloadSpec,
};
use sysmem::Manager;

fn spec(scale: Scale) -> WorkloadSpec {
    WorkloadSpec {
        ops: match scale {
            Scale::Quick => 20_000,
            Scale::Full => 400_000,
        },
        min_words: 2,
        max_words: 32,
        nrefs: 2,
        link_prob: 0.2,
        lifetime: Lifetime::Exponential { mean_ops: 64.0 },
        seed: 0x51A5_u64 ^ 0x9e37_79b9,
    }
}

fn heap_bytes(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 1 << 22,
        Scale::Full => 1 << 26,
    }
}

fn add_row(t: &mut Table, r: &WorkloadReport, strategy: &str) {
    t.row(vec![
        r.manager.to_owned(),
        strategy.to_owned(),
        fmt_rate(r.throughput()),
        format!("{}", r.op_pauses.percentile(0.50)),
        format!("{}", r.op_pauses.percentile(0.99)),
        format!("{}", r.op_pauses.max()),
        r.collections.to_string(),
        r.integrity_errors.to_string(),
    ]);
}

/// Runs E1 and renders the table.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let spec = spec(scale);
    let bytes = heap_bytes(scale);
    let mut t = Table::new(
        "E1 — allocator throughput and pause tails (identical trace, six managers)",
        &[
            "manager",
            "reclaim",
            "alloc rate",
            "p50 ns",
            "p99 ns",
            "max ns",
            "GCs",
            "integrity errs",
        ],
    );

    // Each manager's run is hermetic: construct, drive, read stats, drop.
    // Keeping six 64 MB heaps resident simultaneously perturbs the later
    // runs (first-touch faulting at high RSS skews pauses by 10x+), so the
    // scopes below are load-bearing experimental methodology.
    {
        let mut region = RegionHeap::new(bytes);
        let r = run_region_workload(&mut region, &spec, 256);
        add_row(&mut t, &r, "region scope");
    }
    {
        let mut freelist = FreeListHeap::new(bytes);
        let r = run_workload(&mut freelist, &spec, ReclaimStrategy::ExplicitFree);
        add_row(&mut t, &r, "explicit free");
    }
    let cyclic = {
        let mut rc = RcHeap::new(bytes);
        let r = run_workload(&mut rc, &spec, ReclaimStrategy::RootRelease);
        add_row(&mut t, &r, "refcount");
        rc.cyclic_garbage_bytes()
    };
    {
        let mut ms = MarkSweepHeap::new(bytes);
        let r = run_workload(&mut ms, &spec, ReclaimStrategy::RootRelease);
        add_row(&mut t, &r, "trace (mark-sweep)");
    }
    {
        let mut ss = SemiSpaceHeap::new(bytes * 2);
        let r = run_workload(&mut ss, &spec, ReclaimStrategy::RootRelease);
        add_row(&mut t, &r, "trace (semispace)");
    }
    // Nursery must hold several object lifetimes' worth of allocation or
    // everything survives to promotion and the generational hypothesis
    // never gets to act; 1/16 of the heap is the classic ratio.
    let barrier_hits = {
        let mut generational = GenerationalHeap::new(bytes, (bytes / 16).max(1 << 16));
        let r = run_workload(&mut generational, &spec, ReclaimStrategy::RootRelease);
        add_row(&mut t, &r, "trace (generational)");
        generational.stats().barrier_hits
    };
    t.note(format!(
        "refcount cyclic garbage left behind: {cyclic} bytes (reclaimed by trial deletion on demand)"
    ));
    t.note(format!("generational write-barrier hits: {barrier_hits}"));
    t.note("paper claim: manual/region are fast with flat tails; tracing GCs pay pause spikes (max ≫ p50).");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_runs_clean_at_quick_scale() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 6);
        // No manager may corrupt data.
        for row in &t.rows {
            assert_eq!(row[7], "0", "integrity errors in {}", row[0]);
        }
    }
}
