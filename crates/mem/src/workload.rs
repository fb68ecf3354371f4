//! Synthetic allocation workloads with controlled object-size and lifetime
//! distributions, used by experiment E1.
//!
//! Each allocated object gets a sentinel word written at birth and verified
//! at death, so any manager that corrupts or prematurely reuses storage is
//! caught *inside* the benchmark — performance numbers from a corrupting
//! manager are meaningless.

use crate::{Handle, Manager, ManagerExt, MemError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;
use sysobs::LogHistogram;

/// Object-lifetime distribution for a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lifetime {
    /// Strict stack discipline: the most recently allocated live object dies
    /// first. Matches the region-friendly pattern of most systems code.
    Lifo,
    /// Exponentially distributed lifetimes (most objects die young — the
    /// generational hypothesis).
    Exponential {
        /// Mean lifetime in operations.
        mean_ops: f64,
    },
    /// Uniformly distributed lifetimes in `[1, max_ops]`.
    Uniform {
        /// Maximum lifetime in operations.
        max_ops: usize,
    },
}

/// How the driver returns dead objects to the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimStrategy {
    /// Call [`Manager::free`] at death (manual managers).
    ExplicitFree,
    /// Drop the root at death and let the collector reclaim (tracing/RC).
    RootRelease,
    /// Ignore per-object deaths; allocate into a region and close it every
    /// `batch` allocations (region managers).
    RegionScope {
        /// Allocations per region.
        batch: usize,
    },
}

/// Parameters of a synthetic workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of allocation operations.
    pub ops: usize,
    /// Minimum payload words per object.
    pub min_words: usize,
    /// Maximum payload words per object (inclusive).
    pub max_words: usize,
    /// Reference slots per object.
    pub nrefs: usize,
    /// Probability that a new object is linked from a random live object.
    pub link_prob: f64,
    /// Lifetime distribution.
    pub lifetime: Lifetime,
    /// RNG seed (workloads are deterministic given the seed).
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            ops: 10_000,
            min_words: 2,
            max_words: 32,
            nrefs: 2,
            link_prob: 0.2,
            lifetime: Lifetime::Exponential { mean_ops: 64.0 },
            seed: 0x5eed,
        }
    }
}

/// Result of running a workload against one manager.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Manager name.
    pub manager: &'static str,
    /// Total wall time in nanoseconds.
    pub elapsed_ns: u64,
    /// Per-operation latency histogram (alloc + any embedded GC pause).
    pub op_pauses: LogHistogram,
    /// Successful allocations.
    pub allocs: u64,
    /// Allocations that failed with out-of-memory.
    pub oom: u64,
    /// Peak live bytes observed.
    pub peak_live_bytes: usize,
    /// Sentinel mismatches detected (must be zero for a correct manager).
    pub integrity_errors: u64,
    /// Collections run by the manager during the workload.
    pub collections: u64,
    /// Worst GC pause in nanoseconds.
    pub max_gc_pause_ns: u64,
}

impl WorkloadReport {
    /// Allocations per second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.allocs as f64 / (self.elapsed_ns as f64 / 1e9)
        }
    }
}

fn sentinel(h: Handle, seed: u64) -> u64 {
    h.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed
}

/// Runs `spec` against `mgr` using the given reclaim strategy.
///
/// The driver allocates one object per operation, writes a sentinel,
/// optionally links it into the live graph, and retires objects according to
/// the lifetime distribution and strategy. It is deterministic for a given
/// seed, so different managers see the identical request stream.
///
/// # Panics
///
/// Panics only on internal driver bugs, never on manager errors (OOM and
/// integrity failures are counted in the report).
#[allow(clippy::too_many_lines)]
pub fn run_workload(
    mgr: &mut dyn Manager,
    spec: &WorkloadSpec,
    strategy: ReclaimStrategy,
) -> WorkloadReport {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut report = WorkloadReport {
        manager: mgr.name(),
        elapsed_ns: 0,
        op_pauses: LogHistogram::new(),
        allocs: 0,
        oom: 0,
        peak_live_bytes: 0,
        integrity_errors: 0,
        collections: 0,
        max_gc_pause_ns: 0,
    };
    // (death_op, handle); BinaryHeap is a max-heap, so wrap in Reverse.
    let mut deaths: BinaryHeap<Reverse<(usize, Handle)>> = BinaryHeap::new();
    let mut lifo_stack: Vec<Handle> = Vec::new();
    let mut live: Vec<Handle> = Vec::new();
    let start = Instant::now();

    let retire = |mgr: &mut dyn Manager, h: Handle, report: &mut WorkloadReport, seed: u64| {
        if mgr.is_live(h) {
            match mgr.get_word(h, 0) {
                Ok(w) if w == sentinel(h, seed) => {}
                _ => report.integrity_errors += 1,
            }
        } else {
            report.integrity_errors += 1;
        }
        match strategy {
            ReclaimStrategy::ExplicitFree => {
                if let Err(MemError::InvalidHandle(_)) = mgr.free(h) {
                    report.integrity_errors += 1;
                }
            }
            ReclaimStrategy::RootRelease => mgr.remove_root(h),
            ReclaimStrategy::RegionScope { .. } => {}
        }
    };

    for op in 0..spec.ops {
        // Process deaths scheduled at or before this op.
        match spec.lifetime {
            Lifetime::Lifo => {
                // Die with probability ~0.5 per op, newest first.
                while !lifo_stack.is_empty() && rng.gen_bool(0.5) {
                    let h = lifo_stack.pop().expect("nonempty");
                    live.retain(|&x| x != h);
                    retire(mgr, h, &mut report, spec.seed);
                }
            }
            _ => {
                while let Some(&Reverse((death, h))) = deaths.peek() {
                    if death > op {
                        break;
                    }
                    deaths.pop();
                    live.retain(|&x| x != h);
                    retire(mgr, h, &mut report, spec.seed);
                }
            }
        }

        let nwords = rng.gen_range(spec.min_words..=spec.max_words).max(1);
        let t0 = Instant::now();
        let h = match mgr.alloc(spec.nrefs, nwords) {
            Ok(h) => h,
            Err(_) => {
                report.oom += 1;
                continue;
            }
        };
        report.op_pauses.record_duration(t0.elapsed());
        report.allocs += 1;
        mgr.put(h, 0, sentinel(h, spec.seed));
        if strategy == ReclaimStrategy::RootRelease {
            mgr.add_root(h);
        }
        // Link into the object graph.
        if spec.nrefs > 0 && !live.is_empty() && rng.gen_bool(spec.link_prob) {
            let src = live[rng.gen_range(0..live.len())];
            let slot = rng.gen_range(0..spec.nrefs);
            // Region managers may reject outward references; that is the
            // discipline working as intended, not an error.
            let _ = mgr.set_ref(src, slot, Some(h));
        }
        live.push(h);
        match spec.lifetime {
            Lifetime::Lifo => lifo_stack.push(h),
            Lifetime::Exponential { mean_ops } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let life = (-mean_ops * u.ln()).ceil().max(1.0) as usize;
                deaths.push(Reverse((op + life, h)));
            }
            Lifetime::Uniform { max_ops } => {
                let life = rng.gen_range(1..=max_ops.max(1));
                deaths.push(Reverse((op + life, h)));
            }
        }
        if op % 64 == 0 {
            report.peak_live_bytes = report.peak_live_bytes.max(mgr.live_bytes());
        }
    }
    // Drain survivors.
    for h in live {
        retire(mgr, h, &mut report, spec.seed);
    }
    report.elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    report.collections = mgr.stats().collections;
    report.max_gc_pause_ns = mgr.stats().gc_pauses.max();
    report
}

/// Runs a region-scoped variant: objects are allocated into regions of
/// `batch` allocations which close in LIFO order.
///
/// This is the workload shape regions are *for*; E1 reports it alongside the
/// general workloads to show where the region discipline wins.
pub fn run_region_workload(
    heap: &mut crate::arena::RegionHeap,
    spec: &WorkloadSpec,
    batch: usize,
) -> WorkloadReport {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut report = WorkloadReport {
        manager: "region",
        elapsed_ns: 0,
        op_pauses: LogHistogram::new(),
        allocs: 0,
        oom: 0,
        peak_live_bytes: 0,
        integrity_errors: 0,
        collections: 0,
        max_gc_pause_ns: 0,
    };
    let start = Instant::now();
    let mut in_batch = 0usize;
    let mut region = heap.open_region();
    let mut batch_handles: Vec<Handle> = Vec::new();
    for op in 0..spec.ops {
        let nwords = rng.gen_range(spec.min_words..=spec.max_words).max(1);
        let t0 = Instant::now();
        match heap.alloc(spec.nrefs, nwords) {
            Ok(h) => {
                report.op_pauses.record_duration(t0.elapsed());
                report.allocs += 1;
                heap.put(h, 0, sentinel(h, spec.seed));
                batch_handles.push(h);
                in_batch += 1;
            }
            Err(_) => report.oom += 1,
        }
        if in_batch >= batch {
            for &h in &batch_handles {
                match heap.get_word(h, 0) {
                    Ok(w) if w == sentinel(h, spec.seed) => {}
                    _ => report.integrity_errors += 1,
                }
            }
            heap.close_region(region);
            region = heap.open_region();
            batch_handles.clear();
            in_batch = 0;
        }
        if op % 64 == 0 {
            report.peak_live_bytes = report.peak_live_bytes.max(heap.live_bytes());
        }
    }
    heap.close_region(region);
    report.elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::RegionHeap;
    use crate::freelist::FreeListHeap;
    use crate::generational::GenerationalHeap;
    use crate::marksweep::MarkSweepHeap;
    use crate::rc::RcHeap;
    use crate::semispace::SemiSpaceHeap;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            ops: 2000,
            min_words: 1,
            max_words: 8,
            nrefs: 1,
            link_prob: 0.1,
            lifetime: Lifetime::Exponential { mean_ops: 32.0 },
            seed: 42,
        }
    }

    #[test]
    fn freelist_runs_clean() {
        let mut h = FreeListHeap::new(1 << 20);
        let r = run_workload(&mut h, &small_spec(), ReclaimStrategy::ExplicitFree);
        assert_eq!(r.integrity_errors, 0);
        assert_eq!(r.oom, 0);
        assert_eq!(r.allocs, 2000);
    }

    #[test]
    fn marksweep_runs_clean() {
        let mut h = MarkSweepHeap::new(1 << 20);
        let r = run_workload(&mut h, &small_spec(), ReclaimStrategy::RootRelease);
        assert_eq!(r.integrity_errors, 0, "GC must not corrupt live data");
        assert_eq!(r.oom, 0);
    }

    #[test]
    fn semispace_runs_clean() {
        let mut h = SemiSpaceHeap::new(1 << 21);
        let r = run_workload(&mut h, &small_spec(), ReclaimStrategy::RootRelease);
        assert_eq!(r.integrity_errors, 0);
        assert_eq!(r.oom, 0);
    }

    #[test]
    fn generational_runs_clean() {
        let mut h = GenerationalHeap::new(1 << 21, 1 << 12);
        let r = run_workload(&mut h, &small_spec(), ReclaimStrategy::RootRelease);
        assert_eq!(r.integrity_errors, 0);
        assert_eq!(r.oom, 0);
    }

    #[test]
    fn refcount_runs_clean() {
        let mut h = RcHeap::new(1 << 20);
        let r = run_workload(&mut h, &small_spec(), ReclaimStrategy::RootRelease);
        assert_eq!(r.integrity_errors, 0);
        assert_eq!(r.oom, 0);
    }

    #[test]
    fn region_workload_runs_clean() {
        let mut h = RegionHeap::new(1 << 20);
        let r = run_region_workload(&mut h, &small_spec(), 128);
        assert_eq!(r.integrity_errors, 0);
        assert_eq!(r.oom, 0);
        assert_eq!(r.allocs, 2000);
    }

    #[test]
    fn lifo_lifetime_works_with_explicit_free() {
        let mut h = FreeListHeap::new(1 << 20);
        let spec = WorkloadSpec {
            lifetime: Lifetime::Lifo,
            ..small_spec()
        };
        let r = run_workload(&mut h, &spec, ReclaimStrategy::ExplicitFree);
        assert_eq!(r.integrity_errors, 0);
    }

    #[test]
    fn uniform_lifetime_works() {
        let mut h = MarkSweepHeap::new(1 << 20);
        let spec = WorkloadSpec {
            lifetime: Lifetime::Uniform { max_ops: 100 },
            ..small_spec()
        };
        let r = run_workload(&mut h, &spec, ReclaimStrategy::RootRelease);
        assert_eq!(r.integrity_errors, 0);
    }

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let spec = small_spec();
        let mut h1 = FreeListHeap::new(1 << 20);
        let mut h2 = FreeListHeap::new(1 << 20);
        let r1 = run_workload(&mut h1, &spec, ReclaimStrategy::ExplicitFree);
        let r2 = run_workload(&mut h2, &spec, ReclaimStrategy::ExplicitFree);
        assert_eq!(r1.allocs, r2.allocs);
        assert_eq!(r1.peak_live_bytes, r2.peak_live_bytes);
    }

    #[test]
    fn throughput_is_positive() {
        let mut h = FreeListHeap::new(1 << 20);
        let r = run_workload(&mut h, &small_spec(), ReclaimStrategy::ExplicitFree);
        assert!(r.throughput() > 0.0);
    }
}
