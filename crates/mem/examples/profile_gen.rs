//! Profiling harness replicating E1's exact sequence (used to chase a
//! pause anomaly; kept as a diagnostic example).
use sysmem::arena::RegionHeap;
use sysmem::freelist::FreeListHeap;
use sysmem::generational::GenerationalHeap;
use sysmem::marksweep::MarkSweepHeap;
use sysmem::rc::RcHeap;
use sysmem::semispace::SemiSpaceHeap;
use sysmem::workload::{
    run_region_workload, run_workload, Lifetime, ReclaimStrategy, WorkloadSpec,
};

fn main() {
    let spec = WorkloadSpec {
        ops: 400_000,
        min_words: 2,
        max_words: 32,
        nrefs: 2,
        link_prob: 0.2,
        lifetime: Lifetime::Exponential { mean_ops: 64.0 },
        seed: 0x51A5_u64 ^ 0x9e37_79b9,
    };
    let bytes = 1 << 26;
    let t = std::time::Instant::now();
    {
        let mut region = RegionHeap::new(bytes);
        let r = run_region_workload(&mut region, &spec, 256);
        println!("region: {:?} rate={:.0}/s", t.elapsed(), r.throughput());
    }
    let t = std::time::Instant::now();
    {
        let mut fl = FreeListHeap::new(bytes);
        let r = run_workload(&mut fl, &spec, ReclaimStrategy::ExplicitFree);
        println!("freelist: {:?} rate={:.0}/s", t.elapsed(), r.throughput());
    }
    let t = std::time::Instant::now();
    {
        let mut rc = RcHeap::new(bytes);
        let r = run_workload(&mut rc, &spec, ReclaimStrategy::RootRelease);
        println!("rc: {:?} rate={:.0}/s", t.elapsed(), r.throughput());
    }
    let t = std::time::Instant::now();
    {
        let mut ms = MarkSweepHeap::new(bytes);
        let r = run_workload(&mut ms, &spec, ReclaimStrategy::RootRelease);
        println!("marksweep: {:?} rate={:.0}/s", t.elapsed(), r.throughput());
    }
    let t = std::time::Instant::now();
    {
        let mut ss = SemiSpaceHeap::new(bytes * 2);
        let r = run_workload(&mut ss, &spec, ReclaimStrategy::RootRelease);
        println!(
            "semispace: {:?} rate={:.0}/s maxpause={}us",
            t.elapsed(),
            r.throughput(),
            r.op_pauses.max() / 1000
        );
    }
    let t = std::time::Instant::now();
    let mut g = GenerationalHeap::new(bytes, bytes / 16);
    let r = run_workload(&mut g, &spec, ReclaimStrategy::RootRelease);
    println!(
        "generational: {:?} rate={:.0}/s maxpause={}us gcs={}",
        t.elapsed(),
        r.throughput(),
        r.op_pauses.max() / 1000,
        r.collections
    );
}
