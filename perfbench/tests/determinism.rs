//! The benchmark's own determinism and correctness tests: a seed names one
//! input stream and one set of program outcomes, and every output check
//! holds on more than one seed.

use perfbench::run::{fixed_run, Workload, END_TO_END, PER_LAYER};

/// Steps per workload: long enough that `syn-flood` is past establishing
/// its benign connections and into the flood, and that `lb-nat` closes
/// and reopens connections.
fn steps(w: Workload) -> u64 {
    match w {
        Workload::FwdMin => 300,
        Workload::LbNat => 1_500,
        Workload::SynFlood => 1_500,
        Workload::IpcRt => 20_000,
    }
}

#[test]
fn same_seed_gives_identical_counts() {
    for w in Workload::ALL {
        let a = fixed_run(w, 7, steps(w));
        let b = fixed_run(w, 7, steps(w));
        assert_eq!(a, b, "{}", w.name());
        assert!(a.counts.forwarded > 0, "{}", w.name());
    }
}

#[test]
fn another_seed_gives_another_stream() {
    for w in Workload::ALL {
        let a = fixed_run(w, 7, steps(w));
        let c = fixed_run(w, 8, steps(w));
        assert_ne!(a.counts.stream, c.counts.stream, "{}", w.name());
    }
}

#[test]
fn every_check_holds_on_two_seeds() {
    for w in Workload::ALL {
        for seed in [7, 8] {
            let r = fixed_run(w, seed, steps(w));
            assert_eq!(r.failed, 0, "{} seed {seed}", w.name());
            assert_eq!(r.checks, Ok(()), "{} seed {seed}", w.name());
        }
    }
}

#[test]
fn benchmark_json_lists_every_metric_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let listed = json.matches("\"name\":").count();
    assert_eq!(
        listed,
        Workload::GATED.len() + END_TO_END.len() + PER_LAYER.len()
    );
    for w in Workload::GATED {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{entry}");
    }
}
