//! Regenerates the experiment tables in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release --example experiments -- all          # every table, quick scale
//! cargo run --release --example experiments -- e2 e3        # a subset
//! cargo run --release --example experiments -- --full all   # paper-scale sizes
//! ```

use plos06::experiments::{self, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let wanted = if wanted.is_empty() || wanted.contains(&"all") {
        vec![
            "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e9net", "e10", "e11", "e12",
            "e13", "e14", "e15", "e16", "e17", "e18", "f1",
        ]
    } else {
        wanted
    };
    println!("# PLOS06 reproduction experiments ({scale:?} scale)\n");
    for id in wanted {
        let table = match id {
            "e1" => experiments::e1_alloc::run(scale),
            "e2" => experiments::e2_boxing::run(scale),
            "e3" => experiments::e3_optimizer::run(scale),
            "e4" => experiments::e4_ffi::run(scale),
            "e5" => experiments::e5_verify::run(scale),
            "e6" => experiments::e6_ipc::run(scale),
            "e7" => experiments::e7_shared_state::run(scale),
            "e8" => experiments::e8_repr::run(scale),
            "e9" => experiments::e9_faults::run(scale),
            "e9net" => experiments::e9_faults::run_net(scale),
            "e10" => experiments::e10_dataplane::run(scale),
            "e11" => experiments::e11_obs::run(scale),
            "e12" => experiments::e12_cache::run(scale),
            "e13" => experiments::e13_check::run(scale),
            "e14" => experiments::e14_conntrack::run(scale),
            "e15" => experiments::e15_churn::run(scale),
            "e16" => experiments::e16_postmortem::run(scale),
            "e17" => experiments::e17_lb::run(scale),
            "e18" => experiments::e18_scenario::run(scale),
            "f1" => experiments::e2_boxing::run_figure(scale),
            other => {
                eprintln!("unknown experiment {other} (use e1..e18, e9net, f1, or all)");
                std::process::exit(2);
            }
        };
        println!("{table}");
    }
}
