//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints diagnostics on standard error and, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed`, and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).

use perfbench::run::{end_to_end, per_layer, Workload};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: perfbench::alloc::Counting = perfbench::alloc::Counting;

const USAGE: &str = "usage: perfbench --workload <fwd-min|lb-nat|syn-flood|ipc-rt> \
                     [--seed <u64>] [--seconds <1..=600>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let secs = args.seconds as f64;
    let report = if args.trace {
        per_layer(args.workload, args.seed, secs)
    } else {
        end_to_end(args.workload, args.seed, secs)
    };
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
