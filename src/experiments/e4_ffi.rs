//! E4 — The legacy boundary (Fallacy 4).
//!
//! "The legacy problem is insurmountable" is the excuse the paper rejects:
//! if calls across the new-language/legacy boundary are cheap, systems can
//! be rewritten one component at a time. This experiment measures the cost
//! of a call under every arrangement: work done natively, work called
//! across the VM→native boundary, and work done in-language, for both value
//! representations.

use super::{fmt_ns, time_vm, Scale, Table};
use bitc_core::bytecode::Bytecode;
use bitc_core::compile::compile_program_with_natives;
use bitc_core::ffi::NativeRegistry;
use bitc_core::parser::parse_program;
use bitc_core::vm::{Boxed, Unboxed, VmStats};
use std::time::Instant;
use sysobs::paired;

fn calls(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 10_000,
        Scale::Full => 1_000_000,
    }
}

/// A VM loop that performs `n` calls to `callee`, which is either a native
/// (`host-add`) or an in-language function (`vm-add`).
fn call_loop_src(n: u64, callee: &str) -> String {
    format!(
        "(define vm-add (lambda (a b) (+ a b)))
         (let ((i 0) (acc 0))
           (begin
             (while (< i {n})
               (set! acc ({callee} acc 1))
               (set! i (+ i 1)))
             acc))"
    )
}

/// The two per-call arrangements: (row label, callee).
const CALLEES: [(&str, &str); 2] = [
    ("VM→VM call", "vm-add"),
    ("VM→native call (FFI)", "host-add"),
];

/// Compiles `src` against the registry's natives, outside any timing.
fn compile(src: &str, reg: &NativeRegistry) -> Bytecode {
    let p = parse_program(src).expect("parses");
    let sigs = reg.signatures();
    let sigs_ref: Vec<(&str, usize)> = sigs.iter().map(|(n, a)| (n.as_str(), *a)).collect();
    compile_program_with_natives(&p, &sigs_ref).expect("compiles")
}

/// Runs E4 and renders the table.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let n = calls(scale);
    let reg = NativeRegistry::with_defaults();
    let mut t = Table::new(
        "E4 — call cost across the legacy (FFI) boundary",
        &["configuration", "total", "per call", "result"],
    );
    // Arms: the native loop; per callee, the unboxed then the boxed VM;
    // then one chunky native call doing all the work (amortization).
    let loops = CALLEES.map(|(_, callee)| compile(&call_loop_src(n, callee), &reg));
    let big = i64::try_from(n).expect("fits");
    let one_call = compile(&format!("(host-sum-to {big})"), &reg);
    let arms = paired(
        scale.rounds(),
        6,
        |&(ns, _, _): &(u64, i64, VmStats)| ns as f64,
        |arm| match arm {
            0 => {
                // Pure native baseline: the same accumulate loop in Rust.
                let t0 = Instant::now();
                let mut acc: i64 = 0;
                for _ in 0..n {
                    acc = std::hint::black_box(acc.wrapping_add(1));
                }
                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                (ns, acc, VmStats::default())
            }
            1 | 3 => time_vm::<Unboxed>(&loops[arm / 2], &reg),
            2 | 4 => time_vm::<Boxed>(&loops[arm / 2 - 1], &reg),
            _ => time_vm::<Unboxed>(&one_call, &reg),
        },
    );
    let mut labels = vec!["native loop (no boundary)".to_owned()];
    for (label, _) in CALLEES {
        labels.push(format!("unboxed, {label}"));
        labels.push(format!("boxed, {label}"));
    }
    labels.push("one native call doing all the work".to_owned());
    for (arm, (label, (ns, result, _))) in labels.into_iter().zip(arms).enumerate() {
        // A native add is well under a nanosecond: keep the fraction.
        let per_call = if arm == 5 {
            fmt_ns(ns)
        } else {
            format!("{:.2} ns", ns as f64 / n.max(1) as f64)
        };
        t.row(vec![label, fmt_ns(ns), per_call, result.to_string()]);
    }
    t.note("paper claim (inverted fallacy): the boundary tax is a constant tens-of-ns per crossing — small enough that component-at-a-time migration is viable, and amortizable by batching.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_produces_consistent_results() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 6);
        // The three accumulate loops must agree on the final value.
        assert_eq!(t.rows[0][3], t.rows[1][3]);
        assert_eq!(t.rows[1][3], t.rows[3][3]);
    }

    #[test]
    fn e4_callees_cross_the_boundary_they_name() {
        let n = calls(Scale::Quick);
        let reg = NativeRegistry::with_defaults();
        let [(_, vm_callee), (_, ffi_callee)] = CALLEES;
        let vm = time_vm::<Unboxed>(&compile(&call_loop_src(n, vm_callee), &reg), &reg).2;
        assert_eq!((vm.calls, vm.native_calls), (n, 0), "VM→VM arm");
        let ffi = time_vm::<Unboxed>(&compile(&call_loop_src(n, ffi_callee), &reg), &reg).2;
        assert_eq!(ffi.native_calls, n, "FFI arm");
    }
}
