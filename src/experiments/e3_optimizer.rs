//! E3 — "The optimizer can fix it" (Fallacy 3).
//!
//! The boxed VM gets the optimizer, pass by pass (const-fold → inline →
//! peephole → DCE), and is compared against the unboxed-by-design VM running
//! the *unoptimized* program. The paper's claim: optimization recovers part
//! of the representation gap but not the structural cost of boxing itself.

use super::{fmt_ns, time_vm, Scale, Table};
use bitc_core::bytecode::Bytecode;
use bitc_core::ffi::NativeRegistry;
use bitc_core::opt::{compile_optimized, OptLevel};
use bitc_core::parser::parse_program;
use bitc_core::vm::{Boxed, Unboxed, VmStats};
use sysobs::paired;

fn workload(scale: Scale) -> String {
    let n = match scale {
        Scale::Quick => 20_000,
        Scale::Full => 1_000_000,
    };
    // Inlinable helper + folding opportunities + a hot loop: the shape the
    // optimizer is best at.
    format!(
        "(define scale (lambda (x) (* x (+ 2 2))))
         (define offset (lambda (x) (+ x (- 10 3))))
         (let ((i 0) (acc 0))
           (begin
             (while (< i {n})
               (set! acc (+ acc (offset (scale i))))
               (set! i (+ i 1)))
             acc))"
    )
}

/// The table's arms: the boxed VM on each [`OptLevel::ALL`] build of the
/// program (arms `0..levels`), then the unboxed VM on the unoptimised build
/// (the last arm). Each returns (ns, result, the run's counters).
fn run_arm(arm: usize, builds: &[Bytecode], reg: &NativeRegistry) -> (u64, i64, VmStats) {
    match builds.get(arm) {
        Some(bc) => time_vm::<Boxed>(bc, reg),
        None => time_vm::<Unboxed>(&builds[0], reg),
    }
}

/// Compiles the workload at every optimiser level, outside any timing.
fn builds(scale: Scale) -> Vec<Bytecode> {
    let program = parse_program(&workload(scale)).expect("workload parses");
    bitc_core::infer::infer_program(&program).expect("workload typechecks");
    OptLevel::ALL
        .iter()
        .map(|&level| compile_optimized(&program, level).expect("compiles"))
        .collect()
}

/// Runs E3 and renders the table.
///
/// # Panics
///
/// Panics if the workload fails to compile or run (a bug, not an input
/// condition).
#[must_use]
pub fn run(scale: Scale) -> Table {
    let builds = builds(scale);
    let reg = NativeRegistry::new();
    let mut t = Table::new(
        "E3 — optimizer ablation on the boxed VM vs unboxed-by-design",
        &[
            "configuration",
            "time",
            "vs boxed -O0",
            "instructions",
            "static code size",
            "result",
        ],
    );
    let arms = paired(
        scale.rounds(),
        builds.len() + 1,
        |&(ns, _, _): &(u64, i64, VmStats)| ns as f64,
        |arm| run_arm(arm, &builds, &reg),
    );
    let (baseline_ns, expected, _) = arms[0];
    let labels = OptLevel::ALL
        .iter()
        .map(|level| format!("boxed {level}"))
        .chain(["unboxed (no optimizer)".to_owned()]);
    for (arm, ((ns, result, stats), label)) in arms.into_iter().zip(labels).enumerate() {
        assert_eq!(expected, result, "optimizer changed semantics");
        // The unboxed arm (the ceiling) runs the unoptimised build.
        let bc = builds.get(arm).unwrap_or(&builds[0]);
        #[allow(clippy::cast_precision_loss)]
        let speedup = baseline_ns as f64 / ns.max(1) as f64;
        t.row(vec![
            label,
            fmt_ns(ns),
            format!("{speedup:.2}x"),
            stats.instructions.to_string(),
            bc.instruction_count().to_string(),
            result.to_string(),
        ]);
    }
    t.note("paper claim: each pass helps, but the unboxed representation without any optimizer still beats the fully optimized boxed build — representation is not an optimizer problem.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_all_configurations_agree_on_results() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 6);
        let results: Vec<&String> = t.rows.iter().map(|r| &r[5]).collect();
        assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
    }

    #[test]
    fn e3_boxed_levels_allocate_and_unboxed_o0_does_not() {
        let builds = builds(Scale::Quick);
        let reg = NativeRegistry::new();
        for arm in 0..builds.len() {
            let (_, _, stats) = run_arm(arm, &builds, &reg);
            assert!(
                stats.value_allocations > 0,
                "boxed {} allocated nothing",
                OptLevel::ALL[arm]
            );
        }
        let (_, _, unboxed) = run_arm(builds.len(), &builds, &reg);
        assert_eq!(unboxed.value_allocations, 0, "unboxed -O0 allocated");
    }

    #[test]
    fn e3_optimizer_reduces_executed_instructions() {
        let t = run(Scale::Quick);
        let parse = |s: &str| s.parse::<u64>().unwrap();
        let o0 = parse(&t.rows[0][3]);
        let full = parse(&t.rows[4][3]);
        assert!(full < o0, "full {full} < O0 {o0}");
    }
}
