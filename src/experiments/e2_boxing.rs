//! E2 — Boxed vs unboxed representation (Fallacy 2).
//!
//! The same BitC programs, the same bytecode, two value representations.
//! The paper claims the boxed representation's cost is structural (extra
//! allocation + indirection + cache misses) and cannot be assumed away; the
//! table reports the slowdown factor per kernel and the memory-bloat model.

use super::{fmt_ns, time_vm, Scale, Table};
use bitc_core::compile::compile_source;
use bitc_core::ffi::NativeRegistry;
use bitc_core::layout::{array_bytes, bloat_factor};
use bitc_core::types::Type;
use bitc_core::vm::{Boxed, Unboxed};
use sysobs::paired;

/// The benchmark kernels: classic inner loops of systems code.
#[must_use]
pub fn kernels(scale: Scale) -> Vec<(&'static str, String)> {
    let (n_loop, n_vec, n_fib) = match scale {
        Scale::Quick => (20_000, 4_000, 18),
        Scale::Full => (2_000_000, 200_000, 27),
    };
    vec![
        (
            "sum-loop",
            format!(
                "(let ((i 0) (acc 0))
                   (begin
                     (while (< i {n_loop}) (set! acc (+ acc i)) (set! i (+ i 1)))
                     acc))"
            ),
        ),
        (
            "vector-walk",
            format!(
                "(let ((v (make-vector {n_vec} 1)) (i 0) (acc 0))
                   (begin
                     (while (< i {n_vec}) (vec-set! v i (* i 3)) (set! i (+ i 1)))
                     (set! i 0)
                     (while (< i {n_vec}) (set! acc (+ acc (vec-ref v i))) (set! i (+ i 1)))
                     acc))"
            ),
        ),
        (
            "fib-calls",
            format!(
                "(define fib (lambda (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))))
                 (fib {n_fib})"
            ),
        ),
    ]
}

/// Times `src` under the unboxed (arm 0) and the boxed (arm 1)
/// representation as [`paired`] arms over `rounds` rounds; the program is
/// compiled once, outside the timed arms. Returns each arm's median-ns
/// (ns, result, boxed-value allocations).
fn time_pair(src: &str, rounds: usize) -> [(u64, i64, u64); 2] {
    let bc = compile_source(src).expect("kernel compiles");
    let reg = NativeRegistry::new();
    let arms = paired(
        rounds,
        2,
        |&(ns, _, _): &(u64, i64, u64)| ns as f64,
        |arm| {
            let (ns, result, stats) = if arm == 0 {
                time_vm::<Unboxed>(&bc, &reg)
            } else {
                time_vm::<Boxed>(&bc, &reg)
            };
            (ns, result, stats.value_allocations)
        },
    );
    [arms[0], arms[1]]
}

/// Runs E2 and renders the table.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let mut t = Table::new(
        "E2 — boxed vs unboxed value representation (same bytecode)",
        &[
            "kernel",
            "unboxed",
            "boxed",
            "slowdown",
            "boxed allocs",
            "result check",
        ],
    );
    for (name, src) in kernels(scale) {
        let [(u_ns, u_res, _), (b_ns, b_res, b_allocs)] = time_pair(&src, scale.rounds());
        #[allow(clippy::cast_precision_loss)]
        let slow = b_ns as f64 / u_ns.max(1) as f64;
        t.row(vec![
            name.to_owned(),
            fmt_ns(u_ns),
            fmt_ns(b_ns),
            format!("{slow:.2}x"),
            b_allocs.to_string(),
            if u_res == b_res {
                "ok".into()
            } else {
                format!("MISMATCH {u_res}!={b_res}")
            },
        ]);
    }
    let (u_mem, b_mem) = array_bytes(&Type::Int, 1_000_000);
    t.note(format!(
        "memory model, 1M-element int array: unboxed {u_mem} B vs boxed {b_mem} B ({:.2}x bloat)",
        bloat_factor(&Type::Int, 1_000_000)
    ));
    t.note("paper claim: boxing costs an integer factor (≫ the 10-20% folklore), concentrated in allocation and indirection.");
    t
}

/// F1 — the figure-style series behind E2: boxed/unboxed slowdown as a
/// function of working-set size.
///
/// The paper's Fallacy 2 discussion locates boxing's cost in *cache
/// behaviour*: a boxed array is a pointer array plus scattered cells, so
/// once the working set outgrows the cache the indirections become misses.
/// The series sweeps a vector-sum kernel from cache-resident to
/// cache-busting sizes; the slowdown column is the "figure".
#[must_use]
pub fn run_figure(scale: Scale) -> Table {
    let sizes: &[usize] = match scale {
        Scale::Quick => &[1 << 10, 1 << 12, 1 << 14, 1 << 16],
        Scale::Full => &[1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20],
    };
    let mut t = Table::new(
        "F1 — boxing slowdown vs working-set size (vector sum, ns/element)",
        &[
            "elements",
            "unboxed ns/elem",
            "boxed ns/elem",
            "slowdown",
            "boxed bytes (model)",
        ],
    );
    let budget: usize = match scale {
        Scale::Quick => 1 << 17,
        Scale::Full => 1 << 23,
    };
    let mut slowdowns = Vec::with_capacity(sizes.len());
    for &n in sizes {
        // Write then sum a vector of n elements; several passes so every
        // size touches the same total number of elements.
        let passes = (budget / n.max(1)).max(1);
        let src = format!(
            "(let ((v (make-vector {n} 1)) (p 0) (acc 0))
               (begin
                 (while (< p {passes})
                   (let ((i 0))
                     (while (< i {n})
                       (set! acc (+ acc (vec-ref v i)))
                       (set! i (+ i 1))))
                   (set! p (+ p 1)))
                 acc))"
        );
        let [(u_ns, u_res, _), (b_ns, b_res, _)] = time_pair(&src, scale.rounds());
        assert_eq!(u_res, b_res, "representation divergence at n={n}");
        let elems = (n * passes) as u64;
        #[allow(clippy::cast_precision_loss)]
        let slow = b_ns as f64 / u_ns.max(1) as f64;
        slowdowns.push(slow);
        let (_, boxed_bytes) = array_bytes(&Type::Int, n);
        t.row(vec![
            n.to_string(),
            format!("{:.1}", u_ns as f64 / elems as f64),
            format!("{:.1}", b_ns as f64 / elems as f64),
            format!("{slow:.2}x"),
            boxed_bytes.to_string(),
        ]);
    }
    let (first, last) = (slowdowns[0], slowdowns[slowdowns.len() - 1]);
    let direction = if last > first {
        "grows"
    } else if last < first {
        "shrinks"
    } else {
        "holds"
    };
    t.note(format!(
        "series shape: boxing already costs {first:.2}x in cache (allocation \
         cost), and the slowdown {direction} to {last:.2}x at {} elements as \
         the boxed working set outgrows cache levels (median of {} paired \
         rounds).",
        sizes[sizes.len() - 1],
        scale.rounds()
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_kernels_agree_across_representations() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            assert_eq!(row[5], "ok", "representation divergence in {}", row[0]);
        }
    }

    #[test]
    fn f1_series_is_consistent() {
        let t = run_figure(Scale::Quick);
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn e2_boxed_allocates_unboxed_does_not() {
        for (_, src) in kernels(Scale::Quick) {
            let [(_, _, u_allocs), (_, _, b_allocs)] = time_pair(&src, 1);
            // Unboxed only allocates for vectors; boxed allocates per value.
            assert!(
                b_allocs > u_allocs * 10,
                "boxed {b_allocs} vs unboxed {u_allocs}"
            );
        }
    }
}
