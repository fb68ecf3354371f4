//! Kernel invariants as machine-checkable contracts — the paper's
//! Challenge 1 ("application constraint checking") applied to the paper's
//! own application domain.
//!
//! Each invariant is a [`bitc_verify::vcgen::Procedure`] modelling one
//! kernel state transition plus the property it must preserve. The prover
//! discharges all of them ([`invariant_suite`]); the *seeded-bug* variants
//! ([`seeded_bug_suite`]) contain deliberate, realistic mistakes (a missing
//! ring-buffer wrap, a rights check dropped) that the prover must refute
//! with a concrete counterexample — demonstrating the workflow the paper
//! says systems programmers need from a language toolchain.

use bitc_verify::term::{Cmp, Formula, Term};
use bitc_verify::vcgen::{Procedure, Stmt};

fn v(n: &str) -> Term {
    Term::var(n)
}

fn int(n: i64) -> Term {
    Term::Int(n)
}

fn plus(a: Term, b: Term) -> Term {
    Term::Add(Box::new(a), Box::new(b))
}

fn bit_constraint(name: &str) -> Formula {
    Formula::and(
        Formula::cmp(Cmp::Ge, v(name), int(0)),
        Formula::cmp(Cmp::Le, v(name), int(1)),
    )
}

/// `r`, `b` and `d` are bits, and exactly one of them is set.
fn one_hot(r: &str, b: &str, d: &str) -> Formula {
    Formula::And(vec![
        bit_constraint(r),
        bit_constraint(b),
        bit_constraint(d),
        Formula::cmp(Cmp::Eq, plus(plus(v(r), v(b)), v(d)), int(1)),
    ])
}

/// The procedure for invariant `name`; its seeded-bug variant is named
/// `<name>-buggy`.
fn procedure(
    name: &str,
    seeded_bug: bool,
    requires: Formula,
    body: Vec<Stmt>,
    ensures: Formula,
) -> Procedure {
    let suffix = if seeded_bug { "-buggy" } else { "" };
    Procedure {
        name: format!("{name}{suffix}"),
        requires,
        ensures,
        body,
    }
}

/// Mint monotonicity: for every rights bit, the minted capability's bit is
/// the conjunction of the source bit and the requested bit — so minted
/// rights never exceed source rights.
///
/// With `seeded_bug`, one bit copies the *request* unconditionally (the
/// classic "forgot to intersect" mistake); the prover finds the
/// amplification.
#[must_use]
pub fn mint_procedure(seeded_bug: bool) -> Procedure {
    const BITS: usize = 3; // READ, WRITE, GRANT — enough to show the shape
    let mut requires = vec![Formula::True];
    let mut body = Vec::new();
    let mut ensures = vec![Formula::True];
    for i in 0..BITS {
        let src = format!("src{i}");
        let req = format!("req{i}");
        let out = format!("out{i}");
        requires.push(bit_constraint(&src));
        requires.push(bit_constraint(&req));
        let both = Formula::and(
            Formula::cmp(Cmp::Eq, v(&src), int(1)),
            Formula::cmp(Cmp::Eq, v(&req), int(1)),
        );
        if seeded_bug && i == 1 {
            // Bug: out1 := req1 (source ignored — amplification possible).
            body.push(Stmt::Assign(out.clone(), v(&req)));
        } else {
            body.push(Stmt::If(
                both,
                vec![Stmt::Assign(out.clone(), int(1))],
                vec![Stmt::Assign(out.clone(), int(0))],
            ));
        }
        // No amplification: out_i <= src_i.
        ensures.push(Formula::cmp(Cmp::Le, v(&out), v(&src)));
    }
    procedure(
        "mint",
        seeded_bug,
        Formula::And(requires),
        body,
        Formula::And(ensures),
    )
}

/// Capability-space lookup stays in bounds: given `0 <= slot < size`, the
/// computed table address lies inside `[base, base + size)`.
#[must_use]
pub fn cspace_lookup_procedure(seeded_bug: bool) -> Procedure {
    let requires = Formula::And(vec![
        Formula::cmp(Cmp::Ge, v("slot"), int(0)),
        // The buggy variant uses <= where < is needed (off-by-one).
        if seeded_bug {
            Formula::cmp(Cmp::Le, v("slot"), v("size"))
        } else {
            Formula::cmp(Cmp::Lt, v("slot"), v("size"))
        },
        Formula::cmp(Cmp::Ge, v("base"), int(0)),
        Formula::cmp(Cmp::Ge, v("size"), int(1)),
    ]);
    let body = vec![Stmt::Assign("addr".into(), plus(v("base"), v("slot")))];
    let ensures = Formula::And(vec![
        Formula::cmp(Cmp::Ge, v("addr"), v("base")),
        Formula::cmp(Cmp::Lt, v("addr"), plus(v("base"), v("size"))),
    ]);
    procedure("cspace-lookup", seeded_bug, requires, body, ensures)
}

/// Endpoint ring-buffer enqueue preserves `0 <= tail < cap` and
/// `count <= cap`. The buggy variant forgets the wrap-around, so `tail`
/// escapes the buffer — the bounds bug that becomes a kernel memory-safety
/// hole in C.
#[must_use]
pub fn queue_enqueue_procedure(seeded_bug: bool) -> Procedure {
    let requires = Formula::And(vec![
        Formula::cmp(Cmp::Ge, v("tail"), int(0)),
        Formula::cmp(Cmp::Lt, v("tail"), v("cap")),
        Formula::cmp(Cmp::Ge, v("count"), int(0)),
        Formula::cmp(Cmp::Lt, v("count"), v("cap")),
        Formula::cmp(Cmp::Ge, v("cap"), int(1)),
    ]);
    let bump = Stmt::Assign("tail".into(), plus(v("tail"), int(1)));
    let wrap = Stmt::If(
        Formula::cmp(Cmp::Ge, v("tail"), v("cap")),
        vec![Stmt::Assign("tail".into(), int(0))],
        vec![],
    );
    let body = if seeded_bug {
        vec![bump, Stmt::Assign("count".into(), plus(v("count"), int(1)))]
    } else {
        vec![
            bump,
            wrap,
            Stmt::Assign("count".into(), plus(v("count"), int(1))),
        ]
    };
    let ensures = Formula::And(vec![
        Formula::cmp(Cmp::Ge, v("tail"), int(0)),
        Formula::cmp(Cmp::Lt, v("tail"), v("cap")),
        Formula::cmp(Cmp::Le, v("count"), v("cap")),
    ]);
    procedure("queue-enqueue", seeded_bug, requires, body, ensures)
}

/// Scheduler state exclusivity: a process is exactly one of
/// {ready, blocked, dead} before and after a block transition.
#[must_use]
pub fn scheduler_block_procedure(seeded_bug: bool) -> Procedure {
    let requires = Formula::and(
        one_hot("ready", "blocked", "dead"),
        // Only a ready process can block.
        Formula::cmp(Cmp::Eq, v("ready"), int(1)),
    );
    let body = if seeded_bug {
        // Bug: marks blocked without clearing ready (process on two queues).
        vec![Stmt::Assign("blocked".into(), int(1))]
    } else {
        vec![
            Stmt::Assign("ready".into(), int(0)),
            Stmt::Assign("blocked".into(), int(1)),
        ]
    };
    let ensures = one_hot("ready", "blocked", "dead");
    procedure("sched-block", seeded_bug, requires, body, ensures)
}

/// IPC payload copy bound: copying `len` words starting at `dst` stays in a
/// buffer of `buf` words when `len <= buf` and offsets are in range.
#[must_use]
pub fn ipc_copy_procedure(seeded_bug: bool) -> Procedure {
    let requires = Formula::And(vec![
        Formula::cmp(Cmp::Ge, v("len"), int(0)),
        if seeded_bug {
            // Bug: validates against the *request* size, not the buffer.
            Formula::cmp(Cmp::Le, v("len"), v("req"))
        } else {
            Formula::cmp(Cmp::Le, v("len"), v("buf"))
        },
        Formula::cmp(Cmp::Ge, v("buf"), int(0)),
        Formula::cmp(Cmp::Ge, v("req"), int(0)),
    ]);
    let body = vec![Stmt::Assign("end".into(), v("len"))];
    let ensures = Formula::cmp(Cmp::Le, v("end"), v("buf"));
    procedure("ipc-copy", seeded_bug, requires, body, ensures)
}

/// Watchdog reap transition: reaping an overdue blocked IPC moves the
/// process from blocked to ready, preserving state exclusivity — a reaped
/// process must never sit on both the blocked and ready queues. The buggy
/// variant wakes the process without clearing the blocked bit, the exact
/// double-queue mistake that turns a recovery path into a scheduler
/// corruption.
#[must_use]
pub fn watchdog_reap_procedure(seeded_bug: bool) -> Procedure {
    let requires = Formula::And(vec![
        one_hot("ready", "blocked", "dead"),
        // Only a blocked process with an expired deadline is reaped.
        Formula::cmp(Cmp::Eq, v("blocked"), int(1)),
        Formula::cmp(Cmp::Ge, v("now"), int(0)),
        Formula::cmp(Cmp::Ge, v("deadline"), int(0)),
        Formula::cmp(Cmp::Lt, v("deadline"), v("now")),
    ]);
    let body = if seeded_bug {
        // Bug: wakes without clearing blocked (process on two queues).
        vec![Stmt::Assign("ready".into(), int(1))]
    } else {
        vec![
            Stmt::Assign("blocked".into(), int(0)),
            Stmt::Assign("ready".into(), int(1)),
        ]
    };
    let ensures = Formula::and(
        one_hot("ready", "blocked", "dead"),
        Formula::cmp(Cmp::Eq, v("blocked"), int(0)),
    );
    procedure("watchdog-reap", seeded_bug, requires, body, ensures)
}

/// Every invariant's procedure, correct or with its seeded bug.
const PROCEDURES: [fn(bool) -> Procedure; 6] = [
    mint_procedure,
    cspace_lookup_procedure,
    queue_enqueue_procedure,
    scheduler_block_procedure,
    ipc_copy_procedure,
    watchdog_reap_procedure,
];

/// The full invariant suite: every procedure here must verify.
#[must_use]
pub fn invariant_suite() -> Vec<Procedure> {
    PROCEDURES.iter().map(|p| p(false)).collect()
}

/// Seeded-bug variants: every procedure here must be *refuted* with a
/// counterexample (a prover that proves these is broken).
#[must_use]
pub fn seeded_bug_suite() -> Vec<Procedure> {
    PROCEDURES.iter().map(|p| p(true)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitc_verify::vcgen::{is_verified, verify_procedure, VcOutcome};

    #[test]
    fn all_correct_invariants_verify() {
        for proc in invariant_suite() {
            assert!(is_verified(&proc), "{} failed to verify", proc.name);
        }
    }

    #[test]
    fn all_seeded_bugs_are_refuted() {
        for proc in seeded_bug_suite() {
            let results = verify_procedure(&proc);
            let refuted = results
                .iter()
                .any(|(_, o)| matches!(o, VcOutcome::Refuted(_)));
            assert!(refuted, "{} should have been refuted", proc.name);
        }
    }

    #[test]
    fn mint_bug_counterexample_shows_amplification() {
        let results = verify_procedure(&mint_procedure(true));
        let (_, outcome) = &results[0];
        let VcOutcome::Refuted(model) = outcome else {
            panic!("expected refutation, got {outcome}");
        };
        // The counterexample must set src1 = 0 with req1 = 1: rights from
        // nowhere.
        assert!(model.contains("src1 = 0"), "model: {model}");
        assert!(model.contains("req1 = 1"), "model: {model}");
    }

    #[test]
    fn queue_bug_counterexample_is_the_wrap_case() {
        let results = verify_procedure(&queue_enqueue_procedure(true));
        let (_, outcome) = &results[0];
        assert!(matches!(outcome, VcOutcome::Refuted(_)), "got {outcome}");
    }

    #[test]
    fn suite_names_are_distinct() {
        let mut names: Vec<String> = invariant_suite().into_iter().map(|p| p.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 6);
    }
}
