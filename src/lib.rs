//! # plos06 — reproduction of Shapiro, *Programming Language Challenges in
//! Systems Codes* (PLOS 2006)
//!
//! The paper is a position paper: four fallacies the PL community holds
//! about systems code, four challenges a C replacement must solve, and the
//! BitC language as the proposed existence proof. This workspace builds the
//! whole system the argument needs and measures every claim:
//!
//! | Crate | Role |
//! |---|---|
//! | [`bitc_core`] | The BitC-style language: HM types + mutation + a VM with *both* unboxed and boxed value representations |
//! | [`bitc_verify`] | The prover: DPLL(T) over linear integer arithmetic, WP-based contract checking |
//! | [`sysmem`] | Six memory managers (region → generational GC) behind one object model |
//! | [`sysconc`] | Locks, TL2 STM, channels, actors, and the bank-composition workload |
//! | [`sysrepr`] | Bit-precise layout, zero-copy packet views, LangSec combinators |
//! | [`microkernel`] | An EROS-flavoured capability kernel whose heap policy is injectable |
//!
//! The [`experiments`] module regenerates every table in EXPERIMENTS.md
//! (`cargo run --release --example experiments -- all`); Criterion versions
//! live in `crates/bench`.

pub use bitc_core;
pub use bitc_verify;
pub use microkernel;
pub use sysconc;
pub use sysmem;
pub use sysrepr;

pub mod alloc;
pub mod experiments;
