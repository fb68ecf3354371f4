//! `perfbench` — the repository's benchmark: four seeded workloads driven
//! from one thread through the stack's public entry points, with a traced
//! run that breaks the end-to-end cost down layer by layer. See `NOTES.md`
//! beside this crate for why each workload exists and what each metric
//! should move.

pub mod alloc;
pub mod dp;
pub mod fwd;
pub mod gen;
pub mod ipc;
pub mod lbgen;
pub mod measure;
pub mod run;
pub mod trace;
