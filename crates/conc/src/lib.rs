//! # sysconc — managing shared state
//!
//! Substrate for the paper's Challenge 4: "managing shared state". The paper
//! (and the course material that carried it) argues that lock-based code does
//! not compose: a correctly locked `debit` and a correctly locked `credit` do
//! not make a correct `transfer`, because the intermediate state is exposed.
//! This crate builds every concurrency model that argument compares:
//!
//! * [`spinlock`] — a test-and-test-and-set spinlock built from atomics
//!   (the primitive a kernel would use),
//! * [`stm`] — a TL2-style software transactional memory with composable
//!   `atomically` blocks, optimistic versioned reads, and commit-time
//!   validation (the Harris et al. model),
//! * [`channel`] — blocking MPMC channels with bounded backpressure, built
//!   from a mutex and condvars,
//! * [`actor`] — a small message-passing actor runtime over those channels,
//! * [`bank`] — the classic bank-account composition workload, implemented
//!   five ways (coarse lock, fine-grained locks, *broken* two-phase locking,
//!   STM, actors) so experiment E7 can measure what composition costs.
//!
//! ```
//! use sysconc::stm::{TVar, atomically};
//!
//! let a = TVar::new(100i64);
//! let b = TVar::new(0i64);
//! atomically(|tx| {
//!     let va = tx.read(&a)?;
//!     tx.write(&a, va - 40)?;
//!     let vb = tx.read(&b)?;
//!     tx.write(&b, vb + 40)?;
//!     Ok(())
//! });
//! assert_eq!(atomically(|tx| tx.read(&a)), 60);
//! assert_eq!(atomically(|tx| tx.read(&b)), 40);
//! ```

pub mod actor;
pub mod bank;
pub mod channel;
pub mod spinlock;
pub mod stm;

#[cfg(test)]
mod tests {
    #[test]
    fn crate_compiles_and_links() {
        // Smoke test: module tree is wired.
        let v = crate::stm::TVar::new(1u32);
        assert_eq!(crate::stm::atomically(|tx| tx.read(&v)), 1);
    }
}
