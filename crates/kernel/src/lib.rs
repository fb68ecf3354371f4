//! # microkernel — an EROS/Coyotos-flavoured capability kernel simulator
//!
//! Shapiro's day job — and the workload that motivates the whole paper — is
//! high-performance capability microkernels (EROS, Coyotos). This crate
//! simulates that world so the reproduction can measure the claims *in
//! situ*:
//!
//! * [`rights`] / [`object`] — capabilities with a rights lattice over kernel
//!   objects (endpoints and pages, in one generation-tagged [`sysmem::Slots`]),
//! * [`kernel`] — the kernel proper: per-process capability spaces (each a
//!   bounded [`sysmem::Slots`], so a [`CapSlot`] is generation-checked too),
//!   synchronous rendezvous IPC that moves capabilities by slot, one create
//!   path and one teardown path for every object, a round-robin scheduler,
//!   and a syscall interface; message buffers are allocated through any
//!   [`sysmem::Manager`], which is how experiment E6 injects different heap
//!   policies into the IPC fast path,
//! * [`cycles`] — a transparent cost model (the paper's "transparency":
//!   the programmer can predict machine-level cost) charging every syscall,
//!   capability lookup, and copied word,
//! * [`invariants`] — kernel invariants (no rights amplification, c-space
//!   bounds, queue sanity) expressed as `bitc-verify` contracts and
//!   discharged by the prover (experiment E5), including seeded-bug variants
//!   the prover must refute.
//!
//! ```
//! use microkernel::kernel::{Kernel, Message, Syscall, SysResult};
//! use microkernel::rights::Rights;
//!
//! let mut k = Kernel::with_default_heap();
//! let server = k.spawn_process();
//! let client = k.spawn_process();
//! let ep = k.create_endpoint(server).unwrap();
//! let ep_client = k.grant_cap(server, ep, client, Rights::SEND).unwrap();
//!
//! // Server waits; client sends; rendezvous delivers.
//! assert_eq!(k.syscall(server, Syscall::Recv { cap: ep }).unwrap(), SysResult::Blocked);
//! k.syscall(client, Syscall::Send { cap: ep_client, msg: Message::words(&[42]) }).unwrap();
//! let msg = k.take_delivered(server).unwrap();
//! assert_eq!(msg.payload, vec![42]);
//! ```

pub mod cycles;
pub mod invariants;
pub mod kernel;
pub mod object;
pub mod rights;

use std::fmt;
use sysmem::Handle;

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// A capability's place in its holder's c-space: the c-space table's
/// `slot | generation << 32` handle. Emptying a slot bumps its generation,
/// so an old `CapSlot` fails as [`KernelError::InvalidCapSlot`] even once
/// the slot holds a new capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CapSlot(pub Handle);

impl fmt::Display for CapSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot{}.{}", self.0.slot(), self.0.generation())
    }
}

/// Kernel errors. Every failed syscall names its reason; nothing faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The pid does not name a live process.
    NoSuchProcess(Pid),
    /// The slot is empty, was never issued, or was emptied since.
    InvalidCapSlot(CapSlot),
    /// The capability lacks a required right.
    InsufficientRights {
        /// Right that was required.
        required: &'static str,
    },
    /// The capability's target object was destroyed.
    DanglingCapability,
    /// Operation is invalid for the object kind.
    WrongObjectKind {
        /// What the operation expected.
        expected: &'static str,
    },
    /// Page offset out of range.
    PageFault {
        /// Offending offset.
        offset: usize,
    },
    /// Kernel heap exhausted.
    OutOfMemory,
    /// The process is blocked and cannot issue syscalls.
    ProcessBlocked(Pid),
    /// The process has exited.
    ProcessDead(Pid),
    /// The c-space has no room for one more capability: refused before a
    /// create or grant allocates, or before a transfer's rendezvous moves
    /// anything.
    CapSpaceFull,
    /// A blocked IPC exceeded its deadline and was reaped by the watchdog,
    /// or a retried operation exhausted its retry budget.
    TimedOut(Pid),
    /// Kernel heap bookkeeping failed mid-operation (a stored message's
    /// backing object vanished). Always a kernel bug, never user error —
    /// but reported, not panicked.
    HeapCorruption,
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::NoSuchProcess(p) => write!(f, "no such process {p}"),
            KernelError::InvalidCapSlot(s) => write!(f, "invalid capability {s}"),
            KernelError::InsufficientRights { required } => {
                write!(f, "capability lacks {required} right")
            }
            KernelError::DanglingCapability => write!(f, "capability target was destroyed"),
            KernelError::WrongObjectKind { expected } => {
                write!(f, "operation requires a {expected} capability")
            }
            KernelError::PageFault { offset } => write!(f, "page fault at offset {offset}"),
            KernelError::OutOfMemory => write!(f, "kernel heap exhausted"),
            KernelError::ProcessBlocked(p) => write!(f, "process {p} is blocked"),
            KernelError::ProcessDead(p) => write!(f, "process {p} has exited"),
            KernelError::CapSpaceFull => write!(f, "capability space is full"),
            KernelError::TimedOut(p) => write!(f, "process {p} timed out"),
            KernelError::HeapCorruption => write!(f, "kernel heap bookkeeping corrupted"),
        }
    }
}

impl std::error::Error for KernelError {}

/// Kernel result alias.
pub type Result<T> = std::result::Result<T, KernelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_compactly() {
        assert_eq!(Pid(3).to_string(), "pid3");
        assert_eq!(CapSlot(Handle(7 | 2 << 32)).to_string(), "slot7.2");
    }

    #[test]
    fn errors_name_their_cause() {
        let e = KernelError::InsufficientRights { required: "WRITE" };
        assert_eq!(e.to_string(), "capability lacks WRITE right");
    }
}
