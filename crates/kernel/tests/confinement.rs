//! Confinement: the EROS-family security property, tested adversarially.
//!
//! Authority (the set of objects a process holds capabilities to) can only
//! flow along explicitly granted channels. Two processes with disjoint
//! authority must remain disjoint no matter what syscalls they issue; a
//! process may only gain authority through a capability transferred over an
//! endpoint it could already reach.

use microkernel::kernel::{Kernel, Message, SysResult, Syscall};
use microkernel::object::{Capability, ObjectKind};
use microkernel::rights::Rights;
use microkernel::{CapSlot, KernelError, Pid};
use proptest::prelude::*;

/// Adversarial syscall script entries (indices are taken modulo the
/// process's plausible slot range, so every script is well-formed enough to
/// execute but free to probe).
#[derive(Debug, Clone)]
enum AdversarialOp {
    Send { slot: u32, words: u8 },
    Recv { slot: u32 },
    Mint { slot: u32, rights: u8 },
    AllocPage { words: u8 },
    ReadPage { slot: u32, offset: u8 },
    WritePage { slot: u32, offset: u8, value: u64 },
    Probe { slot: u32 }, // destroy attempt on an arbitrary slot
}

fn arb_op() -> impl Strategy<Value = AdversarialOp> {
    prop_oneof![
        (0u32..8, any::<u8>()).prop_map(|(slot, words)| AdversarialOp::Send { slot, words }),
        (0u32..8).prop_map(|slot| AdversarialOp::Recv { slot }),
        (0u32..8, any::<u8>()).prop_map(|(slot, rights)| AdversarialOp::Mint { slot, rights }),
        (1u8..16).prop_map(|words| AdversarialOp::AllocPage { words }),
        (0u32..8, any::<u8>()).prop_map(|(slot, offset)| AdversarialOp::ReadPage { slot, offset }),
        (0u32..8, any::<u8>(), any::<u64>()).prop_map(|(slot, offset, value)| {
            AdversarialOp::WritePage {
                slot,
                offset,
                value,
            }
        }),
        (0u32..8).prop_map(|slot| AdversarialOp::Probe { slot }),
    ]
}

fn execute(k: &mut Kernel, pid: Pid, op: &AdversarialOp) {
    // Every call may legitimately fail; what matters is what authority
    // looks like afterwards. A blocked process is unblocked by nothing in
    // these scripts, so skip its calls.
    let result = match *op {
        AdversarialOp::Send { slot, words } => k.syscall(
            pid,
            Syscall::Send {
                cap: CapSlot(slot),
                msg: Message::words(&vec![7; usize::from(words % 8)]),
            },
        ),
        AdversarialOp::Recv { slot } => k.syscall(pid, Syscall::Recv { cap: CapSlot(slot) }),
        AdversarialOp::Mint { slot, rights } => k.syscall(
            pid,
            Syscall::Mint {
                src: CapSlot(slot),
                rights: Rights::from_bits(rights),
            },
        ),
        AdversarialOp::AllocPage { words } => k.syscall(
            pid,
            Syscall::AllocPage {
                words: usize::from(words),
            },
        ),
        AdversarialOp::ReadPage { slot, offset } => k.syscall(
            pid,
            Syscall::ReadPage {
                cap: CapSlot(slot),
                offset: usize::from(offset),
            },
        ),
        AdversarialOp::WritePage {
            slot,
            offset,
            value,
        } => k.syscall(
            pid,
            Syscall::WritePage {
                cap: CapSlot(slot),
                offset: usize::from(offset),
                value,
            },
        ),
        AdversarialOp::Probe { slot } => {
            k.syscall(pid, Syscall::DestroyEndpoint { cap: CapSlot(slot) })
        }
    };
    let _ = result;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two processes with disjoint initial authority stay disjoint under
    /// arbitrary syscall scripts: no sequence of kernel calls manufactures
    /// a capability to the other side's objects.
    #[test]
    fn disjoint_authority_stays_disjoint(
        script_a in proptest::collection::vec(arb_op(), 0..24),
        script_b in proptest::collection::vec(arb_op(), 0..24),
    ) {
        let mut k = Kernel::with_default_heap();
        let a = k.spawn_process();
        let b = k.spawn_process();
        // Each side gets its own private endpoint and page.
        let _ep_a = k.create_endpoint(a).unwrap();
        let _ep_b = k.create_endpoint(b).unwrap();
        k.syscall(a, Syscall::AllocPage { words: 4 }).unwrap();
        k.syscall(b, Syscall::AllocPage { words: 4 }).unwrap();
        let before_a = k.authority(a);
        let before_b = k.authority(b);
        prop_assert!(before_a.is_disjoint(&before_b));

        for (op_a, op_b) in script_a.iter().zip(script_b.iter().chain(std::iter::repeat(&AdversarialOp::AllocPage { words: 1 }))) {
            execute(&mut k, a, op_a);
            execute(&mut k, b, op_b);
        }
        for op in script_b.iter().skip(script_a.len()) {
            execute(&mut k, b, op);
        }

        let after_a = k.authority(a);
        let after_b = k.authority(b);
        prop_assert!(
            after_a.is_disjoint(&after_b),
            "confinement broken: shared objects {:?}",
            after_a.intersection(&after_b).collect::<Vec<_>>()
        );
        // Authority may grow only by self-created objects (pages/endpoints
        // the process allocated), never by acquiring pre-existing foreign
        // objects.
        prop_assert!(
            after_a.intersection(&before_b).next().is_none(),
            "process a acquired b's initial authority"
        );
        prop_assert!(
            after_b.intersection(&before_a).next().is_none(),
            "process b acquired a's initial authority"
        );
    }
}

#[test]
fn authority_flows_only_over_granted_channels() {
    let mut k = Kernel::with_default_heap();
    let server = k.spawn_process();
    let client = k.spawn_process();
    let ep = k.create_endpoint(server).unwrap();
    let SysResult::Slot(page) = k.syscall(server, Syscall::AllocPage { words: 2 }).unwrap() else {
        panic!("expected slot")
    };
    // Before any grant, the client has no authority at all.
    assert!(k.authority(client).is_empty());
    // Grant the endpoint; authority grows by exactly that object.
    let ep_c = k
        .grant_cap(server, ep, client, Rights::SEND | Rights::RECV)
        .unwrap();
    let ep_obj = k.inspect_cap(client, ep_c).unwrap().target;
    assert_eq!(k.authority(client).len(), 1);
    assert!(k.authority(client).contains(&ep_obj));
    // Transfer the page cap over the endpoint; authority grows by the page.
    let page_cap = k.inspect_cap(server, page).unwrap().mint(Rights::READ);
    k.syscall(client, Syscall::Recv { cap: ep_c }).unwrap();
    k.syscall(
        server,
        Syscall::Send {
            cap: ep,
            msg: Message {
                payload: vec![],
                cap: Some(page_cap),
                ctx: 0,
            },
        },
    )
    .unwrap();
    let _ = k.take_delivered(client);
    assert_eq!(k.authority(client).len(), 2);
    assert!(k.authority(client).contains(&page_cap.target));
}

#[test]
fn minted_authority_is_never_new_authority() {
    // Minting produces capabilities only to objects already in the c-space.
    let mut k = Kernel::with_default_heap();
    let p = k.spawn_process();
    let _ep = k.create_endpoint(p).unwrap();
    k.syscall(p, Syscall::AllocPage { words: 1 }).unwrap();
    let before = k.authority(p);
    for slot in 0..4u32 {
        let _ = k.syscall(
            p,
            Syscall::Mint {
                src: CapSlot(slot),
                rights: Rights::ALL,
            },
        );
    }
    assert_eq!(k.authority(p), before, "mint changed the authority set");
}

#[test]
fn forged_transfer_is_refused() {
    // A process may transfer only a capability it holds with GRANT. B can
    // reach A's endpoint (SEND only) but nothing of the victim's; a
    // capability B builds by hand to the victim's page must not get through.
    let mut k = Kernel::with_default_heap();
    let victim = k.spawn_process();
    let a = k.spawn_process();
    let b = k.spawn_process();
    let SysResult::Slot(page) = k.syscall(victim, Syscall::AllocPage { words: 1 }).unwrap() else {
        panic!("expected slot")
    };
    k.syscall(
        victim,
        Syscall::WritePage {
            cap: page,
            offset: 0,
            value: 0xdead,
        },
    )
    .unwrap();
    let ep_a = k.create_endpoint(a).unwrap();
    let ep_b = k.grant_cap(a, ep_a, b, Rights::SEND).unwrap();
    let target = k.inspect_cap(victim, page).unwrap().target;
    let forged = Capability::new(target, ObjectKind::Page, Rights::ALL);
    k.syscall(a, Syscall::Recv { cap: ep_a }).unwrap();
    let heap = k.heap_live_bytes();
    let carrying = |cap| Syscall::Send {
        cap: ep_b,
        msg: Message {
            payload: vec![1],
            cap: Some(cap),
            ctx: 0,
        },
    };

    let err = k.syscall(b, carrying(forged)).unwrap_err();
    assert_eq!(err, KernelError::InsufficientRights { required: "GRANT" });
    assert!(
        k.take_delivered(a).is_none(),
        "the forged message was delivered"
    );
    assert!(
        !k.authority(a).contains(&target),
        "a gained the victim's page"
    );
    assert!(k.is_ready(b), "the refused sender blocked");
    assert_eq!(k.heap_live_bytes(), heap, "the refused message was stored");

    // B cannot pass on its own SEND-only capability either: it lacks GRANT.
    let own = k.inspect_cap(b, ep_b).unwrap();
    let err = k.syscall(b, carrying(own)).unwrap_err();
    assert_eq!(err, KernelError::InsufficientRights { required: "GRANT" });

    // A's receive is still posted, and B's plain sends still arrive.
    k.syscall(
        b,
        Syscall::Send {
            cap: ep_b,
            msg: Message::words(&[2]),
        },
    )
    .unwrap();
    assert_eq!(k.take_delivered(a).unwrap().payload, vec![2]);
}
