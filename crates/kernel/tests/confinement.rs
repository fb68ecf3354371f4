//! Confinement: the EROS-family security property, tested adversarially.
//!
//! Authority (the set of objects a process holds capabilities to) can only
//! flow along explicitly granted channels. Two processes with disjoint
//! authority must remain disjoint no matter what syscalls they issue; a
//! process may only gain authority through a capability transferred over an
//! endpoint it could already reach.

use microkernel::kernel::{Kernel, Message, SysResult, Syscall};
use microkernel::rights::Rights;
use microkernel::{CapSlot, KernelError, Pid};
use proptest::prelude::*;
use sysmem::Handle;

/// Adversarial syscall script entries. Slots are drawn from the first
/// eight indices at generations 1 and 2, so a script names live slots often
/// enough to act, and stale or never-issued ones often enough to probe.
#[derive(Debug, Clone)]
enum AdversarialOp {
    Send {
        slot: CapSlot,
        words: u8,
        moved: Option<CapSlot>,
    },
    Recv {
        slot: CapSlot,
    },
    Mint {
        slot: CapSlot,
        rights: u8,
    },
    AllocPage {
        words: u8,
    },
    ReadPage {
        slot: CapSlot,
        offset: u8,
    },
    WritePage {
        slot: CapSlot,
        offset: u8,
        value: u64,
    },
    /// A destroy attempt on an arbitrary slot.
    Probe {
        slot: CapSlot,
    },
}

fn arb_slot() -> impl Strategy<Value = CapSlot> {
    (0u64..8, 1u64..=2).prop_map(|(index, generation)| CapSlot(Handle(index | generation << 32)))
}

fn arb_op() -> impl Strategy<Value = AdversarialOp> {
    prop_oneof![
        (arb_slot(), any::<u8>(), any::<bool>(), arb_slot()).prop_map(
            |(slot, words, carry, moved)| AdversarialOp::Send {
                slot,
                words,
                moved: carry.then_some(moved),
            }
        ),
        arb_slot().prop_map(|slot| AdversarialOp::Recv { slot }),
        (arb_slot(), any::<u8>()).prop_map(|(slot, rights)| AdversarialOp::Mint { slot, rights }),
        (1u8..16).prop_map(|words| AdversarialOp::AllocPage { words }),
        (arb_slot(), any::<u8>())
            .prop_map(|(slot, offset)| AdversarialOp::ReadPage { slot, offset }),
        (arb_slot(), any::<u8>(), any::<u64>()).prop_map(|(slot, offset, value)| {
            AdversarialOp::WritePage {
                slot,
                offset,
                value,
            }
        }),
        arb_slot().prop_map(|slot| AdversarialOp::Probe { slot }),
    ]
}

fn execute(k: &mut Kernel, pid: Pid, op: &AdversarialOp) {
    // Every call may legitimately fail; what matters is what authority
    // looks like afterwards. A blocked process is unblocked by nothing in
    // these scripts, so skip its calls.
    let result = match *op {
        AdversarialOp::Send { slot, words, moved } => k.syscall(
            pid,
            Syscall::Send {
                cap: slot,
                msg: Message {
                    cap: moved.map(|m| (m, Rights::ALL)),
                    ..Message::words(&vec![7; usize::from(words % 8)])
                },
            },
        ),
        AdversarialOp::Recv { slot } => k.syscall(pid, Syscall::Recv { cap: slot }),
        AdversarialOp::Mint { slot, rights } => k.syscall(
            pid,
            Syscall::Mint {
                src: slot,
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
                cap: slot,
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
                cap: slot,
                offset: usize::from(offset),
                value,
            },
        ),
        AdversarialOp::Probe { slot } => k.syscall(pid, Syscall::DestroyEndpoint { cap: slot }),
    };
    let _ = result;
}

/// The two scripts op by op, `a` first; `b` pads a shorter script with
/// one-word page allocations.
fn interleave<'s>(
    a: Pid,
    script_a: &'s [AdversarialOp],
    b: Pid,
    script_b: &'s [AdversarialOp],
) -> Vec<(Pid, &'s AdversarialOp)> {
    const PAD: &AdversarialOp = &AdversarialOp::AllocPage { words: 1 };
    let mut steps = Vec::new();
    for (i, op_a) in script_a.iter().enumerate() {
        steps.push((a, op_a));
        steps.push((b, script_b.get(i).unwrap_or(PAD)));
    }
    steps.extend(script_b.iter().skip(script_a.len()).map(|op| (b, op)));
    steps
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

        // Every kernel invariant, the no-orphan audit included, holds
        // after each op.
        for (pid, op) in interleave(a, &script_a, b, &script_b) {
            execute(&mut k, pid, op);
            let audit = k.check_invariants();
            prop_assert!(audit.is_ok(), "after {:?} by {}: {:?}", op, pid, audit);
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

    /// Two processes sharing an endpoint run arbitrary scripts, so
    /// capabilities rendezvous and land between them; the audit holds after
    /// every op, and once both exit nothing they made is left: the heap is
    /// back at its baseline, and the audit (no object without a live name)
    /// leaves the object table empty.
    #[test]
    fn exiting_releases_everything_a_script_made(
        script_a in proptest::collection::vec(arb_op(), 0..24),
        script_b in proptest::collection::vec(arb_op(), 0..24),
    ) {
        let mut k = Kernel::with_default_heap();
        let heap = k.heap_live_bytes();
        let a = k.spawn_process();
        let b = k.spawn_process();
        let ep = k.create_endpoint(a).unwrap();
        k.grant_cap(a, ep, b, Rights::SEND | Rights::RECV | Rights::GRANT)
            .unwrap();
        for pid in [a, b] {
            k.syscall(pid, Syscall::AllocPage { words: 4 }).unwrap();
            k.set_ipc_deadline(pid, Some(1)).unwrap();
        }
        for (pid, op) in interleave(a, &script_a, b, &script_b) {
            execute(&mut k, pid, op);
            let audit = k.check_invariants();
            prop_assert!(audit.is_ok(), "after {:?} by {}: {:?}", op, pid, audit);
        }
        // The watchdog frees whoever is still blocked; then both exit.
        while !(k.is_ready(a) && k.is_ready(b)) {
            k.schedule();
        }
        for pid in [a, b] {
            prop_assert_eq!(k.syscall(pid, Syscall::Exit), Ok(SysResult::Done));
        }
        prop_assert_eq!(k.check_invariants(), Ok(()));
        prop_assert_eq!(k.heap_live_bytes(), heap);
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
    let page_obj = k.inspect_cap(server, page).unwrap().target;
    k.syscall(client, Syscall::Recv { cap: ep_c }).unwrap();
    k.syscall(
        server,
        Syscall::Send {
            cap: ep,
            msg: Message {
                payload: vec![],
                cap: Some((page, Rights::READ)),
                ctx: 0,
            },
        },
    )
    .unwrap();
    let _ = k.take_delivered(client);
    assert_eq!(k.authority(client).len(), 2);
    assert!(k.authority(client).contains(&page_obj));
}

#[test]
fn minted_authority_is_never_new_authority() {
    // Minting produces capabilities only to objects already in the c-space.
    let mut k = Kernel::with_default_heap();
    let p = k.spawn_process();
    let _ep = k.create_endpoint(p).unwrap();
    k.syscall(p, Syscall::AllocPage { words: 1 }).unwrap();
    let before = k.authority(p);
    for slot in 0..4u64 {
        let _ = k.syscall(
            p,
            Syscall::Mint {
                src: CapSlot(Handle(slot | 1 << 32)),
                rights: Rights::ALL,
            },
        );
    }
    assert_eq!(k.authority(p), before, "mint changed the authority set");
}

#[test]
fn forged_transfer_is_refused() {
    // A process may transfer only a capability it holds with GRANT, and it
    // names it by a slot of its own c-space, so there is no capability value
    // to forge. B can reach A's endpoint (SEND only) but nothing of the
    // victim's; naming the victim's page slot must not get the page through.
    let mut k = Kernel::with_default_heap();
    let victim = k.spawn_process();
    let a = k.spawn_process();
    let b = k.spawn_process();
    k.syscall(victim, Syscall::AllocPage { words: 1 }).unwrap();
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
    k.syscall(a, Syscall::Recv { cap: ep_a }).unwrap();
    let heap = k.heap_live_bytes();
    let carrying = |slot| Syscall::Send {
        cap: ep_b,
        msg: Message {
            payload: vec![1],
            cap: Some((slot, Rights::ALL)),
            ctx: 0,
        },
    };

    let err = k.syscall(b, carrying(page)).unwrap_err();
    assert_eq!(err, KernelError::InvalidCapSlot(page));
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
    let err = k.syscall(b, carrying(ep_b)).unwrap_err();
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
