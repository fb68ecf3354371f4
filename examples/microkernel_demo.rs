//! Capability microkernel demo: boot, spawn, grant, IPC echo, revoke.
//!
//! ```sh
//! cargo run --release --example microkernel_demo
//! ```
//!
//! A miniature of the EROS/Coyotos world the paper's author builds: a
//! client may only reach the server through a SEND-only endpoint
//! capability; the server hands back a read-only page; destroying the
//! endpoint revokes the communication path. Every denied operation is a
//! typed error, not a crash.

use microkernel::kernel::{Kernel, Message, SysResult, Syscall};
use microkernel::rights::Rights;

fn main() {
    let mut kernel = Kernel::with_default_heap();
    println!("kernel booted with '{}' heap", kernel.heap_name());

    // Boot story: a root task spawns a server and a client.
    let server = kernel.spawn_process();
    let client = kernel.spawn_process();
    let ep = kernel.create_endpoint(server).expect("endpoint");
    // The client receives a *diminished* capability: SEND only.
    let client_ep = kernel
        .grant_cap(server, ep, client, Rights::SEND)
        .expect("grant");
    println!("spawned {server} (server, ALL rights) and {client} (client, SEND only)");

    // Echo transaction.
    kernel
        .syscall(server, Syscall::Recv { cap: ep })
        .expect("server waits");
    kernel
        .syscall(
            client,
            Syscall::Send {
                cap: client_ep,
                msg: Message::words(&[104, 105]),
            },
        )
        .expect("client sends");
    let request = kernel.take_delivered(server).expect("delivered");
    println!("server received payload {:?}", request.payload);

    // The client cannot receive on its SEND-only capability.
    let denied = kernel
        .syscall(client, Syscall::Recv { cap: client_ep })
        .unwrap_err();
    println!("client Recv on SEND-only cap => denied: {denied}");

    // Server shares memory: allocates a page, writes, sends a READ-only cap.
    let SysResult::Slot(page) = kernel
        .syscall(server, Syscall::AllocPage { words: 4 })
        .unwrap()
    else {
        unreachable!("AllocPage returns a slot")
    };
    kernel
        .syscall(
            server,
            Syscall::WritePage {
                cap: page,
                offset: 0,
                value: 0xFEED,
            },
        )
        .unwrap();
    let reply_ep = kernel.create_endpoint(server).expect("reply endpoint");
    let client_reply = kernel
        .grant_cap(server, reply_ep, client, Rights::RECV)
        .expect("grant");
    kernel
        .syscall(client, Syscall::Recv { cap: client_reply })
        .unwrap();
    // Mint a READ-only page cap and transfer it in the reply message.
    let SysResult::Slot(ro_page) = kernel
        .syscall(
            server,
            Syscall::Mint {
                src: page,
                rights: Rights::READ,
            },
        )
        .unwrap()
    else {
        unreachable!("Mint returns a slot")
    };
    let ro_capability = kernel.inspect_cap(server, ro_page).expect("minted cap");
    kernel
        .syscall(
            server,
            Syscall::Send {
                cap: reply_ep,
                msg: Message {
                    payload: vec![1],
                    cap: Some(ro_capability),
                    ctx: 0,
                },
            },
        )
        .expect("reply");
    let reply = kernel.take_delivered(client).expect("reply delivered");
    assert!(reply.cap.is_some(), "page capability transferred");
    // The client can read the shared page through the transferred cap...
    let transferred = (0..8)
        .map(microkernel::CapSlot)
        .find(|&s| {
            kernel
                .inspect_cap(client, s)
                .is_ok_and(|c| c.kind == microkernel::object::ObjectKind::Page)
        })
        .expect("the transferred page capability landed in the client's c-space");
    let SysResult::Value(v) = kernel
        .syscall(
            client,
            Syscall::ReadPage {
                cap: transferred,
                offset: 0,
            },
        )
        .unwrap()
    else {
        unreachable!("ReadPage returns a value")
    };
    println!("client read shared page word 0 = {v:#x} through a READ-only cap");
    // ...but cannot write through it.
    let denied = kernel
        .syscall(
            client,
            Syscall::WritePage {
                cap: transferred,
                offset: 0,
                value: 0,
            },
        )
        .unwrap_err();
    println!("client WritePage through READ-only cap => denied: {denied}");

    // Revocation: destroying the endpoint cuts the client off.
    kernel
        .syscall(server, Syscall::DestroyEndpoint { cap: ep })
        .expect("destroy");
    let dangling = kernel
        .syscall(
            client,
            Syscall::Send {
                cap: client_ep,
                msg: Message::empty(),
            },
        )
        .unwrap_err();
    println!("after revocation, client Send => {dangling}");

    println!(
        "done: {} cycles total, {} bytes live in the kernel heap",
        kernel.cycles.total(),
        kernel.heap_live_bytes()
    );
}
