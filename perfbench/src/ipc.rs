//! `ipc-rt`: request/reply round trips through the microkernel.
//!
//! Client/server pairs each hold a request endpoint (owned by the server,
//! SEND granted to the client) and a reply endpoint (owned by the client,
//! SEND granted to the server). One round trip: the server posts a
//! receive, the client sends, the server takes the request and, once the
//! client waits for the reply, echoes it; the client takes the reply. The
//! kernel runs on its default free-list heap.

use crate::alloc::allocs;
use crate::gen::Rng;
use crate::measure::{Clock, Step};
use crate::trace::{close, open, Trace, ROOT};
use microkernel::kernel::{Kernel, Message, SysResult, Syscall};
use microkernel::rights::Rights;
use microkernel::{CapSlot, Pid};

/// Client/server pairs the kernel hosts.
pub const PAIRS: usize = 2048;
/// Round trips per measurement window.
pub const WINDOW: u64 = 16_384;
/// Largest message, in words.
pub const MAX_WORDS: u64 = 64;

#[derive(Debug, Clone, Copy)]
struct Pair {
    client: Pid,
    server: Pid,
    /// Request endpoint: (server's RECV slot, client's SEND slot).
    req: (CapSlot, CapSlot),
    /// Reply endpoint: (client's RECV slot, server's SEND slot).
    rep: (CapSlot, CapSlot),
}

/// The kernel and its process pairs.
pub struct KernelPlane {
    /// The kernel.
    pub kernel: Kernel,
    pairs: Vec<Pair>,
}

impl KernelPlane {
    /// Builds the kernel, spawns every pair, and wires their endpoints.
    ///
    /// # Panics
    ///
    /// If the kernel refuses to create an endpoint or grant a capability
    /// (a kernel bug: these calls cannot fail on fresh processes).
    #[must_use]
    pub fn new() -> Self {
        let mut kernel = Kernel::with_default_heap();
        let pairs = (0..PAIRS)
            .map(|_| {
                let server = kernel.spawn_process();
                let client = kernel.spawn_process();
                let req_s = kernel.create_endpoint(server).expect("fresh server");
                let req_c = kernel
                    .grant_cap(server, req_s, client, Rights::SEND)
                    .expect("server holds the endpoint");
                let rep_c = kernel.create_endpoint(client).expect("fresh client");
                let rep_s = kernel
                    .grant_cap(client, rep_c, server, Rights::SEND)
                    .expect("client holds the endpoint");
                Pair {
                    client,
                    server,
                    req: (req_s, req_c),
                    rep: (rep_c, rep_s),
                }
            })
            .collect();
        KernelPlane { kernel, pairs }
    }
}

impl Default for KernelPlane {
    fn default() -> Self {
        Self::new()
    }
}

/// Seeded requests: a pair and a payload of 0–64 words (half short
/// control messages of up to 8 words, the rest spread up to 64).
pub struct IpcStream {
    rng: Rng,
    words: Vec<u64>,
    digest: u64,
}

impl IpcStream {
    /// The stream for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        IpcStream {
            rng: Rng::new(seed, 0x1C),
            words: Vec::with_capacity(MAX_WORDS as usize),
            digest: 0xCBF2_9CE4_8422_2325,
        }
    }

    /// The next request: which pair, and the message to send (its words
    /// are kept in [`IpcStream::expected`] for the echo check).
    fn next(&mut self) -> (usize, Message) {
        let pair = self.rng.below(PAIRS as u64) as usize;
        let n = if self.rng.below(2) == 0 {
            self.rng.below(9)
        } else {
            self.rng.below(MAX_WORDS + 1)
        };
        self.words.clear();
        for _ in 0..n {
            self.words.push(self.rng.next_u64());
        }
        self.digest = (self.digest ^ (pair as u64) << 8 ^ n).wrapping_mul(0x0100_0000_01B3);
        (pair, Message::words(&self.words))
    }

    /// The words of the last request.
    #[must_use]
    pub fn expected(&self) -> &[u64] {
        &self.words
    }

    /// Digest of every request so far.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// The closed round-trip loop over one kernel.
pub struct IpcRunner {
    /// Program state.
    pub plane: KernelPlane,
    /// Input stream.
    pub stream: IpcStream,
    clock: Clock,
    /// Round trips whose reply echoed the request.
    pub echoed: u64,
    /// Round trips made.
    pub rts: u64,
}

impl IpcRunner {
    /// Wraps built state and a stream.
    #[must_use]
    pub fn new(plane: KernelPlane, stream: IpcStream) -> Self {
        IpcRunner {
            plane,
            stream,
            clock: Clock::new(),
            echoed: 0,
            rts: 0,
        }
    }

    /// One round trip. With a trace, each syscall, each take, and the
    /// server's echo construction get their own span under one `rt` span.
    pub fn step(&mut self, mut tr: Option<&mut Trace>) -> Step {
        let root = open(&mut tr, "rt", ROOT);
        let g = open(&mut tr, "gen", root);
        let (pi, msg) = self.stream.next();
        close(&mut tr, g);
        let p = self.plane.pairs[pi];
        let k = &mut self.plane.kernel;

        let a0 = allocs();
        let t0 = self.clock.now();
        let s = open(&mut tr, "recv", root);
        let r1 = k.syscall(p.server, Syscall::Recv { cap: p.req.0 });
        close(&mut tr, s);
        let s = open(&mut tr, "send", root);
        let r2 = k.syscall(p.client, Syscall::Send { cap: p.req.1, msg });
        close(&mut tr, s);
        let s = open(&mut tr, "take", root);
        let req = k.take_delivered(p.server);
        close(&mut tr, s);
        let s = open(&mut tr, "recv", root);
        let r3 = k.syscall(p.client, Syscall::Recv { cap: p.rep.0 });
        close(&mut tr, s);
        let s = open(&mut tr, "echo", root);
        let echo = Message::words(req.as_ref().map_or(&[][..], |m| &m.payload));
        close(&mut tr, s);
        let s = open(&mut tr, "send", root);
        let r4 = k.syscall(
            p.server,
            Syscall::Send {
                cap: p.rep.1,
                msg: echo,
            },
        );
        close(&mut tr, s);
        let s = open(&mut tr, "take", root);
        let reply = k.take_delivered(p.client);
        close(&mut tr, s);
        let t1 = self.clock.now();
        let a1 = allocs();
        close(&mut tr, root);

        let ok = r1 == Ok(SysResult::Blocked)
            && r2 == Ok(SysResult::Delivered)
            && r3 == Ok(SysResult::Blocked)
            && r4 == Ok(SysResult::Delivered)
            && reply.is_some_and(|m| m.payload == self.stream.expected());
        self.rts += 1;
        self.echoed += u64::from(ok);
        drop(req);
        Step {
            ops: 1,
            good: u64::from(ok),
            failed: u64::from(!ok),
            busy_ns: t1 - t0,
            lat_ns: t1 - t0,
            allocs: a1 - a0,
        }
    }

    /// Kernel-model cycles charged so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.plane.kernel.cycles.total()
    }
}
