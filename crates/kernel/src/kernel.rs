//! The kernel proper: capability spaces, synchronous IPC, scheduling, and
//! the syscall interface.
//!
//! The design follows EROS/Coyotos in miniature: all authority flows through
//! capabilities; IPC is synchronous rendezvous through endpoints; message
//! payloads are copied through kernel heap objects. The kernel heap is any
//! [`sysmem::Manager`], injected at construction — experiment E6 swaps heap
//! policies (region, freelist, mark-sweep, generational) under the identical
//! IPC fast path and watches what happens to the tail latency.

use crate::cycles::{self, CycleCounter};
use crate::object::{Capability, ObjId, ObjectKind};
use crate::rights::Rights;
use crate::{CapSlot, KernelError, Pid, Result};
use std::collections::{HashSet, VecDeque};
use sysfault::SharedInjector;
use sysmem::freelist::FreeListHeap;
use sysmem::{Handle, Manager, Slots};

/// Maximum live capabilities per process.
pub const CSPACE_CAPACITY: usize = 1024;

/// Fault site: an IPC send silently loses its message after the rights check
/// (the sender sees success; the receiver waits forever — until the
/// watchdog).
pub const SITE_IPC_DROP: &str = "kernel.ipc.drop";

/// Fault site: a kernel-heap allocation reports exhaustion regardless of the
/// heap's real state, driving the graceful-degradation path.
pub const SITE_KERNEL_OOM: &str = "kernel.oom";

/// An IPC message: payload words plus an optional capability transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Payload words.
    pub payload: Vec<u64>,
    /// A capability moved alongside the payload, named by its slot in the
    /// holder's c-space. On `Send` it is one of the sender's slots, which
    /// must hold GRANT, and the rights to pass: the receiver gets a copy
    /// diminished to them, the rule [`Syscall::Mint`] applies. On delivery
    /// it is the receiver's landing slot and the rights that landed.
    pub cap: Option<(CapSlot, Rights)>,
    /// Causal trace context ([`sysobs::context`] carrier form; 0 = none).
    /// Stamped from the sender's thread-local context on `Send` when unset,
    /// carried through the kernel heap with the payload, and recorded on
    /// delivery — one sampled round trip links its send and recv spans.
    pub ctx: u64,
}

impl Message {
    /// A plain data message.
    #[must_use]
    pub fn words(payload: &[u64]) -> Self {
        Message {
            payload: payload.to_vec(),
            cap: None,
            ctx: 0,
        }
    }

    /// An empty message.
    #[must_use]
    pub fn empty() -> Self {
        Message {
            payload: Vec::new(),
            cap: None,
            ctx: 0,
        }
    }
}

/// Result of a successful syscall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SysResult {
    /// Operation completed with nothing to return.
    Done,
    /// Operation completed; message was delivered to [`Kernel::take_delivered`].
    Delivered,
    /// The caller is now blocked waiting for a partner.
    Blocked,
    /// A new capability slot.
    Slot(CapSlot),
    /// A data word (page reads).
    Value(u64),
    /// The caller's blocked IPC exceeded its deadline and was reaped by the
    /// watchdog (reported by [`Kernel::poll_ipc`]).
    TimedOut,
}

/// System calls.
#[derive(Debug, Clone)]
pub enum Syscall {
    /// Send `msg` through an endpoint capability (requires SEND).
    Send {
        /// Endpoint capability slot.
        cap: CapSlot,
        /// The message.
        msg: Message,
    },
    /// Receive from an endpoint capability (requires RECV).
    Recv {
        /// Endpoint capability slot.
        cap: CapSlot,
    },
    /// Mint a diminished copy of a capability (requires GRANT).
    Mint {
        /// Source slot.
        src: CapSlot,
        /// Requested rights (intersected with the source's).
        rights: Rights,
    },
    /// Allocate a page of `words` words (returns an ALL-rights page cap).
    AllocPage {
        /// Page size in words.
        words: usize,
    },
    /// Write a word to a page (requires WRITE).
    WritePage {
        /// Page capability slot.
        cap: CapSlot,
        /// Word offset.
        offset: usize,
        /// Value to store.
        value: u64,
    },
    /// Read a word from a page (requires READ).
    ReadPage {
        /// Page capability slot.
        cap: CapSlot,
        /// Word offset.
        offset: usize,
    },
    /// Destroy an endpoint (requires CONTROL). Waiters are woken empty, the
    /// invoked slot is emptied, and every other copy of the capability goes
    /// stale.
    DestroyEndpoint {
        /// Endpoint capability slot.
        cap: CapSlot,
    },
    /// Yield the CPU.
    Yield,
    /// Exit the calling process.
    Exit,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    Ready,
    BlockedSend(ObjId),
    BlockedRecv(ObjId),
    Dead,
}

#[derive(Debug)]
struct Process {
    state: ProcState,
    cspace: Slots<Capability>,
    delivered: VecDeque<Message>,
    /// IPC deadline in cycles: a blocked send/recv older than this is reaped
    /// by the watchdog. `None` means wait forever (the pre-fault-framework
    /// behaviour, still the default).
    deadline: Option<u64>,
    /// Cycle timestamp at which the process last blocked.
    blocked_at: u64,
    /// Set by the watchdog when it reaps this process's blocked IPC; cleared
    /// and reported by [`Kernel::poll_ipc`].
    timed_out: bool,
    /// Essential processes are never chosen by [`Kernel::shed_for_memory`].
    essential: bool,
    /// The pid is in the run queue: set on push, cleared when
    /// [`Kernel::schedule`] drops it, so a wake never queues it twice.
    queued: bool,
}

#[derive(Debug)]
struct StoredMessage {
    handle: Handle,
    len: usize,
    /// The copy in flight: the kernel holds it until it lands.
    cap: Option<Capability>,
    sender: Pid,
    /// The in-flight message's causal context (see [`Message::ctx`]).
    ctx: u64,
}

#[derive(Debug, Default)]
struct Endpoint {
    senders: VecDeque<StoredMessage>,
    receivers: VecDeque<Pid>,
}

/// A kernel object: what an [`ObjId`] names while its slot's generation
/// matches.
#[derive(Debug)]
enum Object {
    Endpoint(Endpoint),
    Page { handle: Handle, owner: Pid },
}

impl Object {
    fn kind(&self) -> ObjectKind {
        match self {
            Object::Endpoint(_) => ObjectKind::Endpoint,
            Object::Page { .. } => ObjectKind::Page,
        }
    }
}

/// Counters for the kernel's recovery machinery, read by experiment E9.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Blocked IPCs reaped by the watchdog after their deadline passed.
    pub watchdog_reaps: u64,
    /// Processes killed by graceful OOM degradation.
    pub shed_processes: u64,
    /// Messages lost to injected IPC drops.
    pub dropped_messages: u64,
    /// Allocation failures surfaced to syscalls (injected or real).
    pub oom_failures: u64,
}

/// One round trip's outcome under [`Kernel::ping_pong_resilient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpcOutcome {
    /// Total cycles charged, including failed attempts and backoff.
    pub cycles: u64,
    /// Attempts that failed before the round trip succeeded.
    pub retries: u32,
}

/// The kernel.
pub struct Kernel {
    mem: Box<dyn Manager>,
    objects: Slots<Object>,
    processes: Vec<Process>,
    run_queue: VecDeque<Pid>,
    injector: Option<SharedInjector>,
    fault_stats: FaultStats,
    /// Transparent cycle accounting.
    pub cycles: CycleCounter,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("heap", &self.mem.name())
            .field("processes", &self.processes.len())
            .field("objects", &self.objects.iter().count())
            .field("cycles", &self.cycles.total())
            .finish()
    }
}

impl Kernel {
    /// Creates a kernel over the given heap manager.
    #[must_use]
    pub fn new(mem: Box<dyn Manager>) -> Self {
        Kernel {
            mem,
            objects: Slots::default(),
            processes: Vec::new(),
            run_queue: VecDeque::new(),
            injector: None,
            fault_stats: FaultStats::default(),
            cycles: CycleCounter::new(),
        }
    }

    /// Attaches a fault injector; kernel sites ([`SITE_IPC_DROP`],
    /// [`SITE_KERNEL_OOM`]) consult it. Without one the kernel runs
    /// fault-free with zero overhead on the fast path.
    pub fn set_injector(&mut self, injector: SharedInjector) {
        self.injector = Some(injector);
    }

    /// Recovery-machinery counters.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Runtime mirror of the six proved invariant pairs in
    /// [`crate::invariants`]: where the prover discharges each transition in
    /// isolation, this walks the *live* kernel state and checks that every
    /// transition composed so far preserved the same properties. Model
    /// checking calls it after every interleaved operation (see
    /// `tests/ipc_interleavings.rs`), so a schedule that drives
    /// `deliver_to`/`wake`/`cancel_ipc` into a corrupt state names the
    /// violated invariant instead of failing far downstream. It also audits
    /// the object lifecycle, which has no proved counterpart: every live
    /// object is named by a live capability, a blocked process or a queued
    /// message, and every page's owner is live.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant, named after its proved
    /// counterpart (`mint`, `cspace-lookup`, `queue-enqueue`, `sched-block`,
    /// `ipc-copy`, `watchdog-reap`) or `no-orphan`, with the offending
    /// pid/object.
    #[allow(clippy::missing_panics_doc)] // u32 conversions cannot fail below
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        let mut in_queue = vec![0usize; self.processes.len()];
        for pid in &self.run_queue {
            match in_queue.get_mut(pid.0 as usize) {
                Some(n) => *n += 1,
                None => return Err(format!("sched-block: unknown {pid} in the run queue")),
            }
        }
        for (i, proc) in self.processes.iter().enumerate() {
            let pid = Pid(u32::try_from(i).expect("pids fit u32"));
            // sched-block: the run queue holds a pid at most once, and
            // exactly when its `queued` flag says so.
            if in_queue[i] > 1 {
                return Err(format!(
                    "sched-block: {pid} queued {} times in the run queue",
                    in_queue[i]
                ));
            }
            if proc.queued != (in_queue[i] == 1) {
                return Err(format!(
                    "sched-block: {pid} queued flag {} disagrees with the run queue",
                    proc.queued
                ));
            }
            // cspace-lookup: every slot stays inside the table bounds.
            if proc.cspace.len() > CSPACE_CAPACITY {
                return Err(format!("cspace-lookup: {pid} c-space exceeds capacity"));
            }
            for (_, cap) in proc.cspace.iter() {
                // mint: a minted or transferred capability can never change
                // what kind of object it names (amplification across kinds).
                // A stale capability names nothing and is checked by nothing.
                if let Some(obj) = self.objects.get(cap.target.0) {
                    if obj.kind() != cap.kind {
                        return Err(format!(
                            "mint: {pid} capability kind disagrees with {}",
                            cap.target
                        ));
                    }
                }
            }
            // sched-block: a ready process must be schedulable (stale
            // blocked/dead queue entries are fine — schedule() drops them).
            if proc.state == ProcState::Ready && !proc.queued {
                return Err(format!("sched-block: {pid} ready but not in the run queue"));
            }
            // watchdog-reap: reaping always wakes — a timed-out process must
            // never still sit blocked on an endpoint.
            if proc.timed_out
                && matches!(
                    proc.state,
                    ProcState::BlockedSend(_) | ProcState::BlockedRecv(_)
                )
            {
                return Err(format!("watchdog-reap: {pid} timed out yet still blocked"));
            }
            // ipc-copy: a blocked process waits in exactly one queue — the
            // one its state names.
            let (ep, sending) = match proc.state {
                ProcState::BlockedSend(ep) => (ep, true),
                ProcState::BlockedRecv(ep) => (ep, false),
                ProcState::Ready | ProcState::Dead => continue,
            };
            let (mut here, mut elsewhere) = (0usize, 0usize);
            for (j, e) in self.live_endpoints() {
                let n = if sending {
                    e.senders.iter().filter(|s| s.sender == pid).count()
                } else {
                    e.receivers.iter().filter(|&&p| p == pid).count()
                };
                if j == ep {
                    here = n;
                } else {
                    elsewhere += n;
                }
            }
            if here != 1 || elsewhere != 0 {
                let verb = if sending { "sending" } else { "receiving" };
                return Err(format!(
                    "ipc-copy: {pid} blocked {verb} on endpoint {ep} but queued {here} times \
                     there, {elsewhere} elsewhere"
                ));
            }
        }
        // queue-enqueue: endpoint queues only ever hold live, matching
        // waiters (a destroyed endpoint's queues went with its slot).
        for (j, ep) in self.live_endpoints() {
            let senders = ep
                .senders
                .iter()
                .map(|s| (s.sender, ProcState::BlockedSend(j)));
            let receivers = ep.receivers.iter().map(|&p| (p, ProcState::BlockedRecv(j)));
            for (p, want) in senders.chain(receivers) {
                let state = self.processes.get(p.0 as usize).map(|pr| pr.state);
                if state != Some(want) {
                    return Err(format!(
                        "queue-enqueue: endpoint {j} queues {p}, which is not {want:?} ({state:?})"
                    ));
                }
            }
        }
        let named = self.named();
        for (h, obj) in self.objects.iter() {
            let id = ObjId(h);
            if !named.contains(&id) {
                return Err(format!("no-orphan: nothing live names {id}"));
            }
            if let Object::Page { owner, .. } = *obj {
                if !self
                    .process(owner)
                    .is_ok_and(|p| p.state != ProcState::Dead)
                {
                    return Err(format!("no-orphan: {id} outlives its owner {owner}"));
                }
            }
        }
        Ok(())
    }

    /// Every object something live still names: a capability in a live
    /// process's c-space, the endpoint a blocked process waits on, or the
    /// capability a queued message carries. [`Kernel::reap`] releases the
    /// endpoints outside this set.
    fn named(&self) -> HashSet<ObjId> {
        let mut named = HashSet::new();
        for proc in self.processes.iter().filter(|p| p.state != ProcState::Dead) {
            named.extend(proc.cspace.iter().map(|(_, cap)| cap.target));
            if let ProcState::BlockedSend(ep) | ProcState::BlockedRecv(ep) = proc.state {
                named.insert(ep);
            }
        }
        for (_, ep) in self.live_endpoints() {
            named.extend(ep.senders.iter().filter_map(|s| s.cap.map(|c| c.target)));
        }
        named
    }

    /// The endpoint `id` names, which the caller's capability keeps named.
    fn endpoint(&mut self, id: ObjId) -> &mut Endpoint {
        match self.objects.get_mut(id.0) {
            Some(Object::Endpoint(ep)) => ep,
            _ => unreachable!("a named endpoint is never released"),
        }
    }

    /// Every live endpoint with its id.
    fn live_endpoints(&self) -> impl Iterator<Item = (ObjId, &Endpoint)> {
        self.objects.iter().filter_map(|(h, obj)| match obj {
            Object::Endpoint(ep) => Some((ObjId(h), ep)),
            Object::Page { .. } => None,
        })
    }

    fn inject(&mut self, site: &str) -> bool {
        self.injector.as_ref().is_some_and(|i| i.should_fail(site))
    }

    /// Creates a kernel over a 1 MiB free-list heap (the C-like default).
    #[must_use]
    pub fn with_default_heap() -> Self {
        Kernel::new(Box::new(FreeListHeap::new(1 << 20)))
    }

    /// Name of the heap policy in use.
    #[must_use]
    pub fn heap_name(&self) -> &'static str {
        self.mem.name()
    }

    /// Spawns a new process with an empty capability space.
    pub fn spawn_process(&mut self) -> Pid {
        self.cycles.charge(cycles::OBJECT_ALLOC);
        let pid = Pid(u32::try_from(self.processes.len()).expect("pids fit u32"));
        self.processes.push(Process {
            state: ProcState::Ready,
            cspace: Slots::default(),
            delivered: VecDeque::new(),
            deadline: None,
            blocked_at: 0,
            timed_out: false,
            essential: false,
            queued: true,
        });
        self.run_queue.push_back(pid);
        pid
    }

    /// Sets the cycle deadline after which `pid`'s blocked IPCs are reaped by
    /// the watchdog sweep in [`Kernel::schedule`]. `None` waits forever.
    ///
    /// # Errors
    ///
    /// Fails if `pid` is unknown.
    pub fn set_ipc_deadline(&mut self, pid: Pid, deadline: Option<u64>) -> Result<()> {
        self.process_mut(pid)?.deadline = deadline;
        Ok(())
    }

    /// Marks `pid` essential: graceful OOM degradation will never shed it.
    ///
    /// # Errors
    ///
    /// Fails if `pid` is unknown.
    pub fn set_essential(&mut self, pid: Pid, essential: bool) -> Result<()> {
        self.process_mut(pid)?.essential = essential;
        Ok(())
    }

    fn process(&self, pid: Pid) -> Result<&Process> {
        self.processes
            .get(pid.0 as usize)
            .ok_or(KernelError::NoSuchProcess(pid))
    }

    fn process_mut(&mut self, pid: Pid) -> Result<&mut Process> {
        self.processes
            .get_mut(pid.0 as usize)
            .ok_or(KernelError::NoSuchProcess(pid))
    }

    /// Refuses to go on unless `pid` is live with room for one more
    /// capability. Everything that installs one asks first, so a refusal
    /// leaves nothing behind.
    fn ensure_room(&self, pid: Pid) -> Result<()> {
        match self.process(pid)? {
            p if p.state == ProcState::Dead => Err(KernelError::ProcessDead(pid)),
            p if p.cspace.len() >= CSPACE_CAPACITY => Err(KernelError::CapSpaceFull),
            _ => Ok(()),
        }
    }

    fn install_cap(&mut self, pid: Pid, cap: Capability) -> Result<CapSlot> {
        self.ensure_room(pid)?;
        Ok(CapSlot(self.process_mut(pid)?.cspace.insert(cap)))
    }

    fn lookup_cap(&mut self, pid: Pid, slot: CapSlot) -> Result<Capability> {
        self.cycles.charge(cycles::CAP_LOOKUP);
        self.process(pid)?
            .cspace
            .get(slot.0)
            .copied()
            .ok_or(KernelError::InvalidCapSlot(slot))
    }

    /// The object `pid`'s capability in `slot` names, checked for `kind` and
    /// `right`: one generation-checked lookup (a vacant or reissued slot
    /// dangles), the variant, then the right.
    fn require(
        &mut self,
        pid: Pid,
        slot: CapSlot,
        kind: ObjectKind,
        right: Rights,
        name: &'static str,
    ) -> Result<(ObjId, &mut Object)> {
        let cap = self.lookup_cap(pid, slot)?;
        self.cycles.charge(cycles::RIGHTS_CHECK);
        let obj = self
            .objects
            .get_mut(cap.target.0)
            .ok_or(KernelError::DanglingCapability)?;
        if obj.kind() != kind {
            return Err(KernelError::WrongObjectKind {
                expected: kind.name(),
            });
        }
        if !cap.rights.contains(right) {
            return Err(KernelError::InsufficientRights { required: name });
        }
        Ok((cap.target, obj))
    }

    /// Creates an endpoint owned by `owner`, returning an ALL-rights cap.
    ///
    /// # Errors
    ///
    /// Fails if the owner is unknown or its c-space is full.
    pub fn create_endpoint(&mut self, owner: Pid) -> Result<CapSlot> {
        self.create_object(owner, ObjectKind::Endpoint, 0)
    }

    /// The one create path, under [`Kernel::create_endpoint`] and
    /// `AllocPage`: makes sure `owner`'s c-space has room before it allocates
    /// anything, then stores the object (a page of `words` words draws on
    /// the kernel heap) and installs an ALL-rights capability to it.
    fn create_object(&mut self, owner: Pid, kind: ObjectKind, words: usize) -> Result<CapSlot> {
        self.cycles.charge(cycles::OBJECT_ALLOC);
        self.ensure_room(owner)?;
        let obj = match kind {
            ObjectKind::Endpoint => Object::Endpoint(Endpoint::default()),
            ObjectKind::Page => {
                let handle = self.kernel_alloc(owner, words.max(1))?;
                self.mem.add_root(handle);
                Object::Page { handle, owner }
            }
        };
        let id = ObjId(self.objects.insert(obj));
        self.install_cap(owner, Capability::new(id, kind, Rights::ALL))
    }

    /// Root-task operation: mints a diminished copy of `from`'s capability
    /// into `to`'s c-space (requires GRANT on the source capability). The
    /// `Mint` syscall is this with `to == from`.
    ///
    /// # Errors
    ///
    /// Fails on bad slots, missing GRANT, or a full destination c-space.
    pub fn grant_cap(
        &mut self,
        from: Pid,
        slot: CapSlot,
        to: Pid,
        rights: Rights,
    ) -> Result<CapSlot> {
        let minted = self.mint_from(from, slot, rights)?;
        self.install_cap(to, minted)
    }

    /// The one transfer rule, under `Mint`, [`Kernel::grant_cap`] and a
    /// capability-carrying `Send`: `pid` must hold GRANT in `slot`, and the
    /// copy is diminished to `rights`. One lookup, one rights check.
    fn mint_from(&mut self, pid: Pid, slot: CapSlot, rights: Rights) -> Result<Capability> {
        let cap = self.lookup_cap(pid, slot)?;
        self.cycles.charge(cycles::RIGHTS_CHECK);
        if !cap.rights.contains(Rights::GRANT) {
            return Err(KernelError::InsufficientRights { required: "GRANT" });
        }
        Ok(cap.mint(rights))
    }

    /// Reads the capability in one of `pid`'s slots (inspection only; the
    /// capability stays where it is).
    ///
    /// # Errors
    ///
    /// Fails on unknown pids or empty slots.
    pub fn inspect_cap(&mut self, pid: Pid, slot: CapSlot) -> Result<Capability> {
        self.lookup_cap(pid, slot)
    }

    /// The set of object ids `pid` currently holds capabilities to — its
    /// *authority*. Confinement reasoning in the EROS tradition: authority
    /// can only grow through a capability explicitly transferred over an
    /// endpoint both parties can reach; two processes with disjoint
    /// authority can never affect each other, and the tests prove it by
    /// running adversarial syscall sequences.
    #[must_use]
    pub fn authority(&self, pid: Pid) -> std::collections::BTreeSet<crate::object::ObjId> {
        self.processes
            .get(pid.0 as usize)
            .map(|p| p.cspace.iter().map(|(_, c)| c.target).collect())
            .unwrap_or_default()
    }

    /// Pops the next delivered message for `pid`.
    pub fn take_delivered(&mut self, pid: Pid) -> Option<Message> {
        self.processes
            .get_mut(pid.0 as usize)?
            .delivered
            .pop_front()
    }

    /// True if the process is ready to run.
    #[must_use]
    pub fn is_ready(&self, pid: Pid) -> bool {
        self.processes
            .get(pid.0 as usize)
            .is_some_and(|p| p.state == ProcState::Ready)
    }

    /// The scheduler: returns the next ready process, rotating the queue.
    ///
    /// Every scheduling decision first runs the watchdog sweep, reaping any
    /// blocked IPC whose deadline has passed — so a lost message costs its
    /// sender a timeout, never the system a hang.
    pub fn schedule(&mut self) -> Option<Pid> {
        sysobs::obs_span!("kernel.schedule");
        self.cycles.charge(cycles::SCHEDULE);
        self.watchdog_sweep();
        for _ in 0..self.run_queue.len() {
            let pid = self.run_queue.pop_front()?;
            // Checked lookup: a reaped or bogus pid silently drops off the
            // queue instead of indexing out of bounds.
            if self.is_ready(pid) {
                self.run_queue.push_back(pid);
                return Some(pid);
            }
            // Blocked/dead processes drop off; they re-enter on wake.
            if let Ok(proc) = self.process_mut(pid) {
                proc.queued = false;
            }
        }
        None
    }

    /// Makes `pid` ready, queueing it unless it is already queued.
    fn wake(&mut self, pid: Pid) {
        let Ok(proc) = self.process_mut(pid) else {
            return;
        };
        if proc.state != ProcState::Dead {
            proc.state = ProcState::Ready;
            if !std::mem::replace(&mut proc.queued, true) {
                self.run_queue.push_back(pid);
            }
        }
    }

    /// Reaps every blocked IPC whose deadline has passed: the message (if
    /// any) is torn down, the process is woken with its `timed_out` flag
    /// set, and the event is counted. Called from [`Kernel::schedule`].
    fn watchdog_sweep(&mut self) {
        let now = self.cycles.total();
        let overdue: Vec<Pid> = self
            .processes
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                let blocked = matches!(
                    p.state,
                    ProcState::BlockedSend(_) | ProcState::BlockedRecv(_)
                );
                let expired = p
                    .deadline
                    .is_some_and(|d| now.saturating_sub(p.blocked_at) > d);
                (blocked && expired).then(|| Pid(u32::try_from(i).expect("pids fit u32")))
            })
            .collect();
        for pid in overdue {
            self.cycles.charge(cycles::WATCHDOG_REAP);
            self.cancel_ipc(pid);
            self.fault_stats.watchdog_reaps += 1;
            sysobs::obs_count!("kernel.watchdog_reaps", 1);
            sysobs::obs_instant!("kernel.watchdog.reap", u64::from(pid.0));
        }
    }

    /// Cancels `pid`'s blocked IPC (if any): removes it from endpoint
    /// queues, frees its stored message, and wakes it with `timed_out` set.
    fn cancel_ipc(&mut self, pid: Pid) {
        let Ok(state) = self.process(pid).map(|p| p.state) else {
            return;
        };
        match state {
            ProcState::BlockedSend(ep) => {
                let Some(Object::Endpoint(e)) = self.objects.get_mut(ep.0) else {
                    return;
                };
                if let Some(at) = e.senders.iter().position(|s| s.sender == pid) {
                    let stored = e.senders.remove(at).expect("position is in range");
                    self.release_heap(stored.handle);
                }
            }
            ProcState::BlockedRecv(ep) => {
                if let Some(Object::Endpoint(e)) = self.objects.get_mut(ep.0) {
                    e.receivers.retain(|&p| p != pid);
                }
            }
            ProcState::Ready | ProcState::Dead => return,
        }
        if let Ok(proc) = self.process_mut(pid) {
            proc.timed_out = true;
        }
        self.wake(pid);
    }

    /// Reports the fate of `pid`'s last blocking IPC without blocking:
    /// [`SysResult::TimedOut`] if the watchdog reaped it (one-shot; the flag
    /// clears), [`SysResult::Blocked`] while still waiting,
    /// [`SysResult::Delivered`] when a message is waiting in the inbox, and
    /// [`SysResult::Done`] otherwise.
    ///
    /// # Errors
    ///
    /// Fails if `pid` is unknown.
    pub fn poll_ipc(&mut self, pid: Pid) -> Result<SysResult> {
        let proc = self.process_mut(pid)?;
        if proc.timed_out {
            proc.timed_out = false;
            return Ok(SysResult::TimedOut);
        }
        Ok(match proc.state {
            ProcState::BlockedSend(_) | ProcState::BlockedRecv(_) => SysResult::Blocked,
            _ if !proc.delivered.is_empty() => SysResult::Delivered,
            _ => SysResult::Done,
        })
    }

    /// Graceful OOM degradation: reaps the newest non-essential process
    /// (never `protect`) and returns its pid. Returns `None` when nothing
    /// can be shed — at which point the allocation failure is surfaced as a
    /// typed error.
    fn shed_for_memory(&mut self, protect: Pid) -> Option<Pid> {
        let victim = self
            .processes
            .iter()
            .enumerate()
            .rev()
            .map(|(i, p)| (Pid(u32::try_from(i).expect("pids fit u32")), p))
            .find(|&(pid, p)| pid != protect && !p.essential && p.state != ProcState::Dead)
            .map(|(pid, _)| pid)?;
        self.reap(victim);
        self.fault_stats.shed_processes += 1;
        sysobs::obs_count!("kernel.shed_processes", 1);
        sysobs::obs_instant!("kernel.oom.shed", u64::from(victim.0));
        Some(victim)
    }

    /// The one teardown path, under `Exit` and OOM shedding: cancels
    /// `pid`'s IPC, empties its c-space and delivered queue, releases the
    /// pages it owns, and releases every endpoint nothing live names any
    /// more.
    fn reap(&mut self, pid: Pid) {
        self.cancel_ipc(pid);
        let Ok(proc) = self.process_mut(pid) else {
            return;
        };
        proc.state = ProcState::Dead;
        proc.cspace = Slots::default();
        proc.delivered.clear();
        // An endpoint nothing names has no waiters and no queued messages.
        let named = self.named();
        let mut pages = Vec::new();
        self.objects.retain(|h, obj| match *obj {
            Object::Page { handle, owner } if owner == pid => {
                pages.push(handle);
                false
            }
            Object::Page { .. } => true,
            Object::Endpoint(_) => named.contains(&ObjId(h)),
        });
        for handle in pages {
            self.release_heap(handle);
        }
    }

    /// Kernel-heap allocation with fault injection and graceful OOM
    /// degradation: on failure (injected via [`SITE_KERNEL_OOM`] or real),
    /// sheds non-essential processes and retries before giving up.
    fn kernel_alloc(&mut self, caller: Pid, nwords: usize) -> Result<Handle> {
        let injected = self.inject(SITE_KERNEL_OOM);
        if !injected {
            if let Ok(h) = self.mem.try_alloc(0, nwords) {
                return Ok(h);
            }
        }
        while self.shed_for_memory(caller).is_some() {
            if let Ok(h) = self.mem.try_alloc(0, nwords) {
                return Ok(h);
            }
        }
        self.fault_stats.oom_failures += 1;
        sysobs::obs_count!("kernel.oom_failures", 1);
        Err(KernelError::OutOfMemory)
    }

    fn store_message(&mut self, sender: Pid, msg: Message) -> Result<StoredMessage> {
        let len = msg.payload.len();
        let handle = self.kernel_alloc(sender, len.max(1))?;
        for (i, w) in msg.payload.iter().enumerate() {
            self.mem
                .set_word(handle, i, *w)
                .map_err(|_| KernelError::OutOfMemory)?;
        }
        self.mem.add_root(handle);
        self.cycles.charge(cycles::COPY_WORD * len as u64);
        Ok(StoredMessage {
            handle,
            len,
            cap: None,
            sender,
            ctx: msg.ctx,
        })
    }

    /// Releases a rooted kernel-heap object (a page, or a stored message).
    fn release_heap(&mut self, handle: Handle) {
        self.mem.remove_root(handle);
        // Manual managers want an explicit free; collected heaps refuse it,
        // which is fine — the root release above made it garbage.
        let _ = self.mem.free(handle);
    }

    fn load_message(&mut self, stored: &StoredMessage) -> Result<Message> {
        let mut payload = Vec::with_capacity(stored.len);
        for i in 0..stored.len {
            payload.push(
                self.mem
                    .get_word(stored.handle, i)
                    .map_err(|_| KernelError::HeapCorruption)?,
            );
        }
        self.cycles.charge(cycles::COPY_WORD * stored.len as u64);
        self.release_heap(stored.handle);
        Ok(Message {
            payload,
            cap: None,
            ctx: stored.ctx,
        })
    }

    /// Completes a rendezvous. The caller has made sure a carried
    /// capability has room to land.
    fn deliver_to(&mut self, receiver: Pid, stored: StoredMessage) -> Result<()> {
        let mut msg = self.load_message(&stored)?;
        // The recv half of the causal link: a traced message's delivery
        // records under the same trace id its send did.
        sysobs::obs_span_hot!("kernel.ipc.recv", ctx = msg.ctx);
        if let Some(cap) = stored.cap {
            msg.cap = Some((self.install_cap(receiver, cap)?, cap.rights));
        }
        self.process_mut(receiver)?.delivered.push_back(msg);
        self.cycles.charge(cycles::CONTEXT_SWITCH);
        Ok(())
    }

    fn block(&mut self, pid: Pid, state: ProcState) {
        let now = self.cycles.total();
        let Ok(proc) = self.process_mut(pid) else {
            return;
        };
        proc.state = state;
        proc.blocked_at = now;
    }

    /// Executes one syscall on behalf of `pid`.
    ///
    /// # Errors
    ///
    /// Every failure mode is a typed [`KernelError`]; the kernel never
    /// panics on user input (the "segfaults should never happen" rule).
    pub fn syscall(&mut self, pid: Pid, call: Syscall) -> Result<SysResult> {
        // Hot path: a syscall completes in well under a microsecond, so the
        // span is a single marker event (one ring write, one clock read)
        // rather than a begin/end pair.
        sysobs::obs_span_hot!("kernel.syscall");
        self.cycles.charge(cycles::SYSCALL);
        {
            let proc = self.process(pid)?;
            match proc.state {
                ProcState::Dead => return Err(KernelError::ProcessDead(pid)),
                ProcState::BlockedSend(_) | ProcState::BlockedRecv(_) => {
                    return Err(KernelError::ProcessBlocked(pid))
                }
                ProcState::Ready => {}
            }
        }
        match call {
            Syscall::Send { cap, mut msg } => {
                let (ep_id, _) =
                    self.require(pid, cap, ObjectKind::Endpoint, Rights::SEND, "SEND")?;
                // The transfer rule of `Message::cap`: a slot the sender
                // does not hold with GRANT stops here.
                let moved = msg
                    .cap
                    .map(|(slot, rights)| self.mint_from(pid, slot, rights))
                    .transpose()?;
                // Stamp the sender's live causal context onto the message
                // (unless the caller already attached one) and record the
                // send half of the IPC link.
                if msg.ctx == 0 {
                    msg.ctx = sysobs::context::current_packed();
                }
                sysobs::obs_span_hot!("kernel.ipc.send", ctx = msg.ctx);
                let mut stored = self.store_message(pid, msg)?;
                stored.cap = moved;
                if self.inject(SITE_IPC_DROP) {
                    // The message is lost in transit: the sender sees
                    // success, the receiver keeps waiting. Only deadlines
                    // and retry recover from this — which is the point.
                    self.release_heap(stored.handle);
                    self.fault_stats.dropped_messages += 1;
                    sysobs::obs_count!("kernel.dropped_messages", 1);
                    return Ok(SysResult::Delivered);
                }
                // Shedding under `store_message` may have changed who
                // waits, so the landing check comes after it.
                let waiting = self.endpoint(ep_id).receivers.front().copied();
                if let (Some(receiver), Some(_)) = (waiting, stored.cap) {
                    if let Err(full) = self.ensure_room(receiver) {
                        // The capability cannot land, so nothing moves.
                        self.release_heap(stored.handle);
                        return Err(full);
                    }
                }
                let ep = self.endpoint(ep_id);
                if let Some(receiver) = ep.receivers.pop_front() {
                    self.deliver_to(receiver, stored)?;
                    self.wake(receiver);
                    Ok(SysResult::Delivered)
                } else {
                    ep.senders.push_back(stored);
                    self.block(pid, ProcState::BlockedSend(ep_id));
                    Ok(SysResult::Blocked)
                }
            }
            Syscall::Recv { cap } => {
                let room = self.ensure_room(pid);
                let (ep_id, Object::Endpoint(ep)) =
                    self.require(pid, cap, ObjectKind::Endpoint, Rights::RECV, "RECV")?
                else {
                    unreachable!("require checked the kind")
                };
                if let Err(full) = room {
                    if ep.senders.front().is_some_and(|s| s.cap.is_some()) {
                        // The queued capability cannot land, so nothing moves.
                        return Err(full);
                    }
                }
                if let Some(stored) = ep.senders.pop_front() {
                    let sender = stored.sender;
                    self.deliver_to(pid, stored)?;
                    self.wake(sender);
                    Ok(SysResult::Delivered)
                } else {
                    ep.receivers.push_back(pid);
                    self.block(pid, ProcState::BlockedRecv(ep_id));
                    Ok(SysResult::Blocked)
                }
            }
            Syscall::Mint { src, rights } => {
                Ok(SysResult::Slot(self.grant_cap(pid, src, pid, rights)?))
            }
            Syscall::AllocPage { words } => {
                let page = self.create_object(pid, ObjectKind::Page, words)?;
                Ok(SysResult::Slot(page))
            }
            Syscall::WritePage { cap, offset, value } => {
                let (_, &mut Object::Page { handle, .. }) =
                    self.require(pid, cap, ObjectKind::Page, Rights::WRITE, "WRITE")?
                else {
                    unreachable!("require checked the kind")
                };
                self.mem
                    .set_word(handle, offset, value)
                    .map_err(|_| KernelError::PageFault { offset })?;
                Ok(SysResult::Done)
            }
            Syscall::ReadPage { cap, offset } => {
                let (_, &mut Object::Page { handle, .. }) =
                    self.require(pid, cap, ObjectKind::Page, Rights::READ, "READ")?
                else {
                    unreachable!("require checked the kind")
                };
                let v = self
                    .mem
                    .get_word(handle, offset)
                    .map_err(|_| KernelError::PageFault { offset })?;
                Ok(SysResult::Value(v))
            }
            Syscall::DestroyEndpoint { cap } => {
                let (ep_id, _) =
                    self.require(pid, cap, ObjectKind::Endpoint, Rights::CONTROL, "CONTROL")?;
                // Revocation: releasing the object bumps its generation.
                self.process_mut(pid)?.cspace.release(cap.0);
                if let Some(Object::Endpoint(ep)) = self.objects.release(ep_id.0) {
                    for stored in ep.senders {
                        // Undelivered messages die with the endpoint; their
                        // heap objects must not leak.
                        self.release_heap(stored.handle);
                        self.wake(stored.sender);
                    }
                    for p in ep.receivers {
                        self.wake(p);
                    }
                }
                Ok(SysResult::Done)
            }
            Syscall::Yield => {
                self.cycles.charge(cycles::SCHEDULE);
                Ok(SysResult::Done)
            }
            Syscall::Exit => {
                self.reap(pid);
                Ok(SysResult::Done)
            }
        }
    }

    /// One complete IPC round trip: client sends `words` payload words to a
    /// waiting server; server replies on a second endpoint. Returns the
    /// cycles charged for the round trip. Used by experiment E6.
    ///
    /// # Errors
    ///
    /// Propagates any syscall failure.
    pub fn ping_pong(
        &mut self,
        client: Pid,
        server: Pid,
        request_ep: (CapSlot, CapSlot),
        reply_ep: (CapSlot, CapSlot),
        words: usize,
    ) -> Result<u64> {
        // Root a sampled causal trace for this round trip: when the draw
        // wins, the request's send and recv markers (and the reply's) all
        // record under one trace id.
        let _root = sysobs::obs_trace_root!("kernel.ipc.ping_pong");
        sysobs::obs_span_hot!("kernel.ipc.ping_pong");
        let snapshot = self.cycles;
        let payload = vec![0xAB; words];
        if self.round_trip(client, server, request_ep, reply_ep, &payload)? {
            Ok(self.cycles.since(snapshot))
        } else {
            Err(KernelError::DanglingCapability)
        }
    }

    /// One attempt at an IPC round trip: the server posts a receive, the
    /// client sends (rendezvous), then the client waits for the reply and
    /// the server echoes the request. `Ok(false)` when either message was
    /// lost in transit.
    fn round_trip(
        &mut self,
        client: Pid,
        server: Pid,
        request_ep: (CapSlot, CapSlot),
        reply_ep: (CapSlot, CapSlot),
        payload: &[u64],
    ) -> Result<bool> {
        self.syscall(server, Syscall::Recv { cap: request_ep.0 })?;
        self.syscall(
            client,
            Syscall::Send {
                cap: request_ep.1,
                msg: Message::words(payload),
            },
        )?;
        let Some(req) = self.take_delivered(server) else {
            return Ok(false);
        };
        self.syscall(client, Syscall::Recv { cap: reply_ep.1 })?;
        self.syscall(
            server,
            Syscall::Send {
                cap: reply_ep.0,
                msg: Message::words(&req.payload),
            },
        )?;
        Ok(self.take_delivered(client).is_some())
    }

    /// Drives the clock (via scheduler sweeps) until `pid` is no longer
    /// blocked — normally because the watchdog reaped its overdue IPC. Falls
    /// back to a direct cancel if the process has no deadline set.
    fn ride_out_timeout(&mut self, pid: Pid) {
        let deadline = self.process(pid).ok().and_then(|p| p.deadline).unwrap_or(0);
        // Each schedule() charges SCHEDULE cycles, so this many sweeps is
        // guaranteed to push `now - blocked_at` past the deadline.
        let sweeps = deadline / cycles::SCHEDULE + 2;
        for _ in 0..sweeps {
            if self.is_ready(pid) {
                return;
            }
            let _ = self.schedule();
        }
        if !self.is_ready(pid) {
            self.cycles.charge(cycles::WATCHDOG_REAP);
            self.cancel_ipc(pid);
        }
    }

    /// A fault-tolerant IPC round trip: like [`Kernel::ping_pong`], but with
    /// per-attempt deadlines, watchdog-driven recovery of lost messages, and
    /// bounded retry with exponential backoff. Returns the cycles charged
    /// (failed attempts and backoff included) and the retry count.
    ///
    /// This is the recovery path experiment E9 measures: under injected
    /// message drops and allocation failures, round trips still complete —
    /// they just cost more cycles.
    ///
    /// # Errors
    ///
    /// [`KernelError::TimedOut`] after `max_retries` failed attempts;
    /// propagates non-recoverable syscall failures (bad caps, dead
    /// processes) immediately.
    #[allow(clippy::too_many_arguments)]
    pub fn ping_pong_resilient(
        &mut self,
        client: Pid,
        server: Pid,
        request_ep: (CapSlot, CapSlot),
        reply_ep: (CapSlot, CapSlot),
        words: usize,
        deadline: u64,
        max_retries: u32,
    ) -> Result<IpcOutcome> {
        let snapshot = self.cycles;
        self.set_ipc_deadline(client, Some(deadline))?;
        self.set_ipc_deadline(server, Some(deadline))?;
        let payload = vec![0xAB; words];
        // An error is recoverable when retrying can plausibly change the
        // outcome: transient exhaustion, or a partner stuck from a prior
        // lost message. Anything else (bad caps, dead processes) aborts.
        fn recoverable(e: &KernelError) -> bool {
            matches!(
                e,
                KernelError::OutOfMemory
                    | KernelError::TimedOut(_)
                    | KernelError::ProcessBlocked(_)
            )
        }
        let mut retries = 0u32;
        while retries <= max_retries {
            if retries > 0 {
                self.cycles
                    .charge(cycles::BACKOFF_BASE << (retries - 1).min(16));
            }
            // Recover any party left blocked by a failed attempt, and drop
            // stale half-round-trip messages so a late reply from attempt
            // N-1 cannot satisfy attempt N.
            for pid in [client, server] {
                if !self.is_ready(pid) {
                    self.ride_out_timeout(pid);
                }
                let proc = self.process_mut(pid)?;
                proc.timed_out = false;
                proc.delivered.clear();
            }
            match self.round_trip(client, server, request_ep, reply_ep, &payload) {
                Ok(true) => {
                    return Ok(IpcOutcome {
                        cycles: self.cycles.since(snapshot),
                        retries,
                    })
                }
                Ok(false) => retries += 1,
                Err(ref e) if recoverable(e) => retries += 1,
                Err(e) => return Err(e),
            }
        }
        Err(KernelError::TimedOut(client))
    }

    /// Forces a heap collection (no-op for manual managers); exposed so the
    /// E6 driver can include collection pauses in its measurements.
    pub fn collect_heap(&mut self) {
        self.mem.collect();
    }

    /// Live bytes in the kernel heap.
    #[must_use]
    pub fn heap_live_bytes(&self) -> usize {
        self.mem.live_bytes()
    }

    /// Worst collection pause observed in the kernel heap, in nanoseconds.
    #[must_use]
    pub fn heap_max_pause_ns(&self) -> u64 {
        self.mem.stats().gc_pauses.max()
    }

    /// Number of collections the kernel heap has run.
    #[must_use]
    pub fn heap_collections(&self) -> u64 {
        self.mem.stats().collections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysmem::generational::GenerationalHeap;
    use sysmem::marksweep::MarkSweepHeap;

    fn setup() -> (Kernel, Pid, Pid, CapSlot, CapSlot) {
        let mut k = Kernel::with_default_heap();
        let server = k.spawn_process();
        let client = k.spawn_process();
        let ep_server = k.create_endpoint(server).unwrap();
        let ep_client = k
            .grant_cap(server, ep_server, client, Rights::SEND)
            .unwrap();
        (k, server, client, ep_server, ep_client)
    }

    #[test]
    fn rendezvous_delivers_payload() {
        let (mut k, server, client, ep_server, ep_client) = setup();
        assert_eq!(
            k.syscall(server, Syscall::Recv { cap: ep_server }).unwrap(),
            SysResult::Blocked
        );
        assert!(!k.is_ready(server));
        let r = k
            .syscall(
                client,
                Syscall::Send {
                    cap: ep_client,
                    msg: Message::words(&[1, 2, 3]),
                },
            )
            .unwrap();
        assert_eq!(r, SysResult::Delivered);
        assert!(k.is_ready(server), "receiver woken by rendezvous");
        assert_eq!(k.take_delivered(server).unwrap().payload, vec![1, 2, 3]);
    }

    #[test]
    fn sender_blocks_until_receiver_arrives() {
        let (mut k, server, client, ep_server, ep_client) = setup();
        let r = k
            .syscall(
                client,
                Syscall::Send {
                    cap: ep_client,
                    msg: Message::words(&[9]),
                },
            )
            .unwrap();
        assert_eq!(r, SysResult::Blocked);
        assert!(!k.is_ready(client));
        k.syscall(server, Syscall::Recv { cap: ep_server }).unwrap();
        assert!(k.is_ready(client), "sender woken after delivery");
        assert_eq!(k.take_delivered(server).unwrap().payload, vec![9]);
    }

    #[test]
    fn send_right_is_required() {
        let (mut k, server, client, ep_server, _) = setup();
        // Client got SEND only; server granting RECV-only produces a cap
        // that cannot send.
        let recv_only = k
            .grant_cap(server, ep_server, client, Rights::RECV)
            .unwrap();
        let err = k
            .syscall(
                client,
                Syscall::Send {
                    cap: recv_only,
                    msg: Message::empty(),
                },
            )
            .unwrap_err();
        assert_eq!(err, KernelError::InsufficientRights { required: "SEND" });
    }

    #[test]
    fn grant_requires_grant_right() {
        let (mut k, server, client, _ep_server, ep_client) = setup();
        // Client's cap was minted with SEND only; it cannot re-grant.
        let third = k.spawn_process();
        let err = k
            .grant_cap(client, ep_client, third, Rights::SEND)
            .unwrap_err();
        assert_eq!(err, KernelError::InsufficientRights { required: "GRANT" });
        let _ = server;
    }

    #[test]
    fn mint_never_amplifies() {
        let (mut k, server, _, ep_server, _) = setup();
        // Server holds ALL; minting SEND|RECV gives exactly that.
        let r = k.syscall(
            server,
            Syscall::Mint {
                src: ep_server,
                rights: Rights::SEND | Rights::RECV,
            },
        );
        let SysResult::Slot(slot) = r.unwrap() else {
            panic!("expected slot")
        };
        let cap = k.lookup_cap(server, slot).unwrap();
        assert_eq!(cap.rights, Rights::SEND | Rights::RECV);
    }

    #[test]
    fn capability_transfer_moves_authority() {
        let (mut k, server, client, ep_server, ep_client) = setup();
        // Server allocates a page and sends a READ-only cap to the client.
        let SysResult::Slot(page) = k.syscall(server, Syscall::AllocPage { words: 8 }).unwrap()
        else {
            panic!("expected slot")
        };
        k.syscall(
            server,
            Syscall::WritePage {
                cap: page,
                offset: 3,
                value: 77,
            },
        )
        .unwrap();
        k.syscall(client, Syscall::Recv { cap: ep_client }).err();
        // Client needs RECV; grant it.
        let ep_client_rv = k
            .grant_cap(server, ep_server, client, Rights::RECV)
            .unwrap();
        k.syscall(client, Syscall::Recv { cap: ep_client_rv })
            .unwrap();
        k.syscall(
            server,
            Syscall::Send {
                cap: ep_server,
                msg: Message {
                    payload: vec![],
                    cap: Some((page, Rights::READ)),
                    ctx: 0,
                },
            },
        )
        .unwrap();
        // The delivered message names the landing slot in the client's
        // c-space and the rights that landed.
        let msg = k.take_delivered(client).unwrap();
        let (transferred, rights) = msg.cap.expect("a capability landed");
        assert_eq!(rights, Rights::READ);
        assert_eq!(
            k.lookup_cap(client, transferred).unwrap().kind,
            ObjectKind::Page
        );
        let SysResult::Value(v) = k
            .syscall(
                client,
                Syscall::ReadPage {
                    cap: transferred,
                    offset: 3,
                },
            )
            .unwrap()
        else {
            panic!("expected value")
        };
        assert_eq!(v, 77);
        // But writing through the READ-only cap fails.
        let err = k
            .syscall(
                client,
                Syscall::WritePage {
                    cap: transferred,
                    offset: 0,
                    value: 1,
                },
            )
            .unwrap_err();
        assert_eq!(err, KernelError::InsufficientRights { required: "WRITE" });
    }

    #[test]
    fn page_bounds_fault_cleanly() {
        let mut k = Kernel::with_default_heap();
        let p = k.spawn_process();
        let SysResult::Slot(page) = k.syscall(p, Syscall::AllocPage { words: 4 }).unwrap() else {
            panic!("expected slot")
        };
        let err = k
            .syscall(
                p,
                Syscall::ReadPage {
                    cap: page,
                    offset: 10,
                },
            )
            .unwrap_err();
        assert_eq!(err, KernelError::PageFault { offset: 10 });
    }

    #[test]
    fn destroyed_endpoint_dangles() {
        let (mut k, server, client, ep_server, ep_client) = setup();
        k.syscall(server, Syscall::DestroyEndpoint { cap: ep_server })
            .unwrap();
        let err = k
            .syscall(
                client,
                Syscall::Send {
                    cap: ep_client,
                    msg: Message::empty(),
                },
            )
            .unwrap_err();
        assert_eq!(err, KernelError::DanglingCapability);
    }

    #[test]
    fn a_capability_whose_slot_was_reused_dangles() {
        let (mut k, server, client, ep_server, ep_client) = setup();
        let stale = k.inspect_cap(client, ep_client).unwrap().target;
        k.syscall(server, Syscall::DestroyEndpoint { cap: ep_server })
            .unwrap();
        assert_eq!(
            k.inspect_cap(server, ep_server).unwrap_err(),
            KernelError::InvalidCapSlot(ep_server),
            "destroy empties the slot it was invoked through"
        );
        let fresh = k.create_endpoint(server).unwrap();
        let reused = k.inspect_cap(server, fresh).unwrap().target;
        assert_eq!(reused.0.slot(), stale.0.slot());
        assert_ne!(reused, stale, "the reused slot is a new generation");
        assert_eq!(
            fresh.0.slot(),
            ep_server.0.slot(),
            "the c-space slot is reissued"
        );
        assert_eq!(
            k.inspect_cap(server, ep_server).unwrap_err(),
            KernelError::InvalidCapSlot(ep_server),
            "the old handle to a reissued c-space slot fails typed"
        );
        k.syscall(server, Syscall::Recv { cap: fresh }).unwrap();
        let err = k
            .syscall(
                client,
                Syscall::Send {
                    cap: ep_client,
                    msg: Message::words(&[1]),
                },
            )
            .unwrap_err();
        assert_eq!(err, KernelError::DanglingCapability);
        assert!(
            k.take_delivered(server).is_none(),
            "nothing reached the new endpoint"
        );
        k.check_invariants().unwrap();
    }

    #[test]
    fn endpoint_churn_reuses_object_slots() {
        // 10^5 create/destroy cycles by one owner, with a message queued on
        // every 1000th endpoint when it dies: one endpoint is live at a
        // time, so the table must hold one slot and the owner one capability.
        let mut k = Kernel::with_default_heap();
        let owner = k.spawn_process();
        let sender = k.spawn_process();
        let heap = k.heap_live_bytes();
        for i in 0..100_000u64 {
            let ep = k.create_endpoint(owner).unwrap();
            if i % 1000 == 0 {
                let send = k.grant_cap(owner, ep, sender, Rights::SEND).unwrap();
                let msg = Message::words(&[i]);
                let sent = k.syscall(sender, Syscall::Send { cap: send, msg });
                assert_eq!(sent, Ok(SysResult::Blocked));
            }
            k.syscall(owner, Syscall::DestroyEndpoint { cap: ep })
                .unwrap();
            assert!(k.is_ready(sender), "a destroyed endpoint wakes its sender");
        }
        assert_eq!(k.objects.footprint(), 1, "the table grew past its peak");
        assert_eq!(k.processes[owner.0 as usize].cspace.footprint(), 1);
        assert_eq!(k.heap_live_bytes(), heap, "queued messages leaked");
        k.check_invariants().unwrap();
    }

    #[test]
    fn destroying_endpoint_wakes_waiters() {
        let (mut k, server, client, ep_server, ep_client) = setup();
        k.syscall(
            client,
            Syscall::Send {
                cap: ep_client,
                msg: Message::empty(),
            },
        )
        .unwrap();
        assert!(!k.is_ready(client));
        k.syscall(server, Syscall::DestroyEndpoint { cap: ep_server })
            .unwrap();
        assert!(k.is_ready(client), "blocked sender must not hang forever");
    }

    #[test]
    fn blocked_processes_cannot_syscall() {
        let (mut k, server, _, ep_server, _) = setup();
        k.syscall(server, Syscall::Recv { cap: ep_server }).unwrap();
        let err = k.syscall(server, Syscall::Yield).unwrap_err();
        assert_eq!(err, KernelError::ProcessBlocked(server));
    }

    #[test]
    fn dead_processes_cannot_syscall() {
        let mut k = Kernel::with_default_heap();
        let p = k.spawn_process();
        k.syscall(p, Syscall::Exit).unwrap();
        assert_eq!(
            k.syscall(p, Syscall::Yield).unwrap_err(),
            KernelError::ProcessDead(p)
        );
    }

    #[test]
    fn syscalls_against_a_reaped_pid_yield_typed_errors() {
        // Regression: kernel hot paths used to index `processes[pid]`
        // directly; a dead or never-spawned pid must surface as a typed
        // error on every public entry point, never a panic.
        let (mut k, server, client, ep_server, ep_client) = setup();
        k.syscall(client, Syscall::Exit).unwrap();
        assert_eq!(
            k.syscall(
                client,
                Syscall::Send {
                    cap: ep_client,
                    msg: Message::empty()
                }
            )
            .unwrap_err(),
            KernelError::ProcessDead(client)
        );
        // A pid the kernel never issued: out of bounds for the process table.
        let ghost = Pid(999);
        assert_eq!(
            k.syscall(ghost, Syscall::Yield).unwrap_err(),
            KernelError::NoSuchProcess(ghost)
        );
        assert_eq!(
            k.poll_ipc(ghost).unwrap_err(),
            KernelError::NoSuchProcess(ghost)
        );
        assert_eq!(
            k.set_ipc_deadline(ghost, Some(100)).unwrap_err(),
            KernelError::NoSuchProcess(ghost)
        );
        assert_eq!(
            k.set_essential(ghost, true).unwrap_err(),
            KernelError::NoSuchProcess(ghost)
        );
        assert!(k.take_delivered(ghost).is_none());
        assert!(!k.is_ready(ghost));
        assert!(k.authority(ghost).is_empty());
        // The resilient round-trip driver used to panic in ride_out_timeout
        // when handed a ghost pid; now it reports the bad pid.
        let reply_server = k.create_endpoint(server).unwrap();
        let err = k
            .ping_pong_resilient(
                ghost,
                server,
                (ep_server, ep_client),
                (reply_server, reply_server),
                4,
                500,
                1,
            )
            .unwrap_err();
        assert_eq!(err, KernelError::NoSuchProcess(ghost));
    }

    #[test]
    fn scheduler_skips_dead_pids_without_panicking() {
        let mut k = Kernel::with_default_heap();
        let a = k.spawn_process();
        let b = k.spawn_process();
        k.syscall(a, Syscall::Exit).unwrap();
        // The dead pid is still in the run queue; scheduling must drop it.
        for _ in 0..4 {
            assert_eq!(k.schedule(), Some(b));
        }
    }

    #[test]
    fn scheduler_rotates_ready_processes() {
        let mut k = Kernel::with_default_heap();
        let a = k.spawn_process();
        let b = k.spawn_process();
        let first = k.schedule().unwrap();
        let second = k.schedule().unwrap();
        assert_ne!(first, second);
        assert_eq!(k.schedule().unwrap(), first);
        let _ = (a, b);
    }

    #[test]
    fn cycles_accumulate_per_syscall() {
        let mut k = Kernel::with_default_heap();
        let p = k.spawn_process();
        let before = k.cycles.total();
        k.syscall(p, Syscall::Yield).unwrap();
        assert!(k.cycles.total() > before);
    }

    #[test]
    fn ping_pong_round_trip_works_and_counts_cycles() {
        let (mut k, server, client, ep_server, ep_client) = setup();
        let reply_server = k.create_endpoint(server).unwrap();
        let reply_client = k
            .grant_cap(server, reply_server, client, Rights::RECV)
            .unwrap();
        let cycles = k
            .ping_pong(
                client,
                server,
                (ep_server, ep_client),
                (reply_server, reply_client),
                8,
            )
            .unwrap();
        assert!(cycles > 0);
        // Larger payloads must cost more cycles.
        let cycles_big = k
            .ping_pong(
                client,
                server,
                (ep_server, ep_client),
                (reply_server, reply_client),
                256,
            )
            .unwrap();
        assert!(cycles_big > cycles);
    }

    #[test]
    fn wake_never_queues_a_pid_twice() {
        let (mut k, server, client, ep_server, ep_client) = setup();
        let reply_server = k.create_endpoint(server).unwrap();
        let reply_client = k
            .grant_cap(server, reply_server, client, Rights::RECV)
            .unwrap();
        for _ in 0..10_000 {
            k.ping_pong(
                client,
                server,
                (ep_server, ep_client),
                (reply_server, reply_client),
                4,
            )
            .unwrap();
        }
        assert!(
            k.run_queue.len() <= k.processes.len(),
            "{}",
            k.run_queue.len()
        );
        k.check_invariants().unwrap();
        // A blocked pid leaves the queue when the scheduler passes it and
        // re-enters exactly once on wake.
        k.syscall(server, Syscall::Recv { cap: ep_server }).unwrap();
        assert_eq!(k.schedule(), Some(client));
        assert_eq!(k.run_queue.len(), 1);
        k.check_invariants().unwrap();
        k.syscall(
            client,
            Syscall::Send {
                cap: ep_client,
                msg: Message::empty(),
            },
        )
        .unwrap();
        assert_eq!(k.run_queue.len(), 2);
        k.check_invariants().unwrap();
    }

    #[test]
    fn kernel_runs_on_gc_heaps_too() {
        for heap in [
            Box::new(MarkSweepHeap::new(1 << 20)) as Box<dyn Manager>,
            Box::new(GenerationalHeap::new(1 << 20, 1 << 12)) as Box<dyn Manager>,
        ] {
            let mut k = Kernel::new(heap);
            let server = k.spawn_process();
            let client = k.spawn_process();
            let ep_s = k.create_endpoint(server).unwrap();
            let ep_c = k.grant_cap(server, ep_s, client, Rights::SEND).unwrap();
            for i in 0..200 {
                k.syscall(server, Syscall::Recv { cap: ep_s }).unwrap();
                k.syscall(
                    client,
                    Syscall::Send {
                        cap: ep_c,
                        msg: Message::words(&[i; 16]),
                    },
                )
                .unwrap();
                let m = k.take_delivered(server).unwrap();
                assert_eq!(m.payload, vec![i; 16]);
            }
            k.collect_heap();
        }
    }

    #[test]
    fn watchdog_reaps_overdue_recv() {
        let (mut k, server, _, ep_server, _) = setup();
        k.set_ipc_deadline(server, Some(500)).unwrap();
        k.syscall(server, Syscall::Recv { cap: ep_server }).unwrap();
        assert!(!k.is_ready(server));
        // Drive the clock past the deadline; each schedule() charges cycles
        // and runs the watchdog sweep.
        for _ in 0..20 {
            k.schedule();
        }
        assert!(k.is_ready(server), "watchdog must reap the overdue recv");
        assert_eq!(k.poll_ipc(server).unwrap(), SysResult::TimedOut);
        // The flag is one-shot.
        assert_eq!(k.poll_ipc(server).unwrap(), SysResult::Done);
        assert_eq!(k.fault_stats().watchdog_reaps, 1);
    }

    #[test]
    fn watchdog_reaps_overdue_send_and_frees_its_message() {
        let (mut k, _, client, _, ep_client) = setup();
        k.set_ipc_deadline(client, Some(500)).unwrap();
        let live_before = k.heap_live_bytes();
        k.syscall(
            client,
            Syscall::Send {
                cap: ep_client,
                msg: Message::words(&[1; 64]),
            },
        )
        .unwrap();
        assert!(
            k.heap_live_bytes() > live_before,
            "queued message holds heap"
        );
        for _ in 0..20 {
            k.schedule();
        }
        assert!(k.is_ready(client));
        assert_eq!(k.poll_ipc(client).unwrap(), SysResult::TimedOut);
        assert_eq!(
            k.heap_live_bytes(),
            live_before,
            "reaped message must not leak"
        );
    }

    #[test]
    fn no_deadline_means_wait_forever() {
        let (mut k, server, _, ep_server, _) = setup();
        k.syscall(server, Syscall::Recv { cap: ep_server }).unwrap();
        for _ in 0..100 {
            k.schedule();
        }
        assert!(
            !k.is_ready(server),
            "without a deadline the watchdog stays out"
        );
    }

    #[test]
    fn injected_drop_loses_the_message_but_not_the_kernel() {
        use sysfault::{FaultPlan, Schedule, SharedInjector};
        let (mut k, server, client, ep_server, ep_client) = setup();
        k.set_injector(SharedInjector::new(
            FaultPlan::new(1).with_site(SITE_IPC_DROP, Schedule::OneShotAt(1)),
        ));
        k.syscall(server, Syscall::Recv { cap: ep_server }).unwrap();
        let r = k
            .syscall(
                client,
                Syscall::Send {
                    cap: ep_client,
                    msg: Message::words(&[7]),
                },
            )
            .unwrap();
        assert_eq!(r, SysResult::Delivered, "sender believes the send worked");
        assert!(k.take_delivered(server).is_none(), "receiver got nothing");
        assert!(!k.is_ready(server), "receiver still waiting");
        assert_eq!(k.fault_stats().dropped_messages, 1);
        // Second send is not dropped (one-shot) and reaches the receiver.
        k.syscall(
            client,
            Syscall::Send {
                cap: ep_client,
                msg: Message::words(&[8]),
            },
        )
        .unwrap();
        assert_eq!(k.take_delivered(server).unwrap().payload, vec![8]);
    }

    #[test]
    fn injected_oom_sheds_newest_non_essential_process() {
        use sysfault::{FaultPlan, Schedule, SharedInjector};
        let mut k = Kernel::with_default_heap();
        let worker = k.spawn_process();
        let expendable = k.spawn_process();
        k.set_essential(worker, true).unwrap();
        let SysResult::Slot(_) = k
            .syscall(expendable, Syscall::AllocPage { words: 8 })
            .unwrap()
        else {
            panic!("expected slot")
        };
        k.set_injector(SharedInjector::new(
            FaultPlan::new(1).with_site(SITE_KERNEL_OOM, Schedule::OneShotAt(1)),
        ));
        // The injected OOM triggers shedding; the expendable process dies,
        // its page is freed, and the retry succeeds.
        let r = k.syscall(worker, Syscall::AllocPage { words: 8 });
        assert!(matches!(r, Ok(SysResult::Slot(_))), "got {r:?}");
        assert_eq!(k.fault_stats().shed_processes, 1);
        assert_eq!(
            k.syscall(expendable, Syscall::Yield).unwrap_err(),
            KernelError::ProcessDead(expendable)
        );
    }

    #[test]
    fn real_heap_exhaustion_sheds_then_fails_typed() {
        // A tiny heap: the first big page fits, the second cannot until the
        // first owner is shed; with nothing expendable left, the failure is
        // the typed error, never a panic.
        let mut k = Kernel::new(Box::new(FreeListHeap::new(4096)));
        let hog = k.spawn_process();
        let worker = k.spawn_process();
        k.set_essential(worker, true).unwrap();
        k.syscall(hog, Syscall::AllocPage { words: 300 }).unwrap();
        let r = k.syscall(worker, Syscall::AllocPage { words: 300 });
        assert!(
            matches!(r, Ok(SysResult::Slot(_))),
            "shedding should free room: {r:?}"
        );
        assert_eq!(k.fault_stats().shed_processes, 1);
        let r = k.syscall(worker, Syscall::AllocPage { words: 10_000 });
        assert_eq!(r.unwrap_err(), KernelError::OutOfMemory);
    }

    #[test]
    fn resilient_ping_pong_matches_plain_when_fault_free() {
        let (mut k, server, client, ep_server, ep_client) = setup();
        let reply_server = k.create_endpoint(server).unwrap();
        let reply_client = k
            .grant_cap(server, reply_server, client, Rights::RECV)
            .unwrap();
        let out = k
            .ping_pong_resilient(
                client,
                server,
                (ep_server, ep_client),
                (reply_server, reply_client),
                8,
                5_000,
                4,
            )
            .unwrap();
        assert_eq!(out.retries, 0);
        assert!(out.cycles > 0);
    }

    #[test]
    fn resilient_ping_pong_recovers_from_dropped_request() {
        use sysfault::{FaultPlan, Schedule, SharedInjector};
        let (mut k, server, client, ep_server, ep_client) = setup();
        let reply_server = k.create_endpoint(server).unwrap();
        let reply_client = k
            .grant_cap(server, reply_server, client, Rights::RECV)
            .unwrap();
        k.set_injector(SharedInjector::new(
            FaultPlan::new(1).with_site(SITE_IPC_DROP, Schedule::OneShotAt(1)),
        ));
        let out = k
            .ping_pong_resilient(
                client,
                server,
                (ep_server, ep_client),
                (reply_server, reply_client),
                8,
                2_000,
                4,
            )
            .unwrap();
        assert_eq!(out.retries, 1, "one attempt lost to the drop");
        assert!(
            k.fault_stats().watchdog_reaps >= 1,
            "recovery went through the watchdog"
        );
    }

    #[test]
    fn resilient_ping_pong_gives_up_with_typed_timeout() {
        use sysfault::{FaultPlan, Schedule, SharedInjector};
        let (mut k, server, client, ep_server, ep_client) = setup();
        let reply_server = k.create_endpoint(server).unwrap();
        let reply_client = k
            .grant_cap(server, reply_server, client, Rights::RECV)
            .unwrap();
        // Every send is dropped: no retry budget can succeed.
        k.set_injector(SharedInjector::new(
            FaultPlan::new(1).with_site(SITE_IPC_DROP, Schedule::EveryNth(1)),
        ));
        let err = k
            .ping_pong_resilient(
                client,
                server,
                (ep_server, ep_client),
                (reply_server, reply_client),
                8,
                1_000,
                3,
            )
            .unwrap_err();
        assert_eq!(err, KernelError::TimedOut(client));
    }

    #[test]
    fn fault_campaign_is_replayable_from_its_seed() {
        use sysfault::{FaultPlan, Schedule, SharedInjector};
        let plan = FaultPlan::new(0xFEED)
            .with_site(SITE_IPC_DROP, Schedule::Probability(0.2))
            .with_site(SITE_KERNEL_OOM, Schedule::Probability(0.05));
        let run = |plan: FaultPlan| {
            let (mut k, server, client, ep_server, ep_client) = setup();
            let reply_server = k.create_endpoint(server).unwrap();
            let reply_client = k
                .grant_cap(server, reply_server, client, Rights::RECV)
                .unwrap();
            let inj = SharedInjector::new(plan);
            k.set_injector(inj.clone());
            let mut outcomes = Vec::new();
            for _ in 0..50 {
                outcomes.push(
                    k.ping_pong_resilient(
                        client,
                        server,
                        (ep_server, ep_client),
                        (reply_server, reply_client),
                        4,
                        1_500,
                        3,
                    )
                    .map(|o| o.retries)
                    .map_err(|_| ()),
                );
            }
            (outcomes, inj.digest())
        };
        let (a_out, a_digest) = run(plan.clone());
        let (b_out, b_digest) = run(plan);
        assert_eq!(a_out, b_out, "same seed, same outcomes");
        assert_eq!(a_digest, b_digest, "same seed, same fault log digest");
    }

    #[test]
    fn cspace_exhaustion_is_reported() {
        let mut k = Kernel::with_default_heap();
        let p = k.spawn_process();
        let mut last = Ok(SysResult::Done);
        for _ in 0..=CSPACE_CAPACITY {
            last = k.syscall(p, Syscall::AllocPage { words: 1 });
            if last.is_err() {
                break;
            }
        }
        assert_eq!(last.unwrap_err(), KernelError::CapSpaceFull);
    }

    #[test]
    fn a_refused_create_leaves_nothing_behind() {
        let mut k = Kernel::with_default_heap();
        let p = k.spawn_process();
        for _ in 0..CSPACE_CAPACITY {
            k.syscall(p, Syscall::AllocPage { words: 1 }).unwrap();
        }
        let (heap, footprint) = (k.heap_live_bytes(), k.objects.footprint());
        for _ in 0..100 {
            let page = k.syscall(p, Syscall::AllocPage { words: 16 });
            assert_eq!(page, Err(KernelError::CapSpaceFull));
            assert_eq!(k.create_endpoint(p), Err(KernelError::CapSpaceFull));
        }
        assert_eq!(k.heap_live_bytes(), heap, "refused pages took heap");
        assert_eq!(
            k.objects.footprint(),
            footprint,
            "refused objects took slots"
        );
        assert_eq!(k.objects.len(), CSPACE_CAPACITY);
        k.check_invariants().unwrap();
    }

    #[test]
    fn a_transfer_to_a_full_cspace_moves_nothing() {
        let (mut k, server, client, ep_server, _) = setup();
        let ep_client = k
            .grant_cap(server, ep_server, client, Rights::RECV)
            .unwrap();
        let SysResult::Slot(page) = k.syscall(server, Syscall::AllocPage { words: 1 }).unwrap()
        else {
            panic!("expected slot")
        };
        while k.syscall(client, Syscall::AllocPage { words: 1 }).is_ok() {}
        let carrying = Syscall::Send {
            cap: ep_server,
            msg: Message {
                payload: vec![5],
                cap: Some((page, Rights::READ)),
                ctx: 0,
            },
        };
        let (heap, authority) = (k.heap_live_bytes(), k.authority(client));

        // The receiver waits: the send that would complete the rendezvous
        // is refused.
        k.syscall(client, Syscall::Recv { cap: ep_client }).unwrap();
        let sent = k.syscall(server, carrying.clone());
        assert_eq!(sent, Err(KernelError::CapSpaceFull));
        assert!(k.take_delivered(client).is_none(), "a message arrived");
        assert!(!k.is_ready(client) && k.is_ready(server));
        assert_eq!(k.heap_live_bytes(), heap, "the refused message was kept");
        assert_eq!(k.authority(client), authority);
        k.check_invariants().unwrap();

        // The sender waits: the receive that would complete it is refused.
        let plain = Message::words(&[6]);
        k.syscall(
            server,
            Syscall::Send {
                cap: ep_server,
                msg: plain,
            },
        )
        .unwrap();
        assert_eq!(k.take_delivered(client).unwrap().payload, vec![6]);
        assert_eq!(k.syscall(server, carrying), Ok(SysResult::Blocked));
        let received = k.syscall(client, Syscall::Recv { cap: ep_client });
        assert_eq!(received, Err(KernelError::CapSpaceFull));
        assert!(k.take_delivered(client).is_none(), "a message arrived");
        assert!(k.is_ready(client) && !k.is_ready(server));
        assert_eq!(k.authority(client), authority);
        k.check_invariants().unwrap();
    }

    #[test]
    fn exit_returns_the_heap_to_its_baseline() {
        // 100 processes each create four 16-word pages and an endpoint and
        // exit: what only they named goes with them.
        let mut k = Kernel::with_default_heap();
        let heap = k.heap_live_bytes();
        for _ in 0..100 {
            let p = k.spawn_process();
            for _ in 0..4 {
                k.syscall(p, Syscall::AllocPage { words: 16 }).unwrap();
            }
            k.create_endpoint(p).unwrap();
            k.syscall(p, Syscall::Exit).unwrap();
            k.check_invariants().unwrap();
            // Nothing can be created for the dead.
            assert_eq!(k.create_endpoint(p), Err(KernelError::ProcessDead(p)));
        }
        assert_eq!(k.heap_live_bytes(), heap, "exited processes kept pages");
        assert_eq!(k.objects.len(), 0, "exited processes left objects");
        assert_eq!(k.objects.footprint(), 5);
    }

    #[test]
    fn an_endpoint_outlives_its_creator_while_named() {
        let (mut k, server, client, _, ep_client) = setup();
        k.syscall(server, Syscall::Exit).unwrap();
        let msg = Message::words(&[1]);
        let sent = k.syscall(
            client,
            Syscall::Send {
                cap: ep_client,
                msg,
            },
        );
        assert_eq!(
            sent,
            Ok(SysResult::Blocked),
            "the endpoint went with its creator"
        );
        k.check_invariants().unwrap();
    }

    #[test]
    fn the_audit_finds_orphans() {
        let mut k = Kernel::with_default_heap();
        let p = k.spawn_process();
        let id = k.objects.insert(Object::Endpoint(Endpoint::default()));
        let err = k.check_invariants().unwrap_err();
        assert!(err.starts_with("no-orphan: nothing live names"), "{err}");
        k.objects.release(id);

        let dead = k.spawn_process();
        let SysResult::Slot(page) = k.syscall(dead, Syscall::AllocPage { words: 1 }).unwrap()
        else {
            panic!("expected slot")
        };
        k.grant_cap(dead, page, p, Rights::READ).unwrap();
        k.processes[dead.0 as usize].state = ProcState::Dead;
        let err = k.check_invariants().unwrap_err();
        assert!(err.contains("outlives its owner"), "{err}");
    }
}
