//! The sharded multi-worker router.
//!
//! Flows hash-partition across `std::thread` workers, each fed batches
//! through its own bounded [`sysconc::channel`]. Sharding by flow hash
//! keeps any one flow on one worker, so per-flow packet order survives
//! parallelism — the classic RSS design.
//!
//! Three properties define the steady state:
//!
//! * **Zero allocation.** Workers return drained `Batch` buffers to the
//!   dispatcher over per-worker recycle channels; the dispatcher refills
//!   frame buffers with `clear()` + `extend_from_slice` (length governs —
//!   recycled bytes can never leak into a later frame) and reuses batch
//!   containers the same way. After warm-up no `Vec` is allocated per
//!   packet or per batch — Challenge 2's region-style reuse, measured as
//!   `steady_allocs_per_packet` in the bench rather than asserted.
//! * **Cached routing.** Each worker runs [`pipeline::process_batch`] with
//!   its own [`FlowCache`]: repeated flows resolve in one hash-and-compare
//!   instead of a trie walk, and a generation counter on the source
//!   invalidates the cache before any post-mutation packet is routed.
//! * **Live route updates.** The routing table is no longer frozen at
//!   startup: [`ShardedRouter::updater`] hands out the shared
//!   [`CowRouteTable`], whose inserts and removes reach running workers. An
//!   update is one copy-on-write spine clone plus an atomic root swap
//!   ([`crate::cowtrie`]); workers pin an epoch-protected snapshot per
//!   batch and pay zero synchronization per packet.
//! * **Non-blocking dispatch.** Batch size adapts to queue occupancy (deep
//!   batches only under backlog) and dispatch uses `try_send` with a
//!   bounded per-worker requeue, so one slow worker no longer
//!   head-of-line-blocks every other worker's feed.
//!
//! Shared state is confined to per-worker atomic counters (aggregated into
//! a router-wide [`RouterStats`] snapshot on demand) and the published
//! route state behind an `Arc`; the packets themselves are *moved* through
//! channels, never shared — Challenge 4 answered with ownership plus
//! message passing rather than locks.
//!
//! The dispatch/recycle protocol itself is model-checkable: workers spawn
//! through [`syscheck::shim::spawn_named`] and every channel hand-off rides
//! the (shimmed) `sysconc` channels, so under a `syscheck` runtime the
//! whole dispatcher → worker → recycle cycle runs on the cooperative
//! scheduler (see `tests/router_model.rs`). The per-worker *counters* stay
//! plain `std` atomics on purpose: they are observability, not protocol —
//! no control flow in the dispatch path depends on racing counter reads
//! beyond the monotone in-flight estimate, and shimming them would bury
//! the protocol's real decision points under thousands of counter
//! interleavings (the same split `sysconc::stm` makes for its stats).

use crate::cache::FlowCache;
use crate::conntrack::{Conntrack, ConntrackConfig, ConntrackShared, ConntrackStats, EvictCause};
use crate::cowtrie::{CowRouteTable, RouteReader};
use crate::lb::{BackendPool, LbConfig, LbStats};
use crate::lpm::TrieTable;
use crate::pipeline::{self, BatchStats, DROP_REASONS};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use syscheck::shim::{spawn_named, JoinHandle};
use sysconc::channel::{bounded, channel, Receiver, Sender, TrySendError};
use sysfault::{FaultInjector, FaultPlan};

/// A next-hop port: an index into the router's port table.
pub type PortId = u16;

/// Fault site: the dispatcher silently drops a submitted frame (NIC-edge
/// loss) before it reaches any worker.
pub const SITE_NET_FRAME_DROP: &str = "net.dispatch.frame_drop";
/// Fault site: a worker stalls briefly before processing a batch (the slow
/// peer the non-blocking dispatch and requeue path must absorb).
pub const SITE_NET_WORKER_STALL: &str = "net.worker.stall";
/// Fault site: a batch returning on the recycle channel is lost, so its
/// buffers leave the pool forever and the dispatcher must re-allocate.
pub const SITE_NET_RECYCLE_LOSS: &str = "net.recycle.loss";

/// Sizing knobs for [`ShardedRouter`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Worker threads (≥ 1). Flows are hash-partitioned across them.
    pub workers: usize,
    /// Maximum frames per batch handed to a worker (≥ 1). The dispatcher
    /// sizes actual batches adaptively from queue occupancy, up to this.
    pub batch_size: usize,
    /// Bounded-channel capacity, in batches, per worker (≥ 1).
    pub queue_depth: usize,
    /// Per-worker flow-cache slots (rounded up to a power of two).
    /// `0` disables the cache: every packet walks the trie — the A/B
    /// baseline experiment E12 measures the cache against.
    pub cache_slots: usize,
    /// When false, workers run a monomorphized fast path with *no*
    /// observability code compiled in — not even the disabled-mode atomic
    /// check. This is the true baseline experiment E11 measures
    /// instrumentation overhead against; production configs leave it true
    /// and control cost via [`sysobs::set_mode`].
    pub instrument: bool,
    /// Per-worker connection-tracking shard config. `None` (the default)
    /// runs the stateless pipeline; `Some` adds each worker's shard as the
    /// pipeline's admission stage ([`pipeline::Stages`]) and sweeps it
    /// watchdog-style between batches. `max_flows` is the **router-wide**
    /// capacity: every shard charges the same [`ConntrackShared`] gauge,
    /// so the live-entry total never exceeds it no matter how flows shard.
    pub conntrack: Option<ConntrackConfig>,
    /// L4 load-balancer config. Requires `conntrack` (rewrite state lives
    /// in the flow entries); each worker gets its own [`BackendPool`] with
    /// an injector derived like the conntrack one, probing between batches.
    pub lb: Option<LbConfig>,
    /// Seeded fault plan for the `net.*` injection sites. The dispatcher
    /// keeps an injector for [`SITE_NET_FRAME_DROP`] and
    /// [`SITE_NET_RECYCLE_LOSS`]; each worker derives its own (seed XORed
    /// with the FNV of the worker name) for [`SITE_NET_WORKER_STALL`] and
    /// the `net.conntrack.*` sites, so campaigns replay per worker.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            workers: 1,
            batch_size: 64,
            queue_depth: 8,
            cache_slots: 4096,
            instrument: true,
            conntrack: None,
            lb: None,
            fault_plan: None,
        }
    }
}

/// Requeued batches a worker may accumulate before the dispatcher falls
/// back to a blocking send (bounding dispatcher-side memory), as a multiple
/// of the queue depth.
const STALL_CAP_FACTOR: usize = 2;

/// One worker's batch: owned frames plus the dispatch timestamp the
/// `net.batch_latency_ns` histogram measures from (stamped only when the
/// router is instrumented, the one case that records it). The same buffers
/// cycle dispatcher → worker → recycle channel → dispatcher for the
/// router's lifetime.
struct Batch {
    frames: Vec<Vec<u8>>,
    submitted: Option<Instant>,
    /// Packed causal trace context ([`sysobs::context`] carrier form)
    /// stamped by the dispatcher when this batch won the sampling draw;
    /// 0 = untraced. Workers adopt it before processing, so the spans a
    /// sampled packet opens on a worker thread join the dispatcher's trace.
    ctx: u64,
}

/// Per-worker live counters (atomics, so [`ShardedRouter::snapshot`] can
/// read them while the workers run).
#[derive(Debug)]
struct Counters {
    parsed: AtomicU64,
    forwarded: AtomicU64,
    dropped: [AtomicU64; DROP_REASONS],
    batches: AtomicU64,
    occupancy_sum: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_invalidations: AtomicU64,
    cache_invalidation_misses: AtomicU64,
    injected_stalls: AtomicU64,
    per_port: Vec<AtomicU64>,
}

impl Counters {
    fn new(ports: usize) -> Self {
        Counters {
            parsed: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            dropped: std::array::from_fn(|_| AtomicU64::new(0)),
            batches: AtomicU64::new(0),
            occupancy_sum: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_invalidations: AtomicU64::new(0),
            cache_invalidation_misses: AtomicU64::new(0),
            injected_stalls: AtomicU64::new(0),
            per_port: (0..ports).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn apply(&self, stats: &BatchStats, occupancy: usize) {
        self.parsed.fetch_add(stats.parsed, Ordering::Relaxed);
        self.forwarded.fetch_add(stats.forwarded, Ordering::Relaxed);
        for (cell, n) in self.dropped.iter().zip(stats.dropped.iter()) {
            cell.fetch_add(*n, Ordering::Relaxed);
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.occupancy_sum
            .fetch_add(occupancy as u64, Ordering::Relaxed);
    }

    /// Publishes the worker's cache totals (single writer: plain stores).
    fn store_cache(&self, cache: &FlowCache<PortId>) {
        self.cache_hits.store(cache.hits(), Ordering::Relaxed);
        self.cache_misses.store(cache.misses(), Ordering::Relaxed);
        self.cache_invalidations
            .store(cache.invalidations(), Ordering::Relaxed);
        self.cache_invalidation_misses
            .store(cache.invalidation_misses(), Ordering::Relaxed);
    }

    fn snapshot(&self) -> WorkerStats {
        WorkerStats {
            parsed: self.parsed.load(Ordering::Relaxed),
            forwarded: self.forwarded.load(Ordering::Relaxed),
            dropped: std::array::from_fn(|i| self.dropped[i].load(Ordering::Relaxed)),
            batches: self.batches.load(Ordering::Relaxed),
            occupancy_sum: self.occupancy_sum.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_invalidations: self.cache_invalidations.load(Ordering::Relaxed),
            cache_invalidation_misses: self.cache_invalidation_misses.load(Ordering::Relaxed),
            injected_stalls: self.injected_stalls.load(Ordering::Relaxed),
            per_port: self
                .per_port
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// One worker's counters, snapshot as plain numbers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Frames whose header chain validated.
    pub parsed: u64,
    /// Frames forwarded to a port.
    pub forwarded: u64,
    /// Frames dropped, indexed by [`pipeline::DropReason`].
    pub dropped: [u64; DROP_REASONS],
    /// Batches processed.
    pub batches: u64,
    /// Sum of batch occupancies (frames per batch actually seen).
    pub occupancy_sum: u64,
    /// Flow-cache hits (0 when the cache is disabled).
    pub cache_hits: u64,
    /// Flow-cache misses (each one walked the trie).
    pub cache_misses: u64,
    /// Flow-cache wholesale invalidations (table-generation changes seen).
    pub cache_invalidations: u64,
    /// The subset of [`WorkerStats::cache_misses`] forced by those
    /// invalidations (refills of slots a route change emptied) — route
    /// churn's direct cost, separable from capacity pressure.
    pub cache_invalidation_misses: u64,
    /// Injected worker stalls served ([`SITE_NET_WORKER_STALL`]).
    pub injected_stalls: u64,
    /// Forwards per port id.
    pub per_port: Vec<u64>,
}

impl WorkerStats {
    /// Total drops across all reasons.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Flow-cache hit rate (0.0 when the cache was never consulted).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    fn merge(&mut self, other: &WorkerStats) {
        self.parsed += other.parsed;
        self.forwarded += other.forwarded;
        for (a, b) in self.dropped.iter_mut().zip(other.dropped.iter()) {
            *a += b;
        }
        self.batches += other.batches;
        self.occupancy_sum += other.occupancy_sum;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_invalidations += other.cache_invalidations;
        self.cache_invalidation_misses += other.cache_invalidation_misses;
        self.injected_stalls += other.injected_stalls;
        if self.per_port.len() < other.per_port.len() {
            self.per_port.resize(other.per_port.len(), 0);
        }
        for (a, b) in self.per_port.iter_mut().zip(other.per_port.iter()) {
            *a += b;
        }
    }
}

/// Router-wide aggregate of every worker's counters.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Per-worker snapshots, in worker order.
    pub per_worker: Vec<WorkerStats>,
    /// Sum over workers.
    pub totals: WorkerStats,
}

/// Dispatcher-side buffer-pool counters: how many frame buffers and batch
/// containers were served from the recycle pool vs freshly allocated, plus
/// how often dispatch had to requeue a batch for a busy worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Frame buffers reused from the pool.
    pub frames_reused: u64,
    /// Frame buffers freshly allocated (warm-up, or pool exhaustion).
    pub frames_allocated: u64,
    /// Batch containers reused from the pool.
    pub batches_reused: u64,
    /// Batch containers freshly allocated.
    pub batches_allocated: u64,
    /// Batches requeued because a worker's queue was full at dispatch.
    pub stalled_requeues: u64,
}

impl PoolStats {
    /// Fraction of frame buffers served from the pool (1.0 = all reuse).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn frame_reuse_rate(&self) -> f64 {
        let total = self.frames_reused + self.frames_allocated;
        if total == 0 {
            0.0
        } else {
            self.frames_reused as f64 / total as f64
        }
    }
}

/// What the seeded `net.*` fault campaign did to one router run: injection
/// counts plus the replayable digests (same plan + same stream → same
/// digests, which is how campaigns prove they reproduced).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetFaultStats {
    /// Frames dropped at the dispatcher ([`SITE_NET_FRAME_DROP`]).
    pub injected_frame_drops: u64,
    /// Recycle batches lost ([`SITE_NET_RECYCLE_LOSS`]).
    pub recycle_losses: u64,
    /// Frame buffers those lost batches carried away.
    pub frames_lost: u64,
    /// Worker stalls served ([`SITE_NET_WORKER_STALL`]).
    pub injected_stalls: u64,
    /// Dispatcher injector's fault-log digest (0 when no plan).
    pub dispatch_digest: u64,
    /// Per-worker digests (stall + conntrack sites) folded in worker
    /// order: `d ← rotl(d, 1) ^ worker_digest`.
    pub worker_digest: u64,
}

impl NetFaultStats {
    /// Total injected events across all sites.
    #[must_use]
    pub fn total_injected(&self) -> u64 {
        self.injected_frame_drops + self.recycle_losses + self.injected_stalls
    }
}

/// Copy-on-write route-table and epoch-domain counters, captured at
/// [`ShardedRouter::finish`] — the reclamation story's observability
/// surface (how many snapshots were published, how many spine nodes came
/// back through the pool, and whether epoch advancement ever stalled
/// behind a pinned reader).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowEpochStats {
    /// Route-table publications (successful inserts/removes).
    pub publications: u64,
    /// Retired spine nodes recycled back into the writer's node pool.
    pub spine_recycled: u64,
    /// Retired nodes still awaiting their grace period at shutdown.
    pub pending_reclaim: u64,
    /// Readers still inside a pinned critical section at shutdown (0 after
    /// a clean worker join — nonzero means a leaked pin).
    pub pinned_readers: u64,
    /// Epoch-advance attempts a lagging pinned reader blocked.
    pub advance_stalls: u64,
}

/// Final report returned by [`ShardedRouter::finish`]: the aggregate
/// counters of the whole run.
#[derive(Debug, Clone)]
pub struct RouterReport {
    /// Aggregated counters.
    pub stats: RouterStats,
    /// Dispatcher-side buffer-pool counters.
    pub pool: PoolStats,
    /// Merged connection-tracking counters across workers (`None` when
    /// tracking was disabled).
    pub conntrack: Option<ConntrackStats>,
    /// Merged load-balancer counters across workers (`None` when balancing
    /// was disabled).
    pub lb: Option<LbStats>,
    /// Fault-injection campaign summary (all zeros when no plan was set).
    pub faults: NetFaultStats,
    /// CoW-trie / epoch-reclamation counters.
    pub cow: CowEpochStats,
}

impl RouterReport {
    /// Total packets the report covers.
    #[must_use]
    pub fn packets(&self) -> u64 {
        self.stats.totals.total_frames()
    }

    /// Flow-cache hit rate across all workers.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        self.stats.totals.cache_hit_rate()
    }
}

impl WorkerStats {
    /// Total frames seen (forwarded + dropped).
    #[must_use]
    pub fn total_frames(&self) -> u64 {
        self.forwarded + self.dropped_total()
    }
}

/// The worker a frame belongs to: the high half of FNV-1a over the IPv4
/// src/dst addresses (bytes 26..34 of a minimal Ethernet+IPv4 frame),
/// modulo the worker count; shorter or odd frames hash whole. Same flow,
/// same worker — without parsing (the worker does the real validation).
///
/// Each worker's [`FlowCache`] indexes its slots with a multiplicative hash
/// of the same address pair that shares nothing with this one, so a shard's
/// flows still spread over its whole cache rather than over the slots whose
/// index agrees with its shard number.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
fn shard_of(frame: &[u8], workers: usize) -> usize {
    let h = sysobs::fnv1a(frame.get(26..34).unwrap_or(frame)) >> 32;
    (h % workers as u64) as usize
}

/// Sizes one worker's conntrack slab from the router-wide config: flows
/// hash-partition roughly evenly, so each shard needs about
/// `max_flows / workers` slots plus 25% headroom for partition skew and a
/// full SYN backlog — not the whole router-wide slab each. The shared
/// gauge still enforces the router-wide cap exactly; this only bounds
/// per-shard memory, which is what lets the E14 scale sweep push toward
/// millions of flows without allocating `workers × max_flows` slots.
fn shard_conntrack_config(mut cfg: ConntrackConfig, workers: usize) -> ConntrackConfig {
    if workers > 1 {
        let per = cfg.max_flows / workers;
        cfg.max_flows = (per + per / 4 + cfg.syn_backlog).clamp(1, cfg.max_flows);
        cfg.syn_backlog = cfg.syn_backlog.min(cfg.max_flows);
    }
    cfg
}

/// What one worker thread hands back at shutdown.
struct WorkerExit {
    /// Final conntrack counters (post-audit), when tracking ran.
    ct_stats: Option<ConntrackStats>,
    /// Final load-balancer counters, when balancing ran.
    lb_stats: Option<LbStats>,
    /// Combined fault-log digest: the worker's stall injector folded with
    /// its conntrack shard's injector.
    fault_digest: u64,
}

/// One worker's receive-process loop, monomorphized on `OBS` so the
/// `instrument: false` configuration compiles a fast path containing zero
/// observability code — the E11 baseline. Every batch runs
/// [`pipeline::process_batch`] with the worker's stages (its conntrack
/// shard and load-balancer pool, when configured) against one consistent
/// route state, a copy-on-write snapshot pinned for the batch. Drained
/// batches go back to the dispatcher through `recycle`; the send is
/// best-effort because at shutdown the dispatcher drops its receiver first.
#[allow(clippy::too_many_arguments)]
fn worker_loop<const OBS: bool>(
    rx: &Receiver<Batch>,
    recycle: &Sender<Batch>,
    routes: &RouteReader<PortId>,
    shared: &Counters,
    cache_slots: usize,
    mut ct: Option<Conntrack>,
    mut lb: Option<BackendPool>,
    mut injector: Option<FaultInjector>,
) -> WorkerExit {
    let mut cache = (cache_slots > 0).then(|| FlowCache::new(cache_slots));
    let mut forward = |port: PortId| {
        if let Some(cell) = shared.per_port.get(usize::from(port)) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
    };
    let t0 = Instant::now();
    while let Ok(mut batch) = rx.recv() {
        if let Some(inj) = &mut injector {
            if inj.should_fail(SITE_NET_WORKER_STALL) {
                shared.injected_stalls.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let occupancy = batch.frames.len();
        let now_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Adopt the dispatcher's causal context (no-op for untraced
        // batches): the pipeline's staged spans record under it.
        let _ctx = if OBS {
            Some(sysobs::context::enter_packed(batch.ctx))
        } else {
            None
        };
        let frames = &mut batch.frames;
        let stages = ct.as_mut().map(|ct| (ct, lb.as_mut()));
        // Pin once per batch: two SeqCst loads, then every lookup in the
        // batch walks the frozen snapshot lock-free.
        let stats = pipeline::process_batch::<OBS, PortId>(
            frames,
            &routes.pin(),
            cache.as_mut(),
            stages,
            now_ns,
            &mut forward,
        );
        // Control-plane work rides between batches, never inside the
        // per-packet loop: the shard's watchdog sweep, then the pool's
        // health probes, whose death verdicts eject the backend's flows so
        // retries re-select.
        if let Some(ct) = ct.as_mut() {
            if ct.due_sweep(now_ns) {
                ct.sweep(now_ns);
            }
        }
        if let (Some(pool), Some(ct)) = (lb.as_mut(), ct.as_mut()) {
            let mut freed = 0usize;
            for &b in pool.maybe_probe(now_ns) {
                freed += ct.eject_backend(b, EvictCause::BackendDead);
            }
            if freed > 0 {
                pool.note_flows_ejected(freed);
            }
        }
        shared.apply(&stats, occupancy);
        if let Some(c) = &cache {
            shared.store_cache(c);
        }
        if let (true, Some(at)) = (OBS, batch.submitted) {
            let ns = u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX);
            sysobs::obs_hist!("net.batch_latency_ns", ns);
        }
        let _ = recycle.send(batch);
    }
    let mut fault_digest = injector.map_or(0, |inj| inj.log().digest());
    let ct_stats = ct.map(|mut ct| {
        if OBS {
            ct.withdraw_gauges();
        }
        // Shutdown audit: campaigns read invariant_violations out of the
        // merged stats, so a corrupted shard cannot exit silently.
        ct.audit();
        fault_digest = fault_digest.rotate_left(1) ^ ct.fault_digest();
        *ct.stats()
    });
    let lb_stats = lb.map(|pool| *pool.stats());
    WorkerExit {
        ct_stats,
        lb_stats,
        fault_digest,
    }
}

/// The sharded router: dispatcher-side handle. Create with
/// [`ShardedRouter::start`], feed with [`ShardedRouter::submit`], and close
/// with [`ShardedRouter::finish`].
pub struct ShardedRouter {
    /// The live route table every worker pins and every updater publishes
    /// into.
    routes: Arc<CowRouteTable<PortId>>,
    senders: Vec<Sender<Batch>>,
    recycle_rx: Vec<Receiver<Batch>>,
    handles: Vec<JoinHandle<WorkerExit>>,
    counters: Vec<Arc<Counters>>,
    /// Dispatcher-side injector (frame-drop and recycle-loss sites).
    dispatch_injector: Option<FaultInjector>,
    /// Injection counts accumulated dispatcher-side.
    fault: NetFaultStats,
    pending: Vec<Vec<Vec<u8>>>,
    /// Batches dispatched per worker (for the queue-occupancy estimate).
    dispatched: Vec<u64>,
    /// Cached adaptive batch target, refreshed at each dispatch (so the
    /// per-frame submit path does no arithmetic beyond one compare).
    target: usize,
    /// Batches that bounced off a full worker queue, awaiting retry in
    /// dispatch order.
    stalled: Vec<VecDeque<Batch>>,
    /// Recycled frame buffers ready for refill.
    free_frames: Vec<Vec<u8>>,
    /// Recycled (empty) batch containers ready for refill.
    free_batches: Vec<Vec<Vec<u8>>>,
    pool: PoolStats,
    batch_size: usize,
    queue_depth: usize,
    /// Total frame buffers the dispatcher will create before it waits for
    /// workers to recycle instead — the pool's region bound. Backpressure
    /// flows through the pool: an exhausted budget blocks the feed until a
    /// worker returns a batch, which also keeps memory flat.
    frame_budget: u64,
    /// Mirrors [`RouterConfig::instrument`]: gates the dispatcher-side
    /// trace-root draw so the `instrument: false` baseline stays free of
    /// observability calls on the dispatch path too.
    instrument: bool,
}

impl ShardedRouter {
    /// Spawns `config.workers` worker threads over the given routing table
    /// and port count, each consuming from its own bounded channel.
    ///
    /// # Panics
    ///
    /// Panics if any config knob is zero (`cache_slots` may be zero) or a
    /// worker thread cannot spawn.
    #[must_use]
    pub fn start(table: TrieTable<PortId>, ports: usize, config: RouterConfig) -> Self {
        assert!(config.workers >= 1, "router needs at least one worker");
        assert!(config.batch_size >= 1, "batch size must be nonzero");
        assert!(config.queue_depth >= 1, "queue depth must be nonzero");
        assert!(
            config.lb.is_none() || config.conntrack.is_some(),
            "lb requires conntrack: rewrite state lives in the flow entries"
        );
        let routes = Arc::new(CowRouteTable::from_trie(&table));
        // One cross-shard gauge caps the router-wide live-entry count at
        // `max_flows`; each worker shard charges it before inserting.
        let ct_shared = config
            .conntrack
            .as_ref()
            .map(|c| Arc::new(ConntrackShared::new(c.max_flows as u64)));
        let mut senders = Vec::with_capacity(config.workers);
        let mut recycle_rx = Vec::with_capacity(config.workers);
        let mut handles = Vec::with_capacity(config.workers);
        let mut counters = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let (tx, rx) = bounded::<Batch>(config.queue_depth);
            // Unbounded: the worker must never block returning a buffer.
            // In-flight batches (≤ queue_depth + stalled cap) bound it.
            let (back_tx, back_rx) = channel::<Batch>();
            let worker_routes = routes.reader();
            let worker_counters = Arc::new(Counters::new(ports));
            let shared = Arc::clone(&worker_counters);
            let slots = config.cache_slots;
            let name = format!("sysnet-worker-{i}");
            // Per-worker injector seeds derive from the worker name, so a
            // campaign replays per worker no matter how flows shard.
            let derived_plan = config.fault_plan.as_ref().map(|p| {
                let mut plan = p.clone();
                plan.seed ^= sysobs::fnv1a(name.as_bytes());
                plan
            });
            let worker_ct = config.conntrack.map(|c| {
                let mut ct = Conntrack::new(shard_conntrack_config(c, config.workers));
                if let Some(shared) = &ct_shared {
                    ct = ct.with_shared(Arc::clone(shared));
                }
                match &derived_plan {
                    Some(plan) => ct.with_injector(FaultInjector::new(plan.clone())),
                    None => ct,
                }
            });
            let worker_lb = config.lb.clone().map(|c| {
                let pool = BackendPool::new(c);
                match &derived_plan {
                    Some(plan) => pool.with_injector(FaultInjector::new(plan.clone())),
                    None => pool,
                }
            });
            let worker_injector = derived_plan.map(FaultInjector::new);
            let worker = if config.instrument {
                worker_loop::<true>
            } else {
                worker_loop::<false>
            };
            let handle = spawn_named(&name, move || {
                worker(
                    &rx,
                    &back_tx,
                    &worker_routes,
                    &shared,
                    slots,
                    worker_ct,
                    worker_lb,
                    worker_injector,
                )
            });
            senders.push(tx);
            recycle_rx.push(back_rx);
            handles.push(handle);
            counters.push(worker_counters);
        }
        ShardedRouter {
            routes,
            senders,
            recycle_rx,
            handles,
            counters,
            dispatch_injector: config.fault_plan.clone().map(FaultInjector::new),
            fault: NetFaultStats::default(),
            pending: vec![Vec::new(); config.workers],
            dispatched: vec![0; config.workers],
            target: (config.batch_size / 8).max(1),
            stalled: (0..config.workers).map(|_| VecDeque::new()).collect(),
            free_frames: Vec::new(),
            free_batches: Vec::new(),
            pool: PoolStats::default(),
            batch_size: config.batch_size,
            queue_depth: config.queue_depth,
            // Enough for every queue slot, one batch in flight per worker,
            // and one being filled — beyond that, recycle, don't allocate.
            frame_budget: (config.workers * (config.queue_depth + 2) * config.batch_size) as u64,
            instrument: config.instrument,
        }
    }

    /// Dispatcher-side buffer-pool counters so far.
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        self.pool
    }

    /// The live route table as a control-plane handle (safe to move to an
    /// updater thread): an insert or remove is visible to every batch
    /// pinned after the call returns, without stopping or locking the data
    /// plane, and a value-preserving re-insert publishes nothing.
    #[must_use]
    pub fn updater(&self) -> Arc<CowRouteTable<PortId>> {
        Arc::clone(&self.routes)
    }

    /// Queues one frame (copied into a pooled buffer), dispatching a batch
    /// to its worker when the adaptive threshold fills.
    pub fn submit(&mut self, frame: &[u8]) {
        if let Some(inj) = &mut self.dispatch_injector {
            if inj.should_fail(SITE_NET_FRAME_DROP) {
                self.fault.injected_frame_drops += 1;
                return;
            }
        }
        let w = shard_of(frame, self.senders.len());
        let mut buf = self.take_frame_buf();
        buf.clear();
        buf.extend_from_slice(frame);
        self.pending[w].push(buf);
        if self.pending[w].len() >= self.target {
            self.dispatch(w);
        }
    }

    /// Flushes all partially filled batches and every requeued batch to
    /// their workers (blocking on full queues — flush is a barrier, not a
    /// fast path).
    pub fn flush(&mut self) {
        for w in 0..self.pending.len() {
            self.dispatch(w);
            self.pump_stalled(w, true);
        }
    }

    /// A frame buffer from the pool; allocates fresh only while under the
    /// frame budget (warm-up). At the budget with an empty pool, every
    /// missing buffer is inside a worker, so the dispatcher blocks on the
    /// busiest worker's recycle channel — backpressure through the pool.
    fn take_frame_buf(&mut self) -> Vec<u8> {
        loop {
            if let Some(buf) = self.free_frames.pop() {
                self.pool.frames_reused += 1;
                return buf;
            }
            self.drain_recycled();
            if !self.free_frames.is_empty() {
                continue;
            }
            if self.pool.frames_allocated < self.frame_budget {
                self.pool.frames_allocated += 1;
                return Vec::new();
            }
            // Budget spent and nothing recycled yet: every missing buffer
            // is inside a worker, so wait for batches to come back. The
            // hysteresis (recover half the budget, not one batch) matters
            // on few-core hosts: one long sleep amortizes a context switch
            // over many batches where a per-batch wake would pay it every
            // time.
            let target = (self.frame_budget / 2).max(self.batch_size as u64);
            while (self.free_frames.len() as u64) < target {
                let Some(w) = self.max_in_flight_worker() else {
                    break;
                };
                let Ok(batch) = self.recycle_rx[w].recv() else {
                    break;
                };
                self.absorb_recycled(batch);
                self.drain_recycled();
            }
            if self.free_frames.is_empty() {
                // No worker holds a batch (the rest are dispatcher-held,
                // pending or requeued): allocation is the only way forward.
                self.pool.frames_allocated += 1;
                return Vec::new();
            }
        }
    }

    /// The worker with the most dispatched-but-unprocessed batches (those
    /// are guaranteed to come back on its recycle channel), if any.
    fn max_in_flight_worker(&self) -> Option<usize> {
        let mut best = None;
        let mut best_depth = 0u64;
        for w in 0..self.senders.len() {
            let done = self.counters[w].batches.load(Ordering::Relaxed);
            let depth = self.dispatched[w].saturating_sub(done);
            if depth > best_depth {
                best_depth = depth;
                best = Some(w);
            }
        }
        best
    }

    /// An empty batch container from the pool, or a fresh one.
    fn take_batch_buf(&mut self) -> Vec<Vec<u8>> {
        if let Some(buf) = self.free_batches.pop() {
            self.pool.batches_reused += 1;
            buf
        } else {
            self.pool.batches_allocated += 1;
            Vec::new()
        }
    }

    /// Folds one returned batch into the pools — unless the recycle-loss
    /// site eats it, in which case the buffers leave the budget's books too
    /// (so replacements can be allocated and backpressure stays live).
    fn absorb_recycled(&mut self, mut batch: Batch) {
        if let Some(inj) = &mut self.dispatch_injector {
            if inj.should_fail(SITE_NET_RECYCLE_LOSS) {
                self.fault.recycle_losses += 1;
                self.fault.frames_lost += batch.frames.len() as u64;
                self.pool.frames_allocated = self
                    .pool
                    .frames_allocated
                    .saturating_sub(batch.frames.len() as u64);
                return;
            }
        }
        self.free_frames.append(&mut batch.frames);
        self.free_batches.push(batch.frames);
    }

    /// Pulls every batch the workers have returned back into the pools.
    fn drain_recycled(&mut self) {
        for w in 0..self.recycle_rx.len() {
            while let Ok(batch) = self.recycle_rx[w].try_recv() {
                self.absorb_recycled(batch);
            }
        }
    }

    /// The batch size the next dispatch should aim for, from the pool's
    /// occupancy: `outstanding` counts every frame currently downstream of
    /// `submit` (pending, queued, processing, requeued), which is the
    /// router-wide backlog. A lightly loaded router gets shallow batches so
    /// the first packets of a burst don't wait for a full one (latency); a
    /// backlogged one gets full batches (throughput — shallow batches under
    /// backlog just multiply channel hand-offs).
    fn target_batch_size(&self) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        let outstanding =
            (self.pool.frames_allocated as usize).saturating_sub(self.free_frames.len());
        // Two batches per worker of backlog is already saturation: batches
        // should be full from there on. Below it, scale down linearly.
        let saturated = (2 * self.senders.len() * self.batch_size).max(1);
        let scaled = self.batch_size * outstanding / saturated;
        scaled.clamp((self.batch_size / 8).max(1), self.batch_size)
    }

    fn dispatch(&mut self, w: usize) {
        // Retry requeued batches first so per-worker dispatch order holds.
        self.pump_stalled(w, false);
        if self.pending[w].is_empty() {
            return;
        }
        let replacement = self.take_batch_buf();
        let frames = std::mem::replace(&mut self.pending[w], replacement);
        // Root a sampled causal trace here, at the earliest point a batch
        // exists: the 1-in-N draw happens once per batch, and a winning
        // batch carries the packed context across the channel so the
        // worker's parse→route→egress spans join this dispatch span.
        let mut ctx = 0u64;
        if self.instrument {
            let _root = sysobs::obs_trace_root!("net.dispatch");
            sysobs::obs_span_hot!("net.dispatch");
            ctx = sysobs::context::current_packed();
        }
        let batch = Batch {
            frames,
            submitted: self.instrument.then(Instant::now),
            ctx,
        };
        self.offer(w, batch);
        self.target = self.target_batch_size();
    }

    /// Hands a batch to worker `w` without blocking: a full queue requeues
    /// the batch (bounded; overflow falls back to one blocking send so
    /// dispatcher memory cannot grow without limit).
    fn offer(&mut self, w: usize, batch: Batch) {
        if self.stalled[w].is_empty() {
            match self.senders[w].try_send(batch) {
                Ok(()) => {
                    self.dispatched[w] += 1;
                    return;
                }
                Err(TrySendError::Full(b)) => {
                    self.stalled[w].push_back(b);
                    self.pool.stalled_requeues += 1;
                    sysobs::obs_count!("net.dispatch.requeues", 1);
                }
                Err(TrySendError::Disconnected(_)) => {
                    panic!("router worker {w} exited early");
                }
            }
        } else {
            self.stalled[w].push_back(batch);
            self.pool.stalled_requeues += 1;
            sysobs::obs_count!("net.dispatch.requeues", 1);
        }
        if self.stalled[w].len() > STALL_CAP_FACTOR * self.queue_depth {
            let b = self.stalled[w].pop_front().expect("nonempty requeue");
            assert!(
                self.senders[w].send(b).is_ok(),
                "router worker {w} exited early"
            );
            self.dispatched[w] += 1;
        }
    }

    /// Re-dispatches worker `w`'s requeued batches in order; when `block`
    /// is set the send waits on a full queue instead of giving up.
    fn pump_stalled(&mut self, w: usize, block: bool) {
        while let Some(batch) = self.stalled[w].pop_front() {
            match self.senders[w].try_send(batch) {
                Ok(()) => self.dispatched[w] += 1,
                Err(TrySendError::Full(b)) => {
                    if block {
                        assert!(
                            self.senders[w].send(b).is_ok(),
                            "router worker {w} exited early"
                        );
                        self.dispatched[w] += 1;
                    } else {
                        self.stalled[w].push_front(b);
                        return;
                    }
                }
                Err(TrySendError::Disconnected(_)) => {
                    panic!("router worker {w} exited early");
                }
            }
        }
    }

    /// Live aggregate of every worker's counters (racy between workers —
    /// for monitoring; the authoritative totals come from
    /// [`ShardedRouter::finish`]).
    #[must_use]
    pub fn snapshot(&self) -> RouterStats {
        let per_worker: Vec<WorkerStats> = self.counters.iter().map(|c| c.snapshot()).collect();
        let mut totals = WorkerStats::default();
        for w in &per_worker {
            totals.merge(w);
        }
        RouterStats { per_worker, totals }
    }

    /// Flushes pending batches, shuts the workers down, and returns the
    /// final report (worker, pool, conntrack, balancer and epoch counters).
    #[must_use]
    pub fn finish(mut self) -> RouterReport {
        self.flush();
        drop(std::mem::take(&mut self.senders)); // workers exit on disconnect
        let mut conntrack: Option<ConntrackStats> = None;
        let mut lb: Option<LbStats> = None;
        let mut faults = self.fault;
        for handle in std::mem::take(&mut self.handles) {
            let exit = handle.join().expect("router worker panicked");
            if let Some(ct) = &exit.ct_stats {
                conntrack
                    .get_or_insert_with(ConntrackStats::default)
                    .merge(ct);
            }
            if let Some(l) = &exit.lb_stats {
                lb.get_or_insert_with(LbStats::default).merge(l);
            }
            faults.worker_digest = faults.worker_digest.rotate_left(1) ^ exit.fault_digest;
        }
        let stats = self.snapshot();
        faults.injected_stalls = stats.totals.injected_stalls;
        faults.dispatch_digest = self
            .dispatch_injector
            .as_ref()
            .map_or(0, |inj| inj.log().digest());
        let t = &self.routes;
        let cow = CowEpochStats {
            publications: t.publications(),
            spine_recycled: t.spine_recycled(),
            pending_reclaim: t.pending_reclaim() as u64,
            pinned_readers: t.pinned_readers() as u64,
            advance_stalls: t.advance_stalls(),
        };
        RouterReport {
            stats,
            pool: self.pool,
            conntrack,
            lb,
            faults,
            cow,
        }
    }
}

/// The timing record of one [`run_trial`] run, computed the same way for
/// every harness.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall clock from router start to the joined workers' report.
    pub elapsed: Duration,
    /// Frames submitted per wall-clock second.
    pub pps: f64,
    /// Heap allocations per frame over the second half of the stream (pool
    /// warm by then); `None` without an allocation counter.
    pub steady_allocs_per_packet: Option<f64>,
}

/// The dispatcher side of a running trial: the feed submits every frame
/// through it, and it reads the allocation counter once, just before the
/// first frame of the stream's second half.
pub struct Feed {
    router: ShardedRouter,
    submitted: usize,
    half: usize,
    alloc_counter: Option<fn() -> u64>,
    allocs_mid: Option<u64>,
}

impl Feed {
    /// Submits one frame to the router.
    pub fn submit(&mut self, frame: &[u8]) {
        if self.submitted == self.half {
            self.allocs_mid = self.alloc_counter.map(|f| f());
        }
        self.router.submit(frame);
        self.submitted += 1;
    }

    /// Submits every frame of `frames`, in order.
    pub fn submit_all(&mut self, frames: &[Vec<u8>]) {
        for frame in frames {
            self.submit(frame);
        }
    }

    /// The running router's live route table ([`ShardedRouter::updater`]).
    #[must_use]
    pub fn updater(&self) -> Arc<CowRouteTable<PortId>> {
        self.router.updater()
    }
}

/// The trial driver: starts a router over `table`, lets `feed` submit the
/// stream, finishes the router, and returns its report, the shared
/// [`Timing`], and whatever `feed` returned. `frames` is the stream length
/// the feed expects to offer: the allocation counter, when supplied, is
/// read after `frames / 2` of them and again before finish, so it brackets
/// the second half — the pool and caches are warm by then, and the
/// steady state's allocations are measured, not asserted.
///
/// # Panics
///
/// Panics if packets were not conserved: forwarded frames plus every typed
/// drop plus the frames the dispatcher's fault site dropped must equal the
/// frames submitted.
#[allow(clippy::cast_precision_loss)]
pub fn run_trial<R>(
    table: TrieTable<PortId>,
    ports: usize,
    config: RouterConfig,
    frames: usize,
    alloc_counter: Option<fn() -> u64>,
    feed: impl FnOnce(&mut Feed) -> R,
) -> (RouterReport, Timing, R) {
    let t0 = Instant::now();
    let mut f = Feed {
        router: ShardedRouter::start(table, ports, config),
        submitted: 0,
        half: frames / 2,
        alloc_counter,
        allocs_mid: None,
    };
    let out = feed(&mut f);
    // Read before finish(): report assembly allocates, the steady state
    // does not.
    let allocs_end = alloc_counter.map(|c| c());
    let report = f.router.finish();
    let elapsed = t0.elapsed();
    let t = &report.stats.totals;
    assert_eq!(
        t.forwarded + t.dropped_total() + report.faults.injected_frame_drops,
        f.submitted as u64,
        "packet conservation: forwarded + typed drops + injected drops != submitted"
    );
    let steady_allocs_per_packet = match (f.allocs_mid, allocs_end) {
        (Some(a), Some(b)) if f.submitted > f.half => {
            Some(b.saturating_sub(a) as f64 / (f.submitted - f.half) as f64)
        }
        _ => None,
    };
    let timing = Timing {
        elapsed,
        pps: f.submitted as f64 / elapsed.as_secs_f64().max(1e-9),
        steady_allocs_per_packet,
    };
    (report, timing, out)
}

/// Convenience driver: one [`run_trial`] that feeds the
/// whole stream, returning the report plus the wall-clock duration (for
/// throughput math). Frames are borrowed — the router copies each into its
/// pooled buffers, so the caller's stream can be reused across runs
/// without cloning.
#[must_use]
pub fn run_stream(
    table: TrieTable<PortId>,
    ports: usize,
    config: RouterConfig,
    frames: &[Vec<u8>],
) -> (RouterReport, Duration) {
    let (report, timing, ()) = run_trial(table, ports, config, frames.len(), None, |feed| {
        feed.submit_all(frames);
    });
    (report, timing.elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DropReason;
    use sysrepr::packet::PacketBuilder;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    fn table() -> TrieTable<PortId> {
        let mut t = TrieTable::new();
        t.insert(ip(10, 0, 0, 0), 8, 0).unwrap();
        t.insert(ip(10, 1, 0, 0), 16, 1).unwrap();
        t.insert(0, 0, 2).unwrap();
        t
    }

    fn stream(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                #[allow(clippy::cast_possible_truncation)]
                let flow = (i % 61) as u8;
                let mut b = PacketBuilder::udp()
                    .src_ip([172, 16, 0, flow])
                    .dst_ip([10, flow % 3, flow, 1])
                    .payload(&[0xAB; 48]);
                if i % 50 == 0 {
                    b = b.corrupt_checksum();
                }
                b.build()
            })
            .collect()
    }

    #[test]
    fn single_worker_conserves_and_counts() {
        let frames = stream(500);
        let (report, _) = run_stream(table(), 3, RouterConfig::default(), &frames);
        let t = &report.stats.totals;
        assert_eq!(t.total_frames(), 500);
        assert_eq!(t.dropped[DropReason::BadChecksum as usize], 10);
        assert_eq!(t.forwarded, 490);
        assert_eq!(t.per_port.iter().sum::<u64>(), 490);
        // 61 flows over 500 packets: the cache must be doing real work.
        assert!(t.cache_hits > 0, "repeated flows must hit the cache");
        assert!(report.cache_hit_rate() > 0.5, "{}", report.cache_hit_rate());
    }

    #[test]
    fn sharded_workers_agree_with_single_worker() {
        let frames = stream(1200);
        let single = run_stream(
            table(),
            3,
            RouterConfig {
                workers: 1,
                ..RouterConfig::default()
            },
            &frames,
        )
        .0;
        let sharded = run_stream(
            table(),
            3,
            RouterConfig {
                workers: 4,
                ..RouterConfig::default()
            },
            &frames,
        )
        .0;
        // Same totals no matter how the flows shard.
        assert_eq!(
            single.stats.totals.forwarded,
            sharded.stats.totals.forwarded
        );
        assert_eq!(single.stats.totals.dropped, sharded.stats.totals.dropped);
        assert_eq!(single.stats.totals.per_port, sharded.stats.totals.per_port);
        assert_eq!(sharded.stats.per_worker.len(), 4);
        // More than one worker actually saw traffic.
        let active = sharded
            .stats
            .per_worker
            .iter()
            .filter(|w| w.total_frames() > 0)
            .count();
        assert!(active > 1, "flow hashing must spread flows across workers");
    }

    #[test]
    fn one_shard_spreads_over_its_whole_flow_cache() {
        // 16 384 flows over 4 workers: one shard's ~4 096 flows should fill
        // about as many of a 4 096-slot cache as a uniform hash would
        // (1 − 1/e of them), not the quarter whose index bits equal the
        // shard number.
        const WORKERS: usize = 4;
        let cache = FlowCache::<PortId>::new(4096);
        let mut slots = std::collections::HashSet::new();
        let mut flows = 0usize;
        for i in 0..16_384u32 {
            let (src, dst) = (
                0x0A09_0000 | i,
                0x0A01_0000 | (i.wrapping_mul(7919) & 0xFFFF),
            );
            let frame = PacketBuilder::udp()
                .src_ip(src.to_be_bytes())
                .dst_ip(dst.to_be_bytes())
                .build();
            if shard_of(&frame, WORKERS) == 0 {
                flows += 1;
                slots.insert(cache.slot_of(src, dst));
            }
        }
        let m = cache.capacity() as f64;
        let uniform = m * (1.0 - (1.0 - 1.0 / m).powf(flows as f64));
        assert!(
            slots.len() as f64 >= 0.9 * uniform,
            "{} flows filled {} slots; a uniform hash fills {uniform:.0}",
            flows,
            slots.len()
        );
    }

    #[test]
    fn cache_disabled_config_agrees_with_cached() {
        let frames = stream(800);
        let cached = run_stream(table(), 3, RouterConfig::default(), &frames).0;
        let uncached = run_stream(
            table(),
            3,
            RouterConfig {
                cache_slots: 0,
                ..RouterConfig::default()
            },
            &frames,
        )
        .0;
        assert_eq!(
            cached.stats.totals.forwarded,
            uncached.stats.totals.forwarded
        );
        assert_eq!(cached.stats.totals.per_port, uncached.stats.totals.per_port);
        assert_eq!(uncached.stats.totals.cache_hits, 0);
        assert_eq!(uncached.stats.totals.cache_misses, 0);
    }

    #[test]
    fn buffers_recycle_after_warmup() {
        let frames = stream(4096);
        let (report, _) = run_stream(
            table(),
            3,
            RouterConfig {
                workers: 1,
                batch_size: 32,
                ..RouterConfig::default()
            },
            &frames,
        );
        let pool = report.pool;
        assert!(
            pool.frames_reused > pool.frames_allocated * 2,
            "steady state must reuse, not allocate: {pool:?}"
        );
        assert!(
            pool.batches_reused > 0,
            "batch containers must recycle: {pool:?}"
        );
        // Allocation is bounded by what can be in flight at once, not by
        // stream length.
        assert!(
            pool.frames_allocated <= 4 * 8 * 32 + 64,
            "frame allocations must be bounded by in-flight capacity: {pool:?}"
        );
    }

    #[test]
    fn batch_occupancy_is_tracked() {
        let frames = stream(256);
        let cfg = RouterConfig {
            workers: 1,
            batch_size: 32,
            queue_depth: 4,
            ..RouterConfig::default()
        };
        let (report, _) = run_stream(table(), 3, cfg, &frames);
        let w = &report.stats.per_worker[0];
        assert_eq!(w.occupancy_sum, 256);
    }

    #[test]
    fn uninstrumented_baseline_agrees_with_instrumented() {
        let frames = stream(800);
        let on = run_stream(table(), 3, RouterConfig::default(), &frames).0;
        let off = run_stream(
            table(),
            3,
            RouterConfig {
                instrument: false,
                ..RouterConfig::default()
            },
            &frames,
        )
        .0;
        assert_eq!(on.stats.totals.forwarded, off.stats.totals.forwarded);
        assert_eq!(on.stats.totals.dropped, off.stats.totals.dropped);
        assert_eq!(on.stats.totals.per_port, off.stats.totals.per_port);
    }

    #[test]
    fn snapshot_is_readable_mid_run() {
        let mut router = ShardedRouter::start(table(), 3, RouterConfig::default());
        for frame in stream(200) {
            router.submit(&frame);
        }
        router.flush();
        // Not a synchronization point — just must not panic or tear.
        let snap = router.snapshot();
        assert!(snap.totals.total_frames() <= 200);
        let report = router.finish();
        assert_eq!(report.stats.totals.total_frames(), 200);
    }

    fn tcp_stream(flows: usize, data_per_flow: usize) -> Vec<Vec<u8>> {
        use sysrepr::packet::{TCP_ACK, TCP_SYN};
        let mut frames = Vec::new();
        for f in 0..flows {
            #[allow(clippy::cast_possible_truncation)]
            let (hi, lo) = ((f >> 8) as u8, (f & 0xFF) as u8);
            let mk = |flags: u8| {
                PacketBuilder::tcp()
                    .src_ip([172, 16, hi, lo])
                    .dst_ip([10, lo % 3, hi, 1])
                    .src_port(20_000)
                    .dst_port(443)
                    .tcp_flags(flags)
                    .payload(&[0x5A; 32])
                    .build()
            };
            frames.push(mk(TCP_SYN));
            for _ in 0..data_per_flow {
                frames.push(mk(TCP_ACK));
            }
        }
        frames
    }

    #[test]
    fn tracked_router_admits_handshaked_flows_and_sheds_strays() {
        use crate::conntrack::ConntrackConfig;
        let flows = 40;
        let data = 4;
        let mut frames = tcp_stream(flows, data);
        // Stray bare ACKs on flows that never sent a SYN: must be shed
        // with NoFlow, per worker, without disturbing tracked flows.
        for s in 0..10u8 {
            frames.push(
                PacketBuilder::tcp()
                    .src_ip([9, 9, 9, s])
                    .dst_ip([10, 0, s, 1])
                    .build(),
            );
        }
        let cfg = RouterConfig {
            workers: 4,
            conntrack: Some(ConntrackConfig::default()),
            ..RouterConfig::default()
        };
        let (report, _) = run_stream(table(), 3, cfg, &frames);
        let t = &report.stats.totals;
        assert_eq!(t.total_frames(), frames.len() as u64);
        assert_eq!(t.forwarded, (flows * (1 + data)) as u64);
        assert_eq!(t.dropped[DropReason::NoFlow as usize], 10);
        let ct = report.conntrack.expect("tracking ran");
        assert_eq!(ct.flows_created, flows as u64);
        assert_eq!(ct.flows_promoted, flows as u64);
        assert_eq!(ct.invariant_violations, 0);
        // Flow sharding keeps each flow's packets on one worker, so the
        // tracked totals agree with a single-worker run.
        let single = run_stream(
            table(),
            3,
            RouterConfig {
                workers: 1,
                conntrack: Some(ConntrackConfig::default()),
                ..RouterConfig::default()
            },
            &frames,
        )
        .0;
        assert_eq!(single.stats.totals.forwarded, t.forwarded);
        assert_eq!(single.stats.totals.dropped, t.dropped);
    }

    #[test]
    fn untracked_router_reports_no_conntrack() {
        let frames = stream(100);
        let (report, _) = run_stream(table(), 3, RouterConfig::default(), &frames);
        assert!(report.conntrack.is_none());
        assert_eq!(report.faults, NetFaultStats::default());
    }

    #[test]
    fn injected_frame_drops_are_counted_not_lost() {
        use sysfault::{FaultPlan, Schedule};
        let frames = stream(400);
        let cfg = RouterConfig {
            fault_plan: Some(
                FaultPlan::new(0xD0_D0).with_site(SITE_NET_FRAME_DROP, Schedule::EveryNth(10)),
            ),
            ..RouterConfig::default()
        };
        let (report, _) = run_stream(table(), 3, cfg, &frames);
        assert_eq!(report.faults.injected_frame_drops, 40);
        // Conservation including the injected drops: nothing vanishes
        // unaccounted.
        assert_eq!(
            report.stats.totals.total_frames() + report.faults.injected_frame_drops,
            frames.len() as u64
        );
    }

    #[test]
    fn injected_stalls_and_recycle_loss_degrade_gracefully() {
        use crate::conntrack::ConntrackConfig;
        use sysfault::{FaultPlan, Schedule};
        let frames = tcp_stream(60, 30);
        let plan = FaultPlan::new(0xBEEF)
            .with_site(SITE_NET_WORKER_STALL, Schedule::EveryNth(7))
            .with_site(SITE_NET_RECYCLE_LOSS, Schedule::EveryNth(5));
        let cfg = RouterConfig {
            workers: 2,
            batch_size: 16,
            conntrack: Some(ConntrackConfig::default()),
            fault_plan: Some(plan),
            ..RouterConfig::default()
        };
        let (report, _) = run_stream(table(), 3, cfg, &frames);
        // Every frame still forwarded or attributed despite stalls and
        // lost buffers — the campaign degrades service, never correctness.
        assert_eq!(report.stats.totals.total_frames(), frames.len() as u64);
        assert!(report.faults.injected_stalls > 0, "{:?}", report.faults);
        assert!(report.faults.recycle_losses > 0, "{:?}", report.faults);
        let ct = report.conntrack.expect("tracking ran");
        assert_eq!(ct.invariant_violations, 0);
    }

    #[test]
    fn fault_campaigns_replay_identically_from_their_seed() {
        use crate::conntrack::ConntrackConfig;
        use sysfault::{FaultPlan, Schedule};
        let frames = tcp_stream(50, 10);
        let mk = |seed: u64| RouterConfig {
            workers: 2,
            conntrack: Some(ConntrackConfig::default()),
            fault_plan: Some(
                FaultPlan::new(seed)
                    .with_site(SITE_NET_FRAME_DROP, Schedule::Probability(0.02))
                    .with_site(crate::conntrack::SITE_CT_TABLE_FULL, Schedule::EveryNth(40)),
            ),
            ..RouterConfig::default()
        };
        let a = run_stream(table(), 3, mk(77), &frames).0;
        let b = run_stream(table(), 3, mk(77), &frames).0;
        assert_eq!(a.faults.dispatch_digest, b.faults.dispatch_digest);
        assert_eq!(a.faults.worker_digest, b.faults.worker_digest);
        assert_eq!(a.faults.injected_frame_drops, b.faults.injected_frame_drops);
        let c = run_stream(table(), 3, mk(78), &frames).0;
        assert_ne!(
            (a.faults.dispatch_digest, a.faults.worker_digest),
            (c.faults.dispatch_digest, c.faults.worker_digest),
            "different seed, different campaign"
        );
    }

    #[test]
    fn live_updates_reach_workers_and_the_report_counts_them() {
        let cfg = RouterConfig {
            workers: 2,
            ..RouterConfig::default()
        };
        let mut router = ShardedRouter::start(table(), 4, cfg);
        let updater = router.updater();
        let dst = [10u8, 200, 7, 7]; // matches only the 10/8 → port 0
        let mk = |s: u8| {
            PacketBuilder::udp()
                .src_ip([172, 16, 1, s])
                .dst_ip(dst)
                .build()
        };
        for s in 0..50u8 {
            router.submit(&mk(s));
        }
        router.flush();
        // Flush dispatches but does not wait; the update below must not
        // overtake in-flight batches or the port split is ambiguous.
        while router.snapshot().totals.total_frames() < 50 {
            std::thread::yield_now();
        }
        let before = updater.publications();
        // Redirect 10.200/16 to port 3; every batch pinned after this call
        // returns must route dst to port 3.
        assert_eq!(updater.insert(ip(10, 200, 0, 0), 16, 3).unwrap(), None);
        assert_eq!(updater.publications(), before + 1);
        // A value-preserving re-insert publishes nothing: the workers'
        // caches are not nuked a second time.
        assert_eq!(updater.insert(ip(10, 200, 0, 0), 16, 3).unwrap(), Some(3));
        assert_eq!(updater.publications(), before + 1);
        for s in 0..50u8 {
            router.submit(&mk(s));
        }
        let report = router.finish();
        let t = &report.stats.totals;
        assert_eq!(t.total_frames(), 100);
        assert_eq!(t.per_port[0], 50, "pre-update frames → /8");
        assert_eq!(t.per_port[3], 50, "post-update frames → new /16");
        assert!(
            t.cache_invalidations >= 1,
            "the publication must invalidate worker caches"
        );
        // The epoch counters are unconditional: the report carries the
        // updater's publication count, and every worker unpinned on exit.
        assert_eq!(report.cow.publications, updater.publications());
        assert_eq!(report.cow.publications, before + 1);
        assert_eq!(report.cow.pinned_readers, 0, "{:?}", report.cow);
    }

    #[test]
    fn cow_mode_attributes_churn_misses() {
        // One worker, repeated flows, then a route flap: the refill misses
        // after the flap must be attributed to invalidation.
        let cfg = RouterConfig {
            workers: 1,
            ..RouterConfig::default()
        };
        let mut router = ShardedRouter::start(table(), 4, cfg);
        let updater = router.updater();
        let frames = stream(400);
        for f in &frames {
            router.submit(f);
        }
        router.flush();
        updater.insert(ip(10, 250, 0, 0), 16, 3).unwrap();
        for f in &frames {
            router.submit(f);
        }
        let report = router.finish();
        let t = &report.stats.totals;
        assert!(
            t.cache_invalidation_misses > 0,
            "post-flap refills must be attributed: {t:?}"
        );
        assert!(t.cache_invalidation_misses <= t.cache_misses);
    }

    #[test]
    fn tiny_queue_and_batch_still_conserve() {
        // Worst case for the requeue path: 4 workers, queue depth 1,
        // batch 1 — every dispatch races a full queue.
        let frames = stream(300);
        let cfg = RouterConfig {
            workers: 4,
            batch_size: 1,
            queue_depth: 1,
            ..RouterConfig::default()
        };
        let (report, _) = run_stream(table(), 3, cfg, &frames);
        assert_eq!(report.stats.totals.total_frames(), 300);
        assert!(
            report.pool.stalled_requeues > 0,
            "depth-1 queues must exercise the requeue path: {:?}",
            report.pool
        );
    }
}
