//! The data-plane harness shared by `fwd-min`, `lb-nat` and `syn-flood`:
//! program state, the closed-loop step, per-frame output checks, and the
//! traced stage ladder.
//!
//! One thread does everything. A step forges a 64-frame batch (untimed),
//! then calls the program: periodic control work first (route churn,
//! conntrack sweep, health probes), then one batch call through a pinned
//! route view. Only the time inside those calls is busy time.

use crate::alloc::allocs;
use crate::gen::{self, be32, Frame, IP};
use crate::measure::{Clock, Step};
use crate::trace::{close, open, Trace, ROOT};
use std::sync::Arc;
use sysnet::conntrack::{EvictCause, FlowKey};
use sysnet::lb::process_batch_lb;
use sysnet::pipeline::{process_batch_cached, process_batch_tracked, DROP_REASONS};
use sysnet::router::PortId;
use sysnet::{
    BackendPool, BatchStats, Conntrack, ConntrackConfig, CowRouteTable, DropReason, FlowCache,
    LbConfig, RouteReader, Routes, TrieTable,
};
use sysrepr::packet::{EthernetView, EthernetViewMut, IPPROTO_TCP, IPPROTO_UDP};

/// Frames per batch.
pub const BATCH: usize = 64;
/// Virtual time one batch advances the clock the program sees.
pub const VBATCH_NS: u64 = 10_000;
/// Batches per measurement window. A window holds 8 route publications,
/// 4 conntrack sweeps and 2 probe rounds, so every periodic cost the
/// program has between batches lands in every window.
pub const WINDOW: u64 = 4096;
/// Batches between route-churn publications.
pub const CHURN_EVERY: u64 = 512;
/// Conntrack sweep interval.
pub const SWEEP_NS: u64 = 1024 * VBATCH_NS;
/// Backend health-probe interval.
pub const PROBE_NS: u64 = 2048 * VBATCH_NS;
/// Output ports tracked by the checks (every workload uses fewer).
pub const PORTS: usize = 16;
/// Flow-cache slots (the router's default).
pub const CACHE_SLOTS: usize = 4096;
/// Every this many batches, one forwarded frame is re-parsed in full.
const SAMPLE_EVERY: u64 = 4;

/// What the generator expects the program to do with one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Forward to this port.
    Forward(PortId),
    /// Drop for this reason.
    Drop(DropReason),
    /// Spoofed attack SYN: forwarding to this port, or a shed drop
    /// (reasons `NoFlow..=NoBackend`), are both correct.
    Attack(PortId),
}

/// The stand-alone rewrite a forwarded frame needs (traced ladder only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rewrite {
    /// Not rewritten stand-alone.
    None,
    /// TTL decrement only.
    Ttl,
    /// Destination NAT to `(ip, port)`, then TTL.
    Dnat(u32, u16),
    /// Source NAT to `(ip, port)`, then TTL.
    Snat(u32, u16),
}

/// One forged batch and what should become of each frame.
pub struct Batch {
    /// The frames the program processes in place.
    pub frames: Vec<Frame>,
    /// Expected outcome per frame.
    pub exp: Vec<Expect>,
    /// TTL each frame was forged with (a forwarded frame leaves with one
    /// less; a dropped frame is left untouched).
    pub ttl: Vec<u8>,
    /// The stand-alone rewrite per frame.
    pub rewrite: Vec<Rewrite>,
}

impl Batch {
    /// An empty batch whose buffers hold payloads at `payload_off`.
    #[must_use]
    pub fn new(payload_off: usize) -> Self {
        Batch {
            frames: (0..BATCH).map(|_| Frame::new(payload_off)).collect(),
            exp: vec![Expect::Drop(DropReason::Malformed); BATCH],
            ttl: vec![0; BATCH],
            rewrite: vec![Rewrite::None; BATCH],
        }
    }

    /// True when frame `i` left the program forwarded.
    #[must_use]
    pub fn forwarded(&self, i: usize) -> bool {
        let ttl = self.ttl[i];
        ttl > 1 && self.frames[i].as_ref()[IP + 8] == ttl - 1
    }
}

/// A seeded frame stream.
pub trait Stream {
    /// Forges batch number `batch_no` into `b`.
    fn fill(&mut self, b: &mut Batch, batch_no: u64);

    /// Sees the program's output for the batch last filled (frames as the
    /// program left them) and returns the failures it finds. Streams that
    /// model both ends of a connection learn the assigned backend here.
    fn observe(&mut self, _b: &Batch, _pool: Option<&BackendPool>) -> u64 {
        0
    }

    /// A digest of every frame forged so far (same seed, same digest).
    fn digest(&self) -> u64;
}

/// The program state a data-plane workload runs against.
pub struct Plane {
    /// The route table, read through a pinned view per batch.
    pub table: Arc<CowRouteTable<PortId>>,
    /// This thread's registered reader.
    pub reader: RouteReader<PortId>,
    /// The per-worker flow cache.
    pub cache: FlowCache<PortId>,
    /// Connection tracking and load balancing (`lb-nat`, `syn-flood`).
    pub lb: Option<(Conntrack, BackendPool)>,
}

impl Plane {
    /// Builds the state: trie, its copy-on-write publication, the cache,
    /// and (when given) the conntrack slab and backend pool.
    #[must_use]
    pub fn new(routes: &[(u32, u8, PortId)], lb: Option<(ConntrackConfig, LbConfig)>) -> Self {
        let mut trie = TrieTable::new();
        for &(p, l, h) in routes {
            trie.insert(p, l, h).expect("generated prefixes are valid");
        }
        let table = Arc::new(CowRouteTable::from_trie(&trie));
        let reader = table.reader();
        Plane {
            table,
            reader,
            cache: FlowCache::new(CACHE_SLOTS),
            lb: lb.map(|(c, l)| (Conntrack::new(c), BackendPool::new(l))),
        }
    }
}

/// Route churn: toggles host routes under 203.0.113.0/24, which no
/// workload addresses, so decisions never change but every publication
/// clones a trie spine, retires the old one through the epoch domain, and
/// invalidates the flow cache.
#[derive(Debug)]
pub struct Churn {
    rng: gen::Rng,
    present: [bool; 64],
}

impl Churn {
    /// Churn seeded by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Churn {
            rng: gen::Rng::new(seed, 0xC4),
            present: [false; 64],
        }
    }

    /// Publishes the next insert or remove.
    pub fn publish(&mut self, table: &CowRouteTable<PortId>) {
        let i = self.rng.below(64) as usize;
        let addr = u32::from_be_bytes([203, 0, 113, i as u8]);
        if self.present[i] {
            table.remove(addr, 32).expect("valid prefix");
        } else {
            table.insert(addr, 32, 0).expect("valid prefix");
        }
        self.present[i] = !self.present[i];
    }
}

/// Which batch entry point a plane's real path calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `pipeline::process_batch_cached` (stateless forwarding).
    Cached,
    /// `lb::process_batch_lb` (conntrack, load balancing, NAT).
    Lb,
}

/// Deterministic counts of one run (same seed and length, same counts).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    /// Frames forwarded.
    pub forwarded: u64,
    /// Drops by reason.
    pub drops: [u64; DROP_REASONS],
    /// Frames forwarded per port.
    pub ports: Vec<u64>,
    /// New flows assigned a backend.
    pub lb_assigned: u64,
    /// Conntrack entries created.
    pub ct_inserts: u64,
    /// Digest of the forged stream.
    pub stream: u64,
}

/// A data-plane workload in the closed loop: state, stream, and checks.
pub struct Runner<S: Stream> {
    /// Program state.
    pub plane: Plane,
    /// The input stream.
    pub stream: S,
    path: Path,
    churn: Churn,
    batch: Batch,
    batch_no: u64,
    hops: [PortId; BATCH],
    clock: Clock,
    /// Frames forwarded per port, as the program reported them.
    pub ports: Vec<u64>,
    /// Frames forwarded per port, as the checks expected them.
    pub expected_ports: Vec<u64>,
    /// Program counters summed over every batch.
    pub stats: BatchStats,
    /// Largest epoch backlog seen after a publication.
    pub pending_reclaim_max: usize,
}

impl<S: Stream> Runner<S> {
    /// Wraps already built state and a stream.
    pub fn new(plane: Plane, stream: S, path: Path, payload_off: usize, seed: u64) -> Self {
        Runner {
            plane,
            stream,
            path,
            churn: Churn::new(seed),
            batch: Batch::new(payload_off),
            batch_no: 0,
            hops: [0; BATCH],
            clock: Clock::new(),
            ports: vec![0; PORTS],
            expected_ports: vec![0; PORTS],
            stats: BatchStats::default(),
            pending_reclaim_max: 0,
        }
    }

    /// Virtual time of the current batch.
    fn now_ns(&self) -> u64 {
        self.batch_no * VBATCH_NS
    }

    /// The periodic control work due before this batch: churn, sweep,
    /// probe (ejecting the flows of any backend a probe round downed).
    fn periodic(&mut self, tr: &mut Option<&mut Trace>, parent: u32) {
        let now = self.now_ns();
        if self.batch_no.is_multiple_of(CHURN_EVERY) {
            let s = open(tr, "publish", parent);
            self.churn.publish(&self.plane.table);
            close(tr, s);
            self.pending_reclaim_max = self
                .pending_reclaim_max
                .max(self.plane.table.pending_reclaim());
        }
        if let Some((ct, pool)) = &mut self.plane.lb {
            if ct.due_sweep(now) {
                let s = open(tr, "sweep", parent);
                ct.sweep(now);
                close(tr, s);
            }
            if pool.probe_due(now) {
                let s = open(tr, "probe", parent);
                let downed = pool.maybe_probe(now).to_vec();
                for b in downed {
                    let n = ct.eject_backend(b, EvictCause::BackendDead);
                    pool.note_flows_ejected(n);
                }
                close(tr, s);
            }
        }
    }

    /// The real path's batch call through a freshly pinned view.
    fn pipeline(&mut self) -> (BatchStats, usize) {
        let now = self.now_ns();
        let hops = &mut self.hops;
        let mut n = 0usize;
        let view = self.plane.reader.pin();
        let forward = |h: PortId| {
            hops[n] = h;
            n += 1;
        };
        let stats = match (self.path, &mut self.plane.lb) {
            (Path::Lb, Some((ct, pool))) => process_batch_lb(
                &mut self.batch.frames,
                &view,
                Some(&mut self.plane.cache),
                ct,
                pool,
                now,
                forward,
            ),
            _ => process_batch_cached(
                &mut self.batch.frames,
                &view,
                &mut self.plane.cache,
                forward,
            ),
        };
        drop(view);
        (stats, n)
    }

    /// One closed-loop step: forge, call the program, check the output.
    /// With a trace, spans are recorded around the generator, each
    /// periodic call, and the batch call.
    pub fn step(&mut self, mut tr: Option<&mut Trace>) -> Step {
        let root = open(&mut tr, "batch", ROOT);
        let g = open(&mut tr, "gen", root);
        self.stream.fill(&mut self.batch, self.batch_no);
        close(&mut tr, g);

        let a0 = allocs();
        let t0 = self.clock.now();
        self.periodic(&mut tr, root);
        let t1 = self.clock.now();
        let p = open(&mut tr, "pipeline", root);
        let (stats, n) = self.pipeline();
        close(&mut tr, p);
        let t2 = self.clock.now();
        let a1 = allocs();
        close(&mut tr, root);

        let (good, failed) = self.verify(&stats, n);
        self.stats.merge(&stats);
        self.batch_no += 1;
        Step {
            ops: BATCH as u64,
            good,
            failed,
            busy_ns: t2 - t0,
            lat_ns: t2 - t1,
            allocs: a1 - a0,
        }
    }

    /// Checks every frame's fate against its expectation, re-parses one
    /// forwarded frame in full every few batches, and lets the stream
    /// observe the output. Returns `(good, failed)`.
    fn verify(&mut self, stats: &BatchStats, n: usize) -> (u64, u64) {
        let b = &self.batch;
        let hops = &self.hops[..n];
        let mut k = 0usize;
        let mut good = 0u64;
        let mut failed = 0u64;
        let mut expected_drops = [0u64; DROP_REASONS];
        let mut shed = 0u64;
        for &h in hops {
            self.ports[usize::from(h)] += 1;
        }
        for i in 0..BATCH {
            let fwd = b.forwarded(i);
            let hop = if fwd { hops.get(k).copied() } else { None };
            k += usize::from(fwd);
            match b.exp[i] {
                Expect::Forward(p) => {
                    if hop == Some(p) {
                        good += 1;
                        self.expected_ports[usize::from(p)] += 1;
                    } else {
                        failed += 1;
                    }
                }
                Expect::Drop(r) => {
                    if fwd {
                        failed += 1;
                    } else {
                        expected_drops[r as usize] += 1;
                    }
                }
                Expect::Attack(p) => match hop {
                    Some(h) if h == p => self.expected_ports[usize::from(p)] += 1,
                    Some(_) => failed += 1,
                    None if fwd => failed += 1,
                    None => shed += 1,
                },
            }
        }
        failed += (n as u64).abs_diff(k as u64);
        // Drop counters: every expected drop under its reason, and attack
        // refusals only under the shed reasons.
        let mut shed_counted = 0u64;
        for (r, (&got, &want)) in stats.dropped.iter().zip(&expected_drops).enumerate() {
            if r >= DropReason::NoFlow as usize {
                shed_counted += got.saturating_sub(want);
                failed += want.saturating_sub(got);
            } else {
                failed += got.abs_diff(want);
            }
        }
        failed += shed_counted.abs_diff(shed);

        if self.batch_no.is_multiple_of(SAMPLE_EVERY) {
            let i = (self.batch_no / SAMPLE_EVERY) as usize % BATCH;
            if b.forwarded(i) && !gen::checksums_ok(b.frames[i].as_ref()) {
                failed += 1;
            }
        }
        let pool = self.plane.lb.as_ref().map(|(_, p)| p);
        failed += self.stream.observe(b, pool);
        (good, failed)
    }

    /// Final structural checks: per-port totals and the conntrack audit.
    ///
    /// # Errors
    ///
    /// What failed.
    pub fn finish_checks(&self) -> Result<(), String> {
        if self.ports != self.expected_ports {
            return Err(format!(
                "per-port delivered {:?} != expected {:?}",
                self.ports, self.expected_ports
            ));
        }
        if let Some((ct, _)) = &self.plane.lb {
            ct.check_invariants()?;
        }
        Ok(())
    }

    /// Counts that must repeat exactly for one seed and length.
    #[must_use]
    pub fn counts(&self) -> Counts {
        let (assigned, inserts) = self.plane.lb.as_ref().map_or((0, 0), |(ct, pool)| {
            (pool.stats().assigned, ct.stats().flows_created)
        });
        Counts {
            forwarded: self.stats.forwarded,
            drops: self.stats.dropped,
            ports: self.ports.clone(),
            lb_assigned: assigned,
            ct_inserts: inserts,
            stream: self.stream.digest(),
        }
    }
}

/// The transport 5-tuple the bench-side parse extracts.
#[derive(Debug, Clone, Copy, Default)]
struct Tuple {
    src: u32,
    dst: u32,
    sport: u16,
    dport: u16,
    proto: u8,
}

/// Ladder step 1: the sysrepr view parse the pipeline performs —
/// Ethernet, IPv4 (checksum, TTL), then the TCP or UDP header.
fn parse(frame: &[u8]) -> Option<Tuple> {
    let ip = EthernetView::parse(frame).ok()?.ipv4().ok()?;
    if ip.verify_checksum().is_err() || ip.ttl() == 0 {
        return None;
    }
    let (sport, dport) = match ip.protocol() {
        IPPROTO_TCP => {
            let t = ip.tcp().ok()?;
            (t.src_port(), t.dst_port())
        }
        IPPROTO_UDP => {
            let u = ip.udp().ok()?;
            (u.src_port(), u.dst_port())
        }
        _ => (0, 0),
    };
    Some(Tuple {
        src: u32::from_be_bytes(ip.src()),
        dst: ip.dst_u32(),
        sport,
        dport,
        proto: ip.protocol(),
    })
}

/// Parses a whole batch; returns how many frames parsed.
fn parse_batch(frames: &[Frame], out: &mut [Tuple; BATCH]) -> usize {
    let mut n = 0;
    for f in frames {
        if let Some(t) = parse(f.as_ref()) {
            out[n] = t;
            n += 1;
        }
    }
    n
}

/// The extra state the ladder's deeper steps run against. Each step owns
/// its cache and tracker, so every step sees the same replayed stream from
/// the same starting state.
pub struct Ladder {
    copy: Vec<Frame>,
    tuples: [Tuple; BATCH],
    hashes: [u64; BATCH],
    cache3: FlowCache<PortId>,
    cache4: FlowCache<PortId>,
    ct4: Conntrack,
    /// Step 5 for a plane whose real path is not the balanced one.
    step5: Option<(FlowCache<PortId>, Conntrack, BackendPool)>,
    /// The pool stand-alone `select` calls run against.
    select_pool: BackendPool,
    /// Frames that took a stand-alone rewrite.
    pub rewritten: u64,
    /// Lookups made by steps 2 and 3.
    pub lookups: u64,
    /// Stand-alone `select` calls.
    pub selects: u64,
    sink: u64,
}

impl Ladder {
    /// Ladder state for a plane with real path `path`.
    #[must_use]
    pub fn new(path: Path, ct: ConntrackConfig, lb: &LbConfig, payload_off: usize) -> Self {
        let step5 = (path == Path::Cached).then(|| {
            (
                FlowCache::new(CACHE_SLOTS),
                Conntrack::new(ct),
                BackendPool::new(lb.clone()),
            )
        });
        Ladder {
            copy: (0..BATCH).map(|_| Frame::new(payload_off)).collect(),
            tuples: [Tuple::default(); BATCH],
            hashes: [0; BATCH],
            cache3: FlowCache::new(CACHE_SLOTS),
            cache4: FlowCache::new(CACHE_SLOTS),
            ct4: Conntrack::new(ct),
            step5,
            select_pool: BackendPool::new(lb.clone()),
            rewritten: 0,
            lookups: 0,
            selects: 0,
            sink: 0,
        }
    }

    /// The conntrack and pool of ladder step 5, when the ladder owns them.
    #[must_use]
    pub fn lb_state(&self) -> (&Conntrack, &BackendPool) {
        let (_, ct, pool) = self
            .step5
            .as_ref()
            .expect("step 5 state exists when the plane has none");
        (ct, pool)
    }

    fn copy_in(&mut self, frames: &[Frame]) {
        for (c, f) in self.copy.iter_mut().zip(frames) {
            c.copy_from(f);
        }
    }
}

impl<S: Stream> Runner<S> {
    /// One ladder step over the next batch: the same forged frames go
    /// through successively deeper entry points (view parse; + route
    /// lookup; + flow cache; the tracked pipeline; the balanced pipeline),
    /// stand-alone rewrites and backend selections, a bare pin, and finally
    /// the workload's real path, each inside its own span.
    pub fn ladder_step(&mut self, lad: &mut Ladder, tr: &mut Trace) -> Step {
        let now = self.now_ns();
        let root = tr.open("batch", ROOT);
        let g = tr.open("gen", root);
        self.stream.fill(&mut self.batch, self.batch_no);
        tr.close(g);
        {
            let mut t = Some(&mut *tr);
            self.periodic(&mut t, root);
        }
        if lad.ct4.due_sweep(now) {
            lad.ct4.sweep(now);
        }

        let frames = &self.batch.frames;
        let s = tr.open("l1.parse", root);
        let n = parse_batch(frames, &mut lad.tuples);
        tr.close(s);

        let s = tr.open("l2.route", root);
        let c = tr.open("l2.parse", s);
        let n2 = parse_batch(frames, &mut lad.tuples);
        tr.close(c);
        let view = self.plane.reader.pin();
        for t in &lad.tuples[..n2] {
            lad.sink = lad
                .sink
                .wrapping_add(u64::from(view.lookup(t.dst).unwrap_or(0)));
        }
        drop(view);
        tr.close(s);

        let s = tr.open("l3.cache", root);
        let c = tr.open("l3.parse", s);
        let n3 = parse_batch(frames, &mut lad.tuples);
        tr.close(c);
        let view = self.plane.reader.pin();
        for t in &lad.tuples[..n3] {
            let h = lad.cache3.lookup_or_route(&view, t.src, t.dst);
            lad.sink = lad.sink.wrapping_add(u64::from(h.unwrap_or(0)));
        }
        drop(view);
        tr.close(s);
        lad.lookups += n as u64;

        lad.copy_in(&self.batch.frames);
        let s = tr.open("l4.tracked", root);
        let view = self.plane.reader.pin();
        let st = process_batch_tracked(
            &mut lad.copy,
            &view,
            Some(&mut lad.cache4),
            &mut lad.ct4,
            now,
            |_| {},
        );
        drop(view);
        tr.close(s);
        lad.sink = lad.sink.wrapping_add(st.forwarded);

        if let Some((cache5, ct5, pool5)) = &mut lad.step5 {
            if ct5.due_sweep(now) {
                ct5.sweep(now);
            }
            lad.copy
                .iter_mut()
                .zip(&self.batch.frames)
                .for_each(|(c, f)| c.copy_from(f));
            let s = tr.open("l5.lb", root);
            let view = self.plane.reader.pin();
            let st = process_batch_lb(&mut lad.copy, &view, Some(cache5), ct5, pool5, now, |_| {});
            drop(view);
            tr.close(s);
            lad.sink = lad.sink.wrapping_add(st.forwarded);
        }

        lad.copy_in(&self.batch.frames);
        let mut ttl_frames = 0u64;
        let s = tr.open("rewrite.ttl", root);
        for (f, rw) in lad.copy.iter_mut().zip(&self.batch.rewrite) {
            if *rw != Rewrite::None {
                let mut ip = EthernetViewMut::parse(f.as_mut())
                    .and_then(EthernetViewMut::ipv4_mut)
                    .expect("forged frames parse");
                lad.sink = lad
                    .sink
                    .wrapping_add(u64::from(ip.decrement_ttl().unwrap_or(0)));
                ttl_frames += 1;
            }
        }
        tr.close(s);
        let s = tr.open("rewrite.nat", root);
        for (f, rw) in lad.copy.iter_mut().zip(&self.batch.rewrite) {
            let (ip4, port, dst) = match *rw {
                Rewrite::Dnat(a, p) => (a, p, true),
                Rewrite::Snat(a, p) => (a, p, false),
                _ => continue,
            };
            let mut ip = EthernetViewMut::parse(f.as_mut())
                .and_then(EthernetViewMut::ipv4_mut)
                .expect("forged frames parse");
            let r = if dst {
                ip.dnat(ip4.to_be_bytes(), port)
            } else {
                ip.snat(ip4.to_be_bytes(), port)
            };
            r.expect("forged frames carry a transport header");
        }
        tr.close(s);
        lad.rewritten += ttl_frames;

        for (h, t) in lad.hashes.iter_mut().zip(&lad.tuples[..n3]) {
            *h = FlowKey::canonical(t.src, t.dst, t.sport, t.dport, t.proto).hash();
        }
        let s = tr.open("select", root);
        for h in &lad.hashes[..n3] {
            lad.sink = lad
                .sink
                .wrapping_add(u64::from(lad.select_pool.select(*h).unwrap_or(0)));
        }
        tr.close(s);
        lad.selects += n3 as u64;

        let s = tr.open("pin", root);
        drop(self.plane.reader.pin());
        tr.close(s);

        let a0 = allocs();
        let t0 = self.clock.now();
        let p = tr.open("pipeline", root);
        let (stats, hops) = self.pipeline();
        tr.close(p);
        let t1 = self.clock.now();
        let a1 = allocs();
        tr.close(root);
        std::hint::black_box(lad.sink);

        let (good, failed) = self.verify(&stats, hops);
        self.stats.merge(&stats);
        self.batch_no += 1;
        Step {
            ops: BATCH as u64,
            good,
            failed,
            busy_ns: t1 - t0,
            lat_ns: t1 - t0,
            allocs: a1 - a0,
        }
    }
}

/// Reads a forwarded frame's destination `(ip, port)`.
#[must_use]
pub fn dst_of(frame: &[u8]) -> (u32, u16) {
    (be32(frame, IP + 16), gen::be16(frame, gen::TP + 2))
}

/// Reads a forwarded frame's source `(ip, port)`.
#[must_use]
pub fn src_of(frame: &[u8]) -> (u32, u16) {
    (be32(frame, IP + 12), gen::be16(frame, gen::TP))
}
