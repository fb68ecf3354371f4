//! The data-plane pipeline: one per-frame function and one batch loop.
//!
//! A frame goes validate → optional conntrack admission → optional
//! load-balancer classify/assign → route (flow cache or table) → rewrite +
//! TTL ([`route_frame`]); [`process_batch`] runs a batch through it. The
//! stateless, tracked and load-balanced routers are the same code with
//! stages switched off ([`Stages`]), and instrumentation is a const
//! parameter, so the uninstrumented baseline is the same code compiled
//! without it.
//!
//! Zero-copy all the way down: each frame is parsed once, in place, with
//! the [`sysrepr::packet`] views (total parsing — every header is validated
//! before any field is used); admission reads that one view and the rewrite
//! writes through it. The frame is checksummed, TTL-checked, and routed through
//! any [`Routes`] source — an exclusive [`crate::lpm::TrieTable`], a
//! mutex-held one, or a pinned copy-on-write snapshot
//! ([`crate::cowtrie::RouteView`]). Nothing in this module allocates per
//! packet.

use crate::cache::FlowCache;
use crate::conntrack::{Conntrack, FlowKey, NatRewrite, TcpSummary};
use crate::lb::{BackendPool, Ends, NatDir};
use crate::lpm::Routes;
use sysrepr::packet::{EthernetViewMut, Ipv4View, Ipv4ViewMut, IPPROTO_TCP, IPPROTO_UDP};
use sysrepr::ReprError;

/// Why a packet was dropped instead of forwarded. The variants double as
/// indices into [`BatchStats::dropped`]. Reasons 5..=8 are shed decisions
/// from the connection tracker ([`crate::conntrack`]) — the typed
/// vocabulary overload defense speaks in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Truncated or structurally malformed at any header layer.
    Malformed = 0,
    /// Valid Ethernet, but the payload is not IPv4.
    NotIpv4 = 1,
    /// IPv4 header checksum mismatch.
    BadChecksum = 2,
    /// TTL expired (zero on arrival).
    TtlExpired = 3,
    /// No route covers the destination.
    NoRoute = 4,
    /// TCP packet on no tracked flow (and not a flow-creating SYN) — the
    /// strict stateful stance that makes bare-ACK floods cheap to shed.
    NoFlow = 5,
    /// Stateless-fallback ACK whose cookie failed validation.
    BadCookie = 6,
    /// Admission denied: the flow table (or SYN backlog) had no room the
    /// defense policy was willing to make.
    FlowTableFull = 7,
    /// Segment illegal for the flow's current TCP state.
    StateViolation = 8,
    /// A load-balanced virtual IP had no healthy backend to assign
    /// ([`crate::lb`]).
    NoBackend = 9,
}

/// Number of [`DropReason`] variants.
pub const DROP_REASONS: usize = 10;

/// Display labels, indexed by `DropReason as usize`.
pub const DROP_LABELS: [&str; DROP_REASONS] = [
    "malformed",
    "not-ipv4",
    "bad-checksum",
    "ttl-expired",
    "no-route",
    "no-flow",
    "bad-cookie",
    "flow-table-full",
    "state-violation",
    "no-backend",
];

/// Metric names for the per-reason drop counters, indexed like
/// [`DROP_LABELS`]. Static so they can key the `sysobs` registry directly.
pub const DROP_METRICS: [&str; DROP_REASONS] = [
    "net.drop.malformed",
    "net.drop.not-ipv4",
    "net.drop.bad-checksum",
    "net.drop.ttl-expired",
    "net.drop.no-route",
    "net.drop.no-flow",
    "net.drop.bad-cookie",
    "net.drop.flow-table-full",
    "net.drop.state-violation",
    "net.drop.no-backend",
];

/// Per-batch (or per-worker, accumulated) counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Frames whose full header chain validated.
    pub parsed: u64,
    /// Frames forwarded to a next hop.
    pub forwarded: u64,
    /// Frames dropped, by [`DropReason`] index.
    pub dropped: [u64; DROP_REASONS],
}

impl BatchStats {
    /// Total drops across all reasons.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Total frames seen (forwarded + dropped).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.forwarded + self.dropped_total()
    }

    /// Accumulates another stats block into this one.
    pub fn merge(&mut self, other: &BatchStats) {
        self.parsed += other.parsed;
        self.forwarded += other.forwarded;
        for (a, b) in self.dropped.iter_mut().zip(other.dropped.iter()) {
            *a += b;
        }
    }
}

/// The optional stateful stages of the pipeline: a connection-tracking
/// shard and, only alongside one, a load-balancer pool (its rewrite state
/// lives in the shard's flow entries). `None` is the stateless router, a
/// tracker alone the tracked router, a tracker with a pool the balancer.
pub type Stages<'a> = Option<(&'a mut Conntrack, Option<&'a mut BackendPool>)>;

/// Reborrows the stages for one frame.
fn reborrow<'s>(stages: &'s mut Stages<'_>) -> Stages<'s> {
    stages
        .as_mut()
        .map(|(ct, pool)| (&mut **ct, pool.as_deref_mut()))
}

/// What the admission stages decided about one frame: the NAT rewrite to
/// apply, if any, and the post-rewrite `(src, dst)` the route and the cache
/// key use.
pub(crate) struct Verdict {
    pub(crate) rewrite: Option<(NatRewrite, NatDir)>,
    pub(crate) src: u32,
    pub(crate) dst: u32,
}

impl Verdict {
    /// Route the frame as addressed, with no rewrite.
    pub(crate) fn plain(src: u32, dst: u32) -> Self {
        Verdict {
            rewrite: None,
            src,
            dst,
        }
    }

    /// Rewrite the frame toward the backend or back to the client, and
    /// route on the rewritten pair.
    pub(crate) fn rewritten(nat: NatRewrite, dir: NatDir, ends: Ends) -> Self {
        let (src, dst) = match dir {
            NatDir::ToBackend => (ends.src, nat.backend_ip),
            NatDir::ToClient => (nat.vip, ends.dst),
        };
        Verdict {
            rewrite: Some((nat, dir)),
            src,
            dst,
        }
    }
}

/// Total header validation down to IPv4: structure, checksum, and TTL on
/// arrival. This is the frame's only parse: admission reads the returned
/// view through [`Ipv4ViewMut::as_view`], and egress rewrites through it.
#[inline]
fn validate_ipv4(frame: &mut [u8]) -> Result<Ipv4ViewMut<'_>, DropReason> {
    let ip = EthernetViewMut::parse(frame)
        .map_err(|_| DropReason::Malformed)?
        .ipv4_mut()
        .map_err(|e| match e {
            ReprError::InvalidField {
                field: "ethertype", ..
            } => DropReason::NotIpv4,
            _ => DropReason::Malformed,
        })?;
    if ip.as_view().verify_checksum().is_err() {
        return Err(DropReason::BadChecksum);
    }
    if ip.ttl() == 0 {
        return Err(DropReason::TtlExpired);
    }
    Ok(ip)
}

/// The admission stages over a validated header. The tracker reads TCP
/// only; only a pool reads UDP headers (a VIP is an address and a port), so
/// only with a pool does a truncated UDP header drop as
/// [`DropReason::Malformed`].
#[inline(always)]
fn admit(ipv4: Ipv4View<'_>, stages: Stages<'_>, now_ns: u64) -> Result<Verdict, DropReason> {
    let (src, dst) = (u32::from_be_bytes(ipv4.src()), ipv4.dst_u32());
    let Some((ct, pool)) = stages else {
        return Ok(Verdict::plain(src, dst));
    };
    match (ipv4.protocol(), pool) {
        (IPPROTO_TCP, pool) => {
            let tcp = ipv4.tcp().map_err(|_| DropReason::Malformed)?;
            let ends = Ends {
                src,
                sport: tcp.src_port(),
                dst,
                dport: tcp.dst_port(),
            };
            let key = FlowKey::canonical(src, dst, ends.sport, ends.dport, IPPROTO_TCP);
            let seg = TcpSummary::from_view(&tcp);
            match pool {
                Some(pool) => pool.admit_tcp(ct, &key, seg, ends, now_ns),
                None => ct
                    .admit_tcp(&key, seg, now_ns)
                    .map(|()| Verdict::plain(src, dst)),
            }
        }
        (IPPROTO_UDP, Some(pool)) => {
            let udp = ipv4.udp().map_err(|_| DropReason::Malformed)?;
            let ends = Ends {
                src,
                sport: udp.src_port(),
                dst,
                dport: udp.dst_port(),
            };
            pool.admit_udp(ct, ends, now_ns)
        }
        _ => Ok(Verdict::plain(src, dst)),
    }
}

/// The rewrite + TTL stage on the view validation produced: the NAT
/// rewrite, if any (address and port, incremental checksum fixup), then the
/// TTL decrement (RFC 1624). A frame whose decrement would reach zero drops
/// as [`DropReason::TtlExpired`] before anything is written, so a routing
/// loop expires.
#[inline(always)]
fn egress(
    mut ip: Ipv4ViewMut<'_>,
    rewrite: Option<(NatRewrite, NatDir)>,
) -> Result<(), DropReason> {
    if ip.ttl() <= 1 {
        return Err(DropReason::TtlExpired);
    }
    match rewrite {
        Some((nat, NatDir::ToBackend)) => ip.dnat(nat.backend_ip.to_be_bytes(), nat.backend_port),
        Some((nat, NatDir::ToClient)) => ip.snat(nat.vip.to_be_bytes(), nat.vport),
        None => Ok(()),
    }
    .map_err(|_| DropReason::Malformed)?;
    ip.decrement_ttl().map_err(|_| DropReason::Malformed)?;
    Ok(())
}

/// Evaluates `$body` inside a `$name` span when the const `$trace` is set.
macro_rules! stage {
    ($trace:expr, $name:literal, $body:expr) => {
        if $trace {
            sysobs::obs_span!($name);
            $body
        } else {
            $body
        }
    };
}

/// The pipeline for one frame: validate → optional conntrack admission →
/// optional load-balancer classify/assign → route (flow cache or table, on
/// the post-rewrite pair) → rewrite + TTL decrement in place. Returns the
/// next hop, or the reason the frame must be dropped. Routing happens
/// before any mutation, so a dropped frame's buffer is untouched. `now_ns`
/// is the caller's clock: workers pass monotonic time, tests and the
/// deterministic benches virtual time, which makes timeouts replayable.
///
/// With `TRACE` the parse (validation + admission) and route stages run in
/// spans and a forwarded frame leaves a `net.frame.egress` marker — the
/// first frame of a batch whose dispatch won the sampling draw. Without
/// it no observability code is compiled in.
///
/// # Errors
///
/// The [`DropReason`] for any frame that fails validation, admission,
/// backend selection, or routing.
#[inline(always)]
pub fn route_frame<const TRACE: bool, T: Copy>(
    frame: &mut [u8],
    table: &impl Routes<T>,
    cache: Option<&mut FlowCache<T>>,
    mut stages: Stages<'_>,
    now_ns: u64,
) -> Result<T, DropReason> {
    let (ip, verdict) = stage!(TRACE, "net.frame.parse", {
        let ip = validate_ipv4(frame)?;
        let verdict = admit(ip.as_view(), reborrow(&mut stages), now_ns)?;
        (ip, verdict)
    });
    let hop = stage!(
        TRACE,
        "net.frame.route",
        match cache {
            Some(c) => c.lookup_or_route(table, verdict.src, verdict.dst),
            None => table.lookup(verdict.dst),
        }
    )
    .ok_or(DropReason::NoRoute)?;
    egress(ip, verdict.rewrite)?;
    if let (Some((_, dir)), Some((_, Some(pool)))) = (verdict.rewrite, stages) {
        pool.note_rewrite(dir);
    }
    if TRACE {
        sysobs::obs_span_hot!("net.frame.egress");
    }
    Ok(hop)
}

/// Runs a batch through [`route_frame`], calling `forward(next_hop)` for
/// every frame that survives, and returns the batch's counters (`parsed`
/// counts frames whose headers validated, so a bad-checksum drop counts).
///
/// With `OBS` the batch runs in a `net.batch` span, its first frame is
/// traced when a causal context is active, and the batch is mirrored into
/// the `sysobs` registry (one update per batch, not per frame). Without it
/// there is no observability code at all, not even the disabled-mode
/// atomic load: the compiled baseline experiment E11 measures against.
// Inlined with the loop and frame path into each caller, so stage `Option`s
// passed as constants fold away and each configuration compiles to its own
// loop; without it perfbench fwd-min loses ~9% throughput (2-vCPU x86-64).
#[inline(always)]
pub fn process_batch<const OBS: bool, T: Copy>(
    frames: &mut [impl AsMut<[u8]>],
    table: &impl Routes<T>,
    mut cache: Option<&mut FlowCache<T>>,
    mut stages: Stages<'_>,
    now_ns: u64,
    mut forward: impl FnMut(T),
) -> BatchStats {
    if !OBS {
        return batch_loop(frames, table, cache, stages, now_ns, false, &mut forward);
    }
    sysobs::obs_span!("net.batch");
    let cache_before = cache.as_deref().map(|c| (c.hits(), c.misses()));
    let stats = batch_loop(
        frames,
        table,
        cache.as_deref_mut(),
        reborrow(&mut stages),
        now_ns,
        sysobs::context::active(),
        &mut forward,
    );
    if sysobs::metrics_on() {
        mirror(&stats, cache.as_deref().zip(cache_before), stages);
    }
    stats
}

/// The batch loop, tracing the first frame when `trace_first` is set.
#[inline(always)]
fn batch_loop<T: Copy>(
    frames: &mut [impl AsMut<[u8]>],
    table: &impl Routes<T>,
    mut cache: Option<&mut FlowCache<T>>,
    mut stages: Stages<'_>,
    now_ns: u64,
    trace_first: bool,
    forward: &mut impl FnMut(T),
) -> BatchStats {
    let mut stats = BatchStats::default();
    let mut frames = frames.iter_mut();
    if trace_first {
        if let Some(first) = frames.next() {
            let outcome = route_frame::<true, T>(
                first.as_mut(),
                table,
                cache.as_deref_mut(),
                reborrow(&mut stages),
                now_ns,
            );
            tally(&mut stats, outcome, forward);
        }
    }
    for frame in frames {
        let outcome = route_frame::<false, T>(
            frame.as_mut(),
            table,
            cache.as_deref_mut(),
            reborrow(&mut stages),
            now_ns,
        );
        tally(&mut stats, outcome, forward);
    }
    stats
}

/// Mirrors one batch into the `sysobs` registry. The pipeline publishes
/// its frame and drop counters; each stage that ran adds its own: the
/// flow cache its hit/miss deltas, the tracker its batch count and its
/// share of the live/half-open gauges, the pool its healthy-backend gauge.
fn mirror<T: Copy>(
    stats: &BatchStats,
    cache: Option<(&FlowCache<T>, (u64, u64))>,
    stages: Stages<'_>,
) {
    sysobs::obs_count!("net.parsed", stats.parsed);
    sysobs::obs_count!("net.forwarded", stats.forwarded);
    sysobs::obs_count!("net.batches", 1);
    static DROP_CELLS: [sysobs::CounterCell; DROP_REASONS] =
        [const { sysobs::CounterCell::new() }; DROP_REASONS];
    for ((cell, name), &n) in DROP_CELLS.iter().zip(DROP_METRICS).zip(&stats.dropped) {
        if n > 0 {
            cell.get(name).add(n);
        }
    }
    if let Some((c, (hits, misses))) = cache {
        sysobs::obs_count!("net.cache.hits", c.hits() - hits);
        sysobs::obs_count!("net.cache.misses", c.misses() - misses);
    }
    if let Some((ct, pool)) = stages {
        sysobs::obs_count!("net.ct.batches", 1);
        ct.publish_gauges();
        if let Some(pool) = pool {
            static HEALTHY: sysobs::GaugeCell = sysobs::GaugeCell::new();
            #[allow(clippy::cast_possible_wrap)]
            let healthy = pool.healthy() as i64;
            HEALTHY.get("net.lb.healthy_backends").set(healthy);
        }
    }
}

/// Instrumented [`process_batch`] through a flow cache, with no stateful
/// stages — kept for the `perfbench` workloads.
pub fn process_batch_cached<T: Copy>(
    frames: &mut [impl AsMut<[u8]>],
    table: &impl Routes<T>,
    cache: &mut FlowCache<T>,
    forward: impl FnMut(T),
) -> BatchStats {
    process_batch::<true, T>(frames, table, Some(cache), None, 0, forward)
}

/// Instrumented [`process_batch`] through a tracker with no pool — kept
/// for the `perfbench` stage ladder.
pub fn process_batch_tracked<T: Copy>(
    frames: &mut [impl AsMut<[u8]>],
    table: &impl Routes<T>,
    cache: Option<&mut FlowCache<T>>,
    ct: &mut Conntrack,
    now_ns: u64,
    forward: impl FnMut(T),
) -> BatchStats {
    process_batch::<true, T>(frames, table, cache, Some((ct, None)), now_ns, forward)
}

/// Folds one frame's routing outcome into the batch counters.
#[inline(always)]
fn tally<T: Copy>(
    stats: &mut BatchStats,
    outcome: Result<T, DropReason>,
    forward: &mut impl FnMut(T),
) {
    match outcome {
        Ok(hop) => {
            stats.parsed += 1;
            stats.forwarded += 1;
            forward(hop);
        }
        Err(reason) => {
            if !matches!(reason, DropReason::Malformed | DropReason::NotIpv4) {
                stats.parsed += 1;
            }
            stats.dropped[reason as usize] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conntrack::ConntrackConfig;
    use crate::lb::{BackendConfig, LbConfig};
    use crate::lpm::TrieTable;
    use proptest::prelude::*;
    use sysrepr::endian::{internet_checksum, transport_checksum_v4};
    use sysrepr::packet::{EthernetView, PacketBuilder, TCP_ACK, TCP_SYN};

    fn table() -> TrieTable<&'static str> {
        let mut t = TrieTable::new();
        t.insert(u32::from_be_bytes([10, 0, 0, 0]), 8, "core")
            .unwrap();
        t.insert(u32::from_be_bytes([10, 1, 0, 0]), 16, "edge")
            .unwrap();
        t
    }

    /// The stateless pipeline with no flow cache.
    fn stateless(
        frame: &mut [u8],
        t: &TrieTable<&'static str>,
    ) -> Result<&'static str, DropReason> {
        route_frame::<false, _>(frame, t, None, None, 0)
    }

    fn udp_to(dst: [u8; 4]) -> Vec<u8> {
        PacketBuilder::udp().dst_ip(dst).payload(&[7; 32]).build()
    }

    #[test]
    fn clean_frames_forward_to_longest_match() {
        let t = table();
        assert_eq!(stateless(&mut udp_to([10, 1, 2, 3]), &t), Ok("edge"));
        assert_eq!(stateless(&mut udp_to([10, 8, 0, 1]), &t), Ok("core"));
    }

    #[test]
    fn every_drop_reason_is_reachable() {
        let t = table();
        assert_eq!(stateless(&mut [0u8; 6], &t), Err(DropReason::Malformed));
        let mut non_ip = udp_to([10, 0, 0, 1]);
        non_ip[12] = 0x86; // EtherType -> not IPv4
        non_ip[13] = 0xDD;
        assert_eq!(stateless(&mut non_ip, &t), Err(DropReason::NotIpv4));
        let mut corrupt = PacketBuilder::udp()
            .dst_ip([10, 0, 0, 1])
            .corrupt_checksum()
            .build();
        assert_eq!(stateless(&mut corrupt, &t), Err(DropReason::BadChecksum));
        let mut stale = PacketBuilder::udp().dst_ip([10, 0, 0, 1]).ttl(0).build();
        assert_eq!(stateless(&mut stale, &t), Err(DropReason::TtlExpired));
        assert_eq!(
            stateless(&mut udp_to([192, 168, 0, 1]), &t),
            Err(DropReason::NoRoute)
        );
    }

    #[test]
    fn batch_counters_conserve_frames() {
        let t = table();
        let mut frames = vec![
            udp_to([10, 1, 1, 1]),
            udp_to([10, 2, 2, 2]),
            udp_to([172, 16, 0, 1]),
            PacketBuilder::udp()
                .dst_ip([10, 0, 0, 1])
                .corrupt_checksum()
                .build(),
            vec![0u8; 3],
        ];
        let mut hops = Vec::new();
        let stats = process_batch::<true, _>(&mut frames, &t, None, None, 0, |h| hops.push(h));
        assert_eq!(stats.total(), frames.len() as u64);
        assert_eq!(stats.forwarded, 2);
        assert_eq!(hops, vec!["edge", "core"]);
        assert_eq!(stats.dropped[DropReason::NoRoute as usize], 1);
        assert_eq!(stats.dropped[DropReason::BadChecksum as usize], 1);
        assert_eq!(stats.dropped[DropReason::Malformed as usize], 1);
        assert_eq!(stats.parsed, 4, "checksum drop still parsed");
        let mut merged = BatchStats::default();
        merged.merge(&stats);
        merged.merge(&stats);
        assert_eq!(merged.total(), 10);
    }

    #[test]
    fn forwarded_frames_decrement_ttl_with_valid_checksum() {
        // Regression for the seed bug: `route_frame` forwarded packets with
        // their TTL untouched, so a routing loop never expired them.
        let t = table();
        let mut frame = PacketBuilder::udp().dst_ip([10, 1, 2, 3]).ttl(64).build();
        assert_eq!(stateless(&mut frame, &t), Ok("edge"));
        let ip = sysrepr::packet::EthernetView::parse(&frame)
            .unwrap()
            .ipv4()
            .unwrap();
        assert_eq!(ip.ttl(), 63, "forwarding must decrement TTL");
        ip.verify_checksum()
            .expect("incremental fixup keeps the header checksum valid");
        // The decremented frame re-validates: it can be forwarded again.
        assert_eq!(stateless(&mut frame, &t), Ok("edge"));
        assert_eq!(
            sysrepr::packet::EthernetView::parse(&frame)
                .unwrap()
                .ipv4()
                .unwrap()
                .ttl(),
            62
        );
    }

    #[test]
    fn ttl_one_frames_are_dropped_not_forwarded() {
        // The other half of the regression: a ttl == 1 frame must expire at
        // this hop (decrement would reach zero), under the same counter as
        // arrival-expired frames — and its buffer must be left untouched.
        let t = table();
        let mut frame = PacketBuilder::udp().dst_ip([10, 1, 2, 3]).ttl(1).build();
        let before = frame.clone();
        assert_eq!(stateless(&mut frame, &t), Err(DropReason::TtlExpired));
        assert_eq!(frame, before, "dropped frames are not mutated");
        let mut cache = FlowCache::new(16);
        assert_eq!(
            route_frame::<false, _>(&mut frame.clone(), &t, Some(&mut cache), None, 0),
            Err(DropReason::TtlExpired)
        );
        let mut ct = Conntrack::new(ConntrackConfig::default());
        assert_eq!(
            route_frame::<false, _>(&mut frame.clone(), &t, None, Some((&mut ct, None)), 0),
            Err(DropReason::TtlExpired)
        );
        // Batch accounting attributes the drop to net.drop.ttl-expired.
        let stats = process_batch::<true, _>(&mut [frame], &t, None, None, 0, |_| {});
        assert_eq!(stats.forwarded, 0);
        assert_eq!(stats.dropped[DropReason::TtlExpired as usize], 1);
    }

    fn tcp_to(dst: [u8; 4], sport: u16, flags: u8) -> Vec<u8> {
        PacketBuilder::tcp()
            .src_ip([10, 9, 9, 9])
            .dst_ip(dst)
            .src_port(sport)
            .dst_port(443)
            .tcp_flags(flags)
            .build()
    }

    #[test]
    fn tracked_path_gates_tcp_and_passes_udp() {
        let t = table();
        let mut ct = Conntrack::new(ConntrackConfig::default());
        // A bare ACK with no flow is shed; a SYN opens one; then data flows.
        assert_eq!(
            route_frame::<false, _>(
                &mut tcp_to([10, 1, 0, 1], 5000, TCP_ACK),
                &t,
                None,
                Some((&mut ct, None)),
                0
            ),
            Err(DropReason::NoFlow)
        );
        assert_eq!(
            route_frame::<false, _>(
                &mut tcp_to([10, 1, 0, 1], 5000, TCP_SYN),
                &t,
                None,
                Some((&mut ct, None)),
                1
            ),
            Ok("edge")
        );
        assert_eq!(
            route_frame::<false, _>(
                &mut tcp_to([10, 1, 0, 1], 5000, TCP_ACK),
                &t,
                None,
                Some((&mut ct, None)),
                2
            ),
            Ok("edge")
        );
        assert_eq!(ct.len(), 1);
        // UDP bypasses tracking entirely.
        assert_eq!(
            route_frame::<false, _>(
                &mut udp_to([10, 1, 0, 2]),
                &t,
                None,
                Some((&mut ct, None)),
                3
            ),
            Ok("edge")
        );
        assert_eq!(ct.len(), 1, "udp creates no flow state");
    }

    #[test]
    fn tracked_batch_counts_shed_tcp_by_reason() {
        let t = table();
        let mut ct = Conntrack::new(ConntrackConfig::default());
        let mut cache = FlowCache::new(64);
        let frames_fresh = || {
            vec![
                tcp_to([10, 1, 0, 1], 5000, TCP_SYN),
                tcp_to([10, 1, 0, 1], 5000, TCP_ACK),
                tcp_to([10, 1, 0, 1], 6000, TCP_ACK), // no flow -> shed
                udp_to([10, 2, 0, 1]),
                vec![0u8; 4], // malformed
            ]
        };
        let mut frames = frames_fresh();
        let mut hops = Vec::new();
        let stats = process_batch_tracked(&mut frames, &t, Some(&mut cache), &mut ct, 0, |h| {
            hops.push(h)
        });
        assert_eq!(stats.total(), frames.len() as u64);
        assert_eq!(stats.forwarded, 3);
        assert_eq!(stats.dropped[DropReason::NoFlow as usize], 1);
        assert_eq!(stats.dropped[DropReason::Malformed as usize], 1);
        assert_eq!(hops, vec!["edge", "edge", "core"]);
        // Cached and uncached tracked paths agree (fresh tracker per run:
        // admission is stateful).
        let mut ct2 = Conntrack::new(ConntrackConfig::default());
        let bare = process_batch::<false, _>(
            &mut frames_fresh(),
            &t,
            None,
            Some((&mut ct2, None)),
            0,
            |_| {},
        );
        assert_eq!(bare, stats);
        ct.check_invariants().unwrap();
    }

    /// The transport checksum a frame should carry, recomputed from its
    /// bytes, and the one it carries; `None` when it has no TCP/UDP segment
    /// long enough to hold the field.
    fn transport_checksums(frame: &[u8]) -> Option<(u16, u16)> {
        let ip = EthernetView::parse(frame).ok()?.ipv4().ok()?;
        let (off, udp) = match ip.protocol() {
            IPPROTO_TCP => (16, false),
            IPPROTO_UDP => (6, true),
            _ => return None,
        };
        let mut seg = ip.payload().to_vec();
        if seg.len() < off + 2 {
            return None;
        }
        let stored = u16::from_be_bytes([seg[off], seg[off + 1]]);
        seg[off..off + 2].fill(0);
        let src = u32::from_be_bytes(ip.src());
        let c = transport_checksum_v4(src, ip.dst_u32(), ip.protocol(), &seg);
        Some((if udp && c == 0 { 0xFFFF } else { c }, stored))
    }

    /// Rewrites the checksums a mutation broke, where the mutated headers
    /// still bound them: the IPv4 header's when `ip` is set, the
    /// transport's always.
    fn reseal(frame: &mut [u8], ip: bool) {
        let hl = usize::from(frame.get(14).map_or(0, |b| b & 0x0F)) * 4;
        if ip && hl >= 20 && frame.len() >= 14 + hl {
            frame[24..26].fill(0);
            let ck = internet_checksum(&frame[14..14 + hl]);
            frame[24..26].copy_from_slice(&ck.to_be_bytes());
        }
        if let Some((want, _)) = transport_checksums(frame) {
            let off = 14 + hl + if frame[23] == IPPROTO_TCP { 16 } else { 6 };
            frame[off..off + 2].copy_from_slice(&want.to_be_bytes());
        }
    }

    const VIP: [u8; 4] = [10, 200, 0, 1];

    fn balancer() -> (Conntrack, BackendPool) {
        let backend = |last, weight| BackendConfig {
            ip: u32::from_be_bytes([10, 50, 0, last]),
            port: 8080,
            weight,
        };
        let pool = BackendPool::new(LbConfig {
            vip: u32::from_be_bytes(VIP),
            vport: 80,
            backends: vec![backend(10, 1), backend(11, 2)],
            ..LbConfig::default()
        });
        (Conntrack::new(ConntrackConfig::default()), pool)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One parse serves admission and rewrite: whatever a mutation does
        /// to a valid frame, each configuration leaves a dropped frame
        /// byte-identical and a forwarded one with a valid IPv4 checksum,
        /// its TTL decremented, and a transport checksum equal to the one
        /// recomputed from its bytes.
        #[test]
        fn dropped_frames_stay_intact_and_forwarded_frames_stay_consistent(
            mode in 0u8..3,
            tcp: bool,
            syn: bool,
            to_vip: bool,
            reply: bool,
            ttl in 0u8..6,
            payload in proptest::collection::vec(any::<u8>(), 0..40),
            mutations in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..4),
            reseal_ip: bool,
        ) {
            let t = table();
            let (mut ct, mut pool) = balancer();
            let client = [10, 9, 0, 7];
            let mut ends = (client, if to_vip { VIP } else { [10, 1, 2, 3] }, 40_000, 80);
            if mode == 2 && reply {
                // A reply needs the flow the client's SYN opened: send one
                // and answer from the backend it was rewritten toward.
                let builder = if tcp { PacketBuilder::tcp() } else { PacketBuilder::udp() };
                let mut open = builder
                    .src_ip(client)
                    .dst_ip(VIP)
                    .src_port(40_000)
                    .dst_port(80)
                    .tcp_flags(TCP_SYN)
                    .build();
                let opened = route_frame::<false, _>(&mut open, &t, None, Some((&mut ct, Some(&mut pool))), 0);
                prop_assert!(opened.is_ok());
                let ip = EthernetView::parse(&open).unwrap().ipv4().unwrap();
                let dport = if tcp { ip.tcp().unwrap().dst_port() } else { ip.udp().unwrap().dst_port() };
                ends = (ip.dst(), client, dport, 40_000);
            }
            let builder = if tcp { PacketBuilder::tcp() } else { PacketBuilder::udp() };
            let mut frame = builder
                .src_ip(ends.0)
                .dst_ip(ends.1)
                .src_port(ends.2)
                .dst_port(ends.3)
                .tcp_flags(match (syn, mode == 2 && reply) {
                    (true, true) => TCP_SYN | TCP_ACK,
                    (true, false) => TCP_SYN,
                    (false, _) => TCP_ACK,
                })
                .ttl(ttl)
                .payload(&payload)
                .compute_transport_checksum()
                .build();
            for &(at, byte) in &mutations {
                let at = usize::from(at) % frame.len();
                frame[at] = byte;
            }
            reseal(&mut frame, reseal_ip);
            let before = frame.clone();
            let outcome = match mode {
                0 => route_frame::<false, _>(&mut frame, &t, None, None, 1),
                1 => route_frame::<false, _>(&mut frame, &t, None, Some((&mut ct, None)), 1),
                _ => route_frame::<false, _>(&mut frame, &t, None, Some((&mut ct, Some(&mut pool))), 1),
            };
            if outcome.is_err() {
                prop_assert_eq!(&frame, &before);
                return Ok(());
            }
            let ip = EthernetView::parse(&frame).unwrap().ipv4().unwrap();
            prop_assert!(ip.verify_checksum().is_ok());
            let old_ttl = EthernetView::parse(&before).unwrap().ipv4().unwrap().ttl();
            prop_assert_eq!(ip.ttl(), old_ttl - 1);
            if let Some((want, stored)) = transport_checksums(&frame) {
                prop_assert_eq!(stored, want);
            }
        }
    }

    #[test]
    fn cached_batch_paths_agree_with_uncached() {
        let t = table();
        let frames_fresh = || {
            vec![
                udp_to([10, 1, 1, 1]),
                udp_to([10, 1, 1, 1]), // repeat: must hit the cache
                udp_to([10, 2, 2, 2]),
                udp_to([172, 16, 0, 1]),
                PacketBuilder::udp()
                    .dst_ip([10, 0, 0, 1])
                    .corrupt_checksum()
                    .build(),
                vec![0u8; 3],
            ]
        };
        let plain = process_batch::<false, _>(&mut frames_fresh(), &t, None, None, 0, |_| {});
        let mut cache = FlowCache::new(256);
        let mut hops = Vec::new();
        let cached = process_batch_cached(&mut frames_fresh(), &t, &mut cache, |h| hops.push(h));
        assert_eq!(plain, cached);
        assert_eq!(hops, vec!["edge", "edge", "core"]);
        assert!(cache.hits() >= 1, "the repeated flow must hit");
        let mut cache2 = FlowCache::new(256);
        let bare =
            process_batch::<false, _>(&mut frames_fresh(), &t, Some(&mut cache2), None, 0, |_| {});
        assert_eq!(bare, plain);
    }
}
