//! The virtual-clock scenario engine.
//!
//! [`run_scenario`] is the repo's one virtual-clock run loop for the
//! single-threaded LB path (E17's failover run is
//! [`crate::library::failover`]): client handshake state machines dialing
//! the VIP, SYN-cookie echoes, one packet per active flow per tick, over an
//! epoch-protected [`CowRouteTable`] that control events publish to, with
//! the conntrack, backend-pool, and wire-loss fault injectors all drawing
//! from one [`FaultPlan`] seeded by the scenario. Two oracles run *en
//! passant*:
//!
//! * **TTL decrement** — every benign frame is re-parsed after routing and
//!   must carry exactly `offered_ttl - 1` (the forwarding-loop regression);
//! * **held-pin consistency** — a scenario may pin a [`RouteView`] and
//!   cross-check probe lookups against a pin-time snapshot while churn
//!   publishes over it (the premature-epoch-free regression).
//!
//! Everything deterministic folds into [`ScenarioOutcome::digest`];
//! wall-clock latency is reported but excluded, so the digest is a replay
//! proof: same spec + seed ⇒ same digest, across runs and across
//! observability modes ([`run_campaign`] verifies both).

use crate::spec::{Arrival, ControlEvent, Expectation, Scenario};
use std::sync::{Arc, RwLock};
use std::time::Instant;
use sysfault::{FaultInjector, FaultPlan, SplitMix64};
use sysnet::conntrack::{Conntrack, ConntrackConfig, EvictCause};
use sysnet::ctbench::{trickle_turn, CState, FrameForge, Interleave, Seq};
use sysnet::lb::{BackendPool, LbConfig};
use sysnet::lbbench::{lb_backends, lb_table, storm_endpoints, vip_client, LB_VIP, LB_VPORT};
use sysnet::pipeline::{route_frame, DropReason, DROP_REASONS};
use sysnet::{CowRouteTable, FlowCache, RouteView, Routes, TrieTable};
use sysobs::{fnv_fold as fold, FNV_OFFSET};
use sysrepr::endian::{internet_checksum, write_u16_be};

/// The engine's own fault site: benign client frames lost on the wire
/// before reaching the router (schedule it in [`Scenario::faults`]).
pub const SITE_WIRE_LOSS: &str = "scenario.wire_loss";

/// Ethernet header length (frames are untagged, as everywhere in `sysnet`).
const ETH: usize = 14;
/// TTL carried by attack frames (the `FrameForge` template default).
const ATTACK_TTL: u8 = 64;

/// Stamps `ttl` into a frame's IP header and repairs the header checksum.
fn patch_ttl(buf: &mut [u8], ttl: u8) {
    buf[ETH + 8] = ttl;
    write_u16_be(buf, ETH + 10, 0).expect("forge frames carry full headers");
    let ck = internet_checksum(&buf[ETH..ETH + 20]);
    write_u16_be(buf, ETH + 10, ck).expect("forge frames carry full headers");
}

/// Reads the TTL back out of a routed frame (the oracle's half of
/// [`patch_ttl`]).
fn read_ttl(buf: &[u8]) -> Option<u8> {
    buf.get(ETH + 8).copied()
}

/// What one scenario run measured. Every integer field participates in
/// [`ScenarioOutcome::digest`]; `route_ns_per_packet` is wall clock and
/// deliberately excluded.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// The seed it ran under.
    pub seed: u64,
    /// Measured ticks.
    pub ticks: u64,
    /// Client flows.
    pub flows: usize,
    /// Benign packets offered during measured ticks.
    pub offered: u64,
    /// Established-flow data packets delivered.
    pub delivered: u64,
    /// Attack packets offered.
    pub attack_sent: u64,
    /// Attack packets forwarded (to the unrewritten VIP-host route).
    pub attack_forwarded: u64,
    /// Injected raw frames offered (fuzzer reproductions and fixtures).
    pub injected_sent: u64,
    /// Benign packets lost to the [`SITE_WIRE_LOSS`] fault site.
    pub wire_lost: u64,
    /// Drops by [`DropReason`], across the whole run.
    pub drops: [u64; DROP_REASONS],
    /// New flows the pool assigned a backend.
    pub assigned: u64,
    /// Conntrack entries freed by backend-death ejection.
    pub flows_ejected: u64,
    /// VIP flows shed with no backend up.
    pub no_backend: u64,
    /// Peak live conntrack entries (twin slots included).
    pub peak_flows: usize,
    /// Route-table publications over the measured ticks.
    pub generation_delta: u64,
    /// Flow-cache misses attributed to invalidation (0 if no cache).
    pub invalidation_misses: u64,
    /// Forwarded frames whose TTL was not exactly one less than offered.
    pub ttl_violations: u64,
    /// Held-pin probe lookups that diverged from the pin-time snapshot.
    pub stale_view_mismatches: u64,
    /// `Conntrack::check_invariants` verdict after the run.
    pub audit_ok: bool,
    /// `(delivered, offered)` on each measured tick, in order.
    pub per_tick: Vec<(u64, u64)>,
    /// Lowest per-tick delivered/offered over measured ticks.
    pub worst_tick_goodput: f64,
    /// Delivered/offered on the final tick (did the system recover?).
    pub final_tick_goodput: f64,
    /// Measured ticks where at least one offered packet failed to deliver.
    pub outage_ticks: u64,
    /// Unmeasured establishment ticks the arrival shape required.
    pub establish_ticks: u64,
    /// Combined digest of the conntrack, pool, and wire fault logs.
    pub fault_digest: u64,
    /// The replay digest: a fold over every deterministic observable.
    pub digest: u64,
    /// Wall-clock nanoseconds per routed packet (excluded from `digest`).
    pub route_ns_per_packet: f64,
    /// Failed [`Expectation`]s, rendered human-readable; empty = pass.
    pub failures: Vec<String>,
}

impl ScenarioOutcome {
    /// Delivered over offered across all measured ticks.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn availability(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }

    /// Did every expectation hold?
    #[must_use]
    pub fn expectations_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The mutable run state, everything but the route table.
struct World<'s> {
    s: &'s Scenario,
    ct: Conntrack,
    pool: BackendPool,
    cache: Option<FlowCache<u16>>,
    forge: FrameForge,
    wire: FaultInjector,
    states: Vec<CState>,
    flood: Interleave,
    attack_seq: u64,
    offered: u64,
    delivered: u64,
    attack_sent: u64,
    attack_forwarded: u64,
    injected_sent: u64,
    wire_lost: u64,
    drops: [u64; DROP_REASONS],
    ttl_violations: u64,
    peak_flows: usize,
    flows_ejected: u64,
    routed: u64,
    per_tick: Vec<(u64, u64)>,
}

impl<'s> World<'s> {
    fn new(s: &'s Scenario) -> Self {
        let plan = s
            .faults
            .iter()
            .fold(FaultPlan::new(s.seed), |p, (site, sched)| {
                p.with_site(site, *sched)
            });
        let capacity = s.ct_capacity();
        let ct = Conntrack::new(ConntrackConfig {
            max_flows: capacity,
            syn_backlog: s.ct.syn_backlog.clamp(1, capacity),
            ..ConntrackConfig::default()
        })
        .with_injector(FaultInjector::new(plan.clone()));
        let pool = BackendPool::new(LbConfig {
            vip: u32::from_be_bytes(LB_VIP),
            vport: LB_VPORT,
            backends: lb_backends(),
            probe_interval_ns: s.lb.probe_interval_ticks.max(1) * s.tick_ns,
            fall: s.lb.fall,
            rise: s.lb.rise,
        })
        .with_injector(FaultInjector::new(plan.clone()));
        World {
            s,
            ct,
            pool,
            cache: (s.cache_slots > 0).then(|| FlowCache::new(s.cache_slots)),
            forge: FrameForge::new(s.traffic.payload_len.min(256)),
            wire: FaultInjector::new(plan),
            states: vec![CState::NeedSyn; s.traffic.flows],
            flood: Interleave::new(s.traffic.attack_mix),
            attack_seq: 0,
            offered: 0,
            delivered: 0,
            attack_sent: 0,
            attack_forwarded: 0,
            injected_sent: 0,
            wire_lost: 0,
            drops: [0; DROP_REASONS],
            ttl_violations: 0,
            peak_flows: 0,
            flows_ejected: 0,
            routed: 0,
            per_tick: Vec::with_capacity(s.ticks as usize),
        }
    }

    /// Routes one frame, tallying drops and the routed-packet count.
    fn route_buf(
        &mut self,
        table: &RouteView<'_, u16>,
        buf: &mut [u8],
        now: u64,
    ) -> Result<u16, DropReason> {
        self.routed += 1;
        let r = route_frame::<false, _>(
            buf,
            table,
            self.cache.as_mut(),
            Some((&mut self.ct, Some(&mut self.pool))),
            now,
        );
        if let Err(reason) = r {
            self.drops[reason as usize] += 1;
        }
        r
    }

    /// The TTL oracle: a forwarded frame must carry exactly one less than
    /// it was offered with.
    fn check_ttl(&mut self, buf: &[u8], offered_ttl: u8) {
        if read_ttl(buf) != Some(offered_ttl.wrapping_sub(1)) {
            self.ttl_violations += 1;
        }
    }

    /// Sends client `f`'s packet for its current handshake state.
    fn send_client(
        &mut self,
        table: &RouteView<'_, u16>,
        f: usize,
        st: CState,
        now: u64,
    ) -> Result<u16, DropReason> {
        let mut buf = [0u8; 512];
        let n = {
            let frame = self.forge.client(&self.ct, vip_client(f), st, Seq::One);
            let n = frame.len().min(buf.len());
            buf[..n].copy_from_slice(&frame[..n]);
            n
        };
        patch_ttl(&mut buf[..n], self.s.traffic.ttl);
        let r = self.route_buf(table, &mut buf[..n], now);
        if r.is_ok() {
            self.check_ttl(&buf[..n], self.s.traffic.ttl);
        }
        r
    }

    /// Interleaves the LB bench's storm SYNs at the configured mix.
    fn maybe_attack(&mut self, table: &RouteView<'_, u16>, now: u64) {
        for _ in 0..self.flood.due() {
            let j = self.attack_seq;
            self.attack_seq += 1;
            let mut buf = [0u8; 512];
            let n = {
                #[allow(clippy::cast_possible_truncation)]
                let frame = self.forge.syn(storm_endpoints(j), j as u32);
                let n = frame.len().min(buf.len());
                buf[..n].copy_from_slice(&frame[..n]);
                n
            };
            self.attack_sent += 1;
            if self.route_buf(table, &mut buf[..n], now).is_ok() {
                self.attack_forwarded += 1;
                self.check_ttl(&buf[..n], ATTACK_TTL);
            }
        }
    }

    /// Runs health probes and ejects any backend the probes took down.
    fn probe(&mut self, now: u64) {
        let downed = self.pool.maybe_probe(now).to_vec();
        for b in downed {
            self.eject(b);
        }
    }

    /// Frees a dead backend's flows and attributes them.
    fn eject(&mut self, b: u16) {
        let freed = self.ct.eject_backend(b, EvictCause::BackendDead);
        self.pool.note_flows_ejected(freed);
        self.flows_ejected += freed as u64;
        if sysobs::tracing_on() {
            sysobs::recorder::instant_dynamic("scenario.backend_death", u64::from(b));
        }
    }

    /// Applies a control event: route events publish to `table`, backend
    /// events go to the pool.
    fn apply_event(&mut self, table: &CowRouteTable<u16>, ev: ControlEvent) {
        match ev {
            ControlEvent::RouteInsert { prefix, len, port } => {
                let _ = table.insert(u32::from_be_bytes(prefix), len, port);
            }
            ControlEvent::RouteRemove { prefix, len } => {
                let _ = table.remove(u32::from_be_bytes(prefix), len);
            }
            ControlEvent::RouteNoopReinsertAll => {
                for (p, l, v) in table.routes() {
                    let _ = table.insert(p, l, v);
                }
            }
            ControlEvent::BackendDrain { idx } => self.pool.drain(idx),
            ControlEvent::BackendKill { idx } => {
                let newly_down = self.pool.force_down(idx);
                if newly_down {
                    self.eject(idx);
                }
            }
            ControlEvent::BackendRevive { idx } => {
                self.pool.revive(idx);
            }
        }
    }

    /// Pre-establishes the whole population (trickle arrivals measure a
    /// resident table, not a handshake wall). Returns the ticks it took.
    fn maybe_establish(&mut self, table: &RouteView<'_, u16>, now: &mut u64) -> u64 {
        if !matches!(self.s.traffic.arrival, Arrival::Trickle { .. }) {
            return 0;
        }
        let mut ticks = 0u64;
        while self.states.iter().any(|&st| st != CState::Established) {
            *now += self.s.tick_ns;
            ticks += 1;
            assert!(
                ticks <= 100_000,
                "scenario '{}': establishment did not converge",
                self.s.name
            );
            self.probe(*now);
            for f in 0..self.s.traffic.flows {
                let st = self.states[f];
                if st == CState::Established {
                    continue;
                }
                if self.wire.should_fail(SITE_WIRE_LOSS) {
                    self.wire_lost += 1;
                    continue;
                }
                if self.send_client(table, f, st, *now).is_ok() {
                    self.states[f] = st.next();
                }
            }
        }
        ticks
    }

    /// One measured tick of traffic. Returns `(delivered, offered)`.
    #[allow(clippy::cast_possible_truncation)]
    fn traffic_tick(&mut self, table: &RouteView<'_, u16>, tick: u64, now: u64) -> (u64, u64) {
        let flows = self.s.traffic.flows;
        let active = match self.s.traffic.arrival {
            Arrival::Steady | Arrival::Trickle { .. } => flows,
            Arrival::FlashCrowd { ramp_ticks } => {
                if ramp_ticks == 0 || tick >= ramp_ticks {
                    flows
                } else {
                    ((flows as u64 * tick) / ramp_ticks) as usize
                }
            }
        };
        let stride = match self.s.traffic.arrival {
            Arrival::Trickle { stride } => stride.max(1),
            _ => 1,
        };
        let mut del = 0u64;
        let mut off = 0u64;
        for f in 0..active {
            let st = self.states[f];
            // Established trickle flows only talk on their stride turn;
            // re-handshakes (post-ejection) go immediately.
            if st == CState::Established && !trickle_turn(f, tick as usize, stride) {
                continue;
            }
            off += 1;
            self.offered += 1;
            self.maybe_attack(table, now);
            if self.wire.should_fail(SITE_WIRE_LOSS) {
                self.wire_lost += 1;
                continue;
            }
            match (st, self.send_client(table, f, st, now)) {
                (CState::NeedSyn, Ok(_)) => self.states[f] = CState::NeedAck,
                (CState::NeedAck, Ok(_)) => self.states[f] = CState::Established,
                // Delivery means landing on the backend port; an Ok onto
                // any other port is a misroute and earns no goodput.
                (CState::Established, Ok(1)) => {
                    del += 1;
                    self.delivered += 1;
                }
                (CState::Established, Err(DropReason::NoFlow)) => {
                    self.states[f] = CState::NeedSyn;
                }
                _ => {}
            }
        }
        for i in 0..self.s.traffic.inject.len() {
            let mut frame = self.s.traffic.inject[i].clone();
            self.injected_sent += 1;
            let _ = self.route_buf(table, &mut frame, now);
        }
        self.peak_flows = self.peak_flows.max(self.ct.len());
        (del, off)
    }

    /// Seals the run into an outcome: audits, digests, and expectation
    /// checks.
    #[allow(clippy::cast_precision_loss)]
    fn finish(
        self,
        establish_ticks: u64,
        generation_delta: u64,
        stale_view_mismatches: u64,
        elapsed_ns: u64,
    ) -> ScenarioOutcome {
        let s = self.s;
        let audit_ok = self.ct.check_invariants().is_ok();
        let invalidation_misses = self
            .cache
            .as_ref()
            .map_or(0, FlowCache::invalidation_misses);
        let fault_digest = fold(
            fold(
                fold(FNV_OFFSET, self.ct.fault_digest()),
                self.pool.fault_digest(),
            ),
            self.wire.log().digest(),
        );
        let goodput = |&(d, o): &(u64, u64)| if o == 0 { 1.0 } else { d as f64 / o as f64 };
        let worst_tick_goodput = self.per_tick.iter().map(goodput).fold(1.0f64, f64::min);
        let final_tick_goodput = self.per_tick.last().map_or(1.0, goodput);
        let outage_ticks = self.per_tick.iter().filter(|&&(d, o)| d < o).count() as u64;

        let mut h = FNV_OFFSET;
        h = fold(h, s.seed);
        h = fold(h, s.ticks);
        h = fold(h, s.traffic.flows as u64);
        for &(d, o) in &self.per_tick {
            h = fold(h, d);
            h = fold(h, o);
        }
        for &d in &self.drops {
            h = fold(h, d);
        }
        let stats = self.pool.stats();
        for v in [
            self.offered,
            self.delivered,
            self.attack_sent,
            self.attack_forwarded,
            self.injected_sent,
            self.wire_lost,
            stats.assigned,
            stats.no_backend,
            self.flows_ejected,
            self.peak_flows as u64,
            generation_delta,
            invalidation_misses,
            self.ttl_violations,
            stale_view_mismatches,
            u64::from(audit_ok),
            establish_ticks,
            fault_digest,
        ] {
            h = fold(h, v);
        }

        let mut out = ScenarioOutcome {
            name: s.name.clone(),
            seed: s.seed,
            ticks: s.ticks,
            flows: s.traffic.flows,
            offered: self.offered,
            delivered: self.delivered,
            attack_sent: self.attack_sent,
            attack_forwarded: self.attack_forwarded,
            injected_sent: self.injected_sent,
            wire_lost: self.wire_lost,
            drops: self.drops,
            assigned: stats.assigned,
            flows_ejected: self.flows_ejected,
            no_backend: stats.no_backend,
            peak_flows: self.peak_flows,
            generation_delta,
            invalidation_misses,
            ttl_violations: self.ttl_violations,
            stale_view_mismatches,
            audit_ok,
            worst_tick_goodput,
            final_tick_goodput,
            per_tick: self.per_tick,
            outage_ticks,
            establish_ticks,
            fault_digest,
            digest: h,
            route_ns_per_packet: if self.routed == 0 {
                0.0
            } else {
                elapsed_ns as f64 / self.routed as f64
            },
            failures: Vec::new(),
        };
        out.failures = evaluate(s, &out);
        out
    }
}

/// Checks every [`Expectation`] against the finished outcome.
fn evaluate(s: &Scenario, o: &ScenarioOutcome) -> Vec<String> {
    let mut failures = Vec::new();
    let mut fail = |msg: String| failures.push(msg);
    for e in &s.expect {
        match *e {
            Expectation::MinAvailability(min) => {
                if o.availability() < min {
                    fail(format!(
                        "availability {:.4} < required {min:.4}",
                        o.availability()
                    ));
                }
            }
            Expectation::FinalGoodputAtLeast(min) => {
                if o.final_tick_goodput < min {
                    fail(format!(
                        "final-tick goodput {:.4} < required {min:.4} (no recovery)",
                        o.final_tick_goodput
                    ));
                }
            }
            Expectation::DeliveredExactly(n) => {
                if o.delivered != n {
                    fail(format!("delivered {} != required {n}", o.delivered));
                }
            }
            Expectation::DropsAtLeast(reason, n) => {
                let got = o.drops[reason as usize];
                if got < n {
                    fail(format!("drops[{reason:?}] {got} < required {n}"));
                }
            }
            Expectation::DropsAtMost(reason, n) => {
                let got = o.drops[reason as usize];
                if got > n {
                    fail(format!("drops[{reason:?}] {got} > allowed {n}"));
                }
            }
            Expectation::GenerationDeltaAtMost(n) => {
                if o.generation_delta > n {
                    fail(format!(
                        "generation delta {} > allowed {n} (no-op inserts bumped the table)",
                        o.generation_delta
                    ));
                }
            }
            Expectation::InvalidationMissesAtMost(n) => {
                if o.invalidation_misses > n {
                    fail(format!(
                        "invalidation misses {} > allowed {n} (cache nuked)",
                        o.invalidation_misses
                    ));
                }
            }
            Expectation::TtlViolationsZero => {
                if o.ttl_violations > 0 {
                    fail(format!(
                        "{} forwarded frames broke the TTL decrement",
                        o.ttl_violations
                    ));
                }
            }
            Expectation::StaleViewMismatchesZero => {
                if o.stale_view_mismatches > 0 {
                    fail(format!(
                        "{} held-pin probes diverged from the pin-time snapshot",
                        o.stale_view_mismatches
                    ));
                }
            }
            Expectation::AuditClean => {
                if !o.audit_ok {
                    fail("conntrack invariant audit failed".to_owned());
                }
            }
            Expectation::FlowsEjectedAtLeast(n) => {
                if o.flows_ejected < n {
                    fail(format!("flows ejected {} < required {n}", o.flows_ejected));
                }
            }
            Expectation::NoBackendAtMost(n) => {
                if o.no_backend > n {
                    fail(format!("no-backend sheds {} > allowed {n}", o.no_backend));
                }
            }
            Expectation::PeakFlowsAtLeast(n) => {
                if (o.peak_flows as u64) < n {
                    fail(format!("peak flows {} < required {n}", o.peak_flows));
                }
            }
        }
    }
    failures
}

/// Emits a trace skeleton marker for a control event (tracing mode only).
fn trace_event(ev: ControlEvent, tick: u64) {
    if sysobs::tracing_on() {
        let name = match ev {
            ControlEvent::RouteInsert { .. } => "scenario.route_insert",
            ControlEvent::RouteRemove { .. } => "scenario.route_remove",
            ControlEvent::RouteNoopReinsertAll => "scenario.route_noop_reinsert",
            ControlEvent::BackendDrain { .. } => "scenario.backend_drain",
            ControlEvent::BackendKill { .. } => "scenario.backend_kill",
            ControlEvent::BackendRevive { .. } => "scenario.backend_revive",
        };
        sysobs::recorder::instant_dynamic(name, tick);
    }
}

/// A held-pin probe address: biased toward the routed subnets so churn is
/// actually visible (uniform u32 would mostly hit the default route).
fn probe_addr(rng: &mut SplitMix64) -> u32 {
    let r = rng.next_u64();
    #[allow(clippy::cast_possible_truncation)]
    let low16 = (r >> 8) as u32 & 0xFFFF;
    match r % 4 {
        0 => (u32::from_be_bytes([10, 50, 0, 0])) | low16,
        1 => (u32::from_be_bytes([10, 9, 0, 0])) | low16,
        2 => (u32::from_be_bytes([10, 77, 0, 0])) | low16,
        #[allow(clippy::cast_possible_truncation)]
        _ => (r >> 16) as u32,
    }
}

#[allow(clippy::cast_possible_truncation)]
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Runs a scenario to completion. Deterministic in `(spec, seed)`: the
/// returned [`ScenarioOutcome::digest`] is bit-identical across runs.
#[must_use]
pub fn run_scenario(s: &Scenario) -> ScenarioOutcome {
    let _g = TRACE_LOCK
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    run_scenario_unlocked(s)
}

/// The tick loop over the COW plane, with the held-pin oracle
/// when [`Scenario::pin`] is set.
fn run_scenario_unlocked(s: &Scenario) -> ScenarioOutcome {
    let table = Arc::new(CowRouteTable::from_trie(&lb_table()));
    let pub0 = table.publications();
    let data_reader = table.reader();
    let hold_reader = table.reader();
    let mut w = World::new(s);
    let mut now = 0u64;
    let establish_ticks = {
        let v = data_reader.pin();
        w.maybe_establish(&v, &mut now)
    };
    let mut snapshot: Option<TrieTable<u16>> = None;
    let mut held: Option<RouteView<'_, u16>> = None;
    let mut stale = 0u64;
    let mut rng = SplitMix64::new(s.seed ^ 0x9e37_79b9_7f4a_7c15);
    let t0 = Instant::now();
    for tick in 1..=s.ticks {
        now += s.tick_ns;
        for i in 0..s.events.len() {
            if s.events[i].tick == tick {
                let ev = s.events[i].event;
                trace_event(ev, tick);
                w.apply_event(&table, ev);
            }
        }
        if let Some(p) = s.pin {
            if tick == p.pin_tick {
                let mut snap = TrieTable::new();
                for (pr, l, v) in table.routes() {
                    snap.insert(pr, l, v).expect("snapshot of valid routes");
                }
                snapshot = Some(snap);
                held = Some(hold_reader.pin());
            }
            if tick == p.pin_tick.saturating_add(p.hold_ticks) {
                held = None;
                snapshot = None;
            }
            if let (Some(h), Some(snap)) = (held.as_ref(), snapshot.as_ref()) {
                for _ in 0..p.probes {
                    let addr = probe_addr(&mut rng);
                    if h.lookup(addr) != snap.lookup(addr) {
                        stale += 1;
                    }
                }
            }
        }
        w.probe(now);
        let v = data_reader.pin();
        let (d, o) = w.traffic_tick(&v, tick, now);
        w.per_tick.push((d, o));
    }
    let ns = elapsed_ns(t0);
    drop(held);
    let generation_delta = table.publications() - pub0;
    w.finish(establish_ticks, generation_delta, stale, ns)
}

/// The recorder and mode are process-global: traced runs take this
/// exclusively, so no plain run (shared) overlaps one and perturbs it.
static TRACE_LOCK: RwLock<()> = RwLock::new(());

/// Runs a scenario under full tracing and returns `(outcome,
/// trace_shape_digest, postmortems_fired)`. The outcome digest must equal
/// the untraced run's — observability must never perturb the data plane —
/// and [`run_campaign`] checks exactly that.
#[must_use]
pub fn run_scenario_traced(s: &Scenario) -> (ScenarioOutcome, u64, usize) {
    let _g = TRACE_LOCK
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let prev = sysobs::mode();
    sysobs::set_mode(sysobs::Mode::Tracing);
    sysobs::recorder::unfreeze();
    sysobs::recorder::clear();
    let mut triggers = sysobs::trigger::TriggerEngine::standard();
    // Baseline the delta watches against whatever the process did before.
    let _ = triggers.poll(None);
    let out = run_scenario_unlocked(s);
    let shape = sysobs::recorder::shape_digest();
    let postmortems = triggers.poll(Some(out.fault_digest)).len();
    sysobs::recorder::unfreeze();
    sysobs::set_mode(prev);
    (out, shape, postmortems)
}

/// One campaign row: the outcome plus the replay and trace evidence.
#[derive(Debug, Clone)]
pub struct CampaignEntry {
    /// The first (recorded) run.
    pub outcome: ScenarioOutcome,
    /// The second run's digest (must equal `outcome.digest`).
    pub replay_digest: u64,
    /// Did both the replay and the traced run reproduce the digest?
    pub replay_verified: bool,
    /// Timestamp-insensitive digest of the traced run's event shape.
    pub shape_digest: u64,
    /// Postmortems the standard trigger engine fired on the traced run.
    pub postmortems: usize,
}

/// Runs every scenario three times — plain, replay, traced — and verifies
/// the digest survives all three.
#[must_use]
pub fn run_campaign(scenarios: &[Scenario]) -> Vec<CampaignEntry> {
    scenarios
        .iter()
        .map(|s| {
            let first = run_scenario(s);
            let replay = run_scenario(s);
            let (traced, shape_digest, postmortems) = run_scenario_traced(s);
            let replay_verified = first.digest == replay.digest && first.digest == traced.digest;
            CampaignEntry {
                outcome: first,
                replay_digest: replay.digest,
                replay_verified,
                shape_digest,
                postmortems,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CtSpec, PinHold, ScheduledEvent, TrafficSpec};
    use sysfault::Schedule;

    fn small(name: &str, seed: u64) -> Scenario {
        Scenario {
            ticks: 40,
            traffic: TrafficSpec {
                flows: 32,
                ..TrafficSpec::default()
            },
            ..Scenario::named(name, seed)
        }
    }

    #[test]
    fn steady_scenario_reaches_full_goodput_and_audits_clean() {
        let o = run_scenario(&small("steady", 1));
        assert!(o.audit_ok);
        assert_eq!(o.ttl_violations, 0);
        assert!(o.availability() > 0.9, "got {}", o.availability());
        assert!((o.final_tick_goodput - 1.0).abs() < 1e-9);
        assert!(o.failures.is_empty(), "{:?}", o.failures);
    }

    #[test]
    fn same_seed_same_digest_different_seed_different_digest() {
        let a = run_scenario(&small("d", 7));
        let b = run_scenario(&small("d", 7));
        let c = run_scenario(&small("d", 8));
        assert_eq!(a.digest, b.digest, "replay must be exact");
        assert_ne!(a.digest, c.digest, "the seed must matter");
    }

    #[test]
    fn wire_loss_faults_dent_goodput_deterministically() {
        let mut s = small("lossy", 3);
        s.faults
            .push((SITE_WIRE_LOSS.to_owned(), Schedule::EveryNth(5)));
        let a = run_scenario(&s);
        let b = run_scenario(&s);
        assert!(a.wire_lost > 0, "the fault site must fire");
        assert!(a.availability() < 1.0);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.fault_digest, b.fault_digest);
    }

    #[test]
    fn backend_kill_ejects_flows_and_clients_recover() {
        let mut s = small("kill", 9);
        s.ticks = 80;
        s.traffic.arrival = Arrival::Trickle { stride: 1 };
        s.events.push(ScheduledEvent {
            tick: 10,
            event: ControlEvent::BackendKill { idx: 2 },
        });
        let o = run_scenario(&s);
        assert!(o.flows_ejected > 0, "weight-2 backend held flows");
        assert!(o.outage_ticks > 0, "the kill must cost ticks");
        assert!(
            (o.final_tick_goodput - 1.0).abs() < 1e-9,
            "clients re-handshake onto survivors: {o:?}"
        );
        assert!(o.audit_ok);
    }

    #[test]
    fn traced_run_reproduces_the_untraced_digest() {
        let s = small("traced", 5);
        let plain = run_scenario(&s);
        let (traced, shape, _pm) = run_scenario_traced(&s);
        assert_eq!(
            plain.digest, traced.digest,
            "observability must not perturb"
        );
        let (traced2, shape2, _pm2) = run_scenario_traced(&s);
        assert_eq!(traced.digest, traced2.digest);
        assert_eq!(shape, shape2, "trace shape must replay");
    }

    #[test]
    fn cow_plane_runs_with_held_pin_and_sees_no_stale_reads() {
        let mut s = small("cow", 11);
        s.pin = Some(PinHold {
            pin_tick: 5,
            hold_ticks: 20,
            probes: 16,
        });
        for t in 6..20 {
            s.events.push(ScheduledEvent {
                tick: t,
                event: ControlEvent::RouteInsert {
                    prefix: [10, 77, (t % 8) as u8, 0],
                    len: 24,
                    port: 0,
                },
            });
            s.events.push(ScheduledEvent {
                tick: t,
                event: ControlEvent::RouteRemove {
                    prefix: [10, 77, (t % 8) as u8, 0],
                    len: 24,
                },
            });
        }
        let o = run_scenario(&s);
        assert_eq!(o.stale_view_mismatches, 0, "epoch pin must hold");
        assert!(o.generation_delta > 0, "churn must publish");
        assert!(o.failures.is_empty(), "{:?}", o.failures);
    }

    #[test]
    fn expectations_fail_loudly_when_violated() {
        let mut s = small("strict", 2);
        s.expect.push(Expectation::MinAvailability(2.0));
        let o = run_scenario(&s);
        assert!(!o.expectations_ok());
        assert!(o.failures[0].contains("availability"));
    }

    #[test]
    fn tiny_conntrack_sheds_but_audits_clean() {
        let mut s = small("tiny-ct", 4);
        s.traffic.flows = 200;
        s.ct = CtSpec {
            max_flows: 64,
            syn_backlog: 48,
        };
        let o = run_scenario(&s);
        let shed: u64 = o.drops.iter().sum();
        assert!(shed > 0, "200 flows cannot fit 64 slots");
        assert!(o.audit_ok, "overload must never corrupt the table");
    }
}
