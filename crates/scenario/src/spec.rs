//! The scenario format: a declarative, seeded spec of one production
//! campaign.
//!
//! A [`Scenario`] composes the four previously-separate seeded mechanisms
//! on one virtual clock: traffic generation ([`TrafficSpec`]), fault
//! schedules (`sysfault` sites), control-plane churn ([`ControlEvent`]s at
//! scheduled ticks), and LB drain/kill events. Everything that runs is a
//! function of the spec and its single `seed`; the engine enforces this by
//! deriving every PRNG stream from `seed` and consulting nothing else.

use sysfault::Schedule;
use sysnet::pipeline::DropReason;

/// How client arrivals are paced across the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Every flow is active from tick 0 (steady population).
    Steady,
    /// Flows activate linearly over the first `ramp_ticks` ticks — the
    /// flash-crowd front: a wall of concurrent handshakes, then steady
    /// data.
    FlashCrowd {
        /// Ticks over which the population ramps from 0 to `flows`.
        ramp_ticks: u64,
    },
    /// Every flow establishes up front, then only every `stride`-th flow
    /// sends per tick (rotating) — the slowloris shape: a huge resident
    /// table trickling data.
    Trickle {
        /// Stride between talkative flows per tick.
        stride: usize,
    },
}

/// The offered traffic: who sends, how fast, and how hostile.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Client flows (each a unique `10.9/16` endpoint dialing the VIP).
    pub flows: usize,
    /// Arrival pacing.
    pub arrival: Arrival,
    /// Attack fraction of offered load: port-scan SYNs against the VIP
    /// host's non-service ports, spoofed sources, never completing.
    /// `0.5` means one attack packet per benign packet.
    pub attack_mix: f64,
    /// Data payload bytes per established-flow packet.
    pub payload_len: usize,
    /// TTL stamped on every client frame (the TTL-loop regression sets 1).
    pub ttl: u8,
    /// Raw frames injected verbatim once per tick (pinned fuzzer
    /// reproductions ride here; they must *drop cleanly*, never panic).
    pub inject: Vec<Vec<u8>>,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        TrafficSpec {
            flows: 128,
            arrival: Arrival::Steady,
            attack_mix: 0.0,
            payload_len: 32,
            ttl: 64,
            inject: Vec::new(),
        }
    }
}

/// A control-plane action applied at a scheduled tick, before that tick's
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlEvent {
    /// Insert (or re-insert) a route.
    RouteInsert {
        /// Network prefix.
        prefix: [u8; 4],
        /// Prefix length.
        len: u8,
        /// Next hop port.
        port: u16,
    },
    /// Remove a route.
    RouteRemove {
        /// Network prefix.
        prefix: [u8; 4],
        /// Prefix length.
        len: u8,
    },
    /// Re-insert every current route with its current next hop — the
    /// value-preserving no-op storm that used to nuke every flow cache.
    RouteNoopReinsertAll,
    /// Start draining a backend: established flows keep flowing, no new
    /// assignments.
    BackendDrain {
        /// Backend index.
        idx: u16,
    },
    /// Kill a backend (administrative force-down) and eject its flows —
    /// clients re-handshake and re-select.
    BackendKill {
        /// Backend index.
        idx: u16,
    },
    /// Return a killed or draining backend to service.
    BackendRevive {
        /// Backend index.
        idx: u16,
    },
}

/// A [`ControlEvent`] bound to its virtual tick (1-based, applied at the
/// start of the tick).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent {
    /// Tick at which the event fires.
    pub tick: u64,
    /// What happens.
    pub event: ControlEvent,
}

/// Backend-pool knobs (the backend set itself is the engine's standard
/// weighted trio, as in the LB bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LbSpec {
    /// Health-probe interval in ticks.
    pub probe_interval_ticks: u64,
    /// Consecutive probe failures before Down.
    pub fall: u32,
    /// Consecutive probe successes before a down backend rises (set
    /// `u32::MAX` to make scripted deaths permanent).
    pub rise: u32,
}

impl Default for LbSpec {
    fn default() -> Self {
        LbSpec {
            probe_interval_ticks: 10,
            fall: 1,
            rise: u32::MAX,
        }
    }
}

/// Conntrack sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtSpec {
    /// Hard entry bound; `0` auto-sizes to `4 * flows + 2 * syn_backlog`
    /// (NAT twins double the population; ≤ 50% load).
    pub max_flows: usize,
    /// Half-open budget.
    pub syn_backlog: usize,
}

impl Default for CtSpec {
    fn default() -> Self {
        CtSpec {
            max_flows: 0,
            syn_backlog: 256,
        }
    }
}

/// Held epoch pin: at `pin_tick` the engine snapshots the route table,
/// pins a [`sysnet::RouteView`], and for `hold_ticks` ticks cross-checks
/// `probes` addresses per tick through the pinned view against the
/// snapshot — any divergence under churn means a reclaimed node was read
/// (the premature-epoch-free regression's oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinHold {
    /// Tick at which the view pins.
    pub pin_tick: u64,
    /// Ticks the pin is held across churn.
    pub hold_ticks: u64,
    /// Addresses probed through the pinned view per tick.
    pub probes: usize,
}

/// An acceptance check evaluated against the finished
/// [`crate::ScenarioOutcome`]. A scenario with a failed expectation fails
/// the campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expectation {
    /// Delivered/offered over the whole run ≥ this.
    MinAvailability(f64),
    /// Goodput on the final tick ≥ this (did the system recover?).
    FinalGoodputAtLeast(f64),
    /// Exactly this many data packets delivered (the TTL-loop regression
    /// demands 0).
    DeliveredExactly(u64),
    /// At least this many drops for the reason.
    DropsAtLeast(DropReason, u64),
    /// At most this many drops for the reason.
    DropsAtMost(DropReason, u64),
    /// The route table published at most this many times.
    GenerationDeltaAtMost(u64),
    /// Flow-cache misses attributed to invalidation ≤ this.
    InvalidationMissesAtMost(u64),
    /// Every forwarded frame re-parsed with TTL exactly one less than
    /// offered (the forwarding-loop oracle).
    TtlViolationsZero,
    /// Every probe through a held epoch pin matched the pin-time snapshot.
    StaleViewMismatchesZero,
    /// `Conntrack::check_invariants` passed after the run (twin-pair and
    /// accounting conservation — the half-pair NAT oracle).
    AuditClean,
    /// At least this many conntrack entries ejected by backend death.
    FlowsEjectedAtLeast(u64),
    /// At most this many packets shed for want of any live backend.
    NoBackendAtMost(u64),
    /// Peak live conntrack entries ≥ this (slowloris residency).
    PeakFlowsAtLeast(u64),
}

/// One replayable campaign: a name, a seed, and the composed spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Campaign-unique name (also the JSON row key).
    pub name: String,
    /// The single seed every PRNG stream derives from.
    pub seed: u64,
    /// Measured virtual ticks (after any establishment phase the arrival
    /// shape implies).
    pub ticks: u64,
    /// Virtual nanoseconds per tick.
    pub tick_ns: u64,
    /// Offered traffic.
    pub traffic: TrafficSpec,
    /// Fault sites scheduled under `seed` (conntrack sites, the LB probe
    /// site, and the engine's wire-loss site all draw from one plan).
    pub faults: Vec<(String, Schedule)>,
    /// Control-plane events by tick.
    pub events: Vec<ScheduledEvent>,
    /// Backend-pool knobs.
    pub lb: LbSpec,
    /// Conntrack sizing.
    pub ct: CtSpec,
    /// Flow-cache slots (0 = no cache).
    pub cache_slots: usize,
    /// Held-pin oracle on the route table, if any.
    pub pin: Option<PinHold>,
    /// Acceptance checks.
    pub expect: Vec<Expectation>,
}

impl Scenario {
    /// A steady 128-flow scenario with no faults, no churn, and the
    /// universal oracles (TTL decrement, conntrack audit) armed — the
    /// base the library builds on.
    #[must_use]
    pub fn named(name: &str, seed: u64) -> Self {
        Scenario {
            name: name.to_owned(),
            seed,
            ticks: 100,
            tick_ns: 100_000,
            traffic: TrafficSpec::default(),
            faults: Vec::new(),
            events: Vec::new(),
            lb: LbSpec::default(),
            ct: CtSpec::default(),
            cache_slots: 0,
            pin: None,
            expect: vec![Expectation::TtlViolationsZero, Expectation::AuditClean],
        }
    }

    /// Auto-sized conntrack capacity (see [`CtSpec::max_flows`]).
    #[must_use]
    pub fn ct_capacity(&self) -> usize {
        if self.ct.max_flows > 0 {
            self.ct.max_flows
        } else {
            4 * self.traffic.flows + 2 * self.ct.syn_backlog
        }
    }
}
