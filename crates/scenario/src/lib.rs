//! # sysscenario — replayable production campaigns + population fuzzing
//!
//! The repo had three separate seeded mechanisms — `sysfault` schedules,
//! `FrameForge` traffic, and scripted route/backend churn — that no single
//! test could compose (ROADMAP item 5). This crate is the composition
//! layer:
//!
//! * a [`Scenario`] is a *value*: one u64 seed plus a declarative spec of
//!   traffic shape, fault schedules, and control-plane events on a shared
//!   virtual clock. Running it twice produces bit-identical outcomes —
//!   the [`ScenarioOutcome::digest`] is the proof — so "the incident" and
//!   "the replay of the incident" are the same artifact;
//! * [`engine::run_scenario`] executes a scenario on the single-threaded
//!   load-balanced data path (`sysnet::pipeline::route_frame` with a
//!   conntrack shard and a backend pool, untraced) exactly the way
//!   `lbbench`'s failover harness does, with client handshake state
//!   machines, SYN-cookie echoes, scripted backend kills/drains, route
//!   flaps, and held epoch pins, and checks every forwarded frame's TTL
//!   decrement en passant;
//! * [`library::standard`] ships the campaign the acceptance bar names —
//!   flash crowd, route-flap storm, cascading backend death with drain
//!   coordination, slowloris trickle, mixed attack/benign — and
//!   [`library::regressions`] pins every previously-fixed headline bug
//!   (TTL forwarding loop, no-op-insert cache nuke, premature epoch free,
//!   half-pair NAT insert, parser overread) as a scenario that fails the
//!   campaign if the bug resurfaces;
//! * [`fuzz`] runs a persistent *population* of byte-string inputs
//!   against the `sysrepr` total parsers and the BitC VM, mutated and
//!   selected for outcome-class novelty (drop-reason diversity, parse
//!   error classes, VM trap classes). Crashes shrink through
//!   [`sysfault::shrink::minimize_bytes`] and graduate into pinned
//!   regression scenarios;
//! * [`report`] renders the campaign + fuzz record as
//!   `BENCH_scenario.json` (experiment E18).

pub mod engine;
pub mod fuzz;
pub mod library;
pub mod report;
pub mod spec;

pub use engine::{run_campaign, run_scenario, run_scenario_traced, CampaignEntry, ScenarioOutcome};
pub use fuzz::{run_fuzz, CrashArtifact, FuzzConfig, FuzzReport, FuzzTarget};
pub use spec::{
    Arrival, ControlEvent, CtSpec, Expectation, LbSpec, PinHold, PlaneSpec, Scenario,
    ScheduledEvent, TrafficSpec,
};
