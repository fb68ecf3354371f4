//! The standard scenario library and the pinned-regression campaign.
//!
//! [`standard`] is the acceptance campaign: five production shapes, each
//! replayable from the single printed seed. [`regressions`] pins every
//! previously-fixed headline bug as a scenario whose expectations fail the
//! campaign if the bug resurfaces:
//!
//! | scenario | bug it pins | oracle |
//! |---|---|---|
//! | `regress-ttl-loop` | missing TTL decrement (forwarding loops) | `DeliveredExactly(0)` + TTL-expired drops |
//! | `regress-noop-insert-cache-nuke` | value-preserving re-insert bumping the generation | `GenerationDeltaAtMost(0)` |
//! | `regress-premature-epoch-free` | pinned readers seeing reclaimed trie nodes | `StaleViewMismatchesZero` under churn |
//! | `regress-half-pair-nat` | forward NAT twin inserted without its reply twin | `AuditClean` under table-full pressure |
//! | `regress-parser-overread` | length-trusting parse (the seeded C idiom) | injected fixture drops as `Malformed` |
//!
//! [`failover`] is experiment E17's scripted backend death, run as a
//! scenario and read back into `sysnet`'s [`FailoverReport`].

use crate::engine::{run_scenario, SITE_WIRE_LOSS};
use crate::spec::{
    Arrival, ControlEvent, CtSpec, Expectation, LbSpec, PinHold, Scenario, ScheduledEvent,
    TrafficSpec,
};
use sysfault::Schedule;
use sysnet::lb::SITE_LB_PROBE_FAIL;
use sysnet::lbbench::{FailoverConfig, FailoverReport, PROBE_INTERVAL_NS, TICK_NS};
use sysnet::pipeline::DropReason;

/// The 34-byte trusting-parser fixture: a well-framed Ethernet header
/// carrying an IPv4 header that claims IHL = 6 (24 header bytes) while
/// only 20 bytes follow. [`sysrepr::packet::Ipv4View::parse`] rejects it
/// (`Truncated`), so the production path drops it as `Malformed`; the
/// seeded [`sysrepr::packet::Ipv4View::parse_trusting_lengths`] accepts
/// it and panics the moment `options()` slices past the buffer — the
/// minimal crasher the population fuzzer converges to.
#[must_use]
pub fn parser_overread_fixture() -> Vec<u8> {
    let mut f = vec![0u8; 34];
    f[12] = 0x08; // EtherType IPv4
    f[13] = 0x00;
    f[14] = 0x46; // version 4, IHL 6: header claims 24 bytes of 20
    f[17] = 24; // total_len = claimed header, nothing else
    f
}

/// The five-scenario standard campaign.
#[must_use]
pub fn standard() -> Vec<Scenario> {
    vec![
        flash_crowd(),
        route_flap_storm(),
        cascading_backend_death(),
        slowloris_trickle(),
        mixed_attack_benign(),
    ]
}

/// The pinned-regression campaign (one scenario per fixed headline bug).
#[must_use]
pub fn regressions() -> Vec<Scenario> {
    vec![
        regress_ttl_loop(),
        regress_noop_insert_cache_nuke(),
        regress_premature_epoch_free(),
        regress_half_pair_nat(),
        regress_parser_overread(),
    ]
}

/// Wraps a fuzzer crash input as a pinned scenario: the input is injected
/// every tick and must *drop cleanly* — surviving the run without a panic
/// and leaving the conntrack auditable is the pass condition.
#[must_use]
pub fn pin_crash(name: &str, input: &[u8]) -> Scenario {
    let mut s = Scenario::named(name, 0xC4A5);
    s.ticks = 20;
    s.traffic = TrafficSpec {
        flows: 8,
        inject: vec![input.to_vec()],
        ..TrafficSpec::default()
    };
    s.expect = vec![Expectation::AuditClean, Expectation::TtlViolationsZero];
    s
}

/// A wall of concurrent handshakes: flows ramp in linearly over the first
/// 40 ticks, then steady data. Availability absorbs the handshake tax and
/// the pool must still come out lossless.
fn flash_crowd() -> Scenario {
    let mut s = Scenario::named("flash-crowd", 0xF1A5);
    s.ticks = 120;
    s.traffic = TrafficSpec {
        flows: 256,
        arrival: Arrival::FlashCrowd { ramp_ticks: 40 },
        ..TrafficSpec::default()
    };
    s.expect.extend([
        Expectation::MinAvailability(0.90),
        Expectation::FinalGoodputAtLeast(1.0),
        Expectation::NoBackendAtMost(0),
    ]);
    s
}

/// The backend route flaps in and out for twenty ticks while an
/// established population streams through a flow cache. Data must shed as
/// `NoRoute` during the holes and goodput must return to 1.0 after the
/// storm — and the cache's generation invalidation must keep decisions
/// exact through every flap.
fn route_flap_storm() -> Scenario {
    let mut s = Scenario::named("route-flap-storm", 0xF1AB);
    s.ticks = 100;
    s.cache_slots = 1024;
    s.traffic = TrafficSpec {
        flows: 128,
        arrival: Arrival::Trickle { stride: 1 },
        ..TrafficSpec::default()
    };
    let backend_net = [10u8, 50, 0, 0];
    // Drop the default route first: a real edge box doesn't blackhole-proof
    // its backend subnet with 0/0, and without this the flap holes would be
    // silently absorbed by the default instead of surfacing as NoRoute.
    s.events.push(ScheduledEvent {
        tick: 15,
        event: ControlEvent::RouteRemove {
            prefix: [0, 0, 0, 0],
            len: 0,
        },
    });
    s.events.push(ScheduledEvent {
        tick: 45,
        event: ControlEvent::RouteInsert {
            prefix: [0, 0, 0, 0],
            len: 0,
            port: 0,
        },
    });
    for k in 0..10u64 {
        s.events.push(ScheduledEvent {
            tick: 20 + 2 * k,
            event: ControlEvent::RouteRemove {
                prefix: backend_net,
                len: 16,
            },
        });
        s.events.push(ScheduledEvent {
            tick: 21 + 2 * k,
            event: ControlEvent::RouteInsert {
                prefix: backend_net,
                len: 16,
                port: 1,
            },
        });
    }
    s.expect.extend([
        Expectation::DropsAtLeast(DropReason::NoRoute, 1),
        Expectation::FinalGoodputAtLeast(1.0),
    ]);
    s
}

/// Drain one backend, then kill the heaviest: drained flows keep flowing,
/// the kill ejects its victims, and every orphan must re-handshake onto
/// the lone fully-live backend without a single no-backend shed.
fn cascading_backend_death() -> Scenario {
    let mut s = Scenario::named("cascading-backend-death", 0xDEAD);
    s.ticks = 120;
    s.traffic = TrafficSpec {
        flows: 192,
        arrival: Arrival::Trickle { stride: 1 },
        ..TrafficSpec::default()
    };
    s.events.extend([
        ScheduledEvent {
            tick: 20,
            event: ControlEvent::BackendDrain { idx: 0 },
        },
        ScheduledEvent {
            tick: 40,
            event: ControlEvent::BackendKill { idx: 2 },
        },
        ScheduledEvent {
            tick: 80,
            event: ControlEvent::BackendRevive { idx: 0 },
        },
    ]);
    s.expect.extend([
        Expectation::FlowsEjectedAtLeast(2),
        Expectation::NoBackendAtMost(0),
        Expectation::FinalGoodputAtLeast(1.0),
    ]);
    s
}

/// A large resident population trickling data on a 16-tick stride: the
/// NAT table must hold twin entries for every flow the whole run, and the
/// slow talkers must lose nothing.
fn slowloris_trickle() -> Scenario {
    let mut s = Scenario::named("slowloris-trickle", 0x510);
    s.ticks = 96;
    s.traffic = TrafficSpec {
        flows: 512,
        arrival: Arrival::Trickle { stride: 16 },
        ..TrafficSpec::default()
    };
    s.expect.extend([
        Expectation::PeakFlowsAtLeast(1024),
        Expectation::MinAvailability(0.999),
    ]);
    s
}

/// Half the offered load is a spoofed-source port scan against the VIP
/// host, with a sprinkle of wire loss on the benign side. The established
/// population must ride it out essentially untouched.
fn mixed_attack_benign() -> Scenario {
    let mut s = Scenario::named("mixed-attack-benign", 0xA77C);
    s.ticks = 100;
    s.traffic = TrafficSpec {
        flows: 128,
        arrival: Arrival::Trickle { stride: 1 },
        attack_mix: 0.5,
        ..TrafficSpec::default()
    };
    s.faults
        .push((SITE_WIRE_LOSS.to_owned(), Schedule::EveryNth(997)));
    s.expect.push(Expectation::MinAvailability(0.99));
    s
}

/// ISSUE pin: the missing-TTL-decrement forwarding loop. Offered TTL 1
/// must expire at the first hop: zero deliveries, every frame dropped
/// `TtlExpired`. If decrement ever goes missing again, frames start
/// delivering and `DeliveredExactly(0)` fails the campaign.
fn regress_ttl_loop() -> Scenario {
    let mut s = Scenario::named("regress-ttl-loop", 0x77 ^ 0x1);
    s.ticks = 50;
    s.traffic = TrafficSpec {
        flows: 64,
        ttl: 1,
        ..TrafficSpec::default()
    };
    s.expect.extend([
        Expectation::DeliveredExactly(0),
        Expectation::DropsAtLeast(DropReason::TtlExpired, 1_000),
    ]);
    s
}

/// ISSUE pin: the no-op-insert cache nuke. A control plane re-asserting
/// every route with unchanged values, every tick, must not advance the
/// table generation — and therefore must not cost the flow cache a single
/// invalidation miss.
fn regress_noop_insert_cache_nuke() -> Scenario {
    let mut s = Scenario::named("regress-noop-insert-cache-nuke", 0x40B);
    s.ticks = 60;
    s.cache_slots = 512;
    s.traffic = TrafficSpec {
        flows: 64,
        arrival: Arrival::Trickle { stride: 1 },
        ..TrafficSpec::default()
    };
    for tick in 5..55 {
        s.events.push(ScheduledEvent {
            tick,
            event: ControlEvent::RouteNoopReinsertAll,
        });
    }
    s.expect.extend([
        Expectation::GenerationDeltaAtMost(0),
        Expectation::InvalidationMissesAtMost(0),
        Expectation::MinAvailability(0.999),
    ]);
    s
}

/// ISSUE pin: the premature epoch free. A reader pins a route view at
/// tick 10 and holds it for 30 ticks of insert/remove churn; every probe
/// through the held pin must keep matching the pin-time snapshot. A
/// reclaimed-under-pin node diverges and fails the campaign.
fn regress_premature_epoch_free() -> Scenario {
    let mut s = Scenario::named("regress-premature-epoch-free", 0xEF0C);
    s.ticks = 60;
    s.pin = Some(PinHold {
        pin_tick: 10,
        hold_ticks: 30,
        probes: 64,
    });
    s.traffic = TrafficSpec {
        flows: 64,
        arrival: Arrival::Trickle { stride: 1 },
        ..TrafficSpec::default()
    };
    for k in 0..14u64 {
        let third = u8::try_from(k % 7).expect("small");
        s.events.push(ScheduledEvent {
            tick: 11 + 2 * k,
            event: ControlEvent::RouteInsert {
                prefix: [10, 77, third, 0],
                len: 24,
                port: 0,
            },
        });
        s.events.push(ScheduledEvent {
            tick: 12 + 2 * k,
            event: ControlEvent::RouteRemove {
                prefix: [10, 77, third, 0],
                len: 24,
            },
        });
    }
    s.expect.push(Expectation::StaleViewMismatchesZero);
    s
}

/// ISSUE pin: the half-pair NAT insert. 200 flows hammer a 64-slot table
/// so twin inserts keep failing mid-pair. Overload defense sheds the
/// excess as `NoFlow` (cookie mode keeps `FlowTableFull` off the fast
/// path), so the oracle is saturation (`PeakFlowsAtLeast`) plus heavy
/// `NoFlow` shedding plus `AuditClean` — a surviving forward twin
/// without its reply twin fails the audit.
fn regress_half_pair_nat() -> Scenario {
    let mut s = Scenario::named("regress-half-pair-nat", 0x4A1F);
    s.ticks = 30;
    s.traffic = TrafficSpec {
        flows: 200,
        ..TrafficSpec::default()
    };
    s.ct = CtSpec {
        max_flows: 64,
        syn_backlog: 48,
    };
    s.expect.extend([
        Expectation::PeakFlowsAtLeast(64),
        Expectation::DropsAtLeast(DropReason::NoFlow, 1),
    ]);
    s
}

/// ISSUE pin: the trusting-parser overread, graduated from the fuzzer.
/// The minimal crasher is injected every tick; the production (total)
/// parse path must classify it `Malformed` and drop it cleanly, tick
/// after tick.
fn regress_parser_overread() -> Scenario {
    let mut s = pin_crash("regress-parser-overread", &parser_overread_fixture());
    s.expect
        .push(Expectation::DropsAtLeast(DropReason::Malformed, 20));
    s
}

/// Runs E17's failover scenario and reads its record off the per-tick
/// `(delivered, offered)` series.
///
/// `cfg.flows` clients establish up front and then every flow talks every
/// tick (`Trickle` at stride 1), until backend 2 dies on probe round
/// `cfg.death_round`. Probes run in backend order, so call 3k of the probe
/// site is round k's backend-2 probe: `OneShotAt(3 * death_round)` is a
/// scripted, single-backend death. `fall` = 1 makes that round the death,
/// and `rise` = never keeps the backend dead: recovery is the clients'
/// story, not the backend's.
///
/// The death is the first tick that failed to deliver and its shortfall is
/// the victims; recovery is the first later tick on which every flow
/// delivered again. Goodput is data packets delivered over packets
/// offered: handshake retries spend offered slots without delivering,
/// which is exactly the cost failover should be charged.
///
/// # Panics
///
/// If the scenario's oracles failed (TTL decrement, conntrack audit), or
/// if the ejection freed anything but the victims' twin pairs — which is
/// what a death landing during establishment looks like.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn failover(cfg: &FailoverConfig) -> FailoverReport {
    let mut s = Scenario::named("failover", 0xE17);
    s.ticks = cfg.rounds as u64;
    s.tick_ns = TICK_NS;
    s.traffic = TrafficSpec {
        flows: cfg.flows,
        arrival: Arrival::Trickle { stride: 1 },
        ..TrafficSpec::default()
    };
    s.faults.push((
        SITE_LB_PROBE_FAIL.to_owned(),
        Schedule::OneShotAt(3 * cfg.death_round),
    ));
    s.lb = LbSpec {
        probe_interval_ticks: PROBE_INTERVAL_NS / TICK_NS,
        fall: 1,
        rise: u32::MAX,
    };
    s.ct = CtSpec {
        max_flows: 4 * cfg.flows,
        syn_backlog: cfg.flows.max(64),
    };
    let out = run_scenario(&s);
    assert!(out.failures.is_empty(), "failover: {:?}", out.failures);
    let ticks = &out.per_tick;
    let death = ticks.iter().position(|&(d, o)| d < o);
    let recovery = death.and_then(|k| (k + 1..ticks.len()).find(|&t| ticks[t].0 == ticks[t].1));
    let victims = death.map_or(0, |k| ticks[k].1 - ticks[k].0);
    assert_eq!(
        out.flows_ejected,
        2 * victims,
        "the death must land after establishment and eject exactly the victims' twins"
    );
    let goodput = |ticks: &[(u64, u64)]| {
        let (d, o) = ticks
            .iter()
            .fold((0, 0), |(d, o), &(td, to)| (d + td, o + to));
        if o == 0 {
            1.0
        } else {
            d as f64 / o as f64
        }
    };
    // Before the death, the death tick through recovery, and after.
    let start = death.unwrap_or(ticks.len());
    let end = recovery.map_or(ticks.len(), |r| r + 1);
    let (pre, during, post) = (&ticks[..start], &ticks[start..end], &ticks[end..]);
    FailoverReport {
        flows: cfg.flows,
        victims,
        flows_ejected: out.flows_ejected,
        death_ns: death.map_or(0, |k| (out.establish_ticks + k as u64 + 1) * s.tick_ns),
        recovery_ns: death.zip(recovery).map(|(k, r)| (r - k) as u64 * s.tick_ns),
        probe_interval_ns: PROBE_INTERVAL_NS,
        goodput_pre: goodput(pre),
        goodput_during: goodput(during),
        goodput_post: goodput(post),
    }
}

/// Tick/flow scaledown for CI: same shapes, same seeds, same oracles,
/// smaller populations.
#[must_use]
pub fn quick_scale(mut scenarios: Vec<Scenario>) -> Vec<Scenario> {
    for s in &mut scenarios {
        s.traffic.flows = (s.traffic.flows / 4).max(16);
        // Count-based expectations that scale with population.
        for e in &mut s.expect {
            match e {
                Expectation::PeakFlowsAtLeast(n) => *n /= 4,
                Expectation::DropsAtLeast(DropReason::TtlExpired, n) => *n /= 4,
                _ => {}
            }
        }
    }
    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_campaign_has_the_five_named_shapes() {
        let names: Vec<String> = standard().into_iter().map(|s| s.name).collect();
        for expected in [
            "flash-crowd",
            "route-flap-storm",
            "cascading-backend-death",
            "slowloris-trickle",
            "mixed-attack-benign",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn every_standard_scenario_passes_its_own_expectations() {
        for s in quick_scale(standard()) {
            let o = run_scenario(&s);
            assert!(
                o.expectations_ok(),
                "scenario '{}' failed: {:?}",
                s.name,
                o.failures
            );
        }
    }

    #[test]
    fn every_regression_scenario_passes_while_the_bugs_stay_fixed() {
        for s in regressions() {
            let o = run_scenario(&s);
            assert!(
                o.expectations_ok(),
                "regression '{}' failed: {:?}",
                s.name,
                o.failures
            );
        }
    }

    #[test]
    fn the_overread_fixture_crashes_the_trusting_parser_only() {
        use sysrepr::packet::{EthernetView, Ipv4View};
        let fixture = parser_overread_fixture();
        let eth = EthernetView::parse(&fixture).expect("framed");
        assert!(
            Ipv4View::parse(eth.payload()).is_err(),
            "the total parser must reject the short header"
        );
        assert!(
            crate::fuzz::replay(crate::fuzz::FuzzTarget::Packet, &fixture).is_some(),
            "the trusting parser must panic on it"
        );
    }

    #[test]
    fn failover_recovers_within_one_probe_interval() {
        // (config, victims, flows_ejected, death_ns, goodput_during)
        let pinned = [
            (
                FailoverConfig::default(),
                116,
                232,
                19_100_000,
                0.660_156_25,
            ),
            (
                FailoverConfig {
                    flows: 128,
                    rounds: 120,
                    death_round: 10,
                },
                57,
                114,
                9_100_000,
                0.666_015_625,
            ),
        ];
        for (cfg, victims, ejected, death_ns, during) in pinned {
            let r = failover(&cfg);
            assert!(r.victims > 0, "weight-2 backend 2 must hold flows");
            assert_eq!(r.flows_ejected, 2 * r.victims, "twins ejected in pairs");
            assert!(r.death_ns > 0);
            assert!(
                (r.goodput_pre - 1.0).abs() < 1e-9,
                "steady state is lossless"
            );
            assert!(r.goodput_during < 1.0, "death costs handshake ticks");
            assert!((r.goodput_post - 1.0).abs() < 1e-9, "recovery is complete");
            assert!(
                r.recovered_within_probe_interval(),
                "recovery {:?} must beat the probe interval {}",
                r.recovery_ns,
                r.probe_interval_ns
            );
            assert_eq!(
                (r.flows, r.victims, r.flows_ejected, r.death_ns),
                (cfg.flows, victims, ejected, death_ns)
            );
            assert_eq!(r.recovery_ns, Some(300_000));
            assert_eq!(r.probe_interval_ns, PROBE_INTERVAL_NS);
            assert_eq!(
                (r.goodput_pre, r.goodput_during, r.goodput_post),
                (1.0, during, 1.0)
            );
        }
    }

    #[test]
    fn pinned_crashes_drop_cleanly_through_the_engine() {
        let o = run_scenario(&pin_crash("pinned", &parser_overread_fixture()));
        assert!(o.expectations_ok(), "{:?}", o.failures);
        assert_eq!(o.injected_sent, 20);
    }
}
