//! The trigger engine: declarative watchers over the metrics registry that
//! turn a live anomaly into a frozen flight-recorder ring and a black-box
//! postmortem, instead of a counter nobody was looking at.
//!
//! A [`Watch`] names an anomaly and a [`Condition`] over a registry
//! [`Snapshot`]: a counter (or prefix-sum) jumping by more
//! than a threshold between polls, a counter crossing an absolute line, or
//! a gauge rising to a level. Conditions are **edge-triggered**: a watch
//! fires once when its condition becomes true and re-arms only after the
//! condition has gone quiet (delta conditions re-arm on the next quiet
//! poll; level conditions when the value falls back below the line). That
//! is what makes "exactly one postmortem per incident" a property the E16
//! campaign can assert rather than hope for.
//!
//! On fire, the [`TriggerEngine`] freezes the recorder rings, captures a
//! [`Postmortem`] (ring tail + metrics snapshot + cause + the active
//! `sysfault` digest, if the fault layer published one), and unfreezes.
//! Polling is pull-based — a few microseconds of snapshotting per call —
//! so the engine can run from a watchdog tick, a bench loop, or a test,
//! without a thread of its own.

use crate::metrics::Snapshot;
use crate::postmortem::Postmortem;
use crate::recorder;

/// A predicate over successive registry snapshots.
#[derive(Debug, Clone)]
pub enum Condition {
    /// Fires when the sum of counters under `prefix` grows by at least
    /// `min_delta` between two consecutive polls (rate spike detection:
    /// drop storms, reap bursts, stall runs).
    CounterDelta {
        /// Counter name prefix (exact names work too — prefix sum of one).
        prefix: &'static str,
        /// Minimum growth between polls to count as a spike.
        min_delta: u64,
    },
    /// Fires when the sum of counters under `prefix` first reaches `min`.
    CounterAtLeast {
        /// Counter name prefix.
        prefix: &'static str,
        /// Absolute line to cross.
        min: u64,
    },
    /// Fires when gauge `name` rises to at least `min` (engagement
    /// signals: cookie-mode shard counts, queue depths).
    GaugeAtLeast {
        /// Gauge name.
        name: &'static str,
        /// Level that counts as engaged.
        min: i64,
    },
}

/// One named watcher: a [`Condition`] plus its edge-tracking state.
#[derive(Debug, Clone)]
pub struct Watch {
    /// The trigger's name — lands in the postmortem artifact verbatim.
    pub name: &'static str,
    cond: Condition,
    /// Last observed value (counter sum or gauge as u64-bits).
    last: Option<u64>,
    /// True while the condition holds (suppresses refires until quiet).
    latched: bool,
}

impl Watch {
    /// A watch over `cond` named `name`.
    #[must_use]
    pub fn new(name: &'static str, cond: Condition) -> Watch {
        Watch {
            name,
            cond,
            last: None,
            latched: false,
        }
    }

    /// Shorthand: fire when counters under `prefix` jump by `min_delta`
    /// within one poll interval.
    #[must_use]
    pub fn counter_delta(name: &'static str, prefix: &'static str, min_delta: u64) -> Watch {
        Watch::new(name, Condition::CounterDelta { prefix, min_delta })
    }

    /// Evaluates against one snapshot; `Some(cause)` exactly when the
    /// watch fires on this poll.
    fn eval(&mut self, snap: &Snapshot) -> Option<String> {
        match self.cond {
            Condition::CounterDelta { prefix, min_delta } => {
                let now = snap.counter_sum(prefix);
                let prev = self.last.replace(now);
                let delta = prev.map(|p| now.saturating_sub(p));
                match delta {
                    // First poll is the baseline: never fire, never latch.
                    None => None,
                    Some(d) if d >= min_delta => {
                        if self.latched {
                            None // still inside the same incident
                        } else {
                            self.latched = true;
                            Some(format!(
                                "counter sum `{prefix}` jumped by {d} (>= {min_delta}) in one poll \
                                 interval, now {now}"
                            ))
                        }
                    }
                    Some(_) => {
                        self.latched = false; // quiet poll re-arms
                        None
                    }
                }
            }
            Condition::CounterAtLeast { prefix, min } => {
                let now = snap.counter_sum(prefix);
                let over = now >= min;
                let fire = over && !self.latched;
                self.latched = over;
                fire.then(|| format!("counter sum `{prefix}` reached {now} (>= {min})"))
            }
            Condition::GaugeAtLeast { name, min } => {
                let now = snap.gauge(name);
                let over = now >= min;
                let fire = over && !self.latched;
                self.latched = over;
                fire.then(|| format!("gauge `{name}` rose to {now} (>= {min})"))
            }
        }
    }
}

/// The poll loop: a set of watches, each producing at most one
/// [`Postmortem`] per incident.
#[derive(Debug, Default)]
pub struct TriggerEngine {
    watches: Vec<Watch>,
    fired: u64,
}

impl TriggerEngine {
    /// An engine with no watches.
    #[must_use]
    pub fn new() -> TriggerEngine {
        TriggerEngine::default()
    }

    /// Adds a watch (builder-style).
    #[must_use]
    pub fn with(mut self, watch: Watch) -> TriggerEngine {
        self.watches.push(watch);
        self
    }

    /// Adds a watch.
    pub fn add(&mut self, watch: Watch) {
        self.watches.push(watch);
    }

    /// The standard production watch set over this repo's stack: drop-rate
    /// spike, SYN-cookie engagement, backpressure stall, watchdog firing,
    /// epoch-advancement lag, and balancer backend death. Thresholds are
    /// per poll interval; callers with faster/slower poll cadences build
    /// their own.
    #[must_use]
    pub fn standard() -> TriggerEngine {
        TriggerEngine::new()
            .with(Watch::counter_delta("drop-rate-spike", "net.drop.", 64))
            .with(Watch::counter_delta(
                "syn-cookie-engaged",
                "net.ct.cookie_mode_entries",
                1,
            ))
            .with(Watch::counter_delta(
                "backpressure-stall",
                "net.dispatch.requeues",
                32,
            ))
            .with(Watch::counter_delta(
                "watchdog-fired",
                "kernel.watchdog_reaps",
                1,
            ))
            .with(Watch::counter_delta(
                "epoch-advance-lag",
                "mem.epoch.advance_stalls",
                16,
            ))
            .with(Watch::counter_delta("backend-death", "net.lb.ejections", 1))
    }

    /// Total postmortems emitted over the engine's lifetime.
    #[must_use]
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Polls every watch against the current registry snapshot. Each watch
    /// that fires freezes the rings, captures a postmortem (tagging it
    /// with `fault_digest` — pass the active `sysfault` log digest when a
    /// campaign is running), and unfreezes.
    pub fn poll(&mut self, fault_digest: Option<u64>) -> Vec<Postmortem> {
        let snap = crate::registry().snapshot();
        let mut out = Vec::new();
        for w in &mut self.watches {
            if let Some(cause) = w.eval(&snap) {
                recorder::freeze();
                let pm = Postmortem::capture(w.name, &cause, &snap, fault_digest);
                recorder::unfreeze();
                self.fired += 1;
                out.push(pm);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(pairs: &[(&str, u64)]) -> Snapshot {
        let mut s = Snapshot::new();
        for (k, v) in pairs {
            s.set_counter(*k, *v);
        }
        s
    }

    #[test]
    fn delta_watch_fires_once_per_incident_and_rearms() {
        let mut w = Watch::counter_delta("spike", "t.drop.", 10);
        assert!(w.eval(&snap(&[("t.drop.a", 0)])).is_none(), "baseline poll");
        assert!(
            w.eval(&snap(&[("t.drop.a", 50)])).is_some(),
            "jump of 50 fires"
        );
        assert!(
            w.eval(&snap(&[("t.drop.a", 120)])).is_none(),
            "still spiking: same incident, no refire"
        );
        assert!(w.eval(&snap(&[("t.drop.a", 121)])).is_none(), "quiet poll");
        assert!(
            w.eval(&snap(&[("t.drop.a", 500)])).is_some(),
            "second incident fires again"
        );
    }

    #[test]
    fn at_least_watch_needs_the_line_crossed() {
        let mut w = Watch::new(
            "line",
            Condition::CounterAtLeast {
                prefix: "t.line",
                min: 100,
            },
        );
        assert!(w.eval(&snap(&[("t.line", 99)])).is_none());
        let cause = w.eval(&snap(&[("t.line", 100)])).expect("crossing fires");
        assert!(cause.contains("100"), "{cause}");
        assert!(
            w.eval(&snap(&[("t.line", 200)])).is_none(),
            "monotonic counter stays latched"
        );
    }

    #[test]
    fn gauge_watch_fires_on_rising_edge() {
        let mut w = Watch::new(
            "engaged",
            Condition::GaugeAtLeast {
                name: "t.gauge",
                min: 5,
            },
        );
        let mut s = Snapshot::new();
        s.set_gauge("t.gauge", 3);
        assert!(w.eval(&s).is_none());
        s.set_gauge("t.gauge", 7);
        assert!(w.eval(&s).is_some());
        assert!(w.eval(&s).is_none(), "held level does not refire");
        s.set_gauge("t.gauge", 0);
        assert!(w.eval(&s).is_none(), "falling edge re-arms");
        s.set_gauge("t.gauge", 9);
        assert!(w.eval(&s).is_some(), "next rise fires again");
    }

    #[test]
    fn engine_polls_registry_and_freeze_is_lifted_after_capture() {
        // Drive a private counter through the real registry.
        let c = crate::registry().counter("test.trigger.engine.spike");
        let mut eng = TriggerEngine::new().with(Watch::counter_delta(
            "test-spike",
            "test.trigger.engine.spike",
            5,
        ));
        assert!(eng.poll(None).is_empty(), "baseline");
        c.add(50);
        let pms = eng.poll(Some(0xFEED));
        assert_eq!(pms.len(), 1);
        assert_eq!(pms[0].trigger, "test-spike");
        assert_eq!(pms[0].fault_digest, Some(0xFEED));
        assert!(!recorder::is_frozen(), "engine unfreezes after capture");
        assert_eq!(eng.fired(), 1);
        assert!(eng.poll(None).is_empty(), "quiet poll after incident");
    }

    #[test]
    fn standard_set_names_the_six_anomalies() {
        let eng = TriggerEngine::standard();
        let names: Vec<&str> = eng.watches.iter().map(|w| w.name).collect();
        for expect in [
            "drop-rate-spike",
            "syn-cookie-engaged",
            "backpressure-stall",
            "watchdog-fired",
            "epoch-advance-lag",
            "backend-death",
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
    }
}
