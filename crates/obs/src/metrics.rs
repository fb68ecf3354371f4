//! The unified metrics registry: named counters, gauges, and log-bucketed
//! histograms, snapshotted into one [`Snapshot`] type.
//!
//! Two usage patterns share the machinery:
//!
//! * **ambient** — hot paths bump process-wide metrics through
//!   [`obs_count!`](crate::obs_count) / [`obs_hist!`](crate::obs_hist);
//!   each macro site caches a `&'static` handle in a [`CounterCell`] /
//!   [`HistCell`], so the steady-state cost is one relaxed mode check plus
//!   one relaxed atomic RMW — the registry's name table is only locked on
//!   the first hit per site and on snapshot;
//! * **scoped** — subsystems that own their counters (the router's
//!   per-worker atomics, the kernel's `FaultStats`, a heap's `MemStats`)
//!   render them *into* a [`Snapshot`] value, so every layer reports through
//!   the same type even where a global registry would conflate instances.
//!
//! Handles are leaked `&'static` references: a metric, once named, lives for
//! the process — which is what makes lock-free increments safe to hand out.

use crate::hist::LogHistogram;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// The counter's registered name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` (relaxed; totals are exact, ordering is not implied).
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a settable signed level (queue depths, live bytes).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// The gauge's registered name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (may go negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A thread-safe log-bucketed histogram (the registry-resident, atomic twin
/// of [`LogHistogram`]).
#[derive(Debug)]
pub struct AtomicHistogram {
    name: &'static str,
    buckets: [AtomicU64; crate::hist::BUCKETS],
    count: AtomicU64,
    max: AtomicU64,
    total: AtomicU64,
}

impl AtomicHistogram {
    fn new(name: &'static str) -> Self {
        AtomicHistogram {
            name,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    /// The histogram's registered name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one sample (relaxed atomics throughout; concurrent recorders
    /// never lose counts, and `max` converges via compare-exchange).
    pub fn record(&self, v: u64) {
        self.buckets[LogHistogram::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(v, Ordering::Relaxed);
        let mut seen = self.max.load(Ordering::Relaxed);
        while v > seen {
            match self
                .max
                .compare_exchange_weak(seen, v, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
    }

    /// Copies the current state into a plain [`LogHistogram`] (racy between
    /// fields under concurrent writers — a monitoring snapshot, not a
    /// barrier).
    #[must_use]
    pub fn snapshot(&self) -> LogHistogram {
        let buckets = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        LogHistogram::from_raw(
            buckets,
            self.count.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
            self.total.load(Ordering::Relaxed),
        )
    }

    /// Count of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// The process-wide registry behind the ambient macros.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<HashMap<&'static str, &'static Counter>>,
    gauges: Mutex<HashMap<&'static str, &'static Gauge>>,
    hists: Mutex<HashMap<&'static str, &'static AtomicHistogram>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Registry {
    /// Returns (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        let mut map = lock(&self.counters);
        map.entry(name).or_insert_with(|| {
            Box::leak(Box::new(Counter {
                name,
                value: AtomicU64::new(0),
            }))
        })
    }

    /// Returns (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &'static str) -> &'static Gauge {
        let mut map = lock(&self.gauges);
        map.entry(name).or_insert_with(|| {
            Box::leak(Box::new(Gauge {
                name,
                value: AtomicI64::new(0),
            }))
        })
    }

    /// Returns (registering on first use) the histogram named `name`.
    pub fn histogram(&self, name: &'static str) -> &'static AtomicHistogram {
        let mut map = lock(&self.hists);
        map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(AtomicHistogram::new(name))))
    }

    /// Snapshots every registered metric into one [`Snapshot`].
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        for c in lock(&self.counters).values() {
            snap.set_counter(c.name, c.get());
        }
        for g in lock(&self.gauges).values() {
            snap.set_gauge(g.name, g.get());
        }
        for h in lock(&self.hists).values() {
            snap.set_hist(h.name, h.snapshot());
        }
        snap
    }

    /// Zeroes every registered metric (handles stay valid). For experiment
    /// harnesses that measure deltas between modes; production code never
    /// needs it.
    pub fn reset(&self) {
        for c in lock(&self.counters).values() {
            c.value.store(0, Ordering::Relaxed);
        }
        for g in lock(&self.gauges).values() {
            g.value.store(0, Ordering::Relaxed);
        }
        for h in lock(&self.hists).values() {
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
            h.count.store(0, Ordering::Relaxed);
            h.max.store(0, Ordering::Relaxed);
            h.total.store(0, Ordering::Relaxed);
        }
    }
}

/// The process-wide registry instance.
#[must_use]
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Per-macro-site cache of a counter handle: the name lookup happens once,
/// every later hit is a relaxed increment.
pub struct CounterCell(OnceLock<&'static Counter>);

impl CounterCell {
    /// An empty cell (used in `static` position by [`obs_count!`](crate::obs_count)).
    #[must_use]
    pub const fn new() -> Self {
        CounterCell(OnceLock::new())
    }

    /// The cached handle, registering `name` on first use.
    pub fn get(&self, name: &'static str) -> &'static Counter {
        self.0.get_or_init(|| registry().counter(name))
    }
}

impl Default for CounterCell {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-site cache of a gauge handle, like [`CounterCell`]: the name lookup
/// (registry mutex + map) happens once, every later update is one relaxed
/// atomic operation.
pub struct GaugeCell(OnceLock<&'static Gauge>);

impl GaugeCell {
    /// An empty cell, for `static` position.
    #[must_use]
    pub const fn new() -> Self {
        GaugeCell(OnceLock::new())
    }

    /// The cached handle, registering `name` on first use.
    pub fn get(&self, name: &'static str) -> &'static Gauge {
        self.0.get_or_init(|| registry().gauge(name))
    }
}

impl Default for GaugeCell {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-macro-site cache of a histogram handle.
pub struct HistCell(OnceLock<&'static AtomicHistogram>);

impl HistCell {
    /// An empty cell (used in `static` position by [`obs_hist!`](crate::obs_hist)).
    #[must_use]
    pub const fn new() -> Self {
        HistCell(OnceLock::new())
    }

    /// The cached handle, registering `name` on first use.
    pub fn get(&self, name: &'static str) -> &'static AtomicHistogram {
        self.0.get_or_init(|| registry().histogram(name))
    }
}

impl Default for HistCell {
    fn default() -> Self {
        Self::new()
    }
}

/// One coherent, ordered view of a set of metrics — the type every layer's
/// accounting now reports through, whether it came from the global registry
/// or from a subsystem's private counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    hists: BTreeMap<String, LogHistogram>,
}

impl Snapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Sets counter `name` to `v`.
    pub fn set_counter(&mut self, name: impl Into<String>, v: u64) {
        self.counters.insert(name.into(), v);
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: impl Into<String>, v: i64) {
        self.gauges.insert(name.into(), v);
    }

    /// Stores histogram `name` (merging if already present).
    pub fn set_hist(&mut self, name: impl Into<String>, h: LogHistogram) {
        self.hists
            .entry(name.into())
            .and_modify(|e| e.merge(&h))
            .or_insert(h);
    }

    /// Counter value (0 if absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value (0 if absent).
    #[must_use]
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name.
    #[must_use]
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates histograms in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Sum of every counter whose name starts with `prefix` — the form
    /// conservation checks take ("all `net.drop.` reasons").
    #[must_use]
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Merges another snapshot: counters add, gauges take the other's value,
    /// histograms merge.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.hists {
            self.hists
                .entry(k.clone())
                .and_modify(|e| e.merge(h))
                .or_insert_with(|| h.clone());
        }
    }

    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "counter {name} = {v}")?;
        }
        for (name, v) in &self.gauges {
            writeln!(f, "gauge   {name} = {v}")?;
        }
        for (name, h) in &self.hists {
            writeln!(f, "hist    {name} = {h}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_returns_one_handle_per_name() {
        let a = registry().counter("test.metrics.one");
        let b = registry().counter("test.metrics.one");
        assert!(std::ptr::eq(a, b));
        a.inc();
        b.add(2);
        assert_eq!(a.get(), b.get());
        assert!(a.get() >= 3, "shared handle must accumulate");
    }

    #[test]
    fn gauges_go_up_and_down() {
        let g = registry().gauge("test.metrics.gauge");
        g.set(10);
        g.add(-25);
        assert_eq!(g.get(), -15);
    }

    #[test]
    fn atomic_histogram_snapshot_preserves_count_max_total() {
        let h = registry().histogram("test.metrics.hist");
        h.record(100);
        h.record(3_000);
        h.record(70_000);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 3);
        // Bucket reconstruction: p99 within 2x of the true max.
        assert!(snap.percentile(0.99) >= 65_536);
        assert!(snap.percentile(0.5) >= 64);
    }

    #[test]
    fn concurrent_counter_adds_are_exact() {
        let c = registry().counter("test.metrics.concurrent");
        let before = c.get();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get() - before, 40_000);
    }

    #[test]
    fn snapshot_orders_names_and_sums_prefixes() {
        let mut s = Snapshot::new();
        s.set_counter("net.drop.bad", 3);
        s.set_counter("net.drop.awful", 4);
        s.set_counter("net.forwarded", 93);
        s.set_counter("net.dropped_other", 1); // not under the dotted prefix
        assert_eq!(s.counter_sum("net.drop."), 7);
        let names: Vec<&str> = s.counters().map(|(k, _)| k).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "counters iterate in name order");
        assert_eq!(s.counter("net.forwarded"), 93);
        assert_eq!(s.counter("absent"), 0);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_merges_hists() {
        let mut a = Snapshot::new();
        let mut b = Snapshot::new();
        a.set_counter("x", 1);
        b.set_counter("x", 2);
        let mut h1 = LogHistogram::new();
        h1.record(10);
        let mut h2 = LogHistogram::new();
        h2.record(1_000_000);
        a.set_hist("lat", h1);
        b.set_hist("lat", h2);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.hist("lat").unwrap().count(), 2);
        assert_eq!(a.hist("lat").unwrap().max(), 1_000_000);
    }

    #[test]
    fn display_renders_every_kind() {
        let mut s = Snapshot::new();
        s.set_counter("c", 1);
        s.set_gauge("g", -2);
        let mut h = LogHistogram::new();
        h.record(5);
        s.set_hist("h", h);
        let text = s.to_string();
        assert!(text.contains("counter c = 1"), "{text}");
        assert!(text.contains("gauge   g = -2"), "{text}");
        assert!(text.contains("hist    h = n=1"), "{text}");
    }
}
