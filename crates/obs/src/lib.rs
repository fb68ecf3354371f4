//! `sysobs` — flight-recorder tracing and unified metrics for the PLOS06
//! reproduction stack.
//!
//! The paper's systems programmers keep C partly because observability in
//! managed runtimes costs them the performance they are measuring. This
//! crate is the counter-demonstration: one observability layer shared by
//! the kernel, memory, concurrency, and network crates whose *disabled*
//! cost is a single relaxed atomic load per instrumentation site — cheap
//! enough to leave compiled into the hot paths — with the overhead of every
//! mode measured by experiment E11 rather than asserted.
//!
//! Three pieces:
//!
//! - **Flight recorder** ([`recorder`]): lock-free per-thread ring buffers
//!   of typed events (span begin/end, instants, counter samples) with
//!   per-thread sequence numbers and a process-relative monotonic clock.
//!   Dumpable any time — including from the installed panic hook — as
//!   Chrome `trace_event` JSON or plain text, and digestible into a
//!   timestamp-free *shape* for replay comparison against `sysfault`
//!   fault-schedule digests.
//! - **Metrics** ([`metrics`]): a registry of named counters, gauges, and
//!   log-bucketed [`LogHistogram`]s, snapshotting into one deterministic
//!   [`Snapshot`] value. Kernel watchdog reaps, GC pauses, STM retries and
//!   router drops are recorded live under one naming scheme, and the
//!   registry is the only place those names exist.
//! - **Macros** ([`obs_span!`], [`obs_count!`], [`obs_instant!`],
//!   [`obs_hist!`]): per-callsite cached instrumentation that compiles to a
//!   mode check plus a `OnceLock` read when enabled, and to just the mode
//!   check when disabled.
//!
//! # Modes
//!
//! [`Mode::Disabled`] — macros check one atomic and do nothing else.
//! [`Mode::Counters`] — counters/gauges/histograms update; no ring writes.
//! [`Mode::Sampled`] — counters plus 1-in-N flight-recorder events per
//! site, with N tuned by the [`sampler`] feedback loop — the always-on
//! production setting.
//! [`Mode::Tracing`] — counters *and* every flight-recorder event.
//!
//! On top of the recorder sit the always-on pieces: [`context`] carries a
//! trace id + parent span across threads and IPC so sampled packets
//! reconstruct causally, [`trigger`] watches the metrics registry for
//! anomalies, and [`postmortem`] freezes the rings and writes the
//! black-box JSON artifact when one fires.

pub mod clock;
pub mod context;
pub mod hist;
pub mod metrics;
pub mod postmortem;
pub mod recorder;
pub mod sampler;
pub mod trigger;

pub use clock::{now_ns, paired};
pub use context::{CtxGuard, TraceCtx};
pub use hist::{LogHistogram, BUCKETS};
pub use metrics::{
    registry, AtomicHistogram, Counter, CounterCell, Gauge, GaugeCell, HistCell, Registry, Snapshot,
};
pub use postmortem::{CausalTrace, Postmortem};
pub use recorder::{
    clear, collect_events, dump_chrome_json, dump_text, freeze, instant_dynamic, intern, is_frozen,
    shape_digest, unfreeze, Event, EventKind, SpanGuard, RING_CAP,
};
pub use trigger::{Condition, TriggerEngine, Watch};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, Once, PoisonError};

/// How much the instrumentation sites do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Sites compile to a single relaxed atomic load.
    Disabled = 0,
    /// Metrics (counters/gauges/histograms) update; no trace events.
    Counters = 1,
    /// Metrics plus sampled flight-recorder events: each span site admits
    /// 1-in-N recordings (see [`sampler`]), except that instants always
    /// record and a live causal context admits everything it touches.
    Sampled = 2,
    /// Metrics plus every flight-recorder event.
    Tracing = 3,
}

static MODE: AtomicU8 = AtomicU8::new(Mode::Disabled as u8);

/// Sets the global observability mode.
pub fn set_mode(mode: Mode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// Current observability mode.
#[must_use]
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        0 => Mode::Disabled,
        1 => Mode::Counters,
        2 => Mode::Sampled,
        _ => Mode::Tracing,
    }
}

/// True when metrics should update (any mode but Disabled). This is the
/// single relaxed load every disabled site pays.
#[inline]
#[must_use]
pub fn metrics_on() -> bool {
    MODE.load(Ordering::Relaxed) != Mode::Disabled as u8
}

/// True when every flight-recorder event should be written (full tracing
/// only — sampled sites go through [`sampler::admit`]).
#[inline]
#[must_use]
pub fn tracing_on() -> bool {
    MODE.load(Ordering::Relaxed) == Mode::Tracing as u8
}

/// True when the flight-recorder path is live at all (Sampled or Tracing):
/// the mode check span sites make before consulting the sampler.
#[inline]
#[must_use]
pub fn trace_path_on() -> bool {
    MODE.load(Ordering::Relaxed) >= Mode::Sampled as u8
}

/// The FNV-1a offset basis: the starting state of every FNV digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step, `(h ^ v) · prime`, over a whole word. Order-sensitive
/// digests (fault logs, trace shapes, scenario outcomes) fold their
/// observables through this from [`FNV_OFFSET`].
#[inline]
#[must_use]
pub const fn fnv_fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// FNV-1a over a byte slice — the one hash shared by `sysfault` digests,
/// `sysnet` flow hashing, sysobs name interning checks, and the trace shape
/// digest. Deduplicated here so the constants exist exactly once.
#[inline]
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| fnv_fold(h, u64::from(b)))
}

/// The text dump the last panic captured, if any (see
/// [`install_panic_dump`]). The regression suite reads this to prove a
/// crashing run actually leaves its flight data behind; a production
/// harness could ship it instead of stderr.
static LAST_PANIC_DUMP: Mutex<Option<String>> = Mutex::new(None);

/// The flight-recorder dump captured by the most recent panic, if the
/// panic hook was installed and observability was on.
#[must_use]
pub fn last_panic_dump() -> Option<String> {
    LAST_PANIC_DUMP
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Installs a panic hook that captures the flight recorder's text dump
/// (ring tail + metrics snapshot) and writes it to stderr before the
/// default hook runs, so a crashing run leaves its last [`RING_CAP`]
/// events per thread behind. The captured dump is also retrievable via
/// [`last_panic_dump`]. Idempotent; chains the previous hook.
pub fn install_panic_dump() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if metrics_on() {
                let dump = dump_text();
                eprintln!("--- sysobs flight recorder (panic dump) ---");
                eprint!("{dump}");
                eprintln!("--- end flight recorder ---");
                *LAST_PANIC_DUMP
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = Some(dump);
            }
            prev(info);
        }));
    });
}

/// Opens a named span for the rest of the enclosing scope when the trace
/// path is live. Under [`Mode::Tracing`] every hit records; under
/// [`Mode::Sampled`] the site's 1-in-N draw (or a live causal context)
/// decides. Expands to one relaxed atomic load when disabled.
///
/// ```
/// # use sysobs::obs_span;
/// fn schedule() {
///     obs_span!("kernel.schedule");
///     // ... span closes when the scope ends
/// }
/// ```
#[macro_export]
macro_rules! obs_span {
    ($name:expr) => {
        let _obs_span_guard = if $crate::trace_path_on() {
            static ID: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
            static SITE: $crate::sampler::SampleSite = $crate::sampler::SampleSite::new();
            if $crate::sampler::admit(&SITE, $name) {
                Some($crate::SpanGuard::enter(
                    *ID.get_or_init(|| $crate::intern($name)),
                ))
            } else {
                None
            }
        } else {
            None
        };
    };
}

/// Roots a sampled causal trace at a boundary site (a dispatcher batching
/// frames, an IPC client starting a round-trip) and evaluates to an
/// `Option<CtxGuard>` — bind it to keep the context live for the scope.
/// The site's 1-in-N draw decides whether this hit becomes a trace; when it
/// does, every downstream [`obs_span!`] records under the context (head
/// sampling: sampled traces are *complete* traces). A no-op `None` when the
/// trace path is off or a context is already active (the packet was rooted
/// upstream).
///
/// ```
/// # use sysobs::obs_trace_root;
/// fn dispatch_batch() {
///     let _root = obs_trace_root!("net.dispatch");
///     // ctx (if rooted) is live until _root drops
/// }
/// ```
#[macro_export]
macro_rules! obs_trace_root {
    ($name:expr) => {{
        if $crate::trace_path_on() && !$crate::context::active() {
            static SITE: $crate::sampler::SampleSite = $crate::sampler::SampleSite::new();
            if $crate::sampler::admit(&SITE, $name) {
                Some($crate::context::start_trace())
            } else {
                None
            }
        } else {
            None
        }
    }};
}

/// Marks a named span on a sub-microsecond path when tracing is on: one
/// ring write with one clock read, instead of the begin/end pair (two of
/// each) that [`obs_span!`] costs. The span collapses to a single
/// [`EventKind::Span`] marker — ordering and trace shape survive; the
/// duration (which would be clock noise at this scale) does not. Expands to
/// one relaxed atomic load when disabled.
///
/// ```
/// # use sysobs::obs_span_hot;
/// fn syscall_entry() {
///     obs_span_hot!("kernel.syscall");
/// }
/// ```
#[macro_export]
macro_rules! obs_span_hot {
    ($name:expr) => {
        if $crate::trace_path_on() {
            static ID: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
            static SITE: $crate::sampler::SampleSite = $crate::sampler::SampleSite::new();
            if $crate::sampler::admit(&SITE, $name) {
                $crate::recorder::record(
                    $crate::EventKind::Span,
                    *ID.get_or_init(|| $crate::intern($name)),
                    $crate::context::mark_payload(),
                );
            }
        }
    };
    // Marker carrying an explicit causal payload received from elsewhere
    // (an IPC message's ctx word): records whenever the trace path is live
    // and the payload names a trace — the packet already won its draw at
    // the root, so no local sampling decision applies.
    ($name:expr, ctx = $ctx:expr) => {
        if $crate::trace_path_on() {
            let ctx: u64 = $ctx;
            if ctx != 0 {
                static ID: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
                $crate::recorder::record(
                    $crate::EventKind::Span,
                    *ID.get_or_init(|| $crate::intern($name)),
                    ctx,
                );
            }
        }
    };
}

/// Adds to a named registry counter (and samples it into the trace when
/// full tracing is on). One relaxed load when disabled.
///
/// ```
/// # use sysobs::obs_count;
/// obs_count!("chan.sends", 1);
/// ```
#[macro_export]
macro_rules! obs_count {
    ($name:expr, $delta:expr) => {
        if $crate::metrics_on() {
            static CELL: $crate::CounterCell = $crate::CounterCell::new();
            let delta: u64 = $delta;
            CELL.get($name).add(delta);
            if $crate::tracing_on() {
                static ID: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
                $crate::recorder::record(
                    $crate::EventKind::CounterSample,
                    *ID.get_or_init(|| $crate::intern($name)),
                    delta,
                );
            }
        }
    };
}

/// Records an instant event with a payload value when the trace path is
/// live. Instants are *not* sampled — they mark rare anomalies (faults,
/// reaps, sheds), which are exactly what a sampled production trace must
/// never miss.
///
/// ```
/// # use sysobs::obs_instant;
/// obs_instant!("kernel.watchdog.reap", 42u64);
/// ```
#[macro_export]
macro_rules! obs_instant {
    ($name:expr, $value:expr) => {
        if $crate::trace_path_on() {
            static ID: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
            $crate::recorder::record(
                $crate::EventKind::Instant,
                *ID.get_or_init(|| $crate::intern($name)),
                $value,
            );
        }
    };
}

/// Records a sample into a named registry histogram. One relaxed load when
/// disabled.
///
/// ```
/// # use sysobs::obs_hist;
/// obs_hist!("stm.attempts", 3u64);
/// ```
#[macro_export]
macro_rules! obs_hist {
    ($name:expr, $value:expr) => {
        if $crate::metrics_on() {
            static CELL: $crate::HistCell = $crate::HistCell::new();
            CELL.get($name).record($value);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Classic FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn mode_round_trips() {
        // Serialized against other mode-flipping tests only by virtue of
        // touching distinct metric names; mode itself is restored.
        let prev = mode();
        set_mode(Mode::Counters);
        assert!(metrics_on());
        assert!(!tracing_on());
        assert!(!trace_path_on());
        set_mode(Mode::Sampled);
        assert_eq!(mode(), Mode::Sampled);
        assert!(metrics_on());
        assert!(!tracing_on(), "sampled is not full tracing");
        assert!(trace_path_on());
        set_mode(Mode::Tracing);
        assert!(metrics_on());
        assert!(tracing_on());
        assert!(trace_path_on());
        set_mode(Mode::Disabled);
        assert!(!metrics_on());
        assert!(!trace_path_on());
        set_mode(prev);
    }

    #[test]
    fn macros_are_inert_when_disabled() {
        let prev = mode();
        set_mode(Mode::Disabled);
        obs_count!("test.lib.inert", 5);
        obs_hist!("test.lib.inert.hist", 9);
        obs_instant!("test.lib.inert.instant", 1u64);
        {
            obs_span!("test.lib.inert.span");
        }
        set_mode(prev);
        let snap = registry().snapshot();
        assert_eq!(snap.counter("test.lib.inert"), 0);
        assert!(snap.hist("test.lib.inert.hist").is_none());
    }

    #[test]
    fn count_macro_updates_registry_when_enabled() {
        let prev = mode();
        set_mode(Mode::Counters);
        obs_count!("test.lib.counted", 3);
        obs_count!("test.lib.counted", 4);
        obs_hist!("test.lib.counted.hist", 128u64);
        set_mode(prev);
        let snap = registry().snapshot();
        assert_eq!(snap.counter("test.lib.counted"), 7);
        assert_eq!(
            snap.hist("test.lib.counted.hist").map(sysobs_hist_count),
            Some(1)
        );
    }

    fn sysobs_hist_count(h: &LogHistogram) -> u64 {
        h.count()
    }

    #[test]
    fn install_panic_dump_is_idempotent() {
        install_panic_dump();
        install_panic_dump();
    }
}
