//! The flight recorder: a lock-free, per-thread ring buffer of typed trace
//! events, dumpable on demand (or from a panic hook) as Chrome
//! `trace_event` JSON or a plain-text snapshot.
//!
//! Design constraints, in order:
//!
//! 1. **The hot path never blocks.** Each thread owns its ring; recording is
//!    a handful of relaxed/release stores into pre-allocated slots guarded
//!    by a per-slot sequence word (a seqlock). No allocation, no lock, no
//!    CAS on the write side.
//! 2. **Dumps are best-effort and non-quiescent.** A dumper walks every
//!    registered ring and keeps only slots whose sequence word read the
//!    same (and even) before and after the payload — torn writes are simply
//!    skipped. The registry of rings is behind a mutex, but it is touched
//!    only at thread registration and dump time, never per event.
//! 3. **Bounded memory.** [`RING_CAP`] events per thread, newest wins: a
//!    flight recorder keeps the *last* moments before the incident, which
//!    is the part worth keeping.
//!
//! Event names are interned `u32` ids so a slot is four words; per-site
//! caching (see [`crate::obs_span!`]) makes interning a one-time cost.

use crate::clock::now_ns;
use crate::{fnv1a, fnv_fold, FNV_OFFSET};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Events retained per thread (newest-wins wraparound).
pub const RING_CAP: usize = 4096;

/// What a trace event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A span opened (matching [`EventKind::SpanEnd`] closes it).
    SpanBegin = 0,
    /// A span closed.
    SpanEnd = 1,
    /// A point-in-time marker (faults, reaps, sheds).
    Instant = 2,
    /// A counter increment sampled into the trace (full-tracing mode only).
    CounterSample = 3,
    /// A complete span collapsed into a single marker event — the hot-path
    /// form [`crate::obs_span_hot!`] emits: one ring write and one clock
    /// read instead of a begin/end pair. Sub-microsecond sites use this;
    /// their duration would be clock noise anyway, and the marker preserves
    /// ordering and shape.
    Span = 4,
}

impl EventKind {
    fn from_u8(v: u8) -> EventKind {
        match v {
            0 => EventKind::SpanBegin,
            1 => EventKind::SpanEnd,
            2 => EventKind::Instant,
            4 => EventKind::Span,
            _ => EventKind::CounterSample,
        }
    }

    /// Chrome `trace_event` phase letter.
    #[must_use]
    pub fn phase(self) -> char {
        match self {
            EventKind::SpanBegin => 'B',
            EventKind::SpanEnd => 'E',
            EventKind::Instant => 'i',
            EventKind::CounterSample => 'C',
            EventKind::Span => 'X',
        }
    }
}

/// One decoded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Ring id of the recording thread (registration order).
    pub tid: usize,
    /// Per-thread sequence number (monotonic; gaps mean overwritten slots).
    pub seq: u64,
    /// Nanoseconds since the trace origin ([`crate::clock::now_ns`]).
    pub t_ns: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Resolved event name.
    pub name: String,
    /// Payload value (counter delta, fault call number, pid — site-defined).
    pub value: u64,
}

/// A slot is a seqlock: `seq` is 0 when empty, odd while a write is in
/// flight, and `(ring_seq + 1) << 1` once published.
struct Slot {
    seq: AtomicU64,
    t_ns: AtomicU64,
    kind_name: AtomicU64,
    value: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            kind_name: AtomicU64::new(0),
            value: AtomicU64::new(0),
        }
    }
}

/// One thread's ring. The owning thread is the only writer; dumpers read
/// concurrently through the per-slot seqlocks.
struct Ring {
    tid: usize,
    /// Next per-thread sequence number (written only by the owner; atomic so
    /// dumpers may load it for diagnostics).
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl Ring {
    fn record(&self, kind: EventKind, name_id: u32, value: u64) {
        let seq = self.head.load(Ordering::Relaxed);
        self.head.store(seq + 1, Ordering::Relaxed);
        #[allow(clippy::cast_possible_truncation)]
        let slot = &self.slots[(seq % RING_CAP as u64) as usize];
        let published = (seq + 1) << 1;
        // Mark the slot in-flight (odd), publish payload, then publish the
        // even sequence word. Release on the final store pairs with the
        // dumper's acquire loads.
        slot.seq.store(published | 1, Ordering::Relaxed);
        slot.t_ns.store(now_ns(), Ordering::Relaxed);
        slot.kind_name.store(
            u64::from(kind as u8) << 32 | u64::from(name_id),
            Ordering::Relaxed,
        );
        slot.value.store(value, Ordering::Relaxed);
        slot.seq.store(published, Ordering::Release);
    }

    fn drain_valid(&self, out: &mut Vec<Event>, names: &Interner) {
        for slot in &self.slots {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                continue;
            }
            let t_ns = slot.t_ns.load(Ordering::Acquire);
            let kind_name = slot.kind_name.load(Ordering::Acquire);
            let value = slot.value.load(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Acquire);
            if s1 != s2 {
                continue; // torn: a writer lapped us mid-read
            }
            #[allow(clippy::cast_possible_truncation)]
            let kind = EventKind::from_u8((kind_name >> 32) as u8);
            #[allow(clippy::cast_possible_truncation)]
            let name_id = kind_name as u32;
            out.push(Event {
                tid: self.tid,
                seq: (s1 >> 1) - 1,
                t_ns,
                kind,
                name: names.resolve(name_id),
                value,
            });
        }
    }

    fn clear(&self) {
        for slot in &self.slots {
            slot.seq.store(0, Ordering::Release);
        }
    }
}

/// Name interner: ids are dense, names live for the process.
#[derive(Default)]
struct Interner {
    by_name: Mutex<HashMap<String, u32>>,
    names: Mutex<Vec<String>>,
}

impl Interner {
    fn intern(&self, name: &str) -> u32 {
        let mut map = self.by_name.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = map.get(name) {
            return id;
        }
        let mut names = self.names.lock().unwrap_or_else(PoisonError::into_inner);
        let id = u32::try_from(names.len()).expect("fewer than 2^32 distinct event names");
        names.push(name.to_string());
        map.insert(name.to_string(), id);
        id
    }

    fn resolve(&self, id: u32) -> String {
        self.names
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id as usize)
            .cloned()
            .unwrap_or_else(|| format!("?{id}"))
    }
}

struct Recorder {
    rings: Mutex<Vec<Arc<Ring>>>,
    next_tid: AtomicUsize,
    names: Interner,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        rings: Mutex::new(Vec::new()),
        next_tid: AtomicUsize::new(0),
        names: Interner::default(),
    })
}

thread_local! {
    static RING: Arc<Ring> = {
        let rec = recorder();
        let tid = rec.next_tid.fetch_add(1, Ordering::Relaxed);
        let ring = Arc::new(Ring {
            tid,
            head: AtomicU64::new(0),
            slots: (0..RING_CAP).map(|_| Slot::empty()).collect(),
        });
        rec.rings.lock().unwrap_or_else(PoisonError::into_inner).push(Arc::clone(&ring));
        ring
    };
}

/// Interns `name` and returns its id. Macro sites cache the result in a
/// `OnceLock` so the interner's mutex is touched once per site.
#[must_use]
pub fn intern(name: &str) -> u32 {
    recorder().names.intern(name)
}

/// Freeze flag: while set, every ring ignores writes, so a dumper reading
/// an incident's tail races nothing. One relaxed load per record — paid
/// only on the (already ring-writing) trace path.
static FROZEN: AtomicBool = AtomicBool::new(false);

/// Freezes every ring: subsequent [`record`] calls drop silently until
/// [`unfreeze`]. The trigger engine calls this the moment a watch fires so
/// the postmortem captures the events *leading up to* the anomaly instead
/// of whatever churns past while the capture runs.
pub fn freeze() {
    FROZEN.store(true, Ordering::Release);
}

/// Resumes recording after a [`freeze`].
pub fn unfreeze() {
    FROZEN.store(false, Ordering::Release);
}

/// True while the rings are frozen.
#[must_use]
pub fn is_frozen() -> bool {
    FROZEN.load(Ordering::Relaxed)
}

/// Records a raw event into the calling thread's ring. Callers must have
/// checked [`crate::tracing_on`] already (the macros do). Dropped while
/// the rings are [frozen](freeze).
pub fn record(kind: EventKind, name_id: u32, value: u64) {
    if FROZEN.load(Ordering::Relaxed) {
        return;
    }
    RING.with(|r| r.record(kind, name_id, value));
}

/// Records an instant event under a runtime-built name (fault sites are
/// runtime strings). No-op unless the trace path is live (instants are not
/// sampled — fault firings are precisely what a sampled trace must keep);
/// interning cost is paid per call, which is fine for rare events.
pub fn instant_dynamic(name: &str, value: u64) {
    if crate::trace_path_on() {
        record(EventKind::Instant, intern(name), value);
    }
}

/// An RAII span: records `SpanBegin` on construction and `SpanEnd` on drop.
/// While a causal [`crate::context`] is active on the thread, both events
/// carry the packed `(trace, parent, span)` payload and nested spans chain
/// parents; otherwise the payload is 0, as before.
#[derive(Debug)]
pub struct SpanGuard {
    name_id: u32,
    payload: u64,
    ctx_prev: u64,
}

impl SpanGuard {
    /// Opens a span (callers must have checked [`crate::tracing_on`]).
    #[must_use]
    pub fn enter(name_id: u32) -> SpanGuard {
        let (payload, ctx_prev) = crate::context::begin_span();
        record(EventKind::SpanBegin, name_id, payload);
        SpanGuard {
            name_id,
            payload,
            ctx_prev,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        record(EventKind::SpanEnd, self.name_id, self.payload);
        crate::context::end_span(self.ctx_prev);
    }
}

/// Total events ever written across every thread's ring (the sum of ring
/// heads — monotonic, surviving [`clear`]). The sampler's feedback loop
/// reads this each window to price recorded events rather than admitted
/// draws: with head sampling, one admitted draw fans out into a whole
/// trace of ring writes.
#[must_use]
pub fn events_written() -> u64 {
    recorder()
        .rings
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|r| r.head.load(Ordering::Relaxed))
        .sum()
}

/// Decodes every valid event from every thread's ring, ordered by
/// `(tid, seq)` — per-thread program order, threads grouped.
#[must_use]
pub fn collect_events() -> Vec<Event> {
    let rec = recorder();
    let rings: Vec<Arc<Ring>> = rec
        .rings
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let mut out = Vec::new();
    for ring in rings {
        ring.drain_valid(&mut out, &rec.names);
    }
    out.sort_by_key(|e| (e.tid, e.seq));
    out
}

/// Empties every ring (events only; interned names and sequence counters
/// survive, so shape digests stay comparable across clears). Also resets
/// the trace/span id allocators so a replayed campaign assigns identical
/// causal ids, and lifts any leftover freeze.
pub fn clear() {
    let rec = recorder();
    for ring in rec
        .rings
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        ring.clear();
    }
    crate::context::reset_ids();
    unfreeze();
}

/// Order-sensitive digest of the trace *shape*: per-thread sequences of
/// `(kind, name, value)` with timestamps excluded. Two runs of the same
/// deterministic workload under the same fault plan digest identically even
/// though every timestamp differs — this is the hook the replay regression
/// test checks.
#[must_use]
pub fn shape_digest() -> u64 {
    collect_events().iter().fold(FNV_OFFSET, |h, e| {
        let h = fnv_fold(h, u64::from(e.kind as u8));
        fnv_fold(fnv_fold(h, fnv1a(e.name.as_bytes())), e.value)
    })
}

/// Renders the current rings as Chrome `trace_event` JSON (load in
/// `chrome://tracing` or Perfetto).
#[must_use]
pub fn dump_chrome_json() -> String {
    let events = collect_events();
    let mut s = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        let comma = if i + 1 == events.len() { "" } else { "," };
        #[allow(clippy::cast_precision_loss)]
        let ts_us = e.t_ns as f64 / 1e3;
        let name = e.name.replace('\\', "\\\\").replace('"', "\\\"");
        // Complete ('X') events need a duration; hot-span markers carry none,
        // so they render as zero-width slices.
        let dur = if e.kind == EventKind::Span {
            "\"dur\":0,"
        } else {
            ""
        };
        let _ = writeln!(
            s,
            "{{\"name\":\"{name}\",\"cat\":\"sysobs\",\"ph\":\"{}\",\"ts\":{ts_us:.3},{dur}\
             \"pid\":1,\"tid\":{},\"args\":{{\"value\":{},\"seq\":{}}}}}{comma}",
            e.kind.phase(),
            e.tid,
            e.value,
            e.seq
        );
    }
    s.push_str("]}\n");
    s
}

/// Renders the current rings as a human-readable snapshot, one event per
/// line in per-thread order, followed by the metrics registry snapshot.
#[must_use]
pub fn dump_text() -> String {
    let events = collect_events();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# flight recorder: {} events, shape digest {:#018x}",
        events.len(),
        shape_digest()
    );
    for e in &events {
        let _ = writeln!(
            s,
            "t{:<3} #{:<6} {:>12} ns  {:<13} {:<32} {}",
            e.tid,
            e.seq,
            e.t_ns,
            format!("{:?}", e.kind),
            e.name,
            e.value
        );
    }
    let _ = writeln!(s, "# metrics");
    let _ = write!(s, "{}", crate::metrics::registry().snapshot());
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;
    use std::sync::Mutex as StdMutex;

    // Mode is process-global; tests that flip it serialize here.
    static MODE_LOCK: StdMutex<()> = StdMutex::new(());

    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        let _guard = MODE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let prev = crate::mode();
        crate::set_mode(Mode::Tracing);
        clear();
        let r = f();
        crate::set_mode(prev);
        r
    }

    #[test]
    fn events_round_trip_in_order() {
        with_tracing(|| {
            let a = intern("test.rec.alpha");
            let b = intern("test.rec.beta");
            record(EventKind::SpanBegin, a, 0);
            record(EventKind::Instant, b, 42);
            record(EventKind::SpanEnd, a, 0);
            let mine: Vec<Event> = collect_events()
                .into_iter()
                .filter(|e| e.name.starts_with("test.rec."))
                .collect();
            assert_eq!(mine.len(), 3);
            assert_eq!(mine[0].kind, EventKind::SpanBegin);
            assert_eq!(mine[1].value, 42);
            assert_eq!(mine[2].name, "test.rec.alpha");
            assert!(mine[0].seq < mine[1].seq && mine[1].seq < mine[2].seq);
            assert!(mine[0].t_ns <= mine[2].t_ns);
        });
    }

    #[test]
    fn ring_wraps_and_keeps_the_newest() {
        with_tracing(|| {
            let id = intern("test.rec.wrap");
            for i in 0..(RING_CAP as u64 + 100) {
                record(EventKind::Instant, id, i);
            }
            let mine: Vec<Event> = collect_events()
                .into_iter()
                .filter(|e| e.name == "test.rec.wrap")
                .collect();
            assert_eq!(mine.len(), RING_CAP);
            // The oldest 100 were overwritten; the newest survive.
            assert!(mine.iter().all(|e| e.value >= 100));
            assert_eq!(mine.last().unwrap().value, RING_CAP as u64 + 99);
        });
    }

    #[test]
    fn span_guard_emits_matched_begin_end() {
        with_tracing(|| {
            {
                let _g = SpanGuard::enter(intern("test.rec.span"));
                record(EventKind::Instant, intern("test.rec.inside"), 1);
            }
            let mine: Vec<Event> = collect_events()
                .into_iter()
                .filter(|e| e.name.starts_with("test.rec."))
                .collect();
            assert_eq!(mine.len(), 3);
            assert_eq!(mine[0].kind, EventKind::SpanBegin);
            assert_eq!(mine[2].kind, EventKind::SpanEnd);
            assert_eq!(mine[0].name, mine[2].name);
        });
    }

    #[test]
    fn hot_span_marker_is_one_event_and_renders_as_complete() {
        with_tracing(|| {
            crate::obs_span_hot!("test.rec.hotspan");
            let mine: Vec<Event> = collect_events()
                .into_iter()
                .filter(|e| e.name == "test.rec.hotspan")
                .collect();
            assert_eq!(mine.len(), 1, "one ring write per hot span");
            assert_eq!(mine[0].kind, EventKind::Span);
            let json = dump_chrome_json();
            assert!(json.contains("\"ph\":\"X\""), "{json}");
            assert!(json.contains("\"dur\":0,"), "{json}");
        });
    }

    #[test]
    fn shape_digest_ignores_time_but_sees_structure() {
        with_tracing(|| {
            let id = intern("test.rec.shape");
            record(EventKind::Instant, id, 7);
            let d1 = shape_digest();
            clear();
            std::thread::sleep(std::time::Duration::from_millis(2));
            record(EventKind::Instant, id, 7);
            let d2 = shape_digest();
            assert_eq!(d1, d2, "same shape, different wall clock");
            record(EventKind::Instant, id, 8);
            assert_ne!(shape_digest(), d2, "extra event changes the shape");
        });
    }

    #[test]
    fn dumps_are_well_formed() {
        with_tracing(|| {
            let _g = SpanGuard::enter(intern("test.rec.dump"));
            record(EventKind::Instant, intern("test.rec.dump.mark"), 5);
            let json = dump_chrome_json();
            assert_eq!(json.matches('{').count(), json.matches('}').count());
            assert_eq!(json.matches('[').count(), json.matches(']').count());
            assert!(json.contains("\"ph\":\"B\""), "{json}");
            assert!(json.contains("\"ph\":\"i\""), "{json}");
            let text = dump_text();
            assert!(text.contains("flight recorder"), "{text}");
            assert!(text.contains("test.rec.dump.mark"), "{text}");
        });
    }

    #[test]
    fn freeze_drops_writes_until_unfrozen() {
        with_tracing(|| {
            let id = intern("test.rec.freeze");
            record(EventKind::Instant, id, 1);
            freeze();
            assert!(is_frozen());
            record(EventKind::Instant, id, 2);
            let during: Vec<Event> = collect_events()
                .into_iter()
                .filter(|e| e.name == "test.rec.freeze")
                .collect();
            assert_eq!(during.len(), 1, "frozen ring must ignore writes");
            assert_eq!(during[0].value, 1);
            unfreeze();
            record(EventKind::Instant, id, 3);
            let after: Vec<Event> = collect_events()
                .into_iter()
                .filter(|e| e.name == "test.rec.freeze")
                .collect();
            assert_eq!(after.len(), 2);
            assert_eq!(after[1].value, 3);
        });
    }

    #[test]
    fn spans_carry_the_active_context_payload() {
        with_tracing(|| {
            let ctx = crate::context::start_trace();
            let trace = crate::context::current().unwrap().trace_id;
            {
                let _g = SpanGuard::enter(intern("test.rec.ctxspan"));
            }
            drop(ctx);
            let mine: Vec<Event> = collect_events()
                .into_iter()
                .filter(|e| e.name == "test.rec.ctxspan")
                .collect();
            assert_eq!(mine.len(), 2);
            for e in &mine {
                assert_eq!(
                    crate::context::payload_trace_id(e.value),
                    Some(trace),
                    "span events must carry the trace id"
                );
            }
            assert_eq!(mine[0].value, mine[1].value, "begin/end payloads match");
        });
    }

    #[test]
    fn threads_get_their_own_rings() {
        with_tracing(|| {
            let id = intern("test.rec.threads");
            record(EventKind::Instant, id, 0);
            std::thread::scope(|s| {
                s.spawn(|| record(EventKind::Instant, intern("test.rec.threads"), 1));
            });
            let mine: Vec<Event> = collect_events()
                .into_iter()
                .filter(|e| e.name == "test.rec.threads")
                .collect();
            assert_eq!(mine.len(), 2);
            assert_ne!(
                mine[0].tid, mine[1].tid,
                "each thread records into its own ring"
            );
        });
    }

    #[test]
    fn dump_while_another_thread_writes_never_tears() {
        with_tracing(|| {
            let stop = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let id = intern("test.rec.tear");
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        record(EventKind::Instant, id, i);
                        i += 1;
                    }
                });
                for _ in 0..50 {
                    // Every decoded event must be internally consistent.
                    for e in collect_events() {
                        if e.name == "test.rec.tear" {
                            assert_eq!(e.kind, EventKind::Instant);
                        }
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });
        });
    }
}
