//! The measured runs: the untraced end-to-end run, the traced per-layer
//! run, and the fixed-length run the determinism test replays.

use crate::alloc::allocs;
use crate::dp::{Counts, Ladder, Path, Plane, Runner, Stream, BATCH, WINDOW};
use crate::fwd::{self, FwdStream};
use crate::gen::{TCP_PAYLOAD, UDP_PAYLOAD};
use crate::ipc::{self, IpcRunner, IpcStream, KernelPlane};
use crate::lbgen::{self, LbStream};
use crate::measure::{median, peak_rss_bytes, rss_bytes, Hist, Step, Windows};
use crate::trace::{SelfTime, Trace};
use std::collections::BTreeMap;
use std::time::Instant;
use sysnet::conntrack::EvictCause;
use sysnet::pipeline::{DROP_LABELS, DROP_REASONS};
use sysnet::router::{PortId, RouterConfig, ShardedRouter};
use sysnet::{ConntrackConfig, LbConfig, TrieTable};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Stateless forwarding of minimum-size UDP frames.
    FwdMin,
    /// Load-balanced TCP connections with NAT both ways.
    LbNat,
    /// Established connections under a spoofed-SYN flood.
    SynFlood,
    /// Microkernel request/reply round trips.
    IpcRt,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::FwdMin,
        Workload::LbNat,
        Workload::SynFlood,
        Workload::IpcRt,
    ];

    /// The workloads `BENCHMARK.json` gates on. The other two still run
    /// under the same command (see `NOTES.md`): `ipc-rt`'s end-to-end
    /// figures moved by up to 43 % between runs on a shared 2-vCPU VM,
    /// past any bound the benchmark may set, and every `syn-flood` run fails
    /// the conntrack audit (the SYN-backlog bypass), so it reports
    /// `"correct": false` until the program is fixed.
    pub const GATED: [Workload; 2] = [Workload::FwdMin, Workload::LbNat];

    /// The name the command line uses.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FwdMin => "fwd-min",
            Workload::LbNat => "lb-nat",
            Workload::SynFlood => "syn-flood",
            Workload::IpcRt => "ipc-rt",
        }
    }

    /// The workload named `s`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// End-to-end metrics: name, unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput", "op/s"),
    ("goodput", "op/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: name, unit.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("bench.gen_ns_per_pkt", "ns"),
    ("repr.parse_ns_per_pkt", "ns"),
    ("repr.rewrite_ns_per_pkt", "ns"),
    ("repr.drops.malformed", "count"),
    ("repr.drops.not-ipv4", "count"),
    ("repr.drops.bad-checksum", "count"),
    ("repr.drops.ttl-expired", "count"),
    ("repr.drops.no-route", "count"),
    ("repr.drops.no-flow", "count"),
    ("repr.drops.bad-cookie", "count"),
    ("repr.drops.flow-table-full", "count"),
    ("repr.drops.state-violation", "count"),
    ("repr.drops.no-backend", "count"),
    ("route.lookup_ns", "ns"),
    ("cowtrie.publish_ns", "ns"),
    ("cowtrie.publications", "count"),
    ("epoch.pending_reclaim_max", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.lookup_ns", "ns"),
    ("cache.invalidations", "count"),
    ("conntrack.admit_ns", "ns"),
    ("conntrack.inserts", "count"),
    ("conntrack.removed", "count"),
    ("conntrack.live_peak", "count"),
    ("conntrack.half_open_peak", "count"),
    ("conntrack.cookie_share", "ratio"),
    ("conntrack.backlog_drops", "count"),
    ("lb.select_ns", "ns"),
    ("lb.assigned", "count"),
    ("lb.no_backend", "count"),
    ("lb.rewrites", "count"),
    ("pipeline.ns_per_pkt", "ns"),
    ("pipeline.batch_p99_us", "us"),
    ("router.dispatch_ns_per_pkt", "ns"),
    ("router.frame_reuse_rate", "ratio"),
    ("router.steady_allocs_per_pkt", "count"),
    ("kernel.send_ns", "ns"),
    ("kernel.recv_ns", "ns"),
    ("kernel.take_ns", "ns"),
    ("kernel.cycles_per_rt", "cycles"),
    ("kernel.rt_p99_us", "us"),
    ("kernel.rss_growth_b_per_rt", "B"),
    ("alloc.steady_per_op", "count"),
    ("reconcile.residual_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Setups per run; `setup_s` is their median. On a shared 2-vCPU VM
/// build times drift by a third within a tenth of a second, so the median
/// is taken over about a second of builds rather than a burst of a few.
const SETUP_REPS: usize = 101;
/// Untimed windows before measuring: caches fill, the connection
/// population and the flood reach steady state.
const WARMUP_WINDOWS: u64 = 2;
/// Ladder batches recorded in the traced run (fixed, so its counts repeat).
const LADDER_BATCHES: u64 = 2 * WINDOW;
/// Frames pushed through the threaded router probe.
const ROUTER_BATCHES: u64 = 4096;

/// One run's result: the contract's JSON line plus diagnostics.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose outcome was wrong.
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Failed checks, for standard error.
    pub errors: Vec<String>,
}

impl Report {
    /// The single-line JSON object the benchmark prints last.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn finish(mut self) -> Self {
        self.correct = self.failed == 0 && self.errors.is_empty() && self.attempted > 0;
        self
    }

    fn tally(&mut self, attempted: u64, failed: u64, checks: Result<(), String>) {
        self.attempted += attempted;
        self.failed += failed;
        if let Err(e) = checks {
            self.errors.push(e);
        }
    }
}

/// The balanced plane's table: the seed's FIB (which covers none of
/// 10/8, 99/8 or 198.18/15) plus the balancer's own routes.
fn lb_fib(seed: u64) -> Vec<(u32, u8, PortId)> {
    let mut routes = fwd::fib(seed);
    routes.extend(lbgen::routes());
    routes
}

/// What a data-plane workload is built from.
struct DpSpec {
    workload: Workload,
    path: Path,
    payload_off: usize,
    routes: Vec<(u32, u8, PortId)>,
    lb: Option<(ConntrackConfig, LbConfig)>,
    seed: u64,
}

impl DpSpec {
    fn new(workload: Workload, seed: u64) -> Self {
        let (path, payload_off, routes, ct) = match workload {
            Workload::FwdMin => (Path::Cached, UDP_PAYLOAD, fwd::fib(seed), None),
            Workload::LbNat => (
                Path::Lb,
                TCP_PAYLOAD,
                lb_fib(seed),
                Some(lbgen::lb_nat_ct()),
            ),
            Workload::SynFlood => (
                Path::Lb,
                TCP_PAYLOAD,
                lb_fib(seed),
                Some(lbgen::syn_flood_ct()),
            ),
            Workload::IpcRt => unreachable!("ipc-rt has no data plane"),
        };
        DpSpec {
            workload,
            path,
            payload_off,
            routes,
            lb: ct.map(|c| (c, lbgen::lb_config())),
            seed,
        }
    }

    /// The program state (the part `setup_s` times).
    fn plane(&self) -> Plane {
        Plane::new(&self.routes, self.lb.clone())
    }

    /// The workload's input stream.
    fn stream(&self) -> DpStream {
        match self.workload {
            Workload::FwdMin => DpStream::Fwd(FwdStream::new(self.seed, &self.routes)),
            Workload::SynFlood => {
                DpStream::Lb(Box::new(LbStream::new(self.seed, lbgen::SYN_FLOOD)))
            }
            _ => DpStream::Lb(Box::new(LbStream::new(self.seed, lbgen::LB_NAT))),
        }
    }

    /// A closed loop over `plane` and a fresh stream.
    fn runner(&self, plane: Plane) -> Runner<DpStream> {
        Runner::new(plane, self.stream(), self.path, self.payload_off, self.seed)
    }
}

/// The stream of one data-plane workload.
enum DpStream {
    Fwd(FwdStream),
    Lb(Box<LbStream>),
}

impl Stream for DpStream {
    fn fill(&mut self, b: &mut crate::dp::Batch, batch_no: u64) {
        match self {
            DpStream::Fwd(s) => s.fill(b, batch_no),
            DpStream::Lb(s) => s.fill(b, batch_no),
        }
    }

    fn observe(&mut self, b: &crate::dp::Batch, pool: Option<&sysnet::BackendPool>) -> u64 {
        match self {
            DpStream::Fwd(s) => s.observe(b, pool),
            DpStream::Lb(s) => s.observe(b, pool),
        }
    }

    fn digest(&self) -> u64 {
        match self {
            DpStream::Fwd(s) => s.digest(),
            DpStream::Lb(s) => s.digest(),
        }
    }
}

/// Builds state `SETUP_REPS` times, keeping the last; returns it and the
/// median build time in seconds.
fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let x = build();
        times.push(t.elapsed().as_secs_f64());
        last = Some(x);
    }
    (last.expect("at least one setup"), median(&times))
}

/// Warm-up totals, measured windows, and the service-time histogram of
/// one closed loop.
struct Loop {
    warm: Step,
    win: Windows,
    hist: Hist,
}

/// Runs `step` for the warm-up, then in whole windows until `seconds` of
/// wall time have passed (at least three windows).
fn closed_loop(mut step: impl FnMut() -> Step, window: u64, seconds: f64) -> Loop {
    let mut warm = Step::default();
    for _ in 0..WARMUP_WINDOWS * window {
        let s = step();
        warm.ops += s.ops;
        warm.failed += s.failed;
    }
    let mut win = Windows::default();
    let mut hist = Hist::new();
    let t = Instant::now();
    loop {
        for _ in 0..window {
            let s = step();
            hist.record(s.lat_ns);
            win.add(s, window);
        }
        if win.throughput.len() >= 3 && t.elapsed().as_secs_f64() >= seconds {
            return Loop { warm, win, hist };
        }
    }
}

fn e2e_report(l: &Loop, setup_s: f64, checks: Result<(), String>) -> Report {
    let mut r = Report::default();
    r.tally(
        l.warm.ops + l.win.total.ops,
        l.warm.failed + l.win.total.failed,
        checks,
    );
    let values = [
        median(&l.win.throughput),
        median(&l.win.goodput),
        l.hist.quantile(0.5) as f64 / 1e3,
        peak_rss_bytes() as f64 / f64::from(1 << 20),
        setup_s,
    ];
    r.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n.to_string(), v, u))
        .collect();
    r
}

fn dp_e2e(spec: &DpSpec, seconds: f64) -> Report {
    let (plane, setup_s) = timed_setup(|| spec.plane());
    let mut r = spec.runner(plane);
    let l = closed_loop(|| r.step(None), WINDOW, seconds);
    e2e_report(&l, setup_s, r.finish_checks()).finish()
}

fn ipc_e2e(seed: u64, seconds: f64) -> Report {
    let (plane, setup_s) = timed_setup(KernelPlane::new);
    let mut r = IpcRunner::new(plane, IpcStream::new(seed));
    let l = closed_loop(|| r.step(None), ipc::WINDOW, seconds);
    let checks = r.plane.kernel.check_invariants();
    e2e_report(&l, setup_s, checks).finish()
}

/// The untraced run: every end-to-end metric.
#[must_use]
pub fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Report {
    match w {
        Workload::IpcRt => ipc_e2e(seed, seconds),
        _ => dp_e2e(&DpSpec::new(w, seed), seconds),
    }
}

/// Per-layer values by name.
type Layer = BTreeMap<&'static str, f64>;

fn self_ns(st: &BTreeMap<&'static str, SelfTime>, name: &str) -> f64 {
    st.get(name).map_or(0.0, |s| s.ns)
}

fn per(n: f64, d: f64) -> f64 {
    n / d.max(1.0)
}

/// The data-plane ladder's results.
struct DpLadder {
    layer: Layer,
    /// Summed stage self time of the real path, ns per frame.
    stage_ns: f64,
    gen_ns: f64,
    trace: Trace,
    attempted: u64,
    failed: u64,
    checks: Result<(), String>,
}

/// Replays the stream through the stage ladder: warm-up, then
/// [`LADDER_BATCHES`] recorded batches.
fn dp_ladder(spec: &DpSpec) -> DpLadder {
    let mut r = spec.runner(spec.plane());
    // The ladder's own trackers are sized like the workload's (like
    // `lb-nat`'s for the stateless `fwd-min`).
    let ct = spec.lb.as_ref().map_or_else(lbgen::lb_nat_ct, |(c, _)| *c);
    let mut lad = Ladder::new(spec.path, ct, &lbgen::lb_config(), spec.payload_off);
    let mut tr = Trace::new();
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..WARMUP_WINDOWS * WINDOW {
        let s = r.ladder_step(&mut lad, &mut tr);
        attempted += s.ops;
        failed += s.failed;
        tr.clear();
    }
    let lookups0 = lad.lookups;
    let selects0 = lad.selects;
    let rewritten0 = lad.rewritten;
    let cache0 = (
        r.plane.cache.hits(),
        r.plane.cache.misses(),
        r.plane.cache.invalidations(),
    );
    let pubs0 = r.plane.table.publications();
    let stats0 = r.stats;
    let ct_of = |r: &Runner<DpStream>, lad: &Ladder| {
        let (ct, pool) = r
            .plane
            .lb
            .as_ref()
            .map_or_else(|| lad.lb_state(), |(c, p)| (c, p));
        (*ct.stats(), *pool.stats())
    };
    let (ct0, lb0) = ct_of(&r, &lad);
    r.pending_reclaim_max = 0;

    let mut hist = Hist::new();
    for _ in 0..LADDER_BATCHES {
        let s = r.ladder_step(&mut lad, &mut tr);
        hist.record(s.lat_ns);
        attempted += s.ops;
        failed += s.failed;
    }
    let st = tr.self_times(Trace::calibrate());
    let frames = (LADDER_BATCHES * BATCH as u64) as f64;
    let lookups = (lad.lookups - lookups0) as f64;
    let rewritten = (lad.rewritten - rewritten0) as f64;
    let (ct1, lb1) = ct_of(&r, &lad);
    let hits = r.plane.cache.hits() - cache0.0;
    let misses = r.plane.cache.misses() - cache0.1;

    let parse = self_ns(&st, "l1.parse") / frames;
    let cache = self_ns(&st, "l3.cache") / frames;
    let l3 = (self_ns(&st, "l3.cache") + self_ns(&st, "l3.parse")) / frames;
    let ttl = self_ns(&st, "rewrite.ttl") / frames;
    let nat = self_ns(&st, "rewrite.nat") / frames;
    let admit = self_ns(&st, "l4.tracked") / frames - l3 - ttl;
    let select = per(self_ns(&st, "select"), (lad.selects - selects0) as f64);
    let assigned = (lb1.assigned - lb0.assigned) as f64;
    let periodic =
        (self_ns(&st, "publish") + self_ns(&st, "sweep") + self_ns(&st, "probe")) / frames;
    let pin = self_ns(&st, "pin") / frames;
    let stage_ns = match spec.path {
        Path::Cached => parse + cache + ttl + pin + periodic,
        Path::Lb => parse + cache + admit + select * assigned / frames + ttl + nat + pin + periodic,
    };
    let inserts = (ct1.flows_created - ct0.flows_created) as f64;
    let stateless = (ct1.stateless_syns - ct0.stateless_syns) as f64;
    let hp = EvictCause::HalfOpenPressure as usize;

    let mut layer = Layer::new();
    layer.insert("repr.parse_ns_per_pkt", parse);
    layer.insert(
        "repr.rewrite_ns_per_pkt",
        per(
            self_ns(&st, "rewrite.ttl") + self_ns(&st, "rewrite.nat"),
            rewritten,
        ),
    );
    for (i, label) in DROP_LABELS.iter().enumerate().take(DROP_REASONS) {
        layer.insert(
            drop_metric(label),
            (r.stats.dropped[i] - stats0.dropped[i]) as f64,
        );
    }
    layer.insert("route.lookup_ns", per(self_ns(&st, "l2.route"), lookups));
    layer.insert(
        "cowtrie.publish_ns",
        per(
            self_ns(&st, "publish"),
            st.get("publish").map_or(0.0, |s| s.count as f64),
        ),
    );
    layer.insert(
        "cowtrie.publications",
        (r.plane.table.publications() - pubs0) as f64,
    );
    layer.insert("epoch.pending_reclaim_max", r.pending_reclaim_max as f64);
    layer.insert("cache.hit_rate", per(hits as f64, (hits + misses) as f64));
    layer.insert("cache.lookup_ns", per(self_ns(&st, "l3.cache"), lookups));
    layer.insert(
        "cache.invalidations",
        (r.plane.cache.invalidations() - cache0.2) as f64,
    );
    layer.insert("conntrack.admit_ns", admit);
    layer.insert("conntrack.inserts", inserts);
    layer.insert(
        "conntrack.removed",
        (ct1.removed_total() - ct0.removed_total()) as f64,
    );
    layer.insert("conntrack.live_peak", ct1.peak_flows as f64);
    layer.insert("conntrack.half_open_peak", ct1.peak_half_open as f64);
    layer.insert(
        "conntrack.cookie_share",
        per(stateless, stateless + inserts),
    );
    layer.insert(
        "conntrack.backlog_drops",
        (ct1.removed[hp] - ct0.removed[hp]) as f64,
    );
    layer.insert("lb.select_ns", select);
    layer.insert("lb.assigned", assigned);
    layer.insert("lb.no_backend", (lb1.no_backend - lb0.no_backend) as f64);
    layer.insert(
        "lb.rewrites",
        (lb1.rewrites_to_backend + lb1.rewrites_to_client
            - lb0.rewrites_to_backend
            - lb0.rewrites_to_client) as f64,
    );
    layer.insert("pipeline.ns_per_pkt", self_ns(&st, "pipeline") / frames);
    layer.insert("pipeline.batch_p99_us", hist.quantile(0.99) as f64 / 1e3);
    DpLadder {
        layer,
        stage_ns,
        gen_ns: self_ns(&st, "gen") / frames,
        trace: tr,
        attempted,
        failed,
        checks: r.finish_checks(),
    }
}

/// `repr.drops.<label>` for a drop label.
fn drop_metric(label: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|n| n.strip_prefix("repr.drops.") == Some(label))
        .expect("every drop label has a metric")
}

/// Untraced and traced windows of the same real path, alternated.
struct Ab {
    /// Median busy ns per operation, untraced.
    plain_ns: f64,
    /// Median busy ns per operation, with spans recorded.
    traced_ns: f64,
    allocs_per_op: f64,
    hist: Hist,
    /// Self times summed over every traced window.
    spans: BTreeMap<&'static str, SelfTime>,
    /// Operations in the traced windows.
    traced_ops: u64,
    /// The last traced window's spans.
    last: Trace,
    /// Kernel-model cycles (or any other count) read by `probe` over the
    /// first untraced window, which every run with the seed replays alike.
    first_window_count: u64,
    /// Resident-memory growth per operation after the first pair (which
    /// sizes the histogram and the span store).
    rss_growth_per_op: f64,
    attempted: u64,
    failed: u64,
}

/// Warms up, then alternates one untraced and one traced window until
/// `seconds` have passed (at least `min_pairs` pairs). `probe` reads a
/// count before and after the first untraced window.
fn ab(
    mut step: impl FnMut(Option<&mut Trace>) -> Step,
    mut probe: impl FnMut() -> u64,
    window: u64,
    seconds: f64,
    min_pairs: usize,
) -> Ab {
    let mut attempted = 0;
    let mut failed = 0;
    for _ in 0..WARMUP_WINDOWS * window {
        let s = step(None);
        attempted += s.ops;
        failed += s.failed;
    }
    let oh = Trace::calibrate();
    let (mut plain, mut traced) = (Windows::default(), Windows::default());
    let mut hist = Hist::new();
    let mut tr = Trace::new();
    let mut spans: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    let c0 = probe();
    let mut first_window_count = None;
    let mut rss_from = None;
    let t = Instant::now();
    while plain.ns_per_op.len() < min_pairs || t.elapsed().as_secs_f64() < seconds {
        if rss_from.is_none() && !traced.ns_per_op.is_empty() {
            rss_from = Some((rss_bytes(), plain.total.ops + traced.total.ops));
        }
        for _ in 0..window {
            let s = step(None);
            hist.record(s.lat_ns);
            plain.add(s, window);
        }
        first_window_count.get_or_insert_with(|| probe() - c0);
        tr.clear();
        for _ in 0..window {
            let s = step(Some(&mut tr));
            traced.add(s, window);
        }
        for (k, v) in tr.self_times(oh) {
            let e = spans.entry(k).or_default();
            e.ns += v.ns;
            e.count += v.count;
        }
    }
    let ops = plain.total.ops + traced.total.ops;
    let (rss0, ops0) = rss_from.unwrap_or((rss_bytes(), ops));
    attempted += ops;
    failed += plain.total.failed + traced.total.failed;
    Ab {
        plain_ns: median(&plain.ns_per_op),
        traced_ns: median(&traced.ns_per_op),
        allocs_per_op: per(plain.total.allocs as f64, plain.total.ops as f64),
        hist,
        spans,
        traced_ops: traced.total.ops,
        last: tr,
        first_window_count: first_window_count.unwrap_or(0),
        rss_growth_per_op: per(rss_bytes().saturating_sub(rss0) as f64, (ops - ops0) as f64),
        attempted,
        failed,
    }
}

/// The kernel layer: untraced round trips alternated with round trips
/// that carry a span around every syscall, take, and the echo, for
/// `seconds`. Resident-memory growth is measured across them.
struct KernelLayer {
    layer: Layer,
    /// Summed self time of the round trip's stages, ns per round trip.
    stage_ns: f64,
    gen_ns: f64,
    ab: Ab,
    checks: Result<(), String>,
}

fn kernel_layer(seed: u64, seconds: f64) -> KernelLayer {
    let mut r = IpcRunner::new(KernelPlane::new(), IpcStream::new(seed));
    let ab = {
        let r = std::cell::RefCell::new(&mut r);
        ab(
            |t| r.borrow_mut().step(t),
            || r.borrow().cycles(),
            ipc::WINDOW,
            seconds,
            2,
        )
    };
    let st = &ab.spans;
    let mean = |n: &str| per(self_ns(st, n), st.get(n).map_or(0.0, |s| s.count as f64));
    let stage_ns = ["send", "recv", "take", "echo"]
        .iter()
        .map(|n| self_ns(st, n))
        .sum::<f64>()
        / ab.traced_ops.max(1) as f64;

    let mut layer = Layer::new();
    layer.insert("kernel.send_ns", mean("send"));
    layer.insert("kernel.recv_ns", mean("recv"));
    layer.insert("kernel.take_ns", mean("take"));
    layer.insert(
        "kernel.cycles_per_rt",
        ab.first_window_count as f64 / ipc::WINDOW as f64,
    );
    layer.insert("kernel.rt_p99_us", ab.hist.quantile(0.99) as f64 / 1e3);
    layer.insert("kernel.rss_growth_b_per_rt", ab.rss_growth_per_op);
    KernelLayer {
        layer,
        stage_ns,
        gen_ns: mean("gen"),
        ab,
        checks: r.plane.kernel.check_invariants(),
    }
}

/// The threaded router probe: `fwd-min`'s stream pushed through
/// `ShardedRouter` with one worker. Dispatch time is the time inside
/// `submit`, measured on this thread while the worker runs on another.
fn router_layer(seed: u64) -> (Layer, u64, u64, Result<(), String>) {
    let routes = fwd::fib(seed);
    let mut trie = TrieTable::new();
    for &(p, l, h) in &routes {
        trie.insert(p, l, h).expect("generated prefixes are valid");
    }
    let mut stream = FwdStream::new(seed, &routes);
    let mut batch = crate::dp::Batch::new(UDP_PAYLOAD);
    let mut router = ShardedRouter::start(
        trie,
        fwd::PORTS as usize,
        RouterConfig {
            workers: 1,
            ..RouterConfig::default()
        },
    );
    let mut expected = vec![0u64; fwd::PORTS as usize];
    let mut busy = 0u64;
    let mut allocs_mid = 0;
    let clock = crate::measure::Clock::new();
    for b in 0..ROUTER_BATCHES {
        stream.fill(&mut batch, b);
        for e in &batch.exp {
            if let crate::dp::Expect::Forward(p) = e {
                expected[usize::from(*p)] += 1;
            }
        }
        if b == ROUTER_BATCHES / 2 {
            allocs_mid = allocs();
        }
        let t0 = clock.now();
        for f in &batch.frames {
            router.submit(f.as_ref());
        }
        busy += clock.now() - t0;
    }
    let allocs_end = allocs();
    let pool = router.pool_stats();
    let report = router.finish();
    let frames = ROUTER_BATCHES * BATCH as u64;
    let got = &report.stats.totals.per_port;
    let checks = if *got == expected {
        Ok(())
    } else {
        Err(format!("router per-port {got:?} != expected {expected:?}"))
    };
    let failed = expected.iter().zip(got).map(|(a, b)| a.abs_diff(*b)).sum();
    let mut layer = Layer::new();
    layer.insert("router.dispatch_ns_per_pkt", busy as f64 / frames as f64);
    layer.insert("router.frame_reuse_rate", pool.frame_reuse_rate());
    layer.insert(
        "router.steady_allocs_per_pkt",
        (allocs_end - allocs_mid) as f64 / (frames / 2) as f64,
    );
    (layer, frames, failed, checks)
}

fn write_trace(tr: &Trace, w: Workload) -> Result<(), String> {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let path = std::path::Path::new(&dir)
        .join("perfbench-trace")
        .join(format!("{}.spans.csv", w.name()));
    tr.write_csv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn pct(a: f64, base: f64) -> f64 {
    (a - base) / base.max(f64::MIN_POSITIVE) * 100.0
}

/// The traced run: every per-layer metric.
///
/// Layers the workload itself never calls are measured on the sibling
/// stream at the same seed — the data-plane ladder on `fwd-min` for
/// `ipc-rt`, the kernel ladder on `ipc-rt` for the data-plane workloads —
/// and the router probe always on `fwd-min`'s stream.
#[must_use]
pub fn per_layer(w: Workload, seed: u64, seconds: f64) -> Report {
    let t0 = Instant::now();
    let mut rep = Report::default();
    let mut layer = Layer::new();
    let dp_workload = if w == Workload::IpcRt {
        Workload::FwdMin
    } else {
        w
    };
    let spec = DpSpec::new(dp_workload, seed);
    let dl = dp_ladder(&spec);
    rep.tally(dl.attempted, dl.failed, dl.checks);
    layer.extend(dl.layer.iter().map(|(k, v)| (*k, *v)));

    let (rl, frames, rfailed, rchecks) = router_layer(seed);
    rep.tally(frames, rfailed, rchecks);
    layer.extend(rl);

    let remaining = |t0: Instant| (seconds - t0.elapsed().as_secs_f64()).max(0.5);
    if w == Workload::IpcRt {
        let kl = kernel_layer(seed, remaining(t0));
        rep.tally(kl.ab.attempted, kl.ab.failed, kl.checks);
        layer.extend(kl.layer.iter().map(|(k, v)| (*k, *v)));
        layer.insert("bench.gen_ns_per_pkt", kl.gen_ns);
        layer.insert("alloc.steady_per_op", kl.ab.allocs_per_op);
        layer.insert("reconcile.residual_pct", pct(kl.stage_ns, kl.ab.plain_ns));
        layer.insert("trace.overhead_pct", pct(kl.ab.traced_ns, kl.ab.plain_ns));
        if let Err(e) = write_trace(&kl.ab.last, w) {
            rep.errors.push(e);
        }
    } else {
        let kl = kernel_layer(seed, 0.5);
        rep.tally(kl.ab.attempted, kl.ab.failed, kl.checks);
        layer.extend(kl.layer.iter().map(|(k, v)| (*k, *v)));
        if let Err(e) = write_trace(&dl.trace, w) {
            rep.errors.push(e);
        }
        let (ab, checks) = dp_ab(&spec, remaining(t0));
        rep.tally(ab.attempted, ab.failed, checks);
        layer.insert("bench.gen_ns_per_pkt", dl.gen_ns);
        layer.insert("alloc.steady_per_op", ab.allocs_per_op);
        layer.insert("reconcile.residual_pct", pct(dl.stage_ns, ab.plain_ns));
        layer.insert("trace.overhead_pct", pct(ab.traced_ns, ab.plain_ns));
    }
    rep.metrics = PER_LAYER
        .iter()
        .map(|&(n, u)| {
            let v = *layer
                .get(n)
                .unwrap_or_else(|| panic!("per-layer metric {n} was not measured"));
            (n.to_string(), v, u)
        })
        .collect();
    rep.finish()
}

/// The real path of a data-plane workload, alternated untraced and traced.
fn dp_ab(spec: &DpSpec, seconds: f64) -> (Ab, Result<(), String>) {
    let mut r = spec.runner(spec.plane());
    let ab = ab(|t| r.step(t), || 0, WINDOW, seconds, 3);
    (ab, r.finish_checks())
}

/// What a fixed-length run of the real path produced: the counts that must
/// repeat for one seed, and whether every check held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fixed {
    /// Data-plane counts (for `ipc-rt`: round trips as `forwarded`, echoed
    /// replies in `ports[0]`, and the request digest as `stream`).
    pub counts: Counts,
    /// Kernel-model cycles charged (0 for the data plane).
    pub cycles: u64,
    /// Operations whose outcome was wrong.
    pub failed: u64,
    /// The final structural checks.
    pub checks: Result<(), String>,
}

/// Runs `steps` batches (or round trips) of `w`'s real path from a fresh
/// setup, untimed.
#[must_use]
pub fn fixed_run(w: Workload, seed: u64, steps: u64) -> Fixed {
    match w {
        Workload::FwdMin | Workload::LbNat | Workload::SynFlood => {
            let spec = DpSpec::new(w, seed);
            let mut r = spec.runner(spec.plane());
            let failed = (0..steps).map(|_| r.step(None).failed).sum();
            Fixed {
                counts: r.counts(),
                cycles: 0,
                failed,
                checks: r.finish_checks(),
            }
        }
        Workload::IpcRt => {
            let mut r = IpcRunner::new(KernelPlane::new(), IpcStream::new(seed));
            let failed = (0..steps).map(|_| r.step(None).failed).sum();
            Fixed {
                counts: Counts {
                    forwarded: r.rts,
                    ports: vec![r.echoed],
                    stream: r.stream.digest(),
                    ..Counts::default()
                },
                cycles: r.cycles(),
                failed,
                checks: r.plane.kernel.check_invariants(),
            }
        }
    }
}
