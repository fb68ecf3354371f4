//! E16 — Always-on observability: sampled tracing cost, feedback
//! convergence, and anomaly-triggered black-box postmortems.
//!
//! E11 prices the observability *modes*; this experiment exercises the
//! machinery that makes the sampled mode deployable as an always-on
//! default:
//!
//! * **overhead curve** — router throughput under `Mode::Sampled` at fixed
//!   sampling shifts (1-in-1 … 1-in-256) and under adaptive control,
//!   against the compiled-out baseline. The curve is the evidence behind
//!   the ≤5% sampled-router budget `obs_bench` enforces;
//! * **feedback convergence** — a synthetic hot site (millions of calls/s)
//!   and a cold site (hundreds) driven through the controller for several
//!   windows: the hot site must be pushed to a sparse shift while the cold
//!   site converges to shift 0 (every occurrence recorded), keeping total
//!   ring-write spend inside the overhead budget;
//! * **anomaly campaign** — five seeded incidents, one per watch in
//!   [`TriggerEngine::standard`]: epoch-advancement lag, a watchdog reap,
//!   a backpressure stall burst, SYN-cookie engagement, and a drop-rate
//!   spike. Each incident must produce **exactly one** postmortem naming
//!   its trigger, and the drop-spike postmortem must contain a causal
//!   trace that crosses the dispatcher/worker thread boundary
//!   (`net.dispatch` → `net.frame.*`), proving a sampled packet
//!   reconstructs end to end from the black box alone.
//!
//! The campaign runs the *production* wiring: live registry counters at
//! the real sites, the standard watch set, head sampling pinned to 1-in-1
//! so the run is deterministic. The integration test
//! (`tests/obs_postmortem.rs`) asserts the exactly-one property in an
//! isolated process; the table here renders the same outcomes.

use super::e11_obs::{router_once, sweep_config};
use super::{ct_flow_frame, fmt_rate, Scale, Table};
use microkernel::kernel::{Kernel, Syscall};
use microkernel::rights::Rights;
use std::sync::Arc;
use sysfault::{FaultPlan, Schedule};
use sysmem::epoch::Domain;
use sysmem::freelist::FreeListHeap;
use sysnet::bench::frame_stream;
use sysnet::conntrack::ConntrackConfig;
use sysnet::ctbench::{ct_table, CT_PORTS};
use sysnet::router::{run_stream, RouterConfig, SITE_NET_WORKER_STALL};
use sysobs::sampler::{sampler, SampleSite, DEFAULT_EVENT_COST_NS, MAX_SHIFT};
use sysobs::{paired, Mode, Postmortem, TriggerEngine};
use sysrepr::packet::{TCP_ACK, TCP_SYN};

const CAMPAIGN_SEED: u64 = 0xE16_0B5;

/// One point on the sampled-tracing overhead curve.
#[derive(Debug, Clone)]
pub struct OverheadPoint {
    /// Row label (`uninstrumented`, `shift 0 (1-in-1)`, …, `adaptive`).
    pub label: String,
    /// Median-across-rounds packets per second.
    pub pps: f64,
    /// Throughput overhead vs the uninstrumented baseline, percent.
    pub overhead_pct: f64,
}

/// One controller window in the convergence measurement.
#[derive(Debug, Clone)]
pub struct ConvergencePoint {
    /// Window index (1-based).
    pub window: usize,
    /// Hot site's shift after the window's retune.
    pub hot_shift: u32,
    /// Cold site's shift after the window's retune.
    pub cold_shift: u32,
    /// Ring-write spend this window as a percent of one core, computed
    /// from admitted events × the estimated per-event cost.
    pub spend_pct: f64,
}

/// One injected incident's outcome in the anomaly campaign.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The watch this incident targets (postmortems must name it).
    pub trigger: &'static str,
    /// Postmortems naming the expected trigger at the incident's poll.
    pub expected_fired: usize,
    /// All postmortems emitted at the incident's poll (side effects of a
    /// scenario may legitimately trip a second watch).
    pub total_fired: usize,
    /// Events captured in the expected postmortem's recorder tail.
    pub events: usize,
    /// Causal traces reconstructed from that tail.
    pub traces: usize,
    /// True when some causal trace in the postmortem crosses a thread
    /// boundary and walks `net.dispatch` → `net.frame.*`.
    pub cross_worker_trace: bool,
    /// The `sysfault` digest the postmortem carries, if the scenario ran
    /// under an active fault plan.
    pub fault_digest: Option<u64>,
}

fn reps(scale: Scale) -> usize {
    // Rounds of the paired measurement (odd, for a true median).
    match scale {
        Scale::Quick => 3,
        Scale::Full => 9,
    }
}

/// The sampled-tracing overhead curve: fixed shifts, then adaptive, as the
/// arms of [`paired`] rounds over E11's router arm and stream, so host
/// drift cancels out of the cross-arm ratios instead of masquerading as
/// sampling cost.
#[must_use]
pub fn overhead_curve(scale: Scale) -> Vec<OverheadPoint> {
    let cfg = sweep_config(scale);
    let frames = frame_stream(&cfg);

    let arms: Vec<(String, bool, Option<u32>)> =
        std::iter::once(("uninstrumented".into(), false, None))
            .chain(
                [0u32, 4, 8]
                    .into_iter()
                    .map(|s| (format!("shift {s} (1-in-{})", 1u32 << s), true, Some(s))),
            )
            .chain(std::iter::once(("adaptive".into(), true, None)))
            .collect();

    let measure_arm = |instrument: bool, shift: Option<u32>| -> f64 {
        let mode = if instrument {
            Mode::Sampled
        } else {
            Mode::Disabled
        };
        sysobs::set_mode(mode);
        sampler().set_fixed_shift(if instrument { shift } else { None });
        sampler().reset_sites();
        sysobs::clear();
        let pps = router_once(&cfg, &frames, instrument);
        sysobs::set_mode(Mode::Disabled);
        pps
    };

    // Warmup pass, then paired rounds.
    let _ = measure_arm(false, None);
    let medians = paired(
        reps(scale),
        arms.len(),
        |&pps| pps,
        |i| measure_arm(arms[i].1, arms[i].2),
    );
    sampler().set_fixed_shift(None);

    let baseline = medians[0];
    arms.into_iter()
        .zip(medians)
        .map(|((label, _, _), pps)| OverheadPoint {
            label,
            pps,
            overhead_pct: if baseline <= 0.0 {
                0.0
            } else {
                (baseline - pps) / baseline * 100.0
            },
        })
        .collect()
}

/// Drives a synthetic hot site and cold site through the controller for
/// `windows` retune windows and reports the shift trajectory.
#[must_use]
pub fn convergence(windows: usize) -> Vec<ConvergencePoint> {
    static HOT: SampleSite = SampleSite::new();
    static COLD: SampleSite = SampleSite::new();
    // 10 ms synthetic window; the hot site models ~20M calls/s, the cold
    // site ~20K/s — the E11 router and watchdog rates, roughly.
    const WINDOW_NS: u64 = 10_000_000;
    const HOT_CALLS: u64 = 200_000;
    const COLD_CALLS: u64 = 200;

    let prev = sysobs::mode();
    sysobs::set_mode(Mode::Sampled);
    sampler().set_fixed_shift(None);
    // This driver owns the window boundaries; a wall-clock retune firing
    // mid-drive on a slow host would consume the deltas mid-window.
    sampler().set_auto_tick(false);
    sampler().reset_sites();
    let mut out = Vec::with_capacity(windows);
    let (mut hot_adm, mut cold_adm) = (0u64, 0u64);
    for w in 0..windows {
        for _ in 0..HOT_CALLS {
            let _ = sysobs::sampler::admit(&HOT, "e16.synthetic.hot");
        }
        for _ in 0..COLD_CALLS {
            let _ = sysobs::sampler::admit(&COLD, "e16.synthetic.cold");
        }
        sampler().retune(WINDOW_NS);
        let admitted = (HOT.admitted() - hot_adm) + (COLD.admitted() - cold_adm);
        (hot_adm, cold_adm) = (HOT.admitted(), COLD.admitted());
        #[allow(clippy::cast_precision_loss)]
        let spend_pct = admitted as f64 * DEFAULT_EVENT_COST_NS as f64 / WINDOW_NS as f64 * 100.0;
        out.push(ConvergencePoint {
            window: w + 1,
            hot_shift: HOT.shift(),
            cold_shift: COLD.shift(),
            spend_pct,
        });
    }
    sampler().set_auto_tick(true);
    sysobs::set_mode(prev);
    out
}

/// TCP frames of flows `0..n` routed by [`ct_table`] (the E9b addressing).
fn routable_frames(n: usize, flags: u8) -> Vec<Vec<u8>> {
    (0..n)
        .map(|f| ct_flow_frame(f).tcp_flags(flags).build())
        .collect()
}

fn has_cross_worker_trace(pm: &Postmortem) -> bool {
    pm.causal_traces().iter().any(|t| {
        t.crosses_threads()
            && t.path.iter().any(|n| n == "net.dispatch")
            && t.path.iter().any(|n| n.starts_with("net.frame."))
    })
}

/// Runs one scenario's workload, polls the engine, and folds the fired
/// postmortems into an outcome. A trailing quiet poll re-arms every
/// delta watch before the next incident.
fn incident(
    eng: &mut TriggerEngine,
    trigger: &'static str,
    digest: Option<u64>,
    workload: impl FnOnce(),
) -> ScenarioOutcome {
    workload();
    let pms = eng.poll(digest);
    let expected: Vec<&Postmortem> = pms.iter().filter(|p| p.trigger == trigger).collect();
    let head = expected.first();
    let outcome = ScenarioOutcome {
        trigger,
        expected_fired: expected.len(),
        total_fired: pms.len(),
        events: head.map_or(0, |p| p.events.len()),
        traces: head.map_or(0, |p| p.causal_traces().len()),
        cross_worker_trace: head.is_some_and(|p| has_cross_worker_trace(p)),
        fault_digest: head.and_then(|p| p.fault_digest),
    };
    let _ = eng.poll(None); // quiet poll: deltas are zero, watches re-arm
    outcome
}

/// The seeded anomaly campaign: five incidents, one per standard watch.
/// Deterministic — head sampling is pinned to 1-in-1 for the duration so
/// every dispatched batch roots a causal trace.
#[must_use]
pub fn campaign(scale: Scale) -> Vec<ScenarioOutcome> {
    let flows = match scale {
        Scale::Quick => 96,
        Scale::Full => 512,
    };
    let prev = sysobs::mode();
    sysobs::set_mode(Mode::Sampled);
    sampler().set_fixed_shift(Some(0));
    sampler().reset_sites();
    sysobs::clear();
    sysfault::publish_active_digest(0);

    let mut eng = TriggerEngine::standard();
    let _ = eng.poll(None); // baseline: every delta watch arms
    let mut out = Vec::with_capacity(5);

    // 1. Epoch-advancement lag: a pinned reader blocks `try_advance`, each
    //    blocked attempt counts one `mem.epoch.advance_stalls`.
    out.push(incident(&mut eng, "epoch-advance-lag", None, || {
        let domain: Arc<Domain<u64>> = Arc::new(Domain::new());
        let handle = domain.register();
        let guard = handle.pin();
        let _ = domain.try_advance(); // advances past the pinned epoch
        for _ in 0..24 {
            let _ = domain.try_advance(); // blocked: the reader lags behind
        }
        drop(guard);
    }));

    // 2. Watchdog reap: an overdue Recv with a deadline; the sweep reaps it
    //    and bumps `kernel.watchdog_reaps`. A few traced round trips first
    //    so the postmortem tail holds linked send/recv spans.
    out.push(incident(&mut eng, "watchdog-fired", None, || {
        let mut k = Kernel::new(Box::new(FreeListHeap::new(1 << 20)));
        let server = k.spawn_process();
        let client = k.spawn_process();
        let req_s = k.create_endpoint(server).expect("endpoint");
        let req_c = k
            .grant_cap(server, req_s, client, Rights::SEND)
            .expect("grant");
        let rep_s = k.create_endpoint(server).expect("endpoint");
        let rep_c = k
            .grant_cap(server, rep_s, client, Rights::RECV)
            .expect("grant");
        for _ in 0..4 {
            k.ping_pong(client, server, (req_s, req_c), (rep_s, rep_c), 16)
                .expect("round trip");
        }
        k.set_ipc_deadline(server, Some(500)).expect("live pid");
        k.syscall(server, Syscall::Recv { cap: req_s })
            .expect("recv posts");
        for _ in 0..40 {
            k.schedule(); // drives cycles past the deadline; sweep reaps
        }
    }));

    // 3. Backpressure stall: one worker, depth-1 queue, batch size 1, and
    //    injected worker stalls — the dispatcher requeues constantly. The
    //    plan's log digest is published so the postmortem links back to it.
    let stall_plan =
        FaultPlan::new(CAMPAIGN_SEED).with_site(SITE_NET_WORKER_STALL, Schedule::Probability(0.5));
    let stall_digest = {
        let rc = RouterConfig {
            workers: 1,
            batch_size: 1,
            queue_depth: 1,
            fault_plan: Some(stall_plan),
            ..RouterConfig::default()
        };
        let frames = routable_frames(flows * 4, TCP_ACK);
        let (report, _) = run_stream(ct_table(), CT_PORTS, rc, &frames);
        report.faults.dispatch_digest ^ report.faults.worker_digest
    };
    sysfault::publish_active_digest(stall_digest);
    out.push(incident(
        &mut eng,
        "backpressure-stall",
        sysfault::active_digest(),
        || {},
    ));
    sysfault::publish_active_digest(0);

    // 4. SYN-cookie engagement: a flood of distinct half-opens through a
    //    shard with a tiny backlog. Kept under 64 frames so the flood's own
    //    drops cannot double as a drop-rate spike.
    out.push(incident(&mut eng, "syn-cookie-engaged", None, || {
        let rc = RouterConfig {
            workers: 2,
            queue_depth: 64,
            conntrack: Some(ConntrackConfig {
                max_flows: 256,
                syn_backlog: 8,
                ..ConntrackConfig::default()
            }),
            ..RouterConfig::default()
        };
        let frames = routable_frames(48, TCP_SYN);
        let _ = run_stream(ct_table(), CT_PORTS, rc, &frames);
    }));

    // 5. Drop-rate spike — and the causal-trace acceptance check: benign
    //    traffic plus a burst of malformed frames; the postmortem's tail
    //    must reconstruct dispatcher → worker paths for sampled packets.
    out.push(incident(&mut eng, "drop-rate-spike", None, || {
        let rc = RouterConfig {
            workers: 2,
            queue_depth: 64,
            ..RouterConfig::default()
        };
        let mut frames = routable_frames(flows, TCP_ACK);
        frames.extend((0..200).map(|i| vec![0x45u8; 8 + (i % 4)])); // truncated IPv4
        let _ = run_stream(ct_table(), CT_PORTS, rc, &frames);
    }));

    sampler().set_fixed_shift(None);
    sysobs::set_mode(prev);
    out
}

/// The CI smoke path: one seeded drop-rate spike under sampled mode.
/// Returns the fired postmortem's JSON for the artifact check, or `None`
/// if the watch did not fire (CI fails on that).
#[must_use]
pub fn smoke_postmortem() -> Option<String> {
    let prev = sysobs::mode();
    sysobs::set_mode(Mode::Sampled);
    sampler().set_fixed_shift(Some(0));
    sampler().reset_sites();
    sysobs::clear();

    let mut eng = TriggerEngine::standard();
    let _ = eng.poll(None); // baseline
    let rc = RouterConfig {
        workers: 2,
        queue_depth: 64,
        ..RouterConfig::default()
    };
    let mut frames = routable_frames(96, TCP_ACK);
    frames.extend((0..200).map(|i| vec![0x45u8; 8 + (i % 4)])); // truncated IPv4
    let _ = run_stream(ct_table(), CT_PORTS, rc, &frames);
    let pms = eng.poll(None);

    sampler().set_fixed_shift(None);
    sysobs::set_mode(prev);
    pms.into_iter()
        .find(|p| p.trigger == "drop-rate-spike")
        .map(|p| p.to_json())
}

/// Runs E16 and renders the table.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let mut t = Table::new(
        "E16 — always-on observability: sampling cost, convergence, postmortems",
        &["phase", "case", "result", "detail"],
    );

    for p in overhead_curve(scale) {
        t.row(vec![
            "overhead".into(),
            p.label,
            fmt_rate(p.pps),
            format!("{:+.1}% vs uninstrumented", p.overhead_pct),
        ]);
    }

    let conv = convergence(3);
    for c in &conv {
        t.row(vec![
            "convergence".into(),
            format!("window {}", c.window),
            format!("hot shift {}, cold shift {}", c.hot_shift, c.cold_shift),
            format!(
                "ring-write spend {:.2}% of core (budget {:.2}%)",
                c.spend_pct,
                sampler().budget_pct()
            ),
        ]);
    }

    for s in campaign(scale) {
        let result = if s.expected_fired == 1 {
            "1 postmortem ✓".to_string()
        } else {
            format!("{} postmortems ✗", s.expected_fired)
        };
        let mut detail = format!("{} events, {} causal traces", s.events, s.traces);
        if s.trigger == "drop-rate-spike" {
            detail.push_str(if s.cross_worker_trace {
                ", cross-worker trace ✓"
            } else {
                ", cross-worker trace MISSING"
            });
        }
        if let Some(d) = s.fault_digest {
            detail.push_str(&format!(", fault digest {d:#x}"));
        }
        t.row(vec!["campaign".into(), s.trigger.into(), result, detail]);
    }

    if let Some(last) = conv.last() {
        t.note(format!(
            "convergence drives a synthetic hot site (~20M calls/s) and cold site (~20K/s) \
             through the adaptive controller; final shifts {} / {} (max {MAX_SHIFT}) keep the \
             hot path sparse while cold anomalies record every occurrence.",
            last.hot_shift, last.cold_shift
        ));
    }
    t.note(format!(
        "campaign: five seeded incidents against the standard watch set, head sampling pinned \
         to 1-in-1, seed {CAMPAIGN_SEED:#x}. Each incident must yield exactly one postmortem \
         naming its trigger; the drop-spike postmortem must reconstruct a dispatcher→worker \
         causal trace from the frozen ring alone.",
    ));
    t
}
