//! E9 — Availability under a deterministic fault campaign.
//!
//! The robustness counterpart to E6: the same kernel IPC fast path, now run
//! under a seeded `sysfault` plan that drops messages in transit, injects
//! kernel-heap and manager-level allocation failures, and aborts STM
//! transactions. The recovery machinery on trial: IPC deadlines plus the
//! watchdog sweep, bounded retry with exponential backoff, graceful OOM
//! shedding of non-essential processes, and STM retry budgets.
//!
//! Three claims measured per fault rate:
//! * **availability** — fraction of round trips (and transactions) that
//!   still complete, at what retry and cycle cost;
//! * **replayability** — the same seed reproduces the identical fault log
//!   (digests compared across two full campaign runs);
//! * **invariant preservation** — after the campaign, every kernel
//!   invariant contract still verifies under `bitc-verify`.

use super::{ct_flow_frame, Scale, Table};
use bitc_verify::vcgen::is_verified;
use microkernel::invariants::invariant_suite;
use microkernel::kernel::{Kernel, Syscall, SITE_IPC_DROP, SITE_KERNEL_OOM};
use microkernel::rights::Rights;
use sysconc::stm::{atomically_faulted, RetryBudget, TVar, SITE_STM_ABORT};
use sysfault::{FaultPlan, Schedule, SharedInjector};
use sysmem::faulty::{FaultyHeap, SITE_OOM};
use sysmem::freelist::FreeListHeap;
use sysnet::conntrack::{
    ConntrackConfig, SITE_CT_STATE_DESYNC, SITE_CT_TABLE_FULL, SITE_CT_TIMER_STALL,
};
use sysnet::ctbench::{ct_table, CT_PORTS};
use sysnet::pipeline::DropReason;
use sysnet::router::{
    run_stream, RouterConfig, RouterReport, SITE_NET_FRAME_DROP, SITE_NET_RECYCLE_LOSS,
    SITE_NET_WORKER_STALL,
};
use sysrepr::packet::{TCP_ACK, TCP_SYN};

const CAMPAIGN_SEED: u64 = 0x9E37_79B9;
const DEADLINE_CYCLES: u64 = 2_000;
const MAX_RETRIES: u32 = 4;

fn rounds(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 150,
        Scale::Full => 5_000,
    }
}

fn plan_for(rate: f64, seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_site(SITE_IPC_DROP, Schedule::Probability(rate))
        .with_site(SITE_KERNEL_OOM, Schedule::Probability(rate / 2.0))
        .with_site(SITE_OOM, Schedule::Probability(rate / 4.0))
}

struct CampaignResult {
    completed: usize,
    total_retries: u64,
    clean_cycles_sum: u64,
    clean_rounds: u64,
    retried_cycles_sum: u64,
    retried_rounds: u64,
    shed: u64,
    reaps: u64,
    drops: u64,
    digest: u64,
}

/// One full kernel campaign at a fixed fault rate. Deterministic in
/// `(rate, rounds, seed)`: the whole point.
fn kernel_campaign(rate: f64, rounds: usize, seed: u64) -> CampaignResult {
    let injector = SharedInjector::new(plan_for(rate, seed));
    let heap = FaultyHeap::new(Box::new(FreeListHeap::new(1 << 20)), injector.clone());
    let mut k = Kernel::new(Box::new(heap));
    k.set_injector(injector.clone());

    let server = k.spawn_process();
    let client = k.spawn_process();
    k.set_essential(server, true).expect("live pid");
    k.set_essential(client, true).expect("live pid");
    let req_s = k.create_endpoint(server).expect("endpoint");
    let req_c = k
        .grant_cap(server, req_s, client, Rights::SEND)
        .expect("grant");
    let rep_s = k.create_endpoint(server).expect("endpoint");
    let rep_c = k
        .grant_cap(server, rep_s, client, Rights::RECV)
        .expect("grant");
    // Expendable background processes: graceful OOM degradation sheds these
    // (newest first) instead of failing the essential workload.
    for _ in 0..8 {
        let p = k.spawn_process();
        let _ = k.syscall(p, Syscall::AllocPage { words: 32 });
    }

    let mut r = CampaignResult {
        completed: 0,
        total_retries: 0,
        clean_cycles_sum: 0,
        clean_rounds: 0,
        retried_cycles_sum: 0,
        retried_rounds: 0,
        shed: 0,
        reaps: 0,
        drops: 0,
        digest: 0,
    };
    for _ in 0..rounds {
        match k.ping_pong_resilient(
            client,
            server,
            (req_s, req_c),
            (rep_s, rep_c),
            4,
            DEADLINE_CYCLES,
            MAX_RETRIES,
        ) {
            Ok(out) => {
                r.completed += 1;
                r.total_retries += u64::from(out.retries);
                if out.retries == 0 {
                    r.clean_cycles_sum += out.cycles;
                    r.clean_rounds += 1;
                } else {
                    r.retried_cycles_sum += out.cycles;
                    r.retried_rounds += 1;
                }
            }
            Err(_) => {
                // An abandoned round trip must leave the kernel reusable:
                // the next round starts from ready processes. (A panic here
                // would fail the whole experiment — availability under
                // faults is exactly the claim.)
            }
        }
    }
    let stats = k.fault_stats();
    r.shed = stats.shed_processes;
    r.reaps = stats.watchdog_reaps;
    r.drops = stats.dropped_messages;
    r.digest = injector.digest();
    r
}

/// Budgeted STM transactions under injected aborts at `rate`; returns
/// (committed, attempted).
fn stm_campaign(rate: f64, txns: usize, seed: u64) -> (usize, usize) {
    let injector = SharedInjector::new(
        FaultPlan::new(seed).with_site(SITE_STM_ABORT, Schedule::Probability(rate)),
    );
    let counter = TVar::new(0i64);
    let budget = RetryBudget {
        max_attempts: 8,
        backoff_base_us: 0,
    };
    let mut ok = 0;
    for _ in 0..txns {
        let committed = atomically_faulted(budget, &injector, |tx| {
            let v = tx.read(&counter)?;
            tx.write(&counter, v + 1)
        })
        .is_ok();
        if committed {
            ok += 1;
        }
    }
    (ok, txns)
}

#[allow(clippy::cast_precision_loss)]
fn pct(num: usize, den: usize) -> String {
    if den == 0 {
        return "—".to_string();
    }
    format!("{:.1}%", 100.0 * num as f64 / den as f64)
}

/// Runs E9 and renders the table.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let rounds = rounds(scale);
    let mut t = Table::new(
        "E9 — availability and recovery under a seeded fault campaign",
        &[
            "fault rate",
            "RT avail",
            "avg retries",
            "recovery cost",
            "shed",
            "reaps",
            "drops",
            "STM avail",
            "invariants",
            "replay",
        ],
    );
    let mut verified_after_all = true;
    for rate in [0.0, 0.05, 0.10, 0.20] {
        let r = kernel_campaign(rate, rounds, CAMPAIGN_SEED);
        let replay = kernel_campaign(rate, rounds, CAMPAIGN_SEED);
        let replay_ok = r.digest == replay.digest && r.completed == replay.completed;
        let (stm_ok, stm_n) = stm_campaign(rate, rounds, CAMPAIGN_SEED ^ 0xA5A5);
        // Post-campaign invariant check: the recovery machinery must not
        // have cost the kernel its contracts.
        let proven = invariant_suite().iter().filter(|p| is_verified(p)).count();
        let suite_len = invariant_suite().len();
        verified_after_all &= proven == suite_len;
        #[allow(clippy::cast_precision_loss)]
        let avg_retries = if r.completed == 0 {
            "—".to_string()
        } else {
            format!("{:.2}", r.total_retries as f64 / r.completed as f64)
        };
        // Recovery cost: extra cycles a recovered round trip pays over a
        // clean one (averages compared; "—" when one class is empty).
        let recovery = if r.retried_rounds == 0 || r.clean_rounds == 0 {
            "—".to_string()
        } else {
            let clean = r.clean_cycles_sum / r.clean_rounds;
            let retried = r.retried_cycles_sum / r.retried_rounds;
            format!("+{} cyc", retried.saturating_sub(clean))
        };
        t.row(vec![
            format!("{:.0}%", rate * 100.0),
            pct(r.completed, rounds),
            avg_retries,
            recovery,
            r.shed.to_string(),
            r.reaps.to_string(),
            r.drops.to_string(),
            pct(stm_ok, stm_n),
            format!("{proven}/{suite_len}"),
            if replay_ok {
                format!("{:016x} ✓", r.digest)
            } else {
                "MISMATCH".to_string()
            },
        ]);
    }
    t.note(format!(
        "{rounds} resilient round trips per rate (4-word payloads, deadline {DEADLINE_CYCLES} \
         cycles, ≤{MAX_RETRIES} retries, exponential backoff); sites: kernel.ipc.drop@rate, \
         kernel.oom@rate/2, mem.oom@rate/4, stm.abort@rate; seed {CAMPAIGN_SEED:#x}."
    ));
    t.note(
        "replay column: each campaign ran twice from its seed; matching fault-log digests mean \
         byte-for-byte reproducibility of what fired, where, in what order.",
    );
    t.note(if verified_after_all {
        "post-campaign bitc-verify check: every kernel invariant contract still proves."
    } else {
        "post-campaign bitc-verify check FAILED: an invariant no longer proves."
    });
    t
}

// ---- E9b: the same campaign discipline, aimed at the data plane --------

fn net_flows(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 200,
        Scale::Full => 2_000,
    }
}

/// Round-robin TCP stream: every flow handshakes (SYN, then the ACK),
/// then streams `data_rounds` payload packets, interleaved so the whole
/// population is concurrently live in the tracker.
fn net_stream(flows: usize, data_rounds: usize) -> Vec<Vec<u8>> {
    let mut frames = Vec::with_capacity(flows * (2 + data_rounds));
    for round in 0..(2 + data_rounds) {
        for f in 0..flows {
            let b = ct_flow_frame(f);
            let b = match round {
                0 => b.tcp_flags(TCP_SYN),
                1 => b.tcp_flags(TCP_ACK),
                _ => b.tcp_flags(TCP_ACK).payload(&[0x5A; 48]),
            };
            frames.push(b.build());
        }
    }
    frames
}

/// One seeded campaign over every `net.*` site at `rate`, through the
/// tracked sharded router. Deterministic in `(rate, flows, seed)`.
fn net_campaign(rate: f64, flows: usize, seed: u64) -> RouterReport {
    let plan = FaultPlan::new(seed)
        .with_site(SITE_NET_FRAME_DROP, Schedule::Probability(rate))
        .with_site(SITE_NET_WORKER_STALL, Schedule::Probability(rate / 2.0))
        .with_site(SITE_NET_RECYCLE_LOSS, Schedule::Probability(rate / 4.0))
        .with_site(SITE_CT_TABLE_FULL, Schedule::Probability(rate / 2.0))
        .with_site(SITE_CT_TIMER_STALL, Schedule::Probability(rate / 2.0))
        .with_site(SITE_CT_STATE_DESYNC, Schedule::Probability(rate / 4.0));
    let config = RouterConfig {
        workers: 2,
        queue_depth: 64,
        // Roomy sizing: the whole population is half-open at once during
        // round 0, and overload is E14's subject, not this campaign's —
        // every drop in the table should be injected, not organic.
        conntrack: Some(ConntrackConfig {
            max_flows: (flows * 2).max(64),
            syn_backlog: flows.max(32),
            ..ConntrackConfig::default()
        }),
        fault_plan: Some(plan),
        ..RouterConfig::default()
    };
    let frames = net_stream(flows, 4);
    let (report, _) = run_stream(ct_table(), CT_PORTS, config, &frames);
    report
}

/// Runs E9b — the data-plane follow-on — and renders the table.
#[must_use]
pub fn run_net(scale: Scale) -> Table {
    let flows = net_flows(scale);
    let mut t = Table::new(
        "E9b — data-plane availability under seeded net.* faults",
        &[
            "fault rate",
            "delivered",
            "frame drops",
            "stalls",
            "recycle loss",
            "table-full",
            "timer stalls",
            "desyncs",
            "ct audits",
            "replay",
        ],
    );
    for rate in [0.0, 0.02, 0.05, 0.10] {
        let r = net_campaign(rate, flows, CAMPAIGN_SEED);
        let replay = net_campaign(rate, flows, CAMPAIGN_SEED);
        let replay_ok = r.faults.dispatch_digest == replay.faults.dispatch_digest
            && r.faults.worker_digest == replay.faults.worker_digest
            && r.stats.totals.forwarded == replay.stats.totals.forwarded;
        let totals = &r.stats.totals;
        let submitted = totals.total_frames() + r.faults.injected_frame_drops;
        let ct = r.conntrack.unwrap_or_default();
        t.row(vec![
            format!("{:.0}%", rate * 100.0),
            pct(
                usize::try_from(totals.forwarded).expect("fits"),
                usize::try_from(submitted).expect("fits"),
            ),
            r.faults.injected_frame_drops.to_string(),
            r.faults.injected_stalls.to_string(),
            format!(
                "{} (-{} bufs)",
                r.faults.recycle_losses, r.faults.frames_lost
            ),
            totals.dropped[DropReason::FlowTableFull as usize].to_string(),
            ct.timer_stalls.to_string(),
            ct.desyncs_injected.to_string(),
            if ct.invariant_violations == 0 {
                "0 ✓".to_string()
            } else {
                format!("{} VIOLATED", ct.invariant_violations)
            },
            if replay_ok {
                let d = r.faults.dispatch_digest ^ r.faults.worker_digest;
                format!("{d:016x} ✓")
            } else {
                "MISMATCH".to_string()
            },
        ]);
    }
    t.note(format!(
        "{flows} tracked TCP flows (handshake + 4 data packets each, round-robin) through a \
         2-worker router; sites: net.dispatch.frame_drop@rate, net.worker.stall@rate/2, \
         net.recycle.loss@rate/4, net.conntrack.table_full@rate/2, timer_stall@rate/2, \
         state_desync@rate/4; seed {CAMPAIGN_SEED:#x}.",
    ));
    t.note(
        "ct audits: post-run structural audit failures across every shard — any nonzero value \
         means an injected fault corrupted the flow table. replay: both campaign runs must fold \
         to identical dispatcher and per-worker fault-log digests.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_runs_all_rates_without_panicking() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn zero_rate_campaign_is_fully_available() {
        let rounds = 100;
        let r = kernel_campaign(0.0, rounds, 1);
        assert_eq!(r.completed, rounds);
        assert_eq!(r.total_retries, 0);
        assert_eq!(r.drops + r.reaps + r.shed, 0);
    }

    #[test]
    fn ten_percent_campaign_stays_available() {
        // The ISSUE's acceptance bar: a 10% campaign completes with nonzero
        // availability and zero panics.
        let rounds = 200;
        let r = kernel_campaign(0.10, rounds, CAMPAIGN_SEED);
        assert!(r.completed > 0, "availability must stay above zero");
        assert!(r.drops > 0, "the campaign must actually inject faults");
    }

    #[test]
    fn campaigns_replay_identically_from_their_seed() {
        let a = kernel_campaign(0.15, 120, 42);
        let b = kernel_campaign(0.15, 120, 42);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.total_retries, b.total_retries);
        let c = kernel_campaign(0.15, 120, 43);
        assert_ne!(a.digest, c.digest, "different seed, different campaign");
    }

    #[test]
    fn e9b_net_campaign_replays_and_keeps_audits_clean() {
        let t = run_net(Scale::Quick);
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            assert_eq!(row[8], "0 ✓", "an injected fault corrupted a shard");
            assert!(row[9].ends_with('✓'), "campaign digests must replay");
        }
    }

    #[test]
    fn e9b_faulted_rates_actually_inject() {
        let r = net_campaign(0.10, 120, CAMPAIGN_SEED);
        assert!(r.faults.total_injected() > 0, "no faults fired at 10%");
        let clean = net_campaign(0.0, 120, CAMPAIGN_SEED);
        assert_eq!(clean.faults.total_injected(), 0);
        assert_eq!(
            clean.stats.totals.forwarded,
            120 * 6,
            "zero-rate campaign must deliver the whole stream"
        );
    }

    #[test]
    fn invariants_still_prove_after_a_campaign() {
        let _ = kernel_campaign(0.20, 100, 7);
        for p in invariant_suite() {
            assert!(is_verified(&p), "{} must still verify", p.name);
        }
    }
}
