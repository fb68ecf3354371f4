//! E12 — the zero-alloc steady state: flow route cache + frame pooling.
//!
//! PR 4 rebuilt the router's dispatch loop around two C-idiom techniques
//! the paper says safe languages must support (C2: idiomatic manual
//! storage management) and whose payoff is exactly the 1.5–2x factor the
//! paper says the PL community dismisses (F1):
//!
//! * **frame/batch pooling** — the dispatcher allocates its whole pool of
//!   batches at start, each batch keeping its frame buffers for life, and
//!   workers hand drained batches back over one shared return channel, so
//!   the steady state performs zero heap allocations per packet.
//!   `router_bench` *measures* this with a counting global allocator and
//!   asserts allocs/packet < 0.05; here we report the pool's reuse rate.
//! * **per-worker flow cache** — a direct-mapped `(src, dst)` → next-hop
//!   cache in front of the trie, invalidated wholesale by the table's
//!   generation counter. Real traffic is flow-skewed; the cache turns
//!   the common case from a trie walk (at most 8 dependent loads since
//!   the stride-4 trie) into one array probe, and the lookup rows measure
//!   which of the two is cheaper.
//!
//! The A/B: the same skewed stream through the same router with the cache
//! on vs off (`cache_slots = 0`), plus the adversarial unique-flow stream
//! (every packet its own flow) where the cache can only miss — the table
//! shows the win on realistic traffic *and* bounds the regression on the
//! pathological case.

use super::{fmt_rate, Scale, Table};
use std::time::Instant;
use sysnet::bench::{address_stream, build_tables, frame_stream, SweepConfig, PORTS, SEED};
use sysnet::router::{run_trial, PoolStats, RouterConfig};
use sysnet::FlowCache;
use sysobs::paired;

/// One measured configuration.
struct Point {
    pps: f64,
    hit_rate: f64,
    pool: PoolStats,
}

fn stream_config(scale: Scale, flows: usize) -> SweepConfig {
    let mut cfg = match scale {
        Scale::Quick => SweepConfig::quick(),
        Scale::Full => SweepConfig::full(),
    };
    cfg.flows = flows;
    cfg
}

/// Routes `frames` once through a 2-worker router with the given cache
/// sizing; the trial driver asserts conservation for every run.
fn measure(frames: &[Vec<u8>], routes: usize, cache_slots: usize) -> Point {
    let (trie, _) = build_tables(routes);
    let config = RouterConfig {
        workers: 2,
        batch_size: 64,
        cache_slots,
        ..RouterConfig::default()
    };
    let (report, t, ()) = run_trial(trie, PORTS, config, frames.len(), None, |feed| {
        feed.submit_all(frames);
    });
    Point {
        pps: t.pps,
        hit_rate: report.cache_hit_rate(),
        pool: report.pool,
    }
}

/// Times route resolution alone — the path the cache shortcuts — over a
/// skewed flow sequence: the bare trie walk (arm 0) vs the cache probe with
/// trie fallback (arm 1, a fresh cache each round) as [`paired`] arms.
/// Returns (trie ns/lookup, cached ns/lookup, hit rate).
#[allow(clippy::cast_precision_loss)]
fn lookup_comparison(
    routes: usize,
    flows: usize,
    lookups: usize,
    seed: u64,
    rounds: usize,
) -> (f64, f64, f64) {
    let (trie, _) = build_tables(routes);
    let dsts = address_stream(flows, routes, seed);
    // The same skew the frame stream uses: 7 of 8 packets from the hottest
    // eighth of flows. A fixed stride stands in for the RNG so the timed
    // loops stay allocation- and branch-predictable-free of rand overhead.
    let hot = (flows / 8).max(1);
    let keys: Vec<(u32, u32)> = (0..lookups)
        .map(|i| {
            let f = if i % 8 != 0 {
                (i * 31) % hot
            } else {
                (i * 131) % flows
            };
            #[allow(clippy::cast_possible_truncation)]
            let src = (f as u32).wrapping_mul(0x9E37_79B9);
            (src, dsts[f])
        })
        .collect();
    let arms = paired(
        rounds,
        2,
        |&(ns, _): &(f64, f64)| ns,
        |arm| {
            let mut cache = FlowCache::new(4096);
            let t0 = Instant::now();
            let mut acc = 0u64;
            if arm == 0 {
                for &(_, dst) in &keys {
                    if let Some(hop) = trie.lookup(dst) {
                        acc = acc.wrapping_add(u64::from(hop));
                    }
                }
            } else {
                for &(src, dst) in &keys {
                    if let Some(hop) = cache.lookup_or_route(&trie, src, dst) {
                        acc = acc.wrapping_add(u64::from(hop));
                    }
                }
            }
            std::hint::black_box(acc);
            let ns = t0.elapsed().as_nanos() as f64 / keys.len() as f64;
            (ns, cache.hit_rate())
        },
    );
    (arms[0].0, arms[1].0, arms[1].1)
}

/// Runs E12 at the given scale.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let mut t = Table::new(
        "E12 — flow cache and frame pooling: the zero-alloc steady state",
        &[
            "stream",
            "cache",
            "hit rate",
            "rate",
            "ns/lookup",
            "frame reuse",
        ],
    );

    let (flows, lookups) = match scale {
        Scale::Quick => (1024, 200_000),
        Scale::Full => (4096, 2_000_000),
    };
    let skewed = stream_config(scale, flows);
    let unique = stream_config(scale, 0);

    let (trie_ns, cached_ns, probe_hits) =
        lookup_comparison(skewed.routes, flows, lookups, SEED, scale.rounds());
    for (name, ns, hits) in [
        ("lookup: trie walk", trie_ns, None),
        ("lookup: flow cache", cached_ns, Some(probe_hits)),
    ] {
        t.row(vec![
            name.into(),
            if hits.is_some() {
                "on (4096)".into()
            } else {
                "off".into()
            },
            hits.map_or_else(|| "—".into(), |h| format!("{:.1} %", h * 100.0)),
            fmt_rate(1e9 / ns.max(1e-9)),
            format!("{ns:.1} ns"),
            "—".into(),
        ]);
    }

    // Four paired arms: stream (skewed, unique) × cache (on, off).
    let streams = [("skewed flows", &skewed), ("unique flows", &unique)];
    let caches = [("on (4096)", 4096usize), ("off", 0)];
    let frames = streams.map(|(_, cfg)| frame_stream(cfg));
    let points = paired(
        skewed.rounds,
        4,
        |p: &Point| p.pps,
        |i| measure(&frames[i / 2], streams[i / 2].1.routes, caches[i % 2].1),
    );
    let reuse = points[0].pool.frame_reuse_rate();
    for (i, p) in points.iter().enumerate() {
        let ((stream_name, _), (cache_name, slots)) = (streams[i / 2], caches[i % 2]);
        t.row(vec![
            stream_name.into(),
            cache_name.into(),
            if slots > 0 {
                format!("{:.1} %", p.hit_rate * 100.0)
            } else {
                "—".into()
            },
            fmt_rate(p.pps),
            "—".into(),
            format!("{:.1} %", p.pool.frame_reuse_rate() * 100.0),
        ]);
    }

    let (cheaper, dearer, factor) = if cached_ns < trie_ns {
        ("cache probe", "trie walk", trie_ns / cached_ns.max(1e-9))
    } else {
        (
            "bare trie walk",
            "cache probe",
            cached_ns / trie_ns.max(1e-9),
        )
    };
    t.note(format!(
        "on the lookup path the {cheaper} is {factor:.1}x cheaper than the \
         {dearer} (median of {} paired rounds); end-to-end the dispatcher \
         (memcpy + hash + channel), not route lookup, bounds throughput, so \
         the probe's job there is to cost nothing, including on the \
         adversarial unique-flow stream where it can only miss",
        scale.rounds()
    ));
    t.note(format!(
        "frame reuse {:.1} % at steady state: the pool is C2's idiomatic \
         manual storage management — batches allocated at start cycle \
         dispatcher → worker → return channel, zero allocations per packet \
         (asserted <0.05 allocs/pkt by router_bench's counting allocator)",
        reuse * 100.0
    ));
    t.note(
        "the pool + adaptive dispatch (not the cache) are what moved the \
         end-to-end number: BENCH_router.json w1/b64 went 7.95M → 12.01M pps \
         against PR 3, and the 4-worker backwards scaling is gone",
    );
    t.note(
        "caches are per-worker (no shared state, C4 by construction) and \
         invalidated wholesale by the route table's generation counter — \
         correctness is the differential suite in crates/net/tests/\
         cache_properties.rs, not this table",
    );
    t
}
