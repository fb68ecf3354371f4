//! The `net.ct.live` and `net.ct.half_open` gauges under sharding.
//!
//! Every worker owns one conntrack shard, but the registry holds one gauge
//! per name for the whole router. If each worker *set* its own shard's
//! count, a gauge would show whichever shard wrote last; each shard must
//! instead contribute its share, so the gauge holds the sum over shards.
//! This runs alone in its own binary: the registry and the observability
//! mode are process-global.

use std::time::{Duration, Instant};
use sysnet::conntrack::{Conntrack, ConntrackConfig, FlowKey, TcpSummary};
use sysnet::lpm::TrieTable;
use sysnet::router::{PortId, RouterConfig, ShardedRouter};
use sysrepr::packet::{EthernetView, PacketBuilder, IPPROTO_TCP, TCP_ACK, TCP_SYN};

const HALF_OPEN: u8 = 30;
const ESTABLISHED: u8 = 30;

fn gauge(name: &'static str) -> i64 {
    sysobs::registry().gauge(name).get()
}

fn segment(client: u8, flags: u8) -> Vec<u8> {
    PacketBuilder::tcp()
        .src_ip([172, 16, client / 16, client])
        .dst_ip([10, 0, 0, 1])
        .src_port(40_000 + u16::from(client))
        .dst_port(443)
        .tcp_flags(flags)
        .build()
}

/// Every SYN first, then the handshake ACKs of the flows that complete.
fn stream() -> Vec<Vec<u8>> {
    let flows = HALF_OPEN + ESTABLISHED;
    let syns = (0..flows).map(|c| segment(c, TCP_SYN));
    let acks = (HALF_OPEN..flows).map(|c| segment(c, TCP_ACK));
    syns.chain(acks).collect()
}

#[test]
fn sharded_gauges_hold_the_sum_over_shards() {
    sysobs::set_mode(sysobs::Mode::Counters);
    // Timeouts and the sweep interval far beyond the run: no entry ages
    // out, so the final per-shard counts are exactly what the stream built.
    let hour = 3_600_000_000_000;
    let ct = ConntrackConfig {
        syn_timeout_ns: hour,
        established_timeout_ns: hour,
        fin_timeout_ns: hour,
        sweep_interval_ns: hour,
        ..ConntrackConfig::default()
    };
    // The expected totals: one unsharded tracker over the same stream.
    let mut whole = Conntrack::new(ct);
    for frame in stream() {
        let ip = EthernetView::parse(&frame).unwrap().ipv4().unwrap();
        let tcp = ip.tcp().unwrap();
        let key = FlowKey::canonical(
            u32::from_be_bytes(ip.src()),
            ip.dst_u32(),
            tcp.src_port(),
            tcp.dst_port(),
            IPPROTO_TCP,
        );
        whole
            .admit_tcp(&key, TcpSummary::from_view(&tcp), 0)
            .unwrap();
    }
    assert_eq!(
        (whole.len(), whole.half_open_len()),
        (usize::from(HALF_OPEN + ESTABLISHED), usize::from(HALF_OPEN))
    );

    let mut table = TrieTable::<PortId>::new();
    table
        .insert(u32::from_be_bytes([10, 0, 0, 0]), 8, 1)
        .unwrap();
    let mut router = ShardedRouter::start(
        table,
        2,
        RouterConfig {
            workers: 3,
            conntrack: Some(ct),
            ..RouterConfig::default()
        },
    );
    let frames = stream();
    for frame in &frames {
        router.submit(frame);
    }
    router.flush();
    // Each batch's mirror runs before the worker counts the batch, so once
    // every frame is counted the gauges are final; wait, bounded, for the
    // relaxed stores to show.
    let deadline = Instant::now() + Duration::from_secs(20);
    let expect = (whole.len() as i64, whole.half_open_len() as i64);
    let mut seen;
    loop {
        let counted = router.snapshot().totals.total_frames() == frames.len() as u64;
        seen = (gauge("net.ct.live"), gauge("net.ct.half_open"));
        if (counted && seen == expect) || Instant::now() > deadline {
            break;
        }
        std::thread::yield_now();
    }
    let busy = router
        .snapshot()
        .per_worker
        .iter()
        .filter(|w| w.forwarded > 0)
        .count();
    assert!(busy >= 2, "flows must spread over several shards");
    assert_eq!(seen, expect, "gauges (live, half-open) must sum the shards");

    let report = router.finish();
    let ct = report.conntrack.unwrap();
    assert_eq!(ct.removed_total(), 0, "no sweep ran");
    assert_eq!(report.stats.totals.forwarded, frames.len() as u64);
    // The same totals from the merged per-shard counters.
    assert_eq!(ct.flows_created as i64, expect.0);
    assert_eq!((ct.flows_created - ct.flows_promoted) as i64, expect.1);
    // Retired shards take their share back out.
    assert_eq!((gauge("net.ct.live"), gauge("net.ct.half_open")), (0, 0));
}
