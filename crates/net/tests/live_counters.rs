//! The live registry and the typed router report count the same frames.
//!
//! The registry's `net.*` counters are the one named-metric surface
//! (triggers and postmortems read them mid-run); the `RouterReport` carries
//! the same totals as plain counts. Both are fed at the same point of every
//! batch, so over one run the registry deltas must equal the report's
//! totals, reason by reason. This runs alone in its own binary: the
//! registry and the observability mode are process-global.

use sysnet::conntrack::ConntrackConfig;
use sysnet::lpm::TrieTable;
use sysnet::pipeline::{DropReason, DROP_METRICS};
use sysnet::router::{PortId, RouterConfig, ShardedRouter};
use sysrepr::packet::{PacketBuilder, TCP_ACK, TCP_SYN};

const COUNTERS: [&str; 5] = [
    "net.forwarded",
    "net.parsed",
    "net.batches",
    "net.cache.hits",
    "net.cache.misses",
];

fn registry_counts() -> Vec<u64> {
    let r = sysobs::registry();
    COUNTERS
        .iter()
        .chain(DROP_METRICS.iter())
        .map(|name| r.counter(name).get())
        .collect()
}

fn tcp(client: u8, flags: u8) -> Vec<u8> {
    PacketBuilder::tcp()
        .src_ip([172, 16, 0, client])
        .dst_ip([10, 0, 0, 1])
        .src_port(40_000 + u16::from(client))
        .dst_port(443)
        .tcp_flags(flags)
        .build()
}

fn udp(client: u8, dst: [u8; 4]) -> PacketBuilder {
    PacketBuilder::udp()
        .src_ip([172, 16, 1, client])
        .dst_ip(dst)
}

/// Forwarded UDP and TCP SYNs over repeated flows (so the cache both hits
/// and misses), mixed with malformed, bad-checksum, no-route and no-flow
/// frames.
fn stream() -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    for i in 0..600u16 {
        let c = (i % 40) as u8;
        frames.push(match i % 8 {
            0 => tcp(c, TCP_SYN),
            1 => tcp(c.wrapping_add(100), TCP_ACK), // no SYN ever seen
            2 => vec![0u8; 3],
            3 => udp(c, [10, 1, 0, c]).corrupt_checksum().build(),
            4 => udp(c, [192, 168, 0, c]).build(), // outside 10/8
            _ => udp(c, [10, 2, 0, c]).build(),
        });
    }
    frames
}

#[test]
fn registry_deltas_equal_the_report_totals() {
    sysobs::set_mode(sysobs::Mode::Counters);
    let before = registry_counts();

    let mut table = TrieTable::<PortId>::new();
    table
        .insert(u32::from_be_bytes([10, 0, 0, 0]), 8, 1)
        .unwrap();
    let mut router = ShardedRouter::start(
        table,
        2,
        RouterConfig {
            workers: 2,
            conntrack: Some(ConntrackConfig::default()),
            ..RouterConfig::default()
        },
    );
    let frames = stream();
    for frame in &frames {
        router.submit(frame);
    }
    // Workers mirror each batch into the registry before they count it, and
    // finish joins them, so both surfaces are final here.
    let report = router.finish();
    let after = registry_counts();
    sysobs::set_mode(sysobs::Mode::Disabled);

    let t = &report.stats.totals;
    assert_eq!(t.total_frames(), frames.len() as u64, "conservation");
    assert!(
        report.stats.per_worker.iter().all(|w| w.batches > 0),
        "both workers must see traffic"
    );
    for reason in [
        DropReason::Malformed,
        DropReason::BadChecksum,
        DropReason::NoRoute,
        DropReason::NoFlow,
    ] {
        assert!(t.dropped[reason as usize] > 0, "{reason:?} never dropped");
    }
    assert!(t.cache_hits > 0 && t.cache_misses > 0, "{t:?}");

    let expected: Vec<u64> = [
        t.forwarded,
        t.parsed,
        t.batches,
        t.cache_hits,
        t.cache_misses,
    ]
    .into_iter()
    .chain(t.dropped)
    .collect();
    let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    for ((name, d), e) in COUNTERS
        .iter()
        .chain(DROP_METRICS.iter())
        .zip(&delta)
        .zip(&expected)
    {
        assert_eq!(d, e, "registry {name} disagrees with the report");
    }
}
