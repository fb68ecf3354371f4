//! Packet router: zero-copy parsing + trie LPM + sharded workers, on the
//! `sysnet` data plane.
//!
//! ```sh
//! cargo run --release --example packet_router
//! ```
//!
//! The scenario from the paper's Challenge 3: network code needs exact,
//! zero-copy control over wire representation. This example used to carry
//! its own linear-scan route table; that table (bugs and all — an unmasked
//! prefix like `10.1.2.9/24` silently never matched) grew up into
//! `sysnet::lpm`, and the parse → validate → route loop into
//! `sysnet::router`. What remains here is the demo: build a table, push a
//! synthetic stream through the sharded router, and print where everything
//! went and why.

use sysnet::lpm::TrieTable;
use sysnet::pipeline::DROP_LABELS;
use sysnet::router::{run_stream, RouterConfig};
use sysrepr::packet::PacketBuilder;

const PORT_NAMES: [&str; 4] = ["core-a", "edge-b", "rack-c", "default-gw"];

fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
    u32::from_be_bytes([a, b, c, d])
}

fn main() {
    let mut table = TrieTable::new();
    table.insert(ip(10, 0, 0, 0), 8, 0u16).unwrap();
    table.insert(ip(10, 1, 0, 0), 16, 1u16).unwrap();
    // Deliberately unmasked: canonicalized to 10.1.2.0/24 on insert. The
    // old linear scan stored this verbatim and it never matched anything.
    table.insert(ip(10, 1, 2, 9), 24, 2u16).unwrap();
    table.insert(0, 0, 3u16).unwrap();

    // Synthesize a mixed stream: four destinations + some corrupted frames.
    let mut stream = Vec::new();
    for i in 0..30_000usize {
        let dst = match i % 4 {
            0 => [10, 0, 9, 9],
            1 => [10, 1, 9, 9],
            2 => [10, 1, 2, 9], // hits the canonicalized /24
            _ => [192, 168, 0, 1],
        };
        let mut b = PacketBuilder::udp()
            .src_ip([172, 16, 0, 1])
            .dst_ip(dst)
            .dst_port(4789)
            .payload(&[0xAA; 64]);
        if i % 500 == 0 {
            b = b.corrupt_checksum();
        }
        stream.push(b.build());
    }
    let total = stream.len();

    let config = RouterConfig {
        workers: 2,
        batch_size: 64,
        queue_depth: 8,
        ..RouterConfig::default()
    };
    let (report, elapsed) = run_stream(table, PORT_NAMES.len(), config, &stream);

    let totals = &report.stats.totals;
    println!(
        "routed {total} packets in {elapsed:?} across {} workers \
         (zero-copy views, trie LPM, bounded channels)",
        report.stats.per_worker.len()
    );
    for (port, n) in totals.per_port.iter().enumerate() {
        println!("  {:<12} {n}", PORT_NAMES[port]);
    }
    for (reason, n) in totals.dropped.iter().enumerate() {
        if *n > 0 {
            println!("  drop/{:<12} {n}", DROP_LABELS[reason]);
        }
    }

    let forwarded = totals.forwarded;
    let dropped = totals.dropped_total();
    assert_eq!(
        forwarded + dropped,
        total as u64,
        "every packet accounted for"
    );
    assert!(dropped >= 60, "failure injection must be caught");
    assert!(
        totals.per_port[2] > 0,
        "the unmasked /24 must forward after canonicalization"
    );
}
