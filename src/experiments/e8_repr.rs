//! E8 — Control over data representation (Challenge 3).
//!
//! Parse the same packet stream three ways: zero-copy bit-precise views
//! (what C programmers write, made safe), the LangSec combinator recognizer,
//! and the allocating "boxed" parser (what a uniformly-managed runtime
//! produces). Same accept/reject behaviour — the property tests prove the
//! three recognize the same language — different costs.

use super::{fmt_rate, Scale, Table};
use std::time::Instant;
use sysobs::paired;
use sysrepr::boxed::BoxedPacket;
use sysrepr::langsec::{ipv4_header, Input};
use sysrepr::packet::{EthernetView, PacketBuilder};

fn packet_count(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 5_000,
        Scale::Full => 200_000,
    }
}

/// Builds a deterministic synthetic packet stream (mixed sizes, a few
/// corrupt packets to keep the parsers honest).
#[must_use]
pub fn make_stream(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let payload = vec![u8::try_from(i % 251).expect("fits"); (i * 7) % 512];
            let mut b = PacketBuilder::udp()
                .src_ip([10, 0, (i >> 8) as u8, i as u8])
                .dst_ip([10, 1, 2, 3])
                .src_port(u16::try_from(1024 + (i % 60_000)).expect("fits"))
                .dst_port(53)
                .payload(&payload);
            if i % 97 == 0 {
                b = b.corrupt_checksum();
            }
            b.build()
        })
        .collect()
}

/// Runs E8 and renders the table.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let stream = make_stream(packet_count(scale));
    let total_bytes: usize = stream.iter().map(Vec::len).sum();
    let mut t = Table::new(
        "E8 — packet parsing: zero-copy views vs combinators vs boxed parser",
        &[
            "parser",
            "packets/s",
            "MB/s",
            "checksum payload",
            "allocations/packet",
        ],
    );

    // Arms: zero-copy views, the LangSec combinators (header only — they
    // recognize IPv4), the boxed parser. Each returns (ns, checksum, heap
    // cells allocated).
    let arms = paired(
        scale.rounds(),
        3,
        |&(ns, _, _): &(f64, u64, usize)| ns,
        |arm| {
            let t0 = Instant::now();
            let mut check = 0u64;
            let mut allocs = 0usize;
            match arm {
                0 => {
                    for bytes in &stream {
                        let ip = EthernetView::parse(bytes).unwrap().ipv4().unwrap();
                        let udp = ip.udp().unwrap();
                        check = check.wrapping_add(u64::from(udp.dst_port()));
                        check = check
                            .wrapping_add(udp.payload().iter().map(|&b| u64::from(b)).sum::<u64>());
                    }
                }
                1 => {
                    for bytes in &stream {
                        let (hdr, _) = ipv4_header(Input::new(&bytes[14..])).unwrap();
                        check = check.wrapping_add(u64::from(hdr.ttl));
                    }
                }
                _ => {
                    for bytes in &stream {
                        let p = BoxedPacket::parse(bytes).unwrap();
                        check = check.wrapping_add(u64::from(p.dst_port().unwrap_or(0)));
                        check = check
                            .wrapping_add(p.payload().iter().map(|&b| u64::from(b)).sum::<u64>());
                        allocs += p.allocation_count();
                    }
                }
            }
            (t0.elapsed().as_nanos() as f64, check, allocs)
        },
    );
    let labels = [
        "zero-copy views",
        "langsec combinators (hdr)",
        "boxed (allocating)",
    ];
    for (label, (ns, check, allocs)) in labels.into_iter().zip(arms) {
        #[allow(clippy::cast_precision_loss)]
        t.row(vec![
            label.into(),
            fmt_rate(stream.len() as f64 / (ns / 1e9)),
            format!("{:.0}", total_bytes as f64 / (ns / 1e9) / 1e6),
            check.to_string(),
            format!("{:.0}", allocs as f64 / stream.len() as f64),
        ]);
    }
    if let (Some(a), Some(b)) = (t.rows.first(), t.rows.get(2)) {
        if a[3] != b[3] {
            t.note("WARNING: checksum mismatch between zero-copy and boxed parsers");
        }
    }
    t.note("paper claim: representation control is not a luxury — the zero-copy path allocates nothing and wins by an integer factor; boxing pays a dozen heap cells per packet.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_zero_copy_and_boxed_agree_on_payload_checksums() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0][3], t.rows[2][3], "parsers disagree");
        assert_eq!(t.rows[0][4], "0");
        assert_ne!(t.rows[2][4], "0");
    }

    #[test]
    fn stream_contains_corrupt_packets_that_fail_checksum() {
        let stream = make_stream(200);
        let bad = stream
            .iter()
            .filter(|b| {
                EthernetView::parse(b)
                    .and_then(|e| e.ipv4())
                    .and_then(|ip| ip.verify_checksum())
                    .is_err()
            })
            .count();
        assert!(
            bad > 0,
            "failure injection must produce some corrupt packets"
        );
    }
}
