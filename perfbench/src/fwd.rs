//! `fwd-min`: stateless forwarding of minimum-size UDP frames over a FIB of
//! thousands of overlapping prefixes, with Zipf-distributed flows whose hot
//! set fits the flow cache and a small share of bad-checksum and TTL=1
//! frames.

use crate::dp::{Batch, Expect, Rewrite, Stream, BATCH};
use crate::gen::{Forge, Hdr, Rng, Zipf};
use std::collections::{HashMap, HashSet};
use sysnet::lpm::mask;
use sysnet::router::PortId;
use sysnet::DropReason;

/// Prefixes in the FIB, the default route included.
pub const PREFIXES: usize = 4096;
/// Distinct flows the stream draws from.
pub const FLOWS: usize = 16_384;
/// Zipf exponent of flow popularity.
pub const ZIPF_S: f64 = 1.1;
/// UDP payload of a minimum-size (60-byte) Ethernet frame.
pub const PAYLOAD: usize = 18;
/// Next-hop ports the FIB spreads over.
pub const PORTS: u64 = 16;

/// A seeded FIB: the default route, 32 `/8` roots (11/8 to 42/8), and
/// nested more-specific prefixes of lengths 12 to 28 under them.
#[must_use]
pub fn fib(seed: u64) -> Vec<(u32, u8, PortId)> {
    let mut rng = Rng::new(seed, 0xF1B);
    let mut seen = HashSet::new();
    let mut routes = vec![(0, 0, 0)];
    for r in 0..32u32 {
        routes.push(((11 + r) << 24, 8, rng.below(PORTS) as PortId));
        seen.insert(((11 + r) << 24, 8u8));
    }
    while routes.len() < PREFIXES {
        let root = 11 + rng.below(32) as u32;
        let len = match rng.below(100) {
            0..=9 => 12,
            10..=34 => 16,
            35..=59 => 20,
            60..=94 => 24,
            _ => 28,
        };
        let prefix = ((root << 24) | (rng.next_u64() as u32 & 0x00FF_FFFF)) & mask(len);
        if seen.insert((prefix, len)) {
            routes.push((prefix, len, rng.below(PORTS) as PortId));
        }
    }
    routes
}

#[derive(Debug, Clone, Copy)]
struct Flow {
    src: u32,
    dst: u32,
    sport: u16,
    port: PortId,
}

/// The `fwd-min` frame stream.
#[derive(Debug)]
pub struct FwdStream {
    forge: Forge,
    zipf: Zipf,
    flows: Vec<Flow>,
    rng: Rng,
    digest: u64,
}

impl FwdStream {
    /// Flows over `routes` (destinations drawn under random prefixes, the
    /// expected port from an independent reference longest-prefix match).
    #[must_use]
    pub fn new(seed: u64, routes: &[(u32, u8, PortId)]) -> Self {
        let by_prefix: HashMap<(u32, u8), PortId> =
            routes.iter().map(|&(p, l, h)| ((p, l), h)).collect();
        let reference = |addr: u32| {
            (0..=32u8)
                .rev()
                .find_map(|l| by_prefix.get(&(addr & mask(l), l)).copied())
                .expect("the default route covers every address")
        };
        let mut rng = Rng::new(seed, 0xF10);
        let flows = (0..FLOWS)
            .map(|_| {
                let (p, l, _) = routes[1 + rng.below(routes.len() as u64 - 1) as usize];
                let dst = p | (rng.next_u64() as u32 & !mask(l));
                Flow {
                    src: 0xAC10_0000 | (rng.next_u64() as u32 & 0x000F_FFFF),
                    dst,
                    sport: 1024 + rng.below(60_000) as u16,
                    port: reference(dst),
                }
            })
            .collect();
        FwdStream {
            forge: Forge::new(),
            zipf: Zipf::new(FLOWS, ZIPF_S),
            flows,
            rng: Rng::new(seed, 0xF11),
            digest: 0xCBF2_9CE4_8422_2325,
        }
    }
}

impl Stream for FwdStream {
    fn fill(&mut self, b: &mut Batch, _batch_no: u64) {
        for i in 0..BATCH {
            let f = self.flows[self.zipf.sample(&mut self.rng)];
            let (ttl, bad, exp) = match self.rng.below(100) {
                0 => (64, true, Expect::Drop(DropReason::BadChecksum)),
                1 => (1, false, Expect::Drop(DropReason::TtlExpired)),
                _ => (64, false, Expect::Forward(f.port)),
            };
            let h = Hdr {
                src: f.src,
                dst: f.dst,
                sport: f.sport,
                dport: 53,
                ttl,
                flags: 0,
                seq: 0,
                ack: 0,
                payload: PAYLOAD,
                bad_ip_checksum: bad,
            };
            self.forge.udp(&mut b.frames[i], &h);
            b.exp[i] = exp;
            b.ttl[i] = ttl;
            b.rewrite[i] = if matches!(exp, Expect::Forward(_)) {
                Rewrite::Ttl
            } else {
                Rewrite::None
            };
            let x = u64::from(f.dst) << 32 | u64::from(f.src);
            self.digest = (self.digest ^ x ^ u64::from(ttl) << 1 ^ u64::from(bad))
                .wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn digest(&self) -> u64 {
        self.digest
    }
}
