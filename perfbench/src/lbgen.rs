//! `lb-nat` and `syn-flood`: full TCP connections through a virtual IP,
//! forged from both ends.
//!
//! The stream models clients and backends together. A client's SYN goes to
//! the VIP; the program picks a backend and rewrites the frame; the stream
//! reads the rewritten destination back (as the backend would receive it)
//! and from then on forges the backend's replies from that address. So the
//! stream never predicts the program's backend choice — it checks that the
//! choice is a live backend and that every later rewrite agrees with it.

use crate::dp::{dst_of, src_of, Batch, Expect, Rewrite, Stream, BATCH, PROBE_NS, SWEEP_NS};
use crate::gen::{Forge, Hdr, Rng, MAX_PAYLOAD};
use sysnet::router::PortId;
use sysnet::{BackendConfig, BackendPool, BackendState, ConntrackConfig, DropReason, LbConfig};
use sysrepr::packet::{TCP_ACK, TCP_FIN, TCP_SYN};

/// The virtual IP (10.200.0.1).
pub const VIP: u32 = 0x0AC8_0001;
/// The virtual port.
pub const VPORT: u16 = 80;
/// Port of the default route (attack traffic to non-VIP hosts).
pub const P_DEFAULT: PortId = 0;
/// Port of the backend prefix 10.50/16.
pub const P_BACKEND: PortId = 1;
/// Port of the client prefix 10.9/16.
pub const P_CLIENT: PortId = 2;
/// Port of the VIP host route.
pub const P_VIP: PortId = 3;

/// The balancer's routes: backends, clients, the VIP host, default.
#[must_use]
pub fn routes() -> Vec<(u32, u8, PortId)> {
    vec![
        (0, 0, P_DEFAULT),
        (0x0A32_0000, 16, P_BACKEND),
        (0x0A09_0000, 16, P_CLIENT),
        (VIP, 32, P_VIP),
    ]
}

/// Eight backends 10.50.0.10–17:8080 with mixed weights.
#[must_use]
pub fn lb_config() -> LbConfig {
    let weights = [1, 1, 2, 2, 1, 3, 1, 2];
    LbConfig {
        vip: VIP,
        vport: VPORT,
        backends: weights
            .iter()
            .enumerate()
            .map(|(i, &weight)| BackendConfig {
                ip: 0x0A32_000A + i as u32,
                port: 8080,
                weight,
            })
            .collect(),
        probe_interval_ns: PROBE_NS,
        ..LbConfig::default()
    }
}

/// Conntrack sizing for `lb-nat`: 8 192 live connections hold 16 384
/// twin entries (about 1.2 MiB of slab in use), four times the flow-cache
/// slots in cache keys but within the per-core cache's reach, so host
/// memory contention does not dominate the measurement.
#[must_use]
pub fn lb_nat_ct() -> ConntrackConfig {
    ConntrackConfig {
        max_flows: 32_768,
        syn_backlog: 4_096,
        sweep_interval_ns: SWEEP_NS,
        ..ConntrackConfig::default()
    }
}

/// Conntrack sizing for `syn-flood`: the benign twins fill half the slab
/// and the flood keeps the other half full of half-open entries (about
/// 1.2 MiB in all: a flood over a slab far past the per-core cache mostly
/// measures the host's memory contention).
#[must_use]
pub fn syn_flood_ct() -> ConntrackConfig {
    ConntrackConfig {
        max_flows: 16_384,
        syn_backlog: 4_096,
        syn_timeout_ns: 2 * PROBE_NS,
        sweep_interval_ns: SWEEP_NS,
        ..ConntrackConfig::default()
    }
}

/// Shape of one balanced stream.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Concurrent benign connections.
    pub live: usize,
    /// Connections close with FIN and are replaced (else they live on).
    pub churn: bool,
    /// Share of frames that are spoofed SYNs once every benign connection
    /// is established.
    pub attack: f64,
}

/// `lb-nat`: 8 192 concurrent connections of 2–30 data segments each.
pub const LB_NAT: Shape = Shape {
    live: 8_192,
    churn: true,
    attack: 0.0,
};

/// `syn-flood`: 4 096 established connections under a 90 % spoofed flood
/// (SYNs, and a tenth bare ACKs).
pub const SYN_FLOOD: Shape = Shape {
    live: 4_096,
    churn: false,
    attack: 0.9,
};

const SYN: u8 = 0;
const SYNACK: u8 = 1;
const ACK: u8 = 2;
const DATA: u8 = 3;
const FIN_C: u8 = 4;
const FIN_B: u8 = 5;
const LAST_ACK: u8 = 6;

#[derive(Debug, Clone, Copy)]
struct Conn {
    id: u32,
    backend: Option<(u32, u16)>,
    stage: u8,
    data_left: u16,
    last_batch: u64,
}

/// What the stream needs to check one frame after the program ran.
#[derive(Debug, Clone, Copy)]
enum Meta {
    /// A client's SYN: learn the backend of connection `conn`.
    Syn { conn: usize, id: u32 },
    /// Client to VIP: must arrive at this backend.
    ToBackend((u32, u16)),
    /// Backend to client: must leave from the VIP.
    ToClient,
    /// A spoofed SYN to the VIP: if forwarded, at a live backend.
    AttackVip,
    /// Nothing to check beyond the frame's fate.
    Unchecked,
}

/// A client's address and port under 10.9/16.
fn client(id: u32) -> (u32, u16) {
    (
        0x0A09_0000 | (id & 0xFFFF),
        1024 + ((id >> 16) & 0x3FFF) as u16,
    )
}

/// The balanced frame stream.
#[derive(Debug)]
pub struct LbStream {
    shape: Shape,
    forge: Forge,
    rng: Rng,
    conns: Vec<Conn>,
    next_id: u32,
    established: usize,
    attacks: u64,
    meta: [Meta; BATCH],
    backends: Vec<(u32, u16)>,
    digest: u64,
}

impl LbStream {
    /// A stream of `shape` seeded by `seed`.
    #[must_use]
    pub fn new(seed: u64, shape: Shape) -> Self {
        let conns = (0..shape.live as u32)
            .map(|id| Conn {
                id,
                backend: None,
                stage: SYN,
                data_left: 0,
                last_batch: u64::MAX,
            })
            .collect();
        LbStream {
            shape,
            forge: Forge::new(),
            rng: Rng::new(seed, 0x1B),
            conns,
            next_id: shape.live as u32,
            established: 0,
            attacks: 0,
            meta: [Meta::ToClient; BATCH],
            backends: lb_config()
                .backends
                .iter()
                .map(|b| (b.ip, b.port))
                .collect(),
            digest: 0xCBF2_9CE4_8422_2325,
        }
    }

    fn payload(&mut self) -> usize {
        let r = self.rng.below(10);
        match r {
            0..=3 => self.rng.below(65) as usize,
            4..=6 => 64 + self.rng.below(449) as usize,
            _ => 512 + self.rng.below((MAX_PAYLOAD - 511) as u64) as usize,
        }
    }

    /// A connection not yet used in this batch.
    fn pick(&mut self, batch_no: u64) -> usize {
        let n = self.conns.len();
        let mut i = self.rng.below(n as u64) as usize;
        while self.conns[i].last_batch == batch_no {
            i = (i + 1) % n;
        }
        self.conns[i].last_batch = batch_no;
        i
    }

    fn respawn(&mut self, c: usize) {
        self.conns[c].id = self.next_id;
        self.conns[c].backend = None;
        self.conns[c].stage = SYN;
        self.next_id = self.next_id.wrapping_add(1) & 0x3FFF_FFFF;
    }

    /// Forges the next segment of connection `c` into frame `i`.
    fn segment(&mut self, b: &mut Batch, i: usize, c: usize) {
        if self.conns[c].stage != SYN && self.conns[c].backend.is_none() {
            // The SYN was lost (a failure already counted): start over.
            self.respawn(c);
        }
        let conn = self.conns[c];
        let (cip, cport) = client(conn.id);
        let seq = conn.id.wrapping_mul(2_654_435_761);
        let (bip, bport) = conn.backend.unwrap_or(self.backends[0]);
        let to_backend = match conn.stage {
            SYN | ACK | FIN_C | LAST_ACK => true,
            SYNACK | FIN_B => false,
            _ => self.rng.below(2) == 0,
        };
        let flags = match conn.stage {
            SYN => TCP_SYN,
            SYNACK => TCP_SYN | TCP_ACK,
            FIN_C | FIN_B => TCP_FIN | TCP_ACK,
            _ => TCP_ACK,
        };
        let payload = if conn.stage == DATA {
            self.payload()
        } else {
            0
        };
        let h = if to_backend {
            Hdr {
                src: cip,
                dst: VIP,
                sport: cport,
                dport: VPORT,
                ttl: 64,
                flags,
                seq,
                ack: 0,
                payload,
                bad_ip_checksum: false,
            }
        } else {
            Hdr {
                src: bip,
                dst: cip,
                sport: bport,
                dport: cport,
                ttl: 64,
                flags,
                seq: !seq,
                ack: seq.wrapping_add(1),
                payload,
                bad_ip_checksum: false,
            }
        };
        self.forge.tcp(&mut b.frames[i], &h);
        b.ttl[i] = 64;
        if to_backend {
            b.exp[i] = Expect::Forward(P_BACKEND);
            b.rewrite[i] = Rewrite::Dnat(bip, bport);
            self.meta[i] = if conn.stage == SYN {
                Meta::Syn {
                    conn: c,
                    id: conn.id,
                }
            } else {
                Meta::ToBackend((bip, bport))
            };
        } else {
            b.exp[i] = Expect::Forward(P_CLIENT);
            b.rewrite[i] = Rewrite::Snat(VIP, VPORT);
            self.meta[i] = Meta::ToClient;
        }
        self.mix(u64::from(conn.id) << 8 | u64::from(conn.stage) << 1 | u64::from(to_backend));

        let conn = &mut self.conns[c];
        match conn.stage {
            ACK => {
                self.established += 1;
                conn.data_left = if self.shape.churn {
                    2 + self.rng.below(29) as u16
                } else {
                    u16::MAX
                };
                conn.stage = DATA;
            }
            DATA => {
                if self.shape.churn {
                    conn.data_left -= 1;
                    if conn.data_left == 0 {
                        conn.stage = FIN_C;
                    }
                }
            }
            LAST_ACK => self.respawn(c),
            s => conn.stage = s + 1,
        }
    }

    /// Forges spoofed segment number `j` into frame `i`: 45 % SYNs to the
    /// VIP service, 45 % SYNs to hosts under 99/8, and 10 % bare ACKs to
    /// the VIP service, which no state admits (shed as `NoFlow`).
    fn attack(&mut self, b: &mut Batch, i: usize) {
        let j = self.attacks;
        self.attacks += 1;
        let kind = self.rng.below(20);
        let (dst, flags) = match kind {
            0..=8 => (VIP, TCP_SYN),
            9..=17 => (0x6300_0000 | (j as u32 & 0x00FF_FFFF), TCP_SYN),
            _ => (VIP, TCP_ACK),
        };
        let h = Hdr {
            src: 0xC612_0000 | (j as u32 & 0x1_FFFF),
            dst,
            sport: 1024 + ((j >> 17) & 0x3FFF) as u16,
            dport: VPORT,
            ttl: 64,
            flags,
            seq: j as u32,
            ack: !(j as u32),
            payload: 0,
            bad_ip_checksum: false,
        };
        self.forge.tcp(&mut b.frames[i], &h);
        b.ttl[i] = 64;
        b.rewrite[i] = Rewrite::None;
        (b.exp[i], self.meta[i]) = match kind {
            0..=8 => (Expect::Attack(P_BACKEND), Meta::AttackVip),
            9..=17 => (Expect::Attack(P_DEFAULT), Meta::Unchecked),
            _ => (Expect::Drop(DropReason::NoFlow), Meta::Unchecked),
        };
        self.mix(j << 5 | kind | 1 << 63);
    }

    fn mix(&mut self, x: u64) {
        self.digest = (self.digest ^ x).wrapping_mul(0x0100_0000_01B3);
    }

    fn live_backend(&self, at: (u32, u16), pool: &BackendPool) -> bool {
        self.backends
            .iter()
            .position(|&b| b == at)
            .is_some_and(|i| pool.state(i as u16) == BackendState::Up)
    }
}

impl Stream for LbStream {
    fn fill(&mut self, b: &mut Batch, batch_no: u64) {
        let flood = self.shape.attack > 0.0 && self.established >= self.shape.live;
        for i in 0..BATCH {
            if flood && self.rng.unit() < self.shape.attack {
                self.attack(b, i);
            } else {
                let c = self.pick(batch_no);
                self.segment(b, i, c);
            }
        }
    }

    fn observe(&mut self, b: &Batch, pool: Option<&BackendPool>) -> u64 {
        let pool = pool.expect("the balanced plane has a pool");
        let mut failed = 0;
        for i in 0..BATCH {
            if !b.forwarded(i) {
                continue;
            }
            let f = b.frames[i].as_ref();
            let ok = match self.meta[i] {
                Meta::Syn { conn, id } => {
                    let at = dst_of(f);
                    let live = self.live_backend(at, pool);
                    if live && self.conns[conn].id == id {
                        self.conns[conn].backend = Some(at);
                    }
                    live
                }
                Meta::ToBackend(at) => dst_of(f) == at,
                Meta::ToClient => src_of(f) == (VIP, VPORT),
                Meta::AttackVip => self.live_backend(dst_of(f), pool),
                Meta::Unchecked => true,
            };
            failed += u64::from(!ok);
        }
        failed
    }

    fn digest(&self) -> u64 {
        self.digest
    }
}
