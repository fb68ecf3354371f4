//! Seeded input generation: a small PRNG, a Zipf sampler, and in-place
//! frame forging.
//!
//! Frames live in fixed buffers that are written once with Ethernet
//! addresses and a payload pattern; every emitted frame overwrites only the
//! IPv4 and transport headers. The transport checksum is computed from the
//! header words plus a precomputed prefix sum over the payload pattern, so
//! forging a 1400-byte frame costs the same as forging a 60-byte one and
//! allocates nothing.

use sysrepr::packet::{IPPROTO_TCP, IPPROTO_UDP};

/// splitmix64: tiny, fast, and identical on every platform, so a seed
/// names one input stream forever.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so one run seed
    /// can feed several independent streams.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf-distributed ranks over `0..n` with exponent `s`, sampled by binary
/// search over the cumulative distribution.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank (0 is the most popular).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Byte offset of the IPv4 header.
pub const IP: usize = 14;
/// Byte offset of the transport header (IPv4 without options).
pub const TP: usize = IP + 20;
/// Byte offset of a TCP payload.
pub const TCP_PAYLOAD: usize = TP + 20;
/// Byte offset of a UDP payload.
pub const UDP_PAYLOAD: usize = TP + 8;
/// Largest payload any workload forges.
pub const MAX_PAYLOAD: usize = 1400;
const FRAME_CAP: usize = TCP_PAYLOAD + MAX_PAYLOAD;

/// The payload byte at payload offset `i`.
fn pattern(i: usize) -> u8 {
    (i as u8).wrapping_mul(31).wrapping_add(7)
}

/// One reusable frame buffer: the program sees `buf[..len]`.
pub struct Frame {
    buf: Box<[u8]>,
    len: usize,
}

impl Frame {
    /// A buffer whose payload area (from `payload_off`) holds the pattern.
    #[must_use]
    pub fn new(payload_off: usize) -> Self {
        let mut buf = vec![0u8; FRAME_CAP].into_boxed_slice();
        buf[0..6].copy_from_slice(&[2, 0, 0, 0, 0, 2]);
        buf[6..12].copy_from_slice(&[2, 0, 0, 0, 0, 1]);
        buf[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
        for (i, b) in buf[payload_off..].iter_mut().enumerate() {
            *b = pattern(i);
        }
        Frame { buf, len: 0 }
    }

    /// Copies another frame's visible bytes (headers and payload).
    pub fn copy_from(&mut self, other: &Frame) {
        self.buf[..other.len].copy_from_slice(&other.buf[..other.len]);
        self.len = other.len;
    }
}

impl AsRef<[u8]> for Frame {
    fn as_ref(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl AsMut<[u8]> for Frame {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.buf[..self.len]
    }
}

/// Folds a one's-complement accumulator to 16 bits.
fn fold(mut s: u64) -> u16 {
    while s >> 16 != 0 {
        s = (s & 0xFFFF) + (s >> 16);
    }
    s as u16
}

/// One's-complement sum of the big-endian 16-bit words of `b` (a trailing
/// odd byte is the high half of a last word).
fn word_sum(b: &[u8]) -> u64 {
    let mut s = 0u64;
    let mut it = b.chunks_exact(2);
    for w in &mut it {
        s += u64::from(u16::from_be_bytes([w[0], w[1]]));
    }
    if let [last] = it.remainder() {
        s += u64::from(*last) << 8;
    }
    s
}

/// Everything the forge needs to emit a frame.
#[derive(Debug, Clone, Copy)]
pub struct Hdr {
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// IPv4 TTL.
    pub ttl: u8,
    /// TCP flags (ignored for UDP).
    pub flags: u8,
    /// TCP sequence number.
    pub seq: u32,
    /// TCP acknowledgment number.
    pub ack: u32,
    /// Payload bytes.
    pub payload: usize,
    /// Store a wrong IPv4 header checksum.
    pub bad_ip_checksum: bool,
}

/// Writes frames in place; holds the payload prefix sums.
#[derive(Debug)]
pub struct Forge {
    /// `psum[n]`: word sum of the first `n` payload bytes.
    psum: Vec<u64>,
}

impl Default for Forge {
    fn default() -> Self {
        Self::new()
    }
}

impl Forge {
    /// Precomputes the payload prefix sums.
    #[must_use]
    pub fn new() -> Self {
        let payload: Vec<u8> = (0..MAX_PAYLOAD).map(pattern).collect();
        let psum = (0..=MAX_PAYLOAD).map(|n| word_sum(&payload[..n])).collect();
        Forge { psum }
    }

    fn ipv4(f: &mut Frame, h: &Hdr, proto: u8, seg_len: usize) {
        let b = &mut f.buf;
        let total = (20 + seg_len) as u16;
        b[IP] = 0x45;
        b[IP + 1] = 0;
        b[IP + 2..IP + 4].copy_from_slice(&total.to_be_bytes());
        b[IP + 4..IP + 8].copy_from_slice(&[0, 0, 0x40, 0]);
        b[IP + 8] = h.ttl;
        b[IP + 9] = proto;
        b[IP + 10..IP + 12].copy_from_slice(&[0, 0]);
        b[IP + 12..IP + 16].copy_from_slice(&h.src.to_be_bytes());
        b[IP + 16..IP + 20].copy_from_slice(&h.dst.to_be_bytes());
        let mut ck = !fold(word_sum(&b[IP..TP]));
        if h.bad_ip_checksum {
            ck ^= 0x5A5A;
        }
        b[IP + 10..IP + 12].copy_from_slice(&ck.to_be_bytes());
        f.len = IP + 20 + seg_len;
    }

    fn pseudo(h: &Hdr, proto: u8, seg_len: usize) -> u64 {
        u64::from(h.src >> 16)
            + u64::from(h.src & 0xFFFF)
            + u64::from(h.dst >> 16)
            + u64::from(h.dst & 0xFFFF)
            + u64::from(proto)
            + seg_len as u64
    }

    /// Writes a TCP segment with a valid transport checksum.
    pub fn tcp(&self, f: &mut Frame, h: &Hdr) {
        let seg_len = 20 + h.payload;
        Self::ipv4(f, h, IPPROTO_TCP, seg_len);
        let b = &mut f.buf;
        b[TP..TP + 2].copy_from_slice(&h.sport.to_be_bytes());
        b[TP + 2..TP + 4].copy_from_slice(&h.dport.to_be_bytes());
        b[TP + 4..TP + 8].copy_from_slice(&h.seq.to_be_bytes());
        b[TP + 8..TP + 12].copy_from_slice(&h.ack.to_be_bytes());
        b[TP + 12] = 0x50;
        b[TP + 13] = h.flags;
        b[TP + 14..TP + 20].copy_from_slice(&[0xFF, 0xFF, 0, 0, 0, 0]);
        let sum = Self::pseudo(h, IPPROTO_TCP, seg_len)
            + word_sum(&b[TP..TCP_PAYLOAD])
            + self.psum[h.payload];
        b[TP + 16..TP + 18].copy_from_slice(&(!fold(sum)).to_be_bytes());
    }

    /// Writes a UDP datagram with a computed (never zero) checksum.
    pub fn udp(&self, f: &mut Frame, h: &Hdr) {
        let seg_len = 8 + h.payload;
        Self::ipv4(f, h, IPPROTO_UDP, seg_len);
        let b = &mut f.buf;
        b[TP..TP + 2].copy_from_slice(&h.sport.to_be_bytes());
        b[TP + 2..TP + 4].copy_from_slice(&h.dport.to_be_bytes());
        b[TP + 4..TP + 6].copy_from_slice(&(seg_len as u16).to_be_bytes());
        b[TP + 6..TP + 8].copy_from_slice(&[0, 0]);
        let sum = Self::pseudo(h, IPPROTO_UDP, seg_len)
            + word_sum(&b[TP..UDP_PAYLOAD])
            + self.psum[h.payload];
        let ck = match !fold(sum) {
            0 => 0xFFFF,
            c => c,
        };
        b[TP + 6..TP + 8].copy_from_slice(&ck.to_be_bytes());
    }
}

/// Reads a big-endian `u32` at `off`.
#[must_use]
pub fn be32(b: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]])
}

/// Reads a big-endian `u16` at `off`.
#[must_use]
pub fn be16(b: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([b[off], b[off + 1]])
}

/// True when both the IPv4 header checksum and the full TCP/UDP checksum
/// (pseudo-header plus every segment byte) verify. Recomputed from the
/// bytes, independently of the forge's prefix sums and of the program's
/// incremental fixups.
#[must_use]
pub fn checksums_ok(frame: &[u8]) -> bool {
    if frame.len() < TP + 8 || fold(word_sum(&frame[IP..TP])) != 0xFFFF {
        return false;
    }
    let total = usize::from(be16(frame, IP + 2));
    if IP + total != frame.len() {
        return false;
    }
    let proto = frame[IP + 9];
    let seg = &frame[TP..];
    let pseudo = u64::from(be16(frame, IP + 12))
        + u64::from(be16(frame, IP + 14))
        + u64::from(be16(frame, IP + 16))
        + u64::from(be16(frame, IP + 18))
        + u64::from(proto)
        + seg.len() as u64;
    match proto {
        IPPROTO_TCP | IPPROTO_UDP => fold(pseudo + word_sum(seg)) == 0xFFFF,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysrepr::packet::EthernetView;

    #[test]
    fn forged_frames_parse_and_verify_at_every_size() {
        let forge = Forge::new();
        let mut tcp = Frame::new(TCP_PAYLOAD);
        let mut udp = Frame::new(UDP_PAYLOAD);
        for payload in [0, 1, 17, 18, 64, 511, 1399, MAX_PAYLOAD] {
            let h = Hdr {
                src: 0x0A09_0102,
                dst: 0x0AC8_0001,
                sport: 4242,
                dport: 80,
                ttl: 64,
                flags: 0x12,
                seq: 7,
                ack: 9,
                payload,
                bad_ip_checksum: false,
            };
            forge.tcp(&mut tcp, &h);
            forge.udp(&mut udp, &h);
            for f in [&tcp, &udp] {
                assert!(checksums_ok(f.as_ref()), "payload {payload}");
                let ip = EthernetView::parse(f.as_ref()).unwrap().ipv4().unwrap();
                assert!(ip.verify_checksum().is_ok());
            }
            assert_eq!(tcp.as_ref().len(), TCP_PAYLOAD + payload);
            assert_eq!(udp.as_ref().len(), UDP_PAYLOAD + payload);
        }
        let bad = Hdr {
            src: 1,
            dst: 2,
            sport: 3,
            dport: 4,
            ttl: 64,
            flags: 0,
            seq: 0,
            ack: 0,
            payload: 18,
            bad_ip_checksum: true,
        };
        forge.udp(&mut udp, &bad);
        assert!(!checksums_ok(udp.as_ref()));
    }
}
