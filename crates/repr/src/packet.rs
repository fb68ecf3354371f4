//! Zero-copy packet views: Ethernet II, IPv4, UDP, and TCP.
//!
//! A view validates once at construction and then reads fields straight out
//! of the original buffer — no allocation, no copying, exact representation.
//! This is the style of code the paper says systems programmers cannot give
//! up (Challenge 3); [`crate::boxed`] implements the same protocols in the
//! allocating "managed" style for experiment E8's comparison.
//!
//! Every function a frame passes through is `#[inline]`: consumers in
//! other crates (the `sysnet` pipeline, the benchmark) compile the views
//! into their own loops rather than calling out to this crate and taking
//! each `Result` back through memory, and no crate has to build with LTO
//! for that. The lint below keeps a new public accessor from missing it.
#![warn(clippy::missing_inline_in_public_items)]

use crate::endian::{
    checksum_fixup16, checksum_fixup32, internet_checksum, read_u16_be, read_u32_be,
    transport_checksum_v4, write_u16_be, write_u32_be,
};
use crate::ReprError;

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// IP protocol number for TCP.
pub const IPPROTO_TCP: u8 = 6;
/// IP protocol number for UDP.
pub const IPPROTO_UDP: u8 = 17;

/// TCP FIN flag bit.
pub const TCP_FIN: u8 = 0x01;
/// TCP SYN flag bit.
pub const TCP_SYN: u8 = 0x02;
/// TCP RST flag bit.
pub const TCP_RST: u8 = 0x04;
/// TCP ACK flag bit.
pub const TCP_ACK: u8 = 0x10;

const ETH_HEADER: usize = 14;
const IPV4_MIN_HEADER: usize = 20;
const UDP_HEADER: usize = 8;
const TCP_MIN_HEADER: usize = 20;

/// Zero-copy view of an Ethernet II frame.
#[derive(Debug, Clone, Copy)]
pub struct EthernetView<'a> {
    buf: &'a [u8],
}

impl<'a> EthernetView<'a> {
    /// Validates the fixed header and wraps the buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ReprError::Truncated`] for frames under 14 bytes.
    #[inline]
    pub fn parse(buf: &'a [u8]) -> Result<Self, ReprError> {
        if buf.len() < ETH_HEADER {
            return Err(ReprError::Truncated {
                needed: ETH_HEADER,
                got: buf.len(),
            });
        }
        Ok(EthernetView { buf })
    }

    /// Destination MAC address.
    #[must_use]
    #[inline]
    pub fn dst_mac(&self) -> [u8; 6] {
        self.buf[0..6].try_into().expect("validated length")
    }

    /// Source MAC address.
    #[must_use]
    #[inline]
    pub fn src_mac(&self) -> [u8; 6] {
        self.buf[6..12].try_into().expect("validated length")
    }

    /// EtherType field.
    #[must_use]
    #[inline]
    pub fn ethertype(&self) -> u16 {
        read_u16_be(self.buf, 12).expect("validated length")
    }

    /// Frame payload after the Ethernet header.
    #[must_use]
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[ETH_HEADER..]
    }

    /// Interprets the payload as IPv4.
    ///
    /// # Errors
    ///
    /// Returns [`ReprError::InvalidField`] if the EtherType is not IPv4, or
    /// any IPv4 validation error.
    #[inline]
    pub fn ipv4(&self) -> Result<Ipv4View<'a>, ReprError> {
        if self.ethertype() != ETHERTYPE_IPV4 {
            return Err(ReprError::InvalidField {
                field: "ethertype",
                value: u64::from(self.ethertype()),
            });
        }
        Ipv4View::parse(self.payload())
    }
}

/// Zero-copy view of an IPv4 packet.
#[derive(Debug, Clone, Copy)]
pub struct Ipv4View<'a> {
    buf: &'a [u8],
    header_len: usize,
    total_len: usize,
}

impl<'a> Ipv4View<'a> {
    /// Validates version, header length, and total length, then wraps.
    ///
    /// # Errors
    ///
    /// Returns [`ReprError::Truncated`] or [`ReprError::InvalidField`] on
    /// malformed headers — total parsing, LangSec style: no field is exposed
    /// until the whole header is known to be in bounds.
    #[inline]
    pub fn parse(buf: &'a [u8]) -> Result<Self, ReprError> {
        if buf.len() < IPV4_MIN_HEADER {
            return Err(ReprError::Truncated {
                needed: IPV4_MIN_HEADER,
                got: buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(ReprError::InvalidField {
                field: "version",
                value: u64::from(version),
            });
        }
        let ihl = usize::from(buf[0] & 0x0F);
        let header_len = ihl * 4;
        if ihl < 5 {
            return Err(ReprError::InvalidField {
                field: "ihl",
                value: ihl as u64,
            });
        }
        if buf.len() < header_len {
            return Err(ReprError::Truncated {
                needed: header_len,
                got: buf.len(),
            });
        }
        let total_len = usize::from(read_u16_be(buf, 2).expect("validated length"));
        if total_len < header_len {
            return Err(ReprError::InvalidField {
                field: "total_len",
                value: total_len as u64,
            });
        }
        if buf.len() < total_len {
            return Err(ReprError::Truncated {
                needed: total_len,
                got: buf.len(),
            });
        }
        Ok(Ipv4View {
            buf,
            header_len,
            total_len,
        })
    }

    /// The C-style parse this crate exists to replace, kept as a **seeded
    /// bug** for the fuzzing harness (the representation analogue of
    /// `sysmem::epoch`'s `new_with_premature_reclaim_bug`): it checks the
    /// version and the 20-byte minimum but then *trusts* the IHL and
    /// total-length fields without bounding them against the buffer —
    /// exactly the shortcut a hand-rolled header cast makes. Accessors on
    /// the returned view ([`Self::options`], [`Self::payload`],
    /// [`Self::verify_checksum`]) overread or panic when a truncated
    /// packet claims options or payload it does not carry.
    ///
    /// **Never call this on a production path.** It exists so the
    /// population fuzzer can demonstrate rediscovery of a known parser
    /// flaw within a bounded budget; [`Self::parse`] is the total parser
    /// every data-plane path uses.
    ///
    /// # Errors
    ///
    /// Returns [`ReprError::Truncated`] only for buffers under 20 bytes and
    /// [`ReprError::InvalidField`] for a bad version or IHL < 5 — the
    /// length-vs-buffer checks [`Self::parse`] performs are deliberately
    /// missing.
    #[allow(
        clippy::missing_inline_in_public_items,
        reason = "the seeded-bug parser is fuzzer-only, never on the data path"
    )]
    pub fn parse_trusting_lengths(buf: &'a [u8]) -> Result<Self, ReprError> {
        if buf.len() < IPV4_MIN_HEADER {
            return Err(ReprError::Truncated {
                needed: IPV4_MIN_HEADER,
                got: buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(ReprError::InvalidField {
                field: "version",
                value: u64::from(version),
            });
        }
        let ihl = usize::from(buf[0] & 0x0F);
        if ihl < 5 {
            return Err(ReprError::InvalidField {
                field: "ihl",
                value: ihl as u64,
            });
        }
        let total_len = usize::from(read_u16_be(buf, 2).expect("min header checked"));
        Ok(Ipv4View {
            buf,
            header_len: ihl * 4,
            total_len: total_len.max(ihl * 4),
        })
    }

    /// Header length in bytes.
    #[must_use]
    #[inline]
    pub fn header_len(&self) -> usize {
        self.header_len
    }

    /// Total packet length in bytes (header + payload).
    #[must_use]
    #[inline]
    pub fn total_len(&self) -> usize {
        self.total_len
    }

    /// Differentiated services code point.
    #[must_use]
    #[inline]
    pub fn dscp(&self) -> u8 {
        self.buf[1] >> 2
    }

    /// Identification field.
    #[must_use]
    #[inline]
    pub fn identification(&self) -> u16 {
        read_u16_be(self.buf, 4).expect("validated length")
    }

    /// Don't-fragment flag.
    #[must_use]
    #[inline]
    pub fn dont_fragment(&self) -> bool {
        self.buf[6] & 0x40 != 0
    }

    /// More-fragments flag.
    #[must_use]
    #[inline]
    pub fn more_fragments(&self) -> bool {
        self.buf[6] & 0x20 != 0
    }

    /// Fragment offset in 8-byte units.
    #[must_use]
    #[inline]
    pub fn fragment_offset(&self) -> u16 {
        read_u16_be(self.buf, 6).expect("validated length") & 0x1FFF
    }

    /// Time to live.
    #[must_use]
    #[inline]
    pub fn ttl(&self) -> u8 {
        self.buf[8]
    }

    /// Protocol number of the payload.
    #[must_use]
    #[inline]
    pub fn protocol(&self) -> u8 {
        self.buf[9]
    }

    /// Header checksum field.
    #[must_use]
    #[inline]
    pub fn checksum(&self) -> u16 {
        read_u16_be(self.buf, 10).expect("validated length")
    }

    /// Source address.
    #[must_use]
    #[inline]
    pub fn src(&self) -> [u8; 4] {
        self.buf[12..16].try_into().expect("validated length")
    }

    /// Destination address.
    #[must_use]
    #[inline]
    pub fn dst(&self) -> [u8; 4] {
        self.buf[16..20].try_into().expect("validated length")
    }

    /// Destination address as a `u32` (for routing-table lookups).
    #[must_use]
    #[inline]
    pub fn dst_u32(&self) -> u32 {
        read_u32_be(self.buf, 16).expect("validated length")
    }

    /// Options bytes (empty when IHL = 5).
    #[must_use]
    #[inline]
    pub fn options(&self) -> &'a [u8] {
        &self.buf[IPV4_MIN_HEADER..self.header_len]
    }

    /// Payload after the header, bounded by `total_len`.
    #[must_use]
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[self.header_len..self.total_len]
    }

    /// Verifies the header checksum.
    ///
    /// # Errors
    ///
    /// Returns [`ReprError::BadChecksum`] on mismatch.
    #[inline]
    pub fn verify_checksum(&self) -> Result<(), ReprError> {
        let computed = internet_checksum(&self.buf[..self.header_len]);
        if computed == 0 {
            Ok(())
        } else {
            Err(ReprError::BadChecksum {
                expected: self.checksum(),
                computed,
            })
        }
    }

    /// Interprets the payload as UDP.
    ///
    /// # Errors
    ///
    /// Returns [`ReprError::InvalidField`] if the protocol is not UDP, or a
    /// UDP validation error.
    #[inline]
    pub fn udp(&self) -> Result<UdpView<'a>, ReprError> {
        if self.protocol() != IPPROTO_UDP {
            return Err(ReprError::InvalidField {
                field: "protocol",
                value: u64::from(self.protocol()),
            });
        }
        UdpView::parse(self.payload())
    }

    /// Interprets the payload as TCP.
    ///
    /// # Errors
    ///
    /// Returns [`ReprError::InvalidField`] if the protocol is not TCP, or a
    /// TCP validation error.
    #[inline]
    pub fn tcp(&self) -> Result<TcpView<'a>, ReprError> {
        if self.protocol() != IPPROTO_TCP {
            return Err(ReprError::InvalidField {
                field: "protocol",
                value: u64::from(self.protocol()),
            });
        }
        TcpView::parse(self.payload())
    }
}

/// Zero-copy view of a UDP datagram.
#[derive(Debug, Clone, Copy)]
pub struct UdpView<'a> {
    buf: &'a [u8],
    length: usize,
}

impl<'a> UdpView<'a> {
    /// Validates the header and length field.
    ///
    /// # Errors
    ///
    /// Returns [`ReprError::Truncated`] or [`ReprError::InvalidField`].
    #[inline]
    pub fn parse(buf: &'a [u8]) -> Result<Self, ReprError> {
        if buf.len() < UDP_HEADER {
            return Err(ReprError::Truncated {
                needed: UDP_HEADER,
                got: buf.len(),
            });
        }
        let length = usize::from(read_u16_be(buf, 4).expect("validated length"));
        if length < UDP_HEADER {
            return Err(ReprError::InvalidField {
                field: "length",
                value: length as u64,
            });
        }
        if buf.len() < length {
            return Err(ReprError::Truncated {
                needed: length,
                got: buf.len(),
            });
        }
        Ok(UdpView { buf, length })
    }

    /// Source port.
    #[must_use]
    #[inline]
    pub fn src_port(&self) -> u16 {
        read_u16_be(self.buf, 0).expect("validated length")
    }

    /// Destination port.
    #[must_use]
    #[inline]
    pub fn dst_port(&self) -> u16 {
        read_u16_be(self.buf, 2).expect("validated length")
    }

    /// Datagram length (header + payload).
    #[must_use]
    #[inline]
    pub fn length(&self) -> usize {
        self.length
    }

    /// UDP checksum field (0 means "not computed").
    #[must_use]
    #[inline]
    pub fn checksum(&self) -> u16 {
        read_u16_be(self.buf, 6).expect("validated length")
    }

    /// Payload bytes.
    #[must_use]
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[UDP_HEADER..self.length]
    }
}

/// Zero-copy view of a TCP segment.
#[derive(Debug, Clone, Copy)]
pub struct TcpView<'a> {
    buf: &'a [u8],
    data_offset: usize,
}

impl<'a> TcpView<'a> {
    /// Validates the header and data offset.
    ///
    /// # Errors
    ///
    /// Returns [`ReprError::Truncated`] or [`ReprError::InvalidField`].
    #[inline]
    pub fn parse(buf: &'a [u8]) -> Result<Self, ReprError> {
        if buf.len() < TCP_MIN_HEADER {
            return Err(ReprError::Truncated {
                needed: TCP_MIN_HEADER,
                got: buf.len(),
            });
        }
        let data_offset = usize::from(buf[12] >> 4) * 4;
        if data_offset < TCP_MIN_HEADER {
            return Err(ReprError::InvalidField {
                field: "data_offset",
                value: data_offset as u64,
            });
        }
        if buf.len() < data_offset {
            return Err(ReprError::Truncated {
                needed: data_offset,
                got: buf.len(),
            });
        }
        Ok(TcpView { buf, data_offset })
    }

    /// Source port.
    #[must_use]
    #[inline]
    pub fn src_port(&self) -> u16 {
        read_u16_be(self.buf, 0).expect("validated length")
    }

    /// Destination port.
    #[must_use]
    #[inline]
    pub fn dst_port(&self) -> u16 {
        read_u16_be(self.buf, 2).expect("validated length")
    }

    /// Sequence number.
    #[must_use]
    #[inline]
    pub fn seq(&self) -> u32 {
        read_u32_be(self.buf, 4).expect("validated length")
    }

    /// Acknowledgment number.
    #[must_use]
    #[inline]
    pub fn ack(&self) -> u32 {
        read_u32_be(self.buf, 8).expect("validated length")
    }

    /// True if the SYN flag is set.
    #[must_use]
    #[inline]
    pub fn syn(&self) -> bool {
        self.buf[13] & 0x02 != 0
    }

    /// True if the ACK flag is set.
    #[must_use]
    #[inline]
    pub fn ack_flag(&self) -> bool {
        self.buf[13] & 0x10 != 0
    }

    /// True if the FIN flag is set.
    #[must_use]
    #[inline]
    pub fn fin(&self) -> bool {
        self.buf[13] & 0x01 != 0
    }

    /// True if the RST flag is set.
    #[must_use]
    #[inline]
    pub fn rst(&self) -> bool {
        self.buf[13] & 0x04 != 0
    }

    /// Receive window.
    #[must_use]
    #[inline]
    pub fn window(&self) -> u16 {
        read_u16_be(self.buf, 14).expect("validated length")
    }

    /// Payload after the header (and options).
    #[must_use]
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[self.data_offset..]
    }
}

/// Mutable view of an Ethernet II frame — entry point for in-place rewrite.
///
/// Validation mirrors [`EthernetView`]; the mutable views exist so NAT and
/// TTL handling can edit headers in the original buffer with incremental
/// (RFC 1624) checksum fixup — zero-copy on the write path too.
#[derive(Debug)]
pub struct EthernetViewMut<'a> {
    buf: &'a mut [u8],
}

impl<'a> EthernetViewMut<'a> {
    /// Validates the fixed header and wraps the buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ReprError::Truncated`] for frames under 14 bytes.
    #[inline]
    pub fn parse(buf: &'a mut [u8]) -> Result<Self, ReprError> {
        EthernetView::parse(&*buf)?;
        Ok(EthernetViewMut { buf })
    }

    /// Interprets the payload as IPv4, consuming the frame view so the
    /// inner view owns the borrow for its full lifetime.
    ///
    /// # Errors
    ///
    /// Returns [`ReprError::InvalidField`] if the EtherType is not IPv4, or
    /// any IPv4 validation error.
    #[inline]
    pub fn ipv4_mut(self) -> Result<Ipv4ViewMut<'a>, ReprError> {
        let ethertype = read_u16_be(self.buf, 12).expect("validated length");
        if ethertype != ETHERTYPE_IPV4 {
            return Err(ReprError::InvalidField {
                field: "ethertype",
                value: u64::from(ethertype),
            });
        }
        Ipv4ViewMut::parse(&mut self.buf[ETH_HEADER..])
    }
}

/// Mutable view of an IPv4 packet.
///
/// Every mutator keeps the header checksum — and, for address rewrites, the
/// transport pseudo-header checksum — consistent via RFC 1624 incremental
/// fixup, so `verify_checksum` holds after any sequence of edits.
#[derive(Debug)]
pub struct Ipv4ViewMut<'a> {
    buf: &'a mut [u8],
    header_len: usize,
    total_len: usize,
}

impl<'a> Ipv4ViewMut<'a> {
    /// Validates exactly like [`Ipv4View::parse`], then wraps mutably.
    ///
    /// # Errors
    ///
    /// Returns [`ReprError::Truncated`] or [`ReprError::InvalidField`] on
    /// malformed headers.
    #[inline]
    pub fn parse(buf: &'a mut [u8]) -> Result<Self, ReprError> {
        let (header_len, total_len) = {
            let v = Ipv4View::parse(&*buf)?;
            (v.header_len(), v.total_len())
        };
        Ok(Ipv4ViewMut {
            buf,
            header_len,
            total_len,
        })
    }

    /// Read-only view over the same bytes (for field access mid-edit).
    #[must_use]
    #[inline]
    pub fn as_view(&self) -> Ipv4View<'_> {
        Ipv4View {
            buf: &*self.buf,
            header_len: self.header_len,
            total_len: self.total_len,
        }
    }

    /// Time to live.
    #[must_use]
    #[inline]
    pub fn ttl(&self) -> u8 {
        self.buf[8]
    }

    /// Protocol number of the payload.
    #[must_use]
    #[inline]
    pub fn protocol(&self) -> u8 {
        self.buf[9]
    }

    /// Decrements TTL in place, patching the header checksum incrementally.
    ///
    /// Returns the new TTL. The TTL and protocol bytes share a 16-bit
    /// checksum word, so the fixup covers `(ttl << 8) | proto`.
    ///
    /// # Errors
    ///
    /// Returns [`ReprError::InvalidField`] if the TTL is already 0 — the
    /// packet should have been dropped, never decremented past expiry.
    #[inline]
    pub fn decrement_ttl(&mut self) -> Result<u8, ReprError> {
        let ttl = self.buf[8];
        if ttl == 0 {
            return Err(ReprError::InvalidField {
                field: "ttl",
                value: 0,
            });
        }
        let old_word = read_u16_be(self.buf, 8).expect("validated length");
        self.buf[8] = ttl - 1;
        let new_word = read_u16_be(self.buf, 8).expect("validated length");
        let ck = read_u16_be(self.buf, 10).expect("validated length");
        write_u16_be(self.buf, 10, checksum_fixup16(ck, old_word, new_word))
            .expect("validated length");
        Ok(ttl - 1)
    }

    /// Rewrites the source address, fixing both the IPv4 header checksum and
    /// the transport pseudo-header checksum (TCP always; UDP unless its
    /// checksum is 0, i.e. "not computed").
    #[inline]
    pub fn set_src(&mut self, ip: [u8; 4]) {
        self.set_addr(12, ip);
    }

    /// Rewrites the destination address; checksum handling as [`Self::set_src`].
    #[inline]
    pub fn set_dst(&mut self, ip: [u8; 4]) {
        self.set_addr(16, ip);
    }

    #[inline]
    fn set_addr(&mut self, offset: usize, ip: [u8; 4]) {
        let old = read_u32_be(self.buf, offset).expect("validated length");
        let new = u32::from_be_bytes(ip);
        if old == new {
            return;
        }
        self.buf[offset..offset + 4].copy_from_slice(&ip);
        let ck = read_u16_be(self.buf, 10).expect("validated length");
        write_u16_be(self.buf, 10, checksum_fixup32(ck, old, new)).expect("validated length");
        self.fixup_transport_for_addr(old, new);
    }

    /// Applies the pseudo-header delta of an address rewrite to the
    /// transport checksum. UDP zero-checksum datagrams are skipped, and a
    /// computed UDP checksum that folds to zero is stored as `0xFFFF` —
    /// `0x0000` on the wire would claim "no checksum".
    #[inline]
    fn fixup_transport_for_addr(&mut self, old: u32, new: u32) {
        let (offset, is_udp) = match self.buf[9] {
            IPPROTO_TCP => (self.header_len + 16, false),
            IPPROTO_UDP => (self.header_len + 6, true),
            _ => return,
        };
        if offset + 2 > self.total_len {
            return;
        }
        let ck = read_u16_be(self.buf, offset).expect("bounds checked");
        if is_udp && ck == 0 {
            return;
        }
        let mut fixed = checksum_fixup32(ck, old, new);
        if is_udp && fixed == 0 {
            fixed = 0xFFFF;
        }
        write_u16_be(self.buf, offset, fixed).expect("bounds checked");
    }

    /// Destination NAT in one pass: rewrites the destination address and the
    /// transport destination port together. Semantically equivalent to
    /// [`Self::set_dst`] followed by `set_dst_port` on the transport view,
    /// but the transport header is located once and each checksum (IPv4
    /// header, transport pseudo-header) absorbs the combined address+port
    /// delta in a single read-modify-write — the form a NAT fast path wants,
    /// with no per-packet transport re-validation. The UDP zero-checksum
    /// convention is honored exactly as in the two-step form.
    ///
    /// # Errors
    ///
    /// Returns [`ReprError::InvalidField`] if the protocol is neither TCP
    /// nor UDP, or [`ReprError::Truncated`] if the port and checksum words
    /// fall outside `total_len`.
    #[inline]
    pub fn dnat(&mut self, ip: [u8; 4], port: u16) -> Result<(), ReprError> {
        self.nat_rewrite(16, 2, ip, port)
    }

    /// Source NAT in one pass: rewrites the source address and the transport
    /// source port; checksum handling as [`Self::dnat`].
    ///
    /// # Errors
    ///
    /// As [`Self::dnat`].
    #[inline]
    pub fn snat(&mut self, ip: [u8; 4], port: u16) -> Result<(), ReprError> {
        self.nat_rewrite(12, 0, ip, port)
    }

    #[inline]
    fn nat_rewrite(
        &mut self,
        addr_off: usize,
        port_off: usize,
        ip: [u8; 4],
        port: u16,
    ) -> Result<(), ReprError> {
        let (ck_off, is_udp, need) = match self.buf[9] {
            IPPROTO_TCP => (16, false, 18),
            IPPROTO_UDP => (6, true, 8),
            other => {
                return Err(ReprError::InvalidField {
                    field: "protocol",
                    value: u64::from(other),
                })
            }
        };
        let tp = self.header_len;
        if tp + need > self.total_len {
            return Err(ReprError::Truncated {
                needed: tp + need,
                got: self.total_len,
            });
        }
        let old_addr = read_u32_be(self.buf, addr_off).expect("validated length");
        let new_addr = u32::from_be_bytes(ip);
        let old_port = read_u16_be(self.buf, tp + port_off).expect("bounds checked");
        self.buf[addr_off..addr_off + 4].copy_from_slice(&ip);
        write_u16_be(self.buf, tp + port_off, port).expect("bounds checked");
        if old_addr != new_addr {
            let ck = read_u16_be(self.buf, 10).expect("validated length");
            write_u16_be(self.buf, 10, checksum_fixup32(ck, old_addr, new_addr))
                .expect("validated length");
        }
        let ck = read_u16_be(self.buf, tp + ck_off).expect("bounds checked");
        if is_udp && ck == 0 {
            return Ok(());
        }
        let mut fixed = checksum_fixup16(checksum_fixup32(ck, old_addr, new_addr), old_port, port);
        if is_udp && fixed == 0 {
            fixed = 0xFFFF;
        }
        write_u16_be(self.buf, tp + ck_off, fixed).expect("bounds checked");
        Ok(())
    }

    /// Mutable view of the payload as UDP.
    ///
    /// # Errors
    ///
    /// Returns [`ReprError::InvalidField`] if the protocol is not UDP, or a
    /// UDP validation error.
    #[inline]
    pub fn udp_mut(&mut self) -> Result<UdpViewMut<'_>, ReprError> {
        if self.buf[9] != IPPROTO_UDP {
            return Err(ReprError::InvalidField {
                field: "protocol",
                value: u64::from(self.buf[9]),
            });
        }
        UdpViewMut::parse(&mut self.buf[self.header_len..self.total_len])
    }

    /// Mutable view of the payload as TCP.
    ///
    /// # Errors
    ///
    /// Returns [`ReprError::InvalidField`] if the protocol is not TCP, or a
    /// TCP validation error.
    #[inline]
    pub fn tcp_mut(&mut self) -> Result<TcpViewMut<'_>, ReprError> {
        if self.buf[9] != IPPROTO_TCP {
            return Err(ReprError::InvalidField {
                field: "protocol",
                value: u64::from(self.buf[9]),
            });
        }
        TcpViewMut::parse(&mut self.buf[self.header_len..self.total_len])
    }
}

/// Mutable view of a UDP datagram.
///
/// Port rewrites honor the UDP zero-checksum convention: a stored checksum
/// of 0 means "not computed" and is left untouched; a fixup that lands on 0
/// is emitted as `0xFFFF` (equal in one's-complement arithmetic, but not a
/// "no checksum" claim).
#[derive(Debug)]
pub struct UdpViewMut<'a> {
    buf: &'a mut [u8],
}

impl<'a> UdpViewMut<'a> {
    /// Validates exactly like [`UdpView::parse`], then wraps mutably.
    ///
    /// # Errors
    ///
    /// Returns [`ReprError::Truncated`] or [`ReprError::InvalidField`].
    #[inline]
    pub fn parse(buf: &'a mut [u8]) -> Result<Self, ReprError> {
        UdpView::parse(&*buf)?;
        Ok(UdpViewMut { buf })
    }

    /// Source port.
    #[must_use]
    #[inline]
    pub fn src_port(&self) -> u16 {
        read_u16_be(self.buf, 0).expect("validated length")
    }

    /// Destination port.
    #[must_use]
    #[inline]
    pub fn dst_port(&self) -> u16 {
        read_u16_be(self.buf, 2).expect("validated length")
    }

    /// UDP checksum field (0 means "not computed").
    #[must_use]
    #[inline]
    pub fn checksum(&self) -> u16 {
        read_u16_be(self.buf, 6).expect("validated length")
    }

    /// Rewrites the source port with incremental checksum fixup.
    #[inline]
    pub fn set_src_port(&mut self, port: u16) {
        self.set_port(0, port);
    }

    /// Rewrites the destination port with incremental checksum fixup.
    #[inline]
    pub fn set_dst_port(&mut self, port: u16) {
        self.set_port(2, port);
    }

    #[inline]
    fn set_port(&mut self, offset: usize, port: u16) {
        let old = read_u16_be(self.buf, offset).expect("validated length");
        if old == port {
            return;
        }
        write_u16_be(self.buf, offset, port).expect("validated length");
        let ck = read_u16_be(self.buf, 6).expect("validated length");
        if ck == 0 {
            return;
        }
        let mut fixed = checksum_fixup16(ck, old, port);
        if fixed == 0 {
            fixed = 0xFFFF;
        }
        write_u16_be(self.buf, 6, fixed).expect("validated length");
    }
}

/// Mutable view of a TCP segment. Port rewrites keep the checksum (offset
/// 16) consistent via incremental fixup; TCP has no zero-checksum escape.
#[derive(Debug)]
pub struct TcpViewMut<'a> {
    buf: &'a mut [u8],
}

impl<'a> TcpViewMut<'a> {
    /// Validates exactly like [`TcpView::parse`], then wraps mutably.
    ///
    /// # Errors
    ///
    /// Returns [`ReprError::Truncated`] or [`ReprError::InvalidField`].
    #[inline]
    pub fn parse(buf: &'a mut [u8]) -> Result<Self, ReprError> {
        TcpView::parse(&*buf)?;
        Ok(TcpViewMut { buf })
    }

    /// Source port.
    #[must_use]
    #[inline]
    pub fn src_port(&self) -> u16 {
        read_u16_be(self.buf, 0).expect("validated length")
    }

    /// Destination port.
    #[must_use]
    #[inline]
    pub fn dst_port(&self) -> u16 {
        read_u16_be(self.buf, 2).expect("validated length")
    }

    /// TCP checksum field.
    #[must_use]
    #[inline]
    pub fn checksum(&self) -> u16 {
        read_u16_be(self.buf, 16).expect("validated length")
    }

    /// Rewrites the source port with incremental checksum fixup.
    #[inline]
    pub fn set_src_port(&mut self, port: u16) {
        self.set_port(0, port);
    }

    /// Rewrites the destination port with incremental checksum fixup.
    #[inline]
    pub fn set_dst_port(&mut self, port: u16) {
        self.set_port(2, port);
    }

    #[inline]
    fn set_port(&mut self, offset: usize, port: u16) {
        let old = read_u16_be(self.buf, offset).expect("validated length");
        if old == port {
            return;
        }
        write_u16_be(self.buf, offset, port).expect("validated length");
        let ck = read_u16_be(self.buf, 16).expect("validated length");
        write_u16_be(self.buf, 16, checksum_fixup16(ck, old, port)).expect("validated length");
    }
}

/// Builds well-formed Ethernet/IPv4/{UDP,TCP} packets for tests, examples,
/// and workload generators; lengths and the IPv4 checksum are computed.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    protocol: u8,
    src_mac: [u8; 6],
    dst_mac: [u8; 6],
    src_ip: [u8; 4],
    dst_ip: [u8; 4],
    src_port: u16,
    dst_port: u16,
    ttl: u8,
    tcp_flags: u8,
    seq: u32,
    ack_no: u32,
    payload: Vec<u8>,
    corrupt_checksum: bool,
    transport_checksum: bool,
}

#[allow(
    clippy::missing_inline_in_public_items,
    reason = "test and generator setup, not the per-packet path"
)]
impl PacketBuilder {
    /// Starts a UDP packet with loopback-ish defaults.
    #[must_use]
    pub fn udp() -> Self {
        Self::with_protocol(IPPROTO_UDP)
    }

    /// Starts a TCP packet with loopback-ish defaults.
    #[must_use]
    pub fn tcp() -> Self {
        Self::with_protocol(IPPROTO_TCP)
    }

    fn with_protocol(protocol: u8) -> Self {
        PacketBuilder {
            protocol,
            src_mac: [2, 0, 0, 0, 0, 1],
            dst_mac: [2, 0, 0, 0, 0, 2],
            src_ip: [127, 0, 0, 1],
            dst_ip: [127, 0, 0, 1],
            src_port: 10_000,
            dst_port: 10_001,
            ttl: 64,
            tcp_flags: TCP_ACK,
            seq: 0,
            ack_no: 0,
            payload: Vec::new(),
            corrupt_checksum: false,
            transport_checksum: false,
        }
    }

    /// Sets the source IP address.
    #[must_use]
    pub fn src_ip(mut self, ip: [u8; 4]) -> Self {
        self.src_ip = ip;
        self
    }

    /// Sets the destination IP address.
    #[must_use]
    pub fn dst_ip(mut self, ip: [u8; 4]) -> Self {
        self.dst_ip = ip;
        self
    }

    /// Sets the source port.
    #[must_use]
    pub fn src_port(mut self, p: u16) -> Self {
        self.src_port = p;
        self
    }

    /// Sets the destination port.
    #[must_use]
    pub fn dst_port(mut self, p: u16) -> Self {
        self.dst_port = p;
        self
    }

    /// Sets the IPv4 TTL.
    #[must_use]
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the TCP flag byte (combine the `TCP_*` flag constants; ignored
    /// for UDP). The default is a bare ACK.
    #[must_use]
    pub fn tcp_flags(mut self, flags: u8) -> Self {
        self.tcp_flags = flags;
        self
    }

    /// Sets the TCP sequence number (ignored for UDP).
    #[must_use]
    pub fn seq(mut self, seq: u32) -> Self {
        self.seq = seq;
        self
    }

    /// Sets the TCP acknowledgment number (ignored for UDP).
    #[must_use]
    pub fn ack_no(mut self, ack: u32) -> Self {
        self.ack_no = ack;
        self
    }

    /// Sets the transport payload.
    #[must_use]
    pub fn payload(mut self, p: &[u8]) -> Self {
        self.payload = p.to_vec();
        self
    }

    /// Deliberately corrupts the IPv4 checksum (for failure-injection tests).
    #[must_use]
    pub fn corrupt_checksum(mut self) -> Self {
        self.corrupt_checksum = true;
        self
    }

    /// Also computes the UDP/TCP transport checksum (off by default so
    /// existing byte streams are unchanged; UDP's "not computed" zero is the
    /// default wire form). A computed UDP checksum of 0 is emitted as
    /// `0xFFFF` per RFC 768.
    #[must_use]
    pub fn compute_transport_checksum(mut self) -> Self {
        self.transport_checksum = true;
        self
    }

    /// Produces the raw frame bytes.
    ///
    /// # Panics
    ///
    /// Panics if the payload is too large for a 16-bit IPv4 total length.
    #[must_use]
    pub fn build(&self) -> Vec<u8> {
        let transport_header = if self.protocol == IPPROTO_UDP {
            UDP_HEADER
        } else {
            TCP_MIN_HEADER
        };
        let ip_total = IPV4_MIN_HEADER + transport_header + self.payload.len();
        assert!(
            ip_total <= usize::from(u16::MAX),
            "payload too large for IPv4"
        );
        let mut frame = vec![0u8; ETH_HEADER + ip_total];
        // Ethernet.
        frame[0..6].copy_from_slice(&self.dst_mac);
        frame[6..12].copy_from_slice(&self.src_mac);
        write_u16_be(&mut frame, 12, ETHERTYPE_IPV4).expect("in bounds");
        // IPv4 header.
        let ip = ETH_HEADER;
        frame[ip] = 0x45;
        write_u16_be(
            &mut frame,
            ip + 2,
            u16::try_from(ip_total).expect("checked"),
        )
        .expect("in bounds");
        frame[ip + 8] = self.ttl;
        frame[ip + 9] = self.protocol;
        frame[ip + 12..ip + 16].copy_from_slice(&self.src_ip);
        frame[ip + 16..ip + 20].copy_from_slice(&self.dst_ip);
        let mut ck = internet_checksum(&frame[ip..ip + IPV4_MIN_HEADER]);
        if self.corrupt_checksum {
            ck ^= 0xFFFF;
        }
        write_u16_be(&mut frame, ip + 10, ck).expect("in bounds");
        // Transport header.
        let tp = ip + IPV4_MIN_HEADER;
        if self.protocol == IPPROTO_UDP {
            write_u16_be(&mut frame, tp, self.src_port).expect("in bounds");
            write_u16_be(&mut frame, tp + 2, self.dst_port).expect("in bounds");
            let udp_len = u16::try_from(UDP_HEADER + self.payload.len()).expect("checked");
            write_u16_be(&mut frame, tp + 4, udp_len).expect("in bounds");
        } else {
            write_u16_be(&mut frame, tp, self.src_port).expect("in bounds");
            write_u16_be(&mut frame, tp + 2, self.dst_port).expect("in bounds");
            write_u32_be(&mut frame, tp + 4, self.seq).expect("in bounds");
            write_u32_be(&mut frame, tp + 8, self.ack_no).expect("in bounds");
            frame[tp + 12] = 0x50; // data offset = 5 words
            frame[tp + 13] = self.tcp_flags;
            write_u16_be(&mut frame, tp + 14, 0xFFFF).expect("in bounds");
        }
        frame[tp + transport_header..].copy_from_slice(&self.payload);
        if self.transport_checksum {
            let src = u32::from_be_bytes(self.src_ip);
            let dst = u32::from_be_bytes(self.dst_ip);
            let mut tck = transport_checksum_v4(src, dst, self.protocol, &frame[tp..]);
            if self.protocol == IPPROTO_UDP && tck == 0 {
                tck = 0xFFFF;
            }
            let off = tp + if self.protocol == IPPROTO_UDP { 6 } else { 16 };
            write_u16_be(&mut frame, off, tck).expect("in bounds");
        }
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_udp() -> Vec<u8> {
        PacketBuilder::udp()
            .src_ip([192, 168, 1, 10])
            .dst_ip([192, 168, 1, 20])
            .src_port(1234)
            .dst_port(5678)
            .payload(b"payload!")
            .build()
    }

    #[test]
    fn ethernet_fields_decode() {
        let bytes = sample_udp();
        let eth = EthernetView::parse(&bytes).unwrap();
        assert_eq!(eth.ethertype(), ETHERTYPE_IPV4);
        assert_eq!(eth.src_mac(), [2, 0, 0, 0, 0, 1]);
        assert_eq!(eth.dst_mac(), [2, 0, 0, 0, 0, 2]);
    }

    #[test]
    fn ipv4_fields_decode() {
        let bytes = sample_udp();
        let ip = EthernetView::parse(&bytes).unwrap().ipv4().unwrap();
        assert_eq!(ip.src(), [192, 168, 1, 10]);
        assert_eq!(ip.dst(), [192, 168, 1, 20]);
        assert_eq!(ip.ttl(), 64);
        assert_eq!(ip.protocol(), IPPROTO_UDP);
        assert_eq!(ip.total_len(), 20 + 8 + 8);
        ip.verify_checksum().unwrap();
    }

    #[test]
    fn udp_fields_and_payload_decode() {
        let bytes = sample_udp();
        let udp = EthernetView::parse(&bytes)
            .unwrap()
            .ipv4()
            .unwrap()
            .udp()
            .unwrap();
        assert_eq!(udp.src_port(), 1234);
        assert_eq!(udp.dst_port(), 5678);
        assert_eq!(udp.payload(), b"payload!");
    }

    #[test]
    fn tcp_builder_and_view_agree() {
        let bytes = PacketBuilder::tcp()
            .src_port(80)
            .dst_port(443)
            .payload(b"GET /")
            .build();
        let tcp = EthernetView::parse(&bytes)
            .unwrap()
            .ipv4()
            .unwrap()
            .tcp()
            .unwrap();
        assert_eq!(tcp.src_port(), 80);
        assert_eq!(tcp.dst_port(), 443);
        assert!(tcp.ack_flag());
        assert!(!tcp.syn());
        assert_eq!(tcp.payload(), b"GET /");
    }

    #[test]
    fn corrupted_checksum_is_detected() {
        let bytes = PacketBuilder::udp().corrupt_checksum().build();
        let ip = EthernetView::parse(&bytes).unwrap().ipv4().unwrap();
        assert!(matches!(
            ip.verify_checksum(),
            Err(ReprError::BadChecksum { .. })
        ));
    }

    #[test]
    fn truncated_frames_are_rejected_at_every_layer() {
        let bytes = sample_udp();
        assert!(EthernetView::parse(&bytes[..10]).is_err());
        assert!(Ipv4View::parse(&bytes[14..30]).is_err());
        assert!(UdpView::parse(&bytes[34..38]).is_err());
    }

    #[test]
    fn wrong_ip_version_is_rejected() {
        let mut bytes = sample_udp();
        bytes[14] = 0x65; // version 6
        assert!(matches!(
            EthernetView::parse(&bytes).unwrap().ipv4(),
            Err(ReprError::InvalidField {
                field: "version",
                ..
            })
        ));
    }

    #[test]
    fn bad_ihl_is_rejected() {
        let mut bytes = sample_udp();
        bytes[14] = 0x42; // IHL 2 < 5
        assert!(Ipv4View::parse(&bytes[14..]).is_err());
    }

    #[test]
    fn total_len_bounds_payload() {
        let bytes = sample_udp();
        let mut long = bytes.clone();
        long.extend_from_slice(&[0xEE; 16]); // trailing junk beyond total_len
        let ip = EthernetView::parse(&long).unwrap().ipv4().unwrap();
        assert_eq!(ip.payload().len(), 16, "payload must stop at total_len");
    }

    #[test]
    fn lying_total_len_is_rejected() {
        let mut bytes = sample_udp();
        // Claim a total length past the end of the buffer.
        bytes[16] = 0xFF;
        bytes[17] = 0xFF;
        assert!(matches!(
            Ipv4View::parse(&bytes[14..]),
            Err(ReprError::Truncated { .. })
        ));
    }

    #[test]
    fn udp_on_tcp_packet_is_a_type_error() {
        let bytes = PacketBuilder::tcp().build();
        let ip = EthernetView::parse(&bytes).unwrap().ipv4().unwrap();
        assert!(matches!(
            ip.udp(),
            Err(ReprError::InvalidField {
                field: "protocol",
                ..
            })
        ));
    }

    fn transport_checksum_ok(bytes: &[u8]) -> bool {
        // Recompute the transport checksum from scratch; a stored checksum
        // verifies iff the pseudo-header sum over the unmodified segment
        // (checksum field included) folds to zero — same trick as IPv4.
        let ip = EthernetView::parse(bytes).unwrap().ipv4().unwrap();
        let src = u32::from_be_bytes(ip.src());
        let dst = u32::from_be_bytes(ip.dst());
        transport_checksum_v4(src, dst, ip.protocol(), ip.payload()) == 0
    }

    #[test]
    fn dnat_matches_the_two_step_rewrite() {
        // The fused fast path must be byte-identical to set_dst + set_dst_port.
        let build = || {
            PacketBuilder::tcp()
                .src_ip([10, 9, 1, 2])
                .dst_ip([10, 200, 0, 1])
                .src_port(40_000)
                .dst_port(80)
                .payload(b"GET /")
                .compute_transport_checksum()
                .build()
        };
        let mut fused = build();
        let mut stepped = build();
        let mut ip = EthernetViewMut::parse(&mut fused)
            .unwrap()
            .ipv4_mut()
            .unwrap();
        ip.dnat([10, 50, 0, 12], 8080).unwrap();
        let mut ip = EthernetViewMut::parse(&mut stepped)
            .unwrap()
            .ipv4_mut()
            .unwrap();
        ip.set_dst([10, 50, 0, 12]);
        ip.tcp_mut().unwrap().set_dst_port(8080);
        assert_eq!(fused, stepped);
        let ip = EthernetView::parse(&fused).unwrap().ipv4().unwrap();
        ip.verify_checksum().unwrap();
        assert!(transport_checksum_ok(&fused));
    }

    #[test]
    fn snat_matches_the_two_step_rewrite_over_udp() {
        let build = || {
            PacketBuilder::udp()
                .src_ip([10, 50, 0, 11])
                .dst_ip([10, 9, 3, 4])
                .src_port(8080)
                .dst_port(51_000)
                .payload(b"reply")
                .compute_transport_checksum()
                .build()
        };
        let mut fused = build();
        let mut stepped = build();
        let mut ip = EthernetViewMut::parse(&mut fused)
            .unwrap()
            .ipv4_mut()
            .unwrap();
        ip.snat([10, 200, 0, 1], 80).unwrap();
        let mut ip = EthernetViewMut::parse(&mut stepped)
            .unwrap()
            .ipv4_mut()
            .unwrap();
        ip.set_src([10, 200, 0, 1]);
        ip.udp_mut().unwrap().set_src_port(80);
        assert_eq!(fused, stepped);
        assert!(transport_checksum_ok(&fused));
    }

    #[test]
    fn dnat_leaves_udp_zero_checksum_alone() {
        let mut bytes = PacketBuilder::udp()
            .src_ip([10, 9, 1, 2])
            .dst_ip([10, 200, 0, 1])
            .build(); // builder default: UDP checksum not computed (0)
        let mut ip = EthernetViewMut::parse(&mut bytes)
            .unwrap()
            .ipv4_mut()
            .unwrap();
        ip.dnat([10, 50, 0, 10], 8080).unwrap();
        let ip = EthernetView::parse(&bytes).unwrap().ipv4().unwrap();
        ip.verify_checksum().unwrap();
        let udp = ip.udp().unwrap();
        assert_eq!(udp.dst_port(), 8080);
        assert_eq!(udp.checksum(), 0, "zero stays \"not computed\"");
    }

    #[test]
    fn dnat_refuses_non_transport_protocols() {
        let mut bytes = PacketBuilder::with_protocol(1).build(); // ICMP
        let mut ip = EthernetViewMut::parse(&mut bytes)
            .unwrap()
            .ipv4_mut()
            .unwrap();
        assert!(matches!(
            ip.dnat([10, 50, 0, 10], 8080),
            Err(ReprError::InvalidField {
                field: "protocol",
                ..
            })
        ));
    }

    proptest! {
        #[test]
        fn nat_rewrites_keep_both_checksums_verifiable(
            src in any::<u32>(),
            dst in any::<u32>(),
            sport: u16,
            dport: u16,
            new_addr in any::<u32>(),
            new_port: u16,
            to_backend: bool,
            tcp: bool,
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut bytes = if tcp { PacketBuilder::tcp() } else { PacketBuilder::udp() }
                .src_ip(src.to_be_bytes())
                .dst_ip(dst.to_be_bytes())
                .src_port(sport)
                .dst_port(dport)
                .payload(&payload)
                .compute_transport_checksum()
                .build();
            let mut ip = EthernetViewMut::parse(&mut bytes).unwrap().ipv4_mut().unwrap();
            if to_backend {
                ip.dnat(new_addr.to_be_bytes(), new_port).unwrap();
            } else {
                ip.snat(new_addr.to_be_bytes(), new_port).unwrap();
            }
            // Differential check: the rewritten frame re-parses, carries the
            // new endpoint, and both checksums verify from scratch.
            let ip = EthernetView::parse(&bytes).unwrap().ipv4().unwrap();
            ip.verify_checksum().unwrap();
            let (addr, port) = if to_backend {
                let p = if tcp { ip.tcp().unwrap().dst_port() } else { ip.udp().unwrap().dst_port() };
                (ip.dst(), p)
            } else {
                let p = if tcp { ip.tcp().unwrap().src_port() } else { ip.udp().unwrap().src_port() };
                (ip.src(), p)
            };
            prop_assert_eq!(addr, new_addr.to_be_bytes());
            prop_assert_eq!(port, new_port);
            prop_assert!(transport_checksum_ok(&bytes));
        }
    }

    #[test]
    fn decrement_ttl_preserves_checksum() {
        let mut bytes = sample_udp();
        let mut ip = EthernetViewMut::parse(&mut bytes)
            .unwrap()
            .ipv4_mut()
            .unwrap();
        assert_eq!(ip.decrement_ttl().unwrap(), 63);
        let ip = EthernetView::parse(&bytes).unwrap().ipv4().unwrap();
        assert_eq!(ip.ttl(), 63);
        ip.verify_checksum().unwrap();
    }

    #[test]
    fn decrement_ttl_refuses_expired() {
        let mut bytes = PacketBuilder::udp().ttl(0).build();
        let mut ip = EthernetViewMut::parse(&mut bytes)
            .unwrap()
            .ipv4_mut()
            .unwrap();
        assert!(matches!(
            ip.decrement_ttl(),
            Err(ReprError::InvalidField { field: "ttl", .. })
        ));
    }

    #[test]
    fn address_rewrite_fixes_both_checksums() {
        let mut bytes = PacketBuilder::tcp()
            .src_ip([10, 0, 0, 1])
            .dst_ip([192, 0, 2, 80])
            .compute_transport_checksum()
            .build();
        assert!(transport_checksum_ok(&bytes));
        let mut ip = EthernetViewMut::parse(&mut bytes)
            .unwrap()
            .ipv4_mut()
            .unwrap();
        ip.set_dst([203, 0, 113, 7]);
        ip.tcp_mut().unwrap().set_dst_port(8080);
        let ip = EthernetView::parse(&bytes).unwrap().ipv4().unwrap();
        assert_eq!(ip.dst(), [203, 0, 113, 7]);
        assert_eq!(ip.tcp().unwrap().dst_port(), 8080);
        ip.verify_checksum().unwrap();
        assert!(transport_checksum_ok(&bytes));
    }

    #[test]
    fn udp_zero_checksum_is_left_alone_by_rewrite() {
        // Builder default leaves the UDP checksum at 0 ("not computed").
        let mut bytes = sample_udp();
        let mut ip = EthernetViewMut::parse(&mut bytes)
            .unwrap()
            .ipv4_mut()
            .unwrap();
        ip.set_dst([203, 0, 113, 7]);
        ip.udp_mut().unwrap().set_dst_port(4242);
        let udp = EthernetView::parse(&bytes)
            .unwrap()
            .ipv4()
            .unwrap()
            .udp()
            .unwrap();
        assert_eq!(udp.checksum(), 0, "zero checksum must survive rewrite");
        assert_eq!(udp.dst_port(), 4242);
    }

    proptest! {
        /// Any payload round-trips through build + parse.
        #[test]
        fn udp_payload_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..512)) {
            let bytes = PacketBuilder::udp().payload(&payload).build();
            let udp = EthernetView::parse(&bytes).unwrap().ipv4().unwrap().udp().unwrap();
            prop_assert_eq!(udp.payload(), &payload[..]);
        }

        /// Built packets always carry a valid IPv4 checksum.
        #[test]
        fn built_checksums_verify(src: [u8; 4], dst: [u8; 4], ttl: u8) {
            let bytes = PacketBuilder::udp().src_ip(src).dst_ip(dst).ttl(ttl).build();
            let ip = EthernetView::parse(&bytes).unwrap().ipv4().unwrap();
            prop_assert!(ip.verify_checksum().is_ok());
        }

        /// The parser never panics on arbitrary bytes (total parsing).
        #[test]
        fn parser_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            if let Ok(eth) = EthernetView::parse(&bytes) {
                if let Ok(ip) = eth.ipv4() {
                    let _ = ip.verify_checksum();
                    let _ = ip.udp();
                    let _ = ip.tcp();
                    let _ = ip.payload();
                }
            }
        }
    }
}
