//! Explicit byte-order conversion helpers.
//!
//! C leaves byte order to convention (`ntohs` sprinkled by hand); a systems
//! language should make the order part of the access. These helpers are the
//! primitive layer used by [`crate::packet`] and [`crate::layout`], and,
//! like the packet views, `#[inline]` so they compile into their callers
//! across the crate boundary.
#![warn(clippy::missing_inline_in_public_items)]

use crate::ReprError;

macro_rules! read_write {
    ($read_be:ident, $write_be:ident, $read_le:ident, $write_le:ident, $t:ty) => {
        /// Reads a big-endian value at `off`.
        ///
        /// # Errors
        ///
        /// Returns [`ReprError::Truncated`] if the buffer is too short.
        #[inline]
        pub fn $read_be(buf: &[u8], off: usize) -> Result<$t, ReprError> {
            let n = std::mem::size_of::<$t>();
            let end = off.checked_add(n).ok_or(ReprError::Truncated {
                needed: usize::MAX,
                got: buf.len(),
            })?;
            let slice = buf.get(off..end).ok_or(ReprError::Truncated {
                needed: end,
                got: buf.len(),
            })?;
            Ok(<$t>::from_be_bytes(
                slice.try_into().expect("length checked"),
            ))
        }

        /// Writes a big-endian value at `off`.
        ///
        /// # Errors
        ///
        /// Returns [`ReprError::Truncated`] if the buffer is too short.
        #[inline]
        pub fn $write_be(buf: &mut [u8], off: usize, v: $t) -> Result<(), ReprError> {
            let n = std::mem::size_of::<$t>();
            let end = off.checked_add(n).ok_or(ReprError::Truncated {
                needed: usize::MAX,
                got: buf.len(),
            })?;
            let len = buf.len();
            let slice = buf.get_mut(off..end).ok_or(ReprError::Truncated {
                needed: end,
                got: len,
            })?;
            slice.copy_from_slice(&v.to_be_bytes());
            Ok(())
        }

        /// Reads a little-endian value at `off`.
        ///
        /// # Errors
        ///
        /// Returns [`ReprError::Truncated`] if the buffer is too short.
        #[inline]
        pub fn $read_le(buf: &[u8], off: usize) -> Result<$t, ReprError> {
            let n = std::mem::size_of::<$t>();
            let end = off.checked_add(n).ok_or(ReprError::Truncated {
                needed: usize::MAX,
                got: buf.len(),
            })?;
            let slice = buf.get(off..end).ok_or(ReprError::Truncated {
                needed: end,
                got: buf.len(),
            })?;
            Ok(<$t>::from_le_bytes(
                slice.try_into().expect("length checked"),
            ))
        }

        /// Writes a little-endian value at `off`.
        ///
        /// # Errors
        ///
        /// Returns [`ReprError::Truncated`] if the buffer is too short.
        #[inline]
        pub fn $write_le(buf: &mut [u8], off: usize, v: $t) -> Result<(), ReprError> {
            let n = std::mem::size_of::<$t>();
            let end = off.checked_add(n).ok_or(ReprError::Truncated {
                needed: usize::MAX,
                got: buf.len(),
            })?;
            let len = buf.len();
            let slice = buf.get_mut(off..end).ok_or(ReprError::Truncated {
                needed: end,
                got: len,
            })?;
            slice.copy_from_slice(&v.to_le_bytes());
            Ok(())
        }
    };
}

read_write!(read_u16_be, write_u16_be, read_u16_le, write_u16_le, u16);
read_write!(read_u32_be, write_u32_be, read_u32_le, write_u32_le, u32);
read_write!(read_u64_be, write_u64_be, read_u64_le, write_u64_le, u64);

/// Computes the Internet checksum (RFC 1071) over `data`.
///
/// Used by IPv4 headers and UDP/TCP pseudo-header checksums.
#[inline]
#[must_use]
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !u16::try_from(sum).expect("folded to 16 bits")
}

/// Incrementally updates an Internet checksum after one 16-bit word of the
/// covered data changed from `old` to `new` (RFC 1624, eqn. 3):
/// `HC' = ~(~HC + ~m + m')`.
///
/// `check` is the checksum as stored in the header (already complemented).
/// The returned value is likewise ready to store. Folding is done in a
/// `u32` accumulator so a chain of fixups never loses carries.
#[inline]
#[must_use]
pub fn checksum_fixup16(check: u16, old: u16, new: u16) -> u16 {
    let mut sum = u32::from(!check) + u32::from(!old) + u32::from(new);
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !u16::try_from(sum).expect("folded to 16 bits")
}

/// Incrementally updates an Internet checksum after a 32-bit field (e.g. an
/// IPv4 address) changed from `old` to `new`, by applying
/// [`checksum_fixup16`] to each 16-bit half.
#[inline]
#[must_use]
pub fn checksum_fixup32(check: u16, old: u32, new: u32) -> u16 {
    let check = checksum_fixup16(check, (old >> 16) as u16, (new >> 16) as u16);
    checksum_fixup16(check, old as u16, new as u16)
}

/// Computes a full IPv4 transport checksum (RFC 768 / RFC 793): the
/// pseudo-header of `src`/`dst`/`proto`/segment-length, followed by the
/// transport `segment` itself (header + payload, checksum field zeroed by
/// the caller).
///
/// Used by tests and builders as the from-scratch reference the incremental
/// fixups are checked against.
#[allow(
    clippy::missing_inline_in_public_items,
    reason = "allocating from-scratch reference, off the per-packet path"
)]
#[must_use]
pub fn transport_checksum_v4(src: u32, dst: u32, proto: u8, segment: &[u8]) -> u16 {
    let mut pseudo = Vec::with_capacity(12 + segment.len());
    pseudo.extend_from_slice(&src.to_be_bytes());
    pseudo.extend_from_slice(&dst.to_be_bytes());
    pseudo.push(0);
    pseudo.push(proto);
    let len = u16::try_from(segment.len()).expect("segment fits u16");
    pseudo.extend_from_slice(&len.to_be_bytes());
    pseudo.extend_from_slice(segment);
    internet_checksum(&pseudo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn be_and_le_reads_disagree_as_expected() {
        let buf = [0x12, 0x34];
        assert_eq!(read_u16_be(&buf, 0).unwrap(), 0x1234);
        assert_eq!(read_u16_le(&buf, 0).unwrap(), 0x3412);
    }

    #[test]
    fn truncated_reads_are_rejected() {
        let buf = [0u8; 3];
        assert!(matches!(
            read_u32_be(&buf, 0),
            Err(ReprError::Truncated { .. })
        ));
        assert!(matches!(
            read_u16_be(&buf, 2),
            Err(ReprError::Truncated { .. })
        ));
    }

    #[test]
    fn write_then_read_u64() {
        let mut buf = [0u8; 10];
        write_u64_be(&mut buf, 1, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(read_u64_be(&buf, 1).unwrap(), 0x0102_0304_0506_0708);
    }

    #[test]
    fn offset_overflow_is_rejected() {
        let mut buf = [0u8; 4];
        assert!(read_u16_be(&buf, usize::MAX).is_err());
        assert!(write_u16_be(&mut buf, usize::MAX, 0).is_err());
    }

    #[test]
    fn rfc1071_example_checksum() {
        // Classic example from RFC 1071 §3.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn checksum_of_odd_length_pads_with_zero() {
        assert_eq!(internet_checksum(&[0xFF]), !0xFF00);
    }

    #[test]
    fn checksum_verifies_to_zero_when_embedded() {
        // A buffer whose checksum field is filled in verifies to 0.
        let mut h = vec![
            0x45, 0x00, 0x00, 0x1c, 0x00, 0x00, 0x00, 0x00, 0x40, 0x11, 0x00, 0x00,
        ];
        h.extend_from_slice(&[10, 0, 0, 1, 10, 0, 0, 2]);
        let ck = internet_checksum(&h);
        h[10] = (ck >> 8) as u8;
        h[11] = (ck & 0xff) as u8;
        assert_eq!(internet_checksum(&h), 0);
    }

    #[test]
    fn fixup16_matches_recompute() {
        // Recompute-from-scratch vs incremental fixup on a header edit.
        let mut h = vec![
            0x45, 0x00, 0x00, 0x1c, 0x00, 0x00, 0x00, 0x00, 0x40, 0x11, 0x00, 0x00, 10, 0, 0, 1,
            10, 0, 0, 2,
        ];
        let ck = internet_checksum(&h);
        h[10] = (ck >> 8) as u8;
        h[11] = (ck & 0xff) as u8;
        // Change TTL/proto word 0x4011 -> 0x3f11.
        let fixed = checksum_fixup16(ck, 0x4011, 0x3f11);
        h[8] = 0x3f;
        h[10] = 0;
        h[11] = 0;
        assert_eq!(fixed, internet_checksum(&h));
    }

    proptest! {
        #[test]
        fn fixup16_agrees_with_full_recompute(words in proptest::collection::vec(any::<u16>(), 2..16), idx in 0usize..16, new: u16) {
            let idx = idx % words.len();
            let flat = |ws: &[u16]| ws.iter().flat_map(|w| w.to_be_bytes()).collect::<Vec<u8>>();
            let ck = internet_checksum(&flat(&words));
            let mut edited = words.clone();
            edited[idx] = new;
            let fixed = checksum_fixup16(ck, words[idx], new);
            prop_assert_eq!(fixed, internet_checksum(&flat(&edited)));
        }

        #[test]
        fn fixup32_agrees_with_full_recompute(a: u32, b: u32, new: u32) {
            let flat = |x: u32, y: u32| {
                let mut v = x.to_be_bytes().to_vec();
                v.extend_from_slice(&y.to_be_bytes());
                v
            };
            let ck = internet_checksum(&flat(a, b));
            let fixed = checksum_fixup32(ck, b, new);
            prop_assert_eq!(fixed, internet_checksum(&flat(a, new)));
        }

        #[test]
        fn u32_roundtrip_be(v: u32, off in 0usize..8) {
            let mut buf = [0u8; 12];
            write_u32_be(&mut buf, off, v).unwrap();
            prop_assert_eq!(read_u32_be(&buf, off).unwrap(), v);
        }

        #[test]
        fn u16_roundtrip_le(v: u16, off in 0usize..8) {
            let mut buf = [0u8; 10];
            write_u16_le(&mut buf, off, v).unwrap();
            prop_assert_eq!(read_u16_le(&buf, off).unwrap(), v);
        }
    }
}
