//! TCP segments (RFC 793) with the options PXGW manipulates.
//!
//! PXGW's two core operations live on top of this module:
//!
//! * **MSS rewriting** (paper §4.1): during the handshake the gateway
//!   rewrites the MSS option in SYN/SYN-ACK segments so the b-network
//!   endpoint learns a jumbo MSS even though the legacy peer advertised a
//!   1460-byte one.
//! * **Merge/split** (LRO/TSO-like): both preserve the byte stream, which
//!   requires exact sequence-number arithmetic — provided by [`SeqNum`],
//!   a wrapping ⟨mod 2³²⟩ sequence type.

use crate::bytes;
use crate::checksum;
use crate::error::{Error, Result};
use crate::flow::IpProtocol;
use std::net::Ipv4Addr;

/// Length of an options-free TCP header.
pub const HEADER_LEN: usize = 20;

/// Maximum TCP header length (data offset is 4 bits of 32-bit words).
pub const MAX_HEADER_LEN: usize = 60;

/// A 32-bit TCP sequence number with wrapping comparison (RFC 1982-style
/// serial-number arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SeqNum(pub u32);

impl SeqNum {
    /// Sequence-space addition.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, n: usize) -> SeqNum {
        SeqNum(self.0.wrapping_add(n as u32))
    }

    /// Signed distance from `other` to `self` (positive if `self` is
    /// after `other` in sequence space).
    pub fn diff(self, other: SeqNum) -> i64 {
        i64::from(self.0.wrapping_sub(other.0) as i32)
    }

    /// Whether `self` is strictly after `other` in sequence space.
    pub fn after(self, other: SeqNum) -> bool {
        self.diff(other) > 0
    }

    /// Whether `self` is at-or-after `other`.
    pub fn at_or_after(self, other: SeqNum) -> bool {
        self.diff(other) >= 0
    }
}

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// FIN: sender is done sending.
    pub fin: bool,
    /// SYN: synchronise sequence numbers.
    pub syn: bool,
    /// RST: reset the connection.
    pub rst: bool,
    /// PSH: push buffered data to the application.
    pub psh: bool,
    /// ACK: the acknowledgment field is significant.
    pub ack: bool,
    /// URG: the urgent pointer is significant.
    pub urg: bool,
    /// ECE: ECN-Echo (RFC 3168) — the receiver saw a congestion mark.
    pub ece: bool,
    /// CWR: Congestion Window Reduced (RFC 3168) — the sender answered
    /// an ECE.
    pub cwr: bool,
}

impl TcpFlags {
    /// Flags for a plain data/ack segment.
    pub const ACK: TcpFlags = TcpFlags {
        fin: false,
        syn: false,
        rst: false,
        psh: false,
        ack: true,
        urg: false,
        ece: false,
        cwr: false,
    };
    /// Flags for an initial SYN.
    pub const SYN: TcpFlags = TcpFlags {
        fin: false,
        syn: true,
        rst: false,
        psh: false,
        ack: false,
        urg: false,
        ece: false,
        cwr: false,
    };
    /// Flags for a SYN-ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        fin: false,
        syn: true,
        rst: false,
        psh: false,
        ack: true,
        urg: false,
        ece: false,
        cwr: false,
    };

    fn to_byte(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
            | (self.urg as u8) << 5
            | (self.ece as u8) << 6
            | (self.cwr as u8) << 7
    }

    fn from_byte(b: u8) -> Self {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
            urg: b & 0x20 != 0,
            ece: b & 0x40 != 0,
            cwr: b & 0x80 != 0,
        }
    }
}

/// TCP options PXGW understands. Unknown options are carried opaquely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpOption {
    /// Maximum segment size (kind 2), SYN-only.
    Mss(u16),
    /// Window scale shift (kind 3), SYN-only.
    WindowScale(u8),
    /// SACK permitted (kind 4), SYN-only.
    SackPermitted,
    /// Timestamps (kind 8): TSval, TSecr.
    Timestamps(u32, u32),
    /// SACK blocks (kind 5): up to four (start, end) wire-sequence pairs
    /// of data received above the cumulative ACK (RFC 2018).
    Sack(Vec<(SeqNum, SeqNum)>),
    /// Any other option: (kind, payload bytes after kind+len).
    Unknown(u8, Vec<u8>),
}

impl TcpOption {
    /// Encoded length of this option in bytes.
    pub fn wire_len(&self) -> usize {
        match self {
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Timestamps(..) => 10,
            TcpOption::Sack(blocks) => 2 + 8 * blocks.len(),
            TcpOption::Unknown(_, data) => 2 + data.len(),
        }
    }
}

/// Parses a TCP options block (the bytes between the fixed header and the
/// payload), tolerating NOP padding and stopping at EOL.
pub fn parse_options(mut block: &[u8]) -> Result<Vec<TcpOption>> {
    let mut opts = Vec::new();
    while !block.is_empty() {
        match block[0] {
            0 => break, // EOL
            1 => {
                block = bytes::range_from(block, 1); // NOP
                continue;
            }
            kind => {
                if block.len() < 2 {
                    return Err(Error::Malformed);
                }
                let len = usize::from(block[1]);
                if len < 2 || len > block.len() {
                    return Err(Error::Malformed);
                }
                let body = bytes::range(block, 2, len);
                let opt = match (kind, body.len()) {
                    (2, 2) => TcpOption::Mss(bytes::be16(body, 0)),
                    (3, 1) => TcpOption::WindowScale(body[0]),
                    (4, 0) => TcpOption::SackPermitted,
                    (5, n) if n % 8 == 0 && n <= 32 => TcpOption::Sack(
                        body.chunks_exact(8)
                            .map(|c| (SeqNum(bytes::be32(c, 0)), SeqNum(bytes::be32(c, 4))))
                            .collect(),
                    ),
                    (8, 8) => TcpOption::Timestamps(bytes::be32(body, 0), bytes::be32(body, 4)),
                    _ => TcpOption::Unknown(kind, body.to_vec()),
                };
                opts.push(opt);
                block = bytes::range_from(block, len);
            }
        }
    }
    Ok(opts)
}

/// The shape of one parsed option — [`parse_options`]' discriminant
/// without the payload, for allocation-free layout comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OptionClass {
    Mss,
    WindowScale,
    SackPermitted,
    Sack,
    Timestamps,
    Unknown,
}

/// Advances `block` past NOPs to the next option and classifies it.
/// `Ok(None)` on EOL or end of block; `Err` on the same malformed shapes
/// [`parse_options`] rejects.
fn next_option_class(block: &mut &[u8]) -> Result<Option<OptionClass>> {
    while !block.is_empty() {
        match block[0] {
            0 => return Ok(None), // EOL ends the walk, as in parse_options
            1 => *block = bytes::range_from(block, 1),
            kind => {
                if block.len() < 2 {
                    return Err(Error::Malformed);
                }
                let len = usize::from(block[1]);
                if len < 2 || len > block.len() {
                    return Err(Error::Malformed);
                }
                let class = match (kind, len - 2) {
                    (2, 2) => OptionClass::Mss,
                    (3, 1) => OptionClass::WindowScale,
                    (4, 0) => OptionClass::SackPermitted,
                    (5, n) if n % 8 == 0 && n <= 32 => OptionClass::Sack,
                    (8, 8) => OptionClass::Timestamps,
                    _ => OptionClass::Unknown,
                };
                *block = bytes::range_from(block, len);
                return Ok(Some(class));
            }
        }
    }
    Ok(None)
}

/// Whether two option blocks have the same *layout* — the same sequence
/// of option-kind discriminants, exactly as comparing
/// `parse_options(a)`/`parse_options(b)` results with
/// `mem::discriminant` would decide, but without allocating. Either
/// block being malformed makes the pair incompatible (the allocating
/// path fails to parse and refuses to coalesce).
pub fn options_layout_compatible(a: &[u8], b: &[u8]) -> bool {
    let (mut a, mut b) = (a, b);
    loop {
        match (next_option_class(&mut a), next_option_class(&mut b)) {
            (Ok(Some(x)), Ok(Some(y))) if x == y => {}
            (Ok(None), Ok(None)) => return true,
            _ => return false,
        }
    }
}

/// Encodes options, NOP-padding to a multiple of 4 bytes. Returns the
/// padded block.
pub fn emit_options(opts: &[TcpOption]) -> Vec<u8> {
    let mut out = Vec::new();
    for opt in opts {
        match opt {
            TcpOption::Mss(v) => {
                out.extend_from_slice(&[2, 4]);
                out.extend_from_slice(&v.to_be_bytes());
            }
            TcpOption::WindowScale(s) => out.extend_from_slice(&[3, 3, *s]),
            TcpOption::SackPermitted => out.extend_from_slice(&[4, 2]),
            TcpOption::Timestamps(val, ecr) => {
                out.extend_from_slice(&[8, 10]);
                out.extend_from_slice(&val.to_be_bytes());
                out.extend_from_slice(&ecr.to_be_bytes());
            }
            TcpOption::Sack(blocks) => {
                debug_assert!(blocks.len() <= 4);
                out.push(5);
                out.push((2 + 8 * blocks.len()) as u8);
                for (s, e) in blocks {
                    out.extend_from_slice(&s.0.to_be_bytes());
                    out.extend_from_slice(&e.0.to_be_bytes());
                }
            }
            TcpOption::Unknown(kind, data) => {
                out.push(*kind);
                out.push((data.len() + 2) as u8);
                out.extend_from_slice(data);
            }
        }
    }
    while out.len() % 4 != 0 {
        out.push(1); // NOP padding
    }
    out
}

/// A typed view over a TCP segment (header + payload, no IP header).
#[derive(Debug, Clone)]
pub struct TcpSegment<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> TcpSegment<T> {
    /// Wraps a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        TcpSegment { buffer }
    }

    /// Wraps a buffer, validating the data offset against the buffer.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let seg = TcpSegment { buffer };
        let b = seg.buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let hl = seg.header_len();
        if !(HEADER_LEN..=MAX_HEADER_LEN).contains(&hl) || b.len() < hl {
            return Err(Error::Malformed);
        }
        Ok(seg)
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        bytes::be16(self.buffer.as_ref(), 0)
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        bytes::be16(self.buffer.as_ref(), 2)
    }

    /// Sequence number.
    pub fn seq(&self) -> SeqNum {
        SeqNum(bytes::be32(self.buffer.as_ref(), 4))
    }

    /// Acknowledgment number.
    pub fn ack(&self) -> SeqNum {
        SeqNum(bytes::be32(self.buffer.as_ref(), 8))
    }

    /// Header length in bytes (data offset × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[12] >> 4) * 4
    }

    /// Flag bits.
    pub fn flags(&self) -> TcpFlags {
        TcpFlags::from_byte(self.buffer.as_ref()[13])
    }

    /// Receive window (unscaled).
    pub fn window(&self) -> u16 {
        bytes::be16(self.buffer.as_ref(), 14)
    }

    /// Checksum field.
    pub fn checksum_field(&self) -> u16 {
        bytes::be16(self.buffer.as_ref(), 16)
    }

    /// The raw options block.
    pub fn options(&self) -> &[u8] {
        bytes::range(self.buffer.as_ref(), HEADER_LEN, self.header_len())
    }

    /// The payload after the header.
    pub fn payload(&self) -> &[u8] {
        bytes::range_from(self.buffer.as_ref(), self.header_len())
    }

    /// Verifies the transport checksum given the IP pseudo-header inputs.
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        let b = self.buffer.as_ref();
        let pseudo = checksum::pseudo_header_sum(src, dst, IpProtocol::Tcp.into(), b.len() as u16);
        checksum::combine(pseudo, checksum::ones_complement_sum(b)) == 0xFFFF
    }

    /// Releases the inner buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TcpSegment<T> {
    /// Sets the source port.
    pub fn set_src_port(&mut self, p: u16) {
        bytes::put_be16(self.buffer.as_mut(), 0, p);
    }

    /// Sets the destination port.
    pub fn set_dst_port(&mut self, p: u16) {
        bytes::put_be16(self.buffer.as_mut(), 2, p);
    }

    /// Sets the sequence number.
    pub fn set_seq(&mut self, s: SeqNum) {
        bytes::put_be32(self.buffer.as_mut(), 4, s.0);
    }

    /// Sets the acknowledgment number.
    pub fn set_ack(&mut self, s: SeqNum) {
        bytes::put_be32(self.buffer.as_mut(), 8, s.0);
    }

    /// Sets the header length in bytes (multiple of 4).
    pub fn set_header_len(&mut self, len: usize) {
        debug_assert!(len.is_multiple_of(4) && (HEADER_LEN..=MAX_HEADER_LEN).contains(&len));
        let b = self.buffer.as_mut();
        b[12] = ((len / 4) as u8) << 4;
    }

    /// Sets the flags byte.
    pub fn set_flags(&mut self, f: TcpFlags) {
        self.buffer.as_mut()[13] = f.to_byte();
    }

    /// Sets the receive window.
    pub fn set_window(&mut self, w: u16) {
        bytes::put_be16(self.buffer.as_mut(), 14, w);
    }

    /// Zeroes, computes, and writes the transport checksum.
    pub fn fill_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        let b = self.buffer.as_mut();
        bytes::put_be16(b, 16, 0);
        let ck = checksum::transport_checksum(src, dst, IpProtocol::Tcp.into(), b);
        bytes::put_be16(b, 16, ck);
    }

    /// The payload, mutably.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let start = self.header_len();
        bytes::range_from_mut(self.buffer.as_mut(), start)
    }
}

/// A parsed, plain-Rust TCP header (options decoded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpRepr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: SeqNum,
    /// Acknowledgment number.
    pub ack: SeqNum,
    /// Flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Decoded options.
    pub options: Vec<TcpOption>,
}

impl TcpRepr {
    /// Parses a segment view into a repr.
    pub fn parse<T: AsRef<[u8]>>(seg: &TcpSegment<T>) -> Result<Self> {
        Ok(TcpRepr {
            src_port: seg.src_port(),
            dst_port: seg.dst_port(),
            seq: seg.seq(),
            ack: seg.ack(),
            flags: seg.flags(),
            window: seg.window(),
            options: parse_options(seg.options())?,
        })
    }

    /// The MSS option value, if present.
    pub fn mss(&self) -> Option<u16> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Mss(v) => Some(*v),
            _ => None,
        })
    }

    /// Header length this repr will occupy on the wire.
    pub fn header_len(&self) -> usize {
        let optlen: usize = self.options.iter().map(TcpOption::wire_len).sum();
        HEADER_LEN + optlen.div_ceil(4) * 4
    }

    /// Builds a complete segment (header + options + payload) with a valid
    /// checksum, as a fresh byte vector.
    pub fn build_segment(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
        let opts = emit_options(&self.options);
        let hlen = HEADER_LEN + opts.len();
        let mut buf = vec![0u8; hlen + payload.len()];
        bytes::put(&mut buf, HEADER_LEN, &opts);
        bytes::put(&mut buf, hlen, payload);
        let mut seg = TcpSegment::new_unchecked(&mut buf[..]);
        seg.set_src_port(self.src_port);
        seg.set_dst_port(self.dst_port);
        seg.set_seq(self.seq);
        seg.set_ack(self.ack);
        seg.set_header_len(hlen);
        seg.set_flags(self.flags);
        seg.set_window(self.window);
        seg.fill_checksum(src, dst);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn syn_repr() -> TcpRepr {
        TcpRepr {
            src_port: 40000,
            dst_port: 80,
            seq: SeqNum(1000),
            ack: SeqNum(0),
            flags: TcpFlags::SYN,
            window: 65535,
            options: vec![
                TcpOption::Mss(8960),
                TcpOption::SackPermitted,
                TcpOption::WindowScale(7),
                TcpOption::Timestamps(111, 0),
            ],
        }
    }

    #[test]
    fn build_parse_roundtrip_with_options() {
        let repr = syn_repr();
        let buf = repr.build_segment(SRC, DST, b"");
        let seg = TcpSegment::new_checked(&buf[..]).unwrap();
        assert!(seg.verify_checksum(SRC, DST));
        let parsed = TcpRepr::parse(&seg).unwrap();
        assert_eq!(parsed.mss(), Some(8960));
        assert_eq!(parsed.options, repr.options);
        assert_eq!(parsed.seq, SeqNum(1000));
        assert!(parsed.flags.syn && !parsed.flags.ack);
    }

    #[test]
    fn flags_round_trip_all_eight_bits() {
        for b in 0..=u8::MAX {
            assert_eq!(TcpFlags::from_byte(b).to_byte(), b, "flags byte {b:#04x}");
        }
        let mut buf = syn_repr().build_segment(SRC, DST, b"");
        let mut seg = TcpSegment::new_unchecked(&mut buf[..]);
        let mut f = TcpFlags::ACK;
        f.ece = true;
        f.cwr = true;
        seg.set_flags(f);
        assert_eq!(seg.flags(), f);
        assert_eq!(buf[13], 0xD0, "CWR | ECE | ACK");
    }

    #[test]
    fn payload_checksum_roundtrip() {
        let mut repr = syn_repr();
        repr.flags = TcpFlags::ACK;
        repr.options = vec![TcpOption::Timestamps(5, 6)];
        let buf = repr.build_segment(SRC, DST, b"GET / HTTP/1.1\r\n");
        let seg = TcpSegment::new_checked(&buf[..]).unwrap();
        assert!(seg.verify_checksum(SRC, DST));
        assert_eq!(seg.payload(), b"GET / HTTP/1.1\r\n");
        // Flip a payload byte: checksum must fail.
        let mut bad = buf.clone();
        let n = bad.len() - 1;
        bad[n] ^= 0x01;
        let seg = TcpSegment::new_checked(&bad[..]).unwrap();
        assert!(!seg.verify_checksum(SRC, DST));
    }

    #[test]
    fn seqnum_wrapping_arithmetic() {
        let a = SeqNum(u32::MAX - 1);
        let b = a.add(4);
        assert_eq!(b, SeqNum(2));
        assert_eq!(b.diff(a), 4);
        assert_eq!(a.diff(b), -4);
        assert!(b.after(a));
        assert!(!a.after(b));
        assert!(b.at_or_after(b));
    }

    #[test]
    fn options_nop_and_eol_tolerated() {
        // NOP NOP MSS(1460) EOL trailing-junk
        let block = [1u8, 1, 2, 4, 0x05, 0xb4, 0, 0xde, 0xad];
        let opts = parse_options(&block).unwrap();
        assert_eq!(opts, vec![TcpOption::Mss(1460)]);
    }

    #[test]
    fn malformed_options_rejected() {
        assert_eq!(parse_options(&[2]).unwrap_err(), Error::Malformed); // truncated kind+len
        assert_eq!(parse_options(&[2, 1]).unwrap_err(), Error::Malformed); // len < 2
        assert_eq!(parse_options(&[2, 10, 0]).unwrap_err(), Error::Malformed); // len > block
    }

    #[test]
    fn sack_option_roundtrip() {
        let opts = vec![TcpOption::Sack(vec![
            (SeqNum(1000), SeqNum(2000)),
            (SeqNum(9000), SeqNum(9500)),
        ])];
        let block = emit_options(&opts);
        assert_eq!(block.len() % 4, 0);
        assert_eq!(parse_options(&block).unwrap(), opts);
    }

    #[test]
    fn sack_with_bad_length_falls_back_to_unknown() {
        // kind 5, len 2+5 (not a multiple of 8): parse as Unknown.
        let block = [5u8, 7, 1, 2, 3, 4, 5, 1];
        let opts = parse_options(&block).unwrap();
        assert!(matches!(opts[0], TcpOption::Unknown(5, _)));
    }

    #[test]
    fn unknown_options_roundtrip() {
        let opts = vec![TcpOption::Unknown(254, vec![0xAA, 0xBB, 0xCC])];
        let block = emit_options(&opts);
        assert_eq!(block.len() % 4, 0);
        assert_eq!(parse_options(&block).unwrap(), opts);
    }

    #[test]
    fn header_len_includes_padded_options() {
        let repr = syn_repr();
        // MSS(4) + SACKP(2) + WS(3) + TS(10) = 19 -> padded 20.
        assert_eq!(repr.header_len(), HEADER_LEN + 20);
        let buf = repr.build_segment(SRC, DST, b"x");
        let seg = TcpSegment::new_checked(&buf[..]).unwrap();
        assert_eq!(seg.header_len(), repr.header_len());
        assert_eq!(seg.payload(), b"x");
    }

    #[test]
    fn rejects_bad_data_offset() {
        let mut buf = syn_repr().build_segment(SRC, DST, b"");
        buf[12] = 0x30; // data offset 12 bytes < 20
        assert_eq!(
            TcpSegment::new_checked(&buf[..]).unwrap_err(),
            Error::Malformed
        );
    }

    /// The allocating reference: discriminant sequences from
    /// `parse_options`, or `None` when parsing fails.
    fn layout_via_parse(block: &[u8]) -> Option<Vec<std::mem::Discriminant<TcpOption>>> {
        parse_options(block)
            .ok()
            .map(|opts| opts.iter().map(std::mem::discriminant).collect())
    }

    #[test]
    fn layout_compat_matches_parse_options_discriminants() {
        let vectors: &[&[u8]] = &[
            &[],
            &[1, 1, 1, 1],                          // all NOPs
            &[2, 4, 0x05, 0xb4],                    // MSS
            &[2, 4, 0x23, 0x28],                    // MSS, other value
            &[3, 3, 7, 1],                          // WS + NOP pad
            &[1, 4, 2],                             // NOP + SackPermitted
            &[8, 10, 0, 0, 0, 1, 0, 0, 0, 2, 1, 1], // timestamps + pad
            &[5, 10, 0, 0, 0, 1, 0, 0, 0, 2],       // one SACK block
            &[99, 4, 0xAA, 0xBB],                   // unknown kind
            &[77, 6, 1, 2, 3, 4],                   // different unknown
            &[0, 2, 4],                             // EOL stops the walk
            &[2, 4, 0x05],                          // truncated: malformed
            &[2, 1],                                // len < 2: malformed
        ];
        for a in vectors {
            for b in vectors {
                let reference = match (layout_via_parse(a), layout_via_parse(b)) {
                    (Some(x), Some(y)) => x == y,
                    _ => false,
                };
                assert_eq!(
                    options_layout_compatible(a, b),
                    reference,
                    "layout compat diverged from parse_options on {a:?} vs {b:?}"
                );
            }
        }
    }
}
