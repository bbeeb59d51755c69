//! IPv4 headers (RFC 791), options-free.
//!
//! The DS/ToS field matters to PacketExpress: PXGW marks PX-caravan packets
//! by setting a designated ToS value (paper §4.1), so the receiving host
//! stack knows to unbundle the inner datagrams.

use crate::bytes;
use crate::checksum;
use crate::error::{Error, Result};
use crate::flow::IpProtocol;
use std::net::Ipv4Addr;

/// Length of an options-free IPv4 header.
pub const HEADER_LEN: usize = 20;

/// Maximum IPv4 total length.
pub const MAX_TOTAL_LEN: usize = 65535;

/// The ToS/DSCP value PXGW writes into PX-caravan outer headers so that
/// caravan-aware receivers recognise tunnelled UDP bundles (paper §4.1:
/// "The PXGW function designates the IP header's ToS field to indicate
/// that the packet has been tunneled"). DSCP 44 (0xB0 as a ToS byte) is
/// unused by standard per-hop behaviours.
pub const CARAVAN_TOS: u8 = 0xB0;

/// A typed view over an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wraps a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Ipv4Packet { buffer }
    }

    /// Wraps a buffer, validating version, header length, and total length
    /// against the buffer size.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let pkt = Ipv4Packet { buffer };
        pkt.check()?;
        Ok(pkt)
    }

    fn check(&self) -> Result<()> {
        let b = self.buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if b[0] >> 4 != 4 {
            return Err(Error::Unsupported);
        }
        let ihl = usize::from(b[0] & 0x0F) * 4;
        if ihl < HEADER_LEN || b.len() < ihl {
            return Err(Error::Malformed);
        }
        let total = usize::from(bytes::be16(b, 2));
        if total < ihl || total > b.len() {
            return Err(Error::Malformed);
        }
        Ok(())
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[0] & 0x0F) * 4
    }

    /// The ToS/DSCP byte.
    pub fn tos(&self) -> u8 {
        self.buffer.as_ref()[1]
    }

    /// Total length field (header + payload).
    pub fn total_len(&self) -> usize {
        usize::from(bytes::be16(self.buffer.as_ref(), 2))
    }

    /// Identification field.
    pub fn ident(&self) -> u16 {
        bytes::be16(self.buffer.as_ref(), 4)
    }

    /// Don't Fragment flag.
    pub fn dont_frag(&self) -> bool {
        self.buffer.as_ref()[6] & 0x40 != 0
    }

    /// More Fragments flag.
    pub fn more_frags(&self) -> bool {
        self.buffer.as_ref()[6] & 0x20 != 0
    }

    /// Fragment offset in bytes (the field is in 8-byte units).
    pub fn frag_offset(&self) -> usize {
        let b = self.buffer.as_ref();
        usize::from(u16::from_be_bytes([b[6] & 0x1F, b[7]])) * 8
    }

    /// Whether this packet is a fragment (offset ≠ 0 or MF set).
    pub fn is_fragment(&self) -> bool {
        self.more_frags() || self.frag_offset() != 0
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[8]
    }

    /// Transport protocol.
    pub fn protocol(&self) -> IpProtocol {
        self.buffer.as_ref()[9].into()
    }

    /// Header checksum field.
    pub fn header_checksum(&self) -> u16 {
        bytes::be16(self.buffer.as_ref(), 10)
    }

    /// Source address.
    pub fn src(&self) -> Ipv4Addr {
        let b = self.buffer.as_ref();
        Ipv4Addr::new(b[12], b[13], b[14], b[15])
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv4Addr {
        let b = self.buffer.as_ref();
        Ipv4Addr::new(b[16], b[17], b[18], b[19])
    }

    /// Verifies the header checksum.
    pub fn verify_checksum(&self) -> bool {
        let b = self.buffer.as_ref();
        checksum::ones_complement_sum(bytes::range_to(b, self.header_len())) == 0xFFFF
    }

    /// The transport payload (respects total length, skips the header).
    pub fn payload(&self) -> &[u8] {
        let b = self.buffer.as_ref();
        bytes::range(b, self.header_len(), self.total_len())
    }

    /// Releases the inner buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Sets version=4 and the header length (bytes, multiple of 4).
    pub fn set_version_and_len(&mut self, header_len: usize) {
        debug_assert!(header_len.is_multiple_of(4) && header_len >= HEADER_LEN);
        self.buffer.as_mut()[0] = 0x40 | ((header_len / 4) as u8);
    }

    /// Sets the ToS byte.
    pub fn set_tos(&mut self, tos: u8) {
        self.buffer.as_mut()[1] = tos;
    }

    /// Sets total length.
    pub fn set_total_len(&mut self, len: u16) {
        bytes::put_be16(self.buffer.as_mut(), 2, len);
    }

    /// Sets the identification field.
    pub fn set_ident(&mut self, id: u16) {
        bytes::put_be16(self.buffer.as_mut(), 4, id);
    }

    /// Sets DF/MF flags and fragment offset (in bytes; must be a multiple
    /// of 8 unless this is the final fragment).
    pub fn set_frag_fields(&mut self, dont_frag: bool, more_frags: bool, offset_bytes: usize) {
        debug_assert!(offset_bytes.is_multiple_of(8));
        let units = (offset_bytes / 8) as u16;
        debug_assert!(units <= 0x1FFF);
        let mut word = units & 0x1FFF;
        if dont_frag {
            word |= 0x4000;
        }
        if more_frags {
            word |= 0x2000;
        }
        bytes::put_be16(self.buffer.as_mut(), 6, word);
    }

    /// Sets the TTL.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[8] = ttl;
    }

    /// Decrements the TTL and incrementally patches the header checksum
    /// (what a router does per hop).
    pub fn decrement_ttl(&mut self) {
        let b = self.buffer.as_mut();
        if b.len() < HEADER_LEN || b[8] == 0 {
            return; // nothing sane to do on a runt or an expired TTL
        }
        let old_word = bytes::be16(b, 8);
        b[8] -= 1;
        let new_word = bytes::be16(b, 8);
        let old_ck = bytes::be16(b, 10);
        let new_ck = checksum::incremental_update(old_ck, old_word, new_word);
        bytes::put_be16(b, 10, new_ck);
    }

    /// Sets the transport protocol.
    pub fn set_protocol(&mut self, p: IpProtocol) {
        self.buffer.as_mut()[9] = p.into();
    }

    /// Sets source address.
    pub fn set_src(&mut self, a: Ipv4Addr) {
        bytes::put(self.buffer.as_mut(), 12, &a.octets());
    }

    /// Sets destination address.
    pub fn set_dst(&mut self, a: Ipv4Addr) {
        bytes::put(self.buffer.as_mut(), 16, &a.octets());
    }

    /// Zeroes the checksum field, computes the header checksum, and writes
    /// it back.
    pub fn fill_checksum(&mut self) {
        let hlen = self.header_len();
        let b = self.buffer.as_mut();
        bytes::put_be16(b, 10, 0);
        let ck = checksum::checksum(bytes::range_to(b, hlen));
        bytes::put_be16(b, 10, ck);
    }

    /// The transport payload, mutably.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let start = self.header_len();
        let end = self.total_len();
        bytes::range_mut(self.buffer.as_mut(), start, end)
    }
}

/// A parsed, plain-Rust IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport protocol.
    pub protocol: IpProtocol,
    /// ToS/DSCP byte.
    pub tos: u8,
    /// Identification (for fragmentation).
    pub ident: u16,
    /// Don't Fragment flag.
    pub dont_frag: bool,
    /// More Fragments flag.
    pub more_frags: bool,
    /// Fragment offset in bytes.
    pub frag_offset: usize,
    /// Time to live.
    pub ttl: u8,
    /// Payload length in bytes (total length − header length).
    pub payload_len: usize,
}

impl Ipv4Repr {
    /// A sensible default header for a fresh, unfragmented packet.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload_len: usize) -> Self {
        Ipv4Repr {
            src,
            dst,
            protocol,
            tos: 0,
            ident: 0,
            dont_frag: false,
            more_frags: false,
            frag_offset: 0,
            ttl: 64,
            payload_len,
        }
    }

    /// Parses a view into a repr (header fields only).
    pub fn parse<T: AsRef<[u8]>>(pkt: &Ipv4Packet<T>) -> Result<Self> {
        if !pkt.verify_checksum() {
            return Err(Error::Checksum);
        }
        Ok(Ipv4Repr {
            src: pkt.src(),
            dst: pkt.dst(),
            protocol: pkt.protocol(),
            tos: pkt.tos(),
            ident: pkt.ident(),
            dont_frag: pkt.dont_frag(),
            more_frags: pkt.more_frags(),
            frag_offset: pkt.frag_offset(),
            ttl: pkt.ttl(),
            payload_len: pkt.total_len() - pkt.header_len(),
        })
    }

    /// Total length this header describes.
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emits the header into the first 20 bytes of `pkt` and fills the
    /// checksum. The buffer must be at least `total_len()` long.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, pkt: &mut Ipv4Packet<T>) -> Result<()> {
        if pkt.buffer.as_ref().len() < self.total_len() {
            return Err(Error::BufferTooSmall);
        }
        self.emit_header(pkt)
    }

    /// Emits the header alone into the first 20 bytes of `pkt` and fills
    /// the checksum; the payload it describes may live elsewhere (the
    /// payload segment of a scatter-gather view), so the buffer need only
    /// hold the header.
    pub fn emit_header<T: AsRef<[u8]> + AsMut<[u8]>>(&self, pkt: &mut Ipv4Packet<T>) -> Result<()> {
        if self.total_len() > MAX_TOTAL_LEN {
            return Err(Error::FieldRange);
        }
        if pkt.buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::BufferTooSmall);
        }
        pkt.set_version_and_len(HEADER_LEN);
        pkt.set_tos(self.tos);
        pkt.set_total_len(self.total_len() as u16);
        pkt.set_ident(self.ident);
        pkt.set_frag_fields(self.dont_frag, self.more_frags, self.frag_offset);
        pkt.set_ttl(self.ttl);
        pkt.set_protocol(self.protocol);
        pkt.set_src(self.src);
        pkt.set_dst(self.dst);
        pkt.fill_checksum();
        Ok(())
    }

    /// Builds a complete packet (header + payload) as a fresh byte vector.
    pub fn build_packet(&self, payload: &[u8]) -> Result<Vec<u8>> {
        debug_assert_eq!(self.payload_len, payload.len());
        let mut buf = vec![0u8; HEADER_LEN + payload.len()];
        bytes::put(&mut buf, HEADER_LEN, payload);
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        self.emit(&mut pkt)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> Ipv4Repr {
        Ipv4Repr {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(192, 168, 1, 2),
            protocol: IpProtocol::Udp,
            tos: 0,
            ident: 0x1234,
            dont_frag: true,
            more_frags: false,
            frag_offset: 0,
            ttl: 64,
            payload_len: 11,
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let repr = sample_repr();
        let buf = repr.build_packet(b"hello world").unwrap();
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(pkt.verify_checksum());
        assert_eq!(Ipv4Repr::parse(&pkt).unwrap(), repr);
        assert_eq!(pkt.payload(), b"hello world");
        // The header alone, with its payload elsewhere: `emit_header`
        // fills a 20-byte buffer `emit` refuses, with the same bytes.
        let mut hdr = [0u8; HEADER_LEN];
        assert_eq!(
            repr.emit(&mut Ipv4Packet::new_unchecked(&mut hdr[..])),
            Err(Error::BufferTooSmall)
        );
        repr.emit_header(&mut Ipv4Packet::new_unchecked(&mut hdr[..]))
            .unwrap();
        assert_eq!(hdr[..], buf[..HEADER_LEN]);
    }

    #[test]
    fn fragment_fields_roundtrip() {
        let mut repr = sample_repr();
        repr.dont_frag = false;
        repr.more_frags = true;
        repr.frag_offset = 1480;
        let buf = repr.build_packet(&[0u8; 11]).unwrap();
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(pkt.is_fragment());
        assert!(pkt.more_frags());
        assert!(!pkt.dont_frag());
        assert_eq!(pkt.frag_offset(), 1480);
    }

    #[test]
    fn corrupted_checksum_detected() {
        let buf = sample_repr().build_packet(&[0u8; 11]).unwrap();
        let mut bad = buf.clone();
        bad[8] ^= 0xFF; // mangle TTL
        let pkt = Ipv4Packet::new_checked(&bad[..]).unwrap();
        assert!(!pkt.verify_checksum());
        assert_eq!(Ipv4Repr::parse(&pkt).unwrap_err(), Error::Checksum);
    }

    #[test]
    fn ttl_decrement_keeps_checksum_valid() {
        let buf = sample_repr().build_packet(&[0u8; 11]).unwrap();
        let mut buf = buf;
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        pkt.decrement_ttl();
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.ttl(), 63);
        assert!(pkt.verify_checksum());
    }

    #[test]
    fn rejects_wrong_version_and_short_buffers() {
        assert_eq!(
            Ipv4Packet::new_checked(&[0u8; 10][..]).unwrap_err(),
            Error::Truncated
        );
        let mut buf = sample_repr().build_packet(&[0u8; 11]).unwrap();
        buf[0] = 0x65; // version 6
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            Error::Unsupported
        );
    }

    #[test]
    fn rejects_bad_total_len() {
        let mut buf = sample_repr().build_packet(&[0u8; 11]).unwrap();
        buf[2..4].copy_from_slice(&1000u16.to_be_bytes()); // longer than buffer
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn payload_respects_total_len_with_trailing_junk() {
        let repr = sample_repr();
        let mut buf = repr.build_packet(b"hello world").unwrap();
        buf.extend_from_slice(&[0xEE; 7]); // ethernet padding etc.
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.payload(), b"hello world");
    }
}
