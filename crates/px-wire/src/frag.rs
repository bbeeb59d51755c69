//! IPv4 fragmentation and reassembly (RFC 791 §3.2).
//!
//! This is the substrate F-PMTUD rides on: a router that must forward a
//! packet larger than the egress MTU (and DF clear) calls [`fragment`];
//! the destination host feeds fragments into a [`Reassembler`]. The
//! F-PMTUD daemon additionally inspects the *sizes* of the fragments it
//! receives — the largest fragment's total length reveals the smallest
//! MTU on the path.

use crate::bytes;
use crate::error::{Error, Result};
use crate::flow::IpProtocol;
use crate::ipv4::Ipv4Packet;
use crate::pool::{BufPool, PacketSink};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Fragments a complete IPv4 packet so every fragment's total length is
/// ≤ `mtu`. Works on already-fragmented packets too (offsets accumulate,
/// the MF bit of the final piece preserves the original's MF).
///
/// Returns [`Error::FieldRange`] if the packet has DF set and does not
/// fit (the caller — a router — should then drop it and, if it is not an
/// ICMP-suppressing hop, emit a *fragmentation needed* message).
pub fn fragment(packet: &[u8], mtu: usize) -> Result<Vec<Vec<u8>>> {
    // Right-sized one-shot buffers: max_free 0 keeps the wrapper's
    // allocation behaviour (one Vec per fragment) without growth
    // reallocations inside the fill loop.
    let mut pool = BufPool::new(0, mtu, 0);
    let mut sink = crate::VecSink::new();
    fragment_into(packet, mtu, &mut pool, &mut sink)?;
    Ok(sink.into_pkts())
}

/// [`fragment`] with pooled buffers and sink-based emission — the
/// allocation-free form the PXGW split engine drives. Returns the number
/// of fragments delivered; on error nothing is emitted.
pub fn fragment_into(
    packet: &[u8],
    mtu: usize,
    pool: &mut BufPool,
    sink: &mut impl PacketSink,
) -> Result<usize> {
    let pkt = Ipv4Packet::new_checked(packet)?;
    if pkt.total_len() <= mtu {
        let mut buf = pool.get();
        // px-analyze: allow(R7, reason = "fits-in-MTU passthrough lands the datagram in a pool buffer the sink can own; the zero-copy route for unfragmented traffic is the SG split path, not this shim")
        buf.extend_from_slice(bytes::range_to(packet, pkt.total_len()));
        if let Some(b) = sink.accept(buf) {
            pool.put(b);
        }
        return Ok(1);
    }
    if pkt.dont_frag() {
        return Err(Error::FieldRange);
    }
    let header_len = pkt.header_len();
    if mtu < header_len + 8 {
        return Err(Error::FieldRange);
    }
    // Payload bytes per fragment must be a multiple of 8 (except the last).
    let max_payload = (mtu - header_len) / 8 * 8;
    let payload = pkt.payload();
    let base_offset = pkt.frag_offset();
    let original_mf = pkt.more_frags();

    let mut emitted = 0usize;
    let mut off = 0usize;
    while off < payload.len() {
        let take = max_payload.min(payload.len() - off);
        let last = off + take == payload.len();
        let mut frag = pool.get();
        // px-analyze: allow(R7, reason = "RFC 791 fragmentation materialises a fresh header per fragment by definition; the bytes are then mutated in place (offset, MF, checksum)")
        frag.extend_from_slice(bytes::range_to(packet, header_len));
        // px-analyze: allow(R7, reason = "each fragment owns a disjoint payload slice that outlives the source datagram, so the copy is inherent to IP fragmentation, not an implementation shortcut")
        frag.extend_from_slice(bytes::range(payload, off, off + take));
        let mut fp = Ipv4Packet::new_unchecked(frag.as_mut_slice());
        fp.set_total_len((header_len + take) as u16);
        fp.set_frag_fields(false, !last || original_mf, base_offset + off);
        fp.fill_checksum();
        if let Some(b) = sink.accept(frag) {
            pool.put(b);
        }
        emitted += 1;
        off += take;
    }
    Ok(emitted)
}

/// Key identifying one datagram's fragments (RFC 791: src, dst, protocol,
/// identification).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FragKey {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport protocol.
    pub proto: IpProtocol,
    /// IP identification field.
    pub ident: u16,
}

#[derive(Debug)]
struct PartialDatagram {
    /// Received payload ranges: (start, bytes).
    pieces: Vec<(usize, Vec<u8>)>,
    /// Total payload length, known once the MF=0 fragment arrives.
    total_payload: Option<usize>,
    /// Copy of the first-fragment header (offset 0), used to rebuild.
    first_header: Option<Vec<u8>>,
    /// Sizes (total lengths) of the fragments that brought payload
    /// bytes no earlier fragment had, in arrival order — what the
    /// F-PMTUD daemon reports.
    fragment_sizes: Vec<usize>,
    /// Creation timestamp in caller-defined time units.
    created_at: u64,
}

/// Outcome of feeding one fragment to the reassembler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReassemblyResult {
    /// The input was not a fragment; returned unchanged.
    NotFragmented(Vec<u8>),
    /// More fragments are still outstanding.
    Incomplete,
    /// The datagram is complete: the rebuilt packet and the sizes of all
    /// of its fragments in arrival order.
    Complete {
        /// The reassembled IPv4 packet.
        packet: Vec<u8>,
        /// Total length of every fragment that added payload bytes, in
        /// arrival order.
        fragment_sizes: Vec<usize>,
    },
}

/// An IPv4 reassembly buffer with timeout-based eviction.
#[derive(Debug, Default)]
pub struct Reassembler {
    partial: HashMap<FragKey, PartialDatagram>,
}

/// Default reassembly timeout, in nanoseconds (15 s, the classic value).
pub const REASSEMBLY_TIMEOUT_NS: u64 = 15_000_000_000;

impl Reassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of in-progress datagrams.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }

    /// Feeds one IPv4 packet (fragment or not). `now` is the caller's
    /// clock in nanoseconds (used only for expiry bookkeeping).
    pub fn push(&mut self, packet: &[u8], now: u64) -> Result<ReassemblyResult> {
        let pkt = Ipv4Packet::new_checked(packet)?;
        if !pkt.is_fragment() {
            return Ok(ReassemblyResult::NotFragmented(
                bytes::range_to(packet, pkt.total_len()).to_vec(),
            ));
        }
        let key = FragKey {
            src: pkt.src(),
            dst: pkt.dst(),
            proto: pkt.protocol(),
            ident: pkt.ident(),
        };
        let offset = pkt.frag_offset();
        let payload = pkt.payload().to_vec();
        let entry = self.partial.entry(key).or_insert_with(|| PartialDatagram {
            pieces: Vec::new(),
            total_payload: None,
            first_header: None,
            fragment_sizes: Vec::new(),
            created_at: now,
        });
        if !pkt.more_frags() {
            entry.total_payload = Some(offset + payload.len());
        }
        if offset == 0 {
            entry.first_header = Some(bytes::range_to(packet, pkt.header_len()).to_vec());
        }
        // A fragment counts — as a piece, and as a size F-PMTUD is told
        // about — only if it brings payload bytes no earlier fragment
        // brought: an exact duplicate or a fully overlapped copy carried
        // no data. Partly overlapping fragments keep first-arrival bytes
        // for the overlap (BSD-style "first wins").
        if Self::adds_bytes(&entry.pieces, offset, payload.len()) {
            entry.fragment_sizes.push(pkt.total_len());
            entry.pieces.push((offset, payload));
        }

        if let Some(total) = entry.total_payload {
            if Self::is_complete(&entry.pieces, total) && entry.first_header.is_some() {
                if let Some(done) = self.partial.remove(&key) {
                    return Ok(Self::rebuild(done));
                }
            }
        }
        Ok(ReassemblyResult::Incomplete)
    }

    /// Whether payload range `[offset, offset + len)` holds a byte no
    /// piece covers.
    fn adds_bytes(pieces: &[(usize, Vec<u8>)], offset: usize, len: usize) -> bool {
        let end = offset + len;
        let mut spans: Vec<(usize, usize)> =
            pieces.iter().map(|(o, p)| (*o, *o + p.len())).collect();
        spans.sort_unstable();
        // `[offset, covered)` is known covered.
        let mut covered = offset;
        for (start, stop) in spans {
            if covered >= end || start > covered {
                break;
            }
            covered = covered.max(stop);
        }
        covered < end
    }

    fn is_complete(pieces: &[(usize, Vec<u8>)], total: usize) -> bool {
        let mut covered = 0usize;
        let mut sorted: Vec<_> = pieces.iter().map(|(o, p)| (*o, p.len())).collect();
        sorted.sort_unstable();
        for (off, len) in sorted {
            if off > covered {
                return false; // hole
            }
            covered = covered.max(off + len);
        }
        covered >= total
    }

    fn rebuild(entry: PartialDatagram) -> ReassemblyResult {
        // Both fields were verified present by the caller; a logic bug
        // upstream degrades to an empty rebuild rather than a panic.
        let total = entry.total_payload.unwrap_or(0);
        let header = entry.first_header.unwrap_or_default();
        let header_len = header.len();
        let mut packet = vec![0u8; header_len + total];
        bytes::put(&mut packet, 0, &header);
        // Later writes for overlapping ranges do not matter: is_complete
        // guarantees full coverage, and first-wins only affects pathological
        // overlap which we write in arrival order (first piece last so it
        // wins).
        for (off, piece) in entry.pieces.iter().rev() {
            bytes::put(&mut packet, header_len + off, piece);
        }
        let mut pkt = Ipv4Packet::new_unchecked(&mut packet[..]);
        pkt.set_total_len((header_len + total) as u16);
        pkt.set_frag_fields(false, false, 0);
        pkt.fill_checksum();
        ReassemblyResult::Complete {
            packet,
            fragment_sizes: entry.fragment_sizes,
        }
    }

    /// Evicts partial datagrams older than `timeout_ns`, returning how
    /// many were dropped (hosts emit ICMP time-exceeded code 1 for these;
    /// our simulator just counts them).
    pub fn expire(&mut self, now: u64, timeout_ns: u64) -> usize {
        let before = self.partial.len();
        self.partial
            .retain(|_, p| now.saturating_sub(p.created_at) < timeout_ns);
        before - self.partial.len()
    }
}

/// Convenience: fragment a packet down a *path* of MTUs, as a chain of
/// routers would, returning the fragments that arrive at the destination.
///
/// Each hop fragments anything exceeding its MTU; fragments of fragments
/// compose correctly because [`fragment`] preserves offsets and MF.
pub fn fragment_along_path(packet: &[u8], path_mtus: &[usize]) -> Result<Vec<Vec<u8>>> {
    let mut in_flight = vec![packet.to_vec()];
    for &mtu in path_mtus {
        let mut next = Vec::new();
        for p in &in_flight {
            next.extend(fragment(p, mtu)?);
        }
        in_flight = next;
    }
    Ok(in_flight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Repr;

    fn build(src: u8, payload_len: usize, ident: u16, df: bool) -> Vec<u8> {
        let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
        let mut repr = Ipv4Repr::new(
            Ipv4Addr::new(10, 0, 0, src),
            Ipv4Addr::new(10, 0, 9, 9),
            IpProtocol::Udp,
            payload_len,
        );
        repr.ident = ident;
        repr.dont_frag = df;
        repr.build_packet(&payload).unwrap()
    }

    #[test]
    fn small_packet_passes_unfragmented() {
        let p = build(1, 100, 7, false);
        let frags = fragment(&p, 1500).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], p);
    }

    #[test]
    fn fragments_fit_mtu_and_reassemble() {
        let p = build(1, 4000, 42, false);
        let frags = fragment(&p, 1500).unwrap();
        assert!(frags.len() >= 3);
        for f in &frags {
            assert!(f.len() <= 1500);
            let v = Ipv4Packet::new_checked(&f[..]).unwrap();
            assert!(v.verify_checksum());
        }
        let mut r = Reassembler::new();
        let mut done = None;
        for f in &frags {
            match r.push(f, 0).unwrap() {
                ReassemblyResult::Complete {
                    packet,
                    fragment_sizes,
                } => done = Some((packet, fragment_sizes)),
                ReassemblyResult::Incomplete => {}
                ReassemblyResult::NotFragmented(_) => panic!("should be fragments"),
            }
        }
        let (packet, sizes) = done.expect("reassembly must complete");
        assert_eq!(packet, p);
        assert_eq!(sizes.len(), frags.len());
    }

    #[test]
    fn df_packet_refuses_fragmentation() {
        let p = build(1, 4000, 1, true);
        assert_eq!(fragment(&p, 1500).unwrap_err(), Error::FieldRange);
    }

    #[test]
    fn out_of_order_and_duplicate_fragments() {
        let p = build(2, 5000, 77, false);
        let mut frags = fragment(&p, 1400).unwrap();
        frags.reverse();
        let dup = frags[1].clone();
        frags.insert(2, dup);
        let mut r = Reassembler::new();
        let mut complete = 0;
        for f in &frags {
            if let ReassemblyResult::Complete { packet, .. } = r.push(f, 0).unwrap() {
                assert_eq!(packet, p);
                complete += 1;
            }
        }
        assert_eq!(complete, 1);
        assert_eq!(r.pending(), 0);
    }

    /// F-PMTUD hears only of fragments that carried data: an exact
    /// duplicate and a larger copy whose bytes earlier fragments already
    /// brought are both left out of `fragment_sizes`.
    #[test]
    fn duplicate_and_overlapped_fragments_are_not_reported() {
        let p = build(5, 3000, 12, false);
        // [0, 976), [976, 1952), [1952, 2928), [2928, 3000).
        let small = fragment(&p, 1000).unwrap();
        assert_eq!(small.len(), 4);
        // [0, 1976): covered by the first three small fragments.
        let large = fragment(&p, 2000).unwrap();
        let fed = [
            &small[0], &small[0], &small[1], &small[2], &large[0], &small[3],
        ];
        let mut r = Reassembler::new();
        let mut results: Vec<ReassemblyResult> =
            fed.iter().map(|f| r.push(f, 0).unwrap()).collect();
        let Some(ReassemblyResult::Complete {
            packet,
            fragment_sizes,
        }) = results.pop()
        else {
            panic!("the last fragment completes the datagram");
        };
        assert_eq!(packet, p);
        let sizes: Vec<usize> = small.iter().map(Vec::len).collect();
        assert_eq!(
            fragment_sizes, sizes,
            "one size per fragment that added bytes"
        );
        assert!(results.iter().all(|x| *x == ReassemblyResult::Incomplete));
    }

    #[test]
    fn refragmentation_composes() {
        // 9000 -> 3000 -> 1000, as two successive narrower hops would do.
        let p = build(3, 8800, 9, false);
        let arrived = fragment_along_path(&p, &[3000, 1000]).unwrap();
        assert!(arrived.iter().all(|f| f.len() <= 1000));
        let mut r = Reassembler::new();
        let mut result = None;
        for f in &arrived {
            if let ReassemblyResult::Complete {
                packet,
                fragment_sizes,
            } = r.push(f, 0).unwrap()
            {
                result = Some((packet, fragment_sizes));
            }
        }
        let (packet, sizes) = result.expect("must reassemble");
        assert_eq!(packet, p);
        // Largest fragment reveals the narrowest MTU (within 8-byte rounding).
        let largest = *sizes.iter().max().unwrap();
        assert!(largest <= 1000 && largest > 1000 - 8 - 20);
    }

    #[test]
    fn interleaved_datagrams_keep_separate_state() {
        let p1 = build(1, 3000, 100, false);
        let p2 = build(1, 3000, 101, false); // same flow, different ident
        let f1 = fragment(&p1, 1500).unwrap();
        let f2 = fragment(&p2, 1500).unwrap();
        let mut r = Reassembler::new();
        let mut seen = Vec::new();
        for f in f1.iter().zip(f2.iter()).flat_map(|(a, b)| [a, b]) {
            if let ReassemblyResult::Complete { packet, .. } = r.push(f, 0).unwrap() {
                seen.push(packet);
            }
        }
        assert_eq!(seen.len(), 2);
        assert!(seen.contains(&p1) && seen.contains(&p2));
    }

    #[test]
    fn expiry_drops_stale_partials() {
        let p = build(4, 3000, 5, false);
        let frags = fragment(&p, 1500).unwrap();
        let mut r = Reassembler::new();
        r.push(&frags[0], 0).unwrap();
        assert_eq!(r.pending(), 1);
        assert_eq!(
            r.expire(REASSEMBLY_TIMEOUT_NS - 1, REASSEMBLY_TIMEOUT_NS),
            0
        );
        assert_eq!(r.expire(REASSEMBLY_TIMEOUT_NS, REASSEMBLY_TIMEOUT_NS), 1);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn mtu_smaller_than_header_plus_8_rejected() {
        let p = build(1, 100, 7, false);
        assert_eq!(fragment(&p, 24).unwrap_err(), Error::FieldRange);
    }

    #[test]
    fn fragment_offsets_are_8_aligned() {
        let p = build(5, 7777, 3, false);
        for f in fragment(&p, 1500).unwrap() {
            let v = Ipv4Packet::new_checked(&f[..]).unwrap();
            assert_eq!(v.frag_offset() % 8, 0);
        }
    }
}
