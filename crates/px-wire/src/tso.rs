//! TCP segmentation in software, scatter-gather style: one jumbo
//! IPv4/TCP packet cut into MTU-sized wire segments without copying a
//! payload byte.
//!
//! This is the split the PXGW datapath runs on every jumbo that leaves
//! the b-network (`px_core::split`). The NIC model's flat, copying
//! `px_sim::nic::tso_split{,_into}` stays the byte oracle it is held to.

use crate::batchparse::prefetch_packet;
use crate::bytes;
use crate::checksum;
use crate::error::{Error, Result};
use crate::flow::IpProtocol;
use crate::ipv4::Ipv4Packet;
use crate::pool::{BufPool, PacketSink, SgPacket, SgRc};
use crate::tcp::{TcpSegment, MAX_HEADER_LEN};

/// Splits an IPv4+TCP packet into MTU-sized segments, TSO-style, and
/// emits each as a scatter-gather view: a pooled header buffer holding
/// the rewritten IP+TCP headers plus a payload slice borrowed from
/// `packet`, delivered via [`PacketSink::push_sg`].
///
/// * each output carries the original IP+TCP headers,
/// * sequence numbers advance by the carried payload,
/// * the IP ID increments per segment (as Linux TSO does),
/// * FIN/PSH appear only on the last segment, CWR only on the first,
///   ECE on every one (Linux `tcp_gso_segment`),
/// * all checksums are recomputed.
///
/// Payload bytes are never copied here — sinks without a `push_sg`
/// override materialise the view themselves, so the output stream is
/// byte-identical to the flat splitter either way. `rc` counts live
/// views so the caller knows when `packet`'s backing buffer may be
/// recycled. A packet that already fits leaves as one all-payload view.
/// Returns the number of segments delivered; on error nothing is
/// emitted.
///
/// The TCP checksum is assembled from partial sums (pseudo-header +
/// header bytes in the segment buffer + payload bytes still in the
/// jumbo); RFC 1071's grouping independence makes the result identical
/// to `fill_checksum` over the flat segment. Each payload byte is read
/// once, by that sum, and chunk *k + 1* is requested from memory before
/// segment *k*'s header is built and its chunk summed, so the header
/// work overlaps the next chunk's fetch.
pub fn tso_split_sg_into<'p>(
    packet: &'p [u8],
    mtu: usize,
    pool: &mut BufPool,
    rc: &'p SgRc,
    sink: &mut impl PacketSink,
) -> Result<usize> {
    let ip = Ipv4Packet::new_checked(packet)?;
    if ip.protocol() != IpProtocol::Tcp {
        return Err(Error::Unsupported);
    }
    if ip.total_len() <= mtu {
        // Pass-through: an all-payload view (empty header segment).
        let view = SgPacket::new(pool.get(), bytes::range_to(packet, ip.total_len()), rc);
        if let Some(b) = sink.push_sg(view) {
            pool.put(b);
        }
        return Ok(1);
    }
    let ip_hlen = ip.header_len();
    let tcp = TcpSegment::new_checked(ip.payload())?;
    let tcp_hlen = tcp.header_len();
    debug_assert!(tcp_hlen <= MAX_HEADER_LEN);
    let headers = ip_hlen + tcp_hlen;
    if mtu <= headers {
        return Err(Error::FieldRange);
    }
    let mss = mtu - headers;
    let payload = tcp.payload();
    if payload.is_empty() {
        return Err(Error::Malformed); // oversized but no payload: bogus
    }
    let flags = tcp.flags();
    let base_seq = tcp.seq();
    let (src, dst) = (ip.src(), ip.dst());
    let base_ident = ip.ident();
    // Payload starts at offset `headers` of `packet`; its base relative
    // to the jumbo's IP payload is `tcp_hlen` — both even (TCP headers
    // are 32-bit multiples), so the chunk sums combine on the even word
    // grid and plain `combine` applies.
    debug_assert_eq!(tcp_hlen % 2, 0);

    let mut emitted = 0usize;
    let mut off = 0usize;
    let mut seg_idx: u16 = 0;
    while off < payload.len() {
        let end = off + mss.min(payload.len() - off);
        let last = end == payload.len();
        let chunk = bytes::range(payload, off, end);
        // One chunk ahead: the next segment's payload is on its way
        // while this one's header is built and its chunk summed (empty,
        // hence a no-op, after the last).
        prefetch_packet(bytes::range(payload, end, (end + mss).min(payload.len())));
        let mut seg = pool.get();
        // px-analyze: allow(R7, reason = "TSO materialises a fresh header per segment by definition; the bytes are then mutated in place (length, ident, seq, flags, checksums) and the payload stays a view")
        seg.extend_from_slice(bytes::range_to(packet, headers));
        {
            let mut ipv = Ipv4Packet::new_unchecked(seg.as_mut_slice());
            ipv.set_total_len((headers + chunk.len()) as u16);
            ipv.set_ident(base_ident.wrapping_add(seg_idx));
            ipv.fill_checksum();
        }
        {
            let tcp_bytes = bytes::range_from_mut(seg.as_mut_slice(), ip_hlen);
            {
                let mut tseg = TcpSegment::new_unchecked(&mut *tcp_bytes);
                tseg.set_seq(base_seq.add(off));
                let mut f = flags;
                if !last {
                    f.fin = false;
                    f.psh = false;
                }
                if seg_idx != 0 {
                    f.cwr = false;
                }
                tseg.set_flags(f);
            }
            // fill_checksum over the flat segment, reassembled from
            // partial sums: zero the field, sum the header bytes here
            // and the payload bytes where they already live.
            bytes::put_be16(tcp_bytes, 16, 0);
            let header_sum = checksum::ones_complement_sum(bytes::range_to(tcp_bytes, tcp_hlen));
            let payload_sum = checksum::ones_complement_sum(chunk);
            let pseudo = checksum::pseudo_header_sum(
                src,
                dst,
                IpProtocol::Tcp.into(),
                (tcp_hlen + chunk.len()) as u16,
            );
            let ck = !checksum::combine(pseudo, checksum::combine(header_sum, payload_sum));
            bytes::put_be16(tcp_bytes, 16, ck);
        }
        let view = SgPacket::new(seg, chunk, rc);
        if let Some(b) = sink.push_sg(view) {
            pool.put(b);
        }
        emitted += 1;
        off = end;
        seg_idx = seg_idx.wrapping_add(1);
    }
    Ok(emitted)
}
