//! Single-pass packet parsing and classification, and the prefetch
//! hint that keeps packets ahead of it warm.
//!
//! The merge path historically parsed every packet twice: once for
//! flow-key extraction and once in the merge engine's classifier — both
//! walking the same IPv4/TCP headers. This module folds the two walks
//! into a single pass, [`parse_packet`], that yields a compact,
//! already-validated [`ParsedMeta`]. Two callers drive it:
//!
//! * **The engine worker, one packet at a time.** `parse_packet` runs
//!   inside the merge step (verify → append → free), so a payload is
//!   checksummed and copied while it sits in L1. What hides DRAM is
//!   [`prefetch_packet`]: the worker requests *every* cache line of the
//!   packets a few KB ahead of its cursor, across burst boundaries.
//! * **Staged harnesses, a burst at a time.** [`parse_batch_with`]
//!   classifies a whole RX batch up front — pxbench's staged loop and
//!   its `wire.batchparse.*` rows price the parse stage on its own this
//!   way. While packet *k* is parsed, the *header* lines of packet
//!   *k + [`PREFETCH_AHEAD`]* are requested; the payloads of a 32-burst
//!   (48 KB at 1.5 KB each) do not fit L1d, which is why the worker
//!   does not parse batch-front.
//!
//! [`prefetch_ref`] is the same hint for a flow-table bucket or slot:
//! the worker requests the lines a packet a few places ahead will
//! probe, once the table has outgrown the cache.
//!
//! [`parse_key`] is the same header walk stopped at the flow key. A
//! steering merge engine takes it first and runs `parse_packet` only on
//! a packet that may still be merged, so a hairpinned mouse's payload
//! is never read.
//!
//! Bit-compatibility is load-bearing: [`parse_packet`] must agree
//! exactly with [`parse_key`] on the key and with `MergeEngine`'s
//! single-packet classifier on the verdict — the `digest_pin` gate and
//! the property suite hold it to that.

use crate::bytes;
use crate::checksum;
use crate::flow::{FlowKey, IpProtocol};
use crate::ipv4::Ipv4Packet;
use crate::tcp::TcpSegment;
use crate::udp::UdpDatagram;

/// Packets per burst a worker takes off its shard (DPDK-style).
pub const BATCH_PKTS: usize = 32;

/// How many packets ahead of its parse cursor [`parse_batch_with`]
/// requests header lines. Far enough to cover DRAM latency at
/// ~25 ns/packet parse cost, near enough that the lines are not evicted
/// before use.
pub const PREFETCH_AHEAD: usize = 4;

/// IPv4 + TCP headers fit in two cache lines even with maximal options.
const HEADER_BYTES: usize = 128;

/// Compact facts about one mergeable TCP data segment, captured during
/// the single validation pass so the merge engine never re-parses or
/// re-scans the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegFacts {
    /// IPv4 header length in bytes (20..=60).
    pub ip_hlen: u8,
    /// TCP header length in bytes (20..=60).
    pub tcp_hlen: u8,
    /// IPv4 total length (headers + payload).
    pub total_len: u16,
    /// TCP sequence number of the first payload byte.
    pub seq: u32,
    /// Whether the segment carries PSH.
    pub psh: bool,
    /// Ones-complement partial sum of the TCP payload, captured from the
    /// same scan that verified the transport checksum.
    pub payload_sum: u16,
}

impl SegFacts {
    /// TCP payload bytes carried by the segment.
    pub fn payload_len(&self) -> usize {
        usize::from(self.total_len) - usize::from(self.ip_hlen) - usize::from(self.tcp_hlen)
    }
}

/// The merge-relevant classification of one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not a mergeable data segment: forwarded as passthrough.
    NotMergeable {
        /// `false` when the packet failed IPv4 or TCP checksum
        /// verification — counted, and forwarded with its broken
        /// checksum intact so the receiver discards it.
        checksum_ok: bool,
    },
    /// An in-order-eligible TCP data segment with verified checksums.
    Mergeable(SegFacts),
}

/// Everything the engine hot loop needs to know about one packet:
/// its flow key (for steering and table lookup) and its merge verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedMeta {
    /// 5-tuple flow key, when the packet parses as TCP or UDP over
    /// IPv4. `None` means "unkeyable" — forwarded verbatim.
    pub key: Option<FlowKey>,
    /// Merge classification (always `NotMergeable` for non-TCP).
    pub verdict: Verdict,
}

const NOT_MERGEABLE: Verdict = Verdict::NotMergeable { checksum_ok: true };

/// What the IPv4/TCP/UDP header walk found: the views a TCP verdict
/// needs, or just the key.
enum Walk<'a> {
    Tcp(Ipv4Packet<&'a [u8]>, TcpSegment<&'a [u8]>, FlowKey),
    Udp(FlowKey),
    Unkeyed,
}

/// The one header walk under [`parse_key`] and [`parse_packet`]: the
/// IPv4 header, then the TCP or UDP header, each length-checked. Reads
/// no payload byte.
#[inline]
fn walk(pkt: &[u8]) -> Walk<'_> {
    let Ok(ip) = Ipv4Packet::new_checked(pkt) else {
        return Walk::Unkeyed;
    };
    // `ip.payload()`, borrowed from `pkt` rather than from `ip`.
    let l4 = bytes::range(pkt, ip.header_len(), ip.total_len());
    match ip.protocol() {
        IpProtocol::Tcp => match TcpSegment::new_checked(l4) {
            Ok(tcp) => {
                let key = FlowKey::tcp(ip.src(), tcp.src_port(), ip.dst(), tcp.dst_port());
                Walk::Tcp(ip, tcp, key)
            }
            Err(_) => Walk::Unkeyed,
        },
        IpProtocol::Udp => match UdpDatagram::new_checked(l4) {
            Ok(udp) => Walk::Udp(FlowKey::udp(
                ip.src(),
                udp.src_port(),
                ip.dst(),
                udp.dst_port(),
            )),
            Err(_) => Walk::Unkeyed,
        },
        _ => Walk::Unkeyed,
    }
}

/// The flow key of one packet from its headers alone: exactly
/// `parse_packet(pkt).key`, without the checksum scan. Steering decides
/// on this, so a packet that will not be merged is never summed.
#[inline]
pub fn parse_key(pkt: &[u8]) -> Option<FlowKey> {
    match walk(pkt) {
        Walk::Tcp(_, _, key) | Walk::Udp(key) => Some(key),
        Walk::Unkeyed => None,
    }
}

/// Parses and classifies one packet in a single header walk.
///
/// The key computation matches [`parse_key`] exactly (the same walk,
/// including its indifference to IP fragmentation for TCP — the
/// *verdict* rejects fragments, the key does not). The verdict matches
/// the merge engine's classifier check-for-check, in the same order,
/// so `checksum_ok` accounting is bit-identical.
pub fn parse_packet(pkt: &[u8]) -> ParsedMeta {
    match walk(pkt) {
        Walk::Tcp(ip, tcp, key) => ParsedMeta {
            key: Some(key),
            verdict: classify_tcp(&ip, &tcp),
        },
        Walk::Udp(key) => ParsedMeta {
            key: Some(key),
            verdict: NOT_MERGEABLE,
        },
        Walk::Unkeyed => ParsedMeta {
            key: None,
            verdict: NOT_MERGEABLE,
        },
    }
}

/// The merge classifier's checks, verbatim, over an already-parsed
/// TCP-over-IPv4 view. Checksum verification is load-bearing (merging
/// would launder corruption behind a recomputed checksum); the payload's
/// partial sum is captured from the verification scan for reuse at
/// emission. A CWR segment is not merged: it marks the sender's
/// congestion response, and GRO flushes on it too.
fn classify_tcp(ip: &Ipv4Packet<&[u8]>, tcp: &TcpSegment<&[u8]>) -> Verdict {
    if ip.is_fragment() {
        return NOT_MERGEABLE;
    }
    let f = tcp.flags();
    let shape_ok =
        f.ack && !f.syn && !f.fin && !f.rst && !f.urg && !f.cwr && !tcp.payload().is_empty();
    if !shape_ok {
        return NOT_MERGEABLE;
    }
    if !ip.verify_checksum() {
        return Verdict::NotMergeable { checksum_ok: false };
    }
    let seg = ip.payload();
    let tcp_hlen = tcp.header_len();
    let header_sum = checksum::ones_complement_sum(bytes::range_to(seg, tcp_hlen));
    let payload_sum = checksum::ones_complement_sum(bytes::range_from(seg, tcp_hlen));
    let pseudo =
        checksum::pseudo_header_sum(ip.src(), ip.dst(), IpProtocol::Tcp.into(), seg.len() as u16);
    if checksum::combine(pseudo, checksum::combine(header_sum, payload_sum)) != 0xFFFF {
        return Verdict::NotMergeable { checksum_ok: false };
    }
    Verdict::Mergeable(SegFacts {
        ip_hlen: ip.header_len() as u8,
        tcp_hlen: tcp_hlen as u8,
        total_len: ip.total_len() as u16,
        seq: tcp.seq().0,
        psh: f.psh,
        payload_sum,
    })
}

/// Parses a whole batch into `out` (cleared first), prefetching packet
/// *k + [`PREFETCH_AHEAD`]*'s headers while packet *k* is parsed.
///
/// Generic over the batch item so callers can pass `(now, Vec<u8>)`
/// pairs without restructuring; `payload` projects the packet bytes out
/// of an item.
pub fn parse_batch_with<T>(items: &[T], payload: impl Fn(&T) -> &[u8], out: &mut Vec<ParsedMeta>) {
    out.clear();
    out.reserve(items.len());
    for (k, item) in items.iter().enumerate() {
        if let Some(ahead) = items.get(k + PREFETCH_AHEAD) {
            let pkt = payload(ahead);
            prefetch_packet(pkt.get(..HEADER_BYTES).unwrap_or(pkt));
        }
        out.push(parse_packet(payload(item)));
    }
}

/// Requests every cache line `pkt` touches into L1. Pure hint: no-op
/// off x86-64, never faults, changes nothing observable.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline]
pub fn prefetch_packet(pkt: &[u8]) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    let Some(last) = pkt.len().checked_sub(1) else {
        return;
    };
    let p = pkt.as_ptr();
    // SAFETY: `_mm_prefetch` is a performance hint with no memory-safety
    // preconditions (it cannot fault); every pointer formed stays within
    // the slice because each offset is `<= last < len`. The slice need
    // not be line-aligned, so `last` covers a final partial line the
    // 64-byte stride stepped over.
    unsafe {
        for off in (0..last).step_by(64) {
            _mm_prefetch::<_MM_HINT_T0>(p.add(off).cast());
        }
        _mm_prefetch::<_MM_HINT_T0>(p.add(last).cast());
    }
}

/// Requests every cache line `pkt` touches into L1 (no-op on this
/// architecture).
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn prefetch_packet(_pkt: &[u8]) {}

/// Requests every cache line `value` occupies into L1 — a flow-table
/// bucket or slot a packet a few places ahead will probe. Pure hint:
/// no-op off x86-64, never faults, changes nothing observable.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline]
pub fn prefetch_ref<T>(value: &T) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    let p = (value as *const T).cast::<i8>();
    let last = std::mem::size_of::<T>().saturating_sub(1);
    // SAFETY: `_mm_prefetch` is a performance hint with no memory-safety
    // preconditions (it cannot fault) and reads nothing, so the padding
    // bytes a `T` may hold are never observed; every pointer formed
    // stays within the referent because each offset is `<= last`, and
    // `last` covers a final line the 64-byte stride stepped over.
    unsafe {
        for off in (0..last).step_by(64) {
            _mm_prefetch::<_MM_HINT_T0>(p.add(off));
        }
        _mm_prefetch::<_MM_HINT_T0>(p.add(last));
    }
}

/// Requests every cache line `value` occupies into L1 (no-op on this
/// architecture).
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn prefetch_ref<T>(_value: &T) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Repr;
    use crate::tcp::{SeqNum, TcpFlags, TcpRepr};
    use crate::udp::UdpRepr;
    use std::net::Ipv4Addr;

    const SRC: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 2);

    fn tcp_pkt(port: u16, seq: u32, payload_len: usize, flags: TcpFlags) -> Vec<u8> {
        let payload = vec![0x5Au8; payload_len];
        let repr = TcpRepr {
            src_port: port,
            dst_port: 80,
            seq: SeqNum(seq),
            ack: SeqNum(1),
            flags,
            window: 5000,
            options: vec![],
        };
        let seg = repr.build_segment(SRC, DST, &payload);
        Ipv4Repr::new(SRC, DST, IpProtocol::Tcp, seg.len())
            .build_packet(&seg)
            .unwrap()
    }

    #[test]
    fn data_segment_is_mergeable_with_exact_facts() {
        let pkt = tcp_pkt(5000, 7777, 1000, TcpFlags::ACK);
        let meta = parse_packet(&pkt);
        assert_eq!(meta.key, Some(FlowKey::tcp(SRC, 5000, DST, 80)));
        let Verdict::Mergeable(facts) = meta.verdict else {
            panic!("data segment must be mergeable: {:?}", meta.verdict);
        };
        assert_eq!(facts.ip_hlen, 20);
        assert_eq!(facts.tcp_hlen, 20);
        assert_eq!(usize::from(facts.total_len), pkt.len());
        assert_eq!(facts.seq, 7777);
        assert!(!facts.psh);
        let ip = Ipv4Packet::new_checked(&pkt[..]).unwrap();
        let expected = checksum::ones_complement_sum(bytes::range_from(ip.payload(), 20));
        assert_eq!(facts.payload_sum, expected);
    }

    #[test]
    fn pure_ack_keeps_its_key_but_is_not_mergeable() {
        let pkt = tcp_pkt(5000, 1, 0, TcpFlags::ACK);
        let meta = parse_packet(&pkt);
        assert_eq!(meta.key, Some(FlowKey::tcp(SRC, 5000, DST, 80)));
        assert_eq!(meta.verdict, Verdict::NotMergeable { checksum_ok: true });
    }

    #[test]
    fn corrupted_payload_is_flagged_bad_checksum() {
        let mut pkt = tcp_pkt(5000, 1, 100, TcpFlags::ACK);
        let last = pkt.len() - 1;
        pkt[last] ^= 0xFF;
        let meta = parse_packet(&pkt);
        assert!(meta.key.is_some(), "key survives payload corruption");
        assert_eq!(meta.verdict, Verdict::NotMergeable { checksum_ok: false });
    }

    #[test]
    fn udp_gets_a_key_and_garbage_gets_none() {
        let udp = UdpRepr {
            src_port: 9000,
            dst_port: 53,
        }
        .build_datagram(SRC, DST, b"query")
        .unwrap();
        let pkt = Ipv4Repr::new(SRC, DST, IpProtocol::Udp, udp.len())
            .build_packet(&udp)
            .unwrap();
        let meta = parse_packet(&pkt);
        assert_eq!(meta.key, Some(FlowKey::udp(SRC, 9000, DST, 53)));
        assert_eq!(meta.verdict, Verdict::NotMergeable { checksum_ok: true });

        let garbage = parse_packet(&[0u8; 7]);
        assert_eq!(garbage.key, None);
        assert_eq!(garbage.verdict, Verdict::NotMergeable { checksum_ok: true });
    }

    #[test]
    fn prefetch_hint_takes_any_slice() {
        // Empty, sub-line, line-straddling, unaligned and jumbo slices:
        // the edge lengths of the hint's offset arithmetic. It is a hint,
        // so all there is to observe is that the bytes are left alone.
        let buf = vec![0xA5u8; 9_000];
        for start in [0usize, 1, 48, 63] {
            for len in [0usize, 1, 17, 63, 64, 65, 128, 129, 1_500, 8_937] {
                prefetch_packet(&buf[start..start + len]);
            }
        }
        assert!(buf.iter().all(|&b| b == 0xA5));
    }

    #[test]
    fn batch_parse_matches_per_packet_parse() {
        // More than PREFETCH_AHEAD packets so the prefetcher both fires
        // and runs off the end of the batch.
        let pkts: Vec<Vec<u8>> = (0..(PREFETCH_AHEAD + 9))
            .map(|i| match i % 3 {
                0 => tcp_pkt(5000 + i as u16, i as u32 * 100, 100, TcpFlags::ACK),
                1 => tcp_pkt(6000 + i as u16, 1, 0, TcpFlags::ACK),
                _ => vec![0u8; 3],
            })
            .collect();
        let mut out = Vec::new();
        parse_batch_with(&pkts, |p| p.as_slice(), &mut out);
        assert_eq!(out.len(), pkts.len());
        for (pkt, meta) in pkts.iter().zip(&out) {
            assert_eq!(*meta, parse_packet(pkt));
        }
        // Reuse clears previous contents.
        parse_batch_with(&pkts[..2], |p| p.as_slice(), &mut out);
        assert_eq!(out.len(), 2);
    }
}
