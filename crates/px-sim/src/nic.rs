//! NIC offload engines.
//!
//! Two layers live here:
//!
//! 1. **Packet surgery** — real, byte-accurate TCP coalescing
//!    ([`try_coalesce`]) and segmentation ([`tso_split`]) on real
//!    IPv4/TCP packets: the rebuild-from-scratch byte oracles the PXGW
//!    merge engine's in-place append and the split engine's
//!    scatter-gather TSO ([`px_wire::tso`]) are held to.
//! 2. **The RX saturation model** ([`rx_saturation_bps`]) — the
//!    calibrated cycles-per-byte arithmetic that turns an offload
//!    configuration into the single-core receive throughput of
//!    Figs. 1b/1c. It uses only [`crate::calib`] constants.

use crate::calib;
use crate::cpu::CostModel;
use px_wire::ipv4::Ipv4Packet;
use px_wire::pool::{BufPool, PacketSink};
use px_wire::tcp::{TcpSegment, MAX_HEADER_LEN};
use px_wire::{Error, IpProtocol, Result};

/// Which offloads a NIC/host enables (the knobs of §5's setup:
/// "We turn on TSO, LRO, GSO, and GRO on all endpoints").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OffloadConfig {
    /// NIC-level large receive offload (hardware coalescing).
    pub lro: bool,
    /// Kernel-level generic receive offload (software coalescing).
    pub gro: bool,
    /// TCP segmentation offload (NIC splits oversized TX segments).
    pub tso: bool,
    /// Generic segmentation offload (software TSO fallback).
    pub gso: bool,
    /// Number of RX queues served by RSS (1 = no RSS).
    pub rx_queues: usize,
    /// Header-only DMA into NIC memory (payloads never cross the host
    /// memory bus) — the experimental mode of Fig. 5a/5b.
    pub header_only_dma: bool,
}

impl OffloadConfig {
    /// Everything off (the "None" bars of Fig. 1b).
    pub fn none() -> Self {
        OffloadConfig {
            rx_queues: 1,
            ..Default::default()
        }
    }

    /// The paper's default endpoint config: TSO, LRO, GSO, GRO all on.
    pub fn all_on() -> Self {
        OffloadConfig {
            lro: true,
            gro: true,
            tso: true,
            gso: true,
            rx_queues: 1,
            header_only_dma: false,
        }
    }
}

/// Attempts to coalesce TCP packet `b` onto `a` (both complete IPv4
/// packets), LRO/GRO-style. Succeeds only when it is transparent to the
/// receiver:
///
/// * same 5-tuple, `b.seq == a.seq + a.payload`, equal ACK and window
///   (pure in-order data continuation),
/// * flags restricted to ACK/PSH/ECE on both (no SYN/FIN/RST/URG/CWR),
///   with equal ECE,
/// * identical TCP option *layout*: kinds and lengths match, values
///   may differ, and the merged packet keeps `a`'s options. This is
///   laxer than Linux GRO, which compares the option bytes and flushes
///   on any difference (ROADMAP item 9(b)),
/// * merged size within `max_size`,
/// * neither packet is an IP fragment.
///
/// Returns the merged packet, or `None` when the pair is not mergeable.
pub fn try_coalesce(a: &[u8], b: &[u8], max_size: usize) -> Option<Vec<u8>> {
    let ip_a = Ipv4Packet::new_checked(a).ok()?;
    let ip_b = Ipv4Packet::new_checked(b).ok()?;
    if ip_a.protocol() != IpProtocol::Tcp || ip_b.protocol() != IpProtocol::Tcp {
        return None;
    }
    if ip_a.is_fragment() || ip_b.is_fragment() {
        return None;
    }
    if ip_a.src() != ip_b.src() || ip_a.dst() != ip_b.dst() || ip_a.tos() != ip_b.tos() {
        return None;
    }
    let t_a = TcpSegment::new_checked(ip_a.payload()).ok()?;
    let t_b = TcpSegment::new_checked(ip_b.payload()).ok()?;
    if t_a.src_port() != t_b.src_port() || t_a.dst_port() != t_b.dst_port() {
        return None;
    }
    let fa = t_a.flags();
    let fb = t_b.flags();
    let plain = |f: px_wire::TcpFlags| f.ack && !f.syn && !f.fin && !f.rst && !f.urg && !f.cwr;
    if !plain(fa) || !plain(fb) || fa.ece != fb.ece {
        return None;
    }
    if t_a.ack() != t_b.ack() || t_a.window() != t_b.window() {
        return None;
    }
    let pay_a = t_a.payload();
    let pay_b = t_b.payload();
    if pay_a.is_empty() || pay_b.is_empty() {
        return None; // pure ACKs are not coalesced
    }
    if t_b.seq() != t_a.seq().add(pay_a.len()) {
        return None; // not contiguous
    }
    // Option layout must match (kinds and lengths), values may differ:
    // laxer than Linux GRO, which compares the option bytes.
    let opts_a = px_wire::tcp::parse_options(t_a.options()).ok()?;
    let opts_b = px_wire::tcp::parse_options(t_b.options()).ok()?;
    if opts_a.len() != opts_b.len()
        || opts_a
            .iter()
            .zip(&opts_b)
            .any(|(x, y)| std::mem::discriminant(x) != std::mem::discriminant(y))
    {
        return None;
    }

    let merged_len = ip_a.total_len() + pay_b.len();
    if merged_len > max_size || merged_len > px_wire::ipv4::MAX_TOTAL_LEN {
        return None;
    }

    // Build: a's headers, concatenated payloads; PSH is OR'd.
    let ip_hlen = ip_a.header_len();
    let tcp_hlen = t_a.header_len();
    let mut out = Vec::with_capacity(merged_len);
    out.extend_from_slice(&a[..ip_hlen + tcp_hlen]);
    out.extend_from_slice(pay_a);
    out.extend_from_slice(pay_b);
    let (src, dst) = (ip_a.src(), ip_a.dst());
    {
        let mut ip = Ipv4Packet::new_unchecked(&mut out[..]);
        ip.set_total_len(merged_len as u16);
        ip.fill_checksum();
    }
    {
        let mut tcp = TcpSegment::new_unchecked(&mut out[ip_hlen..]);
        if fb.psh {
            let mut f = fa;
            f.psh = true;
            tcp.set_flags(f);
        }
        tcp.fill_checksum(src, dst);
    }
    Some(out)
}

/// Splits an IPv4+TCP packet into MTU-sized segments, TSO-style:
///
/// * each output carries the original IP+TCP headers,
/// * sequence numbers advance by the carried payload,
/// * the IP ID increments per segment (as Linux TSO does),
/// * FIN/PSH appear only on the last segment, CWR only on the first,
///   ECE on every one (Linux `tcp_gso_segment`),
/// * all checksums are recomputed.
///
/// A packet that already fits is returned as-is (single element).
pub fn tso_split(packet: &[u8], mtu: usize) -> Result<Vec<Vec<u8>>> {
    // Right-sized one-shot buffers: max_free 0 keeps the wrapper's
    // allocation behaviour (one Vec per segment, like the pre-sink API)
    // without growth reallocations inside the fill loop.
    let mut pool = BufPool::new(0, mtu, 0);
    let mut sink = px_wire::VecSink::new();
    tso_split_into(packet, mtu, &mut pool, &mut sink)?;
    Ok(sink.into_pkts())
}

/// [`tso_split`] with pooled buffers and sink-based emission: the flat
/// copying form of [`px_wire::tso::tso_split_sg_into`], which must match
/// it byte for byte. Returns the number of segments delivered; on error
/// nothing is emitted.
pub fn tso_split_into(
    packet: &[u8],
    mtu: usize,
    pool: &mut BufPool,
    sink: &mut impl PacketSink,
) -> Result<usize> {
    let ip = Ipv4Packet::new_checked(packet)?;
    if ip.protocol() != IpProtocol::Tcp {
        return Err(Error::Unsupported);
    }
    if ip.total_len() <= mtu {
        let mut buf = pool.get();
        buf.extend_from_slice(&packet[..ip.total_len()]);
        if let Some(b) = sink.accept(buf) {
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

    let mut emitted = 0usize;
    let mut off = 0usize;
    let mut seg_idx: u16 = 0;
    while off < payload.len() {
        let take = mss.min(payload.len() - off);
        let last = off + take == payload.len();
        let mut seg = pool.get();
        seg.extend_from_slice(&packet[..headers]);
        seg.extend_from_slice(&payload[off..off + take]);
        {
            let mut ipv = Ipv4Packet::new_unchecked(seg.as_mut_slice());
            ipv.set_total_len((headers + take) as u16);
            ipv.set_ident(base_ident.wrapping_add(seg_idx));
            ipv.fill_checksum();
        }
        {
            let mut tseg = TcpSegment::new_unchecked(&mut seg.as_mut_slice()[ip_hlen..]);
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
            tseg.fill_checksum(src, dst);
        }
        if let Some(b) = sink.accept(seg) {
            pool.put(b);
        }
        emitted += 1;
        off += take;
        seg_idx = seg_idx.wrapping_add(1);
    }
    Ok(emitted)
}

/// RX-side configuration for the saturation model.
#[derive(Debug, Clone, Copy)]
pub struct RxConfig {
    /// Wire MTU of arriving packets.
    pub mtu: usize,
    /// NIC LRO enabled.
    pub lro: bool,
    /// Kernel GRO enabled.
    pub gro: bool,
    /// Number of concurrent flows sharing the core.
    pub flows: usize,
}

/// The effective aggregation unit size (bytes) for a given config: how
/// many contiguous bytes of one flow LRO/GRO can coalesce per poll round.
///
/// With one flow the whole batch is contiguous and only the 64 KB cap
/// binds; with `k` flows, interleaving breaks runs up as
/// `batch / k^ALPHA` (see [`calib::INTERLEAVE_ALPHA`]).
pub fn aggregation_unit(cfg: &RxConfig) -> usize {
    if !cfg.lro && !cfg.gro {
        return cfg.mtu;
    }
    let batch_bytes = (calib::RX_BATCH_PKTS * cfg.mtu) as f64;
    let run = batch_bytes / (cfg.flows.max(1) as f64).powf(calib::INTERLEAVE_ALPHA);
    let floor = (calib::AGG_FLOOR_SEGS * cfg.mtu).min(calib::MAX_AGGREGATE);
    (run as usize)
        .clamp(cfg.mtu, calib::MAX_AGGREGATE)
        .max(floor)
}

/// Receive throughput for the PX-caravan + UDP_GRO path of Fig. 5c: the
/// host receives `bundle_size`-byte caravans of `segs` inner datagrams.
/// Each bundle costs one descriptor + one protocol traversal; each inner
/// datagram still pays a UDP_GRO split test plus its own socket delivery
/// (UDP hands every datagram to the application individually — that part
/// no offload can amortise). `flows` adds the same flow-state cache
/// pressure as [`rx_saturation_bps`].
pub fn rx_caravan_bps(m: &CostModel, bundle_size: usize, segs: usize, flows: usize) -> f64 {
    let unit = bundle_size as f64;
    let k = flows.max(1) as f64;
    let per_inner = m.gro_per_seg + 0.15 * m.proto_unit;
    let cyc_per_byte = m.wire_pkt / unit
        + m.descriptor / unit
        + m.proto_unit / unit
        + per_inner * segs as f64 / unit
        + m.cache_miss * (1.0 - 1.0 / k) / unit
        + m.per_byte;
    m.bps_at(cyc_per_byte)
}

/// Single-core receive throughput (bits/sec) at saturation for the given
/// offload configuration — the quantity plotted in Figs. 1b and 1c.
///
/// Cost decomposition per payload byte:
/// * `wire_pkt / mtu` — irreducible per-wire-packet work;
/// * `descriptor / (A if LRO else mtu)` — completions coalesce under LRO;
/// * `gro_per_seg / mtu` — software merge test, only when GRO runs on
///   un-coalesced packets (GRO on, LRO off);
/// * `proto_unit / A` — one protocol traversal per aggregate;
/// * `cache_miss · (1 − 1/k) / A` — flow-state cache pressure;
/// * `per_byte` — payload movement.
pub fn rx_saturation_bps(m: &CostModel, cfg: &RxConfig) -> f64 {
    let mtu = cfg.mtu as f64;
    let unit = aggregation_unit(cfg) as f64;
    let k = cfg.flows.max(1) as f64;
    let mut cyc_per_byte = m.wire_pkt / mtu + m.per_byte;
    cyc_per_byte += if cfg.lro {
        m.descriptor / unit
    } else {
        m.descriptor / mtu
    };
    if cfg.gro && !cfg.lro {
        cyc_per_byte += m.gro_per_seg / mtu;
    } else if cfg.gro && cfg.lro {
        cyc_per_byte += m.gro_per_seg / unit; // GRO just inspects pre-merged units
    }
    cyc_per_byte += m.proto_unit / unit;
    cyc_per_byte += m.cache_miss * (1.0 - 1.0 / k) / unit;
    m.bps_at(cyc_per_byte)
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_wire::ipv4::Ipv4Repr;
    use px_wire::tcp::{SeqNum, TcpFlags, TcpOption, TcpRepr};
    use std::net::Ipv4Addr;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn tcp_pkt(seq: u32, payload: &[u8], psh: bool) -> Vec<u8> {
        let mut flags = TcpFlags::ACK;
        flags.psh = psh;
        let trepr = TcpRepr {
            src_port: 5000,
            dst_port: 80,
            seq: SeqNum(seq),
            ack: SeqNum(777),
            flags,
            window: 1000,
            options: vec![TcpOption::Timestamps(seq, 1)],
        };
        let seg = trepr.build_segment(SRC, DST, payload);
        let irepr = Ipv4Repr::new(SRC, DST, IpProtocol::Tcp, seg.len());
        irepr.build_packet(&seg).unwrap()
    }

    fn payload_of(pkt: &[u8]) -> Vec<u8> {
        let ip = Ipv4Packet::new_checked(pkt).unwrap();
        let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
        tcp.payload().to_vec()
    }

    #[test]
    fn coalesce_contiguous_segments() {
        let a = tcp_pkt(1000, b"hello ", false);
        let b = tcp_pkt(1006, b"world", true);
        let merged = try_coalesce(&a, &b, 65536).expect("mergeable");
        assert_eq!(payload_of(&merged), b"hello world");
        let ip = Ipv4Packet::new_checked(&merged[..]).unwrap();
        assert!(ip.verify_checksum());
        let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
        assert!(tcp.verify_checksum(SRC, DST));
        assert!(tcp.flags().psh, "PSH is OR'd");
        assert_eq!(tcp.seq(), SeqNum(1000));
    }

    #[test]
    fn refuses_non_contiguous_and_special_flags() {
        let a = tcp_pkt(1000, b"abc", false);
        let gap = tcp_pkt(1010, b"def", false);
        assert!(try_coalesce(&a, &gap, 65536).is_none());

        let mut syn = TcpRepr {
            src_port: 5000,
            dst_port: 80,
            seq: SeqNum(1003),
            ack: SeqNum(777),
            flags: TcpFlags::SYN_ACK,
            window: 1000,
            options: vec![TcpOption::Timestamps(1, 1)],
        };
        syn.flags.syn = true;
        let seg = syn.build_segment(SRC, DST, b"x");
        let synpkt = Ipv4Repr::new(SRC, DST, IpProtocol::Tcp, seg.len())
            .build_packet(&seg)
            .unwrap();
        assert!(try_coalesce(&a, &synpkt, 65536).is_none());
    }

    #[test]
    fn refuses_when_over_cap() {
        let a = tcp_pkt(0, &[1u8; 1000], false);
        let b = tcp_pkt(1000, &[2u8; 1000], false);
        assert!(try_coalesce(&a, &b, 1500).is_none());
        assert!(try_coalesce(&a, &b, 4000).is_some());
    }

    #[test]
    fn tso_split_roundtrips_with_coalesce() {
        let payload: Vec<u8> = (0..5000).map(|i| (i % 256) as u8).collect();
        let big = tcp_pkt(42, &payload, true);
        let segs = tso_split(&big, 1500).unwrap();
        assert!(segs.len() >= 4);
        for (i, s) in segs.iter().enumerate() {
            assert!(s.len() <= 1500);
            let ip = Ipv4Packet::new_checked(&s[..]).unwrap();
            assert!(ip.verify_checksum());
            let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
            assert!(tcp.verify_checksum(SRC, DST));
            let last = i == segs.len() - 1;
            assert_eq!(tcp.flags().psh, last, "PSH only on the last segment");
        }
        // IP IDs increment.
        let ids: Vec<u16> = segs
            .iter()
            .map(|s| Ipv4Packet::new_checked(&s[..]).unwrap().ident())
            .collect();
        for w in ids.windows(2) {
            assert_eq!(w[1], w[0].wrapping_add(1));
        }
        // Re-coalescing recovers the byte stream.
        let mut acc = segs[0].clone();
        for s in &segs[1..] {
            acc = try_coalesce(&acc, s, 65536).expect("contiguous");
        }
        assert_eq!(payload_of(&acc), payload);
    }

    #[test]
    fn tso_small_packet_passthrough_and_errors() {
        let small = tcp_pkt(1, b"tiny", false);
        let out = tso_split(&small, 1500).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], small);
        assert_eq!(tso_split(&small, 30).unwrap_err(), Error::FieldRange);
    }

    #[test]
    fn tso_split_sg_matches_the_copying_splitter_byte_for_byte() {
        use px_wire::pool::SgRc;
        use px_wire::tso::tso_split_sg_into;
        use px_wire::VecSink;
        let payload: Vec<u8> = (0..8960).map(|i| (i * 31 % 256) as u8).collect();
        // The lookahead requests the chunk after each one; these rows pin
        // its tail slices: none left after an exact multiple of the MSS,
        // a 1-byte last chunk, and the jumbo the gateway splits most.
        let mss = 1500 - tcp_pkt(0, b"", false).len();
        // Both splitters over `big`: byte-identical, and every SG view
        // consumed within the call.
        let split_both = |big: &[u8], mtu: usize| {
            let flat = tso_split(big, mtu).unwrap();
            let mut pool = BufPool::for_mtu(mtu, 16);
            let rc = SgRc::new();
            let mut sink = VecSink::new();
            let n = tso_split_sg_into(big, mtu, &mut pool, &rc, &mut sink).unwrap();
            assert_eq!(rc.views(), 0, "every view consumed within the call");
            let sg = sink.into_pkts();
            assert_eq!(n, sg.len());
            assert_eq!(flat, sg, "len={} mtu={mtu}", big.len());
            flat
        };
        for (len, mtu) in [
            (5000usize, 1500usize),
            (5000, 577),
            (100, 1500),
            (1460, 1500),
            (3 * mss, 1500),
            (mss + 1, 1500),
            (8960, 1500),
        ] {
            let big = tcp_pkt(42, &payload[..len], true);
            split_both(&big, mtu);
        }
        // An ECN jumbo (ECE | CWR): ECE rides on every piece, CWR on the
        // first only, in both splitters.
        let mut ecn = tcp_pkt(42, &payload, true);
        {
            let ip = Ipv4Packet::new_checked(&ecn[..]).unwrap();
            let hl = ip.header_len();
            let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
            let mut f = tcp.flags();
            (f.ece, f.cwr) = (true, true);
            let mut seg = TcpSegment::new_unchecked(&mut ecn[hl..]);
            seg.set_flags(f);
            seg.fill_checksum(SRC, DST);
        }
        let pieces = split_both(&ecn, 1500);
        assert!(pieces.len() > 2);
        for (i, piece) in pieces.iter().enumerate() {
            let ip = Ipv4Packet::new_checked(&piece[..]).unwrap();
            let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
            assert!(tcp.verify_checksum(SRC, DST));
            assert!(tcp.flags().ece, "piece {i} lost ECE");
            assert_eq!(tcp.flags().cwr, i == 0, "CWR on piece {i}");
        }
        // Error paths agree too.
        let small = tcp_pkt(1, b"tiny", false);
        let mut pool = BufPool::for_mtu(1500, 4);
        let rc = SgRc::new();
        let mut sink = VecSink::new();
        assert_eq!(
            tso_split_sg_into(&small, 30, &mut pool, &rc, &mut sink).unwrap_err(),
            Error::FieldRange
        );
        assert_eq!(rc.views(), 0);
    }

    /// The Fig. 1b anchor reproduced through the public model API.
    #[test]
    fn saturation_model_anchors() {
        let m = calib::endpoint_model();
        let glro_1500 = rx_saturation_bps(
            &m,
            &RxConfig {
                mtu: 1500,
                lro: true,
                gro: true,
                flows: 1,
            },
        );
        assert!((glro_1500 / 1e9 - 50.1).abs() < 1.5, "{glro_1500}");
        let none_9000 = rx_saturation_bps(
            &m,
            &RxConfig {
                mtu: 9000,
                lro: false,
                gro: false,
                flows: 1,
            },
        );
        assert!(
            none_9000 < glro_1500,
            "9 KB w/o offloads must lose to 1500 B + G/LRO (Fig. 1b)"
        );
        // Fig. 1c: 1500+G/LRO drops ≈31% at 4 flows; 9 KB bare drops ≈7%.
        let glro_4 = rx_saturation_bps(
            &m,
            &RxConfig {
                mtu: 1500,
                lro: true,
                gro: true,
                flows: 4,
            },
        );
        let drop = 1.0 - glro_4 / glro_1500;
        assert!((drop - 0.31).abs() < 0.04, "G/LRO concurrency drop {drop}");
        let none_9000_4 = rx_saturation_bps(
            &m,
            &RxConfig {
                mtu: 9000,
                lro: false,
                gro: false,
                flows: 4,
            },
        );
        let drop9 = 1.0 - none_9000_4 / none_9000;
        assert!((drop9 - 0.07).abs() < 0.03, "9 KB concurrency drop {drop9}");
    }

    #[test]
    fn aggregation_unit_bounds() {
        let one = RxConfig {
            mtu: 1500,
            lro: true,
            gro: true,
            flows: 1,
        };
        assert_eq!(aggregation_unit(&one), calib::MAX_AGGREGATE);
        // Heavy interleaving bottoms out at the TSO-burst floor, not at a
        // single segment.
        let many = RxConfig {
            mtu: 1500,
            lro: true,
            gro: true,
            flows: 1000,
        };
        assert_eq!(aggregation_unit(&many), calib::AGG_FLOOR_SEGS * 1500);
        let off = RxConfig {
            mtu: 1500,
            lro: false,
            gro: false,
            flows: 1,
        };
        assert_eq!(aggregation_unit(&off), 1500);
    }

    /// The Fig. 5c mechanism: at 100 flows on one core, translating to a
    /// 9 KB iMTU still beats 1500 B even with G/LRO enabled, and the
    /// caravan + UDP_GRO path beats plain 1500 B UDP by ≈2.4×.
    #[test]
    fn fig5c_receiver_gains() {
        let m = calib::endpoint_model();
        let glro_1500 = rx_saturation_bps(
            &m,
            &RxConfig {
                mtu: 1500,
                lro: true,
                gro: true,
                flows: 100,
            },
        );
        let glro_9000 = rx_saturation_bps(
            &m,
            &RxConfig {
                mtu: 9000,
                lro: true,
                gro: true,
                flows: 100,
            },
        );
        let gain = glro_9000 / glro_1500;
        assert!(gain > 1.4 && gain < 2.2, "G/LRO translation gain {gain}");
        // UDP caravan: 6×1472 B datagrams per ~8.9 KB bundle vs plain
        // 1500 B datagrams with no aggregation.
        let caravan = rx_caravan_bps(&m, 8860, 6, 100);
        let plain = rx_saturation_bps(
            &m,
            &RxConfig {
                mtu: 1500,
                lro: false,
                gro: false,
                flows: 100,
            },
        );
        let ratio = caravan / plain;
        assert!((ratio - 2.4).abs() < 0.5, "caravan ratio {ratio}");
    }
}
