//! The PXGW split engine: iMTU → eMTU segmentation.
//!
//! Splitting is stateless and "inherently scalable" (§3): every jumbo
//! packet can be cut independently. TCP packets are TSO-split (sequence
//! numbers advance, checksums recomputed, FIN/PSH only on the last
//! piece); non-TCP packets that exceed the eMTU fall back to IPv4
//! fragmentation when DF allows (UDP caravans never reach this engine —
//! [`crate::caravan_gw`] unbundles them first).

use px_obs::{drop_reason, flow_id, ObsConfig, Recorder, Span, SpanCat};
use px_sim::stats::SizeHistogram;
use px_wire::bytes;
use px_wire::frag::fragment_into;
use px_wire::ipv4::Ipv4Packet;
use px_wire::pool::{BufPool, PacketSink, PoolStats, SgPacket, SgRc};
use px_wire::tso::tso_split_sg_into;
use px_wire::{IpProtocol, PacketBuf};

/// A sink adapter that records every emitted packet's size into a
/// [`SizeHistogram`] (and, when observability is on, a
/// [`SpanCat::Split`] span) before forwarding it — how the engines keep
/// their `out_sizes` accounting on the sink-based hot path.
pub(crate) struct RecordingSink<'a, S> {
    pub sizes: &'a mut SizeHistogram,
    pub obs: &'a mut Recorder,
    /// Logical timestamp for emitted spans: the split engine has no
    /// clock, so this is its input-packet counter (deterministic).
    pub ts: u64,
    /// Flow id of the packet being split (all emissions share it).
    pub flow: u32,
    /// Causal link id tying every emitted `Split` span back to the
    /// producing `Merge`/`Caravan` span (0 = unlinked).
    pub link: u64,
    pub inner: &'a mut S,
}

impl<S: PacketSink> RecordingSink<'_, S> {
    fn note_emit(&mut self, len: usize) {
        self.sizes.record(len);
        self.obs.record(Span {
            link: self.link,
            ..Span::instant(SpanCat::Split, self.ts, len, self.flow, 0)
        });
        self.obs.observe_out_size(len as u64);
    }
}

impl<S: PacketSink> PacketSink for RecordingSink<'_, S> {
    fn accept(&mut self, buf: PacketBuf) -> Option<PacketBuf> {
        self.note_emit(buf.len());
        self.inner.accept(buf)
    }

    /// Scatter-gather emissions are accounted from the view's lengths —
    /// no flattening — then forwarded as views so the inner sink keeps
    /// its zero-copy opportunity.
    fn push_sg(&mut self, pkt: SgPacket<'_>) -> Option<PacketBuf> {
        let len = pkt.total_len();
        self.note_emit(len);
        self.inner.push_sg(pkt)
    }
}

/// Split-engine counters.
#[derive(Debug, Default, Clone)]
pub struct SplitStats {
    /// Input packets.
    pub pkts_in: u64,
    /// Packets that required splitting.
    pub split: u64,
    /// TCP wire segments produced by splitting.
    pub segments_out: u64,
    /// Non-TCP packets IPv4-fragmented.
    pub fragmented: u64,
    /// Oversize packets with DF set that had to be dropped (the gateway
    /// counts these; a correctly configured b-network produces none for
    /// TCP because MSS rewriting bounds segment sizes).
    pub dropped_df: u64,
    /// Oversize packets dropped because they could not be parsed or
    /// re-segmented (malformed headers). Every input that produces no
    /// output increments exactly one of the dropped counters.
    pub dropped_malformed: u64,
    /// Output size distribution.
    pub out_sizes: SizeHistogram,
}

/// The split engine.
#[derive(Debug)]
pub struct SplitEngine {
    /// External MTU to split down to.
    pub emtu: usize,
    pool: BufPool,
    /// Counters.
    pub stats: SplitStats,
    /// Span recorder + histograms (disabled by default — zero cost).
    pub obs: Recorder,
    /// Live-view counter for the jumbo currently being split. Emission
    /// is synchronous, so the count is back to zero by the time
    /// `push_to_into` returns — the debug assertion that proves the
    /// caller may reuse the input buffer immediately.
    view_rc: SgRc,
    /// Causal link id stamped on the `Split` spans of the *next* pushed
    /// packet (0 = unlinked). Set by the trace harness, which knows
    /// which producing `Merge`/`Caravan` span the packet came from.
    span_link: u64,
}

impl SplitEngine {
    /// Creates a split engine targeting `emtu`.
    pub fn new(emtu: usize) -> Self {
        SplitEngine {
            emtu,
            pool: BufPool::for_mtu(emtu, 256),
            stats: SplitStats::default(),
            obs: Recorder::default(),
            view_rc: SgRc::new(),
            span_link: 0,
        }
    }

    /// Stamps the `Split` spans of subsequently pushed packets with a
    /// causal link id (0 clears it). The trace exporter draws a flow
    /// arrow from the producing `Merge`/`Caravan` span to every `Split`
    /// span sharing its link id.
    pub fn set_span_link(&mut self, link: u64) {
        self.span_link = link;
    }

    /// Switches the span recorder + histograms on.
    pub fn enable_obs(&mut self, cfg: ObsConfig) {
        self.obs = Recorder::new(cfg);
    }

    /// Buffer-pool counters (allocation accounting).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats
    }

    /// Processes one packet leaving the b-network, delivering wire
    /// packets that all fit within the eMTU to `sink`.
    pub fn push_into(&mut self, pkt: &[u8], sink: &mut impl PacketSink) {
        let mtu = self.emtu;
        self.push_to_into(pkt, mtu, sink);
    }

    /// Like [`Self::push_into`] but with a per-destination target MTU
    /// (the PMTUD-aware path: split only as far down as the discovered
    /// path MTU requires).
    pub fn push_to_into(&mut self, pkt: &[u8], mtu: usize, sink: &mut impl PacketSink) {
        self.stats.pkts_in += 1;
        // Logical timestamp: this engine has no clock, so spans are
        // stamped with the input-packet index (deterministic).
        let ts = self.stats.pkts_in;
        if pkt.len() <= mtu {
            self.stats.out_sizes.record(pkt.len());
            self.obs.observe_out_size(pkt.len() as u64);
            // Pass-through as an all-payload view: sinks that understand
            // scatter-gather forward it copy-free; the rest materialise
            // into the (empty) pooled header segment — the old single
            // copy, never more.
            let view = SgPacket::new(self.pool.get(), pkt, &self.view_rc);
            if let Some(b) = sink.push_sg(view) {
                self.pool.put(b);
            }
            debug_assert_eq!(self.view_rc.views(), 0);
            return;
        }
        let Ok(ip) = Ipv4Packet::new_checked(pkt) else {
            // Unparseable oversize packet: drop.
            self.stats.dropped_malformed += 1;
            let drop = Span::instant(SpanCat::Drop, ts, pkt.len(), 0, drop_reason::MALFORMED);
            self.obs.record(drop);
            return;
        };
        let l4 = ip.payload();
        let flow = flow_id(bytes::be16(l4, 0), bytes::be16(l4, 2));
        let mut recorded = RecordingSink {
            sizes: &mut self.stats.out_sizes,
            obs: &mut self.obs,
            ts,
            flow,
            link: self.span_link,
            inner: sink,
        };
        match ip.protocol() {
            IpProtocol::Tcp => {
                // Scatter-gather views of the jumbo (§4.1): header
                // bytes from the pool, payload bytes never copied here.
                let res = tso_split_sg_into(pkt, mtu, &mut self.pool, &self.view_rc, &mut recorded);
                debug_assert_eq!(self.view_rc.views(), 0, "views outlived emission");
                match res {
                    Ok(n) => {
                        self.stats.split += 1;
                        self.stats.segments_out += n as u64;
                    }
                    Err(_) => {
                        // A jumbo TCP packet the TSO splitter cannot parse.
                        self.stats.dropped_malformed += 1;
                        let reason = drop_reason::MALFORMED;
                        self.obs
                            .record(Span::instant(SpanCat::Drop, ts, pkt.len(), flow, reason));
                    }
                }
            }
            _ => match fragment_into(pkt, mtu, &mut self.pool, &mut recorded) {
                Ok(_) => {
                    self.stats.split += 1;
                    self.stats.fragmented += 1;
                }
                Err(_) => {
                    // DF set on an oversize non-TCP packet.
                    self.stats.dropped_df += 1;
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_wire::ipv4::Ipv4Repr;
    use px_wire::pool::VecSink;
    use px_wire::tcp::{SeqNum, TcpFlags, TcpRepr, TcpSegment};
    use px_wire::UdpRepr;
    use std::net::Ipv4Addr;

    /// Sink-based split collected into `Vec`s — what the removed
    /// `push`/`push_to` compatibility wrappers used to do, kept local to
    /// the tests that assert on whole output packets.
    fn push_vec(eng: &mut SplitEngine, pkt: &[u8]) -> Vec<Vec<u8>> {
        VecSink::collect(|s| eng.push_into(pkt, s))
    }

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 2);
    const DST: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);

    fn jumbo_tcp(len: usize) -> Vec<u8> {
        let mut payload = vec![0u8; len];
        px_tcp::fill_pattern(7777, &mut payload);
        let mut flags = TcpFlags::ACK;
        flags.psh = true;
        let repr = TcpRepr {
            src_port: 80,
            dst_port: 5000,
            seq: SeqNum(7777),
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
    fn jumbo_tcp_splits_to_emtu() {
        let mut eng = SplitEngine::new(1500);
        let out = push_vec(&mut eng, &jumbo_tcp(8760));
        assert_eq!(out.len(), 6);
        for (i, p) in out.iter().enumerate() {
            assert!(p.len() <= 1500);
            let ip = Ipv4Packet::new_checked(&p[..]).unwrap();
            assert!(ip.verify_checksum());
            let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
            assert!(tcp.verify_checksum(ip.src(), ip.dst()));
            assert_eq!(tcp.flags().psh, i == out.len() - 1);
        }
        // Stream content preserved across the split.
        let mut off = 7777u64;
        for p in &out {
            let ip = Ipv4Packet::new_checked(&p[..]).unwrap();
            let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
            assert_eq!(px_tcp::verify_pattern(off, tcp.payload()), None);
            off += tcp.payload().len() as u64;
        }
        assert_eq!(eng.stats.segments_out, 6);
    }

    #[test]
    fn small_packets_pass_through() {
        let mut eng = SplitEngine::new(1500);
        let pkt = jumbo_tcp(100);
        let out = push_vec(&mut eng, &pkt);
        assert_eq!(out, vec![pkt]);
        assert_eq!(eng.stats.split, 0);
    }

    #[test]
    fn oversize_udp_fragments_when_df_clear() {
        let dg = UdpRepr {
            src_port: 1,
            dst_port: 2,
        }
        .build_datagram(SRC, DST, &vec![0u8; 4000])
        .unwrap();
        let pkt = Ipv4Repr::new(SRC, DST, IpProtocol::Udp, dg.len())
            .build_packet(&dg)
            .unwrap();
        let mut eng = SplitEngine::new(1500);
        let out = push_vec(&mut eng, &pkt);
        assert!(out.len() >= 3);
        assert_eq!(eng.stats.fragmented, 1);
    }

    #[test]
    fn oversize_udp_with_df_drops() {
        let dg = UdpRepr {
            src_port: 1,
            dst_port: 2,
        }
        .build_datagram(SRC, DST, &vec![0u8; 4000])
        .unwrap();
        let mut repr = Ipv4Repr::new(SRC, DST, IpProtocol::Udp, dg.len());
        repr.dont_frag = true;
        let pkt = repr.build_packet(&dg).unwrap();
        let mut eng = SplitEngine::new(1500);
        assert!(push_vec(&mut eng, &pkt).is_empty());
        assert_eq!(eng.stats.dropped_df, 1);
    }

    #[test]
    fn recorder_captures_split_emissions() {
        let mut eng = SplitEngine::new(1500);
        eng.enable_obs(px_obs::ObsConfig::default());
        let out = push_vec(&mut eng, &jumbo_tcp(8760));
        assert_eq!(out.len(), 6);
        let spans = eng.obs.recent_spans(64);
        let splits: Vec<_> = spans.iter().filter(|s| s.cat == SpanCat::Split).collect();
        assert_eq!(splits.len(), 6);
        assert_eq!(eng.obs.spans_recorded(), 6, "one record per emission");
        // All six share the input packet's logical index and flow id.
        assert!(splits.iter().all(|s| s.start_ns == 1), "{splits:?}");
        assert!(
            splits.iter().all(|e| e.flow == flow_id(80, 5000)),
            "{splits:?}"
        );
        assert_eq!(eng.obs.hists().out_bytes.count(), 6);

        // Malformed oversize input records a typed drop.
        assert!(push_vec(&mut eng, &[0u8; 4000]).is_empty());
        assert!(eng
            .obs
            .recent_spans(64)
            .iter()
            .any(|s| s.cat == SpanCat::Drop && s.aux == drop_reason::MALFORMED && s.start_ns == 2));
    }

    #[test]
    fn sg_split_agrees_with_the_flat_reference_on_bytes_and_stats() {
        for len in [100usize, 1460, 4000, 8760] {
            let pkt = jumbo_tcp(len);
            let mut sg = SplitEngine::new(1500);
            let flat = px_sim::nic::tso_split(&pkt, 1500).unwrap();
            assert_eq!(push_vec(&mut sg, &pkt), flat, "len={len}");
            let was_split = pkt.len() > 1500;
            assert_eq!(sg.stats.split, u64::from(was_split));
            assert_eq!(
                sg.stats.segments_out,
                if was_split { flat.len() as u64 } else { 0 }
            );
            assert_eq!(sg.stats.dropped_malformed, 0);
        }
    }

    #[test]
    fn sg_split_recycles_every_buffer_with_a_recycling_sink() {
        let mut eng = SplitEngine::new(1500);
        let mut total = 0usize;
        for i in 0..32u32 {
            let pkt = jumbo_tcp(1000 + (i as usize) * 250);
            eng.push_into(&pkt, &mut |b: px_wire::PacketBuf| {
                total += b.len();
                Some(b)
            });
        }
        assert!(total > 0);
        let ps = eng.pool_stats();
        assert_eq!(
            ps.gets - ps.puts - ps.dropped,
            0,
            "all segment buffers returned to the pool"
        );
    }

    #[test]
    fn merge_then_split_is_identity_on_the_stream() {
        // Six segments → merge → one jumbo → split → six segments, same
        // byte stream.
        use crate::merge::{MergeConfig, MergeEngine};
        let mut merge = MergeEngine::new(MergeConfig::default());
        let mut jumbo = VecSink::new();
        for i in 0..6u32 {
            let mut payload = vec![0u8; 1460];
            px_tcp::fill_pattern(u64::from(i) * 1460, &mut payload);
            let repr = TcpRepr {
                src_port: 5000,
                dst_port: 80,
                seq: SeqNum(i * 1460),
                ack: SeqNum(1),
                flags: TcpFlags::ACK,
                window: 5000,
                options: vec![],
            };
            let seg = repr.build_segment(SRC, DST, &payload);
            let pkt = Ipv4Repr::new(SRC, DST, IpProtocol::Tcp, seg.len())
                .build_packet(&seg)
                .unwrap();
            merge.push_into(0, &pkt, &mut jumbo);
        }
        assert_eq!(jumbo.pkts.len(), 1);
        let mut split = SplitEngine::new(1500);
        let back = push_vec(&mut split, &jumbo.pkts[0]);
        assert_eq!(back.len(), 6);
        let mut off = 0u64;
        for p in &back {
            let ip = Ipv4Packet::new_checked(&p[..]).unwrap();
            let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
            assert_eq!(px_tcp::verify_pattern(off, tcp.payload()), None);
            off += tcp.payload().len() as u64;
        }
        assert_eq!(off, 6 * 1460);
    }
}
