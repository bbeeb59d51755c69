//! The comparison baseline of Fig. 5a/5b: a gateway built on the DPDK
//! GRO library pattern.
//!
//! The DPDK `rte_gro` API coalesces packets *within one burst*: the
//! application hands it a batch from `rte_eth_rx_burst`, gets merged
//! packets back, and transmits them — nothing is held across batches.
//! That batch boundary is exactly why the baseline's conversion yield
//! tops out around 76% while PX's delayed merging reaches 93%+: a burst
//! rarely contains enough contiguous same-flow segments to fill a 9 KB
//! jumbo, and whatever is left at the end of the batch ships as-is.

use px_sim::nic::coalesce_batch;
use px_sim::stats::SizeHistogram;
use px_wire::pool::PacketSink;
use px_wire::PacketBuf;

/// Baseline gateway counters.
#[derive(Debug, Default, Clone)]
pub struct BaselineStats {
    /// Input packets.
    pub pkts_in: u64,
    /// Batches processed.
    pub batches: u64,
    /// Output size distribution.
    pub out_sizes: SizeHistogram,
}

impl BaselineStats {
    /// Conversion yield under the same rule as [`crate::merge`].
    pub fn conversion_yield(&self, imtu: usize, emtu: usize) -> f64 {
        self.out_sizes.fraction_at_least(imtu - (emtu - 40) + 1)
    }
}

/// A DPDK-GRO-style batch-merging gateway engine.
#[derive(Debug)]
pub struct BaselineGateway {
    /// Output packet size cap (the b-network iMTU).
    pub imtu: usize,
    /// RX burst size (DPDK default: 32–64 descriptors per poll).
    pub batch_pkts: usize,
    batch: Vec<Vec<u8>>,
    /// Counters.
    pub stats: BaselineStats,
}

impl BaselineGateway {
    /// Creates a baseline gateway.
    pub fn new(imtu: usize, batch_pkts: usize) -> Self {
        assert!(batch_pkts > 0);
        BaselineGateway {
            imtu,
            batch_pkts,
            batch: Vec::with_capacity(batch_pkts),
            stats: BaselineStats::default(),
        }
    }

    /// Feeds one packet; merged output is delivered to `sink` when the
    /// burst fills. The baseline keeps the allocation profile of the
    /// `rte_gro` pattern it models (per-burst mbuf churn), so outputs
    /// are adopted `Vec`s rather than pooled buffers.
    pub fn push_into(&mut self, pkt: Vec<u8>, sink: &mut impl PacketSink) {
        self.stats.pkts_in += 1;
        self.batch.push(pkt);
        if self.batch.len() >= self.batch_pkts {
            self.flush_into(sink);
        }
    }

    /// Ends the current burst (the `rte_eth_rx_burst` returning short, or
    /// the poll loop going idle), delivering merged packets to `sink`.
    pub fn flush_into(&mut self, sink: &mut impl PacketSink) {
        if self.batch.is_empty() {
            return;
        }
        self.stats.batches += 1;
        let batch = std::mem::take(&mut self.batch);
        for p in coalesce_batch(batch, self.imtu) {
            self.stats.out_sizes.record(p.len());
            let _ = sink.accept(PacketBuf::adopt(p));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_wire::ipv4::Ipv4Repr;
    use px_wire::pool::VecSink;
    use px_wire::tcp::{SeqNum, TcpFlags, TcpRepr};
    use px_wire::IpProtocol;
    use std::net::Ipv4Addr;

    const SRC: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 2);

    fn data_pkt(port: u16, seq: u32, len: usize) -> Vec<u8> {
        let repr = TcpRepr {
            src_port: port,
            dst_port: 80,
            seq: SeqNum(seq),
            ack: SeqNum(1),
            flags: TcpFlags::ACK,
            window: 5000,
            options: vec![],
        };
        let seg = repr.build_segment(SRC, DST, &vec![0xAB; len]);
        Ipv4Repr::new(SRC, DST, IpProtocol::Tcp, seg.len())
            .build_packet(&seg)
            .unwrap()
    }

    #[test]
    fn merges_within_batch_only() {
        let mut gw = BaselineGateway::new(9000, 4);
        // Two contiguous segments of flow A, then two of flow B: one
        // batch → two merged packets.
        let mut sink = VecSink::new();
        gw.push_into(data_pkt(5000, 0, 1000), &mut sink);
        gw.push_into(data_pkt(5000, 1000, 1000), &mut sink);
        gw.push_into(data_pkt(6000, 0, 1000), &mut sink);
        gw.push_into(data_pkt(6000, 1000, 1000), &mut sink);
        let out = sink.into_pkts();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|p| p.len() == 2040));
        // The next contiguous segment of flow A cannot join the previous
        // aggregate — it is in a new batch.
        let out2 = VecSink::collect(|s| gw.push_into(data_pkt(5000, 2000, 1000), s));
        assert!(out2.is_empty());
        let out2 = VecSink::collect(|s| gw.flush_into(s));
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].len(), 1040, "no cross-batch merging");
    }

    #[test]
    fn yield_lower_than_delayed_merging_on_interleaved_runs() {
        // 8 flows, runs of 3 contiguous segments, round-robin — a burst
        // of 64 holds ~2.7 runs per flow but the aggregates can't reach
        // 6 segments unless runs happen to be adjacent.
        let imtu = 9000;
        let mut base = BaselineGateway::new(imtu, 64);
        let mut px = crate::merge::MergeEngine::new(crate::merge::MergeConfig {
            imtu,
            emtu: 1500,
            hold_ns: 1_000_000,
            table_capacity: 1024,
        });
        let mut seqs = [0u32; 8];
        let mut now = 0u64;
        for _round in 0..100 {
            for f in 0..8u16 {
                for _ in 0..3 {
                    let pkt = data_pkt(5000 + f, seqs[f as usize], 1460);
                    seqs[f as usize] += 1460;
                    base.push_into(pkt.clone(), &mut VecSink::new());
                    px.push_into(now, &pkt, &mut VecSink::new());
                    now += 1000;
                }
            }
        }
        base.flush_into(&mut VecSink::new());
        px.flush_all_into(&mut VecSink::new());
        let cfg = px.cfg;
        let base_yield = base.stats.conversion_yield(imtu, 1500);
        let px_yield = px.stats.conversion_yield(&cfg);
        assert!(
            px_yield > base_yield,
            "delayed merging must win: px {px_yield} vs base {base_yield}"
        );
        assert!(px_yield > 0.85, "px yield {px_yield}");
    }
}
