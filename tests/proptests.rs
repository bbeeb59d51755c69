//! Property-based tests (proptest) on the system's core invariants:
//!
//! * IPv4 fragment ∘ reassemble ≡ identity, for arbitrary payloads and
//!   arbitrary MTU ladders;
//! * PXGW merge ∘ split ≡ identity on the TCP byte stream;
//! * caravan bundle ∘ unbundle ≡ identity on datagram sequences;
//! * incremental checksum update ≡ full recomputation;
//! * Toeplitz RSS keeps both directions of a flow on one queue
//!   (symmetric key), and its lookup tables equal the bit-serial hash;
//! * fragmentation never emits oversize or misaligned fragments.

use packet_express::core::caravan_gw::{CaravanConfig, CaravanEngine};
use packet_express::core::merge::{MergeConfig, MergeEngine};
use packet_express::core::split::SplitEngine;
use packet_express::sim::nic;
use packet_express::wire::caravan::{split_bundle, CaravanBuilder, MAX_INNER};
use packet_express::wire::checksum;
use packet_express::wire::frag::{fragment_along_path, Reassembler, ReassemblyResult};
use packet_express::wire::ipv4::{Ipv4Packet, Ipv4Repr, CARAVAN_TOS};
use packet_express::wire::tcp::{SeqNum, TcpFlags, TcpRepr, TcpSegment};
use packet_express::wire::{FlowKey, IpProtocol, RssHasher, UdpRepr};

/// Sink-based split collected into `Vec`s — replaces the removed
/// `SplitEngine::push` compatibility wrapper for round-trip assertions.
fn split_vec(eng: &mut SplitEngine, pkt: &[u8]) -> Vec<Vec<u8>> {
    VecSink::collect(|s| eng.push_into(pkt, s))
}
use proptest::prelude::*;
use std::net::Ipv4Addr;

const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fragmenting down an arbitrary ladder of MTUs and reassembling
    /// recovers the original packet exactly.
    #[test]
    fn fragment_reassemble_identity(
        payload in proptest::collection::vec(any::<u8>(), 1..20_000),
        mtus in proptest::collection::vec(100usize..9000, 1..4),
        ident in any::<u16>(),
    ) {
        let mut repr = Ipv4Repr::new(SRC, DST, IpProtocol::Udp, payload.len());
        repr.ident = ident;
        let pkt = repr.build_packet(&payload).unwrap();
        let frags = fragment_along_path(&pkt, &mtus).unwrap();
        // Every fragment respects the narrowest MTU seen so far and is
        // 8-byte aligned.
        let min_mtu = *mtus.iter().min().unwrap();
        for f in &frags {
            prop_assert!(f.len() <= min_mtu.max(28));
            let v = Ipv4Packet::new_checked(&f[..]).unwrap();
            prop_assert!(v.verify_checksum());
            prop_assert_eq!(v.frag_offset() % 8, 0);
        }
        let mut r = Reassembler::new();
        let mut out = None;
        for f in &frags {
            if let ReassemblyResult::Complete { packet, .. } = r.push(f, 0).unwrap() {
                out = Some(packet);
            }
        }
        let out = if frags.len() == 1 { frags[0].clone() } else { out.expect("reassembles") };
        prop_assert_eq!(out, pkt);
    }

    /// Coalescing contiguous TCP segments and TSO-splitting the result
    /// preserves the byte stream exactly, for arbitrary chunkings.
    #[test]
    fn merge_split_identity(
        chunks in proptest::collection::vec(1usize..2000, 1..12),
        base_seq in any::<u32>(),
        out_mtu in 600usize..1500,
    ) {
        let total: usize = chunks.iter().sum();
        let mut stream = vec![0u8; total];
        for (i, b) in stream.iter_mut().enumerate() {
            *b = ((i as u64 * 31 + 7) % 251) as u8;
        }
        // Build segments along the chunk boundaries.
        let mut pkts = Vec::new();
        let mut off = 0usize;
        for &c in &chunks {
            let repr = TcpRepr {
                src_port: 5000,
                dst_port: 80,
                seq: SeqNum(base_seq.wrapping_add(off as u32)),
                ack: SeqNum(1),
                flags: TcpFlags::ACK,
                window: 1024,
                options: vec![],
            };
            let seg = repr.build_segment(SRC, DST, &stream[off..off + c]);
            pkts.push(Ipv4Repr::new(SRC, DST, IpProtocol::Tcp, seg.len()).build_packet(&seg).unwrap());
            off += c;
        }
        // Merge as far as the engine will (64 KB cap like LRO).
        let mut merged: Vec<Vec<u8>> = Vec::new();
        for p in pkts {
            match merged.last() {
                Some(last) => match nic::try_coalesce(last, &p, 65000) {
                    Some(m) => *merged.last_mut().unwrap() = m,
                    None => merged.push(p),
                },
                None => merged.push(p),
            }
        }
        // Split back to wire size and re-read the stream.
        let mut rebuilt = Vec::with_capacity(total);
        for m in merged {
            for w in nic::tso_split(&m, out_mtu).unwrap() {
                let ip = Ipv4Packet::new_checked(&w[..]).unwrap();
                prop_assert!(w.len() <= out_mtu);
                prop_assert!(ip.verify_checksum());
                let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
                prop_assert!(tcp.verify_checksum(SRC, DST));
                rebuilt.extend_from_slice(tcp.payload());
            }
        }
        prop_assert_eq!(rebuilt, stream);
    }

    /// The PXGW engines themselves: merge∘split over a full engine pass
    /// preserves stream bytes and order.
    #[test]
    fn gateway_engines_identity(
        n_segs in 1usize..20,
        seg_len in 100usize..1460,
    ) {
        let mut merge = MergeEngine::new(MergeConfig::default());
        let mut split = SplitEngine::new(1500);
        let mut stream = Vec::new();
        let mut out_pkts = VecSink::new();
        for i in 0..n_segs {
            let mut payload = vec![0u8; seg_len];
            for (j, b) in payload.iter_mut().enumerate() {
                *b = (((i * seg_len + j) as u64 * 17 + 3) % 251) as u8;
            }
            stream.extend_from_slice(&payload);
            let repr = TcpRepr {
                src_port: 6000,
                dst_port: 80,
                seq: SeqNum((i * seg_len) as u32),
                ack: SeqNum(1),
                flags: TcpFlags::ACK,
                window: 1024,
                options: vec![],
            };
            let seg = repr.build_segment(SRC, DST, &payload);
            let pkt = Ipv4Repr::new(SRC, DST, IpProtocol::Tcp, seg.len()).build_packet(&seg).unwrap();
            merge.push_into((i as u64) * 1000, &pkt, &mut out_pkts);
        }
        merge.flush_all_into(&mut out_pkts);
        let out_pkts = out_pkts.into_pkts();
        let mut rebuilt = Vec::new();
        for p in out_pkts {
            for w in split_vec(&mut split, &p) {
                let ip = Ipv4Packet::new_checked(&w[..]).unwrap();
                let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
                rebuilt.extend_from_slice(tcp.payload());
            }
        }
        prop_assert_eq!(rebuilt, stream);
    }

    /// Caravan bundle/unbundle preserves every datagram and their order.
    #[test]
    fn caravan_identity(
        lens in proptest::collection::vec(0usize..1400, 1..16),
    ) {
        let mut datagrams = Vec::new();
        for (i, &l) in lens.iter().enumerate() {
            let payload: Vec<u8> = (0..l).map(|j| ((i * 7 + j) % 256) as u8).collect();
            datagrams.push(
                UdpRepr { src_port: 5000, dst_port: 4433 }
                    .build_datagram(SRC, DST, &payload)
                    .unwrap(),
            );
        }
        // Bundle greedily into caravans.
        let mut bundles = Vec::new();
        let mut b = CaravanBuilder::new(8972);
        for d in &datagrams {
            if !b.fits(d) {
                bundles.push(b.finish());
                b = CaravanBuilder::new(8972);
            }
            b.push(d).unwrap();
        }
        if !b.is_empty() {
            bundles.push(b.finish());
        }
        let mut restored = Vec::new();
        for bundle in &bundles {
            for d in split_bundle(bundle).unwrap() {
                restored.push(d.to_vec());
            }
        }
        prop_assert_eq!(restored, datagrams);
    }

    /// The u64-wide ones'-complement sum equals the byte-at-a-time u16
    /// oracle for arbitrary buffers, odd lengths and jumbo sizes
    /// included (lengths up to the 9216-byte super-jumbo frame).
    #[test]
    fn wide_checksum_matches_scalar_oracle(
        data in proptest::collection::vec(any::<u8>(), 0..9217),
    ) {
        prop_assert_eq!(
            checksum::ones_complement_sum(&data),
            checksum::ones_complement_sum_scalar(&data),
        );
    }

    /// Splitting a buffer at an arbitrary point and combining the
    /// partial sums — with the odd-offset byte swap — equals summing the
    /// whole buffer: the invariant the merge engine's cached per-segment
    /// payload sums rely on.
    #[test]
    fn partial_sum_combine_matches_whole(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        cut in any::<u16>(),
    ) {
        let pos = usize::from(cut) % (data.len() + 1);
        let head = checksum::ones_complement_sum(&data[..pos]);
        let tail = checksum::ones_complement_sum(&data[pos..]);
        prop_assert_eq!(
            checksum::combine_at_offset(head, tail, pos % 2 == 1),
            checksum::ones_complement_sum(&data),
        );
    }

    /// Aggregates emitted through the merge engine's cached-partial-sum
    /// fast path carry IPv4 and TCP checksums identical to a
    /// from-scratch recomputation over the merged bytes — odd segment
    /// lengths included.
    #[test]
    fn merged_checksums_match_full_recompute(
        seg_lens in proptest::collection::vec(1usize..1460, 2..12),
    ) {
        let mut merge = MergeEngine::new(MergeConfig {
            imtu: 9000,
            emtu: 1500,
            hold_ns: 100_000,
            table_capacity: 64,
        });
        let mut out = VecSink::new();
        let mut seq = 0u32;
        for (i, &len) in seg_lens.iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|j| ((i * 31 + j * 7) % 251) as u8).collect();
            let repr = TcpRepr {
                src_port: 8000,
                dst_port: 80,
                seq: SeqNum(seq),
                ack: SeqNum(1),
                flags: TcpFlags::ACK,
                window: 1024,
                options: vec![],
            };
            let seg = repr.build_segment(SRC, DST, &payload);
            let pkt = Ipv4Repr::new(SRC, DST, IpProtocol::Tcp, seg.len())
                .build_packet(&seg)
                .unwrap();
            seq = seq.wrapping_add(len as u32);
            merge.push_into((i as u64) * 1000, &pkt, &mut out);
        }
        merge.flush_all_into(&mut out);
        let out = out.into_pkts();
        prop_assert!(!out.is_empty());
        for p in &out {
            let ip = Ipv4Packet::new_checked(&p[..]).unwrap();
            prop_assert!(ip.verify_checksum());
            let tcp_bytes = ip.payload();
            // Full recomputation with the scalar oracle: zero the stored
            // checksum, sum pseudo-header + segment, compare fields.
            let stored = u16::from_be_bytes([tcp_bytes[16], tcp_bytes[17]]);
            let mut cleared = tcp_bytes.to_vec();
            cleared[16] = 0;
            cleared[17] = 0;
            let expect = !checksum::combine(
                checksum::pseudo_header_sum(ip.src(), ip.dst(), 6, cleared.len() as u16),
                checksum::ones_complement_sum_scalar(&cleared),
            );
            prop_assert_eq!(stored, expect);
        }
    }

    /// RFC 1624 incremental checksum update matches full recomputation
    /// for arbitrary 16-bit word rewrites.
    #[test]
    fn incremental_checksum_equivalence(
        mut data in proptest::collection::vec(any::<u8>(), 4..256),
        word_idx in 0usize..100,
        new_word in any::<u16>(),
    ) {
        if data.len() % 2 == 1 {
            data.push(0);
        }
        let idx = (word_idx % (data.len() / 2)) * 2;
        let old_ck = checksum::checksum(&data);
        let old_word = u16::from_be_bytes([data[idx], data[idx + 1]]);
        data[idx..idx + 2].copy_from_slice(&new_word.to_be_bytes());
        let updated = checksum::incremental_update(old_ck, old_word, new_word);
        prop_assert_eq!(updated, checksum::checksum(&data));
    }

    /// With the symmetric RSS key, both directions of any flow map to
    /// the same queue for any queue count.
    #[test]
    fn symmetric_rss_is_bidirectional(
        a in any::<u32>(),
        b in any::<u32>(),
        pa in any::<u16>(),
        pb in any::<u16>(),
        queues in 1usize..64,
    ) {
        let h = RssHasher::symmetric();
        let k = FlowKey::tcp(Ipv4Addr::from(a), pa, Ipv4Addr::from(b), pb);
        prop_assert_eq!(h.queue_for(&k, queues), h.queue_for(&k.reversed(), queues));
        // One queue takes every flow (no hash computed); any real
        // fan-out is still the hash's low bits.
        prop_assert_eq!(h.queue_for(&k, 1), 0);
        prop_assert_eq!(h.queue_for(&k, queues + 1), h.hash(&k) as usize % (queues + 1));
    }

    /// The table-driven 4-tuple hash is the bit-serial Toeplitz
    /// definition (`hash_bytes`), for any key and any tuple.
    #[test]
    fn table_toeplitz_matches_the_bit_serial_oracle(
        key in proptest::collection::vec(any::<u8>(), 40..41),
        a in any::<u32>(),
        b in any::<u32>(),
        pa in any::<u16>(),
        pb in any::<u16>(),
    ) {
        let mut secret = [0u8; 40];
        secret.copy_from_slice(&key);
        let h = RssHasher::new(secret);
        let k = FlowKey::udp(Ipv4Addr::from(a), pa, Ipv4Addr::from(b), pb);
        let mut tuple = [0u8; 12];
        tuple[0..4].copy_from_slice(&a.to_be_bytes());
        tuple[4..8].copy_from_slice(&b.to_be_bytes());
        tuple[8..10].copy_from_slice(&pa.to_be_bytes());
        tuple[10..12].copy_from_slice(&pb.to_be_bytes());
        prop_assert_eq!(h.hash(&k), h.hash_bytes(&tuple));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A full merge→split pass over a *randomized multi-flow mix*
    /// preserves each flow's exact TCP byte stream: wire packets carry
    /// valid IPv4/TCP checksums, per-flow sequence numbers are gapless,
    /// ACKs are preserved, and the reassembled payload is identical.
    #[test]
    fn multiflow_merge_split_stream_identity(
        interleave in proptest::collection::vec(0usize..4, 4..48),
        seg_lens in proptest::collection::vec(64usize..1460, 4..48),
        base_seq in any::<u32>(),
    ) {
        const N_FLOWS: usize = 4;
        let base = |f: usize| base_seq.wrapping_add((f as u32) * 0x0300_0000);
        let mut merge = MergeEngine::new(MergeConfig {
            imtu: 9000,
            emtu: 1500,
            hold_ns: 100_000,
            table_capacity: 64,
        });
        let mut split = SplitEngine::new(1500);
        let mut sent: Vec<Vec<u8>> = vec![Vec::new(); N_FLOWS];
        let mut next_seq: Vec<u32> = (0..N_FLOWS).map(base).collect();
        let mut merged = VecSink::new();
        for (i, &f) in interleave.iter().enumerate() {
            let len = seg_lens[i % seg_lens.len()];
            let payload: Vec<u8> = (0..len)
                .map(|j| (((f * 131 + sent[f].len() + j) as u64 * 13 + 5) % 251) as u8)
                .collect();
            let repr = TcpRepr {
                src_port: 7000 + f as u16,
                dst_port: 80,
                seq: SeqNum(next_seq[f]),
                ack: SeqNum(1),
                flags: TcpFlags::ACK,
                window: 1024,
                options: vec![],
            };
            let seg = repr.build_segment(SRC, DST, &payload);
            let pkt = Ipv4Repr::new(SRC, DST, IpProtocol::Tcp, seg.len())
                .build_packet(&seg)
                .unwrap();
            next_seq[f] = next_seq[f].wrapping_add(len as u32);
            sent[f].extend_from_slice(&payload);
            merge.push_into((i as u64) * 1000, &pkt, &mut merged);
        }
        merge.flush_all_into(&mut merged);
        let merged = merged.into_pkts();
        let mut rebuilt: Vec<Vec<u8>> = vec![Vec::new(); N_FLOWS];
        let mut expect_seq: Vec<u32> = (0..N_FLOWS).map(base).collect();
        for m in merged {
            for w in split_vec(&mut split, &m) {
                let ip = Ipv4Packet::new_checked(&w[..]).unwrap();
                prop_assert!(w.len() <= 1500);
                prop_assert!(ip.verify_checksum());
                let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
                prop_assert!(tcp.verify_checksum(SRC, DST));
                prop_assert_eq!(tcp.ack().0, 1, "ACK must survive merge/split");
                let f = usize::from(tcp.src_port()) - 7000;
                // Gapless per-flow sequence space: each wire segment
                // starts exactly where the previous one ended.
                prop_assert_eq!(tcp.seq().0, expect_seq[f]);
                expect_seq[f] = expect_seq[f].wrapping_add(tcp.payload().len() as u32);
                rebuilt[f].extend_from_slice(tcp.payload());
            }
        }
        for f in 0..N_FLOWS {
            prop_assert_eq!(&rebuilt[f], &sent[f], "flow {} stream", f);
        }
    }

    /// The caravan *engine* (pack) followed by bundle walking (unpack)
    /// preserves datagram count, order, and boundaries for randomized
    /// datagram sizes — passthrough singletons included.
    #[test]
    fn caravan_engine_pack_unpack_boundaries(
        lens in proptest::collection::vec(0usize..1300, 1..40),
    ) {
        let mut eng = CaravanEngine::new(CaravanConfig {
            imtu: 9000,
            hold_ns: 10_000,
            table_capacity: 1024,
            require_consecutive_ip_id: true,
        });
        let mut sent = Vec::new();
        let mut outputs = VecSink::new();
        for (i, &l) in lens.iter().enumerate() {
            let payload: Vec<u8> = (0..l).map(|j| ((i * 19 + j * 7) % 256) as u8).collect();
            let dg = UdpRepr { src_port: 5000, dst_port: 4433 }
                .build_datagram(SRC, DST, &payload)
                .unwrap();
            sent.push(dg.clone());
            let mut ip = Ipv4Repr::new(SRC, DST, IpProtocol::Udp, dg.len());
            ip.ident = 100u16.wrapping_add(i as u16);
            let pkt = ip.build_packet(&dg).unwrap();
            eng.push_inbound_into((i as u64) * 500, &pkt, &mut outputs);
        }
        eng.flush_all_into(&mut outputs);
        let outputs = outputs.into_pkts();
        let mut restored: Vec<Vec<u8>> = Vec::new();
        for out in &outputs {
            let ip = Ipv4Packet::new_checked(&out[..]).unwrap();
            prop_assert!(ip.verify_checksum());
            prop_assert!(out.len() <= 9000);
            if ip.tos() == CARAVAN_TOS {
                for inner in split_bundle(&ip.payload()[8..]).unwrap() {
                    restored.push(inner.to_vec());
                }
            } else {
                restored.push(ip.payload().to_vec());
            }
        }
        prop_assert_eq!(restored, sent);
    }

    /// Corrupted caravan bytes never panic the parser: off-boundary
    /// truncations are rejected with `Err`, boundary truncations yield a
    /// valid prefix, and arbitrary bit-flips either fail cleanly or
    /// still account for every byte.
    #[test]
    fn caravan_corruption_never_panics(
        lens in proptest::collection::vec(0usize..600, 1..10),
        cut in any::<u16>(),
        flip_byte in any::<u16>(),
        flip_bit in 0u32..8,
    ) {
        let mut b = CaravanBuilder::new(1 << 16);
        let mut boundaries = vec![0usize];
        for (i, &l) in lens.iter().enumerate() {
            let payload: Vec<u8> = (0..l).map(|j| ((i + j) % 256) as u8).collect();
            let dg = UdpRepr { src_port: 6000, dst_port: 4433 }
                .build_datagram(SRC, DST, &payload)
                .unwrap();
            b.push(&dg).unwrap();
            boundaries.push(b.len());
        }
        let bundle = b.finish();
        prop_assert!(!bundle.is_empty());

        // Truncation at an arbitrary point.
        let pos = usize::from(cut) % bundle.len();
        match split_bundle(&bundle[..pos]) {
            Ok(prefix) => {
                prop_assert!(boundaries.contains(&pos),
                    "cut {} inside a datagram must not parse", pos);
                let idx = boundaries.iter().position(|&x| x == pos).unwrap();
                prop_assert_eq!(prefix.len(), idx);
            }
            Err(_) => prop_assert!(!boundaries.contains(&pos)),
        }

        // A single bit-flip anywhere: clean Ok or clean Err, and any Ok
        // result still partitions the buffer exactly.
        let mut flipped = bundle.clone();
        let fi = usize::from(flip_byte) % flipped.len();
        flipped[fi] ^= 1u8 << flip_bit;
        if let Ok(inner) = split_bundle(&flipped) {
            let covered: usize = inner.iter().map(|d| d.len()).sum();
            prop_assert_eq!(covered, flipped.len());
            prop_assert!(inner.len() <= MAX_INNER);
        }
    }
}

/// Exhaustive complement to `wide_checksum_matches_scalar_oracle`:
/// *every* length from 0 through 9216 bytes (odd tails, every residue of
/// the 8-byte wide words) over patterned non-repeating data.
#[test]
fn wide_checksum_matches_scalar_at_every_length() {
    let data: Vec<u8> = (0..9216u32)
        .map(|i| (i.wrapping_mul(167) >> 3) as u8)
        .collect();
    for len in 0..=data.len() {
        assert_eq!(
            checksum::ones_complement_sum(&data[..len]),
            checksum::ones_complement_sum_scalar(&data[..len]),
            "length {len}"
        );
    }
}

// --- PR 7: single-core speed machinery -------------------------------
//
// The SIMD checksum kernels, the scatter-gather split path, and the
// pooled view lifecycle all claim bit-exactness with their simple
// predecessors. Prove it.

use packet_express::wire::pool::{BufPool, PacketSink, SgPacket, SgSource, VecSink};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every checksum kernel agrees with the RFC 1071 scalar oracle on
    /// random content at a random (possibly unaligned) offset.
    #[test]
    fn checksum_kernels_match_scalar_on_random_data(
        data in proptest::collection::vec(any::<u8>(), 0..9216),
        offset in 0usize..64,
    ) {
        let start = offset.min(data.len());
        let slice = &data[start..];
        let oracle = checksum::ones_complement_sum_scalar(slice);
        for k in checksum::Kernel::ALL {
            prop_assert_eq!(
                checksum::ones_complement_sum_with(k, slice),
                oracle,
                "kernel {} at offset {} len {}", k.name(), start, slice.len()
            );
        }
    }

    /// The split engine's scatter-gather TSO path and the NIC model's
    /// flat `tso_split` reference are the same function: byte-identical
    /// wire packets and the counters the reference implies, for
    /// arbitrary payload sizes and path MTUs.
    #[test]
    fn sg_split_flatten_matches_flat_reference_split(
        payload_len in 1usize..9000,
        mtu in 576usize..1600,
        seed in any::<u64>(),
    ) {
        let payload: Vec<u8> = (0..payload_len)
            .map(|i| (seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64) >> 33) as u8)
            .collect();
        let repr = TcpRepr {
            src_port: 6000,
            dst_port: 80,
            seq: SeqNum(42),
            ack: SeqNum(1),
            flags: TcpFlags::ACK,
            window: 1024,
            options: vec![],
        };
        let seg = repr.build_segment(SRC, DST, &payload);
        let pkt = Ipv4Repr::new(SRC, DST, IpProtocol::Tcp, seg.len())
            .build_packet(&seg)
            .unwrap();

        let mut sg_engine = SplitEngine::new(1500);
        let mut sg_sink = VecSink::new();
        sg_engine.push_to_into(&pkt, mtu, &mut sg_sink);
        let flat = nic::tso_split(&pkt, mtu).unwrap();

        prop_assert_eq!(&sg_sink.pkts, &flat);
        let was_split = pkt.len() > mtu;
        prop_assert_eq!(sg_engine.stats.split, u64::from(was_split));
        prop_assert_eq!(
            sg_engine.stats.segments_out,
            if was_split { flat.len() as u64 } else { 0 }
        );
        prop_assert_eq!(sg_engine.stats.dropped_df, 0);
        prop_assert_eq!(sg_engine.stats.dropped_malformed, 0);
        // Every wire packet re-verifies both checksums after reassembly
        // from scattered segments.
        for w in &sg_sink.pkts {
            prop_assert!(w.len() <= mtu.max(pkt.len().min(mtu)));
            let ip = Ipv4Packet::new_checked(&w[..]).unwrap();
            prop_assert!(ip.verify_checksum());
            let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
            prop_assert!(tcp.verify_checksum(SRC, DST));
        }
        // The SG engine recycles every pooled header buffer (the sink
        // hands each one back after its single copy).
        let sp = sg_engine.pool_stats();
        prop_assert_eq!(sp.gets, sp.puts + sp.dropped);
    }

    /// Pooled jumbo lifecycle: views registered against an `SgSource`
    /// all drop back to zero, the flattened views reproduce the jumbo
    /// byte-for-byte, and the jumbo itself recycles into the pool
    /// exactly once — no leak, no double-put.
    #[test]
    fn sg_views_recycle_the_jumbo_exactly_once(
        len in 1usize..9216,
        n_views in 1usize..32,
        seed in any::<u64>(),
    ) {
        let mut pool = BufPool::for_mtu(9216, 64);
        let mut jumbo = pool.get();
        for i in 0..len {
            jumbo.extend_from_slice(&[
                (seed.wrapping_mul(2862933555777941757).wrapping_add(i as u64) >> 29) as u8,
            ]);
        }
        let src = SgSource::new(jumbo);
        let mut sink = VecSink::new();

        // Carve the jumbo into n contiguous views and emit each through
        // the single-copy sink, recycling every header buffer.
        for i in 0..n_views {
            let a = (i * len) / n_views;
            let b = ((i + 1) * len) / n_views;
            let view = SgPacket::new(pool.get(), &src.bytes()[a..b], src.rc());
            prop_assert_eq!(src.views(), 1, "one live view at a time");
            if let Some(h) = sink.push_sg(view) {
                pool.put(h);
            }
        }
        prop_assert_eq!(src.views(), 0, "all views dropped");

        let flat: Vec<u8> = sink.pkts.concat();
        prop_assert_eq!(&flat[..], src.bytes());

        // The jumbo goes back exactly once: puts rise by one, and the
        // pool balances to zero outstanding buffers.
        let puts_before = pool.stats.puts;
        pool.put(src.into_buf());
        prop_assert_eq!(pool.stats.puts, puts_before + 1);
        prop_assert_eq!(pool.outstanding(), 0);
        prop_assert_eq!(
            pool.stats.gets,
            pool.stats.puts + pool.stats.dropped,
            "every get matched by exactly one put"
        );
    }
}

/// Exhaustive kernel equivalence: *every* kernel × *every* length
/// 0..=9216 (at a rolling unaligned offset) × *every* offset 0..=63 (at
/// representative lengths spanning the SIMD width boundaries), over
/// patterned non-repeating data. Combined with the random-content
/// property above, this pins every SIMD tail/alignment case to the
/// scalar oracle.
#[test]
fn every_kernel_matches_scalar_at_every_length_and_offset() {
    let data: Vec<u8> = (0..9216 + 64u32)
        .map(|i| (i.wrapping_mul(197) >> 2) as u8)
        .collect();
    // Sweep all lengths; the offset rolls through every 64-byte residue.
    for len in 0..=9216usize {
        let off = len % 64;
        let slice = &data[off..off + len];
        let oracle = checksum::ones_complement_sum_scalar(slice);
        for k in checksum::Kernel::ALL {
            assert_eq!(
                checksum::ones_complement_sum_with(k, slice),
                oracle,
                "kernel {} len {len} offset {off}",
                k.name()
            );
        }
    }
    // Sweep all offsets at lengths bracketing each kernel's stride.
    for off in 0..=63usize {
        for len in [
            0usize, 1, 2, 7, 8, 9, 15, 16, 31, 32, 33, 63, 64, 65, 512, 1500, 9216,
        ] {
            let slice = &data[off..off + len];
            let oracle = checksum::ones_complement_sum_scalar(slice);
            for k in checksum::Kernel::ALL {
                assert_eq!(
                    checksum::ones_complement_sum_with(k, slice),
                    oracle,
                    "kernel {} len {len} offset {off}",
                    k.name()
                );
            }
        }
    }
}
