//! The merge engine's lookahead ring against the synchronous path.
//!
//! Once a merge engine's flow table has outgrown the cache, the engine
//! driver's owned entry (`CoreEngine::push_into`) holds each packet in a
//! `LOOKAHEAD`-packet ring while the lines its lookup will read are
//! requested, and processes it `LOOKAHEAD` arrivals later at its own
//! arrival time. The lent entry (`MergeEngine::push_into` after
//! `poll_into`) processes every packet on arrival. This test drives one
//! steered engine through each entry with the same input — 16 000
//! mice that push the table past the cache, then elephants under the
//! `px_faults::attack` schedule (reordered runs, bit-identical
//! duplicates, forged replays) laced with more mice — and demands:
//!
//! * byte-identical emissions, in the same order;
//! * that the ring really held packets back, and never more than
//!   `LOOKAHEAD` of them;
//! * the transparency oracle's pass on the output, with each attacked
//!   flow's attacker-free stream as its reference;
//! * every pool buffer home after the drain (in a debug build the
//!   pool's double-put tracking is live throughout).

mod support;

use packet_express::core::engine::CoreEngine;
use packet_express::core::merge::{MergeConfig, MergeEngine, LOOKAHEAD};
use packet_express::core::steer::SteerConfig;
use packet_express::faults::attack::{self, TcpAttackTrace, SEG_PAYLOAD};
use packet_express::sim::stats::CoreCounters;
use packet_express::wire::ipv4::Ipv4Repr;
use packet_express::wire::pool::PacketSink;
use packet_express::wire::tcp::{SeqNum, TcpFlags, TcpRepr};
use packet_express::wire::{FlowKey, IpProtocol, PacketBuf};
use std::net::Ipv4Addr;
use support::oracle::Oracle;

const IMTU: usize = 9000;
/// Mouse flows: enough tracked flows to put the table past the cache.
const MICE: u32 = 16_000;
/// Attacked elephant flows, and their in-order segments each.
const ELEPHANTS: usize = 8;
const SEGS: usize = 40;
/// Arrival spacing: 1 µs, so an elephant's next segment arrives well
/// inside the 50 µs hold and aggregates grow, stash and get attacked.
const GAP_NS: u64 = 1_000;

fn engine() -> MergeEngine {
    MergeEngine::steered(
        MergeConfig {
            imtu: IMTU,
            emtu: 1500,
            hold_ns: 50_000,
            table_capacity: 1 << 16,
        },
        SteerConfig::default(),
    )
}

/// Mouse `i`'s `n`-th segment: 64 payload bytes of a per-flow pattern.
fn mouse(i: u32, n: u32) -> (FlowKey, Vec<u8>) {
    let (src, dst) = (Ipv4Addr::from(0xcb00_0000 + i), Ipv4Addr::new(10, 1, 0, 2));
    let payload: Vec<u8> = (0..64u32).map(|j| (i ^ (n * 64 + j)) as u8).collect();
    let repr = TcpRepr {
        src_port: 20_000 + (i % 40_000) as u16,
        dst_port: 443,
        seq: SeqNum(n * 64),
        ack: SeqNum(1),
        flags: TcpFlags::ACK,
        window: 4096,
        options: vec![],
    };
    let seg = repr.build_segment(src, dst, &payload);
    let pkt = Ipv4Repr::new(src, dst, IpProtocol::Tcp, seg.len())
        .build_packet(&seg)
        .unwrap();
    let key = FlowKey::tcp(src, repr.src_port, dst, repr.dst_port);
    (key, pkt)
}

/// Every mouse's first segment, then the attack schedule with every
/// mouse's second segment spread through it, one after every few
/// elephant packets and the rest at the end.
fn input(attacked: &TcpAttackTrace) -> Vec<(FlowKey, Vec<u8>)> {
    let mut out: Vec<(FlowKey, Vec<u8>)> = (0..MICE).map(|i| mouse(i, 0)).collect();
    let mut second = (0..MICE).map(|i| mouse(i, 1));
    for (k, pkt) in attacked.pkts.iter().enumerate() {
        out.push(pkt.clone());
        if k % 3 == 2 {
            out.extend(second.next());
        }
    }
    out.extend(second);
    out
}

/// Copies each emission and hands the buffer back for recycling.
struct Capture(Vec<Vec<u8>>);

impl PacketSink for Capture {
    fn accept(&mut self, buf: PacketBuf) -> Option<PacketBuf> {
        self.0.push(buf.as_slice().to_vec());
        Some(buf)
    }
}

/// What one run emitted, how much of it had left after each push, its
/// typed drops, and the live flows before the drain.
struct Run {
    out: Vec<Vec<u8>>,
    after_push: Vec<usize>,
    drops: CoreCounters,
    flows_live: usize,
}

fn typed_drops(m: &MergeEngine) -> CoreCounters {
    CoreCounters {
        dropped_inconsistent_overlap: m.stats.dropped_inconsistent_overlap,
        dropped_overlap_evasion: m.stats.dropped_overlap_evasion,
        backpressure_drops: m.stats.backpressure_drops,
        ..CoreCounters::default()
    }
}

/// Through the engine driver's owned entry: the ring engages.
fn through_the_ring(input: &[(FlowKey, Vec<u8>)]) -> Run {
    let mut core = CoreEngine::Merge(engine());
    let mut sink = Capture(Vec::new());
    let mut after_push = Vec::with_capacity(input.len());
    for (i, (_, pkt)) in input.iter().enumerate() {
        core.push_into(i as u64 * GAP_NS, pkt.clone(), &mut sink);
        after_push.push(sink.0.len());
    }
    let flows_live = core.flow_stats().0 as usize;
    core.idle_tick_into(&mut sink);
    core.finish_into(&mut sink);
    let CoreEngine::Merge(m) = &core else {
        unreachable!("built as Merge")
    };
    assert_eq!(m.pool_stats().outstanding(), 0, "ring: pool leak");
    Run {
        out: sink.0,
        after_push,
        drops: typed_drops(m),
        flows_live,
    }
}

/// Through the lent entry, each packet polled and pushed on arrival.
fn on_arrival(input: &[(FlowKey, Vec<u8>)]) -> Run {
    let mut m = engine();
    let mut sink = Capture(Vec::new());
    let mut after_push = Vec::with_capacity(input.len());
    for (i, (_, pkt)) in input.iter().enumerate() {
        let now = i as u64 * GAP_NS;
        m.poll_into(now, &mut sink);
        m.push_into(now, pkt, &mut sink);
        after_push.push(sink.0.len());
    }
    let flows_live = m.flows_live();
    m.poll_into(u64::MAX, &mut sink);
    m.flush_all_into(&mut sink);
    assert_eq!(m.pool_stats().outstanding(), 0, "lent: pool leak");
    Run {
        out: sink.0,
        after_push,
        drops: typed_drops(&m),
        flows_live,
    }
}

#[test]
fn the_ring_emits_what_processing_on_arrival_emits() {
    for seed in 0..3u64 {
        let attacked = attack::tcp_attack_trace(seed, ELEPHANTS, SEGS);
        assert!(attacked.attack_pkts > 0 && attacked.benign_dups > 0 && attacked.reordered > 0);
        let input = input(&attacked);
        let (ring, sync) = (through_the_ring(&input), on_arrival(&input));

        assert!(
            ring.flows_live >= 10_000,
            "seed {seed}: {}",
            ring.flows_live
        );
        assert_eq!(ring.flows_live, sync.flows_live);
        assert!(
            ring.out == sync.out,
            "seed {seed}: the ring changed what left or its order"
        );
        // The ring held packets back, and never more than LOOKAHEAD.
        let held = ring
            .after_push
            .iter()
            .zip(&sync.after_push)
            .filter(|(r, s)| r < s)
            .count();
        assert!(
            held > input.len() / 3,
            "seed {seed}: the ring never engaged ({held} of {})",
            input.len()
        );
        for (i, (r, s)) in ring.after_push.iter().zip(&sync.after_push).enumerate() {
            assert!(r <= s, "seed {seed} push {i}: left before it arrived");
            let due = i.checked_sub(LOOKAHEAD).map_or(0, |j| sync.after_push[j]);
            assert!(*r >= due, "seed {seed} push {i}: held past LOOKAHEAD");
        }
        assert_eq!(ring.drops, sync.drops);

        // The oracle, with each elephant's attacker-free stream as its
        // reference: no forged byte delivered, every input byte
        // delivered or a typed drop.
        let len = (SEGS * SEG_PAYLOAD) as u64;
        let oracle = (0..ELEPHANTS).fold(Oracle::new(&input, IMTU), |oracle, f| {
            let stream: Vec<u8> = (0..len)
                .map(|off| attacked.oracle_byte(seed, f, off))
                .collect();
            let (key, isn) = (attacked.flow_key(seed, f), attacked.flow_isn(seed, f));
            oracle.with_reference(key, isn, &stream)
        });
        let totals = CoreCounters {
            pkts_in: input.len() as u64,
            bytes_in: input.iter().map(|(_, p)| p.len() as u64).sum(),
            pkts_out: ring.out.len() as u64,
            bytes_out: ring.out.iter().map(|p| p.len() as u64).sum(),
            ..ring.drops
        };
        let got = oracle.assert(&ring.out, &totals, &format!("seed {seed}"));
        assert!(got.udp.is_empty() && got.opaque.is_empty());
        assert!(ring.drops.dropped_inconsistent_overlap > 0, "seed {seed}");
    }
}
