//! Seeded traffic generation, owned by the benchmark.
//!
//! One parametric generator covers all six workloads: it draws a burst
//! schedule over a flow population from `--seed`, optionally churns flow
//! identities and injects hostile packets, builds every packet through
//! the px-wire repr builders (`sut::build_*`), and keeps — per flow — the
//! oracle the checker needs: what was offered, in which order, and when
//! each byte first arrived. Payload bytes are a pure function of
//! `(flow, stream offset)`, so the oracle never stores them.

use crate::sut::{
    build_tcp, build_udp_datagram, wrap_udp, CaravanBuilder, FlowKey, IpProtocol, CARAVAN_TOS,
};
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// SplitMix64: the generator's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(mix64(seed ^ 0x5058_4245_4E43_4831))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance_ppm(&mut self, ppm: u32) -> bool {
        ppm > 0 && self.next_u64() % 1_000_000 < u64::from(ppm)
    }

    /// Geometric run length with the given mean, capped.
    fn burst(&mut self, mean: f64, cap: usize) -> usize {
        let p = 1.0 / mean;
        let mut run = 1;
        while run < cap && self.unit() > p {
            run += 1;
        }
        run
    }

    fn pick(&mut self, mix: &[(usize, u32)]) -> usize {
        let total: u32 = mix.iter().map(|(_, w)| w).sum();
        let mut roll = (self.next_u64() % u64::from(total)) as u32;
        for &(len, w) in mix {
            if roll < w {
                return len;
            }
            roll -= w;
        }
        mix[mix.len() - 1].0
    }
}

/// Fills `out` with flow `salt`'s payload bytes starting at stream
/// offset `off`. Offset-addressable, so any delivered range can be
/// regenerated and compared without storing the stream.
pub fn fill_pattern(salt: u64, off: u64, out: &mut [u8]) {
    let mut o = off;
    let mut i = 0;
    while i < out.len() {
        let word = mix64(salt.wrapping_add(o >> 3)).to_le_bytes();
        let start = (o & 7) as usize;
        let n = (8 - start).min(out.len() - i);
        out[i..i + n].copy_from_slice(&word[start..start + n]);
        i += n;
        o += n as u64;
    }
}

/// What the generator emits for a flow population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Inbound TCP data segments; where the mix has 0, a pure ACK on the
    /// flow's reverse 5-tuple (ACKs travel against the data they
    /// acknowledge, so they never sit between two mergeable segments).
    Tcp,
    /// Inbound UDP datagrams with consecutive IP-IDs.
    Udp,
    /// Outbound: even flows send TCP jumbo segments, odd flows send
    /// PX-caravan bundles of `mix` datagrams.
    Egress,
}

/// Flow-identity churn: a ring of live flows whose members retire after
/// a packet budget and are replaced by fresh 5-tuples.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    /// Elephants per million flows.
    pub elephant_ppm: u32,
    /// Mouse budget is uniform in `1..=mouse_max_pkts`.
    pub mouse_max_pkts: u32,
    /// Elephant budget is bounded Pareto over this range, shape 1.2.
    pub elephant_pkts: (u32, u32),
    /// Payload mix for mice (elephants use `GenSpec::mix`).
    pub mice_mix: &'static [(usize, u32)],
}

/// Hostile injections, each as parts per million of legitimate data
/// segments.
#[derive(Debug, Clone, Copy)]
pub struct Hostile {
    pub reorder_ppm: u32,
    pub dup_ppm: u32,
    pub forge_ppm: u32,
    pub malformed_ppm: u32,
}

#[derive(Debug, Clone, Copy)]
pub struct GenSpec {
    pub shape: Shape,
    pub flows: usize,
    /// Legitimate packets to offer (hostile extras come on top).
    pub pkts: usize,
    pub mean_burst: f64,
    pub burst_cap: usize,
    /// `(L4 payload bytes, weight)`; 0 bytes is a pure ACK.
    pub mix: &'static [(usize, u32)],
    /// Datagrams per caravan bundle (`Shape::Egress` only).
    pub bundle: usize,
    /// TCP payload bytes per jumbo segment (`Shape::Egress` only).
    pub jumbo_payload: usize,
    pub churn: Option<Churn>,
    pub hostile: Option<Hostile>,
}

/// What the checker knows about one offered flow.
#[derive(Debug, Clone)]
pub struct FlowOracle {
    pub key: FlowKey,
    pub salt: u64,
    /// Initial sequence number (TCP).
    pub isn: u32,
    /// TCP payload bytes offered.
    pub stream_len: u64,
    /// TCP segments by stream offset: `(offset, first-arrival index)`.
    pub segs: Vec<(u64, u32)>,
    /// Pure ACKs offered, on `key.reversed()`.
    pub pure_acks: u32,
    /// UDP datagrams in offered order: `(payload bytes, arrival index)`.
    pub dgrams: Vec<(u16, u32)>,
    /// Legitimate packets offered (data, ACKs, bundles).
    pub legit_pkts: u32,
    next_ip_id: u16,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenStats {
    pub legit_pkts: u64,
    pub legit_bytes: u64,
    pub pure_acks: u64,
    pub reordered: u64,
    pub dup_pkts: u64,
    pub forged_pkts: u64,
    pub malformed_pkts: u64,
}

#[derive(Debug, Clone)]
pub struct Trace {
    pub pkts: Vec<(FlowKey, Vec<u8>)>,
    pub flows: Vec<FlowOracle>,
    pub stats: GenStats,
    /// Whole-packet hashes of the malformed packets injected: the only
    /// delivered packets allowed to fail validation.
    pub malformed: HashSet<u64>,
    /// Hash of every packet byte in offer order (see [`hash_words`]).
    pub fnv: u64,
}

impl Trace {
    pub fn wire_bytes(&self) -> u64 {
        self.pkts.iter().map(|(_, p)| p.len() as u64).sum()
    }

    /// Share of offered packets that carry nothing new for the receiver.
    pub fn expected_drop_share(&self) -> f64 {
        let s = &self.stats;
        (s.dup_pkts + s.forged_pkts + s.malformed_pkts) as f64 / self.pkts.len() as f64
    }
}

/// Logical arrival time of packet `idx`: the formula the engine's
/// `shard_batches` uses.
pub fn now_of(idx: usize, offered_pps: f64) -> u64 {
    (idx as f64 * (1e9 / offered_pps)) as u64
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a folded over little-endian 64-bit words (tail zero-padded,
/// length mixed in first): eight times fewer multiplies than the
/// byte-serial form, same sensitivity to any changed byte.
pub fn hash_words(mut h: u64, bytes: &[u8]) -> u64 {
    h = (h ^ bytes.len() as u64).wrapping_mul(FNV_PRIME);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(FNV_PRIME);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(FNV_PRIME);
    }
    h
}

pub fn hash_packet(pkt: &[u8]) -> u64 {
    hash_words(FNV_OFFSET, pkt)
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Legitimate data at stream offset `off` (TCP) or the next `n`
    /// datagrams (UDP; `n > 1` only in a caravan bundle).
    Data,
    PureAck,
    /// Bit-identical copy of an earlier legitimate segment.
    Dup,
    /// Same range as a legitimate segment, every payload byte different,
    /// checksums valid.
    Forged,
    /// A copy with one payload byte flipped after checksumming.
    BadChecksum,
    /// A copy cut short of its IP total length.
    Truncated,
}

#[derive(Debug, Clone, Copy)]
struct Item {
    flow: u32,
    kind: Kind,
    off: u64,
    len: u32,
}

struct Slot {
    flow: u32,
    remaining: u32,
    elephant: bool,
}

fn new_flow(id: usize, seed: u64, udp: bool) -> FlowOracle {
    // Unique per id by source address alone; ports and destinations vary
    // so RSS and the flow hash see realistic tuples.
    let src = Ipv4Addr::from(0x0A00_0001u32 + id as u32);
    let dst = Ipv4Addr::new(203, 0, (id / 250 % 250) as u8, (id % 250) as u8 + 1);
    let sport = 1024 + (id % 60_000) as u16;
    let key = if udp {
        FlowKey::udp(src, sport, dst, 4433)
    } else {
        FlowKey::tcp(src, sport, dst, 5201)
    };
    let salt = mix64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    FlowOracle {
        key,
        salt,
        isn: mix64(salt) as u32,
        stream_len: 0,
        segs: Vec::new(),
        pure_acks: 0,
        dgrams: Vec::new(),
        legit_pkts: 0,
        next_ip_id: (salt >> 40) as u16,
    }
}

fn bounded_pareto(rng: &mut Rng, lo: u32, hi: u32) -> u32 {
    const ALPHA: f64 = 1.2;
    let (l, h) = (f64::from(lo), f64::from(hi));
    let u = rng.unit();
    let x = (-(u * h.powf(ALPHA) - u * l.powf(ALPHA) - h.powf(ALPHA)) / (h * l).powf(ALPHA))
        .powf(-1.0 / ALPHA);
    (x as u32).clamp(lo, hi)
}

/// Generates the trace `spec` describes from `seed`. Same seed, same
/// bytes.
pub fn generate(spec: &GenSpec, seed: u64) -> Trace {
    assert!(
        spec.hostile.is_none() || spec.shape == Shape::Tcp,
        "hostile packets are copies of TCP segments"
    );
    let mut rng = Rng::new(seed);
    let mut flows: Vec<FlowOracle> = Vec::new();
    let is_udp = |flow_id: usize| match spec.shape {
        Shape::Tcp => false,
        Shape::Udp => true,
        Shape::Egress => flow_id % 2 == 1,
    };
    let spawn = |flows: &mut Vec<FlowOracle>, rng: &mut Rng| -> Slot {
        let id = flows.len();
        flows.push(new_flow(id, seed, is_udp(id)));
        let (remaining, elephant) = match spec.churn {
            None => (u32::MAX, true),
            Some(c) if rng.chance_ppm(c.elephant_ppm) => (
                bounded_pareto(rng, c.elephant_pkts.0, c.elephant_pkts.1),
                true,
            ),
            Some(c) => (1 + rng.below(c.mouse_max_pkts as usize) as u32, false),
        };
        Slot {
            flow: id as u32,
            remaining,
            elephant,
        }
    };
    let mut ring: Vec<Slot> = (0..spec.flows)
        .map(|_| spawn(&mut flows, &mut rng))
        .collect();

    // Stage 1: the legitimate schedule.
    let mut items: Vec<Item> = Vec::with_capacity(spec.pkts + spec.pkts / 16);
    let mut offsets: Vec<u64> = vec![0; flows.len()];
    while items.len() < spec.pkts {
        let s = rng.below(ring.len());
        if ring[s].remaining == 0 {
            ring[s] = spawn(&mut flows, &mut rng);
            offsets.push(0);
        }
        let slot = &mut ring[s];
        let want = if slot.elephant {
            rng.burst(spec.mean_burst, spec.burst_cap)
        } else {
            1 + rng.below(3)
        };
        let run = want
            .min(slot.remaining as usize)
            .min(spec.pkts - items.len());
        slot.remaining = slot.remaining.saturating_sub(run as u32);
        let mix = match spec.churn {
            Some(c) if !slot.elephant => c.mice_mix,
            _ => spec.mix,
        };
        let flow = slot.flow;
        for _ in 0..run {
            let udp = is_udp(flow as usize);
            let len = match spec.shape {
                Shape::Egress if !udp => spec.jumbo_payload,
                _ => rng.pick(mix),
            } as u32;
            let kind = if len == 0 { Kind::PureAck } else { Kind::Data };
            items.push(Item {
                flow,
                kind,
                off: offsets[flow as usize],
                len,
            });
            let n = if spec.shape == Shape::Egress && udp {
                spec.bundle as u64
            } else {
                1
            };
            offsets[flow as usize] += u64::from(len) * n;
        }
    }

    // Stage 2: hostile packets, each tied to a legitimate TCP segment
    // that precedes it, so no legitimate byte is ever missing from the
    // offer.
    let mut stats = GenStats::default();
    if let Some(h) = spec.hostile {
        let mut out: Vec<Item> = Vec::with_capacity(items.len() + items.len() / 16);
        // Extras wait here until `due` more legitimate items have passed.
        let mut parked: Vec<(usize, Item)> = Vec::new();
        let mut i = 0;
        while i < items.len() {
            let item = items[i];
            let swappable = matches!(item.kind, Kind::Data)
                && items
                    .get(i + 1)
                    .is_some_and(|n| n.flow == item.flow && matches!(n.kind, Kind::Data));
            if swappable && rng.chance_ppm(h.reorder_ppm) {
                out.push(items[i + 1]);
                out.push(item);
                stats.reordered += 1;
                i += 2;
            } else {
                out.push(item);
                i += 1;
            }
            if matches!(item.kind, Kind::Data) {
                let copy = |kind| Item { kind, ..item };
                if rng.chance_ppm(h.dup_ppm) {
                    parked.push((rng.below(3), copy(Kind::Dup)));
                }
                if rng.chance_ppm(h.forge_ppm) {
                    parked.push((rng.below(3), copy(Kind::Forged)));
                }
                if rng.chance_ppm(h.malformed_ppm) {
                    let kind = if rng.below(2) == 0 {
                        Kind::BadChecksum
                    } else {
                        Kind::Truncated
                    };
                    parked.push((rng.below(3), copy(kind)));
                }
            }
            parked.retain_mut(|(due, extra)| {
                if *due == 0 {
                    out.push(*extra);
                    false
                } else {
                    *due -= 1;
                    true
                }
            });
        }
        out.extend(parked.into_iter().map(|(_, extra)| extra));
        items = out;
    }

    // Stage 3: bytes.
    let mut pkts = Vec::with_capacity(items.len());
    let mut malformed = HashSet::new();
    let mut fnv = FNV_OFFSET;
    let mut payload = Vec::new();
    for (idx, item) in items.iter().enumerate() {
        let f = &mut flows[item.flow as usize];
        let len = item.len as usize;
        let ip_id = f.next_ip_id;
        f.next_ip_id = f.next_ip_id.wrapping_add(1);
        let pkt = if f.key.proto == IpProtocol::Tcp {
            payload.resize(len, 0);
            fill_pattern(f.salt, item.off, &mut payload);
            if matches!(item.kind, Kind::Forged) {
                payload.iter_mut().for_each(|b| *b ^= 0xA5);
            }
            let seq = f.isn.wrapping_add(item.off as u32);
            let mut pkt = match item.kind {
                Kind::PureAck => build_tcp(&f.key.reversed(), 1, ip_id, &[]),
                _ => build_tcp(&f.key, seq, ip_id, &payload),
            };
            match item.kind {
                Kind::Data => {
                    f.segs.push((item.off, idx as u32));
                    f.stream_len = f.stream_len.max(item.off + len as u64);
                    f.legit_pkts += 1;
                    stats.legit_bytes += len as u64;
                }
                Kind::PureAck => {
                    f.pure_acks += 1;
                    f.legit_pkts += 1;
                    stats.pure_acks += 1;
                }
                Kind::Dup => stats.dup_pkts += 1,
                Kind::Forged => stats.forged_pkts += 1,
                Kind::BadChecksum => {
                    let at = pkt.len() - 1 - (idx % len.max(1));
                    pkt[at] ^= 0x40;
                }
                Kind::Truncated => pkt.truncate(pkt.len() - 1 - (idx % (len / 2).max(1))),
            }
            if matches!(item.kind, Kind::BadChecksum | Kind::Truncated) {
                stats.malformed_pkts += 1;
                malformed.insert(hash_packet(&pkt));
            }
            pkt
        } else {
            // UDP: one datagram, or a caravan bundle of `bundle` of them.
            let mut datagram = |k: usize| {
                payload.resize(len, 0);
                fill_pattern(f.salt, item.off + (k * len) as u64, &mut payload);
                f.dgrams.push((len as u16, idx as u32));
                stats.legit_bytes += len as u64;
                build_udp_datagram(&f.key, &payload)
            };
            let (tos, outer) = if spec.shape == Shape::Egress {
                let mut builder = CaravanBuilder::new(spec.bundle * (len + 8));
                for k in 0..spec.bundle {
                    builder
                        .push(&datagram(k))
                        .expect("bundle sized for its datagrams");
                }
                (CARAVAN_TOS, build_udp_datagram(&f.key, &builder.finish()))
            } else {
                (0, datagram(0))
            };
            f.legit_pkts += 1;
            wrap_udp(f.key.src_ip, f.key.dst_ip, ip_id, tos, &outer)
        };
        fnv = hash_words(fnv, &pkt);
        let key = match item.kind {
            Kind::PureAck => f.key.reversed(),
            _ => f.key,
        };
        pkts.push((key, pkt));
    }
    for f in &mut flows {
        // Reorders swap arrival order, never offsets; the checker looks
        // segments up by offset.
        f.segs.sort_unstable();
    }
    stats.legit_pkts = flows.iter().map(|f| u64::from(f.legit_pkts)).sum();
    Trace {
        pkts,
        flows,
        stats,
        malformed,
        fnv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BULK: GenSpec = GenSpec {
        shape: Shape::Tcp,
        flows: 50,
        pkts: 6_000,
        mean_burst: 24.0,
        burst_cap: 64,
        mix: &[(1460, 1)],
        bundle: 1,
        jumbo_payload: 0,
        churn: None,
        hostile: None,
    };

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = generate(&BULK, 7);
        let b = generate(&BULK, 7);
        assert_eq!(a.fnv, b.fnv);
        assert_eq!(a.pkts, b.pkts);
        assert_eq!(a.stats, b.stats);
        assert_ne!(a.fnv, generate(&BULK, 8).fnv);
    }

    #[test]
    fn bytes_offered_equal_the_per_flow_oracle() {
        for spec in [
            BULK,
            GenSpec {
                shape: Shape::Udp,
                mix: &[(1472, 1)],
                ..BULK
            },
            GenSpec {
                shape: Shape::Egress,
                mix: &[(1472, 1)],
                bundle: 6,
                jumbo_payload: 8960,
                pkts: 400,
                ..BULK
            },
            GenSpec {
                mix: &[(0, 20), (64, 40), (256, 25), (536, 15)],
                ..BULK
            },
        ] {
            let t = generate(&spec, 3);
            let oracle: u64 = t
                .flows
                .iter()
                .map(|f| f.stream_len + f.dgrams.iter().map(|d| u64::from(d.0)).sum::<u64>())
                .sum();
            assert_eq!(t.stats.legit_bytes, oracle, "{:?}", spec.shape);
            assert_eq!(t.stats.legit_pkts as usize, t.pkts.len());
            assert_eq!(t.pkts.len(), spec.pkts);
            // Every packet parses back to the flow it was generated for.
            for (key, pkt) in &t.pkts {
                assert_eq!(crate::sut::parse_packet(pkt).key, Some(*key));
            }
        }
    }

    #[test]
    fn hostile_mix_injects_the_configured_shares() {
        let spec = GenSpec {
            pkts: 60_000,
            hostile: Some(Hostile {
                reorder_ppm: 20_000,
                dup_ppm: 10_000,
                forge_ppm: 10_000,
                malformed_ppm: 5_000,
            }),
            ..BULK
        };
        let t = generate(&spec, 11);
        let legit = t.stats.legit_pkts as f64;
        assert_eq!(t.stats.legit_pkts, 60_000);
        let near = |got: u64, share: f64| {
            let want = legit * share;
            (got as f64 - want).abs() < 0.25 * want
        };
        assert!(near(t.stats.reordered, 0.02), "{:?}", t.stats);
        assert!(near(t.stats.dup_pkts, 0.01), "{:?}", t.stats);
        assert!(near(t.stats.forged_pkts, 0.01), "{:?}", t.stats);
        assert!(near(t.stats.malformed_pkts, 0.005), "{:?}", t.stats);
        assert_eq!(
            t.pkts.len() as u64,
            t.stats.legit_pkts + t.stats.dup_pkts + t.stats.forged_pkts + t.stats.malformed_pkts
        );
        assert_eq!(t.malformed.len() as u64, t.stats.malformed_pkts);
        // Legitimate bytes are all still on offer.
        let oracle: u64 = t.flows.iter().map(|f| f.stream_len).sum();
        assert_eq!(t.stats.legit_bytes, oracle);
    }

    #[test]
    fn churn_retires_mice_and_mints_new_identities() {
        let spec = GenSpec {
            flows: 2_000,
            pkts: 20_000,
            churn: Some(Churn {
                elephant_ppm: 20_000,
                mouse_max_pkts: 7,
                elephant_pkts: (50, 5_000),
                mice_mix: &[(64, 1), (1460, 1)],
            }),
            ..BULK
        };
        let t = generate(&spec, 5);
        assert!(t.flows.len() > spec.flows, "no identity was replaced");
        let keys: HashSet<_> = t.flows.iter().map(|f| f.key).collect();
        assert_eq!(keys.len(), t.flows.len(), "identities must be unique");
        let mice = t
            .flows
            .iter()
            .filter(|f| (1..=7).contains(&f.legit_pkts))
            .count();
        assert!(mice > spec.flows / 2, "mice {mice}");
        assert!(t.flows.iter().any(|f| f.legit_pkts >= 50), "no elephant");
    }

    #[test]
    fn pattern_is_offset_addressable() {
        let mut whole = vec![0u8; 100];
        fill_pattern(42, 1_000, &mut whole);
        for split in [1, 7, 8, 13, 64] {
            let mut tail = vec![0u8; 100 - split];
            fill_pattern(42, 1_000 + split as u64, &mut tail);
            assert_eq!(&whole[split..], &tail[..]);
        }
    }
}
