//! Seeded adversarial traffic generators — the attack matrix's arsenal.
//!
//! Where [`crate::plan`] models an *unreliable* network (drops, dups,
//! corruption), this module models a *hostile* one: an on-path injector
//! replaying TCP ranges with altered bytes, a sender smuggling data
//! through overlapping segments, a peer emitting malformed caravan
//! bundles, and an off-path spoofer forging F-PMTUD shrink reports.
//!
//! Everything is a pure function of a seed — no wall clock, no global
//! RNG — so `tests/attack_matrix.rs` can replay the identical assault
//! at 1/2/4/8 cores and demand bit-identical behaviour. Generators also
//! return ground truth (how many packets carry attacker bytes, which
//! bundles are well-formed) so the matrix asserts on exact counters
//! instead of "something was probably dropped".
//!
//! The TCP generators are *detectable by design*: attacker segments only
//! ever replay sequence ranges the legitimate flow has already sent (with
//! flipped bytes), so a correct gateway can always prove the conflict
//! against attested data. First-writer-wins races in unsent gaps are a
//! different threat (see DESIGN.md §16) and are deliberately absent here.

use crate::rng::{splitmix64, XorShift64};
use px_wire::ipv4::Ipv4Repr;
use px_wire::tcp::{SeqNum, TcpFlags, TcpRepr};
use px_wire::{FlowKey, IpProtocol};
use std::net::Ipv4Addr;

/// Payload bytes per legitimate eMTU segment (1500 − 20 IP − 20 TCP).
pub const SEG_PAYLOAD: usize = 1460;

/// The legitimate byte at absolute stream offset `off` of the flow
/// salted with `salt`. Deterministic and position-based, so a
/// retransmission of a range reproduces the identical bytes — the
/// property the coalescer's consistency check attests.
#[inline]
pub fn pattern_byte(salt: u64, off: u64) -> u8 {
    (splitmix64(salt ^ off) & 0xFF) as u8
}

/// The attacker's substitute for the same position: guaranteed to
/// differ from [`pattern_byte`] in every bit.
#[inline]
pub fn evil_byte(salt: u64, off: u64) -> u8 {
    !pattern_byte(salt, off)
}

/// One flow's identity and keying material.
#[derive(Debug, Clone, Copy)]
struct FlowPlan {
    key: FlowKey,
    /// Initial sequence number.
    isn: u32,
    /// Salt for [`pattern_byte`].
    salt: u64,
}

fn flow_plan(seed: u64, idx: usize) -> FlowPlan {
    let id = splitmix64(seed ^ 0xF10A_0000 ^ idx as u64);
    let src = Ipv4Addr::new(198, 51, (idx >> 8) as u8, idx as u8);
    let sport = 1024 + (id % 60_000) as u16;
    let dst = Ipv4Addr::new(10, 99, 0, 1);
    FlowPlan {
        key: FlowKey::tcp(src, sport, dst, 5201),
        isn: (id >> 32) as u32,
        salt: splitmix64(id),
    }
}

/// Builds one checksummed TCP/IPv4 packet for `plan` covering stream
/// offsets `[off, off + len)`, with `fill` supplying each byte.
fn tcp_pkt(plan: &FlowPlan, off: u64, len: usize, fill: impl Fn(u64) -> u8) -> Vec<u8> {
    let mut payload = vec![0u8; len];
    for (i, b) in payload.iter_mut().enumerate() {
        *b = fill(off + i as u64);
    }
    let repr = TcpRepr {
        src_port: plan.key.src_port,
        dst_port: plan.key.dst_port,
        seq: SeqNum(plan.isn.wrapping_add(off as u32)),
        ack: SeqNum(1),
        flags: TcpFlags::ACK,
        window: 8192,
        options: vec![],
    };
    let seg = repr.build_segment(plan.key.src_ip, plan.key.dst_ip, &payload);
    let mut ip = Ipv4Repr::new(plan.key.src_ip, plan.key.dst_ip, IpProtocol::Tcp, seg.len());
    ip.ident = (off / SEG_PAYLOAD as u64) as u16;
    // Generator invariant: eMTU-sized segments always fit an IPv4 packet.
    #[allow(clippy::expect_used)]
    ip.build_packet(&seg).expect("eMTU segment fits")
}

/// A generated adversarial TCP trace plus its ground truth.
#[derive(Debug, Default)]
pub struct TcpAttackTrace {
    /// Arrival-ordered packets, ready for `run_engine_on_trace`.
    pub pkts: Vec<(FlowKey, Vec<u8>)>,
    /// Segments whose payload conflicts with legitimately sent bytes —
    /// every one must surface as a typed drop or a below-window
    /// forward, never inside a merged aggregate.
    pub attack_pkts: u64,
    /// Bit-identical replays of already-sent segments (benign dups).
    pub benign_dups: u64,
    /// Legitimate segments emitted out of order (stash exercise).
    pub reordered: u64,
    /// Packets of legitimate payload per flow (for oracle sizing).
    pub segs_per_flow: usize,
}

impl TcpAttackTrace {
    /// The oracle byte for `flow`'s stream offset `off` — what a
    /// receiver must see there if the gateway admitted no attacker
    /// bytes into attested aggregates.
    pub fn oracle_byte(&self, seed: u64, flow_idx: usize, off: u64) -> u8 {
        pattern_byte(flow_plan(seed, flow_idx).salt, off)
    }

    /// `flow_idx`'s identity, for matching engine output back to plans.
    pub fn flow_key(&self, seed: u64, flow_idx: usize) -> FlowKey {
        flow_plan(seed, flow_idx).key
    }

    /// `flow_idx`'s initial sequence number.
    pub fn flow_isn(&self, seed: u64, flow_idx: usize) -> u32 {
        flow_plan(seed, flow_idx).isn
    }
}

/// An attacker-free trace: `flows` flows, each sending `segs_per_flow`
/// in-order eMTU segments, round-robin interleaved. The baseline the
/// matrix diffs attacked runs against.
pub fn tcp_clean_trace(seed: u64, flows: usize, segs_per_flow: usize) -> Vec<(FlowKey, Vec<u8>)> {
    let mut out = Vec::with_capacity(flows * segs_per_flow);
    for seg in 0..segs_per_flow {
        for f in 0..flows {
            let plan = flow_plan(seed, f);
            let off = (seg * SEG_PAYLOAD) as u64;
            out.push((
                plan.key,
                tcp_pkt(&plan, off, SEG_PAYLOAD, |o| pattern_byte(plan.salt, o)),
            ));
        }
    }
    out
}

/// The same legitimate schedule as [`tcp_clean_trace`], laced with
/// seeded attacks: inconsistent replays (full segments and tiny 8-byte
/// stabs with flipped bytes), bit-identical duplicates, and reversed
/// legitimate runs. Attacker segments reuse the victim's flow key, so
/// they shard to the victim's core and race its real traffic.
pub fn tcp_attack_trace(seed: u64, flows: usize, segs_per_flow: usize) -> TcpAttackTrace {
    let mut rng = XorShift64::new(seed ^ 0xA77A_C4ED);
    let mut trace = TcpAttackTrace {
        segs_per_flow,
        ..TcpAttackTrace::default()
    };
    // next_seg[f]: how many in-order segments flow f has sent.
    let mut next_seg = vec![0usize; flows];
    while next_seg.iter().any(|&s| s < segs_per_flow) {
        let f = (rng.next_u64() % flows as u64) as usize;
        let plan = flow_plan(seed, f);
        let sent = next_seg[f];
        let roll = rng.next_u64() % 8;
        match roll {
            // Inconsistent full replay of an already-sent segment.
            0 if sent > 0 => {
                let victim = (rng.next_u64() % sent as u64) as usize;
                let off = (victim * SEG_PAYLOAD) as u64;
                trace.pkts.push((
                    plan.key,
                    tcp_pkt(&plan, off, SEG_PAYLOAD, |o| evil_byte(plan.salt, o)),
                ));
                trace.attack_pkts += 1;
            }
            // Tiny inconsistent stab inside the last sent segment. The
            // jitter starts at 1 so the stab never shares a segment
            // boundary with a legitimate packet — equal-offset stash
            // entries would make leftover-forwarding order depend on
            // unrelated flows sharing the stash.
            1 if sent > 0 => {
                let base = ((sent - 1) * SEG_PAYLOAD) as u64;
                let jitter = 1 + rng.next_u64() % (SEG_PAYLOAD as u64 - 9);
                trace.pkts.push((
                    plan.key,
                    tcp_pkt(&plan, base + jitter, 8, |o| evil_byte(plan.salt, o)),
                ));
                trace.attack_pkts += 1;
            }
            // Bit-identical duplicate of the last sent segment.
            2 if sent > 0 => {
                let off = ((sent - 1) * SEG_PAYLOAD) as u64;
                trace.pkts.push((
                    plan.key,
                    tcp_pkt(&plan, off, SEG_PAYLOAD, |o| pattern_byte(plan.salt, o)),
                ));
                trace.benign_dups += 1;
            }
            // A reversed legitimate run: next two segments swapped.
            3 if sent + 2 <= segs_per_flow => {
                for seg in [sent + 1, sent] {
                    let off = (seg * SEG_PAYLOAD) as u64;
                    trace.pkts.push((
                        plan.key,
                        tcp_pkt(&plan, off, SEG_PAYLOAD, |o| pattern_byte(plan.salt, o)),
                    ));
                }
                next_seg[f] = sent + 2;
                trace.reordered += 1;
            }
            // Otherwise: the next in-order legitimate segment.
            _ => {
                if sent < segs_per_flow {
                    let off = (sent * SEG_PAYLOAD) as u64;
                    trace.pkts.push((
                        plan.key,
                        tcp_pkt(&plan, off, SEG_PAYLOAD, |o| pattern_byte(plan.salt, o)),
                    ));
                    next_seg[f] = sent + 1;
                }
            }
        }
    }
    trace
}

/// One generated caravan bundle and whether a correct validator must
/// accept it.
#[derive(Debug, Clone)]
pub struct AttackBundle {
    /// The bundle bytes (the outer UDP's payload: concatenated inner
    /// datagrams, possibly mangled).
    pub bytes: Vec<u8>,
    /// Ground truth: `true` iff every inner datagram is well-formed and
    /// exactly delimited (what `validate_bundle` must conclude).
    pub valid: bool,
    /// Inner datagrams a correct walk recovers; 0 when `valid` is false.
    pub inner_count: usize,
}

/// Builds a well-formed inner UDP datagram (header + patterned payload).
fn inner_datagram(rng: &mut XorShift64, payload_len: usize) -> Vec<u8> {
    let len = 8 + payload_len;
    let mut dg = vec![0u8; len];
    dg[0..2].copy_from_slice(&(4000 + (rng.next_u64() % 100) as u16).to_be_bytes());
    dg[2..4].copy_from_slice(&443u16.to_be_bytes());
    dg[4..6].copy_from_slice(&(len as u16).to_be_bytes());
    // Checksum 0 = "none" per UDP/IPv4; the validator checks framing.
    for (i, b) in dg[8..].iter_mut().enumerate() {
        *b = (rng.next_u64() >> (8 * (i % 8))) as u8;
    }
    dg
}

/// The framing contract a correct validator enforces, reimplemented
/// naively: the bundle must split into an exact sequence of records,
/// each with an 8-byte header and a length field covering `8..=rest`,
/// at most `MAX_INNER` (64) of them. Ground truth for every generated
/// bundle comes from *this* walk, so a mangling that happens to
/// re-align into well-formed framing is labelled honestly.
fn reference_validate(bundle: &[u8]) -> Option<usize> {
    let mut rest = bundle;
    let mut n = 0usize;
    while !rest.is_empty() {
        if rest.len() < 8 || n == 64 {
            return None;
        }
        let len = usize::from(u16::from_be_bytes([rest[4], rest[5]]));
        if len < 8 || len > rest.len() {
            return None;
        }
        rest = &rest[len..];
        n += 1;
    }
    Some(n)
}

/// Seeded malformed-bundle generator: valid bundles interleaved with
/// truncations, over-claiming inner lengths (a datagram "owning" its
/// neighbour's bytes), and under-sized length fields. `valid` and
/// `inner_count` are ground truth from `reference_validate`.
pub fn caravan_attack_bundles(seed: u64, n: usize) -> Vec<AttackBundle> {
    let mut rng = XorShift64::new(seed ^ 0xCA7A_7A11);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let built = 1 + (rng.next_u64() % 4) as usize;
        let mut bytes = Vec::new();
        for _ in 0..built {
            let payload_len = (rng.next_u64() % 512) as usize;
            bytes.extend_from_slice(&inner_datagram(&mut rng, payload_len));
        }
        match rng.next_u64() % 5 {
            // Well-formed.
            0 | 1 => {}
            // Truncated mid-datagram: the final length field claims
            // bytes the bundle no longer carries.
            2 => {
                let cut = 1 + (rng.next_u64() % 7) as usize;
                bytes.truncate(bytes.len() - cut);
            }
            // Over-claim: inflate the first inner length so it swallows
            // (part of) its neighbour — the overlapping-claim attack.
            3 => {
                let claimed = u16::from_be_bytes([bytes[4], bytes[5]]);
                let inflated = claimed.saturating_add(1 + (rng.next_u64() % 64) as u16);
                bytes[4..6].copy_from_slice(&inflated.to_be_bytes());
            }
            // Under-claim: a length below the 8-byte UDP header.
            _ => {
                let bogus = (rng.next_u64() % 8) as u16;
                bytes[4..6].copy_from_slice(&bogus.to_be_bytes());
            }
        }
        let (valid, inner_count) = match reference_validate(&bytes) {
            Some(k) => (true, k),
            None => (false, 0),
        };
        out.push(AttackBundle {
            bytes,
            valid,
            inner_count,
        });
    }
    out
}

/// One forged (or replayed) F-PMTUD report aimed at a prober.
#[derive(Debug, Clone)]
pub struct SpoofReport {
    /// The probe id the forgery claims to answer.
    pub probe_id: u32,
    /// The attacker's nonce guess (uniformly random — off-path).
    pub nonce: u64,
    /// The claimed fragment sizes: tiny, to talk the PMTU down.
    pub sizes: Vec<usize>,
}

/// A stream of `n` off-path spoofed shrink reports against probe ids
/// `1..=max_probe_id`. Nonces are 64-bit guesses; ids cycle through the
/// plausible window an attacker could infer.
pub fn spoof_report_stream(seed: u64, n: usize, max_probe_id: u32) -> Vec<SpoofReport> {
    let mut rng = XorShift64::new(seed ^ 0x5F00_F5F0);
    (0..n)
        .map(|_| {
            let claimed = 68 + (rng.next_u64() % 600) as usize;
            SpoofReport {
                probe_id: 1 + (rng.next_u64() % u64::from(max_probe_id)) as u32,
                nonce: rng.next_u64(),
                sizes: vec![claimed, claimed / 2],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_seed_deterministic() {
        let a = tcp_attack_trace(7, 3, 5);
        let b = tcp_attack_trace(7, 3, 5);
        assert_eq!(a.pkts, b.pkts);
        assert_eq!(a.attack_pkts, b.attack_pkts);
        let c = tcp_attack_trace(8, 3, 5);
        assert_ne!(a.pkts, c.pkts, "seed must matter");
    }

    #[test]
    fn attack_trace_contains_all_legit_segments_and_some_attacks() {
        let t = tcp_attack_trace(1, 4, 6);
        assert!(t.attack_pkts > 0, "no attacks generated");
        assert!(t.reordered > 0 || t.benign_dups > 0);
        // Every flow's full legitimate range is present: count distinct
        // in-order segments per flow by (key, seq).
        use std::collections::HashSet;
        let mut seen: HashSet<(u16, u32)> = HashSet::new();
        for (key, pkt) in &t.pkts {
            let ihl = usize::from(pkt[0] & 0xF) * 4;
            let seq = u32::from_be_bytes([pkt[ihl + 4], pkt[ihl + 5], pkt[ihl + 6], pkt[ihl + 7]]);
            seen.insert((key.src_port, seq));
        }
        for f in 0..4 {
            let isn = t.flow_isn(1, f);
            let key = t.flow_key(1, f);
            for seg in 0..6 {
                let seq = isn.wrapping_add((seg * SEG_PAYLOAD) as u32);
                assert!(
                    seen.contains(&(key.src_port, seq)),
                    "flow {f} segment {seg} missing"
                );
            }
        }
    }

    #[test]
    fn attack_packets_parse_and_checksum() {
        let t = tcp_attack_trace(3, 2, 4);
        for (_, pkt) in &t.pkts {
            let ip = px_wire::ipv4::Ipv4Packet::new_checked(&pkt[..]).expect("parses");
            assert!(ip.verify_checksum(), "bad IP checksum");
            let seg = px_wire::tcp::TcpSegment::new_checked(ip.payload()).expect("tcp parses");
            assert!(
                seg.verify_checksum(ip.src(), ip.dst()),
                "bad TCP checksum — attacks must not be droppable as malformed"
            );
        }
    }

    #[test]
    fn evil_bytes_differ_everywhere() {
        for off in 0..4096u64 {
            assert_ne!(pattern_byte(9, off), evil_byte(9, off));
        }
    }

    #[test]
    fn caravan_bundles_match_their_ground_truth() {
        let bundles = caravan_attack_bundles(11, 200);
        assert!(bundles.iter().any(|b| b.valid));
        assert!(bundles.iter().any(|b| !b.valid));
        for b in &bundles {
            let verdict = px_wire::caravan::validate_bundle(&b.bytes);
            assert_eq!(
                verdict.is_ok(),
                b.valid,
                "validator disagrees with ground truth: {verdict:?}"
            );
            if let Ok(n) = verdict {
                assert_eq!(n, b.inner_count);
            }
        }
    }

    #[test]
    fn spoof_stream_is_deterministic_and_tiny() {
        let a = spoof_report_stream(5, 50, 8);
        let b = spoof_report_stream(5, 50, 8);
        assert_eq!(a.len(), 50);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.probe_id == y.probe_id && x.nonce == y.nonce && x.sizes == y.sizes));
        assert!(a.iter().all(|r| r.sizes.iter().all(|&s| s < 700)));
        assert!(a.iter().all(|r| (1..=8).contains(&r.probe_id)));
    }
}
