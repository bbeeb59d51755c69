//! Model-based proptests for the ordered-coalescing primitives
//! (`px-core::coalesce`) — the adversarial heart of the merge engine.
//!
//! Two independent formulations are held in lockstep:
//!
//! * [`reference_classify`] re-derives every verdict **byte by byte**
//!   from first principles (walk each segment byte, decide whether its
//!   stream position is below the base, attested, or new), with none of
//!   the offset arithmetic the production `classify` uses. Agreement
//!   over arbitrary held/segment geometries — including sequence-space
//!   wrap — pins the arithmetic.
//! * A stateful run drives a growing aggregate through a segment
//!   stream (legit pattern bytes and attacker-inverted bytes at
//!   arbitrary offsets) and checks the production fold (classify +
//!   append-trimmed-tail) against a naive byte-vector reconstruction:
//!   identical accepted bytes, identical per-verdict counts. No byte
//!   ever enters the aggregate that the reference did not also attest.
//!
//! The stash model checks `SegStash` drain order against a sorted
//! reference: lowest rel first, arrival order on ties (the
//! injection-ordering guarantee the attack matrix relies on), with the
//! total and per-flow caps enforced.

use packet_express::core::coalesce::{classify, OverlapVerdict, SegStash, StashedSeg};
use packet_express::wire::{FlowKey, PacketBuf};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// The byte-level reference: walk every segment byte, classify its
/// stream position, then map the per-byte facts to a verdict.
fn reference_classify(held: &[u8], base: u32, seq: u32, seg: &[u8]) -> OverlapVerdict {
    if seg.is_empty() {
        return OverlapVerdict::Duplicate;
    }
    let held_len = held.len() as i64;
    let rel = i64::from(seq.wrapping_sub(base) as i32);
    if rel > held_len {
        return OverlapVerdict::Future;
    }
    if rel == held_len {
        return OverlapVerdict::Append { trim: 0 };
    }
    let mut any_below = false;
    let mut any_new = false;
    let mut mismatch = false;
    for (i, &b) in seg.iter().enumerate() {
        let p = rel + i as i64;
        if p < 0 {
            any_below = true;
        } else if p < held_len {
            mismatch |= held[p as usize] != b;
        } else {
            any_new = true;
        }
    }
    if any_below && !any_new && !mismatch && rel + seg.len() as i64 <= 0 {
        return OverlapVerdict::Below;
    }
    if mismatch {
        return OverlapVerdict::Inconsistent;
    }
    if any_below {
        return OverlapVerdict::Evasion;
    }
    if any_new {
        return OverlapVerdict::Append {
            trim: (held_len - rel) as usize,
        };
    }
    OverlapVerdict::Duplicate
}

/// The legitimate stream byte at logical position `pos`.
fn pattern(pos: i64) -> u8 {
    let x = (pos as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((x >> 32) ^ x) as u8
}

proptest! {
    /// The production classifier agrees with the byte-level reference
    /// over arbitrary geometry, content, and sequence-space position.
    #[test]
    fn classify_matches_byte_level_reference(
        base in any::<u32>(),
        held_len in 1usize..64,
        rel_u in 0u32..160,
        seg_len in 1usize..64,
        evil_sel in 0usize..65,
    ) {
        let rel = i64::from(rel_u) - 80;
        let evil_at = (evil_sel < 64).then_some(evil_sel);
        let held: Vec<u8> = (0..held_len as i64).map(pattern).collect();
        let seq = base.wrapping_add(rel as u32);
        let mut seg: Vec<u8> = (rel..rel + seg_len as i64).map(pattern).collect();
        if let Some(i) = evil_at {
            // One attacker-controlled byte somewhere in the segment.
            let i = i % seg_len;
            seg[i] = !seg[i];
        }
        let got = classify(&held, base, seq, &seg);
        let want = reference_classify(&held, base, seq, &seg);
        prop_assert_eq!(got, want,
            "held_len {} rel {} seg_len {} evil {:?}", held_len, rel, seg_len, evil_at);
    }

    /// Sequence numbers near the wrap point classify exactly like the
    /// same geometry far from it.
    #[test]
    fn classify_is_wrap_invariant(
        held_len in 1usize..48,
        rel_u in 0u32..120,
        seg_len in 1usize..48,
        wrap_slide in 0u32..96,
    ) {
        let rel = i64::from(rel_u) - 60;
        let held: Vec<u8> = (0..held_len as i64).map(pattern).collect();
        let seg: Vec<u8> = (rel..rel + seg_len as i64).map(pattern).collect();
        let far = 1_000_000u32;
        let near = u32::MAX - wrap_slide; // held range straddles the wrap
        let a = classify(&held, far, far.wrapping_add(rel as u32), &seg);
        let b = classify(&held, near, near.wrapping_add(rel as u32), &seg);
        prop_assert_eq!(a, b);
    }

    /// A growing aggregate folded through the production classifier
    /// matches a naive reconstruction: identical accepted byte vector,
    /// identical verdict counts, and not one attacker byte attested.
    #[test]
    fn aggregate_fold_matches_reference(
        base in any::<u32>(),
        ops in proptest::collection::vec(
            (0u32..96, 1usize..24, any::<bool>()), 1..64),
    ) {
        // Both sides start from the same 8-byte seed segment.
        let mut held: Vec<u8> = (0..8).map(pattern).collect();
        let mut reference: Vec<u8> = held.clone();
        let mut counts = [0u64; 6];
        let idx = |v: &OverlapVerdict| match v {
            OverlapVerdict::Append { .. } => 0,
            OverlapVerdict::Duplicate => 1,
            OverlapVerdict::Inconsistent => 2,
            OverlapVerdict::Evasion => 3,
            OverlapVerdict::Below => 4,
            OverlapVerdict::Future => 5,
        };
        let mut ref_counts = [0u64; 6];
        for (rel, len, evil) in ops {
            let rel = i64::from(rel);
            let seq = base.wrapping_add(rel as u32);
            // An attacker fabricating bytes *beyond* everything attested
            // is undetectable by overlap comparison (nothing to compare
            // against) — the real generator only replays already-sent
            // ranges. Mirror that: evil segments must overlap held data.
            let evil = evil && rel < held.len() as i64;
            let seg: Vec<u8> = (rel..rel + len as i64)
                .map(|p| if evil { !pattern(p) } else { pattern(p) })
                .collect();

            let prev_len = held.len();
            let got = classify(&held, base, seq, &seg);
            counts[idx(&got)] += 1;
            if let OverlapVerdict::Append { trim } = got {
                held.extend_from_slice(&seg[trim..]);
            }
            // Attested bytes are immutable: no verdict may rewrite them.
            prop_assert_eq!(&held[..prev_len], &reference[..prev_len]);

            let want = reference_classify(&reference, base, seq, &seg);
            ref_counts[idx(&want)] += 1;
            if let OverlapVerdict::Append { trim } = want {
                reference.extend_from_slice(&seg[trim..]);
            }

            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(&held, &reference, "accepted byte maps diverged");
        prop_assert_eq!(counts, ref_counts, "verdict counts diverged");
        // The integrity invariant itself: every attested byte is the
        // legitimate pattern byte for its position.
        for (p, &b) in held.iter().enumerate() {
            prop_assert_eq!(b, pattern(p as i64), "attacker byte attested at {}", p);
        }
    }
}

fn flow(i: u16) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, (i & 0xff) as u8),
        40_000 + i,
        Ipv4Addr::new(10, 99, 0, 1),
        5201,
    )
}

fn stashed(f: u16, seq: u32, tag: u8) -> StashedSeg {
    let mut buf = PacketBuf::with_headroom(0);
    buf.extend_from_slice(&[0u8; 40]);
    buf.extend_from_slice(&[tag]);
    StashedSeg {
        key: flow(f),
        seq,
        psh: false,
        ip_hlen: 20,
        tcp_hlen: 20,
        payload_sum: 0,
        buf,
    }
}

const STASH_CAP: usize = 8;
const STASH_PER_FLOW: usize = 3;

proptest! {
    /// `SegStash` drains exactly like a reference sorted by
    /// `(rel, arrival order)`, per flow, under arbitrary interleavings
    /// of inserts and drains — and never exceeds its caps.
    #[test]
    fn stash_drains_like_a_sorted_reference(
        ops in proptest::collection::vec(
            (0u8..4, 0u16..3, 0u32..16), 1..64),
    ) {
        let mut st = SegStash::new(STASH_CAP, STASH_PER_FLOW);
        // Reference: per entry (flow, seq, stamp, tag), kept unsorted;
        // drains pick min by (rel, stamp).
        let mut model: Vec<(u16, u32, u64, u8)> = Vec::new();
        let mut stamp = 0u64;
        let mut tag = 0u8;
        let base = 0u32;
        for (sel, f, seq) in ops {
            match sel {
                0 | 1 => {
                    tag = tag.wrapping_add(1);
                    let accepted = st.insert(stashed(f, seq, tag)).is_ok();
                    let total = model.len();
                    let per = model.iter().filter(|e| e.0 == f).count();
                    let model_accepts = total < STASH_CAP && per < STASH_PER_FLOW;
                    prop_assert_eq!(accepted, model_accepts);
                    if accepted {
                        model.push((f, seq, stamp, tag));
                        stamp += 1;
                    }
                }
                2 => {
                    // take_min == take everything in (rel, stamp) order.
                    let got = st.take_min(&flow(f), base);
                    let want = model
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.0 == f)
                        .min_by_key(|(_, e)| (i64::from(e.1.wrapping_sub(base) as i32), e.2))
                        .map(|(i, _)| i);
                    match (got, want) {
                        (None, None) => {}
                        (Some(g), Some(i)) => {
                            let e = model.remove(i);
                            prop_assert_eq!(g.seq, e.1);
                            prop_assert_eq!(g.payload(), &[e.3][..], "tie broken out of arrival order");
                        }
                        (g, w) => prop_assert!(false, "drain mismatch: {:?} vs {:?}", g.map(|s| s.seq), w),
                    }
                }
                _ => {
                    // take_actionable with the edge at `seq`.
                    let edge = base.wrapping_add(seq);
                    let got = st.take_actionable(&flow(f), base, edge);
                    let lim = i64::from(edge.wrapping_sub(base) as i32);
                    let want = model
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| {
                            e.0 == f && i64::from(e.1.wrapping_sub(base) as i32) <= lim
                        })
                        .min_by_key(|(_, e)| (i64::from(e.1.wrapping_sub(base) as i32), e.2))
                        .map(|(i, _)| i);
                    match (got, want) {
                        (None, None) => {}
                        (Some(g), Some(i)) => {
                            let e = model.remove(i);
                            prop_assert_eq!(g.seq, e.1);
                            prop_assert_eq!(g.payload(), &[e.3][..]);
                        }
                        (g, w) => prop_assert!(false, "actionable mismatch: {:?} vs {:?}", g.map(|s| s.seq), w),
                    }
                }
            }
            prop_assert!(st.len() <= STASH_CAP);
            prop_assert_eq!(st.len(), model.len());
        }
    }
}
