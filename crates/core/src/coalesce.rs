//! Ordered segment coalescing for the merge engine's adversarial surface.
//!
//! The original merge engine accepted only *exactly contiguous* segments
//! (`meta.seq == pending.next_seq`) and flushed on anything else. That is
//! safe but fragile in two opposite ways: a single reordered segment
//! destroys conversion yield, and the flush-and-restart policy gives an
//! on-path attacker a free yield-degradation lever. Worse, a reassembler
//! that *did* accept overlaps naively would let an attacker smuggle bytes
//! under a retransmission: classic overlapping-fragment evasion, see
//! "A New Model for Testing IPv6 Fragment Handling" (PAPERS.md).
//!
//! This module supplies the two pieces the hardened engine needs:
//!
//! * [`classify`] — a pure verdict function placing one arriving segment
//!   relative to a flow's held aggregate. Overlapping bytes must be
//!   **bit-identical** to what the aggregate already attests; a mismatch
//!   is an injection attempt ([`OverlapVerdict::Inconsistent`]), and a
//!   segment straddling the aggregate's lower edge (bytes we can no
//!   longer attest) is overlap evasion ([`OverlapVerdict::Evasion`]).
//!   The engine never emits a merged byte that was not consistently
//!   attested by every segment claiming its sequence range.
//! * [`SegStash`] — a small fixed-capacity, allocation-free parking lot
//!   for out-of-order segments that arrive *ahead* of the contiguous
//!   edge ([`OverlapVerdict::Future`]). Mild reordering then costs
//!   nothing: the stashed segment coalesces as soon as the gap fills,
//!   instead of forcing a flush.
//!
//! Both are deterministic and flow-local: verdicts depend only on the
//! aggregate's bytes and the segment's bytes, never on wall clock or
//! cross-flow state, so per-flow digests stay bit-identical across core
//! counts (the engine's sharding invariant).

use px_wire::bytes;
use px_wire::{FlowKey, PacketBuf};

/// Where an arriving data segment falls relative to a held aggregate
/// covering `[base_seq, base_seq + held.len())` in TCP sequence space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapVerdict {
    /// The segment extends the aggregate: its first `trim` payload bytes
    /// duplicate (and were verified identical to) the aggregate's tail;
    /// the rest is new, contiguous data. `trim == 0` is the exactly
    /// contiguous fast path.
    Append {
        /// Leading payload bytes already held (verified identical).
        trim: usize,
    },
    /// Full retransmission of bytes already held, bit-identical. Safe to
    /// drop silently: the receiver-side byte stream is unchanged.
    Duplicate,
    /// The segment claims a sequence range the aggregate holds, with
    /// different bytes — an injection attempt (or severe corruption that
    /// survived checksums). Never merged, never forwarded.
    Inconsistent,
    /// The segment overlaps the aggregate but begins *before* its base —
    /// bytes this aggregate can no longer attest. Accepting the tail
    /// would launder unattestable bytes behind a partial match (the
    /// overlapping-fragment evasion pattern), so it is dropped.
    Evasion,
    /// The segment lies entirely before the aggregate's base: old data
    /// (e.g. a retransmission from before this aggregate existed). Not
    /// mergeable, but not evidence of attack — forward it verbatim with
    /// its original end-to-end checksum intact.
    Below,
    /// The segment starts beyond the contiguous edge (a gap precedes
    /// it). Park it in the [`SegStash`] until the gap fills.
    Future,
}

/// Classifies `seg_payload` (first byte at `seg_seq`) against the held
/// aggregate payload `held` (first byte at `base_seq`).
///
/// Sequence arithmetic is wrapping: positions are compared through the
/// signed 32-bit difference, the standard TCP window interpretation
/// (|offset| < 2^31). Empty segments never reach the merge path
/// (`Verdict::NotMergeable`), but classify degenerates safely to
/// `Duplicate` for them.
pub fn classify(held: &[u8], base_seq: u32, seg_seq: u32, seg_payload: &[u8]) -> OverlapVerdict {
    let held_len = held.len() as i64;
    let seg_len = seg_payload.len() as i64;
    let rel = i64::from(seg_seq.wrapping_sub(base_seq) as i32);
    if seg_len == 0 {
        return OverlapVerdict::Duplicate;
    }
    if rel >= held_len {
        return if rel == held_len {
            OverlapVerdict::Append { trim: 0 }
        } else {
            OverlapVerdict::Future
        };
    }
    if rel < 0 {
        if rel + seg_len <= 0 {
            return OverlapVerdict::Below;
        }
        // Straddles the base: compare the attestable part, but never
        // accept — the head below `base_seq` cannot be verified.
        let ov = (rel + seg_len).min(held_len) as usize;
        let skip = (-rel) as usize;
        // `skip + ov <= seg_len` and `ov <= held_len` by the arithmetic
        // above; the checked helpers keep the comparison panic-free.
        if bytes::range(seg_payload, skip, skip + ov) != bytes::range_to(held, ov) {
            return OverlapVerdict::Inconsistent;
        }
        return OverlapVerdict::Evasion;
    }
    // 0 <= rel < held_len: overlaps held bytes from `rel`.
    let at = rel as usize;
    let ov = (held_len - rel).min(seg_len) as usize;
    if bytes::range_to(seg_payload, ov) != bytes::range(held, at, at + ov) {
        return OverlapVerdict::Inconsistent;
    }
    if rel + seg_len <= held_len {
        OverlapVerdict::Duplicate
    } else {
        OverlapVerdict::Append { trim: ov }
    }
}

/// One parked out-of-order segment: the packet bytes (trimmed to the IP
/// total length) plus the cached parse facts the eventual append needs,
/// so draining the stash re-reads no header bytes.
#[derive(Debug)]
pub struct StashedSeg {
    /// Flow the segment belongs to.
    pub key: FlowKey,
    /// TCP sequence number of the first payload byte.
    pub seq: u32,
    /// Whether the segment carried PSH.
    pub psh: bool,
    /// IPv4 header length in bytes.
    pub ip_hlen: u8,
    /// TCP header length in bytes.
    pub tcp_hlen: u8,
    /// Ones-complement partial sum of the payload (checksum cache).
    pub payload_sum: u16,
    /// The packet, exactly `total_len` bytes (padding already trimmed).
    pub buf: PacketBuf,
}

impl StashedSeg {
    /// The segment's TCP payload bytes.
    pub fn payload(&self) -> &[u8] {
        let hdrs = usize::from(self.ip_hlen) + usize::from(self.tcp_hlen);
        px_wire::bytes::range_from(self.buf.as_slice(), hdrs)
    }

    /// Payload length in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload().len()
    }
}

/// Default total stash capacity (segments, across all flows).
pub const STASH_CAP: usize = 32;
/// Default per-flow stash ceiling: one flow's reordering burst may not
/// monopolise the shared stash.
pub const STASH_PER_FLOW: usize = 4;

/// A fixed-capacity, allocation-free store of out-of-order segments.
///
/// Capacity is preallocated at construction; inserts beyond it (total or
/// per-flow) are refused and the caller falls back to the historical
/// flush-and-restart path — strictly no worse than the old engine.
/// Lookup is a linear scan: the stash is tiny and empty in the
/// steady state (the in-order hot path pays one `is_empty()` branch).
///
/// Invariant (maintained by the engine): every stashed segment belongs
/// to a flow with a live pending aggregate, and is removed — appended,
/// dropped, or forwarded — when that aggregate goes away. The pooled
/// buffers inside are therefore never leaked across a drain.
#[derive(Debug)]
pub struct SegStash {
    /// `(arrival stamp, segment)`: the stamp makes drain order stable.
    slots: Vec<(u64, StashedSeg)>,
    per_flow: usize,
    /// Monotonic insert counter — the arrival-order tie-break.
    next_stamp: u64,
}

impl SegStash {
    /// Creates a stash with `cap` total slots and `per_flow` per flow.
    pub fn new(cap: usize, per_flow: usize) -> Self {
        SegStash {
            slots: Vec::with_capacity(cap),
            per_flow,
            next_stamp: 0,
        }
    }

    /// Whether no segment is parked (the hot-path early-out).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Parked segments, across all flows.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Parks a segment. Refused (returned back) when the stash or the
    /// flow's allowance is full — the caller keeps ownership of the
    /// buffer and falls back to flushing.
    pub fn insert(&mut self, seg: StashedSeg) -> Result<(), StashedSeg> {
        if self.slots.len() == self.slots.capacity() {
            return Err(seg);
        }
        let flow_held = self.slots.iter().filter(|(_, s)| s.key == seg.key).count();
        if flow_held >= self.per_flow {
            return Err(seg);
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.slots.push((stamp, seg));
        Ok(())
    }

    /// Removes and returns the lowest-sequence stashed segment of `key`
    /// that is *actionable* against an aggregate whose contiguous edge is
    /// `next_seq` (base `base_seq`): it starts at or before the edge, so
    /// it can append, duplicate, or conflict — but no longer `Future`.
    pub fn take_actionable(
        &mut self,
        key: &FlowKey,
        base_seq: u32,
        next_seq: u32,
    ) -> Option<StashedSeg> {
        let edge = i64::from(next_seq.wrapping_sub(base_seq) as i32);
        self.take_min_where(key, base_seq, |rel| rel <= edge)
    }

    /// Removes and returns the lowest-sequence stashed segment of `key`,
    /// regardless of position (drain order for flush paths).
    pub fn take_min(&mut self, key: &FlowKey, base_seq: u32) -> Option<StashedSeg> {
        self.take_min_where(key, base_seq, |_| true)
    }

    /// The scan orders candidates by `(rel, arrival stamp)`: equal-rel
    /// segments drain in arrival order, regardless of how `swap_remove`
    /// has shuffled the slots. With an adversary replaying an
    /// already-sent range with altered bytes, both copies can be parked
    /// under the same rel — the stamp guarantees the first-arrived
    /// (legitimate) copy is re-emitted first, so the attacker's copy is
    /// never the first write at any stream position downstream.
    fn take_min_where(
        &mut self,
        key: &FlowKey,
        base_seq: u32,
        keep: impl Fn(i64) -> bool,
    ) -> Option<StashedSeg> {
        let mut best: Option<(usize, i64, u64)> = None;
        for (i, (stamp, s)) in self.slots.iter().enumerate() {
            if s.key != *key {
                continue;
            }
            let rel = i64::from(s.seq.wrapping_sub(base_seq) as i32);
            if !keep(rel) {
                continue;
            }
            if best.is_none_or(|(_, r, t)| (rel, *stamp) < (r, t)) {
                best = Some((i, rel, *stamp));
            }
        }
        best.map(|(i, _, _)| self.slots.swap_remove(i).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(port: u16) -> FlowKey {
        FlowKey {
            src_ip: Ipv4Addr::new(1, 1, 1, 1),
            dst_ip: Ipv4Addr::new(2, 2, 2, 2),
            src_port: port,
            dst_port: 80,
            proto: px_wire::IpProtocol::Tcp,
        }
    }

    fn seg(port: u16, seq: u32, payload: &[u8]) -> StashedSeg {
        let mut buf = PacketBuf::with_headroom(0);
        buf.extend_from_slice(&[0u8; 40]);
        buf.extend_from_slice(payload);
        StashedSeg {
            key: key(port),
            seq,
            psh: false,
            ip_hlen: 20,
            tcp_hlen: 20,
            payload_sum: 0,
            buf,
        }
    }

    #[test]
    fn classify_contiguous_and_future() {
        let held = b"abcdefgh";
        assert_eq!(
            classify(held, 100, 108, b"ij"),
            OverlapVerdict::Append { trim: 0 }
        );
        assert_eq!(classify(held, 100, 110, b"kl"), OverlapVerdict::Future);
    }

    #[test]
    fn classify_duplicates_and_straddles() {
        let held = b"abcdefgh";
        // Fully contained, identical: duplicate.
        assert_eq!(classify(held, 100, 102, b"cde"), OverlapVerdict::Duplicate);
        assert_eq!(
            classify(held, 100, 100, b"abcdefgh"),
            OverlapVerdict::Duplicate
        );
        // Straddling retransmit with a new tail: append the tail only.
        assert_eq!(
            classify(held, 100, 106, b"ghIJ"),
            OverlapVerdict::Append { trim: 2 }
        );
    }

    #[test]
    fn classify_detects_injection() {
        let held = b"abcdefgh";
        // Same range, different bytes.
        assert_eq!(
            classify(held, 100, 102, b"cXe"),
            OverlapVerdict::Inconsistent
        );
        // Straddling tail whose overlap mismatches.
        assert_eq!(
            classify(held, 100, 106, b"XhIJ"),
            OverlapVerdict::Inconsistent
        );
    }

    #[test]
    fn classify_below_and_evasion() {
        let held = b"abcdefgh";
        // Entirely before the base: old data, not an attack.
        assert_eq!(
            classify(held, 100, 90, b"0123456789"),
            OverlapVerdict::Below
        );
        // Straddles the base with a matching attestable part: evasion
        // (the head cannot be verified).
        assert_eq!(classify(held, 100, 98, b"??abcd"), OverlapVerdict::Evasion);
        // Straddles the base with a mismatching attestable part.
        assert_eq!(
            classify(held, 100, 98, b"??Xbcd"),
            OverlapVerdict::Inconsistent
        );
    }

    #[test]
    fn classify_wraps_sequence_space() {
        let held = b"abcd";
        let base = u32::MAX - 1; // held covers [MAX-1, MAX, 0, 1]
        assert_eq!(
            classify(held, base, 2, b"ef"),
            OverlapVerdict::Append { trim: 0 }
        );
        assert_eq!(classify(held, base, 0, b"cd"), OverlapVerdict::Duplicate);
        assert_eq!(classify(held, base, 0, b"cX"), OverlapVerdict::Inconsistent);
    }

    #[test]
    fn stash_caps_total_and_per_flow() {
        let mut st = SegStash::new(4, 2);
        assert!(st.insert(seg(1, 0, b"a")).is_ok());
        assert!(st.insert(seg(1, 10, b"b")).is_ok());
        // Per-flow allowance exhausted.
        assert!(st.insert(seg(1, 20, b"c")).is_err());
        assert!(st.insert(seg(2, 0, b"d")).is_ok());
        assert!(st.insert(seg(3, 0, b"e")).is_ok());
        // Total capacity exhausted.
        assert!(st.insert(seg(4, 0, b"f")).is_err());
        assert_eq!(st.len(), 4);
    }

    #[test]
    fn stash_takes_in_sequence_order_per_flow() {
        let mut st = SegStash::new(8, 8);
        st.insert(seg(1, 300, b"c")).unwrap();
        st.insert(seg(1, 100, b"a")).unwrap();
        st.insert(seg(2, 50, b"x")).unwrap();
        st.insert(seg(1, 200, b"b")).unwrap();
        // Only segments at/below the edge are actionable.
        let got = st.take_actionable(&key(1), 0, 200);
        assert_eq!(got.as_ref().map(|s| s.seq), Some(100));
        let got = st.take_actionable(&key(1), 0, 200);
        assert_eq!(got.as_ref().map(|s| s.seq), Some(200));
        assert!(
            st.take_actionable(&key(1), 0, 200).is_none(),
            "300 is future"
        );
        // Drain order ignores the edge.
        assert_eq!(st.take_min(&key(1), 0).map(|s| s.seq), Some(300));
        assert_eq!(st.take_min(&key(2), 0).map(|s| s.seq), Some(50));
        assert!(st.is_empty());
    }

    #[test]
    fn stash_breaks_equal_seq_ties_by_arrival_order() {
        // An on-path injector replays an already-parked range with
        // altered bytes: both copies sit in the stash at the same rel.
        // Drain order must be arrival order — first-arrived (legit)
        // copy out first — and must survive the slot shuffling that
        // `swap_remove` does on unrelated removals.
        let mut st = SegStash::new(8, 8);
        st.insert(seg(1, 100, b"legit")).unwrap();
        st.insert(seg(1, 50, b"early")).unwrap();
        st.insert(seg(1, 100, b"evil!")).unwrap();
        // Removing seq 50 swap_removes slot 1: the evil copy moves to a
        // lower slot index than the legit copy.
        assert_eq!(st.take_min(&key(1), 0).map(|s| s.seq), Some(50));
        let first = st.take_min(&key(1), 0).unwrap();
        assert_eq!(first.seq, 100);
        assert_eq!(first.payload(), b"legit");
        let second = st.take_min(&key(1), 0).unwrap();
        assert_eq!(second.payload(), b"evil!");
        assert!(st.is_empty());
    }

    #[test]
    fn stash_steady_state_never_allocates() {
        let mut st = SegStash::new(4, 4);
        let base = st.slots.capacity();
        for round in 0..100u32 {
            for i in 0..4u32 {
                st.insert(seg(1, round * 4 + i, b"pp")).unwrap();
            }
            while st.take_min(&key(1), 0).is_some() {}
        }
        assert_eq!(st.slots.capacity(), base, "no reallocation");
    }
}
