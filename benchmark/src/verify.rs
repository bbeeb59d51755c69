//! The checking sink: an independent receiver for everything the gateway
//! delivers.
//!
//! It validates every delivered packet with its own scalar checksum (no
//! program kernel is trusted), reassembles TCP by sequence number with
//! first-writer-wins (what a receiver's TCP does: bytes already received
//! are never overwritten), checks UDP datagram order and boundaries, and
//! compares every accepted byte against the generator's pattern. A
//! delivered packet that fails validation is tolerated only if it is,
//! byte for byte, one of the malformed packets the generator injected —
//! the gateway forwards those for the receiver to discard, and so does
//! this receiver.

use crate::gen::{fill_pattern, hash_packet, now_of, FlowOracle, Trace};
use crate::sut::{FlowKey, IpProtocol, PacketBuf, PacketSink, SgPacket, CARAVAN_TOS};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// RFC 1071 ones-complement sum, two bytes at a time: the oracle every
/// delivered checksum is held to, and the host calibration spin.
pub fn scalar_sum(data: &[u8]) -> u64 {
    let mut acc = 0u64;
    let mut pairs = data.chunks_exact(2);
    for p in &mut pairs {
        acc += u64::from(u16::from_be_bytes([p[0], p[1]]));
    }
    if let [last] = pairs.remainder() {
        acc += u64::from(*last) << 8;
    }
    acc
}

fn fold(mut acc: u64) -> u16 {
    while acc >> 16 != 0 {
        acc = (acc & 0xFFFF) + (acc >> 16);
    }
    acc as u16
}

/// Whether an L4 segment (TCP or UDP, header included) sums to all-ones
/// with its pseudo-header.
fn l4_checksum_ok(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, seg: &[u8]) -> bool {
    let pseudo =
        scalar_sum(&src.octets()) + scalar_sum(&dst.octets()) + u64::from(proto) + seg.len() as u64;
    fold(pseudo + scalar_sum(seg)) == 0xFFFF
}

#[derive(Debug, Default)]
struct FlowState {
    /// TCP: every stream byte below `edge` has been received.
    edge: u64,
    /// TCP: received ranges above `edge`, disjoint, `start -> end`.
    ooo: BTreeMap<u64, u64>,
    /// UDP: datagrams received so far (the next expected index) and the
    /// payload bytes they carried (the next datagram's stream offset).
    next_dgram: u32,
    udp_bytes: u64,
    acks: u32,
    failed: bool,
}

/// Totals over everything delivered.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    pub pkts_out: u64,
    pub wire_bytes_out: u64,
    /// L4 payload bytes accepted as new (duplicates, late forgeries and
    /// headers excluded).
    pub payload_bytes: u64,
    /// The part of `payload_bytes` that arrived in full-sized packets.
    pub full_bytes: u64,
    /// Payload bytes delivered for ranges the receiver already held.
    pub repeated_bytes: u64,
    /// Injected malformed packets forwarded verbatim (and discarded here).
    pub malformed_forwarded: u64,
    /// Delivered packets that failed validation and were not injected.
    pub invalid_pkts: u64,
    /// Packets delivered through `PacketSink::push_sg`.
    pub sg_pkts: u64,
}

/// The verdict over one delivered stream.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub flows_offered: u64,
    pub failed_flows: u64,
    pub failed_flow_share: f64,
    pub drop_share: f64,
    pub conversion_yield: f64,
    pub tally: Tally,
    /// Gateway residence per emitted data packet, logical ns, sorted.
    pub delays_ns: Vec<u64>,
}

impl Verdict {
    /// Everything legitimate arrived intact and nothing else did.
    pub fn ok(&self, expected_drop_share: f64) -> bool {
        self.failed_flows == 0
            && self.tally.invalid_pkts == 0
            && self.drop_share == expected_drop_share
    }
}

pub struct Checker<'a> {
    trace: &'a Trace,
    index: HashMap<FlowKey, u32>,
    state: Vec<FlowState>,
    /// IP total length from which a packet counts as full-sized.
    full_at: usize,
    /// Arrival-time base for delay samples; `None` skips them.
    offered_pps: Option<f64>,
    /// Logical time of the emission being checked (set by the loop).
    pub now: u64,
    scratch: Vec<u8>,
    flat: Vec<u8>,
    tally: Tally,
    delays_ns: Vec<u64>,
}

impl<'a> Checker<'a> {
    pub fn new(trace: &'a Trace, full_at: usize, offered_pps: Option<f64>) -> Self {
        Checker {
            trace,
            // A flow's pure ACKs travel on its reverse 5-tuple.
            index: trace
                .flows
                .iter()
                .enumerate()
                .flat_map(|(i, f)| [(f.key, i as u32), (f.key.reversed(), i as u32)])
                .collect(),
            state: trace.flows.iter().map(|_| FlowState::default()).collect(),
            full_at,
            offered_pps,
            now: 0,
            scratch: Vec::new(),
            flat: Vec::new(),
            tally: Tally::default(),
            delays_ns: Vec::new(),
        }
    }

    /// A delivered packet failed validation: fine if the generator
    /// injected exactly these bytes, a failure of its flow otherwise.
    fn invalid(&mut self, pkt: &[u8]) {
        if self.trace.malformed.contains(&hash_packet(pkt)) {
            self.tally.malformed_forwarded += 1;
            return;
        }
        self.tally.invalid_pkts += 1;
        // Best-effort attribution from the fixed header offsets.
        if pkt.len() >= 24 && pkt[0] >> 4 == 4 {
            let ihl = usize::from(pkt[0] & 0x0F) * 4;
            if let Some(l4) = pkt.get(ihl..ihl + 4) {
                let key = FlowKey {
                    src_ip: Ipv4Addr::new(pkt[12], pkt[13], pkt[14], pkt[15]),
                    dst_ip: Ipv4Addr::new(pkt[16], pkt[17], pkt[18], pkt[19]),
                    src_port: u16::from_be_bytes([l4[0], l4[1]]),
                    dst_port: u16::from_be_bytes([l4[2], l4[3]]),
                    proto: IpProtocol::from(pkt[9]),
                };
                if let Some(&f) = self.index.get(&key) {
                    self.state[f as usize].failed = true;
                }
            }
        }
    }

    fn delay_sample(&mut self, arrival_idx: u32) {
        if let Some(pps) = self.offered_pps {
            let arrived = now_of(arrival_idx as usize, pps);
            self.delays_ns.push(self.now.saturating_sub(arrived));
        }
    }

    /// Checks one delivered packet.
    pub fn check(&mut self, pkt: &[u8]) {
        self.tally.pkts_out += 1;
        self.tally.wire_bytes_out += pkt.len() as u64;
        if pkt.len() < 20 || pkt[0] >> 4 != 4 {
            return self.invalid(pkt);
        }
        let ihl = usize::from(pkt[0] & 0x0F) * 4;
        let total = usize::from(u16::from_be_bytes([pkt[2], pkt[3]]));
        if ihl < 20 || total < ihl || total > pkt.len() || fold(scalar_sum(&pkt[..ihl])) != 0xFFFF {
            return self.invalid(pkt);
        }
        let src = Ipv4Addr::new(pkt[12], pkt[13], pkt[14], pkt[15]);
        let dst = Ipv4Addr::new(pkt[16], pkt[17], pkt[18], pkt[19]);
        let seg = &pkt[ihl..total];
        let full = total >= self.full_at;
        match pkt[9] {
            6 => {
                if seg.len() < 20 || !l4_checksum_ok(src, dst, 6, seg) {
                    return self.invalid(pkt);
                }
                let data_at = usize::from(seg[12] >> 4) * 4;
                if data_at < 20 || data_at > seg.len() {
                    return self.invalid(pkt);
                }
                let key = FlowKey::tcp(
                    src,
                    u16::from_be_bytes([seg[0], seg[1]]),
                    dst,
                    u16::from_be_bytes([seg[2], seg[3]]),
                );
                let Some(&f) = self.index.get(&key) else {
                    self.tally.invalid_pkts += 1;
                    return;
                };
                let seq = u32::from_be_bytes([seg[4], seg[5], seg[6], seg[7]]);
                self.tcp_data(f as usize, seq, &seg[data_at..], full);
            }
            17 => {
                if seg.len() < 8 {
                    return self.invalid(pkt);
                }
                let zero_checksum = seg[6] == 0 && seg[7] == 0;
                if !zero_checksum && !l4_checksum_ok(src, dst, 17, seg) {
                    return self.invalid(pkt);
                }
                let key = FlowKey::udp(
                    src,
                    u16::from_be_bytes([seg[0], seg[1]]),
                    dst,
                    u16::from_be_bytes([seg[2], seg[3]]),
                );
                let Some(&f) = self.index.get(&key) else {
                    self.tally.invalid_pkts += 1;
                    return;
                };
                if pkt[1] == CARAVAN_TOS {
                    // A caravan: the outer datagram's payload is a run of
                    // complete inner datagrams, each with its own length
                    // and checksum.
                    let mut rest = &seg[8..];
                    let mut first = true;
                    while !rest.is_empty() {
                        let len = match rest.get(4..6) {
                            Some(l) => usize::from(u16::from_be_bytes([l[0], l[1]])),
                            None => 0,
                        };
                        if len < 8 || len > rest.len() {
                            self.state[f as usize].failed = true;
                            self.tally.invalid_pkts += 1;
                            return;
                        }
                        let (inner, tail) = rest.split_at(len);
                        if !l4_checksum_ok(src, dst, 17, inner) {
                            self.state[f as usize].failed = true;
                            self.tally.invalid_pkts += 1;
                            return;
                        }
                        self.udp_datagram(f as usize, &inner[8..], full, first);
                        first = false;
                        rest = tail;
                    }
                } else {
                    self.udp_datagram(f as usize, &seg[8..], full, true);
                }
            }
            _ => self.invalid(pkt),
        }
    }

    /// First-writer-wins reassembly of one delivered TCP payload.
    fn tcp_data(&mut self, f: usize, seq: u32, data: &[u8], full: bool) {
        let oracle: &FlowOracle = &self.trace.flows[f];
        if data.is_empty() {
            self.state[f].acks += 1;
            return;
        }
        let a = u64::from(seq.wrapping_sub(oracle.isn));
        let b = a + data.len() as u64;
        if b > oracle.stream_len {
            // Bytes this flow never offered.
            self.state[f].failed = true;
            return;
        }
        // The segment that first carried byte `a` dates the emission.
        let seg_at = oracle.segs.partition_point(|&(off, _)| off <= a);
        let arrival_idx = oracle.segs[seg_at.saturating_sub(1)].1;
        let salt = oracle.salt;
        self.delay_sample(arrival_idx);

        // The ranges of [a, b) not yet received.
        let st = &mut self.state[f];
        let mut gaps: Vec<(u64, u64)> = Vec::new();
        let mut cursor = a.max(st.edge);
        for (&s, &e) in st.ooo.range(..b) {
            if e <= cursor {
                continue;
            }
            if s > cursor {
                gaps.push((cursor, s.min(b)));
            }
            cursor = cursor.max(e);
        }
        if cursor < b {
            gaps.push((cursor, b));
        }
        let mut fresh = 0u64;
        for &(g0, g1) in &gaps {
            let n = (g1 - g0) as usize;
            self.scratch.resize(n, 0);
            fill_pattern(salt, g0, &mut self.scratch);
            let got = &data[(g0 - a) as usize..(g1 - a) as usize];
            if got != &self.scratch[..] {
                // A byte nobody offered reached the receiver first.
                st.failed = true;
            }
            fresh += n as u64;
        }
        self.tally.payload_bytes += fresh;
        self.tally.repeated_bytes += data.len() as u64 - fresh;
        if full {
            self.tally.full_bytes += fresh;
        }
        if fresh == 0 {
            return;
        }
        // Record [a, b) as received.
        if a <= st.edge {
            st.edge = st.edge.max(b);
        } else {
            let (mut s, mut e) = (a, b);
            let overlapping: Vec<u64> = st
                .ooo
                .range(..=e)
                .filter(|(_, &end)| end >= s)
                .map(|(&start, _)| start)
                .collect();
            for start in overlapping {
                let end = st.ooo.remove(&start).expect("collected above");
                s = s.min(start);
                e = e.max(end);
            }
            st.ooo.insert(s, e);
        }
        while let Some((&s, &e)) = st.ooo.first_key_value() {
            if s > st.edge {
                break;
            }
            st.edge = st.edge.max(e);
            st.ooo.remove(&s);
        }
    }

    /// One delivered UDP payload: it must be exactly the flow's next
    /// datagram — same length, same bytes.
    fn udp_datagram(&mut self, f: usize, data: &[u8], full: bool, first_in_pkt: bool) {
        let oracle = &self.trace.flows[f];
        let st = &mut self.state[f];
        let Some(&(len, arrival_idx)) = oracle.dgrams.get(st.next_dgram as usize) else {
            st.failed = true;
            return;
        };
        self.scratch.resize(usize::from(len), 0);
        fill_pattern(oracle.salt, st.udp_bytes, &mut self.scratch);
        st.next_dgram += 1;
        st.udp_bytes += u64::from(len);
        if data != &self.scratch[..] {
            st.failed = true;
            return;
        }
        self.tally.payload_bytes += u64::from(len);
        if full {
            self.tally.full_bytes += u64::from(len);
        }
        if first_in_pkt {
            self.delay_sample(arrival_idx);
        }
    }

    pub fn finish(mut self) -> Verdict {
        let mut failed_flows = 0u64;
        let mut accounted = 0u64;
        for (st, oracle) in self.state.iter().zip(&self.trace.flows) {
            let intact = !st.failed
                && st.edge == oracle.stream_len
                && st.ooo.is_empty()
                && st.next_dgram as usize == oracle.dgrams.len()
                && st.acks == oracle.pure_acks;
            if intact {
                accounted += u64::from(oracle.legit_pkts);
            } else {
                failed_flows += 1;
            }
        }
        self.delays_ns.sort_unstable();
        let flows_offered = self.trace.flows.len() as u64;
        let pkts_in = self.trace.pkts.len() as u64;
        Verdict {
            flows_offered,
            failed_flows,
            failed_flow_share: failed_flows as f64 / flows_offered as f64,
            drop_share: (pkts_in - accounted) as f64 / pkts_in as f64,
            conversion_yield: if self.tally.payload_bytes == 0 {
                0.0
            } else {
                self.tally.full_bytes as f64 / self.tally.payload_bytes as f64
            },
            tally: self.tally,
            delays_ns: self.delays_ns,
        }
    }
}

impl PacketSink for Checker<'_> {
    fn accept(&mut self, buf: PacketBuf) -> Option<PacketBuf> {
        self.check(buf.as_slice());
        Some(buf)
    }

    fn push_sg(&mut self, mut pkt: SgPacket<'_>) -> Option<PacketBuf> {
        self.tally.sg_pkts += 1;
        let mut flat = std::mem::take(&mut self.flat);
        flat.clear();
        flat.extend_from_slice(pkt.header());
        flat.extend_from_slice(pkt.payload());
        self.check(&flat);
        self.flat = flat;
        Some(pkt.take_header())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenSpec, Shape};
    use crate::sut::{build_tcp, build_udp_datagram, wrap_udp};

    const TCP: GenSpec = GenSpec {
        shape: Shape::Tcp,
        flows: 8,
        pkts: 400,
        mean_burst: 6.0,
        burst_cap: 16,
        mix: &[(0, 1), (700, 3), (1460, 4)],
        bundle: 1,
        jumbo_payload: 0,
        churn: None,
        hostile: None,
    };
    const UDP: GenSpec = GenSpec {
        shape: Shape::Udp,
        mix: &[(1200, 1)],
        ..TCP
    };

    /// Delivers `pkts` as an identity gateway would and returns the
    /// verdict.
    fn deliver(trace: &Trace, pkts: &[Vec<u8>]) -> Verdict {
        let mut c = Checker::new(trace, 1500, None);
        for p in pkts {
            c.check(p);
        }
        c.finish()
    }

    fn offered(trace: &Trace) -> Vec<Vec<u8>> {
        trace.pkts.iter().map(|(_, p)| p.clone()).collect()
    }

    /// Index of a data packet of `trace` with at least one payload byte.
    fn a_data_pkt(trace: &Trace) -> usize {
        trace
            .pkts
            .iter()
            .position(|(_, p)| p.len() > 100)
            .expect("trace has data")
    }

    #[test]
    fn identity_delivery_passes() {
        for spec in [TCP, UDP] {
            let t = generate(&spec, 1);
            let v = deliver(&t, &offered(&t));
            assert!(v.ok(0.0), "{:?}: {v:?}", spec.shape);
            assert_eq!(v.tally.payload_bytes, t.stats.legit_bytes);
        }
    }

    #[test]
    fn tcp_reordering_is_reassembled_by_sequence_number() {
        let t = generate(&TCP, 2);
        let mut pkts = offered(&t);
        pkts.reverse();
        assert!(deliver(&t, &pkts).ok(0.0));
    }

    #[test]
    fn rejects_a_flipped_payload_byte_even_with_a_valid_checksum() {
        let t = generate(&TCP, 3);
        let i = a_data_pkt(&t);
        // Raw flip: the checksum no longer verifies.
        let mut pkts = offered(&t);
        let last = pkts[i].len() - 1;
        pkts[i][last] ^= 1;
        let v = deliver(&t, &pkts);
        assert_eq!(v.tally.invalid_pkts, 1);
        assert_eq!(v.failed_flows, 1, "{v:?}");
        // Flip with the checksums rebuilt: caught by the byte comparison.
        let (key, pkt) = &t.pkts[i];
        let seq = u32::from_be_bytes([pkt[24], pkt[25], pkt[26], pkt[27]]);
        let mut payload = pkt[40..].to_vec();
        payload[0] ^= 1;
        let mut pkts = offered(&t);
        pkts[i] = build_tcp(key, seq, 0, &payload);
        let v = deliver(&t, &pkts);
        assert_eq!(v.tally.invalid_pkts, 0);
        assert_eq!(v.failed_flows, 1, "{v:?}");
        assert!(!v.ok(0.0));
    }

    #[test]
    fn rejects_a_dropped_segment() {
        let t = generate(&TCP, 4);
        let mut pkts = offered(&t);
        pkts.remove(a_data_pkt(&t));
        let v = deliver(&t, &pkts);
        assert_eq!(v.failed_flows, 1, "{v:?}");
        assert!(v.drop_share > 0.0);
    }

    #[test]
    fn rejects_a_reordered_datagram() {
        let t = generate(&UDP, 5);
        let mut pkts = offered(&t);
        // Two consecutive packets of one flow (bursts make them common).
        let i = (0..pkts.len() - 1)
            .find(|&i| t.pkts[i].0 == t.pkts[i + 1].0)
            .expect("a burst of two");
        pkts.swap(i, i + 1);
        let v = deliver(&t, &pkts);
        assert_eq!(v.failed_flows, 1, "{v:?}");
    }

    #[test]
    fn rejects_a_moved_datagram_boundary() {
        let t = generate(&UDP, 6);
        let (key, pkt) = &t.pkts[0];
        // The same bytes, delivered as two half-sized datagrams.
        let payload = &pkt[28..];
        let (a, b) = payload.split_at(payload.len() / 2);
        let mut pkts = offered(&t);
        let halves: Vec<Vec<u8>> = [a, b]
            .iter()
            .map(|h| wrap_udp(key.src_ip, key.dst_ip, 0, 0, &build_udp_datagram(key, h)))
            .collect();
        pkts.splice(0..1, halves);
        assert_eq!(deliver(&t, &pkts).failed_flows, 1);
    }

    #[test]
    fn rejects_a_bad_checksum() {
        for spec in [TCP, UDP] {
            let t = generate(&spec, 7);
            let i = a_data_pkt(&t);
            let mut pkts = offered(&t);
            // Corrupt the L4 checksum field itself.
            let at = if spec.shape == Shape::Tcp { 36 } else { 26 };
            pkts[i][at] ^= 0x10;
            let v = deliver(&t, &pkts);
            assert_eq!(v.tally.invalid_pkts, 1, "{:?}", spec.shape);
            assert!(!v.ok(0.0));
        }
    }

    #[test]
    fn forged_bytes_lose_to_the_first_writer_and_fail_when_first() {
        let t = generate(&TCP, 8);
        let i = a_data_pkt(&t);
        let (key, pkt) = &t.pkts[i];
        let seq = u32::from_be_bytes([pkt[24], pkt[25], pkt[26], pkt[27]]);
        let evil: Vec<u8> = pkt[40..].iter().map(|b| b ^ 0xA5).collect();
        let forged = build_tcp(key, seq, 0, &evil);
        // After the legitimate copy: ignored, like a receiver would.
        let mut late = offered(&t);
        late.insert(i + 1, forged.clone());
        let v = deliver(&t, &late);
        assert_eq!(v.failed_flows, 0, "{v:?}");
        assert_eq!(v.tally.repeated_bytes, evil.len() as u64);
        // Before it: the forged bytes are the first write.
        let mut early = offered(&t);
        early.insert(i, forged);
        assert_eq!(deliver(&t, &early).failed_flows, 1);
    }

    #[test]
    fn injected_malformed_packets_are_the_only_invalid_ones_tolerated() {
        let spec = GenSpec {
            pkts: 4_000,
            mix: &[(1460, 1)],
            hostile: Some(crate::gen::Hostile {
                reorder_ppm: 20_000,
                dup_ppm: 10_000,
                forge_ppm: 10_000,
                malformed_ppm: 20_000,
            }),
            ..TCP
        };
        let t = generate(&spec, 9);
        assert!(t.stats.malformed_pkts > 0 && t.stats.forged_pkts > 0);
        let v = deliver(&t, &offered(&t));
        assert!(v.ok(t.expected_drop_share()), "{v:?}");
        assert_eq!(v.tally.malformed_forwarded, t.stats.malformed_pkts);
    }
}
