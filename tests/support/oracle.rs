//! The transparency oracle: PXGW's one promise — each end sees the byte
//! streams and datagram boundaries it would see without the gateway
//! (PAPER.md §1) — checked from outside the datapath.
//!
//! [`Oracle::new`] indexes the input trace a run was fed.
//! [`Oracle::check`] takes what the run emitted
//! (`EngineReport::captured_output`: each flow's packets in emission
//! order) and the run's counters, rebuilds every flow's delivered
//! output, and holds it to the input:
//!
//! * **Packets.** An emitted packet either equals an input packet byte
//!   for byte — a passthrough, forwarded whatever it holds — or the
//!   engine built it, and then it is well-formed IPv4 with a valid
//!   header checksum, a `total_len` equal to its length, no more than
//!   iMTU bytes, and a valid TCP or UDP checksum.
//! * **TCP streams.** Each delivered payload byte of a flow — the first
//!   one at its sequence number, which is the one a receiver keeps —
//!   equals the input's byte there: the first byte an input segment
//!   with valid checksums carried, or the caller's reference
//!   ([`Oracle::with_reference`]). Every such byte is delivered, and no
//!   byte is delivered more often than input segments carried it.
//! * **UDP datagrams.** Each flow's delivered datagrams — sent alone or
//!   unbundled from a caravan — are its input datagrams, byte for byte
//!   and in input order, minus any that were dropped.
//! * **Accounting.** The counters match what was captured, and every
//!   input packet left verbatim, left inside what was emitted (its
//!   bytes at its sequence numbers, its datagram in its flow's
//!   sequence), or is covered by a typed drop counter.
//!
//! What passes comes back as [`Delivered`]: the rebuilt streams and
//! datagram sequences, which do not depend on where aggregate or
//! caravan boundaries fell, so runs of one input at different core
//! counts compare equal.
//!
//! [`Digests`] folds the per-flow FNV-1a digest the engine once kept in
//! its datapath (length-prefixed L4 payloads, in emission order), so
//! digests pinned from the engine still hold when computed here.

use packet_express::core::pipeline::PipelineConfig;
use packet_express::sim::stats::CoreCounters;
use packet_express::wire::batchparse::parse_key;
use packet_express::wire::caravan::iter_bundle;
use packet_express::wire::ipv4::CARAVAN_TOS;
use packet_express::wire::{FlowKey, IpProtocol, Ipv4Packet, TcpSegment, UdpDatagram};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::ops::Range;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a/64 of `bytes` prefixed by their length, folded into `h`: a
/// boundary moved between two payloads changes the result even when
/// their concatenation does not.
pub fn fnv_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for chunk in [&(bytes.len() as u64).to_le_bytes()[..], bytes] {
        for &b in chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// FNV-1a summary of one flow's emitted packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowDigest {
    /// Output packets.
    pub pkts: u64,
    /// Output L4 payload bytes.
    pub bytes: u64,
    /// The part of `bytes` that left in jumbo packets: `jumbo_bytes /
    /// bytes` is the flow's byte-level conversion yield.
    pub jumbo_bytes: u64,
    /// [`fnv_extend`] over each packet's L4 payload, in emission order.
    pub fnv: u64,
}

impl Default for FlowDigest {
    fn default() -> Self {
        FlowDigest {
            pkts: 0,
            bytes: 0,
            jumbo_bytes: 0,
            fnv: FNV_OFFSET,
        }
    }
}

/// The size from which an output packet counts as jumbo — reached the
/// iMTU — for `pipe`: one more eMTU payload would not fit. The pipeline
/// model's threshold.
pub fn jumbo_at(pipe: &PipelineConfig) -> usize {
    pipe.imtu - (pipe.emtu - 40) + 1
}

/// Per-flow [`FlowDigest`]s, folded one emitted packet at a time.
/// Folding a packet of a flow already present allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digests {
    /// The digests, by the flow key of the emitted packets.
    pub flows: BTreeMap<FlowKey, FlowDigest>,
    jumbo_at: usize,
}

impl Digests {
    /// An empty fold that counts packets of `jumbo_at` bytes or more as
    /// jumbo.
    pub fn new(jumbo_at: usize) -> Self {
        Digests {
            flows: BTreeMap::new(),
            jumbo_at,
        }
    }

    /// The fold of `out`, in order.
    pub fn of(out: &[Vec<u8>], jumbo_at: usize) -> Self {
        let mut d = Digests::new(jumbo_at);
        out.iter().for_each(|pkt| d.add(pkt));
        d
    }

    /// Folds one emitted packet into its flow's digest. A packet
    /// without a flow key (not TCP or UDP over IPv4) is skipped.
    pub fn add(&mut self, pkt: &[u8]) {
        let Some((key, payload)) = flow_and_l4_payload(pkt) else {
            return;
        };
        let len = payload.len() as u64;
        let d = self.flows.entry(key).or_default();
        d.pkts += 1;
        d.bytes += len;
        if pkt.len() >= self.jumbo_at {
            d.jumbo_bytes += len;
        }
        d.fnv = fnv_extend(d.fnv, &pkt[payload]);
    }
}

/// The flow key and L4-payload range of a packet, or `None` if it has
/// no key.
fn flow_and_l4_payload(pkt: &[u8]) -> Option<(FlowKey, Range<usize>)> {
    let key = parse_key(pkt)?;
    let ip = Ipv4Packet::new_checked(pkt).ok()?;
    let l4_start = ip.header_len();
    let l4_hdr = match ip.protocol() {
        // TCP data offset lives in byte 12 of the TCP header.
        IpProtocol::Tcp => usize::from(pkt[l4_start + 12] >> 4) * 4,
        IpProtocol::Udp => 8,
        _ => return None,
    };
    Some((key, l4_start + l4_hdr..ip.total_len().min(pkt.len())))
}

/// What a packet is to the receiver behind the gateway.
enum Class<'a> {
    /// TCP payload under valid IPv4 and TCP checksums, at `seq`.
    Segment {
        key: FlowKey,
        seq: u32,
        payload: &'a [u8],
    },
    /// A UDP datagram, header included, that is neither a fragment nor
    /// a caravan.
    Datagram { key: FlowKey, dgram: &'a [u8] },
    /// A caravan: its outer addresses and the datagrams it bundles.
    Caravan {
        src: Ipv4Addr,
        dst: Ipv4Addr,
        bundle: &'a [u8],
    },
    /// Anything else. It reaches the receiver only as it came.
    Opaque,
}

fn classify(pkt: &[u8]) -> Class<'_> {
    let Ok(ip) = Ipv4Packet::new_checked(pkt) else {
        return Class::Opaque;
    };
    if ip.is_fragment() {
        return Class::Opaque;
    }
    let l4 = &pkt[ip.header_len()..ip.total_len()];
    let (src, dst) = (ip.src(), ip.dst());
    match ip.protocol() {
        IpProtocol::Tcp => {
            let Ok(seg) = TcpSegment::new_checked(l4) else {
                return Class::Opaque;
            };
            let payload = &l4[seg.header_len().min(l4.len())..];
            if payload.is_empty() || !ip.verify_checksum() || !seg.verify_checksum(src, dst) {
                return Class::Opaque;
            }
            Class::Segment {
                key: FlowKey::tcp(src, seg.src_port(), dst, seg.dst_port()),
                seq: seg.seq().0,
                payload,
            }
        }
        IpProtocol::Udp => {
            let Ok(udp) = UdpDatagram::new_checked(l4) else {
                return Class::Opaque;
            };
            let dgram = &l4[..udp.length()];
            if ip.tos() == CARAVAN_TOS {
                return Class::Caravan {
                    src,
                    dst,
                    bundle: &dgram[8..],
                };
            }
            Class::Datagram {
                key: FlowKey::udp(src, udp.src_port(), dst, udp.dst_port()),
                dgram,
            }
        }
        _ => Class::Opaque,
    }
}

/// Why a packet the engine built is not one it may emit, if it is not.
fn malformed(pkt: &[u8], imtu: usize) -> Option<&'static str> {
    let Ok(ip) = Ipv4Packet::new_checked(pkt) else {
        return Some("not a parsable IPv4 packet");
    };
    if ip.total_len() != pkt.len() {
        return Some("IPv4 total length differs from the packet's length");
    }
    if pkt.len() > imtu {
        return Some("longer than the iMTU");
    }
    if !ip.verify_checksum() {
        return Some("bad IPv4 header checksum");
    }
    let udp_ok = || {
        UdpDatagram::new_checked(ip.payload()).is_ok_and(|u| u.verify_checksum(ip.src(), ip.dst()))
    };
    match classify(pkt) {
        Class::Segment { .. } => None,
        Class::Datagram { .. } => (!udp_ok()).then_some("bad UDP checksum"),
        Class::Caravan { bundle, .. } => {
            if !udp_ok() {
                Some("bad caravan UDP checksum")
            } else if iter_bundle(bundle).any(|dg| dg.is_err()) {
                Some("caravan bundle does not split into datagrams")
            } else {
                None
            }
        }
        Class::Opaque => Some("neither a TCP segment with valid checksums nor a UDP datagram"),
    }
}

/// A transparency fault: what [`Oracle::check`] found wrong first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// A counter disagrees with the input or with what was captured.
    Counts {
        what: &'static str,
        counted: u64,
        seen: u64,
    },
    /// Emitted packet `index` is not an input packet and not a packet
    /// the engine may build.
    Malformed { index: usize, why: &'static str },
    /// A delivered TCP byte differs from the input's byte at `seq`, or
    /// no input carried a byte there.
    StreamByte { flow: FlowKey, seq: u32 },
    /// The byte at `seq` was delivered more often than input segments
    /// carried it.
    Overdelivered {
        flow: FlowKey,
        seq: u32,
        delivered: u16,
        carried: u16,
    },
    /// The input's byte at `seq` never left.
    Undelivered { flow: FlowKey, seq: u32 },
    /// The flow's `index`-th delivered datagram is none of its input
    /// datagrams still due: reordered, re-cut, altered or invented.
    Datagram { flow: FlowKey, index: usize },
    /// `lost` input packets left neither verbatim nor inside delivered
    /// output, more than the `typed_drops` the counters own up to.
    Unaccounted { lost: u64, typed_drops: u64 },
}

/// What reached the receivers of a run that passed the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered {
    /// Each TCP flow's delivered stream, from its lowest input sequence
    /// number.
    pub tcp: BTreeMap<FlowKey, Vec<u8>>,
    /// Each UDP flow's delivered datagrams, in delivery order.
    pub udp: BTreeMap<FlowKey, Vec<Vec<u8>>>,
    /// Passthroughs that carry no stream bytes or datagrams (control
    /// segments, corrupt or truncated packets), sorted.
    pub opaque: Vec<Vec<u8>>,
}

/// One TCP flow's input stream; offsets count from `origin`, the lowest
/// sequence number an input segment carried.
struct Stream {
    origin: u32,
    /// The input's byte at each offset.
    bytes: Vec<u8>,
    /// Whether the input (or the reference) put a byte at each offset.
    attested: Vec<bool>,
    /// How many input segments carried each offset.
    carried: Vec<u16>,
}

impl Stream {
    fn range(&self, seq: u32, len: usize) -> Option<Range<usize>> {
        let start = seq.wrapping_sub(self.origin) as usize;
        (start + len <= self.bytes.len()).then_some(start..start + len)
    }

    fn seq_at(&self, off: usize) -> u32 {
        self.origin.wrapping_add(off as u32)
    }
}

/// The input trace of one run, indexed for checking its output.
pub struct Oracle<'t> {
    imtu: usize,
    pkts_in: u64,
    bytes_in: u64,
    /// How many copies of each packet the input holds.
    copies: HashMap<&'t [u8], u32>,
    tcp: BTreeMap<FlowKey, Stream>,
    udp: BTreeMap<FlowKey, Vec<&'t [u8]>>,
}

impl<'t> Oracle<'t> {
    /// Indexes `input`, the trace exactly as the engine consumed it (any
    /// ingress faults applied), for a gateway whose iMTU is `imtu`.
    pub fn new(input: &'t [(FlowKey, Vec<u8>)], imtu: usize) -> Self {
        let mut copies: HashMap<&[u8], u32> = HashMap::new();
        // Each TCP flow's segments, first to find the span they cover.
        let mut segs: BTreeMap<FlowKey, Vec<(u32, &[u8])>> = BTreeMap::new();
        let mut udp: BTreeMap<FlowKey, Vec<&[u8]>> = BTreeMap::new();
        for (_, pkt) in input {
            *copies.entry(pkt).or_default() += 1;
            match classify(pkt) {
                Class::Segment { key, seq, payload } => {
                    segs.entry(key).or_default().push((seq, payload))
                }
                Class::Datagram { key, dgram } => udp.entry(key).or_default().push(dgram),
                Class::Caravan { .. } | Class::Opaque => {}
            }
        }
        let tcp = segs
            .into_iter()
            .map(|(key, segs)| {
                let first = segs[0].0;
                let rel = |seq: u32| i64::from(seq.wrapping_sub(first) as i32);
                let lo = segs.iter().map(|(s, _)| rel(*s)).min().unwrap_or(0);
                let hi = segs
                    .iter()
                    .map(|(s, p)| rel(*s) + p.len() as i64)
                    .max()
                    .unwrap_or(0);
                let len = (hi - lo) as usize;
                let mut stream = Stream {
                    origin: first.wrapping_add(lo as u32),
                    bytes: vec![0; len],
                    attested: vec![false; len],
                    carried: vec![0; len],
                };
                for (seq, payload) in segs {
                    let Some(r) = stream.range(seq, payload.len()) else {
                        unreachable!("a segment lies inside the span of its flow");
                    };
                    for (off, &b) in r.zip(payload) {
                        if !stream.attested[off] {
                            stream.attested[off] = true;
                            stream.bytes[off] = b;
                        }
                        stream.carried[off] = stream.carried[off].saturating_add(1);
                    }
                }
                (key, stream)
            })
            .collect();
        Oracle {
            imtu,
            pkts_in: input.len() as u64,
            bytes_in: input.iter().map(|(_, p)| p.len() as u64).sum(),
            copies,
            tcp,
            udp,
        }
    }

    /// Makes `bytes`, from `seq` on, flow `key`'s whole stream in place
    /// of what its input segments carried: input bytes that differ from
    /// it — an attacker's — may never be delivered, and input bytes
    /// outside it need not be.
    ///
    /// # Panics
    /// If the reference reaches past the span of the flow's input.
    pub fn with_reference(mut self, key: FlowKey, seq: u32, bytes: &[u8]) -> Self {
        let Some(stream) = self.tcp.get_mut(&key) else {
            panic!("{key:?}: no input segments");
        };
        let Some(r) = stream.range(seq, bytes.len()) else {
            panic!("{key:?}: reference reaches past the input");
        };
        stream.attested.iter_mut().for_each(|a| *a = false);
        for (off, &b) in r.zip(bytes) {
            stream.attested[off] = true;
            stream.bytes[off] = b;
        }
        self
    }

    /// Holds `out`, everything a run emitted, and the run's `totals` to
    /// the input; see the module docs for the rules. Returns what was
    /// delivered, or the first fault found.
    pub fn check(&self, out: &[Vec<u8>], totals: &CoreCounters) -> Result<Delivered, Fault> {
        let counts = [
            ("pkts_in", totals.pkts_in, self.pkts_in),
            ("bytes_in", totals.bytes_in, self.bytes_in),
            ("pkts_out", totals.pkts_out, out.len() as u64),
            (
                "bytes_out",
                totals.bytes_out,
                out.iter().map(|p| p.len() as u64).sum(),
            ),
        ];
        for (what, counted, seen) in counts {
            if counted != seen {
                return Err(Fault::Counts {
                    what,
                    counted,
                    seen,
                });
            }
        }

        // Input copies not yet matched by an emitted packet.
        let mut left = self.copies.clone();
        // Per TCP flow: each offset's first delivered byte and count,
        // and every emitted payload.
        let mut got: BTreeMap<FlowKey, (Vec<u8>, Vec<u16>)> = BTreeMap::new();
        let mut emitted: BTreeMap<FlowKey, Vec<(u32, &[u8])>> = BTreeMap::new();
        // Per UDP flow: delivered datagrams, and the next input one due.
        let mut dgrams: BTreeMap<FlowKey, (Vec<Vec<u8>>, usize, u64)> = BTreeMap::new();
        let mut opaque = Vec::new();

        for (index, pkt) in out.iter().enumerate() {
            let passthrough = match left.get_mut(&pkt[..]) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    true
                }
                _ => false,
            };
            if !passthrough {
                if let Some(why) = malformed(pkt, self.imtu) {
                    return Err(Fault::Malformed { index, why });
                }
            }
            match classify(pkt) {
                Class::Segment { key, seq, payload } => {
                    self.deliver_bytes(&mut got, key, seq, payload)?;
                    emitted.entry(key).or_default().push((seq, payload));
                }
                Class::Datagram { key, dgram } => self.deliver_dgram(&mut dgrams, key, dgram)?,
                // A caravan that came in is forwarded as it came.
                Class::Caravan { .. } if passthrough => opaque.push(pkt.clone()),
                Class::Caravan { src, dst, bundle } => {
                    for dg in iter_bundle(bundle).flatten() {
                        let sport = u16::from_be_bytes([dg[0], dg[1]]);
                        let dport = u16::from_be_bytes([dg[2], dg[3]]);
                        let key = FlowKey::udp(src, sport, dst, dport);
                        self.deliver_dgram(&mut dgrams, key, dg)?;
                    }
                }
                Class::Opaque => opaque.push(pkt.clone()),
            }
        }

        // Every input byte delivered, none more often than carried.
        for (key, stream) in &self.tcp {
            let delivered = got.get(key).map(|(_, n)| &n[..]);
            for off in 0..stream.bytes.len() {
                let n = delivered.map_or(0, |d| d[off]);
                if stream.attested[off] && n == 0 {
                    let seq = stream.seq_at(off);
                    return Err(Fault::Undelivered { flow: *key, seq });
                }
                if n > stream.carried[off] {
                    return Err(Fault::Overdelivered {
                        flow: *key,
                        seq: stream.seq_at(off),
                        delivered: n,
                        carried: stream.carried[off],
                    });
                }
            }
        }

        // Accounting: what did not leave verbatim must have left inside
        // delivered output, or be a typed drop.
        let mut lost = 0u64;
        for (pkt, n) in &left {
            if *n == 0 {
                continue;
            }
            let kept = match classify(pkt) {
                // Checked one by one against the flow's sequence below.
                Class::Datagram { .. } => true,
                Class::Segment { key, seq, payload } => {
                    let stream = &self.tcp[&key];
                    let delivered = got.get(&key).map(|(_, n)| &n[..]);
                    // Usually the bytes are the stream's, and delivered;
                    // otherwise (a replay that left behind the stream's
                    // own bytes) some emitted payload holds each byte.
                    let in_stream = stream.range(seq, payload.len()).is_some_and(|r| {
                        r.zip(payload).all(|(off, b)| {
                            stream.attested[off]
                                && stream.bytes[off] == *b
                                && delivered.is_some_and(|d| d[off] > 0)
                        })
                    });
                    let spans = emitted.get(&key).map_or(&[][..], |v| &v[..]);
                    in_stream
                        || payload.iter().enumerate().all(|(i, b)| {
                            let at = seq.wrapping_add(i as u32);
                            spans
                                .iter()
                                .any(|(s, p)| p.get(at.wrapping_sub(*s) as usize) == Some(b))
                        })
                }
                Class::Caravan { .. } | Class::Opaque => false,
            };
            if !kept {
                lost += u64::from(*n);
            }
        }
        for (key, expect) in &self.udp {
            let (due, skipped) = dgrams.get(key).map_or((0, 0), |d| (d.1, d.2));
            lost += skipped + (expect.len() - due) as u64;
        }
        let typed_drops = totals.dropped_inconsistent_overlap
            + totals.dropped_overlap_evasion
            + totals.dropped_malformed
            + totals.backpressure_drops;
        if lost > typed_drops {
            return Err(Fault::Unaccounted { lost, typed_drops });
        }

        opaque.sort_unstable();
        Ok(Delivered {
            tcp: got.into_iter().map(|(k, (bytes, _))| (k, bytes)).collect(),
            udp: dgrams.into_iter().map(|(k, (d, ..))| (k, d)).collect(),
            opaque,
        })
    }

    /// [`check`](Self::check), panicking with `context` and the fault.
    pub fn assert(&self, out: &[Vec<u8>], totals: &CoreCounters, context: &str) -> Delivered {
        self.check(out, totals)
            .unwrap_or_else(|fault| panic!("{context}: transparency fault {fault:?}"))
    }

    /// One delivered TCP payload: the first byte at each offset must be
    /// the input's.
    fn deliver_bytes(
        &self,
        got: &mut BTreeMap<FlowKey, (Vec<u8>, Vec<u16>)>,
        key: FlowKey,
        seq: u32,
        payload: &[u8],
    ) -> Result<(), Fault> {
        let r = self
            .tcp
            .get(&key)
            .and_then(|s| Some((s, s.range(seq, payload.len())?)));
        let Some((stream, r)) = r else {
            return Err(Fault::StreamByte { flow: key, seq });
        };
        let len = stream.bytes.len();
        let (bytes, n) = got
            .entry(key)
            .or_insert_with(|| (vec![0; len], vec![0; len]));
        for (off, &b) in r.zip(payload) {
            if n[off] == 0 {
                if !stream.attested[off] || stream.bytes[off] != b {
                    let seq = stream.seq_at(off);
                    return Err(Fault::StreamByte { flow: key, seq });
                }
                bytes[off] = b;
            }
            n[off] = n[off].saturating_add(1);
        }
        Ok(())
    }

    /// One delivered datagram: it must be one of the flow's input
    /// datagrams still due; those it passes over were dropped.
    fn deliver_dgram(
        &self,
        dgrams: &mut BTreeMap<FlowKey, (Vec<Vec<u8>>, usize, u64)>,
        key: FlowKey,
        dgram: &[u8],
    ) -> Result<(), Fault> {
        let (delivered, due, skipped) = dgrams.entry(key).or_default();
        let expect = self.udp.get(&key).map_or(&[][..], |v| &v[..]);
        let Some(at) = expect[*due..].iter().position(|d| *d == dgram) else {
            let index = delivered.len();
            return Err(Fault::Datagram { flow: key, index });
        };
        *skipped += at as u64;
        *due += at + 1;
        delivered.push(dgram.to_vec());
        Ok(())
    }
}
