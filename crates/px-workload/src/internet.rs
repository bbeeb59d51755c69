//! A seeded, wall-clock-free internet-traffic model.
//!
//! §2.2: "the majority of flows in the WAN are short-lived, which
//! implies that only a fraction of the flows require very high
//! bandwidth". The flow-scale experiments need that traffic shape at
//! gateway scale — millions of concurrent flows, almost all of them
//! mice, with a heavy-tailed elephant minority carrying most of the
//! bytes — and they need it *streamed*: a million-flow trace does not
//! fit in memory, so the model emits one byte-accurate TCP segment at a
//! time from a bounded ring of live flows.
//!
//! Design:
//!
//! * **Sizes** — a flow is a mouse (uniform `1..=mouse_pkts_max`
//!   packets, below any sane elephant threshold) with probability
//!   `mice_frac`, else an elephant drawn from a bounded Pareto on
//!   packets (the discrete Zipf-tail analogue standard for WAN flow
//!   sizes).
//! * **Arrivals** — the ring is visited round-robin; each visit emits
//!   one geometric on/off burst (mean [`InternetConfig::mean_burst`],
//!   the residue of sender TSO bursts after ToR multiplexing), so a
//!   flow's packets arrive in contiguous runs separated by every other
//!   live flow's traffic — the churny interleaving a real gateway sees.
//! * **Churn** — a flow that exhausts its size completes; with churn
//!   on, a fresh flow (new identity, fresh size draw) replaces it, so
//!   the live population holds at `n_flows` while identities turn over
//!   Poisson-like. With churn off the flow re-arms in place (same
//!   5-tuple, sequence space continues), freezing the identity set —
//!   what the soak's steady-state allocation window needs.
//! * **Class encoding** — elephants source from `198.18.0.0/16`, mice
//!   from `198.19.0.0/16` ([`is_elephant`] is a pure function of the
//!   flow key), so harnesses can audit per-class behaviour without a
//!   side table.
//!
//! Everything is driven by one [`SmallRng`]: same seed, same packet
//! stream, byte for byte. No wall clock anywhere.

use px_wire::ipv4::Ipv4Repr;
use px_wire::tcp::{SeqNum, TcpFlags, TcpRepr};
use px_wire::{FlowKey, IpProtocol};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// Traffic-model configuration.
#[derive(Debug, Clone, Copy)]
pub struct InternetConfig {
    /// RNG seed — the stream is a pure function of this.
    pub seed: u64,
    /// Concurrent live flows (the ring size). Held constant: completed
    /// flows are replaced (churn on) or re-armed (churn off).
    pub n_flows: usize,
    /// Fraction of flows that are mice.
    pub mice_frac: f64,
    /// Mouse size cap in packets (uniform `1..=max`). Keep below the
    /// steering threshold so mice classify as mice end to end.
    pub mouse_pkts_max: u64,
    /// Elephant-size bounded-Pareto tail index (1.1–1.3 is typical for
    /// WAN flow sizes).
    pub elephant_alpha: f64,
    /// Smallest elephant, packets.
    pub elephant_min_pkts: u64,
    /// Largest elephant, packets.
    pub elephant_max_pkts: u64,
    /// Mean per-visit burst length, packets (geometric, capped).
    pub mean_burst: usize,
    /// Hard per-visit burst cap, packets.
    pub burst_cap: usize,
    /// External MTU: every emitted segment is this many wire bytes.
    pub emtu: usize,
    /// Whether completed flows are replaced by fresh identities.
    pub churn: bool,
}

impl Default for InternetConfig {
    fn default() -> Self {
        InternetConfig {
            seed: 0x01D7_E4E7,
            n_flows: 10_000,
            mice_frac: 0.9,
            mouse_pkts_max: 7,
            elephant_alpha: 1.2,
            elephant_min_pkts: 240,
            elephant_max_pkts: 24_576,
            mean_burst: 32,
            burst_cap: 64,
            emtu: px_wire::LEGACY_MTU,
            churn: true,
        }
    }
}

impl InternetConfig {
    /// The default mix at a given live-flow count and seed.
    pub fn sized(n_flows: usize, seed: u64) -> Self {
        InternetConfig {
            n_flows,
            seed,
            ..Default::default()
        }
    }
}

/// Whether a model-generated flow key belongs to an elephant — pure
/// from the class-encoding source prefix (`198.18/16` elephants,
/// `198.19/16` mice).
pub fn is_elephant(key: &FlowKey) -> bool {
    let o = key.src_ip.octets();
    o[0] == 198 && o[1] == 18
}

/// One live flow's emission state.
#[derive(Debug)]
struct LiveFlow {
    key: FlowKey,
    next_seq: u32,
    next_ip_id: u16,
    /// Total packets this flow was assigned at birth.
    size_pkts: u64,
    /// Packets still to emit.
    remaining: u64,
    /// Whether this identity has emitted at least one packet (cleared
    /// when churn replaces the identity; kept across re-arms).
    visited: bool,
}

/// The streaming internet-traffic model. Create with
/// [`InternetModel::new`], pull packets with
/// [`next_pkt`](InternetModel::next_pkt) (or materialise a bounded
/// prefix with [`generate_trace`](InternetModel::generate_trace)).
#[derive(Debug)]
pub struct InternetModel {
    cfg: InternetConfig,
    flows: Vec<LiveFlow>,
    rng: SmallRng,
    /// Round-robin visit cursor.
    cursor: usize,
    /// Packets left in the current visit's burst.
    burst_left: u64,
    /// When set, the cursor skips identities that have never emitted —
    /// steady-state harness windows draw only from warmed flows.
    warm_only: bool,
    /// Live identities with `visited == true` (kept incrementally; the
    /// ring is too large to scan per burst).
    warm: usize,
    /// Next fresh flow identity.
    next_id: u64,
    /// Packets emitted so far.
    pub pkts_emitted: u64,
    /// Wire bytes emitted so far.
    pub bytes_emitted: u64,
    /// Flows ever started (initial ring included).
    pub flows_started: u64,
    /// Flows that emitted their full assigned size.
    pub flows_completed: u64,
    /// Sum of assigned sizes over *completed* flows, packets.
    pub completed_pkts: u64,
}

impl InternetModel {
    /// Builds the model and populates the initial ring of live flows.
    pub fn new(cfg: InternetConfig) -> Self {
        assert!(cfg.n_flows > 0, "need at least one flow");
        assert!(cfg.emtu >= 80, "eMTU too small for a TCP segment");
        let mut m = InternetModel {
            cfg,
            flows: Vec::with_capacity(cfg.n_flows),
            rng: SmallRng::seed_from_u64(cfg.seed),
            cursor: 0,
            burst_left: 0,
            warm_only: false,
            warm: 0,
            next_id: 0,
            pkts_emitted: 0,
            bytes_emitted: 0,
            flows_started: 0,
            flows_completed: 0,
            completed_pkts: 0,
        };
        for _ in 0..cfg.n_flows {
            let f = m.fresh_flow();
            m.flows.push(f);
        }
        m
    }

    /// Live flows (always the configured ring size).
    pub fn flows_live(&self) -> usize {
        self.flows.len()
    }

    /// Switches identity churn on or off mid-stream (off freezes the
    /// 5-tuple population: completed flows re-arm in place).
    pub fn set_churn(&mut self, churn: bool) {
        self.cfg.churn = churn;
    }

    /// Restricts emission to identities that have already emitted at
    /// least once. Steady-state measurement windows set this so every
    /// packet they draw belongs to a flow the datapath has warm state
    /// for. Ignored while no identity is warm yet.
    pub fn set_warm_only(&mut self, warm_only: bool) {
        self.warm_only = warm_only;
    }

    /// Live identities that have emitted at least one packet.
    pub fn visited_flows(&self) -> usize {
        self.warm
    }

    /// Packets of assigned flow size already emitted by the live ring —
    /// `pkts_emitted == completed_pkts + live_progress_pkts()` is the
    /// model's conservation invariant.
    pub fn live_progress_pkts(&self) -> u64 {
        self.flows.iter().map(|f| f.size_pkts - f.remaining).sum()
    }

    /// Samples a flow size in packets: mouse or bounded-Pareto elephant.
    fn sample_size(&mut self) -> (bool, u64) {
        let elephant = self.rng.gen::<f64>() >= self.cfg.mice_frac;
        (elephant, self.sample_size_of(elephant))
    }

    /// Samples a size for a known class — re-arms draw this so a frozen
    /// identity keeps the behaviour its source prefix advertises.
    fn sample_size_of(&mut self, elephant: bool) -> u64 {
        if !elephant {
            self.rng.gen_range(1..=self.cfg.mouse_pkts_max)
        } else {
            // Inverse-CDF sampling of the bounded Pareto on packets.
            let (alpha, l, h) = (
                self.cfg.elephant_alpha,
                self.cfg.elephant_min_pkts as f64,
                self.cfg.elephant_max_pkts as f64,
            );
            let u: f64 = self.rng.gen_range(0.0..1.0);
            let la = l.powf(alpha);
            let ha = h.powf(alpha);
            let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha);
            (x as u64).clamp(self.cfg.elephant_min_pkts, self.cfg.elephant_max_pkts)
        }
    }

    /// Mints a brand-new flow: fresh identity, fresh size draw. The
    /// class is encoded in the source prefix; 32 bits of identity are
    /// spread over the low source-IP half and the source port, so the
    /// model can churn through billions of identities collision-free.
    fn fresh_flow(&mut self) -> LiveFlow {
        let (elephant, size_pkts) = self.sample_size();
        let id = self.next_id;
        self.next_id += 1;
        self.flows_started += 1;
        let class_octet = if elephant { 18 } else { 19 };
        let src = Ipv4Addr::new(
            198,
            class_octet,
            ((id >> 8) & 0xFF) as u8,
            (id & 0xFF) as u8,
        );
        let src_port = 1024 + ((id >> 16) % 60_000) as u16;
        let dst = Ipv4Addr::new(10, 99, ((id >> 24) & 0xFF) as u8, 1);
        LiveFlow {
            key: FlowKey::tcp(src, src_port, dst, 5201),
            next_seq: (id as u32).wrapping_mul(1_000_003),
            next_ip_id: id as u16,
            size_pkts,
            remaining: size_pkts,
            visited: false,
        }
    }

    // Workload generation, not datapath: payload sizes are computed
    // from the configured eMTU, so the builders cannot fail; a panic
    // here is a harness bug, not a gateway robustness issue.
    #[allow(clippy::expect_used)]
    fn build_pkt(&mut self, idx: usize) -> Vec<u8> {
        let payload_len = self.cfg.emtu - 40;
        let f = &mut self.flows[idx];
        let mut payload = vec![0u8; payload_len];
        px_tcp::fill_pattern(u64::from(f.next_seq), &mut payload);
        let repr = TcpRepr {
            src_port: f.key.src_port,
            dst_port: f.key.dst_port,
            seq: SeqNum(f.next_seq),
            ack: SeqNum(1),
            flags: TcpFlags::ACK,
            window: 8192,
            options: vec![],
        };
        let seg = repr.build_segment(f.key.src_ip, f.key.dst_ip, &payload);
        f.next_seq = f.next_seq.wrapping_add(payload_len as u32);
        let mut ip = Ipv4Repr::new(f.key.src_ip, f.key.dst_ip, IpProtocol::Tcp, seg.len());
        ip.ident = f.next_ip_id;
        f.next_ip_id = f.next_ip_id.wrapping_add(1);
        ip.build_packet(&seg).expect("fits")
    }

    /// Emits the next packet in global arrival order: a byte-accurate
    /// eMTU TCP segment with valid checksums and per-flow sequence
    /// continuity. Never returns `None`-like sentinels — the stream is
    /// infinite by construction (the ring refills itself).
    pub fn next_pkt(&mut self) -> (FlowKey, Vec<u8>) {
        if self.burst_left == 0 {
            // Advance to the next live flow and open a new burst. In
            // warm-only mode, skip never-visited identities (unless no
            // identity is warm yet, in which case the restriction would
            // deadlock and is ignored).
            let restrict = self.warm_only && self.warm > 0;
            loop {
                self.cursor = (self.cursor + 1) % self.flows.len();
                if !restrict || self.flows[self.cursor].visited {
                    break;
                }
            }
            let p = 1.0 / self.cfg.mean_burst as f64;
            let mut run = 1u64;
            while self.rng.gen::<f64>() > p && run < self.cfg.burst_cap as u64 {
                run += 1;
            }
            self.burst_left = run.min(self.flows[self.cursor].remaining);
        }
        let idx = self.cursor;
        let pkt = self.build_pkt(idx);
        let key = self.flows[idx].key;
        if !self.flows[idx].visited {
            self.flows[idx].visited = true;
            self.warm += 1;
        }
        self.burst_left -= 1;
        self.pkts_emitted += 1;
        self.bytes_emitted += pkt.len() as u64;
        self.flows[idx].remaining -= 1;
        if self.flows[idx].remaining == 0 {
            self.flows_completed += 1;
            self.completed_pkts += self.flows[idx].size_pkts;
            self.burst_left = 0;
            if self.cfg.churn {
                // The dying identity was warm (it just emitted); its
                // replacement starts cold.
                self.warm -= 1;
                self.flows[idx] = self.fresh_flow();
            } else {
                // Frozen population: re-arm the same 5-tuple with a
                // fresh size draw of the SAME class (the source prefix
                // advertises it), sequence space carrying on.
                let elephant = is_elephant(&self.flows[idx].key);
                let size = self.sample_size_of(elephant);
                self.flows_started += 1;
                let f = &mut self.flows[idx];
                f.size_pkts = size;
                f.remaining = size;
            }
        }
        (key, pkt)
    }

    /// Materialises the next `n` packets — how bounded harnesses (the
    /// chaos churn dimension) hand the stream to
    /// `run_engine_on_trace`-style drivers. The soak never calls this
    /// at full scale; it streams [`next_pkt`](Self::next_pkt) instead.
    pub fn generate_trace(&mut self, n: usize) -> Vec<(FlowKey, Vec<u8>)> {
        (0..n).map(|_| self.next_pkt()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    #[test]
    fn fixed_seed_prefix_is_bit_identical() {
        // Two independently built models with one seed agree byte for
        // byte; a pinned digest over the first 256 packets guards the
        // stream against accidental generator drift (a new rand shim,
        // a reordered rng draw, a changed header field).
        let mut a = InternetModel::new(InternetConfig::sized(512, 42));
        let mut b = InternetModel::new(InternetConfig::sized(512, 42));
        let mut h = FNV_OFFSET;
        for _ in 0..256 {
            let (ka, pa) = a.next_pkt();
            let (kb, pb) = b.next_pkt();
            assert_eq!(ka, kb);
            assert_eq!(pa, pb);
            h = fnv(h, &pa);
        }
        assert_eq!(h, GOLDEN_256, "generator stream drifted");
    }

    /// FNV-1a over the first 256 packets of `sized(512, 42)`. Pinned:
    /// regenerate only for a *deliberate* model change.
    const GOLDEN_256: u64 = 7_012_238_403_339_163_010;

    #[test]
    fn packets_are_byte_accurate_and_class_encoded() {
        let mut m = InternetModel::new(InternetConfig::sized(256, 7));
        for _ in 0..2_000 {
            let (key, pkt) = m.next_pkt();
            assert_eq!(pkt.len(), 1500);
            let ip = px_wire::ipv4::Ipv4Packet::new_checked(&pkt[..]).unwrap();
            assert!(ip.verify_checksum());
            assert_eq!(px_wire::batchparse::parse_key(&pkt), Some(key));
            let o = key.src_ip.octets();
            assert_eq!(o[0], 198);
            assert!(o[1] == 18 || o[1] == 19, "class octet {}", o[1]);
            assert_eq!(is_elephant(&key), o[1] == 18);
        }
    }

    #[test]
    fn zipf_tail_is_within_the_calibrated_band() {
        // Sample the size distribution directly (the generator's own
        // draw path) and check the WAN shape: ~mice_frac of flows are
        // mice, and the elephant tail is heavy — the top decile of
        // flows carries the clear majority of packets.
        let mut m = InternetModel::new(InternetConfig::sized(4, 11));
        let sizes: Vec<u64> = (0..20_000).map(|_| m.sample_size().1).collect();
        let mice = sizes.iter().filter(|&&s| s <= 7).count() as f64 / sizes.len() as f64;
        assert!((mice - 0.9).abs() < 0.02, "mice fraction {mice}");
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let total: u64 = sorted.iter().sum();
        let top: u64 = sorted.iter().rev().take(sorted.len() / 10).sum();
        let share = top as f64 / total as f64;
        assert!(
            (0.80..=0.999).contains(&share),
            "top-decile packet share {share}"
        );
        // Elephant sizes respect the configured bounds.
        assert!(sizes.iter().all(|&s| s <= 7 || (240..=24_576).contains(&s)));
    }

    #[test]
    fn emission_conserves_assigned_flow_sizes() {
        let mut m = InternetModel::new(InternetConfig::sized(64, 3));
        for _ in 0..50_000 {
            m.next_pkt();
        }
        // Every emitted packet is accounted to exactly one flow, and
        // every flow's progress never exceeds its assigned size.
        assert_eq!(m.pkts_emitted, 50_000);
        assert_eq!(m.pkts_emitted, m.completed_pkts + m.live_progress_pkts());
        assert_eq!(m.bytes_emitted, 50_000 * 1500);
        assert!(m.flows_completed > 0, "churn never turned over a flow");
        assert_eq!(m.flows_live(), 64);
        // Identity turnover under churn: completed flows left the ring.
        assert_eq!(m.flows_started, 64 + m.flows_completed);
    }

    #[test]
    fn frozen_population_keeps_its_identities() {
        let mut m = InternetModel::new(InternetConfig::sized(32, 5));
        m.set_churn(false);
        let keys_before: std::collections::BTreeSet<FlowKey> =
            m.flows.iter().map(|f| f.key).collect();
        for _ in 0..20_000 {
            m.next_pkt();
        }
        let keys_after: std::collections::BTreeSet<FlowKey> =
            m.flows.iter().map(|f| f.key).collect();
        assert_eq!(keys_before, keys_after, "churn-off must freeze the ring");
        assert!(m.flows_completed > 0, "re-armed flows still complete");
        assert_eq!(m.pkts_emitted, m.completed_pkts + m.live_progress_pkts());
    }
}
