//! The attack matrix — the adversarial-robustness contract of the PXGW
//! datapath, proven over seeded attack schedules (DESIGN.md §16).
//!
//! Where `chaos_matrix` models an *unreliable* network, this matrix
//! models a *hostile* one: an on-path injector replaying TCP ranges
//! with altered bytes, overlapping-segment smuggling, malformed caravan
//! bundles with over- and under-claiming length fields, and an off-path
//! spoofer forging F-PMTUD reports. Every attack schedule is a
//! pure function of its seed ([`px_faults::attack`]), so each one
//! replays bit-identically at 1, 2, 4, and 8 cores. Per seed × core
//! count the gates are:
//!
//! * **zero panics, zero leaked pool buffers** — the dev-profile drain
//!   asserts fire on any engine that forgets a buffer mid-attack;
//! * **zero injected bytes** — the transparency oracle
//!   (`tests/support/oracle.rs`), given each flow's attacker-free
//!   stream as its reference, rebuilds what a correct TCP receiver
//!   reassembles from the emitted packets (the first byte at each
//!   sequence number: below-window data never overwrites delivered
//!   bytes) and demands it equal that reference exactly. Attacker bytes
//!   may never surface inside an attested aggregate, and may never be
//!   the first write at any stream position;
//! * **typed accounting** — injections surface as
//!   `dropped_inconsistent_overlap`, never as silent stream damage: the
//!   oracle counts every attacker packet that left neither verbatim nor
//!   inside the delivered stream against the typed drop counters;
//! * **stream parity** — the delivered streams are identical across all
//!   core counts.
//!
//! A further TCP case sends flows whose flow-table hashes all share one
//! home bucket (`flow_hash` is unkeyed, so a sender that picks its
//! source addresses can find them) through the engine, and holds them
//! to the same oracle.
//!
//! Seed count: `ATTACK_SEEDS` (default 10 in-tree; CI runs 5000).

mod support;

use packet_express::core::caravan_gw::{CaravanConfig, CaravanEngine};
use packet_express::core::engine::{run_engine_on_trace, EngineConfig, EngineMode, EngineReport};
use packet_express::core::flowtable::flow_hash;
use packet_express::core::pipeline::{PipelineConfig, SystemVariant, WorkloadKind};
use packet_express::core::pmtud_client::{PmtudClient, ProberConfig, Verdict, PMTU_FLOOR};
use packet_express::faults::attack::{self, SpoofReport, TcpAttackTrace, SEG_PAYLOAD};
use packet_express::wire::fpmtud::{answer_probe, report_payload, FPMTUD_PORT};
use packet_express::wire::ipv4::{Ipv4Packet, Ipv4Repr, CARAVAN_TOS};
use packet_express::wire::pool::PacketSink;
use packet_express::wire::tcp::{SeqNum, TcpFlags, TcpRepr};
use packet_express::wire::udp::UdpDatagram;
use packet_express::wire::{FlowKey, IpProtocol, PacketBuf, UdpRepr};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;
use support::oracle::{Delivered, Oracle};

/// A sink that copies each emission and hands the buffer back for
/// recycling, so `pool_stats().outstanding()` measures true leaks rather than
/// buffers the sink consumed.
struct RecycleSink(Vec<Vec<u8>>);

impl PacketSink for RecycleSink {
    fn accept(&mut self, buf: PacketBuf) -> Option<PacketBuf> {
        self.0.push(buf.as_slice().to_vec());
        Some(buf)
    }
}

const CORE_COUNTS: [usize; 4] = [1, 2, 4, 8];
const FLOWS: usize = 6;
const SEGS_PER_FLOW: usize = 12;

fn seed_count() -> u64 {
    std::env::var("ATTACK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10)
}

fn attacked_run(trace: Vec<(FlowKey, Vec<u8>)>, cores: usize, seed: u64) -> EngineReport {
    let mut pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, cores);
    pipe.seed = 0xA77A_C4ED ^ seed;
    pipe.n_flows = FLOWS;
    let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
    cfg.capture_output = true;
    run_engine_on_trace(cfg, trace)
}

/// The Fig. 5 iMTU every run of this matrix uses.
const IMTU: usize = 9000;

/// The oracle for `input`, an attack trace's packets or the clean
/// schedule of the same seed, with each flow's attacker-free stream as
/// its reference.
fn attack_oracle<'t>(
    input: &'t [(FlowKey, Vec<u8>)],
    trace: &TcpAttackTrace,
    seed: u64,
) -> Oracle<'t> {
    let len = (trace.segs_per_flow * SEG_PAYLOAD) as u64;
    (0..FLOWS).fold(Oracle::new(input, IMTU), |oracle, f| {
        let stream: Vec<u8> = (0..len)
            .map(|off| trace.oracle_byte(seed, f, off))
            .collect();
        let (key, isn) = (trace.flow_key(seed, f), trace.flow_isn(seed, f));
        oracle.with_reference(key, isn, &stream)
    })
}

/// The oracle's verdict on one run, which must also have emitted only
/// TCP segments with valid checksums (the trace holds nothing else).
fn delivered(oracle: &Oracle<'_>, r: &EngineReport, context: &str) -> Delivered {
    let got = oracle.assert(&r.captured_output, &r.totals, context);
    assert!(
        got.udp.is_empty() && got.opaque.is_empty(),
        "{context}: non-TCP or corrupt output"
    );
    got
}

/// The TCP leg: injection replays, overlap stabs, duplicates, and
/// reordering against the merge engine, across seeds and core counts.
#[test]
fn tcp_injection_never_reaches_the_receiver() {
    let seeds = seed_count();
    let mut inconsistent_drops = 0u64;
    let mut dup_attacks = 0u64;
    for seed in 0..seeds {
        let trace = attack::tcp_attack_trace(seed, FLOWS, SEGS_PER_FLOW);
        assert!(
            trace.attack_pkts > 0,
            "seed {seed}: generator sent no attacks"
        );
        dup_attacks += trace.benign_dups;
        let oracle = attack_oracle(&trace.pkts, &trace, seed);
        let mut reference: Option<Delivered> = None;
        for cores in CORE_COUNTS {
            let r = attacked_run(trace.pkts.clone(), cores, seed);
            let context = format!(
                "seed {seed} cores {cores} (attacks {}, drops {})",
                trace.attack_pkts, r.totals.dropped_inconsistent_overlap
            );
            let got = delivered(&oracle, &r, &context);
            let want = reference.get_or_insert_with(|| got.clone());
            assert!(got == *want, "{context}: streams differ across core counts");
            assert_eq!(
                r.totals.backpressure_drops, 0,
                "seed {seed} cores {cores}: attack forced packet loss"
            );
            inconsistent_drops += r.totals.dropped_inconsistent_overlap;
        }
    }
    // The matrix must exercise the machinery it certifies.
    assert!(
        inconsistent_drops > 0,
        "no injection was ever detected as an inconsistent overlap"
    );
    assert!(dup_attacks > 0, "no duplicate replays generated");
}

/// A clean (attack-free) reordered trace must still merge — and match
/// the same oracle — pinning that hardening did not cost correctness.
#[test]
fn clean_trace_still_matches_oracle_at_every_core_count() {
    let trace = attack::tcp_clean_trace(99, FLOWS, SEGS_PER_FLOW);
    let attack_view = attack::tcp_attack_trace(99, FLOWS, SEGS_PER_FLOW);
    let oracle = attack_oracle(&trace, &attack_view, 99);
    for cores in CORE_COUNTS {
        let r = attacked_run(trace.clone(), cores, 99);
        delivered(&oracle, &r, &format!("{cores} cores"));
        assert_eq!(r.totals.dropped_inconsistent_overlap, 0);
        assert_eq!(r.totals.dropped_overlap_evasion, 0);
    }
}

/// Flows whose flow hashes share the low 17 bits — one home bucket in
/// the 2^17-bucket index of a Fig. 5 engine's 64 K-entry table, and in
/// any smaller one — each sending `COLLIDING_SEGS` in-order eMTU
/// segments, round-robin, so every lookup walks the probe run. The
/// engine must stay transparent and account for every packet at every
/// core count; a colliding population costs lookups, never bytes.
#[test]
fn colliding_flows_stay_transparent_at_every_core_count() {
    const COLLIDING_FLOWS: usize = 32;
    const COLLIDING_SEGS: usize = 12;
    let keys = support::colliding_keys(17, COLLIDING_FLOWS);
    assert!(keys.iter().all(|k| flow_hash(k) & 0x1_FFFF == 0x1_FFFF));
    let mut trace = Vec::with_capacity(COLLIDING_FLOWS * COLLIDING_SEGS);
    for seg in 0..COLLIDING_SEGS {
        for (f, key) in keys.iter().enumerate() {
            let off = seg * SEG_PAYLOAD;
            let payload: Vec<u8> = (off..off + SEG_PAYLOAD)
                .map(|i| (i as u8) ^ (f as u8))
                .collect();
            let tcp = TcpRepr {
                src_port: key.src_port,
                dst_port: key.dst_port,
                seq: SeqNum((f as u32) << 24).add(off),
                ack: SeqNum(1),
                flags: TcpFlags::ACK,
                window: 8192,
                options: vec![],
            }
            .build_segment(key.src_ip, key.dst_ip, &payload);
            let ip = Ipv4Repr::new(key.src_ip, key.dst_ip, IpProtocol::Tcp, tcp.len());
            trace.push((*key, ip.build_packet(&tcp).expect("eMTU segment fits")));
        }
    }
    let oracle = Oracle::new(&trace, IMTU);
    let mut reference: Option<Delivered> = None;
    for cores in CORE_COUNTS {
        let r = attacked_run(trace.clone(), cores, 0);
        let context = format!("{cores} cores");
        let got = delivered(&oracle, &r, &context);
        assert_eq!(r.totals.pkts_in, trace.len() as u64, "{context}");
        assert_eq!(r.totals.backpressure_drops, 0, "{context}");
        assert_eq!(r.totals.dropped_inconsistent_overlap, 0, "{context}");
        assert!(r.totals.jumbo_out_inband > 0, "{context}: nothing merged");
        let want = reference.get_or_insert_with(|| got.clone());
        assert!(got == *want, "{context}: streams differ across core counts");
    }
}

/// The caravan leg: seeded malformed/over-claiming/truncated bundles
/// against the outbound unpacker. Valid bundles unbundle to exactly
/// their inner datagrams; invalid ones drop whole as typed malformed
/// counts; nothing panics and nothing leaks.
#[test]
fn caravan_unpacker_survives_malformed_bundles() {
    use std::net::Ipv4Addr;
    let src = Ipv4Addr::new(10, 99, 0, 1);
    let dst = Ipv4Addr::new(198, 51, 0, 7);
    for seed in 0..seed_count() {
        let bundles = attack::caravan_attack_bundles(seed, 200);
        let mut eng = CaravanEngine::new(CaravanConfig::default());
        let mut valid_inner = 0u64;
        let mut invalid = 0u64;
        for b in &bundles {
            let dg = UdpRepr {
                src_port: 9099,
                dst_port: 9099,
            }
            .build_datagram(src, dst, &b.bytes)
            .expect("bundle fits outer UDP");
            let mut ip = Ipv4Repr::new(src, dst, IpProtocol::Udp, dg.len());
            ip.tos = CARAVAN_TOS;
            let pkt = ip.build_packet(&dg).expect("bundle fits IP");
            let mut sink = RecycleSink(Vec::new());
            eng.push_outbound_into(&pkt, &mut sink);
            if b.valid {
                assert_eq!(
                    sink.0.len(),
                    b.inner_count,
                    "seed {seed}: valid bundle mis-unbundled"
                );
                valid_inner += b.inner_count as u64;
            } else {
                assert!(
                    sink.0.is_empty(),
                    "seed {seed}: malformed bundle leaked datagrams"
                );
                invalid += 1;
            }
        }
        assert_eq!(eng.stats.dropped_malformed, invalid);
        assert_eq!(eng.stats.inner_out, valid_inner);
        assert_eq!(eng.pool_stats().outstanding(), 0, "seed {seed}: pool leak");
        assert!(
            valid_inner > 0 && invalid > 0,
            "seed {seed}: degenerate mix"
        );
    }
}

/// A report datagram from `from` to `to` carrying `payload`.
fn report_pkt(from: Ipv4Addr, to: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
    let dg = UdpRepr {
        src_port: FPMTUD_PORT,
        dst_port: FPMTUD_PORT,
    }
    .build_datagram(from, to, payload)
    .expect("report fits UDP");
    Ipv4Repr::new(from, to, IpProtocol::Udp, dg.len())
        .build_packet(&dg)
        .expect("report fits IP")
}

/// The daemon at the probe's destination answering it with `sizes`.
fn answer(probe: &[u8], sizes: &[usize]) -> Vec<u8> {
    let ip = Ipv4Packet::new_checked(probe).expect("probe parses");
    let udp = UdpDatagram::new_checked(ip.payload()).expect("probe parses");
    let report = answer_probe(udp.payload(), sizes).expect("a probe");
    report_pkt(ip.dst(), ip.src(), &report)
}

/// The F-PMTUD leg: off-path spoof streams, as packets, against the
/// prober the gateway ships. No forged report moves an estimate, and an
/// estimate never leaves [floor, probe size]; genuine reports still land
/// during and after the storm, and attested-but-absurd shrink claims
/// clamp at the floor and walk down half a step at a time.
#[test]
fn pmtud_guard_holds_the_floor_under_spoof_streams() {
    const GW: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const PROBE: usize = 9000;
    let dsts: Vec<Ipv4Addr> = (1..=4).map(|i| Ipv4Addr::new(198, 51, 100, i)).collect();
    for seed in 0..seed_count() {
        let mut c = PmtudClient::new(ProberConfig::new(GW, PROBE));
        let mut rng = SmallRng::seed_from_u64(0x9A4D ^ seed);
        let in_band = |c: &PmtudClient| {
            dsts.iter()
                .filter_map(|&d| c.pmtu_for(d))
                .all(|p| (PMTU_FLOOR..=PROBE).contains(&p))
        };
        // Establish a genuine estimate for the first destination…
        let probe = c.probe_dst(0, dsts[0], &mut rng).expect("first probe");
        assert!(matches!(
            c.ingest(0, &answer(&probe, &[1400, 1400, 700])),
            Some(Verdict::Accepted { pmtu: 1400, .. })
        ));
        // …and keep a window of outstanding probes, one per destination,
        // for the attacker to aim at.
        let live: Vec<Vec<u8>> = dsts
            .iter()
            .map(|&d| c.probe_dst(0, d, &mut rng).expect("no probe in flight"))
            .collect();
        let spoofs: Vec<SpoofReport> = attack::spoof_report_stream(seed, 500, 8, dsts[1]);
        for s in &spoofs {
            let pkt = report_pkt(s.src, GW, &report_payload(s.probe_id, s.nonce, &s.sizes));
            assert_eq!(
                c.ingest(0, &pkt),
                Some(Verdict::Rejected),
                "seed {seed}: a forged report was believed"
            );
            assert_eq!(
                c.pmtu_for(dsts[0]),
                Some(1400),
                "seed {seed}: estimate moved"
            );
            assert!(
                dsts[1..].iter().all(|&d| c.pmtu_for(d).is_none()),
                "seed {seed}: a forgery set an estimate"
            );
            assert!(in_band(&c), "seed {seed}: estimate left its band");
        }
        assert_eq!(c.spoof_rejected, 500, "seed {seed}: spoof not counted");
        assert_eq!(
            c.pending_probes(),
            dsts.len(),
            "seed {seed}: probe locked out"
        );
        // Genuine reports still work after the storm: growth is taken
        // at once, and a first report sets its destination at once.
        for (i, probe) in live.iter().enumerate() {
            let got = c.ingest(0, &answer(probe, &[PROBE]));
            assert!(
                matches!(got, Some(Verdict::Accepted { pmtu: PROBE, .. })),
                "seed {seed} dst {i}: {got:?}"
            );
        }
        // Attested-but-absurd shrink claims are each clamped at the
        // floor and walk the estimate down half a step at a time…
        for _ in 0..4 {
            let probe = c
                .probe_dst(0, dsts[0], &mut rng)
                .expect("no probe in flight");
            c.ingest(0, &answer(&probe, &[64]));
            assert!(in_band(&c), "seed {seed}: floor breached");
        }
        assert_eq!(c.floor_clamps, 4, "seed {seed}: clamp not counted");
        let walked = c.pmtu_for(dsts[0]).expect("known");
        assert!(walked < PROBE, "seed {seed}: confirmed shrink not applied");
        assert!(
            walked >= PROBE / 8,
            "seed {seed}: more than half a step per report"
        );
        // …and one genuine attested report restores the true estimate.
        let probe = c
            .probe_dst(0, dsts[0], &mut rng)
            .expect("no probe in flight");
        c.ingest(0, &answer(&probe, &[PROBE]));
        assert_eq!(
            c.pmtu_for(dsts[0]),
            Some(PROBE),
            "seed {seed}: no recovery after the episode"
        );
    }
}
