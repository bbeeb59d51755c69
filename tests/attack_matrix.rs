//! The attack matrix — the adversarial-robustness contract of the PXGW
//! datapath, proven over seeded attack schedules (DESIGN.md §16).
//!
//! Where `chaos_matrix` models an *unreliable* network, this matrix
//! models a *hostile* one: an on-path injector replaying TCP ranges
//! with altered bytes, overlapping-segment smuggling, malformed caravan
//! bundles with over- and under-claiming length fields, and an off-path
//! spoofer forging F-PMTUD shrink reports. Every attack schedule is a
//! pure function of its seed ([`px_faults::attack`]), so each one
//! replays bit-identically at 1, 2, 4, and 8 cores. Per seed × core
//! count the gates are:
//!
//! * **zero panics, zero leaked pool buffers** — the dev-profile drain
//!   asserts fire on any engine that forgets a buffer mid-attack;
//! * **zero injected bytes** — the first-writer-wins per-flow byte map
//!   of the emitted stream (what a correct TCP receiver reassembles:
//!   below-window data never overwrites delivered bytes) must equal the
//!   attacker-free oracle exactly. Attacker bytes may never surface
//!   inside an attested aggregate, and may never be the first write at
//!   any stream position;
//! * **typed accounting** — injections surface as
//!   `dropped_inconsistent_overlap`, never as silent stream damage;
//! * **digest parity** — the byte-map fingerprint is identical across
//!   all core counts.
//!
//! Seed count: `ATTACK_SEEDS` (default 10 in-tree; CI runs 200).

use packet_express::core::caravan_gw::{CaravanConfig, CaravanEngine};
use packet_express::core::engine::{run_engine_on_trace, EngineConfig, EngineMode, EngineReport};
use packet_express::core::pipeline::{PipelineConfig, SystemVariant, WorkloadKind};
use packet_express::faults::attack::{self, SpoofReport, TcpAttackTrace, SEG_PAYLOAD};
use packet_express::pmtud::{GuardConfig, PmtudGuard, ReportVerdict};
use packet_express::wire::ipv4::{Ipv4Packet, Ipv4Repr, CARAVAN_TOS};
use packet_express::wire::pool::PacketSink;
use packet_express::wire::tcp::TcpSegment;
use packet_express::wire::{FlowKey, IpProtocol, PacketBuf, UdpRepr};
use std::collections::BTreeMap;

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

/// First-writer-wins per-flow sequence-space byte maps of the emitted
/// stream — the receiver's view. A flow lives on exactly one core and
/// capture preserves per-core emission order, so "first" is
/// well-defined; a below-window retransmission (which a receiver
/// discards) cannot overwrite bytes delivered before it.
fn receiver_maps(report: &EngineReport) -> BTreeMap<(u16, u16), BTreeMap<u32, u8>> {
    let mut maps: BTreeMap<(u16, u16), BTreeMap<u32, u8>> = BTreeMap::new();
    for pkt in &report.captured_output {
        let Ok(ip) = Ipv4Packet::new_checked(&pkt[..]) else {
            panic!("unparsable emitted packet");
        };
        assert_eq!(ip.protocol(), IpProtocol::Tcp, "TCP-only trace");
        let seg = TcpSegment::new_checked(ip.payload()).expect("emitted TCP parses");
        assert!(
            seg.verify_checksum(ip.src(), ip.dst()),
            "emitted packet has a bad TCP checksum"
        );
        let seq = seg.seq().0;
        let payload = seg.payload();
        let map = maps.entry((seg.src_port(), seg.dst_port())).or_default();
        for (i, &b) in payload.iter().enumerate() {
            map.entry(seq.wrapping_add(i as u32)).or_insert(b);
        }
    }
    maps
}

/// The attacker-free oracle: every flow's full pattern, keyed like
/// [`receiver_maps`].
fn oracle_maps(trace: &TcpAttackTrace, seed: u64) -> BTreeMap<(u16, u16), BTreeMap<u32, u8>> {
    let mut maps = BTreeMap::new();
    for f in 0..FLOWS {
        let key = trace.flow_key(seed, f);
        let isn = trace.flow_isn(seed, f);
        let mut map = BTreeMap::new();
        for off in 0..(trace.segs_per_flow * SEG_PAYLOAD) as u64 {
            map.insert(
                isn.wrapping_add(off as u32),
                trace.oracle_byte(seed, f, off),
            );
        }
        maps.insert((key.src_port, key.dst_port), map);
    }
    maps
}

/// FNV-1a over the canonical map iteration — the cross-core digest.
fn fingerprint(maps: &BTreeMap<(u16, u16), BTreeMap<u32, u8>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for ((sp, dp), map) in maps {
        eat(&sp.to_be_bytes());
        eat(&dp.to_be_bytes());
        for (&seq, &b) in map {
            eat(&seq.to_be_bytes());
            eat(&[b]);
        }
    }
    h
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
        let oracle = oracle_maps(&trace, seed);
        let oracle_print = fingerprint(&oracle);
        for cores in CORE_COUNTS {
            let r = attacked_run(trace.pkts.clone(), cores, seed);
            let got = receiver_maps(&r);
            assert_eq!(
                fingerprint(&got),
                oracle_print,
                "seed {seed} cores {cores}: receiver stream diverged from the \
                 attacker-free oracle (attacks {}, drops {})",
                trace.attack_pkts,
                r.totals.dropped_inconsistent_overlap
            );
            assert_eq!(got, oracle, "seed {seed} cores {cores}: map mismatch");
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
    let oracle = oracle_maps(&attack_view, 99);
    for cores in CORE_COUNTS {
        let r = attacked_run(trace.clone(), cores, 99);
        assert_eq!(receiver_maps(&r), oracle, "{cores} cores");
        assert_eq!(r.totals.dropped_inconsistent_overlap, 0);
        assert_eq!(r.totals.dropped_overlap_evasion, 0);
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

/// The F-PMTUD leg: off-path spoof streams against the guard. The
/// estimate never dips below the floor, never moves on a forged
/// report, and recovers after a suspected spoof episode.
#[test]
fn pmtud_guard_holds_the_floor_under_spoof_streams() {
    for seed in 0..seed_count() {
        let mut g = PmtudGuard::new(GuardConfig::new(9000, 0x9A4D ^ seed));
        // Establish a genuine estimate first.
        let (id, nonce) = g.next_probe();
        assert!(matches!(
            g.on_report(id, nonce, &[9000]),
            ReportVerdict::Accepted { pmtu: 9000 }
        ));
        // Keep a window of outstanding probes for the attacker to aim at.
        let live: Vec<(u32, u64)> = (0..4).map(|_| g.next_probe()).collect();
        let spoofs: Vec<SpoofReport> = attack::spoof_report_stream(seed, 500, 8);
        for s in &spoofs {
            g.on_report(s.probe_id, s.nonce, &s.sizes);
            assert!(g.pmtu() >= 576, "seed {seed}: floor breached");
        }
        assert_eq!(
            g.pmtu(),
            9000,
            "seed {seed}: a forged report moved the estimate"
        );
        assert_eq!(
            g.stats.spoof_rejected, 500,
            "seed {seed}: spoof not counted"
        );
        // Genuine reports still work after the storm.
        let (id, nonce) = live[0];
        assert!(matches!(
            g.on_report(id, nonce, &[9000]),
            ReportVerdict::Accepted { pmtu: 9000 }
        ));
        // Attested-but-absurd shrink claims are each clamped at the
        // floor and walk the estimate down half a step at a time…
        for _ in 0..4 {
            let (id, nonce) = g.next_probe();
            g.on_report(id, nonce, &[64]);
            assert!(g.pmtu() >= 576, "seed {seed}: floor breached");
        }
        assert_eq!(g.stats.floor_clamps, 4, "seed {seed}: clamp not counted");
        assert!(g.pmtu() < 9000, "seed {seed}: confirmed shrink not applied");
        // …and one genuine attested report restores the true estimate.
        let (id, nonce) = g.next_probe();
        g.on_report(id, nonce, &[9000]);
        assert_eq!(g.pmtu(), 9000, "seed {seed}: no recovery after the episode");
    }
}
