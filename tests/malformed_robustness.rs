//! Adversarial robustness: the R1 panic-freedom invariant checked
//! dynamically. `px-analyze` proves the hot path contains no panicking
//! construct *syntactically*; this suite drives the same engines with
//! truncated, bit-flipped, and purely random packets and asserts they
//! (a) never panic and (b) account for every swallowed packet in a
//! `dropped_*` counter where the engine contract promises it. The same
//! three generators hold the header-only key walk steering runs first
//! to the full parse: `parse_key(p) == parse_packet(p).key`.
//!
//! Four proptest blocks × 300 cases = 1200 adversarial inputs per run.

use packet_express::core::caravan_gw::{CaravanConfig, CaravanEngine};
use packet_express::core::merge::{MergeConfig, MergeEngine};
use packet_express::core::split::SplitEngine;
use packet_express::core::steer::SteerConfig;
use packet_express::obs::ObsConfig;
use packet_express::wire::batchparse::{parse_key, parse_packet};
use packet_express::wire::ipv4::{Ipv4Repr, CARAVAN_TOS};
use packet_express::wire::pool::VecSink;
use packet_express::wire::tcp::{SeqNum, TcpFlags, TcpRepr};
use packet_express::wire::{IpProtocol, UdpRepr};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Sink-based split collected into `Vec`s — replaces the removed
/// `SplitEngine::push`/`push_to` compatibility wrappers for tests that
/// assert on whole output packets.
fn split_vec(eng: &mut SplitEngine, pkt: &[u8], mtu: usize) -> Vec<Vec<u8>> {
    VecSink::collect(|s| eng.push_to_into(pkt, mtu, s))
}

const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn tcp_packet(port: u16, seq: u32, payload_len: usize, ident: u16) -> Vec<u8> {
    let payload = vec![0xA5u8; payload_len];
    let repr = TcpRepr {
        src_port: port,
        dst_port: 80,
        seq: SeqNum(seq),
        ack: SeqNum(1),
        flags: TcpFlags::ACK,
        window: 8192,
        options: vec![],
    };
    let seg = repr.build_segment(SRC, DST, &payload);
    let mut ip = Ipv4Repr::new(SRC, DST, IpProtocol::Tcp, seg.len());
    ip.ident = ident;
    ip.build_packet(&seg).expect("fits")
}

fn udp_packet(port: u16, payload_len: usize, ident: u16, tos: u8) -> Vec<u8> {
    let payload = vec![0x5Au8; payload_len];
    let dg = UdpRepr {
        src_port: port,
        dst_port: 9000,
    }
    .build_datagram(SRC, DST, &payload)
    .expect("fits");
    let mut ip = Ipv4Repr::new(SRC, DST, IpProtocol::Udp, dg.len());
    ip.ident = ident;
    ip.tos = tos;
    ip.build_packet(&dg).expect("fits")
}

/// Each flip word encodes a byte position (high bits) and a bit index
/// (low 3 bits) — the vendored proptest shim has no tuple strategies.
fn flip_bits(pkt: &mut [u8], flips: &[u32]) {
    for &word in flips {
        if !pkt.is_empty() {
            let i = (word >> 3) as usize % pkt.len();
            pkt[i] ^= 1 << (word & 7);
        }
    }
}

/// Drives one mangled packet through all three engines, fresh instances
/// each time so a poisoned flow table cannot mask a later panic. The
/// recorder is armed on every engine; if a panic does slip
/// through, the last 64 spans per engine are printed before the panic
/// is re-raised — the post-mortem the recorder exists for.
fn run_all_engines(pkt: &[u8]) {
    let obs = ObsConfig::default();
    let mut merge = MergeEngine::new(MergeConfig::default());
    merge.enable_obs(obs);
    // The steering engine keys from the headers first and checksums only
    // what may merge: the same packet through that order too.
    let mut steered = MergeEngine::new(MergeConfig::default());
    steered.enable_steer(SteerConfig::default());
    steered.enable_obs(obs);
    let mut split = SplitEngine::new(1500);
    split.enable_obs(obs);
    let mut caravan = CaravanEngine::new(CaravanConfig::default());
    caravan.enable_obs(obs);

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut out = VecSink::collect(|s| merge.push_into(0, pkt, s));
        let deadline = merge.next_deadline().unwrap_or(u64::MAX);
        out.extend(VecSink::collect(|s| merge.poll_into(deadline, s)));
        out.extend(VecSink::collect(|s| merge.flush_all_into(s)));
        out.extend(VecSink::collect(|s| steered.push_into(0, pkt, s)));
        out.extend(VecSink::collect(|s| steered.flush_all_into(s)));

        out.extend(split_vec(&mut split, pkt, 1500));
        out.extend(split_vec(&mut split, pkt, 576));

        out.extend(VecSink::collect(|s| caravan.push_inbound_into(0, pkt, s)));
        out.extend(VecSink::collect(|s| caravan.push_outbound_into(pkt, s)));
        out.extend(VecSink::collect(|s| caravan.flush_all_into(s)));
        drop(out);
    }));
    if let Err(payload) = result {
        eprintln!("--- engine panicked on a mangled packet; recorder timelines follow ---");
        eprintln!("merge (last 64 spans):\n{}", merge.obs().render_recent(64));
        eprintln!(
            "steered merge (last 64 spans):\n{}",
            steered.obs().render_recent(64)
        );
        eprintln!("split (last 64 spans):\n{}", split.obs.render_recent(64));
        eprintln!(
            "caravan (last 64 spans):\n{}",
            caravan.obs().render_recent(64)
        );
        std::panic::resume_unwind(payload);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Valid packets truncated at every possible point: no engine panics.
    #[test]
    fn truncated_packets_never_panic(
        port in 1024u16..60000,
        seq in any::<u32>(),
        len in 0usize..3000,
        ident in any::<u16>(),
        cut in 0usize..3100,
        tcp in any::<bool>(),
    ) {
        let pkt = if tcp {
            tcp_packet(port, seq, len, ident)
        } else {
            udp_packet(port, len, ident, 0)
        };
        let cut = cut.min(pkt.len());
        prop_assert_eq!(parse_key(&pkt[..cut]), parse_packet(&pkt[..cut]).key);
        run_all_engines(&pkt[..cut]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Valid packets with arbitrary bit flips — corrupted lengths,
    /// protocols, header sizes, checksums: no engine panics.
    #[test]
    fn bitflipped_packets_never_panic(
        port in 1024u16..60000,
        len in 0usize..3000,
        ident in any::<u16>(),
        tcp in any::<bool>(),
        flips in proptest::collection::vec(any::<u32>(), 1..16),
    ) {
        let mut pkt = if tcp {
            tcp_packet(port, 1, len, ident)
        } else {
            udp_packet(port, len, ident, CARAVAN_TOS)
        };
        flip_bits(&mut pkt, &flips);
        prop_assert_eq!(parse_key(&pkt), parse_packet(&pkt).key);
        run_all_engines(&pkt);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Pure noise, including the empty packet: no engine panics.
    #[test]
    fn random_bytes_never_panic(
        pkt in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        prop_assert_eq!(parse_key(&pkt), parse_packet(&pkt).key);
        run_all_engines(&pkt);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The split engine's accounting contract: every input either
    /// produces output or increments exactly one dropped counter.
    #[test]
    fn split_accounts_for_every_swallowed_packet(
        len in 1501usize..9000,
        ident in any::<u16>(),
        tcp in any::<bool>(),
        flips in proptest::collection::vec(any::<u32>(), 0..8),
        cut_tail in 0usize..40,
    ) {
        let mut pkt = if tcp {
            tcp_packet(40000, 7, len, ident)
        } else {
            udp_packet(40000, len, ident, 0)
        };
        flip_bits(&mut pkt, &flips);
        let keep = pkt.len().saturating_sub(cut_tail);
        pkt.truncate(keep.max(1));

        let mut split = SplitEngine::new(1500);
        let before_drops = split.stats.dropped_df + split.stats.dropped_malformed;
        let out = split_vec(&mut split, &pkt, 1500);
        let after_drops = split.stats.dropped_df + split.stats.dropped_malformed;
        if out.is_empty() {
            prop_assert_eq!(after_drops, before_drops + 1,
                "a swallowed packet must increment exactly one dropped counter");
        } else {
            prop_assert_eq!(after_drops, before_drops,
                "a packet that produced output must not also count as dropped");
        }
    }
}

/// Deterministic spot-check that corrupted caravan bundles land in
/// `dropped_malformed` rather than vanishing (or panicking).
#[test]
fn caravan_counts_corrupt_bundles() {
    // Build a real bundle by pushing datagrams inbound and flushing.
    let mut gw = CaravanEngine::new(CaravanConfig {
        require_consecutive_ip_id: false,
        ..CaravanConfig::default()
    });
    for i in 0..4u16 {
        let out = VecSink::collect(|s| gw.push_inbound_into(0, &udp_packet(5000, 400, i, 0), s));
        assert!(out.is_empty(), "datagrams should be held for bundling");
    }
    let bundles = VecSink::collect(|s| gw.flush_all_into(s));
    assert_eq!(bundles.len(), 1, "four datagrams bundle into one jumbo");
    let bundle = &bundles[0];

    // Slash the bundle's length fields: the outbound unbundler must
    // either recover inner datagrams or account for the loss.
    let mut rx = CaravanEngine::new(CaravanConfig::default());
    let mut corrupt = bundle.clone();
    corrupt.truncate(bundle.len() / 2);
    let out = VecSink::collect(|s| rx.push_outbound_into(&corrupt, s));
    assert!(
        !out.is_empty() || rx.stats.dropped_malformed > 0,
        "corrupt bundle neither produced output nor counted as dropped"
    );

    // The intact bundle still unbundles into the original four.
    let mut rx2 = CaravanEngine::new(CaravanConfig::default());
    let out = VecSink::collect(|s| rx2.push_outbound_into(bundle, s));
    assert_eq!(out.len(), 4);
    assert_eq!(rx2.stats.dropped_malformed, 0);
}
