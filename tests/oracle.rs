//! The transparency oracle's own tests: it passes the engine's output on
//! clean runs, and it catches each fault a datapath could commit — fed
//! one at a time into otherwise correct output.

mod support;

use packet_express::core::engine::{run_engine_on_trace, EngineConfig, EngineMode, EngineReport};
use packet_express::core::pipeline::{PipelineConfig, SystemVariant, TraceGen, WorkloadKind};
use packet_express::core::SteerConfig;
use packet_express::wire::ipv4::CARAVAN_TOS;
use packet_express::wire::{FlowKey, Ipv4Packet, TcpSegment, UdpDatagram};
use support::oracle::{fnv_extend, Fault, FlowDigest, Oracle};

/// A captured one-core run of `pkts` packets over 16 flows, with the
/// trace it consumed. Each packet's first four payload bytes carry its
/// index, so no two are alike.
fn captured_run(workload: WorkloadKind, pkts: usize) -> (Vec<(FlowKey, Vec<u8>)>, EngineReport) {
    let mut pipe = PipelineConfig::fig5(SystemVariant::Px, workload, 1);
    pipe.n_flows = 16;
    let mut trace =
        TraceGen::new(workload, pipe.n_flows, pipe.emtu, pipe.mean_run, 0x0AC1E).generate(pkts);
    for (i, (_, pkt)) in trace.iter_mut().enumerate() {
        let at = match workload {
            WorkloadKind::Tcp => 40,
            WorkloadKind::Udp => 28,
        };
        pkt[at..at + 4].copy_from_slice(&(i as u32).to_be_bytes());
        match workload {
            WorkloadKind::Tcp => refill_tcp_checksum(pkt),
            WorkloadKind::Udp => refill_udp_checksum(pkt),
        }
    }
    let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
    cfg.capture_output = true;
    let report = run_engine_on_trace(cfg, trace.clone());
    (trace, report)
}

/// Index of the first emitted packet that no input packet equals: one
/// the engine built.
fn built_packet(
    trace: &[(FlowKey, Vec<u8>)],
    out: &[Vec<u8>],
    pred: impl Fn(&[u8]) -> bool,
) -> usize {
    out.iter()
        .position(|pkt| pred(pkt) && trace.iter().all(|(_, p)| p != pkt))
        .expect("the run built such a packet")
}

/// Rewrites the TCP checksum of an IPv4/TCP packet.
fn refill_tcp_checksum(pkt: &mut [u8]) {
    let ip = Ipv4Packet::new_checked(&*pkt).unwrap();
    let (src, dst, hl) = (ip.src(), ip.dst(), ip.header_len());
    TcpSegment::new_unchecked(&mut pkt[hl..]).fill_checksum(src, dst);
}

/// Rewrites the outer UDP checksum of an IPv4/UDP packet.
fn refill_udp_checksum(pkt: &mut [u8]) {
    let ip = Ipv4Packet::new_checked(&*pkt).unwrap();
    let (src, dst, hl) = (ip.src(), ip.dst(), ip.header_len());
    UdpDatagram::new_unchecked(&mut pkt[hl..]).fill_checksum(src, dst);
}

/// Removes emitted packet `i`, keeping the counters in step.
fn remove(report: &mut EngineReport, i: usize) -> Vec<u8> {
    let pkt = report.captured_output.remove(i);
    report.totals.pkts_out -= 1;
    report.totals.bytes_out -= pkt.len() as u64;
    pkt
}

/// Emits `pkt` once more right after packet `i`, keeping the counters
/// in step.
fn duplicate(report: &mut EngineReport, i: usize) {
    let pkt = report.captured_output[i].clone();
    report.totals.pkts_out += 1;
    report.totals.bytes_out += pkt.len() as u64;
    report.captured_output.insert(i + 1, pkt);
}

fn fault(trace: &[(FlowKey, Vec<u8>)], report: &EngineReport) -> Fault {
    match Oracle::new(trace, 9000).check(&report.captured_output, &report.totals) {
        Ok(_) => panic!("the oracle passed a faulty output"),
        Err(fault) => fault,
    }
}

#[test]
fn clean_runs_pass_at_every_core_count_and_with_steering() {
    for workload in [WorkloadKind::Tcp, WorkloadKind::Udp] {
        let mut pipe = PipelineConfig::fig5(SystemVariant::Px, workload, 1);
        pipe.n_flows = 64;
        let trace = TraceGen::new(workload, 64, pipe.emtu, pipe.mean_run, 3).generate(6_000);
        let oracle = Oracle::new(&trace, pipe.imtu);
        let mut reference = None;
        for (cores, steer) in [
            (1, None),
            (2, None),
            (4, Some(SteerConfig::default())),
            (8, None),
        ] {
            pipe.cores = cores;
            pipe.steer = steer;
            let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
            cfg.capture_output = true;
            let r = run_engine_on_trace(cfg, trace.clone());
            let got = oracle.assert(
                &r.captured_output,
                &r.totals,
                &format!("{workload:?} @{cores}"),
            );
            assert!(
                got.opaque.is_empty(),
                "{workload:?}: nothing to pass through"
            );
            let reference = reference.get_or_insert(got.clone());
            assert!(
                *reference == got,
                "{workload:?} @{cores}: delivered output differs"
            );
        }
    }
}

#[test]
fn catches_a_flipped_payload_byte() {
    let (trace, mut r) = captured_run(WorkloadKind::Tcp, 2_000);
    let i = built_packet(&trace, &r.captured_output, |p| p.len() > 3_000);
    let pkt = &mut r.captured_output[i];
    // Deep in the merged payload, with the checksum made to match: only
    // the stream check can see it.
    pkt[2_000] ^= 0x40;
    refill_tcp_checksum(pkt);
    assert!(matches!(fault(&trace, &r), Fault::StreamByte { .. }));
}

#[test]
fn catches_a_bad_checksum() {
    let (trace, mut r) = captured_run(WorkloadKind::Tcp, 2_000);
    let i = built_packet(&trace, &r.captured_output, |p| p.len() > 3_000);
    // The TCP checksum field of a 20-byte IPv4 header's segment.
    r.captured_output[i][20 + 16] ^= 0x01;
    assert!(matches!(fault(&trace, &r), Fault::Malformed { index, .. } if index == i));
}

#[test]
fn catches_a_dropped_segment() {
    let (trace, mut r) = captured_run(WorkloadKind::Tcp, 2_000);
    let i = built_packet(&trace, &r.captured_output, |p| p.len() > 3_000);
    remove(&mut r, i);
    assert!(matches!(fault(&trace, &r), Fault::Undelivered { .. }));
}

#[test]
fn catches_a_duplicated_delivery() {
    let (trace, mut r) = captured_run(WorkloadKind::Tcp, 2_000);
    let i = built_packet(&trace, &r.captured_output, |p| p.len() > 3_000);
    duplicate(&mut r, i);
    assert!(matches!(
        fault(&trace, &r),
        Fault::Overdelivered {
            delivered: 2,
            carried: 1,
            ..
        }
    ));
}

#[test]
fn catches_miscounted_output() {
    let (trace, mut r) = captured_run(WorkloadKind::Tcp, 2_000);
    r.captured_output.pop();
    assert!(matches!(
        fault(&trace, &r),
        Fault::Counts {
            what: "pkts_out",
            ..
        }
    ));
}

/// A caravan of two or more datagrams the engine built.
fn caravan(trace: &[(FlowKey, Vec<u8>)], out: &[Vec<u8>]) -> usize {
    built_packet(trace, out, |p| p[1] == CARAVAN_TOS && p.len() > 3 * 1_400)
}

#[test]
fn catches_reordered_datagrams() {
    let (trace, mut r) = captured_run(WorkloadKind::Udp, 2_000);
    let i = caravan(&trace, &r.captured_output);
    let pkt = &mut r.captured_output[i];
    // Swap the first two inner datagrams (20 B outer IPv4, 8 B outer
    // UDP). Equal lengths keep every length field right, and an even
    // length keeps the ones'-complement checksum valid.
    let len = usize::from(u16::from_be_bytes([pkt[28 + 4], pkt[28 + 5]]));
    let next = usize::from(u16::from_be_bytes([pkt[28 + len + 4], pkt[28 + len + 5]]));
    assert_eq!((len, len % 2), (next, 0));
    let (a, b) = pkt[28..28 + 2 * len].split_at_mut(len);
    a.swap_with_slice(b);
    assert!(matches!(fault(&trace, &r), Fault::Datagram { .. }));
}

#[test]
fn catches_a_moved_datagram_boundary() {
    let (trace, mut r) = captured_run(WorkloadKind::Udp, 2_000);
    let i = caravan(&trace, &r.captured_output);
    let pkt = &mut r.captured_output[i];
    // The first inner datagram takes the second's first payload byte:
    // the second's header moves one byte on, both length fields follow,
    // and the payload bytes, read in order, are unchanged. Bundle and
    // packet lengths stay; the outer checksum is made to match.
    let len = usize::from(u16::from_be_bytes([pkt[28 + 4], pkt[28 + 5]]));
    let second = 28 + len;
    let next = u16::from_be_bytes([pkt[second + 4], pkt[second + 5]]);
    pkt[second..second + 9].rotate_right(1);
    pkt[28 + 4..28 + 6].copy_from_slice(&(len as u16 + 1).to_be_bytes());
    pkt[second + 1 + 4..second + 1 + 6].copy_from_slice(&(next - 1).to_be_bytes());
    refill_udp_checksum(pkt);
    assert!(matches!(
        fault(&trace, &r),
        Fault::Datagram { index: 0, .. }
    ));
}

#[test]
fn catches_a_packet_neither_emitted_nor_counted_as_a_typed_drop() {
    let (trace, mut r) = captured_run(WorkloadKind::Udp, 2_000);
    // A lone datagram the caravan engine forwarded as it came.
    let i = r
        .captured_output
        .iter()
        .position(|pkt| pkt[1] != CARAVAN_TOS)
        .expect("a datagram left unbundled");
    remove(&mut r, i);
    assert!(matches!(
        fault(&trace, &r),
        Fault::Unaccounted {
            lost: 1,
            typed_drops: 0
        }
    ));
    // The same swallow owned up to by a typed drop counter passes.
    r.totals.dropped_malformed += 1;
    Oracle::new(&trace, 9000).assert(&r.captured_output, &r.totals, "typed drop");
}

/// The engine's old per-flow digest, folded here: payload changes and
/// moved boundaries both change it.
#[test]
fn digests_separate_payload_changes_and_boundaries() {
    let offset = FlowDigest::default().fnv;
    assert_ne!(
        fnv_extend(offset, &[1, 2, 3]),
        fnv_extend(offset, &[1, 2, 4])
    );
    // Length-prefixing distinguishes [1,2]+[3] from [1]+[2,3].
    let a = fnv_extend(fnv_extend(offset, &[1, 2]), &[3]);
    let b = fnv_extend(fnv_extend(offset, &[1]), &[2, 3]);
    assert_ne!(a, b);
}
