//! Pins the engine's deterministic-mode output digests to the exact
//! values the pre-optimization datapath produced, so hot-path rework
//! (pooling, cached checksums, sink emit) is provably bit-identical on
//! the wire: any change to merge/split/caravan output bytes, packet
//! boundaries, or per-flow ordering shifts the folded FNV and fails
//! here. The per-flow digests are folded from the captured output by
//! the transparency oracle's [`Digests`] — the fold the engine ran in
//! its datapath when these values were pinned — and every run must
//! also pass the oracle against its input trace.

mod support;

use packet_express::core::engine::{run_engine_on_trace, EngineConfig, EngineMode};
use packet_express::core::pipeline::{PipelineConfig, SystemVariant, TraceGen, WorkloadKind};
use support::oracle::{jumbo_at, Digests, Oracle};

/// Folds a full engine report (per-flow digests + byte/packet totals)
/// into one order-independent-of-nothing FNV-1a value: flows are walked
/// in `BTreeMap` key order, so the fold is deterministic.
fn fold_report(workload: WorkloadKind, cores: usize) -> u64 {
    let mut pipe = PipelineConfig::fig5(SystemVariant::Px, workload, cores);
    pipe.seed = 0xDE7E_3311;
    pipe.trace_pkts = 10_000;
    pipe.n_flows = 128;
    let trace = TraceGen::new(workload, pipe.n_flows, pipe.emtu, pipe.mean_run, pipe.seed)
        .generate(pipe.trace_pkts);
    let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
    cfg.capture_output = true;
    let report = run_engine_on_trace(cfg, trace.clone());
    let context = format!("{workload:?} @{cores} cores");
    Oracle::new(&trace, pipe.imtu).assert(&report.captured_output, &report.totals, &context);
    let digests = Digests::of(&report.captured_output, jumbo_at(&pipe));

    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for (key, d) in &digests.flows {
        mix(u64::from(key.src_port));
        mix(u64::from(key.dst_port));
        mix(d.pkts);
        mix(d.bytes);
        mix(d.fnv);
    }
    mix(report.totals.pkts_out);
    mix(report.totals.bytes_out);
    mix(report.totals.pkts_out_inband);
    mix(report.totals.jumbo_out_inband);
    h
}

#[test]
fn deterministic_digests_match_pinned_values() {
    for (workload, expect) in [(WorkloadKind::Tcp, PIN_TCP), (WorkloadKind::Udp, PIN_UDP)] {
        for cores in [1usize, 2, 4, 8] {
            let got = fold_report(workload, cores);
            assert_eq!(
                got, expect,
                "{workload:?} @{cores} cores: folded digest {got:#018x}, pinned {expect:#018x}"
            );
        }
    }
}

// Captured from the pre-pool/pre-cached-checksum engine at seed
// 0xDE7E_3311 (10 000 pkts, 128 flows); see tests/engine_equivalence.rs
// for the cross-core identity these extend.
const PIN_TCP: u64 = 0xf187_35b8_f66b_5373;
const PIN_UDP: u64 = 0xefd2_7660_fff2_e70d;
