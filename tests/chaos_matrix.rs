//! The chaos matrix — the robustness contract of the PXGW datapath,
//! proven over seeded fault schedules rather than hand-picked cases.
//!
//! Every seed names one complete fault schedule ([`FaultSpec::chaos`]):
//! ingress drop/duplicate/reorder/corrupt/truncate rates, stateless
//! pool-dry and flow-table-deny verdicts, and a worker panic/stall
//! cadence. For each seed the engine runs at 1, 2, 4, and 8 cores and
//! must satisfy, with the faults live:
//!
//! * **zero panics** — injected worker panics are caught and healed by
//!   the in-place restart path; nothing unwinds out of the run;
//! * **zero leaked pool buffers** — `Worker::finish` debug-asserts
//!   `pool_outstanding() == 0` after the drain, so any degrade or
//!   restart path that forgets a buffer fails these (dev-profile) runs;
//! * **per-flow byte-stream identity across core counts** — the
//!   *content* each flow receives is a pure function of (seed, trace):
//!   aggregation boundaries may move when restarts rescue-flush held
//!   aggregates early, but the reassembled byte streams may not.
//!
//! The cross-core comparison therefore uses a boundary-insensitive
//! digest of the captured output: TCP packets are spread into per-flow
//! sequence-space byte maps (a jumbo frame and the eMTU segments it
//! merged write the identical bytes), UDP caravan bundles are split
//! back into their inner datagrams and hashed as an order-insensitive
//! multiset (a datagram contributes the same item whether it rode in a
//! bundle or passed through), and anything unparsable lands in a raw
//! bucket. Identical digests across 1/2/4/8 cores mean every receiver
//! would reassemble the identical streams.
//!
//! Seed count: `CHAOS_SEEDS` (default 16 for the in-tree run; CI runs
//! 500, the full matrix is `CHAOS_SEEDS=10000 cargo test --test
//! chaos_matrix`).

use packet_express::core::engine::{
    run_engine, run_engine_on_trace, EngineConfig, EngineMode, EngineReport,
};
use packet_express::core::pipeline::{PipelineConfig, SystemVariant, WorkloadKind};
use packet_express::core::SteerConfig;
use packet_express::faults::FaultSpec;
use packet_express::wire::caravan::split_bundle;
use packet_express::wire::ipv4::CARAVAN_TOS;
use packet_express::wire::FlowKey;
use packet_express::workload::internet::{InternetConfig, InternetModel};
use std::collections::BTreeMap;

const TRACE_PKTS: u64 = 2_000;
const CORE_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn seed_count() -> u64 {
    std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

fn chaos_run(workload: WorkloadKind, cores: usize, seed: u64) -> EngineReport {
    let mut pipe = PipelineConfig::fig5(SystemVariant::Px, workload, cores);
    // Trace seed fixed per chaos seed and independent of the core
    // count, so every core count processes the identical faulted trace.
    pipe.seed = 0xC4A0_5000 ^ seed;
    pipe.trace_pkts = TRACE_PKTS as usize;
    pipe.n_flows = 32;
    let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
    cfg.faults = FaultSpec::chaos(seed);
    cfg.capture_output = true;
    run_engine(cfg)
}

/// splitmix64 — decorrelates the FNV item hashes so the multiset sum
/// can't be fooled by related items cancelling.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv(init: u64, bytes: &[u8]) -> u64 {
    let mut h = init;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Boundary-insensitive summary of a delivered packet stream.
///
/// Two streams get equal digests iff every flow's reassembled bytes are
/// equal — regardless of how those bytes were cut into packets, how
/// datagrams were grouped into caravans, or the order packets of
/// *different* flows interleaved.
#[derive(Default)]
struct StreamDigest {
    /// Per-TCP-flow sequence-space byte maps. BTreeMaps so iteration
    /// (and thus the finalized hash) is canonical.
    tcp: BTreeMap<(u32, u32, u16, u16), BTreeMap<u32, u8>>,
    /// Order-insensitive multiset accumulator over UDP datagrams
    /// (wrapping sum of mixed per-item hashes: duplicates add twice,
    /// so multiplicity counts, but order cannot).
    udp_sum: u64,
    udp_count: u64,
    /// Unparsable packets, as a raw-bytes multiset.
    raw_sum: u64,
    raw_count: u64,
}

impl StreamDigest {
    fn add_raw(&mut self, pkt: &[u8]) {
        self.raw_sum = self.raw_sum.wrapping_add(mix(fnv(FNV_OFFSET, pkt)));
        self.raw_count += 1;
    }

    fn add_udp_item(&mut self, src: u32, dst: u32, sport: u16, dport: u16, payload: &[u8]) {
        let mut h = FNV_OFFSET;
        h = fnv(h, &src.to_be_bytes());
        h = fnv(h, &dst.to_be_bytes());
        h = fnv(h, &sport.to_be_bytes());
        h = fnv(h, &dport.to_be_bytes());
        h = fnv(h, &(payload.len() as u32).to_be_bytes());
        h = fnv(h, payload);
        self.udp_sum = self.udp_sum.wrapping_add(mix(h));
        self.udp_count += 1;
    }

    fn add_packet(&mut self, pkt: &[u8]) {
        let Some(()) = self.try_add_parsed(pkt) else {
            self.add_raw(pkt);
            return;
        };
    }

    fn try_add_parsed(&mut self, pkt: &[u8]) -> Option<()> {
        if pkt.len() < 20 || pkt[0] >> 4 != 4 {
            return None;
        }
        let ihl = usize::from(pkt[0] & 0xf) * 4;
        let total = usize::from(u16::from_be_bytes([pkt[2], pkt[3]])).min(pkt.len());
        if ihl < 20 || total < ihl {
            return None;
        }
        let src = u32::from_be_bytes(pkt.get(12..16)?.try_into().ok()?);
        let dst = u32::from_be_bytes(pkt.get(16..20)?.try_into().ok()?);
        let l4 = pkt.get(ihl..total)?;
        match pkt[9] {
            6 => {
                // TCP: spread the payload over the flow's seq space.
                if l4.len() < 20 {
                    return None;
                }
                let sport = u16::from_be_bytes([l4[0], l4[1]]);
                let dport = u16::from_be_bytes([l4[2], l4[3]]);
                let seq = u32::from_be_bytes([l4[4], l4[5], l4[6], l4[7]]);
                let off = usize::from(l4[12] >> 4) * 4;
                let payload = l4.get(off..)?;
                let map = self.tcp.entry((src, dst, sport, dport)).or_default();
                for (i, &b) in payload.iter().enumerate() {
                    map.insert(seq.wrapping_add(i as u32), b);
                }
                Some(())
            }
            17 => {
                let payload = l4.get(8..)?;
                if pkt[1] == CARAVAN_TOS {
                    // A caravan: digest the inner datagrams, not the
                    // bundle framing, so bundling layout is invisible.
                    for dg in split_bundle(payload).ok()? {
                        if dg.len() < 8 {
                            return None;
                        }
                        let sport = u16::from_be_bytes([dg[0], dg[1]]);
                        let dport = u16::from_be_bytes([dg[2], dg[3]]);
                        self.add_udp_item(src, dst, sport, dport, &dg[8..]);
                    }
                } else {
                    let sport = u16::from_be_bytes([l4[0], l4[1]]);
                    let dport = u16::from_be_bytes([l4[2], l4[3]]);
                    self.add_udp_item(src, dst, sport, dport, payload);
                }
                Some(())
            }
            _ => None,
        }
    }

    /// Canonical fingerprint: fold the TCP maps in key order, then the
    /// two multiset accumulators.
    fn finalize(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for ((src, dst, sport, dport), map) in &self.tcp {
            h = fnv(h, &src.to_be_bytes());
            h = fnv(h, &dst.to_be_bytes());
            h = fnv(h, &sport.to_be_bytes());
            h = fnv(h, &dport.to_be_bytes());
            for (&seq, &b) in map {
                h = fnv(h, &seq.to_be_bytes());
                h = fnv(h, &[b]);
            }
        }
        for word in [
            self.udp_sum,
            self.udp_count,
            self.raw_sum,
            self.raw_count,
            self.tcp.len() as u64,
        ] {
            h = fnv(h, &word.to_be_bytes());
        }
        h
    }
}

fn digest_of(report: &EngineReport) -> u64 {
    let mut d = StreamDigest::default();
    for pkt in &report.captured_output {
        d.add_packet(pkt);
    }
    d.finalize()
}

/// Input-side conservation: the engine must account for every packet
/// the faulted trace contains — no more, no fewer.
fn assert_conservation(r: &EngineReport, seed: u64, cores: usize) {
    assert_conservation_of(r, TRACE_PKTS, seed, cores);
}

/// Same contract, parameterised over the trace length so externally
/// generated traces (the internet-churn dimension) share the gate.
fn assert_conservation_of(r: &EngineReport, trace_pkts: u64, seed: u64, cores: usize) {
    let f = &r.ingress_faults;
    assert_eq!(
        r.totals.pkts_in,
        trace_pkts - f.dropped + f.duplicated,
        "seed {seed} cores {cores}: ingress accounting broken ({f:?})"
    );
    // Output-side: every emitted packet was captured (the digest sees
    // the complete delivered stream), and the only emissions missing
    // from the per-flow digests are unparsable passthroughs — packets
    // an ingress corruption or truncation mangled and the gateway
    // forwarded as-is for the endpoint to judge. A duplicate of a
    // mangled packet can add one more, hence the duplicated term.
    assert_eq!(
        r.captured_output.len() as u64,
        r.totals.pkts_out,
        "seed {seed} cores {cores}: emitted packets escaped capture"
    );
    let digest_pkts: u64 = r.flow_digests.values().map(|d| d.pkts).sum();
    assert!(
        digest_pkts <= r.totals.pkts_out
            && r.totals.pkts_out - digest_pkts <= f.corrupted + f.truncated + f.duplicated,
        "seed {seed} cores {cores}: digest gap {} vs faults {f:?}",
        r.totals.pkts_out - digest_pkts
    );
}

/// The matrix itself. For every seed × workload: run all core counts,
/// demand identical boundary-insensitive stream digests, and demand
/// clean conservation at each point. Any injected panic that escaped
/// the restart path, any leaked pool buffer (debug_assert in the
/// drain), or any byte-stream divergence fails the run.
#[test]
fn chaos_matrix_streams_identical_across_core_counts() {
    let seeds = seed_count();
    let mut restarts_seen = 0u64;
    let mut ingress_faults_seen = 0u64;
    let mut degraded_seen = 0u64;
    for seed in 0..seeds {
        for workload in [WorkloadKind::Tcp, WorkloadKind::Udp] {
            let mut reference: Option<(u64, u64)> = None;
            for cores in CORE_COUNTS {
                let r = chaos_run(workload, cores, seed);
                assert_conservation(&r, seed, cores);
                restarts_seen += r.totals.worker_restarts;
                ingress_faults_seen += r.ingress_faults.total();
                degraded_seen += r.totals.degraded_pkts;
                let digest = digest_of(&r);
                match reference {
                    None => reference = Some((digest, r.totals.bytes_out)),
                    Some((want, _)) => assert_eq!(
                        digest, want,
                        "seed {seed} {workload:?}: stream digest diverged at {cores} cores \
                         (faults {:?}, restarts {})",
                        r.ingress_faults, r.totals.worker_restarts
                    ),
                }
            }
        }
    }
    // The matrix must actually exercise the machinery it certifies:
    // across the seed sweep, ingress faults fired, workers died and
    // were restarted, and resource faults forced degraded forwarding.
    assert!(ingress_faults_seen > 0, "no ingress faults fired");
    assert!(restarts_seen > 0, "no worker restarts exercised");
    assert!(degraded_seen > 0, "no degraded forwarding exercised");
}

/// The churn dimension: the same fault schedules, but over traffic
/// from the internet model instead of the uniform trace generator —
/// a 100k-flow ring with Zipf elephants, mice, and flow churn, fed
/// through deliberately under-provisioned tables so both eviction
/// paths (idle mice from probation, pressure evictions with rescue
/// flush) fire *while* workers are being killed and buffers corrupted.
/// Conservation, digest parity across core counts, and the pool-drain
/// leak asserts are exactly the gates the plain matrix enforces.
const CHURN_TRACE_PKTS: usize = 4_000;
const CHURN_FLOWS: usize = 100_000;

fn churn_trace(seed: u64) -> Vec<(FlowKey, Vec<u8>)> {
    let mut model = InternetModel::new(InternetConfig::sized(CHURN_FLOWS, 0xC4A0_6000 ^ seed));
    model.generate_trace(CHURN_TRACE_PKTS)
}

fn churn_run(cores: usize, seed: u64, trace: Vec<(FlowKey, Vec<u8>)>) -> EngineReport {
    let mut pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, cores);
    // A table far smaller than the flow population: it must recycle
    // idle mice first, and once promoted elephants fill it, evict one
    // under pressure and rescue-flush its pending aggregate, mid-fault.
    pipe.steer = Some(SteerConfig {
        table_capacity: 16,
        ..SteerConfig::default()
    });
    let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
    cfg.faults = FaultSpec::chaos(seed);
    cfg.capture_output = true;
    run_engine_on_trace(cfg, trace)
}

#[test]
fn chaos_matrix_survives_internet_churn() {
    let seeds = seed_count().min(4);
    let mut ingress_faults_seen = 0u64;
    let mut idle_evictions = 0u64;
    let mut pressure_evictions = 0u64;
    let mut steered_mice = 0u64;
    for seed in 0..seeds {
        let trace = churn_trace(seed);
        let mut reference: Option<u64> = None;
        for cores in CORE_COUNTS {
            let r = churn_run(cores, seed, trace.clone());
            assert_conservation_of(&r, CHURN_TRACE_PKTS as u64, seed, cores);
            ingress_faults_seen += r.ingress_faults.total();
            idle_evictions += r.totals.flows_evicted_idle;
            pressure_evictions += r.totals.flows_evicted_pressure;
            steered_mice += r.totals.steered_mice_pkts;
            let digest = digest_of(&r);
            match reference {
                None => reference = Some(digest),
                Some(want) => assert_eq!(
                    digest, want,
                    "seed {seed}: churn stream digest diverged at {cores} cores \
                     (faults {:?}, evictions idle {} / pressure {})",
                    r.ingress_faults, r.totals.flows_evicted_idle, r.totals.flows_evicted_pressure
                ),
            }
        }
    }
    // The dimension must actually exercise what it claims to: faults
    // fired, the classifier recycled idle mice, the merge table hit
    // pressure and rescue-flushed, and mice hairpinned past merging.
    assert!(ingress_faults_seen > 0, "no ingress faults fired");
    assert!(
        idle_evictions > 0,
        "classifier never recycled an idle mouse"
    );
    assert!(pressure_evictions > 0, "merge table never hit pressure");
    assert!(steered_mice > 0, "no mice hairpinned past the merge path");
}

/// One schedule, replayed: the entire report — captured packets
/// included, byte for byte — must be identical run over run. This is
/// the reproducibility half of the contract: a failing seed from the
/// 10k matrix can be handed to a debugger and will fail the same way.
#[test]
fn chaos_run_replays_bit_identically() {
    for workload in [WorkloadKind::Tcp, WorkloadKind::Udp] {
        let a = chaos_run(workload, 4, 7);
        let b = chaos_run(workload, 4, 7);
        assert_eq!(a.captured_output, b.captured_output);
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.flow_digests, b.flow_digests);
        assert_eq!(a.ingress_faults, b.ingress_faults);
    }
}

/// Faults off, capture on: the digest machinery itself is
/// boundary-insensitive on a clean run (jumbo merges at 1 core vs 8
/// cores regroup the same bytes), so a matrix failure implicates the
/// datapath, not the test harness.
#[test]
fn clean_runs_digest_identically_across_core_counts() {
    for workload in [WorkloadKind::Tcp, WorkloadKind::Udp] {
        let digests: Vec<u64> = CORE_COUNTS
            .iter()
            .map(|&cores| {
                let mut pipe = PipelineConfig::fig5(SystemVariant::Px, workload, cores);
                pipe.seed = 0xC4A0_5000;
                pipe.trace_pkts = TRACE_PKTS as usize;
                pipe.n_flows = 32;
                let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
                cfg.capture_output = true;
                digest_of(&run_engine(cfg))
            })
            .collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "{workload:?}: clean-run digests diverged: {digests:?}"
        );
    }
}
