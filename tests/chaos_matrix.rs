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
//! * **transparency against the faulted input** — the transparency
//!   oracle (`tests/support/oracle.rs`) rebuilds every flow's delivered
//!   TCP stream and datagram sequence from the captured output and
//!   holds it to the trace as the engine consumed it (the same
//!   [`FaultPlan`] applied): every stream byte the input carried
//!   intact is delivered unaltered, every datagram in order, every
//!   corrupt or truncated packet leaves as it came, and every packet is
//!   accounted for;
//! * **per-flow byte-stream identity across core counts** — the
//!   *content* each flow receives is a pure function of (seed, trace):
//!   aggregation boundaries may move when restarts rescue-flush held
//!   aggregates early, but the oracle's rebuilt streams, which do not
//!   see boundaries, may not.
//!
//! Seed count: `CHAOS_SEEDS` (default 16 for the in-tree run; CI runs
//! 500, the full matrix is `CHAOS_SEEDS=10000 cargo test --test
//! chaos_matrix`).

mod support;

use packet_express::core::engine::{run_engine_on_trace, EngineConfig, EngineMode, EngineReport};
use packet_express::core::pipeline::{PipelineConfig, SystemVariant, TraceGen, WorkloadKind};
use packet_express::core::SteerConfig;
use packet_express::faults::{FaultPlan, FaultSpec, IngressStats};
use packet_express::wire::FlowKey;
use packet_express::workload::internet::{InternetConfig, InternetModel};
use support::oracle::{Delivered, Oracle};

const TRACE_PKTS: u64 = 2_000;
const CORE_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn seed_count() -> u64 {
    std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

fn chaos_pipe(workload: WorkloadKind, cores: usize, seed: u64) -> PipelineConfig {
    let mut pipe = PipelineConfig::fig5(SystemVariant::Px, workload, cores);
    // Trace seed fixed per chaos seed and independent of the core
    // count, so every core count processes the identical faulted trace.
    pipe.seed = 0xC4A0_5000 ^ seed;
    pipe.trace_pkts = TRACE_PKTS as usize;
    pipe.n_flows = 32;
    pipe
}

/// The trace a chaos seed feeds every core count, before faults.
fn chaos_trace(workload: WorkloadKind, seed: u64) -> Vec<(FlowKey, Vec<u8>)> {
    let pipe = chaos_pipe(workload, 1, seed);
    TraceGen::new(workload, pipe.n_flows, pipe.emtu, pipe.mean_run, pipe.seed)
        .generate(pipe.trace_pkts)
}

fn chaos_run(
    workload: WorkloadKind,
    cores: usize,
    seed: u64,
    trace: Vec<(FlowKey, Vec<u8>)>,
) -> EngineReport {
    let mut cfg = EngineConfig::new(chaos_pipe(workload, cores, seed), EngineMode::Deterministic);
    cfg.faults = FaultSpec::chaos(seed);
    cfg.capture_output = true;
    run_engine_on_trace(cfg, trace)
}

/// `trace` as a run under `FaultSpec::chaos(seed)` consumes it, and
/// what the ingress pass did to it.
fn faulted(trace: &[(FlowKey, Vec<u8>)], seed: u64) -> (Vec<(FlowKey, Vec<u8>)>, IngressStats) {
    let mut plan = FaultPlan::new(FaultSpec::chaos(seed));
    let input = plan.apply_ingress_keyed(trace.to_vec());
    (input, plan.stats)
}

/// Holds one chaos run to its faulted input: the engine's own ingress
/// accounting, packet conservation, and the oracle. Returns what the
/// receivers got.
fn checked(
    r: &EngineReport,
    oracle: &Oracle<'_>,
    ingress: &IngressStats,
    trace_pkts: u64,
    seed: u64,
    cores: usize,
) -> Delivered {
    assert_eq!(&r.ingress_faults, ingress, "seed {seed} cores {cores}");
    assert_conservation_of(r, trace_pkts, seed, cores);
    let context = format!("seed {seed} cores {cores} (faults {ingress:?})");
    oracle.assert(&r.captured_output, &r.totals, &context)
}

/// Input-side conservation: the engine must account for every packet
/// the faulted trace contains — no more, no fewer. Parameterised over
/// the trace length so externally generated traces (the internet-churn
/// dimension) share the gate.
fn assert_conservation_of(r: &EngineReport, trace_pkts: u64, seed: u64, cores: usize) {
    let f = &r.ingress_faults;
    assert_eq!(
        r.totals.pkts_in,
        trace_pkts - f.dropped + f.duplicated,
        "seed {seed} cores {cores}: ingress accounting broken ({f:?})"
    );
}

/// The matrix itself. For every seed × workload: run all core counts,
/// hold each to the faulted input through the oracle, demand identical
/// delivered streams across them, and demand clean conservation at
/// each point. Any injected panic that escaped the restart path, any
/// leaked pool buffer (debug_assert in the drain), or any byte-stream
/// divergence fails the run.
#[test]
fn chaos_matrix_streams_identical_across_core_counts() {
    let seeds = seed_count();
    let mut restarts_seen = 0u64;
    let mut ingress_faults_seen = 0u64;
    let mut degraded_seen = 0u64;
    for seed in 0..seeds {
        for workload in [WorkloadKind::Tcp, WorkloadKind::Udp] {
            let trace = chaos_trace(workload, seed);
            let (input, ingress) = faulted(&trace, seed);
            let oracle = Oracle::new(&input, chaos_pipe(workload, 1, seed).imtu);
            let mut reference: Option<Delivered> = None;
            for cores in CORE_COUNTS {
                let r = chaos_run(workload, cores, seed, trace.clone());
                let got = checked(&r, &oracle, &ingress, TRACE_PKTS, seed, cores);
                restarts_seen += r.totals.worker_restarts;
                ingress_faults_seen += r.ingress_faults.total();
                degraded_seen += r.totals.degraded_pkts;
                match &reference {
                    None => reference = Some(got),
                    Some(want) => assert!(
                        got == *want,
                        "seed {seed} {workload:?}: delivered streams diverged at {cores} cores \
                         (faults {:?}, restarts {})",
                        r.ingress_faults,
                        r.totals.worker_restarts
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
/// leak asserts and the oracle are exactly the gates the plain matrix
/// enforces.
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
        let (input, ingress) = faulted(&trace, seed);
        let imtu = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, 1).imtu;
        let oracle = Oracle::new(&input, imtu);
        let mut reference: Option<Delivered> = None;
        for cores in CORE_COUNTS {
            let r = churn_run(cores, seed, trace.clone());
            let got = checked(&r, &oracle, &ingress, CHURN_TRACE_PKTS as u64, seed, cores);
            ingress_faults_seen += r.ingress_faults.total();
            idle_evictions += r.totals.flows_evicted_idle;
            pressure_evictions += r.totals.flows_evicted_pressure;
            steered_mice += r.totals.steered_mice_pkts;
            match &reference {
                None => reference = Some(got),
                Some(want) => assert!(
                    got == *want,
                    "seed {seed}: churn streams diverged at {cores} cores \
                     (faults {:?}, evictions idle {} / pressure {})",
                    r.ingress_faults,
                    r.totals.flows_evicted_idle,
                    r.totals.flows_evicted_pressure
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
        let trace = chaos_trace(workload, 7);
        let a = chaos_run(workload, 4, 7, trace.clone());
        let b = chaos_run(workload, 4, 7, trace);
        assert_eq!(a.captured_output, b.captured_output);
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.ingress_faults, b.ingress_faults);
    }
}

/// Faults off, capture on: the oracle passes a clean run and its
/// rebuilt streams are boundary-insensitive (jumbo merges at 1 core vs
/// 8 cores regroup the same bytes), so a matrix failure implicates the
/// datapath, not the test harness.
#[test]
fn clean_runs_digest_identically_across_core_counts() {
    for workload in [WorkloadKind::Tcp, WorkloadKind::Udp] {
        // Chaos seed 0's trace, with the faults off.
        let trace = chaos_trace(workload, 0);
        let oracle = Oracle::new(&trace, chaos_pipe(workload, 1, 0).imtu);
        let delivered: Vec<Delivered> = CORE_COUNTS
            .iter()
            .map(|&cores| {
                let pipe = chaos_pipe(workload, cores, 0);
                let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
                cfg.capture_output = true;
                let r = run_engine_on_trace(cfg, trace.clone());
                oracle.assert(
                    &r.captured_output,
                    &r.totals,
                    &format!("{workload:?} @{cores}"),
                )
            })
            .collect();
        assert!(
            delivered.windows(2).all(|w| w[0] == w[1]),
            "{workload:?}: clean-run delivered streams diverged"
        );
    }
}
