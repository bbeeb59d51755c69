//! The threaded engine's determinism contract, proven end to end:
//!
//! * Deterministic mode produces **bit-identical per-flow output byte
//!   streams and counter totals for a fixed seed across core counts**
//!   (1, 2, 4, 8) — RSS pins each flow to one core and hold-timer polls
//!   happen at trace timestamps, so scheduling cannot leak into output;
//! * Parallel mode (one OS thread per core, each running its own shard
//!   to completion) produces the same content as Deterministic mode —
//!   with the chaos fault schedule armed too, whose worker restarts and
//!   stalls are keyed by per-core batch ordinal;
//! * the engine's steady-state conversion-yield accounting matches the
//!   legacy modeled pipeline exactly, packet for packet.
//!
//! Output is compared through the transparency oracle's per-flow
//! [`Digests`] of the captured packets, and each run's output is also
//! held to its input trace by the [`Oracle`].

mod support;

use packet_express::core::engine::{
    run_engine, run_engine_on_trace, EngineConfig, EngineMode, EngineReport,
};
use packet_express::core::pipeline::{
    run_pipeline, PipelineConfig, SystemVariant, TraceGen, WorkloadKind,
};
use packet_express::faults::{FaultPlan, FaultSpec};
use packet_express::wire::FlowKey;
use support::oracle::{jumbo_at, Digests, Oracle};

/// A fixed-seed config whose seed does NOT depend on the core count
/// (unlike `PipelineConfig::fig5`, which varies the seed per sweep
/// point), so runs at different core counts see the identical trace.
fn pinned(workload: WorkloadKind, cores: usize) -> PipelineConfig {
    let mut pipe = PipelineConfig::fig5(SystemVariant::Px, workload, cores);
    pipe.seed = 0xDE7E_3311;
    pipe.trace_pkts = 10_000;
    pipe.n_flows = 128;
    pipe
}

/// The trace every pinned run consumes, whatever its core count.
fn pinned_trace(workload: WorkloadKind) -> Vec<(FlowKey, Vec<u8>)> {
    let pipe = pinned(workload, 1);
    TraceGen::new(workload, pipe.n_flows, pipe.emtu, pipe.mean_run, pipe.seed)
        .generate(pipe.trace_pkts)
}

/// A captured run of the pinned trace, with `faults` armed, held to
/// its (faulted) input by the oracle.
fn checked_run(
    workload: WorkloadKind,
    cores: usize,
    mode: EngineMode,
    faults: FaultSpec,
) -> EngineReport {
    let trace = pinned_trace(workload);
    let input = FaultPlan::new(faults).apply_ingress_keyed(trace.clone());
    let mut cfg = EngineConfig::new(pinned(workload, cores), mode);
    cfg.faults = faults;
    cfg.capture_output = true;
    let r = run_engine_on_trace(cfg, trace);
    let context = format!("{workload:?} @{cores} {mode:?}");
    Oracle::new(&input, cfg.pipe.imtu).assert(&r.captured_output, &r.totals, &context);
    r
}

fn engine(workload: WorkloadKind, cores: usize, mode: EngineMode) -> EngineReport {
    checked_run(workload, cores, mode, FaultSpec::off())
}

fn digests(r: &EngineReport) -> Digests {
    Digests::of(&r.captured_output, jumbo_at(&pinned(WorkloadKind::Tcp, 1)))
}

/// Digest-equality assertion with a recorder post-mortem: on
/// mismatch, both runs' per-core span timelines are printed so the
/// diverging core and packet are identifiable without a rerun.
fn assert_digests_match(a: &EngineReport, b: &EngineReport, context: &str) {
    if digests(a) != digests(b) {
        eprintln!("--- digest mismatch ({context}); recorder timelines follow ---");
        eprintln!("run A:\n{}", a.obs.dump_recent(64));
        eprintln!("run B:\n{}", b.obs.dump_recent(64));
        panic!("{context}: per-flow digests diverged (timelines above)");
    }
}

#[test]
fn deterministic_output_is_identical_across_core_counts() {
    for workload in [WorkloadKind::Tcp, WorkloadKind::Udp] {
        let reference = engine(workload, 1, EngineMode::Deterministic);
        assert!(!digests(&reference).flows.is_empty());
        for cores in [2usize, 4, 8] {
            let run = engine(workload, cores, EngineMode::Deterministic);
            assert_digests_match(
                &reference,
                &run,
                &format!("{workload:?} @{cores} cores vs 1 core"),
            );
            // Totals match field by field; `batches` legitimately varies
            // with sharding, so it is compared separately below.
            assert_eq!(reference.totals.pkts_in, run.totals.pkts_in);
            assert_eq!(reference.totals.bytes_in, run.totals.bytes_in);
            assert_eq!(reference.totals.pkts_out, run.totals.pkts_out);
            assert_eq!(reference.totals.bytes_out, run.totals.bytes_out);
            assert_eq!(reference.totals.pkts_out_inband, run.totals.pkts_out_inband);
            assert_eq!(
                reference.totals.jumbo_out_inband,
                run.totals.jumbo_out_inband
            );
            assert_eq!(run.per_core.len(), cores);
        }
    }
}

#[test]
fn parallel_threads_match_deterministic_content() {
    for workload in [WorkloadKind::Tcp, WorkloadKind::Udp] {
        for cores in [2usize, 8] {
            let det = engine(workload, cores, EngineMode::Deterministic);
            let par = engine(workload, cores, EngineMode::Parallel);
            assert_digests_match(
                &det,
                &par,
                &format!("{workload:?} @{cores} deterministic vs parallel"),
            );
            assert_eq!(
                det.totals, par.totals,
                "{workload:?} @{cores}: counters diverged"
            );
            assert!(par.wall_ns > 0);
            assert!(par.throughput_bps > 0.0);
        }
    }
}

#[test]
fn parallel_matches_deterministic_under_chaos_faults() {
    // A chaos schedule that restarts workers (a panic every 13
    // batches). Restarts are keyed by (core, per-core batch ordinal),
    // so a driver that shifted burst boundaries between modes would
    // restart different engines at different packets and the captured
    // bytes would diverge.
    let faults = FaultSpec::chaos(17);
    assert_eq!(faults.panic_every_batches, 13);
    for workload in [WorkloadKind::Tcp, WorkloadKind::Udp] {
        for cores in [1usize, 2, 4] {
            let run = |mode| checked_run(workload, cores, mode, faults);
            let det = run(EngineMode::Deterministic);
            let par = run(EngineMode::Parallel);
            let context = format!("{workload:?} @{cores} under chaos");
            assert!(det.totals.worker_restarts > 0, "{context}: no restart");
            assert_digests_match(&det, &par, &context);
            assert_eq!(det.totals, par.totals, "{context}: counters diverged");
            assert_eq!(det.per_core, par.per_core, "{context}: per-core split");
            assert_eq!(det.ingress_faults, par.ingress_faults, "{context}");
            assert!(
                det.captured_output == par.captured_output,
                "{context}: captured output bytes diverged"
            );
            assert!(!par.captured_output.is_empty());
        }
    }
}

#[test]
fn parallel_runs_are_repeatable() {
    let a = engine(WorkloadKind::Tcp, 4, EngineMode::Parallel);
    let b = engine(WorkloadKind::Tcp, 4, EngineMode::Parallel);
    assert_digests_match(&a, &b, "TCP @4 parallel reruns");
    assert_eq!(a.totals, b.totals);
}

#[test]
fn engine_yield_accounting_matches_legacy_pipeline() {
    for workload in [WorkloadKind::Tcp, WorkloadKind::Udp] {
        for cores in [1usize, 4] {
            let pipe = pinned(workload, cores);
            let model = run_pipeline(pipe);
            let real = run_engine(EngineConfig::new(pipe, EngineMode::Deterministic));
            assert_eq!(
                model.pkts_out, real.totals.pkts_out_inband,
                "{workload:?} @{cores}: steady-state output packet counts"
            );
            assert_eq!(model.pkts_in, real.totals.pkts_in);
            assert!(
                (model.conversion_yield - real.conversion_yield).abs() < 1e-12,
                "{workload:?} @{cores}: yield {} vs {}",
                model.conversion_yield,
                real.conversion_yield
            );
        }
    }
}
