//! Property tests for the span recorder: per-core span streams conserve
//! packets against the engine's own counters.
//!
//! The conservation laws — for every core, over a Deterministic run
//! whose span rings are large enough that nothing is overwritten — pin
//! one category each to its counter: `Classify` (the only per-packet
//! record) to `pkts_in`, `Batch` to `batches`, `Steer(aux = 1)` to
//! `steered_mice_pkts`, `Degrade` to `degraded_pkts +
//! backpressure_drops`, `Evict` to the two eviction counters,
//! `Drop(aux)` to the matching `dropped_*` counter; the spans recorded
//! equal the sum over the categories; and on fault-free input there is
//! exactly one `Merge`/`Caravan`/`Steer` span per emitted packet.
//!
//! Holding this across 1/2/4/8 cores, both workloads, steering on/off,
//! the seeded attack trace and the seeded chaos schedule means no
//! recording site is missing, doubled, or misattributed — the span
//! stream is a faithful retelling of what the counters tally.

use proptest::prelude::*;
use px_core::engine::{run_engine, run_engine_on_trace, EngineConfig, EngineMode, EngineReport};
use px_core::pipeline::{PipelineConfig, SystemVariant, WorkloadKind};
use px_core::steer::SteerConfig;
use px_faults::{attack, FaultSpec};
use px_obs::{drop_reason, ObsConfig, SloSpec, Span, SpanCat};

fn count(spans: &[Span], cat: SpanCat) -> u64 {
    spans.iter().filter(|s| s.cat == cat).count() as u64
}

fn count_aux(spans: &[Span], cat: SpanCat, aux: u64) -> u64 {
    spans
        .iter()
        .filter(|s| s.cat == cat && s.aux == aux)
        .count() as u64
}

/// What drives the engine in one case.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Input {
    /// The built-in Fig. 5 trace, fault-free.
    Clean,
    /// The seeded injection / overlap / duplicate / reorder trace
    /// (typed drops).
    Attack,
    /// The built-in trace under the seeded chaos schedule (degradation,
    /// ingress faults).
    Chaos,
}

fn run(input: Input, mut cfg: EngineConfig, seed: u64) -> EngineReport {
    match input {
        Input::Clean => run_engine(cfg),
        Input::Attack => {
            cfg.pipe.n_flows = 6;
            run_engine_on_trace(cfg, attack::tcp_attack_trace(seed, 6, 12).pkts)
        }
        Input::Chaos => {
            cfg.faults = FaultSpec::chaos(seed);
            run_engine(cfg)
        }
    }
}

proptest! {
    // Each case is a full (small) engine run; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn span_streams_conserve_packets(
        cores_idx in 0usize..4,
        tcp in any::<bool>(),
        steer_on in any::<bool>(),
        trace_pkts in 128usize..768,
        input_idx in 0usize..3,
        seed in 0u64..64,
    ) {
        let cores_sel = [1usize, 2, 4, 8][cores_idx];
        let input = [Input::Clean, Input::Attack, Input::Chaos][input_idx];
        let workload = if tcp || input == Input::Attack {
            WorkloadKind::Tcp
        } else {
            WorkloadKind::Udp
        };
        let mut pipe = PipelineConfig::fig5(SystemVariant::Px, workload, cores_sel);
        pipe.trace_pkts = trace_pkts;
        if steer_on {
            // An aggressive elephant threshold so both steered mice and
            // merged elephants appear even in short runs.
            pipe.steer = Some(SteerConfig {
                elephant_pkts: 4,
                ..SteerConfig::default()
            });
        }
        let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
        cfg.obs = ObsConfig {
            // Large enough that no span of the run is overwritten —
            // conservation counting needs the complete stream.
            span_capacity: 1 << 16,
            slo: SloSpec::demo(),
            ..ObsConfig::default()
        };
        let r = run(input, cfg, seed);

        prop_assert_eq!(r.obs.per_core_spans.len(), cores_sel);
        prop_assert_eq!(r.per_core.len(), cores_sel);
        let mut classify_total = 0u64;
        for (core, (spans, counters)) in
            r.obs.per_core_spans.iter().zip(r.per_core.iter()).enumerate()
        {
            let classify = count(spans, SpanCat::Classify);
            prop_assert_eq!(
                classify, counters.pkts_in,
                "core {}: Classify spans vs pkts_in", core
            );
            classify_total += classify;
            prop_assert_eq!(
                count(spans, SpanCat::Batch), counters.batches,
                "core {}: Batch spans vs batches", core
            );
            prop_assert_eq!(
                count_aux(spans, SpanCat::Steer, 1),
                counters.steered_mice_pkts,
                "core {}: Steer(mice) spans vs steered_mice_pkts", core
            );
            prop_assert_eq!(
                count(spans, SpanCat::Degrade),
                counters.degraded_pkts + counters.backpressure_drops,
                "core {}: Degrade spans vs degraded + dropped", core
            );
            prop_assert_eq!(
                count(spans, SpanCat::Evict),
                counters.flows_evicted_idle + counters.flows_evicted_pressure,
                "core {}: Evict spans vs evictions", core
            );
            for (reason, dropped) in [
                (drop_reason::MALFORMED, counters.dropped_malformed),
                (drop_reason::INCONSISTENT_OVERLAP, counters.dropped_inconsistent_overlap),
                (drop_reason::OVERLAP_EVASION, counters.dropped_overlap_evasion),
            ] {
                prop_assert_eq!(
                    count_aux(spans, SpanCat::Drop, reason), dropped,
                    "core {}: Drop(aux {}) spans vs its counter", core, reason
                );
            }
            // Nothing is recorded outside the categories, and an
            // emission is one record.
            let by_cat: u64 = SpanCat::ALL.iter().map(|c| count(spans, *c)).sum();
            prop_assert_eq!(spans.len() as u64, by_cat, "core {}: spans vs Σ categories", core);
            if input == Input::Clean {
                let emitted = count(spans, SpanCat::Merge)
                    + count(spans, SpanCat::Caravan)
                    + count(spans, SpanCat::Steer);
                prop_assert_eq!(
                    emitted, counters.pkts_out - counters.degraded_pkts,
                    "core {}: one Merge/Caravan/Steer span per emitted packet", core
                );
            }
        }
        // Cross-core closure: the classifier saw every packet.
        prop_assert_eq!(classify_total, r.totals.pkts_in);
        if input == Input::Clean {
            prop_assert_eq!(r.totals.pkts_in, trace_pkts as u64);
        }
    }
}
