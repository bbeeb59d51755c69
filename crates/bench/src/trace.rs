//! `figures trace` — a Perfetto-loadable flow-lifecycle trace sample.
//!
//! Runs the Deterministic engine over the Fig. 5 TCP and UDP workloads
//! with the span recorder armed, replays every captured merge emission
//! through egress split engines (stamping the producing span's causal
//! link onto the consuming `Split` spans), and renders the combined
//! per-lane span streams as chrome://tracing JSON via
//! [`px_obs::perfetto_json`].
//!
//! Deterministic mode means the exported trace is bit-identical across
//! reruns — the committed `TRACE_sample.json` regenerates exactly.
//!
//! Lane layout in the export: lanes `0..cores` are the TCP merge-side
//! cores, `cores..2*cores` the egress split engines consuming their
//! jumbos, `2*cores..3*cores` the UDP caravan cores.

use crate::Scale;
use px_core::engine::{run_engine, EngineConfig, EngineMode, EngineReport};
use px_core::pipeline::{PipelineConfig, SystemVariant, WorkloadKind};
use px_core::split::SplitEngine;
use px_obs::{perfetto_json, ObsConfig, SloSpec, Span, SpanCat};
use px_wire::PacketBuf;

/// Gateway cores per leg (merge-side lanes; the split and caravan legs
/// mirror it).
pub const CORES: usize = 4;

/// The outcome of a trace run: the Perfetto JSON plus the span census
/// the renderer and CI gates assert against.
#[derive(Debug, Clone)]
pub struct TraceRun {
    /// The full Perfetto / chrome://tracing JSON document.
    pub json: String,
    /// Distinct span categories present, in [`SpanCat`] order.
    pub categories: Vec<&'static str>,
    /// Spans exported across every lane.
    pub spans_total: usize,
    /// TCP merge-emission spans (each carries a causal link id).
    pub merge_spans: usize,
    /// UDP caravan-emission spans.
    pub caravan_spans: usize,
    /// Egress split spans produced by replaying captured jumbos.
    pub split_spans: usize,
    /// Split spans whose link matches a producing merge span.
    pub linked_splits: usize,
    /// Lanes in the export.
    pub lanes: usize,
}

/// Span-tracing configuration for the trace legs: a ring big enough to
/// hold every span of the run (the census below assumes nothing was
/// overwritten) and the demo SLO armed so watchdog alerts would appear
/// as `slo` spans if an objective tripped.
fn obs_cfg() -> ObsConfig {
    ObsConfig {
        span_capacity: 1 << 16,
        slo: SloSpec::demo(),
        ..ObsConfig::default()
    }
}

fn leg(workload: WorkloadKind, trace_pkts: usize, capture: bool) -> EngineReport {
    let mut pipe = PipelineConfig::fig5(SystemVariant::Px, workload, CORES);
    pipe.trace_pkts = trace_pkts;
    let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
    cfg.capture_output = capture;
    cfg.obs = obs_cfg();
    run_engine(cfg)
}

/// Runs both legs, replays captured jumbos through split engines, and
/// assembles the Perfetto export.
pub fn run(scale: Scale) -> TraceRun {
    let trace_pkts = match scale {
        Scale::Full => 1_600,
        Scale::Quick => 320,
    };

    // Leg 1 — TCP: merge-side spans plus every emitted packet, captured
    // in core order so output[i] pairs with that core's i-th Merge span
    // (the Fig. 5 config steers nothing: every emission is a merge
    // emission and records exactly one Merge span).
    let tcp = leg(WorkloadKind::Tcp, trace_pkts, true);
    let emtu = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, CORES).emtu;
    let mut lanes: Vec<Vec<Span>> = tcp.obs.per_core_spans.clone();
    let mut captured = tcp.captured_output.iter();
    let mut split_lanes: Vec<Vec<Span>> = Vec::with_capacity(CORES);
    for spans in &tcp.obs.per_core_spans {
        let mut split = SplitEngine::new(emtu);
        split.enable_obs(obs_cfg());
        for sp in spans.iter().filter(|s| s.cat == SpanCat::Merge) {
            let jumbo = captured
                .next()
                .expect("every Merge span pairs with one captured emission");
            split.set_span_link(sp.link);
            let mut sink = |b: PacketBuf| Some(b);
            split.push_into(jumbo, &mut sink);
        }
        split_lanes.push(split.obs.recent_spans(usize::MAX));
    }
    assert!(
        captured.next().is_none(),
        "captured outputs must be exhausted by the per-core Merge spans"
    );
    lanes.extend(split_lanes);

    // Leg 2 — UDP: caravan-side spans (classify, bundle fill windows,
    // batch boundaries).
    let udp = leg(WorkloadKind::Udp, trace_pkts, false);
    lanes.extend(udp.obs.per_core_spans.clone());

    // Census over the assembled lanes.
    let merge_links: std::collections::HashSet<u64> = lanes
        .iter()
        .flatten()
        .filter(|s| s.cat == SpanCat::Merge)
        .map(|s| s.link)
        .collect();
    let count = |cat: SpanCat| lanes.iter().flatten().filter(|s| s.cat == cat).count();
    let merge_spans = count(SpanCat::Merge);
    let caravan_spans = count(SpanCat::Caravan);
    let split_spans = count(SpanCat::Split);
    let linked_splits = lanes
        .iter()
        .flatten()
        .filter(|s| s.cat == SpanCat::Split && merge_links.contains(&s.link))
        .count();
    let categories: Vec<&'static str> = SpanCat::ALL
        .iter()
        .filter(|c| count(**c) > 0)
        .map(|c| c.name())
        .collect();
    let spans_total = lanes.iter().map(Vec::len).sum();

    TraceRun {
        json: perfetto_json(&lanes, None),
        categories,
        spans_total,
        merge_spans,
        caravan_spans,
        split_spans,
        linked_splits,
        lanes: lanes.len(),
    }
}

/// Renders the trace census (the JSON itself is written to disk by the
/// `figures` binary).
pub fn render(r: &TraceRun) -> String {
    let mut s = String::new();
    s.push_str("Flow-lifecycle trace sample (Perfetto JSON)\n");
    s.push_str(&format!(
        "  lanes: {}   spans: {}   bytes: {}\n",
        r.lanes,
        r.spans_total,
        r.json.len()
    ));
    s.push_str(&format!("  categories: {}\n", r.categories.join(", ")));
    s.push_str(&format!(
        "  merge emissions: {}   caravan bundles: {}   split emissions: {} ({} causally linked)\n",
        r.merge_spans, r.caravan_spans, r.split_spans, r.linked_splits
    ));
    s.push_str("  load in https://ui.perfetto.dev or chrome://tracing\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_sample_has_linked_lifecycle_categories() {
        let t = run(Scale::Quick);
        // ≥ 4 distinct categories — the ISSUE acceptance floor.
        assert!(
            t.categories.len() >= 4,
            "expected ≥4 span categories, got {:?}",
            t.categories
        );
        for want in ["classify", "merge", "caravan", "split", "batch"] {
            assert!(
                t.categories.contains(&want),
                "missing {want}: {:?}",
                t.categories
            );
        }
        assert!(t.merge_spans > 0);
        assert!(t.caravan_spans > 0);
        // Every split span descends from a captured merge emission.
        assert!(t.split_spans > 0);
        assert_eq!(t.linked_splits, t.split_spans);
        assert_eq!(t.lanes, 3 * CORES);
        // Cheap well-formedness: balanced structure, correct envelope.
        assert!(t.json.starts_with("{\"traceEvents\": ["));
        assert_eq!(t.json.matches('{').count(), t.json.matches('}').count());
        assert_eq!(t.json.matches('[').count(), t.json.matches(']').count());
        let render = render(&t);
        assert!(render.contains("causally linked"));
    }

    #[test]
    fn trace_export_is_deterministic() {
        // Deterministic mode + logical-time spans: regenerating the
        // sample must be byte-identical.
        let a = run(Scale::Quick);
        let b = run(Scale::Quick);
        assert_eq!(a.json, b.json);
    }
}
