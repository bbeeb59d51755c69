//! The per-engine recorder: one span ring and one histogram set, with a
//! disabled mode that compiles down to predicted-branch no-ops.

use crate::hist::HistSet;
use crate::ring::Ring;
use crate::slo::SloSpec;
use crate::snapshot::TimeSample;
use crate::span::Span;

/// Observability configuration, embedded (by `Copy`) in engine configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch. When false nothing allocates and every recording
    /// call is a single predicted branch.
    pub enabled: bool,
    /// Recorder ring capacity per engine, in spans.
    pub span_capacity: usize,
    /// The SLO watchdog objectives evaluated at batch boundaries.
    pub slo: SloSpec,
    /// In Parallel mode, workers publish their counters to the shared
    /// registry every this many batches (0 = only at the end) so
    /// mid-run snapshots and the sampler thread see progress.
    pub publish_every_batches: u64,
    /// Sampler thread interval in microseconds for Parallel-mode
    /// time-series collection (0 disables the sampler).
    pub sample_interval_us: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            span_capacity: 1024,
            slo: SloSpec::default(),
            publish_every_batches: 16,
            sample_interval_us: 1000,
        }
    }
}

impl ObsConfig {
    /// The all-off configuration: no ring, no histograms, no sampler,
    /// no watchdog.
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            span_capacity: 0,
            slo: SloSpec::off(),
            publish_every_batches: 0,
            sample_interval_us: 0,
        }
    }
}

/// Everything one recorder held, detached for report assembly: the
/// ring's spans (oldest first) and the histograms.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// The span ring's contents, oldest first.
    pub spans: Vec<Span>,
    /// The accumulated histograms.
    pub hists: HistSet,
}

/// A span ring and histogram set for one engine/core.
///
/// The default value is the disabled recorder (zero-capacity ring, no
/// heap), so embedding one in an engine costs nothing until
/// observability is switched on.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    enabled: bool,
    spans: Ring<Span>,
    hists: HistSet,
}

impl Recorder {
    /// Builds a recorder for `cfg`, preallocating the span ring when
    /// enabled (so nothing on the recording path ever allocates).
    pub fn new(cfg: ObsConfig) -> Self {
        if !cfg.enabled {
            return Self::default();
        }
        Recorder {
            enabled: true,
            spans: Ring::with_capacity(cfg.span_capacity),
            hists: HistSet::default(),
        }
    }

    /// Whether recording is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one span. Alloc-free; no-op when disabled.
    /// `start_ns`/`dur_ns` must be logical time.
    #[inline]
    pub fn record(&mut self, span: Span) {
        if !self.enabled {
            return;
        }
        self.spans.push(span);
    }

    /// Records one batch's wall time and derives the per-packet cost.
    #[inline]
    pub fn observe_batch(&mut self, wall_ns: u64, pkts: u64) {
        if !self.enabled {
            return;
        }
        self.hists.batch_ns.record(wall_ns);
        if let Some(per_pkt) = wall_ns.checked_div(pkts) {
            self.hists.pkt_ns.record(per_pkt);
        }
    }

    /// Records a merge-aggregate / caravan-bundle dwell time (logical
    /// ns held before emission).
    #[inline]
    pub fn observe_dwell(&mut self, ns: u64) {
        if !self.enabled {
            return;
        }
        self.hists.dwell_ns.record(ns);
    }

    /// Records an output packet's size.
    #[inline]
    pub fn observe_out_size(&mut self, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.hists.out_bytes.record(bytes);
    }

    /// The accumulated histograms.
    pub fn hists(&self) -> &HistSet {
        &self.hists
    }

    /// Always 0: every record is a span. Kept because pxbench's
    /// `sut.rs` sums it with [`spans_recorded`](Self::spans_recorded)
    /// (ROADMAP item 5c drops it there, then here).
    pub fn events_recorded(&self) -> u64 {
        0
    }

    /// Total spans recorded (including ones the ring overwrote).
    pub fn spans_recorded(&self) -> u64 {
        self.spans.written()
    }

    /// The last `n` spans, oldest first (cold path; allocates).
    pub fn recent_spans(&self, n: usize) -> Vec<Span> {
        self.spans.recent(n)
    }

    /// Decodes the last `n` spans into a human-readable timeline, one
    /// line per span — the post-mortem dump format.
    pub fn render_recent(&self, n: usize) -> String {
        let spans = self.spans.recent(n);
        if spans.is_empty() {
            return String::from("  (no spans recorded)");
        }
        render_timeline(&spans)
    }

    /// Drains the recorder: renders the last `n` spans as a timeline
    /// and empties the ring (histograms are kept — they merge upward).
    pub fn drain(&mut self, n: usize) -> String {
        let rendered = self.render_recent(n);
        self.spans.clear();
        rendered
    }

    /// Detaches everything recorded, for report assembly. The recorder
    /// is left disabled: the run that held it is over, so nothing is
    /// re-armed.
    pub fn take(&mut self) -> Telemetry {
        let rec = std::mem::take(self);
        Telemetry {
            spans: rec.spans.recent(rec.spans.len()),
            hists: rec.hists,
        }
    }
}

/// One indented [`Span::render`] line per span.
fn render_timeline(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 64);
    for sp in spans {
        out.push_str("  ");
        out.push_str(&sp.render());
        out.push('\n');
    }
    out
}

/// Observability results attached to an engine run report.
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// Whether the run recorded anything.
    pub enabled: bool,
    /// Histograms merged over every core.
    pub hists: HistSet,
    /// Each core's recorder contents, oldest first.
    pub per_core_spans: Vec<Vec<Span>>,
    /// The SLO watchdog tallies, merged over every core.
    pub slo: crate::slo::SloWatchdog,
    /// Periodic whole-engine samples from the in-run sampler thread
    /// (Parallel mode; a single final sample otherwise).
    pub time_series: Vec<TimeSample>,
}

impl ObsReport {
    /// The empty report for disabled-observability runs.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Renders the last `n` spans of every core as a post-mortem
    /// timeline — what failing engine tests print.
    pub fn dump_recent(&self, n: usize) -> String {
        if !self.enabled {
            return String::from("(observability disabled for this run)");
        }
        let mut out = String::new();
        for (core, spans) in self.per_core_spans.iter().enumerate() {
            let start = spans.len().saturating_sub(n);
            out.push_str(&format!(
                "core {core} (last {} of {} spans):\n",
                spans.len() - start,
                spans.len()
            ));
            out.push_str(&render_timeline(spans.get(start..).unwrap_or_default()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanCat;

    fn sp(cat: SpanCat, start_ns: u64) -> Span {
        Span::instant(cat, start_ns, 1500, crate::flow_id(5000, 80), 0)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(ObsConfig::disabled());
        r.record(sp(SpanCat::Classify, 1));
        r.observe_batch(100, 32);
        r.observe_out_size(9000);
        assert_eq!(r.spans_recorded(), 0);
        assert_eq!(r.hists().batch_ns.count(), 0);
        assert_eq!(r.hists().out_bytes.count(), 0);
        assert!(!r.is_enabled());
    }

    #[test]
    fn enabled_recorder_accumulates_and_drains() {
        let mut r = Recorder::new(ObsConfig::default());
        for t in 0..10 {
            r.record(sp(SpanCat::Classify, t));
        }
        r.observe_batch(3200, 32);
        assert_eq!(r.spans_recorded(), 10);
        assert_eq!(r.recent_spans(4).len(), 4);
        assert_eq!(r.hists().pkt_ns.count(), 1);
        let timeline = r.drain(4);
        assert_eq!(timeline.lines().count(), 4, "{timeline}");
        assert!(timeline.contains("classify"));
        assert_eq!(r.spans_recorded(), 0, "drain resets the ring");
        assert_eq!(r.hists().batch_ns.count(), 1, "histograms survive drain");
    }

    #[test]
    fn take_detaches_spans_and_hists() {
        let cfg = ObsConfig {
            span_capacity: 8,
            ..ObsConfig::default()
        };
        let mut r = Recorder::new(cfg);
        for t in 0..20 {
            r.record(sp(SpanCat::Batch, t));
        }
        r.observe_dwell(500);
        let first = r.take();
        assert_eq!(first.spans.len(), 8, "capacity-bounded");
        assert_eq!(first.spans.first().map(|s| s.start_ns), Some(12));
        assert_eq!(first.hists.dwell_ns.count(), 1);
        assert!(!r.is_enabled(), "take leaves the disabled recorder");
        assert_eq!(r.spans_recorded(), 0);
        assert_eq!(r.hists().dwell_ns.count(), 0);
    }

    #[test]
    fn obs_report_dump_groups_by_core() {
        let report = ObsReport {
            enabled: true,
            per_core_spans: vec![vec![Span::default(); 3], vec![sp(SpanCat::Merge, 7)]],
            ..ObsReport::disabled()
        };
        let dump = report.dump_recent(2);
        assert!(dump.contains("core 0 (last 2 of 3 spans):"), "{dump}");
        assert!(dump.contains("core 1 (last 1 of 1 spans):"), "{dump}");
        assert!(dump.contains("[t=7ns +0ns] merge"), "{dump}");
        assert_eq!(dump.lines().count(), 5, "{dump}");
    }
}
