//! The one telemetry record: a [`Span`] per datapath happening.
//!
//! A span covers an *interval* of a flow's lifecycle — the dwell of a
//! merge aggregate from first segment to emission, a caravan bundle's
//! fill window — or, with `dur_ns == 0`, marks an instant: a classifier
//! verdict, a steering decision, a typed drop, a batch boundary, a
//! degrade-ladder edge.
//! Spans carry **logical time only** (trace arrival timestamps or
//! per-engine packet counters), so recording them in Deterministic mode
//! cannot perturb digests and span streams are bit-identical across
//! reruns and across `Parallel`/`Deterministic` scheduling.
//!
//! Spans live in one per-core [`Ring`](crate::Ring): preallocated at
//! enable time, recording is a bounds-checked store (px-analyze R5),
//! overwrite-oldest when full.
//!
//! Causality: an emission span (category [`SpanCat::Merge`] or
//! [`SpanCat::Caravan`]) carries a nonzero `link` identifier; the split
//! spans consuming that jumbo on the egress side carry the same `link`.
//! [`perfetto_json`] turns each shared identifier into a
//! chrome://tracing flow arrow (`ph:"s"` / `ph:"f"`), so the producing
//! merge and the consuming split render connected in Perfetto.

/// What a span records.
///
/// The names double as Perfetto categories. Exports carry the names,
/// never the discriminants, which only number [`SpanCat::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum SpanCat {
    /// One per input packet, as it enters a core's engine (`len` = wire
    /// bytes, `aux`: 1 = flow-keyed, 0 = not).
    #[default]
    Classify = 0,
    /// A packet forwarded past merging (`aux`: 1 = a mouse steered by
    /// the mice/elephant classifier, 2 = passthrough).
    Steer = 1,
    /// A TCP merge aggregate's dwell: first held segment → emission
    /// (`aux` = segments merged, `link` = causal emission id).
    Merge = 2,
    /// A UDP caravan bundle's fill window: first datagram → emission
    /// (`aux` = inner datagrams, `link` = causal emission id).
    Caravan = 3,
    /// A split-engine emission consuming a jumbo (`link` matches the
    /// producing Merge/Caravan span when known).
    Split = 4,
    /// A flow-table eviction. `flow` identifies the *victim*; `aux` is
    /// the reason: 1 = idle (a classifier slot churned out, nothing
    /// pending), 2 = pressure (the victim held unflushed merge/bundle
    /// bytes and was rescue-flushed, never dropped).
    Evict = 5,
    /// One packet forwarded unmerged (or, with the spare gone, dropped
    /// as backpressure) on the degrade ladder's passthrough rung —
    /// recorded per degraded packet, not per episode (`aux` = cause:
    /// 1 pool exhaustion, 2 table denial; DESIGN.md §12).
    Degrade = 6,
    /// An SLO watchdog alert (`aux` = breach bitmask, see
    /// [`crate::slo`]).
    Slo = 7,
    /// A typed drop (`aux` = one of [`drop_reason`]).
    Drop = 8,
    /// A worker finished one batch (`len` = packets in the batch,
    /// `start_ns` = the last packet's logical arrival). The batch's
    /// wall time goes to the histograms only.
    Batch = 9,
    /// The engine entered degraded (passthrough) mode: an aggregate
    /// could not be created, so packets are forwarded unmerged instead
    /// of dropped (`aux` = cause, as for [`SpanCat::Degrade`]).
    DegradeEnter = 10,
    /// The pressure subsided: an aggregate creation succeeded again and
    /// the engine resumed merging.
    DegradeExit = 11,
}

/// Why a [`SpanCat::Drop`] span's packet was dropped (its `aux`).
pub mod drop_reason {
    /// Corrupt bundle, unparsable oversize packet, failed header emit.
    pub const MALFORMED: u64 = 0;
    /// Same range, different bytes than the flow's merge aggregate
    /// already attests — injection.
    pub const INCONSISTENT_OVERLAP: u64 = 1;
    /// A segment straddling the aggregate's base, smuggling bytes the
    /// engine can no longer verify.
    pub const OVERLAP_EVASION: u64 = 2;
}

impl SpanCat {
    /// Every category, in discriminant order.
    pub const ALL: [SpanCat; 12] = [
        SpanCat::Classify,
        SpanCat::Steer,
        SpanCat::Merge,
        SpanCat::Caravan,
        SpanCat::Split,
        SpanCat::Evict,
        SpanCat::Degrade,
        SpanCat::Slo,
        SpanCat::Drop,
        SpanCat::Batch,
        SpanCat::DegradeEnter,
        SpanCat::DegradeExit,
    ];

    /// The category's display name (also the Perfetto `cat` field).
    pub fn name(self) -> &'static str {
        match self {
            SpanCat::Classify => "classify",
            SpanCat::Steer => "steer",
            SpanCat::Merge => "merge",
            SpanCat::Caravan => "caravan",
            SpanCat::Split => "split",
            SpanCat::Evict => "evict",
            SpanCat::Degrade => "degrade",
            SpanCat::Slo => "slo",
            SpanCat::Drop => "drop",
            SpanCat::Batch => "batch",
            SpanCat::DegradeEnter => "degrade_enter",
            SpanCat::DegradeExit => "degrade_exit",
        }
    }
}

/// One telemetry record. `Copy`, 48 bytes, no heap. The default is the
/// all-zero span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Logical start time (trace-arrival ns or per-engine counter).
    /// Never wall-clock.
    pub start_ns: u64,
    /// Logical duration (0 for instantaneous markers).
    pub dur_ns: u64,
    /// Category-specific payload (segment counts, eviction reason,
    /// breach bitmask — see [`SpanCat`]).
    pub aux: u64,
    /// Causal link identifier (0 = unlinked). Shared between a
    /// merge/caravan emission span and the split spans consuming it.
    pub link: u64,
    /// The flow the span belongs to ([`flow_id`] packing); 0 when the
    /// flow is unknown or not applicable.
    pub flow: u32,
    /// Bytes involved (emitted packet length, bundle size, …).
    pub len: u32,
    /// What happened.
    pub cat: SpanCat,
}

impl Span {
    /// An instantaneous, unlinked span at logical time `at_ns`.
    #[inline]
    pub fn instant(cat: SpanCat, at_ns: u64, len: usize, flow: u32, aux: u64) -> Span {
        Span {
            cat,
            start_ns: at_ns,
            len: len as u32,
            flow,
            aux,
            ..Span::default()
        }
    }

    /// One-line human-readable rendering (post-mortem dumps), e.g.
    /// `[t=100ns +50ns] merge len=8800 flow=5000->80 aux=6 link=1`.
    pub fn render(&self) -> String {
        let src = (self.flow >> 16) as u16;
        let dst = (self.flow & 0xFFFF) as u16;
        format!(
            "[t={}ns +{}ns] {} len={} flow={src}->{dst} aux={} link={}",
            self.start_ns,
            self.dur_ns,
            self.cat.name(),
            self.len,
            self.aux,
            self.link
        )
    }
}

/// Packs a port pair into the [`Span::flow`] field.
#[inline]
pub fn flow_id(src_port: u16, dst_port: u16) -> u32 {
    (u32::from(src_port) << 16) | u32::from(dst_port)
}

/// Escapes nothing: span fields are all numeric and category names are
/// static identifiers, so the JSON below needs no string escaping.
fn push_span_json(out: &mut String, sp: &Span, tid: usize, first: &mut bool) {
    let src = (sp.flow >> 16) as u16;
    let dst = (sp.flow & 0xFFFF) as u16;
    let ts_us = sp.start_ns as f64 / 1000.0;
    let dur_us = sp.dur_ns as f64 / 1000.0;
    let sep = if *first { "" } else { ",\n" };
    *first = false;
    out.push_str(&format!(
        "{sep}  {{\"name\": \"{name} {src}->{dst}\", \"cat\": \"{cat}\", \"ph\": \"X\", \
         \"ts\": {ts_us:.3}, \"dur\": {dur_us:.3}, \"pid\": 1, \"tid\": {tid}, \
         \"args\": {{\"flow\": {flow}, \"len\": {len}, \"aux\": {aux}, \"link\": {link}}}}}",
        name = sp.cat.name(),
        cat = sp.cat.name(),
        flow = sp.flow,
        len = sp.len,
        aux = sp.aux,
        link = sp.link,
    ));
    if sp.link != 0 {
        // Producer side starts the flow arrow; consumers finish it.
        let (ph, extra) = match sp.cat {
            SpanCat::Merge | SpanCat::Caravan => ("s", ""),
            _ => ("f", ", \"bp\": \"e\""),
        };
        out.push_str(&format!(
            ",\n  {{\"name\": \"jumbo\", \"cat\": \"link\", \"ph\": \"{ph}\", \"id\": {link}, \
             \"ts\": {ts:.3}, \"pid\": 1, \"tid\": {tid}{extra}}}",
            link = sp.link,
            ts = ts_us + dur_us,
        ));
    }
}

/// Renders per-core span streams as Perfetto / chrome://tracing JSON
/// (the `traceEvents` object form). `flow_filter` restricts the export
/// to one flow id; links are emitted as chrome flow-event pairs.
pub fn perfetto_json(per_core: &[Vec<Span>], flow_filter: Option<u32>) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    for (core, spans) in per_core.iter().enumerate() {
        let sep = if first { "" } else { ",\n" };
        out.push_str(&format!(
            "{sep}  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {core}, \
             \"args\": {{\"name\": \"core {core}\"}}}}",
        ));
        first = false;
        for sp in spans {
            if flow_filter.is_some_and(|f| sp.flow != f) {
                continue;
            }
            push_span_json(&mut out, sp, core, &mut first);
        }
    }
    out.push_str("\n], \"displayTimeUnit\": \"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(start: u64, cat: SpanCat) -> Span {
        Span {
            start_ns: start,
            dur_ns: 10,
            cat,
            flow: crate::flow_id(5000, 80),
            len: 1460,
            ..Span::default()
        }
    }

    #[test]
    fn span_fits_the_48_byte_budget() {
        assert!(
            std::mem::size_of::<Span>() <= 48,
            "Span is {} bytes",
            std::mem::size_of::<Span>()
        );
    }

    #[test]
    fn categories_are_stable_and_distinctly_named() {
        for (i, cat) in SpanCat::ALL.iter().enumerate() {
            assert_eq!(*cat as usize, i, "{cat:?}");
        }
        let names: std::collections::HashSet<_> = SpanCat::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), SpanCat::ALL.len());
    }

    #[test]
    fn span_render_decodes_ports() {
        let s = sp(42, SpanCat::Caravan);
        let line = s.render();
        assert!(line.contains("caravan"), "{line}");
        assert_eq!(s.flow, (5000u32 << 16) | 80);
        assert!(line.contains("5000->80"), "{line}");
        assert!(line.contains("t=42ns"), "{line}");
    }

    #[test]
    fn perfetto_json_is_valid_and_linked() {
        let mut producer = sp(100, SpanCat::Merge);
        producer.link = 7;
        let mut consumer = sp(200, SpanCat::Split);
        consumer.link = 7;
        let text = perfetto_json(&[vec![producer], vec![consumer]], None);
        assert!(text.starts_with("{\"traceEvents\": ["));
        assert!(text.contains("\"ph\": \"X\""));
        assert!(text.contains("\"ph\": \"s\""), "{text}");
        assert!(text.contains("\"ph\": \"f\""), "{text}");
        assert!(text.contains("\"cat\": \"merge\""));
        assert!(text.contains("\"cat\": \"split\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes, "{text}");
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn flow_filter_restricts_export() {
        let a = sp(1, SpanCat::Merge);
        let mut b = sp(2, SpanCat::Merge);
        b.flow = crate::flow_id(6000, 80);
        let text = perfetto_json(&[vec![a, b]], Some(a.flow));
        assert!(text.contains(&format!("\"flow\": {}", a.flow)));
        assert!(!text.contains(&format!("\"flow\": {}", b.flow)));
    }
}
