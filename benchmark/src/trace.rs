//! The traced run: spans recorded from the benchmark's own side of each
//! call into the program, into a preallocated buffer, written out when
//! the run ends.
//!
//! The staged loop below is the loop with its stages pulled apart the way
//! the engine's worker runs them — batch parse, then translate, then the
//! end-of-input tick — so each stage has a boundary a span can sit on.
//! It is generic over the tracer: with [`Off`] every hook compiles to
//! nothing, and the same code timed both ways gives the cost of tracing
//! itself (`trace.overhead_frac`). Timed reps never run this; spans
//! inside the program are a later change.

use crate::gen::now_of;
use crate::json::Value;
use crate::measure::{Datapath, BURST};
use crate::sut::{
    parse_batch_with, CoreEngine, FlowKey, IpProtocol, PacketBuf, PacketSink, ParsedMeta, SgPacket,
};
use std::time::Instant;

pub const NAMES: [&str; 6] = [
    "burst",
    "wire.batchparse",
    "core.translate",
    "sink.accept",
    "core.poll",
    "engine.run",
];
pub const BURST_SPAN: u8 = 0;
pub const BATCHPARSE: u8 = 1;
pub const TRANSLATE: u8 = 2;
pub const ACCEPT: u8 = 3;
pub const POLL: u8 = 4;
pub const ENGINE_RUN: u8 = 5;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: u8,
    pub parent: u32,
    /// The burst this span belongs to: the identifier its spans share.
    pub burst: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Packets and bytes that crossed this boundary.
    pub pkts: u32,
    pub bytes: u64,
}

pub trait Tracer {
    /// Opens a span under the innermost open one; returns its id.
    fn open(&mut self, name: u8, burst: u32) -> u32;
    /// Closes the innermost open span with the counts that crossed it.
    fn close(&mut self, id: u32, pkts: u32, bytes: u64);
}

/// Tracing compiled out.
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn open(&mut self, _name: u8, _burst: u32) -> u32 {
        0
    }
    #[inline(always)]
    fn close(&mut self, _id: u32, _pkts: u32, _bytes: u64) {}
}

/// Spans in a buffer sized before the run: recording never allocates.
pub struct Recording {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Parent and end of the span closed last.
    last_closed: (u32, u64),
    /// Spans that did not fit the buffer (reported, never silently lost).
    pub overflowed: u64,
}

impl Recording {
    pub fn with_capacity(spans: usize) -> Self {
        Recording {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
            last_closed: (NO_PARENT, 0),
            overflowed: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Tracer for Recording {
    fn open(&mut self, name: u8, burst: u32) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.overflowed += 1;
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        // A stage starts where the stage before it ended, so bursts tile
        // the loop and stages tile their burst; the few instructions
        // between two stages count as the later one's self time. A
        // delivery is not a stage, nor is the whole-engine call: they
        // start when they happen.
        let start_ns = match self.last_closed {
            (p, end) if p == parent && end != 0 && !matches!(name, ACCEPT | ENGINE_RUN) => end,
            _ => self.now(),
        };
        self.spans.push(Span {
            name,
            parent,
            burst,
            start_ns,
            end_ns: 0,
            pkts: 0,
            bytes: 0,
        });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: u32, pkts: u32, bytes: u64) {
        if id == NO_PARENT {
            return;
        }
        let end = self.now();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        let span = &mut self.spans[id as usize];
        self.last_closed = (span.parent, end);
        span.end_ns = end;
        span.pkts = pkts;
        span.bytes = bytes;
    }
}

/// Wraps the loop's sink so every delivery is a `sink.accept` span.
struct TracedSink<'a, S, T> {
    inner: &'a mut S,
    tracer: &'a mut T,
    burst: u32,
}

impl<S: PacketSink, T: Tracer> PacketSink for TracedSink<'_, S, T> {
    fn accept(&mut self, buf: PacketBuf) -> Option<PacketBuf> {
        let id = self.tracer.open(ACCEPT, self.burst);
        let bytes = buf.as_slice().len() as u64;
        let back = self.inner.accept(buf);
        self.tracer.close(id, 1, bytes);
        back
    }

    fn push_sg(&mut self, pkt: SgPacket<'_>) -> Option<PacketBuf> {
        let id = self.tracer.open(ACCEPT, self.burst);
        let bytes = (pkt.header().len() + pkt.payload().len()) as u64;
        let back = self.inner.push_sg(pkt);
        self.tracer.close(id, 1, bytes);
        back
    }
}

/// The loop, stage by stage. Returns its wall time in ns.
pub fn staged_loop<S: PacketSink, T: Tracer>(
    dp: &mut Datapath,
    pkts: Vec<(FlowKey, Vec<u8>)>,
    offered_pps: f64,
    sink: &mut S,
    tracer: &mut T,
) -> f64 {
    let start = Instant::now();
    let mut metas: Vec<ParsedMeta> = Vec::with_capacity(BURST);
    let mut batch: Vec<(FlowKey, Vec<u8>)> = Vec::with_capacity(BURST);
    let mut it = pkts.into_iter();
    let mut idx = 0usize;
    let mut burst = 0u32;
    loop {
        batch.clear();
        batch.extend(it.by_ref().take(BURST));
        if batch.is_empty() {
            break;
        }
        let n = batch.len() as u32;
        let bytes: u64 = batch.iter().map(|(_, p)| p.len() as u64).sum();
        let burst_id = tracer.open(BURST_SPAN, burst);

        // Only the merge engine consumes a batch parse; the worker runs
        // it for no other variant, so neither does this loop.
        let parsed = matches!(dp, Datapath::Core(CoreEngine::Merge(_)));
        if parsed {
            let id = tracer.open(BATCHPARSE, burst);
            parse_batch_with(&batch, |(_, p)| p.as_slice(), &mut metas);
            tracer.close(id, n, bytes);
        }

        let id = tracer.open(TRANSLATE, burst);
        {
            let mut traced = TracedSink {
                inner: &mut *sink,
                tracer: &mut *tracer,
                burst,
            };
            for (i, (key, pkt)) in batch.drain(..).enumerate() {
                let now = now_of(idx, offered_pps);
                idx += 1;
                match dp {
                    Datapath::Core(engine) if parsed => {
                        engine.push_parsed_into(now, pkt, &metas[i], &mut traced)
                    }
                    Datapath::Core(engine) => engine.push_into(now, pkt, &mut traced),
                    Datapath::Egress { split, caravan } => match key.proto {
                        IpProtocol::Udp => caravan.push_outbound_into(&pkt, &mut traced),
                        _ => split.push_into(&pkt, &mut traced),
                    },
                }
            }
        }
        tracer.close(id, n, bytes);
        tracer.close(burst_id, n, bytes);
        burst += 1;
    }
    // End of input: tick the hold timers, as the engine's quiesce does.
    let id = tracer.open(POLL, burst);
    {
        let mut traced = TracedSink {
            inner: &mut *sink,
            tracer: &mut *tracer,
            burst,
        };
        if let Datapath::Core(engine) = dp {
            engine.idle_tick_into(&mut traced);
            engine.finish_into(&mut traced);
        }
    }
    tracer.close(id, 0, 0);
    start.elapsed().as_nanos() as f64
}

/// Per-name totals: a layer's self time is its spans' durations minus
/// the part their children cover.
pub fn summary(spans: &[Span]) -> Value {
    let mut total = [0u64; NAMES.len()];
    let mut child = [0u64; NAMES.len()];
    let mut count = [0u64; NAMES.len()];
    let mut pkts = [0u64; NAMES.len()];
    let mut bytes = [0u64; NAMES.len()];
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let n = usize::from(s.name);
        total[n] += dur;
        count[n] += 1;
        pkts[n] += u64::from(s.pkts);
        bytes[n] += s.bytes;
        if s.parent != NO_PARENT {
            child[usize::from(spans[s.parent as usize].name)] += dur;
        }
    }
    let mut out = Value::obj();
    for (n, name) in NAMES.iter().enumerate() {
        if count[n] == 0 {
            continue;
        }
        let mut row = Value::obj();
        row.set("count", count[n])
            .set("total_ns", total[n])
            .set("self_ns", total[n] - child[n])
            .set("pkts", pkts[n])
            .set("bytes", bytes[n]);
        out.set(name, row);
    }
    out
}

/// Sum of the spans with no parent (other than `engine.run`): what the
/// traced loop's wall time must match.
pub fn top_level_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == NO_PARENT && s.name != ENGINE_RUN)
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .sum()
}

/// The span file: one row per span, columns named once.
pub fn to_json(workload: &str, seed: u64, spans: &[Span], loop_ns: f64, overflowed: u64) -> String {
    let mut head = Value::obj();
    head.set("workload", workload)
        .set("seed", seed)
        .set("clock", "ns since the traced run began")
        .set("traced_loop_ns", loop_ns)
        .set("top_level_span_ns", top_level_ns(spans))
        .set("spans_overflowed", overflowed)
        .set(
            "names",
            NAMES.iter().map(|n| Value::from(*n)).collect::<Vec<_>>(),
        )
        .set("summary", summary(spans))
        .set(
            "columns",
            [
                "id", "name", "parent", "burst", "start_ns", "end_ns", "pkts", "bytes",
            ]
            .iter()
            .map(|c| Value::from(*c))
            .collect::<Vec<_>>(),
        );
    // The rows are written by hand: a Value per cell would cost more
    // memory than the spans themselves.
    let head = head.pretty();
    let mut text = head
        .trim_end()
        .strip_suffix('}')
        .expect("an object ends with a brace")
        .trim_end()
        .to_string();
    text.push_str(",\n  \"spans\": [\n");
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        text.push_str(&format!(
            "    [{id}, {}, {parent}, {}, {}, {}, {}, {}]{}\n",
            s.name,
            s.burst,
            s.start_ns,
            s.end_ns,
            s.pkts,
            s.bytes,
            if id + 1 == spans.len() { "" } else { "," }
        ));
    }
    text.push_str("  ]\n}\n");
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_tile_their_parent_and_self_time_is_the_remainder() {
        let mut rec = Recording::with_capacity(16);
        let b = rec.open(BURST_SPAN, 0);
        let p = rec.open(BATCHPARSE, 0);
        rec.close(p, 32, 100);
        let t = rec.open(TRANSLATE, 0);
        let a = rec.open(ACCEPT, 0);
        rec.close(a, 1, 50);
        rec.close(t, 32, 100);
        rec.close(b, 32, 100);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[3].parent, 2);
        // Translate starts exactly where batch parse ended.
        assert_eq!(spans[2].start_ns, spans[1].end_ns);
        let s = summary(spans);
        let burst = s.get("burst").unwrap();
        let total = burst.get("total_ns").unwrap().as_f64().unwrap();
        let own = burst.get("self_ns").unwrap().as_f64().unwrap();
        let kids = (spans[1].end_ns - spans[1].start_ns) + (spans[2].end_ns - spans[2].start_ns);
        assert_eq!(total - own, kids as f64);
        assert_eq!(top_level_ns(spans), total as u64);
        let text = to_json("t", 1, spans, 1.0, 0);
        let back = crate::json::parse(&text).expect("span file parses");
        let Some(Value::Arr(rows)) = back.get("spans") else {
            panic!("no spans array");
        };
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn a_full_buffer_counts_what_it_could_not_hold() {
        let mut rec = Recording::with_capacity(1);
        let a = rec.open(BURST_SPAN, 0);
        let b = rec.open(TRANSLATE, 0);
        assert_eq!(b, NO_PARENT);
        rec.close(b, 0, 0);
        rec.close(a, 0, 0);
        assert_eq!(rec.overflowed, 1);
        assert_eq!(rec.spans().len(), 1);
    }
}
