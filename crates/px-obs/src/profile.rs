//! Continuous profiling.
//!
//! Two always-on, fixed-footprint structures per core:
//!
//! * A **space-saving top-K sketch** ([`TopK`]) of hot flows by packet
//!   count, with bytes and cumulative dwell carried along. K is small
//!   (default 16) so the update is a linear scan over a preallocated
//!   array — no hashing, no allocation, bounded error `err` per the
//!   classic Metwally et al. algorithm (an evicted minimum's count is
//!   inherited by its replacement and remembered as overestimation).
//! * A **batch-profile ring** (a [`Ring`] of [`BatchProfile`]s) of the
//!   most recent bursts. A burst has one wall time: the worker parses,
//!   merges and frees each packet in turn, so there is no stage
//!   boundary inside a burst to attribute time across. Stamped from the
//!   worker's one wall-clock read pair per burst.
//!
//! Wall times never feed back into the datapath or the deterministic
//! span streams; they are report-side only, exactly like the
//! latency histograms.

use crate::ring::Ring;

/// Per-flow totals tracked by the top-K sketch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStat {
    /// The flow ([`crate::flow_id`] packing).
    pub flow: u32,
    /// Packets attributed to the flow (may overestimate by `err`).
    pub pkts: u64,
    /// Bytes attributed to the flow.
    pub bytes: u64,
    /// Cumulative logical dwell attributed to the flow's aggregates.
    pub dwell_ns: u64,
    /// Space-saving overestimation bound inherited at replacement.
    pub err: u64,
}

/// A space-saving top-K sketch of hot flows. Fixed footprint: the
/// entry array is preallocated at construction and updates never
/// allocate (px-analyze R5).
#[derive(Debug, Clone, Default)]
pub struct TopK {
    entries: Vec<FlowStat>,
    k: usize,
}

impl TopK {
    /// A sketch tracking up to `k` flows (0 disables it; every observe
    /// becomes a no-op).
    pub fn new(k: usize) -> Self {
        TopK {
            entries: Vec::with_capacity(k),
            k,
        }
    }

    /// Attributes `pkts`/`bytes`/`dwell_ns` to `flow`. Alloc-free: the
    /// entry array never grows past its preallocated capacity.
    #[inline]
    pub fn observe(&mut self, flow: u32, pkts: u64, bytes: u64, dwell_ns: u64) {
        if self.k == 0 {
            return;
        }
        let mut min_at = 0usize;
        let mut min_pkts = u64::MAX;
        for (i, e) in self.entries.iter_mut().enumerate() {
            if e.flow == flow {
                // Saturating: dwell fed from a drained hold queue can be
                // arbitrarily large, and a diagnostic sketch must never
                // be the thing that panics on overflow.
                e.pkts = e.pkts.saturating_add(pkts);
                e.bytes = e.bytes.saturating_add(bytes);
                e.dwell_ns = e.dwell_ns.saturating_add(dwell_ns);
                return;
            }
            if e.pkts < min_pkts {
                min_pkts = e.pkts;
                min_at = i;
            }
        }
        if self.entries.len() < self.k {
            // Capacity was reserved up front: this push cannot allocate.
            self.entries.push(FlowStat {
                flow,
                pkts,
                bytes,
                dwell_ns,
                err: 0,
            });
            return;
        }
        // Space-saving replacement: the evicted minimum's count carries
        // over as the newcomer's base and error bound.
        if let Some(e) = self.entries.get_mut(min_at) {
            *e = FlowStat {
                flow,
                pkts: min_pkts.saturating_add(pkts),
                bytes,
                dwell_ns,
                err: min_pkts,
            };
        }
    }

    /// Flows currently tracked (≤ K).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the sketch has seen nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The tracked flows, hottest (most packets) first. Allocates
    /// (report side only).
    pub fn top(&self) -> Vec<FlowStat> {
        let mut v = self.entries.clone();
        v.sort_by(|a, b| b.pkts.cmp(&a.pkts).then(a.flow.cmp(&b.flow)));
        v
    }

    /// Folds another core's sketch into this one (report side only;
    /// may allocate via the iteration order but each observe is
    /// in-place).
    pub fn merge(&mut self, other: &TopK) {
        for e in &other.entries {
            self.observe(e.flow, e.pkts, e.bytes, e.dwell_ns);
        }
    }
}

/// One batch's wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchProfile {
    /// Batch ordinal on the owning core.
    pub batch: u64,
    /// Packets in the batch.
    pub pkts: u32,
    /// Total wall nanoseconds for the batch.
    pub wall_ns: u64,
}

/// The per-core continuous profiler: top-K flow sketch, recent batch
/// profiles, and the whole-run batch wall total.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    /// Hot-flow sketch.
    pub topk: TopK,
    /// Recent batch profiles.
    pub ring: Ring<BatchProfile>,
    /// Whole-run total batch wall nanoseconds.
    pub wall_ns_total: u64,
    /// Batches profiled.
    pub batches: u64,
}

impl Profiler {
    /// Builds a profiler with a `k`-entry sketch and a `ring`-entry
    /// batch-profile ring (both 0 = disabled, nothing allocated).
    pub fn new(k: usize, ring: usize) -> Self {
        Profiler {
            topk: TopK::new(k),
            ring: Ring::with_capacity(ring),
            wall_ns_total: 0,
            batches: 0,
        }
    }

    /// Attributes emission work to a flow (sketch update). Alloc-free.
    #[inline]
    pub fn observe_flow(&mut self, flow: u32, pkts: u64, bytes: u64, dwell_ns: u64) {
        self.topk.observe(flow, pkts, bytes, dwell_ns);
    }

    /// Records one batch's wall time. Alloc-free.
    #[inline]
    pub fn observe_batch_profile(&mut self, p: BatchProfile) {
        self.wall_ns_total += p.wall_ns;
        self.batches += 1;
        self.ring.push(p);
    }

    /// Folds another core's profiler into this one (report side).
    pub fn merge(&mut self, other: &Profiler) {
        self.topk.merge(&other.topk);
        for p in other.ring.recent(other.ring.len()) {
            self.ring.push(p);
        }
        self.wall_ns_total += other.wall_ns_total;
        self.batches += other.batches;
    }

    /// Renders the profiler as a JSON object: batch totals, hot flows,
    /// and the most recent `recent` batch profiles.
    pub fn to_json(&self, indent: &str, recent: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!("{indent}{{\n"));
        out.push_str(&format!(
            "{indent}  \"batches\": {}, \"wall_ns_total\": {},\n",
            self.batches, self.wall_ns_total
        ));
        out.push_str(&format!("{indent}  \"hot_flows\": [\n"));
        let top = self.topk.top();
        for (i, f) in top.iter().enumerate() {
            let comma = if i + 1 < top.len() { "," } else { "" };
            out.push_str(&format!(
                "{indent}    {{\"flow\": {}, \"pkts\": {}, \"bytes\": {}, \"dwell_ns\": {}, \"err\": {}}}{comma}\n",
                f.flow, f.pkts, f.bytes, f.dwell_ns, f.err
            ));
        }
        out.push_str(&format!("{indent}  ],\n"));
        out.push_str(&format!("{indent}  \"recent_batches\": [\n"));
        let rec = self.ring.recent(recent);
        for (i, p) in rec.iter().enumerate() {
            let comma = if i + 1 < rec.len() { "," } else { "" };
            out.push_str(&format!(
                "{indent}    {{\"batch\": {}, \"pkts\": {}, \"wall_ns\": {}}}{comma}\n",
                p.batch, p.pkts, p.wall_ns
            ));
        }
        out.push_str(&format!("{indent}  ]\n"));
        out.push_str(&format!("{indent}}}"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_tracks_heavy_hitters() {
        let mut t = TopK::new(2);
        for _ in 0..100 {
            t.observe(1, 1, 1500, 0);
        }
        for _ in 0..50 {
            t.observe(2, 1, 1500, 0);
        }
        // A stream of distinct mice cannot displace the elephants'
        // dominance: the top entry stays flow 1.
        for f in 10..40u32 {
            t.observe(f, 1, 100, 0);
        }
        let top = t.top();
        assert_eq!(top[0].flow, 1);
        assert_eq!(top[0].pkts, 100);
        // The second slot churned through mice; space-saving guarantees
        // its count ≥ true count with err carrying the overestimate.
        assert!(top[1].pkts >= 1);
        assert!(top[1].err > 0, "replacement must inherit the min count");
    }

    #[test]
    fn topk_zero_k_is_noop_and_merge_folds() {
        let mut off = TopK::new(0);
        off.observe(1, 1, 1, 1);
        assert!(off.is_empty());

        let mut a = TopK::new(4);
        a.observe(1, 10, 100, 5);
        let mut b = TopK::new(4);
        b.observe(1, 5, 50, 5);
        b.observe(2, 7, 70, 0);
        a.merge(&b);
        let top = a.top();
        assert_eq!(
            top[0],
            FlowStat {
                flow: 1,
                pkts: 15,
                bytes: 150,
                dwell_ns: 10,
                err: 0
            }
        );
        assert_eq!(top[1].flow, 2);
    }

    #[test]
    fn profiler_accumulates_batch_wall_time() {
        let mut p = Profiler::new(8, 4);
        for b in 0..10u64 {
            p.observe_batch_profile(BatchProfile {
                batch: b,
                pkts: 32,
                wall_ns: 1000 + b,
            });
        }
        assert_eq!((p.batches, p.wall_ns_total), (10, 10_045));
        assert_eq!(p.ring.len(), 4, "ring keeps only the most recent");
        let rec = p.ring.recent(64);
        assert_eq!(rec.first().map(|b| b.batch), Some(6));
        assert_eq!(rec.last().map(|b| b.wall_ns), Some(1009));
    }

    #[test]
    fn profiler_json_shape() {
        let mut p = Profiler::new(4, 4);
        p.observe_flow(crate::flow_id(5000, 80), 3, 4380, 1000);
        p.observe_batch_profile(BatchProfile {
            batch: 0,
            pkts: 32,
            wall_ns: 1000,
        });
        let json = p.to_json("", 8);
        assert!(json.contains("\"hot_flows\""));
        assert!(json.contains("\"recent_batches\""));
        assert!(json.contains("\"wall_ns_total\": 1000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
