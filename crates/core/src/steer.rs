//! Small-flow steering.
//!
//! §3: "packets from small flows — typically unmergeable — consume CPU
//! resources and interfere with the merging of large flows … traffic
//! classification techniques that separate merge-friendly large flows
//! from small, sporadic flows will be necessary." §4.1 lists "steering
//! of small flows to prevent performance degradation using hairpin".
//!
//! The classifier is a windowed packet counter: a flow that has moved
//! fewer than `elephant_pkts` packets in the current window is a *mouse*
//! and is hairpinned — forwarded NIC-to-NIC without entering the merge
//! engine (on real hardware this path never touches the CPU). Flows that
//! cross the threshold are *elephants* and get merged.

use crate::flowtable::{flow_hash, FlowTable, FlowTableConfig};
use px_wire::FlowKey;

/// Classification verdict for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowClass {
    /// Sparse/small flow: hairpin past the merge engine.
    Mouse,
    /// Bulk flow: worth per-flow merge state.
    Elephant,
}

/// Classifier configuration.
#[derive(Debug, Clone, Copy)]
pub struct SteerConfig {
    /// Packets within one window after which a flow becomes an elephant.
    pub elephant_pkts: u32,
    /// Window length in nanoseconds (counters reset each window).
    pub window_ns: u64,
    /// Capacity of the table that tracks every flow: the classifier's,
    /// or a steering merge engine's one table (idle mice evicted first).
    pub table_capacity: usize,
    /// Hard byte budget for that table's arenas — the per-core slab
    /// that tracks every live flow. `None` for entry-count
    /// sizing only; see [`FlowTableConfig::memory_budget`].
    pub memory_budget: Option<usize>,
}

impl Default for SteerConfig {
    fn default() -> Self {
        SteerConfig {
            elephant_pkts: 8,
            window_ns: 10_000_000, // 10 ms
            table_capacity: 1 << 16,
            memory_budget: None,
        }
    }
}

/// One flow's windowed packet counter — the classifier's whole rule.
/// [`FlowClassifier`] keeps one per flow in its own table; a steering
/// merge engine keeps it in the same table slot as the flow's pending
/// aggregate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlowCounter {
    window_start: u64,
    pkts: u32,
    elephant: bool,
}

impl FlowCounter {
    /// The counter a flow's first packet, at `now`, starts: that packet
    /// is a mouse.
    pub(crate) fn first(now: u64) -> Self {
        FlowCounter {
            window_start: now,
            pkts: 1,
            elephant: false,
        }
    }

    /// Counts one more packet at `now`: its class, and whether it
    /// promoted the flow.
    ///
    /// A flow keeps its elephant status for the rest of the window in
    /// which it earned it (hysteresis: flapping between classes would
    /// reorder its packets between the merge and hairpin paths), and
    /// starts the next window with a head start, so an elephant never
    /// demotes.
    pub(crate) fn count(&mut self, now: u64, cfg: &SteerConfig) -> (FlowClass, bool) {
        if now.saturating_sub(self.window_start) >= cfg.window_ns {
            // New window: elephants must re-earn their status, but
            // carry over a head start so steady bulk flows never flap.
            self.window_start = now;
            self.pkts = if self.elephant { cfg.elephant_pkts } else { 0 };
            self.elephant = self.pkts >= cfg.elephant_pkts;
        }
        self.pkts = self.pkts.saturating_add(1);
        let promoted = !self.elephant && self.pkts >= cfg.elephant_pkts;
        self.elephant |= promoted;
        let class = if self.elephant {
            FlowClass::Elephant
        } else {
            FlowClass::Mouse
        };
        (class, promoted)
    }
}

/// The windowed elephant/mouse classifier on its own table, for callers
/// without merge state of their own (benchmarks).
#[derive(Debug)]
pub struct FlowClassifier {
    /// Configuration.
    pub cfg: SteerConfig,
    table: FlowTable<FlowCounter>,
    /// Packets classified as mouse.
    pub mouse_pkts: u64,
    /// Packets classified as elephant.
    pub elephant_pkts_seen: u64,
    /// Mouse→elephant promotions (each flow promotes at most once per
    /// window, and with the head-start hysteresis at most once ever for
    /// a continuously busy flow).
    pub promotions: u64,
}

impl FlowClassifier {
    /// Creates a classifier.
    pub fn new(cfg: SteerConfig) -> Self {
        FlowClassifier {
            cfg,
            table: FlowTable::with_config(FlowTableConfig {
                capacity: cfg.table_capacity,
                memory_budget: cfg.memory_budget,
            }),
            mouse_pkts: 0,
            elephant_pkts_seen: 0,
            promotions: 0,
        }
    }

    /// Classifies one packet of `key` arriving at `now`, with one table
    /// lookup. Promoted elephants move to the table's protected segment,
    /// so under arrival churn the flow evicted to track a new one is an
    /// idle *mouse* while any remains.
    pub fn classify(&mut self, now: u64, key: &FlowKey) -> FlowClass {
        let entry = self
            .table
            .entry(flow_hash(key), key, || FlowCounter::first(now));
        let (class, promoted) = match self.table.value_at(entry.slot) {
            Some(c) if entry.found => c.count(now, &self.cfg),
            _ => (FlowClass::Mouse, false),
        };
        if promoted {
            self.promotions += 1;
            self.table.protect_at(entry.slot);
        }
        match class {
            FlowClass::Mouse => self.mouse_pkts += 1,
            FlowClass::Elephant => self.elephant_pkts_seen += 1,
        }
        class
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(p: u16) -> FlowKey {
        FlowKey::tcp(Ipv4Addr::new(1, 1, 1, 1), p, Ipv4Addr::new(2, 2, 2, 2), 80)
    }

    #[test]
    fn sparse_flow_stays_mouse() {
        let mut c = FlowClassifier::new(SteerConfig::default());
        for i in 0..5 {
            assert_eq!(c.classify(i * 1000, &key(1)), FlowClass::Mouse);
        }
        assert_eq!(c.mouse_pkts, 5);
    }

    #[test]
    fn bulk_flow_promotes_to_elephant() {
        let cfg = SteerConfig::default();
        let mut c = FlowClassifier::new(cfg);
        let mut verdicts = Vec::new();
        for i in 0..20 {
            verdicts.push(c.classify(i, &key(1)));
        }
        assert_eq!(verdicts[0], FlowClass::Mouse);
        assert!(verdicts[19] == FlowClass::Elephant);
        let promoted_at = verdicts
            .iter()
            .position(|v| *v == FlowClass::Elephant)
            .unwrap();
        assert_eq!(promoted_at as u32, cfg.elephant_pkts - 1);
    }

    #[test]
    fn elephant_keeps_status_across_windows_if_busy() {
        let cfg = SteerConfig {
            window_ns: 1000,
            ..Default::default()
        };
        let mut c = FlowClassifier::new(cfg);
        for i in 0..20 {
            c.classify(i, &key(1));
        }
        // Next window: still elephant on the first packet (head start).
        assert_eq!(c.classify(2000, &key(1)), FlowClass::Elephant);
    }

    #[test]
    fn idle_mouse_resets_each_window() {
        let cfg = SteerConfig {
            window_ns: 1000,
            elephant_pkts: 4,
            ..Default::default()
        };
        let mut c = FlowClassifier::new(cfg);
        // 3 packets per window, forever: never promoted.
        for w in 0..10u64 {
            for i in 0..3u64 {
                let v = c.classify(w * 1000 + i, &key(1));
                assert_eq!(v, FlowClass::Mouse, "window {w} pkt {i}");
            }
        }
    }

    #[test]
    fn flows_tracked_independently() {
        let mut c = FlowClassifier::new(SteerConfig::default());
        for i in 0..20 {
            c.classify(i, &key(1));
        }
        assert_eq!(c.classify(100, &key(2)), FlowClass::Mouse);
        assert_eq!(c.classify(101, &key(1)), FlowClass::Elephant);
        assert_eq!(c.table.len(), 2);
    }

    #[test]
    fn promotion_happens_exactly_once_for_a_busy_flow() {
        let cfg = SteerConfig {
            window_ns: 1000,
            elephant_pkts: 4,
            ..Default::default()
        };
        let mut c = FlowClassifier::new(cfg);
        // Ten windows of sustained traffic: the threshold crossing in
        // window 0 is the only promotion — the head-start hysteresis
        // keeps the flow an elephant in every later window, so the
        // mouse→elephant edge never fires again.
        for w in 0..10u64 {
            for i in 0..8u64 {
                c.classify(w * 1000 + i, &key(1));
            }
        }
        assert_eq!(c.promotions, 1);
        assert_eq!(c.mouse_pkts, 3, "only the pre-threshold packets");
        assert_eq!(c.elephant_pkts_seen, 77);
    }

    #[test]
    fn churn_evicts_idle_mice_before_active_elephants() {
        let cfg = SteerConfig {
            table_capacity: 8,
            ..Default::default()
        };
        let mut c = FlowClassifier::new(cfg);
        // Two elephants earn protection...
        for f in [1u16, 2] {
            for i in 0..10 {
                c.classify(i, &key(f));
            }
        }
        // ...then a storm of one-packet mice churns the table.
        for m in 100..200u16 {
            assert_eq!(c.classify(1000 + u64::from(m), &key(m)), FlowClass::Mouse);
        }
        assert_eq!(c.table.evicted_idle, 100 - 6, "the storm evicts mice");
        assert_eq!(c.table.evicted_pressure, 0, "and never an elephant");
        // The elephants still classify as elephants afterwards.
        assert_eq!(c.classify(5000, &key(1)), FlowClass::Elephant);
        assert_eq!(c.classify(5001, &key(2)), FlowClass::Elephant);
    }

    #[test]
    fn classification_is_deterministic_per_input() {
        let cfg = SteerConfig {
            table_capacity: 16,
            ..Default::default()
        };
        let mut a = FlowClassifier::new(cfg);
        let mut b = FlowClassifier::new(cfg);
        // A pseudo-random interleaving over 64 flows with a 16-entry
        // table: evictions and re-inserts included, the verdict
        // sequence is a pure function of the input sequence.
        let mut x: u64 = 0x1234_5678_9abc_def0;
        for step in 0..5000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = key((x % 64) as u16);
            let now = step * 997;
            assert_eq!(a.classify(now, &k), b.classify(now, &k), "step {step}");
        }
        assert!(a.table.evictions > 0, "the run must evict");
        assert_eq!(a.table.queue_order(), b.table.queue_order());
        assert_eq!(a.promotions, b.promotions);
    }
}
