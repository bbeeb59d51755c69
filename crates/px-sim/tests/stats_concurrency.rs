//! StatsRegistry under fire: worker threads publishing cumulative
//! counters and merging histograms while readers take mid-run
//! snapshots. The registry's contract: snapshots are always internally
//! consistent (never torn below the per-core level), aggregates are
//! monotone over time per publishing discipline, and the final state is
//! exact.

use px_obs::HistSet;
use px_sim::stats::{CoreCounters, StatsRegistry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

const CORES: usize = 8;
const READERS: usize = 2;
const ROUNDS: u64 = 200;
const PKTS_PER_ROUND: u64 = 64;
const BYTES_PER_PKT: u64 = 1500;

fn counters_at(round: u64) -> CoreCounters {
    CoreCounters {
        pkts_in: round * PKTS_PER_ROUND,
        bytes_in: round * PKTS_PER_ROUND * BYTES_PER_PKT,
        batches: round,
        ..Default::default()
    }
}

#[test]
fn concurrent_publish_and_snapshot() {
    let registry = Arc::new(StatsRegistry::new(CORES));
    let stop = Arc::new(AtomicBool::new(false));
    // Writers start only once every reader has taken a snapshot, so no
    // scheduling order can finish the writes before a reader ran.
    let start = Arc::new(Barrier::new(READERS + CORES));

    // Readers hammer snapshot/aggregate concurrently with the writers
    // and check per-core monotonicity: each core's counters are
    // cumulative and overwritten by a single writer, so an observed
    // value may never decrease between two reads.
    let mut readers = Vec::new();
    for _ in 0..READERS {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        let start = Arc::clone(&start);
        readers.push(thread::spawn(move || {
            let mut last_per_core = [0u64; CORES];
            let mut reads = 0u64;
            // Read first, then check `stop`: every reader reads at
            // least once, however late it is scheduled.
            loop {
                let snap = registry.snapshot();
                assert_eq!(snap.len(), CORES);
                for (core, c) in snap.iter().enumerate() {
                    assert!(
                        c.pkts_in >= last_per_core[core],
                        "core {core} went backwards: {} < {}",
                        c.pkts_in,
                        last_per_core[core]
                    );
                    last_per_core[core] = c.pkts_in;
                    // Derived fields stay consistent within one core's
                    // entry because set_core replaces it wholesale under
                    // the lock.
                    assert_eq!(c.bytes_in, c.pkts_in * BYTES_PER_PKT);
                }
                // The Prometheus snapshot must be assemblable mid-run.
                let m = registry.metrics_snapshot();
                assert!(!m.counters.is_empty());
                reads += 1;
                if reads == 1 {
                    start.wait();
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            reads
        }));
    }

    // Writers: one per core, publishing cumulative counters (overwrite
    // semantics) and periodically merging histogram deltas (additive).
    let mut writers = Vec::new();
    for core in 0..CORES {
        let registry = Arc::clone(&registry);
        let start = Arc::clone(&start);
        writers.push(thread::spawn(move || {
            start.wait();
            for round in 1..=ROUNDS {
                registry.set_core(core, &counters_at(round));
                if round % 10 == 0 {
                    let mut h = HistSet::default();
                    for _ in 0..10 {
                        h.batch_ns.record(1000 + round);
                    }
                    registry.merge_core_hists(core, &h);
                }
            }
        }));
    }
    for w in writers {
        w.join().expect("writer panicked");
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let reads = r.join().expect("reader panicked");
        assert!(reads > 0, "reader never got a snapshot in");
    }

    // Final state is exact: every core's last publish, summed.
    let totals = registry.aggregate();
    assert_eq!(totals.pkts_in, CORES as u64 * ROUNDS * PKTS_PER_ROUND);
    assert_eq!(
        totals.bytes_in,
        CORES as u64 * ROUNDS * PKTS_PER_ROUND * BYTES_PER_PKT
    );
    assert_eq!(totals.batches, CORES as u64 * ROUNDS);
    // Histograms: ROUNDS/10 merges × 10 samples × CORES.
    let hists = registry.hist_aggregate();
    assert_eq!(hists.batch_ns.count(), CORES as u64 * ROUNDS);
}

#[test]
fn histogram_merge_order_is_irrelevant_across_threads() {
    // Two registries fed the same per-core histograms in opposite core
    // orders by racing threads must aggregate identically — the
    // cross-thread version of the property tests' associativity/
    // commutativity laws.
    let build = |order: Vec<usize>| {
        let registry = Arc::new(StatsRegistry::new(CORES));
        let mut handles = Vec::new();
        for core in order {
            let registry = Arc::clone(&registry);
            handles.push(thread::spawn(move || {
                let mut h = HistSet::default();
                for i in 0..50u64 {
                    h.batch_ns.record((core as u64 + 1) * 100 + i);
                    h.out_bytes.record((core as u64 + 1) * 1500);
                }
                registry.merge_core_hists(core, &h);
            }));
        }
        for h in handles {
            h.join().expect("merger panicked");
        }
        registry.hist_aggregate()
    };
    let forward = build((0..CORES).collect());
    let reverse = build((0..CORES).rev().collect());
    assert_eq!(forward.batch_ns.count(), reverse.batch_ns.count());
    assert_eq!(forward.batch_ns.sum(), reverse.batch_ns.sum());
    assert_eq!(forward.batch_ns.p50(), reverse.batch_ns.p50());
    assert_eq!(forward.batch_ns.p99(), reverse.batch_ns.p99());
    assert_eq!(forward.out_bytes.max(), reverse.out_bytes.max());
}
