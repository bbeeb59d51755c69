//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **delayed merging** on/off — conversion-yield impact measured via
//!   the pipeline (throughput here, yield asserted in tests);
//! * **small-flow steering** on/off — gateway work under a mice-heavy mix;
//! * **flow table** — LRU hash table vs naive linear scan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use px_core::flowtable::FlowTable;
use px_core::merge::{MergeConfig, MergeEngine};
use px_core::pipeline::{run_pipeline, PipelineConfig, SystemVariant, TraceGen, WorkloadKind};
use px_wire::{FlowKey, VecSink};
use std::net::Ipv4Addr;

fn bench_delayed_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_delayed_merge");
    g.sample_size(10);
    for (label, hold) in [("hold_50us", 50_000u64), ("hold_off", 0)] {
        g.bench_with_input(BenchmarkId::new("pipeline", label), &hold, |b, &hold| {
            b.iter(|| {
                let mut cfg = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, 4);
                cfg.trace_pkts = 10_000;
                cfg.n_flows = 100;
                cfg.hold_ns = hold;
                run_pipeline(std::hint::black_box(cfg)).conversion_yield
            });
        });
    }
    g.finish();
}

fn bench_merge_engine_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_merge_engine");
    g.sample_size(10);
    // Pre-generate a trace once; measure pure engine push cost.
    let mut tracer = TraceGen::new(WorkloadKind::Tcp, 64, 1500, 12, 3);
    let trace: Vec<Vec<u8>> = tracer.generate(5_000).into_iter().map(|(_, p)| p).collect();
    g.bench_function("merge_push_5k_pkts", |b| {
        b.iter(|| {
            let mut eng = MergeEngine::new(MergeConfig::default());
            let mut out = VecSink::new();
            for (i, p) in trace.iter().enumerate() {
                eng.push_into(i as u64 * 100, p, &mut out);
            }
            eng.flush_all_into(&mut out);
            out.pkts.len()
        });
    });
    g.finish();
}

/// A deliberately naive comparison point: per-flow state in a Vec with
/// linear scans (what PXGW must *not* do at 800+ flows).
struct LinearTable<V> {
    entries: Vec<(FlowKey, V)>,
}

impl<V> LinearTable<V> {
    fn get_mut(&mut self, key: &FlowKey) -> Option<&mut V> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

fn bench_flowtable(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_flowtable");
    let keys: Vec<FlowKey> = (0..800u16)
        .map(|i| {
            FlowKey::tcp(
                Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8),
                30000 + i,
                Ipv4Addr::new(10, 1, 0, 1),
                5201,
            )
        })
        .collect();
    g.bench_function("lru_hash_800flows", |b| {
        let mut t: FlowTable<u64> = FlowTable::new(2048);
        for (i, k) in keys.iter().enumerate() {
            t.insert(*k, i as u64);
        }
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7) % keys.len();
            *t.get_mut(std::hint::black_box(&keys[i])).unwrap()
        });
    });
    g.bench_function("linear_scan_800flows", |b| {
        let mut t = LinearTable {
            entries: keys
                .iter()
                .enumerate()
                .map(|(i, k)| (*k, i as u64))
                .collect(),
        };
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7) % keys.len();
            *t.get_mut(std::hint::black_box(&keys[i])).unwrap()
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_delayed_merge,
    bench_merge_engine_throughput,
    bench_flowtable,
    bench_steering,
    bench_cc_algorithms
);
criterion_main!(benches);

mod steering_ablation {
    use super::*;
    use px_core::steer::{FlowClass, FlowClassifier, SteerConfig};

    /// A mice-heavy mixed trace: 4 elephant flows with long runs, 200
    /// mice with 1-2 packets each, interleaved.
    pub fn mixed_trace() -> Vec<Vec<u8>> {
        let mut elephants = TraceGen::new(WorkloadKind::Tcp, 4, 1500, 16, 11);
        let mut mice = TraceGen::new(WorkloadKind::Tcp, 200, 300, 1, 12);
        let e = elephants.generate(3_000);
        let m = mice.generate(1_000);
        let mut out = Vec::with_capacity(4_000);
        let (mut ei, mut mi) = (0usize, 0usize);
        // 3:1 interleave.
        while ei < e.len() || mi < m.len() {
            for _ in 0..3 {
                if ei < e.len() {
                    out.push(e[ei].1.clone());
                    ei += 1;
                }
            }
            if mi < m.len() {
                out.push(m[mi].1.clone());
                mi += 1;
            }
        }
        out
    }

    pub fn run_with_steering(trace: &[Vec<u8>], steer: bool) -> (usize, u64) {
        let mut classifier = steer.then(|| FlowClassifier::new(SteerConfig::default()));
        let mut eng = MergeEngine::new(MergeConfig::default());
        let mut forwarded = 0usize;
        let mut out = VecSink::new();
        for (i, pkt) in trace.iter().enumerate() {
            let now = i as u64 * 200;
            if let Some(cl) = &mut classifier {
                if let Some(key) = px_wire::batchparse::parse_key(pkt) {
                    if cl.classify(now, &key) == FlowClass::Mouse {
                        forwarded += 1; // hairpinned, no merge-engine work
                        continue;
                    }
                }
            }
            eng.push_into(now, pkt, &mut out);
        }
        eng.flush_all_into(&mut out);
        (forwarded + out.pkts.len(), eng.lookups())
    }
}

fn bench_steering(c: &mut Criterion) {
    let trace = steering_ablation::mixed_trace();
    let mut g = c.benchmark_group("ablation_steering");
    g.sample_size(10);
    for (label, steer) in [("with_steering", true), ("without_steering", false)] {
        g.bench_with_input(
            BenchmarkId::new("mixed_trace", label),
            &steer,
            |b, &steer| {
                b.iter(|| {
                    steering_ablation::run_with_steering(std::hint::black_box(&trace), steer)
                });
            },
        );
    }
    g.finish();
}

fn bench_cc_algorithms(c: &mut Criterion) {
    use px_sim::Nanos;
    use px_tcp::conn::CcAlgo;
    use px_workload::iperf::IperfPair;
    let mut g = c.benchmark_group("ablation_congestion_control");
    g.sample_size(10);
    for (label, cc) in [("reno", CcAlgo::Reno), ("cubic", CcAlgo::Cubic)] {
        g.bench_with_input(BenchmarkId::new("wan_2s", label), &cc, |b, &cc| {
            b.iter(|| {
                let mut pair = IperfPair::paper_wan(1500);
                pair.duration = Nanos::from_secs(2);
                pair.cc = cc;
                pair.run_tcp().aggregate_bps
            });
        });
    }
    g.finish();
}
