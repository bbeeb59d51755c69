//! The layer ladder: one isolated pass per layer over the workload's own
//! packets or key sequence, timing public calls only, plus the counts the
//! program's public stats give. Every pass is the median of `reps` runs.
//!
//! The ladder's rungs are measured, not derived from one another, except
//! where the definition is a difference (`ingress` = loop − translate,
//! `dispatch` = whole engine with telemetry off − loop). What stays
//! unexplained against the end-to-end figure is reported, not hidden.

use crate::alloc;
use crate::gen::{now_of, Trace};
use crate::host::Probe;
use crate::measure::{
    median, run_engine, run_loop, slow_limit, summarize, Datapath, Recycle, Summary, BURST,
};
use crate::sut::{
    classifier_for, egress_caravan, engine_config, flow_table_capacity, obs_records,
    ones_complement_sum, parse_batch_with, parse_packet, BufPool, CaravanEngine, CoreEngine,
    EngineConfig, FlowKey, FlowTable, IpProtocol, MergeStats, ObsConfig, PacketBuf, PacketSink,
    ParsedMeta, PipelineConfig, PoolStats, RssHasher, SplitEngine, Translate,
};
use crate::trace::{self, Recording, Tracer};
use crate::workloads::Workload;
use std::cell::Cell;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

pub struct Layers {
    /// `(metric name, value)` for every row of `metrics::PER_LAYER`
    /// except the host rows, which the caller owns.
    pub values: Vec<(&'static str, f64)>,
    pub tags: Vec<String>,
    /// Whole-engine and loop time per rep, as measured here.
    pub engine_ns: Summary,
    pub loop_ns: Summary,
    /// The span file's text and how well its spans cover the traced loop.
    pub trace_json: String,
    pub span_cover_gap_frac: f64,
}

fn timed(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64
}

fn med(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&samples)
}

/// Runs the passes in turn, round after round (so each sees the same
/// host noise), until `seconds` are spent and `min_rounds` are done, with
/// the host probe after every pass. Returns each pass's samples from the
/// host's fast state (`measure::fast_state`, judged over the whole block).
fn alternate<const N: usize>(
    probe: &Probe,
    seconds: f64,
    min_rounds: usize,
    mut passes: [&mut dyn FnMut() -> f64; N],
) -> [Vec<f64>; N] {
    let started = Instant::now();
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    let mut probes = Vec::new();
    while samples[0].len() < min_rounds || started.elapsed().as_secs_f64() < seconds {
        for (pass, out) in passes.iter_mut().zip(&mut samples) {
            out.push(pass());
            probes.push(probe.ns());
        }
    }
    // One verdict over all the block's probes; a pass left with fewer
    // than two fast-state samples keeps them all.
    let limit = slow_limit(&probes);
    std::array::from_fn(|k| {
        let kept: Vec<f64> = (0..samples[k].len())
            .filter(|round| probes[round * N + k] <= limit)
            .map(|round| samples[k][round])
            .collect();
        if kept.len() < 2 {
            samples[k].clone()
        } else {
            kept
        }
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The L4 payload of a generated packet, by header offsets (empty for
/// anything too short to have one — the truncated hostile packets).
fn l4_payload(pkt: &[u8]) -> &[u8] {
    let ihl = usize::from(pkt[0] & 0x0F) * 4;
    let l4_hdr = match pkt[9] {
        6 => pkt.get(ihl + 12).map_or(0, |b| usize::from(b >> 4) * 4),
        _ => 8,
    };
    pkt.get(ihl + l4_hdr..).unwrap_or(&[])
}

fn pool_stats(dp: &Datapath) -> PoolStats {
    match dp {
        Datapath::Core(CoreEngine::Merge(m)) => m.pool_stats(),
        Datapath::Core(CoreEngine::Caravan(c)) => c.pool_stats(),
        Datapath::Core(CoreEngine::Baseline(_)) => PoolStats::default(),
        Datapath::Egress { split, caravan } => {
            let mut sum = split.pool_stats();
            sum.allocated += caravan.pool_stats().allocated;
            sum.gets += caravan.pool_stats().gets;
            sum
        }
    }
}

/// Emitted packets, copied out: the input of the opposite caravan pass.
fn collecting(out: &mut Vec<Vec<u8>>) -> impl FnMut(PacketBuf) -> Option<PacketBuf> + '_ {
    |buf| {
        out.push(buf.as_slice().to_vec());
        Some(buf)
    }
}

struct MergePass {
    ns: f64,
    stats: MergeStats,
    pkts_out: u64,
    flows_live: usize,
    arena_bytes: usize,
}

fn merge_pass(pipe: &PipelineConfig, trace: &Trace) -> MergePass {
    let CoreEngine::Merge(mut m) = CoreEngine::for_pipe(pipe) else {
        unreachable!("a merge workload's pipeline builds a merge engine");
    };
    let mut sink = Recycle::default();
    let mut live = (0, 0);
    let ns = timed(|| {
        for (i, (_, pkt)) in trace.pkts.iter().enumerate() {
            let now = now_of(i, pipe.offered_pps);
            m.poll_into(now, &mut sink);
            m.push_into(now, pkt, &mut sink);
        }
        live = (m.flows_live(), m.arena_bytes());
        m.flush_all_into(&mut sink);
    });
    MergePass {
        ns,
        stats: m.stats.clone(),
        pkts_out: sink.pkts,
        flows_live: live.0,
        arena_bytes: live.1,
    }
}

fn caravan_engine(w: &Workload, pipe: &PipelineConfig) -> CaravanEngine {
    match (w.translate, CoreEngine::for_pipe(pipe)) {
        (Translate::Caravan, CoreEngine::Caravan(c)) => c,
        _ => egress_caravan(pipe),
    }
}

fn pack_pass(mut c: CaravanEngine, pps: f64, input: &[&[u8]], sink: &mut impl PacketSink) -> f64 {
    timed(|| {
        for (i, pkt) in input.iter().enumerate() {
            let now = now_of(i, pps);
            c.poll_into(now, sink);
            c.push_inbound_into(now, pkt, sink);
        }
        c.flush_all_into(sink);
    })
}

fn unpack_pass(mut c: CaravanEngine, input: &[&[u8]], sink: &mut impl PacketSink) -> f64 {
    timed(|| {
        for pkt in input {
            c.push_outbound_into(pkt, sink);
        }
    })
}

pub fn measure(
    w: &Workload,
    pipe: &PipelineConfig,
    trace: &Trace,
    probe: &Probe,
    seed: u64,
    seconds: f64,
    nproc: usize,
) -> Layers {
    // Fewest repetitions of any pass; the alternating blocks add rounds
    // while their share of `seconds` lasts.
    let reps = 3;
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let mut tags = Vec::new();
    let mut put = |name: &'static str, v: f64| values.push((name, v));
    let n = trace.pkts.len() as f64;
    let kpkts = n / 1e3;
    let pps = pipe.offered_pps;
    let engine_runs = w.translate != Translate::Egress;

    // px-wire.
    let payloads: Vec<&[u8]> = trace.pkts.iter().map(|(_, p)| l4_payload(p)).collect();
    let payload_bytes: usize = payloads.iter().map(|p| p.len()).sum();
    let ns = med(reps, || {
        timed(|| {
            for p in &payloads {
                black_box(ones_complement_sum(black_box(p)));
            }
        })
    });
    put(
        "wire.checksum.ns_per_kib",
        ratio(ns, payload_bytes as f64 / 1024.0),
    );
    put("wire.checksum.bytes_per_pkt", payload_bytes as f64 / n);

    let parse_ns = med(reps, || {
        timed(|| {
            for (_, p) in &trace.pkts {
                black_box(parse_packet(black_box(p)));
            }
        })
    }) / n;
    put("wire.parse.ns_per_pkt", parse_ns);
    let mut metas: Vec<ParsedMeta> = Vec::with_capacity(BURST);
    let ns = med(reps, || {
        timed(|| {
            for burst in trace.pkts.chunks(BURST) {
                parse_batch_with(burst, |(_, p)| p.as_slice(), &mut metas);
                black_box(&metas);
            }
        })
    });
    put("wire.batchparse.ns_per_pkt", ns / n);

    let rss = RssHasher::symmetric();
    let ns = med(reps, || {
        timed(|| {
            for (key, _) in &trace.pkts {
                black_box(rss.queue_for(black_box(key), pipe.cores));
            }
        })
    });
    put("wire.rss.ns_per_pkt", ns / n);

    let mut pool = BufPool::for_mtu(pipe.imtu, pipe.pool_bufs);
    pool.prewarm(pipe.pool_bufs);
    let cycles = trace.pkts.len();
    let ns = med(reps, || {
        timed(|| {
            for _ in 0..cycles {
                let buf = pool.get();
                pool.put(black_box(buf));
            }
        })
    });
    put("wire.pool.ns_per_cycle", ns / cycles as f64);

    // core.flowtable, at the workload's working set and capacity: every
    // flow's first packet inserts, every packet of a resident flow hits.
    // The egress direction keeps no flow table, so it reports none.
    let keys: Vec<FlowKey> = trace.pkts.iter().map(|(k, _)| *k).collect();
    if w.translate == Translate::Egress {
        put("core.flowtable.ns_per_insert", 0.0);
        put("core.flowtable.ns_per_hit", 0.0);
    } else {
        let mut seen = HashSet::new();
        let firsts: Vec<FlowKey> = keys.iter().filter(|k| seen.insert(**k)).copied().collect();
        let mut table: FlowTable<u64> = FlowTable::new(flow_table_capacity(pipe));
        let fill = |t: &mut FlowTable<u64>| {
            for (i, k) in firsts.iter().enumerate() {
                black_box(t.insert_with_deadline(*k, i as u64, i as u64 + pipe.hold_ns));
            }
        };
        // One untimed fill touches the arenas; small populations fill in
        // microseconds, so several drain-and-fill rounds make a sample.
        fill(&mut table);
        let rounds = (20_000 / firsts.len()).max(1);
        let ns = med(reps, || {
            (0..rounds)
                .map(|_| {
                    table.drain();
                    timed(|| fill(&mut table))
                })
                .sum()
        });
        put(
            "core.flowtable.ns_per_insert",
            ns / (rounds * firsts.len()) as f64,
        );
        let resident: HashSet<FlowKey> = firsts
            .iter()
            .filter(|k| table.get_mut(k).is_some())
            .copied()
            .collect();
        let hits: Vec<FlowKey> = keys
            .iter()
            .filter(|k| resident.contains(k))
            .copied()
            .collect();
        let ns = med(reps, || {
            timed(|| {
                for k in &hits {
                    black_box(table.get_mut(black_box(k)));
                }
            })
        });
        put("core.flowtable.ns_per_hit", ratio(ns, hits.len() as f64));
    }

    let ns = classifier_for(pipe).map_or(0.0, |_| {
        med(reps, || {
            let mut c = classifier_for(pipe).expect("checked above");
            timed(|| {
                for (i, k) in keys.iter().enumerate() {
                    black_box(c.classify(now_of(i, pps), black_box(k)));
                }
            })
        })
    });
    put("core.steer.ns_per_classify", ns / n);

    // The loop with telemetry off and on, and the translate layer on its
    // own (borrowed input, recycling sink), round after round: `ingress`
    // and the telemetry cost are differences between these three, so they
    // must see the same host.
    let udp: Vec<&[u8]> = trace
        .pkts
        .iter()
        .filter(|(k, _)| k.proto == IpProtocol::Udp)
        .map(|(_, p)| p.as_slice())
        .collect();
    let jumbos: Vec<&[u8]> = match w.translate {
        Translate::Egress => trace
            .pkts
            .iter()
            .filter(|(k, _)| k.proto == IpProtocol::Tcp)
            .map(|(_, p)| p.as_slice())
            .collect(),
        _ => Vec::new(),
    };
    let mut emitted = 0;
    let mut last_off = None;
    let mut records = 0;
    let mut merged: Option<MergePass> = None;
    let mut split_out = Recycle::default();
    let (mut unpack_ns, mut split_ns) = (Vec::new(), Vec::new());
    // The whole engine as shipped, with telemetry off, and with two
    // workers ride in the same rounds: `dispatch` is engine − loop.
    let shipped = engine_config(*pipe);
    let mut disabled = shipped;
    disabled.obs = ObsConfig::disabled();
    let mut two = shipped;
    two.pipe.cores = 2;
    let backpressure = Cell::new(0);
    let engine_pass = |cfg: EngineConfig| {
        if !engine_runs {
            return 0.0;
        }
        let run = run_engine(cfg, trace.pkts.clone());
        backpressure.set(backpressure.get() + run.backpressure_drops);
        run.wall_ns
    };
    let [s, d, t, off, on, translate] = alternate(
        probe,
        0.7 * seconds,
        reps,
        [
            &mut || engine_pass(shipped),
            &mut || engine_pass(disabled),
            &mut || engine_pass(two),
            &mut || {
                let mut sink = Recycle::default();
                let mut dp = Datapath::new(w.translate, pipe, None);
                let ns = run_loop(&mut dp, trace.pkts.clone(), pps, &mut sink, None);
                emitted = sink.pkts;
                last_off = Some(dp);
                ns
            },
            &mut || {
                let mut dp = Datapath::new(w.translate, pipe, Some(ObsConfig::default()));
                let mut sink = Recycle::default();
                let ns = run_loop(&mut dp, trace.pkts.clone(), pps, &mut sink, None);
                if let Datapath::Core(engine) = &mut dp {
                    records = obs_records(engine);
                }
                ns
            },
            &mut || match w.translate {
                Translate::Merge => {
                    let pass = merge_pass(pipe, trace);
                    let ns = pass.ns;
                    merged = Some(pass);
                    ns
                }
                Translate::Caravan => {
                    pack_pass(caravan_engine(w, pipe), pps, &udp, &mut Recycle::default())
                }
                Translate::Egress => {
                    let sink = &mut Recycle::default();
                    let unpack = unpack_pass(caravan_engine(w, pipe), &udp, sink);
                    let mut split = SplitEngine::new(pipe.emtu);
                    split_out = Recycle::default();
                    let cut = timed(|| {
                        for pkt in &jumbos {
                            split.push_into(pkt, &mut split_out);
                        }
                    });
                    unpack_ns.push(unpack);
                    split_ns.push(cut);
                    unpack + cut
                }
            },
        ],
    );
    let translate_ns = median(&translate) / n;

    let mut state_bytes_per_flow = 0.0;
    if let Some(m) = &merged {
        let s = &m.stats;
        let pkts_in = s.pkts_in as f64;
        put("core.merge.ns_per_pkt", translate_ns);
        put("core.merge.pkts_out_per_in", m.pkts_out as f64 / pkts_in);
        let slow = s.passthrough
            + s.stashed_segs
            + s.below_window_forwarded
            + s.dropped_duplicate_segs
            + s.degraded_pkts;
        put("core.merge.slowpath_share", slow as f64 / pkts_in);
        put("core.coalesce.stash_share", s.stashed_segs as f64 / pkts_in);
        put(
            "core.coalesce.typed_drops_per_kpkt",
            (s.dropped_inconsistent_overlap + s.dropped_overlap_evasion) as f64 / kpkts,
        );
        state_bytes_per_flow = ratio(m.arena_bytes as f64, m.flows_live as f64);
    } else {
        for name in [
            "core.merge.ns_per_pkt",
            "core.merge.pkts_out_per_in",
            "core.merge.slowpath_share",
            "core.coalesce.stash_share",
            "core.coalesce.typed_drops_per_kpkt",
        ] {
            put(name, 0.0);
        }
    }

    // The caravan direction the workload does not drive runs over the
    // output of the one it does, so a pack gain that costs unpack shows.
    match w.translate {
        Translate::Merge => {
            for name in [
                "core.caravan.pack_ns_per_dgram",
                "core.caravan.unpack_ns_per_dgram",
                "core.caravan.dgrams_per_bundle",
            ] {
                put(name, 0.0);
            }
        }
        Translate::Caravan => {
            let mut bundles = Vec::new();
            pack_pass(
                caravan_engine(w, pipe),
                pps,
                &udp,
                &mut collecting(&mut bundles),
            );
            let input: Vec<&[u8]> = bundles.iter().map(Vec::as_slice).collect();
            let sink = &mut Recycle::default();
            let ns = med(reps, || unpack_pass(caravan_engine(w, pipe), &input, sink));
            let dgrams = udp.len() as f64;
            put(
                "core.caravan.pack_ns_per_dgram",
                median(&translate) / dgrams,
            );
            put("core.caravan.unpack_ns_per_dgram", ns / dgrams);
            put(
                "core.caravan.dgrams_per_bundle",
                dgrams / input.len() as f64,
            );
        }
        Translate::Egress => {
            let mut inner = Vec::new();
            unpack_pass(caravan_engine(w, pipe), &udp, &mut collecting(&mut inner));
            let input: Vec<&[u8]> = inner.iter().map(Vec::as_slice).collect();
            let sink = &mut Recycle::default();
            let ns = med(reps, || {
                pack_pass(caravan_engine(w, pipe), pps, &input, sink)
            });
            let dgrams = input.len() as f64;
            put("core.caravan.pack_ns_per_dgram", ns / dgrams);
            put(
                "core.caravan.unpack_ns_per_dgram",
                median(&unpack_ns) / dgrams,
            );
            put("core.caravan.dgrams_per_bundle", dgrams / udp.len() as f64);
        }
    }
    if w.translate == Translate::Egress {
        let bytes: usize = jumbos.iter().map(|p| p.len()).sum();
        let ns = median(&split_ns);
        put("core.split.ns_per_seg_out", ns / split_out.pkts as f64);
        put("core.split.ns_per_kib", ns / (bytes as f64 / 1024.0));
        put(
            "core.split.sg_share",
            split_out.sg_pkts as f64 / split_out.pkts as f64,
        );
    } else {
        put("core.split.ns_per_seg_out", 0.0);
        put("core.split.ns_per_kib", 0.0);
        put("core.split.sg_share", 0.0);
    }

    let loop_ns = summarize(&off);
    let loop_off = loop_ns.median / n;
    // The egress engines take their recorder per engine, not through the
    // loop's constructor: telemetry there is reported as zero.
    let obs_loop = if engine_runs {
        median(&on) / n - loop_off
    } else {
        0.0
    };
    let dp = last_off.expect("reps >= 1");
    let stats = pool_stats(&dp);
    put(
        "wire.pool.recycle_ratio",
        1.0 - ratio(stats.allocated as f64, stats.gets as f64),
    );
    let (evictions, steered) = match &dp {
        Datapath::Core(engine) => {
            let (_, idle, pressure, steered) = engine.flow_stats();
            (idle + pressure, steered)
        }
        Datapath::Egress { .. } => (0, 0),
    };
    put(
        "core.flowtable.evictions_per_kpkt",
        evictions as f64 / kpkts,
    );
    put("core.flowtable.state_bytes_per_flow", state_bytes_per_flow);
    put("core.steer.mice_share", steered as f64 / n);
    put("core.engine.loop_ns_per_pkt", loop_off);
    put("core.engine.ingress_ns_per_pkt", loop_off - translate_ns);

    // The whole engine's other rows: the auditor, the fixed part, allocations.
    let mut engine_ns = Summary::default();
    let (mut dispatch, mut audit, mut obs_engine, mut spawn_join) = (0.0, 0.0, 0.0, 0.0);
    let (mut engine_allocs, mut scale_2w) = (0.0, 0.0);
    let mut shipped_ns = loop_off;
    if engine_runs {
        let mut audited = shipped;
        audited.digests = true;
        // The auditor is slow by design; two reps place it well enough.
        let a = med(2, || run_engine(audited, trace.pkts.clone()).wall_ns);
        engine_ns = summarize(&s);
        shipped_ns = engine_ns.median / n;
        dispatch = median(&d) / n - loop_off;
        audit = (a - engine_ns.median) / n;
        obs_engine = engine_ns.median / median(&d) - 1.0;
        scale_2w = engine_ns.median / median(&t);
        if nproc < 3 {
            tags.push(format!(
                "core.engine.scale_2w oversubscribed: 2 workers + dispatcher on {nproc} CPUs"
            ));
        }
        let head: Vec<_> = trace.pkts[..BURST].to_vec();
        spawn_join = med(9, || run_engine(shipped, head.clone()).wall_ns) / 1e3;
        let copy = trace.pkts.clone();
        engine_allocs = alloc::count(|| run_engine(shipped, copy)).1 as f64 / n;
    }
    put("core.engine.dispatch_ns_per_pkt", dispatch);
    put("core.engine.spawn_join_us", spawn_join);
    put("core.engine.audit_ns_per_pkt", audit);
    put("core.engine.allocs_per_pkt", engine_allocs);
    let copy = trace.pkts.clone();
    let mut dp = Datapath::new(w.translate, pipe, None);
    let loop_allocs =
        alloc::count(|| run_loop(&mut dp, copy, pps, &mut Recycle::default(), None)).1;
    put("core.engine.loop_allocs_per_pkt", loop_allocs as f64 / n);
    put("core.engine.backpressure_drops", backpressure.get() as f64);
    put("core.engine.scale_2w", scale_2w);
    put("obs.loop_overhead_ns_per_pkt", obs_loop);
    put("obs.loop_overhead_frac", obs_loop / loop_off);
    put("obs.engine_overhead_frac", obs_engine);
    put("obs.records_per_pkt", records as f64 / n);

    // Reconciliation against the end-to-end figure (1e3 / fwd_mpps). The
    // rungs are parse, translate net of parse, ingress, telemetry and
    // dispatch; the first three are the loop, by the definition of
    // ingress, so the sum is loop + telemetry (measured on the loop) +
    // dispatch (measured with telemetry off).
    let sum = loop_off + obs_loop + dispatch;
    put("ladder.sum_ns_per_pkt", sum);
    put("ladder.unexplained_ns_per_pkt", shipped_ns - sum);
    put("ladder.unexplained_frac", (shipped_ns - sum) / shipped_ns);

    // The traced run, against the same staged loop with tracing off.
    let span_capacity = 3 * (trace.pkts.len() / BURST + 2) + emitted as usize + 64;
    let mut kept = None;
    let [untraced, traced] = alternate(
        probe,
        0.15 * seconds,
        reps,
        [
            &mut || {
                let mut dp = Datapath::new(w.translate, pipe, None);
                let sink = &mut Recycle::default();
                trace::staged_loop(&mut dp, trace.pkts.clone(), pps, sink, &mut trace::Off)
            },
            &mut || {
                let mut dp = Datapath::new(w.translate, pipe, None);
                let copy = trace.pkts.clone();
                let mut rec = Recording::with_capacity(span_capacity);
                let ns = trace::staged_loop(&mut dp, copy, pps, &mut Recycle::default(), &mut rec);
                kept = Some((rec, ns));
                ns
            },
        ],
    );
    let (untraced, traced) = (median(&untraced), median(&traced));
    put("trace.overhead_frac", traced / untraced - 1.0);
    let (mut rec, traced_ns) = kept.expect("reps >= 1");
    let span_cover_gap_frac =
        (traced_ns - trace::top_level_ns(rec.spans()) as f64).abs() / traced_ns;
    if engine_runs {
        let copy = trace.pkts.clone();
        let id = rec.open(trace::ENGINE_RUN, 0);
        run_engine(shipped, copy);
        rec.close(id, trace.pkts.len() as u32, trace.wire_bytes());
    }
    let trace_json = trace::to_json(w.name, seed, rec.spans(), traced_ns, rec.overflowed);

    Layers {
        values,
        tags,
        engine_ns,
        loop_ns,
        trace_json,
        span_cover_gap_frac,
    }
}
