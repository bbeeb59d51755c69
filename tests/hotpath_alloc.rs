//! The paper's §3 scalability argument made checkable: after warm-up,
//! the PXGW hot loop (merge, split, caravan) must run **allocation-free**
//! — every output buffer cycles engine pool → sink → engine pool without
//! touching the global allocator, and the flow table / expiry heap reuse
//! their preallocated storage. The DPDK-GRO baseline is held to the
//! same bar: it is the merge engine drained at every RX burst, and the
//! drain reuses its storage too.
//!
//! A counting `#[global_allocator]` wraps `System` and tallies every
//! `alloc`/`realloc` **made by the engine thread**. All inputs are
//! prebuilt; the measured region then drives the engines through their
//! sink APIs with a recycling sink and asserts the allocation counter
//! does not move.
//!
//! Everything lives in ONE `#[test]` so no concurrent test thread can
//! perturb the counter, and the counter is thread-filtered because the
//! claim is about the hot loop: the test harness's own service threads
//! occasionally allocate at unpredictable times, and those events say
//! nothing about whether merge/split/caravan touch the allocator.
//!
//! The last region widens the claim from the engines to the whole
//! run-to-completion driver: one Parallel `run_engine_on_trace` call —
//! sharding, worker start, every burst, telemetry, drain, report — is
//! counted on *every* thread (the worker is not the calling thread) and
//! must stay within a fixed set-up budget, far below one allocation per
//! burst.

use packet_express::core::caravan_gw::{CaravanConfig, CaravanEngine};
use packet_express::core::engine::{
    run_engine_on_trace, CoreEngine, EngineConfig, EngineMode, GRO_BURST_PKTS,
};
use packet_express::core::merge::{MergeConfig, MergeEngine};
use packet_express::core::pipeline::{PipelineConfig, SystemVariant, TraceGen, WorkloadKind};
use packet_express::core::split::SplitEngine;
use packet_express::core::steer::SteerConfig;
use packet_express::obs::ObsConfig;
use packet_express::wire::batchparse::{self, Verdict};
use packet_express::wire::ipv4::Ipv4Repr;
use packet_express::wire::pool::{PacketSink, SgPacket, VecSink};
use packet_express::wire::tcp::{SeqNum, TcpFlags, TcpRepr};
use packet_express::wire::{IpProtocol, PacketBuf, UdpRepr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Set around the whole-engine region only: count every thread, because
/// the engine's worker is a thread of its own.
static ALL_THREADS: AtomicBool = AtomicBool::new(false);
static TRACE: [AtomicU64; 8] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

std::thread_local! {
    /// `true` only on the thread driving the engines. Const-initialised
    /// `Cell<bool>` has no destructor, so reading it inside the global
    /// allocator cannot itself allocate (no lazy TLS registration).
    static ENGINE_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn count(layout_size: usize) {
    if ENGINE_THREAD.with(Cell::get) || ALL_THREADS.load(Ordering::Relaxed) {
        let n = ALLOCS.fetch_add(1, Ordering::Relaxed);
        TRACE[(n % 8) as usize].store(layout_size as u64, Ordering::Relaxed);
    }
}

// SAFETY: pure pass-through to `System`; the only extra work is a
// relaxed atomic increment behind a const-init TLS flag, neither of
// which can violate any allocator invariant.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    // SAFETY: `ptr` was produced by `System.alloc` above with the same
    // layout, so handing it back to `System.dealloc` is sound.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same provenance argument as `dealloc`; `System.realloc`
    // upholds the GlobalAlloc contract for the returned pointer.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[track_caller]
fn assert_region_clean(before: u64, what: &str) {
    let n = allocs() - before;
    assert_eq!(
        n,
        0,
        "{what} steady state must not touch the allocator; last sizes {:?}",
        TRACE
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect::<Vec<_>>()
    );
}

const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn tcp_pkt(port: u16, seq: u32, len: usize) -> Vec<u8> {
    let payload: Vec<u8> = (0..len).map(|j| ((j * 13 + 7) % 251) as u8).collect();
    let repr = TcpRepr {
        src_port: port,
        dst_port: 80,
        seq: SeqNum(seq),
        ack: SeqNum(1),
        flags: TcpFlags::ACK,
        window: 2048,
        options: vec![],
    };
    let seg = repr.build_segment(SRC, DST, &payload);
    Ipv4Repr::new(SRC, DST, IpProtocol::Tcp, seg.len())
        .build_packet(&seg)
        .unwrap()
}

fn udp_pkt(port: u16, ident: u16, len: usize) -> Vec<u8> {
    let payload: Vec<u8> = (0..len).map(|j| ((j * 29 + 3) % 251) as u8).collect();
    let dg = UdpRepr {
        src_port: port,
        dst_port: 4433,
    }
    .build_datagram(SRC, DST, &payload)
    .unwrap();
    let mut ip = Ipv4Repr::new(SRC, DST, IpProtocol::Udp, dg.len());
    ip.ident = ident;
    ip.build_packet(&dg).unwrap()
}

/// A sink that recycles every buffer back to the emitting engine's pool
/// (returns `Some`), summing lengths so the work is not optimised away.
fn recycler(total: &mut u64) -> impl FnMut(PacketBuf) -> Option<PacketBuf> + '_ {
    move |buf| {
        *total += buf.len() as u64;
        Some(buf)
    }
}

/// A sink that notes the allocation every packet arrives in, then hands
/// the buffer back.
struct AddrSink {
    addrs: Vec<usize>,
}

impl PacketSink for AddrSink {
    fn accept(&mut self, buf: PacketBuf) -> Option<PacketBuf> {
        self.addrs.push(buf.base_addr());
        Some(buf)
    }
}

/// A sink that consumes scatter-gather views **without materialising**:
/// header and payload segments are tallied in place, the pooled header
/// goes straight back for recycling, and the payload bytes are never
/// copied. This is the zero-copy consumer shape the split engine's SG
/// emission path exists for.
struct SgTally {
    total: u64,
    views: u64,
}

impl PacketSink for SgTally {
    fn accept(&mut self, buf: PacketBuf) -> Option<PacketBuf> {
        self.total += buf.len() as u64;
        Some(buf)
    }

    fn push_sg(&mut self, mut pkt: SgPacket<'_>) -> Option<PacketBuf> {
        self.views += 1;
        self.total += pkt.total_len() as u64;
        Some(pkt.take_header())
    }
}

#[test]
fn steady_state_hot_loops_do_not_allocate() {
    ENGINE_THREAD.with(|c| c.set(true));
    const WARMUP: usize = 8;
    const MEASURED: usize = 24;
    let mut sunk = 0u64;

    // The recorder is armed on every engine: the default config
    // preallocates the span ring at enable time, so recording spans
    // must add ZERO allocations to the measured regions below.
    let obs = ObsConfig::default();
    assert!(obs.span_capacity > 0);

    // ---- merge: contiguous 6-segment rounds on two flows, aggregates
    // emitted by the reached-iMTU check (flush_full path).
    let mut merge = MergeEngine::new(MergeConfig {
        imtu: 9000,
        emtu: 1500,
        hold_ns: 50_000,
        table_capacity: 64,
    });
    merge.enable_obs(obs);
    let rounds: Vec<Vec<Vec<u8>>> = (0..WARMUP + MEASURED)
        .map(|r| {
            (0..6u32)
                .flat_map(|i| {
                    let seq = (r as u32) * 6 * 1460 + i * 1460;
                    [tcp_pkt(5000, seq, 1460), tcp_pkt(5001, seq, 1460)]
                })
                .collect()
        })
        .collect();
    let mut now = 0u64;
    let mut run_merge = |rounds: &[Vec<Vec<u8>>], sunk: &mut u64| {
        for round in rounds {
            for pkt in round {
                let mut sink = recycler(sunk);
                merge.poll_into(now, &mut sink);
                merge.push_into(now, pkt, &mut sink);
                now += 10_000;
            }
        }
    };
    run_merge(&rounds[..WARMUP], &mut sunk);
    let before = allocs();
    run_merge(&rounds[WARMUP..], &mut sunk);
    assert_region_clean(before, "merge");
    // Held aggregates are not leaks; after a full drain with a recycling
    // sink every pool buffer must be back.
    {
        let mut sink = recycler(&mut sunk);
        merge.flush_all_into(&mut sink);
    }
    assert_eq!(merge.pool_stats().outstanding(), 0, "merge pool leak");

    // ---- steered mice through the engine's owned entry point: a burst
    // of 32 tracked mouse flows, six packets each (the classifier
    // promotes at eight). Each mouse is keyed from its headers and
    // leaves in the `Vec` it arrived in — no allocation, no pool `get`,
    // and the sink sees the input's own address.
    let mut steered = MergeEngine::steered(
        MergeConfig {
            imtu: 9000,
            emtu: 1500,
            hold_ns: 50_000,
            table_capacity: 64,
        },
        SteerConfig::default(),
    );
    steered.enable_obs(obs);
    let mut core = CoreEngine::Merge(steered);
    const MICE: u16 = batchparse::BATCH_PKTS as u16;
    let mut warm = AddrSink { addrs: Vec::new() };
    for port in 0..MICE {
        core.push_into(0, tcp_pkt(7200 + port, 0, 300), &mut warm);
    }
    let mice: Vec<Vec<u8>> = (1..7u32)
        .flat_map(|i| (0..MICE).map(move |port| tcp_pkt(7200 + port, i * 300, 300)))
        .collect();
    let input_addrs: Vec<usize> = mice.iter().map(|p| p.as_ptr() as usize).collect();
    let mut seen = AddrSink {
        addrs: Vec::with_capacity(mice.len()),
    };
    let gets_before = match &core {
        CoreEngine::Merge(m) => m.pool_stats().gets,
        _ => unreachable!("built as Merge"),
    };
    let before = allocs();
    for pkt in mice {
        core.push_into(1_000, pkt, &mut seen);
    }
    assert_region_clean(before, "steered mice");
    let CoreEngine::Merge(steered) = &core else {
        unreachable!("built as Merge")
    };
    assert_eq!(steered.pool_stats().gets, gets_before, "no pool get");
    assert_eq!(steered.pool_stats().outstanding(), 0);
    assert_eq!(steered.stats.steered_mice_pkts, 7 * u64::from(MICE));
    assert_eq!(
        seen.addrs, input_addrs,
        "every mouse leaves in the allocation it arrived in"
    );

    // ---- the steering engine's one table at capacity. Sixteen
    // promoted elephants, each holding an aggregate, fill it, so the
    // probation segment is empty. Warm-up runs one eviction cycle and
    // promotes its last mouse to refill the table with elephants; then
    // the measured region's first new mouse evicts an elephant under
    // pressure (its aggregate rescue-flushed), and each later one
    // evicts the idle mouse before it.
    const CAP: u16 = 16;
    let mut full = MergeEngine::steered(
        MergeConfig {
            imtu: 9000,
            emtu: 1500,
            hold_ns: 50_000,
            table_capacity: 64,
        },
        SteerConfig {
            table_capacity: usize::from(CAP),
            ..SteerConfig::default()
        },
    );
    full.enable_obs(obs);
    let mut core = CoreEngine::Merge(full);
    let flow_pkts = |port: u16, pkts: u32| (0..pkts).map(move |i| tcp_pkt(port, i * 300, 300));
    let warm: Vec<Vec<u8>> = (0..CAP)
        .flat_map(|e| flow_pkts(7600 + e, 9))
        .chain((0..4).flat_map(|m| flow_pkts(7700 + m, 1)))
        .chain(flow_pkts(7703, 9).skip(1))
        .collect();
    for pkt in warm {
        core.push_into(0, pkt, &mut recycler(&mut sunk));
    }
    let (_, idle_before, pressure_before, _) = core.flow_stats();
    assert_eq!(pressure_before, 1, "warm-up ran one pressure eviction");
    let storm: Vec<Vec<u8>> = (0..32).flat_map(|m| flow_pkts(7800 + m, 1)).collect();
    let before = allocs();
    for pkt in storm {
        core.push_into(0, pkt, &mut recycler(&mut sunk));
    }
    assert_region_clean(before, "steering table at capacity");
    let (live, idle, pressure, _) = core.flow_stats();
    assert_eq!(live, u64::from(CAP));
    assert!(pressure > pressure_before, "no pressure eviction measured");
    assert_eq!(
        idle - idle_before,
        31,
        "every later mouse evicts an idle one"
    );
    core.finish_into(&mut recycler(&mut sunk));
    let CoreEngine::Merge(full) = &core else {
        unreachable!("built as Merge")
    };
    assert!(full.stats.flush_evict >= 2, "aggregates rescue-flushed");
    assert_eq!(full.pool_stats().outstanding(), 0, "pool balanced");

    // ---- baseline: the merge engine drained at the end of every
    // 64-packet RX burst, the way DPDK's rte_gro forwards. Eight flows
    // interleave in runs of three contiguous segments, so each burst
    // emits full aggregates mid-burst and partial ones at its end.
    let pipe = PipelineConfig::fig5(SystemVariant::BaselineGro, WorkloadKind::Tcp, 1);
    let mut gro = CoreEngine::for_pipe(&pipe);
    gro.enable_obs(obs);
    const GRO_WARMUP_BURSTS: usize = 2;
    const GRO_MEASURED_BURSTS: usize = 3;
    let burst = GRO_BURST_PKTS as usize;
    let mut seqs = [0u32; 8];
    let mut gro_pkts: Vec<Vec<u8>> = (0..(GRO_WARMUP_BURSTS + GRO_MEASURED_BURSTS) * burst)
        .map(|i| {
            let f = (i / 3) % seqs.len();
            seqs[f] += 1460;
            tcp_pkt(7400 + f as u16, seqs[f] - 1460, 1460)
        })
        .collect();
    let gro_measured = gro_pkts.split_off(GRO_WARMUP_BURSTS * burst);
    for pkt in gro_pkts {
        gro.push_into(0, pkt, &mut recycler(&mut sunk));
    }
    let before = allocs();
    for pkt in gro_measured {
        gro.push_into(0, pkt, &mut recycler(&mut sunk));
    }
    assert_region_clean(before, "baseline");
    let CoreEngine::Baseline(gro) = &gro else {
        unreachable!("built as Baseline")
    };
    assert_eq!(gro.pool_stats().outstanding(), 0, "every burst drained");
    assert!(gro.stats.flush_full > 0 && gro.stats.flush_timeout > 0);

    // ---- split: one jumbo in, six wire segments out, every round.
    let mut split = SplitEngine::new(1500);
    split.enable_obs(obs);
    let jumbo = tcp_pkt(6000, 1, 8760);
    let mut run_split = |n: usize, sunk: &mut u64| {
        for _ in 0..n {
            let mut sink = recycler(sunk);
            split.push_into(&jumbo, &mut sink);
        }
    };
    run_split(WARMUP, &mut sunk);
    let before = allocs();
    run_split(MEASURED, &mut sunk);
    assert_region_clean(before, "split");

    // ---- split, scatter-gather consumer: same jumbo, but the sink
    // takes the views as views — no materialising copy anywhere. The
    // region must be alloc-free AND every emission must arrive via
    // `push_sg`.
    let mut sg_sink = SgTally { total: 0, views: 0 };
    let mut run_split_sg = |n: usize, sink: &mut SgTally| {
        for _ in 0..n {
            split.push_into(&jumbo, sink);
        }
    };
    run_split_sg(WARMUP, &mut sg_sink);
    let before = allocs();
    let views_before = sg_sink.views;
    run_split_sg(MEASURED, &mut sg_sink);
    assert_region_clean(before, "SG split");
    assert_eq!(
        sg_sink.views - views_before,
        (MEASURED as u64) * 6,
        "every wire segment must be delivered as a scatter-gather view"
    );

    // ---- parse: the worker classifies each packet inside the merge
    // step — no scratch array to size, nothing carried between
    // packets. Classifying a full 32-packet burst (checksums verified,
    // flow keys extracted) allocates nothing from the first packet on.
    let batch: Vec<Vec<u8>> = (0..batchparse::BATCH_PKTS)
        .map(|i| tcp_pkt(6100, (i as u32) * 1460, 1460))
        .collect();
    let before = allocs();
    let mut mergeable = 0u64;
    for _ in 0..MEASURED {
        mergeable += batch
            .iter()
            .map(|p| batchparse::parse_packet(p))
            .filter(|m| matches!(m.verdict, Verdict::Mergeable(_)))
            .count() as u64;
    }
    assert_region_clean(before, "per-packet parse");
    assert_eq!(
        mergeable,
        (MEASURED * batchparse::BATCH_PKTS) as u64,
        "every prebuilt data segment must classify as mergeable"
    );

    // ---- caravan: rounds of 8 same-flow datagrams with consecutive
    // IP-IDs; bundles emit when the budget fills.
    let caravan_cfg = CaravanConfig {
        imtu: 9000,
        hold_ns: 50_000,
        table_capacity: 64,
        require_consecutive_ip_id: true,
        probe_port: 9999,
    };
    let mut caravan = CaravanEngine::new(caravan_cfg);
    caravan.enable_obs(obs);
    let dgrams: Vec<Vec<u8>> = (0..(WARMUP + MEASURED) * 8)
        .map(|i| udp_pkt(7000, i as u16, 1100))
        .collect();
    let mut cnow = 0u64;
    let mut run_caravan = |pkts: &[Vec<u8>], sunk: &mut u64| {
        for pkt in pkts {
            let mut sink = recycler(sunk);
            caravan.poll_into(cnow, &mut sink);
            caravan.push_inbound_into(cnow, pkt, &mut sink);
            cnow += 10_000;
        }
    };
    run_caravan(&dgrams[..WARMUP * 8], &mut sunk);
    let before = allocs();
    run_caravan(&dgrams[WARMUP * 8..], &mut sunk);
    assert_region_clean(before, "caravan");

    // ---- unbundle, scatter-gather consumer: one 6-datagram caravan
    // restored per round. Each datagram must leave as a view (a pooled
    // 20-byte header plus a slice of the bundle), the region must be
    // alloc-free, and every header buffer must be back in the pool.
    let bundle = {
        let mut packer = CaravanEngine::new(caravan_cfg);
        let mut out = VecSink::new();
        for i in 0..6u16 {
            packer.push_inbound_into(0, &udp_pkt(7100, i, 1472), &mut out);
        }
        assert_eq!(out.pkts.len(), 1, "six 1480 B datagrams fill one bundle");
        out.pkts.remove(0)
    };
    let mut unbundler = CaravanEngine::new(caravan_cfg);
    unbundler.enable_obs(obs);
    let mut dg_sink = SgTally { total: 0, views: 0 };
    let mut run_unbundle = |n: usize, sink: &mut SgTally| {
        for _ in 0..n {
            unbundler.push_outbound_into(&bundle, sink);
        }
    };
    run_unbundle(WARMUP, &mut dg_sink);
    let before = allocs();
    let views_before = dg_sink.views;
    run_unbundle(MEASURED, &mut dg_sink);
    assert_region_clean(before, "SG unbundle");
    assert_eq!(
        dg_sink.views - views_before,
        (MEASURED as u64) * 6,
        "every restored datagram must be delivered as a scatter-gather view"
    );
    assert_eq!(
        unbundler.pool_stats().outstanding(),
        0,
        "unbundle pool leak"
    );

    assert!(sunk > 0, "sinks must have seen real output");

    // Recording genuinely happened during the alloc-free regions —
    // the zero-allocation assertions above covered live recorders
    // (spans and histograms), not disabled no-ops.
    assert!(merge.obs().spans_recorded() > 0, "merge recorder was idle");
    assert!(split.obs.spans_recorded() > 0, "split recorder was idle");
    assert!(
        caravan.obs().spans_recorded() > 0,
        "caravan recorder was idle"
    );

    // ---- the whole engine, run to completion: one worker thread owns
    // the single shard and walks it in 32-packet bursts. What may
    // allocate is set-up (shard, worker, flow table, recorder rings,
    // pool warm-up) and the final report — a fixed ~500 allocations
    // whatever the trace length, so over 128 k packets the per-packet
    // figure sits far below the 1/32 a `Vec` per burst would cost
    // (0.035 before the dispatcher was removed).
    const ENGINE_PKTS: usize = 128_000;
    let mut pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, 1);
    pipe.trace_pkts = ENGINE_PKTS;
    let trace = TraceGen::new(pipe.workload, pipe.n_flows, pipe.emtu, pipe.mean_run, 7)
        .generate(ENGINE_PKTS);
    let cfg = EngineConfig::new(pipe, EngineMode::Parallel);
    assert!(cfg.obs.enabled, "the shipped telemetry stays on");
    let before = allocs();
    ALL_THREADS.store(true, Ordering::Relaxed);
    let report = run_engine_on_trace(cfg, trace);
    ALL_THREADS.store(false, Ordering::Relaxed);
    let engine_allocs = allocs() - before;
    assert_eq!(report.totals.pkts_in, ENGINE_PKTS as u64);
    assert!(report.totals.batches >= (ENGINE_PKTS / 32) as u64);
    let per_pkt = engine_allocs as f64 / ENGINE_PKTS as f64;
    eprintln!("whole engine: {engine_allocs} allocations, {per_pkt:.5} per packet");
    assert!(
        per_pkt <= 0.005,
        "whole-engine run made {engine_allocs} allocations ({per_pkt:.5}/pkt)"
    );
}
