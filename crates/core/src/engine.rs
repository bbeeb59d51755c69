//! The *real* multi-core sharded PXGW datapath engine.
//!
//! Where [`crate::pipeline`] prices CPU cycles and the memory bus to
//! *model* Fig. 5a/5b throughput, this module actually runs the
//! datapath, in the shape RSS hardware gives the paper's DPDK gateway:
//! the byte-accurate trace is sharded once with the real Toeplitz
//! [`RssHasher`] into one flat, arrival-ordered `(timestamp, flow hash,
//! packet)` queue per core, and each core's [`CoreEngine`] worker **owns its
//! shard and runs it to completion** — `for burst in shard.chunks(n)
//! { recv → translate → send }`, then an end-of-stream idle tick, the
//! drain, and one hand-off to the [`StatsRegistry`]. Nothing sits
//! between the shard and the worker: no dispatcher, no queue, no
//! per-burst allocation, no packet re-homed (a shard *references* the
//! trace). The worker keeps [`PREFETCH_BYTES`] of upcoming packets
//! requested and verifies, appends and frees one packet at a time while
//! it is in L1. Two modes drive that one per-core function
//! (`run_core`):
//!
//! * [`EngineMode::Parallel`] — one OS thread per core. Wall-clock
//!   time over the spawn → process → join region gives a *measured*
//!   forwarding rate for this host, reported next to the modelled bound.
//! * [`EngineMode::Deterministic`] — the same shards walked on the
//!   calling thread, core by core. Workers share nothing, RSS pins a
//!   flow to one core and every hold-timer poll happens at a packet
//!   arrival timestamp taken from the global trace, so the per-flow
//!   output byte streams are **bit-identical for a fixed seed
//!   regardless of core count or mode** — the property the
//!   `engine_equivalence` and `digest_pin` integration tests prove.
//!
//! Workers keep private [`CoreCounters`] (nothing shared on the hot
//! path) and merge them into a [`StatsRegistry`] when they finish.
//! Per-flow output is summarised by [`FlowDigest`]: an FNV-1a hash over
//! the length-prefixed L4 payloads of every packet the engine emitted
//! for that flow. Hashing the L4 payload (not the whole packet) is
//! deliberate: PX-caravan stamps outer IPv4 `ident` values from an
//! engine-global counter, so outer headers legitimately differ when
//! flows interleave differently across cores, while the delivered
//! payload bytes — what a receiver reassembles — must not.

use crate::caravan_gw::{CaravanConfig, CaravanEngine};
use crate::chassis::Chassis;
use crate::flowtable::{flow_hash, FlowTable};
use crate::merge::{FlowState, MergeConfig, MergeEngine};
use crate::pipeline::{PipelineConfig, SystemVariant, TraceGen, WorkloadKind};
use px_faults::{FaultInjector, FaultPlan, FaultSpec, IngressStats, PlannedFaults};
use px_obs::{
    evaluate_snapshot, perfetto_json, serve, BatchObs, ObsConfig, ObsReport, Recorder, Response,
    ServeHandle, SloSpec, SloWatchdog, Span, SpanCat, Telemetry, TimeSample,
};
use px_sim::stats::{CoreCounters, StatsRegistry};
use px_wire::batchparse::{self, ParsedMeta};
#[cfg(not(test))]
use px_wire::batchparse::{prefetch_packet, prefetch_ref};
use px_wire::ipv4::Ipv4Packet;
use px_wire::pool::PacketSink;
use px_wire::{FlowKey, IpProtocol, PacketBuf, RssHasher};
use std::borrow::BorrowMut;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
#[cfg(test)]
use tests::{prefetch_packet, prefetch_ref};

/// One core's gateway datapath: the actual translation engine the
/// pipeline model and the threaded engine both drive.
// One engine lives per core for the whole run; boxing the large merge
// variant would buy nothing but a pointer hop on every hot-path call.
#[allow(clippy::large_enum_variant)]
pub enum CoreEngine {
    /// The paper's comparison point, a gateway on DPDK's `rte_gro`
    /// library: the merge engine PX runs, minus delayed merging.
    /// `rte_gro` coalesces within one RX burst and holds nothing across
    /// bursts, so this engine is never polled and instead flushes every
    /// aggregate after each [`GRO_BURST_PKTS`]-th packet, at the idle
    /// tick and at the drain. It gets no steering and no flow-table
    /// override. A burst rarely holds enough contiguous same-flow
    /// segments to fill a 9 KB jumbo, so its conversion yield stays
    /// near 74 % (paper: 76 %) where PX's delayed merging reaches 93 %.
    Baseline(MergeEngine),
    /// PXGW TCP delayed merging.
    Merge(MergeEngine),
    /// PXGW UDP caravan bundling.
    Caravan(CaravanEngine),
}

/// The baseline's RX burst: `rte_eth_rx_burst` hands `rte_gro` 32–64
/// descriptors per poll, and the baseline ends every aggregate at the
/// burst's end.
pub const GRO_BURST_PKTS: u64 = 64;

/// What a driver reads off one engine *instance*: the [`CoreCounters`]
/// fields the engine owns — ladder, drop, eviction and steering counts
/// plus the `flows_live` gauge, every other field zero — and the bytes
/// its flow-state arenas reserve.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineTally {
    /// The engine's share of its core's counters.
    pub counters: CoreCounters,
    /// Bytes reserved by the flow table and the classifier.
    pub arena_bytes: usize,
}

impl CoreEngine {
    /// Builds the engine one core of a pipeline run uses: the variant /
    /// workload pair's engine in the Fig. 5 configuration (64 K
    /// flow-table entries, a burst's worth for the baseline,
    /// consecutive-IP-ID caravan packing), then the run's flow-scale
    /// knobs — the pool's parked-buffer cap and, on the PX engines, the
    /// flow-table sizing override and (merge path only) the small-flow
    /// classifier.
    pub fn for_pipe(cfg: &PipelineConfig) -> Self {
        let merge = |table_capacity| {
            MergeEngine::new(MergeConfig {
                imtu: cfg.imtu,
                emtu: cfg.emtu,
                hold_ns: cfg.hold_ns,
                table_capacity,
            })
        };
        let mut engine = match (cfg.variant, cfg.workload) {
            // A burst holds at most this many flows, and the table is
            // empty again after every burst.
            (SystemVariant::BaselineGro, _) => CoreEngine::Baseline(merge(GRO_BURST_PKTS as usize)),
            (_, WorkloadKind::Tcp) => {
                let mut m = merge(65536);
                if let Some(table) = cfg.flow_table {
                    m.configure_table(table);
                }
                if let Some(steer) = cfg.steer {
                    m.enable_steer(steer);
                }
                CoreEngine::Merge(m)
            }
            (_, WorkloadKind::Udp) => {
                let mut c = CaravanEngine::new(CaravanConfig {
                    imtu: cfg.imtu,
                    hold_ns: cfg.hold_ns,
                    table_capacity: 65536,
                    require_consecutive_ip_id: true,
                    probe_port: crate::gateway::FPMTUD_PORT,
                });
                if let Some(table) = cfg.flow_table {
                    c.configure_table(table);
                }
                CoreEngine::Caravan(c)
            }
        };
        engine.chassis_mut().set_pool_bufs(cfg.pool_bufs);
        engine
    }

    /// Feeds one input packet at time `now`, polling hold timers first;
    /// output packets this step produced are delivered to `sink`. This
    /// is the allocation-free hot path: the inner engines draw emitted
    /// buffers from their pools, and whatever the sink returns from
    /// [`PacketSink::accept`] is recycled. The merge engine takes `pkt`
    /// over: a steered mouse leaves in this allocation, uncopied, and
    /// is freed rather than recycled when the sink hands it back.
    pub fn push_into(&mut self, now: u64, pkt: Vec<u8>, sink: &mut impl PacketSink) {
        self.push_with_meta(now, pkt, None, sink);
    }

    /// [`push_into`](Self::push_into) with the packet's parse already
    /// done by a batch-front [`batchparse::parse_batch_with`] pass (the
    /// staged form harnesses use to price the parse on its own). Only
    /// the merge engines consume the meta; the caravan parses as before.
    pub fn push_parsed_into(
        &mut self,
        now: u64,
        pkt: Vec<u8>,
        meta: &ParsedMeta,
        sink: &mut impl PacketSink,
    ) {
        self.push_with_meta(now, pkt, Some(meta), sink);
    }

    /// The one push body behind both entry points.
    fn push_with_meta(
        &mut self,
        now: u64,
        pkt: Vec<u8>,
        meta: Option<&ParsedMeta>,
        sink: &mut impl PacketSink,
    ) {
        match self {
            CoreEngine::Baseline(b) => {
                b.push_owned_into(now, pkt, meta, sink);
                if b.stats.pkts_in.is_multiple_of(GRO_BURST_PKTS) {
                    b.flush_all_into(sink);
                }
            }
            CoreEngine::Merge(m) => {
                m.poll_into(now, sink);
                m.push_owned_into(now, pkt, meta, sink);
            }
            CoreEngine::Caravan(c) => {
                c.poll_into(now, sink);
                c.push_inbound_into(now, &pkt, sink);
            }
        }
    }

    /// Drains every held aggregate (end of trace) into `sink`.
    pub fn finish_into(&mut self, sink: &mut impl PacketSink) {
        match self {
            CoreEngine::Baseline(m) | CoreEngine::Merge(m) => m.flush_all_into(sink),
            CoreEngine::Caravan(c) => c.flush_all_into(sink),
        }
    }

    /// Idle tick for a quiesced shard: this core's input stream ended,
    /// so every held aggregate's hold deadline lies in its unreachable
    /// future — flush them all now instead of parking them until the
    /// run-wide drain. This is the dead-shard fix: `pop_expired` used
    /// to be polled only on packet arrival, so a core that stopped
    /// receiving packets never flushed its expired flows. For the
    /// baseline the tick ends the short last burst.
    pub fn idle_tick_into(&mut self, sink: &mut impl PacketSink) {
        match self {
            CoreEngine::Baseline(b) => b.flush_all_into(sink),
            CoreEngine::Merge(m) => m.poll_into(u64::MAX, sink),
            CoreEngine::Caravan(c) => c.poll_into(u64::MAX, sink),
        }
    }

    /// The engine's chassis — pool, fault gate, degradation ladder,
    /// recorder, span links.
    pub(crate) fn chassis(&self) -> &Chassis {
        match self {
            CoreEngine::Baseline(m) | CoreEngine::Merge(m) => &m.chassis,
            CoreEngine::Caravan(c) => &c.chassis,
        }
    }

    /// [`chassis`](Self::chassis), mutably.
    pub(crate) fn chassis_mut(&mut self) -> &mut Chassis {
        match self {
            CoreEngine::Baseline(m) | CoreEngine::Merge(m) => &mut m.chassis,
            CoreEngine::Caravan(c) => &mut c.chassis,
        }
    }

    /// The flow table the worker's lookahead warms: a merge engine's
    /// one table, while its live population is past what stays in
    /// cache.
    pub(crate) fn lookahead_table(&self) -> Option<&FlowTable<FlowState>> {
        match self {
            CoreEngine::Baseline(m) | CoreEngine::Merge(m) => m.lookahead_table(),
            CoreEngine::Caravan(_) => None,
        }
    }

    /// The inner engine's counters and gauges, by name.
    pub(crate) fn tally(&self) -> EngineTally {
        match self {
            CoreEngine::Baseline(m) | CoreEngine::Merge(m) => m.tally(),
            CoreEngine::Caravan(c) => c.tally(),
        }
    }

    /// Switches the inner engine's span recorder + histograms on.
    pub fn enable_obs(&mut self, cfg: ObsConfig) {
        self.chassis_mut().obs = Recorder::new(cfg);
    }

    /// The inner engine's recorder. Every arm has one, so this is
    /// always `Some`.
    pub fn obs_mut(&mut self) -> Option<&mut Recorder> {
        Some(&mut self.chassis_mut().obs)
    }

    /// Per-flow-state telemetry as `(flows_live, evicted_idle,
    /// evicted_pressure, steered_mice_pkts)`, read off the
    /// [`tally`](Self::tally).
    pub fn flow_stats(&self) -> (u64, u64, u64, u64) {
        let c = self.tally().counters;
        (
            c.flows_live,
            c.flows_evicted_idle,
            c.flows_evicted_pressure,
            c.steered_mice_pkts,
        )
    }
}

/// How the engine schedules its per-core workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// One OS thread per core, each running its own shard to
    /// completion; wall-clock throughput is measured.
    Parallel,
    /// The identical per-core shards walked on the calling thread, core
    /// by core; bit-identical output for a fixed seed, any core count.
    Deterministic,
}

/// Engine run configuration: a pipeline workload plus what the run
/// audits, observes and injects. Workers take
/// [`BATCH_PKTS`](batchparse::BATCH_PKTS)-packet bursts off their shards.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The workload/variant/core-count setup (shared with the model).
    pub pipe: PipelineConfig,
    /// Scheduling mode.
    pub mode: EngineMode,
    /// Observability: span recorder, histograms, mid-run publishing,
    /// and the Parallel-mode sampler thread. On by default — the
    /// deterministic digests are pinned *with* recording enabled, which
    /// is what proves recording never perturbs the datapath.
    pub obs: ObsConfig,
    /// Fault-injection schedule ([`FaultSpec::off`] in production —
    /// every fault check is then one predicted branch; the chaos
    /// harness arms it with [`FaultSpec::chaos`]).
    pub faults: FaultSpec,
    /// Copy every emitted packet into
    /// [`EngineReport::captured_output`]. Test-harness only (the chaos
    /// matrix digests the delivered byte streams from it) — capture
    /// allocates per packet, so it must stay off for perf runs.
    pub capture_output: bool,
    /// Maintain per-flow [`FlowDigest`]s. On by default — the digests
    /// are the correctness spine (digest-pin, equivalence tests). Raw
    /// speed benchmarks turn them off: the serial FNV-1a byte walk
    /// costs more than the whole merge step and measures the harness,
    /// not the datapath.
    pub digests: bool,
    /// Serve the live observability endpoint (`/metrics`, `/healthz`,
    /// `/trace`) from the control thread while the run is in flight.
    /// Parallel mode only (Deterministic runs own the calling thread);
    /// port 0 binds an ephemeral port. The handle rides back on
    /// [`EngineReport::serve`] so scraping can continue after the run.
    pub serve_port: Option<u16>,
}

impl EngineConfig {
    /// The shipped configuration: telemetry and digests on, faults,
    /// capture and the live endpoint off.
    pub fn new(pipe: PipelineConfig, mode: EngineMode) -> Self {
        EngineConfig {
            pipe,
            mode,
            obs: ObsConfig::default(),
            faults: FaultSpec::off(),
            capture_output: false,
            digests: true,
            serve_port: None,
        }
    }
}

/// FNV-1a summary of one flow's engine output.
///
/// `fnv` folds in each emitted packet's L4 payload, prefixed by its
/// length, so reorderings or boundary changes alter the digest even
/// when total bytes match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowDigest {
    /// Output packets emitted for this flow.
    pub pkts: u64,
    /// Output L4 payload bytes emitted for this flow.
    pub bytes: u64,
    /// The subset of `bytes` delivered inside iMTU-sized (jumbo) output
    /// packets — `jumbo_bytes / bytes` is the flow's byte-level
    /// conversion yield, the per-flow form of the paper's metric.
    pub jumbo_bytes: u64,
    /// Running FNV-1a/64 over length-prefixed payloads.
    pub fnv: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for FlowDigest {
    fn default() -> Self {
        FlowDigest {
            pkts: 0,
            bytes: 0,
            jumbo_bytes: 0,
            fnv: FNV_OFFSET,
        }
    }
}

fn fnv_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for chunk in [&(bytes.len() as u64).to_le_bytes()[..], bytes] {
        for &b in chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Returns the flow key and L4-payload range of an output packet, or
/// `None` for anything unparsable (nothing the engines emit should be).
fn flow_and_l4_payload(pkt: &[u8]) -> Option<(FlowKey, std::ops::Range<usize>)> {
    let key = batchparse::parse_key(pkt)?;
    let ip = Ipv4Packet::new_checked(pkt).ok()?;
    let l4_start = ip.header_len();
    let l4_hdr = match ip.protocol() {
        // TCP data offset lives in byte 12 of the TCP header.
        IpProtocol::Tcp => usize::from(pkt[l4_start + 12] >> 4) * 4,
        IpProtocol::Udp => 8,
        _ => return None,
    };
    Some((key, l4_start + l4_hdr..ip.total_len().min(pkt.len())))
}

/// The outcome of an engine run.
#[derive(Debug)]
pub struct EngineReport {
    /// Scheduling mode the run used.
    pub mode: EngineMode,
    /// Core count.
    pub cores: usize,
    /// Wall-clock nanoseconds over the spawn/process/join region
    /// (trace generation excluded).
    pub wall_ns: u64,
    /// Measured forwarding rate: input bits / wall seconds. Meaningful
    /// in Parallel mode; in Deterministic mode it is single-thread rate.
    pub throughput_bps: f64,
    /// Steady-state conversion yield (drain excluded), computed exactly
    /// as [`crate::pipeline::run_pipeline`] computes it.
    pub conversion_yield: f64,
    /// Aggregate counters over all cores.
    pub totals: CoreCounters,
    /// Per-core counter snapshot from the shared registry.
    pub per_core: Vec<CoreCounters>,
    /// Per-flow output digests (drain included: the full delivered
    /// stream).
    pub flow_digests: BTreeMap<FlowKey, FlowDigest>,
    /// Observability results: merged histograms, per-core flight
    /// recorder contents, and the in-run time series.
    pub obs: ObsReport,
    /// What the pre-shard ingress fault pass did to the trace (all
    /// zero when faults are off).
    pub ingress_faults: IngressStats,
    /// Every emitted packet, in core order then emission order. Empty
    /// unless [`EngineConfig::capture_output`] was set.
    pub captured_output: Vec<Vec<u8>>,
    /// The live observability endpoint, when
    /// [`EngineConfig::serve_port`] asked for one (Parallel mode only).
    /// Holding the report keeps the endpoint serving; dropping it stops
    /// the thread.
    pub serve: Option<ServeHandle>,
}

/// One worker's private state: the translation engine plus local
/// counters and digests. Shared by both modes so their byte behaviour
/// cannot drift apart.
struct Worker {
    engine: CoreEngine,
    counters: CoreCounters,
    digests: BTreeMap<FlowKey, FlowDigest>,
    jumbo_at: usize,
    /// Whether the engine carries an active recorder (cached so the
    /// batch loop skips the per-batch `Instant` reads when off).
    obs_on: bool,
    /// This worker's core index — the key for injected worker faults.
    core: usize,
    /// Per-batch fault verdicts (the inert injector in production).
    faults: PlannedFaults,
    /// The run's configuration: the post-panic engine rebuild, the
    /// digest / capture switches, and the mode. Only Parallel mode has
    /// a wall clock, so only there does the SLO watchdog read the
    /// wall-clock p99.
    cfg: EngineConfig,
    /// Telemetry rescued from pre-restart engines, so a restart loses
    /// spans and histograms no more than it loses flow state.
    salvage: Telemetry,
    /// The per-core SLO watchdog, evaluated at every batch boundary.
    /// Lives on the worker (not the engine) so alert edge state and
    /// tallies survive engine restarts.
    slo: SloWatchdog,
    /// Copies of every emitted packet, when the run asked for capture
    /// ([`EngineConfig::capture_output`]); `None` keeps the hot path
    /// allocation-free.
    captured: Option<Vec<Vec<u8>>>,
}

/// Bytes of packets at and ahead of the worker's cursor kept requested
/// into L1: the packet in hand plus two more at 1.5 KB, sixteen at
/// 256 B. Two full-sized packets ahead is what a DRAM round trip takes
/// at this engine's per-packet cost; more only evicts what was fetched.
pub const PREFETCH_BYTES: usize = 4096;

/// How far ahead of the worker's cursor the flow-table lookahead
/// requests a packet's index bucket, and then its slot: the slot's
/// address is read from the bucket, so the bucket must have landed by
/// the time the slot is requested, and the slot by the time the packet
/// is processed.
const INDEX_AHEAD: usize = 8;
const SLOT_AHEAD: usize = 4;

/// The worker's [`PacketSink`]: accounts every emitted packet into the
/// worker's counters and digests, then hands the buffer back for pool
/// recycling. This closes the allocation loop — on the steady-state hot
/// path an output buffer travels engine pool → sink → engine pool
/// without touching the allocator.
struct Accountant<'a> {
    counters: &'a mut CoreCounters,
    /// `None` when the run turned digests off
    /// ([`EngineConfig::digests`]): emitted packets are then counted
    /// but their payload bytes are never re-read.
    digests: Option<&'a mut BTreeMap<FlowKey, FlowDigest>>,
    jumbo_at: usize,
    inband: bool,
    capture: Option<&'a mut Vec<Vec<u8>>>,
}

impl PacketSink for Accountant<'_> {
    fn accept(&mut self, buf: PacketBuf) -> Option<PacketBuf> {
        let unit = buf.as_slice();
        self.counters.pkts_out += 1;
        self.counters.bytes_out += unit.len() as u64;
        if self.inband {
            self.counters.pkts_out_inband += 1;
            if unit.len() >= self.jumbo_at {
                self.counters.jumbo_out_inband += 1;
            }
        }
        if let Some(digests) = self.digests.as_deref_mut() {
            if let Some((key, payload)) = flow_and_l4_payload(unit) {
                let payload_len = (payload.end - payload.start) as u64;
                let d = digests.entry(key).or_default();
                d.pkts += 1;
                d.bytes += payload_len;
                if unit.len() >= self.jumbo_at {
                    d.jumbo_bytes += payload_len;
                }
                d.fnv = fnv_extend(d.fnv, &unit[payload]);
            }
        }
        if let Some(cap) = self.capture.as_deref_mut() {
            // px-analyze: allow(R3, reason = "capture is a test-harness branch, None in production: the chaos matrix needs the delivered bytes, so it pays the copy")
            cap.push(unit.to_vec());
        }
        Some(buf)
    }

    /// Scatter-gather emissions from the split engine. With digests and
    /// capture off (the steady-state production config) the packet is
    /// accounted from the view's lengths and never flattened — the
    /// payload bytes of a split jumbo are not touched again after the
    /// checksum pass. Either auditor needs the flat bytes, so their
    /// presence falls back to materialise-then-accept.
    fn push_sg(&mut self, mut pkt: px_wire::SgPacket<'_>) -> Option<PacketBuf> {
        if self.digests.is_some() || self.capture.is_some() {
            // px-analyze: allow(R3, reason = "auditor branch only: digests/capture need flat bytes, so the SG view is materialised through the pool-headroom constructor")
            let mut buf = pkt.take_header();
            // px-analyze: allow(R7, reason = "auditor branch only: flattening the SG payload is the documented fallback when digests or capture are enabled; steady state takes the view path below")
            buf.extend_from_slice(pkt.payload());
            return self.accept(buf);
        }
        let len = pkt.total_len();
        self.counters.pkts_out += 1;
        self.counters.bytes_out += len as u64;
        if self.inband {
            self.counters.pkts_out_inband += 1;
            if len >= self.jumbo_at {
                self.counters.jumbo_out_inband += 1;
            }
        }
        Some(pkt.take_header())
    }
}

impl Worker {
    fn new(cfg: &EngineConfig, core: usize) -> Self {
        // Causal span links: core c's emissions get link ids in the
        // (c + 1) << 48 block, unique across cores; 0 stays "unlinked".
        let engine = Self::build_engine(cfg, ((core as u64) + 1) << 48);
        Worker {
            obs_on: engine.chassis().obs.is_enabled(),
            engine,
            counters: CoreCounters::default(),
            digests: BTreeMap::new(),
            // Same threshold the pipeline model uses: an output packet
            // "reached iMTU" when one more eMTU payload would not fit.
            jumbo_at: cfg.pipe.imtu - (cfg.pipe.emtu - 40) + 1,
            core,
            faults: PlannedFaults::new(cfg.faults),
            cfg: *cfg,
            salvage: Telemetry::default(),
            slo: SloWatchdog::new(cfg.obs.slo),
            captured: cfg.capture_output.then(Vec::new),
        }
    }

    /// The engine a core runs — at start, and again after every
    /// injected panic — numbering its span links on from `last_link`.
    /// Obs, faults and links are armed on the chassis.
    fn build_engine(cfg: &EngineConfig, last_link: u64) -> CoreEngine {
        let mut engine = CoreEngine::for_pipe(&cfg.pipe);
        let chassis = engine.chassis_mut();
        if cfg.obs.enabled {
            chassis.obs = Recorder::new(cfg.obs);
        }
        chassis.set_faults(cfg.faults);
        chassis.last_link = last_link;
        engine
    }

    /// The engine and the sink its emissions are accounted through,
    /// borrowed side by side. `inband` is false for everything but
    /// packet-arrival emissions: rescued, idle-ticked and drained
    /// packets still reach the flows' digests, but steady-state
    /// conversion metrics exclude them.
    fn engine_and_sink(&mut self, inband: bool) -> (&mut CoreEngine, Accountant<'_>) {
        let acct = Accountant {
            counters: &mut self.counters,
            digests: self.cfg.digests.then_some(&mut self.digests),
            jumbo_at: self.jumbo_at,
            inband,
            capture: self.captured.as_mut(),
        };
        (&mut self.engine, acct)
    }

    /// The run-to-completion loop: `BATCH_PKTS`-sized bursts off the
    /// shard until it is exhausted (the tail burst may be short), each
    /// packet buffer released as it is consumed, and a registry publish
    /// every `publish_every_batches`; then exactly one idle tick — no
    /// more packets will ever arrive on this shard, so every held flow
    /// flushes now rather than at the drain.
    /// A burst comes with the rest of the shard behind it to look into.
    fn run_shard<P: BorrowMut<Vec<u8>>>(
        &mut self,
        shard: &mut [(u64, u32, P)],
        registry: &StatsRegistry,
    ) {
        let publish_every = if self.cfg.obs.enabled {
            self.cfg.obs.publish_every_batches
        } else {
            0
        };
        for start in (0..shard.len()).step_by(batchparse::BATCH_PKTS) {
            let rest = shard.get_mut(start..).unwrap_or_default();
            // px-analyze: allow(R6, reason = "the burst path has its own gates: process_batch is an R1/R3 emission entry and restart_worker an R6 entry, so R6 need not re-walk the datapath from here")
            self.run_batch(rest, batchparse::BATCH_PKTS);
            if publish_every > 0 && self.counters.batches.is_multiple_of(publish_every) {
                self.publish_progress(registry);
            }
        }
        self.quiesce();
    }

    /// One batch through the engine, with worker-fault injection at the
    /// batch boundary: an injected panic unwinds and is caught right
    /// here — after which the worker rescues its flow state, restarts its
    /// engine in place, and reprocesses the batch it was handed: the
    /// first `n` packets of `shard`.
    fn run_batch<P: BorrowMut<Vec<u8>>>(&mut self, shard: &mut [(u64, u32, P)], n: usize) {
        if !self.faults.spec.enabled {
            self.process_batch(shard, n);
            return;
        }
        let idx = self.counters.batches;
        if self.faults.batch_panic(self.core, idx) {
            // A real unwind, so the catch-and-restart path exercised is
            // the one a defect in batch processing would take.
            #[allow(clippy::panic)]
            // px-analyze: allow(R1, reason = "deliberate injected fault: the panic is caught on this same line and drives the restart path under test")
            let caught = std::panic::catch_unwind(|| panic!("injected worker fault"));
            if caught.is_err() {
                let now = shard.first().map_or(0, |(t, _, _)| *t);
                self.restart_worker(idx, now);
            }
        }
        self.process_batch(shard, n);
    }

    /// Post-panic self-healing: flushes (rescues) every held aggregate
    /// out of the wedged engine so no flow loses bytes, absorbs its
    /// counters and telemetry, then stands up a fresh engine in
    /// place — the worker never leaves the RSS shard map. Panic- and
    /// alloc-free on its own tokens (px-analyze R6).
    fn restart_worker(&mut self, batch_idx: u64, now: u64) {
        let out_before = self.counters.pkts_out;
        let (engine, mut acct) = self.engine_and_sink(false);
        engine.finish_into(&mut acct);
        let rescued = self.counters.pkts_out - out_before;
        self.absorb_engine_stats();
        // The successor numbers its span links on from this engine's
        // last, so no id in the salvaged stream is ever issued twice.
        let last_link = self.engine.chassis().last_link;
        // px-analyze: allow(R6, reason = "salvage hand-off once per restart, not per packet: copying the span ring out and folding it into the carried telemetry allocates")
        self.salvage_obs();
        self.counters.worker_restarts += 1;
        // px-analyze: allow(R6, R8, reason = "standing up the replacement engine and re-arming its recorder allocates and seeds debug tracking by design: the rescue flush above ran alloc-free, and a rebuild that cannot allocate has nothing left to degrade to")
        self.engine = Self::build_engine(&self.cfg, last_link);
        // A Restart crossing in the trace: aux carries the number of
        // rescue-flushed packets, len the batch ordinal.
        let at_batch = batch_idx as usize;
        let restart = Span::instant(SpanCat::Restart, now, at_batch, 0, rescued);
        self.engine.chassis_mut().obs.record(restart);
    }

    /// Detaches the engine's telemetry and folds it behind whatever
    /// earlier engine instances left — at a restart and at the end.
    fn salvage_obs(&mut self) {
        let held = self.engine.chassis_mut().obs.take();
        self.salvage.merge(held);
    }

    /// Folds the engine's degradation/drop counters into the worker's —
    /// called exactly once per engine *instance* (at restart or at
    /// finish), so the sums stay correct across restarts.
    fn absorb_engine_stats(&mut self) {
        // The monotonic counters fold per engine instance; the
        // flows_live gauge is sampled only at finish (a restarted
        // engine's surviving flows would otherwise double-count).
        let folded = CoreCounters {
            flows_live: 0,
            ..self.engine.tally().counters
        };
        // Qualified, so px-analyze's name-keyed call graph sees this
        // `merge` and not the allocating telemetry ones (R6).
        CoreCounters::merge(&mut self.counters, &folded);
    }

    /// This core's shard is exhausted: flush every held aggregate on
    /// its now-unreachable hold deadline instead of parking it until
    /// the drain. Out-of-band accounting, like the drain itself.
    fn quiesce(&mut self) {
        let (engine, mut acct) = self.engine_and_sink(false);
        engine.idle_tick_into(&mut acct);
    }

    /// One burst — the first `n` packets of `shard` — fed to the engine
    /// a packet at a time: verify, append, free, each while the packet
    /// is in L1. What follows the burst in `shard` is only prefetched:
    /// packet bytes always, and — once the flow table has outgrown the
    /// cache — the index bucket and then the slot each packet's flow
    /// hash points at. The hashes only steer prefetches; the engine
    /// looks up the key it parses.
    fn process_batch<P: BorrowMut<Vec<u8>>>(&mut self, shard: &mut [(u64, u32, P)], n: usize) {
        self.counters.batches += 1;
        let batch_start = if self.obs_on {
            // px-analyze: allow(R8, reason = "wall clock feeds the batch-latency histogram only; digests and every forwarding decision derive from the simulated event clock, so replays stay bit-identical")
            Some(Instant::now())
        } else {
            None
        };
        let n = n.min(shard.len());
        let mut last_now = 0u64;
        let (engine, mut acct) = self.engine_and_sink(true);
        // Lookahead: `ahead` is the first packet not yet requested,
        // `inflight` what packets `i..ahead` cost — their bytes, a line
        // at least, so empty packets cannot drag the cursor through the
        // shard. The inner loop leaves `ahead > i`: `i` was counted.
        let cost = |pkt: &Vec<u8>| pkt.len().max(64);
        let (mut ahead, mut inflight) = (0usize, 0usize);
        for i in 0..n {
            while let Some((_, _, next)) = shard.get(ahead).filter(|_| inflight < PREFETCH_BYTES) {
                prefetch_packet(next.borrow());
                inflight += cost(next.borrow());
                ahead += 1;
            }
            if let Some(table) = engine.lookahead_table() {
                if let Some(b) = shard
                    .get(i + INDEX_AHEAD)
                    .and_then(|e| table.index_line(e.1))
                {
                    prefetch_ref(b);
                }
                if let Some(s) = shard
                    .get(i + SLOT_AHEAD)
                    .and_then(|e| table.slot_guess(e.1))
                {
                    prefetch_ref(s);
                }
            }
            let Some((now, _, pkt)) = shard.get_mut(i) else {
                break;
            };
            // The packet leaves the trace here and is freed as soon as
            // the engine has read it, while its lines are still in
            // this core's cache.
            let (now, pkt) = (*now, std::mem::take::<Vec<u8>>(pkt.borrow_mut()));
            inflight -= cost(&pkt);
            acct.counters.pkts_in += 1;
            acct.counters.bytes_in += pkt.len() as u64;
            last_now = now;
            engine.push_into(now, pkt, &mut acct);
        }
        if let Some(t0) = batch_start {
            // The Batch *span* carries only logical facts (last
            // arrival ts, packet count) so the span stream stays
            // deterministic; the batch's wall time goes to histograms
            // alone, which are measurement-only.
            let wall = t0.elapsed().as_nanos() as u64;
            let rec = &mut self.engine.chassis_mut().obs;
            rec.record(Span::instant(SpanCat::Batch, last_now, n, 0, 0));
            rec.observe_batch(wall, n as u64);
            self.check_slo(last_now, n as u64);
        }
    }

    /// Batch-boundary SLO evaluation. Every input except `p99_pkt_ns`
    /// is a logical counter, so Deterministic-mode alerts replay
    /// bit-identically; the wall-clock p99 is consulted only in
    /// Parallel mode. A
    /// rising-edge breach is recorded as one `Slo` span in the trace
    /// stream (aux = breach mask).
    fn check_slo(&mut self, logical_now: u64, n_pkts: u64) {
        if !self.slo.spec().enabled {
            return;
        }
        let evicted_pressure = self.counters.flows_evicted_pressure + self.engine.flow_stats().2;
        let p99_pkt_ns = (self.cfg.mode == EngineMode::Parallel)
            .then(|| self.engine.chassis().obs.hists().pkt_ns.p99());
        let obs = BatchObs {
            batch: self.counters.batches,
            logical_now,
            yield_ppm: (self.counters.conversion_yield() * 1e6) as u32,
            yield_valid: self.counters.pkts_out_inband > 0,
            degraded: self.engine.chassis().is_degraded(),
            evicted_pressure,
            p99_pkt_ns,
        };
        let mask = self.slo.evaluate(&obs);
        if mask != 0 {
            let (pkts, breach) = (n_pkts as usize, u64::from(mask));
            let slo = Span::instant(SpanCat::Slo, logical_now, pkts, 0, breach);
            self.engine.chassis_mut().obs.record(slo);
        }
    }

    fn finish(&mut self) {
        let (engine, mut acct) = self.engine_and_sink(false);
        engine.finish_into(&mut acct);
        self.absorb_engine_stats();
        // The drain emptied the merge/bundle tables, so what remains
        // live is the classifier's tracked-flow population — the gauge
        // the flow-scale soak reads.
        self.counters.flows_live += self.engine.tally().counters.flows_live;
        // Every pool buffer must be home after a full drain — a nonzero
        // count here is a leak (an aggregate forgotten by a degrade or
        // restart path, exactly what the chaos matrix exists to catch).
        debug_assert_eq!(
            self.pool_outstanding(),
            0,
            "core {}: pool buffers leaked past the drain",
            self.core
        );
    }

    /// Pool buffers currently outstanding — held by pending aggregates
    /// or loaned out and not yet recycled. Zero after a full drain, or
    /// the engine is leaking buffers.
    fn pool_outstanding(&self) -> u64 {
        self.engine.chassis().pool.outstanding()
    }

    /// Mid-run publish, every `publish_every_batches` bursts: the
    /// cumulative counters overwrite this core's registry slot (one
    /// writer per slot) so snapshots and the sampler see progress, and —
    /// only when a live endpoint was asked for, `/trace` being the one
    /// reader — the recent span window is copied out for it.
    fn publish_progress(&mut self, registry: &StatsRegistry) {
        registry.set_core(self.core, &self.counters);
        let rec = &self.engine.chassis().obs;
        if self.cfg.serve_port.is_some() && rec.spans_recorded() > 0 {
            // px-analyze: allow(R6, reason = "live-endpoint branch only (serve_port set): /trace needs a copy of the recent span window, once per publish interval, never per packet")
            registry.publish_core_spans(self.core, rec.recent_spans(64));
        }
    }

    /// Publishes counters, merges histograms, and detaches the
    /// recorder — the worker's end-of-run handoff to the registry.
    /// Spans rescued from pre-restart engines come first (they are
    /// chronologically earlier).
    fn publish_final(mut self, registry: &StatsRegistry) -> WorkerOutput {
        registry.set_core(self.core, &self.counters);
        self.salvage_obs();
        let obs = self.salvage;
        registry.merge_core_hists(self.core, &obs.hists);
        if self.cfg.serve_port.is_some() {
            // A live endpoint outliving the run keeps serving the
            // complete window.
            registry.publish_core_spans(self.core, obs.spans.clone());
        }
        WorkerOutput {
            digests: self.digests,
            obs,
            slo: self.slo,
            captured: self.captured.unwrap_or_default(),
        }
    }
}

/// A single-core worker handle for streaming harnesses that feed
/// packets incrementally instead of materialising a whole trace — the
/// flow-scale soak streams millions of flows through one of these per
/// core. It wraps the exact `Worker` accounting loop `run_engine`
/// drives (same engine construction via [`CoreEngine::for_pipe`], same
/// [`FlowDigest`] bookkeeping), so digests taken here are comparable
/// with engine-run digests and across core counts.
pub struct CoreDriver {
    worker: Worker,
    /// The batch being run, each packet beside its flow hash; kept so
    /// a warm driver allocates nothing per batch.
    staged: Vec<(u64, u32, Vec<u8>)>,
}

impl CoreDriver {
    /// Builds the driver for one core of `pipe` (no observability, no
    /// faults — the soak measures the production hot path).
    pub fn new(pipe: &PipelineConfig, core: usize) -> Self {
        // Digests stay on: the soak asserts conservation through them.
        let mut cfg = EngineConfig::new(*pipe, EngineMode::Deterministic);
        cfg.obs = ObsConfig::disabled();
        CoreDriver {
            worker: Worker::new(&cfg, core),
            staged: Vec::new(),
        }
    }

    /// Processes one batch of `(arrival_ns, packet)` pairs in order.
    /// Each packet's flow hash, the worker's prefetch hint, is taken
    /// from its headers (0 for a keyless packet).
    pub fn run_batch(&mut self, batch: Vec<(u64, Vec<u8>)>) {
        self.staged.clear();
        self.staged.extend(batch.into_iter().map(|(now, pkt)| {
            let hash = batchparse::parse_key(&pkt).map_or(0, |k| flow_hash(&k));
            (now, hash, pkt)
        }));
        let n = self.staged.len();
        self.worker.run_batch(&mut self.staged, n);
    }

    /// Drains every held aggregate and folds the engine's counters in.
    /// Call exactly once, after the last batch.
    pub fn finish(&mut self) {
        self.worker.finish();
    }

    /// The worker's private counters (flow-state counters are folded in
    /// by [`finish`](Self::finish)).
    pub fn counters(&self) -> &CoreCounters {
        &self.worker.counters
    }

    /// Per-flow output digests accumulated so far.
    pub fn digests(&self) -> &BTreeMap<FlowKey, FlowDigest> {
        &self.worker.digests
    }

    /// Bytes reserved by the engine's flow-state arenas right now.
    pub fn arena_bytes(&self) -> usize {
        self.worker.engine.tally().arena_bytes
    }

    /// Flows currently occupying per-core state.
    pub fn flows_live(&self) -> u64 {
        self.worker.engine.flow_stats().0
    }
}

/// What each worker hands back at the end of a run.
struct WorkerOutput {
    digests: BTreeMap<FlowKey, FlowDigest>,
    /// The core's spans (oldest first) and histograms, with what
    /// pre-restart engines held folded in first.
    obs: Telemetry,
    /// The core's SLO watchdog tallies.
    slo: SloWatchdog,
    /// Emitted-packet copies (empty unless capture was on).
    captured: Vec<Vec<u8>>,
}

/// One core's input: `(arrival-time, flow hash, packet)` in arrival
/// order, each packet still where the caller's trace put it. The hash
/// is [`flow_hash`] of the caller's key: a prefetch hint, never a
/// lookup.
type Shard<'t> = Vec<(u64, u32, &'t mut Vec<u8>)>;

/// Shards the trace per core, in arrival order, with arrival timestamps
/// derived from the offered load — the single sharding path both modes
/// consume. What RSS does in the NIC: after this pass every packet
/// is queued for the one core that will ever touch it, beside the flow
/// hash its core's table will probe (on hardware, the hash the RX
/// descriptor carries). Queued by reference: the pass writes 24 bytes
/// per packet and moves none.
fn shard_trace<'t>(cfg: &EngineConfig, trace: &'t mut [(FlowKey, Vec<u8>)]) -> Vec<Shard<'t>> {
    let rss = RssHasher::symmetric();
    let cores = cfg.pipe.cores;
    let inter_arrival_ns = 1e9 / cfg.pipe.offered_pps;
    // RSS spreads flows, not packets, so a shard can run over an even
    // share; the slack keeps most runs to one allocation per shard.
    let share = trace.len() / cores + trace.len() / (8 * cores) + 1;
    let mut shards: Vec<Shard<'t>> = (0..cores)
        .map(|_| Vec::with_capacity(share.min(trace.len())))
        .collect();
    for (i, (key, pkt)) in trace.iter_mut().enumerate() {
        let now = (i as f64 * inter_arrival_ns) as u64;
        shards[rss.queue_for(key, cores)].push((now, flow_hash(key), pkt));
    }
    shards
}

/// One core, run to completion on the shard it owns: build the worker,
/// [run the shard](Worker::run_shard), drain, and hand the results to
/// the registry. Both modes run exactly this, and nothing in it reads
/// another core's state.
fn run_core(
    cfg: &EngineConfig,
    core: usize,
    mut shard: Shard<'_>,
    registry: &StatsRegistry,
) -> WorkerOutput {
    let mut w = Worker::new(cfg, core);
    w.run_shard(&mut shard, registry);
    w.finish();
    w.publish_final(registry)
}

/// What a mode runner hands back: timing, per-worker outputs, and the
/// sampler's time series.
struct ModeOutput {
    wall_ns: u64,
    outputs: Vec<WorkerOutput>,
    series: Vec<TimeSample>,
    /// The live endpoint, when the run served one (Parallel mode only).
    serve: Option<ServeHandle>,
}

/// Builds one time-series point from an aggregate counter snapshot.
fn sample_at(t_ns: u64, agg: &CoreCounters) -> TimeSample {
    TimeSample {
        t_ns,
        pkts_in: agg.pkts_in,
        bytes_in: agg.bytes_in,
        pkts_out: agg.pkts_out,
        bytes_out: agg.bytes_out,
        conversion_yield: agg.conversion_yield(),
    }
}

/// Runs the sharded engine and reports measured throughput, yield,
/// counters, per-flow digests, and observability results.
pub fn run_engine(cfg: EngineConfig) -> EngineReport {
    let pipe = cfg.pipe;
    let mut tracer = TraceGen::new(
        pipe.workload,
        pipe.n_flows,
        pipe.emtu,
        pipe.mean_run,
        pipe.seed,
    );
    let trace = tracer.generate(pipe.trace_pkts);
    run_engine_on_trace(cfg, trace)
}

/// [`run_engine`] over a caller-supplied trace instead of the built-in
/// [`TraceGen`] — how the chaos-churn and flow-scale harnesses drive
/// the full sharded engine with the internet traffic model. The trace
/// is taken in global arrival order; sharding, batching, fault
/// injection, and accounting are byte-identical to `run_engine`.
pub fn run_engine_on_trace(cfg: EngineConfig, trace: Vec<(FlowKey, Vec<u8>)>) -> EngineReport {
    assert!(cfg.pipe.cores > 0, "need at least one core");
    let pipe = cfg.pipe;
    // Ingress faults are applied to the *global* trace, before RSS
    // sharding, so the faulted input is a pure function of (seed,
    // trace) — identical whatever the core count. One predicted branch
    // when faults are off.
    let mut fault_plan = FaultPlan::new(cfg.faults);
    let trace = fault_plan.apply_ingress_keyed(trace);
    let registry = Arc::new(StatsRegistry::new(pipe.cores));

    let mut out = match cfg.mode {
        EngineMode::Parallel => run_parallel(&cfg, trace, &registry),
        EngineMode::Deterministic => run_deterministic(&cfg, trace, &registry),
    };

    let mut flow_digests: BTreeMap<FlowKey, FlowDigest> = BTreeMap::new();
    let mut per_core_spans = Vec::with_capacity(out.outputs.len());
    let mut slo = SloWatchdog::new(cfg.obs.slo);
    let mut captured_output = Vec::new();
    for worker_out in out.outputs.drain(..) {
        per_core_spans.push(worker_out.obs.spans);
        slo.merge(&worker_out.slo);
        captured_output.extend(worker_out.captured);
        for (key, d) in worker_out.digests {
            // RSS pins a flow to exactly one core, so keys never collide
            // across cores; insert-or-merge keeps this robust anyway.
            let e = flow_digests.entry(key).or_default();
            if e.pkts == 0 {
                *e = d;
            } else {
                e.pkts += d.pkts;
                e.bytes += d.bytes;
                e.jumbo_bytes += d.jumbo_bytes;
                e.fnv ^= d.fnv;
            }
        }
    }

    let per_core = registry.snapshot();
    let totals = registry.aggregate();
    let wall_ns = out.wall_ns;
    if cfg.obs.enabled {
        // Close the time series with a final whole-run sample.
        out.series.push(sample_at(wall_ns, &totals));
    }
    let obs = if cfg.obs.enabled {
        ObsReport {
            enabled: true,
            hists: registry.hist_aggregate(),
            per_core_spans,
            slo,
            time_series: out.series,
        }
    } else {
        ObsReport::disabled()
    };
    let wall_s = wall_ns as f64 / 1e9;
    EngineReport {
        mode: cfg.mode,
        cores: pipe.cores,
        wall_ns,
        throughput_bps: if wall_s > 0.0 {
            totals.bytes_in as f64 * 8.0 / wall_s
        } else {
            0.0
        },
        conversion_yield: totals.conversion_yield(),
        totals,
        per_core,
        flow_digests,
        obs,
        ingress_faults: fault_plan.stats,
        captured_output,
        serve: out.serve,
    }
}

/// Stands up the dependency-free live observability endpoint on `port`
/// (0 = ephemeral): `/metrics` renders the registry's current aggregate
/// in Prometheus exposition format, `/healthz` evaluates `spec` against
/// the same aggregate (HTTP 503 on breach), and `/trace` exports the
/// most recently published span windows as Perfetto JSON
/// (`?flow=<id>` filters to one flow). Serving runs entirely on its own
/// control thread reading the shared registry — nothing here is
/// reachable from the per-packet entry points.
pub fn serve_endpoint(
    port: u16,
    registry: Arc<StatsRegistry>,
    spec: SloSpec,
) -> std::io::Result<ServeHandle> {
    serve(
        port,
        Box::new(move |path, query| match path {
            "/metrics" => Response::ok(
                "text/plain; version=0.0.4",
                registry.metrics_snapshot().to_prometheus("pxgw"),
            ),
            "/healthz" => {
                let totals = registry.aggregate();
                let p99 = registry.hist_aggregate().pkt_ns.p99();
                let verdict = evaluate_snapshot(
                    &spec,
                    p99,
                    totals.conversion_yield(),
                    totals.flows_evicted_pressure,
                );
                let body = format!("{}\n", verdict.to_json(""));
                if verdict.ok {
                    Response::ok("application/json", body)
                } else {
                    Response {
                        status: 503,
                        content_type: "application/json",
                        body,
                    }
                }
            }
            "/trace" => {
                let flow = query.and_then(|q| {
                    q.split('&')
                        .find_map(|kv| kv.strip_prefix("flow="))
                        .and_then(|v| v.parse::<u32>().ok())
                });
                Response::ok(
                    "application/json",
                    perfetto_json(&registry.spans_snapshot(), flow),
                )
            }
            _ => Response::not_found(),
        }),
    )
}

/// Parallel mode: one worker thread per core, each running its own
/// shard to completion; join and merge results. Only the spawn →
/// process → join region is timed.
fn run_parallel(
    cfg: &EngineConfig,
    mut trace: Vec<(FlowKey, Vec<u8>)>,
    registry: &Arc<StatsRegistry>,
) -> ModeOutput {
    let shards = shard_trace(cfg, &mut trace);
    // Live endpoint before the clock starts: serving runs on its own
    // thread against the shared registry, so scrapes never touch the
    // timed region's threads.
    let serve_handle = cfg
        .serve_port
        .and_then(|port| serve_endpoint(port, Arc::clone(registry), cfg.obs.slo).ok());
    let start = Instant::now();
    let stop = AtomicBool::new(false);

    let (outputs, wall_ns, series) = std::thread::scope(|scope| {
        // In-run sampler: while workers publish periodic counter
        // snapshots, this thread turns them into a throughput/yield
        // time series. Parked, so `stop` wakes it for its last sample.
        let sampler = (cfg.obs.enabled && cfg.obs.sample_interval_us > 0).then(|| {
            scope.spawn(|| {
                let interval = Duration::from_micros(cfg.obs.sample_interval_us);
                let t0 = Instant::now();
                let mut series = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::park_timeout(interval);
                    let agg = registry.aggregate();
                    series.push(sample_at(t0.elapsed().as_nanos() as u64, &agg));
                }
                series
            })
        });

        let workers: Vec<_> = shards
            .into_iter()
            .enumerate()
            .map(|(core, shard)| scope.spawn(move || run_core(cfg, core, shard, registry)))
            .collect();
        #[allow(clippy::expect_used)]
        let outputs: Vec<_> = workers
            .into_iter()
            // px-analyze: allow(R1, reason = "run teardown, not datapath: join propagates a worker panic to the harness")
            .map(|h| h.join().expect("worker must not panic"))
            .collect();
        let wall_ns = start.elapsed().as_nanos() as u64;
        stop.store(true, Ordering::Relaxed);
        sampler.iter().for_each(|h| h.thread().unpark());
        // px-analyze: allow(R1, reason = "run teardown, not datapath: join propagates a sampler panic to the harness")
        #[allow(clippy::expect_used)]
        let series = sampler.map_or_else(Vec::new, |h| h.join().expect("sampler must not panic"));
        (outputs, wall_ns, series)
    });
    ModeOutput {
        wall_ns,
        outputs,
        series,
        serve: serve_handle,
    }
}

/// Deterministic mode: the identical shards, each run to completion on
/// the calling thread, cores in index order. No sampler thread runs
/// (nothing else may touch the schedule); the time series is the single
/// final sample `run_engine` appends.
fn run_deterministic(
    cfg: &EngineConfig,
    mut trace: Vec<(FlowKey, Vec<u8>)>,
    registry: &StatsRegistry,
) -> ModeOutput {
    let shards = shard_trace(cfg, &mut trace);
    let start = Instant::now();
    let outputs = shards
        .into_iter()
        .enumerate()
        .map(|(core, shard)| run_core(cfg, core, shard, registry))
        .collect();
    ModeOutput {
        wall_ns: start.elapsed().as_nanos() as u64,
        outputs,
        series: Vec::new(),
        serve: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use px_wire::pool::VecSink;
    use std::cell::Cell;

    thread_local! {
        /// Compiles the worker's hint out for the calling test thread.
        static HINT_OFF: Cell<bool> = const { Cell::new(false) };
    }

    /// The hints the worker calls under test: the real ones, or
    /// nothing.
    pub(super) fn prefetch_packet(pkt: &[u8]) {
        if !HINT_OFF.get() {
            batchparse::prefetch_packet(pkt);
        }
    }

    pub(super) fn prefetch_ref<T>(value: &T) {
        if !HINT_OFF.get() {
            batchparse::prefetch_ref(value);
        }
    }

    /// The sharding pass as it was before shards referenced the trace:
    /// every packet moved into its core's queue. Kept as the oracle for
    /// which packets, in which order and at which `now`, a core gets.
    fn shard_trace_copying(
        cfg: &EngineConfig,
        trace: Vec<(FlowKey, Vec<u8>)>,
    ) -> Vec<Vec<(u64, u32, Vec<u8>)>> {
        let rss = RssHasher::symmetric();
        let cores = cfg.pipe.cores;
        let inter_arrival_ns = 1e9 / cfg.pipe.offered_pps;
        let mut shards = vec![Vec::new(); cores];
        for (i, (key, pkt)) in trace.into_iter().enumerate() {
            let now = (i as f64 * inter_arrival_ns) as u64;
            shards[(rss.hash(&key) as usize) % cores].push((now, flow_hash(&key), pkt));
        }
        shards
    }

    /// TCP and UDP flows interleaved packet by packet.
    fn mixed_trace(pipe: &PipelineConfig, pkts: usize, seed: u64) -> Vec<(FlowKey, Vec<u8>)> {
        let gen = |workload| {
            TraceGen::new(workload, 24, pipe.emtu, pipe.mean_run, seed).generate(pkts / 2)
        };
        gen(WorkloadKind::Tcp)
            .into_iter()
            .zip(gen(WorkloadKind::Udp))
            .flat_map(|(tcp, udp)| [tcp, udp])
            .collect()
    }

    #[test]
    fn by_reference_shards_match_the_copying_oracle_and_consume_the_trace() {
        for cores in [1usize, 2, 3, 8] {
            let pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, cores);
            let cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
            let mut trace = mixed_trace(&pipe, 3_000, 5);
            let expect = shard_trace_copying(&cfg, trace.clone());
            let shards = shard_trace(&cfg, &mut trace);
            assert_eq!(shards.len(), cores);
            for (core, (got, want)) in shards.iter().zip(&expect).enumerate() {
                let got: Vec<(u64, u32, Vec<u8>)> = got
                    .iter()
                    .map(|(now, hash, pkt)| (*now, *hash, (**pkt).clone()))
                    .collect();
                assert_eq!(&got, want, "core {core} of {cores}");
            }
            // Run to completion: every packet left the caller's trace.
            let registry = StatsRegistry::new(cores);
            for (core, shard) in shards.into_iter().enumerate() {
                run_core(&cfg, core, shard, &registry);
            }
            assert_eq!(registry.aggregate().pkts_in, 3_000);
            assert!(trace.iter().all(|(_, pkt)| pkt.is_empty()), "{cores} cores");
        }
    }

    /// One worker over `shard` (left empty), with the hint on or
    /// compiled out: counters, delivered bytes and the span stream.
    fn run_one_core(
        cfg: &EngineConfig,
        shard: &mut [(u64, u32, Vec<u8>)],
        hint: bool,
    ) -> (CoreCounters, Vec<Vec<u8>>, Vec<Span>) {
        HINT_OFF.set(!hint);
        let registry = StatsRegistry::new(1);
        let refs = shard
            .iter_mut()
            .map(|(now, h, pkt)| (*now, *h, pkt))
            .collect();
        let out = run_core(cfg, 0, refs, &registry);
        assert!(shard.iter().all(|(_, _, pkt)| pkt.is_empty()), "consumed");
        (registry.aggregate(), out.captured, out.obs.spans)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The lookahead is a pure hint: whatever the shard's length
        /// (burst boundaries, a remainder shorter than the lookahead)
        /// and packet sizes (empty, jumbo), the worker's output equals
        /// that of the same worker with the hint compiled out.
        #[test]
        fn lookahead_never_changes_what_the_worker_does(
            len_idx in 0usize..7,
            kinds in proptest::collection::vec(0u8..5, 97),
            tcp in any::<bool>(),
            seed in 0u64..32,
        ) {
            let len = [0usize, 1, 31, 32, 33, 64, 97][len_idx];
            let workload = if tcp { WorkloadKind::Tcp } else { WorkloadKind::Udp };
            let pipe = PipelineConfig::fig5(SystemVariant::Px, workload, 1);
            let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
            cfg.capture_output = true;
            cfg.obs.span_capacity = 1 << 12;
            let mut shard = one_shard(&pipe, 3, len, seed);
            for ((_, _, pkt), kind) in shard.iter_mut().zip(&kinds) {
                match kind {
                    0 => pkt.clear(),
                    1 => pkt.resize(9_000, 0x45),
                    _ => {}
                }
            }
            let bytes_in: usize = shard.iter().map(|(_, _, pkt)| pkt.len()).sum();
            let hinted = run_one_core(&cfg, &mut shard.clone(), true);
            let plain = run_one_core(&cfg, &mut shard, false);
            prop_assert_eq!(hinted.0.pkts_in, len as u64);
            prop_assert_eq!(hinted.0.bytes_in, bytes_in as u64);
            prop_assert_eq!(hinted.0.batches, len.div_ceil(batchparse::BATCH_PKTS) as u64);
            prop_assert_eq!(hinted, plain);
        }
    }

    fn small(mode: EngineMode, cores: usize, workload: WorkloadKind) -> EngineReport {
        let mut pipe = PipelineConfig::fig5(SystemVariant::Px, workload, cores);
        pipe.trace_pkts = 4_000;
        pipe.n_flows = 64;
        run_engine(EngineConfig::new(pipe, mode))
    }

    /// `pkts` packets of `flows` flows, one microsecond apart, as the
    /// single shard of a one-core run (owning its packets: the worker
    /// takes either form).
    fn one_shard(
        pipe: &PipelineConfig,
        flows: usize,
        pkts: usize,
        seed: u64,
    ) -> Vec<(u64, u32, Vec<u8>)> {
        TraceGen::new(pipe.workload, flows, pipe.emtu, pipe.mean_run, seed)
            .generate(pkts)
            .into_iter()
            .enumerate()
            .map(|(i, (key, pkt))| (i as u64 * 1_000, flow_hash(&key), pkt))
            .collect()
    }

    /// The shard's flow hash is a prefetch hint, never a lookup: hand
    /// `run_engine_on_trace` another flow's key for every packet, so
    /// every hint names the wrong bucket and slot, and a one-core
    /// Deterministic run still delivers exactly what the true keys do.
    /// The steering table tracks enough flows that the lookahead runs.
    #[test]
    fn wrong_hints_cost_only_a_wasted_prefetch() {
        let mut pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, 1);
        pipe.n_flows = 40_000;
        pipe.mean_run = 2;
        pipe.steer = Some(crate::steer::SteerConfig::default());
        let trace = TraceGen::new(pipe.workload, pipe.n_flows, pipe.emtu, pipe.mean_run, 9)
            .generate(60_000);
        // Each flow's key becomes the next flow's, cyclically.
        let mut flows: Vec<FlowKey> = trace.iter().map(|(k, _)| *k).collect();
        flows.sort_unstable();
        flows.dedup();
        let other = |k: &FlowKey| {
            let i = flows.binary_search(k).unwrap_or(0);
            flows[(i + 1) % flows.len()]
        };
        let wrong: Vec<(FlowKey, Vec<u8>)> = trace
            .iter()
            .map(|(k, pkt)| (other(k), pkt.clone()))
            .collect();
        assert!(trace.iter().zip(&wrong).all(|(a, b)| a.0 != b.0));
        let run =
            |trace| run_engine_on_trace(EngineConfig::new(pipe, EngineMode::Deterministic), trace);
        let (right, wrong) = (run(trace), run(wrong));
        let live = right.totals.flows_live as usize;
        let per_flow = std::mem::size_of::<crate::flowtable::Slot<FlowState>>() + 16;
        assert!(live * per_flow > 1 << 20, "{live} flows stay in cache");
        assert_eq!(right.totals, wrong.totals);
        assert_eq!(right.flow_digests, wrong.flow_digests);
    }

    #[test]
    fn deterministic_run_is_repeatable() {
        let a = small(EngineMode::Deterministic, 4, WorkloadKind::Tcp);
        let b = small(EngineMode::Deterministic, 4, WorkloadKind::Tcp);
        assert_eq!(a.flow_digests, b.flow_digests);
        assert_eq!(a.totals, b.totals);
    }

    #[test]
    fn parallel_matches_deterministic_content() {
        let d = small(EngineMode::Deterministic, 4, WorkloadKind::Tcp);
        let p = small(EngineMode::Parallel, 4, WorkloadKind::Tcp);
        assert_eq!(d.flow_digests, p.flow_digests);
        assert_eq!(d.totals.pkts_out, p.totals.pkts_out);
        assert_eq!(d.totals.jumbo_out_inband, p.totals.jumbo_out_inband);
    }

    #[test]
    fn every_input_packet_is_consumed() {
        for variant in [SystemVariant::Px, SystemVariant::BaselineGro] {
            for workload in [WorkloadKind::Tcp, WorkloadKind::Udp] {
                let mut pipe = PipelineConfig::fig5(variant, workload, 2);
                pipe.trace_pkts = 4_000;
                pipe.n_flows = 64;
                let r = run_engine(EngineConfig::new(pipe, EngineMode::Deterministic));
                assert_eq!(r.totals.pkts_in, 4_000);
                assert!(r.totals.pkts_out > 0);
                let digest_pkts: u64 = r.flow_digests.values().map(|d| d.pkts).sum();
                assert_eq!(digest_pkts, r.totals.pkts_out);
            }
        }
    }

    #[test]
    fn per_core_counters_sum_to_totals() {
        let r = small(EngineMode::Parallel, 4, WorkloadKind::Udp);
        let mut sum = CoreCounters::default();
        for c in &r.per_core {
            sum.merge(c);
        }
        assert_eq!(sum, r.totals);
        assert_eq!(r.per_core.len(), 4);
    }

    #[test]
    fn observability_report_is_populated_and_inert() {
        let r = small(EngineMode::Deterministic, 2, WorkloadKind::Tcp);
        assert!(r.obs.enabled);
        // Every core recorded spans and they drained into the report.
        assert_eq!(r.obs.per_core_spans.len(), 2);
        assert!(r.obs.per_core_spans.iter().all(|s| !s.is_empty()));
        // Each batch contributed one histogram observation.
        // batch_ns gets one sample per batch; pkt_ns one per-packet
        // average per non-empty batch.
        assert_eq!(r.obs.hists.batch_ns.count(), r.totals.batches);
        assert_eq!(r.obs.hists.pkt_ns.count(), r.totals.batches);
        // Deterministic mode gets exactly the final sample.
        assert_eq!(r.obs.time_series.len(), 1);
        let last = r.obs.time_series[0];
        assert_eq!(last.pkts_in, r.totals.pkts_in);
        assert_eq!(last.bytes_out, r.totals.bytes_out);

        // Turning obs off yields identical datapath results and an
        // empty report.
        let mut pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, 2);
        pipe.trace_pkts = 4_000;
        pipe.n_flows = 64;
        let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
        cfg.obs = ObsConfig::disabled();
        let off = run_engine(cfg);
        assert!(!off.obs.enabled);
        assert!(off.obs.per_core_spans.is_empty());
        assert_eq!(off.flow_digests, r.flow_digests);
        assert_eq!(off.totals, r.totals);
    }

    #[test]
    fn span_streams_are_deterministic_across_reruns() {
        let a = small(EngineMode::Deterministic, 4, WorkloadKind::Udp);
        let b = small(EngineMode::Deterministic, 4, WorkloadKind::Udp);
        assert_eq!(a.obs.per_core_spans, b.obs.per_core_spans);
    }

    #[test]
    fn quiesce_flushes_idle_shard_flows_before_the_drain() {
        // Regression for the dead-shard bug: hold timers used to be
        // polled only on packet arrival, so a shard whose input stream
        // ended kept its expired flows parked until the global drain.
        let pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, 1);
        let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
        cfg.obs = ObsConfig::disabled();
        let mut w = Worker::new(&cfg, 0);
        let mut batch = one_shard(&pipe, 2, 50, 7);
        w.run_batch(&mut batch, 50);
        w.quiesce();
        // The idle tick emptied the engine: the drain has nothing left.
        let after_quiesce = w.counters.pkts_out;
        assert!(after_quiesce > 0);
        w.finish();
        assert_eq!(
            w.counters.pkts_out, after_quiesce,
            "quiesce left flows parked for the drain"
        );
        // Quiesce accounts out-of-band, exactly like the drain would
        // have: inband counters only reflect packet-arrival emissions.
        assert!(w.counters.pkts_out_inband < w.counters.pkts_out);
    }

    #[test]
    fn empty_shards_run_to_completion_like_any_other() {
        // One flow on four cores: RSS leaves three shards empty. Every
        // core still builds its worker, idle-ticks once, drains, and
        // publishes — the report has four slots, three of them blank.
        for mode in [EngineMode::Deterministic, EngineMode::Parallel] {
            let mut pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, 4);
            pipe.trace_pkts = 1_000;
            pipe.n_flows = 1;
            let r = run_engine(EngineConfig::new(pipe, mode));
            assert_eq!(r.per_core.len(), 4);
            let busy: Vec<_> = r.per_core.iter().filter(|c| c.pkts_in > 0).collect();
            assert_eq!(busy.len(), 1, "{mode:?}: one flow lands on one core");
            assert_eq!(busy[0].pkts_in, 1_000);
            for idle in r.per_core.iter().filter(|c| c.pkts_in == 0) {
                assert_eq!(*idle, CoreCounters::default(), "{mode:?}");
            }
            // The single flow's tail left the engine at its one idle
            // tick, out of band; `finish`'s debug assertion has already
            // checked every pool buffer came home on all four cores.
            assert!(busy[0].pkts_out > busy[0].pkts_out_inband);
            assert_eq!(r.flow_digests.len(), 1);
            assert_eq!(r.obs.per_core_spans.len(), 4);
        }
    }

    #[test]
    fn run_shard_idle_ticks_exactly_at_end_of_stream() {
        let pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Udp, 1);
        let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
        cfg.obs = ObsConfig::disabled();
        let registry = StatsRegistry::new(1);
        // An empty shard: no burst, nothing emitted.
        let mut w = Worker::new(&cfg, 0);
        w.run_shard::<Vec<u8>>(&mut [], &registry);
        assert_eq!(w.counters.batches, 0);
        w.finish();
        assert_eq!(w.counters, CoreCounters::default());
        // A loaded one: held bundles leave at the idle tick, so the
        // drain after it has nothing left and the pool is whole.
        let mut shard = one_shard(&pipe, 3, 70, 11);
        let mut w = Worker::new(&cfg, 0);
        w.run_shard(&mut shard, &registry);
        assert_eq!(w.counters.batches, 3);
        assert!(shard.iter().all(|(_, _, pkt)| pkt.is_empty()), "consumed");
        let after_tick = w.counters.pkts_out;
        assert!(after_tick > w.counters.pkts_out_inband);
        assert_eq!(w.pool_outstanding(), 0);
        w.finish();
        assert_eq!(w.counters.pkts_out, after_tick);
    }

    #[test]
    fn span_windows_are_published_only_for_a_live_endpoint() {
        // `/trace` is the one reader of the registry's span windows, so
        // a run nobody can scrape must not pay for the copies.
        let pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, 1);
        for serve_port in [None, Some(0)] {
            let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
            cfg.serve_port = serve_port;
            let mut owned = one_shard(&pipe, 8, 2_000, 3);
            let shard = owned
                .iter_mut()
                .map(|(now, h, pkt)| (*now, *h, pkt))
                .collect();
            let registry = StatsRegistry::new(1);
            let out = run_core(&cfg, 0, shard, &registry).obs;
            assert!(!out.spans.is_empty(), "the report always gets the spans");
            let published = registry.spans_snapshot();
            assert_eq!(published[0].is_empty(), serve_port.is_none());
        }
    }

    #[test]
    fn tail_burst_shorter_than_a_batch_is_processed() {
        for (mode, cores) in [
            (EngineMode::Deterministic, 1),
            (EngineMode::Parallel, 1),
            (EngineMode::Parallel, 3),
        ] {
            let mut pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, cores);
            pipe.trace_pkts = 32 * 40 + 7;
            pipe.n_flows = 64;
            let r = run_engine(EngineConfig::new(pipe, mode));
            assert_eq!(r.totals.pkts_in, 32 * 40 + 7, "{mode:?} @{cores}");
            // Every core's shard splits into full bursts plus at most
            // one short tail.
            for c in &r.per_core {
                assert_eq!(c.batches, c.pkts_in.div_ceil(32));
            }
            let digest_pkts: u64 = r.flow_digests.values().map(|d| d.pkts).sum();
            assert_eq!(digest_pkts, r.totals.pkts_out);
        }
    }

    #[test]
    fn quiesce_does_not_change_totals_or_digests() {
        // The same flows flush the same bytes whether the idle tick or
        // the drain emits them — only the inband/out-of-band split and
        // timing may move, and here even those match because quiesce
        // fires at end-of-stream.
        let r = small(EngineMode::Deterministic, 4, WorkloadKind::Tcp);
        assert_eq!(r.totals.pkts_in, 4_000);
        let digest_pkts: u64 = r.flow_digests.values().map(|d| d.pkts).sum();
        assert_eq!(digest_pkts, r.totals.pkts_out);
    }

    #[test]
    fn injected_worker_panic_restarts_and_loses_no_flow_state() {
        let mut pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, 2);
        pipe.trace_pkts = 4_000;
        pipe.n_flows = 64;
        let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
        cfg.faults = FaultSpec {
            enabled: true,
            seed: 1,
            panic_every_batches: 5,
            ..FaultSpec::off()
        };
        let r = run_engine(cfg);
        assert!(r.totals.worker_restarts > 0, "panic schedule never fired");
        assert_eq!(r.totals.pkts_in, 4_000);
        // Rescue-flushing on restart means every input packet still
        // reaches the output digests — nothing is lost with the engine.
        let digest_pkts: u64 = r.flow_digests.values().map(|d| d.pkts).sum();
        assert_eq!(digest_pkts, r.totals.pkts_out);
        // Restarts are observable: Restart spans in the salvaged span
        // stream, one per restart — and the histograms the dead engines
        // held were salvaged with them.
        let restarts = r
            .obs
            .per_core_spans
            .iter()
            .flatten()
            .filter(|s| s.cat == SpanCat::Restart)
            .count() as u64;
        assert_eq!(restarts, r.totals.worker_restarts);
        assert_eq!(r.obs.hists.batch_ns.count(), r.totals.batches);
    }

    /// Regression: a restarted worker's fresh engine used to number its
    /// span links from 1 again under the same per-core base, so the
    /// salvaged stream carried each id once per engine instance and the
    /// trace bound split arrows to the wrong merge.
    #[test]
    fn span_links_stay_distinct_across_worker_restarts() {
        for workload in [WorkloadKind::Tcp, WorkloadKind::Udp] {
            let mut pipe = PipelineConfig::fig5(SystemVariant::Px, workload, 2);
            pipe.trace_pkts = 4_000;
            pipe.n_flows = 64;
            let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
            cfg.obs.span_capacity = 1 << 14;
            cfg.faults = FaultSpec {
                enabled: true,
                seed: 1,
                panic_every_batches: 5,
                ..FaultSpec::off()
            };
            let r = run_engine(cfg);
            for (core, spans) in r.obs.per_core_spans.iter().enumerate() {
                let restarts = spans.iter().filter(|s| s.cat == SpanCat::Restart).count();
                assert!(
                    restarts >= 2,
                    "{workload:?} core {core}: {restarts} restarts"
                );
                let links: Vec<u64> = spans
                    .iter()
                    .filter(|s| matches!(s.cat, SpanCat::Merge | SpanCat::Caravan))
                    .map(|s| s.link)
                    .collect();
                assert!(links.len() > restarts, "{workload:?} core {core}");
                let distinct: std::collections::BTreeSet<u64> = links.iter().copied().collect();
                assert_eq!(distinct.len(), links.len(), "{workload:?} core {core}");
                assert!(links.iter().all(|l| l >> 48 == core as u64 + 1));
            }
        }
    }

    #[test]
    fn injected_panic_schedule_is_deterministic() {
        let run = || {
            let mut pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Udp, 4);
            pipe.trace_pkts = 4_000;
            pipe.n_flows = 64;
            let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
            cfg.faults = FaultSpec {
                enabled: true,
                seed: 9,
                panic_every_batches: 7,
                ..FaultSpec::off()
            };
            run_engine(cfg)
        };
        let a = run();
        let b = run();
        assert!(a.totals.worker_restarts > 0);
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.flow_digests, b.flow_digests);
    }

    #[test]
    fn ingress_faults_are_applied_and_accounted() {
        let mut pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, 2);
        pipe.trace_pkts = 4_000;
        pipe.n_flows = 64;
        let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
        cfg.faults = FaultSpec {
            enabled: true,
            seed: 3,
            drop_ppm: 20_000,
            dup_ppm: 20_000,
            reorder_ppm: 20_000,
            corrupt_ppm: 20_000,
            truncate_ppm: 10_000,
            ..FaultSpec::off()
        };
        let r = run_engine(cfg);
        let f = r.ingress_faults;
        assert!(f.total() > 0);
        // The engine consumed exactly the faulted trace: drops shrink
        // it, duplicates grow it.
        assert_eq!(r.totals.pkts_in, 4_000 - f.dropped + f.duplicated);
        // Nothing panicked and the datapath never silently dropped: a
        // corrupt or truncated packet passes through for the endpoints
        // to judge (the merge engine forwards what it cannot parse).
        assert!(r.totals.pkts_out > 0);
    }

    #[test]
    fn injected_resource_faults_surface_in_the_report() {
        let mut pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, 2);
        pipe.trace_pkts = 4_000;
        pipe.n_flows = 64;
        let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
        cfg.faults = FaultSpec {
            enabled: true,
            seed: 5,
            pool_dry_ppm: 100_000,
            table_deny_ppm: 50_000,
            ..FaultSpec::off()
        };
        let r = run_engine(cfg);
        assert!(
            r.totals.degraded_pkts > 0,
            "no packet took the passthrough path"
        );
        assert!(r.totals.pool_exhausted > 0);
        // Degradation forwards instead of dropping: everything still
        // reaches the digests.
        let digest_pkts: u64 = r.flow_digests.values().map(|d| d.pkts).sum();
        assert_eq!(digest_pkts, r.totals.pkts_out);
        assert_eq!(
            r.totals.backpressure_drops, 0,
            "spare buffer always recycled"
        );
        // Passthroughs are never jumbo, so yield must fall.
        let clean = small(EngineMode::Deterministic, 2, WorkloadKind::Tcp);
        assert!(r.conversion_yield < clean.conversion_yield);
    }

    #[test]
    fn turning_digests_off_does_not_change_the_stream() {
        let base = small(EngineMode::Deterministic, 4, WorkloadKind::Tcp);
        let mut pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, 4);
        pipe.trace_pkts = 4_000;
        pipe.n_flows = 64;
        // Same counters, no digest map, bytes untouched.
        let mut cfg = EngineConfig::new(pipe, EngineMode::Deterministic);
        cfg.digests = false;
        let nodig = run_engine(cfg);
        assert!(nodig.flow_digests.is_empty());
        assert_eq!(nodig.totals, base.totals);
    }

    /// A data segment of `len` payload bytes at `seq` on flow `port`.
    fn data_seg(port: u16, seq: u32, len: usize) -> Vec<u8> {
        use px_wire::ipv4::Ipv4Repr;
        use px_wire::tcp::{SeqNum, TcpFlags, TcpRepr};
        let (src, dst) = ([198, 51, 100, 1].into(), [10, 1, 0, 2].into());
        let repr = TcpRepr {
            src_port: port,
            dst_port: 80,
            seq: SeqNum(seq),
            ack: SeqNum(1),
            flags: TcpFlags::ACK,
            window: 5000,
            options: vec![],
        };
        let payload: Vec<u8> = (0..len).map(|i| (i as u32 ^ seq) as u8).collect();
        let seg = repr.build_segment(src, dst, &payload);
        Ipv4Repr::new(src, dst, IpProtocol::Tcp, seg.len())
            .build_packet(&seg)
            .unwrap()
    }

    fn baseline() -> CoreEngine {
        let pipe = PipelineConfig::fig5(SystemVariant::BaselineGro, WorkloadKind::Tcp, 1);
        CoreEngine::for_pipe(&pipe)
    }

    /// Merge-output conversion yield of a merge-engine arm, drain
    /// included.
    fn merge_yield(engine: &CoreEngine) -> f64 {
        match engine {
            CoreEngine::Baseline(m) | CoreEngine::Merge(m) => m.stats.conversion_yield(&m.cfg),
            CoreEngine::Caravan(_) => 0.0,
        }
    }

    #[test]
    fn baseline_merges_within_a_burst_only() {
        // Two flows of 100 B segments, alternating: the burst's 64th
        // packet ends it and both 32-segment aggregates leave.
        let mut gro = baseline();
        let mut sink = VecSink::new();
        for i in 0..GRO_BURST_PKTS as u32 / 2 {
            gro.push_into(0, data_seg(5000, i * 100, 100), &mut sink);
            gro.push_into(0, data_seg(6000, i * 100, 100), &mut sink);
        }
        let out = sink.into_pkts();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|p| p.len() == 40 + 3200));
        // Flow A's next contiguous segment cannot join the aggregate
        // that left: it is in a new burst, held until that one ends.
        let next = VecSink::collect(|s| gro.push_into(0, data_seg(5000, 3200, 100), s));
        assert!(next.is_empty());
        let tail = VecSink::collect(|s| gro.idle_tick_into(s));
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].len(), 140, "no cross-burst merging");
        assert!(VecSink::collect(|s| gro.finish_into(s)).is_empty());
    }

    #[test]
    fn baseline_yield_is_below_delayed_merging_on_interleaved_runs() {
        // 8 flows, runs of 3 contiguous segments, round-robin: a burst
        // of 64 holds ≈ 2.7 runs per flow, so its aggregates reach six
        // segments only when runs happen to line up inside it.
        let mut gro = baseline();
        let pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, 1);
        let mut px = CoreEngine::for_pipe(&pipe);
        let mut seqs = [0u32; 8];
        let mut now = 0u64;
        for _round in 0..100 {
            for f in 0..8u16 {
                for _ in 0..3 {
                    let pkt = data_seg(5000 + f, seqs[usize::from(f)], 1460);
                    seqs[usize::from(f)] += 1460;
                    gro.push_into(now, pkt.clone(), &mut VecSink::new());
                    px.push_into(now, pkt, &mut VecSink::new());
                    now += 1000;
                }
            }
        }
        gro.finish_into(&mut VecSink::new());
        px.finish_into(&mut VecSink::new());
        let (gro_yield, px_yield) = (merge_yield(&gro), merge_yield(&px));
        assert!(
            px_yield > gro_yield,
            "delayed merging must win: px {px_yield} vs baseline {gro_yield}"
        );
        assert!(px_yield > 0.85, "px yield {px_yield}");
    }

    /// Each burst's output, flow by flow, is `try_coalesce` folded over
    /// that burst's segments of the flow, an aggregate closing once it
    /// is full (no eMTU segment would fit) or the next segment does
    /// not coalesce, and every open one closing at the burst's end.
    #[test]
    fn baseline_bursts_match_the_try_coalesce_fold() {
        use px_sim::nic::try_coalesce;
        let pipe = PipelineConfig::fig5(SystemVariant::BaselineGro, WorkloadKind::Tcp, 1);
        let full_at = pipe.imtu - (pipe.emtu - 40) + 1;
        let mut gro = CoreEngine::for_pipe(&pipe);
        let mut seqs = [0u32; 8];
        let mut rng = 0x2545_f491_u32;
        for burst in 0..10 {
            let mut got: BTreeMap<FlowKey, Vec<Vec<u8>>> = BTreeMap::new();
            let mut want: BTreeMap<FlowKey, Vec<Vec<u8>>> = BTreeMap::new();
            let mut open: BTreeMap<FlowKey, Vec<u8>> = BTreeMap::new();
            let mut sink = VecSink::new();
            for _ in 0..GRO_BURST_PKTS {
                rng = rng.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                let f = (rng >> 16) as usize % seqs.len();
                let len = 1 + (rng >> 8) as usize % 1460;
                let pkt = data_seg(5000 + f as u16, seqs[f], len);
                seqs[f] = seqs[f].wrapping_add(len as u32);
                let key = batchparse::parse_key(&pkt).unwrap();
                let agg = match open.remove(&key) {
                    Some(agg) => try_coalesce(&agg, &pkt, pipe.imtu).unwrap_or_else(|| {
                        want.entry(key).or_default().push(agg);
                        pkt.clone()
                    }),
                    None => pkt.clone(),
                };
                if agg.len() >= full_at {
                    want.entry(key).or_default().push(agg);
                } else {
                    open.insert(key, agg);
                }
                gro.push_into(0, pkt, &mut sink);
            }
            for (key, agg) in open {
                want.entry(key).or_default().push(agg);
            }
            for pkt in sink.into_pkts() {
                let key = batchparse::parse_key(&pkt).unwrap();
                got.entry(key).or_default().push(pkt);
            }
            assert_eq!(got, want, "burst {burst}");
        }
    }

    #[test]
    fn digests_separate_payload_changes() {
        let h0 = fnv_extend(FNV_OFFSET, &[1, 2, 3]);
        let h1 = fnv_extend(FNV_OFFSET, &[1, 2, 4]);
        assert_ne!(h0, h1);
        // Length-prefixing distinguishes [1,2]+[3] from [1]+[2,3].
        let a = fnv_extend(fnv_extend(FNV_OFFSET, &[1, 2]), &[3]);
        let b = fnv_extend(fnv_extend(FNV_OFFSET, &[1]), &[2, 3]);
        assert_ne!(a, b);
    }
}
