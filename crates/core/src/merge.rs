//! The PXGW TCP merge engine: eMTU → iMTU coalescing with *delayed
//! merging*.
//!
//! The engine keeps at most one pending aggregate per flow. Incoming data
//! segments coalesce onto it under the LRO header gates (same as
//! px-sim's `try_coalesce`, the byte oracle the tests hold this engine
//! to) with *ordered coalescing* placement
//! ([`crate::coalesce`]): exactly contiguous segments append in place,
//! mildly out-of-order segments park in a small fixed stash until their
//! gap fills, straddling retransmissions append their new tail, and
//! bit-identical duplicates drop silently. Overlaps whose bytes conflict
//! with what the aggregate already holds are *injection attempts* — typed,
//! counted drops (`dropped_inconsistent_overlap`, `dropped_overlap_evasion`);
//! the engine never emits a merged byte that was not consistently attested
//! by every segment claiming its range. A pending aggregate is emitted
//! when:
//!
//! * it is full: no further eMTU-sized segment fits under the iMTU;
//! * a non-mergeable packet of the same flow arrives (control flags,
//!   pure ACK, header-incompatible data) — emitted *first* to preserve
//!   per-flow ordering;
//! * its **hold timer** expires (delayed merging, §4.1: "delayed packet
//!   merging to maximize the number of iMTU-bound packets"): PXGW holds
//!   a partial aggregate for up to `hold_ns` so the next burst of the
//!   same flow can top it up. The DPDK-GRO baseline is this engine with
//!   the timer never polled and every aggregate flushed at each RX
//!   burst's end ([`CoreEngine::Baseline`](crate::engine::CoreEngine::Baseline));
//!   holding is what lifts conversion yield from its ≈74 % to PX's
//!   ≈93 % (Fig. 5a);
//! * its flow is evicted from the bounded flow table.
//!
//! ## Hot-path engineering
//!
//! The steady-state loop performs **zero heap allocations and zero
//! payload re-scans**:
//!
//! * Aggregates live in pooled [`PacketBuf`]s
//!   ([`BufPool`](px_wire::pool::BufPool)); appending a contiguous
//!   segment is a single payload `memcpy` into the already-sized
//!   buffer, and emitted buffers are recycled through the
//!   [`PacketSink`] protocol.
//! * Each aggregate carries the running ones-complement partial sum of
//!   its payload. A segment's payload sum is captured for free during
//!   checksum *verification* (one scan), folded in with
//!   [`checksum::combine_at_offset`] on append, and the final TCP
//!   checksum at emission combines pseudo-header + header sum + cached
//!   payload sum — the merged payload is never read again.
//! * Only candidates for merging are checksum-verified. With steering
//!   on, a packet is classified from its 5-tuple
//!   ([`batchparse::parse_key`]) before any payload byte is read: a
//!   mouse is never summed, and one the engine owns
//!   ([`CoreEngine::push_into`](crate::engine::CoreEngine::push_into))
//!   leaves in the buffer it arrived in.
//! * Each packet makes one flow-table lookup. With steering the one
//!   table tracks every flow: its slot holds the classifier counter and
//!   the handle of the flow's pending aggregate, and classify, append,
//!   flush and re-arm all act on that slot.
//! * Once the table has outgrown the cache, a packet handed over through
//!   the owned entry waits in a [`LOOKAHEAD`]-packet ring while the
//!   lines its lookup will read are requested: its bytes on arrival,
//!   its index bucket half the ring later, the slot that bucket names
//!   three quarters in. Packets leave the ring oldest first, each
//!   polled and pushed at its own arrival time, so the ring moves when
//!   output leaves and nothing else.
//! * Hold-timer expiry pops the flow table's deadline heap instead of
//!   scanning every pending aggregate per poll tick.
//!
//! The pool, the degradation ladder in front of aggregate creation, the
//! recorder and the span-link sequence are the hold-engine
//! `Chassis`'s, shared with the caravan engine.

use crate::chassis::{Chassis, LadderCounts};
use crate::coalesce::{self, OverlapVerdict, SegStash, StashedSeg};
use crate::engine::EngineTally;
use crate::flowtable::{flow_hash, FlowTable, FlowTableConfig, NO_DEADLINE};
use crate::steer::{FlowClass, FlowCounter, SteerConfig};
use px_obs::{drop_reason, flow_id, ObsConfig, Recorder, Span, SpanCat};
use px_sim::stats::{CoreCounters, SizeHistogram};
use px_wire::batchparse::{self, prefetch_packet, prefetch_ref, ParsedMeta, SegFacts, Verdict};
use px_wire::bytes;
use px_wire::checksum;
use px_wire::ipv4::Ipv4Packet;
use px_wire::pool::{PacketSink, PoolStats};
use px_wire::tcp::options_layout_compatible;
use px_wire::FlowKey;
use px_wire::{IpProtocol, PacketBuf};

/// Merge-engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct MergeConfig {
    /// Internal MTU: the output packet size cap.
    pub imtu: usize,
    /// External MTU: used to decide when an aggregate is "full" (no room
    /// for one more eMTU segment).
    pub emtu: usize,
    /// Delayed-merging hold time in nanoseconds (0 disables holding —
    /// the ablation case).
    pub hold_ns: u64,
    /// Flow-table capacity.
    pub table_capacity: usize,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig {
            imtu: px_wire::JUMBO_MTU,
            emtu: px_wire::LEGACY_MTU,
            hold_ns: 50_000, // 50 µs
            table_capacity: 65536,
        }
    }
}

/// Counters and the output size distribution.
#[derive(Debug, Default, Clone)]
pub struct MergeStats {
    /// Input packets seen.
    pub pkts_in: u64,
    /// Input data segments that participated in merging.
    pub data_segs_in: u64,
    /// Output packet size distribution (conversion yield comes from here).
    pub out_sizes: SizeHistogram,
    /// Aggregates emitted because they were full.
    pub flush_full: u64,
    /// Aggregates emitted by the hold timer.
    pub flush_timeout: u64,
    /// Aggregates emitted because a non-mergeable packet followed.
    pub flush_order: u64,
    /// Aggregates emitted by flow-table eviction.
    pub flush_evict: u64,
    /// Packets passed through untouched (non-TCP, control, pure ACK).
    pub passthrough: u64,
    /// Data segments refused because their checksums did not verify —
    /// merging them would *launder* the corruption behind a freshly
    /// computed checksum (real LRO verifies before coalescing too).
    /// Only candidates for merging are verified: a steered mouse is
    /// never summed, so it never counts here.
    pub bad_checksum: u64,
    /// Packets forwarded unmerged because an aggregate could not be
    /// created (pool dry or flow-table denial) — the degradation
    /// ladder's passthrough rung (DESIGN.md §12).
    pub degraded_pkts: u64,
    /// Aggregate creations refused because the buffer pool was
    /// exhausted (real `BufPool::try_get` failures plus injected
    /// pool-dry verdicts).
    pub pool_exhausted: u64,
    /// Degraded packets dropped outright because even the emergency
    /// spare buffer was unavailable — the ladder's last rung.
    pub backpressure_drops: u64,
    /// Packets the small-flow classifier hairpinned past the merge
    /// machinery (§3/§4.1 steering): classified from their headers and
    /// forwarded verbatim, payload never summed, no flow-table slot, no
    /// merge state touched. A mouse the engine owns leaves in its own
    /// allocation, with no pool buffer; a lent one is copied into one.
    pub steered_mice_pkts: u64,
    /// Mouse→elephant promotions by the steering classifier.
    pub promotions: u64,
    /// Data segments dropped because they claimed a sequence range the
    /// flow's aggregate already holds *with different bytes* — an
    /// injection attempt (or corruption that survived checksums). The
    /// conflicting bytes are never merged and never forwarded.
    pub dropped_inconsistent_overlap: u64,
    /// Data segments dropped because they straddled the aggregate's
    /// lower edge: part of the claimed range can no longer be attested,
    /// the overlapping-fragment evasion pattern.
    pub dropped_overlap_evasion: u64,
    /// Bit-identical retransmissions of bytes already held, dropped
    /// silently (the receiver-side byte stream is unchanged).
    pub dropped_duplicate_segs: u64,
    /// Data segments entirely below the aggregate's base (old data),
    /// forwarded verbatim with their original end-to-end checksums.
    pub below_window_forwarded: u64,
    /// Out-of-order segments parked in the reorder stash.
    pub stashed_segs: u64,
    /// Stashed segments that coalesced onto their aggregate once the
    /// gap filled — reordering the old engine would have flushed on.
    pub stash_appends: u64,
    /// Stashed segments forwarded verbatim when their flow's aggregate
    /// was finalized with the gap still open.
    pub stash_leftovers: u64,
    /// Out-of-order segments that could not be parked (stash or pool
    /// full) and fell back to the historical flush-and-restart path.
    pub stash_fallback_flushes: u64,
}

impl MergeStats {
    /// The paper's conversion yield: fraction of emitted packets that are
    /// iMTU-sized. An aggregate counts as iMTU-sized when no further
    /// eMTU segment would have fit (≥ imtu − (emtu − 40)).
    pub fn conversion_yield(&self, cfg: &MergeConfig) -> f64 {
        self.out_sizes
            .fraction_at_least(cfg.imtu - (cfg.emtu - 40) + 1)
    }
}

/// A per-flow pending aggregate: the packet bytes plus the cached facts
/// the append fast path needs, so coalescing never re-parses or re-scans
/// what it already holds.
#[derive(Debug)]
struct Pending {
    /// The aggregate packet. For a single-segment aggregate this is the
    /// original packet verbatim (possibly longer than its IP
    /// `total_len`, e.g. link-layer padding); the first append trims it.
    buf: PacketBuf,
    ip_hlen: u8,
    tcp_hlen: u8,
    /// TCP payload bytes accumulated so far.
    payload_len: u32,
    /// Sequence number of the next contiguous byte.
    next_seq: u32,
    /// Running ones-complement partial sum of the accumulated payload.
    payload_sum: u16,
    segs: u32,
    /// Logical arrival time of the first segment — emission minus this
    /// is the aggregate's dwell time (`Merge` span / histograms).
    born: u64,
}

impl Pending {
    /// The live packet length per its IP header (`buf` may be longer
    /// only while `segs == 1`).
    fn total_len(&self) -> usize {
        usize::from(self.ip_hlen) + usize::from(self.tcp_hlen) + self.payload_len as usize
    }
}

/// One flow's entry in the engine's table: the classifier's windowed
/// counter (read only while steering) and the handle of the flow's
/// pending aggregate in [`Aggregates`].
#[derive(Debug)]
pub(crate) struct FlowState {
    counter: FlowCounter,
    /// Index into [`Aggregates`], or [`NO_AGG`].
    agg: u32,
}

/// The `agg` of a flow holding no aggregate.
const NO_AGG: u32 = u32::MAX;

impl FlowState {
    /// A flow first seen at `now`: counted once, holding nothing.
    fn new(now: u64) -> Self {
        FlowState {
            counter: FlowCounter::first(now),
            agg: NO_AGG,
        }
    }
}

/// The pending aggregates, a slab addressed by the handle in a flow's
/// [`FlowState`]. It keeps the table slot small — the counter a mouse
/// reads and the handle fit one line. Cells for [`AGGS_PREALLOC`]
/// aggregates are reserved up front, the most buffers a pipeline parks
/// in its pool, so the first excursion to the concurrent-hold peak
/// reuses cells instead of allocating; past that the slab grows to the
/// run's high-water mark, then reuses its cells.
#[derive(Debug)]
struct Aggregates {
    held: Vec<Option<Pending>>,
    free: Vec<u32>,
}

/// Aggregate cells reserved at construction (at most one per table
/// entry).
const AGGS_PREALLOC: usize = 1024;

impl Aggregates {
    /// A slab with cells for `n` aggregates.
    fn with_capacity(n: usize) -> Self {
        Aggregates {
            held: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
        }
    }

    /// Stores `p`, returning its handle.
    fn put(&mut self, p: Pending) -> u32 {
        match self.free.pop() {
            Some(h) => {
                self.held[h as usize] = Some(p);
                h
            }
            None => {
                self.held.push(Some(p));
                // Every cell may come free at once: grow the free list
                // with the slab, never while freeing.
                self.free
                    .reserve(self.held.len().saturating_sub(self.free.len()));
                // Bounded by the table capacity, far below u32::MAX.
                (self.held.len() - 1) as u32
            }
        }
    }

    fn get_mut(&mut self, h: u32) -> Option<&mut Pending> {
        self.held.get_mut(h as usize)?.as_mut()
    }

    /// Takes the aggregate out, freeing its handle.
    fn take(&mut self, h: u32) -> Option<Pending> {
        let p = self.held.get_mut(h as usize)?.take()?;
        self.free.push(h);
        Some(p)
    }

    fn arena_bytes(&self) -> usize {
        self.held.capacity() * std::mem::size_of::<Option<Pending>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

/// A packet as a push receives it: lent by the caller, or handed over
/// with its allocation. The push body reads both the same way; they
/// part only where a steered mouse leaves.
enum Ingress<'a> {
    Lent(&'a [u8]),
    Owned(Vec<u8>),
}

/// Packets the owned entry holds between arrival and processing while
/// the flow table is beyond cache. A packet's bucket is requested four
/// packets after its bytes, its slot two after that, and it is
/// processed two later — about one DRAM round trip apart at this
/// engine's per-packet cost. Linux's listified GRO holds up to
/// `net.core.gro_normal_batch` = 8 packets per call for the same reason.
pub const LOOKAHEAD: usize = 8;

/// What the push body reads off a packet's headers before it touches
/// the flow table: the flow key, the key's table hash (0 for a keyless
/// packet), and the merge verdict when the caller's or an unsteered
/// engine's parse produced it — a steered engine verifies only packets
/// that may still be merged. A pure function of the packet's bytes.
#[derive(Debug, Clone, Copy)]
struct Head {
    key: Option<FlowKey>,
    hash: u32,
    verdict: Option<Verdict>,
}

impl Head {
    /// `pkt`'s head, from the caller's `meta` when there is one.
    fn of(pkt: &[u8], meta: Option<&ParsedMeta>, steered: bool) -> Self {
        let (key, verdict) = match meta {
            Some(meta) => (meta.key, Some(meta.verdict)),
            None if steered => (batchparse::parse_key(pkt), None),
            None => {
                let meta = batchparse::parse_packet(pkt);
                (meta.key, Some(meta.verdict))
            }
        };
        Head {
            key,
            hash: key.as_ref().map_or(0, flow_hash),
            verdict,
        }
    }
}

/// A packet waiting in the lookahead ring, with its arrival time and —
/// once it is half the ring deep, or from the caller's parse — its head.
#[derive(Debug)]
struct Waiting {
    now: u64,
    pkt: Vec<u8>,
    head: Option<Head>,
}

/// The lookahead ring: up to [`LOOKAHEAD`] packets in arrival order, in
/// a fixed array, so holding one allocates nothing.
#[derive(Debug)]
struct Lookahead {
    ring: [Option<Waiting>; LOOKAHEAD],
    /// The oldest packet's index.
    first: usize,
    len: usize,
}

impl Lookahead {
    fn new() -> Self {
        Lookahead {
            ring: std::array::from_fn(|_| None),
            first: 0,
            len: 0,
        }
    }

    /// Queues `w` behind the rest; a full ring first gives up its
    /// oldest packet, which is returned.
    fn enqueue_newest(&mut self, w: Waiting) -> Option<Waiting> {
        let due = if self.len == LOOKAHEAD {
            self.dequeue_oldest()
        } else {
            None
        };
        if let Some(slot) = self.ring.get_mut((self.first + self.len) % LOOKAHEAD) {
            *slot = Some(w);
            self.len += 1;
        }
        due
    }

    /// Takes the oldest packet out.
    fn dequeue_oldest(&mut self) -> Option<Waiting> {
        if self.len == 0 {
            return None;
        }
        let w = self.ring.get_mut(self.first).and_then(Option::take);
        self.first = (self.first + 1) % LOOKAHEAD;
        self.len -= 1;
        w
    }

    /// The packet that arrived `age` pushes before the newest.
    fn waiting_at(&mut self, age: usize) -> Option<&mut Waiting> {
        if age >= self.len {
            return None;
        }
        let at = (self.first + self.len - 1 - age) % LOOKAHEAD;
        self.ring.get_mut(at).and_then(Option::as_mut)
    }
}

/// The merge engine. Feed packets with [`MergeEngine::push_into`], poll
/// hold timers with [`MergeEngine::poll_into`], and drain at shutdown
/// with [`MergeEngine::flush_all_into`].
#[derive(Debug)]
pub struct MergeEngine {
    /// Configuration.
    pub cfg: MergeConfig,
    /// The engine's one flow table. A flow is tracked from its first
    /// aggregate — with steering, from its first packet — until the
    /// table evicts it; flushing an aggregate leaves the entry, so a
    /// flow's next aggregate reuses its slot.
    table: FlowTable<FlowState>,
    aggs: Aggregates,
    /// Pool, spare, fault gate, degrade ladder, recorder, clock and
    /// span links — everything shared with the caravan engine.
    pub(crate) chassis: Chassis,
    /// Counters.
    pub stats: MergeStats,
    /// Small-flow steering (§3/§4.1). `None` disables it: every flow
    /// takes the merge path, exactly the historical behaviour.
    steer: Option<SteerConfig>,
    /// Fixed-capacity parking lot for out-of-order segments (empty on
    /// the in-order hot path: one predicted branch).
    stash: SegStash,
    /// Owned packets not yet processed: empty unless the table is
    /// beyond cache and the engine driver's entry left some. Every
    /// public method that emits drains it first.
    ahead: Lookahead,
}

impl MergeEngine {
    /// Creates a merge engine whose flow table holds
    /// `cfg.table_capacity` flows.
    pub fn new(cfg: MergeConfig) -> Self {
        Self::with_table(cfg, FlowTableConfig::with_capacity(cfg.table_capacity))
    }

    /// Creates a merge engine whose flow table `table` sizes (entry
    /// ceiling + optional byte budget) in place of
    /// `cfg.table_capacity`.
    pub fn with_table(cfg: MergeConfig, table: FlowTableConfig) -> Self {
        let table = FlowTable::with_config(table);
        MergeEngine {
            cfg,
            aggs: Aggregates::with_capacity(table.capacity().min(AGGS_PREALLOC)),
            table,
            chassis: Chassis::new(cfg.imtu),
            stats: MergeStats::default(),
            steer: None,
            stash: SegStash::new(coalesce::STASH_CAP, coalesce::STASH_PER_FLOW),
            ahead: Lookahead::new(),
        }
    }

    /// Creates a merge engine with small-flow steering: mice hairpin
    /// past the merge machinery, only elephants earn merge state. The
    /// one table tracks every flow, so `steer` sizes it.
    pub fn steered(cfg: MergeConfig, steer: SteerConfig) -> Self {
        let mut engine = Self::with_table(cfg, steer.table());
        engine.steer = Some(steer);
        engine
    }

    /// Bytes reserved by this engine's flow-state arenas: the table and
    /// the aggregate slab.
    pub fn arena_bytes(&self) -> usize {
        self.table.arena_bytes() + self.aggs.arena_bytes()
    }

    /// Flows currently occupying state: the table's entries.
    pub fn flows_live(&self) -> usize {
        self.table.len()
    }

    /// What the engine driver folds per engine instance. With steering,
    /// evictions split by segment: an idle mouse, or an elephant lost to
    /// arrival pressure. Without it they split by what the victim held:
    /// nothing, or an aggregate that had to be rescue-flushed.
    pub(crate) fn tally(&self) -> EngineTally {
        let t = &self.table;
        let (idle, pressure) = match self.steer {
            Some(_) => (t.evicted_idle, t.evicted_pressure),
            None => (
                t.evictions.saturating_sub(self.stats.flush_evict),
                self.stats.flush_evict,
            ),
        };
        let counters = CoreCounters {
            degraded_pkts: self.stats.degraded_pkts,
            pool_exhausted: self.stats.pool_exhausted,
            backpressure_drops: self.stats.backpressure_drops,
            dropped_inconsistent_overlap: self.stats.dropped_inconsistent_overlap,
            dropped_overlap_evasion: self.stats.dropped_overlap_evasion,
            flows_evicted_idle: idle,
            flows_evicted_pressure: pressure,
            steered_mice_pkts: self.stats.steered_mice_pkts,
            flows_live: self.flows_live() as u64,
            ..CoreCounters::default()
        };
        EngineTally {
            counters,
            arena_bytes: self.arena_bytes(),
        }
    }

    /// Switches the span recorder + histograms on (preallocates the
    /// ring; recording itself never allocates).
    pub fn enable_obs(&mut self, cfg: ObsConfig) {
        self.chassis.obs = Recorder::new(cfg);
    }

    /// The span recorder + histograms.
    pub fn obs(&self) -> &Recorder {
        &self.chassis.obs
    }

    /// Buffer-pool counters (allocation accounting).
    pub fn pool_stats(&self) -> PoolStats {
        self.chassis.pool.stats
    }

    fn full_threshold(&self) -> usize {
        self.cfg.imtu.saturating_sub(self.cfg.emtu - 40) + 1
    }

    /// Emits a finished aggregate: records its size, hands it to the
    /// sink, and recycles the buffer if the sink returns it. Passthrough
    /// goes out by [`Chassis::forward`] instead — deliberately not
    /// recorded in `out_sizes`, which tracks merge output only.
    fn emit(&mut self, buf: PacketBuf, sink: &mut impl PacketSink) {
        self.stats.out_sizes.record(buf.len());
        self.chassis.obs.observe_out_size(buf.len() as u64);
        self.chassis.emit(buf, sink);
    }

    /// Records one merge emission's lifecycle span:
    /// born → emitted, aux = how many segments it swallowed, link = the
    /// causal id the consuming split span will carry. Single-packet
    /// emissions (already-iMTU input, the hold-disabled ablation, stash
    /// leftovers) pass `dwell` 0 and `segs` 1, so every merge output
    /// carries a `Merge` span and a causal link.
    fn record_emit(&mut self, born: u64, dwell: u64, len: usize, flow: u32, segs: u32) {
        if self.chassis.obs.is_enabled() {
            let link = self.chassis.next_link();
            self.chassis.obs.record(Span {
                cat: SpanCat::Merge,
                start_ns: born,
                dur_ns: dwell,
                len: len as u32,
                flow,
                aux: u64::from(segs),
                link,
            });
        }
    }

    /// Records a typed drop (`reason` is a [`drop_reason`]; the counter
    /// is the caller's).
    fn record_drop(&mut self, now: u64, len: usize, flow: u32, reason: u64) {
        self.chassis
            .obs
            .record(Span::instant(SpanCat::Drop, now, len, flow, reason));
    }

    /// Whether `meta`'s packet shares enough header state with `pending`
    /// to coalesce at all — the non-positional LRO gates, same as
    /// px-sim's `try_coalesce` oracle, answered from cached state and
    /// fixed-offset header reads instead of re-parsing. The flow key
    /// already guarantees equal addresses, ports, and protocol; the
    /// aggregate's flags are ACK, PSH and ECE only by construction.
    /// *Where* the segment lands (contiguous / overlapping / future) is
    /// [`coalesce::classify`]'s job, not this gate's.
    fn headers_compatible(pending: &Pending, meta: &SegFacts, pkt: &[u8]) -> bool {
        let a = pending.buf.as_slice();
        let a_ip = usize::from(pending.ip_hlen);
        let b_ip = usize::from(meta.ip_hlen);
        // Same ToS, ACK number, and window (pure in-order continuation).
        if a[1] != pkt[1]
            || bytes::range(a, a_ip + 8, a_ip + 12) != bytes::range(pkt, b_ip + 8, b_ip + 12)
            || bytes::range(a, a_ip + 14, a_ip + 16) != bytes::range(pkt, b_ip + 14, b_ip + 16)
        {
            return false;
        }
        // Same ECE (flags bit 0x40): an ECN echo is carried by every
        // segment of its run, never folded into a neighbour's.
        if (a[a_ip + 13] ^ pkt[b_ip + 13]) & 0x40 != 0 {
            return false;
        }
        // Identical TCP option layout (kinds and lengths; values may
        // differ and the aggregate keeps its own). Laxer than Linux
        // GRO, which compares the option bytes and flushes on any
        // difference: ROADMAP item 9(b).
        let a_opts = bytes::range(a, a_ip + 20, a_ip + usize::from(pending.tcp_hlen));
        let b_opts = bytes::range(pkt, b_ip + 20, b_ip + usize::from(meta.tcp_hlen));
        options_layout_compatible(a_opts, b_opts)
    }

    /// The aggregate's accumulated TCP payload (`buf` may carry trailing
    /// link padding only while `segs == 1`; the range excludes it).
    fn held_payload(pending: &Pending) -> &[u8] {
        let hdrs = usize::from(pending.ip_hlen) + usize::from(pending.tcp_hlen);
        bytes::range(pending.buf.as_slice(), hdrs, pending.total_len())
    }

    /// Sequence number of the aggregate's first payload byte.
    fn base_seq(pending: &Pending) -> u32 {
        pending.next_seq.wrapping_sub(pending.payload_len)
    }

    /// Appends a payload tail onto `pending` in place: one `memcpy` plus
    /// a partial-sum fold. `trim` skips leading bytes the aggregate
    /// already holds (verified identical by [`coalesce::classify`]);
    /// the trimmed tail's partial sum is rescanned, the `trim == 0` fast
    /// path folds the cached segment sum. Checksums and length fields
    /// are patched once, at emission.
    fn append_tail(pending: &mut Pending, payload: &[u8], sum: u16, psh: bool) {
        if pending.segs == 1 {
            // Drop any bytes beyond the IP total length (e.g. link-layer
            // padding) before growing the aggregate.
            pending.buf.truncate(pending.total_len());
        }
        pending.payload_sum =
            checksum::combine_at_offset(pending.payload_sum, sum, pending.payload_len % 2 == 1);
        pending.buf.extend_from_slice(payload);
        if psh {
            let flags_at = usize::from(pending.ip_hlen) + 13;
            pending.buf.as_mut_slice()[flags_at] |= 0x08;
        }
        pending.payload_len += payload.len() as u32;
        pending.next_seq = pending.next_seq.wrapping_add(payload.len() as u32);
        pending.segs += 1;
    }

    /// Finishes an aggregate and emits it. Single-segment aggregates go
    /// out verbatim (the original packet was never modified); merged ones
    /// get their length and checksums patched from the cached partial
    /// sums — no payload re-scan.
    fn finalize_emit(&mut self, mut p: Pending, sink: &mut impl PacketSink) {
        if p.segs > 1 {
            let total = p.total_len();
            debug_assert_eq!(p.buf.len(), total);
            let ip_hlen = usize::from(p.ip_hlen);
            let (src, dst);
            {
                let mut ip = Ipv4Packet::new_unchecked(p.buf.as_mut_slice());
                ip.set_total_len(total as u16);
                ip.fill_checksum();
                (src, dst) = (ip.src(), ip.dst());
            }
            let seg_len = (total - ip_hlen) as u16;
            let seg = bytes::range_from_mut(p.buf.as_mut_slice(), ip_hlen);
            bytes::put_be16(seg, 16, 0);
            let header_sum =
                checksum::ones_complement_sum(bytes::range_to(seg, usize::from(p.tcp_hlen)));
            let pseudo = checksum::pseudo_header_sum(src, dst, IpProtocol::Tcp.into(), seg_len);
            let ck = !checksum::combine(pseudo, checksum::combine(header_sum, p.payload_sum));
            bytes::put_be16(seg, 16, ck);
        }
        if self.chassis.obs.is_enabled() {
            let ip_hlen = usize::from(p.ip_hlen);
            let src_port = bytes::be16(p.buf.as_slice(), ip_hlen);
            let dst_port = bytes::be16(p.buf.as_slice(), ip_hlen + 2);
            let dwell = self.chassis.now().saturating_sub(p.born);
            let flow = flow_id(src_port, dst_port);
            self.chassis.obs.observe_dwell(dwell);
            self.record_emit(p.born, dwell, p.buf.len(), flow, p.segs);
        }
        self.emit(p.buf, sink);
    }

    /// The pending aggregate of the flow in `slot`, if it holds one.
    fn pending_mut(&mut self, slot: u32) -> Option<&mut Pending> {
        let h = self.table.value_at(slot)?.agg;
        self.aggs.get_mut(h)
    }

    /// Takes the aggregate of the flow in `slot` out, with the flow's
    /// key, and disarms its hold timer. The entry stays.
    fn take_pending(&mut self, slot: u32) -> Option<(FlowKey, Pending)> {
        let key = self.table.key_at(slot)?;
        let state = self.table.value_at(slot)?;
        let p = self.aggs.take(std::mem::replace(&mut state.agg, NO_AGG))?;
        self.table.arm_at(slot, NO_DEADLINE);
        Some((key, p))
    }

    /// Makes `p` the pending aggregate of the flow in `slot`, its hold
    /// timer armed for `deadline`.
    fn hold(&mut self, slot: u32, p: Pending, deadline: u64) {
        let Some(state) = self.table.value_at(slot) else {
            // Defensive: every caller passes a live slot.
            self.chassis.pool.put(p.buf);
            return;
        };
        state.agg = self.aggs.put(p);
        self.table.arm_at(slot, deadline);
    }

    /// Surfaces a flow the table evicted to make room: its aggregate is
    /// rescue-flushed, never dropped (Evict span aux 2, pressure), or,
    /// holding none, only the eviction is recorded (aux 1, idle).
    fn rescue_evicted(
        &mut self,
        now: u64,
        victim: &FlowKey,
        state: FlowState,
        sink: &mut impl PacketSink,
    ) {
        let vflow = flow_id(victim.src_port, victim.dst_port);
        let Some(p) = self.aggs.take(state.agg) else {
            self.chassis
                .obs
                .record(Span::instant(SpanCat::Evict, now, 0, vflow, 1));
            return;
        };
        self.stats.flush_evict += 1;
        self.chassis
            .obs
            .record(Span::instant(SpanCat::Evict, now, p.buf.len(), vflow, 2));
        self.finalize_flow(victim, p, sink);
    }

    /// Finishes a flow: emits its aggregate, then forwards — verbatim,
    /// in sequence order — any segments still parked in the reorder
    /// stash for it (their gaps never filled before the flush). Every
    /// site that removes a pending aggregate goes through here, which is
    /// what maintains the stash invariant: parked segments only ever
    /// belong to flows with live aggregates.
    fn finalize_flow(&mut self, key: &FlowKey, p: Pending, sink: &mut impl PacketSink) {
        let base = Self::base_seq(&p);
        self.finalize_emit(p, sink);
        if self.stash.is_empty() {
            return;
        }
        self.forward_stash_leftovers(key, base, sink);
    }

    /// Forwards every stashed segment of `key` in sequence order (their
    /// end-to-end checksums are intact — they were never modified).
    fn forward_stash_leftovers(&mut self, key: &FlowKey, base: u32, sink: &mut impl PacketSink) {
        while let Some(seg) = self.stash.take_min(key, base) {
            self.stats.stash_leftovers += 1;
            let len = seg.buf.len();
            let flow = flow_id(key.src_port, key.dst_port);
            self.record_emit(self.chassis.now(), 0, len, flow, 1);
            self.emit(seg.buf, sink);
        }
    }

    /// Parks an out-of-order segment (trimmed to its IP total length)
    /// in the reorder stash. `false` when the stash allowance or the
    /// pool has no room — the caller falls back to the historical
    /// flush-and-restart path.
    fn try_stash(&mut self, key: &FlowKey, facts: &SegFacts, pkt: &[u8]) -> bool {
        let Some(mut buf) = self.chassis.pool.try_get() else {
            return false;
        };
        buf.extend_from_slice(bytes::range(pkt, 0, usize::from(facts.total_len)));
        let seg = StashedSeg {
            key: *key,
            seq: facts.seq,
            psh: facts.psh,
            ip_hlen: facts.ip_hlen,
            tcp_hlen: facts.tcp_hlen,
            payload_sum: facts.payload_sum,
            buf,
        };
        match self.stash.insert(seg) {
            Ok(()) => true,
            Err(seg) => {
                self.chassis.pool.put(seg.buf);
                false
            }
        }
    }

    /// After an append advanced the contiguous edge, repeatedly pulls
    /// newly actionable stashed segments of `key` onto its aggregate
    /// until only future gaps (or nothing) remain. Stashed segments get
    /// the same overlap scrutiny as arriving ones: inconsistent bytes
    /// are typed, counted drops, never merged. May flush the aggregate
    /// full.
    fn drain_stash(&mut self, now: u64, slot: u32, key: &FlowKey, sink: &mut impl PacketSink) {
        if self.stash.is_empty() {
            return;
        }
        let full_at = self.full_threshold();
        let imtu = self.cfg.imtu;
        let flow = flow_id(key.src_port, key.dst_port);
        enum Act {
            Recycle,
            Inconsistent,
            Unreachable,
            Overflow,
        }
        loop {
            let (base, next) = {
                let Some(p) = self.pending_mut(slot) else {
                    return;
                };
                (Self::base_seq(p), p.next_seq)
            };
            let Some(seg) = self.stash.take_actionable(key, base, next) else {
                return;
            };
            let mut became_full = false;
            let act = {
                let Some(p) = self.pending_mut(slot) else {
                    // Defensive: the aggregate vanished between the two
                    // reads (cannot happen single-threaded).
                    self.chassis.pool.put(seg.buf);
                    return;
                };
                let verdict =
                    coalesce::classify(Self::held_payload(p), base, seg.seq, seg.payload());
                match verdict {
                    OverlapVerdict::Append { trim } => {
                        let payload = bytes::range_from(seg.payload(), trim);
                        let merged = p.total_len() + payload.len();
                        if merged <= imtu && merged <= px_wire::ipv4::MAX_TOTAL_LEN {
                            let sum = if trim == 0 {
                                seg.payload_sum
                            } else {
                                checksum::ones_complement_sum(payload)
                            };
                            Self::append_tail(p, payload, sum, seg.psh);
                            became_full = p.total_len() >= full_at;
                            Act::Recycle
                        } else {
                            Act::Overflow
                        }
                    }
                    OverlapVerdict::Duplicate => {
                        self.stats.dropped_duplicate_segs += 1;
                        Act::Recycle
                    }
                    OverlapVerdict::Inconsistent => Act::Inconsistent,
                    // A stashed segment was `Future` (strictly above the
                    // edge) when parked and the base never moves down,
                    // so these are unreachable; drop defensively.
                    OverlapVerdict::Evasion | OverlapVerdict::Below | OverlapVerdict::Future => {
                        Act::Unreachable
                    }
                }
            };
            match act {
                Act::Recycle => {
                    if became_full {
                        self.stats.stash_appends += 1;
                        if let Some((_, p)) = self.take_pending(slot) {
                            self.stats.flush_full += 1;
                            self.finalize_flow(key, p, sink);
                        }
                        self.chassis.pool.put(seg.buf);
                        return;
                    }
                    self.stats.stash_appends += 1;
                    self.chassis.pool.put(seg.buf);
                }
                Act::Inconsistent => {
                    self.stats.dropped_inconsistent_overlap += 1;
                    self.record_drop(now, seg.buf.len(), flow, drop_reason::INCONSISTENT_OVERLAP);
                    self.chassis.pool.put(seg.buf);
                }
                Act::Unreachable => {
                    self.stats.dropped_overlap_evasion += 1;
                    self.record_drop(now, seg.buf.len(), flow, drop_reason::OVERLAP_EVASION);
                    self.chassis.pool.put(seg.buf);
                }
                Act::Overflow => {
                    // The aggregate cannot grow further: flush it full,
                    // then forward this segment and the flow's remaining
                    // stash verbatim, in order.
                    if let Some((_, p)) = self.take_pending(slot) {
                        self.stats.flush_full += 1;
                        self.finalize_emit(p, sink);
                    }
                    self.stats.stash_leftovers += 1;
                    let len = seg.buf.len();
                    self.record_emit(now, 0, len, flow, 1);
                    self.emit(seg.buf, sink);
                    self.forward_stash_leftovers(key, base, sink);
                    return;
                }
            }
        }
    }

    /// Processes one packet arriving from the eMTU side, delivering any
    /// packets ready to forward into the b-network to `sink` (possibly
    /// none while an aggregate is being held).
    ///
    /// Synchronous: the packet is processed before the call returns,
    /// whatever the table's size (after any packets the engine driver's
    /// entry left in the lookahead ring). Does not poll hold timers.
    ///
    /// Parses the packet itself; batch callers that already ran
    /// [`batchparse::parse_batch_with`] should use
    /// [`push_parsed_into`](Self::push_parsed_into) to skip the repeat
    /// header walk.
    pub fn push_into(&mut self, now: u64, pkt: &[u8], sink: &mut impl PacketSink) {
        self.drain_lookahead_into(sink);
        let head = Head::of(pkt, None, self.steer.is_some());
        self.push_packet(now, Ingress::Lent(pkt), head, sink);
    }

    /// [`push_into`](Self::push_into) with the parse already done: the
    /// engine hot loop classifies a whole RX batch up front
    /// ([`batchparse::parse_batch_with`]) and feeds the cached
    /// [`ParsedMeta`] here, so the per-packet path never re-reads header
    /// bytes. `meta` must describe `pkt` — the single-packet wrapper and
    /// the property suite keep the two parsers bit-identical.
    pub fn push_parsed_into(
        &mut self,
        now: u64,
        pkt: &[u8],
        meta: &ParsedMeta,
        sink: &mut impl PacketSink,
    ) {
        self.drain_lookahead_into(sink);
        let head = Head::of(pkt, Some(meta), self.steer.is_some());
        self.push_packet(now, Ingress::Lent(pkt), head, sink);
    }

    /// [`push_into`](Self::push_into) (or, with `meta`,
    /// [`push_parsed_into`](Self::push_parsed_into)) for a packet the
    /// caller hands over, without the hold-timer poll: a steered mouse
    /// leaves in this allocation. The baseline's entry.
    pub(crate) fn push_owned_into(
        &mut self,
        now: u64,
        pkt: Vec<u8>,
        meta: Option<&ParsedMeta>,
        sink: &mut impl PacketSink,
    ) {
        let head = Head::of(&pkt, meta, self.steer.is_some());
        self.push_packet(now, Ingress::Owned(pkt), head, sink);
    }

    /// [`poll_into`](Self::poll_into) then
    /// [`push_owned_into`](Self::push_owned_into), both at `now` — the
    /// engine driver's entry — through the lookahead ring while the
    /// table is beyond cache. Then the packet is queued, the ring
    /// requests what its older packets' lookups will read, and the
    /// packet [`LOOKAHEAD`] arrivals back is polled and pushed at its
    /// own `now`: processing trails arrival by at most `LOOKAHEAD`
    /// packets, in arrival order, with what it emits unchanged. Once
    /// the table is back in cache the ring drains and each packet is
    /// processed on arrival.
    pub(crate) fn push_ahead_into(
        &mut self,
        now: u64,
        pkt: Vec<u8>,
        meta: Option<&ParsedMeta>,
        sink: &mut impl PacketSink,
    ) {
        if !self.table.beyond_cache() {
            self.drain_lookahead_into(sink);
            self.poll_due(now, sink);
            self.push_owned_into(now, pkt, meta, sink);
            return;
        }
        prefetch_packet(&pkt);
        let steered = self.steer.is_some();
        let head = meta.map(|meta| Head::of(&pkt, Some(meta), steered));
        let due = self.ahead.enqueue_newest(Waiting { now, pkt, head });
        // Half the ring back the packet's bytes have landed: read its
        // key and request the bucket its lookup starts at.
        if let Some(w) = self.ahead.waiting_at(LOOKAHEAD / 2) {
            let head = *w
                .head
                .get_or_insert_with(|| Head::of(&w.pkt, None, steered));
            if let Some(bucket) = head.key.and(self.table.index_line(head.hash)) {
                prefetch_ref(bucket);
            }
        }
        // Three quarters back the bucket has landed: request the slot
        // it names.
        let deeper = self.ahead.waiting_at(LOOKAHEAD * 3 / 4);
        if let Some(head) = deeper.and_then(|w| w.head).filter(|h| h.key.is_some()) {
            if let Some(slot) = self.table.slot_guess(head.hash) {
                prefetch_ref(slot);
            }
        }
        if let Some(w) = due {
            self.push_waiting(w, sink);
        }
    }

    /// Processes every packet in the lookahead ring, oldest first, each
    /// at its own arrival time. A no-op when the ring is empty.
    pub(crate) fn drain_lookahead_into(&mut self, sink: &mut impl PacketSink) {
        while let Some(w) = self.ahead.dequeue_oldest() {
            self.push_waiting(w, sink);
        }
    }

    /// One packet out of the ring: the poll and the push body its
    /// arrival would have run, with the head the ring read.
    fn push_waiting(&mut self, w: Waiting, sink: &mut impl PacketSink) {
        let head = w
            .head
            .unwrap_or_else(|| Head::of(&w.pkt, None, self.steer.is_some()));
        self.poll_due(w.now, sink);
        self.push_packet(w.now, Ingress::Owned(w.pkt), head, sink);
    }

    /// The one push body, for lent and owned input alike, given the
    /// packet's head. With steering on, the head carries only the key
    /// and the checksum scan waits until the packet may still be
    /// merged: a mouse is never summed. Without steering one walk
    /// yields both.
    fn push_packet(
        &mut self,
        now: u64,
        input: Ingress<'_>,
        head: Head,
        sink: &mut impl PacketSink,
    ) {
        let pkt: &[u8] = match &input {
            Ingress::Lent(pkt) => pkt,
            Ingress::Owned(pkt) => pkt,
        };
        let Head { key, hash, verdict } = head;
        self.stats.pkts_in += 1;
        let keyed_flow = key.as_ref().map(|k| flow_id(k.src_port, k.dst_port));
        self.chassis.arrive(now, pkt.len(), keyed_flow);

        let Some(key) = key else {
            self.stats.passthrough += 1;
            // aux 2 = passthrough (vs 1 = steered mouse).
            self.chassis
                .obs
                .record(Span::instant(SpanCat::Steer, now, pkt.len(), 0, 2));
            self.chassis.forward(pkt, sink);
            return;
        };

        // The packet's one table lookup. With steering every flow is
        // tracked, and the lookup's slot also counts and classifies the
        // packet; without it a flow is tracked from its first aggregate.
        let slot = match self.steer {
            Some(cfg) => {
                let entry = self.table.entry(hash, &key, || FlowState::new(now));
                if let Some((victim, state)) = entry.evicted {
                    self.rescue_evicted(now, &victim, state, sink);
                }
                let (class, promoted) = match self.table.value_at(entry.slot) {
                    Some(state) if entry.found => state.counter.count(now, &cfg),
                    _ => (FlowClass::Mouse, false),
                };
                if promoted {
                    self.stats.promotions += 1;
                    self.table.protect_at(entry.slot);
                }
                if class == FlowClass::Mouse {
                    // Small-flow steering (§3/§4.1): mice hairpin
                    // NIC-to-NIC, forwarded verbatim without touching
                    // merge state — no pool aggregate, no merge
                    // counters. A mouse holds no aggregate: elephants
                    // never demote, and an evicted flow's aggregate left
                    // with its entry.
                    self.stats.steered_mice_pkts += 1;
                    let flow = flow_id(key.src_port, key.dst_port);
                    self.chassis
                        .obs
                        .record(Span::instant(SpanCat::Steer, now, pkt.len(), flow, 1));
                    match input {
                        Ingress::Lent(pkt) => self.chassis.forward(pkt, sink),
                        // An owned mouse leaves in its own allocation: no
                        // copy, no pool `get`. A buffer the sink hands
                        // back was never the pool's, so it is released,
                        // not parked, and the pool's books stay balanced.
                        Ingress::Owned(pkt) => drop(sink.accept(PacketBuf::adopt(pkt))),
                    }
                    return;
                }
                Some(entry.slot)
            }
            None => self.table.find(hash, &key),
        };

        // Only a packet that may still be merged is checksum-verified.
        let verdict = verdict.unwrap_or_else(|| batchparse::parse_packet(pkt).verdict);
        let facts = match verdict {
            Verdict::Mergeable(facts) => facts,
            Verdict::NotMergeable { checksum_ok } => {
                // Control/pure-ACK/non-TCP/corrupt: flush any pending
                // aggregate first to preserve per-flow ordering, then pass
                // through — a corrupted segment keeps its broken checksum
                // so the receiver discards it and TCP retransmits.
                if !checksum_ok {
                    self.stats.bad_checksum += 1;
                }
                if let Some((_, p)) = slot.and_then(|s| self.take_pending(s)) {
                    self.stats.flush_order += 1;
                    self.finalize_flow(&key, p, sink);
                }
                self.stats.passthrough += 1;
                let flow = flow_id(key.src_port, key.dst_port);
                self.chassis
                    .obs
                    .record(Span::instant(SpanCat::Steer, now, pkt.len(), flow, 2));
                self.chassis.forward(pkt, sink);
                return;
            }
        };

        self.stats.data_segs_in += 1;
        let full_at = self.full_threshold();
        let imtu = self.cfg.imtu;
        let flow = flow_id(key.src_port, key.dst_port);

        enum PendingAct {
            Appended { full: bool },
            FlushRestart,
            DropDuplicate,
            DropInconsistent,
            DropEvasion,
            ForwardBelow,
            Stash,
            None,
        }
        let hdrs = usize::from(facts.ip_hlen) + usize::from(facts.tcp_hlen);
        let pending = match slot {
            Some(slot) => self.pending_mut(slot),
            None => None,
        };
        let act = match pending {
            Some(pending) => {
                if !Self::headers_compatible(pending, &facts, pkt) {
                    // Different ACK/window/ToS/options: flush, restart —
                    // the historical incompatibility path.
                    PendingAct::FlushRestart
                } else {
                    let base = Self::base_seq(pending);
                    let seg_payload = bytes::range(pkt, hdrs, usize::from(facts.total_len));
                    let verdict = coalesce::classify(
                        Self::held_payload(pending),
                        base,
                        facts.seq,
                        seg_payload,
                    );
                    match verdict {
                        OverlapVerdict::Append { trim } => {
                            let payload = bytes::range_from(seg_payload, trim);
                            let merged = pending.total_len() + payload.len();
                            if merged <= imtu && merged <= px_wire::ipv4::MAX_TOTAL_LEN {
                                let sum = if trim == 0 {
                                    facts.payload_sum
                                } else {
                                    checksum::ones_complement_sum(payload)
                                };
                                Self::append_tail(pending, payload, sum, facts.psh);
                                PendingAct::Appended {
                                    full: pending.total_len() >= full_at,
                                }
                            } else {
                                PendingAct::FlushRestart
                            }
                        }
                        OverlapVerdict::Duplicate => PendingAct::DropDuplicate,
                        OverlapVerdict::Inconsistent => PendingAct::DropInconsistent,
                        OverlapVerdict::Evasion => PendingAct::DropEvasion,
                        OverlapVerdict::Below => PendingAct::ForwardBelow,
                        OverlapVerdict::Future => PendingAct::Stash,
                    }
                }
            }
            None => PendingAct::None,
        };
        match act {
            PendingAct::Appended { full: true } => {
                if let Some((_, p)) = slot.and_then(|s| self.take_pending(s)) {
                    self.stats.flush_full += 1;
                    self.finalize_flow(&key, p, sink);
                }
                return;
            }
            PendingAct::Appended { full: false } => {
                // The contiguous edge moved: parked segments may now
                // coalesce (no-op while the stash is empty).
                if let Some(s) = slot {
                    self.drain_stash(now, s, &key, sink);
                }
                return;
            }
            PendingAct::DropDuplicate => {
                // Bit-identical retransmission of held bytes: dropping
                // it leaves the receiver-side byte stream unchanged.
                self.stats.dropped_duplicate_segs += 1;
                return;
            }
            PendingAct::DropInconsistent => {
                self.stats.dropped_inconsistent_overlap += 1;
                self.record_drop(now, pkt.len(), flow, drop_reason::INCONSISTENT_OVERLAP);
                return;
            }
            PendingAct::DropEvasion => {
                self.stats.dropped_overlap_evasion += 1;
                self.record_drop(now, pkt.len(), flow, drop_reason::OVERLAP_EVASION);
                return;
            }
            PendingAct::ForwardBelow => {
                // Old data from before this aggregate existed: not
                // mergeable, not suspicious — forward verbatim with its
                // original end-to-end checksum.
                self.stats.below_window_forwarded += 1;
                self.chassis.forward(pkt, sink);
                return;
            }
            PendingAct::Stash => {
                if self.try_stash(&key, &facts, pkt) {
                    self.stats.stashed_segs += 1;
                    return;
                }
                // No stash or pool room: the historical flush-and-restart.
                self.stats.stash_fallback_flushes += 1;
                if let Some((_, p)) = slot.and_then(|s| self.take_pending(s)) {
                    self.stats.flush_order += 1;
                    self.finalize_flow(&key, p, sink);
                }
            }
            PendingAct::FlushRestart => {
                if let Some((_, p)) = slot.and_then(|s| self.take_pending(s)) {
                    self.stats.flush_order += 1;
                    self.finalize_flow(&key, p, sink);
                }
            }
            PendingAct::None => {}
        }

        // Nothing to hold for: the packet is already iMTU-sized (e.g.
        // traffic from another b-network), or delayed merging is
        // disabled (the ablation) — emit immediately.
        let full = pkt.len() >= full_at;
        if full || self.cfg.hold_ns == 0 {
            self.stats.flush_full += u64::from(full);
            self.record_emit(now, 0, pkt.len(), flow, 1);
            let buf = self.chassis.copy_in(pkt);
            self.emit(buf, sink);
            return;
        }
        // Aggregate creation goes through the chassis' fault gate; on
        // `None` the packet already left through the degrade ladder.
        let counts = LadderCounts {
            degraded_pkts: &mut self.stats.degraded_pkts,
            pool_exhausted: &mut self.stats.pool_exhausted,
            backpressure_drops: &mut self.stats.backpressure_drops,
        };
        let Some(buf) = self.chassis.acquire(now, pkt, flow, counts, sink) else {
            return;
        };
        let payload_len = facts.payload_len() as u32;
        let pending = Pending {
            buf,
            ip_hlen: facts.ip_hlen,
            tcp_hlen: facts.tcp_hlen,
            payload_len,
            next_seq: facts.seq.wrapping_add(payload_len),
            payload_sum: facts.payload_sum,
            segs: 1,
            born: now,
        };
        let slot = match slot {
            Some(slot) => slot,
            None => {
                // Without steering a flow's entry comes with its first
                // aggregate: that packet's second lookup.
                let entry = self.table.entry(hash, &key, || FlowState::new(now));
                if let Some((victim, state)) = entry.evicted {
                    self.rescue_evicted(now, &victim, state, sink);
                }
                entry.slot
            }
        };
        self.hold(slot, pending, now + self.cfg.hold_ns);
    }

    /// Emits every aggregate whose hold timer has expired, after the
    /// packets waiting in the lookahead ring.
    pub fn poll_into(&mut self, now: u64, sink: &mut impl PacketSink) {
        self.drain_lookahead_into(sink);
        self.poll_due(now, sink);
    }

    /// The poll body: hold-timer expiry at `now`.
    fn poll_due(&mut self, now: u64, sink: &mut impl PacketSink) {
        self.chassis.poll_tick(now);
        while let Some(slot) = self.table.pop_due(now) {
            if let Some((key, p)) = self.take_pending(slot) {
                self.stats.flush_timeout += 1;
                self.finalize_flow(&key, p, sink);
            }
        }
    }

    /// The earliest pending hold deadline, if any (lets a gateway arm a
    /// precise timer instead of polling blindly).
    pub fn next_deadline(&mut self) -> Option<u64> {
        self.table.next_deadline()
    }

    /// Drains every aggregate (shutdown, or the baseline's burst end),
    /// in slot order, delivering to `sink`, after the packets waiting in
    /// the lookahead ring. With steering the flows stay tracked.
    pub fn flush_all_into(&mut self, sink: &mut impl PacketSink) {
        self.drain_lookahead_into(sink);
        for slot in 0..self.table.slot_count() {
            if let Some((key, p)) = self.take_pending(slot) {
                self.stats.flush_timeout += 1;
                self.finalize_flow(&key, p, sink);
            }
        }
        if self.steer.is_none() {
            // Without steering the table holds merge state only: a drain
            // forgets every flow, so the baseline's burst-end drain leaves
            // it as built.
            self.table.clear();
        }
        // The stash invariant (parked segments belong to live pending
        // flows only) guarantees the per-flow drains above emptied it.
        debug_assert!(self.stash.is_empty(), "stash drained with the table");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_faults::FaultSpec;
    use px_wire::ipv4::Ipv4Repr;
    use px_wire::pool::VecSink;
    use px_wire::tcp::{SeqNum, TcpFlags, TcpRepr, TcpSegment};
    use std::net::Ipv4Addr;

    const SRC: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 2);

    fn data_pkt(port: u16, seq: u32, len: usize) -> Vec<u8> {
        data_pkt_flags(port, seq, len, TcpFlags::ACK)
    }

    fn data_pkt_flags(port: u16, seq: u32, len: usize, flags: TcpFlags) -> Vec<u8> {
        let mut payload = vec![0u8; len];
        px_tcp::fill_pattern(u64::from(seq), &mut payload);
        let repr = TcpRepr {
            src_port: port,
            dst_port: 80,
            seq: SeqNum(seq),
            ack: SeqNum(1),
            flags,
            window: 5000,
            options: vec![],
        };
        let seg = repr.build_segment(SRC, DST, &payload);
        Ipv4Repr::new(SRC, DST, IpProtocol::Tcp, seg.len())
            .build_packet(&seg)
            .unwrap()
    }

    fn ack_pkt(port: u16, seq: u32) -> Vec<u8> {
        let repr = TcpRepr {
            src_port: port,
            dst_port: 80,
            seq: SeqNum(seq),
            ack: SeqNum(1),
            flags: TcpFlags::ACK,
            window: 5000,
            options: vec![],
        };
        let seg = repr.build_segment(SRC, DST, b"");
        Ipv4Repr::new(SRC, DST, IpProtocol::Tcp, seg.len())
            .build_packet(&seg)
            .unwrap()
    }

    /// Pending aggregates the engine holds.
    fn held(eng: &MergeEngine) -> usize {
        eng.aggs.held.iter().filter(|p| p.is_some()).count()
    }

    fn total_payload(pkts: &[Vec<u8>]) -> usize {
        pkts.iter()
            .map(|p| {
                let ip = Ipv4Packet::new_checked(&p[..]).unwrap();
                let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
                tcp.payload().len()
            })
            .sum()
    }

    #[test]
    fn six_segments_become_one_jumbo() {
        let mut eng = MergeEngine::new(MergeConfig::default());
        let mut out = Vec::new();
        let seg_payload = 1460;
        for i in 0..6u32 {
            out.extend(VecSink::collect(|s| {
                eng.push_into(0, &data_pkt(5000, i * seg_payload, seg_payload as usize), s)
            }));
        }
        assert_eq!(
            out.len(),
            1,
            "one full aggregate (6×1460+40 = 8800 ≥ threshold)"
        );
        assert_eq!(out[0].len(), 40 + 6 * 1460);
        assert_eq!(total_payload(&out), 6 * 1460);
        // The merged packet has valid checksums and the pattern intact.
        let ip = Ipv4Packet::new_checked(&out[0][..]).unwrap();
        assert!(ip.verify_checksum());
        let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
        assert!(tcp.verify_checksum(ip.src(), ip.dst()));
        assert_eq!(px_tcp::verify_pattern(0, tcp.payload()), None);
        assert_eq!(eng.stats.flush_full, 1);
    }

    /// The in-place append + cached-partial-sum emission must produce the
    /// same bytes as the rebuild-from-scratch `try_coalesce` oracle.
    #[test]
    fn merged_bytes_match_try_coalesce_oracle() {
        use px_sim::nic::try_coalesce;
        let cfg = MergeConfig::default();
        // Odd payload lengths force the odd-offset partial-sum fold.
        let lens = [999usize, 1, 1460, 7, 512];
        let mut eng = MergeEngine::new(cfg);
        let mut oracle: Option<Vec<u8>> = None;
        let mut seq = 0u32;
        for len in lens {
            let pkt = data_pkt(7000, seq, len);
            oracle = Some(match oracle {
                None => pkt.clone(),
                Some(agg) => try_coalesce(&agg, &pkt, cfg.imtu).expect("oracle coalesces"),
            });
            assert!(
                VecSink::collect(|s| eng.push_into(0, &pkt, s)).is_empty(),
                "held"
            );
            seq += len as u32;
        }
        let out = VecSink::collect(|s| eng.flush_all_into(s));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], oracle.unwrap(), "byte-for-byte identical");
    }

    #[test]
    fn hold_timer_flushes_partial_aggregates() {
        let mut eng = MergeEngine::new(MergeConfig {
            hold_ns: 1000,
            ..Default::default()
        });
        let mut out = VecSink::collect(|s| eng.push_into(0, &data_pkt(5000, 0, 1000), s));
        out.extend(VecSink::collect(|s| {
            eng.push_into(10, &data_pkt(5000, 1000, 1000), s)
        }));
        assert!(out.is_empty(), "held");
        assert!(
            VecSink::collect(|s| eng.poll_into(999, s)).is_empty(),
            "not yet due"
        );
        let flushed = VecSink::collect(|s| eng.poll_into(1001, s));
        assert_eq!(flushed.len(), 1);
        assert_eq!(total_payload(&flushed), 2000);
        assert_eq!(eng.stats.flush_timeout, 1);
    }

    #[test]
    fn control_packets_flush_and_preserve_order() {
        let mut eng = MergeEngine::new(MergeConfig::default());
        let mut out = VecSink::collect(|s| eng.push_into(0, &data_pkt(5000, 0, 1000), s));
        assert!(out.is_empty());
        out.extend(VecSink::collect(|s| {
            eng.push_into(1, &ack_pkt(5000, 1000), s)
        }));
        assert_eq!(out.len(), 2, "aggregate flushed before the ACK");
        assert_eq!(total_payload(&out[..1]), 1000);
        assert_eq!(eng.stats.flush_order, 1);
        assert_eq!(eng.stats.passthrough, 1);
    }

    #[test]
    fn out_of_order_data_parks_in_the_stash() {
        let mut eng = MergeEngine::new(MergeConfig::default());
        eng.push_into(0, &data_pkt(5000, 0, 1000), &mut VecSink::new());
        // Gap: the future segment parks instead of forcing a flush.
        let out = VecSink::collect(|s| eng.push_into(1, &data_pkt(5000, 5000, 1000), s));
        assert!(out.is_empty(), "nothing emitted");
        assert_eq!(eng.table.len(), 1, "aggregate still pending");
        assert_eq!(eng.stats.stashed_segs, 1);
        assert_eq!(eng.stats.flush_order, 0, "no flush on mild reordering");
        // The gap never fills: the flush forwards the aggregate first,
        // then the parked segment, in sequence order.
        let drained = VecSink::collect(|s| eng.flush_all_into(s));
        assert_eq!(drained.len(), 2);
        assert_eq!(total_payload(&drained), 2000);
        assert_eq!(eng.stats.stash_leftovers, 1);
        assert!(eng.stash.is_empty(), "stash drained with the flush");
    }

    /// Satellite regression: a single reordered segment used to flush
    /// the aggregate (`can_append`'s `seq != next_seq` branch), cratering
    /// conversion yield. With the ordered coalescer, a swapped pair
    /// still merges into one full jumbo.
    #[test]
    fn mild_reordering_preserves_merge_yield() {
        let cfg = MergeConfig::default();
        let mut eng = MergeEngine::new(cfg);
        let mut out = Vec::new();
        // Segments 0..6, with the middle pair swapped: 0 1 3 2 4 5.
        for &i in &[0u32, 1, 3, 2, 4, 5] {
            out.extend(VecSink::collect(|s| {
                eng.push_into(0, &data_pkt(5000, i * 1460, 1460), s)
            }));
        }
        assert_eq!(out.len(), 1, "one full aggregate despite the swap");
        assert_eq!(out[0].len(), 40 + 6 * 1460);
        assert_eq!(total_payload(&out), 6 * 1460);
        let ip = Ipv4Packet::new_checked(&out[0][..]).unwrap();
        assert!(ip.verify_checksum());
        let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
        assert!(tcp.verify_checksum(ip.src(), ip.dst()));
        assert_eq!(px_tcp::verify_pattern(0, tcp.payload()), None);
        assert_eq!(eng.stats.stashed_segs, 1, "segment 3 parked");
        assert_eq!(eng.stats.stash_appends, 1, "and coalesced when 2 arrived");
        assert_eq!(eng.stats.flush_order, 0, "no reorder flush");
        assert_eq!(
            eng.stats.conversion_yield(&cfg),
            1.0,
            "full yield under mild reordering"
        );
        assert!(eng.stash.is_empty(), "parked segment consumed");
    }

    #[test]
    fn injected_overlap_is_a_typed_drop() {
        let mut eng = MergeEngine::new(MergeConfig::default());
        eng.enable_obs(px_obs::ObsConfig::default());
        assert!(VecSink::collect(|s| eng.push_into(0, &data_pkt(5000, 0, 1000), s)).is_empty());
        // Same range as held bytes 200..500, but a different fill
        // pattern (seeded differently) — an injection attempt.
        let mut attack = data_pkt(5000, 200, 300);
        {
            // Flip payload bytes and refresh the checksum so the packet
            // is wire-valid (an on-path attacker can do this).
            let ip = Ipv4Packet::new_checked(&attack[..]).unwrap();
            let (ihl, src, dst) = (ip.header_len(), ip.src(), ip.dst());
            for b in &mut attack[ihl + 20..] {
                *b = !*b;
            }
            let seg_len = (attack.len() - ihl) as u16;
            attack[ihl + 16..ihl + 18].copy_from_slice(&[0, 0]);
            let sum = checksum::combine(
                checksum::pseudo_header_sum(src, dst, IpProtocol::Tcp.into(), seg_len),
                checksum::ones_complement_sum(&attack[ihl..]),
            );
            let ck = !sum;
            attack[ihl + 16..ihl + 18].copy_from_slice(&ck.to_be_bytes());
        }
        let out = VecSink::collect(|s| eng.push_into(1, &attack, s));
        assert!(out.is_empty(), "attacker segment never forwarded");
        assert_eq!(eng.stats.dropped_inconsistent_overlap, 1);
        let spans = eng.obs().recent_spans(8);
        assert!(
            spans
                .iter()
                .any(|s| s.cat == SpanCat::Drop && s.aux == drop_reason::INCONSISTENT_OVERLAP),
            "{spans:?}"
        );
        // The legit aggregate is intact and still merges.
        let out = VecSink::collect(|s| eng.push_into(2, &data_pkt(5000, 1000, 1000), s));
        assert!(out.is_empty());
        let drained = VecSink::collect(|s| eng.flush_all_into(s));
        assert_eq!(drained.len(), 1);
        assert_eq!(total_payload(&drained), 2000);
        let ip = Ipv4Packet::new_checked(&drained[0][..]).unwrap();
        let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
        assert_eq!(
            px_tcp::verify_pattern(0, tcp.payload()),
            None,
            "no attacker byte in the emitted stream"
        );
    }

    #[test]
    fn duplicate_retransmission_drops_silently() {
        let mut eng = MergeEngine::new(MergeConfig::default());
        let pkt = data_pkt(5000, 0, 1000);
        assert!(VecSink::collect(|s| eng.push_into(0, &pkt, s)).is_empty());
        assert!(
            VecSink::collect(|s| eng.push_into(1, &pkt, s)).is_empty(),
            "exact duplicate absorbed"
        );
        assert_eq!(eng.stats.dropped_duplicate_segs, 1);
        let out = VecSink::collect(|s| eng.flush_all_into(s));
        assert_eq!(total_payload(&out), 1000, "bytes counted once");
    }

    #[test]
    fn straddling_retransmit_appends_only_the_new_tail() {
        let mut eng = MergeEngine::new(MergeConfig::default());
        assert!(VecSink::collect(|s| eng.push_into(0, &data_pkt(5000, 0, 1000), s)).is_empty());
        // Retransmit covering 500..1500: bytes 500..1000 match what is
        // held (same deterministic fill), 1000..1500 are new.
        assert!(VecSink::collect(|s| eng.push_into(1, &data_pkt(5000, 500, 1000), s)).is_empty());
        let out = VecSink::collect(|s| eng.flush_all_into(s));
        assert_eq!(out.len(), 1);
        assert_eq!(total_payload(&out), 1500, "tail merged once");
        let ip = Ipv4Packet::new_checked(&out[0][..]).unwrap();
        assert!(ip.verify_checksum());
        let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
        assert!(
            tcp.verify_checksum(ip.src(), ip.dst()),
            "checksum covers the trimmed append"
        );
    }

    #[test]
    fn below_window_old_data_forwards_verbatim() {
        let mut eng = MergeEngine::new(MergeConfig::default());
        assert!(
            VecSink::collect(|s| eng.push_into(0, &data_pkt(5000, 10_000, 1000), s)).is_empty()
        );
        let old = data_pkt(5000, 2000, 500);
        let out = VecSink::collect(|s| eng.push_into(1, &old, s));
        assert_eq!(out, vec![old], "old retransmission passes through");
        assert_eq!(eng.stats.below_window_forwarded, 1);
        assert_eq!(eng.table.len(), 1, "aggregate undisturbed");
    }

    #[test]
    fn flows_merge_independently() {
        let mut eng = MergeEngine::new(MergeConfig::default());
        let mut out = Vec::new();
        for i in 0..6u32 {
            out.extend(VecSink::collect(|s| {
                eng.push_into(0, &data_pkt(5000, i * 1460, 1460), s)
            }));
            out.extend(VecSink::collect(|s| {
                eng.push_into(0, &data_pkt(5001, i * 1460, 1460), s)
            }));
        }
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|p| p.len() == 8800));
    }

    #[test]
    fn disabled_hold_emits_immediately() {
        let mut eng = MergeEngine::new(MergeConfig {
            hold_ns: 0,
            ..Default::default()
        });
        let out = VecSink::collect(|s| eng.push_into(0, &data_pkt(5000, 0, 1000), s));
        assert_eq!(out.len(), 1, "no delayed merging: passthrough");
    }

    #[test]
    fn eviction_flushes_victim() {
        let mut eng = MergeEngine::new(MergeConfig {
            table_capacity: 2,
            ..Default::default()
        });
        eng.push_into(0, &data_pkt(5000, 0, 500), &mut VecSink::new());
        eng.push_into(0, &data_pkt(5001, 0, 500), &mut VecSink::new());
        let out = VecSink::collect(|s| eng.push_into(0, &data_pkt(5002, 0, 500), s));
        assert_eq!(out.len(), 1, "LRU victim flushed");
        assert_eq!(eng.stats.flush_evict, 1);
    }

    #[test]
    fn conversion_yield_accounting() {
        let cfg = MergeConfig::default();
        let mut eng = MergeEngine::new(cfg);
        let mut out = Vec::new();
        // One full jumbo + one timed-out runt.
        for i in 0..6u32 {
            out.extend(VecSink::collect(|s| {
                eng.push_into(0, &data_pkt(5000, i * 1460, 1460), s)
            }));
        }
        eng.push_into(0, &data_pkt(6000, 0, 1460), &mut VecSink::new());
        out.extend(VecSink::collect(|s| eng.poll_into(u64::MAX, s)));
        assert_eq!(out.len(), 2);
        let y = eng.stats.conversion_yield(&cfg);
        assert!(
            (y - 0.5).abs() < 1e-9,
            "1 of 2 output packets is jumbo: {y}"
        );
    }

    #[test]
    fn flush_all_drains() {
        let mut eng = MergeEngine::new(MergeConfig::default());
        eng.push_into(0, &data_pkt(5000, 0, 500), &mut VecSink::new());
        eng.push_into(0, &data_pkt(5001, 0, 500), &mut VecSink::new());
        assert_eq!(VecSink::collect(|s| eng.flush_all_into(s)).len(), 2);
        assert_eq!(eng.table.len(), 0);
    }

    #[test]
    fn next_deadline_tracks_earliest() {
        let mut eng = MergeEngine::new(MergeConfig {
            hold_ns: 100,
            ..Default::default()
        });
        assert_eq!(eng.next_deadline(), None);
        eng.push_into(50, &data_pkt(5000, 0, 500), &mut VecSink::new());
        eng.push_into(10, &data_pkt(5001, 0, 500), &mut VecSink::new());
        assert_eq!(eng.next_deadline(), Some(110));
    }

    #[test]
    fn recorder_captures_merge_emissions() {
        let mut eng = MergeEngine::new(MergeConfig::default());
        eng.enable_obs(px_obs::ObsConfig::default());
        for i in 0..6u32 {
            eng.push_into(
                i as u64 * 10,
                &data_pkt(5000, i * 1460, 1460),
                &mut VecSink::new(),
            );
        }
        let spans = eng.obs().recent_spans(64);
        assert!(
            spans.iter().any(|s| s.cat == SpanCat::Merge
                && s.flow == flow_id(5000, 80)
                && (s.start_ns, s.dur_ns, s.aux) == (0, 50, 6)),
            "{spans:?}"
        );
        // Dwell = emission time (t=50) − first segment time (t=0).
        assert_eq!(eng.obs().hists().dwell_ns.max(), 50);
        assert_eq!(eng.obs().hists().out_bytes.count(), 1);
        let timeline = eng.obs().render_recent(8);
        assert!(timeline.contains("merge"), "{timeline}");
    }

    #[test]
    fn pool_exhaustion_degrades_to_passthrough_then_recovers() {
        let mut eng = MergeEngine::new(MergeConfig::default());
        eng.enable_obs(px_obs::ObsConfig::default());
        eng.chassis.pool.set_live_cap(Some(1));
        let got: std::cell::RefCell<Vec<Vec<u8>>> = std::cell::RefCell::new(Vec::new());
        // Flow A pins the pool's only live buffer.
        let mut sink = |b: PacketBuf| {
            got.borrow_mut().push(b.as_slice().to_vec());
            Some(b)
        };
        eng.push_into(0, &data_pkt(5000, 0, 1000), &mut sink);
        assert!(got.borrow().is_empty(), "held");
        // Flow B cannot get a buffer: degraded passthrough, verbatim.
        let orig = data_pkt(6000, 0, 1000);
        eng.push_into(10, &orig, &mut sink);
        assert_eq!(*got.borrow(), vec![orig.clone()], "forwarded unmerged");
        assert!(eng.chassis.is_degraded());
        assert_eq!(eng.stats.degraded_pkts, 1);
        assert_eq!(eng.stats.pool_exhausted, 1);
        assert_eq!(eng.stats.backpressure_drops, 0);
        // The forwarded packet is still protocol-conformant.
        {
            let got = got.borrow();
            let ip = Ipv4Packet::new_checked(&got[0][..]).unwrap();
            assert!(ip.verify_checksum());
            let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
            assert!(tcp.verify_checksum(ip.src(), ip.dst()));
        }
        // Flushing flow A returns its buffer; merging resumes.
        eng.poll_into(u64::MAX, &mut sink);
        assert_eq!(got.borrow().len(), 2);
        eng.push_into(20, &data_pkt(6000, 1000, 1000), &mut sink);
        assert!(
            !eng.chassis.is_degraded(),
            "recovered on next successful creation"
        );
        let cats: Vec<SpanCat> = eng.obs().recent_spans(16).iter().map(|s| s.cat).collect();
        assert!(cats.contains(&SpanCat::DegradeEnter), "{cats:?}");
        assert!(cats.contains(&SpanCat::DegradeExit), "{cats:?}");
        eng.flush_all_into(&mut sink);
        assert_eq!(eng.pool_stats().outstanding(), 0, "no leaked buffers");
    }

    #[test]
    fn injected_pool_dry_walks_the_full_degradation_ladder() {
        let mut eng = MergeEngine::new(MergeConfig::default());
        eng.chassis.set_faults(FaultSpec {
            enabled: true,
            seed: 1,
            pool_dry_ppm: 1_000_000,
            ..FaultSpec::off()
        });
        // Every creation is denied; the spare buffer carries the first
        // packet out. The VecSink behind `push` keeps the buffer, so the
        // second degraded packet hits the last rung: backpressure.
        let p0 = data_pkt(5000, 0, 1000);
        assert_eq!(VecSink::collect(|s| eng.push_into(0, &p0, s)), vec![p0]);
        assert!(VecSink::collect(|s| eng.push_into(1, &data_pkt(5000, 1000, 1000), s)).is_empty());
        assert_eq!(eng.stats.degraded_pkts, 1);
        assert_eq!(eng.stats.backpressure_drops, 1);
        assert_eq!(eng.stats.pool_exhausted, 2);
        assert_eq!(
            eng.pool_stats().outstanding(),
            0,
            "the pool was never touched"
        );
    }

    #[test]
    fn injected_table_deny_degrades_with_its_own_cause() {
        let mut eng = MergeEngine::new(MergeConfig::default());
        eng.enable_obs(px_obs::ObsConfig::default());
        eng.chassis.set_faults(FaultSpec {
            enabled: true,
            seed: 2,
            table_deny_ppm: 1_000_000,
            ..FaultSpec::off()
        });
        let p0 = data_pkt(5000, 0, 1000);
        assert_eq!(VecSink::collect(|s| eng.push_into(0, &p0, s)), vec![p0]);
        assert_eq!(eng.stats.degraded_pkts, 1);
        assert_eq!(
            eng.stats.pool_exhausted, 0,
            "denied by the table, not the pool"
        );
        let enter = eng
            .obs()
            .recent_spans(4)
            .iter()
            .find(|s| s.cat == SpanCat::DegradeEnter)
            .copied()
            .expect("DegradeEnter recorded");
        assert_eq!(enter.aux, 2, "cause = table denial");
    }

    /// Steering on, a sparse flow: every packet hairpins byte-for-byte
    /// and no merge state is touched — no flow-table slot, no pool
    /// aggregate, no merge counters.
    #[test]
    fn steering_hairpins_mice_byte_for_byte() {
        let mut eng = MergeEngine::steered(MergeConfig::default(), SteerConfig::default());
        let got: std::cell::RefCell<Vec<Vec<u8>>> = std::cell::RefCell::new(Vec::new());
        let mut sink = |b: PacketBuf| {
            got.borrow_mut().push(b.as_slice().to_vec());
            Some(b)
        };
        let pkts: Vec<Vec<u8>> = (0..5u32).map(|i| data_pkt(5000, i * 100, 100)).collect();
        for p in &pkts {
            eng.push_into(0, p, &mut sink);
        }
        assert_eq!(*got.borrow(), pkts, "hairpin is verbatim, in order");
        assert_eq!(eng.stats.steered_mice_pkts, 5);
        assert_eq!(eng.stats.pkts_in, 5);
        assert_eq!(eng.stats.data_segs_in, 0, "merge path untouched");
        assert_eq!(eng.stats.passthrough, 0, "steering is its own counter");
        assert_eq!(eng.stats.flush_full + eng.stats.flush_timeout, 0);
        assert_eq!(held(&eng), 0, "no merge state for mice");
        assert_eq!(eng.pool_stats().outstanding(), 0);
        assert_eq!(eng.flows_live(), 1, "the table tracks the mouse");
    }

    /// Steering reads a mouse's headers only: a corrupted payload leaves
    /// byte for byte, uncounted by `bad_checksum` (it was never summed),
    /// and an owned mouse leaves in the allocation it arrived in. The
    /// same corruption on an elephant — a merge candidate — is still
    /// verified, refused and forwarded verbatim.
    #[test]
    fn steered_mice_are_never_summed_but_elephants_are_verified() {
        let corrupt = |mut pkt: Vec<u8>| {
            let last = pkt.len() - 1;
            pkt[last] ^= 0xFF;
            pkt
        };
        // elephant_pkts = 8
        let mut eng = MergeEngine::steered(MergeConfig::default(), SteerConfig::default());
        let mut out = VecSink::new();

        let mouse = corrupt(data_pkt(6000, 0, 500));
        eng.push_into(0, &mouse, &mut out);
        let owned = corrupt(data_pkt(6001, 0, 500));
        let (bytes, addr) = (owned.clone(), owned.as_ptr() as usize);
        eng.push_owned_into(0, owned, None, &mut out);
        assert_eq!(eng.stats.steered_mice_pkts, 2);
        assert_eq!(eng.stats.bad_checksum, 0, "a mouse is never summed");
        assert_eq!(out.pkts, vec![mouse, bytes], "verbatim, in order");
        assert_eq!(
            out.pkts[1].as_ptr() as usize,
            addr,
            "left in its own allocation"
        );
        assert_eq!(
            eng.pool_stats().gets,
            1,
            "only the lent mouse took a buffer"
        );

        // Seven mice promote port 5000; its eighth packet is an elephant.
        for i in 0..7u32 {
            eng.push_into(1, &data_pkt(5000, i * 1000, 1000), &mut out);
        }
        let bad = corrupt(data_pkt(5000, 7000, 1000));
        eng.push_into(2, &bad, &mut out);
        assert_eq!(eng.stats.steered_mice_pkts, 9);
        assert_eq!(eng.stats.bad_checksum, 1, "an elephant is verified");
        assert_eq!(eng.stats.passthrough, 1);
        assert_eq!(out.pkts.last(), Some(&bad), "refused, forwarded verbatim");
        assert_eq!(held(&eng), 0, "nothing merged");
    }

    /// A mid-flow CWR segment is not merged (GRO flushes on CWR too):
    /// the held aggregate leaves first, then the CWR segment verbatim,
    /// and the flow merges again after it.
    #[test]
    fn cwr_flushes_the_aggregate_and_passes_verbatim() {
        let mut eng = MergeEngine::new(MergeConfig::default());
        let mut out = VecSink::new();
        eng.push_into(0, &data_pkt(5000, 0, 1000), &mut out);
        eng.push_into(1, &data_pkt(5000, 1000, 1000), &mut out);
        assert!(out.pkts.is_empty(), "two segments held");
        let mut f = TcpFlags::ACK;
        f.cwr = true;
        let cwr = data_pkt_flags(5000, 2000, 1000, f);
        eng.push_into(2, &cwr, &mut out);
        assert_eq!(eng.stats.flush_order, 1);
        assert_eq!(out.pkts.len(), 2);
        assert_eq!(out.pkts[0].len(), 40 + 2000, "the aggregate first");
        assert_eq!(out.pkts[1], cwr, "then the CWR segment, verbatim");
        eng.push_into(3, &data_pkt(5000, 3000, 1000), &mut out);
        eng.push_into(4, &data_pkt(5000, 4000, 1000), &mut out);
        eng.flush_all_into(&mut out);
        assert_eq!(out.pkts.len(), 3);
        assert_eq!(out.pkts[2].len(), 40 + 2000, "merging resumes");
        assert_eq!(total_payload(&out.pkts), 5000);
    }

    /// ECE is a header gate: segments that disagree on it never share
    /// an aggregate, segments that agree merge and keep it.
    #[test]
    fn ece_mismatch_does_not_merge() {
        let mut ece = TcpFlags::ACK;
        ece.ece = true;
        let flags_of = |pkt: &[u8]| {
            let ip = Ipv4Packet::new_checked(pkt).unwrap();
            TcpSegment::new_checked(ip.payload()).unwrap().flags()
        };
        let mut eng = MergeEngine::new(MergeConfig::default());
        let mut out = VecSink::new();
        eng.push_into(0, &data_pkt(5000, 0, 1000), &mut out);
        eng.push_into(1, &data_pkt_flags(5000, 1000, 1000, ece), &mut out);
        eng.push_into(2, &data_pkt_flags(5000, 2000, 1000, ece), &mut out);
        eng.flush_all_into(&mut out);
        assert_eq!(eng.stats.flush_order, 1, "the ECE segment restarted");
        assert_eq!(out.pkts.len(), 2);
        assert_eq!(out.pkts[0].len(), 40 + 1000);
        assert!(!flags_of(&out.pkts[0]).ece);
        assert_eq!(out.pkts[1].len(), 40 + 2000, "equal ECE merges");
        assert!(flags_of(&out.pkts[1]).ece, "and keeps it");
        assert_eq!(total_payload(&out.pkts), 3000);
    }

    /// Steering on, a bulk flow: the pre-threshold packets hairpin, the
    /// rest merge — and the byte stream is conserved across both paths.
    #[test]
    fn steering_promotes_elephants_into_the_merge_path() {
        let cfg = MergeConfig::default();
        // elephant_pkts = 8
        let mut eng = MergeEngine::steered(cfg, SteerConfig::default());
        let got: std::cell::RefCell<Vec<Vec<u8>>> = std::cell::RefCell::new(Vec::new());
        let mut sink = |b: PacketBuf| {
            got.borrow_mut().push(b.as_slice().to_vec());
            Some(b)
        };
        for i in 0..12u32 {
            eng.push_into(
                u64::from(i) * 10,
                &data_pkt(5000, i * 1460, 1460),
                &mut sink,
            );
        }
        eng.flush_all_into(&mut sink);
        assert_eq!(eng.stats.steered_mice_pkts, 7, "packets 1..7 hairpinned");
        assert_eq!(eng.stats.data_segs_in, 5, "packets 8..12 merged");
        assert_eq!(eng.stats.promotions, 1);
        // Conservation across both paths: every payload byte came out.
        let total_out: usize = total_payload(&got.borrow());
        assert_eq!(total_out, 12 * 1460);
        // The merged tail is one aggregate of the 5 post-promotion
        // segments, contiguous from where the hairpin left off.
        let got = got.borrow();
        assert_eq!(got.len(), 8);
        assert_eq!(got[7].len(), 40 + 5 * 1460);
        let ip = Ipv4Packet::new_checked(&got[7][..]).unwrap();
        assert!(ip.verify_checksum());
        let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
        assert!(tcp.verify_checksum(ip.src(), ip.dst()));
        assert_eq!(tcp.seq().0, 7 * 1460);
        assert_eq!(eng.pool_stats().outstanding(), 0);
    }

    /// With steering every pushed packet costs exactly one table lookup,
    /// whatever it does: a new mouse, tracked mice, the promotion, the
    /// appends, the flush-on-full, a pressure eviction that rescues an
    /// elephant's aggregate, and an idle eviction.
    #[test]
    fn steering_probes_the_table_once_per_packet() {
        // One entry: every new flow evicts.
        let steer = SteerConfig {
            table_capacity: 1,
            ..SteerConfig::default()
        };
        let mut eng = MergeEngine::steered(MergeConfig::default(), steer);
        let mut out = VecSink::new();
        let mut push = |eng: &mut MergeEngine, pkt: &[u8]| {
            let before = eng.table.lookups;
            eng.push_into(0, pkt, &mut out);
            assert_eq!(eng.table.lookups - before, 1, "{:?}", eng.stats);
        };
        // Seven mice, the promotion with its new aggregate, five
        // appends of which the last fills it, and one more held.
        for i in 0..14u32 {
            push(&mut eng, &data_pkt(5000, i * 1460, 1460));
        }
        assert_eq!(eng.stats.steered_mice_pkts, 7);
        assert_eq!(eng.stats.promotions, 1);
        assert_eq!(eng.stats.flush_full, 1);
        assert_eq!(held(&eng), 1);
        // A new mouse finds only the protected elephant: it is evicted
        // under pressure and its aggregate rescue-flushed.
        push(&mut eng, &data_pkt(6000, 0, 100));
        assert_eq!(eng.table.evicted_pressure, 1);
        assert_eq!(eng.stats.flush_evict, 1);
        assert_eq!(held(&eng), 0);
        // The next evicts that idle mouse.
        push(&mut eng, &data_pkt(6001, 0, 100));
        assert_eq!(eng.table.evicted_idle, 1);
        assert_eq!(eng.stats.steered_mice_pkts, 9);
        eng.flush_all_into(&mut out);
        assert_eq!(total_payload(&out.pkts), 14 * 1460 + 200);
    }

    /// Recycling sink: after a full drain nothing may be leaked from the
    /// pool, and the steady-state loop reuses buffers instead of
    /// allocating.
    #[test]
    fn pool_buffers_are_recycled_not_leaked() {
        let mut eng = MergeEngine::new(MergeConfig::default());
        let mut sink = |b: PacketBuf| Some(b); // recycle everything
        for round in 0..50u32 {
            for i in 0..6u32 {
                eng.push_into(0, &data_pkt(5000, round * 8760 + i * 1460, 1460), &mut sink);
            }
        }
        eng.flush_all_into(&mut sink);
        assert_eq!(eng.pool_stats().outstanding(), 0, "no leaked buffers");
        // One buffer per concurrent aggregate, not per packet.
        assert!(
            eng.pool_stats().allocated <= 4,
            "steady state allocates nothing: {:?}",
            eng.pool_stats()
        );
    }
}
