//! A recycling pool of [`PacketBuf`]s and the sink trait the datapath
//! engines emit through.
//!
//! The PXGW hot loop (merge, split, caravan) must not touch the global
//! allocator per packet: §3/§4 of the paper put the gateway on the
//! 400 GbE fast path, where an allocator round-trip per packet is the
//! difference between line rate and not. [`BufPool`] keeps a LIFO
//! freelist of headroom-preserving buffers (LIFO so the hottest buffer —
//! the one most likely still in cache — is reused first, the same
//! policy as DPDK mempool caches and the kernel's per-CPU page caches).
//!
//! Emission is *sink-based*: instead of `push(..) -> Vec<Vec<u8>>`
//! (one `Vec` per output packet plus the collection itself), engines
//! call [`PacketSink::accept`] per output packet. The sink either keeps
//! the buffer (ownership transfer, e.g. [`VecSink`], which collects
//! whole packets for tests and the fragmenter) or hands it straight
//! back so the caller can [`BufPool::put`] it — the zero-allocation
//! steady state.

use crate::buffer::{PacketBuf, DEFAULT_HEADROOM};
use std::cell::Cell;
#[cfg(debug_assertions)]
use std::collections::HashSet;

/// Pool occupancy / traffic counters, for leak checks and bench
/// reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers created fresh because the freelist was empty.
    pub allocated: u64,
    /// Buffers handed out (fresh + recycled).
    pub gets: u64,
    /// Buffers returned.
    pub puts: u64,
    /// Returned buffers dropped because the freelist was at capacity.
    pub dropped: u64,
    /// [`BufPool::try_get`] calls that found the pool exhausted (the
    /// degradation trigger — see DESIGN.md §12).
    pub exhausted: u64,
}

impl PoolStats {
    /// Buffers handed out and not yet returned. Sinks that keep buffers
    /// (e.g. [`VecSink`]) legitimately hold these; after a full flush
    /// with a recycling sink this must be zero — the leak invariant the
    /// pool tests assert.
    pub fn outstanding(&self) -> u64 {
        self.gets - self.puts - self.dropped
    }
}

/// A LIFO freelist of recycled [`PacketBuf`]s.
///
/// Every buffer handed out has `headroom` bytes reserved in front (so
/// encapsulation never copies) and a backing allocation sized for
/// `headroom + payload_capacity` bytes (so appends up to the configured
/// payload size never reallocate). In debug builds the pool tracks the
/// base address of every parked buffer and panics on a double-`put`.
#[derive(Debug)]
pub struct BufPool {
    free: Vec<PacketBuf>,
    headroom: usize,
    capacity: usize,
    max_free: usize,
    /// Optional cap on buffers live at once (outstanding + parked
    /// fresh allocations). `None` = unbounded, the historical behavior;
    /// `Some(n)` makes [`BufPool::try_get`] report exhaustion instead
    /// of allocating past `n` — how tests and the chaos harness model a
    /// finite mempool.
    live_cap: Option<u64>,
    /// Occupancy and traffic counters.
    pub stats: PoolStats,
    #[cfg(debug_assertions)]
    parked: HashSet<usize>,
}

impl BufPool {
    /// Creates a pool of buffers with `headroom` front bytes and room
    /// for `payload_capacity` payload bytes, keeping at most `max_free`
    /// buffers parked.
    pub fn new(headroom: usize, payload_capacity: usize, max_free: usize) -> Self {
        BufPool {
            free: Vec::new(),
            headroom,
            capacity: headroom + payload_capacity,
            max_free,
            live_cap: None,
            stats: PoolStats::default(),
            #[cfg(debug_assertions)]
            parked: HashSet::new(),
        }
    }

    /// A pool sized for one jumbo packet plus encapsulation headroom —
    /// the configuration every PXGW engine uses.
    pub fn for_mtu(imtu: usize, max_free: usize) -> Self {
        BufPool::new(DEFAULT_HEADROOM, imtu, max_free)
    }

    /// Fills the freelist with up to `n` freshly allocated parked
    /// buffers (never past `max_free`). Warming the pool at setup time
    /// moves the first high-water excursion's allocations out of the
    /// hot path, so steady-state traffic — including flow-scale soaks
    /// that ratchet the concurrent-aggregate peak slowly — recycles
    /// from the first packet on.
    pub fn prewarm(&mut self, n: usize) {
        let target = n.min(self.max_free);
        while self.free.len() < target {
            // Booked as an alloc plus an immediate get/put round trip so
            // `outstanding()` stays balanced.
            self.stats.allocated += 1;
            self.stats.gets += 1;
            self.stats.puts += 1;
            let buf = PacketBuf::with_capacity(self.headroom, self.capacity);
            #[cfg(debug_assertions)]
            self.parked.insert(buf.base_addr());
            self.free.push(buf);
        }
    }

    /// The headroom every handed-out buffer starts with.
    pub fn headroom(&self) -> usize {
        self.headroom
    }

    /// Buffers currently parked on the freelist.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// [`PoolStats::outstanding`] of this pool.
    pub fn outstanding(&self) -> u64 {
        self.stats.outstanding()
    }

    /// Caps the number of buffers that may be live at once (see
    /// [`BufPool::try_get`]). `None` removes the cap.
    pub fn set_live_cap(&mut self, cap: Option<u64>) {
        self.live_cap = cap;
    }

    /// The configured live-buffer cap, if any.
    pub fn live_cap(&self) -> Option<u64> {
        self.live_cap
    }

    /// Like [`BufPool::get`], but refuses to grow past the live-buffer
    /// cap: when the freelist is empty and `outstanding()` has reached
    /// `live_cap`, returns `None` and counts the exhaustion instead of
    /// allocating. With no cap set this never fails.
    ///
    /// This is the degradation trigger: engines fall back to
    /// passthrough forwarding (never drop) when it fires.
    pub fn try_get(&mut self) -> Option<PacketBuf> {
        if self.free.is_empty() {
            if let Some(cap) = self.live_cap {
                if self.outstanding() >= cap {
                    self.stats.exhausted += 1;
                    return None;
                }
            }
        }
        Some(self.get())
    }

    /// Hands out a buffer: the most recently returned one if available
    /// (LIFO — warmest first), else a fresh allocation.
    pub fn get(&mut self) -> PacketBuf {
        self.stats.gets += 1;
        match self.free.pop() {
            Some(buf) => {
                #[cfg(debug_assertions)]
                self.parked.remove(&buf.base_addr());
                buf
            }
            None => {
                self.stats.allocated += 1;
                PacketBuf::with_capacity(self.headroom, self.capacity)
            }
        }
    }

    /// Returns a buffer to the pool, resetting it to empty-with-headroom
    /// while keeping its backing allocation. Buffers beyond `max_free`
    /// are dropped (freed) rather than parked.
    ///
    /// In debug builds, returning the same buffer twice panics — the
    /// datapath equivalent of a double-free.
    pub fn put(&mut self, mut buf: PacketBuf) {
        #[cfg(debug_assertions)]
        {
            if buf.capacity() > 0 {
                assert!(
                    self.parked.insert(buf.base_addr()),
                    "BufPool: double put of buffer at {:#x}",
                    buf.base_addr()
                );
            }
        }
        if self.free.len() >= self.max_free {
            self.stats.dropped += 1;
            #[cfg(debug_assertions)]
            self.parked.remove(&buf.base_addr());
            return;
        }
        self.stats.puts += 1;
        buf.reset(self.headroom);
        self.free.push(buf);
    }
}

/// A live-view counter for scatter-gather packets sharing one backing
/// jumbo buffer.
///
/// The zero-copy split path hands out [`SgPacket`] views whose payload
/// slices borrow the jumbo being split. Rust's borrow checker already
/// guarantees no view outlives the jumbo; the counter makes the
/// lifecycle *observable*: the owner recycles the jumbo's buffer only
/// once `views()` has returned to zero, and the pool leak tests assert
/// exactly that. Single-threaded by design (a `Cell`, not an atomic) —
/// each engine splits on its own core, like the rest of the datapath.
#[derive(Debug, Default)]
pub struct SgRc(Cell<usize>);

impl SgRc {
    /// A counter with no live views.
    pub fn new() -> Self {
        SgRc(Cell::new(0))
    }

    /// Number of [`SgPacket`] views currently alive against this
    /// counter.
    pub fn views(&self) -> usize {
        self.0.get()
    }

    fn inc(&self) {
        self.0.set(self.0.get() + 1);
    }

    fn dec(&self) {
        debug_assert!(self.0.get() > 0, "SgRc underflow");
        self.0.set(self.0.get().saturating_sub(1));
    }
}

/// A scatter-gather output packet: a pooled header segment plus a
/// payload slice borrowed from the jumbo being split.
///
/// This is the zero-copy emission unit of the split engine. The header
/// segment holds the rewritten IP+TCP headers (tens of bytes, built
/// fresh per output packet); the payload is a view into the input
/// jumbo — its bytes are never copied unless a sink without a
/// [`PacketSink::push_sg`] override materialises the view. Dropping the
/// view decrements its [`SgRc`], signalling the jumbo's owner when the
/// backing buffer may be recycled.
#[derive(Debug)]
pub struct SgPacket<'a> {
    /// Rewritten headers; `None` once a sink has taken it.
    header: Option<PacketBuf>,
    payload: &'a [u8],
    rc: Option<&'a SgRc>,
}

impl<'a> SgPacket<'a> {
    /// Builds a view and registers it with `rc`.
    pub fn new(header: PacketBuf, payload: &'a [u8], rc: &'a SgRc) -> Self {
        rc.inc();
        SgPacket {
            header: Some(header),
            payload,
            rc: Some(rc),
        }
    }

    /// Builds an untracked view (tests and one-shot callers with no
    /// recycle decision to make).
    pub fn untracked(header: PacketBuf, payload: &'a [u8]) -> Self {
        SgPacket {
            header: Some(header),
            payload,
            rc: None,
        }
    }

    /// The header segment's live bytes (empty once taken, or for
    /// pass-through views that are all payload).
    pub fn header(&self) -> &[u8] {
        self.header.as_ref().map_or(&[], |h| h.as_slice())
    }

    /// The borrowed payload slice.
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// Total wire length of the packet this view represents.
    pub fn total_len(&self) -> usize {
        self.header.as_ref().map_or(0, |h| h.len()) + self.payload.len()
    }

    /// Detaches the header segment so the sink can fill or recycle it.
    /// The view stays alive (and keeps its `rc` registration) until
    /// dropped.
    pub fn take_header(&mut self) -> PacketBuf {
        debug_assert!(self.header.is_some(), "SgPacket header taken twice");
        self.header
            .take()
            .unwrap_or_else(|| PacketBuf::with_headroom(0))
    }
}

impl Drop for SgPacket<'_> {
    fn drop(&mut self) {
        if let Some(rc) = self.rc {
            rc.dec();
        }
    }
}

/// Pairs a jumbo's backing buffer with its view counter: the owner-side
/// handle of the scatter-gather lifecycle. Callers split out of
/// `bytes()`, hand `rc()` to the splitter, and reclaim the buffer with
/// [`SgSource::into_buf`] once emission is done.
#[derive(Debug)]
pub struct SgSource {
    buf: PacketBuf,
    rc: SgRc,
}

impl SgSource {
    /// Wraps a filled jumbo buffer.
    pub fn new(buf: PacketBuf) -> Self {
        SgSource {
            buf,
            rc: SgRc::new(),
        }
    }

    /// The jumbo's live bytes (what gets split).
    pub fn bytes(&self) -> &[u8] {
        self.buf.as_slice()
    }

    /// The view counter to register [`SgPacket`]s against.
    pub fn rc(&self) -> &SgRc {
        &self.rc
    }

    /// Live views against this source.
    pub fn views(&self) -> usize {
        self.rc.views()
    }

    /// Reclaims the backing buffer for pool recycling. Debug-asserts
    /// that every view has been dropped — the "recycle only after the
    /// last view" invariant.
    pub fn into_buf(self) -> PacketBuf {
        debug_assert_eq!(self.rc.views(), 0, "SgSource reclaimed with live views");
        self.buf
    }
}

/// Where engines deliver output packets.
///
/// `accept` consumes one finished packet. Returning `Some(buf)` hands
/// the buffer back to the caller for recycling (the sink copied or
/// hashed what it needed); returning `None` keeps ownership (the sink
/// converted the buffer into its own representation).
pub trait PacketSink {
    /// Delivers one output packet.
    fn accept(&mut self, buf: PacketBuf) -> Option<PacketBuf>;

    /// Delivers one scatter-gather output packet.
    ///
    /// The default implementation materialises the view — appends the
    /// payload into the header segment and routes through
    /// [`PacketSink::accept`] — so every existing sink keeps working
    /// unchanged. Sinks on the hot path override this to consume the
    /// header and payload segments separately, which is what makes the
    /// split emission path copy-free end to end.
    fn push_sg(&mut self, mut pkt: SgPacket<'_>) -> Option<PacketBuf> {
        // px-analyze: allow(R3, reason = "taking the header may rebuild headroom when the view was constructed without a pool buffer; hot-path sinks never route through this default")
        let mut buf = pkt.take_header();
        // px-analyze: allow(R7, reason = "compatibility default for sinks without native SG support; every hot-path sink overrides this with a segment-aware version")
        buf.extend_from_slice(pkt.payload());
        self.accept(buf)
    }
}

/// Closures `FnMut(PacketBuf) -> Option<PacketBuf>` are sinks.
impl<F: FnMut(PacketBuf) -> Option<PacketBuf>> PacketSink for F {
    fn accept(&mut self, buf: PacketBuf) -> Option<PacketBuf> {
        self(buf)
    }
}

/// A sink that collects output packets into `Vec<Vec<u8>>` — what
/// [`frag::fragment`](crate::frag::fragment), the NIC TSO model, tests
/// and benches use to look at whole output packets. Keeps each buffer
/// (converted in place via [`PacketBuf::into_vec`]): one `Vec` per
/// packet is its contract, so it never sits on a hot path.
#[derive(Debug, Default)]
pub struct VecSink {
    /// The packets collected so far, in emission order.
    pub pkts: Vec<Vec<u8>>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Consumes the sink, returning the collected packets.
    pub fn into_pkts(self) -> Vec<Vec<u8>> {
        self.pkts
    }

    /// Everything `emit` delivers to the fresh sink it is handed — how
    /// tests and benches look at whole output packets:
    /// `VecSink::collect(|s| eng.push_into(now, &pkt, s))`.
    pub fn collect(emit: impl FnOnce(&mut VecSink)) -> Vec<Vec<u8>> {
        let mut sink = VecSink::new();
        emit(&mut sink);
        sink.into_pkts()
    }
}

impl PacketSink for VecSink {
    fn accept(&mut self, buf: PacketBuf) -> Option<PacketBuf> {
        self.pkts.push(buf.into_vec());
        None
    }

    /// Scatter-gather delivery with exactly one copy: header and payload
    /// segments land directly in a right-sized `Vec`, and the header
    /// buffer goes straight back to the caller for recycling. (The
    /// default would copy the payload into the header buffer *and* then
    /// convert that buffer — the double-copy this override removes.)
    fn push_sg(&mut self, mut pkt: SgPacket<'_>) -> Option<PacketBuf> {
        // px-analyze: allow(R3, reason = "taking the header may rebuild headroom for pool-less views; the shim exists to hand out Vecs, not to stay alloc-free")
        let header = pkt.take_header();
        // px-analyze: allow(R3, reason = "VecSink hands out Vecs: one exactly-sized Vec per packet is its contract")
        let mut out = Vec::with_capacity(header.len() + pkt.payload().len());
        // px-analyze: allow(R7, reason = "the shim's single contracted copy: header lands in the caller-visible Vec")
        out.extend_from_slice(header.as_slice());
        // px-analyze: allow(R7, reason = "the shim's single contracted copy: payload lands in the caller-visible Vec")
        out.extend_from_slice(pkt.payload());
        self.pkts.push(out);
        Some(header)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_reuses_lifo() {
        let mut pool = BufPool::new(16, 128, 8);
        let a = pool.get();
        let addr_a = a.base_addr();
        pool.put(a);
        let b = pool.get();
        assert_eq!(b.base_addr(), addr_a, "LIFO must reuse the last buffer");
        assert_eq!(pool.stats.allocated, 1);
        assert_eq!(pool.stats.gets, 2);
        pool.put(b);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn recycled_buffer_is_reset() {
        let mut pool = BufPool::new(16, 128, 8);
        let mut a = pool.get();
        a.extend_from_slice(b"stale payload");
        a.push_front(&[1, 2, 3]);
        pool.put(a);
        let b = pool.get();
        assert_eq!(b.len(), 0);
        assert_eq!(b.headroom(), 16);
    }

    #[test]
    fn freelist_capacity_bounds_parked_buffers() {
        let mut pool = BufPool::new(8, 64, 2);
        let bufs: Vec<_> = (0..4).map(|_| pool.get()).collect();
        for b in bufs {
            pool.put(b);
        }
        assert_eq!(pool.free_len(), 2);
        assert_eq!(pool.stats.dropped, 2);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn no_realloc_within_capacity() {
        let mut pool = BufPool::new(16, 256, 4);
        let mut b = pool.get();
        let addr = b.base_addr();
        b.extend_from_slice(&[0xAB; 256]);
        b.push_front(&[0; 16]);
        assert_eq!(b.base_addr(), addr, "append within capacity must not move");
        pool.put(b);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn parked_tracking_matches_freelist() {
        // `put` consumes the buffer, so safe callers cannot alias one
        // allocation — the debug set guards the pool's own bookkeeping:
        // every parked buffer is tracked, every handed-out one is not.
        let mut pool = BufPool::new(8, 64, 8);
        let bufs: Vec<_> = (0..3).map(|_| pool.get()).collect();
        assert_eq!(pool.parked.len(), 0);
        for b in bufs {
            pool.put(b);
        }
        assert_eq!(pool.parked.len(), pool.free_len());
        let _b = pool.get();
        assert_eq!(pool.parked.len(), pool.free_len());
    }

    #[test]
    fn try_get_honors_the_live_cap() {
        let mut pool = BufPool::new(8, 64, 8);
        pool.set_live_cap(Some(2));
        assert_eq!(pool.live_cap(), Some(2));
        let a = pool.try_get().expect("first under cap");
        let b = pool.try_get().expect("second under cap");
        assert!(pool.try_get().is_none(), "cap reached");
        assert!(pool.try_get().is_none());
        assert_eq!(pool.stats.exhausted, 2);
        // A return makes the freelist non-empty again: try_get recovers.
        pool.put(a);
        let c = pool.try_get().expect("recovered after put");
        pool.put(b);
        pool.put(c);
        assert_eq!(pool.outstanding(), 0);
        // Uncapped pools never report exhaustion.
        pool.set_live_cap(None);
        let bufs: Vec<_> = (0..16).map(|_| pool.try_get().unwrap()).collect();
        for b in bufs {
            pool.put(b);
        }
        assert_eq!(pool.stats.exhausted, 2, "unchanged");
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink = VecSink::new();
        let mut a = PacketBuf::with_headroom(4);
        a.extend_from_slice(b"one");
        let mut b = PacketBuf::with_headroom(4);
        b.extend_from_slice(b"two");
        assert!(sink.accept(a).is_none());
        assert!(sink.accept(b).is_none());
        assert_eq!(sink.into_pkts(), vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn sg_default_sink_materialises() {
        // A sink with no push_sg override sees one flat packet,
        // byte-identical to header || payload.
        let mut pool = BufPool::new(8, 64, 8);
        let rc = SgRc::new();
        let jumbo = [7u8; 32];
        let mut hdr = pool.get();
        hdr.extend_from_slice(b"HD");
        let mut got: Vec<Vec<u8>> = Vec::new();
        {
            let mut sink = |b: PacketBuf| {
                got.push(b.as_slice().to_vec());
                Some(b)
            };
            let view = SgPacket::new(hdr, &jumbo[4..12], &rc);
            assert_eq!(rc.views(), 1);
            assert_eq!(view.total_len(), 10);
            if let Some(b) = sink.push_sg(view) {
                pool.put(b);
            }
        }
        assert_eq!(rc.views(), 0, "view dropped inside push_sg scope");
        assert_eq!(got, vec![b"HD\x07\x07\x07\x07\x07\x07\x07\x07".to_vec()]);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn vec_sink_push_sg_single_copies_and_returns_the_header() {
        let mut pool = BufPool::new(8, 64, 8);
        let rc = SgRc::new();
        let payload = [9u8; 5];
        let mut hdr = pool.get();
        hdr.extend_from_slice(b"hdr!");
        let mut sink = VecSink::new();
        let back = sink.push_sg(SgPacket::new(hdr, &payload, &rc));
        let b = back.expect("VecSink hands the header segment back");
        pool.put(b);
        assert_eq!(rc.views(), 0);
        assert_eq!(pool.outstanding(), 0, "header recycled, nothing kept");
        assert_eq!(sink.into_pkts(), vec![b"hdr!\x09\x09\x09\x09\x09".to_vec()]);
    }

    #[test]
    fn sg_source_recycles_the_jumbo_exactly_once_after_views_drop() {
        let mut pool = BufPool::new(8, 256, 8);
        let mut jumbo = pool.get();
        jumbo.extend_from_slice(&[0x55; 200]);
        let jumbo_addr = jumbo.base_addr();
        let src = SgSource::new(jumbo);
        {
            // Three concurrent views over disjoint payload ranges.
            let views: Vec<SgPacket<'_>> = (0..3)
                .map(|i| {
                    let mut h = pool.get();
                    h.extend_from_slice(&[i as u8]);
                    SgPacket::new(h, &src.bytes()[i * 50..(i + 1) * 50], src.rc())
                })
                .collect();
            assert_eq!(src.views(), 3);
            for mut v in views {
                pool.put(v.take_header());
            }
        }
        assert_eq!(src.views(), 0, "all views dropped");
        let puts_before = pool.stats.puts;
        pool.put(src.into_buf());
        assert_eq!(pool.stats.puts, puts_before + 1, "jumbo recycled once");
        assert_eq!(pool.outstanding(), 0, "no leaks");
        // The recycled jumbo is the next buffer handed out (LIFO).
        let again = pool.get();
        assert_eq!(again.base_addr(), jumbo_addr);
        pool.put(again);
    }

    #[test]
    fn untracked_views_and_empty_headers_work() {
        let payload = b"all payload";
        let mut view = SgPacket::untracked(PacketBuf::with_headroom(0), payload);
        assert_eq!(view.header(), b"");
        assert_eq!(view.total_len(), payload.len());
        let mut sink = VecSink::new();
        let _ = sink.push_sg(SgPacket::untracked(view.take_header(), payload));
        assert_eq!(sink.into_pkts(), vec![payload.to_vec()]);
    }

    #[test]
    fn closure_is_a_sink() {
        let mut seen = 0usize;
        let mut pool = BufPool::new(8, 64, 8);
        let buf = pool.get();
        {
            let mut sink = |b: PacketBuf| {
                seen += b.len();
                Some(b)
            };
            if let Some(b) = sink.accept(buf) {
                pool.put(b);
            }
        }
        assert_eq!(seen, 0);
        assert_eq!(pool.outstanding(), 0);
    }
}
