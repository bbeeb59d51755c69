//! The chassis under the two hold engines.
//!
//! [`MergeEngine`](crate::merge::MergeEngine) and
//! [`CaravanEngine`](crate::caravan_gw::CaravanEngine) are one
//! mechanism (PAPER.md §1): hold a flow's bytes in a pooled buffer for
//! `hold_ns`, flush on timer, eviction or "full". Everything that
//! mechanism needs besides the flow table lives here, once: the output
//! [`BufPool`], the pool-independent spare buffer, the fault gate and
//! degradation ladder in front of every hold creation (DESIGN.md §12),
//! the [`Recorder`], the logical clock and the span-link sequence. An
//! engine embeds one [`Chassis`] by value and keeps only what differs —
//! its `FlowTable`, its stats, its emit records.
//!
//! [`SplitEngine`](crate::split::SplitEngine) deliberately does not sit
//! on one: it holds nothing and has no ladder, so sharing would make
//! this code branch on its caller.

use px_faults::{cause, hash_bytes, FaultSpec, PlannedFaults};
use px_obs::{Recorder, Span, SpanCat};
use px_wire::pool::{BufPool, PacketSink};
use px_wire::PacketBuf;

/// The ladder's three counters, lent for one [`Chassis::acquire`] by
/// the engine whose public stats own them (`MergeStats` /
/// `CaravanStats` keep the fields; the ladder that bumps them is one).
pub(crate) struct LadderCounts<'a> {
    /// Packets forwarded unmerged through the spare buffer.
    pub degraded_pkts: &'a mut u64,
    /// Creations refused for want of a pool buffer (real or injected).
    pub pool_exhausted: &'a mut u64,
    /// Degraded packets dropped because even the spare was gone.
    pub backpressure_drops: &'a mut u64,
}

/// What a hold engine stands on. See the module docs.
#[derive(Debug)]
pub(crate) struct Chassis {
    imtu: usize,
    /// The output pool: engines draw and return buffers directly; only
    /// hold creation must go through [`Chassis::acquire`].
    pub(crate) pool: BufPool,
    /// Emergency buffer for degraded passthrough, owned outside the
    /// pool so it exists precisely when the pool is dry. Restored when
    /// the sink recycles it; a sink that keeps it leaves subsequent
    /// degraded packets to the backpressure counter.
    spare: Option<PacketBuf>,
    /// Resource-fault injector ([`PlannedFaults::off`] in production:
    /// one predicted branch per hold creation).
    faults: PlannedFaults,
    /// Whether the engine is currently in degraded (passthrough) mode —
    /// drives the `DegradeEnter`/`DegradeExit` edge spans.
    degraded: bool,
    /// Span recorder + histograms (disabled by default — zero cost).
    pub(crate) obs: Recorder,
    /// Logical time of the most recent arrival or real poll tick, used
    /// to stamp emission spans deterministically.
    last_now: u64,
    /// The last causal link id a `Merge` / `Caravan` span took; the
    /// next takes this plus one. Deterministic: driven purely by
    /// emission order, never by wall clock. A driver starts it at a
    /// per-core base (the threaded engine uses `(core + 1) << 48`, so
    /// merge→split links from different cores never collide and stay
    /// nonzero — 0 means "unlinked" in the trace export).
    pub(crate) last_link: u64,
}

impl Chassis {
    /// A chassis whose pool and spare hold packets up to `imtu` bytes.
    pub(crate) fn new(imtu: usize) -> Self {
        let pool = BufPool::for_mtu(imtu, 256);
        let spare = PacketBuf::with_capacity(pool.headroom(), pool.headroom() + imtu);
        Chassis {
            imtu,
            pool,
            spare: Some(spare),
            faults: PlannedFaults::off(),
            degraded: false,
            obs: Recorder::default(),
            last_now: 0,
            last_link: 0,
        }
    }

    /// Arms (or disarms, with [`FaultSpec::off`]) resource-fault
    /// injection.
    pub(crate) fn set_faults(&mut self, spec: FaultSpec) {
        self.faults = PlannedFaults::new(spec);
    }

    /// The causal link id of the emission being recorded.
    pub(crate) fn next_link(&mut self) -> u64 {
        self.last_link += 1;
        self.last_link
    }

    /// Re-sizes the pool's parked-buffer cap (how many recycled buffers
    /// are kept for reuse). Large live-flow counts want this raised to
    /// the concurrent-hold ceiling so the steady state stays
    /// allocation-free. Must be called before any traffic.
    pub(crate) fn set_pool_bufs(&mut self, max_free: usize) {
        debug_assert_eq!(self.pool.outstanding(), 0, "resize only while idle");
        self.pool = BufPool::for_mtu(self.imtu, max_free);
        // Park the whole allowance up front: the first excursion to the
        // concurrent-hold peak then recycles instead of allocating.
        self.pool.prewarm(max_free);
    }

    /// Whether the engine is currently degraded to passthrough.
    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The logical time emission spans are stamped with.
    pub(crate) fn now(&self) -> u64 {
        self.last_now
    }

    /// One input packet arrived: stamps the clock and records its
    /// `Classify` span (`flow` is `Some` when the packet classified as
    /// one the engine holds; aux 1 = keyed, 0 = not). Exactly one per
    /// input — the span-conservation property test pins
    /// `count(Classify) == pkts_in` per core.
    pub(crate) fn arrive(&mut self, now: u64, len: usize, flow: Option<u32>) {
        self.last_now = now;
        if self.obs.is_enabled() {
            let keyed = u64::from(flow.is_some());
            let span = Span::instant(SpanCat::Classify, now, len, flow.unwrap_or(0), keyed);
            self.obs.record(span);
        }
    }

    /// A hold-timer poll at `now`. The end-of-run drain polls with a
    /// `u64::MAX` sentinel to expire every timer; the last *real*
    /// timestamp is kept for dwell/span accounting so drained holds
    /// don't report astronomical dwells.
    pub(crate) fn poll_tick(&mut self, now: u64) {
        if now != u64::MAX {
            self.last_now = now;
        }
    }

    /// A pool buffer holding a copy of `pkt`.
    pub(crate) fn copy_in(&mut self, pkt: &[u8]) -> PacketBuf {
        let mut buf = self.pool.get();
        buf.extend_from_slice(pkt);
        buf
    }

    /// Hands a finished packet to the sink and recycles the buffer if
    /// the sink returns it.
    pub(crate) fn emit(&mut self, buf: PacketBuf, sink: &mut impl PacketSink) {
        if let Some(b) = sink.accept(buf) {
            self.pool.put(b);
        }
    }

    /// Forwards an input packet untouched.
    pub(crate) fn forward(&mut self, pkt: &[u8], sink: &mut impl PacketSink) {
        let buf = self.copy_in(pkt);
        self.emit(buf, sink);
    }

    /// Claims the pooled buffer a new hold lives in, already carrying
    /// `pkt`. Hold creation is the resource-pressure point: it is the
    /// only step that pins a pool buffer and a flow-table slot for
    /// longer than one call. An injected verdict ([`cause::POOL`] /
    /// [`cause::TABLE`]) or real pool exhaustion degrades to
    /// passthrough here — `pkt` goes to `sink` unmerged, never dropped
    /// while the spare lasts — and `None` tells the engine it is done
    /// with the packet.
    #[inline]
    pub(crate) fn acquire(
        &mut self,
        now: u64,
        pkt: &[u8],
        flow: u32,
        counts: LadderCounts<'_>,
        sink: &mut impl PacketSink,
    ) -> Option<PacketBuf> {
        let mut denied = None;
        if self.faults.spec.enabled {
            let pkt_hash = hash_bytes(pkt);
            if self.faults.pool_dry(pkt_hash) {
                denied = Some(cause::POOL);
            } else if self.faults.table_deny(pkt_hash) {
                denied = Some(cause::TABLE);
            }
        }
        let granted = match denied {
            None => self.pool.try_get(),
            Some(_) => None,
        };
        let Some(mut buf) = granted else {
            let cause_code = denied.unwrap_or(cause::POOL);
            self.degrade_forward(now, pkt, flow, cause_code, counts, sink);
            return None;
        };
        self.degrade_exit(now);
        buf.extend_from_slice(pkt);
        Some(buf)
    }

    /// Degraded passthrough: a hold could not be created, so the packet
    /// is forwarded unmerged through the pool-independent spare buffer
    /// — the byte stream stays correct, only the merge benefit is lost.
    /// Never allocates and never panics (px-analyze R6); when even the
    /// spare is gone the packet is dropped and counted as backpressure.
    fn degrade_forward(
        &mut self,
        now: u64,
        pkt: &[u8],
        flow: u32,
        cause_code: u64,
        counts: LadderCounts<'_>,
        sink: &mut impl PacketSink,
    ) {
        // One Degrade span per degraded packet: the conservation test
        // pins `count(Degrade) == degraded_pkts + backpressure_drops`.
        let span = Span::instant(SpanCat::Degrade, now, pkt.len(), flow, cause_code);
        if !self.degraded {
            self.degraded = true;
            self.obs.record(Span {
                cat: SpanCat::DegradeEnter,
                ..span
            });
        }
        self.obs.record(span);
        if cause_code == cause::POOL {
            *counts.pool_exhausted += 1;
        }
        match self.spare.take() {
            Some(mut buf) if pkt.len() <= self.imtu => {
                *counts.degraded_pkts += 1;
                buf.extend_from_slice(pkt);
                if let Some(mut b) = sink.accept(buf) {
                    b.reset(self.pool.headroom());
                    self.spare = Some(b);
                }
            }
            kept => {
                self.spare = kept;
                *counts.backpressure_drops += 1;
            }
        }
    }

    /// Leaves degraded mode on the first hold creation that succeeds
    /// again (per-attempt hysteresis: pressure is over exactly when the
    /// resource that was denied is granted).
    fn degrade_exit(&mut self, now: u64) {
        if self.degraded {
            self.degraded = false;
            self.obs
                .record(Span::instant(SpanCat::DegradeExit, now, 0, 0, 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_wire::pool::VecSink;

    /// An engine's three ladder fields, standing in for
    /// `MergeStats` / `CaravanStats`.
    #[derive(Default)]
    struct Counts {
        degraded_pkts: u64,
        pool_exhausted: u64,
        backpressure_drops: u64,
    }

    impl Counts {
        fn lend(&mut self) -> LadderCounts<'_> {
            LadderCounts {
                degraded_pkts: &mut self.degraded_pkts,
                pool_exhausted: &mut self.pool_exhausted,
                backpressure_drops: &mut self.backpressure_drops,
            }
        }
    }

    /// The ladder on its own, no engine around it: pool dry → the spare
    /// forwards and `DegradeEnter` fires once → a keeping sink loses
    /// the spare → backpressure → the first successful `acquire`
    /// records `DegradeExit`; and throughout, one `Degrade` span per
    /// degraded packet, forwarded or dropped.
    #[test]
    fn ladder_walks_spare_then_backpressure_then_exit() {
        let pkt = [0x5Au8; 700];
        let mut ch = Chassis::new(9000);
        ch.obs = Recorder::new(px_obs::ObsConfig::default());
        ch.pool.set_live_cap(Some(0)); // every `try_get` finds the pool dry
        let mut counts = Counts::default();
        let mut seen: Vec<Vec<u8>> = Vec::new();

        // Rung 1, twice: a recycling sink hands the spare back, so it
        // carries the next degraded packet too.
        for now in [10, 20] {
            let mut recycling = |b: PacketBuf| {
                seen.push(b.as_slice().to_vec());
                Some(b)
            };
            let got = ch.acquire(now, &pkt, 7, counts.lend(), &mut recycling);
            assert!(got.is_none(), "no hold: the packet already left");
            assert!(ch.is_degraded());
        }
        assert_eq!(seen, vec![pkt.to_vec(); 2], "forwarded verbatim");
        assert_eq!((counts.degraded_pkts, counts.backpressure_drops), (2, 0));

        // A sink that keeps what it is given takes the spare with it …
        let mut keeping = VecSink::new();
        assert!(ch
            .acquire(30, &pkt, 7, counts.lend(), &mut keeping)
            .is_none());
        assert_eq!(counts.degraded_pkts, 3);
        // … so the next degraded packet hits the last rung.
        assert!(ch
            .acquire(40, &pkt, 7, counts.lend(), &mut keeping)
            .is_none());
        assert_eq!(keeping.pkts.len(), 1, "nothing to forward it in");
        assert_eq!((counts.degraded_pkts, counts.backpressure_drops), (3, 1));
        assert_eq!(counts.pool_exhausted, 4, "every denial was the pool's");

        // Pressure over: the first granted creation leaves degraded mode
        // and hands back a pool buffer already carrying the packet.
        ch.pool.set_live_cap(None);
        let buf = ch
            .acquire(50, &pkt, 7, counts.lend(), &mut keeping)
            .expect("pool has room again");
        assert_eq!(buf.as_slice(), &pkt[..]);
        assert!(!ch.is_degraded());
        ch.pool.put(buf);
        assert_eq!(ch.pool.outstanding(), 0);

        let count = |cat| {
            let spans = ch.obs.recent_spans(64);
            spans.iter().filter(|s| s.cat == cat).count() as u64
        };
        assert_eq!(
            count(SpanCat::Degrade),
            counts.degraded_pkts + counts.backpressure_drops
        );
        assert_eq!(count(SpanCat::DegradeEnter), 1, "an edge, not a level");
        assert_eq!(count(SpanCat::DegradeExit), 1);
    }
}
