//! The gateway side of PX-caravan: bundling UDP datagrams into jumbo
//! outer packets on entry to the b-network, unbundling on exit.
//!
//! UDP cannot be merged transparently (datagram boundaries are
//! application state — QUIC breaks otherwise, §3), so the gateway
//! *tunnels* instead: whole datagrams, headers included, are concatenated
//! into the payload of one outer UDP/IP packet whose ToS byte is set to
//! [`CARAVAN_TOS`] (§4.1, Fig. 3). Receivers in the b-network unbundle
//! (the UDP_GRO-style path in [`px_tcp::udp`]); if the packet leaves the
//! b-network first, the egress PXGW restores the original datagrams.
//! Restored datagrams leave as scatter-gather views
//! ([`PacketSink::push_sg`]): a pooled buffer holding only the rebuilt
//! 20-byte IPv4 header, plus the inner UDP datagram borrowed from the
//! bundle it arrived in. No datagram byte is copied on the way out; a
//! sink without a `push_sg` override materialises each view once.
//!
//! §5's evaluation configures the gateway "to merge consecutive UDP
//! packets using the IP ID field to be compatible with UDP_GRO"; the
//! `require_consecutive_ip_id` knob reproduces that policy.
//!
//! F-PMTUD probes (recognisable by their well-known destination port)
//! are never bundled: the prober's packet must traverse routers as-is so
//! fragmentation reveals the path MTU (§4.2).

use crate::chassis::{Chassis, LadderCounts};
use crate::engine::EngineTally;
use crate::flowtable::{FlowTable, FlowTableConfig};
use px_obs::{drop_reason, flow_id, ObsConfig, Recorder, Span, SpanCat};
use px_sim::stats::{CoreCounters, SizeHistogram};
use px_wire::bytes;
use px_wire::caravan::{iter_bundle, MAX_INNER};
use px_wire::checksum;
use px_wire::ipv4::{self, Ipv4Packet, Ipv4Repr, CARAVAN_TOS};
use px_wire::pool::{PacketSink, PoolStats, SgPacket, SgRc};
use px_wire::udp::UdpDatagram;
use px_wire::{FlowKey, IpProtocol, PacketBuf};
use std::net::Ipv4Addr;

/// Caravan engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct CaravanConfig {
    /// Internal MTU: cap for the outer packet.
    pub imtu: usize,
    /// Hold time for partial bundles (delayed merging), nanoseconds.
    pub hold_ns: u64,
    /// Flow-table capacity.
    pub table_capacity: usize,
    /// Only bundle datagrams whose IP IDs are consecutive (UDP_GRO
    /// compatibility mode used in the paper's evaluation).
    pub require_consecutive_ip_id: bool,
    /// Destination port whose packets bypass bundling (F-PMTUD probes).
    pub probe_port: u16,
}

impl Default for CaravanConfig {
    fn default() -> Self {
        CaravanConfig {
            imtu: px_wire::JUMBO_MTU,
            hold_ns: 50_000,
            table_capacity: 65536,
            require_consecutive_ip_id: true,
            probe_port: crate::gateway::FPMTUD_PORT,
        }
    }
}

/// Counters for the caravan engine.
#[derive(Debug, Default, Clone)]
pub struct CaravanStats {
    /// Inbound UDP packets seen.
    pub pkts_in: u64,
    /// Datagrams bundled into caravans.
    pub bundled: u64,
    /// Caravan packets emitted.
    pub caravans_out: u64,
    /// Packets passed through unbundled (probes, singletons, non-UDP).
    pub passthrough: u64,
    /// Caravans unbundled on the outbound side.
    pub unbundled: u64,
    /// Inner datagrams restored on the outbound side.
    pub inner_out: u64,
    /// Packets dropped because validation failed (corrupt caravan
    /// bundles on the outbound side, or an inner datagram whose restored
    /// header could not be emitted). Every input that produces no output
    /// and leaves no pending state increments this counter.
    pub dropped_malformed: u64,
    /// Output size distribution (inbound direction).
    pub out_sizes: SizeHistogram,
    /// Packets forwarded unbundled because a pending bundle could not
    /// be created (pool dry or flow-table denial) — the degradation
    /// ladder's passthrough rung (DESIGN.md §12).
    pub degraded_pkts: u64,
    /// Bundle creations refused because the buffer pool was exhausted
    /// (real `BufPool::try_get` failures plus injected verdicts).
    pub pool_exhausted: u64,
    /// Degraded packets dropped outright because even the emergency
    /// spare buffer was unavailable.
    pub backpressure_drops: u64,
}

impl CaravanStats {
    /// Fraction of emitted (inbound-direction) packets that are
    /// iMTU-sized, by the same ≥ `imtu − (emtu − 28) + 1` rule as TCP.
    pub fn conversion_yield(&self, imtu: usize, emtu: usize) -> f64 {
        self.out_sizes.fraction_at_least(imtu - (emtu - 28) + 1)
    }
}

/// A per-flow pending bundle, held in one pooled buffer.
///
/// While `count == 1` the buffer holds the original packet verbatim (so
/// a singleton flush forwards it untouched, never pointlessly
/// tunnelled); the first append strips the IP header in place
/// ([`PacketBuf::advance`] — zero-copy) so the live bytes become the
/// bundle, and emission pushes the outer UDP+IP headers into the
/// buffer's headroom.
#[derive(Debug)]
struct PendingBundle {
    buf: PacketBuf,
    /// Inner datagrams accumulated.
    count: usize,
    /// Bundle bytes accumulated (sum of inner datagram lengths).
    bundle_len: usize,
    /// Running ones-complement partial sum of the bundle bytes, so the
    /// outer UDP checksum at emission never re-scans the payload.
    bundle_sum: u16,
    /// IP header length of the original first packet (stripped on the
    /// first append).
    ip_hlen: u8,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    next_ip_id: u16,
    /// Logical arrival time of the first datagram (dwell accounting).
    born: u64,
}

/// The PX-caravan gateway engine.
#[derive(Debug)]
pub struct CaravanEngine {
    /// Configuration.
    pub cfg: CaravanConfig,
    table: FlowTable<PendingBundle>,
    /// Pool, spare, fault gate, degrade ladder, recorder, clock and
    /// span links — everything shared with the merge engine.
    pub(crate) chassis: Chassis,
    out_ident: u16,
    /// Live-view counter for the bundle currently being unbundled.
    /// Emission is synchronous, so the count is back to zero by the time
    /// `push_outbound_into` returns — the debug assertion that proves the
    /// caller may reuse the input buffer immediately.
    view_rc: SgRc,
    /// Counters.
    pub stats: CaravanStats,
}

impl CaravanEngine {
    /// Creates a caravan engine.
    pub fn new(cfg: CaravanConfig) -> Self {
        Self::with_table(cfg, FlowTableConfig::with_capacity(cfg.table_capacity))
    }

    /// Creates a caravan engine whose bundle flow table `table` sizes
    /// (entry ceiling + optional byte budget) in place of
    /// `cfg.table_capacity`.
    pub fn with_table(cfg: CaravanConfig, table: FlowTableConfig) -> Self {
        CaravanEngine {
            cfg,
            table: FlowTable::with_config(table),
            chassis: Chassis::new(cfg.imtu),
            out_ident: 1,
            view_rc: SgRc::new(),
            stats: CaravanStats::default(),
        }
    }

    /// What the engine driver folds per engine instance. Every caravan
    /// eviction rescue-flushes a pending bundle, so they all count as
    /// pressure; the live flows are those holding a pending bundle.
    pub(crate) fn tally(&self) -> EngineTally {
        let counters = CoreCounters {
            degraded_pkts: self.stats.degraded_pkts,
            pool_exhausted: self.stats.pool_exhausted,
            backpressure_drops: self.stats.backpressure_drops,
            dropped_malformed: self.stats.dropped_malformed,
            flows_evicted_pressure: self.table.evictions,
            flows_live: self.table.len() as u64,
            ..CoreCounters::default()
        };
        EngineTally {
            counters,
            arena_bytes: self.table.arena_bytes(),
        }
    }

    /// Switches the span recorder + histograms on.
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

    fn bundle_budget(&self) -> usize {
        self.cfg.imtu - 28 // outer IPv4 (20) + outer UDP (8)
    }

    /// Forwards a packet untouched, recording it in the inbound output
    /// size distribution.
    fn forward_recorded(&mut self, pkt: &[u8], sink: &mut impl PacketSink) {
        self.stats.passthrough += 1;
        self.stats.out_sizes.record(pkt.len());
        self.chassis.obs.observe_out_size(pkt.len() as u64);
        self.chassis.forward(pkt, sink);
    }

    /// Records a malformed-packet drop (the counter is the caller's).
    fn record_malformed(&mut self, len: usize, flow: u32) {
        let (now, reason) = (self.chassis.now(), drop_reason::MALFORMED);
        self.chassis
            .obs
            .record(Span::instant(SpanCat::Drop, now, len, flow, reason));
    }

    /// Accounts one emission of `p` (a bundle, or its lone datagram
    /// forwarded untouched): output size, and when observability is on
    /// the `Caravan` span (born → emitted, aux = inner datagrams, a
    /// fresh causal link) and — for real bundles — the dwell histogram.
    fn record_emit(&mut self, p: &PendingBundle) {
        let len = p.buf.len();
        self.stats.out_sizes.record(len);
        if self.chassis.obs.is_enabled() {
            let flow = flow_id(p.src_port, p.dst_port);
            let dwell = self.chassis.now().saturating_sub(p.born);
            let count = p.count as u64;
            if count > 1 {
                self.chassis.obs.observe_dwell(dwell);
            }
            self.chassis.obs.observe_out_size(len as u64);
            let link = self.chassis.next_link();
            self.chassis.obs.record(Span {
                cat: SpanCat::Caravan,
                start_ns: p.born,
                dur_ns: dwell,
                len: len as u32,
                flow,
                aux: count,
                link,
            });
        }
    }

    fn emit_pending(&mut self, mut p: PendingBundle, sink: &mut impl PacketSink) {
        if p.count == 1 {
            // Single datagram: forward the original packet untouched.
            self.stats.passthrough += 1;
            self.record_emit(&p);
            self.chassis.emit(p.buf, sink);
            return;
        }
        // Outer UDP header into the headroom; checksum from the cached
        // bundle sum (the bundle bytes are not re-read).
        let udp_len = (px_wire::UDP_HEADER_LEN + p.bundle_len) as u16;
        p.buf.push_front_zeroed(8);
        {
            let b = p.buf.as_mut_slice();
            bytes::put_be16(b, 0, p.src_port);
            bytes::put_be16(b, 2, p.dst_port);
            bytes::put_be16(b, 4, udp_len);
            let pseudo = checksum::pseudo_header_sum(p.src, p.dst, IpProtocol::Udp.into(), udp_len);
            let header_sum = checksum::ones_complement_sum(bytes::range_to(b, 8));
            let mut ck = !checksum::combine(pseudo, checksum::combine(header_sum, p.bundle_sum));
            if ck == 0 {
                ck = 0xFFFF; // RFC 768: computed 0 is transmitted as all-ones
            }
            bytes::put_be16(b, 6, ck);
        }
        // Outer IP header in front of that.
        p.buf.push_front_zeroed(20);
        let mut ip = Ipv4Repr::new(p.src, p.dst, IpProtocol::Udp, usize::from(udp_len));
        ip.tos = CARAVAN_TOS;
        ip.ident = self.out_ident;
        self.out_ident = self.out_ident.wrapping_add(1);
        let emit_ok = {
            let mut v = Ipv4Packet::new_unchecked(p.buf.as_mut_slice());
            ip.emit(&mut v).is_ok()
        };
        if !emit_ok {
            // A bundle the outer header cannot describe (cannot happen
            // for bundles within the iMTU budget): drop and account.
            self.stats.dropped_malformed += 1;
            let flow = flow_id(p.src_port, p.dst_port);
            self.record_malformed(p.buf.len(), flow);
            self.chassis.pool.put(p.buf);
            return;
        }
        self.stats.caravans_out += 1;
        self.record_emit(&p);
        self.chassis.emit(p.buf, sink);
    }

    /// Processes one packet entering the b-network, delivering packets to
    /// forward to `sink` (possibly none while a bundle is being held).
    pub fn push_inbound_into(&mut self, now: u64, pkt: &[u8], sink: &mut impl PacketSink) {
        self.stats.pkts_in += 1;

        let parsed = (|| {
            let ip = Ipv4Packet::new_checked(pkt).ok()?;
            if ip.protocol() != IpProtocol::Udp || ip.is_fragment() || ip.tos() == CARAVAN_TOS {
                return None;
            }
            let udp = UdpDatagram::new_checked(ip.payload()).ok()?;
            if udp.dst_port() == self.cfg.probe_port {
                return None; // F-PMTUD probes pass through untouched
            }
            let ip_hlen = ip.header_len();
            Some((
                FlowKey::udp(ip.src(), udp.src_port(), ip.dst(), udp.dst_port()),
                ip.ident(),
                ip.src(),
                ip.dst(),
                udp.src_port(),
                udp.dst_port(),
                ip_hlen,
                bytes::range(pkt, ip_hlen, ip_hlen + udp.length()),
            ))
        })();
        // Keyed = the packet classified as bundleable UDP.
        let keyed_flow = parsed
            .as_ref()
            .map(|&(.., sport, dport, _, _)| flow_id(sport, dport));
        self.chassis.arrive(now, pkt.len(), keyed_flow);
        let Some((key, ip_id, src, dst, sport, dport, ip_hlen, dgram)) = parsed else {
            // aux 2 = passthrough (probe, non-UDP, fragment, caravan ToS).
            self.chassis
                .obs
                .record(Span::instant(SpanCat::Steer, now, pkt.len(), 0, 2));
            self.forward_recorded(pkt, sink);
            return;
        };

        if dgram.len() > self.bundle_budget() {
            // Too large to bundle with anything.
            let flow = flow_id(sport, dport);
            self.chassis
                .obs
                .record(Span::instant(SpanCat::Steer, now, pkt.len(), flow, 2));
            self.forward_recorded(pkt, sink);
            return;
        }

        let budget = self.bundle_budget();
        let require_id = self.cfg.require_consecutive_ip_id;
        let mut extended = false;
        if let Some(p) = self.table.get_mut(&key) {
            let id_ok = !require_id || ip_id == p.next_ip_id;
            let fits = p.count < MAX_INNER && p.bundle_len + dgram.len() <= budget;
            let convert_ok = if id_ok && fits && p.count == 1 {
                // Convert the stored original packet into bundle bytes:
                // strip the IP header in place, drop anything past the
                // first datagram. A failed strip (header longer than the
                // stored packet — impossible for a validated packet)
                // leaves the original intact for the flush path below.
                let hlen = usize::from(p.ip_hlen);
                p.buf
                    .advance(hlen)
                    .map(|()| p.buf.truncate(p.bundle_len))
                    .is_ok()
            } else {
                true
            };
            if id_ok && fits && convert_ok {
                p.bundle_sum = checksum::combine_at_offset(
                    p.bundle_sum,
                    checksum::ones_complement_sum(dgram),
                    p.bundle_len % 2 == 1,
                );
                p.buf.extend_from_slice(dgram);
                p.bundle_len += dgram.len();
                p.count += 1;
                p.next_ip_id = ip_id.wrapping_add(1);
                self.stats.bundled += 1;
                extended = true;
                // Emit when no further same-sized datagram can fit.
                if p.bundle_len + dgram.len() <= budget {
                    return;
                }
            }
        }
        if extended {
            if let Some(p) = self.table.remove(&key) {
                self.emit_pending(p, sink);
            }
            return;
        }
        if let Some(p) = self.table.remove(&key) {
            // Can't extend: flush and start fresh below.
            self.emit_pending(p, sink);
        }

        // Bundle creation goes through the chassis' fault gate; on
        // `None` the packet already left through the degrade ladder.
        let counts = LadderCounts {
            degraded_pkts: &mut self.stats.degraded_pkts,
            pool_exhausted: &mut self.stats.pool_exhausted,
            backpressure_drops: &mut self.stats.backpressure_drops,
        };
        let flow = flow_id(sport, dport);
        let Some(buf) = self.chassis.acquire(now, pkt, flow, counts, sink) else {
            return;
        };
        self.stats.bundled += 1;
        let pending = PendingBundle {
            buf,
            count: 1,
            bundle_len: dgram.len(),
            bundle_sum: checksum::ones_complement_sum(dgram),
            ip_hlen: ip_hlen as u8,
            src,
            dst,
            src_port: sport,
            dst_port: dport,
            next_ip_id: ip_id.wrapping_add(1),
            born: now,
        };
        if let Some((victim_key, victim)) =
            self.table
                .insert_with_deadline(key, pending, now + self.cfg.hold_ns)
        {
            // aux 2 = pressure: the bundle held unflushed datagrams and
            // is rescue-flushed below.
            let vflow = flow_id(victim_key.src_port, victim_key.dst_port);
            let held = victim.buf.len();
            self.chassis
                .obs
                .record(Span::instant(SpanCat::Evict, now, held, vflow, 2));
            self.emit_pending(victim, sink);
        }
    }

    /// Processes one packet leaving the b-network: caravans are restored
    /// to their original datagrams (delivered to `sink` as header + view
    /// pairs, see the module docs); everything else passes through.
    pub fn push_outbound_into(&mut self, pkt: &[u8], sink: &mut impl PacketSink) {
        let parsed = (|| {
            let ip = Ipv4Packet::new_checked(pkt).ok()?;
            if ip.protocol() != IpProtocol::Udp || ip.tos() != CARAVAN_TOS || ip.is_fragment() {
                return None;
            }
            UdpDatagram::new_checked(ip.payload()).ok()?;
            let ip_hlen = ip.header_len();
            let bundle_at = ip_hlen + px_wire::UDP_HEADER_LEN;
            Some((
                ip.src(),
                ip.dst(),
                bytes::range(pkt, bundle_at, ip.total_len()),
            ))
        })();
        let Some((src, dst, bundle)) = parsed else {
            self.chassis.forward(pkt, sink);
            return;
        };
        // Validate the whole bundle first: a corrupt bundle is dropped in
        // full rather than partially forwarded as garbage. The strict
        // walk also rejects inner records whose length fields under- or
        // over-claim bytes (overlapping-claim smuggling).
        if px_wire::caravan::validate_bundle(bundle).is_err() {
            self.stats.dropped_malformed += 1;
            self.record_malformed(pkt.len(), 0);
            return;
        }
        self.stats.unbundled += 1;
        for dg in iter_bundle(bundle).filter_map(|r| r.ok()) {
            let mut ip = Ipv4Repr::new(src, dst, IpProtocol::Udp, dg.len());
            ip.ident = self.out_ident;
            self.out_ident = self.out_ident.wrapping_add(1);
            // Only the restored IPv4 header is built; the datagram leaves
            // as a view into the bundle it arrived in.
            let mut hdr = self.chassis.pool.get();
            hdr.push_front_zeroed(ipv4::HEADER_LEN);
            let ok = ip
                .emit_header(&mut Ipv4Packet::new_unchecked(hdr.as_mut_slice()))
                .is_ok();
            if ok {
                self.stats.inner_out += 1;
                if let Some(b) = sink.push_sg(SgPacket::new(hdr, dg, &self.view_rc)) {
                    self.chassis.pool.put(b);
                }
            } else {
                self.stats.dropped_malformed += 1;
                self.record_malformed(ipv4::HEADER_LEN + dg.len(), 0);
                self.chassis.pool.put(hdr);
            }
        }
        debug_assert_eq!(self.view_rc.views(), 0, "views outlived emission");
    }

    /// Emits every bundle whose hold timer expired.
    pub fn poll_into(&mut self, now: u64, sink: &mut impl PacketSink) {
        self.chassis.poll_tick(now);
        while let Some((_, p)) = self.table.pop_expired(now) {
            self.emit_pending(p, sink);
        }
    }

    /// The earliest pending deadline, if any.
    pub fn next_deadline(&mut self) -> Option<u64> {
        self.table.next_deadline()
    }

    /// Drains everything, delivering to `sink`.
    pub fn flush_all_into(&mut self, sink: &mut impl PacketSink) {
        for (_, p) in self.table.drain() {
            self.emit_pending(p, sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_faults::FaultSpec;
    use px_wire::caravan::split_bundle;
    use px_wire::pool::VecSink;
    use px_wire::UdpRepr;

    const SRC: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 9);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 3);

    fn udp_pkt(sport: u16, payload_len: usize, ip_id: u16) -> Vec<u8> {
        let dg = UdpRepr {
            src_port: sport,
            dst_port: 4433,
        }
        .build_datagram(SRC, DST, &vec![0xCD; payload_len])
        .unwrap();
        let mut ip = Ipv4Repr::new(SRC, DST, IpProtocol::Udp, dg.len());
        ip.ident = ip_id;
        ip.build_packet(&dg).unwrap()
    }

    #[test]
    fn bundles_consecutive_datagrams_into_one_caravan() {
        let mut eng = CaravanEngine::new(CaravanConfig::default());
        let mut out = Vec::new();
        for i in 0..7u16 {
            out.extend(VecSink::collect(|s| {
                eng.push_inbound_into(0, &udp_pkt(5000, 1172, i), s)
            }));
        }
        assert_eq!(out.len(), 1, "7×1200B datagrams fill one 9000B caravan");
        let caravan = &out[0];
        assert!(caravan.len() <= 9000);
        let ip = Ipv4Packet::new_checked(&caravan[..]).unwrap();
        assert_eq!(ip.tos(), CARAVAN_TOS);
        assert!(ip.verify_checksum());
        // Round-trip: unbundling restores 7 datagrams.
        let restored = VecSink::collect(|s| eng.push_outbound_into(caravan, s));
        assert_eq!(restored.len(), 7);
        for p in &restored {
            let ip = Ipv4Packet::new_checked(&p[..]).unwrap();
            assert_eq!(ip.tos(), 0);
            let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
            assert_eq!(udp.payload().len(), 1172);
            assert!(udp.verify_checksum(ip.src(), ip.dst()));
        }
    }

    #[test]
    fn unbundled_datagrams_leave_as_views_into_the_bundle() {
        /// Records where each view's segments live; materialises nothing.
        #[derive(Default)]
        struct Where {
            header_lens: Vec<usize>,
            payloads: Vec<std::ops::Range<*const u8>>,
            flat: usize,
        }
        impl PacketSink for Where {
            fn accept(&mut self, buf: PacketBuf) -> Option<PacketBuf> {
                self.flat += 1;
                Some(buf)
            }
            fn push_sg(&mut self, mut pkt: SgPacket<'_>) -> Option<PacketBuf> {
                self.header_lens.push(pkt.header().len());
                self.payloads.push(pkt.payload().as_ptr_range());
                Some(pkt.take_header())
            }
        }
        let mut packer = CaravanEngine::new(CaravanConfig::default());
        let mut bundles = Vec::new();
        for i in 0..7u16 {
            bundles.extend(VecSink::collect(|s| {
                packer.push_inbound_into(0, &udp_pkt(5000, 1172, i), s)
            }));
        }
        assert_eq!(bundles.len(), 1);
        let bundle = &bundles[0];
        let mut eng = CaravanEngine::new(CaravanConfig::default());
        let mut sink = Where::default();
        eng.push_outbound_into(bundle, &mut sink);
        assert_eq!(sink.flat, 0, "nothing materialised");
        assert_eq!(sink.header_lens, vec![ipv4::HEADER_LEN; 7]);
        let inside = bundle.as_ptr_range();
        for p in &sink.payloads {
            assert!(
                inside.start <= p.start && p.end <= inside.end,
                "view outside the bundle"
            );
        }
        assert_eq!(eng.stats.inner_out, 7);
        assert_eq!(eng.pool_stats().outstanding(), 0, "headers recycled");
    }

    #[test]
    fn hold_timer_flushes_partial_bundles() {
        let cfg = CaravanConfig {
            hold_ns: 1000,
            ..Default::default()
        };
        let mut eng = CaravanEngine::new(cfg);
        assert!(
            VecSink::collect(|s| eng.push_inbound_into(0, &udp_pkt(5000, 500, 0), s)).is_empty()
        );
        assert!(
            VecSink::collect(|s| eng.push_inbound_into(10, &udp_pkt(5000, 500, 1), s)).is_empty()
        );
        assert!(VecSink::collect(|s| eng.poll_into(999, s)).is_empty());
        let out = VecSink::collect(|s| eng.poll_into(1001, s));
        assert_eq!(out.len(), 1);
        let ip = Ipv4Packet::new_checked(&out[0][..]).unwrap();
        assert_eq!(ip.tos(), CARAVAN_TOS);
        let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
        assert_eq!(split_bundle(udp.payload()).unwrap().len(), 2);
    }

    #[test]
    fn singleton_flush_passes_original_packet() {
        let cfg = CaravanConfig {
            hold_ns: 100,
            ..Default::default()
        };
        let mut eng = CaravanEngine::new(cfg);
        let orig = udp_pkt(5000, 500, 0);
        assert!(VecSink::collect(|s| eng.push_inbound_into(0, &orig, s)).is_empty());
        let out = VecSink::collect(|s| eng.poll_into(u64::MAX, s));
        assert_eq!(out, vec![orig], "no pointless tunnelling of singletons");
    }

    #[test]
    fn nonconsecutive_ip_id_breaks_bundle_in_compat_mode() {
        let mut eng = CaravanEngine::new(CaravanConfig::default());
        eng.push_inbound_into(0, &udp_pkt(5000, 500, 0), &mut VecSink::new());
        // Jump in IP ID: previous bundle flushed (as original packet).
        let out = VecSink::collect(|s| eng.push_inbound_into(1, &udp_pkt(5000, 500, 7), s));
        assert_eq!(out.len(), 1);
        assert_eq!(eng.stats.passthrough, 1);
        // Without compat mode, the same pattern keeps bundling.
        let mut eng2 = CaravanEngine::new(CaravanConfig {
            require_consecutive_ip_id: false,
            ..Default::default()
        });
        eng2.push_inbound_into(0, &udp_pkt(5000, 500, 0), &mut VecSink::new());
        assert!(
            VecSink::collect(|s| eng2.push_inbound_into(1, &udp_pkt(5000, 500, 7), s)).is_empty()
        );
    }

    #[test]
    fn probe_port_bypasses_bundling() {
        let cfg = CaravanConfig::default();
        let mut eng = CaravanEngine::new(cfg);
        let dg = UdpRepr {
            src_port: 9,
            dst_port: cfg.probe_port,
        }
        .build_datagram(SRC, DST, &[0u8; 100])
        .unwrap();
        let pkt = Ipv4Repr::new(SRC, DST, IpProtocol::Udp, dg.len())
            .build_packet(&dg)
            .unwrap();
        let out = VecSink::collect(|s| eng.push_inbound_into(0, &pkt, s));
        assert_eq!(out, vec![pkt], "probes forwarded unmerged");
    }

    #[test]
    fn flows_do_not_mix() {
        let mut eng = CaravanEngine::new(CaravanConfig {
            require_consecutive_ip_id: false,
            ..Default::default()
        });
        for i in 0..3 {
            eng.push_inbound_into(0, &udp_pkt(5000, 500, i), &mut VecSink::new());
            eng.push_inbound_into(0, &udp_pkt(6000, 500, i), &mut VecSink::new());
        }
        let out = VecSink::collect(|s| eng.flush_all_into(s));
        assert_eq!(out.len(), 2);
        for p in &out {
            let ip = Ipv4Packet::new_checked(&p[..]).unwrap();
            let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
            assert!(px_wire::caravan::bundle_is_single_flow(udp.payload()).unwrap());
        }
    }

    #[test]
    fn recorder_captures_caravan_packing() {
        let mut eng = CaravanEngine::new(CaravanConfig::default());
        eng.enable_obs(px_obs::ObsConfig::default());
        let mut out = Vec::new();
        for i in 0..7u16 {
            out.extend(VecSink::collect(|s| {
                eng.push_inbound_into(u64::from(i) * 100, &udp_pkt(5000, 1172, i), s)
            }));
        }
        assert_eq!(out.len(), 1);
        let spans = eng.obs().recent_spans(64);
        let pack = spans
            .iter()
            .find(|s| s.cat == SpanCat::Caravan)
            .expect("Caravan span recorded");
        assert_eq!(pack.flow, flow_id(5000, 4433));
        assert_eq!(pack.aux, 7, "inner datagram count in aux");
        assert_eq!(
            pack.start_ns + pack.dur_ns,
            600,
            "ends at the emitting push's time"
        );
        assert_eq!(eng.obs().hists().dwell_ns.max(), 600);
    }

    #[test]
    fn oversize_datagram_passes_through() {
        let mut eng = CaravanEngine::new(CaravanConfig::default());
        let big = udp_pkt(5000, 8980, 0); // > bundle budget
        let out = VecSink::collect(|s| eng.push_inbound_into(0, &big, s));
        assert_eq!(out, vec![big]);
    }

    #[test]
    fn pool_exhaustion_degrades_to_unbundled_passthrough() {
        let mut eng = CaravanEngine::new(CaravanConfig::default());
        eng.enable_obs(px_obs::ObsConfig::default());
        eng.chassis.pool.set_live_cap(Some(1));
        let got: std::cell::RefCell<Vec<Vec<u8>>> = std::cell::RefCell::new(Vec::new());
        let mut sink = |b: PacketBuf| {
            got.borrow_mut().push(b.as_slice().to_vec());
            Some(b)
        };
        // Flow A pins the pool's only live buffer.
        eng.push_inbound_into(0, &udp_pkt(5000, 500, 0), &mut sink);
        assert!(got.borrow().is_empty(), "held");
        // Flow B cannot get a buffer: forwarded unbundled, verbatim.
        let orig = udp_pkt(6000, 500, 0);
        eng.push_inbound_into(10, &orig, &mut sink);
        assert_eq!(*got.borrow(), vec![orig]);
        assert!(eng.chassis.is_degraded());
        assert_eq!(eng.stats.degraded_pkts, 1);
        assert_eq!(eng.stats.pool_exhausted, 1);
        // Flush A; the returned buffer lets B's next datagram bundle.
        eng.poll_into(u64::MAX, &mut sink);
        eng.push_inbound_into(20, &udp_pkt(6000, 500, 1), &mut sink);
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
    fn injected_faults_degrade_the_caravan_engine_too() {
        let mut eng = CaravanEngine::new(CaravanConfig::default());
        eng.chassis.set_faults(FaultSpec {
            enabled: true,
            seed: 3,
            table_deny_ppm: 1_000_000,
            ..FaultSpec::off()
        });
        let p0 = udp_pkt(5000, 500, 0);
        assert_eq!(
            VecSink::collect(|s| eng.push_inbound_into(0, &p0, s)),
            vec![p0]
        );
        assert_eq!(eng.stats.degraded_pkts, 1);
        assert_eq!(eng.stats.pool_exhausted, 0);
        assert_eq!(eng.pool_stats().outstanding(), 0);
    }

    #[test]
    fn outbound_noncaravan_passes_through() {
        let mut eng = CaravanEngine::new(CaravanConfig::default());
        let plain = udp_pkt(5000, 500, 0);
        assert_eq!(
            VecSink::collect(|s| eng.push_outbound_into(&plain, s)),
            vec![plain]
        );
    }
}
