//! [`PxGateway`]: the PXGW as a two-port simulator node.
//!
//! Port 0 faces the legacy external network (eMTU); port 1 faces the
//! b-network (iMTU). Traffic entering the b-network is merged (TCP) or
//! caravan-bundled (UDP) and has handshake MSS options raised; traffic
//! leaving is split/unbundled back to eMTU size. Everything else —
//! ICMP, F-PMTUD probes, control segments — passes through untouched,
//! in order, which is what makes the gateway *transparent*.

use crate::advert::{BorderPolicy, ImtuAdvert, NeighborTable, ADVERT_PORT};
use crate::caravan_gw::{CaravanConfig, CaravanEngine};
use crate::merge::{MergeConfig, MergeEngine};
use crate::mss::raise_mss;
use crate::split::SplitEngine;
use crate::steer::SteerConfig;
use px_sim::node::{Ctx, Node, PortId};
use px_sim::Nanos;
use px_wire::ipv4::{Ipv4Packet, Ipv4Repr};
use px_wire::udp::UdpDatagram;
use px_wire::{IpProtocol, PacketBuf, UdpRepr};
use std::any::Any;
use std::net::Ipv4Addr;

/// Well-known UDP port of the F-PMTUD daemon (§4.2: "a dummy UDP packet
/// … to the destination node with a well-known port"). PXGWs never merge
/// packets addressed to it. Single source of truth: [`px_wire::fpmtud`].
pub const FPMTUD_PORT: u16 = px_wire::fpmtud::FPMTUD_PORT;

/// The gateway's external-facing port.
pub const EXTERNAL_PORT: PortId = PortId(0);
/// The gateway's b-network-facing port.
pub const INTERNAL_PORT: PortId = PortId(1);

const POLL_TOKEN: u64 = 1;
const ADVERT_TOKEN: u64 = 2;
/// Merge/caravan hold-timer poll period (ns).
const POLL_NS: u64 = 10_000;

/// Gateway configuration.
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// The b-network's internal MTU.
    pub imtu: usize,
    /// The external (legacy) MTU.
    pub emtu: usize,
    /// Delayed-merging hold time (ns); 0 disables holding.
    pub hold_ns: u64,
    /// Small-flow steering of TCP; `None` sends every flow through the
    /// merge engine (the ablation case). UDP is never steered.
    pub steer: Option<SteerConfig>,
    /// Flow-table capacity for the caravan engine, and for the merge
    /// engine when it does not steer (steering sizes that table by
    /// [`SteerConfig`]).
    pub table_capacity: usize,
    /// This b-network's AS number, used in iMTU advertisements (§4.2).
    /// `None` disables advertising and neighbour-aware pass-through.
    pub asn: Option<u32>,
    /// Advertisement refresh period (ns).
    pub advert_interval_ns: u64,
    /// Enable the resident F-PMTUD client with this probing address:
    /// the gateway discovers per-destination path MTUs and splits to
    /// them instead of the static eMTU (§4.2's end-to-end mechanism).
    pub pmtud_addr: Option<std::net::Ipv4Addr>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            imtu: px_wire::JUMBO_MTU,
            emtu: px_wire::LEGACY_MTU,
            hold_ns: 50_000,
            steer: Some(SteerConfig::default()),
            table_capacity: 65536,
            asn: None,
            advert_interval_ns: 5_000_000_000,
            pmtud_addr: None,
        }
    }
}

/// The PXGW node.
pub struct PxGateway {
    /// Configuration.
    pub cfg: GatewayConfig,
    /// TCP merge engine (eMTU → iMTU), steering mice past merging when
    /// [`GatewayConfig::steer`] is set.
    pub merge: MergeEngine,
    /// TCP split engine (iMTU → eMTU).
    pub split: SplitEngine,
    /// UDP caravan engine.
    pub caravan: CaravanEngine,
    /// SYN/SYN-ACK MSS rewrites performed.
    pub mss_rewrites: u64,
    /// §4.2 neighbour table, fed by iMTU advertisements on the external
    /// port.
    pub neighbors: NeighborTable,
    /// ASN of the most recent advertiser across the external link.
    pub neighbor_asn: Option<u32>,
    /// Jumbo packets forwarded untranslated thanks to a neighbour advert.
    pub passthrough_out: u64,
    /// The resident F-PMTUD client, when enabled.
    pub pmtud: Option<crate::pmtud_client::PmtudClient>,
    advert_seq: u32,
}

impl PxGateway {
    /// Creates a gateway.
    pub fn new(cfg: GatewayConfig) -> Self {
        let merge_cfg = MergeConfig {
            imtu: cfg.imtu,
            emtu: cfg.emtu,
            hold_ns: cfg.hold_ns,
            table_capacity: cfg.table_capacity,
        };
        let merge = match cfg.steer {
            Some(s) => MergeEngine::steered(merge_cfg, s),
            None => MergeEngine::new(merge_cfg),
        };
        PxGateway {
            cfg,
            merge,
            split: SplitEngine::new(cfg.emtu),
            caravan: CaravanEngine::new(CaravanConfig {
                imtu: cfg.imtu,
                hold_ns: cfg.hold_ns,
                table_capacity: cfg.table_capacity,
                require_consecutive_ip_id: true,
                probe_port: FPMTUD_PORT,
            }),
            mss_rewrites: 0,
            neighbors: NeighborTable::new(),
            neighbor_asn: None,
            passthrough_out: 0,
            pmtud: cfg.pmtud_addr.map(|a| {
                crate::pmtud_client::PmtudClient::with_retry(
                    a,
                    cfg.imtu,
                    crate::pmtud_client::PmtudRetryConfig {
                        // Blackhole clamp: a destination that answers no
                        // probe splits at the safe static eMTU.
                        fallback_pmtu: cfg.emtu,
                        ..Default::default()
                    },
                )
            }),
            advert_seq: 0,
        }
    }

    /// The border policy currently in force towards the external
    /// neighbour.
    pub fn border_policy(&self, now_ns: u64) -> BorderPolicy {
        match (self.cfg.asn, self.neighbor_asn) {
            (Some(_), Some(peer)) => self.neighbors.policy(now_ns, peer, self.cfg.imtu as u32),
            _ => BorderPolicy::Translate,
        }
    }

    fn send_advert(&mut self, ctx: &mut Ctx<'_>) {
        let Some(asn) = self.cfg.asn else { return };
        self.advert_seq += 1;
        let advert = ImtuAdvert {
            asn,
            imtu: self.cfg.imtu as u32,
            seq: self.advert_seq,
            ttl_secs: (3 * self.cfg.advert_interval_ns / 1_000_000_000).max(1) as u16,
        };
        // Link-local style announcement: the adjacent gateway (if any)
        // picks it up off the shared border link.
        let src = Ipv4Addr::new(169, 254, (asn >> 8) as u8, asn as u8);
        let dst = Ipv4Addr::new(255, 255, 255, 255);
        let Ok(dg) = UdpRepr {
            src_port: ADVERT_PORT,
            dst_port: ADVERT_PORT,
        }
        .build_datagram(src, dst, &advert.to_bytes()) else {
            return;
        };
        let ip = Ipv4Repr::new(src, dst, IpProtocol::Udp, dg.len());
        if let Ok(pkt) = ip.build_packet(&dg) {
            ctx.send(EXTERNAL_PORT, PacketBuf::from_payload(&pkt));
        }
    }

    /// Returns true when the packet was an iMTU advertisement (consumed).
    fn try_ingest_advert(&mut self, now_ns: u64, pkt: &[u8]) -> bool {
        let Ok(ip) = Ipv4Packet::new_checked(pkt) else {
            return false;
        };
        if ip.protocol() != IpProtocol::Udp {
            return false;
        }
        let Ok(udp) = UdpDatagram::new_checked(ip.payload()) else {
            return false;
        };
        if udp.dst_port() != ADVERT_PORT {
            return false;
        }
        if let Ok(advert) = ImtuAdvert::parse(udp.payload()) {
            self.neighbors.ingest(now_ns, advert);
            self.neighbor_asn = Some(advert.asn);
        }
        true
    }

    fn inbound(&mut self, ctx: &mut Ctx<'_>, mut pkt: PacketBuf) {
        // §4.2 control plane: neighbour iMTU advertisements and F-PMTUD
        // reports addressed to the gateway terminate here.
        if self.try_ingest_advert(ctx.now.0, pkt.as_slice()) {
            return;
        }
        if let Some(client) = &mut self.pmtud {
            if client.try_ingest(pkt.as_slice()) {
                return;
            }
        }
        // Handshake intervention: raise the MSS the external host
        // advertised so the b-network host will send jumbo segments.
        let target = (self.cfg.imtu - 40).min(usize::from(u16::MAX)) as u16;
        if matches!(
            raise_mss(pkt.as_mut_slice(), target),
            crate::mss::MssRewrite::Rewritten { .. }
        ) {
            self.mss_rewrites += 1;
        }
        // Emission goes straight from the engine's pool to the port;
        // a steered mouse is forwarded by the merge engine untouched.
        let now = ctx.now.0;
        let mut to_bnet = |b: PacketBuf| {
            ctx.send(INTERNAL_PORT, b);
            None
        };
        let proto = Ipv4Packet::new_checked(pkt.as_slice()).map(|ip| ip.protocol());
        match proto {
            Ok(IpProtocol::Udp) => {
                self.caravan
                    .push_inbound_into(now, pkt.as_slice(), &mut to_bnet);
            }
            _ => self.merge.push_into(now, pkt.as_slice(), &mut to_bnet),
        }
    }

    fn outbound(&mut self, ctx: &mut Ctx<'_>, pkt: PacketBuf) {
        // §4.2: if the neighbour advertised a compatible iMTU, jumbo
        // packets (and whole caravans) cross the border untranslated.
        if let BorderPolicy::PassThrough { up_to } = self.border_policy(ctx.now.0) {
            if pkt.len() <= up_to as usize {
                if pkt.len() > self.cfg.emtu {
                    self.passthrough_out += 1;
                }
                ctx.send(EXTERNAL_PORT, pkt);
                return;
            }
        }
        // PMTUD-aware splitting: learn (and use) the real path MTU of
        // this destination when the resident F-PMTUD client is enabled.
        let mut split_mtu = self.cfg.emtu;
        if let Some(client) = &mut self.pmtud {
            if let Ok(ip) = Ipv4Packet::new_checked(pkt.as_slice()) {
                let dst = ip.dst();
                if let Some(probe) = client.maybe_probe(ctx.now.0, dst) {
                    ctx.send(EXTERNAL_PORT, PacketBuf::from_payload(&probe));
                }
                if let Some(pmtu) = client.pmtu_for(dst) {
                    split_mtu = pmtu.clamp(crate::pmtud_client::MIN_PLAUSIBLE_PMTU, self.cfg.imtu);
                }
            }
        }
        // Restore caravan bundles to their original datagrams, then cut
        // anything oversized down to the per-destination MTU. Emission
        // goes straight from the split pool to the port; each restored
        // packet goes back to the caravan pool once it has been split.
        let PxGateway { caravan, split, .. } = self;
        caravan.push_outbound_into(pkt.as_slice(), &mut |restored: PacketBuf| {
            split.push_to_into(restored.as_slice(), split_mtu, &mut |b: PacketBuf| {
                ctx.send(EXTERNAL_PORT, b);
                None
            });
            Some(restored)
        });
    }
}

impl Node for PxGateway {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Nanos(POLL_NS), POLL_TOKEN);
        if self.cfg.asn.is_some() {
            self.send_advert(ctx);
            ctx.set_timer(Nanos(self.cfg.advert_interval_ns), ADVERT_TOKEN);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: PacketBuf) {
        match port {
            EXTERNAL_PORT => self.inbound(ctx, pkt),
            INTERNAL_PORT => self.outbound(ctx, pkt),
            other => {
                let _ = other;
                ctx.stats.bump("pxgw_unknown_port", 1);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            ADVERT_TOKEN => {
                self.send_advert(ctx);
                ctx.set_timer(Nanos(self.cfg.advert_interval_ns), ADVERT_TOKEN);
            }
            _ => {
                debug_assert_eq!(token, POLL_TOKEN);
                let now = ctx.now.0;
                let mut to_bnet = |b: PacketBuf| {
                    ctx.send(INTERNAL_PORT, b);
                    None
                };
                self.merge.poll_into(now, &mut to_bnet);
                self.caravan.poll_into(now, &mut to_bnet);
                // PMTU probe retries ride the same poll: a destination
                // that went dark between packets still resolves (to a
                // discovered PMTU or the eMTU clamp) on a deadline.
                if let Some(client) = &mut self.pmtud {
                    for probe in client.tick(now) {
                        ctx.send(EXTERNAL_PORT, PacketBuf::from_payload(&probe));
                    }
                }
                ctx.set_timer(Nanos(POLL_NS), POLL_TOKEN);
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_sim::link::LinkConfig;
    use px_sim::network::Network;
    use px_sim::node::NodeId;
    use px_tcp::conn::ConnConfig;
    use px_tcp::host::{Host, HostConfig, UdpFlowCfg};
    use px_tcp::udp::UdpSocket;
    use std::net::Ipv4Addr;

    const EXT: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1); // legacy network
    const INT: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 2); // b-network

    /// external host (1500) — PXGW — internal host (9000).
    fn topo(cfg: GatewayConfig) -> (Network, NodeId, NodeId, NodeId) {
        let mut net = Network::new(99);
        let ext = net.add_node(Host::new(HostConfig::new(EXT, 1500)));
        let gw = net.add_node(PxGateway::new(cfg));
        let mut int_cfg = HostConfig::new(INT, 9000);
        int_cfg.caravan_rx = true;
        let int = net.add_node(Host::new(int_cfg));
        net.connect(
            (ext, PortId(0)),
            (gw, EXTERNAL_PORT),
            LinkConfig::new(10_000_000_000, Nanos::from_micros(50), 1500),
        );
        net.connect(
            (gw, INTERNAL_PORT),
            (int, PortId(0)),
            LinkConfig::new(10_000_000_000, Nanos::from_micros(50), 9000),
        );
        (net, ext, gw, int)
    }

    #[test]
    fn tcp_download_through_gateway_merges_and_stays_intact() {
        // External server sends 3 MB to the internal client: the gateway
        // merges eMTU segments into jumbos.
        let (mut net, ext, gw, int) = topo(GatewayConfig {
            steer: None,
            ..Default::default()
        });
        let total = 3_000_000u64;
        net.node_mut::<Host>(ext).listen(
            80,
            ConnConfig::new((EXT, 80), (INT, 0), 1500).sending(total),
        );
        net.node_mut::<Host>(int).connect_at(
            0,
            ConnConfig::new((INT, 40000), (EXT, 80), 9000),
            Some(Nanos::from_secs(20).0),
        );
        net.run_until(Nanos::from_secs(8));
        let client = net.node_ref::<Host>(int);
        let st = &client.tcp_stats()[0];
        assert_eq!(st.bytes_received, total, "every byte delivered");
        assert_eq!(st.integrity_errors, 0, "stream byte-identical");
        let gwn = net.node_ref::<PxGateway>(gw);
        assert!(gwn.merge.stats.data_segs_in > 0);
        let yield_ = gwn.merge.stats.conversion_yield(&gwn.merge.cfg);
        assert!(yield_ > 0.5, "bulk flow mostly converted: {yield_}");
    }

    #[test]
    fn mss_rewriting_lets_internal_sender_use_jumbo_segments() {
        // Internal client uploads; its peer (external server at MTU 1500)
        // advertises MSS 1460 in the SYN-ACK, which the gateway raises.
        let (mut net, ext, gw, int) = topo(GatewayConfig {
            steer: None,
            ..Default::default()
        });
        let total = 2_000_000u64;
        net.node_mut::<Host>(ext)
            .listen(80, ConnConfig::new((EXT, 80), (INT, 0), 1500));
        net.node_mut::<Host>(int).connect_at(
            0,
            ConnConfig::new((INT, 40000), (EXT, 80), 9000).sending(total),
            Some(Nanos::from_secs(20).0),
        );
        net.run_until(Nanos::from_secs(8));
        let client = net.node_ref::<Host>(int);
        let st = &client.tcp_stats()[0];
        assert_eq!(
            st.peer_mss, 8960,
            "SYN-ACK MSS was rewritten from 1460 to iMTU-40"
        );
        assert_eq!(st.effective_mss, 8960);
        assert_eq!(st.bytes_acked, total);
        let server = net.node_ref::<Host>(ext);
        let sst = &server.tcp_stats()[0];
        assert_eq!(sst.bytes_received, total);
        assert_eq!(sst.integrity_errors, 0, "split preserved the stream");
        assert!(net.node_ref::<PxGateway>(gw).mss_rewrites >= 1);
        assert!(net.node_ref::<PxGateway>(gw).split.stats.split > 0);
    }

    #[test]
    fn udp_flow_becomes_caravans_and_boundaries_survive() {
        let (mut net, ext, gw, int) = topo(GatewayConfig {
            steer: None,
            ..Default::default()
        });
        net.node_mut::<Host>(int)
            .udp_bind(UdpSocket::bind(4433).recording());
        net.node_mut::<Host>(ext).add_udp_flow(UdpFlowCfg {
            local_port: 7000,
            dst: INT,
            dst_port: 4433,
            rate_bps: 100_000_000,
            payload: 1172,
            start_ns: 0,
            stop_ns: Nanos::from_millis(200).0,
        });
        net.run_until(Nanos::from_secs(1));
        let gwn = net.node_ref::<PxGateway>(gw);
        assert!(gwn.caravan.stats.caravans_out > 0, "caravans were built");
        let sock = net.node_ref::<Host>(int).udp_socket(4433).unwrap();
        assert!(sock.stats.bundles > 0, "receiver unbundled caravans");
        assert!(sock.stats.datagrams > 0);
        assert_eq!(sock.stats.malformed, 0);
        assert!(
            sock.received.iter().all(|p| p.len() == 1172),
            "datagram boundaries preserved exactly"
        );
    }

    #[test]
    fn steering_hairpins_sparse_flows() {
        let cfg = GatewayConfig {
            steer: Some(SteerConfig {
                elephant_pkts: 1000,
                ..Default::default()
            }),
            ..Default::default()
        };
        let (mut net, ext, gw, int) = topo(cfg);
        net.node_mut::<Host>(ext).listen(
            80,
            ConnConfig::new((EXT, 80), (INT, 0), 1500).sending(20_000),
        );
        net.node_mut::<Host>(int).connect_at(
            0,
            ConnConfig::new((INT, 40000), (EXT, 80), 9000),
            Some(Nanos::from_secs(5).0),
        );
        net.run_until(Nanos::from_secs(6));
        let gwn = net.node_ref::<PxGateway>(gw);
        assert!(
            gwn.merge.stats.steered_mice_pkts > 0,
            "short flow bypassed the merge engine"
        );
        assert_eq!(gwn.merge.stats.data_segs_in, 0, "nothing entered merging");
        let client = net.node_ref::<Host>(int);
        assert_eq!(client.tcp_stats()[0].bytes_received, 20_000);
        assert_eq!(client.tcp_stats()[0].integrity_errors, 0);
    }

    #[test]
    fn fpmtud_probe_passes_unmerged() {
        let (mut net, ext, gw, int) = topo(GatewayConfig {
            steer: None,
            ..Default::default()
        });
        net.node_mut::<Host>(int)
            .udp_bind(UdpSocket::bind(FPMTUD_PORT).recording());
        net.node_mut::<Host>(ext).add_udp_flow(UdpFlowCfg {
            local_port: 7000,
            dst: INT,
            dst_port: FPMTUD_PORT,
            rate_bps: 10_000_000,
            payload: 1400,
            start_ns: 0,
            stop_ns: Nanos::from_millis(50).0,
        });
        net.run_until(Nanos::from_millis(500));
        let gwn = net.node_ref::<PxGateway>(gw);
        assert_eq!(gwn.caravan.stats.caravans_out, 0, "probes never bundled");
        let sock = net.node_ref::<Host>(int).udp_socket(FPMTUD_PORT).unwrap();
        assert!(sock.stats.datagrams > 0);
        assert_eq!(sock.stats.bundles, 0);
    }
}
