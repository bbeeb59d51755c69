//! The PXGW-resident F-PMTUD client (§4.2 end-to-end mechanism): the
//! gateway probes external destinations and splits to the *discovered*
//! path MTU instead of the configured eMTU.

use packet_express::core::gateway::{GatewayConfig, PxGateway, EXTERNAL_PORT, INTERNAL_PORT};
use packet_express::sim::link::LinkConfig;
use packet_express::sim::network::Network;
use packet_express::sim::node::{Ctx, Node, NodeId, PortId};
use packet_express::sim::router::Router;
use packet_express::sim::Nanos;
use packet_express::tcp::conn::ConnConfig;
use packet_express::tcp::host::{Host, HostConfig};
use packet_express::wire::fpmtud::{parse_probe, report_payload, FPMTUD_PORT};
use packet_express::wire::ipv4::{Ipv4Packet, Ipv4Repr};
use packet_express::wire::{IpProtocol, PacketBuf, UdpRepr};
use std::any::Any;
use std::net::Ipv4Addr;

const BHOST: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
const GW_ADDR: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const EXT: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 5);

/// An on-path attacker in front of the external host. It forwards
/// everything, and when a probe's first fragment passes it sends the
/// gateway four forged reports for that probe: the untagged format
/// (guessed id, no nonce), a wrong nonce, the right nonce from a wrong
/// source, and the right nonce claiming more than the probe's size. Each
/// claims the 9000 B path that would black-hole the 1400 B hop.
struct Forger;

impl Forger {
    fn forge(ctx: &mut Ctx<'_>, from: Ipv4Addr, payload: &[u8]) {
        let dg = UdpRepr {
            src_port: FPMTUD_PORT,
            dst_port: FPMTUD_PORT,
        }
        .build_datagram(from, GW_ADDR, payload)
        .unwrap();
        let pkt = Ipv4Repr::new(from, GW_ADDR, IpProtocol::Udp, dg.len())
            .build_packet(&dg)
            .unwrap();
        ctx.send(PortId(0), PacketBuf::from_payload(&pkt));
    }
}

impl Node for Forger {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: PacketBuf) {
        let probe = Ipv4Packet::new_checked(pkt.as_slice())
            .ok()
            .filter(|ip| ip.src() == GW_ADDR && ip.frag_offset() == 0)
            .and_then(|ip| ip.payload().get(8..).and_then(parse_probe));
        if let Some((id, nonce)) = probe {
            let mut untagged = b"FPMR".to_vec();
            untagged.extend_from_slice(&id.to_be_bytes());
            untagged.extend_from_slice(&[0, 1, 0x23, 0x28]); // one size: 9000
            Self::forge(ctx, EXT, &untagged);
            Self::forge(ctx, EXT, &report_payload(id, nonce ^ 1, &[9000]));
            Self::forge(
                ctx,
                Ipv4Addr::new(203, 0, 113, 66),
                &report_payload(id, nonce, &[9000]),
            );
            Self::forge(ctx, EXT, &report_payload(id, nonce, &[9000, 65_535]));
        }
        ctx.send(PortId(1 - port.0), pkt);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// b-host (9000) — gw — router — external host, where the router's
/// egress towards the external host has `narrow_mtu`; with `forger`, a
/// [`Forger`] sits between the router and the external host.
fn topo(
    narrow_mtu: usize,
    ext_host_mtu: usize,
    pmtud: bool,
    forger: bool,
) -> (Network, NodeId, NodeId, NodeId) {
    let mut net = Network::new(55);
    let bhost = net.add_node(Host::new(HostConfig::new(BHOST, 9000)));
    let gw = net.add_node(PxGateway::new(GatewayConfig {
        steer: None,
        pmtud_addr: pmtud.then_some(GW_ADDR),
        ..Default::default()
    }));
    let mut router = Router::new(Ipv4Addr::new(192, 0, 2, 254), vec![9000, narrow_mtu]);
    router.add_route(Ipv4Addr::new(10, 1, 0, 0), 16, PortId(0));
    router.add_route(Ipv4Addr::new(192, 0, 2, 0), 24, PortId(0));
    router.add_route(Ipv4Addr::new(198, 51, 100, 0), 24, PortId(1));
    let rt = net.add_node(router);
    let mut ext_cfg = HostConfig::new(EXT, ext_host_mtu);
    ext_cfg.fpmtud_daemon = true; // the paper's "daemon on the destination"
    let ext = net.add_node(Host::new(ext_cfg));
    net.connect(
        (bhost, PortId(0)),
        (gw, INTERNAL_PORT),
        LinkConfig::new(40_000_000_000, Nanos::from_micros(20), 9000),
    );
    net.connect(
        (gw, EXTERNAL_PORT),
        (rt, PortId(0)),
        LinkConfig::new(10_000_000_000, Nanos::from_micros(100), 9000),
    );
    let far_link = LinkConfig::new(
        10_000_000_000,
        Nanos::from_micros(100),
        narrow_mtu.max(ext_host_mtu),
    );
    if forger {
        let f = net.add_node(Forger);
        net.connect((rt, PortId(1)), (f, PortId(0)), far_link);
        net.connect((f, PortId(1)), (ext, PortId(0)), far_link);
    } else {
        net.connect((rt, PortId(1)), (ext, PortId(0)), far_link);
    }
    (net, bhost, gw, ext)
}

fn upload(net: &mut Network, bhost: NodeId, ext: NodeId, total: u64, ext_mtu: usize) {
    net.node_mut::<Host>(ext)
        .listen(80, ConnConfig::new((EXT, 80), (BHOST, 0), ext_mtu));
    net.node_mut::<Host>(bhost).connect_at(
        0,
        ConnConfig::new((BHOST, 40000), (EXT, 80), 9000).sending(total),
        Some(Nanos::from_secs(25).0),
    );
    net.run_until(Nanos::from_secs(25));
}

/// A 1400 B hop hides behind the gateway's 1500 B assumption. Without
/// PMTUD the gateway's DF segments die at the router; with the resident
/// F-PMTUD client it learns the real PMTU and the transfer completes.
#[test]
fn pmtud_client_rescues_a_narrow_path() {
    // Without PMTUD: broken (the paper's §3 failure mode — the ICMP goes
    // to the *sender*, which cannot act on the gateway's behalf).
    let (mut net, bhost, _gw, ext) = topo(1400, 1500, false, false);
    upload(&mut net, bhost, ext, 300_000, 1500);
    let without = net.node_ref::<Host>(ext).tcp_stats()[0].bytes_received;
    assert!(
        without < 300_000,
        "static eMTU across a 1400B hop should strand the transfer ({without})"
    );
    assert!(
        net.stats().pkts_dropped_df > 0,
        "router dropped DF segments"
    );

    // With PMTUD: the gateway probes, learns ~1396, splits to it.
    let (mut net, bhost, gw, ext) = topo(1400, 1500, true, false);
    upload(&mut net, bhost, ext, 300_000, 1500);
    let st = net.node_ref::<Host>(ext).tcp_stats()[0];
    assert_eq!(st.bytes_received, 300_000, "PMTUD-aware split completes");
    assert_eq!(st.integrity_errors, 0);
    let g = net.node_ref::<PxGateway>(gw);
    let client = g.pmtud.as_ref().unwrap();
    assert_eq!(client.probes_sent, 1);
    let learned = client.pmtu_for(EXT).expect("report came back");
    assert!(learned <= 1400 && learned > 1360, "learned {learned}");
    assert!(
        net.node_ref::<Host>(ext).fpmtud_reports >= 1,
        "host daemon served"
    );
}

/// The opposite direction: the whole external path turns out to be
/// jumbo-capable, so the gateway stops splitting entirely — extending
/// the large-MTU segment end-to-end with zero configuration.
#[test]
fn pmtud_client_discovers_a_jumbo_path() {
    let (mut net, bhost, gw, ext) = topo(9000, 9000, true, false);
    upload(&mut net, bhost, ext, 2_000_000, 9000);
    let st = net.node_ref::<Host>(ext).tcp_stats()[0];
    assert_eq!(st.bytes_received, 2_000_000);
    assert_eq!(st.integrity_errors, 0);
    let g = net.node_ref::<PxGateway>(gw);
    assert_eq!(g.pmtud.as_ref().unwrap().pmtu_for(EXT), Some(9000));
    // Almost nothing needed splitting once the jumbo PMTU was learned
    // (only the pre-report transient).
    let split = g.split.stats.split;
    assert!(split <= 3, "jumbo path should flow unsplit, split={split}");
    // And the receiver really saw jumbo segments: its MSS was 8948
    // (9000-capable) and the gateway raised nothing above it.
    assert_eq!(st.effective_mss, 8960);
}

/// Forged reports cannot raise the split MTU past a 1400 B hop: each of
/// the [`Forger`]'s reports reaches the gateway before the daemon's
/// genuine one, and each is consumed without effect — none is forwarded
/// into the b-network — so the gateway still learns ≤ 1400 B and the
/// transfer completes intact.
#[test]
fn forged_report_cannot_raise_the_split_mtu() {
    let (mut net, bhost, gw, ext) = topo(1400, 1500, true, true);
    upload(&mut net, bhost, ext, 300_000, 1500);
    let client = net.node_ref::<PxGateway>(gw).pmtud.as_ref().unwrap();
    let learned = client.pmtu_for(EXT).expect("report came back");
    assert!(learned <= 1400 && learned > 1360, "learned {learned}");
    let st = net.node_ref::<Host>(ext).tcp_stats()[0];
    assert_eq!(st.bytes_received, 300_000, "transfer completes");
    assert_eq!(st.integrity_errors, 0);
    // The untagged report does not parse as a report; it is consumed
    // with the three that parse and fail a check.
    assert_eq!(client.spoof_rejected, 4);
    assert_eq!(client.reports_received, 1);
    // Nothing addressed to the gateway reached the b-host.
    assert_eq!(net.node_ref::<Host>(bhost).misdelivered, 0);
}
