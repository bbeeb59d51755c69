//! Cross-crate end-to-end tests: hosts + gateway + routers + impairments,
//! asserting the property the whole system stands on — *translation is
//! transparent*: byte streams and datagram boundaries survive any mix of
//! merging, splitting, MSS rewriting, loss, and reordering.

use packet_express::core::gateway::{GatewayConfig, PxGateway, EXTERNAL_PORT, INTERNAL_PORT};
use packet_express::core::steer::SteerConfig;
use packet_express::sim::link::LinkConfig;
use packet_express::sim::netem::Netem;
use packet_express::sim::network::Network;
use packet_express::sim::node::{NodeId, PortId};
use packet_express::sim::Nanos;
use packet_express::tcp::conn::{CcAlgo, ConnConfig};
use packet_express::tcp::host::{Host, HostConfig, UdpFlowCfg};
use packet_express::tcp::udp::UdpSocket;
use std::net::Ipv4Addr;

const EXT: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
const INT: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 2);

fn topo(seed: u64, cfg: GatewayConfig, wan: Netem) -> (Network, NodeId, NodeId, NodeId) {
    let mut net = Network::new(seed);
    let ext = net.add_node(Host::new(HostConfig::new(EXT, 1500)));
    let gw = net.add_node(PxGateway::new(cfg));
    let mut int_cfg = HostConfig::new(INT, 9000);
    int_cfg.caravan_rx = true;
    let int = net.add_node(Host::new(int_cfg));
    net.connect(
        (ext, PortId(0)),
        (gw, EXTERNAL_PORT),
        LinkConfig::new(10_000_000_000, Nanos::from_micros(100), 1500)
            .with_netem(wan)
            .with_queue(1000 * 1500),
    );
    net.connect(
        (gw, INTERNAL_PORT),
        (int, PortId(0)),
        LinkConfig::new(40_000_000_000, Nanos::from_micros(20), 9000),
    );
    (net, ext, gw, int)
}

/// Bidirectional bulk TCP through the gateway over a lossy external
/// link: everything delivered, nothing corrupted, in both directions.
#[test]
fn lossy_bidirectional_tcp_is_transparent() {
    let wan = Netem::delay_loss(Nanos::from_millis(2), 5e-4);
    let (mut net, ext, gw, int) = topo(
        5,
        GatewayConfig {
            steer: None,
            ..Default::default()
        },
        wan,
    );
    let down = 2_000_000u64;
    let up = 1_500_000u64;
    net.node_mut::<Host>(ext)
        .listen(80, ConnConfig::new((EXT, 80), (INT, 0), 1500).sending(down));
    net.node_mut::<Host>(int).connect_at(
        0,
        ConnConfig::new((INT, 40000), (EXT, 80), 9000).sending(up),
        Some(Nanos::from_secs(30).0),
    );
    net.run_until(Nanos::from_secs(30));
    let c = net.node_ref::<Host>(int).tcp_stats()[0];
    let s = net.node_ref::<Host>(ext).tcp_stats()[0];
    assert_eq!(c.bytes_received, down);
    assert_eq!(s.bytes_received, up);
    assert_eq!(c.integrity_errors + s.integrity_errors, 0);
    // The gateway genuinely worked both sides.
    let g = net.node_ref::<PxGateway>(gw);
    assert!(g.merge.stats.data_segs_in > 0);
    assert!(g.split.stats.split > 0);
}

/// Many concurrent flows with steering enabled: mice hairpin, elephants
/// merge, every stream stays intact.
#[test]
fn mixed_flows_with_steering_stay_intact() {
    let cfg = GatewayConfig {
        steer: Some(SteerConfig {
            elephant_pkts: 8,
            ..Default::default()
        }),
        ..Default::default()
    };
    let (mut net, ext, gw, int) = topo(6, cfg, Netem::none());
    // 3 bulk downloads + 5 tiny requests.
    for i in 0..3u16 {
        net.node_mut::<Host>(ext).listen(
            80 + i,
            ConnConfig::new((EXT, 80 + i), (INT, 0), 1500).sending(1_000_000),
        );
        net.node_mut::<Host>(int).connect_at(
            (i as u64) * 2_000_000,
            ConnConfig::new((INT, 40000 + i), (EXT, 80 + i), 9000),
            Some(Nanos::from_secs(20).0),
        );
    }
    for i in 0..5u16 {
        net.node_mut::<Host>(ext).listen(
            90 + i,
            ConnConfig::new((EXT, 90 + i), (INT, 0), 1500).sending(4_000),
        );
        net.node_mut::<Host>(int).connect_at(
            1_000_000 + (i as u64) * 3_000_000,
            ConnConfig::new((INT, 41000 + i), (EXT, 90 + i), 9000),
            Some(Nanos::from_secs(20).0),
        );
    }
    net.run_until(Nanos::from_secs(15));
    let int_host = net.node_ref::<Host>(int);
    let stats = int_host.tcp_stats();
    assert_eq!(stats.len(), 8);
    let total: u64 = stats.iter().map(|s| s.bytes_received).sum();
    assert_eq!(total, 3 * 1_000_000 + 5 * 4_000);
    assert_eq!(stats.iter().map(|s| s.integrity_errors).sum::<u64>(), 0);
    let g = net.node_ref::<PxGateway>(gw);
    assert!(g.merge.stats.steered_mice_pkts > 0, "mice were hairpinned");
    assert!(g.merge.stats.data_segs_in > 0, "elephants were merged");
}

/// Steering is for TCP: with it on, a UDP flow's first datagrams are
/// not hairpinned as mice but reach the caravan engine like the rest.
#[test]
fn steering_never_hairpins_udp() {
    let (mut net, ext, gw, int) = topo(11, GatewayConfig::default(), Netem::none());
    net.node_mut::<Host>(int)
        .udp_bind(UdpSocket::bind(4433).recording());
    net.node_mut::<Host>(ext).add_udp_flow(UdpFlowCfg {
        local_port: 7000,
        dst: INT,
        dst_port: 4433,
        rate_bps: 100_000_000,
        payload: 1172,
        start_ns: 0,
        stop_ns: Nanos::from_millis(20).0,
    });
    net.run_until(Nanos::from_millis(200));
    let sent = net
        .node_ref::<Host>(ext)
        .udp_socket(7000)
        .unwrap()
        .stats
        .sent;
    assert!(sent > 0);
    let g = net.node_ref::<PxGateway>(gw);
    assert_eq!(
        g.caravan.stats.pkts_in, sent,
        "every datagram was offered to caravan bundling"
    );
    assert_eq!(g.merge.stats.steered_mice_pkts, 0);
    let sock = net.node_ref::<Host>(int).udp_socket(4433).unwrap();
    assert_eq!(sock.stats.datagrams, sent);
}

/// UDP caravans under loss: every datagram that survives the WAN arrives
/// exactly once, with its boundary intact, despite bundling/unbundling.
#[test]
fn caravan_boundaries_survive_loss() {
    let wan = Netem::delay_loss(Nanos::from_millis(1), 2e-3);
    let (mut net, ext, gw, int) = topo(
        7,
        GatewayConfig {
            steer: None,
            ..Default::default()
        },
        wan,
    );
    net.node_mut::<Host>(int)
        .udp_bind(UdpSocket::bind(4433).recording());
    net.node_mut::<Host>(ext).add_udp_flow(UdpFlowCfg {
        local_port: 7000,
        dst: INT,
        dst_port: 4433,
        rate_bps: 200_000_000,
        payload: 1172,
        start_ns: 0,
        stop_ns: Nanos::from_millis(500).0,
    });
    net.run_until(Nanos::from_secs(2));
    let sent = net
        .node_ref::<Host>(ext)
        .udp_socket(7000)
        .unwrap()
        .stats
        .sent;
    let sock = net.node_ref::<Host>(int).udp_socket(4433).unwrap();
    assert!(sock.stats.datagrams > 0);
    assert!(sock.stats.datagrams <= sent);
    // Loss is per external wire packet, before bundling: delivery rate
    // stays near the raw survival rate.
    let rate = sock.stats.datagrams as f64 / sent as f64;
    assert!(rate > 0.98, "delivery rate {rate}");
    assert_eq!(sock.stats.malformed, 0);
    assert!(sock.received.iter().all(|p| p.len() == 1172));
    assert!(net.node_ref::<PxGateway>(gw).caravan.stats.caravans_out > 0);
}

/// CUBIC also works through the gateway (ablation of the cc algorithm).
#[test]
fn cubic_flows_through_gateway() {
    let (mut net, ext, _gw, int) = topo(
        8,
        GatewayConfig {
            steer: None,
            ..Default::default()
        },
        Netem::none(),
    );
    let mut server_cfg = ConnConfig::new((EXT, 80), (INT, 0), 1500).sending(1_000_000);
    server_cfg.cc = CcAlgo::Cubic;
    net.node_mut::<Host>(ext).listen(80, server_cfg);
    let mut client_cfg = ConnConfig::new((INT, 40000), (EXT, 80), 9000);
    client_cfg.cc = CcAlgo::Cubic;
    net.node_mut::<Host>(int)
        .connect_at(0, client_cfg, Some(Nanos::from_secs(10).0));
    net.run_until(Nanos::from_secs(10));
    let c = net.node_ref::<Host>(int).tcp_stats()[0];
    assert_eq!(c.bytes_received, 1_000_000);
    assert_eq!(c.integrity_errors, 0);
}

/// The well-known-port constants of px-core and px-pmtud must agree, or
/// gateways would bundle F-PMTUD probes.
#[test]
fn fpmtud_port_constants_agree() {
    assert_eq!(
        packet_express::core::gateway::FPMTUD_PORT,
        packet_express::pmtud::FPMTUD_PORT
    );
}

/// §3's interference setting: a mouse flow beside a busy elephant is
/// delivered in full whether or not steering hairpins it past the merge
/// engine's hold timer (the latency comparison is
/// `mouse_latency_measured` below). The elephant ramps to line rate in
/// a few milliseconds, so 30 ms of it is as busy as 10 s.
#[test]
fn steering_improves_mouse_completion_time() {
    let run = |steer: Option<SteerConfig>| {
        let cfg = GatewayConfig {
            steer,
            hold_ns: 500_000, // pronounced hold to make the effect visible
            ..Default::default()
        };
        let (mut net, ext, gw, int) = topo(9, cfg, Netem::none());
        // A long-running elephant download keeps the merge engine busy.
        net.node_mut::<Host>(ext).listen(
            80,
            ConnConfig::new((EXT, 80), (INT, 0), 1500).sending(u64::MAX),
        );
        net.node_mut::<Host>(int).connect_at(
            0,
            ConnConfig::new((INT, 40000), (EXT, 80), 9000),
            Some(Nanos::from_millis(30).0),
        );
        // The mouse: an 8 KB response starting once the elephant runs
        // at line rate.
        net.node_mut::<Host>(ext).listen(
            81,
            ConnConfig::new((EXT, 81), (INT, 0), 1500).sending(8_000),
        );
        net.node_mut::<Host>(int).connect_at(
            Nanos::from_millis(10).0,
            ConnConfig::new((INT, 41000), (EXT, 81), 9000),
            Some(Nanos::from_millis(30).0),
        );
        net.run_until(Nanos::from_millis(30));
        let stats = net.node_ref::<Host>(int).tcp_stats();
        let mouse = stats.iter().find(|s| s.local_port == 41000).unwrap();
        let elephant = stats.iter().find(|s| s.local_port == 40000).unwrap();
        assert_eq!(mouse.bytes_received, 8_000);
        assert_eq!(mouse.integrity_errors + elephant.integrity_errors, 0);
        // Busy: over a gigabit per second on average (≈ 3 Gbit/s).
        assert!(elephant.bytes_received > 4_000_000, "{elephant:?}");
        let merge = &net.node_ref::<PxGateway>(gw).merge.stats;
        (merge.steered_mice_pkts, merge.data_segs_in)
    };
    let (steered, merged) = run(None);
    assert_eq!(steered, 0);
    assert!(merged > 0, "the elephant went through the merge engine");
    let (steered, merged) = run(Some(SteerConfig {
        elephant_pkts: 64,
        ..Default::default()
    }));
    assert!(steered > 0, "the mouse was hairpinned");
    assert!(merged > 0, "the elephant was promoted and merged");
}

/// Direct latency measurement: time-to-last-byte of the mouse flow, with
/// and without steering, under a heavy elephant and a long hold timer.
#[test]
fn mouse_latency_measured() {
    let time_to_done = |steer: Option<SteerConfig>| -> u64 {
        let cfg = GatewayConfig {
            steer,
            hold_ns: 2_000_000,
            ..Default::default()
        };
        let (mut net, ext, _gw, int) = topo(10, cfg, Netem::none());
        net.node_mut::<Host>(ext).listen(
            81,
            ConnConfig::new((EXT, 81), (INT, 0), 1500).sending(64_000),
        );
        net.node_mut::<Host>(int).connect_at(
            0,
            ConnConfig::new((INT, 41000), (EXT, 81), 9000),
            Some(Nanos::from_secs(9).0),
        );
        // Sample the receive counter in fine steps; record completion.
        let mut done_at = 0u64;
        for step in 1..=4000u64 {
            net.run_until(Nanos(step * 1_000_000));
            let got = net.node_ref::<Host>(int).tcp_stats()[0].bytes_received;
            if got >= 64_000 {
                done_at = step;
                break;
            }
        }
        assert!(done_at > 0, "mouse must complete");
        done_at
    };
    let without = time_to_done(None);
    let with = time_to_done(Some(SteerConfig {
        elephant_pkts: 1_000_000,
        ..Default::default()
    }));
    // With steering (flow never promoted: pure hairpin), the mouse avoids
    // the 2 ms hold per partial aggregate and finishes no later.
    assert!(
        with <= without,
        "steered mouse finished at {with} ms vs {without} ms unsteered"
    );
}
