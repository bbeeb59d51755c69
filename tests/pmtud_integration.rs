//! Cross-crate PMTUD tests: the three discovery mechanisms against
//! randomized topologies, blackholes, probe loss, and PXGWs on the path.

use packet_express::pmtud::classic::{ClassicConfig, ClassicOutcome, ClassicProber};
use packet_express::pmtud::fpmtud::{FpmtudDaemon, FpmtudProber, ProbeOutcome, ProberConfig};
use packet_express::pmtud::plpmtud::{PlpmtudConfig, PlpmtudProber};
use packet_express::pmtud::topology::{build_path, true_pmtu, Hop, DAEMON_ADDR, PROBER_ADDR};
use packet_express::sim::Nanos;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn fpmtud_on(hops: &[Hop], blackhole: bool, seed: u64) -> ProbeOutcome {
    let prober = FpmtudProber::new(ProberConfig::new(PROBER_ADDR, hops[0].mtu), DAEMON_ADDR);
    let daemon = FpmtudDaemon::new(DAEMON_ADDR);
    let (mut net, p, _) = build_path(seed, prober, daemon, hops, blackhole);
    net.run_until(Nanos::from_secs(20));
    net.node_ref::<FpmtudProber>(p)
        .outcome
        .clone()
        .expect("finished")
}

/// Randomized topologies: F-PMTUD always finds the narrowest hop within
/// fragment-rounding, blackholes or not.
#[test]
fn fpmtud_matches_ground_truth_on_random_paths() {
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    let mtus = [576usize, 1000, 1280, 1500, 2000, 4000, 9000];
    for case in 0..25 {
        let n_hops = rng.gen_range(2..=6);
        let mut hops: Vec<Hop> = (0..n_hops)
            .map(|_| Hop::new(mtus[rng.gen_range(0..mtus.len())], rng.gen_range(10..5000)))
            .collect();
        // The access hop must be the probe size; make it the largest so
        // fragmentation actually exercises.
        hops[0] = Hop::new(9000, 100);
        let blackhole = rng.gen_bool(0.5);
        let truth = true_pmtu(&hops);
        match fpmtud_on(&hops, blackhole, 1000 + case) {
            ProbeOutcome::Discovered { pmtu, .. } => {
                assert!(
                    pmtu <= truth && pmtu + 28 > truth - 8,
                    "case {case}: pmtu {pmtu} vs truth {truth} (hops {:?})",
                    hops.iter().map(|h| h.mtu).collect::<Vec<_>>()
                );
            }
            other => panic!("case {case}: {other:?}"),
        }
    }
}

/// All three mechanisms agree where ICMP works; only F-PMTUD and
/// PLPMTUD survive a blackhole; F-PMTUD is the fastest.
#[test]
fn three_mechanisms_compared_on_one_path() {
    let hops = [
        Hop::new(9000, 100),
        Hop::new(2000, 3000),
        Hop::new(1500, 3000),
        Hop::new(1500, 100),
    ];
    // F-PMTUD.
    let f = match fpmtud_on(&hops, false, 42) {
        ProbeOutcome::Discovered { pmtu, elapsed, .. } => (pmtu, elapsed),
        other => panic!("{other:?}"),
    };
    // Classic.
    let prober = ClassicProber::new(ClassicConfig {
        addr: PROBER_ADDR,
        dst: DAEMON_ADDR,
        initial_mtu: 9000,
        timeout: Nanos::from_millis(500),
        max_tries_per_size: 2,
    });
    let (mut net, p, _) = build_path(43, prober, FpmtudDaemon::new(DAEMON_ADDR), &hops, false);
    net.run_until(Nanos::from_secs(30));
    let classic = match net.node_ref::<ClassicProber>(p).outcome.clone().unwrap() {
        ClassicOutcome::Discovered { pmtu, elapsed, .. } => (pmtu, elapsed),
        other => panic!("{other:?}"),
    };
    // PLPMTUD.
    let prober = PlpmtudProber::new(PlpmtudConfig::scamper(PROBER_ADDR, DAEMON_ADDR, 9000));
    let (mut net, p, _) = build_path(44, prober, FpmtudDaemon::new(DAEMON_ADDR), &hops, false);
    net.run_until(Nanos::from_secs(300));
    let pl = net.node_ref::<PlpmtudProber>(p).outcome.clone().unwrap();

    // Agreement (within discovery resolution).
    let truth = true_pmtu(&hops);
    assert_eq!(classic.0, truth, "classic is exact with ICMP");
    assert!(f.0 <= truth && f.0 + 28 > truth - 8);
    assert!(pl.pmtu <= truth && pl.pmtu + 28 > truth);
    // Ordering: F-PMTUD fastest, PLPMTUD slowest.
    assert!(f.1 < classic.1, "f {} vs classic {}", f.1, classic.1);
    assert!(
        classic.1 < pl.elapsed,
        "classic {} vs pl {}",
        classic.1,
        pl.elapsed
    );
}

/// With a blackhole, classic fails, F-PMTUD is unaffected.
#[test]
fn blackhole_breaks_only_classic() {
    let hops = [
        Hop::new(9000, 100),
        Hop::new(1400, 500),
        Hop::new(1500, 100),
    ];
    match fpmtud_on(&hops, true, 9) {
        ProbeOutcome::Discovered { pmtu, .. } => assert!(pmtu <= 1400 && pmtu > 1300),
        other => panic!("{other:?}"),
    }
    let prober = ClassicProber::new(ClassicConfig {
        addr: PROBER_ADDR,
        dst: DAEMON_ADDR,
        initial_mtu: 9000,
        timeout: Nanos::from_millis(300),
        max_tries_per_size: 2,
    });
    let (mut net, p, _) = build_path(10, prober, FpmtudDaemon::new(DAEMON_ADDR), &hops, true);
    net.run_until(Nanos::from_secs(30));
    assert!(matches!(
        net.node_ref::<ClassicProber>(p).outcome,
        Some(ClassicOutcome::Blackholed { .. })
    ));
}

/// F-PMTUD probes traverse a PXGW b-network border unmerged and still
/// measure the *end-to-end* PMTU correctly (§4.2: "Any PXGW along the
/// path simply forwards the probe packet").
#[test]
fn fpmtud_works_through_a_pxgw() {
    use packet_express::core::gateway::{GatewayConfig, PxGateway, EXTERNAL_PORT, INTERNAL_PORT};
    use packet_express::sim::link::LinkConfig;
    use packet_express::sim::network::Network;
    use packet_express::sim::node::PortId;

    // prober(9000) — gw — daemon(9000-capable b-network): the probe goes
    // *into* the b-network over a 1500 link, so PMTU = 1500.
    let mut net = Network::new(77);
    let prober = net.add_node(FpmtudProber::new(
        ProberConfig::new(PROBER_ADDR, 9000),
        DAEMON_ADDR,
    ));
    let gw = net.add_node(PxGateway::new(GatewayConfig {
        steer: None,
        ..Default::default()
    }));
    let daemon = net.add_node(FpmtudDaemon::new(DAEMON_ADDR));
    // External side is the legacy 1500 network; prober's own link can
    // carry 9000 so the probe leaves whole and a router would have to
    // fragment. Here the *gateway's external link* is the 1500 hop, so
    // the probe must be fragmented by the prober-side router... to keep
    // the topology minimal we attach the prober directly and let the
    // oversize probe be the gateway's problem: PXGW must not merge or
    // drop it.
    net.connect(
        (prober, PortId(0)),
        (gw, EXTERNAL_PORT),
        LinkConfig::new(10_000_000_000, Nanos::from_micros(100), 9000),
    );
    net.connect(
        (gw, INTERNAL_PORT),
        (daemon, PortId(0)),
        LinkConfig::new(10_000_000_000, Nanos::from_micros(100), 9000),
    );
    net.run_until(Nanos::from_secs(5));
    match net
        .node_ref::<FpmtudProber>(prober)
        .outcome
        .clone()
        .expect("finished")
    {
        ProbeOutcome::Discovered {
            pmtu, probes_sent, ..
        } => {
            assert_eq!(pmtu, 9000, "whole path supports jumbo");
            assert_eq!(probes_sent, 1);
        }
        other => panic!("{other:?}"),
    }
    let g = net.node_ref::<PxGateway>(gw);
    assert_eq!(g.caravan.stats.caravans_out, 0, "probe was not bundled");
}

/// Host-level RFC 1191: a sender behind a narrow hop receives ICMP
/// fragmentation-needed, clamps its MSS, and completes — unless the
/// router blackholes ICMP, in which case it stalls forever (the paper's
/// §3 motivation, reproduced at the host).
#[test]
fn host_reacts_to_icmp_frag_needed() {
    use packet_express::sim::link::LinkConfig;
    use packet_express::sim::network::Network;
    use packet_express::sim::node::PortId;
    use packet_express::sim::router::Router;
    use packet_express::tcp::conn::ConnConfig;
    use packet_express::tcp::host::{Host, HostConfig};
    use std::net::Ipv4Addr;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 99, 1);

    let run = |blackhole: bool| {
        let mut net = Network::new(61);
        let a = net.add_node(Host::new(HostConfig::new(A, 1500)));
        let mut r = Router::new(Ipv4Addr::new(10, 0, 50, 1), vec![1500, 1400]);
        r.add_route(Ipv4Addr::new(10, 0, 0, 0), 24, PortId(0));
        r.add_route(Ipv4Addr::new(10, 0, 50, 0), 24, PortId(0));
        r.add_route(Ipv4Addr::new(10, 0, 99, 0), 24, PortId(1));
        r.icmp_blackhole = blackhole;
        let rt = net.add_node(r);
        let b = net.add_node(Host::new(HostConfig::new(B, 1500)));
        net.connect(
            (a, PortId(0)),
            (rt, PortId(0)),
            LinkConfig::new(1_000_000_000, Nanos::from_micros(100), 1500),
        );
        net.connect(
            (rt, PortId(1)),
            (b, PortId(0)),
            LinkConfig::new(1_000_000_000, Nanos::from_micros(100), 1500),
        );
        let total = 200_000u64;
        net.node_mut::<Host>(b)
            .listen(80, ConnConfig::new((B, 80), (A, 0), 1500));
        net.node_mut::<Host>(a).connect_at(
            0,
            ConnConfig::new((A, 40000), (B, 80), 1500).sending(total),
            Some(Nanos::from_secs(25).0),
        );
        net.run_until(Nanos::from_secs(30));
        let st = net.node_ref::<Host>(b).tcp_stats()[0];
        (st.bytes_received, st.integrity_errors, total)
    };

    let (with_icmp, errs, total) = run(false);
    assert_eq!(with_icmp, total, "RFC 1191 clamp lets the transfer finish");
    assert_eq!(errs, 0);

    let (blackholed, _, total) = run(true);
    assert!(
        blackholed < total,
        "ICMP blackhole must strand the DF sender ({blackholed}/{total})"
    );
}
