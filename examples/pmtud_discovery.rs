//! Path-MTU discovery shoot-out on a path with an ICMP blackhole.
//!
//! A 5-hop WAN path narrows from 9000 B to 1000 B, and (as is depressingly
//! common on the real Internet) its routers are configured to suppress
//! ICMP. Three probers try to find the path MTU:
//!
//! * classic RFC 1191 PMTUD — needs ICMP, gets nothing, fails;
//! * RFC 4821 PLPMTUD (Scamper-style) — succeeds, but pays a timeout for
//!   every probe size that silently vanishes;
//! * F-PMTUD — one DF-clear probe, routers fragment it, the daemon
//!   reports the fragment sizes: done in a single RTT.
//!
//! Run with: `cargo run --release --example pmtud_discovery`

use packet_express::pmtud::classic::{ClassicConfig, ClassicOutcome, ClassicProber};
use packet_express::pmtud::fpmtud::{FpmtudDaemon, FpmtudProber, ProbeOutcome, ProberConfig};
use packet_express::pmtud::plpmtud::{PlpmtudConfig, PlpmtudProber};
use packet_express::pmtud::topology::{build_path, true_pmtu, Hop, DAEMON_ADDR, PROBER_ADDR};
use packet_express::sim::Nanos;

fn hops() -> Vec<Hop> {
    vec![
        Hop::new(9000, 2_000),
        Hop::new(4000, 8_000),
        Hop::new(1000, 12_000), // the bottleneck
        Hop::new(1500, 8_000),
        Hop::new(1500, 2_000),
    ]
}

fn main() {
    let path = hops();
    println!("── PMTU discovery through an ICMP blackhole ──────────────");
    println!(
        "path MTUs: {:?}  (true PMTU = {} B), all routers blackholed\n",
        path.iter().map(|h| h.mtu).collect::<Vec<_>>(),
        true_pmtu(&path)
    );

    // 1. Classic PMTUD.
    let prober = ClassicProber::new(ClassicConfig {
        addr: PROBER_ADDR,
        dst: DAEMON_ADDR,
        initial_mtu: 9000,
        timeout: Nanos::from_millis(800),
        max_tries_per_size: 3,
    });
    let (mut net, p, _) = build_path(1, prober, FpmtudDaemon::new(DAEMON_ADDR), &path, true);
    net.run_until(Nanos::from_secs(60));
    match net.node_ref::<ClassicProber>(p).outcome.clone().unwrap() {
        ClassicOutcome::Blackholed { probes_sent, stuck_at } => println!(
            "classic PMTUD : FAILED — {probes_sent} probes vanished, stuck believing PMTU={stuck_at}"
        ),
        ClassicOutcome::Discovered { pmtu, elapsed, .. } => {
            println!("classic PMTUD : {pmtu} B in {elapsed} (no blackhole?)")
        }
    }

    // 2. PLPMTUD.
    let prober = PlpmtudProber::new(PlpmtudConfig::scamper(PROBER_ADDR, DAEMON_ADDR, 9000));
    let (mut net, p, _) = build_path(2, prober, FpmtudDaemon::new(DAEMON_ADDR), &path, true);
    net.run_until(Nanos::from_secs(600));
    let pl = net.node_ref::<PlpmtudProber>(p).outcome.clone().unwrap();
    println!(
        "PLPMTUD       : {} B in {} ({} probes, {} timeouts)",
        pl.pmtu, pl.elapsed, pl.probes_sent, pl.timeouts
    );

    // 3. F-PMTUD.
    let prober = FpmtudProber::new(ProberConfig::new(PROBER_ADDR, 9000), DAEMON_ADDR);
    let (mut net, p, _) = build_path(3, prober, FpmtudDaemon::new(DAEMON_ADDR), &path, true);
    net.run_until(Nanos::from_secs(10));
    match net.node_ref::<FpmtudProber>(p).outcome.clone().unwrap() {
        ProbeOutcome::Discovered {
            pmtu,
            elapsed,
            fragment_sizes,
            probes_sent,
        } => {
            println!(
                "F-PMTUD       : {pmtu} B in {elapsed} ({probes_sent} probe; daemon saw {} fragments: {:?})",
                fragment_sizes.len(),
                fragment_sizes
            );
            println!(
                "\nF-PMTUD was {:.0}x faster than PLPMTUD — and immune to the blackhole\nthat defeated classic PMTUD entirely.",
                pl.elapsed.0 as f64 / elapsed.0 as f64
            );
        }
        other => println!("F-PMTUD      : unexpected outcome {other:?}"),
    }
}
