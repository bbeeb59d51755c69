//! F-PMTUD correctness matrix over randomized multi-hop topologies:
//! for every topology × {ICMP working, ICMP blackholed}, the one-RTT
//! fragmentation-based answer must equal the true minimum link MTU
//! (within IPv4 fragment rounding), and where ICMP is unsuppressed it
//! must agree with what classic RFC 1191 PMTUD converges to.

use packet_express::pmtud::classic::{ClassicConfig, ClassicOutcome, ClassicProber};
use packet_express::pmtud::fpmtud::{FpmtudDaemon, FpmtudProber, ProbeOutcome, ProberConfig};
use packet_express::pmtud::topology::{
    build_path, path_delay, true_pmtu, Hop, DAEMON_ADDR, PROBER_ADDR,
};
use packet_express::sim::Nanos;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn run_fpmtud(hops: &[Hop], blackhole: bool, seed: u64) -> ProbeOutcome {
    let prober = FpmtudProber::new(ProberConfig::new(PROBER_ADDR, hops[0].mtu), DAEMON_ADDR);
    let (mut net, p, _) = build_path(
        seed,
        prober,
        FpmtudDaemon::new(DAEMON_ADDR),
        hops,
        blackhole,
    );
    net.run_until(Nanos::from_secs(20));
    net.node_ref::<FpmtudProber>(p)
        .outcome
        .clone()
        .expect("prober finished")
}

fn run_classic(hops: &[Hop], blackhole: bool, seed: u64) -> ClassicOutcome {
    let prober = ClassicProber::new(ClassicConfig {
        addr: PROBER_ADDR,
        dst: DAEMON_ADDR,
        initial_mtu: hops[0].mtu,
        timeout: Nanos::from_millis(500),
        max_tries_per_size: 2,
    });
    let (mut net, p, _) = build_path(
        seed,
        prober,
        FpmtudDaemon::new(DAEMON_ADDR),
        hops,
        blackhole,
    );
    net.run_until(Nanos::from_secs(60));
    net.node_ref::<ClassicProber>(p)
        .outcome
        .clone()
        .expect("prober finished")
}

/// A random topology: jumbo access hop, then 1–5 random narrower hops.
/// At least one hop is guaranteed below the probe size so discovery has
/// something to find (and classic PMTUD genuinely needs ICMP).
fn random_hops(rng: &mut SmallRng) -> Vec<Hop> {
    let mtus = [576usize, 1000, 1280, 1500, 2000, 4000];
    let n = rng.gen_range(2..=6);
    let mut hops = vec![Hop::new(9000, 100)];
    for _ in 1..n {
        hops.push(Hop::new(
            mtus[rng.gen_range(0..mtus.len())],
            rng.gen_range(20..3000),
        ));
    }
    hops
}

/// The matrix: randomized topologies × blackhole on/off. F-PMTUD must
/// always land on the true min-link MTU within fragment rounding (its
/// answer is the largest 8-byte-aligned payload cut the narrowest
/// router made, so it can sit up to one fragment-rounding step below
/// the link MTU), blackhole or not.
#[test]
fn fpmtud_equals_true_min_link_mtu_across_matrix() {
    let mut rng = SmallRng::seed_from_u64(0x3A7A);
    for case in 0..15u64 {
        let hops = random_hops(&mut rng);
        let truth = true_pmtu(&hops);
        for blackhole in [false, true] {
            match run_fpmtud(&hops, blackhole, 0x100 + case) {
                ProbeOutcome::Discovered {
                    pmtu, probes_sent, ..
                } => {
                    assert!(
                        pmtu <= truth && pmtu + 28 > truth - 8,
                        "case {case} blackhole={blackhole}: pmtu {pmtu} vs truth {truth} \
                         (hops {:?})",
                        hops.iter().map(|h| h.mtu).collect::<Vec<_>>()
                    );
                    assert!(probes_sent >= 1);
                }
                other => panic!("case {case} blackhole={blackhole}: {other:?}"),
            }
        }
    }
}

/// Where ICMP is unsuppressed, classic PMTUD converges to the exact
/// min-link MTU and F-PMTUD agrees within fragment rounding; with a
/// blackhole, classic fails while F-PMTUD's answer is unchanged.
#[test]
fn fpmtud_agrees_with_classic_when_icmp_works() {
    let mut rng = SmallRng::seed_from_u64(0xC1A5);
    for case in 0..8u64 {
        let hops = random_hops(&mut rng);
        let truth = true_pmtu(&hops);
        let f_open = match run_fpmtud(&hops, false, 0x200 + case) {
            ProbeOutcome::Discovered { pmtu, .. } => pmtu,
            other => panic!("case {case}: f-pmtud {other:?}"),
        };
        let f_dark = match run_fpmtud(&hops, true, 0x300 + case) {
            ProbeOutcome::Discovered { pmtu, .. } => pmtu,
            other => panic!("case {case}: f-pmtud/blackhole {other:?}"),
        };
        assert_eq!(
            f_open, f_dark,
            "case {case}: F-PMTUD must not depend on ICMP"
        );
        match run_classic(&hops, false, 0x400 + case) {
            ClassicOutcome::Discovered { pmtu, .. } => {
                assert_eq!(pmtu, truth, "case {case}: classic is exact with ICMP");
                assert!(
                    f_open <= pmtu && f_open + 28 > pmtu - 8,
                    "case {case}: f {} vs classic {}",
                    f_open,
                    pmtu
                );
            }
            other => panic!("case {case}: classic {other:?}"),
        }
        assert!(
            matches!(
                run_classic(&hops, true, 0x500 + case),
                ClassicOutcome::Blackholed { .. }
            ),
            "case {case}: classic must blackhole without ICMP"
        );
    }
}

/// A destination that answers nothing (probes addressed past the
/// daemon, which ignores them) exhausts its retries on the
/// deterministic doubling schedule — 2 s, 4 s, 8 s — and then clamps
/// to the configured fallback (the eMTU) instead of staying unknown.
#[test]
fn unanswered_probes_back_off_then_clamp_to_emtu_fallback() {
    use std::net::Ipv4Addr;
    let hops = [Hop::new(9000, 100), Hop::new(1500, 100)];
    let dark = Ipv4Addr::new(203, 0, 113, 99); // nobody answers here
    let mut cfg = ProberConfig::new(PROBER_ADDR, hops[0].mtu);
    cfg.fallback_pmtu = 1500;
    let prober = FpmtudProber::new(cfg, dark);
    let (mut net, p, _) = build_path(9, prober, FpmtudDaemon::new(DAEMON_ADDR), &hops, false);
    // Doubling schedule: retries at 2 s and 6 s, final timeout at
    // 14 s. A flat 2 s schedule would give up at 6 s — at 7 s the
    // doubling prober must still be waiting on its third (8 s) timer.
    net.run_until(Nanos::from_secs(7));
    assert!(
        net.node_ref::<FpmtudProber>(p).outcome.is_none(),
        "still backing off at 7 s"
    );
    net.run_until(Nanos::from_secs(15));
    match net
        .node_ref::<FpmtudProber>(p)
        .outcome
        .clone()
        .expect("resolved by 15 s")
    {
        ProbeOutcome::BlackholedToFallback { pmtu, probes_sent } => {
            assert_eq!(pmtu, 1500, "clamped to the static eMTU");
            assert_eq!(probes_sent, 3);
        }
        other => panic!("{other:?}"),
    }
    // Without a fallback the same schedule ends in a plain timeout.
    let prober = FpmtudProber::new(ProberConfig::new(PROBER_ADDR, hops[0].mtu), dark);
    let (mut net, p, _) = build_path(10, prober, FpmtudDaemon::new(DAEMON_ADDR), &hops, false);
    net.run_until(Nanos::from_secs(15));
    assert_eq!(
        net.node_ref::<FpmtudProber>(p).outcome.clone(),
        Some(ProbeOutcome::TimedOut { probes_sent: 3 })
    );
}

/// The "F" in F-PMTUD: discovery completes in about one round trip —
/// a single probe whose elapsed time is on the order of the path RTT,
/// not the many-RTT binary search classic PMTUD performs.
#[test]
fn fpmtud_is_one_round_trip() {
    let hops = [
        Hop::new(9000, 2000),
        Hop::new(1500, 4000),
        Hop::new(1000, 2000),
        Hop::new(1500, 1000),
    ];
    let rtt = Nanos(2 * path_delay(&hops).0);
    match run_fpmtud(&hops, false, 77) {
        ProbeOutcome::Discovered {
            probes_sent,
            elapsed,
            ..
        } => {
            assert_eq!(probes_sent, 1, "no retries on a clean path");
            // One RTT plus serialization/fragmentation overheads; far
            // below even two RTTs.
            assert!(
                elapsed < Nanos(2 * rtt.0),
                "elapsed {elapsed:?} vs rtt {rtt:?}"
            );
        }
        other => panic!("{other:?}"),
    }
}
