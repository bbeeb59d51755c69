//! §5.3 — F-PMTUD vs PLPMTUD on a CloudLab-like 6-site WAN.
//!
//! Six sites probe all pairwise paths. Paper: "both methods produce
//! identical PMTU values on all paths, but F-PMTUD is significantly
//! faster … between the Utah and Massachusetts nodes, we observe that
//! F-PMTUD is 368× faster than PLPMTUD."
//!
//! The gap is structural: F-PMTUD needs one RTT regardless of the path,
//! while PLPMTUD pays `tries × timeout` for every probe size that turns
//! out to be too big (loss is its only signal).

use crate::Scale;
use px_pmtud::fpmtud::{FpmtudDaemon, FpmtudProber, ProbeOutcome, ProberConfig};
use px_pmtud::plpmtud::{PlpmtudConfig, PlpmtudProber};
use px_pmtud::topology::{build_path, true_pmtu, Hop, DAEMON_ADDR, PROBER_ADDR};
use px_sim::Nanos;

/// The six sites: name, access-link MTU. (Jumbo-capable CloudLab sites
/// run 9000 B access fabrics; others stay at 1500 B.)
pub const SITES: [(&str, usize); 6] = [
    ("Utah", 9000),
    ("Wisconsin", 9000),
    ("Clemson", 1500),
    ("UMass", 1500),
    ("APT", 9000),
    ("Emulab", 1500),
];

/// One-way inter-site delays in microseconds (upper triangle, symmetric).
/// Utah/APT/Emulab share a campus; UMass is the far east-coast site.
const DELAY_US: [[u64; 6]; 6] = [
    [0, 14_000, 25_000, 31_000, 500, 500],
    [14_000, 0, 15_000, 17_000, 14_000, 14_000],
    [25_000, 15_000, 0, 12_000, 25_000, 25_000],
    [31_000, 17_000, 12_000, 0, 31_000, 31_000],
    [500, 14_000, 25_000, 31_000, 0, 300],
    [500, 14_000, 25_000, 31_000, 300, 0],
];

/// Core MTU between two sites: jumbo only inside the shared campus
/// fabric (Utah ↔ APT), legacy 1500 elsewhere.
fn core_mtu(a: usize, b: usize) -> usize {
    let campus = [0usize, 4]; // Utah, APT
    if campus.contains(&a) && campus.contains(&b) {
        9000
    } else {
        1500
    }
}

/// One probed pair.
#[derive(Debug, Clone)]
pub struct Row {
    /// Source site name.
    pub from: &'static str,
    /// Destination site name.
    pub to: &'static str,
    /// Ground-truth path MTU.
    pub true_pmtu: usize,
    /// F-PMTUD's answer.
    pub fpmtud_pmtu: usize,
    /// F-PMTUD's discovery time.
    pub fpmtud_time: Nanos,
    /// PLPMTUD's answer.
    pub plpmtud_pmtu: usize,
    /// PLPMTUD's convergence time.
    pub plpmtud_time: Nanos,
    /// Speedup of F-PMTUD.
    pub speedup: f64,
}

fn hops_for(a: usize, b: usize) -> Vec<Hop> {
    vec![
        Hop::new(SITES[a].1, 20),
        Hop {
            mtu: core_mtu(a, b),
            delay: Nanos(DELAY_US[a][b] * 1000),
        },
        Hop::new(SITES[b].1, 20),
    ]
}

/// Probes one ordered pair with both algorithms.
pub fn probe_pair(a: usize, b: usize) -> Row {
    let hops = hops_for(a, b);

    // F-PMTUD: one probe, sized to the first-hop MTU, DF clear.
    let prober = FpmtudProber::new(ProberConfig::new(PROBER_ADDR, hops[0].mtu), DAEMON_ADDR);
    let daemon = FpmtudDaemon::new(DAEMON_ADDR);
    let (mut net, p, _) = build_path(101, prober, daemon, &hops, false);
    net.run_until(Nanos::from_secs(10));
    let (f_pmtu, f_time) = match net
        .node_ref::<FpmtudProber>(p)
        .outcome
        .clone()
        .expect("F-PMTUD finished")
    {
        ProbeOutcome::Discovered { pmtu, elapsed, .. } => (pmtu, elapsed),
        // Neither terminal failure discovers a PMTU on these paths; the
        // fallback clamp reports the static eMTU, not a measurement.
        ProbeOutcome::TimedOut { .. } | ProbeOutcome::BlackholedToFallback { .. } => {
            (0, Nanos::MAX)
        }
    };

    // PLPMTUD (Scamper defaults): binary search with DF probes.
    let prober = PlpmtudProber::new(PlpmtudConfig::scamper(
        PROBER_ADDR,
        DAEMON_ADDR,
        hops[0].mtu,
    ));
    let daemon = FpmtudDaemon::new(DAEMON_ADDR);
    let (mut net, p, _) = build_path(102, prober, daemon, &hops, false);
    net.run_until(Nanos::from_secs(600));
    let out = net
        .node_ref::<PlpmtudProber>(p)
        .outcome
        .clone()
        .expect("PLPMTUD finished");

    Row {
        from: SITES[a].0,
        to: SITES[b].0,
        true_pmtu: true_pmtu(&hops),
        fpmtud_pmtu: f_pmtu,
        fpmtud_time: f_time,
        plpmtud_pmtu: out.pmtu,
        plpmtud_time: out.elapsed,
        speedup: out.elapsed.0 as f64 / f_time.0.max(1) as f64,
    }
}

/// Runs all pairwise probes (15 pairs; `Quick` probes a subset).
pub fn run(scale: Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for a in 0..SITES.len() {
        for b in (a + 1)..SITES.len() {
            if scale == Scale::Quick && !(a == 0 || b == 3) {
                continue; // Quick: Utah-* and *-UMass pairs only
            }
            rows.push(probe_pair(a, b));
        }
    }
    rows
}

/// Renders the paper-style table.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("§5.3 — F-PMTUD vs PLPMTUD (Scamper), pairwise site probing\n");
    out.push_str(
        "  pair                 | true | F-PMTUD (time)     | PLPMTUD (time)     | speedup\n",
    );
    out.push_str(
        "  ---------------------+------+--------------------+--------------------+--------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "  {:9} → {:9} | {:4} | {:4} ({:>9}) | {:4} ({:>9}) | {:.0}x\n",
            r.from,
            r.to,
            r.true_pmtu,
            r.fpmtud_pmtu,
            r.fpmtud_time.to_string(),
            r.plpmtud_pmtu,
            r.plpmtud_time.to_string(),
            r.speedup
        ));
    }
    out.push_str("  paper: identical PMTUs on all paths; Utah↔UMass speedup 368x\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmtu_values_agree_and_fpmtud_is_much_faster() {
        let rows = run(Scale::Quick);
        assert!(!rows.is_empty());
        for r in &rows {
            // "Identical PMTU values": both within discovery resolution
            // of the truth (F-PMTUD: 8-byte fragment rounding; PLPMTUD:
            // search granularity).
            assert!(
                r.true_pmtu - r.fpmtud_pmtu <= 28,
                "{}→{} F-PMTUD {} vs true {}",
                r.from,
                r.to,
                r.fpmtud_pmtu,
                r.true_pmtu
            );
            assert!(
                r.true_pmtu - r.plpmtud_pmtu <= 28,
                "{}→{} PLPMTUD {} vs true {}",
                r.from,
                r.to,
                r.plpmtud_pmtu,
                r.true_pmtu
            );
            // One RTT vs multi-RTT+timeout: when the first-hop MTU
            // exceeds the PMTU (probing actually searches), the speedup
            // is enormous; flat jumbo-to-jumbo paths tie.
            if r.true_pmtu < 9000 && SITES.iter().any(|s| s.0 == r.from && s.1 == 9000) {
                assert!(
                    r.speedup > 50.0,
                    "{}→{} speedup {}",
                    r.from,
                    r.to,
                    r.speedup
                );
            }
        }
        // The paper's marquee pair: Utah ↔ UMass, hundreds of times faster.
        let marquee = rows
            .iter()
            .find(|r| r.from == "Utah" && r.to == "UMass")
            .expect("Utah-UMass probed");
        assert!(
            marquee.speedup > 150.0 && marquee.speedup < 800.0,
            "Utah↔UMass speedup {} (paper: 368x)",
            marquee.speedup
        );
    }
}
