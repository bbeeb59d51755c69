//! The F-PMTUD prober (§4.2's second mechanism): the one implementation
//! the PXGW runs and px-pmtud's sim node wraps.
//!
//! "Another approach is to find the path MTU directly over an end-to-end
//! path" — here the *gateway* is the prober: for each external
//! destination it forwards traffic to, it sends one iMTU-sized, DF-clear
//! probe. If the destination (or its gateway/host stack) runs the F-PMTUD
//! daemon, the report reveals the real path MTU:
//!
//! * **smaller than the configured eMTU** (a tunnel or legacy hop on the
//!   path): the split engine cuts to the discovered size, avoiding
//!   downstream fragmentation entirely;
//! * **larger than the eMTU** (the path is jumbo-capable end to end, e.g.
//!   an un-advertised b-network): jumbo segments leave *untranslated up
//!   to the discovered PMTU*, extending the large-MTU path segment with
//!   no explicit peering configuration.
//!
//! Destinations that never answer fall back to the configured PMTU (the
//! gateway's static eMTU) once every retry has timed out.
//!
//! The report channel is plain UDP from the Internet, so a report is
//! believed only when it is addressed to us, comes **from the probed
//! destination**, echoes that probe's 64-bit **nonce**, and claims only
//! sizes in `1..=probe size`. Any other UDP datagram to our address and
//! the F-PMTUD port — a report that fails a check, or one that does not
//! parse as a report at all — is consumed and counted in
//! [`PmtudClient::spoof_rejected`]: the port is the prober's own, and
//! nothing behind the gateway owns its address. The probe stays
//! outstanding so a racing forgery cannot lock out the genuine answer.
//! An attested claim below [`PMTU_FLOOR`] clamps to it. The first
//! attested report for a destination sets its PMTU at once
//! (the paper's one round trip); a later one that would shrink it must
//! be confirmed (see [`SHRINK_CONFIRMS`]).

use px_faults::{splitmix64, DetBackoff};
use px_wire::fpmtud::{parse_report, probe_payload, FPMTUD_PORT};
use px_wire::ipv4::{Ipv4Packet, Ipv4Repr};
use px_wire::udp::UdpDatagram;
use px_wire::{IpProtocol, UdpRepr};
use rand::RngCore;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// The lowest PMTU the prober ever holds: the IPv4 minimum reassembly
/// size (RFC 791). An attested claim below it clamps to it.
pub const PMTU_FLOOR: usize = 576;

/// Attested reports in one ±12.5 % band needed before a shrink of an
/// established estimate takes effect; each confirmed step shrinks the
/// estimate by at most half.
pub const SHRINK_CONFIRMS: u32 = 2;

/// Probes per destination (the first and its retries) before it is
/// declared an F-PMTUD blackhole.
pub const MAX_TRIES: u32 = 3;

/// Prober configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProberConfig {
    /// Our address: the probe source, where reports come back.
    pub addr: Ipv4Addr,
    /// Probe size: the first-hop MTU (§4.2 sends "a dummy UDP packet
    /// sized to the eMTU of the next hop"), the iMTU for the gateway so
    /// jumbo-capable paths can be discovered.
    pub probe_size: usize,
    /// Timeout before the first retry; each further retry doubles it
    /// (deterministic exponential backoff, no jitter).
    pub timeout_ns: u64,
    /// PMTU cached for a destination whose probes all time out — the
    /// safe static eMTU. `0` leaves such a destination unknown.
    pub fallback_pmtu: usize,
}

impl ProberConfig {
    /// The standard schedule: 2 s first timeout, doubling per retry, no
    /// fallback.
    #[must_use]
    pub fn new(addr: Ipv4Addr, probe_size: usize) -> Self {
        ProberConfig {
            addr,
            probe_size,
            timeout_ns: 2_000_000_000,
            fallback_pmtu: 0,
        }
    }
}

/// One in-flight probe awaiting its report.
#[derive(Debug)]
struct PendingProbe {
    dst: Ipv4Addr,
    /// The nonce the report must echo.
    nonce: u64,
    sent_ns: u64,
    /// Absolute (sim) time after which the probe counts as lost.
    deadline_ns: u64,
    /// The round's schedule; its attempt count is the probes sent to
    /// this destination in this round.
    backoff: DetBackoff,
}

/// What the prober knows about one destination.
#[derive(Debug, Default)]
struct Destination {
    pmtu: Option<usize>,
    /// A shrink awaiting confirmation: (claimed band, attested reports
    /// seen so far agreeing with it).
    held_shrink: Option<(usize, u32)>,
}

/// What [`PmtudClient::ingest`] made of a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Attested, and applied to its destination's estimate.
    Accepted {
        /// The destination's PMTU estimate after this report.
        pmtu: usize,
        /// The fragment sizes the daemon reported.
        sizes: Vec<usize>,
        /// Time from the answered probe to its report.
        elapsed_ns: u64,
    },
    /// Not a report, or failed a check; counted in
    /// [`PmtudClient::spoof_rejected`].
    Rejected,
}

/// The per-destination F-PMTUD prober.
#[derive(Debug)]
pub struct PmtudClient {
    /// Configuration.
    pub cfg: ProberConfig,
    dests: HashMap<Ipv4Addr, Destination>,
    // BTreeMap: `tick` walks this, and retry emission order must be
    // deterministic.
    pending: BTreeMap<u32, PendingProbe>,
    /// Drawn from the caller's RNG by the first
    /// [`probe_dst`](Self::probe_dst).
    nonce_seed: Option<u64>,
    next_id: u32,
    ident: u16,
    /// Probes emitted (first tries and retries).
    pub probes_sent: u64,
    /// Attested reports consumed.
    pub reports_received: u64,
    /// Datagrams to our F-PMTUD port consumed without effect: not a
    /// report, or a report with an unknown probe id, a wrong nonce, a
    /// wrong source, or a size outside `1..=probe size`.
    pub spoof_rejected: u64,
    /// Attested claims below [`PMTU_FLOOR`], clamped up to it.
    pub floor_clamps: u64,
    /// Destinations clamped to the fallback PMTU after exhausting
    /// every retry.
    pub blackholes_detected: u64,
}

/// Two largest-fragment claims belong to the same shrink band when they
/// differ by at most 12.5 % — generous enough to absorb the ≤ 8-byte
/// fragment-boundary rounding, tight enough that a forged 600 B claim
/// cannot "confirm" a genuine 1500 B one.
fn same_band(a: usize, b: usize) -> bool {
    a.abs_diff(b) * 8 <= a.max(b)
}

impl PmtudClient {
    /// Creates a prober.
    pub fn new(cfg: ProberConfig) -> Self {
        PmtudClient {
            cfg,
            dests: HashMap::new(),
            pending: BTreeMap::new(),
            nonce_seed: None,
            next_id: 1,
            ident: 0x9d00,
            probes_sent: 0,
            reports_received: 0,
            spoof_rejected: 0,
            floor_clamps: 0,
            blackholes_detected: 0,
        }
    }

    /// The PMTU towards `dst`, if known.
    pub fn pmtu_for(&self, dst: Ipv4Addr) -> Option<usize> {
        self.dests.get(&dst).and_then(|d| d.pmtu)
    }

    /// In-flight probes.
    pub fn pending_probes(&self) -> usize {
        self.pending.len()
    }

    /// The earliest report deadline among in-flight probes: when
    /// [`tick`](Self::tick) next has work.
    pub fn next_deadline(&self) -> Option<u64> {
        self.pending.values().map(|p| p.deadline_ns).min()
    }

    /// Builds one probe packet for `dst` and registers it as pending.
    fn build_probe(
        &mut self,
        now_ns: u64,
        dst: Ipv4Addr,
        mut backoff: DetBackoff,
    ) -> Option<Vec<u8>> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        // `| 1` keeps the nonce nonzero: a zeroed field never matches.
        let nonce = splitmix64(self.nonce_seed.unwrap_or_default() ^ u64::from(id)) | 1;
        let payload = probe_payload(id, nonce, self.cfg.probe_size);
        let dg = UdpRepr {
            src_port: FPMTUD_PORT,
            dst_port: FPMTUD_PORT,
        }
        .build_datagram(self.cfg.addr, dst, &payload)
        .ok()?;
        let mut ip = Ipv4Repr::new(self.cfg.addr, dst, IpProtocol::Udp, dg.len());
        ip.dont_frag = false; // the whole point: let routers fragment it
        ip.ident = self.ident;
        self.ident = self.ident.wrapping_add(1);
        let pkt = ip.build_packet(&dg).ok()?;
        let deadline_ns = now_ns.saturating_add(backoff.next_delay());
        self.pending.insert(
            id,
            PendingProbe {
                dst,
                nonce,
                sent_ns: now_ns,
                deadline_ns,
                backoff,
            },
        );
        self.probes_sent += 1;
        Some(pkt)
    }

    /// Starts a probe round towards `dst` and returns the probe to put
    /// on the wire, or `None` while a probe to `dst` is in flight. The
    /// nonce seed is drawn from `rng` the first time a probe is built.
    /// The gateway calls this for each outbound packet to a destination
    /// with no PMTU yet; a further round to a known destination is a
    /// re-validation, whose report passes the confirm-before-shrink rule.
    pub fn probe_dst(
        &mut self,
        now_ns: u64,
        dst: Ipv4Addr,
        rng: &mut impl RngCore,
    ) -> Option<Vec<u8>> {
        if self.pending.values().any(|p| p.dst == dst) {
            return None;
        }
        self.nonce_seed.get_or_insert_with(|| rng.next_u64());
        let timeout = self.cfg.timeout_ns;
        let backoff = DetBackoff::new(timeout, timeout << (MAX_TRIES - 1));
        self.build_probe(now_ns, dst, backoff)
    }

    /// Drives the retry clock: re-sends probes whose report deadline
    /// passed (with the doubled timeout), and — once a destination has
    /// used [`MAX_TRIES`] probes — declares it an F-PMTUD blackhole,
    /// clamping its PMTU to the configured fallback. Returns the retry
    /// probes to put on the wire, in deterministic order. Call from a
    /// periodic timer: this is what lets a destination that went dark
    /// *between* packets resolve on a deadline instead of on traffic.
    pub fn tick(&mut self, now_ns: u64) -> Vec<Vec<u8>> {
        let due: Vec<u32> = self
            .pending
            .iter()
            .filter(|(_, p)| p.deadline_ns <= now_ns)
            .map(|(&id, _)| id)
            .collect();
        let mut out = Vec::new();
        for id in due {
            let Some(p) = self.pending.remove(&id) else {
                continue;
            };
            if p.backoff.attempts() < MAX_TRIES {
                out.extend(self.build_probe(now_ns, p.dst, p.backoff));
            } else if self.cfg.fallback_pmtu > 0 {
                let d = self.dests.entry(p.dst).or_default();
                if d.pmtu.is_none() {
                    d.pmtu = Some(self.cfg.fallback_pmtu);
                    self.blackholes_detected += 1;
                }
            }
        }
        out
    }

    /// Judges and consumes `pkt` if it is a UDP datagram to our address
    /// and the F-PMTUD port; `None` when it is not one (forward it).
    pub fn ingest(&mut self, now_ns: u64, pkt: &[u8]) -> Option<Verdict> {
        let ip = Ipv4Packet::new_checked(pkt).ok()?;
        if ip.dst() != self.cfg.addr || ip.protocol() != IpProtocol::Udp {
            return None;
        }
        let udp = UdpDatagram::new_checked(ip.payload()).ok()?;
        if udp.dst_port() != FPMTUD_PORT {
            return None;
        }
        let Some((id, nonce, sizes)) = parse_report(udp.payload()) else {
            self.spoof_rejected += 1;
            return Some(Verdict::Rejected);
        };
        let attested = self.pending.get(&id).is_some_and(|p| {
            p.dst == ip.src()
                && p.nonce == nonce
                && !sizes.is_empty()
                && sizes.iter().all(|&s| s > 0 && s <= self.cfg.probe_size)
        });
        let Some(p) = attested.then(|| self.pending.remove(&id)).flatten() else {
            self.spoof_rejected += 1;
            return Some(Verdict::Rejected);
        };
        self.reports_received += 1;
        let mut claimed = sizes.iter().copied().max().unwrap_or(PMTU_FLOOR);
        if claimed < PMTU_FLOOR {
            self.floor_clamps += 1;
            claimed = PMTU_FLOOR;
        }
        let pmtu = self.dests.entry(p.dst).or_default().on_report(claimed);
        Some(Verdict::Accepted {
            pmtu,
            sizes,
            elapsed_ns: now_ns.saturating_sub(p.sent_ns),
        })
    }
}

impl Destination {
    /// Applies an attested, floored claim and returns the estimate.
    /// The first one sets it; growth is taken at once, since an attested
    /// report only describes fragments that really crossed the path; a
    /// shrink waits for [`SHRINK_CONFIRMS`] agreeing reports and then
    /// steps down at most half-way.
    fn on_report(&mut self, claimed: usize) -> usize {
        let pmtu = match self.pmtu {
            Some(pmtu) if claimed < pmtu => pmtu,
            _ => {
                self.held_shrink = None;
                return *self.pmtu.insert(claimed);
            }
        };
        let confirms = match self.held_shrink {
            Some((band, n)) if same_band(band, claimed) => n + 1,
            _ => 1,
        };
        if confirms < SHRINK_CONFIRMS {
            self.held_shrink = Some((claimed, confirms));
            return pmtu;
        }
        let stepped = claimed.max(pmtu / 2).max(PMTU_FLOOR);
        self.held_shrink = (stepped > claimed).then_some((claimed, SHRINK_CONFIRMS - 1));
        *self.pmtu.insert(stepped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_wire::fpmtud::{answer_probe, report_payload};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const GW: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 5);

    fn udp_pkt(from: Ipv4Addr, to: Ipv4Addr, dport: u16, payload: &[u8]) -> Vec<u8> {
        let dg = UdpRepr {
            src_port: FPMTUD_PORT,
            dst_port: dport,
        }
        .build_datagram(from, to, payload)
        .unwrap();
        Ipv4Repr::new(from, to, IpProtocol::Udp, dg.len())
            .build_packet(&dg)
            .unwrap()
    }

    /// What the daemon at `from` sends back for `probe`, given the
    /// fragment sizes it saw.
    fn answer(probe: &[u8], from: Ipv4Addr, sizes: &[usize]) -> Vec<u8> {
        let ip = Ipv4Packet::new_checked(probe).unwrap();
        let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
        let report = answer_probe(udp.payload(), sizes).unwrap();
        udp_pkt(from, ip.src(), FPMTUD_PORT, &report)
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    fn client(timeout_ns: u64, fallback_pmtu: usize) -> PmtudClient {
        PmtudClient::new(ProberConfig {
            timeout_ns,
            fallback_pmtu,
            ..ProberConfig::new(GW, 9000)
        })
    }

    /// Probes `dst` again and answers with `sizes`: the estimate after.
    fn round(c: &mut PmtudClient, sizes: &[usize]) -> Option<usize> {
        let probe = c.probe_dst(0, DST, &mut rng()).expect("no probe in flight");
        c.ingest(0, &answer(&probe, DST, sizes));
        c.pmtu_for(DST)
    }

    #[test]
    fn probe_once_then_learn_from_report() {
        let mut c = PmtudClient::new(ProberConfig::new(GW, 9000));
        let probe = c.probe_dst(0, DST, &mut rng()).expect("first probe");
        assert_eq!(probe.len(), 9000);
        assert!(
            c.probe_dst(0, DST, &mut rng()).is_none(),
            "one probe in flight per destination"
        );
        assert_eq!(c.pmtu_for(DST), None);
        // The daemon saw three fragments, largest 1400.
        let got = c.ingest(5, &answer(&probe, DST, &[1400, 1400, 720]));
        assert_eq!(
            got,
            Some(Verdict::Accepted {
                pmtu: 1400,
                sizes: vec![1400, 1400, 720],
                elapsed_ns: 5,
            })
        );
        assert_eq!(c.pmtu_for(DST), Some(1400));
        assert_eq!(c.pending_probes(), 0);
    }

    #[test]
    fn jumbo_path_discovered() {
        let mut c = PmtudClient::new(ProberConfig::new(GW, 9000));
        assert_eq!(round(&mut c, &[9000]), Some(9000), "jumbo path learned");
    }

    #[test]
    fn retries_follow_deterministic_backoff_then_clamp_to_fallback() {
        let mut c = client(100, 1500);
        assert!(c.probe_dst(0, DST, &mut rng()).is_some());
        // Deadline 100: nothing due before it.
        assert!(c.tick(99).is_empty());
        // First retry fires at 100; its own deadline doubles (200 ns
        // later, at 300).
        assert_eq!(c.tick(100).len(), 1);
        assert_eq!(c.probes_sent, 2);
        assert!(c.tick(299).is_empty(), "doubled timeout not yet expired");
        assert_eq!(c.tick(300).len(), 1);
        assert_eq!(c.probes_sent, 3);
        // Third (= last) try: deadline 300 + 400 = 700. When it dies the
        // destination is declared a blackhole and clamps to the eMTU.
        assert_eq!(c.next_deadline(), Some(700));
        assert!(c.tick(699).is_empty());
        assert!(c.tick(700).is_empty(), "no fourth probe");
        assert_eq!(c.blackholes_detected, 1);
        assert_eq!(c.pmtu_for(DST), Some(1500), "clamped to fallback eMTU");
        assert_eq!(c.pending_probes(), 0);
        // A second client with the same schedule retries at the same
        // instants — the backoff carries no jitter.
        let mut d = client(100, 1500);
        d.probe_dst(0, DST, &mut rng());
        assert_eq!(d.tick(100).len(), 1);
        assert_eq!(d.tick(300).len(), 1);
        d.tick(700);
        assert_eq!(d.blackholes_detected, 1);
    }

    #[test]
    fn late_report_beats_the_retry_schedule() {
        let mut c = client(100, 1500);
        c.probe_dst(0, DST, &mut rng());
        let retry = c.tick(100).pop().expect("retry in flight");
        assert!(c.ingest(150, &answer(&retry, DST, &[1400])).is_some());
        assert_eq!(c.pmtu_for(DST), Some(1400));
        // The answered probe left the pending set: no further retries,
        // no blackhole verdict.
        assert!(c.tick(10_000).is_empty());
        assert_eq!(c.blackholes_detected, 0);
        assert_eq!(c.pmtu_for(DST), Some(1400));
    }

    #[test]
    fn no_fallback_means_unknown_stays_unknown() {
        let mut c = client(100, 0);
        c.probe_dst(0, DST, &mut rng());
        for now in [100, 300, 700] {
            c.tick(now);
        }
        assert_eq!(c.pending_probes(), 0);
        assert_eq!(c.blackholes_detected, 0);
        assert_eq!(c.pmtu_for(DST), None);
    }

    #[test]
    fn reports_that_fail_a_check_are_consumed_and_change_nothing() {
        let mut c = PmtudClient::new(ProberConfig::new(GW, 9000));
        let probe = c.probe_dst(0, DST, &mut rng()).unwrap();
        let (id, nonce) = {
            let ip = Ipv4Packet::new_checked(&probe[..]).unwrap();
            let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
            px_wire::fpmtud::parse_probe(udp.payload()).unwrap()
        };
        let forged = |from, id, nonce, sizes: &[usize]| {
            udp_pkt(from, GW, FPMTUD_PORT, &report_payload(id, nonce, sizes))
        };
        let forgeries = [
            forged(DST, 999, nonce, &[1500]),                      // unknown id
            forged(DST, id, 0, &[1500]),                           // guessed id, no nonce
            forged(DST, id, nonce ^ 2, &[1500]),                   // wrong nonce
            forged(Ipv4Addr::new(9, 9, 9, 9), id, nonce, &[1500]), // wrong source
            forged(DST, id, nonce, &[1500, 9001]),                 // larger than the probe
            forged(DST, id, nonce, &[1500, 0]),                    // a zero size
            forged(DST, id, nonce, &[]),                           // no sizes
            udp_pkt(DST, GW, FPMTUD_PORT, b"FPMR"),                // not a report
        ];
        for f in &forgeries {
            assert_eq!(c.ingest(0, f), Some(Verdict::Rejected), "not believed");
        }
        assert_eq!(c.spoof_rejected, forgeries.len() as u64);
        assert_eq!(c.pmtu_for(DST), None);
        assert_eq!(
            c.pending_probes(),
            1,
            "the genuine report is not locked out"
        );
        // Not addressed to our address and port: not consumed.
        let other = udp_pkt(DST, Ipv4Addr::new(1, 2, 3, 4), FPMTUD_PORT, b"FPMR");
        assert_eq!(c.ingest(0, &other), None);
        assert_eq!(c.ingest(0, &udp_pkt(DST, GW, 80, b"hello")), None);
        // The genuine report still lands.
        assert!(matches!(
            c.ingest(0, &answer(&probe, DST, &[1400])),
            Some(Verdict::Accepted { pmtu: 1400, .. })
        ));
    }

    #[test]
    fn nonces_are_distinct_and_nonzero_and_the_seed_is_drawn_once() {
        let mut c = PmtudClient::new(ProberConfig::new(GW, 9000));
        let mut r = rng();
        let nonce_of = |pkt: &[u8]| {
            let ip = Ipv4Packet::new_checked(pkt).unwrap();
            let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
            px_wire::fpmtud::parse_probe(udp.payload()).unwrap().1
        };
        let a = nonce_of(&c.probe_dst(0, DST, &mut r).unwrap());
        let b = nonce_of(&c.probe_dst(0, Ipv4Addr::new(9, 9, 9, 9), &mut r).unwrap());
        assert_ne!(a, b);
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        let mut fresh = rng();
        fresh.next_u64();
        assert_eq!(r.next_u64(), fresh.next_u64(), "one draw for two probes");
    }

    #[test]
    fn floor_is_absolute() {
        let mut c = PmtudClient::new(ProberConfig::new(GW, 9000));
        assert_eq!(round(&mut c, &[8]), Some(PMTU_FLOOR), "first report clamps");
        for _ in 0..8 {
            round(&mut c, &[8]);
            assert_eq!(c.pmtu_for(DST), Some(PMTU_FLOOR));
        }
        assert_eq!(c.floor_clamps, 9);
    }

    #[test]
    fn a_confirmed_shrink_steps_down_half_way_per_report() {
        let mut c = PmtudClient::new(ProberConfig::new(GW, 9000));
        assert_eq!(round(&mut c, &[9000]), Some(9000), "establishing report");
        // A shrink claim is held…
        assert_eq!(round(&mut c, &[1500, 1500, 996]), Some(9000));
        // …the confirming report applies it (9000/2 = 4500 rate limit,
        // then 4500/2 ≥ 1500 ⇒ two more rounds to land).
        assert_eq!(round(&mut c, &[1500]), Some(4500));
        assert_eq!(round(&mut c, &[1500]), Some(2250));
        assert_eq!(round(&mut c, &[1500]), Some(1500));
        assert_eq!(c.reports_received, 5);
    }

    #[test]
    fn a_single_shrink_is_held_and_a_disagreeing_one_restarts_the_count() {
        let mut c = PmtudClient::new(ProberConfig::new(GW, 9000));
        round(&mut c, &[9000]);
        assert_eq!(round(&mut c, &[1500]), Some(9000), "held, not applied");
        // A very different claim restarts the confirmation count.
        assert_eq!(round(&mut c, &[700]), Some(9000));
        // A report at the estimate dissolves the held claim.
        assert_eq!(round(&mut c, &[9000]), Some(9000));
        assert_eq!(round(&mut c, &[700]), Some(9000));
    }
}
