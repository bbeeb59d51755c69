//! F-PMTUD: one-round-trip, ICMP-free path-MTU discovery (paper §4.2).
//!
//! The prober sends a single UDP probe, **DF clear**, sized to the MTU of
//! its own first hop. Routers along the path fragment it wherever their
//! egress MTU is smaller — that is ordinary IPv4 behaviour, no special
//! support needed. The daemon at the destination reassembles the probe,
//! *records the size of every fragment it received*, and reports the
//! sizes back in one UDP response. The prober concludes:
//!
//! > PMTU = size of the largest fragment (or the whole probe if it
//! > arrived unfragmented)
//!
//! because the largest surviving fragment is exactly as big as the
//! narrowest link allowed. One RTT, no ICMP, works through blackholes.
//!
//! The prober is [`px_core::pmtud_client::PmtudClient`], the one the
//! PXGW runs; [`FpmtudProber`] drives it as a sim node towards a single
//! destination. The daemon's rule is [`px_wire::fpmtud::answer_probe`],
//! shared with the host stack's built-in daemon.

pub use px_core::pmtud_client::ProberConfig;
use px_core::pmtud_client::{PmtudClient, Verdict};
use px_sim::node::{Ctx, Node, PortId};
use px_sim::Nanos;
use px_wire::fpmtud::{answer_probe, ECHO_MAGIC, ECHO_PORT, FPMTUD_PORT};
use px_wire::frag::{Reassembler, ReassemblyResult};
use px_wire::ipv4::{Ipv4Packet, Ipv4Repr};
use px_wire::udp::UdpDatagram;
use px_wire::{IpProtocol, PacketBuf, UdpRepr};
use std::any::Any;
use std::net::Ipv4Addr;

/// The outcome of one probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Discovery succeeded in a single round trip.
    Discovered {
        /// The discovered path MTU.
        pmtu: usize,
        /// Wall-clock (simulated) time from probe to report.
        elapsed: Nanos,
        /// The sizes of all fragments the daemon received.
        fragment_sizes: Vec<usize>,
        /// How many probes were sent (1 unless a probe was lost).
        probes_sent: u32,
    },
    /// All retries timed out (probe or report lost repeatedly).
    TimedOut {
        /// Probes sent before giving up.
        probes_sent: u32,
    },
    /// Every retry timed out *and* a fallback was configured: the
    /// destination is treated as an F-PMTUD blackhole (no daemon, or a
    /// path eating large UDP) and the PMTU clamps to the safe static
    /// eMTU instead of staying unknown.
    BlackholedToFallback {
        /// The clamped PMTU (the configured fallback, i.e. the eMTU).
        pmtu: usize,
        /// Probes sent before clamping.
        probes_sent: u32,
    },
}

/// The F-PMTUD daemon: reassembles probes, reports fragment sizes, and
/// additionally serves DF-probe echoes on [`ECHO_PORT`] for the baseline
/// probers.
pub struct FpmtudDaemon {
    /// The daemon's address.
    pub addr: Ipv4Addr,
    reasm: Reassembler,
    ident: u16,
    /// Probes answered.
    pub reports_sent: u64,
    /// Echo acks served.
    pub echoes_sent: u64,
}

impl FpmtudDaemon {
    /// Creates a daemon bound to `addr`.
    pub fn new(addr: Ipv4Addr) -> Self {
        FpmtudDaemon {
            addr,
            reasm: Reassembler::new(),
            ident: 0x4400,
            reports_sent: 0,
            echoes_sent: 0,
        }
    }

    fn send_udp(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Ipv4Addr,
        sport: u16,
        dport: u16,
        payload: &[u8],
    ) {
        let dg = UdpRepr {
            src_port: sport,
            dst_port: dport,
        }
        .build_datagram(self.addr, dst, payload)
        .expect("small payload");
        let mut ip = Ipv4Repr::new(self.addr, dst, IpProtocol::Udp, dg.len());
        ip.ident = self.ident;
        self.ident = self.ident.wrapping_add(1);
        if let Ok(pkt) = ip.build_packet(&dg) {
            ctx.send(PortId(0), PacketBuf::from_payload(&pkt));
        }
    }

    fn handle_complete(&mut self, ctx: &mut Ctx<'_>, packet: &[u8], sizes: Vec<usize>) {
        let Ok(ip) = Ipv4Packet::new_checked(packet) else {
            return;
        };
        if ip.dst() != self.addr || ip.protocol() != IpProtocol::Udp {
            return;
        }
        let Ok(udp) = UdpDatagram::new_checked(ip.payload()) else {
            return;
        };
        match udp.dst_port() {
            FPMTUD_PORT => {
                let Some(report) = answer_probe(udp.payload(), &sizes) else {
                    return;
                };
                self.reports_sent += 1;
                self.send_udp(ctx, ip.src(), FPMTUD_PORT, udp.src_port(), &report);
            }
            ECHO_PORT => {
                // DF-probe echo for PLPMTUD/classic verification: ack with
                // the first 8 payload bytes (the prober's id block).
                let mut ack = Vec::with_capacity(12);
                ack.extend_from_slice(&ECHO_MAGIC);
                ack.extend_from_slice(&udp.payload()[..udp.payload().len().min(8)]);
                self.echoes_sent += 1;
                self.send_udp(ctx, ip.src(), ECHO_PORT, udp.src_port(), &ack);
            }
            _ => {}
        }
    }
}

impl Node for FpmtudDaemon {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: PacketBuf) {
        let bytes = pkt.as_slice().to_vec();
        match self.reasm.push(&bytes, ctx.now.0) {
            Ok(ReassemblyResult::NotFragmented(p)) => {
                let size = p.len();
                self.handle_complete(ctx, &p, vec![size]);
            }
            Ok(ReassemblyResult::Complete {
                packet,
                fragment_sizes,
            }) => {
                self.handle_complete(ctx, &packet, fragment_sizes);
            }
            Ok(ReassemblyResult::Incomplete) | Err(_) => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An F-PMTUD prober node: one [`PmtudClient`] probing one destination
/// from simulation start, recording how that ended.
pub struct FpmtudProber {
    dst: Ipv4Addr,
    prober: PmtudClient,
    /// Result, once known.
    pub outcome: Option<ProbeOutcome>,
}

impl FpmtudProber {
    /// Creates a prober towards `dst`; it fires its first probe at
    /// simulation start.
    pub fn new(cfg: ProberConfig, dst: Ipv4Addr) -> Self {
        FpmtudProber {
            dst,
            prober: PmtudClient::new(cfg),
            outcome: None,
        }
    }

    fn probes_sent(&self) -> u32 {
        self.prober.probes_sent as u32
    }

    /// Sends `probes` and wakes up at the next report deadline.
    fn send(&self, ctx: &mut Ctx<'_>, probes: impl IntoIterator<Item = Vec<u8>>) {
        for probe in probes {
            ctx.send(PortId(0), PacketBuf::from_payload(&probe));
        }
        if let Some(deadline) = self.prober.next_deadline() {
            ctx.set_timer(Nanos(deadline.saturating_sub(ctx.now.0)), 0);
        }
    }
}

impl Node for FpmtudProber {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let probe = self.prober.probe_dst(ctx.now.0, self.dst, ctx.rng);
        self.send(ctx, probe);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: PacketBuf) {
        if self.outcome.is_some() {
            return;
        }
        if let Some(Verdict::Accepted {
            pmtu,
            sizes,
            elapsed_ns,
            ..
        }) = self.prober.ingest(ctx.now.0, pkt.as_slice())
        {
            self.outcome = Some(ProbeOutcome::Discovered {
                pmtu,
                elapsed: Nanos(elapsed_ns),
                fragment_sizes: sizes,
                probes_sent: self.probes_sent(),
            });
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if self.outcome.is_some() {
            return;
        }
        let retries = self.prober.tick(ctx.now.0);
        if self.prober.pending_probes() > 0 {
            self.send(ctx, retries);
            return;
        }
        // Blackhole: the destination never answered any probe. With a
        // fallback configured the prober clamped to it (the safe static
        // eMTU) rather than reporting nothing.
        let probes_sent = self.probes_sent();
        self.outcome = Some(match self.prober.pmtu_for(self.dst) {
            Some(pmtu) => ProbeOutcome::BlackholedToFallback { pmtu, probes_sent },
            None => ProbeOutcome::TimedOut { probes_sent },
        });
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
    use crate::topology::{build_path, true_pmtu, Hop, DAEMON_ADDR, PROBER_ADDR};

    fn run(hops: &[Hop], blackholes: bool) -> ProbeOutcome {
        let prober = FpmtudProber::new(ProberConfig::new(PROBER_ADDR, hops[0].mtu), DAEMON_ADDR);
        let daemon = FpmtudDaemon::new(DAEMON_ADDR);
        let (mut net, p, _d) = build_path(7, prober, daemon, hops, blackholes);
        net.run_until(Nanos::from_secs(10));
        net.node_ref::<FpmtudProber>(p)
            .outcome
            .clone()
            .expect("finished")
    }

    #[test]
    fn discovers_pmtu_through_fragmenting_path() {
        // The paper's Fig. 4 scenario: 9 KB probe, hops narrow to 1000 B.
        let hops = [
            Hop::new(9000, 100),
            Hop::new(4000, 200),
            Hop::new(1000, 300),
            Hop::new(1500, 100),
        ];
        match run(&hops, false) {
            ProbeOutcome::Discovered {
                pmtu,
                fragment_sizes,
                probes_sent,
                ..
            } => {
                // Largest fragment ≤ narrowest MTU, within 8-byte rounding.
                let truth = true_pmtu(&hops);
                assert!(pmtu <= truth && pmtu > truth - 28, "pmtu {pmtu} vs {truth}");
                assert!(fragment_sizes.len() > 1);
                assert_eq!(probes_sent, 1, "single round trip");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn works_identically_through_icmp_blackholes() {
        let hops = [
            Hop::new(9000, 100),
            Hop::new(2000, 200),
            Hop::new(1500, 100),
        ];
        let open = run(&hops, false);
        let dark = run(&hops, true);
        let pmtu_of = |o: &ProbeOutcome| match o {
            ProbeOutcome::Discovered { pmtu, .. } => *pmtu,
            _ => panic!("should discover"),
        };
        assert_eq!(pmtu_of(&open), pmtu_of(&dark), "blackholes are irrelevant");
    }

    #[test]
    fn unfragmented_probe_reports_full_size() {
        let hops = [
            Hop::new(1500, 100),
            Hop::new(1500, 100),
            Hop::new(1500, 100),
        ];
        match run(&hops, false) {
            ProbeOutcome::Discovered {
                pmtu,
                fragment_sizes,
                ..
            } => {
                assert_eq!(pmtu, 1500);
                assert_eq!(fragment_sizes, vec![1500]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn one_rtt_latency() {
        let hops = [
            Hop::new(9000, 5000),
            Hop::new(1500, 20_000),
            Hop::new(1500, 5000),
        ];
        match run(&hops, false) {
            ProbeOutcome::Discovered { elapsed, .. } => {
                let one_way = crate::topology::path_delay(&hops);
                // Elapsed ≈ 2 × one-way (serialization is µs-scale here).
                assert!(elapsed >= one_way + one_way);
                assert!(elapsed < one_way + one_way + Nanos::from_millis(1));
            }
            other => panic!("{other:?}"),
        }
    }
}
