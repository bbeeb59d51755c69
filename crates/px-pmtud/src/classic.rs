//! Classic PMTUD (RFC 1191): DF probes driven by ICMP *fragmentation
//! needed* feedback.
//!
//! The prober sends a DF-set UDP probe at its current estimate. A router
//! that cannot forward it replies with ICMP type 3 code 4 carrying the
//! next-hop MTU; the prober lowers its estimate and retries. When a probe
//! finally reaches the destination, the daemon's echo confirms it.
//!
//! Against an **ICMP blackhole** the lowering signal never arrives: the
//! probe is silently dropped, every retry times out, and discovery fails
//! — RFC 2923's "TCP problems with path MTU discovery", the paper's §3
//! motivation for F-PMTUD.

use px_sim::node::{Ctx, Node, PortId};
use px_sim::Nanos;
use px_wire::fpmtud::{ECHO_MAGIC, ECHO_PORT};
use px_wire::icmpv4::Icmpv4Message;
use px_wire::ipv4::{Ipv4Packet, Ipv4Repr};
use px_wire::udp::UdpDatagram;
use px_wire::{IpProtocol, PacketBuf, UdpRepr};
use std::any::Any;
use std::net::Ipv4Addr;

/// The outcome of a classic PMTUD run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassicOutcome {
    /// The estimate was confirmed by an echo from the destination.
    Discovered {
        /// Path MTU found.
        pmtu: usize,
        /// Total discovery latency.
        elapsed: Nanos,
        /// Probes sent (≥ number of distinct MTUs on the path).
        probes_sent: u32,
        /// ICMP fragmentation-needed messages consumed.
        icmp_seen: u32,
    },
    /// Probes vanished without ICMP feedback (blackhole): discovery
    /// failed.
    Blackholed {
        /// Probes sent before giving up.
        probes_sent: u32,
        /// The last unconfirmed estimate.
        stuck_at: usize,
    },
}

/// Classic prober configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClassicConfig {
    /// Our address.
    pub addr: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Initial estimate: our own interface MTU.
    pub initial_mtu: usize,
    /// Per-probe timeout.
    pub timeout: Nanos,
    /// Retries per estimate before declaring a blackhole.
    pub max_tries_per_size: u32,
}

/// The RFC 1191 prober node.
pub struct ClassicProber {
    /// Configuration.
    pub cfg: ClassicConfig,
    estimate: usize,
    tries_at_size: u32,
    probes_sent: u32,
    icmp_seen: u32,
    seq: u32,
    ident: u16,
    started_at: Nanos,
    /// Result, once known.
    pub outcome: Option<ClassicOutcome>,
}

impl ClassicProber {
    /// Creates a prober; it starts probing at simulation start.
    pub fn new(cfg: ClassicConfig) -> Self {
        ClassicProber {
            cfg,
            estimate: cfg.initial_mtu,
            tries_at_size: 0,
            probes_sent: 0,
            icmp_seen: 0,
            seq: 0,
            ident: 0x1191,
            started_at: Nanos::ZERO,
            outcome: None,
        }
    }

    fn send_probe(&mut self, ctx: &mut Ctx<'_>) {
        self.seq += 1;
        self.probes_sent += 1;
        self.tries_at_size += 1;
        let payload_len = self.estimate - 28;
        let mut payload = vec![0u8; payload_len];
        payload[..4.min(payload_len)]
            .copy_from_slice(&self.seq.to_be_bytes()[..4.min(payload_len)]);
        let dg = UdpRepr {
            src_port: ECHO_PORT,
            dst_port: ECHO_PORT,
        }
        .build_datagram(self.cfg.addr, self.cfg.dst, &payload)
        .expect("fits");
        let mut ip = Ipv4Repr::new(self.cfg.addr, self.cfg.dst, IpProtocol::Udp, dg.len());
        ip.dont_frag = true; // the defining property of classic PMTUD
        ip.ident = self.ident;
        self.ident = self.ident.wrapping_add(1);
        let pkt = ip.build_packet(&dg).expect("fits");
        ctx.send(PortId(0), PacketBuf::from_payload(&pkt));
        ctx.set_timer(self.cfg.timeout, u64::from(self.seq));
    }
}

impl Node for ClassicProber {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.started_at = ctx.now;
        self.send_probe(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: PacketBuf) {
        if self.outcome.is_some() {
            return;
        }
        let bytes = pkt.as_slice();
        let Ok(ip) = Ipv4Packet::new_checked(bytes) else {
            return;
        };
        match ip.protocol() {
            IpProtocol::Icmp => {
                if let Ok(Icmpv4Message::FragNeeded { next_hop_mtu, .. }) =
                    Icmpv4Message::parse(ip.payload())
                {
                    self.icmp_seen += 1;
                    // RFC 1191: lower the estimate and try again. A zero
                    // next-hop MTU (old routers) would use the plateau
                    // table; our routers always fill it in.
                    let mtu = usize::from(next_hop_mtu);
                    if mtu >= 68 && mtu < self.estimate {
                        self.estimate = mtu;
                        self.tries_at_size = 0;
                        self.send_probe(ctx);
                    }
                }
            }
            IpProtocol::Udp => {
                let Ok(udp) = UdpDatagram::new_checked(ip.payload()) else {
                    return;
                };
                if udp.payload().len() >= 4 && udp.payload()[0..4] == ECHO_MAGIC {
                    self.outcome = Some(ClassicOutcome::Discovered {
                        pmtu: self.estimate,
                        elapsed: ctx.now - self.started_at,
                        probes_sent: self.probes_sent,
                        icmp_seen: self.icmp_seen,
                    });
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.outcome.is_some() || token as u32 != self.seq {
            return; // a newer probe is in flight
        }
        if self.tries_at_size >= self.cfg.max_tries_per_size {
            self.outcome = Some(ClassicOutcome::Blackholed {
                probes_sent: self.probes_sent,
                stuck_at: self.estimate,
            });
            return;
        }
        self.send_probe(ctx);
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
    use crate::fpmtud::FpmtudDaemon;
    use crate::topology::{build_path, Hop, DAEMON_ADDR, PROBER_ADDR};

    fn run(hops: &[Hop], blackholes: bool) -> ClassicOutcome {
        let prober = ClassicProber::new(ClassicConfig {
            addr: PROBER_ADDR,
            dst: DAEMON_ADDR,
            initial_mtu: hops[0].mtu,
            timeout: Nanos::from_millis(500),
            max_tries_per_size: 2,
        });
        let daemon = FpmtudDaemon::new(DAEMON_ADDR);
        let (mut net, p, _d) = build_path(11, prober, daemon, hops, blackholes);
        net.run_until(Nanos::from_secs(30));
        net.node_ref::<ClassicProber>(p)
            .outcome
            .clone()
            .expect("finished")
    }

    #[test]
    fn converges_with_icmp_available() {
        let hops = [
            Hop::new(9000, 100),
            Hop::new(4000, 100),
            Hop::new(1500, 100),
            Hop::new(1500, 100),
        ];
        match run(&hops, false) {
            ClassicOutcome::Discovered {
                pmtu,
                probes_sent,
                icmp_seen,
                ..
            } => {
                assert_eq!(pmtu, 1500, "exact PMTU via ICMP feedback");
                assert_eq!(icmp_seen, 2, "one lowering per narrower hop");
                assert_eq!(probes_sent, 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn blackhole_defeats_classic_pmtud() {
        let hops = [
            Hop::new(9000, 100),
            Hop::new(1500, 100),
            Hop::new(1500, 100),
        ];
        match run(&hops, true) {
            ClassicOutcome::Blackholed {
                stuck_at,
                probes_sent,
            } => {
                assert_eq!(stuck_at, 9000, "never learned the real PMTU");
                assert_eq!(probes_sent, 2);
            }
            other => panic!("expected blackhole failure, got {other:?}"),
        }
    }

    #[test]
    fn flat_path_confirms_first_probe() {
        let hops = [Hop::new(1500, 100), Hop::new(1500, 100)];
        match run(&hops, false) {
            ClassicOutcome::Discovered {
                pmtu,
                probes_sent,
                icmp_seen,
                ..
            } => {
                assert_eq!(pmtu, 1500);
                assert_eq!(probes_sent, 1);
                assert_eq!(icmp_seen, 0);
            }
            other => panic!("{other:?}"),
        }
    }
}
