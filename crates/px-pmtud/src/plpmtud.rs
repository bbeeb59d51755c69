//! Packetization-layer PMTUD (RFC 4821), Scamper-style.
//!
//! The paper's §5.3 baseline: "F-PMTUD is compared against Scamper, a
//! UDP-based PLPMTUD implementation. We confirm that both methods produce
//! identical PMTU values on all paths, but F-PMTUD is significantly
//! faster, as Scamper requires multiple RTTs to converge."
//!
//! The prober binary-searches probe sizes with DF set. A probe that is
//! echoed by the destination proves the path carries that size; a probe
//! that vanishes (no ICMP needed — loss *is* the signal) lowers the upper
//! bound, but only after a conservative timeout and a retry, because loss
//! is ambiguous between congestion and MTU (the very ambiguity §3 calls
//! out). That timeout tax is where the paper's 368× gap comes from.

use px_sim::node::{Ctx, Node, PortId};
use px_sim::Nanos;
use px_wire::fpmtud::{ECHO_MAGIC, ECHO_PORT};
use px_wire::ipv4::{Ipv4Packet, Ipv4Repr};
use px_wire::udp::UdpDatagram;
use px_wire::{IpProtocol, PacketBuf, UdpRepr};
use std::any::Any;
use std::net::Ipv4Addr;

/// RFC 4821's recommended base: a size assumed to work everywhere.
pub const SEARCH_LOW_DEFAULT: usize = 1280;

/// The outcome of a PLPMTUD run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlpmtudOutcome {
    /// Path MTU found (the largest size that was acknowledged).
    pub pmtu: usize,
    /// Total convergence latency.
    pub elapsed: Nanos,
    /// Probes sent.
    pub probes_sent: u32,
    /// Probes that timed out.
    pub timeouts: u32,
}

/// PLPMTUD prober configuration.
#[derive(Debug, Clone, Copy)]
pub struct PlpmtudConfig {
    /// Our address.
    pub addr: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Known-good lower bound (RFC 4821 BASE_PLPMTU-ish).
    pub search_low: usize,
    /// Upper bound: the local interface MTU.
    pub search_high: usize,
    /// Per-probe timeout (Scamper default is seconds — loss must be
    /// distinguished from congestion).
    pub timeout: Nanos,
    /// Tries per candidate size before concluding "too big".
    pub tries_per_size: u32,
    /// Search granularity in bytes.
    pub granularity: usize,
}

impl PlpmtudConfig {
    /// Scamper-like defaults for a path probed from `addr` to `dst` with
    /// local MTU `mtu`.
    pub fn scamper(addr: Ipv4Addr, dst: Ipv4Addr, mtu: usize) -> Self {
        PlpmtudConfig {
            addr,
            dst,
            search_low: SEARCH_LOW_DEFAULT,
            search_high: mtu,
            timeout: Nanos::from_millis(1750),
            tries_per_size: 2,
            granularity: 4,
        }
    }
}

/// The RFC 4821 prober node.
pub struct PlpmtudProber {
    /// Configuration.
    pub cfg: PlpmtudConfig,
    low: usize, // largest size proven to work
    low_confirmed: bool,
    high: usize, // smallest size proven (or assumed) too big, minus nothing
    current: usize,
    tries: u32,
    probes_sent: u32,
    timeouts: u32,
    seq: u32,
    ident: u16,
    started_at: Nanos,
    /// Result, once known.
    pub outcome: Option<PlpmtudOutcome>,
}

impl PlpmtudProber {
    /// Creates a prober; probing starts at simulation start.
    pub fn new(cfg: PlpmtudConfig) -> Self {
        PlpmtudProber {
            cfg,
            low: cfg.search_low,
            low_confirmed: false,
            high: cfg.search_high,
            current: cfg.search_high, // first probe: try the full MTU
            tries: 0,
            probes_sent: 0,
            timeouts: 0,
            seq: 0,
            ident: 0x4821,
            started_at: Nanos::ZERO,
            outcome: None,
        }
    }

    fn send_probe(&mut self, ctx: &mut Ctx<'_>) {
        self.seq += 1;
        self.probes_sent += 1;
        self.tries += 1;
        let payload_len = self.current - 28;
        let mut payload = vec![0u8; payload_len];
        payload[..4].copy_from_slice(&self.seq.to_be_bytes());
        let dg = UdpRepr {
            src_port: ECHO_PORT,
            dst_port: ECHO_PORT,
        }
        .build_datagram(self.cfg.addr, self.cfg.dst, &payload)
        .expect("fits");
        let mut ip = Ipv4Repr::new(self.cfg.addr, self.cfg.dst, IpProtocol::Udp, dg.len());
        ip.dont_frag = true; // probes must not be fragmented (RFC 4821 §3)
        ip.ident = self.ident;
        self.ident = self.ident.wrapping_add(1);
        let pkt = ip.build_packet(&dg).expect("fits");
        ctx.send(PortId(0), PacketBuf::from_payload(&pkt));
        ctx.set_timer(self.cfg.timeout, u64::from(self.seq));
    }

    fn next_size(&mut self, ctx: &mut Ctx<'_>) {
        if self.high.saturating_sub(self.low) <= self.cfg.granularity {
            if !self.low_confirmed && self.low > 68 + self.cfg.granularity {
                // The search converged onto a lower bound that was
                // never actually acknowledged (the true PMTU may sit
                // below BASE_PLPMTU, RFC 4821 §7.4): restart the
                // search below it.
                self.high = self.low;
                self.low = 68; // IPv4 minimum
                self.current = self.high;
                self.tries = 0;
                self.send_probe(ctx);
                return;
            }
            // Nothing ever got through; report the floor.
            self.outcome = Some(PlpmtudOutcome {
                pmtu: self.low,
                elapsed: ctx.now - self.started_at,
                probes_sent: self.probes_sent,
                timeouts: self.timeouts,
            });
            return;
        }
        self.current = (self.low + self.high) / 2;
        self.tries = 0;
        self.send_probe(ctx);
    }
}

impl Node for PlpmtudProber {
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
        // RFC 4821 deliberately does not depend on ICMP; Scamper's
        // PLPMTUD mode ignores it too (it may be absent or forged).
        if ip.protocol() != IpProtocol::Udp {
            return;
        }
        let Ok(udp) = UdpDatagram::new_checked(ip.payload()) else {
            return;
        };
        if udp.payload().len() < 4 || udp.payload()[0..4] != ECHO_MAGIC {
            return;
        }
        // Ack for the current size: it fits.
        self.low_confirmed = true;
        if self.current == self.cfg.search_high {
            // The full interface MTU works: done immediately.
            self.outcome = Some(PlpmtudOutcome {
                pmtu: self.current,
                elapsed: ctx.now - self.started_at,
                probes_sent: self.probes_sent,
                timeouts: self.timeouts,
            });
            return;
        }
        self.low = self.current;
        self.next_size(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.outcome.is_some() || token as u32 != self.seq {
            return;
        }
        self.timeouts += 1;
        if self.tries < self.cfg.tries_per_size {
            self.send_probe(ctx);
            return;
        }
        // Concluded: this size does not fit.
        self.high = self.current - 1;
        self.next_size(ctx);
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
    use crate::topology::{build_path, true_pmtu, Hop, DAEMON_ADDR, PROBER_ADDR};

    fn run(hops: &[Hop], blackholes: bool) -> PlpmtudOutcome {
        let prober = PlpmtudProber::new(PlpmtudConfig::scamper(
            PROBER_ADDR,
            DAEMON_ADDR,
            hops[0].mtu,
        ));
        let daemon = FpmtudDaemon::new(DAEMON_ADDR);
        let (mut net, p, _d) = build_path(13, prober, daemon, hops, blackholes);
        net.run_until(Nanos::from_secs(300));
        net.node_ref::<PlpmtudProber>(p)
            .outcome
            .clone()
            .expect("finished")
    }

    #[test]
    fn converges_to_pmtu_within_granularity() {
        let hops = [
            Hop::new(9000, 100),
            Hop::new(4000, 100),
            Hop::new(1500, 100),
            Hop::new(1500, 100),
        ];
        let out = run(&hops, false);
        let truth = true_pmtu(&hops);
        assert!(
            out.pmtu <= truth && out.pmtu + 8 >= truth - 4,
            "pmtu {} vs true {truth}",
            out.pmtu
        );
        assert!(out.probes_sent > 5, "binary search takes many probes");
        assert!(out.timeouts > 0, "oversize probes time out");
    }

    #[test]
    fn immune_to_blackholes_but_slow() {
        let hops = [
            Hop::new(9000, 100),
            Hop::new(1500, 100),
            Hop::new(1500, 100),
        ];
        let open = run(&hops, false);
        let dark = run(&hops, true);
        assert_eq!(open.pmtu, dark.pmtu, "loss-based: ICMP irrelevant");
        // Every failed size costs tries × timeout.
        assert!(
            dark.elapsed >= Nanos::from_secs(3),
            "elapsed {}",
            dark.elapsed
        );
    }

    #[test]
    fn flat_path_single_probe() {
        let hops = [Hop::new(1500, 100), Hop::new(1500, 100)];
        let out = run(&hops, false);
        assert_eq!(out.pmtu, 1500);
        assert_eq!(out.probes_sent, 1);
        assert_eq!(out.timeouts, 0);
    }
}
