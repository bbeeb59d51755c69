//! The [`Host`] node: a single-homed endpoint running TCP connections and
//! UDP sockets over the simulator.
//!
//! A host owns:
//! * a TCP connection table (active opens scheduled at configured times,
//!   passive listeners that accept incoming SYNs),
//! * UDP sockets plus paced UDP sender flows (iPerf-style),
//! * an IP fragment reassembler,
//! * a NIC model: TSO/GSO splitting on transmit, caravan unbundling on
//!   receive when the host is "caravan-aware" (the paper's modified
//!   receiver stack).
//!
//! Hosts are deliberately single-ported (port 0): multi-interface devices
//! in the topologies are routers or gateways.

use crate::conn::{ConnConfig, TcpConnection};
use crate::udp::UdpSocket;
use px_sim::nic::OffloadConfig;
use px_sim::node::{Ctx, Node, PortId};
use px_wire::frag::{Reassembler, ReassemblyResult};
use px_wire::ipv4::{Ipv4Packet, Ipv4Repr, CARAVAN_TOS};
use px_wire::tcp::TcpSegment;
use px_wire::udp::{UdpDatagram, UdpRepr};
use px_wire::{IpProtocol, PacketBuf};
use rand::Rng;
use std::any::Any;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Host-level configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// The host's IPv4 address.
    pub addr: Ipv4Addr,
    /// Interface MTU (decides the advertised MSS and wire packet sizes).
    pub mtu: usize,
    /// NIC offloads.
    pub offloads: OffloadConfig,
    /// Interpret PX-caravan packets (ToS-marked) as UDP_GRO bundles.
    pub caravan_rx: bool,
    /// Bundle outgoing UDP bursts into PX-caravan packets before they
    /// leave the host (the paper's §4.1 modified sender: hosts "tunnel
    /// multiple packets into a PX-caravan packet before forwarding in
    /// the b-network").
    pub caravan_tx: bool,
    /// Run the F-PMTUD daemon alongside the regular stack: answer probes
    /// on the well-known port with fragment-size reports (§4.2/§6 — "where
    /// should we deploy the F-PMTUD daemon?" — on end hosts).
    pub fpmtud_daemon: bool,
    /// Timer tick period in nanoseconds.
    pub tick_ns: u64,
}

impl HostConfig {
    /// A host with the given address and MTU, all offloads on, 1 ms tick.
    pub fn new(addr: Ipv4Addr, mtu: usize) -> Self {
        HostConfig {
            addr,
            mtu,
            offloads: OffloadConfig::all_on(),
            caravan_rx: false,
            caravan_tx: false,
            fpmtud_daemon: false,
            tick_ns: 1_000_000,
        }
    }
}

/// A scheduled outgoing UDP flow (iPerf-UDP-style, paced).
#[derive(Debug, Clone)]
pub struct UdpFlowCfg {
    /// Local (source) port.
    pub local_port: u16,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Destination port.
    pub dst_port: u16,
    /// Offered rate in bits/sec.
    pub rate_bps: u64,
    /// Application payload bytes per datagram.
    pub payload: usize,
    /// Start time (ns).
    pub start_ns: u64,
    /// Stop time (ns).
    pub stop_ns: u64,
}

/// Summary of one TCP connection for experiment harvesting.
#[derive(Debug, Clone, Copy)]
pub struct TcpFlowStats {
    /// Local port.
    pub local_port: u16,
    /// Goodput bytes acknowledged by the peer.
    pub bytes_acked: u64,
    /// Bytes received in order.
    pub bytes_received: u64,
    /// Pattern-verification failures (must be 0 in a correct network).
    pub integrity_errors: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// The negotiated (effective) MSS.
    pub effective_mss: usize,
    /// The MSS the peer advertised (post-PXGW-rewriting).
    pub peer_mss: usize,
}

const TICK_TOKEN: u64 = 0;

struct ScheduledConn {
    start_ns: u64,
    cfg: ConnConfig,
    stop_sending_ns: Option<u64>,
    started: bool,
    stopped: bool,
    idx: Option<usize>,
}

struct UdpFlowState {
    cfg: UdpFlowCfg,
    /// Fractional datagram credit accumulated between ticks.
    credit: f64,
    last_tick_ns: u64,
}

/// A simulated end host.
pub struct Host {
    /// Configuration.
    pub cfg: HostConfig,
    conns: Vec<TcpConnection>,
    /// (remote ip, remote port, local port) → connection index.
    conn_index: HashMap<(Ipv4Addr, u16, u16), usize>,
    listeners: HashMap<u16, ConnConfig>,
    scheduled: Vec<ScheduledConn>,
    udp_socks: HashMap<u16, UdpSocket>,
    udp_flows: Vec<UdpFlowState>,
    reasm: Reassembler,
    ip_ident: u16,
    /// Packets that arrived for an address that is not ours.
    pub misdelivered: u64,
    /// F-PMTUD probe reports served (when `fpmtud_daemon` is on).
    pub fpmtud_reports: u64,
    /// ICMP messages received (PMTUD errors etc. — counted, recorded).
    pub icmp_received: Vec<Vec<u8>>,
}

impl Host {
    /// Creates a host.
    pub fn new(cfg: HostConfig) -> Self {
        Host {
            cfg,
            conns: Vec::new(),
            conn_index: HashMap::new(),
            listeners: HashMap::new(),
            scheduled: Vec::new(),
            udp_socks: HashMap::new(),
            udp_flows: Vec::new(),
            reasm: Reassembler::new(),
            ip_ident: 1,
            misdelivered: 0,
            fpmtud_reports: 0,
            icmp_received: Vec::new(),
        }
    }

    /// Schedules an active TCP open at `start_ns`. If `stop_sending_ns`
    /// is set, the connection stops producing data and closes then
    /// (iPerf's `-t` duration).
    pub fn connect_at(&mut self, start_ns: u64, cfg: ConnConfig, stop_sending_ns: Option<u64>) {
        self.scheduled.push(ScheduledConn {
            start_ns,
            cfg,
            stop_sending_ns,
            started: false,
            stopped: false,
            idx: None,
        });
    }

    /// Listens for TCP connections on `port`; accepted connections use
    /// `template` for everything but the remote endpoint.
    pub fn listen(&mut self, port: u16, template: ConnConfig) {
        self.listeners.insert(port, template);
    }

    /// Binds a UDP socket.
    pub fn udp_bind(&mut self, sock: UdpSocket) {
        self.udp_socks.insert(sock.port, sock);
    }

    /// Adds a paced outgoing UDP flow.
    pub fn add_udp_flow(&mut self, cfg: UdpFlowCfg) {
        self.udp_socks
            .entry(cfg.local_port)
            .or_insert_with(|| UdpSocket::bind(cfg.local_port));
        self.udp_flows.push(UdpFlowState {
            cfg,
            credit: 0.0,
            last_tick_ns: 0,
        });
    }

    /// Read access to a UDP socket.
    pub fn udp_socket(&self, port: u16) -> Option<&UdpSocket> {
        self.udp_socks.get(&port)
    }

    /// Stats for every TCP connection on this host.
    pub fn tcp_stats(&self) -> Vec<TcpFlowStats> {
        self.conns
            .iter()
            .map(|c| TcpFlowStats {
                local_port: c.cfg.local.1,
                bytes_acked: c.stats.bytes_acked,
                bytes_received: c.stats.bytes_received,
                integrity_errors: c.stats.integrity_errors,
                retransmits: c.stats.retransmits,
                effective_mss: c.effective_mss(),
                peer_mss: c.peer_mss(),
            })
            .collect()
    }

    /// Direct access to a connection (tests).
    pub fn conn(&self, idx: usize) -> Option<&TcpConnection> {
        self.conns.get(idx)
    }

    /// Number of connections (accepted + initiated).
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    fn emit_wire(&mut self, ctx: &mut Ctx<'_>, pkt: Vec<u8>) {
        // NIC TX path: split oversize TCP packets if TSO/GSO is on.
        if pkt.len() > self.cfg.mtu {
            if self.cfg.offloads.tso || self.cfg.offloads.gso {
                if let Ok(segs) = px_sim::nic::tso_split(&pkt, self.cfg.mtu) {
                    for s in segs {
                        ctx.send(PortId(0), PacketBuf::from_payload(&s));
                    }
                    return;
                }
            }
            // No TSO and too big: the stack would never have built this
            // (conn cfg ties segment size to MTU); drop defensively.
            ctx.stats.bump("host_tx_oversize_dropped", 1);
            return;
        }
        ctx.send(PortId(0), PacketBuf::from_payload(&pkt));
    }

    fn emit_all(&mut self, ctx: &mut Ctx<'_>, pkts: Vec<Vec<u8>>) {
        for p in pkts {
            self.emit_wire(ctx, p);
        }
    }

    fn send_udp(
        &mut self,
        ctx: &mut Ctx<'_>,
        local_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: &[u8],
    ) {
        let dgram = UdpRepr {
            src_port: local_port,
            dst_port,
        }
        .build_datagram(self.cfg.addr, dst, payload)
        .expect("datagram size");
        let mut ip = Ipv4Repr::new(self.cfg.addr, dst, IpProtocol::Udp, dgram.len());
        ip.ident = self.ip_ident;
        self.ip_ident = self.ip_ident.wrapping_add(1);
        if let Ok(pkt) = ip.build_packet(&dgram) {
            if let Some(s) = self.udp_socks.get_mut(&local_port) {
                s.note_sent(payload.len());
            }
            self.emit_wire(ctx, pkt);
        }
    }

    /// Sends a burst of `n` datagrams bundled into PX-caravan packets
    /// (the modified b-network sender path). Bundles are capped at the
    /// interface MTU; a lone datagram goes out plain.
    fn send_udp_caravan_burst(&mut self, ctx: &mut Ctx<'_>, cfg: &UdpFlowCfg, n: usize, now: u64) {
        use px_wire::caravan::CaravanBuilder;
        let budget = self.cfg.mtu.saturating_sub(28);
        let mut builder = CaravanBuilder::new(budget);
        let flush = |host: &mut Host, ctx: &mut Ctx<'_>, b: CaravanBuilder| {
            let count = b.count();
            if count == 0 {
                return;
            }
            let bundle = b.finish();
            if count == 1 {
                // No point tunnelling a singleton: the bundle *is* the
                // one datagram; send it as a plain packet.
                let Ok(dg) = UdpDatagram::new_checked(&bundle[..]) else {
                    return;
                };
                let payload = dg.payload().to_vec();
                host.send_udp(ctx, cfg.local_port, cfg.dst, cfg.dst_port, &payload);
                return;
            }
            let outer = UdpRepr {
                src_port: cfg.local_port,
                dst_port: cfg.dst_port,
            }
            .build_datagram(host.cfg.addr, cfg.dst, &bundle)
            .expect("bundle within UDP limits");
            let mut ip = Ipv4Repr::new(host.cfg.addr, cfg.dst, IpProtocol::Udp, outer.len());
            ip.tos = CARAVAN_TOS;
            ip.ident = host.ip_ident;
            host.ip_ident = host.ip_ident.wrapping_add(1);
            if let Ok(pkt) = ip.build_packet(&outer) {
                if let Some(s) = host.udp_socks.get_mut(&cfg.local_port) {
                    for _ in 0..count {
                        s.note_sent(cfg.payload);
                    }
                }
                ctx.send(PortId(0), PacketBuf::from_payload(&pkt));
            }
        };
        for _ in 0..n {
            let mut payload = vec![0u8; cfg.payload];
            crate::fill_pattern(now, &mut payload[..]);
            let dgram = UdpRepr {
                src_port: cfg.local_port,
                dst_port: cfg.dst_port,
            }
            .build_datagram(self.cfg.addr, cfg.dst, &payload)
            .expect("datagram size");
            if !builder.fits(&dgram) {
                let full = std::mem::replace(&mut builder, CaravanBuilder::new(budget));
                flush(self, ctx, full);
            }
            if builder.fits(&dgram) {
                builder.push(&dgram).expect("fits");
            } else {
                // Single datagram larger than the budget: send plain.
                self.send_udp(ctx, cfg.local_port, cfg.dst, cfg.dst_port, &payload);
            }
        }
        flush(self, ctx, builder);
    }

    fn handle_ip(&mut self, ctx: &mut Ctx<'_>, packet: &[u8], frag_sizes: Vec<usize>) {
        let Ok(ip) = Ipv4Packet::new_checked(packet) else {
            return;
        };
        if ip.dst() != self.cfg.addr {
            self.misdelivered += 1;
            return;
        }
        match ip.protocol() {
            IpProtocol::Tcp => self.handle_tcp(ctx, &ip),
            IpProtocol::Udp => self.handle_udp(ctx, &ip, frag_sizes),
            IpProtocol::Icmp => self.handle_icmp(ctx, &ip),
            IpProtocol::Other(_) => {}
        }
    }

    fn handle_tcp(&mut self, ctx: &mut Ctx<'_>, ip: &Ipv4Packet<&[u8]>) {
        let seg_bytes = ip.payload();
        let Ok(seg) = TcpSegment::new_checked(seg_bytes) else {
            return;
        };
        if !seg.verify_checksum(ip.src(), ip.dst()) {
            ctx.stats.bump("host_tcp_bad_checksum", 1);
            return;
        }
        let key = (ip.src(), seg.src_port(), seg.dst_port());
        let now = ctx.now.0;
        let idx = match self.conn_index.get(&key) {
            Some(&i) => i,
            None => {
                // New connection: must be a SYN to a listener.
                if !seg.flags().syn || seg.flags().ack {
                    return;
                }
                let Some(template) = self.listeners.get(&seg.dst_port()) else {
                    return;
                };
                let mut cfg = template.clone();
                cfg.local = (self.cfg.addr, seg.dst_port());
                cfg.remote = (ip.src(), seg.src_port());
                cfg.mtu = self.cfg.mtu;
                cfg.tso = self.cfg.offloads.tso || self.cfg.offloads.gso;
                let iss: u32 = ctx.rng.gen();
                let conn = TcpConnection::listen(cfg, iss);
                let i = self.conns.len();
                self.conns.push(conn);
                self.conn_index.insert(key, i);
                i
            }
        };
        let out = self.conns[idx].on_segment(now, seg_bytes);
        self.emit_all(ctx, out);
    }

    /// RFC 1191: an ICMP fragmentation-needed carries the offending
    /// packet's IP header + 8 bytes — enough to find the connection and
    /// clamp its MSS to the reported next-hop MTU.
    fn handle_icmp(&mut self, ctx: &mut Ctx<'_>, ip: &Ipv4Packet<&[u8]>) {
        self.icmp_received.push(ip.payload().to_vec());
        let Ok(px_wire::icmpv4::Icmpv4Message::FragNeeded {
            next_hop_mtu,
            original,
        }) = px_wire::icmpv4::Icmpv4Message::parse(ip.payload())
        else {
            return;
        };
        // Parse the excerpt: original IP header + first 8 TCP bytes
        // (src port, dst port, seq).
        if original.len() < 20 + 4 {
            return;
        }
        let hlen = usize::from(original[0] & 0x0F) * 4;
        if original.len() < hlen + 4 || original[9] != 6 {
            return; // not TCP
        }
        let orig_dst = Ipv4Addr::new(original[16], original[17], original[18], original[19]);
        let src_port = u16::from_be_bytes([original[hlen], original[hlen + 1]]);
        let dst_port = u16::from_be_bytes([original[hlen + 2], original[hlen + 3]]);
        // The offending packet was *ours*: local port = its source port.
        let key = (orig_dst, dst_port, src_port);
        if let Some(&idx) = self.conn_index.get(&key) {
            let out = self.conns[idx].clamp_path_mtu(ctx.now.0, usize::from(next_hop_mtu));
            self.emit_all(ctx, out);
        }
    }

    fn handle_udp(&mut self, ctx: &mut Ctx<'_>, ip: &Ipv4Packet<&[u8]>, frag_sizes: Vec<usize>) {
        let Ok(dg) = UdpDatagram::new_checked(ip.payload()) else {
            return;
        };
        // F-PMTUD daemon: report how the probe arrived (whole, or as
        // which fragment sizes) back to the prober.
        if self.cfg.fpmtud_daemon && dg.dst_port() == px_wire::fpmtud::FPMTUD_PORT {
            if let Some(report) = px_wire::fpmtud::answer_probe(dg.payload(), &frag_sizes) {
                self.fpmtud_reports += 1;
                let (dst, sport) = (ip.src(), dg.src_port());
                self.send_udp(ctx, px_wire::fpmtud::FPMTUD_PORT, dst, sport, &report);
                return;
            }
        }
        let caravan = self.cfg.caravan_rx && ip.tos() == CARAVAN_TOS;
        let (src, dst) = (ip.src(), ip.dst());
        let Some(sock) = self.udp_socks.get_mut(&dg.dst_port()) else {
            return;
        };
        if caravan {
            sock.deliver_bundle(src, dst, dg.payload());
        } else {
            sock.deliver(src, dst, ip.payload());
        }
    }

    fn on_tick_inner(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now.0;
        // Start scheduled connections.
        for i in 0..self.scheduled.len() {
            if !self.scheduled[i].started && now >= self.scheduled[i].start_ns {
                self.scheduled[i].started = true;
                let mut cfg = self.scheduled[i].cfg.clone();
                cfg.local.0 = self.cfg.addr;
                cfg.mtu = self.cfg.mtu;
                cfg.tso = self.cfg.offloads.tso || self.cfg.offloads.gso;
                let iss: u32 = ctx.rng.gen();
                let mut conn = TcpConnection::client(cfg, iss);
                let out = conn.open(now);
                let key = (conn.cfg.remote.0, conn.cfg.remote.1, conn.cfg.local.1);
                let idx = self.conns.len();
                self.conns.push(conn);
                self.conn_index.insert(key, idx);
                self.scheduled[i].idx = Some(idx);
                self.emit_all(ctx, out);
            }
            // Stop (close) when the duration elapses.
            if let (Some(idx), Some(stop)) =
                (self.scheduled[i].idx, self.scheduled[i].stop_sending_ns)
            {
                if now >= stop && !self.scheduled[i].stopped {
                    self.scheduled[i].stopped = true;
                    let out = self.conns[idx].stop_sending(now);
                    self.emit_all(ctx, out);
                }
            }
        }
        // TCP timers.
        for i in 0..self.conns.len() {
            let out = self.conns[i].on_tick(now);
            self.emit_all(ctx, out);
        }
        // UDP pacing.
        for i in 0..self.udp_flows.len() {
            let f = &mut self.udp_flows[i];
            if now < f.cfg.start_ns || now >= f.cfg.stop_ns {
                f.last_tick_ns = now;
                continue;
            }
            let dt = (now - f.last_tick_ns.max(f.cfg.start_ns)) as f64 / 1e9;
            f.last_tick_ns = now;
            f.credit += f.cfg.rate_bps as f64 * dt / 8.0 / f.cfg.payload as f64;
            let n = (f.credit as usize).min(512);
            f.credit -= n as f64;
            let cfg = f.cfg.clone();
            if self.cfg.caravan_tx {
                self.send_udp_caravan_burst(ctx, &cfg, n, now);
            } else {
                for _ in 0..n {
                    let mut payload = vec![0u8; cfg.payload];
                    crate::fill_pattern(now, &mut payload[..]);
                    self.send_udp(ctx, cfg.local_port, cfg.dst, cfg.dst_port, &payload);
                }
            }
        }
    }
}

impl Node for Host {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(px_sim::Nanos(self.cfg.tick_ns), TICK_TOKEN);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: PacketBuf) {
        let bytes = pkt.as_slice().to_vec();
        // Reassemble fragments first, keeping the fragment sizes (the
        // F-PMTUD daemon reports them).
        match self.reasm.push(&bytes, ctx.now.0) {
            Ok(ReassemblyResult::NotFragmented(p)) => {
                let size = p.len();
                self.handle_ip(ctx, &p, vec![size]);
            }
            Ok(ReassemblyResult::Complete {
                packet,
                fragment_sizes,
            }) => {
                self.handle_ip(ctx, &packet, fragment_sizes);
            }
            Ok(ReassemblyResult::Incomplete) => {}
            Err(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        debug_assert_eq!(token, TICK_TOKEN);
        self.on_tick_inner(ctx);
        ctx.set_timer(px_sim::Nanos(self.cfg.tick_ns), TICK_TOKEN);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
