//! iPerf-style experiment runners: stand up host pairs, run N TCP or UDP
//! flows for a duration, harvest throughput.
//!
//! These are the building blocks of the WAN experiments (Fig. 1d, §5.2)
//! and of many integration tests. Gateway-in-the-middle variants live in
//! the bench crate (which may depend on `px-core`; this crate must not).

use px_sim::link::LinkConfig;
use px_sim::network::Network;
use px_sim::node::{NodeId, PortId};
use px_sim::time::Nanos;
use px_tcp::conn::ConnConfig;
use px_tcp::host::{Host, HostConfig, UdpFlowCfg};
use px_tcp::udp::UdpSocket;
use std::net::Ipv4Addr;

/// Address of host A (client/sender side) in built pairs.
pub const A_ADDR: Ipv4Addr = Ipv4Addr::new(10, 10, 0, 1);
/// Address of host B (server/receiver side) in built pairs.
pub const B_ADDR: Ipv4Addr = Ipv4Addr::new(10, 10, 0, 2);

/// Configuration of a host-pair iPerf run.
#[derive(Debug, Clone)]
pub struct IperfPair {
    /// MTU at host A.
    pub mtu_a: usize,
    /// MTU at host B.
    pub mtu_b: usize,
    /// The connecting link.
    pub link: LinkConfig,
    /// Number of parallel flows (iperf -P).
    pub flows: usize,
    /// Test duration.
    pub duration: Nanos,
    /// Simulation seed.
    pub seed: u64,
}

/// The harvest of a run.
#[derive(Debug, Clone)]
pub struct IperfReport {
    /// Bytes each flow delivered (receiver side, in order).
    pub per_flow_bytes: Vec<u64>,
    /// Aggregate goodput in bits/sec over the duration.
    pub aggregate_bps: f64,
    /// Total sender retransmissions.
    pub retransmits: u64,
    /// Total integrity errors (must be 0).
    pub integrity_errors: u64,
    /// Effective MSS the first flow negotiated.
    pub effective_mss: usize,
}

impl IperfPair {
    /// A single flow over the paper's WAN profile (10 ms delay, 0.01%
    /// loss) at the given MTU — the Fig. 1d scenario.
    pub fn paper_wan(mtu: usize) -> Self {
        IperfPair {
            mtu_a: mtu,
            mtu_b: mtu,
            // tc-netem's default queue limit is 1000 packets; the link
            // queue models the software router's buffer.
            link: LinkConfig::new(100_000_000_000, Nanos::ZERO, mtu)
                .with_netem(px_sim::netem::Netem::paper_wan())
                .with_queue(1000 * mtu),
            flows: 1,
            duration: Nanos::from_secs(30),
            seed: 42,
        }
    }

    /// Runs TCP flows from A to B; returns the report.
    pub fn run_tcp(&self) -> IperfReport {
        let (mut net, a, b, duration) = self.build_tcp();
        net.run_until(duration + Nanos::from_secs(1));
        let server_stats = net.node_ref::<Host>(b).tcp_stats();
        let client_stats = net.node_ref::<Host>(a).tcp_stats();
        let per_flow_bytes: Vec<u64> = server_stats.iter().map(|s| s.bytes_received).collect();
        let total: u64 = per_flow_bytes.iter().sum();
        IperfReport {
            aggregate_bps: total as f64 * 8.0 / duration.as_secs_f64(),
            per_flow_bytes,
            // Retransmissions happen at the sender (client) side.
            retransmits: client_stats.iter().map(|s| s.retransmits).sum(),
            integrity_errors: server_stats.iter().map(|s| s.integrity_errors).sum::<u64>()
                + client_stats.iter().map(|s| s.integrity_errors).sum::<u64>(),
            effective_mss: client_stats.first().map(|s| s.effective_mss).unwrap_or(0),
        }
    }

    /// Builds the network without running it (callers that want to
    /// inspect nodes mid-run).
    pub fn build_tcp(&self) -> (Network, NodeId, NodeId, Nanos) {
        let mut net = Network::new(self.seed);
        let a = net.add_node(Host::new(HostConfig::new(A_ADDR, self.mtu_a)));
        let b = net.add_node(Host::new(HostConfig::new(B_ADDR, self.mtu_b)));
        net.connect((a, PortId(0)), (b, PortId(0)), self.link);
        {
            let server = net.node_mut::<Host>(b);
            server.listen(
                5201,
                ConnConfig::new((B_ADDR, 5201), (A_ADDR, 0), self.mtu_b),
            );
        }
        {
            let client = net.node_mut::<Host>(a);
            for i in 0..self.flows {
                let cfg = ConnConfig::new((A_ADDR, 40000 + i as u16), (B_ADDR, 5201), self.mtu_a)
                    .sending(u64::MAX);
                client.connect_at(
                    (i as u64) * 1_000_000, // staggered starts, 1 ms apart
                    cfg,
                    Some(self.duration.0),
                );
            }
        }
        (net, a, b, self.duration)
    }

    /// Runs paced UDP flows from A to B at `rate_bps` per flow with
    /// `payload`-byte datagrams; returns (datagrams delivered, bytes).
    pub fn run_udp(&self, rate_bps: u64, payload: usize) -> (u64, u64) {
        let mut net = Network::new(self.seed);
        let a = net.add_node(Host::new(HostConfig::new(A_ADDR, self.mtu_a)));
        let b = net.add_node(Host::new(HostConfig::new(B_ADDR, self.mtu_b)));
        net.connect((a, PortId(0)), (b, PortId(0)), self.link);
        net.node_mut::<Host>(b).udp_bind(UdpSocket::bind(5201));
        {
            let client = net.node_mut::<Host>(a);
            for i in 0..self.flows {
                client.add_udp_flow(UdpFlowCfg {
                    local_port: 40000 + i as u16,
                    dst: B_ADDR,
                    dst_port: 5201,
                    rate_bps,
                    payload,
                    start_ns: 0,
                    stop_ns: self.duration.0,
                });
            }
        }
        net.run_until(self.duration + Nanos::from_secs(1));
        let sock = net.node_ref::<Host>(b).udp_socket(5201).unwrap();
        (sock.stats.datagrams, sock.stats.payload_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 1d mechanism: at identical loss rate and RTT, the 9 KB
    /// flow outruns the 1500 B flow by roughly √(M·q) scaling (§2.1's
    /// Mathis argument) — several-fold.
    #[test]
    fn wan_jumbo_beats_legacy_severalfold() {
        let mut legacy = IperfPair::paper_wan(1500);
        legacy.duration = Nanos::from_secs(15);
        let mut jumbo = IperfPair::paper_wan(9000);
        jumbo.duration = Nanos::from_secs(15);
        let l = legacy.run_tcp();
        let j = jumbo.run_tcp();
        assert_eq!(l.integrity_errors + j.integrity_errors, 0);
        let ratio = j.aggregate_bps / l.aggregate_bps;
        assert!(
            ratio > 3.0,
            "9 KB / 1500 B ratio {ratio} (l={} j={})",
            l.aggregate_bps,
            j.aggregate_bps
        );
        assert_eq!(j.effective_mss, 8960);
    }

    #[test]
    fn parallel_flows_share_the_link() {
        let pair = IperfPair {
            mtu_a: 1500,
            mtu_b: 1500,
            link: LinkConfig::new(1_000_000_000, Nanos::from_millis(1), 1500),
            flows: 4,
            duration: Nanos::from_secs(5),
            seed: 3,
        };
        let r = pair.run_tcp();
        assert_eq!(r.per_flow_bytes.len(), 4);
        assert_eq!(r.integrity_errors, 0);
        // Aggregate near link rate; no flow starved.
        assert!(r.aggregate_bps > 0.7e9, "aggregate {}", r.aggregate_bps);
        let max = *r.per_flow_bytes.iter().max().unwrap() as f64;
        let min = *r.per_flow_bytes.iter().min().unwrap() as f64;
        assert!(min > 0.2 * max, "rough fairness: {min} vs {max}");
    }

    #[test]
    fn udp_pair_delivers_at_offered_rate() {
        let pair = IperfPair {
            mtu_a: 1500,
            mtu_b: 1500,
            link: LinkConfig::new(1_000_000_000, Nanos::from_micros(100), 1500),
            flows: 2,
            duration: Nanos::from_secs(2),
            seed: 4,
        };
        let (dgrams, bytes) = pair.run_udp(20_000_000, 1000);
        let expected = 2.0 * 20e6 * 2.0 / 8.0 / 1000.0;
        assert!(
            (dgrams as f64 - expected).abs() / expected < 0.06,
            "{dgrams} vs {expected}"
        );
        assert_eq!(bytes, dgrams * 1000);
    }
}
