//! Parser robustness: every wire-format parser in the crate must be
//! total — arbitrary input bytes may be rejected but never panic, and
//! accepted inputs must be internally consistent.

use proptest::prelude::*;
use px_wire::caravan::split_bundle;
use px_wire::ethernet::EthernetFrame;
use px_wire::fpmtud::{answer_probe, parse_probe, parse_report};
use px_wire::frag::Reassembler;
use px_wire::gtpu::GtpuRepr;
use px_wire::icmpv4::Icmpv4Message;
use px_wire::ipv4::{Ipv4Packet, Ipv4Repr};
use px_wire::tcp::{parse_options, TcpRepr, TcpSegment};
use px_wire::udp::UdpDatagram;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// No parser panics on arbitrary bytes.
    #[test]
    fn parsers_are_total(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = EthernetFrame::new_checked(&data[..]);
        if let Ok(ip) = Ipv4Packet::new_checked(&data[..]) {
            // An accepted IPv4 view exposes consistent accessors.
            prop_assert!(ip.header_len() >= 20);
            prop_assert!(ip.total_len() <= data.len());
            let _ = ip.payload();
            let _ = Ipv4Repr::parse(&ip);
        }
        if let Ok(tcp) = TcpSegment::new_checked(&data[..]) {
            prop_assert!(tcp.header_len() >= 20);
            let _ = tcp.payload();
            let _ = TcpRepr::parse(&tcp);
        }
        if let Ok(udp) = UdpDatagram::new_checked(&data[..]) {
            prop_assert!(udp.length() >= 8);
            let _ = udp.payload();
        }
        let _ = parse_options(&data);
        let _ = Icmpv4Message::parse(&data);
        let _ = GtpuRepr::parse(&data);
        let _ = split_bundle(&data);
        let _ = parse_probe(&data);
        let _ = parse_report(&data);
        let _ = answer_probe(&data, &[data.len()]);
    }

    /// The reassembler never panics and never fabricates completions from
    /// garbage.
    #[test]
    fn reassembler_is_total(
        packets in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..128),
            0..16
        )
    ) {
        let mut r = Reassembler::new();
        for p in &packets {
            let _ = r.push(p, 0);
        }
        let _ = r.expire(u64::MAX, 1);
    }

    /// Coalesce/split helpers tolerate arbitrary inputs.
    #[test]
    fn nic_ops_are_total(
        a in proptest::collection::vec(any::<u8>(), 0..256),
        b in proptest::collection::vec(any::<u8>(), 0..256),
        mtu in 1usize..3000,
    ) {
        let _ = px_sim::nic::try_coalesce(&a, &b, 9000);
        let _ = px_sim::nic::tso_split(&a, mtu);
        let _ = px_wire::frag::fragment(&a, mtu);
    }
}
