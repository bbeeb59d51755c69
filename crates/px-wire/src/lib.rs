//! # px-wire — wire formats for PacketExpress
//!
//! This crate implements every on-the-wire format the PacketExpress system
//! touches, in the style of `smoltcp`: a typed *view* over a byte slice
//! (`Ipv4Packet<&[u8]>`, `TcpSegment<&mut [u8]>`, …) plus a plain-Rust
//! *repr* struct (`Ipv4Repr`, `TcpRepr`, …) that can parse from and emit
//! into such a view. Views validate on construction (`new_checked`), reprs
//! are always internally consistent.
//!
//! Formats implemented:
//!
//! * Ethernet II ([`ethernet`])
//! * IPv4 with options-free headers, checksums, and full
//!   fragmentation/reassembly support ([`ipv4`], [`frag`])
//! * TCP with the option kinds PXGW needs to rewrite (MSS, window scale,
//!   SACK-permitted, timestamps) ([`tcp`])
//! * TCP segmentation into scatter-gather views, the datapath's TSO
//!   split ([`tso`])
//! * UDP ([`udp`])
//! * ICMPv4 echo and destination-unreachable/fragmentation-needed
//!   ([`icmpv4`])
//! * GTP-U, the 5G user-plane encapsulation ([`gtpu`])
//! * PX-caravan, the paper's UDP tunnelling format (Fig. 3) ([`caravan`])
//!
//! Supporting pieces: a packet buffer with headroom for cheap
//! encapsulation ([`buffer`]), Internet checksum helpers including
//! incremental update ([`checksum`]), and 5-tuple flow keys with a
//! Toeplitz RSS hash ([`flow`]).

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod batchparse;
pub mod buffer;
pub mod bytes;
pub mod caravan;
pub mod checksum;
pub mod error;
pub mod ethernet;
pub mod flow;
pub mod fpmtud;
pub mod frag;
pub mod gtpu;
pub mod icmpv4;
pub mod ipv4;
pub mod pool;
pub mod tcp;
pub mod tso;
pub mod udp;

pub use buffer::PacketBuf;
pub use error::{Error, Result};
pub use ethernet::{EtherType, EthernetFrame, EthernetRepr, MacAddr};
pub use flow::{FlowKey, IpProtocol, RssHasher};
pub use ipv4::{Ipv4Packet, Ipv4Repr};
pub use pool::{BufPool, PacketSink, SgPacket, SgRc, SgSource, VecSink};
pub use tcp::{TcpFlags, TcpOption, TcpRepr, TcpSegment};
pub use udp::{UdpDatagram, UdpRepr};

/// The legacy Internet MTU that the paper sets out to displace (bytes).
pub const LEGACY_MTU: usize = 1500;

/// The jumbo "internal MTU" used throughout the paper's evaluation (bytes).
pub const JUMBO_MTU: usize = 9000;

/// Minimum IPv4 header length (no options), in bytes.
pub const IPV4_HEADER_LEN: usize = 20;

/// Minimum TCP header length (no options), in bytes.
pub const TCP_HEADER_LEN: usize = 20;

/// UDP header length, in bytes.
pub const UDP_HEADER_LEN: usize = 8;

/// Ethernet II header length, in bytes.
pub const ETHERNET_HEADER_LEN: usize = 14;
