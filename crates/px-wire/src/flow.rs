//! Flow identification: IP protocol numbers, 5-tuple flow keys, and the
//! Toeplitz hash used by real NICs for receive-side scaling (RSS).
//!
//! PXGW is a *flow-aware* gateway (paper §3): merging requires per-flow
//! state, and RSS distributes flows across gateway cores so that all
//! packets of one flow land on the same core and merging needs no
//! cross-core synchronisation.

use std::net::Ipv4Addr;

/// IP transport protocol numbers this crate cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Any other protocol number, preserved verbatim.
    Other(u8),
}

impl From<u8> for IpProtocol {
    fn from(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(p: IpProtocol) -> u8 {
        match p {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }
}

/// A transport 5-tuple identifying one direction of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: IpProtocol,
}

impl FlowKey {
    /// Builds a TCP flow key.
    pub fn tcp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> Self {
        FlowKey {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto: IpProtocol::Tcp,
        }
    }

    /// Builds a UDP flow key.
    pub fn udp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> Self {
        FlowKey {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto: IpProtocol::Udp,
        }
    }

    /// The same flow seen from the opposite direction.
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }

    /// A direction-independent key: both directions of a connection map to
    /// the same value (used for connection-level state such as MSS
    /// rewriting, which must see both SYN and SYN-ACK).
    pub fn canonical(&self) -> FlowKey {
        let fwd = (self.src_ip, self.src_port);
        let rev = (self.dst_ip, self.dst_port);
        if fwd <= rev {
            *self
        } else {
            self.reversed()
        }
    }
}

/// The default Microsoft RSS key, used by virtually every NIC vendor's
/// driver as the out-of-box Toeplitz secret.
pub const MICROSOFT_RSS_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// A symmetric RSS key (all bytes identical pairs) so that both directions
/// of a flow hash to the same queue — what PXGW programs into its NICs so
/// uplink and downlink of one connection meet on one core.
pub const SYMMETRIC_RSS_KEY: [u8; 40] = [0x6d; 40];

/// Bytes of Toeplitz input the IPv4 4-tuple makes (src, dst, ports).
const TUPLE_BYTES: usize = 12;

/// The 4-tuple in the byte order the NDIS specification hashes it.
fn tuple_bytes(key: &FlowKey) -> [u8; TUPLE_BYTES] {
    let mut input = [0u8; TUPLE_BYTES];
    input[0..4].copy_from_slice(&key.src_ip.octets());
    input[4..8].copy_from_slice(&key.dst_ip.octets());
    input[8..10].copy_from_slice(&key.src_port.to_be_bytes());
    input[10..12].copy_from_slice(&key.dst_port.to_be_bytes());
    input
}

/// Toeplitz hasher over the standard IPv4 4-tuple input.
///
/// The hash is linear over GF(2), so the contribution of input byte `i`
/// with value `v` depends on nothing else: [`new`](Self::new) tabulates
/// it for every `(i, v)` and [`hash`](Self::hash) XORs twelve lookups.
/// [`hash_bytes`](Self::hash_bytes) stays the bit-serial definition the
/// tables are tested against.
#[derive(Debug, Clone)]
pub struct RssHasher {
    key: [u8; 40],
    tables: Box<[[u32; 256]; TUPLE_BYTES]>,
}

impl RssHasher {
    /// Creates a hasher with the given 40-byte secret key.
    pub fn new(key: [u8; 40]) -> Self {
        let mut tables = Box::new([[0u32; 256]; TUPLE_BYTES]);
        for (i, table) in tables.iter_mut().enumerate() {
            // The eight 32-bit key windows input byte `i` can select,
            // MSB first: window `bit` starts at key bit `8 * i + bit`.
            let wide = u64::from(crate::bytes::be32(&key, i)) << 32
                | u64::from(crate::bytes::be32(&key, i + 4));
            for v in 1..256usize {
                let low = v.trailing_zeros();
                let window = ((wide << (7 - low)) >> 32) as u32;
                table[v] = table[v & (v - 1)] ^ window;
            }
        }
        RssHasher { key, tables }
    }

    /// Creates a hasher with the Microsoft default key.
    pub fn microsoft() -> Self {
        RssHasher::new(MICROSOFT_RSS_KEY)
    }

    /// Creates a hasher with a symmetric key (fwd and rev directions of a
    /// flow produce equal hashes).
    pub fn symmetric() -> Self {
        RssHasher::new(SYMMETRIC_RSS_KEY)
    }

    /// Computes the Toeplitz hash of the IPv4 src/dst/ports tuple, exactly
    /// as the NDIS specification defines it.
    pub fn hash(&self, key: &FlowKey) -> u32 {
        tuple_bytes(key)
            .iter()
            .zip(self.tables.iter())
            .fold(0, |h, (&byte, table)| h ^ table[usize::from(byte)])
    }

    /// Toeplitz hash over arbitrary input bytes.
    pub fn hash_bytes(&self, input: &[u8]) -> u32 {
        debug_assert!(input.len() + 4 <= self.key.len());
        let mut result: u32 = 0;
        // The sliding 32-bit window over the key, starting at bit 0.
        let mut window = crate::bytes::be32(&self.key, 0);
        for (i, &byte) in input.iter().enumerate() {
            let next_key_byte = self.key[i + 4];
            for bit in 0..8 {
                if byte & (0x80 >> bit) != 0 {
                    result ^= window;
                }
                // Shift the window left by one bit, pulling in the next key bit.
                let next_bit = (next_key_byte >> (7 - bit)) & 1;
                window = (window << 1) | u32::from(next_bit);
            }
        }
        result
    }

    /// Maps a flow to one of `n_queues` RX queues, as the NIC indirection
    /// table does (low bits of the hash). A single queue takes every
    /// flow, so nothing is hashed for it.
    pub fn queue_for(&self, key: &FlowKey, n_queues: usize) -> usize {
        debug_assert!(n_queues > 0);
        if n_queues == 1 {
            return 0;
        }
        (self.hash(key) as usize) % n_queues
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_conversion_roundtrip() {
        for v in [1u8, 6, 17, 47, 132] {
            assert_eq!(u8::from(IpProtocol::from(v)), v);
        }
    }

    /// Verification vectors from the Microsoft RSS specification
    /// ("Verifying the RSS Hash Calculation", Windows driver docs).
    #[test]
    fn toeplitz_ndis_vectors() {
        let h = RssHasher::microsoft();
        // 66.9.149.187:2794 -> 161.142.100.80:1766  => 0x51ccc178
        let k1 = FlowKey::tcp(
            Ipv4Addr::new(66, 9, 149, 187),
            2794,
            Ipv4Addr::new(161, 142, 100, 80),
            1766,
        );
        assert_eq!(h.hash(&k1), 0x51ccc178);
        // 199.92.111.2:14230 -> 65.69.140.83:4739 => 0xc626b0ea
        let k2 = FlowKey::tcp(
            Ipv4Addr::new(199, 92, 111, 2),
            14230,
            Ipv4Addr::new(65, 69, 140, 83),
            4739,
        );
        assert_eq!(h.hash(&k2), 0xc626b0ea);
        // The indirection is the hash's low bits for any real fan-out;
        // a single queue short-circuits to 0.
        for n in [2usize, 3, 8, 64] {
            assert_eq!(h.queue_for(&k1, n), 0x51ccc178 % n);
            assert_eq!(h.queue_for(&k2, n), 0xc626b0ea % n);
        }
        assert_eq!((h.queue_for(&k1, 1), h.queue_for(&k2, 1)), (0, 0));
    }

    /// `hash` reads the lookup tables; `hash_bytes` is the bit-serial
    /// definition. (`tests/proptests.rs` repeats this over random keys.)
    #[test]
    fn table_hash_equals_the_bit_serial_oracle() {
        for h in [RssHasher::microsoft(), RssHasher::symmetric()] {
            for i in 0..2_000u32 {
                let x = i.wrapping_mul(0x9e37_79b9);
                let k = FlowKey::udp(
                    Ipv4Addr::from(x),
                    (x >> 7) as u16,
                    Ipv4Addr::from(x.rotate_left(13) ^ 0xa5a5_5a5a),
                    (x >> 19) as u16,
                );
                assert_eq!(h.hash(&k), h.hash_bytes(&tuple_bytes(&k)));
            }
        }
    }

    #[test]
    fn symmetric_key_is_direction_independent() {
        let h = RssHasher::symmetric();
        let k = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            1234,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        assert_eq!(h.hash(&k), h.hash(&k.reversed()));
    }

    #[test]
    fn microsoft_key_is_not_symmetric() {
        let h = RssHasher::microsoft();
        let k = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            1234,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        assert_ne!(h.hash(&k), h.hash(&k.reversed()));
    }

    #[test]
    fn canonical_is_direction_independent() {
        let k = FlowKey::udp(
            Ipv4Addr::new(10, 0, 0, 9),
            999,
            Ipv4Addr::new(10, 0, 0, 2),
            53,
        );
        assert_eq!(k.canonical(), k.reversed().canonical());
        assert_eq!(k.reversed().reversed(), k);
    }

    #[test]
    fn queue_distribution_covers_all_queues() {
        let h = RssHasher::microsoft();
        let mut seen = [false; 8];
        for i in 0..200u16 {
            let k = FlowKey::tcp(
                Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8),
                5000 + i,
                Ipv4Addr::new(10, 0, 0, 2),
                80,
            );
            seen[h.queue_for(&k, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 queues should receive flows");
    }
}
