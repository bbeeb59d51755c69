//! Explicit iMTU advertisement between adjacent b-networks (§4.2).
//!
//! "If a PX b-network directly neighbors other b-networks, it can extend
//! the network path segment that employs a large MTU by explicitly
//! exchanging the per-network iMTU information … One can augment BGP
//! announcements to carry the AS-level iMTU information, or one can come
//! up with a new messaging protocol that runs on PXGW."
//!
//! This module is that messaging protocol: a tiny TLV message carried
//! over UDP between gateways, a neighbor table with liveness expiry, and
//! the translation decision: when the neighbour's iMTU is at least ours,
//! jumbo TCP packets and PX-caravans cross the border *untranslated*.

use px_wire::{Error, Result};

/// Well-known UDP port for PXGW-to-PXGW iMTU advertisements.
pub const ADVERT_PORT: u16 = 3199;

/// Advertisement message magic ("PXMT").
const MAGIC: [u8; 4] = *b"PXMT";

/// One iMTU advertisement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImtuAdvert {
    /// The advertising network's AS number.
    pub asn: u32,
    /// The iMTU enforced inside that network, bytes.
    pub imtu: u32,
    /// Monotone sequence number (stale updates are ignored).
    pub seq: u32,
    /// Advertisement validity in seconds (refresh before expiry).
    pub ttl_secs: u16,
}

impl ImtuAdvert {
    /// Serializes to the wire format:
    /// `magic(4) asn(4) imtu(4) seq(4) ttl(2)` — 18 bytes, big-endian.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(18);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.asn.to_be_bytes());
        out.extend_from_slice(&self.imtu.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ttl_secs.to_be_bytes());
        out
    }

    /// Parses from the wire.
    pub fn parse(data: &[u8]) -> Result<Self> {
        if data.len() < 18 {
            return Err(Error::Truncated);
        }
        if data[0..4] != MAGIC {
            return Err(Error::Malformed);
        }
        Ok(ImtuAdvert {
            asn: px_wire::bytes::be32(data, 4),
            imtu: px_wire::bytes::be32(data, 8),
            seq: px_wire::bytes::be32(data, 12),
            ttl_secs: px_wire::bytes::be16(data, 16),
        })
    }
}

/// What the gateway should do with traffic towards a neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BorderPolicy {
    /// Neighbour is legacy (no advert, or expired): translate to eMTU.
    Translate,
    /// Neighbour advertised an iMTU ≥ `up_to`: forward jumbo packets of
    /// at most `up_to` bytes untranslated.
    PassThrough {
        /// The largest packet that may cross untranslated.
        up_to: u32,
    },
}

#[derive(Debug, Clone, Copy)]
struct NeighborEntry {
    advert: ImtuAdvert,
    received_at_ns: u64,
}

/// The PXGW neighbour table.
#[derive(Debug, Default)]
pub struct NeighborTable {
    entries: std::collections::HashMap<u32, NeighborEntry>,
}

impl NeighborTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests an advertisement received at `now_ns`. Stale sequence
    /// numbers are ignored. Returns whether the table changed.
    pub fn ingest(&mut self, now_ns: u64, advert: ImtuAdvert) -> bool {
        match self.entries.get(&advert.asn) {
            Some(e) if e.advert.seq >= advert.seq => false,
            _ => {
                self.entries.insert(
                    advert.asn,
                    NeighborEntry {
                        advert,
                        received_at_ns: now_ns,
                    },
                );
                true
            }
        }
    }

    /// The policy towards `asn` for a border whose own iMTU is
    /// `own_imtu`, evaluated at `now_ns` (expired adverts mean legacy).
    pub fn policy(&self, now_ns: u64, asn: u32, own_imtu: u32) -> BorderPolicy {
        match self.entries.get(&asn).filter(|e| e.live_at(now_ns)) {
            // Forward untranslated up to the *smaller* of the two
            // iMTUs (the neighbour may be larger than us; our own
            // packets are already bounded by our iMTU).
            Some(e) => BorderPolicy::PassThrough {
                up_to: e.advert.imtu.min(own_imtu),
            },
            None => BorderPolicy::Translate,
        }
    }

    /// Whether `asn`'s latest advert is still valid at `now_ns`.
    pub(crate) fn is_live(&self, now_ns: u64, asn: u32) -> bool {
        self.entries.get(&asn).is_some_and(|e| e.live_at(now_ns))
    }

    /// Number of live neighbours at `now_ns`.
    pub fn live_neighbors(&self, now_ns: u64) -> usize {
        self.entries.values().filter(|e| e.live_at(now_ns)).count()
    }
}

impl NeighborEntry {
    /// Whether the advert is still valid at `now_ns`.
    fn live_at(&self, now_ns: u64) -> bool {
        now_ns.saturating_sub(self.received_at_ns)
            <= u64::from(self.advert.ttl_secs) * 1_000_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn advert(asn: u32, imtu: u32, seq: u32) -> ImtuAdvert {
        ImtuAdvert {
            asn,
            imtu,
            seq,
            ttl_secs: 30,
        }
    }

    #[test]
    fn wire_roundtrip() {
        let a = advert(64512, 9000, 7);
        let b = ImtuAdvert::parse(&a.to_bytes()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(ImtuAdvert::parse(&[0; 4]).unwrap_err(), Error::Truncated);
        let mut bytes = advert(1, 9000, 1).to_bytes();
        bytes[0] = b'X';
        assert_eq!(ImtuAdvert::parse(&bytes).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn unknown_neighbor_translates() {
        let t = NeighborTable::new();
        assert_eq!(t.policy(0, 99, 9000), BorderPolicy::Translate);
    }

    #[test]
    fn advertised_neighbor_passes_through_min_imtu() {
        let mut t = NeighborTable::new();
        t.ingest(0, advert(64512, 16000, 1));
        assert_eq!(
            t.policy(1_000_000_000, 64512, 9000),
            BorderPolicy::PassThrough { up_to: 9000 }
        );
        t.ingest(0, advert(64513, 4000, 1));
        assert_eq!(
            t.policy(0, 64513, 9000),
            BorderPolicy::PassThrough { up_to: 4000 }
        );
    }

    #[test]
    fn stale_seq_ignored_fresh_seq_wins() {
        let mut t = NeighborTable::new();
        assert!(t.ingest(0, advert(1, 9000, 5)));
        assert!(!t.ingest(1, advert(1, 4000, 5)), "same seq ignored");
        assert!(!t.ingest(1, advert(1, 4000, 4)), "older seq ignored");
        assert!(t.ingest(1, advert(1, 4000, 6)));
        assert_eq!(
            t.policy(1, 1, 9000),
            BorderPolicy::PassThrough { up_to: 4000 }
        );
    }

    #[test]
    fn expiry_reverts_to_translate() {
        let mut t = NeighborTable::new();
        t.ingest(0, advert(1, 9000, 1)); // ttl 30 s
        assert_eq!(t.live_neighbors(0), 1);
        let after = 31_000_000_000;
        assert_eq!(t.policy(after, 1, 9000), BorderPolicy::Translate);
        assert_eq!(t.live_neighbors(after), 0);
    }
}
