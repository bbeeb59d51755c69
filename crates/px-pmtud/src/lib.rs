//! # px-pmtud — path-MTU discovery for PacketExpress
//!
//! Three discovery mechanisms, all implemented as real protocols over the
//! simulator, plus the Internet fragment-delivery survey of §5.3:
//!
//! * [`fpmtud`] — **F-PMTUD**, the paper's contribution: the prober sends
//!   one DF-clear UDP probe sized to the first-hop MTU; routers fragment
//!   it en route; the daemon at the destination reports every fragment's
//!   size back; the PMTU is the largest fragment (or the whole probe).
//!   One round trip, no ICMP dependence, immune to blackholes. The
//!   prober node wraps `px_core::pmtud_client`, the hardened prober the
//!   PXGW ships (nonce, source and size checks, a 576 B floor,
//!   confirm-before-shrink), so the two cannot drift apart.
//! * [`classic`] — RFC 1191 PMTUD: DF probes + ICMP *fragmentation
//!   needed* feedback. Fails forever against ICMP blackholes — the
//!   motivating failure.
//! * [`plpmtud`] — RFC 4821-style packetization-layer search (what
//!   Scamper implements): DF probes acknowledged by the destination,
//!   binary search over sizes, timeout-driven — correct but slow.
//! * [`survey`] — the 389k-server fragmented-request survey, reproduced
//!   over a synthetic population with the same packet-level code path.
//! * [`topology`] — helpers that build multi-router WAN paths with
//!   per-hop MTUs, blackholes, and delays.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classic;
pub mod fpmtud;
pub mod plpmtud;
pub mod survey;
pub mod topology;

pub use fpmtud::{FpmtudDaemon, FpmtudProber, ProbeOutcome};
