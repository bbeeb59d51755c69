//! # PacketExpress
//!
//! A reproduction of *"Towards Incremental MTU Upgrade for the Internet"*
//! (HotNets '25): the PXGW MTU-translating gateway, the PX-caravan UDP
//! tunnelling format, and F-PMTUD — a one-RTT, ICMP-free path-MTU
//! discovery — together with the full simulation substrate used to
//! reproduce the paper's evaluation.
//!
//! This crate is a facade: it re-exports every workspace crate under one
//! name so downstream users can depend on `packet-express` alone.
//!
//! ```
//! use packet_express::wire::{FlowKey, JUMBO_MTU, LEGACY_MTU};
//! assert_eq!(LEGACY_MTU, 1500);
//! assert_eq!(JUMBO_MTU, 9000);
//! ```
//!
//! See `examples/quickstart.rs` for an end-to-end tour: a client in a
//! legacy 1500 B network talking to a server in a 9 KB b-network through
//! a PXGW that merges, splits, and rewrites MSS on the fly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Wire formats: Ethernet, IPv4 (+fragmentation), TCP, UDP, ICMPv4,
/// GTP-U, PX-caravan. Re-export of [`px_wire`].
pub use px_wire as wire;

/// The deterministic discrete-event network simulator. Re-export of
/// [`px_sim`].
pub use px_sim as sim;

/// Observability: the span recorder, log₂ latency/size histograms,
/// SLO watchdog and Prometheus/JSON metrics export.
/// Re-export of [`px_obs`].
pub use px_obs as obs;

/// Host protocol stacks (TCP with congestion control, UDP, UDP_GRO,
/// caravan hosts). Re-export of [`px_tcp`].
pub use px_tcp as tcp;

/// The paper's core contribution: the PXGW gateway and the iMTU
/// advertisement protocol. Re-export of [`px_core`].
pub use px_core as core;

/// Path-MTU discovery suite: F-PMTUD, classic PMTUD, PLPMTUD, and the
/// fragment-delivery survey. Re-export of [`px_pmtud`].
pub use px_pmtud as pmtud;

/// Deterministic fault injection, degradation, and self-healing
/// primitives for the chaos harness. Re-export of [`px_faults`].
pub use px_faults as faults;

/// The 5G UPF substrate. Re-export of [`px_upf`].
pub use px_upf as upf;

/// Workload generation and CPU accounting. Re-export of [`px_workload`].
pub use px_workload as workload;
