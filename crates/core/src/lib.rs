//! # px-core — PacketExpress: the PXGW MTU-translating gateway
//!
//! The paper's primary contribution. A *PXGW* sits at the border of a
//! "beneficiary network" (b-network) that runs a large internal MTU
//! (iMTU, e.g. 9 KB) while its neighbours stay at the legacy external MTU
//! (eMTU, 1500 B), and translates packet sizes in both directions so
//! neither side notices:
//!
//! * **TCP, inbound (eMTU → iMTU)** — [`merge::MergeEngine`] coalesces
//!   contiguous same-flow segments into jumbo segments (NIC-LRO-style),
//!   with *delayed merging* to maximise the fraction of full iMTU packets;
//! * **TCP, outbound (iMTU → eMTU)** — [`split::SplitEngine`] TSO-splits
//!   jumbo segments back to wire size;
//! * **MSS rewriting** — [`mss`] raises the MSS option in handshake
//!   segments entering the b-network, so inside hosts send jumbo segments
//!   even though the outside peer advertised 1460 B;
//! * **UDP** — [`caravan_gw::CaravanEngine`] bundles datagrams into
//!   PX-caravan packets (boundaries preserved; QUIC-safe) and unbundles
//!   them on the way out;
//! * **one chassis under both hold engines** — the private `chassis`
//!   module: the output pool, the spare buffer, the fault gate and
//!   degradation ladder, the recorder and the span-link counter that
//!   merging and caravan bundling share (they are one mechanism: hold
//!   a flow's bytes in a pooled buffer, flush on timer, eviction or
//!   "full");
//! * **small-flow steering** — the [`steer`] counter rule hairpins mice
//!   flows past the merge machinery (paper §3/§4.1); a steering merge
//!   engine keeps it in the slot of its one per-core [`flowtable`],
//!   beside the flow's merge state, and looks each packet up once;
//! * **multi-core scaling** — [`pipeline`] models the RSS-sharded,
//!   memory-bus-constrained datapath of Fig. 5a/5b, including the
//!   header-only-DMA variant, and [`engine`] *runs* it: one worker
//!   thread per core, each running its own RSS shard to completion (or
//!   the same shards on one thread, with bit-identical output);
//! * **iMTU advertisement** — [`advert`] implements §4.2's explicit
//!   per-network iMTU exchange so adjacent b-networks skip translation.
//!
//! [`gateway::PxGateway`] packages the engines as a two-port
//! [`px_sim::Node`] for end-to-end simulations. The paper's comparison
//! point, DPDK GRO library forwarding, is the same merge engine flushed
//! at every RX burst: [`engine::CoreEngine::Baseline`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod advert;
pub mod caravan_gw;
mod chassis;
pub mod coalesce;
pub mod engine;
pub mod flowtable;
pub mod gateway;
pub mod merge;
pub mod mss;
pub mod pipeline;
pub mod pmtud_client;
pub mod split;
pub mod steer;

pub use flowtable::{FlowTable, FlowTableConfig};
pub use gateway::{GatewayConfig, PxGateway};
pub use merge::{MergeConfig, MergeEngine};
pub use split::SplitEngine;
pub use steer::{FlowClass, FlowClassifier, SteerConfig};
