//! Deterministic chaos for the PXGW datapath (DESIGN.md §12).
//!
//! The paper puts PXGW in the critical path of every flow crossing the
//! b-network border, so faults must *degrade* service, never break the
//! byte stream. This crate supplies the primitives the engines and the
//! chaos harness share:
//!
//! - [`XorShift64`] — the seeded generator every fault draw comes from.
//!   No wall clock anywhere: identical seeds give identical fault
//!   schedules, which is what makes the 10k-seed chaos matrix and the
//!   cross-core digest-identity checks possible.
//! - [`FaultSpec`] / [`FaultPlan`] — a `Copy` fault configuration and
//!   the stateful ingress applier that injects drop / duplicate /
//!   reorder / corrupt / truncate into a packet trace *before* RSS
//!   sharding, so the faulted trace is the same at any core count.
//! - [`PlannedFaults`] — resource faults (pool exhaustion, flow-table
//!   pressure) decided *statelessly* per packet from a hash of the
//!   packet bytes and the seed. A packet gets the same verdict on 1
//!   core or 8, so resource faults cannot perturb cross-core content
//!   identity. The disabled injector is a single predicted branch.
//! - [`DetBackoff`] — the jitter-free exponential backoff schedule the
//!   F-PMTUD prober and the PMTUD client retry on.
//! - [`attack`] — seeded *adversarial* generators (vs. the merely
//!   unreliable network the fault plan models): TCP injection/overlap
//!   schedules, malformed caravan bundles with ground truth, and
//!   spoofed F-PMTUD report streams, all pure functions of a seed so
//!   the attack matrix replays identically at any core count.
//!
//! The fault primitives are dependency-free (the attack generators pull
//! in `px-wire` to build real checksummed packets) and never allocate on
//! the per-packet decision paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod backoff;
pub mod inject;
pub mod plan;
pub mod rng;
pub mod spec;

pub use backoff::DetBackoff;
pub use inject::{decide_ppm, hash_bytes, PlannedFaults};
pub use plan::{FaultPlan, IngressStats};
pub use rng::{splitmix64, XorShift64};
pub use spec::{cause, FaultSpec};
