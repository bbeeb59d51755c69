//! # px-obs — observability for the PXGW datapath
//!
//! One telemetry path, engineered to coexist with the repo's hot-path
//! invariants (zero steady-state allocation, bit-identical deterministic
//! digests, px-analyze clean):
//!
//! * **One record, one ring** ([`Span`], [`Ring`], [`Recorder`]) — every
//!   datapath happening is one 48-byte `Copy` [`Span`] in a
//!   fixed-capacity per-core ring, preallocated when observability is
//!   enabled so [`Recorder::record`] is a bounds-checked store and two
//!   integer bumps. Intervals (a merge aggregate's dwell, a caravan
//!   bundle's fill window) and instants (classifier verdict, steer,
//!   split emission, eviction, typed drop, batch boundary, degrade
//!   edges, restart, SLO alert) share the record; merge/caravan
//!   emissions carry a causal link the consuming split spans repeat.
//!   [`Recorder::drain`] renders the last N as a post-mortem timeline,
//!   [`perfetto_json`] exports whole runs for Perfetto.
//! * **Histograms** ([`Histo64`], [`HistSet`]) — log₂-bucketed
//!   HDR-style fixed 64-bucket `Copy` arrays for batch processing
//!   time, per-packet cost, merge-aggregate dwell time, and output
//!   packet sizes, mergeable across cores with p50/p90/p99/max
//!   summaries.
//! * **SLO watchdog** ([`SloSpec`], [`SloWatchdog`]) — declarative
//!   objectives evaluated at batch boundaries, edge-triggered alert
//!   spans, deterministic where digests must be.
//! * **Metrics export** ([`MetricsSnapshot`], [`TimeSample`]) —
//!   registry snapshots serialized to Prometheus text exposition
//!   format and JSON, plus per-interval time-series samples collected
//!   by the engine's in-run sampler thread.
//! * **Live endpoint** ([`serve()`]) — a dependency-free HTTP listener on
//!   the control thread serving `/metrics`, `/healthz`, and
//!   `/trace?flow=` from a running Parallel-mode engine.
//!
//! Determinism is preserved by construction: spans are stamped with
//! *logical* time (trace arrival timestamps derived from packet index
//! and offered load, or per-engine packet counters), never wall-clock,
//! so enabling the recorder cannot perturb deterministic-mode digests.
//! Wall-clock only ever enters the (incomparable) latency histograms.
//!
//! [`ObsConfig::disabled`] short-circuits everything to no-ops: the
//! ring has zero capacity (no allocation at all) and every `record`/
//! `observe_*` call is a single predicted branch.
//!
//! [`Recorder::take`] hands everything one recorder held onward as one
//! [`Telemetry`] value — the engine's end-of-run report assembly and
//! its salvage across a worker restart are the same hand-off.
//!
//! px-analyze rule **R5** statically audits this crate's recording
//! paths (`record`, `observe*`, `push`) for allocation, the same way
//! R3 audits the engines' emission paths.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod recorder;
pub mod ring;
pub mod serve;
pub mod slo;
pub mod snapshot;
pub mod span;

pub use hist::{HistSet, Histo64};
pub use recorder::{ObsConfig, ObsReport, Recorder, Telemetry};
pub use ring::Ring;
pub use serve::{http_get, serve, Response, ServeHandle};
pub use slo::{evaluate_snapshot, BatchObs, SloSpec, SloVerdict, SloWatchdog};
pub use snapshot::{time_series_json, MetricsSnapshot, TimeSample};
pub use span::{drop_reason, flow_id, perfetto_json, Span, SpanCat};
