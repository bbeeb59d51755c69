//! # px-bench — the figure/table regeneration harness
//!
//! One module per table/figure in the paper's evaluation. Each module
//! exposes `run(scale)` returning structured rows, and `render(&rows)`
//! printing the same table the paper reports. The `figures` binary ties
//! them together:
//!
//! ```text
//! cargo run --release -p px-bench --bin figures            # everything
//! cargo run --release -p px-bench --bin figures fig5a      # one figure
//! ```
//!
//! [`Scale`] trades fidelity for wall-clock: `Full` reproduces the
//! paper's parameters (389k survey servers, 30 s WAN flows, 120k-packet
//! gateway traces); `Quick` shrinks everything for tests and CI
//! (`figures --quick`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine_cmp;
pub mod fairness;
pub mod fig1a;
pub mod fig1b;
pub mod fig1c;
pub mod fig1d;
pub mod fig5a;
pub mod fig5b;
pub mod fig5c;
pub mod fpmtud;
pub mod metrics;
pub mod sender;
pub mod summary;
pub mod survey;
pub mod table1;
pub mod trace;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale parameters (minutes of wall-clock for the WAN sims).
    Full,
    /// Reduced parameters for tests and `figures --quick` (seconds).
    Quick,
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats bits/sec the way the paper does.
pub use px_sim::stats::fmt_bps;
