//! Modeled vs. real: the Fig. 5a/5b sweep driven through the *actual*
//! multi-threaded engine, next to the calibrated pipeline model.
//!
//! The model ([`px_core::pipeline::run_pipeline`]) prices cycles and
//! the memory bus to predict what a 3rd-gen Xeon PXGW forwards
//! (Tbps-scale). The engine ([`px_core::engine::run_engine`]) runs the
//! same trace through the same per-core merge/caravan code on real OS
//! threads and measures wall-clock on *this* host (Gbps-scale, one
//! process, no NIC). The two columns answer different questions; the
//! row-by-row invariant that ties them together is the conversion
//! yield, which both compute from the same steady-state output packets
//! and must agree exactly.

use crate::Scale;
use px_core::engine::{run_engine, EngineConfig, EngineMode};
use px_core::pipeline::{run_pipeline, PipelineConfig, SystemVariant, WorkloadKind};

/// One (workload, cores) comparison row.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Workload label ("TCP" / "UDP").
    pub workload: &'static str,
    /// Core count (model cores == engine worker threads).
    pub cores: usize,
    /// Modeled forwarding throughput (calibrated cycle/bus model).
    pub modeled_bps: f64,
    /// Measured single-host throughput of the threaded engine.
    pub measured_bps: f64,
    /// Conversion yield the model reports.
    pub modeled_cy: f64,
    /// Conversion yield the engine measured.
    pub engine_cy: f64,
    /// Steady-state output packets, model.
    pub pkts_out_model: u64,
    /// Steady-state output packets, engine.
    pub pkts_out_engine: u64,
}

/// Runs the PX variant through both the model and the Parallel engine.
pub fn run(scale: Scale) -> Vec<Row> {
    let trace_pkts = match scale {
        Scale::Full => 120_000,
        Scale::Quick => 20_000,
    };
    let mut rows = Vec::new();
    for (label, workload) in [("TCP", WorkloadKind::Tcp), ("UDP", WorkloadKind::Udp)] {
        for cores in [1usize, 2, 4, 8] {
            let mut pipe = PipelineConfig::fig5(SystemVariant::Px, workload, cores);
            pipe.trace_pkts = trace_pkts;
            let model = run_pipeline(pipe);
            let engine = run_engine(EngineConfig::new(pipe, EngineMode::Parallel));
            rows.push(Row {
                workload: label,
                cores,
                modeled_bps: model.throughput_bps,
                measured_bps: engine.throughput_bps,
                modeled_cy: model.conversion_yield,
                engine_cy: engine.conversion_yield,
                pkts_out_model: model.pkts_out,
                pkts_out_engine: engine.totals.pkts_out_inband,
            });
        }
    }
    rows
}

/// Renders the side-by-side table for this host.
pub fn render(rows: &[Row]) -> String {
    render_on(
        rows,
        std::thread::available_parallelism().map_or(1, usize::from),
    )
}

/// The table on a host with `cpus` CPUs: a row with more workers than
/// that is tagged `oversubscribed`, since its this-host TP then times
/// threads sharing CPUs, not scaling.
fn render_on(rows: &[Row], cpus: usize) -> String {
    let mut out = String::new();
    out.push_str("Engine — modeled PXGW vs real threaded datapath (PX variant, 800 flows)\n");
    out.push_str("  wl  | cores | modeled TP  | this-host TP | model CY | engine CY | agree\n");
    out.push_str("  ----+-------+-------------+--------------+----------+-----------+------\n");
    for r in rows {
        out.push_str(&format!(
            "  {:3} | {:5} | {:>11} | {:>12} | {:>8} | {:>9} | {}{}\n",
            r.workload,
            r.cores,
            crate::fmt_bps(r.modeled_bps),
            crate::fmt_bps(r.measured_bps),
            crate::pct(r.modeled_cy),
            crate::pct(r.engine_cy),
            if r.pkts_out_model == r.pkts_out_engine {
                "yes"
            } else {
                "NO"
            },
            if r.cores > cpus {
                "  oversubscribed"
            } else {
                ""
            },
        ));
    }
    out.push_str(
        "  modeled TP prices a calibrated Xeon + memory bus; this-host TP is the\n  \
         engine's wall-clock in this process. Yields come from the same output\n  \
         packets and must agree exactly.",
    );
    out.push_str(&format!(
        "\n  This host has {cpus} CPU(s); rows with more cores are oversubscribed.\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_yield_equals_modeled_yield() {
        for r in run(Scale::Quick) {
            assert_eq!(
                r.pkts_out_model, r.pkts_out_engine,
                "{} @{} cores: steady-state output packet counts diverged",
                r.workload, r.cores
            );
            assert!(
                (r.modeled_cy - r.engine_cy).abs() < 1e-12,
                "{} @{} cores: CY {} vs {}",
                r.workload,
                r.cores,
                r.modeled_cy,
                r.engine_cy
            );
            assert!(r.measured_bps > 0.0);
        }
    }

    #[test]
    fn rows_beyond_the_host_cpus_are_marked_oversubscribed() {
        let row = |cores| Row {
            workload: "TCP",
            cores,
            modeled_bps: 1e9,
            measured_bps: 1e9,
            modeled_cy: 0.9,
            engine_cy: 0.9,
            pkts_out_model: 7,
            pkts_out_engine: 7,
        };
        let table = render_on(&[row(1), row(2), row(4)], 2);
        let tagged: Vec<bool> = table
            .lines()
            .filter(|l| l.starts_with("  TCP"))
            .map(|l| l.ends_with("yes  oversubscribed"))
            .collect();
        assert_eq!(tagged, [false, false, true], "{table}");
    }
}
