//! `figures metrics` — metrics export from a live engine run.
//!
//! Runs the Parallel engine with observability armed, then renders the
//! final [`MetricsSnapshot`] in Prometheus text exposition format or as
//! JSON (including the sampler's throughput time series). The
//! Prometheus output is checked against [`validate_prometheus`] before
//! it is printed, so CI catches format regressions without an external
//! scraper.

use crate::Scale;
use px_core::engine::{run_engine, EngineConfig, EngineMode};
use px_core::pipeline::{PipelineConfig, SystemVariant, WorkloadKind};
use px_obs::{time_series_json, MetricsSnapshot, TimeSample};
use px_sim::stats::metrics_snapshot_from;

/// Which text format `figures metrics` emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus text exposition format.
    Prometheus,
    /// Hand-rolled JSON with the time series attached.
    Json,
}

/// The metric name prefix used for every exported series.
pub const METRICS_PREFIX: &str = "pxgw";

/// One metrics-export run: the final snapshot plus the sampler series.
#[derive(Debug, Clone)]
pub struct MetricsRun {
    /// Final whole-run snapshot (counters, gauges, histograms).
    pub snapshot: MetricsSnapshot,
    /// Periodic samples collected by the in-run sampler thread (always
    /// ends with the final post-run sample).
    pub series: Vec<TimeSample>,
}

/// Runs the Parallel engine with observability on and collects the
/// exportable state.
pub fn run(scale: Scale) -> MetricsRun {
    let trace_pkts = match scale {
        Scale::Full => 120_000,
        Scale::Quick => 20_000,
    };
    let cores = 4usize;
    let mut pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, cores);
    pipe.trace_pkts = trace_pkts;
    let r = run_engine(EngineConfig::new(pipe, EngineMode::Parallel));
    MetricsRun {
        snapshot: metrics_snapshot_from(&r.totals, &r.obs.hists, cores),
        series: r.obs.time_series.clone(),
    }
}

/// Renders one run in the requested format. Prometheus output is
/// validated first; a malformed exposition aborts loudly rather than
/// shipping unparseable text.
pub fn render(run: &MetricsRun, format: MetricsFormat) -> String {
    match format {
        MetricsFormat::Prometheus => {
            let text = run.snapshot.to_prometheus(METRICS_PREFIX);
            if let Err(e) = validate_prometheus(&text) {
                return format!("INVALID PROMETHEUS OUTPUT: {e}\n---\n{text}");
            }
            text
        }
        MetricsFormat::Json => {
            let mut out = String::new();
            out.push_str("{\n  \"metrics\":\n");
            out.push_str(&run.snapshot.to_json("  "));
            out.push_str(",\n  \"time_series\":\n");
            out.push_str(&time_series_json(&run.series, "  "));
            out.push_str("\n}\n");
            out
        }
    }
}

/// Line-format validator for Prometheus text exposition output.
///
/// Checks, per metric family: `# HELP` precedes `# TYPE` precedes
/// samples; sample names match the family (modulo `_bucket`/`_sum`/
/// `_count` suffixes on histograms); sample values parse as numbers;
/// histogram `_bucket` lines carry a `le` label, are cumulative, and
/// end with `le="+Inf"` equal to `_count`.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let mut current_family: Option<(String, String)> = None; // (name, type)
    let mut have_help = false;
    let mut bucket_cum: Option<u64> = None;
    let mut inf_count: Option<u64> = None;
    let mut families = 0usize;

    let close_family =
        |family: &Option<(String, String)>, inf: &Option<u64>| -> Result<(), String> {
            if let Some((name, kind)) = family {
                if kind == "histogram" && inf.is_none() {
                    return Err(format!("histogram {name} has no le=\"+Inf\" bucket"));
                }
            }
            Ok(())
        };

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            close_family(&current_family, &inf_count)?;
            let name = rest
                .split_whitespace()
                .next()
                .ok_or_else(|| format!("line {n}: HELP without a metric name"))?;
            current_family = Some((name.to_string(), String::new()));
            have_help = true;
            bucket_cum = None;
            inf_count = None;
            families += 1;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {n}: TYPE without a metric name"))?;
            let kind = parts
                .next()
                .ok_or_else(|| format!("line {n}: TYPE without a type"))?;
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {n}: unknown metric type {kind}"));
            }
            match current_family.as_mut() {
                Some((fam, slot)) if fam == name && have_help => *slot = kind.to_string(),
                _ => return Err(format!("line {n}: TYPE {name} without a preceding HELP")),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {n}: unrecognised comment {line}"));
        }

        // Sample line: name[{labels}] value
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: sample without a value: {line}"))?;
        value_part
            .parse::<f64>()
            .map_err(|_| format!("line {n}: non-numeric value {value_part}"))?;
        let (bare, labels) = match name_part.split_once('{') {
            Some((b, l)) => (
                b,
                Some(
                    l.strip_suffix('}')
                        .ok_or_else(|| format!("line {n}: unterminated label set"))?,
                ),
            ),
            None => (name_part, None),
        };
        let Some((fam, kind)) = current_family.as_ref() else {
            return Err(format!("line {n}: sample {bare} before any HELP/TYPE"));
        };
        if kind.is_empty() {
            return Err(format!("line {n}: sample {bare} before its TYPE"));
        }
        let suffix_ok = if kind == "histogram" {
            bare == format!("{fam}_bucket")
                || bare == format!("{fam}_sum")
                || bare == format!("{fam}_count")
        } else {
            bare == fam
        };
        if !suffix_ok {
            return Err(format!(
                "line {n}: sample {bare} does not belong to family {fam}"
            ));
        }
        if bare.ends_with("_bucket") {
            let labels =
                labels.ok_or_else(|| format!("line {n}: _bucket sample without labels"))?;
            let le = labels
                .split(',')
                .find_map(|kv| kv.trim().strip_prefix("le="))
                .ok_or_else(|| format!("line {n}: _bucket sample without an le label"))?
                .trim_matches('"');
            let cum = value_part
                .parse::<u64>()
                .map_err(|_| format!("line {n}: non-integer bucket count"))?;
            if let Some(prev) = bucket_cum {
                if cum < prev {
                    return Err(format!(
                        "line {n}: bucket counts not cumulative ({cum} < {prev})"
                    ));
                }
            }
            bucket_cum = Some(cum);
            if le == "+Inf" {
                inf_count = Some(cum);
            }
        } else if bare.ends_with("_count") && kind == "histogram" {
            let c = value_part
                .parse::<u64>()
                .map_err(|_| format!("line {n}: non-integer _count"))?;
            if let Some(inf) = inf_count {
                if inf != c {
                    return Err(format!("line {n}: _count {c} != le=\"+Inf\" bucket {inf}"));
                }
            }
        }
    }
    close_family(&current_family, &inf_count)?;
    if families == 0 {
        return Err("no metric families found".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_run_exports_valid_prometheus() {
        let m = run(Scale::Quick);
        let text = m.snapshot.to_prometheus(METRICS_PREFIX);
        validate_prometheus(&text).expect("engine snapshot must export cleanly");
        assert!(text.contains("pxgw_pkts_in_total"));
        assert!(text.contains("pxgw_batch_ns_bucket"));
        // The sampler always contributes at least the final sample.
        assert!(!m.series.is_empty());
        let rendered = render(&m, MetricsFormat::Prometheus);
        assert!(!rendered.starts_with("INVALID"));
    }

    #[test]
    fn json_render_includes_time_series() {
        let m = run(Scale::Quick);
        let json = render(&m, MetricsFormat::Json);
        assert!(json.contains("\"metrics\""));
        assert!(json.contains("\"time_series\""));
        assert!(json.contains("\"interval_bps\""));
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        assert!(validate_prometheus("").is_err());
        // Sample before HELP/TYPE.
        assert!(validate_prometheus("pxgw_x 1\n").is_err());
        // TYPE without HELP.
        assert!(validate_prometheus("# TYPE pxgw_x counter\npxgw_x 1\n").is_err());
        // Non-numeric value.
        assert!(
            validate_prometheus("# HELP pxgw_x d\n# TYPE pxgw_x counter\npxgw_x abc\n").is_err()
        );
        // Histogram without +Inf.
        assert!(validate_prometheus(
            "# HELP pxgw_h d\n# TYPE pxgw_h histogram\npxgw_h_bucket{le=\"1\"} 1\npxgw_h_sum 1\npxgw_h_count 1\n"
        )
        .is_err());
        // Non-cumulative buckets.
        assert!(validate_prometheus(
            "# HELP pxgw_h d\n# TYPE pxgw_h histogram\npxgw_h_bucket{le=\"1\"} 2\npxgw_h_bucket{le=\"+Inf\"} 1\npxgw_h_sum 1\npxgw_h_count 1\n"
        )
        .is_err());
        // A clean family passes.
        assert!(validate_prometheus("# HELP pxgw_x d\n# TYPE pxgw_x counter\npxgw_x 1\n").is_ok());
    }

    #[test]
    fn live_endpoint_serves_metrics_health_and_trace() {
        // A Parallel run with the live endpoint armed on an ephemeral
        // port: the handle in the report keeps serving from the shared
        // registry after the run, so the smoke test scrapes post-run.
        let mut pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, 2);
        pipe.trace_pkts = 4_000;
        let mut cfg = EngineConfig::new(pipe, EngineMode::Parallel);
        cfg.obs.slo = px_obs::SloSpec::demo();
        cfg.serve_port = Some(0);
        let report = run_engine(cfg);
        // The armed run evaluated its objectives, and a healthy run
        // stays green.
        assert!(report.obs.slo.evaluated() > 0);
        assert_eq!(report.obs.slo.level(), 0);
        let handle = report.serve.as_ref().expect("endpoint must bind port 0");
        let addr = handle.addr();

        let (status, body) = px_obs::http_get(addr, "/metrics").expect("/metrics reachable");
        assert_eq!(status, 200);
        validate_prometheus(&body).expect("scraped exposition must validate");
        assert!(body.contains("pxgw_pkts_in_total"));
        // The datapath's adversarial drops (DESIGN.md §16) are always
        // exposed — zero-valued on a clean run, but scrapeable before any
        // attack.
        assert!(body.contains("pxgw_dropped_inconsistent_overlap_total"));
        assert!(body.contains("pxgw_dropped_overlap_evasion_total"));

        // A healthy run under the demo objectives answers 200 with an
        // ok verdict; breaches would flip it to 503.
        let (status, body) = px_obs::http_get(addr, "/healthz").expect("/healthz reachable");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"ok\": true"), "{body}");

        let (status, body) = px_obs::http_get(addr, "/trace?flow=1").expect("/trace reachable");
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"traceEvents\": ["), "{body}");
        assert_eq!(body.matches('{').count(), body.matches('}').count());

        let (status, _) = px_obs::http_get(addr, "/nope").expect("unknown route still answers");
        assert_eq!(status, 404);
    }
}
