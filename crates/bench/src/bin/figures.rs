//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures [--quick] [exp ...]
//! ```
//!
//! With no experiment names, runs everything. Experiments: fig1a fig1b
//! fig1c fig1d table1 fig5a fig5b fig5c sender fpmtud survey summary.

use px_bench::Scale;
use std::time::Instant;

/// Runs the flow-lifecycle trace sample and writes the Perfetto JSON to
/// `TRACE_sample.json` in the current directory.
fn run_trace(scale: Scale) -> String {
    let t = px_bench::trace::run(scale);
    let path = "TRACE_sample.json";
    std::fs::write(path, &t.json).expect("write TRACE_sample.json");
    format!("{}  [written to {path}]", px_bench::trace::render(&t))
}

/// Runs a Parallel engine with the live endpoint armed, self-scrapes
/// `/metrics`, `/healthz`, and `/trace`, and — when `PX_SERVE_SECS` is
/// set — keeps the endpoint up that long for external scrapers.
fn run_serve(scale: Scale) -> String {
    use px_core::engine::{run_engine, EngineConfig, EngineMode};
    use px_core::pipeline::{PipelineConfig, SystemVariant, WorkloadKind};
    let trace_pkts = match scale {
        Scale::Full => 120_000,
        Scale::Quick => 20_000,
    };
    let mut pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, 4);
    pipe.trace_pkts = trace_pkts;
    let mut cfg = EngineConfig::new(pipe, EngineMode::Parallel);
    cfg.obs.slo = px_obs::SloSpec::demo();
    cfg.serve_port = Some(0);
    let report = run_engine(cfg);
    let Some(handle) = report.serve.as_ref() else {
        return "live endpoint failed to bind (serve_port was set but no handle came back)".into();
    };
    let addr = handle.addr();
    let mut s = format!("live endpoint at http://{addr}\n");
    for path in ["/metrics", "/healthz", "/trace"] {
        match px_obs::http_get(addr, path) {
            Ok((status, body)) => {
                s.push_str(&format!(
                    "  GET {path} -> {status} ({} bytes)\n",
                    body.len()
                ));
            }
            Err(e) => s.push_str(&format!("  GET {path} -> error: {e}\n")),
        }
    }
    let hold = std::env::var("PX_SERVE_SECS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    if hold > 0 {
        s.push_str(&format!(
            "  holding the endpoint open for {hold}s (PX_SERVE_SECS) — scrape away\n"
        ));
        std::thread::sleep(std::time::Duration::from_secs(hold));
    }
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "figures — regenerate the paper's tables and figures\n\n             USAGE: figures [--quick] [EXPERIMENT ...]\n\n             EXPERIMENTS:\n               fig1a    5G UPF throughput vs MTU\n               fig1b    single-flow RX offload matrix\n               fig1c    RX throughput vs concurrent flows\n               fig1d    WAN single-flow TCP (full simulation)\n               table1   server CPU: 1x9000B vs 6x1500B connections\n               fig5a    PXGW TCP throughput / conversion yield\n               fig5b    PXGW UDP (PX-caravan)\n               fig5c    b-network receiver throughput\n               engine   modeled PXGW vs real threaded datapath\n               metrics  Prometheus/JSON metrics export from a live engine run (--format prometheus|json)\n               trace    flow-lifecycle span trace, Perfetto JSON (writes TRACE_sample.json)\n               serve    live HTTP endpoint (/metrics /healthz /trace) from a Parallel run; PX_SERVE_SECS holds it open\n               sender   §5.2 sender-only upgrade over the WAN\n               fpmtud   §5.3 F-PMTUD vs PLPMTUD pairwise probing\n               survey   §5.3 fragment-delivery survey\n               fairness extension: MTU-mix bottleneck sharing (§6)\n               summary  every headline number, paper vs measured\n\n             With no experiment names, everything runs. --quick shrinks\n             workloads for CI."
        );
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    // `--format <prometheus|json>` selects the `metrics` output format;
    // strip the pair before experiment-name filtering.
    let mut format = px_bench::metrics::MetricsFormat::Prometheus;
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--format" {
            match it.next().map(String::as_str) {
                Some("prometheus") => format = px_bench::metrics::MetricsFormat::Prometheus,
                Some("json") => format = px_bench::metrics::MetricsFormat::Json,
                other => {
                    eprintln!(
                        "--format expects 'prometheus' or 'json', got {:?}",
                        other.unwrap_or("<nothing>")
                    );
                    std::process::exit(2);
                }
            }
        } else if !a.starts_with("--") {
            positional.push(a.as_str());
        }
    }
    let selected = positional;
    let all = [
        "fig1a", "fig1b", "fig1c", "fig1d", "table1", "fig5a", "fig5b", "fig5c", "engine",
        "sender", "fpmtud", "survey", "fairness", "summary",
    ];
    let run_list: Vec<&str> = if selected.is_empty() {
        all.to_vec()
    } else {
        selected
    };

    println!("PacketExpress figure harness — scale: {:?}\n", scale);
    for name in run_list {
        let t0 = Instant::now();
        let table = match name {
            "fig1a" => px_bench::fig1a::render(&px_bench::fig1a::run(scale)),
            "fig1b" => px_bench::fig1b::render(&px_bench::fig1b::run(scale)),
            "fig1c" => px_bench::fig1c::render(&px_bench::fig1c::run(scale)),
            "fig1d" => px_bench::fig1d::render(&px_bench::fig1d::run(scale)),
            "table1" => px_bench::table1::render(&px_bench::table1::run(scale)),
            "fig5a" => px_bench::fig5a::render(&px_bench::fig5a::run(scale)),
            "fig5b" => px_bench::fig5b::render(&px_bench::fig5b::run(scale)),
            "fig5c" => {
                let (rows, udp) = px_bench::fig5c::run(scale);
                px_bench::fig5c::render(&rows, &udp)
            }
            "engine" => px_bench::engine_cmp::render(&px_bench::engine_cmp::run(scale)),
            "metrics" => px_bench::metrics::render(&px_bench::metrics::run(scale), format),
            "trace" => run_trace(scale),
            "serve" => run_serve(scale),
            "sender" => px_bench::sender::render(&px_bench::sender::run(scale)),
            "fpmtud" => px_bench::fpmtud::render(&px_bench::fpmtud::run(scale)),
            "survey" => px_bench::survey::render(&px_bench::survey::run(scale)),
            "fairness" => px_bench::fairness::render(&px_bench::fairness::run(scale)),
            "summary" => px_bench::summary::render(&px_bench::summary::run(scale)),
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        };
        println!("{table}");
        println!("  [{name} took {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
}
