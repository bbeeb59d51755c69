//! `pxbench`: the PXGW benchmark.
//!
//! ```text
//! pxbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! pxbench compare A.json B.json
//! pxbench describe        # the text of BENCHMARK.json
//! pxbench surface         # the program signatures the benchmark calls
//! ```
//!
//! `run` generates each workload's traffic from `--seed`, times the
//! program from outside through the functions listed in `sut.rs`, checks
//! every delivered byte, and prints every metric by name with its unit.
//! With `--workload`, the last line of standard output is the driver's
//! result object: the end-to-end metrics for `--trace 0`, the per-layer
//! metrics (and the span file) for `--trace 1`. Without `--workload` it
//! runs all six, both ways. This benchmark claims no gain; a later change
//! names its claim by the metric and workload names fixed here.

mod alloc;
mod compare;
mod gen;
mod host;
mod json;
mod layers;
mod measure;
mod metrics;
mod sut;
mod trace;
mod verify;
mod workloads;

use gen::Trace;
use json::Value;
use measure::{summarize, Datapath, Recycle, Summary, Timed};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use sut::{engine_config, PipelineConfig, Translate};
use verify::{Checker, Verdict};
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per end-to-end run: `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest reps a timed block may end with, however short `--seconds` is.
const MIN_REPS: usize = 5;
/// Calibration drift beyond which the timed block runs again.
const NOISY_DRIFT: f64 = 0.10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    EndToEnd,
    Layers,
    Both,
}

struct Opts {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    mode: Mode,
    out: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pxbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       pxbench compare A.json B.json\n       pxbench describe | surface\nworkloads: {}",
        workloads::ALL.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        mode: Mode::Both,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                opts.workload = Some(workloads::by_name(value).ok_or_else(bad)?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.mode = match value {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::Layers,
                    _ => return Err(bad()),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

/// One set-up: generate the trace, build the pipeline, one warm-up pass
/// through the whole engine and the loop. Returns its wall time too.
fn set_up(w: &Workload, seed: u64) -> (Trace, PipelineConfig, f64) {
    let start = Instant::now();
    let trace = gen::generate(&w.spec, seed);
    let pipe = w.pipe();
    if w.translate != Translate::Egress {
        measure::run_engine(engine_config(pipe), trace.pkts.clone());
    }
    let mut dp = Datapath::new(w.translate, &pipe, None);
    measure::run_loop(
        &mut dp,
        trace.pkts.clone(),
        pipe.offered_pps,
        &mut Recycle::default(),
        None,
    );
    let secs = start.elapsed().as_secs_f64();
    (trace, pipe, secs)
}

/// The verification pass: the loop into the checking sink (which also
/// dates every emission), and one whole-engine call with capture on,
/// both compared against what was offered.
fn verify_all(w: &Workload, pipe: &PipelineConfig, trace: &Trace) -> (Verdict, Option<Verdict>) {
    let full_at = w.full_at(pipe);
    let mut checker = Checker::new(trace, full_at, Some(pipe.offered_pps));
    let mut dp = Datapath::new(w.translate, pipe, None);
    measure::run_loop(
        &mut dp,
        trace.pkts.clone(),
        pipe.offered_pps,
        &mut checker,
        None,
    );
    let from_loop = checker.finish();
    let from_engine = (w.translate != Translate::Egress).then(|| {
        let mut cfg = engine_config(*pipe);
        cfg.capture_output = true;
        let run = measure::run_engine(cfg, trace.pkts.clone());
        let mut checker = Checker::new(trace, full_at, None);
        for pkt in &run.captured {
            checker.check(pkt);
        }
        checker.finish()
    });
    (from_loop, from_engine)
}

/// An end-to-end row: the metric's unit comes from the metric table.
fn stat(name: &str, s: Summary) -> Value {
    let unit = metrics::end_to_end(name)
        .unwrap_or_else(|| panic!("{name} is not in metrics::END_TO_END"))
        .unit;
    let mut v = Value::obj();
    v.set("value", s.median)
        .set("unit", unit)
        .set("p25", s.p25)
        .set("p75", s.p75)
        .set("n", s.n);
    v
}

fn point(name: &str, value: f64) -> Value {
    stat(
        name,
        Summary {
            median: value,
            p25: value,
            p75: value,
            n: 1,
        },
    )
}

fn per_rep(samples: &[f64], f: impl Fn(f64) -> f64) -> Summary {
    summarize(&samples.iter().map(|&s| f(s)).collect::<Vec<_>>())
}

struct Outcome {
    /// The workload's block of the result file.
    block: Value,
    correct: bool,
    attempted: u64,
    failed: u64,
}

fn run_workload(w: &Workload, opts: &Opts, out_dir: &Path) -> Result<Outcome, String> {
    let started = Instant::now();
    let nproc = host::nproc();
    let mut tags: Vec<String> = Vec::new();

    let (trace, pipe, first_setup_s) = set_up(w, opts.seed);
    if opts.seed == 1 && trace.fnv != w.pinned_fnv_seed1 {
        return Err(format!(
            "{}: trace hash {:#018x} at seed 1, pinned {:#018x}: the generated input drifted",
            w.name, trace.fnv, w.pinned_fnv_seed1
        ));
    }
    let n = trace.pkts.len() as f64;
    let engine_runs = w.translate != Translate::Egress;

    // The timed block, bracketed by the calibration spin, straight after
    // set-up: the heap holds the trace and nothing else.
    let calib = host::Calibration::new();
    let probe = host::Probe::new();
    let calib_before = calib.spin_ns();
    let drift_now = || (calib.spin_ns() - calib_before).abs() / calib_before;
    let mut drift = 0.0;
    let mut timed = Timed::default();
    if opts.mode != Mode::Layers {
        let mut block = |seconds| {
            timed.measure(w.translate, &pipe, &trace, &probe, seconds, MIN_REPS);
        };
        block(opts.seconds);
        drift = drift_now();
        if drift > NOISY_DRIFT {
            tags.push(format!(
                "noisy: calibration drifted {:.1} % across the timed block; it ran half as long again",
                drift * 100.0
            ));
            block(opts.seconds / 2.0);
        }
    }
    let layers = (opts.mode != Mode::EndToEnd)
        .then(|| layers::measure(w, &pipe, &trace, &probe, opts.seed, opts.seconds, nproc));
    if opts.mode == Mode::Layers {
        drift = drift_now();
    }
    // Only reps measured in the host's fast state count.
    let (fast_engine, few_engine) = measure::fast_state(&timed.engine_probe_ns, MIN_REPS);
    let (fast_loop, few_loop) = measure::fast_state(&timed.loop_probe_ns, MIN_REPS);
    if opts.mode != Mode::Layers && (few_loop || (engine_runs && few_engine)) {
        tags.push("noisy: too few reps caught the host in its fast state; every rep counts".into());
    }

    // Verification: a wrong gateway has no throughput to report. It runs
    // after the timed block because its captures leave the heap in a
    // seed-dependent state, and the reps' packet copies would land
    // scattered in it (up to 20 % slower loops on some seeds).
    let expected_drop_share = trace.expected_drop_share();
    let (from_loop, from_engine) = verify_all(w, &pipe, &trace);
    let delivered = from_engine.as_ref().unwrap_or(&from_loop);
    let correct =
        from_loop.ok(expected_drop_share) && from_engine.iter().all(|v| v.ok(expected_drop_share));
    let mut verification = Value::obj();
    verification
        .set("correct", correct)
        .set("flows_offered", delivered.flows_offered)
        .set("failed_flows", delivered.failed_flows)
        .set("expected_drop_share", expected_drop_share)
        .set("drop_share", delivered.drop_share)
        .set("payload_bytes_delivered", delivered.tally.payload_bytes)
        .set("repeated_bytes_discarded", delivered.tally.repeated_bytes)
        .set(
            "malformed_forwarded_verbatim",
            delivered.tally.malformed_forwarded,
        )
        .set("invalid_pkts", delivered.tally.invalid_pkts)
        .set(
            "loop_and_engine_deliver_the_same",
            from_engine
                .as_ref()
                .is_none_or(|e| e.tally.payload_bytes == from_loop.tally.payload_bytes),
        );
    let mut block = Value::obj();
    block
        .set("why", w.why)
        .set("trace_fnv", format!("{:#018x}", trace.fnv))
        .set("pkts_offered", trace.pkts.len())
        .set("wire_bytes_offered", trace.wire_bytes())
        .set("flows_offered", trace.flows.len())
        .set(
            "threads_used",
            if engine_runs {
                "2 (dispatcher + 1 worker; the telemetry sampler sleeps beside them)"
            } else {
                "1 (loop only: the engine has no egress variant)"
            },
        )
        .set(
            "throughput_measured_on",
            if engine_runs { "whole engine" } else { "loop" },
        );
    if !correct {
        block.set("verification", verification);
        return Ok(Outcome {
            block,
            correct,
            attempted: delivered.flows_offered,
            failed: delivered.failed_flows.max(1),
        });
    }

    // `setup_s` is the median of several set-ups; the others run here,
    // after the timed block, for the same reason verification does.
    let mut setup_s = vec![first_setup_s];
    if opts.mode != Mode::Layers {
        setup_s.extend((1..SETUPS).map(|_| set_up(w, opts.seed).2));
    }

    // End-to-end metrics.
    let delays_ns: Vec<f64> = from_loop.delays_ns.iter().map(|&d| d as f64).collect();
    let delays_us = |q: f64| measure::quantile(&delays_ns, q) / 1e3;
    let mut e2e = Value::obj();
    let base = if engine_runs {
        measure::pick(&timed.engine_ns, &fast_engine)
    } else {
        measure::pick(&timed.loop_ns, &fast_loop)
    };
    let payload_bits = delivered.tally.payload_bytes as f64 * 8.0;
    if opts.mode != Mode::Layers {
        let rows = [
            ("setup_s", summarize(&setup_s)),
            ("fwd_mpps", per_rep(&base, |ns| n / ns * 1e3)),
            ("goodput_gbps", per_rep(&base, |ns| payload_bits / ns)),
            (
                "burst_service_us_p50",
                per_rep(&measure::pick(&timed.burst_p50_ns, &fast_loop), |ns| {
                    ns / 1e3
                }),
            ),
            (
                "burst_service_us_p99",
                per_rep(&measure::pick(&timed.burst_p99_ns, &fast_loop), |ns| {
                    ns / 1e3
                }),
            ),
        ];
        for (name, summary) in rows {
            e2e.set(name, stat(name, summary));
        }
        let samples = |ns: &[f64]| ns.iter().map(|&v| Value::from(v)).collect::<Vec<_>>();
        block
            .set("timed_reps", timed.loop_ns.len())
            .set("fast_state_reps", base.len())
            .set("bursts_timed", timed.bursts)
            .set("engine_rep_ns", samples(&timed.engine_ns))
            .set("engine_probe_ns", samples(&timed.engine_probe_ns))
            .set("loop_rep_ns", samples(&timed.loop_ns))
            .set("loop_probe_ns", samples(&timed.loop_probe_ns))
            .set("burst_p50_rep_ns", samples(&timed.burst_p50_ns))
            .set("burst_p99_rep_ns", samples(&timed.burst_p99_ns));
    }
    let counts = [
        ("conversion_yield", delivered.conversion_yield),
        ("delivered_pkt_share", 1.0 - delivered.drop_share),
        ("added_delay_us_p50", delays_us(0.5)),
        ("added_delay_us_p99", delays_us(0.99)),
        ("failed_flow_share", delivered.failed_flow_share),
        ("drop_share", delivered.drop_share),
    ];
    for (name, value) in counts {
        e2e.set(name, point(name, value));
    }
    block.set("end_to_end", e2e);

    // Per-layer metrics.
    if let Some(l) = layers {
        let mut rows = Value::obj();
        let mut put = |name: &str, value: f64| {
            let unit = metrics::PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} is not in metrics::PER_LAYER"))
                .unit;
            let mut v = Value::obj();
            v.set("value", value).set("unit", unit);
            rows.set(name, v);
        };
        for m in metrics::PER_LAYER {
            match m.name {
                "host.calib_ns" => put(m.name, calib_before),
                "host.calib_drift_frac" => put(m.name, drift),
                name => {
                    let (_, v) = l
                        .values
                        .iter()
                        .find(|(k, _)| *k == name)
                        .unwrap_or_else(|| panic!("layers::measure left out {name}"));
                    put(name, *v);
                }
            }
        }
        block.set("per_layer", rows);
        tags.extend(l.tags);
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let path = out_dir.join(format!("trace-{}.json", w.name));
        std::fs::write(&path, &l.trace_json).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut t = Value::obj();
        t.set("file", path.display().to_string())
            .set("span_cover_gap_frac", l.span_cover_gap_frac)
            .set("layer_engine_ns_per_pkt", l.engine_ns.median / n)
            .set("layer_loop_ns_per_pkt", l.loop_ns.median / n);
        block.set("traced_run", t);
    } else {
        let mut host_rows = Value::obj();
        host_rows
            .set("host.calib_ns", calib_before)
            .set("host.calib_drift_frac", drift);
        block.set("noise_guard", host_rows);
    }
    block
        .set("verification", verification)
        .set(
            "tags",
            tags.into_iter().map(Value::from).collect::<Vec<_>>(),
        )
        .set("wall_s", started.elapsed().as_secs_f64());
    Ok(Outcome {
        block,
        correct,
        attempted: delivered.flows_offered,
        failed: delivered.failed_flows,
    })
}

/// Prints one workload's metrics, by name, with units.
fn print_block(name: &str, block: &Value) {
    println!("\n== {name} ==");
    for key in [
        "why",
        "trace_fnv",
        "pkts_offered",
        "threads_used",
        "throughput_measured_on",
        "timed_reps",
    ] {
        if let Some(v) = block.get(key) {
            println!("  {key}: {}", v.compact());
        }
    }
    for section in ["end_to_end", "per_layer"] {
        let Some(rows) = block.get(section) else {
            continue;
        };
        println!("  -- {section} --");
        for (metric, v) in rows.fields() {
            let value = v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = v.get("unit").and_then(Value::as_str).unwrap_or("");
            match v.get("n").and_then(Value::as_f64) {
                Some(n) if n > 1.0 => println!(
                    "  {metric:<38} {value:>14.6} {unit:<10} [p25 {:.6}, p75 {:.6}, n {n}]",
                    v.get("p25").and_then(Value::as_f64).unwrap_or(f64::NAN),
                    v.get("p75").and_then(Value::as_f64).unwrap_or(f64::NAN),
                ),
                _ => println!("  {metric:<38} {value:>14.6} {unit}"),
            }
        }
    }
    for key in ["verification", "traced_run", "tags"] {
        if let Some(v) = block.get(key) {
            println!("  {key}: {}", v.compact());
        }
    }
}

/// The driver's result object for one workload.
fn contract_line(outcome: &Outcome, mode: Mode) -> Value {
    let mut metrics_out = Value::obj();
    if outcome.correct {
        let pick = |section: &str, name: &str| -> Value {
            let row = outcome
                .block
                .get(section)
                .and_then(|s| s.get(name))
                .unwrap_or_else(|| panic!("{section} has no {name}"));
            let mut v = Value::obj();
            v.set("value", row.get("value").cloned().unwrap_or(Value::Null))
                .set("unit", row.get("unit").cloned().unwrap_or(Value::Null));
            v
        };
        if mode != Mode::Layers {
            for m in metrics::END_TO_END.iter().filter(|m| m.in_contract) {
                metrics_out.set(m.name, pick("end_to_end", m.name));
            }
        }
        if mode != Mode::EndToEnd {
            for m in metrics::END_TO_END.iter().filter(|m| !m.in_contract) {
                metrics_out.set(m.name, pick("end_to_end", m.name));
            }
            for m in metrics::PER_LAYER {
                metrics_out.set(m.name, pick("per_layer", m.name));
            }
        }
    }
    let mut line = Value::obj();
    line.set("correct", outcome.correct)
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failed)
        .set("metrics", metrics_out);
    line
}

/// Runs every workload in a process of its own and merges the result
/// files. One process per workload because the heap a workload leaves
/// behind (never trimmed, see `keep_heap_mapped`) decides where the next
/// one's packets land: in one process, the order of workloads moved
/// results by up to 20 %. The driver runs one workload per process too.
fn run_each(opts: &Opts, out_dir: &Path) -> Result<(Value, Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut blocks = Value::obj();
    let mut lines = Value::obj();
    let mut all_correct = true;
    for w in &workloads::ALL {
        let file = out_dir.join(format!("result-{}-seed{}.json", w.name, opts.seed));
        let mut child = std::process::Command::new(&exe);
        child
            .args(["run", "--workload", w.name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .arg("--out")
            .arg(&file);
        match opts.mode {
            Mode::EndToEnd => child.args(["--trace", "0"]),
            Mode::Layers => child.args(["--trace", "1"]),
            Mode::Both => &mut child,
        };
        let status = child
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let result = json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        for (section, into) in [("workloads", &mut blocks), ("driver_result", &mut lines)] {
            let part = result.get(section).and_then(|s| s.get(w.name));
            into.set(w.name, part.cloned().unwrap_or(Value::Null));
        }
    }
    Ok((blocks, lines, all_correct))
}

fn run(opts: Opts) -> Result<ExitCode, String> {
    let out_dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let fingerprint = host::fingerprint();
    let (blocks, lines, all_correct) = match opts.workload {
        None => run_each(&opts, &out_dir)?,
        Some(w) => {
            println!("pxbench: host {}", fingerprint.compact());
            let outcome = run_workload(w, &opts, &out_dir)?;
            print_block(w.name, &outcome.block);
            let (mut blocks, mut lines) = (Value::obj(), Value::obj());
            lines.set(w.name, contract_line(&outcome, opts.mode));
            blocks.set(w.name, outcome.block);
            (blocks, lines, outcome.correct)
        }
    };
    let mut result = Value::obj();
    result
        .set("schema", "pxbench/1")
        .set("host", fingerprint)
        .set("seed", opts.seed)
        .set("seconds_per_timed_block", opts.seconds)
        .set("workloads", blocks)
        .set("driver_result", lines.clone())
        .set("claim", Value::Null);
    let out = opts.out.clone().unwrap_or_else(|| {
        let which = opts.workload.map_or("all", |w| w.name);
        out_dir.join(format!("result-{which}-seed{}.json", opts.seed))
    });
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, result.pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\npxbench: results in {}", out.display());
    if !all_correct {
        println!("pxbench: VERIFICATION FAILED; no throughput is reported");
    }
    // Last line: the result object (one workload), or all of them with
    // the claim this benchmark makes: none.
    match opts.workload {
        Some(w) => println!(
            "{}",
            lines.get(w.name).expect("ran this workload").compact()
        ),
        None => {
            let mut summary = Value::obj();
            summary.set("workloads", lines).set("claim", Value::Null);
            println!("{}", summary.compact());
        }
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Keeps glibc from handing heap back to the kernel mid-run, by
/// re-executing once with `MALLOC_TRIM_THRESHOLD_` set. Each rep frees a
/// whole trace copy (up to 600 MB); whether that ends in a heap trim — a
/// `brk` inside the timed region, then a page fault per page of the next
/// copy — depends on what happens to sit at the top of the heap, which
/// differs by seed and was worth 20 % on `egress-split`. A gateway in
/// steady state does not return its packet memory either.
#[cfg(unix)]
fn keep_heap_mapped() {
    use std::os::unix::process::CommandExt;
    const KEY: &str = "MALLOC_TRIM_THRESHOLD_";
    if std::env::var_os(KEY).is_some() {
        return;
    }
    if let Ok(exe) = std::env::current_exe() {
        // `exec` returns only if it failed; the run then goes on as it is.
        let err = std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env(KEY, (16u64 << 30).to_string())
            .exec();
        eprintln!("pxbench: could not re-execute with {KEY} set ({err}); heap trims may add noise");
    }
}

#[cfg(not(unix))]
fn keep_heap_mapped() {}

fn main() -> ExitCode {
    keep_heap_mapped();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(run),
        Some((cmd, rest)) if cmd == "compare" && rest.len() == 2 => {
            compare::compare(Path::new(&rest[0]), Path::new(&rest[1]))
        }
        Some((cmd, [])) if cmd == "describe" => {
            print!("{}", metrics::benchmark_json().pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some((cmd, [])) if cmd == "surface" => {
            sut::SURFACE.iter().for_each(|line| println!("{line}"));
            Ok(ExitCode::SUCCESS)
        }
        _ => return usage(),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("pxbench: {msg}");
            ExitCode::from(2)
        }
    }
}
