//! Timing the program from outside: the whole-engine call, the
//! benchmark's own run-to-completion loop, and the summary statistics
//! both are reported with.

use crate::gen::{now_of, Trace};
use crate::host::Probe;
use crate::sut::{
    egress_caravan, engine_config, run_engine_on_trace, CaravanEngine, CoreEngine, EngineConfig,
    FlowKey, IpProtocol, ObsConfig, PacketBuf, PacketSink, PipelineConfig, SgPacket, SplitEngine,
    Translate,
};
use crate::verify::Checker;
use std::time::Instant;

/// Packets per burst: the engine's default batch, DPDK's usual burst.
pub const BURST: usize = 32;

/// A timing summary: median with quartiles and the sample count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Summary {
        median: quantile(&s, 0.5),
        p25: quantile(&s, 0.25),
        p75: quantile(&s, 0.75),
        n: s.len(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// A sink the loop can tell the logical time of the push in progress.
pub trait LoopSink: PacketSink {
    fn set_now(&mut self, _now: u64) {}
}

impl LoopSink for Checker<'_> {
    fn set_now(&mut self, now: u64) {
        self.now = now;
    }
}

/// The timing sink: counts what is delivered and hands every buffer
/// straight back for recycling, touching no payload byte.
#[derive(Debug, Default, Clone, Copy)]
pub struct Recycle {
    pub pkts: u64,
    /// Deliveries that arrived as scatter-gather views.
    pub sg_pkts: u64,
}

impl PacketSink for Recycle {
    fn accept(&mut self, buf: PacketBuf) -> Option<PacketBuf> {
        self.pkts += 1;
        Some(buf)
    }

    fn push_sg(&mut self, mut pkt: SgPacket<'_>) -> Option<PacketBuf> {
        self.pkts += 1;
        self.sg_pkts += 1;
        Some(pkt.take_header())
    }
}

impl LoopSink for Recycle {}

/// What the loop drives: one `CoreEngine`, or for the egress direction
/// (which the engine has no variant for) a split engine plus a caravan
/// engine, chosen per packet by protocol.
#[allow(clippy::large_enum_variant)]
pub enum Datapath {
    Core(CoreEngine),
    Egress {
        split: SplitEngine,
        caravan: CaravanEngine,
    },
}

impl Datapath {
    pub fn new(translate: Translate, pipe: &PipelineConfig, obs: Option<ObsConfig>) -> Self {
        match translate {
            Translate::Egress => Datapath::Egress {
                split: SplitEngine::new(pipe.emtu),
                caravan: egress_caravan(pipe),
            },
            _ => {
                let mut engine = CoreEngine::for_pipe(pipe);
                if let Some(cfg) = obs {
                    engine.enable_obs(cfg);
                }
                Datapath::Core(engine)
            }
        }
    }

    #[inline]
    pub fn push(&mut self, now: u64, key: &FlowKey, pkt: Vec<u8>, sink: &mut impl PacketSink) {
        match self {
            Datapath::Core(engine) => engine.push_into(now, pkt, sink),
            Datapath::Egress { split, caravan } => match key.proto {
                IpProtocol::Udp => caravan.push_outbound_into(&pkt, sink),
                _ => split.push_into(&pkt, sink),
            },
        }
    }

    pub fn finish(&mut self, sink: &mut impl PacketSink) {
        if let Datapath::Core(engine) = self {
            engine.finish_into(sink);
        }
    }
}

/// One pass of the loop over an owned copy of the trace: per 32-packet
/// burst `push`, then `finish`. Returns the wall time from the first
/// burst to the end of the drain; with `burst_ns`, every burst is also
/// timed on its own.
pub fn run_loop<S: LoopSink>(
    dp: &mut Datapath,
    pkts: Vec<(FlowKey, Vec<u8>)>,
    offered_pps: f64,
    sink: &mut S,
    mut burst_ns: Option<&mut Vec<f64>>,
) -> f64 {
    let start = Instant::now();
    let mut it = pkts.into_iter();
    let mut idx = 0usize;
    let mut t0 = start;
    loop {
        let mut n = 0;
        for (key, pkt) in it.by_ref().take(BURST) {
            let now = now_of(idx, offered_pps);
            sink.set_now(now);
            dp.push(now, &key, pkt, sink);
            idx += 1;
            n += 1;
        }
        if n == 0 {
            break;
        }
        if let Some(out) = burst_ns.as_deref_mut() {
            let t1 = Instant::now();
            if n == BURST {
                out.push((t1 - t0).as_nanos() as f64);
            }
            t0 = t1;
        }
    }
    sink.set_now(now_of(idx.saturating_sub(1), offered_pps));
    dp.finish(sink);
    start.elapsed().as_nanos() as f64
}

/// What one whole-engine call reported, beside its wall time.
#[derive(Debug, Clone, Default)]
pub struct EngineRun {
    pub wall_ns: f64,
    pub backpressure_drops: u64,
    pub captured: Vec<Vec<u8>>,
}

/// One whole-engine call, timed by the benchmark's clock around it:
/// sharding, thread start, join and report building are inside.
pub fn run_engine(cfg: EngineConfig, pkts: Vec<(FlowKey, Vec<u8>)>) -> EngineRun {
    let offered = pkts.len() as u64;
    let start = Instant::now();
    let report = run_engine_on_trace(cfg, pkts);
    let wall_ns = start.elapsed().as_nanos() as f64;
    assert_eq!(
        report.totals.pkts_in, offered,
        "the engine must see every offered packet"
    );
    EngineRun {
        wall_ns,
        backpressure_drops: report.totals.backpressure_drops,
        captured: report.captured_output,
    }
}

/// The samples of one timed block. Every rep carries the host probe
/// taken right after it (see [`fast_state`]).
#[derive(Debug, Default, Clone)]
pub struct Timed {
    /// Whole-engine wall time per rep, ns (empty on egress).
    pub engine_ns: Vec<f64>,
    pub engine_probe_ns: Vec<f64>,
    /// Loop wall time per rep, ns.
    pub loop_ns: Vec<f64>,
    pub loop_probe_ns: Vec<f64>,
    /// Per-rep median and 99th percentile of the burst times, ns.
    pub burst_p50_ns: Vec<f64>,
    pub burst_p99_ns: Vec<f64>,
    /// Bursts timed individually, over all reps.
    pub bursts: usize,
}

/// Probes slower than the run's fast ones by more than this mark a rep
/// taken while the host was slow.
const SLOW_STATE: f64 = 1.10;

/// Indices of the reps measured in the host's fast state.
///
/// The recording host flips between two speed states about 25 % apart,
/// for anything from 50 ms to tens of seconds (co-tenants on the physical
/// core; `nproc` = 2). A median over a mix of both lands in either, run
/// by run. So a 2 ms probe (`host::Probe`) runs right after every rep,
/// and a rep counts only if its probe is within [`SLOW_STATE`] of the
/// run's tenth-percentile probe; what is reported is the median of those
/// reps. With fewer than `min_kept` such reps, every rep counts and the
/// second value is `true` (the caller tags the workload noisy).
pub fn fast_state(probe_ns: &[f64], min_kept: usize) -> (Vec<usize>, bool) {
    let limit = slow_limit(probe_ns);
    let kept: Vec<usize> = (0..probe_ns.len())
        .filter(|&i| probe_ns[i] <= limit)
        .collect();
    if kept.len() < min_kept {
        ((0..probe_ns.len()).collect(), true)
    } else {
        (kept, false)
    }
}

/// The probe time above which the host counts as slow: [`SLOW_STATE`]
/// times the tenth-percentile probe.
pub fn slow_limit(probe_ns: &[f64]) -> f64 {
    let mut sorted = probe_ns.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.10) * SLOW_STATE
}

pub fn pick(samples: &[f64], kept: &[usize]) -> Vec<f64> {
    kept.iter().map(|&i| samples[i]).collect()
}

impl Timed {
    /// Alternates whole-engine and loop reps (so both see the same host
    /// noise) for `seconds` of wall time, at least `min_reps` each,
    /// appending to what earlier calls measured. Trace copies are made
    /// outside every timed region.
    pub fn measure(
        &mut self,
        translate: Translate,
        pipe: &PipelineConfig,
        trace: &Trace,
        probe: &Probe,
        seconds: f64,
        min_reps: usize,
    ) {
        let started = Instant::now();
        let done = self.loop_ns.len();
        let mut bursts = Vec::with_capacity(trace.pkts.len() / BURST + 1);
        while self.loop_ns.len() < done + min_reps || started.elapsed().as_secs_f64() < seconds {
            if translate != Translate::Egress {
                let run = run_engine(engine_config(*pipe), trace.pkts.clone());
                self.engine_probe_ns.push(probe.ns());
                self.engine_ns.push(run.wall_ns);
            }
            let mut dp = Datapath::new(translate, pipe, None);
            bursts.clear();
            let wall = run_loop(
                &mut dp,
                trace.pkts.clone(),
                pipe.offered_pps,
                &mut Recycle::default(),
                Some(&mut bursts),
            );
            self.loop_probe_ns.push(probe.ns());
            self.loop_ns.push(wall);
            bursts.sort_by(f64::total_cmp);
            self.burst_p50_ns.push(quantile(&bursts, 0.5));
            self.burst_p99_ns.push(quantile(&bursts, 0.99));
            self.bursts += bursts.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&s, 0.99), 4.96);
        let sum = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((sum.median, sum.n), (2.5, 4));
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn slow_state_reps_are_set_aside_unless_too_few_remain() {
        // Fast probes near 2.0, slow ones 25 % up.
        let probes = [2.0, 2.5, 2.05, 2.6, 1.98, 2.02, 2.55, 2.1];
        assert_eq!(fast_state(&probes, 3), (vec![0, 2, 4, 5, 7], false));
        // Asking for more fast reps than there are keeps every rep.
        assert_eq!(fast_state(&probes, 6), ((0..8).collect(), true));
        assert_eq!(pick(&[10.0, 20.0, 30.0], &[0, 2]), vec![10.0, 30.0]);
    }
}
