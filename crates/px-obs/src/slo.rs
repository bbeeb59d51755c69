//! The SLO watchdog — declarative service-level objectives evaluated at
//! batch boundaries.
//!
//! An [`SloSpec`] states what "healthy" means for the gateway: a p99
//! per-packet latency ceiling, a conversion-yield floor, a budget on
//! consecutive batches spent on the degradation ladder, and a budget on
//! pressure evictions. A per-core [`SloWatchdog`] evaluates the spec
//! once per batch (at the engine worker's `process_batch` boundary,
//! where locks and bookkeeping legitimately live) and reports *rising
//! edges*: a breach emits exactly one alert span when it starts, not
//! one per batch while it persists.
//!
//! Determinism: the yield, degrade-residency, and eviction checks are
//! pure functions of logical datapath state, so in Deterministic mode
//! they fire identically across reruns. The latency check reads the
//! wall-clock histograms, so workers arm it **only in Parallel mode**
//! (the caller passes `p99_pkt_ns: None` in Deterministic mode) —
//! alert streams stay bit-identical where digests must.
//!
//! The same evaluation backs the live endpoint's `/healthz` verdict via
//! [`evaluate_snapshot`].

/// Breach bit: p99 per-packet latency over the ceiling.
pub const BREACH_P99: u32 = 1 << 0;
/// Breach bit: conversion yield under the floor.
pub const BREACH_YIELD: u32 = 1 << 1;
/// Breach bit: degrade-ladder residency over budget.
pub const BREACH_DEGRADE: u32 = 1 << 2;
/// Breach bit: pressure evictions over budget.
pub const BREACH_EVICT: u32 = 1 << 3;

/// Names of the breach bits, for rendering.
pub fn breach_names(mask: u32) -> Vec<&'static str> {
    let mut v = Vec::new();
    if mask & BREACH_P99 != 0 {
        v.push("p99_pkt_ns");
    }
    if mask & BREACH_YIELD != 0 {
        v.push("yield");
    }
    if mask & BREACH_DEGRADE != 0 {
        v.push("degrade_residency");
    }
    if mask & BREACH_EVICT != 0 {
        v.push("evicted_pressure");
    }
    v
}

/// A declarative SLO. All-integer so the spec is `Copy + Eq` and can
/// ride inside engine configs; "off" thresholds are the identity
/// values (`u64::MAX` ceilings, `0` floors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SloSpec {
    /// Master switch for the watchdog.
    pub enabled: bool,
    /// p99 per-packet wall-time ceiling in nanoseconds
    /// (`u64::MAX` = unchecked). Wall-clock: Parallel mode only.
    pub p99_pkt_ns_max: u64,
    /// Conversion-yield floor in parts per million (`0` = unchecked).
    pub yield_min_ppm: u32,
    /// Maximum consecutive batches the core may spend degraded
    /// (`u64::MAX` = unchecked).
    pub degrade_batches_max: u64,
    /// Maximum pressure evictions over the run (`u64::MAX` =
    /// unchecked).
    pub evicted_pressure_max: u64,
}

impl Default for SloSpec {
    /// Armed but permissive: the watchdog runs (so its cost is always
    /// measured) with thresholds that a healthy gateway never crosses.
    fn default() -> Self {
        SloSpec {
            enabled: true,
            p99_pkt_ns_max: u64::MAX,
            yield_min_ppm: 0,
            degrade_batches_max: u64::MAX,
            evicted_pressure_max: u64::MAX,
        }
    }
}

impl SloSpec {
    /// The disabled spec: no evaluation at all.
    pub fn off() -> Self {
        SloSpec {
            enabled: false,
            ..SloSpec::default()
        }
    }

    /// The paper-shaped demo objectives used by `figures` and the
    /// tracing bench: generous enough that a healthy full-scale run
    /// stays green, tight enough that injected faults trip them.
    pub fn demo() -> Self {
        SloSpec {
            enabled: true,
            p99_pkt_ns_max: 5_000_000,
            yield_min_ppm: 500_000,
            degrade_batches_max: 64,
            evicted_pressure_max: 100_000,
        }
    }
}

/// The facts one batch presents to the watchdog. Logical fields come
/// straight from counters; `p99_pkt_ns` is `None` whenever wall-clock
/// readings must not influence the alert stream (Deterministic mode).
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchObs {
    /// Batch ordinal on the owning core.
    pub batch: u64,
    /// Logical time of the batch's last packet (alert span stamp).
    pub logical_now: u64,
    /// Conversion yield so far, in parts per million.
    pub yield_ppm: u32,
    /// Whether yield is meaningful yet (enough steady-state output).
    pub yield_valid: bool,
    /// Whether the core is currently on the degradation ladder.
    pub degraded: bool,
    /// Cumulative pressure evictions on this core.
    pub evicted_pressure: u64,
    /// p99 per-packet wall time, when wall-clock checks are armed.
    pub p99_pkt_ns: Option<u64>,
}

/// Edge-triggered per-core watchdog state.
#[derive(Debug, Clone, Default)]
pub struct SloWatchdog {
    spec: SloSpec,
    /// Consecutive batches spent degraded.
    degrade_run: u64,
    /// Conditions currently breached (level state for edge detection).
    level: u32,
    /// Total alert edges emitted.
    alerts: u64,
    /// Batches evaluated.
    evaluated: u64,
    /// Per-condition breach-edge counts, indexed by bit position.
    breach_edges: [u64; 4],
}

impl SloWatchdog {
    /// A watchdog for `spec` (an `enabled: false` spec never fires).
    pub fn new(spec: SloSpec) -> Self {
        SloWatchdog {
            spec,
            ..SloWatchdog::default()
        }
    }

    /// The spec being enforced.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Batches evaluated so far.
    pub fn evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Alert edges emitted so far.
    pub fn alerts(&self) -> u64 {
        self.alerts
    }

    /// Conditions currently in breach.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Per-condition breach-edge counts as
    /// `(p99, yield, degrade, evict)`.
    pub fn breach_edges(&self) -> (u64, u64, u64, u64) {
        (
            self.breach_edges[0],
            self.breach_edges[1],
            self.breach_edges[2],
            self.breach_edges[3],
        )
    }

    /// Evaluates one batch. Returns the mask of conditions that *newly*
    /// entered breach (rising edges) — the caller records one alert
    /// span per nonzero return. Alloc- and panic-free: this runs inside
    /// the batch boundary of the hot loop.
    #[inline]
    pub fn evaluate(&mut self, obs: &BatchObs) -> u32 {
        if !self.spec.enabled {
            return 0;
        }
        self.evaluated += 1;
        if obs.degraded {
            self.degrade_run += 1;
        } else {
            self.degrade_run = 0;
        }
        let mut now = 0u32;
        if let Some(p99) = obs.p99_pkt_ns {
            if p99 > self.spec.p99_pkt_ns_max {
                now |= BREACH_P99;
            }
        }
        if obs.yield_valid && self.spec.yield_min_ppm > 0 && obs.yield_ppm < self.spec.yield_min_ppm
        {
            now |= BREACH_YIELD;
        }
        if self.degrade_run > self.spec.degrade_batches_max {
            now |= BREACH_DEGRADE;
        }
        if obs.evicted_pressure > self.spec.evicted_pressure_max {
            now |= BREACH_EVICT;
        }
        let rising = now & !self.level;
        self.level = now;
        if rising != 0 {
            self.alerts += 1;
            for bit in 0..4u32 {
                if rising & (1 << bit) != 0 {
                    if let Some(c) = self.breach_edges.get_mut(bit as usize) {
                        *c += 1;
                    }
                }
            }
        }
        rising
    }

    /// Folds another core's watchdog tallies into this one (report
    /// side).
    pub fn merge(&mut self, other: &SloWatchdog) {
        self.alerts += other.alerts;
        self.evaluated += other.evaluated;
        self.level |= other.level;
        for (a, b) in self.breach_edges.iter_mut().zip(other.breach_edges.iter()) {
            *a += b;
        }
    }
}

/// A whole-engine SLO verdict (the `/healthz` payload and the metrics
/// `slo` block).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloVerdict {
    /// Whether every checked objective currently holds.
    pub ok: bool,
    /// Mask of objectives in breach.
    pub mask: u32,
    /// Observed p99 per-packet wall time (0 when unavailable).
    pub p99_pkt_ns: u64,
    /// Observed conversion yield.
    pub conversion_yield: f64,
    /// Observed pressure evictions.
    pub evicted_pressure: u64,
}

/// Evaluates a spec against whole-engine aggregates — the snapshot
/// form used by `/healthz` and the metrics exporter. `p99_pkt_ns = 0`
/// skips the latency check (no samples yet).
pub fn evaluate_snapshot(
    spec: &SloSpec,
    p99_pkt_ns: u64,
    conversion_yield: f64,
    evicted_pressure: u64,
) -> SloVerdict {
    let mut mask = 0u32;
    if spec.enabled {
        if p99_pkt_ns > 0 && p99_pkt_ns > spec.p99_pkt_ns_max {
            mask |= BREACH_P99;
        }
        let yield_ppm = (conversion_yield.clamp(0.0, 1.0) * 1_000_000.0) as u32;
        if spec.yield_min_ppm > 0 && yield_ppm < spec.yield_min_ppm {
            mask |= BREACH_YIELD;
        }
        if evicted_pressure > spec.evicted_pressure_max {
            mask |= BREACH_EVICT;
        }
    }
    SloVerdict {
        ok: mask == 0,
        mask,
        p99_pkt_ns,
        conversion_yield,
        evicted_pressure,
    }
}

impl SloVerdict {
    /// Renders the verdict as the `/healthz` JSON body.
    pub fn to_json(&self, indent: &str) -> String {
        let breaches = breach_names(self.mask);
        let list = breaches
            .iter()
            .map(|b| format!("\"{b}\""))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{indent}{{\"ok\": {}, \"breaches\": [{list}], \"p99_pkt_ns\": {}, \
             \"conversion_yield\": {:.6}, \"evicted_pressure\": {}}}",
            self.ok, self.p99_pkt_ns, self.conversion_yield, self.evicted_pressure
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(batch: u64) -> BatchObs {
        BatchObs {
            batch,
            logical_now: batch * 1000,
            yield_ppm: 900_000,
            yield_valid: true,
            degraded: false,
            evicted_pressure: 0,
            p99_pkt_ns: None,
        }
    }

    #[test]
    fn permissive_default_never_fires() {
        let mut w = SloWatchdog::new(SloSpec::default());
        for b in 0..100 {
            let mut o = obs(b);
            o.degraded = b % 2 == 0;
            o.p99_pkt_ns = Some(u64::MAX - 1);
            assert_eq!(w.evaluate(&o), 0);
        }
        assert_eq!(w.alerts(), 0);
        assert_eq!(w.evaluated(), 100);
    }

    #[test]
    fn disabled_spec_is_inert() {
        let mut w = SloWatchdog::new(SloSpec::off());
        let mut o = obs(0);
        o.yield_ppm = 0;
        assert_eq!(w.evaluate(&o), 0);
        assert_eq!(w.evaluated(), 0);
    }

    #[test]
    fn breaches_are_edge_triggered() {
        let spec = SloSpec {
            yield_min_ppm: 500_000,
            ..SloSpec::default()
        };
        let mut w = SloWatchdog::new(spec);
        let mut o = obs(0);
        o.yield_ppm = 100_000;
        assert_eq!(w.evaluate(&o), BREACH_YIELD, "rising edge fires");
        assert_eq!(w.evaluate(&o), 0, "sustained breach stays silent");
        o.yield_ppm = 900_000;
        assert_eq!(w.evaluate(&o), 0, "recovery is silent");
        o.yield_ppm = 100_000;
        assert_eq!(w.evaluate(&o), BREACH_YIELD, "re-entry fires again");
        assert_eq!(w.alerts(), 2);
        assert_eq!(w.breach_edges().1, 2);
    }

    #[test]
    fn degrade_residency_counts_consecutive_batches() {
        let spec = SloSpec {
            degrade_batches_max: 3,
            ..SloSpec::default()
        };
        let mut w = SloWatchdog::new(spec);
        for b in 0..3 {
            let mut o = obs(b);
            o.degraded = true;
            assert_eq!(w.evaluate(&o), 0, "within budget at batch {b}");
        }
        let mut o = obs(3);
        o.degraded = true;
        assert_eq!(w.evaluate(&o), BREACH_DEGRADE);
        // A clean batch resets the run.
        assert_eq!(w.evaluate(&obs(4)), 0);
        assert_eq!(w.level(), 0);
    }

    #[test]
    fn latency_check_only_when_armed() {
        let spec = SloSpec {
            p99_pkt_ns_max: 1000,
            ..SloSpec::default()
        };
        let mut w = SloWatchdog::new(spec);
        let mut o = obs(0);
        o.p99_pkt_ns = None; // Deterministic mode: wall checks unarmed.
        assert_eq!(w.evaluate(&o), 0);
        o.p99_pkt_ns = Some(5000);
        assert_eq!(w.evaluate(&o), BREACH_P99);
    }

    #[test]
    fn snapshot_verdict_and_json() {
        let spec = SloSpec {
            yield_min_ppm: 800_000,
            evicted_pressure_max: 10,
            ..SloSpec::default()
        };
        let v = evaluate_snapshot(&spec, 500, 0.75, 20);
        assert!(!v.ok);
        assert_eq!(v.mask, BREACH_YIELD | BREACH_EVICT);
        let json = v.to_json("");
        assert!(json.contains("\"ok\": false"));
        assert!(json.contains("\"yield\""));
        assert!(json.contains("\"evicted_pressure\""));

        let healthy = evaluate_snapshot(&spec, 500, 0.9, 3);
        assert!(healthy.ok);
        assert!(healthy.to_json("").contains("\"breaches\": []"));
    }

    #[test]
    fn merge_folds_core_tallies() {
        let spec = SloSpec {
            yield_min_ppm: 500_000,
            ..SloSpec::default()
        };
        let mut a = SloWatchdog::new(spec);
        let mut b = SloWatchdog::new(spec);
        let mut bad = obs(0);
        bad.yield_ppm = 0;
        a.evaluate(&bad);
        b.evaluate(&bad);
        a.merge(&b);
        assert_eq!(a.alerts(), 2);
        assert_eq!(a.evaluated(), 2);
        assert_eq!(a.breach_edges().1, 2);
    }
}
