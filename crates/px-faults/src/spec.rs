//! The fault configuration embedded (by `Copy`) in engine configs.

use crate::rng::splitmix64;

/// Degrade cause codes, shared by the engines' `DegradeEnter` and
/// `Degrade` spans so every consumer (post-mortem timeline, trace
/// export, Prometheus labels) agrees on the encoding.
pub mod cause {
    /// The buffer pool was dry at aggregate/bundle creation.
    pub const POOL: u64 = 1;
    /// The flow table denied the insertion.
    pub const TABLE: u64 = 2;

    /// Human-readable cause name (`"pool"`, `"table"`, `"?"`).
    #[must_use]
    pub fn name(code: u64) -> &'static str {
        match code {
            POOL => "pool",
            TABLE => "table",
            _ => "?",
        }
    }
}

/// A complete fault schedule description: which faults, at what rates,
/// from which seed. `Copy` so it rides inside `EngineConfig` the same
/// way `ObsConfig` does; [`FaultSpec::off`] is the all-zero spec every
/// production path carries (one predicted branch per decision).
///
/// Rates are parts-per-million of packets, drawn from the seed alone
/// (never the wall clock), so a schedule replays bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Master switch. When false every injector call is a predicted
    /// branch and the ingress plan is the identity.
    pub enabled: bool,
    /// Seed for every draw this spec makes (ingress stream and
    /// stateless resource verdicts).
    pub seed: u64,
    /// Ingress: drop the packet.
    pub drop_ppm: u32,
    /// Ingress: emit the packet twice.
    pub dup_ppm: u32,
    /// Ingress: hold the packet past its successor (adjacent swap).
    pub reorder_ppm: u32,
    /// Ingress: XOR one random byte with a nonzero mask.
    pub corrupt_ppm: u32,
    /// Ingress: cut the packet short at a random offset.
    pub truncate_ppm: u32,
    /// Resource: report the buffer pool dry at aggregate creation.
    pub pool_dry_ppm: u32,
    /// Resource: deny the flow-table insertion at aggregate creation.
    pub table_deny_ppm: u32,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::off()
    }
}

impl FaultSpec {
    /// The no-fault spec: everything zero, injection disabled.
    #[must_use]
    pub const fn off() -> Self {
        FaultSpec {
            enabled: false,
            seed: 0,
            drop_ppm: 0,
            dup_ppm: 0,
            reorder_ppm: 0,
            corrupt_ppm: 0,
            truncate_ppm: 0,
            pool_dry_ppm: 0,
            table_deny_ppm: 0,
        }
    }

    /// A seed-derived chaos mix for the matrix: every rate is drawn
    /// from the seed, so seed `s` names one complete fault schedule.
    /// Ingress rates range up to a few percent, resource rates up to
    /// five.
    #[must_use]
    pub fn chaos(seed: u64) -> Self {
        let d = |salt: u64, range: u64| -> u32 {
            (splitmix64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % range) as u32
        };
        FaultSpec {
            enabled: true,
            seed,
            drop_ppm: d(1, 30_000),
            dup_ppm: d(2, 20_000),
            reorder_ppm: d(3, 30_000),
            corrupt_ppm: d(4, 20_000),
            truncate_ppm: d(5, 10_000),
            pool_dry_ppm: d(6, 50_000),
            table_deny_ppm: d(7, 50_000),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_inert_and_default() {
        let s = FaultSpec::off();
        assert!(!s.enabled);
        assert_eq!(s, FaultSpec::default());
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        assert_eq!(FaultSpec::chaos(5), FaultSpec::chaos(5));
        assert_ne!(FaultSpec::chaos(5), FaultSpec::chaos(6));
        assert!(FaultSpec::chaos(5).enabled);
    }

    #[test]
    fn chaos_rates_stay_in_their_bands() {
        for seed in 0..256u64 {
            let s = FaultSpec::chaos(seed);
            assert!(s.drop_ppm < 30_000);
            assert!(s.dup_ppm < 20_000);
            assert!(s.reorder_ppm < 30_000);
            assert!(s.corrupt_ppm < 20_000);
            assert!(s.truncate_ppm < 10_000);
            assert!(s.pool_dry_ppm < 50_000);
            assert!(s.table_deny_ppm < 50_000);
        }
    }
}
