//! Resource-fault injection: pool exhaustion and flow-table pressure.
//!
//! Verdicts are **stateless**: a packet's fate is
//! `splitmix64(seed ⊕ salt ⊕ key)` where `key` hashes the packet
//! bytes. No draw-stream state means the same packet gets the same
//! verdict whatever core, batch, or interleaving it arrives through —
//! the property the chaos matrix's cross-core digest identity depends
//! on.

use crate::rng::splitmix64;
use crate::spec::FaultSpec;

/// Domain-separation salts for the stateless verdicts.
const SALT_POOL_DRY: u64 = 0x504f_4f4c_0000_0001;
const SALT_TABLE_DENY: u64 = 0x5441_424c_0000_0002;

/// FNV-1a over a byte slice — the per-packet key for stateless
/// verdicts. Alloc-free.
#[inline]
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One stateless Bernoulli verdict at `ppm` parts-per-million.
#[inline]
#[must_use]
pub fn decide_ppm(seed: u64, salt: u64, key: u64, ppm: u32) -> bool {
    if ppm == 0 {
        return false;
    }
    splitmix64(seed ^ salt ^ key) % 1_000_000 < u64::from(ppm)
}

/// A [`FaultSpec`]-driven injector. `Copy` and stateless, so engines
/// embed it by value; with `spec.enabled == false` every verdict is
/// "no fault" for the cost of one predicted branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannedFaults {
    /// The spec verdicts are drawn from.
    pub spec: FaultSpec,
}

impl PlannedFaults {
    /// Injector for `spec`.
    #[must_use]
    pub const fn new(spec: FaultSpec) -> Self {
        PlannedFaults { spec }
    }

    /// The inert injector: every verdict is "no fault".
    #[must_use]
    pub const fn off() -> Self {
        PlannedFaults {
            spec: FaultSpec::off(),
        }
    }

    /// Should the buffer pool pretend to be dry for this acquisition?
    /// `key` hashes the packet triggering it.
    #[inline]
    #[must_use]
    pub fn pool_dry(&self, key: u64) -> bool {
        self.spec.enabled && decide_ppm(self.spec.seed, SALT_POOL_DRY, key, self.spec.pool_dry_ppm)
    }

    /// Should the flow table deny this insertion?
    #[inline]
    #[must_use]
    pub fn table_deny(&self, key: u64) -> bool {
        self.spec.enabled
            && decide_ppm(
                self.spec.seed,
                SALT_TABLE_DENY,
                key,
                self.spec.table_deny_ppm,
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_planned_faults_are_inert() {
        let p = PlannedFaults::new(FaultSpec {
            enabled: false,
            pool_dry_ppm: 1_000_000,
            table_deny_ppm: 1_000_000,
            ..FaultSpec::off()
        });
        assert!(!p.pool_dry(1));
        assert!(!p.table_deny(1));
    }

    #[test]
    fn verdicts_are_stateless_and_keyed() {
        let spec = FaultSpec {
            enabled: true,
            seed: 0xABCD,
            pool_dry_ppm: 500_000,
            ..FaultSpec::off()
        };
        let p = PlannedFaults::new(spec);
        let q = PlannedFaults::new(spec);
        let mut fired = 0;
        for key in 0..1000u64 {
            let v = p.pool_dry(key);
            // Same key, same verdict — from a second injector instance
            // too (no hidden stream state).
            assert_eq!(v, p.pool_dry(key));
            assert_eq!(v, q.pool_dry(key));
            fired += usize::from(v);
        }
        assert!((350..650).contains(&fired), "{fired}");
    }

    #[test]
    fn pool_and_table_salts_are_independent() {
        let spec = FaultSpec {
            enabled: true,
            seed: 3,
            pool_dry_ppm: 500_000,
            table_deny_ppm: 500_000,
            ..FaultSpec::off()
        };
        let p = PlannedFaults::new(spec);
        let agree = (0..1000u64)
            .filter(|&k| p.pool_dry(k) == p.table_deny(k))
            .count();
        // Independent verdicts agree about half the time, not always.
        assert!((350..650).contains(&agree), "{agree}");
    }

    #[test]
    fn hash_bytes_separates_contents() {
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abd"));
        assert_eq!(hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
    }
}
