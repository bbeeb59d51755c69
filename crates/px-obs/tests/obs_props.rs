//! Property tests for the observability primitives: histogram merge is
//! commutative and associative (so per-core histograms can be folded in
//! any order without changing the aggregate), quantiles are monotone in
//! `q`, and the recorder's ring preserves recency ordering across
//! arbitrary wrap patterns.

use proptest::prelude::*;
use px_obs::{Histo64, Ring};

fn build(values: &[u64]) -> Histo64 {
    let mut h = Histo64::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// merge(a, b) == merge(b, a), field for field.
    #[test]
    fn merge_is_commutative(
        xs in proptest::collection::vec(any::<u64>(), 0..64),
        ys in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let (a, b) = (build(&xs), build(&ys));
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    /// merge(merge(a, b), c) == merge(a, merge(b, c)).
    #[test]
    fn merge_is_associative(
        xs in proptest::collection::vec(any::<u64>(), 0..48),
        ys in proptest::collection::vec(any::<u64>(), 0..48),
        zs in proptest::collection::vec(any::<u64>(), 0..48),
    ) {
        let (a, b, c) = (build(&xs), build(&ys), build(&zs));
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Merging is the same as recording the concatenation.
    #[test]
    fn merge_equals_concatenated_recording(
        xs in proptest::collection::vec(any::<u64>(), 0..64),
        ys in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let mut merged = build(&xs);
        merged.merge(&build(&ys));
        let mut concat = xs.clone();
        concat.extend_from_slice(&ys);
        prop_assert_eq!(merged, build(&concat));
    }

    /// quantile(q) is monotone non-decreasing in q, bounded by max.
    #[test]
    fn quantiles_are_monotone(
        xs in proptest::collection::vec(any::<u64>(), 1..128),
        // Quantiles in permille (the vendored proptest shim has no f64
        // range strategy).
        qs in proptest::collection::vec(0u64..=1000, 2..16),
    ) {
        let h = build(&xs);
        let mut sorted_q = qs.clone();
        sorted_q.sort_unstable();
        let mut prev = 0u64;
        for &permille in &sorted_q {
            let q = permille as f64 / 1000.0;
            let v = h.quantile(q);
            prop_assert!(v >= prev, "quantile({q}) = {v} < previous {prev}");
            prop_assert!(v <= h.max());
            prev = v;
        }
        // The top quantile is the exact max.
        prop_assert_eq!(h.quantile(1.0), h.max());
    }

    /// The ring's `recent(n)` always returns the true last-n pushes in
    /// push order, regardless of capacity/overflow interplay.
    #[test]
    fn ring_recent_matches_reference(
        cap in 1usize..32,
        ts in proptest::collection::vec(any::<u64>(), 0..96),
        n in 0usize..48,
    ) {
        let mut ring = Ring::<u64>::with_capacity(cap);
        for &t in &ts {
            ring.push(t);
        }
        let got = ring.recent(n);
        let take = n.min(ts.len().min(cap));
        let want: Vec<u64> = ts[ts.len() - take..].to_vec();
        prop_assert_eq!(got, want);
        prop_assert_eq!(ring.written(), ts.len() as u64);
        prop_assert_eq!(ring.len(), ts.len().min(cap));
    }
}
