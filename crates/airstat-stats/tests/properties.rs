//! Property-based tests for the statistics substrate.
//!
//! These encode the invariants the rest of AirStat relies on: ECDFs are
//! monotone, sliding windows never report ratios outside [0, 1], and
//! samplers respect their supports.

use airstat_stats::correlation::{pearson, spearman};
use airstat_stats::dist::{Exponential, LogNormal, Normal, Pareto, WeightedIndex};
use airstat_stats::rng::SeedTree;
use airstat_stats::{Ecdf, Reservoir, SlidingRatio};
use proptest::prelude::*;

fn finite_f64() -> impl Strategy<Value = f64> {
    (-1e6f64..1e6f64).prop_filter("finite", |x| x.is_finite())
}

proptest! {
    #[test]
    fn ecdf_monotone(xs in prop::collection::vec(finite_f64(), 1..300),
                     a in finite_f64(), b in finite_f64()) {
        let e = Ecdf::new(xs);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(e.fraction_at_or_below(lo) <= e.fraction_at_or_below(hi));
    }

    #[test]
    fn ecdf_quantile_brackets_sample(xs in prop::collection::vec(finite_f64(), 1..300),
                                     q in 0.0f64..=1.0) {
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let v = Ecdf::new(xs).quantile(q).unwrap();
        prop_assert!(v >= lo && v <= hi);
    }

    #[test]
    fn sliding_ratio_in_unit_interval(events in prop::collection::vec((0u64..10_000, any::<bool>()), 1..300),
                                      window in 1u64..500) {
        let mut sorted = events.clone();
        sorted.sort_by_key(|e| e.0);
        let mut w = SlidingRatio::new(window);
        for (t, ok) in sorted {
            w.record(t, ok);
            if let Some(r) = w.ratio() {
                prop_assert!((0.0..=1.0).contains(&r));
            }
            prop_assert_eq!(w.successes() <= w.in_window(), true);
        }
    }

    #[test]
    fn reservoir_bounded(n in 1usize..2000, cap in 1usize..64, seed in any::<u64>()) {
        let mut rng = SeedTree::new(seed).rng();
        let mut r = Reservoir::new(cap);
        for i in 0..n { r.offer(i, &mut rng); }
        prop_assert_eq!(r.items().len(), cap.min(n));
        // Every retained item was actually offered.
        prop_assert!(r.items().iter().all(|&i| i < n));
    }

    #[test]
    fn pearson_bounded(pairs in prop::collection::vec((finite_f64(), finite_f64()), 0..200)) {
        if let Some(r) = pearson(&pairs) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
    }

    #[test]
    fn spearman_bounded(pairs in prop::collection::vec((finite_f64(), finite_f64()), 0..200)) {
        if let Some(r) = spearman(&pairs) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
    }

    #[test]
    fn pearson_invariant_under_affine_transform(
        pairs in prop::collection::vec((finite_f64(), finite_f64()), 3..100),
        scale in 0.1f64..10.0, shift in finite_f64()) {
        let transformed: Vec<(f64, f64)> =
            pairs.iter().map(|&(x, y)| (x * scale + shift, y)).collect();
        match (pearson(&pairs), pearson(&transformed)) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-6),
            (None, None) => {}
            // Scaling can push a degenerate case either way only via
            // rounding; treat disagreement as failure.
            _ => prop_assert!(false, "degeneracy changed under affine transform"),
        }
    }

    #[test]
    fn lognormal_support_positive(mu in -5.0f64..5.0, sigma in 0.0f64..3.0, seed in any::<u64>()) {
        let d = LogNormal::new(mu, sigma);
        let mut rng = SeedTree::new(seed).rng();
        for _ in 0..100 {
            prop_assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn pareto_support(xmin in 0.01f64..100.0, alpha in 0.1f64..5.0, seed in any::<u64>()) {
        let d = Pareto::new(xmin, alpha);
        let mut rng = SeedTree::new(seed).rng();
        for _ in 0..100 {
            prop_assert!(d.sample(&mut rng) >= xmin);
        }
    }

    #[test]
    fn exponential_support(mean in 0.01f64..1e4, seed in any::<u64>()) {
        let d = Exponential::with_mean(mean);
        let mut rng = SeedTree::new(seed).rng();
        for _ in 0..100 {
            prop_assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn normal_is_finite(mean in finite_f64(), sd in 0.0f64..100.0, seed in any::<u64>()) {
        let d = Normal::new(mean, sd);
        let mut rng = SeedTree::new(seed).rng();
        for _ in 0..100 {
            prop_assert!(d.sample(&mut rng).is_finite());
        }
    }

    #[test]
    fn weighted_index_never_picks_zero_weight(seed in any::<u64>(),
        weights in prop::collection::vec(0.0f64..10.0, 1..32)) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let wi = WeightedIndex::new(weights.clone());
        let mut rng = SeedTree::new(seed).rng();
        for _ in 0..200 {
            let k = wi.sample(&mut rng);
            prop_assert!(weights[k] > 0.0, "picked zero-weight index {}", k);
        }
    }

    #[test]
    fn seed_tree_is_pure(seed in any::<u64>(), label in "[a-z]{1,12}", idx in any::<u64>()) {
        let a = SeedTree::new(seed).child(&label).indexed(idx);
        let b = SeedTree::new(seed).child(&label).indexed(idx);
        prop_assert_eq!(a, b);
    }
}
