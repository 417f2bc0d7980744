//! Random-variate samplers used by the fleet and traffic models.
//!
//! Real-world wireless measurements are dominated by heavy-tailed
//! distributions: per-client usage spans six orders of magnitude (a phone
//! checking mail vs. a Dropcam uploading 2.8 GB/week), AP neighbour counts
//! range from zero to "skyscraper in Manhattan decoding beacons from miles
//! away" (paper §6.1), and shadowing in indoor propagation is classically
//! log-normal. This module implements the samplers the rest of AirStat
//! needs, on top of any [`rand::Rng`], with no external distribution crate.
//!
//! All samplers are plain structs with a `sample(&self, rng)` method so they
//! can be stored inside model configuration and reused.

use rand::Rng;

/// Standard normal variate via the Marsaglia polar method.
///
/// Rejection-free alternatives exist but polar is simple, branch-light and
/// more than fast enough for simulation workloads.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let (u, s) = polar_pair(rng);
    polar_finish(u, s)
}

/// The RNG half of [`standard_normal`]: draws `(u, v)` pairs until one
/// lands inside the unit disk and returns its `u` and `s = u² + v²`, so
/// `0 < s < 1` and `u² ≤ s`.
#[inline]
fn polar_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    loop {
        let u = signed_unit(rng.gen::<u64>());
        let v = signed_unit(rng.gen::<u64>());
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return (u, s);
        }
    }
}

/// `gen::<f64>() * 2.0 - 1.0` for the draw `x`, bit for bit, in `[−1, 1)`.
/// `gen::<f64>()` is `(x >> 11) · 2⁻⁵³`; doubling it and subtracting 1 is
/// `((x >> 11) − 2⁵²) · 2⁻⁵²`, and every step of that is exact: the
/// centred integer has at most 53 bits, and the scale is a power of two.
/// Centring as a signed integer spares the `u64 → f64` conversion, which
/// takes several instructions where `i64 → f64` takes one.
#[inline]
fn signed_unit(x: u64) -> f64 {
    ((x >> 11) as i64 - (1 << 52)) as f64 * (1.0 / (1u64 << 52) as f64)
}

/// Fills `u` and `s` with the next `u.len()` accepted polar pairs, drawing
/// `rng` exactly as that many calls of [`standard_normal`] would, so
/// `polar_finish(u[i], s[i])` is call `i`'s variate. Each pair has
/// `0 < s < 1` and `u² ≤ s`, so a caller that only needs to know whether
/// `|z|` can reach some bound can stop at `s`:
/// `|polar_finish(u, s)| ≤ sqrt(−2 ln s)`.
///
/// Draws in rounds of as many pairs as variates are still missing and
/// keeps the accepted ones without a branch; a round never overdraws,
/// since each missing variate needs at least one more pair, and never
/// writes past the end, since the slot it writes trails the pairs drawn.
/// One pair in five is rejected at random, so a loop that exits on
/// acceptance mispredicts about that often.
///
/// # Panics
/// Panics if `u` and `s` differ in length.
pub fn polar_pairs<R: Rng + ?Sized>(rng: &mut R, u: &mut [f64], s: &mut [f64]) {
    assert_eq!(u.len(), s.len(), "one `s` per `u`");
    let n = u.len();
    let mut kept = 0;
    while kept < n {
        for _ in 0..n - kept {
            let a = signed_unit(rng.gen::<u64>());
            let b = signed_unit(rng.gen::<u64>());
            let t = a * a + b * b;
            u[kept] = a;
            s[kept] = t;
            kept += usize::from((t > 0.0) & (t < 1.0));
        }
    }
}

/// The arithmetic half of [`standard_normal`]: the variate of an accepted
/// polar pair.
#[inline]
pub fn polar_finish(u: f64, s: f64) -> f64 {
    u * (-2.0 * s.ln() / s).sqrt()
}

/// Normal distribution `N(mean, std_dev^2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Mean of the distribution.
    pub mean: f64,
    /// Standard deviation; must be non-negative.
    pub std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    /// Panics if `std_dev` is negative or not finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "std_dev must be >= 0"
        );
        Normal { mean, std_dev }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }
}

/// Log-normal distribution: `exp(N(mu, sigma^2))`.
///
/// `mu`/`sigma` are the parameters of the underlying normal (natural log
/// scale). Use [`LogNormal::from_median_p90`] to parameterize from
/// human-readable quantiles instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of the underlying normal (log scale).
    pub mu: f64,
    /// Standard deviation of the underlying normal (log scale).
    pub sigma: f64,
}

/// z-score of the 90th percentile of the standard normal.
const Z90: f64 = 1.281_551_565_544_8;

impl LogNormal {
    /// Creates a log-normal with the given log-scale parameters.
    ///
    /// # Panics
    /// Panics if `sigma` is negative or not finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be >= 0");
        LogNormal { mu, sigma }
    }

    /// Parameterizes from the distribution's median and 90th percentile.
    ///
    /// This is how AirStat's model configs are written: "median client uses
    /// 30 MB/week, the p90 client uses 600 MB" maps directly onto the paper's
    /// published per-client numbers.
    ///
    /// # Panics
    /// Panics unless `0 < median <= p90`.
    pub fn from_median_p90(median: f64, p90: f64) -> Self {
        assert!(median > 0.0 && p90 >= median, "need 0 < median <= p90");
        let mu = median.ln();
        let sigma = (p90.ln() - mu) / Z90;
        LogNormal::new(mu, sigma)
    }

    /// Draws one sample (always strictly positive).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// Exponential distribution with the given rate `lambda`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Rate parameter; mean is `1 / lambda`.
    pub lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution.
    ///
    /// # Panics
    /// Panics unless `lambda > 0`.
    pub(crate) fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda.is_finite(), "lambda must be > 0");
        Exponential { lambda }
    }

    /// Creates an exponential distribution with the given mean.
    pub fn with_mean(mean: f64) -> Self {
        Exponential::new(1.0 / mean)
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // gen::<f64>() is in [0, 1); flip to (0, 1] to avoid ln(0).
        -(1.0 - rng.gen::<f64>()).ln() / self.lambda
    }
}

/// Pareto (power-law) distribution with scale `x_min` and shape `alpha`.
///
/// Used for flow sizes and the extreme tail of per-client usage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    /// Minimum value (scale).
    pub x_min: f64,
    /// Tail index (shape); smaller means heavier tail.
    pub alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    /// Panics unless `x_min > 0` and `alpha > 0`.
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(x_min > 0.0, "x_min must be > 0");
        assert!(alpha > 0.0, "alpha must be > 0");
        Pareto { x_min, alpha }
    }

    /// Draws one sample (always `>= x_min`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u = 1.0 - rng.gen::<f64>(); // (0, 1]
        self.x_min / u.powf(1.0 / self.alpha)
    }
}

/// Weighted discrete choice over arbitrary weights.
///
/// Backbone of categorical sampling: industry verticals, OS mix, channel
/// selection. Weights need not be normalized.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
}

impl WeightedIndex {
    /// Creates a weighted choice from an iterator of non-negative weights.
    ///
    /// # Panics
    /// Panics if there are no weights, any weight is negative/non-finite, or
    /// all weights are zero.
    pub fn new<I: IntoIterator<Item = f64>>(weights: I) -> Self {
        let mut cumulative = Vec::new();
        let mut total = 0.0;
        for w in weights {
            assert!(w.is_finite() && w >= 0.0, "weights must be finite and >= 0");
            total += w;
            cumulative.push(total);
        }
        assert!(!cumulative.is_empty(), "need at least one weight");
        assert!(total > 0.0, "weights must not all be zero");
        for c in &mut cumulative {
            *c /= total;
        }
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        WeightedIndex { cumulative }
    }

    /// Draws a category index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u = rng.gen::<f64>();
        match self.cumulative.binary_search_by(|c| {
            c.partial_cmp(&u)
                .expect("invariant: cumulative weights are finite by construction")
        }) {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedTree;

    fn rng() -> rand::rngs::SmallRng {
        SeedTree::new(0xD15F).child("dist-tests").rng()
    }

    #[test]
    fn polar_pairs_draw_as_standard_normal_does() {
        // Batches of every size to 300, in sequence on one stream: each
        // pair finishes to the bits `standard_normal` returns on a twin
        // stream, and the two streams stay in step.
        let (mut batched, mut single) = (rng(), rng());
        for n in 0..300 {
            let (mut us, mut ss) = (vec![9.0; n], vec![9.0; n]);
            polar_pairs(&mut batched, &mut us, &mut ss);
            for (&u, &s) in us.iter().zip(&ss) {
                assert!(s > 0.0 && s < 1.0 && u * u <= s);
                let z = standard_normal(&mut single);
                assert_eq!(polar_finish(u, s).to_bits(), z.to_bits());
            }
            assert_eq!(batched.gen::<u64>(), single.gen::<u64>());
        }
    }

    /// An RNG whose every draw is `.0`: hands `gen::<f64>()` a chosen `u64`.
    struct Draw(u64);

    impl rand::RngCore for Draw {
        fn next_u32(&mut self) -> u32 {
            (self.0 >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    fn signed_unit_matches_gen(x: u64) {
        let want = Draw(x).gen::<f64>() * 2.0 - 1.0;
        assert_eq!(signed_unit(x).to_bits(), want.to_bits(), "{x:#x}");
    }

    #[test]
    fn signed_unit_matches_gen_at_its_edges() {
        // `x >> 11` at 0 (−1), 2⁵² (+0.0, not −0.0) and 2⁵³ − 1 (the last
        // value below 1), with every low bit both ways.
        for top in [0u64, 1 << 52, (1 << 53) - 1] {
            for low in [0, 0x7ff] {
                signed_unit_matches_gen(top << 11 | low);
            }
        }
        assert_eq!(signed_unit(0), -1.0);
        assert_eq!(signed_unit(1 << 63).to_bits(), 0.0f64.to_bits());
        assert_eq!(signed_unit(u64::MAX), 1.0 - f64::EPSILON);
    }

    proptest::proptest! {
        #[test]
        fn signed_unit_matches_gen_for_any_draw(x in proptest::prelude::any::<u64>()) {
            signed_unit_matches_gen(x);
        }
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(3.0, 2.0);
        let mut r = rng();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_median_p90_roundtrip() {
        let d = LogNormal::from_median_p90(30.0, 600.0);
        assert!((d.mu.exp() - 30.0).abs() < 1e-9);
        let mut r = rng();
        let n = 200_000;
        let mut samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = samples[n / 2];
        let p90 = samples[n * 9 / 10];
        assert!((med / 30.0 - 1.0).abs() < 0.05, "median {med}");
        assert!((p90 / 600.0 - 1.0).abs() < 0.08, "p90 {p90}");
    }

    #[test]
    fn lognormal_positive() {
        let d = LogNormal::new(0.0, 3.0);
        let mut r = rng();
        assert!((0..10_000).all(|_| d.sample(&mut r) > 0.0));
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::with_mean(15.0);
        let mut r = rng();
        let n = 100_000;
        let mean = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 15.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn pareto_min_respected() {
        let d = Pareto::new(2.5, 1.2);
        let mut r = rng();
        assert!((0..50_000).all(|_| d.sample(&mut r) >= 2.5));
    }

    #[test]
    fn pareto_tail_heavier_with_smaller_alpha() {
        let mut r = rng();
        let heavy = Pareto::new(1.0, 0.8);
        let light = Pareto::new(1.0, 3.0);
        let n = 100_000;
        let max_heavy = (0..n).map(|_| heavy.sample(&mut r)).fold(0.0, f64::max);
        let max_light = (0..n).map(|_| light.sample(&mut r)).fold(0.0, f64::max);
        assert!(max_heavy > max_light * 10.0);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let w = WeightedIndex::new([1.0, 0.0, 3.0]);
        let mut counts = [0usize; 3];
        let mut r = rng();
        for _ in 0..100_000 {
            counts[w.sample(&mut r)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight category must never be drawn");
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.15, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "weights must not all be zero")]
    fn weighted_index_rejects_all_zero() {
        let _ = WeightedIndex::new([0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "x_min must be > 0")]
    fn pareto_rejects_bad_scale() {
        let _ = Pareto::new(0.0, 1.0);
    }
}
