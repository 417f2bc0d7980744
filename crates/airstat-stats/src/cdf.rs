//! Empirical cumulative distribution functions.
//!
//! Most of the paper's figures are CDFs (link delivery, channel utilization,
//! RSSI, decodable fraction, day/night comparisons). [`Ecdf`] stores the
//! sorted sample and answers exact quantile and `P(X <= x)` queries, plus a
//! fixed-resolution rendering used by the report printers and benches.

/// An exact empirical CDF over a finite sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples. NaNs are dropped.
    ///
    /// The sample is sorted as a stable `partial_cmp` sort would sort it:
    /// −0.0 and +0.0 compare equal there, so they stay in input order.
    /// `total_cmp` puts every −0.0 first, so when both occur the zero run
    /// is rewritten with the input's signs.
    pub fn new<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| !x.is_nan()).collect();
        let neg_zero = (-0.0f64).to_bits();
        let zero_signs: Vec<bool> = if sorted.iter().any(|x| x.to_bits() == neg_zero) {
            sorted
                .iter()
                .filter(|&&x| x == 0.0)
                .map(|x| x.is_sign_negative())
                .collect()
        } else {
            Vec::new()
        };
        sorted.sort_unstable_by(f64::total_cmp);
        if !zero_signs.is_empty() {
            let start = sorted.partition_point(|&x| x < 0.0);
            for (x, negative) in sorted[start..].iter_mut().zip(zero_signs) {
                *x = if negative { -0.0 } else { 0.0 };
            }
        }
        Ecdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point gives the count of elements <= x.
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Exact quantile (nearest-rank with interpolation).
    ///
    /// Returns `None` when empty or `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let n = self.sorted.len();
        if n == 1 {
            return Some(self.sorted[0]);
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac)
    }

    /// Median, if non-empty.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Fraction of samples exactly equal to `x` (within `eps`).
    ///
    /// Used for "over half of 5 GHz links deliver *all* broadcasts": the mass
    /// at delivery ratio 1.0 is a headline number in the paper.
    pub fn mass_at(&self, x: f64, eps: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let lo = self.sorted.partition_point(|&v| v < x - eps);
        let hi = self.sorted.partition_point(|&v| v <= x + eps);
        (hi - lo) as f64 / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_basics() {
        let e = Ecdf::new([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.fraction_at_or_below(0.0), 0.0);
        assert_eq!(e.fraction_at_or_below(2.0), 0.5);
        assert_eq!(e.fraction_at_or_below(4.0), 1.0);
        assert_eq!(e.fraction_at_or_below(100.0), 1.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let e = Ecdf::new([0.0, 10.0]);
        assert_eq!(e.quantile(0.0), Some(0.0));
        assert_eq!(e.quantile(1.0), Some(10.0));
        assert_eq!(e.quantile(0.5), Some(5.0));
    }

    #[test]
    fn median_odd_sample() {
        let e = Ecdf::new([5.0, 1.0, 9.0]);
        assert_eq!(e.median(), Some(5.0));
    }

    #[test]
    fn nan_dropped() {
        let e = Ecdf::new([1.0, f64::NAN, 3.0]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn empty_is_safe() {
        let e = Ecdf::new(std::iter::empty());
        assert!(e.is_empty());
        assert_eq!(e.quantile(0.5), None);
        assert_eq!(e.median(), None);
        assert_eq!(e.mean(), None);
        assert_eq!(e.fraction_at_or_below(1.0), 0.0);
    }

    #[test]
    fn mass_at_counts_ties() {
        let e = Ecdf::new([1.0, 1.0, 1.0, 0.5]);
        assert!((e.mass_at(1.0, 1e-9) - 0.75).abs() < 1e-12);
        assert!((e.mass_at(0.5, 1e-9) - 0.25).abs() < 1e-12);
        assert_eq!(e.mass_at(0.7, 1e-9), 0.0);
    }

    #[test]
    fn mixed_zeros_keep_their_input_order() {
        // −0.0 and +0.0 compare equal, so a stable sort leaves them in
        // input order; the sorted bits are pinned.
        let e = Ecdf::new([0.0, -0.0, 1.0, -0.0, 0.0, f64::NAN, 0.0, -2.0, -0.0]);
        let bits: Vec<u64> = e.sorted.iter().map(|x| x.to_bits()).collect();
        let want: Vec<u64> = [-2.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 1.0]
            .iter()
            .map(|x: &f64| x.to_bits())
            .collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn sorted_bits_match_a_stable_partial_cmp_sort() {
        // The sort before `total_cmp`, as the oracle, over inputs of every
        // length to 300 drawn from zeros of both signs, small integers and
        // NaNs.
        let mut state = 11u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for n in 0..300 {
            let input: Vec<f64> = (0..n)
                .map(|_| match next() % 6 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::NAN,
                    _ => (next() % 9) as f64 - 4.0,
                })
                .collect();
            let mut want: Vec<f64> = input.iter().copied().filter(|x| !x.is_nan()).collect();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let got: Vec<u64> = Ecdf::new(input)
                .sorted
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let want: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want);
        }
    }
}
