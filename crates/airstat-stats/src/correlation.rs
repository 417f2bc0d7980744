//! Correlation measures for paired observations.
//!
//! Section 5.1 of the paper makes a negative claim: the number of nearby
//! access points does **not** predict channel utilization (Figures 7 and 8),
//! so channel planning should use direct utilization measurements. Our
//! reproduction quantifies that with Pearson's r and Spearman's rank
//! correlation over the same scatter data.

/// Pearson product-moment correlation coefficient.
///
/// Returns `None` when fewer than 2 pairs remain after NaN filtering or when
/// either variable has zero variance.
pub fn pearson(pairs: &[(f64, f64)]) -> Option<f64> {
    let clean: Vec<(f64, f64)> = pairs
        .iter()
        .copied()
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    let n = clean.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mean_x = clean.iter().map(|p| p.0).sum::<f64>() / nf;
    let mean_y = clean.iter().map(|p| p.1).sum::<f64>() / nf;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (x, y) in clean {
        let dx = x - mean_x;
        let dy = y - mean_y;
        cov += dx * dy;
        var_x += dx * dx;
        var_y += dy * dy;
    }
    if var_x == 0.0 || var_y == 0.0 {
        return None;
    }
    Some(cov / (var_x.sqrt() * var_y.sqrt()))
}

/// Spearman rank correlation coefficient.
///
/// Robust to monotone-but-nonlinear relationships; ties receive average
/// ranks (the standard "fractional ranking" treatment).
pub fn spearman(pairs: &[(f64, f64)]) -> Option<f64> {
    let clean: Vec<(f64, f64)> = pairs
        .iter()
        .copied()
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    if clean.len() < 2 {
        return None;
    }
    let xs: Vec<f64> = clean.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = clean.iter().map(|p| p.1).collect();
    let rx = fractional_ranks(&xs);
    let ry = fractional_ranks(&ys);
    let ranked: Vec<(f64, f64)> = rx.into_iter().zip(ry).collect();
    pearson(&ranked)
}

/// Assigns fractional (average-of-ties) ranks, 1-based.
///
/// Sorts plain integers: each value's [`order_key`] above its index.
/// Equal values (−0.0 and +0.0 included) have equal keys, so each tie
/// group is one run of keys.
fn fractional_ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<u128> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| u128::from(order_key(v)) << 64 | i as u128)
        .collect();
    order.sort_unstable();
    let key = |packed: u128| (packed >> 64) as u64;
    let mut ranks = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && key(order[j + 1]) == key(order[i]) {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &packed in &order[i..=j] {
            ranks[packed as u64 as usize] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// A non-NaN `v`'s bits, remapped so that unsigned order is `v`'s order:
/// negatives flip every bit, the rest set the sign bit. −0.0 is folded
/// into +0.0 first, since the two compare equal.
fn order_key(v: f64) -> u64 {
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fnv1a;

    #[test]
    fn pearson_perfect_positive() {
        let pairs: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 * i as f64 + 1.0)).collect();
        assert!((pearson(&pairs).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_negative() {
        let pairs: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, -3.0 * i as f64)).collect();
        assert!((pearson(&pairs).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_independent_near_zero() {
        // Deterministic "independent" pattern: x cycles, y cycles offset.
        let pairs: Vec<(f64, f64)> = (0..1000)
            .map(|i| (((i * 7) % 13) as f64, ((i * 11) % 17) as f64))
            .collect();
        let r = pearson(&pairs).unwrap();
        assert!(r.abs() < 0.1, "r = {r}");
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[]), None);
        assert_eq!(pearson(&[(1.0, 2.0)]), None);
        assert_eq!(pearson(&[(1.0, 2.0), (1.0, 3.0)]), None); // zero x variance
        assert_eq!(pearson(&[(f64::NAN, 2.0), (1.0, 3.0)]), None);
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        let pairs: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, (i as f64).exp())).collect();
        assert!((spearman(&pairs).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let pairs = [(1.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 3.0)];
        let rho = spearman(&pairs).unwrap();
        assert!(rho > 0.5 && rho <= 1.0, "rho = {rho}");
    }

    #[test]
    fn ranks_average_ties() {
        let r = fractional_ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    /// A vector with ties, mixed −0.0/+0.0 and magnitudes from 1e-300 to
    /// 1e300, then 500 small integers (many ties) drawn from an LCG, with
    /// every zero's sign drawn too.
    fn tied_values() -> Vec<f64> {
        let mut v = vec![
            0.0, -0.0, 3.5, -1.0, 0.0, 3.5, -0.0, 1e300, -1e-300, 2.0, -1e300, 1e-300,
        ];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..500 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let x = ((state >> 33) % 23) as f64 - 11.0;
            v.push(if x == 0.0 && state >> 63 == 1 {
                -0.0
            } else {
                x
            });
        }
        v
    }

    #[test]
    fn ranks_and_rho_are_pinned_bit_for_bit() {
        // −0.0 and +0.0 are one tie group, and every tie group takes its
        // average rank; a faster sort has to keep both, to the bit.
        let r = fractional_ranks(&[0.0, -0.0, 3.5, -1.0, 0.0, 3.5, -0.0, 1e300, -1e-300, 2.0]);
        assert_eq!(r, [4.5, 4.5, 8.5, 1.0, 4.5, 8.5, 4.5, 10.0, 2.0, 7.0]);
        let xs = tied_values();
        let bits: Vec<u8> = fractional_ranks(&xs)
            .iter()
            .flat_map(|r| r.to_bits().to_le_bytes())
            .collect();
        let ys: Vec<f64> = xs.iter().rev().map(|x| (x * 0.37).floor()).collect();
        let pairs: Vec<(f64, f64)> = xs.iter().copied().zip(ys).collect();
        let rho = spearman(&pairs).unwrap();
        assert_eq!(
            (fnv1a(&bits), rho.to_bits()),
            (0x5d55_f004_6570_eac0, 0xbf73_4a7a_0426_2931),
            "{:#x} {:#x}",
            fnv1a(&bits),
            rho.to_bits()
        );
    }

    #[test]
    fn ranks_match_the_indirect_partial_cmp_sort() {
        // The rank pass before integer keys, as the oracle, over vectors
        // of every length to 200 with heavy ties, mixed zeros and wide
        // magnitudes.
        fn oracle(values: &[f64]) -> Vec<f64> {
            let mut order: Vec<usize> = (0..values.len()).collect();
            order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).unwrap());
            let mut ranks = vec![0.0; values.len()];
            let mut i = 0;
            while i < order.len() {
                let mut j = i;
                while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
                    j += 1;
                }
                for &idx in &order[i..=j] {
                    ranks[idx] = (i + j) as f64 / 2.0 + 1.0;
                }
                i = j + 1;
            }
            ranks
        }
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        for n in 0..200 {
            let values: Vec<f64> = (0..n)
                .map(|_| match next() % 5 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => (next() % 7) as f64 - 3.0,
                    3 => {
                        f64::from_bits(next() << 11 >> 2) * if next() % 2 == 0 { 1.0 } else { -1.0 }
                    }
                    _ => (next() % 1000) as f64 / 7.0,
                })
                .collect();
            let got: Vec<u64> = fractional_ranks(&values)
                .iter()
                .map(|r| r.to_bits())
                .collect();
            let want: Vec<u64> = oracle(&values).iter().map(|r| r.to_bits()).collect();
            assert_eq!(got, want, "{values:?}");
        }
    }
}
