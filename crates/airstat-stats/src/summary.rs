//! Table-oriented summary helpers.
//!
//! The paper's tables report values like `"589 (30%/83%)"` and `"% increase
//! 43%"`. This module provides the shared arithmetic and formatting so every
//! table renderer in `airstat-core` produces identical conventions:
//! year-over-year percent changes, percent-of-total shares, and humane byte
//! formatting (TB with two significant digits, MB per client, etc.).

/// Year-over-year percent increase, e.g. `increase(4.07, 5.58) ≈ 37.1`.
///
/// Returns `None` when the base is zero or not finite (a brand-new category
/// has no meaningful growth number; the paper leaves such cells blank).
pub fn percent_increase(old: f64, new: f64) -> Option<f64> {
    if !(old.is_finite() && new.is_finite()) || old == 0.0 {
        return None;
    }
    Some((new - old) / old * 100.0)
}

/// Share of `part` in `whole` as a percentage; `None` when `whole == 0`.
pub fn percent_of(part: f64, whole: f64) -> Option<f64> {
    if !(part.is_finite() && whole.is_finite()) || whole == 0.0 {
        return None;
    }
    Some(part / whole * 100.0)
}

/// Formats a percentage the way the paper does: two significant figures,
/// so `30.4 → "30%"`, `4.04 → "4.0%"`, `0.3 → "0.30%"`, `-9.2 → "-9.2%"`.
pub(crate) fn fmt_percent(p: f64) -> String {
    let a = p.abs();
    if a >= 10.0 {
        format!("{:.0}%", p)
    } else if a >= 1.0 {
        format!("{:.1}%", p)
    } else {
        format!("{:.2}%", p)
    }
}

/// Formats an optional percentage, rendering `None` as `"-"`.
pub fn fmt_percent_opt(p: Option<f64>) -> String {
    p.map_or_else(|| "-".to_string(), fmt_percent)
}

/// Byte-count unit prefixes used in table rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteUnit {
    /// Megabytes (10^6 bytes), the paper's per-client unit.
    Mb,
    /// Gigabytes (10^9 bytes).
    Gb,
    /// Terabytes (10^12 bytes), the paper's per-OS / per-app unit.
    Tb,
}

impl ByteUnit {
    /// The divisor for this unit.
    pub(crate) fn divisor(self) -> f64 {
        match self {
            ByteUnit::Mb => 1e6,
            ByteUnit::Gb => 1e9,
            ByteUnit::Tb => 1e12,
        }
    }
}

/// Converts bytes to the given unit.
pub fn bytes_in(bytes: u64, unit: ByteUnit) -> f64 {
    bytes as f64 / unit.divisor()
}

/// Formats a value in a unit with paper-style significant figures:
/// `589.4 → "589"`, `62.3 → "62"`, `5.83 → "5.8"`, `0.142 → "0.14"`.
pub fn fmt_quantity(v: f64) -> String {
    let a = v.abs();
    if a >= 10.0 {
        format!("{:.0}", v)
    } else if a >= 1.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.2}", v)
    }
}

/// Formats a byte count at its natural scale (`1.5 GB`, `367 MB`, `2.0 TB`).
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= 1e12 {
        format!("{} TB", fmt_quantity(b / 1e12))
    } else if b >= 1e9 {
        format!("{} GB", fmt_quantity(b / 1e9))
    } else if b >= 1e6 {
        format!("{} MB", fmt_quantity(b / 1e6))
    } else if b >= 1e3 {
        format!("{} kB", fmt_quantity(b / 1e3))
    } else {
        format!("{bytes} B")
    }
}

/// Formats an integer with thousands separators: `5578126 → "5,578,126"`.
pub fn fmt_count(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_increase_matches_paper_arithmetic() {
        // Total clients grew 4.07M → 5.58M ≈ 37%.
        let inc = percent_increase(4.07e6, 5.58e6).unwrap();
        assert!((inc - 37.1).abs() < 0.2, "{inc}");
        assert_eq!(percent_increase(0.0, 5.0), None);
    }

    #[test]
    fn percent_decrease_is_negative() {
        let inc = percent_increase(100.0, 38.0).unwrap();
        assert!((inc + 62.0).abs() < 1e-9);
    }

    #[test]
    fn percent_of_basics() {
        assert!((percent_of(589.0, 1950.0).unwrap() - 30.2).abs() < 0.05);
        assert_eq!(percent_of(1.0, 0.0), None);
    }

    #[test]
    fn fmt_percent_sig_figs() {
        assert_eq!(fmt_percent(30.4), "30%");
        assert_eq!(fmt_percent(4.04), "4.0%");
        assert_eq!(fmt_percent(0.296), "0.30%");
        assert_eq!(fmt_percent(-9.2), "-9.2%");
        assert_eq!(fmt_percent(611.0), "611%");
    }

    #[test]
    fn fmt_quantity_scales() {
        assert_eq!(fmt_quantity(589.4), "589");
        assert_eq!(fmt_quantity(62.3), "62");
        assert_eq!(fmt_quantity(5.83), "5.8");
        assert_eq!(fmt_quantity(0.142), "0.14");
    }

    #[test]
    fn fmt_bytes_scales() {
        assert_eq!(fmt_bytes(2_000_000_000_000), "2.0 TB");
        assert_eq!(fmt_bytes(1_950_000_000_000), "1.9 TB");
        assert_eq!(fmt_bytes(367_000_000), "367 MB");
        assert_eq!(fmt_bytes(1_500), "1.5 kB");
        assert_eq!(fmt_bytes(12), "12 B");
    }

    #[test]
    fn fmt_count_separators() {
        assert_eq!(fmt_count(5), "5");
        assert_eq!(fmt_count(822_761), "822,761");
        assert_eq!(fmt_count(5_578_126), "5,578,126");
        assert_eq!(fmt_count(1_000), "1,000");
    }

    #[test]
    fn byte_unit_roundtrip() {
        assert_eq!(bytes_in(2_000_000, ByteUnit::Mb), 2.0);
    }
}
