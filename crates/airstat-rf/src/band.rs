//! Frequency bands and the FCC (US) channel plan.
//!
//! The paper restricts its radio measurements to US-deployed access points
//! "to simplify complications due to regulatory domains" (§5), so AirStat
//! implements the FCC Part 15 channel plan:
//!
//! * **2.4 GHz**: channels 1–11, 5 MHz spacing, 20 MHz-wide transmissions —
//!   only {1, 6, 11} are non-overlapping;
//! * **5 GHz**: UNII-1 (36–48), UNII-2 (52–64, DFS), UNII-2 extended
//!   (100–140, DFS), UNII-3 (149–165).
//!
//! Figure 2 of the paper plots nearby networks against exactly this channel
//! axis, and Table 7's "it is possible to find a non-overlapping channel at
//! 5 GHz" claim depends on the non-overlapping channel counts this module
//! computes.

use std::fmt;

/// A WiFi frequency band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Band {
    /// The 2.4 GHz ISM band.
    Ghz2_4,
    /// The 5 GHz UNII bands.
    Ghz5,
}

impl Band {
    /// All bands, in display order.
    pub const ALL: [Band; 2] = [Band::Ghz2_4, Band::Ghz5];

    /// Human-readable name matching the paper's usage.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Band::Ghz2_4 => "2.4 GHz",
            Band::Ghz5 => "5 GHz",
        }
    }
}

impl fmt::Display for Band {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The 5 GHz regulatory sub-band a channel belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unii {
    /// UNII-1 lower band, channels 36–48.
    Unii1,
    /// UNII-2 middle band, channels 52–64 (DFS required).
    Unii2,
    /// UNII-2 extended band, channels 100–140 (DFS required).
    Unii2Extended,
    /// UNII-3 upper band, channels 149–165.
    Unii3,
}

impl Unii {
    /// Whether Dynamic Frequency Selection (radar detection) is required.
    pub(crate) fn requires_dfs(self) -> bool {
        matches!(self, Unii::Unii2 | Unii::Unii2Extended)
    }
}

/// A WiFi channel in the FCC plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Channel {
    /// Channel number (1–11 at 2.4 GHz, 36–165 at 5 GHz).
    pub number: u16,
    /// Band this channel lives in.
    pub band: Band,
}

/// FCC 2.4 GHz channel numbers.
pub const CHANNELS_2_4: [u16; 11] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];

/// The three non-overlapping 20 MHz channels at 2.4 GHz.
pub const NON_OVERLAPPING_2_4: [u16; 3] = [1, 6, 11];

/// FCC 5 GHz channel numbers (20 MHz centers) across all UNII bands.
pub const CHANNELS_5: [u16; 24] = [
    36, 40, 44, 48, // UNII-1
    52, 56, 60, 64, // UNII-2
    100, 104, 108, 112, 116, 120, 124, 128, 132, 136, 140, // UNII-2e
    149, 153, 157, 161, 165, // UNII-3
];

impl Channel {
    /// Creates a channel, validating the number against the FCC plan.
    ///
    /// Returns `None` for numbers outside the plan (e.g. channel 12–14,
    /// which are not FCC channels, or 5 GHz numbers not in the UNII grid).
    pub fn new(band: Band, number: u16) -> Option<Self> {
        let valid = match band {
            Band::Ghz2_4 => CHANNELS_2_4.contains(&number),
            Band::Ghz5 => CHANNELS_5.contains(&number),
        };
        valid.then_some(Channel { number, band })
    }

    /// All channels in a band, in ascending order.
    pub fn all_in(band: Band) -> Vec<Channel> {
        match band {
            Band::Ghz2_4 => CHANNELS_2_4
                .iter()
                .map(|&n| Channel { number: n, band })
                .collect(),
            Band::Ghz5 => CHANNELS_5
                .iter()
                .map(|&n| Channel { number: n, band })
                .collect(),
        }
    }

    /// Center frequency in MHz.
    ///
    /// 2.4 GHz: `2407 + 5 * n` (channel 1 = 2412, channel 6 = 2437).
    /// 5 GHz: `5000 + 5 * n` (channel 36 = 5180, channel 44 = 5220).
    pub fn center_mhz(&self) -> f64 {
        match self.band {
            Band::Ghz2_4 => 2407.0 + 5.0 * f64::from(self.number),
            Band::Ghz5 => 5000.0 + 5.0 * f64::from(self.number),
        }
    }

    /// The UNII sub-band for 5 GHz channels; `None` at 2.4 GHz.
    pub(crate) fn unii(&self) -> Option<Unii> {
        if self.band != Band::Ghz5 {
            return None;
        }
        Some(match self.number {
            36..=48 => Unii::Unii1,
            52..=64 => Unii::Unii2,
            100..=140 => Unii::Unii2Extended,
            _ => Unii::Unii3,
        })
    }

    /// Whether operating here requires DFS radar detection.
    pub fn requires_dfs(&self) -> bool {
        self.unii().is_some_and(Unii::requires_dfs)
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{} ({})", self.number, self.band)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_center_frequencies() {
        let ch1 = Channel::new(Band::Ghz2_4, 1).unwrap();
        let ch6 = Channel::new(Band::Ghz2_4, 6).unwrap();
        let ch11 = Channel::new(Band::Ghz2_4, 11).unwrap();
        assert_eq!(ch1.center_mhz(), 2412.0);
        assert_eq!(ch6.center_mhz(), 2437.0); // Figure 11's 2.437 GHz scan
        assert_eq!(ch11.center_mhz(), 2462.0);
        let ch44 = Channel::new(Band::Ghz5, 44).unwrap();
        assert_eq!(ch44.center_mhz(), 5220.0); // Figure 11's 5.220 GHz scan
    }

    #[test]
    fn invalid_channels_rejected() {
        assert!(Channel::new(Band::Ghz2_4, 12).is_none()); // not FCC
        assert!(Channel::new(Band::Ghz2_4, 0).is_none());
        assert!(Channel::new(Band::Ghz5, 37).is_none()); // off-grid
        assert!(Channel::new(Band::Ghz5, 1).is_none());
    }

    #[test]
    fn unii_classification() {
        let u = |n| Channel::new(Band::Ghz5, n).unwrap().unii().unwrap();
        assert_eq!(u(36), Unii::Unii1);
        assert_eq!(u(48), Unii::Unii1);
        assert_eq!(u(52), Unii::Unii2);
        assert_eq!(u(64), Unii::Unii2);
        assert_eq!(u(100), Unii::Unii2Extended);
        assert_eq!(u(140), Unii::Unii2Extended);
        assert_eq!(u(149), Unii::Unii3);
        assert_eq!(u(165), Unii::Unii3);
        assert!(Channel::new(Band::Ghz2_4, 6).unwrap().unii().is_none());
    }

    #[test]
    fn dfs_flags() {
        assert!(!Channel::new(Band::Ghz5, 36).unwrap().requires_dfs());
        assert!(Channel::new(Band::Ghz5, 56).unwrap().requires_dfs());
        assert!(Channel::new(Band::Ghz5, 120).unwrap().requires_dfs());
        assert!(!Channel::new(Band::Ghz5, 157).unwrap().requires_dfs());
        assert!(!Channel::new(Band::Ghz2_4, 6).unwrap().requires_dfs());
    }

    #[test]
    fn all_in_counts() {
        assert_eq!(Channel::all_in(Band::Ghz2_4).len(), 11);
        assert_eq!(Channel::all_in(Band::Ghz5).len(), 24);
    }

    #[test]
    fn display_formats() {
        let ch = Channel::new(Band::Ghz2_4, 6).unwrap();
        assert_eq!(ch.to_string(), "ch6 (2.4 GHz)");
        assert_eq!(Band::Ghz5.to_string(), "5 GHz");
    }
}
