//! The two measurement instruments: serving-radio counters and the
//! dedicated scanning radio.
//!
//! The paper is explicit that *which radio measures* changes the answer:
//!
//! * the **MR16** has no spare radio, so its utilization numbers (Figure 6)
//!   come from the serving radio and only describe **its own channel** —
//!   which is busier than average, because the AP itself and its clients
//!   live there;
//! * the **MR18** adds a third radio that does nothing but scan, dwelling
//!   **5 ms per channel** and aggregating over **3-minute windows** (§5),
//!   giving the across-all-channels view of Figures 7–10. §5.2 explains
//!   the Figure 6 vs Figure 9 discrepancy with exactly this sampling-bias
//!   argument.
//!
//! This module implements both instruments against a caller-provided map
//! from channel to [`ChannelLoad`], so the sampling-bias effect emerges
//! from the mechanics instead of being painted on.

use std::collections::BTreeMap;

use crate::airtime::{AirtimeLedger, ChannelLoad};
use crate::band::{Band, Channel};

/// Dwell time of the MR18 scanning radio on each channel (µs). §5: 5 ms.
pub const SCAN_DWELL_US: u64 = 5_000;

/// One channel's measurement from a scan window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelSample {
    /// The measured channel.
    pub channel: Channel,
    /// Busy (energy-detect) fraction in `[0, 1]`.
    pub utilization: f64,
    /// Fraction of busy time with decodable 802.11 headers.
    pub decodable: f64,
    /// Number of distinct co-channel networks heard during the window.
    pub networks_heard: u32,
}

/// A serving radio (MR16-style): measures only the channel it serves on.
#[derive(Debug, Clone, Default)]
pub struct ServingRadio {
    ledger: AirtimeLedger,
}

impl ServingRadio {
    /// Observes `elapsed_us` of wall time under `load` (the load of its own
    /// channel — the caller looks it up; this radio cannot see others).
    pub fn observe(&mut self, load: &ChannelLoad, elapsed_us: u64) {
        load.observe_into(&mut self.ledger, elapsed_us);
    }

    /// Cumulative counters since creation (what the backend polls).
    pub fn ledger(&self) -> &AirtimeLedger {
        &self.ledger
    }
}

/// The MR18 dedicated scanning radio.
///
/// Cycles over every channel of both bands, spending [`SCAN_DWELL_US`] per
/// channel, and accumulates one [`AirtimeLedger`] per channel. Every scan
/// window (§5: 3 minutes) the backend collects a [`ChannelSample`] per
/// channel.
#[derive(Debug, Clone)]
pub struct ScanningRadio {
    schedule: Vec<Channel>,
    position: usize,
    ledgers: BTreeMap<(Band, u16), AirtimeLedger>,
}

impl Default for ScanningRadio {
    fn default() -> Self {
        Self::new()
    }
}

impl ScanningRadio {
    /// Creates a scanner covering the full FCC plan in both bands.
    pub fn new() -> Self {
        let mut schedule = Channel::all_in(Band::Ghz2_4);
        schedule.extend(Channel::all_in(Band::Ghz5));
        ScanningRadio {
            schedule,
            position: 0,
            ledgers: BTreeMap::new(),
        }
    }

    /// Number of channels in one full sweep.
    pub fn sweep_len(&self) -> usize {
        self.schedule.len()
    }

    /// Duration of one full sweep (µs).
    pub fn sweep_duration_us(&self) -> u64 {
        SCAN_DWELL_US * self.schedule.len() as u64
    }

    /// Performs one dwell: observes the next channel for [`SCAN_DWELL_US`]
    /// under the load given by `loads`, then advances.
    ///
    /// Channels missing from `loads` are treated as idle.
    pub(crate) fn dwell(&mut self, loads: &dyn Fn(Channel) -> ChannelLoad) {
        let ch = self.schedule[self.position];
        let load = loads(ch);
        let ledger = self.ledgers.entry((ch.band, ch.number)).or_default();
        load.observe_into(ledger, SCAN_DWELL_US);
        self.position = (self.position + 1) % self.schedule.len();
    }

    /// Runs dwells until `elapsed_us` of scanning time has passed.
    pub fn run_for(&mut self, elapsed_us: u64, loads: &dyn Fn(Channel) -> ChannelLoad) {
        let dwells = elapsed_us / SCAN_DWELL_US;
        for _ in 0..dwells {
            self.dwell(loads);
        }
    }

    /// Collects the per-channel samples for the window and resets counters.
    ///
    /// `networks` supplies the co-channel network count the scanner decoded
    /// beacons from during the window (the scanner *can* count networks —
    /// it has decodable-header time on every channel).
    pub fn collect(&mut self, networks: &dyn Fn(Channel) -> u32) -> Vec<ChannelSample> {
        let mut out = Vec::with_capacity(self.schedule.len());
        for &ch in &self.schedule {
            let ledger = self
                .ledgers
                .remove(&(ch.band, ch.number))
                .unwrap_or_default();
            out.push(ChannelSample {
                channel: ch,
                utilization: ledger.utilization().unwrap_or(0.0),
                decodable: ledger.decodable_fraction().unwrap_or(0.0),
                networks_heard: networks(ch),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Aggregation window of the backend for scan results (µs). §5: 3 minutes.
    const SCAN_WINDOW_US: u64 = 180_000_000;

    fn ch24(n: u16) -> Channel {
        Channel::new(Band::Ghz2_4, n).unwrap()
    }

    fn busy_load(util_target: f64) -> ChannelLoad {
        // Pure non-WiFi duty gives an exact utilization with decodable 0.
        ChannelLoad {
            non_wifi_duty: util_target,
            ..ChannelLoad::idle()
        }
    }

    #[test]
    fn serving_radio_sees_only_its_channel() {
        let mut r = ServingRadio::default();
        r.observe(&busy_load(0.4), 1_000_000);
        let u = r.ledger().utilization().unwrap();
        assert!((u - 0.4).abs() < 1e-6);
    }

    #[test]
    fn scanner_covers_both_bands() {
        let s = ScanningRadio::new();
        assert_eq!(s.sweep_len(), 11 + 24);
        assert_eq!(s.sweep_duration_us(), 35 * SCAN_DWELL_US);
    }

    #[test]
    fn scanner_round_robin() {
        let mut s = ScanningRadio::new();
        let first = s.schedule[s.position];
        for _ in 0..s.sweep_len() {
            s.dwell(&|_| ChannelLoad::idle());
        }
        assert_eq!(s.schedule[s.position], first, "one sweep returns to start");
    }

    #[test]
    fn scanner_measures_per_channel_loads() {
        let mut s = ScanningRadio::new();
        // Channel 6 busy, everything else idle.
        let loads = |ch: Channel| {
            if ch.band == Band::Ghz2_4 && ch.number == 6 {
                busy_load(0.6)
            } else {
                ChannelLoad::idle()
            }
        };
        s.run_for(SCAN_WINDOW_US / 100, &loads); // plenty of sweeps
        let samples = s.collect(&|ch| if ch.number == 6 { 12 } else { 0 });
        let ch6 = samples
            .iter()
            .find(|c| c.channel.band == Band::Ghz2_4 && c.channel.number == 6)
            .unwrap();
        assert!((ch6.utilization - 0.6).abs() < 1e-3, "{}", ch6.utilization);
        assert_eq!(ch6.networks_heard, 12);
        let ch1 = samples
            .iter()
            .find(|c| c.channel.band == Band::Ghz2_4 && c.channel.number == 1)
            .unwrap();
        assert_eq!(ch1.utilization, 0.0);
    }

    #[test]
    fn collect_resets_state() {
        let mut s = ScanningRadio::new();
        s.run_for(10 * SCAN_DWELL_US, &|_| busy_load(0.5));
        let _ = s.collect(&|_| 0);
        let samples = s.collect(&|_| 0);
        assert!(samples.iter().all(|c| c.utilization == 0.0));
    }

    #[test]
    fn sampling_bias_demo() {
        // The §5.2 effect: a serving radio on the busiest channel reports
        // far higher utilization than a scanner averaging all channels.
        let loads = |ch: Channel| {
            if ch.band == Band::Ghz2_4 && ch.number == 6 {
                busy_load(0.5)
            } else if ch.band == Band::Ghz2_4 {
                busy_load(0.1)
            } else {
                ChannelLoad::idle() // 5 GHz mostly unused (Figure 2)
            }
        };
        let mut serving = ServingRadio::default();
        serving.observe(&loads(ch24(6)), SCAN_WINDOW_US);
        let mut scanner = ScanningRadio::new();
        scanner.run_for(SCAN_WINDOW_US / 50, &loads);
        let samples = scanner.collect(&|_| 0);
        let mean_util: f64 =
            samples.iter().map(|c| c.utilization).sum::<f64>() / samples.len() as f64;
        let serving_util = serving.ledger().utilization().unwrap();
        assert!(
            serving_util > 3.0 * mean_util,
            "serving {serving_util} vs scanner mean {mean_util}"
        );
    }
}
