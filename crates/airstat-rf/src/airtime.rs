//! Channel airtime accounting with Atheros counter semantics.
//!
//! §5.3 of the paper describes the measurement mechanism precisely: the
//! Atheros chipset exposes microsecond counters for (a) the time the
//! energy-detect / carrier-sense mechanism is triggered and (b) the time
//! spent receiving frames with an intact 802.11 PLCP header and preamble.
//! Decodable-802.11 time is a subset of busy time; the remainder is either
//! 802.11 with a corrupted preamble or non-802.11 energy (Bluetooth,
//! ZigBee, microwave ovens, ...).
//!
//! [`AirtimeLedger`] reproduces those counters exactly, and
//! [`ChannelLoad`] composes a channel's utilization from its constituents:
//! beacon overhead from every co-channel network, client data traffic, and
//! non-WiFi interference duty cycles.

use crate::phy;

/// Microsecond airtime counters for one radio on one channel.
///
/// Invariant: `wifi_us <= busy_us <= elapsed_us` (decodable time is a
/// subset of busy time, busy time a subset of wall time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AirtimeLedger {
    elapsed_us: u64,
    busy_us: u64,
    wifi_us: u64,
}

impl AirtimeLedger {
    /// Accounts one observation interval.
    ///
    /// * `elapsed_us` — wall-clock observation time;
    /// * `busy_us` — time the energy-detect mechanism was triggered;
    /// * `wifi_us` — time spent on frames with decodable PLCP headers.
    ///
    /// Inputs are clamped to maintain the ledger invariant rather than
    /// panicking: the real counters are sampled asynchronously and can be
    /// off by a frame, and the paper's pipeline tolerates that.
    pub fn account(&mut self, elapsed_us: u64, busy_us: u64, wifi_us: u64) {
        let busy = busy_us.min(elapsed_us);
        let wifi = wifi_us.min(busy);
        self.elapsed_us += elapsed_us;
        self.busy_us += busy;
        self.wifi_us += wifi;
    }

    /// Total observed wall time (µs).
    pub fn elapsed_us(&self) -> u64 {
        self.elapsed_us
    }

    /// Total energy-detect busy time (µs).
    pub fn busy_us(&self) -> u64 {
        self.busy_us
    }

    /// Total decodable-802.11 time (µs).
    pub fn wifi_us(&self) -> u64 {
        self.wifi_us
    }

    /// Channel utilization in `[0, 1]`: busy / elapsed. `None` if nothing
    /// has been observed.
    pub fn utilization(&self) -> Option<f64> {
        (self.elapsed_us > 0).then(|| self.busy_us as f64 / self.elapsed_us as f64)
    }

    /// Fraction of *busy* time that contained decodable 802.11 headers
    /// (Figure 10's metric). `None` when the channel was never busy.
    pub fn decodable_fraction(&self) -> Option<f64> {
        (self.busy_us > 0).then(|| self.wifi_us as f64 / self.busy_us as f64)
    }
}

/// The composition of offered load on one channel.
///
/// This is the generative side: given how many networks share the channel,
/// how much client traffic they carry and how much non-WiFi interference is
/// present, [`ChannelLoad::utilization`] produces the busy fraction an
/// observing radio would measure, split into decodable and non-decodable
/// parts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelLoad {
    /// Number of co-channel BSSIDs whose beacons are heard (including
    /// virtual APs: each SSID beacons separately, §4.1).
    pub beaconing_bssids: u32,
    /// Fraction of those beacons sent as legacy 802.11b (long, slow).
    pub legacy_beacon_fraction: f64,
    /// Offered client data load in bits/s summed over co-channel networks.
    pub data_load_bps: f64,
    /// Mean PHY rate (Mb/s) at which that data is carried.
    pub mean_data_rate_mbps: f64,
    /// Non-802.11 interference duty cycle in `[0, 1]` (Bluetooth, ZigBee,
    /// microwave, ...), energy without decodable headers.
    pub non_wifi_duty: f64,
    /// Fraction of 802.11 energy whose preamble is corrupted at this
    /// observer (hidden terminals / weak overlapping-channel energy).
    pub corrupt_preamble_fraction: f64,
}

impl ChannelLoad {
    /// A quiet channel: no networks, no load, no interference.
    pub fn idle() -> Self {
        ChannelLoad {
            beaconing_bssids: 0,
            legacy_beacon_fraction: 0.0,
            data_load_bps: 0.0,
            mean_data_rate_mbps: 24.0,
            non_wifi_duty: 0.0,
            corrupt_preamble_fraction: 0.0,
        }
    }

    /// Beacon airtime fraction contributed by all co-channel BSSIDs.
    pub(crate) fn beacon_fraction(&self) -> f64 {
        let legacy = self.legacy_beacon_fraction.clamp(0.0, 1.0);
        let per_beacon_us =
            phy::beacon_airtime_us(true) * legacy + phy::beacon_airtime_us(false) * (1.0 - legacy);
        let per_bssid = per_beacon_us / phy::timing::BEACON_INTERVAL_US;
        (f64::from(self.beaconing_bssids) * per_bssid).min(1.0)
    }

    /// Data airtime fraction from the offered load.
    pub(crate) fn data_fraction(&self) -> f64 {
        if self.data_load_bps <= 0.0 {
            return 0.0;
        }
        let capacity = phy::effective_throughput_bps(self.mean_data_rate_mbps.max(1.0));
        (self.data_load_bps / capacity).min(1.0)
    }

    /// Total busy fraction seen by an energy-detect counter, saturating at
    /// 1.0 (airtime cannot exceed wall time; contention pushes excess load
    /// into queues, not the air).
    pub fn utilization(&self) -> f64 {
        (self.beacon_fraction() + self.data_fraction() + self.non_wifi_duty.clamp(0.0, 1.0))
            .min(1.0)
    }

    /// The decodable-802.11 share of busy time (Figure 10's quantity).
    pub fn decodable_fraction(&self) -> f64 {
        let busy = self.utilization();
        if busy <= 0.0 {
            return 0.0;
        }
        let wifi = (self.beacon_fraction() + self.data_fraction()).min(1.0)
            * (1.0 - self.corrupt_preamble_fraction.clamp(0.0, 1.0));
        (wifi / busy).clamp(0.0, 1.0)
    }

    /// Fills a ledger with `elapsed_us` of observation under this load.
    pub(crate) fn observe_into(&self, ledger: &mut AirtimeLedger, elapsed_us: u64) {
        let busy = (self.utilization() * elapsed_us as f64) as u64;
        let wifi = (self.decodable_fraction() * busy as f64) as u64;
        ledger.account(elapsed_us, busy, wifi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_invariant_holds() {
        let mut l = AirtimeLedger::default();
        l.account(1000, 500, 300);
        assert_eq!(l.elapsed_us(), 1000);
        assert_eq!(l.busy_us(), 500);
        assert_eq!(l.wifi_us(), 300);
        assert!((l.utilization().unwrap() - 0.5).abs() < 1e-12);
        assert!((l.decodable_fraction().unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn ledger_clamps_inconsistent_counters() {
        let mut l = AirtimeLedger::default();
        l.account(100, 200, 300); // busy > elapsed, wifi > busy
        assert_eq!(l.busy_us(), 100);
        assert_eq!(l.wifi_us(), 100);
    }

    #[test]
    fn empty_ledger_returns_none() {
        let l = AirtimeLedger::default();
        assert_eq!(l.utilization(), None);
        assert_eq!(l.decodable_fraction(), None);
    }

    #[test]
    fn beacon_fraction_scales_with_networks() {
        // One OFDM beaconer: 424 µs / 102.4 ms ≈ 0.41%.
        let one = ChannelLoad {
            beaconing_bssids: 1,
            ..ChannelLoad::idle()
        };
        assert!((one.beacon_fraction() - 0.00414).abs() < 3e-4);
        // 55 networks (the paper's 2.4 GHz mean) with 10% legacy beacons:
        // a non-trivial floor of utilization from beacons alone.
        let many = ChannelLoad {
            beaconing_bssids: 55,
            legacy_beacon_fraction: 0.1,
            ..ChannelLoad::idle()
        };
        // 55 co-channel BSSIDs with 10% legacy beacons: per-BSSID cost is
        // 0.1*2592 + 0.9*424 = 640.8 µs / 102.4 ms ≈ 0.63%, so ~34% total.
        let f = many.beacon_fraction();
        assert!(f > 0.25 && f < 0.45, "beacon floor {f}");
    }

    #[test]
    fn legacy_beacons_cost_six_times_more() {
        let modern = ChannelLoad {
            beaconing_bssids: 10,
            legacy_beacon_fraction: 0.0,
            ..ChannelLoad::idle()
        };
        let legacy = ChannelLoad {
            beaconing_bssids: 10,
            legacy_beacon_fraction: 1.0,
            ..ChannelLoad::idle()
        };
        let ratio = legacy.beacon_fraction() / modern.beacon_fraction();
        assert!(ratio > 5.0 && ratio < 7.0, "ratio {ratio}");
    }

    #[test]
    fn data_fraction_saturates() {
        let load = ChannelLoad {
            data_load_bps: 1e12,
            ..ChannelLoad::idle()
        };
        assert_eq!(load.data_fraction(), 1.0);
        assert_eq!(load.utilization(), 1.0);
    }

    #[test]
    fn decodable_fraction_accounting() {
        // Pure WiFi, clean preambles: everything decodable.
        let clean = ChannelLoad {
            beaconing_bssids: 20,
            data_load_bps: 5e6,
            ..ChannelLoad::idle()
        };
        assert!((clean.decodable_fraction() - 1.0).abs() < 1e-9);
        // Pure non-WiFi: nothing decodable.
        let noise = ChannelLoad {
            non_wifi_duty: 0.3,
            ..ChannelLoad::idle()
        };
        assert_eq!(noise.decodable_fraction(), 0.0);
        // Mixed: decodable share strictly between.
        let mixed = ChannelLoad {
            beaconing_bssids: 20,
            data_load_bps: 5e6,
            non_wifi_duty: 0.05,
            corrupt_preamble_fraction: 0.1,
            ..ChannelLoad::idle()
        };
        let d = mixed.decodable_fraction();
        assert!(d > 0.3 && d < 1.0, "decodable {d}");
    }

    #[test]
    fn observe_into_respects_fractions() {
        let load = ChannelLoad {
            beaconing_bssids: 40,
            data_load_bps: 2e6,
            non_wifi_duty: 0.1,
            ..ChannelLoad::idle()
        };
        let mut ledger = AirtimeLedger::default();
        load.observe_into(&mut ledger, 180_000_000); // 3 minutes
        let u = ledger.utilization().unwrap();
        assert!((u - load.utilization()).abs() < 1e-6);
        let d = ledger.decodable_fraction().unwrap();
        assert!((d - load.decodable_fraction()).abs() < 1e-6);
    }

    #[test]
    fn idle_channel_is_idle() {
        let idle = ChannelLoad::idle();
        assert_eq!(idle.utilization(), 0.0);
        assert_eq!(idle.decodable_fraction(), 0.0);
    }
}
