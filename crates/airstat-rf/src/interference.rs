//! Non-802.11 interference sources.
//!
//! §5.3 and Figure 11: the 2.4 GHz band carries frequency-hopping Bluetooth
//! (1 MHz transmissions), ZigBee, cordless phones, microwave ovens and
//! "other unidentified sources" alongside 802.11; the 5 GHz band is mostly
//! clean 802.11 with some frequency-selective fading. These sources trigger
//! the energy-detect counter but never produce decodable PLCP headers, which
//! is exactly the gap between Figure 6/9 (total utilization) and Figure 10
//! (decodable share).

use airstat_stats::dist::WeightedIndex;
use rand::Rng;

/// A class of non-802.11 emitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterfererKind {
    /// Bluetooth piconet: 1 MHz transmissions hopping across 79 channels.
    Bluetooth,
    /// ZigBee / 802.15.4: 2 MHz static-channel beaconing sensors.
    Zigbee,
    /// Analog/DECT-like cordless phone: narrowband, long transmissions.
    CordlessPhone,
    /// Microwave oven: wideband bursts synchronized to mains half-cycles.
    MicrowaveOven,
    /// 5 GHz radar-like or proprietary point-to-point links.
    OutdoorLink,
}

impl InterfererKind {
    /// Occupied bandwidth in MHz.
    pub(crate) fn bandwidth_mhz(self) -> f64 {
        match self {
            InterfererKind::Bluetooth => 1.0,
            InterfererKind::Zigbee => 2.0,
            InterfererKind::CordlessPhone => 1.0,
            InterfererKind::MicrowaveOven => 20.0,
            InterfererKind::OutdoorLink => 10.0,
        }
    }

    /// Whether the emitter hops in frequency between transmissions.
    pub(crate) fn hops(self) -> bool {
        matches!(
            self,
            InterfererKind::Bluetooth | InterfererKind::CordlessPhone
        )
    }

    /// Typical on-air duty cycle when active.
    pub(crate) fn duty_cycle(self) -> f64 {
        match self {
            InterfererKind::Bluetooth => 0.05,
            InterfererKind::Zigbee => 0.01,
            InterfererKind::CordlessPhone => 0.40,
            InterfererKind::MicrowaveOven => 0.50,
            InterfererKind::OutdoorLink => 0.20,
        }
    }
}

/// One interferer instance near an access point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interferer {
    /// What kind of device it is.
    pub kind: InterfererKind,
    /// Received power at the observing AP (dBm).
    pub rx_power_dbm: f64,
    /// Center frequency (MHz) — for hoppers this is the instantaneous hop.
    pub center_mhz: f64,
    /// Fraction of the day the device is active at all (a microwave runs
    /// minutes per day; a cordless phone call lasts a while).
    pub activity_fraction: f64,
}

impl Interferer {
    /// Contribution to the energy-detect duty cycle on a 20 MHz channel at
    /// `channel_center_mhz`, long-run average.
    ///
    /// Hoppers spread their duty across the band (a Bluetooth hopper spends
    /// 20/79ths of its airtime inside any given 20 MHz channel); static
    /// emitters contribute fully when in-channel and nothing otherwise.
    pub(crate) fn duty_on_channel(&self, channel_center_mhz: f64) -> f64 {
        let base = self.kind.duty_cycle() * self.activity_fraction;
        if self.kind.hops() {
            // Fraction of the 79 MHz hop set overlapping a 20 MHz channel.
            base * (20.0 / 79.0)
        } else {
            let half_span = (self.kind.bandwidth_mhz() + 20.0) / 2.0;
            if (self.center_mhz - channel_center_mhz).abs() <= half_span {
                base
            } else {
                0.0
            }
        }
    }
}

/// The mix of interferer kinds found near a typical 2.4 GHz deployment.
///
/// Weights are qualitative, tuned so that the aggregate non-WiFi duty at a
/// busy site lands in the few-percent range the paper's Figure 10 implies
/// (most busy time *is* decodable 802.11, but a visible minority is not).
pub fn sample_kind_2_4<R: Rng + ?Sized>(rng: &mut R) -> InterfererKind {
    const KINDS: [InterfererKind; 4] = [
        InterfererKind::Bluetooth,
        InterfererKind::Zigbee,
        InterfererKind::CordlessPhone,
        InterfererKind::MicrowaveOven,
    ];
    let weights = WeightedIndex::new([0.60, 0.15, 0.10, 0.15]);
    KINDS[weights.sample(rng)]
}

/// Aggregate non-WiFi duty cycle from a population of interferers on one
/// channel.
pub fn aggregate_duty(interferers: &[Interferer], channel_center_mhz: f64) -> f64 {
    // Duty cycles of independent sources combine as 1 - prod(1 - d):
    // overlapping transmissions don't double-count busy time.
    let free: f64 = interferers
        .iter()
        .map(|i| 1.0 - i.duty_on_channel(channel_center_mhz).clamp(0.0, 1.0))
        .product();
    1.0 - free
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_stats::SeedTree;

    fn bt(activity: f64) -> Interferer {
        Interferer {
            kind: InterfererKind::Bluetooth,
            rx_power_dbm: -60.0,
            center_mhz: 2441.0,
            activity_fraction: activity,
        }
    }

    #[test]
    fn hopper_spreads_duty() {
        let i = bt(1.0);
        let d = i.duty_on_channel(2437.0);
        // 5% duty * 20/79 spread ≈ 1.27%.
        assert!((d - 0.05 * 20.0 / 79.0).abs() < 1e-9);
        // Hoppers hit every channel equally.
        assert_eq!(d, i.duty_on_channel(2412.0));
    }

    #[test]
    fn static_emitter_is_local() {
        let zb = Interferer {
            kind: InterfererKind::Zigbee,
            rx_power_dbm: -70.0,
            center_mhz: 2425.0,
            activity_fraction: 1.0,
        };
        assert!(zb.duty_on_channel(2425.0) > 0.0);
        assert_eq!(zb.duty_on_channel(2462.0), 0.0);
    }

    #[test]
    fn microwave_is_wideband() {
        let mw = Interferer {
            kind: InterfererKind::MicrowaveOven,
            rx_power_dbm: -50.0,
            center_mhz: 2450.0,
            activity_fraction: 0.02, // runs ~30 min/day
        };
        // 20 MHz wide: hits both ch6 (2437) and ch11 (2462).
        assert!(mw.duty_on_channel(2437.0) > 0.0);
        assert!(mw.duty_on_channel(2462.0) > 0.0);
        assert!((mw.duty_on_channel(2437.0) - 0.5 * 0.02).abs() < 1e-9);
    }

    #[test]
    fn aggregate_never_exceeds_one() {
        let heavy: Vec<Interferer> = (0..50)
            .map(|_| Interferer {
                kind: InterfererKind::CordlessPhone,
                rx_power_dbm: -40.0,
                center_mhz: 2437.0,
                activity_fraction: 1.0,
            })
            .collect();
        let d = aggregate_duty(&heavy, 2437.0);
        assert!(d > 0.99 && d <= 1.0, "duty {d}");
    }

    #[test]
    fn aggregate_of_none_is_zero() {
        assert_eq!(aggregate_duty(&[], 2437.0), 0.0);
    }

    #[test]
    fn aggregate_less_than_sum() {
        // Independent overlap: aggregate < arithmetic sum.
        let xs = vec![bt(1.0), bt(1.0), bt(1.0)];
        let agg = aggregate_duty(&xs, 2437.0);
        let sum: f64 = xs.iter().map(|i| i.duty_on_channel(2437.0)).sum();
        assert!(agg < sum);
        assert!(agg > xs[0].duty_on_channel(2437.0));
    }

    #[test]
    fn kind_mix_is_bluetooth_dominated() {
        let mut rng = SeedTree::new(21).rng();
        let mut bt_count = 0;
        let n = 10_000;
        for _ in 0..n {
            if sample_kind_2_4(&mut rng) == InterfererKind::Bluetooth {
                bt_count += 1;
            }
        }
        let frac = bt_count as f64 / n as f64;
        assert!((frac - 0.6).abs() < 0.03, "bluetooth fraction {frac}");
    }
}
