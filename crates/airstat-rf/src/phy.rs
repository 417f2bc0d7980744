//! 802.11 PHY capabilities and frame airtime arithmetic.
//!
//! Two parts:
//!
//! 1. [`Capabilities`] — the advertised feature set a client presents at
//!    association time, which the paper tabulates in Table 4 (802.11g/n/ac,
//!    5 GHz support, 40 MHz channels, spatial streams).
//! 2. Airtime arithmetic — exact on-air durations for the frames the
//!    measurement system cares about: BSSID beacons (102.4 ms interval,
//!    0.42 ms for OFDM and 2.592 ms for 802.11b, §4.1) and the 60-byte
//!    link-metric probes sent at 1 Mb/s (2.4 GHz) and 6 Mb/s (5 GHz, §4.2).
//!
//! Airtime feeds directly into the channel-utilization model: a channel's
//! busy fraction is the sum of its occupants' frame durations per unit time.

/// Highest 802.11 generation a client supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Generation {
    /// 802.11b DSSS only (1/2/5.5/11 Mb/s).
    B,
    /// 802.11g OFDM at 2.4 GHz.
    G,
    /// 802.11n HT (MIMO, 40 MHz).
    N,
    /// 802.11ac VHT (5 GHz, 80 MHz).
    Ac,
}

/// The capability set advertised by a client at association time.
///
/// Matches the rows of Table 4. Invariants are enforced at construction:
/// an 802.11ac device is by definition 5 GHz- and 11n-capable, stream count
/// is 1–4, and a 2.4 GHz-only device cannot be ac.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capabilities {
    generation: Generation,
    dual_band: bool,
    forty_mhz: bool,
    streams: u8,
}

impl Capabilities {
    /// Builds a capability set, normalizing impossible combinations.
    ///
    /// * `generation` — highest supported standard;
    /// * `dual_band` — 5 GHz support (forced `true` for 802.11ac);
    /// * `forty_mhz` — 40 MHz channel support (forced `false` below 11n);
    /// * `streams` — spatial streams, clamped to 1–4 (1 below 11n).
    pub fn new(generation: Generation, dual_band: bool, forty_mhz: bool, streams: u8) -> Self {
        let dual_band = dual_band || generation == Generation::Ac;
        let ht_plus = generation >= Generation::N;
        Capabilities {
            generation,
            dual_band,
            forty_mhz: forty_mhz && ht_plus,
            streams: if ht_plus { streams.clamp(1, 4) } else { 1 },
        }
    }

    /// Highest supported 802.11 generation.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// Whether the client advertises 802.11g (everything ≥ g does).
    pub fn supports_g(&self) -> bool {
        self.generation >= Generation::G
    }

    /// Whether the client advertises 802.11n.
    pub fn supports_n(&self) -> bool {
        self.generation >= Generation::N
    }

    /// Whether the client advertises 802.11ac.
    pub fn supports_ac(&self) -> bool {
        self.generation >= Generation::Ac
    }

    /// Whether the client can use the 5 GHz band.
    pub fn dual_band(&self) -> bool {
        self.dual_band
    }

    /// Whether the client supports 40 MHz channels.
    pub fn forty_mhz(&self) -> bool {
        self.forty_mhz
    }

    /// Number of spatial streams (1–4).
    pub fn streams(&self) -> u8 {
        self.streams
    }
}

/// Physical-layer framing constants (long-preamble DSSS and OFDM).
pub mod timing {
    /// DSSS long preamble + PLCP header (µs), used at 1/2 Mb/s.
    pub const DSSS_PREAMBLE_US: f64 = 192.0;
    /// OFDM preamble + signal field (µs).
    pub const OFDM_PREAMBLE_US: f64 = 20.0;
    /// OFDM symbol duration (µs).
    pub const OFDM_SYMBOL_US: f64 = 4.0;
    /// Default BSSID beacon interval (µs) — 102.4 ms (§4.1).
    pub const BEACON_INTERVAL_US: f64 = 102_400.0;
    /// MAC header + FCS overhead applied to beacon/probe payloads (bytes).
    pub const MAC_OVERHEAD_BYTES: usize = 28;
}

/// On-air duration of a DSSS (802.11b) frame in microseconds.
///
/// `rate_mbps` must be one of the DSSS rates (1, 2, 5.5, 11).
pub(crate) fn dsss_frame_us(payload_bytes: usize, rate_mbps: f64) -> f64 {
    assert!(
        [1.0, 2.0, 5.5, 11.0].contains(&rate_mbps),
        "not a DSSS rate: {rate_mbps}"
    );
    let bits = (payload_bytes + timing::MAC_OVERHEAD_BYTES) as f64 * 8.0;
    timing::DSSS_PREAMBLE_US + bits / rate_mbps
}

/// On-air duration of an OFDM (802.11a/g) frame in microseconds.
///
/// `rate_mbps` must be one of the OFDM rates (6–54).
pub(crate) fn ofdm_frame_us(payload_bytes: usize, rate_mbps: f64) -> f64 {
    assert!(
        [6.0, 9.0, 12.0, 18.0, 24.0, 36.0, 48.0, 54.0].contains(&rate_mbps),
        "not an OFDM rate: {rate_mbps}"
    );
    // 16 service bits + 6 tail bits + payload, in whole OFDM symbols.
    let bits = (payload_bytes + timing::MAC_OVERHEAD_BYTES) as f64 * 8.0 + 22.0;
    let bits_per_symbol = rate_mbps * timing::OFDM_SYMBOL_US;
    let symbols = (bits / bits_per_symbol).ceil();
    timing::OFDM_PREAMBLE_US + symbols * timing::OFDM_SYMBOL_US
}

/// Airtime of one BSSID beacon frame (µs).
///
/// The paper quotes 0.42 ms for a/g/n beacons and 2.592 ms for 802.11b
/// beacons; this function reproduces those numbers from first principles
/// with a ~100-byte beacon body.
pub(crate) fn beacon_airtime_us(legacy_11b: bool) -> f64 {
    // Typical full beacon body: timestamp + interval + caps + SSID + rates
    // + DS + TIM + country + HT/ERP information elements ≈ 272 bytes.
    // 272 + 28 bytes MAC overhead at 1 Mb/s gives exactly the paper's
    // 2.592 ms, and at 6 Mb/s OFDM gives 424 µs ≈ the paper's 0.42 ms.
    const BEACON_BODY: usize = 272;
    if legacy_11b {
        dsss_frame_us(BEACON_BODY, 1.0)
    } else {
        ofdm_frame_us(BEACON_BODY, 6.0)
    }
}

/// Effective MAC-layer throughput estimate (bits/s) for a saturated sender,
/// used by the utilization model to convert offered load into airtime.
///
/// Very coarse: assumes 1500-byte frames at the given PHY rate with fixed
/// per-frame overhead (DIFS + SIFS + ACK ≈ 100 µs amortized).
pub fn effective_throughput_bps(phy_rate_mbps: f64) -> f64 {
    assert!(phy_rate_mbps > 0.0);
    let frame_us = 1500.0 * 8.0 / phy_rate_mbps + 100.0;
    1500.0 * 8.0 / frame_us * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beacon_airtimes_match_paper() {
        // §4.1: 0.42 ms for a/g/n beacons, 2.592 ms for 802.11b beacons.
        let ofdm = beacon_airtime_us(false);
        assert!((ofdm - 420.0).abs() < 25.0, "OFDM beacon {ofdm} µs");
        let dsss = beacon_airtime_us(true);
        assert!((dsss - 2592.0).abs() < 60.0, "11b beacon {dsss} µs");
    }

    #[test]
    fn ofdm_symbol_quantization() {
        // Zero payload still costs preamble + at least one symbol.
        let t = ofdm_frame_us(0, 54.0);
        assert!(t >= timing::OFDM_PREAMBLE_US + timing::OFDM_SYMBOL_US);
        // Higher rate never takes longer.
        assert!(ofdm_frame_us(1500, 54.0) < ofdm_frame_us(1500, 6.0));
    }

    #[test]
    fn dsss_scales_linearly() {
        let t1 = dsss_frame_us(100, 1.0);
        let t2 = dsss_frame_us(200, 1.0);
        assert!((t2 - t1 - 800.0).abs() < 1e-9); // 100 extra bytes = 800 µs at 1 Mb/s
    }

    #[test]
    #[should_panic(expected = "not a DSSS rate")]
    fn dsss_rejects_ofdm_rate() {
        let _ = dsss_frame_us(100, 6.0);
    }

    #[test]
    #[should_panic(expected = "not an OFDM rate")]
    fn ofdm_rejects_dsss_rate() {
        let _ = ofdm_frame_us(100, 11.0);
    }

    #[test]
    fn capability_invariants() {
        // ac forces dual band.
        let c = Capabilities::new(Generation::Ac, false, true, 2);
        assert!(c.dual_band());
        assert!(c.supports_ac() && c.supports_n() && c.supports_g());
        // Legacy g: no 40 MHz, single stream.
        let g = Capabilities::new(Generation::G, false, true, 3);
        assert!(!g.forty_mhz());
        assert_eq!(g.streams(), 1);
        assert!(!g.supports_n());
        // Stream clamping.
        let n = Capabilities::new(Generation::N, true, true, 9);
        assert_eq!(n.streams(), 4);
        let n0 = Capabilities::new(Generation::N, true, true, 0);
        assert_eq!(n0.streams(), 1);
    }

    #[test]
    fn effective_throughput_sane() {
        let t6 = effective_throughput_bps(6.0);
        let t54 = effective_throughput_bps(54.0);
        assert!(t6 < 6e6 && t6 > 4e6);
        assert!(t54 < 54e6 && t54 > 30e6);
        assert!(t54 > t6);
    }
}
