//! Table 4: client capabilities advertised at association, year over year.

use airstat_store::FleetQuery;
use airstat_telemetry::backend::WindowId;
use std::fmt;

use crate::render::TextTable;

/// Capability penetration fractions for one measurement window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CapabilityShares {
    /// Fraction advertising 802.11g (effectively everyone).
    pub g: f64,
    /// Fraction advertising 802.11n.
    pub n: f64,
    /// Fraction with 5 GHz support.
    pub dual_band: f64,
    /// Fraction supporting 40 MHz channels.
    pub forty_mhz: f64,
    /// Fraction advertising 802.11ac.
    pub ac: f64,
    /// Fraction with exactly two spatial streams.
    pub two_streams: f64,
    /// Fraction with exactly three spatial streams.
    pub three_streams: f64,
    /// Fraction with exactly four spatial streams.
    pub four_streams: f64,
}

impl CapabilityShares {
    /// Computes shares over all clients in a window.
    pub(crate) fn compute<Q: FleetQuery>(backend: &Q, window: WindowId) -> Self {
        let mut total = 0u64;
        let mut shares = CapabilityShares::default();
        for (_, identity) in backend.clients(window) {
            total += 1;
            let caps = identity.caps;
            if caps.supports_g() {
                shares.g += 1.0;
            }
            if caps.supports_n() {
                shares.n += 1.0;
            }
            if caps.dual_band() {
                shares.dual_band += 1.0;
            }
            if caps.forty_mhz() {
                shares.forty_mhz += 1.0;
            }
            if caps.supports_ac() {
                shares.ac += 1.0;
            }
            match caps.streams() {
                2 => shares.two_streams += 1.0,
                3 => shares.three_streams += 1.0,
                4 => shares.four_streams += 1.0,
                _ => {}
            }
        }
        if total > 0 {
            let n = total as f64;
            shares.g /= n;
            shares.n /= n;
            shares.dual_band /= n;
            shares.forty_mhz /= n;
            shares.ac /= n;
            shares.two_streams /= n;
            shares.three_streams /= n;
            shares.four_streams /= n;
        }
        shares
    }
}

/// Table 4's reproduction: two windows side by side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapabilitiesTable {
    /// The earlier window's shares (January 2014).
    pub before: CapabilityShares,
    /// The later window's shares (January 2015).
    pub after: CapabilityShares,
}

impl CapabilitiesTable {
    /// Computes both columns.
    pub(crate) fn compute<Q: FleetQuery>(backend: &Q, before: WindowId, after: WindowId) -> Self {
        CapabilitiesTable {
            before: CapabilityShares::compute(backend, before),
            after: CapabilityShares::compute(backend, after),
        }
    }

    /// The row list in Table 4 order: `(label, before, after)`.
    pub(crate) fn rows(&self) -> Vec<(&'static str, f64, f64)> {
        vec![
            ("802.11g", self.before.g, self.after.g),
            ("802.11n", self.before.n, self.after.n),
            ("5 GHz", self.before.dual_band, self.after.dual_band),
            (
                "40 MHz channels",
                self.before.forty_mhz,
                self.after.forty_mhz,
            ),
            ("802.11ac", self.before.ac, self.after.ac),
            (
                "Two streams",
                self.before.two_streams,
                self.after.two_streams,
            ),
            (
                "Three streams",
                self.before.three_streams,
                self.after.three_streams,
            ),
            (
                "Four streams",
                self.before.four_streams,
                self.after.four_streams,
            ),
        ]
    }
}

impl fmt::Display for CapabilitiesTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(["", "Jan. 2014", "Jan. 2015"]);
        for (label, before, after) in self.rows() {
            t.row([
                label.to_string(),
                format!("{:.1}%", before * 100.0),
                format!("{:.1}%", after * 100.0),
            ]);
        }
        f.write_str(&t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_classify::device::OsFamily;
    use airstat_classify::mac::MacAddress;
    use airstat_rf::band::Band;
    use airstat_rf::phy::{Capabilities, Generation};
    use airstat_telemetry::backend::Backend;
    use airstat_telemetry::report::{ClientInfoRecord, Report, ReportPayload};

    const W: WindowId = WindowId(1501);

    fn backend_with(caps: Vec<Capabilities>) -> Backend {
        let mut b = Backend::new();
        let records: Vec<ClientInfoRecord> = caps
            .into_iter()
            .enumerate()
            .map(|(i, caps)| ClientInfoRecord {
                mac: MacAddress::new([0, 0, 0, 0, 0, i as u8]),
                os: OsFamily::Windows,
                caps,
                band: Band::Ghz2_4,
                rssi_dbm: -60.0,
            })
            .collect();
        b.ingest(
            W,
            &Report {
                device: 1,
                seq: 0,
                timestamp_s: 0,
                payload: ReportPayload::ClientInfo(records),
            },
        );
        b
    }

    #[test]
    fn shares_counted_exactly() {
        let b = backend_with(vec![
            Capabilities::new(Generation::Ac, true, true, 2),
            Capabilities::new(Generation::N, false, false, 1),
            Capabilities::new(Generation::N, true, true, 3),
            Capabilities::new(Generation::G, false, false, 1),
        ]);
        let shares = CapabilityShares::compute(&b, W);
        assert!((shares.g - 1.0).abs() < 1e-12);
        assert!((shares.n - 0.75).abs() < 1e-12);
        assert!((shares.ac - 0.25).abs() < 1e-12);
        assert!((shares.dual_band - 0.5).abs() < 1e-12);
        assert!((shares.forty_mhz - 0.5).abs() < 1e-12);
        assert!((shares.two_streams - 0.25).abs() < 1e-12);
        assert!((shares.three_streams - 0.25).abs() < 1e-12);
        assert_eq!(shares.four_streams, 0.0);
    }

    #[test]
    fn empty_window_is_zero() {
        let b = Backend::new();
        let shares = CapabilityShares::compute(&b, W);
        assert_eq!(shares, CapabilityShares::default());
    }

    #[test]
    fn table_rows_in_paper_order() {
        let b = backend_with(vec![Capabilities::new(Generation::N, true, true, 2)]);
        let t = CapabilitiesTable::compute(&b, WindowId(1401), W);
        let rows = t.rows();
        assert_eq!(rows[0].0, "802.11g");
        assert_eq!(rows[4].0, "802.11ac");
        assert_eq!(rows.len(), 8);
        let s = t.to_string();
        assert!(s.contains("40 MHz channels"));
        assert!(s.contains("Jan. 2015"));
    }
}
