//! Table 3: usage by operating system, with year-over-year growth.

use airstat_classify::device::OsFamily;
use airstat_stats::summary::{
    bytes_in, fmt_count, fmt_percent_opt, fmt_quantity, percent_increase, percent_of, ByteUnit,
};
use airstat_store::FleetQuery;
use airstat_telemetry::backend::{UsageTotals, WindowId};
use std::fmt;

use crate::render::TextTable;

/// One OS row of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsRow {
    /// The operating system.
    pub os: OsFamily,
    /// 2015-window totals.
    pub totals: UsageTotals,
    /// Distinct clients in the 2015 window.
    pub clients: u64,
    /// Year-over-year byte growth (percent), if 2014 data exists.
    pub bytes_increase: Option<f64>,
    /// Year-over-year client growth (percent).
    pub clients_increase: Option<f64>,
    /// Year-over-year MB/client growth (percent).
    pub per_client_increase: Option<f64>,
}

impl OsRow {
    /// Mean bytes per client.
    pub fn bytes_per_client(&self) -> f64 {
        if self.clients == 0 {
            0.0
        } else {
            self.totals.total() as f64 / self.clients as f64
        }
    }

    /// Download share of this OS's traffic, in percent.
    pub(crate) fn download_percent(&self) -> f64 {
        let total = self.totals.total();
        if total == 0 {
            0.0
        } else {
            self.totals.down_bytes as f64 / total as f64 * 100.0
        }
    }
}

/// Table 3's reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct OsUsageTable {
    /// Rows sorted by 2015 total bytes, descending (the paper's order).
    pub rows: Vec<OsRow>,
    /// The all-OS totals row.
    pub all: OsRow,
}

impl OsUsageTable {
    /// Computes the table from `current` (2015) with growth against
    /// `previous` (2014).
    pub fn compute<Q: FleetQuery>(backend: &Q, current: WindowId, previous: WindowId) -> Self {
        let now = backend.usage_by_os(current);
        let before = backend.usage_by_os(previous);
        let prior = |os: OsFamily| before.iter().find(|r| r.0 == os);
        let mut rows: Vec<OsRow> = now
            .iter()
            .map(|&(os, totals, clients)| {
                let old = prior(os);
                let per_client_now = if clients > 0 {
                    totals.total() as f64 / clients as f64
                } else {
                    0.0
                };
                let per_client_old = old.map(|&(_, t, c)| {
                    if c > 0 {
                        t.total() as f64 / c as f64
                    } else {
                        0.0
                    }
                });
                OsRow {
                    os,
                    totals,
                    clients,
                    bytes_increase: old.and_then(|&(_, t, _)| {
                        percent_increase(t.total() as f64, totals.total() as f64)
                    }),
                    clients_increase: old
                        .and_then(|&(_, _, c)| percent_increase(c as f64, clients as f64)),
                    per_client_increase: per_client_old
                        .and_then(|pc| percent_increase(pc, per_client_now)),
                }
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.totals.total()));

        let sum = |rows: &[(OsFamily, UsageTotals, u64)]| {
            rows.iter()
                .fold((UsageTotals::default(), 0u64), |mut acc, &(_, t, c)| {
                    acc.0.up_bytes += t.up_bytes;
                    acc.0.down_bytes += t.down_bytes;
                    acc.1 += c;
                    acc
                })
        };
        let (now_tot, now_clients) = sum(&now);
        let (old_tot, old_clients) = sum(&before);
        let per_client_now = if now_clients > 0 {
            now_tot.total() as f64 / now_clients as f64
        } else {
            0.0
        };
        let per_client_old = if old_clients > 0 {
            old_tot.total() as f64 / old_clients as f64
        } else {
            0.0
        };
        let all = OsRow {
            os: OsFamily::Unknown, // placeholder, not displayed as a name
            totals: now_tot,
            clients: now_clients,
            bytes_increase: percent_increase(old_tot.total() as f64, now_tot.total() as f64),
            clients_increase: percent_increase(old_clients as f64, now_clients as f64),
            per_client_increase: percent_increase(per_client_old, per_client_now),
        };
        OsUsageTable { rows, all }
    }

    /// The row for one OS, if it appears.
    pub fn row(&self, os: OsFamily) -> Option<&OsRow> {
        self.rows.iter().find(|r| r.os == os)
    }
}

impl fmt::Display for OsUsageTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new([
            "OS",
            "Bytes (% total/% download)",
            "% increase",
            "# clients",
            "% increase",
            "MB / client",
            "% increase",
        ]);
        let total = self.all.totals.total() as f64;
        let mut push = |label: &str, row: &OsRow| {
            let share = percent_of(row.totals.total() as f64, total).unwrap_or(0.0);
            t.row([
                label.to_string(),
                format!(
                    "{} ({:.0}%/{:.0}%)",
                    airstat_stats::summary::fmt_bytes(row.totals.total()),
                    share,
                    row.download_percent()
                ),
                fmt_percent_opt(row.bytes_increase),
                fmt_count(row.clients),
                fmt_percent_opt(row.clients_increase),
                fmt_quantity(bytes_in(row.bytes_per_client() as u64, ByteUnit::Mb)),
                fmt_percent_opt(row.per_client_increase),
            ]);
        };
        for row in &self.rows {
            push(row.os.name(), row);
        }
        push("All", &self.all);
        f.write_str(&t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_classify::apps::Application;
    use airstat_classify::mac::MacAddress;
    use airstat_rf::band::Band;
    use airstat_rf::phy::{Capabilities, Generation};
    use airstat_telemetry::backend::Backend;
    use airstat_telemetry::report::{ClientInfoRecord, Report, ReportPayload, UsageRecord};

    const NOW: WindowId = WindowId(1501);
    const BEFORE: WindowId = WindowId(1401);

    fn mac(n: u8) -> MacAddress {
        MacAddress::new([0, 0, 0, 0, 0, n])
    }

    fn seed_backend() -> Backend {
        let mut b = Backend::new();
        let mut seq = 0u64;
        let mut put = |window, mac_id: u8, os, up, down| {
            seq += 1;
            b.ingest(
                window,
                &Report {
                    device: 1,
                    seq,
                    timestamp_s: 0,
                    payload: ReportPayload::Usage(vec![UsageRecord {
                        mac: mac(mac_id),
                        app: Application::MiscWeb,
                        up_bytes: up,
                        down_bytes: down,
                    }]),
                },
            );
            seq += 1;
            b.ingest(
                window,
                &Report {
                    device: 1,
                    seq,
                    timestamp_s: 0,
                    payload: ReportPayload::ClientInfo(vec![ClientInfoRecord {
                        mac: mac(mac_id),
                        os,
                        caps: Capabilities::new(Generation::N, true, false, 1),
                        band: Band::Ghz2_4,
                        rssi_dbm: -60.0,
                    }]),
                },
            );
        };
        // 2014: one Windows client with 100 bytes.
        put(BEFORE, 1, OsFamily::Windows, 20, 80);
        // 2015: two Windows clients with 300 bytes total, one iOS with 50.
        put(NOW, 1, OsFamily::Windows, 40, 160);
        put(NOW, 2, OsFamily::Windows, 20, 80);
        put(NOW, 3, OsFamily::AppleIos, 5, 45);
        b
    }

    #[test]
    fn rows_sorted_and_growth_computed() {
        let t = OsUsageTable::compute(&seed_backend(), NOW, BEFORE);
        assert_eq!(t.rows[0].os, OsFamily::Windows, "largest first");
        let win = t.row(OsFamily::Windows).unwrap();
        assert_eq!(win.totals.total(), 300);
        assert_eq!(win.clients, 2);
        // 100 -> 300 bytes: +200%.
        assert!((win.bytes_increase.unwrap() - 200.0).abs() < 1e-9);
        // 1 -> 2 clients: +100%.
        assert!((win.clients_increase.unwrap() - 100.0).abs() < 1e-9);
        // 100/1 -> 150/2 MB per client: +50%.
        assert!((win.per_client_increase.unwrap() - 50.0).abs() < 1e-9);
        // iOS is new: no growth numbers.
        let ios = t.row(OsFamily::AppleIos).unwrap();
        assert_eq!(ios.bytes_increase, None);
    }

    #[test]
    fn all_row_sums() {
        let t = OsUsageTable::compute(&seed_backend(), NOW, BEFORE);
        assert_eq!(t.all.totals.total(), 350);
        assert_eq!(t.all.clients, 3);
        // Total growth 100 -> 350 = +250%.
        assert!((t.all.bytes_increase.unwrap() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn shares_and_download() {
        let t = OsUsageTable::compute(&seed_backend(), NOW, BEFORE);
        let win = t.row(OsFamily::Windows).unwrap();
        assert_eq!(win.totals.total(), 300);
        assert!((win.download_percent() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn renders_paper_columns() {
        let t = OsUsageTable::compute(&seed_backend(), NOW, BEFORE);
        let s = t.to_string();
        assert!(s.contains("OS"));
        assert!(s.contains("Windows"));
        assert!(s.contains("Apple iOS"));
        assert!(s.contains("All"));
        assert!(s.contains("% download"));
    }
}
