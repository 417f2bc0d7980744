//! Table 5: top applications by bytes transferred.

use airstat_classify::apps::Application;
use airstat_stats::summary::{
    bytes_in, fmt_bytes, fmt_count, fmt_percent_opt, fmt_quantity, percent_increase, percent_of,
    ByteUnit,
};
use airstat_store::FleetQuery;
use airstat_telemetry::backend::{UsageTotals, WindowId};
use std::fmt;

use crate::render::TextTable;

/// One application row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppRow {
    /// The application (as classified by the edge ruleset).
    pub app: Application,
    /// Current-window totals.
    pub totals: UsageTotals,
    /// Distinct clients using the app.
    pub clients: u64,
    /// Year-over-year byte growth in percent.
    pub bytes_increase: Option<f64>,
    /// Year-over-year client growth in percent.
    pub clients_increase: Option<f64>,
}

impl AppRow {
    /// Mean bytes per participating client.
    pub fn bytes_per_client(&self) -> f64 {
        if self.clients == 0 {
            0.0
        } else {
            self.totals.total() as f64 / self.clients as f64
        }
    }

    /// Download share in percent.
    pub fn download_percent(&self) -> f64 {
        let total = self.totals.total();
        if total == 0 {
            0.0
        } else {
            self.totals.down_bytes as f64 / total as f64 * 100.0
        }
    }
}

/// Table 5's reproduction: the top `limit` applications by total bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct TopAppsTable {
    /// Rows sorted by total bytes, descending.
    pub rows: Vec<AppRow>,
    /// Total bytes across *all* applications (denominator for shares).
    pub grand_total: u64,
}

impl TopAppsTable {
    /// The paper's cut: top 40.
    pub const PAPER_LIMIT: usize = 40;

    /// Computes the table from `current`, with growth against `previous`.
    pub(crate) fn compute<Q: FleetQuery>(
        backend: &Q,
        current: WindowId,
        previous: WindowId,
        limit: usize,
    ) -> Self {
        let now = backend.usage_by_app(current);
        let before = backend.usage_by_app(previous);
        let grand_total: u64 = now.iter().map(|r| r.1.total()).sum();
        let mut rows: Vec<AppRow> = now
            .iter()
            .map(|&(app, totals, clients)| {
                let old = before.iter().find(|r| r.0 == app);
                AppRow {
                    app,
                    totals,
                    clients,
                    bytes_increase: old.and_then(|&(_, t, _)| {
                        percent_increase(t.total() as f64, totals.total() as f64)
                    }),
                    clients_increase: old
                        .and_then(|&(_, _, c)| percent_increase(c as f64, clients as f64)),
                }
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.totals.total()));
        rows.truncate(limit);
        TopAppsTable { rows, grand_total }
    }
}

impl fmt::Display for TopAppsTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new([
            "Application",
            "Category",
            "Bytes (% total/% down)",
            "% incr",
            "# clients",
            "% incr",
            "MB / client",
        ]);
        for row in &self.rows {
            let share =
                percent_of(row.totals.total() as f64, self.grand_total as f64).unwrap_or(0.0);
            t.row([
                row.app.name().to_string(),
                row.app.category().name().to_string(),
                format!(
                    "{} ({:.1}%/{:.0}%)",
                    fmt_bytes(row.totals.total()),
                    share,
                    row.download_percent()
                ),
                fmt_percent_opt(row.bytes_increase),
                fmt_count(row.clients),
                fmt_percent_opt(row.clients_increase),
                fmt_quantity(bytes_in(row.bytes_per_client() as u64, ByteUnit::Mb)),
            ]);
        }
        f.write_str(&t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_classify::mac::MacAddress;
    use airstat_telemetry::backend::Backend;
    use airstat_telemetry::report::{Report, ReportPayload, UsageRecord};

    const NOW: WindowId = WindowId(1501);

    fn row(t: &TopAppsTable, app: Application) -> Option<&AppRow> {
        t.rows.iter().find(|r| r.app == app)
    }
    const BEFORE: WindowId = WindowId(1401);

    fn backend() -> Backend {
        let mut b = Backend::new();
        let mut seq = 0;
        let mut put = |window, mac_id: u8, app, bytes: u64| {
            seq += 1;
            b.ingest(
                window,
                &Report {
                    device: 1,
                    seq,
                    timestamp_s: 0,
                    payload: ReportPayload::Usage(vec![UsageRecord {
                        mac: MacAddress::new([0, 0, 0, 0, 0, mac_id]),
                        app,
                        up_bytes: bytes / 10,
                        down_bytes: bytes - bytes / 10,
                    }]),
                },
            );
        };
        put(BEFORE, 1, Application::Youtube, 100);
        put(NOW, 1, Application::Youtube, 176);
        put(NOW, 2, Application::Youtube, 24);
        put(NOW, 1, Application::Netflix, 300);
        put(NOW, 3, Application::Dropcam, 50);
        b
    }

    #[test]
    fn sorted_by_bytes_and_limited() {
        let t = TopAppsTable::compute(&backend(), NOW, BEFORE, 2);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0].app, Application::Netflix);
        assert_eq!(t.rows[1].app, Application::Youtube);
        assert!(
            t.rows.iter().all(|r| r.app != Application::Dropcam),
            "cut by limit"
        );
        // Grand total still counts everything.
        assert_eq!(t.grand_total, 550);
    }

    #[test]
    fn growth_against_previous_window() {
        let t = TopAppsTable::compute(&backend(), NOW, BEFORE, 10);
        let yt = row(&t, Application::Youtube).unwrap();
        // 100 -> 200 bytes: +100%.
        assert!((yt.bytes_increase.unwrap() - 100.0).abs() < 1e-9);
        // 1 -> 2 clients.
        assert!((yt.clients_increase.unwrap() - 100.0).abs() < 1e-9);
        // Netflix is new: no growth cell.
        assert_eq!(row(&t, Application::Netflix).unwrap().bytes_increase, None);
    }

    #[test]
    fn shares_and_per_client() {
        let t = TopAppsTable::compute(&backend(), NOW, BEFORE, 10);
        assert_eq!(row(&t, Application::Netflix).unwrap().totals.total(), 300);
        assert_eq!(t.grand_total, 550);
        let yt = row(&t, Application::Youtube).unwrap();
        assert!((yt.bytes_per_client() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn renders_names_and_categories() {
        let t = TopAppsTable::compute(&backend(), NOW, BEFORE, 10);
        let s = t.to_string();
        assert!(s.contains("Netflix"));
        assert!(s.contains("Video & music"));
        assert!(s.contains("Dropcam"));
        assert!(s.contains("VoIP & video conferencing"));
    }
}
