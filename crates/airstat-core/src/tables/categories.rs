//! Table 6: usage by application category.

use airstat_classify::apps::AppCategory;
use airstat_stats::summary::{
    bytes_in, fmt_bytes, fmt_count, fmt_percent_opt, fmt_quantity, percent_increase, percent_of,
    ByteUnit,
};
use airstat_store::FleetQuery;
use airstat_telemetry::backend::{UsageTotals, WindowId};
use std::collections::BTreeMap;
use std::fmt;

use crate::render::TextTable;

/// One category row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryRow {
    /// The category.
    pub category: AppCategory,
    /// Current-window totals.
    pub totals: UsageTotals,
    /// Distinct clients using any app in the category.
    pub clients: u64,
    /// Year-over-year byte growth in percent.
    pub bytes_increase: Option<f64>,
}

impl CategoryRow {
    /// Download share in percent.
    pub fn download_percent(&self) -> f64 {
        let total = self.totals.total();
        if total == 0 {
            0.0
        } else {
            self.totals.down_bytes as f64 / total as f64 * 100.0
        }
    }

    /// Mean bytes per participating client.
    pub(crate) fn bytes_per_client(&self) -> f64 {
        if self.clients == 0 {
            0.0
        } else {
            self.totals.total() as f64 / self.clients as f64
        }
    }
}

/// Table 6's reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoriesTable {
    /// Rows sorted by total bytes, descending (the paper's order).
    pub rows: Vec<CategoryRow>,
}

/// Category aggregation of one window: `(totals, client rows)`.
///
/// Client counts are summed over the category's applications, so a client
/// using two apps of one category counts twice — the same convention the
/// paper's backend used (it aggregates distinct `(client, app)` pairs).
fn aggregate<Q: FleetQuery>(
    backend: &Q,
    window: WindowId,
) -> BTreeMap<AppCategory, (UsageTotals, u64)> {
    let mut agg: BTreeMap<AppCategory, (UsageTotals, u64)> = BTreeMap::new();
    for (app, totals, clients) in backend.usage_by_app(window) {
        let slot = agg.entry(app.category()).or_default();
        slot.0.up_bytes += totals.up_bytes;
        slot.0.down_bytes += totals.down_bytes;
        slot.1 += clients;
    }
    agg
}

impl CategoriesTable {
    /// Computes the table with growth against `previous`.
    pub(crate) fn compute<Q: FleetQuery>(
        backend: &Q,
        current: WindowId,
        previous: WindowId,
    ) -> Self {
        let now = aggregate(backend, current);
        let before = aggregate(backend, previous);
        let mut rows: Vec<CategoryRow> = now
            .into_iter()
            .map(|(category, (totals, clients))| {
                let old = before.get(&category);
                CategoryRow {
                    category,
                    totals,
                    clients,
                    bytes_increase: old.and_then(|(t, _)| {
                        percent_increase(t.total() as f64, totals.total() as f64)
                    }),
                }
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.totals.total()));
        CategoriesTable { rows }
    }

    /// Total bytes across all categories.
    pub fn grand_total(&self) -> u64 {
        self.rows.iter().map(|r| r.totals.total()).sum()
    }
}

impl fmt::Display for CategoriesTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.grand_total() as f64;
        let mut t = TextTable::new([
            "Category",
            "Bytes (% total/% down)",
            "% incr",
            "# clients",
            "MB / client",
        ]);
        for row in &self.rows {
            let share = percent_of(row.totals.total() as f64, total).unwrap_or(0.0);
            t.row([
                row.category.name().to_string(),
                format!(
                    "{} ({:.1}%/{:.0}%)",
                    fmt_bytes(row.totals.total()),
                    share,
                    row.download_percent()
                ),
                fmt_percent_opt(row.bytes_increase),
                fmt_count(row.clients),
                fmt_quantity(bytes_in(row.bytes_per_client() as u64, ByteUnit::Mb)),
            ]);
        }
        f.write_str(&t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_classify::apps::Application;
    use airstat_classify::mac::MacAddress;
    use airstat_telemetry::backend::Backend;
    use airstat_telemetry::report::{Report, ReportPayload, UsageRecord};

    fn row(t: &CategoriesTable, category: AppCategory) -> Option<&CategoryRow> {
        t.rows.iter().find(|r| r.category == category)
    }

    const NOW: WindowId = WindowId(1501);
    const BEFORE: WindowId = WindowId(1401);

    fn backend() -> Backend {
        let mut b = Backend::new();
        let mut seq = 0;
        let mut put = |window, mac_id: u8, app, up: u64, down: u64| {
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
                        up_bytes: up,
                        down_bytes: down,
                    }]),
                },
            );
        };
        // Video & music: YouTube + Netflix from two clients.
        put(NOW, 1, Application::Youtube, 10, 190);
        put(NOW, 2, Application::Netflix, 10, 290);
        // Online backup: one heavy uploader.
        put(NOW, 3, Application::Backblaze, 200, 10);
        put(BEFORE, 1, Application::Youtube, 10, 90);
        b
    }

    #[test]
    fn rollup_by_category() {
        let t = CategoriesTable::compute(&backend(), NOW, BEFORE);
        let video = row(&t, AppCategory::VideoMusic).unwrap();
        assert_eq!(video.totals.total(), 500);
        assert_eq!(video.clients, 2);
        let backup = row(&t, AppCategory::OnlineBackup).unwrap();
        assert_eq!(backup.totals.total(), 210);
        // Upload-dominated.
        assert!(backup.totals.down_bytes * 10 < backup.totals.up_bytes);
        // Video grew 100 -> 500.
        assert!((video.bytes_increase.unwrap() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn ordering_and_shares() {
        let t = CategoriesTable::compute(&backend(), NOW, BEFORE);
        assert_eq!(t.rows[0].category, AppCategory::VideoMusic);
        assert_eq!(t.grand_total(), 710);
    }

    #[test]
    fn renders_category_names() {
        let t = CategoriesTable::compute(&backend(), NOW, BEFORE);
        let s = t.to_string();
        assert!(s.contains("Video & music"));
        assert!(s.contains("Online backup"));
    }
}
