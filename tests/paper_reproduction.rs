//! End-to-end acceptance tests: does the full pipeline reproduce the
//! paper's *shapes*?
//!
//! One fleet run at 1% scale (≈ 200 networks, 200 radio APs, 55k clients)
//! feeds every assertion; the criteria are the qualitative ones recorded
//! in DESIGN.md — who wins, by roughly what factor, where the crossovers
//! fall — not the absolute numbers of the authors' testbed.

use airstat::classify::apps::{AppCategory, Application};
use airstat::classify::device::OsFamily;
use airstat::core::figures::ChannelCensusFigure;
use airstat::core::tables::categories::CategoryRow;
use airstat::core::tables::top_apps::AppRow;
use airstat::core::tables::{CategoriesTable, TopAppsTable};
use airstat::core::PaperReport;
use airstat::rf::band::Band;
use airstat::sim::{FleetConfig, FleetSimulation};
use std::sync::OnceLock;

fn report() -> &'static (PaperReport, FleetConfig) {
    static REPORT: OnceLock<(PaperReport, FleetConfig)> = OnceLock::new();
    REPORT.get_or_init(|| {
        let config = FleetConfig::paper(0.01);
        let output = FleetSimulation::new(config.clone()).run();
        (PaperReport::from_simulation(&output, &config), config)
    })
}

// ---------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------

/// Table 5's row for `app`.
fn app_row(table: &TopAppsTable, app: Application) -> Option<&AppRow> {
    table.rows.iter().find(|row| row.app == app)
}

/// Table 5's 1-based rank of `app`, if listed.
fn rank(table: &TopAppsTable, app: Application) -> Option<usize> {
    table
        .rows
        .iter()
        .position(|row| row.app == app)
        .map(|i| i + 1)
}

/// Table 6's row for `category`.
fn category_row(table: &CategoriesTable, category: AppCategory) -> Option<&CategoryRow> {
    table.rows.iter().find(|row| row.category == category)
}

/// Figure 2's count on one 2.4 GHz channel.
fn on_2_4(figure: &ChannelCensusFigure, channel: u16) -> u64 {
    figure
        .counts_2_4
        .iter()
        .find(|&&(c, _)| c == channel)
        .map_or(0, |&(_, n)| n)
}

#[test]
fn table2_industry_mix() {
    let (r, config) = report();
    assert_eq!(r.table2.total(), config.usage_networks());
    // No single vertical holds a majority: the paper's panel "is not
    // dominated by one particular industry".
    assert!(r.table2.rows.iter().all(|&(_, c)| c * 2 < r.table2.total()));
    // Education is the largest named vertical (~19.7% of networks).
    let education = r
        .table2
        .rows
        .iter()
        .find(|(i, _)| i.name() == "Education")
        .unwrap()
        .1;
    let share = f64::from(education) / f64::from(r.table2.total());
    assert!((share - 0.197).abs() < 0.06, "education share {share}");
}

// ---------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------

#[test]
fn table3_client_population_grew_37_percent() {
    let (r, _) = report();
    let growth = r.table3.all.clients_increase.unwrap();
    assert!((growth - 37.0).abs() < 8.0, "client growth {growth}%");
}

#[test]
fn table3_usage_grew_faster_than_clients() {
    let (r, _) = report();
    let bytes = r.table3.all.bytes_increase.unwrap();
    let clients = r.table3.all.clients_increase.unwrap();
    // Paper: +62% bytes vs +37% clients (+18% per client).
    assert!(bytes > clients, "bytes {bytes}% vs clients {clients}%");
    assert!((bytes - 62.0).abs() < 25.0, "byte growth {bytes}%");
}

#[test]
fn table3_ios_clients_triple_windows_but_bytes_comparable() {
    let (r, _) = report();
    let ios = r.table3.row(OsFamily::AppleIos).unwrap();
    let win = r.table3.row(OsFamily::Windows).unwrap();
    let client_ratio = ios.clients as f64 / win.clients as f64;
    assert!(
        (client_ratio - 3.1).abs() < 0.6,
        "client ratio {client_ratio}"
    );
    let byte_ratio = ios.totals.total() as f64 / win.totals.total() as f64;
    assert!(
        byte_ratio > 0.55 && byte_ratio < 1.7,
        "iOS/Windows byte ratio {byte_ratio} (paper ≈ 0.93)"
    );
}

#[test]
fn table3_desktops_use_several_times_more_per_client() {
    let (r, _) = report();
    let win = r.table3.row(OsFamily::Windows).unwrap().bytes_per_client();
    let osx = r.table3.row(OsFamily::MacOsX).unwrap().bytes_per_client();
    let ios = r.table3.row(OsFamily::AppleIos).unwrap().bytes_per_client();
    let android = r.table3.row(OsFamily::Android).unwrap().bytes_per_client();
    assert!(win > 2.0 * ios, "windows {win} vs ios {ios}");
    assert!(osx > 1.5 * win, "paper: OS X ≈ 2x Windows per client");
    assert!(android < ios, "android lightest of the big four");
}

#[test]
fn table3_mobile_download_ratio_far_higher() {
    let (r, _) = report();
    let ios = r.table3.row(OsFamily::AppleIos).unwrap();
    let osx = r.table3.row(OsFamily::MacOsX).unwrap();
    // Paper: mobile ≈ 9x down/up, OS X ≈ 3x.
    let ios_ratio = ios.totals.down_bytes as f64 / ios.totals.up_bytes.max(1) as f64;
    let osx_ratio = osx.totals.down_bytes as f64 / osx.totals.up_bytes.max(1) as f64;
    assert!(ios_ratio > 5.0, "iOS down/up {ios_ratio}");
    assert!(osx_ratio < ios_ratio, "desktops more balanced: {osx_ratio}");
}

#[test]
fn table3_unknown_row_shrinks() {
    let (r, _) = report();
    let unknown = r.table3.row(OsFamily::Unknown).unwrap();
    // Paper: Unknown clients fell 8.9% while the fleet grew 37%.
    assert!(
        unknown.clients_increase.unwrap() < 10.0,
        "unknown row must not track fleet growth: {:?}",
        unknown.clients_increase
    );
    // And it is a modest share of all clients (paper: ~4%).
    let share = unknown.clients as f64 / r.table3.all.clients as f64;
    assert!(share < 0.12, "unknown share {share}");
}

// ---------------------------------------------------------------------
// Table 4
// ---------------------------------------------------------------------

#[test]
fn table4_capability_evolution() {
    let (r, _) = report();
    let rows = r.table4.rows();
    let get = |label: &str| {
        rows.iter()
            .find(|(l, _, _)| *l == label)
            .map(|&(_, b, a)| (b, a))
            .unwrap()
    };
    let (ac14, ac15) = get("802.11ac");
    assert!(ac14 < 0.08, "2014 ac {ac14}");
    assert!((ac15 - 0.18).abs() < 0.06, "2015 ac {ac15}");
    let (dual14, dual15) = get("5 GHz");
    assert!(dual15 > dual14 + 0.08, "5 GHz grew {dual14} -> {dual15}");
    assert!((dual15 - 0.649).abs() < 0.08);
    let (forty14, forty15) = get("40 MHz channels");
    assert!(
        forty15 > 2.0 * forty14,
        "40 MHz tripled: {forty14} -> {forty15}"
    );
    let (g14, g15) = get("802.11g");
    assert!(g14 > 0.99 && g15 > 0.99);
}

// ---------------------------------------------------------------------
// Tables 5 and 6
// ---------------------------------------------------------------------

#[test]
fn table5_misc_web_dominates() {
    let (r, _) = report();
    assert_eq!(r.table5.rows[0].app, Application::MiscWeb);
    let misc = app_row(&r.table5, Application::MiscWeb).unwrap();
    let share = misc.totals.total() as f64 / r.table5.grand_total as f64 * 100.0;
    assert!(share > 10.0 && share < 35.0, "misc web share {share}%");
}

#[test]
fn table5_heavy_hitters_present_in_top_ranks() {
    let (r, _) = report();
    for app in [
        Application::Youtube,
        Application::Netflix,
        Application::NonWebTcp,
        Application::MiscSecureWeb,
        Application::Itunes,
    ] {
        let rank = rank(&r.table5, app);
        assert!(
            rank.is_some_and(|k| k <= 10),
            "{app:?} should rank in the top 10, got {rank:?}"
        );
    }
}

#[test]
fn table5_dropcam_anomaly() {
    let (r, _) = report();
    // Dropcam: fewest clients in the top 40 but huge per-client usage,
    // upload dominated (paper: ~19x more up than down).
    if let Some(row) = app_row(&r.table5, Application::Dropcam) {
        assert!(
            row.download_percent() < 20.0,
            "dropcam down% {}",
            row.download_percent()
        );
        let max_per_client = r
            .table5
            .rows
            .iter()
            .map(|x| x.bytes_per_client())
            .fold(0.0, f64::max);
        assert!(
            row.bytes_per_client() > max_per_client * 0.3,
            "dropcam per-client usage must be near the top"
        );
    }
}

#[test]
fn table5_streaming_is_download_dominated() {
    let (r, _) = report();
    for app in [
        Application::Netflix,
        Application::Youtube,
        Application::Itunes,
    ] {
        let row = app_row(&r.table5, app).unwrap();
        assert!(
            row.download_percent() > 90.0,
            "{app:?} {}",
            row.download_percent()
        );
    }
}

#[test]
fn table6_category_ordering() {
    let (r, _) = report();
    // Paper: Other 47%, Video & music 34%, File sharing 8.4%.
    assert_eq!(r.table6.rows[0].category, AppCategory::Other);
    assert_eq!(r.table6.rows[1].category, AppCategory::VideoMusic);
    let share = |category| {
        let row = category_row(&r.table6, category).unwrap();
        row.totals.total() as f64 / r.table6.grand_total() as f64 * 100.0
    };
    let other = share(AppCategory::Other);
    let video = share(AppCategory::VideoMusic);
    let files = share(AppCategory::FileSharing);
    assert!((other - 47.0).abs() < 10.0, "other {other}%");
    assert!((video - 34.0).abs() < 10.0, "video {video}%");
    assert!((files - 8.4).abs() < 5.0, "file sharing {files}%");
}

#[test]
fn table6_direction_extremes() {
    let (r, _) = report();
    // Online backup: uploads dominate (paper: 22.8x up).
    let backup = category_row(&r.table6, AppCategory::OnlineBackup).unwrap();
    assert!(
        (backup.totals.down_bytes as f64) < backup.totals.up_bytes as f64 * 0.5,
        "backup should upload"
    );
    // Video: ~97% download.
    let video = category_row(&r.table6, AppCategory::VideoMusic).unwrap();
    assert!(video.download_percent() > 90.0);
    // File sharing is balanced relative to video.
    let files = category_row(&r.table6, AppCategory::FileSharing).unwrap();
    assert!(files.download_percent() < 80.0);
    // Overall ≈ 4.6x more downstream.
    let up: u64 = r.table6.rows.iter().map(|row| row.totals.up_bytes).sum();
    let down: u64 = r.table6.rows.iter().map(|row| row.totals.down_bytes).sum();
    let overall = down as f64 / up as f64;
    assert!(overall > 2.5 && overall < 8.0, "overall down/up {overall}");
}

// ---------------------------------------------------------------------
// Table 7 + Figure 2
// ---------------------------------------------------------------------

#[test]
fn table7_neighbour_growth() {
    let (r, _) = report();
    let t = &r.table7;
    assert!(
        (t.now_2_4.per_ap - 55.47).abs() < 14.0,
        "2.4 now {}",
        t.now_2_4.per_ap
    );
    assert!(
        (t.before_2_4.per_ap - 28.60).abs() < 8.0,
        "2.4 before {}",
        t.before_2_4.per_ap
    );
    let growth = t.now_2_4.per_ap / t.before_2_4.per_ap;
    assert!((growth - 1.94).abs() < 0.4, "growth factor {growth}");
    assert!(
        (t.now_5.per_ap - 3.68).abs() < 1.2,
        "5 now {}",
        t.now_5.per_ap
    );
    assert!(t.now_5.per_ap > t.before_5.per_ap);
    let hotspots = t.now_2_4.hotspots as f64 / t.now_2_4.total_networks as f64;
    assert!((hotspots - 0.20).abs() < 0.05, "hotspot share {hotspots}");
}

#[test]
fn figure2_channel_placement() {
    let (r, _) = report();
    let f = &r.figure2;
    let ratio = on_2_4(f, 1) as f64 / on_2_4(f, 6) as f64;
    assert!((ratio - 1.37).abs() < 0.25, "ch1/ch6 {ratio}");
    assert!(f.primary_fraction_2_4() > 0.8, "mass on 1/6/11");
    assert!(f.dfs_fraction_5() < 0.15, "DFS channels barely used");
}

// ---------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------

#[test]
fn figure1_band_split_and_snr() {
    let (r, _) = report();
    let f = &r.figure1;
    // Paper: ~80% of associated clients on 2.4 GHz.
    let frac = f.fraction_on_2_4();
    assert!((frac - 0.80).abs() < 0.08, "2.4 GHz fraction {frac}");
    // Median ≈ 28 dB above the floor, 5 GHz a bit lower.
    let snr24 = f.median_snr_db(Band::Ghz2_4).unwrap();
    let snr5 = f.median_snr_db(Band::Ghz5).unwrap();
    assert!((snr24 - 28.0).abs() < 8.0, "2.4 GHz median SNR {snr24}");
    assert!(snr5 > 10.0 && snr5 < 45.0, "5 GHz median SNR {snr5}");
}

// ---------------------------------------------------------------------
// Figures 3–5
// ---------------------------------------------------------------------

#[test]
fn figure3_link_population_shape() {
    let (r, _) = report();
    let f = &r.figure3;
    // Far more 2.4 GHz links than 5 GHz (paper: 16,583 vs 5,650).
    let ratio = f.now_2_4.len() as f64 / f.now_5.len().max(1) as f64;
    assert!(ratio > 1.35, "2.4/5 link ratio {ratio}");
    // Majority of 2.4 GHz links intermediate; 5 GHz more bimodal.
    let inter24 =
        airstat::core::figures::DeliveryFigure::intermediate_fraction(&f.now_2_4, 0.05, 0.95);
    assert!(inter24 > 0.5, "2.4 GHz intermediate fraction {inter24}");
    // Over half of 5 GHz links deliver essentially everything (the
    // residual loss is the receiver's own airtime; the paper's "all
    // broadcasts" is a per-window snapshot).
    let perfect5 = 1.0 - f.now_5.fraction_at_or_below(0.899);
    assert!(perfect5 > 0.45, "5 GHz near-perfect fraction {perfect5}");
    // And the 5 GHz population is cleaner than 2.4 GHz overall.
    assert!(f.now_5.median().unwrap() > f.now_2_4.median().unwrap());
    // Degradation over six months at 2.4 GHz.
    assert!(f.now_2_4.median().unwrap() < f.before_2_4.median().unwrap());
}

#[test]
fn figures4_5_sample_links_vary() {
    let (r, _) = report();
    assert_eq!(r.figure4.band, Band::Ghz2_4);
    assert!(!r.figure4.series.is_empty());
    for s in &r.figure4.series {
        assert!(s.points.len() > 100, "a week of hourly points");
        assert!(s.swing() > 0.1, "2.4 GHz links vary over time");
    }
    assert!(!r.figure5.series.is_empty());
}

// ---------------------------------------------------------------------
// Figures 6–10
// ---------------------------------------------------------------------

#[test]
fn figure6_utilization_quantiles() {
    let (r, _) = report();
    let (median24, p90_24) = r.figure6.summary(Band::Ghz2_4).unwrap();
    let (median5, p90_5) = r.figure6.summary(Band::Ghz5).unwrap();
    assert!((median24 - 0.25).abs() < 0.10, "2.4 median {median24}");
    assert!((p90_24 - 0.50).abs() < 0.18, "2.4 p90 {p90_24}");
    assert!((median5 - 0.05).abs() < 0.06, "5 median {median5}");
    assert!(p90_5 < 0.45, "5 p90 {p90_5}");
    assert!(median24 > 2.0 * median5);
}

#[test]
fn figures7_8_no_clear_correlation() {
    let (r, _) = report();
    assert!(
        r.figure7.no_clear_correlation(0.5),
        "2.4 GHz r={:?} rho={:?}",
        r.figure7.pearson_r,
        r.figure7.spearman_rho
    );
    assert!(
        r.figure8.no_clear_correlation(0.5),
        "5 GHz r={:?} rho={:?}",
        r.figure8.pearson_r,
        r.figure8.spearman_rho
    );
    assert!(!r.figure7.points.is_empty());
}

#[test]
fn figure9_day_night_gap() {
    let (r, _) = report();
    // 2.4 GHz: a few points more utilization by day (paper: ~5 pts at the
    // median). The scanner's view includes idle channels, so the mean gap
    // is the robust statistic at small scale.
    let gap24 = r.figure9_2_4.mean_gap_points().unwrap();
    assert!(
        gap24 > 0.5 && gap24 < 15.0,
        "2.4 GHz day-night gap {gap24} pts"
    );
    // 5 GHz: similar day and night.
    let gap5 = r.figure9_5.mean_gap_points().unwrap();
    assert!(gap5.abs() < 4.0, "5 GHz gap {gap5} pts");
    // Scanner view sits below the serving-radio view (Figure 6 vs 9).
    let (serving_median, _) = r.figure6.summary(Band::Ghz2_4).unwrap();
    let scanner_median = r.figure9_2_4.day.median().unwrap();
    assert!(
        scanner_median < serving_median,
        "scanner {scanner_median} must be below serving {serving_median} (§5.2)"
    );
}

#[test]
fn figure10_majority_decodable() {
    let (r, _) = report();
    assert_eq!(r.figure10.majority_decodable(Band::Ghz2_4), Some(true));
    let median = r.figure10.decodable_2_4.median().unwrap();
    assert!(median > 0.6, "2.4 GHz decodable median {median}");
}

// ---------------------------------------------------------------------
// Figure 11
// ---------------------------------------------------------------------

#[test]
fn figure11_spectrum_occupancy() {
    let (r, _) = report();
    let o24 = r.figure11.occupancy_2_4();
    let o5 = r.figure11.occupancy_5();
    assert!(o24 > 0.03 && o24 < 0.5, "2.4 GHz occupancy {o24}");
    assert!(o5 < o24 / 3.0, "5 GHz much quieter: {o5} vs {o24}");
}

// ---------------------------------------------------------------------
// Pipeline integrity
// ---------------------------------------------------------------------

#[test]
fn full_report_renders() {
    let (r, _) = report();
    let s = r.to_string();
    assert!(
        s.len() > 5_000,
        "report should be substantial: {} bytes",
        s.len()
    );
    assert!(s.contains("Netflix"));
    assert!(s.contains("802.11ac"));
    assert!(s.contains("Pearson"));
}
