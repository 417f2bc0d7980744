//! End-to-end acceptance tests: does the full pipeline reproduce the
//! paper's *shapes*?
//!
//! One fleet run at 1% scale (≈ 200 networks, 200 radio APs, 55k clients)
//! feeds every assertion; the criteria are the qualitative ones recorded
//! in DESIGN.md — who wins, by roughly what factor, where the crossovers
//! fall — not the absolute numbers of the authors' testbed. Every value
//! compared with a published number is a row of the shared scorecard
//! (`tests/scorecard/mod.rs`), held to that row's bound; orderings,
//! equalities and render checks are plain asserts.

use airstat::classify::apps::{AppCategory, Application};
use airstat::classify::device::OsFamily;
use airstat::core::PaperReport;
use airstat::rf::band::Band;
use airstat::sim::{FleetConfig, FleetSimulation};
use std::sync::OnceLock;

mod scorecard;
use scorecard::{find, scorecard};

fn report() -> &'static (PaperReport, FleetConfig) {
    static REPORT: OnceLock<(PaperReport, FleetConfig)> = OnceLock::new();
    REPORT.get_or_init(|| {
        let config = FleetConfig::paper(0.01);
        let output = FleetSimulation::new(config.clone()).run();
        (PaperReport::from_simulation(&output, &config), config)
    })
}

/// Holds each named scorecard row to its own bound; the failure names
/// every row outside it.
fn assert_rows(ids: &[&str]) {
    let rows = scorecard(&report().0);
    let failures: Vec<String> = ids
        .iter()
        .filter_map(|id| {
            let row = find(&rows, id);
            row.check(row.bound).err()
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

// ---------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------

#[test]
fn table2_industry_mix() {
    let (r, config) = report();
    assert_eq!(r.table2.total(), config.usage_networks());
    // No single vertical holds a majority: the paper's panel "is not
    // dominated by one particular industry". Education is the largest
    // named vertical.
    assert_rows(&["table2.largest_vertical_share", "table2.education_share"]);
}

// ---------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------

#[test]
fn table3_client_population_grew_37_percent() {
    assert_rows(&["table3.clients_yoy_pct"]);
}

#[test]
fn table3_usage_grew_faster_than_clients() {
    let (r, _) = report();
    let bytes = r.table3.all.bytes_increase.unwrap();
    let clients = r.table3.all.clients_increase.unwrap();
    // Paper: +62% bytes vs +37% clients (+18% per client).
    assert!(bytes > clients, "bytes {bytes}% vs clients {clients}%");
    assert_rows(&["table3.bytes_yoy_pct"]);
}

#[test]
fn table3_ios_clients_triple_windows_but_bytes_comparable() {
    assert_rows(&[
        "table3.ios_per_windows_clients",
        "table3.ios_per_windows_bytes",
    ]);
}

#[test]
fn table3_desktops_use_several_times_more_per_client() {
    let (r, _) = report();
    let ios = r.table3.row(OsFamily::AppleIos).unwrap().bytes_per_client();
    let android = r.table3.row(OsFamily::Android).unwrap().bytes_per_client();
    assert!(android < ios, "android lightest of the big four");
    assert_rows(&[
        "table3.windows_per_ios_per_client",
        "table3.osx_per_windows_per_client",
    ]);
}

#[test]
fn table3_mobile_download_ratio_far_higher() {
    let (r, _) = report();
    let ios = r.table3.row(OsFamily::AppleIos).unwrap();
    let osx = r.table3.row(OsFamily::MacOsX).unwrap();
    // Paper: mobile ≈ 9x down/up, OS X ≈ 3x.
    let ios_ratio = ios.totals.down_bytes as f64 / ios.totals.up_bytes.max(1) as f64;
    let osx_ratio = osx.totals.down_bytes as f64 / osx.totals.up_bytes.max(1) as f64;
    assert!(osx_ratio < ios_ratio, "desktops more balanced: {osx_ratio}");
    assert_rows(&["table3.ios_down_per_up"]);
}

#[test]
fn table3_unknown_row_shrinks() {
    // Paper: Unknown clients fell 8.9% while the fleet grew 37%, and
    // they are a modest share of all clients (~4%).
    assert_rows(&[
        "table3.unknown_clients_yoy_pct",
        "table3.unknown_client_share",
    ]);
}

// ---------------------------------------------------------------------
// Table 4
// ---------------------------------------------------------------------

#[test]
fn table4_capability_evolution() {
    assert_rows(&[
        "table4.ac_2014",
        "table4.ac_2015",
        "table4.five_ghz_gain",
        "table4.five_ghz_2015",
        "table4.forty_mhz_growth",
        "table4.g_2014",
        "table4.g_2015",
    ]);
}

// ---------------------------------------------------------------------
// Tables 5 and 6
// ---------------------------------------------------------------------

#[test]
fn table5_misc_web_dominates() {
    let (r, _) = report();
    assert_eq!(r.table5.rows[0].app, Application::MiscWeb);
    assert_rows(&["table5.misc_web_share_pct"]);
}

#[test]
fn table5_heavy_hitters_present_in_top_ranks() {
    assert_rows(&[
        "table5.youtube_rank",
        "table5.netflix_rank",
        "table5.non_web_tcp_rank",
        "table5.misc_secure_web_rank",
        "table5.itunes_rank",
    ]);
}

#[test]
fn table5_dropcam_anomaly() {
    // Dropcam: fewest clients in the top 40 but huge per-client usage,
    // upload dominated.
    assert_rows(&[
        "table5.dropcam_down_pct",
        "table5.dropcam_per_client_vs_top",
    ]);
}

#[test]
fn table5_streaming_is_download_dominated() {
    assert_rows(&[
        "table5.netflix_down_pct",
        "table5.youtube_down_pct",
        "table5.itunes_down_pct",
    ]);
}

#[test]
fn table6_category_ordering() {
    let (r, _) = report();
    assert_eq!(r.table6.rows[0].category, AppCategory::Other);
    assert_eq!(r.table6.rows[1].category, AppCategory::VideoMusic);
    assert_rows(&[
        "table6.other_share_pct",
        "table6.video_music_share_pct",
        "table6.file_sharing_share_pct",
    ]);
}

#[test]
fn table6_direction_extremes() {
    // Online backup uploads; video downloads; file sharing is balanced
    // relative to video; overall far more downstream.
    assert_rows(&[
        "table6.backup_down_per_up",
        "table6.video_music_down_pct",
        "table6.file_sharing_down_pct",
        "table6.down_per_up",
    ]);
}

// ---------------------------------------------------------------------
// Table 7 + Figure 2
// ---------------------------------------------------------------------

#[test]
fn table7_neighbour_growth() {
    let (r, _) = report();
    assert!(r.table7.now_5.per_ap > r.table7.before_5.per_ap);
    assert_rows(&[
        "table7.per_ap_2_4_now",
        "table7.per_ap_2_4_before",
        "table7.growth_2_4",
        "table7.per_ap_5_now",
        "table7.hotspot_share_2_4",
    ]);
}

#[test]
fn figure2_channel_placement() {
    // Channel 1 leads 6; mass on 1/6/11; DFS channels barely used.
    assert_rows(&[
        "figure2.ch1_per_ch6",
        "figure2.primary_share_2_4",
        "figure2.dfs_share_5",
    ]);
}

// ---------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------

#[test]
fn figure1_band_split_and_snr() {
    // Paper: ~80% of associated clients on 2.4 GHz; median ≈ 28 dB above
    // the floor, 5 GHz a bit lower.
    assert_rows(&[
        "figure1.share_on_2_4",
        "figure1.median_snr_db_2_4",
        "figure1.median_snr_db_5",
    ]);
}

// ---------------------------------------------------------------------
// Figures 3–5
// ---------------------------------------------------------------------

#[test]
fn figure3_link_population_shape() {
    let (r, _) = report();
    let f = &r.figure3;
    // Far more 2.4 GHz links than 5 GHz; the majority of 2.4 GHz links
    // intermediate; over half of 5 GHz links deliver essentially
    // everything (the residual loss is the receiver's own airtime; the
    // paper's "all broadcasts" is a per-window snapshot).
    assert_rows(&[
        "figure3.links_2_4_per_5",
        "figure3.intermediate_share_2_4",
        "figure3.near_perfect_share_5",
    ]);
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
    }
    // 2.4 GHz links vary over time.
    assert_rows(&["figure4.min_swing_2_4"]);
    assert!(!r.figure5.series.is_empty());
}

// ---------------------------------------------------------------------
// Figures 6–10
// ---------------------------------------------------------------------

#[test]
fn figure6_utilization_quantiles() {
    assert_rows(&[
        "figure6.median_2_4",
        "figure6.p90_2_4",
        "figure6.median_5",
        "figure6.p90_5",
        "figure6.median_2_4_per_5",
    ]);
}

#[test]
fn figures7_8_no_clear_correlation() {
    let (r, _) = report();
    assert_rows(&[
        "figure7.abs_pearson_r",
        "figure7.abs_spearman_rho",
        "figure8.abs_pearson_r",
        "figure8.abs_spearman_rho",
    ]);
    assert!(!r.figure7.points.is_empty());
}

#[test]
fn figure9_day_night_gap() {
    let (r, _) = report();
    // 2.4 GHz: a few points more utilization by day (paper: ~5 pts at the
    // median); 5 GHz: similar day and night. The scanner's view includes
    // idle channels, so the mean gap is the robust statistic at small
    // scale.
    assert_rows(&["figure9.mean_gap_pts_2_4", "figure9.mean_gap_pts_5"]);
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
    assert_rows(&["figure10.decodable_median_2_4"]);
}

// ---------------------------------------------------------------------
// Figure 11
// ---------------------------------------------------------------------

#[test]
fn figure11_spectrum_occupancy() {
    // 5 GHz much quieter than 2.4 GHz.
    assert_rows(&["figure11.occupancy_2_4", "figure11.occupancy_5_per_2_4"]);
}

// ---------------------------------------------------------------------
// The scorecard
// ---------------------------------------------------------------------

/// Prints the scorecard EXPERIMENTS.md quotes and holds every row to its
/// bound; row ids are unique.
#[test]
fn scorecard_rows_all_pass() {
    let (r, _) = report();
    let rows = scorecard(r);
    println!("| id | cites | paper | ours | bound | ok |");
    println!("|---|---|---|---|---|---|");
    for row in &rows {
        println!("{row}");
        assert!(std::ptr::eq(find(&rows, row.id), row), "{} twice", row.id);
    }
    assert_rows(&rows.iter().map(|row| row.id).collect::<Vec<_>>());
}

/// EXPERIMENTS.md names every scorecard row under the heading its
/// citation names. Ids and headings only, never numbers, so a re-seed
/// re-pins no docs.
#[test]
fn scorecard_rows_are_named_under_their_experiments_md_heading() {
    let doc = include_str!("../EXPERIMENTS.md");
    for row in scorecard(&report().0) {
        let heading = format!("\n## {} — ", row.cites);
        let start = doc.find(&heading).unwrap_or_else(|| {
            panic!(
                "{}: EXPERIMENTS.md has no `## {} — ` heading",
                row.id, row.cites
            )
        });
        let section = &doc[start + heading.len()..];
        let section = &section[..section.find("\n## ").unwrap_or(section.len())];
        assert!(
            section.contains(&format!("`{}`", row.id)),
            "{}: not named under EXPERIMENTS.md's `## {}` heading",
            row.id,
            row.cites
        );
    }
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
