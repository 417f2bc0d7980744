//! The paper's published scalars beside ours, in one table the two
//! reproduction binaries share (`tests/paper_reproduction.rs`,
//! `tests/seed_robustness.rs`).
//!
//! Each row cites its artifact as EXPERIMENTS.md's heading names it,
//! holds the paper's value (`None` where the paper states only a
//! direction), our value from one `PaperReport`, and the open bound the
//! reproduction test holds our value to. A missing or NaN value fails
//! every bound. `cargo test --test paper_reproduction scorecard --
//! --nocapture` prints the table EXPERIMENTS.md quotes.

use airstat::classify::apps::{AppCategory, Application};
use airstat::classify::device::OsFamily;
use airstat::core::figures::DeliveryFigure;
use airstat::core::tables::os_usage::OsRow;
use airstat::core::PaperReport;
use airstat::rf::band::{Band, Channel};
use std::fmt;

/// An open bound on our value.
#[derive(Clone, Copy)]
pub enum Bound {
    /// Strictly within this distance of the paper's value.
    Near(f64),
    /// Strictly above.
    Above(f64),
    /// Strictly below.
    Below(f64),
    /// Strictly between.
    Between(f64, f64),
}

/// One published value and ours.
pub struct Row {
    /// Stable id, `<artifact>.<quantity>`.
    pub id: &'static str,
    /// The artifact as EXPERIMENTS.md's heading names it.
    pub cites: &'static str,
    /// The paper's value, or `None` where it states only a direction.
    pub paper: Option<f64>,
    /// Our value; `None` when the report lacks what it is computed from.
    pub ours: Option<f64>,
    /// The bound the reproduction test holds `ours` to.
    pub bound: Bound,
}

impl Row {
    /// `Err` naming the row unless our value is a number inside `bound`.
    pub fn check(&self, bound: Bound) -> Result<(), String> {
        let Some(ours) = self.ours.filter(|x| !x.is_nan()) else {
            return Err(format!("{}: no value ({:?})", self.id, self.ours));
        };
        let inside = match bound {
            Bound::Near(tolerance) => match self.paper {
                Some(paper) => (ours - paper).abs() < tolerance,
                None => return Err(format!("{}: ±bound without a paper value", self.id)),
            },
            Bound::Above(lo) => ours > lo,
            Bound::Below(hi) => ours < hi,
            Bound::Between(lo, hi) => ours > lo && ours < hi,
        };
        if inside {
            Ok(())
        } else {
            Err(format!(
                "{}: ours {ours} outside {bound} (paper {})",
                self.id,
                show(self.paper)
            ))
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Bound::Near(tolerance) => write!(f, "±{}", trim(tolerance)),
            Bound::Above(lo) => write!(f, "> {}", trim(lo)),
            Bound::Below(hi) => write!(f, "< {}", trim(hi)),
            Bound::Between(lo, hi) => write!(f, "({}, {})", trim(lo), trim(hi)),
        }
    }
}

/// A bound's number with at most four decimals and no trailing zeros.
fn trim(x: f64) -> String {
    let s = format!("{x:.4}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// One markdown table line: id, citation, paper, ours, bound, verdict.
impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "| `{}` | {} | {} | {} | {} | {} |",
            self.id,
            self.cites,
            show(self.paper),
            show(self.ours),
            self.bound,
            if self.check(self.bound).is_ok() {
                "✔"
            } else {
                "✘"
            }
        )
    }
}

fn show(value: Option<f64>) -> String {
    value.map_or("—".into(), |x| format!("{x:.3}"))
}

/// The row named `id`; panics on an id the table does not hold.
pub fn find<'a>(rows: &'a [Row], id: &str) -> &'a Row {
    rows.iter()
        .find(|row| row.id == id)
        .unwrap_or_else(|| panic!("no scorecard row {id}"))
}

/// Every published scalar a reproduction test checks, from one report.
/// Kept one row per line so the table reads as one.
#[rustfmt::skip]
pub fn scorecard(r: &PaperReport) -> Vec<Row> {
    use Bound::{Above, Below, Between, Near};
    use OsFamily::{AppleIos as Ios, MacOsX as Osx, Windows as Win};
    use AppCategory as C;
    use Application as A;
    let row = |id, cites, paper, ours, bound| Row { id, cites, paper, ours, bound };

    let t2_total = f64::from(r.table2.total());
    let education = r.table2.rows.iter().find(|(i, _)| i.name() == "Education");
    let education = education.map(|&(_, c)| f64::from(c) / t2_total);
    let largest_vertical = r.table2.rows.iter().map(|&(_, c)| c).max();
    let largest_vertical = largest_vertical.map(|c| f64::from(c) / t2_total);

    fn clients(o: &OsRow) -> f64 { o.clients as f64 }
    fn bytes(o: &OsRow) -> f64 { o.totals.total() as f64 }
    fn down_per_up(o: &OsRow) -> f64 { o.totals.down_bytes as f64 / o.totals.up_bytes.max(1) as f64 }
    let t3 = &r.table3;
    let ratio = |a, b, value: fn(&OsRow) -> f64| Some(value(t3.row(a)?) / value(t3.row(b)?));
    let per_client = OsRow::bytes_per_client;
    let unknown = t3.row(OsFamily::Unknown);
    let unknown_yoy = unknown.and_then(|u| u.clients_increase);
    let unknown_share = unknown.map(|u| clients(u) / clients(&t3.all));

    let (c14, c15) = (&r.table4.before, &r.table4.after);
    let five_ghz_gain = c15.dual_band - c14.dual_band;
    let forty_mhz_growth = c15.forty_mhz / c14.forty_mhz;

    let t5 = &r.table5;
    let app = |a| t5.rows.iter().find(|row| row.app == a);
    let rank = |a| Some((t5.rows.iter().position(|row| row.app == a)? + 1) as f64);
    let down_pct = |a| app(a).map(|row| row.download_percent());
    let misc_web = app(A::MiscWeb);
    let misc_web = misc_web.map(|row| row.totals.total() as f64 / t5.grand_total as f64 * 100.0);
    let top_per_client = t5.rows.iter().map(|row| row.bytes_per_client()).fold(0.0, f64::max);
    let dropcam_vs_top = app(A::Dropcam).map(|row| row.bytes_per_client() / top_per_client);

    let t6 = &r.table6;
    let category = |c| t6.rows.iter().find(|row| row.category == c);
    let t6_total = t6.grand_total() as f64;
    let cat_pct = |c| category(c).map(|row| row.totals.total() as f64 / t6_total * 100.0);
    let cat_down_pct = |c| category(c).map(|row| row.download_percent());
    let backup = category(C::OnlineBackup);
    let backup = backup.map(|row| row.totals.down_bytes as f64 / row.totals.up_bytes as f64);
    let t6_up: u64 = t6.rows.iter().map(|row| row.totals.up_bytes).sum();
    let t6_down: u64 = t6.rows.iter().map(|row| row.totals.down_bytes).sum();
    let t6_down_per_up = t6_down as f64 / t6_up as f64;

    let t7 = &r.table7;
    let growth = t7.now_2_4.per_ap / t7.before_2_4.per_ap;
    let hotspots = t7.now_2_4.hotspots as f64 / t7.now_2_4.total_networks as f64;

    let f2 = &r.figure2;
    let on_2_4 = |ch| f2.counts_2_4.iter().find(|&&(c, _)| c == ch).map_or(0, |&(_, n)| n) as f64;
    let census_share = |counts: &[(u16, u64)], on: &dyn Fn(u16) -> bool| {
        let total: u64 = counts.iter().map(|&(_, n)| n).sum();
        let hit: u64 = counts.iter().filter(|&&(c, _)| on(c)).map(|&(_, n)| n).sum();
        hit as f64 / total as f64
    };
    let primary = census_share(&f2.counts_2_4, &|c| matches!(c, 1 | 6 | 11));
    let requires_dfs = |c| Channel::new(Band::Ghz5, c).is_some_and(|ch| ch.requires_dfs());
    let dfs = census_share(&f2.counts_5, &requires_dfs);

    let f3 = &r.figure3;
    let links = f3.now_2_4.len() as f64 / f3.now_5.len().max(1) as f64;
    let intermediate = DeliveryFigure::intermediate_fraction(&f3.now_2_4, 0.05, 0.95);
    let near_perfect = 1.0 - f3.now_5.fraction_at_or_below(0.899);
    let min_swing = r.figure4.series.iter().map(|s| s.swing()).reduce(f64::min);

    let (m24, p24) = r.figure6.summary(Band::Ghz2_4).unzip();
    let (m5, p5) = r.figure6.summary(Band::Ghz5).unzip();
    let m24_per_5 = m24.zip(m5).map(|(a, b)| a / b);
    let (f7, f8) = (&r.figure7, &r.figure8);
    let (f1, f10) = (&r.figure1, &r.figure10);
    let (gap24, gap5) = (r.figure9_2_4.mean_gap_points(), r.figure9_5.mean_gap_points());
    let o24 = r.figure11.occupancy_2_4();
    let o5_per_24 = r.figure11.occupancy_5() / o24;

    vec![
        row("table2.largest_vertical_share", "Table 2", None, largest_vertical, Below(0.5)),
        row("table2.education_share", "Table 2", Some(0.197), education, Near(0.06)),

        row("table3.clients_yoy_pct", "Table 3", Some(37.0), t3.all.clients_increase, Near(8.0)),
        row("table3.bytes_yoy_pct", "Table 3", Some(62.0), t3.all.bytes_increase, Near(25.0)),
        row("table3.ios_per_windows_clients", "Table 3", Some(3.10), ratio(Ios, Win, clients), Near(0.6)),
        row("table3.ios_per_windows_bytes", "Table 3", Some(0.93), ratio(Ios, Win, bytes), Between(0.55, 1.7)),
        row("table3.windows_per_ios_per_client", "Table 3", None, ratio(Win, Ios, per_client), Above(2.0)),
        row("table3.osx_per_windows_per_client", "Table 3", Some(1.98), ratio(Osx, Win, per_client), Above(1.5)),
        row("table3.ios_down_per_up", "Table 3", Some(9.0), t3.row(Ios).map(down_per_up), Above(5.0)),
        row("table3.unknown_clients_yoy_pct", "Table 3", Some(-8.9), unknown_yoy, Below(10.0)),
        row("table3.unknown_client_share", "Table 3", Some(0.04), unknown_share, Below(0.12)),

        row("table4.ac_2014", "Table 4", Some(0.025), Some(c14.ac), Below(0.08)),
        row("table4.ac_2015", "Table 4", Some(0.18), Some(c15.ac), Near(0.06)),
        row("table4.five_ghz_gain", "Table 4", Some(0.649 - 0.489), Some(five_ghz_gain), Above(0.08)),
        row("table4.five_ghz_2015", "Table 4", Some(0.649), Some(c15.dual_band), Near(0.08)),
        row("table4.forty_mhz_growth", "Table 4", Some(0.638 / 0.234), Some(forty_mhz_growth), Above(2.0)),
        row("table4.g_2014", "Table 4", Some(0.999), Some(c14.g), Above(0.99)),
        row("table4.g_2015", "Table 4", Some(0.999), Some(c15.g), Above(0.99)),

        row("table5.misc_web_share_pct", "Table 5", Some(22.0), misc_web, Between(10.0, 35.0)),
        row("table5.youtube_rank", "Table 5", Some(2.0), rank(A::Youtube), Below(11.0)),
        row("table5.netflix_rank", "Table 5", Some(3.0), rank(A::Netflix), Below(11.0)),
        row("table5.non_web_tcp_rank", "Table 5", None, rank(A::NonWebTcp), Below(11.0)),
        row("table5.misc_secure_web_rank", "Table 5", None, rank(A::MiscSecureWeb), Below(11.0)),
        row("table5.itunes_rank", "Table 5", None, rank(A::Itunes), Below(11.0)),
        row("table5.netflix_down_pct", "Table 5", Some(98.0), down_pct(A::Netflix), Above(90.0)),
        row("table5.youtube_down_pct", "Table 5", Some(98.0), down_pct(A::Youtube), Above(90.0)),
        row("table5.itunes_down_pct", "Table 5", Some(98.0), down_pct(A::Itunes), Above(90.0)),
        // Dropcam uploads about 19 times what it downloads.
        row("table5.dropcam_down_pct", "Table 5", Some(100.0 / 20.0), down_pct(A::Dropcam), Below(20.0)),
        row("table5.dropcam_per_client_vs_top", "Table 5", None, dropcam_vs_top, Above(0.3)),

        row("table6.other_share_pct", "Table 6", Some(47.0), cat_pct(C::Other), Near(10.0)),
        row("table6.video_music_share_pct", "Table 6", Some(34.0), cat_pct(C::VideoMusic), Near(10.0)),
        row("table6.file_sharing_share_pct", "Table 6", Some(8.4), cat_pct(C::FileSharing), Near(5.0)),
        row("table6.backup_down_per_up", "Table 6", Some(1.0 / 22.8), backup, Below(0.5)),
        row("table6.video_music_down_pct", "Table 6", Some(97.0), cat_down_pct(C::VideoMusic), Above(90.0)),
        row("table6.file_sharing_down_pct", "Table 6", Some(58.0), cat_down_pct(C::FileSharing), Below(80.0)),
        row("table6.down_per_up", "Table 6", Some(4.6), Some(t6_down_per_up), Between(2.5, 8.0)),

        row("table7.per_ap_2_4_now", "Table 7", Some(55.47), Some(t7.now_2_4.per_ap), Near(14.0)),
        row("table7.per_ap_2_4_before", "Table 7", Some(28.60), Some(t7.before_2_4.per_ap), Near(8.0)),
        row("table7.growth_2_4", "Table 7", Some(1.94), Some(growth), Near(0.4)),
        row("table7.per_ap_5_now", "Table 7", Some(3.68), Some(t7.now_5.per_ap), Near(1.2)),
        row("table7.hotspot_share_2_4", "Table 7", Some(0.20), Some(hotspots), Near(0.05)),

        row("figure1.share_on_2_4", "Figure 1", Some(0.80), Some(f1.fraction_on_2_4()), Near(0.08)),
        row("figure1.median_snr_db_2_4", "Figure 1", Some(28.0), f1.median_snr_db(Band::Ghz2_4), Near(8.0)),
        row("figure1.median_snr_db_5", "Figure 1", None, f1.median_snr_db(Band::Ghz5), Between(10.0, 45.0)),

        row("figure2.ch1_per_ch6", "Figure 2", Some(1.37), Some(on_2_4(1) / on_2_4(6)), Near(0.25)),
        row("figure2.primary_share_2_4", "Figure 2", None, Some(primary), Above(0.8)),
        row("figure2.dfs_share_5", "Figure 2", None, Some(dfs), Below(0.15)),

        // The paper tracks 16,583 links at 2.4 GHz and 5,650 at 5 GHz.
        row("figure3.links_2_4_per_5", "Figure 3", Some(16_583.0 / 5_650.0), Some(links), Above(1.35)),
        row("figure3.intermediate_share_2_4", "Figure 3", None, Some(intermediate), Above(0.5)),
        row("figure3.near_perfect_share_5", "Figure 3", None, Some(near_perfect), Above(0.45)),

        row("figure4.min_swing_2_4", "Figures 4/5", None, min_swing, Above(0.1)),

        row("figure6.median_2_4", "Figure 6", Some(0.25), m24, Near(0.10)),
        row("figure6.p90_2_4", "Figure 6", Some(0.50), p24, Near(0.18)),
        row("figure6.median_5", "Figure 6", Some(0.05), m5, Near(0.06)),
        row("figure6.p90_5", "Figure 6", Some(0.30), p5, Below(0.45)),
        row("figure6.median_2_4_per_5", "Figure 6", Some(0.25 / 0.05), m24_per_5, Above(2.0)),

        // No clear correlation in either band.
        row("figure7.abs_pearson_r", "Figures 7/8", None, f7.pearson_r.map(f64::abs), Below(0.5)),
        row("figure7.abs_spearman_rho", "Figures 7/8", None, f7.spearman_rho.map(f64::abs), Below(0.5)),
        row("figure8.abs_pearson_r", "Figures 7/8", None, f8.pearson_r.map(f64::abs), Below(0.5)),
        row("figure8.abs_spearman_rho", "Figures 7/8", None, f8.spearman_rho.map(f64::abs), Below(0.5)),

        row("figure9.mean_gap_pts_2_4", "Figure 9", Some(5.0), gap24, Between(0.5, 15.0)),
        row("figure9.mean_gap_pts_5", "Figure 9", None, gap5, Between(-4.0, 4.0)),

        // The majority of busy time is decodable.
        row("figure10.decodable_median_2_4", "Figure 10", None, f10.decodable_2_4.median(), Above(0.6)),

        row("figure11.occupancy_2_4", "Figure 11", Some(0.22), Some(o24), Between(0.03, 0.5)),
        row("figure11.occupancy_5_per_2_4", "Figure 11", Some(0.02 / 0.22), Some(o5_per_24), Below(1.0 / 3.0)),
    ]
}
