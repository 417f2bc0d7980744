//! Quickstart: build a small fleet, run the measurement campaign, print a
//! mini usage report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use airstat::classify::device::OsFamily;
use airstat::core::tables::OsUsageTable;
use airstat::rf::band::Band;
use airstat::sim::config::{WINDOW_JAN_2014, WINDOW_JAN_2015};
use airstat::sim::{FleetConfig, FleetSimulation};
use airstat::store::FleetQuery;

fn main() {
    // 0.5% of the paper's fleet: ~100 networks, ~28k clients, runs in
    // about a second. `FleetConfig::paper(1.0)` is the full-scale panel.
    let config = FleetConfig::paper(0.005);
    println!(
        "simulating {} usage networks, {} MR16 + {} MR18 APs, {} clients (2015 window)...",
        config.usage_networks(),
        config.mr16_aps(),
        config.mr18_aps(),
        config.clients(airstat::sim::MeasurementYear::Y2015),
    );

    let output = FleetSimulation::new(config).run();
    println!(
        "ingested {} reports ({} duplicate retransmissions rejected, {} polls lost in transit)\n",
        output.store.reports_ingested(),
        output.store.duplicates_dropped(),
        output.run.polls_lost,
    );
    // One cached query engine over the sealed store serves every lookup.
    let query = output.query();

    // Table 3, the paper's usage-by-OS table.
    let table = OsUsageTable::compute(&query, WINDOW_JAN_2015, WINDOW_JAN_2014);
    println!("Usage by operating system (January 2015, growth vs January 2014):\n");
    println!("{table}");

    // A couple of headline numbers from §3.2.
    let ios = table.row(OsFamily::AppleIos).expect("iOS clients exist");
    let win = table.row(OsFamily::Windows).expect("Windows clients exist");
    println!(
        "headlines: {:.1}x more iOS devices than Windows, but only {:.2}x their bytes;",
        ios.clients as f64 / win.clients as f64,
        ios.totals.total() as f64 / win.totals.total() as f64,
    );
    let util = query.serving_utilizations(WINDOW_JAN_2015, Band::Ghz2_4);
    let ecdf = airstat::stats::Ecdf::new(util);
    println!(
        "median 2.4 GHz serving-channel utilization across the fleet: {:.0}%",
        ecdf.median().unwrap_or(0.0) * 100.0
    );
}
