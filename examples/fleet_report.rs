//! The paper in one command: run both measurement windows and print every
//! table and figure of *Large-scale Measurements of Wireless Network
//! Behavior* (SIGCOMM 2015) from synthetic telemetry.
//!
//! ```text
//! cargo run --release --example fleet_report            # 1% scale
//! cargo run --release --example fleet_report -- 0.05    # 5% scale
//! cargo run --release --example fleet_report -- 0.05 7  # custom seed
//! ```

use airstat::core::PaperReport;
use airstat::sim::{FleetConfig, FleetSimulation};

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args
        .next()
        .map(|s| s.parse().expect("scale must be a number in (0, 1]"))
        .unwrap_or(0.01);
    let mut config = FleetConfig::paper(scale);
    if let Some(seed) = args.next() {
        config.seed = seed.parse().expect("seed must be a u64");
    }

    eprintln!(
        "running the full campaign at {:.1}% scale (seed {:#x}, {} thread(s))...",
        scale * 100.0,
        config.seed,
        config.effective_threads()
    );
    let start = std::time::Instant::now();
    let output = FleetSimulation::new(config.clone()).run();
    eprintln!(
        "simulation finished in {:.1?}: {} reports ingested, {} polls lost and retransmitted",
        start.elapsed(),
        output.store.reports_ingested(),
        output.run.polls_lost
    );
    eprintln!("{}", output.throughput_summary());

    let report = PaperReport::from_simulation(&output, &config);
    println!("{report}");
}
