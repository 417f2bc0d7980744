//! Fault campaigns: run the same fleet under the canned fault scenarios
//! and compare their degradation reports against the healthy baseline,
//! then put the shared poll scheduler under real queue pressure with the
//! `queue-pressure-fleet` cohort mix.
//!
//! ```text
//! cargo run --release --example fault_campaign
//! ```
//!
//! Every campaign is deterministic: the fault schedule is scripted from
//! the same `SeedTree` as the fleet itself, so re-running this example
//! (at any `--threads` setting) reproduces the reports byte for byte.

use airstat::core::DegradationReport;
use airstat::sim::{
    run_fleet_campaign, FaultSchedule, FleetCampaignConfig, FleetConfig, FleetSimulation,
};

fn small_config(faults: Option<FaultSchedule>) -> FleetConfig {
    FleetConfig {
        // 6-hourly link reports keep radio-panel queues short enough that
        // the example finishes in a few seconds at 0.2% scale.
        link_report_interval_s: 6 * 3600,
        faults,
        ..FleetConfig::paper(0.002)
    }
}

fn main() {
    // The healthy baseline: no schedule at all. Completeness is 100% by
    // construction — every queued report survives until the backend polls.
    let baseline = FleetSimulation::new(small_config(None)).run();
    println!(
        "baseline (no faults): {} reports ingested, completeness {:.1}%, {} duplicates\n",
        baseline.store.reports_ingested(),
        baseline.run.degradation.completeness() * 100.0,
        baseline.store.duplicates_dropped(),
    );

    // The canned engine scenarios, mildest first. See docs/EXPERIMENTS.md
    // ("Fault campaigns") for what each one is designed to demonstrate.
    // `queue-pressure-fleet` runs the heterogeneous cohort mix through
    // the engine too — per-AP it behaves like its resolved cohort; the
    // *scheduler*-level pressure needs the shared-scheduler campaign
    // below.
    for name in [
        "tunnel-loss",
        "dc-outage",
        "queue-pressure",
        "queue-pressure-fleet",
    ] {
        let schedule = FaultSchedule::by_name(name).expect("canned scenario");
        let output = FleetSimulation::new(small_config(Some(schedule))).run();
        let report = DegradationReport::from_simulation(&output, name);
        println!("{report}\n");
    }

    // The shared-scheduler fleet campaign: 20k APs admitted in waves
    // against a bounded admission capacity, so the scheduler has to evict
    // its oldest LOW (healthy) APs while the degraded and
    // outage-recovering cohorts drain first.
    let config = FleetCampaignConfig::queue_pressure_fleet(20_000);
    let run = run_fleet_campaign(&config);
    let (submitted, accounted) = run.accounting_identity();
    println!(
        "queue-pressure-fleet, shared scheduler ({} APs, capacity {:?}):",
        config.aps, config.sched_capacity,
    );
    println!("{}", run.sched);
    println!(
        "  accounting     {submitted} submitted = {accounted} accounted \
         (identity {})",
        if submitted == accounted {
            "holds"
        } else {
            "BROKEN"
        },
    );
    for class in airstat::telemetry::sched::Priority::ALL {
        let bound = run.poll_gap_bounds[class.index()];
        println!(
            "  poll-gap bound {}: waited {} ticks, bound {:?}",
            class.label(),
            run.sched.max_queue_wait_ticks[class.index()],
            bound,
        );
    }

    println!(
        "\nnote: tunnel-loss is lossy on the wire but lossless end-to-end —\n\
         retries plus sequence-number dedup recover every report. Loss only\n\
         appears once queues overflow (bounded capacity), devices crash, the\n\
         poll budget runs out, or the scheduler sheds LOW APs under admission\n\
         pressure."
    );
}
