//! Acceptance tests for the deterministic fault-injection campaigns.
//!
//! Two contracts are pinned here. First, the *null fault* contract: a
//! zero-intensity schedule must reproduce the no-faults engine output
//! byte for byte, at every thread count — fault injection may not perturb
//! the healthy pipeline. Second, the *degradation* contract: the canned
//! scenarios must degrade the way docs/EXPERIMENTS.md says they do
//! (duplicates without loss under tunnel-loss, bounded loss plus
//! failovers under dc-outage), deterministically across thread counts.

use airstat::rf::band::Band;
use airstat::sim::config::{WINDOW_JAN_2014, WINDOW_JAN_2015, WINDOW_JUL_2014};
use airstat::sim::engine::SimulationOutput;
use airstat::sim::faults::SCENARIO_NAMES;
use airstat::sim::FaultIntensity;
use airstat::sim::{DegradationTally, FaultSchedule, FleetConfig, FleetSimulation};
use airstat::store::FleetQuery;
use airstat::telemetry::PollPolicy;

fn campaign_config(threads: usize, faults: Option<FaultSchedule>) -> FleetConfig {
    FleetConfig {
        threads,
        faults,
        // 6-hourly link reports keep radio queues small enough that the
        // four runs below finish quickly at 0.2% scale.
        link_report_interval_s: 6 * 3600,
        ..FleetConfig::paper(0.002)
    }
}

/// Serializes everything observable about a run — backend analytics,
/// transport counters, per-panel volumes, and the degradation tally —
/// so two runs can be compared byte for byte.
fn digest(output: &SimulationOutput) -> String {
    use std::fmt::Write as _;
    let q = output.query();
    let mut d = String::new();
    for window in [WINDOW_JAN_2014, WINDOW_JUL_2014, WINDOW_JAN_2015] {
        let _ = writeln!(d, "apps {window:?}: {:?}", q.usage_by_app(window));
        let _ = writeln!(d, "oses {window:?}: {:?}", q.usage_by_os(window));
        for band in [Band::Ghz2_4, Band::Ghz5] {
            let _ = writeln!(
                d,
                "delivery {window:?} {band:?}: {:?}",
                q.mean_delivery_ratios(window, band)
            );
            let _ = writeln!(
                d,
                "nearby {window:?} {band:?}: {:?}",
                q.nearby_summary(window, band)
            );
        }
    }
    let _ = writeln!(
        d,
        "ingested {} duplicates {} bytes {} polls {}/{}",
        output.store.reports_ingested(),
        output.store.duplicates_dropped(),
        output.run.bytes_encoded,
        output.run.polls_lost,
        output.run.polls_attempted,
    );
    let _ = writeln!(d, "panels {:?}", output.run.panels);
    let _ = writeln!(d, "degradation {:?}", output.run.degradation);
    d
}

fn run(threads: usize, faults: Option<FaultSchedule>) -> SimulationOutput {
    FleetSimulation::new(campaign_config(threads, faults)).run()
}

/// The accounting identity: every submitted report is accepted, destroyed
/// (overflow, crash, eviction), or left queued by a spent poll budget —
/// exactly once. The eviction term is always zero here: the engine's solo
/// schedulers cannot evict (that axis belongs to the shared-scheduler
/// fleet campaigns in tests/scheduler.rs).
fn assert_accounting_balances(t: &DegradationTally) {
    assert_eq!(
        t.submitted,
        t.accepted + t.dropped_overflow + t.lost_to_crash + t.left_queued + t.lost_to_eviction,
        "degradation accounting must balance"
    );
    assert_eq!(t.lost_to_eviction, 0, "solo schedulers never evict");
}

#[test]
fn zero_fault_schedule_is_byte_identical_to_no_faults() {
    let baseline = digest(&run(1, None));
    for threads in [1, 4] {
        let no_faults = digest(&run(threads, None));
        let zero = run(threads, Some(FaultSchedule::zero()));
        assert_accounting_balances(&zero.run.degradation);
        let zero = digest(&zero);
        assert_eq!(
            no_faults, baseline,
            "healthy run must be thread-invariant (threads={threads})"
        );
        assert_eq!(
            zero, baseline,
            "zero-intensity schedule must not perturb the pipeline (threads={threads})"
        );
    }
}

#[test]
fn faulted_campaign_is_thread_invariant() {
    let schedule = FaultSchedule::by_name("dc-outage").unwrap();
    let serial = digest(&run(1, Some(schedule.clone())));
    let parallel = digest(&run(4, Some(schedule)));
    assert_eq!(serial, parallel, "fault campaigns must be deterministic");
}

#[test]
fn tunnel_loss_campaign_is_lossless_end_to_end() {
    let output = run(1, Some(FaultSchedule::by_name("tunnel-loss").unwrap()));
    let t = &output.run.degradation;
    assert_eq!(t.completeness(), 1.0, "retry + dedup recover every report");
    assert!(
        output.store.duplicates_dropped() > 0,
        "lost acks must force wire-level retransmissions"
    );
    assert_eq!(output.store.duplicates_dropped(), t.redelivered);
    assert!(t.polls_lost > 0, "the tunnel really was lossy");
    assert!(t.failovers > 0, "flaps must trip the DC failover");
    assert_eq!(t.dropped_overflow + t.lost_to_crash + t.left_queued, 0);
    assert_accounting_balances(t);
}

#[test]
fn dc_outage_campaign_degrades_gracefully() {
    let healthy = run(1, None);
    let output = run(1, Some(FaultSchedule::by_name("dc-outage").unwrap()));
    let t = &output.run.degradation;
    // The headline acceptance criteria: duplicates appear and
    // completeness drops below 100%.
    assert!(output.store.duplicates_dropped() > 0);
    assert!(t.completeness() < 1.0, "outage overflows bounded queues");
    assert!(t.completeness() > 0.5, "but most data still arrives");
    assert!(t.dropped_overflow > 0, "loss is attributed to overflow");
    assert_accounting_balances(t);
    assert_eq!(
        (t.evicted_high, t.evicted_normal, t.evicted_low),
        (0, 0, 0),
        "no class is evicted outside shared-scheduler campaigns"
    );
    // Every drain, healthy or faulted, is one admission to its own solo
    // scheduler that runs to completion.
    for campaign in [&healthy, &output] {
        let sched = &campaign.run.sched;
        assert!(sched.admissions > 0, "every drained agent is admitted");
        assert_eq!(sched.completed, sched.admissions);
        assert_eq!(sched.evictions(), 0, "solo schedulers never evict");
    }
    // The outage forces traffic onto the secondary datacenter.
    assert!(t.failovers > 0);
    assert!(t.secondary_served > 0);
    // Backoff during the outage stretches the latency tail well past the
    // healthy run's.
    assert!(t.latency.max_s() >= healthy.run.degradation.latency.max_s());
    // The analytics tables are computed from *accepted* reports only, so
    // the faulted backend never sees more clients than the healthy one.
    assert!(
        output.query().client_count(WINDOW_JAN_2015)
            <= healthy.query().client_count(WINDOW_JAN_2015)
    );
}

#[test]
fn queue_pressure_campaign_loses_to_crashes() {
    // The CLI's configuration — `airstat report --scale 0.002 --seed 1
    // --faults queue-pressure`, hourly link reports — so the pinned
    // numbers below are the ones its degradation report prints.
    let config = FleetConfig {
        seed: 1,
        threads: 1,
        faults: FaultSchedule::by_name("queue-pressure"),
        ..FleetConfig::paper(0.002)
    };
    let output = FleetSimulation::new(config).run();
    let t = &output.run.degradation;
    assert!(t.crash_reboots > 0, "crash faults must fire");
    assert!(t.lost_to_crash > 0, "crashes clear device queues");
    assert!(t.dropped_overflow > 0, "tiny queues must overflow");
    assert!(t.completeness() < 1.0);
    assert_accounting_balances(t);
    // The crash term counts *never-delivered* reports only
    // (`FaultedEndpoint::crash_lost`). Counting the whole cleared queue —
    // delivered-but-unacked reports the backend already accepted included
    // — reads 147 here and accounts for 14 444 of 14 420 reports.
    assert_eq!(
        (t.submitted, t.accepted, t.dropped_overflow, t.lost_to_crash),
        (14_420, 1_616, 12_681, 123)
    );
}

#[test]
fn queue_pressure_fleet_campaign_accounts_for_every_report() {
    assert_eq!(
        SCENARIO_NAMES,
        [
            "zero",
            "tunnel-loss",
            "dc-outage",
            "queue-pressure",
            "queue-pressure-fleet"
        ],
        "a new preset needs its accounting identity asserted in this file"
    );
    let output = run(
        1,
        Some(FaultSchedule::by_name("queue-pressure-fleet").unwrap()),
    );
    let t = &output.run.degradation;
    assert!(t.crash_reboots > 0, "the degraded cohort crashes");
    assert!(t.failovers > 0, "the recovering cohort fails over");
    assert!(
        output
            .run
            .sched
            .polls_by_class
            .iter()
            .all(|&polls| polls > 0),
        "all three cohorts drain, each at its own priority"
    );
    assert_accounting_balances(t);
}

#[test]
fn spent_poll_budget_leaves_only_undelivered_reports_queued() {
    // No preset outlasts the default 100k-round budget, so none exercises
    // the `left_queued` term. Two rounds and a coin-flip ack do: most
    // agents run out with delivered-but-unacked reports still queued,
    // which the backend has already accepted and the term must not count
    // again (the raw queue depth accounted for 3 739 of 3 191 here).
    let schedule = FaultSchedule::new(
        "tight-budget",
        PollPolicy {
            poll_budget: 2,
            ..PollPolicy::default()
        },
        FaultIntensity {
            ack_loss_probability: 0.5,
            poll_batch: Some(8),
            ..FaultIntensity::zero()
        },
        Vec::new(),
    );
    let output = run(1, Some(schedule));
    let t = &output.run.degradation;
    assert!(t.budget_exhausted_agents > 0, "two rounds must not suffice");
    assert!(t.left_queued > 0);
    assert!(
        t.redelivered > 0,
        "lost acks leave delivered reports queued"
    );
    assert_accounting_balances(t);
}
