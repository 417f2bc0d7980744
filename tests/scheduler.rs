//! Acceptance tests for the backpressure-aware poll scheduler.
//!
//! Three contracts are pinned. First, *the solo drain is the flat loop*:
//! every campaign drain is one AP alone on a scheduler
//! (`sched::drain_solo`), and the queues, retry ledger and clock jumps
//! must be invisible there. Two identically built endpoints — one through
//! the scheduler, one through the flat oracle `drain_flat_reference` —
//! must deliver the same reports, record the same statistics, and leave
//! their agents in the same state, for the plain tunnel and for every
//! fault preset. Second, the *pressure contract* at fleet scale: a
//! 100k-AP queue-pressure campaign must actually evict (LOW class only),
//! keep the eviction-era accounting identity balanced, and never let any
//! class's ready-queue wait exceed the pinned poll-gap bound. Third, the
//! *bytes* of that campaign: at 20k APs and two seeds every counter it
//! produces is held to constants, so a changed poll order cannot pass on
//! invariants alone.

use airstat::sim::config::{WINDOW_JAN_2014, WINDOW_JAN_2015, WINDOW_JUL_2014};
use airstat::sim::faults::{DegradationTally, SCENARIO_NAMES};
use airstat::sim::{run_fleet_campaign, FaultSchedule, FaultedEndpoint, FleetCampaignConfig};
use airstat::stats::SeedTree;
use airstat::telemetry::poll::{drain_flat_reference, DrainStats, LatencyHistogram, PollPolicy};
use airstat::telemetry::sched::{drain_solo, PollEndpoint, Priority, SchedStats, TunnelEndpoint};
use airstat::telemetry::{DeviceAgent, Report, ReportPayload, Tunnel, TunnelConfig};

const SEEDS: std::ops::Range<u64> = 0..8;

/// The policy as given, and with a budget a 40-report backlog outlasts.
fn policies(policy: PollPolicy) -> [PollPolicy; 2] {
    let tight = PollPolicy {
        poll_budget: 4,
        ..policy
    };
    [policy, tight]
}

fn loaded_agent(load: u64, capacity: usize) -> DeviceAgent {
    let mut agent = DeviceAgent::with_capacity(1, capacity);
    for t in 0..load {
        agent.submit(t * 60, ReportPayload::Usage(vec![]));
    }
    agent
}

/// Everything a drain leaves on the device: the queue itself, and the
/// submission and overflow counters.
fn agent_state(agent: &DeviceAgent) -> (Vec<Report>, u64, u64) {
    (
        agent.queued_reports().cloned().collect(),
        agent.reports_submitted(),
        agent.dropped_overflow(),
    )
}

/// Drains one `build()` endpoint alone on the scheduler and its twin
/// through the flat oracle, asserts the delivered reports, the drain
/// statistics (latency histogram included) and the agents' final states
/// are equal, and hands both endpoints back for the endpoint-specific
/// comparisons.
fn drain_both<E: PollEndpoint>(
    policy: PollPolicy,
    priority: Priority,
    build: impl Fn() -> E,
    agent: fn(&E) -> &DeviceAgent,
    case: &str,
) -> (E, E, DrainStats) {
    let (drain, _) = drain_solo(policy, priority, build());
    let mut flat = build();
    let (reports, stats) = drain_flat_reference(policy, &mut flat);
    assert_eq!(drain.reports, reports, "{case}: delivered reports");
    assert_eq!(drain.stats, stats, "{case}: drain statistics");
    assert_eq!(
        agent_state(agent(&drain.endpoint)),
        agent_state(agent(&flat)),
        "{case}: agent state"
    );
    (drain.endpoint, flat, stats)
}

#[test]
fn plain_tunnel_solo_drain_matches_the_flat_oracle() {
    let (mut lost, mut exhausted) = (0, 0);
    for drop_probability in [0.0, 0.3] {
        for policy in policies(PollPolicy::default()) {
            for load in [0, 1, 40] {
                for seed in SEEDS {
                    let case = format!(
                        "drop {drop_probability}, budget {}, load {load}, seed {seed}",
                        policy.poll_budget
                    );
                    let build = || {
                        let tunnel = Tunnel::new(TunnelConfig {
                            drop_probability,
                            poll_batch: 8,
                        });
                        let agent = loaded_agent(load, DeviceAgent::DEFAULT_CAPACITY);
                        let rng = SeedTree::new(seed).child("tunnel").rng();
                        TunnelEndpoint::new(tunnel, agent, rng)
                    };
                    let (_, _, stats) = drain_both(
                        policy,
                        Priority::Normal,
                        build,
                        TunnelEndpoint::agent,
                        &case,
                    );
                    lost += stats.lost;
                    exhausted += u64::from(stats.budget_exhausted);
                }
            }
        }
    }
    assert!(lost > 0, "the lossy tunnel never lost a round");
    assert!(exhausted > 0, "the tight budget never ran out");
}

/// What a faulted drain counted besides its transport statistics.
fn fault_counters(e: &FaultedEndpoint) -> [u64; 5] {
    [
        e.crash_lost(),
        e.crash_reboots(),
        e.failovers(),
        e.secondary_served(),
        e.undelivered(),
    ]
}

#[test]
fn faulted_solo_drain_matches_the_flat_oracle_for_every_preset() {
    // The engine's base tunnel; the presets override its batch size.
    let base = TunnelConfig {
        drop_probability: 0.01,
        poll_batch: 64,
    };
    let (mut crashes, mut crash_lost, mut failovers, mut bursts, mut exhausted) = (0, 0, 0, 0, 0);
    for name in SCENARIO_NAMES {
        let schedule = FaultSchedule::by_name(name).expect(name);
        for window in [WINDOW_JAN_2014, WINDOW_JUL_2014, WINDOW_JAN_2015] {
            let intensity = schedule.intensity(window);
            let capacity = intensity
                .queue_capacity
                .unwrap_or(DeviceAgent::DEFAULT_CAPACITY);
            let mut loads = vec![0, 1, 40];
            loads.extend(intensity.queue_capacity.map(|c| c as u64 + 8));
            for policy in policies(schedule.policy()) {
                for &load in &loads {
                    for seed in SEEDS {
                        let case = format!(
                            "{name} {window:?}, budget {}, load {load}, seed {seed}",
                            policy.poll_budget
                        );
                        let node = SeedTree::new(seed).child(name).indexed(u64::from(window.0));
                        let build = || {
                            let agent = loaded_agent(load, capacity);
                            FaultedEndpoint::new(intensity, base, &node, "fw-test", agent)
                        };
                        let priority = build().priority();
                        let (sched, flat, stats) =
                            drain_both(policy, priority, build, FaultedEndpoint::agent, &case);
                        assert_eq!(
                            fault_counters(&sched),
                            fault_counters(&flat),
                            "{case}: fault counters"
                        );
                        crashes += sched.crash_reboots();
                        crash_lost += sched.crash_lost();
                        failovers += sched.failovers();
                        exhausted += u64::from(stats.budget_exhausted);
                        // The endpoint's first fault-stream draw picks its
                        // cohort. Where that cohort loses no acks, only a
                        // re-poll burst can put a report on the wire twice.
                        let cohort = intensity.resolve_cohort(&mut node.child("faults").rng());
                        if cohort.ack_loss_probability == 0.0 && stats.redelivered > 0 {
                            bursts += 1;
                        }
                    }
                }
            }
        }
    }
    // A preset edit must not quietly hollow the matrix out.
    assert!(crashes > 0 && crash_lost > 0, "no crash destroyed a report");
    assert!(failovers > 0, "no drain failed over");
    assert!(bursts > 0, "no re-poll burst redelivered");
    assert!(exhausted > 0, "the tight budget never ran out");
}

#[test]
fn hundred_k_ap_queue_pressure_campaign_holds_its_invariants() {
    let config = FleetCampaignConfig::queue_pressure_fleet(100_000);
    let run = run_fleet_campaign(&config);
    let stats = &run.sched;

    // Pressure must actually shed load — and only from the LOW class.
    assert!(stats.evictions() > 0, "100k APs must outrun the capacity");
    assert_eq!(stats.evicted_aps[0], 0, "HIGH APs are never evicted");
    assert_eq!(stats.evicted_aps[1], 0, "NORMAL APs are never evicted");
    assert!(run.degradation.lost_to_eviction > 0);

    // The accounting identity survives eviction: every submitted report
    // is accepted, destroyed (overflow / crash / eviction), or was still
    // queued when its drain's poll budget ran out.
    let (submitted, accounted) = run.accounting_identity();
    assert_eq!(submitted, accounted, "accounting identity under eviction");
    // Crash reboots submit crash reports on top of the preset load.
    assert!(submitted >= 100_000 * config.reports_per_ap);

    // No AP starves: each class's worst observed ready-queue wait stays
    // within the pinned poll-gap bound derived from its fairness quota.
    for class in airstat::telemetry::sched::Priority::ALL {
        let bound =
            run.poll_gap_bounds[class.index()].expect("the preset budget guarantees every class");
        let waited = stats.max_queue_wait_ticks[class.index()];
        assert!(
            waited <= bound,
            "{} waited {waited} ticks, pinned bound {bound}",
            class.label(),
        );
    }

    // The cohort mix really is heterogeneous: all three classes polled.
    assert!(stats.polls_by_class.iter().all(|&p| p > 0));
    assert!(
        stats.retries_scheduled > 0,
        "degraded cohorts hit the ledger"
    );
}

/// Latency buckets `(virtual seconds, reports)` of a pinned campaign.
fn latency(buckets: &[(u64, u64)]) -> LatencyHistogram {
    let mut histogram = LatencyHistogram::default();
    for &(latency_s, n) in buckets {
        histogram.record_n(latency_s, n);
    }
    histogram
}

/// The 100k test above asserts invariants only, so a changed poll order
/// — a different eviction victim, a retry promoted a tick late — would
/// pass it. These constants were captured on the commit *before* the
/// scheduler's by-value entry map was replaced (PR 23's parent); they
/// move only when a PR means to change what the scheduler does, and that
/// PR must say so.
#[test]
fn fleet_campaign_is_pinned_for_two_seeds() {
    let pinned = [
        (
            1,
            SchedStats {
                admissions: 20_000,
                deduped: 0,
                completed: 7_764,
                budget_exhausted: 0,
                evicted_aps: [0, 0, 12_236],
                evicted_reports: 56_828,
                polls_by_class: [4_354, 6_370, 7_859],
                ticks: 73,
                time_jumps: 7,
                retries_scheduled: 4_120,
                retries_promoted: 4_074,
                max_ready_depth: [130, 184, 1_745],
                max_queue_wait_ticks: [0, 0, 5],
            },
            DegradationTally {
                submitted: 120_163,
                accepted: 62_471,
                dropped_overflow: 0,
                lost_to_crash: 864,
                left_queued: 0,
                lost_to_eviction: 56_828,
                evicted_high: 0,
                evicted_normal: 0,
                evicted_low: 12_236,
                crash_reboots: 163,
                polls: 18_583,
                polls_lost: 1_493,
                disconnected_polls: 2_627,
                failovers: 1_313,
                secondary_served: 1_315,
                redelivered: 4_134,
                budget_exhausted_agents: 0,
                latency: latency(&[
                    (60, 46_837),
                    (120, 5_172),
                    (180, 3_630),
                    (240, 787),
                    (300, 275),
                    (360, 103),
                    (420, 7_684),
                    (480, 437),
                    (540, 133),
                    (600, 115),
                    (660, 30),
                    (780, 6),
                    (840, 18),
                    (900, 995),
                    (960, 61),
                    (1_020, 24),
                    (1_080, 6),
                    (1_740, 6),
                    (1_860, 128),
                    (1_920, 67),
                    (1_980, 48),
                    (2_040, 6),
                    (2_280, 6),
                    (2_340, 6),
                    (3_780, 12),
                    (3_840, 6),
                    (3_960, 1),
                    (5_700, 6),
                ]),
            },
        ),
        (
            2,
            SchedStats {
                admissions: 20_000,
                deduped: 0,
                completed: 7_697,
                budget_exhausted: 0,
                evicted_aps: [0, 0, 12_303],
                evicted_reports: 56_862,
                polls_by_class: [4_343, 6_377, 7_868],
                ticks: 84,
                time_jumps: 6,
                retries_scheduled: 4_150,
                retries_promoted: 4_112,
                max_ready_depth: [133, 182, 1_732],
                max_queue_wait_ticks: [0, 0, 5],
            },
            DegradationTally {
                submitted: 120_169,
                accepted: 62_401,
                dropped_overflow: 0,
                lost_to_crash: 906,
                left_queued: 0,
                lost_to_eviction: 56_862,
                evicted_high: 0,
                evicted_normal: 0,
                evicted_low: 12_303,
                crash_reboots: 169,
                polls: 18_588,
                polls_lost: 1_570,
                disconnected_polls: 2_580,
                failovers: 1_315,
                secondary_served: 1_317,
                redelivered: 4_054,
                budget_exhausted_agents: 0,
                latency: latency(&[
                    (60, 46_695),
                    (120, 5_170),
                    (180, 3_822),
                    (240, 821),
                    (300, 230),
                    (360, 126),
                    (420, 7_504),
                    (480, 328),
                    (540, 62),
                    (600, 122),
                    (660, 24),
                    (720, 1),
                    (780, 1),
                    (840, 12),
                    (900, 1_037),
                    (960, 79),
                    (1_020, 12),
                    (1_080, 24),
                    (1_140, 12),
                    (1_320, 12),
                    (1_860, 139),
                    (1_920, 66),
                    (1_980, 36),
                    (2_040, 30),
                    (2_100, 6),
                    (3_780, 36),
                    (3_840, 18),
                    (3_900, 6),
                    (4_200, 6),
                    (4_320, 6),
                    (5_700, 12),
                ]),
            },
        ),
    ];
    for (seed, sched, degradation) in pinned {
        let run = run_fleet_campaign(&FleetCampaignConfig {
            seed,
            ..FleetCampaignConfig::queue_pressure_fleet(20_000)
        });
        assert_eq!(run.sched, sched, "seed {seed}: scheduler counters moved");
        assert_eq!(
            run.degradation, degradation,
            "seed {seed}: degradation tally moved"
        );
        assert_eq!(
            run.poll_gap_bounds,
            [Some(1), Some(2), Some(37)],
            "seed {seed}: poll-gap bounds moved"
        );
    }
}
