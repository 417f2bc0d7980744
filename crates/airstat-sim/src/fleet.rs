//! Scheduler-level fleet campaigns: one [`Scheduler`] over 100k+ APs.
//!
//! The engine ([`crate::engine`]) drains each agent on its own solo
//! scheduler, which is what keeps campaign output byte-identical across
//! thread counts — but it can never create *queue pressure*, because a
//! solo scheduler has nothing to evict. This module is where pressure
//! lives: a single shared scheduler admits a whole heterogeneous fleet
//! (healthy / degraded / outage-recovering cohorts, resolved per AP from
//! its fault stream), a bounded admission capacity forces LOW-priority
//! evictions, and a per-tick poll budget makes the fairness quotas and
//! the poll-gap bound observable at fleet scale.
//!
//! Under that pressure most admissions are shed before their first
//! round, so the scheduler holds each AP as a recipe — its index, its
//! seed node and the config — and builds the agent and its
//! [`FaultedEndpoint`] at the first poll. The recipe's drain class comes
//! at admission from the same first fault-stream draw the built endpoint
//! makes, and until it is built it answers the scheduler's pre-poll
//! calls as the built AP would; an AP shed unbuilt is tallied from the
//! recipe. A `#[cfg(test)]` copy of the loop that builds every AP at
//! admission is the oracle the recipes are held to, run for run.
//!
//! The run is exactly as deterministic as the engine: every AP's fault
//! and tunnel streams descend from `seed.child("fleet").indexed(i)`, the
//! admission wave order is the AP index order, and the scheduler itself
//! contains no randomness. `tests/scheduler.rs` runs this at 100k APs
//! and asserts evictions occur, the accounting identity holds with the
//! eviction terms, and no class's queue wait exceeds the pinned bound.

use airstat_stats::SeedTree;
use airstat_telemetry::poll::PollPolicy;
use airstat_telemetry::report::ReportPayload;
use airstat_telemetry::sched::{
    Admission, CompletedDrain, PollEndpoint, Priority, RoundOutcome, SchedConfig, SchedStats,
    Scheduler,
};
use airstat_telemetry::transport::{DeviceAgent, TunnelConfig};

use crate::faults::{
    resolve_cohort_stream, DegradationTally, EndpointCounters, FaultIntensity, FaultedEndpoint,
};

/// Configuration for one scheduler-level fleet campaign.
#[derive(Debug, Clone)]
pub struct FleetCampaignConfig {
    /// APs admitted over the campaign.
    pub aps: usize,
    /// Root seed; same seed, same campaign, byte for byte.
    pub seed: u64,
    /// Reports each AP submits before admission.
    pub reports_per_ap: u64,
    /// The fault intensity every AP resolves its cohort from.
    pub intensity: FaultIntensity,
    /// The poll policy every admitted AP runs under.
    pub policy: PollPolicy,
    /// Device queue capacity per AP (must exceed `reports_per_ap + 1` so
    /// the crash report never overflows — overflow is the engine
    /// campaigns' axis, not this one's).
    pub device_capacity: usize,
    /// Scheduler admission capacity; admissions beyond it evict the
    /// oldest LOW AP. `None` disables pressure entirely.
    pub sched_capacity: Option<usize>,
    /// APs admitted per scheduler tick (the arrival wave).
    pub admit_per_tick: usize,
    /// APs polled per scheduler tick.
    pub tick_poll_budget: usize,
    /// Base tunnel fault configuration cohort intensities add onto.
    pub base: TunnelConfig,
}

impl FleetCampaignConfig {
    /// The canned queue-pressure fleet at a given AP count: the
    /// `crate::faults::FaultSchedule::queue_pressure_fleet` cohort mix
    /// with an admission capacity and tick budget sized so arrival
    /// outpaces drain — sustained pressure, sustained evictions.
    pub fn queue_pressure_fleet(aps: usize) -> Self {
        FleetCampaignConfig {
            aps,
            seed: 0x00F1_EE70_2015,
            reports_per_ap: 6,
            intensity: crate::faults::FaultSchedule::queue_pressure_fleet()
                .intensity(crate::config::WINDOW_JAN_2015)
                .clone(),
            policy: PollPolicy::default(),
            device_capacity: 16,
            sched_capacity: Some(2048),
            admit_per_tick: 512,
            tick_poll_budget: 384,
            base: TunnelConfig {
                drop_probability: 0.01,
                poll_batch: 4,
            },
        }
    }
}

/// What one fleet campaign produced.
#[derive(Debug, PartialEq)]
pub struct FleetCampaignRun {
    /// Campaign-wide degradation accounting, eviction terms included.
    pub degradation: DegradationTally,
    /// The shared scheduler's counters.
    pub sched: SchedStats,
    /// The per-class poll-gap bounds the run was held to
    /// (`ceil(max_ready_depth / guarantee)` ticks), indexed by
    /// [`airstat_telemetry::sched::Priority::index`]; `None` where the
    /// tick budget guarantees a class nothing.
    pub poll_gap_bounds: [Option<u64>; 3],
}

impl FleetCampaignRun {
    /// The eviction-era accounting identity: every submitted report is
    /// accepted, destroyed by overflow / crash / eviction, or still
    /// queued when its drain's budget ran out. Returns
    /// `(submitted, accounted)` — equal when the identity holds.
    pub fn accounting_identity(&self) -> (u64, u64) {
        let d = &self.degradation;
        (
            d.submitted,
            d.accepted + d.dropped_overflow + d.lost_to_crash + d.left_queued + d.lost_to_eviction,
        )
    }
}

/// Runs a fleet campaign: admit `admit_per_tick` APs per tick (in AP
/// index order), tick the shared scheduler until every AP has drained or
/// been evicted, and account every report's fate.
pub fn run_fleet_campaign(config: &FleetCampaignConfig) -> FleetCampaignRun {
    run_recipes(config, |_| {})
}

/// [`run_fleet_campaign`], showing `inspect` every finished drain before
/// it is tallied.
fn run_recipes<'c>(
    config: &'c FleetCampaignConfig,
    mut inspect: impl FnMut(&CompletedDrain<Recipe<'c>>),
) -> FleetCampaignRun {
    let seed = SeedTree::new(config.seed).child("fleet");
    let mut sched: Scheduler<Recipe<'c>> = Scheduler::new(SchedConfig {
        policy: config.policy,
        tick_poll_budget: config.tick_poll_budget.max(1),
        capacity: config.sched_capacity,
    });
    let mut degradation = DegradationTally::default();
    let mut next_ap = 0usize;
    let admit_wave = config.admit_per_tick.max(1);
    let mut account = |sched: &mut Scheduler<Recipe<'c>>, degradation: &mut DegradationTally| {
        for drain in sched.drain_finished() {
            inspect(&drain);
            // An evicted drain's `undelivered` is already in the
            // scheduler's `evicted_reports` counter, recorded into
            // `lost_to_eviction` at the end of the run.
            degradation.absorb_faulted(&drain, drain.endpoint.counters());
            // The fleet has no backend behind it; a delivered,
            // non-redelivered report is an accepted report.
            degradation.accepted += drain.stats.delivered - drain.stats.redelivered;
        }
    };

    while next_ap < config.aps || sched.live() > 0 {
        let wave_end = (next_ap + admit_wave).min(config.aps);
        while next_ap < wave_end {
            let ap = next_ap as u64;
            next_ap += 1;
            let (recipe, priority) = Recipe::new(config, ap, seed.indexed(ap));
            match sched.admit(ap, priority, recipe) {
                Admission::Admitted => {}
                Admission::Deduped(_) => {
                    unreachable!("AP indices are unique, dedup cannot fire")
                }
                Admission::Rejected(recipe) => {
                    // The scheduler already tallied the rejection as a
                    // LOW eviction; the reports the AP queued were
                    // submitted and destroyed without ever being polled.
                    let counters = recipe.counters();
                    degradation.submitted += counters.submitted;
                    degradation.dropped_overflow += counters.dropped_overflow;
                }
            }
        }
        sched.tick();
        account(&mut sched, &mut degradation);
    }
    sched.run_to_completion();
    account(&mut sched, &mut degradation);
    finish(&sched, degradation)
}

/// The run record: the scheduler's counters, their eviction terms folded
/// into the tally, and the poll-gap bounds.
fn finish<E: PollEndpoint>(
    sched: &Scheduler<E>,
    mut degradation: DegradationTally,
) -> FleetCampaignRun {
    let stats = sched.stats().clone();
    degradation.record_evictions(&stats);
    FleetCampaignRun {
        degradation,
        sched: stats,
        poll_gap_bounds: Priority::ALL.map(|class| sched.poll_gap_bound_ticks(class)),
    }
}

/// One AP as the shared scheduler holds it until its first poll: what
/// building it takes, not the built AP. Most admissions under pressure
/// are shed before a first round, and a recipe sheds for the cost of a
/// slot — no agent queue, no endpoint.
///
/// Everything a recipe answers before it is built is what the built AP
/// would answer: its agent would hold `min(reports_per_ap,
/// device_capacity)` reports, none delivered, and its tunnels would have
/// polled nothing. The scheduler calls nothing else before a first round
/// (the pre-poll contract on [`PollEndpoint`]).
#[derive(Debug)]
struct Recipe<'c> {
    config: &'c FleetCampaignConfig,
    ap: u64,
    node: SeedTree,
    /// The endpoint, from the first [`PollEndpoint::poll_round`] on.
    /// Boxed, so an unbuilt recipe's slot stays small.
    built: Option<Box<FaultedEndpoint>>,
}

impl<'c> Recipe<'c> {
    /// AP `ap`'s recipe and its drain class, which the same first
    /// fault-stream draw resolves as the built endpoint's would.
    fn new(config: &'c FleetCampaignConfig, ap: u64, node: SeedTree) -> (Self, Priority) {
        let priority = resolve_cohort_stream(&config.intensity, &node)
            .0
            .priority_class();
        let recipe = Recipe {
            config,
            ap,
            node,
            built: None,
        };
        (recipe, priority)
    }

    /// What an unbuilt AP's agent would hold.
    fn queued_unbuilt(&self) -> u64 {
        self.config
            .reports_per_ap
            .min(self.config.device_capacity as u64)
    }

    /// What the tally folds: the built endpoint's counters, or those
    /// the unbuilt AP's agent would hold — every report submitted, the
    /// oldest beyond the queue's capacity overflowed, nothing else.
    fn counters(&self) -> EndpointCounters {
        match &self.built {
            Some(endpoint) => endpoint.counters(),
            None => EndpointCounters {
                submitted: self.config.reports_per_ap,
                dropped_overflow: self
                    .config
                    .reports_per_ap
                    .saturating_sub(self.config.device_capacity as u64),
                ..EndpointCounters::default()
            },
        }
    }
}

/// AP `ap` built: its agent with `reports_per_ap` empty usage reports
/// queued, wrapped in its faulted endpoint.
fn build_endpoint(config: &FleetCampaignConfig, ap: u64, node: &SeedTree) -> FaultedEndpoint {
    let mut agent = DeviceAgent::with_capacity(ap + 1, config.device_capacity);
    for t in 0..config.reports_per_ap {
        agent.submit(t * 60, ReportPayload::Usage(vec![]));
    }
    FaultedEndpoint::new(&config.intensity, config.base, node, "mr-25.9", agent)
}

impl PollEndpoint for Recipe<'_> {
    fn poll_round(&mut self, now_s: u64) -> RoundOutcome {
        let (config, ap, node) = (self.config, self.ap, &self.node);
        self.built
            .get_or_insert_with(|| Box::new(build_endpoint(config, ap, node)))
            .poll_round(now_s)
    }

    fn pending(&self) -> bool {
        self.built
            .as_ref()
            .map_or(self.queued_unbuilt() > 0, |e| e.pending())
    }

    fn continue_after_failure(&self) -> bool {
        self.pending()
    }

    fn queued(&self) -> u64 {
        self.built
            .as_ref()
            .map_or(self.queued_unbuilt(), |e| e.queued())
    }

    fn undelivered(&self) -> u64 {
        self.built
            .as_ref()
            .map_or(self.queued_unbuilt(), |e| e.undelivered())
    }

    fn polls_attempted(&self) -> u64 {
        self.built.as_ref().map_or(0, |e| e.polls_attempted())
    }

    fn bytes_transferred(&self) -> u64 {
        self.built.as_ref().map_or(0, |e| e.bytes_transferred())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wave loop as it ran before recipes: every AP built at
    /// admission. The oracle [`run_fleet_campaign`] is held to.
    fn run_eager(config: &FleetCampaignConfig) -> FleetCampaignRun {
        let seed = SeedTree::new(config.seed).child("fleet");
        let mut sched: Scheduler<FaultedEndpoint> = Scheduler::new(SchedConfig {
            policy: config.policy,
            tick_poll_budget: config.tick_poll_budget.max(1),
            capacity: config.sched_capacity,
        });
        let mut degradation = DegradationTally::default();
        let mut next_ap = 0usize;
        let admit_wave = config.admit_per_tick.max(1);
        let account = |sched: &mut Scheduler<FaultedEndpoint>, d: &mut DegradationTally| {
            for drain in sched.drain_finished() {
                d.absorb_faulted(&drain, drain.endpoint.counters());
                d.accepted += drain.stats.delivered - drain.stats.redelivered;
            }
        };
        while next_ap < config.aps || sched.live() > 0 {
            let wave_end = (next_ap + admit_wave).min(config.aps);
            while next_ap < wave_end {
                let ap = next_ap as u64;
                next_ap += 1;
                let endpoint = build_endpoint(config, ap, &seed.indexed(ap));
                match sched.admit(ap, endpoint.priority(), endpoint) {
                    Admission::Admitted => {}
                    Admission::Deduped(_) => unreachable!("AP indices are unique"),
                    Admission::Rejected(endpoint) => {
                        degradation.submitted += endpoint.agent().reports_submitted();
                        degradation.dropped_overflow += endpoint.agent().dropped_overflow();
                    }
                }
            }
            sched.tick();
            account(&mut sched, &mut degradation);
        }
        sched.run_to_completion();
        account(&mut sched, &mut degradation);
        finish(&sched, degradation)
    }

    #[test]
    fn recipes_run_every_campaign_as_the_eager_build() {
        let exhausts_unpolled = PollPolicy {
            poll_budget: 0,
            ..PollPolicy::default()
        };
        let one_round = PollPolicy {
            poll_budget: 1,
            ..PollPolicy::default()
        };
        // Drains finished unpolled: evicted, out of budget, and all of
        // them; then drains polled, and LOW newcomers rejected.
        let (mut evicted_unbuilt, mut exhausted_unbuilt, mut unbuilt) = (0, 0, 0);
        let (mut built, mut rejected) = (0, 0);
        for seed in [1, 2] {
            for reports_per_ap in [0, 1, 6, 20] {
                for device_capacity in [4, 16] {
                    for sched_capacity in [None, Some(8)] {
                        for policy in [PollPolicy::default(), one_round, exhausts_unpolled] {
                            let config = FleetCampaignConfig {
                                seed,
                                reports_per_ap,
                                device_capacity,
                                sched_capacity,
                                policy,
                                admit_per_tick: 16,
                                tick_poll_budget: 8,
                                ..FleetCampaignConfig::queue_pressure_fleet(120)
                            };
                            let mut evicted = 0;
                            let lazy = run_recipes(&config, |drain| {
                                let polled = drain.stats.polls > 0;
                                assert_eq!(
                                    drain.endpoint.built.is_some(),
                                    polled,
                                    "AP {}: built exactly when polled ({config:?})",
                                    drain.key
                                );
                                evicted += u64::from(drain.evicted);
                                if polled {
                                    built += 1;
                                } else {
                                    unbuilt += 1;
                                    evicted_unbuilt += u64::from(drain.evicted);
                                    exhausted_unbuilt += u64::from(drain.stats.budget_exhausted);
                                }
                            });
                            assert_eq!(lazy, run_eager(&config), "{config:?}");
                            rejected += lazy.sched.evicted_aps[2] - evicted;
                        }
                    }
                }
            }
        }
        // A grid edit must not quietly skip a path an unbuilt AP takes.
        let seen = [evicted_unbuilt, exhausted_unbuilt, unbuilt, built, rejected];
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    }

    #[test]
    fn small_fleet_campaign_is_deterministic_and_balanced() {
        let config = FleetCampaignConfig {
            aps: 600,
            sched_capacity: Some(128),
            admit_per_tick: 64,
            tick_poll_budget: 32,
            ..FleetCampaignConfig::queue_pressure_fleet(600)
        };
        let a = run_fleet_campaign(&config);
        let b = run_fleet_campaign(&config);
        assert_eq!(a.degradation, b.degradation);
        assert_eq!(a.sched, b.sched);
        assert!(a.sched.evictions() > 0, "pressure must evict");
        assert_eq!(
            a.sched.evicted_aps[0], 0,
            "HIGH-priority APs are never evicted"
        );
        assert_eq!(
            a.sched.evicted_aps[1], 0,
            "NORMAL-priority APs are never evicted"
        );
        let (submitted, accounted) = a.accounting_identity();
        assert_eq!(submitted, accounted, "accounting identity under eviction");
        assert!(a.degradation.lost_to_eviction > 0);
    }

    #[test]
    fn unbounded_fleet_never_evicts() {
        let config = FleetCampaignConfig {
            aps: 300,
            sched_capacity: None,
            ..FleetCampaignConfig::queue_pressure_fleet(300)
        };
        let run = run_fleet_campaign(&config);
        assert_eq!(run.sched.evictions(), 0);
        assert_eq!(run.degradation.lost_to_eviction, 0);
        let (submitted, accounted) = run.accounting_identity();
        assert_eq!(submitted, accounted);
    }
}
