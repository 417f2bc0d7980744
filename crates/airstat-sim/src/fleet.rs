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
//! The run is exactly as deterministic as the engine: every AP's fault
//! and tunnel streams descend from `seed.child("fleet").indexed(i)`, the
//! admission wave order is the AP index order, and the scheduler itself
//! contains no randomness. `tests/scheduler.rs` runs this at 100k APs
//! and asserts evictions occur, the accounting identity holds with the
//! eviction terms, and no class's queue wait exceeds the pinned bound.

use airstat_stats::SeedTree;
use airstat_telemetry::poll::PollPolicy;
use airstat_telemetry::report::ReportPayload;
use airstat_telemetry::sched::{Admission, SchedConfig, SchedStats, Scheduler};
use airstat_telemetry::transport::{DeviceAgent, TunnelConfig};

use crate::faults::{DegradationTally, FaultIntensity, FaultedEndpoint};

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
    /// [`crate::faults::FaultSchedule::queue_pressure_fleet`] cohort mix
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
#[derive(Debug)]
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
    let seed = SeedTree::new(config.seed).child("fleet");
    let mut sched: Scheduler<FaultedEndpoint> = Scheduler::new(SchedConfig {
        policy: config.policy,
        tick_poll_budget: config.tick_poll_budget.max(1),
        capacity: config.sched_capacity,
    });
    let mut degradation = DegradationTally::default();
    let mut next_ap = 0usize;
    let admit_wave = config.admit_per_tick.max(1);

    while next_ap < config.aps || sched.live() > 0 {
        let wave_end = (next_ap + admit_wave).min(config.aps);
        while next_ap < wave_end {
            let ap = next_ap as u64;
            next_ap += 1;
            let node = seed.indexed(ap);
            let mut agent = DeviceAgent::with_capacity(ap + 1, config.device_capacity);
            for t in 0..config.reports_per_ap {
                agent.submit(t * 60, ReportPayload::Usage(vec![]));
            }
            let endpoint =
                FaultedEndpoint::new(&config.intensity, config.base, &node, "mr-25.9", agent);
            match sched.admit(ap, endpoint.priority(), endpoint) {
                Admission::Admitted => {}
                Admission::Deduped(_) => {
                    unreachable!("AP indices are unique, dedup cannot fire")
                }
                Admission::Rejected(endpoint) => {
                    // The scheduler already tallied the rejection as a
                    // LOW eviction; the reports it queued were submitted
                    // and destroyed without ever being polled.
                    degradation.submitted += endpoint.agent().reports_submitted();
                    degradation.dropped_overflow += endpoint.agent().dropped_overflow();
                }
            }
        }
        sched.tick();
        account_finished(&mut sched, &mut degradation);
    }
    sched.run_to_completion();
    account_finished(&mut sched, &mut degradation);

    let stats = sched.stats().clone();
    degradation.record_evictions(&stats);
    let poll_gap_bounds = [
        sched.poll_gap_bound_ticks(airstat_telemetry::sched::Priority::High),
        sched.poll_gap_bound_ticks(airstat_telemetry::sched::Priority::Normal),
        sched.poll_gap_bound_ticks(airstat_telemetry::sched::Priority::Low),
    ];
    FleetCampaignRun {
        degradation,
        sched: stats,
        poll_gap_bounds,
    }
}

/// Accounts every drain the scheduler has finished so far, keeping the
/// scheduler's `finished` list (and its memory) from growing with the
/// fleet.
fn account_finished(sched: &mut Scheduler<FaultedEndpoint>, degradation: &mut DegradationTally) {
    for drain in sched.drain_finished() {
        // An evicted drain's `undelivered` is already in the scheduler's
        // `evicted_reports` counter, recorded into `lost_to_eviction` at
        // the end of the run.
        degradation.absorb_faulted(&drain);
        // The fleet has no backend behind it; a delivered, non-redelivered
        // report is an accepted report.
        degradation.accepted += drain.stats.delivered - drain.stats.redelivered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
