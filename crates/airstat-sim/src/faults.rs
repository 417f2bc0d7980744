//! Deterministic fault-injection campaigns.
//!
//! The paper's pipeline is *designed* to degrade gracefully: devices queue
//! reports while offline, the backend re-polls with backoff, a second
//! data center absorbs outages, and sequence-number dedup makes all the
//! retries safe (§2). This module drives that machinery at fleet scale
//! with a scripted [`FaultSchedule`]: per measurement window it injects
//!
//! * **tunnel flaps** — short primary-tunnel losses a failover absorbs;
//! * **datacenter outages** — a primary-DC outage spanning several poll
//!   rounds, with a burst re-poll storm when the primary recovers;
//! * **AP crash/reboot cycles** — the in-RAM report queue is lost, a
//!   crash report follows the reboot;
//! * **queue-overflow pressure** — a tightened device queue capacity so
//!   backlogs overflow (oldest-first) during faults;
//! * **burst re-poll storms** — speculative, unacknowledged re-polls
//!   whose redeliveries the backend must deduplicate;
//!
//! plus elevated poll loss and lost acknowledgements. Every fault draw
//! descends from the per-agent `SeedTree` node (`child("faults")`), a
//! stream disjoint from the tunnel's (`child("tunnel")`), so campaigns
//! compose with the parallel engine: any thread count replays the same
//! faults, and a [`FaultSchedule::zero`] campaign is byte-identical to a
//! run with no schedule at all — the differential test in
//! `tests/fault_campaigns.rs` pins both properties.

use airstat_stats::SeedTree;
use airstat_telemetry::backend::WindowId;
use airstat_telemetry::crash::RebootReason;
use airstat_telemetry::failover::{DataCenter, DualTunnel};
use airstat_telemetry::poll::{DrainStats, LatencyHistogram, PollPolicy};
use airstat_telemetry::report::{CrashRecord, ReportPayload};
use airstat_telemetry::sched::{CompletedDrain, PollEndpoint, Priority, RoundOutcome, SchedStats};
use airstat_telemetry::transport::{DeviceAgent, PollOutcome, TunnelConfig};
use rand::rngs::SmallRng;
use rand::Rng;

/// Consecutive primary failures before a campaign drain fails over.
pub const FAILOVER_THRESHOLD: u32 = 2;

/// Fault intensities for one measurement window.
///
/// Every probability is per fault *opportunity* (per agent for one-shot
/// events like outages and crashes, per poll round for flaps and lost
/// acks); zero disables the fault entirely, and [`FaultIntensity::zero`]
/// disables everything.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultIntensity {
    /// Poll-loss probability *added* to the engine's base
    /// `poll_drop_probability` (capped at 0.95 overall).
    pub extra_drop_probability: f64,
    /// Probability a delivered poll's acknowledgement is lost, forcing a
    /// retransmission the backend must dedup.
    pub ack_loss_probability: f64,
    /// Per-round probability the primary tunnel flaps.
    pub flap_probability: f64,
    /// Poll rounds a flap keeps the primary down.
    pub flap_rounds: u32,
    /// Probability this agent's drain overlaps the primary-DC outage.
    pub dc_outage_probability: f64,
    /// Poll rounds the outage lasts.
    pub dc_outage_rounds: u32,
    /// Unacknowledged re-polls fired when the primary DC recovers (the
    /// catch-up storm) or a spontaneous storm triggers.
    pub repoll_burst: u32,
    /// Per-agent probability of a spontaneous re-poll storm.
    pub storm_probability: f64,
    /// Per-agent probability of one crash/reboot cycle mid-drain.
    pub crash_probability: f64,
    /// Device queue capacity override (overflow pressure); `None` keeps
    /// [`DeviceAgent::DEFAULT_CAPACITY`].
    pub queue_capacity: Option<usize>,
    /// Poll batch-size override; smaller batches stretch drains across
    /// more rounds so faults and backlogs interact. `None` keeps the
    /// engine default.
    pub poll_batch: Option<usize>,
    /// Heterogeneous-fleet cohorts: `(weight, intensity)` pairs an agent
    /// resolves *once*, up front, from its fault stream — weights are
    /// cumulative probabilities over `[0, 1)`, any remainder falling back
    /// to this intensity's own knobs. Empty (the default) draws nothing,
    /// which keeps zero schedules byte-identical to no schedule at all.
    /// One level deep: a cohort's own `cohorts` list is ignored.
    pub cohorts: Vec<(f64, FaultIntensity)>,
}

impl FaultIntensity {
    /// No faults at all.
    pub fn zero() -> Self {
        FaultIntensity {
            extra_drop_probability: 0.0,
            ack_loss_probability: 0.0,
            flap_probability: 0.0,
            flap_rounds: 0,
            dc_outage_probability: 0.0,
            dc_outage_rounds: 0,
            repoll_burst: 0,
            storm_probability: 0.0,
            crash_probability: 0.0,
            queue_capacity: None,
            poll_batch: None,
            cohorts: Vec::new(),
        }
    }

    /// Resolves the cohort this agent belongs to. With no cohorts the
    /// intensity itself is returned **without consuming any randomness**
    /// — the byte-identity contract for homogeneous schedules. With
    /// cohorts, exactly one `f64` is drawn and matched against the
    /// cumulative weights; leftover probability mass falls back to the
    /// base intensity.
    pub fn resolve_cohort<'a, R: Rng + ?Sized>(&'a self, rng: &mut R) -> &'a FaultIntensity {
        if self.cohorts.is_empty() {
            return self;
        }
        let draw = rng.gen::<f64>();
        let mut cumulative = 0.0;
        for (weight, intensity) in &self.cohorts {
            cumulative += weight;
            if draw < cumulative {
                return intensity;
            }
        }
        self
    }

    /// The scheduler class this intensity's agents drain at: APs riding
    /// out a DC outage are [`Priority::High`] (oldest backlog, drain
    /// first), any other degradation is [`Priority::Normal`], and a fully
    /// healthy AP is [`Priority::Low`] — the only evictable class.
    pub(crate) fn priority_class(&self) -> Priority {
        if self.dc_outage_probability > 0.0 {
            Priority::High
        } else if self.extra_drop_probability > 0.0
            || self.ack_loss_probability > 0.0
            || self.flap_probability > 0.0
            || self.storm_probability > 0.0
            || self.crash_probability > 0.0
        {
            Priority::Normal
        } else {
            Priority::Low
        }
    }
}

/// A named, per-window fault schedule for one campaign.
///
/// Schedules are plain data: a default [`FaultIntensity`] plus optional
/// per-window overrides, and the [`PollPolicy`] the backend uses while
/// the campaign runs. Three canned scenarios cover the degradation axes
/// (`FaultSchedule::tunnel_loss`, `FaultSchedule::dc_outage`,
/// `FaultSchedule::queue_pressure`); [`FaultSchedule::zero`] is the
/// control arm.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    name: String,
    policy: PollPolicy,
    default: FaultIntensity,
    overrides: Vec<(WindowId, FaultIntensity)>,
}

/// The canned scenario names [`FaultSchedule::by_name`] accepts.
pub const SCENARIO_NAMES: [&str; 5] = [
    "zero",
    "tunnel-loss",
    "dc-outage",
    "queue-pressure",
    "queue-pressure-fleet",
];

impl FaultSchedule {
    /// A schedule from parts.
    pub fn new(
        name: impl Into<String>,
        policy: PollPolicy,
        default: FaultIntensity,
        overrides: Vec<(WindowId, FaultIntensity)>,
    ) -> Self {
        FaultSchedule {
            name: name.into(),
            policy,
            default,
            overrides,
        }
    }

    /// The control schedule: zero intensity everywhere. Running it must
    /// reproduce a no-schedule run byte for byte.
    pub fn zero() -> Self {
        FaultSchedule::new(
            "zero",
            PollPolicy::default(),
            FaultIntensity::zero(),
            Vec::new(),
        )
    }

    /// Scenario 1 — chronic transport loss: elevated poll drops, lost
    /// acks, and short tunnel flaps in every window. Nothing is ever
    /// destroyed, so completeness stays at 100% while duplicates and
    /// latency climb.
    pub(crate) fn tunnel_loss() -> Self {
        FaultSchedule::new(
            "tunnel-loss",
            PollPolicy::default(),
            FaultIntensity {
                extra_drop_probability: 0.25,
                ack_loss_probability: 0.10,
                flap_probability: 0.08,
                flap_rounds: 2,
                poll_batch: Some(16),
                ..FaultIntensity::zero()
            },
            Vec::new(),
        )
    }

    /// Scenario 2 — tunnel loss plus one primary-DC outage during the
    /// January 2015 windows, with a catch-up re-poll storm on recovery
    /// and tightened device queues; the 2014 windows see only the
    /// background loss. Expect `duplicates_dropped > 0` and completeness
    /// below 100% (queue overflow while the backlog waits out the
    /// outage).
    pub(crate) fn dc_outage() -> Self {
        let background = FaultIntensity {
            extra_drop_probability: 0.15,
            ack_loss_probability: 0.08,
            flap_probability: 0.05,
            flap_rounds: 2,
            poll_batch: Some(8),
            ..FaultIntensity::zero()
        };
        let outage = FaultIntensity {
            dc_outage_probability: 1.0,
            dc_outage_rounds: 4,
            repoll_burst: 2,
            queue_capacity: Some(24),
            ..background.clone()
        };
        FaultSchedule::new(
            "dc-outage",
            PollPolicy::default(),
            background,
            vec![(crate::config::WINDOW_JAN_2015, outage)],
        )
    }

    /// Scenario 3 — resource exhaustion: tiny device queues, frequent
    /// crash/reboot cycles, and spontaneous re-poll storms. Completeness
    /// drops on every axis (overflow, crash loss) and the dedup layer
    /// works hardest.
    pub(crate) fn queue_pressure() -> Self {
        FaultSchedule::new(
            "queue-pressure",
            PollPolicy::default(),
            FaultIntensity {
                extra_drop_probability: 0.05,
                ack_loss_probability: 0.05,
                crash_probability: 0.30,
                storm_probability: 0.25,
                repoll_burst: 3,
                queue_capacity: Some(12),
                poll_batch: Some(8),
                ..FaultIntensity::zero()
            },
            Vec::new(),
        )
    }

    /// Scenario 4 — a heterogeneous fleet under the scheduler: ~70% of
    /// agents resolve to a healthy cohort ([`Priority::Low`]), ~20% to a
    /// degraded cohort with loss, lost acks, and crashes
    /// ([`Priority::Normal`]), and ~10% to an outage-recovering cohort
    /// ([`Priority::High`]) whose backlog drains first. This is the
    /// scenario the 100k-AP fairness and eviction campaigns run
    /// (`airstat_sim::fleet::run_fleet_campaign`), and under the engine
    /// it exercises cohort resolution with per-class drain priorities.
    pub(crate) fn queue_pressure_fleet() -> Self {
        let degraded = FaultIntensity {
            extra_drop_probability: 0.20,
            ack_loss_probability: 0.10,
            flap_probability: 0.05,
            flap_rounds: 2,
            crash_probability: 0.10,
            storm_probability: 0.10,
            repoll_burst: 2,
            poll_batch: Some(8),
            ..FaultIntensity::zero()
        };
        let recovering = FaultIntensity {
            extra_drop_probability: 0.10,
            dc_outage_probability: 1.0,
            dc_outage_rounds: 4,
            repoll_burst: 2,
            poll_batch: Some(8),
            ..FaultIntensity::zero()
        };
        FaultSchedule::new(
            "queue-pressure-fleet",
            PollPolicy::default(),
            FaultIntensity {
                cohorts: vec![(0.20, degraded), (0.10, recovering)],
                ..FaultIntensity::zero()
            },
            Vec::new(),
        )
    }

    /// Looks a canned scenario up by its CLI name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "zero" => Some(FaultSchedule::zero()),
            "tunnel-loss" => Some(FaultSchedule::tunnel_loss()),
            "dc-outage" => Some(FaultSchedule::dc_outage()),
            "queue-pressure" => Some(FaultSchedule::queue_pressure()),
            "queue-pressure-fleet" => Some(FaultSchedule::queue_pressure_fleet()),
            _ => None,
        }
    }

    /// The schedule's name (scenario label in the degradation report).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The backend poll policy campaigns run under.
    pub fn policy(&self) -> PollPolicy {
        self.policy
    }

    /// The intensity for a measurement window (override or default).
    pub fn intensity(&self, window: WindowId) -> &FaultIntensity {
        self.overrides
            .iter()
            .find(|(w, _)| *w == window)
            .map(|(_, i)| i)
            .unwrap_or(&self.default)
    }
}

/// Campaign-wide degradation accounting, merged across every drained
/// agent in deterministic unit order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationTally {
    /// Reports submitted by device agents (completeness denominator).
    pub submitted: u64,
    /// Unique reports the backend accepted (completeness numerator).
    pub accepted: u64,
    /// Reports destroyed by queue overflow (oldest-first eviction).
    pub dropped_overflow: u64,
    /// Reports destroyed by crash/reboot cycles (in-RAM queue loss).
    pub lost_to_crash: u64,
    /// Reports still queued when a drain's poll budget ran out.
    pub left_queued: u64,
    /// Never-delivered reports destroyed when the scheduler evicted (or
    /// rejected) their AP under queue pressure.
    pub lost_to_eviction: u64,
    /// HIGH-priority APs evicted (always 0: the scheduler never evicts
    /// this class — rendered so the report proves it).
    pub evicted_high: u64,
    /// NORMAL-priority APs evicted (always 0, as above).
    pub evicted_normal: u64,
    /// LOW-priority APs evicted or rejected under queue pressure.
    pub evicted_low: u64,
    /// Crash/reboot cycles injected.
    pub crash_reboots: u64,
    /// Poll rounds across all agents.
    pub polls: u64,
    /// Poll rounds lost to transport faults.
    pub polls_lost: u64,
    /// Poll rounds that found every usable tunnel down.
    pub disconnected_polls: u64,
    /// Primary→secondary failover transitions.
    pub failovers: u64,
    /// Delivered polls served by the secondary data center.
    pub secondary_served: u64,
    /// Reports redelivered on the wire (lost acks, re-poll storms);
    /// upper-bounds the backend's `duplicates_dropped`.
    pub redelivered: u64,
    /// Agents whose poll budget ran out before their queue drained.
    pub budget_exhausted_agents: u64,
    /// Report delivery latency in virtual seconds since each drain began.
    pub latency: LatencyHistogram,
}

impl DegradationTally {
    /// Folds one drain's transport stats in.
    pub fn absorb(&mut self, stats: &DrainStats) {
        self.polls += stats.polls;
        self.polls_lost += stats.lost;
        self.disconnected_polls += stats.disconnected;
        self.redelivered += stats.redelivered;
        self.budget_exhausted_agents += u64::from(stats.budget_exhausted);
        self.latency.merge(&stats.latency);
    }

    /// Folds one finished faulted drain in: its transport stats, its
    /// endpoint's own counters, and what a spent poll budget left
    /// undelivered. `accepted` and the eviction terms stay with the
    /// caller — they depend on what sits behind the scheduler. The one
    /// fold for the engine's solo drains and the shared fleet's alike.
    pub(crate) fn absorb_faulted<E>(
        &mut self,
        drain: &CompletedDrain<E>,
        counters: EndpointCounters,
    ) {
        self.absorb(&drain.stats);
        self.submitted += counters.submitted;
        self.dropped_overflow += counters.dropped_overflow;
        self.lost_to_crash += counters.crash_lost;
        self.crash_reboots += counters.crash_reboots;
        self.failovers += counters.failovers;
        self.secondary_served += counters.secondary_served;
        if drain.stats.budget_exhausted {
            self.left_queued += drain.undelivered;
        }
    }

    /// Folds another tally in (panel → campaign merge).
    pub(crate) fn merge(&mut self, other: &DegradationTally) {
        self.submitted += other.submitted;
        self.accepted += other.accepted;
        self.dropped_overflow += other.dropped_overflow;
        self.lost_to_crash += other.lost_to_crash;
        self.left_queued += other.left_queued;
        self.lost_to_eviction += other.lost_to_eviction;
        self.evicted_high += other.evicted_high;
        self.evicted_normal += other.evicted_normal;
        self.evicted_low += other.evicted_low;
        self.crash_reboots += other.crash_reboots;
        self.polls += other.polls;
        self.polls_lost += other.polls_lost;
        self.disconnected_polls += other.disconnected_polls;
        self.failovers += other.failovers;
        self.secondary_served += other.secondary_served;
        self.redelivered += other.redelivered;
        self.budget_exhausted_agents += other.budget_exhausted_agents;
        self.latency.merge(&other.latency);
    }

    /// Data completeness: unique accepted reports over submitted reports
    /// (1.0 for an empty campaign).
    pub fn completeness(&self) -> f64 {
        if self.submitted == 0 {
            1.0
        } else {
            self.accepted as f64 / self.submitted as f64
        }
    }

    /// Folds a scheduler's eviction counters in.
    pub fn record_evictions(&mut self, sched: &SchedStats) {
        self.evicted_high += sched.evicted_aps[Priority::High.index()];
        self.evicted_normal += sched.evicted_aps[Priority::Normal.index()];
        self.evicted_low += sched.evicted_aps[Priority::Low.index()];
        self.lost_to_eviction += sched.evicted_reports;
    }
}

/// What one faulted AP's own counters add to a [`DegradationTally`]:
/// its agent's submissions and overflow, its crash, its failovers.
#[derive(Debug, Default)]
pub(crate) struct EndpointCounters {
    pub(crate) submitted: u64,
    pub(crate) dropped_overflow: u64,
    pub(crate) crash_lost: u64,
    pub(crate) crash_reboots: u64,
    pub(crate) failovers: u64,
    pub(crate) secondary_served: u64,
}

/// The first draw of an AP's fault stream: `node`'s `child("faults")`
/// RNG and the cohort that draw resolves (none is drawn for a
/// homogeneous intensity). Everything an AP's faults and drain class
/// depend on starts here, so an AP can be classed without being built.
pub(crate) fn resolve_cohort_stream<'a>(
    intensity: &'a FaultIntensity,
    node: &SeedTree,
) -> (&'a FaultIntensity, SmallRng) {
    let mut fault_rng = node.child("faults").rng();
    let intensity = intensity.resolve_cohort(&mut fault_rng);
    (intensity, fault_rng)
}

/// A fault-injecting AP endpoint the scheduler can drain: a
/// [`DualTunnel`] plus the scripted faults of one [`FaultIntensity`],
/// one round per
/// [`Scheduler::tick`](airstat_telemetry::sched::Scheduler::tick) that
/// selects it. This is the only copy of the fault state machine.
///
/// Fault randomness comes from `node.child("faults")`, transport
/// randomness from `node.child("tunnel")` — the same stream the
/// no-schedule engine path uses, so a zero intensity consumes the tunnel
/// stream identically and reproduces its output byte for byte. The
/// endpoint owns both streams and its tunnels, so *when* the scheduler
/// polls it cannot change *what* any round does. Cohort membership (and
/// with it the drain [`Priority`]) is resolved at construction, from the
/// first fault-stream draw.
#[derive(Debug)]
pub struct FaultedEndpoint {
    // The resolved cohort's per-round knobs, copied out flat: an endpoint
    // owns no `FaultIntensity` (whose `cohorts` list it would never read).
    ack_loss_probability: f64,
    flap_probability: f64,
    flap_rounds: u32,
    repoll_burst: u32,
    agent: DeviceAgent,
    dual: DualTunnel,
    fault_rng: SmallRng,
    tunnel_rng: SmallRng,
    firmware: &'static str,
    priority: Priority,
    outage: Option<(u64, u64)>,
    crash_round: Option<u64>,
    storm_round: Option<u64>,
    highest_delivered: Option<u64>,
    crash_lost: u64,
    crash_reboots: u64,
    failovers: u64,
    last_dc: DataCenter,
    in_outage: bool,
    flap_left: u32,
    pending_burst: u32,
    round: u64,
}

impl FaultedEndpoint {
    /// Builds the endpoint and plans its one-shot events from the fault
    /// stream up front: cohort draw first (none for homogeneous
    /// schedules), then the outage, crash and storm rounds. Nothing is
    /// allocated here: the resolved cohort is read through the borrow and
    /// `firmware` is copied only if the endpoint files a crash report.
    pub fn new(
        intensity: &FaultIntensity,
        base: TunnelConfig,
        node: &SeedTree,
        firmware: &'static str,
        agent: DeviceAgent,
    ) -> Self {
        let (intensity, mut fault_rng) = resolve_cohort_stream(intensity, node);
        let tunnel_rng = node.child("tunnel").rng();
        let config = TunnelConfig {
            drop_probability: (base.drop_probability + intensity.extra_drop_probability).min(0.95),
            poll_batch: intensity.poll_batch.unwrap_or(base.poll_batch),
        };
        let dual = DualTunnel::new(config, FAILOVER_THRESHOLD);
        let outage = if intensity.dc_outage_probability > 0.0
            && fault_rng.gen::<f64>() < intensity.dc_outage_probability
        {
            let start = fault_rng.gen_range(0u64..2);
            Some((start, start + u64::from(intensity.dc_outage_rounds.max(1))))
        } else {
            None
        };
        let crash_round = if intensity.crash_probability > 0.0
            && fault_rng.gen::<f64>() < intensity.crash_probability
        {
            Some(fault_rng.gen_range(0u64..4))
        } else {
            None
        };
        let storm_round = if intensity.storm_probability > 0.0
            && fault_rng.gen::<f64>() < intensity.storm_probability
        {
            Some(fault_rng.gen_range(0u64..3))
        } else {
            None
        };
        let priority = intensity.priority_class();
        FaultedEndpoint {
            ack_loss_probability: intensity.ack_loss_probability,
            flap_probability: intensity.flap_probability,
            flap_rounds: intensity.flap_rounds,
            repoll_burst: intensity.repoll_burst,
            agent,
            dual,
            fault_rng,
            tunnel_rng,
            firmware,
            priority,
            outage,
            crash_round,
            storm_round,
            highest_delivered: None,
            crash_lost: 0,
            crash_reboots: 0,
            failovers: 0,
            last_dc: DataCenter::Primary,
            in_outage: false,
            flap_left: 0,
            pending_burst: 0,
            round: 0,
        }
    }

    /// The scheduler class the resolved cohort drains at.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Never-delivered reports destroyed by the injected crash: the
    /// cleared queue minus its delivered-but-unacked reports, which the
    /// backend already accepted — counting those again would break the
    /// accounting identity.
    pub fn crash_lost(&self) -> u64 {
        self.crash_lost
    }

    /// Crash/reboot cycles injected (0 or 1).
    pub fn crash_reboots(&self) -> u64 {
        self.crash_reboots
    }

    /// Primary→secondary failover transitions observed.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Delivered polls served by the secondary data center.
    pub fn secondary_served(&self) -> u64 {
        self.dual.served_by(DataCenter::Secondary)
    }

    /// Read access to the wrapped agent.
    pub fn agent(&self) -> &DeviceAgent {
        &self.agent
    }

    /// The counters [`DegradationTally::absorb_faulted`] folds.
    pub(crate) fn counters(&self) -> EndpointCounters {
        EndpointCounters {
            submitted: self.agent.reports_submitted(),
            dropped_overflow: self.agent.dropped_overflow(),
            crash_lost: self.crash_lost,
            crash_reboots: self.crash_reboots,
            failovers: self.failovers,
            secondary_served: self.secondary_served(),
        }
    }

    fn undelivered_count(&self) -> u64 {
        match self.highest_delivered {
            None => self.agent.queued() as u64,
            Some(h) => self.agent.queued_reports().filter(|r| r.seq > h).count() as u64,
        }
    }
}

impl PollEndpoint for FaultedEndpoint {
    fn poll_round(&mut self, now_s: u64) -> RoundOutcome {
        let round = self.round;
        // --- scripted fault events for this round ---
        if let Some((start, end)) = self.outage {
            if round == start {
                self.dual.outage(DataCenter::Primary);
                self.in_outage = true;
                self.flap_left = 0;
            }
            if round == end && self.in_outage {
                self.dual.restore(DataCenter::Primary);
                self.in_outage = false;
                // The catch-up storm: the recovered primary re-polls the
                // span it missed without waiting for ack state.
                self.pending_burst += self.repoll_burst;
            }
        }
        if self.crash_round == Some(round) && self.agent.queued() > 0 {
            self.crash_lost += self.undelivered_count();
            self.crash_reboots += 1;
            self.agent.crash_reboot();
            // A reboot wipes delivery state along with the queue: the
            // next sequence numbers restart above what was acked, and the
            // crash report itself is a fresh, undelivered submission.
            self.agent.submit(
                now_s,
                ReportPayload::Crash(vec![CrashRecord {
                    firmware: self.firmware.to_string(),
                    reason: RebootReason::Watchdog.code(),
                    program_counter: 0x40_0000 + self.fault_rng.gen_range(0u64..0x8_0000),
                    uptime_s: now_s,
                    free_memory_bytes: 4096,
                }]),
            );
        }
        if self.storm_round == Some(round) {
            self.pending_burst += self.repoll_burst.max(1);
        }
        if self.flap_left > 0 {
            self.flap_left -= 1;
            if self.flap_left == 0 && !self.in_outage {
                self.dual.restore(DataCenter::Primary);
            }
        } else if !self.in_outage
            && self.flap_probability > 0.0
            && self.fault_rng.gen::<f64>() < self.flap_probability
        {
            self.dual.outage(DataCenter::Primary);
            self.flap_left = self.flap_rounds.max(1);
        }
        // --- the poll itself ---
        let ack = if self.pending_burst > 0 {
            self.pending_burst -= 1;
            false
        } else {
            !(self.ack_loss_probability > 0.0
                && self.fault_rng.gen::<f64>() < self.ack_loss_probability)
        };
        let (outcome, dc) = self
            .dual
            .poll_mode(&mut self.agent, &mut self.tunnel_rng, ack);
        self.round += 1;
        match outcome {
            PollOutcome::Delivered(batch) => {
                if dc != self.last_dc && dc == DataCenter::Secondary {
                    self.failovers += 1;
                }
                self.last_dc = dc;
                let mut redelivered = 0u64;
                for report in &batch {
                    if self.highest_delivered.is_some_and(|h| report.seq <= h) {
                        redelivered += 1;
                    }
                }
                if let Some(max) = batch.iter().map(|r| r.seq).max() {
                    self.highest_delivered =
                        Some(self.highest_delivered.map_or(max, |h| h.max(max)));
                }
                RoundOutcome::Delivered {
                    reports: batch,
                    redelivered,
                }
            }
            PollOutcome::Lost => RoundOutcome::Lost,
            PollOutcome::Disconnected => RoundOutcome::Disconnected,
        }
    }

    fn pending(&self) -> bool {
        self.agent.queued() > 0 || self.pending_burst > 0
    }

    fn continue_after_failure(&self) -> bool {
        // A failed round with nothing queued and no burst scripted has
        // nothing to retry for.
        self.pending()
    }

    fn queued(&self) -> u64 {
        self.agent.queued() as u64
    }

    fn undelivered(&self) -> u64 {
        self.undelivered_count()
    }

    fn polls_attempted(&self) -> u64 {
        self.dual.polls_attempted()
    }

    fn bytes_transferred(&self) -> u64 {
        self.dual.bytes_transferred()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{WINDOW_JAN_2014, WINDOW_JAN_2015};
    use airstat_telemetry::sched::drain_solo;

    fn loaded_agent(n: u64, capacity: usize) -> DeviceAgent {
        let mut agent = DeviceAgent::with_capacity(1, capacity);
        for t in 0..n {
            agent.submit(t, ReportPayload::Usage(vec![]));
        }
        agent
    }

    #[test]
    fn scenarios_resolve_by_name() {
        for name in SCENARIO_NAMES {
            let schedule = FaultSchedule::by_name(name).expect(name);
            assert_eq!(schedule.name(), name);
        }
        assert!(FaultSchedule::by_name("nope").is_none());
    }

    #[test]
    fn per_window_overrides_apply() {
        let schedule = FaultSchedule::dc_outage();
        assert_eq!(
            schedule.intensity(WINDOW_JAN_2015).dc_outage_probability,
            1.0
        );
        assert_eq!(
            schedule.intensity(WINDOW_JAN_2014).dc_outage_probability,
            0.0,
            "2014 windows only see the background loss"
        );
    }

    /// Drains `agent` as the engine does: a [`FaultedEndpoint`] alone on
    /// the solo scheduler, over a lossless base tunnel.
    fn drain(
        intensity: &FaultIntensity,
        seed: u64,
        poll_batch: usize,
        agent: DeviceAgent,
    ) -> CompletedDrain<FaultedEndpoint> {
        let node = SeedTree::new(seed).child("unit");
        let base = TunnelConfig {
            drop_probability: 0.0,
            poll_batch,
        };
        let endpoint = FaultedEndpoint::new(intensity, base, &node, "fw-test", agent);
        drain_solo(PollPolicy::default(), endpoint.priority(), endpoint).0
    }

    #[test]
    fn zero_intensity_drain_is_clean() {
        let agent = loaded_agent(40, DeviceAgent::DEFAULT_CAPACITY);
        let drain = drain(&FaultIntensity::zero(), 11, 16, agent);
        assert_eq!(drain.reports.len(), 40);
        assert_eq!(drain.stats.redelivered, 0);
        assert_eq!(drain.endpoint.failovers(), 0);
        assert_eq!(drain.endpoint.crash_reboots(), 0);
        assert_eq!(drain.endpoint.agent().queued(), 0);
    }

    #[test]
    fn outage_fails_over_and_storm_redelivers() {
        let intensity = FaultIntensity {
            dc_outage_probability: 1.0,
            dc_outage_rounds: 3,
            repoll_burst: 2,
            ..FaultIntensity::zero()
        };
        let agent = loaded_agent(40, DeviceAgent::DEFAULT_CAPACITY);
        let drain = drain(&intensity, 12, 8, agent);
        assert!(
            drain.endpoint.failovers() > 0,
            "outage must force a failover"
        );
        assert!(drain.endpoint.secondary_served() > 0);
        assert!(
            drain.stats.redelivered > 0,
            "the recovery storm redelivers unacked spans"
        );
        assert_eq!(drain.endpoint.agent().queued(), 0);
        // Every submitted report was delivered at least once.
        let mut seqs: Vec<u64> = drain.reports.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 40);
    }

    #[test]
    fn crash_loses_queue_and_files_report() {
        let intensity = FaultIntensity {
            crash_probability: 1.0,
            ..FaultIntensity::zero()
        };
        let agent = loaded_agent(64, DeviceAgent::DEFAULT_CAPACITY);
        let drain = drain(&intensity, 13, 8, agent);
        assert_eq!(drain.endpoint.crash_reboots(), 1);
        assert!(drain.endpoint.crash_lost() > 0);
        assert!(
            drain
                .reports
                .iter()
                .any(|r| matches!(r.payload, ReportPayload::Crash(_))),
            "the crash report reaches the backend after the reboot"
        );
    }

    #[test]
    fn tally_merge_and_completeness() {
        let mut a = DegradationTally {
            submitted: 100,
            accepted: 90,
            dropped_overflow: 10,
            ..DegradationTally::default()
        };
        let b = DegradationTally {
            submitted: 100,
            accepted: 100,
            ..DegradationTally::default()
        };
        a.merge(&b);
        assert_eq!(a.submitted, 200);
        assert_eq!(a.accepted, 190);
        assert!((a.completeness() - 0.95).abs() < 1e-12);
        assert_eq!(DegradationTally::default().completeness(), 1.0);
    }
}
