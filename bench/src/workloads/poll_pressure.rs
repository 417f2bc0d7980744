//! `poll_pressure`: one shared scheduler under admission-capacity
//! pressure, empty payloads, no store — the `telemetry.sched` and
//! `telemetry.transport` layers alone.

use std::time::Instant;

use airstat_sim::faults::{DegradationTally, FaultedEndpoint};
use airstat_sim::{run_fleet_campaign, FleetCampaignConfig, FleetCampaignRun};
use airstat_stats::SeedTree;
use airstat_telemetry::report::ReportPayload;
use airstat_telemetry::sched::{Admission, Priority, SchedConfig, Scheduler};
use airstat_telemetry::transport::DeviceAgent;

use super::{median_self_ms, median_total_ms, LayerMetrics, Rep, Sizes, Workload};
use crate::seams::{PollClock, TimedEndpoint};
use crate::trace::{Span, Tracer};

pub struct PollPressure {
    config: FleetCampaignConfig,
    /// The set-up run every rep's counters must equal.
    reference: FleetCampaignRun,
    /// `poll_round` calls of the last traced rep.
    traced_rounds: u64,
}

impl PollPressure {
    pub fn setup(seed: u64, sizes: &Sizes) -> Self {
        let config = FleetCampaignConfig {
            seed,
            ..FleetCampaignConfig::queue_pressure_fleet(sizes.fleet_aps)
        };
        let reference = run_fleet_campaign(&config);
        PollPressure {
            config,
            reference,
            traced_rounds: 0,
        }
    }

    fn check(&self, run: &FleetCampaignRun) -> bool {
        let (submitted, accounted) = run.accounting_identity();
        let waits_bounded = run
            .poll_gap_bounds
            .iter()
            .zip(run.sched.max_queue_wait_ticks)
            .all(|(bound, wait)| bound.map_or(true, |bound| wait <= bound));
        submitted == accounted
            && run.sched.evicted_aps[Priority::High.index()] == 0
            && run.sched.evicted_aps[Priority::Normal.index()] == 0
            && waits_bounded
            && run.sched == self.reference.sched
            && run.degradation == self.reference.degradation
    }
}

impl Workload for PollPressure {
    fn work_items(&self) -> u64 {
        self.reference.sched.admissions
    }

    fn rep(&mut self) -> Result<Rep, String> {
        let start = Instant::now();
        let run = run_fleet_campaign(&self.config);
        let elapsed = start.elapsed();
        Ok(Rep {
            elapsed,
            ok: self.check(&run),
        })
    }

    fn traced_rep(&mut self, tracer: &Tracer) -> Result<Rep, String> {
        let clock = PollClock::default();
        let start = Instant::now();
        let run = tracer.span("bench.rep", || {
            tracer.span("telemetry.sched.loop", || {
                traced_fleet_campaign(&self.config, tracer, &clock)
            })
        });
        let elapsed = start.elapsed();
        self.traced_rounds = clock.rounds.get();
        Ok(Rep {
            elapsed,
            ok: self.check(&run),
        })
    }

    fn layer_metrics(&mut self, spans: &[Span], reps: u32) -> Result<LayerMetrics, String> {
        let sched = &self.reference.sched;
        let mut m = LayerMetrics::new();
        let self_ms = median_self_ms(spans, reps, "telemetry.sched.loop");
        let endpoint_ms = median_total_ms(spans, reps, "telemetry.transport.poll_rounds");
        let polls: u64 = sched.polls_by_class.iter().sum();
        m.insert("telemetry.sched.self_ms", self_ms);
        m.insert("telemetry.sched.endpoint_ms", endpoint_ms);
        m.insert(
            "telemetry.sched.admit_build_ms",
            median_total_ms(spans, reps, "telemetry.transport.endpoint_build"),
        );
        m.insert(
            "telemetry.sched.ns_per_poll",
            self_ms * 1e6 / self.traced_rounds as f64,
        );
        m.insert("telemetry.sched.ticks", sched.ticks as f64);
        m.insert("telemetry.sched.polls", polls as f64);
        m.insert("telemetry.sched.retries", sched.retries_scheduled as f64);
        m.insert(
            "telemetry.sched.evicted_share",
            sched.evictions() as f64 / self.config.aps as f64,
        );
        m.insert(
            "telemetry.sched.max_ready_depth",
            sched.max_ready_depth.iter().copied().max().unwrap_or(0) as f64,
        );
        Ok(m)
    }
}

/// `airstat_sim::run_fleet_campaign`'s wave loop over the same public
/// `Scheduler` calls — with each endpoint wrapped in a [`TimedEndpoint`]
/// and endpoint construction under its own span, so the loop span's self
/// time is the scheduler's own: queues, retry ledger, eviction order.
/// `check` holds its result to the reference run's counters, which is
/// what keeps this copy honest.
fn traced_fleet_campaign(
    config: &FleetCampaignConfig,
    tracer: &Tracer,
    clock: &PollClock,
) -> FleetCampaignRun {
    type Endpoint<'c> = TimedEndpoint<'c, FaultedEndpoint>;

    fn drain_finished(sched: &mut Scheduler<Endpoint<'_>>, degradation: &mut DegradationTally) {
        for drain in sched.take_finished() {
            let endpoint = drain.endpoint.inner();
            degradation.absorb(&drain.stats);
            degradation.accepted += drain.stats.delivered - drain.stats.redelivered;
            degradation.submitted += endpoint.agent().reports_submitted();
            degradation.dropped_overflow += endpoint.agent().dropped_overflow();
            degradation.lost_to_crash += endpoint.crash_lost();
            degradation.crash_reboots += endpoint.crash_reboots();
            degradation.failovers += endpoint.failovers();
            degradation.secondary_served += endpoint.secondary_served();
            if !drain.evicted && drain.stats.budget_exhausted {
                degradation.left_queued += drain.undelivered;
            }
        }
    }

    let seed = SeedTree::new(config.seed).child("fleet");
    let mut sched: Scheduler<Endpoint<'_>> = Scheduler::new(SchedConfig {
        policy: config.policy,
        tick_poll_budget: config.tick_poll_budget.max(1),
        capacity: config.sched_capacity,
    });
    let mut degradation = DegradationTally::default();
    let mut next_ap = 0usize;
    let admit_wave = config.admit_per_tick.max(1);

    // One aggregate child span per tick for the tick's poll rounds.
    let tick = |sched: &mut Scheduler<Endpoint<'_>>| {
        let since = tracer.clock_ns();
        let live = sched.tick();
        tracer.aggregate(
            "telemetry.transport.poll_rounds",
            since,
            clock.take_busy_ns(),
        );
        live
    };

    let mut wave = Vec::with_capacity(admit_wave);
    while next_ap < config.aps || sched.live() > 0 {
        let wave_end = (next_ap + admit_wave).min(config.aps);
        // The original builds and admits AP by AP. Neither step reads
        // what the other writes, so the wave's endpoints are built first,
        // under one span: two clock reads per wave, not per AP.
        if next_ap < wave_end {
            tracer.span("telemetry.transport.endpoint_build", || {
                for ap in next_ap as u64..wave_end as u64 {
                    let node = seed.indexed(ap);
                    let mut agent = DeviceAgent::with_capacity(ap + 1, config.device_capacity);
                    for t in 0..config.reports_per_ap {
                        agent.submit(t * 60, ReportPayload::Usage(vec![]));
                    }
                    wave.push(FaultedEndpoint::new(
                        &config.intensity,
                        config.base,
                        &node,
                        "mr-25.9",
                        agent,
                    ));
                }
            });
        }
        for endpoint in wave.drain(..) {
            let ap = next_ap as u64;
            next_ap += 1;
            let priority = endpoint.priority();
            match sched.admit(ap, priority, TimedEndpoint::new(endpoint, clock)) {
                Admission::Admitted => {}
                Admission::Deduped(_) => unreachable!("AP indices are unique"),
                Admission::Rejected(endpoint) => {
                    let agent = endpoint.inner().agent();
                    degradation.submitted += agent.reports_submitted();
                    degradation.dropped_overflow += agent.dropped_overflow();
                }
            }
        }
        tick(&mut sched);
        drain_finished(&mut sched, &mut degradation);
    }
    while tick(&mut sched) {}
    drain_finished(&mut sched, &mut degradation);

    let stats = sched.stats().clone();
    degradation.record_evictions(&stats);
    let poll_gap_bounds = [Priority::High, Priority::Normal, Priority::Low]
        .map(|class| sched.poll_gap_bound_ticks(class));
    FleetCampaignRun {
        degradation,
        sched: stats,
        poll_gap_bounds,
    }
}
