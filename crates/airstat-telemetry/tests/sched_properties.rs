//! Property tests for the poll scheduler ([`airstat_telemetry::sched`]).
//!
//! Invariants pinned here: exponential backoff never exceeds its
//! configured cap; the retry ledger's drain order is *total* on
//! `(due_time, ap_key)`; admission-time dedup always keeps the
//! first-seen endpoint (and every report it queued); and no ready AP of
//! any class ever waits beyond the scheduler's pinned poll-gap bound —
//! the no-starvation property the fairness quotas exist to provide; and
//! the slab the scheduler keeps its entries in is invisible — under any
//! interleaving of admissions (evicted keys recurring), ticks and
//! collections it behaves as [`Model`], which holds every entry by value
//! in a map and deletes eagerly where the scheduler deletes lazily.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use airstat_stats::SeedTree;
use airstat_telemetry::poll::{PollPolicy, PollSession};
use airstat_telemetry::report::ReportPayload;
use airstat_telemetry::sched::{
    Admission, PollEndpoint, Priority, RetryLedger, RoundOutcome, SchedConfig, Scheduler,
    TunnelEndpoint,
};
use airstat_telemetry::transport::{DeviceAgent, Tunnel, TunnelConfig};
use proptest::prelude::*;

type Endpoint = TunnelEndpoint<rand::rngs::SmallRng>;

fn endpoint(seed: u64, device: u64, reports: u64, drop_probability: f64) -> Endpoint {
    let mut agent = DeviceAgent::new(device);
    for t in 0..reports {
        agent.submit(t, ReportPayload::Usage(vec![]));
    }
    let tunnel = Tunnel::new(TunnelConfig {
        drop_probability,
        poll_batch: 4,
    });
    TunnelEndpoint::new(tunnel, agent, SeedTree::new(seed).indexed(device).rng())
}

/// What a finished drain is compared on: key, class, whether it was
/// evicted, reports delivered, and the device id of the endpoint handed
/// back (each admission gets its own, so a drain that comes back with
/// another admission's endpoint shows).
type Finished = (u64, Priority, bool, usize, u64);

struct ModelEntry {
    priority: Priority,
    session: PollSession,
    delivered: usize,
    endpoint: Endpoint,
    admitted_at_s: u64,
    retry_due: Option<u64>,
}

/// The reference scheduler: each AP's state by value in a `BTreeMap`,
/// taken out and put back around every poll; ready queues and the
/// eviction order hold bare keys and are purged the moment a drain ends,
/// so nothing stale is ever there to resolve. Same quotas, same ledger,
/// same clock as [`Scheduler`].
struct Model {
    config: SchedConfig,
    now_s: u64,
    entries: BTreeMap<u64, ModelEntry>,
    ready: [VecDeque<u64>; 3],
    ledger: RetryLedger,
    low_order: VecDeque<u64>,
    finished: Vec<Finished>,
    polls_by_class: [u64; 3],
}

impl Model {
    fn new(config: SchedConfig) -> Self {
        Model {
            config,
            now_s: 0,
            entries: BTreeMap::new(),
            ready: Default::default(),
            ledger: RetryLedger::new(),
            low_order: VecDeque::new(),
            finished: Vec::new(),
            polls_by_class: [0; 3],
        }
    }

    fn admit(&mut self, key: u64, priority: Priority, endpoint: Endpoint) -> &'static str {
        if self.entries.contains_key(&key) {
            return "deduped";
        }
        if let Some(cap) = self.config.capacity {
            if self.entries.len() >= cap.max(1) {
                match self.low_order.front().copied() {
                    Some(victim) => {
                        let entry = self.entries.remove(&victim).expect("purged eagerly");
                        match entry.retry_due {
                            Some(due) => assert!(self.ledger.cancel(due, victim)),
                            None => self.ready[2].retain(|&k| k != victim),
                        }
                        self.finish(victim, entry, true);
                    }
                    None if priority == Priority::Low => return "rejected",
                    None => {}
                }
            }
        }
        self.entries.insert(
            key,
            ModelEntry {
                priority,
                session: PollSession::new(self.config.policy),
                delivered: 0,
                endpoint,
                admitted_at_s: self.now_s,
                retry_due: None,
            },
        );
        if priority == Priority::Low {
            self.low_order.push_back(key);
        }
        self.ready[priority.index()].push_back(key);
        "admitted"
    }

    fn promote_due(&mut self) {
        while let Some((_, key)) = self.ledger.pop_due(self.now_s) {
            let entry = self.entries.get_mut(&key).expect("evictions cancel");
            entry.retry_due = None;
            self.ready[entry.priority.index()].push_back(key);
        }
    }

    fn tick(&mut self) -> bool {
        if self.entries.is_empty() {
            return false;
        }
        self.promote_due();
        if self.ready.iter().all(VecDeque::is_empty) {
            if let Some(due) = self.ledger.peek_due() {
                self.now_s = self.now_s.max(due);
                self.promote_due();
            }
        }
        let b = self.config.tick_poll_budget.max(1);
        let reserve_low = if self.ready[2].is_empty() {
            0
        } else {
            (b / 8).max(1).min(b - 1)
        };
        let reserve_normal = if self.ready[1].is_empty() {
            0
        } else {
            (b / 4).max(1).min(b.saturating_sub(1 + reserve_low))
        };
        let mut batch = Vec::new();
        let mut allot = 0;
        for (class, budget) in [
            b - reserve_normal - reserve_low,
            reserve_normal,
            reserve_low,
        ]
        .into_iter()
        .enumerate()
        {
            allot += budget;
            while allot > 0 {
                let Some(key) = self.ready[class].pop_front() else {
                    break;
                };
                batch.push(key);
                allot -= 1;
            }
        }
        let mut polled = false;
        for key in batch {
            polled |= self.poll_one(key);
        }
        if polled {
            self.now_s += self.config.policy.poll_interval_s;
        }
        !self.entries.is_empty()
    }

    fn poll_one(&mut self, key: u64) -> bool {
        let mut entry = self.entries.remove(&key).expect("ready keys are live");
        if !entry.session.begin_round() {
            self.finish(key, entry, false);
            return false;
        }
        self.polls_by_class[entry.priority.index()] += 1;
        let retry = match entry.endpoint.poll_round(entry.session.now_s()) {
            RoundOutcome::Delivered { reports, .. } => {
                entry.session.on_success();
                entry.delivered += reports.len();
                if entry.endpoint.pending() {
                    self.ready[entry.priority.index()].push_back(key);
                    self.entries.insert(key, entry);
                } else {
                    self.finish(key, entry, false);
                }
                return true;
            }
            RoundOutcome::Lost | RoundOutcome::Disconnected => {
                entry.session.on_failure();
                entry.endpoint.continue_after_failure()
            }
        };
        if retry {
            let due = entry.admitted_at_s + entry.session.now_s();
            entry.retry_due = Some(due);
            self.ledger.schedule(due, key);
            self.entries.insert(key, entry);
        } else {
            self.finish(key, entry, false);
        }
        true
    }

    fn finish(&mut self, key: u64, entry: ModelEntry, evicted: bool) {
        self.low_order.retain(|&k| k != key);
        self.finished.push((
            key,
            entry.priority,
            evicted,
            entry.delivered,
            entry.endpoint.agent().tenant(),
        ));
    }
}

proptest! {
    #[test]
    fn prop_slab_scheduler_matches_the_by_value_model(
        capacity in 1usize..8,
        budget in 1usize..10,
        drop_millis in 0u64..400,
        seed in any::<u64>(),
        // (what, key, class, reports): keys from a small range, so a key
        // evicted a moment ago is admitted again while its ticket lingers.
        ops in prop::collection::vec((0u8..6, 0u64..6, 0usize..3, 0u64..10), 1..80),
    ) {
        let config = SchedConfig {
            policy: PollPolicy { poll_budget: 6, ..PollPolicy::default() },
            tick_poll_budget: budget,
            capacity: Some(capacity),
        };
        let drop_probability = drop_millis as f64 / 1000.0;
        let mut sched = Scheduler::new(config);
        let mut model = Model::new(config);
        let mut collected = Vec::new();
        let mut admitted = BTreeSet::new();
        let mut device = 0u64;
        let collect = |sched: &mut Scheduler<Endpoint>, collected: &mut Vec<Finished>| {
            for drain in sched.take_finished() {
                let tenant = drain.endpoint.agent().tenant();
                assert!(drain.reports.iter().all(|r| r.device == tenant),
                    "device {tenant} came back with another tenant's reports");
                collected.push((drain.key, drain.priority, drain.evicted, drain.reports.len(), tenant));
            }
        };
        for (step, &(what, key, class, reports)) in ops.iter().enumerate() {
            match what {
                0..=2 => {
                    device += 1;
                    let priority = Priority::ALL[class];
                    let build = || endpoint(seed, device, reports, drop_probability);
                    let outcome = match sched.admit(key, priority, build()) {
                        Admission::Admitted => {
                            admitted.insert(device);
                            "admitted"
                        }
                        Admission::Deduped(_) => "deduped",
                        Admission::Rejected(_) => "rejected",
                    };
                    prop_assert_eq!(outcome, model.admit(key, priority, build()),
                        "step {}: admit {}", step, key);
                }
                3..=4 => {
                    prop_assert_eq!(sched.tick(), model.tick(), "step {}: tick", step);
                    prop_assert_eq!(sched.clock_s(), model.now_s, "step {}: clock", step);
                }
                _ => {
                    collect(&mut sched, &mut collected);
                    prop_assert_eq!(&collected, &model.finished, "step {}: finished", step);
                }
            }
            prop_assert_eq!(sched.live(), model.entries.len(), "step {}: live", step);
            prop_assert_eq!(sched.stats().polls_by_class, model.polls_by_class,
                "step {}: polls", step);
        }
        sched.run_to_completion();
        while model.tick() {}
        collect(&mut sched, &mut collected);
        prop_assert_eq!(&collected, &model.finished);
        // Every admission finished exactly once, with its own endpoint: no
        // slot was let again over a tenant that had not finished.
        let tenants: Vec<u64> = collected.iter().map(|f| f.4).collect();
        prop_assert_eq!(tenants.len(), admitted.len());
        prop_assert_eq!(tenants.into_iter().collect::<BTreeSet<_>>(), admitted);
    }

    #[test]
    fn prop_backoff_is_capped(
        base in 1u64..10_000,
        cap_factor in 1u64..64,
        failures in 0usize..80,
    ) {
        let policy = PollPolicy {
            poll_interval_s: 1,
            base_backoff_s: base,
            max_backoff_s: base.saturating_mul(cap_factor),
            poll_budget: 1_000,
        };
        let mut session = PollSession::new(policy);
        let mut last_now = session.now_s();
        for _ in 0..failures {
            let backoff = session.next_backoff_s();
            prop_assert!(backoff <= policy.max_backoff_s, "backoff {backoff} over cap");
            prop_assert!(backoff >= policy.base_backoff_s.min(policy.max_backoff_s));
            session.on_failure();
            prop_assert_eq!(session.now_s() - last_now, backoff,
                "a failure advances the clock by exactly its backoff");
            last_now = session.now_s();
        }
        // One success resets the ladder to the base.
        session.on_success();
        prop_assert_eq!(
            session.next_backoff_s(),
            policy.base_backoff_s.min(policy.max_backoff_s)
        );
    }

    #[test]
    fn prop_retry_order_is_total_on_due_then_key(
        entries in prop::collection::btree_set((0u64..1_000, 0u64..64), 1..60),
        insert_seed in any::<u64>(),
    ) {
        // Insert in a seed-shuffled order; drain order must be the sorted
        // (due, key) order regardless.
        let mut shuffled: Vec<(u64, u64)> = entries.iter().copied().collect();
        let mut state = insert_seed;
        for i in (1..shuffled.len()).rev() {
            state = airstat_stats::rng::splitmix64(state);
            shuffled.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut ledger = RetryLedger::new();
        for &(due, key) in &shuffled {
            ledger.schedule(due, key);
        }
        let mut drained = Vec::new();
        while let Some(pair) = ledger.pop_due(u64::MAX) {
            drained.push(pair);
        }
        let expected: Vec<(u64, u64)> = entries.into_iter().collect();
        prop_assert_eq!(drained, expected, "drain order is sorted (due, key)");
        prop_assert_eq!(ledger.peek_due(), None);
    }

    #[test]
    fn prop_admission_dedup_keeps_first_seen(
        first_reports in 1u64..12,
        dup_reports in 1u64..12,
        dup_count in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut sched = Scheduler::new(SchedConfig::solo(PollPolicy::default()));
        sched.admit(9, Priority::Normal, endpoint(seed, 9, first_reports, 0.0));
        for i in 0..dup_count {
            match sched.admit(9, Priority::High, endpoint(seed ^ 1, 9, dup_reports, 0.0)) {
                Admission::Deduped(dup) => {
                    prop_assert_eq!(dup.agent().queued() as u64, dup_reports,
                        "duplicate {i} handed back untouched");
                }
                other => prop_assert!(false, "expected dedup, got {other:?}"),
            }
        }
        sched.run_to_completion();
        let drains = sched.take_finished();
        prop_assert_eq!(drains.len(), 1);
        prop_assert_eq!(drains[0].reports.len() as u64, first_reports,
            "the first-seen endpoint's reports all survive");
        prop_assert_eq!(sched.stats().deduped, dup_count as u64);
    }

    #[test]
    fn prop_no_ready_ap_waits_beyond_poll_gap_bound(
        budget in 3usize..24,
        high in 0usize..20,
        normal in 0usize..20,
        low in 0usize..40,
        drop_millis in 0u64..400,
        seed in any::<u64>(),
    ) {
        prop_assume!(high + normal + low > 0);
        let mut sched = Scheduler::new(SchedConfig {
            policy: PollPolicy::default(),
            tick_poll_budget: budget,
            capacity: None,
        });
        let drop_probability = drop_millis as f64 / 1000.0;
        let mut key = 0u64;
        for (priority, n) in [
            (Priority::High, high),
            (Priority::Normal, normal),
            (Priority::Low, low),
        ] {
            for _ in 0..n {
                key += 1;
                sched.admit(key, priority, endpoint(seed, key, 4, drop_probability));
            }
        }
        sched.run_to_completion();
        let stats = sched.stats().clone();
        prop_assert_eq!(stats.completed as usize, high + normal + low);
        for class in Priority::ALL {
            let bound = sched.poll_gap_bound_ticks(class)
                .expect("budget >= 3 guarantees every class");
            prop_assert!(
                stats.max_queue_wait_ticks[class.index()] <= bound,
                "{} waited {} ticks; pinned bound {} (budget {budget})",
                class.label(),
                stats.max_queue_wait_ticks[class.index()],
                bound,
            );
        }
    }
}
