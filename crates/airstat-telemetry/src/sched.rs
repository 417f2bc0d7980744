//! The backpressure-aware poll scheduler: priority queues, a retry
//! ledger, and fairness at fleet scale.
//!
//! PR 2 gave the backend a per-device [`PollPolicy`] (capped exponential
//! backoff, poll budgets), but every AP was still drained by its own flat
//! loop with no *global* admission, ordering, or eviction story. This
//! module is that missing layer — the queue discipline sits between fault
//! injection and the store, in the spirit of PolliNet's outbound/retry
//! queue system:
//!
//! * a **priority poll queue** ([`Priority`]): outage-recovering APs
//!   ([`Priority::High`]) and degraded APs ([`Priority::Normal`]) drain
//!   first; healthy APs ([`Priority::Low`]) fill the remaining budget —
//!   with *reserved* per-class quotas so no class starves (see
//!   `class_guarantees`);
//! * a **time-ordered retry ledger** ([`RetryLedger`]): failed rounds are
//!   re-scheduled at `admitted_at + session clock` in a `BTreeSet` of
//!   `(due_s, ap_key)` — retry order is *total* and deterministic;
//! * **dedup at admission**: re-admitting a live AP key is rejected up
//!   front ([`Admission::Deduped`]), never post-hoc — the first-seen
//!   endpoint and every report it queued survive;
//! * **LOW-priority eviction under queue pressure**: when the admission
//!   [`SchedConfig::capacity`] is exceeded, the oldest-admitted
//!   [`Priority::Low`] AP is evicted (its undelivered reports counted in
//!   [`SchedStats::evicted_reports`] and the campaign's
//!   `DegradationTally::lost_to_eviction`); High/Normal APs are *never*
//!   evicted — pressure only sheds the class that can re-report later.
//!
//! # Determinism and byte-identity
//!
//! The scheduler runs entirely on **virtual time**. Each admitted AP
//! carries its own [`PollSession`], so its clock, backoff, and budget
//! advance as if it were polled alone — per-AP drain results are
//! *interleaving-invariant* by construction: each endpoint owns its own
//! tunnel and RNG streams, so scheduling order cannot change what any
//! single AP delivers. Every campaign drain is a [`drain_solo`] — this
//! scheduler with one AP admitted — and the queues, ledger and clock
//! jumps must be invisible there: `tests/scheduler.rs` holds it, endpoint
//! by endpoint, to the flat loop
//! [`drain_flat_reference`](crate::poll::drain_flat_reference), the
//! oracle no production code calls.
//!
//! # Where an AP's state lives
//!
//! In one slot of a slab (`Vec<Option<Entry>>` with a free list), from
//! admission until its drain finishes. [`Scheduler::admit`] writes the
//! endpoint there once, every round polls it in place, and finishing
//! moves it out once, into the finished list; slots are let again, so
//! the slab is as long as the most APs ever live at once. Everything
//! else holds a 16-byte ticket — slot plus admission serial — or the AP
//! key: the ready queues, the LOW eviction order, the retry ledger, and
//! the key → slot index. The serial is what keeps a ticket left behind
//! by an eviction from ever resolving to a later admission of the same
//! key or slot.
//!
//! The index is a hash map under the fixed-key [`BuildFixedHasher`],
//! read only by key — admission-time dedup, a promoted retry's slot,
//! finishing's removal, [`Scheduler::live`] — and never iterated, so its
//! order reaches nothing. Only the retry ledger is ordered, on
//! `(due_s, ap_key)`. An admission under pressure that is shed before
//! its first round costs a slot, a probe and a removal; an endpoint that
//! builds its transport at its first round (see [`PollEndpoint`]'s
//! pre-poll contract) sheds without ever being built.
//!
//! # Fairness
//!
//! Each tick polls at most [`SchedConfig::tick_poll_budget`] APs.
//! `class_guarantees` reserves a minimum share per class whenever that
//! class has ready APs, and ready queues are FIFO within a class, so an
//! AP that became ready behind `d - 1` others of its class is polled
//! within `ceil(d / guarantee)` ticks. [`Scheduler::poll_gap_bound_ticks`]
//! exposes that bound from the observed high-water depth, and the
//! property test `prop_no_ready_ap_waits_beyond_poll_gap_bound` holds the
//! implementation to it.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;

use airstat_stats::BuildFixedHasher;
use rand::Rng;

use crate::poll::{DrainStats, PollPolicy, PollSession};
use crate::report::Report;
use crate::transport::{DeviceAgent, PollOutcome, Tunnel};

/// Poll priority classes, drained in this order under budget pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Outage-recovering APs: their queued backlog is oldest, so they
    /// drain first.
    High,
    /// Degraded APs (elevated loss, flaps, crashes): drained next.
    Normal,
    /// Healthy APs: fill whatever budget remains, and the only class the
    /// scheduler will evict under admission pressure.
    Low,
}

impl Priority {
    /// Every class, in drain order.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Dense index for per-class counters (`High = 0 … Low = 2`).
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Lower-case label for stats rendering.
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// What one scheduled poll round produced.
#[derive(Debug)]
pub enum RoundOutcome {
    /// Reports came back (possibly zero of them, possibly retransmitted).
    Delivered {
        /// The decoded reports, in wire order.
        reports: Vec<Report>,
        /// How many of `reports` were wire-level retransmissions of an
        /// already-delivered sequence number.
        redelivered: u64,
    },
    /// The round was lost to a transient transport fault.
    Lost,
    /// Every usable tunnel was down.
    Disconnected,
}

/// One pollable AP as the scheduler sees it.
///
/// Implementations own their transport state (tunnel, RNG streams, fault
/// machinery), which is what makes scheduling order unable to affect any
/// single AP's drain — the byte-identity argument of the module docs.
///
/// # Before the first round
///
/// An admitted endpoint may finish without ever being polled: evicted or
/// rejected under pressure, or out of poll budget at its first
/// selection. Until its first [`PollEndpoint::poll_round`] the scheduler
/// calls only
///
/// * [`PollEndpoint::polls_attempted`] and
///   [`PollEndpoint::bytes_transferred`] — at admission, for the
///   baselines its drain counts from, and again when the drain finishes;
/// * [`PollEndpoint::undelivered`] — on eviction or rejection, and when
///   the drain finishes;
/// * [`PollEndpoint::queued`] — when the poll budget runs out.
///
/// It never calls [`PollEndpoint::pending`] or
/// [`PollEndpoint::continue_after_failure`] before a round has run. An
/// endpoint may therefore put off building its transport until its
/// first round, provided these four answer as the built one would.
pub trait PollEndpoint {
    /// Executes one poll round. `now_s` is the AP's *own* virtual clock
    /// (seconds since its drain began, its [`PollSession::now_s`]), e.g.
    /// for crash-report timestamps.
    fn poll_round(&mut self, now_s: u64) -> RoundOutcome;

    /// Whether the endpoint still has work (queued reports or scripted
    /// re-poll bursts). A drain completes when this turns false.
    fn pending(&self) -> bool;

    /// Whether a failed round (lost or disconnected) should be retried.
    /// The default — always — is the plain drain, which only exits on a
    /// clean delivery; fault-campaign endpoints override this with
    /// [`PollEndpoint::pending`], so a drain also ends after a failure
    /// once nothing is queued and no re-poll burst is scripted.
    fn continue_after_failure(&self) -> bool {
        true
    }

    /// Raw device-queue depth (delivered-but-unacked reports included).
    fn queued(&self) -> u64;

    /// Queued reports that were never delivered even once — what an
    /// eviction actually destroys (delivered-but-unacked reports were
    /// already counted as accepted).
    fn undelivered(&self) -> u64;

    /// Cumulative poll attempts on the endpoint's transport.
    fn polls_attempted(&self) -> u64;

    /// Cumulative wire bytes on the endpoint's transport.
    fn bytes_transferred(&self) -> u64;
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedConfig {
    /// The poll policy every admitted AP's session runs under.
    pub policy: PollPolicy,
    /// Maximum APs polled per tick (the fleet-wide round budget).
    pub tick_poll_budget: usize,
    /// Admission capacity: `None` is unbounded (zero pressure, never
    /// evicts); `Some(n)` evicts the oldest-admitted LOW AP — or rejects
    /// a LOW newcomer — once `n` APs are live.
    pub capacity: Option<usize>,
}

impl SchedConfig {
    /// The zero-pressure configuration a single-AP drain uses: budget 1,
    /// unbounded admission.
    pub fn solo(policy: PollPolicy) -> Self {
        SchedConfig {
            policy,
            tick_poll_budget: 1,
            capacity: None,
        }
    }
}

/// The time-ordered retry ledger: a `BTreeSet` of `(due_s, ap_key)`, so
/// retry order is total and deterministic — two retries due at the same
/// virtual second drain in AP-key order.
#[derive(Debug, Clone, Default)]
pub struct RetryLedger {
    due: BTreeSet<(u64, u64)>,
}

impl RetryLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `key` to retry at virtual second `due_s`.
    pub fn schedule(&mut self, due_s: u64, key: u64) {
        self.due.insert((due_s, key));
    }

    /// Removes a scheduled retry; returns whether it was present.
    pub fn cancel(&mut self, due_s: u64, key: u64) -> bool {
        self.due.remove(&(due_s, key))
    }

    /// The earliest due time, if any retry is scheduled.
    pub fn peek_due(&self) -> Option<u64> {
        self.due.first().map(|&(due, _)| due)
    }

    /// Pops the earliest retry if it is due at or before `now_s`.
    pub fn pop_due(&mut self, now_s: u64) -> Option<(u64, u64)> {
        let &(due, _) = self.due.first()?;
        if due > now_s {
            return None;
        }
        self.due.pop_first()
    }
}

/// What one admission attempt did.
#[derive(Debug)]
pub enum Admission<E> {
    /// The endpoint was admitted and will be polled.
    Admitted,
    /// An AP with this key is already live: admission-time dedup hands
    /// the duplicate endpoint back untouched — the first-seen endpoint
    /// (and every report it queued) is kept.
    Deduped(E),
    /// The scheduler is at capacity with no LOW AP to evict and the
    /// newcomer is itself LOW: it is rejected (counted as a LOW
    /// eviction); the caller accounts its undelivered reports.
    Rejected(E),
}

/// A finished drain: the AP's reports, its transport statistics, and the
/// endpoint handed back so callers can read endpoint-specific counters.
#[derive(Debug)]
pub struct CompletedDrain<E> {
    /// The AP key the endpoint was admitted under.
    pub key: u64,
    /// The class it was admitted at.
    pub priority: Priority,
    /// Every report delivered over the drain, in delivery order.
    pub reports: Vec<Report>,
    /// The drain's transport statistics.
    pub stats: DrainStats,
    /// Whether the drain ended by eviction rather than completion.
    pub evicted: bool,
    /// Queued reports never delivered when the drain ended (what an
    /// eviction or budget exhaustion left behind).
    pub undelivered: u64,
    /// The endpoint itself, returned to the caller.
    pub endpoint: E,
}

/// Counters for everything the scheduler did, rendered in the CLI stderr
/// block next to the store statistics. Per-class arrays are indexed by
/// [`Priority::index`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Endpoints admitted.
    pub admissions: u64,
    /// Admissions rejected by admission-time dedup (live key collision).
    pub deduped: u64,
    /// Drains that ran to completion (budget exhaustion included).
    pub completed: u64,
    /// Drains whose poll budget ran out with reports still queued.
    pub budget_exhausted: u64,
    /// APs evicted per class under admission pressure (only the LOW slot
    /// is ever nonzero by policy).
    pub evicted_aps: [u64; 3],
    /// Undelivered reports destroyed by those evictions.
    pub evicted_reports: u64,
    /// Poll rounds executed per class.
    pub polls_by_class: [u64; 3],
    /// Scheduler ticks executed.
    pub ticks: u64,
    /// Idle ticks that jumped the virtual clock to the next retry.
    pub time_jumps: u64,
    /// Retries inserted into the ledger.
    pub retries_scheduled: u64,
    /// Retries promoted out of the ledger into the ready queues.
    pub retries_promoted: u64,
    /// High-water ready-queue depth per class.
    pub max_ready_depth: [u64; 3],
    /// Worst ticks any AP waited in a ready queue before being polled,
    /// per class — must stay within [`Scheduler::poll_gap_bound_ticks`].
    pub max_queue_wait_ticks: [u64; 3],
}

impl SchedStats {
    /// Folds another scheduler's counters in (unit → campaign merge).
    pub fn merge(&mut self, other: &SchedStats) {
        self.admissions += other.admissions;
        self.deduped += other.deduped;
        self.completed += other.completed;
        self.budget_exhausted += other.budget_exhausted;
        self.evicted_reports += other.evicted_reports;
        self.ticks += other.ticks;
        self.time_jumps += other.time_jumps;
        self.retries_scheduled += other.retries_scheduled;
        self.retries_promoted += other.retries_promoted;
        for c in 0..3 {
            self.evicted_aps[c] += other.evicted_aps[c];
            self.polls_by_class[c] += other.polls_by_class[c];
            self.max_ready_depth[c] = self.max_ready_depth[c].max(other.max_ready_depth[c]);
            self.max_queue_wait_ticks[c] =
                self.max_queue_wait_ticks[c].max(other.max_queue_wait_ticks[c]);
        }
    }

    /// Total evictions across every class.
    pub fn evictions(&self) -> u64 {
        self.evicted_aps.iter().sum()
    }
}

impl fmt::Display for SchedStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scheduler: {} ticks ({} time-jumps), {} admitted ({} deduped), \
             {} drained, {} budget-exhausted",
            self.ticks,
            self.time_jumps,
            self.admissions,
            self.deduped,
            self.completed,
            self.budget_exhausted,
        )?;
        let by_class = |v: &[u64; 3]| {
            Priority::ALL
                .iter()
                .map(|p| format!("{} {}", p.label(), v[p.index()]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(
            f,
            "  polls          {}  (retries: {} scheduled, {} promoted)",
            by_class(&self.polls_by_class),
            self.retries_scheduled,
            self.retries_promoted,
        )?;
        writeln!(
            f,
            "  evictions      {}  ({} undelivered reports lost)",
            by_class(&self.evicted_aps),
            self.evicted_reports,
        )?;
        write!(
            f,
            "  ready queues   depth high-water {}; max wait ticks {}",
            by_class(&self.max_ready_depth),
            by_class(&self.max_queue_wait_ticks),
        )
    }
}

/// The guaranteed minimum polls-per-tick each class receives whenever it
/// has ready APs, for a given [`SchedConfig::tick_poll_budget`].
///
/// NORMAL reserves `budget / 4` and LOW `budget / 8` (each at least 1
/// where the budget allows); HIGH keeps the rest and unused reserve
/// spills downward. The per-class poll-gap bound is
/// `ceil(ready_depth / guarantee)` ticks — see
/// [`Scheduler::poll_gap_bound_ticks`].
pub(crate) fn class_guarantees(tick_poll_budget: usize) -> [u64; 3] {
    let b = tick_poll_budget.max(1);
    let quota_low = (b / 8).max(1).min(b.saturating_sub(1));
    let quota_normal = (b / 4).max(1).min(b.saturating_sub(1 + quota_low));
    [
        (b - quota_normal - quota_low) as u64,
        quota_normal as u64,
        quota_low as u64,
    ]
}

/// Per-AP scheduler state. An entry is written into its slab slot once,
/// at admission, polled in place, and moved out once, when its drain
/// finishes — no queue, ledger or tick ever moves it.
#[derive(Debug)]
struct Entry<E> {
    key: u64,
    /// [`SchedStats::admissions`] before this one: what tells this tenant
    /// of the slot from the previous one.
    serial: u64,
    priority: Priority,
    session: PollSession,
    stats: DrainStats,
    reports: Vec<Report>,
    endpoint: E,
    /// Global virtual time when the AP was admitted; retry due times are
    /// `admitted_at_s + session clock`, comparable across APs.
    admitted_at_s: u64,
    /// Tick at which the AP last entered a ready queue (wait tracking).
    enqueued_tick: u64,
    /// The ledger key if the AP is waiting out a backoff.
    retry_due: Option<u64>,
    polls_base: u64,
    bytes_base: u64,
}

/// What the ready queues and the eviction order hold in place of an
/// entry: the slot it lives in and the serial it was admitted under.
/// Eviction leaves an evicted AP's ticket in its ready queue (lazy
/// deletion) and completion leaves a LOW AP's in `low_order`; the serial
/// is why such a stale ticket can never resolve to a later admission
/// that reuses the slot — or the key.
#[derive(Debug, Clone, Copy)]
struct Ticket {
    slot: usize,
    serial: u64,
}

/// The entry `ticket` was issued for, unless that admission has finished
/// (its slot is vacant, or let again under a later serial).
fn holder<E>(slots: &mut [Option<Entry<E>>], ticket: Ticket) -> Option<&mut Entry<E>> {
    slots[ticket.slot]
        .as_mut()
        .filter(|entry| entry.serial == ticket.serial)
}

/// The deterministic poll scheduler. See the module docs for the model.
#[derive(Debug)]
pub struct Scheduler<E> {
    config: SchedConfig,
    now_s: u64,
    tick_index: u64,
    /// Live AP key → its slot in `slots`: admission-time dedup, the
    /// ledger's key lookup, finishing's removal and the live count.
    // airstat::allow(no-hashmap-iter): read by key only, never iterated;
    // in a sampled 750k-AP run_fleet_campaign admission was 22.6 %, its
    // hottest lines this map's B-tree search and insert
    index: HashMap<u64, usize, BuildFixedHasher>,
    /// The slab every live entry sits in, at a stable address. A finished
    /// drain's slot goes on `free` and is let again before the slab
    /// grows, so the slab is as long as the most APs ever live at once.
    slots: Vec<Option<Entry<E>>>,
    free: Vec<usize>,
    ready: [VecDeque<Ticket>; 3],
    /// Live tickets per ready queue (the queues themselves may hold
    /// lazily-deleted tickets of evicted APs).
    ready_live: [usize; 3],
    ledger: RetryLedger,
    /// LOW admissions in order — the eviction victim scan.
    low_order: VecDeque<Ticket>,
    finished: Vec<CompletedDrain<E>>,
    stats: SchedStats,
}

impl<E: PollEndpoint> Scheduler<E> {
    /// An empty scheduler at virtual time zero.
    pub fn new(config: SchedConfig) -> Self {
        Scheduler {
            config,
            now_s: 0,
            tick_index: 0,
            // airstat::allow(no-hashmap-iter): constructor for the field justified above
            index: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            ready: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            ready_live: [0; 3],
            ledger: RetryLedger::new(),
            low_order: VecDeque::new(),
            finished: Vec::new(),
            stats: SchedStats::default(),
        }
    }

    /// Global virtual time (seconds).
    pub fn clock_s(&self) -> u64 {
        self.now_s
    }

    /// Live (admitted, not yet finished) APs.
    pub fn live(&self) -> usize {
        self.index.len()
    }

    /// The counters so far.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// The pinned per-class poll-gap bound given what this run observed:
    /// `ceil(max_ready_depth / guarantee)` ticks. `None` when the class's
    /// guarantee is zero (degenerate budgets below 3).
    pub fn poll_gap_bound_ticks(&self, class: Priority) -> Option<u64> {
        let c = class.index();
        let g = class_guarantees(self.config.tick_poll_budget)[c];
        if g == 0 {
            None
        } else {
            Some(self.stats.max_ready_depth[c].div_ceil(g))
        }
    }

    /// Admits an endpoint under `key` at `priority`.
    ///
    /// Dedup happens here, at admission: a key that is already live is
    /// turned away immediately ([`Admission::Deduped`]) so the first-seen
    /// endpoint's reports are never displaced. Under capacity pressure
    /// the oldest-admitted LOW AP is evicted to make room — or, when no
    /// LOW AP is live, a LOW newcomer is rejected; HIGH and NORMAL
    /// admissions always succeed.
    pub fn admit(&mut self, key: u64, priority: Priority, endpoint: E) -> Admission<E> {
        if self.index.contains_key(&key) {
            self.stats.deduped += 1;
            return Admission::Deduped(endpoint);
        }
        if let Some(cap) = self.config.capacity {
            if self.index.len() >= cap.max(1)
                && !self.evict_oldest_low()
                && priority == Priority::Low
            {
                // HIGH/NORMAL would admit over capacity here: pressure
                // must never block the classes that drain first.
                self.stats.evicted_aps[Priority::Low.index()] += 1;
                self.stats.evicted_reports += endpoint.undelivered();
                return Admission::Rejected(endpoint);
            }
        }
        let serial = self.stats.admissions;
        self.stats.admissions += 1;
        let entry = Some(Entry {
            key,
            serial,
            priority,
            session: PollSession::new(self.config.policy),
            stats: DrainStats::default(),
            reports: Vec::new(),
            admitted_at_s: self.now_s,
            enqueued_tick: self.tick_index,
            retry_due: None,
            polls_base: endpoint.polls_attempted(),
            bytes_base: endpoint.bytes_transferred(),
            endpoint,
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot].is_none(), "a free slot has no tenant");
                self.slots[slot] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                self.slots.len() - 1
            }
        };
        self.index.insert(key, slot);
        let ticket = Ticket { slot, serial };
        if priority == Priority::Low {
            self.low_order.push_back(ticket);
        }
        self.push_ready(priority.index(), ticket);
        Admission::Admitted
    }

    /// Runs one scheduler tick: promote due retries (jumping the clock
    /// over idle gaps), select up to the tick budget of ready APs under
    /// the class quotas, and poll each. Returns `false` once no AP is
    /// live.
    pub fn tick(&mut self) -> bool {
        if self.index.is_empty() {
            return false;
        }
        self.stats.ticks += 1;
        self.promote_due();
        if self.ready_live.iter().all(|&n| n == 0) {
            if let Some(due) = self.ledger.peek_due() {
                if due > self.now_s {
                    self.now_s = due;
                    self.stats.time_jumps += 1;
                }
                self.promote_due();
            }
        }
        let batch = self.select_batch();
        let mut polled = false;
        for (class, ticket) in batch {
            polled |= self.poll_one(class, ticket);
        }
        if polled {
            self.now_s = self
                .now_s
                .saturating_add(self.config.policy.poll_interval_s);
        }
        self.tick_index = self.tick_index.saturating_add(1);
        !self.index.is_empty()
    }

    /// Ticks until every admitted AP has drained, exhausted its budget,
    /// or been evicted.
    pub fn run_to_completion(&mut self) {
        while self.tick() {}
    }

    /// Takes every drain finished so far (completion order).
    pub fn take_finished(&mut self) -> Vec<CompletedDrain<E>> {
        std::mem::take(&mut self.finished)
    }

    /// [`Scheduler::take_finished`] for a caller that comes back every
    /// tick: hands the same drains out one by one and keeps the list's
    /// allocation for the next tick's.
    pub fn drain_finished(&mut self) -> std::vec::Drain<'_, CompletedDrain<E>> {
        self.finished.drain(..)
    }

    fn push_ready(&mut self, class: usize, ticket: Ticket) {
        self.ready[class].push_back(ticket);
        self.ready_live[class] += 1;
        self.stats.max_ready_depth[class] =
            self.stats.max_ready_depth[class].max(self.ready_live[class] as u64);
    }

    /// Pops the next *live* ticket from a ready queue, recording its wait.
    fn pop_ready(&mut self, class: usize) -> Option<Ticket> {
        while let Some(ticket) = self.ready[class].pop_front() {
            if let Some(entry) = holder(&mut self.slots, ticket) {
                // A live AP parked in the ledger cannot also be ready.
                debug_assert!(entry.retry_due.is_none());
                self.ready_live[class] = self.ready_live[class].saturating_sub(1);
                let wait = self.tick_index.saturating_sub(entry.enqueued_tick);
                self.stats.max_queue_wait_ticks[class] =
                    self.stats.max_queue_wait_ticks[class].max(wait);
                return Some(ticket);
            }
        }
        None
    }

    fn promote_due(&mut self) {
        while let Some((_, key)) = self.ledger.pop_due(self.now_s) {
            let slot = *self
                .index
                .get(&key)
                .expect("invariant: evictions cancel their ledger entries");
            let entry = self.slots[slot]
                .as_mut()
                .expect("invariant: an indexed slot holds its entry");
            entry.retry_due = None;
            entry.enqueued_tick = self.tick_index;
            let (class, serial) = (entry.priority.index(), entry.serial);
            self.push_ready(class, Ticket { slot, serial });
            self.stats.retries_promoted += 1;
        }
    }

    /// Selects up to the tick budget of ready APs: HIGH first with
    /// NORMAL/LOW shares reserved (only while those classes have ready
    /// APs), unused budget spilling down-class.
    fn select_batch(&mut self) -> Vec<(usize, Ticket)> {
        let b = self.config.tick_poll_budget.max(1);
        let reserve_low = if self.ready_live[2] > 0 {
            (b / 8).max(1).min(b.saturating_sub(1))
        } else {
            0
        };
        let reserve_normal = if self.ready_live[1] > 0 {
            (b / 4).max(1).min(b.saturating_sub(1 + reserve_low))
        } else {
            0
        };
        let budgets = [
            b - reserve_normal - reserve_low,
            reserve_normal,
            reserve_low,
        ];
        let mut batch = Vec::new();
        let mut carry = 0usize;
        for (class, &budget) in budgets.iter().enumerate() {
            let mut allot = budget + carry;
            while allot > 0 {
                match self.pop_ready(class) {
                    Some(ticket) => {
                        batch.push((class, ticket));
                        allot -= 1;
                    }
                    None => break,
                }
            }
            carry = allot;
        }
        batch
    }

    /// Polls one selected AP, in place. Returns whether a round actually
    /// executed (budget exhaustion retires the AP without polling).
    fn poll_one(&mut self, class: usize, ticket: Ticket) -> bool {
        let entry = holder(&mut self.slots, ticket).expect("invariant: selected tickets are live");
        if !entry.session.begin_round() {
            self.finalize(ticket.slot, false, true);
            return false;
        }
        self.stats.polls_by_class[class] += 1;
        match entry.endpoint.poll_round(entry.session.now_s()) {
            RoundOutcome::Delivered {
                reports,
                redelivered,
            } => {
                entry.session.on_success();
                entry.stats.delivered += reports.len() as u64;
                entry.stats.redelivered += redelivered;
                entry
                    .stats
                    .latency
                    .record_n(entry.session.now_s(), reports.len() as u64);
                if entry.reports.is_empty() {
                    // The first batch's own allocation becomes the list.
                    entry.reports = reports;
                } else {
                    entry.reports.extend(reports);
                }
                if entry.endpoint.pending() {
                    // Still draining: back into the rotation next tick.
                    entry.enqueued_tick = self.tick_index.saturating_add(1);
                    self.push_ready(class, ticket);
                } else {
                    self.finalize(ticket.slot, false, false);
                }
                return true;
            }
            RoundOutcome::Lost => entry.stats.lost += 1,
            RoundOutcome::Disconnected => entry.stats.disconnected += 1,
        }
        entry.session.on_failure();
        if entry.endpoint.continue_after_failure() {
            // Park the AP in the retry ledger at its session's next poll
            // time, expressed on the global clock.
            let due = entry.admitted_at_s.saturating_add(entry.session.now_s());
            entry.retry_due = Some(due);
            self.ledger.schedule(due, entry.key);
            self.stats.retries_scheduled += 1;
        } else {
            self.finalize(ticket.slot, false, false);
        }
        true
    }

    /// Evicts the oldest-admitted live LOW AP, if any. Its partial drain
    /// (reports delivered so far) is handed back as a finished drain with
    /// `evicted = true`; undelivered reports are tallied as destroyed.
    fn evict_oldest_low(&mut self) -> bool {
        while let Some(ticket) = self.low_order.pop_front() {
            if let Some(entry) = holder(&mut self.slots, ticket) {
                if let Some(due) = entry.retry_due {
                    self.ledger.cancel(due, entry.key);
                } else {
                    // It is parked in the LOW ready queue: lazy-delete.
                    self.ready_live[2] = self.ready_live[2].saturating_sub(1);
                }
                self.stats.evicted_aps[Priority::Low.index()] += 1;
                self.finalize(ticket.slot, true, false);
                return true;
            }
        }
        false
    }

    /// Moves a live entry out of its slot into the finished list and
    /// frees the slot for the next admission.
    fn finalize(&mut self, slot: usize, evicted: bool, exhausted: bool) {
        let mut entry = self.slots[slot]
            .take()
            .expect("invariant: only live slots are finalized");
        self.free.push(slot);
        self.index.remove(&entry.key);
        let undelivered = entry.endpoint.undelivered();
        entry.stats.polls = entry.endpoint.polls_attempted() - entry.polls_base;
        entry.stats.bytes = entry.endpoint.bytes_transferred() - entry.bytes_base;
        entry.stats.virtual_elapsed_s = entry.session.now_s();
        entry.stats.budget_exhausted = exhausted && entry.endpoint.queued() > 0;
        if evicted {
            self.stats.evicted_reports += undelivered;
        } else {
            self.stats.completed += 1;
            self.stats.budget_exhausted += u64::from(entry.stats.budget_exhausted);
        }
        self.finished.push(CompletedDrain {
            key: entry.key,
            priority: entry.priority,
            reports: entry.reports,
            stats: entry.stats,
            evicted,
            undelivered,
            endpoint: entry.endpoint,
        });
    }
}

/// Drains one endpoint alone on a zero-pressure scheduler
/// ([`SchedConfig::solo`]): admit, run to completion, hand back the
/// finished drain — endpoint included, for its own counters — and the
/// scheduler's. This is the one drain path: the engine calls it per
/// agent, faulted or not, and
/// [`drain_scheduled`](crate::poll::drain_scheduled) is a thin caller.
/// The endpoint is admitted under key 0: alone, it has no key to collide
/// with.
pub fn drain_solo<E: PollEndpoint>(
    policy: PollPolicy,
    priority: Priority,
    endpoint: E,
) -> (CompletedDrain<E>, SchedStats) {
    let mut sched = Scheduler::new(SchedConfig::solo(policy));
    match sched.admit(0, priority, endpoint) {
        Admission::Admitted => {}
        _ => unreachable!("a fresh scheduler admits its first endpoint"),
    }
    sched.run_to_completion();
    let drain = sched
        .take_finished()
        .pop()
        .expect("invariant: a solo admission always finishes");
    (drain, sched.stats)
}

/// The plain single-tunnel endpoint the engine drains when no fault
/// schedule is set: one [`Tunnel`], one [`DeviceAgent`], one RNG stream,
/// one [`Tunnel::poll`] per round.
#[derive(Debug)]
pub struct TunnelEndpoint<R> {
    tunnel: Tunnel,
    agent: DeviceAgent,
    rng: R,
}

impl<R: Rng> TunnelEndpoint<R> {
    /// Wraps a tunnel, agent, and RNG stream as a schedulable endpoint.
    pub fn new(tunnel: Tunnel, agent: DeviceAgent, rng: R) -> Self {
        TunnelEndpoint { tunnel, agent, rng }
    }

    /// Hands the parts back after the drain.
    pub(crate) fn into_parts(self) -> (Tunnel, DeviceAgent, R) {
        (self.tunnel, self.agent, self.rng)
    }

    /// The wrapped agent.
    pub fn agent(&self) -> &DeviceAgent {
        &self.agent
    }
}

impl<R: Rng> PollEndpoint for TunnelEndpoint<R> {
    fn poll_round(&mut self, _now_s: u64) -> RoundOutcome {
        match self.tunnel.poll(&mut self.agent, &mut self.rng) {
            PollOutcome::Delivered(reports) => RoundOutcome::Delivered {
                reports,
                redelivered: 0,
            },
            PollOutcome::Lost => RoundOutcome::Lost,
            PollOutcome::Disconnected => RoundOutcome::Disconnected,
        }
    }

    fn pending(&self) -> bool {
        self.agent.queued() > 0
    }

    fn queued(&self) -> u64 {
        self.agent.queued() as u64
    }

    fn undelivered(&self) -> u64 {
        // The plain tunnel acks every delivery, so the whole queue is
        // undelivered.
        self.agent.queued() as u64
    }

    fn polls_attempted(&self) -> u64 {
        self.tunnel.polls_attempted()
    }

    fn bytes_transferred(&self) -> u64 {
        self.tunnel.bytes_transferred()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ReportPayload;
    use crate::transport::TunnelConfig;
    use airstat_stats::SeedTree;

    fn loaded_endpoint(
        seed: u64,
        device: u64,
        reports: u64,
        drop_probability: f64,
    ) -> TunnelEndpoint<rand::rngs::SmallRng> {
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

    fn solo_sched() -> Scheduler<TunnelEndpoint<rand::rngs::SmallRng>> {
        Scheduler::new(SchedConfig::solo(PollPolicy::default()))
    }

    /// An endpoint that is never built: the pre-poll contract's stub.
    struct Unbuilt {
        queued: u64,
    }

    impl PollEndpoint for Unbuilt {
        fn poll_round(&mut self, _now_s: u64) -> RoundOutcome {
            panic!("poll_round on an endpoint shed before its first round")
        }

        fn pending(&self) -> bool {
            panic!("pending on an endpoint shed before its first round")
        }

        fn queued(&self) -> u64 {
            self.queued
        }

        fn undelivered(&self) -> u64 {
            self.queued
        }

        fn polls_attempted(&self) -> u64 {
            0
        }

        fn bytes_transferred(&self) -> u64 {
            0
        }
    }

    #[test]
    fn shedding_an_unpolled_endpoint_never_polls_it() {
        let mut sched = Scheduler::new(SchedConfig {
            policy: PollPolicy {
                poll_budget: 0,
                ..PollPolicy::default()
            },
            tick_poll_budget: 1,
            capacity: Some(1),
        });
        let unbuilt = |queued| Unbuilt { queued };
        assert!(matches!(
            sched.admit(1, Priority::Low, unbuilt(3)),
            Admission::Admitted
        ));
        // Over capacity: AP 1, the oldest LOW, is evicted.
        assert!(matches!(
            sched.admit(2, Priority::High, unbuilt(2)),
            Admission::Admitted
        ));
        // At capacity with no LOW live: the LOW newcomer is rejected.
        assert!(matches!(
            sched.admit(3, Priority::Low, unbuilt(4)),
            Admission::Rejected(_)
        ));
        // A zero poll budget retires AP 2 at its first selection.
        sched.run_to_completion();
        let drains: Vec<_> = sched
            .take_finished()
            .iter()
            .map(|d| (d.key, d.evicted, d.stats.budget_exhausted, d.undelivered))
            .collect();
        assert_eq!(drains, [(1, true, false, 3), (2, false, true, 2)]);
        let stats = sched.stats();
        assert_eq!(stats.polls_by_class, [0, 0, 0]);
        assert_eq!((stats.evicted_aps, stats.evicted_reports), ([0, 0, 2], 7));
        assert_eq!(stats.budget_exhausted, 1);
    }

    #[test]
    fn priority_indices_are_dense() {
        for (i, p) in Priority::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Priority::High.label(), "high");
    }

    #[test]
    fn ledger_orders_on_due_then_key() {
        let mut ledger = RetryLedger::new();
        ledger.schedule(50, 7);
        ledger.schedule(10, 9);
        ledger.schedule(10, 2);
        assert_eq!(ledger.peek_due(), Some(10));
        assert_eq!(ledger.pop_due(60), Some((10, 2)));
        assert_eq!(ledger.pop_due(60), Some((10, 9)));
        assert_eq!(ledger.pop_due(40), None, "50 is not due at 40");
        assert_eq!(ledger.pop_due(50), Some((50, 7)));
        assert!(ledger.due.is_empty());
    }

    #[test]
    fn solo_drain_matches_flat_semantics() {
        // 10 reports at batch 4 over a clean tunnel: the same pinned
        // latencies as poll.rs's drain_clean_tunnel_records_latency.
        let mut sched = solo_sched();
        let mut agent = DeviceAgent::new(1);
        for t in 0..10 {
            agent.submit(t, ReportPayload::Usage(vec![]));
        }
        let tunnel = Tunnel::new(TunnelConfig {
            drop_probability: 0.0,
            poll_batch: 4,
        });
        let endpoint = TunnelEndpoint::new(tunnel, agent, SeedTree::new(7).rng());
        assert!(matches!(
            sched.admit(1, Priority::Normal, endpoint),
            Admission::Admitted
        ));
        sched.run_to_completion();
        let drain = sched.take_finished().pop().expect("one drain");
        assert_eq!(drain.reports.len(), 10);
        assert_eq!(drain.stats.polls, 3);
        assert_eq!(drain.stats.latency.quantile(0.5), Some(120));
        assert_eq!(drain.stats.latency.max_s(), Some(180));
        assert_eq!(drain.stats.virtual_elapsed_s, 180);
        assert!(!drain.stats.budget_exhausted);
        assert_eq!(sched.stats().completed, 1);
    }

    #[test]
    fn dead_tunnel_exhausts_budget_with_flat_backoffs() {
        let mut sched = Scheduler::new(SchedConfig::solo(PollPolicy {
            poll_budget: 4,
            ..PollPolicy::default()
        }));
        let mut agent = DeviceAgent::new(1);
        for t in 0..5 {
            agent.submit(t, ReportPayload::Usage(vec![]));
        }
        let mut tunnel = Tunnel::perfect();
        tunnel.disconnect();
        let endpoint = TunnelEndpoint::new(tunnel, agent, SeedTree::new(8).rng());
        sched.admit(1, Priority::High, endpoint);
        sched.run_to_completion();
        let drain = sched.take_finished().pop().expect("one drain");
        assert!(drain.reports.is_empty());
        assert!(drain.stats.budget_exhausted);
        assert_eq!(drain.stats.disconnected, 4);
        // 120 + 240 + 480 + 960 of backoff, exactly like the flat loop.
        assert_eq!(drain.stats.virtual_elapsed_s, 1800);
        assert_eq!(drain.undelivered, 5);
        assert_eq!(sched.stats().budget_exhausted, 1);
        assert_eq!(sched.stats().retries_scheduled, 4);
        assert!(sched.stats().time_jumps > 0, "idle gaps jump the clock");
    }

    #[test]
    fn admission_dedup_keeps_first_seen() {
        let mut sched = solo_sched();
        sched.admit(5, Priority::Low, loaded_endpoint(1, 5, 3, 0.0));
        match sched.admit(5, Priority::High, loaded_endpoint(2, 5, 9, 0.0)) {
            Admission::Deduped(dup) => assert_eq!(dup.agent().queued(), 9),
            other => panic!("expected dedup, got {other:?}"),
        }
        sched.run_to_completion();
        let drains = sched.take_finished();
        assert_eq!(drains.len(), 1);
        assert_eq!(drains[0].reports.len(), 3, "first-seen endpoint kept");
        assert_eq!(sched.stats().deduped, 1);
        assert_eq!(sched.stats().admissions, 1);
    }

    #[test]
    fn pressure_evicts_oldest_low_only() {
        let mut sched = Scheduler::new(SchedConfig {
            policy: PollPolicy::default(),
            tick_poll_budget: 1,
            capacity: Some(2),
        });
        sched.admit(1, Priority::Low, loaded_endpoint(1, 1, 2, 0.0));
        sched.admit(2, Priority::Low, loaded_endpoint(2, 2, 2, 0.0));
        // Third admission is over capacity: AP 1 (oldest LOW) is evicted.
        sched.admit(3, Priority::Normal, loaded_endpoint(3, 3, 2, 0.0));
        assert_eq!(sched.stats().evicted_aps, [0, 0, 1]);
        assert_eq!(sched.stats().evicted_reports, 2);
        let evicted: Vec<_> = sched.finished.iter().filter(|d| d.evicted).collect();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].key, 1);
        // With only HIGH/NORMAL left, a NORMAL newcomer rides over
        // capacity; a LOW newcomer is rejected.
        sched.admit(4, Priority::Normal, loaded_endpoint(4, 4, 2, 0.0));
        assert_eq!(sched.stats().evicted_aps, [0, 0, 2], "AP 2 evicted");
        match sched.admit(5, Priority::Low, loaded_endpoint(5, 5, 2, 0.0)) {
            Admission::Rejected(endpoint) => assert_eq!(endpoint.undelivered(), 2),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(sched.stats().evicted_aps, [0, 0, 3]);
        assert_eq!(sched.stats().evicted_reports, 6);
        sched.admit(6, Priority::High, loaded_endpoint(6, 6, 2, 0.0));
        assert_eq!(sched.live(), 3, "HIGH admitted over capacity");
        assert_eq!(
            sched.slots.len(),
            3,
            "evicted APs' slots were let again: six admissions, three slots"
        );
        sched.run_to_completion();
        let drains = sched.take_finished();
        assert_eq!(drains.iter().filter(|d| !d.evicted).count(), 3);
        // Accounting identity over all six APs (the rejected one
        // included): every queued report was either delivered or
        // destroyed by eviction.
        let delivered: u64 = drains.iter().map(|d| d.stats.delivered).sum();
        assert_eq!(delivered + sched.stats().evicted_reports, 2 * 6);
    }

    #[test]
    fn readmitted_key_is_polled_once_per_tick() {
        // Eviction leaves the victim's ticket in the LOW ready queue. When
        // the queues held bare keys, re-admitting an evicted key while
        // its stale entry lingered queued the new admission twice: one
        // live AP, two polls in one tick.
        let mut sched = Scheduler::new(SchedConfig {
            policy: PollPolicy::default(),
            tick_poll_budget: 8,
            capacity: Some(1),
        });
        for key in [1, 2, 1] {
            assert!(matches!(
                sched.admit(key, Priority::Low, loaded_endpoint(key, key, 10, 0.0)),
                Admission::Admitted
            ));
        }
        assert_eq!(sched.live(), 1);
        assert_eq!(sched.stats().evicted_aps, [0, 0, 2]);
        let evicted: Vec<u64> = sched.drain_finished().map(|d| d.key).collect();
        assert_eq!(evicted, [1, 2], "oldest admission first");
        assert!(sched.tick());
        assert_eq!(
            sched.stats().polls_by_class,
            [0, 0, 1],
            "one live AP, one poll per tick"
        );
        assert_eq!(sched.ready_live, [0, 0, 1], "still draining: ready again");
        sched.run_to_completion();
        let drains = sched.take_finished();
        assert_eq!(drains.len(), 1);
        assert_eq!((drains[0].key, drains[0].reports.len()), (1, 10));
        // 10 reports at batch 4.
        assert_eq!(sched.stats().polls_by_class, [0, 0, 3]);
    }

    #[test]
    fn priority_classes_share_the_tick_budget() {
        // 8-per-tick budget: guarantees [5, 2, 1].
        assert_eq!(class_guarantees(8), [5, 2, 1]);
        assert_eq!(class_guarantees(1), [1, 0, 0]);
        assert_eq!(class_guarantees(512), [320, 128, 64]);
        let mut sched = Scheduler::new(SchedConfig {
            policy: PollPolicy::default(),
            tick_poll_budget: 8,
            capacity: None,
        });
        let mut key = 0u64;
        for (priority, n) in [
            (Priority::High, 6usize),
            (Priority::Normal, 6),
            (Priority::Low, 12),
        ] {
            for _ in 0..n {
                key += 1;
                sched.admit(key, priority, loaded_endpoint(key, key, 8, 0.0));
            }
        }
        sched.run_to_completion();
        let stats = sched.stats().clone();
        assert_eq!(stats.completed, 24);
        assert!(stats.polls_by_class.iter().all(|&p| p > 0));
        for class in Priority::ALL {
            let bound = sched
                .poll_gap_bound_ticks(class)
                .expect("budget 8 guarantees every class");
            assert!(
                stats.max_queue_wait_ticks[class.index()] <= bound,
                "{} waited {} ticks, bound {}",
                class.label(),
                stats.max_queue_wait_ticks[class.index()],
                bound,
            );
        }
    }

    #[test]
    fn lossy_fleet_drains_deterministically() {
        let run = || {
            let mut sched = Scheduler::new(SchedConfig {
                policy: PollPolicy::default(),
                tick_poll_budget: 4,
                capacity: None,
            });
            for key in 0..20u64 {
                let priority = Priority::ALL[(key % 3) as usize];
                sched.admit(key, priority, loaded_endpoint(42, key, 6, 0.3));
            }
            sched.run_to_completion();
            let mut drains = sched.take_finished();
            drains.sort_by_key(|d| d.key);
            let summary: Vec<_> = drains
                .iter()
                .map(|d| (d.key, d.stats.polls, d.stats.virtual_elapsed_s))
                .collect();
            (summary, sched.stats().clone())
        };
        let (a_summary, a_stats) = run();
        let (b_summary, b_stats) = run();
        assert_eq!(a_summary, b_summary);
        assert_eq!(a_stats, b_stats);
        assert!(a_stats.retries_scheduled > 0, "losses hit the ledger");
        assert_eq!(a_stats.retries_scheduled, a_stats.retries_promoted);
    }

    #[test]
    fn interleaving_does_not_change_per_ap_results() {
        // The byte-identity argument: an AP drained alongside 19 others
        // produces exactly the stats it produces alone.
        let solo = |key: u64| {
            let mut sched = solo_sched();
            sched.admit(key, Priority::Normal, loaded_endpoint(42, key, 6, 0.3));
            sched.run_to_completion();
            let drain = sched.take_finished().pop().expect("one drain");
            (drain.reports, drain.stats)
        };
        let mut sched = Scheduler::new(SchedConfig {
            policy: PollPolicy::default(),
            tick_poll_budget: 4,
            capacity: None,
        });
        for key in 0..20u64 {
            let priority = Priority::ALL[(key % 3) as usize];
            sched.admit(key, priority, loaded_endpoint(42, key, 6, 0.3));
        }
        sched.run_to_completion();
        for drain in sched.take_finished() {
            let (solo_reports, solo_stats) = solo(drain.key);
            assert_eq!(drain.reports, solo_reports, "AP {}", drain.key);
            assert_eq!(drain.stats, solo_stats, "AP {}", drain.key);
        }
    }

    #[test]
    fn sched_stats_merge_and_render() {
        let mut a = SchedStats {
            admissions: 2,
            polls_by_class: [1, 2, 3],
            max_ready_depth: [1, 5, 2],
            ..SchedStats::default()
        };
        let b = SchedStats {
            admissions: 3,
            evicted_aps: [0, 0, 4],
            evicted_reports: 9,
            max_ready_depth: [2, 1, 7],
            ..SchedStats::default()
        };
        a.merge(&b);
        assert_eq!(a.admissions, 5);
        assert_eq!(a.evictions(), 4);
        assert_eq!(a.max_ready_depth, [2, 5, 7]);
        let text = a.to_string();
        assert!(text.contains("scheduler: 0 ticks"));
        assert!(text.contains("high 0  normal 0  low 4"));
        assert!(text.contains("9 undelivered reports lost"));
    }
}
