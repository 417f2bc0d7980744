//! The backend's poll policy: retry pacing, budgets, and drain telemetry.
//!
//! §2's backend polls devices for queued reports; this module is the
//! *policy* side of that loop. A [`PollPolicy`] fixes the poll cadence,
//! the capped exponential backoff applied after failed rounds, and a
//! per-device poll budget; a [`PollSession`] executes the policy over a
//! sequence of poll rounds while accounting *virtual* time, so report
//! latency can be measured deterministically (no wall clocks involved);
//! [`drain_scheduled`] runs the whole loop against a [`Tunnel`] — on
//! the scheduler's one drain path, [`drain_solo`] — and returns the
//! delivered reports plus [`DrainStats`]; [`drain_flat_reference`] is
//! the flat loop tests hold that path to.
//!
//! Duplicate-safe re-ingestion is the other half of the contract: the
//! policy retries freely because delivery is at-least-once — every report
//! handed back more than once (a lost ack, a re-poll storm) is rejected by
//! [`Backend::ingest`](crate::backend::Backend::ingest)'s sequence-number
//! dedup, so retries can never double-count.

use std::collections::BTreeMap;

use rand::Rng;

use crate::report::Report;
use crate::sched::{drain_solo, PollEndpoint, Priority, RoundOutcome, SchedStats, TunnelEndpoint};
use crate::transport::{DeviceAgent, Tunnel};

/// Backend-side polling policy for one device drain.
///
/// All times are *virtual seconds*: the simulation advances a logical
/// clock per poll round instead of sleeping, which keeps campaigns
/// deterministic and instant while still producing a meaningful latency
/// distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PollPolicy {
    /// Virtual seconds a healthy poll round takes (request + response).
    pub poll_interval_s: u64,
    /// Backoff after the first failed round; doubles per consecutive
    /// failure.
    pub base_backoff_s: u64,
    /// Ceiling for the exponential backoff.
    pub max_backoff_s: u64,
    /// Maximum poll rounds the backend spends on one device per drain;
    /// exhausting it leaves the remainder queued on the device.
    pub poll_budget: u64,
}

impl Default for PollPolicy {
    fn default() -> Self {
        PollPolicy {
            poll_interval_s: 60,
            base_backoff_s: 120,
            max_backoff_s: 1920,
            poll_budget: 100_000,
        }
    }
}

/// Executes a [`PollPolicy`] over successive poll rounds, tracking the
/// virtual clock, the consecutive-failure count, and the budget.
#[derive(Debug, Clone)]
pub struct PollSession {
    policy: PollPolicy,
    now_s: u64,
    rounds: u64,
    consecutive_failures: u32,
}

impl PollSession {
    /// Starts a session at virtual time zero.
    pub fn new(policy: PollPolicy) -> Self {
        PollSession {
            policy,
            now_s: 0,
            rounds: 0,
            consecutive_failures: 0,
        }
    }

    /// Current virtual time (seconds since the drain began).
    pub fn now_s(&self) -> u64 {
        self.now_s
    }

    /// Charges one round against the budget. Returns `false` — without
    /// consuming anything — once the budget is exhausted.
    pub fn begin_round(&mut self) -> bool {
        if self.rounds >= self.policy.poll_budget {
            return false;
        }
        self.rounds += 1;
        true
    }

    /// The backoff the *next* failure would cost, given the failures so
    /// far: `min(base << failures, max)`.
    pub fn next_backoff_s(&self) -> u64 {
        let base = self.policy.base_backoff_s;
        if base == 0 {
            return 0;
        }
        // `checked_shl` only guards the shift *amount*; a long enough
        // failure streak would wrap the shifted value itself below the
        // base. Saturate at the cap once the shift would spill past the
        // top bit.
        if self.consecutive_failures >= base.leading_zeros() {
            return self.policy.max_backoff_s;
        }
        (base << self.consecutive_failures).min(self.policy.max_backoff_s)
    }

    /// Records a delivered round: the failure streak resets and the clock
    /// advances by one poll interval.
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
        self.now_s = self.now_s.saturating_add(self.policy.poll_interval_s);
    }

    /// Records a failed round (lost or disconnected): the clock advances
    /// by the current backoff, which then doubles toward the cap.
    pub fn on_failure(&mut self) {
        self.now_s = self.now_s.saturating_add(self.next_backoff_s());
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
    }
}

/// A compact latency distribution over virtual seconds.
///
/// Counts are bucketed by exact virtual-second value in a `BTreeMap`;
/// drains produce few distinct time points (one per round), so this stays
/// tiny even for fleet-scale merges while giving exact quantiles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl LatencyHistogram {
    /// Records `n` samples at `latency_s`.
    pub fn record_n(&mut self, latency_s: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(latency_s).or_default() += n;
        self.total += n;
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (&latency_s, &n) in &other.counts {
            *self.counts.entry(latency_s).or_default() += n;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`0 < q <= 1`) of the recorded samples, or `None`
    /// when empty. `quantile(0.5)` is the median, `quantile(1.0)` the max.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (&latency_s, &n) in &self.counts {
            seen += n;
            if seen >= rank {
                return Some(latency_s);
            }
        }
        self.counts.keys().next_back().copied()
    }

    /// The largest recorded latency, or `None` when empty.
    pub fn max_s(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }
}

/// What one policy-driven drain observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DrainStats {
    /// Poll rounds executed.
    pub polls: u64,
    /// Rounds lost to transient faults.
    pub lost: u64,
    /// Rounds that found the tunnel down.
    pub disconnected: u64,
    /// Reports delivered over the wire (retransmissions included).
    pub delivered: u64,
    /// Delivered reports that were wire-level retransmissions of an
    /// already-delivered sequence number (the backend's dedup drops them).
    pub redelivered: u64,
    /// Wire bytes encoded during the drain.
    pub bytes: u64,
    /// Virtual seconds the drain took end to end.
    pub virtual_elapsed_s: u64,
    /// Per-report delivery latency (virtual seconds since drain start).
    pub latency: LatencyHistogram,
    /// Whether the poll budget ran out with reports still queued.
    pub budget_exhausted: bool,
}

/// Drains `agent` through `tunnel` under `policy`, returning the
/// delivered reports (in delivery order), the drain statistics, and the
/// scheduler's own counters.
///
/// A thin caller of [`drain_solo`]: the tunnel and agent ride a
/// [`TunnelEndpoint`] through a one-AP scheduler — exactly one
/// [`Tunnel::poll`] per round — and are handed back afterwards.
pub fn drain_scheduled<R: Rng + ?Sized>(
    policy: PollPolicy,
    tunnel: &mut Tunnel,
    agent: &mut DeviceAgent,
    rng: &mut R,
) -> (Vec<Report>, DrainStats, SchedStats) {
    // The scheduler owns its endpoints; borrow the caller's tunnel and
    // agent for the drain's duration and hand them back afterwards.
    let owned_tunnel = std::mem::replace(tunnel, Tunnel::perfect());
    let owned_agent = std::mem::replace(agent, DeviceAgent::new(0));
    let endpoint = TunnelEndpoint::new(owned_tunnel, owned_agent, rng);
    let (drain, sched) = drain_solo(policy, Priority::Normal, endpoint);
    let (t, a, _) = drain.endpoint.into_parts();
    *tunnel = t;
    *agent = a;
    (drain.reports, drain.stats, sched)
}

/// The flat drain loop, kept as the oracle for [`drain_solo`] and called
/// only from tests (`tests/scheduler.rs` runs the two side by side over
/// every endpoint type and fault preset). One endpoint, one
/// [`PollSession`], rounds back to back through the same
/// [`PollEndpoint`] calls the scheduler makes — no queues, no retry
/// ledger, no clock jumps.
pub fn drain_flat_reference<E: PollEndpoint>(
    policy: PollPolicy,
    endpoint: &mut E,
) -> (Vec<Report>, DrainStats) {
    let polls_before = endpoint.polls_attempted();
    let bytes_before = endpoint.bytes_transferred();
    let mut session = PollSession::new(policy);
    let mut stats = DrainStats::default();
    let mut delivered = Vec::new();
    loop {
        if !session.begin_round() {
            stats.budget_exhausted = endpoint.queued() > 0;
            break;
        }
        match endpoint.poll_round(session.now_s()) {
            RoundOutcome::Delivered {
                reports,
                redelivered,
            } => {
                session.on_success();
                let n = reports.len() as u64;
                stats.delivered += n;
                stats.redelivered += redelivered;
                stats.latency.record_n(session.now_s(), n);
                delivered.extend(reports);
                if !endpoint.pending() {
                    break;
                }
            }
            failed => {
                session.on_failure();
                match failed {
                    RoundOutcome::Lost => stats.lost += 1,
                    _ => stats.disconnected += 1,
                }
                if !endpoint.continue_after_failure() {
                    break;
                }
            }
        }
    }
    stats.polls = endpoint.polls_attempted() - polls_before;
    stats.bytes = endpoint.bytes_transferred() - bytes_before;
    stats.virtual_elapsed_s = session.now_s();
    (delivered, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ReportPayload;
    use crate::transport::{PollOutcome, TunnelConfig};
    use airstat_stats::SeedTree;

    fn loaded_agent(n: u64) -> DeviceAgent {
        let mut agent = DeviceAgent::new(1);
        for t in 0..n {
            agent.submit(t, ReportPayload::Usage(vec![]));
        }
        agent
    }

    #[test]
    fn backoff_doubles_to_cap() {
        let mut session = PollSession::new(PollPolicy {
            poll_interval_s: 1,
            base_backoff_s: 10,
            max_backoff_s: 35,
            poll_budget: 100,
        });
        assert_eq!(session.next_backoff_s(), 10);
        session.on_failure();
        assert_eq!(session.next_backoff_s(), 20);
        session.on_failure();
        assert_eq!(session.next_backoff_s(), 35, "capped");
        session.on_failure();
        assert_eq!(session.next_backoff_s(), 35);
        assert_eq!(session.now_s(), 10 + 20 + 35);
        // Success resets the streak.
        session.on_success();
        assert_eq!(session.next_backoff_s(), 10);
    }

    #[test]
    fn budget_limits_rounds() {
        let mut session = PollSession::new(PollPolicy {
            poll_budget: 2,
            ..PollPolicy::default()
        });
        assert!(session.begin_round());
        assert!(session.begin_round());
        assert!(!session.begin_round());
        assert_eq!(session.rounds, 2);
    }

    #[test]
    fn drain_clean_tunnel_records_latency() {
        let mut agent = loaded_agent(10);
        let mut tunnel = Tunnel::new(TunnelConfig {
            drop_probability: 0.0,
            poll_batch: 4,
        });
        let mut rng = SeedTree::new(7).rng();
        let (reports, stats, _) =
            drain_scheduled(PollPolicy::default(), &mut tunnel, &mut agent, &mut rng);
        assert_eq!(reports.len(), 10);
        assert_eq!(stats.polls, 3, "10 reports at batch 4");
        assert_eq!(stats.delivered, 10);
        assert_eq!(stats.lost + stats.disconnected, 0);
        assert!(!stats.budget_exhausted);
        // Three healthy rounds at 60 s each: latencies 60 (x4), 120 (x4),
        // 180 (x2) — the median straddles into the second round.
        assert_eq!(stats.latency.quantile(0.4), Some(60));
        assert_eq!(stats.latency.quantile(0.5), Some(120));
        assert_eq!(stats.latency.max_s(), Some(180));
        assert_eq!(stats.virtual_elapsed_s, 180);
    }

    #[test]
    fn drain_exhausts_budget_on_dead_tunnel() {
        let mut agent = loaded_agent(5);
        let mut tunnel = Tunnel::perfect();
        tunnel.disconnect();
        let mut rng = SeedTree::new(8).rng();
        let policy = PollPolicy {
            poll_budget: 4,
            ..PollPolicy::default()
        };
        let (reports, stats, _) = drain_scheduled(policy, &mut tunnel, &mut agent, &mut rng);
        assert!(reports.is_empty());
        assert!(stats.budget_exhausted);
        assert_eq!(stats.disconnected, 4);
        assert_eq!(agent.queued(), 5, "reports wait out the outage");
        // 120 + 240 + 480 + 960 of backoff elapsed.
        assert_eq!(stats.virtual_elapsed_s, 1800);
    }

    #[test]
    fn drain_matches_bare_loop_wire_behaviour() {
        // Same tunnel config + same RNG stream => identical outcomes and
        // bytes to the bare `Tunnel::poll` loop the engine used before.
        let config = TunnelConfig {
            drop_probability: 0.3,
            poll_batch: 2,
        };
        let seed = SeedTree::new(99);

        let mut bare_agent = loaded_agent(7);
        let mut bare_tunnel = Tunnel::new(config);
        let mut bare_rng = seed.child("tunnel").rng();
        let mut bare_reports = Vec::new();
        for _ in 0..100_000 {
            match bare_tunnel.poll(&mut bare_agent, &mut bare_rng) {
                PollOutcome::Delivered(reports) => {
                    bare_reports.extend(reports);
                    if bare_agent.queued() == 0 {
                        break;
                    }
                }
                PollOutcome::Lost | PollOutcome::Disconnected => {}
            }
        }

        let mut agent = loaded_agent(7);
        let mut tunnel = Tunnel::new(config);
        let mut rng = seed.child("tunnel").rng();
        let (reports, stats, _) =
            drain_scheduled(PollPolicy::default(), &mut tunnel, &mut agent, &mut rng);

        assert_eq!(reports, bare_reports);
        assert_eq!(stats.polls, bare_tunnel.polls_attempted());
        assert_eq!(stats.bytes, bare_tunnel.bytes_transferred());
    }

    #[test]
    fn histogram_quantiles_are_exact() {
        let mut h = LatencyHistogram::default();
        h.record_n(60, 50);
        h.record_n(120, 30);
        h.record_n(960, 20);
        assert_eq!(h.total, 100);
        assert_eq!(h.quantile(0.5), Some(60));
        assert_eq!(h.quantile(0.8), Some(120));
        assert_eq!(h.quantile(0.9), Some(960));
        assert_eq!(h.quantile(1.0), Some(960));
        assert_eq!(h.max_s(), Some(960));
        let mut other = LatencyHistogram::default();
        other.record_n(60, 10);
        h.merge(&other);
        assert_eq!(h.total, 110);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.max_s(), None);
        assert_eq!(h.total, 0);
    }
}
