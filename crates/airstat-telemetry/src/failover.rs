//! Dual data-center tunnels with failover.
//!
//! §2: "Each piece of Meraki networking equipment maintains persistent
//! encrypted tunnels to **two different backend data centers**." The
//! second tunnel is why a data-center outage costs the fleet nothing but
//! latency: the poller fails over, the device's queue keeps everything in
//! the meantime, and sequence-number dedup makes the hand-back safe.

use rand::Rng;

use crate::transport::{DeviceAgent, PollOutcome, Tunnel, TunnelConfig};

/// Which data center served a poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataCenter {
    /// The primary (preferred) data center.
    Primary,
    /// The secondary, used while the primary is unreachable.
    Secondary,
}

/// A device's two tunnels plus the failover policy.
#[derive(Debug, Clone)]
pub struct DualTunnel {
    primary: Tunnel,
    secondary: Tunnel,
    /// Consecutive primary failures before failing over.
    failover_threshold: u32,
    /// Current consecutive primary failures.
    primary_failures: u32,
    /// Polls served per data center.
    served: [u64; 2],
}

impl DualTunnel {
    /// Creates a dual tunnel; both sides share the fault configuration.
    pub fn new(config: TunnelConfig, failover_threshold: u32) -> Self {
        assert!(failover_threshold > 0, "threshold must be > 0");
        DualTunnel {
            primary: Tunnel::new(config),
            secondary: Tunnel::new(config),
            failover_threshold,
            primary_failures: 0,
            served: [0, 0],
        }
    }

    /// Simulates a full outage of one data center.
    pub fn outage(&mut self, dc: DataCenter) {
        match dc {
            DataCenter::Primary => self.primary.disconnect(),
            DataCenter::Secondary => self.secondary.disconnect(),
        }
    }

    /// Restores a data center.
    pub fn restore(&mut self, dc: DataCenter) {
        match dc {
            DataCenter::Primary => self.primary.reconnect(),
            DataCenter::Secondary => self.secondary.reconnect(),
        }
        if dc == DataCenter::Primary {
            // Fail back eagerly: the device prefers its primary.
            self.primary_failures = 0;
        }
    }

    /// Polls served by each data center so far.
    pub fn served_by(&self, dc: DataCenter) -> u64 {
        match dc {
            DataCenter::Primary => self.served[0],
            DataCenter::Secondary => self.served[1],
        }
    }

    /// Total polls attempted across both data centers.
    pub fn polls_attempted(&self) -> u64 {
        self.primary.polls_attempted() + self.secondary.polls_attempted()
    }

    /// Wire bytes transferred across both data centers.
    pub fn bytes_transferred(&self) -> u64 {
        self.primary.bytes_transferred() + self.secondary.bytes_transferred()
    }

    /// One backend poll with failover: try the preferred tunnel, switch to
    /// the other after `failover_threshold` consecutive failures.
    ///
    /// Returns the outcome plus which data center produced it.
    /// `ack = false` models a lost acknowledgement or a speculative
    /// re-poll (a burst storm after an outage): reports reach the backend
    /// but stay queued on the device, so the following poll retransmits —
    /// sequence-number dedup absorbs the duplicates.
    pub fn poll_mode<R: Rng + ?Sized>(
        &mut self,
        agent: &mut DeviceAgent,
        rng: &mut R,
        ack: bool,
    ) -> (PollOutcome, DataCenter) {
        let use_secondary = self.primary_failures >= self.failover_threshold;
        let dc = if use_secondary {
            DataCenter::Secondary
        } else {
            DataCenter::Primary
        };
        let tunnel = match dc {
            DataCenter::Primary => &mut self.primary,
            DataCenter::Secondary => &mut self.secondary,
        };
        let outcome = if ack {
            tunnel.poll(agent, rng)
        } else {
            tunnel.poll_unacked(agent, rng)
        };
        match (&outcome, dc) {
            (PollOutcome::Delivered(_), DataCenter::Primary) => {
                self.primary_failures = 0;
                self.served[0] += 1;
            }
            (PollOutcome::Delivered(_), DataCenter::Secondary) => {
                self.served[1] += 1;
                // Probe the primary again after a successful secondary
                // poll so the device fails back once the outage ends.
                self.primary_failures = self.failover_threshold.saturating_sub(1).max(1);
                if self.primary.is_connected() {
                    self.primary_failures = 0;
                }
            }
            (PollOutcome::Lost | PollOutcome::Disconnected, DataCenter::Primary) => {
                self.primary_failures += 1;
            }
            (PollOutcome::Lost | PollOutcome::Disconnected, DataCenter::Secondary) => {}
        }
        (outcome, dc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Report, ReportPayload};
    use airstat_stats::SeedTree;

    /// Polls `agent` with acks until its queue is empty: every report
    /// delivered, and the polls it took.
    fn drain<R: Rng>(
        dual: &mut DualTunnel,
        agent: &mut DeviceAgent,
        rng: &mut R,
    ) -> (Vec<Report>, u64) {
        let mut delivered = Vec::new();
        let mut polls = 0u64;
        while agent.queued() > 0 {
            polls += 1;
            assert!(polls < 1_000_000, "both data centers unreachable");
            if let (PollOutcome::Delivered(reports), _) = dual.poll_mode(agent, rng, true) {
                delivered.extend(reports);
            }
        }
        (delivered, polls)
    }

    fn loaded_agent(n: u64) -> DeviceAgent {
        let mut agent = DeviceAgent::new(1);
        for t in 0..n {
            agent.submit(t, ReportPayload::Usage(vec![]));
        }
        agent
    }

    #[test]
    fn healthy_primary_serves_everything() {
        let mut dual = DualTunnel::new(TunnelConfig::default(), 3);
        let mut agent = loaded_agent(100);
        let mut rng = SeedTree::new(1).rng();
        let (reports, _) = drain(&mut dual, &mut agent, &mut rng);
        assert_eq!(reports.len(), 100);
        assert!(dual.served_by(DataCenter::Primary) > 0);
        assert_eq!(dual.served_by(DataCenter::Secondary), 0);
    }

    #[test]
    fn primary_outage_fails_over_and_loses_nothing() {
        let mut dual = DualTunnel::new(
            TunnelConfig {
                drop_probability: 0.0,
                poll_batch: 16,
            },
            3,
        );
        dual.outage(DataCenter::Primary);
        let mut agent = loaded_agent(64);
        let mut rng = SeedTree::new(2).rng();
        let (reports, polls) = drain(&mut dual, &mut agent, &mut rng);
        assert_eq!(reports.len(), 64, "nothing lost across failover");
        assert!(dual.served_by(DataCenter::Secondary) > 0);
        assert_eq!(dual.served_by(DataCenter::Primary), 0);
        // The threshold probes cost a few wasted polls, nothing more.
        assert!(polls < 64 / 16 + 16, "polls {polls}");
    }

    #[test]
    fn fails_back_when_primary_restored() {
        let mut dual = DualTunnel::new(TunnelConfig::default(), 2);
        dual.outage(DataCenter::Primary);
        let mut agent = loaded_agent(200);
        let mut rng = SeedTree::new(3).rng();
        // Partially drain on the secondary.
        for _ in 0..2 {
            dual.poll_mode(&mut agent, &mut rng, true); // failures -> threshold
        }
        let (_, dc) = dual.poll_mode(&mut agent, &mut rng, true);
        assert_eq!(dc, DataCenter::Secondary);
        // Primary returns; the device must fail back.
        dual.restore(DataCenter::Primary);
        let (_, dc) = dual.poll_mode(&mut agent, &mut rng, true);
        assert_eq!(dc, DataCenter::Primary);
    }

    #[test]
    fn double_outage_keeps_queueing() {
        let mut dual = DualTunnel::new(TunnelConfig::default(), 1);
        dual.outage(DataCenter::Primary);
        dual.outage(DataCenter::Secondary);
        let mut agent = loaded_agent(10);
        let mut rng = SeedTree::new(4).rng();
        for _ in 0..20 {
            let (outcome, _) = dual.poll_mode(&mut agent, &mut rng, true);
            assert!(!matches!(outcome, PollOutcome::Delivered(_)));
        }
        assert_eq!(agent.queued(), 10, "reports wait out the double outage");
        // Restore one side: everything flows.
        dual.restore(DataCenter::Secondary);
        let (reports, _) = drain(&mut dual, &mut agent, &mut rng);
        assert_eq!(reports.len(), 10);
    }

    #[test]
    #[should_panic(expected = "threshold must be > 0")]
    fn zero_threshold_rejected() {
        let _ = DualTunnel::new(TunnelConfig::default(), 0);
    }
}
