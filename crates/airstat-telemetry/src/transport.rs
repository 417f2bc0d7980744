//! Device agents and the faulty tunnel between device and backend.
//!
//! §2 of the paper, distilled:
//!
//! * devices maintain persistent tunnels and are **polled** by the backend
//!   (pull, not push — "which helps regulate the flow of updates to the
//!   database during times of peak load");
//! * "in the event a device is unable to reach the Meraki backend, normal
//!   client routing and accounting continues. The backend polls for queued
//!   information when the connection is reestablished";
//! * reports are retained until acknowledged, so a dropped poll response
//!   is retransmitted later (at-least-once; the backend deduplicates by
//!   sequence number).
//!
//! [`DeviceAgent`] is the on-device side: a bounded queue of encoded
//! reports with monotone sequence numbers. [`Tunnel`] injects faults
//! (drop probability, forced disconnects) between the agent and the
//! backend's poller, in the spirit of smoltcp's fault-injecting examples.

use std::collections::VecDeque;

use rand::Rng;

use crate::report::{Report, ReportPayload};

/// The on-device telemetry agent: queues reports until the backend polls.
#[derive(Debug, Clone)]
pub struct DeviceAgent {
    device_id: u64,
    next_seq: u64,
    queue: VecDeque<Report>,
    capacity: usize,
    dropped_overflow: u64,
}

impl DeviceAgent {
    /// Default queue capacity, sized for hours of disconnection.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Queue slots allocated up front (fewer under a smaller capacity).
    const INITIAL_QUEUE: usize = 8;

    /// Creates an agent for a device with the default queue capacity.
    pub fn new(device_id: u64) -> Self {
        Self::with_capacity(device_id, Self::DEFAULT_CAPACITY)
    }

    /// Creates an agent with an explicit queue capacity.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_capacity(device_id: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be > 0");
        DeviceAgent {
            device_id,
            next_seq: 0,
            // One allocation for a short backlog, where a queue grown
            // from empty pays 0 → 4 → 8; a long one doubles from here.
            queue: VecDeque::with_capacity(capacity.min(Self::INITIAL_QUEUE)),
            capacity,
            dropped_overflow: 0,
        }
    }

    /// The device id this agent stamps on its reports.
    pub fn tenant(&self) -> u64 {
        self.device_id
    }

    /// Queues a new report payload stamped with the device clock.
    ///
    /// When the queue is full the **oldest** report is discarded (newest
    /// data is most valuable for monitoring) and counted in
    /// [`DeviceAgent::dropped_overflow`].
    ///
    /// Reports queue while the device is offline and survive until the
    /// backend's catch-up poll acknowledges them (§2):
    ///
    /// ```
    /// use airstat_telemetry::report::ReportPayload;
    /// use airstat_telemetry::transport::{DeviceAgent, PollOutcome, Tunnel};
    /// use airstat_stats::SeedTree;
    ///
    /// let mut agent = DeviceAgent::new(7);
    /// let mut tunnel = Tunnel::perfect();
    /// let mut rng = SeedTree::new(1).rng();
    ///
    /// // The WAN goes down; the device keeps queuing.
    /// tunnel.disconnect();
    /// agent.submit(0, ReportPayload::Usage(vec![]));
    /// agent.submit(60, ReportPayload::Usage(vec![]));
    /// assert_eq!(tunnel.poll(&mut agent, &mut rng), PollOutcome::Disconnected);
    /// assert_eq!(agent.queued(), 2, "nothing lost while offline");
    ///
    /// // Connectivity returns; the backend's re-poll drains the backlog.
    /// tunnel.reconnect();
    /// let PollOutcome::Delivered(reports) = tunnel.poll(&mut agent, &mut rng) else {
    ///     unreachable!("perfect tunnel delivers");
    /// };
    /// assert_eq!(reports.len(), 2);
    /// assert_eq!(agent.queued(), 0, "delivered reports were acked");
    /// ```
    pub fn submit(&mut self, timestamp_s: u64, payload: ReportPayload) {
        let report = Report {
            device: self.device_id,
            seq: self.next_seq,
            timestamp_s,
            payload,
        };
        self.next_seq += 1;
        if self.queue.len() == self.capacity {
            self.queue.pop_front();
            self.dropped_overflow += 1;
        }
        self.queue.push_back(report);
    }

    /// Number of reports waiting for a poll.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Reports discarded because the queue overflowed while disconnected.
    pub fn dropped_overflow(&self) -> u64 {
        self.dropped_overflow
    }

    /// The queued reports, oldest first, borrowed: what a poll encodes
    /// from and what counts of the queue read, without copying a report
    /// (or its payload) to do it.
    pub fn queued_reports(&self) -> impl Iterator<Item = &Report> {
        self.queue.iter()
    }

    /// Acknowledges all reports with `seq <= upto`, releasing queue space.
    ///
    /// Delivery is at-least-once: when the ack itself is lost, the device
    /// retransmits on the next poll and the backend's sequence-number
    /// dedup rejects the duplicate — the queue→re-poll→dedup flow end to
    /// end:
    ///
    /// ```
    /// use airstat_telemetry::backend::{Backend, WindowId};
    /// use airstat_telemetry::report::{Report, ReportPayload};
    /// use airstat_telemetry::transport::DeviceAgent;
    ///
    /// let mut agent = DeviceAgent::new(7);
    /// let mut backend = Backend::new();
    /// agent.submit(0, ReportPayload::Usage(vec![]));
    ///
    /// // Poll #1 delivers, but the ack is lost on the way back: the
    /// // report stays queued on the device.
    /// let batch: Vec<Report> = agent.queued_reports().cloned().collect();
    /// assert_eq!(backend.ingest_batch(WindowId(1501), &batch), 1);
    /// assert_eq!(agent.queued(), 1, "unacked report is retained");
    ///
    /// // Poll #2 retransmits; dedup drops it; this ack arrives.
    /// let batch: Vec<Report> = agent.queued_reports().cloned().collect();
    /// assert_eq!(backend.ingest_batch(WindowId(1501), &batch), 0);
    /// agent.ack(batch.last().unwrap().seq);
    /// assert_eq!(agent.queued(), 0);
    /// ```
    pub fn ack(&mut self, upto: u64) {
        while let Some(front) = self.queue.front() {
            if front.seq <= upto {
                self.queue.pop_front();
            } else {
                break;
            }
        }
    }

    /// Reports ever submitted to this agent (the next sequence number);
    /// the denominator of a campaign's completeness ratio.
    pub fn reports_submitted(&self) -> u64 {
        self.next_seq
    }

    /// Simulates a crash/reboot cycle: the in-RAM report queue is lost,
    /// but sequence numbering continues (the counter lives in flash), so
    /// backend dedup stays correct across the reboot. Returns how many
    /// queued reports the crash destroyed.
    pub fn crash_reboot(&mut self) -> usize {
        let lost = self.queue.len();
        self.queue.clear();
        lost
    }
}

/// Fault-injection configuration for a tunnel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunnelConfig {
    /// Probability that any single poll round-trip is lost.
    pub drop_probability: f64,
    /// Maximum reports transferred per poll.
    pub poll_batch: usize,
}

impl Default for TunnelConfig {
    fn default() -> Self {
        TunnelConfig {
            drop_probability: 0.0,
            poll_batch: 64,
        }
    }
}

/// The (possibly faulty) path between one device agent and the backend.
///
/// The tunnel serializes reports to wire bytes and back — polls exercise
/// the full encode/decode path exactly like the production system.
#[derive(Debug, Clone)]
pub struct Tunnel {
    config: TunnelConfig,
    connected: bool,
    polls_attempted: u64,
    bytes_transferred: u64,
    // Per-tunnel wire/record scratch, reused across every report a poll
    // encodes instead of allocating per record.
    wire_buf: Vec<u8>,
    record_scratch: Vec<u8>,
}

/// The outcome of one poll over a tunnel.
#[derive(Debug, Clone, PartialEq)]
pub enum PollOutcome {
    /// The device was unreachable (tunnel down).
    Disconnected,
    /// The round-trip was lost to a transient fault; the device keeps its
    /// queue and a later poll will retransmit.
    Lost,
    /// Reports delivered and acknowledged.
    Delivered(Vec<Report>),
}

impl Tunnel {
    /// Creates a connected tunnel with the given fault configuration.
    pub fn new(config: TunnelConfig) -> Self {
        Tunnel {
            config,
            connected: true,
            polls_attempted: 0,
            bytes_transferred: 0,
            wire_buf: Vec::new(),
            record_scratch: Vec::new(),
        }
    }

    /// A perfect tunnel: zero drop probability and initially connected,
    /// with the default poll batch of [`TunnelConfig::default`].
    ///
    /// "Perfect" covers the *fault injection*, not the topology —
    /// [`Tunnel::disconnect`] still works on a perfect tunnel (a WAN
    /// outage is an event, not a tunnel property), and a perfect tunnel
    /// still batches polls. A test pins both properties.
    pub fn perfect() -> Self {
        Tunnel::new(TunnelConfig::default())
    }

    /// Whether the tunnel is currently up.
    pub(crate) fn is_connected(&self) -> bool {
        self.connected
    }

    /// Simulates a WAN outage: subsequent polls fail until reconnect.
    pub fn disconnect(&mut self) {
        self.connected = false;
    }

    /// Restores connectivity.
    pub fn reconnect(&mut self) {
        self.connected = true;
    }

    /// Total polls attempted through this tunnel.
    pub(crate) fn polls_attempted(&self) -> u64 {
        self.polls_attempted
    }

    /// Wire bytes successfully transferred (encoded report bytes on
    /// delivered polls; lost polls transfer nothing that counts).
    pub(crate) fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    /// Performs one backend-initiated poll of `agent`.
    ///
    /// On success the transferred reports are acknowledged on the agent and
    /// returned as decoded values (after a wire round-trip). On loss the
    /// agent queue is untouched, so the next poll retransmits.
    pub fn poll<R: Rng + ?Sized>(&mut self, agent: &mut DeviceAgent, rng: &mut R) -> PollOutcome {
        self.poll_inner(agent, rng, true)
    }

    /// Like [`Tunnel::poll`], but the acknowledgement is lost in transit:
    /// reports reach the backend yet stay queued on the device, so the
    /// next poll retransmits them. This is how fault campaigns model lost
    /// acks and burst re-poll storms; the backend's sequence-number dedup
    /// makes the redelivery harmless.
    pub(crate) fn poll_unacked<R: Rng + ?Sized>(
        &mut self,
        agent: &mut DeviceAgent,
        rng: &mut R,
    ) -> PollOutcome {
        self.poll_inner(agent, rng, false)
    }

    fn poll_inner<R: Rng + ?Sized>(
        &mut self,
        agent: &mut DeviceAgent,
        rng: &mut R,
        ack: bool,
    ) -> PollOutcome {
        self.polls_attempted += 1;
        if !self.connected {
            return PollOutcome::Disconnected;
        }
        if self.config.drop_probability > 0.0 && rng.gen::<f64>() < self.config.drop_probability {
            return PollOutcome::Lost;
        }
        // Full wire round-trip: encode on the device — straight from its
        // queue — and decode at the backend. The tunnel's scratch buffers
        // persist across reports and polls, so the loop allocates nothing
        // on the wire side.
        let batch = agent.queued().min(self.config.poll_batch);
        let mut delivered = Vec::with_capacity(batch);
        let mut max_seq = None;
        for report in agent.queued_reports().take(batch) {
            self.wire_buf.clear();
            report.encode_into(&mut self.wire_buf, &mut self.record_scratch);
            self.bytes_transferred += self.wire_buf.len() as u64;
            let decoded = Report::decode(&self.wire_buf)
                .expect("invariant: a report encoded by this codec always decodes");
            max_seq = Some(decoded.seq);
            delivered.push(decoded);
        }
        if ack {
            if let Some(seq) = max_seq {
                agent.ack(seq);
            }
        }
        PollOutcome::Delivered(delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_stats::SeedTree;

    fn payload() -> ReportPayload {
        ReportPayload::Usage(vec![])
    }

    #[test]
    fn agent_sequences_monotone() {
        let mut agent = DeviceAgent::new(9);
        for t in 0..5 {
            agent.submit(t, payload());
        }
        let seqs: Vec<u64> = agent.queue.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ack_is_cumulative_and_partial() {
        let mut agent = DeviceAgent::new(1);
        for t in 0..6 {
            agent.submit(t, payload());
        }
        agent.ack(2);
        assert_eq!(agent.queued(), 3);
        assert_eq!(agent.queue[0].seq, 3);
        // Acking an already-acked seq is a no-op.
        agent.ack(1);
        assert_eq!(agent.queued(), 3);
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut agent = DeviceAgent::with_capacity(1, 3);
        for t in 0..5 {
            agent.submit(t, payload());
        }
        assert_eq!(agent.queued(), 3);
        assert_eq!(agent.dropped_overflow(), 2);
        let seqs: Vec<u64> = agent.queue.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest reports were discarded");
    }

    #[test]
    fn perfect_tunnel_delivers_and_acks() {
        let mut agent = DeviceAgent::new(2);
        agent.submit(10, payload());
        agent.submit(20, payload());
        let mut tunnel = Tunnel::perfect();
        let mut rng = SeedTree::new(1).rng();
        match tunnel.poll(&mut agent, &mut rng) {
            PollOutcome::Delivered(reports) => {
                assert_eq!(reports.len(), 2);
                assert_eq!(reports[0].timestamp_s, 10);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(agent.queued(), 0);
    }

    #[test]
    fn disconnected_tunnel_queues() {
        let mut agent = DeviceAgent::new(3);
        let mut tunnel = Tunnel::perfect();
        tunnel.disconnect();
        let mut rng = SeedTree::new(2).rng();
        agent.submit(0, payload());
        assert_eq!(tunnel.poll(&mut agent, &mut rng), PollOutcome::Disconnected);
        assert_eq!(agent.queued(), 1, "nothing lost while down");
        // Reconnect: the queued report arrives (§2's catch-up poll).
        tunnel.reconnect();
        match tunnel.poll(&mut agent, &mut rng) {
            PollOutcome::Delivered(reports) => assert_eq!(reports.len(), 1),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn lost_polls_retransmit() {
        let mut agent = DeviceAgent::new(4);
        agent.submit(0, payload());
        let mut tunnel = Tunnel::new(TunnelConfig {
            drop_probability: 1.0,
            poll_batch: 16,
        });
        let mut rng = SeedTree::new(3).rng();
        assert_eq!(tunnel.poll(&mut agent, &mut rng), PollOutcome::Lost);
        assert_eq!(agent.queued(), 1);
        // Heal the tunnel; data arrives eventually (at-least-once).
        tunnel.config.drop_probability = 0.0;
        match tunnel.poll(&mut agent, &mut rng) {
            PollOutcome::Delivered(reports) => assert_eq!(reports[0].seq, 0),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn delivered_polls_count_wire_bytes() {
        let mut agent = DeviceAgent::new(6);
        agent.submit(0, payload());
        let mut tunnel = Tunnel::perfect();
        let mut rng = SeedTree::new(5).rng();
        assert_eq!(tunnel.bytes_transferred(), 0);
        match tunnel.poll(&mut agent, &mut rng) {
            PollOutcome::Delivered(reports) => assert_eq!(reports.len(), 1),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(tunnel.bytes_transferred() > 0, "encoded bytes counted");
    }

    #[test]
    fn poll_batch_limits_transfer() {
        let mut agent = DeviceAgent::new(5);
        for t in 0..10 {
            agent.submit(t, payload());
        }
        let mut tunnel = Tunnel::new(TunnelConfig {
            drop_probability: 0.0,
            poll_batch: 4,
        });
        let mut rng = SeedTree::new(4).rng();
        match tunnel.poll(&mut agent, &mut rng) {
            PollOutcome::Delivered(reports) => assert_eq!(reports.len(), 4),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(agent.queued(), 6);
    }

    #[test]
    #[should_panic(expected = "queue capacity must be > 0")]
    fn zero_capacity_rejected() {
        let _ = DeviceAgent::with_capacity(1, 0);
    }

    #[test]
    fn perfect_tunnel_matches_its_docs() {
        // "Perfect" means zero injected loss, not immunity to events:
        // drop probability is exactly 0, the tunnel starts connected,
        // and disconnect() still takes it down.
        let mut tunnel = Tunnel::perfect();
        assert_eq!(tunnel.config.drop_probability, 0.0);
        assert!(tunnel.is_connected());
        let mut agent = DeviceAgent::new(8);
        let mut rng = SeedTree::new(6).rng();
        for t in 0..200 {
            agent.submit(t, payload());
        }
        // Batch limit applies (64 per default config), loss never does.
        while agent.queued() > 0 {
            match tunnel.poll(&mut agent, &mut rng) {
                PollOutcome::Delivered(reports) => assert!(reports.len() <= 64),
                other => panic!("perfect tunnel failed a poll: {other:?}"),
            }
        }
        tunnel.disconnect();
        assert_eq!(tunnel.poll(&mut agent, &mut rng), PollOutcome::Disconnected);
    }

    #[test]
    fn unacked_poll_delivers_but_retains() {
        let mut agent = DeviceAgent::new(9);
        agent.submit(0, payload());
        agent.submit(1, payload());
        let mut tunnel = Tunnel::perfect();
        let mut rng = SeedTree::new(7).rng();
        match tunnel.poll_unacked(&mut agent, &mut rng) {
            PollOutcome::Delivered(reports) => assert_eq!(reports.len(), 2),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(agent.queued(), 2, "lost ack leaves the queue intact");
        // The retransmission carries the same sequence numbers.
        match tunnel.poll(&mut agent, &mut rng) {
            PollOutcome::Delivered(reports) => {
                assert_eq!(reports.iter().map(|r| r.seq).collect::<Vec<_>>(), [0, 1]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(agent.queued(), 0);
    }

    #[test]
    fn crash_reboot_loses_queue_but_not_sequencing() {
        let mut agent = DeviceAgent::new(10);
        for t in 0..4 {
            agent.submit(t, payload());
        }
        assert_eq!(agent.crash_reboot(), 4);
        assert_eq!(agent.queued(), 0);
        // Post-reboot submissions continue the sequence space.
        agent.submit(100, payload());
        assert_eq!(agent.queue[0].seq, 4);
        assert_eq!(agent.reports_submitted(), 5);
    }
}
