//! # airstat-telemetry — the measurement pipeline
//!
//! The paper's backend (§2) is a pull-based telemetry system: every device
//! keeps persistent tunnels to two data centers, the backend *polls* for
//! queued statistics (a pull regulates load during peaks), devices keep
//! queuing while disconnected, and reports are encoded with Google Protocol
//! Buffers to stay around 1 kbit/s per AP. Usage is aggregated **by MAC
//! address** in the backend to handle clients roaming between APs.
//!
//! This crate rebuilds that pipeline end to end:
//!
//! * [`wire`] — a compact varint wire format (protobuf-like: tagged fields,
//!   length-delimited records) with exact round-trip semantics;
//! * [`report`] — the report schema: client usage, client info and
//!   capabilities, link-probe statistics, airtime counters, neighbour
//!   scans, and MR18 channel scans, each with hand-written codecs;
//! * [`transport`] — the device agent (bounded queue, at-least-once
//!   delivery, sequence numbers) and a faulty tunnel (drop probability,
//!   disconnects) between agent and poller;
//! * [`backend`] — the poller and the time-series store that the analytics
//!   crate queries, including MAC-level usage aggregation for roaming and
//!   sequence-number deduplication so retransmits never double-count;
//! * [`poll`] — the backend's polling *policy*: capped exponential
//!   backoff, per-device poll budgets, and virtual-time drain telemetry
//!   (latency histograms) for degradation reporting;
//! * [`sched`] — the backpressure-aware poll scheduler: priority poll
//!   queues (recovering APs drain first), a time-ordered retry ledger,
//!   admission-time dedup, and LOW-priority eviction under queue
//!   pressure, all on deterministic virtual time;
//! * [`failover`] — the second data-center tunnel of §2, with failover
//!   and fail-back;
//! * [`crash`] — §6.1's crash telemetry: reports, the bounded-heap device
//!   model behind the Manhattan OOM bug, and fleet-wide signature
//!   aggregation.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod backend;
pub mod crash;
pub mod failover;
pub mod poll;
pub mod report;
pub mod sched;
pub mod transport;
pub mod wire;

pub use backend::{Backend, WindowId};
pub use poll::{DrainStats, LatencyHistogram, PollPolicy, PollSession};
pub use report::{Report, ReportPayload};
pub use sched::{
    Admission, CompletedDrain, PollEndpoint, Priority, RetryLedger, RoundOutcome, SchedConfig,
    SchedStats, Scheduler, TunnelEndpoint,
};
pub use transport::{DeviceAgent, Tunnel, TunnelConfig};
