//! Crash telemetry: §6.1's debugging-at-scale machinery.
//!
//! "The Meraki system uses a large backend database system to collect
//! information about crashes (firmware and program counter state), along
//! with periodic telemetry about each device's performance, to make it
//! easier to debug problems in the real world."
//!
//! The worked example in the paper is the Manhattan bug: APs in
//! skyscrapers (or on a bus between cities) decoded beacons from miles
//! away, their neighbour tables grew without bound, and they rebooted out
//! of memory — *not at the same point in the code*, which is exactly why
//! per-crash program counters plus fleet-wide aggregation were needed to
//! localize it. This module provides:
//!
//! * [`CrashReport`] — firmware version, reboot reason, program counter,
//!   uptime, free-memory-at-crash;
//! * [`DeviceMemory`] — a bounded-heap model whose biggest consumer is the
//!   neighbour table, so census-driven OOMs reproduce the bug;
//! * [`CrashAggregator`] — the backend side: group by (firmware, reason),
//!   rank crash sites, and surface the telltale "same reason, scattered
//!   program counters" signature of a heap exhaustion bug.

use std::collections::BTreeMap;

/// Why a device rebooted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RebootReason {
    /// Allocation failure; the §6.1 bug class.
    OutOfMemory,
    /// Watchdog fired (a hang, not a crash).
    Watchdog,
    /// Kernel or driver fault at a specific program counter.
    Fault,
    /// Operator- or backend-initiated restart (upgrades, config).
    Requested,
    /// Power loss (no crash state preserved).
    PowerLoss,
}

impl RebootReason {
    /// Human-readable label.
    pub fn name(self) -> &'static str {
        match self {
            RebootReason::OutOfMemory => "out-of-memory",
            RebootReason::Watchdog => "watchdog",
            RebootReason::Fault => "fault",
            RebootReason::Requested => "requested",
            RebootReason::PowerLoss => "power-loss",
        }
    }

    /// Stable wire code for [`crate::report::CrashRecord::reason`].
    pub fn code(self) -> u8 {
        match self {
            RebootReason::OutOfMemory => 0,
            RebootReason::Watchdog => 1,
            RebootReason::Fault => 2,
            RebootReason::Requested => 3,
            RebootReason::PowerLoss => 4,
        }
    }

    /// Whether this reboot is a defect signal (vs expected churn).
    pub(crate) fn is_crash(self) -> bool {
        matches!(
            self,
            RebootReason::OutOfMemory | RebootReason::Watchdog | RebootReason::Fault
        )
    }
}

/// One crash report as uploaded after the device comes back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashReport {
    /// Reporting device.
    pub device: u64,
    /// Firmware version string ("mr16-25.9", §2.2's revisions).
    pub firmware: String,
    /// Why the device went down.
    pub reason: RebootReason,
    /// Program counter at the failure point (0 when not preserved).
    pub program_counter: u64,
    /// Seconds of uptime before the reboot.
    pub uptime_s: u64,
    /// Free heap at crash time (bytes).
    pub free_memory_bytes: u64,
}

/// A bounded-heap model of the AP's RAM (MR16: 64 MB, Table 1).
///
/// Tracks the classes of §6.1: a fixed base footprint, per-client state,
/// and the unbounded-in-the-bug neighbour table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceMemory {
    total_bytes: u64,
    base_bytes: u64,
    per_client_bytes: u64,
    per_neighbor_bytes: u64,
    clients: u64,
    neighbors: u64,
}

impl DeviceMemory {
    /// The MR16's 64 MB with a typical firmware base footprint.
    pub fn mr16() -> Self {
        DeviceMemory {
            total_bytes: 64 << 20,
            base_bytes: 38 << 20,
            per_client_bytes: 48 << 10,
            per_neighbor_bytes: 24 << 10,
            clients: 0,
            neighbors: 0,
        }
    }

    /// The MR18's 128 MB.
    pub fn mr18() -> Self {
        DeviceMemory {
            total_bytes: 128 << 20,
            ..DeviceMemory::mr16()
        }
    }

    /// Current heap use (bytes).
    pub(crate) fn used_bytes(&self) -> u64 {
        self.base_bytes
            + self.clients * self.per_client_bytes
            + self.neighbors * self.per_neighbor_bytes
    }

    /// Free heap (bytes), zero when exhausted.
    pub fn free_bytes(&self) -> u64 {
        self.total_bytes.saturating_sub(self.used_bytes())
    }

    /// Whether an allocation of the next neighbour entry would fail.
    pub(crate) fn exhausted(&self) -> bool {
        self.free_bytes() < self.per_neighbor_bytes
    }

    /// Sets the associated-client count.
    pub fn set_clients(&mut self, clients: u64) {
        self.clients = clients;
    }

    /// Inserts neighbour-table entries one at a time; returns `false` when
    /// the allocation fails (the caller should reboot — which is what the
    /// buggy firmware did instead of capping the table).
    pub fn grow_neighbor_table(&mut self, entries: u64) -> bool {
        for _ in 0..entries {
            if self.exhausted() {
                return false;
            }
            self.neighbors += 1;
        }
        true
    }
}

/// A crash-signature key: firmware plus reason.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CrashSignature {
    /// Firmware version.
    pub firmware: String,
    /// Reboot reason.
    pub reason: RebootReason,
}

/// Fleet-wide crash aggregation (the backend's debugging view).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrashAggregator {
    reports: Vec<CrashReport>,
}

impl CrashAggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests one crash report.
    pub fn ingest(&mut self, report: CrashReport) {
        self.reports.push(report);
    }

    /// Every ingested report, crash or churn, in ingest order.
    pub fn reports(&self) -> &[CrashReport] {
        &self.reports
    }

    /// Total crash (not churn) reports.
    pub fn crash_count(&self) -> usize {
        self.reports.iter().filter(|r| r.reason.is_crash()).count()
    }

    /// Counts by signature, descending — the triage dashboard.
    pub fn by_signature(&self) -> Vec<(CrashSignature, usize)> {
        let mut counts: BTreeMap<CrashSignature, usize> = BTreeMap::new();
        for r in self.reports.iter().filter(|r| r.reason.is_crash()) {
            *counts
                .entry(CrashSignature {
                    firmware: r.firmware.clone(),
                    reason: r.reason,
                })
                .or_default() += 1;
        }
        let mut out: Vec<_> = counts.into_iter().collect();
        out.sort_by_key(|entry| std::cmp::Reverse(entry.1));
        out
    }

    /// Distinct program counters within a signature.
    ///
    /// A *fault* bug clusters on one or two PCs; a heap-exhaustion bug
    /// (§6.1: "not at the same point in the code") scatters across many.
    pub fn distinct_pcs(&self, signature: &CrashSignature) -> usize {
        let mut pcs: Vec<u64> = self
            .reports
            .iter()
            .filter(|r| {
                r.reason == signature.reason
                    && r.firmware == signature.firmware
                    && r.reason.is_crash()
            })
            .map(|r| r.program_counter)
            .collect();
        pcs.sort_unstable();
        pcs.dedup();
        pcs.len()
    }

    /// The §6.1 heuristic: an OOM signature whose program counters scatter
    /// (more than `scatter_threshold` distinct sites) is a heap-exhaustion
    /// bug, not a code bug at any one site.
    pub fn looks_like_heap_exhaustion(
        &self,
        signature: &CrashSignature,
        scatter_threshold: usize,
    ) -> bool {
        signature.reason == RebootReason::OutOfMemory
            && self.distinct_pcs(signature) > scatter_threshold
    }

    /// Devices affected by a signature (distinct).
    pub fn affected_devices(&self, signature: &CrashSignature) -> usize {
        let mut devices: Vec<u64> = self
            .reports
            .iter()
            .filter(|r| r.reason == signature.reason && r.firmware == signature.firmware)
            .map(|r| r.device)
            .collect();
        devices.sort_unstable();
        devices.dedup();
        devices.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(device: u64, reason: RebootReason, pc: u64) -> CrashReport {
        CrashReport {
            device,
            firmware: "mr16-25.9".into(),
            reason,
            program_counter: pc,
            uptime_s: 3600,
            free_memory_bytes: 1024,
        }
    }

    #[test]
    fn mr16_memory_budget() {
        let mem = DeviceMemory::mr16();
        assert_eq!(mem.total_bytes, 64 << 20);
        assert!(mem.free_bytes() > 20 << 20, "fresh boot has headroom");
        assert!(!mem.exhausted());
    }

    #[test]
    fn manhattan_bug_reproduces() {
        // A typical site: ~50 neighbour entries, dozens of clients — fine.
        let mut normal = DeviceMemory::mr16();
        normal.set_clients(30);
        assert!(normal.grow_neighbor_table(60));
        assert!(!normal.exhausted());
        // A skyscraper: thousands of decodable beacons from miles away.
        let mut skyscraper = DeviceMemory::mr16();
        skyscraper.set_clients(30);
        let survived = skyscraper.grow_neighbor_table(100_000);
        assert!(!survived, "the unbounded table must exhaust 64 MB");
        assert!(skyscraper.exhausted());
    }

    #[test]
    fn mr18_has_more_headroom() {
        let mut mr16 = DeviceMemory::mr16();
        let mut mr18 = DeviceMemory::mr18();
        mr16.grow_neighbor_table(u64::MAX);
        mr18.grow_neighbor_table(u64::MAX);
        assert!(mr18.neighbors > 2 * mr16.neighbors);
    }

    #[test]
    fn aggregation_by_signature() {
        let mut agg = CrashAggregator::new();
        for (d, pc) in [(1u64, 0x1000u64), (2, 0x2240), (3, 0x88), (4, 0x4420)] {
            agg.ingest(report(d, RebootReason::OutOfMemory, pc));
        }
        agg.ingest(report(5, RebootReason::Fault, 0xDEAD));
        agg.ingest(report(6, RebootReason::Fault, 0xDEAD));
        agg.ingest(report(7, RebootReason::Requested, 0)); // churn, not crash
        assert_eq!(agg.crash_count(), 6);
        let ranked = agg.by_signature();
        assert_eq!(ranked[0].0.reason, RebootReason::OutOfMemory);
        assert_eq!(ranked[0].1, 4);
        assert_eq!(ranked[1].1, 2);
    }

    #[test]
    fn heap_exhaustion_heuristic() {
        let mut agg = CrashAggregator::new();
        // OOMs scattered across many PCs: heap exhaustion.
        for (d, pc) in (0..10u64).map(|i| (i, 0x1000 + i * 0x64)) {
            agg.ingest(report(d, RebootReason::OutOfMemory, pc));
        }
        // Faults clustered at one PC: a code bug.
        for d in 20..30u64 {
            agg.ingest(report(d, RebootReason::Fault, 0xBEEF));
        }
        let oom = CrashSignature {
            firmware: "mr16-25.9".into(),
            reason: RebootReason::OutOfMemory,
        };
        let fault = CrashSignature {
            firmware: "mr16-25.9".into(),
            reason: RebootReason::Fault,
        };
        assert_eq!(agg.distinct_pcs(&oom), 10);
        assert_eq!(agg.distinct_pcs(&fault), 1);
        assert!(agg.looks_like_heap_exhaustion(&oom, 3));
        assert!(!agg.looks_like_heap_exhaustion(&fault, 3));
        assert_eq!(agg.affected_devices(&oom), 10);
    }

    #[test]
    fn reason_classification() {
        assert!(RebootReason::OutOfMemory.is_crash());
        assert!(RebootReason::Watchdog.is_crash());
        assert!(!RebootReason::Requested.is_crash());
        assert!(!RebootReason::PowerLoss.is_crash());
        assert_eq!(RebootReason::OutOfMemory.name(), "out-of-memory");
    }
}
