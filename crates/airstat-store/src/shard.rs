//! One shard of the sharded store.
//!
//! A [`StoreShard`] owns the aggregates for the subset of devices routed
//! to it (reports hash-partition by `(window, device)`, so everything a
//! device files into one window lands in exactly one shard). Its tables
//! mirror the legacy `airstat_telemetry::backend::Backend` with two
//! deliberate differences:
//!
//! * every per-window table is a `BTreeMap`, so iterating a shard — and
//!   therefore merging shards — is canonical regardless of ingest order
//!   or shard count;
//! * duplicate suppression is the **set-based** [`SeqSet`] instead of the
//!   legacy highest-seq watermark, so dedup is ingest-order independent
//!   (the property tests permute report order freely). On the engine's
//!   transport streams the two disciplines accept exactly the same
//!   reports: per-device delivery is in order and duplicates are exact
//!   redeliveries, which the differential tests pin down.
//!
//! A shard opened from disk starts without row tables: its segment file
//! decodes into the sealed columnar layout, which the store's segment
//! stack reads as it is, and the tables are unpacked from those columns
//! once, the first time an ingest or a row reader needs them. A store
//! that is reopened only to be queried or persisted never builds them.
//!
//! The `(window, device)` routing has a consequence the read side leans
//! on hard: device-keyed data is **shard-disjoint** (a device's rows for
//! one window live in exactly one shard), so cross-shard merges of
//! device-keyed columns are pure unions, and a point lookup on a
//! device-keyed row — a link series, keyed by its receiving device —
//! reads only the shard the device routes to.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use airstat_classify::apps::Application;
use airstat_classify::mac::MacAddress;
use airstat_rf::airtime::AirtimeLedger;
use airstat_rf::band::Band;
use airstat_telemetry::backend::{
    ClientIdentity, LinkKey, LinkObservation, ScanObservation, UsageTotals, WindowId,
};
use airstat_telemetry::crash::{CrashReport, RebootReason};
use airstat_telemetry::report::{Report, ReportPayload};

use crate::columnar::ColumnarShard;

/// Order-independent per-`(window, device)` sequence-number dedup.
///
/// Accepts each sequence number at most once, in any arrival order. The
/// dense prefix is compressed into a watermark (`contiguous_below`): once
/// `0..k` have all been seen only the sparse out-of-order tail is stored,
/// so memory stays O(reorder window) for the in-order streams the
/// transport produces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeqSet {
    /// Every sequence number `< contiguous_below` has been seen.
    contiguous_below: u64,
    /// Seen sequence numbers `>= contiguous_below`.
    sparse: BTreeSet<u64>,
}

impl SeqSet {
    /// Records `seq`; returns `false` if it was already present.
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        if seq < self.contiguous_below || !self.sparse.insert(seq) {
            return false;
        }
        while self.sparse.remove(&self.contiguous_below) {
            self.contiguous_below += 1;
        }
        true
    }

    /// The dense-prefix watermark and sparse tail, in segment-encoding
    /// order (docs/SEGMENT_FORMAT.md, dedup block).
    pub(crate) fn parts(&self) -> (u64, &BTreeSet<u64>) {
        (self.contiguous_below, &self.sparse)
    }

    /// Rebuilds a set from its persisted parts. Segment decode verifies
    /// every sparse member is `> contiguous_below` before calling this,
    /// so the compaction invariant (the watermark is never itself in the
    /// sparse tail) holds by construction.
    pub(crate) fn from_parts(contiguous_below: u64, sparse: BTreeSet<u64>) -> SeqSet {
        SeqSet {
            contiguous_below,
            sparse,
        }
    }
}

/// Provenance of a client-identity record, used to break write conflicts
/// deterministically.
///
/// The legacy backend applies `ClientInfo` records in stream order (last
/// write wins). A sharded store has no single stream, so the winner is
/// the record with the largest `(device, seq, slot)` instead — a total
/// order over records that is invariant under ingest-order and
/// shard-count permutations, and that coincides with stream order on the
/// engine's streams (each client's identity is filed by one device with
/// increasing sequence numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct ClientMeta {
    /// Reporting device id.
    pub device: u64,
    /// Report sequence number.
    pub seq: u64,
    /// Record index within the report's payload.
    pub slot: u32,
}

/// Per-device census rows: `(band, channel number, networks, hotspots)`.
pub type CensusRows = Vec<(Band, u16, u32, u32)>;

/// The keys one window dirtied since the last seal: one set per table,
/// mirroring [`WindowTables`] key for key.
///
/// Marking is a deliberate **superset**: every key a report's payload
/// names is marked on accept, even when the write turned out to be a
/// no-op (a losing `ClientInfo` conflict, say). Re-emitting an
/// unchanged row into a delta is harmless under the newest-wins
/// resolution rule — the delta row equals the row it shadows — while a
/// missed key would corrupt the stack, so the cheap superset is the
/// safe one.
#[derive(Debug, Clone, Default)]
pub(crate) struct DirtyWindow {
    pub(crate) usage: BTreeSet<(MacAddress, Application)>,
    pub(crate) clients: BTreeSet<MacAddress>,
    pub(crate) links: BTreeSet<LinkKey>,
    pub(crate) airtime: BTreeSet<(u64, Band)>,
    pub(crate) neighbors: BTreeSet<u64>,
    pub(crate) scans: BTreeSet<u64>,
    pub(crate) crashes: BTreeSet<u64>,
}

impl DirtyWindow {
    pub(crate) fn is_empty(&self) -> bool {
        self.usage.is_empty()
            && self.clients.is_empty()
            && self.links.is_empty()
            && self.airtime.is_empty()
            && self.neighbors.is_empty()
            && self.scans.is_empty()
            && self.crashes.is_empty()
    }
}

/// The keys one shard dirtied since the last seal, per window:
/// [`crate::ShardedStore`] keeps one of these per shard, and a seal
/// projects exactly these rows into its delta segment.
#[derive(Debug, Clone, Default)]
pub(crate) struct DirtyShard {
    pub(crate) windows: BTreeMap<WindowId, DirtyWindow>,
}

impl DirtyShard {
    pub(crate) fn is_empty(&self) -> bool {
        self.windows.values().all(DirtyWindow::is_empty)
    }
}

/// The aggregates one shard maintains for one window.
#[derive(Debug, Clone, Default)]
pub struct WindowTables {
    /// Usage totals keyed by `(client MAC, application)`.
    pub usage: BTreeMap<(MacAddress, Application), UsageTotals>,
    /// Client identities with the provenance of the winning write.
    pub clients: BTreeMap<MacAddress, (ClientMeta, ClientIdentity)>,
    /// Probe-link observation series in arrival order per link.
    pub links: BTreeMap<LinkKey, Vec<LinkObservation>>,
    /// Serving-radio airtime ledgers keyed by `(device, band)`.
    pub airtime: BTreeMap<(u64, Band), AirtimeLedger>,
    /// Latest neighbour census per device, with its provenance (a fresh
    /// census replaces the previous one; the winner is the largest
    /// `ClientMeta`, i.e. the highest sequence number from the device).
    pub neighbors: BTreeMap<u64, (ClientMeta, CensusRows)>,
    /// Channel-scan observations per device, ordered by `(seq, slot)` so
    /// concatenation is ingest-order independent.
    pub scans: BTreeMap<u64, BTreeMap<(u64, u32), ScanObservation>>,
    /// Crash reports per device, ordered by `(seq, slot)`.
    pub crashes: BTreeMap<u64, BTreeMap<(u64, u32), CrashReport>>,
}

/// One shard: an independent store with its own dedup state.
///
/// A shard built by ingest holds its rows in the row tables. A shard
/// opened from disk holds them in the sealed layout its segment file
/// decodes to, and builds the row tables from those columns only when
/// something needs rows — an ingest or a `StoreShard::window` /
/// `StoreShard::windows` reader — and then once.
#[derive(Debug, Clone, Default)]
pub struct StoreShard {
    // airstat::allow(no-hashmap-iter): per-(window, device) dedup state,
    // looked up by exact key on the ingest hot path and never iterated
    seen: HashMap<(WindowId, u64), SeqSet>,
    duplicates_dropped: u64,
    reports_ingested: u64,
    /// The rows of an opened shard whose row tables are not built yet,
    /// as its segment file decoded them. Dropped by the first ingest.
    sealed: Option<Arc<ColumnarShard>>,
    /// The row tables, unpacked from `sealed` on first need.
    windows: OnceLock<BTreeMap<WindowId, WindowTables>>,
}

impl StoreShard {
    /// Reports accepted by this shard (excluding duplicates).
    pub(crate) fn reports_ingested(&self) -> u64 {
        self.reports_ingested
    }

    /// Duplicate reports this shard rejected.
    pub(crate) fn duplicates_dropped(&self) -> u64 {
        self.duplicates_dropped
    }

    /// The aggregates for `window`, if the shard holds any.
    pub(crate) fn window(&self, window: WindowId) -> Option<&WindowTables> {
        self.tables().get(&window)
    }

    /// All windows this shard holds, in ascending window order — the
    /// columnar projection walks this at seal time.
    pub(crate) fn windows(&self) -> impl Iterator<Item = (WindowId, &WindowTables)> {
        self.tables()
            .iter()
            .map(|(&window, tables)| (window, tables))
    }

    /// The row tables, built from the sealed columns the first time an
    /// opened shard is asked for them.
    fn tables(&self) -> &BTreeMap<WindowId, WindowTables> {
        self.windows.get_or_init(|| {
            self.sealed
                .as_deref()
                .map(ColumnarShard::unpack)
                .unwrap_or_default()
        })
    }

    /// The row tables for writing. From here on they are the shard's
    /// only copy of its rows, so the sealed columns they came from go.
    fn tables_mut(&mut self) -> &mut BTreeMap<WindowId, WindowTables> {
        self.tables();
        self.sealed = None;
        self.windows
            .get_mut()
            .expect("invariant: tables() has just built the row tables")
    }

    /// Whether the row tables exist: always for a shard built by ingest,
    /// and for an opened one once something needed rows.
    pub(crate) fn has_row_tables(&self) -> bool {
        self.windows.get().is_some()
    }

    /// The shard's rows whole, in the sealed layout: the segment an
    /// opened shard was decoded into while its row tables are unbuilt,
    /// else a full projection of the tables.
    pub(crate) fn projection(&self) -> Arc<ColumnarShard> {
        match &self.sealed {
            Some(sealed) if !self.has_row_tables() => Arc::clone(sealed),
            _ => Arc::new(ColumnarShard::build(self)),
        }
    }

    /// The dedup ledger in canonical `(window, device)` order, for
    /// segment encoding. The backing map is hash-ordered (keyed access
    /// on the ingest hot path), so this sorts a snapshot of the entries
    /// to make the persisted bytes independent of the map's seed.
    pub(crate) fn dedup_entries(&self) -> Vec<((WindowId, u64), &SeqSet)> {
        let mut entries: Vec<_> = self.seen.iter().map(|(&key, set)| (key, set)).collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        entries
    }

    /// Rebuilds a shard from its persisted parts (segment decode), its
    /// rows in the sealed layout they decoded to. The parts come from one
    /// decoded file, so they describe one ingest history (the CRC guards
    /// reject mixed or tampered inputs).
    pub(crate) fn from_sealed(
        // airstat::allow(no-hashmap-iter): rebuilt dedup ledger; keyed
        // access only after reconstruction, never iterated for output
        seen: HashMap<(WindowId, u64), SeqSet>,
        duplicates_dropped: u64,
        reports_ingested: u64,
        sealed: ColumnarShard,
    ) -> StoreShard {
        StoreShard {
            // airstat::allow(unordered-collection-escape): constructor
            // hand-off of the keyed-access dedup ledger; every site
            // that drains it sorts (or never iterates it) downstream.
            seen,
            duplicates_dropped,
            reports_ingested,
            sealed: Some(Arc::new(sealed)),
            windows: OnceLock::new(),
        }
    }

    /// Ingests one report; returns `false` for duplicates.
    ///
    /// The aggregation semantics match `Backend::ingest` record for
    /// record; only the dedup discipline (see [`SeqSet`]) and the
    /// conflict rules for `ClientInfo` / `Neighbors` overwrites (see
    /// [`ClientMeta`]) are generalized to be ingest-order independent.
    pub(crate) fn ingest(&mut self, window: WindowId, report: &Report) -> bool {
        if !self
            .seen
            .entry((window, report.device))
            .or_default()
            .insert(report.seq)
        {
            self.duplicates_dropped += 1;
            return false;
        }
        self.reports_ingested += 1;
        let tables = self.tables_mut().entry(window).or_default();
        match &report.payload {
            ReportPayload::Usage(records) => {
                for r in records {
                    let slot = tables.usage.entry((r.mac, r.app)).or_default();
                    slot.up_bytes = slot.up_bytes.saturating_add(r.up_bytes);
                    slot.down_bytes = slot.down_bytes.saturating_add(r.down_bytes);
                }
            }
            ReportPayload::ClientInfo(records) => {
                for (slot, r) in records.iter().enumerate() {
                    let meta = ClientMeta {
                        device: report.device,
                        seq: report.seq,
                        slot: slot as u32,
                    };
                    let identity = ClientIdentity {
                        os: r.os,
                        caps: r.caps,
                        band: r.band,
                        rssi_dbm: r.rssi_dbm,
                    };
                    match tables.clients.get_mut(&r.mac) {
                        Some(entry) if entry.0 > meta => {}
                        Some(entry) => *entry = (meta, identity),
                        None => {
                            tables.clients.insert(r.mac, (meta, identity));
                        }
                    }
                }
            }
            ReportPayload::Links(records) => {
                for r in records {
                    if let Some(ratio) = r.delivery_ratio() {
                        tables
                            .links
                            .entry(LinkKey {
                                rx_device: report.device,
                                tx_device: r.peer_device,
                                band: r.band,
                            })
                            .or_default()
                            .push(LinkObservation {
                                timestamp_s: report.timestamp_s,
                                ratio,
                            });
                    }
                }
            }
            ReportPayload::Airtime(records) => {
                for r in records {
                    let ledger = tables
                        .airtime
                        .entry((report.device, r.channel.band))
                        .or_default();
                    ledger.account(r.elapsed_us, r.busy_us, r.wifi_us);
                }
            }
            ReportPayload::Neighbors(records) => {
                let meta = ClientMeta {
                    device: report.device,
                    seq: report.seq,
                    slot: 0,
                };
                let rows: CensusRows = records
                    .iter()
                    .map(|r| (r.channel.band, r.channel.number, r.networks, r.hotspots))
                    .collect();
                match tables.neighbors.get_mut(&report.device) {
                    Some(entry) if entry.0 > meta => {}
                    Some(entry) => *entry = (meta, rows),
                    None => {
                        tables.neighbors.insert(report.device, (meta, rows));
                    }
                }
            }
            ReportPayload::ChannelScan(records) => {
                let per_device = tables.scans.entry(report.device).or_default();
                for (slot, &record) in records.iter().enumerate() {
                    per_device.insert(
                        (report.seq, slot as u32),
                        ScanObservation {
                            timestamp_s: report.timestamp_s,
                            record,
                        },
                    );
                }
            }
            ReportPayload::Crash(records) => {
                let per_device = tables.crashes.entry(report.device).or_default();
                for (slot, r) in records.iter().enumerate() {
                    let reason = match r.reason {
                        0 => RebootReason::OutOfMemory,
                        1 => RebootReason::Watchdog,
                        2 => RebootReason::Fault,
                        3 => RebootReason::Requested,
                        _ => RebootReason::PowerLoss,
                    };
                    per_device.insert(
                        (report.seq, slot as u32),
                        CrashReport {
                            device: report.device,
                            firmware: r.firmware.clone(),
                            reason,
                            program_counter: r.program_counter,
                            uptime_s: r.uptime_s,
                            free_memory_bytes: r.free_memory_bytes,
                        },
                    );
                }
            }
        }
        true
    }

    /// [`StoreShard::ingest`] plus dirty-key tracking: on accept, every
    /// key the payload names is recorded in `dirty` (see [`DirtyWindow`]
    /// for why the superset is the safe marking policy).
    pub(crate) fn ingest_tracked(
        &mut self,
        window: WindowId,
        report: &Report,
        dirty: &mut DirtyShard,
    ) -> bool {
        if !self.ingest(window, report) {
            return false;
        }
        let w = dirty.windows.entry(window).or_default();
        match &report.payload {
            ReportPayload::Usage(records) => {
                for r in records {
                    w.usage.insert((r.mac, r.app));
                }
            }
            ReportPayload::ClientInfo(records) => {
                for r in records {
                    w.clients.insert(r.mac);
                }
            }
            ReportPayload::Links(records) => {
                for r in records {
                    if r.delivery_ratio().is_some() {
                        w.links.insert(LinkKey {
                            rx_device: report.device,
                            tx_device: r.peer_device,
                            band: r.band,
                        });
                    }
                }
            }
            ReportPayload::Airtime(records) => {
                for r in records {
                    w.airtime.insert((report.device, r.channel.band));
                }
            }
            ReportPayload::Neighbors(_) => {
                w.neighbors.insert(report.device);
            }
            ReportPayload::ChannelScan(_) => {
                w.scans.insert(report.device);
            }
            ReportPayload::Crash(_) => {
                w.crashes.insert(report.device);
            }
        }
        true
    }
}

#[cfg(test)]
impl StoreShard {
    /// Builds a shard from its parts. The caller is responsible for
    /// internal consistency: the counters and dedup ledger must describe
    /// the same ingest history that produced `windows`.
    pub(crate) fn from_parts(
        // airstat::allow(no-hashmap-iter): rebuilt dedup ledger; keyed
        // access only after reconstruction, never iterated for output
        seen: HashMap<(WindowId, u64), SeqSet>,
        duplicates_dropped: u64,
        reports_ingested: u64,
        windows: BTreeMap<WindowId, WindowTables>,
    ) -> StoreShard {
        StoreShard {
            // airstat::allow(unordered-collection-escape): constructor
            // hand-off of the keyed-access dedup ledger; every site
            // that drains it sorts (or never iterates it) downstream.
            seen,
            duplicates_dropped,
            reports_ingested,
            sealed: None,
            windows: OnceLock::from(windows),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_classify::mac::Oui;
    use airstat_telemetry::report::UsageRecord;

    /// Whether `seq` has been recorded.
    fn contains(set: &SeqSet, seq: u64) -> bool {
        seq < set.contiguous_below || set.sparse.contains(&seq)
    }

    #[test]
    fn seq_set_accepts_each_seq_once_in_any_order() {
        let mut set = SeqSet::default();
        for seq in [3u64, 0, 1, 2, 3, 0, 7, 5, 7] {
            let fresh = !contains(&set, seq);
            assert_eq!(set.insert(seq), fresh, "seq {seq}");
        }
        assert_eq!(set.contiguous_below, 4, "dense prefix compacted");
        assert!(contains(&set, 5) && contains(&set, 7) && !contains(&set, 6));
    }

    #[test]
    fn seq_set_compacts_to_watermark_for_in_order_streams() {
        let mut set = SeqSet::default();
        for seq in 0..1000u64 {
            assert!(set.insert(seq));
        }
        assert_eq!(set.contiguous_below, 1000);
        assert!(set.sparse.is_empty(), "no sparse state for ordered input");
    }

    #[test]
    fn duplicate_counting_matches_rejections() {
        let mut shard = StoreShard::default();
        let report = Report {
            device: 9,
            seq: 0,
            timestamp_s: 0,
            payload: ReportPayload::Usage(vec![UsageRecord {
                mac: MacAddress::from_id(Oui([0, 1, 2]), 7),
                app: Application::Netflix,
                up_bytes: 1,
                down_bytes: 2,
            }]),
        };
        let w = WindowId(1501);
        assert!(shard.ingest(w, &report));
        assert!(!shard.ingest(w, &report));
        assert_eq!(shard.reports_ingested(), 1);
        assert_eq!(shard.duplicates_dropped(), 1);
        let totals = shard.window(w).unwrap().usage.values().next().unwrap();
        assert_eq!((totals.up_bytes, totals.down_bytes), (1, 2));
    }

    #[test]
    fn client_identity_conflicts_resolve_by_meta_not_arrival() {
        let mac = MacAddress::from_id(Oui([0, 1, 2]), 1);
        let record = |rssi: f64| airstat_telemetry::report::ClientInfoRecord {
            mac,
            os: airstat_classify::device::OsFamily::Unknown,
            caps: airstat_rf::phy::Capabilities::new(
                airstat_rf::phy::Generation::N,
                false,
                false,
                1,
            ),
            band: Band::Ghz2_4,
            rssi_dbm: rssi,
        };
        let early = Report {
            device: 1,
            seq: 0,
            timestamp_s: 0,
            payload: ReportPayload::ClientInfo(vec![record(-70.0)]),
        };
        let late = Report {
            device: 1,
            seq: 5,
            timestamp_s: 0,
            payload: ReportPayload::ClientInfo(vec![record(-40.0)]),
        };
        let w = WindowId(1501);
        for order in [[&early, &late], [&late, &early]] {
            let mut shard = StoreShard::default();
            for report in order {
                shard.ingest(w, report);
            }
            let (meta, identity) = &shard.window(w).unwrap().clients[&mac];
            assert_eq!(meta.seq, 5, "highest provenance wins either way");
            assert_eq!(identity.rssi_dbm, -40.0);
        }
    }
}
