//! The sharded, snapshot-isolated store.
//!
//! [`ShardedStore`] routes every report to one [`StoreShard`] by hashing
//! `(window, device)`, ingests shards in parallel through
//! [`crate::exec::run_ordered`], and hands out immutable epoch-numbered
//! [`Snapshot`]s for the query engine. Snapshots are copy-on-write: a
//! `seal()` is a handful of `Arc` clones, and ingest after a seal lazily
//! clones only the shards it actually touches (`Arc::make_mut`), so
//! queries keep running against frozen state while the next epoch fills.
//!
//! Sealing is **incremental** (LSM-style): each shard's read layout is a
//! [`SegmentStack`] — immutable delta [`ColumnarShard`] segments, oldest
//! to newest — plus the mutable row tables as the tail. Once a shard has
//! a baseline to be dirty against (segments it has sealed, or the
//! segment it was opened with) ingest tracks the keys it dirties, so a
//! seal projects only the rows touched since the previous seal into a
//! new delta segment and the cost of making new data queryable is
//! proportional to the delta, not the campaign. Before that the first
//! seal projects the tables whole and no ledger is kept. A store opened
//! from disk starts with its files as its stacks: each shard's file
//! decodes into one sealed segment, so its first seal projects nothing.
//! A deterministic size-tiered compaction pass (driven purely by segment
//! row counts — no wall clock) folds small adjacent deltas back into
//! larger runs so stacks stay shallow; each fold is a linear newest-wins
//! merge of the two segments' columns and never goes back to the row
//! tables.
//!
//! A persist reads the same stacks: it seals, then writes every shard
//! whole as its stack folded newest-wins, so its bytes depend on the
//! rows alone — not on the seal cadence, on earlier persists, or on
//! whether the row tables were ever built.

use std::path::Path;
use std::sync::{Arc, Mutex};

use airstat_stats::rng::splitmix64;
use airstat_telemetry::backend::{Backend, WindowId};
use airstat_telemetry::report::Report;

use crate::columnar::ColumnarShard;
use crate::exec::run_ordered;
use crate::segment::{self, PersistenceStats, RecoveryStats, SegmentError};
use crate::shard::{DirtyShard, StoreShard};

/// Store shape and ingest parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Number of shards (at least 1). Results are byte-identical for
    /// every value; this only controls partitioning.
    pub shards: usize,
    /// Worker threads for parallel ingest (at least 1). Byte-identical
    /// for every value.
    pub threads: usize,
}

/// Default shard count: enough partitions that an 8-way host can ingest
/// and query with full parallelism at paper scale.
pub const DEFAULT_SHARDS: usize = 8;

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: DEFAULT_SHARDS,
            threads: 1,
        }
    }
}

/// Batches smaller than this ingest serially: routing a handful of
/// reports across a thread pool costs more than the ingest itself.
const PARALLEL_INGEST_MIN: usize = 1024;

/// Size-tiered compaction trigger: the two newest segments merge while
/// the older one holds fewer than this many times the newer one's rows.
/// Evaluated on row counts only — a pure function of store state, so
/// compaction timing is byte-reproducible across runs, threads, and
/// hosts (no wall clock anywhere).
const COMPACTION_RATIO: u64 = 3;

/// One shard's sealed read layout: immutable delta segments ordered
/// **oldest to newest**. Within a stack, the newest segment holding a
/// key holds its authoritative value (each delta row carries the key's
/// full value at seal time), so a newest-wins fold over the stack
/// reconstructs exactly what a monolithic seal would have built.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentStack {
    segments: Vec<Arc<ColumnarShard>>,
}

impl SegmentStack {
    /// The delta segments, oldest to newest.
    pub(crate) fn segments(&self) -> &[Arc<ColumnarShard>] {
        &self.segments
    }

    /// Number of live segments in the stack.
    pub(crate) fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the stack holds no segments.
    pub(crate) fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

/// Cumulative incremental-seal counters, carried into snapshots and
/// surfaced through `StoreStats` (the CLI stderr block).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SealStats {
    /// Seals that actually built state (epoch-memoized re-seals of an
    /// unchanged store are not counted).
    pub seals_total: u64,
    /// Delta segments currently live across all shard stacks.
    pub segments_live: u64,
    /// Segments consumed by compaction merges so far (two per merge).
    pub segments_compacted: u64,
    /// Rows written into segments by seals and compaction merges — the
    /// actual projection work done. Flat growth per seal is the
    /// incremental win; a monolithic re-seal would grow this by the
    /// whole store every epoch.
    pub rows_resealed: u64,
}

/// Mutable seal-side state, behind one mutex: the current segment
/// stacks, the per-shard dirty sets, and counters.
#[derive(Debug, Clone, Default)]
struct SealState {
    /// Epoch the stacks were last brought up to date at.
    sealed_epoch: Option<u64>,
    /// Per-shard segment stacks, current as of `sealed_epoch`.
    stacks: Vec<SegmentStack>,
    /// Per-shard keys dirtied since the last seal. Blank for a shard
    /// with no baseline yet (see [`ShardedStore::ingest_batch`]).
    dirty: Vec<DirtyShard>,
    stats: SealStats,
}

impl SealState {
    fn sized(shards: usize) -> SealState {
        SealState {
            sealed_epoch: None,
            stacks: vec![SegmentStack::default(); shards],
            dirty: vec![DirtyShard::default(); shards],
            stats: SealStats::default(),
        }
    }
}

/// A sharded aggregation store (the fleet backend at scale).
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Arc<StoreShard>>,
    epoch: u64,
    config: StoreConfig,
    /// Segment stacks, dirty tracking, and seal counters. Epoch-keyed:
    /// `seal()` against an unchanged store reuses the stacks by `Arc`
    /// clone; after an ingest it projects only the dirtied rows.
    seal: Mutex<SealState>,
    /// Cumulative on-disk activity ([`ShardedStore::persist`] /
    /// [`ShardedStore::open`]), carried into snapshots for `StoreStats`.
    persistence: PersistenceStats,
}

impl Clone for ShardedStore {
    fn clone(&self) -> Self {
        ShardedStore {
            shards: self.shards.clone(),
            epoch: self.epoch,
            config: self.config,
            seal: Mutex::new(
                self.seal
                    .lock()
                    .expect(
                        "invariant: seal lock is never poisoned (projection code does not panic)",
                    )
                    .clone(),
            ),
            persistence: self.persistence,
        }
    }
}

impl Default for ShardedStore {
    fn default() -> Self {
        ShardedStore::with_config(StoreConfig::default())
    }
}

impl ShardedStore {
    /// Creates an empty store with the given shape.
    pub fn with_config(config: StoreConfig) -> Self {
        let shards = config.shards.max(1);
        ShardedStore {
            shards: (0..shards)
                .map(|_| Arc::new(StoreShard::default()))
                .collect(),
            epoch: 0,
            config: StoreConfig {
                shards,
                threads: config.threads.max(1),
            },
            seal: Mutex::new(SealState::sized(shards)),
            persistence: PersistenceStats::default(),
        }
    }

    /// Persists the current state into `dir` as a committed segment set
    /// and resets the tail log, returning what this call wrote. The
    /// write order makes the manifest rename the single commit point —
    /// see [`crate::segment`] and docs/SEGMENT_FORMAT.md §6.
    ///
    /// Every persist is whole: it seals, then writes one segment per
    /// shard holding the shard's segment stack folded newest-wins. It
    /// reads the sealed columns only, so persisting a store that was
    /// opened and not written to builds no row table, and a repeat
    /// persist at an unchanged epoch rewrites the same bytes under the
    /// same names.
    pub fn persist(&mut self, dir: &Path) -> Result<PersistenceStats, SegmentError> {
        let sealed = self.seal();
        let stats = segment::write_store(&sealed.shards, &sealed.columnar, self.epoch, dir)?;
        self.persistence.absorb(stats);
        Ok(stats)
    }

    /// Opens the store persisted in `dir`, replaying any tail-log
    /// records appended after the last persist (docs/SEGMENT_FORMAT.md
    /// §7) so a crashed run recovers to its exact pre-crash query
    /// surface.
    ///
    /// The manifest's shard count is authoritative — `config.shards` is
    /// ignored when a committed store exists (partitioning is baked into
    /// the segment files); `config.threads` still applies. A directory
    /// with no manifest yields a fresh empty store shaped by `config`
    /// (plus any tail-log records, for a run that crashed before its
    /// first persist).
    pub fn open(
        dir: &Path,
        config: StoreConfig,
    ) -> Result<(ShardedStore, RecoveryStats), SegmentError> {
        let mut recovery = RecoveryStats::default();
        let mut store = match segment::read_store(dir)? {
            Some(loaded) => {
                recovery.segments_loaded = loaded.shards.len() as u64;
                recovery.bytes_read = loaded.bytes_read;
                recovery.crc_checks = loaded.crc_checks;
                let shards: Vec<Arc<StoreShard>> =
                    loaded.shards.into_iter().map(Arc::new).collect();
                let n = shards.len();
                // Each shard's file decoded straight into the segment
                // its first seal would project, so that is its stack:
                // the seal after `open` projects nothing, and a store
                // only read never builds a row table.
                let mut seal = SealState::sized(n);
                for (stack, shard) in seal.stacks.iter_mut().zip(&shards) {
                    let sealed = shard.projection();
                    if sealed.row_count() > 0 {
                        stack.segments.push(sealed);
                    }
                }
                ShardedStore {
                    config: StoreConfig {
                        shards: n,
                        threads: config.threads.max(1),
                    },
                    shards,
                    epoch: loaded.epoch,
                    seal: Mutex::new(seal),
                    persistence: PersistenceStats::default(),
                }
            }
            None => ShardedStore::with_config(config),
        };
        // Replaying through `ingest_batch` bumps the epoch once per
        // record — exactly as the original ingest did — so the
        // recovered store resumes on the pre-crash epoch trajectory.
        let replay = segment::read_wal(dir, store.epoch)?;
        for (window, reports) in &replay.batches {
            store.ingest_batch(*window, reports);
        }
        recovery.epoch = store.epoch;
        if replay.valid_len > 0 {
            // Tail-log header + one check per replayed record.
            recovery.crc_checks += 1 + replay.batches.len() as u64;
        }
        recovery.wal_records_replayed = replay.batches.len() as u64;
        recovery.wal_reports_recovered = replay.reports;
        recovery.wal_bytes_discarded = replay.bytes_discarded;
        recovery.wal_stale = replay.stale;
        recovery.wal_valid_len = replay.valid_len;
        store.persistence = PersistenceStats {
            segments_written: 0,
            segments_loaded: recovery.segments_loaded,
            bytes_written: 0,
            bytes_read: recovery.bytes_read,
            crc_checks: recovery.crc_checks,
            wal_records_replayed: recovery.wal_records_replayed,
        };
        Ok((store, recovery))
    }

    /// Reports accepted across all shards (excluding duplicates).
    pub fn reports_ingested(&self) -> u64 {
        self.shards.iter().map(|s| s.reports_ingested()).sum()
    }

    /// Duplicate reports rejected across all shards.
    pub fn duplicates_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.duplicates_dropped()).sum()
    }

    /// Ingests a batch of reports into `window`, returning how many were
    /// accepted (non-duplicates).
    ///
    /// Reports are routed to their shards in batch order (per-device
    /// arrival order is preserved) and the shards then ingest
    /// independently — in parallel via [`run_ordered`] when the batch is
    /// large enough and `threads > 1`, serially otherwise. Both paths
    /// produce identical state, so the thread count never changes a
    /// query answer.
    pub fn ingest_batch(&mut self, window: WindowId, reports: &[Report]) -> u64 {
        if reports.is_empty() {
            return 0;
        }
        self.epoch = self.epoch.saturating_add(1);
        let n = self.shards.len();
        let mut routed: Vec<Vec<&Report>> = (0..n).map(|_| Vec::new()).collect();
        for report in reports {
            routed[shard_index(window, report.device, n)].push(report);
        }
        let threads = self.config.threads;
        let mut accepted = 0u64;
        let state = self
            .seal
            .get_mut()
            .expect("invariant: seal lock is never poisoned (projection code does not panic)");
        // A key is dirty only against a baseline: the segments this shard
        // has sealed or was opened with. Until one exists the next seal
        // projects the shard's tables whole and reads no ledger, so none
        // is kept.
        let mut slots: Vec<(&mut StoreShard, Option<&mut DirtyShard>)> = self
            .shards
            .iter_mut()
            .zip(&mut state.dirty)
            .zip(&state.stacks)
            .map(|((shard, dirty), stack)| {
                (Arc::make_mut(shard), (!stack.is_empty()).then_some(dirty))
            })
            .collect();
        let ingest = |(shard, dirty): &mut (&mut StoreShard, Option<&mut DirtyShard>),
                      batch: &[&Report]| {
            batch
                .iter()
                .filter(|report| match dirty {
                    Some(dirty) => shard.ingest_tracked(window, report, dirty),
                    None => shard.ingest(window, report),
                })
                .count() as u64
        };
        if threads > 1 && reports.len() >= PARALLEL_INGEST_MIN {
            // Each worker takes exclusive ownership of one shard slot
            // (row tables plus that shard's dirty set); the mutexes are
            // uncontended (one lock per shard per batch) and only exist
            // to hand the `&mut` pair across the scope.
            let slots: Vec<Mutex<_>> = slots.into_iter().map(Mutex::new).collect();
            run_ordered(
                threads,
                n,
                |i| {
                    let mut slot = slots[i]
                        .lock()
                        .expect("invariant: shard lock is never poisoned (ingest does not panic)");
                    ingest(&mut slot, &routed[i])
                },
                |_, a| accepted += a,
            );
        } else {
            for (slot, batch) in slots.iter_mut().zip(&routed) {
                accepted += ingest(slot, batch);
            }
        }
        accepted
    }

    /// Seals the current state into an immutable snapshot.
    ///
    /// The row side is cheap (one `Arc` clone per shard): the shards are
    /// shared, not copied, and later ingest copies-on-write only what it
    /// touches. Sealing additionally brings each shard's
    /// [`SegmentStack`] up to date — **incrementally**: only the rows
    /// dirtied since the previous seal are projected (in parallel across
    /// shards via [`run_ordered`]) into one new delta [`ColumnarShard`],
    /// so seal cost tracks the delta, not the campaign. A deterministic
    /// size-tiered compaction pass then folds the newest segments
    /// together while the older of the top two holds fewer than
    /// `COMPACTION_RATIO`× the newer one's rows, keeping stacks
    /// shallow. The result is memoized by epoch: every later seal of the
    /// same epoch reuses the stacks by `Arc` clone.
    pub fn seal(&self) -> Snapshot {
        let mut state = self
            .seal
            .lock()
            .expect("invariant: seal lock is never poisoned (projection code does not panic)");
        if state.sealed_epoch != Some(self.epoch) {
            // Take the stacks and dirty sets out of the guard so the
            // parallel closure borrows only immutable locals.
            let stacks = std::mem::take(&mut state.stacks);
            let dirty = std::mem::take(&mut state.dirty);
            let mut sealed = Vec::with_capacity(self.shards.len());
            run_ordered(
                self.config.threads,
                self.shards.len(),
                |i| seal_shard(&self.shards[i], &stacks[i], &dirty[i]),
                |_, out| sealed.push(out),
            );
            let mut live = 0u64;
            state.stacks = Vec::with_capacity(sealed.len());
            for (stack, compacted, rows) in sealed {
                live += stack.len() as u64;
                state.stacks.push(stack);
                state.stats.segments_compacted += compacted;
                state.stats.rows_resealed += rows;
            }
            // The seal baseline restarts empty.
            state.dirty = vec![DirtyShard::default(); dirty.len()];
            state.stats.seals_total += 1;
            state.stats.segments_live = live;
            state.sealed_epoch = Some(self.epoch);
        }
        Snapshot {
            epoch: self.epoch,
            shards: self.shards.clone(),
            columnar: state.stacks.clone(),
            seal: state.stats,
            persistence: self.persistence,
        }
    }
}

/// Brings one shard's segment stack up to date: projects the dirtied
/// rows into a new delta segment — the only step that reads the row
/// tables — then runs the size-tiered compaction loop over the
/// segments' columns. Returns the new stack plus (segments consumed by
/// compaction, rows written into segments by this call).
fn seal_shard(
    shard: &StoreShard,
    stack: &SegmentStack,
    dirty: &DirtyShard,
) -> (SegmentStack, u64, u64) {
    let mut segments = stack.segments.clone();
    let mut compacted = 0u64;
    let mut rows = 0u64;
    if segments.is_empty() {
        // No segment yet: this shard has never cut one with rows, and a
        // store built by ingest keeps no ledger until it does — so
        // project everything. (A shard opened from disk starts with its
        // files' segment as its stack; only a row-less one comes here,
        // and its projection is that segment, row tables still unbuilt.)
        let full = shard.projection();
        if full.row_count() > 0 {
            rows += full.row_count();
            segments.push(full);
        }
    } else if !dirty.is_empty() {
        let delta = ColumnarShard::build_delta(shard, dirty);
        // A counters-only dirty set (every write lost a conflict, or
        // only dedup state moved) projects zero rows — push nothing.
        if delta.row_count() > 0 {
            rows += delta.row_count();
            segments.push(Arc::new(delta));
        }
    }
    // Size-tiered compaction: merge the top two segments while the older
    // one is small relative to the newer (row counts only — fully
    // deterministic). The merge is one linear newest-wins pass over the
    // two segments' sorted columns, and it yields the rows the live
    // tables hold for those keys: the delta just cut carries every key
    // dirtied since the previous seal, so no live value is newer than
    // the top of the stack.
    while segments.len() >= 2 {
        let newer = segments[segments.len() - 1].row_count();
        let older = segments[segments.len() - 2].row_count();
        if older >= newer.saturating_mul(COMPACTION_RATIO) {
            break;
        }
        let top = segments
            .pop()
            .expect("invariant: len >= 2 guarantees a top segment");
        let below = segments
            .pop()
            .expect("invariant: len >= 2 guarantees a second segment");
        let merged = ColumnarShard::merge(&below, &top);
        compacted += 2;
        rows += merged.row_count();
        segments.push(Arc::new(merged));
    }
    (SegmentStack { segments }, compacted, rows)
}

/// Routes `(window, device)` to a shard with a splitmix64 hash, so the
/// partition is stable across runs and independent of HashMap seeds.
pub(crate) fn shard_index(window: WindowId, device: u64, shards: usize) -> usize {
    (splitmix64(device ^ (u64::from(window.0) << 48)) % shards as u64) as usize
}

/// An immutable, epoch-numbered view of the store, carrying both
/// physical layouts: the row-oriented shard tables (the write layout)
/// and their segmented columnar projection (the read layout the
/// [`crate::query::QueryBackend::Vectorized`] kernels scan — a
/// [`SegmentStack`] of delta segments per shard, in the shard order
/// ingest routes reports by).
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: u64,
    shards: Vec<Arc<StoreShard>>,
    columnar: Vec<SegmentStack>,
    seal: SealStats,
    persistence: PersistenceStats,
}

impl Snapshot {
    /// The epoch this snapshot froze.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen shards.
    pub(crate) fn shards(&self) -> &[Arc<StoreShard>] {
        &self.shards
    }

    /// The frozen shards' columnar segment stacks, in shard order.
    pub fn columnar(&self) -> &[SegmentStack] {
        &self.columnar
    }

    /// Cumulative incremental-seal counters at seal time.
    pub fn seal_stats(&self) -> SealStats {
        self.seal
    }

    /// The store's cumulative persistence counters at seal time.
    pub(crate) fn persistence(&self) -> PersistenceStats {
        self.persistence
    }
}

/// Anything that can absorb drained report batches.
///
/// The engine runs against this trait so the same campaign can fill the
/// legacy [`Backend`] (differential tests) or a [`ShardedStore`]
/// (production path) from identical streams.
pub trait ReportSink {
    /// Ingests a batch into `window`; returns accepted (non-duplicate)
    /// report count.
    fn ingest_batch(&mut self, window: WindowId, reports: &[Report]) -> u64;

    /// Brings the sink's read layout up to date with what has been
    /// ingested so far. The engine calls this on its
    /// `FleetConfig::seal_every` batch cadence (the CLI's `--seal-every`);
    /// with incremental sealing each re-seal projects only the rows the
    /// batches since the last one dirtied, so a steady cadence keeps
    /// per-seal cost flat as the campaign grows. Sinks with no read
    /// layout to keep warm inherit this no-op.
    fn reseal(&mut self) {}
}

impl ReportSink for ShardedStore {
    fn ingest_batch(&mut self, window: WindowId, reports: &[Report]) -> u64 {
        ShardedStore::ingest_batch(self, window, reports)
    }

    fn reseal(&mut self) {
        let _ = self.seal();
    }
}

impl ReportSink for Backend {
    fn ingest_batch(&mut self, window: WindowId, reports: &[Report]) -> u64 {
        Backend::ingest_batch(self, window, reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::tests::temp_store_dir;
    use airstat_classify::apps::Application;
    use airstat_classify::mac::{MacAddress, Oui};
    use airstat_telemetry::report::{ReportPayload, UsageRecord};
    use std::collections::BTreeSet;

    const W: WindowId = WindowId(1501);

    fn usage_report(device: u64, seq: u64, bytes: u64) -> Report {
        Report {
            device,
            seq,
            timestamp_s: 0,
            payload: ReportPayload::Usage(vec![UsageRecord {
                mac: MacAddress::from_id(Oui([2, 4, 6]), device),
                app: Application::Netflix,
                up_bytes: bytes,
                down_bytes: 0,
            }]),
        }
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for device in 0..200u64 {
            let shard = shard_index(W, device, 7);
            assert!(shard < 7);
            assert_eq!(shard, shard_index(W, device, 7), "stable");
        }
        // Different windows may route the same device elsewhere.
        let moved = (0..200u64).any(|d| shard_index(W, d, 7) != shard_index(WindowId(1401), d, 7));
        assert!(moved, "window participates in the hash");
    }

    #[test]
    fn accepted_and_duplicate_counts_cross_shards() {
        let mut store = ShardedStore::with_config(StoreConfig {
            shards: 4,
            threads: 1,
        });
        let reports: Vec<Report> = (0..50).map(|d| usage_report(d, 0, 10)).collect();
        assert_eq!(store.ingest_batch(W, &reports), 50);
        assert_eq!(store.ingest_batch(W, &reports), 0, "all duplicates");
        assert_eq!(store.reports_ingested(), 50);
        assert_eq!(store.duplicates_dropped(), 50);
    }

    #[test]
    fn snapshots_are_isolated_from_later_ingest() {
        let mut store = ShardedStore::with_config(StoreConfig {
            shards: 3,
            threads: 1,
        });
        store.ingest_batch(W, &[usage_report(1, 0, 10)]);
        let frozen = store.seal();
        assert_eq!(frozen.epoch(), 1);
        store.ingest_batch(W, &[usage_report(2, 0, 10), usage_report(1, 1, 5)]);
        let frozen_reports: u64 = frozen.shards().iter().map(|s| s.reports_ingested()).sum();
        assert_eq!(frozen_reports, 1, "snapshot unchanged");
        assert_eq!(store.reports_ingested(), 3);
        assert_eq!(store.seal().epoch(), 2);
    }

    #[test]
    fn seal_builds_and_memoizes_the_columnar_projection() {
        let mut store = ShardedStore::with_config(StoreConfig {
            shards: 3,
            threads: 1,
        });
        store.ingest_batch(W, &[usage_report(1, 0, 10)]);
        let first = store.seal();
        assert_eq!(first.columnar().len(), 3, "one stack per shard");
        let again = store.seal();
        for (a, b) in first.columnar().iter().zip(again.columnar()) {
            assert_eq!(a.len(), b.len());
            for (sa, sb) in a.segments().iter().zip(b.segments()) {
                assert!(Arc::ptr_eq(sa, sb), "same epoch reuses the segments");
            }
        }
        store.ingest_batch(W, &[usage_report(2, 0, 10)]);
        let later = store.seal();
        assert_eq!(later.seal_stats().seals_total, 2);
        // Only the shard that took device 2 re-projects; shards with no
        // dirtied rows keep their segments pointer-identical.
        let touched = shard_index(W, 2, store.shards.len());
        for (i, (a, b)) in first.columnar().iter().zip(later.columnar()).enumerate() {
            if i == touched {
                continue;
            }
            assert_eq!(a.len(), b.len(), "untouched shard keeps its stack");
            for (sa, sb) in a.segments().iter().zip(b.segments()) {
                assert!(Arc::ptr_eq(sa, sb), "untouched shard reuses segments");
            }
        }
        // Folding every stack newest-wins mirrors the row tables cell
        // for cell, regardless of how many delta segments are live.
        for (shard, stack) in later.shards().iter().zip(later.columnar()) {
            let row_cells: Vec<_> = shard
                .window(W)
                .map(|t| t.usage.iter().map(|(&k, &v)| (k, v)).collect())
                .unwrap_or_default();
            let views: Vec<&crate::columnar::ColumnarWindow> = stack
                .segments()
                .iter()
                .filter_map(|seg| seg.window(W))
                .collect();
            let merged;
            let resolved = match views[..] {
                [only] => only,
                _ => {
                    merged = crate::columnar::merge_segments(&views, crate::columnar::FAM_USAGE);
                    &merged
                }
            };
            let col_cells: Vec<_> = (0..resolved.usage_mac.len())
                .map(|i| {
                    let totals = airstat_telemetry::backend::UsageTotals {
                        up_bytes: resolved.usage_up[i],
                        down_bytes: resolved.usage_down[i],
                    };
                    ((resolved.usage_mac[i], resolved.usage_app[i]), totals)
                })
                .collect();
            assert_eq!(row_cells, col_cells);
        }
    }

    #[test]
    fn parallel_and_serial_ingest_agree() {
        let reports: Vec<Report> = (0..3000u64)
            .map(|i| usage_report(i % 97, i / 97, i + 1))
            .collect();
        let mut serial = ShardedStore::with_config(StoreConfig {
            shards: 5,
            threads: 1,
        });
        let mut parallel = ShardedStore::with_config(StoreConfig {
            shards: 5,
            threads: 4,
        });
        let a = serial.ingest_batch(W, &reports);
        let b = parallel.ingest_batch(W, &reports);
        assert_eq!(a, b);
        assert_eq!(serial.reports_ingested(), parallel.reports_ingested());
        for (s, p) in serial.seal().shards().iter().zip(parallel.seal().shards()) {
            assert_eq!(s.reports_ingested(), p.reports_ingested());
            assert_eq!(
                s.window(W).map(|t| t.usage.clone()),
                p.window(W).map(|t| t.usage.clone())
            );
        }
    }

    // -----------------------------------------------------------------
    // When a key is dirty
    // -----------------------------------------------------------------

    type UsageKeys = BTreeSet<(MacAddress, Application)>;

    /// One single-record usage report per device, all at `seq`.
    fn usage_batch(devices: std::ops::Range<u64>, seq: u64) -> Vec<Report> {
        devices.map(|d| usage_report(d, seq, 10 + d)).collect()
    }

    /// The usage keys `reports` name.
    fn keys_of(reports: &[Report]) -> UsageKeys {
        reports
            .iter()
            .flat_map(|report| match &report.payload {
                ReportPayload::Usage(records) => records.iter().map(|r| (r.mac, r.app)),
                _ => unreachable!("these tests file usage reports only"),
            })
            .collect()
    }

    /// The usage keys the dirty ledgers hold, across shards and windows.
    fn ledger_keys(store: &ShardedStore) -> UsageKeys {
        let state = store.seal.lock().expect("seal lock");
        state
            .dirty
            .iter()
            .flat_map(|ledger| ledger.windows.values())
            .flat_map(|window| window.usage.iter().copied())
            .collect()
    }

    /// Whether no shard's dirty ledger holds a key.
    fn ledgers_are_blank(store: &ShardedStore) -> bool {
        let state = store.seal.lock().expect("seal lock");
        state.dirty.iter().all(DirtyShard::is_empty)
    }

    /// Every shard's stack, folded newest-wins, holds exactly the rows a
    /// full projection of its row tables holds.
    fn stacks_mirror_the_row_tables(snapshot: &Snapshot) {
        for (shard, stack) in snapshot.shards().iter().zip(snapshot.columnar()) {
            let folded = stack
                .segments()
                .iter()
                .map(|segment| (**segment).clone())
                .reduce(|below, top| ColumnarShard::merge(&below, &top));
            let full = ColumnarShard::build(shard);
            match folded {
                Some(folded) => assert_eq!(folded, full),
                None => assert_eq!(full.row_count(), 0, "an empty stack means no rows"),
            }
        }
    }

    #[test]
    fn a_fresh_store_tracks_nothing_until_its_first_seal_then_exactly_what_follows() {
        let mut store = ShardedStore::with_config(StoreConfig {
            shards: 3,
            threads: 1,
        });
        let first = usage_batch(0..40, 0);
        store.ingest_batch(W, &first);
        assert!(ledgers_are_blank(&store), "no baseline, no ledger");
        let sealed = store.seal();
        assert!(
            sealed.columnar().iter().all(|stack| !stack.is_empty()),
            "40 devices put rows in all three shards"
        );
        assert!(
            ledgers_are_blank(&store),
            "the first seal projects the tables and hands nothing on"
        );

        // New devices and a second report from old ones: both are dirty
        // against the segments just cut.
        let mut second = usage_batch(40..50, 0);
        second.extend(usage_batch(0..5, 1));
        store.ingest_batch(W, &second);
        assert_eq!(ledger_keys(&store), keys_of(&second));

        // A seal drains `dirty` into the delta it cuts.
        let resealed = store.seal();
        assert!(ledgers_are_blank(&store), "the seal drained the ledger");
        assert_eq!(resealed.seal_stats().seals_total, 2);
        stacks_mirror_the_row_tables(&resealed);

        // A persist reads the stacks, not a ledger: it leaves none behind.
        let dir = temp_store_dir("fresh-ledger");
        store.ingest_batch(W, &usage_batch(0..5, 2));
        store.persist(&dir).expect("persist");
        assert!(ledgers_are_blank(&store), "the persist's seal drained it");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_opened_store_tracks_from_its_first_report() {
        let config = StoreConfig {
            shards: 3,
            threads: 1,
        };
        let (first, second, third) = (
            usage_batch(0..40, 0),
            usage_batch(40..50, 0),
            usage_batch(0..5, 1),
        );

        // Without a tail log to replay: the segments on disk are the
        // baseline, so the very first report is dirty against them.
        let dir = temp_store_dir("open");
        let mut writer = ShardedStore::with_config(config);
        writer.ingest_batch(W, &first);
        writer.persist(&dir).expect("persist");
        let (mut store, recovery) = ShardedStore::open(&dir, config).expect("open");
        assert_eq!(recovery.wal_records_replayed, 0);
        assert!(ledgers_are_blank(&store), "loading marks nothing dirty");
        store.ingest_batch(W, &second);
        assert_eq!(ledger_keys(&store), keys_of(&second));
        let stats = store.persist(&dir).expect("persist");
        assert_eq!(stats.segments_written, 3, "every shard whole");
        stacks_mirror_the_row_tables(&store.seal());
        let _ = std::fs::remove_dir_all(&dir);

        // With one: a crash after `second` reached the tail log. Replay
        // goes through `ingest_batch`, so it is tracked like any report.
        let dir = temp_store_dir("replay");
        let mut durable = crate::DurableStore::create(&dir, config).expect("create");
        ReportSink::ingest_batch(&mut durable, W, &first);
        durable.persist().expect("persist");
        ReportSink::ingest_batch(&mut durable, W, &second);
        drop(durable);
        let (mut store, recovery) = ShardedStore::open(&dir, config).expect("open");
        assert_eq!(recovery.wal_records_replayed, 1);
        assert_eq!(ledger_keys(&store), keys_of(&second));
        store.ingest_batch(W, &third);
        let mut expected = keys_of(&second);
        expected.extend(keys_of(&third));
        assert_eq!(ledger_keys(&store), expected);
        stacks_mirror_the_row_tables(&store.seal());
        let _ = std::fs::remove_dir_all(&dir);

        // A crash before the first persist leaves a tail log and no
        // manifest: what opens is a fresh store, with no baseline.
        let dir = temp_store_dir("replay-fresh");
        let mut durable = crate::DurableStore::create(&dir, config).expect("create");
        ReportSink::ingest_batch(&mut durable, W, &first);
        drop(durable);
        let (mut store, recovery) = ShardedStore::open(&dir, config).expect("open");
        assert_eq!(recovery.wal_records_replayed, 1);
        assert!(ledgers_are_blank(&store));
        let stats = store.persist(&dir).expect("persist");
        assert_eq!(stats.segments_written, 3, "every shard whole");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_shard_whose_first_seal_projects_no_rows_stays_untracked_and_still_seals() {
        let mut store = ShardedStore::with_config(StoreConfig {
            shards: 1,
            threads: 1,
        });
        // Accepted, counted, and no row anywhere.
        let empty = Report {
            device: 1,
            seq: 0,
            timestamp_s: 0,
            payload: ReportPayload::Usage(Vec::new()),
        };
        assert_eq!(store.ingest_batch(W, &[empty]), 1);
        let first = store.seal();
        assert!(first.columnar()[0].is_empty(), "nothing to project");
        assert!(ledgers_are_blank(&store));

        // With no segment cut, the next seal is a first seal again: it
        // projects the tables whole and needs no ledger to do so.
        let rows = usage_batch(2..6, 0);
        store.ingest_batch(W, &rows);
        assert!(ledgers_are_blank(&store), "sealed once, still no baseline");
        let second = store.seal();
        assert_eq!(second.columnar()[0].len(), 1);
        assert_eq!(second.seal_stats().rows_resealed, 4);
        stacks_mirror_the_row_tables(&second);

        // From here the shard has a baseline and tracks like any other.
        let more = usage_batch(6..8, 0);
        store.ingest_batch(W, &more);
        assert_eq!(ledger_keys(&store), keys_of(&more));
        stacks_mirror_the_row_tables(&store.seal());
    }

    // -----------------------------------------------------------------
    // What an opened store answers
    // -----------------------------------------------------------------

    /// A window that only ever receives payloads which file no row.
    const EMPTY: WindowId = WindowId(1301);
    const WINDOWS: [WindowId; 3] = [W, WindowId(1407), EMPTY];

    /// One round of reports: from each of six devices one report of every
    /// payload kind (crashes from odd devices only), values moving with
    /// `round`, split over two windows, plus four row-less payloads into
    /// [`EMPTY`].
    fn every_kind_round(round: u64) -> Vec<(WindowId, Vec<Report>)> {
        use airstat_classify::device::OsFamily;
        use airstat_rf::band::{Band, Channel};
        use airstat_rf::phy::{Capabilities, Generation};
        use airstat_telemetry::report::{
            AirtimeRecord, ChannelScanRecord, ClientInfoRecord, CrashRecord, LinkRecord,
            NeighborRecord,
        };
        let channel = |band, number| Channel::new(band, number).expect("a valid channel");
        let mut batches = vec![
            (W, Vec::new()),
            (WindowId(1407), Vec::new()),
            (EMPTY, Vec::new()),
        ];
        for device in 1..=6u64 {
            let mac = |k: u64| MacAddress::from_id(Oui([2, 4, 6]), device * 10 + k);
            let pick = (device + round) as usize;
            let band = [Band::Ghz2_4, Band::Ghz5][pick % 2];
            let mut payloads = vec![
                ReportPayload::Usage(vec![
                    UsageRecord {
                        mac: mac(0),
                        app: Application::Netflix,
                        up_bytes: 1_000 * device + round,
                        down_bytes: 50_000 * (round + 1),
                    },
                    UsageRecord {
                        mac: mac(pick as u64 % 3),
                        app: Application::ALL[pick % Application::ALL.len()],
                        up_bytes: 300,
                        down_bytes: device << (round % 40),
                    },
                ]),
                ReportPayload::ClientInfo(vec![ClientInfoRecord {
                    mac: mac(round % 2),
                    os: OsFamily::ALL[pick % OsFamily::ALL.len()],
                    caps: Capabilities::new(Generation::Ac, true, true, 3),
                    band,
                    rssi_dbm: -40.5 - (device + round) as f64,
                }]),
                ReportPayload::Links(vec![
                    LinkRecord {
                        peer_device: device % 6 + 1,
                        band,
                        probes_expected: 20,
                        probes_received: ((device * 3 + round) % 21) as u32,
                    },
                    LinkRecord {
                        peer_device: 9,
                        band: Band::Ghz5,
                        probes_expected: 0,
                        probes_received: 0,
                    },
                ]),
                ReportPayload::Airtime(vec![AirtimeRecord {
                    channel: channel(band, if pick % 2 == 0 { 6 } else { 36 }),
                    elapsed_us: 1_000_000,
                    busy_us: 400_000 + 1_000 * round,
                    wifi_us: 300_000 + device,
                }]),
                ReportPayload::Neighbors(vec![NeighborRecord {
                    channel: channel(Band::Ghz2_4, 6),
                    networks: (device + round) as u32,
                    hotspots: (round % 3) as u32,
                }]),
                ReportPayload::ChannelScan(vec![
                    ChannelScanRecord {
                        channel: channel(Band::Ghz2_4, 1),
                        utilization_ppm: (37_000 * device + round) as u32,
                        decodable_ppm: 800_000,
                        networks: device as u32,
                    },
                    ChannelScanRecord {
                        channel: channel(Band::Ghz5, 36),
                        utilization_ppm: 9_000,
                        decodable_ppm: (990_000 - round) as u32,
                        networks: 1,
                    },
                ]),
            ];
            if device % 2 == 1 {
                payloads.push(ReportPayload::Crash(vec![CrashRecord {
                    firmware: format!("mr18-2015.{round}"),
                    reason: (pick % 5) as u8,
                    program_counter: 0x4000_0000 + device,
                    uptime_s: 86_400 * (round + 1),
                    free_memory_bytes: 1 << 20,
                }]));
            }
            let reports = &mut batches[usize::from(device > 3)].1;
            for (kind, payload) in payloads.into_iter().enumerate() {
                reports.push(Report {
                    device,
                    seq: round * 8 + kind as u64,
                    timestamp_s: 3_600 * round + device,
                    payload,
                });
            }
            let row_less = [
                ReportPayload::Usage(Vec::new()),
                ReportPayload::ClientInfo(Vec::new()),
                ReportPayload::Links(Vec::new()),
                ReportPayload::Airtime(Vec::new()),
            ];
            for (kind, payload) in row_less.into_iter().enumerate() {
                batches[2].1.push(Report {
                    device,
                    seq: round * 4 + kind as u64,
                    timestamp_s: 3_600 * round,
                    payload,
                });
            }
        }
        batches
    }

    /// Every plan on `windows`: the fixed ones, each band's link keys,
    /// and a series plan per key the store holds.
    fn every_plan(engine: &crate::QueryEngine) -> Vec<crate::QueryPlan> {
        use crate::{QueryPlan, QueryValue};
        use airstat_rf::band::Band;
        let mut plans = Vec::new();
        for window in WINDOWS {
            plans.extend([
                QueryPlan::UsageByApp(window),
                QueryPlan::UsageByOs(window),
                QueryPlan::ClientCount(window),
                QueryPlan::Clients(window),
                QueryPlan::CensusDeviceCount(window),
                QueryPlan::Crashes(window),
            ]);
            for &app in Application::ALL {
                plans.push(QueryPlan::AppClientCount(window, app));
            }
            for band in [Band::Ghz2_4, Band::Ghz5] {
                plans.extend([
                    QueryPlan::LinkKeys(window, band),
                    QueryPlan::LatestDeliveryRatios(window, band),
                    QueryPlan::MeanDeliveryRatios(window, band),
                    QueryPlan::ServingUtilizations(window, band),
                    QueryPlan::NearbySummary(window, band),
                    QueryPlan::NearbyPerChannel(window, band),
                    QueryPlan::ScanObservations(window, band),
                ]);
                let QueryValue::LinkKeys(keys) = engine.execute(&QueryPlan::LinkKeys(window, band))
                else {
                    unreachable!("a LinkKeys plan answers with link keys");
                };
                plans.extend(
                    keys.into_iter()
                        .map(|key| QueryPlan::LinkSeries(window, key)),
                );
            }
        }
        plans
    }

    #[test]
    fn an_opened_chain_answers_every_plan_as_the_store_that_wrote_it() {
        use crate::{QueryBackend, QueryEngine};
        let config = StoreConfig {
            shards: 3,
            threads: 1,
        };
        // One persist into the directory per round, each of them whole.
        for rounds in [1u64, 2, 8] {
            let dir = temp_store_dir("every-kind");
            let mut writer = ShardedStore::with_config(config);
            for round in 0..rounds {
                for (window, reports) in every_kind_round(round) {
                    writer.ingest_batch(window, &reports);
                }
                writer.persist(&dir).expect("persist");
            }
            let original = QueryEngine::new(writer.seal(), 1);
            let plans = every_plan(&original);
            assert!(
                plans.len() > 3 * 70,
                "{rounds} rounds: link series included"
            );

            let (opened, recovery) = ShardedStore::open(&dir, config).expect("open");
            assert_eq!(
                recovery.segments_loaded, config.shards as u64,
                "one file per shard after {rounds} persists"
            );
            let snapshot = opened.seal();
            stacks_mirror_the_row_tables(&snapshot);
            for backend in [QueryBackend::Vectorized, QueryBackend::Legacy] {
                let engine = QueryEngine::with_backend(snapshot.clone(), 1, backend);
                for plan in &plans {
                    assert_eq!(
                        engine.execute(plan),
                        original.execute(plan),
                        "{rounds} rounds, {backend:?}: {plan:?}"
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn an_opened_store_builds_row_tables_only_where_a_report_lands() {
        let config = StoreConfig {
            shards: 3,
            threads: 1,
        };
        let dir = temp_store_dir("lazy-rows");
        let mut writer = ShardedStore::with_config(config);
        for (window, reports) in every_kind_round(0) {
            writer.ingest_batch(window, &reports);
        }
        writer.persist(&dir).expect("persist");

        let (mut opened, _) = ShardedStore::open(&dir, config).expect("open");
        let built = |store: &ShardedStore| -> Vec<bool> {
            store.shards.iter().map(|s| s.has_row_tables()).collect()
        };
        let snapshot = opened.seal();
        assert_eq!(snapshot.seal_stats().seals_total, 1);
        assert_eq!(
            snapshot.seal_stats().rows_resealed,
            0,
            "the files are the stacks: the first seal projects nothing"
        );
        assert!(snapshot.columnar().iter().all(|stack| stack.len() <= 1));
        let engine = crate::QueryEngine::new(snapshot, 1);
        for plan in every_plan(&engine) {
            engine.execute(&plan);
        }
        assert_eq!(built(&opened), [false; 3], "reads build no row table");

        // One report builds the rows of the shard it routes to, and only
        // that shard's; the seal after it reads no other.
        opened.ingest_batch(W, &[usage_report(1, 100, 7)]);
        let routed: Vec<bool> = (0..3).map(|i| i == shard_index(W, 1, 3)).collect();
        assert_eq!(built(&opened), routed);
        let resealed = opened.seal();
        assert_eq!(built(&opened), routed);
        assert_eq!(resealed.seal_stats().rows_resealed, 1, "one dirtied row");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every file in `dir` as `(name, bytes)`, in name order.
    fn store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("store dir readable")
            .flatten()
            .map(|entry| {
                let name = entry.file_name().to_string_lossy().into_owned();
                (
                    name,
                    std::fs::read(entry.path()).expect("store file readable"),
                )
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn an_opened_store_persists_without_building_row_tables() {
        let config = StoreConfig {
            shards: 3,
            threads: 1,
        };
        let dir = temp_store_dir("persist-sealed");
        let mut writer = ShardedStore::with_config(config);
        for round in 0..3 {
            for (window, reports) in every_kind_round(round) {
                writer.ingest_batch(window, &reports);
            }
            writer.seal();
        }
        writer.persist(&dir).expect("persist");

        let (mut opened, _) = ShardedStore::open(&dir, config).expect("open");
        let again = temp_store_dir("persist-sealed-again");
        let stats = opened.persist(&again).expect("persist the opened store");
        assert_eq!(stats.segments_written, 3);
        assert!(
            opened.shards.iter().all(|shard| !shard.has_row_tables()),
            "a persist reads the sealed columns, not rows"
        );
        assert!(store_files(&again) == store_files(&dir), "the same files");
        for dir in [dir, again] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Differential oracle for column-merge compaction.
///
/// Until compaction became [`ColumnarShard::merge`], `seal_shard` folded
/// two segments by going back to the row tables: turn both segments'
/// key columns into key sets, clone those keys' live rows into fresh
/// tables, project the clone. That path survives here, and only here, as
/// the reference the merge must equal — segment for segment, at every
/// compaction any seal cadence triggers — together with the map-cloning
/// delta projection the single column packer replaced.
#[cfg(test)]
mod compaction_oracle {
    use super::*;
    use airstat_classify::apps::Application;
    use airstat_classify::device::OsFamily;
    use airstat_classify::mac::MacAddress;
    use airstat_rf::band::{Band, Channel};
    use airstat_rf::phy::{Capabilities, Generation};
    use airstat_telemetry::report::{
        AirtimeRecord, ChannelScanRecord, ClientInfoRecord, CrashRecord, LinkRecord,
        NeighborRecord, ReportPayload, UsageRecord,
    };
    use proptest::prelude::*;

    const W1: WindowId = WindowId(1501);
    const W2: WindowId = WindowId(1407);

    /// Adds every key `segment` holds to `keys`.
    fn add_key_sets(segment: &ColumnarShard, keys: &mut DirtyShard) {
        for &window in segment.windows.keys() {
            let w = segment.window(window).expect("the map lists held windows");
            let dw = keys.windows.entry(window).or_default();
            dw.usage
                .extend(w.usage_mac.iter().copied().zip(w.usage_app.iter().copied()));
            dw.clients.extend(w.client_mac.iter().copied());
            dw.links.extend(w.link_keys.iter().copied());
            dw.airtime.extend(w.airtime_key.iter().copied());
            dw.neighbors.extend(w.census_device.iter().copied());
            dw.scans.extend(w.scan_device.iter().copied());
            dw.crashes.extend(w.crash_device.iter().copied());
        }
    }

    /// The reference delta projection: clone the row tables of every
    /// dirtied window, keep the rows `dirty` names, project what is left
    /// in full.
    fn project_via_row_maps(shard: &StoreShard, dirty: &DirtyShard) -> ColumnarShard {
        let windows = dirty
            .windows
            .iter()
            .filter(|(_, dw)| !dw.is_empty())
            .filter_map(|(&window, dw)| {
                let mut t = shard.window(window)?.clone();
                t.usage.retain(|k, _| dw.usage.contains(k));
                t.clients.retain(|k, _| dw.clients.contains(k));
                t.links.retain(|k, _| dw.links.contains(k));
                t.airtime.retain(|k, _| dw.airtime.contains(k));
                t.neighbors.retain(|k, _| dw.neighbors.contains(k));
                t.scans.retain(|k, _| dw.scans.contains(k));
                t.crashes.retain(|k, _| dw.crashes.contains(k));
                Some((window, t))
            })
            .collect();
        ColumnarShard::build(&StoreShard::from_parts(
            std::collections::HashMap::new(),
            0,
            0,
            windows,
        ))
    }

    /// The reference compaction: the current live rows of every key either
    /// segment holds.
    fn rebuild_from_tables(
        shard: &StoreShard,
        below: &ColumnarShard,
        top: &ColumnarShard,
    ) -> ColumnarShard {
        let mut keys = DirtyShard::default();
        add_key_sets(below, &mut keys);
        add_key_sets(top, &mut keys);
        project_via_row_maps(shard, &keys)
    }

    /// `seal_shard` as it was before the column merge, asserting at every
    /// compaction that the merge yields the very same segment. Returns the
    /// stack and how many compactions it compared.
    fn seal_shard_reference(
        shard: &StoreShard,
        stack: &SegmentStack,
        dirty: &DirtyShard,
    ) -> (SegmentStack, u64) {
        let mut segments = stack.segments.clone();
        if segments.is_empty() {
            let full = ColumnarShard::build(shard);
            if full.row_count() > 0 {
                segments.push(Arc::new(full));
            }
        } else if !dirty.is_empty() {
            let delta = project_via_row_maps(shard, dirty);
            assert_eq!(
                ColumnarShard::build_delta(shard, dirty),
                delta,
                "direct delta projection diverged from the row-map projection"
            );
            if delta.row_count() > 0 {
                segments.push(Arc::new(delta));
            }
        }
        let mut compared = 0;
        while segments.len() >= 2 {
            let newer = segments[segments.len() - 1].row_count();
            let older = segments[segments.len() - 2].row_count();
            if older >= newer.saturating_mul(COMPACTION_RATIO) {
                break;
            }
            let top = segments.pop().expect("len >= 2");
            let below = segments.pop().expect("len >= 2");
            let rebuilt = rebuild_from_tables(shard, &below, &top);
            assert_eq!(
                ColumnarShard::merge(&below, &top),
                rebuilt,
                "column merge diverged from the rebuild out of the live tables"
            );
            compared += 1;
            segments.push(Arc::new(rebuilt));
        }
        (SegmentStack { segments }, compared)
    }

    /// Seals `store`, checking every shard's new stack (and, inside
    /// [`seal_shard_reference`], every compaction on the way to it) against
    /// the reference. Returns the compactions compared.
    fn seal_checked(store: &ShardedStore) -> u64 {
        // What `seal` is about to consume. A memoized re-seal of an
        // unchanged epoch consumes nothing, and the reference agrees:
        // nothing is dirty and the compaction loop is at its fixed point.
        let (stacks, dirty) = {
            let state = store.seal.lock().expect("seal lock");
            (state.stacks.clone(), state.dirty.clone())
        };
        let snapshot = store.seal();
        let mut compared = 0;
        for (i, stack) in snapshot.columnar().iter().enumerate() {
            let (expected, n) = seal_shard_reference(&store.shards[i], &stacks[i], &dirty[i]);
            assert_eq!(stack, &expected, "shard {i}: stack diverged");
            compared += n;
        }
        compared
    }

    /// Offers `batches` in order, sealing (checked) after every
    /// `seal_every`th and once at the end. Returns the compactions compared,
    /// which must be every compaction the store ran.
    fn run_checked(batches: &[(WindowId, Vec<Report>)], shards: usize, seal_every: usize) -> u64 {
        let mut store = ShardedStore::with_config(StoreConfig { shards, threads: 1 });
        let mut compared = 0;
        for (i, (window, reports)) in batches.iter().enumerate() {
            store.ingest_batch(*window, reports);
            if (i + 1) % seal_every == 0 {
                compared += seal_checked(&store);
            }
        }
        compared += seal_checked(&store);
        assert_eq!(store.seal().seal_stats().segments_compacted, 2 * compared);
        compared
    }

    fn any_mac() -> impl Strategy<Value = MacAddress> {
        (0u8..6).prop_map(|i| MacAddress::new([2, 0, 0, 0, 0, i]))
    }

    fn any_channel() -> impl Strategy<Value = Channel> {
        (any::<bool>(), any::<u16>()).prop_map(|(five_ghz, pick)| {
            let band = if five_ghz { Band::Ghz5 } else { Band::Ghz2_4 };
            let all = Channel::all_in(band);
            all[usize::from(pick) % all.len()]
        })
    }

    /// Payloads of all seven table families, over key spaces small enough
    /// that later seals keep re-dirtying keys earlier segments hold.
    fn any_payload() -> impl Strategy<Value = ReportPayload> {
        prop_oneof![
            prop::collection::vec(
                (any_mac(), 0usize..4, any::<u32>()).prop_map(|(mac, app, bytes)| UsageRecord {
                    mac,
                    app: Application::ALL[app],
                    up_bytes: u64::from(bytes),
                    down_bytes: u64::from(bytes) * 9,
                }),
                0..5
            )
            .prop_map(ReportPayload::Usage),
            prop::collection::vec(
                (any_mac(), 0usize..OsFamily::ALL.len(), -90.0f64..-30.0).prop_map(
                    |(mac, os, rssi_dbm)| ClientInfoRecord {
                        mac,
                        os: OsFamily::ALL[os],
                        caps: Capabilities::new(Generation::N, true, false, 2),
                        band: Band::Ghz2_4,
                        rssi_dbm,
                    }
                ),
                0..5
            )
            .prop_map(ReportPayload::ClientInfo),
            prop::collection::vec(
                (0u64..4, any::<bool>(), 0u32..50).prop_map(|(peer_device, five_ghz, expected)| {
                    LinkRecord {
                        peer_device,
                        band: if five_ghz { Band::Ghz5 } else { Band::Ghz2_4 },
                        // 0 expected probes files no observation at all.
                        probes_expected: expected,
                        probes_received: expected / 2,
                    }
                }),
                0..5
            )
            .prop_map(ReportPayload::Links),
            prop::collection::vec(
                (any_channel(), any::<u32>(), any::<u32>()).prop_map(|(channel, elapsed, busy)| {
                    AirtimeRecord {
                        channel,
                        elapsed_us: u64::from(elapsed),
                        busy_us: u64::from(busy),
                        wifi_us: u64::from(busy / 2),
                    }
                }),
                0..5
            )
            .prop_map(ReportPayload::Airtime),
            prop::collection::vec(
                (any_channel(), 0u32..40, 0u32..10).prop_map(|(channel, networks, hotspots)| {
                    NeighborRecord {
                        channel,
                        networks,
                        hotspots: hotspots.min(networks),
                    }
                }),
                0..5
            )
            .prop_map(ReportPayload::Neighbors),
            prop::collection::vec(
                (any_channel(), 0u32..1_000_000, 0u32..40).prop_map(
                    |(channel, utilization_ppm, networks)| ChannelScanRecord {
                        channel,
                        utilization_ppm,
                        decodable_ppm: utilization_ppm / 2,
                        networks,
                    }
                ),
                0..5
            )
            .prop_map(ReportPayload::ChannelScan),
            prop::collection::vec(
                (0u8..5, any::<u32>()).prop_map(|(reason, pc)| CrashRecord {
                    firmware: format!("mr-{reason}"),
                    reason,
                    program_counter: u64::from(pc),
                    uptime_s: 60,
                    free_memory_bytes: 4096,
                }),
                0..3
            )
            .prop_map(ReportPayload::Crash),
        ]
    }

    /// Turns payloads into a batch stream: two reports a batch, batches
    /// alternating between the two windows in runs of three, unique
    /// `(window, device, seq)` per report. `dup_salt` decides which batches
    /// repeat one of their own reports and which are re-offered whole — the
    /// re-offer is all duplicates, so sealing right after it is a
    /// counters-only seal.
    fn batch_stream(payloads: Vec<ReportPayload>, dup_salt: u64) -> Vec<(WindowId, Vec<Report>)> {
        let reports: Vec<Report> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| Report {
                device: (i % 5) as u64,
                seq: (i / 5) as u64 + 1,
                timestamp_s: 1_000 + i as u64,
                payload,
            })
            .collect();
        let mut batches = Vec::new();
        let mut state = dup_salt;
        for (i, chunk) in reports.chunks(2).enumerate() {
            let window = if (i / 3) % 2 == 0 { W1 } else { W2 };
            let mut batch = chunk.to_vec();
            state = splitmix64(state);
            if state % 4 == 0 {
                batch.push(chunk[0].clone());
            }
            batches.push((window, batch));
            if state % 3 == 0 {
                batches.push((window, chunk.to_vec()));
            }
        }
        batches
    }

    proptest! {
        #[test]
        fn merge_equals_rebuild_at_every_compaction(
            payloads in prop::collection::vec(any_payload(), 1..40),
            dup_salt in any::<u64>(),
            shards in 1usize..9,
        ) {
            let batches = batch_stream(payloads, dup_salt);
            for seal_every in [1usize, 3, 7] {
                run_checked(&batches, shards, seal_every);
            }
        }
    }

    fn usage(mac: u8, up: u64) -> ReportPayload {
        ReportPayload::Usage(vec![UsageRecord {
            mac: MacAddress::new([2, 0, 0, 0, 0, mac]),
            app: Application::Netflix,
            up_bytes: up,
            down_bytes: 2 * up,
        }])
    }

    fn report(device: u64, seq: u64, payload: ReportPayload) -> Report {
        Report {
            device,
            seq,
            timestamp_s: 100 * seq,
            payload,
        }
    }

    /// Ingests `first` and cuts a full projection, ingests `second` and cuts
    /// its delta: the shard plus the two segments a compaction would fold.
    fn two_segments(
        first: &[(WindowId, Report)],
        second: &[(WindowId, Report)],
    ) -> (StoreShard, ColumnarShard, ColumnarShard) {
        let mut shard = StoreShard::default();
        let mut dirty = DirtyShard::default();
        for (window, report) in first {
            assert!(shard.ingest_tracked(*window, report, &mut dirty));
        }
        let below = ColumnarShard::build(&shard);
        let mut dirty = DirtyShard::default();
        for (window, report) in second {
            assert!(shard.ingest_tracked(*window, report, &mut dirty));
        }
        let top = ColumnarShard::build_delta(&shard, &dirty);
        (shard, below, top)
    }

    #[test]
    fn a_fixed_stream_does_compact() {
        // The proptest's comparisons are only worth something if
        // compactions happen: equal-sized disjoint deltas fold on every seal.
        let batches: Vec<(WindowId, Vec<Report>)> = (0..12u64)
            .map(|i| (W1, vec![report(i, 1, usage(i as u8, i + 1))]))
            .collect();
        assert!(run_checked(&batches, 1, 1) >= 8);
    }

    #[test]
    fn a_window_only_one_side_holds_is_carried_over() {
        let (shard, below, top) = two_segments(
            &[
                (W1, report(1, 1, usage(1, 10))),
                // A window that only ever took an empty payload: the full
                // projection keeps its empty tables, compaction drops them.
                (
                    WindowId(1301),
                    report(1, 1, ReportPayload::Usage(Vec::new())),
                ),
            ],
            &[(W2, report(1, 1, usage(1, 7)))],
        );
        assert!(below.window(WindowId(1301)).is_some());
        let merged = ColumnarShard::merge(&below, &top);
        assert_eq!(merged, rebuild_from_tables(&shard, &below, &top));
        assert_eq!(
            merged.windows.keys().copied().collect::<Vec<_>>(),
            vec![W2, W1]
        );
        assert_eq!(merged.window(W1), below.window(W1));
        assert_eq!(merged.window(W2), top.window(W2));
    }

    #[test]
    fn empty_families_merge_to_empty_columns() {
        let (shard, below, top) = two_segments(
            &[(W1, report(1, 1, usage(1, 10)))],
            &[(W1, report(2, 1, usage(2, 20)))],
        );
        let merged = ColumnarShard::merge(&below, &top);
        assert_eq!(merged, rebuild_from_tables(&shard, &below, &top));
        let w = merged.window(W1).expect("window present");
        assert_eq!(w.usage_mac.len(), 2);
        assert!(w.client_mac.is_empty() && w.airtime_key.is_empty());
        for offsets in [
            &w.link_offsets,
            &w.census_offsets,
            &w.scan_offsets,
            &w.crash_offsets,
        ] {
            assert_eq!(offsets, &vec![0], "an empty CSR table is one offset");
        }
    }

    #[test]
    fn csr_rows_are_replaced_wholesale_on_key_collision() {
        let channel = Channel::all_in(Band::Ghz2_4)[0];
        let link = |received| {
            ReportPayload::Links(vec![LinkRecord {
                peer_device: 9,
                band: Band::Ghz2_4,
                probes_expected: 20,
                probes_received: received,
            }])
        };
        let census = |networks: &[u32]| {
            ReportPayload::Neighbors(
                networks
                    .iter()
                    .map(|&networks| NeighborRecord {
                        channel,
                        networks,
                        hotspots: 0,
                    })
                    .collect(),
            )
        };
        let scan = |utilization_ppm| {
            ReportPayload::ChannelScan(vec![ChannelScanRecord {
                channel,
                utilization_ppm,
                decodable_ppm: 0,
                networks: 1,
            }])
        };
        let crash = |reason| {
            ReportPayload::Crash(vec![CrashRecord {
                firmware: "mr-16".into(),
                reason,
                program_counter: 0xdead,
                uptime_s: 60,
                free_memory_bytes: 4096,
            }])
        };
        // Device 1 files all four CSR families in both segments; device 2
        // only in the first, so its rows must come through untouched.
        let (shard, below, top) = two_segments(
            &[
                (W1, report(1, 1, link(10))),
                (W1, report(1, 2, census(&[5, 6, 7]))),
                (W1, report(1, 3, scan(100))),
                (W1, report(1, 4, crash(0))),
                (W1, report(2, 1, link(4))),
                (W1, report(2, 2, census(&[1]))),
            ],
            &[
                (W1, report(1, 5, link(12))),
                (W1, report(1, 6, census(&[8]))),
                (W1, report(1, 7, scan(200))),
                (W1, report(1, 8, crash(1))),
            ],
        );
        let merged = ColumnarShard::merge(&below, &top);
        assert_eq!(merged, rebuild_from_tables(&shard, &below, &top));
        assert_eq!(merged, ColumnarShard::build(&shard), "nothing else is live");
        let w = merged.window(W1).expect("window present");
        // Device 1's rows are the top segment's full current values — two
        // link observations, the one-row census that replaced the three-row
        // one, two scans, two crashes — not a concatenation of both sides.
        assert_eq!(w.link_offsets, vec![0, 2, 3]);
        assert_eq!(w.census_device, vec![1, 2]);
        assert_eq!(w.census_networks, vec![8, 1]);
        assert_eq!(w.scan_util_ppm, vec![100, 200]);
        assert_eq!(w.crash_offsets, vec![0, 2]);
    }
}
