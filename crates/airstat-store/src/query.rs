//! The typed query layer: plans, the parallel engine, and the cache.
//!
//! A [`QueryPlan`] names one aggregate from the legacy backend's query
//! surface; [`QueryEngine::execute`] answers it against a frozen
//! [`Snapshot`] by fanning the plan out over the shards with
//! [`crate::exec::run_ordered`] and merging the per-shard partials in a
//! **globally canonical order** (every multi-shard merge flattens
//! through a `BTreeMap` keyed by MAC, device or link key). Canonical
//! merge order is what makes the engine shard-count invariant even for
//! floating-point consumers — a correlation over `scan_observations` sums
//! the same values in the same order whether the store has 1 shard or
//! 50 — and it yields the flat `Backend`'s order, since every table of
//! that backend is a `BTreeMap` walked in key order. Only a crash
//! aggregate differs: the backend keeps crash reports in arrival order.
//!
//! The engine answers every plan through one of two paths, selected by
//! [`QueryBackend`]:
//!
//! * [`QueryBackend::Vectorized`] (default) — the engine: two-pass
//!   kernels (selection vector, gather + partial-aggregate) over the
//!   snapshot's packed [`crate::columnar::ColumnarShard`] segment
//!   stacks, merged by a zero-copy k-way walk in the same canonical key
//!   order. A plan reads every shard whose stack holds its window: the
//!   store hash-partitions by `(window, device)`, so each such shard
//!   holds rows of nearly every table family, and nothing short of the
//!   columns themselves could rule one out. The exception is
//!   [`QueryPlan::LinkSeries`], which reads only the one shard its
//!   link's reports were routed to;
//! * [`QueryBackend::Legacy`] — the original map-backed fold, kept as
//!   the oracle the store model test (`tests/persistence.rs`) holds
//!   the engine to, byte for byte, at every shard and thread count.
//!
//! Results are memoized in an epoch-keyed, byte-budgeted LRU
//! [`ResultCache`]; the hit/miss/eviction counters surface in
//! [`StoreStats`], which the CLI prints next to the engine's throughput
//! summary.
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::mem::{size_of, size_of_val};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use airstat_classify::apps::Application;
use airstat_classify::device::OsFamily;
use airstat_classify::mac::MacAddress;
use airstat_rf::band::{Band, Channel};
use airstat_telemetry::backend::{
    Backend, ClientIdentity, LinkKey, LinkObservation, ScanObservation, UsageTotals, WindowId,
};
use airstat_telemetry::crash::CrashAggregator;

use crate::columnar::{
    add_usage_by_app_stack, kway_groups, mac_key, merge_segments, select_indices,
    usage_totals_by_mac_stack, ColumnarWindow, APP_LANES, FAM_AIRTIME, FAM_CENSUS, FAM_CLIENTS,
    FAM_CRASHES, FAM_LINKS, FAM_SCANS, FAM_USAGE, OS_LANES,
};
use crate::exec::run_ordered;
use crate::segment::PersistenceStats;
use crate::shard::StoreShard;
use crate::store::{shard_index, SealStats, SegmentStack, Snapshot};

/// Which path answers a plan: the engine or its oracle.
///
/// The store model test (`tests/persistence.rs`) holds both to the
/// flat `Backend` on every plan; they differ only in cold-query cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum QueryBackend {
    /// The engine (default): two-pass vectorized kernels (selection
    /// vector, then gather + partial-aggregate) over the columnar
    /// projection of the shards that hold the plan's window.
    #[default]
    Vectorized,
    /// The oracle: the original map-backed path, which clones each
    /// shard's `BTreeMap` tables and folds them into a merge map.
    Legacy,
}

/// One query against the store, covering the full legacy surface.
///
/// `Copy`: a plan is a window plus at most one small key, no heap, so
/// the result cache builds its lookup keys by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryPlan {
    /// Usage totals and distinct clients per application (§3).
    UsageByApp(WindowId),
    /// Usage totals and distinct clients per OS family (§3).
    UsageByOs(WindowId),
    /// Distinct clients seen in a window.
    ClientCount(WindowId),
    /// Every client identity, in MAC order.
    Clients(WindowId),
    /// Distinct clients that used an application.
    AppClientCount(WindowId, Application),
    /// All link keys on a band, in key order (§4.2).
    LinkKeys(WindowId, Band),
    /// The observation series for one link.
    LinkSeries(WindowId, LinkKey),
    /// Most recent delivery ratio per link on a band, in key order.
    LatestDeliveryRatios(WindowId, Band),
    /// Mean delivery ratio per link on a band, in key order.
    MeanDeliveryRatios(WindowId, Band),
    /// Serving-radio utilizations on a band, in `(device, band)` order
    /// (§4.3).
    ServingUtilizations(WindowId, Band),
    /// Devices that filed a neighbour census (§4.1).
    CensusDeviceCount(WindowId),
    /// `(total networks, mean per AP, hotspots)` on a band (Table 7).
    NearbySummary(WindowId, Band),
    /// Nearby networks summed per channel on a band (Figure 2).
    NearbyPerChannel(WindowId, Band),
    /// The crash-triage aggregate, reports in device order (§6.1).
    Crashes(WindowId),
    /// All channel-scan observations on a band, in device order (§5).
    ScanObservations(WindowId, Band),
}

impl QueryPlan {
    /// The window this plan reads.
    pub(crate) fn window(&self) -> WindowId {
        match *self {
            QueryPlan::UsageByApp(w)
            | QueryPlan::UsageByOs(w)
            | QueryPlan::ClientCount(w)
            | QueryPlan::Clients(w)
            | QueryPlan::AppClientCount(w, _)
            | QueryPlan::LinkKeys(w, _)
            | QueryPlan::LinkSeries(w, _)
            | QueryPlan::LatestDeliveryRatios(w, _)
            | QueryPlan::MeanDeliveryRatios(w, _)
            | QueryPlan::ServingUtilizations(w, _)
            | QueryPlan::CensusDeviceCount(w)
            | QueryPlan::NearbySummary(w, _)
            | QueryPlan::NearbyPerChannel(w, _)
            | QueryPlan::Crashes(w)
            | QueryPlan::ScanObservations(w, _) => w,
        }
    }

    /// Short plan name, used by the `--explain` output.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            QueryPlan::UsageByApp(_) => "usage_by_app",
            QueryPlan::UsageByOs(_) => "usage_by_os",
            QueryPlan::ClientCount(_) => "client_count",
            QueryPlan::Clients(_) => "clients",
            QueryPlan::AppClientCount(..) => "app_client_count",
            QueryPlan::LinkKeys(..) => "link_keys",
            QueryPlan::LinkSeries(..) => "link_series",
            QueryPlan::LatestDeliveryRatios(..) => "latest_delivery_ratios",
            QueryPlan::MeanDeliveryRatios(..) => "mean_delivery_ratios",
            QueryPlan::ServingUtilizations(..) => "serving_utilizations",
            QueryPlan::CensusDeviceCount(_) => "census_device_count",
            QueryPlan::NearbySummary(..) => "nearby_summary",
            QueryPlan::NearbyPerChannel(..) => "nearby_per_channel",
            QueryPlan::Crashes(_) => "crashes",
            QueryPlan::ScanObservations(..) => "scan_observations",
        }
    }
}

/// The result of executing a [`QueryPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryValue {
    /// From [`QueryPlan::UsageByApp`].
    AppUsage(Vec<(Application, UsageTotals, u64)>),
    /// From [`QueryPlan::UsageByOs`].
    OsUsage(Vec<(OsFamily, UsageTotals, u64)>),
    /// From the counting plans.
    Count(u64),
    /// From [`QueryPlan::Clients`].
    Clients(Vec<(MacAddress, ClientIdentity)>),
    /// From [`QueryPlan::LinkKeys`].
    LinkKeys(Vec<LinkKey>),
    /// From [`QueryPlan::LinkSeries`].
    Series(Vec<LinkObservation>),
    /// From the delivery-ratio and utilization plans.
    Ratios(Vec<f64>),
    /// From [`QueryPlan::NearbySummary`].
    NearbySummary {
        /// Total nearby networks on the band.
        total: u64,
        /// Mean nearby networks per reporting AP.
        mean_per_ap: f64,
        /// Total nearby hotspots on the band.
        hotspots: u64,
    },
    /// From [`QueryPlan::NearbyPerChannel`].
    PerChannel(Vec<(u16, u64)>),
    /// From [`QueryPlan::ScanObservations`].
    Scans(Vec<ScanObservation>),
    /// From [`QueryPlan::Crashes`].
    Crashes(Option<CrashAggregator>),
}

impl QueryValue {
    /// Bytes this value occupies while cached: the enum itself plus the
    /// heap payload its vectors (and a crash report's firmware strings)
    /// own — what the [`ResultCache`] budget is charged.
    pub(crate) fn cached_bytes(&self) -> usize {
        let heap = match self {
            QueryValue::AppUsage(v) => size_of_val(v.as_slice()),
            QueryValue::OsUsage(v) => size_of_val(v.as_slice()),
            QueryValue::Clients(v) => size_of_val(v.as_slice()),
            QueryValue::LinkKeys(v) => size_of_val(v.as_slice()),
            QueryValue::Series(v) => size_of_val(v.as_slice()),
            QueryValue::Ratios(v) => size_of_val(v.as_slice()),
            QueryValue::PerChannel(v) => size_of_val(v.as_slice()),
            QueryValue::Scans(v) => size_of_val(v.as_slice()),
            QueryValue::Crashes(Some(crashes)) => {
                let reports = crashes.reports();
                size_of_val(reports) + reports.iter().map(|r| r.firmware.len()).sum::<usize>()
            }
            QueryValue::Count(_) | QueryValue::NearbySummary { .. } | QueryValue::Crashes(None) => {
                0
            }
        };
        size_of::<QueryValue>() + heap
    }
}

/// Result-cache budget in bytes of cached [`QueryValue`] payload: each
/// value's own size plus the heap its vectors own.
///
/// Sized from a measurement: at `paper(0.008)` (77k clients, the
/// `resume_query` benchmark campaign) every plan kind on every window
/// plus one full `PaperReport::from_query` caches 807 results totalling
/// 4.9 MB (DESIGN.md §11.6 has the breakdown). The budget holds that three
/// times over, so a dashboard refreshing one report never evicts what
/// the next refresh reads, while a store whose results outgrow it falls
/// back to recomputing the oldest instead of growing without bound.
pub const CACHE_BUDGET_BYTES: usize = 16 << 20;

/// One cached result with its recency stamp and budget charge.
#[derive(Debug)]
struct CacheSlot {
    stamp: u64,
    bytes: usize,
    value: QueryValue,
}

/// An epoch-keyed, byte-budgeted LRU cache of query results.
///
/// Keys are `(epoch, plan)`: a result is valid exactly for the snapshot
/// epoch it was computed against, so ingesting new data (which bumps the
/// epoch) naturally invalidates without any explicit flush. Recency is
/// tracked with a monotone stamp; when the cached payload exceeds
/// [`CACHE_BUDGET_BYTES`] the entries with the oldest stamps are evicted
/// until it fits. A single value larger than the whole budget is handed
/// back to the caller but not retained.
#[derive(Debug)]
pub struct ResultCache {
    // airstat::allow(no-hashmap-iter): exact-key lookups only; eviction
    // walks `by_stamp`, never this map
    entries: HashMap<(u64, QueryPlan), CacheSlot>,
    /// Eviction order: each key under the stamp it was inserted with. A
    /// hit only restamps its slot (no tree work on the hot path), so an
    /// index stamp may trail the slot's; eviction re-files such a key
    /// under its current stamp and moves on, which keeps the victim the
    /// true oldest stamp.
    by_stamp: BTreeMap<u64, (u64, QueryPlan)>,
    budget_bytes: usize,
    used_bytes: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for ResultCache {
    /// An empty cache with the [`CACHE_BUDGET_BYTES`] budget.
    fn default() -> Self {
        ResultCache {
            entries: Default::default(),
            by_stamp: Default::default(),
            budget_bytes: CACHE_BUDGET_BYTES,
            used_bytes: 0,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl ResultCache {
    /// Looks up a result, counting the hit or miss.
    pub(crate) fn get(&mut self, epoch: u64, plan: &QueryPlan) -> Option<QueryValue> {
        let Some(slot) = self.entries.get_mut(&(epoch, *plan)) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.clock += 1;
        slot.stamp = self.clock;
        Some(slot.value.clone())
    }

    /// Stores a result, then evicts oldest-stamp entries until the
    /// cached payload fits the budget again.
    pub(crate) fn insert(&mut self, epoch: u64, plan: QueryPlan, value: QueryValue) {
        let bytes = value.cached_bytes();
        if bytes > self.budget_bytes {
            return;
        }
        self.clock += 1;
        let slot = CacheSlot {
            stamp: self.clock,
            bytes,
            value,
        };
        let key = (epoch, plan);
        self.by_stamp.insert(slot.stamp, key);
        self.used_bytes += bytes;
        if let Some(replaced) = self.entries.insert(key, slot) {
            self.used_bytes -= replaced.bytes;
        }
        while self.used_bytes > self.budget_bytes {
            let Some((stamp, key)) = self.by_stamp.pop_first() else {
                unreachable!("invariant: every cached slot is filed under a stamp");
            };
            match self.entries.get(&key) {
                // Hit or re-inserted since it was filed: not the oldest.
                Some(slot) if slot.stamp != stamp => {
                    self.by_stamp.insert(slot.stamp, key);
                }
                _ => {
                    if let Some(victim) = self.entries.remove(&key) {
                        self.used_bytes -= victim.bytes;
                        self.evictions += 1;
                    }
                }
            }
        }
    }

    /// Cached entries right now.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// `(hits, misses, evictions)` so far.
    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

/// Cache and store shape counters, printed by the CLI next to
/// `throughput_summary()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Shards in the queried snapshot.
    pub shards: usize,
    /// Epoch of the queried snapshot.
    pub epoch: u64,
    /// Results currently cached.
    pub cached_results: u64,
    /// Payload bytes those results hold, of [`CACHE_BUDGET_BYTES`].
    pub cached_bytes: u64,
    /// Cache hits served.
    pub hits: u64,
    /// Cache misses (results computed).
    pub misses: u64,
    /// LRU evictions performed.
    pub evictions: u64,
    /// Shards the cold plans read.
    pub shards_scanned: u64,
    /// Shards the cold plans skipped: the shard holds no segment for the
    /// plan's window, or a link series is routed to another shard.
    pub shards_pruned: u64,
    /// On-disk persistence counters carried over from the snapshot
    /// (segments written/loaded, bytes, CRC checks, tail-log replays).
    pub persistence: PersistenceStats,
    /// Incremental-seal counters carried over from the snapshot
    /// (seals, live delta segments, compactions, rows resealed).
    pub seal: SealStats,
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.hits + self.misses;
        let rate = if total > 0 {
            self.hits as f64 / total as f64 * 100.0
        } else {
            0.0
        };
        writeln!(
            f,
            "store stats ({} shard{}, epoch {}):",
            self.shards,
            if self.shards == 1 { "" } else { "s" },
            self.epoch,
        )?;
        writeln!(
            f,
            "  query cache    {:>7} hits  {:>6} misses  {:>4} evictions  ({rate:.1}% hit rate, {} results in {:.1} of {:.1} MB)",
            self.hits,
            self.misses,
            self.evictions,
            self.cached_results,
            self.cached_bytes as f64 / 1e6,
            CACHE_BUDGET_BYTES as f64 / 1e6,
        )?;
        write!(
            f,
            "  shard pruning  {:>7} shards scanned  {:>6} pruned",
            self.shards_scanned, self.shards_pruned,
        )?;
        // Seal counters only appear once a seal happened, so callers
        // printing stats about an unsealed engine see the old block.
        if self.seal.seals_total > 0 {
            let s = self.seal;
            write!(
                f,
                "\n  incremental seal {:>5} seals  {:>4} segments live  {:>4} compacted  {} rows resealed",
                s.seals_total, s.segments_live, s.segments_compacted, s.rows_resealed,
            )?;
        }
        // Persistence is opt-in (`--store-dir`); keep the stderr block
        // unchanged for purely in-memory runs.
        if self.persistence.any() {
            let p = self.persistence;
            write!(
                f,
                "\n  persistence    {:>7} seg written  {:>6} seg loaded  {} B out  {} B in  {} CRC checks  {} tail records replayed",
                p.segments_written,
                p.segments_loaded,
                p.bytes_written,
                p.bytes_read,
                p.crc_checks,
                p.wal_records_replayed,
            )?;
        }
        Ok(())
    }
}

/// One shard's segment stack resolved to a single logical view of a
/// window: a zero-cost borrow when exactly one segment holds the
/// window (the common post-compaction shape — this path reduces to the
/// pre-LSM engine byte for byte), or an owned newest-wins merge
/// ([`merge_segments`]) restricted to the table families the plan
/// reads.
enum ResolvedView<'a> {
    /// The window lives in one segment; borrow it directly.
    Borrowed(&'a ColumnarWindow),
    /// The window spans several delta segments; an owned merge.
    Merged(Box<ColumnarWindow>),
}

impl ResolvedView<'_> {
    /// The resolved window, whichever variant holds it.
    fn get(&self) -> &ColumnarWindow {
        match self {
            ResolvedView::Borrowed(w) => w,
            ResolvedView::Merged(w) => w,
        }
    }
}

/// The segments of one shard's stack that hold `window`, oldest to
/// newest.
fn window_views(stack: &SegmentStack, window: WindowId) -> Vec<&ColumnarWindow> {
    stack
        .segments()
        .iter()
        .filter_map(|seg| seg.window(window))
        .collect()
}

/// Resolves one shard's per-segment views of a window (oldest to
/// newest) into a single view, or `None` when no segment holds it.
fn resolve_views<'a>(views: &[&'a ColumnarWindow], families: u8) -> Option<ResolvedView<'a>> {
    match views {
        [] => None,
        [only] => Some(ResolvedView::Borrowed(only)),
        many => Some(ResolvedView::Merged(Box::new(merge_segments(
            many, families,
        )))),
    }
}

/// Devices that filed a neighbour census, over resolved shard views.
/// Devices are shard-disjoint, and a resolved view holds each filer
/// once however many delta segments shadowed it.
fn census_filers(resolved: &[Option<ResolvedView<'_>>]) -> u64 {
    resolved
        .iter()
        .flatten()
        .map(|v| v.get().census_device.len() as u64)
        .sum()
}

/// Lock-free shard-scan counters. Relaxed atomics are enough — the
/// counters are observability only and never feed back into results.
#[derive(Debug, Default)]
struct EngineCounters {
    shards_scanned: AtomicU64,
    shards_pruned: AtomicU64,
}

/// The parallel, cached query engine over one snapshot.
#[derive(Debug)]
pub struct QueryEngine {
    snapshot: Snapshot,
    threads: usize,
    backend: QueryBackend,
    cache: Mutex<ResultCache>,
    counters: EngineCounters,
    explain: bool,
}

impl QueryEngine {
    /// Creates an engine over `snapshot` using `threads` workers per
    /// query (1 = serial; results are identical for every value) and
    /// the default [`QueryBackend::Vectorized`] engine.
    pub fn new(snapshot: Snapshot, threads: usize) -> Self {
        QueryEngine::with_backend(snapshot, threads, QueryBackend::default())
    }

    /// Creates an engine that answers through the given path. Results
    /// are byte-identical across backends; only the cold-query cost
    /// differs.
    pub fn with_backend(snapshot: Snapshot, threads: usize, backend: QueryBackend) -> Self {
        QueryEngine {
            snapshot,
            threads: threads.max(1),
            backend,
            cache: Mutex::default(),
            counters: EngineCounters::default(),
            explain: false,
        }
    }

    /// Enables (or disables) one stderr line per plan the vectorized
    /// engine runs cold: the plan's name and how many shards it read and
    /// skipped.
    pub fn set_explain(&mut self, explain: bool) {
        self.explain = explain;
    }

    /// Current cache and shape counters.
    pub fn stats(&self) -> StoreStats {
        let cache = self
            .cache
            .lock()
            .expect("invariant: cache lock is never poisoned (no code panics while holding it)");
        let (hits, misses, evictions) = cache.counters();
        StoreStats {
            shards: self.snapshot.shards().len(),
            epoch: self.snapshot.epoch(),
            cached_results: cache.len() as u64,
            cached_bytes: cache.used_bytes as u64,
            hits,
            misses,
            evictions,
            shards_scanned: self.counters.shards_scanned.load(Ordering::Relaxed),
            shards_pruned: self.counters.shards_pruned.load(Ordering::Relaxed),
            persistence: self.snapshot.persistence(),
            seal: self.snapshot.seal_stats(),
        }
    }

    /// Executes a plan, consulting the cache first.
    ///
    /// The cache lock is never held while computing, so plans that
    /// delegate to other plans (`UsageByOs` and the client counts reuse
    /// the cached `Clients` result) re-enter `execute` freely.
    pub fn execute(&self, plan: &QueryPlan) -> QueryValue {
        let epoch = self.snapshot.epoch();
        if let Some(value) = self
            .cache
            .lock()
            .expect("invariant: cache lock is never poisoned (no code panics while holding it)")
            .get(epoch, plan)
        {
            return value;
        }
        let value = self.compute(plan);
        self.cache
            .lock()
            .expect("invariant: cache lock is never poisoned (no code panics while holding it)")
            .insert(epoch, *plan, value.clone());
        value
    }

    /// Runs `f` over every shard in parallel and returns the partials in
    /// shard order. The partials are then merged canonically, so the
    /// thread count never affects the result.
    fn shard_map<T: Send>(&self, f: impl Fn(&StoreShard) -> T + Sync) -> Vec<T> {
        let shards = self.snapshot.shards();
        let mut partials = Vec::with_capacity(shards.len());
        run_ordered(
            self.threads,
            shards.len(),
            |i| f(&shards[i]),
            |_, partial| partials.push(partial),
        );
        partials
    }

    /// Usage cells merged across shards: the same `(MAC, app)` pair may
    /// accumulate in several shards (a roaming client's bytes arrive via
    /// different APs), so cells sum at the key level before any per-app
    /// or per-OS rollup.
    fn merged_usage(&self, window: WindowId) -> BTreeMap<(MacAddress, Application), UsageTotals> {
        let partials = self.shard_map(|shard| {
            shard
                .window(window)
                .map(|t| t.usage.clone())
                .unwrap_or_default()
        });
        let mut merged: BTreeMap<(MacAddress, Application), UsageTotals> = BTreeMap::new();
        for partial in partials {
            for (key, totals) in partial {
                let slot = merged.entry(key).or_default();
                slot.up_bytes = slot.up_bytes.saturating_add(totals.up_bytes);
                slot.down_bytes = slot.down_bytes.saturating_add(totals.down_bytes);
            }
        }
        merged
    }

    /// Link map merged across shards. Keys are disjoint (a link's
    /// `rx_device` pins it to one shard), so this is a pure union.
    fn merged_links(&self, window: WindowId) -> BTreeMap<LinkKey, Vec<LinkObservation>> {
        let partials = self.shard_map(|shard| {
            shard
                .window(window)
                .map(|t| t.links.clone())
                .unwrap_or_default()
        });
        partials.into_iter().flatten().collect()
    }

    /// Computes a plan through the engine's configured path — the one
    /// place that decides which executor runs a plan.
    fn compute(&self, plan: &QueryPlan) -> QueryValue {
        match self.backend {
            QueryBackend::Vectorized => self.compute_vectorized(plan),
            QueryBackend::Legacy => self.compute_legacy(plan),
        }
    }

    /// Counts the shards one plan read and skipped and, under
    /// `--explain`, prints them. Every vectorized kernel records exactly
    /// once, so the lines are one per cold plan and sum to the `shard
    /// pruning` totals.
    fn record_admission(&self, plan: &QueryPlan, scanned: u64, pruned: u64) {
        self.counters
            .shards_scanned
            .fetch_add(scanned, Ordering::Relaxed);
        self.counters
            .shards_pruned
            .fetch_add(pruned, Ordering::Relaxed);
        if self.explain {
            eprintln!(
                "plan {:<22} scanned {scanned:>3}  pruned {pruned:>3}",
                plan.name()
            );
        }
    }

    /// Per-shard segment views of `plan`'s window, in shard order: the
    /// segments holding the window, oldest to newest. A shard with no
    /// segment for the window yields an empty list and is the only kind
    /// counted as skipped.
    fn segment_views(&self, plan: &QueryPlan) -> Vec<Vec<&ColumnarWindow>> {
        let out: Vec<Vec<&ColumnarWindow>> = self
            .snapshot
            .columnar()
            .iter()
            .map(|stack| window_views(stack, plan.window()))
            .collect();
        let scanned = out.iter().filter(|views| !views.is_empty()).count() as u64;
        self.record_admission(plan, scanned, out.len() as u64 - scanned);
        out
    }

    /// Resolved shard views for the vectorized kernels: `Some` for
    /// shards whose stack holds the plan's window, `None` otherwise, in
    /// shard order. Multi-segment stacks resolve through
    /// [`merge_segments`] in parallel, restricted to `families`;
    /// single-segment stacks borrow at zero cost. Every kernel is right
    /// on empty columns, so a shard holding the window but none of the
    /// rows a plan selects contributes nothing to the merge.
    fn resolved_windows(&self, plan: &QueryPlan, families: u8) -> Vec<Option<ResolvedView<'_>>> {
        let stacks = self.segment_views(plan);
        let mut out = Vec::with_capacity(stacks.len());
        run_ordered(
            self.threads,
            stacks.len(),
            |i| resolve_views(&stacks[i], families),
            |_, resolved| out.push(resolved),
        );
        out
    }

    /// Parallel map over the per-shard segment views: runs `f` on each
    /// shard's view list (empty when the shard lacks the window) via
    /// [`run_ordered`], returning partials in shard order — the entry
    /// point for stack kernels that never materialize a merge.
    fn stack_map<T: Send>(
        &self,
        plan: &QueryPlan,
        f: impl Fn(&[&ColumnarWindow]) -> T + Sync,
    ) -> Vec<T> {
        let stacks = self.segment_views(plan);
        let mut partials = Vec::with_capacity(stacks.len());
        run_ordered(
            self.threads,
            stacks.len(),
            |i| f(&stacks[i]),
            |_, partial| partials.push(partial),
        );
        partials
    }

    /// The two-pass vectorized kernels.
    ///
    /// Pass 1 builds a branch-free selection index vector (or dense
    /// partial-aggregate lanes) over the flat columns of every shard
    /// holding the window; pass 2 gathers through the selections with a
    /// zero-copy loser-tree merge ([`kway_groups`]) in the same canonical
    /// key order the legacy fold uses. Every f64 reduction keeps the
    /// exact operand order of its legacy twin; every u64 rollup that
    /// re-associates does so under the saturating-add monoid
    /// (associative + commutative), so the two paths are byte-identical
    /// — proven by the differential tests.
    fn compute_vectorized(&self, plan: &QueryPlan) -> QueryValue {
        match *plan {
            QueryPlan::UsageByApp(_) => {
                let stacks = self.segment_views(plan);
                // Totals: dense per-app lanes, one fused newest-wins
                // k-way pass per shard's stack (no merged window is
                // materialized). Re-associating the saturating sums per
                // shard first is byte-safe (see
                // `ColumnarWindow::add_usage_by_app`).
                let mut lanes = [UsageTotals::default(); APP_LANES];
                for segs in &stacks {
                    match segs[..] {
                        // Flat stack: the original linear pass, no
                        // cursor overhead.
                        [w] => w.add_usage_by_app(&mut lanes),
                        _ => add_usage_by_app_stack(segs, &mut lanes),
                    }
                }
                // Distinct clients per app: every segment collapses to
                // sorted (mac, app bitmask) runs, then one k-way walk
                // over MACs ORs each MAC's masks — a cell shadowed across
                // deltas sets the same bit as a cross-shard duplicate —
                // and counts the set bits per lane.
                let flat: Vec<&ColumnarWindow> = stacks.iter().flatten().copied().collect();
                let mut runs = Vec::with_capacity(flat.len());
                run_ordered(
                    self.threads,
                    flat.len(),
                    |r| flat[r].app_masks_by_mac(),
                    |_, run| runs.push(run),
                );
                let mut counts = [0u64; APP_LANES];
                let lens: Vec<usize> = runs.iter().map(|(macs, _)| macs.len()).collect();
                kway_groups(
                    &lens,
                    |r, i| mac_key(runs[r].0[i]),
                    |_, members| {
                        let mut apps = members.iter().fold(0u64, |m, &(r, i)| m | runs[r].1[i]);
                        while apps != 0 {
                            counts[apps.trailing_zeros() as usize] += 1;
                            apps &= apps - 1;
                        }
                    },
                );
                // Emit ascending discriminant == ascending `Ord`, matching
                // the legacy `BTreeMap<Application>` iteration order.
                let mut app_by_lane = [None; APP_LANES];
                for &app in Application::ALL {
                    app_by_lane[app as usize] = Some(app);
                }
                QueryValue::AppUsage(
                    (0..APP_LANES)
                        .filter(|&lane| counts[lane] > 0)
                        .map(|lane| {
                            let app = app_by_lane[lane]
                                .expect("invariant: counted lanes come from real cells");
                            (app, lanes[lane], counts[lane])
                        })
                        .collect(),
                )
            }
            QueryPlan::UsageByOs(window) => {
                let QueryValue::Clients(clients) = self.execute(&QueryPlan::Clients(window)) else {
                    unreachable!("Clients plan yields Clients");
                };
                // Pass 1 (parallel): per-shard per-MAC rollups fused
                // over each stack's sorted mac columns (newest segment
                // wins per cell) — shrinks the cross-shard merge by the
                // apps-per-MAC factor, byte-safe under the
                // saturating-add monoid.
                let runs = self.stack_map(plan, |segs| match segs {
                    // Flat stack: the original linear group-by.
                    [w] => w.usage_totals_by_mac(),
                    _ => usage_totals_by_mac_stack(segs),
                });
                // Pass 2: cursor k-way merge + merge-join against the
                // sorted client list, aggregating into dense OS lanes.
                let mut os_by_lane = [OsFamily::Unknown; OS_LANES];
                for &os in &OsFamily::ALL {
                    os_by_lane[os as usize] = os;
                }
                let mut agg = [(UsageTotals::default(), 0u64); OS_LANES];
                let lens: Vec<usize> = runs.iter().map(|(macs, _)| macs.len()).collect();
                let mut ci = 0usize;
                kway_groups(
                    &lens,
                    |r, i| mac_key(runs[r].0[i]),
                    |key, members| {
                        let mut totals = UsageTotals::default();
                        for &(r, i) in members {
                            let t = runs[r].1[i];
                            totals.up_bytes = totals.up_bytes.saturating_add(t.up_bytes);
                            totals.down_bytes = totals.down_bytes.saturating_add(t.down_bytes);
                        }
                        while ci < clients.len() && mac_key(clients[ci].0) < key {
                            ci += 1;
                        }
                        let os = match clients.get(ci) {
                            Some((m, identity)) if mac_key(*m) == key => identity.os,
                            _ => OsFamily::Unknown,
                        };
                        let slot = &mut agg[os as usize];
                        slot.0.up_bytes = slot.0.up_bytes.saturating_add(totals.up_bytes);
                        slot.0.down_bytes = slot.0.down_bytes.saturating_add(totals.down_bytes);
                        slot.1 += 1;
                    },
                );
                // Ascending discriminant == ascending `Ord` (the `ALL`
                // display order differs — never emit in that order).
                QueryValue::OsUsage(
                    (0..OS_LANES)
                        .filter(|&lane| agg[lane].1 > 0)
                        .map(|lane| (os_by_lane[lane], agg[lane].0, agg[lane].1))
                        .collect(),
                )
            }
            QueryPlan::ClientCount(window) => {
                let QueryValue::Clients(clients) = self.execute(&QueryPlan::Clients(window)) else {
                    unreachable!("Clients plan yields Clients");
                };
                // No admission of its own: the answer is the length of
                // the delegated `Clients` result.
                self.record_admission(plan, 0, 0);
                QueryValue::Count(clients.len() as u64)
            }
            QueryPlan::Clients(_) => {
                let resolved = self.resolved_windows(plan, FAM_CLIENTS);
                let wins: Vec<&ColumnarWindow> =
                    resolved.iter().flatten().map(ResolvedView::get).collect();
                let lens: Vec<usize> = wins.iter().map(|w| w.client_mac.len()).collect();
                let mut out = Vec::with_capacity(lens.iter().sum());
                kway_groups(
                    &lens,
                    |r, i| mac_key(wins[r].client_mac[i]),
                    |_, members| {
                        // Largest provenance wins, scanning members in
                        // shard order with a strict `>` — the same rule
                        // as the legacy fold.
                        let (mut br, mut bi) = members[0];
                        let mac = wins[br].client_mac[bi];
                        for &(r, i) in &members[1..] {
                            if wins[r].client_meta[i] > wins[br].client_meta[bi] {
                                (br, bi) = (r, i);
                            }
                        }
                        out.push((
                            mac,
                            ClientIdentity {
                                os: wins[br].client_os[bi],
                                caps: wins[br].client_caps[bi],
                                band: wins[br].client_band[bi],
                                rssi_dbm: wins[br].client_rssi[bi],
                            },
                        ));
                    },
                );
                QueryValue::Clients(out)
            }
            QueryPlan::AppClientCount(_, app) => {
                let resolved = self.resolved_windows(plan, FAM_USAGE);
                let wins: Vec<&ColumnarWindow> =
                    resolved.iter().flatten().map(ResolvedView::get).collect();
                let sels: Vec<Vec<u32>> = wins
                    .iter()
                    .map(|w| select_indices(w.usage_app.len(), |i| w.usage_app[i] == app))
                    .collect();
                // Cells are unique per shard; distinct MACs fall out of
                // the k-way walk over the selected mac entries.
                let lens: Vec<usize> = sels.iter().map(Vec::len).collect();
                let mut count = 0u64;
                kway_groups(
                    &lens,
                    |r, i| mac_key(wins[r].usage_mac[sels[r][i] as usize]),
                    |_, _| count += 1,
                );
                QueryValue::Count(count)
            }
            QueryPlan::LinkKeys(_, band) => {
                let resolved = self.resolved_windows(plan, FAM_LINKS);
                let wins: Vec<&ColumnarWindow> =
                    resolved.iter().flatten().map(ResolvedView::get).collect();
                let sels: Vec<Vec<u32>> = wins
                    .iter()
                    .map(|w| select_indices(w.link_keys.len(), |i| w.link_keys[i].band == band))
                    .collect();
                let lens: Vec<usize> = sels.iter().map(Vec::len).collect();
                let mut keys = Vec::with_capacity(lens.iter().sum());
                // Link keys are shard-disjoint: the walk is a pure union.
                kway_groups(
                    &lens,
                    |r, i| wins[r].link_keys[sels[r][i] as usize],
                    |key, _| keys.push(key),
                );
                QueryValue::LinkKeys(keys)
            }
            QueryPlan::LinkSeries(window, key) => {
                // Routed, not scanned: a link's rows are filed by the
                // report of its receiving device, so they live in the one
                // shard `(window, rx_device)` hashes to. That is exact
                // for every stack here: segments are only cut from shards
                // filled through `shard_index`, and `ShardedStore::open`
                // takes the shard count from the manifest that
                // partitioned them, never from the caller.
                let stacks = self.snapshot.columnar();
                let views = window_views(
                    &stacks[shard_index(window, key.rx_device, stacks.len())],
                    window,
                );
                let scanned = u64::from(!views.is_empty());
                self.record_admission(plan, scanned, stacks.len() as u64 - scanned);
                // Newest-first within the stack: a delta row carries the
                // full series, so the first hit is the answer.
                for w in views.iter().rev() {
                    if let Ok(i) = w.link_keys.binary_search(&key) {
                        let (ts, ratio) = w.link_series_at(i);
                        return QueryValue::Series(
                            (0..ts.len())
                                .map(|j| ColumnarWindow::link_observation(ts, ratio, j))
                                .collect(),
                        );
                    }
                }
                QueryValue::Series(Vec::new())
            }
            QueryPlan::LatestDeliveryRatios(_, band) => {
                let resolved = self.resolved_windows(plan, FAM_LINKS);
                let wins: Vec<&ColumnarWindow> =
                    resolved.iter().flatten().map(ResolvedView::get).collect();
                let sels: Vec<Vec<u32>> = wins
                    .iter()
                    .map(|w| {
                        select_indices(w.link_keys.len(), |i| {
                            w.link_keys[i].band == band && w.link_offsets[i + 1] > w.link_offsets[i]
                        })
                    })
                    .collect();
                let lens: Vec<usize> = sels.iter().map(Vec::len).collect();
                let mut ratios = Vec::with_capacity(lens.iter().sum());
                kway_groups(
                    &lens,
                    |r, i| wins[r].link_keys[sels[r][i] as usize],
                    |_, members| {
                        let (r, i) = members[0];
                        let w = wins[r];
                        ratios.push(w.link_ratio[w.link_offsets[sels[r][i] as usize + 1] - 1]);
                    },
                );
                QueryValue::Ratios(ratios)
            }
            QueryPlan::MeanDeliveryRatios(_, band) => {
                let resolved = self.resolved_windows(plan, FAM_LINKS);
                let wins: Vec<&ColumnarWindow> =
                    resolved.iter().flatten().map(ResolvedView::get).collect();
                let sels: Vec<Vec<u32>> = wins
                    .iter()
                    .map(|w| {
                        select_indices(w.link_keys.len(), |i| {
                            w.link_keys[i].band == band && w.link_offsets[i + 1] > w.link_offsets[i]
                        })
                    })
                    .collect();
                let lens: Vec<usize> = sels.iter().map(Vec::len).collect();
                let mut ratios = Vec::with_capacity(lens.iter().sum());
                kway_groups(
                    &lens,
                    |r, i| wins[r].link_keys[sels[r][i] as usize],
                    |_, members| {
                        let (r, i) = members[0];
                        let w = wins[r];
                        let (_, series) = w.link_series_at(sels[r][i] as usize);
                        // Same left-to-right series order as the legacy
                        // mean, so the f64 sum is exact.
                        let sum: f64 = series.iter().sum();
                        ratios.push(sum / series.len() as f64);
                    },
                );
                QueryValue::Ratios(ratios)
            }
            QueryPlan::ServingUtilizations(_, band) => {
                let resolved = self.resolved_windows(plan, FAM_AIRTIME);
                let wins: Vec<&ColumnarWindow> =
                    resolved.iter().flatten().map(ResolvedView::get).collect();
                let sels: Vec<Vec<u32>> = wins
                    .iter()
                    .map(|w| {
                        select_indices(w.airtime_key.len(), |i| {
                            w.airtime_key[i].1 == band && w.airtime_elapsed[i] > 0
                        })
                    })
                    .collect();
                let lens: Vec<usize> = sels.iter().map(Vec::len).collect();
                let mut ratios = Vec::with_capacity(lens.iter().sum());
                kway_groups(
                    &lens,
                    |r, i| wins[r].airtime_key[sels[r][i] as usize],
                    |_, members| {
                        let (r, i) = members[0];
                        let w = wins[r];
                        let j = sels[r][i] as usize;
                        // busy / elapsed, exactly as `AirtimeLedger::
                        // utilization` — identical operands, identical
                        // division.
                        ratios.push(w.airtime_busy[j] as f64 / w.airtime_elapsed[j] as f64);
                    },
                );
                QueryValue::Ratios(ratios)
            }
            QueryPlan::CensusDeviceCount(_) => {
                let resolved = self.resolved_windows(plan, FAM_CENSUS);
                QueryValue::Count(census_filers(&resolved))
            }
            QueryPlan::NearbySummary(_, band) => {
                let resolved = self.resolved_windows(plan, FAM_CENSUS);
                // Devices count every census filer regardless of band
                // (legacy semantics).
                let devices = census_filers(&resolved);
                let (mut total, mut hotspots) = (0u64, 0u64);
                for w in resolved.iter().flatten().map(ResolvedView::get) {
                    // Branchless mask-multiply accumulate: non-matching
                    // rows add exact zeros, so the u64 sums are the
                    // legacy fold's bytes.
                    for i in 0..w.census_band.len() {
                        let m = u64::from(w.census_band[i] == band);
                        total += m * u64::from(w.census_networks[i]);
                        hotspots += m * u64::from(w.census_hotspots[i]);
                    }
                }
                let mean_per_ap = if devices > 0 {
                    total as f64 / devices as f64
                } else {
                    0.0
                };
                QueryValue::NearbySummary {
                    total,
                    mean_per_ap,
                    hotspots,
                }
            }
            QueryPlan::NearbyPerChannel(_, band) => {
                let mut per: BTreeMap<u16, u64> = Channel::all_in(band)
                    .into_iter()
                    .map(|ch| (ch.number, 0))
                    .collect();
                let resolved = self.resolved_windows(plan, FAM_CENSUS);
                for w in resolved.iter().flatten().map(ResolvedView::get) {
                    let sel = select_indices(w.census_band.len(), |i| w.census_band[i] == band);
                    for &i in &sel {
                        *per.entry(w.census_channel[i as usize]).or_default() +=
                            u64::from(w.census_networks[i as usize]);
                    }
                }
                QueryValue::PerChannel(per.into_iter().collect())
            }
            QueryPlan::Crashes(_) => {
                let resolved = self.resolved_windows(plan, FAM_CRASHES);
                let wins: Vec<&ColumnarWindow> =
                    resolved.iter().flatten().map(ResolvedView::get).collect();
                // Presence mirrors the legacy backend: an aggregator
                // exists once some device filed a crash payload, even an
                // empty one (it still leaves the device's row).
                if wins.iter().all(|w| w.crash_device.is_empty()) {
                    return QueryValue::Crashes(None);
                }
                // Devices are shard-disjoint: a sorted index over
                // (device, shard, row) reproduces the global device
                // order without materializing per-shard report vectors.
                let mut index: Vec<(u64, usize, usize)> = Vec::new();
                for (r, w) in wins.iter().enumerate() {
                    index.extend((0..w.crash_device.len()).map(|i| (w.crash_device[i], r, i)));
                }
                index.sort_unstable();
                let mut aggregator = CrashAggregator::default();
                for (_, r, i) in index {
                    for report in wins[r].crash_rows_at(i) {
                        aggregator.ingest(report.clone());
                    }
                }
                QueryValue::Crashes(Some(aggregator))
            }
            QueryPlan::ScanObservations(_, band) => {
                let resolved = self.resolved_windows(plan, FAM_SCANS);
                let wins: Vec<&ColumnarWindow> =
                    resolved.iter().flatten().map(ResolvedView::get).collect();
                // Pass 1: branch-free selection over the flat channel
                // column of each shard.
                let sels: Vec<Vec<u32>> = wins
                    .iter()
                    .map(|w| {
                        select_indices(w.scan_channel.len(), |j| w.scan_channel[j].band == band)
                    })
                    .collect();
                // Pass 2: devices are shard-disjoint; a sorted (device,
                // shard, device-row) index yields the global device
                // order, and per-shard selection cursors gather each
                // device's matching observations in (seq, slot) order.
                let mut index: Vec<(u64, usize, usize)> = Vec::new();
                for (r, w) in wins.iter().enumerate() {
                    index.extend((0..w.scan_device.len()).map(|i| (w.scan_device[i], r, i)));
                }
                index.sort_unstable();
                let mut cursors = vec![0usize; wins.len()];
                let mut out = Vec::with_capacity(sels.iter().map(Vec::len).sum());
                for (_, r, i) in index {
                    let w = wins[r];
                    let range = w.scan_rows_at(i);
                    let sel = &sels[r];
                    while cursors[r] < sel.len() && (sel[cursors[r]] as usize) < range.end {
                        out.push(w.scan_observation(sel[cursors[r]] as usize));
                        cursors[r] += 1;
                    }
                }
                QueryValue::Scans(out)
            }
        }
    }

    /// The original map-backed path: clone each shard's tables, fold
    /// into merge maps. Kept behind [`QueryBackend::Legacy`] as the
    /// differential reference for the vectorized kernels.
    fn compute_legacy(&self, plan: &QueryPlan) -> QueryValue {
        match *plan {
            QueryPlan::UsageByApp(window) => {
                let mut agg: BTreeMap<Application, (UsageTotals, u64)> = BTreeMap::new();
                for (&(_, app), totals) in &self.merged_usage(window) {
                    let slot = agg.entry(app).or_default();
                    slot.0.up_bytes = slot.0.up_bytes.saturating_add(totals.up_bytes);
                    slot.0.down_bytes = slot.0.down_bytes.saturating_add(totals.down_bytes);
                    slot.1 += 1;
                }
                QueryValue::AppUsage(agg.into_iter().map(|(app, (t, c))| (app, t, c)).collect())
            }
            QueryPlan::UsageByOs(window) => {
                let QueryValue::Clients(clients) = self.execute(&QueryPlan::Clients(window)) else {
                    unreachable!("Clients plan yields Clients");
                };
                let identities: BTreeMap<MacAddress, OsFamily> =
                    clients.into_iter().map(|(mac, id)| (mac, id.os)).collect();
                let mut per_mac: BTreeMap<MacAddress, UsageTotals> = BTreeMap::new();
                for (&(mac, _), totals) in &self.merged_usage(window) {
                    let slot = per_mac.entry(mac).or_default();
                    slot.up_bytes = slot.up_bytes.saturating_add(totals.up_bytes);
                    slot.down_bytes = slot.down_bytes.saturating_add(totals.down_bytes);
                }
                let mut agg: BTreeMap<OsFamily, (UsageTotals, u64)> = BTreeMap::new();
                for (mac, totals) in per_mac {
                    let os = identities.get(&mac).copied().unwrap_or(OsFamily::Unknown);
                    let slot = agg.entry(os).or_default();
                    slot.0.up_bytes = slot.0.up_bytes.saturating_add(totals.up_bytes);
                    slot.0.down_bytes = slot.0.down_bytes.saturating_add(totals.down_bytes);
                    slot.1 += 1;
                }
                QueryValue::OsUsage(agg.into_iter().map(|(os, (t, c))| (os, t, c)).collect())
            }
            QueryPlan::ClientCount(window) => {
                let QueryValue::Clients(clients) = self.execute(&QueryPlan::Clients(window)) else {
                    unreachable!("Clients plan yields Clients");
                };
                QueryValue::Count(clients.len() as u64)
            }
            QueryPlan::Clients(window) => {
                let partials = self.shard_map(|shard| {
                    shard
                        .window(window)
                        .map(|t| t.clients.clone())
                        .unwrap_or_default()
                });
                // The same MAC may surface in several shards (identity
                // filed via different devices): the largest provenance
                // wins, matching the single-shard conflict rule.
                let mut merged: BTreeMap<MacAddress, (crate::shard::ClientMeta, ClientIdentity)> =
                    BTreeMap::new();
                for partial in partials {
                    for (mac, entry) in partial {
                        match merged.get_mut(&mac) {
                            Some(existing) if existing.0 >= entry.0 => {}
                            Some(existing) => *existing = entry,
                            None => {
                                merged.insert(mac, entry);
                            }
                        }
                    }
                }
                QueryValue::Clients(
                    merged
                        .into_iter()
                        .map(|(mac, (_, identity))| (mac, identity))
                        .collect(),
                )
            }
            // A roaming client's `(MAC, app)` cell may sit in several
            // shards, so the answer is the size of the MAC set, and only
            // `app`'s cells — not every shard's whole table — are gathered.
            QueryPlan::AppClientCount(window, app) => QueryValue::Count(
                self.snapshot
                    .shards()
                    .iter()
                    .filter_map(|shard| shard.window(window))
                    .flat_map(|tables| tables.usage.keys())
                    .filter(|&&(_, a)| a == app)
                    .map(|&(mac, _)| mac)
                    .collect::<BTreeSet<MacAddress>>()
                    .len() as u64,
            ),
            QueryPlan::LinkKeys(window, band) => QueryValue::LinkKeys(
                self.merged_links(window)
                    .into_keys()
                    .filter(|k| k.band == band)
                    .collect(),
            ),
            // A link's `rx_device` pins it to one shard, so at most one
            // row map holds the key: probe them instead of merging all.
            QueryPlan::LinkSeries(window, key) => QueryValue::Series(
                self.snapshot
                    .shards()
                    .iter()
                    .find_map(|shard| shard.window(window)?.links.get(&key))
                    .cloned()
                    .unwrap_or_default(),
            ),
            QueryPlan::LatestDeliveryRatios(window, band) => QueryValue::Ratios(
                self.merged_links(window)
                    .iter()
                    .filter(|(k, obs)| k.band == band && !obs.is_empty())
                    .map(|(_, obs)| {
                        obs.last()
                            .expect("invariant: filtered to non-empty above")
                            .ratio
                    })
                    .collect(),
            ),
            QueryPlan::MeanDeliveryRatios(window, band) => QueryValue::Ratios(
                self.merged_links(window)
                    .iter()
                    .filter(|(k, obs)| k.band == band && !obs.is_empty())
                    // airstat::allow(float-fold-order): obs comes from merged_links in sealed CSR order, identical for every shard/thread count
                    .map(|(_, obs)| obs.iter().map(|o| o.ratio).sum::<f64>() / obs.len() as f64)
                    .collect(),
            ),
            QueryPlan::ServingUtilizations(window, band) => {
                let partials = self.shard_map(|shard| {
                    shard.window(window).map_or_else(Vec::new, |t| {
                        t.airtime
                            .iter()
                            .filter(|(&(_, b), _)| b == band)
                            .filter_map(|(&key, ledger)| ledger.utilization().map(|u| (key, u)))
                            .collect::<Vec<_>>()
                    })
                });
                // `(device, band)` keys are disjoint across shards;
                // flatten through a BTreeMap for canonical device order.
                let merged: BTreeMap<(u64, Band), f64> = partials.into_iter().flatten().collect();
                QueryValue::Ratios(merged.into_values().collect())
            }
            QueryPlan::CensusDeviceCount(window) => QueryValue::Count(
                self.shard_map(|shard| {
                    shard.window(window).map_or(0, |t| t.neighbors.len() as u64)
                })
                .into_iter()
                .sum(),
            ),
            QueryPlan::NearbySummary(window, band) => {
                let partials = self.shard_map(|shard| {
                    let mut total = 0u64;
                    let mut hotspots = 0u64;
                    let mut devices = 0u64;
                    if let Some(t) = shard.window(window) {
                        for (_, rows) in t.neighbors.values() {
                            devices += 1;
                            for &(b, _, networks, hs) in rows {
                                if b == band {
                                    total += u64::from(networks);
                                    hotspots += u64::from(hs);
                                }
                            }
                        }
                    }
                    (total, hotspots, devices)
                });
                let (mut total, mut hotspots, mut devices) = (0u64, 0u64, 0u64);
                for (t, h, d) in partials {
                    total += t;
                    hotspots += h;
                    devices += d;
                }
                let mean_per_ap = if devices > 0 {
                    total as f64 / devices as f64
                } else {
                    0.0
                };
                QueryValue::NearbySummary {
                    total,
                    mean_per_ap,
                    hotspots,
                }
            }
            QueryPlan::NearbyPerChannel(window, band) => {
                let mut per: BTreeMap<u16, u64> = Channel::all_in(band)
                    .into_iter()
                    .map(|ch| (ch.number, 0))
                    .collect();
                let partials = self.shard_map(|shard| {
                    let mut sums: BTreeMap<u16, u64> = BTreeMap::new();
                    if let Some(t) = shard.window(window) {
                        for (_, rows) in t.neighbors.values() {
                            for &(b, number, networks, _) in rows {
                                if b == band {
                                    *sums.entry(number).or_default() += u64::from(networks);
                                }
                            }
                        }
                    }
                    sums
                });
                for partial in partials {
                    for (number, sum) in partial {
                        *per.entry(number).or_default() += sum;
                    }
                }
                QueryValue::PerChannel(per.into_iter().collect())
            }
            QueryPlan::Crashes(window) => {
                // Presence mirrors the legacy backend: an aggregator
                // exists only once a crash payload arrived (even an empty
                // one), not merely because the window saw other traffic.
                let partials = self.shard_map(|shard| {
                    shard
                        .window(window)
                        .filter(|t| !t.crashes.is_empty())
                        .map(|t| {
                            t.crashes
                                .iter()
                                .map(|(&device, reports)| {
                                    (device, reports.values().cloned().collect::<Vec<_>>())
                                })
                                .collect::<BTreeMap<_, _>>()
                        })
                });
                let mut any = false;
                let mut merged = BTreeMap::new();
                for partial in partials.into_iter().flatten() {
                    any = true;
                    merged.extend(partial);
                }
                if !any {
                    return QueryValue::Crashes(None);
                }
                let mut aggregator = CrashAggregator::default();
                for reports in merged.into_values() {
                    for report in reports {
                        aggregator.ingest(report);
                    }
                }
                QueryValue::Crashes(Some(aggregator))
            }
            QueryPlan::ScanObservations(window, band) => {
                let partials = self.shard_map(|shard| {
                    shard.window(window).map_or_else(Vec::new, |t| {
                        t.scans
                            .iter()
                            .map(|(&device, obs)| {
                                (
                                    device,
                                    obs.values()
                                        .filter(|o| o.record.channel.band == band)
                                        .copied()
                                        .collect::<Vec<_>>(),
                                )
                            })
                            .collect()
                    })
                });
                // Devices are disjoint across shards; flattening the
                // device-keyed BTreeMap gives one canonical global order.
                let merged: BTreeMap<u64, Vec<ScanObservation>> =
                    partials.into_iter().flatten().collect();
                QueryValue::Scans(merged.into_values().flatten().collect())
            }
        }
    }
}

/// The query surface shared by the legacy [`Backend`] and the
/// [`QueryEngine`], with owned returns so analytics code can compute
/// against either.
///
/// The `Backend` impl delegates to its inherent methods; the
/// `QueryEngine` impl executes the matching [`QueryPlan`] (and so
/// benefits from the result cache).
pub trait FleetQuery {
    /// Total usage per application with distinct clients.
    fn usage_by_app(&self, window: WindowId) -> Vec<(Application, UsageTotals, u64)>;
    /// Total usage per OS family with distinct clients.
    fn usage_by_os(&self, window: WindowId) -> Vec<(OsFamily, UsageTotals, u64)>;
    /// Number of distinct clients seen in a window.
    fn client_count(&self, window: WindowId) -> usize;
    /// Every client identity, in MAC order.
    fn clients(&self, window: WindowId) -> Vec<(MacAddress, ClientIdentity)>;
    /// Distinct clients that used a given application.
    fn app_client_count(&self, window: WindowId, app: Application) -> u64;
    /// All link keys on a band, in key order.
    fn link_keys(&self, window: WindowId, band: Band) -> Vec<LinkKey>;
    /// The observation time series for a link.
    fn link_series(&self, window: WindowId, key: LinkKey) -> Vec<LinkObservation>;
    /// Most recent delivery ratio per link on a band.
    fn latest_delivery_ratios(&self, window: WindowId, band: Band) -> Vec<f64>;
    /// Mean delivery ratio per link on a band.
    fn mean_delivery_ratios(&self, window: WindowId, band: Band) -> Vec<f64>;
    /// Per-device serving-radio utilizations on a band.
    fn serving_utilizations(&self, window: WindowId, band: Band) -> Vec<f64>;
    /// Devices that filed a neighbour census.
    fn census_device_count(&self, window: WindowId) -> usize;
    /// `(total networks, mean per AP, hotspots)` on a band.
    fn nearby_summary(&self, window: WindowId, band: Band) -> (u64, f64, u64);
    /// Nearby networks summed per channel.
    fn nearby_per_channel(&self, window: WindowId, band: Band) -> Vec<(u16, u64)>;
    /// The crash-triage aggregate, if any crashes arrived.
    fn crashes(&self, window: WindowId) -> Option<CrashAggregator>;
    /// All channel-scan observations on a band.
    fn scan_observations(&self, window: WindowId, band: Band) -> Vec<ScanObservation>;
}

impl FleetQuery for Backend {
    fn usage_by_app(&self, window: WindowId) -> Vec<(Application, UsageTotals, u64)> {
        Backend::usage_by_app(self, window)
    }
    fn usage_by_os(&self, window: WindowId) -> Vec<(OsFamily, UsageTotals, u64)> {
        Backend::usage_by_os(self, window)
    }
    fn client_count(&self, window: WindowId) -> usize {
        Backend::client_count(self, window)
    }
    fn clients(&self, window: WindowId) -> Vec<(MacAddress, ClientIdentity)> {
        Backend::clients(self, window)
            .map(|(mac, identity)| (*mac, *identity))
            .collect()
    }
    fn app_client_count(&self, window: WindowId, app: Application) -> u64 {
        Backend::app_client_count(self, window, app)
    }
    fn link_keys(&self, window: WindowId, band: Band) -> Vec<LinkKey> {
        Backend::link_keys(self, window, band)
    }
    fn link_series(&self, window: WindowId, key: LinkKey) -> Vec<LinkObservation> {
        Backend::link_series(self, window, key).to_vec()
    }
    fn latest_delivery_ratios(&self, window: WindowId, band: Band) -> Vec<f64> {
        Backend::latest_delivery_ratios(self, window, band)
    }
    fn mean_delivery_ratios(&self, window: WindowId, band: Band) -> Vec<f64> {
        Backend::mean_delivery_ratios(self, window, band)
    }
    fn serving_utilizations(&self, window: WindowId, band: Band) -> Vec<f64> {
        Backend::serving_utilizations(self, window, band)
    }
    fn census_device_count(&self, window: WindowId) -> usize {
        Backend::census_device_count(self, window)
    }
    fn nearby_summary(&self, window: WindowId, band: Band) -> (u64, f64, u64) {
        Backend::nearby_summary(self, window, band)
    }
    fn nearby_per_channel(&self, window: WindowId, band: Band) -> Vec<(u16, u64)> {
        Backend::nearby_per_channel(self, window, band)
    }
    fn crashes(&self, window: WindowId) -> Option<CrashAggregator> {
        Backend::crashes(self, window).cloned()
    }
    fn scan_observations(&self, window: WindowId, band: Band) -> Vec<ScanObservation> {
        Backend::scan_observations(self, window, band)
    }
}

impl FleetQuery for QueryEngine {
    fn usage_by_app(&self, window: WindowId) -> Vec<(Application, UsageTotals, u64)> {
        match self.execute(&QueryPlan::UsageByApp(window)) {
            QueryValue::AppUsage(rows) => rows,
            _ => unreachable!("UsageByApp yields AppUsage"),
        }
    }
    fn usage_by_os(&self, window: WindowId) -> Vec<(OsFamily, UsageTotals, u64)> {
        match self.execute(&QueryPlan::UsageByOs(window)) {
            QueryValue::OsUsage(rows) => rows,
            _ => unreachable!("UsageByOs yields OsUsage"),
        }
    }
    fn client_count(&self, window: WindowId) -> usize {
        match self.execute(&QueryPlan::ClientCount(window)) {
            QueryValue::Count(n) => n as usize,
            _ => unreachable!("ClientCount yields Count"),
        }
    }
    fn clients(&self, window: WindowId) -> Vec<(MacAddress, ClientIdentity)> {
        match self.execute(&QueryPlan::Clients(window)) {
            QueryValue::Clients(rows) => rows,
            _ => unreachable!("Clients yields Clients"),
        }
    }
    fn app_client_count(&self, window: WindowId, app: Application) -> u64 {
        match self.execute(&QueryPlan::AppClientCount(window, app)) {
            QueryValue::Count(n) => n,
            _ => unreachable!("AppClientCount yields Count"),
        }
    }
    fn link_keys(&self, window: WindowId, band: Band) -> Vec<LinkKey> {
        match self.execute(&QueryPlan::LinkKeys(window, band)) {
            QueryValue::LinkKeys(keys) => keys,
            _ => unreachable!("LinkKeys yields LinkKeys"),
        }
    }
    fn link_series(&self, window: WindowId, key: LinkKey) -> Vec<LinkObservation> {
        match self.execute(&QueryPlan::LinkSeries(window, key)) {
            QueryValue::Series(obs) => obs,
            _ => unreachable!("LinkSeries yields Series"),
        }
    }
    fn latest_delivery_ratios(&self, window: WindowId, band: Band) -> Vec<f64> {
        match self.execute(&QueryPlan::LatestDeliveryRatios(window, band)) {
            QueryValue::Ratios(r) => r,
            _ => unreachable!("LatestDeliveryRatios yields Ratios"),
        }
    }
    fn mean_delivery_ratios(&self, window: WindowId, band: Band) -> Vec<f64> {
        match self.execute(&QueryPlan::MeanDeliveryRatios(window, band)) {
            QueryValue::Ratios(r) => r,
            _ => unreachable!("MeanDeliveryRatios yields Ratios"),
        }
    }
    fn serving_utilizations(&self, window: WindowId, band: Band) -> Vec<f64> {
        match self.execute(&QueryPlan::ServingUtilizations(window, band)) {
            QueryValue::Ratios(r) => r,
            _ => unreachable!("ServingUtilizations yields Ratios"),
        }
    }
    fn census_device_count(&self, window: WindowId) -> usize {
        match self.execute(&QueryPlan::CensusDeviceCount(window)) {
            QueryValue::Count(n) => n as usize,
            _ => unreachable!("CensusDeviceCount yields Count"),
        }
    }
    fn nearby_summary(&self, window: WindowId, band: Band) -> (u64, f64, u64) {
        match self.execute(&QueryPlan::NearbySummary(window, band)) {
            QueryValue::NearbySummary {
                total,
                mean_per_ap,
                hotspots,
            } => (total, mean_per_ap, hotspots),
            _ => unreachable!("NearbySummary yields NearbySummary"),
        }
    }
    fn nearby_per_channel(&self, window: WindowId, band: Band) -> Vec<(u16, u64)> {
        match self.execute(&QueryPlan::NearbyPerChannel(window, band)) {
            QueryValue::PerChannel(rows) => rows,
            _ => unreachable!("NearbyPerChannel yields PerChannel"),
        }
    }
    fn crashes(&self, window: WindowId) -> Option<CrashAggregator> {
        match self.execute(&QueryPlan::Crashes(window)) {
            QueryValue::Crashes(crashes) => crashes,
            _ => unreachable!("Crashes yields Crashes"),
        }
    }
    fn scan_observations(&self, window: WindowId, band: Band) -> Vec<ScanObservation> {
        match self.execute(&QueryPlan::ScanObservations(window, band)) {
            QueryValue::Scans(obs) => obs,
            _ => unreachable!("ScanObservations yields Scans"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ShardedStore, StoreConfig};
    use airstat_classify::mac::Oui;
    use airstat_telemetry::report::{LinkRecord, Report, ReportPayload, UsageRecord};

    const W: WindowId = WindowId(1501);

    fn usage_report(device: u64, seq: u64, mac_id: u64, up: u64) -> Report {
        Report {
            device,
            seq,
            timestamp_s: 0,
            payload: ReportPayload::Usage(vec![UsageRecord {
                mac: MacAddress::from_id(Oui([0, 80, 194]), mac_id),
                app: Application::Netflix,
                up_bytes: up,
                down_bytes: 2 * up,
            }]),
        }
    }

    fn loaded_engine(shards: usize, threads: usize) -> QueryEngine {
        let mut store = ShardedStore::with_config(StoreConfig { shards, threads: 1 });
        let reports: Vec<Report> = (0..40).map(|d| usage_report(d, 0, d % 11, d + 1)).collect();
        store.ingest_batch(W, &reports);
        QueryEngine::new(store.seal(), threads)
    }

    #[test]
    fn results_are_shard_and_thread_invariant() {
        let baseline = loaded_engine(1, 1).usage_by_app(W);
        for (shards, threads) in [(4, 1), (4, 3), (7, 2)] {
            assert_eq!(
                loaded_engine(shards, threads).usage_by_app(W),
                baseline,
                "shards={shards} threads={threads}"
            );
        }
    }

    #[test]
    fn cache_hits_and_lru_evictions_are_counted() {
        let engine = loaded_engine(3, 1);
        let first = engine.execute(&QueryPlan::UsageByApp(W));
        let second = engine.execute(&QueryPlan::UsageByApp(W));
        assert_eq!(first, second);
        let stats = engine.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!(stats.cached_results >= 1);
    }

    /// A cache whose budget is `budget_bytes` instead of the constant.
    fn cache_with_budget(budget_bytes: usize) -> ResultCache {
        ResultCache {
            budget_bytes,
            ..ResultCache::default()
        }
    }

    fn ratios(n: usize) -> QueryValue {
        QueryValue::Ratios(vec![0.5; n])
    }

    #[test]
    fn oldest_stamps_are_evicted_until_the_budget_fits() {
        let unit = ratios(100).cached_bytes();
        let mut cache = cache_with_budget(2 * unit);
        cache.insert(0, QueryPlan::ClientCount(W), ratios(100));
        cache.insert(0, QueryPlan::CensusDeviceCount(W), ratios(100));
        // Re-inserting a key replaces its charge instead of adding one.
        cache.insert(0, QueryPlan::CensusDeviceCount(W), ratios(100));
        assert_eq!((cache.len(), cache.used_bytes), (2, 2 * unit));
        // Touch the first entry so the second holds the oldest stamp.
        assert!(cache.get(0, &QueryPlan::ClientCount(W)).is_some());
        cache.insert(0, QueryPlan::UsageByApp(W), ratios(100));
        assert!(cache.get(0, &QueryPlan::ClientCount(W)).is_some());
        assert!(cache.get(0, &QueryPlan::CensusDeviceCount(W)).is_none());
        assert_eq!(cache.counters().2, 1, "one eviction");
        // A value that needs the room of both survivors evicts both.
        cache.insert(0, QueryPlan::UsageByOs(W), ratios(200));
        assert!(cache.get(0, &QueryPlan::UsageByOs(W)).is_some());
        assert_eq!((cache.len(), cache.counters().2), (1, 3));
        assert_eq!(cache.used_bytes, ratios(200).cached_bytes());
    }

    #[test]
    fn over_budget_value_is_returned_but_not_retained() {
        let mut cache = cache_with_budget(ratios(100).cached_bytes());
        cache.insert(0, QueryPlan::ClientCount(W), ratios(100));
        cache.insert(0, QueryPlan::UsageByApp(W), ratios(101));
        assert!(cache.get(0, &QueryPlan::UsageByApp(W)).is_none());
        assert!(cache.get(0, &QueryPlan::ClientCount(W)).is_some());
        assert_eq!((cache.len(), cache.counters().2), (1, 0), "nothing evicted");

        // Through the engine: the caller still gets its answer, twice.
        let mut engine = loaded_engine(3, 1);
        engine.cache = Mutex::new(cache_with_budget(1));
        let first = engine.execute(&QueryPlan::UsageByApp(W));
        assert_eq!(first, engine.execute(&QueryPlan::UsageByApp(W)));
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses, stats.cached_results), (0, 2, 0));
    }

    #[test]
    fn epoch_keys_isolate_stale_results() {
        let mut cache = ResultCache::default();
        cache.insert(1, QueryPlan::ClientCount(W), QueryValue::Count(10));
        assert!(cache.get(2, &QueryPlan::ClientCount(W)).is_none());
        assert!(cache.get(1, &QueryPlan::ClientCount(W)).is_some());
    }

    /// One link report from `device`, hearing `peer` on 5 GHz.
    fn link_report(device: u64, peer: u64) -> Report {
        Report {
            device,
            seq: 0,
            timestamp_s: 60,
            payload: ReportPayload::Links(vec![LinkRecord {
                peer_device: peer,
                band: Band::Ghz5,
                probes_expected: 10,
                probes_received: 7,
            }]),
        }
    }

    #[test]
    fn a_link_series_reads_only_the_shard_its_receiver_routes_to() {
        // Forty receivers spread over all eight shards, so every shard's
        // link keys span rx_device 20: only routing can skip a shard.
        let mut store = ShardedStore::with_config(StoreConfig {
            shards: 8,
            threads: 1,
        });
        let reports: Vec<Report> = (0..40).map(|d| link_report(d, d + 100)).collect();
        store.ingest_batch(W, &reports);
        // One receiver in a second window, so seven shards lack it.
        const W2: WindowId = WindowId(1407);
        store.ingest_batch(W2, &[link_report(0, 100)]);
        let engine = QueryEngine::new(store.seal(), 2);
        let legacy = QueryEngine::with_backend(engine.snapshot.clone(), 2, QueryBackend::Legacy);
        let scans = |engine: &QueryEngine| {
            let stats = engine.stats();
            (stats.shards_scanned, stats.shards_pruned)
        };

        let key = LinkKey {
            rx_device: 20,
            tx_device: 120,
            band: Band::Ghz5,
        };
        let series = engine.link_series(W, key);
        assert_eq!(series.len(), 1);
        assert_eq!(series, legacy.link_series(W, key));
        assert_eq!(scans(&engine), (1, 7), "one cold plan reads one shard");

        // A receiver whose owning shard holds no segment for W2: nothing
        // is read and the series is empty.
        let stranger = (1..)
            .find(|&d| shard_index(W2, d, 8) != shard_index(W2, 0, 8))
            .expect("eight shards leave room for another owner");
        let key = LinkKey {
            rx_device: stranger,
            ..key
        };
        assert!(engine.link_series(W2, key).is_empty());
        assert!(legacy.link_series(W2, key).is_empty());
        assert_eq!(scans(&engine), (1, 15));
    }

    #[test]
    fn engine_matches_legacy_backend_on_identical_streams() {
        let reports: Vec<Report> = (0..60)
            .map(|i| usage_report(i % 13, i / 13, i % 7, i + 1))
            .collect();
        let mut backend = Backend::new();
        let mut store = ShardedStore::with_config(StoreConfig {
            shards: 5,
            threads: 1,
        });
        let backend_dropped = reports.iter().filter(|r| !backend.ingest(W, r)).count() as u64;
        store.ingest_batch(W, &reports);
        let engine = QueryEngine::new(store.seal(), 2);
        assert_eq!(
            FleetQuery::usage_by_app(&backend, W),
            engine.usage_by_app(W)
        );
        assert_eq!(FleetQuery::usage_by_os(&backend, W), engine.usage_by_os(W));
        assert_eq!(store.duplicates_dropped(), backend_dropped);
    }
}
