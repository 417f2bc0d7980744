//! Columnar (struct-of-arrays) projection of sealed shards.
//!
//! The map-backed [`crate::shard::WindowTables`] are the *write*
//! layout: `BTreeMap`s absorb out-of-order ingest with canonical
//! iteration. They are a poor *read* layout — a cold query walks
//! pointer-chased tree nodes and the legacy engine additionally cloned
//! whole tables per shard before merging. [`ColumnarShard`] is the read
//! layout built once per sealed epoch: every per-window table is packed
//! into sorted key columns plus struct-of-arrays value columns, so a
//! scan kernel touches contiguous memory and a cross-shard merge is a
//! k-way walk over pre-sorted runs instead of map clones.
//!
//! The layout is lossless — `ColumnarWindow::unpack` rebuilds the
//! tables it was packed from — so it is also what a segment file is
//! encoded from and decodes to: a persist writes each shard's stack
//! folded by `ColumnarShard::fold`, and an opened store reads its
//! files as sealed segments and unpacks row tables only for a shard
//! that needs rows.
//!
//! Layout contract (what makes the kernels over this layout
//! byte-identical to the map-backed fold):
//!
//! * key columns are sorted ascending — they are produced by iterating
//!   the shard's `BTreeMap`s, so the per-shard run order *is* the
//!   canonical merge order the legacy engine flattens into;
//! * variadic tables (link series, census rows, scans, crashes) use a
//!   CSR encoding: one offsets column of `len + 1` positions into flat
//!   value columns, preserving the per-key order the maps held
//!   (arrival order for link series, `(seq, slot)` order for scans and
//!   crashes);
//! * `kway_groups` lists equal keys' members in ascending shard
//!   order — exactly the order in which the legacy engine folds
//!   per-shard partials into its merge `BTreeMap` — so saturating sums
//!   and last-writer conflict rules see operands in the same sequence.
//!
//! A window holds its columns and nothing else: no per-segment summary
//! decides which shards a plan reads. That follows from the store's
//! `(window, device)` routing (see [`crate::query`]).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use airstat_classify::apps::Application;
use airstat_classify::device::OsFamily;
use airstat_classify::mac::MacAddress;
use airstat_rf::airtime::AirtimeLedger;
use airstat_rf::band::{Band, Channel};
use airstat_rf::phy::Capabilities;
use airstat_telemetry::backend::{
    ClientIdentity, LinkKey, LinkObservation, ScanObservation, UsageTotals, WindowId,
};
use airstat_telemetry::crash::CrashReport;

use crate::shard::{CensusRows, ClientMeta, DirtyShard, DirtyWindow, StoreShard, WindowTables};

/// Dense accumulator lanes for [`Application`] (indexed by
/// discriminant).
pub(crate) const APP_LANES: usize = Application::ALL.len();

// One `u64` bitmask holds a bit per lane
// ([`ColumnarWindow::app_masks_by_mac`]).
const _: () = assert!(APP_LANES <= 64);

/// Dense accumulator lanes for [`OsFamily`] (indexed by discriminant).
pub(crate) const OS_LANES: usize = OsFamily::ALL.len();

/// A MAC packed into a `u64`, its six bytes big-endian, so it orders
/// like `MacAddress: Ord` (lexicographic bytes) and compares in one
/// instruction. The decoders' key-order checks and every MAC-keyed
/// [`kway_groups`] walk compare these; no column changes type.
#[inline(always)]
pub(crate) fn mac_key(mac: MacAddress) -> u64 {
    let [a, b, c, d, e, f] = mac.0;
    u64::from_be_bytes([0, 0, a, b, c, d, e, f])
}

/// A usage cell's `(MacAddress, Application)` key packed as
/// `mac_key << 8 | app`, which orders like the tuple: the MAC takes
/// the high 48 bits and every discriminant fits the low 8.
#[inline(always)]
pub(crate) fn usage_key(mac: MacAddress, app: Application) -> u64 {
    mac_key(mac) << 8 | app as u64
}

// Every discriminant fits the low byte of a [`usage_key`].
const _: () = {
    let mut i = 0;
    while i < Application::ALL.len() {
        assert!((Application::ALL[i] as u64) <= u8::MAX as u64);
        i += 1;
    }
};

/// One shard's columnar projection: a packed, read-optimized copy of
/// every window the shard holds, built by `ColumnarShard::build` at
/// seal time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnarShard {
    pub(crate) windows: BTreeMap<WindowId, ColumnarWindow>,
}

impl ColumnarShard {
    /// Projects `shard`'s window tables into columnar form.
    pub(crate) fn build(shard: &StoreShard) -> Self {
        ColumnarShard {
            windows: shard
                .windows()
                .map(|(window, tables)| (window, ColumnarWindow::build(tables)))
                .collect(),
        }
    }

    /// The columnar tables for `window`, if the shard holds any.
    pub(crate) fn window(&self, window: WindowId) -> Option<&ColumnarWindow> {
        self.windows.get(&window)
    }

    /// Projects only the rows named by `dirty` — the **delta segment**
    /// an incremental seal cuts. Each projected row carries the key's
    /// *current* value from the live tables, so within a shard's
    /// segment stack the newest segment holding a key always holds the
    /// value a monolithic rebuild would have produced — the invariant
    /// every newest-wins fold below relies on.
    pub(crate) fn build_delta(shard: &StoreShard, dirty: &DirtyShard) -> Self {
        ColumnarShard {
            windows: dirty
                .windows
                .iter()
                .filter(|(_, dw)| !dw.is_empty())
                .filter_map(|(&window, dw)| {
                    shard
                        .window(window)
                        .map(|tables| (window, ColumnarWindow::build_delta(tables, dw)))
                })
                .collect(),
        }
    }

    /// Compaction: folds two adjacent segments of one shard's stack into
    /// the single segment that replaces them — a linear newest-wins
    /// [`merge_segments`] per window both hold, a plain copy of a window
    /// only one holds. Every column is cut at exact capacity: the result
    /// lives as long as the stack does.
    ///
    /// Windows that end up with no rows are dropped (a full projection
    /// keeps the empty tables of a window that only ever took empty
    /// payloads; nothing queries them, and a compacted segment never
    /// carried them).
    pub(crate) fn merge(older: &ColumnarShard, newer: &ColumnarShard) -> Self {
        let mut windows: BTreeMap<WindowId, ColumnarWindow> = newer
            .windows
            .iter()
            .filter(|(window, _)| !older.windows.contains_key(window))
            .map(|(&window, new)| (window, new.clone()))
            .collect();
        for (&window, old) in &older.windows {
            let merged = match newer.windows.get(&window) {
                Some(new) => ColumnarWindow::merged(&[old, new]),
                None => old.clone(),
            };
            windows.insert(window, merged);
        }
        windows.retain(|_, w| w.row_count() > 0);
        ColumnarShard { windows }
    }

    /// One shard's segment stack (oldest to newest) folded newest-wins,
    /// window by window: the rows a full projection of the shard's
    /// tables holds, in the same layout. A window only one segment holds
    /// is borrowed, so a stack of one segment folds without a copy.
    /// Unlike a full projection it holds no window without rows that a
    /// compaction [`ColumnarShard::merge`] or a seal delta left out.
    pub(crate) fn fold(
        stack: &[Arc<ColumnarShard>],
    ) -> BTreeMap<WindowId, Cow<'_, ColumnarWindow>> {
        let mut by_window: BTreeMap<WindowId, Vec<&ColumnarWindow>> = BTreeMap::new();
        for segment in stack {
            for (&window, columns) in &segment.windows {
                by_window.entry(window).or_default().push(columns);
            }
        }
        by_window
            .into_iter()
            .map(|(window, held)| {
                let folded = match held[..] {
                    [only] => Cow::Borrowed(only),
                    _ => Cow::Owned(merge_segments(&held, FAM_ALL)),
                };
                (window, folded)
            })
            .collect()
    }

    /// The row tables these columns were packed from, window by window —
    /// the inverse of [`ColumnarShard::build`].
    pub(crate) fn unpack(&self) -> BTreeMap<WindowId, WindowTables> {
        self.windows
            .iter()
            .map(|(&window, columns)| (window, columns.unpack()))
            .collect()
    }

    /// Total keyed rows across all windows and tables — the size the
    /// deterministic compaction policy compares segments by.
    pub(crate) fn row_count(&self) -> u64 {
        self.windows.values().map(|w| w.row_count() as u64).sum()
    }
}

/// The struct-of-arrays tables for one `(shard, window)` pair.
///
/// Every `*_mac` / `*_key` / `*_device` column is sorted ascending;
/// parallel value columns share its indices. CSR tables pair a
/// `*_offsets` column (`len + 1` entries, starting at 0) with flat
/// per-observation columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnarWindow {
    // usage: one row per (client MAC, application) cell.
    pub(crate) usage_mac: Vec<MacAddress>,
    pub(crate) usage_app: Vec<Application>,
    pub(crate) usage_up: Vec<u64>,
    pub(crate) usage_down: Vec<u64>,
    // clients: one row per MAC, identity split into SoA columns with the
    // winning write's provenance (needed for cross-shard conflicts).
    pub(crate) client_mac: Vec<MacAddress>,
    pub(crate) client_meta: Vec<ClientMeta>,
    pub(crate) client_os: Vec<OsFamily>,
    pub(crate) client_caps: Vec<Capabilities>,
    pub(crate) client_band: Vec<Band>,
    pub(crate) client_rssi: Vec<f64>,
    // links: CSR — observation series per link key, arrival order.
    pub(crate) link_keys: Vec<LinkKey>,
    pub(crate) link_offsets: Vec<usize>,
    pub(crate) link_ts: Vec<u64>,
    pub(crate) link_ratio: Vec<f64>,
    // airtime: one row per (device, band) serving radio.
    pub(crate) airtime_key: Vec<(u64, Band)>,
    pub(crate) airtime_elapsed: Vec<u64>,
    pub(crate) airtime_busy: Vec<u64>,
    pub(crate) airtime_wifi: Vec<u64>,
    // census: CSR — latest neighbour rows, grouped by device, with the
    // provenance of the census that won. The scan kernels only need
    // whole-window sums, but the newest-wins segment merge must replace
    // a device's census wholesale, so offsets are kept alongside the
    // flat row columns.
    pub(crate) census_device: Vec<u64>,
    pub(crate) census_meta: Vec<ClientMeta>,
    pub(crate) census_offsets: Vec<usize>,
    pub(crate) census_band: Vec<Band>,
    pub(crate) census_channel: Vec<u16>,
    pub(crate) census_networks: Vec<u32>,
    pub(crate) census_hotspots: Vec<u32>,
    // scans: CSR — channel-scan observations per device, (seq, slot)
    // order.
    pub(crate) scan_device: Vec<u64>,
    pub(crate) scan_offsets: Vec<usize>,
    pub(crate) scan_key: Vec<(u64, u32)>,
    pub(crate) scan_ts: Vec<u64>,
    pub(crate) scan_channel: Vec<Channel>,
    pub(crate) scan_util_ppm: Vec<u32>,
    pub(crate) scan_decodable_ppm: Vec<u32>,
    pub(crate) scan_networks: Vec<u32>,
    // crashes: CSR — crash reports per device, (seq, slot) order. The
    // rows stay whole (they carry a firmware string); only the key
    // columns are packed.
    pub(crate) crash_device: Vec<u64>,
    pub(crate) crash_offsets: Vec<usize>,
    pub(crate) crash_key: Vec<(u64, u32)>,
    pub(crate) crash_rows: Vec<CrashReport>,
}

/// The most rows `rows` can yield: exact for a walk over a whole table,
/// the dirty-set size for a delta walk (where every dirty key resolves,
/// so it is exact there too).
fn row_bound(rows: &impl Iterator) -> usize {
    rows.size_hint().1.unwrap_or(0)
}

impl ColumnarWindow {
    /// A window with no rows, shaped as [`ColumnarWindow::pack`] leaves
    /// empty tables: every CSR offsets column holds its leading 0.
    pub(crate) fn empty() -> Self {
        ColumnarWindow {
            link_offsets: vec![0],
            census_offsets: vec![0],
            scan_offsets: vec![0],
            crash_offsets: vec![0],
            ..ColumnarWindow::default()
        }
    }

    /// The full projection of one window's tables.
    fn build(t: &WindowTables) -> Self {
        Self::pack(
            t.usage.iter(),
            t.clients.iter(),
            t.links.iter(),
            t.airtime.iter(),
            t.neighbors.iter(),
            t.scans.iter(),
            t.crashes.iter(),
        )
    }

    /// The projection of only the rows `dirty` names, read straight out
    /// of the live tables: dirty sets iterate in key order, so the rows
    /// arrive sorted exactly as a whole-table walk would deliver them.
    fn build_delta(t: &WindowTables, dirty: &DirtyWindow) -> Self {
        Self::pack(
            dirty.usage.iter().filter_map(|k| t.usage.get_key_value(k)),
            dirty
                .clients
                .iter()
                .filter_map(|k| t.clients.get_key_value(k)),
            dirty.links.iter().filter_map(|k| t.links.get_key_value(k)),
            dirty
                .airtime
                .iter()
                .filter_map(|k| t.airtime.get_key_value(k)),
            dirty
                .neighbors
                .iter()
                .filter_map(|k| t.neighbors.get_key_value(k)),
            dirty.scans.iter().filter_map(|k| t.scans.get_key_value(k)),
            dirty
                .crashes
                .iter()
                .filter_map(|k| t.crashes.get_key_value(k)),
        )
    }

    /// The one column packer: seven row streams in ascending key order,
    /// one per table family, in [`WindowTables`] field order. Keyed
    /// columns are presized from the stream bounds and the CSR value
    /// columns trimmed afterwards, so a segment holds no slack capacity.
    fn pack<'a>(
        usage: impl Iterator<Item = (&'a (MacAddress, Application), &'a UsageTotals)>,
        clients: impl Iterator<Item = (&'a MacAddress, &'a (ClientMeta, ClientIdentity))>,
        links: impl Iterator<Item = (&'a LinkKey, &'a Vec<LinkObservation>)>,
        airtime: impl Iterator<Item = (&'a (u64, Band), &'a AirtimeLedger)>,
        neighbors: impl Iterator<Item = (&'a u64, &'a (ClientMeta, CensusRows))>,
        scans: impl Iterator<Item = (&'a u64, &'a BTreeMap<(u64, u32), ScanObservation>)>,
        crashes: impl Iterator<Item = (&'a u64, &'a BTreeMap<(u64, u32), CrashReport>)>,
    ) -> Self {
        let mut w = ColumnarWindow::default();

        let rows = row_bound(&usage);
        w.usage_mac.reserve_exact(rows);
        w.usage_app.reserve_exact(rows);
        w.usage_up.reserve_exact(rows);
        w.usage_down.reserve_exact(rows);
        for (&(mac, app), totals) in usage {
            w.usage_mac.push(mac);
            w.usage_app.push(app);
            w.usage_up.push(totals.up_bytes);
            w.usage_down.push(totals.down_bytes);
        }

        let rows = row_bound(&clients);
        w.client_mac.reserve_exact(rows);
        w.client_meta.reserve_exact(rows);
        w.client_os.reserve_exact(rows);
        w.client_caps.reserve_exact(rows);
        w.client_band.reserve_exact(rows);
        w.client_rssi.reserve_exact(rows);
        for (&mac, &(meta, identity)) in clients {
            w.client_mac.push(mac);
            w.client_meta.push(meta);
            w.client_os.push(identity.os);
            w.client_caps.push(identity.caps);
            w.client_band.push(identity.band);
            w.client_rssi.push(identity.rssi_dbm);
        }

        let rows = row_bound(&links);
        w.link_keys.reserve_exact(rows);
        w.link_offsets.reserve_exact(rows + 1);
        w.link_offsets.push(0);
        for (&key, series) in links {
            w.link_keys.push(key);
            for obs in series {
                w.link_ts.push(obs.timestamp_s);
                w.link_ratio.push(obs.ratio);
            }
            w.link_offsets.push(w.link_ts.len());
        }

        let rows = row_bound(&airtime);
        w.airtime_key.reserve_exact(rows);
        w.airtime_elapsed.reserve_exact(rows);
        w.airtime_busy.reserve_exact(rows);
        w.airtime_wifi.reserve_exact(rows);
        for (&key, ledger) in airtime {
            w.airtime_key.push(key);
            w.airtime_elapsed.push(ledger.elapsed_us());
            w.airtime_busy.push(ledger.busy_us());
            w.airtime_wifi.push(ledger.wifi_us());
        }

        let rows = row_bound(&neighbors);
        w.census_device.reserve_exact(rows);
        w.census_meta.reserve_exact(rows);
        w.census_offsets.reserve_exact(rows + 1);
        w.census_offsets.push(0);
        for (&device, &(meta, ref census)) in neighbors {
            w.census_device.push(device);
            w.census_meta.push(meta);
            for &(band, number, networks, hotspots) in census {
                w.census_band.push(band);
                w.census_channel.push(number);
                w.census_networks.push(networks);
                w.census_hotspots.push(hotspots);
            }
            w.census_offsets.push(w.census_band.len());
        }

        let rows = row_bound(&scans);
        w.scan_device.reserve_exact(rows);
        w.scan_offsets.reserve_exact(rows + 1);
        w.scan_offsets.push(0);
        for (&device, obs) in scans {
            w.scan_device.push(device);
            for (&key, o) in obs {
                w.scan_key.push(key);
                w.scan_ts.push(o.timestamp_s);
                w.scan_channel.push(o.record.channel);
                w.scan_util_ppm.push(o.record.utilization_ppm);
                w.scan_decodable_ppm.push(o.record.decodable_ppm);
                w.scan_networks.push(o.record.networks);
            }
            w.scan_offsets.push(w.scan_ts.len());
        }

        let rows = row_bound(&crashes);
        w.crash_device.reserve_exact(rows);
        w.crash_offsets.reserve_exact(rows + 1);
        w.crash_offsets.push(0);
        for (&device, reports) in crashes {
            w.crash_device.push(device);
            w.crash_key.extend(reports.keys());
            w.crash_rows.extend(reports.values().cloned());
            w.crash_offsets.push(w.crash_rows.len());
        }

        w.shrink_csr_values();
        w
    }

    /// The inverse of [`ColumnarWindow::pack`]: the seven tables these
    /// columns hold, each bulk-built from its ascending key column.
    fn unpack(&self) -> WindowTables {
        let usage = (0..self.usage_mac.len()).map(|i| {
            let totals = UsageTotals {
                up_bytes: self.usage_up[i],
                down_bytes: self.usage_down[i],
            };
            ((self.usage_mac[i], self.usage_app[i]), totals)
        });
        let clients = (0..self.client_mac.len()).map(|i| {
            let identity = ClientIdentity {
                os: self.client_os[i],
                caps: self.client_caps[i],
                band: self.client_band[i],
                rssi_dbm: self.client_rssi[i],
            };
            (self.client_mac[i], (self.client_meta[i], identity))
        });
        let links = (0..self.link_keys.len()).map(|i| {
            let (ts, ratio) = self.link_series_at(i);
            let series = (0..ts.len())
                .map(|j| Self::link_observation(ts, ratio, j))
                .collect();
            (self.link_keys[i], series)
        });
        let airtime = (0..self.airtime_key.len()).map(|i| {
            // Packed ledgers hold `wifi ≤ busy ≤ elapsed`, so one
            // `account` restores each exactly.
            let mut ledger = AirtimeLedger::default();
            ledger.account(
                self.airtime_elapsed[i],
                self.airtime_busy[i],
                self.airtime_wifi[i],
            );
            (self.airtime_key[i], ledger)
        });
        let neighbors = (0..self.census_device.len()).map(|i| {
            let rows = self
                .census_rows_at(i)
                .map(|j| {
                    (
                        self.census_band[j],
                        self.census_channel[j],
                        self.census_networks[j],
                        self.census_hotspots[j],
                    )
                })
                .collect();
            (self.census_device[i], (self.census_meta[i], rows))
        });
        let scans = (0..self.scan_device.len()).map(|i| {
            let rows = self.scan_rows_at(i);
            let obs = rows.map(|j| (self.scan_key[j], self.scan_observation(j)));
            (self.scan_device[i], obs.collect())
        });
        let crashes = (0..self.crash_device.len()).map(|i| {
            let rows = self.crash_offsets[i]..self.crash_offsets[i + 1];
            let reports = rows.map(|j| (self.crash_key[j], self.crash_rows[j].clone()));
            (self.crash_device[i], reports.collect())
        });
        WindowTables {
            usage: usage.collect(),
            clients: clients.collect(),
            links: links.collect(),
            airtime: airtime.collect(),
            neighbors: neighbors.collect(),
            scans: scans.collect(),
            crashes: crashes.collect(),
        }
    }

    /// Keyed rows across all seven tables.
    pub(crate) fn row_count(&self) -> usize {
        self.usage_mac.len()
            + self.client_mac.len()
            + self.link_keys.len()
            + self.airtime_key.len()
            + self.census_device.len()
            + self.scan_device.len()
            + self.crash_device.len()
    }

    /// An empty window whose columns can take every row of `segs`
    /// without regrowing — an upper bound on their merge, tight when they
    /// hold disjoint keys.
    fn with_room_for(segs: &[&ColumnarWindow]) -> Self {
        let mut w = ColumnarWindow::default();
        macro_rules! reserve {
            ($($col:ident),*) => {
                $(w.$col.reserve_exact(segs.iter().map(|s| s.$col.len()).sum());)*
            };
        }
        reserve!(usage_mac, usage_app, usage_up, usage_down);
        reserve!(
            client_mac,
            client_meta,
            client_os,
            client_caps,
            client_band,
            client_rssi
        );
        reserve!(link_keys, link_offsets, link_ts, link_ratio);
        reserve!(airtime_key, airtime_elapsed, airtime_busy, airtime_wifi);
        reserve!(census_device, census_meta, census_offsets);
        reserve!(
            census_band,
            census_channel,
            census_networks,
            census_hotspots
        );
        reserve!(scan_device, scan_offsets, scan_key, scan_ts, scan_channel);
        reserve!(scan_util_ppm, scan_decodable_ppm, scan_networks);
        reserve!(crash_device, crash_offsets, crash_key, crash_rows);
        w
    }

    /// The newest-wins merge of `segs` (oldest to newest), every table
    /// family, cut at exact capacity.
    fn merged(segs: &[&ColumnarWindow]) -> Self {
        let mut w = merge_segments_into(Self::with_room_for(segs), segs, FAM_ALL);
        w.shrink_to_fit();
        w
    }

    /// Cuts every column at exact capacity. Segments are long-lived, so
    /// the slack an upper-bound reserve leaves behind would stay resident
    /// for as long as the stack holds the segment.
    fn shrink_to_fit(&mut self) {
        self.usage_mac.shrink_to_fit();
        self.usage_app.shrink_to_fit();
        self.usage_up.shrink_to_fit();
        self.usage_down.shrink_to_fit();
        self.client_mac.shrink_to_fit();
        self.client_meta.shrink_to_fit();
        self.client_os.shrink_to_fit();
        self.client_caps.shrink_to_fit();
        self.client_band.shrink_to_fit();
        self.client_rssi.shrink_to_fit();
        self.link_keys.shrink_to_fit();
        self.link_offsets.shrink_to_fit();
        self.airtime_key.shrink_to_fit();
        self.airtime_elapsed.shrink_to_fit();
        self.airtime_busy.shrink_to_fit();
        self.airtime_wifi.shrink_to_fit();
        self.census_device.shrink_to_fit();
        self.census_meta.shrink_to_fit();
        self.census_offsets.shrink_to_fit();
        self.scan_device.shrink_to_fit();
        self.scan_offsets.shrink_to_fit();
        self.crash_device.shrink_to_fit();
        self.crash_offsets.shrink_to_fit();
        self.shrink_csr_values();
    }

    /// Trims the CSR value columns — the ones whose length no key count
    /// bounds, so [`ColumnarWindow::pack`] grows them by `push`.
    fn shrink_csr_values(&mut self) {
        self.link_ts.shrink_to_fit();
        self.link_ratio.shrink_to_fit();
        self.census_band.shrink_to_fit();
        self.census_channel.shrink_to_fit();
        self.census_networks.shrink_to_fit();
        self.census_hotspots.shrink_to_fit();
        self.scan_key.shrink_to_fit();
        self.scan_ts.shrink_to_fit();
        self.scan_channel.shrink_to_fit();
        self.scan_util_ppm.shrink_to_fit();
        self.scan_decodable_ppm.shrink_to_fit();
        self.scan_networks.shrink_to_fit();
        self.crash_key.shrink_to_fit();
        self.crash_rows.shrink_to_fit();
    }

    /// The observation columns for the `i`-th link key, arrival order.
    pub(crate) fn link_series_at(&self, i: usize) -> (&[u64], &[f64]) {
        let (lo, hi) = (self.link_offsets[i], self.link_offsets[i + 1]);
        (&self.link_ts[lo..hi], &self.link_ratio[lo..hi])
    }

    /// The scan observation range for the `i`-th device.
    pub(crate) fn scan_rows_at(&self, i: usize) -> std::ops::Range<usize> {
        self.scan_offsets[i]..self.scan_offsets[i + 1]
    }

    /// Reconstructs the `j`-th scan observation from its columns.
    pub(crate) fn scan_observation(&self, j: usize) -> ScanObservation {
        ScanObservation {
            timestamp_s: self.scan_ts[j],
            record: airstat_telemetry::report::ChannelScanRecord {
                channel: self.scan_channel[j],
                utilization_ppm: self.scan_util_ppm[j],
                decodable_ppm: self.scan_decodable_ppm[j],
                networks: self.scan_networks[j],
            },
        }
    }

    /// The crash-report rows for the `i`-th device, `(seq, slot)` order.
    pub(crate) fn crash_rows_at(&self, i: usize) -> &[CrashReport] {
        &self.crash_rows[self.crash_offsets[i]..self.crash_offsets[i + 1]]
    }

    /// The census row range for the `i`-th device.
    pub(crate) fn census_rows_at(&self, i: usize) -> std::ops::Range<usize> {
        self.census_offsets[i]..self.census_offsets[i + 1]
    }

    /// Reconstructs one link observation.
    pub(crate) fn link_observation(ts: &[u64], ratio: &[f64], j: usize) -> LinkObservation {
        LinkObservation {
            timestamp_s: ts[j],
            ratio: ratio[j],
        }
    }

    /// Vectorized pass 1 for the usage plans: collapses the sorted
    /// `(mac, app)` cell rows into one `(mac, totals)` row per MAC — a
    /// linear group-by over the contiguous key column.
    ///
    /// Saturating u64 addition is associative and commutative (it
    /// computes `min(Σ, u64::MAX)`), so pre-aggregating a shard's cells
    /// here and merging per-MAC partials across shards later yields the
    /// same bytes as merging at cell level first — the cross-shard
    /// merge just shrinks by the apps-per-MAC factor.
    pub(crate) fn usage_totals_by_mac(&self) -> (Vec<MacAddress>, Vec<UsageTotals>) {
        let mut macs = Vec::new();
        let mut totals: Vec<UsageTotals> = Vec::new();
        for i in 0..self.usage_mac.len() {
            let mac = self.usage_mac[i];
            if macs.last() != Some(&mac) {
                macs.push(mac);
                totals.push(UsageTotals::default());
            }
            let slot = totals
                .last_mut()
                .expect("invariant: pushed alongside macs above");
            slot.up_bytes = slot.up_bytes.saturating_add(self.usage_up[i]);
            slot.down_bytes = slot.down_bytes.saturating_add(self.usage_down[i]);
        }
        (macs, totals)
    }

    /// Pass 1 of the distinct-client count per application: one row per
    /// MAC with a bit set for every application it has a cell for (bit
    /// `app as usize`) — a linear group-by over the contiguous key
    /// column, like [`ColumnarWindow::usage_totals_by_mac`].
    pub(crate) fn app_masks_by_mac(&self) -> (Vec<MacAddress>, Vec<u64>) {
        let mut macs = Vec::new();
        let mut masks: Vec<u64> = Vec::new();
        for i in 0..self.usage_mac.len() {
            let mac = self.usage_mac[i];
            if macs.last() != Some(&mac) {
                macs.push(mac);
                masks.push(0);
            }
            *masks
                .last_mut()
                .expect("invariant: pushed alongside macs above") |= 1 << self.usage_app[i] as u32;
        }
        (macs, masks)
    }

    /// Vectorized per-app rollup: adds this window's usage cells into
    /// dense accumulator `lanes` indexed by `Application` discriminant.
    ///
    /// Byte-identical to the cell-level merge for the same reason as
    /// [`ColumnarWindow::usage_totals_by_mac`]: saturating adds form a
    /// commutative monoid, so per-shard-then-global association matches
    /// global cell-by-cell association bit for bit.
    pub(crate) fn add_usage_by_app(&self, lanes: &mut [UsageTotals; APP_LANES]) {
        for i in 0..self.usage_app.len() {
            let slot = &mut lanes[self.usage_app[i] as usize];
            slot.up_bytes = slot.up_bytes.saturating_add(self.usage_up[i]);
            slot.down_bytes = slot.down_bytes.saturating_add(self.usage_down[i]);
        }
    }
}

/// Pass 1 of the two-pass vectorized kernels: a branch-free selection
/// vector over a flat column.
///
/// The loop always writes the candidate index and advances the length
/// only when the predicate holds (`k += pred as usize`), so there is no
/// data-dependent branch for the CPU to mispredict on selective
/// filters. The result lists the matching indices in ascending order.
pub(crate) fn select_indices(len: usize, pred: impl Fn(usize) -> bool) -> Vec<u32> {
    debug_assert!(len <= u32::MAX as usize, "column fits u32 indices");
    let mut sel = vec![0u32; len];
    let mut k = 0usize;
    for i in 0..len {
        sel[k] = i as u32;
        k += pred(i) as usize;
    }
    sel.truncate(k);
    sel
}

/// Pass 2 of the vectorized kernels: a zero-copy k-way walk over
/// per-run sorted keys, grouped by key.
///
/// `lens[r]` is run `r`'s length and `key_at(r, i)` its `i`-th key
/// (strictly ascending within a run). `on_group` fires once per
/// distinct key across all runs, in ascending key order, with the
/// member `(run, index)` pairs in ascending run order — the same
/// operand order the legacy fold produces, so combine rules
/// (saturating sums, largest-provenance) stay byte-compatible. No
/// `(key, value)` tuple is materialized: callers read values straight
/// out of the source columns via the member indices.
///
/// The walk is a loser (tournament) tree over the runs' cached head
/// keys, ordered by `(key, run)` with an exhausted run above every key.
/// Each row costs one `key_at` and at most ⌈log₂ k⌉ key comparisons to
/// replay its leaf-to-root path, plus one equality test against the
/// open group; building the tree costs k − 1. So N rows over k runs
/// take at most N·(⌈log₂ k⌉ + 2) + 2k comparisons, where the linear
/// scan it replaced took about 2k per group.
pub(crate) fn kway_groups<K: Ord + Copy>(
    lens: &[usize],
    key_at: impl Fn(usize, usize) -> K,
    mut on_group: impl FnMut(K, &[(usize, usize)]),
) {
    let k = lens.len();
    if k == 0 {
        return;
    }
    let mut cursors = vec![0usize; k];
    let mut heads: Vec<Option<K>> = (0..k)
        .map(|r| (lens[r] > 0).then(|| key_at(r, 0)))
        .collect();
    // Run `a`'s head comes before run `b`'s: smaller key first, ties to
    // the lower run, exhausted runs last.
    let before = |heads: &[Option<K>], a: usize, b: usize| match (heads[a], heads[b]) {
        (Some(x), Some(y)) => x.cmp(&y).then(a.cmp(&b)).is_lt(),
        (x, y) => x.is_some() || (y.is_none() && a < b),
    };
    // Implicit tree: leaves are nodes k..2k (run r at k + r), node n's
    // children are 2n and 2n + 1, and `losers[n]` (n in 1..k) is the run
    // that lost the match at n. Built bottom-up from each node's winner;
    // node 1 is the root, or run 0's leaf when k = 1.
    let mut losers = vec![0usize; k];
    let mut winner = {
        let mut winners = vec![0usize; 2 * k];
        for r in 0..k {
            winners[k + r] = r;
        }
        for n in (1..k).rev() {
            let (a, b) = (winners[2 * n], winners[2 * n + 1]);
            (winners[n], losers[n]) = if before(&heads, a, b) { (a, b) } else { (b, a) };
        }
        winners[1]
    };
    let mut members: Vec<(usize, usize)> = Vec::with_capacity(k);
    while let Some(key) = heads[winner] {
        members.clear();
        loop {
            // Take the winner's head into the group, advance its run and
            // replay its path: the new winner is the next `(key, run)`.
            members.push((winner, cursors[winner]));
            cursors[winner] += 1;
            let c = cursors[winner];
            heads[winner] = (c < lens[winner]).then(|| key_at(winner, c));
            let mut n = (winner + k) / 2;
            while n > 0 {
                if before(&heads, losers[n], winner) {
                    std::mem::swap(&mut losers[n], &mut winner);
                }
                n /= 2;
            }
            if heads[winner] != Some(key) {
                break;
            }
        }
        on_group(key, &members);
    }
}

/// Table families of a [`ColumnarWindow`], as a bitmask — the unit the
/// query-time segment merge works in, so resolving a stack for a
/// link-series plan never touches a large usage delta.
pub(crate) const FAM_USAGE: u8 = 1 << 0;
pub(crate) const FAM_CLIENTS: u8 = 1 << 1;
pub(crate) const FAM_LINKS: u8 = 1 << 2;
pub(crate) const FAM_AIRTIME: u8 = 1 << 3;
pub(crate) const FAM_CENSUS: u8 = 1 << 4;
pub(crate) const FAM_SCANS: u8 = 1 << 5;
pub(crate) const FAM_CRASHES: u8 = 1 << 6;
/// Every table family: what compaction merges.
pub(crate) const FAM_ALL: u8 =
    FAM_USAGE | FAM_CLIENTS | FAM_LINKS | FAM_AIRTIME | FAM_CENSUS | FAM_SCANS | FAM_CRASHES;

/// The newest member of a k-way group: segment runs are ordered oldest
/// to newest and [`kway_groups`] lists members in ascending run order,
/// so the last member is the newest segment holding the key.
fn newest(members: &[(usize, usize)]) -> (usize, usize) {
    *members
        .last()
        .expect("invariant: kway_groups never emits an empty group")
}

/// Newest-wins merge of one shard's segment stack for one window:
/// `segs` lists the segments holding the window, **oldest to newest**,
/// and the result is the single [`ColumnarWindow`] a monolithic seal
/// would have produced — restricted to the table `families` requested.
///
/// Correctness leans on the delta-build invariant: a delta row always
/// carries the key's full value at seal time, so taking the newest
/// segment's row for each key reconstructs the live table exactly. Key
/// columns stay sorted because [`kway_groups`] emits groups in
/// ascending key order.
pub(crate) fn merge_segments(segs: &[&ColumnarWindow], families: u8) -> ColumnarWindow {
    merge_segments_into(ColumnarWindow::default(), segs, families)
}

/// [`merge_segments`] into `w`, whose columns must be empty. Compaction
/// hands in a presized window; a query-time merge does not presize — over
/// a deep stack of overlapping deltas the inputs' combined length is
/// several times what the merged view holds.
fn merge_segments_into(
    mut w: ColumnarWindow,
    segs: &[&ColumnarWindow],
    families: u8,
) -> ColumnarWindow {
    if families & FAM_USAGE != 0 {
        let lens: Vec<usize> = segs.iter().map(|s| s.usage_mac.len()).collect();
        kway_groups(
            &lens,
            |r, i| usage_key(segs[r].usage_mac[i], segs[r].usage_app[i]),
            |_, members| {
                let (r, i) = newest(members);
                w.usage_mac.push(segs[r].usage_mac[i]);
                w.usage_app.push(segs[r].usage_app[i]);
                w.usage_up.push(segs[r].usage_up[i]);
                w.usage_down.push(segs[r].usage_down[i]);
            },
        );
    }
    if families & FAM_CLIENTS != 0 {
        let lens: Vec<usize> = segs.iter().map(|s| s.client_mac.len()).collect();
        kway_groups(
            &lens,
            |r, i| mac_key(segs[r].client_mac[i]),
            |_, members| {
                let (r, i) = newest(members);
                w.client_mac.push(segs[r].client_mac[i]);
                w.client_meta.push(segs[r].client_meta[i]);
                w.client_os.push(segs[r].client_os[i]);
                w.client_caps.push(segs[r].client_caps[i]);
                w.client_band.push(segs[r].client_band[i]);
                w.client_rssi.push(segs[r].client_rssi[i]);
            },
        );
    }
    if families & FAM_LINKS != 0 {
        let lens: Vec<usize> = segs.iter().map(|s| s.link_keys.len()).collect();
        w.link_offsets.push(0);
        kway_groups(
            &lens,
            |r, i| segs[r].link_keys[i],
            |key, members| {
                let (r, i) = newest(members);
                let (ts, ratio) = segs[r].link_series_at(i);
                w.link_keys.push(key);
                w.link_ts.extend_from_slice(ts);
                w.link_ratio.extend_from_slice(ratio);
                w.link_offsets.push(w.link_ts.len());
            },
        );
    }
    if families & FAM_AIRTIME != 0 {
        let lens: Vec<usize> = segs.iter().map(|s| s.airtime_key.len()).collect();
        kway_groups(
            &lens,
            |r, i| segs[r].airtime_key[i],
            |key, members| {
                let (r, i) = newest(members);
                w.airtime_key.push(key);
                w.airtime_elapsed.push(segs[r].airtime_elapsed[i]);
                w.airtime_busy.push(segs[r].airtime_busy[i]);
                w.airtime_wifi.push(segs[r].airtime_wifi[i]);
            },
        );
    }
    if families & FAM_CENSUS != 0 {
        let lens: Vec<usize> = segs.iter().map(|s| s.census_device.len()).collect();
        w.census_offsets.push(0);
        kway_groups(
            &lens,
            |r, i| segs[r].census_device[i],
            |device, members| {
                let (r, i) = newest(members);
                let rows = segs[r].census_rows_at(i);
                w.census_device.push(device);
                w.census_meta.push(segs[r].census_meta[i]);
                w.census_band
                    .extend_from_slice(&segs[r].census_band[rows.clone()]);
                w.census_channel
                    .extend_from_slice(&segs[r].census_channel[rows.clone()]);
                w.census_networks
                    .extend_from_slice(&segs[r].census_networks[rows.clone()]);
                w.census_hotspots
                    .extend_from_slice(&segs[r].census_hotspots[rows]);
                w.census_offsets.push(w.census_band.len());
            },
        );
    }
    if families & FAM_SCANS != 0 {
        let lens: Vec<usize> = segs.iter().map(|s| s.scan_device.len()).collect();
        w.scan_offsets.push(0);
        kway_groups(
            &lens,
            |r, i| segs[r].scan_device[i],
            |device, members| {
                let (r, i) = newest(members);
                let rows = segs[r].scan_rows_at(i);
                w.scan_device.push(device);
                w.scan_key
                    .extend_from_slice(&segs[r].scan_key[rows.clone()]);
                w.scan_ts.extend_from_slice(&segs[r].scan_ts[rows.clone()]);
                w.scan_channel
                    .extend_from_slice(&segs[r].scan_channel[rows.clone()]);
                w.scan_util_ppm
                    .extend_from_slice(&segs[r].scan_util_ppm[rows.clone()]);
                w.scan_decodable_ppm
                    .extend_from_slice(&segs[r].scan_decodable_ppm[rows.clone()]);
                w.scan_networks
                    .extend_from_slice(&segs[r].scan_networks[rows]);
                w.scan_offsets.push(w.scan_ts.len());
            },
        );
    }
    if families & FAM_CRASHES != 0 {
        let lens: Vec<usize> = segs.iter().map(|s| s.crash_device.len()).collect();
        w.crash_offsets.push(0);
        kway_groups(
            &lens,
            |r, i| segs[r].crash_device[i],
            |device, members| {
                let (r, i) = newest(members);
                let rows = segs[r].crash_offsets[i]..segs[r].crash_offsets[i + 1];
                w.crash_device.push(device);
                w.crash_key
                    .extend_from_slice(&segs[r].crash_key[rows.clone()]);
                w.crash_rows.extend_from_slice(&segs[r].crash_rows[rows]);
                w.crash_offsets.push(w.crash_rows.len());
            },
        );
    }
    w
}

/// Stack-aware variant of [`ColumnarWindow::usage_totals_by_mac`]: one
/// fused newest-wins + group-by pass over a shard's segment runs
/// (oldest to newest), so the vectorized usage kernels pay one k-way
/// walk instead of materializing a merged window. Output is identical
/// to `merge_segments(segs, FAM_USAGE).usage_totals_by_mac()`.
pub(crate) fn usage_totals_by_mac_stack(
    segs: &[&ColumnarWindow],
) -> (Vec<MacAddress>, Vec<UsageTotals>) {
    let mut macs: Vec<MacAddress> = Vec::new();
    let mut totals: Vec<UsageTotals> = Vec::new();
    let lens: Vec<usize> = segs.iter().map(|s| s.usage_mac.len()).collect();
    let mut last_mac = None;
    kway_groups(
        &lens,
        |r, i| usage_key(segs[r].usage_mac[i], segs[r].usage_app[i]),
        |key, members| {
            let (r, i) = newest(members);
            if last_mac != Some(key >> 8) {
                last_mac = Some(key >> 8);
                macs.push(segs[r].usage_mac[i]);
                totals.push(UsageTotals::default());
            }
            let slot = totals
                .last_mut()
                .expect("invariant: pushed alongside macs above");
            slot.up_bytes = slot.up_bytes.saturating_add(segs[r].usage_up[i]);
            slot.down_bytes = slot.down_bytes.saturating_add(segs[r].usage_down[i]);
        },
    );
    (macs, totals)
}

/// Stack-aware variant of [`ColumnarWindow::add_usage_by_app`]: rolls
/// the newest-wins resolution of a shard's usage cells into dense
/// per-application lanes in one k-way pass.
pub(crate) fn add_usage_by_app_stack(
    segs: &[&ColumnarWindow],
    lanes: &mut [UsageTotals; APP_LANES],
) {
    let lens: Vec<usize> = segs.iter().map(|s| s.usage_mac.len()).collect();
    kway_groups(
        &lens,
        |r, i| usage_key(segs[r].usage_mac[i], segs[r].usage_app[i]),
        |_, members| {
            let (r, i) = newest(members);
            let slot = &mut lanes[segs[r].usage_app[i] as usize];
            slot.up_bytes = slot.up_bytes.saturating_add(segs[r].usage_up[i]);
            slot.down_bytes = slot.down_bytes.saturating_add(segs[r].usage_down[i]);
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_classify::mac::Oui;
    use airstat_telemetry::report::{Report, ReportPayload, UsageRecord};
    use proptest::prelude::*;
    use std::cell::Cell;

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

    #[test]
    fn build_packs_usage_in_key_order() {
        let mut shard = StoreShard::default();
        for (i, report) in (0..12u64)
            .map(|d| usage_report(d, 0, 11 - d, d + 1))
            .enumerate()
        {
            assert!(shard.ingest(W, &report), "report {i}");
        }
        let cols = ColumnarShard::build(&shard);
        let w = cols.window(W).expect("window present");
        assert_eq!(w.usage_mac.len(), 12);
        let mut sorted = w.usage_mac.clone();
        sorted.sort();
        assert_eq!(w.usage_mac, sorted, "key column is sorted");
        // Cells round-trip exactly against the source map.
        let from_map: Vec<_> = shard
            .window(W)
            .unwrap()
            .usage
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect();
        let cells: Vec<_> = (0..w.usage_mac.len())
            .map(|i| {
                let totals = UsageTotals {
                    up_bytes: w.usage_up[i],
                    down_bytes: w.usage_down[i],
                };
                ((w.usage_mac[i], w.usage_app[i]), totals)
            })
            .collect();
        assert_eq!(cells, from_map);
    }

    #[test]
    fn empty_shard_projects_to_no_windows() {
        let cols = ColumnarShard::build(&StoreShard::default());
        assert!(cols.windows.is_empty());
        assert!(cols.window(W).is_none());
    }

    #[test]
    fn select_indices_is_ascending_and_exact() {
        let data = [3u32, 0, 7, 0, 9, 2];
        let sel = select_indices(data.len(), |i| data[i] > 2);
        assert_eq!(sel, vec![0, 2, 4]);
        assert_eq!(select_indices(0, |_| true), Vec::<u32>::new());
        assert_eq!(select_indices(4, |_| false), Vec::<u32>::new());
    }

    #[test]
    fn kway_groups_lists_members_in_run_order() {
        let runs = [
            vec![(1u64, 10u32), (3, 11)],
            vec![(1, 12), (2, 13)],
            vec![(3, 14)],
        ];
        let mut grouped: Vec<(u64, Vec<u32>)> = Vec::new();
        let lens: Vec<usize> = runs.iter().map(Vec::len).collect();
        kway_groups(
            &lens,
            |r, i| runs[r][i].0,
            |key, members| {
                grouped.push((key, members.iter().map(|&(r, i)| runs[r][i].1).collect()));
            },
        );
        assert_eq!(
            grouped,
            vec![(1, vec![10, 12]), (2, vec![13]), (3, vec![11, 14])]
        );
    }

    /// The `(key, members)` sequence [`kway_groups`] must emit: every
    /// distinct key in ascending order, each with its `(run, index)`
    /// members in ascending run order.
    fn kway_model(runs: &[Vec<u8>]) -> Vec<(u8, Vec<(usize, usize)>)> {
        let mut model: BTreeMap<u8, Vec<(usize, usize)>> = BTreeMap::new();
        for (r, run) in runs.iter().enumerate() {
            for (i, &key) in run.iter().enumerate() {
                model.entry(key).or_default().push((r, i));
            }
        }
        model.into_iter().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn kway_groups_matches_an_ordered_map_model(
            // k in 0..=9 (one run, non-powers of two and empty runs
            // included); keys from 0..12 so most keys recur across runs.
            sets in prop::collection::vec(prop::collection::btree_set(0u8..12, 0..9), 0..=9),
        ) {
            let runs: Vec<Vec<u8>> = sets.into_iter().map(|s| s.into_iter().collect()).collect();
            let lens: Vec<usize> = runs.iter().map(Vec::len).collect();
            let mut grouped = Vec::new();
            kway_groups(&lens, |r, i| runs[r][i], |key, members| {
                grouped.push((key, members.to_vec()));
            });
            prop_assert_eq!(grouped, kway_model(&runs));
        }

        /// The packed keys the order checks and MAC-keyed walks compare
        /// order exactly like what they pack: `mac_key` like
        /// `MacAddress: Ord`, and `usage_key` like the `(MacAddress,
        /// Application)` tuple for every pair of applications. `b`
        /// shares its first `shared` bytes with `a`, so near and equal
        /// MACs are drawn as often as far ones.
        #[test]
        fn packed_keys_order_like_the_keys_they_pack(
            a in any::<[u8; 6]>(),
            b in any::<[u8; 6]>(),
            shared in 0usize..=6,
        ) {
            let mut b = b;
            b[..shared].copy_from_slice(&a[..shared]);
            let (a, b) = (MacAddress(a), MacAddress(b));
            prop_assert_eq!(mac_key(a).cmp(&mac_key(b)), a.cmp(&b));
            for &x in Application::ALL {
                for &y in Application::ALL {
                    prop_assert_eq!(usage_key(a, x).cmp(&usage_key(b, y)), (a, x).cmp(&(b, y)));
                }
            }
        }
    }

    /// A key whose every `Ord` / `PartialEq` call bumps a shared counter.
    #[derive(Clone, Copy, Debug)]
    struct Counted<'a> {
        key: u32,
        calls: &'a Cell<u64>,
    }

    impl PartialEq for Counted<'_> {
        fn eq(&self, other: &Self) -> bool {
            self.calls.set(self.calls.get() + 1);
            self.key == other.key
        }
    }

    impl Eq for Counted<'_> {}

    impl PartialOrd for Counted<'_> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Counted<'_> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.calls.set(self.calls.get() + 1);
            self.key.cmp(&other.key)
        }
    }

    #[test]
    fn kway_groups_compares_log_k_times_per_row() {
        // 8 runs over keys 0..4000 shaped like the store's usage cells:
        // each key sits in one pseudo-random run, and one in four also in
        // a second, so most groups have a single member. Comparisons are
        // counted, not timed: the count repeats exactly on any host. The
        // linear two-pass scan this replaced read 59 954 comparisons here
        // (about 2k per group); the loser tree reads 19 534.
        const K: usize = 8;
        let calls = Cell::new(0u64);
        let mut runs: Vec<Vec<u32>> = vec![Vec::new(); K];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 32) as usize
        };
        for key in 0..4000u32 {
            let home = draw() % K;
            let away = if draw() % 4 == 0 { draw() % K } else { home };
            for (r, run) in runs.iter_mut().enumerate() {
                if r == home || r == away {
                    run.push(key);
                }
            }
        }
        let rows: usize = runs.iter().map(Vec::len).sum();
        let lens: Vec<usize> = runs.iter().map(Vec::len).collect();
        let mut groups = 0usize;
        kway_groups(
            &lens,
            |r, i| Counted {
                key: runs[r][i],
                calls: &calls,
            },
            |_, _| groups += 1,
        );
        let log2_k = K.next_power_of_two().trailing_zeros() as usize;
        let budget = (rows * (log2_k + 2) + 2 * K) as u64;
        println!(
            "kway_groups: {} comparisons for {rows} rows in {groups} groups over {K} runs (budget {budget})",
            calls.get()
        );
        assert!(
            calls.get() <= budget,
            "{} comparisons for {rows} rows over {K} runs exceed the budget {budget}",
            calls.get()
        );
    }

    #[test]
    fn kway_groups_handles_empty_inputs() {
        for lens in [&[][..], &[0], &[0, 0, 0]] {
            kway_groups(
                lens,
                |_, _| -> u8 { unreachable!("no run has a key") },
                |_, _| panic!("no group from empty runs"),
            );
        }
    }

    #[test]
    fn usage_totals_by_mac_collapses_cells_per_mac() {
        let mut shard = StoreShard::default();
        // Two cells for mac 1 (apps differ via distinct devices' reports
        // would collide; use distinct apps through raw ingest instead).
        for (seq, app) in [(0, Application::Netflix), (1, Application::Youtube)] {
            let report = Report {
                device: 7,
                seq,
                timestamp_s: 0,
                payload: ReportPayload::Usage(vec![UsageRecord {
                    mac: MacAddress::from_id(Oui([0, 80, 194]), 1),
                    app,
                    up_bytes: 5,
                    down_bytes: 10,
                }]),
            };
            assert!(shard.ingest(W, &report));
        }
        let cols = ColumnarShard::build(&shard);
        let w = cols.window(W).unwrap();
        let (macs, totals) = w.usage_totals_by_mac();
        assert_eq!(macs.len(), 1);
        assert_eq!(totals[0].up_bytes, 10);
        assert_eq!(totals[0].down_bytes, 20);
        let mut lanes = [UsageTotals::default(); APP_LANES];
        w.add_usage_by_app(&mut lanes);
        assert_eq!(lanes[Application::Netflix as usize].up_bytes, 5);
        assert_eq!(lanes[Application::Youtube as usize].up_bytes, 5);
    }
}
