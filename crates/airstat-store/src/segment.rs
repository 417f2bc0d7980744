//! Persistent on-disk segments, the manifest, and the tail log.
//!
//! A [`crate::ShardedStore`] persists as one **segment file per shard**
//! plus a **manifest** naming the live segment set and a **tail log**
//! (write-ahead record log) holding the batches ingested since the last
//! persist. The byte-level layout is specified — and pinned by tests —
//! in `docs/SEGMENT_FORMAT.md`; this module is the implementation.
//!
//! Design points, in the order they matter:
//!
//! * **Segments store the row tables, not the columnar projection.**
//!   `seal()` rebuilds every [`crate::columnar::ColumnarShard`] (and its
//!   zone maps) deterministically from the row tables, so persisting the
//!   rows is sufficient for both query backends to answer
//!   byte-identically after a reload — the differential tests pin this.
//!   The per-`(window, device)` dedup ledger and the accepted/duplicate
//!   counters are persisted too, so tail-log replay and post-reload
//!   ingest dedup exactly as the pre-crash store would have.
//! * **Every block is CRC32-guarded** and the fixed header carries a
//!   zone-map summary that decode re-verifies, so corruption surfaces as
//!   a typed [`SegmentError`], never as a panic or silently wrong bytes.
//! * **Write-then-rename atomicity.** Segment files are epoch-named and
//!   immutable once renamed into place; the manifest rename is the
//!   single commit point of a persist. A crash at any instant leaves
//!   either the old complete store or the new complete store on disk.
//! * **The tail log absorbs torn writes.** Replay stops cleanly at the
//!   first incomplete or CRC-failing record, recovering every batch
//!   that was fully appended before the crash.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::fs;
use std::io::{Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use airstat_classify::apps::Application;
use airstat_classify::device::OsFamily;
use airstat_classify::mac::MacAddress;
use airstat_rf::airtime::AirtimeLedger;
use airstat_rf::band::{Band, Channel};
use airstat_rf::phy::{Capabilities, Generation};
use airstat_telemetry::backend::{
    ClientIdentity, LinkKey, LinkObservation, ScanObservation, UsageTotals, WindowId,
};
use airstat_telemetry::crash::{CrashReport, RebootReason};
use airstat_telemetry::report::{ChannelScanRecord, Report};
use airstat_telemetry::wire::{put_varint, Reader, WireError};

use crate::shard::{ClientMeta, SeqSet, StoreShard, WindowTables};
use crate::store::{ReportSink, Sealable, ShardedStore, StoreConfig};

/// Schema version written into every segment, manifest, and tail-log
/// header. Bump on any byte-level layout change; readers reject other
/// versions with [`SegmentError::Version`]. The value is pinned against
/// `docs/SEGMENT_FORMAT.md` by `schema_version_matches_the_spec`.
///
/// Version 2 made the manifest a **delta-chain list**: instead of one
/// segment per shard it names, per shard, an ordered chain of delta
/// segments (oldest to newest) that `read_store` folds back together.
/// Segment bytes themselves are unchanged from version 1 apart from the
/// header's version field; the `epoch` header field now records the
/// epoch the delta was persisted at rather than always the store epoch.
pub const SEGMENT_SCHEMA_VERSION: u32 = 2;

/// Magic prefix of a segment file.
pub(crate) const SEGMENT_MAGIC: [u8; 4] = *b"ASEG";
/// Magic prefix of the manifest file.
pub(crate) const MANIFEST_MAGIC: [u8; 4] = *b"AMAN";
/// Magic prefix of the tail log.
pub(crate) const WAL_MAGIC: [u8; 4] = *b"AWAL";

/// Fixed segment header length in bytes (see docs/SEGMENT_FORMAT.md §2).
pub(crate) const SEGMENT_HEADER_LEN: usize = 44;
/// Fixed tail-log header length in bytes.
pub(crate) const WAL_HEADER_LEN: usize = 20;

/// Manifest file name inside a store directory.
pub(crate) const MANIFEST_NAME: &str = "MANIFEST";
/// Tail-log file name inside a store directory.
pub(crate) const WAL_NAME: &str = "wal.log";

// Block tags (docs/SEGMENT_FORMAT.md §3). A segment is the fixed header
// followed by CRC-guarded blocks ending with `BLOCK_END`.
const BLOCK_END: u64 = 0;
const BLOCK_WINDOW: u64 = 1;
const BLOCK_USAGE: u64 = 2;
const BLOCK_CLIENTS: u64 = 3;
const BLOCK_LINKS: u64 = 4;
const BLOCK_AIRTIME: u64 = 5;
const BLOCK_NEIGHBORS: u64 = 6;
const BLOCK_SCANS: u64 = 7;
const BLOCK_CRASHES: u64 = 8;
const BLOCK_DEDUP: u64 = 9;
const BLOCK_COUNTERS: u64 = 10;

/// The census table shape: scan key → reporter metadata + channel rows.
type NeighborTable = BTreeMap<u64, (ClientMeta, Vec<(Band, u16, u32, u32)>)>;
/// Per-device keyed observation tables (scans, crashes).
type KeyedTable<T> = BTreeMap<u64, BTreeMap<(u64, u32), T>>;

/// Errors from persisting or recovering a store.
///
/// Every corruption mode is a typed variant — the recovery path never
/// panics on bad bytes (`airstat-lint`'s `no-unwrap-in-lib` holds for
/// this module like any other).
#[derive(Debug)]
pub enum SegmentError {
    /// An operating-system I/O operation failed.
    Io {
        /// What was being done when it failed.
        context: &'static str,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A file does not start with its expected magic bytes.
    Magic {
        /// Which file kind was being read.
        context: &'static str,
    },
    /// The file was written by a different schema version.
    Version {
        /// Version found in the header.
        found: u32,
        /// The single version this build reads
        /// ([`SEGMENT_SCHEMA_VERSION`]).
        supported: u32,
    },
    /// A CRC32 guard did not match the bytes it covers.
    Crc {
        /// Which structure failed verification.
        context: &'static str,
        /// Checksum stored on disk.
        stored: u32,
        /// Checksum computed over the bytes read.
        computed: u32,
    },
    /// Structurally invalid contents: truncation, impossible counts,
    /// unknown block tags, out-of-range enum discriminants, or a
    /// header summary that contradicts the decoded blocks.
    Corrupt {
        /// What was wrong.
        context: &'static str,
    },
    /// A varint or field-level decode error inside a guarded body.
    Wire(WireError),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Io { context, source } => write!(f, "{context}: {source}"),
            SegmentError::Magic { context } => {
                write!(f, "{context}: bad magic (not an airstat store file)")
            }
            SegmentError::Version { found, supported } => write!(
                f,
                "unsupported segment schema version {found} (this build reads \
                 version {supported}; see docs/SEGMENT_FORMAT.md)"
            ),
            SegmentError::Crc {
                context,
                stored,
                computed,
            } => write!(
                f,
                "{context}: CRC32 mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            SegmentError::Corrupt { context } => write!(f, "corrupt store file: {context}"),
            SegmentError::Wire(e) => write!(f, "corrupt store file: wire decode: {e:?}"),
        }
    }
}

impl std::error::Error for SegmentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SegmentError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<WireError> for SegmentError {
    fn from(e: WireError) -> Self {
        SegmentError::Wire(e)
    }
}

/// Shorthand for wrapping `std::io` errors with their operation.
fn io_err(context: &'static str) -> impl FnOnce(std::io::Error) -> SegmentError {
    move |source| SegmentError::Io { context, source }
}

fn corrupt(context: &'static str) -> SegmentError {
    SegmentError::Corrupt { context }
}

/// Cumulative persistence counters carried by a store (and its sealed
/// snapshots), surfaced through `StoreStats` in the CLI stderr block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistenceStats {
    /// Segment files written by `persist` calls.
    pub segments_written: u64,
    /// Segment files loaded by `open`.
    pub segments_loaded: u64,
    /// Bytes written to segment + manifest files.
    pub bytes_written: u64,
    /// Bytes read back from segment + manifest files.
    pub bytes_read: u64,
    /// CRC32 verifications performed while reading.
    pub crc_checks: u64,
    /// Tail-log records replayed during recovery.
    pub wal_records_replayed: u64,
}

impl PersistenceStats {
    /// Whether any persistence activity has been recorded.
    pub fn any(&self) -> bool {
        *self != PersistenceStats::default()
    }

    /// Adds another tally into this one.
    pub(crate) fn absorb(&mut self, other: PersistenceStats) {
        self.segments_written += other.segments_written;
        self.segments_loaded += other.segments_loaded;
        self.bytes_written += other.bytes_written;
        self.bytes_read += other.bytes_read;
        self.crc_checks += other.crc_checks;
        self.wal_records_replayed += other.wal_records_replayed;
    }
}

/// What [`ShardedStore::open`] recovered from a store directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Store epoch after recovery (manifest epoch + replayed batches).
    pub epoch: u64,
    /// Segment files decoded from the manifest's live set.
    pub segments_loaded: u64,
    /// Bytes read from segment + manifest files.
    pub bytes_read: u64,
    /// CRC32 verifications performed (all passed).
    pub crc_checks: u64,
    /// Whole tail-log records replayed.
    pub wal_records_replayed: u64,
    /// Reports recovered from the tail log (before dedup).
    pub wal_reports_recovered: u64,
    /// Trailing tail-log bytes discarded as a torn final write.
    pub wal_bytes_discarded: u64,
    /// Whether a stale tail log (from before the last completed
    /// persist) was skipped rather than replayed.
    pub wal_stale: bool,
    /// Tail-log byte length up to and including the last whole record
    /// (the append point after recovery); `0` when no log existed.
    pub wal_valid_len: u64,
}

impl fmt::Display for RecoveryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovered epoch {}: {} segment(s), {} bytes, {} CRC checks; \
             tail log: {} record(s) / {} report(s) replayed, {} byte(s) discarded{}",
            self.epoch,
            self.segments_loaded,
            self.bytes_read,
            self.crc_checks,
            self.wal_records_replayed,
            self.wal_reports_recovered,
            self.wal_bytes_discarded,
            if self.wal_stale {
                " (stale tail log skipped)"
            } else {
                ""
            },
        )
    }
}

// ---------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------

/// CRC-32/ISO-HDLC (the IEEE 802.3 polynomial, reflected, init and
/// xorout `0xFFFF_FFFF`) — the same parametrization as zlib's `crc32`.
/// Hand-rolled because the workspace vendors no checksum crate.
///
/// Slice-by-8: `CRC_TABLES[0]` is the classic one-byte table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight input bytes fold into the register with eight independent
/// lookups instead of a chain of eight dependent ones.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The CRC32 guarding every block, header, manifest, and tail record.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Cursor: bounded reads over a guarded body
// ---------------------------------------------------------------------

/// A bounds-checked read cursor. Varints go through
/// [`airstat_telemetry::wire::Reader`] — the segment format reuses the
/// wire codec's integer encoding byte for byte.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn varint(&mut self) -> Result<u64, SegmentError> {
        let mut reader = Reader::new(&self.buf[self.pos..]);
        let v = reader.read_varint()?;
        self.pos = self.buf.len() - reader.remaining();
        Ok(v)
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SegmentError> {
        if self.remaining() < n {
            return Err(corrupt(context));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn f64(&mut self) -> Result<f64, SegmentError> {
        let bytes = self.take(8, "truncated f64 column")?;
        Ok(f64::from_le_bytes(
            bytes
                .try_into()
                .expect("invariant: take(8) returned exactly 8 bytes"),
        ))
    }

    fn u32_le(&mut self, context: &'static str) -> Result<u32, SegmentError> {
        let bytes = self.take(4, context)?;
        Ok(u32::from_le_bytes(
            bytes
                .try_into()
                .expect("invariant: take(4) returned exactly 4 bytes"),
        ))
    }

    /// Reads a row count and sanity-checks it against the bytes left:
    /// every row costs at least `min_bytes_per_row`, so a corrupt count
    /// is rejected before any allocation is sized from it.
    fn count(
        &mut self,
        min_bytes_per_row: usize,
        context: &'static str,
    ) -> Result<usize, SegmentError> {
        let n = self.varint()?;
        let n = usize::try_from(n).map_err(|_| corrupt(context))?;
        if n.saturating_mul(min_bytes_per_row) > self.remaining() {
            return Err(corrupt(context));
        }
        Ok(n)
    }

    /// Sums per-key row counts into the length of the flattened columns
    /// that follow. Every flattened row costs at least one byte, so a
    /// sum past the bytes left is rejected before a column is sized from
    /// it (each count passed [`Cursor::count`] alone; their sum need not).
    fn total(&self, lens: &[usize], context: &'static str) -> Result<usize, SegmentError> {
        lens.iter()
            .try_fold(0usize, |sum, &n| sum.checked_add(n))
            .filter(|&total| total <= self.remaining())
            .ok_or_else(|| corrupt(context))
    }
}

// ---------------------------------------------------------------------
// Enum discriminant round-trips
// ---------------------------------------------------------------------

/// Discriminant → variant lane table for [`Application`]. Built from
/// `Application::ALL`, so it tracks the taxonomy without assuming the
/// constant is in discriminant order.
fn application_lanes() -> Vec<Option<Application>> {
    let mut lanes: Vec<Option<Application>> = Vec::new();
    for &app in Application::ALL {
        let i = app as usize;
        if i >= lanes.len() {
            lanes.resize(i + 1, None);
        }
        lanes[i] = Some(app);
    }
    lanes
}

/// Discriminant → variant lane table for [`OsFamily`]. `OsFamily::ALL`
/// is in Table 3 *display* order, not discriminant order, so indexing
/// it directly would scramble identities — the lanes resolve that.
fn os_lanes() -> Vec<Option<OsFamily>> {
    let mut lanes: Vec<Option<OsFamily>> = Vec::new();
    for &os in &OsFamily::ALL {
        let i = os as usize;
        if i >= lanes.len() {
            lanes.resize(i + 1, None);
        }
        lanes[i] = Some(os);
    }
    lanes
}

fn band_from(d: u64) -> Result<Band, SegmentError> {
    match d {
        0 => Ok(Band::Ghz2_4),
        1 => Ok(Band::Ghz5),
        _ => Err(corrupt("band discriminant out of range")),
    }
}

fn generation_from(d: u64) -> Result<Generation, SegmentError> {
    match d {
        0 => Ok(Generation::B),
        1 => Ok(Generation::G),
        2 => Ok(Generation::N),
        3 => Ok(Generation::Ac),
        _ => Err(corrupt("generation discriminant out of range")),
    }
}

fn reason_from(code: u64) -> Result<RebootReason, SegmentError> {
    match code {
        0 => Ok(RebootReason::OutOfMemory),
        1 => Ok(RebootReason::Watchdog),
        2 => Ok(RebootReason::Fault),
        3 => Ok(RebootReason::Requested),
        4 => Ok(RebootReason::PowerLoss),
        _ => Err(corrupt("reboot-reason code out of range")),
    }
}

/// Packs normalized [`Capabilities`] into one varint:
/// `generation | dual_band << 2 | forty_mhz << 3 | streams << 4`.
fn pack_caps(caps: Capabilities) -> u64 {
    (caps.generation() as u64)
        | (u64::from(caps.dual_band()) << 2)
        | (u64::from(caps.forty_mhz()) << 3)
        | (u64::from(caps.streams()) << 4)
}

fn unpack_caps(v: u64) -> Result<Capabilities, SegmentError> {
    let generation = generation_from(v & 0b11)?;
    let dual_band = (v >> 2) & 1 == 1;
    let forty_mhz = (v >> 3) & 1 == 1;
    let streams = u8::try_from(v >> 4).map_err(|_| corrupt("capability streams out of range"))?;
    let caps = Capabilities::new(generation, dual_band, forty_mhz, streams);
    // Stored capabilities were normalized by `Capabilities::new` before
    // they ever reached a shard, so re-normalizing must be the identity;
    // anything else is a tampered or corrupt field.
    if pack_caps(caps) != v {
        return Err(corrupt("denormalized capability bits"));
    }
    Ok(caps)
}

fn channel_from(band: u64, number: u64) -> Result<Channel, SegmentError> {
    let band = band_from(band)?;
    let number = u16::try_from(number).map_err(|_| corrupt("channel number out of range"))?;
    Channel::new(band, number).ok_or_else(|| corrupt("invalid channel number for band"))
}

// ---------------------------------------------------------------------
// Block framing
// ---------------------------------------------------------------------

/// Appends one guarded block: `tag varint · length varint · body ·
/// crc32(tag‖length‖body) u32 LE`. The CRC covers the framing too, so a
/// flipped bit in the tag or length is caught instead of desynchronizing
/// the block stream.
fn put_block(out: &mut Vec<u8>, tag: u64, body: &[u8]) {
    let start = out.len();
    put_varint(out, tag);
    put_varint(out, body.len() as u64);
    out.extend_from_slice(body);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

// ---------------------------------------------------------------------
// Table encoders (column-major bodies; docs/SEGMENT_FORMAT.md §4)
// ---------------------------------------------------------------------

fn encode_usage(out: &mut Vec<u8>, usage: &BTreeMap<(MacAddress, Application), UsageTotals>) {
    put_varint(out, usage.len() as u64);
    for (mac, _) in usage.keys() {
        out.extend_from_slice(&mac.0);
    }
    for (_, app) in usage.keys() {
        put_varint(out, *app as u64);
    }
    for totals in usage.values() {
        put_varint(out, totals.up_bytes);
    }
    for totals in usage.values() {
        put_varint(out, totals.down_bytes);
    }
}

fn encode_clients(out: &mut Vec<u8>, clients: &BTreeMap<MacAddress, (ClientMeta, ClientIdentity)>) {
    put_varint(out, clients.len() as u64);
    for mac in clients.keys() {
        out.extend_from_slice(&mac.0);
    }
    for (meta, _) in clients.values() {
        put_varint(out, meta.device);
    }
    for (meta, _) in clients.values() {
        put_varint(out, meta.seq);
    }
    for (meta, _) in clients.values() {
        put_varint(out, u64::from(meta.slot));
    }
    for (_, identity) in clients.values() {
        put_varint(out, identity.os as u64);
    }
    for (_, identity) in clients.values() {
        put_varint(out, pack_caps(identity.caps));
    }
    for (_, identity) in clients.values() {
        put_varint(out, identity.band as u64);
    }
    for (_, identity) in clients.values() {
        out.extend_from_slice(&identity.rssi_dbm.to_le_bytes());
    }
}

fn encode_links(out: &mut Vec<u8>, links: &BTreeMap<LinkKey, Vec<LinkObservation>>) {
    put_varint(out, links.len() as u64);
    for key in links.keys() {
        put_varint(out, key.rx_device);
    }
    for key in links.keys() {
        put_varint(out, key.tx_device);
    }
    for key in links.keys() {
        put_varint(out, key.band as u64);
    }
    for series in links.values() {
        put_varint(out, series.len() as u64);
    }
    for series in links.values() {
        for obs in series {
            put_varint(out, obs.timestamp_s);
        }
    }
    for series in links.values() {
        for obs in series {
            out.extend_from_slice(&obs.ratio.to_le_bytes());
        }
    }
}

fn encode_airtime(out: &mut Vec<u8>, airtime: &BTreeMap<(u64, Band), AirtimeLedger>) {
    put_varint(out, airtime.len() as u64);
    for (device, _) in airtime.keys() {
        put_varint(out, *device);
    }
    for (_, band) in airtime.keys() {
        put_varint(out, *band as u64);
    }
    for ledger in airtime.values() {
        put_varint(out, ledger.elapsed_us());
    }
    for ledger in airtime.values() {
        put_varint(out, ledger.busy_us());
    }
    for ledger in airtime.values() {
        put_varint(out, ledger.wifi_us());
    }
}

fn encode_neighbors(out: &mut Vec<u8>, neighbors: &NeighborTable) {
    put_varint(out, neighbors.len() as u64);
    for device in neighbors.keys() {
        put_varint(out, *device);
    }
    for (meta, _) in neighbors.values() {
        put_varint(out, meta.device);
    }
    for (meta, _) in neighbors.values() {
        put_varint(out, meta.seq);
    }
    for (meta, _) in neighbors.values() {
        put_varint(out, u64::from(meta.slot));
    }
    for (_, rows) in neighbors.values() {
        put_varint(out, rows.len() as u64);
    }
    for (_, rows) in neighbors.values() {
        for (band, _, _, _) in rows {
            put_varint(out, *band as u64);
        }
    }
    for (_, rows) in neighbors.values() {
        for (_, number, _, _) in rows {
            put_varint(out, u64::from(*number));
        }
    }
    for (_, rows) in neighbors.values() {
        for (_, _, networks, _) in rows {
            put_varint(out, u64::from(*networks));
        }
    }
    for (_, rows) in neighbors.values() {
        for (_, _, _, hotspots) in rows {
            put_varint(out, u64::from(*hotspots));
        }
    }
}

fn encode_scans(out: &mut Vec<u8>, scans: &BTreeMap<u64, BTreeMap<(u64, u32), ScanObservation>>) {
    put_varint(out, scans.len() as u64);
    for device in scans.keys() {
        put_varint(out, *device);
    }
    for per_device in scans.values() {
        put_varint(out, per_device.len() as u64);
    }
    for per_device in scans.values() {
        for (seq, _) in per_device.keys() {
            put_varint(out, *seq);
        }
    }
    for per_device in scans.values() {
        for (_, slot) in per_device.keys() {
            put_varint(out, u64::from(*slot));
        }
    }
    for per_device in scans.values() {
        for obs in per_device.values() {
            put_varint(out, obs.timestamp_s);
        }
    }
    for per_device in scans.values() {
        for obs in per_device.values() {
            put_varint(out, obs.record.channel.band as u64);
        }
    }
    for per_device in scans.values() {
        for obs in per_device.values() {
            put_varint(out, u64::from(obs.record.channel.number));
        }
    }
    for per_device in scans.values() {
        for obs in per_device.values() {
            put_varint(out, u64::from(obs.record.utilization_ppm));
        }
    }
    for per_device in scans.values() {
        for obs in per_device.values() {
            put_varint(out, u64::from(obs.record.decodable_ppm));
        }
    }
    for per_device in scans.values() {
        for obs in per_device.values() {
            put_varint(out, u64::from(obs.record.networks));
        }
    }
}

fn encode_crashes(out: &mut Vec<u8>, crashes: &BTreeMap<u64, BTreeMap<(u64, u32), CrashReport>>) {
    put_varint(out, crashes.len() as u64);
    for device in crashes.keys() {
        put_varint(out, *device);
    }
    for per_device in crashes.values() {
        put_varint(out, per_device.len() as u64);
    }
    for per_device in crashes.values() {
        for (seq, _) in per_device.keys() {
            put_varint(out, *seq);
        }
    }
    for per_device in crashes.values() {
        for (_, slot) in per_device.keys() {
            put_varint(out, u64::from(*slot));
        }
    }
    for per_device in crashes.values() {
        for report in per_device.values() {
            put_varint(out, u64::from(report.reason.code()));
        }
    }
    for per_device in crashes.values() {
        for report in per_device.values() {
            put_varint(out, report.program_counter);
        }
    }
    for per_device in crashes.values() {
        for report in per_device.values() {
            put_varint(out, report.uptime_s);
        }
    }
    for per_device in crashes.values() {
        for report in per_device.values() {
            put_varint(out, report.free_memory_bytes);
        }
    }
    for per_device in crashes.values() {
        for report in per_device.values() {
            put_varint(out, report.firmware.len() as u64);
            out.extend_from_slice(report.firmware.as_bytes());
        }
    }
}

fn encode_dedup(out: &mut Vec<u8>, shard: &StoreShard) {
    let entries = shard.dedup_entries();
    put_varint(out, entries.len() as u64);
    for ((window, _), _) in &entries {
        put_varint(out, u64::from(window.0));
    }
    for ((_, device), _) in &entries {
        put_varint(out, *device);
    }
    for (_, set) in &entries {
        put_varint(out, set.parts().0);
    }
    for (_, set) in &entries {
        put_varint(out, set.parts().1.len() as u64);
    }
    for (_, set) in &entries {
        for seq in set.parts().1 {
            put_varint(out, *seq);
        }
    }
}

/// Rows a window's tables contribute to the header's zone summary:
/// usage cells + client identities + link observations + airtime
/// ledgers + census rows + scan observations + crash rows.
fn table_rows(tables: &WindowTables) -> u64 {
    tables.usage.len() as u64
        + tables.clients.len() as u64
        + tables.links.values().map(|s| s.len() as u64).sum::<u64>()
        + tables.airtime.len() as u64
        + tables
            .neighbors
            .values()
            .map(|(_, r)| r.len() as u64)
            .sum::<u64>()
        + tables.scans.values().map(|m| m.len() as u64).sum::<u64>()
        + tables.crashes.values().map(|m| m.len() as u64).sum::<u64>()
}

/// Encodes one shard as a complete segment byte image
/// (docs/SEGMENT_FORMAT.md §§2–4).
pub(crate) fn encode_segment(shard: &StoreShard, epoch: u64, index: u32, count: u32) -> Vec<u8> {
    let mut window_count = 0u32;
    let mut min_window = u16::MAX;
    let mut max_window = 0u16;
    let mut total_rows = 0u64;
    for (window, tables) in shard.windows() {
        window_count += 1;
        min_window = min_window.min(window.0);
        max_window = max_window.max(window.0);
        total_rows += table_rows(tables);
    }
    if window_count == 0 {
        min_window = 0;
        max_window = 0;
    }

    let mut out = Vec::new();
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.extend_from_slice(&SEGMENT_SCHEMA_VERSION.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&window_count.to_le_bytes());
    out.extend_from_slice(&min_window.to_le_bytes());
    out.extend_from_slice(&max_window.to_le_bytes());
    out.extend_from_slice(&total_rows.to_le_bytes());
    let header_crc = crc32(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());
    debug_assert_eq!(out.len(), SEGMENT_HEADER_LEN);

    let mut body = Vec::new();
    for (window, tables) in shard.windows() {
        body.clear();
        put_varint(&mut body, u64::from(window.0));
        put_block(&mut out, BLOCK_WINDOW, &body);
        if !tables.usage.is_empty() {
            body.clear();
            encode_usage(&mut body, &tables.usage);
            put_block(&mut out, BLOCK_USAGE, &body);
        }
        if !tables.clients.is_empty() {
            body.clear();
            encode_clients(&mut body, &tables.clients);
            put_block(&mut out, BLOCK_CLIENTS, &body);
        }
        if !tables.links.is_empty() {
            body.clear();
            encode_links(&mut body, &tables.links);
            put_block(&mut out, BLOCK_LINKS, &body);
        }
        if !tables.airtime.is_empty() {
            body.clear();
            encode_airtime(&mut body, &tables.airtime);
            put_block(&mut out, BLOCK_AIRTIME, &body);
        }
        if !tables.neighbors.is_empty() {
            body.clear();
            encode_neighbors(&mut body, &tables.neighbors);
            put_block(&mut out, BLOCK_NEIGHBORS, &body);
        }
        if !tables.scans.is_empty() {
            body.clear();
            encode_scans(&mut body, &tables.scans);
            put_block(&mut out, BLOCK_SCANS, &body);
        }
        if !tables.crashes.is_empty() {
            body.clear();
            encode_crashes(&mut body, &tables.crashes);
            put_block(&mut out, BLOCK_CRASHES, &body);
        }
    }
    body.clear();
    encode_dedup(&mut body, shard);
    put_block(&mut out, BLOCK_DEDUP, &body);
    body.clear();
    put_varint(&mut body, shard.reports_ingested());
    put_varint(&mut body, shard.duplicates_dropped());
    put_block(&mut out, BLOCK_COUNTERS, &body);
    put_block(&mut out, BLOCK_END, &[]);
    out
}

// ---------------------------------------------------------------------
// Table decoders
// ---------------------------------------------------------------------
//
// Every decoder gathers its rows in file order and `collect()`s them
// into the table. The encoders write keys ascending, so the collect's
// stable sort is one linear pass and the tree is bulk-built from full
// nodes instead of grown one `insert` at a time. Key order is not a
// decode error: on out-of-order or repeated keys the last row for a key
// wins, exactly as key-by-key `insert` resolved them (pinned by
// `out_of_order_and_duplicate_keys_decode_as_insert_would`).

fn decode_usage(
    body: &[u8],
    apps: &[Option<Application>],
) -> Result<BTreeMap<(MacAddress, Application), UsageTotals>, SegmentError> {
    let mut cur = Cursor::new(body);
    let n = cur.count(9, "usage row count exceeds block size")?;
    let mut macs = Vec::with_capacity(n);
    for _ in 0..n {
        let bytes = cur.take(6, "truncated MAC column")?;
        macs.push(MacAddress(
            bytes
                .try_into()
                .expect("invariant: take(6) returned exactly 6 bytes"),
        ));
    }
    let mut app_col = Vec::with_capacity(n);
    for _ in 0..n {
        let d = cur.varint()?;
        let app = usize::try_from(d)
            .ok()
            .and_then(|i| apps.get(i).copied().flatten())
            .ok_or_else(|| corrupt("application discriminant out of range"))?;
        app_col.push(app);
    }
    let mut ups = Vec::with_capacity(n);
    for _ in 0..n {
        ups.push(cur.varint()?);
    }
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let down = cur.varint()?;
        rows.push((
            (macs[i], app_col[i]),
            UsageTotals {
                up_bytes: ups[i],
                down_bytes: down,
            },
        ));
    }
    if !cur.done() {
        return Err(corrupt("trailing bytes in usage block"));
    }
    Ok(rows.into_iter().collect())
}

fn decode_clients(
    body: &[u8],
    oses: &[Option<OsFamily>],
) -> Result<BTreeMap<MacAddress, (ClientMeta, ClientIdentity)>, SegmentError> {
    let mut cur = Cursor::new(body);
    let n = cur.count(6 + 6 + 8, "client row count exceeds block size")?;
    let mut macs = Vec::with_capacity(n);
    for _ in 0..n {
        let bytes = cur.take(6, "truncated MAC column")?;
        macs.push(MacAddress(
            bytes
                .try_into()
                .expect("invariant: take(6) returned exactly 6 bytes"),
        ));
    }
    let mut devices = Vec::with_capacity(n);
    for _ in 0..n {
        devices.push(cur.varint()?);
    }
    let mut seqs = Vec::with_capacity(n);
    for _ in 0..n {
        seqs.push(cur.varint()?);
    }
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        let slot = cur.varint()?;
        slots.push(u32::try_from(slot).map_err(|_| corrupt("client slot out of range"))?);
    }
    let mut os_col = Vec::with_capacity(n);
    for _ in 0..n {
        let d = cur.varint()?;
        let os = usize::try_from(d)
            .ok()
            .and_then(|i| oses.get(i).copied().flatten())
            .ok_or_else(|| corrupt("OS-family discriminant out of range"))?;
        os_col.push(os);
    }
    let mut caps_col = Vec::with_capacity(n);
    for _ in 0..n {
        caps_col.push(unpack_caps(cur.varint()?)?);
    }
    let mut bands = Vec::with_capacity(n);
    for _ in 0..n {
        bands.push(band_from(cur.varint()?)?);
    }
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let rssi_dbm = cur.f64()?;
        rows.push((
            macs[i],
            (
                ClientMeta {
                    device: devices[i],
                    seq: seqs[i],
                    slot: slots[i],
                },
                ClientIdentity {
                    os: os_col[i],
                    caps: caps_col[i],
                    band: bands[i],
                    rssi_dbm,
                },
            ),
        ));
    }
    if !cur.done() {
        return Err(corrupt("trailing bytes in clients block"));
    }
    Ok(rows.into_iter().collect())
}

fn decode_links(body: &[u8]) -> Result<BTreeMap<LinkKey, Vec<LinkObservation>>, SegmentError> {
    let mut cur = Cursor::new(body);
    let k = cur.count(4, "link key count exceeds block size")?;
    let mut rx = Vec::with_capacity(k);
    for _ in 0..k {
        rx.push(cur.varint()?);
    }
    let mut tx = Vec::with_capacity(k);
    for _ in 0..k {
        tx.push(cur.varint()?);
    }
    let mut bands = Vec::with_capacity(k);
    for _ in 0..k {
        bands.push(band_from(cur.varint()?)?);
    }
    let mut lens = Vec::with_capacity(k);
    for _ in 0..k {
        lens.push(cur.count(1, "link series length exceeds block size")?);
    }
    let total = cur.total(&lens, "link series lengths exceed block size")?;
    let mut timestamps = Vec::with_capacity(total);
    for _ in 0..total {
        timestamps.push(cur.varint()?);
    }
    let mut rows = Vec::with_capacity(k);
    let mut offset = 0usize;
    for i in 0..k {
        let mut series = Vec::with_capacity(lens[i]);
        for t in &timestamps[offset..offset + lens[i]] {
            series.push(LinkObservation {
                timestamp_s: *t,
                ratio: cur.f64()?,
            });
        }
        offset += lens[i];
        rows.push((
            LinkKey {
                rx_device: rx[i],
                tx_device: tx[i],
                band: bands[i],
            },
            series,
        ));
    }
    if !cur.done() {
        return Err(corrupt("trailing bytes in links block"));
    }
    Ok(rows.into_iter().collect())
}

fn decode_airtime(body: &[u8]) -> Result<BTreeMap<(u64, Band), AirtimeLedger>, SegmentError> {
    let mut cur = Cursor::new(body);
    let n = cur.count(5, "airtime row count exceeds block size")?;
    let mut devices = Vec::with_capacity(n);
    for _ in 0..n {
        devices.push(cur.varint()?);
    }
    let mut bands = Vec::with_capacity(n);
    for _ in 0..n {
        bands.push(band_from(cur.varint()?)?);
    }
    let mut elapsed = Vec::with_capacity(n);
    for _ in 0..n {
        elapsed.push(cur.varint()?);
    }
    let mut busy = Vec::with_capacity(n);
    for _ in 0..n {
        busy.push(cur.varint()?);
    }
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let wifi = cur.varint()?;
        if busy[i] > elapsed[i] || wifi > busy[i] {
            return Err(corrupt(
                "airtime ledger violates busy ≤ elapsed, wifi ≤ busy",
            ));
        }
        let mut ledger = AirtimeLedger::default();
        // The stored values satisfy the ledger's clamping invariant
        // (checked above), so one account() call restores them exactly.
        ledger.account(elapsed[i], busy[i], wifi);
        rows.push(((devices[i], bands[i]), ledger));
    }
    if !cur.done() {
        return Err(corrupt("trailing bytes in airtime block"));
    }
    Ok(rows.into_iter().collect())
}

fn decode_neighbors(body: &[u8]) -> Result<NeighborTable, SegmentError> {
    let mut cur = Cursor::new(body);
    let d = cur.count(5, "neighbor device count exceeds block size")?;
    let mut keys = Vec::with_capacity(d);
    for _ in 0..d {
        keys.push(cur.varint()?);
    }
    let mut meta_devices = Vec::with_capacity(d);
    for _ in 0..d {
        meta_devices.push(cur.varint()?);
    }
    let mut seqs = Vec::with_capacity(d);
    for _ in 0..d {
        seqs.push(cur.varint()?);
    }
    let mut slots = Vec::with_capacity(d);
    for _ in 0..d {
        let slot = cur.varint()?;
        slots.push(u32::try_from(slot).map_err(|_| corrupt("neighbor slot out of range"))?);
    }
    let mut lens = Vec::with_capacity(d);
    for _ in 0..d {
        lens.push(cur.count(1, "census row count exceeds block size")?);
    }
    let total = cur.total(&lens, "census row counts exceed block size")?;
    let mut bands = Vec::with_capacity(total);
    for _ in 0..total {
        bands.push(band_from(cur.varint()?)?);
    }
    let mut numbers = Vec::with_capacity(total);
    for _ in 0..total {
        let number = cur.varint()?;
        numbers.push(u16::try_from(number).map_err(|_| corrupt("channel number out of range"))?);
    }
    let mut networks = Vec::with_capacity(total);
    for _ in 0..total {
        let v = cur.varint()?;
        networks.push(u32::try_from(v).map_err(|_| corrupt("network count out of range"))?);
    }
    let mut devices = Vec::with_capacity(d);
    let mut offset = 0usize;
    for i in 0..d {
        let mut rows = Vec::with_capacity(lens[i]);
        for j in offset..offset + lens[i] {
            let hotspots = cur.varint()?;
            let hotspots =
                u32::try_from(hotspots).map_err(|_| corrupt("hotspot count out of range"))?;
            rows.push((bands[j], numbers[j], networks[j], hotspots));
        }
        offset += lens[i];
        devices.push((
            keys[i],
            (
                ClientMeta {
                    device: meta_devices[i],
                    seq: seqs[i],
                    slot: slots[i],
                },
                rows,
            ),
        ));
    }
    if !cur.done() {
        return Err(corrupt("trailing bytes in neighbors block"));
    }
    Ok(devices.into_iter().collect())
}

fn decode_scans(body: &[u8]) -> Result<KeyedTable<ScanObservation>, SegmentError> {
    let mut cur = Cursor::new(body);
    let d = cur.count(2, "scan device count exceeds block size")?;
    let mut keys = Vec::with_capacity(d);
    for _ in 0..d {
        keys.push(cur.varint()?);
    }
    let mut lens = Vec::with_capacity(d);
    for _ in 0..d {
        lens.push(cur.count(1, "scan observation count exceeds block size")?);
    }
    let total = cur.total(&lens, "scan observation counts exceed block size")?;
    let mut seqs = Vec::with_capacity(total);
    for _ in 0..total {
        seqs.push(cur.varint()?);
    }
    let mut slots = Vec::with_capacity(total);
    for _ in 0..total {
        let slot = cur.varint()?;
        slots.push(u32::try_from(slot).map_err(|_| corrupt("scan slot out of range"))?);
    }
    let mut timestamps = Vec::with_capacity(total);
    for _ in 0..total {
        timestamps.push(cur.varint()?);
    }
    let mut bands = Vec::with_capacity(total);
    for _ in 0..total {
        bands.push(cur.varint()?);
    }
    let mut channels = Vec::with_capacity(total);
    for &band in &bands {
        channels.push(channel_from(band, cur.varint()?)?);
    }
    let mut utilization = Vec::with_capacity(total);
    for _ in 0..total {
        let v = cur.varint()?;
        utilization.push(u32::try_from(v).map_err(|_| corrupt("utilization out of range"))?);
    }
    let mut decodable = Vec::with_capacity(total);
    for _ in 0..total {
        let v = cur.varint()?;
        decodable.push(u32::try_from(v).map_err(|_| corrupt("decodable share out of range"))?);
    }
    let mut devices = Vec::with_capacity(d);
    let mut offset = 0usize;
    for i in 0..d {
        let mut per_device = Vec::with_capacity(lens[i]);
        for j in offset..offset + lens[i] {
            let networks = cur.varint()?;
            let networks =
                u32::try_from(networks).map_err(|_| corrupt("network count out of range"))?;
            per_device.push((
                (seqs[j], slots[j]),
                ScanObservation {
                    timestamp_s: timestamps[j],
                    record: ChannelScanRecord {
                        channel: channels[j],
                        utilization_ppm: utilization[j],
                        decodable_ppm: decodable[j],
                        networks,
                    },
                },
            ));
        }
        offset += lens[i];
        devices.push((keys[i], per_device.into_iter().collect()));
    }
    if !cur.done() {
        return Err(corrupt("trailing bytes in scans block"));
    }
    Ok(devices.into_iter().collect())
}

fn decode_crashes(body: &[u8]) -> Result<KeyedTable<CrashReport>, SegmentError> {
    let mut cur = Cursor::new(body);
    let d = cur.count(2, "crash device count exceeds block size")?;
    let mut keys = Vec::with_capacity(d);
    for _ in 0..d {
        keys.push(cur.varint()?);
    }
    let mut lens = Vec::with_capacity(d);
    for _ in 0..d {
        lens.push(cur.count(1, "crash row count exceeds block size")?);
    }
    let total = cur.total(&lens, "crash row counts exceed block size")?;
    let mut seqs = Vec::with_capacity(total);
    for _ in 0..total {
        seqs.push(cur.varint()?);
    }
    let mut slots = Vec::with_capacity(total);
    for _ in 0..total {
        let slot = cur.varint()?;
        slots.push(u32::try_from(slot).map_err(|_| corrupt("crash slot out of range"))?);
    }
    let mut reasons = Vec::with_capacity(total);
    for _ in 0..total {
        reasons.push(reason_from(cur.varint()?)?);
    }
    let mut pcs = Vec::with_capacity(total);
    for _ in 0..total {
        pcs.push(cur.varint()?);
    }
    let mut uptimes = Vec::with_capacity(total);
    for _ in 0..total {
        uptimes.push(cur.varint()?);
    }
    let mut free_memory = Vec::with_capacity(total);
    for _ in 0..total {
        free_memory.push(cur.varint()?);
    }
    let mut devices = Vec::with_capacity(d);
    let mut offset = 0usize;
    for i in 0..d {
        let mut per_device = Vec::with_capacity(lens[i]);
        for j in offset..offset + lens[i] {
            let len = cur.count(1, "firmware string length exceeds block size")?;
            let bytes = cur.take(len, "truncated firmware string")?;
            let firmware = std::str::from_utf8(bytes)
                .map_err(|_| corrupt("firmware string is not UTF-8"))?
                .to_string();
            per_device.push((
                (seqs[j], slots[j]),
                CrashReport {
                    device: keys[i],
                    firmware,
                    reason: reasons[j],
                    program_counter: pcs[j],
                    uptime_s: uptimes[j],
                    free_memory_bytes: free_memory[j],
                },
            ));
        }
        offset += lens[i];
        devices.push((keys[i], per_device.into_iter().collect()));
    }
    if !cur.done() {
        return Err(corrupt("trailing bytes in crashes block"));
    }
    Ok(devices.into_iter().collect())
}

// airstat::allow(no-hashmap-iter): returns the shard's keyed-access
// ledger type; canonical order is enforced on the segment bytes.
fn decode_dedup(body: &[u8]) -> Result<HashMap<(WindowId, u64), SeqSet>, SegmentError> {
    let mut cur = Cursor::new(body);
    let n = cur.count(4, "dedup entry count exceeds block size")?;
    let mut windows = Vec::with_capacity(n);
    for _ in 0..n {
        let w = cur.varint()?;
        windows.push(WindowId(
            u16::try_from(w).map_err(|_| corrupt("window id out of range"))?,
        ));
    }
    let mut devices = Vec::with_capacity(n);
    for _ in 0..n {
        devices.push(cur.varint()?);
    }
    let mut watermarks = Vec::with_capacity(n);
    for _ in 0..n {
        watermarks.push(cur.varint()?);
    }
    let mut lens = Vec::with_capacity(n);
    for _ in 0..n {
        lens.push(cur.count(1, "sparse tail length exceeds block size")?);
    }
    let mut map = HashMap::with_capacity(n);
    let mut last_key: Option<(WindowId, u64)> = None;
    for i in 0..n {
        let key = (windows[i], devices[i]);
        if let Some(last) = last_key {
            if key <= last {
                return Err(corrupt(
                    "dedup entries not in ascending (window, device) order",
                ));
            }
        }
        last_key = Some(key);
        let mut sparse = BTreeSet::new();
        let mut previous = watermarks[i];
        for _ in 0..lens[i] {
            let seq = cur.varint()?;
            if seq <= previous {
                return Err(corrupt("sparse dedup tail not strictly ascending"));
            }
            previous = seq;
            sparse.insert(seq);
        }
        map.insert(key, SeqSet::from_parts(watermarks[i], sparse));
    }
    if !cur.done() {
        return Err(corrupt("trailing bytes in dedup block"));
    }
    // airstat::allow(unordered-collection-escape): the rebuilt dedup
    // ledger is keyed-access only; its canonical order lives in the
    // sorted segment bytes it was decoded from, never in map iteration.
    Ok(map)
}

// ---------------------------------------------------------------------
// Segment decode
// ---------------------------------------------------------------------

/// What the manifest says a segment must be; decode cross-checks the
/// segment header against it so a file cannot be swapped between shard
/// slots or epochs undetected.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegmentExpectation {
    pub(crate) epoch: u64,
    pub(crate) index: u32,
    pub(crate) count: u32,
}

/// Running verification counters for one decode pass.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct DecodeTally {
    pub(crate) crc_checks: u64,
}

/// Decodes one segment image back into a [`StoreShard`], verifying
/// magic, version, every CRC, the block grammar, and the header's
/// zone-map summary.
pub(crate) fn decode_segment(
    bytes: &[u8],
    expect: SegmentExpectation,
    tally: &mut DecodeTally,
) -> Result<StoreShard, SegmentError> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        return Err(corrupt("segment shorter than its fixed header"));
    }
    let mut header = Cursor::new(&bytes[..SEGMENT_HEADER_LEN]);
    let magic = header.take(4, "truncated segment header")?;
    if magic != SEGMENT_MAGIC {
        return Err(SegmentError::Magic { context: "segment" });
    }
    let version = header.u32_le("truncated segment header")?;
    if version != SEGMENT_SCHEMA_VERSION {
        return Err(SegmentError::Version {
            found: version,
            supported: SEGMENT_SCHEMA_VERSION,
        });
    }
    let epoch_bytes = header.take(8, "truncated segment header")?;
    let epoch = u64::from_le_bytes(
        epoch_bytes
            .try_into()
            .expect("invariant: take(8) returned exactly 8 bytes"),
    );
    let index = header.u32_le("truncated segment header")?;
    let count = header.u32_le("truncated segment header")?;
    let window_count = header.u32_le("truncated segment header")?;
    let min_window = header.take(2, "truncated segment header")?;
    let min_window = u16::from_le_bytes([min_window[0], min_window[1]]);
    let max_window = header.take(2, "truncated segment header")?;
    let max_window = u16::from_le_bytes([max_window[0], max_window[1]]);
    let total_rows_bytes = header.take(8, "truncated segment header")?;
    let total_rows = u64::from_le_bytes(
        total_rows_bytes
            .try_into()
            .expect("invariant: take(8) returned exactly 8 bytes"),
    );
    let stored_crc = header.u32_le("truncated segment header")?;
    let computed_crc = crc32(&bytes[..SEGMENT_HEADER_LEN - 4]);
    tally.crc_checks += 1;
    if stored_crc != computed_crc {
        return Err(SegmentError::Crc {
            context: "segment header",
            stored: stored_crc,
            computed: computed_crc,
        });
    }
    if epoch != expect.epoch || index != expect.index || count != expect.count {
        return Err(corrupt("segment header disagrees with the manifest"));
    }

    let apps = application_lanes();
    let oses = os_lanes();
    let mut cur = Cursor::new(&bytes[SEGMENT_HEADER_LEN..]);
    let mut windows: BTreeMap<WindowId, WindowTables> = BTreeMap::new();
    let mut current: Option<(WindowId, WindowTables)> = None;
    // airstat::allow(no-hashmap-iter): holds decode_dedup's keyed-access
    // result until from_parts; never iterated here.
    let mut dedup: Option<HashMap<(WindowId, u64), SeqSet>> = None;
    let mut counters: Option<(u64, u64)> = None;
    let mut ended = false;
    while !ended {
        let block_start = cur.pos;
        let tag = cur.varint()?;
        let len = cur.count(1, "block length exceeds file size")?;
        let body = cur.take(len, "truncated block body")?;
        let stored = cur.u32_le("truncated block checksum")?;
        let computed = crc32(&cur.buf[block_start..cur.pos - 4]);
        tally.crc_checks += 1;
        if stored != computed {
            return Err(SegmentError::Crc {
                context: "column block",
                stored,
                computed,
            });
        }
        match tag {
            BLOCK_END => {
                if !body.is_empty() {
                    return Err(corrupt("end block carries a body"));
                }
                ended = true;
            }
            BLOCK_WINDOW => {
                if dedup.is_some() || counters.is_some() {
                    return Err(corrupt("window block after shard-level blocks"));
                }
                let mut wb = Cursor::new(body);
                let w = wb.varint()?;
                if !wb.done() {
                    return Err(corrupt("trailing bytes in window block"));
                }
                let window =
                    WindowId(u16::try_from(w).map_err(|_| corrupt("window id out of range"))?);
                if let Some((previous, tables)) = current.take() {
                    if window <= previous {
                        return Err(corrupt("windows not in ascending order"));
                    }
                    windows.insert(previous, tables);
                }
                current = Some((window, WindowTables::default()));
            }
            BLOCK_DEDUP => {
                if dedup.is_some() {
                    return Err(corrupt("duplicate dedup block"));
                }
                dedup = Some(decode_dedup(body)?);
            }
            BLOCK_COUNTERS => {
                if counters.is_some() {
                    return Err(corrupt("duplicate counters block"));
                }
                let mut cb = Cursor::new(body);
                let ingested = cb.varint()?;
                let duplicates = cb.varint()?;
                if !cb.done() {
                    return Err(corrupt("trailing bytes in counters block"));
                }
                counters = Some((ingested, duplicates));
            }
            _ => {
                if dedup.is_some() || counters.is_some() {
                    return Err(corrupt("table block after shard-level blocks"));
                }
                let Some((_, tables)) = current.as_mut() else {
                    return Err(corrupt("table block outside a window"));
                };
                match tag {
                    BLOCK_USAGE if tables.usage.is_empty() => {
                        tables.usage = decode_usage(body, &apps)?;
                    }
                    BLOCK_CLIENTS if tables.clients.is_empty() => {
                        tables.clients = decode_clients(body, &oses)?;
                    }
                    BLOCK_LINKS if tables.links.is_empty() => {
                        tables.links = decode_links(body)?;
                    }
                    BLOCK_AIRTIME if tables.airtime.is_empty() => {
                        tables.airtime = decode_airtime(body)?;
                    }
                    BLOCK_NEIGHBORS if tables.neighbors.is_empty() => {
                        tables.neighbors = decode_neighbors(body)?;
                    }
                    BLOCK_SCANS if tables.scans.is_empty() => {
                        tables.scans = decode_scans(body)?;
                    }
                    BLOCK_CRASHES if tables.crashes.is_empty() => {
                        tables.crashes = decode_crashes(body)?;
                    }
                    BLOCK_USAGE | BLOCK_CLIENTS | BLOCK_LINKS | BLOCK_AIRTIME | BLOCK_NEIGHBORS
                    | BLOCK_SCANS | BLOCK_CRASHES => {
                        return Err(corrupt("duplicate table block in one window"));
                    }
                    _ => return Err(corrupt("unknown block tag")),
                }
            }
        }
    }
    if !cur.done() {
        return Err(corrupt("trailing bytes after end block"));
    }
    if let Some((window, tables)) = current.take() {
        windows.insert(window, tables);
    }
    let Some(seen) = dedup else {
        return Err(corrupt("segment is missing its dedup block"));
    };
    let Some((reports_ingested, duplicates_dropped)) = counters else {
        return Err(corrupt("segment is missing its counters block"));
    };

    // Re-verify the header's zone-map summary against the decoded rows.
    let decoded_window_count = u32::try_from(windows.len())
        .map_err(|_| corrupt("window count exceeds header field range"))?;
    let (decoded_min, decoded_max) = match (windows.keys().next(), windows.keys().next_back()) {
        (Some(first), Some(last)) => (first.0, last.0),
        _ => (0, 0),
    };
    let decoded_rows: u64 = windows.values().map(table_rows).sum();
    if decoded_window_count != window_count
        || decoded_min != min_window
        || decoded_max != max_window
        || decoded_rows != total_rows
    {
        return Err(corrupt("zone-map summary disagrees with decoded blocks"));
    }
    Ok(StoreShard::from_parts(
        seen,
        duplicates_dropped,
        reports_ingested,
        windows,
    ))
}

// ---------------------------------------------------------------------
// Files: atomic writes, manifest, segment set
// ---------------------------------------------------------------------

/// The file name of the segment holding shard `index` at `epoch`.
pub(crate) fn segment_file_name(epoch: u64, index: u32) -> String {
    format!("seg-{epoch:016x}-{index:04x}.aseg")
}

/// Writes `bytes` to `path` atomically: a `.tmp` sibling is written and
/// synced, then renamed into place. Readers therefore never observe a
/// partially written file under the final name.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SegmentError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = fs::File::create(&tmp).map_err(io_err("create temp store file"))?;
    file.write_all(bytes)
        .map_err(io_err("write temp store file"))?;
    file.sync_all().map_err(io_err("sync temp store file"))?;
    drop(file);
    fs::rename(&tmp, path).map_err(io_err("rename temp store file into place"))
}

/// One live delta segment named by the manifest: the epoch it was
/// persisted at (which names its file — see [`segment_file_name`]) and
/// its byte length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ManifestEntry {
    /// Persist epoch the delta was written at.
    pub(crate) epoch: u64,
    /// Byte length of the segment file.
    pub(crate) len: u64,
}

/// Parsed manifest: the store's committed epoch and, per shard, the
/// ordered delta chain (oldest to newest) that reconstructs it.
#[derive(Debug, Clone)]
pub(crate) struct Manifest {
    pub(crate) epoch: u64,
    /// Per-shard delta chains, in shard order.
    pub(crate) lists: Vec<Vec<ManifestEntry>>,
}

fn encode_manifest(epoch: u64, lists: &[Vec<ManifestEntry>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MANIFEST_MAGIC);
    out.extend_from_slice(&SEGMENT_SCHEMA_VERSION.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(lists.len() as u32).to_le_bytes());
    for chain in lists {
        out.extend_from_slice(&(chain.len() as u32).to_le_bytes());
        for entry in chain {
            out.extend_from_slice(&entry.epoch.to_le_bytes());
            out.extend_from_slice(&entry.len.to_le_bytes());
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn decode_manifest(bytes: &[u8], tally: &mut DecodeTally) -> Result<Manifest, SegmentError> {
    let mut cur = Cursor::new(bytes);
    let magic = cur.take(4, "truncated manifest")?;
    if magic != MANIFEST_MAGIC {
        return Err(SegmentError::Magic {
            context: "manifest",
        });
    }
    let version = cur.u32_le("truncated manifest")?;
    if version != SEGMENT_SCHEMA_VERSION {
        return Err(SegmentError::Version {
            found: version,
            supported: SEGMENT_SCHEMA_VERSION,
        });
    }
    let epoch_bytes = cur.take(8, "truncated manifest")?;
    let epoch = u64::from_le_bytes(
        epoch_bytes
            .try_into()
            .expect("invariant: take(8) returned exactly 8 bytes"),
    );
    let count = cur.u32_le("truncated manifest")?;
    let count = usize::try_from(count).map_err(|_| corrupt("manifest shard count out of range"))?;
    if count == 0 || count.saturating_mul(4) > cur.remaining() {
        return Err(corrupt("manifest shard count exceeds file size"));
    }
    let mut lists = Vec::with_capacity(count);
    for _ in 0..count {
        let deltas = cur.u32_le("truncated manifest delta count")?;
        let deltas =
            usize::try_from(deltas).map_err(|_| corrupt("manifest delta count out of range"))?;
        if deltas.saturating_mul(16) > cur.remaining() {
            return Err(corrupt("manifest delta count exceeds file size"));
        }
        let mut chain = Vec::with_capacity(deltas);
        let mut previous: Option<u64> = None;
        for _ in 0..deltas {
            let epoch_bytes = cur.take(8, "truncated manifest entry")?;
            let delta_epoch = u64::from_le_bytes(
                epoch_bytes
                    .try_into()
                    .expect("invariant: take(8) returned exactly 8 bytes"),
            );
            if previous.is_some_and(|p| delta_epoch <= p) {
                return Err(corrupt("manifest delta chain not in ascending epoch order"));
            }
            previous = Some(delta_epoch);
            let len_bytes = cur.take(8, "truncated manifest entry")?;
            let len = u64::from_le_bytes(
                len_bytes
                    .try_into()
                    .expect("invariant: take(8) returned exactly 8 bytes"),
            );
            chain.push(ManifestEntry {
                epoch: delta_epoch,
                len,
            });
        }
        lists.push(chain);
    }
    let stored = cur.u32_le("truncated manifest checksum")?;
    let computed = crc32(&bytes[..bytes.len() - 4]);
    tally.crc_checks += 1;
    if stored != computed {
        return Err(SegmentError::Crc {
            context: "manifest",
            stored,
            computed,
        });
    }
    if !cur.done() {
        return Err(corrupt("trailing bytes in manifest"));
    }
    Ok(Manifest { epoch, lists })
}

/// Commits `lists` as the live segment set: writes the manifest (the
/// single commit point), deletes files the new set no longer
/// references, and resets the tail log to base `epoch`.
fn commit_manifest(
    lists: &[Vec<ManifestEntry>],
    epoch: u64,
    dir: &Path,
    stats: &mut PersistenceStats,
) -> Result<(), SegmentError> {
    let manifest = encode_manifest(epoch, lists);
    write_atomic(&dir.join(MANIFEST_NAME), &manifest)?;
    stats.bytes_written += manifest.len() as u64;

    // The new set is committed; delete segments it no longer references.
    // Best-effort: a leftover file is garbage, not corruption.
    let live = |name: &str| {
        lists.iter().enumerate().any(|(i, chain)| {
            chain
                .iter()
                .any(|e| segment_file_name(e.epoch, i as u32) == name)
        })
    };
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale_segment = name.ends_with(".aseg") && !live(name);
            let orphan_temp = name.ends_with(".tmp");
            if stale_segment || orphan_temp {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
    // Everything the tail log held is now in the committed segments.
    let wal = encode_wal_header(epoch);
    write_atomic(&dir.join(WAL_NAME), &wal)?;
    stats.bytes_written += wal.len() as u64;
    Ok(())
}

/// Persists the full segment set + manifest into `dir` and resets the
/// tail log (docs/SEGMENT_FORMAT.md §6): every shard becomes a
/// single-delta chain. Returns what was written and the committed
/// chains.
///
/// Write order is the atomicity argument: every new epoch-named segment
/// is written and renamed first, then the manifest rename commits the
/// new set, then stale segment files are deleted and the tail log is
/// reset. A crash before the manifest rename leaves the old store
/// intact (new segments are unreferenced garbage, cleaned next
/// persist); a crash after it leaves the new store committed and at
/// worst a stale tail log, which `open` detects by epoch and skips.
pub(crate) fn write_store_full(
    shards: &[Arc<StoreShard>],
    epoch: u64,
    dir: &Path,
) -> Result<(PersistenceStats, Vec<Vec<ManifestEntry>>), SegmentError> {
    fs::create_dir_all(dir).map_err(io_err("create store directory"))?;
    let count = u32::try_from(shards.len()).map_err(|_| corrupt("too many shards to persist"))?;
    let mut stats = PersistenceStats::default();
    let mut lists = Vec::with_capacity(shards.len());
    for (i, shard) in shards.iter().enumerate() {
        let bytes = encode_segment(shard, epoch, i as u32, count);
        write_atomic(&dir.join(segment_file_name(epoch, i as u32)), &bytes)?;
        stats.segments_written += 1;
        stats.bytes_written += bytes.len() as u64;
        lists.push(vec![ManifestEntry {
            epoch,
            len: bytes.len() as u64,
        }]);
    }
    commit_manifest(&lists, epoch, dir, &mut stats)?;
    Ok((stats, lists))
}

/// Persists an **incremental** delta on top of the committed chains in
/// `prior` (docs/SEGMENT_FORMAT.md §6): each `Some` shard appends one
/// epoch-named delta segment holding only that shard's rows dirtied
/// since the previous persist; `None` shards keep their chains as-is.
/// The manifest rename commits the grown chains exactly as in
/// [`write_store_full`] — same crash-safety argument, since prior
/// chains' files are never touched.
pub(crate) fn write_store_delta(
    deltas: &[Option<StoreShard>],
    prior: &[Vec<ManifestEntry>],
    epoch: u64,
    dir: &Path,
) -> Result<(PersistenceStats, Vec<Vec<ManifestEntry>>), SegmentError> {
    fs::create_dir_all(dir).map_err(io_err("create store directory"))?;
    let count = u32::try_from(deltas.len()).map_err(|_| corrupt("too many shards to persist"))?;
    let mut stats = PersistenceStats::default();
    let mut lists = prior.to_vec();
    for (i, delta) in deltas.iter().enumerate() {
        let Some(delta) = delta else { continue };
        let bytes = encode_segment(delta, epoch, i as u32, count);
        write_atomic(&dir.join(segment_file_name(epoch, i as u32)), &bytes)?;
        stats.segments_written += 1;
        stats.bytes_written += bytes.len() as u64;
        lists[i].push(ManifestEntry {
            epoch,
            len: bytes.len() as u64,
        });
    }
    commit_manifest(&lists, epoch, dir, &mut stats)?;
    Ok((stats, lists))
}

/// What `read_store` recovered from the committed segment set.
#[derive(Debug)]
pub(crate) struct LoadedStore {
    pub(crate) epoch: u64,
    pub(crate) shards: Vec<StoreShard>,
    /// The committed delta chains, handed to the store so a later
    /// persist back into the same directory can stay incremental.
    pub(crate) lists: Vec<Vec<ManifestEntry>>,
    pub(crate) bytes_read: u64,
    pub(crate) crc_checks: u64,
}

/// Reads the committed segment set named by the manifest, if one
/// exists. `Ok(None)` means a fresh directory (no manifest). Each
/// shard's delta chain is folded oldest to newest through
/// [`StoreShard::absorb`] — the newest delta naming a key holds its
/// full current value, so the fold reconstructs the exact shard a
/// monolithic persist would have written.
pub(crate) fn read_store(dir: &Path) -> Result<Option<LoadedStore>, SegmentError> {
    let manifest_bytes = match fs::read(dir.join(MANIFEST_NAME)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read manifest")(e)),
    };
    let mut tally = DecodeTally::default();
    let mut bytes_read = manifest_bytes.len() as u64;
    let manifest = decode_manifest(&manifest_bytes, &mut tally)?;
    let count = u32::try_from(manifest.lists.len())
        .map_err(|_| corrupt("manifest shard count out of range"))?;
    let mut shards = Vec::with_capacity(manifest.lists.len());
    for (i, chain) in manifest.lists.iter().enumerate() {
        let mut shard = StoreShard::default();
        for entry in chain {
            let name = segment_file_name(entry.epoch, i as u32);
            let bytes = fs::read(dir.join(&name)).map_err(io_err("read segment file"))?;
            if bytes.len() as u64 != entry.len {
                return Err(corrupt("segment length disagrees with the manifest"));
            }
            bytes_read += bytes.len() as u64;
            let delta = decode_segment(
                &bytes,
                SegmentExpectation {
                    epoch: entry.epoch,
                    index: i as u32,
                    count,
                },
                &mut tally,
            )?;
            shard.absorb(delta);
        }
        shards.push(shard);
    }
    Ok(Some(LoadedStore {
        epoch: manifest.epoch,
        shards,
        lists: manifest.lists,
        bytes_read,
        crc_checks: tally.crc_checks,
    }))
}

// ---------------------------------------------------------------------
// Tail log (write-ahead record log)
// ---------------------------------------------------------------------

fn encode_wal_header(base_epoch: u64) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&WAL_MAGIC);
    out.extend_from_slice(&SEGMENT_SCHEMA_VERSION.to_le_bytes());
    out.extend_from_slice(&base_epoch.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    debug_assert_eq!(out.len(), WAL_HEADER_LEN);
    out
}

/// Encodes one tail-log record body: the window, then each report's
/// wire encoding ([`Report::encode`]) length-prefixed.
fn encode_wal_record(window: WindowId, reports: &[Report], scratch: &mut Vec<u8>) -> Vec<u8> {
    let mut body = Vec::new();
    put_varint(&mut body, u64::from(window.0));
    put_varint(&mut body, reports.len() as u64);
    let mut field_scratch = Vec::new();
    for report in reports {
        scratch.clear();
        report.encode_into(scratch, &mut field_scratch);
        put_varint(&mut body, scratch.len() as u64);
        body.extend_from_slice(scratch);
    }
    let mut out = Vec::with_capacity(body.len() + 8);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out
}

/// One recovered tail-log batch.
pub(crate) type WalBatch = (WindowId, Vec<Report>);

/// The outcome of scanning a tail log.
#[derive(Debug, Default)]
pub(crate) struct WalReplay {
    /// Whole, CRC-valid records in append order.
    pub(crate) batches: Vec<WalBatch>,
    /// Reports across all recovered batches.
    pub(crate) reports: u64,
    /// Trailing bytes discarded as a torn final write.
    pub(crate) bytes_discarded: u64,
    /// File length up to and including the last whole record — the
    /// append point after recovery.
    pub(crate) valid_len: u64,
    /// True when the log's base epoch predates `expected_base` (records
    /// already committed into segments by a completed persist).
    pub(crate) stale: bool,
}

/// Scans the tail log in `dir`. Missing log → empty replay. A log whose
/// base epoch differs from `expected_base` is stale (see
/// [`write_store`]) and reported as such with no batches.
///
/// Replay stops cleanly at the first incomplete or CRC-failing record:
/// that is the torn final write of a crashed appender, and every record
/// before it is intact by construction (appends are sequential).
pub(crate) fn read_wal(dir: &Path, expected_base: u64) -> Result<WalReplay, SegmentError> {
    match fs::read(dir.join(WAL_NAME)) {
        Ok(bytes) => decode_wal(&bytes, expected_base),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(WalReplay::default()),
        Err(e) => Err(io_err("read tail log")(e)),
    }
}

/// [`read_wal`] over the log's bytes.
fn decode_wal(bytes: &[u8], expected_base: u64) -> Result<WalReplay, SegmentError> {
    if bytes.len() < WAL_HEADER_LEN {
        return Err(corrupt("tail log shorter than its header"));
    }
    let mut header = Cursor::new(&bytes[..WAL_HEADER_LEN]);
    let magic = header.take(4, "truncated tail-log header")?;
    if magic != WAL_MAGIC {
        return Err(SegmentError::Magic {
            context: "tail log",
        });
    }
    let version = header.u32_le("truncated tail-log header")?;
    if version != SEGMENT_SCHEMA_VERSION {
        return Err(SegmentError::Version {
            found: version,
            supported: SEGMENT_SCHEMA_VERSION,
        });
    }
    let base_bytes = header.take(8, "truncated tail-log header")?;
    let base_epoch = u64::from_le_bytes(
        base_bytes
            .try_into()
            .expect("invariant: take(8) returned exactly 8 bytes"),
    );
    let stored = header.u32_le("truncated tail-log header")?;
    let computed = crc32(&bytes[..WAL_HEADER_LEN - 4]);
    if stored != computed {
        return Err(SegmentError::Crc {
            context: "tail-log header",
            stored,
            computed,
        });
    }
    let mut replay = WalReplay {
        valid_len: WAL_HEADER_LEN as u64,
        ..WalReplay::default()
    };
    if base_epoch != expected_base {
        replay.stale = true;
        replay.bytes_discarded = (bytes.len() - WAL_HEADER_LEN) as u64;
        return Ok(replay);
    }
    let mut pos = WAL_HEADER_LEN;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < 4 {
            break; // torn length prefix
        }
        let len = u32::from_le_bytes(
            bytes[pos..pos + 4]
                .try_into()
                .expect("invariant: slice of 4 bytes converts to [u8; 4]"),
        ) as usize;
        if remaining < 4 + len + 4 {
            break; // torn record body or checksum
        }
        let body = &bytes[pos + 4..pos + 4 + len];
        let stored = u32::from_le_bytes(
            bytes[pos + 4 + len..pos + 8 + len]
                .try_into()
                .expect("invariant: slice of 4 bytes converts to [u8; 4]"),
        );
        if crc32(body) != stored {
            break; // torn write caught by the record guard
        }
        // A CRC-valid record must parse; failure here is real corruption.
        let mut cur = Cursor::new(body);
        let window = cur.varint()?;
        let window =
            WindowId(u16::try_from(window).map_err(|_| corrupt("window id out of range"))?);
        let count = cur.count(1, "tail-log report count exceeds record size")?;
        let mut reports = Vec::with_capacity(count);
        for _ in 0..count {
            let report_len = cur.count(1, "tail-log report length exceeds record size")?;
            let report_bytes = cur.take(report_len, "truncated tail-log report")?;
            reports.push(Report::decode(report_bytes)?);
        }
        if !cur.done() {
            return Err(corrupt("trailing bytes in tail-log record"));
        }
        replay.reports += reports.len() as u64;
        replay.batches.push((window, reports));
        pos += 8 + len;
        replay.valid_len = pos as u64;
    }
    replay.bytes_discarded = (bytes.len() - replay.valid_len as usize) as u64;
    Ok(replay)
}

// ---------------------------------------------------------------------
// DurableStore: a ShardedStore bound to a directory
// ---------------------------------------------------------------------

/// A [`ShardedStore`] bound to an on-disk store directory.
///
/// Every ingested batch is appended to the tail log **before** it
/// reaches the in-memory shards, so a crash at any instant loses at
/// most the torn final record — [`ShardedStore::open`] recovers the
/// committed segments plus every whole tail record, reproducing the
/// exact pre-crash query surface. Call [`DurableStore::persist`] to
/// fold the tail into sealed segments (and empty the log).
///
/// [`ReportSink`] has no error channel, so an append failure poisons
/// the sink instead of panicking: later appends are skipped and the
/// deferred error surfaces at the next [`DurableStore::persist`] (or
/// [`DurableStore::take_error`]).
#[derive(Debug)]
pub struct DurableStore {
    store: ShardedStore,
    dir: PathBuf,
    wal: fs::File,
    scratch: Vec<u8>,
    deferred: Option<SegmentError>,
}

impl DurableStore {
    /// Starts a **fresh** durable store in `dir`, wiping any previous
    /// store state there (manifest, segments, tail log).
    pub fn create(dir: &Path, config: StoreConfig) -> Result<DurableStore, SegmentError> {
        fs::create_dir_all(dir).map_err(io_err("create store directory"))?;
        let _ = fs::remove_file(dir.join(MANIFEST_NAME));
        if let Ok(entries) = fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.ends_with(".aseg") || name.ends_with(".tmp") {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        write_atomic(&dir.join(WAL_NAME), &encode_wal_header(0))?;
        let wal = fs::OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_NAME))
            .map_err(io_err("open tail log for append"))?;
        Ok(DurableStore {
            store: ShardedStore::with_config(config),
            dir: dir.to_path_buf(),
            wal,
            scratch: Vec::new(),
            deferred: None,
        })
    }

    /// Reopens the durable store in `dir`, recovering committed
    /// segments and replaying the tail log (see [`ShardedStore::open`]).
    /// Appending resumes after the last whole tail record; a torn final
    /// record or stale log is truncated away first.
    pub fn open(
        dir: &Path,
        config: StoreConfig,
    ) -> Result<(DurableStore, RecoveryStats), SegmentError> {
        let (store, recovery) = ShardedStore::open(dir, config)?;
        let wal_path = dir.join(WAL_NAME);
        let append_at = if recovery.wal_stale || recovery.wal_valid_len == 0 {
            // Stale (pre-persist) or missing log: start a fresh one whose
            // base is the recovered epoch. No replay happened in either
            // case, so `store.epoch()` is the committed manifest epoch.
            write_atomic(&wal_path, &encode_wal_header(store.epoch()))?;
            WAL_HEADER_LEN as u64
        } else {
            recovery.wal_valid_len
        };
        let mut wal = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&wal_path)
            .map_err(io_err("open tail log for append"))?;
        wal.set_len(append_at)
            .map_err(io_err("truncate torn tail-log record"))?;
        wal.seek(std::io::SeekFrom::End(0))
            .map_err(io_err("seek tail log to append point"))?;
        Ok((
            DurableStore {
                store,
                dir: dir.to_path_buf(),
                wal,
                scratch: Vec::new(),
                deferred: None,
            },
            recovery,
        ))
    }

    /// The wrapped in-memory store.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// Folds the tail log into a committed segment set and empties it,
    /// surfacing any deferred append error first.
    pub fn persist(&mut self) -> Result<PersistenceStats, SegmentError> {
        if let Some(error) = self.deferred.take() {
            return Err(error);
        }
        self.wal
            .sync_all()
            .map_err(io_err("sync tail log before persist"))?;
        let stats = self.store.persist(&self.dir)?;
        // write_store reset the log file; reopen the append handle on it.
        self.wal = fs::OpenOptions::new()
            .append(true)
            .open(self.dir.join(WAL_NAME))
            .map_err(io_err("reopen tail log after persist"))?;
        Ok(stats)
    }

    /// Takes the deferred tail-log append error, if any.
    pub fn take_error(&mut self) -> Option<SegmentError> {
        self.deferred.take()
    }

    /// Persists and unwraps the inner store.
    pub fn into_store(mut self) -> Result<(ShardedStore, PersistenceStats), SegmentError> {
        let stats = self.persist()?;
        Ok((self.store, stats))
    }
}

impl Sealable for DurableStore {
    fn reseal(&mut self) {
        let _ = self.store.seal();
    }
}

impl ReportSink for DurableStore {
    fn ingest_batch(&mut self, window: WindowId, reports: &[Report]) -> u64 {
        if reports.is_empty() {
            return 0;
        }
        if self.deferred.is_none() {
            let record = encode_wal_record(window, reports, &mut self.scratch);
            if let Err(e) = self.wal.write_all(&record) {
                self.deferred = Some(io_err("append tail-log record")(e));
            }
        }
        self.store.ingest_batch(window, reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_classify::mac::Oui;
    use airstat_telemetry::report::{ReportPayload, UsageRecord};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    const W: WindowId = WindowId(1501);
    /// What [`framed_segment`] images claim to be.
    const FRAMED: SegmentExpectation = SegmentExpectation {
        epoch: 1,
        index: 0,
        count: 1,
    };

    /// A unique scratch directory per test invocation, with no
    /// wall-clock involved (process id + a process-wide counter).
    fn temp_store_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("airstat-segment-{}-{tag}-{id}", std::process::id()))
    }

    /// Formats `bytes` as the spec's hex dump: an offset column plus
    /// 16 space-separated hex bytes per line.
    pub(super) fn hex_dump_lines(bytes: &[u8]) -> Vec<String> {
        bytes
            .chunks(16)
            .enumerate()
            .map(|(i, chunk)| {
                let hex: Vec<String> = chunk.iter().map(|b| format!("{b:02x}")).collect();
                format!("{:04x}  {}", i * 16, hex.join(" "))
            })
            .collect()
    }

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

    fn read_segment_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
            .expect("store dir readable")
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().to_str()?.to_string();
                name.ends_with(".aseg")
                    .then(|| (name.clone(), fs::read(e.path()).expect("segment readable")))
            })
            .collect();
        files.sort();
        files
    }

    /// The byte-at-a-time table loop that slice-by-8 replaced, kept as
    /// its oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// A one-shard, one-window (`W`) segment image around hand-written
    /// table blocks: a header claiming `total_rows`, the window block,
    /// `blocks` verbatim as `(tag, body)`, an empty dedup ledger, zero
    /// counters and the end block — every CRC valid, nothing else
    /// checked, so the decoders see bytes no encoder would write.
    fn framed_segment(total_rows: u64, blocks: &[(u64, Vec<u8>)]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&SEGMENT_MAGIC);
        out.extend_from_slice(&SEGMENT_SCHEMA_VERSION.to_le_bytes());
        out.extend_from_slice(&FRAMED.epoch.to_le_bytes());
        out.extend_from_slice(&FRAMED.index.to_le_bytes());
        out.extend_from_slice(&FRAMED.count.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&W.0.to_le_bytes());
        out.extend_from_slice(&W.0.to_le_bytes());
        out.extend_from_slice(&total_rows.to_le_bytes());
        let header_crc = crc32(&out);
        out.extend_from_slice(&header_crc.to_le_bytes());
        let mut window = Vec::new();
        put_varint(&mut window, u64::from(W.0));
        put_block(&mut out, BLOCK_WINDOW, &window);
        for (tag, body) in blocks {
            put_block(&mut out, *tag, body);
        }
        put_block(&mut out, BLOCK_DEDUP, &[0]);
        put_block(&mut out, BLOCK_COUNTERS, &[0, 0]);
        put_block(&mut out, BLOCK_END, &[]);
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // CRC-32/ISO-HDLC check values (the zlib parametrization).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"airstat"), crc32(b"airstat"));
        // Past one 8-byte stride, with a remainder.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    proptest! {
        /// Every length 0..=64 at every start offset 0..8 (all strides,
        /// remainders and alignments), plus one random sub-slice.
        #[test]
        fn slice_by_8_crc_matches_the_bytewise_loop(
            bytes in prop::collection::vec(any::<u8>(), 72..512),
            cut in (any::<usize>(), any::<usize>()),
        ) {
            for start in 0..8 {
                for len in 0..=64 {
                    let slice = &bytes[start..start + len];
                    prop_assert_eq!(crc32(slice), crc32_bytewise(slice), "start {} len {}", start, len);
                }
            }
            let from = cut.0 % (bytes.len() + 1);
            let to = from + cut.1 % (bytes.len() - from + 1);
            prop_assert_eq!(crc32(&bytes[from..to]), crc32_bytewise(&bytes[from..to]));
        }

        /// Arbitrary bytes — not flips of a valid file — are a typed
        /// error from both decoders, and arbitrary block bodies or
        /// manifest entries behind valid framing and CRCs never panic.
        #[test]
        fn arbitrary_bytes_are_a_typed_error_never_a_panic(
            bytes in prop::collection::vec(any::<u8>(), 0..384),
        ) {
            let mut tally = DecodeTally::default();
            prop_assert!(decode_segment(&bytes, FRAMED, &mut tally).is_err());
            prop_assert!(decode_manifest(&bytes, &mut tally).is_err());
            for tag in BLOCK_END..=BLOCK_COUNTERS + 1 {
                let framed = framed_segment(0, &[(tag, bytes.clone())]);
                let _ = decode_segment(&framed, FRAMED, &mut tally);
            }
            let mut manifest = Vec::new();
            manifest.extend_from_slice(&MANIFEST_MAGIC);
            manifest.extend_from_slice(&SEGMENT_SCHEMA_VERSION.to_le_bytes());
            manifest.extend_from_slice(&bytes);
            let crc = crc32(&manifest);
            manifest.extend_from_slice(&crc.to_le_bytes());
            let _ = decode_manifest(&manifest, &mut tally);
        }

        /// The tail-log sibling: arbitrary bytes as a whole log, after a
        /// valid header, and as record bodies behind a valid length
        /// prefix and CRC (raw, and after a window and an arbitrary
        /// report count — the one number an allocation is sized from).
        /// The scan returns a replay that accounts for every byte of the
        /// file, or a typed error; it never panics.
        #[test]
        fn arbitrary_tail_log_bytes_replay_or_fail_typed(
            bytes in prop::collection::vec(any::<u8>(), 0..384),
            window in any::<u16>(),
            count in any::<u64>(),
        ) {
            let framed = |body: &[u8]| {
                let mut record = (body.len() as u32).to_le_bytes().to_vec();
                record.extend_from_slice(body);
                record.extend_from_slice(&crc32(body).to_le_bytes());
                record
            };
            let log = |records: &[&[u8]]| {
                let mut log = encode_wal_header(0);
                for record in records {
                    log.extend_from_slice(record);
                }
                log
            };
            let mut counted = Vec::new();
            put_varint(&mut counted, u64::from(window));
            put_varint(&mut counted, count);
            counted.extend_from_slice(&bytes);
            let whole = encode_wal_record(W, &[usage_report(1, 1, 10)], &mut Vec::new());
            let logs = [
                bytes.clone(),
                log(&[&bytes]),
                log(&[&whole, &framed(&bytes), &bytes]),
                log(&[&whole, &framed(&counted)]),
            ];
            for log in &logs {
                for expected_base in [0, 1] {
                    let Ok(replay) = decode_wal(log, expected_base) else {
                        continue;
                    };
                    prop_assert!(replay.valid_len >= WAL_HEADER_LEN as u64);
                    prop_assert_eq!(replay.valid_len + replay.bytes_discarded, log.len() as u64);
                    let batched: usize = replay.batches.iter().map(|(_, r)| r.len()).sum();
                    prop_assert_eq!(replay.reports, batched as u64);
                    prop_assert!(!replay.stale || replay.batches.is_empty());
                }
            }
        }
    }

    /// The decoders bulk-build each table from its rows in file order.
    /// No encoder writes keys out of order or twice, but decode does not
    /// reject them either, so what it resolves them to is pinned here to
    /// what the key-by-key `insert` loop it replaced produced: last row
    /// for a key wins, a repeated outer key replaces the whole inner map.
    #[test]
    fn out_of_order_and_duplicate_keys_decode_as_insert_would() {
        let mac = |id: u64| MacAddress::from_id(Oui([2, 4, 6]), id);
        let usage_rows = [
            ((mac(9), Application::Netflix), (90u64, 9u64)),
            ((mac(3), Application::Netflix), (30, 3)),
            ((mac(9), Application::Netflix), (91, 8)),
            ((mac(3), Application::ALL[0]), (31, 2)),
            ((mac(3), Application::Netflix), (32, 1)),
        ];
        let mut usage = Vec::new();
        put_varint(&mut usage, usage_rows.len() as u64);
        for ((mac, _), _) in &usage_rows {
            usage.extend_from_slice(&mac.0);
        }
        for ((_, app), _) in &usage_rows {
            put_varint(&mut usage, *app as u64);
        }
        for (_, (up, _)) in &usage_rows {
            put_varint(&mut usage, *up);
        }
        for (_, (_, down)) in &usage_rows {
            put_varint(&mut usage, *down);
        }

        let link = |rx: u64, tx: u64| LinkKey {
            rx_device: rx,
            tx_device: tx,
            band: Band::Ghz5,
        };
        let link_rows: [(LinkKey, &[(u64, f64)]); 4] = [
            (link(7, 1), &[(10, 0.5), (20, 0.25)]),
            (link(2, 1), &[(11, 1.0)]),
            (link(7, 1), &[(30, 0.75)]),
            (link(2, 0), &[]),
        ];
        let mut links = Vec::new();
        put_varint(&mut links, link_rows.len() as u64);
        for (key, _) in &link_rows {
            put_varint(&mut links, key.rx_device);
        }
        for (key, _) in &link_rows {
            put_varint(&mut links, key.tx_device);
        }
        for (key, _) in &link_rows {
            put_varint(&mut links, key.band as u64);
        }
        for (_, series) in &link_rows {
            put_varint(&mut links, series.len() as u64);
        }
        for (t, _) in link_rows.iter().flat_map(|(_, series)| series.iter()) {
            put_varint(&mut links, *t);
        }
        for (_, ratio) in link_rows.iter().flat_map(|(_, series)| series.iter()) {
            links.extend_from_slice(&ratio.to_le_bytes());
        }

        // (device, [((seq, slot), timestamp)]): device 5 twice, and
        // (seq 4, slot 0) twice inside its second appearance.
        type ScanRow = ((u64, u32), u64);
        let scan_rows: [(u64, &[ScanRow]); 3] = [
            (5, &[((1, 0), 100), ((0, 0), 101)]),
            (4, &[((2, 1), 102)]),
            (5, &[((4, 0), 103), ((3, 0), 104), ((4, 0), 105)]),
        ];
        let flat = || scan_rows.iter().flat_map(|(_, obs)| obs.iter());
        let mut scans = Vec::new();
        put_varint(&mut scans, scan_rows.len() as u64);
        for (device, _) in &scan_rows {
            put_varint(&mut scans, *device);
        }
        for (_, obs) in &scan_rows {
            put_varint(&mut scans, obs.len() as u64);
        }
        for ((seq, _), _) in flat() {
            put_varint(&mut scans, *seq);
        }
        for ((_, slot), _) in flat() {
            put_varint(&mut scans, u64::from(*slot));
        }
        for (_, t) in flat() {
            put_varint(&mut scans, *t);
        }
        // band 2.4 GHz, channel 6, utilization = decodable = networks = 7
        for column in [0u64, 6, 7, 7, 7] {
            for _ in flat() {
                put_varint(&mut scans, column);
            }
        }

        let mut expected = WindowTables::default();
        for (key, (up_bytes, down_bytes)) in usage_rows {
            expected.usage.insert(
                key,
                UsageTotals {
                    up_bytes,
                    down_bytes,
                },
            );
        }
        for (key, series) in link_rows {
            let series = series
                .iter()
                .map(|&(timestamp_s, ratio)| LinkObservation { timestamp_s, ratio })
                .collect();
            expected.links.insert(key, series);
        }
        for (device, obs) in scan_rows {
            let mut per_device = BTreeMap::new();
            for &(key, timestamp_s) in obs {
                per_device.insert(
                    key,
                    ScanObservation {
                        timestamp_s,
                        record: ChannelScanRecord {
                            channel: Channel::new(Band::Ghz2_4, 6).expect("channel 6 exists"),
                            utilization_ppm: 7,
                            decodable_ppm: 7,
                            networks: 7,
                        },
                    },
                );
            }
            expected.scans.insert(device, per_device);
        }
        assert_eq!(
            (
                expected.usage.len(),
                expected.links.len(),
                expected.scans[&5].len()
            ),
            (3, 3, 2),
            "the rows above must collide"
        );

        let image = framed_segment(
            table_rows(&expected),
            &[
                (BLOCK_USAGE, usage),
                (BLOCK_LINKS, links),
                (BLOCK_SCANS, scans),
            ],
        );
        let mut tally = DecodeTally::default();
        let decoded = decode_segment(&image, FRAMED, &mut tally).expect("valid CRCs and grammar");
        let expected =
            StoreShard::from_parts(HashMap::new(), 0, 0, BTreeMap::from([(W, expected)]));
        assert_eq!(
            encode_segment(&decoded, 1, 0, 1),
            encode_segment(&expected, 1, 0, 1)
        );
    }

    #[test]
    fn flattened_column_lengths_are_bounded_by_the_block() {
        // Two link keys whose series lengths each fit the bytes left but
        // whose sum does not: rejected before a column is sized from it.
        let mut links = vec![2, 1, 1, 0, 0, 1, 1, 9, 9];
        links.extend_from_slice(&[0; 9]);
        let image = framed_segment(18, &[(BLOCK_LINKS, links)]);
        let mut tally = DecodeTally::default();
        let err = decode_segment(&image, FRAMED, &mut tally).expect_err("sum exceeds block");
        assert!(
            matches!(
                err,
                SegmentError::Corrupt {
                    context: "link series lengths exceed block size"
                }
            ),
            "got {err}"
        );
    }

    #[test]
    fn persist_open_roundtrip_is_byte_stable() {
        let dir = temp_store_dir("roundtrip");
        let mut store = ShardedStore::new(3);
        let reports: Vec<Report> = (0..40).map(|d| usage_report(d, 0, d * 10 + 1)).collect();
        store.ingest_batch(W, &reports);
        store.ingest_batch(WindowId(1407), &reports[..7]);
        store.ingest_batch(W, &reports[..5]); // duplicates
        let stats = store.persist(&dir).expect("persist");
        assert_eq!(stats.segments_written, 3);
        assert!(stats.bytes_written > 0);

        let (reopened, recovery) = ShardedStore::open(&dir, StoreConfig::default()).expect("open");
        assert_eq!(recovery.epoch, store.epoch());
        assert_eq!(recovery.segments_loaded, 3);
        assert_eq!(recovery.wal_records_replayed, 0);
        assert!(!recovery.wal_stale);
        assert_eq!(reopened.shard_count(), 3, "manifest shard count wins");
        assert_eq!(reopened.epoch(), store.epoch());
        assert_eq!(reopened.reports_ingested(), store.reports_ingested());
        assert_eq!(reopened.duplicates_dropped(), store.duplicates_dropped());
        assert!(reopened.persistence().any());

        // Re-persisting the reopened store reproduces identical files.
        let dir2 = temp_store_dir("roundtrip-again");
        let mut reopened = reopened;
        reopened.persist(&dir2).expect("re-persist");
        assert_eq!(read_segment_files(&dir), read_segment_files(&dir2));

        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir2);
    }

    #[test]
    fn dedup_ledger_survives_reload() {
        let dir = temp_store_dir("dedup");
        let mut store = ShardedStore::new(2);
        store.ingest_batch(W, &[usage_report(1, 0, 10), usage_report(1, 1, 11)]);
        store.persist(&dir).expect("persist");
        let (mut reopened, _) = ShardedStore::open(&dir, StoreConfig::default()).expect("open");
        // Retransmissions of persisted sequences must still be dropped.
        assert_eq!(
            reopened.ingest_batch(W, &[usage_report(1, 0, 10), usage_report(1, 2, 12)]),
            1,
            "seq 0 is a duplicate, seq 2 is new"
        );
        assert_eq!(reopened.duplicates_dropped(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_of_missing_directory_yields_fresh_store() {
        let dir = temp_store_dir("missing");
        let (store, recovery) = ShardedStore::open(
            &dir,
            StoreConfig {
                shards: 5,
                threads: 1,
            },
        )
        .expect("open fresh");
        assert_eq!(store.shard_count(), 5, "config shapes a fresh store");
        assert_eq!(store.epoch(), 0);
        assert_eq!(recovery, RecoveryStats::default());
    }

    #[test]
    fn durable_store_recovers_unpersisted_tail() {
        let dir = temp_store_dir("tail");
        let mut durable = DurableStore::create(&dir, StoreConfig::default()).expect("create");
        durable.ingest_batch(W, &[usage_report(1, 0, 10), usage_report(2, 0, 20)]);
        durable.persist().expect("persist");
        // Two more batches reach only the tail log — no persist. Dropping
        // the store here is the crash.
        durable.ingest_batch(W, &[usage_report(3, 0, 30)]);
        durable.ingest_batch(WindowId(1407), &[usage_report(1, 0, 40)]);
        let expected_epoch = durable.store().epoch();
        let expected_ingested = durable.store().reports_ingested();
        assert!(durable.take_error().is_none(), "no deferred append error");
        drop(durable);

        let (recovered, recovery) =
            DurableStore::open(&dir, StoreConfig::default()).expect("recover");
        assert_eq!(recovery.wal_records_replayed, 2);
        assert_eq!(recovery.wal_reports_recovered, 2);
        assert_eq!(recovery.wal_bytes_discarded, 0);
        assert!(!recovery.wal_stale);
        assert_eq!(recovered.store().epoch(), expected_epoch);
        assert_eq!(recovered.store().reports_ingested(), expected_ingested);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_log_recovers_to_last_whole_record() {
        let dir = temp_store_dir("torn");
        let mut durable = DurableStore::create(&dir, StoreConfig::default()).expect("create");
        durable.ingest_batch(W, &[usage_report(1, 0, 10)]);
        durable.ingest_batch(W, &[usage_report(2, 0, 20)]);
        drop(durable);
        // Tear the final record mid-write.
        let wal_path = dir.join(WAL_NAME);
        let bytes = fs::read(&wal_path).expect("tail log readable");
        fs::write(&wal_path, &bytes[..bytes.len() - 3]).expect("truncate");

        let (recovered, recovery) =
            DurableStore::open(&dir, StoreConfig::default()).expect("recover");
        assert_eq!(recovery.wal_records_replayed, 1, "torn record dropped");
        assert!(recovery.wal_bytes_discarded > 0);
        assert_eq!(
            recovery.wal_valid_len + recovery.wal_bytes_discarded,
            (bytes.len() - 3) as u64,
            "discarded = everything past the last whole record"
        );
        assert_eq!(recovered.store().reports_ingested(), 1);
        // Appends resume cleanly after the recovered prefix; the once-torn
        // batch can be re-ingested and survives the next recovery whole.
        let mut recovered = recovered;
        recovered.ingest_batch(W, &[usage_report(2, 0, 20)]);
        drop(recovered);
        let (again, recovery) = DurableStore::open(&dir, StoreConfig::default()).expect("reopen");
        assert_eq!(recovery.wal_records_replayed, 2);
        assert_eq!(again.store().reports_ingested(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tail_log_is_skipped_not_replayed() {
        let dir = temp_store_dir("stale");
        let mut store = ShardedStore::new(1);
        store.ingest_batch(W, &[usage_report(1, 0, 10)]);
        store.persist(&dir).expect("persist");
        // Forge a tail log from before that persist: its records are
        // already folded into the committed segments.
        let mut forged = encode_wal_header(store.epoch() - 1);
        let mut scratch = Vec::new();
        forged.extend_from_slice(&encode_wal_record(
            W,
            &[usage_report(1, 0, 10)],
            &mut scratch,
        ));
        fs::write(dir.join(WAL_NAME), &forged).expect("forge tail log");

        let (reopened, recovery) = ShardedStore::open(&dir, StoreConfig::default()).expect("open");
        assert!(recovery.wal_stale);
        assert_eq!(recovery.wal_records_replayed, 0);
        assert!(recovery.wal_bytes_discarded > 0);
        assert_eq!(reopened.reports_ingested(), 1, "no double replay");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let dir = temp_store_dir("flip");
        let mut store = ShardedStore::new(1);
        store.ingest_batch(W, &[usage_report(7, 3, 300)]);
        store.persist(&dir).expect("persist");
        let files = read_segment_files(&dir);
        let bytes = &files[0].1;
        let expect = SegmentExpectation {
            epoch: 1,
            index: 0,
            count: 1,
        };
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xFF;
            let mut tally = DecodeTally::default();
            assert!(
                decode_segment(&corrupted, expect, &mut tally).is_err(),
                "flipping byte {i} went undetected"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_column_block_byte_surfaces_as_crc_error() {
        let dir = temp_store_dir("crc");
        let mut store = ShardedStore::new(1);
        store.ingest_batch(W, &[usage_report(7, 3, 300)]);
        store.persist(&dir).expect("persist");
        let files = read_segment_files(&dir);
        let mut bytes = files[0].1.clone();
        // Flip a byte inside the first block body (just past its
        // tag + length prefix): the block CRC must catch it.
        bytes[SEGMENT_HEADER_LEN + 2] ^= 0xFF;
        let mut tally = DecodeTally::default();
        let err = decode_segment(
            &bytes,
            SegmentExpectation {
                epoch: 1,
                index: 0,
                count: 1,
            },
            &mut tally,
        )
        .expect_err("corruption must not decode");
        assert!(
            matches!(err, SegmentError::Crc { .. }),
            "want Crc, got {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_schema_version_is_rejected_with_a_clear_message() {
        let dir = temp_store_dir("version");
        let mut store = ShardedStore::new(1);
        store.ingest_batch(W, &[usage_report(7, 3, 300)]);
        store.persist(&dir).expect("persist");
        let files = read_segment_files(&dir);
        let mut bytes = files[0].1.clone();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let mut tally = DecodeTally::default();
        let err = decode_segment(
            &bytes,
            SegmentExpectation {
                epoch: 1,
                index: 0,
                count: 1,
            },
            &mut tally,
        )
        .expect_err("future schema must not decode");
        assert!(matches!(
            err,
            SegmentError::Version {
                found: 99,
                supported: SEGMENT_SCHEMA_VERSION
            }
        ));
        let message = err.to_string();
        assert!(
            message.contains("version 99") && message.contains("docs/SEGMENT_FORMAT.md"),
            "message should name the version and the spec: {message}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_is_a_typed_error() {
        let dir = temp_store_dir("manifest");
        let mut store = ShardedStore::new(2);
        store.ingest_batch(W, &[usage_report(1, 0, 10)]);
        store.persist(&dir).expect("persist");
        let path = dir.join(MANIFEST_NAME);
        let mut bytes = fs::read(&path).expect("manifest readable");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).expect("rewrite manifest");
        let err = ShardedStore::open(&dir, StoreConfig::default())
            .expect_err("corrupt manifest must not open");
        assert!(matches!(
            err,
            SegmentError::Crc {
                context: "manifest",
                ..
            }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_version_matches_the_spec() {
        let spec = include_str!("../../../docs/SEGMENT_FORMAT.md");
        let pin = format!("SEGMENT_SCHEMA_VERSION: {SEGMENT_SCHEMA_VERSION}");
        assert!(
            spec.contains(&pin),
            "docs/SEGMENT_FORMAT.md must state the current schema version as `{pin}`; \
             bumping the constant requires updating the spec"
        );
    }
}

#[cfg(test)]
mod pinned_example {
    use super::tests::hex_dump_lines;
    use super::*;

    /// The spec's worked example (docs/SEGMENT_FORMAT.md §8): a
    /// one-shard store holding a single usage report — device `7`,
    /// sequence `3`, window `1501`, one Netflix record of 300 bytes up
    /// from MAC `00:04:06:00:00:07` — persisted at epoch 1.
    fn example_segment() -> Vec<u8> {
        use airstat_classify::mac::Oui;
        use airstat_telemetry::report::{ReportPayload, UsageRecord};
        let mut shard = StoreShard::default();
        shard.ingest(
            WindowId(1501),
            &Report {
                device: 7,
                seq: 3,
                timestamp_s: 0,
                payload: ReportPayload::Usage(vec![UsageRecord {
                    mac: MacAddress::from_id(Oui([2, 4, 6]), 7),
                    app: Application::Netflix,
                    up_bytes: 300,
                    down_bytes: 0,
                }]),
            },
        );
        encode_segment(&shard, 1, 0, 1)
    }

    /// The exact hex dump printed in docs/SEGMENT_FORMAT.md §8 for the
    /// example segment. Any byte-layout change shows up here first.
    const EXPECTED_SEGMENT: [&str; 6] = [
        "0000  41 53 45 47 02 00 00 00 01 00 00 00 00 00 00 00",
        "0010  00 00 00 00 01 00 00 00 01 00 00 00 dd 05 dd 05",
        "0020  01 00 00 00 00 00 00 00 f3 a0 20 53 01 02 dd 0b",
        "0030  cd 0e 38 39 02 0b 01 00 04 06 00 00 07 06 ac 02",
        "0040  00 c6 95 a8 31 09 07 01 dd 0b 07 00 01 03 fa c6",
        "0050  ad 22 0a 02 01 00 57 da 66 54 00 00 ff 12 d9 41",
    ];

    /// The manifest dump for the same example store: one shard whose
    /// delta chain holds a single 96-byte segment persisted at epoch 1.
    const EXPECTED_MANIFEST: [&str; 3] = [
        "0000  41 4d 41 4e 02 00 00 00 01 00 00 00 00 00 00 00",
        "0010  01 00 00 00 01 00 00 00 01 00 00 00 00 00 00 00",
        "0020  60 00 00 00 00 00 00 00 07 3c b4 cc",
    ];

    /// Pins the encoder to the spec's worked example three ways: the
    /// segment bytes, the manifest bytes, and the presence of every
    /// dump line verbatim in docs/SEGMENT_FORMAT.md — so the code, the
    /// constants above, and the prose can never drift apart silently.
    #[test]
    fn segment_format_doc_example_is_pinned() {
        let segment = example_segment();
        assert_eq!(
            hex_dump_lines(&segment),
            EXPECTED_SEGMENT,
            "example segment bytes diverged from docs/SEGMENT_FORMAT.md §8; \
             a byte-layout change requires a SEGMENT_SCHEMA_VERSION bump and a spec update"
        );

        let manifest = encode_manifest(
            1,
            &[vec![ManifestEntry {
                epoch: 1,
                len: segment.len() as u64,
            }]],
        );
        assert_eq!(
            hex_dump_lines(&manifest),
            EXPECTED_MANIFEST,
            "example manifest bytes diverged from docs/SEGMENT_FORMAT.md §8"
        );

        let spec = include_str!("../../../docs/SEGMENT_FORMAT.md");
        for line in EXPECTED_SEGMENT.iter().chain(EXPECTED_MANIFEST.iter()) {
            assert!(
                spec.contains(line),
                "docs/SEGMENT_FORMAT.md is missing the worked-example dump line `{line}`"
            );
        }

        // The example decodes back to the shard it came from.
        let mut tally = DecodeTally::default();
        let decoded = decode_segment(
            &segment,
            SegmentExpectation {
                epoch: 1,
                index: 0,
                count: 1,
            },
            &mut tally,
        )
        .expect("the spec's worked example must decode");
        assert_eq!(encode_segment(&decoded, 1, 0, 1), segment);
    }
}
