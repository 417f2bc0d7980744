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
//! * **Both directions go through the sealed layout.** A segment stores
//!   each table column-major, keys ascending, which is the order of the
//!   in-memory [`crate::columnar::ColumnarShard`]. The encoders write
//!   each shard's segment stack folded newest-wins, column by column, so
//!   a persist reads no row table; the decoders move the columns
//!   straight back into one, so a file decodes to the segment a seal
//!   would project from the shard that wrote it, and
//!   [`ShardedStore::open`] hands it to the shard's stack as sealed.
//!   Decode accepts only the layout the encoders write: keys out of
//!   order or repeated, and table blocks out of tag order or without
//!   rows, are [`SegmentError::Corrupt`].
//!   Row tables are built from it only when something needs rows (see
//!   [`crate::shard::StoreShard`]). The per-`(window, device)` dedup
//!   ledger and the accepted/duplicate counters are persisted too, so
//!   tail-log replay and post-reload ingest dedup exactly as the
//!   pre-crash store would have.
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
use airstat_rf::band::{Band, Channel};
use airstat_rf::phy::{Capabilities, Generation};
use airstat_telemetry::backend::{LinkKey, WindowId};
use airstat_telemetry::crash::{CrashReport, RebootReason};
use airstat_telemetry::report::Report;
use airstat_telemetry::wire::{put_varint, WireError};

use crate::columnar::{ColumnarShard, ColumnarWindow};
use crate::shard::{ClientMeta, SeqSet, StoreShard};
use crate::store::{ReportSink, SegmentStack, ShardedStore, StoreConfig};

/// Schema version written into every segment, manifest, and tail-log
/// header. Bump on any byte-level layout change; readers reject other
/// versions with [`SegmentError::Version`]. The value is pinned against
/// `docs/SEGMENT_FORMAT.md` by `schema_version_matches_the_spec`.
///
/// Version 2 gave the manifest a per-shard segment count; every
/// persist writes one segment per shard, and `read_store` refuses any
/// other count. Segment bytes themselves are unchanged from version 1
/// apart from the header's version field.
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
    /// unknown or out-of-grammar blocks, keys out of order,
    /// out-of-range enum discriminants, or a header summary that
    /// contradicts the decoded blocks.
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
    pub(crate) fn any(&self) -> bool {
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

/// Checks a stored CRC32 against the bytes it covers.
fn verify_crc(context: &'static str, stored: u32, covered: &[u8]) -> Result<(), SegmentError> {
    let computed = crc32(covered);
    if stored != computed {
        return Err(SegmentError::Crc {
            context,
            stored,
            computed,
        });
    }
    Ok(())
}

/// Appends the CRC32 of `out[from..]`, little-endian.
fn put_crc(out: &mut Vec<u8>, from: usize) {
    let crc = crc32(&out[from..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

// ---------------------------------------------------------------------
// Cursor: bounded reads over a guarded body
// ---------------------------------------------------------------------

/// The read half of the codec, in a module of its own so that a
/// [`Rows`] cannot be built anywhere else in this file.
mod cursor {
    use super::{corrupt, SegmentError, SEGMENT_SCHEMA_VERSION};
    use airstat_telemetry::wire::Reader;

    /// A row count already checked against the bytes left to read: every
    /// row it counts costs at least one byte that is really there. Only
    /// [`Cursor::rows`], [`Cursor::count`] and [`Cursor::total`] make
    /// one, and [`Cursor::col`] — the one place a decoder sizes an
    /// allocation from file contents — takes nothing else.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct Rows(usize);

    impl Rows {
        pub(super) fn get(self) -> usize {
            self.0
        }
    }

    /// A bounds-checked read cursor. Varints go through
    /// [`airstat_telemetry::wire::Reader`] — the segment format reuses
    /// the wire codec's integer encoding byte for byte.
    pub(super) struct Cursor<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Cursor<'a> {
        pub(super) fn new(buf: &'a [u8]) -> Self {
            Cursor { buf, pos: 0 }
        }

        pub(super) fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        pub(super) fn pos(&self) -> usize {
            self.pos
        }

        /// The bytes read since `mark`, an earlier [`Cursor::pos`].
        pub(super) fn since(&self, mark: usize) -> &'a [u8] {
            &self.buf[mark..self.pos]
        }

        /// Fails with `context` unless every byte has been read.
        pub(super) fn finish(&self, context: &'static str) -> Result<(), SegmentError> {
            if self.remaining() != 0 {
                return Err(corrupt(context));
            }
            Ok(())
        }

        pub(super) fn varint(&mut self) -> Result<u64, SegmentError> {
            let mut reader = Reader::new(&self.buf[self.pos..]);
            let v = reader.read_varint()?;
            self.pos = self.buf.len() - reader.remaining();
            Ok(v)
        }

        /// A varint that must fit the narrower integer type `T`.
        pub(super) fn narrow<T: TryFrom<u64>>(
            &mut self,
            context: &'static str,
        ) -> Result<T, SegmentError> {
            T::try_from(self.varint()?).map_err(|_| corrupt(context))
        }

        pub(super) fn take(
            &mut self,
            n: usize,
            context: &'static str,
        ) -> Result<&'a [u8], SegmentError> {
            if self.remaining() < n {
                return Err(corrupt(context));
            }
            let slice = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(slice)
        }

        pub(super) fn array<const N: usize>(
            &mut self,
            context: &'static str,
        ) -> Result<[u8; N], SegmentError> {
            let bytes = self.take(N, context)?;
            Ok(bytes
                .try_into()
                .expect("invariant: take(N) returned exactly N bytes"))
        }

        pub(super) fn f64(&mut self) -> Result<f64, SegmentError> {
            Ok(f64::from_le_bytes(self.array("truncated f64 column")?))
        }

        pub(super) fn u16_le(&mut self, context: &'static str) -> Result<u16, SegmentError> {
            Ok(u16::from_le_bytes(self.array(context)?))
        }

        pub(super) fn u32_le(&mut self, context: &'static str) -> Result<u32, SegmentError> {
            Ok(u32::from_le_bytes(self.array(context)?))
        }

        pub(super) fn u64_le(&mut self, context: &'static str) -> Result<u64, SegmentError> {
            Ok(u64::from_le_bytes(self.array(context)?))
        }

        /// Reads what every store file opens with — its magic, then the
        /// schema version — and rejects a file of another kind
        /// (`context` names the kind expected) or another version.
        pub(super) fn preamble(
            &mut self,
            magic: [u8; 4],
            context: &'static str,
        ) -> Result<(), SegmentError> {
            const SHORT: &str = "file shorter than its magic and version";
            if self.array::<4>(SHORT)? != magic {
                return Err(SegmentError::Magic { context });
            }
            let found = self.u32_le(SHORT)?;
            if found != SEGMENT_SCHEMA_VERSION {
                return Err(SegmentError::Version {
                    found,
                    supported: SEGMENT_SCHEMA_VERSION,
                });
            }
            Ok(())
        }

        /// Accepts `n`, read from the file, as a row count only if `n`
        /// rows of at least `min_bytes_per_row` each fit the bytes left,
        /// so a corrupt count is rejected before any allocation is sized
        /// from it.
        pub(super) fn rows(
            &self,
            n: u64,
            min_bytes_per_row: usize,
            context: &'static str,
        ) -> Result<Rows, SegmentError> {
            usize::try_from(n)
                .ok()
                .filter(|n| n.saturating_mul(min_bytes_per_row) <= self.remaining())
                .map(Rows)
                .ok_or_else(|| corrupt(context))
        }

        /// Reads a varint row count (see [`Rows`]).
        pub(super) fn count(
            &mut self,
            min_bytes_per_row: usize,
            context: &'static str,
        ) -> Result<Rows, SegmentError> {
            let n = self.varint()?;
            self.rows(n, min_bytes_per_row, context)
        }

        /// Sums per-key row counts into the length of the flattened
        /// columns that follow. Every flattened row costs at least one
        /// byte, so a sum past the bytes left is rejected (each count
        /// passed [`Cursor::count`] alone; their sum need not).
        pub(super) fn total(
            &self,
            lens: &[Rows],
            context: &'static str,
        ) -> Result<Rows, SegmentError> {
            lens.iter()
                .try_fold(0usize, |sum, n| sum.checked_add(n.0))
                .filter(|&total| total <= self.remaining())
                .map(Rows)
                .ok_or_else(|| corrupt(context))
        }

        /// Reads one column: `rows` values, each by `read_one`.
        pub(super) fn col<T>(
            &mut self,
            rows: Rows,
            mut read_one: impl FnMut(&mut Self) -> Result<T, SegmentError>,
        ) -> Result<Vec<T>, SegmentError> {
            self.col_indexed(rows, |cur, _| read_one(cur))
        }

        /// [`Cursor::col`] whose reader is told the row it is on, so a
        /// table's last column can be read straight into the finished
        /// rows beside the columns already held.
        pub(super) fn col_indexed<T>(
            &mut self,
            rows: Rows,
            mut read_one: impl FnMut(&mut Self, usize) -> Result<T, SegmentError>,
        ) -> Result<Vec<T>, SegmentError> {
            let mut col = Vec::with_capacity(rows.0);
            for row in 0..rows.0 {
                col.push(read_one(self, row)?);
            }
            Ok(col)
        }
    }
}

use cursor::{Cursor, Rows};

// ---------------------------------------------------------------------
// Field readers and enum discriminant round-trips
// ---------------------------------------------------------------------

/// Discriminant → variant lane table for an enum, built from its `ALL`
/// constant without assuming that constant is in discriminant order
/// (`OsFamily::ALL` is in Table 3 *display* order, so indexing it
/// directly would scramble identities).
fn lanes<T: Copy>(all: &[T], discriminant: impl Fn(T) -> usize) -> Vec<Option<T>> {
    let len = all.iter().map(|&v| discriminant(v) + 1).max().unwrap_or(0);
    let mut lanes = vec![None; len];
    for &variant in all {
        lanes[discriminant(variant)] = Some(variant);
    }
    lanes
}

/// Resolves discriminant `d` in `variants`, listed in discriminant order.
fn variant<T: Copy>(d: u64, variants: &[T], context: &'static str) -> Result<T, SegmentError> {
    usize::try_from(d)
        .ok()
        .and_then(|i| variants.get(i).copied())
        .ok_or_else(|| corrupt(context))
}

/// Reads one discriminant and resolves it through its lane table.
fn lane<T: Copy>(
    cur: &mut Cursor<'_>,
    lanes: &[Option<T>],
    context: &'static str,
) -> Result<T, SegmentError> {
    variant(cur.varint()?, lanes, context)?.ok_or_else(|| corrupt(context))
}

fn mac(cur: &mut Cursor<'_>) -> Result<MacAddress, SegmentError> {
    cur.array("truncated MAC column").map(MacAddress)
}

fn window_id(cur: &mut Cursor<'_>) -> Result<WindowId, SegmentError> {
    cur.narrow("window id out of range").map(WindowId)
}

fn band(cur: &mut Cursor<'_>) -> Result<Band, SegmentError> {
    let bands = [Band::Ghz2_4, Band::Ghz5];
    variant(cur.varint()?, &bands, "band discriminant out of range")
}

fn reason_from(code: u64) -> Result<RebootReason, SegmentError> {
    use RebootReason::{Fault, OutOfMemory, PowerLoss, Requested, Watchdog};
    let by_code = [OutOfMemory, Watchdog, Fault, Requested, PowerLoss];
    variant(code, &by_code, "reboot-reason code out of range")
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
    let generations = [Generation::B, Generation::G, Generation::N, Generation::Ac];
    let generation = variant(
        v & 0b11,
        &generations,
        "generation discriminant out of range",
    )?;
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

fn channel_from(band: Band, number: u64) -> Result<Channel, SegmentError> {
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
    put_crc(out, start);
}

/// A segment image being written: the bytes so far, and one scratch
/// buffer that every block body is built in before it is framed.
#[derive(Default)]
struct SegmentWriter {
    out: Vec<u8>,
    body: Vec<u8>,
}

impl SegmentWriter {
    fn block(&mut self, tag: u64, fill: impl FnOnce(&mut Vec<u8>)) {
        self.body.clear();
        fill(&mut self.body);
        put_block(&mut self.out, tag, &self.body);
    }

    /// Appends one table's block — its row count `rows`, then the
    /// window's columns for it as `encode` writes them — unless the
    /// table is empty.
    fn table(
        &mut self,
        tag: u64,
        rows: usize,
        window: &ColumnarWindow,
        encode: fn(&mut Vec<u8>, &ColumnarWindow),
    ) {
        if rows > 0 {
            self.block(tag, |body| {
                put_varint(body, rows as u64);
                encode(body, window);
            });
        }
    }
}

// ---------------------------------------------------------------------
// Table encoders (column-major bodies; docs/SEGMENT_FORMAT.md §4)
// ---------------------------------------------------------------------

/// Writes one column: every item of `items`, each by `put_one`. A table
/// body is its row count ([`SegmentWriter::table`] writes it) followed by
/// its columns, so each encoder below reads as the column list of
/// docs/SEGMENT_FORMAT.md §4, taken from the [`ColumnarWindow`] columns
/// that hold it.
fn put_col<T>(
    out: &mut Vec<u8>,
    items: impl IntoIterator<Item = T>,
    mut put_one: impl FnMut(&mut Vec<u8>, T),
) {
    for item in items {
        put_one(out, item);
    }
}

/// Writes an integer column as varints.
fn put_varints<T: Copy + Into<u64>>(out: &mut Vec<u8>, col: &[T]) {
    put_col(out, col, |o, v| put_varint(o, (*v).into()));
}

/// Writes a float column as little-endian `f64`s.
fn put_f64s(out: &mut Vec<u8>, col: &[f64]) {
    put_col(out, col, |o, v| o.extend_from_slice(&v.to_le_bytes()));
}

/// Writes a CSR table's per-key row counts, read off its offsets.
fn put_lens(out: &mut Vec<u8>, offsets: &[usize]) {
    put_col(out, offsets.windows(2), |o, pair| {
        put_varint(o, (pair[1] - pair[0]) as u64)
    });
}

/// Writes the provenance columns (`device`, `seq`, `slot`) that client
/// and census rows both carry; [`read_metas`] reads them back.
fn put_metas(out: &mut Vec<u8>, metas: &[ClientMeta]) {
    put_col(out, metas, |o, m| put_varint(o, m.device));
    put_col(out, metas, |o, m| put_varint(o, m.seq));
    put_col(out, metas, |o, m| put_varint(o, u64::from(m.slot)));
}

fn encode_usage(out: &mut Vec<u8>, w: &ColumnarWindow) {
    put_col(out, &w.usage_mac, |o, mac| o.extend_from_slice(&mac.0));
    put_col(out, &w.usage_app, |o, app| put_varint(o, *app as u64));
    put_varints(out, &w.usage_up);
    put_varints(out, &w.usage_down);
}

fn encode_clients(out: &mut Vec<u8>, w: &ColumnarWindow) {
    put_col(out, &w.client_mac, |o, mac| o.extend_from_slice(&mac.0));
    put_metas(out, &w.client_meta);
    put_col(out, &w.client_os, |o, os| put_varint(o, *os as u64));
    put_col(out, &w.client_caps, |o, caps| {
        put_varint(o, pack_caps(*caps))
    });
    put_col(out, &w.client_band, |o, band| put_varint(o, *band as u64));
    put_f64s(out, &w.client_rssi);
}

fn encode_links(out: &mut Vec<u8>, w: &ColumnarWindow) {
    put_col(out, &w.link_keys, |o, key| put_varint(o, key.rx_device));
    put_col(out, &w.link_keys, |o, key| put_varint(o, key.tx_device));
    put_col(out, &w.link_keys, |o, key| put_varint(o, key.band as u64));
    put_lens(out, &w.link_offsets);
    put_varints(out, &w.link_ts);
    put_f64s(out, &w.link_ratio);
}

fn encode_airtime(out: &mut Vec<u8>, w: &ColumnarWindow) {
    put_col(out, &w.airtime_key, |o, (device, _)| put_varint(o, *device));
    put_col(out, &w.airtime_key, |o, (_, band)| {
        put_varint(o, *band as u64)
    });
    put_varints(out, &w.airtime_elapsed);
    put_varints(out, &w.airtime_busy);
    put_varints(out, &w.airtime_wifi);
}

fn encode_neighbors(out: &mut Vec<u8>, w: &ColumnarWindow) {
    put_varints(out, &w.census_device);
    put_metas(out, &w.census_meta);
    put_lens(out, &w.census_offsets);
    put_col(out, &w.census_band, |o, band| put_varint(o, *band as u64));
    put_varints(out, &w.census_channel);
    put_varints(out, &w.census_networks);
    put_varints(out, &w.census_hotspots);
}

/// Writes the key columns of a keyed table (`device → (seq, slot) →
/// row`), the shape scans and crashes share: the device keys, each
/// device's row count, then over all rows flattened in key order the
/// `seq` column and the `slot` column. The value columns follow.
/// [`decode_keyed`] is the reader.
fn put_keyed(out: &mut Vec<u8>, devices: &[u64], offsets: &[usize], keys: &[(u64, u32)]) {
    put_varints(out, devices);
    put_lens(out, offsets);
    put_col(out, keys, |o, (seq, _)| put_varint(o, *seq));
    put_col(out, keys, |o, (_, slot)| put_varint(o, u64::from(*slot)));
}

fn encode_scans(out: &mut Vec<u8>, w: &ColumnarWindow) {
    put_keyed(out, &w.scan_device, &w.scan_offsets, &w.scan_key);
    put_varints(out, &w.scan_ts);
    put_col(out, &w.scan_channel, |o, c| put_varint(o, c.band as u64));
    put_col(out, &w.scan_channel, |o, c| {
        put_varint(o, u64::from(c.number))
    });
    put_varints(out, &w.scan_util_ppm);
    put_varints(out, &w.scan_decodable_ppm);
    put_varints(out, &w.scan_networks);
}

fn encode_crashes(out: &mut Vec<u8>, w: &ColumnarWindow) {
    put_keyed(out, &w.crash_device, &w.crash_offsets, &w.crash_key);
    let reports = &w.crash_rows;
    put_col(out, reports, |o, r| {
        put_varint(o, u64::from(r.reason.code()))
    });
    put_col(out, reports, |o, r| put_varint(o, r.program_counter));
    put_col(out, reports, |o, r| put_varint(o, r.uptime_s));
    put_col(out, reports, |o, r| put_varint(o, r.free_memory_bytes));
    put_col(out, reports, |o, r| {
        put_varint(o, r.firmware.len() as u64);
        o.extend_from_slice(r.firmware.as_bytes());
    });
}

fn encode_dedup(out: &mut Vec<u8>, entries: &[((WindowId, u64), &SeqSet)]) {
    put_varint(out, entries.len() as u64);
    put_col(out, entries, |o, ((window, _), _)| {
        put_varint(o, u64::from(window.0))
    });
    put_col(out, entries, |o, ((_, device), _)| put_varint(o, *device));
    put_col(out, entries, |o, (_, set)| put_varint(o, set.parts().0));
    put_col(out, entries, |o, (_, set)| {
        put_varint(o, set.parts().1.len() as u64)
    });
    let sparse = entries.iter().flat_map(|(_, set)| set.parts().1);
    put_col(out, sparse, |o, seq| put_varint(o, *seq));
}

/// Starts a store file: its magic, then the schema version (read back
/// by [`Cursor::preamble`]).
fn put_preamble(out: &mut Vec<u8>, magic: [u8; 4]) {
    out.extend_from_slice(&magic);
    out.extend_from_slice(&SEGMENT_SCHEMA_VERSION.to_le_bytes());
}

/// Rows a window contributes to the header's zone summary: the sum of
/// its usage cells, client identities, link observations, airtime
/// ledgers, census rows, scan observations and crash rows.
fn sealed_rows(w: &ColumnarWindow) -> u64 {
    (w.usage_mac.len()
        + w.client_mac.len()
        + w.link_ts.len()
        + w.airtime_key.len()
        + w.census_band.len()
        + w.scan_ts.len()
        + w.crash_rows.len()) as u64
}

/// The zone summary a segment header carries and decode re-verifies,
/// of `(window, rows)` in ascending window order: `(window count,
/// lowest window, highest window, total rows)`, all `0` when there are
/// no windows.
fn zone_summary(windows: impl Iterator<Item = (WindowId, u64)>) -> (u32, u16, u16, u64) {
    windows.fold((0, 0, 0, 0), |(n, lowest, _, total), (window, rows)| {
        let lowest = if n == 0 { window.0 } else { lowest };
        (n + 1, lowest, window.0, total + rows)
    })
}

/// Encodes one shard as a complete segment byte image
/// (docs/SEGMENT_FORMAT.md §§2–4): the rows of its segment `stack`
/// folded newest-wins ([`ColumnarShard::fold`]), then its dedup ledger
/// and counters. A window is written for every window the dedup ledger
/// names — every window an accepted report entered, including one that
/// took only row-less payloads, which a stack need not hold (a seal
/// delta skips it and compaction drops it) — and for any other the
/// stack holds.
pub(crate) fn encode_segment(
    shard: &StoreShard,
    stack: &[Arc<ColumnarShard>],
    epoch: u64,
    index: u32,
    count: u32,
) -> Vec<u8> {
    let folded = ColumnarShard::fold(stack);
    let dedup = shard.dedup_entries();
    let mut ids: BTreeSet<WindowId> = dedup.iter().map(|&((window, _), _)| window).collect();
    ids.extend(folded.keys());
    let row_less = ColumnarWindow::empty();
    let windows: Vec<(WindowId, &ColumnarWindow)> = ids
        .into_iter()
        .map(|window| (window, folded.get(&window).map_or(&row_less, |c| &**c)))
        .collect();

    let (window_count, min_window, max_window, total_rows) =
        zone_summary(windows.iter().map(|&(window, c)| (window, sealed_rows(c))));
    let mut w = SegmentWriter::default();
    put_preamble(&mut w.out, SEGMENT_MAGIC);
    w.out.extend_from_slice(&epoch.to_le_bytes());
    w.out.extend_from_slice(&index.to_le_bytes());
    w.out.extend_from_slice(&count.to_le_bytes());
    w.out.extend_from_slice(&window_count.to_le_bytes());
    w.out.extend_from_slice(&min_window.to_le_bytes());
    w.out.extend_from_slice(&max_window.to_le_bytes());
    w.out.extend_from_slice(&total_rows.to_le_bytes());
    put_crc(&mut w.out, 0);
    debug_assert_eq!(w.out.len(), SEGMENT_HEADER_LEN);

    for (window, c) in windows {
        w.block(BLOCK_WINDOW, |body| put_varint(body, u64::from(window.0)));
        w.table(BLOCK_USAGE, c.usage_mac.len(), c, encode_usage);
        w.table(BLOCK_CLIENTS, c.client_mac.len(), c, encode_clients);
        w.table(BLOCK_LINKS, c.link_keys.len(), c, encode_links);
        w.table(BLOCK_AIRTIME, c.airtime_key.len(), c, encode_airtime);
        w.table(BLOCK_NEIGHBORS, c.census_device.len(), c, encode_neighbors);
        w.table(BLOCK_SCANS, c.scan_device.len(), c, encode_scans);
        w.table(BLOCK_CRASHES, c.crash_device.len(), c, encode_crashes);
    }
    w.block(BLOCK_DEDUP, |body| encode_dedup(body, &dedup));
    w.block(BLOCK_COUNTERS, |body| {
        put_varint(body, shard.reports_ingested());
        put_varint(body, shard.duplicates_dropped());
    });
    w.block(BLOCK_END, |_| {});
    w.out
}

// ---------------------------------------------------------------------
// Table decoders
// ---------------------------------------------------------------------
//
// Every decoder reads its table's columns whole ([`Cursor::col`]) and
// moves them into the window's sealed columns
// ([`crate::columnar::ColumnarWindow`]) as they stand. That holds only
// for the layout the encoders write, keys strictly ascending, so once a
// table's columns are read (a count or length error surfaces first)
// [`ascending`] refuses any other order as `Corrupt`, naming the table
// (pinned by `out_of_order_and_repeated_keys_are_refused` and its
// sibling for the other four tables).

/// Fails with `context` unless the keys of an `n`-row table, `key(i)`
/// for row `i`, are strictly ascending.
fn ascending<K: Ord>(
    n: usize,
    key: impl Fn(usize) -> K,
    context: &'static str,
) -> Result<(), SegmentError> {
    if (1..n).all(|i| key(i - 1) < key(i)) {
        Ok(())
    } else {
        Err(corrupt(context))
    }
}

/// CSR offsets (`len + 1` entries from 0) from per-key row counts.
fn offsets_of(lens: &[Rows]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(lens.len() + 1);
    offsets.push(0);
    for len in lens {
        offsets.push(offsets[offsets.len() - 1] + len.get());
    }
    offsets
}

/// Reads the columns [`put_metas`] wrote.
fn read_metas(
    cur: &mut Cursor<'_>,
    n: Rows,
    slot_context: &'static str,
) -> Result<Vec<ClientMeta>, SegmentError> {
    let devices = cur.col(n, Cursor::varint)?;
    let seqs = cur.col(n, Cursor::varint)?;
    let slots = cur.col(n, |c| c.narrow(slot_context))?;
    let meta = |((device, seq), slot)| ClientMeta { device, seq, slot };
    Ok(devices.into_iter().zip(seqs).zip(slots).map(meta).collect())
}

fn decode_usage(
    cur: &mut Cursor<'_>,
    apps: &[Option<Application>],
    w: &mut ColumnarWindow,
) -> Result<(), SegmentError> {
    let n = cur.count(9, "usage row count exceeds block size")?;
    w.usage_mac = cur.col(n, mac)?;
    w.usage_app = cur.col(n, |c| {
        lane(c, apps, "application discriminant out of range")
    })?;
    w.usage_up = cur.col(n, Cursor::varint)?;
    w.usage_down = cur.col(n, Cursor::varint)?;
    let key = |i: usize| (w.usage_mac[i], w.usage_app[i]);
    ascending(n.get(), key, "usage keys not strictly ascending")
}

fn decode_clients(
    cur: &mut Cursor<'_>,
    oses: &[Option<OsFamily>],
    w: &mut ColumnarWindow,
) -> Result<(), SegmentError> {
    let n = cur.count(6 + 6 + 8, "client row count exceeds block size")?;
    w.client_mac = cur.col(n, mac)?;
    w.client_meta = read_metas(cur, n, "client slot out of range")?;
    w.client_os = cur.col(n, |c| lane(c, oses, "OS-family discriminant out of range"))?;
    w.client_caps = cur.col(n, |c| unpack_caps(c.varint()?))?;
    w.client_band = cur.col(n, band)?;
    w.client_rssi = cur.col(n, Cursor::f64)?;
    let key = |i: usize| w.client_mac[i];
    ascending(n.get(), key, "client keys not strictly ascending")
}

fn decode_links(cur: &mut Cursor<'_>, w: &mut ColumnarWindow) -> Result<(), SegmentError> {
    let k = cur.count(4, "link key count exceeds block size")?;
    let rx = cur.col(k, Cursor::varint)?;
    let tx = cur.col(k, Cursor::varint)?;
    w.link_keys = cur.col_indexed(k, |c, i| {
        Ok(LinkKey {
            rx_device: rx[i],
            tx_device: tx[i],
            band: band(c)?,
        })
    })?;
    let lens = cur.col(k, |c| c.count(1, "link series length exceeds block size"))?;
    let total = cur.total(&lens, "link series lengths exceed block size")?;
    w.link_ts = cur.col(total, Cursor::varint)?;
    w.link_ratio = cur.col(total, Cursor::f64)?;
    w.link_offsets = offsets_of(&lens);
    let key = |i: usize| w.link_keys[i];
    ascending(k.get(), key, "link keys not strictly ascending")
}

fn decode_airtime(cur: &mut Cursor<'_>, w: &mut ColumnarWindow) -> Result<(), SegmentError> {
    let n = cur.count(5, "airtime row count exceeds block size")?;
    let devices = cur.col(n, Cursor::varint)?;
    w.airtime_key = cur.col_indexed(n, |c, i| Ok((devices[i], band(c)?)))?;
    let elapsed = cur.col(n, Cursor::varint)?;
    let busy = cur.col(n, Cursor::varint)?;
    w.airtime_wifi = cur.col_indexed(n, |c, i| {
        let wifi = c.varint()?;
        // The ledger's own invariant; `unpack` restores each ledger
        // with one `account` call, which is exact only under it.
        if busy[i] > elapsed[i] || wifi > busy[i] {
            return Err(corrupt(
                "airtime ledger violates busy ≤ elapsed, wifi ≤ busy",
            ));
        }
        Ok(wifi)
    })?;
    w.airtime_elapsed = elapsed;
    w.airtime_busy = busy;
    let key = |i: usize| w.airtime_key[i];
    ascending(n.get(), key, "airtime keys not strictly ascending")
}

fn decode_neighbors(cur: &mut Cursor<'_>, w: &mut ColumnarWindow) -> Result<(), SegmentError> {
    let d = cur.count(5, "neighbor device count exceeds block size")?;
    w.census_device = cur.col(d, Cursor::varint)?;
    w.census_meta = read_metas(cur, d, "neighbor slot out of range")?;
    let lens = cur.col(d, |c| c.count(1, "census row count exceeds block size"))?;
    let total = cur.total(&lens, "census row counts exceed block size")?;
    w.census_band = cur.col(total, band)?;
    w.census_channel = cur.col(total, |c| c.narrow("channel number out of range"))?;
    w.census_networks = cur.col(total, |c| c.narrow("network count out of range"))?;
    w.census_hotspots = cur.col(total, |c| c.narrow("hotspot count out of range"))?;
    w.census_offsets = offsets_of(&lens);
    let key = |i: usize| w.census_device[i];
    ascending(d.get(), key, "census devices not strictly ascending")
}

/// A keyed table as [`put_keyed`] framed it, in the sealed layout: the
/// device column, the CSR offsets, each row's `(seq, slot)` key, and
/// what `values` returned after reading the value columns.
struct KeyedColumns<V> {
    devices: Vec<u64>,
    offsets: Vec<usize>,
    keys: Vec<(u64, u32)>,
    values: V,
}

/// Reads a keyed table, refusing it with `order[0]` unless its devices
/// are strictly ascending and with `order[1]` unless each device's
/// `(seq, slot)` keys are.
fn decode_keyed<V>(
    cur: &mut Cursor<'_>,
    order: [&'static str; 2],
    values: impl FnOnce(&mut Cursor<'_>, Rows, &[u64], &[Rows]) -> Result<V, SegmentError>,
) -> Result<KeyedColumns<V>, SegmentError> {
    let d = cur.count(2, "keyed-table device count exceeds block size")?;
    let devices = cur.col(d, Cursor::varint)?;
    let lens = cur.col(d, |c| {
        c.count(1, "keyed-table row count exceeds block size")
    })?;
    let total = cur.total(&lens, "keyed-table row counts exceed block size")?;
    let seqs = cur.col(total, Cursor::varint)?;
    let keys = cur.col_indexed(total, |c, j| {
        Ok((seqs[j], c.narrow("keyed-table slot out of range")?))
    })?;
    let values = values(cur, total, &devices, &lens)?;
    let offsets = offsets_of(&lens);
    ascending(d.get(), |i| devices[i], order[0])?;
    for group in offsets.windows(2) {
        if !keys[group[0]..group[1]].windows(2).all(|p| p[0] < p[1]) {
            return Err(corrupt(order[1]));
        }
    }
    Ok(KeyedColumns {
        devices,
        offsets,
        keys,
        values,
    })
}

fn decode_scans(cur: &mut Cursor<'_>, w: &mut ColumnarWindow) -> Result<(), SegmentError> {
    let order = [
        "scan devices not strictly ascending",
        "scan (seq, slot) keys not strictly ascending within a device",
    ];
    let table = decode_keyed(cur, order, |cur, total, _, _| {
        w.scan_ts = cur.col(total, Cursor::varint)?;
        let bands = cur.col(total, band)?;
        w.scan_channel = cur.col_indexed(total, |c, j| channel_from(bands[j], c.varint()?))?;
        w.scan_util_ppm = cur.col(total, |c| c.narrow("utilization out of range"))?;
        w.scan_decodable_ppm = cur.col(total, |c| c.narrow("decodable share out of range"))?;
        w.scan_networks = cur.col(total, |c| c.narrow("network count out of range"))?;
        Ok(())
    })?;
    w.scan_device = table.devices;
    w.scan_offsets = table.offsets;
    w.scan_key = table.keys;
    Ok(())
}

/// The rows of a crash table, each report's device filled in from the
/// key it is filed under.
fn decode_crashes(cur: &mut Cursor<'_>, w: &mut ColumnarWindow) -> Result<(), SegmentError> {
    let order = [
        "crash devices not strictly ascending",
        "crash (seq, slot) keys not strictly ascending within a device",
    ];
    let values = |cur: &mut Cursor<'_>, total: Rows, devices: &[u64], lens: &[Rows]| {
        let filer = devices
            .iter()
            .zip(lens)
            .flat_map(|(&device, len)| std::iter::repeat(device).take(len.get()))
            .collect::<Vec<u64>>();
        let reasons = cur.col(total, |c| reason_from(c.varint()?))?;
        let pcs = cur.col(total, Cursor::varint)?;
        let uptimes = cur.col(total, Cursor::varint)?;
        let free_memory = cur.col(total, Cursor::varint)?;
        cur.col_indexed(total, |c, j| {
            let len = c.count(1, "firmware string length exceeds block size")?;
            let bytes = c.take(len.get(), "truncated firmware string")?;
            let firmware = std::str::from_utf8(bytes)
                .map_err(|_| corrupt("firmware string is not UTF-8"))?
                .to_string();
            Ok(CrashReport {
                device: filer[j],
                firmware,
                reason: reasons[j],
                program_counter: pcs[j],
                uptime_s: uptimes[j],
                free_memory_bytes: free_memory[j],
            })
        })
    };
    let table = decode_keyed(cur, order, values)?;
    w.crash_device = table.devices;
    w.crash_offsets = table.offsets;
    w.crash_key = table.keys;
    w.crash_rows = table.values;
    Ok(())
}

// airstat::allow(no-hashmap-iter): returns the shard's keyed-access
// ledger type; canonical order is enforced on the segment bytes.
fn decode_dedup(cur: &mut Cursor<'_>) -> Result<HashMap<(WindowId, u64), SeqSet>, SegmentError> {
    let n = cur.count(4, "dedup entry count exceeds block size")?;
    let windows = cur.col(n, window_id)?;
    let devices = cur.col(n, Cursor::varint)?;
    let watermarks = cur.col(n, Cursor::varint)?;
    let lens = cur.col(n, |c| c.count(1, "sparse tail length exceeds block size"))?;
    let mut map = HashMap::with_capacity(n.get());
    for i in 0..n.get() {
        let key = (windows[i], devices[i]);
        if i > 0 && key <= (windows[i - 1], devices[i - 1]) {
            return Err(corrupt(
                "dedup entries not in ascending (window, device) order",
            ));
        }
        let mut sparse = BTreeSet::new();
        let mut previous = watermarks[i];
        for _ in 0..lens[i].get() {
            let seq = cur.varint()?;
            if seq <= previous {
                return Err(corrupt("sparse dedup tail not strictly ascending"));
            }
            previous = seq;
            sparse.insert(seq);
        }
        map.insert(key, SeqSet::from_parts(watermarks[i], sparse));
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
/// magic, version, every CRC, the block grammar, each table's key
/// order, and the header's zone-map summary. Each table block lands in the columns of a
/// [`ColumnarWindow`], so the shard holds its rows as the segment
/// [`ColumnarShard::build`] would project from the shard the file was
/// written from, and builds no row table until something needs rows.
pub(crate) fn decode_segment(
    bytes: &[u8],
    expect: SegmentExpectation,
    tally: &mut DecodeTally,
) -> Result<StoreShard, SegmentError> {
    const HEADER: &str = "truncated segment header";
    let mut cur = Cursor::new(bytes);
    cur.preamble(SEGMENT_MAGIC, "segment")?;
    let epoch = cur.u64_le(HEADER)?;
    let index = cur.u32_le(HEADER)?;
    let count = cur.u32_le(HEADER)?;
    let window_count = cur.u32_le(HEADER)?;
    let min_window = cur.u16_le(HEADER)?;
    let max_window = cur.u16_le(HEADER)?;
    let total_rows = cur.u64_le(HEADER)?;
    let header = cur.since(0);
    tally.crc_checks += 1;
    verify_crc("segment header", cur.u32_le(HEADER)?, header)?;
    if epoch != expect.epoch || index != expect.index || count != expect.count {
        return Err(corrupt("segment header disagrees with the manifest"));
    }

    let apps = lanes(Application::ALL, |app| app as usize);
    let oses = lanes(&OsFamily::ALL, |os| os as usize);
    // Windows arrive ascending, so the one being filled is the last.
    let mut windows: BTreeMap<WindowId, ColumnarWindow> = BTreeMap::new();
    // airstat::allow(no-hashmap-iter): holds decode_dedup's keyed-access
    // result until from_parts; never iterated here.
    let mut dedup: Option<HashMap<(WindowId, u64), SeqSet>> = None;
    let mut counters: Option<(u64, u64)> = None;
    // The tag of the window's last table block, or of the window block.
    let mut last_table = BLOCK_WINDOW;
    loop {
        let block_start = cur.pos();
        let tag = cur.varint()?;
        let len = cur.count(1, "block length exceeds file size")?;
        let body = cur.take(len.get(), "truncated block body")?;
        let framed = cur.since(block_start);
        tally.crc_checks += 1;
        let stored = cur.u32_le("truncated block checksum")?;
        verify_crc("column block", stored, framed)?;
        let mut block = Cursor::new(body);
        match tag {
            BLOCK_END => {}
            BLOCK_DEDUP if dedup.is_none() => dedup = Some(decode_dedup(&mut block)?),
            BLOCK_DEDUP => return Err(corrupt("duplicate dedup block")),
            BLOCK_COUNTERS if counters.is_none() => {
                counters = Some((block.varint()?, block.varint()?));
            }
            BLOCK_COUNTERS => return Err(corrupt("duplicate counters block")),
            _ if dedup.is_some() || counters.is_some() => {
                return Err(corrupt("window or table block after shard-level blocks"));
            }
            BLOCK_WINDOW => {
                let window = window_id(&mut block)?;
                let last = windows.keys().next_back();
                if last.is_some_and(|&last| window <= last) {
                    return Err(corrupt("windows not in ascending order"));
                }
                windows.insert(window, ColumnarWindow::empty());
                last_table = BLOCK_WINDOW;
            }
            BLOCK_USAGE..=BLOCK_CRASHES => {
                let Some(w) = windows.values_mut().next_back() else {
                    return Err(corrupt("table block outside a window"));
                };
                // The encoder writes a window's non-empty tables only,
                // in tag order (docs/SEGMENT_FORMAT.md §3).
                if tag <= last_table {
                    return Err(corrupt("table blocks not in ascending tag order"));
                }
                last_table = tag;
                if Cursor::new(body).varint()? == 0 {
                    return Err(corrupt("table block with no rows"));
                }
                let b = &mut block;
                match tag {
                    BLOCK_USAGE => decode_usage(b, &apps, w)?,
                    BLOCK_CLIENTS => decode_clients(b, &oses, w)?,
                    BLOCK_LINKS => decode_links(b, w)?,
                    BLOCK_AIRTIME => decode_airtime(b, w)?,
                    BLOCK_NEIGHBORS => decode_neighbors(b, w)?,
                    BLOCK_SCANS => decode_scans(b, w)?,
                    _ => decode_crashes(b, w)?,
                }
            }
            _ => return Err(corrupt("unknown block tag")),
        }
        block.finish("trailing bytes in block")?;
        if tag == BLOCK_END {
            break;
        }
    }
    cur.finish("trailing bytes after end block")?;
    let Some(seen) = dedup else {
        return Err(corrupt("segment is missing its dedup block"));
    };
    let Some((reports_ingested, duplicates_dropped)) = counters else {
        return Err(corrupt("segment is missing its counters block"));
    };
    // Re-verify the header's zone-map summary against the decoded rows.
    let decoded = zone_summary(windows.iter().map(|(&window, w)| (window, sealed_rows(w))));
    if decoded != (window_count, min_window, max_window, total_rows) {
        return Err(corrupt("zone-map summary disagrees with decoded blocks"));
    }
    Ok(StoreShard::from_sealed(
        seen,
        duplicates_dropped,
        reports_ingested,
        ColumnarShard { windows },
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

/// Reads a whole store file, or `None` when there is no such file.
fn read_if_present(path: &Path, context: &'static str) -> Result<Option<Vec<u8>>, SegmentError> {
    match fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err(context)(e)),
    }
}

/// Deletes every segment file in `dir` that `live` does not claim, and
/// every orphaned `.tmp`. Best-effort: a leftover file is garbage, not
/// corruption.
fn sweep(dir: &Path, live: impl Fn(&str) -> bool) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_segment = name.ends_with(".aseg") && !live(name);
        if stale_segment || name.ends_with(".tmp") {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Syncs `dir` itself, so that the renames into it so far survive a
/// power cut: under POSIX a rename is durable only once its directory
/// is synced.
fn sync_dir(dir: &Path) -> Result<(), SegmentError> {
    fs::File::open(dir)
        .and_then(|dir| dir.sync_all())
        .map_err(io_err("sync store directory"))
}

/// One shard's segment as the manifest names it: the epoch it was
/// persisted at (which names its file — see [`segment_file_name`]) and
/// its byte length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ManifestEntry {
    /// Persist epoch the segment was written at.
    pub(crate) epoch: u64,
    /// Byte length of the segment file.
    pub(crate) len: u64,
}

/// Encodes the manifest: the store epoch, then per shard, in shard
/// order, a segment count of 1 and that segment's entry.
fn encode_manifest(epoch: u64, entries: &[ManifestEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    put_preamble(&mut out, MANIFEST_MAGIC);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for entry in entries {
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&entry.epoch.to_le_bytes());
        out.extend_from_slice(&entry.len.to_le_bytes());
    }
    put_crc(&mut out, 0);
    out
}

/// Parses a manifest into the store's committed epoch and each shard's
/// segment. A shard listing any other number of segments than one is
/// refused.
fn decode_manifest(
    bytes: &[u8],
    tally: &mut DecodeTally,
) -> Result<(u64, Vec<ManifestEntry>), SegmentError> {
    let mut cur = Cursor::new(bytes);
    cur.preamble(MANIFEST_MAGIC, "manifest")?;
    let epoch = cur.u64_le("truncated manifest")?;
    let shards = u64::from(cur.u32_le("truncated manifest")?);
    let shards = cur.rows(shards, 20, "manifest shard count exceeds file size")?;
    if shards.get() == 0 {
        return Err(corrupt("manifest lists no shard"));
    }
    let entries = cur.col(shards, |c| {
        if c.u32_le("truncated manifest segment count")? != 1 {
            return Err(corrupt("manifest shard does not list exactly one segment"));
        }
        Ok(ManifestEntry {
            epoch: c.u64_le("truncated manifest entry")?,
            len: c.u64_le("truncated manifest entry")?,
        })
    })?;
    let stored = cur.u32_le("truncated manifest checksum")?;
    tally.crc_checks += 1;
    verify_crc("manifest", stored, &bytes[..bytes.len() - 4])?;
    cur.finish("trailing bytes in manifest")?;
    Ok((epoch, entries))
}

/// Persists every shard whole into `dir` — one segment each, encoded
/// from its segment stack ([`encode_segment`]) — and the manifest naming
/// them, then resets the tail log (docs/SEGMENT_FORMAT.md §6). Returns
/// what was written.
///
/// Write order is the atomicity argument: every epoch-named segment is
/// written and renamed first, then the manifest rename commits the new
/// set, then segment files it no longer references are deleted and the
/// tail log is reset. The directory is synced before the manifest
/// rename, so the segments it names are in place, and after it, so no
/// unlink or tail-log reset can outlive the commit it follows. A crash
/// before the manifest rename leaves the old store intact (new segments
/// are unreferenced garbage, cleaned next persist); a crash after it
/// leaves the new store committed and at worst a stale tail log, which
/// `open` detects by epoch and skips.
pub(crate) fn write_store(
    shards: &[Arc<StoreShard>],
    stacks: &[SegmentStack],
    epoch: u64,
    dir: &Path,
) -> Result<PersistenceStats, SegmentError> {
    fs::create_dir_all(dir).map_err(io_err("create store directory"))?;
    let count = u32::try_from(shards.len()).map_err(|_| corrupt("too many shards to persist"))?;
    let mut stats = PersistenceStats::default();
    let mut entries = Vec::with_capacity(shards.len());
    for (i, (shard, stack)) in shards.iter().zip(stacks).enumerate() {
        let bytes = encode_segment(shard, stack.segments(), epoch, i as u32, count);
        write_atomic(&dir.join(segment_file_name(epoch, i as u32)), &bytes)?;
        stats.segments_written += 1;
        stats.bytes_written += bytes.len() as u64;
        entries.push(ManifestEntry {
            epoch,
            len: bytes.len() as u64,
        });
    }
    let manifest = encode_manifest(epoch, &entries);
    sync_dir(dir)?;
    write_atomic(&dir.join(MANIFEST_NAME), &manifest)?;
    sync_dir(dir)?;
    stats.bytes_written += manifest.len() as u64;

    // The new set is committed; delete segments it no longer references.
    let live: Vec<String> = (0..count).map(|i| segment_file_name(epoch, i)).collect();
    sweep(dir, |name| live.iter().any(|live| live == name));
    // Everything the tail log held is now in the committed segments.
    let wal = encode_wal_header(epoch);
    write_atomic(&dir.join(WAL_NAME), &wal)?;
    stats.bytes_written += wal.len() as u64;
    Ok(stats)
}

/// What `read_store` recovered from the committed segment set.
#[derive(Debug)]
pub(crate) struct LoadedStore {
    pub(crate) epoch: u64,
    pub(crate) shards: Vec<StoreShard>,
    pub(crate) bytes_read: u64,
    pub(crate) crc_checks: u64,
}

/// Reads the committed segment set named by the manifest, if one
/// exists. `Ok(None)` means a fresh directory (no manifest). Each
/// shard's segment decodes into the sealed layout (see
/// [`decode_segment`]).
pub(crate) fn read_store(dir: &Path) -> Result<Option<LoadedStore>, SegmentError> {
    let Some(manifest_bytes) = read_if_present(&dir.join(MANIFEST_NAME), "read manifest")? else {
        return Ok(None);
    };
    let mut tally = DecodeTally::default();
    let mut bytes_read = manifest_bytes.len() as u64;
    let (epoch, entries) = decode_manifest(&manifest_bytes, &mut tally)?;
    let count =
        u32::try_from(entries.len()).map_err(|_| corrupt("manifest shard count out of range"))?;
    let mut shards = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let name = segment_file_name(entry.epoch, i as u32);
        let bytes = fs::read(dir.join(&name)).map_err(io_err("read segment file"))?;
        if bytes.len() as u64 != entry.len {
            return Err(corrupt("segment length disagrees with the manifest"));
        }
        bytes_read += bytes.len() as u64;
        shards.push(decode_segment(
            &bytes,
            SegmentExpectation {
                epoch: entry.epoch,
                index: i as u32,
                count,
            },
            &mut tally,
        )?);
    }
    Ok(Some(LoadedStore {
        epoch,
        shards,
        bytes_read,
        crc_checks: tally.crc_checks,
    }))
}

// ---------------------------------------------------------------------
// Tail log (write-ahead record log)
// ---------------------------------------------------------------------

fn encode_wal_header(base_epoch: u64) -> Vec<u8> {
    let mut out = Vec::new();
    put_preamble(&mut out, WAL_MAGIC);
    out.extend_from_slice(&base_epoch.to_le_bytes());
    put_crc(&mut out, 0);
    debug_assert_eq!(out.len(), WAL_HEADER_LEN);
    out
}

/// Encodes one tail-log record body: the window, then each report's
/// wire encoding ([`Report::encode`]) length-prefixed.
fn encode_wal_record(window: WindowId, reports: &[Report], scratch: &mut Vec<u8>) -> Vec<u8> {
    let mut out = vec![0; 4]; // the body length, known once the body is written
    put_varint(&mut out, u64::from(window.0));
    put_varint(&mut out, reports.len() as u64);
    let mut field_scratch = Vec::new();
    for report in reports {
        scratch.clear();
        report.encode_into(scratch, &mut field_scratch);
        put_varint(&mut out, scratch.len() as u64);
        out.extend_from_slice(scratch);
    }
    let body_len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&body_len.to_le_bytes());
    put_crc(&mut out, 4);
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
    match read_if_present(&dir.join(WAL_NAME), "read tail log")? {
        Some(bytes) => decode_wal(&bytes, expected_base),
        None => Ok(WalReplay::default()),
    }
}

/// The body of the next whole record — `length u32 LE · body ·
/// crc32(body) u32 LE` — or `None` at the end of the log and at a torn
/// length prefix, body or checksum.
fn next_wal_record<'a>(cur: &mut Cursor<'a>) -> Option<&'a [u8]> {
    let len = cur.u32_le("torn record").ok()?;
    let body = cur.take(len as usize, "torn record").ok()?;
    let stored = cur.u32_le("torn record").ok()?;
    (crc32(body) == stored).then_some(body)
}

/// [`read_wal`] over the log's bytes.
fn decode_wal(bytes: &[u8], expected_base: u64) -> Result<WalReplay, SegmentError> {
    const HEADER: &str = "truncated tail-log header";
    let mut cur = Cursor::new(bytes);
    cur.preamble(WAL_MAGIC, "tail log")?;
    let base_epoch = cur.u64_le(HEADER)?;
    let header = cur.since(0);
    verify_crc("tail-log header", cur.u32_le(HEADER)?, header)?;
    let mut replay = WalReplay {
        valid_len: WAL_HEADER_LEN as u64,
        ..WalReplay::default()
    };
    if base_epoch != expected_base {
        replay.stale = true;
        replay.bytes_discarded = cur.remaining() as u64;
        return Ok(replay);
    }
    while let Some(body) = next_wal_record(&mut cur) {
        // A CRC-valid record must parse; failure here is real corruption.
        let mut record = Cursor::new(body);
        let window = window_id(&mut record)?;
        let count = record.count(1, "tail-log report count exceeds record size")?;
        let reports = record.col(count, |r| {
            let len = r.count(1, "tail-log report length exceeds record size")?;
            let report = r.take(len.get(), "truncated tail-log report")?;
            Ok(Report::decode(report)?)
        })?;
        record.finish("trailing bytes in tail-log record")?;
        replay.reports += reports.len() as u64;
        replay.batches.push((window, reports));
        replay.valid_len = cur.pos() as u64;
    }
    replay.bytes_discarded = bytes.len() as u64 - replay.valid_len;
    Ok(replay)
}

/// Opens the tail log in `dir` for appending after its first `len`
/// bytes; anything past them (a torn final record) is cut off.
fn open_wal(dir: &Path, len: u64) -> Result<fs::File, SegmentError> {
    let mut wal = fs::OpenOptions::new()
        .write(true)
        .open(dir.join(WAL_NAME))
        .map_err(io_err("open tail log for append"))?;
    wal.set_len(len)
        .map_err(io_err("truncate torn tail-log record"))?;
    wal.seek(std::io::SeekFrom::End(0))
        .map_err(io_err("seek tail log to append point"))?;
    Ok(wal)
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
        // The old manifest goes first and must be seen to go: one that
        // outlived the sweep would name segments that no longer exist.
        match fs::remove_file(dir.join(MANIFEST_NAME)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(io_err("remove previous manifest")(e));
            }
            _ => {}
        }
        sweep(dir, |_| false);
        write_atomic(&dir.join(WAL_NAME), &encode_wal_header(0))?;
        let store = ShardedStore::with_config(config);
        DurableStore::bind(store, dir, WAL_HEADER_LEN as u64)
    }

    /// Binds `store` to `dir`, appending to the tail log from `append_at`.
    fn bind(store: ShardedStore, dir: &Path, append_at: u64) -> Result<Self, SegmentError> {
        Ok(DurableStore {
            store,
            dir: dir.to_path_buf(),
            wal: open_wal(dir, append_at)?,
            scratch: Vec::new(),
            deferred: None,
        })
    }

    /// Reopens the durable store in `dir`, recovering committed
    /// segments and replaying the tail log (see [`ShardedStore::open`]).
    /// Appending resumes after the last whole tail record; a torn final
    /// record or stale log is truncated away first.
    pub fn reopen(
        dir: &Path,
        config: StoreConfig,
    ) -> Result<(DurableStore, RecoveryStats), SegmentError> {
        let (store, recovery) = ShardedStore::open(dir, config)?;
        let append_at = if recovery.wal_stale || recovery.wal_valid_len == 0 {
            // Stale (pre-persist) or missing log: start a fresh one whose
            // base is the recovered epoch. No replay happened in either
            // case, so the recovered epoch is the committed manifest epoch.
            write_atomic(&dir.join(WAL_NAME), &encode_wal_header(recovery.epoch))?;
            WAL_HEADER_LEN as u64
        } else {
            recovery.wal_valid_len
        };
        Ok((DurableStore::bind(store, dir, append_at)?, recovery))
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
        self.wal = open_wal(&self.dir, WAL_HEADER_LEN as u64)?;
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

    fn reseal(&mut self) {
        let _ = self.store.seal();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::shard::WindowTables;
    use airstat_classify::mac::Oui;
    use airstat_rf::airtime::AirtimeLedger;
    use airstat_telemetry::backend::{
        ClientIdentity, LinkObservation, ScanObservation, UsageTotals,
    };
    use airstat_telemetry::report::{ChannelScanRecord, ReportPayload, UsageRecord};
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
    pub(crate) fn temp_store_dir(tag: &str) -> PathBuf {
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
    /// `shard` encoded whole as shard 0 of 1 at epoch 1, its stack the
    /// full projection of its rows.
    pub(super) fn encode_whole(shard: &StoreShard) -> Vec<u8> {
        encode_segment(shard, &[shard.projection()], 1, 0, 1)
    }

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

    /// Decodes `image` as [`framed_segment`] claims it to be.
    fn decode_framed(image: &[u8]) -> Result<StoreShard, SegmentError> {
        decode_segment(image, FRAMED, &mut DecodeTally::default())
    }

    /// Asserts that a window holding `blocks` is refused as `Corrupt`
    /// with `context`.
    fn assert_refused(blocks: &[(u64, Vec<u8>)], context: &str) {
        match decode_framed(&framed_segment(0, blocks)).map(|_| ()) {
            Err(SegmentError::Corrupt { context: got }) => assert_eq!(got, context),
            other => panic!("want Corrupt {{ {context} }}, got {other:?}"),
        }
    }

    /// `rows` sorted by `key`, keeping the last row filed under each key:
    /// what a key-by-key `insert` resolves them to.
    fn last_per_key<K: Ord, R: Clone>(rows: &[R], key: impl Fn(&R) -> K) -> Vec<R> {
        let by_key: BTreeMap<K, R> = rows.iter().map(|r| (key(r), r.clone())).collect();
        by_key.into_values().collect()
    }

    /// A keyed table's row: `((seq, slot), value)`.
    type KeyedRow = ((u64, u32), u64);

    /// A keyed table's groups resolved as `insert` would: a repeated
    /// device replaces the device's rows wholesale, then within each
    /// device the last row per `(seq, slot)` wins.
    fn last_per_keyed<G: AsRef<[KeyedRow]>>(groups: &[(u64, G)]) -> Vec<(u64, Vec<KeyedRow>)> {
        let by_device: BTreeMap<u64, &G> = groups.iter().map(|(d, g)| (*d, g)).collect();
        by_device
            .into_iter()
            .map(|(device, rows)| (device, last_per_key(rows.as_ref(), |r| r.0)))
            .collect()
    }

    /// Writes the key columns of a keyed table, as [`put_keyed`] does,
    /// from its groups.
    fn put_keyed_groups<G: AsRef<[KeyedRow]>>(out: &mut Vec<u8>, groups: &[(u64, G)]) {
        put_varint(out, groups.len() as u64);
        put_col(out, groups, |o, (device, _)| put_varint(o, *device));
        put_col(out, groups, |o, (_, rows)| {
            put_varint(o, rows.as_ref().len() as u64)
        });
        let flat = || groups.iter().flat_map(|(_, rows)| rows.as_ref());
        put_col(out, flat(), |o, ((seq, _), _)| put_varint(o, *seq));
        put_col(out, flat(), |o, ((_, slot), _)| {
            put_varint(o, u64::from(*slot))
        });
    }

    type UsageRow = ((MacAddress, Application), (u64, u64));

    fn usage_block(rows: &[UsageRow]) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, rows.len() as u64);
        put_col(&mut out, rows, |o, ((mac, _), _)| {
            o.extend_from_slice(&mac.0)
        });
        put_col(&mut out, rows, |o, ((_, app), _)| {
            put_varint(o, *app as u64)
        });
        put_col(&mut out, rows, |o, (_, (up, _))| put_varint(o, *up));
        put_col(&mut out, rows, |o, (_, (_, down))| put_varint(o, *down));
        out
    }

    fn links_block<S: AsRef<[(u64, f64)]>>(rows: &[(LinkKey, S)]) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, rows.len() as u64);
        put_col(&mut out, rows, |o, (key, _)| put_varint(o, key.rx_device));
        put_col(&mut out, rows, |o, (key, _)| put_varint(o, key.tx_device));
        put_col(&mut out, rows, |o, (key, _)| put_varint(o, key.band as u64));
        put_col(&mut out, rows, |o, (_, series)| {
            put_varint(o, series.as_ref().len() as u64)
        });
        let flat = || rows.iter().flat_map(|(_, series)| series.as_ref());
        put_col(&mut out, flat(), |o, (t, _)| put_varint(o, *t));
        put_col(&mut out, flat(), |o, (_, ratio)| {
            o.extend_from_slice(&ratio.to_le_bytes())
        });
        out
    }

    /// Scan rows keep their timestamp as the value; every other column
    /// reads band 2.4 GHz, channel 6, utilization = decodable =
    /// networks = 7.
    fn scans_block<G: AsRef<[KeyedRow]>>(groups: &[(u64, G)]) -> Vec<u8> {
        let mut out = Vec::new();
        put_keyed_groups(&mut out, groups);
        let flat = || groups.iter().flat_map(|(_, rows)| rows.as_ref());
        put_col(&mut out, flat(), |o, (_, t)| put_varint(o, *t));
        for column in [0u64, 6, 7, 7, 7] {
            put_col(&mut out, flat(), |o, _| put_varint(o, column));
        }
        out
    }

    /// The usage, link and scan rows a table test shuffles: out of order
    /// and repeated, the scans with a repeated device and, within it, a
    /// repeated and an out-of-order `(seq, slot)`.
    type ShuffledRows = (
        [UsageRow; 5],
        [(LinkKey, &'static [(u64, f64)]); 4],
        [(u64, &'static [KeyedRow]); 3],
    );

    fn shuffled_rows() -> ShuffledRows {
        let mac = |id: u64| MacAddress::from_id(Oui([2, 4, 6]), id);
        let link = |rx: u64, tx: u64| LinkKey {
            rx_device: rx,
            tx_device: tx,
            band: Band::Ghz5,
        };
        (
            [
                ((mac(9), Application::Netflix), (90u64, 9u64)),
                ((mac(3), Application::Netflix), (30, 3)),
                ((mac(9), Application::Netflix), (91, 8)),
                ((mac(3), Application::ALL[0]), (31, 2)),
                ((mac(3), Application::Netflix), (32, 1)),
            ],
            [
                (link(7, 1), &[(10, 0.5), (20, 0.25)]),
                (link(2, 1), &[(11, 1.0)]),
                (link(7, 1), &[(30, 0.75)]),
                (link(2, 0), &[]),
            ],
            [
                (5, &[((1, 0), 100), ((0, 0), 101)]),
                (4, &[((2, 1), 102)]),
                (5, &[((4, 0), 103), ((3, 0), 104), ((4, 0), 105)]),
            ],
        )
    }

    /// No encoder writes a table's keys out of order or twice, and decode
    /// refuses either with the table's own context once its columns are
    /// read. The same rows sorted, the last row per key kept, decode to
    /// the tables a key-by-key `insert` builds from them.
    #[test]
    fn out_of_order_and_repeated_keys_are_refused() {
        let (usage_rows, link_rows, scan_rows) = shuffled_rows();
        const SCAN_DEVICES: &str = "scan devices not strictly ascending";
        const SCAN_KEYS: &str = "scan (seq, slot) keys not strictly ascending within a device";
        let usage = last_per_key(&usage_rows, |r| r.0);
        let links = last_per_key(&link_rows, |r| r.0);
        let scans = last_per_keyed(&scan_rows);
        let mut repeated_usage = usage.clone();
        repeated_usage.push(usage[usage.len() - 1]);
        let device_4 = &scan_rows[1];
        let device_5: Vec<KeyedRow> = scan_rows[2].1.to_vec();
        let refused = [
            (
                BLOCK_USAGE,
                usage_block(&usage_rows),
                "usage keys not strictly ascending",
            ),
            (
                BLOCK_USAGE,
                usage_block(&repeated_usage),
                "usage keys not strictly ascending",
            ),
            (
                BLOCK_LINKS,
                links_block(&link_rows),
                "link keys not strictly ascending",
            ),
            (BLOCK_SCANS, scans_block(&scan_rows), SCAN_DEVICES),
            (
                BLOCK_SCANS,
                scans_block(&[*device_4, *device_4]),
                SCAN_DEVICES,
            ),
            (
                BLOCK_SCANS,
                scans_block(&[(5, device_5.clone())]),
                SCAN_KEYS,
            ),
            (
                BLOCK_SCANS,
                scans_block(&[(5, [device_5[1], device_5[0], device_5[0]])]),
                SCAN_KEYS,
            ),
        ];
        for (tag, body, context) in refused {
            assert_refused(&[(tag, body)], context);
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

        let expected =
            StoreShard::from_parts(HashMap::new(), 0, 0, BTreeMap::from([(W, expected)]));
        let image = framed_segment(
            expected.projection().row_count(),
            &[
                (BLOCK_USAGE, usage_block(&usage)),
                (BLOCK_LINKS, links_block(&links)),
                (BLOCK_SCANS, scans_block(&scans)),
            ],
        );
        let decoded = decode_framed(&image).expect("sorted keys in grammar");
        assert_eq!(encode_whole(&decoded), encode_whole(&expected));
    }

    /// The same for the four tables the test above leaves out: clients
    /// and airtime (flat), censuses (CSR with a meta column) and crashes
    /// (keyed, each report's device taken from its key).
    #[test]
    fn out_of_order_and_repeated_keys_in_the_other_tables_are_refused() {
        let mac = |id: u64| MacAddress::from_id(Oui([2, 4, 6]), id);
        let meta = |device, seq, slot| ClientMeta { device, seq, slot };
        let caps = Capabilities::new(Generation::N, true, false, 2);
        let mut expected = WindowTables::default();

        // (mac, meta, os index, rssi): mac 5 twice, mac 2 out of order.
        let client_rows = [
            (mac(5), meta(1, 1, 0), 0usize, -50.0f64),
            (mac(2), meta(1, 2, 0), 1, -60.0),
            (mac(5), meta(1, 0, 3), 2, -70.0),
        ];
        let clients_block = |rows: &[(MacAddress, ClientMeta, usize, f64)]| {
            let mut out = Vec::new();
            put_varint(&mut out, rows.len() as u64);
            put_col(&mut out, rows, |o, r| o.extend_from_slice(&r.0 .0));
            put_metas(&mut out, &rows.iter().map(|r| r.1).collect::<Vec<_>>());
            put_col(&mut out, rows, |o, r| {
                put_varint(o, OsFamily::ALL[r.2] as u64)
            });
            put_col(&mut out, rows, |o, _| put_varint(o, pack_caps(caps)));
            put_col(&mut out, rows, |o, _| put_varint(o, 1));
            put_col(&mut out, rows, |o, r| {
                o.extend_from_slice(&r.3.to_le_bytes())
            });
            out
        };
        for (mac, meta, os, rssi_dbm) in client_rows {
            let identity = ClientIdentity {
                os: OsFamily::ALL[os],
                caps,
                band: Band::Ghz5,
                rssi_dbm,
            };
            expected.clients.insert(mac, (meta, identity));
        }

        // ((device, band), elapsed, busy, wifi): (4, 5 GHz) twice.
        let airtime_rows = [
            ((4u64, Band::Ghz5), 100u64, 50u64, 10u64),
            ((1, Band::Ghz2_4), 200, 20, 2),
            ((4, Band::Ghz5), 300, 30, 3),
        ];
        let airtime_block = |rows: &[((u64, Band), u64, u64, u64)]| {
            let mut out = Vec::new();
            put_varint(&mut out, rows.len() as u64);
            put_col(&mut out, rows, |o, r| put_varint(o, r.0 .0));
            put_col(&mut out, rows, |o, r| put_varint(o, r.0 .1 as u64));
            put_col(&mut out, rows, |o, r| put_varint(o, r.1));
            put_col(&mut out, rows, |o, r| put_varint(o, r.2));
            put_col(&mut out, rows, |o, r| put_varint(o, r.3));
            out
        };
        for (key, elapsed, busy, wifi) in airtime_rows {
            let mut ledger = AirtimeLedger::default();
            ledger.account(elapsed, busy, wifi);
            expected.airtime.insert(key, ledger);
        }

        // (device, meta, [networks]): device 8 twice, its rows replaced.
        type CensusRow<'a> = (u64, ClientMeta, &'a [u32]);
        let census_rows: [CensusRow; 3] = [
            (8, meta(8, 1, 0), &[1, 2, 3]),
            (3, meta(3, 4, 0), &[4]),
            (8, meta(8, 6, 0), &[5, 6]),
        ];
        let neighbors_block = |rows: &[CensusRow]| {
            let flat = || rows.iter().flat_map(|r| r.2.iter());
            let mut out = Vec::new();
            put_varint(&mut out, rows.len() as u64);
            put_col(&mut out, rows, |o, r| put_varint(o, r.0));
            put_metas(&mut out, &rows.iter().map(|r| r.1).collect::<Vec<_>>());
            put_col(&mut out, rows, |o, r| put_varint(o, r.2.len() as u64));
            put_col(&mut out, flat(), |o, _| put_varint(o, 0));
            put_col(&mut out, flat(), |o, _| put_varint(o, 6));
            put_col(&mut out, flat(), |o, n| put_varint(o, u64::from(*n)));
            put_col(&mut out, flat(), |o, n| put_varint(o, u64::from(*n) / 2));
            out
        };
        for (device, meta, networks) in census_rows {
            let rows = networks
                .iter()
                .map(|&n| (Band::Ghz2_4, 6, n, n / 2))
                .collect();
            expected.neighbors.insert(device, (meta, rows));
        }

        // (device, [((seq, slot), pc)]): device 6 twice, (2, 0) twice and
        // (1, 1) before (1, 0) inside its second appearance.
        let crash_rows: [(u64, &[KeyedRow]); 3] = [
            (6, &[((0, 0), 10)]),
            (2, &[((5, 0), 11), ((5, 1), 12)]),
            (6, &[((2, 0), 13), ((1, 1), 14), ((1, 0), 15), ((2, 0), 16)]),
        ];
        fn crashes_block<G: AsRef<[KeyedRow]>>(groups: &[(u64, G)]) -> Vec<u8> {
            let flat = || groups.iter().flat_map(|(_, rows)| rows.as_ref());
            let mut out = Vec::new();
            put_keyed_groups(&mut out, groups);
            put_col(&mut out, flat(), |o, _| put_varint(o, 1));
            put_col(&mut out, flat(), |o, r| put_varint(o, r.1));
            put_col(&mut out, flat(), |o, _| put_varint(o, 60));
            put_col(&mut out, flat(), |o, _| put_varint(o, 4096));
            put_col(&mut out, flat(), |o, r| {
                let firmware = format!("mr-{}", r.1);
                put_varint(o, firmware.len() as u64);
                o.extend_from_slice(firmware.as_bytes());
            });
            out
        }
        for (device, rows) in crash_rows {
            let per_device = rows
                .iter()
                .map(|&(key, pc)| {
                    let report = CrashReport {
                        device,
                        firmware: format!("mr-{pc}"),
                        reason: RebootReason::Watchdog,
                        program_counter: pc,
                        uptime_s: 60,
                        free_memory_bytes: 4096,
                    };
                    (key, report)
                })
                .collect();
            expected.crashes.insert(device, per_device);
        }
        assert_eq!(
            (
                expected.clients.len(),
                expected.airtime.len(),
                expected.neighbors[&8].1.len(),
                expected.crashes[&6].len()
            ),
            (2, 2, 2, 3),
            "the rows above must collide"
        );

        const CRASH_DEVICES: &str = "crash devices not strictly ascending";
        const CRASH_KEYS: &str = "crash (seq, slot) keys not strictly ascending within a device";
        let device_2 = &crash_rows[1];
        let device_6: Vec<KeyedRow> = crash_rows[2].1.to_vec();
        let refused = [
            (
                BLOCK_CLIENTS,
                clients_block(&client_rows),
                "client keys not strictly ascending",
            ),
            (
                BLOCK_AIRTIME,
                airtime_block(&airtime_rows),
                "airtime keys not strictly ascending",
            ),
            (
                BLOCK_NEIGHBORS,
                neighbors_block(&census_rows),
                "census devices not strictly ascending",
            ),
            (BLOCK_CRASHES, crashes_block(&crash_rows), CRASH_DEVICES),
            (
                BLOCK_CRASHES,
                crashes_block(&[*device_2, *device_2]),
                CRASH_DEVICES,
            ),
            (
                BLOCK_CRASHES,
                crashes_block(&[(6, device_6.clone())]),
                CRASH_KEYS,
            ),
            (
                BLOCK_CRASHES,
                crashes_block(&[(6, [device_6[2], device_6[0], device_6[0]])]),
                CRASH_KEYS,
            ),
        ];
        for (tag, body, context) in refused {
            assert_refused(&[(tag, body)], context);
        }

        let expected =
            StoreShard::from_parts(HashMap::new(), 0, 0, BTreeMap::from([(W, expected)]));
        let image = framed_segment(
            sealed_rows(expected.projection().window(W).expect("window W")),
            &[
                (
                    BLOCK_CLIENTS,
                    clients_block(&last_per_key(&client_rows, |r| r.0)),
                ),
                (
                    BLOCK_AIRTIME,
                    airtime_block(&last_per_key(&airtime_rows, |r| r.0)),
                ),
                (
                    BLOCK_NEIGHBORS,
                    neighbors_block(&last_per_key(&census_rows, |r| r.0)),
                ),
                (BLOCK_CRASHES, crashes_block(&last_per_keyed(&crash_rows))),
            ],
        );
        let decoded = decode_framed(&image).expect("sorted keys in grammar");
        assert_eq!(
            ColumnarShard::build(&decoded),
            ColumnarShard::build(&expected)
        );
        assert_eq!(encode_whole(&decoded), encode_whole(&expected));
    }

    /// A window's table blocks come in tag order, at most one per tag,
    /// and none empty (docs/SEGMENT_FORMAT.md §3); decode refuses every
    /// other shape.
    #[test]
    fn off_grammar_table_blocks_are_refused() {
        const ORDER: &str = "table blocks not in ascending tag order";
        const EMPTY: &str = "table block with no rows";
        let (usage_rows, link_rows, _) = shuffled_rows();
        let usage = usage_block(&last_per_key(&usage_rows, |r| r.0));
        let links = links_block(&last_per_key(&link_rows, |r| r.0));
        for tag in BLOCK_USAGE..=BLOCK_CRASHES {
            assert_refused(&[(tag, vec![0])], EMPTY);
        }
        assert_refused(
            &[(BLOCK_USAGE, vec![0]), (BLOCK_USAGE, usage.clone())],
            EMPTY,
        );
        assert_refused(
            &[(BLOCK_USAGE, usage.clone()), (BLOCK_USAGE, usage.clone())],
            ORDER,
        );
        assert_refused(&[(BLOCK_LINKS, links), (BLOCK_USAGE, usage)], ORDER);
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
        let mut store = ShardedStore::with_config(StoreConfig {
            shards: 3,
            threads: 1,
        });
        let reports: Vec<Report> = (0..40).map(|d| usage_report(d, 0, d * 10 + 1)).collect();
        store.ingest_batch(W, &reports);
        store.ingest_batch(WindowId(1407), &reports[..7]);
        store.ingest_batch(W, &reports[..5]); // duplicates
        let stats = store.persist(&dir).expect("persist");
        assert_eq!(stats.segments_written, 3);
        assert!(stats.bytes_written > 0);

        let (reopened, recovery) = ShardedStore::open(&dir, StoreConfig::default()).expect("open");
        assert_eq!(recovery.epoch, store.seal().epoch());
        assert_eq!(recovery.segments_loaded, 3);
        assert_eq!(recovery.wal_records_replayed, 0);
        assert!(!recovery.wal_stale);
        assert_eq!(
            reopened.seal().shards().len(),
            3,
            "manifest shard count wins"
        );
        assert_eq!(reopened.seal().epoch(), store.seal().epoch());
        assert_eq!(reopened.reports_ingested(), store.reports_ingested());
        assert_eq!(reopened.duplicates_dropped(), store.duplicates_dropped());
        assert!(reopened.seal().persistence().any());

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
        let mut store = ShardedStore::with_config(StoreConfig {
            shards: 2,
            threads: 1,
        });
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
        assert_eq!(
            store.seal().shards().len(),
            5,
            "config shapes a fresh store"
        );
        assert_eq!(store.seal().epoch(), 0);
        assert_eq!(recovery, RecoveryStats::default());
    }

    /// `create` must see the old manifest go before it deletes a
    /// segment that manifest names; a `MANIFEST` it cannot remove (here a
    /// directory) is a typed error with nothing touched.
    #[test]
    fn create_refuses_a_manifest_it_cannot_remove() {
        let dir = temp_store_dir("stuck-manifest");
        fs::create_dir_all(dir.join(MANIFEST_NAME)).expect("MANIFEST/ directory");
        let segment = dir.join(segment_file_name(1, 0));
        fs::write(&segment, b"named by the old manifest").expect("old segment");
        let err = DurableStore::create(&dir, StoreConfig::default())
            .expect_err("the old manifest is still there");
        assert!(
            matches!(
                err,
                SegmentError::Io {
                    context: "remove previous manifest",
                    ..
                }
            ),
            "got {err}"
        );
        assert!(dir.join(MANIFEST_NAME).is_dir());
        assert_eq!(
            fs::read(&segment).expect("segment untouched"),
            b"named by the old manifest"
        );
        assert!(!dir.join(WAL_NAME).exists(), "no tail log was started");
        let _ = fs::remove_dir_all(&dir);
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
        let expected_epoch = durable.store().seal().epoch();
        let expected_ingested = durable.store().reports_ingested();
        assert!(durable.take_error().is_none(), "no deferred append error");
        drop(durable);

        let (recovered, recovery) =
            DurableStore::reopen(&dir, StoreConfig::default()).expect("recover");
        assert_eq!(recovery.wal_records_replayed, 2);
        assert_eq!(recovery.wal_reports_recovered, 2);
        assert_eq!(recovery.wal_bytes_discarded, 0);
        assert!(!recovery.wal_stale);
        assert_eq!(recovered.store().seal().epoch(), expected_epoch);
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
            DurableStore::reopen(&dir, StoreConfig::default()).expect("recover");
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
        let (again, recovery) = DurableStore::reopen(&dir, StoreConfig::default()).expect("reopen");
        assert_eq!(recovery.wal_records_replayed, 2);
        assert_eq!(again.store().reports_ingested(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tail_log_is_skipped_not_replayed() {
        let dir = temp_store_dir("stale");
        let mut store = ShardedStore::with_config(StoreConfig {
            shards: 1,
            threads: 1,
        });
        store.ingest_batch(W, &[usage_report(1, 0, 10)]);
        store.persist(&dir).expect("persist");
        // Forge a tail log from before that persist: its records are
        // already folded into the committed segments.
        let mut forged = encode_wal_header(store.seal().epoch() - 1);
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
        let mut store = ShardedStore::with_config(StoreConfig {
            shards: 1,
            threads: 1,
        });
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
        let mut store = ShardedStore::with_config(StoreConfig {
            shards: 1,
            threads: 1,
        });
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
        let mut store = ShardedStore::with_config(StoreConfig {
            shards: 1,
            threads: 1,
        });
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
        let mut store = ShardedStore::with_config(StoreConfig {
            shards: 2,
            threads: 1,
        });
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
        // A manifest whose CRC holds but which lists no shard at all.
        fs::write(&path, encode_manifest(store.seal().epoch(), &[])).expect("rewrite manifest");
        let err = ShardedStore::open(&dir, StoreConfig::default())
            .expect_err("a manifest without shards must not open");
        assert!(
            matches!(
                err,
                SegmentError::Corrupt {
                    context: "manifest lists no shard"
                }
            ),
            "got {err}"
        );
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
    use super::tests::{encode_whole, hex_dump_lines};
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
        encode_whole(&shard)
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

    /// The manifest dump for the same example store: one shard listing
    /// its single 96-byte segment, persisted at epoch 1.
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
            &[ManifestEntry {
                epoch: 1,
                len: segment.len() as u64,
            }],
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
        assert_eq!(encode_whole(&decoded), segment);
    }
}
