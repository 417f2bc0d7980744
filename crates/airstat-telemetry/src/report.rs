//! Report schema: what devices send when polled.
//!
//! Each poll drains a queue of [`Report`]s from the device. A report is a
//! `(device, sequence, timestamp)` header plus one payload — a batch of
//! records of a single kind. The kinds map one-to-one onto the paper's
//! measurement streams:
//!
//! * [`UsageRecord`] — per-client, per-application byte counters (§3.3);
//! * [`ClientInfoRecord`] — OS classification, advertised capabilities,
//!   association band and current RSSI (§3.1–3.2);
//! * [`LinkRecord`] — probe delivery counts over the sliding window (§4.2);
//! * [`AirtimeRecord`] — MR16 serving-radio airtime counters (§4.3);
//! * [`NeighborRecord`] — per-channel nearby network counts (§4.1);
//! * [`ChannelScanRecord`] — MR18 scanning-radio 3-minute aggregates (§5).
//!
//! All codecs are hand-written over [`crate::wire`] and round-trip exactly.

use airstat_classify::apps::Application;
use airstat_classify::device::OsFamily;
use airstat_classify::mac::MacAddress;
use airstat_rf::band::{Band, Channel};
use airstat_rf::phy::{Capabilities, Generation};

use crate::wire::{
    put_field_f64, put_field_msg, put_field_str, put_field_u64, Reader, WireError, WireType,
};

/// Stable numeric code for an [`Application`] (index into
/// [`Application::ALL`]).
pub(crate) fn app_code(app: Application) -> u64 {
    Application::ALL
        .iter()
        .position(|&a| a == app)
        .expect("invariant: every Application variant appears in ALL") as u64
}

/// Inverse of [`app_code`].
pub(crate) fn app_from_code(code: u64) -> Result<Application, WireError> {
    Application::ALL
        .get(code as usize)
        .copied()
        .ok_or(WireError::Schema("unknown application code"))
}

/// Stable numeric code for an [`OsFamily`].
pub(crate) fn os_code(os: OsFamily) -> u64 {
    OsFamily::ALL
        .iter()
        .position(|&o| o == os)
        .expect("invariant: every OsFamily variant appears in ALL") as u64
}

/// Inverse of [`os_code`].
pub(crate) fn os_from_code(code: u64) -> Result<OsFamily, WireError> {
    OsFamily::ALL
        .get(code as usize)
        .copied()
        .ok_or(WireError::Schema("unknown OS code"))
}

fn band_code(band: Band) -> u64 {
    match band {
        Band::Ghz2_4 => 0,
        Band::Ghz5 => 1,
    }
}

fn band_from_code(code: u64) -> Result<Band, WireError> {
    match code {
        0 => Ok(Band::Ghz2_4),
        1 => Ok(Band::Ghz5),
        _ => Err(WireError::Schema("unknown band code")),
    }
}

fn channel_code(ch: Channel) -> u64 {
    (band_code(ch.band) << 16) | u64::from(ch.number)
}

fn channel_from_code(code: u64) -> Result<Channel, WireError> {
    let band = band_from_code(code >> 16)?;
    Channel::new(band, (code & 0xFFFF) as u16).ok_or(WireError::Schema("invalid channel number"))
}

/// Packs [`Capabilities`] into a compact bitfield.
fn caps_code(caps: Capabilities) -> u64 {
    let generation = match caps.generation() {
        Generation::B => 0u64,
        Generation::G => 1,
        Generation::N => 2,
        Generation::Ac => 3,
    };
    generation
        | (u64::from(caps.dual_band()) << 2)
        | (u64::from(caps.forty_mhz()) << 3)
        | (u64::from(caps.streams()) << 4)
}

fn caps_from_code(code: u64) -> Result<Capabilities, WireError> {
    let generation = match code & 0x3 {
        0 => Generation::B,
        1 => Generation::G,
        2 => Generation::N,
        _ => Generation::Ac,
    };
    let dual = code & 0x4 != 0;
    let forty = code & 0x8 != 0;
    let streams = ((code >> 4) & 0x7) as u8;
    Ok(Capabilities::new(generation, dual, forty, streams.max(1)))
}

fn mac_code(mac: MacAddress) -> u64 {
    mac.0.iter().fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
}

/// Inverse of [`mac_code`]; a code wider than 48 bits names no MAC.
fn mac_from_code(code: u64) -> Result<MacAddress, WireError> {
    if code >> 48 != 0 {
        return Err(WireError::Schema("MAC code out of range"));
    }
    let [_, _, mac @ ..] = code.to_be_bytes();
    Ok(MacAddress::new(mac))
}

/// Per-client, per-application byte counters for one polling interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsageRecord {
    /// Client MAC address.
    pub mac: MacAddress,
    /// Classified application.
    pub app: Application,
    /// Bytes sent by the client (upstream).
    pub up_bytes: u64,
    /// Bytes received by the client (downstream).
    pub down_bytes: u64,
}

/// Client identity, capability and signal snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientInfoRecord {
    /// Client MAC address.
    pub mac: MacAddress,
    /// Edge-classified operating system.
    pub os: OsFamily,
    /// Advertised 802.11 capabilities.
    pub caps: Capabilities,
    /// Band the client is currently associated on.
    pub band: Band,
    /// Current received signal strength at the AP (dBm).
    pub rssi_dbm: f64,
}

/// Probe-link delivery statistics over the sliding window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkRecord {
    /// The transmitting peer AP's device id.
    pub peer_device: u64,
    /// Band of the probes.
    pub band: Band,
    /// Probes expected within the window (window / interval).
    pub probes_expected: u32,
    /// Probes actually received.
    pub probes_received: u32,
}

impl LinkRecord {
    /// Delivery ratio in `[0, 1]`; `None` when nothing was expected.
    pub fn delivery_ratio(&self) -> Option<f64> {
        (self.probes_expected > 0).then(|| {
            f64::from(self.probes_received.min(self.probes_expected))
                / f64::from(self.probes_expected)
        })
    }
}

/// MR16 serving-radio airtime counters for one interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AirtimeRecord {
    /// Channel the radio served on.
    pub channel: Channel,
    /// Observation wall time (µs).
    pub elapsed_us: u64,
    /// Energy-detect busy time (µs).
    pub busy_us: u64,
    /// Decodable-802.11 time (µs).
    pub wifi_us: u64,
}

/// Per-channel neighbour counts from a background scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighborRecord {
    /// Scanned channel.
    pub channel: Channel,
    /// Non-same-fleet networks heard.
    pub networks: u32,
    /// Of which personal mobile hotspots.
    pub hotspots: u32,
}

/// MR18 scanning-radio 3-minute aggregate for one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelScanRecord {
    /// Scanned channel.
    pub channel: Channel,
    /// Busy fraction in parts-per-million.
    pub utilization_ppm: u32,
    /// Decodable share of busy time in parts-per-million.
    pub decodable_ppm: u32,
    /// Co-channel networks heard during the window.
    pub networks: u32,
}

/// One crash/reboot notification (§6.1), uploaded after recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashRecord {
    /// Firmware version string.
    pub firmware: String,
    /// Reboot reason code (see [`crate::crash::RebootReason`]).
    pub reason: u8,
    /// Program counter at the failure point.
    pub program_counter: u64,
    /// Uptime before the reboot (s).
    pub uptime_s: u64,
    /// Free heap at crash time (bytes).
    pub free_memory_bytes: u64,
}

/// The payload of one report: a batch of records of one kind.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportPayload {
    /// Client usage counters.
    Usage(Vec<UsageRecord>),
    /// Client info snapshots.
    ClientInfo(Vec<ClientInfoRecord>),
    /// Probe-link statistics.
    Links(Vec<LinkRecord>),
    /// Serving-radio airtime counters.
    Airtime(Vec<AirtimeRecord>),
    /// Neighbour census.
    Neighbors(Vec<NeighborRecord>),
    /// Scanning-radio channel aggregates.
    ChannelScan(Vec<ChannelScanRecord>),
    /// Crash/reboot notifications.
    Crash(Vec<CrashRecord>),
}

impl ReportPayload {
    fn kind_code(&self) -> u64 {
        match self {
            ReportPayload::Usage(_) => 0,
            ReportPayload::ClientInfo(_) => 1,
            ReportPayload::Links(_) => 2,
            ReportPayload::Airtime(_) => 3,
            ReportPayload::Neighbors(_) => 4,
            ReportPayload::ChannelScan(_) => 5,
            ReportPayload::Crash(_) => 6,
        }
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        match self {
            ReportPayload::Usage(v) => v.len(),
            ReportPayload::ClientInfo(v) => v.len(),
            ReportPayload::Links(v) => v.len(),
            ReportPayload::Airtime(v) => v.len(),
            ReportPayload::Neighbors(v) => v.len(),
            ReportPayload::ChannelScan(v) => v.len(),
            ReportPayload::Crash(v) => v.len(),
        }
    }

    /// True when the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One report: header plus payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Reporting device id.
    pub device: u64,
    /// Monotone per-device sequence number (for at-least-once dedup).
    pub seq: u64,
    /// Device timestamp, seconds since simulation epoch.
    pub timestamp_s: u64,
    /// The record batch.
    pub payload: ReportPayload,
}

// Top-level field numbers.
const F_DEVICE: u32 = 1;
const F_SEQ: u32 = 2;
const F_TIMESTAMP: u32 = 3;
const F_KIND: u32 = 4;
const F_RECORD: u32 = 5;

impl Report {
    /// Encodes the report to a fresh byte vector.
    ///
    /// Hot loops should prefer [`Report::encode_into`], which reuses
    /// caller-owned buffers instead of allocating per report.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.payload.len() * 24);
        let mut scratch = Vec::with_capacity(48);
        self.encode_into(&mut out, &mut scratch);
        out
    }

    /// Appends the report's encoding to `out`, using `scratch` for
    /// nested record framing. Produces exactly the bytes of
    /// [`Report::encode`]; neither buffer is cleared first, so a hot
    /// loop clears and reuses the same pair across reports.
    pub fn encode_into(&self, out: &mut Vec<u8>, scratch: &mut Vec<u8>) {
        put_field_u64(out, F_DEVICE, self.device);
        put_field_u64(out, F_SEQ, self.seq);
        put_field_u64(out, F_TIMESTAMP, self.timestamp_s);
        put_field_u64(out, F_KIND, self.payload.kind_code());
        match &self.payload {
            ReportPayload::Usage(records) => {
                for r in records {
                    put_field_msg(out, F_RECORD, scratch, |msg| {
                        put_field_u64(msg, 1, mac_code(r.mac));
                        put_field_u64(msg, 2, app_code(r.app));
                        put_field_u64(msg, 3, r.up_bytes);
                        put_field_u64(msg, 4, r.down_bytes);
                    });
                }
            }
            ReportPayload::ClientInfo(records) => {
                for r in records {
                    put_field_msg(out, F_RECORD, scratch, |msg| {
                        put_field_u64(msg, 1, mac_code(r.mac));
                        put_field_u64(msg, 2, os_code(r.os));
                        put_field_u64(msg, 3, caps_code(r.caps));
                        put_field_u64(msg, 4, band_code(r.band));
                        put_field_f64(msg, 5, r.rssi_dbm);
                    });
                }
            }
            ReportPayload::Links(records) => {
                for r in records {
                    put_field_msg(out, F_RECORD, scratch, |msg| {
                        put_field_u64(msg, 1, r.peer_device);
                        put_field_u64(msg, 2, band_code(r.band));
                        put_field_u64(msg, 3, u64::from(r.probes_expected));
                        put_field_u64(msg, 4, u64::from(r.probes_received));
                    });
                }
            }
            ReportPayload::Airtime(records) => {
                for r in records {
                    put_field_msg(out, F_RECORD, scratch, |msg| {
                        put_field_u64(msg, 1, channel_code(r.channel));
                        put_field_u64(msg, 2, r.elapsed_us);
                        put_field_u64(msg, 3, r.busy_us);
                        put_field_u64(msg, 4, r.wifi_us);
                    });
                }
            }
            ReportPayload::Neighbors(records) => {
                for r in records {
                    put_field_msg(out, F_RECORD, scratch, |msg| {
                        put_field_u64(msg, 1, channel_code(r.channel));
                        put_field_u64(msg, 2, u64::from(r.networks));
                        put_field_u64(msg, 3, u64::from(r.hotspots));
                    });
                }
            }
            ReportPayload::ChannelScan(records) => {
                for r in records {
                    put_field_msg(out, F_RECORD, scratch, |msg| {
                        put_field_u64(msg, 1, channel_code(r.channel));
                        put_field_u64(msg, 2, u64::from(r.utilization_ppm));
                        put_field_u64(msg, 3, u64::from(r.decodable_ppm));
                        put_field_u64(msg, 4, u64::from(r.networks));
                    });
                }
            }
            ReportPayload::Crash(records) => {
                for r in records {
                    put_field_msg(out, F_RECORD, scratch, |msg| {
                        put_field_str(msg, 1, &r.firmware);
                        put_field_u64(msg, 2, u64::from(r.reason));
                        put_field_u64(msg, 3, r.program_counter);
                        put_field_u64(msg, 4, r.uptime_s);
                        put_field_u64(msg, 5, r.free_memory_bytes);
                    });
                }
            }
        }
    }

    /// Decodes a report from bytes.
    ///
    /// Two passes over the top-level fields. The first reads the header
    /// and counts the records; the second decodes each record body where
    /// it lies, through its kind's `WireRecord` decoder, into a payload
    /// allocated once at its final length. Two, not one, because the
    /// kind may arrive after the records and its last occurrence wins.
    /// The second pass starts at the first record, so a report without
    /// records (an idle AP's poll) reads its bytes once.
    pub fn decode(bytes: &[u8]) -> Result<Report, WireError> {
        let mut reader = Reader::new(bytes);
        let mut header = [None; 4];
        let mut records = 0;
        let mut first_record = bytes.len();
        loop {
            let at = bytes.len() - reader.remaining();
            let Some((number, wire_type)) = reader.next_tag()? else {
                break;
            };
            match (number, wire_type) {
                (F_DEVICE..=F_KIND, Varint) => {
                    header[slot(number)] = Some(reader.read_varint()?);
                }
                (F_RECORD, LengthDelimited) => {
                    reader.read_bytes()?;
                    if records == 0 {
                        first_record = at;
                    }
                    records += 1;
                }
                // Forward compatibility: unknown fields are skipped.
                _ => reader.pass_over(wire_type, HEADER.get(slot(number)).copied())?,
            }
        }
        let [device, seq, timestamp_s, kind] = header;
        let device = device.ok_or(WireError::Schema("missing device id"))?;
        let seq = seq.ok_or(WireError::Schema("missing sequence number"))?;
        let timestamp_s = timestamp_s.ok_or(WireError::Schema("missing timestamp"))?;
        let kind = kind.ok_or(WireError::Schema("missing payload kind"))?;
        let body = Reader::new(&bytes[first_record..]);
        let payload = match kind {
            0 => ReportPayload::Usage(decode_records(body, records)?),
            1 => ReportPayload::ClientInfo(decode_records(body, records)?),
            2 => ReportPayload::Links(decode_records(body, records)?),
            3 => ReportPayload::Airtime(decode_records(body, records)?),
            4 => ReportPayload::Neighbors(decode_records(body, records)?),
            5 => ReportPayload::ChannelScan(decode_records(body, records)?),
            6 => ReportPayload::Crash(decode_records(body, records)?),
            _ => return Err(WireError::Schema("unknown payload kind")),
        };
        Ok(Report {
            device,
            seq,
            timestamp_s,
            payload,
        })
    }
}

use WireType::{Fixed64, LengthDelimited, Varint};

/// The wire types of the header's fields `F_DEVICE..=F_RECORD`.
const HEADER: [WireType; 5] = [Varint, Varint, Varint, Varint, LengthDelimited];

/// The slot of field `number`: `number - 1`, and past every slot for 0.
fn slot(number: u32) -> usize {
    (number as usize).wrapping_sub(1)
}

/// Decodes the `count` records among the top-level fields `reader` is
/// at, which the header pass has already read whole.
fn decode_records<T: WireRecord>(
    mut reader: Reader<'_>,
    count: usize,
) -> Result<Vec<T>, WireError> {
    let mut out = Vec::with_capacity(count);
    while let Some((number, wire_type)) = reader.next_tag()? {
        match (number, wire_type) {
            (F_RECORD, LengthDelimited) => out.push(T::decode(reader.read_bytes()?)?),
            _ => reader.pass_over(wire_type, None)?,
        }
    }
    Ok(out)
}

/// One record body's fields, field `n` in slot `n - 1`, filled as the
/// reader meets them under the header's rules: the last occurrence of a
/// number wins, a known number under another wire type is a schema
/// error, and an unknown number is skipped.
struct Slots<'a, const N: usize> {
    /// Each varint field's value, and each fixed64 field's bits.
    numbers: [Option<u64>; N],
    /// The value of the kind's one length-delimited field, if it has one.
    text: Option<&'a [u8]>,
}

impl<'a, const N: usize> Slots<'a, N> {
    /// Reads `body`, whose field `n` must have wire type `types[n - 1]`.
    ///
    /// Always inlined into each kind's decoder, where `types` is a
    /// constant the compiler folds into the loop.
    #[inline(always)]
    fn read(body: &'a [u8], types: [WireType; N]) -> Result<Self, WireError> {
        let mut slots = Slots {
            numbers: [None; N],
            text: None,
        };
        let mut reader = Reader::new(body);
        while let Some((number, wire_type)) = reader.next_tag()? {
            let expected = types.get(slot(number)).copied();
            if expected != Some(wire_type) {
                reader.pass_over(wire_type, expected)?;
                continue;
            }
            match wire_type {
                Varint => slots.numbers[slot(number)] = Some(reader.read_varint()?),
                Fixed64 => slots.numbers[slot(number)] = Some(reader.read_fixed64()?),
                LengthDelimited => slots.text = Some(reader.read_bytes()?),
            }
        }
        Ok(slots)
    }

    /// Field `n`'s value: a varint's, or a fixed64's bits.
    fn u64(&self, n: usize) -> Result<u64, WireError> {
        self.numbers[n - 1].ok_or(WireError::Schema("missing record field"))
    }

    /// Varint field `n` narrowed to `T`, or a schema error naming `what`
    /// when the value does not fit: no encoder writes one, and
    /// truncating it would alias a value that does.
    fn narrow<T: TryFrom<u64>>(&self, n: usize, what: &'static str) -> Result<T, WireError> {
        T::try_from(self.u64(n)?).map_err(|_| WireError::Schema(what))
    }
}

/// A record kind's typed decoder.
trait WireRecord: Sized {
    /// Decodes one record body.
    fn decode(body: &[u8]) -> Result<Self, WireError>;
}

impl WireRecord for UsageRecord {
    fn decode(body: &[u8]) -> Result<Self, WireError> {
        let f = Slots::read(body, [Varint; 4])?;
        Ok(UsageRecord {
            mac: mac_from_code(f.u64(1)?)?,
            app: app_from_code(f.u64(2)?)?,
            up_bytes: f.u64(3)?,
            down_bytes: f.u64(4)?,
        })
    }
}

impl WireRecord for ClientInfoRecord {
    fn decode(body: &[u8]) -> Result<Self, WireError> {
        let f = Slots::read(body, [Varint, Varint, Varint, Varint, Fixed64])?;
        Ok(ClientInfoRecord {
            mac: mac_from_code(f.u64(1)?)?,
            os: os_from_code(f.u64(2)?)?,
            caps: caps_from_code(f.u64(3)?)?,
            band: band_from_code(f.u64(4)?)?,
            rssi_dbm: f64::from_bits(f.u64(5)?),
        })
    }
}

impl WireRecord for LinkRecord {
    fn decode(body: &[u8]) -> Result<Self, WireError> {
        let f = Slots::read(body, [Varint; 4])?;
        Ok(LinkRecord {
            peer_device: f.u64(1)?,
            band: band_from_code(f.u64(2)?)?,
            probes_expected: f.narrow(3, "probe count out of range")?,
            probes_received: f.narrow(4, "probe count out of range")?,
        })
    }
}

impl WireRecord for AirtimeRecord {
    fn decode(body: &[u8]) -> Result<Self, WireError> {
        let f = Slots::read(body, [Varint; 4])?;
        Ok(AirtimeRecord {
            channel: channel_from_code(f.u64(1)?)?,
            elapsed_us: f.u64(2)?,
            busy_us: f.u64(3)?,
            wifi_us: f.u64(4)?,
        })
    }
}

impl WireRecord for NeighborRecord {
    fn decode(body: &[u8]) -> Result<Self, WireError> {
        let f = Slots::read(body, [Varint; 3])?;
        Ok(NeighborRecord {
            channel: channel_from_code(f.u64(1)?)?,
            networks: f.narrow(2, "network count out of range")?,
            hotspots: f.narrow(3, "hotspot count out of range")?,
        })
    }
}

impl WireRecord for ChannelScanRecord {
    fn decode(body: &[u8]) -> Result<Self, WireError> {
        let f = Slots::read(body, [Varint; 4])?;
        Ok(ChannelScanRecord {
            channel: channel_from_code(f.u64(1)?)?,
            utilization_ppm: f.narrow(2, "utilization out of range")?,
            decodable_ppm: f.narrow(3, "decodable share out of range")?,
            networks: f.narrow(4, "network count out of range")?,
        })
    }
}

impl WireRecord for CrashRecord {
    /// The firmware and reason are required; the three counters are
    /// optional and read 0 when absent.
    fn decode(body: &[u8]) -> Result<Self, WireError> {
        let f = Slots::read(body, [LengthDelimited, Varint, Varint, Varint, Varint])?;
        Ok(CrashRecord {
            firmware: std::str::from_utf8(f.text.ok_or(WireError::Schema("missing record field"))?)
                .map_err(|_| WireError::InvalidUtf8)?
                .to_string(),
            reason: f.narrow(2, "reboot reason out of range")?,
            program_counter: f.numbers[2].unwrap_or(0),
            uptime_s: f.numbers[3].unwrap_or(0),
            free_memory_bytes: f.numbers[4].unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::put_field_bytes;
    use airstat_classify::mac::{oui_of, Vendor};

    fn mac(n: u64) -> MacAddress {
        MacAddress::from_id(oui_of(Vendor::Apple), n)
    }

    fn ch(band: Band, n: u16) -> Channel {
        Channel::new(band, n).unwrap()
    }

    #[test]
    fn usage_report_roundtrip() {
        let report = Report {
            device: 1234,
            seq: 77,
            timestamp_s: 3600,
            payload: ReportPayload::Usage(vec![
                UsageRecord {
                    mac: mac(1),
                    app: Application::Netflix,
                    up_bytes: 12_000,
                    down_bytes: 900_000,
                },
                UsageRecord {
                    mac: mac(2),
                    app: Application::MiscWeb,
                    up_bytes: 0,
                    down_bytes: 55,
                },
            ]),
        };
        let decoded = Report::decode(&report.encode()).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn client_info_roundtrip_preserves_float() {
        let report = Report {
            device: 5,
            seq: 1,
            timestamp_s: 0,
            payload: ReportPayload::ClientInfo(vec![ClientInfoRecord {
                mac: mac(9),
                os: OsFamily::AppleIos,
                caps: Capabilities::new(Generation::Ac, true, true, 2),
                band: Band::Ghz5,
                rssi_dbm: -63.25,
            }]),
        };
        let decoded = Report::decode(&report.encode()).unwrap();
        assert_eq!(decoded, report);
        if let ReportPayload::ClientInfo(records) = &decoded.payload {
            assert_eq!(records[0].rssi_dbm, -63.25);
            assert!(records[0].caps.supports_ac());
        } else {
            panic!("wrong payload kind");
        }
    }

    #[test]
    fn links_airtime_neighbors_scan_roundtrip() {
        for payload in [
            ReportPayload::Links(vec![LinkRecord {
                peer_device: 42,
                band: Band::Ghz2_4,
                probes_expected: 20,
                probes_received: 13,
            }]),
            ReportPayload::Airtime(vec![AirtimeRecord {
                channel: ch(Band::Ghz2_4, 6),
                elapsed_us: 180_000_000,
                busy_us: 45_000_000,
                wifi_us: 40_000_000,
            }]),
            ReportPayload::Neighbors(vec![NeighborRecord {
                channel: ch(Band::Ghz2_4, 1),
                networks: 23,
                hotspots: 5,
            }]),
            ReportPayload::ChannelScan(vec![ChannelScanRecord {
                channel: ch(Band::Ghz5, 36),
                utilization_ppm: 52_000,
                decodable_ppm: 910_000,
                networks: 3,
            }]),
        ] {
            let report = Report {
                device: 7,
                seq: 3,
                timestamp_s: 99,
                payload,
            };
            assert_eq!(Report::decode(&report.encode()).unwrap(), report);
        }
    }

    #[test]
    fn encode_into_reused_buffers_match_encode() {
        let reports = [
            Report {
                device: 7,
                seq: 3,
                timestamp_s: 99,
                payload: ReportPayload::Usage(vec![UsageRecord {
                    mac: MacAddress([2, 0, 0, 0, 0, 1]),
                    app: Application::Netflix,
                    up_bytes: 10,
                    down_bytes: 4_000,
                }]),
            },
            Report {
                device: 9,
                seq: 4,
                timestamp_s: 777,
                payload: ReportPayload::Crash(vec![CrashRecord {
                    firmware: "mr16-25.9".into(),
                    reason: 0,
                    program_counter: 0x40_1234,
                    uptime_s: 5_400,
                    free_memory_bytes: 12_288,
                }]),
            },
        ];
        // One long-lived buffer pair across the whole loop, as the
        // tunnel hot path uses it — bytes must match the allocating
        // encode exactly, even with leftover scratch from prior reports.
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for report in &reports {
            out.clear();
            report.encode_into(&mut out, &mut scratch);
            assert_eq!(out, report.encode());
        }
    }

    #[test]
    fn crash_report_roundtrip() {
        let report = Report {
            device: 9,
            seq: 4,
            timestamp_s: 777,
            payload: ReportPayload::Crash(vec![CrashRecord {
                firmware: "mr16-25.9".into(),
                reason: 0,
                program_counter: 0x40_1234,
                uptime_s: 5_400,
                free_memory_bytes: 12_288,
            }]),
        };
        assert_eq!(Report::decode(&report.encode()).unwrap(), report);
    }

    #[test]
    fn delivery_ratio_math() {
        let r = LinkRecord {
            peer_device: 1,
            band: Band::Ghz2_4,
            probes_expected: 20,
            probes_received: 13,
        };
        assert!((r.delivery_ratio().unwrap() - 0.65).abs() < 1e-12);
        let none = LinkRecord {
            probes_expected: 0,
            ..r
        };
        assert_eq!(none.delivery_ratio(), None);
        // Received can never push the ratio above 1 even if counters skew.
        let over = LinkRecord {
            probes_received: 25,
            ..r
        };
        assert_eq!(over.delivery_ratio(), Some(1.0));
    }

    #[test]
    fn missing_header_fields_rejected() {
        let report = Report {
            device: 1,
            seq: 2,
            timestamp_s: 3,
            payload: ReportPayload::Usage(vec![]),
        };
        let mut bytes = report.encode();
        // Truncate the encoding so the kind field disappears.
        bytes.truncate(4);
        assert!(Report::decode(&bytes).is_err());
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut out = Vec::new();
        put_field_u64(&mut out, F_DEVICE, 1);
        put_field_u64(&mut out, F_SEQ, 1);
        put_field_u64(&mut out, F_TIMESTAMP, 1);
        put_field_u64(&mut out, F_KIND, 99);
        assert!(matches!(
            Report::decode(&out),
            Err(WireError::Schema("unknown payload kind"))
        ));
    }

    #[test]
    fn codes_roundtrip_all_enums() {
        for &app in Application::ALL {
            assert_eq!(app_from_code(app_code(app)).unwrap(), app);
        }
        for &os in &OsFamily::ALL {
            assert_eq!(os_from_code(os_code(os)).unwrap(), os);
        }
        for band in [Band::Ghz2_4, Band::Ghz5] {
            for channel in Channel::all_in(band) {
                assert_eq!(channel_from_code(channel_code(channel)).unwrap(), channel);
            }
        }
        assert!(app_from_code(10_000).is_err());
        assert!(os_from_code(10_000).is_err());
    }

    #[test]
    fn caps_code_roundtrip() {
        for generation in [Generation::B, Generation::G, Generation::N, Generation::Ac] {
            for dual in [false, true] {
                for forty in [false, true] {
                    for streams in 1..=4u8 {
                        let caps = Capabilities::new(generation, dual, forty, streams);
                        let back = caps_from_code(caps_code(caps)).unwrap();
                        assert_eq!(back, caps);
                    }
                }
            }
        }
    }

    #[test]
    fn wire_format_doc_example_is_pinned() {
        // The worked example in docs/WIRE_FORMAT.md, byte for byte.
        let report = Report {
            device: 7,
            seq: 3,
            timestamp_s: 99,
            payload: ReportPayload::Links(vec![LinkRecord {
                peer_device: 42,
                band: Band::Ghz2_4,
                probes_expected: 20,
                probes_received: 13,
            }]),
        };
        assert_eq!(
            report.encode(),
            [
                0x08, 0x07, // device = 7
                0x10, 0x03, // seq = 3
                0x18, 0x63, // timestamp = 99
                0x20, 0x02, // kind = Links
                0x2A, 0x08, // record, 8 bytes
                0x08, 0x2A, 0x10, 0x00, 0x18, 0x14, 0x20, 0x0D,
            ]
        );
    }

    #[test]
    fn encoding_is_compact() {
        // One usage record should cost tens of bytes, not hundreds — the
        // paper's 1 kbit/s budget depends on this.
        let report = Report {
            device: 1,
            seq: 1,
            timestamp_s: 1,
            payload: ReportPayload::Usage(vec![UsageRecord {
                mac: mac(1),
                app: Application::Youtube,
                up_bytes: 1_000,
                down_bytes: 1_000_000,
            }]),
        };
        let len = report.encode().len();
        assert!(len < 48, "encoded size {len}");
    }

    /// A report image around hand-written record bodies: the header any
    /// encoder writes, then `records` verbatim, each as one `F_RECORD`.
    fn framed(kind: u64, records: &[Vec<u8>]) -> Vec<u8> {
        let mut out = Vec::new();
        put_field_u64(&mut out, F_DEVICE, 7);
        put_field_u64(&mut out, F_SEQ, 3);
        put_field_u64(&mut out, F_TIMESTAMP, 99);
        put_field_u64(&mut out, F_KIND, kind);
        for record in records {
            put_field_bytes(&mut out, F_RECORD, record);
        }
        out
    }

    /// Varint fields `(number, value)` in the order given.
    fn varints(fields: &[(u32, u64)]) -> Vec<u8> {
        let mut out = Vec::new();
        for &(number, value) in fields {
            put_field_u64(&mut out, number, value);
        }
        out
    }

    #[test]
    fn hostile_records_decode_to_the_pinned_results() {
        // Records no encoder writes. Each kind's fields land in slots of
        // their own, so a record sees none of the record before it.
        let usage = |up_bytes, down_bytes| UsageRecord {
            mac: mac_from_code(0xAB).unwrap(),
            app: app_from_code(2).unwrap(),
            up_bytes,
            down_bytes,
        };
        let decoded = |kind, records: &[Vec<u8>]| Report::decode(&framed(kind, records));
        let payload = |kind, records: &[Vec<u8>]| decoded(kind, records).map(|r| r.payload);

        // More varint fields than any record kind has (and than six), the
        // known four last; a short record after it sees none of them.
        let crowded = varints(&[
            (9, 1),
            (10, 2),
            (11, 3),
            (12, 4),
            (13, 5),
            (14, 6),
            (15, 7),
            (1, 0xAB),
            (2, 2),
            (3, 30),
            (4, 40),
        ]);
        let plain = varints(&[(1, 0xAB), (2, 2), (3, 31), (4, 41)]);
        assert_eq!(
            payload(0, &[crowded.clone(), plain.clone()]),
            Ok(ReportPayload::Usage(vec![usage(30, 40), usage(31, 41)]))
        );
        let short = varints(&[(1, 0xAB), (2, 2), (3, 31)]);
        assert_eq!(
            payload(0, &[crowded, short]),
            Err(WireError::Schema("missing record field")),
            "a field of the record before is not a field of this one"
        );

        // Zero records, and one empty record.
        assert_eq!(payload(0, &[]), Ok(ReportPayload::Usage(Vec::new())));
        assert_eq!(payload(2, &[]), Ok(ReportPayload::Links(Vec::new())));
        assert_eq!(payload(3, &[]), Ok(ReportPayload::Airtime(Vec::new())));
        assert_eq!(payload(4, &[]), Ok(ReportPayload::Neighbors(Vec::new())));
        assert_eq!(payload(5, &[]), Ok(ReportPayload::ChannelScan(Vec::new())));
        assert_eq!(
            payload(0, &[Vec::new()]),
            Err(WireError::Schema("missing record field"))
        );

        // A record cut inside a varint is the reader's error, not a
        // schema one; a bad code in a complete record is a schema one.
        assert_eq!(
            payload(0, &[vec![0x08, 0x80]]),
            Err(WireError::UnexpectedEof)
        );
        assert_eq!(
            payload(0, &[varints(&[(1, 0xAB), (2, 9_999), (3, 1), (4, 1)])]),
            Err(WireError::Schema("unknown application code"))
        );
        // Fields in any order, unknown numbers among them.
        assert_eq!(
            payload(2, &[varints(&[(8, 8), (4, 13), (3, 20), (2, 0), (1, 42)])]),
            Ok(ReportPayload::Links(vec![LinkRecord {
                peer_device: 42,
                band: Band::Ghz2_4,
                probes_expected: 20,
                probes_received: 13,
            }]))
        );
        let header = decoded(0, &[plain]).unwrap();
        assert_eq!((header.device, header.seq, header.timestamp_s), (7, 3, 99));
    }

    #[test]
    fn a_repeated_field_keeps_its_last_occurrence_in_the_header_and_every_record_kind() {
        // The header's rule, and the same for the records of every kind:
        // each known field is sent twice, a value no encoder writes first.
        for report in one_report_per_kind() {
            let (header, records) = split(&report);
            let mut bytes = Vec::new();
            for number in [F_DEVICE, F_SEQ, F_TIMESTAMP] {
                put_field_u64(&mut bytes, number, 1 << 50);
            }
            put_field_u64(&mut bytes, F_KIND, (report.payload.kind_code() + 1) % 7);
            bytes.extend(&header);
            for record in &records {
                let mut body = Vec::new();
                for (number, value) in fields(record) {
                    match value {
                        Value::Varint(_) => put_field_u64(&mut body, number, u64::MAX),
                        Value::Fixed64 => put_field_f64(&mut body, number, 1e300),
                        Value::Bytes(_) => put_field_str(&mut body, number, "stale"),
                    }
                }
                body.extend(record);
                put_field_bytes(&mut bytes, F_RECORD, &body);
            }
            assert_eq!(Report::decode(&bytes), Ok(report));
        }
    }

    #[test]
    fn a_known_field_under_another_wire_type_is_a_schema_error_in_every_record_kind() {
        let expected = |wire_type| match wire_type {
            WireType::Varint => "expected varint field",
            WireType::Fixed64 => "expected fixed64 field",
            WireType::LengthDelimited => "expected length-delimited field",
        };
        for report in one_report_per_kind() {
            let (header, records) = split(&report);
            // Every field of every kind is present in its first record.
            let types: Vec<WireType> = fields(&records[0])
                .into_iter()
                .map(|(_, value)| match value {
                    Value::Varint(_) => Varint,
                    Value::Fixed64 => Fixed64,
                    Value::Bytes(_) => LengthDelimited,
                })
                .collect();
            for (i, &wire_type) in types.iter().enumerate() {
                let number = i as u32 + 1;
                // The right type after the wrong one does not save it.
                let mut body = Vec::new();
                match wire_type {
                    WireType::Varint => put_field_f64(&mut body, number, 5.0),
                    WireType::Fixed64 | WireType::LengthDelimited => {
                        put_field_u64(&mut body, number, 5)
                    }
                }
                body.extend(&records[0]);
                let mut bytes = header.clone();
                put_field_bytes(&mut bytes, F_RECORD, &body);
                assert_eq!(
                    Report::decode(&bytes),
                    Err(WireError::Schema(expected(wire_type))),
                    "{:?} field {number}",
                    report.payload.kind_code()
                );
            }
            // Past the kind's fields, any wire type is an unknown field.
            let mut body = records[0].clone();
            put_field_str(&mut body, types.len() as u32 + 1, "later");
            let mut bytes = header.clone();
            put_field_bytes(&mut bytes, F_RECORD, &body);
            assert!(Report::decode(&bytes).is_ok());
        }
        // The header's own rule.
        let mut bytes = Vec::new();
        put_field_f64(&mut bytes, F_DEVICE, 1.0);
        assert_eq!(
            Report::decode(&bytes),
            Err(WireError::Schema("expected varint field"))
        );
    }

    /// `record` with field `number` replaced by the varint `value`.
    fn with_varint(record: &[u8], number: u32, value: u64) -> Vec<u8> {
        let mut body = record.to_vec();
        put_field_u64(&mut body, number, value);
        body
    }

    /// Decodes one record of `kind` built from `record`.
    fn decode_one(kind: u64, record: Vec<u8>) -> Result<ReportPayload, WireError> {
        Report::decode(&framed(kind, &[record])).map(|r| r.payload)
    }

    #[test]
    fn link_probe_counts_past_u32_are_rejected() {
        let link = varints(&[(1, 42), (2, 0), (3, 20), (4, 13)]);
        for number in [3, 4] {
            assert!(decode_one(2, with_varint(&link, number, u64::from(u32::MAX))).is_ok());
            assert_eq!(
                decode_one(2, with_varint(&link, number, 1 << 32)),
                Err(WireError::Schema("probe count out of range")),
                "field {number}"
            );
        }
    }

    #[test]
    fn neighbor_counts_past_u32_are_rejected() {
        let neighbors = varints(&[(1, 1), (2, 23), (3, 5)]);
        assert!(decode_one(4, with_varint(&neighbors, 2, u64::from(u32::MAX))).is_ok());
        assert_eq!(
            decode_one(4, with_varint(&neighbors, 2, 1 << 32)),
            Err(WireError::Schema("network count out of range"))
        );
        assert_eq!(
            decode_one(4, with_varint(&neighbors, 3, 1 << 32)),
            Err(WireError::Schema("hotspot count out of range"))
        );
    }

    #[test]
    fn channel_scan_values_past_u32_are_rejected() {
        let scan = varints(&[(1, 36 | 1 << 16), (2, 52_000), (3, 910_000), (4, 3)]);
        assert!(decode_one(5, scan.clone()).is_ok());
        for (number, error) in [
            (2, "utilization out of range"),
            (3, "decodable share out of range"),
            (4, "network count out of range"),
        ] {
            assert_eq!(
                decode_one(5, with_varint(&scan, number, u64::from(u32::MAX) + 1)),
                Err(WireError::Schema(error))
            );
        }
    }

    #[test]
    fn crash_reasons_past_u8_are_rejected() {
        let mut crash = Vec::new();
        put_field_str(&mut crash, 1, "mr16-25.9");
        assert!(decode_one(6, with_varint(&crash, 2, 255)).is_ok());
        assert_eq!(
            decode_one(6, with_varint(&crash, 2, 256)),
            Err(WireError::Schema("reboot reason out of range"))
        );
    }

    #[test]
    fn crash_firmware_must_be_utf8() {
        let mut crash = Vec::new();
        put_field_bytes(&mut crash, 1, &[0xFF, 0xFE]);
        put_field_u64(&mut crash, 2, 1);
        assert_eq!(decode_one(6, crash), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn mac_codes_past_48_bits_are_rejected_not_aliased() {
        let top = (1 << 48) - 1;
        assert_eq!(mac_from_code(top), Ok(MacAddress([0xFF; 6])));
        assert_eq!(
            mac_code(mac_from_code(0x0102_0304_0506).unwrap()),
            0x0102_0304_0506
        );
        let usage = varints(&[(2, 2), (3, 1), (4, 1)]);
        let info = {
            let mut body = varints(&[(2, 0), (3, 0), (4, 0)]);
            put_field_f64(&mut body, 5, -60.0);
            body
        };
        for (kind, record) in [(0, usage), (1, info)] {
            assert!(decode_one(kind, with_varint(&record, 1, top)).is_ok());
            assert_eq!(
                decode_one(kind, with_varint(&record, 1, (1 << 48) | 0xAB)),
                Err(WireError::Schema("MAC code out of range")),
                "kind {kind}"
            );
        }
    }

    /// One report of every kind, two records each where the kind has a
    /// record to give.
    fn one_report_per_kind() -> Vec<Report> {
        let payloads = [
            ReportPayload::Usage(vec![
                UsageRecord {
                    mac: mac(1),
                    app: Application::Netflix,
                    up_bytes: 12_000,
                    down_bytes: 900_000,
                },
                UsageRecord {
                    mac: mac(2),
                    app: Application::MiscWeb,
                    up_bytes: 0,
                    down_bytes: 55,
                },
            ]),
            ReportPayload::ClientInfo(vec![ClientInfoRecord {
                mac: mac(9),
                os: OsFamily::AppleIos,
                caps: Capabilities::new(Generation::Ac, true, true, 2),
                band: Band::Ghz5,
                rssi_dbm: -63.25,
            }]),
            ReportPayload::Links(vec![LinkRecord {
                peer_device: 42,
                band: Band::Ghz2_4,
                probes_expected: 20,
                probes_received: 13,
            }]),
            ReportPayload::Airtime(vec![AirtimeRecord {
                channel: ch(Band::Ghz2_4, 6),
                elapsed_us: 180_000_000,
                busy_us: 45_000_000,
                wifi_us: 40_000_000,
            }]),
            ReportPayload::Neighbors(vec![NeighborRecord {
                channel: ch(Band::Ghz2_4, 1),
                networks: 23,
                hotspots: 5,
            }]),
            ReportPayload::ChannelScan(vec![ChannelScanRecord {
                channel: ch(Band::Ghz5, 36),
                utilization_ppm: 52_000,
                decodable_ppm: 910_000,
                networks: 3,
            }]),
            ReportPayload::Crash(vec![
                CrashRecord {
                    firmware: "mr16-25.9".into(),
                    reason: 3,
                    program_counter: 0x40_1234,
                    uptime_s: 5_400,
                    free_memory_bytes: 12_288,
                },
                CrashRecord {
                    firmware: String::new(),
                    reason: 0,
                    program_counter: 0,
                    uptime_s: 0,
                    free_memory_bytes: 0,
                },
            ]),
        ];
        payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| Report {
                device: 40 + i as u64,
                seq: 7,
                timestamp_s: 3_600,
                payload,
            })
            .collect()
    }

    /// One field's value, as a test reads it.
    #[derive(Debug, Clone, Copy)]
    enum Value<'a> {
        Varint(u64),
        Fixed64,
        Bytes(&'a [u8]),
    }

    /// Every field of `bytes`, in order.
    fn fields(bytes: &[u8]) -> Vec<(u32, Value<'_>)> {
        let mut out = Vec::new();
        let mut reader = Reader::new(bytes);
        while let Some((number, wire_type)) = reader.next_tag().unwrap() {
            let value = match wire_type {
                Varint => Value::Varint(reader.read_varint().unwrap()),
                Fixed64 => {
                    reader.read_fixed64().unwrap();
                    Value::Fixed64
                }
                LengthDelimited => Value::Bytes(reader.read_bytes().unwrap()),
            };
            out.push((number, value));
        }
        out
    }

    /// `report`'s canonical encoding split into its header fields and
    /// its record bodies.
    fn split(report: &Report) -> (Vec<u8>, Vec<Vec<u8>>) {
        let (mut header, mut records) = (Vec::new(), Vec::new());
        for (number, value) in fields(&report.encode()) {
            match value {
                Value::Bytes(record) => records.push(record.to_vec()),
                Value::Varint(v) => put_field_u64(&mut header, number, v),
                Value::Fixed64 => unreachable!("the header has no fixed64 field"),
            }
        }
        (header, records)
    }

    /// One unknown field of each wire type.
    fn unknown_fields() -> Vec<u8> {
        let mut out = Vec::new();
        put_field_u64(&mut out, 9, 1 << 40);
        put_field_f64(&mut out, 10, -1.5);
        put_field_str(&mut out, 11, "a field from a later firmware");
        out
    }

    #[test]
    fn unknown_fields_are_skipped_in_the_header_and_in_every_record_kind() {
        for report in one_report_per_kind() {
            let (header, records) = split(&report);
            let mut bytes = unknown_fields();
            bytes.extend(&header);
            for record in &records {
                let mut body = unknown_fields();
                body.extend(record);
                body.extend(unknown_fields());
                put_field_bytes(&mut bytes, F_RECORD, &body);
                bytes.extend(unknown_fields());
            }
            assert_eq!(Report::decode(&bytes), Ok(report));
        }
    }

    #[test]
    fn header_fields_after_the_records_are_accepted() {
        for report in one_report_per_kind() {
            let (header, records) = split(&report);
            let mut bytes = Vec::new();
            for record in &records {
                put_field_bytes(&mut bytes, F_RECORD, record);
            }
            bytes.extend(&header);
            assert_eq!(Report::decode(&bytes), Ok(report.clone()));
            // ... and between them.
            let mut bytes = Vec::new();
            put_field_bytes(&mut bytes, F_RECORD, &records[0]);
            bytes.extend(&header);
            for record in &records[1..] {
                put_field_bytes(&mut bytes, F_RECORD, record);
            }
            assert_eq!(Report::decode(&bytes), Ok(report));
        }
    }

    #[test]
    fn a_report_without_records_decodes_for_every_kind() {
        for mut report in one_report_per_kind() {
            report.payload = match report.payload {
                ReportPayload::Usage(_) => ReportPayload::Usage(Vec::new()),
                ReportPayload::ClientInfo(_) => ReportPayload::ClientInfo(Vec::new()),
                ReportPayload::Links(_) => ReportPayload::Links(Vec::new()),
                ReportPayload::Airtime(_) => ReportPayload::Airtime(Vec::new()),
                ReportPayload::Neighbors(_) => ReportPayload::Neighbors(Vec::new()),
                ReportPayload::ChannelScan(_) => ReportPayload::ChannelScan(Vec::new()),
                ReportPayload::Crash(_) => ReportPayload::Crash(Vec::new()),
            };
            assert_eq!(Report::decode(&report.encode()), Ok(report));
        }
    }

    #[test]
    fn each_missing_header_field_is_a_schema_error() {
        let report = &one_report_per_kind()[0];
        let (header, records) = split(report);
        for (number, error) in [
            (F_DEVICE, "missing device id"),
            (F_SEQ, "missing sequence number"),
            (F_TIMESTAMP, "missing timestamp"),
            (F_KIND, "missing payload kind"),
        ] {
            let mut bytes = Vec::new();
            for (kept, value) in fields(&header) {
                if let (true, Value::Varint(v)) = (kept != number, value) {
                    put_field_u64(&mut bytes, kept, v);
                }
            }
            for record in &records {
                put_field_bytes(&mut bytes, F_RECORD, record);
            }
            assert_eq!(Report::decode(&bytes), Err(WireError::Schema(error)));
        }
    }
}
