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

use crate::wire::{put_field_f64, put_field_msg, put_field_str, put_field_u64, Reader, WireError};

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

fn mac_from_code(code: u64) -> MacAddress {
    MacAddress::new([
        (code >> 40) as u8,
        (code >> 32) as u8,
        (code >> 24) as u8,
        (code >> 16) as u8,
        (code >> 8) as u8,
        code as u8,
    ])
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
    pub fn decode(bytes: &[u8]) -> Result<Report, WireError> {
        let mut reader = Reader::new(bytes);
        let mut device = None;
        let mut seq = None;
        let mut timestamp = None;
        let mut kind = None;
        let mut record_bufs: Vec<&[u8]> = Vec::new();
        while let Some(field) = reader.next_field()? {
            match field.number() {
                F_DEVICE => device = Some(field.as_u64()?),
                F_SEQ => seq = Some(field.as_u64()?),
                F_TIMESTAMP => timestamp = Some(field.as_u64()?),
                F_KIND => kind = Some(field.as_u64()?),
                F_RECORD => record_bufs.push(field.as_bytes()?),
                _ => {} // forward compatibility: skip unknown fields
            }
        }
        let device = device.ok_or(WireError::Schema("missing device id"))?;
        let seq = seq.ok_or(WireError::Schema("missing sequence number"))?;
        let timestamp_s = timestamp.ok_or(WireError::Schema("missing timestamp"))?;
        let kind = kind.ok_or(WireError::Schema("missing payload kind"))?;
        let payload = match kind {
            0 => ReportPayload::Usage(decode_records(&record_bufs, |f| {
                Ok(UsageRecord {
                    mac: mac_from_code(f(1)?),
                    app: app_from_code(f(2)?)?,
                    up_bytes: f(3)?,
                    down_bytes: f(4)?,
                })
            })?),
            1 => {
                let mut out = Vec::with_capacity(record_bufs.len());
                for buf in &record_bufs {
                    let mut mac = None;
                    let mut os = None;
                    let mut caps = None;
                    let mut band = None;
                    let mut rssi = None;
                    let mut r = Reader::new(buf);
                    while let Some(field) = r.next_field()? {
                        match field.number() {
                            1 => mac = Some(mac_from_code(field.as_u64()?)),
                            2 => os = Some(os_from_code(field.as_u64()?)?),
                            3 => caps = Some(caps_from_code(field.as_u64()?)?),
                            4 => band = Some(band_from_code(field.as_u64()?)?),
                            5 => rssi = Some(field.as_f64()?),
                            _ => {}
                        }
                    }
                    out.push(ClientInfoRecord {
                        mac: mac.ok_or(WireError::Schema("client info missing mac"))?,
                        os: os.ok_or(WireError::Schema("client info missing os"))?,
                        caps: caps.ok_or(WireError::Schema("client info missing caps"))?,
                        band: band.ok_or(WireError::Schema("client info missing band"))?,
                        rssi_dbm: rssi.ok_or(WireError::Schema("client info missing rssi"))?,
                    });
                }
                ReportPayload::ClientInfo(out)
            }
            2 => ReportPayload::Links(decode_records(&record_bufs, |f| {
                Ok(LinkRecord {
                    peer_device: f(1)?,
                    band: band_from_code(f(2)?)?,
                    probes_expected: f(3)? as u32,
                    probes_received: f(4)? as u32,
                })
            })?),
            3 => ReportPayload::Airtime(decode_records(&record_bufs, |f| {
                Ok(AirtimeRecord {
                    channel: channel_from_code(f(1)?)?,
                    elapsed_us: f(2)?,
                    busy_us: f(3)?,
                    wifi_us: f(4)?,
                })
            })?),
            4 => ReportPayload::Neighbors(decode_records(&record_bufs, |f| {
                Ok(NeighborRecord {
                    channel: channel_from_code(f(1)?)?,
                    networks: f(2)? as u32,
                    hotspots: f(3)? as u32,
                })
            })?),
            5 => ReportPayload::ChannelScan(decode_records(&record_bufs, |f| {
                Ok(ChannelScanRecord {
                    channel: channel_from_code(f(1)?)?,
                    utilization_ppm: f(2)? as u32,
                    decodable_ppm: f(3)? as u32,
                    networks: f(4)? as u32,
                })
            })?),
            6 => {
                let mut out = Vec::with_capacity(record_bufs.len());
                for buf in &record_bufs {
                    let mut firmware = None;
                    let mut reason = None;
                    let mut pc = None;
                    let mut uptime = None;
                    let mut free = None;
                    let mut r = Reader::new(buf);
                    while let Some(field) = r.next_field()? {
                        match field.number() {
                            1 => firmware = Some(field.as_str()?.to_string()),
                            2 => reason = Some(field.as_u64()? as u8),
                            3 => pc = Some(field.as_u64()?),
                            4 => uptime = Some(field.as_u64()?),
                            5 => free = Some(field.as_u64()?),
                            _ => {}
                        }
                    }
                    out.push(CrashRecord {
                        firmware: firmware.ok_or(WireError::Schema("crash missing firmware"))?,
                        reason: reason.ok_or(WireError::Schema("crash missing reason"))?,
                        program_counter: pc.unwrap_or(0),
                        uptime_s: uptime.unwrap_or(0),
                        free_memory_bytes: free.unwrap_or(0),
                    });
                }
                ReportPayload::Crash(out)
            }
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

/// Decodes a batch of nested record messages whose fields are all varints.
///
/// `build` receives a field-lookup closure: `f(n)` returns varint field `n`
/// of the current record (its first occurrence) or a schema error if
/// absent.
fn decode_records<T>(
    bufs: &[&[u8]],
    build: impl Fn(&dyn Fn(u32) -> Result<u64, WireError>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let mut out = Vec::with_capacity(bufs.len());
    // One scratch for every record of the report, allocated by the first
    // field pushed: a report without records (every poll of an idle AP)
    // must not pay for it.
    let mut fields: Vec<(u32, u64)> = Vec::new();
    for buf in bufs {
        // Collect the record's varint fields once.
        fields.clear();
        let mut r = Reader::new(buf);
        while let Some(field) = r.next_field()? {
            if let Ok(v) = field.as_u64() {
                fields.push((field.number(), v));
            }
        }
        let lookup = |n: u32| -> Result<u64, WireError> {
            fields
                .iter()
                .find(|&&(num, _)| num == n)
                .map(|&(_, v)| v)
                .ok_or(WireError::Schema("missing record field"))
        };
        out.push(build(&lookup)?);
    }
    Ok(out)
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
        // Results captured on the decoder that collected each record's
        // varints into a `Vec` of its own; the scratch the records of a
        // report now share must return the same for records no encoder
        // writes.
        let usage = |up_bytes, down_bytes| UsageRecord {
            mac: mac_from_code(0xAB),
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

        // A repeated field number: the first occurrence wins.
        let repeated = varints(&[(1, 0xAB), (3, 7), (2, 2), (3, 9), (4, 1), (1, 0xCD), (4, 2)]);
        assert_eq!(
            payload(0, &[repeated]),
            Ok(ReportPayload::Usage(vec![usage(7, 1)]))
        );

        // Non-varint fields between varints are passed over, even under a
        // number the record kind uses.
        let mut mixed = varints(&[(1, 0xAB)]);
        put_field_f64(&mut mixed, 2, 5.0);
        put_field_bytes(&mut mixed, 3, b"xyz");
        mixed.extend(varints(&[(2, 2), (3, 30)]));
        put_field_f64(&mut mixed, 4, 1.5);
        mixed.extend(varints(&[(4, 40)]));
        assert_eq!(
            payload(0, &[mixed]),
            Ok(ReportPayload::Usage(vec![usage(30, 40)]))
        );
        // ... and do not stand in for a missing varint.
        let mut no_varint = varints(&[(1, 0xAB), (2, 2), (3, 30)]);
        put_field_f64(&mut no_varint, 4, 1.5);
        assert_eq!(
            payload(0, &[no_varint]),
            Err(WireError::Schema("missing record field"))
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
        // The same lookup serves the other all-varint kinds.
        assert_eq!(
            payload(
                2,
                &[varints(&[
                    (8, 8),
                    (4, 13),
                    (3, 20),
                    (2, 0),
                    (1, 42),
                    (1, 43)
                ])]
            ),
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
}
