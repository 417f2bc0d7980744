//! The backend store: ingest, deduplicate, aggregate, query.
//!
//! §2.3: "local statistics are aggregated by MAC address in the backend (to
//! account for roaming)". The store keys client data by MAC so a phone that
//! roams across five APs in a week contributes a single client row with its
//! combined usage, exactly as Table 3 counts clients.
//!
//! Ingestion is idempotent per `(device, seq)` — the transport layer is
//! at-least-once, so retransmitted reports must never double-count bytes.
//! All aggregates are grouped by a caller-chosen [`WindowId`] (one per
//! measurement window: January 2014, July 2014, January 2015, ...).

use std::collections::BTreeMap;

use airstat_classify::apps::Application;
use airstat_classify::device::OsFamily;
use airstat_classify::mac::MacAddress;
use airstat_rf::airtime::AirtimeLedger;
use airstat_rf::band::{Band, Channel};
use airstat_rf::phy::Capabilities;

use crate::crash::{CrashAggregator, CrashReport, RebootReason};
use crate::report::{ChannelScanRecord, Report, ReportPayload};

/// A measurement window label (e.g. `WindowId(2015)` for Jan 15–22 2015).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WindowId(pub u16);

/// Aggregated per-client usage for one application.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UsageTotals {
    /// Upstream bytes (client → network).
    pub up_bytes: u64,
    /// Downstream bytes (network → client).
    pub down_bytes: u64,
}

impl UsageTotals {
    /// Total bytes both directions.
    pub fn total(&self) -> u64 {
        self.up_bytes.saturating_add(self.down_bytes)
    }
}

/// A client's resolved identity within a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientIdentity {
    /// Classified operating system.
    pub os: OsFamily,
    /// Advertised capabilities.
    pub caps: Capabilities,
    /// Band of the most recent association.
    pub band: Band,
    /// Most recent RSSI observation (dBm).
    pub rssi_dbm: f64,
}

/// One observation of a probe link's delivery ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkObservation {
    /// Device timestamp of the report (s).
    pub timestamp_s: u64,
    /// Delivery ratio in `[0, 1]`.
    pub ratio: f64,
}

/// A directed probe link key: receiver hears transmitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkKey {
    /// Receiving device id.
    pub rx_device: u64,
    /// Transmitting device id.
    pub tx_device: u64,
    /// Probe band.
    pub band: Band,
}

/// One MR18 channel-scan observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanObservation {
    /// Device timestamp (s).
    pub timestamp_s: u64,
    /// The record as reported.
    pub record: ChannelScanRecord,
}

/// Per-device census rows: `(channel, networks, hotspots)`.
type CensusRows = Vec<(Channel, u32, u32)>;

/// The central store.
#[derive(Debug, Default)]
pub struct Backend {
    last_seq: BTreeMap<(WindowId, u64), u64>,
    usage: BTreeMap<WindowId, BTreeMap<(MacAddress, Application), UsageTotals>>,
    // BTreeMap: snapshot sampling iterates this map, so its order must be
    // deterministic for byte-identical reproductions.
    clients: BTreeMap<WindowId, BTreeMap<MacAddress, ClientIdentity>>,
    links: BTreeMap<WindowId, BTreeMap<LinkKey, Vec<LinkObservation>>>,
    airtime: BTreeMap<WindowId, BTreeMap<(u64, Band), AirtimeLedger>>,
    neighbors: BTreeMap<WindowId, BTreeMap<u64, CensusRows>>,
    scans: BTreeMap<WindowId, BTreeMap<u64, Vec<ScanObservation>>>,
    crashes: BTreeMap<WindowId, CrashAggregator>,
}

impl Backend {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests one report into the given window.
    ///
    /// Returns `false` (and changes nothing) when the report is a
    /// duplicate of one already ingested from that device *into that
    /// window* — devices restart sequence numbering per measurement
    /// window, so the dedup scope is `(window, device)`.
    ///
    /// ```
    /// use airstat_telemetry::backend::{Backend, WindowId};
    /// use airstat_telemetry::report::{Report, ReportPayload};
    ///
    /// let mut backend = Backend::new();
    /// let report = Report {
    ///     device: 1,
    ///     seq: 0,
    ///     timestamp_s: 0,
    ///     payload: ReportPayload::Usage(vec![]),
    /// };
    /// assert!(backend.ingest(WindowId(1501), &report));
    /// // A retransmission of the same sequence number is rejected.
    /// assert!(!backend.ingest(WindowId(1501), &report));
    /// ```
    pub fn ingest(&mut self, window: WindowId, report: &Report) -> bool {
        if let Some(&last) = self.last_seq.get(&(window, report.device)) {
            if report.seq <= last {
                return false;
            }
        }
        self.last_seq.insert((window, report.device), report.seq);
        match &report.payload {
            ReportPayload::Usage(records) => {
                let usage = self.usage.entry(window).or_default();
                for r in records {
                    let slot = usage.entry((r.mac, r.app)).or_default();
                    slot.up_bytes = slot.up_bytes.saturating_add(r.up_bytes);
                    slot.down_bytes = slot.down_bytes.saturating_add(r.down_bytes);
                }
            }
            ReportPayload::ClientInfo(records) => {
                let clients = self.clients.entry(window).or_default();
                for r in records {
                    clients.insert(
                        r.mac,
                        ClientIdentity {
                            os: r.os,
                            caps: r.caps,
                            band: r.band,
                            rssi_dbm: r.rssi_dbm,
                        },
                    );
                }
            }
            ReportPayload::Links(records) => {
                let links = self.links.entry(window).or_default();
                for r in records {
                    if let Some(ratio) = r.delivery_ratio() {
                        links
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
                let airtime = self.airtime.entry(window).or_default();
                for r in records {
                    let ledger = airtime.entry((report.device, r.channel.band)).or_default();
                    ledger.account(r.elapsed_us, r.busy_us, r.wifi_us);
                }
            }
            ReportPayload::Neighbors(records) => {
                let neighbors = self.neighbors.entry(window).or_default();
                let entry = neighbors.entry(report.device).or_default();
                // A fresh census replaces the previous one for the device.
                entry.clear();
                entry.extend(records.iter().map(|r| (r.channel, r.networks, r.hotspots)));
            }
            ReportPayload::ChannelScan(records) => {
                let scans = self.scans.entry(window).or_default();
                let entry = scans.entry(report.device).or_default();
                entry.extend(records.iter().map(|&record| ScanObservation {
                    timestamp_s: report.timestamp_s,
                    record,
                }));
            }
            ReportPayload::Crash(records) => {
                let aggregator = self.crashes.entry(window).or_default();
                for r in records {
                    let reason = match r.reason {
                        0 => RebootReason::OutOfMemory,
                        1 => RebootReason::Watchdog,
                        2 => RebootReason::Fault,
                        3 => RebootReason::Requested,
                        _ => RebootReason::PowerLoss,
                    };
                    aggregator.ingest(CrashReport {
                        device: report.device,
                        firmware: r.firmware.clone(),
                        reason,
                        program_counter: r.program_counter,
                        uptime_s: r.uptime_s,
                        free_memory_bytes: r.free_memory_bytes,
                    });
                }
            }
        }
        true
    }

    /// Ingests a batch of reports in order, returning how many were
    /// accepted (non-duplicates).
    ///
    /// This is the merge entry point for drained per-device report
    /// batches: the caller controls the batch order, the backend applies
    /// each report exactly as [`Backend::ingest`] would.
    pub fn ingest_batch(&mut self, window: WindowId, reports: &[Report]) -> u64 {
        reports
            .iter()
            .filter(|report| self.ingest(window, report))
            .count() as u64
    }

    // ------------------------------------------------------------------
    // Usage queries (§3)
    // ------------------------------------------------------------------

    /// Total usage per application over a window, with distinct clients.
    pub fn usage_by_app(&self, window: WindowId) -> Vec<(Application, UsageTotals, u64)> {
        let mut agg: BTreeMap<Application, (UsageTotals, u64)> = BTreeMap::new();
        if let Some(usage) = self.usage.get(&window) {
            for (&(_, app), totals) in usage {
                let slot = agg.entry(app).or_default();
                slot.0.up_bytes = slot.0.up_bytes.saturating_add(totals.up_bytes);
                slot.0.down_bytes = slot.0.down_bytes.saturating_add(totals.down_bytes);
                slot.1 += 1;
            }
        }
        agg.into_iter().map(|(app, (t, c))| (app, t, c)).collect()
    }

    /// Total usage per OS family over a window, with distinct clients.
    ///
    /// Joins the usage table against client identities (the MAC-level
    /// aggregation of §2.3 means both are keyed by MAC). Usage from MACs
    /// with no identity record is attributed to [`OsFamily::Unknown`].
    pub fn usage_by_os(&self, window: WindowId) -> Vec<(OsFamily, UsageTotals, u64)> {
        let clients = self.clients.get(&window);
        let mut per_mac: BTreeMap<MacAddress, UsageTotals> = BTreeMap::new();
        if let Some(usage) = self.usage.get(&window) {
            for (&(mac, _), totals) in usage {
                let slot = per_mac.entry(mac).or_default();
                slot.up_bytes = slot.up_bytes.saturating_add(totals.up_bytes);
                slot.down_bytes = slot.down_bytes.saturating_add(totals.down_bytes);
            }
        }
        let mut agg: BTreeMap<OsFamily, (UsageTotals, u64)> = BTreeMap::new();
        for (mac, totals) in per_mac {
            let os = clients
                .and_then(|c| c.get(&mac))
                .map_or(OsFamily::Unknown, |c| c.os);
            let slot = agg.entry(os).or_default();
            slot.0.up_bytes = slot.0.up_bytes.saturating_add(totals.up_bytes);
            slot.0.down_bytes = slot.0.down_bytes.saturating_add(totals.down_bytes);
            slot.1 += 1;
        }
        agg.into_iter().map(|(os, (t, c))| (os, t, c)).collect()
    }

    /// Number of distinct clients seen in a window.
    pub fn client_count(&self, window: WindowId) -> usize {
        self.clients.get(&window).map_or(0, BTreeMap::len)
    }

    /// Iterates over client identities in a window.
    pub fn clients(
        &self,
        window: WindowId,
    ) -> impl Iterator<Item = (&MacAddress, &ClientIdentity)> {
        self.clients.get(&window).into_iter().flatten()
    }

    /// Distinct clients that used a given application in a window.
    pub fn app_client_count(&self, window: WindowId, app: Application) -> u64 {
        self.usage.get(&window).map_or(0, |usage| {
            usage.keys().filter(|&&(_, a)| a == app).count() as u64
        })
    }

    // ------------------------------------------------------------------
    // Link queries (§4.2)
    // ------------------------------------------------------------------

    /// All link keys present in a window on a band.
    pub fn link_keys(&self, window: WindowId, band: Band) -> Vec<LinkKey> {
        self.links
            .get(&window)
            .map(|links| links.keys().filter(|k| k.band == band).copied().collect())
            .unwrap_or_default()
    }

    /// The observation time series for a link.
    pub fn link_series(&self, window: WindowId, key: LinkKey) -> &[LinkObservation] {
        self.links
            .get(&window)
            .and_then(|links| links.get(&key))
            .map_or(&[], Vec::as_slice)
    }

    /// The most recent delivery ratio for every link on a band.
    pub fn latest_delivery_ratios(&self, window: WindowId, band: Band) -> Vec<f64> {
        self.links
            .get(&window)
            .map(|links| {
                links
                    .iter()
                    .filter(|(k, obs)| k.band == band && !obs.is_empty())
                    .map(|(_, obs)| {
                        obs.last()
                            .expect("invariant: filtered to non-empty above")
                            .ratio
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Mean delivery ratio over the window for every link on a band.
    pub fn mean_delivery_ratios(&self, window: WindowId, band: Band) -> Vec<f64> {
        self.links
            .get(&window)
            .map(|links| {
                links
                    .iter()
                    .filter(|(k, obs)| k.band == band && !obs.is_empty())
                    // airstat::allow(float-fold-order): obs is a Vec in arrival order, identical for every backend/shard/thread count
                    .map(|(_, obs)| obs.iter().map(|o| o.ratio).sum::<f64>() / obs.len() as f64)
                    .collect()
            })
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Airtime queries (§4.3, MR16)
    // ------------------------------------------------------------------

    /// Per-device serving-radio utilization on a band (Figure 6's input).
    pub fn serving_utilizations(&self, window: WindowId, band: Band) -> Vec<f64> {
        self.airtime
            .get(&window)
            .map(|airtime| {
                airtime
                    .iter()
                    .filter(|(&(_, b), _)| b == band)
                    .filter_map(|(_, ledger)| ledger.utilization())
                    .collect()
            })
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Neighbour queries (§4.1)
    // ------------------------------------------------------------------

    /// Number of devices that filed a neighbour census in a window.
    pub fn census_device_count(&self, window: WindowId) -> usize {
        self.neighbors.get(&window).map_or(0, BTreeMap::len)
    }

    /// Total and per-AP-mean nearby networks on a band, plus hotspot count.
    ///
    /// Returns `(total_networks, mean_per_ap, total_hotspots)` — the three
    /// numbers behind Table 7 and the §4.1 hotspot statistics.
    pub fn nearby_summary(&self, window: WindowId, band: Band) -> (u64, f64, u64) {
        let Some(neighbors) = self.neighbors.get(&window) else {
            return (0, 0.0, 0);
        };
        let mut total = 0u64;
        let mut hotspots = 0u64;
        let mut devices = 0u64;
        for records in neighbors.values() {
            devices += 1;
            for &(channel, networks, hs) in records {
                if channel.band == band {
                    total += u64::from(networks);
                    hotspots += u64::from(hs);
                }
            }
        }
        let mean = if devices > 0 {
            total as f64 / devices as f64
        } else {
            0.0
        };
        (total, mean, hotspots)
    }

    /// Sum of nearby networks per channel across all devices (Figure 2).
    pub fn nearby_per_channel(&self, window: WindowId, band: Band) -> Vec<(u16, u64)> {
        let mut per: BTreeMap<u16, u64> = Channel::all_in(band)
            .into_iter()
            .map(|ch| (ch.number, 0))
            .collect();
        if let Some(neighbors) = self.neighbors.get(&window) {
            for records in neighbors.values() {
                for &(channel, networks, _) in records {
                    if channel.band == band {
                        *per.entry(channel.number).or_default() += u64::from(networks);
                    }
                }
            }
        }
        per.into_iter().collect()
    }

    // ------------------------------------------------------------------
    // Crash queries (§6.1)
    // ------------------------------------------------------------------

    /// The crash-triage aggregator for a window, if any crashes arrived.
    pub fn crashes(&self, window: WindowId) -> Option<&CrashAggregator> {
        self.crashes.get(&window)
    }

    // ------------------------------------------------------------------
    // Channel-scan queries (§5, MR18)
    // ------------------------------------------------------------------

    /// All scan observations on a band in a window.
    pub fn scan_observations(&self, window: WindowId, band: Band) -> Vec<ScanObservation> {
        self.scans
            .get(&window)
            .map(|scans| {
                scans
                    .values()
                    .flatten()
                    .filter(|o| o.record.channel.band == band)
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{AirtimeRecord, ClientInfoRecord, LinkRecord, NeighborRecord, UsageRecord};
    use airstat_classify::mac::{oui_of, Vendor};
    use airstat_rf::phy::Generation;

    const W: WindowId = WindowId(2015);

    fn mac(n: u64) -> MacAddress {
        MacAddress::from_id(oui_of(Vendor::Apple), n)
    }

    fn ch(band: Band, n: u16) -> Channel {
        Channel::new(band, n).unwrap()
    }

    fn usage_report(
        device: u64,
        seq: u64,
        mac_id: u64,
        app: Application,
        up: u64,
        down: u64,
    ) -> Report {
        Report {
            device,
            seq,
            timestamp_s: seq * 60,
            payload: ReportPayload::Usage(vec![UsageRecord {
                mac: mac(mac_id),
                app,
                up_bytes: up,
                down_bytes: down,
            }]),
        }
    }

    #[test]
    fn usage_aggregates_across_polls() {
        let mut backend = Backend::new();
        backend.ingest(W, &usage_report(1, 0, 7, Application::Netflix, 10, 100));
        backend.ingest(W, &usage_report(1, 1, 7, Application::Netflix, 5, 50));
        let rows = backend.usage_by_app(W);
        let netflix = rows
            .iter()
            .find(|(a, _, _)| *a == Application::Netflix)
            .unwrap();
        assert_eq!(netflix.1.up_bytes, 15);
        assert_eq!(netflix.1.down_bytes, 150);
        assert_eq!(netflix.2, 1, "one distinct client");
    }

    #[test]
    fn roaming_aggregates_by_mac() {
        // The same client MAC reporting through two different APs counts
        // once with combined bytes (§2.3).
        let mut backend = Backend::new();
        backend.ingest(W, &usage_report(1, 0, 7, Application::Youtube, 10, 100));
        backend.ingest(W, &usage_report(2, 0, 7, Application::Youtube, 20, 200));
        let rows = backend.usage_by_app(W);
        let yt = rows
            .iter()
            .find(|(a, _, _)| *a == Application::Youtube)
            .unwrap();
        assert_eq!(yt.1.total(), 330);
        assert_eq!(yt.2, 1);
    }

    #[test]
    fn duplicate_reports_dropped() {
        let mut backend = Backend::new();
        let report = usage_report(1, 0, 7, Application::Netflix, 10, 100);
        assert!(backend.ingest(W, &report));
        assert!(!backend.ingest(W, &report), "retransmit must be rejected");
        let rows = backend.usage_by_app(W);
        assert_eq!(rows[0].1.total(), 110, "no double counting");
    }

    #[test]
    fn windows_are_isolated() {
        let mut backend = Backend::new();
        backend.ingest(
            WindowId(2014),
            &usage_report(1, 0, 7, Application::Netflix, 1, 1),
        );
        backend.ingest(
            WindowId(2015),
            &usage_report(1, 1, 7, Application::Netflix, 2, 2),
        );
        assert_eq!(backend.usage_by_app(WindowId(2014))[0].1.total(), 2);
        assert_eq!(backend.usage_by_app(WindowId(2015))[0].1.total(), 4);
    }

    #[test]
    fn usage_by_os_joins_client_info() {
        let mut backend = Backend::new();
        backend.ingest(W, &usage_report(1, 0, 7, Application::Netflix, 0, 100));
        backend.ingest(
            W,
            &Report {
                device: 1,
                seq: 1,
                timestamp_s: 0,
                payload: ReportPayload::ClientInfo(vec![ClientInfoRecord {
                    mac: mac(7),
                    os: OsFamily::AppleIos,
                    caps: Capabilities::new(Generation::Ac, true, true, 2),
                    band: Band::Ghz5,
                    rssi_dbm: -60.0,
                }]),
            },
        );
        let rows = backend.usage_by_os(W);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, OsFamily::AppleIos);
        assert_eq!(rows[0].1.down_bytes, 100);
        assert_eq!(rows[0].2, 1);
    }

    #[test]
    fn usage_without_identity_is_unknown() {
        let mut backend = Backend::new();
        backend.ingest(W, &usage_report(1, 0, 9, Application::MiscWeb, 1, 1));
        let rows = backend.usage_by_os(W);
        assert_eq!(rows[0].0, OsFamily::Unknown);
    }

    #[test]
    fn link_series_accumulate() {
        let mut backend = Backend::new();
        for (seq, received) in [(0u64, 20u32), (1, 10), (2, 15)] {
            backend.ingest(
                W,
                &Report {
                    device: 100,
                    seq,
                    timestamp_s: seq * 300,
                    payload: ReportPayload::Links(vec![LinkRecord {
                        peer_device: 200,
                        band: Band::Ghz2_4,
                        probes_expected: 20,
                        probes_received: received,
                    }]),
                },
            );
        }
        let key = LinkKey {
            rx_device: 100,
            tx_device: 200,
            band: Band::Ghz2_4,
        };
        let series = backend.link_series(W, key);
        assert_eq!(series.len(), 3);
        assert!((series[1].ratio - 0.5).abs() < 1e-12);
        let latest = backend.latest_delivery_ratios(W, Band::Ghz2_4);
        assert_eq!(latest.len(), 1);
        assert!((latest[0] - 0.75).abs() < 1e-12);
        let means = backend.mean_delivery_ratios(W, Band::Ghz2_4);
        assert!((means[0] - 0.75).abs() < 1e-9);
        assert!(backend.link_keys(W, Band::Ghz5).is_empty());
    }

    #[test]
    fn airtime_merges_and_reports_utilization() {
        let mut backend = Backend::new();
        for seq in 0..2u64 {
            backend.ingest(
                W,
                &Report {
                    device: 1,
                    seq,
                    timestamp_s: seq,
                    payload: ReportPayload::Airtime(vec![AirtimeRecord {
                        channel: ch(Band::Ghz2_4, 6),
                        elapsed_us: 1_000,
                        busy_us: 250,
                        wifi_us: 200,
                    }]),
                },
            );
        }
        let utils = backend.serving_utilizations(W, Band::Ghz2_4);
        assert_eq!(utils.len(), 1);
        assert!((utils[0] - 0.25).abs() < 1e-12);
        assert!(backend.serving_utilizations(W, Band::Ghz5).is_empty());
    }

    #[test]
    fn neighbor_census_replaces_and_summarizes() {
        let mut backend = Backend::new();
        backend.ingest(
            W,
            &Report {
                device: 1,
                seq: 0,
                timestamp_s: 0,
                payload: ReportPayload::Neighbors(vec![NeighborRecord {
                    channel: ch(Band::Ghz2_4, 1),
                    networks: 10,
                    hotspots: 2,
                }]),
            },
        );
        // A later census replaces the earlier one entirely.
        backend.ingest(
            W,
            &Report {
                device: 1,
                seq: 1,
                timestamp_s: 300,
                payload: ReportPayload::Neighbors(vec![
                    NeighborRecord {
                        channel: ch(Band::Ghz2_4, 1),
                        networks: 30,
                        hotspots: 6,
                    },
                    NeighborRecord {
                        channel: ch(Band::Ghz2_4, 6),
                        networks: 25,
                        hotspots: 5,
                    },
                ]),
            },
        );
        let (total, mean, hotspots) = backend.nearby_summary(W, Band::Ghz2_4);
        assert_eq!(total, 55);
        assert_eq!(hotspots, 11);
        assert!((mean - 55.0).abs() < 1e-12);
        let per = backend.nearby_per_channel(W, Band::Ghz2_4);
        assert_eq!(per.iter().find(|&&(n, _)| n == 1).unwrap().1, 30);
        assert_eq!(per.iter().find(|&&(n, _)| n == 11).unwrap().1, 0);
        assert_eq!(backend.census_device_count(W), 1);
    }

    #[test]
    fn channel_scans_accumulate() {
        let mut backend = Backend::new();
        for seq in 0..3u64 {
            backend.ingest(
                W,
                &Report {
                    device: 1,
                    seq,
                    timestamp_s: seq * 180,
                    payload: ReportPayload::ChannelScan(vec![ChannelScanRecord {
                        channel: ch(Band::Ghz5, 36),
                        utilization_ppm: 10_000 * (seq as u32 + 1),
                        decodable_ppm: 900_000,
                        networks: 2,
                    }]),
                },
            );
        }
        let obs = backend.scan_observations(W, Band::Ghz5);
        assert_eq!(obs.len(), 3);
        assert!(backend.scan_observations(W, Band::Ghz2_4).is_empty());
    }

    #[test]
    fn empty_store_queries_are_empty() {
        let backend = Backend::new();
        assert!(backend.usage_by_app(W).is_empty());
        assert!(backend.usage_by_os(W).is_empty());
        assert_eq!(backend.client_count(W), 0);
        assert!(backend.latest_delivery_ratios(W, Band::Ghz2_4).is_empty());
        assert_eq!(backend.nearby_summary(W, Band::Ghz5), (0, 0.0, 0));
    }
}
