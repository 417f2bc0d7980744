//! The discrete-event fleet engine.
//!
//! [`FleetSimulation::run`] executes the paper's full measurement campaign
//! against a synthetic fleet and returns a loaded [`ShardedStore`]
//! (campaigns can also fill any other [`ReportSink`] — e.g. the legacy
//! [`airstat_telemetry::backend::Backend`] — via
//! [`FleetSimulation::run_into`]):
//!
//! * **usage windows** — January 2014 and January 2015 client panels.
//!   Each year gets its own population model, device-classifier version
//!   and application ruleset (§3's heuristics improved between the
//!   windows); flows are classified at the edge and shipped through
//!   fault-injected tunnels;
//! * **radio windows** — July 2014 and January 2015 for the MR16 panel:
//!   neighbour censuses (Table 7 / Figure 2), serving-radio airtime
//!   counters (Figure 6), and week-long probe-link delivery series
//!   (Figures 3–5) driven by per-link AR(1) fading plus the epoch's
//!   interference level;
//! * **scan window** — January 2015 for the MR18 panel: 3-minute
//!   channel-scan aggregates sampled at 10:00 and 22:00 local
//!   (Figures 7–10).
//!
//! Determinism: all randomness descends from `FleetConfig::seed` through
//! labelled [`SeedTree`] children, so any table regenerates bit-identically.
//!
//! Parallelism: every panel decomposes into independent work units — a
//! usage-panel client batch, one AP's radio week, one AP's scan week —
//! each seeded from its own `SeedTree` node and drained through its own
//! faulty tunnel. [`crate::exec::run_ordered`] fans the units across
//! `FleetConfig::threads` workers and merges the resulting report batches
//! into the sink in ascending unit order, so any thread count reproduces
//! the serial output byte for byte — and so does any shard count, since
//! the store's query engine merges per-shard partials canonically.

use airstat_classify::apps::{Application, RuleSet};
use airstat_classify::device::{ClassifierVersion, DeviceClassifier};
use airstat_classify::mac::MacAddress;
use airstat_rf::airtime::ChannelLoad;
use airstat_rf::band::{Band, Channel};
use airstat_rf::link::{FadingProcess, LinkModel};
use airstat_rf::propagation::{Environment, PathLoss};
use airstat_stats::dist::{Exponential, LogNormal};
use airstat_stats::SeedTree;
use airstat_store::{QueryEngine, ReportSink, ShardedStore, StoreConfig};
use airstat_telemetry::backend::WindowId;
use airstat_telemetry::crash::{DeviceMemory, RebootReason};
use airstat_telemetry::poll::{DrainStats, PollPolicy};
use airstat_telemetry::report::{
    AirtimeRecord, ChannelScanRecord, ClientInfoRecord, CrashRecord, LinkRecord, NeighborRecord,
    Report, ReportPayload, UsageRecord,
};
use airstat_telemetry::sched::{drain_solo, Priority, SchedStats, TunnelEndpoint};
use airstat_telemetry::transport::{DeviceAgent, Tunnel, TunnelConfig};
use rand::Rng;

use crate::config::{FleetConfig, MeasurementYear, WEEK_S, WINDOW_JAN_2015, WINDOW_JUL_2014};
use crate::exec::run_ordered;
use crate::faults::{DegradationTally, FaultedEndpoint};
use crate::population::PopulationModel;
use crate::traffic::{generate_weekly_into, GeneratedFlow, WeeklyTraffic};
use crate::world::{ApModel, ApSite, NeighborEpoch, World};

/// Everything a campaign produces besides the sink it filled.
///
/// [`FleetSimulation::run_into`] returns this directly; the convenience
/// [`FleetSimulation::run`] pairs it with the [`ShardedStore`] it filled
/// as a [`SimulationOutput`].
#[derive(Debug)]
pub struct CampaignRun {
    /// The generated world (for topology-aware analyses and examples).
    pub world: World,
    /// Polls attempted across all tunnels.
    pub polls_attempted: u64,
    /// Polls lost to injected faults (all retransmitted eventually).
    pub polls_lost: u64,
    /// Clients (2015 window) whose usage arrived through more than one AP;
    /// the store's MAC-level aggregation (§2.3) merges them.
    pub roamed_clients: u64,
    /// Per-panel volume statistics, in execution order.
    pub panels: Vec<PanelStats>,
    /// Wire bytes encoded across every tunnel (all panels).
    pub bytes_encoded: u64,
    /// Worker threads the run actually used.
    pub threads: usize,
    /// Campaign-wide degradation accounting (completeness, latency,
    /// fault counters). With `FleetConfig::faults = None` this is the
    /// healthy baseline: completeness 1.0, no failovers, no crash loss.
    pub degradation: DegradationTally,
    /// Scheduler counters merged across every drain (each agent drains on
    /// its own solo scheduler, so evictions are always zero here).
    pub sched: SchedStats,
}

/// Everything a run produces: the store it filled and the campaign's
/// record.
#[derive(Debug)]
pub struct SimulationOutput {
    /// The loaded sharded store — what the analytics crate queries
    /// (through [`SimulationOutput::query`]).
    pub store: ShardedStore,
    /// What the campaign did: world, panel volumes, poll, degradation and
    /// scheduler counters.
    pub run: CampaignRun,
}

impl SimulationOutput {
    /// Reports accepted by the store across all panels.
    pub fn reports_ingested(&self) -> u64 {
        self.run.panels.iter().map(|p| p.reports).sum()
    }

    /// Seals the store and opens a cached parallel query engine over the
    /// frozen snapshot, using the run's worker-thread count.
    pub fn query(&self) -> QueryEngine {
        QueryEngine::new(self.store.seal(), self.run.threads)
    }

    /// A human-readable per-panel volume table (reports accepted and
    /// wire bytes encoded) for CLI/example status output. A pure function
    /// of the campaign: nothing here reads a clock.
    pub fn throughput_summary(&self) -> String {
        use std::fmt::Write as _;
        let run = &self.run;
        let mut out = String::new();
        let plural = if run.threads == 1 { "" } else { "s" };
        let _ = write!(
            out,
            "engine throughput ({} worker thread{plural}):",
            run.threads
        );
        let panels = run.panels.iter().map(|p| (p.label, p.reports, p.bytes));
        let total = ("total", self.reports_ingested(), run.bytes_encoded);
        for (label, reports, bytes) in panels.chain([total]) {
            let _ = write!(
                out,
                "\n  {label:<12} {reports:>9} reports  {bytes:>12} wire bytes"
            );
        }
        out
    }
}

/// Volume statistics for one engine panel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanelStats {
    /// Panel label (matches the panel's seed-tree child label).
    pub label: &'static str,
    /// Reports the backend accepted from this panel.
    pub reports: u64,
    /// Wire bytes encoded while draining this panel's agents.
    pub bytes: u64,
}

/// The simulation driver.
#[derive(Debug, Clone)]
pub struct FleetSimulation {
    config: FleetConfig,
}

/// Firmware version the simulated fleet runs during the windows (§2.2).
///
/// Kept for the January 2015 window; see `firmware_for`.
pub const FIRMWARE_VERSION: &str = "mr-25.9";

/// §2.2: "a total of 2 major firmware revisions ... January and December
/// 2014". The July 2014 panel therefore runs the January revision; the
/// January 2015 panels run the December one. Crash signatures segregate
/// by revision exactly as the real triage dashboards did.
pub(crate) fn firmware_for(window: WindowId) -> &'static str {
    use crate::config::WINDOW_JUL_2014;
    if window == WINDOW_JUL_2014 {
        "mr-24.11"
    } else {
        FIRMWARE_VERSION
    }
}

/// Hours of the Figure 9 sampling points (local time).
pub const DAY_SAMPLE_HOUR: u64 = 10;
/// Night sampling hour for Figure 9.
pub const NIGHT_SAMPLE_HOUR: u64 = 22;

impl FleetSimulation {
    /// Creates a simulation with the given configuration.
    pub fn new(config: FleetConfig) -> Self {
        FleetSimulation { config }
    }

    /// Runs the full campaign ([`FleetSimulation::run_into`]) into a
    /// [`ShardedStore`] shaped by the configuration's `shards`/`threads`
    /// knobs.
    pub fn run(&self) -> SimulationOutput {
        let mut store = ShardedStore::with_config(StoreConfig {
            shards: self.config.effective_shards(),
            threads: self.config.effective_threads(),
        });
        let run = self.run_into(&mut store);
        SimulationOutput { store, run }
    }

    /// Runs the full campaign into any [`ReportSink`]: each work unit's
    /// batch is offered to the sink, and what the sink does with it —
    /// when it seals, whether it persists — is the sink's own business.
    ///
    /// The sink sees identical report batches in identical order no
    /// matter how it aggregates them — this is what the differential
    /// store-equivalence tests use to fill a legacy
    /// [`airstat_telemetry::backend::Backend`] and a
    /// [`ShardedStore`] from the same campaign.
    pub fn run_into(&self, sink: &mut dyn ReportSink) -> CampaignRun {
        let seed = SeedTree::new(self.config.seed);
        let world = World::generate(&seed, self.config.mr16_aps(), self.config.mr18_aps());
        let mut driver = CampaignDriver::new(sink, self.config.effective_threads());

        // Usage panels; the 2015 window's roamers are the ones reported.
        let mut usage = |label, year: MeasurementYear| {
            let (units, unit) = self.usage_units(seed.child(label), year);
            driver.panel(label, year.window(), units, unit)
        };
        usage("usage-2014", MeasurementYear::Y2014);
        let roamed_clients = usage("usage-2015", MeasurementYear::Y2015);
        // Radio panels (MR16): July 2014 and January 2015.
        for (label, epoch, window) in [
            ("radio-jul14", NeighborEpoch::Jul2014, WINDOW_JUL_2014),
            ("radio-jan15", NeighborEpoch::Jan2015, WINDOW_JAN_2015),
        ] {
            let (units, unit) = self.radio_units(seed.child(label), &world, epoch, window);
            driver.panel(label, window, units, unit);
        }
        // Scan panel (MR18): January 2015.
        let (label, epoch, window) = ("scan-jan15", NeighborEpoch::Jan2015, WINDOW_JAN_2015);
        let (units, unit) = self.scan_units(seed.child(label), &world, epoch, window);
        driver.panel(label, window, units, unit);

        CampaignRun {
            world,
            polls_attempted: driver.degradation.polls,
            polls_lost: driver.degradation.polls_lost,
            roamed_clients,
            bytes_encoded: driver.panels.iter().map(|p| p.bytes).sum(),
            panels: driver.panels,
            threads: self.config.effective_threads(),
            degradation: driver.degradation,
            sched: driver.sched,
        }
    }

    // ------------------------------------------------------------------
    // Usage panel
    // ------------------------------------------------------------------

    /// One usage window's work units: how many, and the unit function.
    fn usage_units(
        &self,
        node: SeedTree,
        year: MeasurementYear,
    ) -> (usize, impl Fn(usize) -> UnitOutput + Sync + '_) {
        let window = year.window();
        let clients_node = node.child("clients");
        let population = PopulationModel::new(year);
        let (classifier, ruleset) = match year {
            MeasurementYear::Y2014 => (
                DeviceClassifier::new(ClassifierVersion::V2014),
                RuleSet::standard_2014(),
            ),
            MeasurementYear::Y2015 => (
                DeviceClassifier::new(ClassifierVersion::V2015),
                RuleSet::standard_2015(),
            ),
        };
        let n_clients = self.config.clients(year);
        // Clients are grouped under virtual usage-panel APs; each AP is a
        // device agent polled through a faulty tunnel. One AP's batch is
        // one work unit, seeded from its own `clients/<batch>` node.
        const CLIENTS_PER_AP: u64 = 250;
        let pl = PathLoss::new(Environment::DenseIndoor);
        let distance = LogNormal::from_median_p90(20.0, 55.0);
        let n_batches = n_clients.div_ceil(CLIENTS_PER_AP) as usize;

        let unit = move |index: usize| -> UnitOutput {
            let batch = index as u64;
            let mut out = UnitOutput::default();
            let mut rng = clients_node.indexed(batch).rng();
            // Usage-panel device ids live far above the radio panel's.
            let device_id = 1_000_001 + batch;
            let batch_end = ((batch + 1) * CLIENTS_PER_AP).min(n_clients);
            let mut usage_records = Chunked::new(POLL_CHUNK);
            let mut info_records = Chunked::new(POLL_CHUNK);
            // Usage records a roaming client produced at a *different* AP
            // (§2.3: the backend re-aggregates these by MAC).
            let mut roaming_spill = Chunked::new(POLL_CHUNK);
            // The per-application tally and the week's flow list are reused
            // across the batch's clients (drained and refilled, not rebuilt).
            let mut tally = AppTally::default();
            let mut week = WeeklyTraffic::default();
            for client_id in batch * CLIENTS_PER_AP..batch_end {
                let client = population.sample_client(client_id, &mut rng);
                // RSSI on both bands from one geometry draw.
                let d = distance.sample(&mut rng);
                let shadow = pl.sample_shadowing_db(&mut rng);
                let rssi24 = pl.rssi_dbm(Band::Ghz2_4, 23.0, d, shadow);
                let rssi5 = pl.rssi_dbm(Band::Ghz5, 24.0, d, shadow);
                // Band selection: only some dual-band clients *prefer*
                // 5 GHz (driver roaming policies of the era), and even
                // those fall back when the higher band is too attenuated.
                // Net effect: ~80% of associated clients sit on 2.4 GHz
                // and the 5 GHz population reads *weaker* than 2.4 GHz —
                // both §3.1 observations.
                let prefers_5 = client.caps.dual_band() && rng.gen::<f64>() < 0.55;
                let band = if prefers_5 && rssi5 > -78.0 {
                    Band::Ghz5
                } else {
                    Band::Ghz2_4
                };
                let rssi = match band {
                    Band::Ghz2_4 => rssi24,
                    Band::Ghz5 => rssi5,
                };
                let os = classifier.classify(&client.evidence);
                info_records.push(ClientInfoRecord {
                    mac: client.mac,
                    os,
                    caps: client.caps,
                    band,
                    rssi_dbm: rssi.min(-25.0),
                });
                // One week of flows, each classified once by the ruleset
                // and counted per application (§2.1).
                generate_weekly_into(&client, year, &mut rng, &mut week);
                tally.fold(&ruleset, &week.flows);
                // Roaming: phones wander across APs during the week
                // (§6.2 calls out smartphone roaming explicitly); a
                // roamer's later flows show up at a different AP and the
                // backend must merge them by MAC.
                let roam_p = if os.is_mobile() { 0.45 } else { 0.10 };
                let roams = rng.gen::<f64>() < roam_p;
                if roams {
                    out.roamed += 1;
                }
                for record in tally.harvest(client.mac) {
                    if roams && rng.gen::<f64>() < 0.4 {
                        // This app's bytes were used at the roamed-to AP.
                        roaming_spill.push(record);
                    } else {
                        usage_records.push(record);
                    }
                }
            }
            // Split into multiple reports (daily polls in production).
            let mut agent = self.make_agent(device_id, window);
            for (i, chunk) in info_records.into_chunks().into_iter().enumerate() {
                agent.submit(i as u64 * 86_400, ReportPayload::ClientInfo(chunk));
            }
            for (i, chunk) in usage_records.into_chunks().into_iter().enumerate() {
                agent.submit(i as u64 * 3_600, ReportPayload::Usage(chunk));
            }
            self.drain_agent_collect(&node.indexed(device_id), window, agent, &mut out);
            // The batch's roamers surface at a dedicated roamed-to AP so
            // the unit stays self-contained; the backend's MAC-level
            // aggregation merges the split usage regardless of which AP
            // reported it.
            if !roaming_spill.is_empty() {
                let roam_device = ROAM_DEVICE_BASE + batch;
                let mut roam_agent = self.make_agent(roam_device, window);
                for (i, chunk) in roaming_spill.into_chunks().into_iter().enumerate() {
                    roam_agent.submit(i as u64 * 3_600, ReportPayload::Usage(chunk));
                }
                self.drain_agent_collect(&node.indexed(roam_device), window, roam_agent, &mut out);
            }
            out
        };

        (n_batches, unit)
    }

    // ------------------------------------------------------------------
    // Radio panel (MR16 + link probes + censuses)
    // ------------------------------------------------------------------

    /// One radio window's work units, seeded under the panel's `node`.
    fn radio_units<'a>(
        &'a self,
        node: SeedTree,
        world: &'a World,
        epoch: NeighborEpoch,
        window: WindowId,
    ) -> (usize, impl Fn(usize) -> UnitOutput + Sync + 'a) {
        let model24 = LinkModel::for_band(Band::Ghz2_4);
        let model5 = LinkModel::for_band(Band::Ghz5);
        let diurnal_table = diurnal_table();
        // One AP's whole radio week is one work unit: its randomness
        // descends from the per-AP node alone.
        let unit = move |index: usize| -> UnitOutput {
            let ap = &world.aps[index];
            let mut out = UnitOutput::default();
            let ap_node = node.indexed(ap.device_id);
            let mut rng = ap_node.child("census").rng();
            let mut agent = self.make_agent(ap.device_id, window);

            // 1. Neighbour census. The wire records move straight into
            //    the payload; the census keeps precomputed counts.
            let mut census = sample_census(world, ap, epoch, &mut rng);
            agent.submit(0, ReportPayload::Neighbors(census.take_records()));

            // 1b. §6.1's firmware bug: the neighbour table accumulates
            // every BSSID ever heard with no eviction. Extreme sites
            // (skyscrapers, roadside deployments) exhaust the heap and
            // reboot; the crash report reaches the backend like any other
            // telemetry once the device recovers.
            let mut memory = match ap.model {
                ApModel::Mr16 => DeviceMemory::mr16(),
                ApModel::Mr18 => DeviceMemory::mr18(),
            };
            memory.set_clients(rng.gen_range(5..60));
            let heard = u64::from(census.count_on_band(Band::Ghz2_4))
                + u64::from(census.count_on_band(Band::Ghz5));
            memory.grow_neighbor_table(heard);
            let churn = ((heard as f64) * 0.05).ceil() as u64;
            for cycle in 1..96u64 {
                if !memory.grow_neighbor_table(churn) {
                    agent.submit(
                        cycle * 900,
                        ReportPayload::Crash(vec![CrashRecord {
                            firmware: firmware_for(window).to_string(),
                            reason: RebootReason::OutOfMemory.code(),
                            program_counter: 0x40_0000 + rng.gen_range(0u64..0x8_0000),
                            uptime_s: cycle * 900,
                            free_memory_bytes: memory.free_bytes(),
                        }]),
                    );
                    break;
                }
            }

            // 2. Serving-radio airtime over the week, accumulated in
            //    six-hour reporting intervals with the diurnal cycle.
            let mut airtime_records = Vec::new();
            for (band, channel) in [(Band::Ghz2_4, ap.channel_2_4), (Band::Ghz5, ap.channel_5)] {
                let mut elapsed = 0u64;
                let mut busy = 0u64;
                let mut wifi = 0u64;
                for hour in 0..(WEEK_S / 3600) {
                    let load = serving_load(
                        ap,
                        &census,
                        band,
                        epoch,
                        diurnal_table[(hour % 24) as usize],
                        &mut rng,
                    );
                    let step_us = 3_600_000_000u64;
                    let u = load.utilization();
                    let d = load.decodable_fraction();
                    elapsed += step_us;
                    busy += (u * step_us as f64) as u64;
                    wifi += (d * u * step_us as f64) as u64;
                }
                airtime_records.push(AirtimeRecord {
                    channel,
                    elapsed_us: elapsed,
                    busy_us: busy,
                    wifi_us: wifi,
                });
            }
            agent.submit(WEEK_S, ReportPayload::Airtime(airtime_records));

            // 3. Probe links: delivery ratio time series over the week.
            let mut link_rng = ap_node.child("links").rng();
            let interval = self.config.link_report_interval_s.max(300);
            let inbound: Vec<_> = world
                .links_into(ap.device_id, Band::Ghz2_4)
                .chain(world.links_into(ap.device_id, Band::Ghz5))
                .collect();
            if !inbound.is_empty() {
                let mut faders: Vec<FadingProcess> = inbound
                    .iter()
                    .map(|_| FadingProcess::probe_interval_default())
                    .collect();
                let mut t = 0u64;
                while t < WEEK_S {
                    let hour = (t / 3600) % 24;
                    let mut records = Vec::with_capacity(inbound.len());
                    for (wl, fader) in inbound.iter().zip(faders.iter_mut()) {
                        // Step the fading once per report interval (the
                        // process parameters absorb the coarser step).
                        let fade = fader.step(&mut link_rng);
                        let band = wl.link.band;
                        let model = match band {
                            Band::Ghz2_4 => &model24,
                            Band::Ghz5 => &model5,
                        };
                        let load = serving_load(
                            ap,
                            &census,
                            band,
                            epoch,
                            diurnal_table[hour as usize],
                            &mut link_rng,
                        );
                        let p = model.delivery_probability(&wl.link, load.utilization(), fade);
                        // 300 s window of 15 s probes = 20 expected.
                        let received = (0..20).filter(|_| link_rng.gen::<f64>() < p).count() as u32;
                        records.push(LinkRecord {
                            peer_device: wl.tx,
                            band,
                            probes_expected: 20,
                            probes_received: received,
                        });
                    }
                    agent.submit(t, ReportPayload::Links(records));
                    t += interval;
                }
            }

            self.drain_agent_collect(&ap_node, window, agent, &mut out);
            out
        };

        (world.aps.len(), unit)
    }

    // ------------------------------------------------------------------
    // Scan panel (MR18)
    // ------------------------------------------------------------------

    /// The scan window's work units, seeded under the panel's `node`.
    fn scan_units<'a>(
        &'a self,
        node: SeedTree,
        world: &'a World,
        epoch: NeighborEpoch,
        window: WindowId,
    ) -> (usize, impl Fn(usize) -> UnitOutput + Sync + 'a) {
        let diurnal_table = diurnal_table();
        let scan_aps: Vec<&ApSite> = world
            .aps
            .iter()
            .filter(|a| a.model == ApModel::Mr18)
            .collect();
        let units = scan_aps.len();
        let unit = move |index: usize| -> UnitOutput {
            let ap = scan_aps[index];
            let mut out = UnitOutput::default();
            let ap_node = node.indexed(ap.device_id);
            let mut rng = ap_node.child("scan").rng();
            let mut agent = self.make_agent(ap.device_id + 500_000, window); // scan radio identity
            let census = sample_census(world, ap, epoch, &mut rng);
            // Two 3-minute aggregates per day: 10:00 and 22:00.
            for day in 0..7u64 {
                for hour in [DAY_SAMPLE_HOUR, NIGHT_SAMPLE_HOUR] {
                    let timestamp = day * 86_400 + hour * 3_600;
                    let mut records = Vec::new();
                    for band in [Band::Ghz2_4, Band::Ghz5] {
                        for channel in Channel::all_in(band) {
                            let load = channel_load(
                                ap,
                                &census,
                                channel,
                                epoch,
                                diurnal_table[hour as usize],
                                &mut rng,
                            );
                            let networks = census.count_on(channel);
                            records.push(ChannelScanRecord {
                                channel,
                                utilization_ppm: (load.utilization() * 1e6) as u32,
                                decodable_ppm: (load.decodable_fraction() * 1e6) as u32,
                                networks,
                            });
                        }
                    }
                    agent.submit(timestamp, ReportPayload::ChannelScan(records));
                }
            }
            self.drain_agent_collect(&ap_node, window, agent, &mut out);
            out
        };

        (units, unit)
    }

    /// Creates a device agent, applying the active fault schedule's
    /// queue-capacity pressure for `window` (default capacity otherwise).
    fn make_agent(&self, device_id: u64, window: WindowId) -> DeviceAgent {
        let capacity = self
            .config
            .faults
            .as_ref()
            .and_then(|schedule| schedule.intensity(window).queue_capacity)
            .unwrap_or(DeviceAgent::DEFAULT_CAPACITY);
        DeviceAgent::with_capacity(device_id, capacity)
    }

    /// Polls an agent until drained, collecting the decoded reports into
    /// `out` (the caller merges them into the backend in deterministic
    /// unit order).
    ///
    /// There is one drain, [`drain_solo`]; the fault schedule only picks
    /// the endpoint. Without one it is the healthy [`TunnelEndpoint`]: one
    /// tunnel, the default [`PollPolicy`], and a drain that must empty the
    /// queue. With one, the window's scripted faults drive a
    /// [`FaultedEndpoint`] over a `DualTunnel`
    /// (`airstat_telemetry::failover`). Both consume the same
    /// `child("tunnel")` RNG stream per poll and each agent's drain runs
    /// on its own virtual-time session, so a zero intensity schedule
    /// reproduces the no-schedule output byte for byte.
    fn drain_agent_collect(
        &self,
        node: &SeedTree,
        window: WindowId,
        agent: DeviceAgent,
        out: &mut UnitOutput,
    ) {
        let base = TunnelConfig {
            drop_probability: self.config.poll_drop_probability,
            poll_batch: 64,
        };
        match &self.config.faults {
            None => {
                let endpoint =
                    TunnelEndpoint::new(Tunnel::new(base), agent, node.child("tunnel").rng());
                let (drain, sched) = drain_solo(PollPolicy::default(), Priority::Normal, endpoint);
                let agent = drain.endpoint.agent();
                assert_eq!(agent.queued(), 0, "agent failed to drain");
                out.tally.absorb(&drain.stats);
                out.tally.submitted += agent.reports_submitted();
                out.tally.dropped_overflow += agent.dropped_overflow();
                out.collect(drain.reports, &drain.stats, &sched);
            }
            // An agent with nothing queued is never polled under a fault
            // schedule (the healthy drain above polls it once).
            Some(_) if agent.queued() == 0 => {}
            Some(schedule) => {
                let endpoint = FaultedEndpoint::new(
                    schedule.intensity(window),
                    base,
                    node,
                    firmware_for(window),
                    agent,
                );
                let (drain, sched) = drain_solo(schedule.policy(), endpoint.priority(), endpoint);
                out.tally.absorb_faulted(&drain, drain.endpoint.counters());
                out.collect(drain.reports, &drain.stats, &sched);
            }
        }
    }
}

/// Poll-sized report chunk length (records per report).
const POLL_CHUNK: usize = 512;

/// Device-id base for the usage panel's synthetic roamed-to APs; far
/// above both the radio panel's ids and the usage batch agents'.
const ROAM_DEVICE_BASE: u64 = 2_000_000;

/// What one work unit hands back to the driver thread.
#[derive(Debug, Default)]
struct UnitOutput {
    /// Decoded reports, in submission order, ready for backend ingest.
    reports: Vec<Report>,
    /// Wire bytes encoded by this unit's tunnels.
    bytes: u64,
    /// Clients in this unit that roamed (usage panel only).
    roamed: u64,
    /// Degradation accounting for this unit's drains.
    tally: DegradationTally,
    /// Scheduler counters for this unit's drains.
    sched: SchedStats,
}

impl UnitOutput {
    /// Takes one finished drain's reports and folds its transport and
    /// scheduler counters in.
    fn collect(&mut self, reports: Vec<Report>, stats: &DrainStats, sched: &SchedStats) {
        self.reports.extend(reports);
        self.bytes += stats.bytes;
        self.sched.merge(sched);
    }
}

/// What lives on the driver thread for the whole campaign: the sink
/// and every counter the ordered merge folds into.
struct CampaignDriver<'a> {
    sink: &'a mut dyn ReportSink,
    threads: usize,
    degradation: DegradationTally,
    sched: SchedStats,
    panels: Vec<PanelStats>,
}

impl<'a> CampaignDriver<'a> {
    fn new(sink: &'a mut dyn ReportSink, threads: usize) -> Self {
        CampaignDriver {
            sink,
            threads,
            degradation: DegradationTally::default(),
            sched: SchedStats::default(),
            panels: Vec::new(),
        }
    }

    /// Runs one panel: fans `units` work units across the workers and,
    /// in ascending unit order, ingests each unit's reports into
    /// `window` and folds the unit's counters in. Returns the panel's
    /// roamed clients.
    fn panel(
        &mut self,
        label: &'static str,
        window: WindowId,
        units: usize,
        unit: impl Fn(usize) -> UnitOutput + Sync,
    ) -> u64 {
        let (mut reports, mut bytes, mut roamed) = (0, 0, 0);
        run_ordered(self.threads, units, unit, |_, out: UnitOutput| {
            let accepted = self.sink.ingest_batch(window, &out.reports);
            reports += accepted;
            bytes += out.bytes;
            roamed += out.roamed;
            self.degradation.merge(&out.tally);
            self.degradation.accepted += accepted;
            self.degradation.record_evictions(&out.sched);
            self.sched.merge(&out.sched);
        });
        self.panels.push(PanelStats {
            label,
            reports,
            bytes,
        });
        roamed
    }
}

/// One client's week of usage per application: the per-(MAC,
/// application) byte counters §2.1's APs keep on the fast path. Each
/// lane is `Some((up, down))` once a flow has been classified to its
/// application, so an application whose flows carried no bytes still
/// harvests a row. A fixed array, so one tally serves a whole batch
/// without allocating.
struct AppTally {
    lanes: [Option<(u64, u64)>; Application::ALL.len()],
}

impl Default for AppTally {
    fn default() -> Self {
        AppTally {
            lanes: [None; Application::ALL.len()],
        }
    }
}

impl AppTally {
    /// Classifies each flow once and adds its bytes to its application.
    fn fold(&mut self, ruleset: &RuleSet, flows: &[GeneratedFlow]) {
        for flow in flows {
            let app = ruleset.classify(&flow.metadata);
            let (up, down) = self.lanes[app as usize].get_or_insert((0, 0));
            *up += flow.up_bytes;
            *down += flow.down_bytes;
        }
    }

    /// Drains the client's rows: one per application that had a flow, in
    /// `Application` order, each carrying `mac`. The tally is empty for
    /// the next client once the rows are read to the end.
    fn harvest(&mut self, mac: MacAddress) -> impl Iterator<Item = UsageRecord> + '_ {
        self.lanes
            .iter_mut()
            .zip(Application::ALL)
            .filter_map(move |(lane, &app)| {
                let (up_bytes, down_bytes) = lane.take()?;
                Some(UsageRecord {
                    mac,
                    app,
                    up_bytes,
                    down_bytes,
                })
            })
    }
}

/// Accumulates records directly into poll-sized chunks, replacing the
/// build-everything-then-`chunks().to_vec()` pattern (one fewer copy of
/// every record on the hot path). Chunk boundaries match
/// `slice::chunks(size)` over the same push sequence exactly.
#[derive(Debug)]
struct Chunked<T> {
    size: usize,
    chunks: Vec<Vec<T>>,
}

impl<T> Chunked<T> {
    fn new(size: usize) -> Self {
        Chunked {
            size,
            chunks: Vec::new(),
        }
    }

    fn push(&mut self, value: T) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < self.size => last.push(value),
            _ => {
                let mut chunk = Vec::with_capacity(self.size);
                chunk.push(value);
                self.chunks.push(chunk);
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    fn into_chunks(self) -> Vec<Vec<T>> {
        self.chunks
    }
}

/// The diurnal activity multiplier for a local hour (0–23).
///
/// Business-network shape: low overnight, ramping to a midday plateau.
/// Calibrated so the Figure 9 day/night utilization gap is a few percent.
pub fn diurnal(hour: u64) -> f64 {
    match hour {
        0..=5 => 0.35,
        6..=8 => 0.7,
        9..=17 => 1.0,
        18..=20 => 0.8,
        _ => 0.5,
    }
}

/// [`diurnal`] precomputed for all 24 hours — the hot loops index this
/// instead of re-evaluating the match hundreds of thousands of times.
pub(crate) fn diurnal_table() -> [f64; 24] {
    std::array::from_fn(|hour| diurnal(hour as u64))
}

/// A sampled neighbour census for one AP.
#[derive(Debug, Clone)]
pub struct SampledCensus {
    /// The wire records (per channel with nonzero count).
    pub records: Vec<NeighborRecord>,
    /// Fraction of neighbours beaconing as legacy 802.11b.
    pub legacy_fraction: f64,
    // Counts are precomputed at sampling time so the per-hour load loops
    // do map lookups instead of scanning `records`, and so the records
    // themselves can be moved into a report payload (`take_records`)
    // without cloning.
    counts: std::collections::BTreeMap<(Band, u16), u32>,
    band_totals: [u32; 2],
}

fn band_index(band: Band) -> usize {
    match band {
        Band::Ghz2_4 => 0,
        Band::Ghz5 => 1,
    }
}

impl SampledCensus {
    /// Networks heard on `channel`.
    pub fn count_on(&self, channel: Channel) -> u32 {
        self.counts
            .get(&(channel.band, channel.number))
            .copied()
            .unwrap_or(0)
    }

    /// Networks heard on a band.
    pub fn count_on_band(&self, band: Band) -> u32 {
        self.band_totals[band_index(band)]
    }

    /// Moves the wire records out (e.g. into a report payload). The
    /// precomputed per-channel and per-band counts remain valid.
    pub(crate) fn take_records(&mut self) -> Vec<NeighborRecord> {
        std::mem::take(&mut self.records)
    }
}

/// Samples an AP's neighbour census for an epoch.
pub fn sample_census<R: Rng + ?Sized>(
    world: &World,
    ap: &ApSite,
    epoch: NeighborEpoch,
    rng: &mut R,
) -> SampledCensus {
    let mut per_channel: std::collections::BTreeMap<(Band, u16), (u32, u32)> = Default::default();
    for band in [Band::Ghz2_4, Band::Ghz5] {
        let mean = epoch.mean_networks(band) * ap.density;
        // Poisson-ish count via exponential inter-arrival thinning: for
        // simulation purposes a rounded exponential-mixture is fine and
        // keeps the long tail.
        let count = sample_count(mean, rng);
        let hotspot_p = epoch.hotspot_fraction(band);
        for _ in 0..count {
            let channel = world.placement.sample(band, rng);
            let entry = per_channel.entry((band, channel.number)).or_default();
            entry.0 += 1;
            if rng.gen::<f64>() < hotspot_p {
                entry.1 += 1;
            }
        }
    }
    let mut records = Vec::with_capacity(per_channel.len());
    let mut counts = std::collections::BTreeMap::new();
    let mut band_totals = [0u32; 2];
    for ((band, number), (networks, hotspots)) in per_channel {
        records.push(NeighborRecord {
            channel: Channel::new(band, number)
                .expect("invariant: placement only emits valid plan channels"),
            networks,
            hotspots,
        });
        counts.insert((band, number), networks);
        band_totals[band_index(band)] += networks;
    }
    SampledCensus {
        records,
        legacy_fraction: 0.08,
        counts,
        band_totals,
    }
}

/// Draws a non-negative integer with the given mean and a heavy-ish tail.
fn sample_count<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> u32 {
    if mean <= 0.0 {
        return 0;
    }
    // Mixture: exponential around the mean (coefficient of variation 1),
    // which matches the broad spread of real neighbour counts.
    let x = Exponential::with_mean(mean).sample(rng);
    x.round() as u32
}

/// The load on the AP's *serving* channel of `band` (what the MR16
/// energy-detect counter integrates).
pub fn serving_load<R: Rng + ?Sized>(
    ap: &ApSite,
    census: &SampledCensus,
    band: Band,
    epoch: NeighborEpoch,
    diurnal_factor: f64,
    rng: &mut R,
) -> ChannelLoad {
    let channel = match band {
        Band::Ghz2_4 => ap.channel_2_4,
        Band::Ghz5 => ap.channel_5,
    };
    channel_load_inner(ap, census, channel, epoch, diurnal_factor, true, rng)
}

/// The load on an arbitrary channel (what the MR18 scanner sees).
pub fn channel_load<R: Rng + ?Sized>(
    ap: &ApSite,
    census: &SampledCensus,
    channel: Channel,
    epoch: NeighborEpoch,
    diurnal_factor: f64,
    rng: &mut R,
) -> ChannelLoad {
    let own = channel == ap.channel_2_4 || channel == ap.channel_5;
    channel_load_inner(ap, census, channel, epoch, diurnal_factor, own, rng)
}

/// Maximum networks close enough to ever trigger energy detect, however
/// many the scanning radio can decode.
const ED_POOL_CAP: u64 = 8;
/// Minimum visible (energy-detect triggering) fraction of the ED pool.
const ED_VISIBLE_MIN: f64 = 0.10;
/// Spread of the visible fraction across channel samples.
const ED_VISIBLE_SPREAD: f64 = 0.55;
/// Heavy-tail scale of one strong network's busy contribution.
const FOREIGN_BUSY_XMIN: f64 = 0.006;
/// Pareto tail index: < 1 makes the channel's foreign load dominated by
/// its single busiest neighbour, not the neighbour *count* — the key to
/// the paper's missing count-utilization correlation.
const FOREIGN_BUSY_ALPHA: f64 = 0.95;

fn channel_load_inner<R: Rng + ?Sized>(
    ap: &ApSite,
    census: &SampledCensus,
    channel: Channel,
    epoch: NeighborEpoch,
    diurnal_factor: f64,
    include_own: bool,
    rng: &mut R,
) -> ChannelLoad {
    let co_channel = census.count_on(channel);
    // Energy-detect visibility: the census decodes beacons down to the
    // receive sensitivity (≈ -95 dBm) but the carrier-sense energy
    // detector only triggers ~30 dB higher, so most *heard* networks
    // contribute no busy time. This, plus the heavy-tailed activity of
    // the few strong ones, is what destroys the count-vs-utilization
    // correlation in Figures 7/8.
    let visible_p = ED_VISIBLE_MIN + ED_VISIBLE_SPREAD * rng.gen::<f64>();
    // The decode radius scales with the site's RF horizon (a skyscraper AP
    // hears hundreds of networks), but the energy-detect radius is fixed:
    // only networks within a small physical neighbourhood can trigger
    // carrier sense. The candidate pool for "strong" is therefore capped,
    // which — together with the heavy-tailed activity below — removes the
    // count-utilization correlation (Figures 7/8).
    let ed_pool = u64::from(co_channel).min(ED_POOL_CAP);
    // Energy the census never attributes: clients of networks whose AP is
    // out of decode range, and adjacent-channel bleed. Count-independent,
    // and nearly absent at 5 GHz where the band is mostly empty.
    let unattributed_mean = match channel.band {
        Band::Ghz2_4 => 0.05,
        Band::Ghz5 => 0.008,
    };
    let unattributed = Exponential::with_mean(unattributed_mean).sample(rng) * diurnal_factor;
    let strong = (0..ed_pool)
        .filter(|_| rng.gen::<f64>() < visible_p)
        .count() as u32;
    // Foreign data traffic: Pareto per strong network — most are idle,
    // one busy neighbour dominates the channel.
    let pareto = airstat_stats::dist::Pareto::new(FOREIGN_BUSY_XMIN, FOREIGN_BUSY_ALPHA);
    let foreign_busy: f64 = (0..strong)
        .map(|_| (pareto.sample(rng) - FOREIGN_BUSY_XMIN).min(0.8))
        .sum::<f64>()
        * diurnal_factor
        + unattributed;
    // Our own client load rides the serving channel only, split across
    // the two radios by the site's client mix.
    let band_share = match channel.band {
        Band::Ghz2_4 => 1.0 - ap.share_5ghz,
        Band::Ghz5 => ap.share_5ghz,
    };
    let own_load = if include_own {
        ap.data_load_bps * band_share * diurnal_factor
    } else {
        0.0
    };
    // Non-WiFi duty from the AP's actual interferer population (§5.3):
    // each emitter contributes its duty cycle on this channel (hoppers
    // spread across the band, static emitters hit co-located channels),
    // modulated by time of day since most of these devices follow people.
    let non_wifi = match channel.band {
        Band::Ghz2_4 => {
            let ambient =
                airstat_rf::interference::aggregate_duty(&ap.interferers, channel.center_mhz());
            (ambient * diurnal_factor).min(0.25) + Exponential::with_mean(0.003).sample(rng)
        }
        Band::Ghz5 => Exponential::with_mean(0.002).sample(rng),
    };
    // Foreign busy is energy from *other* networks: fold it into the data
    // term by expressing it as extra offered load on our capacity model.
    let mean_rate = match channel.band {
        Band::Ghz2_4 => 24.0,
        Band::Ghz5 => 54.0,
    };
    let capacity = airstat_rf::phy::effective_throughput_bps(mean_rate);
    let foreign_load_bps = foreign_busy * capacity;
    // Corrupt preambles: more hidden terminals in denser places.
    let corrupt = (0.06 + 0.05 * (co_channel as f64 / 30.0)).min(0.35);
    let epoch_legacy = match epoch {
        // Legacy beacons were slightly more common six months earlier.
        NeighborEpoch::Jul2014 => census.legacy_fraction * 1.25,
        NeighborEpoch::Jan2015 => census.legacy_fraction,
    };
    ChannelLoad {
        beaconing_bssids: strong + u32::from(include_own),
        legacy_beacon_fraction: epoch_legacy,
        data_load_bps: own_load + foreign_load_bps,
        mean_data_rate_mbps: mean_rate,
        non_wifi_duty: non_wifi,
        corrupt_preamble_fraction: corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_stats::Ecdf;

    fn tiny_run() -> SimulationOutput {
        FleetSimulation::new(FleetConfig::smoke()).run()
    }

    #[test]
    fn app_tally_sums_per_application_in_application_order() {
        use airstat_classify::apps::FlowMetadata;
        let flow = |metadata, up_bytes, down_bytes| GeneratedFlow {
            truth: Application::MiscWeb,
            metadata,
            up_bytes,
            down_bytes,
        };
        let ruleset = RuleSet::standard_2015();
        let row = |mac, app, up_bytes, down_bytes| UsageRecord {
            mac,
            app,
            up_bytes,
            down_bytes,
        };
        let (a, b) = (
            MacAddress::new([2, 0, 0, 0, 0, 1]),
            MacAddress::new([2, 0, 0, 0, 0, 2]),
        );
        let mut tally = AppTally::default();
        tally.fold(
            &ruleset,
            &[
                flow(FlowMetadata::https("client.dropbox.com"), 600, 400),
                flow(FlowMetadata::https("movies.netflix.com"), 10, 100),
                flow(FlowMetadata::http("blah.example.org"), 0, 0),
                flow(FlowMetadata::https("movies.netflix.com"), 20, 200),
            ],
        );
        // Two Netflix flows sum into one row, up and down stay apart, a
        // flow without bytes still harvests its row, and the rows come
        // out in `Application` order, not flow order.
        assert_eq!(
            tally.harvest(a).collect::<Vec<_>>(),
            vec![
                row(a, Application::MiscWeb, 0, 0),
                row(a, Application::Netflix, 30, 300),
                row(a, Application::Dropbox, 600, 400),
            ]
        );
        // The harvest emptied the tally for the batch's next client.
        tally.fold(
            &ruleset,
            &[flow(FlowMetadata::https("movies.netflix.com"), 1, 2)],
        );
        assert_eq!(
            tally.harvest(b).collect::<Vec<_>>(),
            vec![row(b, Application::Netflix, 1, 2)]
        );
    }

    #[test]
    fn smoke_run_populates_all_windows() {
        let out = tiny_run();
        use crate::config::{WINDOW_JAN_2014, WINDOW_JAN_2015, WINDOW_JUL_2014};
        use airstat_store::FleetQuery;
        let b = out.query();
        assert!(b.client_count(WINDOW_JAN_2014) > 0);
        assert!(b.client_count(WINDOW_JAN_2015) > 0);
        assert!(b.client_count(WINDOW_JAN_2015) > b.client_count(WINDOW_JAN_2014));
        assert!(!b.usage_by_app(WINDOW_JAN_2015).is_empty());
        assert!(!b
            .latest_delivery_ratios(WINDOW_JAN_2015, Band::Ghz2_4)
            .is_empty());
        assert!(!b
            .latest_delivery_ratios(WINDOW_JUL_2014, Band::Ghz2_4)
            .is_empty());
        assert!(!b
            .serving_utilizations(WINDOW_JAN_2015, Band::Ghz2_4)
            .is_empty());
        assert!(!b
            .scan_observations(WINDOW_JAN_2015, Band::Ghz2_4)
            .is_empty());
        let (_, mean24, _) = b.nearby_summary(WINDOW_JAN_2015, Band::Ghz2_4);
        assert!(mean24 > 10.0, "mean nearby {mean24}");
        assert!(out.run.polls_attempted > 0);
        // Roaming happened, and MAC aggregation kept client counts exact:
        // a roamer shows up at two APs yet counts once in the client panel.
        assert!(out.run.roamed_clients > 0, "some clients must roam");
        assert!(
            (out.run.roamed_clients as usize) < b.client_count(WINDOW_JAN_2015),
            "roamers are a subset of clients"
        );
    }

    #[test]
    fn smoke_run_reports_panel_stats() {
        let out = tiny_run();
        let run = &out.run;
        let labels: Vec<_> = run.panels.iter().map(|p| p.label).collect();
        assert_eq!(
            labels,
            vec![
                "usage-2014",
                "usage-2015",
                "radio-jul14",
                "radio-jan15",
                "scan-jan15"
            ]
        );
        for p in &run.panels {
            assert!(p.reports > 0, "{}: no reports", p.label);
            assert!(p.bytes > 0, "{}: no wire bytes", p.label);
        }
        assert_eq!(
            out.reports_ingested(),
            out.store.reports_ingested(),
            "panel tallies must agree with the store"
        );
        assert_eq!(
            run.bytes_encoded,
            run.panels.iter().map(|p| p.bytes).sum::<u64>()
        );
        assert!(run.threads >= 1);
        assert_eq!(
            (run.polls_attempted, run.polls_lost),
            (run.degradation.polls, run.degradation.polls_lost),
            "the poll counters are the degradation tally's"
        );
        let summary = out.throughput_summary();
        assert!(summary.contains("usage-2015"));
        assert!(summary.contains("total"));
    }

    /// Counts the batches the driver offers its sink.
    #[derive(Default)]
    struct CountingSink {
        batches: u64,
    }

    impl ReportSink for CountingSink {
        fn ingest_batch(&mut self, _: WindowId, reports: &[Report]) -> u64 {
            self.batches += 1;
            reports.len() as u64
        }
    }

    #[test]
    fn driver_offers_every_unit_and_tallies_each_panel() {
        // Five hand-fed units over two panels; each panel's second unit
        // is empty and is still offered to the sink.
        let unit = |index: usize| UnitOutput {
            reports: (0..[3u64, 0, 2][index % 3])
                .map(|seq| Report {
                    device: index as u64,
                    seq,
                    timestamp_s: 0,
                    payload: ReportPayload::Crash(Vec::new()),
                })
                .collect(),
            bytes: 10,
            ..UnitOutput::default()
        };
        let mut sink = CountingSink::default();
        let mut driver = CampaignDriver::new(&mut sink, 2);
        driver.panel("first", WINDOW_JUL_2014, 3, unit);
        driver.panel("second", WINDOW_JAN_2015, 2, unit);
        let stats = |label, reports, bytes| PanelStats {
            label,
            reports,
            bytes,
        };
        assert_eq!(
            driver.panels,
            [stats("first", 5, 30), stats("second", 3, 20)]
        );
        assert_eq!(driver.degradation.accepted, 8);
        assert_eq!(sink.batches, 5);
    }

    #[test]
    fn census_counts_match_records() {
        let world = World::generate(&SeedTree::new(11), 50, 0);
        let mut rng = SeedTree::new(12).rng();
        for ap in &world.aps {
            let mut census = sample_census(&world, ap, NeighborEpoch::Jan2015, &mut rng);
            for band in [Band::Ghz2_4, Band::Ghz5] {
                let scanned: u32 = census
                    .records
                    .iter()
                    .filter(|r| r.channel.band == band)
                    .map(|r| r.networks)
                    .sum();
                assert_eq!(census.count_on_band(band), scanned);
                for channel in Channel::all_in(band) {
                    let on_channel: u32 = census
                        .records
                        .iter()
                        .filter(|r| r.channel == channel)
                        .map(|r| r.networks)
                        .sum();
                    assert_eq!(census.count_on(channel), on_channel);
                }
            }
            // Counts survive moving the records out.
            let total_before = census.count_on_band(Band::Ghz2_4);
            let records = census.take_records();
            assert!(census.records.is_empty());
            assert_eq!(census.count_on_band(Band::Ghz2_4), total_before);
            drop(records);
        }
    }

    #[test]
    fn diurnal_table_matches_function() {
        let table = diurnal_table();
        for hour in 0..24u64 {
            assert_eq!(table[hour as usize], diurnal(hour));
        }
    }

    #[test]
    fn run_is_deterministic() {
        let a = tiny_run();
        let b = tiny_run();
        use crate::config::WINDOW_JAN_2015;
        use airstat_store::FleetQuery;
        let (qa, qb) = (a.query(), b.query());
        assert_eq!(
            qa.usage_by_app(WINDOW_JAN_2015),
            qb.usage_by_app(WINDOW_JAN_2015)
        );
        assert_eq!(
            qa.latest_delivery_ratios(WINDOW_JAN_2015, Band::Ghz2_4),
            qb.latest_delivery_ratios(WINDOW_JAN_2015, Band::Ghz2_4)
        );
    }

    #[test]
    fn diurnal_shape() {
        assert!(diurnal(3) < diurnal(12));
        assert!(diurnal(22) < diurnal(12));
        assert_eq!(diurnal(12), 1.0);
        for h in 0..24 {
            assert!(diurnal(h) > 0.0 && diurnal(h) <= 1.0);
        }
    }

    #[test]
    fn census_means_track_epoch() {
        let world = World::generate(&SeedTree::new(1), 400, 0);
        let mut rng = SeedTree::new(2).rng();
        let mut total24 = 0u32;
        let mut total5 = 0u32;
        for ap in &world.aps {
            let c = sample_census(&world, ap, NeighborEpoch::Jan2015, &mut rng);
            total24 += c.count_on_band(Band::Ghz2_4);
            total5 += c.count_on_band(Band::Ghz5);
        }
        let mean24 = f64::from(total24) / world.aps.len() as f64;
        let mean5 = f64::from(total5) / world.aps.len() as f64;
        assert!((mean24 - 55.47).abs() < 12.0, "mean 2.4 {mean24}");
        assert!((mean5 - 3.68).abs() < 1.5, "mean 5 {mean5}");
    }

    #[test]
    fn serving_utilization_distribution_matches_fig6() {
        // Generate a standalone panel and check the Figure 6 shape:
        // 2.4 GHz median ≈ 25%, p90 ≈ 50%; 5 GHz median ≈ 5%, p90 ≈ 30%.
        let world = World::generate(&SeedTree::new(3), 600, 0);
        let mut rng = SeedTree::new(4).rng();
        let mut utils24 = Vec::new();
        let mut utils5 = Vec::new();
        for ap in &world.aps {
            let census = sample_census(&world, ap, NeighborEpoch::Jan2015, &mut rng);
            let mut acc24 = 0.0;
            let mut acc5 = 0.0;
            for hour in 0..24 {
                acc24 += serving_load(
                    ap,
                    &census,
                    Band::Ghz2_4,
                    NeighborEpoch::Jan2015,
                    diurnal(hour),
                    &mut rng,
                )
                .utilization();
                acc5 += serving_load(
                    ap,
                    &census,
                    Band::Ghz5,
                    NeighborEpoch::Jan2015,
                    diurnal(hour),
                    &mut rng,
                )
                .utilization();
            }
            utils24.push(acc24 / 24.0);
            utils5.push(acc5 / 24.0);
        }
        let e24 = Ecdf::new(utils24);
        let e5 = Ecdf::new(utils5);
        let med24 = e24.median().unwrap();
        let p90_24 = e24.quantile(0.9).unwrap();
        let med5 = e5.median().unwrap();
        let p90_5 = e5.quantile(0.9).unwrap();
        assert!((0.15..=0.35).contains(&med24), "2.4 median {med24}");
        assert!((0.32..=0.68).contains(&p90_24), "2.4 p90 {p90_24}");
        assert!((0.02..=0.12).contains(&med5), "5 median {med5}");
        assert!((0.08..=0.40).contains(&p90_5), "5 p90 {p90_5}");
        assert!(med24 > med5 * 2.0);
    }

    #[test]
    fn july_2014_quieter_than_jan_2015() {
        // Paired comparison: the same AP under the same random draws, only
        // the epoch differs — isolates the §4 growth signal from the
        // heavy-tailed sampling noise.
        let world = World::generate(&SeedTree::new(5), 300, 0);
        let seed = SeedTree::new(6);
        let mean = |epoch: NeighborEpoch| {
            let mut acc = 0.0;
            for ap in &world.aps {
                let mut rng = seed.indexed(ap.device_id).rng();
                let census = sample_census(&world, ap, epoch, &mut rng);
                acc += serving_load(ap, &census, Band::Ghz2_4, epoch, 1.0, &mut rng).utilization();
            }
            acc / world.aps.len() as f64
        };
        let jul = mean(NeighborEpoch::Jul2014);
        let jan = mean(NeighborEpoch::Jan2015);
        assert!(jan > jul, "interference grew: {jul} -> {jan}");
    }

    #[test]
    fn off_channel_loads_are_lighter() {
        // The §5.2 sampling-bias mechanism: the serving channel carries
        // the AP's own load, other channels do not.
        let world = World::generate(&SeedTree::new(7), 50, 0);
        let ap = &world.aps[0];
        let mut rng = SeedTree::new(8).rng();
        let census = sample_census(&world, ap, NeighborEpoch::Jan2015, &mut rng);
        let mut own = 0.0;
        let mut other = 0.0;
        let other_channel =
            Channel::new(Band::Ghz2_4, if ap.channel_2_4.number == 6 { 1 } else { 6 }).unwrap();
        for _ in 0..50 {
            own += channel_load(
                ap,
                &census,
                ap.channel_2_4,
                NeighborEpoch::Jan2015,
                1.0,
                &mut rng,
            )
            .utilization();
            other += channel_load(
                ap,
                &census,
                other_channel,
                NeighborEpoch::Jan2015,
                1.0,
                &mut rng,
            )
            .utilization();
        }
        assert!(own > other, "serving channel busier: {own} vs {other}");
    }

    #[test]
    fn decodable_fraction_mostly_high_at_2_4() {
        // Figure 10: the majority of busy time contains decodable headers.
        let world = World::generate(&SeedTree::new(9), 200, 0);
        let mut rng = SeedTree::new(10).rng();
        let mut decodables = Vec::new();
        for ap in &world.aps {
            let census = sample_census(&world, ap, NeighborEpoch::Jan2015, &mut rng);
            let load = serving_load(
                ap,
                &census,
                Band::Ghz2_4,
                NeighborEpoch::Jan2015,
                1.0,
                &mut rng,
            );
            if load.utilization() > 0.01 {
                decodables.push(load.decodable_fraction());
            }
        }
        let e = Ecdf::new(decodables);
        assert!(
            e.median().unwrap() > 0.5,
            "median decodable {}",
            e.median().unwrap()
        );
    }
}
