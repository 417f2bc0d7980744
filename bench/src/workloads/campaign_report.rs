//! `campaign_report`: the batch user's whole path, cold — simulate the
//! fleet, fill a store, compute every table and figure, render.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use airstat_classify::apps::RuleSet;
use airstat_classify::device::{ClassifierVersion, DeviceClassifier};
use airstat_core::report::PaperReport;
use airstat_sim::population::PopulationModel;
use airstat_sim::traffic::generate_weekly;
use airstat_sim::{FleetConfig, FleetSimulation, MeasurementYear};
use airstat_stats::SeedTree;
use airstat_store::{QueryEngine, ShardedStore};
use airstat_telemetry::poll::{drain_scheduled, PollPolicy};
use airstat_telemetry::report::{Report, ReportPayload};
use airstat_telemetry::transport::{DeviceAgent, Tunnel, TunnelConfig};

use super::{
    campaign_clients, capture_campaign, fleet_config, legacy_digest, median_picked_ms,
    median_self_ms, median_total_ms, LayerMetrics, Rep, Sizes, Workload, STORE,
};
use crate::seams::{NullSink, TimedQuery, TimedSink};
use crate::stats::{digest, median};
use crate::trace::{Span, Tracer};

pub struct CampaignReport {
    config: FleetConfig,
    oracle_digest: u64,
    oracle_reports: u64,
    /// Counters of the last traced rep; they repeat exactly across reps.
    traced: Option<TracedCounts>,
}

struct TracedCounts {
    reports: u64,
    records: u64,
    wire_bytes: u64,
    polls: u64,
    polls_lost: u64,
    report_bytes: usize,
    cache_hits: u64,
    cache_misses: u64,
    shards_scanned: u64,
    shards_pruned: u64,
}

impl CampaignReport {
    pub fn setup(seed: u64, sizes: &Sizes) -> Self {
        let config = fleet_config(seed, sizes.campaign_scale);
        let output = FleetSimulation::new(config.clone()).run();
        CampaignReport {
            oracle_digest: legacy_digest(&output.store, &config),
            oracle_reports: output.reports_ingested(),
            config,
            traced: None,
        }
    }

    #[cfg(test)]
    pub fn oracle_digest(&self) -> u64 {
        self.oracle_digest
    }

    fn check(&self, text: &str, reports_ingested: u64) -> bool {
        digest(text) == self.oracle_digest && reports_ingested == self.oracle_reports
    }
}

impl Workload for CampaignReport {
    fn work_items(&self) -> u64 {
        campaign_clients(&self.config)
    }

    fn rep(&mut self) -> Result<Rep, String> {
        let start = Instant::now();
        let output = FleetSimulation::new(self.config.clone()).run();
        let text = PaperReport::from_simulation(&output, &self.config).to_string();
        let elapsed = start.elapsed();
        let ok = self.check(&text, output.reports_ingested());
        Ok(Rep { elapsed, ok })
    }

    fn traced_rep(&mut self, tracer: &Tracer) -> Result<Rep, String> {
        let simulation = FleetSimulation::new(self.config.clone());
        let start = Instant::now();
        let (text, counts) = tracer.span("bench.rep", || {
            let mut sink = TimedSink::new(ShardedStore::with_config(STORE), tracer);
            let run = tracer.span("sim.run_into", || simulation.run_into(&mut sink));
            let (reports, records) = (sink.reports, sink.records);
            let store = sink.into_inner();
            let snapshot = tracer.span("store.seal.full", || store.seal());
            let engine = QueryEngine::new(snapshot, STORE.threads);
            let report = tracer.span("core.from_query", || {
                PaperReport::from_query(&TimedQuery::new(&engine, tracer), &self.config)
            });
            let text = tracer.span("core.render", || report.to_string());
            let stats = engine.stats();
            let counts = TracedCounts {
                reports,
                records,
                wire_bytes: run.bytes_encoded,
                polls: run.polls_attempted,
                polls_lost: run.polls_lost,
                report_bytes: text.len(),
                cache_hits: stats.hits,
                cache_misses: stats.misses,
                shards_scanned: stats.shards_scanned,
                shards_pruned: stats.shards_pruned,
            };
            (text, counts)
        });
        let elapsed = start.elapsed();
        // No duplicates in a healthy campaign: offered equals ingested.
        let ok = self.check(&text, counts.reports);
        self.traced = Some(counts);
        Ok(Rep { elapsed, ok })
    }

    fn layer_metrics(&mut self, spans: &[Span], reps: u32) -> Result<LayerMetrics, String> {
        let counts = self.traced.as_ref().ok_or("no traced rep was run")?;
        let mut m = LayerMetrics::new();

        let generate_ms = median_self_ms(spans, reps, "sim.run_into");
        m.insert("sim.generate_ms", generate_ms);
        m.insert(
            "sim.clients_per_s",
            campaign_clients(&self.config) as f64 / (generate_ms / 1e3),
        );
        m.insert("sim.reports", counts.reports as f64);
        m.insert("sim.wire_bytes", counts.wire_bytes as f64);
        m.insert("telemetry.transport.polls", counts.polls as f64);
        m.insert(
            "telemetry.transport.lost_share",
            counts.polls_lost as f64 / counts.polls as f64,
        );

        let ingest_ms = median_total_ms(spans, reps, "store.ingest.batch");
        m.insert("store.ingest.ms", ingest_ms);
        m.insert(
            "store.ingest.ns_per_record",
            ingest_ms * 1e6 / counts.records as f64,
        );
        m.insert(
            "store.seal.full_ms",
            median_total_ms(spans, reps, "store.seal.full"),
        );

        let is_query = |span: &Span| span.layer() == "store.query";
        m.insert(
            "store.query.report_ms",
            median_picked_ms(spans, reps, is_query),
        );
        m.insert(
            "store.query.report_calls",
            spans.iter().filter(|s| is_query(s)).count() as f64 / f64::from(reps),
        );
        m.insert(
            "store.query.cache_hit_share",
            counts.cache_hits as f64 / (counts.cache_hits + counts.cache_misses) as f64,
        );
        m.insert(
            "store.query.pruned_share",
            counts.shards_pruned as f64 / (counts.shards_scanned + counts.shards_pruned) as f64,
        );
        m.insert(
            "core.compute_ms",
            median_self_ms(spans, reps, "core.from_query"),
        );
        m.insert(
            "core.render_ms",
            median_total_ms(spans, reps, "core.render"),
        );
        m.insert("core.report_bytes", counts.report_bytes as f64);

        self.direct_calls(&mut m);
        Ok(m)
    }
}

/// Clients the per-client direct-call loops sample.
const SAMPLE_CLIENTS: u64 = 8_000;

impl CampaignReport {
    /// Times direct calls into the leaf functions `run_into` spends its
    /// self time in, on inputs generated here from the workload's seed.
    /// These split `sim.generate_ms` by layer without a span inside the
    /// engine's unit closures.
    fn direct_calls(&self, m: &mut LayerMetrics) {
        let seed = SeedTree::new(self.config.seed).child("bench-direct");
        let year = MeasurementYear::Y2015;

        // population: sample_client, which draws the evidence too.
        let population = PopulationModel::new(year);
        let mut rng = seed.child("clients").rng();
        let mut clients = Vec::with_capacity(SAMPLE_CLIENTS as usize);
        let start = Instant::now();
        for id in 0..SAMPLE_CLIENTS {
            clients.push(population.sample_client(id, &mut rng));
        }
        let per_client =
            |elapsed: std::time::Duration| elapsed.as_nanos() as f64 / SAMPLE_CLIENTS as f64;
        m.insert("sim.population_ns_per_client", per_client(start.elapsed()));

        // traffic: one week of flows per client.
        let mut rng = seed.child("traffic").rng();
        let mut weeks = Vec::with_capacity(clients.len());
        let start = Instant::now();
        for client in &clients {
            weeks.push(generate_weekly(client, year, &mut rng));
        }
        m.insert("sim.traffic_ns_per_client", per_client(start.elapsed()));

        // classify: the device classifier per client, the ruleset per flow.
        let classifier = DeviceClassifier::new(ClassifierVersion::V2015);
        let start = Instant::now();
        for client in &clients {
            black_box(classifier.classify(black_box(&client.evidence)));
        }
        m.insert("classify.device_ns_per_client", per_client(start.elapsed()));

        let rules = RuleSet::standard_2015();
        let flows: u64 = weeks.iter().map(|w| w.flows.len() as u64).sum();
        let start = Instant::now();
        for week in &weeks {
            for flow in &week.flows {
                black_box(rules.classify(black_box(&flow.metadata)));
            }
        }
        m.insert(
            "classify.rules_ns_per_flow",
            start.elapsed().as_nanos() as f64 / flows as f64,
        );
        drop((clients, weeks));

        // wire + transport, on the reports the campaign itself drains.
        let reports: Vec<Report> = capture_campaign(&self.config)
            .into_iter()
            .flat_map(|(_, batch)| batch)
            .collect();
        let n = reports.len() as f64;
        let records: u64 = reports.iter().map(|r| r.payload.len() as u64).sum();

        let mut wire: Vec<Vec<u8>> = Vec::with_capacity(reports.len());
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        let mut encode_ns = 0u128;
        for report in &reports {
            out.clear();
            scratch.clear();
            let start = Instant::now();
            report.encode_into(&mut out, &mut scratch);
            encode_ns += start.elapsed().as_nanos();
            wire.push(out.clone());
        }
        m.insert("telemetry.wire.encode_ns_per_report", encode_ns as f64 / n);
        let wire_bytes: u64 = wire.iter().map(|w| w.len() as u64).sum();
        m.insert(
            "telemetry.wire.bytes_per_record",
            wire_bytes as f64 / records as f64,
        );

        let start = Instant::now();
        for bytes in &wire {
            black_box(Report::decode(black_box(bytes)).expect("own encoding decodes"));
        }
        m.insert(
            "telemetry.wire.decode_ns_per_report",
            start.elapsed().as_nanos() as f64 / n,
        );
        drop(wire);

        // transport: each device's payloads back through an agent and a
        // solo scheduler, as the engine's `drain_agent_collect` does.
        let mut by_device: BTreeMap<u64, Vec<(u64, ReportPayload)>> = BTreeMap::new();
        for report in reports {
            by_device
                .entry(report.device)
                .or_default()
                .push((report.timestamp_s, report.payload));
        }
        let tunnel_config = TunnelConfig {
            drop_probability: self.config.poll_drop_probability,
            poll_batch: 64,
        };
        let mut drained = 0u64;
        let start = Instant::now();
        for (device, payloads) in by_device {
            let mut agent = DeviceAgent::new(device);
            for (timestamp_s, payload) in payloads {
                agent.submit(timestamp_s, payload);
            }
            let mut tunnel = Tunnel::new(tunnel_config);
            let mut rng = seed.indexed(device).rng();
            let (delivered, _, _) =
                drain_scheduled(PollPolicy::default(), &mut tunnel, &mut agent, &mut rng);
            drained += delivered.len() as u64;
        }
        m.insert(
            "telemetry.transport.drain_ns_per_report",
            start.elapsed().as_nanos() as f64 / drained as f64,
        );

        // Informational: every workload pins `threads = 1`, so this
        // predicts no end-to-end move.
        let generate_wall = |threads: usize| {
            let simulation = FleetSimulation::new(FleetConfig {
                threads,
                ..self.config.clone()
            });
            let walls: Vec<f64> = (0..T2_REPS)
                .map(|_| {
                    let start = Instant::now();
                    black_box(simulation.run_into(&mut NullSink));
                    start.elapsed().as_secs_f64()
                })
                .collect();
            median(&walls)
        };
        m.insert("sim.t2_speedup", generate_wall(1) / generate_wall(2));
    }
}

/// Generate-only campaigns per thread count behind `sim.t2_speedup`.
const T2_REPS: usize = 3;
