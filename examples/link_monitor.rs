//! Link monitor: watch inter-AP probe links over a simulated week and
//! flag the intermediate ones (§4.2's machinery as an operations tool).
//!
//! Also demonstrates transport fault injection: the monitor's reports
//! traverse a tunnel that drops 20% of polls; the at-least-once queue
//! delivers everything anyway, and the backend's dedup keeps the counters
//! exact.
//!
//! ```text
//! cargo run --release --example link_monitor
//! ```

use airstat::rf::band::Band;
use airstat::rf::link::{FadingProcess, LinkModel};
use airstat::sim::engine::{diurnal, sample_census, serving_load};
use airstat::sim::world::{NeighborEpoch, World};
use airstat::stats::{SeedTree, SlidingRatio};
use airstat::telemetry::backend::{Backend, LinkKey, WindowId};
use airstat::telemetry::report::{LinkRecord, ReportPayload};
use airstat::telemetry::transport::{DeviceAgent, PollOutcome, Tunnel, TunnelConfig};
use rand::Rng;

const WINDOW: WindowId = WindowId(1501);

fn main() {
    let seed = SeedTree::new(0x11_4B);
    let world = World::generate(&seed, 30, 0);
    let epoch = NeighborEpoch::Jan2015;
    let mut backend = Backend::new();
    let mut rng = seed.child("monitor").rng();
    let mut polls_lost = 0;

    // Monitor every 2.4 GHz link into the first ten APs, with the paper's
    // exact probe schedule: 15 s probes, 300 s sliding window, hourly
    // reports for a week.
    for ap in world.aps.iter().take(10) {
        let census = sample_census(&world, ap, epoch, &mut rng);
        let model = LinkModel::for_band(Band::Ghz2_4);
        let links: Vec<_> = world.links_into(ap.device_id, Band::Ghz2_4).collect();
        if links.is_empty() {
            continue;
        }
        let mut agent = DeviceAgent::new(ap.device_id);
        let mut windows: Vec<SlidingRatio> = links.iter().map(|_| SlidingRatio::new(300)).collect();
        let mut faders: Vec<FadingProcess> = links
            .iter()
            .map(|_| FadingProcess::probe_interval_default())
            .collect();
        for t in (0..7 * 24 * 3600u64).step_by(15) {
            let hour = (t / 3600) % 24;
            for ((wl, window), fader) in links.iter().zip(&mut windows).zip(&mut faders) {
                let fade = fader.step(&mut rng);
                let load = serving_load(ap, &census, Band::Ghz2_4, epoch, diurnal(hour), &mut rng);
                let p = model.delivery_probability(&wl.link, load.utilization(), fade);
                window.record(t, rng.gen::<f64>() < p);
            }
            if t % 3600 == 0 && t > 0 {
                let records: Vec<LinkRecord> = links
                    .iter()
                    .zip(&windows)
                    .map(|(wl, w)| LinkRecord {
                        peer_device: wl.tx,
                        band: Band::Ghz2_4,
                        probes_expected: w.in_window() as u32,
                        probes_received: w.successes() as u32,
                    })
                    .collect();
                agent.submit(t, ReportPayload::Links(records));
            }
        }
        // Ship through a deliberately lossy tunnel.
        let mut tunnel = Tunnel::new(TunnelConfig {
            drop_probability: 0.2,
            poll_batch: 32,
        });
        while agent.queued() > 0 {
            match tunnel.poll(&mut agent, &mut rng) {
                PollOutcome::Delivered(reports) => {
                    for r in &reports {
                        backend.ingest(WINDOW, r);
                    }
                }
                _ => polls_lost += 1,
            }
        }
    }

    println!("transport: {polls_lost} polls lost and retransmitted; nothing dropped\n");
    println!("link            band     mean   min    max    verdict");
    println!("------------------------------------------------------");
    let mut intermediate = 0;
    let mut total = 0;
    for key in backend.link_keys(WINDOW, Band::Ghz2_4) {
        let series = backend.link_series(WINDOW, key);
        let ratios: Vec<f64> = series.iter().map(|o| o.ratio).collect();
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let min = ratios.iter().cloned().fold(1.0, f64::min);
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        let verdict = if mean > 0.9 {
            "good"
        } else if mean > 0.1 {
            intermediate += 1;
            "INTERMEDIATE"
        } else {
            "dead"
        };
        total += 1;
        println!(
            "{:>4} -> {:<4}   2.4 GHz   {mean:.2}   {min:.2}   {max:.2}   {verdict}",
            key.tx_device, key.rx_device
        );
    }
    println!(
        "\n{intermediate}/{total} links are intermediate — the paper found the *majority* of \
         2.4 GHz links in this region (Figure 3)"
    );
    let key_example = backend.link_keys(WINDOW, Band::Ghz2_4);
    if let Some(&LinkKey {
        rx_device,
        tx_device,
        ..
    }) = key_example.first()
    {
        let series = backend.link_series(
            WINDOW,
            LinkKey {
                rx_device,
                tx_device,
                band: Band::Ghz2_4,
            },
        );
        println!(
            "\nweek-long trace of link {tx_device} -> {rx_device} ({} hourly windows):",
            series.len()
        );
        const LEVELS: &[char] = &['_', '.', ':', '-', '=', '+', '*', '%', '#'];
        let spark: String = series
            .iter()
            .map(|o| LEVELS[((o.ratio * 8.0).round() as usize).min(8)])
            .collect();
        println!("{spark}");
    }
}
