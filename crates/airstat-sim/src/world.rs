//! World topology: networks, access points, channels, neighbours, links.
//!
//! The radio-measurement panels (§4 and §5) are separate from the usage
//! panel: 10,000 MR16s and 10,000 MR18s in the US. [`World`] generates
//! their physical context:
//!
//! * each AP belongs to a network (≥ 2 APs each, per §3) laid out with
//!   realistic inter-AP spacing in an indoor environment;
//! * each AP has a **neighbour density** — how many foreign networks it
//!   can hear. Density is log-normally distributed with a long tail (the
//!   paper's §6.1 bug story features APs in Manhattan skyscrapers decoding
//!   beacons from miles away), and its mean grows between the July 2014
//!   and January 2015 epochs per Table 7;
//! * foreign networks land on channels via the Figure 2 placement
//!   distribution, and a fraction are personal hotspots (§4.1);
//! * inter-AP probe links are derived from geometry: path loss gives the
//!   RSSI, a heavy-tailed multipath penalty decouples delivery from RSSI,
//!   and the 5 GHz band's extra attenuation naturally yields far fewer —
//!   but cleaner — 5 GHz links (Figure 3's bimodality).

use airstat_rf::band::{Band, Channel, NON_OVERLAPPING_2_4};
use airstat_rf::interference::{sample_kind_2_4, Interferer, InterfererKind};
use airstat_rf::link::{sample_multipath_penalty_db, ProbeLink};
use airstat_rf::neighbors::{hotspot_probability, ChannelPlacement};
use airstat_rf::propagation::{Environment, PathLoss};
use airstat_stats::dist::{Exponential, LogNormal};
use airstat_stats::SeedTree;
use rand::Rng;

use crate::industry::{Industry, IndustryMix};

/// AP hardware model, deciding which instruments it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApModel {
    /// Two serving radios, no scanner; measures its own channels only.
    Mr16,
    /// Adds the dedicated scanning radio.
    Mr18,
}

/// Table 7's epochs for the neighbour environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeighborEpoch {
    /// July 2014 ("six months ago"): mean 28.6 networks at 2.4 GHz.
    Jul2014,
    /// January 2015: mean 55.5 networks at 2.4 GHz.
    Jan2015,
}

impl NeighborEpoch {
    /// Mean nearby networks per AP on each band (Table 7).
    pub(crate) fn mean_networks(self, band: Band) -> f64 {
        match (self, band) {
            (NeighborEpoch::Jul2014, Band::Ghz2_4) => 28.60,
            (NeighborEpoch::Jan2015, Band::Ghz2_4) => 55.47,
            (NeighborEpoch::Jul2014, Band::Ghz5) => 2.47,
            (NeighborEpoch::Jan2015, Band::Ghz5) => 3.68,
        }
    }

    /// Hotspot share of 2.4 GHz networks (§4.1: ~10% in July 2014 —
    /// 56,293 of ~230k — doubling to ~20% by January 2015).
    pub(crate) fn hotspot_fraction(self, band: Band) -> f64 {
        match (self, band) {
            (NeighborEpoch::Jul2014, Band::Ghz2_4) => 0.11,
            (NeighborEpoch::Jan2015, Band::Ghz2_4) => hotspot_probability(Band::Ghz2_4),
            (_, Band::Ghz5) => hotspot_probability(Band::Ghz5),
        }
    }
}

/// One access point in the radio panel.
#[derive(Debug, Clone, PartialEq)]
pub struct ApSite {
    /// Stable device id (also the telemetry device id).
    pub device_id: u64,
    /// Hardware model.
    pub model: ApModel,
    /// Owning network index.
    pub network: u32,
    /// Position in metres within the network's floor plan.
    pub position: (f64, f64),
    /// Serving channel at 2.4 GHz (one of 1/6/11).
    pub channel_2_4: Channel,
    /// Serving channel at 5 GHz (non-DFS).
    pub channel_5: Channel,
    /// Propagation environment of the deployment.
    pub environment: Environment,
    /// Relative neighbour density of the location (1.0 = fleet mean).
    pub density: f64,
    /// Offered client data load through this AP at peak (bits/s).
    pub data_load_bps: f64,
    /// Fraction of that load carried on the 5 GHz radio. Varies per site
    /// with the client mix: most offices are 2.4 GHz-heavy (Figure 1's
    /// 80/20 association split) but band-steered deployments push more
    /// capable clients up.
    pub share_5ghz: f64,
    /// Non-802.11 emitters audible at this AP (§5.3: Bluetooth, ZigBee,
    /// cordless phones, microwave ovens).
    pub interferers: Vec<Interferer>,
}

/// A directed probe link between two fleet APs.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldLink {
    /// Receiving AP device id.
    pub rx: u64,
    /// Transmitting AP device id.
    pub tx: u64,
    /// The RF description used by the delivery model.
    pub link: ProbeLink,
}

/// One radio-panel network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSite {
    /// Network index.
    pub id: u32,
    /// Industry vertical.
    pub industry: Industry,
    /// Device ids of member APs.
    pub aps: Vec<u64>,
}

/// The generated world.
#[derive(Debug, Clone)]
pub struct World {
    /// All radio-panel networks.
    pub networks: Vec<NetworkSite>,
    /// All radio-panel APs.
    pub aps: Vec<ApSite>,
    /// All probe links (both bands, both directions).
    pub links: Vec<WorldLink>,
    /// Channel placement model for foreign networks.
    pub placement: ChannelPlacement,
}

/// Minimum SNR (dB) for a probe link to be tracked at all.
const LINK_TRACK_SNR_DB: f64 = 5.0;

/// MR16/MR18 transmit power (dBm), Table 1.
const TX_POWER_2_4: f64 = 23.0;
const TX_POWER_5: f64 = 24.0;

impl World {
    /// Generates the radio panel: `mr16 + mr18` APs grouped into networks.
    pub fn generate(seed: &SeedTree, mr16: u32, mr18: u32) -> World {
        let mut rng = seed.child("world").rng();
        let industry_mix = IndustryMix::paper();
        let total_aps = mr16 + mr18;
        let aps_per_network = Exponential::with_mean(1.5);
        // Location density: log-normal, mean 1.0, long tail for the
        // Manhattan case (density 10+ means hundreds of beacons heard).
        let density_dist = LogNormal::new(-0.32, 0.8); // median .73, mean 1.0
                                                       // Peak offered load per AP: a few Mb/s with a heavy tail.
        let load_dist = LogNormal::from_median_p90(3.2e6, 10.5e6);

        let mut networks = Vec::new();
        let mut aps: Vec<ApSite> = Vec::new();
        let mut next_device: u64 = 1;
        while (aps.len() as u32) < total_aps {
            let id = networks.len() as u32;
            let industry = industry_mix.sample(&mut rng);
            // Networks have at least two APs (§3's panel criterion).
            let n_aps = (aps_per_network.sample(&mut rng).round() as u32 + 2)
                .min(total_aps - aps.len() as u32)
                .max(1);
            let environment = match rng.gen_range(0..10) {
                0..=5 => Environment::DenseIndoor,
                6..=8 => Environment::OpenIndoor,
                _ => Environment::OpenOutdoor,
            };
            let density = density_dist.sample(&mut rng);
            // Deployment spacing is bimodal: capacity deployments pack APs
            // 17-50 m apart (dense offices), coverage deployments stretch
            // to 55-105 m (warehouses, campuses with thin WiFi). Compact
            // sites produce the strong, clean 5 GHz inter-AP links of
            // Figure 3's right edge; sprawling sites still hear each other
            // at 2.4 GHz but their 5 GHz paths die — the source of the
            // paper's 3:1 link-count ratio between the bands.
            let spacing = if rng.gen::<f64>() < 0.5 {
                14.0 + rng.gen::<f64>() * 22.0
            } else {
                55.0 + rng.gen::<f64>() * 50.0
            };
            let mut members = Vec::with_capacity(n_aps as usize);
            for k in 0..n_aps {
                let device_id = next_device;
                next_device += 1;
                // Indoor layout: APs roughly on the site's grid, jittered.
                let gx = f64::from(k % 4);
                let gy = f64::from(k / 4);
                let position = (
                    gx * spacing + rng.gen::<f64>() * spacing / 2.0,
                    gy * spacing + rng.gen::<f64>() * spacing / 2.0,
                );
                let model = if (aps.len() as u32) < mr16 {
                    ApModel::Mr16
                } else {
                    ApModel::Mr18
                };
                let ch24_num = NON_OVERLAPPING_2_4[rng.gen_range(0..3)];
                let ch5_num = [36u16, 40, 44, 48, 149, 153, 157, 161][rng.gen_range(0..8)];
                aps.push(ApSite {
                    device_id,
                    model,
                    network: id,
                    position,
                    channel_2_4: Channel::new(Band::Ghz2_4, ch24_num).expect(
                        "invariant: the placement planner only emits valid channel numbers",
                    ),
                    channel_5: Channel::new(Band::Ghz5, ch5_num).expect(
                        "invariant: the placement planner only emits valid channel numbers",
                    ),
                    environment,
                    density,
                    data_load_bps: load_dist.sample(&mut rng),
                    share_5ghz: 0.1 + 0.6 * rng.gen::<f64>(),
                    interferers: sample_interferers(density, &mut rng),
                });
                members.push(device_id);
            }
            networks.push(NetworkSite {
                id,
                industry,
                aps: members,
            });
        }

        let links = build_links(&networks, &aps, seed);
        World {
            networks,
            aps,
            links,
            placement: ChannelPlacement::paper_like(),
        }
    }

    /// Links received by `device_id` on `band`.
    pub fn links_into(&self, device_id: u64, band: Band) -> impl Iterator<Item = &WorldLink> {
        self.links
            .iter()
            .filter(move |l| l.rx == device_id && l.link.band == band)
    }
}

/// Samples the non-WiFi emitters audible at one AP.
///
/// Denser locations hear more devices; kinds follow §5.3's 2.4 GHz mix
/// (Bluetooth-dominated) with realistic per-kind activity: ZigBee sensors
/// never sleep, a microwave runs minutes per day, phone calls and
/// headsets come and go.
fn sample_interferers<R: Rng + ?Sized>(density: f64, rng: &mut R) -> Vec<Interferer> {
    let count = Exponential::with_mean((density * 2.5).max(0.3))
        .sample(rng)
        .round() as usize;
    (0..count)
        .map(|_| {
            let kind = sample_kind_2_4(rng);
            let activity_fraction = match kind {
                InterfererKind::Zigbee => 1.0,
                InterfererKind::MicrowaveOven => 0.01 + rng.gen::<f64>() * 0.04,
                InterfererKind::CordlessPhone => 0.05 + rng.gen::<f64>() * 0.25,
                InterfererKind::Bluetooth => 0.2 + rng.gen::<f64>() * 0.8,
                InterfererKind::OutdoorLink => 0.2,
            };
            Interferer {
                kind,
                rx_power_dbm: -75.0 + rng.gen::<f64>() * 30.0,
                center_mhz: 2402.0 + rng.gen::<f64>() * 78.0,
                activity_fraction,
            }
        })
        .collect()
}

/// Builds directed probe links between co-network APs.
fn build_links(networks: &[NetworkSite], aps: &[ApSite], seed: &SeedTree) -> Vec<WorldLink> {
    let mut links = Vec::new();
    for network in networks {
        for (i, &rx_id) in network.aps.iter().enumerate() {
            for &tx_id in network.aps.iter().skip(i + 1) {
                let rx = &aps[(rx_id - 1) as usize];
                let tx = &aps[(tx_id - 1) as usize];
                let dx = rx.position.0 - tx.position.0;
                let dy = rx.position.1 - tx.position.1;
                let d = (dx * dx + dy * dy).sqrt().max(1.0);
                let pl = PathLoss::new(rx.environment);
                // One pair-seed so both directions share shadowing (the
                // path is reciprocal) but penalties differ per receiver.
                let pair_seed = seed
                    .child("link")
                    .indexed(rx_id.min(tx_id))
                    .indexed(rx_id.max(tx_id));
                let mut pair_rng = pair_seed.rng();
                for band in [Band::Ghz2_4, Band::Ghz5] {
                    let tx_power = match band {
                        Band::Ghz2_4 => TX_POWER_2_4,
                        Band::Ghz5 => TX_POWER_5,
                    };
                    let shadowing = pl.sample_shadowing_db(&mut pair_rng);
                    for (a, b) in [(rx_id, tx_id), (tx_id, rx_id)] {
                        let rssi = pl.rssi_dbm(band, tx_power, d, shadowing);
                        let penalty = sample_multipath_penalty_db(band, &mut pair_rng);
                        let link = ProbeLink {
                            band,
                            rssi_dbm: rssi,
                            multipath_penalty_db: penalty,
                        };
                        if link.snr_db() > LINK_TRACK_SNR_DB {
                            links.push(WorldLink { rx: a, tx: b, link });
                        }
                    }
                }
            }
        }
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(&SeedTree::new(0xA11CE), 100, 100)
    }

    /// Number of links on a band.
    fn link_count(w: &World, band: Band) -> usize {
        w.links.iter().filter(|l| l.link.band == band).count()
    }

    #[test]
    fn generates_requested_ap_counts() {
        let w = world();
        assert_eq!(w.aps.len(), 200);
        let mr16 = w.aps.iter().filter(|a| a.model == ApModel::Mr16).count();
        assert_eq!(mr16, 100);
        // Device ids are dense from 1.
        for (i, ap) in w.aps.iter().enumerate() {
            assert_eq!(ap.device_id, i as u64 + 1);
        }
    }

    #[test]
    fn networks_have_at_least_two_aps_mostly() {
        let w = world();
        // The final network may be truncated by the AP budget; every other
        // network has >= 2 APs.
        for n in &w.networks[..w.networks.len() - 1] {
            assert!(n.aps.len() >= 2, "network {} has {} APs", n.id, n.aps.len());
        }
    }

    #[test]
    fn serving_channels_are_sane() {
        let w = world();
        for ap in &w.aps {
            assert!(NON_OVERLAPPING_2_4.contains(&ap.channel_2_4.number));
            assert!(!ap.channel_5.requires_dfs(), "fleet avoids DFS by default");
            assert!(ap.data_load_bps > 0.0);
            assert!(ap.density > 0.0);
        }
    }

    #[test]
    fn more_2_4_links_than_5() {
        let w = world();
        let l24 = link_count(&w, Band::Ghz2_4);
        let l5 = link_count(&w, Band::Ghz5);
        assert!(l24 > 0 && l5 > 0);
        // Paper: 16,583 vs 5,650 — a factor ~3 at the same AP count.
        assert!(
            l24 as f64 / l5 as f64 > 1.5,
            "2.4 GHz must have many more tracked links: {l24} vs {l5}"
        );
    }

    #[test]
    fn link_ratio_roughly_matches_paper_scale() {
        // Paper: ~1.66 2.4 GHz links per AP over 10k APs.
        let w = world();
        let per_ap = link_count(&w, Band::Ghz2_4) as f64 / w.aps.len() as f64;
        assert!(per_ap > 0.5 && per_ap < 6.0, "links per AP {per_ap}");
    }

    #[test]
    fn links_are_within_same_network() {
        let w = world();
        for l in &w.links {
            // Device ids are dense from 1.
            let rx = &w.aps[l.rx as usize - 1];
            let tx = &w.aps[l.tx as usize - 1];
            assert_eq!(rx.network, tx.network);
            assert_ne!(l.rx, l.tx);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(&SeedTree::new(7), 50, 50);
        let b = World::generate(&SeedTree::new(7), 50, 50);
        assert_eq!(a.aps, b.aps);
        assert_eq!(a.links, b.links);
        let c = World::generate(&SeedTree::new(8), 50, 50);
        assert_ne!(a.aps, c.aps);
    }

    #[test]
    fn density_distribution_has_mean_one_and_tail() {
        let w = World::generate(&SeedTree::new(3), 2000, 0);
        let densities: Vec<f64> = w.aps.iter().map(|a| a.density).collect();
        let mean = densities.iter().sum::<f64>() / densities.len() as f64;
        assert!((mean - 1.0).abs() < 0.2, "mean density {mean}");
        let max = densities.iter().cloned().fold(0.0, f64::max);
        assert!(max > 5.0, "need skyscraper-grade outliers, max {max}");
    }

    #[test]
    fn epoch_means_match_table7() {
        assert_eq!(NeighborEpoch::Jan2015.mean_networks(Band::Ghz2_4), 55.47);
        assert_eq!(NeighborEpoch::Jul2014.mean_networks(Band::Ghz2_4), 28.60);
        assert_eq!(NeighborEpoch::Jan2015.mean_networks(Band::Ghz5), 3.68);
        assert_eq!(NeighborEpoch::Jul2014.mean_networks(Band::Ghz5), 2.47);
        assert!(
            NeighborEpoch::Jan2015.hotspot_fraction(Band::Ghz2_4)
                > NeighborEpoch::Jul2014.hotspot_fraction(Band::Ghz2_4)
        );
    }
}
