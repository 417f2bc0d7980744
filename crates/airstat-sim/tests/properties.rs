//! Property-based tests for the fleet simulator.

use airstat_classify::apps::RuleSet;
use airstat_rf::band::Band;
use airstat_sim::config::MeasurementYear;
use airstat_sim::engine::{diurnal, sample_census, serving_load};
use airstat_sim::population::PopulationModel;
use airstat_sim::traffic::{expected_weight_sum, generate_weekly, metadata_for};
use airstat_sim::world::{NeighborEpoch, World};
use airstat_stats::SeedTree;
use proptest::prelude::*;

fn any_year() -> impl Strategy<Value = MeasurementYear> {
    prop_oneof![Just(MeasurementYear::Y2014), Just(MeasurementYear::Y2015)]
}

fn any_epoch() -> impl Strategy<Value = NeighborEpoch> {
    prop_oneof![Just(NeighborEpoch::Jul2014), Just(NeighborEpoch::Jan2015)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn client_generation_is_pure(seed in any::<u64>(), id in 0u64..1_000_000, year in any_year()) {
        let model = PopulationModel::new(year);
        let a = model.sample_client(id, &mut SeedTree::new(seed).rng());
        let b = model.sample_client(id, &mut SeedTree::new(seed).rng());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn traffic_is_nonnegative_and_classifiable(seed in any::<u64>(), year in any_year()) {
        let model = PopulationModel::new(year);
        let mut rng = SeedTree::new(seed).rng();
        let ruleset = RuleSet::standard_2015();
        let client = model.sample_client(0, &mut rng);
        let week = generate_weekly(&client, year, &mut rng);
        for flow in &week.flows {
            // Every generated flow classifies to *something* without panicking.
            let _ = ruleset.classify(&flow.metadata);
            prop_assert!(flow.up_bytes + flow.down_bytes > 0);
        }
    }

    #[test]
    fn expected_weight_sums_are_positive(year in any_year()) {
        use airstat_classify::device::OsFamily;
        for &os in &OsFamily::ALL {
            let w = expected_weight_sum(os, year);
            prop_assert!(w > 0.0 && w.is_finite(), "{os:?}: {w}");
        }
    }

    #[test]
    fn metadata_generation_never_panics(seed in any::<u64>()) {
        use airstat_classify::apps::Application;
        let mut rng = SeedTree::new(seed).rng();
        for &app in Application::ALL {
            let m = metadata_for(app, &mut rng);
            prop_assert!(m.dst_port > 0 || m.best_host().is_some() || m.bittorrent_handshake);
        }
    }

    #[test]
    fn world_generation_invariants(seed in any::<u64>(), mr16 in 1u32..60, mr18 in 0u32..60) {
        let world = World::generate(&SeedTree::new(seed), mr16, mr18);
        prop_assert_eq!(world.aps.len() as u32, mr16 + mr18);
        for (i, ap) in world.aps.iter().enumerate() {
            prop_assert_eq!(ap.device_id, i as u64 + 1);
            prop_assert!(ap.density > 0.0);
            prop_assert!(ap.data_load_bps > 0.0);
            prop_assert!((0.0..=1.0).contains(&ap.share_5ghz));
            prop_assert!((ap.network as usize) < world.networks.len());
        }
        for link in &world.links {
            prop_assert_ne!(link.rx, link.tx);
            // Device ids are dense from 1 (checked above).
            let rx = &world.aps[link.rx as usize - 1];
            let tx = &world.aps[link.tx as usize - 1];
            prop_assert_eq!(rx.network, tx.network, "links stay in-network");
            prop_assert!(link.link.snr_db() > 0.0, "tracked links have positive SNR");
            prop_assert!(link.link.multipath_penalty_db >= 0.0);
        }
    }

    #[test]
    fn census_counts_and_loads_bounded(seed in any::<u64>(), epoch in any_epoch()) {
        let world = World::generate(&SeedTree::new(seed), 10, 0);
        let mut rng = SeedTree::new(seed).child("census").rng();
        for ap in &world.aps {
            let census = sample_census(&world, ap, epoch, &mut rng);
            for record in &census.records {
                prop_assert!(record.hotspots <= record.networks);
            }
            for band in [Band::Ghz2_4, Band::Ghz5] {
                for hour in [0u64, 10, 22] {
                    let load = serving_load(ap, &census, band, epoch, diurnal(hour), &mut rng);
                    let u = load.utilization();
                    let d = load.decodable_fraction();
                    prop_assert!((0.0..=1.0).contains(&u));
                    prop_assert!((0.0..=1.0).contains(&d));
                }
            }
        }
    }

    #[test]
    fn diurnal_in_unit_range(hour in 0u64..48) {
        let v = diurnal(hour % 24);
        prop_assert!(v > 0.0 && v <= 1.0);
    }
}
