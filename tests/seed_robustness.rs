//! Seed robustness: the headline shapes must hold across random seeds,
//! not just the default one — otherwise the "reproduction" is a lucky
//! draw. Runs three small campaigns with unrelated seeds and asserts the
//! coarsest criteria from DESIGN.md on each.

use airstat::classify::apps::{AppCategory, Application};
use airstat::classify::device::OsFamily;
use airstat::core::PaperReport;
use airstat::rf::band::Band;
use airstat::sim::{FleetConfig, FleetSimulation};

fn run_with_seed(seed: u64) -> PaperReport {
    let config = FleetConfig {
        seed,
        ..FleetConfig::paper(0.006)
    };
    let output = FleetSimulation::new(config.clone()).run();
    PaperReport::from_simulation(&output, &config)
}

#[test]
fn headline_shapes_hold_across_seeds() {
    for seed in [0xA5EED_u64, 0xB5EED, 0xC5EED] {
        let r = run_with_seed(seed);
        let label = format!("seed {seed:#x}");

        // Table 3: fleet growth and platform ordering.
        let growth = r.table3.all.clients_increase.expect("growth defined");
        assert!(
            (growth - 37.0).abs() < 10.0,
            "{label}: client growth {growth}%"
        );
        let ios = r.table3.row(OsFamily::AppleIos).expect("iOS present");
        let win = r.table3.row(OsFamily::Windows).expect("Windows present");
        assert!(
            ios.clients > 2 * win.clients,
            "{label}: iOS must far outnumber Windows"
        );
        assert!(
            win.bytes_per_client() > 2.0 * ios.bytes_per_client(),
            "{label}: desktops use several times more per client"
        );

        // Table 5: misc web on top, streaming heavy.
        assert_eq!(r.table5.rows[0].app, Application::MiscWeb, "{label}");
        assert!(
            r.table5
                .rows
                .iter()
                .position(|row| row.app == Application::Youtube)
                .is_some_and(|i| i < 8),
            "{label}: YouTube in the top ranks"
        );

        // Table 6: category ordering.
        assert_eq!(r.table6.rows[0].category, AppCategory::Other, "{label}");
        assert_eq!(
            r.table6.rows[1].category,
            AppCategory::VideoMusic,
            "{label}"
        );

        // Table 7 / Figure 2: neighbour growth and channel placement.
        assert!(
            r.table7.now_2_4.per_ap > r.table7.before_2_4.per_ap,
            "{label}: 2.4 GHz neighbourhood must grow"
        );
        assert!(
            r.figure2.primary_fraction_2_4() > 0.75,
            "{label}: mass on channels 1/6/11"
        );

        // Figure 1: band split.
        let frac = r.figure1.fraction_on_2_4();
        assert!(
            (frac - 0.80).abs() < 0.10,
            "{label}: 2.4 GHz fraction {frac}"
        );

        // Figure 3: intermediate 2.4 GHz links dominate.
        let inter = airstat::core::figures::DeliveryFigure::intermediate_fraction(
            &r.figure3.now_2_4,
            0.05,
            0.95,
        );
        assert!(inter > 0.4, "{label}: intermediate fraction {inter}");

        // Figure 6: band ordering of utilization.
        let (median24, _) = r.figure6.summary(Band::Ghz2_4).expect("2.4 GHz data");
        let (median5, _) = r.figure6.summary(Band::Ghz5).expect("5 GHz data");
        assert!(
            median24 > 1.5 * median5,
            "{label}: 2.4 GHz ({median24}) must be busier than 5 GHz ({median5})"
        );

        // Figures 7/8: never a strong correlation.
        assert!(
            r.figure7.no_clear_correlation(0.6),
            "{label}: 2.4 GHz r={:?}",
            r.figure7.pearson_r
        );

        // Figure 10: mostly decodable.
        assert_eq!(
            r.figure10.majority_decodable(Band::Ghz2_4),
            Some(true),
            "{label}"
        );
    }
}

#[test]
fn same_seed_same_report() {
    let a = run_with_seed(0xD5EED);
    let b = run_with_seed(0xD5EED);
    assert_eq!(a.to_string(), b.to_string(), "byte-identical reproduction");
}

/// The engine's parallel fan-out must be invisible in the output: a
/// multi-threaded run renders the exact same report, byte for byte, as
/// the strictly serial path — across different seeds.
#[test]
fn thread_count_never_changes_output() {
    for seed in [0xE5EED_u64, 0x0BEE5] {
        let render = |threads: usize| {
            let config = FleetConfig {
                seed,
                threads,
                ..FleetConfig::paper(0.004)
            };
            let output = FleetSimulation::new(config.clone()).run();
            assert_eq!(output.run.threads, threads.max(1));
            PaperReport::from_simulation(&output, &config).to_string()
        };
        let serial = render(1);
        let parallel = render(4);
        assert_eq!(
            serial, parallel,
            "seed {seed:#x}: threads=4 must be byte-identical to threads=1"
        );
    }
}
