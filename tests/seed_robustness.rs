//! Seed robustness: the headline shapes must hold across random seeds,
//! not just the default one — otherwise the "reproduction" is a lucky
//! draw. Runs three small campaigns with unrelated seeds and asserts the
//! coarsest criteria from DESIGN.md on each, reading the scorecard rows
//! `tests/paper_reproduction.rs` checks (`tests/scorecard/mod.rs`).

use airstat::classify::apps::{AppCategory, Application};
use airstat::core::PaperReport;
use airstat::sim::{FleetConfig, FleetSimulation};

mod scorecard;
use scorecard::{find, scorecard, Bound};

fn run_with_seed(seed: u64) -> PaperReport {
    let config = FleetConfig {
        seed,
        ..FleetConfig::paper(0.006)
    };
    let output = FleetSimulation::new(config.clone()).run();
    PaperReport::from_simulation(&output, &config)
}

/// The scorecard rows this test reads, each with the bound it holds
/// across seeds: its own, never wider than it was as a plain assert.
const SEED_BOUNDS: &[(&str, Bound)] = &[
    // Table 3: fleet growth and platform ordering.
    ("table3.clients_yoy_pct", Bound::Near(10.0)),
    ("table3.ios_per_windows_clients", Bound::Above(2.0)),
    ("table3.windows_per_ios_per_client", Bound::Above(2.0)),
    // Table 5: YouTube in the top ranks.
    ("table5.youtube_rank", Bound::Below(9.0)),
    // Figure 2: mass on channels 1/6/11.
    ("figure2.primary_share_2_4", Bound::Above(0.75)),
    // Figure 1: band split.
    ("figure1.share_on_2_4", Bound::Near(0.10)),
    // Figure 3: intermediate 2.4 GHz links dominate.
    ("figure3.intermediate_share_2_4", Bound::Above(0.4)),
    // Figure 6: band ordering of utilization.
    ("figure6.median_2_4_per_5", Bound::Above(1.5)),
    // Figures 7/8: never a strong correlation.
    ("figure7.abs_pearson_r", Bound::Below(0.6)),
    ("figure7.abs_spearman_rho", Bound::Below(0.6)),
    // Figure 10: mostly decodable.
    ("figure10.decodable_median_2_4", Bound::Above(0.5)),
];

#[test]
fn headline_shapes_hold_across_seeds() {
    for seed in [0xA5EED_u64, 0xB5EED, 0xC5EED] {
        let r = run_with_seed(seed);
        let label = format!("seed {seed:#x}");

        let rows = scorecard(&r);
        for &(id, bound) in SEED_BOUNDS {
            if let Err(failure) = find(&rows, id).check(bound) {
                panic!("{label}: {failure}");
            }
        }

        // Table 5: misc web on top.
        assert_eq!(r.table5.rows[0].app, Application::MiscWeb, "{label}");

        // Table 6: category ordering.
        assert_eq!(r.table6.rows[0].category, AppCategory::Other, "{label}");
        assert_eq!(
            r.table6.rows[1].category,
            AppCategory::VideoMusic,
            "{label}"
        );

        // Table 7: the 2.4 GHz neighbourhood grows.
        assert!(
            r.table7.now_2_4.per_ap > r.table7.before_2_4.per_ap,
            "{label}: 2.4 GHz neighbourhood must grow"
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
