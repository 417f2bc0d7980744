//! The incremental seal's compaction schedule, pinned. That mid-run
//! seals change no answer is the store model test's
//! (`tests/persistence.rs`): its `Seal` op lands anywhere in a stream.

use airstat::sim::{FleetConfig, FleetSimulation};
use airstat::store::SealStats;

/// The compaction *schedule* — when stacks fold and how many rows each
/// seal and fold writes — pinned for a fixed campaign. The constants
/// were captured on the commit before compaction became a column merge
/// (it rebuilt merged segments out of the live row tables then), so they
/// move only when a PR means to change the policy (`COMPACTION_RATIO`,
/// top-two, row counts), never when it changes how a fold is computed.
#[test]
fn compaction_schedule_is_pinned_for_two_seeds() {
    let pinned = [
        (
            1u64,
            SealStats {
                seals_total: 6,
                segments_live: 29,
                segments_compacted: 36,
                rows_resealed: 442_089,
            },
        ),
        (
            7,
            SealStats {
                seals_total: 6,
                segments_live: 28,
                segments_compacted: 38,
                rows_resealed: 442_739,
            },
        ),
    ];
    for (seed, expected) in pinned {
        let config = FleetConfig {
            seed,
            threads: 1,
            shards: 8,
            seal_every: Some(32),
            ..FleetConfig::paper(0.002)
        };
        let output = FleetSimulation::new(config).run();
        assert_eq!(
            output.store.seal().seal_stats(),
            expected,
            "seed {seed}: the compaction schedule moved"
        );
    }
}
