//! Channel planner: the paper's practical conclusion, as a tool.
//!
//! §5.1/§8: "the presence of a network on a channel does not predict
//! channel utilization ... it is better to use direct channel utilization
//! measurements" for channel planning. This example builds MR18-style scan
//! data for a handful of APs and compares two planners:
//!
//! * **count-based** — pick the 2.4 GHz channel with the fewest nearby
//!   networks (the naive pre-paper strategy);
//! * **utilization-based** — pick the channel with the lowest measured
//!   busy fraction (the paper's recommendation).
//!
//! It prints each AP's channel table and how often the two planners
//! disagree — and, when they disagree, how much airtime the
//! utilization-based choice saves.
//!
//! ```text
//! cargo run --release --example channel_planner
//! ```

use airstat::rf::band::{Band, Channel};
use airstat::sim::engine::{channel_load, diurnal, sample_census};
use airstat::sim::world::{NeighborEpoch, World};
use airstat::stats::SeedTree;

fn main() {
    let seed = SeedTree::new(0x9A7);
    let world = World::generate(&seed, 40, 0);
    let mut rng = seed.child("planner").rng();
    let epoch = NeighborEpoch::Jan2015;

    let mut disagreements = 0u32;
    let mut saved_points = 0.0f64;
    let candidates: Vec<Channel> = Channel::all_in(Band::Ghz2_4)
        .into_iter()
        .filter(|c| [1, 6, 11].contains(&c.number))
        .collect();

    println!("AP    | channel: networks heard -> measured busy | count-pick | util-pick");
    println!("------+--------------------------------------------------------------------");
    for ap in world.aps.iter().take(20) {
        let census = sample_census(&world, ap, epoch, &mut rng);
        // Average several 3-minute samples per channel, like the backend.
        let mut rows = Vec::new();
        for &ch in &candidates {
            let mut util = 0.0;
            const SAMPLES: usize = 10;
            for s in 0..SAMPLES {
                let hour = [9, 11, 14, 16, 10, 13, 15, 17, 12, 18][s % 10];
                util += channel_load(ap, &census, ch, epoch, diurnal(hour), &mut rng).utilization();
            }
            rows.push((ch, census.count_on(ch), util / SAMPLES as f64));
        }
        let by_count = rows.iter().min_by_key(|r| r.1).expect("candidates");
        let by_util = rows
            .iter()
            .min_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"))
            .expect("candidates");
        let cells: Vec<String> = rows
            .iter()
            .map(|(ch, n, u)| format!("ch{}: {:>3} nets -> {:>4.1}%", ch.number, n, u * 100.0))
            .collect();
        let agree = by_count.0 == by_util.0;
        if !agree {
            disagreements += 1;
            // How much busier the count-based pick actually is.
            let count_pick_util = rows
                .iter()
                .find(|r| r.0 == by_count.0)
                .expect("row exists")
                .2;
            saved_points += (count_pick_util - by_util.2) * 100.0;
        }
        println!(
            "{:>5} | {} | ch{:<2}       | ch{:<2} {}",
            ap.device_id,
            cells.join(" | "),
            by_count.0.number,
            by_util.0.number,
            if agree { "" } else { "  <-- disagree" }
        );
    }
    println!();
    println!(
        "planners disagreed on {disagreements}/20 APs; where they disagreed, measuring \
         utilization saved {:.1} percentage points of airtime on average",
        if disagreements > 0 {
            saved_points / f64::from(disagreements)
        } else {
            0.0
        }
    );
    println!("(the paper's §5.1 point: network counts alone do not predict utilization)");
}
