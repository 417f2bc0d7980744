//! Spectrum survey: render Figure 11's USRP waterfalls as ASCII art.
//!
//! Reproduces the paper's two scans — 32 MHz around 2.437 GHz and around
//! 5.220 GHz with a 4096-point FFT — and prints a time-frequency
//! waterfall: WiFi bursts appear as wide bright bars, Bluetooth as
//! wandering 1 MHz dots, the 5 GHz scan shows frequency-selective fading
//! ripple across the 802.11 signal.
//!
//! ```text
//! cargo run --release --example spectrum_survey
//! cargo run --release --example spectrum_survey -- 42   # different seed
//! ```

use airstat::core::figures::spectrum_scan::OCCUPANCY_THRESHOLD_DBM;
use airstat::core::figures::SpectrumFigure;
use airstat::rf::spectrum::SpectrumScan;
use airstat::stats::SeedTree;

fn main() {
    let seed_value: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(0xF11);
    let seed = SeedTree::new(seed_value);
    // Figure 11's two scans at 240 frames, shaded 24 rows × 76 columns:
    // only the occupancy and the shades are kept, not the power matrix.
    let summarize = |name: &str, scan: SpectrumScan| {
        let mut rng = seed.child(name).rng();
        scan.summarize(240, &mut rng, OCCUPANCY_THRESHOLD_DBM, 24, 76)
    };
    let scan_2_4 = summarize("usrp-2.4", SpectrumScan::paper_2_4ghz());
    let scan_5 = summarize("usrp-5", SpectrumScan::paper_5ghz());

    println!("== 2.437 GHz, 32 MHz span, 4096-point FFT ==");
    println!(
        "occupancy above threshold: {:.1}% (paper observed ~22% at this site)",
        scan_2_4.occupancy() * 100.0
    );
    println!("{}", SpectrumFigure::render(&scan_2_4));

    println!("== 5.220 GHz, 32 MHz span, 4096-point FFT ==");
    println!(
        "occupancy above threshold: {:.1}% (paper observed ~2%)",
        scan_5.occupancy() * 100.0
    );
    println!("{}", SpectrumFigure::render(&scan_5));

    // Per-signal burst statistics, like pointing a cursor at the analyzer.
    let scan = SpectrumScan::paper_2_4ghz();
    let mut rng = seed.child("burst-stats").rng();
    let wf = scan.capture(500, &mut rng);
    println!("burst occupancy by sub-band (2.4 GHz scan, 500 frames):");
    for (label, lo, hi) in [
        ("channel 6 core (2432-2442 MHz)", 2432.0, 2442.0),
        ("channel 4 edge  (2422-2432 MHz)", 2422.0, 2432.0),
        ("upper guard     (2448-2452 MHz)", 2448.0, 2452.0),
    ] {
        println!(
            "  {label}: {:>5.1}% of frames active",
            wf.band_occupancy(lo, hi, -85.0) * 100.0
        );
    }
}
