//! USRP-style spectrum synthesis: Figure 11's waterfalls.
//!
//! The paper inspected the air near one AP with a USRP B200 doing 32 MHz
//! wide scans with a 4096-point FFT, centered at 2.437 GHz and 5.220 GHz.
//! The 2.4 GHz scan shows 20 MHz 802.11 packets, 1 MHz frequency-hopping
//! Bluetooth and unidentified narrowband sources; the 5 GHz scan shows
//! 20/40 MHz 802.11 packets and fainter transmissions with frequency-
//! selective fading.
//!
//! [`SpectrumScan`] synthesizes the same kind of time × frequency power
//! matrix. Each frame is one FFT snapshot; emitters switch on and off per
//! frame according to their duty cycles, and each 802.11 source carries a
//! static multipath ripple across its occupied bins so wideband frames
//! show the frequency-selective fading structure of [Halperin et al.].
//!
//! # One synthesis, two finishers
//!
//! One frame loop draws the RNG in a fixed order (see
//! [`SpectrumScan::capture`]) and lays the emitters into each frame's
//! linear power. Every cell then draws one accepted Marsaglia polar pair
//! for its measurement noise ([`polar_pairs`] draws a frame's in one
//! batch, as a `u` column and an `s` column). Two finishers turn those
//! pairs into output:
//!
//! - [`SpectrumScan::capture`] finishes every cell into a full
//!   [`Waterfall`].
//! - [`SpectrumScan::summarize`] keeps only what Figure 11 prints: how many
//!   cells sit above a threshold, and a `rows × cols` grid of
//!   `shade_index`es. It finishes a cell only when a bound cannot decide
//!   the cell's output, and it consumes the RNG exactly as `capture` does,
//!   so both read the same cells.
//!
//! **Why the bound is exact.** The polar method returns
//! `z = u·sqrt(−2 ln s / s)` with `u² ≤ s < 1`, so `|z| ≤ sqrt(−2 ln s)`.
//! A cell reads `dB(mw) + σz` with σ = 2 dB. Let Δ be the distance from the
//! cell's `dB(mw)` to a decision boundary. If `s > exp(−((Δ − m)/σ)² / 2)`,
//! then `σ|z| < Δ − m`, so the cell lands on the same side of that
//! boundary as `dB(mw)` and needs no `ln`, `sqrt` or `log10`. The margin
//! `m` is 10⁻⁶ dB, eight orders of magnitude above the rounding error of
//! the few operations involved. The boundaries are the threshold, in every
//! frame, and the shade edges, in the rendered frames only. The bound is
//! used two ways:
//!
//! - **Floor runs.** The frame loop hands the finisher the `[start, end)`
//!   band of each emitter that is on. A bin outside every band holds the
//!   floor's exact linear power, so its Δ is the floor's and its cut is
//!   one number per frame kind. The nearest shade edge is shade 1's
//!   (floor + 5 dB), and the floor's own shade is 0, so that edge's cut
//!   covers every other. One branch-free count of the run's `s` at or
//!   below the cut decides a whole run between bands; only the counted
//!   cells are finished.
//! - **Key intervals.** A cell inside a band is looked up by the exponent
//!   and top mantissa bits of its linear power. Every power with that key
//!   lies in one interval `[mw_lo, mw_hi)`, whose `dB` values lie in
//!   `[dB(mw_lo) − m, dB(mw_hi) + m]`, the margin covering the rounding of
//!   `log10`. The distance from that dB interval to the nearest boundary is
//!   a Δ for every cell of the key, so the key's cut decides all of them
//!   at once, on the interval's side of each boundary and, since no shade
//!   edge lies within Δ, in the interval's shade. An interval that holds a
//!   boundary has Δ = 0 and cut 1.0, which no `s` exceeds; those cells,
//!   and any whose power lies outside the table, are finished exactly.
//!
//! A column's shade is `shade_index` of its peak cell, and `shade_index`
//! is monotone, so it equals the largest shade among the column's
//! decided and finished cells, or 0 if there were none.

use std::ops::Range;

use airstat_stats::dist::{polar_finish, polar_pairs, Normal};
use rand::Rng;

use crate::propagation::{dbm_to_mw, mw_to_dbm};

/// Thermal + receiver noise density per FFT bin (dBm). A 32 MHz span over
/// 4096 bins is ~7.8 kHz/bin: −174 dBm/Hz + 39 dB + 7 dB NF ≈ −128 dBm,
/// but display floors in practice sit near −110 dBm with window leakage.
pub const BIN_NOISE_FLOOR_DBM: f64 = -110.0;

/// Standard deviation of the per-cell measurement noise (dB).
const NOISE_SD_DB: f64 = 2.0;

/// How many shades a waterfall cell quantizes to (index 0 is the floor).
pub const SHADE_LEVELS: usize = 6;

/// The dB range above [`BIN_NOISE_FLOOR_DBM`] that the shades span.
const SHADE_RANGE_DB: f64 = 50.0;

/// Where shade 1 begins: half a shade step above the floor, since
/// [`shade_index`] rounds to the nearest step.
const SHADE_1_EDGE_DBM: f64 =
    BIN_NOISE_FLOOR_DBM + SHADE_RANGE_DB / (2 * (SHADE_LEVELS - 1)) as f64;

/// How far inside a decision boundary the noise bound must keep a cell
/// before [`SpectrumScan::summarize`] leaves it unfinished (dB).
const CUT_MARGIN_DB: f64 = 1e-6;

/// An emitter visible in the scanned span.
#[derive(Debug, Clone, PartialEq)]
pub enum Emitter {
    /// An 802.11 OFDM transmitter: fixed center, 20/40 MHz wide bursts.
    Wifi {
        /// Center frequency (MHz).
        center_mhz: f64,
        /// Occupied bandwidth (MHz), typically 20 or 40.
        bandwidth_mhz: f64,
        /// Peak in-band power per bin (dBm).
        power_dbm: f64,
        /// Probability a given frame contains a burst from this source.
        duty: f64,
        /// Multipath ripple depth (dB peak-to-peak) across the band —
        /// frequency-selective fading visible on wideband signals.
        ripple_db: f64,
        /// Ripple period across frequency (MHz).
        ripple_period_mhz: f64,
    },
    /// A frequency hopper (Bluetooth): narrow transmissions that move
    /// every frame within a hop span.
    Hopper {
        /// Lowest hop frequency (MHz).
        lo_mhz: f64,
        /// Highest hop frequency (MHz).
        hi_mhz: f64,
        /// Occupied bandwidth per transmission (MHz), 1 for Bluetooth.
        bandwidth_mhz: f64,
        /// Power per bin when transmitting (dBm).
        power_dbm: f64,
        /// Probability of transmitting in a given frame.
        duty: f64,
    },
    /// A static narrowband source (cordless phone, video sender, spur).
    Narrowband {
        /// Center frequency (MHz).
        center_mhz: f64,
        /// Bandwidth (MHz).
        bandwidth_mhz: f64,
        /// Power per bin (dBm).
        power_dbm: f64,
        /// Probability of being on in a given frame.
        duty: f64,
    },
}

/// What [`SpectrumScan::summarize`] keeps of a scan: Figure 11's
/// occupancy and its shaded waterfall, without the power matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanSummary {
    /// Center of the span (MHz).
    pub center_mhz: f64,
    /// Span width (MHz).
    pub span_mhz: f64,
    /// Cells (frame, bin) above the threshold, over every frame.
    hot: usize,
    /// Cells in all: frames × bins.
    cells: usize,
    /// Shade rows kept: `rows.min(frames)`, or 0 when the scan has no cell.
    rows: usize,
    /// Columns per shade row.
    cols: usize,
    /// [`shade_index`] of each (row, column) peak, row-major, `rows × cols`.
    shades: Vec<u8>,
    /// The emitter cells seen, and how many were finished exactly.
    counts: CellCounts,
}

impl ScanSummary {
    /// Fraction of cells above the threshold; 0 for an empty scan.
    pub fn occupancy(&self) -> f64 {
        if self.cells == 0 {
            return 0.0;
        }
        self.hot as f64 / self.cells as f64
    }

    /// True when the scan had no cell (no frame or no bin).
    pub fn is_empty(&self) -> bool {
        self.cells == 0
    }

    /// Columns per shade row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The shade indices of each kept row, one per column. Row `r` of `n`
    /// is frame `r · frames / n`; column `c` of `cols` shades the peak of
    /// bins `[c · bins / cols, max((c + 1) · bins / cols, lo + 1))`.
    pub fn shade_rows(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.rows).map(move |r| &self.shades[r * self.cols..(r + 1) * self.cols])
    }
}

/// The shade (0 ..= [`SHADE_LEVELS`] − 1) a waterfall renders for a peak
/// power: the 50 dB above [`BIN_NOISE_FLOOR_DBM`] split into equal steps,
/// rounded to the nearest. Monotone in `peak_dbm`.
pub(crate) fn shade_index(peak_dbm: f64) -> u8 {
    let rel = (peak_dbm - BIN_NOISE_FLOOR_DBM) / SHADE_RANGE_DB;
    ((rel * (SHADE_LEVELS - 1) as f64).round() as usize).min(SHADE_LEVELS - 1) as u8
}

/// The polar `s` above which a floor cell's noise stays at least
/// [`CUT_MARGIN_DB`] short of a boundary `delta_db` away: σ·sqrt(−2 ln s)
/// < Δ − m ⇔ s > exp(−((Δ − m)/σ)² / 2). A boundary within the margin (or
/// NaN) gives 1.0, which no accepted `s` exceeds, so every cell is finished.
fn polar_cut(delta_db: f64) -> f64 {
    let d = (delta_db - CUT_MARGIN_DB) / NOISE_SD_DB;
    if d > 0.0 {
        (-d * d / 2.0).exp()
    } else {
        1.0
    }
}

/// The floor's linear power and the dB value a cell no emitter reached
/// starts from (the floor's exact bits, round-tripped once).
fn floor_levels() -> (f64, f64) {
    let floor_mw = dbm_to_mw(BIN_NOISE_FLOOR_DBM);
    (floor_mw, mw_to_dbm(floor_mw))
}

/// A cell's power before noise (dBm). A bin no emitter reached still holds
/// the floor's exact bits, so it takes the floor's dB value.
fn cell_dbm(mw: f64, floor_mw: f64, floor_dbm: f64) -> f64 {
    if mw.to_bits() == floor_mw.to_bits() {
        floor_dbm
    } else {
        mw_to_dbm(mw)
    }
}

/// Configuration of one synthetic scan.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumScan {
    /// Center of the span (MHz) — 2437.0 and 5220.0 in the paper.
    pub center_mhz: f64,
    /// Span width (MHz) — 32 in the paper.
    pub span_mhz: f64,
    /// FFT size — 4096 in the paper.
    pub fft_bins: usize,
    /// Emitters present near the observer.
    pub emitters: Vec<Emitter>,
}

/// The output: `frames × bins` power matrix in dBm.
#[derive(Debug, Clone, PartialEq)]
pub struct Waterfall {
    /// Center of the span (MHz).
    pub center_mhz: f64,
    /// Span width (MHz).
    pub span_mhz: f64,
    /// Power per frame per bin (dBm).
    pub frames: Vec<Vec<f64>>,
}

impl SpectrumScan {
    /// The paper's 2.4 GHz scan: 22% utilization with 20 MHz 802.11 on
    /// channel 6, Bluetooth hopping across the whole span, and an
    /// unidentified narrowband source.
    pub fn paper_2_4ghz() -> Self {
        SpectrumScan {
            center_mhz: 2437.0,
            span_mhz: 32.0,
            fft_bins: 4096,
            emitters: vec![
                Emitter::Wifi {
                    center_mhz: 2437.0,
                    bandwidth_mhz: 20.0,
                    power_dbm: -55.0,
                    duty: 0.20,
                    ripple_db: 8.0,
                    ripple_period_mhz: 4.0,
                },
                Emitter::Wifi {
                    center_mhz: 2427.0, // overlapping channel 4 neighbour
                    bandwidth_mhz: 20.0,
                    power_dbm: -72.0,
                    duty: 0.05,
                    ripple_db: 6.0,
                    ripple_period_mhz: 5.0,
                },
                Emitter::Hopper {
                    lo_mhz: 2422.0,
                    hi_mhz: 2452.0,
                    bandwidth_mhz: 1.0,
                    power_dbm: -60.0,
                    duty: 0.4,
                },
                Emitter::Narrowband {
                    center_mhz: 2445.5,
                    bandwidth_mhz: 0.8,
                    power_dbm: -67.0,
                    duty: 0.25,
                },
            ],
        }
    }

    /// The paper's 5 GHz scan: 2% utilization, 20 and 40 MHz 802.11 with
    /// visible frequency-selective fading, no non-WiFi sources.
    pub fn paper_5ghz() -> Self {
        SpectrumScan {
            center_mhz: 5220.0,
            span_mhz: 32.0,
            fft_bins: 4096,
            emitters: vec![
                Emitter::Wifi {
                    center_mhz: 5220.0,
                    bandwidth_mhz: 20.0,
                    power_dbm: -58.0,
                    duty: 0.02,
                    ripple_db: 10.0,
                    ripple_period_mhz: 3.0,
                },
                Emitter::Wifi {
                    center_mhz: 5230.0,
                    bandwidth_mhz: 40.0,
                    power_dbm: -70.0,
                    duty: 0.015,
                    ripple_db: 12.0,
                    ripple_period_mhz: 2.5,
                },
            ],
        }
    }

    /// Frequency (MHz) of bin `i`.
    pub(crate) fn bin_freq_mhz(&self, i: usize) -> f64 {
        let lo = self.center_mhz - self.span_mhz / 2.0;
        lo + self.span_mhz * (i as f64 + 0.5) / self.fft_bins as f64
    }

    /// Synthesizes `frames` FFT snapshots.
    ///
    /// The RNG is drawn in a fixed order: every emitter's ripple phase,
    /// then per frame each emitter's hop (hoppers only) and duty roll,
    /// then one noise sample per bin.
    pub fn capture<R: Rng + ?Sized>(&self, frames: usize, rng: &mut R) -> Waterfall {
        let noise = Normal::new(0.0, NOISE_SD_DB);
        let (floor_mw, floor_dbm) = floor_levels();
        let mut out = Vec::with_capacity(frames);
        self.synthesize(frames, rng, |f| {
            // Per-bin measurement noise on top, in dB: `noise.sample`,
            // from pairs drawn in the same order.
            out.push(
                f.mw.iter()
                    .zip(f.u.iter().zip(f.s))
                    .map(|(&mw, (&u, &s))| {
                        cell_dbm(mw, floor_mw, floor_dbm)
                            + (noise.mean + noise.std_dev * polar_finish(u, s))
                    })
                    .collect(),
            );
        });
        Waterfall {
            center_mhz: self.center_mhz,
            span_mhz: self.span_mhz,
            frames: out,
        }
    }

    /// What `capture(frames, rng)` followed by Figure 11's two readings
    /// gives, without the matrix: the cells above `threshold_dbm`, and the
    /// `shade_index` of each column peak in `rows.min(frames)` evenly
    /// spaced frames of `cols` columns (see [`ScanSummary::shade_rows`]).
    ///
    /// Draws the RNG exactly as [`capture`](Self::capture) does, and
    /// finishes a cell's noise only where the module's bounds cannot
    /// decide its output.
    pub fn summarize<R: Rng + ?Sized>(
        &self,
        frames: usize,
        rng: &mut R,
        threshold_dbm: f64,
        rows: usize,
        cols: usize,
    ) -> ScanSummary {
        let (_, floor_dbm) = floor_levels();
        let bins = self.fft_bins;
        let rows = if bins == 0 { 0 } else { rows.min(frames) };
        // An unfinished floor cell stays on the floor's side of both
        // boundaries: hot only if the floor is, and shade 0.
        let floor_hot = usize::from(floor_dbm > threshold_dbm);
        let hot_cut = polar_cut((threshold_dbm - floor_dbm).abs());
        let shade_cut = polar_cut(SHADE_1_EDGE_DBM - floor_dbm).max(hot_cut);
        let table = CutTable::new(threshold_dbm);
        let columns: Vec<(usize, usize)> = (0..cols)
            .map(|c| {
                let lo = c * bins / cols;
                (lo, ((c + 1) * bins / cols).max(lo + 1))
            })
            .collect();
        let mut cells = Finisher {
            noise: Normal::new(0.0, NOISE_SD_DB),
            threshold_dbm,
            hot: 0,
            bin_shades: vec![0u8; bins],
            counts: CellCounts::default(),
        };
        let mut shades = vec![0u8; rows * cols];
        let mut bands = Vec::with_capacity(self.emitters.len() + 1);
        let mut row = 0;
        self.synthesize(frames, rng, |f| {
            let rendered = row < rows && f.index == row * frames / rows;
            let cut = if rendered {
                cells.bin_shades.fill(0);
                shade_cut
            } else {
                hot_cut
            };
            // The bands in bin order, then an empty one at the end, so the
            // floor run after the last band is walked like the others.
            bands.clear();
            bands.extend_from_slice(f.bands);
            bands.sort_unstable_by_key(|b| b.start);
            bands.push(bins..bins);
            let mut next = 0;
            for band in &bands {
                // Bins `next..band.start` are in no band, so each holds the
                // floor: a count decides the whole run at once unless some
                // `s` is at or below the floor's cut.
                if band.start > next {
                    let run = &f.s[next..band.start];
                    let near: usize = run.iter().map(|&s| usize::from(s <= cut)).sum();
                    cells.hot += floor_hot * (run.len() - near);
                    if near > 0 {
                        for b in (next..band.start).filter(|&b| f.s[b] <= cut) {
                            cells.finish(b, floor_dbm, f, rendered);
                        }
                    }
                }
                let from = band.start.max(next);
                cells.counts.emitter_cells += band.end.saturating_sub(from);
                for b in from..band.end {
                    let mw = f.mw[b];
                    match table.get(mw) {
                        Some(c) if f.s[b] > if rendered { c.shade_cut } else { c.hot_cut } => {
                            cells.hot += usize::from(c.hot);
                            if rendered {
                                cells.bin_shades[b] = c.shade;
                            }
                        }
                        _ => {
                            cells.counts.emitter_exact += 1;
                            cells.finish(b, mw_to_dbm(mw), f, rendered);
                        }
                    }
                }
                next = next.max(band.end);
            }
            if rendered {
                for (shade, &(lo, hi)) in shades[row * cols..].iter_mut().zip(&columns) {
                    *shade = cells.bin_shades[lo..hi].iter().copied().max().unwrap_or(0);
                }
                row += 1;
            }
        });
        ScanSummary {
            center_mhz: self.center_mhz,
            span_mhz: self.span_mhz,
            hot: cells.hot,
            cells: frames * bins,
            rows,
            cols,
            shades,
            counts: cells.counts,
        }
    }

    /// The frame loop both finishers share: lays every emitter that is on
    /// into each frame's linear power (mW per bin), draws one accepted
    /// polar pair per bin, and hands each [`Frame`] to `finish`.
    fn synthesize<R: Rng + ?Sized>(
        &self,
        frames: usize,
        rng: &mut R,
        mut finish: impl FnMut(&Frame<'_>),
    ) {
        let (floor_mw, _) = floor_levels();
        let freqs: Vec<f64> = (0..self.fft_bins).map(|i| self.bin_freq_mhz(i)).collect();
        // Pre-compute each emitter's static ripple phase so fading is a
        // property of the path, not re-rolled per frame.
        let phases: Vec<f64> = self
            .emitters
            .iter()
            .map(|_| rng.gen::<f64>() * std::f64::consts::TAU)
            .collect();
        // A fixed-frequency emitter puts the same power in the same bins
        // every frame it is on, so it is shaped once; a hopper moves, so
        // it is shaped per frame (`None` here).
        let shapes: Vec<Option<(Range<usize>, Vec<f64>)>> = self
            .emitters
            .iter()
            .zip(&phases)
            .map(|(e, &phase)| {
                let (band, mw) = emitter_band(&freqs, e, e.center_mhz()?, phase);
                Some((band, mw.collect()))
            })
            .collect();
        let mut frame_mw = vec![floor_mw; self.fft_bins];
        let (mut u, mut s) = (vec![0.0; self.fft_bins], vec![0.0; self.fft_bins]);
        let mut bands = Vec::with_capacity(self.emitters.len());
        for frame in 0..frames {
            frame_mw.fill(floor_mw);
            bands.clear();
            for ((e, &phase), shape) in self.emitters.iter().zip(&phases).zip(&shapes) {
                let hop = match *e {
                    Emitter::Hopper { lo_mhz, hi_mhz, .. } => {
                        Some(lo_mhz + rng.gen::<f64>() * (hi_mhz - lo_mhz))
                    }
                    _ => None,
                };
                if rng.gen::<f64>() >= e.duty() {
                    continue; // silent this frame
                }
                let band = if let Some((band, mw)) = shape {
                    for (bin, &p) in frame_mw[band.clone()].iter_mut().zip(mw) {
                        *bin += p;
                    }
                    band.clone()
                } else {
                    let center = hop.expect("invariant: only a hopper has no static shape");
                    let (band, mw) = emitter_band(&freqs, e, center, phase);
                    for (bin, p) in frame_mw[band.clone()].iter_mut().zip(mw) {
                        *bin += p;
                    }
                    band
                };
                bands.push(band);
            }
            polar_pairs(rng, &mut u, &mut s);
            finish(&Frame {
                index: frame,
                mw: &frame_mw,
                bands: &bands,
                u: &u,
                s: &s,
            });
        }
    }
}

/// One synthesized frame, as [`SpectrumScan::synthesize`] hands it to a
/// finisher.
struct Frame<'a> {
    /// The frame's index in the scan.
    index: usize,
    /// Linear power per bin (mW), before noise.
    mw: &'a [f64],
    /// The bins of each emitter that is on this frame, in emitter order
    /// (they may overlap). A bin in none of them holds exactly the floor's
    /// linear power.
    bands: &'a [Range<usize>],
    /// The `u` of each bin's accepted polar pair.
    u: &'a [f64],
    /// The `s` of each bin's accepted polar pair.
    s: &'a [f64],
}

/// How many cells [`SpectrumScan::summarize`] saw an emitter reach, and
/// how many of those the table could not decide, so it finished them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct CellCounts {
    /// Cells inside the band of an emitter that was on.
    emitter_cells: usize,
    /// Of those, cells finished exactly.
    emitter_exact: usize,
}

/// What [`SpectrumScan::summarize`] accumulates over the frames: the hot
/// count, the current rendered frame's shade per bin, and its counts.
struct Finisher {
    noise: Normal,
    threshold_dbm: f64,
    hot: usize,
    bin_shades: Vec<u8>,
    counts: CellCounts,
}

impl Finisher {
    /// Finishes bin `b` of frame `f` exactly from its power before noise,
    /// as [`SpectrumScan::capture`] does, and records what Figure 11 reads
    /// of it.
    fn finish(&mut self, b: usize, dbm: f64, f: &Frame<'_>, rendered: bool) {
        let p = dbm + (self.noise.mean + self.noise.std_dev * polar_finish(f.u[b], f.s[b]));
        self.hot += usize::from(p > self.threshold_dbm);
        if rendered {
            self.bin_shades[b] = shade_index(p);
        }
    }
}

/// Mantissa bits a [`CutTable`] key keeps below the exponent: 16 key
/// intervals per octave of linear power, about 0.19 dB each.
const KEY_MANTISSA_BITS: u32 = 4;

/// Octaves of linear power a [`CutTable`] spans from the floor's up:
/// about 96 dB, past every emitter of the paper's scans.
const KEY_OCTAVES: usize = 32;

/// What the table knows of an emitter cell whose linear power falls in
/// one key interval.
#[derive(Debug, Clone, Copy, PartialEq)]
struct KeyCut {
    /// The polar cut against the threshold alone (every frame).
    hot_cut: f64,
    /// The polar cut against the threshold and every shade edge (rendered
    /// frames).
    shade_cut: f64,
    /// Whether a cell past its cut is above the threshold.
    hot: bool,
    /// The shade of a cell past `shade_cut`.
    shade: u8,
}

/// Polar cuts for emitter cells, keyed by the top exponent and mantissa
/// bits of the cell's linear power: [`KEY_OCTAVES`] octaves from the
/// floor's, in [`KEY_MANTISSA_BITS`]-bit steps. A cell whose `s` is past
/// its key's cut lands on the key's side of every boundary, whatever its
/// noise (see the module's bound), so it needs no `ln`, `sqrt` or
/// `log10`; any other cell, or one whose power is outside the table, is
/// finished exactly.
struct CutTable {
    /// The key of the table's first interval.
    base: u64,
    cuts: Vec<KeyCut>,
}

impl CutTable {
    /// The cuts against `threshold_dbm` and the shade edges.
    fn new(threshold_dbm: f64) -> Self {
        let (floor_mw, _) = floor_levels();
        let base = key(floor_mw);
        // Shade `k + 1` starts half a step past shade `k`'s level.
        let step = SHADE_RANGE_DB / (SHADE_LEVELS - 1) as f64;
        let edges: Vec<f64> = (0..SHADE_LEVELS - 1)
            .map(|k| BIN_NOISE_FLOOR_DBM + step * (k as f64 + 0.5))
            .collect();
        let len = KEY_OCTAVES << KEY_MANTISSA_BITS;
        let cuts = (base..base + len as u64)
            .map(|k| {
                // The interval's dB range, widened by the margin so the
                // rounding of `mw_to_dbm` cannot carry a cell outside it.
                let lo = mw_to_dbm(key_start(k)) - CUT_MARGIN_DB;
                let hi = mw_to_dbm(key_start(k + 1)) + CUT_MARGIN_DB;
                let hot_cut = polar_cut(distance(lo, hi, threshold_dbm));
                let shade_cut = edges
                    .iter()
                    .map(|&e| polar_cut(distance(lo, hi, e)))
                    .fold(hot_cut, f64::max);
                KeyCut {
                    hot_cut,
                    shade_cut,
                    hot: lo > threshold_dbm,
                    shade: shade_index(lo),
                }
            })
            .collect();
        CutTable { base, cuts }
    }

    /// The cuts of `mw`'s key interval; `None` outside the table.
    fn get(&self, mw: f64) -> Option<&KeyCut> {
        let i = key(mw).wrapping_sub(self.base);
        self.cuts.get(usize::try_from(i).ok()?)
    }
}

/// The key of a positive linear power: its exponent and top
/// [`KEY_MANTISSA_BITS`] mantissa bits. Keys ascend with the power.
fn key(mw: f64) -> u64 {
    mw.to_bits() >> (52 - KEY_MANTISSA_BITS)
}

/// The least linear power with key `k`.
fn key_start(k: u64) -> f64 {
    f64::from_bits(k << (52 - KEY_MANTISSA_BITS))
}

/// How far `boundary` lies outside `[lo, hi]` (dB): 0 inside it, and for
/// a NaN boundary, which [`polar_cut`] then turns into cut 1.0.
fn distance(lo: f64, hi: f64, boundary: f64) -> f64 {
    if boundary < lo {
        lo - boundary
    } else if boundary > hi {
        boundary - hi
    } else {
        0.0
    }
}

impl Emitter {
    /// Fixed center frequency (MHz); `None` for a hopper, whose center is
    /// drawn per frame.
    fn center_mhz(&self) -> Option<f64> {
        match *self {
            Emitter::Wifi { center_mhz, .. } | Emitter::Narrowband { center_mhz, .. } => {
                Some(center_mhz)
            }
            Emitter::Hopper { .. } => None,
        }
    }

    /// Probability the emitter is on in a given frame.
    fn duty(&self) -> f64 {
        match *self {
            Emitter::Wifi { duty, .. }
            | Emitter::Hopper { duty, .. }
            | Emitter::Narrowband { duty, .. } => duty,
        }
    }
}

/// The bins of `e`'s band `[center − bw/2, center + bw/2]` and the
/// emitter's power (mW) in each of them, in order. `freqs` is every bin's
/// frequency, ascending, so the band is one contiguous range.
fn emitter_band<'a>(
    freqs: &'a [f64],
    e: &Emitter,
    center: f64,
    phase: f64,
) -> (Range<usize>, impl Iterator<Item = f64> + 'a) {
    let (bw, power, ripple, period) = match *e {
        Emitter::Wifi {
            bandwidth_mhz,
            power_dbm,
            ripple_db,
            ripple_period_mhz,
            ..
        } => (bandwidth_mhz, power_dbm, ripple_db, ripple_period_mhz),
        Emitter::Hopper {
            bandwidth_mhz,
            power_dbm,
            ..
        }
        | Emitter::Narrowband {
            bandwidth_mhz,
            power_dbm,
            ..
        } => (bandwidth_mhz, power_dbm, 0.0, 1.0),
    };
    let lo = center - bw / 2.0;
    let hi = center + bw / 2.0;
    let start = freqs.partition_point(|&f| f < lo);
    let end = freqs.partition_point(|&f| f <= hi).max(start);
    let mw = freqs[start..end].iter().map(move |&f| {
        // Spectral shape: flat top with soft 0.5 MHz edges.
        let edge = (f - lo).min(hi - f);
        let rolloff_db = if edge < 0.5 { (0.5 - edge) * 30.0 } else { 0.0 };
        // Static multipath ripple across frequency.
        let ripple_db = ripple / 2.0 * (std::f64::consts::TAU * f / period + phase).sin();
        dbm_to_mw(power - rolloff_db + ripple_db)
    });
    (start..end, mw)
}

impl Waterfall {
    /// Number of FFT bins per frame.
    pub fn num_bins(&self) -> usize {
        self.frames.first().map_or(0, Vec::len)
    }

    /// Fraction of frames in which any bin inside `[lo_mhz, hi_mhz]`
    /// exceeds `threshold_dbm` — per-signal burst occupancy. 0 for a
    /// capture with no bin and for a reversed band (`lo_mhz > hi_mhz`).
    pub fn band_occupancy(&self, lo_mhz: f64, hi_mhz: f64, threshold_dbm: f64) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        let bins = self.num_bins();
        if bins == 0 || lo_mhz > hi_mhz {
            return 0.0;
        }
        let span_lo = self.center_mhz - self.span_mhz / 2.0;
        let to_bin = |f: f64| -> usize {
            (((f - span_lo) / self.span_mhz * bins as f64) as isize).clamp(0, bins as isize - 1)
                as usize
        };
        let (b0, b1) = (to_bin(lo_mhz), to_bin(hi_mhz));
        let hits = self
            .frames
            .iter()
            .filter(|f| f[b0..=b1].iter().any(|&p| p > threshold_dbm))
            .count();
        hits as f64 / self.frames.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_stats::rng::fnv1a;
    use airstat_stats::SeedTree;

    /// An always-on 20 MHz source with a deep ripple at 5.22 GHz.
    fn ripple_scan() -> SpectrumScan {
        SpectrumScan {
            center_mhz: 5220.0,
            span_mhz: 32.0,
            fft_bins: 1024,
            emitters: vec![Emitter::Wifi {
                center_mhz: 5220.0,
                bandwidth_mhz: 20.0,
                power_dbm: -55.0,
                duty: 1.0, // always on, isolate the ripple
                ripple_db: 10.0,
                ripple_period_mhz: 4.0,
            }],
        }
    }

    /// An always-on Bluetooth-like hopper across the 2.4 GHz span.
    fn hopper_scan() -> SpectrumScan {
        SpectrumScan {
            center_mhz: 2437.0,
            span_mhz: 32.0,
            fft_bins: 512,
            emitters: vec![Emitter::Hopper {
                lo_mhz: 2422.0,
                hi_mhz: 2452.0,
                bandwidth_mhz: 1.0,
                power_dbm: -50.0,
                duty: 1.0,
            }],
        }
    }

    /// Time-averaged power per bin (dBm), averaging in linear power.
    fn mean_psd_dbm(wf: &Waterfall) -> Vec<f64> {
        if wf.frames.is_empty() {
            return Vec::new();
        }
        let mut acc = vec![0.0f64; wf.num_bins()];
        for frame in &wf.frames {
            for (a, &p) in acc.iter_mut().zip(frame) {
                *a += dbm_to_mw(p);
            }
        }
        acc.into_iter()
            .map(|mw| mw_to_dbm(mw / wf.frames.len() as f64))
            .collect()
    }

    /// Fraction of (frame, bin) cells above `threshold_dbm` in the full
    /// matrix: the occupancy [`ScanSummary::occupancy`] must reproduce.
    fn occupancy_above(wf: &Waterfall, threshold_dbm: f64) -> f64 {
        let total: usize = wf.frames.iter().map(Vec::len).sum();
        if total == 0 {
            return 0.0;
        }
        let hot = wf
            .frames
            .iter()
            .flatten()
            .filter(|&&p| p > threshold_dbm)
            .count();
        hot as f64 / total as f64
    }

    /// FNV-1a over every cell's `f64::to_bits`, frame by frame.
    fn bit_digest(wf: &Waterfall) -> u64 {
        let bytes: Vec<u8> = wf
            .frames
            .iter()
            .flatten()
            .flat_map(|p| p.to_bits().to_le_bytes())
            .collect();
        fnv1a(&bytes)
    }

    /// Figure 11's two readings taken from the full matrix: the cells above
    /// `threshold_dbm`, and every rendered column's [`shade_index`] of its
    /// peak, laid out as [`ScanSummary::shades`].
    fn shade_full_matrix(
        wf: &Waterfall,
        threshold_dbm: f64,
        rows: usize,
        cols: usize,
    ) -> (usize, Vec<u8>) {
        let hot = wf
            .frames
            .iter()
            .flatten()
            .filter(|&&p| p > threshold_dbm)
            .count();
        let (frames, bins) = (wf.frames.len(), wf.num_bins());
        let mut shades = Vec::new();
        if bins == 0 {
            return (hot, shades);
        }
        let rows = rows.min(frames);
        for r in 0..rows {
            let frame = &wf.frames[r * frames / rows];
            for c in 0..cols {
                let lo = c * bins / cols;
                let hi = ((c + 1) * bins / cols).max(lo + 1);
                // airstat::allow(float-fold-order): max is order-insensitive over finite bin powers
                let peak = frame[lo..hi].iter().copied().fold(f64::MIN, f64::max);
                shades.push(shade_index(peak));
            }
        }
        (hot, shades)
    }

    #[test]
    fn summaries_match_the_full_capture() {
        // `summarize` leaves most floor cells unfinished; over 50 seeds,
        // every scan and a rotation of shapes (fewer frames than rows,
        // more columns than bins) and thresholds (the figure's, near the
        // floor, at it and below it), it reads what the full capture reads.
        let scans = [
            SpectrumScan::paper_2_4ghz(),
            SpectrumScan::paper_5ghz(),
            ripple_scan(),
            hopper_scan(),
        ];
        let shapes = [
            (12, 16, 64),
            (7, 16, 64),
            (16, 8, 40),
            (3, 4, 600),
            (10, 24, 76),
        ];
        let floor = BIN_NOISE_FLOOR_DBM;
        let thresholds = [floor + 15.0, floor + 3.0, floor, floor - 4.5, -85.0];
        let mut unfinished_rows = 0;
        for seed in 0..50u64 {
            for (k, scan) in scans.iter().enumerate() {
                let (frames, rows, cols) = shapes[(seed as usize + k) % shapes.len()];
                let threshold = thresholds[(seed as usize / shapes.len() + k) % thresholds.len()];
                let mut rng = SeedTree::new(seed).rng();
                let got = scan.summarize(frames, &mut rng, threshold, rows, cols);
                let mut rng = SeedTree::new(seed).rng();
                let full = scan.capture(frames, &mut rng);
                let (hot, shades) = shade_full_matrix(&full, threshold, rows, cols);
                let at = format!("seed {seed} scan {k} ({frames}, {rows}, {cols}) at {threshold}");
                assert_eq!((got.hot, got.cells), (hot, frames * scan.fft_bins), "{at}");
                assert_eq!(got.shades, shades, "{at}");
                assert_eq!(got.rows, rows.min(frames), "{at}");
                assert_eq!(
                    got.occupancy().to_bits(),
                    occupancy_above(&full, threshold).to_bits(),
                    "{at}"
                );
                unfinished_rows += usize::from(got.shades.contains(&0));
            }
        }
        // The shade bound was exercised: many rows had columns left at 0.
        assert!(unfinished_rows > 100, "{unfinished_rows}");
    }

    #[test]
    fn a_cell_past_its_cut_stays_inside_its_boundary() {
        // For each boundary summarize cuts on, sweep `s` from the first
        // float above the cut to 1 with the worst `u` (|u| = sqrt(s), v = 0)
        // and finish the cell: its noise never reaches the boundary. Just
        // below the cut the bound is tight to the margin, so the cut skips
        // every cell it can.
        let (_, floor_dbm) = floor_levels();
        let noise = Normal::new(0.0, NOISE_SD_DB);
        let threshold = BIN_NOISE_FLOOR_DBM + 15.0;
        let stays_cold = |p: f64| p <= threshold;
        let stays_shade_0 = |p: f64| shade_index(p) == 0;
        let near = |p: f64| (p - floor_dbm).abs() < 0.5;
        let boundaries: [(f64, &dyn Fn(f64) -> bool); 3] = [
            (threshold - floor_dbm, &stays_cold),
            (SHADE_1_EDGE_DBM - floor_dbm, &stays_shade_0),
            (0.5, &near),
        ];
        for (delta, holds) in boundaries {
            let cut = polar_cut(delta);
            assert!(cut > 0.0 && cut < 1.0, "{delta} {cut}");
            let above = (0..64u64)
                .map(|k| f64::from_bits(cut.to_bits() + 1 + k))
                .chain((1..4096).map(|k| cut + (1.0 - cut) * k as f64 / 4096.0));
            for s in above {
                for u in [s.sqrt(), -s.sqrt()] {
                    let z = noise.mean + noise.std_dev * polar_finish(u, s);
                    assert!(z.abs() < delta - CUT_MARGIN_DB / 2.0, "{delta} {s} {z}");
                    assert!(holds(floor_dbm + z), "{delta} {s} {z}");
                }
            }
            let below = cut * (1.0 - 1e-9);
            let z = noise.std_dev * polar_finish(below.sqrt(), below);
            assert!((z - (delta - CUT_MARGIN_DB)).abs() < 1e-6, "{delta} {z}");
        }
        // The shade edge is where `shade_index` leaves 0, and a boundary
        // inside the margin finishes every cell.
        assert_eq!(shade_index(SHADE_1_EDGE_DBM - 1e-9), 0);
        assert_eq!(shade_index(SHADE_1_EDGE_DBM + 1e-9), 1);
        assert_eq!(shade_index(floor_dbm), 0);
        assert_eq!(polar_cut(CUT_MARGIN_DB / 2.0), 1.0);
        assert_eq!(polar_cut(f64::NAN), 1.0);
    }

    /// Emitters whose in-band power sits within ±3 dB of −95 dBm (the
    /// figure's threshold, which is also shade 2's edge) and of each other
    /// shade edge, ripples and roll-offs that sweep cells across those
    /// boundaries, and a hopper that lands on top of them.
    fn edge_scan() -> SpectrumScan {
        let wifi = |center_mhz, bandwidth_mhz, power_dbm, ripple_db| Emitter::Wifi {
            center_mhz,
            bandwidth_mhz,
            power_dbm,
            duty: 0.5,
            ripple_db,
            ripple_period_mhz: 1.5,
        };
        let narrow = |center_mhz, power_dbm| Emitter::Narrowband {
            center_mhz,
            bandwidth_mhz: 2.0,
            power_dbm,
            duty: 0.6,
        };
        SpectrumScan {
            center_mhz: 2437.0,
            span_mhz: 32.0,
            fft_bins: 1024,
            emitters: vec![
                wifi(2426.0, 8.0, -94.0, 6.0),
                narrow(2432.0, -105.5),
                narrow(2435.0, -83.0),
                narrow(2438.0, -77.0),
                wifi(2445.0, 8.0, -65.5, 5.0),
                Emitter::Hopper {
                    lo_mhz: 2422.0,
                    hi_mhz: 2452.0,
                    bandwidth_mhz: 1.0,
                    power_dbm: -96.5,
                    duty: 0.7,
                },
            ],
        }
    }

    #[test]
    fn summaries_of_emitters_at_every_boundary_match_the_full_capture() {
        // Over 60 seeds and three thresholds (the figure's, one between
        // shade edges and one near the floor), `summarize` reads what the
        // full capture reads, and its table decided most emitter cells
        // without finishing them.
        let scan = edge_scan();
        let shapes = [(12, 16, 64), (9, 9, 40), (24, 8, 100)];
        let thresholds = [BIN_NOISE_FLOOR_DBM + 15.0, -80.3, BIN_NOISE_FLOOR_DBM + 2.5];
        let mut counts = CellCounts::default();
        for seed in 0..60u64 {
            let (frames, rows, cols) = shapes[seed as usize % shapes.len()];
            let threshold = thresholds[seed as usize / shapes.len() % thresholds.len()];
            let mut rng = SeedTree::new(seed).rng();
            let got = scan.summarize(frames, &mut rng, threshold, rows, cols);
            let mut rng = SeedTree::new(seed).rng();
            let full = scan.capture(frames, &mut rng);
            let (hot, shades) = shade_full_matrix(&full, threshold, rows, cols);
            let at = format!("seed {seed} ({frames}, {rows}, {cols}) at {threshold}");
            assert_eq!(got.hot, hot, "{at}");
            assert_eq!(got.shades, shades, "{at}");
            counts.emitter_cells += got.counts.emitter_cells;
            counts.emitter_exact += got.counts.emitter_exact;
        }
        // Both paths ran: the table decided most emitter cells, and the
        // cells near a boundary were finished.
        let CellCounts {
            emitter_cells,
            emitter_exact,
        } = counts;
        assert!(emitter_exact > 1000, "{counts:?}");
        assert!(2 * emitter_exact < emitter_cells, "{counts:?}");
    }

    #[test]
    fn an_emitter_cell_past_its_cut_stays_on_its_side() {
        // For every key interval within 1 dB of the threshold or of a shade
        // edge, finish the cells at both ends of the interval with `s` one
        // ulp above the cut and the worst `u` (|u| = sqrt(s), v = 0, either
        // sign): each lands on the table's side, and in rendered frames in
        // the table's shade. An interval that holds a boundary gets cut 1.0,
        // so each of its cells is finished.
        let noise = Normal::new(0.0, NOISE_SD_DB);
        let step = SHADE_RANGE_DB / (SHADE_LEVELS - 1) as f64;
        let edges: Vec<f64> = (0..SHADE_LEVELS - 1)
            .map(|k| BIN_NOISE_FLOOR_DBM + step * (k as f64 + 0.5))
            .collect();
        assert_eq!(edges[0], SHADE_1_EDGE_DBM);
        let mut checked = 0;
        for threshold in [BIN_NOISE_FLOOR_DBM + 15.0, -80.3, BIN_NOISE_FLOOR_DBM + 2.5] {
            let table = CutTable::new(threshold);
            for (i, cut) in table.cuts.iter().enumerate() {
                let k = table.base + i as u64;
                let ends = [key_start(k), f64::from_bits(key_start(k + 1).to_bits() - 1)];
                assert_eq!(table.get(ends[0]), Some(cut));
                assert_eq!(table.get(ends[1]), Some(cut));
                let (lo, hi) = (mw_to_dbm(ends[0]), mw_to_dbm(ends[1]));
                let holds = |b: f64| lo <= b && b <= hi;
                if holds(threshold) {
                    assert_eq!((cut.hot_cut, cut.shade_cut), (1.0, 1.0), "{k}");
                }
                if edges.iter().any(|&e| holds(e)) {
                    assert_eq!(cut.shade_cut, 1.0, "{k}");
                }
                let near = |b: f64| (lo - 1.0..=hi + 1.0).contains(&b);
                let kinds = [
                    (near(threshold), cut.hot_cut, false),
                    (edges.iter().any(|&e| near(e)), cut.shade_cut, true),
                ];
                for (beside, c, rendered) in kinds {
                    if !beside || c == 1.0 {
                        continue;
                    }
                    let s = f64::from_bits(c.to_bits() + 1);
                    for (mw, u) in ends
                        .iter()
                        .flat_map(|&mw| [(mw, s.sqrt()), (mw, -s.sqrt())])
                    {
                        let p = mw_to_dbm(mw) + (noise.mean + noise.std_dev * polar_finish(u, s));
                        assert_eq!(p > threshold, cut.hot, "{k} {mw} {u} {p}");
                        if rendered {
                            assert_eq!(shade_index(p), cut.shade, "{k} {mw} {u} {p}");
                        }
                        checked += 1;
                    }
                }
            }
            // Powers outside the table have no cut: they are finished.
            let len = table.cuts.len() as u64;
            assert_eq!(table.get(key_start(table.base - 1)), None);
            assert_eq!(table.get(key_start(table.base + len)), None);
        }
        assert!(checked > 500, "{checked}");
        // A NaN threshold decides nothing.
        let nan = CutTable::new(f64::NAN);
        assert!(nan
            .cuts
            .iter()
            .all(|c| c.hot_cut == 1.0 && c.shade_cut == 1.0));
    }

    #[test]
    fn empty_scans_summarize_to_nothing() {
        let mut rng = SeedTree::new(5).rng();
        let none = SpectrumScan::paper_5ghz().summarize(0, &mut rng, -95.0, 16, 64);
        assert_eq!((none.hot, none.cells, none.rows), (0, 0, 0));
        assert!(none.shades.is_empty());
        assert_eq!(none.occupancy(), 0.0);
        let binless = SpectrumScan {
            fft_bins: 0,
            ..SpectrumScan::paper_5ghz()
        };
        let s = binless.summarize(10, &mut rng, -95.0, 16, 64);
        assert_eq!((s.cells, s.rows, s.shades.len()), (0, 0, 0));
    }

    #[test]
    fn band_occupancy_of_no_bins_or_a_reversed_band_is_zero() {
        let mut rng = SeedTree::new(9).rng();
        let binless = SpectrumScan {
            fft_bins: 0,
            ..SpectrumScan::paper_2_4ghz()
        }
        .capture(5, &mut rng);
        assert_eq!(binless.frames.len(), 5);
        assert_eq!(binless.band_occupancy(2430.0, 2444.0, -80.0), 0.0);
        let wf = SpectrumScan::paper_2_4ghz().capture(40, &mut rng);
        assert!(wf.band_occupancy(2430.0, 2444.0, -200.0) > 0.0);
        assert_eq!(wf.band_occupancy(2444.0, 2430.0, -200.0), 0.0);
        assert_eq!(wf.band_occupancy(2500.0, 2460.0, -200.0), 0.0);
    }

    #[test]
    fn captures_are_pinned_bit_for_bit() {
        // Every cell of a capture is a function of the scan and the RNG
        // stream alone; these digests hold it to the bit, so a faster
        // synthesis has to keep each emitter's operands, the order they
        // are summed in and the order the RNG is drawn in.
        let mut digests = Vec::new();
        for seed in [1u64, 2, 3] {
            for scan in [SpectrumScan::paper_2_4ghz(), SpectrumScan::paper_5ghz()] {
                let mut rng = SeedTree::new(seed).rng();
                digests.push(bit_digest(&scan.capture(120, &mut rng)));
            }
        }
        for scan in [ripple_scan(), hopper_scan()] {
            let mut rng = SeedTree::new(7).rng();
            digests.push(bit_digest(&scan.capture(120, &mut rng)));
        }
        assert_eq!(
            digests,
            [
                0xd304_1dae_95ae_63b9,
                0xf9e2_3511_014b_91f3,
                0xe34e_f44d_63ad_a3c2,
                0xf392_ab27_8750_dc21,
                0xa0fa_fa62_e89d_21c0,
                0x2b5c_4afa_d4da_a086,
                0x95e9_1901_444e_d874,
                0x2f44_7066_e13d_dddd,
            ],
            "{digests:#x?}"
        );
    }

    #[test]
    fn bin_frequencies_span_the_window() {
        let scan = SpectrumScan::paper_2_4ghz();
        let f0 = scan.bin_freq_mhz(0);
        let fn_1 = scan.bin_freq_mhz(scan.fft_bins - 1);
        assert!(f0 > 2421.0 && f0 < 2421.1);
        assert!(fn_1 > 2452.9 && fn_1 < 2453.0);
    }

    #[test]
    fn capture_dimensions() {
        let scan = SpectrumScan::paper_2_4ghz();
        let mut rng = SeedTree::new(41).rng();
        let wf = scan.capture(50, &mut rng);
        assert_eq!(wf.frames.len(), 50);
        assert_eq!(wf.num_bins(), 4096);
    }

    #[test]
    fn quiet_span_sits_at_noise_floor() {
        let scan = SpectrumScan {
            center_mhz: 5500.0,
            span_mhz: 32.0,
            fft_bins: 512,
            emitters: vec![],
        };
        let mut rng = SeedTree::new(42).rng();
        let wf = scan.capture(20, &mut rng);
        let psd = mean_psd_dbm(&wf);
        let mean: f64 = psd.iter().sum::<f64>() / psd.len() as f64;
        assert!((mean - BIN_NOISE_FLOOR_DBM).abs() < 2.0, "mean {mean}");
        assert!(occupancy_above(&wf, -100.0) < 0.01);
    }

    #[test]
    fn wifi_burst_occupies_its_band() {
        let scan = SpectrumScan::paper_2_4ghz();
        let mut rng = SeedTree::new(43).rng();
        let wf = scan.capture(400, &mut rng);
        // Channel 6 (2427–2447) should burst ~20% of frames well above floor.
        let occ = wf.band_occupancy(2430.0, 2444.0, -80.0);
        assert!(occ > 0.15 && occ < 0.75, "channel-6 occupancy {occ}");
        // The top edge of the span (outside any 802.11 channel here) shows
        // only the Bluetooth hopper, so much lower occupancy.
        let edge = wf.band_occupancy(2452.0, 2452.9, -80.0);
        assert!(edge < occ / 2.0, "edge occupancy {edge} vs {occ}");
    }

    #[test]
    fn five_ghz_scan_is_quieter_than_2_4() {
        let mut rng = SeedTree::new(44).rng();
        let wf24 = SpectrumScan::paper_2_4ghz().capture(200, &mut rng);
        let wf5 = SpectrumScan::paper_5ghz().capture(200, &mut rng);
        let occ24 = occupancy_above(&wf24, -85.0);
        let occ5 = occupancy_above(&wf5, -85.0);
        assert!(
            occ24 > 4.0 * occ5,
            "2.4 GHz occupancy {occ24} should dwarf 5 GHz {occ5}"
        );
    }

    #[test]
    fn ripple_produces_frequency_selective_structure() {
        // With a large ripple, the in-band PSD should vary by several dB.
        let scan = ripple_scan();
        let mut rng = SeedTree::new(45).rng();
        let wf = scan.capture(100, &mut rng);
        let psd = mean_psd_dbm(&wf);
        // Look at in-band bins away from the edges.
        let bins = psd.len();
        let in_band: Vec<f64> = (0..bins)
            .filter(|&i| {
                let f = scan.bin_freq_mhz(i);
                f > 5212.0 && f < 5228.0
            })
            .map(|i| psd[i])
            .collect();
        let max = in_band.iter().cloned().fold(f64::MIN, f64::max);
        let min = in_band.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min > 5.0, "ripple depth {}", max - min);
    }

    #[test]
    fn hopper_moves_between_frames() {
        let scan = hopper_scan();
        let mut rng = SeedTree::new(46).rng();
        let wf = scan.capture(100, &mut rng);
        // Find the hottest bin per frame; it should move around.
        let hot_bins: std::collections::HashSet<usize> = wf
            .frames
            .iter()
            .map(|f| {
                f.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0
            })
            .collect();
        assert!(
            hot_bins.len() > 20,
            "hopper visited {} bins",
            hot_bins.len()
        );
    }
}
