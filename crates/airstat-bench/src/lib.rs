//! # airstat-bench — per-artifact regenerators and design ablations
//!
//! One Criterion-style bench per paper artifact (see `benches/`): each
//! bench regenerates a table or figure from a shared fleet simulation,
//! printing the rows/series it produced and timing the analytics query.
//! The `ablations` bench group measures the design trade-offs called out
//! in DESIGN.md (probe-window length, pull batching, edge classification).
//!
//! Nothing here times the pipeline's layers or gates them: the
//! end-to-end benchmark in `bench/` (metrics named in `BENCHMARK.json`)
//! is the one timing instrument, and the same-host ratio invariants are
//! plain tests (`tests/perf_gates.rs`,
//! `crates/airstat-lint/tests/workspace.rs`).
//!
//! This library part only hosts the shared fixture so every bench file
//! reuses one simulation run.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use airstat_sim::{FleetConfig, FleetSimulation, SimulationOutput};
use std::sync::OnceLock;

/// Scale used by the bench fixture (0.5% of the paper's fleet).
pub const BENCH_SCALE: f64 = 0.005;

/// The shared simulation output: run once, reused by every bench.
pub fn fixture() -> &'static (SimulationOutput, FleetConfig) {
    static FIXTURE: OnceLock<(SimulationOutput, FleetConfig)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let config = FleetConfig::paper(BENCH_SCALE);
        let output = FleetSimulation::new(config.clone()).run();
        (output, config)
    })
}

pub mod harness {
    //! Criterion-compatible micro-benchmark shim.
    //!
    //! The offline build environment cannot fetch criterion, so this module
    //! implements the small API slice the `benches/` files use — `Criterion`,
    //! `benchmark_group`, `Bencher::iter` / `iter_with_setup`, and the
    //! `criterion_group!` / `criterion_main!` macros. Timing is a plain
    //! warm-up-then-sample loop; results print to stdout and go nowhere
    //! else.

    use std::hint::black_box;
    use std::time::{Duration, Instant};

    pub use crate::{criterion_group, criterion_main};

    /// Soft wall-clock budget per bench function; sampling stops early
    /// once it is exceeded (minimum 3 samples are always taken).
    const MAX_SAMPLE_TIME: Duration = Duration::from_secs(2);

    fn format_ns(ns: f64) -> String {
        if ns < 1e3 {
            format!("{ns:.0} ns")
        } else if ns < 1e6 {
            format!("{:.2} µs", ns / 1e3)
        } else if ns < 1e9 {
            format!("{:.2} ms", ns / 1e6)
        } else {
            format!("{:.2} s", ns / 1e9)
        }
    }

    /// Entry point mirroring `criterion::Criterion`.
    pub struct Criterion {
        sample_size: usize,
    }

    impl Default for Criterion {
        fn default() -> Self {
            Criterion { sample_size: 30 }
        }
    }

    impl Criterion {
        /// Sets the default samples per bench (minimum 1).
        pub fn sample_size(mut self, n: usize) -> Self {
            self.sample_size = n.max(1);
            self
        }

        /// Opens a named benchmark group.
        pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
            let name = name.into();
            println!("[bench group] {name}");
            BenchmarkGroup {
                name,
                sample_size: self.sample_size,
            }
        }

        /// Ungrouped bench, mirroring `criterion::Criterion::bench_function`:
        /// the bench id doubles as the group name.
        pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
        where
            F: FnMut(&mut Bencher),
        {
            let name = name.into();
            self.benchmark_group(name.clone()).bench_function(name, f);
            self
        }
    }

    /// A named group of benches sharing a sample count.
    pub struct BenchmarkGroup {
        name: String,
        sample_size: usize,
    }

    impl BenchmarkGroup {
        /// Overrides the sample count for this group.
        pub fn sample_size(&mut self, n: usize) -> &mut Self {
            self.sample_size = n.max(1);
            self
        }

        /// Runs one bench closure and prints its mean and fastest time.
        pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
        where
            F: FnMut(&mut Bencher),
        {
            let name = name.into();
            let mut bencher = Bencher {
                sample_size: self.sample_size,
                times: Vec::new(),
            };
            f(&mut bencher);
            let times = bencher.times;
            assert!(
                !times.is_empty(),
                "bench {}::{} recorded no samples (missing b.iter call?)",
                self.name,
                name
            );
            let mean_ns =
                times.iter().map(Duration::as_nanos).sum::<u128>() as f64 / times.len() as f64;
            let min_ns = times
                .iter()
                .map(Duration::as_nanos)
                .min()
                .expect("invariant: at least one iteration always runs")
                as f64;
            println!(
                "  {:<40} time: {:>10} (min {:>10}, n={})",
                name,
                format_ns(mean_ns),
                format_ns(min_ns),
                times.len(),
            );
            self
        }

        /// No-op, mirroring criterion's API.
        pub fn finish(&mut self) {}
    }

    /// Passed to each bench closure; records one timing per iteration.
    pub struct Bencher {
        sample_size: usize,
        times: Vec<Duration>,
    }

    impl Bencher {
        /// Times `routine` once per sample after one warm-up call.
        pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
            black_box(routine());
            let started = Instant::now();
            for done in 0..self.sample_size {
                let t0 = Instant::now();
                black_box(routine());
                self.times.push(t0.elapsed());
                if done >= 2 && started.elapsed() > MAX_SAMPLE_TIME {
                    break;
                }
            }
        }

        /// Like [`Bencher::iter`], but re-runs `setup` outside the timed
        /// region before each sample.
        pub fn iter_with_setup<S, R, Setup, Routine>(
            &mut self,
            mut setup: Setup,
            mut routine: Routine,
        ) where
            Setup: FnMut() -> S,
            Routine: FnMut(S) -> R,
        {
            black_box(routine(setup()));
            let started = Instant::now();
            for done in 0..self.sample_size {
                let input = setup();
                let t0 = Instant::now();
                black_box(routine(input));
                self.times.push(t0.elapsed());
                if done >= 2 && started.elapsed() > MAX_SAMPLE_TIME {
                    break;
                }
            }
        }
    }
}

/// Mirrors `criterion_group!`: defines a function running every target
/// against the configured [`harness::Criterion`].
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::harness::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Mirrors `criterion_main!`: the bench entry point (`harness = false`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
