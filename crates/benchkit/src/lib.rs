//! # adapipe-benchkit
//!
//! A minimal, dependency-free stand-in for the `criterion` benchmark
//! harness, so the workspace's benches compile and run in an offline
//! build environment. The bench crate aliases this as `criterion`
//! (`criterion = { package = "adapipe-benchkit", ... }`), so bench
//! sources keep the upstream API surface they actually use:
//! `Criterion::benchmark_group`, `sample_size`, `measurement_time`,
//! `bench_function`, `bench_with_input`, `BenchmarkId`, `black_box`,
//! and the `criterion_group!` / `criterion_main!` macros.
//!
//! Measurement model: per benchmark, one warm-up iteration, then up to
//! `sample_size` timed iterations bounded by `measurement_time`. Each
//! result prints as a human line and, when `ADAPIPE_BENCH_JSON` names a
//! file, appends one JSON object per line (JSONL) with the group, name,
//! mean/min seconds per iteration and iteration count — the hook the
//! repo's `BENCH_*.json` files are written through.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt::Display;
use std::fs::OpenOptions;
use std::io::Write;
use std::time::{Duration, Instant};

/// Re-exported so bench code can `black_box` values the optimiser must
/// not fold away.
pub use std::hint::black_box;

/// Identifies one parameterised benchmark within a group.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter value.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id made of the parameter value alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Drives the timed iterations of one benchmark.
pub struct Bencher<'a> {
    samples: &'a mut Vec<Duration>,
    sample_size: usize,
    measurement_time: Duration,
}

impl Bencher<'_> {
    /// Times `routine` over the configured number of iterations.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // One warm-up iteration outside the measurement.
        black_box(routine());
        let budget_start = Instant::now();
        for _ in 0..self.sample_size.max(1) {
            let t0 = Instant::now();
            black_box(routine());
            self.samples.push(t0.elapsed());
            if budget_start.elapsed() > self.measurement_time {
                break;
            }
        }
    }
}

/// A named set of related benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Bounds the wall time spent measuring one benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, name: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let mut samples = Vec::new();
        let mut bencher = Bencher {
            samples: &mut samples,
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
        };
        f(&mut bencher);
        self.criterion
            .report(&self.name, &name.to_string(), &samples);
        self
    }

    /// Runs one benchmark parameterised by `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        self.bench_function(id.id, |b| f(b, input))
    }

    /// Ends the group (kept for API parity; reporting is per-bench).
    pub fn finish(&mut self) {}
}

/// The harness entry point benches receive as `&mut Criterion`.
#[derive(Default)]
pub struct Criterion {
    json_path: Option<String>,
}

impl Criterion {
    /// Reads harness configuration from the environment
    /// (`ADAPIPE_BENCH_JSON` = write this run's JSONL results to this
    /// file). The file is truncated here, once per run, so regenerating
    /// a committed baseline replaces it instead of appending stale
    /// duplicates.
    pub fn configure_from_args(mut self) -> Self {
        self.json_path = std::env::var("ADAPIPE_BENCH_JSON").ok();
        if let Some(path) = &self.json_path {
            if let Err(e) = std::fs::File::create(path) {
                eprintln!("benchkit: cannot create {path}: {e}");
                self.json_path = None;
            }
        }
        self
    }

    /// Opens a benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 20,
            measurement_time: Duration::from_secs(3),
            criterion: self,
        }
    }

    /// Runs one stand-alone benchmark with default settings.
    pub fn bench_function<F>(&mut self, name: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let mut group = self.benchmark_group("default");
        group.bench_function(name.to_string(), f);
        drop(group);
        self
    }

    fn report(&mut self, group: &str, name: &str, samples: &[Duration]) {
        if samples.is_empty() {
            println!("{group}/{name}: no samples collected");
            return;
        }
        let total: Duration = samples.iter().sum();
        let mean = total.as_secs_f64() / samples.len() as f64;
        let min = samples.iter().min().expect("non-empty").as_secs_f64();
        println!(
            "{group}/{name}: mean {} min {} ({} iters)",
            fmt_secs(mean),
            fmt_secs(min),
            samples.len()
        );
        if let Some(path) = &self.json_path {
            let line = format!(
                "{{\"group\":\"{}\",\"bench\":\"{}\",\"mean_secs\":{:.9},\"min_secs\":{:.9},\"iters\":{}}}\n",
                escape(group),
                escape(name),
                mean,
                min,
                samples.len()
            );
            let written = OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(line.as_bytes()));
            if let Err(e) = written {
                eprintln!("benchkit: cannot append to {path}: {e}");
            }
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.2}us", s * 1e6)
    }
}

/// Declares a group of benchmark functions (API parity with criterion).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main`, running every listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_bounded_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group
            .sample_size(5)
            .measurement_time(Duration::from_secs(1));
        let mut runs = 0u32;
        group.bench_function("count", |b| {
            b.iter(|| {
                runs += 1;
            })
        });
        // One warm-up + at most sample_size timed iterations.
        assert!((2..=6).contains(&runs), "runs={runs}");
    }

    #[test]
    fn benchmark_ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("f", 8).id, "f/8");
        assert_eq!(BenchmarkId::from_parameter("4x4").id, "4x4");
    }

    #[test]
    fn json_lines_escape_quotes() {
        assert_eq!(escape("a\"b"), "a\\\"b");
    }

    #[test]
    fn fmt_secs_picks_units() {
        assert_eq!(fmt_secs(2.0), "2.000s");
        assert_eq!(fmt_secs(0.002), "2.000ms");
        assert_eq!(fmt_secs(0.000002), "2.00us");
    }
}
