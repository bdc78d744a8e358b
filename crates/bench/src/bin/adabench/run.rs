//! Command line, phase budgets, and the run of one workload.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off: timed
//! throughput reps, each followed by a burst of cold set-up cycles.
//! `--trace 1` is a separate run: a third of the reps untraced, a third
//! with spans around every call into the facade, then the workload's
//! own layer probes; it reports the per-layer metrics, and the
//! difference between its two thirds is the tracing overhead.

use crate::affinity::OneCpu;
use crate::calib::{self, Host};
use crate::harness::{self, Paced, Rep, Tally, Threaded};
use crate::report::{Metric, RunOutput};
use crate::spec::{self, MetricSpec};
use crate::stats::{self, Summary};
use crate::trace::{self, Tracer};
use crate::{alloc, gen, imaging, json, keyed, probes, procfs, sim, wire};
use adapipe_runtime::policy::Policy;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

pub const USAGE: &str = "usage:
  adabench --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]
  adabench --all [--seed <u64>] [--seconds <n>] [--trace <0|1>]
  adabench --selfcheck <N> [--seed <u64>] [--seconds <n>]
workloads: wire_batch wire_item keyed_dag imaging sim_adaptive sim_static";

pub const WORKLOADS: [&str; 6] = [
    "wire_batch",
    "wire_item",
    "keyed_dag",
    "imaging",
    "sim_adaptive",
    "sim_static",
];

pub const DEFAULT_SEED: u64 = 42;

/// Timed throughput reps of a run are never fewer than this, however
/// short `--seconds` is: a metric is an order statistic over reps.
const MIN_REPS: usize = 15;
/// Each third of a traced run has at least this many reps.
const MIN_TRACED_REPS: usize = 5;
/// Cold set-up cycles of a run are never fewer than this.
const MIN_SETUP_CYCLES: usize = 200;
/// An untraced run follows every throughput rep with a burst of set-up
/// cycles, so that both metrics sample the whole run and not one
/// stretch of it each: at least this many cycles (so that the fewest
/// reps make the fewest cycles), and this share of the time the rep
/// took.
const MIN_SETUP_BURST: usize = MIN_SETUP_CYCLES.div_ceil(MIN_REPS);
const SETUP_BURST_SHARE: f64 = 0.1;
/// Shares of `--seconds`: the reps and set-up bursts of an untraced
/// run; each third (untraced, traced) of a traced run and its latency
/// phase.
const MEASURE_SHARE: f64 = 0.95;
const TRACED_SHARE: f64 = 0.3;
const LATENCY_SHARE: f64 = 0.25;
/// Where a traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = "adabench_out";

enum Mode {
    One(String),
    All,
    Selfcheck(usize),
}

pub struct Cli {
    mode: Mode,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Cli {
    pub fn parse(args: &[String]) -> Result<Cli, String> {
        let mut mode = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = spec::run_seconds();
        let mut trace = false;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .ok_or_else(|| format!("{arg} needs {what}"))
                    .cloned()
            };
            match arg.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    if !WORKLOADS.contains(&name.as_str()) {
                        return Err(format!("unknown workload {name:?}"));
                    }
                    mode = Some(Mode::One(name));
                }
                "--all" => mode = Some(Mode::All),
                "--selfcheck" => {
                    let n: usize = parse_num(&value("a run count")?, "--selfcheck")?;
                    if n < 2 {
                        return Err("--selfcheck needs at least 2 runs per set".into());
                    }
                    mode = Some(Mode::Selfcheck(n));
                }
                "--seed" => seed = parse_num(&value("a u64")?, "--seed")?,
                "--seconds" => {
                    seconds = parse_num(&value("whole seconds")?, "--seconds")?;
                    if !(1..=60).contains(&seconds) {
                        return Err("--seconds must be between 1 and 60".into());
                    }
                }
                "--trace" => {
                    trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Cli {
            mode: mode.ok_or("one of --workload, --all, --selfcheck is required")?,
            seed,
            seconds,
            trace,
        })
    }

    pub fn execute(self) -> ExitCode {
        let ok = match &self.mode {
            Mode::One(name) => {
                let out = run_workload(name, self.seed, self.seconds, self.trace);
                print!("{}", out.table());
                println!("{}", out.result_line());
                out.correct()
            }
            Mode::All => WORKLOADS.iter().fold(true, |ok, name| {
                // A process per workload: peak RSS, allocator and
                // scheduler state are that workload's alone.
                let child = self.child(name, self.seed, self.trace, Stdio::inherit());
                child.is_some_and(|out| out.status.success()) && ok
            }),
            Mode::Selfcheck(n) => self.selfcheck(*n),
        };
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }

    /// Runs this program again on one workload and waits for it.
    fn child(
        &self,
        workload: &str,
        seed: u64,
        trace: bool,
        stdout: Stdio,
    ) -> Option<std::process::Output> {
        let exe = std::env::current_exe().ok()?;
        Command::new(exe)
            .args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdout(stdout)
            // A child's panic message or trace-file path must reach the
            // user; `output()` would otherwise capture and drop it.
            .stderr(Stdio::inherit())
            .output()
            .ok()
    }

    /// The result line of one child run, if the run succeeded and
    /// verified every output.
    fn child_result(&self, workload: &str, seed: u64, trace: bool) -> Option<String> {
        let out = self.child(workload, seed, trace, Stdio::piped())?;
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.lines().last()?;
        let verified = out.status.success() && json::number_after(line, "failed") == Some(0.0);
        verified.then(|| line.to_string())
    }

    /// Two alternating sets of `n` full runs of this same build: do the
    /// benchmark's own numbers repeat within its own bounds?
    fn selfcheck(&self, n: usize) -> bool {
        let e2e = spec::end_to_end();
        // values[set][workload][metric] = one value per run.
        let mut values = vec![vec![vec![Vec::new(); e2e.len()]; WORKLOADS.len()]; 2];
        let mut pass = true;
        for run in 0..n {
            for set in values.iter_mut() {
                for (w, name) in WORKLOADS.iter().enumerate() {
                    let seed = self.seed + run as u64;
                    let metrics = self
                        .child_result(name, seed, false)
                        .map(|line| json::metrics_of(&line))
                        .unwrap_or_default();
                    for (m, spec) in e2e.iter().enumerate() {
                        match metrics.iter().find(|(k, _)| *k == spec.name) {
                            Some((_, v)) => set[w][m].push(*v),
                            None => pass = false,
                        }
                    }
                    eprintln!("selfcheck: run {} of {n}, {name} seed {seed} done", run + 1);
                }
            }
        }
        println!(
            "selfcheck: 2 sets x {n} runs, seeds {}..{}, {} s per run, nproc {}, \
             calibrate_host {:.3e} spins/s",
            self.seed,
            self.seed + n as u64 - 1,
            self.seconds,
            std::thread::available_parallelism().map_or(0, usize::from),
            adapipe_engine::vnode::calibrate_host()
        );
        println!(
            "{:<13} {:<12} {:>29} {:>29} {:>7} {:>7} {:>8} {:>5}  verdict",
            "workload",
            "metric",
            "set A: median  q1  q3",
            "set B: median  q1  q3",
            "iqr/med",
            "rng/med",
            "B vs A",
            "bound"
        );
        for (w, name) in WORKLOADS.iter().enumerate() {
            for (m, spec) in e2e.iter().enumerate() {
                let (a, b) = (&values[0][w][m], &values[1][w][m]);
                if a.len() < n || b.len() < n {
                    println!(
                        "{name:<13} {:<12} a run failed or did not report it",
                        spec.name
                    );
                    continue;
                }
                let row = SelfcheckRow::of(a, b, spec);
                pass &= row.verdict != "FAIL";
                let [a1, a2, a3] = row.quartiles_a;
                let [b1, b2, b3] = row.quartiles_b;
                println!(
                    "{:<13} {:<12} {:>9.3e} {:>9.3e} {:>9.3e} {:>9.3e} {:>9.3e} {:>9.3e} \
                     {:>7.4} {:>7.4} {:>+8.4} {:>5.2}  {}",
                    name,
                    spec.name,
                    a2,
                    a1,
                    a3,
                    b2,
                    b1,
                    b3,
                    row.iqr_frac,
                    row.range_frac,
                    row.worse_by,
                    row.bound,
                    row.verdict
                );
            }
        }
        pass &= self.selfcheck_sims();
        println!("selfcheck: {}", if pass { "PASS" } else { "FAIL" });
        pass
    }

    /// The simulated outcome is exact: two traced runs of a sim workload
    /// on one seed must report identical `sim.*` metrics and planner
    /// counts.
    fn selfcheck_sims(&self) -> bool {
        let exact = |name: &str| name.starts_with("sim.") || EXACT_COUNTS.contains(&name);
        let mut same = true;
        for workload in WORKLOADS.iter().filter(|w| w.starts_with("sim_")) {
            let run = || {
                let line = self.child_result(workload, self.seed, true)?;
                Some(json::metrics_of(&line))
            };
            let (Some(a), Some(b)) = (run(), run()) else {
                println!("{workload:<13} a traced run failed");
                same = false;
                continue;
            };
            for ((name, va), (_, vb)) in a.iter().zip(&b).filter(|((k, _), _)| exact(k)) {
                let verdict = if va == vb { "identical" } else { "FAIL" };
                same &= va == vb;
                println!("{workload:<13} {name:<24} {va:>17.9e} {vb:>17.9e}  {verdict}");
            }
        }
        same
    }
}

/// Per-layer counts that, like `sim.*`, must repeat exactly.
const EXACT_COUNTS: [&str; 3] = [
    "runtime.planning_cycles",
    "runtime.remaps",
    "runtime.migrations",
];

/// One workload × metric line of `--selfcheck`.
struct SelfcheckRow {
    /// `[q1, median, q3]` of each set, quartiles as the acceptance check
    /// takes them.
    quartiles_a: [f64; 3],
    quartiles_b: [f64; 3],
    /// The wider of the two sets' (q3 − q1) / median.
    iqr_frac: f64,
    /// The wider of the two sets' (max − min) / median.
    range_frac: f64,
    /// By what share of A's median B's median is worse (negative:
    /// better).
    worse_by: f64,
    bound: f64,
    verdict: &'static str,
}

impl SelfcheckRow {
    fn of(a: &[f64], b: &[f64], spec: &MetricSpec) -> SelfcheckRow {
        let spread = |v: &[f64]| {
            let q = stats::quartiles_exclusive(v);
            let s = Summary::of(v);
            ((q[2] - q[0]) / q[1].abs(), (s.max - s.min) / q[1].abs(), q)
        };
        let (iqr_a, range_a, quartiles_a) = spread(a);
        let (iqr_b, range_b, quartiles_b) = spread(b);
        let change = (quartiles_b[1] - quartiles_a[1]) / quartiles_a[1].abs();
        let worse_by = if spec.higher_is_better {
            -change
        } else {
            change
        };
        let bound = spec.bound.unwrap_or(0.0);
        let iqr_frac = iqr_a.max(iqr_b);
        // The spread judged is the acceptance check's, at every set
        // size: Python's exclusive quartiles move out to the extremes
        // as a set shrinks (of three values they are the minimum and
        // the maximum), so for small sets this is the range rule. Set-up
        // time is judged on its medians only, as the acceptance check
        // does.
        let judge_spread = spec.name != "setup_s";
        let verdict = if (judge_spread && iqr_frac > bound) || change.abs() > bound / 2.0 {
            "FAIL"
        } else if judge_spread && iqr_frac > bound / 3.0 {
            "pass (spread above a third of the bound)"
        } else {
            "pass"
        };
        SelfcheckRow {
            quartiles_a,
            quartiles_b,
            iqr_frac,
            range_frac: range_a.max(range_b),
            worse_by,
            bound,
            verdict,
        }
    }
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
}

fn run_workload(name: &str, seed: u64, seconds: u64, trace: bool) -> RunOutput {
    let workload = *WORKLOADS
        .iter()
        .find(|w| **w == name)
        .expect("Cli::parse admits only listed workloads");
    let run = Run {
        workload,
        seed,
        budget: Duration::from_secs(seconds),
        trace,
    };
    // Every phase of every workload runs confined to one CPU (see
    // `affinity`); the engine's threads inherit the mask.
    let _one_cpu = OneCpu::pin();
    let raw = match workload {
        "wire_batch" => run.threaded(&wire::wire_batch()),
        "wire_item" => run.threaded(&wire::wire_item()),
        "keyed_dag" => run.threaded(&keyed::KeyedDag),
        "imaging" => run.threaded(&imaging::Imaging::new(seed)),
        "sim_adaptive" => run.sim(sim::Kind::Adaptive),
        "sim_static" => run.sim(sim::Kind::Static),
        other => unreachable!("{other} is listed but has no runner"),
    };
    let listed = if trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let (metrics, as_listed) = in_listed_order(raw.metrics, &listed, trace);
    RunOutput {
        workload,
        tally: raw.tally,
        invariants_hold: raw.invariants_hold && as_listed,
        host_slowdown: raw.host_slowdown,
        metrics,
    }
}

/// What a run measured, before it is checked against `BENCHMARK.json`.
struct Raw {
    tally: Tally,
    invariants_hold: bool,
    /// Untraced runs: the host's slowdown factor beside each rep.
    host_slowdown: Option<Summary>,
    metrics: Vec<Metric>,
}

/// `measured` in the order `BENCHMARK.json` lists the metrics. A
/// per-layer metric the workload does not exercise reads 0; anything
/// else that is missing, unlisted, in another unit or not a finite
/// number makes the run incorrect.
fn in_listed_order(
    mut measured: Vec<Metric>,
    listed: &[MetricSpec],
    absent_reads_zero: bool,
) -> (Vec<Metric>, bool) {
    let mut ok = true;
    let mut out = Vec::with_capacity(listed.len());
    for spec in listed {
        match measured.iter().position(|m| m.name == spec.name) {
            Some(i) => {
                let m = measured.swap_remove(i);
                ok &= m.unit == spec.unit && m.value.is_finite();
                out.push(m);
            }
            None if absent_reads_zero => out.push(Metric::exact(spec.name, spec.unit, 0.0)),
            None => ok = false,
        }
    }
    (out, ok && measured.is_empty())
}

/// Stream labels: every phase and rep draws its inputs from its own
/// child of `--seed`.
const SETUP_STREAM: u64 = 1 << 32;
const LATENCY_STREAM: u64 = 2 << 32;
const TRACED_STREAM: u64 = 3 << 32;
const INLINE_STREAM: u64 = 4 << 32;

/// Runs `cycle` until `budget` is spent and at least `min` cycles ran;
/// returns each cycle's seconds.
fn repeat_for(budget: Duration, min: usize, mut cycle: impl FnMut(usize) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < min || start.elapsed() < budget {
        secs.push(cycle(secs.len()));
    }
    secs
}

/// Appends the process CPU microseconds (user + system, every thread,
/// the generator's included) spent per item since `before`, where
/// `/proc` can say.
fn push_cpu_per_item(before: Option<f64>, items: f64, out: &mut Vec<Metric>) {
    if let (Some(a), Some(b)) = (before, procfs::cpu_seconds()) {
        let us = (b - a) * 1e6 / items;
        out.push(Metric::exact("proc.cpu_us_per_item", "us", us));
    }
}

/// Items per second of each rep of `items` items.
fn rates(items: f64, secs: &[f64]) -> Vec<f64> {
    secs.iter().map(|s| items / s).collect()
}

fn percent(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// What a traced third of a run costs beyond its reps: allocations,
/// context switches of the bench thread.
struct Counters {
    allocs: (u64, u64),
    switches: Option<u64>,
}

impl Counters {
    fn start() -> Counters {
        alloc::set_counting(true);
        Counters {
            allocs: alloc::counts(),
            switches: procfs::voluntary_switches(),
        }
    }

    fn stop(self, items: f64, out: &mut Vec<Metric>) {
        alloc::set_counting(false);
        let (allocs, bytes) = alloc::counts();
        out.push(Metric::exact(
            "proc.allocs_per_kitem",
            "count",
            (allocs - self.allocs.0) as f64 * 1e3 / items,
        ));
        out.push(Metric::exact(
            "proc.alloc_bytes_per_item",
            "B",
            (bytes - self.allocs.1) as f64 / items,
        ));
        if let (Some(a), Some(b)) = (self.switches, procfs::voluntary_switches()) {
            out.push(Metric::exact(
                "proc.ctx_switches_per_kitem",
                "count",
                (b - a) as f64 * 1e3 / items,
            ));
        }
    }
}

/// Medians, per set-up cycle, of the spans that make up `api.*` set-up
/// costs. Set-up cycles are traced as rep 0.
fn setup_span_metrics(tr: &Tracer, out: &mut Vec<Metric>) {
    let us = |name: &str| -> Vec<f64> {
        tr.spans()
            .iter()
            .filter(|s| s.rep == 0 && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    };
    let (build, spawn, drain, drop) = (us("build"), us("spawn"), us("drain"), us("drop"));
    let teardown: Vec<f64> = drain.iter().zip(&drop).map(|(a, b)| a + b).collect();
    if !build.is_empty() && !spawn.is_empty() && !teardown.is_empty() {
        out.push(Metric::over("api.build_us", "us", &build));
        out.push(Metric::over("api.spawn_us", "us", &spawn));
        out.push(Metric::over("api.teardown_us", "us", &teardown));
    }
}

fn write_trace(tr: &Tracer, workload: &str, seed: u64) -> std::io::Result<()> {
    std::fs::create_dir_all(TRACE_DIR)?;
    let path = format!("{TRACE_DIR}/trace_{workload}_{seed}.jsonl");
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tr.write_jsonl(&mut file, workload)?;
    eprintln!("adabench: {} spans written to {path}", tr.spans().len());
    Ok(())
}

struct Run {
    workload: &'static str,
    seed: u64,
    budget: Duration,
    trace: bool,
}

impl Run {
    fn threaded<W: Threaded>(&self, w: &W) -> Raw {
        if self.trace {
            self.trace_threaded(w)
        } else {
            self.measure_threaded(w)
        }
    }

    fn sim(&self, kind: sim::Kind) -> Raw {
        if self.trace {
            self.trace_sim(kind)
        } else {
            self.measure_sim(kind)
        }
    }

    /// Writes the traced run's spans; false (and a message) if it could
    /// not.
    fn write_trace(&self, tr: &Tracer) -> bool {
        let written = write_trace(tr, self.workload, self.seed);
        if let Err(e) = &written {
            eprintln!("adabench: could not write the trace: {e}");
        }
        written.is_ok()
    }

    fn share(&self, share: f64) -> Duration {
        self.budget.mul_f64(share)
    }

    /// The traced run's cold set-up cycles: exactly the minimum, every
    /// cycle leaves seven spans.
    fn setup_threaded<W: Threaded>(&self, w: &W, tr: &mut Tracer, tally: &mut Tally) {
        for i in 0..MIN_SETUP_CYCLES {
            let stream = gen::child(self.seed, SETUP_STREAM + i as u64);
            harness::setup_cycle(w, stream, tr, tally);
        }
    }

    /// The open-loop latency phase.
    fn latency_threaded<W: Threaded>(
        &self,
        w: &W,
        paced: Paced,
        budget: Duration,
        tr: &mut Tracer,
    ) -> harness::Latency {
        let stream = gen::child(self.seed, LATENCY_STREAM);
        harness::latency_phase(w, paced, stream, budget, tr)
    }

    /// The untraced run of any workload: timed reps of `items` items,
    /// each followed by a burst of cold set-up cycles, with the host's
    /// speed taken between any two of them. `rep` and `cycle` return
    /// their wall seconds and what they attempted.
    fn measure(
        &self,
        items: f64,
        mut rep: impl FnMut(usize) -> (f64, Tally),
        mut cycle: impl FnMut(usize) -> (f64, Tally),
    ) -> Raw {
        let budget = self.share(MEASURE_SHARE);
        let mut host = Host::new();
        let mut tally = Tally::default();
        let (mut rates, mut setup, mut slowdowns) = (Vec::new(), Vec::new(), Vec::new());
        let mut rss = None;
        let start = Instant::now();
        let mut before = host.time();
        while rates.len() < MIN_REPS || start.elapsed() < budget {
            let (secs, t) = rep(rates.len());
            tally.add(t);
            let between = host.time();
            let slow = calib::slowdown(before, between);
            rates.push(items / secs * slow);
            slowdowns.push(slow);

            let burst = Instant::now();
            let first = setup.len();
            while setup.len() - first < MIN_SETUP_BURST
                || burst.elapsed().as_secs_f64() < secs * SETUP_BURST_SHARE
            {
                let (cycle_secs, t) = cycle(setup.len());
                tally.add(t);
                setup.push(cycle_secs);
            }
            before = host.time();
            let slow = calib::slowdown(between, before);
            setup[first..].iter_mut().for_each(|secs| *secs /= slow);

            // The high-water mark is read after a fixed amount of work:
            // read at the end, it rose with however many reps the time
            // budget happened to fit (10 % between runs).
            if rates.len() == MIN_REPS {
                rss = procfs::peak_rss_mb();
            }
        }

        Raw {
            tally,
            invariants_hold: rss.is_some(),
            host_slowdown: Some(Summary::of(&slowdowns)),
            metrics: vec![
                Metric::faster_quartile_of_rates("items_per_s", "1/s", &rates),
                Metric::exact("peak_rss_mb", "MB", rss.unwrap_or(f64::NAN)),
                Metric::faster_quartile_of_times("setup_s", "s", &setup),
            ],
        }
    }

    fn measure_threaded<W: Threaded>(&self, w: &W) -> Raw {
        let (mut rep_tr, mut cycle_tr) = (Tracer::new(false), Tracer::new(false));
        let items = w.shape().rep_items;
        // One untimed rep lets thread-local pools and the allocator fill.
        let warm_up = harness::throughput_rep(w, gen::child(self.seed, 0), items, &mut rep_tr);
        let mut raw = self.measure(
            items as f64,
            |i| {
                let stream = gen::child(self.seed, 1 + i as u64);
                let rep = harness::throughput_rep(w, stream, items, &mut rep_tr);
                (rep.secs, rep.tally)
            },
            |i| {
                let stream = gen::child(self.seed, SETUP_STREAM + i as u64);
                let mut tally = Tally::default();
                let secs = harness::setup_cycle(w, stream, &mut cycle_tr, &mut tally);
                (secs, tally)
            },
        );
        raw.tally.add(warm_up.tally);
        raw
    }

    fn trace_threaded<W: Threaded>(&self, w: &W) -> Raw {
        let mut off = Tracer::new(false);
        let mut tr = Tracer::new(true);
        let mut tally = Tally::default();
        let mut metrics = Vec::new();
        let items = w.shape().rep_items;

        self.setup_threaded(w, &mut tr, &mut tally);
        setup_span_metrics(&tr, &mut metrics);

        tally.add(harness::throughput_rep(w, gen::child(self.seed, 0), items, &mut off).tally);
        let cpu0 = procfs::cpu_seconds();
        let untraced = repeat_for(self.share(TRACED_SHARE), MIN_TRACED_REPS, |i| {
            let stream = gen::child(self.seed, 1 + i as u64);
            let rep = harness::throughput_rep(w, stream, items, &mut off);
            tally.add(rep.tally);
            rep.secs
        });
        push_cpu_per_item(cpu0, (items * untraced.len() as u64) as f64, &mut metrics);

        let counters = Counters::start();
        let mut reports = Vec::new();
        let traced = repeat_for(self.share(TRACED_SHARE), MIN_TRACED_REPS, |i| {
            tr.set_rep(1 + i as u32);
            let stream = gen::child(self.seed, TRACED_STREAM + i as u64);
            let Rep {
                secs,
                tally: t,
                report,
            } = harness::throughput_rep(w, stream, items, &mut tr);
            tally.add(t);
            reports.push(report);
            secs
        });
        counters.stop((items * traced.len() as u64) as f64, &mut metrics);

        // Where each traced rep's wall time went, from its spans.
        let selfs = trace::self_times(tr.spans());
        let mut push_ns = vec![0u64; traced.len()];
        let mut drain_ns = vec![0u64; traced.len()];
        for (span, self_ns) in tr.spans().iter().zip(&selfs) {
            if span.rep == 0 {
                continue;
            }
            let rep = span.rep as usize - 1;
            match span.name {
                "push" | "push_batch" => push_ns[rep] += self_ns,
                "drain" => drain_ns[rep] += self_ns,
                _ => {}
            }
        }
        let share_of = |ns: &[u64]| -> Vec<f64> {
            ns.iter()
                .zip(&traced)
                .map(|(&ns, secs)| percent(ns as f64 * 1e-9, *secs))
                .collect()
        };
        metrics.push(Metric::over("api.push_wait_frac", "%", &share_of(&push_ns)));
        metrics.push(Metric::over(
            "api.drain_wait_frac",
            "%",
            &share_of(&drain_ns),
        ));
        let vnodes = w.vnodes() as f64;
        let stage_busy: Vec<f64> = reports
            .iter()
            .zip(&traced)
            .map(|(r, secs)| {
                let busy: f64 = r
                    .stage_metrics
                    .stages()
                    .iter()
                    .filter_map(|s| Some(s.mean_service()?.as_secs_f64() * s.count() as f64))
                    .sum();
                percent(busy, secs * vnodes)
            })
            .collect();
        let node_busy: Vec<f64> = reports
            .iter()
            .zip(&traced)
            .map(|(r, secs)| {
                let busy: f64 = r.node_busy.iter().map(|d| d.as_secs_f64()).sum();
                percent(busy, secs * vnodes)
            })
            .collect();
        metrics.push(Metric::over("engine.stage_busy_frac", "%", &stage_busy));
        metrics.push(Metric::over("engine.node_busy_frac", "%", &node_busy));

        tr.set_rep(0);
        if let Some(paced) = w.paced() {
            let latency = self.latency_threaded(w, paced, self.share(LATENCY_SHARE), &mut tr);
            tally.add(latency.tally);
            let p99 = |v: &[f64]| {
                let mut v = v.to_vec();
                v.sort_by(f64::total_cmp);
                stats::quantile_sorted(&v, 0.99)
            };
            if !latency.burst_us.is_empty() {
                metrics.push(Metric::over("api.latency_p50_us", "us", &latency.burst_us));
                metrics.push(Metric::exact(
                    "api.latency_p99_us",
                    "us",
                    p99(&latency.burst_us),
                ));
                metrics.push(Metric::exact(
                    "api.gen_late_p99_us",
                    "us",
                    p99(&latency.late_us),
                ));
            }
        }

        // The single-thread baseline: the same streams through the
        // inline reference on this thread.
        let inline = repeat_for(Duration::ZERO, MIN_TRACED_REPS, |i| {
            let stream = gen::child(self.seed, INLINE_STREAM + i as u64);
            let span = tr.begin("core.inline");
            let t0 = Instant::now();
            let mut reference = w.new_ref();
            for index in 0..items {
                std::hint::black_box(w.inline(&mut reference, w.input(stream, index)));
            }
            let secs = t0.elapsed().as_secs_f64();
            tr.end_calls(span, items as u32);
            secs
        });
        let untraced_rate = stats::median(&rates(items as f64, &untraced));
        let traced_rate = stats::median(&rates(items as f64, &traced));
        let inline_rate = rates(items as f64, &inline);
        metrics.push(Metric::exact(
            "core.engine_efficiency",
            "%",
            percent(untraced_rate, stats::median(&inline_rate)),
        ));
        metrics.push(Metric::over("core.inline_items_per_s", "1/s", &inline_rate));
        metrics.push(Metric::exact(
            "trace.overhead_frac",
            "%",
            percent(untraced_rate - traced_rate, untraced_rate),
        ));

        probes::run_for(self.workload, self.seed, &mut tr, &mut metrics);
        Raw {
            tally,
            invariants_hold: self.write_trace(&tr),
            host_slowdown: None,
            metrics,
        }
    }

    fn measure_sim(&self, kind: sim::Kind) -> Raw {
        let mut tr = Tracer::new(false);
        let scenario = sim::Sim::new(kind, self.seed);
        let first = scenario.run();
        // The simulated outcome is exact: every rep must reproduce it.
        let mut identical = true;
        let mut raw = self.measure(
            scenario.items as f64,
            |_| {
                let t0 = Instant::now();
                let report = scenario.run();
                let secs = t0.elapsed().as_secs_f64();
                identical &= report.makespan == first.makespan
                    && report.latencies == first.latencies
                    && report.planning_cycles == first.planning_cycles;
                (secs, scenario.tally(&report))
            },
            |_| {
                let mut tally = Tally::default();
                let secs = scenario.setup_cycle(&mut tr, &mut tally);
                (secs, tally)
            },
        );
        raw.tally.add(scenario.tally(&first));
        raw.invariants_hold &= identical;
        raw
    }

    fn trace_sim(&self, kind: sim::Kind) -> Raw {
        let mut tr = Tracer::new(true);
        let mut tally = Tally::default();
        let mut metrics = Vec::new();
        let scenario = sim::Sim::new(kind, self.seed);
        for _ in 0..MIN_SETUP_CYCLES {
            scenario.setup_cycle(&mut tr, &mut tally);
        }
        setup_span_metrics(&tr, &mut metrics);

        let items = scenario.items as f64;
        let first = scenario.run();
        tally.add(scenario.tally(&first));
        let mut timed = |tr: &mut Tracer, policy: Policy, share: f64, min: usize| {
            repeat_for(self.share(share), min, |i| {
                tr.set_rep(1 + i as u32);
                let span = tr.begin("run");
                let t0 = Instant::now();
                let report = scenario.run_under(policy);
                let secs = t0.elapsed().as_secs_f64();
                tr.end(span);
                tally.add(scenario.tally(&report));
                secs
            })
        };
        let own = scenario.policy();
        let cpu0 = procfs::cpu_seconds();
        let untraced = timed(&mut Tracer::new(false), own, TRACED_SHARE, MIN_TRACED_REPS);
        push_cpu_per_item(cpu0, items * untraced.len() as f64, &mut metrics);
        let counters = Counters::start();
        let traced = timed(&mut tr, own, TRACED_SHARE, MIN_TRACED_REPS);
        counters.stop(items * traced.len() as f64, &mut metrics);
        // The same scenario with the planning taken out: what is left is
        // the event loop, so the difference is the controller's.
        let unplanned = timed(&mut tr, Policy::Static, 0.15, 3);
        tr.set_rep(0);

        let wall = stats::median(&untraced);
        let bare = stats::median(&unplanned);
        metrics.push(Metric::exact("core.sim_item_us", "us", bare * 1e6 / items));
        if first.planning_cycles > 0 {
            metrics.push(Metric::exact(
                "runtime.plan_cycle_us",
                "us",
                (wall - bare) * 1e6 / first.planning_cycles as f64,
            ));
        }
        let count = |name, n: usize| Metric::exact(name, "count", n as f64);
        metrics.push(count(
            "runtime.planning_cycles",
            first.planning_cycles as usize,
        ));
        metrics.push(count("runtime.remaps", first.adaptations.len()));
        metrics.push(count("runtime.migrations", first.migrations as usize));
        // The simulated outcome: the paper's headline, exact, and the
        // same in every rep (the untraced run asserts it).
        let sim_secs = |name, secs: f64| Metric::exact(name, "s", secs);
        metrics.push(sim_secs("sim.makespan_s", first.makespan.as_secs_f64()));
        for (name, q) in [("sim.latency_p50_s", 0.5), ("sim.latency_p99_s", 0.99)] {
            if let Some(d) = first.latency_percentile(q) {
                metrics.push(sim_secs(name, d.as_secs_f64()));
            }
        }
        metrics.push(sim_secs(
            "sim.mean_latency_s",
            first.mean_latency.as_secs_f64(),
        ));
        metrics.push(Metric::exact(
            "trace.overhead_frac",
            "%",
            percent(stats::median(&traced) - wall, wall),
        ));

        probes::run_for(self.workload, self.seed, &mut tr, &mut metrics);
        Raw {
            tally,
            invariants_hold: self.write_trace(&tr),
            host_slowdown: None,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let cli = Cli::parse(&args(&[
            "--workload",
            "keyed_dag",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert!(matches!(&cli.mode, Mode::One(w) if w == "keyed_dag"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 10, true));
        let all = Cli::parse(&args(&["--all"])).unwrap();
        assert!(matches!(all.mode, Mode::All));
        assert_eq!(
            (all.seed, all.seconds, all.trace),
            (DEFAULT_SEED, spec::run_seconds(), false)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload"],
            &["--seed", "x", "--all"],
            &["--seconds", "0", "--all"],
            &["--seconds", "61", "--all"],
            &["--trace", "2", "--all"],
            &["--selfcheck", "1"],
            &["--frobnicate"],
            &["--seed", "1"],
        ] {
            assert!(Cli::parse(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn output_is_checked_against_the_listed_metrics() {
        let listed = vec![
            MetricSpec {
                name: "a",
                unit: "us",
                higher_is_better: false,
                bound: None,
            },
            MetricSpec {
                name: "b",
                unit: "count",
                higher_is_better: false,
                bound: None,
            },
        ];
        let measured = || {
            vec![
                Metric::exact("b", "count", 2.0),
                Metric::exact("a", "us", 1.0),
            ]
        };
        let (out, ok) = in_listed_order(measured(), &listed, false);
        assert!(ok);
        assert_eq!(out.iter().map(|m| m.name).collect::<Vec<_>>(), ["a", "b"]);

        let (out, ok) = in_listed_order(vec![Metric::exact("a", "us", 1.0)], &listed, true);
        assert!(ok, "an unexercised per-layer metric reads 0");
        assert_eq!((out[1].name, out[1].value), ("b", 0.0));
        let (_, ok) = in_listed_order(vec![Metric::exact("a", "us", 1.0)], &listed, false);
        assert!(!ok, "a missing end-to-end metric is an error");

        let mut extra = measured();
        extra.push(Metric::exact("c", "us", 3.0));
        assert!(!in_listed_order(extra, &listed, true).1, "unlisted metric");
        let wrong_unit = vec![
            Metric::exact("a", "ms", 1.0),
            Metric::exact("b", "count", 2.0),
        ];
        assert!(!in_listed_order(wrong_unit, &listed, true).1);
        let nan = vec![
            Metric::exact("a", "us", f64::NAN),
            Metric::exact("b", "count", 2.0),
        ];
        assert!(!in_listed_order(nan, &listed, true).1);
    }

    #[test]
    fn selfcheck_rows_judge_spread_and_drift() {
        let spec = MetricSpec {
            name: "items_per_s",
            unit: "1/s",
            higher_is_better: true,
            bound: Some(0.1),
        };
        let steady = SelfcheckRow::of(&[100.0, 101.0, 99.0], &[100.0, 100.5, 99.5], &spec);
        assert_eq!(steady.verdict, "pass");
        let slower = SelfcheckRow::of(&[100.0, 101.0, 99.0], &[90.0, 91.0, 89.0], &spec);
        assert!((slower.worse_by - 0.1).abs() < 1e-9);
        assert_eq!(slower.verdict, "FAIL");
        let noisy = [80.0, 82.0, 85.0, 100.0, 100.0, 115.0, 118.0, 120.0];
        let calm = [99.0, 99.5, 100.0, 100.0, 100.0, 100.0, 100.5, 101.0];
        assert_eq!(SelfcheckRow::of(&noisy, &calm, &spec).verdict, "FAIL");
        // Small sets are judged on spread too: of five values the
        // quartiles lie halfway to the extremes, of two beyond them.
        let five = SelfcheckRow::of(&noisy[1..6], &calm[1..6], &spec);
        assert_eq!(five.quartiles_a, [83.5, 100.0, 107.5]);
        assert_eq!(five.verdict, "FAIL");
        let two = SelfcheckRow::of(&[100.0, 108.0], &[104.0, 104.0], &spec);
        assert!((two.iqr_frac - 0.12 / 1.04).abs() < 1e-9 && two.range_frac < two.iqr_frac);
        assert_eq!(two.verdict, "FAIL");
        let setup = MetricSpec {
            name: "setup_s",
            higher_is_better: false,
            ..spec
        };
        let bimodal = SelfcheckRow::of(&[1.0, 5.0, 1.0], &[1.0, 1.0, 5.0], &setup);
        assert_ne!(bimodal.verdict, "FAIL", "set-up is judged on medians only");
    }
}
