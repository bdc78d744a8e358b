//! `sim_adaptive` and `sim_static`: the paper's scenario on the
//! discrete-event backend, through the facade's batch `run()`.
//!
//! A 6-stage pipeline with one parallel block and ramped stage costs
//! runs on the heterogeneous 8-node testbed; at t = 60 s the fastest
//! node is stepped down to 15 % availability ("another grid user's job
//! arrived").
//!
//! ```text
//!        ┌─ s1 ─┐
//! s0 ──▶ │      ├──▶ s3 ──▶ s4 ──▶ s5
//!        └─ s2 ─┘
//! ```
//!
//! * `sim_adaptive` — `Policy::Periodic{5 s}`, uniform arrivals at 0.6 ×
//!   the launch mapping's predicted capacity for 1300 simulated seconds
//!   (≥ 250 planning cycles). Wall time is ~98 % planning (`monitor`
//!   forecast → `mapper` search and `evaluate` → `runtime` decide and
//!   install); the simulated outcome is the paper's headline and is
//!   exact. The load is 0.6, not 0.8: the step takes away about a
//!   quarter of the grid, and at 0.8 the adapted pipeline stays
//!   overloaded, so latency measures the backlog (p50 69–99 s across
//!   seeds) instead of the mapping.
//! * `sim_static` — the same pipeline and grid under `Policy::Static`
//!   with the whole stream present at t = 0: zero planning cycles, so
//!   the `core::simengine` event loop, the facade and `gridsim` do all
//!   the work. It is the bypass for planner optimisations.
//!
//! `--seed` draws every item's work at every stage (± 20 % around the
//! stage mean). The grid's background-load traces are fixed: drawn from
//! `--seed` they moved the simulated p50 latency by 10 % between seeds,
//! which a regression bound cannot tell from a worse planner.

use crate::harness::Tally;
use crate::trace::Tracer;
use adapipe::api::{ArrivalProcess, Backend, Branch, Pipeline, RunConfig};
use adapipe_core::spec::{StageSpec, UniformWork};
use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::grid::{testbed_hetero8, GridSpec};
use adapipe_gridsim::node::NodeId;
use adapipe_gridsim::time::{SimDuration, SimTime};
use adapipe_mapper::search::{plan, PlannerConfig};
use adapipe_runtime::policy::Policy;
use adapipe_runtime::report::RunReport;
use std::time::Instant;

/// Mean work units per item of s0..s5: a ramp, heaviest last.
const STAGE_WORK: [f64; 6] = [0.4, 0.6, 0.8, 1.0, 1.2, 1.4];
/// Bytes forwarded on every stage boundary.
const ITEM_BYTES: u64 = 32 << 10;
/// Per-item work varies uniformly by ± this share of the stage's mean.
const WORK_JITTER: f64 = 0.2;
/// Seed of the testbed's background-load traces.
const GRID_SEED: u64 = 7;
const STEP_AT_SECS: f64 = 60.0;
const STEP_TO: f64 = 0.15;
/// Arrival rate as a share of the launch mapping's predicted capacity.
const ARRIVAL_LOAD: f64 = 0.6;
/// Simulated seconds of arrivals: 260 planning periods of 5 s.
const ARRIVAL_SPAN_SECS: f64 = 1300.0;
/// Stream length of `sim_static`.
const STATIC_ITEMS: u64 = 60_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Adaptive,
    Static,
}

pub struct Sim {
    seed: u64,
    grid: GridSpec,
    /// Items of one rep.
    pub items: u64,
    policy: Policy,
    arrivals: ArrivalProcess,
}

/// The testbed with the load step applied.
pub fn grid() -> GridSpec {
    let mut grid = testbed_hetero8(GRID_SEED);
    FaultPlan::new()
        .slowdown(
            NodeId(0),
            SimTime::from_secs_f64(STEP_AT_SECS),
            SimTime::from_secs_f64(1e9),
            STEP_TO,
        )
        .apply(&mut grid);
    grid
}

fn stage(i: usize, seed: u64) -> StageSpec {
    StageSpec::balanced(format!("s{i}"), STAGE_WORK[i], ITEM_BYTES).with_work(Box::new(
        UniformWork::new(STAGE_WORK[i], WORK_JITTER, seed.wrapping_add(i as u64)),
    ))
}

/// The scenario's pipeline. The stage functions only pass the item on:
/// the batch simulator executes cost metadata, not functions.
pub fn pipeline(seed: u64, policy: Policy, arrivals: ArrivalProcess) -> Pipeline<u64, u64> {
    let pass = |x: u64| x;
    let builder = Pipeline::<u64>::builder().input_bytes(ITEM_BYTES);
    // Paced arrivals under a static mapping are the deliberate baseline
    // of `runtime.plan_cycle_us`, and must be declared as one.
    let builder = if policy == Policy::Static {
        builder.as_baseline()
    } else {
        builder
    };
    builder
        .stage_with(stage(0, seed), pass)
        .parallel(vec![
            Branch::new().stage_with(stage(1, seed), pass),
            Branch::new().stage_with(stage(2, seed), pass),
        ])
        .merge_with(stage(3, seed), |parts: Vec<u64>| parts[0])
        .stage_with(stage(4, seed), pass)
        .stage_with(stage(5, seed), pass)
        .policy(policy)
        .arrivals(arrivals)
        .build()
        .expect("valid pipeline")
}

impl Sim {
    pub fn new(kind: Kind, seed: u64) -> Sim {
        let grid = grid();
        let (items, policy, arrivals) = match kind {
            Kind::Adaptive => {
                // The arrival rate is a fixed share of what the planner's
                // own launch mapping is predicted to sustain at t = 0.
                let probe = pipeline(seed, Policy::Static, ArrivalProcess::AllAtOnce);
                let nominal = plan(
                    &probe.spec().profile(),
                    &grid.rates_at(SimTime::ZERO),
                    grid.topology(),
                    &PlannerConfig::default(),
                )
                .prediction
                .throughput;
                let rate = ARRIVAL_LOAD * nominal;
                (
                    (rate * ARRIVAL_SPAN_SECS) as u64,
                    Policy::Periodic {
                        interval: SimDuration::from_secs(5),
                    },
                    ArrivalProcess::Uniform { rate },
                )
            }
            Kind::Static => (STATIC_ITEMS, Policy::Static, ArrivalProcess::AllAtOnce),
        };
        Sim {
            seed,
            grid,
            items,
            policy,
            arrivals,
        }
    }

    fn config(&self) -> RunConfig {
        RunConfig {
            items: self.items,
            // The default horizon (a simulated week) truncates the
            // static run, whose stream outlasts it.
            max_sim_time: SimDuration::from_secs(1 << 40),
            ..RunConfig::default()
        }
    }

    /// One full simulated run under the scenario's own policy.
    pub fn run(&self) -> RunReport {
        self.run_under(self.policy)
    }

    /// The same scenario, arrivals included, under another policy:
    /// `Policy::Static` gives the run with the planning taken out.
    pub fn run_under(&self, policy: Policy) -> RunReport {
        pipeline(self.seed, policy, self.arrivals)
            .run(Backend::Sim(&self.grid), self.config())
            .expect("the simulator accepts the scenario")
            .report
    }

    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Items submitted and items the simulated run failed to complete.
    pub fn tally(&self, report: &RunReport) -> Tally {
        tally_of(report, self.items)
    }

    /// One cold set-up cycle: grid → build → spawn (which plans the
    /// launch mapping) → one item through a live simulated session →
    /// drain → drop. Returns its wall seconds.
    pub fn setup_cycle(&self, tr: &mut Tracer, tally: &mut Tally) -> f64 {
        let t0 = Instant::now();
        let cycle = tr.begin("setup_cycle");
        let t = tr.begin("grid");
        let grid = grid();
        tr.end(t);
        let t = tr.begin("build");
        let pipeline = pipeline(self.seed, self.policy, self.arrivals);
        tr.end(t);
        let t = tr.begin("spawn");
        let mut session = pipeline
            .spawn(Backend::Sim(&grid), self.config())
            .expect("the simulator accepts the scenario");
        tr.end(t);
        let t = tr.begin("push");
        session
            .push(self.seed)
            .expect("a live session accepts pushes");
        tr.end(t);
        let t = tr.begin("drain");
        let handle = session.drain();
        tr.end(t);
        let t = tr.begin("drop");
        let mut one = tally_of(&handle.report, 1);
        one.failed += u64::from(handle.outputs != [self.seed]) + u64::from(handle.error.is_some());
        tally.add(one);
        drop(handle);
        tr.end(t);
        tr.end(cycle);
        t0.elapsed().as_secs_f64()
    }
}

fn tally_of(report: &RunReport, items: u64) -> Tally {
    Tally {
        attempted: items,
        failed: items.abs_diff(report.completed)
            + report.dead_letters
            + u64::from(report.truncated),
    }
}
