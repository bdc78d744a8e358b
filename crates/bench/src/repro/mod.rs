//! The reconstructed evaluation as data: one function per table
//! ([`t1`]–[`t5`]), figure ([`f1`]–[`f6`]) and ablation ([`a1`], [`a2`]),
//! each returning the [`Experiment`] the `repro` binary prints. The
//! rows are a return value, so `tests/paper_fidelity.rs` byte-compares
//! them with the committed `crates/bench/repro/<id>.csv` and asserts
//! the claim each header states.
//!
//! All but two run on the simulator and repeat to the last digit; `t3`
//! times the planner and `f6` runs real threads against the wall clock.

mod ablations;
mod figures;
mod tables;

pub use ablations::{a1, a2};
pub use figures::{f1, f2, f3, f4, f5, f6};
pub use tables::{t1, t2, t3, t4, t5};

use crate::Table;
use adapipe::core::simengine::run as sim_run;
use adapipe::prelude::*;
use std::fmt;

/// Every experiment by the id `repro` takes on its command line, in the
/// order `repro all` runs them.
#[allow(clippy::type_complexity)] // a slice of (id, function) pairs reads best spelled out
pub const EXPERIMENTS: &[(&str, fn() -> Experiment)] = &[
    ("t1", t1),
    ("t2", t2),
    ("f1", f1),
    ("f2", f2),
    ("f3", f3),
    ("f4", f4),
    ("t3", t3),
    ("f5", f5),
    ("f6", f6),
    ("t4", t4),
    ("t5", t5),
    ("a1", a1),
    ("a2", a2),
];

/// One experiment's output: the banner fields, then its tables and the
/// lines printed around them, in print order.
pub struct Experiment {
    /// The label the banner opens with, e.g. `F2`.
    pub id: &'static str,
    /// What is measured.
    pub title: &'static str,
    /// The shape the paper's claim predicts for the rows.
    pub expectation: &'static str,
    /// Tables and free-standing lines, in print order.
    body: Vec<Part>,
}

/// One piece of an [`Experiment`]'s body.
enum Part {
    /// A line of text (a context line before a table, a verdict after).
    Note(String),
    /// A table of rows.
    Table(Table),
}

impl Experiment {
    fn new(id: &'static str, title: &'static str, expectation: &'static str) -> Self {
        Experiment {
            id,
            title,
            expectation,
            body: Vec::new(),
        }
    }

    fn note(&mut self, line: String) {
        self.body.push(Part::Note(line));
    }

    fn table(&mut self, table: Table) {
        self.body.push(Part::Table(table));
    }

    /// The tables, in print order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.body.iter().filter_map(|part| match part {
            Part::Table(table) => Some(table),
            Part::Note(_) => None,
        })
    }

    /// The free-standing lines, in print order.
    pub fn notes(&self) -> impl Iterator<Item = &str> {
        self.body.iter().filter_map(|part| match part {
            Part::Note(line) => Some(line.as_str()),
            Part::Table(_) => None,
        })
    }

    /// Every table's `csv,` lines: what `grep '^csv,'` keeps of the
    /// printed experiment.
    pub fn csv(&self) -> String {
        self.tables().map(Table::csv).collect()
    }
}

/// The banner, then the body.
impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rule = "=".repeat(62);
        writeln!(f, "{rule}")?;
        writeln!(f, "{}: {}", self.id, self.title)?;
        writeln!(f, "expected shape: {}", self.expectation)?;
        writeln!(f, "{rule}")?;
        writeln!(f)?;
        for part in &self.body {
            match part {
                Part::Note(line) => writeln!(f, "{line}")?,
                Part::Table(table) => write!(f, "{table}")?,
            }
        }
        Ok(())
    }
}

/// Unit-speed single-core nodes `n0, n1, …` under `loads`, every pair
/// joined by `link`.
fn grid_of(loads: impl IntoIterator<Item = LoadModel>, link: LinkSpec) -> GridSpec {
    let nodes: Vec<Node> = loads
        .into_iter()
        .enumerate()
        .map(|(i, load)| Node::new(NodeSpec::new(format!("n{i}"), 1.0, 1), load))
        .collect();
    let topology = Topology::uniform(nodes.len(), link);
    GridSpec::new(nodes, topology)
}

/// `np` free nodes joined by `link`.
fn free_grid(np: usize, link: LinkSpec) -> GridSpec {
    grid_of(std::iter::repeat_n(LoadModel::free(), np), link)
}

/// Drops `node` to `level` of its speed from `at_s` seconds on.
fn collapse(grid: &mut GridSpec, node: usize, at_s: f64, level: f64) {
    FaultPlan::new()
        .slowdown(
            NodeId(node),
            SimTime::from_secs_f64(at_s),
            SimTime::from_secs_f64(1e6),
            level,
        )
        .apply(grid);
}

/// The F1 / F5 scenario: four free LAN nodes, node 1 collapsing to 15 %
/// at t = 60 s.
fn load_step_grid() -> GridSpec {
    let mut grid = free_grid(4, LinkSpec::lan());
    collapse(&mut grid, 1, 60.0, 0.15);
    grid
}

/// The F4 / A2 scenario: nodes 1 and 3 of four alternate 1.0 ↔ 0.1
/// every `period`, half a period apart so the grid is never uniformly
/// bad.
fn square_wave_grid(period: SimDuration) -> GridSpec {
    let wave = |offset| LoadModel::square_wave(1.0, 0.1, period, 0.5, offset);
    let loads = [
        LoadModel::free(),
        wave(SimDuration::ZERO),
        LoadModel::free(),
        wave(period.mul_f64(0.5)),
    ];
    grid_of(loads, LinkSpec::lan())
}

/// One simulated run of the chain the four-node scenarios share (four
/// unit-work stages, 10 kB items), launched one stage per node; `tune`
/// adjusts the configuration first.
fn run_chain4(
    grid: &GridSpec,
    session: &Session,
    items: u64,
    tune: impl FnOnce(&mut RunConfig),
) -> RunReport {
    let mut cfg = RunConfig {
        items,
        initial_mapping: Some(Mapping::from_assignment(&[
            NodeId(0),
            NodeId(1),
            NodeId(2),
            NodeId(3),
        ])),
        ..RunConfig::default()
    };
    tune(&mut cfg);
    sim_run(grid, &PipelineSpec::balanced(4, 1.0, 10_000), session, &cfg)
}

/// A run's makespan in seconds.
fn secs(report: &RunReport) -> f64 {
    report.makespan.as_secs_f64()
}
