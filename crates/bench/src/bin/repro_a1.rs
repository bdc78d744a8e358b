//! Ablation A1 — does the NWS ensemble earn its keep?
//!
//! The controller's forecaster is the only component standing between
//! raw availability samples and planning decisions. This ablation
//! re-runs a volatile-grid scenario with each predictor family driving
//! the same controller, measuring end-to-end makespan. The ensemble
//! should match the best individual family without knowing in advance
//! which one that is — that is precisely its job.

use adapipe_bench::{banner, under, Table};
use adapipe_core::prelude::*;
use adapipe_core::simengine::run as sim_run;
use adapipe_gridsim::prelude::*;
use adapipe_mapper::prelude::*;
use adapipe_monitor::sensor::ForecasterKind;

/// A grid mixing an abrupt step, a square wave, and a random walk — no
/// single predictor family is ideal for all three.
fn volatile_grid(seed: u64) -> GridSpec {
    let nodes = vec![
        Node::new(NodeSpec::new("steady", 1.0, 1), LoadModel::free()),
        Node::new(
            NodeSpec::new("stepper", 1.0, 1),
            LoadModel::step(1.0, 0.15, SimTime::from_secs_f64(60.0)),
        ),
        Node::new(
            NodeSpec::new("waver", 1.0, 1),
            LoadModel::square_wave(
                1.0,
                0.3,
                SimDuration::from_secs(80),
                0.5,
                SimDuration::from_secs(40),
            ),
        ),
        Node::new(
            NodeSpec::new("walker", 1.0, 1),
            LoadModel::random_walk(
                seed,
                0.8,
                0.08,
                SimDuration::from_secs(4),
                0.3,
                1.0,
                SimDuration::from_secs(600),
            ),
        ),
    ];
    GridSpec::new(nodes, Topology::uniform(4, LinkSpec::lan()))
}

fn main() {
    banner(
        "A1 (ablation)",
        "forecaster family driving the controller, volatile 4-node grid",
        "the NWS ensemble sits at or near the best family on every seed; \
         naive persistence over-reacts to the wave, running-mean \
         under-reacts to the step",
    );

    let spec = PipelineSpec::balanced(4, 1.0, 10_000);
    let mapping = Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    let items = 500u64;
    let seeds = [3u64, 7, 11];

    let mut table = Table::new(&["forecaster", "seed3(s)", "seed7(s)", "seed11(s)", "mean(s)"]);
    let mut summary: Vec<(String, f64)> = Vec::new();
    for kind in ForecasterKind::all() {
        let mut cells = vec![kind.name().to_string()];
        let mut sum = 0.0;
        for &seed in &seeds {
            let mut cfg = RunConfig {
                items,
                initial_mapping: Some(mapping.clone()),
                ..RunConfig::default()
            };
            cfg.controller.forecaster = kind;
            let report = sim_run(
                &volatile_grid(seed),
                &spec,
                &under(Policy::periodic_default()),
                &cfg,
            );
            let s = report.makespan.as_secs_f64();
            sum += s;
            cells.push(format!("{s:.1}"));
        }
        let mean = sum / seeds.len() as f64;
        cells.push(format!("{mean:.1}"));
        summary.push((kind.name().to_string(), mean));
        table.row(cells);
    }
    table.print();

    let best = summary
        .iter()
        .map(|&(_, m)| m)
        .fold(f64::INFINITY, f64::min);
    let ensemble = summary
        .iter()
        .find(|(n, _)| n == "nws_ensemble")
        .map(|&(_, m)| m)
        .expect("ensemble row present");
    println!(
        "ensemble mean {:.1}s vs best family {:.1}s ({:+.1}%)",
        ensemble,
        best,
        (ensemble / best - 1.0) * 100.0
    );
}
