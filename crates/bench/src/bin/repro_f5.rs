//! Figure 5 — sensitivity to the monitoring and adaptation knobs.
//!
//! Re-runs the Figure-1 load-step scenario sweeping (a) the adaptation
//! interval and (b) the forecaster observation window, reporting
//! adaptive makespan for each setting. Expectations: very long
//! intervals react too slowly; very long windows dilute the step signal;
//! and there is a broad plateau of good settings in between (the pattern
//! is not fragile).

use adapipe_bench::{banner, under, Table};
use adapipe_core::prelude::*;
use adapipe_core::simengine::run as sim_run;
use adapipe_gridsim::prelude::*;
use adapipe_mapper::prelude::*;

fn scenario_grid() -> GridSpec {
    let nodes = (0..4)
        .map(|i| Node::new(NodeSpec::new(format!("n{i}"), 1.0, 1), LoadModel::free()))
        .collect();
    let mut grid = GridSpec::new(nodes, Topology::uniform(4, LinkSpec::lan()));
    FaultPlan::new()
        .slowdown(
            NodeId(1),
            SimTime::from_secs_f64(60.0),
            SimTime::from_secs_f64(1e6),
            0.15,
        )
        .apply(&mut grid);
    grid
}

fn main() {
    banner(
        "F5",
        "knob sensitivity: adaptation interval x observation window (10% sensor noise)",
        "a broad plateau of good settings: the NWS ensemble de-sensitises \
         the window choice (it switches to whatever member fits), and only \
         extreme intervals (>> step timescale) degrade",
    );

    let spec = PipelineSpec::balanced(4, 1.0, 10_000);
    let mapping = Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    let items = 400u64;

    // Static baseline for reference.
    let static_r = sim_run(
        &scenario_grid(),
        &spec,
        &Session::default(),
        &RunConfig {
            items,
            initial_mapping: Some(mapping.clone()),
            ..RunConfig::default()
        },
    );
    println!("static baseline: {:.1}s\n", static_r.makespan.as_secs_f64());

    let intervals = [1u64, 2, 5, 10, 30, 60];
    let windows = [2usize, 4, 8, 16, 64];

    let mut headers: Vec<String> = vec!["interval(s) \\ window".to_string()];
    headers.extend(windows.iter().map(|w| format!("w={w}")));
    let mut table = Table::new(&headers.iter().map(|s| s.as_str()).collect::<Vec<_>>());

    for &interval_s in &intervals {
        let mut row = vec![interval_s.to_string()];
        for &window in &windows {
            let mut cfg = RunConfig {
                items,
                initial_mapping: Some(mapping.clone()),
                observation_noise: 0.10,
                noise_seed: 7,
                ..RunConfig::default()
            };
            cfg.controller.monitor_window = window;
            let report = sim_run(
                &scenario_grid(),
                &spec,
                &under(Policy::Periodic {
                    interval: SimDuration::from_secs(interval_s),
                }),
                &cfg,
            );
            row.push(format!("{:.1}", report.makespan.as_secs_f64()));
        }
        table.row(row);
    }
    table.print();
    println!("cells: adaptive makespan in seconds (lower is better)");
}
