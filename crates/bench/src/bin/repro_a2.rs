//! Ablation A2 — which stability mechanism pays at which migration cost?
//!
//! Under load oscillating near the control period, aliased forecasts
//! hallucinate large gains and the cost/benefit rule alone cannot stop
//! the controller from chasing them. The sweep below raises the fixed
//! migration overhead from free to crippling and compares:
//!
//! * `chase` — default stack (hysteresis + warm-up + guard, confirm 1);
//! * `confirm` — the same plus 2-tick verdict confirmation;
//! * `bare` — hysteresis only (guard and warm-up disabled).
//!
//! Expected: with cheap migrations `chase` is best (tracking the wave is
//! profitable and reverting is nearly free); as overhead grows, `chase`
//! pays for every hallucinated move and `confirm` takes over; `bare` is
//! dominated everywhere it differs.

use adapipe_bench::{banner, under, Table};
use adapipe_core::prelude::*;
use adapipe_core::simengine::run as sim_run;
use adapipe_gridsim::prelude::*;
use adapipe_mapper::prelude::Mapping;

fn wave_grid() -> GridSpec {
    let period = SimDuration::from_secs(10); // 2× the adaptation interval
    let nodes = (0..4)
        .map(|i| {
            let load = match i {
                1 => LoadModel::square_wave(1.0, 0.1, period, 0.5, SimDuration::ZERO),
                3 => LoadModel::square_wave(1.0, 0.1, period, 0.5, period.mul_f64(0.5)),
                _ => LoadModel::free(),
            };
            Node::new(NodeSpec::new(format!("n{i}"), 1.0, 1), load)
        })
        .collect();
    GridSpec::new(nodes, Topology::uniform(4, LinkSpec::lan()))
}

fn main() {
    banner(
        "A2 (ablation)",
        "stability mechanisms vs migration overhead, oscillating load",
        "cheap migrations: chasing wins; expensive migrations: 2-tick \
         confirmation wins by refusing hallucinated gains; the bare \
         controller is never better than both",
    );

    let spec = PipelineSpec::balanced(4, 1.0, 10_000);
    let mapping = Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    let items = 400u64;

    let static_r = sim_run(
        &wave_grid(),
        &spec,
        &Session::default(),
        &RunConfig {
            items,
            initial_mapping: Some(mapping.clone()),
            ..RunConfig::default()
        },
    );
    println!("static baseline: {:.1}s\n", static_r.makespan.as_secs_f64());

    let mut table = Table::new(&[
        "overhead(s)",
        "chase(s)",
        "chase remaps",
        "confirm(s)",
        "confirm remaps",
        "bare(s)",
        "bare remaps",
    ]);
    for overhead_ms in [0u64, 100, 1_000, 5_000, 20_000] {
        let run = |confirm: u32, guard: bool| {
            let mut cfg = RunConfig {
                items,
                initial_mapping: Some(mapping.clone()),
                ..RunConfig::default()
            };
            cfg.controller.remap_overhead = SimDuration::from_millis(overhead_ms);
            cfg.controller.confirm_ticks = confirm;
            if !guard {
                cfg.controller.guard_bad_ticks = 0;
                cfg.controller.warmup_ticks = 0;
            }
            sim_run(
                &wave_grid(),
                &spec,
                &under(Policy::periodic_default()),
                &cfg,
            )
        };
        let chase = run(1, true);
        let confirm = run(2, true);
        let bare = run(1, false);
        table.row(vec![
            format!("{:.1}", overhead_ms as f64 / 1000.0),
            format!("{:.1}", chase.makespan.as_secs_f64()),
            chase.adaptation_count().to_string(),
            format!("{:.1}", confirm.makespan.as_secs_f64()),
            confirm.adaptation_count().to_string(),
            format!("{:.1}", bare.makespan.as_secs_f64()),
            bare.adaptation_count().to_string(),
        ]);
    }
    table.print();
    println!(
        "reference: static {:.1}s — the best column should track it within \
         ~10% at every overhead",
        static_r.makespan.as_secs_f64()
    );
}
