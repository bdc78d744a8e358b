//! Figure 4 — adaptivity gain vs load volatility (and the thrashing
//! regime).
//!
//! Square-wave background load (availability alternating 1.0 ↔ 0.1) on
//! two of four nodes, sweeping the wave period from far below to far
//! above the 5 s adaptation period. Gain = static / adaptive makespan.
//!
//! The interesting regimes:
//! * period ≪ adaptation interval — the controller cannot track the
//!   load; hysteresis must keep it from thrashing (gain ≈ 1, not < 1);
//! * period ≈ interval — danger zone: naive adaptation (no hysteresis)
//!   loses to static here;
//! * period ≫ interval — adaptation pays off fully.

use adapipe_bench::{banner, under, Table};
use adapipe_core::prelude::*;
use adapipe_core::simengine::run as sim_run;
use adapipe_gridsim::prelude::*;
use adapipe_mapper::decide::DecisionConfig;
use adapipe_mapper::mapping::Mapping;

fn grid_with_wave(period: SimDuration) -> GridSpec {
    let nodes = (0..4)
        .map(|i| {
            let load = if i == 1 || i == 3 {
                LoadModel::square_wave(
                    1.0,
                    0.1,
                    period,
                    0.5,
                    // Offset the two waves so the grid is never uniformly bad.
                    if i == 3 {
                        period.mul_f64(0.5)
                    } else {
                        SimDuration::ZERO
                    },
                )
            } else {
                LoadModel::free()
            };
            Node::new(NodeSpec::new(format!("n{i}"), 1.0, 1), load)
        })
        .collect();
    GridSpec::new(nodes, Topology::uniform(4, LinkSpec::lan()))
}

fn main() {
    banner(
        "F4",
        "adaptivity gain vs load volatility (square-wave period sweep)",
        "gain ~1 for very short periods (hysteresis prevents loss), dips \
         near the adaptation interval for the naive controller, grows \
         toward the static-load gain for long periods",
    );

    let interval = SimDuration::from_secs(5);
    let items = 600u64;
    let spec = PipelineSpec::balanced(4, 1.0, 10_000);
    let mapping = Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);

    let mut table = Table::new(&[
        "period(s)",
        "static(s)",
        "adaptive(s)",
        "naive(s)",
        "gain",
        "gain naive",
        "remaps",
        "remaps naive",
    ]);

    for period_s in [2u64, 5, 10, 20, 60, 120, 300] {
        let period = SimDuration::from_secs(period_s);
        // `stable` = the full stability stack (hysteresis + warm-up +
        // regret guard); `naive` strips all three.
        let run = |policy: Policy, stable: bool| {
            let mut cfg = RunConfig {
                items,
                initial_mapping: Some(mapping.clone()),
                ..RunConfig::default()
            };
            if !stable {
                cfg.controller.decision = DecisionConfig {
                    min_relative_gain: 0.0,
                    cost_benefit_factor: 0.0,
                };
                cfg.controller.warmup_ticks = 0;
                cfg.controller.guard_bad_ticks = 0;
            }
            sim_run(&grid_with_wave(period), &spec, &under(policy), &cfg)
        };

        let static_r = run(Policy::Static, true);
        let adaptive_r = run(Policy::Periodic { interval }, true);
        let naive_r = run(Policy::Periodic { interval }, false);

        let gain = static_r.makespan.as_secs_f64() / adaptive_r.makespan.as_secs_f64();
        let gain_naive = static_r.makespan.as_secs_f64() / naive_r.makespan.as_secs_f64();
        table.row(vec![
            period_s.to_string(),
            format!("{:.1}", static_r.makespan.as_secs_f64()),
            format!("{:.1}", adaptive_r.makespan.as_secs_f64()),
            format!("{:.1}", naive_r.makespan.as_secs_f64()),
            format!("{gain:.3}"),
            format!("{gain_naive:.3}"),
            adaptive_r.adaptation_count().to_string(),
            naive_r.adaptation_count().to_string(),
        ]);
    }
    table.print();
    println!("`naive` = hysteresis disabled (min gain 0, cost/benefit 0)");
}
