//! Figure 3 — speedup vs processor count, with and without stage
//! replication.
//!
//! An 8-stage pipeline on 1..32 homogeneous LAN nodes. With balanced
//! stages the speedup plateaus at Ns = 8 — a pipeline exposes at most
//! one processor of parallelism per stage — unless stateless stages may
//! be *replicated*, which lifts the plateau. With a middle-heavy stage
//! the unreplicated plateau is far lower (the bottleneck stage gates
//! everything), making replication's contribution starker.

use adapipe_bench::{banner, Table};
use adapipe_core::prelude::*;
use adapipe_core::simengine::run as sim_run;
use adapipe_gridsim::prelude::*;
use adapipe_workloads::prelude::*;

fn uniform_grid(np: usize) -> GridSpec {
    let nodes = (0..np)
        .map(|i| Node::new(NodeSpec::new(format!("n{i}"), 1.0, 1), LoadModel::free()))
        .collect();
    GridSpec::new(nodes, Topology::uniform(np, LinkSpec::lan()))
}

fn main() {
    banner(
        "F3",
        "speedup vs processor count (8 stages; replication on/off)",
        "balanced: linear to ~8 then flat without replication, keeps \
         climbing with it; middle-heavy: plateaus early without \
         replication (~2.75), replication recovers most of the gap",
    );

    let items = 300u64;
    let shapes = [
        (CostShape::Balanced, "balanced"),
        (CostShape::MiddleHeavy, "mid-heavy"),
    ];

    let mut table = Table::new(&[
        "Np",
        "balanced/rep-off",
        "balanced/rep-on",
        "mid-heavy/rep-off",
        "mid-heavy/rep-on",
    ]);

    // Baselines: one node, everything coalesced.
    let mut base = [0.0f64; 2];
    for (i, (shape, _)) in shapes.iter().enumerate() {
        let spec = synthetic_spec(8, *shape, 1.0, 10_000, 0.0, 3);
        let report = sim_run(
            &uniform_grid(1),
            &spec,
            &Session::default(),
            &RunConfig {
                items,
                ..RunConfig::default()
            },
        );
        base[i] = report.makespan.as_secs_f64();
    }

    for np in [1usize, 2, 4, 8, 16, 32] {
        let mut cells = vec![np.to_string()];
        for (i, (shape, _)) in shapes.iter().enumerate() {
            let spec = synthetic_spec(8, *shape, 1.0, 10_000, 0.0, 3);
            for max_width in [1usize, 4] {
                let mut cfg = RunConfig {
                    items,
                    ..RunConfig::default()
                };
                cfg.controller.planner.max_width = max_width;
                let report = sim_run(&uniform_grid(np), &spec, &Session::default(), &cfg);
                let speedup = base[i] / report.makespan.as_secs_f64();
                cells.push(format!("{speedup:.2}"));
            }
        }
        // Reorder: balanced(off,on), mid(off,on) — cells already in that order.
        table.row(cells);
    }
    table.print();
    println!("speedup = makespan(1 node) / makespan(Np nodes), same workload");
}
