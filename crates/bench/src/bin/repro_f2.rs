//! Figure 2 — completion time vs stream length.
//!
//! Closed streams of N items on the hetero8 testbed (random-walk
//! background load plus a mid-run slowdown of the fastest node).
//! Adaptation costs a fixed overhead per re-mapping, so its advantage
//! must *grow* with N as the cost amortises.

use adapipe_bench::{banner, under, Table};
use adapipe_core::prelude::*;
use adapipe_core::simengine::run as sim_run;
use adapipe_gridsim::prelude::*;

fn main() {
    banner(
        "F2",
        "completion time vs stream length N (hetero8, dynamic load)",
        "adaptive tracks oracle within a small factor and beats static by \
         a margin that grows with N",
    );

    let interval = SimDuration::from_secs(5);
    let seed = 9;
    let spec = PipelineSpec::balanced(4, 2.0, 100_000);

    let mk_grid = || {
        let mut grid = testbed_hetero8(seed);
        FaultPlan::new()
            .slowdown(
                NodeId(0),
                SimTime::from_secs_f64(50.0),
                SimTime::from_secs_f64(1e6),
                0.10,
            )
            .apply(&mut grid);
        grid
    };

    let mut table = Table::new(&[
        "N",
        "static(s)",
        "adaptive(s)",
        "oracle(s)",
        "adapt/static",
        "adapt/oracle",
        "remaps",
    ]);
    for n in [100u64, 200, 400, 800, 1600, 3200] {
        let run = |policy: Policy| {
            sim_run(
                &mk_grid(),
                &spec,
                &under(policy),
                &RunConfig {
                    items: n,
                    ..RunConfig::default()
                },
            )
        };
        let static_r = run(Policy::Static);
        let adaptive_r = run(Policy::Periodic { interval });
        let oracle_r = run(Policy::Oracle { interval });
        table.row(vec![
            n.to_string(),
            format!("{:.1}", static_r.makespan.as_secs_f64()),
            format!("{:.1}", adaptive_r.makespan.as_secs_f64()),
            format!("{:.1}", oracle_r.makespan.as_secs_f64()),
            format!(
                "{:.3}",
                adaptive_r.makespan.as_secs_f64() / static_r.makespan.as_secs_f64()
            ),
            format!(
                "{:.3}",
                adaptive_r.makespan.as_secs_f64() / oracle_r.makespan.as_secs_f64()
            ),
            adaptive_r.adaptation_count().to_string(),
        ]);
    }
    table.print();
}
