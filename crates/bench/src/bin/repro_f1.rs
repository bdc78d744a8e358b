//! Figure 1 — throughput over time under a load step.
//!
//! A 4-stage pipeline, open-loop arrivals at 80 % of nominal capacity.
//! At t = 60 s the node hosting the heaviest share of work collapses to
//! 15 % availability. Series: static / reactive / adaptive / oracle.

use adapipe_bench::{banner, Table};
use adapipe_core::prelude::*;
use adapipe_core::simengine::run as sim_run;
use adapipe_gridsim::prelude::*;
use adapipe_mapper::prelude::*;

fn main() {
    banner(
        "F1",
        "throughput timeline across a load step (static/reactive/adaptive/oracle)",
        "all curves level until t=60s; static stays collapsed afterwards; \
         adaptive recovers within one adaptation period of the oracle",
    );

    // 4 equal nodes; the step hits node 1.
    let mk_grid = || {
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
    };

    let spec = PipelineSpec::balanced(4, 1.0, 10_000);
    let mapping = Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    let interval = SimDuration::from_secs(5);
    let duration_s = 240.0;
    let rate = 0.8; // items/s, below the nominal capacity of 1.0
    let items = (duration_s * rate) as u64;

    let policies = [
        Policy::Static,
        Policy::Reactive {
            interval,
            degradation: 0.7,
        },
        Policy::Periodic { interval },
        Policy::Oracle { interval },
    ];

    let bucket = SimDuration::from_secs(10);
    type Series = (String, Vec<(SimTime, f64)>, usize);
    let mut series: Vec<Series> = Vec::new();
    for policy in policies {
        let grid = mk_grid();
        let cfg = RunConfig {
            items,
            initial_mapping: Some(mapping.clone()),
            timeline_bucket: Some(bucket),
            ..RunConfig::default()
        };
        // Static and reactive under a paced stream are the figure's
        // deliberate baselines.
        let session = Session::baseline(policy, ArrivalProcess::Uniform { rate })
            .expect("a valid policy and rate");
        let report = sim_run(&grid, &spec, &session, &cfg);
        series.push((
            policy.name().to_string(),
            report.timeline.series(),
            report.adaptation_count(),
        ));
    }

    let mut table = Table::new(&["t(s)", "static", "reactive", "adaptive", "oracle"]);
    let buckets = series.iter().map(|(_, s, _)| s.len()).max().unwrap_or(0);
    for b in 0..buckets {
        let t = (b as f64 + 0.5) * bucket.as_secs_f64();
        let cell = |idx: usize| -> String {
            series[idx]
                .1
                .get(b)
                .map(|&(_, v)| format!("{v:.2}"))
                .unwrap_or_else(|| "-".to_string())
        };
        table.row(vec![format!("{t:.0}"), cell(0), cell(1), cell(2), cell(3)]);
    }
    table.print();
    for (name, _, remaps) in &series {
        println!("{name:>9}: {remaps} re-mappings");
    }
}
