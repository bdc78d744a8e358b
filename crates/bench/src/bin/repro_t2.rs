//! Table 2 — model validation: does the analytic bottleneck model pick
//! (nearly) the mapping that actually simulates fastest?
//!
//! For a 3-stage pipeline on 3 nodes we sweep network quality and node
//! load, and for each cell (a) let the planner choose a mapping with the
//! analytic model, and (b) simulate *every* unreplicated mapping (3³ =
//! 27) to find the true optimum. The planner is validated if its choice
//! simulates within a few percent of the true best.

use adapipe_bench::{banner, Table};
use adapipe_core::prelude::*;
use adapipe_core::simengine::run as sim_run;
use adapipe_gridsim::prelude::*;
use adapipe_mapper::prelude::*;

struct Case {
    label: &'static str,
    link: LinkSpec,
    avail: [f64; 3],
}

fn main() {
    banner(
        "T2",
        "model-selected vs simulated-best mapping (3 stages x 3 nodes)",
        "planner within ~5% of the exhaustive-simulation optimum in every \
         cell; coalescing wins on slow links, spreading on fast ones",
    );

    let cases = [
        Case {
            label: "lan/free",
            link: LinkSpec::lan(),
            avail: [1.0, 1.0, 1.0],
        },
        Case {
            label: "lan/n2-busy",
            link: LinkSpec::lan(),
            avail: [1.0, 1.0, 0.25],
        },
        Case {
            label: "lan/n1+n2-busy",
            link: LinkSpec::lan(),
            avail: [1.0, 0.5, 0.25],
        },
        Case {
            label: "wan/free",
            link: LinkSpec::wan(),
            avail: [1.0, 1.0, 1.0],
        },
        Case {
            label: "wan/n2-busy",
            link: LinkSpec::wan(),
            avail: [1.0, 1.0, 0.25],
        },
        Case {
            label: "slowwan/free",
            link: LinkSpec::slow_wan(),
            avail: [1.0, 1.0, 1.0],
        },
        Case {
            label: "slowwan/n2-busy",
            link: LinkSpec::slow_wan(),
            avail: [1.0, 1.0, 0.25],
        },
        Case {
            label: "slowwan/n2-4x",
            link: LinkSpec::slow_wan(),
            avail: [0.25, 0.25, 1.0],
        },
    ];

    let items = 300u64;
    let bytes = 1u64 << 20; // 1 MB items make network quality matter
    let spec = PipelineSpec::balanced(3, 1.0, bytes);
    let profile = spec.profile();

    let mut table = Table::new(&[
        "case",
        "model pick",
        "model tput",
        "sim tput(pick)",
        "sim best map",
        "sim tput(best)",
        "gap %",
    ]);
    let mut worst_gap = 0.0f64;

    for case in &cases {
        let nodes = case
            .avail
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                Node::new(
                    NodeSpec::new(format!("n{i}"), 1.0, 1),
                    LoadModel::constant(a),
                )
            })
            .collect();
        let grid = GridSpec::new(nodes, Topology::uniform(3, case.link));
        let rates = grid.rates_at(SimTime::ZERO);

        // (a) planner choice under the analytic model (no replication, to
        // keep the space identical to the exhaustive sweep).
        let cfg = PlannerConfig {
            max_width: 1,
            ..PlannerConfig::default()
        };
        let picked = plan(&profile, &rates, grid.topology(), &cfg);

        // (b) simulate every assignment.
        let mut best: Option<(Mapping, f64)> = None;
        let mut picked_tput = 0.0;
        let mut assignments = Assignments::new(3, 3);
        loop {
            let mapping = assignments.current();
            let report = sim_run(
                &grid,
                &spec,
                &Session::default(),
                &RunConfig {
                    items,
                    initial_mapping: Some(mapping.clone()),
                    link_contention: true,
                    ..RunConfig::default()
                },
            );
            let tput = report.mean_throughput();
            if *mapping == picked.mapping {
                picked_tput = tput;
            }
            if best.as_ref().is_none_or(|&(_, b)| tput > b) {
                best = Some((mapping.clone(), tput));
            }
            if !assignments.advance() {
                break;
            }
        }
        let (best_mapping, best_tput) = best.expect("27 mappings simulated");
        let gap = (best_tput - picked_tput) / best_tput * 100.0;
        worst_gap = worst_gap.max(gap);
        table.row(vec![
            case.label.to_string(),
            picked.mapping.notation(),
            format!("{:.3}", picked.prediction.throughput),
            format!("{picked_tput:.3}"),
            best_mapping.notation(),
            format!("{best_tput:.3}"),
            format!("{gap:.1}"),
        ]);
    }
    table.print();
    println!("worst model-vs-simulation gap: {worst_gap:.1}% (validated if ≲5%)");
}
