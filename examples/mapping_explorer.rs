//! Mapping explorer: how network quality and processor load move the
//! optimal stage-to-processor mapping.
//!
//! For a 3-stage pipeline on 3 processors this prints, for each grid
//! condition, the model-optimal mapping and its predicted throughput —
//! the decision table the adaptive pattern consults internally.
//!
//! Run with: `cargo run --release --example mapping_explorer`

use adapipe::prelude::*;

fn main() {
    // One work unit per stage; 1 MB items.
    let profile = PipelineProfile::uniform(vec![1.0, 1.0, 1.0], 1 << 20);

    struct Case {
        label: &'static str,
        link: LinkSpec,
        rates: [f64; 3],
    }
    let cases = [
        Case {
            label: "fast LAN, equal nodes",
            link: LinkSpec::lan(),
            rates: [1.0, 1.0, 1.0],
        },
        Case {
            label: "fast LAN, node 2 busy (25%)",
            link: LinkSpec::lan(),
            rates: [1.0, 1.0, 0.25],
        },
        Case {
            label: "WAN links, equal nodes",
            link: LinkSpec::wan(),
            rates: [1.0, 1.0, 1.0],
        },
        Case {
            label: "slow WAN, equal nodes",
            link: LinkSpec::slow_wan(),
            rates: [1.0, 1.0, 1.0],
        },
        Case {
            label: "slow WAN, node 2 is 4x faster",
            link: LinkSpec::slow_wan(),
            rates: [1.0, 1.0, 4.0],
        },
    ];

    println!("== optimal mapping of a 3-stage pipeline onto 3 processors ==\n");
    println!(
        "{:<32} {:>18} {:>12} {:>10}",
        "grid condition", "best mapping", "tput (it/s)", "groups"
    );
    for case in &cases {
        let topology = Topology::uniform(3, case.link);
        let best = plan(&profile, &case.rates, &topology, &PlannerConfig::default());
        println!(
            "{:<32} {:>18} {:>12.3} {:>10}",
            case.label,
            best.mapping.notation(),
            best.prediction.throughput,
            best.mapping.nodes_used().len(),
        );
    }

    println!("\nReading the table: on an even grid the planner spreads the");
    println!("stages (one per node). When a node loses capacity it farms the");
    println!("affected stage over the survivors ({{...}} sets), and when one");
    println!("node dominates in speed it concentrates and replicates work");
    println!("there — exactly the trade-offs the adaptive pattern");
    println!("re-evaluates every monitoring period.");

    // Where one planning cycle's candidates go, on an instance too large
    // to enumerate: a 6-stage pipeline with one parallel block on the
    // 8-node heterogeneous testbed (8^6 assignments, so local search).
    let mut split = PipelineProfile::uniform(vec![0.4, 0.6, 0.8, 1.0, 1.2, 1.4], 32 << 10);
    split.graph = StageGraph::builder()
        .stages(1)
        .split(&[1, 1])
        .stages(2)
        .build();
    let grid = testbed_hetero8(7);
    let cycle = plan(
        &split,
        &grid.rates_at(SimTime::ZERO),
        grid.topology(),
        &PlannerConfig::default(),
    );
    let c = cycle.candidates;
    let shown = c.bounded + c.pruned + c.scored;
    println!("\n== one planning cycle, 6 stages on 8 nodes ==\n");
    println!("plan {}: {shown} candidates", cycle.mapping.notation());
    println!(
        "  {:>5} ruled out from the incumbent's node loads, never applied",
        c.bounded
    );
    println!("  {:>5} dropped on their own node loads", c.pruned);
    println!("  {:>5} scored in full (links walked)", c.scored);

    // The planner consumes a *stage graph*, not a list: linear chains
    // and series-parallel splits are special cases of a general DAG.
    // Print the topology the cost model walks for the README's diamond.
    let names = ["fetch", "parse", "audit", "combine", "sink"];
    let diamond = StageGraph::dag(5)
        .edge(0, 1) // fetch → parse
        .edge(0, 2) // fetch → audit
        .edge(1, 3) // parse → combine
        .edge(2, 3) // audit → combine
        .edge(3, 4) // combine → sink
        .build()
        .expect("the diamond is a valid DAG");
    println!("\n== stage-graph topology (a general DAG) ==\n");
    println!(
        "stages, topologically: {}",
        diamond
            .topo_order()
            .iter()
            .map(|&s| names[s])
            .collect::<Vec<_>>()
            .join(" → ")
    );
    println!("edges:");
    for (from, to) in diamond.edges() {
        println!("  {} → {}", names[from], names[to]);
    }
    println!(
        "fan-out points: {}   joining stages: {}",
        diamond.blocks(),
        diamond.join_blocks()
    );
    println!("\nEvery stage above is planned like the 3-stage chain in the");
    println!("table — the graph only changes which stages feed which, so a");
    println!("branch can overlap with its sibling instead of queueing");
    println!("behind it.");
}
