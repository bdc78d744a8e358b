//! Table 5 — how wrong is the analytic model when links contend?
//!
//! The bottleneck model treats every directed link as an independent
//! resource and ignores queueing between transfers sharing a link. The
//! simulator can enforce per-link serialisation. This table sweeps item
//! size on a WAN-linked pipeline and reports the model's throughput
//! error against contention-enabled simulation — quantifying when the
//! "communication is overlapped" assumption starts to mislead the
//! planner (and motivating the regret guard as the backstop).

use adapipe_bench::{banner, Table};
use adapipe_core::prelude::*;
use adapipe_core::simengine::run as sim_run;
use adapipe_gridsim::prelude::*;
use adapipe_mapper::prelude::*;

fn main() {
    banner(
        "T5",
        "analytic-model error vs link contention (item-size sweep, slow WAN)",
        "while compute dominates, both sims match the model; once transfers \
         dominate, the model tracks the *contended* sim (it prices links as \
         serial resources) and is pessimistic for the uncontended one",
    );

    // 3 stages spread over 3 nodes joined by WAN links (12.5 MB/s).
    let nodes = (0..3)
        .map(|i| Node::new(NodeSpec::new(format!("n{i}"), 1.0, 1), LoadModel::free()))
        .collect();
    let grid = GridSpec::new(nodes, Topology::uniform(3, LinkSpec::slow_wan()));
    let mapping = Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2)]);
    let items = 300u64;

    let mut table = Table::new(&[
        "item KB",
        "model tput",
        "sim tput (no cont.)",
        "sim tput (contention)",
        "err no-cont %",
        "err cont %",
    ]);
    for kb in [16u64, 64, 256, 1024, 4096] {
        let spec = PipelineSpec::balanced(3, 1.0, kb << 10);
        let profile = spec.profile();
        let rates = grid.rates_at(SimTime::ZERO);
        let pred = evaluate(&profile, &mapping, &rates, grid.topology());
        let sim = |contention: bool| {
            sim_run(
                &grid,
                &spec,
                &Session::default(),
                &RunConfig {
                    items,
                    initial_mapping: Some(mapping.clone()),
                    link_contention: contention,
                    ..RunConfig::default()
                },
            )
            .mean_throughput()
        };
        let free = sim(false);
        let contended = sim(true);
        let err = |measured: f64| (pred.throughput - measured) / measured * 100.0;
        table.row(vec![
            kb.to_string(),
            format!("{:.3}", pred.throughput),
            format!("{free:.3}"),
            format!("{contended:.3}"),
            format!("{:+.1}", err(free)),
            format!("{:+.1}", err(contended)),
        ]);
    }
    table.print();
    println!("err = (model − simulated) / simulated; positive = model optimistic");
}
