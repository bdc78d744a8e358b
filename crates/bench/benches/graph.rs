//! Series-parallel graph vs the equivalent serialized chain.
//!
//! The same nine stages (2 branches × 4 stages + merge) run twice on a
//! pinned one-stage-per-node mapping: once as a 2-branch stage graph
//! (branches overlap — one item's critical path is 4 stages), once
//! flattened into a serial chain (the critical path is all 8 stages).
//! Throughput is resource-bound either way; the win is the fill/drain
//! latency, so the branched makespan must beat the chain by ≥ 1.3× on
//! this latency-sensitive burst. The gate lives *inside* the bench:
//! regressing the ratio fails the run, locally and in CI.
//!
//! `cargo bench -p adapipe-bench --bench graph`
//!
//! Regenerate the committed baseline with:
//! `ADAPIPE_BENCH_JSON=$PWD/BENCH_graph.json \
//!     cargo bench -p adapipe-bench --bench graph`

use adapipe_core::simengine::run;
use adapipe_core::spec::{PipelineSpec, StageGraph, StageSpec};
use adapipe_gridsim::grid::GridSpec;
use adapipe_gridsim::load::LoadModel;
use adapipe_gridsim::net::{LinkSpec, Topology};
use adapipe_gridsim::node::{Node, NodeId, NodeSpec};
use adapipe_mapper::mapping::Mapping;
use adapipe_runtime::session::{RunConfig, Session};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

const BRANCH_DEPTH: usize = 4;
const STAGE_WORK: f64 = 2.0;
const ITEMS: u64 = 6;

fn stages() -> Vec<StageSpec> {
    let mut stages: Vec<StageSpec> = (0..2 * BRANCH_DEPTH)
        .map(|i| StageSpec::balanced(format!("s{i}"), STAGE_WORK, 1_000))
        .collect();
    stages.push(StageSpec::balanced("join", 0.1, 1_000));
    stages
}

fn branched_spec() -> PipelineSpec {
    PipelineSpec::with_graph(
        stages(),
        StageGraph::builder()
            .split(&[BRANCH_DEPTH, BRANCH_DEPTH])
            .build(),
    )
}

fn chain_spec() -> PipelineSpec {
    PipelineSpec::new(stages())
}

fn grid() -> GridSpec {
    let np = 2 * BRANCH_DEPTH + 1;
    let nodes = (0..np)
        .map(|i| Node::new(NodeSpec::new(format!("n{i}"), 1.0, 1), LoadModel::free()))
        .collect();
    GridSpec::new(nodes, Topology::uniform(np, LinkSpec::lan()))
}

fn cfg() -> RunConfig {
    let np = 2 * BRANCH_DEPTH + 1;
    RunConfig {
        items: ITEMS,
        initial_mapping: Some(Mapping::from_assignment(
            &(0..np).map(NodeId).collect::<Vec<_>>(),
        )),
        ..RunConfig::default()
    }
}

fn bench_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));

    let grid = grid();
    group.bench_function("branched_2x4", |b| {
        b.iter(|| run(&grid, &branched_spec(), &Session::default(), &cfg()))
    });
    group.bench_function("serial_chain_8", |b| {
        b.iter(|| run(&grid, &chain_spec(), &Session::default(), &cfg()))
    });
    group.finish();

    // --- the gate: simulated makespan ratio ---------------------------
    let branched = run(&grid, &branched_spec(), &Session::default(), &cfg());
    let chain = run(&grid, &chain_spec(), &Session::default(), &cfg());
    assert_eq!(branched.completed, ITEMS);
    assert_eq!(chain.completed, ITEMS);
    let ratio = chain.makespan.as_secs_f64() / branched.makespan.as_secs_f64();
    println!(
        "graph gate: chain {:.2}s / branched {:.2}s = {ratio:.3}x (need >= 1.3)",
        chain.makespan.as_secs_f64(),
        branched.makespan.as_secs_f64(),
    );
    assert!(
        ratio >= 1.3,
        "2-branch graph must beat the serialized chain by >= 1.3x simulated \
         makespan, measured {ratio:.3}x"
    );
}

criterion_group!(benches, bench_graph);
criterion_main!(benches);
