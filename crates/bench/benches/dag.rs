//! General DAG (diamond) vs the equivalent serialized chain.
//!
//! The same eleven stages run twice on a pinned one-stage-per-node
//! mapping: once as an explicit DAG — `fetch` fans out to two
//! depth-four branches that re-join at `combine` before `sink` (one
//! item's critical path is six stages) — and once flattened into a
//! serial chain (the critical path is all eleven). Throughput is
//! resource-bound either way; the win is the fill/drain latency on a
//! burst, so the diamond makespan must beat the chain by ≥ 1.2×. As in
//! the `graph` bench, the gate lives *inside* the bench: regressing the
//! ratio fails the run, locally and in CI.
//!
//! Unlike `graph` (which uses the series-parallel `split` sugar), this
//! bench declares the topology edge-by-edge through [`StageGraph::dag`]
//! — the path every explicitly wired `Pipeline::dag()` program takes.
//!
//! `cargo bench -p adapipe-bench --bench dag`
//!
//! Regenerate the committed baseline with:
//! `ADAPIPE_BENCH_JSON=$PWD/BENCH_dag.json \
//!     cargo bench -p adapipe-bench --bench dag`

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
/// fetch + two branches + combine + sink.
const STAGES: usize = 2 * BRANCH_DEPTH + 3;

fn stages() -> Vec<StageSpec> {
    let mut stages = vec![StageSpec::balanced("fetch", STAGE_WORK, 1_000)];
    for b in 0..2 {
        for d in 0..BRANCH_DEPTH {
            stages.push(StageSpec::balanced(format!("b{b}s{d}"), STAGE_WORK, 1_000));
        }
    }
    stages.push(StageSpec::balanced("combine", 0.1, 1_000));
    stages.push(StageSpec::balanced("sink", 0.1, 1_000));
    stages
}

/// fetch ─┬─ b0s0 … b0s3 ─┐
///        └─ b1s0 … b1s3 ─┴─ combine → sink, declared edge-by-edge.
fn diamond_spec() -> PipelineSpec {
    let combine = 2 * BRANCH_DEPTH + 1;
    let mut dag = StageGraph::dag(STAGES);
    for b in 0..2 {
        let first = 1 + b * BRANCH_DEPTH;
        dag = dag.edge(0, first);
        for d in 1..BRANCH_DEPTH {
            dag = dag.edge(first + d - 1, first + d);
        }
        dag = dag.edge(first + BRANCH_DEPTH - 1, combine);
    }
    dag = dag.edge(combine, combine + 1);
    PipelineSpec::with_graph(stages(), dag.build().expect("diamond is a valid DAG"))
}

fn chain_spec() -> PipelineSpec {
    PipelineSpec::new(stages())
}

fn grid() -> GridSpec {
    let nodes = (0..STAGES)
        .map(|i| Node::new(NodeSpec::new(format!("n{i}"), 1.0, 1), LoadModel::free()))
        .collect();
    GridSpec::new(nodes, Topology::uniform(STAGES, LinkSpec::lan()))
}

fn cfg() -> RunConfig {
    RunConfig {
        items: ITEMS,
        initial_mapping: Some(Mapping::from_assignment(
            &(0..STAGES).map(NodeId).collect::<Vec<_>>(),
        )),
        ..RunConfig::default()
    }
}

fn bench_dag(c: &mut Criterion) {
    let mut group = c.benchmark_group("dag");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));

    let grid = grid();
    group.bench_function("diamond_2x4", |b| {
        b.iter(|| run(&grid, &diamond_spec(), &Session::default(), &cfg()))
    });
    group.bench_function("serial_chain_11", |b| {
        b.iter(|| run(&grid, &chain_spec(), &Session::default(), &cfg()))
    });
    group.finish();

    // --- the gate: simulated makespan ratio ---------------------------
    let diamond = run(&grid, &diamond_spec(), &Session::default(), &cfg());
    let chain = run(&grid, &chain_spec(), &Session::default(), &cfg());
    assert_eq!(diamond.completed, ITEMS);
    assert_eq!(chain.completed, ITEMS);
    let ratio = chain.makespan.as_secs_f64() / diamond.makespan.as_secs_f64();
    println!(
        "dag gate: chain {:.2}s / diamond {:.2}s = {ratio:.3}x (need >= 1.2)",
        chain.makespan.as_secs_f64(),
        diamond.makespan.as_secs_f64(),
    );
    assert!(
        ratio >= 1.2,
        "the diamond DAG must beat the serialized chain by >= 1.2x simulated \
         makespan, measured {ratio:.3}x"
    );
}

criterion_group!(benches, bench_dag);
criterion_main!(benches);
