//! Analytic-model evaluation latency, one mapping (`model_evaluate`)
//! and one whole planning cycle (`model_plan`): the model is the inner
//! loop of every optimiser, so its cost bounds planner scalability, and
//! a planning cycle has to stay cheap next to the interval it plans
//! for. CI gates `model_plan/plan_hetero8_6stage_split` at 1 ms.
//!
//! `cargo bench -p adapipe-bench --bench model`
//!
//! Regenerate the committed baseline with:
//! `ADAPIPE_BENCH_JSON=$PWD/BENCH_model.json \
//!     cargo bench -p adapipe-bench --bench model`
//! (`BENCH_model.json` also keeps, under group `model_evaluate@dbded3c`,
//! the rows measured at the last commit that priced chains, parallel
//! blocks and wired DAGs with three separate walks; under `…@f3c98c3`
//! the rows of the last commit whose optimisers cloned a mapping and
//! called `evaluate` per candidate; and under `model_plan@ff49339` the
//! rows of the last commit whose local search applied every move before
//! its node loads could rule it out.)

use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::grid::testbed_hetero8;
use adapipe_gridsim::net::{LinkSpec, Topology};
use adapipe_gridsim::node::NodeId;
use adapipe_gridsim::time::SimTime;
use adapipe_mapper::graph::StageGraph;
use adapipe_mapper::mapping::Mapping;
use adapipe_mapper::model::{evaluate, PipelineProfile};
use adapipe_mapper::search::{plan, PlannerConfig, Strategy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_evaluate(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_evaluate");
    group
        .sample_size(50)
        .measurement_time(Duration::from_secs(2));
    for &ns in &[4usize, 16, 64] {
        let np = ns;
        let profile = PipelineProfile::uniform(vec![1.0; ns], 100_000);
        let topology = Topology::uniform(np, LinkSpec::lan());
        let rates = vec![1.0; np];
        let mapping = Mapping::round_robin(ns, np);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{ns}stages")),
            &(profile, mapping, rates, topology),
            |b, (profile, mapping, rates, topology)| {
                b.iter(|| evaluate(profile, mapping, rates, topology));
            },
        );
    }
    // One parallel block, pre → (a0 a1 ‖ b0 b1) → merge → post: fan-out
    // and join edges instead of chain boundaries.
    let ns = 7;
    let mut profile = PipelineProfile::uniform(vec![1.0; ns], 100_000);
    profile.graph = StageGraph::builder()
        .stages(1)
        .split(&[2, 2])
        .stages(1)
        .build();
    let input = (
        profile,
        Mapping::round_robin(ns, ns),
        vec![1.0; ns],
        Topology::uniform(ns, LinkSpec::lan()),
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("split2x2"),
        &input,
        |b, (profile, mapping, rates, topology)| {
            b.iter(|| evaluate(profile, mapping, rates, topology));
        },
    );
    group.finish();
}

/// Whole planning cycles on the hetero8 testbed 30 s after its fastest
/// node dropped to 15 % (what a cycle of `adabench`'s `sim_adaptive`
/// sees): the scenario's own 6-stage pipeline with one parallel block
/// — 8^6 assignments, so DP seeds + local search — and a 5-stage chain
/// small enough (8^5) for the exhaustive sweep.
fn bench_plan(c: &mut Criterion) {
    let mut grid = testbed_hetero8(7);
    FaultPlan::new()
        .slowdown(
            NodeId(0),
            SimTime::from_secs_f64(60.0),
            SimTime::from_secs_f64(1e9),
            0.15,
        )
        .apply(&mut grid);
    let rates = grid.rates_at(SimTime::from_secs_f64(90.0));
    let config = PlannerConfig::default();
    let mut split = PipelineProfile::uniform(vec![0.4, 0.6, 0.8, 1.0, 1.2, 1.4], 32 << 10);
    split.graph = StageGraph::builder()
        .stages(1)
        .split(&[1, 1])
        .stages(2)
        .build();
    let chain = PipelineProfile::uniform(vec![0.4, 0.7, 1.0, 1.2, 1.4], 32 << 10);

    let mut group = c.benchmark_group("model_plan");
    group
        .sample_size(50)
        .measurement_time(Duration::from_secs(2));
    for (name, profile, strategy) in [
        ("plan_hetero8_6stage_split", &split, Strategy::LocalSearch),
        ("plan_exhaustive_5x8", &chain, Strategy::Exhaustive),
    ] {
        assert_eq!(
            plan(profile, &rates, grid.topology(), &config).strategy,
            strategy
        );
        group.bench_function(name, |b| {
            b.iter(|| plan(profile, &rates, grid.topology(), &config));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_evaluate, bench_plan);
criterion_main!(benches);
