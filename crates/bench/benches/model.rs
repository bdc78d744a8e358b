//! Analytic-model evaluation latency: `evaluate()` is the inner loop of
//! every optimiser, so its cost bounds planner scalability.
//!
//! `cargo bench -p adapipe-bench --bench model`
//!
//! Regenerate the committed baseline with:
//! `ADAPIPE_BENCH_JSON=$PWD/BENCH_model.json \
//!     cargo bench -p adapipe-bench --bench model`
//! (`BENCH_model.json` also keeps, under group `model_evaluate@dbded3c`,
//! the rows measured at the last commit that priced chains, parallel
//! blocks and wired DAGs with three separate walks.)

use adapipe_gridsim::net::{LinkSpec, Topology};
use adapipe_mapper::graph::StageGraph;
use adapipe_mapper::mapping::Mapping;
use adapipe_mapper::model::{evaluate, PipelineProfile};
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

criterion_group!(benches, bench_evaluate);
criterion_main!(benches);
