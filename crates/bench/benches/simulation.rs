//! Simulator throughput: simulated items per wall second. Bounds how
//! large the parameter sweeps of the repro binaries can afford to be.
//!
//! `cargo bench -p adapipe-bench --bench simulation`

use adapipe_bench::under;
use adapipe_core::policy::Policy;
use adapipe_core::simengine::run;
use adapipe_core::spec::{PipelineSpec, StageGraph, StageSpec, UniformWork};
use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::grid::{testbed_hetero8, testbed_small3};
use adapipe_gridsim::node::NodeId;
use adapipe_gridsim::time::SimTime;
use adapipe_runtime::session::{RunConfig, Session};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    group.bench_function("small3_static_1k_items", |b| {
        let grid = testbed_small3();
        let spec = PipelineSpec::balanced(3, 1.0, 10_000);
        let cfg = RunConfig {
            items: 1_000,
            ..RunConfig::default()
        };
        b.iter(|| run(&grid, &spec, &Session::default(), &cfg));
    });

    group.bench_function("hetero8_adaptive_1k_items", |b| {
        let grid = testbed_hetero8(3);
        let spec = PipelineSpec::balanced(4, 1.0, 10_000);
        let cfg = RunConfig {
            items: 1_000,
            ..RunConfig::default()
        };
        let session = under(Policy::periodic_default());
        b.iter(|| run(&grid, &spec, &session, &cfg));
    });

    group.bench_function("hetero8_contention_1k_items", |b| {
        let grid = testbed_hetero8(3);
        let spec = PipelineSpec::balanced(4, 1.0, 100_000);
        let cfg = RunConfig {
            items: 1_000,
            link_contention: true,
            ..RunConfig::default()
        };
        b.iter(|| run(&grid, &spec, &Session::default(), &cfg));
    });

    // The shape `adabench`'s `sim_static` workload runs, and the one the
    // event loop is tuned on: six stages with one parallel block and
    // ramped, jittered costs on hetero8, the fastest node stepped to
    // 15 % at t = 60 s, a static planned mapping, the whole stream
    // present at t = 0 — no planning, so the time is the event loop's.
    group.bench_function("hetero8_static_dag_60k_items", |b| {
        let mut grid = testbed_hetero8(7);
        FaultPlan::new()
            .slowdown(
                NodeId(0),
                SimTime::from_secs_f64(60.0),
                SimTime::from_secs_f64(1e9),
                0.15,
            )
            .apply(&mut grid);
        let work = [0.4, 0.6, 0.8, 1.0, 1.2, 1.4];
        let stages = (0..6)
            .map(|i| {
                StageSpec::balanced(format!("s{i}"), work[i], 32 << 10)
                    .with_work(Box::new(UniformWork::new(work[i], 0.2, 42 + i as u64)))
            })
            .collect();
        let mut spec = PipelineSpec::with_graph(
            stages,
            StageGraph::builder()
                .stages(1)
                .split(&[1, 1])
                .stages(2)
                .build(),
        );
        spec.input_bytes = 32 << 10;
        let cfg = RunConfig {
            items: 60_000,
            ..RunConfig::default()
        };
        b.iter(|| {
            let report = run(&grid, &spec, &Session::default(), &cfg);
            assert_eq!(report.completed, 60_000);
            report
        });
    });

    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
