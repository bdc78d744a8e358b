//! Builder/session-layer overhead: the unified `adapipe::api` path must
//! add no measurable cost over calling the simulation backend directly.
//! Each "builder" iteration pays the *whole* new surface — stage
//! declaration, validation, delegation — on top of the
//! identical simulated run, so the pair bounds the API tax from above.
//!
//! `cargo bench -p adapipe-bench --bench api_overhead`
//!
//! Regenerate the committed baseline with:
//! `ADAPIPE_BENCH_JSON=$PWD/BENCH_api_overhead.json \
//!     cargo bench -p adapipe-bench --bench api_overhead`

use adapipe::api::{Backend, PipelineBuilder, RunConfig};
use adapipe_bench::under;
use adapipe_core::policy::Policy;
use adapipe_core::simengine::run;
use adapipe_core::spec::PipelineSpec;
use adapipe_gridsim::grid::{testbed_hetero8, testbed_small3};
use adapipe_gridsim::time::SimDuration;
use adapipe_runtime::session::Session;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_api_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("api_overhead");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    // Static, small grid: the run itself is cheap, so any per-run API
    // overhead would show up loudest here.
    group.bench_function("small3_static_1k_direct", |b| {
        let grid = testbed_small3();
        let spec = PipelineSpec::balanced(3, 1.0, 10_000);
        let cfg = RunConfig {
            items: 1_000,
            ..RunConfig::default()
        };
        b.iter(|| run(&grid, &spec, &Session::default(), &cfg));
    });
    group.bench_function("small3_static_1k_builder", |b| {
        let grid = testbed_small3();
        b.iter(|| {
            PipelineBuilder::from_spec(PipelineSpec::balanced(3, 1.0, 10_000))
                .build()
                .expect("valid pipeline")
                .run(
                    Backend::Sim(&grid),
                    RunConfig {
                        items: 1_000,
                        ..RunConfig::default()
                    },
                )
                .expect("sim run")
        });
    });

    // Adaptive, heterogeneous grid: the representative workload.
    group.bench_function("hetero8_adaptive_1k_direct", |b| {
        let grid = testbed_hetero8(3);
        let spec = PipelineSpec::balanced(4, 1.0, 10_000);
        let cfg = RunConfig {
            items: 1_000,
            ..RunConfig::default()
        };
        let session = under(Policy::periodic_default());
        b.iter(|| run(&grid, &spec, &session, &cfg));
    });
    group.bench_function("hetero8_adaptive_1k_builder", |b| {
        let grid = testbed_hetero8(3);
        b.iter(|| {
            PipelineBuilder::from_spec(PipelineSpec::balanced(4, 1.0, 10_000))
                .policy(Policy::Periodic {
                    interval: SimDuration::from_secs(5),
                })
                .build()
                .expect("valid pipeline")
                .run(
                    Backend::Sim(&grid),
                    RunConfig {
                        items: 1_000,
                        ..RunConfig::default()
                    },
                )
                .expect("sim run")
        });
    });

    group.finish();
}

criterion_group!(benches, bench_api_overhead);
criterion_main!(benches);
