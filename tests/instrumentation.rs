//! Integration tests for self-instrumentation: the skeleton's measured
//! service times must agree with the physics it simulates — the property
//! that makes "plan from your own measurements" sound at all.

use adapipe::core::pipeline::PipelineBuilder;
use adapipe::core::simengine::run as sim_run;
use adapipe::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Held by each test whose stages spin real CPU on the threaded
/// backend: those tests take turns. A spinning stage beside another
/// test's spinning stage reads the other's CPU time as its own service
/// time, and the slowdown test's ratio of a quarter-speed vnode to a
/// free one then shrinks below its bound.
fn exclusive_cpu() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the others still run alone.
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn measured_service_times_match_configuration() {
    // Stage works 1, 2, 3 on unit-speed free nodes: mean service must be
    // 1 s, 2 s, 3 s.
    let grid = testbed_small3();
    let spec = PipelineSpec::new(vec![
        StageSpec::balanced("s0", 1.0, 0),
        StageSpec::balanced("s1", 2.0, 0),
        StageSpec::balanced("s2", 3.0, 0),
    ]);
    let report = sim_run(
        &grid,
        &spec,
        &Session::default(),
        &RunConfig {
            items: 100,
            initial_mapping: Some(Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2)])),
            ..RunConfig::default()
        },
    );
    for (s, want) in [(0usize, 1.0f64), (1, 2.0), (2, 3.0)] {
        let stats = report.stage_metrics.stage(s);
        assert_eq!(stats.count(), 100);
        let mean = stats.mean_service().unwrap().as_secs_f64();
        assert!(
            (mean - want).abs() < 1e-6,
            "stage {s}: measured {mean}, expected {want}"
        );
    }
}

#[test]
fn measured_effective_rate_reflects_background_load() {
    // One stage on a node at 40 % availability: effective rate must be
    // measured as ≈ 0.4 work units per busy second.
    let mut grid = testbed_small3();
    grid.set_load(NodeId(0), LoadModel::constant(0.4));
    let spec = PipelineSpec::balanced(1, 1.0, 0);
    let report = sim_run(
        &grid,
        &spec,
        &Session::default(),
        &RunConfig {
            items: 50,
            initial_mapping: Some(Mapping::from_assignment(&[NodeId(0)])),
            ..RunConfig::default()
        },
    );
    let rate = report.stage_metrics.stage(0).effective_rate().unwrap();
    assert!((rate - 0.4).abs() < 1e-6, "measured rate {rate}");
}

#[test]
fn threaded_engine_reports_stage_metrics() {
    let _cpu = exclusive_cpu();
    let pipeline = PipelineBuilder::<u64>::new()
        .stage(StageSpec::balanced("spin", 0.004, 8), |x: u64| {
            spin_for(std::time::Duration::from_millis(4));
            x
        })
        .build();
    let outcome = run_pipeline(pipeline, (0..30).collect(), vec![VNodeSpec::free("v0")]);
    let stats = outcome.report.stage_metrics.stage(0);
    assert_eq!(stats.count(), 30);
    let mean_ms = stats.mean_service().unwrap().as_secs_f64() * 1e3;
    assert!(
        (4.0..50.0).contains(&mean_ms),
        "wall service {mean_ms:.1} ms for a 4 ms spin"
    );
}

#[test]
fn slowdown_is_visible_in_measured_service() {
    // Same 3 ms spin on a free vs a 25 %-speed vnode: the measured mean
    // service time must reflect the compensating sleep.
    let _cpu = exclusive_cpu();
    let mk = || {
        PipelineBuilder::<u64>::new()
            .stage(StageSpec::balanced("spin", 0.003, 8), |x: u64| {
                spin_for(std::time::Duration::from_millis(3));
                x
            })
            .build()
    };
    let on = |vnode| run_pipeline(mk(), (0..20).collect(), vec![vnode]);
    let fast = on(VNodeSpec::free("fast"));
    let slow = on(VNodeSpec::with_speed("slow", 0.25));
    let fast_mean = fast.report.stage_metrics.stage(0).mean_service().unwrap();
    let slow_mean = slow.report.stage_metrics.stage(0).mean_service().unwrap();
    let ratio = slow_mean.as_secs_f64() / fast_mean.as_secs_f64();
    assert!(
        ratio > 2.5,
        "quarter speed should inflate service ~4x, measured {ratio:.2}x"
    );
}

/// Runs `pipeline` over `inputs` on `vnodes` as a static batch on the
/// threaded engine, the whole stream present at `t = 0`.
fn run_pipeline(
    pipeline: adapipe::core::pipeline::Pipeline<u64, u64>,
    inputs: Vec<u64>,
    vnodes: Vec<VNodeSpec>,
) -> RunHandle<u64> {
    let cfg = RunConfig {
        items: inputs.len() as u64,
        ..RunConfig::default()
    };
    let feed = move |seq: u64| inputs[seq as usize];
    adapipe::engine::execute_fed(pipeline, feed, vnodes, &Session::default(), &cfg)
}
