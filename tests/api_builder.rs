//! Builder-validation suite for the unified API: every declaration
//! error surfaces at `build()` (or `run()`, for backend-dependent
//! rules) as a typed [`BuildError`] variant — no panics, no silent
//! mis-configuration. The README's state-pattern table is declared here
//! too, row by row, and run on both backends.

use adapipe::prelude::*;

#[test]
fn empty_pipeline_is_rejected() {
    let err = Pipeline::<u64>::builder().build().unwrap_err();
    assert_eq!(err, BuildError::EmptyPipeline);
}

#[test]
fn duplicate_stage_names_are_rejected() {
    let err = Pipeline::<u64>::builder()
        .stage("blur", |x: u64| x + 1)
        .stage("sobel", |x: u64| x * 2)
        .stage("blur", |x: u64| x - 1)
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        BuildError::DuplicateStage {
            name: "blur".into()
        }
    );
}

#[test]
fn zero_replicas_are_rejected() {
    let err = Pipeline::<u64>::builder()
        .stage_replicated("hot", |x: u64| x, 0)
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        BuildError::ZeroReplicas {
            stage: "hot".into()
        }
    );
}

#[test]
fn replicated_stateful_stage_is_rejected() {
    let err = Pipeline::<u64>::builder()
        .stateful_stage(
            StageSpec::balanced("sum", 1.0, 8)
                .with_state(8)
                .with_replicas(4),
            {
                let mut acc = 0u64;
                move |x: u64| {
                    acc += x;
                    acc
                }
            },
        )
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        BuildError::StatefulReplicated {
            stage: "sum".into()
        }
    );
}

#[test]
fn static_policy_with_paced_arrivals_is_rejected() {
    // A rate-paced open stream declares a live workload; Policy::Static
    // declares a fixed launch mapping. The combination is the classic
    // mis-specified baseline and fails the build with a typed error.
    let err = Pipeline::<u64>::builder()
        .stage("work", |x: u64| x)
        .policy(Policy::Static)
        .arrivals(ArrivalProcess::Uniform { rate: 2.0 })
        .build()
        .unwrap_err();
    assert!(matches!(
        err,
        BuildError::PolicyArrivalsMismatch {
            policy: "static",
            ..
        }
    ));
}

#[test]
fn reactive_policy_with_paced_arrivals_is_rejected() {
    // Reactive's degradation trigger compares realized throughput with
    // the saturated-capacity model; an arrival-limited stream misfires
    // it every interval.
    let err = Pipeline::<u64>::builder()
        .stage("work", |x: u64| x)
        .policy(Policy::Reactive {
            interval: SimDuration::from_secs(5),
            degradation: 0.8,
        })
        .arrivals(ArrivalProcess::Poisson { rate: 1.0, seed: 3 })
        .build()
        .unwrap_err();
    assert!(matches!(err, BuildError::PolicyArrivalsMismatch { .. }));
}

#[test]
fn adaptive_policies_accept_paced_arrivals() {
    let built = Pipeline::<u64>::builder()
        .stage("work", |x: u64| x)
        .policy(Policy::periodic_default())
        .arrivals(ArrivalProcess::Poisson { rate: 1.0, seed: 3 })
        .build();
    assert!(built.is_ok());
}

#[test]
fn invalid_arrival_rates_are_rejected() {
    let err = Pipeline::<u64>::builder()
        .stage("work", |x: u64| x)
        .policy(Policy::periodic_default())
        .arrivals(ArrivalProcess::Uniform { rate: 0.0 })
        .build()
        .unwrap_err();
    assert_eq!(err, BuildError::InvalidArrivalRate { rate: 0.0 });
}

#[test]
fn zero_adaptation_interval_is_rejected() {
    let err = Pipeline::<u64>::builder()
        .stage("work", |x: u64| x)
        .policy(Policy::Periodic {
            interval: SimDuration::ZERO,
        })
        .build()
        .unwrap_err();
    assert_eq!(err, BuildError::NonPositiveInterval { policy: "adaptive" });
}

#[test]
fn degradation_out_of_range_is_rejected() {
    for degradation in [0.0, -0.5, 1.5] {
        let err = Pipeline::<u64>::builder()
            .stage("work", |x: u64| x)
            .policy(Policy::Reactive {
                interval: SimDuration::from_secs(5),
                degradation,
            })
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::DegradationOutOfRange { degradation });
    }
}

#[test]
fn threads_backend_requires_a_feed() {
    let pipeline = Pipeline::<u64>::builder()
        .stage("work", |x: u64| x)
        .build()
        .expect("valid pipeline");
    let err = pipeline
        .run(
            Backend::Threads(vec![VNodeSpec::free("v0")]),
            RunConfig {
                items: 5,
                ..RunConfig::default()
            },
        )
        .unwrap_err();
    assert_eq!(err, BuildError::MissingFeed { backend: "threads" });
}

#[test]
fn threads_backend_rejects_least_loaded_selection() {
    let pipeline = Pipeline::<u64>::builder()
        .stage("work", |x: u64| x)
        .feed(|i| i)
        .build()
        .expect("valid pipeline");
    let err = pipeline
        .run(
            Backend::Threads(vec![VNodeSpec::free("v0")]),
            RunConfig {
                items: 5,
                selection: Selection::LeastLoaded,
                ..RunConfig::default()
            },
        )
        .unwrap_err();
    assert_eq!(err, BuildError::UnsupportedSelection { backend: "threads" });
}

#[test]
fn sim_backend_supports_least_loaded_selection() {
    let grid = testbed_small3();
    let handle = PipelineBuilder::from_spec(PipelineSpec::balanced(1, 1.0, 0))
        .policy(Policy::periodic_default())
        .build()
        .expect("valid pipeline")
        .run(
            Backend::Sim(&grid),
            RunConfig {
                items: 20,
                selection: Selection::LeastLoaded,
                ..RunConfig::default()
            },
        )
        .expect("sim supports least-loaded");
    assert_eq!(handle.report.completed, 20);
}

#[test]
fn declared_replica_bound_caps_the_planner() {
    // A hot stage on a 3-node free grid: unbounded, the planner farms
    // it over all nodes; bounded to 1, it must stay singular — the
    // declared replication property is enforced end to end.
    let grid = testbed_small3();
    let run_with_bound = |bound: usize| {
        Pipeline::<u64>::builder()
            .stage_replicated("hot", |x: u64| x + 1, bound)
            .policy(Policy::periodic_default())
            .feed(|i| i)
            .build()
            .expect("valid pipeline")
            .run(
                Backend::Sim(&grid),
                RunConfig {
                    items: 300,
                    ..RunConfig::default()
                },
            )
            .expect("sim run")
            .report
    };
    let narrow = run_with_bound(1);
    assert_eq!(
        narrow.final_mapping.placement(0).width(),
        1,
        "bound 1 must pin the stage to one node"
    );
    let wide = run_with_bound(3);
    assert!(
        wide.final_mapping.placement(0).width() >= 2,
        "bound 3 must let the planner farm the hot stage: {}",
        wide.final_mapping
    );
}

#[test]
fn initial_mapping_must_honor_declared_properties() {
    let grid = testbed_small3();
    // A stateful stage given a replicated launch mapping would fork its
    // state: rejected with a typed error instead of running wrong.
    let stateful = || {
        Pipeline::<u64>::builder()
            .stateful_stage(StageSpec::balanced("sum", 1.0, 8).with_state(8), {
                let mut acc = 0u64;
                move |x: u64| {
                    acc += x;
                    acc
                }
            })
            .build()
            .expect("valid pipeline")
    };
    let err = stateful()
        .run(
            Backend::Sim(&grid),
            RunConfig {
                items: 5,
                initial_mapping: Some(Mapping::new(vec![Placement::replicated(vec![
                    NodeId(0),
                    NodeId(1),
                ])])),
                ..RunConfig::default()
            },
        )
        .unwrap_err();
    assert!(matches!(err, BuildError::InvalidMapping { .. }), "{err}");

    // Wrong arity and out-of-range hosts are typed errors too.
    let err = stateful()
        .run(
            Backend::Sim(&grid),
            RunConfig {
                items: 5,
                initial_mapping: Some(Mapping::from_assignment(&[NodeId(0), NodeId(1)])),
                ..RunConfig::default()
            },
        )
        .unwrap_err();
    assert!(matches!(err, BuildError::InvalidMapping { .. }), "{err}");
    let err = stateful()
        .run(
            Backend::Threads(vec![VNodeSpec::free("v0")]),
            RunConfig {
                items: 5,
                initial_mapping: Some(Mapping::from_assignment(&[NodeId(3)])),
                ..RunConfig::default()
            },
        )
        .unwrap_err();
    assert!(matches!(err, BuildError::InvalidMapping { .. }), "{err}");
}

#[test]
fn acknowledged_baseline_permits_static_open_stream() {
    let grid = testbed_small3();
    let handle = PipelineBuilder::from_spec(PipelineSpec::balanced(2, 1.0, 0))
        .policy(Policy::Static)
        .arrivals(ArrivalProcess::Uniform { rate: 2.0 })
        .as_baseline()
        .build()
        .expect("acknowledged baseline builds")
        .run(
            Backend::Sim(&grid),
            RunConfig {
                items: 20,
                ..RunConfig::default()
            },
        )
        .expect("sim run");
    assert_eq!(handle.report.completed, 20);
}

#[test]
fn build_errors_format_for_humans() {
    let err = Pipeline::<u64>::builder()
        .stage_replicated("hot", |x: u64| x, 0)
        .build()
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("hot") && msg.contains("zero"), "msg: {msg}");
}

/// The README's state-pattern table, one stage per row, declared as the
/// table spells it: the spec records each declaration, and both backends
/// run the stateful chain to the sequential reference, item for item.
#[test]
fn the_readme_state_table_declares_and_runs_on_both_backends() {
    let pipeline = || {
        let mut tally = 0u64;
        Pipeline::<u64>::builder()
            .keyed_stage(
                "count",
                4,
                |x: &u64| x % 5,
                || 0u64,
                |seen, x: u64| {
                    *seen += 1;
                    (x, *seen)
                },
            )
            .accumulator_stage(
                "total",
                || 0u64,
                |sum: &mut u64, (x, seen): (u64, u64)| {
                    *sum += x;
                    (x, seen, *sum)
                },
                |sum: &mut u64, partial: u64| *sum += partial,
            )
            .exclusive_stage(
                "last",
                || 0u64,
                |prev: &mut u64, (x, seen, sum)| {
                    let out = (x, seen, sum, *prev);
                    *prev = x;
                    out
                },
            )
            .stateful_stage(
                StageSpec::balanced("tally", 1.0, 0),
                move |(x, seen, sum, prev): (u64, u64, u64, u64)| {
                    tally += 1;
                    (x, seen, sum, prev, tally)
                },
            )
            .build()
            .expect("a valid stateful pipeline")
    };
    let declared: Vec<StateAccess> = (pipeline().spec().stages.iter()).map(|s| s.state).collect();
    assert_eq!(
        declared,
        [
            StateAccess::Keyed { shards: 4 },
            StateAccess::Accumulator,
            StateAccess::Exclusive,
            StateAccess::Opaque,
        ]
    );
    const ITEMS: u64 = 50;
    let (mut seen, mut sum, mut prev) = ([0u64; 5], 0, 0);
    let reference: Vec<(u64, u64, u64, u64, u64)> = (0..ITEMS)
        .map(|x| {
            seen[(x % 5) as usize] += 1;
            sum += x;
            let out = (x, seen[(x % 5) as usize], sum, prev, x + 1);
            prev = x;
            out
        })
        .collect();
    let grid = testbed_small3();
    for (name, backend) in [
        ("sim", Backend::Sim(&grid)),
        ("threads", Backend::Threads(vec![VNodeSpec::free("v0")])),
    ] {
        let cfg = RunConfig {
            items: ITEMS,
            ..RunConfig::default()
        };
        // One item in flight at a time: each stateful stage sees the
        // stream in order, as the reference does, on either backend.
        let mut session = pipeline().spawn(backend, cfg).expect("spawns");
        let outputs: Vec<_> = (0..ITEMS)
            .map(|x| {
                session.push(x).unwrap();
                session.next().expect("one output per item")
            })
            .collect();
        assert_eq!(outputs, reference, "{name}");
        assert_eq!(session.drain().error, None, "{name}");
    }
}
