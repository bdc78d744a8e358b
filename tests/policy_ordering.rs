//! Cross-crate integration: the fundamental ordering claims of the paper
//! — oracle ≥ adaptive ≥ static under dynamic load — hold end-to-end in
//! simulation, across seeds and scenarios.

use adapipe::core::simengine::run as sim_run;
use adapipe::prelude::*;
/// `policy` over a stream that is all present at `t = 0`.
fn under(policy: Policy) -> Session {
    Session::new(policy, ArrivalProcess::AllAtOnce).expect("a valid policy")
}

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

fn run_policy(grid: &GridSpec, spec: &PipelineSpec, items: u64, policy: Policy) -> RunReport {
    let cfg = RunConfig {
        items,
        ..RunConfig::default()
    };
    sim_run(grid, spec, &under(policy), &cfg)
}

/// Load step on one host: adaptive must end between oracle and static.
#[test]
fn ordering_under_load_step() {
    let interval = SimDuration::from_secs(5);
    for seed in [1u64, 2, 3] {
        let mut grid = testbed_hetero8(seed);
        // Hit the fastest node (which the planner will have used).
        FaultPlan::new()
            .slowdown(NodeId(0), secs(40.0), secs(1e6), 0.05)
            .apply(&mut grid);
        let spec = PipelineSpec::balanced(4, 2.0, 10_000);

        let static_r = run_policy(&grid, &spec, 400, Policy::Static);
        let adaptive_r = run_policy(&grid, &spec, 400, Policy::Periodic { interval });
        let oracle_r = run_policy(&grid, &spec, 400, Policy::Oracle { interval });

        assert_eq!(static_r.completed, 400);
        assert_eq!(adaptive_r.completed, 400);
        assert_eq!(oracle_r.completed, 400);
        assert!(
            adaptive_r.makespan.as_secs_f64() <= static_r.makespan.as_secs_f64() * 1.02,
            "seed {seed}: adaptive {} must not lose to static {}",
            adaptive_r.makespan,
            static_r.makespan
        );
        assert!(
            oracle_r.makespan.as_secs_f64() <= adaptive_r.makespan.as_secs_f64() * 1.10,
            "seed {seed}: oracle {} should be near-best vs adaptive {}",
            oracle_r.makespan,
            adaptive_r.makespan
        );
    }
}

/// On a *calm* grid adaptation must not thrash: the adaptive run stays
/// within a whisker of static (same mapping, zero or few remaps).
#[test]
fn no_thrashing_on_calm_grid() {
    let grid = testbed_small3();
    let spec = PipelineSpec::balanced(3, 1.0, 1000);
    let static_r = run_policy(&grid, &spec, 300, Policy::Static);
    let adaptive_r = run_policy(
        &grid,
        &spec,
        300,
        Policy::Periodic {
            interval: SimDuration::from_secs(5),
        },
    );
    assert_eq!(adaptive_r.adaptation_count(), 0, "nothing to adapt to");
    let ratio = adaptive_r.makespan.as_secs_f64() / static_r.makespan.as_secs_f64();
    assert!((0.98..1.02).contains(&ratio), "ratio={ratio}");
}

/// The analytic model predicts simulated makespan well on a static,
/// load-free grid (model validation, the basis of experiment T2).
#[test]
fn model_matches_simulation_on_static_grid() {
    let grid = testbed_small3();
    let spec = PipelineSpec::balanced(3, 2.0, 50_000);
    let profile = spec.profile();
    let mapping = Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2)]);
    let rates = grid.rates_at(SimTime::ZERO);
    let prediction = evaluate(&profile, &mapping, &rates, grid.topology());

    let items = 500u64;
    let report = sim_run(
        &grid,
        &spec,
        &Session::default(),
        &RunConfig {
            items,
            initial_mapping: Some(mapping),
            ..RunConfig::default()
        },
    );
    let predicted = prediction.completion_time(items);
    let simulated = report.makespan.as_secs_f64();
    let err = (predicted - simulated).abs() / simulated;
    assert!(
        err < 0.05,
        "model {predicted:.1}s vs sim {simulated:.1}s (err {:.1}%)",
        err * 100.0
    );
}

/// Reactive planning runs fewer cycles than periodic but still recovers.
#[test]
fn reactive_is_lazier_but_recovers() {
    let interval = SimDuration::from_secs(5);
    let mut grid = testbed_small3();
    FaultPlan::new()
        .slowdown(NodeId(1), secs(50.0), secs(1e6), 0.05)
        .apply(&mut grid);
    let spec = PipelineSpec::balanced(3, 1.0, 0);
    let mapping = Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2)]);

    let cfg = RunConfig {
        items: 500,
        initial_mapping: Some(mapping),
        ..RunConfig::default()
    };
    let reactive = sim_run(
        &grid,
        &spec,
        &under(Policy::Reactive {
            interval,
            degradation: 0.7,
        }),
        &cfg,
    );
    let static_r = sim_run(&grid, &spec, &under(Policy::Static), &cfg);
    assert!(reactive.adaptation_count() >= 1);
    assert!(
        reactive.makespan.as_secs_f64() < 0.6 * static_r.makespan.as_secs_f64(),
        "reactive {} vs static {}",
        reactive.makespan,
        static_r.makespan
    );
}

/// Longer streams amortise adaptation better: the adaptive:static
/// makespan ratio must not grow with N.
#[test]
fn adaptation_gain_amortises_with_stream_length() {
    let interval = SimDuration::from_secs(5);
    let mut ratios = Vec::new();
    for items in [100u64, 400, 1600] {
        let mut grid = testbed_small3();
        FaultPlan::new()
            .slowdown(NodeId(1), secs(30.0), secs(1e6), 0.1)
            .apply(&mut grid);
        let spec = PipelineSpec::balanced(3, 1.0, 0);
        let mapping = Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2)]);
        let cfg = RunConfig {
            items,
            initial_mapping: Some(mapping.clone()),
            ..RunConfig::default()
        };
        let adaptive = sim_run(&grid, &spec, &under(Policy::Periodic { interval }), &cfg);
        let static_r = sim_run(&grid, &spec, &under(Policy::Static), &cfg);
        ratios.push(adaptive.makespan.as_secs_f64() / static_r.makespan.as_secs_f64());
    }
    assert!(
        ratios[2] <= ratios[0] + 0.02,
        "gain should not shrink with N: ratios {ratios:?}"
    );
    assert!(ratios[2] < 0.6, "long stream must clearly win: {ratios:?}");
}
