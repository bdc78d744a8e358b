//! Integration tests for adaptation *stability* — the guarantees that
//! keep the pattern safe to leave enabled on hostile grids.
//!
//! These encode the failure modes found while building ablation A2:
//! forecast aliasing against oscillating load, cold-start
//! over-extrapolation, and re-mapping churn.

use adapipe::core::simengine::run as sim_run;
use adapipe::prelude::*;
/// `policy` over a stream that is all present at `t = 0`.
fn under(policy: Policy) -> Session {
    Session::new(policy, ArrivalProcess::AllAtOnce).expect("a valid policy")
}

/// Two of four nodes oscillate 1.0 ↔ 0.1 with a period near the
/// adaptation interval — the adversarial regime.
fn wave_grid(period_s: u64) -> GridSpec {
    let period = SimDuration::from_secs(period_s);
    let nodes = (0..4)
        .map(|i| {
            let load = match i {
                1 => LoadModel::square_wave(1.0, 0.1, period, 0.5, SimDuration::ZERO),
                3 => LoadModel::square_wave(1.0, 0.1, period, 0.5, period.mul_f64(0.5)),
                _ => LoadModel::free(),
            };
            Node::new(NodeSpec::new(format!("n{i}"), 1.0, 1), load)
        })
        .collect();
    GridSpec::new(nodes, Topology::uniform(4, LinkSpec::lan()))
}

fn spread4() -> Mapping {
    Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)])
}

/// In the adversarial oscillation regime the adaptive run must stay
/// within a small factor of static — hysteresis + warm-up + confirmation
/// bound the churn.
#[test]
fn oscillating_load_never_causes_large_loss() {
    for period_s in [4u64, 10, 20] {
        let grid = wave_grid(period_s);
        let spec = PipelineSpec::balanced(4, 1.0, 10_000);
        let cfg = RunConfig {
            items: 400,
            initial_mapping: Some(spread4()),
            ..RunConfig::default()
        };
        let static_r = sim_run(&grid, &spec, &under(Policy::Static), &cfg);
        let adaptive_r = sim_run(&grid, &spec, &under(Policy::periodic_default()), &cfg);
        assert_eq!(adaptive_r.completed, 400);
        let ratio = adaptive_r.makespan.as_secs_f64() / static_r.makespan.as_secs_f64();
        assert!(
            ratio < 1.10,
            "period {period_s}s: adaptive lost {:.0}% to static",
            (ratio - 1.0) * 100.0
        );
    }
}

/// The confirmed controller re-maps at most a handful of times under
/// oscillation, while a fully naive controller (no hysteresis, no
/// confirmation, instant trust) re-maps more.
#[test]
fn confirmation_limits_churn() {
    let grid = wave_grid(10);
    let spec = PipelineSpec::balanced(4, 1.0, 10_000);
    let mut confirmed_cfg = RunConfig {
        items: 400,
        initial_mapping: Some(spread4()),
        ..RunConfig::default()
    };
    confirmed_cfg.controller.warmup_ticks = 2;
    confirmed_cfg.controller.confirm_ticks = 2;

    let mut naive_cfg = confirmed_cfg.clone();
    naive_cfg.controller.warmup_ticks = 0;
    naive_cfg.controller.confirm_ticks = 1;
    naive_cfg.controller.decision = adapipe::mapper::decide::DecisionConfig {
        min_relative_gain: 0.0,
        cost_benefit_factor: 0.0,
    };

    let periodic = under(Policy::periodic_default());
    let confirmed = sim_run(&grid, &spec, &periodic, &confirmed_cfg);
    let naive = sim_run(&grid, &spec, &periodic, &naive_cfg);
    assert!(
        confirmed.adaptation_count() <= naive.adaptation_count(),
        "confirmation must not re-map more than naive ({} vs {})",
        confirmed.adaptation_count(),
        naive.adaptation_count()
    );
    // With the regret guard active the confirmed controller may probe a
    // few configurations (each revert re-arms planning after the hold),
    // but stays an order of magnitude below the naive controller's churn.
    assert!(
        confirmed.adaptation_count() <= 12,
        "confirmed controller churned: {} re-mappings",
        confirmed.adaptation_count()
    );
}

/// Warm-up suppresses cold-start decisions: with a long warm-up nothing
/// can happen before `warmup_ticks × interval`.
#[test]
fn warmup_delays_first_adaptation() {
    let mut grid = testbed_small3();
    FaultPlan::new()
        .slowdown(
            NodeId(1),
            SimTime::from_secs_f64(1.0),
            SimTime::from_secs_f64(1e6),
            0.05,
        )
        .apply(&mut grid);
    let spec = PipelineSpec::balanced(3, 1.0, 0);
    let mut cfg = RunConfig {
        items: 300,
        initial_mapping: Some(Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2)])),
        ..RunConfig::default()
    };
    cfg.controller.warmup_ticks = 4;
    cfg.controller.confirm_ticks = 2;
    let report = sim_run(&grid, &spec, &under(Policy::periodic_default()), &cfg);
    assert!(
        report.adaptation_count() >= 1,
        "fault must eventually be handled"
    );
    // Ticks at 5,10,15,20 are warm-up; the first possible verdict is at
    // t=25 and confirmation delays action to t=30.
    assert!(
        report.adaptations[0].at >= SimTime::from_secs_f64(30.0),
        "first adaptation at {} despite warmup",
        report.adaptations[0].at
    );
}

/// Planning-cycle accounting: reactive plans strictly less often than
/// periodic on a calm grid (it only plans when throughput degrades).
#[test]
fn reactive_plans_less_than_periodic() {
    let grid = testbed_small3();
    let spec = PipelineSpec::balanced(3, 1.0, 0);
    let interval = SimDuration::from_secs(5);
    let cfg = RunConfig {
        items: 400,
        initial_mapping: Some(Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2)])),
        ..RunConfig::default()
    };
    let periodic = sim_run(&grid, &spec, &under(Policy::Periodic { interval }), &cfg);
    let reactive = sim_run(
        &grid,
        &spec,
        &under(Policy::Reactive {
            interval,
            degradation: 0.7,
        }),
        &cfg,
    );
    assert!(periodic.planning_cycles > 0);
    assert_eq!(
        reactive.planning_cycles, 0,
        "calm grid: reactive must never trigger planning"
    );
    assert_eq!(reactive.adaptation_count(), 0);
}

/// Observation noise at realistic magnitudes must not destabilise the
/// controller on a calm grid.
#[test]
fn noise_alone_never_triggers_remapping() {
    let grid = testbed_small3();
    let spec = PipelineSpec::balanced(3, 1.0, 0);
    for seed in [1u64, 2, 3] {
        let cfg = RunConfig {
            items: 300,
            initial_mapping: Some(Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2)])),
            observation_noise: 0.10,
            noise_seed: seed,
            ..RunConfig::default()
        };
        let report = sim_run(&grid, &spec, &under(Policy::periodic_default()), &cfg);
        assert_eq!(
            report.adaptation_count(),
            0,
            "seed {seed}: ±10% sensor noise caused a re-mapping"
        );
    }
}

/// Observation noise at realistic magnitudes must not prevent the
/// controller from reacting to a genuine collapse either.
#[test]
fn observation_noise_does_not_break_adaptation() {
    let mut grid = testbed_small3();
    FaultPlan::new()
        .slowdown(
            NodeId(1),
            SimTime::from_secs_f64(40.0),
            SimTime::from_secs_f64(100_000.0),
            0.05,
        )
        .apply(&mut grid);
    let spec = PipelineSpec::balanced(3, 1.0, 0);
    let cfg = RunConfig {
        items: 400,
        initial_mapping: Some(Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2)])),
        observation_noise: 0.10,
        ..RunConfig::default()
    };
    let report = sim_run(&grid, &spec, &under(Policy::periodic_default()), &cfg);
    assert_eq!(report.completed, 400);
    assert!(report.adaptation_count() >= 1);
}

/// A load pattern the NWS family mispredicts: square wave phase-locked
/// to the adaptation interval. Force a remap-prone controller (no
/// hysteresis) and verify the regret guard steps in: the run must end
/// within a modest factor of static.
#[test]
fn regret_guard_reverts_underperforming_remap() {
    let grid = wave_grid(10);
    let spec = PipelineSpec::balanced(4, 1.0, 0);
    let mapping = spread4();

    let mut with_guard = RunConfig {
        items: 400,
        initial_mapping: Some(mapping.clone()),
        ..RunConfig::default()
    };
    with_guard.controller.decision = adapipe::mapper::decide::DecisionConfig {
        min_relative_gain: 0.0,
        cost_benefit_factor: 0.0,
    };

    let mut without_guard = with_guard.clone();
    without_guard.controller.guard_bad_ticks = 0; // disable

    let static_cfg = RunConfig {
        items: 400,
        initial_mapping: Some(mapping),
        ..RunConfig::default()
    };

    let periodic = under(Policy::periodic_default());
    let guarded = sim_run(&grid, &spec, &periodic, &with_guard);
    let unguarded = sim_run(&grid, &spec, &periodic, &without_guard);
    let static_r = sim_run(&grid, &spec, &Session::default(), &static_cfg);
    assert_eq!(guarded.completed, 400);
    assert_eq!(unguarded.completed, 400);
    // The guard must not make things worse than the unguarded
    // controller, and must keep the loss vs static bounded.
    assert!(
        guarded.makespan.as_secs_f64() <= unguarded.makespan.as_secs_f64() * 1.05,
        "guard hurt: {} vs {}",
        guarded.makespan,
        unguarded.makespan
    );
    assert!(
        guarded.makespan.as_secs_f64() <= static_r.makespan.as_secs_f64() * 1.30,
        "guarded adaptive lost too much to static: {} vs {}",
        guarded.makespan,
        static_r.makespan
    );
}
