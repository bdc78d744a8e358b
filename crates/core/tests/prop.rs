//! Property-style tests for the simulated engine: determinism,
//! conservation, and model agreement.
//!
//! The workspace builds offline, so instead of a property-testing
//! framework these sweep each property over a deterministic fan of
//! seeded cases (the seeds drive `adapipe_gridsim::rng`). Failures
//! print the offending case, which reproduces exactly.

use adapipe_core::prelude::*;
use adapipe_core::simengine::run as sim_run;
use adapipe_gridsim::prelude::*;
use adapipe_gridsim::rng::{unit_at, Rng64};
use adapipe_mapper::prelude::*;

/// `policy` over a stream that is all present at `t = 0`.
fn under(policy: Policy) -> Session {
    Session::new(policy, ArrivalProcess::AllAtOnce).expect("a valid policy")
}

fn uniform_grid(np: usize, speeds_seed: u64) -> GridSpec {
    let nodes = (0..np)
        .map(|i| {
            let speed = 0.5 + 3.5 * unit_at(speeds_seed, i as u64);
            Node::new(NodeSpec::new(format!("n{i}"), speed, 1), LoadModel::free())
        })
        .collect();
    GridSpec::new(nodes, Topology::uniform(np, LinkSpec::lan()))
}

/// Two identical runs produce identical reports, even with adaptive
/// policies and noisy observation.
#[test]
fn simulation_is_deterministic() {
    for case in 0..12u64 {
        let mut rng = Rng64::new(0xD0_0D + case);
        let seed = rng.next_u64();
        let items = 10 + rng.next_range(190) as u64;
        let ns = 1 + rng.next_range(4);
        let noise = 0.2 * rng.next_unit();
        let grid = testbed_hetero8(seed);
        let spec = PipelineSpec::balanced(ns, 1.0, 5_000);
        let cfg = RunConfig {
            items,
            observation_noise: noise,
            noise_seed: seed,
            ..RunConfig::default()
        };
        let a = sim_run(&grid, &spec, &under(Policy::periodic_default()), &cfg);
        let b = sim_run(&grid, &spec, &under(Policy::periodic_default()), &cfg);
        assert_eq!(a.completed, b.completed, "case {case}");
        assert_eq!(a.makespan, b.makespan, "case {case}");
        assert_eq!(a.adaptations.len(), b.adaptations.len(), "case {case}");
        assert_eq!(a.mean_latency, b.mean_latency, "case {case}");
    }
}

/// Conservation: on a live grid every item completes exactly once.
#[test]
fn all_items_complete_exactly_once() {
    for case in 0..24u64 {
        let mut rng = Rng64::new(0xC0_FFEE + case);
        let speeds_seed = rng.next_u64();
        let items = 1 + rng.next_range(299) as u64;
        let ns = 1 + rng.next_range(5);
        let np = 1 + rng.next_range(5);
        let grid = uniform_grid(np, speeds_seed);
        let spec = PipelineSpec::balanced(ns, 0.5, 1_000);
        let report = sim_run(
            &grid,
            &spec,
            &Session::default(),
            &RunConfig {
                items,
                ..RunConfig::default()
            },
        );
        assert_eq!(report.completed, items, "case {case} (ns={ns} np={np})");
        assert!(!report.truncated, "case {case}");
        assert_eq!(report.timeline.total(), items, "case {case}");
    }
}

/// Makespan is monotone in stream length.
#[test]
fn makespan_grows_with_stream_length() {
    for case in 0..12u64 {
        let mut rng = Rng64::new(0xFACE + case);
        let speeds_seed = rng.next_u64();
        let n1 = 1 + rng.next_range(149) as u64;
        let extra = 1 + rng.next_range(149) as u64;
        let grid = uniform_grid(3, speeds_seed);
        let spec = PipelineSpec::balanced(3, 1.0, 1_000);
        let run = |items| {
            sim_run(
                &grid,
                &spec,
                &Session::default(),
                &RunConfig {
                    items,
                    ..RunConfig::default()
                },
            )
        };
        let a = run(n1);
        let b = run(n1 + extra);
        assert!(
            b.makespan >= a.makespan,
            "case {case} (n1={n1} extra={extra})"
        );
    }
}

/// On a static load-free grid the analytic model predicts simulated
/// makespan within 10 % for any mapping (uniform work, modest data).
#[test]
fn model_agrees_with_simulation() {
    for case in 0..16u64 {
        let mut rng = Rng64::new(0xAB1E + case);
        let speeds_seed = rng.next_u64();
        let ns = 1 + rng.next_range(4);
        let np = 1 + rng.next_range(3);
        let assignment_seed = rng.next_u64();
        let grid = uniform_grid(np, speeds_seed);
        let spec = PipelineSpec::balanced(ns, 1.0, 10_000);
        let assignment: Vec<NodeId> = (0..ns)
            .map(|s| NodeId((assignment_seed as usize).wrapping_add(s * 7) % np))
            .collect();
        let mapping = Mapping::from_assignment(&assignment);
        let profile = spec.profile();
        let rates = grid.rates_at(SimTime::ZERO);
        let pred = evaluate(&profile, &mapping, &rates, grid.topology());

        let items = 300u64;
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
        let predicted = pred.completion_time(items);
        let simulated = report.makespan.as_secs_f64();
        let err = (predicted - simulated).abs() / simulated.max(1e-9);
        assert!(
            err < 0.10,
            "case {case}: model {predicted:.2}s vs sim {simulated:.2}s ({:.1}% off)",
            err * 100.0
        );
    }
}

/// The adaptive policy never loses badly to static on any seeded
/// hetero8 grid: hysteresis bounds the cost of adaptation.
#[test]
fn adaptation_never_loses_badly() {
    for case in 0..10u64 {
        let seed = Rng64::new(0xBEEF + case).next_u64();
        let spec = PipelineSpec::balanced(4, 1.0, 5_000);
        let items = 200u64;
        let grid = testbed_hetero8(seed);
        let static_r = sim_run(
            &grid,
            &spec,
            &Session::default(),
            &RunConfig {
                items,
                ..RunConfig::default()
            },
        );
        let adaptive_r = sim_run(
            &grid,
            &spec,
            &under(Policy::periodic_default()),
            &RunConfig {
                items,
                ..RunConfig::default()
            },
        );
        assert_eq!(adaptive_r.completed, items);
        assert!(
            adaptive_r.makespan.as_secs_f64() <= static_r.makespan.as_secs_f64() * 1.25,
            "adaptive {} vs static {} (seed {seed})",
            adaptive_r.makespan,
            static_r.makespan
        );
    }
}

/// Work models: drawn work is always within the declared spread.
#[test]
fn uniform_work_respects_bounds() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(0x50_50 + case);
        let mean = 0.1 + 9.9 * rng.next_unit();
        let spread = 0.9 * rng.next_unit();
        let seed = rng.next_u64();
        let item = rng.next_u64();
        let w = UniformWork::new(mean, spread, seed);
        let v = w.draw(item);
        assert!(v >= mean * (1.0 - spread) - 1e-12, "case {case}");
        assert!(v <= mean * (1.0 + spread) + 1e-12, "case {case}");
    }
}
