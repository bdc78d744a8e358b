//! Cross-engine parity through the *unified* API: the same built
//! pipeline (spec + policy + seed) must behave the same on both
//! execution backends, because both run the same adaptive runtime and
//! both now sit behind one `Pipeline::builder()` surface. One scenario —
//! a node collapsing shortly after launch — is written exactly once and
//! parameterised by [`Backend`].

use adapipe::prelude::*;
use std::time::Duration;

fn n(i: usize) -> NodeId {
    NodeId(i)
}

/// Per-item work each stage performs, as wall/sim seconds.
const STAGE_SECS: f64 = 0.004;
const ITEMS: u64 = 150;
/// Node 1 collapses to 5 % availability at t = 0.3 s.
fn collapse() -> LoadModel {
    LoadModel::step(1.0, 0.05, SimTime::from_secs_f64(0.3))
}

fn stage_spec(name: &str) -> StageSpec {
    StageSpec::balanced(name, STAGE_SECS, 8)
}

/// The one scenario program: two stages that spin for their declared
/// work (the threaded backend runs them; the simulator runs the
/// metadata), under `policy`, fed by the item index.
fn scenario(policy: Policy) -> Pipeline<u64, u64> {
    scenario_spinning(policy, true)
}

/// [`scenario`], with the spin optional: a live simulated session runs
/// the stage functions too, and has no use for their wall time.
fn scenario_spinning(policy: Policy, spin: bool) -> Pipeline<u64, u64> {
    let work = move |x: u64| {
        if spin {
            spin_for(Duration::from_secs_f64(STAGE_SECS));
        }
        x + 1
    };
    Pipeline::<u64>::builder()
        .stage_with(stage_spec("a"), work)
        .stage_with(stage_spec("b"), work)
        .policy(policy)
        .feed(|i| i)
        .build()
        .expect("scenario builds")
}

/// The run configuration, identical for both backends.
fn scenario_cfg(noise_seed: u64) -> RunConfig {
    RunConfig {
        items: ITEMS,
        initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1)])),
        observation_noise: 0.05,
        noise_seed,
        timeline_bucket: Some(SimDuration::from_millis(500)),
        ..RunConfig::default()
    }
}

/// The simulated grid twin of the vnode box.
fn scenario_grid() -> GridSpec {
    grid_with(collapse())
}

fn scenario_vnodes() -> Vec<VNodeSpec> {
    vnodes_with(collapse())
}

/// Three unit nodes, the middle one under `load`.
fn grid_with(load: LoadModel) -> GridSpec {
    let nodes = (0..3)
        .map(|i| {
            let load = if i == 1 {
                load.clone()
            } else {
                LoadModel::free()
            };
            Node::new(NodeSpec::new(format!("n{i}"), 1.0, 1), load)
        })
        .collect();
    GridSpec::new(nodes, Topology::uniform(3, LinkSpec::local()))
}

fn vnodes_with(load: LoadModel) -> Vec<VNodeSpec> {
    vec![
        VNodeSpec::free("v0"),
        VNodeSpec::free("v1").with_load(load),
        VNodeSpec::free("v2"),
    ]
}

/// Asserts the two backends agree on the observable adaptive behaviour.
fn assert_parity(policy: Policy) {
    let grid = scenario_grid();
    let sim = scenario(policy)
        .run(Backend::Sim(&grid), scenario_cfg(7))
        .expect("sim run")
        .report;
    let threaded = scenario(policy)
        .run(Backend::Threads(scenario_vnodes()), scenario_cfg(7))
        .expect("threaded run");

    // Same completed-item counts on both backends.
    assert_eq!(sim.completed, ITEMS, "sim backend lost items");
    assert_eq!(
        threaded.report.completed, ITEMS,
        "threaded backend lost items"
    );
    assert_eq!(sim.completed, threaded.report.completed);

    // Both adapt away from the collapsed node (non-empty event logs with
    // identical structure: the shared runtime assembled both reports).
    assert!(
        sim.adaptation_count() >= 1,
        "sim backend never adapted under {policy:?}"
    );
    assert!(
        threaded.report.adaptation_count() >= 1,
        "threaded backend never adapted under {policy:?}"
    );
    for report in [&sim, &threaded.report] {
        assert!(report.planning_cycles >= 1);
        assert_eq!(report.stage_metrics.len(), 2, "one stats slot per stage");
        for event in &report.adaptations {
            assert!(!event.migrated_stages.is_empty());
            assert!(event.predicted_speedup > 1.0);
        }
    }

    // Exactly-once processing on the threaded side (x + 2 per item).
    let expect: Vec<u64> = (0..ITEMS).map(|x| x + 2).collect();
    assert_eq!(threaded.outputs, expect);
}

#[test]
fn parity_under_periodic_policy() {
    assert_parity(Policy::Periodic {
        interval: SimDuration::from_millis(200),
    });
}

#[test]
fn parity_under_reactive_policy() {
    assert_parity(Policy::Reactive {
        interval: SimDuration::from_millis(200),
        degradation: 0.6,
    });
}

// --- adaptation behaviour on the threaded backend alone ---------------
// (These exercise the shared runtime's policies through the unified
// API; the scenarios need real threads because they assert on wall
// clocks and real outputs.)

fn spin_scenario(policy: Policy, ms: u64) -> Pipeline<u64, u64> {
    Pipeline::<u64>::builder()
        .stage_with(
            StageSpec::balanced("a", ms as f64 / 1000.0, 8),
            move |x: u64| {
                spin_for(Duration::from_millis(ms));
                x + 1
            },
        )
        .stage_with(
            StageSpec::balanced("b", ms as f64 / 1000.0, 8),
            move |x: u64| {
                spin_for(Duration::from_millis(ms));
                x + 1
            },
        )
        .policy(policy)
        .feed(|i| i)
        .build()
        .expect("spin scenario builds")
}

#[test]
fn adaptive_engine_remaps_away_from_loaded_node() {
    // Node 1 collapses to 5 % availability 300 ms into the run; the
    // periodic controller must move its stage elsewhere.
    let pipeline = spin_scenario(
        Policy::Periodic {
            interval: SimDuration::from_millis(200),
        },
        4,
    );
    let cfg = RunConfig {
        items: 150,
        initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1)])),
        ..RunConfig::default()
    };
    let outcome = pipeline
        .run(Backend::Threads(scenario_vnodes()), cfg)
        .expect("threaded run");
    assert_eq!(outcome.report.completed, 150);
    assert!(
        outcome.report.adaptation_count() >= 1,
        "controller must re-map at least once"
    );
    // Final mapping avoids the loaded node.
    let final_hosts = outcome.report.final_mapping.nodes_used();
    assert!(
        !final_hosts.contains(&n(1)),
        "stage still on loaded node: {}",
        outcome.report.final_mapping
    );
    // And every item still processed exactly once, in order.
    let expect: Vec<u64> = (0..150).map(|x| x + 2).collect();
    assert_eq!(outcome.outputs, expect);
}

#[test]
fn reactive_policy_recovers_on_engine() {
    // Same scenario as the periodic test, but the reactive policy only
    // plans when observed throughput degrades.
    let pipeline = spin_scenario(
        Policy::Reactive {
            interval: SimDuration::from_millis(200),
            degradation: 0.6,
        },
        4,
    );
    let cfg = RunConfig {
        items: 200,
        initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1)])),
        ..RunConfig::default()
    };
    let outcome = pipeline
        .run(Backend::Threads(scenario_vnodes()), cfg)
        .expect("threaded run");
    assert_eq!(outcome.report.completed, 200);
    assert!(
        outcome.report.adaptation_count() >= 1,
        "reactive controller must react to the collapse"
    );
    let expect: Vec<u64> = (0..200).map(|x| x + 2).collect();
    assert_eq!(outcome.outputs, expect);
}

#[test]
fn oracle_policy_runs_on_engine() {
    let pipeline = Pipeline::<u64>::builder()
        .stage_with(StageSpec::balanced("a", 0.003, 8), |x: u64| {
            spin_for(Duration::from_millis(3));
            x + 1
        })
        .policy(Policy::Oracle {
            interval: SimDuration::from_millis(150),
        })
        .feed(|i| i)
        .build()
        .expect("oracle scenario builds");
    let vnodes = vec![
        VNodeSpec::free("v0").with_load(LoadModel::step(1.0, 0.05, SimTime::from_secs_f64(0.2))),
        VNodeSpec::free("v1"),
    ];
    let cfg = RunConfig {
        items: 150,
        initial_mapping: Some(Mapping::all_on(n(0), 1)),
        ..RunConfig::default()
    };
    let outcome = pipeline
        .run(Backend::Threads(vnodes), cfg)
        .expect("threaded run");
    assert_eq!(outcome.report.completed, 150);
    assert!(outcome.report.adaptation_count() >= 1);
    assert!(!outcome.report.final_mapping.placement(0).contains(n(0)));
}

#[test]
fn observation_noise_on_engine_is_tolerated() {
    let pipeline = spin_scenario(
        Policy::Periodic {
            interval: SimDuration::from_millis(150),
        },
        2,
    );
    let cfg = RunConfig {
        items: 100,
        observation_noise: 0.10,
        ..RunConfig::default()
    };
    let outcome = pipeline
        .run(
            Backend::Threads(vec![VNodeSpec::free("v0"), VNodeSpec::free("v1")]),
            cfg,
        )
        .expect("threaded run");
    assert_eq!(outcome.report.completed, 100);
    let expect: Vec<u64> = (0..100).map(|x| x + 2).collect();
    assert_eq!(outcome.outputs, expect);
}

#[test]
fn planning_cycles_are_reported() {
    // Pace the input (through the unified arrivals declaration) so the
    // run outlives the 2-tick warm-up by a comfortable margin.
    let pipeline = Pipeline::<u64>::builder()
        .stage_with(StageSpec::balanced("a", 0.002, 8), |x: u64| {
            spin_for(Duration::from_millis(2));
            x + 1
        })
        .policy(Policy::Periodic {
            interval: SimDuration::from_millis(100),
        })
        .arrivals(ArrivalProcess::Uniform { rate: 200.0 }) // 150 items → ≥ 750 ms
        .feed(|i| i)
        .build()
        .expect("paced scenario builds");
    let outcome = pipeline
        .run(
            Backend::Threads(vec![VNodeSpec::free("v0"), VNodeSpec::free("v1")]),
            RunConfig {
                items: 150,
                ..RunConfig::default()
            },
        )
        .expect("threaded run");
    assert!(outcome.report.planning_cycles >= 1);
}

// --- the one-config seam ----------------------------------------------
// `RunConfig` is handed to both backends as it is. Each backend-neutral
// field is set away from its default here and has to be *observed* in
// the run, on the simulator and on real threads alike.

/// Node 1 drops to a fifth at t = 0.3 s: enough for the planner to move
/// stage `b` off it, mild enough that a run which may not re-map still
/// ends in a few seconds.
fn sag() -> LoadModel {
    LoadModel::step(1.0, 0.2, SimTime::from_secs_f64(0.3))
}

fn periodic() -> Policy {
    Policy::Periodic {
        interval: SimDuration::from_millis(200),
    }
}

/// Every backend-neutral field away from its default; the launch
/// mapping puts stage `b` on the node that sags.
fn seam_cfg(items: u64) -> RunConfig {
    let mut cfg = RunConfig {
        items,
        initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1)])),
        observation_noise: 0.05,
        noise_seed: 7,
        timeline_bucket: Some(SimDuration::from_millis(250)),
        preserve_order: false,
        faults: FaultPlan::new().outage(
            n(2),
            SimTime::from_secs_f64(0.05),
            SimTime::from_secs_f64(0.10),
        ),
        ..RunConfig::default()
    };
    cfg.controller.warmup_ticks = 1;
    cfg
}

/// Spawns the scenario under `policy` and `cfg` on each backend in
/// turn, pushes the stream, drains, and hands `check` the backend's
/// name, what came out and the events the run put on `cfg`'s bus.
fn on_both_backends(
    policy: Policy,
    cfg: impl Fn() -> RunConfig,
    check: impl Fn(&str, RunHandle<u64>, Vec<RunEvent>),
) {
    let grid = grid_with(sag());
    for (name, backend) in [
        ("sim", Backend::Sim(&grid)),
        ("threads", Backend::Threads(vnodes_with(sag()))),
    ] {
        let cfg = cfg();
        let events = cfg.events.subscribe();
        let mut session = scenario_spinning(policy, name == "threads")
            .spawn(backend, cfg)
            .expect("spawn");
        session.push_batch(0..ITEMS).expect("an open session");
        let handle = session.drain();
        assert_eq!(handle.report.completed, ITEMS, "{name} lost items");
        let mut outputs = handle.outputs.clone();
        outputs.sort_unstable();
        assert_eq!(outputs, (2..ITEMS + 2).collect::<Vec<_>>(), "{name}");
        check(name, handle, events.try_iter().collect());
    }
}

#[test]
fn every_neutral_run_config_field_is_observed_on_both_backends() {
    // The launch mapping, the bucket width, the fault plan, the event
    // bus — and `items` as the amortisation hint: the sagging node is
    // worth leaving only while the loop believes work remains.
    on_both_backends(
        periodic(),
        || seam_cfg(ITEMS),
        |name, run, events| {
            assert_eq!(
                run.report.timeline.window(),
                SimDuration::from_millis(250),
                "{name}: Some(bucket) is the bucket"
            );
            assert!(
                run.report.adaptation_count() >= 1,
                "{name}: hinted {ITEMS} items to go, never left the sagging node"
            );
            let first_window = events.iter().find_map(|e| match e {
                RunEvent::Tick { verdict, .. } => Some(*verdict == Verdict::Paused),
                _ => None,
            });
            assert_eq!(first_window, Some(false), "{name}: no Tick on the bus");
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, RunEvent::NodeDown { node: 2, .. })),
                "{name}: the run's fault plan never took node 2 down"
            );
        },
    );
    // The same run told nothing remains: it plans, and stays put.
    on_both_backends(
        periodic(),
        || seam_cfg(0),
        |name, run, _| {
            assert!(run.report.planning_cycles >= 1, "{name}");
            assert_eq!(
                run.report.adaptation_count(),
                0,
                "{name}: re-mapped with a hint of zero items to go"
            );
        },
    );
    // Paused before spawn: windows are still reported, nothing commits.
    on_both_backends(
        periodic(),
        || {
            let cfg = seam_cfg(ITEMS);
            cfg.control.pause_adaptation();
            cfg
        },
        |name, run, events| {
            assert_eq!(
                run.report.adaptation_count(),
                0,
                "{name}: re-mapped while paused"
            );
            assert!(
                events.iter().any(|e| matches!(
                    e,
                    RunEvent::Tick {
                        verdict: Verdict::Paused,
                        ..
                    }
                )),
                "{name}: the paused loop reported no window"
            );
        },
    );
    // Static: the launch mapping is the final one, and `None` resolves
    // to each backend's own bucket — the one default that differs.
    on_both_backends(
        Policy::Static,
        || RunConfig {
            timeline_bucket: None,
            ..seam_cfg(ITEMS)
        },
        |name, run, _| {
            assert_eq!(
                run.report.final_mapping,
                Mapping::from_assignment(&[n(0), n(1)]),
                "{name}"
            );
            let native = if name == "sim" {
                SimDuration::from_secs(5)
            } else {
                SimDuration::from_millis(500)
            };
            assert_eq!(run.report.timeline.window(), native, "{name}");
        },
    );
}
