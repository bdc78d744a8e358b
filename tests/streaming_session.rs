//! The streaming session API, exercised end to end: one scenario
//! written once against `RunSession` must behave identically on
//! `Backend::Sim` and `Backend::Threads` — item-exact output parity,
//! matching committed re-mappings on the `RunEvent::Remap` stream, real
//! backpressure under a bounded `queue_capacity`, and in-flight control
//! (pause/resume/force/abort).

use adapipe::prelude::*;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn n(i: usize) -> NodeId {
    NodeId(i)
}

/// Held by each test whose stages spin real CPU on the threaded
/// backend: those tests take turns. The scenario below spins 0.6 of a
/// core on each of two vnodes, so two copies at once ask 2.4 cores of
/// a 2-core host. The regret guard reads the shortfall that causes as
/// the adopted mapping's, and can revert onto the collapsed node.
fn exclusive_cpu() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the others still run alone.
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------
// Scenario written once, parameterised by backend
// ---------------------------------------------------------------------

/// Per-item work each stage declares (and, on threads, actually spins).
const STAGE_SECS: f64 = 0.004;
const ITEMS: u64 = 150;
/// Wall/sim pacing of the pushed stream: 150 items at 150/s ≈ 1 s.
const PUSH_RATE: f64 = 150.0;

/// Node 1 collapses to 5 % availability at t = 0.3 s.
fn collapse() -> LoadModel {
    LoadModel::step(1.0, 0.05, SimTime::from_secs_f64(0.3))
}

fn scenario_pipeline() -> Pipeline<u64, u64> {
    Pipeline::<u64>::builder()
        .stage_with(StageSpec::balanced("a", STAGE_SECS, 8), |x: u64| {
            spin_for(Duration::from_secs_f64(STAGE_SECS));
            x + 1
        })
        .stage_with(StageSpec::balanced("b", STAGE_SECS, 8), |x: u64| {
            spin_for(Duration::from_secs_f64(STAGE_SECS));
            x + 1
        })
        .policy(Policy::Periodic {
            interval: SimDuration::from_millis(200),
        })
        .arrivals(ArrivalProcess::Uniform { rate: PUSH_RATE })
        .build()
        .expect("scenario builds")
}

fn scenario_grid() -> GridSpec {
    let nodes = (0..3)
        .map(|i| {
            let load = if i == 1 {
                collapse()
            } else {
                LoadModel::free()
            };
            Node::new(NodeSpec::new(format!("n{i}"), 1.0, 1), load)
        })
        .collect();
    GridSpec::new(nodes, Topology::uniform(3, LinkSpec::local()))
}

fn scenario_vnodes() -> Vec<VNodeSpec> {
    vec![
        VNodeSpec::free("v0"),
        VNodeSpec::free("v1").with_load(collapse()),
        VNodeSpec::free("v2"),
    ]
}

struct ScenarioOutcome {
    outputs: Vec<u64>,
    report: RunReport,
    /// (from, to) of every `RunEvent::Remap`, in order.
    event_remaps: Vec<(Mapping, Mapping)>,
}

/// Drives the scenario through a live session on `backend`: paced
/// pushes (wall pacing for the threaded backend; the simulator also
/// takes the declared arrival process), outputs consumed while
/// producing, graceful drain.
fn run_scenario(backend: Backend<'_>) -> ScenarioOutcome {
    let wall_paced = matches!(backend, Backend::Threads(_));
    let cfg = RunConfig {
        items: ITEMS,
        initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1)])),
        timeline_bucket: Some(SimDuration::from_millis(500)),
        ..RunConfig::default()
    };
    let mut session = scenario_pipeline().spawn(backend, cfg).expect("spawn");
    let events = session.events();

    let mut outputs = Vec::new();
    let epoch = Instant::now();
    for i in 0..ITEMS {
        if wall_paced {
            let due = epoch + Duration::from_secs_f64(i as f64 / PUSH_RATE);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        session.push(i).unwrap();
        // Consume while producing — the stream is live.
        while let TryNext::Item(o) = session.try_next() {
            outputs.push(o);
        }
    }
    let handle = session.drain();
    outputs.extend(handle.outputs);

    let event_remaps = events
        .try_iter()
        .filter_map(|e| match e {
            RunEvent::Remap { plan, .. } => Some((plan.from, plan.to)),
            _ => None,
        })
        .collect();
    ScenarioOutcome {
        outputs,
        report: handle.report,
        event_remaps,
    }
}

#[test]
fn one_session_scenario_runs_identically_on_both_backends() {
    let _cpu = exclusive_cpu();
    let grid = scenario_grid();
    let sim = run_scenario(Backend::Sim(&grid));
    let threads = run_scenario(Backend::Threads(scenario_vnodes()));

    // Item-exact output parity: both backends executed the same stage
    // functions on the same pushed items and delivered them in order.
    let expect: Vec<u64> = (0..ITEMS).map(|x| x + 2).collect();
    assert_eq!(sim.outputs, expect, "sim outputs");
    assert_eq!(threads.outputs, expect, "threaded outputs");
    assert_eq!(sim.report.completed, ITEMS);
    assert_eq!(threads.report.completed, ITEMS);
    assert!(!sim.report.truncated && !threads.report.truncated);
}

#[test]
fn remap_events_agree_across_backends() {
    let _cpu = exclusive_cpu();
    let grid = scenario_grid();
    let sim = run_scenario(Backend::Sim(&grid));
    let threads = run_scenario(Backend::Threads(scenario_vnodes()));

    for (name, outcome) in [("sim", &sim), ("threads", &threads)] {
        assert!(
            !outcome.event_remaps.is_empty(),
            "{name}: the collapse must force at least one re-map"
        );
        // The stream sees every commit, the report logs accepted
        // re-maps (guard reverts are commits but not adaptation
        // events), so the live stream is a superset.
        assert!(
            outcome.event_remaps.len() >= outcome.report.adaptation_count(),
            "{name}: live commits ({}) must cover the report log ({})",
            outcome.event_remaps.len(),
            outcome.report.adaptation_count()
        );
        // Every commit moves work; the final mapping shuns the
        // collapsed node.
        assert!(
            !outcome.report.final_mapping.nodes_used().contains(&n(1)),
            "{name}: final mapping still uses the collapsed node: {}",
            outcome.report.final_mapping
        );
    }

    // Cross-backend: the same seeded scenario commits the same first
    // re-mapping (identical launch mapping, load schedule, policy, and
    // shared planner) on both backends.
    assert_eq!(
        sim.event_remaps.first(),
        threads.event_remaps.first(),
        "first committed re-mapping must agree across backends"
    );
}

// ---------------------------------------------------------------------
// Backpressure semantics
// ---------------------------------------------------------------------

#[test]
fn bounded_push_blocks_when_downstream_stalls_and_drain_is_exactly_once() {
    let _cpu = exclusive_cpu();
    // queue_capacity = 1 over a single ≥20 ms stage on one vnode gives
    // two in-flight slots; the 3rd..10th pushes must block while the
    // stalled stage grinds, and drain must still deliver every pushed
    // item exactly once.
    let pipeline = Pipeline::<u64>::builder()
        .stage_with(StageSpec::balanced("grind", 0.020, 8), |x: u64| {
            spin_for(Duration::from_millis(20));
            x * 10
        })
        .build()
        .expect("builds");
    let cfg = RunConfig {
        items: 10,
        queue_capacity: Some(1),
        ..RunConfig::default()
    };
    let mut session = pipeline
        .spawn(Backend::Threads(vec![VNodeSpec::free("v0")]), cfg)
        .expect("spawn");
    let events = session.events();

    let t0 = Instant::now();
    for i in 0..10u64 {
        session.push(i).unwrap();
    }
    let pushing = t0.elapsed();
    assert!(
        pushing >= Duration::from_millis(120),
        "10 pushes through 2 slots of a 20 ms stage must block the \
         source ≈160 ms, took only {pushing:?}"
    );

    let handle = session.drain();
    assert_eq!(handle.report.completed, 10, "every pushed item delivered");
    assert_eq!(
        handle.outputs,
        (0..10u64).map(|x| x * 10).collect::<Vec<_>>(),
        "exactly once, in order"
    );
    let stalls: Vec<SimDuration> = events
        .try_iter()
        .filter_map(|e| match e {
            RunEvent::BackpressureStall { waited, .. } => Some(waited),
            _ => None,
        })
        .collect();
    assert!(
        stalls.len() >= 4,
        "blocked pushes must surface as stall events, saw {}",
        stalls.len()
    );
    assert!(stalls.iter().all(|w| *w > SimDuration::ZERO));
}

#[test]
fn unbounded_session_never_blocks_push() {
    let _cpu = exclusive_cpu();
    // Same stalled stage, no queue bound: all pushes return immediately.
    let pipeline = Pipeline::<u64>::builder()
        .stage_with(StageSpec::balanced("grind", 0.020, 8), |x: u64| {
            spin_for(Duration::from_millis(20));
            x
        })
        .build()
        .expect("builds");
    let mut session = pipeline
        .spawn(
            Backend::Threads(vec![VNodeSpec::free("v0")]),
            RunConfig::default(),
        )
        .expect("spawn");
    let t0 = Instant::now();
    for i in 0..10u64 {
        session.push(i).unwrap();
    }
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "unbounded pushes must not wait for the stage"
    );
    let handle = session.drain();
    assert_eq!(handle.report.completed, 10);
}

// ---------------------------------------------------------------------
// In-flight control
// ---------------------------------------------------------------------

/// A deterministic simulated scenario for control tests: node 1 hosts a
/// stage and collapses at t = 5 s; periodic policy at 5 s intervals.
fn control_session(grid: &GridSpec, warmup_override: Option<u32>) -> RunSession<'_, u64, u64> {
    let mut cfg = RunConfig {
        items: 60,
        initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1), n(2)])),
        ..RunConfig::default()
    };
    if let Some(w) = warmup_override {
        cfg.controller.warmup_ticks = w;
    }
    Pipeline::<u64>::builder()
        .stage("a", |x: u64| x)
        .stage("b", |x: u64| x)
        .stage("c", |x: u64| x)
        .policy(Policy::Periodic {
            interval: SimDuration::from_secs(5),
        })
        .arrivals(ArrivalProcess::Uniform { rate: 1.0 })
        .build()
        .expect("builds")
        .spawn(Backend::Sim(grid), cfg)
        .expect("spawn")
}

fn collapsed_grid() -> GridSpec {
    let mut grid = testbed_small3();
    grid.set_load(
        n(1),
        LoadModel::step(1.0, 0.05, SimTime::from_secs_f64(5.0)),
    );
    grid
}

#[test]
fn paused_session_never_remaps_resumed_session_does() {
    let grid = collapsed_grid();

    let mut paused = control_session(&grid, None);
    paused.pause_adaptation();
    for i in 0..60u64 {
        paused.push(i).unwrap();
    }
    let paused_report = paused.drain().report;
    assert_eq!(paused_report.completed, 60);
    assert_eq!(
        paused_report.adaptation_count(),
        0,
        "paused adaptation must freeze re-mapping despite the collapse"
    );

    let mut live = control_session(&grid, None);
    for i in 0..60u64 {
        live.push(i).unwrap();
    }
    let live_report = live.drain().report;
    assert_eq!(live_report.completed, 60);
    assert!(
        live_report.adaptation_count() >= 1,
        "the same scenario unpaused must re-map off the collapsed node"
    );
    // Paying for no adaptation: the paused run is slower.
    assert!(live_report.makespan < paused_report.makespan);
}

#[test]
fn force_remap_bypasses_warmup_gating() {
    let grid = collapsed_grid();

    // With warm-up pushed beyond the run, normal planning never starts…
    let mut gated = control_session(&grid, Some(1_000));
    for i in 0..60u64 {
        gated.push(i).unwrap();
    }
    let gated_report = gated.drain().report;
    assert_eq!(gated_report.planning_cycles, 0);
    assert_eq!(gated_report.adaptation_count(), 0);

    // …but a forced re-map plans (and here commits) regardless.
    let mut forced = control_session(&grid, Some(1_000));
    for i in 0..30u64 {
        forced.push(i).unwrap();
    }
    // Step far enough for the collapse to be observed, then force.
    while forced.completed() < 20 {
        assert!(forced.next().is_some());
    }
    forced.force_remap();
    for i in 30..60u64 {
        forced.push(i).unwrap();
    }
    let forced_report = forced.drain().report;
    assert_eq!(forced_report.completed, 60);
    assert!(
        forced_report.planning_cycles >= 1,
        "force_remap must run a planning cycle despite the warm-up gate"
    );
    assert!(
        forced_report.adaptation_count() >= 1,
        "with a collapsed node the forced cycle must commit"
    );
}

#[test]
fn abort_truncates_threads_session() {
    let _cpu = exclusive_cpu();
    let pipeline = Pipeline::<u64>::builder()
        .stage_with(StageSpec::balanced("grind", 0.020, 8), |x: u64| {
            spin_for(Duration::from_millis(20));
            x
        })
        .build()
        .expect("builds");
    let mut session = pipeline
        .spawn(
            Backend::Threads(vec![VNodeSpec::free("v0")]),
            RunConfig::default(),
        )
        .expect("spawn");
    for i in 0..100u64 {
        session.push(i).unwrap();
    }
    let report = session.abort();
    assert!(
        report.truncated || report.completed == 100,
        "abort mid-stream loses items (truncated) unless the run got lucky"
    );
}

#[test]
fn abort_truncates_sim_session() {
    let grid = testbed_small3();
    let pipeline = Pipeline::<u64>::builder()
        .stage("a", |x: u64| x)
        .build()
        .expect("builds");
    let mut session = pipeline
        .spawn(Backend::Sim(&grid), RunConfig::default())
        .expect("spawn");
    for i in 0..5u64 {
        session.push(i).unwrap();
    }
    // Deliver one item, abandon the rest.
    assert_eq!(session.next(), Some(0));
    let report = session.abort();
    assert_eq!(report.completed, 1);
    assert!(report.truncated);
}

// ---------------------------------------------------------------------
// Session surface details
// ---------------------------------------------------------------------

#[test]
fn try_next_distinguishes_pending_from_done() {
    let grid = testbed_small3();
    let pipeline = Pipeline::<u64>::builder()
        .stage("inc", |x: u64| x + 1)
        .build()
        .expect("builds");
    let mut session = pipeline
        .spawn(Backend::Sim(&grid), RunConfig::default())
        .expect("spawn");
    // Nothing pushed yet: an open idle stream is Pending, never Done.
    assert_eq!(session.try_next(), TryNext::Pending);
    session.push(7).unwrap();
    // try_next never advances virtual time on the simulator.
    assert_eq!(session.try_next(), TryNext::Pending);
    assert_eq!(session.next(), Some(8), "next() drives the world");
    assert_eq!(session.try_next(), TryNext::Pending, "still open");
    session.close();
    assert_eq!(session.try_next(), TryNext::Done);
}

/// A dead-lettered item settles without completing, so once the stream
/// is fully delivered nothing is left in flight — on either backend.
#[test]
fn session_counters_track_progress() {
    let grid = testbed_small3();
    for backend in [
        Backend::Sim(&grid),
        Backend::Threads(vec![VNodeSpec::free("v0")]),
    ] {
        let pipeline = Pipeline::<u64>::builder()
            .try_stage("every_tenth_fails", |x: u64| {
                if x % 10 == 9 {
                    Err(format!("rejected {x}"))
                } else {
                    Ok(x)
                }
            })
            .resilience(ResiliencePolicy::new().dead_letter())
            .build()
            .expect("builds");
        let mut session = pipeline
            .spawn(backend, RunConfig::default())
            .expect("spawn");
        assert_eq!(session.pushed(), 0);
        for i in 0..50u64 {
            session.push(i).unwrap();
        }
        assert_eq!(session.pushed(), 50);
        assert!(session.in_flight() <= 50);
        session.close();
        let outputs: Vec<u64> = session.by_ref().collect();
        assert_eq!(outputs.len(), 45);
        assert_eq!(session.completed(), 45);
        assert_eq!(session.in_flight(), 0, "5 dead letters are settled");
        let handle = session.drain();
        assert_eq!(handle.report.completed, 45);
        assert_eq!(handle.report.dead_letters, 5);
    }
}

#[test]
fn zero_queue_capacity_is_a_typed_error() {
    let grid = testbed_small3();
    let cfg = RunConfig {
        queue_capacity: Some(0),
        ..RunConfig::default()
    };
    let err = Pipeline::<u64>::builder()
        .stage("id", |x: u64| x)
        .build()
        .expect("builds")
        .spawn(Backend::Sim(&grid), cfg)
        .unwrap_err();
    assert!(matches!(err, BuildError::ZeroQueueCapacity), "{err}");
}

#[test]
fn spawn_validates_like_run() {
    // Least-loaded selection is still unsupported on threads…
    let cfg = RunConfig {
        selection: Selection::LeastLoaded,
        ..RunConfig::default()
    };
    let err = Pipeline::<u64>::builder()
        .stage("id", |x: u64| x)
        .build()
        .expect("builds")
        .spawn(Backend::Threads(vec![VNodeSpec::free("v0")]), cfg)
        .unwrap_err();
    assert!(matches!(err, BuildError::UnsupportedSelection { .. }));

    // …and a bad launch mapping is caught before anything starts.
    let grid = testbed_small3();
    let cfg = RunConfig {
        initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1)])),
        ..RunConfig::default()
    };
    let err = Pipeline::<u64>::builder()
        .stage("only", |x: u64| x)
        .build()
        .expect("builds")
        .spawn(Backend::Sim(&grid), cfg)
        .unwrap_err();
    assert!(matches!(err, BuildError::InvalidMapping { .. }));
}

#[test]
fn report_to_json_is_machine_readable() {
    let grid = collapsed_grid();
    let mut session = control_session(&grid, None);
    for i in 0..60u64 {
        session.push(i).unwrap();
    }
    let report = session.drain().report;
    let json = report.to_json();
    for key in [
        "\"completed\":60",
        "\"adaptation_count\":",
        "\"final_mapping\":",
        "\"latency_p95_secs\":",
        "\"truncated\":false",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    let depth = json.chars().fold(0i64, |d, c| match c {
        '{' | '[' => d + 1,
        '}' | ']' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0, "unbalanced JSON");
}
