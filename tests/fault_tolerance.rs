//! Fault-tolerant adaptive execution, cross-backend: the same
//! `FaultPlan` schedule — written once against the unified
//! `Pipeline`/`RunSession` surface — must yield zero lost items on both
//! backends, with the `NodeDown` transition observed, a committed
//! re-map excluding the crashed node, stranded items replayed
//! (at-least-once delivery, exactly-once observable output), and the
//! same typed errors for the unrecoverable cases (stateful stage pinned
//! to a dead node, permanent crash under a static policy).

use adapipe::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn n(i: usize) -> NodeId {
    NodeId(i)
}

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

/// Per-item work each stage performs, as wall/sim seconds.
const STAGE_SECS: f64 = 0.004;
const ITEMS: u64 = 120;

/// Node 1 crashes at t = 0.25 s — mid-stream on either clock.
fn crash_plan() -> FaultPlan {
    FaultPlan::new().crash(n(1), secs(0.25))
}

/// The scenario program: two spinning stages under a fast periodic
/// policy, launch-mapped onto [n0, n1] so the crash strands stage "b".
fn scenario(plan: FaultPlan) -> Pipeline<u64, u64> {
    scenario_with_b(plan, STAGE_SECS)
}

/// The scenario with stage "b" costing `b_secs` per item.
fn scenario_with_b(plan: FaultPlan, b_secs: f64) -> Pipeline<u64, u64> {
    Pipeline::<u64>::builder()
        .stage_with(StageSpec::balanced("a", STAGE_SECS, 8), |x: u64| {
            spin_for(Duration::from_secs_f64(STAGE_SECS));
            x + 1
        })
        .stage_with(StageSpec::balanced("b", b_secs, 8), move |x: u64| {
            spin_for(Duration::from_secs_f64(b_secs));
            x + 1
        })
        .policy(Policy::Periodic {
            interval: SimDuration::from_millis(100),
        })
        .faults(plan)
        .feed(|i| i)
        .build()
        .expect("scenario builds")
}

fn scenario_cfg() -> RunConfig {
    RunConfig {
        items: ITEMS,
        initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1)])),
        timeline_bucket: Some(SimDuration::from_millis(500)),
        ..RunConfig::default()
    }
}

fn grid3() -> GridSpec {
    testbed_small3()
}

fn vnodes3() -> Vec<VNodeSpec> {
    (0..3).map(|i| VNodeSpec::free(format!("v{i}"))).collect()
}

/// What one backend observed under the fault schedule.
struct ChaosOutcome {
    outputs: Vec<u64>,
    report: RunReport,
    error: Option<RunError>,
    node_down: Vec<usize>,
    node_up: Vec<usize>,
    replay_events: usize,
    /// Final placements of every committed re-map, in commit order.
    remaps: Vec<Mapping>,
}

/// Drives one live session of `pipeline` to completion and collects
/// every fault-relevant observation.
fn drive(backend: Backend<'_>, pipeline: Pipeline<u64, u64>) -> ChaosOutcome {
    let mut session = pipeline
        .spawn(backend, scenario_cfg())
        .expect("session spawns");
    let events = session.events();
    for i in 0..ITEMS {
        session.push(i).unwrap();
    }
    let handle = session.drain();
    let mut outcome = ChaosOutcome {
        outputs: handle.outputs,
        error: handle.error,
        report: handle.report,
        node_down: Vec::new(),
        node_up: Vec::new(),
        replay_events: 0,
        remaps: Vec::new(),
    };
    for event in events.try_iter() {
        match event {
            RunEvent::NodeDown { node, .. } => outcome.node_down.push(node),
            RunEvent::NodeUp { node, .. } => outcome.node_up.push(node),
            RunEvent::ItemReplayed { .. } => outcome.replay_events += 1,
            RunEvent::Remap { plan, .. } => outcome.remaps.push(plan.to),
            _ => {}
        }
    }
    outcome
}

fn assert_zero_loss_and_exclusion(tag: &str, outcome: &ChaosOutcome) {
    assert_eq!(
        outcome.report.completed, ITEMS,
        "{tag}: items lost to the crash"
    );
    assert!(!outcome.report.truncated, "{tag}: run truncated");
    assert_eq!(outcome.error, None, "{tag}: unexpected error");
    // Exactly-once observable output: every item's value exactly once,
    // in order (preserve_order is on by default).
    let expect: Vec<u64> = (0..ITEMS).map(|x| x + 2).collect();
    assert_eq!(outcome.outputs, expect, "{tag}: outputs wrong");
    // The failure transition was observed…
    assert_eq!(outcome.node_down, vec![1], "{tag}: NodeDown not observed");
    // …and some committed re-map excludes the crashed node, with the
    // final mapping (and the routing in force at the end) clean of it.
    assert!(
        outcome
            .remaps
            .iter()
            .any(|m| !m.nodes_used().contains(&n(1))),
        "{tag}: no committed re-map excludes the crashed node ({:?})",
        outcome.remaps
    );
    assert!(
        !outcome.report.final_mapping.nodes_used().contains(&n(1)),
        "{tag}: final mapping still uses the crashed node: {}",
        outcome.report.final_mapping
    );
    // Downtime is accounted to the crashed node only.
    assert_eq!(outcome.report.node_downtime.len(), 3, "{tag}");
    assert!(
        outcome.report.node_downtime[1] > SimDuration::ZERO,
        "{tag}: crashed node shows no downtime"
    );
    assert_eq!(outcome.report.node_downtime[0], SimDuration::ZERO, "{tag}");
}

/// The acceptance-criterion parity test: the identical fault schedule
/// through `RunSession` on both backends — zero lost items, the
/// `NodeDown` transition, and a committed re-map excluding the crashed
/// node on each; outputs item-identical across backends. Stage "b" costs
/// twice stage "a", so the crashed node holds a backlog at the crash by
/// construction, on either clock: the replays below never hang on how
/// the threads happened to be scheduled.
#[test]
fn crash_parity_across_backends() {
    let grid = grid3();
    let scenario = || scenario_with_b(crash_plan(), 2.0 * STAGE_SECS);
    let sim = drive(Backend::Sim(&grid), scenario());
    let threads = drive(Backend::Threads(vnodes3()), scenario());
    assert_zero_loss_and_exclusion("sim", &sim);
    assert_zero_loss_and_exclusion("threads", &threads);
    assert_eq!(sim.outputs, threads.outputs, "outputs diverge");
    // Both backends rescued stranded items off the dead node and said
    // so, in events and in the report.
    for (tag, o) in [("sim", &sim), ("threads", &threads)] {
        assert!(o.report.replays > 0, "{tag}: no replays recorded");
        assert_eq!(
            o.replay_events as u64, o.report.replays,
            "{tag}: ItemReplayed events disagree with the report"
        );
        let json = o.report.to_json();
        assert!(json.contains("\"replays\":"), "{tag}: {json}");
        assert!(json.contains("\"node_downtime_secs\":["), "{tag}: {json}");
    }
}

/// Satellite: a composed slowdown + outage + crash plan through
/// `RunSession` on both backends — the node survives the outage (down
/// then up), the slowdown degrades without a down transition, and the
/// later crash is still recovered with nothing lost.
#[test]
fn composed_fault_plan_runs_on_both_backends() {
    let plan = || {
        FaultPlan::new()
            .slowdown(n(2), secs(0.0), secs(0.1), 0.5)
            .outage(n(1), secs(0.05), secs(0.12))
            .crash(n(1), secs(0.3))
    };
    let grid = grid3();
    for (tag, outcome) in [
        ("sim", drive(Backend::Sim(&grid), scenario(plan()))),
        (
            "threads",
            drive(Backend::Threads(vnodes3()), scenario(plan())),
        ),
    ] {
        assert_eq!(outcome.report.completed, ITEMS, "{tag}: items lost");
        assert!(!outcome.report.truncated, "{tag}");
        assert_eq!(outcome.error, None, "{tag}: {:?}", outcome.error);
        let expect: Vec<u64> = (0..ITEMS).map(|x| x + 2).collect();
        assert_eq!(outcome.outputs, expect, "{tag}: outputs wrong");
        // Down for the outage, up at its end, down again for the crash;
        // never a transition for the slowed (not down) node.
        assert_eq!(outcome.node_down, vec![1, 1], "{tag}");
        assert_eq!(outcome.node_up, vec![1], "{tag}");
        // Downtime = outage span + crash tail, charged to node 1 only.
        assert!(
            outcome.report.node_downtime[1] > SimDuration::from_millis(70),
            "{tag}: downtime {:?}",
            outcome.report.node_downtime
        );
        assert_eq!(outcome.report.node_downtime[2], SimDuration::ZERO, "{tag}");
    }
}

/// Satellite: a stateful stage pinned to the crashing node surfaces the
/// typed `StatefulStageLost` error on both backends — the run fails
/// honestly (truncated) instead of forking state or hanging.
#[test]
fn stateful_stage_on_crashed_node_is_a_typed_error() {
    let stateful_scenario = || {
        Pipeline::<u64>::builder()
            .stage_with(StageSpec::balanced("a", STAGE_SECS, 8), |x: u64| {
                spin_for(Duration::from_secs_f64(STAGE_SECS));
                x + 1
            })
            .stateful_stage(StageSpec::balanced("sum", STAGE_SECS, 8).with_state(8), {
                let mut acc = 0u64;
                move |x: u64| {
                    spin_for(Duration::from_secs_f64(STAGE_SECS));
                    acc += x;
                    acc
                }
            })
            .policy(Policy::Periodic {
                interval: SimDuration::from_millis(100),
            })
            .faults(crash_plan())
            .feed(|i| i)
            .build()
            .expect("builds")
    };
    let grid = grid3();
    let run = |pipeline: Pipeline<u64, u64>, backend: Backend<'_>| {
        let mut session = pipeline.spawn(backend, scenario_cfg()).expect("spawns");
        for i in 0..ITEMS {
            session.push(i).unwrap();
        }
        session.drain()
    };
    for (tag, handle) in [
        ("sim", run(stateful_scenario(), Backend::Sim(&grid))),
        (
            "threads",
            run(stateful_scenario(), Backend::Threads(vnodes3())),
        ),
    ] {
        assert_eq!(
            handle.error,
            Some(RunError::StatefulStageLost { stage: 1, node: 1 }),
            "{tag}: wrong error"
        );
        assert!(handle.report.truncated, "{tag}: loss must be admitted");
        assert!(
            handle.report.completed < ITEMS,
            "{tag}: a lost stateful stage cannot deliver everything"
        );
    }
}

/// Satellite: a permanent crash under `Policy::Static` can never be
/// recovered (static never re-maps) — both backends fail fast with the
/// typed error instead of starving forever.
#[test]
fn static_policy_crash_fails_fast_on_both_backends() {
    let static_scenario = || {
        Pipeline::<u64>::builder()
            .stage_with(StageSpec::balanced("a", STAGE_SECS, 8), |x: u64| {
                spin_for(Duration::from_secs_f64(STAGE_SECS));
                x + 1
            })
            .stage_with(StageSpec::balanced("b", STAGE_SECS, 8), |x: u64| {
                spin_for(Duration::from_secs_f64(STAGE_SECS));
                x + 1
            })
            .faults(crash_plan())
            .feed(|i| i)
            .build()
            .expect("builds")
    };
    let grid = grid3();
    let run = |pipeline: Pipeline<u64, u64>, backend: Backend<'_>| {
        let mut session = pipeline.spawn(backend, scenario_cfg()).expect("spawns");
        for i in 0..ITEMS {
            session.push(i).unwrap();
        }
        session.drain()
    };
    for (tag, handle) in [
        ("sim", run(static_scenario(), Backend::Sim(&grid))),
        (
            "threads",
            run(static_scenario(), Backend::Threads(vnodes3())),
        ),
    ] {
        assert_eq!(
            handle.error,
            Some(RunError::NodeLostUnderStatic { node: 1 }),
            "{tag}: wrong error"
        );
        assert!(handle.report.truncated, "{tag}");
    }
}

/// A *finite* outage of a stateful stage's host is recoverable — items
/// park, the node (and its state) comes back — so it must not raise
/// `StatefulStageLost` and nothing may be lost, on either backend.
#[test]
fn stateful_stage_survives_finite_outage_on_both_backends() {
    let outage_scenario = || {
        Pipeline::<u64>::builder()
            .stage_with(StageSpec::balanced("a", STAGE_SECS, 8), |x: u64| {
                spin_for(Duration::from_secs_f64(STAGE_SECS));
                x + 1
            })
            .stateful_stage(StageSpec::balanced("sum", STAGE_SECS, 8).with_state(8), {
                let mut acc = 0u64;
                move |x: u64| {
                    spin_for(Duration::from_secs_f64(STAGE_SECS));
                    acc += x;
                    acc
                }
            })
            .policy(Policy::Periodic {
                interval: SimDuration::from_millis(100),
            })
            .faults(FaultPlan::new().outage(n(1), secs(0.1), secs(0.3)))
            .feed(|i| i)
            .build()
            .expect("builds")
    };
    let grid = grid3();
    let run = |pipeline: Pipeline<u64, u64>, backend: Backend<'_>| {
        let mut session = pipeline.spawn(backend, scenario_cfg()).expect("spawns");
        for i in 0..ITEMS {
            session.push(i).unwrap();
        }
        session.drain()
    };
    for (tag, handle) in [
        ("sim", run(outage_scenario(), Backend::Sim(&grid))),
        (
            "threads",
            run(outage_scenario(), Backend::Threads(vnodes3())),
        ),
    ] {
        assert_eq!(handle.error, None, "{tag}: outage must be recoverable");
        assert_eq!(handle.report.completed, ITEMS, "{tag}: items lost");
        assert!(!handle.report.truncated, "{tag}");
        // The stateful accumulator saw every item exactly once: its
        // largest output is the total sum.
        let max = handle.outputs.iter().max().copied().unwrap();
        let expect: u64 = (0..ITEMS).map(|x| x + 1).sum();
        assert_eq!(max, expect, "{tag}: state lost or duplicated");
    }
}

/// Number of distinct keys the keyed chaos scenarios spread items over.
const KEYS: u64 = 7;

/// The keyed chaos scenario: a stateless feeder plus a *declared*
/// keyed counter (4 shards), launch-mapped so the crash lands on the
/// counter's host and its shards must live-migrate.
fn keyed_scenario(plan: FaultPlan) -> Pipeline<u64, (u64, u64)> {
    Pipeline::<u64>::builder()
        .stage_with(StageSpec::balanced("a", STAGE_SECS, 8), |x: u64| {
            spin_for(Duration::from_secs_f64(STAGE_SECS));
            x
        })
        .keyed_stage_with(
            StageSpec::balanced("count", STAGE_SECS, 8).with_keyed_state(4, 64),
            |x: &u64| x % KEYS,
            || 0u64,
            |seen: &mut u64, x: u64| {
                spin_for(Duration::from_secs_f64(STAGE_SECS));
                *seen += 1;
                (x % KEYS, *seen)
            },
        )
        .policy(Policy::Periodic {
            interval: SimDuration::from_millis(100),
        })
        .faults(plan)
        .feed(|i| i)
        .build()
        .expect("keyed scenario builds")
}

/// Checks a keyed chaos run for exactly-once observable output and
/// returns the final per-key state (key -> last count observed).
fn keyed_final_state(tag: &str, outputs: &[(u64, u64)]) -> std::collections::BTreeMap<u64, u64> {
    assert_eq!(outputs.len() as u64, ITEMS, "{tag}: output count wrong");
    // Exactly-once per key: for a key with n items, the observed
    // counts must be exactly {1, 2, …, n} — a duplicate, a lost item,
    // or forked state (reset to 1 after migration) all break this.
    let mut per_key: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
    for &(k, c) in outputs {
        per_key.entry(k).or_default().push(c);
    }
    let mut finals = std::collections::BTreeMap::new();
    for (k, mut counts) in per_key {
        counts.sort_unstable();
        let expect: Vec<u64> = (1..=counts.len() as u64).collect();
        assert_eq!(
            counts, expect,
            "{tag}: key {k} counts not exactly-once (lost, duplicated, or forked state)"
        );
        finals.insert(k, counts.len() as u64);
    }
    finals
}

/// The tentpole acceptance test: a keyed stateful stage survives
/// *permanent* node death via live shard migration on both backends —
/// zero lost items, exactly-once observable output, identical final
/// per-key state, and `RunReport.migrations > 0` with the moved bytes
/// accounted.
#[test]
fn keyed_state_survives_permanent_crash_on_both_backends() {
    let grid = grid3();
    let run = |backend: Backend<'_>| {
        let mut session = keyed_scenario(crash_plan())
            .spawn(backend, scenario_cfg())
            .expect("spawns");
        for i in 0..ITEMS {
            session.push(i).unwrap();
        }
        session.drain()
    };
    let sim = run(Backend::Sim(&grid));
    let threads = run(Backend::Threads(vnodes3()));
    let mut states = Vec::new();
    for (tag, handle) in [("sim", &sim), ("threads", &threads)] {
        assert_eq!(handle.error, None, "{tag}: keyed state must survive");
        assert_eq!(handle.report.completed, ITEMS, "{tag}: items lost");
        assert!(!handle.report.truncated, "{tag}");
        assert!(
            !handle.report.final_mapping.nodes_used().contains(&n(1)),
            "{tag}: final mapping still uses the crashed node"
        );
        states.push(keyed_final_state(tag, &handle.outputs));
        // The shards moved, and the report says so.
        assert!(
            handle.report.migrations > 0,
            "{tag}: crash recovery must record migrations"
        );
        assert!(
            handle.report.state_bytes_moved > 0,
            "{tag}: declared state bytes must be accounted"
        );
        assert_eq!(
            handle.report.stage_shards,
            vec![0, 4],
            "{tag}: shard map wrong"
        );
        let json = handle.report.to_json();
        assert!(json.contains("\"migrations\":"), "{tag}: {json}");
        assert!(json.contains("\"state_bytes_moved\":"), "{tag}: {json}");
        assert!(json.contains("\"stage_shards\":"), "{tag}: {json}");
    }
    // Identical final per-key state across backends.
    assert_eq!(states[0], states[1], "final keyed state diverges");
    // Every key was actually exercised.
    assert_eq!(states[0].len() as u64, KEYS);
}

/// PR 4 park-and-recover, now with *declared* keyed state: a finite
/// outage of the keyed stage's host parks its pinned items and
/// recovers without abort — and without forking any key's counter —
/// on both backends.
#[test]
fn keyed_state_survives_finite_outage_on_both_backends() {
    let plan = || FaultPlan::new().outage(n(1), secs(0.1), secs(0.3));
    let grid = grid3();
    let run = |backend: Backend<'_>| {
        let mut session = keyed_scenario(plan())
            .spawn(backend, scenario_cfg())
            .expect("spawns");
        for i in 0..ITEMS {
            session.push(i).unwrap();
        }
        session.drain()
    };
    for (tag, handle) in [
        ("sim", run(Backend::Sim(&grid))),
        ("threads", run(Backend::Threads(vnodes3()))),
    ] {
        assert_eq!(handle.error, None, "{tag}: outage must be recoverable");
        assert_eq!(handle.report.completed, ITEMS, "{tag}: items lost");
        assert!(!handle.report.truncated, "{tag}");
        keyed_final_state(tag, &handle.outputs);
    }
}

/// A running sum that counts its clones: the state of a plain closure,
/// which the runtime can neither snapshot nor merge, only copy.
struct Tally {
    sum: u64,
    clones: Arc<AtomicUsize>,
}

impl Tally {
    fn add(&mut self, x: u64) -> u64 {
        self.sum += x;
        self.sum
    }
}

impl Clone for Tally {
    fn clone(&self) -> Self {
        self.clones.fetch_add(1, Ordering::SeqCst);
        Tally {
            sum: self.sum,
            clones: Arc::clone(&self.clones),
        }
    }
}

/// *Declared* exclusive state is the contrast to the opaque typed-error
/// case above: the same permanent crash that raises
/// `StatefulStageLost` for an undeclared closure is survived by an
/// `exclusive_stage` via quiesce-snapshot-resume, on both backends. A
/// plain `Clone` closure under the same exclusive declaration moves as
/// its one live instance and is never copied: the declaration, not the
/// closure's type, decides how many instances run.
#[test]
fn exclusive_state_migrates_where_opaque_state_aborts() {
    let head = || {
        Pipeline::<u64>::builder().stage_with(StageSpec::balanced("a", STAGE_SECS, 8), |x: u64| {
            spin_for(Duration::from_secs_f64(STAGE_SECS));
            x + 1
        })
    };
    let sum_spec = || StageSpec::balanced("sum", STAGE_SECS, 8).with_exclusive_state(8);
    let finish = |builder: PipelineBuilder<u64, u64>| {
        builder
            .policy(Policy::Periodic {
                interval: SimDuration::from_millis(100),
            })
            .faults(crash_plan())
            .feed(|i| i)
            .build()
            .expect("builds")
    };
    let exclusive_scenario = || {
        finish(head().exclusive_stage_with(
            sum_spec(),
            || 0u64,
            |acc: &mut u64, x: u64| {
                spin_for(Duration::from_secs_f64(STAGE_SECS));
                *acc += x;
                *acc
            },
        ))
    };
    let clones = Arc::new(AtomicUsize::new(0));
    let closure_scenario = || {
        let mut tally = Tally {
            sum: 0,
            clones: Arc::clone(&clones),
        };
        finish(head().stage_with(sum_spec(), move |x: u64| {
            spin_for(Duration::from_secs_f64(STAGE_SECS));
            tally.add(x)
        }))
    };
    let grid = grid3();
    let run = |pipeline: Pipeline<u64, u64>, backend: Backend<'_>| {
        let mut session = pipeline.spawn(backend, scenario_cfg()).expect("spawns");
        for i in 0..ITEMS {
            session.push(i).unwrap();
        }
        session.drain()
    };
    for (tag, handle) in [
        ("sim", run(exclusive_scenario(), Backend::Sim(&grid))),
        (
            "threads",
            run(exclusive_scenario(), Backend::Threads(vnodes3())),
        ),
        (
            "threads, closure state",
            run(closure_scenario(), Backend::Threads(vnodes3())),
        ),
    ] {
        assert_eq!(handle.error, None, "{tag}: declared state must migrate");
        assert_eq!(handle.report.completed, ITEMS, "{tag}: items lost");
        assert!(!handle.report.truncated, "{tag}");
        // Exactly-once accumulation survived the move: the largest
        // output is the exact total sum.
        let max = handle.outputs.iter().max().copied().unwrap();
        let expect: u64 = (0..ITEMS).map(|x| x + 1).sum();
        assert_eq!(max, expect, "{tag}: state lost or duplicated in transit");
        assert!(handle.report.migrations > 0, "{tag}: no migration recorded");
    }
    assert_eq!(
        clones.load(Ordering::SeqCst),
        0,
        "an exclusive declaration never copies its instance"
    );
}

/// A run error on the simulation backend does not truncate the run: a
/// poison item fails it (marker semantics: the item completes in the
/// simulated world without an output), but an adaptive policy's ticks
/// must not exhaust the world and strand the items in flight.
#[test]
fn sim_run_error_does_not_truncate_an_adaptive_run() {
    let pipeline = Pipeline::<u64>::builder()
        .try_stage_with(StageSpec::balanced("typed", STAGE_SECS, 8), |x: u64| {
            if x == 17 {
                Err(format!("item {x} refused"))
            } else {
                Ok(x + 1)
            }
        })
        .policy(Policy::Periodic {
            interval: SimDuration::from_millis(100),
        })
        .build()
        .expect("builds");
    let grid = grid3();
    let mut session = pipeline
        .spawn(
            Backend::Sim(&grid),
            RunConfig {
                items: 50,
                ..RunConfig::default()
            },
        )
        .expect("spawns");
    for i in 0..50u64 {
        session.push(i).unwrap();
    }
    let handle = session.drain();
    // The error is surfaced…
    assert!(matches!(
        handle.error,
        Some(RunError::PoisonItem { seq: 17, .. })
    ));
    // …but the run itself completed every (marker) item: the adaptive
    // ticks did not exhaust the world.
    assert_eq!(handle.report.completed, 50);
    assert!(!handle.report.truncated);
    let survivors: Vec<u64> = (0..50).filter(|&x| x != 17).map(|x| x + 1).collect();
    assert_eq!(
        handle.outputs, survivors,
        "the poison item, and only it, yields no output"
    );
}

/// Faults are validated against the backend's node set at spawn, like
/// mappings are.
#[test]
fn fault_plan_outside_node_set_is_rejected() {
    let plan = FaultPlan::new().crash(n(7), secs(1.0));
    let grid = grid3();
    let err = scenario(plan.clone())
        .spawn(Backend::Sim(&grid), scenario_cfg())
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, BuildError::InvalidFault { .. }), "{err}");
    // Same through the RunConfig side and the batch path.
    let err = scenario(FaultPlan::new())
        .run(
            Backend::Threads(vnodes3()),
            RunConfig {
                faults: plan,
                ..scenario_cfg()
            },
        )
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, BuildError::InvalidFault { .. }), "{err}");
}

/// The builder plan and the RunConfig plan compose: a slowdown declared
/// on the pipeline plus a crash declared on the run both happen.
#[test]
fn builder_and_runconfig_fault_plans_merge() {
    let grid = grid3();
    let mut session = scenario(FaultPlan::new().slowdown(n(2), secs(0.0), secs(0.2), 0.5))
        .spawn(
            Backend::Sim(&grid),
            RunConfig {
                faults: crash_plan(),
                ..scenario_cfg()
            },
        )
        .expect("spawns");
    let events = session.events();
    for i in 0..ITEMS {
        session.push(i).unwrap();
    }
    let handle = session.drain();
    assert_eq!(handle.report.completed, ITEMS);
    assert!(events
        .try_iter()
        .any(|e| matches!(e, RunEvent::NodeDown { node: 1, .. })));
    // Downtime reported for the crash even though the crash came from
    // the RunConfig half of the merged plan.
    assert!(handle.report.node_downtime[1] > SimDuration::ZERO);
}

/// Batch `run()` honours the plan too (it is sugar over the session):
/// the simulator's availability windows plus the control-plane recovery
/// complete every item.
#[test]
fn batch_run_survives_crash_on_both_backends() {
    let grid = grid3();
    let sim = scenario(crash_plan())
        .run(Backend::Sim(&grid), scenario_cfg())
        .expect("sim run");
    assert_eq!(sim.report.completed, ITEMS);
    assert!(!sim.report.truncated);
    assert_eq!(sim.error, None);
    assert!(!sim.report.final_mapping.nodes_used().contains(&n(1)));

    let threads = scenario(crash_plan())
        .run(Backend::Threads(vnodes3()), scenario_cfg())
        .expect("threads run");
    assert_eq!(threads.report.completed, ITEMS);
    assert!(!threads.report.truncated);
    assert_eq!(threads.error, None);
    let expect: Vec<u64> = (0..ITEMS).map(|x| x + 2).collect();
    assert_eq!(threads.outputs, expect);
}

/// A finite outage needs no re-map to avoid losing items: the node
/// recovers and the run completes even under a *static* policy (the
/// sim waits out the window; the engine re-deals or waits).
#[test]
fn finite_outage_under_adaptive_policy_loses_nothing() {
    let plan = || FaultPlan::new().outage(n(1), secs(0.1), secs(0.25));
    let grid = grid3();
    for (tag, outcome) in [
        ("sim", drive(Backend::Sim(&grid), scenario(plan()))),
        (
            "threads",
            drive(Backend::Threads(vnodes3()), scenario(plan())),
        ),
    ] {
        assert_eq!(outcome.report.completed, ITEMS, "{tag}");
        assert_eq!(outcome.error, None, "{tag}");
        assert_eq!(outcome.node_down, vec![1], "{tag}");
        assert_eq!(outcome.node_up, vec![1], "{tag}");
    }
}
