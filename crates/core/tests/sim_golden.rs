//! Golden simulated reports: one scenario per table of the simulated
//! world, each compared byte for byte with a fixture under
//! `tests/golden/`.
//!
//! The simulator's bookkeeping (per-(stage, node) queues and readiness,
//! per-link queues, per-item arrival and join state) may change shape;
//! what a run reports may not. Each scenario is built to lean on one of
//! those tables and asserts that it really did (a migration happened,
//! orphans replayed, an item dead-lettered), so a fixture cannot go
//! quiet.
//!
//! Two scenarios also pin how many adaptation ticks ended in each
//! verdict — why the controller moved, and why it held still.
//!
//! A record is `RunReport::to_json`, then what that leaves out and
//! event or accumulation order shows in: the per-stage service
//! statistics (Welford mean and deviation, order-sensitive in the last
//! digits), the dead-letter log, and — for the session scenario — the
//! outputs in completion order.
//!
//! To rewrite the fixtures (only ever from a commit whose outcomes are
//! the reference): `ADAPIPE_GOLDEN_WRITE=1 cargo test -p adapipe-core
//! --test sim_golden`.

use adapipe_core::pipeline::{DagBuilder, PipelineBuilder};
use adapipe_core::prelude::*;
use adapipe_core::simengine::run;
use adapipe_core::simsession::{self, SimPool};
use adapipe_gridsim::prelude::*;
use adapipe_mapper::mapping::{Mapping, Placement};
use adapipe_mapper::share::ShareQuota;
use adapipe_runtime::session::{EventBus, LiveSession, RunEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::mpsc::Receiver;

fn n(i: usize) -> NodeId {
    NodeId(i)
}

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

fn periodic() -> Policy {
    Policy::Periodic {
        interval: SimDuration::from_secs(5),
    }
}

/// `policy` over a stream that is all present at `t = 0`.
fn under(policy: Policy) -> Session {
    Session::new(policy, ArrivalProcess::AllAtOnce).expect("a valid policy")
}

/// The static baseline under a paced open stream.
fn paced(arrivals: ArrivalProcess) -> Session {
    Session::baseline(Policy::Static, arrivals).expect("a valid rate")
}

/// A stage whose per-item work varies ± 20 % around `work`.
fn jittered(name: &str, work: f64, bytes: u64, seed: u64) -> StageSpec {
    StageSpec::balanced(name, work, bytes).with_work(Box::new(UniformWork::new(work, 0.2, seed)))
}

/// The hetero8 testbed with its fastest node stepped down to 15 % at
/// t = 60 s — the load step of the adaptation experiments.
fn hetero8_with_step() -> GridSpec {
    let mut grid = testbed_hetero8(7);
    FaultPlan::new()
        .slowdown(n(0), secs(60.0), secs(1e9), 0.15)
        .apply(&mut grid);
    grid
}

/// Everything a run reported, as text.
fn record(report: &RunReport) -> String {
    let mut out = report.to_json();
    out.push('\n');
    let ns = report.final_mapping.len();
    for s in 0..ns {
        let stats = report.stage_metrics.stage(s);
        let as_secs = |d: Option<SimDuration>| d.map(|d| d.as_secs_f64());
        writeln!(
            out,
            "stage {s}: count={} mean_service={:?} std_dev={:?} work_done={:?}",
            stats.count(),
            as_secs(stats.mean_service()),
            as_secs(stats.service_std_dev()),
            stats.work_done(),
        )
        .expect("writing to a String");
    }
    for d in &report.dead_letter_log {
        writeln!(
            out,
            "dead seq={} stage={} attempts={} reason={}",
            d.seq, d.stage, d.attempts, d.reason
        )
        .expect("writing to a String");
    }
    out
}

/// How many adaptation ticks ended in each verdict, from the run's
/// `Tick` events: `kind=count`, by kind.
fn verdict_tally(events: &Receiver<RunEvent>) -> String {
    let mut tally = BTreeMap::new();
    for event in events.try_iter() {
        if let RunEvent::Tick { verdict, .. } = event {
            *tally.entry(verdict.kind()).or_insert(0) += 1;
        }
    }
    let kinds: Vec<String> = tally.iter().map(|(k, n)| format!("{k}={n}")).collect();
    kinds.join(" ")
}

/// Compares `got` with the fixture `name`, or rewrites the fixture when
/// `ADAPIPE_GOLDEN_WRITE` is set.
fn check(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("ADAPIPE_GOLDEN_WRITE").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture directory"))
            .expect("create the fixture directory");
        std::fs::write(&path, got).expect("write the fixture");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    assert_eq!(got, want, "simulated outcome of `{name}` moved");
}

/// `link_q`: megabyte items over a mapping that crosses both LAN and
/// WAN links, a replicated stage fanning over two of them, and a source
/// and sink off the compute hosts.
#[test]
fn link_contention() {
    let grid = testbed_hetero8(3);
    let mut spec = PipelineSpec::new(vec![
        jittered("s0", 0.075, 2_000_000, 11),
        jittered("s1", 0.15, 1_000_000, 12),
        jittered("s2", 0.075, 3_000_000, 13),
        jittered("s3", 0.05, 500_000, 14),
    ]);
    spec.input_bytes = 1_000_000;
    spec.source = Some(n(7));
    spec.sink = Some(n(6));
    let cfg = RunConfig {
        items: 400,
        initial_mapping: Some(Mapping::new(vec![
            Placement::single(n(0)),
            Placement::replicated(vec![n(1), n(4)]),
            Placement::single(n(5)),
            Placement::single(n(2)),
        ])),
        link_contention: true,
        ..RunConfig::default()
    };
    let with = run(&grid, &spec, &Session::default(), &cfg);
    let without = run(
        &grid,
        &spec,
        &Session::default(),
        &RunConfig {
            link_contention: false,
            ..cfg.clone()
        },
    );
    assert_eq!(with.completed, 400);
    assert!(
        with.makespan > without.makespan,
        "the links must actually queue"
    );
    check("link_contention", &record(&with));
}

/// `ready_at` / `Retry`: an opaque-state stage starts on the node that
/// steps down at t = 60 s; the periodic controller moves it, and its new
/// instance serves nothing until the state has landed.
#[test]
fn stateful_migration_across_the_load_step() {
    let grid = hetero8_with_step();
    let mut spec = PipelineSpec::new(vec![
        jittered("s0", 0.5, 20_000, 21),
        jittered("stateful", 1.0, 20_000, 22).with_state(64 << 20),
        jittered("s2", 0.7, 20_000, 23),
        jittered("s3", 0.4, 20_000, 24),
    ]);
    spec.input_bytes = 20_000;
    let events = EventBus::new();
    let ticks = events.subscribe();
    let cfg = RunConfig {
        items: 600,
        initial_mapping: Some(Mapping::from_assignment(&[n(1), n(0), n(2), n(3)])),
        events,
        ..RunConfig::default()
    };
    let report = run(
        &grid,
        &spec,
        &Session::new(periodic(), ArrivalProcess::Uniform { rate: 1.5 }).unwrap(),
        &cfg,
    );
    assert_eq!(report.completed, 600);
    assert!(
        report
            .adaptations
            .iter()
            .any(|e| e.migrated_stages.contains(&1)),
        "the stateful stage must migrate"
    );
    // Why it moved, and why it held still: the guard reverted one
    // re-map and held planning down after it.
    assert_eq!(
        verdict_tally(&ticks),
        "held-down=7 keep:below-threshold=7 keep:no-improvement=58 remap=5 revert=1 warming-up=2"
    );
    check("stateful_migration", &record(&report));
}

/// The queue-depth probe in `route_item`: a stage replicated over a fast
/// and two slower nodes under least-loaded selection, fed faster than
/// the slow replicas drain.
#[test]
fn least_loaded_selection() {
    let grid = testbed_hetero8(5);
    let mut spec = PipelineSpec::new(vec![
        jittered("s0", 0.2, 10_000, 31),
        jittered("wide", 1.5, 10_000, 32),
        jittered("s2", 0.2, 10_000, 33),
    ]);
    spec.input_bytes = 10_000;
    let mapping = Mapping::new(vec![
        Placement::single(n(0)),
        Placement::replicated(vec![n(1), n(3), n(6)]),
        Placement::single(n(2)),
    ]);
    let mk = |selection| RunConfig {
        items: 500,
        initial_mapping: Some(mapping.clone()),
        selection,
        ..RunConfig::default()
    };
    let ll = run(
        &grid,
        &spec,
        &paced(ArrivalProcess::Poisson { rate: 2.0, seed: 9 }),
        &mk(Selection::LeastLoaded),
    );
    let rr = run(
        &grid,
        &spec,
        &paced(ArrivalProcess::Poisson { rate: 2.0, seed: 9 }),
        &mk(Selection::RoundRobin),
    );
    assert_eq!(ll.completed, 500);
    assert!(
        ll.makespan < rr.makespan,
        "the probe must steer items off the slow replicas"
    );
    check("least_loaded", &record(&ll));
}

/// `commit_remap` draining queues: a node crashes with a backlog, the
/// forced re-map re-homes the orphans, and they count as replays.
#[test]
fn crash_replays_orphans() {
    let grid = testbed_hetero8(7);
    let mut spec = PipelineSpec::new(vec![
        jittered("s0", 0.3, 5_000, 41),
        jittered("s1", 0.9, 5_000, 42),
        jittered("s2", 0.5, 5_000, 43),
        jittered("s3", 0.4, 5_000, 44),
    ]);
    spec.input_bytes = 5_000;
    let events = EventBus::new();
    let ticks = events.subscribe();
    let cfg = RunConfig {
        items: 400,
        initial_mapping: Some(Mapping::from_assignment(&[n(1), n(0), n(2), n(3)])),
        faults: FaultPlan::new()
            .crash(n(0), secs(20.0))
            .outage(n(2), secs(45.0), secs(70.0)),
        events,
        ..RunConfig::default()
    };
    let report = run(&grid, &spec, &under(periodic()), &cfg);
    assert_eq!(report.completed, 400);
    assert!(report.replays > 0, "the crashed node's backlog must replay");
    assert!(!report.final_mapping.nodes_used().contains(&n(0)));
    // The crash recovery commits outside the ticks (no `Tick` of its
    // own); these are the periodic ticks around it.
    assert_eq!(
        verdict_tally(&ticks),
        "keep:below-threshold=6 keep:no-improvement=21 remap=5 warming-up=2"
    );
    check("crash_replay", &record(&report));
}

/// `Node::completion_time` under a crash on a *cyclic* load trace (the
/// odd hetero8 nodes carry a 600 s random walk): the heavy stage's host
/// crashes with a task in service and a backlog behind it. Before the
/// zero-capacity skip this spun, hopping the trace's breakpoints towards
/// the end of time at rate 0; the first dispatch after the crash must
/// see "never" and park.
#[test]
fn crash_on_a_cyclic_trace_node() {
    let grid = testbed_hetero8(7);
    let mut spec = PipelineSpec::new(vec![
        jittered("s0", 0.3, 5_000, 71),
        jittered("s1", 0.9, 5_000, 72),
        jittered("s2", 0.5, 5_000, 73),
        jittered("s3", 0.4, 5_000, 74),
    ]);
    spec.input_bytes = 5_000;
    let cfg = RunConfig {
        items: 400,
        initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1), n(2), n(3)])),
        faults: FaultPlan::new()
            .crash(n(1), secs(20.0))
            .outage(n(3), secs(45.0), secs(70.0)),
        ..RunConfig::default()
    };
    let report = run(&grid, &spec, &under(periodic()), &cfg);
    assert_eq!(report.completed, 400);
    assert!(report.replays > 0, "the crashed node's backlog must replay");
    assert!(!report.final_mapping.nodes_used().contains(&n(1)));
    check("crash_cyclic_trace", &record(&report));
}

/// `join_arrived` / `merge_dest` / `dead`: pre → {left, right} → merge,
/// the merge replicated over two hosts throughout, `left` dead-lettering
/// one item after a retry and retrying thirty more. The controller moves
/// the merge's second replica at t = 15 s, so joins pinned to the
/// vacated host re-route, and a branch host crashes at t = 40 s —
/// through a live `SimSession`, outputs collected in completion order.
#[test]
fn replicated_merge_with_a_dead_letter() {
    let grid = testbed_hetero8(7);
    // `left` rejects 1_000_077 on every presentation (dead letter after
    // one retry) and every other value ending in 7 on the first only.
    let mut rejected_once = std::collections::HashSet::new();
    let mut dag = DagBuilder::<u64>::default();
    let pre = jittered("pre", 0.2, 8_000, 51);
    let pre = dag.node_with(pre, dag.input(), |x: u64| x + 1_000_000);
    let left = dag.try_node_with(
        jittered("left", 0.4, 8_000, 52),
        pre.clone(),
        move |v: u64| {
            if v == 1_000_077 || (v % 10 == 7 && rejected_once.insert(v)) {
                Err(format!("indigestible payload {v}"))
            } else {
                Ok(v * 2)
            }
        },
    );
    dag.resilience(ResiliencePolicy::new().retries(1).dead_letter());
    let right = dag.node_with(jittered("right", 0.5, 8_000, 53), pre, |v: u64| v + 5);
    let merge = jittered("merge", 2.0, 8_000, 54);
    let merge = dag.join_with(merge, vec![left, right], |parts: Vec<u64>| {
        parts[0] + parts[1]
    });
    let pipeline = dag.exit(merge).input_bytes(8_000).build();
    let cfg = RunConfig {
        items: 300,
        initial_mapping: Some(Mapping::new(vec![
            Placement::single(n(3)),
            Placement::single(n(1)),
            Placement::single(n(4)),
            Placement::replicated(vec![n(0), n(2)]),
        ])),
        faults: FaultPlan::new().crash(n(2), secs(40.0)),
        preserve_order: false,
        ..RunConfig::default()
    };
    let paced_periodic = Session::new(periodic(), ArrivalProcess::Uniform { rate: 2.0 }).unwrap();
    let mut session = simsession::spawn(&grid, pipeline, &paced_periodic, &cfg);
    let mut outputs: Vec<u64> = Vec::new();
    for i in 0..300u64 {
        session.push(i).expect("an open session accepts pushes");
        // Pull as we go, so pushes and steps interleave.
        if i % 50 == 49 {
            outputs.extend(session.by_ref().take(20));
        }
    }
    let (rest, report) = session.drain().into_parts();
    outputs.extend(rest);
    assert_eq!(report.completed, 299);
    assert_eq!(report.dead_letters, 1);
    assert!(report.retries > 1);
    assert!(
        report.adaptations[0].migrated_stages.contains(&3)
            && report
                .adaptations
                .iter()
                .all(|e| e.to.placement(3).width() == 2),
        "the merge must move while it stays replicated"
    );
    assert_eq!(outputs.len(), 299);
    let mut text = record(&report);
    writeln!(text, "outputs in completion order: {outputs:?}").expect("writing to a String");
    check("replicated_merge_dead_letter", &text);
}

/// A tenant's pool share: half the pool, under the periodic controller
/// across the load step. Only a pool grants a share, so the stream is
/// pushed whole through a session attached at one half and then
/// drained — the event order of a batch run.
#[test]
fn half_share_of_the_pool() {
    let grid = hetero8_with_step();
    let pipeline = PipelineBuilder::<u64>::new()
        .input_bytes(10_000)
        .stage(jittered("s0", 0.4, 10_000, 61), |x: u64| x)
        .stage(jittered("s1", 0.8, 10_000, 62), |x: u64| x)
        .stage(jittered("s2", 0.6, 10_000, 63), |x: u64| x)
        .build();
    let cfg = RunConfig {
        items: 300,
        ..RunConfig::default()
    };
    let paced_periodic = Session::new(periodic(), ArrivalProcess::Uniform { rate: 0.8 }).unwrap();
    let mut session = SimPool::new(&grid, FaultPlan::new())
        .admit(
            pipeline,
            &paced_periodic,
            cfg,
            ShareQuota::bounded(0.0, 0.5),
        )
        .expect("half of an empty pool is free");
    session.push_batch(&mut (0..300)).expect("an open session");
    let report = session.drain().report;
    assert_eq!(report.completed, 300);
    check("rate_scale_half", &record(&report));
}

/// The shape `adabench`'s `sim_static` runs: the 6-stage pipeline with
/// one parallel block on hetero8 with the load step, a static planned
/// mapping, the whole stream present at t = 0.
#[test]
fn static_dag_all_at_once() {
    let grid = hetero8_with_step();
    let work = [0.4, 0.6, 0.8, 1.0, 1.2, 1.4];
    let stages = (0..6)
        .map(|i| jittered(&format!("s{i}"), work[i], 32 << 10, 42 + i as u64))
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
        items: 2_000,
        ..RunConfig::default()
    };
    let report = run(&grid, &spec, &Session::default(), &cfg);
    assert_eq!(report.completed, 2_000);
    check("static_dag", &record(&report));
}
