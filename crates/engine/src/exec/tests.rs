use super::*;
use crate::vnode::spin_for;
use adapipe_core::pipeline::{DagBuilder, PipelineBuilder};
use adapipe_core::spec::{ResiliencePolicy, StageSpec};
use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::load::LoadModel;
use adapipe_gridsim::node::NodeId;
use adapipe_mapper::mapping::Mapping;
use adapipe_mapper::share::ShareQuota;
use adapipe_runtime::policy::Policy;

pub(crate) fn n(i: usize) -> NodeId {
    NodeId(i)
}

/// The one record every envelope and sink batch carries per item: a
/// six-word `Payload` plus three words of sequence number and pool-clock
/// stamps. An `Instant` stamp, or a field added later, regrows it (to
/// 88 B with `Instant`s).
#[test]
fn per_item_records_stay_within_a_cache_line_and_a_word() {
    use std::mem::size_of;
    assert!(size_of::<ItemSlot>() <= 72, "{}", size_of::<ItemSlot>());
}

/// Re-planning every `ms` milliseconds, the stream present at `t = 0`.
pub(crate) fn every(ms: u64) -> Session {
    let interval = SimDuration::from_millis(ms);
    Session::new(Policy::Periodic { interval }, ArrivalProcess::AllAtOnce).expect("valid")
}

/// The default run config launched on `mapping`.
pub(crate) fn mapped(mapping: Mapping) -> RunConfig {
    RunConfig {
        initial_mapping: Some(mapping),
        ..RunConfig::default()
    }
}

/// [`spawn`] as the default session: a static mapping, the stream
/// present at `t = 0`.
pub(crate) fn spawn_static<I: Send + 'static, O: Send + 'static>(
    pipeline: Pipeline<I, O>,
    vnodes: Vec<VNodeSpec>,
    cfg: &RunConfig,
) -> EngineSession<I, O> {
    spawn(pipeline, vnodes, &Session::default(), cfg)
}

/// Runs `pipeline` over `inputs`: [`execute_fed`] with the inputs as
/// the feed, and their count as the stream length.
fn execute<I: Send + 'static, O: Send + 'static>(
    pipeline: Pipeline<I, O>,
    inputs: Vec<I>,
    vnodes: Vec<VNodeSpec>,
    session: &Session,
    cfg: &RunConfig,
) -> RunHandle<O> {
    let cfg = RunConfig {
        items: inputs.len() as u64,
        ..cfg.clone()
    };
    let mut inputs = inputs.into_iter();
    let feed = move |_| inputs.next().expect("one input per item");
    execute_fed(pipeline, feed, vnodes, session, &cfg)
}

/// [`execute`] as the default session.
fn execute_static<I: Send + 'static, O: Send + 'static>(
    pipeline: Pipeline<I, O>,
    inputs: Vec<I>,
    vnodes: Vec<VNodeSpec>,
    cfg: &RunConfig,
) -> RunHandle<O> {
    execute(pipeline, inputs, vnodes, &Session::default(), cfg)
}

/// A stage spinning for `ms` milliseconds per item.
pub(crate) fn spin_stage(
    name: &str,
    ms: u64,
) -> (StageSpec, impl FnMut(u64) -> u64 + Send + Clone) {
    (
        StageSpec::balanced(name, ms as f64 / 1000.0, 8),
        move |x: u64| {
            spin_for(Duration::from_millis(ms));
            x + 1
        },
    )
}

pub(crate) fn free_nodes(k: usize) -> Vec<VNodeSpec> {
    (0..k).map(|i| VNodeSpec::free(format!("v{i}"))).collect()
}

/// Wall-clock speedup assertions need real hardware parallelism; on
/// an undersized host only correctness is asserted.
pub(crate) fn multicore(k: usize) -> bool {
    std::thread::available_parallelism()
        .map(|p| p.get() >= k)
        .unwrap_or(false)
}

#[test]
fn outputs_are_complete_and_ordered() {
    let (s0, f0) = spin_stage("a", 1);
    let (s1, f1) = spin_stage("b", 1);
    let pipeline = PipelineBuilder::<u64>::new()
        .stage(s0, f0)
        .stage(s1, f1)
        .build();
    let inputs: Vec<u64> = (0..50).collect();
    let outcome = execute_static(pipeline, inputs, free_nodes(2), &RunConfig::default());
    assert_eq!(outcome.report.completed, 50);
    assert!(!outcome.report.truncated);
    // Each item passed both stages exactly once: x + 2, in order.
    let expect: Vec<u64> = (0..50).map(|x| x + 2).collect();
    assert_eq!(outcome.outputs, expect);
}

#[test]
fn session_streams_outputs_while_pushing() {
    let (s0, f0) = spin_stage("a", 1);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let mut session = spawn_static(pipeline, free_nodes(2), &RunConfig::default());
    let mut got = Vec::new();
    for i in 0..20u64 {
        session.push(i).unwrap();
        // Interleave pulls with pushes — the pipeline is live.
        if let TryNext::Item(o) = session.try_next() {
            got.push(o);
        }
    }
    assert!(session.in_flight() <= 20);
    let outcome = session.drain();
    got.extend(outcome.outputs);
    assert_eq!(got, (1..=20).collect::<Vec<_>>());
    assert_eq!(outcome.report.completed, 20);
    assert!(!outcome.report.truncated);
}

#[test]
fn session_next_blocks_until_each_output() {
    let (s0, f0) = spin_stage("a", 1);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let mut session = spawn_static(pipeline, free_nodes(1), &RunConfig::default());
    for i in 0..5u64 {
        session.push(i).unwrap();
    }
    session.close();
    let mut got = Vec::new();
    for o in session.by_ref() {
        got.push(o);
    }
    assert_eq!(got, vec![1, 2, 3, 4, 5]);
    let outcome = session.drain();
    assert!(outcome.outputs.is_empty(), "everything already pulled");
    assert_eq!(outcome.report.completed, 5);
}

#[test]
fn bounded_session_blocks_push_under_stall() {
    // capacity 1 over a 1-stage pipeline ⇒ 2 in-flight slots. The
    // stage takes ≥ 20 ms per item, so pushing 8 items must block
    // the source for roughly (8 − 2) × 20 ms.
    let (s0, f0) = spin_stage("slow", 20);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let cfg = RunConfig {
        queue_capacity: Some(1),
        ..RunConfig::default()
    };
    let events = cfg.events.subscribe();
    let mut session = spawn_static(pipeline, free_nodes(1), &cfg);
    let t0 = Instant::now();
    for i in 0..8u64 {
        session.push(i).unwrap();
    }
    let pushing = t0.elapsed();
    assert!(
        pushing >= Duration::from_millis(80),
        "8 pushes through 2 slots of a 20 ms stage took only {pushing:?}"
    );
    let outcome = session.drain();
    assert_eq!(outcome.report.completed, 8);
    assert_eq!(outcome.outputs, (1..=8).collect::<Vec<_>>());
    let stalls = events
        .try_iter()
        .filter(|e| matches!(e, RunEvent::BackpressureStall { .. }))
        .count();
    assert!(stalls >= 4, "expected repeated stalls, saw {stalls}");
}

#[test]
fn abort_discards_backlog_instead_of_draining_it() {
    // 200 queued items of a 5 ms stage ≈ 1 s of backlog; abort must
    // return after at most the item in flight, not chew through it.
    let (s0, f0) = spin_stage("slow", 5);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let mut session = spawn_static(pipeline, free_nodes(1), &RunConfig::default());
    for i in 0..200u64 {
        session.push(i).unwrap();
    }
    let t0 = Instant::now();
    let report = session.abort();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(400),
        "abort must not drain the ~1 s backlog, took {took:?}"
    );
    assert!(report.truncated);
}

#[test]
fn dropping_a_session_reclaims_its_threads() {
    // A session abandoned without drain()/abort() (error path) must
    // shut its workers, collector, and adaptation thread down via
    // Drop — promptly, even with a deep backlog queued.
    let (s0, f0) = spin_stage("slow", 5);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let cfg = RunConfig {
        items: 100,
        ..RunConfig::default()
    };
    let mut session = spawn(pipeline, free_nodes(2), &every(100), &cfg);
    for i in 0..100u64 {
        session.push(i).unwrap();
    }
    let t0 = Instant::now();
    drop(session);
    assert!(
        t0.elapsed() < Duration::from_millis(400),
        "drop must join all threads without draining the backlog"
    );
}

#[test]
fn only_a_loop_with_a_schedule_gets_a_thread() {
    let threaded = |session: &Session, faults: FaultPlan| {
        let (s0, f0) = spin_stage("a", 0);
        let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
        let cfg = RunConfig {
            faults,
            ..RunConfig::default()
        };
        let run = spawn(pipeline, free_nodes(2), session, &cfg);
        matches!(run.adaptation, Some(Adaptation::Thread(_)))
    };
    let crash = FaultPlan::new().crash(n(1), SimTime::from_secs_f64(3600.0));
    assert!(!threaded(&Session::default(), FaultPlan::new()));
    assert!(threaded(&Session::default(), crash));
    assert!(threaded(&every(3_600_000), FaultPlan::new()));
}

#[test]
fn abort_reports_truncation() {
    let (s0, f0) = spin_stage("slow", 20);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let mut session = spawn_static(pipeline, free_nodes(1), &RunConfig::default());
    for i in 0..50u64 {
        session.push(i).unwrap();
    }
    let report = session.abort();
    assert!(
        report.truncated || report.completed == 50,
        "an aborted run either lost items (truncated) or got lucky"
    );
}

#[test]
fn pipeline_parallelism_beats_sequential_time() {
    // 3 stages × 8 ms on 3 nodes: sequential would be n×24 ms; a
    // pipeline approaches n×8 ms.
    let (s0, f0) = spin_stage("a", 8);
    let (s1, f1) = spin_stage("b", 8);
    let (s2, f2) = spin_stage("c", 8);
    let pipeline = PipelineBuilder::<u64>::new()
        .stage(s0, f0)
        .stage(s1, f1)
        .stage(s2, f2)
        .build();
    let cfg = mapped(Mapping::from_assignment(&[n(0), n(1), n(2)]));
    let items = 40u64;
    let outcome = execute_static(pipeline, (0..items).collect(), free_nodes(3), &cfg);
    assert_eq!(outcome.report.completed, items);
    if multicore(4) {
        let makespan = outcome.report.makespan.as_secs_f64();
        let sequential = items as f64 * 0.024;
        assert!(
            makespan < sequential * 0.75,
            "makespan {makespan:.3}s should be well under sequential {sequential:.3}s"
        );
    }
}

#[test]
fn slow_vnode_slows_its_stage() {
    let (s0, f0) = spin_stage("a", 5);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    // Same stage on a full-speed vs a quarter-speed node.
    let fast_cfg = mapped(Mapping::all_on(n(0), 1));
    let slow_cfg = mapped(Mapping::all_on(n(0), 1));
    let fast = execute_static(
        PipelineBuilder::<u64>::new()
            .stage(spin_stage("a", 5).0, spin_stage("a", 5).1)
            .build(),
        (0..20).collect(),
        vec![VNodeSpec::free("fast")],
        &fast_cfg,
    );
    let slow = execute_static(
        pipeline,
        (0..20).collect(),
        vec![VNodeSpec::with_speed("slow", 0.25)],
        &slow_cfg,
    );
    let ratio = slow.report.makespan.as_secs_f64() / fast.report.makespan.as_secs_f64();
    assert!(
        ratio > 2.0,
        "quarter-speed node should be ≳4× slower, measured ratio {ratio:.2}"
    );
}

#[test]
fn stateful_stage_migrates_with_state_intact() {
    // A stateful running-sum stage must produce exactly-once,
    // order-insensitive totals even across a migration.
    let sum_spec = StageSpec::balanced("sum", 0.003, 8).with_state(8);
    let pipeline = PipelineBuilder::<u64>::new()
        .then(|graph, tail| {
            let mut acc = 0u64;
            graph.stateful_node_with(sum_spec, tail, move |x: u64| {
                spin_for(Duration::from_millis(3));
                acc += x;
                acc
            })
        })
        .build();
    // The host collapses to 5 % almost immediately, so hundreds of
    // items remain when the controller first looks — migration is
    // unambiguously worthwhile.
    let vnodes = vec![
        VNodeSpec::free("v0").with_load(LoadModel::step(1.0, 0.05, SimTime::from_secs_f64(0.1))),
        VNodeSpec::free("v1"),
    ];
    let cfg = mapped(Mapping::all_on(n(0), 1));
    let items: Vec<u64> = (1..=300).collect();
    let outcome = execute(pipeline, items, vnodes, &every(150), &cfg);
    assert_eq!(outcome.report.completed, 300);
    // The final (largest) accumulator value must be the total sum:
    // every item added exactly once.
    let max = outcome.outputs.iter().max().copied().unwrap();
    assert_eq!(max, 45150, "state lost or duplicated across migration");
    assert!(outcome.report.adaptation_count() >= 1);
}

#[test]
fn vnode_crash_mid_run_loses_nothing() {
    // Stage "slow" starts pinned to v1; v1 crashes at 150 ms with a
    // deep backlog queued. The fault wake-up must mark it down,
    // force a re-map onto a live vnode, and replay the stranded
    // envelopes — every output delivered exactly once, in order.
    let (s0, f0) = spin_stage("slow", 4);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let mut cfg = RunConfig {
        initial_mapping: Some(Mapping::all_on(n(1), 1)),
        faults: FaultPlan::new().crash(n(1), SimTime::from_secs_f64(0.15)),
        ..RunConfig::default()
    };
    let events = cfg.events.subscribe();
    cfg.items = 100;
    let mut session = spawn(pipeline, free_nodes(2), &every(100), &cfg);
    for i in 0..100u64 {
        session.push(i).unwrap();
    }
    let outcome = session.drain();
    assert_eq!(outcome.report.completed, 100, "items lost to the crash");
    assert!(!outcome.report.truncated);
    assert_eq!(outcome.outputs, (1..=100).collect::<Vec<_>>());
    assert!(outcome.report.replays > 0, "backlog must replay");
    assert!(!outcome.report.final_mapping.nodes_used().contains(&n(1)));
    assert!(outcome.report.node_downtime[1] > SimDuration::ZERO);
    let seen: Vec<_> = events.try_iter().collect();
    assert!(seen
        .iter()
        .any(|e| matches!(e, RunEvent::NodeDown { node: 1, .. })));
    assert!(seen
        .iter()
        .any(|e| matches!(e, RunEvent::ItemReplayed { .. })));
}

/// (x+1 ‖ x*2) → join, both branches fed by the pipeline input.
fn branched() -> Pipeline<u64, u64> {
    use adapipe_core::pipeline::DagBuilder;
    let spec = |name| StageSpec::balanced(name, 0.001, 8);
    let mut dag = DagBuilder::<u64>::default();
    let input = dag.input();
    let a = dag.node_with(spec("a"), input.clone(), |x: u64| x + 1);
    let b = dag.node_with(spec("b"), input, |x: u64| x * 2);
    let join = dag.join_with(spec("join"), vec![a, b], |parts: Vec<u64>| {
        parts[0] * 1000 + parts[1]
    });
    dag.finish(join).expect("a fan-out and a join")
}

#[test]
fn branched_pipeline_joins_every_item_exactly_once() {
    let outcome = execute_static(
        branched(),
        (0..100).collect(),
        free_nodes(3),
        &RunConfig::default(),
    );
    assert_eq!(outcome.report.completed, 100);
    assert!(!outcome.report.truncated);
    // Branch order is part of the merge contract: parts[0] is always
    // branch a, parts[1] always branch b.
    let expect: Vec<u64> = (0..100).map(|x| (x + 1) * 1000 + x * 2).collect();
    assert_eq!(outcome.outputs, expect);
}

#[test]
fn empty_input_returns_immediately() {
    let (s0, f0) = spin_stage("a", 1);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let outcome = execute_static(pipeline, vec![], free_nodes(1), &RunConfig::default());
    assert_eq!(outcome.report.completed, 0);
    assert!(outcome.outputs.is_empty());
}

#[test]
fn pacing_limits_throughput() {
    let (s0, f0) = spin_stage("a", 1);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let rate = 100.0; // 10 ms between items: the static baseline under a paced stream
    let paced = Session::baseline(Policy::Static, ArrivalProcess::Uniform { rate }).unwrap();
    let cfg = RunConfig::default();
    let outcome = execute(pipeline, (0..30).collect(), free_nodes(1), &paced, &cfg);
    // 30 items at 100/s ≥ 0.29 s regardless of stage speed.
    assert!(outcome.report.makespan.as_secs_f64() > 0.25);
    assert_eq!(outcome.report.completed, 30);
}

#[test]
fn replicated_hot_stage_uses_multiple_nodes() {
    // One 10 ms stage, 3 nodes: the planner should replicate it, and
    // the engine must produce exactly-once outputs anyway.
    let (s0, f0) = spin_stage("hot", 10);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let outcome = execute_static(
        pipeline,
        (0..60).collect(),
        free_nodes(3),
        &RunConfig::default(),
    );
    assert_eq!(outcome.report.completed, 60);
    let expect: Vec<u64> = (0..60).map(|x| x + 1).collect();
    assert_eq!(outcome.outputs, expect);
    // With ≥2 replicas the makespan beats the single-node 600 ms —
    // only observable with real hardware parallelism.
    if multicore(4) && outcome.report.final_mapping.placement(0).width() > 1 {
        assert!(outcome.report.makespan.as_secs_f64() < 0.55);
    }
}

#[test]
fn batched_envelopes_preserve_order_and_exactly_once() {
    // batch_size 16 over a 2-stage pipeline: outputs must be the
    // same complete ordered stream the per-item wire produces.
    let (s0, f0) = spin_stage("a", 1);
    let (s1, f1) = spin_stage("b", 1);
    let pipeline = PipelineBuilder::<u64>::new()
        .stage(s0, f0)
        .stage(s1, f1)
        .build();
    let cfg = RunConfig {
        batch_size: 16,
        ..RunConfig::default()
    };
    let outcome = execute_static(pipeline, (0..100).collect(), free_nodes(2), &cfg);
    assert_eq!(outcome.report.completed, 100);
    assert!(!outcome.report.truncated);
    let expect: Vec<u64> = (0..100).map(|x| x + 2).collect();
    assert_eq!(outcome.outputs, expect);
}

#[test]
fn batched_branched_pipeline_joins_exactly_once() {
    // Fan-out/join with batch_size 8: per-item fan-out and join
    // accounting inside batches must not lose or duplicate parts.
    let cfg = RunConfig {
        batch_size: 8,
        ..RunConfig::default()
    };
    let outcome = execute_static(branched(), (0..100).collect(), free_nodes(3), &cfg);
    assert_eq!(outcome.report.completed, 100);
    let expect: Vec<u64> = (0..100).map(|x| (x + 1) * 1000 + x * 2).collect();
    assert_eq!(outcome.outputs, expect);
}

#[test]
fn push_batch_respects_bounded_credits() {
    // batch_size 8 against a 2-slot in-flight window: push_batch
    // must flush buffered input before blocking on the credit gate
    // (buffered items hold credits only completions can return) —
    // anything else deadlocks here.
    let (s0, f0) = spin_stage("slow", 2);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let cfg = RunConfig {
        queue_capacity: Some(1),
        batch_size: 8,
        ..RunConfig::default()
    };
    let mut session = spawn_static(pipeline, free_nodes(1), &cfg);
    let pushed = session.push_batch(&mut (0..50u64)).unwrap();
    assert_eq!(pushed, 50);
    let outcome = session.drain();
    assert_eq!(outcome.report.completed, 50);
    assert_eq!(outcome.outputs, (1..=50).collect::<Vec<_>>());
}

#[test]
fn pending_input_flushes_on_output_interaction() {
    // 3 items buffered under a batch_size far larger than the
    // stream: next() must flush them or it would wait forever.
    let (s0, f0) = spin_stage("a", 1);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let cfg = RunConfig {
        batch_size: 64,
        ..RunConfig::default()
    };
    let mut session = spawn_static(pipeline, free_nodes(1), &cfg);
    for i in 0..3u64 {
        session.push(i).unwrap();
    }
    let mut got = Vec::new();
    for _ in 0..3 {
        got.push(session.next().expect("pending input must flush"));
    }
    assert_eq!(got, vec![1, 2, 3]);
    session.close();
    let outcome = session.drain();
    assert_eq!(outcome.report.completed, 3);
}

#[test]
fn idle_replica_steals_from_a_loaded_sibling() {
    use adapipe_mapper::mapping::Placement;
    // One stateless stage replicated on a quarter-speed and a free
    // vnode. Round-robin deals half the stream to each; the fast
    // replica drains its share early and must steal from the slow
    // one's backlog instead of idling. Exactly-once and ordering
    // must survive the steals.
    let (s0, f0) = spin_stage("hot", 2);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let cfg = mapped(Mapping::new(vec![Placement::replicated(vec![n(0), n(1)])]));
    let mut session = spawn_static(
        pipeline,
        vec![VNodeSpec::with_speed("slow", 0.25), VNodeSpec::free("fast")],
        &cfg,
    );
    for i in 0..40u64 {
        session.push(i).unwrap();
    }
    session.close();
    let mut got = Vec::new();
    for o in session.by_ref() {
        got.push(o);
    }
    assert_eq!(got, (1..=40).collect::<Vec<_>>());
    assert!(
        session.steals() > 0,
        "fast replica should have stolen from the slow one's backlog"
    );
    let outcome = session.drain();
    assert_eq!(outcome.report.completed, 40);
    assert!(!outcome.report.truncated);
}

#[test]
fn push_after_close_returns_typed_error() {
    let (s0, f0) = spin_stage("a", 1);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let mut session = spawn_static(pipeline, free_nodes(1), &RunConfig::default());
    session.push(1).unwrap();
    session.close();
    assert_eq!(session.push(2), Err(RunError::SessionClosed));
    assert_eq!(
        session.push_batch(&mut (3..5)),
        Err(RunError::SessionClosed)
    );
    let outcome = session.drain();
    assert_eq!(outcome.report.completed, 1, "rejected pushes never ran");
}

#[test]
fn eviction_rejects_new_pushes_but_drains_in_flight() {
    let (s0, f0) = spin_stage("a", 1);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let mut session = spawn_static(pipeline, free_nodes(1), &RunConfig::default());
    for i in 0..10u64 {
        session.push(i).unwrap();
    }
    let id = session.session_id();
    assert!(session.shared.pool.evict(id));
    assert_eq!(session.push(10), Err(RunError::Evicted { session: id }));
    // Graceful: everything already accepted still completes.
    let outcome = session.drain();
    assert_eq!(outcome.report.completed, 10);
    assert!(!outcome.report.truncated);
}

#[test]
fn concurrent_tenants_share_one_pool_exactly_once() {
    // Three heterogeneous sessions attached to one 2-worker pool,
    // pushed interleaved: each must finish complete, ordered, and
    // isolated (disjoint transforms prove no cross-tenant leakage).
    let pool = Pool::launch(free_nodes(2), FaultPlan::new(), None);
    let mk = |add: u64| {
        let (s0, _) = spin_stage("t", 1);
        PipelineBuilder::<u64>::new()
            .stage(s0, move |x: u64| {
                spin_for(Duration::from_millis(1));
                x + add
            })
            .build()
    };
    let (fixed, cfg) = (Session::default(), RunConfig::default());
    let mut a = attach(&pool, mk(100), &fixed, &cfg, ShareQuota::default());
    let mut b = attach(&pool, mk(1000), &fixed, &cfg, ShareQuota::default());
    let mut c = attach(&pool, mk(10000), &fixed, &cfg, ShareQuota::default());
    assert_ne!(a.session_id(), b.session_id());
    for i in 0..30u64 {
        a.push(i).unwrap();
        b.push(i).unwrap();
        c.push(i).unwrap();
    }
    let (oa, ob, oc) = (a.drain(), b.drain(), c.drain());
    assert_eq!(oa.outputs, (0..30).map(|x| x + 100).collect::<Vec<_>>());
    assert_eq!(ob.outputs, (0..30).map(|x| x + 1000).collect::<Vec<_>>());
    assert_eq!(oc.outputs, (0..30).map(|x| x + 10000).collect::<Vec<_>>());
    assert!(!oa.report.truncated && !ob.report.truncated && !oc.report.truncated);
    pool.shutdown();
}

#[test]
fn forced_eviction_leaves_co_tenants_running() {
    let pool = Pool::launch(free_nodes(2), FaultPlan::new(), None);
    let (s0, f0) = spin_stage("keep", 1);
    let keep = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let (s1, f1) = spin_stage("goner", 2);
    let goner = PipelineBuilder::<u64>::new().stage(s1, f1).build();
    let (fixed, cfg) = (Session::default(), RunConfig::default());
    let mut survivor = attach(&pool, keep, &fixed, &cfg, ShareQuota::default());
    let mut victim = attach(&pool, goner, &fixed, &cfg, ShareQuota::default());
    for i in 0..200u64 {
        victim.push(i).unwrap();
    }
    let id = victim.session_id();
    assert!(pool.evict_now(id));
    assert_eq!(victim.error(), Some(RunError::Evicted { session: id }));
    let report = {
        // The evicted session unwinds truncated, promptly.
        let t0 = Instant::now();
        let outcome = victim.drain();
        assert!(t0.elapsed() < Duration::from_secs(2));
        outcome.report
    };
    assert!(report.truncated);
    // The co-tenant is unaffected: full exactly-once stream.
    for i in 0..40u64 {
        survivor.push(i).unwrap();
    }
    let outcome = survivor.drain();
    assert_eq!(outcome.outputs, (1..=40).collect::<Vec<_>>());
    assert!(!outcome.report.truncated);
    pool.shutdown();
}

#[test]
fn weighted_shares_bias_worker_capacity() {
    // Two identical spin-heavy tenants flood one single-worker pool;
    // tenant A holds 4× the share of tenant B. Weighted-fair lane
    // service must let A finish its stream well before B finishes
    // its own (both streams are equal length).
    let pool = Pool::launch(free_nodes(1), FaultPlan::new(), None);
    let mk = || {
        let (s0, f0) = spin_stage("w", 2);
        PipelineBuilder::<u64>::new().stage(s0, f0).build()
    };
    let (fixed, cfg) = (Session::default(), RunConfig::default());
    let mut a = attach(&pool, mk(), &fixed, &cfg, ShareQuota::default());
    let mut b = attach(&pool, mk(), &fixed, &cfg, ShareQuota::default());
    a.shared.set_share(0.8);
    b.shared.set_share(0.2);
    // Envelope-per-item keeps many envelopes queued per lane.
    for i in 0..60u64 {
        a.push(i).unwrap();
        b.push(i).unwrap();
    }
    a.close();
    b.close();
    let (a_handle, b_handle) = (Arc::clone(&a.shared), Arc::clone(&b.shared));
    // Wait until A's stream completes; B must still have backlog.
    let t0 = Instant::now();
    while a_handle.completed.load(Ordering::Relaxed) < 60 && t0.elapsed() < Duration::from_secs(30)
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        a_handle.completed.load(Ordering::Relaxed),
        60,
        "high-share tenant finished"
    );
    let b_done = b_handle.completed.load(Ordering::Relaxed);
    assert!(
        b_done < 60,
        "low-share tenant should lag the high-share one (completed {b_done})"
    );
    let (oa, ob) = (a.drain(), b.drain());
    assert_eq!(oa.report.completed, 60);
    assert_eq!(ob.report.completed, 60);
    pool.shutdown();
}

#[test]
fn an_erroring_push_batch_returns_every_unspent_credit() {
    let (s0, f0) = spin_stage("a", 0);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let cfg = RunConfig {
        queue_capacity: Some(32),
        batch_size: 8,
        ..RunConfig::default()
    };
    let mut session = spawn_static(pipeline, free_nodes(1), &cfg);
    let pool = Arc::clone(&session.shared.pool);
    let credits = Arc::clone(session.shared.credits.as_ref().expect("bounded session"));
    let capacity = credits.available();
    assert_eq!(capacity, 64, "32 per boundary, two boundaries");

    // Eviction begins as the iterator yields item 37: four envelopes
    // and five items are in, and three credits of the fifth envelope's
    // eight are taken and will never be spent.
    let id = session.session_id();
    let mut evicting = (0..100u64).inspect(|&i| {
        if i == 37 {
            assert!(pool.evict(id));
        }
    });
    assert_eq!(
        session.push_batch(&mut evicting),
        Err(RunError::Evicted { session: id })
    );
    assert_eq!(session.pushed(), 37);
    let outcome = session.drain();
    assert_eq!(outcome.outputs, (1..=37).collect::<Vec<_>>());
    assert_eq!(credits.available(), capacity, "a credit leaked");

    // An iterator that promises more than it yields is the other way
    // to leave credits unspent.
    struct Short(u64);
    impl Iterator for Short {
        type Item = u64;
        fn next(&mut self) -> Option<u64> {
            self.0 = self.0.checked_sub(1)?;
            Some(self.0)
        }
        fn size_hint(&self) -> (usize, Option<usize>) {
            (1000, None)
        }
    }
    let (s0, f0) = spin_stage("a", 0);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let mut session = spawn_static(pipeline, free_nodes(1), &cfg);
    let credits = Arc::clone(session.shared.credits.as_ref().expect("bounded session"));
    assert_eq!(session.push_batch(&mut Short(21)), Ok(21));
    assert_eq!(session.drain().report.completed, 21);
    assert_eq!(credits.available(), capacity, "a credit leaked");

    // Per-item pushes bank a stride's worth per trip to the gate; what
    // is banked when the stream closes goes back with it.
    let (s0, f0) = spin_stage("a", 0);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let mut session = spawn_static(pipeline, free_nodes(1), &cfg);
    let credits = Arc::clone(session.shared.credits.as_ref().expect("bounded session"));
    let mut pushed = 0;
    while session.held == 0 {
        assert!(pushed < 100_000, "per-item pushes never banked a credit");
        session.push(pushed).unwrap();
        pushed += 1;
    }
    assert_eq!(session.drain().report.completed, pushed);
    assert_eq!(credits.available(), capacity, "a banked credit leaked");
}

// --- delivery out of the sink batches -------------------------------------

/// Waits until every item pushed so far has settled with the collector,
/// which has then sent each sink batch on to the session.
fn settle(session: &EngineSession<u64, u64>) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while session.in_flight() > 0 {
        assert!(Instant::now() < deadline, "pushed items never settled");
        std::thread::yield_now();
    }
}

/// The next output, waiting for one without blocking the session.
fn one(session: &mut EngineSession<u64, u64>) -> u64 {
    loop {
        match session.try_next() {
            TryNext::Item(out) => return out,
            TryNext::Pending => std::thread::yield_now(),
            TryNext::Done => panic!("the stream ended early"),
        }
    }
}

/// A caller polling between pushes, with its sink batches delivered
/// out of the buffers the worker served them in: `inc → check`, where
/// `check` runs on the slow path (it dead-letters one item mid-stream),
/// so every envelope of `inc` sends all its items onward and leaves an
/// empty buffer, and every envelope of `check` keeps its exits in place
/// around the dead item's gap. Each round either takes one output while
/// two more sink batches wait behind the one it came from, then pushes
/// again with that batch part-delivered, or polls after single pushes
/// until nothing is left. Every output arrives once, in push order when
/// `preserve_order` promises it, and every push is accounted for.
#[test]
fn outputs_polled_between_pushes_arrive_once_across_sink_batches() {
    const POISON: u64 = 100;
    let pipeline = || {
        let stage = |name: &str| StageSpec::balanced(name, 0.001, 8);
        let mut dag = DagBuilder::<u64>::default();
        let inc = dag.node_with(stage("inc"), dag.input(), |x: u64| x + 1);
        let check = dag.try_node_with(stage("check"), inc, |v: u64| {
            if v == POISON + 1 {
                Err(format!("poison {v}"))
            } else {
                Ok(v * 2)
            }
        });
        dag.resilience(ResiliencePolicy::new().dead_letter());
        dag.finish(check).expect("a chain")
    };
    for preserve_order in [true, false] {
        let cfg = RunConfig {
            batch_size: 4,
            preserve_order,
            ..RunConfig::default()
        };
        let mut session = spawn_static(pipeline(), free_nodes(1), &cfg);
        let mut got = Vec::new();
        let mut x = 0;
        for round in 0..20 {
            if round % 2 == 0 {
                // Three full envelopes, each settled before the next is
                // sent, so three sink batches wait for the caller.
                for _ in 0..3 {
                    for _ in 0..4 {
                        session.push(x).unwrap();
                        x += 1;
                    }
                    settle(&session);
                }
                assert!(session.inbuf.is_empty());
                got.push(one(&mut session));
                assert!(
                    !session.inbuf.is_empty(),
                    "the first batch is part-delivered, two wait behind it"
                );
            } else {
                for _ in 0..3 {
                    session.push(x).unwrap();
                    x += 1;
                    if let TryNext::Item(out) = session.try_next() {
                        got.push(out);
                    }
                }
                settle(&session);
                while let TryNext::Item(out) = session.try_next() {
                    got.push(out);
                }
                assert!(session.inbuf.is_empty());
            }
        }
        let outcome = session.drain();
        got.extend(outcome.outputs);
        assert!(x > POISON + 20, "the dead letter falls mid-stream");
        let want: Vec<u64> = (0..x)
            .filter(|&v| v != POISON)
            .map(|v| (v + 1) * 2)
            .collect();
        if !preserve_order {
            got.sort_unstable();
        }
        assert_eq!(got, want, "preserve_order {preserve_order}");
        let report = &outcome.report;
        assert_eq!(report.dead_letters, 1);
        assert_eq!(report.completed + report.dead_letters, x);
        assert!(!report.truncated);
    }
}

// --- the push side's stamp window ----------------------------------------

/// A one-stage `x + 1` session on one free vnode.
fn plus_one(cfg: &RunConfig) -> EngineSession<u64, u64> {
    let pipeline = PipelineBuilder::<u64>::new()
        .stage(StageSpec::balanced("a", 0.001, 8), |x: u64| x + 1)
        .build();
    spawn_static(pipeline, free_nodes(1), cfg)
}

/// Pushes `session` until its stamp stride has grown to the ceiling
/// and its window holds `taken` pushes; returns how many it pushed.
fn push_until_window(session: &mut EngineSession<u64, u64>, taken: u32) -> u64 {
    use crate::fusion::MAX_STAMP_STRIDE;
    let mut pushed = 0;
    while session.stamp.stride < MAX_STAMP_STRIDE || session.stamp.taken != taken {
        assert!(pushed < 1_000_000, "dense pushes never grew the stride");
        session.push(pushed).unwrap();
        pushed += 1;
    }
    pushed
}

/// Per-item pushes 2 ms apart, never polled: every window is slower
/// than a millisecond, so the stride stays 1 and each push reads the
/// clock — its born stamp lies inside the push call itself. A stride
/// that ignored the pace would stamp most items a window early, about
/// 40 ms on average here. The report's latencies run from those
/// stamps, so each is at most the time from its push to the end of the
/// drain. Both checks read the stamps, not how soon a worker woke: a
/// bound on the report's mean latency also counted every wake-up a
/// loaded host delayed.
#[test]
fn per_item_pushes_spaced_apart_are_stamped_exactly() {
    let mut session = plus_one(&RunConfig::default());
    let shared = Arc::clone(&session.shared);
    let mut pushed_at = Vec::new();
    for i in 0..40u64 {
        std::thread::sleep(Duration::from_millis(2));
        let before = shared.pool.now();
        session.push(i).unwrap();
        let after = shared.pool.now();
        assert_eq!(session.stamp.stride, 1, "push {i}");
        let born = session.stamp.born;
        assert!(
            before <= born && born <= after,
            "push {i} stamped {born:?}, outside its call [{before:?}, {after:?}]"
        );
        pushed_at.push(before);
    }
    let report = session.drain().report;
    let drained = shared.pool.now();
    assert_eq!(report.completed, 40);
    // One worker serves one stage in push order.
    for (i, (&latency, &before)) in report.latencies.iter().zip(&pushed_at).enumerate() {
        assert!(
            latency <= drained.saturating_since(before),
            "item {i}: latency {latency:?} exceeds its push-to-drain time"
        );
    }
}

/// After a dense phase has grown the stride to its ceiling, a 20 ms
/// pause without polling leaves the open window's remaining pushes
/// stamped before the pause: at most one window of stale stamps. The
/// window's time restarts the stride at 1, so the 2 ms-spaced pushes
/// after it are exact again. A fixed stride keeps stamping whole
/// windows early, and halving it (32, 16, 8, …) adds some forty more
/// stale stamps on top of the pause's.
#[test]
fn a_pause_without_polling_costs_at_most_one_stale_window() {
    use crate::fusion::MAX_STAMP_STRIDE;
    let mut session = plus_one(&RunConfig::default());
    // Half a window taken, half still open when the pause begins.
    let dense = push_until_window(&mut session, MAX_STAMP_STRIDE / 2);
    std::thread::sleep(Duration::from_millis(20));
    for i in 0..96u64 {
        session.push(dense + i).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(session.stamp.stride, 1, "the slow window restarted it");
    let report = session.drain().report;
    assert_eq!(report.completed, dense + 96);
    // One worker serves one stage in push order, so the samples after
    // the dense phase's are the pushes after the pause.
    let late = report.latencies[dense as usize..]
        .iter()
        .filter(|&&l| l >= SimDuration::from_millis(10))
        .count();
    assert!(
        late < MAX_STAMP_STRIDE as usize,
        "{late} pushes after the pause were stamped ≥ 10 ms early"
    );
}

/// Wide-open window, 63 pushes to go: only an output poll or a
/// blocking credit wait can make the next push read the clock.
fn open_wide_window(session: &mut EngineSession<u64, u64>) -> SimTime {
    use crate::fusion::MAX_STAMP_STRIDE;
    let now = session.shared.pool.now();
    session.stamp = StampWindow {
        born: now,
        stride: MAX_STAMP_STRIDE,
        taken: 1,
        left: MAX_STAMP_STRIDE - 1,
    };
    now
}

#[test]
fn a_poll_and_a_blocking_credit_wait_each_close_the_stamp_window() {
    let gap = SimDuration::from_millis(20);

    // A poll: the push after it is born after it.
    let mut session = plus_one(&RunConfig::default());
    session.push(0).unwrap();
    let born = open_wide_window(&mut session);
    std::thread::sleep(Duration::from_millis(20));
    let _ = session.try_next();
    session.push(1).unwrap();
    assert!(
        session.stamp.born.saturating_since(born) >= gap,
        "the push after a poll kept the window's stamp"
    );
    session.drain();

    // A blocking wait: two slots over a 30 ms stage. The third push
    // waits for the first item to finish; the fourth is born after
    // that wait.
    let (s0, f0) = spin_stage("slow", 30);
    let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
    let cfg = RunConfig {
        queue_capacity: Some(1),
        ..RunConfig::default()
    };
    let mut session = spawn_static(pipeline, free_nodes(1), &cfg);
    session.push(0).unwrap();
    session.push(1).unwrap();
    let born = open_wide_window(&mut session);
    let t0 = Instant::now();
    session.push(2).unwrap();
    assert!(t0.elapsed() >= Duration::from_millis(20), "push 2 waited");
    assert_eq!(
        session.stamp.born, born,
        "push 2 was stamped before it waited"
    );
    session.push(3).unwrap();
    assert!(
        session.stamp.born.saturating_since(born) >= gap,
        "the push after a blocking wait kept the window's stamp"
    );
    let outcome = session.drain();
    assert_eq!(outcome.outputs, (1..=4).collect::<Vec<_>>());
}
