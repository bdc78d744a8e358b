//! Stage-graph acceptance suite.
//!
//! Four contracts are pinned here:
//!
//! 1. **Sugar is pure sugar** — a graph declared through the chain and
//!    parallel-block builders *is* the graph wired edge by edge: equal
//!    as a value, bit-equal under `evaluate`, mapping-equal under
//!    `plan()`, and equal in its simulated `RunReport`; the facade's
//!    chain sugar, typed handles and an adopted spec build the same
//!    graph with the same stage order. The planner
//!    decisions recorded before the topology paths were unified (chain
//!    formula, segment walk) are pinned as literals;
//! 2. **Cross-backend branch parity** — the same branched scenario run
//!    on `Backend::Sim` and `Backend::Threads` yields item-identical
//!    merged outputs, including under mid-stream loss of a node hosting
//!    one branch (zero lost items, forced re-map excluding the dead
//!    node, at-least-once replay with branch identity on the events);
//! 3. **General DAGs + resilience** — a diamond wired through typed
//!    handles (`Pipeline::dag()`) produces item-identical outputs on both
//!    backends, per-stage retry/dead-letter policies are accounted
//!    identically in the `RunReport` (poison items diverted with the
//!    same attempt counts, transient faults absorbed with zero dead
//!    letters, the default policy failing fast with the same typed
//!    error from either builder on either backend), and mis-wired
//!    declarations fail `build()` with typed errors instead of
//!    panicking mid-run;
//! 4. **One declaration, every constructor** — each plain-closure
//!    constructor builds, under each of the five state declarations, a
//!    stage that completes the same stream with the same outputs on
//!    both backends.

use adapipe::prelude::*;
use std::time::Duration;

fn n(i: usize) -> NodeId {
    NodeId(i)
}

// --- 1. sugar graphs are their edge-wired twins --------------------------

#[test]
fn linear_graph_reproduces_pre_refactor_planner_decision() {
    // The mapping the chain-only latency formula chose for this profile
    // before the model walked every topology the same way.
    let spec = PipelineSpec::new(vec![
        StageSpec::balanced("a", 2.0, 20_000),
        StageSpec::balanced("b", 1.0, 5_000),
        StageSpec::balanced("c", 3.0, 20_000),
        StageSpec::balanced("d", 0.5, 1_000),
    ]);
    let grid = testbed_hetero8(42);
    let rates = grid.rates_at(SimTime::ZERO);
    let chosen = plan(
        &spec.profile(),
        &rates,
        grid.topology(),
        &PlannerConfig::default(),
    );
    assert_eq!(chosen.mapping.to_string(), "({n1,n4} n2 n0 n2)");
    assert_eq!(chosen.prediction.throughput, 1.0);
    assert!((chosen.prediction.latency - 3.566885555555556).abs() < 1e-12);
}

/// pre → (a0 → a1 ‖ b0) → m → post with a pinned source and sink, once
/// through the block sugar and once edge by edge.
fn sugar_and_wired_specs() -> (PipelineSpec, PipelineSpec) {
    let sugar = StageGraph::builder()
        .stages(1)
        .split(&[2, 1])
        .stages(1)
        .build();
    let wired = StageGraph::dag(6)
        .edge(0, 1)
        .edge(1, 2)
        .edge(0, 3)
        .edge(2, 4)
        .edge(3, 4)
        .edge(4, 5)
        .build()
        .expect("valid wiring");
    let spec = |graph| {
        let mut spec = PipelineSpec::with_graph(
            vec![
                StageSpec::balanced("pre", 1.0, 20_000),
                StageSpec::balanced("a0", 2.0, 5_000),
                StageSpec::balanced("a1", 1.0, 20_000),
                StageSpec::balanced("b0", 3.0, 1_000),
                StageSpec::balanced("m", 0.5, 8_000),
                StageSpec::balanced("post", 1.0, 1_000),
            ],
            graph,
        );
        spec.input_bytes = 10_000;
        spec.source = Some(n(0));
        spec.sink = Some(n(7));
        spec
    };
    (spec(sugar), spec(wired))
}

#[test]
fn sugar_built_graph_is_its_edge_wired_twin_to_model_and_planner() {
    let (sugar, wired) = sugar_and_wired_specs();
    assert_eq!(sugar.graph, wired.graph);

    let grid = testbed_hetero8(42);
    let rates = grid.rates_at(SimTime::ZERO);
    let mapping = Mapping::new(vec![
        Placement::single(n(0)),
        Placement::replicated(vec![n(1), n(2)]),
        Placement::single(n(2)),
        Placement::replicated(vec![n(3), n(4), n(1)]),
        Placement::single(n(0)),
        Placement::single(n(5)),
    ]);
    let a = evaluate(&sugar.profile(), &mapping, &rates, grid.topology());
    let b = evaluate(&wired.profile(), &mapping, &rates, grid.topology());
    assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
    assert_eq!(a.latency.to_bits(), b.latency.to_bits());
    assert_eq!(a.bottleneck, b.bottleneck);
    assert_eq!(a.node_load, b.node_load);

    let cfg = PlannerConfig::default();
    let plan_sugar = plan(&sugar.profile(), &rates, grid.topology(), &cfg);
    let plan_wired = plan(&wired.profile(), &rates, grid.topology(), &cfg);
    assert_eq!(plan_sugar.mapping, plan_wired.mapping);
    assert_eq!(plan_sugar.strategy, plan_wired.strategy);
    assert_eq!(
        plan_sugar.prediction.latency.to_bits(),
        plan_wired.prediction.latency.to_bits()
    );
    // What the segment walk chose for this profile before the walks
    // were unified; its latency moved by one ulp, the ranking did not.
    assert_eq!(
        plan_sugar.mapping.to_string(),
        "(n0 {n0,n1,n2} n3 {n1,n2,n4} n0 n0)"
    );
}

#[test]
fn sugar_and_edge_wired_specs_produce_equal_sim_run_reports() {
    use adapipe::core::simengine::run;
    let (sugar, wired) = sugar_and_wired_specs();
    let grid = testbed_hetero8(42);
    let cfg = RunConfig {
        items: 250,
        observation_noise: 0.05,
        noise_seed: 1234,
        ..RunConfig::default()
    };
    let session = Session::new(Policy::periodic_default(), ArrivalProcess::AllAtOnce).unwrap();
    let a = run(&grid, &sugar, &session, &cfg);
    let b = run(&grid, &wired, &session, &cfg);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.mean_latency, b.mean_latency);
    assert_eq!(a.final_mapping, b.final_mapping);
    assert_eq!(a.adaptations.len(), b.adaptations.len());
    assert_eq!(a.planning_cycles, b.planning_cycles);
    assert_eq!(a.replays, b.replays);
    // The run the segment walk produced before the walks were unified.
    assert_eq!(
        (a.completed, a.adaptations.len(), a.planning_cycles),
        (250, 3, 49)
    );
    assert_eq!(format!("{:?}", a.makespan), "t=257.688376s");
}

#[test]
fn from_spec_adopts_any_dag_spec_and_keeps_appending_after_its_exit() {
    // 0 → {1, 2, 3}; {1, 2} → 4; {3, 4} → 5: the fan-out is three wide
    // while the first join assembles two slots, and no series-parallel
    // reading of the wiring exists.
    let graph = StageGraph::dag(6)
        .edge(0, 1)
        .edge(0, 2)
        .edge(0, 3)
        .edge(1, 4)
        .edge(2, 4)
        .edge(3, 5)
        .edge(4, 5)
        .build()
        .expect("valid wiring");
    let pipeline = || {
        let stages = (0..6)
            .map(|i| StageSpec::balanced(format!("s{i}"), 0.001, 8))
            .collect();
        PipelineBuilder::from_spec(PipelineSpec::with_graph(stages, graph.clone()))
            .stage("tail", |x: u64| x + 1)
            .build()
            .expect("any DAG spec builds")
    };
    let built = pipeline();
    assert_eq!(built.len(), 7);
    assert_eq!(built.spec().graph.preds(6), &[5]);
    assert_eq!(built.spec().graph.exit(), 6);

    let cfg = || RunConfig {
        items: 20,
        ..RunConfig::default()
    };
    let run = |backend: Backend<'_>| {
        let mut session = pipeline().spawn(backend, cfg()).expect("spawn");
        for i in 0..20 {
            session.push(i).unwrap();
        }
        session.drain()
    };
    let grid = scenario_grid();
    let sim = run(Backend::Sim(&grid));
    let threaded = run(Backend::Threads(scenario_vnodes()));
    assert!(sim.error.is_none() && threaded.error.is_none());
    assert_eq!(sim.outputs, (1..=20).collect::<Vec<u64>>());
    assert_eq!(threaded.outputs, sim.outputs);
}

#[test]
fn chain_sugar_handles_and_an_adopted_spec_lower_to_one_graph() {
    // `sugar_and_wired_specs`' shape, declared through the facade three
    // ways: the lowering must number stages exactly as the graph sugar
    // does (inside a block: branch 0, branch 1, then the merge).
    let (_, wired) = sugar_and_wired_specs();
    let stages = wired.stages.clone();
    let spec = |i: usize| stages[i].clone();
    let id = |x: u64| x;
    let first = |outs: Vec<u64>| outs[0];
    let sugar = Pipeline::<u64>::builder()
        .stage_with(spec(0), id)
        .parallel(vec![
            Branch::new()
                .stage_with(spec(1), id)
                .stage_with(spec(2), id),
            Branch::new().stage_with(spec(3), id),
        ])
        .merge_with(spec(4), first)
        .stage_with(spec(5), id)
        .input_bytes(10_000)
        .source(n(0))
        .sink(n(7))
        .build()
        .expect("sugar builds");
    let mut dag = Pipeline::<u64>::dag();
    let pre = dag.node_with(spec(0), dag.input(), id);
    let a0 = dag.node_with(spec(1), pre.clone(), id);
    let a1 = dag.node_with(spec(2), a0, id);
    let b0 = dag.node_with(spec(3), pre, id);
    let m = dag.join_with(spec(4), vec![a1, b0], first);
    let post = dag.node_with(spec(5), m, id);
    let handles = dag
        .exit(post)
        .input_bytes(10_000)
        .source(n(0))
        .sink(n(7))
        .build()
        .expect("handles build");
    let adopted = PipelineBuilder::from_spec(wired.clone())
        .build()
        .expect("the spec builds");

    let names = |p: &Pipeline<u64, u64>| -> Vec<String> {
        p.spec().stages.iter().map(|s| s.name.clone()).collect()
    };
    assert_eq!(sugar.spec().graph, wired.graph);
    for (how, built) in [("handles", &handles), ("from_spec", &adopted)] {
        assert_eq!(built.spec().graph, sugar.spec().graph, "{how}: graph");
        assert_eq!(names(built), names(&sugar), "{how}: stage order");
        assert_eq!(
            format!("{:?}", built.spec()),
            format!("{:?}", sugar.spec()),
            "{how}: the whole spec"
        );
    }
}

// --- 2. branched scenarios agree across backends ------------------------

/// Fast stages feed a deliberately slow thumbnail branch, so a backlog
/// piles up behind it (the fault test kills its host mid-backlog).
const FAST_SECS: f64 = 0.002;
const SLOW_SECS: f64 = 0.008;
const ITEMS: u64 = 150;

/// decode → (analyze ‖ thumbnail) → combine, with real per-item spin so
/// the threaded backend exercises genuine concurrency. Flattened stage
/// ids: decode=0, analyze=1, thumbnail=2, combine=3.
fn branched_scenario(policy: Policy) -> Pipeline<u64, u64> {
    let spin = |secs: f64, x: u64| {
        spin_for(Duration::from_secs_f64(secs));
        x
    };
    Pipeline::<u64>::builder()
        .stage_with(
            StageSpec::balanced("decode", FAST_SECS, 8),
            move |x: u64| spin(FAST_SECS, x) + 1,
        )
        .parallel(vec![
            Branch::new().stage_with(
                StageSpec::balanced("analyze", FAST_SECS, 8),
                move |x: u64| spin(FAST_SECS, x) * 10,
            ),
            Branch::new().stage_with(
                StageSpec::balanced("thumbnail", SLOW_SECS, 8),
                move |x: u64| spin(SLOW_SECS, x) + 100,
            ),
        ])
        .merge_with(
            StageSpec::balanced("combine", FAST_SECS, 8),
            |outs: Vec<u64>| outs[0] + outs[1],
        )
        .policy(policy)
        .build()
        .expect("branched scenario builds")
}

fn expected_outputs() -> Vec<u64> {
    (0..ITEMS).map(|x| (x + 1) * 10 + (x + 1) + 100).collect()
}

fn scenario_grid() -> GridSpec {
    let nodes = (0..3)
        .map(|i| Node::new(NodeSpec::new(format!("n{i}"), 1.0, 1), LoadModel::free()))
        .collect();
    GridSpec::new(nodes, Topology::uniform(3, LinkSpec::local()))
}

fn scenario_vnodes() -> Vec<VNodeSpec> {
    (0..3).map(|i| VNodeSpec::free(format!("v{i}"))).collect()
}

fn push_all_and_drain(
    pipeline: Pipeline<u64, u64>,
    backend: Backend<'_>,
    cfg: RunConfig,
) -> RunHandle<u64> {
    let mut session = pipeline.spawn(backend, cfg).expect("spawn");
    for i in 0..ITEMS {
        session.push(i).unwrap();
    }
    session.drain()
}

#[test]
fn branched_outputs_are_item_identical_across_backends() {
    let cfg = || RunConfig {
        items: ITEMS,
        ..RunConfig::default()
    };
    let grid = scenario_grid();
    let sim = push_all_and_drain(
        branched_scenario(Policy::Static),
        Backend::Sim(&grid),
        cfg(),
    );
    let threaded = push_all_and_drain(
        branched_scenario(Policy::Static),
        Backend::Threads(scenario_vnodes()),
        cfg(),
    );
    assert_eq!(sim.report.completed, ITEMS);
    assert_eq!(threaded.report.completed, ITEMS);
    assert!(sim.error.is_none() && threaded.error.is_none());
    assert_eq!(sim.outputs, expected_outputs(), "sim outputs drifted");
    assert_eq!(
        threaded.outputs, sim.outputs,
        "backends disagree on merged outputs"
    );
}

#[test]
fn losing_a_branch_host_mid_stream_is_survived_identically() {
    // Stage hosts: decode→n0, analyze→n0, thumbnail→n1, combine→n2;
    // n1 — the thumbnail branch's only host — dies at 0.15 s with a
    // deep backlog queued. Both backends must mark it down, force a
    // re-map excluding it, replay the stranded branch items, and lose
    // nothing.
    let mapping = Mapping::new(vec![
        Placement::single(n(0)),
        Placement::single(n(0)),
        Placement::single(n(1)),
        Placement::single(n(2)),
    ]);
    let faults = FaultPlan::new().crash(n(1), SimTime::from_secs_f64(0.15));
    let policy = Policy::Periodic {
        interval: SimDuration::from_millis(100),
    };
    let cfg = || RunConfig {
        items: ITEMS,
        initial_mapping: Some(mapping.clone()),
        faults: faults.clone(),
        ..RunConfig::default()
    };

    let grid = scenario_grid();
    let run_one = |backend: Backend<'_>| {
        let events = {
            let pipeline = branched_scenario(policy);
            let mut session = pipeline.spawn(backend, cfg()).expect("spawn");
            let events = session.events();
            for i in 0..ITEMS {
                session.push(i).unwrap();
            }
            (session.drain(), events)
        };
        events
    };
    let (sim, sim_events) = run_one(Backend::Sim(&grid));
    let (threaded, threaded_events) = run_one(Backend::Threads(scenario_vnodes()));

    for (tag, handle) in [("sim", &sim), ("threads", &threaded)] {
        assert_eq!(handle.report.completed, ITEMS, "{tag}: items lost");
        assert!(!handle.report.truncated, "{tag}: truncated");
        assert!(handle.error.is_none(), "{tag}: {:?}", handle.error);
        assert!(
            !handle.report.final_mapping.nodes_used().contains(&n(1)),
            "{tag}: dead node still mapped: {}",
            handle.report.final_mapping
        );
        assert!(handle.report.replays > 0, "{tag}: backlog must replay");
        assert!(
            handle.report.node_downtime[1] > SimDuration::ZERO,
            "{tag}: downtime unreported"
        );
    }
    assert_eq!(sim.outputs, expected_outputs());
    assert_eq!(
        threaded.outputs, sim.outputs,
        "backends disagree on merged outputs after the crash"
    );

    // Both event streams observed the death, and every replay of the
    // thumbnail stage carries its branch identity (block 0, branch 1).
    for (tag, events) in [("sim", sim_events), ("threads", threaded_events)] {
        let seen: Vec<_> = events.try_iter().collect();
        assert!(
            seen.iter()
                .any(|e| matches!(e, RunEvent::NodeDown { node: 1, .. })),
            "{tag}: NodeDown unseen"
        );
        let mut replayed_thumbnail = 0;
        for event in &seen {
            if let RunEvent::ItemReplayed { stage, branch, .. } = event {
                if *stage == 2 {
                    assert_eq!(
                        *branch,
                        Some((0, 1)),
                        "{tag}: replay lost its branch identity"
                    );
                    replayed_thumbnail += 1;
                }
            }
        }
        assert!(
            replayed_thumbnail > 0,
            "{tag}: no thumbnail-branch replays observed"
        );
    }
}

// --- 3. structural validation at build() --------------------------------

#[test]
fn parallel_block_structure_is_validated_typed() {
    let one_branch = Pipeline::<u64>::builder()
        .stage("pre", |x: u64| x)
        .parallel(vec![Branch::new().stage("only", |x: u64| x)])
        .merge("join", |outs: Vec<u64>| outs[0])
        .build();
    assert!(matches!(
        one_branch.unwrap_err(),
        BuildError::TooFewBranches { block: 0 }
    ));

    let empty_branch = Pipeline::<u64>::builder()
        .stage("pre", |x: u64| x)
        .parallel(vec![Branch::new().stage("a", |x: u64| x), Branch::new()])
        .merge("join", |outs: Vec<u64>| outs[0])
        .build();
    assert!(matches!(
        empty_branch.unwrap_err(),
        BuildError::EmptyBranch { block: 0 }
    ));

    // Duplicate names across branches are caught like any duplicate.
    let dup = Pipeline::<u64>::builder()
        .parallel(vec![
            Branch::new().stage("same", |x: u64| x),
            Branch::new().stage("same", |x: u64| x),
        ])
        .merge("join", |outs: Vec<u64>| outs[0])
        .build();
    assert!(matches!(
        dup.unwrap_err(),
        BuildError::DuplicateStage { .. }
    ));
}

// --- 4. general DAG topologies + per-stage resilience --------------------

/// The diamond from the README: fetch ─┬─ parse ─┐
///                                     └─ audit ─┴─ combine → sink
/// with real per-item spin, expressed through the explicit DAG builder
/// (typed node handles + a two-input join) rather than the
/// series-parallel sugar. Flattened ids: fetch=0, parse=1, audit=2,
/// combine=3, sink=4.
fn diamond_scenario() -> Pipeline<u64, u64> {
    let spin = |secs: f64, x: u64| {
        spin_for(Duration::from_secs_f64(secs));
        x
    };
    let mut dag = Pipeline::<u64>::dag();
    let fetch = dag.node_with(
        StageSpec::balanced("fetch", FAST_SECS, 8),
        dag.input(),
        move |x: u64| spin(FAST_SECS, x) + 1,
    );
    let parse = dag.node_with(
        StageSpec::balanced("parse", FAST_SECS, 8),
        fetch.clone(),
        move |x: u64| spin(FAST_SECS, x) * 10,
    );
    let audit = dag.node_with(
        StageSpec::balanced("audit", SLOW_SECS, 8),
        fetch,
        move |x: u64| spin(SLOW_SECS, x) + 100,
    );
    let combine = dag.join_with(
        StageSpec::balanced("combine", FAST_SECS, 8),
        vec![parse, audit],
        |outs: Vec<u64>| outs[0] + outs[1],
    );
    let sink = dag.node("sink", combine, |x: u64| x);
    dag.exit(sink).build().expect("diamond DAG builds")
}

#[test]
fn diamond_dag_outputs_are_item_identical_across_backends() {
    let cfg = || RunConfig {
        items: ITEMS,
        ..RunConfig::default()
    };
    let grid = scenario_grid();
    let sim = push_all_and_drain(diamond_scenario(), Backend::Sim(&grid), cfg());
    let threaded = push_all_and_drain(
        diamond_scenario(),
        Backend::Threads(scenario_vnodes()),
        cfg(),
    );
    assert_eq!(sim.report.completed, ITEMS);
    assert_eq!(threaded.report.completed, ITEMS);
    assert!(sim.error.is_none() && threaded.error.is_none());
    // Same arithmetic as the sugar-built branched scenario: the explicit
    // topology must not change what the items compute.
    assert_eq!(sim.outputs, expected_outputs(), "sim DAG outputs drifted");
    assert_eq!(
        threaded.outputs, sim.outputs,
        "backends disagree on DAG outputs"
    );
}

#[test]
fn dag_expressed_chain_matches_chain_builder_outputs() {
    let chain = Pipeline::<u64>::builder()
        .stage("a", |x: u64| x + 1)
        .stage("b", |x: u64| x * 3)
        .stage("c", |x: u64| x + 7)
        .build()
        .expect("chain builds");
    let mut dag = Pipeline::<u64>::dag();
    let a = dag.node("a", dag.input(), |x: u64| x + 1);
    let b = dag.node("b", a, |x: u64| x * 3);
    let c = dag.node("c", b, |x: u64| x + 7);
    let dag = dag.exit(c).build().expect("linear DAG builds");
    assert_eq!(dag.spec().graph, chain.spec().graph);
    let grid = scenario_grid();
    let cfg = || RunConfig {
        items: 40,
        ..RunConfig::default()
    };
    let run = |p: Pipeline<u64, u64>| {
        let mut session = p.spawn(Backend::Sim(&grid), cfg()).expect("spawn");
        for i in 0..40 {
            session.push(i).unwrap();
        }
        session.drain()
    };
    let a = run(chain);
    let b = run(dag);
    assert_eq!(
        a.outputs,
        (0..40).map(|x| (x + 1) * 3 + 7).collect::<Vec<_>>()
    );
    assert_eq!(b.outputs, a.outputs, "DAG-expressed chain diverged");
}

const POISON_ITEMS: u64 = 50;

/// decode → fragile (rejects every value ending in 4, i.e. inputs
/// `x % 10 == 3`) → emit, with a retry budget of two and a dead-letter
/// channel. 5 of the 50 items are poison.
fn poison_scenario() -> Pipeline<u64, u64> {
    Pipeline::<u64>::builder()
        .stage("decode", |x: u64| x + 1)
        .try_stage("fragile", |v: u64| {
            if v % 10 == 4 {
                Err(format!("indigestible payload {v}"))
            } else {
                Ok(v)
            }
        })
        .resilience(
            ResiliencePolicy::new()
                .retries(2)
                .backoff(SimDuration::from_millis(1), 2.0)
                .dead_letter(),
        )
        .stage("emit", |v: u64| v * 2)
        .build()
        .expect("poison scenario builds")
}

#[test]
fn poison_items_dead_letter_identically_across_backends() {
    let cfg = || RunConfig {
        items: POISON_ITEMS,
        ..RunConfig::default()
    };
    let run = |pipeline: Pipeline<u64, u64>, backend: Backend<'_>| {
        let mut session = pipeline.spawn(backend, cfg()).expect("spawn");
        for i in 0..POISON_ITEMS {
            session.push(i).unwrap();
        }
        session.drain()
    };
    let grid = scenario_grid();
    let sim = run(poison_scenario(), Backend::Sim(&grid));
    let threaded = run(poison_scenario(), Backend::Threads(scenario_vnodes()));

    let healthy: Vec<u64> = (0..POISON_ITEMS)
        .filter(|x| x % 10 != 3)
        .map(|x| (x + 1) * 2)
        .collect();
    for (tag, handle) in [("sim", &sim), ("threads", &threaded)] {
        let report = &handle.report;
        assert!(handle.error.is_none(), "{tag}: {:?}", handle.error);
        // Healthy items complete exactly once, in order; poison items
        // are diverted, not lost and not delivered.
        assert_eq!(report.completed, POISON_ITEMS - 5, "{tag}: completions");
        assert_eq!(handle.outputs, healthy, "{tag}: healthy outputs");
        assert_eq!(report.dead_letters, 5, "{tag}: dead-letter count");
        assert_eq!(report.retries, 10, "{tag}: 5 poison items × 2 retries");
        assert_eq!(report.dead_letter_log.len(), 5, "{tag}: log length");
        for dead in &report.dead_letter_log {
            assert_eq!(dead.stage, 1, "{tag}: wrong stage in {dead:?}");
            assert_eq!(dead.attempts, 3, "{tag}: first try + 2 retries");
            assert_eq!(dead.seq % 10, 3, "{tag}: wrong item diverted: {dead:?}");
            assert!(
                dead.reason.contains("indigestible"),
                "{tag}: reason lost: {dead:?}"
            );
        }
    }
    // The logs agree entry-for-entry once ordered by item.
    let sorted = |handle: &RunHandle<u64>| {
        let mut log = handle.report.dead_letter_log.clone();
        log.sort_by_key(|d| d.seq);
        log
    };
    assert_eq!(
        sorted(&sim),
        sorted(&threaded),
        "backends disagree on the dead-letter log"
    );
}

#[test]
fn diamond_with_dead_letters_agrees_across_backends() {
    // The diamond again, but parse is fallible: records whose payload
    // ends in 4 (5 of 50) fail every attempt and dead-letter after the
    // retry budget; their audit-branch copies must be purged from the
    // join on both backends, healthy items must come out exactly once,
    // and the resilience accounting must be identical.
    let scenario = || {
        let mut dag = Pipeline::<u64>::dag();
        let fetch = dag.node("fetch", dag.input(), |x: u64| x + 1);
        let parse = dag.try_node("parse", fetch.clone(), |v: u64| {
            if v % 10 == 4 {
                Err(format!("indigestible payload {v}"))
            } else {
                Ok(v * 10)
            }
        });
        dag.resilience(
            ResiliencePolicy::new()
                .retries(2)
                .backoff(SimDuration::from_millis(1), 2.0)
                .dead_letter(),
        );
        let audit = dag.node("audit", fetch, |v: u64| v + 100);
        let combine = dag.join("combine", vec![parse, audit], |outs: Vec<u64>| {
            outs[0] + outs[1]
        });
        let sink = dag.node("sink", combine, |x: u64| x);
        dag.exit(sink).build().expect("fallible diamond builds")
    };
    let cfg = || RunConfig {
        items: POISON_ITEMS,
        ..RunConfig::default()
    };
    let run = |pipeline: Pipeline<u64, u64>, backend: Backend<'_>| {
        let mut session = pipeline.spawn(backend, cfg()).expect("spawn");
        for i in 0..POISON_ITEMS {
            session.push(i).unwrap();
        }
        session.drain()
    };
    let grid = scenario_grid();
    let sim = run(scenario(), Backend::Sim(&grid));
    let threaded = run(scenario(), Backend::Threads(scenario_vnodes()));

    let healthy: Vec<u64> = (0..POISON_ITEMS)
        .map(|x| x + 1)
        .filter(|v| v % 10 != 4)
        .map(|v| v * 10 + v + 100)
        .collect();
    for (tag, handle) in [("sim", &sim), ("threads", &threaded)] {
        let report = &handle.report;
        assert!(
            handle.error.is_none(),
            "{tag}: session must complete, not error: {:?}",
            handle.error
        );
        assert_eq!(report.completed, POISON_ITEMS - 5, "{tag}: completions");
        assert_eq!(handle.outputs, healthy, "{tag}: healthy merged outputs");
        assert_eq!(report.dead_letters, 5, "{tag}: dead-letter count");
        assert_eq!(report.retries, 10, "{tag}: 5 poison items × 2 retries");
        for dead in &report.dead_letter_log {
            assert_eq!(dead.stage, 1, "{tag}: only parse gives up");
            assert_eq!(dead.attempts, 3, "{tag}: first try + 2 retries");
        }
    }
    let sorted = |handle: &RunHandle<u64>| {
        let mut log = handle.report.dead_letter_log.clone();
        log.sort_by_key(|d| d.seq);
        log
    };
    assert_eq!(
        sorted(&sim),
        sorted(&threaded),
        "backends disagree on the diamond's dead-letter log"
    );
}

#[test]
fn transient_failures_recover_with_retries_and_zero_dead_letters() {
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};

    // Every value fails its first presentation and succeeds on retry —
    // a transient fault, fully absorbed by a one-retry budget.
    let scenario = || {
        let seen: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
        Pipeline::<u64>::builder()
            .stage("pre", |x: u64| x + 1)
            .try_stage("flaky", move |v: u64| {
                if seen.lock().unwrap().insert(v) {
                    Err("transient glitch".to_string())
                } else {
                    Ok(v)
                }
            })
            .resilience(ResiliencePolicy::new().retries(1))
            .stage("post", |v: u64| v * 2)
            .build()
            .expect("transient scenario builds")
    };
    let cfg = || RunConfig {
        items: POISON_ITEMS,
        ..RunConfig::default()
    };
    let run = |pipeline: Pipeline<u64, u64>, backend: Backend<'_>| {
        let mut session = pipeline.spawn(backend, cfg()).expect("spawn");
        for i in 0..POISON_ITEMS {
            session.push(i).unwrap();
        }
        session.drain()
    };
    let grid = scenario_grid();
    let sim = run(scenario(), Backend::Sim(&grid));
    let threaded = run(scenario(), Backend::Threads(scenario_vnodes()));

    let expected: Vec<u64> = (0..POISON_ITEMS).map(|x| (x + 1) * 2).collect();
    for (tag, handle) in [("sim", &sim), ("threads", &threaded)] {
        assert!(handle.error.is_none(), "{tag}: {:?}", handle.error);
        assert_eq!(handle.report.completed, POISON_ITEMS, "{tag}: items lost");
        assert_eq!(handle.report.retries, POISON_ITEMS, "{tag}: one retry each");
        assert_eq!(handle.report.dead_letters, 0, "{tag}: nothing diverted");
        assert!(handle.report.dead_letter_log.is_empty(), "{tag}: log dirty");
        assert_eq!(handle.outputs, expected, "{tag}: outputs");
    }
}

#[test]
fn exhausted_retries_without_dead_letter_poison_the_run() {
    let pipeline = Pipeline::<u64>::builder()
        .stage("decode", |x: u64| x + 1)
        .try_stage("fragile", |v: u64| {
            if v == 3 {
                Err("unrecoverable".to_string())
            } else {
                Ok(v)
            }
        })
        .resilience(ResiliencePolicy::new().retries(1))
        .build()
        .expect("builds");
    let grid = scenario_grid();
    let mut session = pipeline
        .spawn(
            Backend::Sim(&grid),
            RunConfig {
                items: 10,
                ..RunConfig::default()
            },
        )
        .expect("spawn");
    for i in 0..10 {
        session.push(i).unwrap();
    }
    let handle = session.drain();
    match handle.error {
        Some(RunError::PoisonItem {
            ref stage,
            seq,
            attempts,
            ..
        }) => {
            assert_eq!(stage, "fragile");
            assert_eq!(seq, 2, "item 2 decodes to the poison value 3");
            assert_eq!(attempts, 2, "first try + one retry");
        }
        ref other => panic!("expected PoisonItem, got {other:?}"),
    }
}

#[test]
fn default_policy_fails_fast_identically_from_either_builder_on_either_backend() {
    // decode → fragile, no resilience policy declared: the first item
    // `fragile` rejects (seq 2 decodes to the poison value 3) ends the
    // run with the same typed error in all four cells.
    let fragile = |v: u64| {
        if v == 3 {
            Err("unrecoverable".to_string())
        } else {
            Ok(v)
        }
    };
    let chain = move || {
        Pipeline::<u64>::builder()
            .stage("decode", |x: u64| x + 1)
            .try_stage("fragile", fragile)
            .build()
            .expect("chain builds")
    };
    let dag = move || {
        let mut dag = Pipeline::<u64>::dag();
        let decode = dag.node("decode", dag.input(), |x: u64| x + 1);
        let last = dag.try_node("fragile", decode, fragile);
        dag.exit(last).build().expect("DAG builds")
    };
    let run = |pipeline: Pipeline<u64, u64>, backend: Backend<'_>| {
        let cfg = RunConfig {
            items: 10,
            ..RunConfig::default()
        };
        let mut session = pipeline.spawn(backend, cfg).expect("spawn");
        for i in 0..10 {
            // The threaded session may already have failed and closed.
            if session.push(i).is_err() {
                break;
            }
        }
        session.drain().error
    };
    let grid = scenario_grid();
    let cells = [
        ("chain/sim", run(chain(), Backend::Sim(&grid))),
        (
            "chain/threads",
            run(chain(), Backend::Threads(scenario_vnodes())),
        ),
        ("dag/sim", run(dag(), Backend::Sim(&grid))),
        (
            "dag/threads",
            run(dag(), Backend::Threads(scenario_vnodes())),
        ),
    ];
    for (cell, error) in cells {
        assert_eq!(
            error,
            Some(RunError::PoisonItem {
                stage: "fragile".into(),
                seq: 2,
                attempts: 1,
                reason: "unrecoverable".into(),
            }),
            "{cell}"
        );
    }
}

/// What handles still let a declaration get wrong. Unknown names,
/// cycles and self-edges cannot be written: a handle names only a stage
/// that already exists.
#[test]
fn dag_wiring_errors_are_typed_at_build() {
    let invalid_edge = |built: Result<Pipeline<u64, u64>, BuildError>| {
        matches!(built.unwrap_err(), BuildError::InvalidEdge { .. })
    };

    let mut dag = Pipeline::<u64>::dag();
    let input = dag.input();
    let a = dag.node("a", input.clone(), |x: u64| x);
    let b = dag.node("b", a, |x: u64| x);
    let _ = dag.node("orphan", input, |x: u64| x);
    assert!(matches!(
        dag.exit(b).build().unwrap_err(),
        BuildError::UnreachableStage { ref stage } if stage == "orphan"
    ));

    let mut dag = Pipeline::<u64>::dag();
    let a = dag.node("a", dag.input(), |x: u64| x);
    let b = dag.node("b", a.clone(), |x: u64| x);
    let _ = dag.node("c", a, |x: u64| x);
    assert!(invalid_edge(dag.exit(b).build()), "two exits");

    let mut dag = Pipeline::<u64>::dag();
    let a = dag.node("a", dag.input(), |x: u64| x);
    let j = dag.join("j", vec![a.clone(), a], |outs: Vec<u64>| outs[0]);
    assert!(
        invalid_edge(dag.exit(j).build()),
        "one producer joined twice"
    );

    let mut dag = Pipeline::<u64>::dag();
    let a = dag.node("a", dag.input(), |x: u64| x);
    let j = dag.join("j", vec![a], |outs: Vec<u64>| outs[0]);
    assert!(invalid_edge(dag.exit(j).build()), "narrow join");

    let mut dag = Pipeline::<u64>::dag();
    let a = dag.node("a", dag.input(), |x: u64| x);
    let _ = dag.node("b", a.clone(), |x: u64| x);
    assert!(invalid_edge(dag.exit(a).build()), "exit is not the sink");

    let mut dag = Pipeline::<u64>::dag();
    let a = dag.node("a", dag.input(), |x: u64| x);
    let b = dag.node("b", dag.input(), |x: u64| x);
    let j = dag.join("j", vec![a, b], |outs: Vec<u64>| outs[0]);
    assert!(
        invalid_edge(dag.exit(j).build()),
        "the input fanned out uncloned"
    );

    let mut dag = Pipeline::<u64>::dag();
    let input = dag.input();
    let a = dag.node("a", input.clone(), |x: u64| x);
    let j = dag.join("j", vec![input, a], |outs: Vec<u64>| outs[0]);
    assert!(invalid_edge(dag.exit(j).build()), "a join of the input");

    let other = Pipeline::<u64>::dag();
    let mut dag = Pipeline::<u64>::dag();
    let a = dag.node("a", other.input(), |x: u64| x);
    assert!(invalid_edge(dag.exit(a).build()), "a foreign handle");

    let mut dag = Pipeline::<u64>::dag();
    let first = dag.node("same", dag.input(), |x: u64| x);
    let second = dag.node("same", first, |x: u64| x);
    assert!(matches!(
        dag.exit(second).build().unwrap_err(),
        BuildError::DuplicateStage { .. }
    ));
}

#[test]
fn per_branch_replica_caps_flow_into_the_profile() {
    let pipeline = Pipeline::<u64>::builder()
        .parallel(vec![
            Branch::new()
                .stage_replicated("wide", |x: u64| x, 8)
                .replicas(2), // branch cap tightens the stage's own bound
            Branch::new().stage("free", |x: u64| x),
        ])
        .merge("join", |outs: Vec<u64>| outs[0])
        .build()
        .expect("valid");
    let profile = pipeline.spec().profile();
    assert_eq!(profile.replica_cap[0], 2, "branch cap must win");
    assert_eq!(profile.replica_cap[1], usize::MAX);
}

// --- 5. seeded sweep: the parts of parity the kernel does not cover ------
//
// Both backends run one item at one stage through `adapipe_core::item`,
// so the retry/dead-letter/join/fan-out *rules* are equal by
// construction. What stays separate is the accounting around them: the
// threaded engine counts retries and settles dead letters as its
// workers meet them, the simulated world is told each item's fate at
// push and charges it when the item gets there. The sweep pins that the
// two ledgers agree on random shapes and policies.

/// Items per generated case.
const SWEEP_ITEMS: u64 = 24;

/// What travels through a sweep pipeline: the item's sequence number
/// (the failure plan is keyed by it) and a value every stage folds its
/// own id into, so outputs depend on the path taken and — through the
/// joins' order-sensitive fold — on slot order.
type Tagged = (u64, u64);

/// One generated case: a DAG over stages `0..n` entered at stage 0 and
/// left at stage `n - 1`, a resilience policy per single-input stage,
/// per item at most one stage failing it — a bounded number of times,
/// or always — a declared state per stage, where each stage starts, and
/// how the threaded run feeds it.
struct SweepCase {
    preds: Vec<Vec<usize>>,
    policies: Vec<ResiliencePolicy>,
    /// Per item: `(stage, failures)`, `u32::MAX` meaning every attempt.
    plan: Vec<Option<(usize, u32)>>,
    /// Per stage: its shard count if keyed, `0` otherwise.
    shards: Vec<usize>,
    /// Per stage: its declaration when not keyed — stateless,
    /// accumulator or exclusive.
    state: Vec<Unkeyed>,
    /// The initial mapping: each keyed stage and each accumulator
    /// replicated over two of the three vnodes, so its envelopes split
    /// between two owners; every other stage on one.
    mapping: Mapping,
    /// Items per envelope on the threaded backend: past one, a keyed
    /// stage's envelopes span several shards and both owners.
    batch_size: usize,
    /// The threaded run's credit gate per stage boundary (`None`: no
    /// gate; the simulator ignores it).
    queue_capacity: Option<usize>,
    /// The threaded run feeds the stream in one `push_batch` rather
    /// than item by item.
    batched: bool,
}

/// A declaration a plain unkeyed closure may carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Unkeyed {
    Stateless,
    Accumulator,
    Exclusive,
}

fn sweep_case(seed: u64) -> SweepCase {
    use adapipe::gridsim::rng::Rng64;
    let mut rng = Rng64::new(seed);
    let n = 3 + rng.next_range(5);
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, inputs) in preds.iter_mut().enumerate().skip(1) {
        let wanted = if i >= 2 && rng.next_range(3) == 0 {
            2
        } else {
            1
        };
        while inputs.len() < wanted {
            let p = rng.next_range(i);
            if !inputs.contains(&p) {
                inputs.push(p);
            }
        }
    }
    // One exit: whatever nothing consumes feeds the last stage.
    for j in 0..n - 1 {
        if !preds.iter().any(|inputs| inputs.contains(&j)) {
            preds[n - 1].push(j);
        }
    }
    preds.iter_mut().for_each(|inputs| inputs.sort_unstable());

    let policies: Vec<ResiliencePolicy> = (0..n)
        .map(|i| {
            if preds[i].len() > 1 || rng.next_range(3) == 0 {
                return ResiliencePolicy::new(); // joins cannot fail
            }
            let policy = ResiliencePolicy::new().retries(rng.next_range(4) as u32);
            if rng.next_range(2) == 0 {
                policy.dead_letter()
            } else {
                policy
            }
        })
        .collect();
    // Only failures the run survives: bounded ones within the stage's
    // retry budget, permanent ones where a dead-letter channel exists.
    let fallible: Vec<usize> = (0..n)
        .filter(|&i| policies[i].max_retries > 0 || policies[i].dead_letter)
        .collect();
    let plan = (0..SWEEP_ITEMS)
        .map(|_| {
            if fallible.is_empty() || rng.next_range(3) != 0 {
                return None;
            }
            let stage = fallible[rng.next_range(fallible.len())];
            let policy = &policies[stage];
            let permanent =
                policy.dead_letter && (policy.max_retries == 0 || rng.next_range(2) == 0);
            let failures = if permanent {
                u32::MAX
            } else {
                1 + rng.next_range(policy.max_retries as usize) as u32
            };
            Some((stage, failures))
        })
        .collect();
    // Drawn after the shape, policies and failures, which so do not
    // depend on these draws.
    let shards: Vec<usize> = (0..n)
        .map(|i| {
            let plain = preds[i].len() <= 1 && policies[i].is_default();
            if plain && rng.next_range(2) == 0 {
                2 + rng.next_range(7)
            } else {
                0
            }
        })
        .collect();
    let mut placements: Vec<Placement> = shards
        .iter()
        .map(|&shards| {
            let host = rng.next_range(3);
            if shards == 0 {
                Placement::single(NodeId(host))
            } else {
                let other = (host + 1 + rng.next_range(2)) % 3;
                Placement::replicated(vec![NodeId(host), NodeId(other)])
            }
        })
        .collect();
    let batch_size = [1, 4, 16][rng.next_range(3)];
    // Drawn after everything above, which so stays what each seed drew
    // before these draws existed.
    let state: Vec<Unkeyed> = (0..n)
        .map(|i| {
            let plain = preds[i].len() <= 1 && policies[i].is_default() && shards[i] == 0;
            match rng.next_range(4) {
                0 if plain => Unkeyed::Accumulator,
                1 if plain => Unkeyed::Exclusive,
                _ => Unkeyed::Stateless,
            }
        })
        .collect();
    for (placement, declared) in placements.iter_mut().zip(&state) {
        if *declared == Unkeyed::Accumulator {
            let host = placement.hosts()[0].0;
            let other = (host + 1 + rng.next_range(2)) % 3;
            *placement = Placement::replicated(vec![NodeId(host), NodeId(other)]);
        }
    }
    let queue_capacity = [None, Some(1), Some(4), Some(64)][rng.next_range(4)];
    let batched = rng.next_range(2) == 0;
    // Drawn last, so every earlier draw stays what each seed drew before:
    // per join block, where its merge stage sits against the producers
    // feeding it — all on its vnode (the walk can pair the parts
    // inline), the first there and the rest elsewhere, or every one
    // elsewhere (the parts meet in the shared join map). Only
    // single-host stages move; keyed stages and accumulators stay
    // replicated.
    for (j, inputs) in preds.iter().enumerate() {
        if inputs.len() < 2 {
            continue;
        }
        let host = rng.next_range(3);
        let class = rng.next_range(3);
        placements[j] = Placement::single(NodeId(host));
        let single: Vec<usize> = inputs
            .iter()
            .copied()
            .filter(|&p| placements[p].is_single())
            .collect();
        for (k, p) in single.into_iter().enumerate() {
            let on = match class {
                0 => host,
                1 if k == 0 => host,
                _ => (host + 1 + rng.next_range(2)) % 3,
            };
            placements[p] = Placement::single(NodeId(on));
        }
    }
    SweepCase {
        preds,
        policies,
        plan,
        shards,
        state,
        mapping: Mapping::new(placements),
        batch_size,
        queue_capacity,
        batched,
    }
}

/// How a case's join blocks sit, counted by class: every producer on
/// the merge stage's one vnode, some of them, or none.
fn join_placements(case: &SweepCase) -> [u64; 3] {
    let mut classes = [0; 3];
    for (j, inputs) in case.preds.iter().enumerate() {
        if inputs.len() < 2 {
            continue;
        }
        let merge = case.mapping.placement(j);
        let there = inputs
            .iter()
            .filter(|&&p| case.mapping.placement(p) == merge)
            .count();
        let class = match there {
            n if n == inputs.len() => 0,
            0 => 2,
            _ => 1,
        };
        classes[class] += 1;
    }
    classes
}

fn sweep_pipeline(case: &SweepCase) -> Pipeline<Tagged, Tagged> {
    use adapipe::api::Node;
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    let name = |i: usize| format!("s{i}");
    let fold = |acc: u64, x: u64| acc.wrapping_mul(31).wrapping_add(x);
    let plan = Arc::new(case.plan.clone());
    // Presentations of each item at its failing stage so far, shared by
    // every replica of the stage.
    let presented: Arc<Mutex<HashMap<u64, u32>>> = Arc::default();
    let mut dag = Pipeline::<Tagged>::dag();
    let mut nodes: Vec<Node<Tagged>> = Vec::new();
    for (i, inputs) in case.preds.iter().enumerate() {
        let stage = i as u64;
        let node = if inputs.len() > 1 {
            let from = inputs.iter().map(|&p| nodes[p].clone()).collect();
            dag.join(name(i), from, move |parts: Vec<Tagged>| {
                let seq = parts[0].0;
                (seq, parts.iter().fold(stage, |acc, p| fold(acc, p.1)))
            })
        } else {
            let from = inputs
                .first()
                .map_or_else(|| dag.input(), |&p| nodes[p].clone());
            let declared = StageSpec::balanced(name(i), 1.0, 0);
            let declared = match case.state[i] {
                // A plain closure under a keyed declaration: items route
                // to shards by sequence number, so outputs do not depend
                // on which owner serves them, or when.
                _ if case.shards[i] > 0 => Some(declared.with_keyed_state(case.shards[i], 0)),
                Unkeyed::Accumulator => Some(declared.with_accumulator_state(0)),
                Unkeyed::Exclusive => Some(declared.with_exclusive_state(0)),
                Unkeyed::Stateless => None,
            };
            if let Some(spec) = declared {
                dag.node_with(spec, from, move |(seq, v): Tagged| (seq, fold(v, stage)))
            } else if case.policies[i].is_default() {
                dag.node(name(i), from, move |(seq, v): Tagged| (seq, fold(v, stage)))
            } else {
                let (plan, presented) = (Arc::clone(&plan), Arc::clone(&presented));
                let node = dag.try_node(name(i), from, move |(seq, v): Tagged| {
                    if let Some((at, failures)) = plan[seq as usize] {
                        if at == i {
                            let mut presented = presented.lock().unwrap();
                            let seen = presented.entry(seq).or_insert(0);
                            *seen += 1;
                            if *seen <= failures {
                                return Err(format!("item {seq} refused at s{i}"));
                            }
                        }
                    }
                    Ok((seq, fold(v, stage)))
                });
                dag.resilience(case.policies[i].clone());
                node
            }
        };
        nodes.push(node);
    }
    // The generator leaves the graph at its last stage.
    let exit = nodes.pop().expect("a generated DAG has stages");
    dag.exit(exit)
        .build()
        .expect("generated DAGs are well-formed")
}

#[test]
fn seeded_sweep_of_shapes_and_policies_keeps_both_ledgers_equal() {
    // (cases with a join, retries, dead letters, a replicated keyed
    // stage) over the whole sweep.
    let mut exercised = (0u64, 0u64, 0u64, 0u64);
    // Cases with an accumulator, with an exclusive stage, per credit
    // gate drawn, and fed in one `push_batch`.
    let (mut accumulators, mut exclusives, mut batched) = (0u64, 0u64, 0u64);
    let mut gates = [0u64; 4];
    // Join blocks fully co-located, partly, and spread.
    let mut joined = [0u64; 3];
    for seed in 0..40u64 {
        let case = sweep_case(seed);
        // Each run under the watchdog: a generated case whose items
        // park for good fails naming its seed instead of hanging.
        let run = |backend: &'static str| {
            let (pipeline, mapping) = (sweep_pipeline(&case), case.mapping.clone());
            let (batch_size, queue_capacity) = (case.batch_size, case.queue_capacity);
            let batched = case.batched && backend == "threads";
            let run = watchdog(move || {
                let grid = scenario_grid();
                let backend = match backend {
                    "sim" => Backend::Sim(&grid),
                    _ => Backend::Threads(scenario_vnodes()),
                };
                let cfg = RunConfig {
                    items: SWEEP_ITEMS,
                    batch_size,
                    queue_capacity,
                    initial_mapping: Some(mapping),
                    ..RunConfig::default()
                };
                let mut session = pipeline.spawn(backend, cfg).expect("spawn");
                if batched {
                    session
                        .push_batch((0..SWEEP_ITEMS).map(|seq| (seq, seq)))
                        .unwrap();
                } else {
                    for seq in 0..SWEEP_ITEMS {
                        session.push((seq, seq)).unwrap();
                    }
                }
                let mut handle = session.drain();
                handle.outputs.sort_unstable();
                handle.report.dead_letter_log.sort_by_key(|d| d.seq);
                handle
            });
            run.unwrap_or_else(|why| panic!("seed {seed} on {backend}: {why}"))
        };
        let sim = run("sim");
        let threaded = run("threads");

        // What the plan says must happen, whoever executes it.
        let mut retries = 0u64;
        let mut dead = Vec::new();
        for (seq, failing) in case.plan.iter().enumerate() {
            match *failing {
                Some((stage, u32::MAX)) => {
                    retries += u64::from(case.policies[stage].max_retries);
                    dead.push((seq as u64, stage, case.policies[stage].max_retries + 1));
                }
                Some((_, failures)) => retries += u64::from(failures),
                None => {}
            }
        }
        let shape = format!(
            "seed {seed}, preds {:?}, shards {:?}, state {:?}, mapping {}, batch {}, \
             queue {:?}, batched {}",
            case.preds,
            case.shards,
            case.state,
            case.mapping,
            case.batch_size,
            case.queue_capacity,
            case.batched
        );
        for (tag, handle) in [("sim", &sim), ("threads", &threaded)] {
            let report = &handle.report;
            assert!(handle.error.is_none(), "{shape}/{tag}: {:?}", handle.error);
            assert_eq!(
                report.completed + report.dead_letters,
                SWEEP_ITEMS,
                "{shape}/{tag}: every pushed item is accounted for"
            );
            assert_eq!(
                handle.outputs.len() as u64,
                report.completed,
                "{shape}/{tag}"
            );
            assert_eq!(report.retries, retries, "{shape}/{tag}: retries");
            let log: Vec<(u64, usize, u32)> = report
                .dead_letter_log
                .iter()
                .map(|d| (d.seq, d.stage, d.attempts))
                .collect();
            assert_eq!(log, dead, "{shape}/{tag}: dead-letter log");
        }
        assert_eq!(sim.outputs, threaded.outputs, "{shape}: outputs");
        assert_eq!(
            sim.report.dead_letter_log, threaded.report.dead_letter_log,
            "{shape}: dead-letter logs, reasons included"
        );
        exercised.0 += u64::from(case.preds.iter().any(|inputs| inputs.len() > 1));
        exercised.1 += retries;
        exercised.2 += dead.len() as u64;
        exercised.3 += u64::from(case.shards.iter().any(|&shards| shards > 0));
        accumulators += u64::from(case.state.contains(&Unkeyed::Accumulator));
        exclusives += u64::from(case.state.contains(&Unkeyed::Exclusive));
        let gate = [None, Some(1), Some(4), Some(64)]
            .iter()
            .position(|&q| q == case.queue_capacity)
            .expect("a drawn gate");
        gates[gate] += 1;
        batched += u64::from(case.batched);
        for (total, blocks) in joined.iter_mut().zip(join_placements(&case)) {
            *total += blocks;
        }
    }
    let (joins, retries, dead, keyed) = exercised;
    assert!(
        joins >= 10 && retries >= 100 && dead >= 20 && keyed >= 10,
        "the generator went soft: {joins} joined shapes, {retries} retries, \
         {dead} dead letters, {keyed} with a replicated keyed stage"
    );
    assert!(
        accumulators >= 6
            && exclusives >= 6
            && gates.iter().all(|&g| g >= 5)
            && (10..=30).contains(&batched),
        "the generator went soft: {accumulators} with an accumulator, \
         {exclusives} with an exclusive stage, {gates:?} per credit gate \
         (none, 1, 4, 64), {batched} of 40 fed in one push_batch"
    );
    assert!(
        joined.iter().all(|&blocks| blocks >= 5),
        "the generator went soft: {joined:?} join blocks fully co-located, \
         partly, spread"
    );
}

// --- 6. every plain-closure constructor honours every declaration -------

/// Stream length of one constructor × declaration run.
const DECLARED_ITEMS: u64 = 100;
/// How long one run may take before it counts as stalled: a stage
/// instance no worker can ever acquire parks its items for good, and
/// the watchdog fails the test instead of wedging the suite.
const STALL: Duration = Duration::from_secs(30);

const CONSTRUCTORS: [&str; 8] = [
    "stage_with",
    "Branch::stage_with",
    "node_with",
    "merge_with",
    "join_with",
    "try_stage_with",
    "try_node_with",
    "stateful_stage",
];

/// The five state declarations, on the stage named "subject".
fn declarations() -> [StageSpec; 5] {
    let spec = || StageSpec::balanced("subject", 1.0, 8);
    [
        spec(),
        spec().with_keyed_state(4, 64),
        spec().with_accumulator_state(64),
        spec().with_exclusive_state(64),
        spec().with_state(64),
    ]
}

/// A pipeline computing `x ↦ 3x + 1` in which `ctor` builds the stage
/// "subject" from a plain closure under `spec`.
fn constructed(ctor: &str, spec: StageSpec) -> Pipeline<u64, u64> {
    let triple = |x: u64| 3 * x;
    let one = |_: u64| 1u64;
    let sum = |outs: Vec<u64>| outs[0] + outs[1];
    let built = match ctor {
        "stage_with" => Pipeline::<u64>::builder()
            .stage_with(spec, |x: u64| 3 * x + 1)
            .build(),
        "Branch::stage_with" => Pipeline::<u64>::builder()
            .parallel(vec![
                Branch::new().stage_with(spec, triple),
                Branch::new().stage("one", one),
            ])
            .merge("sum", sum)
            .build(),
        "node_with" => {
            let mut dag = Pipeline::<u64>::dag();
            let tripled = dag.node("triple", dag.input(), triple);
            let subject = dag.node_with(spec, tripled, |x: u64| x + 1);
            dag.exit(subject).build()
        }
        "merge_with" => Pipeline::<u64>::builder()
            .parallel(vec![
                Branch::new().stage("triple", triple),
                Branch::new().stage("one", one),
            ])
            .merge_with(spec, sum)
            .build(),
        "join_with" => {
            let mut dag = Pipeline::<u64>::dag();
            let input = dag.input();
            let tripled = dag.node("triple", input.clone(), triple);
            let ones = dag.node("one", input, one);
            let subject = dag.join_with(spec, vec![tripled, ones], sum);
            dag.exit(subject).build()
        }
        "try_stage_with" => Pipeline::<u64>::builder()
            .try_stage_with(spec, |x: u64| Ok(3 * x + 1))
            .build(),
        "try_node_with" => {
            let mut dag = Pipeline::<u64>::dag();
            let tripled = dag.node("triple", dag.input(), triple);
            let subject = dag.try_node_with(spec, tripled, |x: u64| Ok(x + 1));
            dag.exit(subject).build()
        }
        "stateful_stage" => Pipeline::<u64>::builder()
            .stateful_stage(spec, |x: u64| 3 * x + 1)
            .build(),
        other => unreachable!("unknown constructor {other}"),
    };
    built.unwrap_or_else(|e| panic!("{ctor} builds: {e}"))
}

/// Runs `body` on a thread of its own: its result, or why there is
/// none — a panic, or no result within [`STALL`] (the stalled thread
/// is left detached: nothing can wake it).
fn watchdog<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> Result<T, String> {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    let (tx, rx) = channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(STALL) {
        Ok(out) => {
            runner.join().expect("the runner returned after sending");
            Ok(out)
        }
        Err(RecvTimeoutError::Timeout) => Err(format!("stalled: no result in {STALL:?}")),
        Err(RecvTimeoutError::Disconnected) => {
            let panic = runner.join().expect_err("the runner sent nothing");
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            Err(format!("panicked: {msg}"))
        }
    }
}

#[test]
fn every_plain_closure_constructor_honours_every_declaration_on_both_backends() {
    let expected: Vec<u64> = (0..DECLARED_ITEMS).map(|x| 3 * x + 1).collect();
    let mut failures = Vec::new();
    for ctor in CONSTRUCTORS {
        for spec in declarations() {
            let label = spec.state.label();
            let mut outputs = Vec::new();
            for backend in ["sim", "threads"] {
                let spec = spec.clone();
                let run = watchdog(move || {
                    let grid = scenario_grid();
                    let backend = match backend {
                        "sim" => Backend::Sim(&grid),
                        _ => Backend::Threads(scenario_vnodes()),
                    };
                    let cfg = RunConfig {
                        items: DECLARED_ITEMS,
                        ..RunConfig::default()
                    };
                    let mut session = constructed(ctor, spec).spawn(backend, cfg).expect("spawn");
                    for i in 0..DECLARED_ITEMS {
                        session.push(i).unwrap();
                    }
                    let handle = session.drain();
                    (handle.report.completed, handle.outputs, handle.error)
                });
                match run {
                    Ok((completed, got, None)) if completed == DECLARED_ITEMS => outputs.push(got),
                    Ok((completed, _, error)) => failures.push(format!(
                        "{ctor} × {label} on {backend}: {completed} completed, {error:?}"
                    )),
                    Err(why) => failures.push(format!("{ctor} × {label} on {backend}: {why}")),
                }
            }
            if outputs.len() == 2 && (outputs[0] != expected || outputs[1] != expected) {
                failures.push(format!(
                    "{ctor} × {label}: outputs are not 3x + 1 on both backends"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
