//! Stage fusion end to end: what runs inline is what the model prices,
//! outputs are item-identical to a spread run whatever the shape, a
//! stateful or resilient successor keeps its envelopes, re-maps fuse and
//! un-fuse a running pipeline, and the fast path's stride rule.

use super::{next_stride, MAX_STAMP_STRIDE};
use crate::exec::spawn;
use crate::exec::tests::{every, free_nodes, mapped, multicore, n, spawn_static, spin_stage};
use crate::vnode::VNodeSpec;
use adapipe_core::pipeline::{DagBuilder, Node, Pipeline, PipelineBuilder};
use adapipe_core::spec::{ResiliencePolicy, StageSpec};
use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::net::{LinkSpec, Topology};
use adapipe_gridsim::node::NodeId;
use adapipe_gridsim::time::SimTime;
use adapipe_mapper::mapping::Mapping;
use adapipe_mapper::model::{evaluate, fused_stages};
use adapipe_runtime::session::{LiveSession, RunConfig, Session};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// A `u64` DAG over `edges`, declared on the typed builder in stage-id
/// order (each edge points from a lower id to a higher one): a
/// single-input stage `s` maps `x` to `3x + s + 1`, a joining stage
/// folds its parts in slot order (so a swapped slot shows), and every
/// extra consumer of a producer takes its own clone of the producer's
/// handle. `declare` may change any stage's declaration.
fn u64_dag(
    stages: usize,
    edges: &[(usize, usize)],
    declare: impl Fn(usize, StageSpec) -> StageSpec,
) -> Pipeline<u64, u64> {
    // Producer `stages` stands for the pipeline input.
    let mut preds = vec![Vec::new(); stages];
    edges.iter().for_each(|&(from, to)| preds[to].push(from));
    preds
        .iter_mut()
        .filter(|p| p.is_empty())
        .for_each(|p| p.push(stages));
    let mut uses = vec![0; stages + 1];
    preds.iter().flatten().for_each(|&p| uses[p] += 1);
    let mut dag = DagBuilder::<u64>::default();
    let mut nodes: Vec<Option<Node<u64>>> = (0..stages).map(|_| None).collect();
    nodes.push(Some(dag.input()));
    let mut exit = None;
    for (s, preds) in preds.iter().enumerate() {
        let spec = declare(s, StageSpec::balanced(format!("s{s}"), 0.001, 8));
        let mut from: Vec<Node<u64>> = (preds.iter())
            .map(|&p| {
                uses[p] -= 1;
                let node = if uses[p] == 0 {
                    nodes[p].take()
                } else {
                    nodes[p].clone()
                };
                node.expect("a producer is declared before its consumers")
            })
            .collect();
        let node = if from.len() > 1 {
            dag.join_with(spec, from, |parts: Vec<u64>| fold_parts(&parts))
        } else {
            dag.node_with(spec, from.remove(0), move |x: u64| step(s, x))
        };
        if uses[s] == 0 {
            exit = Some(node);
        } else {
            nodes[s] = Some(node);
        }
    }
    dag.finish(exit.expect("a sink")).expect("a valid DAG")
}

fn step(s: usize, x: u64) -> u64 {
    x.wrapping_mul(3).wrapping_add(s as u64 + 1)
}

fn fold_parts(parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(7, |acc, p| acc.wrapping_mul(1_000_003) ^ p)
}

/// What [`u64_dag`] makes of `items` inputs, computed stage by
/// stage (the exit is the last stage).
fn reference(stages: usize, edges: &[(usize, usize)], items: u64) -> Vec<u64> {
    fn value(s: usize, edges: &[(usize, usize)], x: u64) -> u64 {
        let preds: Vec<usize> = edges.iter().filter(|e| e.1 == s).map(|e| e.0).collect();
        match preds.as_slice() {
            [] => step(s, x),
            [p] => step(s, value(*p, edges, x)),
            _ => fold_parts(
                &preds
                    .iter()
                    .map(|&p| value(p, edges, x))
                    .collect::<Vec<_>>(),
            ),
        }
    }
    (0..items).map(|x| value(stages - 1, edges, x)).collect()
}

/// One stage per vnode index in `at`.
fn placed(at: &[usize]) -> Mapping {
    Mapping::from_assignment(&at.iter().map(|&v| NodeId(v)).collect::<Vec<_>>())
}

/// What a run of `pipeline` on `vnodes` under `mapping`, in 64-item
/// envelopes, showed: outputs, inline stage runs, and join inputs
/// that reached the shared join map.
struct Ran {
    outputs: Vec<u64>,
    inline: u64,
    deposits: u64,
}

fn run_dag(pipeline: Pipeline<u64, u64>, vnodes: usize, mapping: Mapping, items: u64) -> Ran {
    let cfg = RunConfig {
        batch_size: 64,
        initial_mapping: Some(mapping),
        ..RunConfig::default()
    };
    let vnodes = (0..vnodes)
        .map(|i| VNodeSpec::free(format!("v{i}")))
        .collect();
    let mut session = spawn(pipeline, vnodes, &Session::default(), &cfg);
    session.push_batch(&mut (0..items)).unwrap();
    session.close();
    let outputs: Vec<u64> = session.by_ref().collect();
    let inline = session.fused_hops();
    let deposits = session.shared.deposits.load(Ordering::Relaxed);
    let outcome = session.drain();
    assert_eq!(outcome.report.completed, items);
    assert!(!outcome.report.truncated);
    Ran {
        outputs,
        inline,
        deposits,
    }
}

/// `0 → {1, 2} → 3 → 4`: a fan-out, a join and a tail.
const DIAMOND: [(usize, usize); 5] = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)];

/// The model prices fusion exactly as the engine fuses: a 2-stage
/// chain, co-located and unreplicated, with a 1 MB boundary, the
/// successor under each of the five declarations — the prediction
/// carries the fused-edge discount iff the worker's [`super::FusionPlan`]
/// fuses the edge — and three diamonds, where the stages the model
/// runs inline ([`fused_stages`]) are the ones the engine does.
#[test]
fn model_discounts_exactly_the_edges_the_engine_fuses() {
    let declarations: [fn(StageSpec) -> StageSpec; 5] = [
        |s| s,
        |s| s.with_keyed_state(4, 64),
        |s| s.with_accumulator_state(64),
        |s| s.with_exclusive_state(64),
        |s| s.with_state(64),
    ];
    let mapping = Mapping::all_on(NodeId(0), 2);
    let topology = Topology::uniform(1, LinkSpec::lan());
    let items = 200u64;
    let mut disagree = Vec::new();
    for declare in declarations {
        let pipeline = PipelineBuilder::<u64>::new()
            .stage(StageSpec::balanced("a", 1.0, 1_000_000), |x: u64| x + 1)
            .stage(declare(StageSpec::balanced("b", 1.0, 8)), |x: u64| x * 2)
            .build();
        let spec = pipeline.spec();
        let label = spec.stages[1].state.label();
        let mut profile = spec.profile();
        profile.fuses_colocated = true;
        let fused = evaluate(&profile, &mapping, &[1.0], &topology).latency;
        profile.fuses_colocated = false;
        let routed = evaluate(&profile, &mapping, &[1.0], &topology).latency;
        let discounted = fused < routed;

        let cfg = RunConfig {
            initial_mapping: Some(mapping.clone()),
            ..RunConfig::default()
        };
        let vnodes = vec![VNodeSpec::free("v0")];
        let mut session = spawn(pipeline, vnodes, &Session::default(), &cfg);
        for i in 0..items {
            session.push(i).unwrap();
        }
        session.close();
        let got: Vec<u64> = session.by_ref().collect();
        assert_eq!(got, (0..items).map(|x| (x + 1) * 2).collect::<Vec<_>>());
        let fuses = session.fused_hops() > 0;
        session.drain();
        println!(
            "{label:>11}: predicted {fused:.6} s (routed {routed:.6} s), \
             model discounts {discounted}, engine fuses {fuses}"
        );
        if discounted != fuses {
            disagree.push(label);
        }
    }
    assert!(
        disagree.is_empty(),
        "the model's fused-edge discount disagrees with FusionPlan for {disagree:?} successors"
    );

    // Diamonds: fully co-located, one branch on another vnode, the
    // fan source on another vnode. The engine runs inline exactly
    // the stages the model discounts, once per item.
    for at in [[0, 0, 0, 0, 0], [0, 0, 1, 0, 0], [1, 0, 0, 0, 0]] {
        let pipeline = u64_dag(5, &DIAMOND, |_, s| s);
        let mut profile = pipeline.spec().profile();
        profile.fuses_colocated = true;
        let discounted = fused_stages(&profile, &placed(&at));
        let expect = discounted.iter().filter(|&&d| d).count() as u64 * items;
        let ran = run_dag(pipeline, 2, placed(&at), items);
        assert_eq!(ran.outputs, reference(5, &DIAMOND, items));
        assert_eq!(
            ran.inline, expect,
            "{at:?}: the model discounts {discounted:?}"
        );
    }
}

#[test]
fn a_colocated_diamond_runs_inline_item_identical_to_spread() {
    // On one vnode every stage downstream of the entry runs inline
    // in the entry envelope's walk: the fan-out's copies, the join
    // (paired in the walk, never in the shared map) and the tail.
    let items = 600;
    let expect = reference(5, &DIAMOND, items);
    let co = run_dag(u64_dag(5, &DIAMOND, |_, s| s), 1, placed(&[0; 5]), items);
    assert_eq!(co.outputs, expect);
    assert_eq!(co.inline, 4 * items, "stages 1-4 run inline");
    assert_eq!(co.deposits, 0, "no join input reaches the shared map");
    // Spread over five vnodes nothing runs inline, and every join
    // input pairs in the shared map.
    let spread = placed(&[0, 1, 2, 3, 4]);
    let sp = run_dag(u64_dag(5, &DIAMOND, |_, s| s), 5, spread, items);
    assert_eq!(sp.outputs, expect);
    assert_eq!((sp.inline, sp.deposits), (0, 2 * items));
}

#[test]
fn a_partly_colocated_diamond_pairs_every_item_exactly_once() {
    let items = 600;
    let expect = reference(5, &DIAMOND, items);
    // One branch on v1: the other still runs inline in the entry's
    // walk, but its part cannot pair there. It goes to the shared
    // map, where the remote branch's part completes the set, and
    // the join takes its input by envelope (the tail inline after).
    let branch_away = placed(&[0, 0, 1, 0, 0]);
    let ran = run_dag(u64_dag(5, &DIAMOND, |_, s| s), 2, branch_away, items);
    assert_eq!(ran.outputs, expect);
    assert_eq!((ran.inline, ran.deposits), (2 * items, 2 * items));
    // The fan source on v1: each branch is an envelope's entry, both
    // parts pair in the shared map, and only the tail runs inline.
    let source_away = placed(&[1, 0, 0, 0, 0]);
    let ran = run_dag(u64_dag(5, &DIAMOND, |_, s| s), 2, source_away, items);
    assert_eq!(ran.outputs, expect);
    assert_eq!((ran.inline, ran.deposits), (items, 2 * items));
}

#[test]
fn a_colocated_dag_with_nested_joins_runs_inline_item_identical() {
    // 0 → {1, 2, 3}; {1, 2} → 4; {3, 4} → 5: a join feeding a join.
    let edges = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5), (4, 5)];
    let items = 600;
    let expect = reference(6, &edges, items);
    let co = run_dag(u64_dag(6, &edges, |_, s| s), 1, placed(&[0; 6]), items);
    assert_eq!(co.outputs, expect);
    assert_eq!((co.inline, co.deposits), (5 * items, 0));
    let spread = placed(&[0, 1, 0, 1, 0, 1]);
    let sp = run_dag(u64_dag(6, &edges, |_, s| s), 2, spread, items);
    assert_eq!(sp.outputs, expect);
}

#[test]
fn a_resilient_branch_refuses_to_run_inline() {
    // Branch 2 keeps its per-envelope retry accounting: it takes its
    // input by envelope, so its part and its sibling's meet in the
    // shared map. Branch 1 and the tail still run inline.
    let resilient = |s: usize, spec: StageSpec| {
        if s == 2 {
            spec.with_resilience(ResiliencePolicy::new().retries(2))
        } else {
            spec
        }
    };
    let items = 600;
    let ran = run_dag(u64_dag(5, &DIAMOND, resilient), 1, placed(&[0; 5]), items);
    assert_eq!(ran.outputs, reference(5, &DIAMOND, items));
    assert_eq!((ran.inline, ran.deposits), (2 * items, 2 * items));
}

#[test]
fn a_remap_separating_a_branch_unfuses_the_diamond_mid_stream() {
    // The diamond starts co-located. Half-way through, a re-map
    // moves branch 2 to v1: the epoch bump un-fuses the block and
    // the second half pairs in the shared map. Every item comes out
    // exactly once, in order.
    let half = 300;
    let cfg = RunConfig {
        batch_size: 64,
        initial_mapping: Some(placed(&[0; 5])),
        ..RunConfig::default()
    };
    let vnodes = vec![VNodeSpec::free("v0"), VNodeSpec::free("v1")];
    let pipeline = u64_dag(5, &DIAMOND, |_, s| s);
    let mut session = spawn(pipeline, vnodes, &Session::default(), &cfg);
    session.push_batch(&mut (0..half)).unwrap();
    let mut outputs: Vec<u64> = session.by_ref().take(half as usize).collect();
    assert_eq!(session.fused_hops(), 4 * half);
    let split = placed(&[0, 0, 1, 0, 0]);
    session.shared.routing.write().unwrap().install(split);
    session.push_batch(&mut (half..2 * half)).unwrap();
    session.close();
    outputs.extend(session.by_ref());
    assert_eq!(outputs, reference(5, &DIAMOND, 2 * half));
    assert_eq!(session.fused_hops(), 4 * half + 2 * half);
    assert_eq!(session.shared.deposits.load(Ordering::Relaxed), 2 * half);
    let outcome = session.drain();
    assert_eq!(outcome.report.completed, 2 * half);
}

#[test]
fn a_clipped_window_grows_the_stride_at_its_pace_and_never_shrinks_it() {
    let us = Duration::from_micros;
    // Full windows: fast doubles, slow halves, in between keeps.
    assert_eq!(next_stride(8, 8, us(150)), 16);
    assert_eq!(next_stride(8, 8, us(1500)), 4);
    assert_eq!(next_stride(8, 8, us(500)), 8);
    // One item of a stride-8 window: 10 µs paces a full window at
    // 80 µs and grows it; 30 µs paces it at 240 µs and keeps it.
    assert_eq!(next_stride(8, 1, us(10)), 16);
    assert_eq!(next_stride(8, 1, us(30)), 8);
    // However slow, a clipped window does not shrink the stride.
    assert_eq!(next_stride(8, 1, us(5000)), 8);
    // The bounds hold.
    assert_eq!(next_stride(MAX_STAMP_STRIDE, 1, us(1)), MAX_STAMP_STRIDE);
    assert_eq!(next_stride(1, 1, us(5000)), 1);
}

#[test]
fn fused_colocated_chain_is_item_identical_to_spread() {
    use adapipe_runtime::session::ResiliencePolicy;
    // Three cheap stateless stages. Coalesced on one vnode the
    // fusion plan collapses both boundaries into direct calls
    // (counted per hop); spread over three vnodes nothing may
    // fuse. Outputs must be bit-identical either way.
    let build = || {
        PipelineBuilder::<u64>::new()
            .stage(StageSpec::balanced("a", 0.001, 8), |x: u64| x + 1)
            .stage(StageSpec::balanced("b", 0.001, 8), |x: u64| x * 3)
            .stage(StageSpec::balanced("c", 0.001, 8), |x: u64| x - 2)
            .build()
    };
    let expect: Vec<u64> = (0..500u64).map(|x| (x + 1) * 3 - 2).collect();

    let co_cfg = mapped(Mapping::all_on(n(0), 3));
    let mut session = spawn_static(build(), free_nodes(1), &co_cfg);
    for i in 0..500u64 {
        session.push(i).unwrap();
    }
    session.close();
    let got: Vec<u64> = session.by_ref().collect();
    assert_eq!(got, expect);
    assert!(
        session.fused_hops() > 0,
        "co-located stateless chain must fuse"
    );
    let outcome = session.drain();
    assert_eq!(outcome.report.completed, 500);
    assert!(!outcome.report.truncated);

    let sp_cfg = mapped(Mapping::from_assignment(&[n(0), n(1), n(2)]));
    let mut session = spawn_static(build(), free_nodes(3), &sp_cfg);
    for i in 0..500u64 {
        session.push(i).unwrap();
    }
    session.close();
    let got: Vec<u64> = session.by_ref().collect();
    assert_eq!(got, expect);
    assert_eq!(
        session.fused_hops(),
        0,
        "cross-node boundaries must not fuse"
    );
    let outcome = session.drain();
    assert_eq!(outcome.report.completed, 500);

    // A resilient *entry* stage still fuses into its stateless
    // successor (the slow path walks the chain per item), so the
    // retry bookkeeping on the entry hop costs nothing downstream.
    let pipeline = PipelineBuilder::<u64>::new()
        .stage(
            StageSpec::balanced("a", 0.001, 8).with_resilience(ResiliencePolicy::new().retries(2)),
            |x: u64| x + 1,
        )
        .stage(StageSpec::balanced("b", 0.001, 8), |x: u64| x * 3)
        .build();
    let cfg = mapped(Mapping::all_on(n(0), 2));
    let mut session = spawn_static(pipeline, free_nodes(1), &cfg);
    for i in 0..100u64 {
        session.push(i).unwrap();
    }
    session.close();
    let got: Vec<u64> = session.by_ref().collect();
    assert_eq!(got, (0..100u64).map(|x| (x + 1) * 3).collect::<Vec<_>>());
    assert!(
        session.fused_hops() > 0,
        "resilient entry must not block fusing its successor"
    );
    session.drain();
}

#[test]
fn stateful_or_resilient_successors_refuse_fusion() {
    use adapipe_runtime::session::ResiliencePolicy;
    // a → sum, co-located, but sum is stateful: fusing would route
    // items around the state-migration bookkeeping, so the plan
    // must refuse.
    let pipeline = PipelineBuilder::<u64>::new()
        .stage(StageSpec::balanced("a", 0.001, 8), |x: u64| x + 1)
        .then(|graph, tail| {
            let mut acc = 0u64;
            let sum = StageSpec::balanced("sum", 0.001, 8).with_state(8);
            graph.stateful_node_with(sum, tail, move |x: u64| {
                acc += x;
                acc
            })
        })
        .build();
    let cfg = mapped(Mapping::all_on(n(0), 2));
    let mut session = spawn_static(pipeline, free_nodes(1), &cfg);
    for i in 0..100u64 {
        session.push(i).unwrap();
    }
    session.close();
    let got: Vec<u64> = session.by_ref().collect();
    let max = got.iter().max().copied().unwrap();
    assert_eq!(max, (1..=100u64).sum::<u64>(), "sum lost or doubled");
    assert_eq!(session.fused_hops(), 0, "stateful successor fused");
    session.drain();

    // Same refusal for a resilient successor: its retry/dead-letter
    // accounting is per-envelope and must keep receiving envelopes.
    let pipeline = PipelineBuilder::<u64>::new()
        .stage(StageSpec::balanced("a", 0.001, 8), |x: u64| x + 1)
        .stage(
            StageSpec::balanced("b", 0.001, 8).with_resilience(ResiliencePolicy::new().retries(2)),
            |x: u64| x * 2,
        )
        .build();
    let cfg = mapped(Mapping::all_on(n(0), 2));
    let mut session = spawn_static(pipeline, free_nodes(1), &cfg);
    for i in 0..100u64 {
        session.push(i).unwrap();
    }
    session.close();
    let got: Vec<u64> = session.by_ref().collect();
    assert_eq!(got, (0..100u64).map(|x| (x + 1) * 2).collect::<Vec<_>>());
    assert_eq!(session.fused_hops(), 0, "resilient successor fused");
    session.drain();
}

#[test]
fn forced_remap_fuses_newly_colocated_stages() {
    // Stages start spread (nothing fuses); v1 crashes mid-run, the
    // forced re-map lands both stages on v0, and the refreshed plan
    // starts fusing — while replay keeps the stream exactly-once.
    let (s0, f0) = spin_stage("a", 2);
    let (s1, f1) = spin_stage("b", 2);
    let pipeline = PipelineBuilder::<u64>::new()
        .stage(s0, f0)
        .stage(s1, f1)
        .build();
    let cfg = RunConfig {
        initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1)])),
        faults: FaultPlan::new().crash(n(1), SimTime::from_secs_f64(0.15)),
        items: 100,
        ..RunConfig::default()
    };
    let mut session = spawn(pipeline, free_nodes(2), &every(100), &cfg);
    for i in 0..100u64 {
        session.push(i).unwrap();
    }
    session.close();
    let got: Vec<u64> = session.by_ref().collect();
    assert_eq!(got, (2..=101).collect::<Vec<_>>());
    assert!(
        session.fused_hops() > 0,
        "post-crash co-location must start fusing"
    );
    let outcome = session.drain();
    assert_eq!(outcome.report.completed, 100);
    assert!(!outcome.report.final_mapping.nodes_used().contains(&n(1)));
}

#[test]
fn planner_unfuses_when_spreading_wins() {
    // Two equal spin stages start coalesced (fused); the periodic
    // controller finds that spreading doubles predicted throughput
    // — the fusion latency discount must not override the
    // bottleneck term — re-maps, and the plan un-fuses. Outputs
    // stay exact through the transition.
    let (s0, f0) = spin_stage("a", 3);
    let (s1, f1) = spin_stage("b", 3);
    let pipeline = PipelineBuilder::<u64>::new()
        .stage(s0, f0)
        .stage(s1, f1)
        .build();
    let cfg = RunConfig {
        initial_mapping: Some(Mapping::all_on(n(0), 2)),
        items: 150,
        ..RunConfig::default()
    };
    let mut session = spawn(pipeline, free_nodes(2), &every(100), &cfg);
    for i in 0..150u64 {
        session.push(i).unwrap();
    }
    session.close();
    let got: Vec<u64> = session.by_ref().collect();
    assert_eq!(got, (2..=151).collect::<Vec<_>>());
    assert!(
        session.fused_hops() > 0,
        "coalesced start must fuse until the re-map"
    );
    let outcome = session.drain();
    assert_eq!(outcome.report.completed, 150);
    assert!(
        outcome
            .report
            .adaptations
            .iter()
            .any(|e| e.to.nodes_used().len() == 2),
        "controller must commit a re-map to the spread mapping"
    );
    // On a loaded host with fewer cores than threads the controller
    // may then legitimately re-coalesce; `mapper`'s
    // `planner_spreads_equal_stages_despite_the_fusion_discount`
    // pins the planning decision itself deterministically.
    if multicore(3) {
        assert_eq!(
            outcome.report.final_mapping.nodes_used().len(),
            2,
            "final mapping must be spread"
        );
    }
}
