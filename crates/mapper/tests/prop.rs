//! Property-style tests for the planner's model and optimisers.
//!
//! The workspace builds offline, so instead of a property-testing
//! framework these sweep each property over a deterministic fan of
//! seeded instances. Failures print the offending case, which
//! reproduces exactly.

use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::grid::testbed_hetero8;
use adapipe_gridsim::net::{LinkSpec, Topology};
use adapipe_gridsim::node::NodeId;
use adapipe_gridsim::rng::Rng64;
use adapipe_gridsim::time::{SimDuration, SimTime};
use adapipe_mapper::prelude::*;
use adapipe_mapper::search::EXHAUSTIVE_CAP;
use adapipe_state::StateAccess;

fn fast_net(np: usize) -> Topology {
    Topology::uniform(np, LinkSpec::new(SimDuration::from_nanos(1), 1e12))
}

/// A seeded (stage work, node rates, assignment) instance.
fn instance(rng: &mut Rng64) -> (Vec<f64>, Vec<f64>, Vec<usize>) {
    let ns = 1 + rng.next_range(5);
    let np = 1 + rng.next_range(5);
    let work = (0..ns).map(|_| 0.1 + 9.9 * rng.next_unit()).collect();
    let rates = (0..np).map(|_| 0.1 + 3.9 * rng.next_unit()).collect();
    let assignment = (0..ns).map(|_| rng.next_range(np)).collect();
    (work, rates, assignment)
}

fn to_mapping(assignment: &[usize]) -> Mapping {
    Mapping::from_assignment(&assignment.iter().map(|&i| NodeId(i)).collect::<Vec<_>>())
}

const CASES: u64 = 48;

/// Raising any node's rate never lowers predicted throughput.
#[test]
fn model_is_monotone_in_rates() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x3A7E + case);
        let (work, mut rates, assignment) = instance(&mut rng);
        let boost = 1.01 + 2.99 * rng.next_unit();
        let profile = PipelineProfile::uniform(work, 0);
        let mapping = to_mapping(&assignment);
        let topo = fast_net(rates.len());
        let before = evaluate(&profile, &mapping, &rates, &topo);
        let idx = rng.next_range(rates.len());
        rates[idx] *= boost;
        let after = evaluate(&profile, &mapping, &rates, &topo);
        assert!(
            after.throughput >= before.throughput - 1e-12,
            "case {case}: boosting node {idx} lowered throughput: {} -> {}",
            before.throughput,
            after.throughput
        );
    }
}

/// With free communication and *equal-rate* nodes, replicating a stage
/// onto an unused node never lowers predicted throughput.
///
/// (The equal-rate restriction is essential: items are dealt
/// round-robin, so a much slower replica receives an equal share it
/// cannot sustain and becomes the new bottleneck — a real property of
/// the pattern that the greedy replication pass must, and does, account
/// for via the model.)
#[test]
fn replication_never_hurts_on_equal_nodes() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x4E61 + case);
        let (work, rates, assignment) = instance(&mut rng);
        let rate = 0.1 + 3.9 * rng.next_unit();
        let np = rates.len() + 1; // ensure at least one unused node exists
        let rates = vec![rate; np];
        let profile = PipelineProfile::uniform(work, 0);
        let base = to_mapping(&assignment);
        let topo = fast_net(np);
        let before = evaluate(&profile, &base, &rates, &topo);
        let stage = rng.next_range(base.len());
        // A node hosting nothing at all.
        let used = base.nodes_used();
        let Some(candidate) = (0..np).map(NodeId).find(|n| !used.contains(n)) else {
            continue;
        };
        let mut widened = base.clone();
        widened.placement_mut(stage).add_host(candidate);
        let after = evaluate(&profile, &widened, &rates, &topo);
        assert!(
            after.throughput >= before.throughput - 1e-9,
            "case {case}: replication hurt: {} -> {} ({base} -> {widened})",
            before.throughput,
            after.throughput
        );
    }
}

/// The greedy replication pass itself never returns something worse
/// than its input, even on wildly heterogeneous nodes.
#[test]
fn replication_pass_never_regresses() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x5EED + case);
        let (work, rates, assignment) = instance(&mut rng);
        let profile = PipelineProfile::uniform(work, 1000);
        let base = to_mapping(&assignment);
        let topo = Topology::uniform(rates.len(), LinkSpec::lan());
        let before = evaluate(&profile, &base, &rates, &topo);
        let mut widened = base;
        let after = improve(
            &mut Evaluator::new(&profile, &rates, &topo),
            &mut widened,
            4,
        );
        assert!(after.throughput >= before.throughput - 1e-12, "case {case}");
    }
}

/// Exhaustive search really is optimal: no random mapping beats it.
#[test]
fn exhaustive_dominates_random_mappings() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x6001 + case);
        let (work, rates, assignment) = instance(&mut rng);
        let profile = PipelineProfile::uniform(work, 1000);
        let topo = Topology::uniform(rates.len(), LinkSpec::lan());
        let best = exhaustive_best(&profile, &rates, &topo, 100_000);
        let random = to_mapping(&assignment);
        let rp = evaluate(&profile, &random, &rates, &topo);
        assert!(
            best.prediction.throughput >= rp.throughput - 1e-12,
            "case {case}: random {random} beat exhaustive: {} > {}",
            rp.throughput,
            best.prediction.throughput
        );
    }
}

/// The contiguous DP dominates random contiguous splits when
/// communication is free (identical objectives).
#[test]
fn dp_dominates_random_contiguous_splits() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x7D0 + case);
        let ns = 2 + rng.next_range(6);
        let k = (1 + rng.next_range(3)).min(ns);
        let work: Vec<f64> = (0..ns).map(|_| 0.5 + 4.0 * rng.next_unit()).collect();
        let profile = PipelineProfile::uniform(work, 0);
        let rates: Vec<f64> = (0..k).map(|_| 0.5 + 2.5 * rng.next_unit()).collect();
        let hosts: Vec<NodeId> = (0..k).map(NodeId).collect();
        let topo = fast_net(k);
        let dp = contiguous_dp(&profile, &rates, &topo, &hosts).expect("feasible");
        let dp_pred = evaluate(&profile, &dp.to_mapping(), &rates, &topo);

        // Build one random contiguous split with k parts.
        let all = compositions(ns, k);
        let parts = &all[rng.next_range(all.len())];
        let mut ends = Vec::with_capacity(k);
        let mut acc = 0;
        for &p in parts {
            acc += p;
            ends.push(acc);
        }
        let rand_cm = ContiguousMapping::new(ends, hosts.clone());
        let rand_pred = evaluate(&profile, &rand_cm.to_mapping(), &rates, &topo);
        assert!(
            dp_pred.throughput >= rand_pred.throughput - 1e-9,
            "case {case}: DP lost to a random split: {} < {}",
            dp_pred.throughput,
            rand_pred.throughput
        );
    }
}

/// The planner never returns a mapping that uses a dead node when a
/// live alternative exists.
#[test]
fn planner_avoids_dead_nodes() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x8BAD + case);
        let ns = 1 + rng.next_range(4);
        let np = 4usize;
        let mut rates = vec![1.0; np];
        let dead = rng.next_range(np);
        rates[dead] = 0.0;
        let profile = PipelineProfile::uniform(vec![1.0; ns], 1000);
        let topo = Topology::uniform(np, LinkSpec::lan());
        let plan = plan(&profile, &rates, &topo, &PlannerConfig::default());
        assert!(
            !plan.mapping.nodes_used().contains(&NodeId(dead)),
            "case {case}: planner used dead node {dead}: {}",
            plan.mapping
        );
        assert!(plan.prediction.throughput > 0.0, "case {case}");
    }
}

/// Mapping diff is empty iff mappings are equal, and symmetric.
#[test]
fn diff_is_consistent() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x91FF + case);
        let (_, _, a) = instance(&mut rng);
        let np = a.iter().max().unwrap() + 2;
        let ma = to_mapping(&a);
        let mut b = a.clone();
        let idx = rng.next_range(b.len());
        b[idx] = (b[idx] + 1) % np;
        let mb = to_mapping(&b);
        assert!(ma.diff(&ma).is_empty(), "case {case}");
        assert_eq!(ma.diff(&mb), mb.diff(&ma), "case {case}");
        assert_eq!(ma.diff(&mb), vec![idx], "case {case}");
    }
}

/// completion_time(n) is monotone in n and ≥ latency.
#[test]
fn completion_estimate_is_monotone() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xA0FE + case);
        let (work, rates, assignment) = instance(&mut rng);
        let n1 = 1 + rng.next_range(999) as u64;
        let n2 = 1 + rng.next_range(999) as u64;
        let profile = PipelineProfile::uniform(work, 100);
        let mapping = to_mapping(&assignment);
        let topo = Topology::uniform(rates.len(), LinkSpec::lan());
        let pred = evaluate(&profile, &mapping, &rates, &topo);
        let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        assert!(
            pred.completion_time(lo) <= pred.completion_time(hi),
            "case {case}"
        );
        assert!(
            pred.completion_time(1) >= pred.latency - 1e-12,
            "case {case}"
        );
    }
}

/// The stage whose walk runs `s` on a fusing backend, by recursion: `s`
/// itself, unless `s` is a stateless singleton whose every producer is
/// a singleton on its host and all its producers run in one walk — then
/// every edge into `s` is a direct call.
fn walk_root(p: &PipelineProfile, m: &Mapping, s: usize) -> usize {
    let preds = p.graph.preds(s);
    let host = m.placement(s).hosts();
    let fusable = p.fuses_colocated
        && p.state[s].is_stateless()
        && host.len() == 1
        && !preds.is_empty()
        && preds.iter().all(|&f| m.placement(f).hosts() == host);
    if !fusable {
        return s;
    }
    let roots: Vec<usize> = preds.iter().map(|&f| walk_root(p, m, f)).collect();
    if roots.iter().all(|&r| r == roots[0]) {
        roots[0]
    } else {
        s
    }
}

/// Reference for [`evaluate`] on an arbitrary stage graph, written the
/// slow obvious way: `(latency, busiest link's seconds per item)`.
/// Every wire — graph edges, source → entries, exit → sink — costs its
/// replica-averaged transfer time (nothing when the backend fuses it)
/// and loads the inter-node links it may cross; a stage finishes its
/// service after its slowest input arrives (longest path, by
/// recursion).
fn reference(p: &PipelineProfile, m: &Mapping, rates: &[f64], topo: &Topology) -> (f64, f64) {
    let mut links = std::collections::BTreeMap::<(NodeId, NodeId), f64>::new();
    let mut wire = |from: &[NodeId], to: &[NodeId], bytes: u64| -> f64 {
        let pairs = (from.len() * to.len()) as f64;
        let mut expected = 0.0;
        for &a in from {
            for &b in to {
                let t = topo.transfer_time(a, b, bytes).as_secs_f64() / pairs;
                expected += t;
                if a != b && bytes > 0 {
                    *links.entry((a, b)).or_default() += t;
                }
            }
        }
        expected
    };
    let hosts = |s: usize| m.placement(s).hosts();
    let fused = |_: usize, t: usize| walk_root(p, m, t) != t;
    let mut done = vec![0.0f64; p.stages()];
    for &s in p.graph.topo_order() {
        let mut arrive = 0.0f64;
        for &f in p.graph.preds(s) {
            let hop = if fused(f, s) {
                0.0
            } else {
                wire(hosts(f), hosts(s), p.boundary_bytes[f + 1])
            };
            arrive = arrive.max(done[f] + hop);
        }
        if p.graph.preds(s).is_empty() {
            if let Some(src) = p.source {
                arrive = wire(&[src], hosts(s), p.boundary_bytes[0]);
            }
        }
        let service: f64 = hosts(s)
            .iter()
            .map(|h| p.stage_work[s] / rates[h.index()])
            .sum();
        done[s] = arrive + service / hosts(s).len() as f64;
    }
    let exit = p.graph.exit();
    let sink_hop = p.sink.map_or(0.0, |dst| {
        wire(hosts(exit), &[dst], p.boundary_bytes[exit + 1])
    });
    let busiest = links.values().fold(0.0f64, |a, &b| a.max(b));
    (done[exit] + sink_hop, busiest)
}

/// The model's one topological walk agrees with the reference on
/// random series-parallel shapes — pure chains, an entry block,
/// back-to-back blocks — under replicated placements, optional source
/// and sink, and with the fused-edge discount on and off.
#[test]
fn unified_walk_matches_a_longest_path_reference_on_series_parallel_shapes() {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
    for case in 0..4 * CASES {
        let mut rng = Rng64::new(0xB10C + case);
        let np = 2 + rng.next_range(4);
        let mut graph = StageGraph::builder();
        for _ in 0..1 + rng.next_range(3) {
            graph = if rng.next_range(2) == 0 {
                graph.stages(1 + rng.next_range(3))
            } else {
                let lens: Vec<usize> = (0..2 + rng.next_range(2))
                    .map(|_| 1 + rng.next_range(2))
                    .collect();
                graph.split(&lens)
            };
        }
        let graph = graph.build();
        let ns = graph.len();
        let mut profile =
            PipelineProfile::uniform((0..ns).map(|_| 0.1 + 9.9 * rng.next_unit()).collect(), 0);
        profile.boundary_bytes = (0..=ns).map(|_| rng.next_range(200_000) as u64).collect();
        profile.state = (0..ns)
            .map(|_| {
                if rng.next_range(4) > 0 {
                    StateAccess::Stateless
                } else {
                    StateAccess::Opaque
                }
            })
            .collect();
        profile.fuses_colocated = rng.next_range(2) == 0;
        profile.source = (rng.next_range(2) == 0).then(|| NodeId(rng.next_range(np)));
        profile.sink = (rng.next_range(2) == 0).then(|| NodeId(rng.next_range(np)));
        profile.graph = graph;
        let mapping = Mapping::new(
            (0..ns)
                .map(|_| {
                    let width = 1 + rng.next_range(2);
                    Placement::replicated((0..width).map(|_| NodeId(rng.next_range(np))).collect())
                })
                .collect(),
        );
        let rates: Vec<f64> = (0..np).map(|_| 0.1 + 3.9 * rng.next_unit()).collect();
        let mut topo = Topology::uniform(np, LinkSpec::lan());
        topo.set(
            NodeId(0),
            NodeId(1),
            LinkSpec::new(SimDuration::from_millis(3), 1e6),
        );

        let got = evaluate(&profile, &mapping, &rates, &topo);
        let (latency, busiest_link) = reference(&profile, &mapping, &rates, &topo);
        let busiest_node = got.node_load.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(
            close(got.latency, latency),
            "case {case}: latency {} vs reference {latency} ({mapping})",
            got.latency
        );
        assert!(
            close(1.0 / got.throughput, busiest_link.max(busiest_node)),
            "case {case}: period {} vs reference link {busiest_link} / node {busiest_node}",
            1.0 / got.throughput
        );
    }
}

/// One seeded planner instance of the golden table.
struct Golden {
    profile: PipelineProfile,
    rates: Vec<f64>,
    topology: Topology,
    config: PlannerConfig,
}

/// Benoit / Rehn-Sonigo / Robert's closed form for an interval mapping
/// of an unreplicated chain, one interval per node, every link costing
/// `link.transfer_time(bytes)`: interval `k` covers stages
/// `cuts[k]..cuts[k + 1]` of total work `W` on a node of rate `rates[k]`,
/// receives `in` and sends `out`. With communication overlapping
/// computation, the period is `max_k max(in/b, W/r, out/b)` and the
/// latency `Σ_k (in/b + W/r) + out_last/b`. The first interval's `in`
/// and the last one's `out` are zero unless `ends` pins a source and a
/// sink. Returns `(period, latency)`.
fn interval_closed_form(
    work: &[f64],
    bytes: &[u64],
    cuts: &[usize],
    rates: &[f64],
    link: LinkSpec,
    ends: bool,
) -> (f64, f64) {
    let comm = |boundary: usize| link.transfer_time(bytes[boundary]).as_secs_f64();
    let intervals = cuts.len() - 1;
    let (mut period, mut latency) = (0.0f64, 0.0);
    for k in 0..intervals {
        let (first, end) = (cuts[k], cuts[k + 1]);
        let input = if k > 0 || ends { comm(first) } else { 0.0 };
        let output = if k + 1 < intervals || ends {
            comm(end)
        } else {
            0.0
        };
        let compute = work[first..end].iter().sum::<f64>() / rates[k];
        period = period.max(input).max(compute).max(output);
        latency += input + compute;
    }
    (period, latency + if ends { comm(work.len()) } else { 0.0 })
}

/// The model equals the closed form on seeded interval mappings of
/// chains over identical links, with source and sink unset and then
/// pinned to a node no interval uses. As in the closed form, an
/// interval's internal edges cost nothing: the profile is that of a
/// backend that fuses co-located stages.
#[test]
fn interval_mappings_of_chains_match_the_closed_form() {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
    for ends in [false, true] {
        for case in 0..CASES {
            let mut rng = Rng64::new(0xC105 + case);
            let ns = 1 + rng.next_range(8);
            let work: Vec<f64> = (0..ns).map(|_| 0.1 + 4.9 * rng.next_unit()).collect();
            let bytes: Vec<u64> = (0..=ns)
                .map(|_| 1 + rng.next_range(10_000_000) as u64)
                .collect();
            let mut cuts: Vec<usize> = std::iter::once(0)
                .chain((1..ns).filter(|_| rng.next_range(2) == 0))
                .collect();
            cuts.push(ns);
            let intervals = cuts.len() - 1;
            // One node per interval, one spare for the source and sink.
            let np = intervals + 1 + rng.next_range(2);
            let mut nodes: Vec<usize> = (0..np).collect();
            for i in (1..np).rev() {
                nodes.swap(i, rng.next_range(i + 1));
            }
            let rates: Vec<f64> = (0..np).map(|_| 0.1 + 1.9 * rng.next_unit()).collect();
            let latency = SimDuration::from_micros(1 + rng.next_range(50_000) as u64);
            let link = LinkSpec::new(latency, 1e5 + 1e7 * rng.next_unit());
            let mut profile = PipelineProfile::uniform(work.clone(), 0);
            profile.boundary_bytes = bytes.clone();
            profile.fuses_colocated = true;
            if ends {
                profile.source = Some(NodeId(nodes[intervals]));
                profile.sink = Some(NodeId(nodes[intervals]));
            }
            let assignment: Vec<usize> = (0..intervals)
                .flat_map(|k| std::iter::repeat_n(nodes[k], cuts[k + 1] - cuts[k]))
                .collect();
            let interval_rates: Vec<f64> = nodes[..intervals].iter().map(|&n| rates[n]).collect();
            let (period, latency) =
                interval_closed_form(&work, &bytes, &cuts, &interval_rates, link, ends);
            let topo = Topology::uniform(np, link);
            let p = evaluate(&profile, &to_mapping(&assignment), &rates, &topo);
            let at = format!("case {case} (ends {ends}) cuts {cuts:?}");
            assert!(
                close(1.0 / p.throughput, period),
                "{at}: period {} vs {period}",
                1.0 / p.throughput
            );
            assert!(
                close(p.latency, latency),
                "{at}: latency {} vs {latency}",
                p.latency
            );
        }
    }
}

/// A random DAG over `ns` stages with one entry and one exit, its stage
/// ids shuffled so that they are *not* in dependency order.
fn shuffled_dag(rng: &mut Rng64, ns: usize) -> StageGraph {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for to in 1..ns {
        let first = rng.next_range(to);
        edges.push((first, to));
        let second = rng.next_range(to);
        if second != first && rng.next_range(2) == 0 {
            edges.push((second, to));
        }
    }
    for from in 0..ns - 1 {
        if !edges.iter().any(|&(f, _)| f == from) {
            edges.push((from, ns - 1));
        }
    }
    let mut perm: Vec<usize> = (0..ns).collect();
    for i in (1..ns).rev() {
        perm.swap(i, rng.next_range(i + 1));
    }
    edges
        .into_iter()
        .fold(StageGraph::dag(ns), |g, (f, t)| g.edge(perm[f], perm[t]))
        .build()
        .expect("generated DAG is valid")
}

/// Case `case` of the golden table. The must-cover features (shape,
/// optimiser, dead node, caps, width, source/sink, fusion, symmetry)
/// are derived from the case index so every one of them appears; the
/// numbers come from the seeded generator.
fn golden_instance(case: u64) -> Golden {
    let mut rng = Rng64::new(0x601D + case);
    let large = (case / 3) % 2 == 1;
    let (ns, np) = if large {
        (6 + rng.next_range(3), 7 + rng.next_range(3))
    } else {
        (3 + rng.next_range(3), 3 + rng.next_range(3))
    };
    let graph = match case % 3 {
        0 => StageGraph::linear(ns),
        1 => {
            let tail = rng.next_range(ns - 2);
            let head = ns - 3 - tail;
            StageGraph::builder()
                .stages(head)
                .split(&[1, 1])
                .stages(tail)
                .build()
        }
        _ => shuffled_dag(&mut rng, ns),
    };
    assert_eq!(graph.len(), ns);
    // Every fourth case is symmetric (equal work, equal rates, uniform
    // links): throughput and latency tie constantly there, so the
    // balance tie-break and the frontier order decide the plan.
    let symmetric = case % 4 == 3;
    let work: Vec<f64> = (0..ns)
        .map(|_| {
            let w = 0.2 + 3.8 * rng.next_unit();
            if symmetric {
                1.0
            } else {
                w
            }
        })
        .collect();
    let mut profile = PipelineProfile::uniform(work, 0);
    let uniform_bytes = rng.next_range(2) == 0;
    let bytes = 1_000 + rng.next_range(400_000) as u64;
    profile.boundary_bytes = (0..=ns)
        .map(|_| {
            let b = rng.next_range(400_000) as u64;
            if uniform_bytes {
                bytes
            } else {
                b
            }
        })
        .collect();
    profile.graph = graph;
    match case % 5 {
        1 => profile.replica_cap[rng.next_range(ns)] = 1,
        2 => {
            // Keyed state: replicable up to the shard count.
            profile.replica_cap[rng.next_range(ns)] = 2;
            profile.replica_cap[rng.next_range(ns)] = 8;
        }
        3 => {
            let s = rng.next_range(ns);
            profile.state[s] = StateAccess::Opaque;
            profile.replica_cap[s] = 1;
        }
        _ => {}
    }
    if case % 4 == 1 {
        profile.source = Some(NodeId(rng.next_range(np)));
    }
    if case % 8 >= 5 {
        profile.sink = Some(NodeId(rng.next_range(np)));
    }
    profile.fuses_colocated = case % 6 >= 4;

    let mut rates: Vec<f64> = (0..np)
        .map(|_| {
            let r = 0.3 + 3.7 * rng.next_unit();
            if symmetric {
                1.0
            } else {
                r
            }
        })
        .collect();
    if case % 7 == 2 {
        rates[rng.next_range(np)] = 0.0;
    }
    let mut topology = if case % 2 == 1 {
        Topology::clustered(np, 2 + rng.next_range(2), LinkSpec::lan(), LinkSpec::wan())
    } else {
        Topology::uniform(np, LinkSpec::lan())
    };
    if !symmetric {
        for _ in 0..rng.next_range(3) {
            let (a, b) = (rng.next_range(np), rng.next_range(np));
            if a != b {
                topology.set(
                    NodeId(a),
                    NodeId(b),
                    LinkSpec::new(SimDuration::from_millis(2 + rng.next_range(40) as u64), 2e6),
                );
            }
        }
    }
    let config = PlannerConfig {
        max_width: [4, 1, 4, 2][(case % 4) as usize],
        seed: 0xADA9 + case,
    };
    Golden {
        profile,
        rates,
        topology,
        config,
    }
}

/// The adaptive simulation scenario (`adabench`'s `sim_*` workloads):
/// `s0 → (s1 ‖ s2) → s3 → s4 → s5` with ramped work on the hetero8
/// testbed, whose fastest node drops to 15 % at t = 60 s; planned at
/// `at_secs`.
fn sim_scenario(at_secs: f64) -> Golden {
    let mut profile = PipelineProfile::uniform(vec![0.4, 0.6, 0.8, 1.0, 1.2, 1.4], 32 << 10);
    profile.graph = StageGraph::builder()
        .stages(1)
        .split(&[1, 1])
        .stages(2)
        .build();
    let mut grid = testbed_hetero8(7);
    FaultPlan::new()
        .slowdown(
            NodeId(0),
            SimTime::from_secs_f64(60.0),
            SimTime::from_secs_f64(1e9),
            0.15,
        )
        .apply(&mut grid);
    Golden {
        profile,
        rates: grid.rates_at(SimTime::from_secs_f64(at_secs)),
        topology: grid.topology().clone(),
        config: PlannerConfig::default(),
    }
}

/// `plan()` on the golden instances as generated at the commit *before*
/// the planner's inner loop moved onto the in-place `Evaluator`
/// workspace: mapping notation, `throughput.to_bits()`,
/// `latency.to_bits()`, strategy (`E`xhaustive / `L`ocal search). The
/// planner may get faster; it may not decide differently by one bit.
const GOLDEN: &[(&str, u64, u64, char)] = &[
    (
        "(n2 n0 {n1,n2} n1)",
        0x3fd4e74f4d53449d,
        0x402139ebd29e274c,
        'E',
    ),
    ("(n0 n1 n2)", 0x3ff0fbef6c3f3ab0, 0x3ffc122f8f73a732, 'E'),
    (
        "(n1 n1 n1 n2 n2)",
        0x3fd398048e7029c6,
        0x401a9e3ad80fd18e,
        'E',
    ),
    (
        "(n0 n1 {n2,n3} {n3,n4} {n4,n5} {n5,n7} {n6,n7})",
        0x3ff0000000000000,
        0x401c359c9518f8c2,
        'L',
    ),
    (
        "({n0,n2,n3,n7} {n1,n8} n5 {n4,n6,n8} {n0,n1,n2,n4} {n0,n1,n4,n7} {n0,n4,n5,n8})",
        0x3ff2f6428e5e3b17,
        0x401951d80dce286d,
        'L',
    ),
    (
        "(n2 n8 n3 n1 n7 n4 n6)",
        0x3fee1dac1489dbd1,
        0x400f17f03b1042dc,
        'L',
    ),
    (
        "(n0 n1 n0 n3 {n1,n2})",
        0x3fe4848c44cf20ee,
        0x4015fa722b3746d8,
        'E',
    ),
    ("(n1 n2 n0)", 0x3ff0000000000000, 0x400037ada8d65eac, 'E'),
    (
        "(n4 {n0,n2,n3} n2 {n0,n4} n1)",
        0x3fed2e127fe801aa,
        0x400fd06fcf2f2d85,
        'E',
    ),
    (
        "(n3 n5 n2 n2 n3 n5 n1 n0)",
        0x3fecbb721f8b1652,
        0x4014b8e2e36f91c5,
        'L',
    ),
    (
        "(n2 n4 {n2,n6} n1 {n1,n3,n5} n0 {n3,n6} {n3,n6})",
        0x3feb0900b39dfc77,
        0x40186887c35cdf5c,
        'L',
    ),
    (
        "({n1,n4} n2 n3 {n0,n5} {n1,n5} {n6,n7})",
        0x3ff0000000000000,
        0x40102a188dd5ec05,
        'L',
    ),
    ("(n2 n0 n1 n0)", 0x3feafcde18cdf85c, 0x400a0778aceaa4da, 'E'),
    ("(n0 n0 n3 n2)", 0x3fddb7c8566b6fb1, 0x400d3f84543de340, 'E'),
    ("(n2 n0 n2 n0)", 0x3fe02578d047a618, 0x400fba4857b5fa9c, 'E'),
    (
        "({n0,n1} n3 n2 n5 n4 n7 n6)",
        0x3ff0000000000000,
        0x401c6930e6db496f,
        'L',
    ),
    (
        "({n0,n2,n3,n6} n4 n4 n1 {n2,n5} {n0,n2,n3,n6} {n0,n2})",
        0x3feafd01d5383eac,
        0x4018764285e8c15e,
        'L',
    ),
    (
        "(n1 n4 n3 n5 n5 n6 n7 n3)",
        0x3ff0e9b222d9a38b,
        0x40066cd95bf79b6f,
        'L',
    ),
    (
        "({n0,n2} n1 n0 {n1,n2} n1)",
        0x3fd9a4c06277d806,
        0x401c9a55284774ae,
        'E',
    ),
    ("(n0 n1 n2 n3)", 0x3ff0000000000000, 0x400848088c047473, 'E'),
    ("(n1 n1 n0 n2)", 0x3fd743368dbb22a2, 0x401da17cc6288298, 'E'),
    (
        "(n3 n7 n8 n8 n8 n3)",
        0x3feebb67c095817a,
        0x4006911d30e65de2,
        'L',
    ),
    (
        "(n6 {n0,n5} {n1,n4} {n1,n5,n7} {n2,n3,n4,n6} {n1,n3} {n2,n3})",
        0x3fee40903ac39398,
        0x401ac8bb92b4a496,
        'L',
    ),
    (
        "({n0,n1} n6 n0 n3 {n4,n5} n4 n1 n5)",
        0x3fe5555555555555,
        0x40102aff7f73f5e8,
        'L',
    ),
    (
        "(n0 n2 n1 n0 n3)",
        0x3ff259376bc99d6f,
        0x40065e2ea99990ab,
        'E',
    ),
    ("(n1 n3 n1)", 0x3fe6ad4248769dfe, 0x3ff8ef84991733e3, 'E'),
    (
        "(n2 n0 n0 n2 n1)",
        0x3fd3d27ec5733038,
        0x401d386caa249a58,
        'E',
    ),
    (
        "({n0,n1} {n1,n2} {n2,n3} {n3,n4} {n4,n5} {n5,n7} {n6,n7})",
        0x3ff0000000000000,
        0x401c2e9ac3eeb55d,
        'L',
    ),
    (
        "({n0,n3,n4} n2 n7 {n3,n5} n3 n4 {n0,n2,n4} n1)",
        0x3fecc494e1d5a635,
        0x4019708a1fac4c1a,
        'L',
    ),
    (
        "(n1 n0 n2 n7 n3 n0)",
        0x3fe60595d3ea60e2,
        0x4016439b209b036a,
        'L',
    ),
    (
        "({n1,n4} {n0,n1,n2,n4} {n1,n4})",
        0x4000435762124304,
        0x3ffb37a5d4bf746a,
        'E',
    ),
    ("(n0 n1 n2 n3)", 0x3ff0000000000000, 0x40086427efa1fdb0, 'E'),
    ("(n1 n2 n0)", 0x3fffc9c4c56c2cdc, 0x3ff41abcb6534906, 'E'),
    (
        "(n1 n2 n3 n1 n7 n7 n6 n3)",
        0x3fe098889436203f,
        0x402202129831018e,
        'L',
    ),
    (
        "({n0,n2,n7} {n1,n5,n7,n8} {n4,n5,n6,n8} {n2,n4,n6} {n0,n3,n4,n5} n4 {n2,n4,n7})",
        0x3ffc133cff9a7d1d,
        0x4011a71f446676ff,
        'L',
    ),
    (
        "(n5 {n0,n2} {n3,n4} {n0,n1} {n2,n4} n6)",
        0x3ff0000000000000,
        0x40102e5e2d9d4724,
        'L',
    ),
    (
        "({n1,n2} n0 {n0,n1})",
        0x3fe041bc5eaa7d73,
        0x4014fd9668a43d55,
        'E',
    ),
    ("(n1 n1 n0 n1)", 0x3fd91c813874cd03, 0x40106a82b1d88f40, 'E'),
    ("(n1 n3 n0)", 0x3ff0ff35d6e2f0e5, 0x40051e01000e55bc, 'E'),
    (
        "(n0 n1 n2 n3 n4 n5)",
        0x3ff0000000000000,
        0x4018231dc7104a4f,
        'L',
    ),
    (
        "({n4,n5,n7,n8} n5 {n1,n4,n7,n8} {n0,n3,n4,n7} {n0,n8} {n0,n7} {n2,n6,n7} n4)",
        0x3fed0a084ac61d65,
        0x401e6761f1d08c76,
        'L',
    ),
    (
        "(n5 n2 n4 n1 n3 n4)",
        0x3fefff2ad06ec7bf,
        0x40052d7220a41e05,
        'L',
    ),
    (
        "(n3 {n1,n2} n0 n1)",
        0x3fec41a187d7be18,
        0x40120ae3a0e4feee,
        'E',
    ),
    (
        "(n0 n1 n2 n3 n4)",
        0x3ff0000000000000,
        0x40102aa92eeb837a,
        'E',
    ),
    ("(n1 n3 n2)", 0x3fee212fb1a85f09, 0x40069052c07f2f4c, 'E'),
    (
        "(n3 n3 n3 n6 n6 n5)",
        0x3fec87ea0941cb5e,
        0x4006879458049f92,
        'L',
    ),
    (
        "({n0,n7} {n0,n1,n4,n5} n4 {n0,n1,n2} {n0,n1,n5,n6} n6 {n3,n6})",
        0x3ff8241dd5b60954,
        0x40127547b231bec8,
        'L',
    ),
    (
        "(n5 {n2,n6} n4 n3 n0 n1)",
        0x3ff0000000000000,
        0x40103aa5ae587616,
        'L',
    ),
    (
        "(n4 n2 {n0,n3,n4,n5} n1 {n0,n2,n3,n6} n0)",
        0x3ff9435e50d79436,
        0x400bcd9d63b0e17f,
        'L',
    ),
    (
        "({n1,n3} {n1,n4} n1 n2 {n4,n5} {n0,n2,n3,n6})",
        0x3ff1c71c71c71c72,
        0x4014574e63c01d9a,
        'L',
    ),
];

#[test]
fn plan_matches_the_golden_table_bit_for_bit() {
    let rows: Vec<(String, u64, u64, char)> = (0..48)
        .map(golden_instance)
        .chain([sim_scenario(0.0), sim_scenario(90.0)])
        .map(|g| {
            let plan = plan(&g.profile, &g.rates, &g.topology, &g.config);
            let strategy = match plan.strategy {
                Strategy::Exhaustive => 'E',
                Strategy::LocalSearch => 'L',
            };
            (
                plan.mapping.notation(),
                plan.prediction.throughput.to_bits(),
                plan.prediction.latency.to_bits(),
                strategy,
            )
        })
        .collect();
    let same = rows.len() == GOLDEN.len()
        && rows
            .iter()
            .zip(GOLDEN)
            .all(|(r, g)| (r.0.as_str(), r.1, r.2, r.3) == *g);
    if !same {
        for (case, r) in rows.iter().enumerate() {
            let mark = match GOLDEN.get(case) {
                Some(g) if (r.0.as_str(), r.1, r.2, r.3) == *g => "",
                _ => " // DIFFERS",
            };
            println!(
                "    ({:?}, {:#018x}, {:#018x}, {:?}),{mark}",
                r.0, r.1, r.2, r.3
            );
        }
        panic!("plan() no longer reproduces the golden table (actual rows printed above)");
    }
}

/// Where the golden table's two `sim_scenario` plans spend their
/// candidates. Most local-search moves are ruled out from the
/// incumbent's node loads before they are applied; most of the rest
/// are dropped on their own node loads before the link walk.
#[test]
fn the_sim_scenario_plans_bound_out_most_candidates() {
    let counts = |at_secs: f64| {
        let g = sim_scenario(at_secs);
        let c = plan(&g.profile, &g.rates, &g.topology, &g.config).candidates;
        (c.bounded, c.pruned, c.scored)
    };
    assert_eq!(counts(0.0), (2477, 39, 731), "before the slowdown");
    assert_eq!(counts(90.0), (2000, 41, 740), "30 s after it");
}

/// The model written the obvious way, one mapping at a time: per-call
/// vectors, a map of link cells, `transfer_time` asked of the topology
/// for every replica pair. It accumulates in the order the
/// [`Evaluator`] does — stage order for node loads, topological edge
/// order for link cells — so the two must agree to the last bit.
fn naive_prediction(
    p: &PipelineProfile,
    m: &Mapping,
    rates: &[f64],
    topo: &Topology,
) -> Prediction {
    let hosts = |s: usize| m.placement(s).hosts();
    let mut node_load = vec![0.0f64; rates.len()];
    let mut dead = false;
    for s in 0..p.stages() {
        let share = 1.0 / hosts(s).len() as f64;
        for h in hosts(s) {
            if rates[h.index()] <= 0.0 {
                dead = true;
            } else {
                node_load[h.index()] += p.stage_work[s] / rates[h.index()] * share;
            }
        }
    }
    let mut busiest_node = (0.0f64, 0usize);
    for (i, &load) in node_load.iter().enumerate() {
        if load > busiest_node.0 {
            busiest_node = (load, i);
        }
    }
    if dead {
        return Prediction {
            throughput: 0.0,
            latency: f64::INFINITY,
            bottleneck: Bottleneck::Node(NodeId(busiest_node.1)),
            node_load,
        };
    }

    let mut links = std::collections::BTreeMap::<(NodeId, NodeId), f64>::new();
    let mut wire = |from: &[NodeId], to: &[NodeId], bytes: u64| -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let frac = 1.0 / (from.len() * to.len()) as f64;
        let mut expected = 0.0;
        for &a in from {
            for &b in to {
                let t = topo.transfer_time(a, b, bytes).as_secs_f64();
                expected += frac * t;
                if a != b {
                    *links.entry((a, b)).or_insert(0.0) += frac * t;
                }
            }
        }
        expected
    };
    let fused = |_: usize, t: usize| walk_root(p, m, t) != t;
    let mut done = vec![0.0f64; p.stages()];
    for &s in p.graph.topo_order() {
        let mut arrive = 0.0f64;
        if p.graph.preds(s).is_empty() {
            if let Some(src) = p.source {
                arrive = wire(&[src], hosts(s), p.boundary_bytes[0]);
            }
        }
        for &f in p.graph.preds(s) {
            let hop = if fused(f, s) {
                0.0
            } else {
                wire(hosts(f), hosts(s), p.boundary_bytes[f + 1])
            };
            arrive = arrive.max(done[f] + hop);
        }
        let service = hosts(s)
            .iter()
            .map(|h| p.stage_work[s] / rates[h.index()])
            .sum::<f64>()
            / hosts(s).len() as f64;
        done[s] = arrive + service;
    }
    let exit = p.graph.exit();
    let mut latency = done[exit];
    if let Some(dst) = p.sink {
        latency += wire(hosts(exit), &[dst], p.boundary_bytes[exit + 1]);
    }
    let mut busiest_link = (0.0f64, NodeId(0), NodeId(0));
    for (&(a, b), &secs) in &links {
        if secs > busiest_link.0 {
            busiest_link = (secs, a, b);
        }
    }
    let (bottleneck, period) = if busiest_link.0 > busiest_node.0 {
        (
            Bottleneck::Link(busiest_link.1, busiest_link.2),
            busiest_link.0,
        )
    } else {
        (Bottleneck::Node(NodeId(busiest_node.1)), busiest_node.0)
    };
    Prediction {
        throughput: if period > 0.0 {
            1.0 / period
        } else {
            f64::INFINITY
        },
        latency,
        bottleneck,
        node_load,
    }
}

/// A random, possibly replicated mapping of `ns` stages over `np` nodes.
fn replicated_mapping(rng: &mut Rng64, ns: usize, np: usize) -> Mapping {
    Mapping::new(
        (0..ns)
            .map(|_| {
                let width = 1 + rng.next_range(3);
                Placement::replicated((0..width).map(|_| NodeId(rng.next_range(np))).collect())
            })
            .collect(),
    )
}

/// The workspace evaluator and the one-shot `evaluate` both equal the
/// naive model on every field, over the golden instances (chains,
/// blocks, shuffled DAGs, dead nodes, source/sink, fusion, mixed
/// boundary sizes) under random replicated mappings — and one
/// evaluator scoring mapping after mapping carries nothing over.
#[test]
fn evaluator_equals_the_naive_model_on_every_field() {
    for case in 0..48 {
        let g = golden_instance(case);
        let mut rng = Rng64::new(0xE7A1 + case);
        let mut ev = Evaluator::new(&g.profile, &g.rates, &g.topology);
        for _ in 0..8 {
            let m = replicated_mapping(&mut rng, g.profile.stages(), g.rates.len());
            let want = naive_prediction(&g.profile, &m, &g.rates, &g.topology);
            for got in [
                ev.prediction(&m),
                evaluate(&g.profile, &m, &g.rates, &g.topology),
            ] {
                assert_eq!(got.throughput, want.throughput, "case {case}: {m}");
                assert_eq!(got.latency, want.latency, "case {case}: {m}");
                assert_eq!(got.bottleneck, want.bottleneck, "case {case}: {m}");
                assert_eq!(got.node_load, want.node_load, "case {case}: {m}");
            }
            let score = ev.score(&m);
            let sumsq = want.node_load.iter().map(|l| l * l).sum::<f64>();
            assert_eq!(
                (
                    score.throughput,
                    score.latency,
                    score.bottleneck,
                    score.balance
                ),
                (want.throughput, want.latency, want.bottleneck, sumsq),
                "case {case}: {m}"
            );
        }
    }
}

/// The busiest link is the first strict maximum in cell order, as the
/// naive model's ordered map of cells finds it, though the evaluator
/// scans only the cells a walk charged, in the order it charged them.
/// Link-bound instances on uniform links, where replica pairs charge
/// equal seconds to several cells and the busiest cells tie: chains,
/// blocks and shuffled DAGs, equal boundary sizes, light work, a
/// declared source and sink in half of them and a fusing backend in the
/// other half, under random replicated mappings. Throughput, latency
/// and bottleneck must equal the naive model's to the bit.
#[test]
fn the_busiest_link_is_the_first_in_cell_order() {
    let mut link_bound = 0;
    for case in 0..48u64 {
        let mut rng = Rng64::new(0x71E5 + case);
        let (ns, np) = (4 + rng.next_range(3), 3 + rng.next_range(4));
        let mut profile =
            PipelineProfile::uniform((0..ns).map(|_| 0.002 * rng.next_unit()).collect(), 400_000);
        profile.graph = match case % 3 {
            0 => StageGraph::linear(ns),
            1 => StageGraph::builder().stages(1).split(&[1, ns - 3]).build(),
            _ => shuffled_dag(&mut rng, ns),
        };
        if case % 2 == 0 {
            profile.source = Some(NodeId(rng.next_range(np)));
            profile.sink = Some(NodeId(rng.next_range(np)));
        } else {
            profile.fuses_colocated = true;
        }
        let rates = vec![1.0; np];
        let topology = Topology::uniform(np, LinkSpec::lan());
        let mut ev = Evaluator::new(&profile, &rates, &topology);
        for _ in 0..16 {
            let m = replicated_mapping(&mut rng, ns, np);
            let want = naive_prediction(&profile, &m, &rates, &topology);
            let got = ev.prediction(&m);
            link_bound += usize::from(matches!(got.bottleneck, Bottleneck::Link(..)));
            assert_eq!(
                (
                    got.throughput.to_bits(),
                    got.latency.to_bits(),
                    got.bottleneck
                ),
                (
                    want.throughput.to_bits(),
                    want.latency.to_bits(),
                    want.bottleneck
                ),
                "case {case}: {m}"
            );
        }
    }
    assert!(link_bound > 500, "only {link_bound} link-bound mappings");
}

/// The floor is exact. Whenever `score_against` declines to score a
/// mapping, the full score's throughput really is under the floor
/// (`<` for `AtLeast`, `<=` for `Above`); whenever it does score, the
/// score is the full one. Floors sit around, and exactly on, both the
/// mapping's throughput and the bound its node loads give.
#[test]
fn a_pruned_candidate_is_always_below_the_floor() {
    let (mut pruned, mut scored) = (0, 0);
    for case in 0..48 {
        let g = golden_instance(case);
        let mut rng = Rng64::new(0xF100 + case);
        let mut ev = Evaluator::new(&g.profile, &g.rates, &g.topology);
        for _ in 0..8 {
            let m = replicated_mapping(&mut rng, g.profile.stages(), g.rates.len());
            let full = ev.score(&m);
            let pred = ev.prediction(&m);
            let node_bound = 1.0 / pred.node_load.iter().fold(0.0f64, |a, &b| a.max(b));
            let spread = 0.5 + rng.next_unit();
            for at in [
                full.throughput,
                node_bound,
                full.throughput * spread,
                node_bound * spread,
                0.0,
            ] {
                for floor in [Floor::AtLeast(at), Floor::Above(at)] {
                    match ev.score_against(&m, floor) {
                        Some(score) => {
                            scored += 1;
                            assert_eq!(score, full, "case {case}: {m} against {floor:?}");
                        }
                        None => {
                            pruned += 1;
                            let below = match floor {
                                Floor::AtLeast(least) => full.throughput < least,
                                Floor::Above(bar) => full.throughput <= bar,
                            };
                            assert!(
                                below,
                                "case {case}: {m} pruned against {floor:?} but scores {}",
                                full.throughput
                            );
                            assert!(full.throughput > 0.0, "case {case}: dead {m} was pruned");
                        }
                    }
                }
            }
        }
    }
    assert!(
        pruned > 200 && scored > 200,
        "pruned {pruned}, scored {scored}"
    );
}

/// The certified keep is exact. Over the golden instances (chains,
/// blocks, shuffled DAGs, both optimisers, dead nodes, source/sink,
/// fusion, keyed caps) under their own rates and a drifted copy, with
/// current mappings that are the plan before the drift and random
/// replicated ones:
///
/// * (a) no mapping — whatever `plan()` or `exhaustive_best` returns,
///   and every current mapping — is scored above the throughput
///   ceiling (up to rounding);
/// * (b) whenever `certified_keep` fires, `should_remap` keeps the
///   current mapping against what `plan()` returns;
/// * (c) the sweep certifies a pinned number of cycles, so (b) is not
///   vacuous.
#[test]
fn a_certified_keep_is_a_keep_whatever_the_search_returns() {
    let decision = DecisionConfig::default();
    let mut certified = 0;
    for case in 0..48 {
        let g = golden_instance(case);
        let mut rng = Rng64::new(0xCE27 + case);
        let before = plan(&g.profile, &g.rates, &g.topology, &g.config).mapping;
        let drifted: Vec<f64> = g
            .rates
            .iter()
            .map(|&r| r * (0.9 + 0.2 * rng.next_unit()))
            .collect();
        let ns = g.profile.stages();
        let np = g.rates.len();
        let currents = [
            before,
            replicated_mapping(&mut rng, ns, np),
            replicated_mapping(&mut rng, ns, np),
        ];
        for rates in [&g.rates, &drifted] {
            let ceiling = throughput_ceiling(&g.profile, rates);
            let under = |throughput: f64, what: &str| {
                assert!(
                    throughput <= ceiling * (1.0 + 1e-12),
                    "case {case}: {what} scores {throughput} over the ceiling {ceiling}"
                );
            };
            let searched = plan(&g.profile, rates, &g.topology, &g.config);
            under(searched.prediction.throughput, "plan()");
            if assignment_count(ns, np).is_some_and(|c| c <= EXHAUSTIVE_CAP) {
                let best = exhaustive_best(&g.profile, rates, &g.topology, EXHAUSTIVE_CAP);
                under(best.prediction.throughput, "exhaustive_best");
            }
            for current in &currents {
                let now = evaluate(&g.profile, current, rates, &g.topology);
                under(now.throughput, "the current mapping");
                if certified_keep(&g.profile, rates, &now, 10_000, &decision) {
                    certified += 1;
                    let verdict = should_remap(&now, &searched.prediction, 10_000, 0.0, &decision);
                    assert!(
                        matches!(verdict, Decision::Keep { .. }),
                        "case {case}: certified {current} but the search found {} ({verdict:?})",
                        searched.mapping
                    );
                }
            }
        }
    }
    assert_eq!(certified, 25, "certified cycles");
}
