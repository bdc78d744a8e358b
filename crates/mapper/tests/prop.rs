//! Property-style tests for the planner's model and optimisers.
//!
//! The workspace builds offline, so instead of a property-testing
//! framework these sweep each property over a deterministic fan of
//! seeded instances. Failures print the offending case, which
//! reproduces exactly.

use adapipe_gridsim::net::{LinkSpec, Topology};
use adapipe_gridsim::node::NodeId;
use adapipe_gridsim::rng::Rng64;
use adapipe_gridsim::time::SimDuration;
use adapipe_mapper::prelude::*;

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
        let (_, after) = improve(&profile, base, &rates, &topo, 4);
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
    let fused = |f: usize, t: usize| {
        p.fuses_colocated
            && p.stateless[t]
            && p.graph.succs(f) == [t]
            && p.graph.preds(t) == [f]
            && hosts(f).len() == 1
            && hosts(f) == hosts(t)
    };
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
        profile.stateless = (0..ns).map(|_| rng.next_range(4) > 0).collect();
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
