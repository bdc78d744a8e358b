//! Mapping optimisers: exhaustive, contiguous DP, and local search.
//!
//! The adaptation controller calls [`plan`] with the current resource
//! forecast; `plan` picks a strategy by instance size:
//!
//! * small instances (`np^ns` under a cap) — exhaustive enumeration,
//!   provably optimal within the unreplicated space;
//! * larger instances — a contiguous dynamic program seeds a steepest-
//!   descent local search with random restarts.
//!
//! A final greedy replication pass ([`crate::replicate`]) widens
//! stateless bottleneck stages either way.

use crate::enumerate::{assignment_count, neighbours, Assignments};
use crate::mapping::{ContiguousMapping, Mapping};
use crate::model::{evaluate, PipelineProfile, Prediction};
use crate::replicate;
use adapipe_gridsim::net::Topology;
use adapipe_gridsim::node::NodeId;
use adapipe_gridsim::rng::Rng64;

/// Tunables for the planner.
#[derive(Clone, Debug)]
pub struct PlannerConfig {
    /// Use exhaustive search when `np^ns` is at most this.
    pub exhaustive_cap: u64,
    /// Random restarts for local search on large instances.
    pub restarts: usize,
    /// Maximum steepest-descent steps per restart.
    pub max_steps: usize,
    /// Maximum replicas per stage (1 disables replication).
    pub max_width: usize,
    /// Seed for the restart RNG.
    pub seed: u64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            exhaustive_cap: 50_000,
            restarts: 4,
            max_steps: 200,
            max_width: 4,
            seed: 0xADA9,
        }
    }
}

/// A mapping with its predicted performance.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The chosen mapping.
    pub mapping: Mapping,
    /// Model prediction for it.
    pub prediction: Prediction,
    /// Which strategy produced it (for the overhead table).
    pub strategy: Strategy,
}

/// Which optimiser produced a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Full enumeration of unreplicated assignments.
    Exhaustive,
    /// Contiguous DP seed + steepest-descent local search.
    LocalSearch,
}

/// `true` iff `a` is a strictly better prediction than `b`: higher
/// throughput; then lower latency; then better load balance (lower sum
/// of squared node loads). The final tie-break matters: among the many
/// equal-throughput optima of a symmetric instance, the most *spread*
/// mapping is the best launch point for the greedy replication pass,
/// which only takes single steps.
fn better(a: &Prediction, b: &Prediction) -> bool {
    if a.throughput != b.throughput {
        return a.throughput > b.throughput;
    }
    if a.latency != b.latency {
        return a.latency < b.latency;
    }
    let sumsq = |p: &Prediction| p.node_load.iter().map(|l| l * l).sum::<f64>();
    sumsq(a) < sumsq(b)
}

/// Exhaustively evaluates every unreplicated assignment.
///
/// # Panics
/// Panics if `np^ns` exceeds `cap` (caller must gate on
/// [`assignment_count`]).
pub fn exhaustive_best(
    profile: &PipelineProfile,
    rates: &[f64],
    topology: &Topology,
    cap: u64,
) -> Plan {
    let frontier = exhaustive_frontier(profile, rates, topology, cap, 1);
    let (mapping, prediction) = frontier.into_iter().next().expect("non-empty frontier");
    Plan {
        mapping,
        prediction,
        strategy: Strategy::Exhaustive,
    }
}

/// Exhaustively evaluates every unreplicated assignment and returns up
/// to `k` mappings tied (within float epsilon) at the best throughput,
/// best-ranked first.
///
/// Symmetric instances have many equal-throughput optima that differ in
/// how evenly they load the nodes; the greedy replication pass is
/// single-step and can escape from some of them but not others, so the
/// planner improves the whole frontier.
///
/// # Panics
/// Panics if `np^ns` exceeds `cap` or `k` is zero.
pub fn exhaustive_frontier(
    profile: &PipelineProfile,
    rates: &[f64],
    topology: &Topology,
    cap: u64,
    k: usize,
) -> Vec<(Mapping, Prediction)> {
    assert!(k > 0, "frontier size must be positive");
    let ns = profile.stages();
    let np = rates.len();
    assignment_count(ns, np)
        .filter(|&c| c <= cap)
        .expect("instance too large for exhaustive search");
    let mut frontier: Vec<(Mapping, Prediction)> = Vec::with_capacity(k + 1);
    for mapping in Assignments::new(ns, np) {
        let pred = evaluate(profile, &mapping, rates, topology);
        match frontier.first() {
            None => frontier.push((mapping, pred)),
            Some((_, best)) => {
                let tied = (pred.throughput - best.throughput).abs() <= 1e-12;
                if better(&pred, best) && !tied {
                    frontier.clear();
                    frontier.push((mapping, pred));
                } else if tied {
                    // Insert in `better` order, truncating to k entries.
                    let pos = frontier
                        .iter()
                        .position(|(_, p)| better(&pred, p))
                        .unwrap_or(frontier.len());
                    if pos < k {
                        frontier.insert(pos, (mapping, pred));
                        frontier.truncate(k);
                    }
                }
            }
        }
    }
    frontier
}

/// Contiguous DP: splits the stage chain into `hosts.len()` consecutive
/// groups, group `g` on `hosts[g]`, minimising the bottleneck of
/// per-group compute time plus ingress transfer time.
///
/// Runs in `O(ns² · k)`. This ignores link sharing between groups (the
/// full model re-scores the result), but captures the dominant
/// coalesce-vs-spread trade-off. Groups are contiguous in *stage-id
/// order* — exact for chains, a seed approximation for wider graphs;
/// `dp_seed` permutes explicit DAGs into topological order first, and
/// every candidate is re-scored by the graph-aware [`evaluate`] before
/// anything is adopted.
pub fn contiguous_dp(
    profile: &PipelineProfile,
    rates: &[f64],
    topology: &Topology,
    hosts: &[NodeId],
) -> Option<ContiguousMapping> {
    let ns = profile.stages();
    let ends = contiguous_dp_ends(
        &profile.stage_work,
        &profile.boundary_bytes[..ns],
        rates,
        topology,
        hosts,
    )?;
    Some(ContiguousMapping::new(ends, hosts.to_vec()))
}

/// DP seed used by the planner: runs the contiguous split over the
/// graph's *topological order* and scatters the group hosts back to
/// stage ids. On chain and series-parallel (builder-sugar) graphs the
/// topological order is the identity permutation, so this reproduces
/// the historical contiguous seed exactly; on explicit DAGs it keeps
/// each group a causally-consecutive slice of the pipeline even when
/// stage ids were declared out of dependency order.
fn dp_seed(
    profile: &PipelineProfile,
    rates: &[f64],
    topology: &Topology,
    hosts: &[NodeId],
) -> Option<Mapping> {
    let topo = profile.graph.topo_order();
    let work: Vec<f64> = topo.iter().map(|&s| profile.stage_work[s]).collect();
    let ingress: Vec<u64> = topo.iter().map(|&s| profile.boundary_bytes[s]).collect();
    let ends = contiguous_dp_ends(&work, &ingress, rates, topology, hosts)?;
    let mut assignment = vec![NodeId(0); profile.stages()];
    let mut start = 0usize;
    for (g, &end) in ends.iter().enumerate() {
        for &stage in &topo[start..end] {
            assignment[stage] = hosts[g];
        }
        start = end;
    }
    Some(Mapping::from_assignment(&assignment))
}

/// Core of the contiguous DP over an abstract stage sequence:
/// `work[i]` is the compute weight of the i-th stage in the sequence
/// and `ingress[i]` the bytes flowing into it. Returns the group split
/// points (`ends[g]` = one past the last sequence position of group
/// `g`), or `None` when no finite-cost split exists.
fn contiguous_dp_ends(
    work: &[f64],
    ingress: &[u64],
    rates: &[f64],
    topology: &Topology,
    hosts: &[NodeId],
) -> Option<Vec<usize>> {
    let ns = work.len();
    let k = hosts.len();
    if k == 0 || k > ns {
        return None;
    }
    // Prefix sums of stage work for O(1) group-work queries.
    let mut prefix = vec![0.0f64; ns + 1];
    for s in 0..ns {
        prefix[s + 1] = prefix[s] + work[s];
    }
    let group_cost = |start: usize, end: usize, g: usize| -> f64 {
        let rate = rates[hosts[g].index()];
        if rate <= 0.0 {
            return f64::INFINITY;
        }
        let compute = (prefix[end] - prefix[start]) / rate;
        let transfer = if g == 0 {
            0.0
        } else {
            topology
                .transfer_time(hosts[g - 1], hosts[g], ingress[start])
                .as_secs_f64()
        };
        compute + transfer
    };

    // dp[g][s] = minimal bottleneck for stages 0..s in groups 0..=g,
    // with group g ending exactly at s.
    let mut dp = vec![vec![f64::INFINITY; ns + 1]; k];
    let mut back = vec![vec![0usize; ns + 1]; k];
    #[allow(clippy::needless_range_loop)] // `s` is a DP index across two tables
    for s in 1..=ns {
        dp[0][s] = group_cost(0, s, 0);
    }
    for g in 1..k {
        for s in (g + 1)..=ns {
            // Previous group ends at p; every group needs ≥ 1 stage.
            for p in g..s {
                let cand = dp[g - 1][p].max(group_cost(p, s, g));
                if cand < dp[g][s] {
                    dp[g][s] = cand;
                    back[g][s] = p;
                }
            }
        }
    }
    if !dp[k - 1][ns].is_finite() {
        return None;
    }
    // Recover the split points.
    let mut ends = vec![0usize; k];
    ends[k - 1] = ns;
    let mut s = ns;
    for g in (1..k).rev() {
        s = back[g][s];
        ends[g - 1] = s;
    }
    Some(ends)
}

/// Steepest-descent local search from `start`.
///
/// Each step first explores only moves touching the current *bottleneck*
/// nodes (the only moves that can raise throughput); when that
/// neighbourhood stalls, one full-neighbourhood pass runs to pick up
/// latency/balance polish, and the search stops when that stalls too.
pub fn local_search(
    profile: &PipelineProfile,
    rates: &[f64],
    topology: &Topology,
    start: Mapping,
    max_width: usize,
    max_steps: usize,
) -> (Mapping, Prediction) {
    let np = rates.len();
    let mut current = start;
    let mut current_pred = evaluate(profile, &current, rates, topology);
    for _ in 0..max_steps {
        let focus: Vec<NodeId> = match current_pred.bottleneck {
            crate::model::Bottleneck::Node(n) => vec![n],
            crate::model::Bottleneck::Link(a, b) => vec![a, b],
        };
        let mut improved = false;
        for (_, cand) in crate::enumerate::neighbours_touching(
            &current,
            np,
            &profile.stateless,
            &profile.replica_cap,
            max_width,
            Some(&focus),
        ) {
            let pred = evaluate(profile, &cand, rates, topology);
            if better(&pred, &current_pred) {
                current = cand;
                current_pred = pred;
                improved = true;
            }
        }
        if !improved {
            // One full pass for polish; stop if even that cannot help.
            for (_, cand) in neighbours(
                &current,
                np,
                &profile.stateless,
                &profile.replica_cap,
                max_width,
            ) {
                let pred = evaluate(profile, &cand, rates, topology);
                if better(&pred, &current_pred) {
                    current = cand;
                    current_pred = pred;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }
    (current, current_pred)
}

/// The planner facade: produces the best mapping it can find for the
/// given forecast snapshot.
///
/// # Panics
/// Panics if `rates` is empty or shorter than the topology.
pub fn plan(
    profile: &PipelineProfile,
    rates: &[f64],
    topology: &Topology,
    config: &PlannerConfig,
) -> Plan {
    profile.validate();
    assert!(!rates.is_empty(), "need at least one node");
    assert_eq!(rates.len(), topology.len(), "rates must cover the topology");
    let ns = profile.stages();
    let np = rates.len();

    if assignment_count(ns, np).is_some_and(|c| c <= config.exhaustive_cap) {
        // Improve the whole tied frontier: equal-throughput optima differ
        // in spread, and only some admit single-step replication gains.
        let frontier_k = if config.max_width > 1 { 16 } else { 1 };
        let frontier =
            exhaustive_frontier(profile, rates, topology, config.exhaustive_cap, frontier_k);
        let mut best: Option<(Mapping, Prediction)> = None;
        for (mapping, prediction) in frontier {
            let (mapping, prediction) = if config.max_width > 1 {
                replicate::improve(profile, mapping, rates, topology, config.max_width)
            } else {
                (mapping, prediction)
            };
            if best.as_ref().is_none_or(|(_, b)| better(&prediction, b)) {
                best = Some((mapping, prediction));
            }
        }
        let (mapping, prediction) = best.expect("non-empty frontier");
        return Plan {
            mapping,
            prediction,
            strategy: Strategy::Exhaustive,
        };
    }

    let base = plan_large(profile, rates, topology, config);
    if config.max_width > 1 {
        let (mapping, prediction) = replicate::improve(
            profile,
            base.mapping.clone(),
            rates,
            topology,
            config.max_width,
        );
        if better(&prediction, &base.prediction) {
            return Plan {
                mapping,
                prediction,
                strategy: base.strategy,
            };
        }
    }
    base
}

/// Large-instance path: DP seed on the fastest nodes + random restarts.
fn plan_large(
    profile: &PipelineProfile,
    rates: &[f64],
    topology: &Topology,
    config: &PlannerConfig,
) -> Plan {
    let ns = profile.stages();
    let np = rates.len();
    let mut rng = Rng64::new(config.seed);

    // Nodes sorted by effective rate, fastest first.
    let mut by_rate: Vec<NodeId> = (0..np).map(NodeId).collect();
    by_rate.sort_by(|a, b| {
        rates[b.index()]
            .partial_cmp(&rates[a.index()])
            .expect("rates must not be NaN")
    });

    let mut best: Option<(Mapping, Prediction)> = None;
    let consider =
        |mapping: Mapping, pred: Prediction, best: &mut Option<(Mapping, Prediction)>| {
            let replace = match best {
                None => true,
                Some((_, b)) => better(&pred, b),
            };
            if replace {
                *best = Some((mapping, pred));
            }
        };

    // Seed 1: contiguous DP over the graph's topological order on the
    // fastest k nodes, for geometrically spaced k (every k would
    // multiply planning cost ~linearly in np for marginal gain — the
    // local search bridges nearby k anyway).
    let k_max = ns.min(np);
    let mut ks: Vec<usize> = std::iter::successors(Some(1usize), |&k| Some(k * 2))
        .take_while(|&k| k < k_max)
        .collect();
    ks.push(k_max);
    for k in ks {
        if let Some(seed) = dp_seed(profile, rates, topology, &by_rate[..k]) {
            let (m, p) = local_search(
                profile,
                rates,
                topology,
                seed,
                config.max_width,
                config.max_steps,
            );
            consider(m, p, &mut best);
        }
    }

    // Seed 2: random restarts.
    for _ in 0..config.restarts {
        let assignment: Vec<NodeId> = (0..ns).map(|_| NodeId(rng.next_range(np))).collect();
        let seed = Mapping::from_assignment(&assignment);
        let (m, p) = local_search(
            profile,
            rates,
            topology,
            seed,
            config.max_width,
            config.max_steps,
        );
        consider(m, p, &mut best);
    }

    let (mapping, prediction) = best.expect("at least one seed ran");
    Plan {
        mapping,
        prediction,
        strategy: Strategy::LocalSearch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_gridsim::net::LinkSpec;
    use adapipe_gridsim::time::SimDuration;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    fn fast_net(np: usize) -> Topology {
        Topology::uniform(np, LinkSpec::new(SimDuration::from_nanos(1), 1e12))
    }

    #[test]
    fn exhaustive_finds_one_to_one_on_balanced_instances() {
        let profile = PipelineProfile::uniform(vec![1.0, 1.0, 1.0], 0);
        let plan = exhaustive_best(&profile, &[1.0, 1.0, 1.0], &fast_net(3), 50_000);
        // Optimal spreads one stage per node: throughput 1.0.
        assert!((plan.prediction.throughput - 1.0).abs() < 1e-9);
        assert_eq!(plan.mapping.nodes_used().len(), 3);
    }

    #[test]
    fn exhaustive_avoids_dead_nodes() {
        let profile = PipelineProfile::uniform(vec![1.0, 1.0], 0);
        let plan = exhaustive_best(&profile, &[1.0, 0.0, 1.0], &fast_net(3), 50_000);
        assert!(!plan.mapping.nodes_used().contains(&n(1)));
        assert!(plan.prediction.throughput > 0.0);
    }

    #[test]
    fn exhaustive_coalesces_under_slow_links() {
        let profile = PipelineProfile::uniform(vec![0.1, 0.1, 0.1], 1_000_000);
        let mut topo = Topology::uniform(3, LinkSpec::new(SimDuration::from_millis(1), 1e6));
        // Make the network painful: 1 s/item per boundary off-node.
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    topo.set(
                        n(a),
                        n(b),
                        LinkSpec::new(SimDuration::from_millis(500), 1e6),
                    );
                }
            }
        }
        let plan = exhaustive_best(&profile, &[1.0, 1.0, 1.0], &topo, 50_000);
        // All stages should share a node: compute 0.3 s/item beats any
        // network crossing (≥ 1.5 s).
        assert_eq!(plan.mapping.nodes_used().len(), 1);
    }

    #[test]
    fn dp_matches_exhaustive_on_fixed_hosts() {
        // 4 stages, 2 hosts in fixed order; DP must find the best split.
        let profile = PipelineProfile::uniform(vec![3.0, 1.0, 1.0, 3.0], 0);
        let rates = [1.0, 1.0];
        let topo = fast_net(2);
        let cm = contiguous_dp(&profile, &rates, &topo, &[n(0), n(1)]).expect("feasible");
        let pred = evaluate(&profile, &cm.to_mapping(), &rates, &topo);
        // Best split is (3+1 | 1+3): bottleneck 4.
        assert!(
            (pred.throughput - 0.25).abs() < 1e-9,
            "tput={}",
            pred.throughput
        );
    }

    #[test]
    fn dp_skews_split_toward_fast_host() {
        let profile = PipelineProfile::uniform(vec![1.0, 1.0, 1.0, 1.0], 0);
        let rates = [3.0, 1.0];
        let topo = fast_net(2);
        let cm = contiguous_dp(&profile, &rates, &topo, &[n(0), n(1)]).expect("feasible");
        // Fast host takes 3 stages (1 s), slow host 1 stage (1 s).
        assert_eq!(cm.group_range(0), (0, 3));
        assert_eq!(cm.group_range(1), (3, 4));
    }

    #[test]
    fn dp_returns_none_when_infeasible() {
        let profile = PipelineProfile::uniform(vec![1.0], 0);
        let topo = fast_net(2);
        assert!(contiguous_dp(&profile, &[1.0, 1.0], &topo, &[]).is_none());
        assert!(contiguous_dp(&profile, &[1.0, 1.0], &topo, &[n(0), n(1)]).is_none());
        // Dead host ⇒ infinite cost everywhere.
        assert!(contiguous_dp(&profile, &[0.0], &fast_net(1), &[n(0)]).is_none());
    }

    #[test]
    fn local_search_respects_declared_replica_cap() {
        // A hot single stage on 4 free nodes with a declared bound of 1:
        // neither bottleneck-focused nor full-neighbourhood passes may
        // widen it, even though max_width = 4 would allow it.
        let mut profile = PipelineProfile::uniform(vec![4.0], 0);
        profile.replica_cap[0] = 1;
        let rates = [1.0; 4];
        let topo = fast_net(4);
        let (m, _) = local_search(
            &profile,
            &rates,
            &topo,
            Mapping::from_assignment(&[n(0)]),
            4,
            200,
        );
        assert_eq!(m.placement(0).width(), 1, "cap violated: {m}");
        // With the cap lifted the identical search must widen.
        profile.replica_cap[0] = usize::MAX;
        let (m, _) = local_search(
            &profile,
            &rates,
            &topo,
            Mapping::from_assignment(&[n(0)]),
            4,
            200,
        );
        assert!(m.placement(0).width() > 1, "uncapped search must widen");
    }

    #[test]
    fn local_search_improves_bad_seed() {
        let profile = PipelineProfile::uniform(vec![1.0, 1.0, 1.0], 0);
        let rates = [1.0, 1.0, 1.0];
        let topo = fast_net(3);
        let seed = Mapping::all_on(n(0), 3);
        let (m, p) = local_search(&profile, &rates, &topo, seed, 1, 100);
        assert!((p.throughput - 1.0).abs() < 1e-9, "tput={}", p.throughput);
        assert_eq!(m.nodes_used().len(), 3);
    }

    #[test]
    fn planner_uses_replication_for_dominant_stage() {
        // One huge stage, two small; four nodes. Replicating the hot
        // stage doubles throughput.
        let profile = PipelineProfile::uniform(vec![0.5, 4.0, 0.5], 0);
        let rates = [1.0, 1.0, 1.0, 1.0];
        let plan = plan(&profile, &rates, &fast_net(4), &PlannerConfig::default());
        assert!(
            plan.prediction.throughput > 0.45,
            "replication should lift throughput above 1/4, got {}",
            plan.prediction.throughput
        );
        assert!(!plan.mapping.is_unreplicated());
    }

    #[test]
    fn planner_prices_branched_graphs() {
        // (hot ‖ cold) → join on four free nodes. The planner sees the
        // series-parallel graph: the hot branch is the bottleneck path,
        // so the replication pass must widen *it* (and only it).
        let mut profile = PipelineProfile::uniform(vec![4.0, 0.5, 0.1], 0);
        profile.graph = crate::graph::StageGraph::builder().split(&[1, 1]).build();
        profile.validate();
        let rates = [1.0; 4];
        let plan = plan(&profile, &rates, &fast_net(4), &PlannerConfig::default());
        assert!(
            plan.prediction.throughput > 0.45,
            "widening the hot branch must lift throughput above 1/4, got {}",
            plan.prediction.throughput
        );
        assert!(
            plan.mapping.placement(0).width() > 1,
            "hot branch stage must be farmed: {}",
            plan.mapping
        );
        // Latency follows the slowest parallel path, so it is bounded by
        // the hot path, not the sum of both branches.
        let hot_path = 4.0 + 0.1;
        assert!(
            plan.prediction.latency <= hot_path + 1e-6,
            "latency {} exceeds the critical path",
            plan.prediction.latency
        );
    }

    #[test]
    fn planner_spreads_equal_stages_despite_the_fusion_discount() {
        // Two equal stateless stages, two free nodes, a fusing backend:
        // co-locating them fuses the boundary (zero transfer latency)
        // but halves throughput. The latency discount only breaks ties;
        // the bottleneck term must win and the plan must use both
        // nodes. (The deterministic twin of the threaded engine's
        // `planner_unfuses_when_spreading_wins`.)
        let mut profile = PipelineProfile::uniform(vec![3.0, 3.0], 8);
        profile.fuses_colocated = true;
        let rates = [1.0, 1.0];
        let topo = fast_net(2);
        let coalesced = evaluate(&profile, &Mapping::all_on(NodeId(0), 2), &rates, &topo);
        let plan = plan(&profile, &rates, &topo, &PlannerConfig::default());
        assert_eq!(plan.mapping.nodes_used().len(), 2, "{}", plan.mapping);
        assert!(
            plan.prediction.throughput > 1.9 * coalesced.throughput,
            "spread {} vs coalesced {}",
            plan.prediction.throughput,
            coalesced.throughput
        );
        assert!(coalesced.latency < plan.prediction.latency);
    }

    #[test]
    fn planner_handles_large_instances_via_local_search() {
        let ns = 12;
        let np = 16; // 16^12 ≫ cap ⇒ local-search path
        let profile = PipelineProfile::uniform(vec![1.0; ns], 0);
        let rates = vec![1.0; np];
        let plan = plan(&profile, &rates, &fast_net(np), &PlannerConfig::default());
        assert_eq!(plan.strategy, Strategy::LocalSearch);
        // Perfectly spreadable: every stage alone ⇒ throughput 1.
        assert!(
            plan.prediction.throughput > 0.9,
            "tput={}",
            plan.prediction.throughput
        );
    }

    #[test]
    fn planner_is_deterministic_per_seed() {
        let profile = PipelineProfile::uniform(vec![2.0, 1.0, 3.0], 0);
        let rates = [1.0, 2.0, 0.5, 1.5];
        let topo = fast_net(4);
        let cfg = PlannerConfig::default();
        let a = plan(&profile, &rates, &topo, &cfg);
        let b = plan(&profile, &rates, &topo, &cfg);
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.prediction.throughput, b.prediction.throughput);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn exhaustive_rejects_oversized_instances() {
        let profile = PipelineProfile::uniform(vec![1.0; 20], 0);
        let rates = vec![1.0; 10];
        let _ = exhaustive_best(&profile, &rates, &fast_net(10), 1_000);
    }
}
