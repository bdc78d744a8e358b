//! Mapping optimisers: exhaustive, contiguous DP, and local search.
//!
//! The adaptation controller calls [`plan`] with the current resource
//! forecast; `plan` picks a strategy by instance size:
//!
//! * small instances (`np^ns` at most [`EXHAUSTIVE_CAP`]) — exhaustive
//!   enumeration, provably optimal within the unreplicated space;
//! * larger instances — a contiguous dynamic program seeds a steepest-
//!   descent local search with random restarts.
//!
//! A final greedy replication pass ([`crate::replicate`]) widens
//! replicable bottleneck stages either way.
//!
//! ## The inner loop
//!
//! One [`plan`] is shown thousands of candidate mappings, so all three
//! optimisers share one [`Evaluator`] built at the top of `plan` and
//! show it their candidates **in place**: a move is applied to the one
//! working [`Mapping`], scored, and undone (`for_each_neighbour`;
//! [`Assignments`] advances an odometer), and a [`Prediction`] with its
//! per-node vector is materialised only for the mapping `plan` returns.
//! Each score is taken against the incumbent's throughput as a
//! [`Floor`], so a candidate whose node loads alone rule it out never
//! walks the links.
//!
//! A local-search pass compares every candidate with the *running*
//! best, but every candidate is a neighbour of the mapping the step
//! *started* from: the pass only remembers the best move, and applies
//! it when the pass is over. That shared starting point makes most
//! moves cheaper still. The pass keeps the starting mapping's node
//! loads, and a one-stage move changes only the loads of the nodes it
//! touches. So before a move is applied, the evaluator bounds the
//! busiest node load it would leave, in O(width), and a move whose
//! bound already falls under the floor is never applied, scored or
//! undone. The bound rules out only candidates that the floor would
//! have dropped after applying them, so every plan is bit-identical.
//! On the 6-stage × 8-node adaptive scenario it rules out about 2,000
//! to 2,500 of a plan's 2,800 to 3,250 candidates ([`Plan::candidates`]).
//!
//! A candidate the bound keeps is applied, scored in full and undone,
//! although it differs from the pass's incumbent in one stage. Scoring
//! it from the incumbent's walk instead (re-walking only the moved
//! stage's edges, the link cells they load and the stages after it)
//! gives the same score to the bit, and was measured slower at this
//! size: a pass shows about 30 candidates and keeps about 8 of them,
//! and laying out the incumbent's walk for each pass costs more than
//! re-walking its kept candidates in part saves. What the full walk
//! costs is cut instead, every score unchanged to the bit: a one-host
//! stage's service is its one term, not a sum divided by one; shares
//! and pair fractions are read from a table of reciprocals; the walk
//! sums the link seconds it charges, and when even that sum is under
//! the busiest node's load no link can be the bottleneck, so the
//! `n × n` cells go unscanned; and the bound compares a product with
//! one instead of a quotient with the floor. On the 6 × 8 scenario a
//! kept candidate went from about 150–180 ns to 120–150 ns and a
//! bounded one from about 10–11 ns to 8.5–9.5 ns (one core, in
//! isolation).

use crate::enumerate::{assignment_count, for_each_neighbour, Assignments, Focus, Move};
use crate::mapping::{ContiguousMapping, Mapping};
use crate::model::{Bottleneck, Candidates, Evaluator, Floor, PipelineProfile, Prediction, Score};
use crate::replicate;
use adapipe_gridsim::net::Topology;
use adapipe_gridsim::node::NodeId;
use adapipe_gridsim::rng::Rng64;

/// Tunables for the planner.
#[derive(Clone, Debug)]
pub struct PlannerConfig {
    /// Maximum replicas per stage (1 disables replication).
    pub max_width: usize,
    /// Seed for the restart RNG.
    pub seed: u64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            max_width: 4,
            seed: 0xADA9,
        }
    }
}

/// [`plan`] enumerates exhaustively when `np^ns` is at most this.
pub const EXHAUSTIVE_CAP: u64 = 50_000;

/// Random restarts of the local search on larger instances.
const RESTARTS: usize = 4;

/// Steepest-descent steps per local-search descent, at most.
const MAX_STEPS: usize = 200;

/// A mapping with its predicted performance.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The chosen mapping.
    pub mapping: Mapping,
    /// Model prediction for it.
    pub prediction: Prediction,
    /// Which strategy produced it (for the overhead table).
    pub strategy: Strategy,
    /// What became of the candidates the search was shown.
    pub candidates: Candidates,
}

/// Which optimiser produced a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Full enumeration of unreplicated assignments.
    Exhaustive,
    /// Contiguous DP seed + steepest-descent local search.
    LocalSearch,
}

/// `true` iff `a` is a strictly better score than `b`: higher
/// throughput; then lower latency; then better load balance (lower sum
/// of squared node loads). The final tie-break matters: among the many
/// equal-throughput optima of a symmetric instance, the most *spread*
/// mapping is the best launch point for the greedy replication pass,
/// which only takes single steps.
fn better(a: &Score, b: &Score) -> bool {
    if a.throughput != b.throughput {
        return a.throughput > b.throughput;
    }
    if a.latency != b.latency {
        return a.latency < b.latency;
    }
    a.balance < b.balance
}

/// Throughputs this close count as tied on the exhaustive frontier.
const TIE_EPS: f64 = 1e-12;

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
    let mut ev = Evaluator::new(profile, rates, topology);
    let frontier = exhaustive_frontier(&mut ev, cap, 1);
    let (mapping, _) = frontier.into_iter().next().expect("non-empty frontier");
    let candidates = ev.candidates();
    Plan {
        prediction: ev.prediction(&mapping),
        mapping,
        strategy: Strategy::Exhaustive,
        candidates,
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
pub(crate) fn exhaustive_frontier(
    ev: &mut Evaluator<'_>,
    cap: u64,
    k: usize,
) -> Vec<(Mapping, Score)> {
    assert!(k > 0, "frontier size must be positive");
    let ns = ev.profile().stages();
    let np = ev.rates().len();
    assignment_count(ns, np)
        .filter(|&c| c <= cap)
        .expect("instance too large for exhaustive search");
    let mut frontier: Vec<(Mapping, Score)> = Vec::with_capacity(k + 1);
    let mut assignments = Assignments::new(ns, np);
    loop {
        let mapping = assignments.current();
        // Only an assignment tied with the best so far, or above it,
        // can enter the frontier. The floor sits ten tie windows under
        // the best, not one, so that rounding in the subtraction can
        // never cut an assignment the tie test below would admit.
        let floor = frontier.first().map_or(f64::NEG_INFINITY, |(_, best)| {
            best.throughput - 10.0 * TIE_EPS
        });
        if let Some(score) = ev.score_against(mapping, Floor::AtLeast(floor)) {
            match frontier.first() {
                None => frontier.push((mapping.clone(), score)),
                Some((_, best)) => {
                    let tied = (score.throughput - best.throughput).abs() <= TIE_EPS;
                    if better(&score, best) && !tied {
                        frontier.clear();
                        frontier.push((mapping.clone(), score));
                    } else if tied {
                        // Insert in `better` order, truncating to k entries.
                        let pos = frontier
                            .iter()
                            .position(|(_, s)| better(&score, s))
                            .unwrap_or(frontier.len());
                        if pos < k {
                            frontier.insert(pos, (mapping.clone(), score));
                            frontier.truncate(k);
                        }
                    }
                }
            }
        }
        if !assignments.advance() {
            return frontier;
        }
    }
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
/// every candidate is re-scored by the graph-aware [`Evaluator`] before
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
/// stage ids were declared out of dependency order. Writes the seed
/// into `assignment` (one host per stage id); `false` when no
/// finite-cost split exists.
fn dp_seed(
    profile: &PipelineProfile,
    rates: &[f64],
    topology: &Topology,
    hosts: &[NodeId],
    assignment: &mut [NodeId],
) -> bool {
    let topo = profile.graph.topo_order();
    let work: Vec<f64> = topo.iter().map(|&s| profile.stage_work[s]).collect();
    let ingress: Vec<u64> = topo.iter().map(|&s| profile.boundary_bytes[s]).collect();
    let Some(ends) = contiguous_dp_ends(&work, &ingress, rates, topology, hosts) else {
        return false;
    };
    let mut start = 0usize;
    for (g, &end) in ends.iter().enumerate() {
        for &stage in &topo[start..end] {
            assignment[stage] = hosts[g];
        }
        start = end;
    }
    true
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

    // dp[at(g, s)] = minimal bottleneck for stages 0..s in groups 0..=g,
    // with group g ending exactly at s.
    let at = |g: usize, s: usize| g * (ns + 1) + s;
    let mut dp = vec![f64::INFINITY; k * (ns + 1)];
    let mut back = vec![0usize; k * (ns + 1)];
    for s in 1..=ns {
        dp[at(0, s)] = group_cost(0, s, 0);
    }
    for g in 1..k {
        for s in (g + 1)..=ns {
            // Previous group ends at p; every group needs ≥ 1 stage.
            for p in g..s {
                let cand = dp[at(g - 1, p)].max(group_cost(p, s, g));
                if cand < dp[at(g, s)] {
                    dp[at(g, s)] = cand;
                    back[at(g, s)] = p;
                }
            }
        }
    }
    if !dp[at(k - 1, ns)].is_finite() {
        return None;
    }
    // Recover the split points.
    let mut ends = vec![0usize; k];
    ends[k - 1] = ns;
    let mut s = ns;
    for g in (1..k).rev() {
        s = back[at(g, s)];
        ends[g - 1] = s;
    }
    Some(ends)
}

/// Steepest-descent local search: descends from the mapping in
/// `current`, in place, for at most `MAX_STEPS` (200) steps, and returns
/// the score of where it stopped.
///
/// Each step first explores only moves touching the current *bottleneck*
/// nodes (the only moves that can raise throughput); when that
/// neighbourhood stalls, one pass over the rest of the neighbourhood
/// runs to pick up latency/balance polish, and the search stops when
/// that stalls too.
///
/// The polish pass skips the bottleneck moves, and the step it picks is
/// the one a pass over the whole neighbourhood would pick: the stalled
/// pass proved that no bottleneck move beats the current score, the
/// polish pass's running best only ever rises from that score, and the
/// ranking (throughput, then latency, then balance) is a transitive
/// order, so a skipped move could never have won.
pub fn local_search(ev: &mut Evaluator<'_>, current: &mut Mapping, max_width: usize) -> Score {
    let mut current_score = ev.score(current);
    for _ in 0..MAX_STEPS {
        let (focus, focus_len) = match current_score.bottleneck {
            Bottleneck::Node(n) => ([n, n], 1),
            Bottleneck::Link(a, b) => ([a, b], 2),
        };
        let focus = &focus[..focus_len];
        let step = best_move(ev, current, current_score, max_width, Focus::Only(focus))
            // One polish pass; stop if even that cannot help.
            .or_else(|| best_move(ev, current, current_score, max_width, Focus::Except(focus)));
        let Some((mv, score)) = step else { break };
        mv.apply(current);
        current_score = score;
    }
    current_score
}

/// One pass over the neighbourhood of `current` (restricted to the
/// stages `focus` admits): the move leading to the best neighbour that
/// beats `current_score`, with that neighbour's score. `current` is
/// walked in place and is unchanged on return.
fn best_move(
    ev: &mut Evaluator<'_>,
    current: &mut Mapping,
    current_score: Score,
    max_width: usize,
    focus: Focus<'_>,
) -> Option<(Move, Score)> {
    let profile = ev.profile();
    let mut best_score = current_score;
    let mut best_move = None;
    ev.set_incumbent(current);
    for_each_neighbour(
        current,
        ev.rates().len(),
        profile,
        max_width,
        focus,
        |mv, incumbent| {
            // A candidate below the running best's throughput loses
            // whatever its latency; one that equals it may still win
            // the tie-break.
            let floor = Floor::AtLeast(best_score.throughput);
            if ev.bounds_out(incumbent, mv, floor) {
                return;
            }
            let undo = mv.apply(incumbent);
            let score = ev.score_against(incumbent, floor);
            undo.apply(incumbent);
            if let Some(score) = score.filter(|score| better(score, &best_score)) {
                best_score = score;
                best_move = Some(mv);
            }
        },
    );
    best_move.map(|mv| (mv, best_score))
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
    let mut ev = Evaluator::new(profile, rates, topology);
    assert!(!rates.is_empty(), "need at least one node");
    assert_eq!(rates.len(), topology.len(), "rates must cover the topology");
    let exhaustive =
        assignment_count(profile.stages(), rates.len()).is_some_and(|c| c <= EXHAUSTIVE_CAP);
    let replicate = config.max_width > 1;

    let mapping = if exhaustive {
        // Improve the whole tied frontier: equal-throughput optima differ
        // in spread, and only some admit single-step replication gains.
        let frontier_k = if replicate { 16 } else { 1 };
        let mut best: Option<(Mapping, Score)> = None;
        for (mut mapping, mut score) in exhaustive_frontier(&mut ev, EXHAUSTIVE_CAP, frontier_k) {
            if replicate {
                score = replicate::improve(&mut ev, &mut mapping, config.max_width);
            }
            if best.as_ref().is_none_or(|(_, b)| better(&score, b)) {
                best = Some((mapping, score));
            }
        }
        best.expect("non-empty frontier").0
    } else {
        let mut mapping = plan_large(&mut ev, config);
        if replicate {
            // Leaves its input alone or lifts its throughput, so what
            // it leaves is the plan.
            replicate::improve(&mut ev, &mut mapping, config.max_width);
        }
        mapping
    };
    let candidates = ev.candidates();
    Plan {
        prediction: ev.prediction(&mapping),
        mapping,
        strategy: if exhaustive {
            Strategy::Exhaustive
        } else {
            Strategy::LocalSearch
        },
        candidates,
    }
}

/// Large-instance path: DP seed on the fastest nodes + random restarts.
fn plan_large(ev: &mut Evaluator<'_>, config: &PlannerConfig) -> Mapping {
    let (profile, rates, topology) = (ev.profile(), ev.rates(), ev.topology());
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

    // Every seed descends on `working`; the best descent so far is kept
    // by swapping the two mappings, so eight searches allocate two.
    let mut working = Mapping::all_on(NodeId(0), ns);
    let mut best = working.clone();
    let mut best_score: Option<Score> = None;
    let mut descend_from = |assignment: &[NodeId]| {
        working.assign(assignment);
        let score = local_search(ev, &mut working, config.max_width);
        if best_score.is_none_or(|b| better(&score, &b)) {
            std::mem::swap(&mut working, &mut best);
            best_score = Some(score);
        }
    };
    let mut assignment = vec![NodeId(0); ns];

    // Seed 1: contiguous DP over the graph's topological order on the
    // fastest k nodes, for geometrically spaced k (every k would
    // multiply planning cost ~linearly in np for marginal gain — the
    // local search bridges nearby k anyway).
    let k_max = ns.min(np);
    let ks = std::iter::successors(Some(1usize), |&k| Some(k * 2))
        .take_while(|&k| k < k_max)
        .chain([k_max]);
    for k in ks {
        if dp_seed(profile, rates, topology, &by_rate[..k], &mut assignment) {
            descend_from(&assignment);
        }
    }

    // Seed 2: random restarts.
    for _ in 0..RESTARTS {
        assignment.fill_with(|| NodeId(rng.next_range(np)));
        descend_from(&assignment);
    }

    assert!(best_score.is_some(), "at least one seed ran");
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::evaluate;
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
        let mut m = Mapping::from_assignment(&[n(0)]);
        local_search(&mut Evaluator::new(&profile, &rates, &topo), &mut m, 4);
        assert_eq!(m.placement(0).width(), 1, "cap violated: {m}");
        // With the cap lifted the identical search must widen.
        profile.replica_cap[0] = usize::MAX;
        let mut m = Mapping::from_assignment(&[n(0)]);
        local_search(&mut Evaluator::new(&profile, &rates, &topo), &mut m, 4);
        assert!(m.placement(0).width() > 1, "uncapped search must widen");
    }

    #[test]
    fn local_search_improves_bad_seed() {
        let profile = PipelineProfile::uniform(vec![1.0, 1.0, 1.0], 0);
        let rates = [1.0, 1.0, 1.0];
        let topo = fast_net(3);
        let mut m = Mapping::all_on(n(0), 3);
        let p = local_search(&mut Evaluator::new(&profile, &rates, &topo), &mut m, 1);
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
        assert!(plan.mapping.placements().iter().any(|p| !p.is_single()));
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
