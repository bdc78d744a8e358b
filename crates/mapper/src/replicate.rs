//! Greedy replication of replicable bottleneck stages.
//!
//! When the throughput bottleneck is a processor saturated by a
//! replicable stage, the pattern can *farm* that stage over several
//! nodes — the "pipeline of farms" composition from the skeleton
//! literature. This module widens stages greedily while the model
//! predicts improvement. "Replicable" covers truly stateless stages
//! and declared keyed/accumulator state (the runtime shards or merges
//! it; widening a keyed stage is executed as a shard rebalance).

use crate::enumerate::Move;
use crate::mapping::Mapping;
use crate::model::{Evaluator, Floor, Score};
use adapipe_gridsim::node::NodeId;

/// Greedily adds replicas to replicable stages of `mapping`, in place,
/// while doing so strictly improves predicted throughput. Returns the
/// score of what it leaves (which may be the input unchanged).
///
/// The search is bounded: each iteration adds exactly one replica, and
/// stage width never exceeds `max_width` nor the stage's declared
/// [`crate::model::PipelineProfile::replica_cap`], so it terminates
/// after at most `Ns · max_width` evaluations of the neighbourhood.
pub fn improve(ev: &mut Evaluator<'_>, mapping: &mut Mapping, max_width: usize) -> Score {
    let mut current_score = ev.score(mapping);
    while let Some((widening, score)) =
        best_single_widening(ev, mapping, current_score.throughput, max_width)
    {
        widening.apply(mapping);
        current_score = score;
    }
    current_score
}

/// Tries every legal single-replica addition on `current` in place
/// (add, score, drop again) and returns the best one whose throughput
/// strictly beats `current_throughput`, or `None`. All replicable
/// stages are tried, not only those on the bottleneck node: the
/// bottleneck may shift after one addition.
fn best_single_widening(
    ev: &mut Evaluator<'_>,
    current: &mut Mapping,
    current_throughput: f64,
    max_width: usize,
) -> Option<(Move, Score)> {
    let profile = ev.profile();
    let rates = ev.rates();
    let mut best: Option<(Move, Score)> = None;
    for stage in 0..current.len() {
        if !profile.state[stage].replicable()
            || current.placement(stage).width() >= max_width.min(profile.replica_cap[stage])
        {
            continue;
        }
        for node in (0..rates.len()).map(NodeId) {
            if current.placement(stage).contains(node) || rates[node.index()] <= 0.0 {
                continue;
            }
            let widening = Move::AddReplica { stage, node };
            let undo = widening.apply(current);
            // Only a candidate strictly above both the current mapping
            // and the best widening so far can win.
            let bar = best.map_or(current_throughput, |(_, b)| b.throughput);
            let score = ev.score_against(current, Floor::Above(bar));
            undo.apply(current);
            if let Some(score) = score.filter(|s| s.throughput > bar) {
                best = Some((widening, score));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{evaluate, PipelineProfile};
    use adapipe_gridsim::net::{LinkSpec, Topology};
    use adapipe_gridsim::time::SimDuration;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    fn fast_net(np: usize) -> Topology {
        Topology::uniform(np, LinkSpec::new(SimDuration::from_nanos(1), 1e12))
    }

    /// `improve` on a fresh evaluator; returns the widened mapping too.
    fn improved(
        profile: &PipelineProfile,
        mut mapping: Mapping,
        rates: &[f64],
        topology: &Topology,
        max_width: usize,
    ) -> (Mapping, Score) {
        let score = improve(
            &mut Evaluator::new(profile, rates, topology),
            &mut mapping,
            max_width,
        );
        (mapping, score)
    }

    #[test]
    fn widens_hot_stage_across_spare_nodes() {
        let profile = PipelineProfile::uniform(vec![4.0, 1.0], 0);
        let mapping = Mapping::from_assignment(&[n(0), n(1)]);
        let rates = [1.0, 1.0, 1.0, 1.0];
        let (m, p) = improved(&profile, mapping, &rates, &fast_net(4), 4);
        // Hot stage spreads over the 3 free nodes (4/3 s) or similar;
        // throughput must rise well above the unreplicated 0.25.
        assert!(p.throughput > 0.5, "tput={}", p.throughput);
        assert!(m.placement(0).width() >= 2);
    }

    #[test]
    fn respects_stateful_stages() {
        let mut profile = PipelineProfile::uniform(vec![4.0, 1.0], 0);
        profile.state[0] = adapipe_state::StateAccess::Opaque;
        let mapping = Mapping::from_assignment(&[n(0), n(1)]);
        let rates = [1.0, 1.0, 1.0];
        let (m, p) = improved(&profile, mapping.clone(), &rates, &fast_net(3), 4);
        assert_eq!(m, mapping, "stateful stage must not be replicated");
        assert!((p.throughput - 0.25).abs() < 1e-9);
    }

    #[test]
    fn respects_max_width() {
        let profile = PipelineProfile::uniform(vec![8.0], 0);
        let mapping = Mapping::from_assignment(&[n(0)]);
        let rates = [1.0; 8];
        let (m, _) = improved(&profile, mapping, &rates, &fast_net(8), 2);
        assert!(m.placement(0).width() <= 2);
    }

    #[test]
    fn respects_per_stage_replica_cap() {
        // Same hot stage as `widens_hot_stage_across_spare_nodes`, but
        // the programmer declared at most 2 replicas for it: the greedy
        // pass must stop widening there even though the global
        // `max_width` would allow 4.
        let mut profile = PipelineProfile::uniform(vec![4.0, 1.0], 0);
        profile.replica_cap[0] = 2;
        let mapping = Mapping::from_assignment(&[n(0), n(1)]);
        let rates = [1.0, 1.0, 1.0, 1.0];
        let (m, _) = improved(&profile, mapping, &rates, &fast_net(4), 4);
        assert!(m.placement(0).width() <= 2, "cap violated: {m}");
    }

    #[test]
    fn stops_when_no_improvement_possible() {
        // Balanced pipeline on exactly-fitting nodes: replication cannot
        // help because every node is equally loaded.
        let profile = PipelineProfile::uniform(vec![1.0, 1.0], 0);
        let mapping = Mapping::from_assignment(&[n(0), n(1)]);
        let rates = [1.0, 1.0];
        let (m, p) = improved(&profile, mapping.clone(), &rates, &fast_net(2), 4);
        assert_eq!(m, mapping);
        assert!((p.throughput - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skips_dead_nodes() {
        let profile = PipelineProfile::uniform(vec![4.0, 1.0], 0);
        let mapping = Mapping::from_assignment(&[n(0), n(1)]);
        let rates = [1.0, 1.0, 0.0];
        let (m, _) = improved(&profile, mapping, &rates, &fast_net(3), 4);
        assert!(
            !m.placement(0).contains(n(2)),
            "dead node must not receive replicas"
        );
    }

    #[test]
    fn replication_accounts_for_network_cost() {
        // Hot stage, but every extra node is behind a dreadful link and
        // input data is large: widening would make the link the
        // bottleneck, so the planner must decline.
        let mut profile = PipelineProfile::uniform(vec![1.0, 0.1], 10_000_000);
        profile.source = Some(n(0));
        let mut topo = fast_net(3);
        topo.set_symmetric(n(0), n(2), LinkSpec::new(SimDuration::from_secs(5), 1e6));
        topo.set_symmetric(n(1), n(2), LinkSpec::new(SimDuration::from_secs(5), 1e6));
        let mapping = Mapping::from_assignment(&[n(0), n(1)]);
        let rates = [1.0, 1.0, 1.0];
        let before = evaluate(&profile, &mapping, &rates, &topo);
        let (m, p) = improved(&profile, mapping, &rates, &topo, 4);
        assert!(p.throughput >= before.throughput);
        assert!(
            !m.placement(0).contains(n(2)),
            "widening across a 5 s link must be rejected, got {m}"
        );
    }
}
