//! Candidate-mapping generators.
//!
//! Three families feed the optimisers in [`crate::search`]:
//! full assignment enumeration (small instances), compositions for
//! contiguous groupings, and neighbourhood moves for local search.
//! The two the optimisers' inner loops run on — [`Assignments`] and
//! `for_each_neighbour` — show every candidate (for the neighbourhood,
//! every move) on one working [`Mapping`] instead of handing out a
//! clone per candidate.

use crate::mapping::{Mapping, Placement};
use crate::model::PipelineProfile;
use adapipe_gridsim::node::NodeId;

/// Number of unreplicated assignments of `ns` stages to `np` nodes
/// (`np^ns`), or `None` on overflow — used to gate exhaustive search.
pub fn assignment_count(ns: usize, np: usize) -> Option<u64> {
    let np = u64::try_from(np).ok()?;
    let mut acc: u64 = 1;
    for _ in 0..ns {
        acc = acc.checked_mul(np)?;
    }
    Some(acc)
}

/// Every unreplicated assignment of `ns` stages to `np` nodes in
/// lexicographic order, shown one at a time on a single [`Mapping`]
/// that an odometer advances in place: enumerating `np^ns` assignments
/// allocates once.
///
/// ```
/// use adapipe_mapper::enumerate::Assignments;
///
/// let mut all = Assignments::new(2, 2);
/// let mut seen = Vec::new();
/// loop {
///     seen.push(all.current().notation());
///     if !all.advance() {
///         break;
///     }
/// }
/// assert_eq!(seen, ["(n0 n0)", "(n0 n1)", "(n1 n0)", "(n1 n1)"]);
/// ```
pub struct Assignments {
    np: usize,
    current: Mapping,
}

impl Assignments {
    /// Starts at the all-on-node-0 assignment.
    ///
    /// # Panics
    /// Panics if `ns` or `np` is zero.
    pub fn new(ns: usize, np: usize) -> Self {
        assert!(ns > 0 && np > 0, "need at least one stage and one node");
        Assignments {
            np,
            current: Mapping::all_on(NodeId(0), ns),
        }
    }

    /// The assignment the odometer shows.
    pub fn current(&self) -> &Mapping {
        &self.current
    }

    /// Steps to the next assignment; `false` once the odometer has
    /// wrapped back to the first.
    pub fn advance(&mut self) -> bool {
        for pos in (0..self.current.len()).rev() {
            let digit = self.current.placement_mut(pos);
            let next = digit.primary().index() + 1;
            if next < self.np {
                digit.rehost(NodeId(next));
                return true;
            }
            digit.rehost(NodeId(0));
        }
        false
    }
}

/// All compositions of `n` into exactly `k` positive parts, e.g.
/// `compositions(3, 2) = [[1,2],[2,1]]`. Ordered lexicographically.
pub fn compositions(n: usize, k: usize) -> Vec<Vec<usize>> {
    assert!(k >= 1, "need at least one part");
    let mut out = Vec::new();
    if k > n {
        return out; // impossible with positive parts
    }
    let mut parts = vec![1usize; k];
    parts[k - 1] = n - (k - 1);
    loop {
        out.push(parts.clone());
        // Find the rightmost position (excluding the last) we can increment
        // while keeping all parts positive.
        let mut i = k.wrapping_sub(2);
        loop {
            if i == usize::MAX {
                return out;
            }
            // Incrementing parts[i] steals 1 from the tail budget.
            let tail_budget: usize = n - parts[..=i].iter().sum::<usize>();
            // After increment, remaining positions (i+1..k) need ≥ 1 each.
            if tail_budget >= k - i {
                parts[i] += 1;
                let consumed: usize = parts[..=i].iter().sum();
                for p in parts.iter_mut().take(k - 1).skip(i + 1) {
                    *p = 1;
                }
                let fixed: usize = consumed + (k - 2 - i);
                parts[k - 1] = n - fixed;
                break;
            }
            i = i.wrapping_sub(1);
        }
    }
}

/// One neighbourhood move of local search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Move {
    /// Re-host single-host stage `stage` on node `to`.
    Rehost {
        /// The stage that moves.
        stage: usize,
        /// Its new host.
        to: NodeId,
    },
    /// Add a replica of `stage` on `node`. For keyed state this is a
    /// *shard rebalance*: the runtime re-derives shard ownership from
    /// the new host list and live-migrates the shards that moved.
    AddReplica {
        /// The stage that widens.
        stage: usize,
        /// The host it gains.
        node: NodeId,
    },
    /// Drop the replica of `stage` on `node`.
    DropReplica {
        /// The stage that narrows.
        stage: usize,
        /// The host it loses.
        node: NodeId,
    },
}

impl Move {
    /// The stage the move changes.
    pub(crate) fn stage(self) -> usize {
        match self {
            Move::Rehost { stage, .. }
            | Move::AddReplica { stage, .. }
            | Move::DropReplica { stage, .. } => stage,
        }
    }

    /// Applies the move to `mapping` in place and returns the move that
    /// undoes it (host lists are kept sorted, so undoing restores the
    /// mapping exactly).
    pub fn apply(self, mapping: &mut Mapping) -> Move {
        match self {
            Move::Rehost { stage, to } => {
                let placement = mapping.placement_mut(stage);
                let from = placement.primary();
                placement.rehost(to);
                Move::Rehost { stage, to: from }
            }
            Move::AddReplica { stage, node } => {
                mapping.placement_mut(stage).add_host(node);
                Move::DropReplica { stage, node }
            }
            Move::DropReplica { stage, node } => {
                mapping.placement_mut(stage).remove_host(node);
                Move::AddReplica { stage, node }
            }
        }
    }
}

/// Which stages a neighbourhood walk moves, by the nodes that host
/// them. `Only(nodes)` and `Except(nodes)` split the walk of `All` in
/// two: each stage falls in exactly one of them, and each keeps the
/// order `All` shows its moves in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Focus<'a> {
    /// Every stage (the tests' reference walk).
    #[cfg(test)]
    All,
    /// Only the stages hosted on at least one of these nodes.
    Only(&'a [NodeId]),
    /// Every stage that [`Focus::Only`] with these nodes leaves out.
    Except(&'a [NodeId]),
}

impl Focus<'_> {
    fn admits(self, placement: &Placement) -> bool {
        let hosted = |nodes: &[NodeId]| nodes.iter().any(|&n| placement.contains(n));
        match self {
            #[cfg(test)]
            Focus::All => true,
            Focus::Only(nodes) => hosted(nodes),
            Focus::Except(nodes) => !hosted(nodes),
        }
    }
}

/// Walks the one-move neighbourhood of `mapping` over `np` nodes **in
/// place**: each move is shown to `visit` with the mapping it would
/// change, *before* it is applied. A visitor that wants the candidate
/// applies the move and undoes it again ([`Move::apply`] returns the
/// undo) before it returns; one that can rule the move out without
/// looking at the candidate skips both. So a pass over the
/// neighbourhood clones nothing, and `mapping` is unchanged when the
/// walk returns. Stage by stage, in this order:
///
/// * a single-host stage is re-hosted on every other node;
/// * a replicable stage (`profile.state[stage].replicable()`) gains one
///   replica on every node not already hosting it, while its width is
///   below both `max_width` and the stage's declared
///   `profile.replica_cap` (the shard count for keyed state);
/// * a replicated stage drops each of its hosts in turn.
///
/// Only the stages `focus` admits move. Local search first passes
/// [`Focus::Only`] the *bottleneck* nodes: a move that does not unload
/// the bottleneck resource cannot raise throughput, so the restriction
/// loses (almost) nothing while shrinking a step from `O(Ns·Np)`
/// candidates to `O(b·Np)`, `b` the number of bottleneck-hosted stages.
/// When that stalls, its polish pass walks [`Focus::Except`] the same
/// nodes: the moves it leaves out were just scored.
pub(crate) fn for_each_neighbour(
    mapping: &mut Mapping,
    np: usize,
    profile: &PipelineProfile,
    max_width: usize,
    focus: Focus<'_>,
    mut visit: impl FnMut(Move, &mut Mapping),
) {
    assert_eq!(profile.stages(), mapping.len(), "one stage per placement");
    for stage in 0..mapping.len() {
        let placement = mapping.placement(stage);
        if !focus.admits(placement) {
            continue;
        }
        let width = placement.width();
        if width == 1 {
            let current = placement.primary();
            for to in (0..np).map(NodeId).filter(|&to| to != current) {
                visit(Move::Rehost { stage, to }, mapping);
            }
        }
        if profile.state[stage].replicable() && width < max_width.min(profile.replica_cap[stage]) {
            for node in (0..np).map(NodeId) {
                if !mapping.placement(stage).contains(node) {
                    visit(Move::AddReplica { stage, node }, mapping);
                }
            }
        }
        if width > 1 {
            for i in 0..width {
                let node = mapping.placement(stage).hosts()[i];
                visit(Move::DropReplica { stage, node }, mapping);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_state::StateAccess;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn assignment_count_gates_overflow() {
        assert_eq!(assignment_count(3, 3), Some(27));
        assert_eq!(assignment_count(1, 1), Some(1));
        assert_eq!(assignment_count(64, 64), None); // 64^64 overflows
    }

    #[test]
    fn assignments_enumerate_np_pow_ns() {
        let mut odometer = Assignments::new(3, 2);
        let mut all = vec![odometer.current().notation()];
        while odometer.advance() {
            all.push(odometer.current().notation());
        }
        assert_eq!(all.len(), 8);
        // First is all-on-n0, last is all-on-n1, and the wrap shows the
        // first again.
        assert_eq!(all[0], "(n0 n0 n0)");
        assert_eq!(all[7], "(n1 n1 n1)");
        assert_eq!(odometer.current().notation(), "(n0 n0 n0)");
        // Lexicographic, hence all distinct.
        assert!(all.windows(2).all(|w| w[0] < w[1]), "{all:?}");
    }

    #[test]
    fn compositions_cover_all_positive_splits() {
        let c = compositions(4, 2);
        assert_eq!(c, vec![vec![1, 3], vec![2, 2], vec![3, 1]]);
        let c3 = compositions(5, 3);
        assert_eq!(c3.len(), 6); // C(4,2)
        assert!(c3.iter().all(|p| p.iter().sum::<usize>() == 5));
        assert!(c3.iter().all(|p| p.iter().all(|&x| x >= 1)));
    }

    #[test]
    fn compositions_edge_cases() {
        assert_eq!(compositions(3, 1), vec![vec![3]]);
        assert_eq!(compositions(2, 3), Vec::<Vec<usize>>::new());
        assert_eq!(compositions(3, 3), vec![vec![1, 1, 1]]);
    }

    /// The neighbourhood as a list, checking on the way that every
    /// candidate is one move away and that the walk restores `mapping`.
    /// A stage is `replicable` as `Stateless`, pinned as `Opaque`.
    fn neighbours(
        mapping: &Mapping,
        np: usize,
        replicable: &[bool],
        replica_cap: &[usize],
        max_width: usize,
        focus: Focus<'_>,
    ) -> Vec<(Move, Mapping)> {
        let mut profile = PipelineProfile::uniform(vec![1.0; replicable.len()], 0);
        profile.state = replicable
            .iter()
            .map(|&r| {
                if r {
                    StateAccess::Stateless
                } else {
                    StateAccess::Opaque
                }
            })
            .collect();
        profile.replica_cap = replica_cap.to_vec();
        let mut work = mapping.clone();
        let mut out = Vec::new();
        for_each_neighbour(&mut work, np, &profile, max_width, focus, |mv, shown| {
            assert_eq!(shown, mapping, "{mv:?} is shown on the mapping it moves");
            let undo = mv.apply(shown);
            assert_eq!(mapping.diff(shown).len(), 1, "{mv:?} is not one move");
            out.push((mv, shown.clone()));
            undo.apply(shown);
        });
        assert_eq!(&work, mapping, "the walk must undo every move");
        out
    }

    fn is_add(mv: &Move) -> bool {
        matches!(mv, Move::AddReplica { .. })
    }

    #[test]
    fn neighbours_move_stages() {
        let m = Mapping::from_assignment(&[n(0), n(1)]);
        let nb = neighbours(&m, 3, &[false, false], &[usize::MAX; 2], 1, Focus::All);
        // Each stage can move to 2 other nodes; no replication allowed.
        let moves: Vec<Move> = nb.iter().map(|&(mv, _)| mv).collect();
        let mv = |stage, to| Move::Rehost { stage, to: n(to) };
        assert_eq!(moves, [mv(0, 1), mv(0, 2), mv(1, 0), mv(1, 2)]);
        assert_eq!(nb[1].1.notation(), "(n2 n1)");
    }

    #[test]
    fn neighbours_replicate_stateless_only() {
        let m = Mapping::from_assignment(&[n(0), n(1)]);
        let nb = neighbours(&m, 3, &[true, false], &[usize::MAX; 2], 2, Focus::All);
        let adds: Vec<_> = nb.iter().filter(|(mv, _)| is_add(mv)).collect();
        // Only stage 0 may replicate, onto the two nodes not hosting it.
        assert_eq!(adds.len(), 2);
        assert_eq!(adds[0].1.notation(), "({n0,n1} n1)");
    }

    #[test]
    fn neighbours_drop_replicas() {
        let m = Mapping::new(vec![Placement::replicated(vec![n(0), n(1)])]);
        let nb = neighbours(&m, 2, &[true], &[usize::MAX], 2, Focus::All);
        let drops: Vec<_> = nb
            .iter()
            .filter(|(mv, _)| matches!(mv, Move::DropReplica { .. }))
            .collect();
        assert_eq!(drops.len(), 2);
        for (_, dm) in drops {
            assert!(dm.placement(0).is_single());
        }
    }

    #[test]
    fn neighbours_come_per_stage_rehost_then_add_then_drop() {
        // Stage 0 is single and replicable, stage 1 is replicated and
        // below its cap: the walk finishes a stage before the next.
        let m = Mapping::new(vec![
            Placement::single(n(0)),
            Placement::replicated(vec![n(0), n(2)]),
        ]);
        let nb = neighbours(&m, 3, &[true, true], &[usize::MAX; 2], 3, Focus::All);
        let moves: Vec<Move> = nb.iter().map(|&(mv, _)| mv).collect();
        assert_eq!(
            moves,
            [
                Move::Rehost { stage: 0, to: n(1) },
                Move::Rehost { stage: 0, to: n(2) },
                Move::AddReplica {
                    stage: 0,
                    node: n(1)
                },
                Move::AddReplica {
                    stage: 0,
                    node: n(2)
                },
                Move::AddReplica {
                    stage: 1,
                    node: n(1)
                },
                Move::DropReplica {
                    stage: 1,
                    node: n(0)
                },
                Move::DropReplica {
                    stage: 1,
                    node: n(2)
                },
            ]
        );
    }

    #[test]
    fn focus_keeps_only_stages_hosted_on_a_focus_node() {
        let m = Mapping::new(vec![
            Placement::single(n(0)),
            Placement::single(n(1)),
            Placement::replicated(vec![n(1), n(2)]),
        ]);
        let walk = |focus: Focus<'_>| neighbours(&m, 3, &[true; 3], &[usize::MAX; 3], 2, focus);
        let all = walk(Focus::All);
        let focused = walk(Focus::Only(&[n(2)]));
        // Only stage 2 touches n2; its moves are the unfocused walk's.
        let of_stage_2: Vec<_> = all
            .iter()
            .filter(|(_, cand)| m.diff(cand) == [2])
            .cloned()
            .collect();
        assert!(!focused.is_empty());
        assert_eq!(focused, of_stage_2);

        // `Only` and `Except` the same nodes split the unfocused walk in
        // two, each in the unfocused order: what local search's polish
        // pass skips is exactly what its bottleneck pass scored.
        for nodes in [
            &[n(2)][..],
            &[n(1)],
            &[n(0), n(2)],
            &[n(0), n(1), n(2)],
            &[],
        ] {
            let hosted = |(_, cand): &(Move, Mapping)| {
                let stage = m.diff(cand)[0];
                nodes.iter().any(|&node| m.placement(stage).contains(node))
            };
            let (on, off): (Vec<_>, Vec<_>) = all.iter().cloned().partition(hosted);
            let only = walk(Focus::Only(nodes));
            let except = walk(Focus::Except(nodes));
            assert_eq!(only, on, "{nodes:?}");
            assert_eq!(except, off, "{nodes:?}");
            assert!(only.iter().all(|c| !except.contains(c)), "{nodes:?}");
            assert_eq!(only.len() + except.len(), all.len(), "{nodes:?}");
        }
    }

    #[test]
    fn a_move_and_its_undo_restore_the_mapping() {
        let start = Mapping::new(vec![
            Placement::single(n(3)),
            Placement::replicated(vec![n(0), n(2)]),
        ]);
        for mv in [
            Move::Rehost { stage: 0, to: n(1) },
            Move::AddReplica {
                stage: 1,
                node: n(1),
            },
            Move::DropReplica {
                stage: 1,
                node: n(0),
            },
        ] {
            let mut m = start.clone();
            let undo = mv.apply(&mut m);
            assert_ne!(m, start, "{mv:?}");
            undo.apply(&mut m);
            assert_eq!(m, start, "{mv:?}");
        }
    }

    #[test]
    fn max_width_caps_replication() {
        let m = Mapping::new(vec![Placement::replicated(vec![n(0), n(1)])]);
        let nb = neighbours(&m, 4, &[true], &[usize::MAX], 2, Focus::All);
        assert!(nb.iter().all(|(mv, _)| !is_add(mv)));
    }

    #[test]
    fn declared_replica_cap_caps_replication() {
        // Global max_width would allow widening, but the stage's
        // declared bound of 1 forbids it.
        let m = Mapping::from_assignment(&[n(0)]);
        let nb = neighbours(&m, 4, &[true], &[1], 4, Focus::All);
        assert!(nb.iter().all(|(mv, _)| !is_add(mv)));
        // A cap of 2 admits replicas up to width 2 and no further.
        let nb = neighbours(&m, 4, &[true], &[2], 4, Focus::All);
        assert!(nb.iter().any(|(mv, _)| is_add(mv)));
        let wide = Mapping::new(vec![Placement::replicated(vec![n(0), n(1)])]);
        let nb = neighbours(&wide, 4, &[true], &[2], 4, Focus::All);
        assert!(nb.iter().all(|(mv, _)| !is_add(mv)));
    }
}
