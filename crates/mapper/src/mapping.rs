//! Stage-to-processor mappings.
//!
//! A [`Mapping`] records, for every pipeline stage, the set of grid nodes
//! hosting it. One host is the common case; multiple hosts mean the stage
//! is *replicated* (legal only for stages whose declared state is
//! replicable — stateless, keyed or accumulator; enforced by the planner
//! and the builders' mapping validation, not by this type) with items
//! dealt round-robin among the hosts, or by shard for keyed state.
//! Consecutive stages sharing a host are *coalesced*: items move between
//! them without touching the network.

use adapipe_gridsim::node::NodeId;
use std::fmt;

/// The hosts of one stage. Invariant: non-empty, sorted, deduplicated.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Placement {
    hosts: Vec<NodeId>,
}

impl Placement {
    /// A stage hosted on a single node.
    pub fn single(node: NodeId) -> Self {
        Placement { hosts: vec![node] }
    }

    /// A stage replicated over `hosts`.
    ///
    /// # Panics
    /// Panics if `hosts` is empty. Duplicates are removed.
    pub fn replicated(mut hosts: Vec<NodeId>) -> Self {
        assert!(!hosts.is_empty(), "placement needs at least one host");
        hosts.sort_unstable();
        hosts.dedup();
        Placement { hosts }
    }

    /// The hosts, sorted by node id.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Number of replicas (≥ 1).
    pub fn width(&self) -> usize {
        self.hosts.len()
    }

    /// True if the stage runs on exactly one node.
    pub fn is_single(&self) -> bool {
        self.hosts.len() == 1
    }

    /// The lowest-numbered host; the stage's "home" for migration
    /// accounting.
    pub fn primary(&self) -> NodeId {
        self.hosts[0]
    }

    /// True if `node` hosts this stage.
    pub fn contains(&self, node: NodeId) -> bool {
        self.hosts.binary_search(&node).is_ok()
    }

    /// Moves a single-host stage to `node`, in place.
    ///
    /// # Panics
    /// Panics if the stage is replicated.
    pub(crate) fn rehost(&mut self, node: NodeId) {
        assert!(
            self.is_single(),
            "only a single-host stage can be re-hosted"
        );
        self.hosts[0] = node;
    }

    /// Adds a replica host; no-op if already present.
    pub fn add_host(&mut self, node: NodeId) {
        if let Err(pos) = self.hosts.binary_search(&node) {
            self.hosts.insert(pos, node);
        }
    }

    /// Removes a replica host; no-op if absent.
    ///
    /// # Panics
    /// Panics if this would leave the placement empty.
    pub(crate) fn remove_host(&mut self, node: NodeId) {
        if let Ok(pos) = self.hosts.binary_search(&node) {
            assert!(
                self.hosts.len() > 1,
                "cannot remove the last host of a stage"
            );
            self.hosts.remove(pos);
        }
    }
}

impl fmt::Debug for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hosts.len() == 1 {
            write!(f, "{}", self.hosts[0])
        } else {
            write!(f, "{{")?;
            for (i, h) in self.hosts.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{h}")?;
            }
            write!(f, "}}")
        }
    }
}

/// A complete stage-to-node mapping for a pipeline of `len()` stages.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Mapping {
    placements: Vec<Placement>,
}

impl Mapping {
    /// Builds a mapping from per-stage placements.
    ///
    /// # Panics
    /// Panics if `placements` is empty.
    pub fn new(placements: Vec<Placement>) -> Self {
        assert!(!placements.is_empty(), "mapping needs at least one stage");
        Mapping { placements }
    }

    /// One node per stage, no replication: `assignment[s]` hosts stage `s`.
    pub fn from_assignment(assignment: &[NodeId]) -> Self {
        Mapping::new(assignment.iter().map(|&n| Placement::single(n)).collect())
    }

    /// The classic static mapping: stage `s` on node `s % np`.
    pub fn round_robin(stages: usize, np: usize) -> Self {
        assert!(stages > 0 && np > 0);
        Mapping::from_assignment(&(0..stages).map(|s| NodeId(s % np)).collect::<Vec<_>>())
    }

    /// Every stage on one node (the fully coalesced mapping).
    pub fn all_on(node: NodeId, stages: usize) -> Self {
        assert!(stages > 0);
        Mapping::from_assignment(&vec![node; stages])
    }

    /// Overwrites the mapping with one node per stage, no replication,
    /// reusing the placements' storage.
    ///
    /// # Panics
    /// Panics if `assignment` covers a different number of stages.
    pub(crate) fn assign(&mut self, assignment: &[NodeId]) {
        assert_eq!(assignment.len(), self.len(), "one node per stage");
        for (placement, &node) in self.placements.iter_mut().zip(assignment) {
            placement.hosts.clear();
            placement.hosts.push(node);
        }
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// True if the mapping covers no stages (not constructible).
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Placement of stage `s`.
    pub fn placement(&self, s: usize) -> &Placement {
        &self.placements[s]
    }

    /// Mutable placement of stage `s`.
    pub fn placement_mut(&mut self, s: usize) -> &mut Placement {
        &mut self.placements[s]
    }

    /// All placements in stage order.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Iterator over every node used by any stage, deduplicated.
    pub fn nodes_used(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .placements
            .iter()
            .flat_map(|p| p.hosts().iter().copied())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// The stages whose placement differs between `self` and `other` —
    /// the stages a re-mapping must migrate.
    ///
    /// # Panics
    /// Panics if the mappings have different stage counts.
    pub fn diff(&self, other: &Mapping) -> Vec<usize> {
        assert_eq!(
            self.len(),
            other.len(),
            "mappings cover different pipelines"
        );
        (0..self.len())
            .filter(|&s| self.placements[s] != other.placements[s])
            .collect()
    }

    /// Parses the tuple notation produced by [`Mapping::notation`]:
    /// `(n0 n0 n2)` or `(n0 {n1,n2} n3)`. Whitespace between placements
    /// is flexible; node ids must be `n<digits>`.
    ///
    /// # Errors
    /// Returns a description of the first malformed token.
    pub fn parse(text: &str) -> Result<Mapping, String> {
        let inner = text
            .trim()
            .strip_prefix('(')
            .and_then(|t| t.strip_suffix(')'))
            .ok_or_else(|| format!("mapping must be parenthesised: {text:?}"))?;
        let parse_node = |tok: &str| -> Result<NodeId, String> {
            let digits = tok
                .strip_prefix('n')
                .ok_or_else(|| format!("node id must start with 'n': {tok:?}"))?;
            digits
                .parse::<usize>()
                .map(NodeId)
                .map_err(|_| format!("bad node index in {tok:?}"))
        };
        let mut placements = Vec::new();
        let mut rest = inner.trim();
        while !rest.is_empty() {
            if let Some(tail) = rest.strip_prefix('{') {
                let end = tail
                    .find('}')
                    .ok_or_else(|| format!("unterminated replica set in {text:?}"))?;
                let hosts = tail[..end]
                    .split(',')
                    .map(|t| parse_node(t.trim()))
                    .collect::<Result<Vec<_>, _>>()?;
                if hosts.is_empty() {
                    return Err(format!("empty replica set in {text:?}"));
                }
                placements.push(Placement::replicated(hosts));
                rest = tail[end + 1..].trim_start();
            } else {
                let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
                placements.push(Placement::single(parse_node(&rest[..end])?));
                rest = rest[end..].trim_start();
            }
        }
        if placements.is_empty() {
            return Err("mapping needs at least one stage".to_string());
        }
        Ok(Mapping::new(placements))
    }

    /// Compact text form, e.g. `(n0 n0 n2)` or `(n0 {n1,n2} n3)` —
    /// mirrors the tuple notation mapping studies use.
    pub fn notation(&self) -> String {
        let mut out = String::from("(");
        for (i, p) in self.placements.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&format!("{p:?}"));
        }
        out.push(')');
        out
    }
}

impl fmt::Debug for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.notation())
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.notation())
    }
}

/// A partition of stages into contiguous groups, each on one node —
/// the restricted space the DP optimiser searches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContiguousMapping {
    /// `group_end[g]` = one past the last stage of group `g`;
    /// strictly increasing, last element = stage count.
    group_end: Vec<usize>,
    /// Host of each group; same length as `group_end`.
    nodes: Vec<NodeId>,
}

impl ContiguousMapping {
    /// Builds a contiguous mapping.
    ///
    /// # Panics
    /// Panics on empty/inconsistent group structure.
    pub fn new(group_end: Vec<usize>, nodes: Vec<NodeId>) -> Self {
        assert!(!group_end.is_empty(), "need at least one group");
        assert_eq!(group_end.len(), nodes.len(), "one node per group");
        assert!(group_end[0] > 0, "first group must be non-empty");
        assert!(
            group_end.windows(2).all(|w| w[0] < w[1]),
            "group ends must be strictly increasing"
        );
        ContiguousMapping { group_end, nodes }
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.nodes.len()
    }

    /// Stage range `[start, end)` of group `g`.
    pub(crate) fn group_range(&self, g: usize) -> (usize, usize) {
        let start = if g == 0 { 0 } else { self.group_end[g - 1] };
        (start, self.group_end[g])
    }

    /// Expands to a full per-stage [`Mapping`].
    pub fn to_mapping(&self) -> Mapping {
        let stages = *self.group_end.last().expect("non-empty");
        let mut assignment = Vec::with_capacity(stages);
        for g in 0..self.groups() {
            let (start, end) = self.group_range(g);
            for _ in start..end {
                assignment.push(self.nodes[g]);
            }
        }
        Mapping::from_assignment(&assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn placement_sorts_and_dedups() {
        let p = Placement::replicated(vec![n(3), n(1), n(3)]);
        assert_eq!(p.hosts(), &[n(1), n(3)]);
        assert_eq!(p.width(), 2);
        assert_eq!(p.primary(), n(1));
        assert!(p.contains(n(3)));
        assert!(!p.contains(n(2)));
    }

    #[test]
    fn placement_add_remove_hosts() {
        let mut p = Placement::single(n(0));
        p.add_host(n(2));
        p.add_host(n(2)); // idempotent
        assert_eq!(p.hosts(), &[n(0), n(2)]);
        p.remove_host(n(0));
        assert_eq!(p.hosts(), &[n(2)]);
        p.remove_host(n(9)); // absent: no-op
        assert_eq!(p.width(), 1);
    }

    #[test]
    fn rehost_moves_a_single_host_in_place() {
        let mut p = Placement::single(n(0));
        p.rehost(n(3));
        assert_eq!(p, Placement::single(n(3)));
    }

    #[test]
    #[should_panic(expected = "single-host")]
    fn rehosting_a_replicated_stage_panics() {
        Placement::replicated(vec![n(0), n(1)]).rehost(n(2));
    }

    #[test]
    #[should_panic(expected = "last host")]
    fn removing_last_host_panics() {
        let mut p = Placement::single(n(0));
        p.remove_host(n(0));
    }

    #[test]
    fn round_robin_wraps() {
        let m = Mapping::round_robin(5, 2);
        let hosts: Vec<NodeId> = (0..5).map(|s| m.placement(s).primary()).collect();
        assert_eq!(hosts, vec![n(0), n(1), n(0), n(1), n(0)]);
    }

    #[test]
    fn assign_overwrites_every_placement() {
        let mut m = Mapping::new(vec![
            Placement::single(n(0)),
            Placement::replicated(vec![n(1), n(2)]),
        ]);
        m.assign(&[n(3), n(4)]);
        assert_eq!(m, Mapping::from_assignment(&[n(3), n(4)]));
    }

    #[test]
    fn nodes_used_deduplicates() {
        let m = Mapping::new(vec![
            Placement::single(n(2)),
            Placement::replicated(vec![n(0), n(2)]),
        ]);
        assert_eq!(m.nodes_used(), vec![n(0), n(2)]);
    }

    #[test]
    fn diff_lists_changed_stages() {
        let a = Mapping::from_assignment(&[n(0), n(1), n(2)]);
        let b = Mapping::from_assignment(&[n(0), n(2), n(2)]);
        assert_eq!(a.diff(&b), vec![1]);
        assert_eq!(a.diff(&a), Vec::<usize>::new());
    }

    #[test]
    fn notation_matches_tuple_style() {
        let m = Mapping::new(vec![
            Placement::single(n(0)),
            Placement::replicated(vec![n(1), n(2)]),
            Placement::single(n(3)),
        ]);
        assert_eq!(m.notation(), "(n0 {n1,n2} n3)");
    }

    #[test]
    fn notation_round_trips_through_parse() {
        for text in ["(n0)", "(n0 n1 n2)", "(n0 {n1,n2} n3)", "({n0,n5})"] {
            let m = Mapping::parse(text).expect(text);
            assert_eq!(m.notation(), text, "round trip of {text}");
        }
    }

    #[test]
    fn parse_tolerates_extra_whitespace() {
        let m = Mapping::parse("  ( n0   {n1, n2}  n3 ) ").unwrap();
        assert_eq!(m.notation(), "(n0 {n1,n2} n3)");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Mapping::parse("n0 n1").is_err(), "missing parens");
        assert!(Mapping::parse("(x0)").is_err(), "bad prefix");
        assert!(Mapping::parse("(n0 {n1)").is_err(), "unterminated set");
        assert!(Mapping::parse("()").is_err(), "empty mapping");
        assert!(Mapping::parse("(n)").is_err(), "missing index");
    }

    #[test]
    fn contiguous_expands_correctly() {
        // Stages 0-1 on n2, stage 2 on n0.
        let c = ContiguousMapping::new(vec![2, 3], vec![n(2), n(0)]);
        assert_eq!(c.groups(), 2);
        assert_eq!(c.group_range(0), (0, 2));
        assert_eq!(c.group_range(1), (2, 3));
        let m = c.to_mapping();
        assert_eq!(m.len(), 3);
        assert_eq!(m.placement(0).primary(), n(2));
        assert_eq!(m.placement(1).primary(), n(2));
        assert_eq!(m.placement(2).primary(), n(0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bad_group_structure_panics() {
        let _ = ContiguousMapping::new(vec![2, 2], vec![n(0), n(1)]);
    }

    #[test]
    #[should_panic(expected = "different pipelines")]
    fn diff_on_mismatched_lengths_panics() {
        let a = Mapping::from_assignment(&[n(0)]);
        let b = Mapping::from_assignment(&[n(0), n(1)]);
        let _ = a.diff(&b);
    }

    #[test]
    #[should_panic(expected = "cannot remove the last host of a stage")]
    fn removing_the_last_host_panics() {
        Placement::single(n(0)).remove_host(n(0));
    }
}
