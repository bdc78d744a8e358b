//! Stage graphs: the shape of a pipeline, as a DAG.
//!
//! A [`StageGraph`] is a directed acyclic graph over flattened stage
//! ids and nothing else: every stage has an ordered predecessor list (a
//! stage with several predecessors *joins* their outputs, one slot per
//! input edge) and an ordered successor list (a stage with several
//! consumers *fans out* a copy of its output to each). There is one
//! constructor. [`DagGraphBuilder`] wires edges by id;
//! [`StageGraphBuilder`] (chains and parallel blocks) and
//! [`StageGraph::linear`] are sugar that emits the same edges, so a
//! sugar-built graph *equals* the graph wired edge by edge, and every
//! layer above — model, planner, both engines — has one topology to
//! walk.
//!
//! Two derived groupings drive the engines:
//!
//! * **fan blocks** — the fan-out points: the pipeline input when it
//!   feeds several entry stages, and every stage with two or more
//!   successors. Numbered with the entry fan-out first (when present),
//!   then by source stage id, so the blocks of a sugar-built graph are
//!   numbered in declaration order.
//! * **join blocks** — the stages with two or more predecessors, in id
//!   order (the merge stages of a sugar-built graph, in block order).
//!
//! The graph answers the questions the other layers ask:
//!
//! * the model: which directed edges carry data, and in what order can
//!   the stages be walked ([`StageGraph::preds`],
//!   [`StageGraph::topo_order`]);
//! * the engines: where does an item go after finishing a stage
//!   ([`StageGraph::after`], [`StageGraph::entry`],
//!   [`StageGraph::fan_targets`]);
//! * observability: which branch a stage belongs to
//!   ([`StageGraph::branch_of`]), stage fan-in/fan-out degrees.
//!
//! Wiring is validated with typed [`GraphError`]s (cycles, unreachable
//! stages, mis-wired edges) instead of panics — the facade maps these
//! onto its `BuildError`s.

/// Where an item goes after finishing a stage (or entering the
/// pipeline).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Next {
    /// Forward to this stage.
    Stage(usize),
    /// Fan out: one copy to every target of fan block `block` (see
    /// [`StageGraph::fan_targets`]).
    FanOut {
        /// Index of the fan block (parallel block on sugar graphs).
        block: usize,
    },
    /// The finished stage feeds one input slot of a joining stage: its
    /// output waits for the join's other inputs.
    Join {
        /// Index of the join block (parallel block on sugar graphs).
        block: usize,
        /// Input slot within the join (branch index on sugar graphs).
        branch: usize,
    },
    /// The finished stage was the last: the item is a pipeline output.
    Done,
}

/// One target of a fan block: the consuming stage, plus the join input
/// slot when the consumer joins several inputs (a producer may feed one
/// slot of a downstream join directly).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FanTarget {
    /// The consuming stage.
    pub stage: usize,
    /// `Some(slot)` when the consumer is a joining stage and this copy
    /// fills input slot `slot`; `None` for a single-input consumer.
    pub slot: Option<usize>,
}

/// Typed validation errors of an explicitly wired DAG
/// ([`DagGraphBuilder::build`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The graph has no stages.
    Empty,
    /// An edge names a stage outside `0..stages`.
    StageOutOfRange {
        /// The offending stage id.
        stage: usize,
        /// The declared stage count.
        stages: usize,
    },
    /// An edge from a stage to itself.
    SelfEdge {
        /// The offending stage id.
        stage: usize,
    },
    /// The same edge was declared twice (a join takes each producer
    /// once; duplicate wiring is a mis-wire, not a wider join).
    DuplicateEdge {
        /// Edge source.
        from: usize,
        /// Edge target.
        to: usize,
    },
    /// The edges contain a cycle through this stage.
    Cycle {
        /// A stage on the cycle.
        stage: usize,
    },
    /// A stage is not reachable from any entry stage.
    Unreachable {
        /// The unreachable stage.
        stage: usize,
    },
    /// More than one stage has no consumer; a pipeline has one output.
    MultipleExits {
        /// The stages with no outgoing edge.
        exits: Vec<usize>,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Empty => write!(f, "graph has no stages"),
            GraphError::StageOutOfRange { stage, stages } => {
                write!(f, "edge names stage {stage}, but only {stages} exist")
            }
            GraphError::SelfEdge { stage } => write!(f, "stage {stage} feeds itself"),
            GraphError::DuplicateEdge { from, to } => {
                write!(f, "edge {from} → {to} declared twice")
            }
            GraphError::Cycle { stage } => {
                write!(f, "edges form a cycle through stage {stage}")
            }
            GraphError::Unreachable { stage } => {
                write!(f, "stage {stage} is unreachable from the pipeline input")
            }
            GraphError::MultipleExits { exits } => {
                write!(f, "several stages have no consumer: {exits:?}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// One fan-out point of the graph.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FanBlock {
    /// The producing stage; `None` for the pipeline-input fan-out.
    source: Option<usize>,
    /// The consumers, in edge order (branch order on sugar graphs).
    targets: Vec<FanTarget>,
}

/// The DAG shape of a pipeline over flattened stage ids `0..len()`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageGraph {
    stages: usize,
    /// Ordered predecessors per stage (join input slots).
    preds: Vec<Vec<usize>>,
    /// Ordered successors per stage (fan-out copies).
    succs: Vec<Vec<usize>>,
    /// A deterministic topological order of the stage ids (Kahn,
    /// smallest-id-first). The identity when ids are declared in
    /// dataflow order, as the sugar builders do.
    topo: Vec<usize>,
    /// Entry stages (no predecessor), in id order.
    entries: Vec<usize>,
    /// The single exit stage (no successor).
    exit: usize,
    /// Fan-out points: entry fan-out first (when the input feeds
    /// several entries), then multi-consumer stages by id.
    fan_blocks: Vec<FanBlock>,
    /// Per-stage fan block index (`Some` for multi-consumer stages).
    fan_block_of: Vec<Option<usize>>,
    /// Join stages (≥ 2 predecessors), in id order: join block → stage.
    join_stages: Vec<usize>,
    /// Per-stage join block index (`Some` for joining stages).
    join_block_of: Vec<Option<usize>>,
    /// Per-stage `(join block, slot)` label, see
    /// [`StageGraph::branch_of`].
    branch_of: Vec<Option<(usize, usize)>>,
}

impl StageGraph {
    /// `ns` stages in one chain.
    ///
    /// # Panics
    /// Panics if `ns` is zero.
    pub fn linear(ns: usize) -> Self {
        assert!(ns > 0, "pipeline needs at least one stage");
        StageGraph::builder().stages(ns).build()
    }

    /// Starts a [`StageGraphBuilder`]: chain and parallel-block sugar
    /// over the edges [`StageGraph::dag`] takes one by one.
    pub fn builder() -> StageGraphBuilder {
        StageGraphBuilder {
            edges: Vec::new(),
            cursor: 0,
            tail: None,
        }
    }

    /// Starts an explicit [`DagGraphBuilder`] over `ns` stages wired by
    /// id-addressed edges.
    pub fn dag(ns: usize) -> DagGraphBuilder {
        DagGraphBuilder {
            stages: ns,
            edges: Vec::new(),
        }
    }

    /// Builds the graph from ordered predecessor lists: the one
    /// constructor every builder ends in. A stage's successors are
    /// ordered by target id.
    fn from_preds(stages: usize, preds: Vec<Vec<usize>>) -> Result<Self, GraphError> {
        if stages == 0 {
            return Err(GraphError::Empty);
        }
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); stages];
        for (s, ps) in preds.iter().enumerate() {
            for &p in ps {
                succs[p].push(s);
            }
        }
        // Kahn topological order, smallest ready id first: deterministic,
        // and the identity when ids already follow the dataflow.
        let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(s, _)| std::cmp::Reverse(s))
            .collect();
        let mut topo = Vec::with_capacity(stages);
        while let Some(std::cmp::Reverse(s)) = ready.pop() {
            topo.push(s);
            for &t in &succs[s] {
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    ready.push(std::cmp::Reverse(t));
                }
            }
        }
        if topo.len() != stages {
            let stage = indeg.iter().position(|&d| d > 0).unwrap_or(0);
            return Err(GraphError::Cycle { stage });
        }
        let entries: Vec<usize> = (0..stages).filter(|&s| preds[s].is_empty()).collect();
        // Reachability: entry stages seed everything (an unreachable
        // stage would itself be an entry, so with edges all-reachable
        // follows — but a disconnected component shows up as extra
        // entries feeding a second exit; catch the exit case below and
        // treat an isolated never-consuming, never-producing island as
        // unreachable only when it cannot reach the exit).
        let exits: Vec<usize> = (0..stages).filter(|&s| succs[s].is_empty()).collect();
        if exits.len() > 1 {
            // A stage with no edges at all is a declared-but-unwired
            // island: report it as unreachable (the more actionable
            // diagnosis) when the rest of the graph has a unique exit.
            let isolated: Vec<usize> = exits
                .iter()
                .copied()
                .filter(|&s| preds[s].is_empty() && succs[s].is_empty())
                .collect();
            if exits.len() - isolated.len() == 1 {
                return Err(GraphError::Unreachable { stage: isolated[0] });
            }
            return Err(GraphError::MultipleExits { exits });
        }
        let exit = exits[0];
        // Every stage must lie on some input→exit path; since each
        // non-entry stage has a predecessor and each non-exit stage a
        // successor, walking backwards from the exit covers exactly the
        // stages that can influence the output.
        let mut on_path = vec![false; stages];
        let mut stack = vec![exit];
        while let Some(s) = stack.pop() {
            if on_path[s] {
                continue;
            }
            on_path[s] = true;
            stack.extend(preds[s].iter().copied());
        }
        if let Some(stage) = (0..stages).find(|&s| !on_path[s]) {
            return Err(GraphError::Unreachable { stage });
        }
        let join_stages: Vec<usize> = (0..stages).filter(|&s| preds[s].len() >= 2).collect();
        let mut join_block_of = vec![None; stages];
        for (b, &s) in join_stages.iter().enumerate() {
            join_block_of[s] = Some(b);
        }
        let slot_of = |from: usize, to: usize| -> Option<usize> {
            if preds[to].len() >= 2 {
                Some(
                    preds[to]
                        .iter()
                        .position(|&p| p == from)
                        .expect("succ edge mirrors a pred edge"),
                )
            } else {
                None
            }
        };
        // Fan blocks: entry fan-out first, then multi-consumer stages
        // by id.
        let mut fan_blocks = Vec::new();
        let mut fan_block_of = vec![None; stages];
        if entries.len() >= 2 {
            fan_blocks.push(FanBlock {
                source: None,
                targets: entries
                    .iter()
                    .map(|&e| FanTarget {
                        stage: e,
                        slot: None, // an entry has no predecessors
                    })
                    .collect(),
            });
        }
        for s in 0..stages {
            if succs[s].len() >= 2 {
                fan_block_of[s] = Some(fan_blocks.len());
                fan_blocks.push(FanBlock {
                    source: Some(s),
                    targets: succs[s]
                        .iter()
                        .map(|&t| FanTarget {
                            stage: t,
                            slot: slot_of(s, t),
                        })
                        .collect(),
                });
            }
        }
        // Branch labels, exit side first: a stage inherits the label of
        // its sole consumer unless that consumer is the join itself.
        let mut branch_of = vec![None; stages];
        for &s in topo.iter().rev() {
            if preds[s].len() > 1 {
                continue;
            }
            if let &[t] = succs[s].as_slice() {
                branch_of[s] = match join_block_of[t] {
                    Some(block) => slot_of(s, t).map(|slot| (block, slot)),
                    None => branch_of[t],
                };
            }
        }
        Ok(StageGraph {
            stages,
            preds,
            succs,
            topo,
            entries,
            exit,
            fan_blocks,
            fan_block_of,
            join_stages,
            join_block_of,
            branch_of,
        })
    }

    /// Number of stages (flattened, merge stages included).
    #[allow(clippy::len_without_is_empty)] // a graph is never empty
    pub fn len(&self) -> usize {
        self.stages
    }

    /// True if the graph is a single chain `0 → 1 → … → len() − 1`.
    pub fn is_linear(&self) -> bool {
        self.entries == [0] && (0..self.stages.saturating_sub(1)).all(|s| self.succs[s] == [s + 1])
    }

    /// Number of fan blocks (parallel blocks on sugar graphs): one
    /// duplicator is needed per fan block.
    pub fn blocks(&self) -> usize {
        self.fan_blocks.len()
    }

    /// Number of join blocks (equal to [`StageGraph::blocks`] on sugar
    /// graphs, independent on explicit DAGs).
    pub fn join_blocks(&self) -> usize {
        self.join_stages.len()
    }

    /// The targets of fan block `block`, in edge order: each carries
    /// the consuming stage and, when that consumer joins several
    /// inputs, the slot this copy fills.
    pub fn fan_targets(&self, block: usize) -> &[FanTarget] {
        &self.fan_blocks[block].targets
    }

    /// The producing stage of fan block `block`; `None` for the
    /// pipeline-input fan-out (the input feeds several entry stages).
    pub fn fan_source(&self, block: usize) -> Option<usize> {
        self.fan_blocks[block].source
    }

    /// Number of input slots join block `block` assembles per item.
    pub fn join_width(&self, block: usize) -> usize {
        self.preds[self.join_stages[block]].len()
    }

    /// The joining stage of join block `block` (the merge stage on
    /// sugar graphs).
    pub fn merge_of(&self, block: usize) -> usize {
        self.join_stages[block]
    }

    /// Ordered predecessors of `stage` (its join input slots).
    pub fn preds(&self, stage: usize) -> &[usize] {
        &self.preds[stage]
    }

    /// A deterministic topological order of the stage ids (the
    /// identity permutation on sugar-built graphs).
    pub fn topo_order(&self) -> &[usize] {
        &self.topo
    }

    /// Entry stages (fed by the pipeline input), in id order.
    pub fn entries(&self) -> &[usize] {
        &self.entries
    }

    /// The single exit stage (the pipeline output).
    pub fn exit(&self) -> usize {
        self.exit
    }

    /// The `(join block, input slot)` whose branch contains `stage`:
    /// `Some` when `stage` lies on a run of single-input,
    /// single-consumer stages that ends in that join slot — on sugar
    /// graphs exactly the stages declared inside a parallel block's
    /// branch. Stages that fan out, join (a merge runs after the join
    /// and belongs to no single branch), or lead anywhere else report
    /// `None`.
    pub fn branch_of(&self, stage: usize) -> Option<(usize, usize)> {
        self.branch_of[stage]
    }

    /// True if `stage` joins several inputs; returns its join block
    /// index (the parallel block on sugar graphs).
    pub fn merge_block_of(&self, stage: usize) -> Option<usize> {
        self.join_block_of[stage]
    }

    /// Where the pipeline input goes: the single entry stage, or fan
    /// block 0 when the input feeds several entries.
    pub fn entry(&self) -> Next {
        if self.entries.len() == 1 {
            Next::Stage(self.entries[0])
        } else {
            Next::FanOut { block: 0 }
        }
    }

    /// Where an item goes after finishing `stage`.
    ///
    /// # Panics
    /// Panics if `stage` is out of range.
    pub fn after(&self, stage: usize) -> Next {
        assert!(stage < self.stages, "stage {stage} out of range");
        match self.succs[stage].as_slice() {
            [] => Next::Done,
            &[t] => match self.join_block_of[t] {
                Some(block) => Next::Join {
                    block,
                    branch: self.preds[t]
                        .iter()
                        .position(|&p| p == stage)
                        .expect("succ edge mirrors a pred edge"),
                },
                None => Next::Stage(t),
            },
            _ => Next::FanOut {
                block: self.fan_block_of[stage].expect("multi-consumer stage has a fan block"),
            },
        }
    }

    /// Bytes carried into `stage` per item, given the pipeline's
    /// boundary sizes (`boundary_bytes[0]` = input bytes,
    /// `boundary_bytes[s + 1]` = stage `s`'s output bytes). A joining
    /// stage's input is the largest predecessor output — the
    /// conservative size for forwarding a single in-transit payload.
    ///
    /// # Panics
    /// Panics if `stage` is out of range.
    pub fn feed_bytes(&self, stage: usize, boundary_bytes: &[u64]) -> u64 {
        self.preds[stage]
            .iter()
            .map(|&p| boundary_bytes[p + 1])
            .max()
            .unwrap_or(boundary_bytes[0])
    }

    /// Every directed edge `(from, to)` of the graph, in target-slot
    /// order: the model walks these for edge-wise link costs.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.stages).flat_map(move |s| self.preds[s].iter().map(move |&p| (p, s)))
    }

    /// Checks the graph covers exactly `ns` stages (the DAG invariants
    /// hold by construction).
    ///
    /// # Panics
    /// Panics on a mismatch.
    pub fn validate(&self, ns: usize) {
        assert_eq!(
            self.stages, ns,
            "graph covers {} stages, need {ns}",
            self.stages
        );
    }
}

/// Series-parallel sugar over [`DagGraphBuilder`]: stages are numbered
/// in declaration order (inside a block: branch 0's stages, branch 1's,
/// …, then the merge) and every call appends the edges it implies.
///
/// ```
/// use adapipe_mapper::graph::StageGraph;
///
/// // decode → (analyze ‖ thumbnail) → merge → pack
/// let g = StageGraph::builder().stages(1).split(&[1, 1]).stages(1).build();
/// assert_eq!(g.len(), 5);
/// assert!(!g.is_linear());
/// assert_eq!(g.merge_of(0), 3);
/// let wired = StageGraph::dag(5)
///     .edge(0, 1)
///     .edge(0, 2)
///     .edge(1, 3)
///     .edge(2, 3)
///     .edge(3, 4)
///     .build()
///     .unwrap();
/// assert_eq!(g, wired);
/// ```
#[derive(Clone, Debug)]
pub struct StageGraphBuilder {
    edges: Vec<(usize, usize)>,
    /// Next stage id to hand out.
    cursor: usize,
    /// The stage whose output feeds whatever is appended next; `None`
    /// while the graph is empty (the next stages are entry stages).
    tail: Option<usize>,
}

impl StageGraphBuilder {
    /// The stage whose output the next appended stage (or block)
    /// consumes; `None` on an empty builder.
    pub fn tail(&self) -> Option<usize> {
        self.tail
    }

    /// Declares one stage fed by `from` (an entry stage when `None`).
    fn push(&mut self, from: Option<usize>) -> usize {
        let stage = self.cursor;
        self.cursor += 1;
        self.edges.extend(from.map(|p| (p, stage)));
        stage
    }

    /// Appends `k` series stages.
    pub fn stages(mut self, k: usize) -> Self {
        for _ in 0..k {
            self.tail = Some(self.push(self.tail));
        }
        self
    }

    /// Appends a parallel block whose branches have the given stage
    /// counts, followed by its merge stage.
    ///
    /// # Panics
    /// Panics with fewer than two branches or an empty branch.
    pub fn split(mut self, branch_lens: &[usize]) -> Self {
        assert!(
            branch_lens.len() >= 2,
            "a parallel block needs at least two branches"
        );
        assert!(
            branch_lens.iter().all(|&len| len > 0),
            "branch must be non-empty"
        );
        let mut lasts = Vec::with_capacity(branch_lens.len());
        for &len in branch_lens {
            let mut prev = self.tail;
            for _ in 0..len {
                prev = Some(self.push(prev));
            }
            lasts.extend(prev);
        }
        let merge = self.push(None);
        self.edges.extend(lasts.into_iter().map(|l| (l, merge)));
        self.tail = Some(merge);
        self
    }

    /// Finalises the graph.
    ///
    /// # Panics
    /// Panics if no stage was added.
    pub fn build(self) -> StageGraph {
        assert!(self.cursor > 0, "graph needs at least one stage");
        DagGraphBuilder {
            stages: self.cursor,
            edges: self.edges,
        }
        .build()
        .expect("chain and block sugar always wires a valid DAG")
    }
}

/// Explicit DAG construction: `ns` stages wired by id-addressed edges.
/// A stage receiving several edges joins its inputs, one slot per edge
/// in declaration order; a stage feeding several edges fans a copy out
/// to each consumer, in consumer-id order. Typed wiring (and duplicate-name
/// rejection) lives in the facade, whose stage handles carry the ids
/// it wires here.
///
/// ```
/// use adapipe_mapper::graph::StageGraph;
///
/// // fetch → {parse, audit} → join (a diamond)
/// let g = StageGraph::dag(4)
///     .edge(0, 1)
///     .edge(0, 2)
///     .edge(1, 3)
///     .edge(2, 3)
///     .build()
///     .unwrap();
/// assert_eq!(g.join_width(0), 2);
/// assert_eq!(g.topo_order(), &[0, 1, 2, 3]);
/// ```
#[derive(Clone, Debug)]
pub struct DagGraphBuilder {
    stages: usize,
    edges: Vec<(usize, usize)>,
}

impl DagGraphBuilder {
    /// Declares a data edge: `from`'s output feeds `to`. The slot order
    /// of a join follows edge declaration order.
    pub fn edge(mut self, from: usize, to: usize) -> Self {
        self.edges.push((from, to));
        self
    }

    /// Validates the wiring and builds the graph.
    ///
    /// # Errors
    /// Typed [`GraphError`]s: out-of-range or self-referential edges,
    /// duplicate edges, cycles, unreachable stages, several exits.
    pub fn build(self) -> Result<StageGraph, GraphError> {
        if self.stages == 0 {
            return Err(GraphError::Empty);
        }
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); self.stages];
        for &(from, to) in &self.edges {
            for stage in [from, to] {
                if stage >= self.stages {
                    return Err(GraphError::StageOutOfRange {
                        stage,
                        stages: self.stages,
                    });
                }
            }
            if from == to {
                return Err(GraphError::SelfEdge { stage: from });
            }
            if preds[to].contains(&from) {
                return Err(GraphError::DuplicateEdge { from, to });
            }
            preds[to].push(from);
        }
        StageGraph::from_preds(self.stages, preds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// pre → (a0 a1 ‖ b0) → merge → post  ⇒ ids 0 | 1 2 | 3 | 4 | 5
    fn sample() -> StageGraph {
        StageGraph::builder()
            .stages(1)
            .split(&[2, 1])
            .stages(1)
            .build()
    }

    #[test]
    fn linear_graph_is_the_degenerate_chain() {
        let g = StageGraph::linear(3);
        g.validate(3);
        assert!(g.is_linear());
        assert_eq!(g.len(), 3);
        assert_eq!(g.blocks(), 0);
        assert_eq!(g.entry(), Next::Stage(0));
        assert_eq!(g.after(0), Next::Stage(1));
        assert_eq!(g.after(2), Next::Done);
        assert_eq!(g.preds(0), &[] as &[usize]);
        assert_eq!(g.preds(2), &[1]);
        assert_eq!(g.branch_of(1), None);
        assert_eq!(g.topo_order(), &[0, 1, 2]);
        assert_eq!(g.exit(), 2);
    }

    #[test]
    fn sample_graph_flattens_and_navigates() {
        let g = sample();
        g.validate(6);
        assert!(!g.is_linear());
        assert_eq!(g.blocks(), 1);
        assert_eq!(g.join_width(0), 2);
        assert_eq!(g.merge_of(0), 4);
        assert_eq!(g.merge_block_of(4), Some(0));
        assert_eq!(g.merge_block_of(1), None);

        assert_eq!(g.entry(), Next::Stage(0));
        assert_eq!(g.after(0), Next::FanOut { block: 0 });
        assert_eq!(g.after(1), Next::Stage(2));
        assert_eq!(
            g.after(2),
            Next::Join {
                block: 0,
                branch: 0
            }
        );
        assert_eq!(
            g.after(3),
            Next::Join {
                block: 0,
                branch: 1
            }
        );
        assert_eq!(g.after(4), Next::Stage(5));
        assert_eq!(g.after(5), Next::Done);

        assert_eq!(g.preds(1), &[0]);
        assert_eq!(g.preds(2), &[1]);
        assert_eq!(g.preds(3), &[0]);
        assert_eq!(g.preds(4), &[2, 3]);
        assert_eq!(g.preds(5), &[4]);

        assert_eq!(g.branch_of(0), None);
        assert_eq!(g.branch_of(1), Some((0, 0)));
        assert_eq!(g.branch_of(2), Some((0, 0)));
        assert_eq!(g.branch_of(3), Some((0, 1)));
        assert_eq!(g.branch_of(4), None);

        assert_eq!(g.topo_order(), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(
            g.fan_targets(0),
            &[
                FanTarget {
                    stage: 1,
                    slot: None
                },
                FanTarget {
                    stage: 3,
                    slot: None
                }
            ]
        );
    }

    #[test]
    fn graph_may_open_and_close_with_a_block() {
        // (a ‖ b) → merge : ids 0 | 1 | 2
        let g = StageGraph::builder().split(&[1, 1]).build();
        g.validate(3);
        assert_eq!(g.entry(), Next::FanOut { block: 0 });
        assert_eq!(g.after(2), Next::Done);
        assert_eq!(g.entries(), &[0, 1]);
        assert_eq!(g.branch_of(0), Some((0, 0)));
        assert_eq!(g.branch_of(1), Some((0, 1)));
    }

    #[test]
    fn consecutive_blocks_chain_through_their_merges() {
        // (a ‖ b) → m0 → (c ‖ d) → m1 : ids 0 1 | 2 | 3 4 | 5
        let g = StageGraph::builder().split(&[1, 1]).split(&[1, 1]).build();
        g.validate(6);
        assert_eq!(g.blocks(), 2);
        assert_eq!(g.after(2), Next::FanOut { block: 1 });
        assert_eq!(g.preds(3), &[2]);
        assert_eq!(g.merge_of(1), 5);
        assert_eq!(g.branch_of(4), Some((1, 1)));
    }

    #[test]
    fn feed_bytes_follow_graph_edges() {
        let g = sample();
        // input 100; out bytes per stage: 10, 20, 30, 40, 50, 60.
        let boundary = [100, 10, 20, 30, 40, 50, 60];
        assert_eq!(g.feed_bytes(0, &boundary), 100);
        assert_eq!(
            g.feed_bytes(1, &boundary),
            10,
            "branch entry gets pre-stage bytes"
        );
        assert_eq!(
            g.feed_bytes(3, &boundary),
            10,
            "each branch gets the same feed"
        );
        assert_eq!(
            g.feed_bytes(4, &boundary),
            40,
            "merge: largest branch output"
        );
        assert_eq!(g.feed_bytes(5, &boundary), 50);
    }

    #[test]
    #[should_panic(expected = "at least two branches")]
    fn single_branch_split_panics() {
        let _ = StageGraph::builder().split(&[2]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_branch_panics() {
        let _ = StageGraph::builder().split(&[1, 0]);
    }

    #[test]
    fn validate_rejects_wrong_stage_count() {
        let g = sample();
        let result = std::panic::catch_unwind(|| g.validate(7));
        assert!(result.is_err());
    }

    /// fetch → {parse, audit} → join : ids 0, 1, 2, 3
    fn diamond() -> StageGraph {
        StageGraph::dag(4)
            .edge(0, 1)
            .edge(0, 2)
            .edge(1, 3)
            .edge(2, 3)
            .build()
            .unwrap()
    }

    #[test]
    fn diamond_dag_navigates_like_a_block() {
        let g = diamond();
        assert!(!g.is_linear());
        assert_eq!(g, StageGraph::builder().stages(1).split(&[1, 1]).build());
        assert_eq!(g.entry(), Next::Stage(0));
        assert_eq!(g.after(0), Next::FanOut { block: 0 });
        assert_eq!(
            g.after(1),
            Next::Join {
                block: 0,
                branch: 0
            }
        );
        assert_eq!(
            g.after(2),
            Next::Join {
                block: 0,
                branch: 1
            }
        );
        assert_eq!(g.after(3), Next::Done);
        assert_eq!(g.preds(3), &[1, 2]);
        assert_eq!(g.merge_of(0), 3);
        assert_eq!(g.merge_block_of(3), Some(0));
        assert_eq!(g.branch_of(1), Some((0, 0)));
        assert_eq!(g.branch_of(2), Some((0, 1)));
        assert_eq!(g.join_width(0), 2);
        assert_eq!(g.exit(), 3);
    }

    #[test]
    fn shortcut_edge_feeds_a_join_slot_directly() {
        // a → {b, join}; b → join: the fan-out's second copy fills the
        // join's slot directly.
        let g = StageGraph::dag(3)
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .build()
            .unwrap();
        assert_eq!(g.after(0), Next::FanOut { block: 0 });
        assert_eq!(
            g.fan_targets(0),
            &[
                FanTarget {
                    stage: 1,
                    slot: None
                },
                FanTarget {
                    stage: 2,
                    slot: Some(1)
                }
            ]
        );
        assert_eq!(g.preds(2), &[1, 0]);
        assert_eq!(g.branch_of(1), Some((0, 0)));
        assert_eq!(g.branch_of(0), None, "the fan-out source is on no branch");
        assert_eq!(g.topo_order(), &[0, 1, 2]);
    }

    #[test]
    fn dag_with_declared_but_unused_middle_stage_is_unreachable() {
        // 0 → 2, stage 1 exists but feeds/reads nothing.
        let err = StageGraph::dag(3).edge(0, 2).build().unwrap_err();
        assert_eq!(err, GraphError::Unreachable { stage: 1 });
    }

    #[test]
    fn dag_rejects_cycles_and_self_edges_and_duplicates() {
        assert!(matches!(
            StageGraph::dag(2)
                .edge(0, 1)
                .edge(1, 0)
                .build()
                .unwrap_err(),
            GraphError::Cycle { .. }
        ));
        assert_eq!(
            StageGraph::dag(2).edge(0, 0).build().unwrap_err(),
            GraphError::SelfEdge { stage: 0 }
        );
        assert_eq!(
            StageGraph::dag(2)
                .edge(0, 1)
                .edge(0, 1)
                .build()
                .unwrap_err(),
            GraphError::DuplicateEdge { from: 0, to: 1 }
        );
        assert_eq!(
            StageGraph::dag(2).edge(0, 3).build().unwrap_err(),
            GraphError::StageOutOfRange {
                stage: 3,
                stages: 2
            }
        );
    }

    #[test]
    fn dag_rejects_multiple_exits() {
        let err = StageGraph::dag(3)
            .edge(0, 1)
            .edge(0, 2)
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::MultipleExits { exits: vec![1, 2] });
    }

    #[test]
    fn out_of_declaration_order_edges_still_topo_sort() {
        // 2 → 0 → 1: declaration order is not topological order.
        let g = StageGraph::dag(3).edge(2, 0).edge(0, 1).build().unwrap();
        assert_eq!(g.topo_order(), &[2, 0, 1]);
        assert_eq!(g.entries(), &[2]);
        assert_eq!(g.exit(), 1);
        assert_eq!(g.entry(), Next::Stage(2));
    }

    #[test]
    fn edges_enumerate_every_wire() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn sugar_graphs_equal_their_edge_wired_twins() {
        let wired = StageGraph::dag(6)
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 3)
            .edge(2, 4)
            .edge(3, 4)
            .edge(4, 5)
            .build()
            .unwrap();
        assert_eq!(sample(), wired);
        let chain = StageGraph::dag(3).edge(0, 1).edge(1, 2).build().unwrap();
        assert_eq!(StageGraph::linear(3), chain);
        assert!(chain.is_linear());
    }

    #[test]
    fn join_width_and_fan_width_are_independent() {
        // 0 → {1, 2, 3}; {1, 2} → 4; {3, 4} → 5: fan block 0 is three
        // wide while join block 0 (stage 4) assembles two slots.
        let g = StageGraph::dag(6)
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .edge(1, 4)
            .edge(2, 4)
            .edge(3, 5)
            .edge(4, 5)
            .build()
            .unwrap();
        assert_eq!(g.fan_targets(0).len(), 3);
        assert_eq!(g.join_width(0), 2);
        assert_eq!(g.merge_of(1), 5);
        assert_eq!(g.join_width(1), 2);
        assert_eq!(g.branch_of(3), Some((1, 0)));
    }

    #[test]
    fn tail_follows_what_was_appended_last() {
        let b = StageGraph::builder();
        assert_eq!(b.tail(), None, "the next stages are entry stages");
        let b = b.stages(2);
        assert_eq!(b.tail(), Some(1));
        let b = b.split(&[2, 1]);
        assert_eq!(b.tail(), Some(5), "a parallel block hands on its merge");
        let g = b.stages(1).build();
        assert_eq!(g.preds(6), &[5]);
        assert_eq!(g.exit(), 6);
    }
}
