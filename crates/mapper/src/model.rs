//! The analytic performance model.
//!
//! The adaptive pattern predicts steady-state pipeline throughput for a
//! candidate [`Mapping`] from (a) forecast per-node effective rates and
//! (b) the link cost matrix. The model is the classic bottleneck
//! argument: in steady state every item visits every stage, so each
//! resource's *busy time per item* can be summed directly, and throughput
//! is the reciprocal of the busiest resource.
//!
//! Communication is assumed overlapped with computation (links and CPUs
//! are separate resources); contention inside a link direction is what
//! the simulator adds on top, and experiment T2 quantifies the gap.
//!
//! On an interval mapping of an unreplicated chain, one interval per
//! node and identical links, this is the *overlap* model of Benoit,
//! Rehn-Sonigo and Robert. Interval `k` computes work `W_k` on a node of
//! rate `r_k`, receives `in_k` and sends `out_k`; `x/b` is the link's
//! time to carry `x`, its latency included:
//!
//! ```text
//! period  = max_k max(in_k/b, W_k/r_k, out_k/b)
//! latency = Σ_k (in_k/b + W_k/r_k) + out_last/b
//! ```
//!
//! `tests/prop.rs` holds [`evaluate`] to this closed form. Their
//! *no-overlap* model, in which a node receives, computes and sends in
//! turn, charges the same mapping a longer period, by at most a factor
//! of three:
//!
//! ```text
//! period_no_overlap = max_k (in_k/b + W_k/r_k + out_k/b)
//! ```

use crate::enumerate::Move;
use crate::graph::StageGraph;
use crate::mapping::Mapping;
use adapipe_gridsim::net::Topology;
use adapipe_gridsim::node::NodeId;
use adapipe_state::StateAccess;

/// Static per-pipeline quantities the model needs.
#[derive(Clone, Debug)]
pub struct PipelineProfile {
    /// Work units each stage spends per item (`len = Ns`).
    pub stage_work: Vec<f64>,
    /// Bytes crossing each stage boundary per item (`len = Ns + 1`):
    /// index `0` is the input arriving at the entry stage(s), index
    /// `s + 1` the output leaving stage `s`. Which boundaries become
    /// network *edges* is decided by [`PipelineProfile::graph`].
    pub boundary_bytes: Vec<u64>,
    /// The stage topology (a DAG) over flattened stage ids.
    pub graph: StageGraph,
    /// Each stage's declared state-access pattern (`len = Ns`), read in
    /// place: `replicable()` decides which stages may run more than one
    /// live instance (stateless, plus keyed or accumulator state the
    /// runtime shards or merges behind the planner's back — exclusive
    /// and opaque state pins a stage to width one), and
    /// `is_stateless()` which co-located edges a fusing backend fuses.
    pub state: Vec<StateAccess>,
    /// Per-stage replica-width caps declared by the programmer
    /// (`len = Ns`, every entry ≥ 1). `usize::MAX` leaves the width to
    /// the planner's global `max_width`; exclusive/opaque stages carry
    /// `1`, and keyed stages their shard count (a width change there
    /// is a shard rebalance, executed as live migration).
    pub replica_cap: Vec<usize>,
    /// Node where inputs originate; `None` ignores input-edge transfer.
    pub source: Option<NodeId>,
    /// Node where outputs are delivered; `None` ignores output-edge
    /// transfer.
    pub sink: Option<NodeId>,
    /// True when the executing backend *fuses* the edges into co-located
    /// stateless stages into direct calls (the threaded engine does; the
    /// simulator routes every boundary through its link model, self
    /// links included). Only a fusing backend may claim the fused-edge
    /// latency discount — otherwise the model would under-charge
    /// co-location and the planner's latency tie-break would steer
    /// toward mappings the backend cannot actually make cheap.
    pub fuses_colocated: bool,
}

impl PipelineProfile {
    /// Builds a profile with uniform boundary sizes and all stages
    /// stateless — the common synthetic-workload shape.
    pub fn uniform(stage_work: Vec<f64>, bytes_per_item: u64) -> Self {
        let ns = stage_work.len();
        assert!(ns > 0, "pipeline needs at least one stage");
        PipelineProfile {
            boundary_bytes: vec![bytes_per_item; ns + 1],
            state: vec![StateAccess::Stateless; ns],
            replica_cap: vec![usize::MAX; ns],
            graph: StageGraph::linear(ns),
            stage_work,
            source: None,
            sink: None,
            fuses_colocated: false,
        }
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.stage_work.len()
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics if lengths disagree or any work value is negative.
    pub fn validate(&self) {
        let ns = self.stage_work.len();
        assert!(ns > 0, "pipeline needs at least one stage");
        assert_eq!(
            self.boundary_bytes.len(),
            ns + 1,
            "need Ns+1 boundary sizes"
        );
        assert_eq!(self.state.len(), ns, "need one state declaration per stage");
        assert_eq!(self.replica_cap.len(), ns, "need one replica cap per stage");
        assert!(
            self.replica_cap.iter().all(|&c| c >= 1),
            "replica caps must be at least 1"
        );
        assert!(
            self.stage_work.iter().all(|&w| w >= 0.0 && w.is_finite()),
            "stage work must be non-negative and finite"
        );
        self.graph.validate(ns);
    }

    /// Total work per item across all stages.
    pub(crate) fn total_work(&self) -> f64 {
        self.stage_work.iter().sum()
    }
}

/// Where a fusing backend runs stage `s` under `mapping`: `Some(r)`
/// when every input of `s` is produced inside the walk of stage `r` —
/// the stage an envelope delivered the item to — so `s` runs there as a
/// direct call, its in-edges cost no envelope and no inbox hop, and the
/// model charges them no transfer latency. `None` when `s`'s input
/// arrives by envelope (its walks then start at `s`). `root` holds the
/// answer, or the stage itself, for every stage before `s` in
/// topological order.
///
/// The predicate is the threaded engine's (`fusion::FusionPlan`): the
/// backend fuses at all (`fuses_colocated`, checked by the caller), `s`
/// is declared stateless (`is_stateless()`) and sits unreplicated on one
/// host, and so does every predecessor — a plain or fan-out edge
/// continues its producer's walk; a join completes inside one walk only
/// when all its inputs come from the same one, so every predecessor must
/// share a root. A join fed from several walks assembles in the shared
/// join map and reaches `s` by envelope. (The engine additionally
/// requires a default resilience policy, which the profile does not
/// carry; a resilient stage that is also stateless and co-located is
/// rare enough that the latency term's optimism there is noise — and
/// latency only tie-breaks candidate rankings anyway.) Same-host hops
/// never contributed to the link busy budget, so the throughput term is
/// untouched.
fn fused_root(
    profile: &PipelineProfile,
    mapping: &Mapping,
    s: usize,
    root: &[usize],
) -> Option<usize> {
    let host = mapping.placement(s).hosts();
    if host.len() != 1 || !profile.state[s].is_stateless() {
        return None;
    }
    let mut walk = None;
    for &p in profile.graph.preds(s) {
        if mapping.placement(p).hosts() != host || walk.is_some_and(|r| r != root[p]) {
            return None;
        }
        walk = Some(root[p]);
    }
    walk
}

/// Per stage, whether a fusing backend runs it inline under `mapping`
/// (every in-edge fused, see the model's fused-edge discount): the
/// stages whose input hand-offs the engine counts in its fused hops.
pub fn fused_stages(profile: &PipelineProfile, mapping: &Mapping) -> Vec<bool> {
    let mut root: Vec<usize> = (0..profile.stages()).collect();
    let mut fused = vec![false; profile.stages()];
    if profile.fuses_colocated {
        for &s in profile.graph.topo_order() {
            if let Some(r) = fused_root(profile, mapping, s, &root) {
                (root[s], fused[s]) = (r, true);
            }
        }
    }
    fused
}

/// Which resource limits throughput.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bottleneck {
    /// A processor saturates first.
    Node(NodeId),
    /// A network link (direction `src → dst`) saturates first.
    Link(NodeId, NodeId),
}

/// Model output for one candidate mapping.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Steady-state items per second.
    pub throughput: f64,
    /// One-item traversal latency in seconds (no queueing).
    pub latency: f64,
    /// The saturating resource.
    pub bottleneck: Bottleneck,
    /// Busy seconds per item on each node (`len = Np`).
    pub node_load: Vec<f64>,
}

impl Prediction {
    /// Estimated makespan for a stream of `n` items: fill the pipe once,
    /// then drain one item per bottleneck period.
    pub fn completion_time(&self, n: u64) -> f64 {
        if n == 0 {
            return 0.0;
        }
        if self.throughput <= 0.0 {
            return f64::INFINITY;
        }
        self.latency + (n - 1) as f64 / self.throughput
    }
}

/// Evaluates `mapping` against per-node effective `rates` (work units per
/// second, already scaled by predicted availability) and the `topology`.
///
/// Returns a [`Prediction`]; a mapping that uses a node with rate ≤ 0
/// yields zero throughput and infinite latency rather than an error, so
/// optimisers can rank it (last) without special cases.
///
/// This is the one-shot form of [`Evaluator`], which the optimisers
/// build once per plan and score every candidate on.
///
/// # Panics
/// Panics if the profile is inconsistent, the mapping's stage count
/// differs from the profile's, or a mapped node index is out of range.
pub fn evaluate(
    profile: &PipelineProfile,
    mapping: &Mapping,
    rates: &[f64],
    topology: &Topology,
) -> Prediction {
    Evaluator::build(profile, rates, topology, false).prediction(mapping)
}

/// What the optimisers compare: a [`Prediction`] without its per-node
/// vector, so scoring a candidate allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Score {
    /// Steady-state items per second.
    pub throughput: f64,
    /// One-item traversal latency in seconds (no queueing).
    pub latency: f64,
    /// The saturating resource.
    pub bottleneck: Bottleneck,
    /// Sum of squared node loads: lower is more evenly spread. The
    /// optimisers' last tie-break.
    pub balance: f64,
}

/// The throughput a candidate has to reach for its score to matter to
/// the caller; see [`Evaluator::score_against`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Floor {
    /// Candidates at or above this throughput matter (an equal one goes
    /// on to a latency or balance tie-break).
    AtLeast(f64),
    /// Only candidates strictly above this throughput matter.
    Above(f64),
}

impl Floor {
    /// True when `throughput` falls short of the floor.
    fn excludes(self, throughput: f64) -> bool {
        match self {
            Floor::AtLeast(least) => throughput < least,
            Floor::Above(bar) => throughput <= bar,
        }
    }

    /// True when a mapping whose busiest node load is at least `load`
    /// falls short of the floor whatever its exact load: the floor times
    /// `load` clears one by `1e-12`. Then `1 / load` is more than `1e-12`
    /// under the floor before rounding, so its correctly rounded value
    /// is under it too, and a larger load only lowers it. It asks for a
    /// product where [`Floor::excludes`] asks for a quotient, and rules
    /// out a little less: nothing within `1e-12` of the floor.
    fn excludes_load(self, load: f64) -> bool {
        let (Floor::AtLeast(floor) | Floor::Above(floor)) = self;
        floor * load > 1.0 + 1e-12
    }
}

/// What became of the candidates one [`Evaluator`] was shown: the
/// planner's own account of where a `plan()` spends its time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Candidates {
    /// Ruled out from the incumbent's node loads before their move was
    /// applied: never applied, scored or undone.
    pub bounded: u64,
    /// Applied, then dropped on their own node loads before the link
    /// walk.
    pub pruned: u64,
    /// Scored in full: links walked, or a dead node ranked.
    pub scored: u64,
}

/// The model bound to one planning problem — profile, forecast rates,
/// topology — with everything that does not depend on the candidate
/// mapping done once: the profile is validated, the compute seconds of
/// every stage on every node and the transfer seconds of every boundary
/// over every node pair are tabulated, and the node-load and link
/// accumulators are allocated. An optimiser builds one per `plan()` and
/// scores thousands of candidates on it without touching the heap or
/// dividing.
pub struct Evaluator<'a> {
    profile: &'a PipelineProfile,
    rates: &'a [f64],
    compute: ComputeSecs,
    transfer: TransferSecs<'a>,
    /// Busy seconds per item on each node, for the last mapping scored.
    node_load: Vec<f64>,
    /// The dense `n × n` per-link busy seconds (`n` nodes in the
    /// topology), then one finish time per stage. Dense and shared: a
    /// HashMap here dominated planning time on 32-node grids, and the
    /// finish times ride in the same allocation.
    scratch: Vec<f64>,
    /// Per stage, the stage whose walk runs it (see [`fused_root`]), for
    /// a fusing backend's discount.
    roots: Vec<usize>,
    /// The mapping a neighbourhood pass walks from, as
    /// [`Evaluator::bounds_out`] reads it.
    incumbent: Incumbent,
    candidates: Candidates,
}

/// Node loads of a neighbourhood pass's incumbent.
struct Incumbent {
    /// Busy seconds per item on each node, from the loop `score_against`
    /// runs.
    load: Vec<f64>,
    /// Every node, busiest first.
    busiest: Vec<NodeId>,
    /// The incumbent uses a dead node, whose load `load` leaves out.
    dead: bool,
}

impl<'a> Evaluator<'a> {
    /// Binds the model to one planning problem.
    ///
    /// # Panics
    /// Panics if the profile is inconsistent, or if its source or sink
    /// is outside the topology while its boundary carries bytes.
    pub fn new(profile: &'a PipelineProfile, rates: &'a [f64], topology: &'a Topology) -> Self {
        Self::build(profile, rates, topology, true)
    }

    /// `tabulate: false` is the one-shot [`evaluate`]: a single mapping
    /// reads a handful of the transfer table's cells, so filling it
    /// would cost more than the walk it serves. The compute table is
    /// `Ns × Np` divisions, which one mapping costs anyway, so it is
    /// always built.
    fn build(
        profile: &'a PipelineProfile,
        rates: &'a [f64],
        topology: &'a Topology,
        tabulate: bool,
    ) -> Self {
        profile.validate();
        let n = topology.len();
        let end_in_range = |end: Option<NodeId>, boundary: usize| {
            end.is_none_or(|node| node.index() < n || profile.boundary_bytes[boundary] == 0)
        };
        assert!(
            end_in_range(profile.source, 0) && end_in_range(profile.sink, profile.graph.exit() + 1),
            "node out of range"
        );
        // The one-shot form walks no neighbourhood, so it keeps no
        // incumbent.
        let walked_nodes = if tabulate { rates.len() } else { 0 };
        Evaluator {
            profile,
            rates,
            compute: ComputeSecs::new(&profile.stage_work, rates),
            transfer: TransferSecs::new(&profile.boundary_bytes, topology, tabulate),
            node_load: vec![0.0; rates.len()],
            scratch: vec![0.0; n * n + profile.stages()],
            roots: vec![0; profile.stages()],
            incumbent: Incumbent {
                load: vec![0.0; walked_nodes],
                busiest: (0..walked_nodes).map(NodeId).collect(),
                dead: false,
            },
            candidates: Candidates::default(),
        }
    }

    /// The pipeline being mapped.
    pub fn profile(&self) -> &'a PipelineProfile {
        self.profile
    }

    /// The per-node effective rates candidates are scored under.
    pub fn rates(&self) -> &'a [f64] {
        self.rates
    }

    /// The link cost matrix candidates are scored under.
    pub fn topology(&self) -> &'a Topology {
        self.transfer.topology
    }

    /// The full [`Prediction`] for `mapping`.
    ///
    /// # Panics
    /// Panics if the mapping's stage count differs from the profile's
    /// or a mapped node index is out of range.
    pub fn prediction(&mut self, mapping: &Mapping) -> Prediction {
        let score = self.score(mapping);
        Prediction {
            throughput: score.throughput,
            latency: score.latency,
            bottleneck: score.bottleneck,
            node_load: self.node_load.clone(),
        }
    }

    /// Scores `mapping`: [`Evaluator::prediction`] without the per-node
    /// vector.
    pub fn score(&mut self, mapping: &Mapping) -> Score {
        self.score_against(mapping, Floor::AtLeast(f64::NEG_INFINITY))
            .expect("no throughput is below negative infinity")
    }

    /// Scores `mapping` unless its node loads alone already put it
    /// under `floor`, in which case it returns `None` without walking
    /// the links. The cut is exact, not a heuristic: throughput is the
    /// reciprocal of the busiest resource, a link can only make that
    /// resource busier than the busiest node, and a correctly rounded
    /// reciprocal is monotone — so the full score's throughput could
    /// only be lower still. The comparison is made on throughputs, not
    /// periods: two periods can round to one throughput, and the caller
    /// breaks that tie on latency. A mapping on a dead node is always
    /// scored (zero throughput, infinite latency): it still has to rank
    /// against a dead incumbent on balance.
    ///
    /// # Panics
    /// As [`Evaluator::prediction`].
    pub fn score_against(&mut self, mapping: &Mapping, floor: Floor) -> Option<Score> {
        let profile = self.profile;
        let ns = profile.stages();
        assert_eq!(
            mapping.len(),
            ns,
            "mapping covers {} stages, profile {ns}",
            mapping.len()
        );
        let n = self.transfer.topology.len();

        // --- Node busy time per item -------------------------------------
        let dead_node_used = self
            .compute
            .node_loads(mapping, self.rates, n, &mut self.node_load);
        let (max_node_load, max_node) =
            self.node_load
                .iter()
                .enumerate()
                .fold((0.0f64, 0usize), |(best, arg), (i, &l)| {
                    if l > best {
                        (l, i)
                    } else {
                        (best, arg)
                    }
                });
        let balance = |node_load: &[f64]| node_load.iter().map(|l| l * l).sum::<f64>();
        if dead_node_used {
            self.candidates.scored += 1;
            return Some(Score {
                throughput: 0.0,
                latency: f64::INFINITY,
                bottleneck: Bottleneck::Node(NodeId(max_node)),
                balance: balance(&self.node_load),
            });
        }
        if floor.excludes(throughput_of(max_node_load)) {
            self.candidates.pruned += 1;
            return None;
        }
        self.candidates.scored += 1;

        // --- Link busy time per item, one-item latency ---------------------
        let (link_seconds, done) = self.scratch.split_at_mut(n * n);
        link_seconds.fill(0.0);
        let mut links = Links {
            seconds: link_seconds,
            total: 0.0,
        };
        let latency = walk(
            profile,
            mapping,
            &self.compute,
            &self.transfer,
            &mut links,
            done,
            &mut self.roots,
        );
        // No link carries more than all of them together. When even that
        // sum, with room for its rounding, is under the busiest node's
        // load, no link is the bottleneck, and the cells go unscanned.
        let mut max_link: (f64, NodeId, NodeId) = (0.0, NodeId(0), NodeId(0));
        if links.total * (1.0 + 1e-9) >= max_node_load {
            for (idx, &secs) in links.seconds.iter().enumerate() {
                if secs > max_link.0 {
                    max_link = (secs, NodeId(idx / n), NodeId(idx % n));
                }
            }
        }

        // --- Combine -------------------------------------------------------
        let (bottleneck, period) = if max_link.0 > max_node_load {
            (Bottleneck::Link(max_link.1, max_link.2), max_link.0)
        } else {
            (Bottleneck::Node(NodeId(max_node)), max_node_load)
        };
        Some(Score {
            throughput: throughput_of(period),
            latency,
            bottleneck,
            balance: balance(&self.node_load),
        })
    }

    /// What became of the candidates this evaluator has been shown.
    pub(crate) fn candidates(&self) -> Candidates {
        self.candidates
    }

    /// Keeps `mapping`'s node loads, and its nodes busiest first, as the
    /// incumbent that [`Evaluator::bounds_out`] bounds moves from.
    pub(crate) fn set_incumbent(&mut self, mapping: &Mapping) {
        let n = self.transfer.topology.len();
        let Incumbent {
            load,
            busiest,
            dead,
        } = &mut self.incumbent;
        *dead = self.compute.node_loads(mapping, self.rates, n, load);
        busiest.sort_unstable_by(|a, b| load[b.index()].total_cmp(&load[a.index()]));
    }

    /// Rules `mv` out without applying it: true when the candidate it
    /// would make of `incumbent` (the mapping last passed to
    /// [`Evaluator::set_incumbent`], unchanged since) is one that
    /// `score_against(candidate, floor)` would drop on its node loads.
    /// It reads the incumbent's loads in O(width) instead of applying
    /// the move and summing every stage again.
    ///
    /// The cut is exact, not a heuristic. A node's load is a sum over
    /// the stages it hosts, so a move of stage `s` changes only the
    /// loads of the nodes that host `s` before or after it:
    /// * every other node keeps its incumbent load to the bit (the same
    ///   terms, summed in the same stage order);
    /// * the destination gains `c / w'`, with `c` the compute seconds of
    ///   `s` there and `w'` its new width;
    /// * each host `s` keeps while its width goes from `w` to `w'`
    ///   trades `c / w` for `c / w'`;
    /// * a host `s` leaves is left out, which can only lower the bound.
    ///
    /// The terms are non-negative and `c / w` is at most the load it is
    /// taken from, so a touched node's estimate is off the candidate's
    /// own sum by at most a few `Ns · 2⁻⁵³` of its load, far inside the
    /// `1 − 1e-9` the bound is scaled by. So the bound is at most the
    /// candidate's busiest node load, and whenever the floor excludes
    /// that load ([`Floor::excludes_load`], a product, not a quotient),
    /// it excludes the candidate's, and `score_against` drops the
    /// candidate too. A move onto a dead node,
    /// or from an incumbent that uses one, is never ruled out, because
    /// `score_against` always scores a mapping on a dead node.
    pub(crate) fn bounds_out(&mut self, incumbent: &Mapping, mv: Move, floor: Floor) -> bool {
        let out = self
            .load_after(incumbent, mv)
            .is_some_and(|load| floor.excludes_load(load));
        self.candidates.bounded += u64::from(out);
        out
    }

    /// A lower bound on the busiest node's load after `mv`, or `None`
    /// when the move or the incumbent uses a dead node.
    fn load_after(&self, incumbent: &Mapping, mv: Move) -> Option<f64> {
        let Incumbent {
            load,
            busiest,
            dead,
        } = &self.incumbent;
        let stage = mv.stage();
        let placement = incumbent.placement(stage);
        let width = placement.width();
        let (to, dropped, new_width) = match mv {
            Move::Rehost { to, .. } => (Some(to), None, width),
            Move::AddReplica { node, .. } => (Some(node), None, width + 1),
            Move::DropReplica { node, .. } => (None, Some(node), width - 1),
        };
        if *dead || to.is_some_and(|to| self.rates[to.index()] <= 0.0) {
            return None;
        }
        let (share, new_share) = (reciprocal(width), reciprocal(new_width));
        let touched = |node: NodeId| placement.contains(node) || Some(node) == to;
        // The busiest node the move leaves alone.
        let mut bound = busiest
            .iter()
            .find(|&&node| !touched(node))
            .map_or(0.0, |node| load[node.index()]);
        if let Some(to) = to {
            bound = bound.max(load[to.index()] + self.compute.get(stage, to) * new_share);
        }
        if new_width != width {
            for &host in placement.hosts().iter().filter(|&&h| Some(h) != dropped) {
                let c = self.compute.get(stage, host);
                bound = bound.max(load[host.index()] - c * share + c * new_share);
            }
        }
        Some(bound * (1.0 - 1e-9))
    }
}

/// `1 / k` for the replica and replica-pair counts the model divides
/// by, divided when the crate is compiled: the quotient a division at
/// run time gives, to the bit.
const RECIPROCALS: [f64; 65] = {
    let mut table = [0.0; 65];
    let mut k = 1;
    while k < table.len() {
        table[k] = 1.0 / k as f64;
        k += 1;
    }
    table
};

/// `1.0 / k as f64`, read from [`RECIPROCALS`] when it is there.
fn reciprocal(k: usize) -> f64 {
    match RECIPROCALS.get(k) {
        Some(&r) if k > 0 => r,
        _ => 1.0 / k as f64,
    }
}

/// Items per second when the busiest resource is busy `period` seconds
/// per item.
fn throughput_of(period: f64) -> f64 {
    if period > 0.0 {
        1.0 / period
    } else {
        // Degenerate profile: zero work, zero communication.
        f64::INFINITY
    }
}

/// Seconds one item of stage `s` keeps node `n` busy, `stage_work[s] /
/// rates[n]`: the same quotients the walk would divide per candidate,
/// divided once. A dead node's cells (rate ≤ 0) are never read.
struct ComputeSecs {
    np: usize,
    table: Vec<f64>,
}

impl ComputeSecs {
    fn new(work: &[f64], rates: &[f64]) -> Self {
        let mut table = Vec::with_capacity(work.len() * rates.len());
        for &w in work {
            table.extend(rates.iter().map(|&r| w / r));
        }
        ComputeSecs {
            np: rates.len(),
            table,
        }
    }

    fn get(&self, stage: usize, node: NodeId) -> f64 {
        self.table[stage * self.np + node.index()]
    }

    /// Fills `load` with each node's busy seconds per item under
    /// `mapping`, summed in stage order, each replica taking an equal
    /// share; `true` when the mapping uses a dead node (rate ≤ 0), whose
    /// load is left out.
    ///
    /// # Panics
    /// Panics if a host is outside `rates` or the `n`-node topology.
    fn node_loads(&self, mapping: &Mapping, rates: &[f64], n: usize, load: &mut [f64]) -> bool {
        load.fill(0.0);
        let mut dead_node_used = false;
        for (s, placement) in mapping.placements().iter().enumerate() {
            let share = reciprocal(placement.width());
            for &host in placement.hosts() {
                assert!(
                    host.index() < rates.len(),
                    "node {host} outside rate vector"
                );
                assert!(host.index() < n, "node {host} outside topology");
                if rates[host.index()] <= 0.0 {
                    dead_node_used = true;
                } else {
                    load[host.index()] += self.get(s, host) * share;
                }
            }
        }
        dead_node_used
    }
}

/// Seconds to move one item across stage boundary `boundary` from node
/// `a` to node `b` — `topology.transfer_time(a, b, bytes).as_secs_f64()`,
/// tabulated once per distinct boundary size when many mappings will be
/// scored.
struct TransferSecs<'a> {
    bytes: &'a [u64],
    topology: &'a Topology,
    /// Boundary → its `n × n` table in `table` (boundaries of equal size
    /// share one); empty when nothing is tabulated.
    table_of: Vec<usize>,
    table: Vec<f64>,
}

impl<'a> TransferSecs<'a> {
    fn new(bytes: &'a [u64], topology: &'a Topology, tabulate: bool) -> Self {
        let mut costs = TransferSecs {
            bytes,
            topology,
            table_of: Vec::new(),
            table: Vec::new(),
        };
        if !tabulate {
            return costs;
        }
        let n = topology.len();
        let mut sizes: Vec<u64> = Vec::new();
        for &size in bytes {
            let known = sizes.iter().position(|&s| s == size);
            costs.table_of.push(known.unwrap_or(sizes.len()));
            if known.is_none() {
                sizes.push(size);
                costs.table.reserve(n * n);
                for a in (0..n).map(NodeId) {
                    for b in (0..n).map(NodeId) {
                        costs
                            .table
                            .push(topology.transfer_time(a, b, size).as_secs_f64());
                    }
                }
            }
        }
        costs
    }

    /// The seconds of boundary `boundary` between every node pair, `a`
    /// major, or `None` when nothing is tabulated.
    fn table(&self, boundary: usize) -> Option<&[f64]> {
        let cells = self.topology.len().pow(2);
        let table = *self.table_of.get(boundary)?;
        Some(&self.table[table * cells..(table + 1) * cells])
    }
}

/// The per-link busy budget a walk accumulates: the seconds of each
/// `n × n` cell, and their sum.
struct Links<'w> {
    seconds: &'w mut [f64],
    total: f64,
}

/// One topological pass over the stage graph: accumulates every edge's
/// expected transfer seconds into `links` (the per-link busy
/// budget; same-host hops are charged to latency only) and returns the
/// critical-path one-item latency — each stage finishes (`done`, one
/// cell per stage) when its *slowest* predecessor's output has arrived
/// and its own replica-mean service is over, so parallel branches cost
/// max, not sum, and the pipeline latency is the exit stage's finish
/// time plus the sink hop when one is declared. A stage a fusing backend
/// runs inline ([`fused_root`], one `root` cell per stage) receives its
/// inputs free.
fn walk(
    profile: &PipelineProfile,
    mapping: &Mapping,
    compute: &ComputeSecs,
    transfer: &TransferSecs<'_>,
    links: &mut Links<'_>,
    done: &mut [f64],
    root: &mut [usize],
) -> f64 {
    let service = |s: usize| -> f64 {
        match mapping.placement(s).hosts() {
            // One term, summed and divided by one, is that term.
            &[host] => compute.get(s, host),
            hosts => hosts.iter().map(|&h| compute.get(s, h)).sum::<f64>() / hosts.len() as f64,
        }
    };
    for &s in profile.graph.topo_order() {
        let to_hosts = mapping.placement(s).hosts();
        let preds = profile.graph.preds(s);
        let walked_in = if profile.fuses_colocated {
            fused_root(profile, mapping, s, root)
        } else {
            None
        };
        root[s] = walked_in.unwrap_or(s);
        let arrive = if preds.is_empty() {
            match profile.source {
                Some(src) => edge_cost(transfer, 0, &[src], to_hosts, links),
                None => 0.0,
            }
        } else {
            let mut latest = 0.0f64;
            for &p in preds {
                let hop = if walked_in.is_some() {
                    0.0
                } else {
                    edge_cost(
                        transfer,
                        p + 1,
                        mapping.placement(p).hosts(),
                        to_hosts,
                        links,
                    )
                };
                // `latest.max(arrival)` as one compare: `latest` is
                // never NaN, and a NaN arrival leaves it, as `max` does.
                let arrival = done[p] + hop;
                if arrival > latest {
                    latest = arrival;
                }
            }
            latest
        };
        done[s] = arrive + service(s);
    }
    let exit = profile.graph.exit();
    let mut latency = done[exit];
    if let Some(dst) = profile.sink {
        latency += edge_cost(
            transfer,
            exit + 1,
            mapping.placement(exit).hosts(),
            &[dst],
            links,
        );
    }
    latency
}

/// Expected transfer seconds for one graph edge carrying boundary
/// `boundary`'s bytes (replica sets on both ends, uniformly dealt),
/// accumulated into the per-link busy budget.
fn edge_cost(
    transfer: &TransferSecs<'_>,
    boundary: usize,
    from_hosts: &[NodeId],
    to_hosts: &[NodeId],
    links: &mut Links<'_>,
) -> f64 {
    if transfer.bytes[boundary] == 0 {
        return 0.0;
    }
    let n = transfer.topology.len();
    let frac = reciprocal(from_hosts.len() * to_hosts.len());
    let table = transfer.table(boundary);
    let mut expected = 0.0;
    for &a in from_hosts {
        for &b in to_hosts {
            let t = match table {
                Some(table) => table[a.index() * n + b.index()],
                None => transfer
                    .topology
                    .transfer_time(a, b, transfer.bytes[boundary])
                    .as_secs_f64(),
            };
            expected += frac * t;
            if a != b {
                links.seconds[a.index() * n + b.index()] += frac * t;
                links.total += frac * t;
            }
        }
    }
    expected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{for_each_neighbour, Focus};
    use crate::mapping::Placement;
    use adapipe_gridsim::net::LinkSpec;
    use adapipe_gridsim::rng::Rng64;
    use adapipe_gridsim::time::SimDuration;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    /// Unit-speed nodes, effectively free network.
    fn fast_net(np: usize) -> Topology {
        Topology::uniform(np, LinkSpec::new(SimDuration::from_nanos(1), 1e12))
    }

    #[test]
    fn balanced_one_to_one_throughput_is_inverse_stage_time() {
        let profile = PipelineProfile::uniform(vec![2.0, 2.0, 2.0], 0);
        let m = Mapping::from_assignment(&[n(0), n(1), n(2)]);
        let p = evaluate(&profile, &m, &[1.0, 1.0, 1.0], &fast_net(3));
        assert!((p.throughput - 0.5).abs() < 1e-9, "tput={}", p.throughput);
        assert!((p.latency - 6.0).abs() < 1e-6);
        assert_eq!(p.bottleneck, Bottleneck::Node(n(0)));
    }

    #[test]
    fn coalescing_sums_stage_work_on_shared_host() {
        let profile = PipelineProfile::uniform(vec![1.0, 1.0, 1.0], 0);
        let m = Mapping::from_assignment(&[n(0), n(0), n(1)]);
        let p = evaluate(&profile, &m, &[1.0, 1.0], &fast_net(2));
        // Node 0 does 2 units/item → bottleneck period 2 s.
        assert!((p.throughput - 0.5).abs() < 1e-9);
        assert_eq!(p.bottleneck, Bottleneck::Node(n(0)));
        assert!((p.node_load[0] - 2.0).abs() < 1e-12);
        assert!((p.node_load[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn faster_node_prefers_heavier_stage() {
        let profile = PipelineProfile::uniform(vec![4.0, 1.0], 0);
        let good = Mapping::from_assignment(&[n(0), n(1)]); // heavy on fast
        let bad = Mapping::from_assignment(&[n(1), n(0)]); // heavy on slow
        let rates = [4.0, 1.0];
        let pg = evaluate(&profile, &good, &rates, &fast_net(2));
        let pb = evaluate(&profile, &bad, &rates, &fast_net(2));
        assert!(pg.throughput > pb.throughput);
        assert!((pg.throughput - 1.0).abs() < 1e-9);
        assert!((pb.throughput - 0.25).abs() < 1e-9);
    }

    #[test]
    fn replication_halves_per_host_load() {
        let profile = PipelineProfile::uniform(vec![2.0], 0);
        let single = Mapping::from_assignment(&[n(0)]);
        let replicated = Mapping::new(vec![Placement::replicated(vec![n(0), n(1)])]);
        let rates = [1.0, 1.0];
        let ps = evaluate(&profile, &single, &rates, &fast_net(2));
        let pr = evaluate(&profile, &replicated, &rates, &fast_net(2));
        assert!((ps.throughput - 0.5).abs() < 1e-9);
        assert!((pr.throughput - 1.0).abs() < 1e-9, "tput={}", pr.throughput);
    }

    #[test]
    fn slow_link_becomes_bottleneck() {
        let profile = PipelineProfile::uniform(vec![0.1, 0.1], 1_000_000);
        let mut topo = fast_net(2);
        // 1 MB per item over a 1 MB/s link = 1 s per item on the link.
        topo.set_symmetric(n(0), n(1), LinkSpec::new(SimDuration::ZERO, 1e6));
        let m = Mapping::from_assignment(&[n(0), n(1)]);
        let p = evaluate(&profile, &m, &[1.0, 1.0], &topo);
        assert_eq!(p.bottleneck, Bottleneck::Link(n(0), n(1)));
        assert!((p.throughput - 1.0).abs() < 1e-6);
    }

    #[test]
    fn coalescing_beats_spreading_when_links_are_slow() {
        let profile = PipelineProfile::uniform(vec![0.1, 0.1], 1_000_000);
        let mut topo = fast_net(2);
        topo.set_symmetric(
            n(0),
            n(1),
            LinkSpec::new(SimDuration::from_millis(500), 1e6),
        );
        let spread = Mapping::from_assignment(&[n(0), n(1)]);
        let coalesced = Mapping::from_assignment(&[n(0), n(0)]);
        let rates = [1.0, 1.0];
        let ps = evaluate(&profile, &spread, &rates, &topo);
        let pc = evaluate(&profile, &coalesced, &rates, &topo);
        assert!(pc.throughput > ps.throughput, "coalescing should win");
    }

    #[test]
    fn dead_node_yields_zero_throughput() {
        let profile = PipelineProfile::uniform(vec![1.0, 1.0], 0);
        let m = Mapping::from_assignment(&[n(0), n(1)]);
        let p = evaluate(&profile, &m, &[1.0, 0.0], &fast_net(2));
        assert_eq!(p.throughput, 0.0);
        assert!(p.latency.is_infinite());
        assert_eq!(p.completion_time(10), f64::INFINITY);
    }

    #[test]
    fn completion_time_is_fill_plus_drain() {
        let profile = PipelineProfile::uniform(vec![1.0, 1.0], 0);
        let m = Mapping::from_assignment(&[n(0), n(1)]);
        let p = evaluate(&profile, &m, &[1.0, 1.0], &fast_net(2));
        // latency 2 s, throughput 1/s → 10 items take 2 + 9 = 11 s.
        assert!((p.completion_time(10) - 11.0).abs() < 1e-6);
        assert_eq!(p.completion_time(0), 0.0);
    }

    #[test]
    fn source_and_sink_edges_count_when_set() {
        let mut profile = PipelineProfile::uniform(vec![0.01], 1_000_000);
        let mut topo = fast_net(2);
        topo.set_symmetric(n(0), n(1), LinkSpec::new(SimDuration::ZERO, 1e6));
        let m = Mapping::from_assignment(&[n(1)]);
        // Without source/sink: no transfers at all → CPU-bound.
        let p0 = evaluate(&profile, &m, &[1.0, 1.0], &topo);
        assert!(p0.throughput > 10.0);
        // With source on n0: 1 MB in over the slow link dominates.
        profile.source = Some(n(0));
        let p1 = evaluate(&profile, &m, &[1.0, 1.0], &topo);
        assert_eq!(p1.bottleneck, Bottleneck::Link(n(0), n(1)));
        assert!((p1.throughput - 1.0).abs() < 1e-6);
    }

    #[test]
    fn availability_scales_rates() {
        let profile = PipelineProfile::uniform(vec![1.0], 0);
        let m = Mapping::from_assignment(&[n(0)]);
        let full = evaluate(&profile, &m, &[2.0], &fast_net(1));
        let half = evaluate(&profile, &m, &[1.0], &fast_net(1));
        assert!((full.throughput / half.throughput - 2.0).abs() < 1e-9);
    }

    #[test]
    fn branched_latency_is_max_over_paths_not_sum() {
        // (a ‖ b) → merge, with a = 4 units and b = 1 unit of work. The
        // branches overlap, so one item traverses in max(4, 1) + merge,
        // not 4 + 1 + merge.
        let mut profile = PipelineProfile::uniform(vec![4.0, 1.0, 0.0], 0);
        profile.graph = crate::graph::StageGraph::builder().split(&[1, 1]).build();
        profile.validate();
        let m = Mapping::from_assignment(&[n(0), n(1), n(2)]);
        let p = evaluate(&profile, &m, &[1.0, 1.0, 1.0], &fast_net(3));
        assert!((p.latency - 4.0).abs() < 1e-6, "latency={}", p.latency);
        // Throughput is still resource-bound: node 0 is busiest at 4 s.
        assert!((p.throughput - 0.25).abs() < 1e-9);
        assert_eq!(p.bottleneck, Bottleneck::Node(n(0)));

        // The equivalent serialized chain pays the sum.
        let chain = PipelineProfile::uniform(vec![4.0, 1.0, 0.0], 0);
        let pc = evaluate(&chain, &m, &[1.0, 1.0, 1.0], &fast_net(3));
        assert!((pc.latency - 5.0).abs() < 1e-6);
        assert_eq!(pc.throughput, p.throughput, "same resources, same rate");
    }

    #[test]
    fn branched_link_budget_follows_graph_edges_not_chain_boundaries() {
        // pre → (a ‖ b) → merge, 1 MB everywhere, all on distinct nodes.
        // The graph has NO a→b edge; the serialized chain does.
        let mut profile = PipelineProfile::uniform(vec![0.01, 0.01, 0.01, 0.01], 1_000_000);
        profile.graph = crate::graph::StageGraph::builder()
            .stages(1)
            .split(&[1, 1])
            .build();
        let mut topo = fast_net(4);
        // Only the a→b direction is slow: the chain must pay it, the
        // graph must not.
        topo.set(n(1), n(2), LinkSpec::new(SimDuration::ZERO, 1e6));
        let m = Mapping::from_assignment(&[n(0), n(1), n(2), n(3)]);
        let graph_pred = evaluate(&profile, &m, &[1.0; 4], &topo);
        let chain = PipelineProfile::uniform(vec![0.01, 0.01, 0.01, 0.01], 1_000_000);
        let chain_pred = evaluate(&chain, &m, &[1.0; 4], &topo);
        assert_eq!(chain_pred.bottleneck, Bottleneck::Link(n(1), n(2)));
        assert!(
            graph_pred.throughput > chain_pred.throughput * 10.0,
            "graph {} vs chain {}",
            graph_pred.throughput,
            chain_pred.throughput
        );
    }

    #[test]
    fn fused_boundary_drops_intra_node_latency() {
        // Three stateless stages coalesced on one host: the engine fuses
        // both boundaries into direct calls, so the model charges no
        // transfer latency at all — latency is exactly the service sum.
        let mut fused = PipelineProfile::uniform(vec![1.0, 2.0, 1.0], 1_000_000);
        fused.fuses_colocated = true;
        let m = Mapping::from_assignment(&[n(0), n(0), n(0)]);
        let rates = [1.0, 1.0];
        let pf = evaluate(&fused, &m, &rates, &fast_net(2));
        assert!((pf.latency - 4.0).abs() < 1e-12, "latency={}", pf.latency);
        // A stateful middle stage can't be a fusion *target*: boundary
        // 0→1 pays the self-link again. (1→2 stays fused — its target
        // is stateless.)
        let mut stateful = fused.clone();
        stateful.state[1] = StateAccess::Opaque;
        let ps = evaluate(&stateful, &m, &rates, &fast_net(2));
        assert!(ps.latency > pf.latency);
        // Throughput is untouched either way: same-host hops never
        // entered the link busy budget.
        assert_eq!(pf.throughput.to_bits(), ps.throughput.to_bits());
        assert_eq!(pf.node_load, ps.node_load);
    }

    #[test]
    fn fused_discount_requires_colocated_singletons() {
        let mut profile = PipelineProfile::uniform(vec![1.0, 1.0], 1_000_000);
        profile.fuses_colocated = true;
        let rates = [1.0, 1.0];
        // Spread over two hosts: the full inter-node charge stands.
        let spread = Mapping::from_assignment(&[n(0), n(1)]);
        let p_spread = evaluate(&profile, &spread, &rates, &fast_net(2));
        assert!(p_spread.latency > 2.0);
        // Co-located but the successor is replicated: items may cross
        // hosts, so the boundary keeps its expected transfer cost.
        let replicated = Mapping::new(vec![
            Placement::single(n(0)),
            Placement::replicated(vec![n(0), n(1)]),
        ]);
        let p_repl = evaluate(&profile, &replicated, &rates, &fast_net(2));
        let coalesced = Mapping::from_assignment(&[n(0), n(0)]);
        let p_co = evaluate(&profile, &coalesced, &rates, &fast_net(2));
        assert!(
            (p_co.latency - 2.0).abs() < 1e-12,
            "fused chain is pure service"
        );
        assert!(p_repl.latency > p_co.latency);
        // A non-fusing backend (the simulator) keeps the self-link
        // charge: the discount is opt-in via `fuses_colocated`.
        let mut sim_profile = profile.clone();
        sim_profile.fuses_colocated = false;
        let p_sim = evaluate(&sim_profile, &coalesced, &rates, &fast_net(2));
        assert!(p_sim.latency > p_co.latency);
    }

    #[test]
    fn fused_discount_covers_a_colocated_diamond() {
        // pre → (a ‖ b) → merge → post, everything on one host: the
        // fan-out edges, the join edges and merge→post all run inline,
        // so the latency is the critical path's service alone.
        let mut profile = PipelineProfile::uniform(vec![1.0; 5], 1_000_000);
        profile.fuses_colocated = true;
        profile.graph = crate::graph::StageGraph::builder()
            .stages(1)
            .split(&[1, 1])
            .stages(1)
            .build();
        profile.validate();
        let m = Mapping::from_assignment(&[n(0); 5]);
        let rates = [1.0, 1.0];
        let pf = evaluate(&profile, &m, &rates, &fast_net(2));
        assert!((pf.latency - 4.0).abs() < 1e-12, "latency={}", pf.latency);
        assert_eq!(fused_stages(&profile, &m), [false, true, true, true, true]);
        let mut stateful_post = profile.clone();
        stateful_post.state[4] = StateAccess::Opaque;
        let ps = evaluate(&stateful_post, &m, &rates, &fast_net(2));
        // Un-fusing merge→post adds exactly one self-link hop.
        let self_hop = fast_net(2)
            .transfer_time(n(0), n(0), 1_000_000)
            .as_secs_f64();
        assert!(
            (ps.latency - pf.latency - self_hop).abs() < 1e-12,
            "delta={}",
            ps.latency - pf.latency
        );
        assert_eq!(pf.throughput.to_bits(), ps.throughput.to_bits());
        // A branch on another host: its parts reach the join from
        // another walk, so the merge takes its inputs by envelope; the
        // co-located branch still runs inline in pre's walk.
        let split = Mapping::from_assignment(&[n(0), n(0), n(1), n(0), n(0)]);
        assert_eq!(
            fused_stages(&profile, &split),
            [false, true, false, false, true]
        );
        // The fan source elsewhere: neither branch shares its walk, and
        // the join assembles from two.
        let away = Mapping::from_assignment(&[n(1), n(0), n(0), n(0), n(0)]);
        assert_eq!(
            fused_stages(&profile, &away),
            [false, false, false, false, true]
        );
        // A non-fusing backend fuses nothing.
        profile.fuses_colocated = false;
        assert_eq!(fused_stages(&profile, &m), [false; 5]);
    }

    /// A seeded instance for the bound's soundness sweep: a chain, a
    /// parallel block or a shuffled DAG; replicable, capped and pinned
    /// stages; a zero-work stage; heavy boundaries over a slow link; and
    /// in every other case a dead node.
    fn bound_instance(case: u64, rng: &mut Rng64) -> (PipelineProfile, Vec<f64>, Topology) {
        let ns = 4 + rng.next_range(3);
        let np = 3 + rng.next_range(4);
        let graph = match case % 3 {
            0 => StageGraph::linear(ns),
            // pre → (a ‖ b…) → merge
            1 => StageGraph::builder().stages(1).split(&[1, ns - 3]).build(),
            _ => {
                let mut perm: Vec<usize> = (0..ns).collect();
                for i in (1..ns).rev() {
                    perm.swap(i, rng.next_range(i + 1));
                }
                let mut dag = StageGraph::dag(ns);
                let mut fans_out = vec![false; ns];
                for to in 1..ns {
                    let from = rng.next_range(to);
                    fans_out[from] = true;
                    dag = dag.edge(perm[from], perm[to]);
                }
                for from in (1..ns - 1).filter(|&from| !fans_out[from]) {
                    dag = dag.edge(perm[from], perm[ns - 1]);
                }
                dag.build().expect("one entry, one exit, no cycle")
            }
        };
        let mut profile =
            PipelineProfile::uniform((0..ns).map(|_| 4.0 * rng.next_unit()).collect(), 0);
        profile.stage_work[rng.next_range(ns)] = 0.0;
        profile.boundary_bytes = (0..=ns).map(|_| rng.next_range(2_000_000) as u64).collect();
        profile.graph = graph;
        for s in 0..ns {
            match rng.next_range(4) {
                0 => profile.replica_cap[s] = 2,
                1 => {
                    profile.state[s] = StateAccess::Opaque;
                    profile.replica_cap[s] = 1;
                }
                _ => {}
            }
        }
        let mut rates: Vec<f64> = (0..np).map(|_| 0.2 + 3.8 * rng.next_unit()).collect();
        if case.is_multiple_of(2) {
            rates[rng.next_range(np)] = 0.0;
        }
        let mut topology = Topology::uniform(np, LinkSpec::lan());
        topology.set(n(0), n(1), LinkSpec::new(SimDuration::from_millis(5), 1e6));
        (profile, rates, topology)
    }

    /// The move bound is sound. Over every neighbourhood move of random
    /// replicated mappings (dead nodes included) of the seeded
    /// instances, with floors at, just above and just below each
    /// candidate's exact node bound: whenever `bounds_out` rules a move
    /// out, `score_against` drops the candidate it makes. The sweep also
    /// checks that every move kind was both ruled out and kept.
    #[test]
    fn a_bounded_out_move_is_one_score_against_drops() {
        const JUST: f64 = 1e-7;
        // [move kind][kept, ruled out]
        let mut seen = [[0u32; 2]; 3];
        for case in 0..120 {
            let mut rng = Rng64::new(0xB0B0 + case);
            let (profile, rates, topology) = bound_instance(case, &mut rng);
            let (ns, np) = (profile.stages(), rates.len());
            let mut ev = Evaluator::new(&profile, &rates, &topology);
            for _ in 0..4 {
                let mut incumbent = Mapping::new(
                    (0..ns)
                        .map(|_| {
                            let width = 1 + rng.next_range(3);
                            Placement::replicated(
                                (0..width).map(|_| n(rng.next_range(np))).collect(),
                            )
                        })
                        .collect(),
                );
                let max_width = 1 + rng.next_range(4);
                ev.set_incumbent(&incumbent);
                let walk = Focus::All;
                for_each_neighbour(&mut incumbent, np, &profile, max_width, walk, |mv, inc| {
                    let undo = mv.apply(inc);
                    let candidate = inc.clone();
                    undo.apply(inc);
                    let busiest = ev.prediction(&candidate).node_load.into_iter();
                    let exact = throughput_of(busiest.fold(0.0, f64::max));
                    let kind = match mv {
                        Move::Rehost { .. } => 0,
                        Move::AddReplica { .. } => 1,
                        Move::DropReplica { .. } => 2,
                    };
                    for at in [exact, exact * (1.0 + JUST), exact * (1.0 - JUST)] {
                        for floor in [Floor::AtLeast(at), Floor::Above(at)] {
                            let out = ev.bounds_out(inc, mv, floor);
                            seen[kind][usize::from(out)] += 1;
                            if out {
                                assert_eq!(
                                    ev.score_against(&candidate, floor),
                                    None,
                                    "case {case}: {mv:?} on {inc} ruled out against {floor:?}"
                                );
                            }
                        }
                    }
                });
            }
        }
        for (kind, [kept, out]) in ["move", "add", "drop"].iter().zip(seen) {
            assert!(
                kept > 100 && out > 100,
                "{kind}: kept {kept}, ruled out {out}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside rate vector")]
    fn out_of_range_node_panics() {
        let profile = PipelineProfile::uniform(vec![1.0], 0);
        let m = Mapping::from_assignment(&[n(5)]);
        let _ = evaluate(&profile, &m, &[1.0], &fast_net(1));
    }

    #[test]
    #[should_panic(expected = "Ns+1")]
    fn inconsistent_profile_panics() {
        let mut profile = PipelineProfile::uniform(vec![1.0, 1.0], 0);
        profile.boundary_bytes.pop();
        let m = Mapping::from_assignment(&[n(0), n(0)]);
        let _ = evaluate(&profile, &m, &[1.0], &fast_net(1));
    }
}
