//! Pipeline execution on the discrete-event grid simulator.
//!
//! Items flow through stage instances placed on grid nodes according to
//! the current [`adapipe_mapper::mapping::Mapping`]. Each node is a
//! `cores`-server FCFS queue:
//! coalesced stages time-share their host by queueing behind each other,
//! replicated stages receive items round-robin. Task durations integrate
//! the node's availability function exactly, so background load slows
//! service in precisely the way the pattern must detect and react to.
//!
//! This module is the *simulation backend* of the shared adaptive
//! runtime: routing goes through `adapipe-runtime`'s
//! [`RoutingTable`], and sensing/planning/re-mapping through its
//! [`AdaptationLoop`] — the identical code the threaded engine runs.
//! What lives here is only what is physically simulated: event
//! scheduling, queueing, transfers, and the re-mapping *commit*
//! semantics — in-flight tasks finish on their old host; queued items of
//! a moved stage re-home to the new host after the migration cost (state
//! transfer + drain overhead); items already in transit towards an old
//! host are forwarded on arrival. Stateful stages additionally block
//! their new instance until the state arrives.
//!
//! ## Steppable execution
//!
//! Inside the crate the event loop is a cooperative stepper
//! (`SimStepper`, crate-private): a driver injects arrivals one at a
//! time, advances the world event by event, and closes the stream when
//! the caller says so. Two drivers exist, and they are this backend's
//! API. The batch [`run`] entry point is a thin wrapper — schedule
//! every arrival up front, close, step to completion — that reproduces
//! the pre-stepper event order exactly (arrivals first, then the
//! control events), so batch results are bit-identical to the
//! historical monolithic loop. The live one is
//! [`crate::simsession::SimSession`], which also runs the real stage
//! functions (through the [`crate::item`] kernel) at push time: the
//! world itself executes cost metadata only, so the session tells it
//! each item's observed fate — retries per stage, a dead-letter
//! diversion — and the world charges the attempts and diverts the item
//! at the fated stage (`push_at_with_fate`, `pop_completion`, and
//! `next_event_at` for a pool's merged clock serve that driver alone).
//!
//! ## What an event costs
//!
//! The world's [`EventQueue`] sifts 16-byte keys and leaves each `Ev`
//! in a slab slot until it fires, so an event's size never rides a
//! sift. That is why a `Done` carries the work its task was started
//! with, and the stage's work is recorded from that one draw. An item's
//! arrival instant is an index into a window over sequence numbers
//! (`ArrivalWindow`), and the fate and dead-letter tables are not
//! looked into while they are empty, as they are on every clean run.
//! None of this moves an event or reorders a float sum: the same
//! events fire in the same `(time, sequence)` order.

use crate::item::{SeqHasher, SeqMap};
use crate::spec::{Next, PipelineSpec};
use adapipe_gridsim::event::EventQueue;
use adapipe_gridsim::grid::GridSpec;
use adapipe_gridsim::net::LinkQueue;
use adapipe_gridsim::node::NodeId;
use adapipe_gridsim::time::{SimDuration, SimTime};
use adapipe_runtime::adapt::{AdaptationLoop, RuntimeConfig};
use adapipe_runtime::backend::{ExecutionBackend, RemapPlan};
use adapipe_runtime::report::{DeadLetter, ReportBuilder, RunReport};
use adapipe_runtime::routing::RoutingTable;
use adapipe_runtime::session::{EventBus, RunConfig, RunEvent, Session, SessionId};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{HashSet, VecDeque};
use std::hash::BuildHasherDefault;
use std::ops::{Index, IndexMut};
use std::sync::RwLock;

/// Bucket width of the reported throughput timeline when
/// [`RunConfig::timeline_bucket`] is `None`, in simulated time.
const DEFAULT_TIMELINE_BUCKET: SimDuration = SimDuration::from_secs(5);

#[derive(Debug)]
enum Ev {
    /// A contiguous run of items (`first .. first + count`) enters the
    /// system at the source. Session pushes landing at the same
    /// simulated instant coalesce into one event
    /// ([`SimStepper::push_at`]), so a tight push loop schedules O(1)
    /// events instead of one per item; the handler replays the items in
    /// sequence order, reproducing the per-item event order exactly.
    Arrive { first: u64, count: u64 },
    /// Item lands at a stage instance (stage == Ns means "delivered").
    StageIn {
        item: u64,
        stage: usize,
        node: usize,
    },
    /// A task finished on a node core. `work` is the draw the task was
    /// started with, recorded as the stage's work for the item.
    Done {
        item: u64,
        stage: usize,
        node: usize,
        started: SimTime,
        work: f64,
    },
    /// A queued item re-homed by a re-mapping lands at its stage's new
    /// host. Distinct from `StageIn` because a re-homed *merge* task
    /// has already consumed its branch arrivals — it must re-enter the
    /// queue directly, not the join count.
    Rehome {
        item: u64,
        stage: usize,
        node: usize,
    },
    /// Planning tick, once per adaptation interval: the loop first
    /// observes the availability windows that ended since its last
    /// look.
    Tick,
    /// Wake a node whose instance became ready after migration.
    Retry { node: usize },
    /// A fault-plan transition (node down/up) is due; the next one is
    /// chained from the handler.
    Fault,
}

/// Runs `spec` on `grid` as `session` under `cfg` and reports the
/// outcome: `cfg.items` items on `session`'s arrival schedule.
///
/// This is the simulation *backend* entry point; applications should
/// prefer the unified `adapipe::api::Pipeline` builder, which delegates
/// here via `Backend::Sim`. Batch execution is sugar over the
/// crate's stepper: every arrival is injected up front, the stream is
/// closed, and the stepper runs to completion — the same event order
/// the historical monolithic loop produced.
pub fn run(grid: &GridSpec, spec: &PipelineSpec, session: &Session, cfg: &RunConfig) -> RunReport {
    let mut stepper = SimStepper::new(grid, spec.clone(), session, cfg, SessionId(0), 1.0);
    for &at in &session.arrivals().schedule(cfg.items) {
        stepper.push_at(at);
    }
    stepper.close();
    while !stepper.all_done() && stepper.step() {
        // Nobody pulls outputs from a batch run: keep the completion
        // log from growing with the stream.
        stepper.world.completed_log.clear();
    }
    stepper.finish()
}

/// The resolved resilience outcome of one item, computed by the caller
/// ([`crate::simsession::SimSession`] runs the real stage closures at
/// push time) and injected via [`SimStepper::push_at_with_fate`]. The
/// world models items by metadata only, so it cannot *discover*
/// failures — but given the fate, it charges their full cost: each
/// failed attempt re-runs the stage's service time in place, separated
/// by the policy's backoff schedule, and a poisoned item diverts to the
/// dead-letter channel at the stage that exhausted its budget instead
/// of reaching the sink.
#[derive(Clone, Debug, Default)]
pub(crate) struct ItemFate {
    /// Failed attempts per stage, sparse: `(stage, failed)` with
    /// `failed ≥ 1`. Stages not listed processed the item cleanly.
    pub(crate) failed: Vec<(usize, u32)>,
    /// Terminal diversion: the stage that gave up on the item and the
    /// error carried into the dead-letter record. `None` for items
    /// that reach the sink (possibly after retries).
    pub(crate) dead: Option<(usize, String)>,
}

/// A dense table addressed `(row, col)`. The world's per-(stage, node)
/// and per-(node, node) state lives in these, sized once per session:
/// the key space is the fixed stage × node grid, so a cell is index
/// arithmetic away and "no entry yet" is the fill value.
struct Table<T> {
    cols: usize,
    cells: Vec<T>,
}

impl<T: Clone> Table<T> {
    fn new(rows: usize, cols: usize, fill: T) -> Self {
        Table {
            cols,
            cells: vec![fill; rows * cols],
        }
    }
}

impl<T> Index<(usize, usize)> for Table<T> {
    type Output = T;

    fn index(&self, (row, col): (usize, usize)) -> &T {
        debug_assert!(col < self.cols);
        &self.cells[row * self.cols + col]
    }
}

impl<T> IndexMut<(usize, usize)> for Table<T> {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        debug_assert!(col < self.cols);
        &mut self.cells[row * self.cols + col]
    }
}

/// One in-flight join of one item: how many branch outputs have landed
/// at the merge stage, and the merge replica they converge on.
#[derive(Default)]
struct Join {
    /// Branch outputs that reached the merge stage so far; the merge
    /// task is enqueued when the count hits the block's join width.
    arrived: usize,
    /// The merge replica chosen for the item, fixed at the first branch
    /// exit so every branch output converges on one host (`None` while
    /// only directly fed inputs have landed).
    dest: Option<usize>,
}

/// Arrival instants by item, kept as a window over sequence numbers:
/// slot `seq − base` holds item `seq`'s arrival, items arrive in
/// sequence order, and the settled slots at the front drop off. So the
/// window spans the oldest unsettled item to the newest arrived one,
/// one `SimTime` per item of that span, and a lookup is an index.
#[derive(Default)]
struct ArrivalWindow {
    /// Sequence number of the item in the front slot.
    base: u64,
    /// Arrival instants, [`ArrivalWindow::SETTLED`] once the item settled.
    at: VecDeque<SimTime>,
}

impl ArrivalWindow {
    /// Marks a settled slot. No item arrives at the end of time, where
    /// nothing could follow it.
    const SETTLED: SimTime = SimTime::MAX;

    /// Records that `item`, the next in sequence, arrived at `at`.
    fn arrive(&mut self, item: u64, at: SimTime) {
        debug_assert_eq!(
            item,
            self.base + self.at.len() as u64,
            "items arrive in sequence order"
        );
        self.at.push_back(at);
    }

    /// Settles `item` and returns its arrival instant, or `None` if it
    /// never arrived or settled before.
    fn settle(&mut self, item: u64) -> Option<SimTime> {
        let offset = usize::try_from(item.checked_sub(self.base)?).ok()?;
        let arrived = std::mem::replace(self.at.get_mut(offset)?, Self::SETTLED);
        while self.at.front() == Some(&Self::SETTLED) {
            self.at.pop_front();
            self.base += 1;
        }
        (arrived != Self::SETTLED).then_some(arrived)
    }
}

/// The physically simulated world: event queue, node queues, transfers.
/// Implements [`ExecutionBackend`] so the shared [`AdaptationLoop`] can
/// sense it and commit re-mappings into it.
struct SimWorld<'a> {
    /// The grid, with the run's fault plan already applied to the load
    /// models (owned copy when a plan is present; the caller's grid is
    /// never mutated).
    grid: Cow<'a, GridSpec>,
    spec: PipelineSpec,
    ns: usize,
    horizon: SimTime,
    link_contention: bool,
    /// Capacity share of the pool granted to this session: stretches
    /// every service time by its inverse and scales every sensed/oracle
    /// rate, so co-tenant sessions time-sharing one simulated pool each
    /// see and get only their slice.
    rate_scale: f64,
    /// The session id stamped onto events emitted by the world itself
    /// (replays); the adaptation loop stamps its own.
    session: SessionId,
    /// Per-node down flags mirroring the fault tracker (set through
    /// [`ExecutionBackend::on_node_down`]), used to tell a *replay* —
    /// an item rescued off a dead host — from an ordinary migration
    /// re-home.
    down: Vec<bool>,
    /// Event bus for replay notifications.
    bus: EventBus,

    events: EventQueue<Ev>,
    now: SimTime,
    /// Items waiting per `(stage, node)`.
    queues: Table<VecDeque<u64>>,
    /// When a migrated stateful instance's state lands, per
    /// `(stage, node)`; `SimTime::ZERO` — never in the future — where
    /// nothing is awaited.
    ready_at: Table<SimTime>,
    free_cores: Vec<u32>,
    rr_exec: Vec<usize>,
    /// Per-direction link occupancy, `(from, to)`.
    link_q: Table<LinkQueue>,

    /// Arrival instant of every item from the oldest unsettled one to
    /// the newest one: an open-ended session's footprint is that span,
    /// 8–16 B per item, not the stream length.
    arrival_time: ArrivalWindow,
    /// Per-stage in-edge bytes, precomputed once from the stage graph
    /// ([`crate::spec::StageGraph::feed_bytes`]) — hot-path forwarding
    /// must not walk the graph per item. A merge stage's in-transit
    /// payload is one branch output; the largest branch's size is the
    /// conservative bound used when forwarding it.
    bytes_into: Vec<u64>,
    /// The pipeline's entry stage(s), precomputed once — arrivals must
    /// not rebuild the fan-out entry list per item.
    entry_stages: Vec<usize>,
    /// Branch entry stages per parallel block, precomputed once —
    /// fan-out dispatch must not allocate a fresh `Vec` per item.
    block_entries: Vec<Vec<usize>>,
    /// The joins in flight, per join block and item. An entry opens at
    /// the item's first branch exit or merge arrival and closes when
    /// its last branch output lands (or the item dead-letters).
    joins: Vec<SeqMap<Join>>,
    /// Resolved resilience outcomes for items that did *not* process
    /// cleanly ([`SimStepper::push_at_with_fate`]); entries are removed
    /// when the item settles. Clean items never enter the map.
    fates: SeqMap<ItemFate>,
    /// Items diverted to the dead-letter channel. Their copies still in
    /// flight on sibling branches must not open (or re-open) a join
    /// that can never complete.
    dead: HashSet<u64, BuildHasherDefault<SeqHasher>>,
    node_busy: Vec<SimDuration>,
    report: ReportBuilder,
    stage_metrics: crate::metrics::StageMetrics,
    /// Completion log (item indices in completion order) a live session
    /// drains through [`SimStepper::pop_completion`]. Comparable in
    /// footprint to the per-item latency samples the report keeps.
    completed_log: VecDeque<u64>,
    /// Re-mappings committed so far ([`ExecutionBackend::commit_remap`]).
    remaps: u64,
}

/// The cooperative, session-driven form of the simulation backend: the
/// caller injects arrivals and advances the world explicitly, instead of
/// handing the whole schedule over and blocking until it drains.
///
/// Lifecycle: [`SimStepper::push_at`] any number of items (their
/// simulated arrival instants must be non-decreasing against the
/// stepper's clock — past times clamp to *now*), interleaved with
/// [`SimStepper::step`] / [`SimStepper::pop_completion`]; then
/// [`SimStepper::close`] to declare the stream complete and
/// [`SimStepper::finish`] for the standard [`RunReport`].
///
/// Determinism: a given sequence of `push_at`/`step` calls replays
/// exactly (the world is a pure function of its event insertions). The
/// batch [`run`] wrapper inserts all arrivals before the first step, so
/// it reproduces the historical event order bit for bit.
pub(crate) struct SimStepper<'a> {
    world: SimWorld<'a>,
    routing: RwLock<RoutingTable>,
    aloop: AdaptationLoop,
    /// Tick and fault events are scheduled lazily at the first step so
    /// batch arrivals keep their historical head position in the event
    /// order.
    control_scheduled: bool,
    /// Coalesced arrival run not yet in the event queue:
    /// `(instant, first item, count)`. Contiguous same-instant pushes
    /// extend it in place; it flushes as one `Ev::Arrive` at the next
    /// step (before any lazily scheduled control event, preserving the
    /// historical arrivals-first insertion order).
    pending_arrival: Option<(SimTime, u64, u64)>,
    pushed: u64,
    closed: bool,
    /// Set once the event queue starved or the horizon was crossed:
    /// no further event will ever fire.
    exhausted: bool,
    /// Item events processed so far, held under [`EventBudget`].
    item_events: u64,
    budget: EventBudget,
}

/// What bounds the item events a run processes: `Arrive` (counted per
/// item it carries), `StageIn`, `Done`, `Rehome` and `Retry`. `Tick` and
/// `Fault` are control events and not counted. Each item event has a
/// cause, so the bound follows from the causes:
///
/// - With no re-map, an item arrives once, crosses each of its `hops`
///   once — one per entry stage, one per graph edge, one to the sink —
///   as a `StageIn`, and ends each stage's task once as a `Done` (a
///   failed attempt re-runs inside the same task). That is
///   `items × (1 + hops + stages)`.
/// - A committed re-map re-routes each pending position of an item at
///   most once: a copy queued at a moved stage becomes one `Rehome` (at
///   most `stages` queues hold an item, its fan-out copies included),
///   and a hop in transit to a moved stage is forwarded once more when
///   it lands (at most `hops`). It also wakes each new host of a moved
///   stateful stage once with a `Retry`, at most `stages × nodes`. That
///   is `items × (hops + stages) + stages × nodes` per re-map.
///
/// An event that reschedules itself without a cause outruns this bound,
/// and a debug build panics in [`SimStepper::step`] instead of spinning.
#[derive(Clone, Copy)]
struct EventBudget {
    hops: u64,
    stages: u64,
    nodes: u64,
}

impl EventBudget {
    /// The most item events `items` items and `remaps` committed
    /// re-maps can cause.
    fn limit(self, items: u64, remaps: u64) -> u64 {
        let per_remap = items
            .saturating_mul(self.hops + self.stages)
            .saturating_add(self.stages * self.nodes);
        items
            .saturating_mul(1 + self.hops + self.stages)
            .saturating_add(remaps.saturating_mul(per_remap))
    }
}

impl<'a> SimStepper<'a> {
    /// Creates a steppable world for `spec` on `grid` under `cfg`, with
    /// no arrivals scheduled. `cfg.items` is only the planning hint for
    /// remaining-work amortisation (the real stream length is declared
    /// by [`SimStepper::close`]); `session`'s arrival process is not
    /// read — arrival instants come from `push_at`.
    ///
    /// `id` is stamped onto every emitted [`RunEvent`], and `share` is
    /// the static capacity share of the pool granted to this session —
    /// the two values the pool supplies (`SimPool::admit` assigns ids
    /// in admission order and sets the share from the tenant's quota).
    /// A standalone run, a pool of one, is `SessionId(0)` with share
    /// `1.0`.
    pub(crate) fn new(
        grid: &'a GridSpec,
        spec: PipelineSpec,
        session: &Session,
        cfg: &RunConfig,
        id: SessionId,
        share: f64,
    ) -> Self {
        // Fault physics: the plan rewrites the load models of a private
        // copy of the grid, so availability — and therefore every
        // integrated service time — reflects the scheduled degradation
        // exactly, while the caller's grid stays untouched.
        let grid: Cow<'a, GridSpec> = if cfg.faults.is_empty() {
            Cow::Borrowed(grid)
        } else {
            let mut faulted = grid.clone();
            cfg.faults.apply(&mut faulted);
            Cow::Owned(faulted)
        };
        let np = grid.len();

        assert!(
            share.is_finite() && share > 0.0 && share <= 1.0,
            "a session's pool share must lie in (0, 1], got {share}"
        );
        // Launch rates: availability at t=0 (what a launch-time
        // scheduler with fresh information would plan from). A
        // fractional pool share scales them too, so the launch plan
        // reflects the capacity the session will really get.
        let launch_rates: Vec<f64> = grid
            .rates_at(SimTime::ZERO)
            .iter()
            .map(|r| r * share)
            .collect();
        let substrate = RuntimeConfig {
            profile: spec.profile(),
            topology: grid.topology().clone(),
            speeds: grid.node_ids().map(|id| grid.node(id).spec.speed).collect(),
            state_bytes: spec.stages.iter().map(|s| s.state_bytes).collect(),
            faults: cfg.faults.clone(),
            session: id,
        };
        let (aloop, mapping) = AdaptationLoop::launch(substrate, session, cfg, &launch_rates);

        let ns = spec.len();
        let stage_shards: Vec<usize> = spec.stages.iter().map(|s| s.state.shards()).collect();
        let bucket = cfg.timeline_bucket.unwrap_or(DEFAULT_TIMELINE_BUCKET);
        let mut report = ReportBuilder::new(bucket, u64::MAX);
        if !cfg.faults.is_empty() {
            report.set_faults(cfg.faults.clone(), np);
        }
        report.set_stage_shards(stage_shards.clone());
        let free_cores = grid.node_ids().map(|id| grid.node(id).spec.cores).collect();
        let boundary: Vec<u64> = std::iter::once(spec.input_bytes)
            .chain(spec.stages.iter().map(|s| s.out_bytes))
            .collect();
        let bytes_into = (0..ns)
            .map(|s| spec.graph.feed_bytes(s, &boundary))
            .collect();
        let entry_stages = spec.graph.entries().to_vec();
        let budget = EventBudget {
            hops: (entry_stages.len() + spec.graph.edges().count() + 1) as u64,
            stages: ns as u64,
            nodes: np as u64,
        };
        let block_entries = (0..spec.graph.blocks())
            .map(|b| spec.graph.fan_targets(b).iter().map(|t| t.stage).collect())
            .collect();
        let joins = (0..spec.graph.join_blocks())
            .map(|_| SeqMap::default())
            .collect();
        let world = SimWorld {
            grid,
            ns,
            spec,
            horizon: SimTime::ZERO.saturating_add(cfg.max_sim_time),
            link_contention: cfg.link_contention,
            rate_scale: share,
            session: id,
            down: vec![false; np],
            bus: cfg.events.clone(),
            events: EventQueue::new(),
            now: SimTime::ZERO,
            queues: Table::new(ns, np, VecDeque::new()),
            ready_at: Table::new(ns, np, SimTime::ZERO),
            free_cores,
            rr_exec: vec![0; np],
            link_q: Table::new(np, np, LinkQueue::new()),
            arrival_time: ArrivalWindow::default(),
            bytes_into,
            entry_stages,
            block_entries,
            joins,
            fates: SeqMap::default(),
            dead: HashSet::default(),
            node_busy: vec![SimDuration::ZERO; np],
            // The stream length is open until `close()`.
            report,
            stage_metrics: crate::metrics::StageMetrics::new(ns),
            completed_log: VecDeque::new(),
            remaps: 0,
        };

        SimStepper {
            world,
            routing: RwLock::new(
                RoutingTable::with_selection(mapping, cfg.selection, np)
                    .with_stage_shards(stage_shards),
            ),
            aloop,
            control_scheduled: false,
            pending_arrival: None,
            pushed: 0,
            closed: false,
            exhausted: false,
            item_events: 0,
            budget,
        }
    }

    /// Items injected so far.
    pub(crate) fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Items that reached the sink so far.
    pub(crate) fn completed(&self) -> u64 {
        self.world.report.completed()
    }

    /// True once the stream is closed and every pushed item completed.
    pub(crate) fn all_done(&self) -> bool {
        self.world.report.all_done()
    }

    /// True once no further event can ever fire (queue starved or the
    /// safety horizon was crossed) — the run is over, complete or not.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Injects the next item, arriving at simulated instant `at`
    /// (clamped to the stepper's current time — the simulator cannot
    /// rewrite history). Returns the item's sequence number.
    ///
    /// # Panics
    /// Panics if the stream was already closed.
    pub(crate) fn push_at(&mut self, at: SimTime) -> u64 {
        assert!(!self.closed, "cannot push into a closed stream");
        let item = self.pushed;
        self.pushed += 1;
        let at = at.max(self.world.events.now());
        match self.pending_arrival {
            // Contiguous push at the same instant: extend the pending
            // run instead of scheduling another event.
            Some((t, _, ref mut count)) if t == at => *count += 1,
            _ => {
                self.flush_arrivals();
                self.pending_arrival = Some((at, item, 1));
            }
        }
        item
    }

    /// [`SimStepper::push_at`], annotated with the item's resolved
    /// resilience outcome. The caller (who ran the real stage closures)
    /// reports which stages needed retries and whether the item
    /// ultimately dead-lettered; the world charges the retries' service
    /// time and backoff on the mapped hosts and diverts a poisoned item
    /// at the stage that exhausted its budget. A clean fate degenerates
    /// to a plain push.
    pub(crate) fn push_at_with_fate(&mut self, at: SimTime, fate: ItemFate) -> u64 {
        let item = self.push_at(at);
        // The common clean item stays out of the fate map entirely.
        if !fate.failed.is_empty() || fate.dead.is_some() {
            self.world.fates.insert(item, fate);
        }
        item
    }

    /// Items settled so far: completions plus dead-lettered items.
    pub(crate) fn accounted(&self) -> u64 {
        self.world.report.accounted()
    }

    /// Joins currently in flight, over every join block.
    #[cfg(test)]
    pub(crate) fn join_state(&self) -> usize {
        self.world.joins.iter().map(|open| open.len()).sum()
    }

    /// Moves the coalesced arrival run (if any) into the event queue.
    fn flush_arrivals(&mut self) {
        if let Some((at, first, count)) = self.pending_arrival.take() {
            self.world.events.schedule(at, Ev::Arrive { first, count });
        }
    }

    /// Declares the input stream complete: no further `push_at`, and
    /// the expected item count becomes the number pushed (so
    /// [`SimStepper::all_done`] and the report's `truncated` flag mean
    /// what they say).
    pub(crate) fn close(&mut self) {
        self.closed = true;
        self.world.report.set_expected(self.pushed);
    }

    /// Processes one event. Returns `false` — permanently — once the
    /// event queue is starved or the next event lies beyond the safety
    /// horizon.
    pub(crate) fn step(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        // Buffered arrivals enter the queue first: they were pushed
        // before this step, so they precede any control event scheduled
        // below (same tie-break order as unbatched per-push scheduling).
        self.flush_arrivals();
        // Control events enter the queue lazily at the first step so
        // arrivals injected before any stepping (the batch wrapper)
        // keep their historical head position in the event order.
        if !self.control_scheduled {
            self.control_scheduled = true;
            if let Some(interval) = self.aloop.interval() {
                let now = self.world.events.now();
                self.world.events.schedule(now + interval, Ev::Tick);
            }
            // Fault transitions fire at their exact simulated instants,
            // chained one event at a time (independent of the policy:
            // even a static run marks nodes down and surfaces errors).
            if let Some(at) = self.aloop.next_fault_at() {
                self.world.events.schedule(at, Ev::Fault);
            }
        }
        let Some((now, ev)) = self.world.events.pop() else {
            self.exhausted = true; // starved: the report stays truncated
            return false;
        };
        if now > self.world.horizon {
            self.exhausted = true;
            return false;
        }
        self.world.now = now;
        self.item_events += match ev {
            Ev::Arrive { count, .. } => count,
            Ev::Tick | Ev::Fault => 0,
            _ => 1,
        };
        debug_assert!(
            self.item_events <= self.budget.limit(self.pushed, self.world.remaps),
            "the simulator processed {} item events, over its budget for {} items \
             and {} re-maps: an event is rescheduling itself",
            self.item_events,
            self.pushed,
            self.world.remaps,
        );
        // `&mut self` is exclusive access already: read the routing
        // table in place. (The lock is there for the adaptation loop,
        // which installs re-mappings through it.)
        let table = self.routing.get_mut().expect("routing lock poisoned");
        match ev {
            Ev::Arrive { first, count } => {
                for item in first..first + count {
                    self.world.on_arrive(table, item, now);
                }
            }
            Ev::StageIn { item, stage, node } => {
                self.world
                    .stage_arrival(table, item, stage, node, now, false);
            }
            Ev::Done {
                item,
                stage,
                node,
                started,
                work,
            } => {
                self.world.on_done(table, item, stage, node, started, work);
            }
            Ev::Rehome { item, stage, node } => {
                self.world
                    .stage_arrival(table, item, stage, node, now, true);
            }
            Ev::Retry { node } => {
                self.world.try_dispatch(table, node, now);
            }
            Ev::Tick => {
                self.aloop.tick(&mut self.world, &self.routing);
                // Only a *fatal* fault exhausts the run — the error slot
                // alone may carry non-fatal errors (a poison item's push
                // completes as a marker and the stream continues).
                if self.aloop.is_fatal() {
                    self.exhausted = true; // nothing can progress
                    return true;
                }
                if !self.world.report.all_done() {
                    let interval = self.aloop.interval().expect("tick implies interval");
                    self.world.events.schedule(now + interval, Ev::Tick);
                }
            }
            Ev::Fault => {
                self.aloop.poll_faults(&mut self.world, &self.routing);
                if self.aloop.is_fatal() {
                    self.exhausted = true; // error recorded on `control`
                    return true;
                }
                if let Some(at) = self.aloop.next_fault_at() {
                    self.world.events.schedule(at, Ev::Fault);
                }
            }
        }
        true
    }

    /// The simulated instant of the next event that would fire — the
    /// earlier of the event queue's head and any buffered arrival run —
    /// or `None` when nothing is pending. A cluster interleaving
    /// several steppers over one pool steps whichever session's next
    /// event is earliest, giving one coherent merged event clock.
    ///
    /// Control events (ticks, faults) are scheduled lazily at
    /// the first [`SimStepper::step`], so before any stepping this
    /// reflects arrivals only.
    pub(crate) fn next_event_at(&self) -> Option<SimTime> {
        let queued = self.world.events.peek_time();
        let pending = self.pending_arrival.map(|(at, _, _)| at);
        match (queued, pending) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Pops the oldest not-yet-collected completion, without advancing
    /// the world — or `None` when every completion so far has been
    /// collected. [`crate::simsession::SimSession`] collects this way
    /// after stepping its pool's merged event clock (a co-tenant's
    /// step may have completed this world's items).
    pub(crate) fn pop_completion(&mut self) -> Option<u64> {
        self.world.completed_log.pop_front()
    }

    /// Consumes the stepper and assembles the standard [`RunReport`].
    /// An unclosed stream is settled first (expected = pushed), so an
    /// aborted session reports `truncated` iff items were lost.
    pub(crate) fn finish(mut self) -> RunReport {
        if !self.closed {
            self.close();
        }
        let SimStepper {
            world,
            routing,
            aloop,
            ..
        } = self;
        let final_mapping = routing
            .into_inner()
            .expect("routing lock poisoned")
            .mapping()
            .clone();
        let SimWorld {
            mut report,
            node_busy,
            stage_metrics,
            ..
        } = world;
        aloop.finish(&mut report);
        report.finish(final_mapping, node_busy, stage_metrics)
    }
}

impl SimWorld<'_> {
    // --- event handlers -------------------------------------------------

    fn on_arrive(&mut self, routing: &RoutingTable, item: u64, now: SimTime) {
        self.arrival_time.arrive(item, now);
        for i in 0..self.entry_stages.len() {
            let stage = self.entry_stages[i];
            let dest = route_item(&self.spec, &self.queues, routing, stage, item);
            let at = match self.spec.source {
                Some(src) => self.transfer(src.index(), dest, self.spec.input_bytes, now),
                None => now,
            };
            self.events.schedule(
                at,
                Ev::StageIn {
                    item,
                    stage,
                    node: dest,
                },
            );
        }
    }

    /// A stage arrival: a fresh `StageIn` (`rejoined = false`) counts
    /// toward a merge stage's join; a `Rehome` (`rejoined = true`) is a
    /// re-mapped queue item whose join already completed and re-enters
    /// the queue directly.
    fn stage_arrival(
        &mut self,
        routing: &RoutingTable,
        item: u64,
        stage: usize,
        node: usize,
        now: SimTime,
        rejoined: bool,
    ) {
        if stage == self.ns {
            self.record_completion(item, now);
            return;
        }
        if !routing.contains(stage, NodeId(node)) {
            // The stage moved while this item was in transit: forward
            // it, preserving its joined-ness.
            let dest = route_item(&self.spec, &self.queues, routing, stage, item);
            let bytes = self.bytes_into[stage];
            let at = self.transfer(node, dest, bytes, now);
            let ev = if rejoined {
                Ev::Rehome {
                    item,
                    stage,
                    node: dest,
                }
            } else {
                Ev::StageIn {
                    item,
                    stage,
                    node: dest,
                }
            };
            self.events.schedule(at, ev);
            return;
        }
        if !rejoined {
            if let Some(block) = self.spec.graph.merge_block_of(stage) {
                if self.is_dead(item) {
                    return; // a sibling branch diverted the item
                }
                // A merge stage serves one *joined* task per item: count
                // the branch outputs as they land and enqueue only the
                // last one.
                let needed = self.spec.graph.join_width(block);
                let mut join = match self.joins[block].entry(item) {
                    Entry::Occupied(open) => open,
                    Entry::Vacant(slot) => slot.insert_entry(Join::default()),
                };
                join.get_mut().arrived += 1;
                if join.get().arrived < needed {
                    return;
                }
                join.remove();
            }
        }
        self.queues[(stage, node)].push_back(item);
        self.try_dispatch(routing, node, now);
    }

    /// A task of `work` units started at `started` ends now.
    fn on_done(
        &mut self,
        routing: &RoutingTable,
        item: u64,
        stage: usize,
        node: usize,
        started: SimTime,
        work: f64,
    ) {
        let now = self.now;
        self.free_cores[node] += 1;
        self.node_busy[node] = self.node_busy[node].saturating_add(now - started);
        self.stage_metrics.record(stage, now - started, work);
        // Resilience accounting for the hop: retries consumed, the
        // opt-in per-hop trace — and, terminally, the dead-letter
        // diversion for an item that exhausted this stage's budget (it
        // settles here and never reaches the sink).
        let failed = self.failed_attempts(stage, item).unwrap_or(0);
        if failed > 0 {
            self.report.record_retries(u64::from(failed));
        }
        if self.spec.stages[stage].resilience.trace {
            self.bus.emit(RunEvent::ItemTrace {
                session: self.session,
                seq: item,
                stage,
                attempts: failed + 1,
                at: now,
            });
        }
        let diverted = self
            .fate(item)
            .and_then(|f| f.dead.as_ref())
            .is_some_and(|&(s, _)| s == stage);
        if diverted {
            let fate = self.fates.remove(&item).expect("diverted item has a fate");
            let (_, reason) = fate.dead.expect("diverted fate carries a reason");
            self.arrival_time.settle(item);
            // Whatever the item's sibling branches already parked at a
            // join waits for an input that will never come.
            self.dead.insert(item);
            for open in &mut self.joins {
                open.remove(&item);
            }
            self.report.record_dead_letter(DeadLetter {
                seq: item,
                stage,
                attempts: failed + 1,
                reason,
            });
            self.bus.emit(RunEvent::ItemDeadLettered {
                session: self.session,
                seq: item,
                stage,
                attempts: failed + 1,
            });
            // A diverted item is settled: the session drains it through
            // the completion log (with no output to deliver) so ordered
            // delivery and `all_done` stay coherent.
            self.completed_log.push_back(item);
            self.try_dispatch(routing, node, now);
            return;
        }
        // Route onward along the stage graph.
        let out_bytes = self.spec.stages[stage].out_bytes;
        match self.spec.graph.after(stage) {
            Next::Done => match self.spec.sink {
                Some(sink) => {
                    let at = self.transfer(node, sink.index(), out_bytes, now);
                    self.events.schedule(
                        at,
                        Ev::StageIn {
                            item,
                            stage: self.ns,
                            node: sink.index(),
                        },
                    );
                }
                None => self.record_completion(item, now),
            },
            Next::Stage(next) => {
                let dest = route_item(&self.spec, &self.queues, routing, next, item);
                let at = self.transfer(node, dest, out_bytes, now);
                self.events.schedule(
                    at,
                    Ev::StageIn {
                        item,
                        stage: next,
                        node: dest,
                    },
                );
            }
            Next::FanOut { block } => {
                // One copy per branch, dispatched in branch order.
                for i in 0..self.block_entries[block].len() {
                    let entry = self.block_entries[block][i];
                    let dest = route_item(&self.spec, &self.queues, routing, entry, item);
                    let at = self.transfer(node, dest, out_bytes, now);
                    self.events.schedule(
                        at,
                        Ev::StageIn {
                            item,
                            stage: entry,
                            node: dest,
                        },
                    );
                }
            }
            Next::Join { .. } if self.is_dead(item) => {}
            Next::Join { block, .. } => {
                // Every branch output of an item converges on one merge
                // replica, chosen at the first branch exit. A pin that
                // went stale — its host vacated by a re-map or marked
                // down — is re-routed (the join count is keyed by item,
                // not host, so arrivals still pair up).
                let merge = self.spec.graph.merge_of(block);
                let join = self.joins[block].entry(item).or_default();
                let dest = match join.dest {
                    Some(d)
                        if routing.contains(merge, NodeId(d)) && !routing.is_down(NodeId(d)) =>
                    {
                        d
                    }
                    _ => {
                        let d = route_item(&self.spec, &self.queues, routing, merge, item);
                        join.dest = Some(d);
                        d
                    }
                };
                let at = self.transfer(node, dest, out_bytes, now);
                self.events.schedule(
                    at,
                    Ev::StageIn {
                        item,
                        stage: merge,
                        node: dest,
                    },
                );
            }
        }
        self.try_dispatch(routing, node, now);
    }

    // --- mechanics --------------------------------------------------------

    /// Arrival time of `bytes` moved `from → to` starting at `now`.
    fn transfer(&mut self, from: usize, to: usize, bytes: u64, now: SimTime) -> SimTime {
        let d = self
            .grid
            .topology()
            .transfer_time(NodeId(from), NodeId(to), bytes);
        if self.link_contention && from != to {
            self.link_q[(from, to)].schedule(now, d)
        } else {
            now + d
        }
    }

    /// Starts as many queued tasks as the node has free cores.
    fn try_dispatch(&mut self, routing: &RoutingTable, node: usize, now: SimTime) {
        while self.free_cores[node] > 0 {
            let Some(stage) = self.pick_ready_stage(routing, node, now) else {
                break;
            };
            let item = self.queues[(stage, node)]
                .pop_front()
                .expect("picked stage queue is non-empty");
            // A fractional pool share stretches service: the node spends
            // `1/rate_scale` of wall time per unit of this session's work.
            let drawn = self.spec.draw_work(stage, item);
            let mut work = drawn / self.rate_scale;
            let mut backoff = SimDuration::ZERO;
            if let Some(failed) = self.failed_attempts(stage, item) {
                // Each failed attempt re-runs the stage in place,
                // separated by the policy's backoff schedule; the core
                // is held throughout, matching the threaded engine's
                // in-place retry loop.
                let policy = &self.spec.stages[stage].resilience;
                work *= f64::from(failed + 1);
                for retry in 1..=failed {
                    backoff = backoff.saturating_add(policy.backoff_delay(retry));
                }
            }
            // "Never" (`SimTime::MAX`, a crashed node) stays never.
            let done_at = self
                .grid
                .node(NodeId(node))
                .completion_time(now, work)
                .saturating_add(backoff);
            if done_at > self.horizon {
                // The node cannot finish this task within the run horizon
                // (it is dead or as good as dead): park the item; only a
                // re-mapping can rescue this queue.
                self.queues[(stage, node)].push_front(item);
                break;
            }
            self.free_cores[node] -= 1;
            self.events.schedule(
                done_at,
                Ev::Done {
                    item,
                    stage,
                    node,
                    started: now,
                    work: drawn,
                },
            );
        }
    }

    /// The next stage hosted on `node` with a ready, non-empty queue,
    /// scanned round-robin for fairness among coalesced stages.
    fn pick_ready_stage(
        &mut self,
        routing: &RoutingTable,
        node: usize,
        now: SimTime,
    ) -> Option<usize> {
        let ns = self.ns;
        let start = self.rr_exec[node];
        for off in 0..ns {
            let stage = (start + off) % ns;
            // Cheapest test first: most stages have nothing queued here,
            // and the hosting test searches a placement.
            if self.queues[(stage, node)].is_empty()
                || self.ready_at[(stage, node)] > now
                || !routing.contains(stage, NodeId(node))
            {
                continue;
            }
            self.rr_exec[node] = (stage + 1) % ns;
            return Some(stage);
        }
        None
    }

    /// The item's resolved fate, if it did not process cleanly. Clean
    /// runs never fill the map, so they never hash into it.
    fn fate(&self, item: u64) -> Option<&ItemFate> {
        if self.fates.is_empty() {
            return None;
        }
        self.fates.get(&item)
    }

    /// True once a sibling branch diverted `item` to the dead-letter
    /// channel; like [`SimWorld::fate`], free while nothing has.
    fn is_dead(&self, item: u64) -> bool {
        !self.dead.is_empty() && self.dead.contains(&item)
    }

    /// Failed-attempt count for `(stage, item)` from the item's fate,
    /// if any — `None` for the common clean hop.
    fn failed_attempts(&self, stage: usize, item: u64) -> Option<u32> {
        self.fate(item)?
            .failed
            .iter()
            .find(|&&(s, _)| s == stage)
            .map(|&(_, f)| f)
    }

    fn record_completion(&mut self, item: u64, now: SimTime) {
        let arrived = self.arrival_time.settle(item).unwrap_or(SimTime::ZERO);
        let latency = now.saturating_since(arrived);
        self.report.record_completion(now, latency);
        if !self.fates.is_empty() {
            self.fates.remove(&item);
        }
        self.completed_log.push_back(item);
    }
}

/// Destination replica for `item` at `stage`. A stage with declared
/// keyed state routes by key hash so every item of a key lands on its
/// shard's owner (the simulator models items by sequence number, which
/// stands in for the key hash — the real hash only exists on the
/// executing backend); every other stage follows the configured
/// selection policy (least-loaded probes the simulated queue depths).
///
/// A function of the world's fields rather than a method, so a caller
/// holding one of its other tables open (a join entry) can still route.
fn route_item(
    spec: &PipelineSpec,
    queues: &Table<VecDeque<u64>>,
    routing: &RoutingTable,
    stage: usize,
    item: u64,
) -> usize {
    if spec.stages[stage].state.shards() > 0 {
        return routing.route_keyed(stage, item).index();
    }
    routing
        .route_with_load(stage, |n| queues[(stage, n.index())].len())
        .index()
}

impl ExecutionBackend for SimWorld<'_> {
    fn node_count(&self) -> usize {
        self.grid.len()
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn mean_availability(&self, node: usize, from: SimTime, to: SimTime) -> f64 {
        self.grid
            .node(NodeId(node))
            .load
            .mean_availability(from, to)
            * self.rate_scale
    }

    fn completed(&self) -> u64 {
        self.report.completed()
    }

    /// Applies an accepted re-mapping: queued items of moved stages
    /// re-home to the new hosts after the migration cost; stateful stages
    /// block their new instance until state arrives. Items rescued off a
    /// *down* host additionally count as replays (at-least-once
    /// re-delivery after a node loss) and announce themselves on the
    /// event bus.
    fn commit_remap(&mut self, plan: &RemapPlan) {
        self.remaps += 1;
        let ready = plan.ready_at;
        for &stage in &plan.moved {
            let new_placement = plan.to.placement(stage);
            // Drain queues on hosts that no longer serve this stage.
            let mut orphans: Vec<(u64, usize)> = Vec::new();
            for host in plan.from.placement(stage).hosts() {
                if !new_placement.contains(*host) {
                    let queue = &mut self.queues[(stage, host.index())];
                    orphans.extend(queue.drain(..).map(|item| (item, host.index())));
                }
            }
            // Re-home orphans over the new hosts — keyed stages pin
            // each item to its shard's new owner, everything else goes
            // round-robin; they arrive once migration completes.
            // `Rehome`, not `StageIn`: a queued item at a merge stage
            // has already consumed its branch arrivals and must
            // re-enter the queue directly, not be counted as a fresh
            // (and forever-incomplete) join.
            let shards = self.spec.stages[stage].state.shards();
            for (k, (item, from)) in orphans.into_iter().enumerate() {
                if self.down[from] {
                    self.report.record_replay(1);
                    self.bus.emit(RunEvent::ItemReplayed {
                        session: self.session,
                        seq: item,
                        stage,
                        from,
                        branch: self.spec.graph.branch_of(stage),
                    });
                }
                let dest = if shards > 0 {
                    let owner = adapipe_state::owner_of(
                        adapipe_state::shard_of(item, shards),
                        new_placement.width(),
                    );
                    new_placement.hosts()[owner].index()
                } else {
                    new_placement.hosts()[k % new_placement.width()].index()
                };
                self.events.schedule(
                    ready,
                    Ev::Rehome {
                        item,
                        stage,
                        node: dest,
                    },
                );
            }
            // Stateful stages cannot serve on the new hosts until their
            // state lands.
            if !self.spec.stages[stage].state.is_stateless() {
                for &host in new_placement.hosts() {
                    self.ready_at[(stage, host.index())] = ready;
                    self.events
                        .schedule(ready, Ev::Retry { node: host.index() });
                }
            }
        }
    }

    fn on_node_down(&mut self, node: usize, _at: SimTime) {
        self.down[node] = true;
    }

    fn on_node_up(&mut self, node: usize, _at: SimTime) {
        self.down[node] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::StageSpec;
    use adapipe_gridsim::fault::FaultPlan;
    use adapipe_gridsim::grid::{testbed_hetero8, testbed_small3};
    use adapipe_gridsim::load::LoadModel;
    use adapipe_gridsim::net::{LinkSpec, Topology};
    use adapipe_gridsim::node::{Node, NodeSpec};
    use adapipe_mapper::mapping::Mapping;
    use adapipe_runtime::arrivals::ArrivalProcess;
    use adapipe_runtime::policy::Policy;
    use adapipe_runtime::routing::Selection;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    /// `policy` over a stream that is all present at `t = 0`.
    fn under(policy: Policy) -> Session {
        Session::new(policy, ArrivalProcess::AllAtOnce).expect("a valid policy")
    }

    /// The static baseline under a paced open stream.
    fn paced(arrivals: ArrivalProcess) -> Session {
        Session::baseline(Policy::Static, arrivals).expect("a valid rate")
    }

    /// [`run`] for a session granted `share` of the pool.
    fn run_with_share(
        grid: &GridSpec,
        spec: &PipelineSpec,
        cfg: &RunConfig,
        share: f64,
    ) -> RunReport {
        let session = Session::default();
        let mut stepper = SimStepper::new(grid, spec.clone(), &session, cfg, SessionId(0), share);
        for _ in 0..cfg.items {
            stepper.push_at(SimTime::ZERO);
        }
        stepper.close();
        while !stepper.all_done() && stepper.step() {}
        stepper.finish()
    }

    /// 3 identical free nodes, 3 balanced unit-work stages, no bytes.
    fn balanced_setup() -> (GridSpec, PipelineSpec) {
        (testbed_small3(), PipelineSpec::balanced(3, 1.0, 0))
    }

    /// Steps the world until one more item settles (completes or
    /// dead-letters) and returns its sequence number; `None` when
    /// nothing is in flight or no further event can fire.
    fn next_settled(stepper: &mut SimStepper<'_>) -> Option<u64> {
        loop {
            if let Some(item) = stepper.pop_completion() {
                return Some(item);
            }
            if stepper.accounted() >= stepper.pushed() || !stepper.step() {
                return None;
            }
        }
    }

    /// Every tick's verdict reaches the bus, and the verdicts tally with
    /// what the run reports: the re-maps are the report's adaptations,
    /// the keeps, confirmations and re-maps are its planning cycles, and
    /// the certified keeps are the cycles that ran no search. The
    /// scenario is `sim_adaptive`'s in short: its six-stage DAG on
    /// hetero8, whose fastest node drops to 15 % at t = 60 s, under a
    /// periodic controller and a paced stream.
    #[test]
    fn tick_verdicts_tally_with_the_report() {
        let mut grid = testbed_hetero8(7);
        FaultPlan::new()
            .slowdown(n(0), secs(60.0), secs(1e9), 0.15)
            .apply(&mut grid);
        let work = [0.4, 0.6, 0.8, 1.0, 1.2, 1.4];
        let stages = (0..6)
            .map(|i| crate::spec::StageSpec::balanced(format!("s{i}"), work[i], 32 << 10))
            .collect();
        let graph = crate::spec::StageGraph::builder()
            .stages(1)
            .split(&[1, 1])
            .stages(2)
            .build();
        let spec = PipelineSpec::with_graph(stages, graph);
        let events = EventBus::default();
        let ticks = events.subscribe();
        let cfg = RunConfig {
            items: 600,
            events,
            ..RunConfig::default()
        };
        let periodic = Policy::Periodic {
            interval: SimDuration::from_secs(5),
        };
        let session = Session::new(periodic, ArrivalProcess::Uniform { rate: 1.6 }).unwrap();
        let mut stepper = SimStepper::new(&grid, spec, &session, &cfg, SessionId(0), 1.0);
        for &at in &session.arrivals().schedule(cfg.items) {
            stepper.push_at(at);
        }
        stepper.close();
        while !stepper.all_done() && stepper.step() {}
        let searches = stepper.aloop.controller().searches();
        let report = stepper.finish();
        let mut tally = std::collections::BTreeMap::new();
        for event in ticks.try_iter() {
            if let RunEvent::Tick { verdict, .. } = event {
                *tally.entry(verdict.kind()).or_insert(0u64) += 1;
            }
        }
        let count = |planned: fn(&str) -> bool| -> u64 {
            tally
                .iter()
                .filter(|(k, _)| planned(k))
                .map(|(_, n)| n)
                .sum()
        };
        assert_eq!(report.completed, 600);
        assert_eq!(count(|k| k == "remap"), report.adaptation_count() as u64);
        assert_eq!(
            count(|k| k.starts_with("keep:") || k == "confirming" || k == "remap"),
            report.planning_cycles
        );
        let certified = tally.get("keep:certified").copied().unwrap_or(0);
        assert_eq!(certified, report.planning_cycles - searches);
        assert!(
            report.adaptation_count() > 0 && certified > 0 && searches > 0,
            "the scenario must re-map, search and certify: {tally:?}"
        );
    }

    #[test]
    fn balanced_pipeline_achieves_model_throughput() {
        let (grid, spec) = balanced_setup();
        let cfg = RunConfig {
            items: 200,
            initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1), n(2)])),
            ..RunConfig::default()
        };
        let report = run(&grid, &spec, &Session::default(), &cfg);
        assert_eq!(report.completed, 200);
        assert!(!report.truncated);
        // Model: latency 3 s + 199 items at 1 item/s = 202 s.
        let makespan = report.makespan.as_secs_f64();
        assert!((makespan - 202.0).abs() < 2.0, "makespan={makespan}");
    }

    #[test]
    fn coalesced_mapping_halves_throughput() {
        let (grid, spec) = balanced_setup();
        let all_on_one = RunConfig {
            items: 100,
            initial_mapping: Some(Mapping::all_on(n(0), 3)),
            ..RunConfig::default()
        };
        let report = run(&grid, &spec, &Session::default(), &all_on_one);
        assert_eq!(report.completed, 100);
        // 3 units of work per item on one unit-speed node ⇒ ≈ 300 s.
        let makespan = report.makespan.as_secs_f64();
        assert!((makespan - 300.0).abs() < 3.0, "makespan={makespan}");
        assert!(report.node_utilisation(0) > 0.95);
    }

    #[test]
    fn rate_scale_stretches_service_proportionally() {
        let (grid, spec) = balanced_setup();
        let cfg = RunConfig {
            items: 100,
            initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1), n(2)])),
            ..RunConfig::default()
        };
        let full = run_with_share(&grid, &spec, &cfg, 1.0);
        let half = run_with_share(&grid, &spec, &cfg, 0.5);
        assert_eq!(full.completed, 100);
        assert_eq!(half.completed, 100);
        // Half the pool share ⇒ every service takes twice as long ⇒
        // the steady-state rate halves and the makespan roughly doubles.
        let ratio = half.makespan.as_secs_f64() / full.makespan.as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.1, "ratio={ratio}");
    }

    #[test]
    fn stepper_surfaces_next_event_and_buffered_completions() {
        let (grid, spec) = balanced_setup();
        let cfg = RunConfig {
            initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1), n(2)])),
            ..RunConfig::default()
        };
        let mut stepper =
            SimStepper::new(&grid, spec, &Session::default(), &cfg, SessionId(0), 1.0);
        assert_eq!(stepper.next_event_at(), None);
        stepper.push_at(secs(3.0));
        // The buffered (not yet flushed) arrival is visible.
        assert_eq!(stepper.next_event_at(), Some(secs(3.0)));
        stepper.close();
        assert_eq!(stepper.pop_completion(), None);
        while stepper.pop_completion().is_none() {
            assert!(stepper.next_event_at().is_some(), "events starved early");
            assert!(stepper.step(), "run exhausted before completion");
        }
        assert_eq!(stepper.completed(), 1);
        assert_eq!(stepper.pop_completion(), None);
    }

    #[test]
    fn simulation_is_deterministic() {
        let grid = testbed_hetero8(42);
        let spec = PipelineSpec::balanced(4, 1.0, 10_000);
        let cfg = RunConfig {
            items: 300,
            ..RunConfig::default()
        };
        let a = run(&grid, &spec, &under(Policy::periodic_default()), &cfg);
        let b = run(&grid, &spec, &under(Policy::periodic_default()), &cfg);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.adaptations.len(), b.adaptations.len());
    }

    #[test]
    fn planned_launch_mapping_beats_all_on_slowest() {
        let grid = testbed_hetero8(1);
        let spec = PipelineSpec::balanced(4, 2.0, 1000);
        // Planned (None → planner) vs a deliberately bad launch mapping.
        let planned = run(
            &grid,
            &spec,
            &Session::default(),
            &RunConfig {
                items: 200,
                ..RunConfig::default()
            },
        );
        let bad = run(
            &grid,
            &spec,
            &Session::default(),
            &RunConfig {
                items: 200,
                initial_mapping: Some(Mapping::all_on(n(7), 4)), // slowest node
                ..RunConfig::default()
            },
        );
        assert!(planned.makespan < bad.makespan);
    }

    #[test]
    fn adaptive_recovers_from_load_step_static_does_not() {
        // Node 1 hosts a stage and collapses to 5 % at t = 50 s.
        let mut grid = testbed_small3();
        FaultPlan::new()
            .slowdown(n(1), secs(50.0), secs(100_000.0), 0.05)
            .apply(&mut grid);
        let spec = PipelineSpec::balanced(3, 1.0, 0);
        let mapping = Mapping::from_assignment(&[n(0), n(1), n(2)]);

        let static_cfg = RunConfig {
            items: 500,
            initial_mapping: Some(mapping.clone()),
            ..RunConfig::default()
        };
        let adaptive_cfg = RunConfig {
            items: 500,
            initial_mapping: Some(mapping),
            ..RunConfig::default()
        };
        let static_report = run(&grid, &spec, &under(Policy::Static), &static_cfg);
        let adaptive_report = run(
            &grid,
            &spec,
            &under(Policy::periodic_default()),
            &adaptive_cfg,
        );

        assert_eq!(static_report.completed, 500);
        assert_eq!(adaptive_report.completed, 500);
        assert!(adaptive_report.adaptation_count() >= 1, "must re-map");
        // Static: post-step the bottleneck is 1/0.05 = 20 s/item.
        // Adaptive re-maps off node 1 (e.g. coalescing on the free nodes).
        assert!(
            adaptive_report.makespan.as_secs_f64() < 0.5 * static_report.makespan.as_secs_f64(),
            "adaptive {} vs static {}",
            adaptive_report.makespan,
            static_report.makespan
        );
    }

    #[test]
    fn oracle_is_at_least_as_good_as_adaptive() {
        let mut grid = testbed_small3();
        FaultPlan::new()
            .slowdown(n(1), secs(30.0), secs(100_000.0), 0.1)
            .apply(&mut grid);
        let spec = PipelineSpec::balanced(3, 1.0, 0);
        let mapping = Mapping::from_assignment(&[n(0), n(1), n(2)]);
        let cfg = RunConfig {
            items: 400,
            initial_mapping: Some(mapping),
            ..RunConfig::default()
        };
        let adaptive = run(&grid, &spec, &under(Policy::periodic_default()), &cfg);
        let oracle = run(
            &grid,
            &spec,
            &under(Policy::Oracle {
                interval: SimDuration::from_secs(5),
            }),
            &cfg,
        );
        // Allow a small tolerance: the oracle plans on interval means, so
        // pathological tie-breaks can cost it a hair.
        assert!(
            oracle.makespan.as_secs_f64() <= adaptive.makespan.as_secs_f64() * 1.05,
            "oracle {} vs adaptive {}",
            oracle.makespan,
            adaptive.makespan
        );
    }

    #[test]
    fn reactive_adapts_only_on_degradation() {
        let mut grid = testbed_small3();
        FaultPlan::new()
            .slowdown(n(1), secs(50.0), secs(100_000.0), 0.05)
            .apply(&mut grid);
        let spec = PipelineSpec::balanced(3, 1.0, 0);
        let mapping = Mapping::from_assignment(&[n(0), n(1), n(2)]);
        let cfg = RunConfig {
            items: 400,
            initial_mapping: Some(mapping),
            ..RunConfig::default()
        };
        let report = run(
            &grid,
            &spec,
            &under(Policy::Reactive {
                interval: SimDuration::from_secs(5),
                degradation: 0.7,
            }),
            &cfg,
        );
        assert_eq!(report.completed, 400);
        assert!(report.adaptation_count() >= 1);
        // The first adaptation happens after the fault, not before.
        assert!(report.adaptations[0].at >= secs(50.0));
    }

    #[test]
    fn replicated_stage_processes_all_items_exactly_once() {
        let grid = testbed_small3();
        let mut spec = PipelineSpec::balanced(2, 1.0, 0);
        spec.stages[0].work = Box::new(crate::spec::ConstantWork(2.0));
        let mapping = Mapping::new(vec![
            adapipe_mapper::mapping::Placement::replicated(vec![n(0), n(1)]),
            adapipe_mapper::mapping::Placement::single(n(2)),
        ]);
        let cfg = RunConfig {
            items: 100,
            initial_mapping: Some(mapping),
            ..RunConfig::default()
        };
        let report = run(&grid, &spec, &Session::default(), &cfg);
        assert_eq!(report.completed, 100);
        // Hot stage is halved: bottleneck = max(2/2, 1) = 1 s/item.
        assert!((report.makespan.as_secs_f64() - 102.0).abs() < 3.0);
    }

    fn uniform_grid(np: usize) -> GridSpec {
        let nodes = (0..np)
            .map(|i| Node::new(NodeSpec::new(format!("n{i}"), 1.0, 1), LoadModel::free()))
            .collect();
        GridSpec::new(nodes, Topology::uniform(np, LinkSpec::lan()))
    }

    /// A task farm: a one-stage spec with the given per-item work and
    /// item size, which the planner may replicate.
    fn farm_spec(work: f64, bytes: u64) -> PipelineSpec {
        let mut spec = PipelineSpec::new(vec![StageSpec::balanced("farm", work, bytes)]);
        spec.input_bytes = bytes;
        spec
    }

    #[test]
    fn simulated_farm_scales_with_nodes() {
        // 1 unit of work per item; the planner may replicate up to 8 wide.
        let spec = farm_spec(1.0, 1_000);
        let items = 200u64;
        let mut makespans = Vec::new();
        for np in [1usize, 2, 4, 8] {
            let mut cfg = RunConfig {
                items,
                ..RunConfig::default()
            };
            cfg.controller.planner.max_width = 8;
            let report = run(&uniform_grid(np), &spec, &Session::default(), &cfg);
            assert_eq!(report.completed, items);
            makespans.push(report.makespan.as_secs_f64());
        }
        // Farm throughput scales near-linearly: 8 nodes ≥ 6x faster than 1.
        let speedup = makespans[0] / makespans[3];
        assert!(speedup > 6.0, "8-node farm speedup {speedup:.2}");
        // And monotone in between.
        assert!(makespans.windows(2).all(|w| w[1] <= w[0] * 1.01));
    }

    #[test]
    fn adaptive_farm_survives_worker_loss() {
        let mut grid = uniform_grid(4);
        FaultPlan::new()
            .crash(NodeId(2), SimTime::from_secs_f64(20.0))
            .apply(&mut grid);
        let spec = farm_spec(1.0, 0);
        let mut cfg = RunConfig {
            items: 300,
            ..RunConfig::default()
        };
        cfg.controller.planner.max_width = 4;
        let session = Session::new(
            Policy::Periodic {
                interval: SimDuration::from_secs(5),
            },
            ArrivalProcess::AllAtOnce,
        )
        .expect("a valid policy");
        let report = run(&grid, &spec, &session, &cfg);
        assert_eq!(report.completed, 300, "farm must re-spread after the crash");
        assert!(report.adaptation_count() >= 1);
        assert!(!report.final_mapping.placement(0).contains(NodeId(2)));
    }

    #[test]
    fn least_loaded_selection_favours_the_faster_replica() {
        // One stage replicated over a fast and a 4×-slower node. Under
        // least-loaded selection items pile up behind the slow replica
        // and new arrivals steer to the fast one, so the run beats
        // round-robin (which deals the slow node an equal share).
        let mut grid = testbed_small3();
        grid.set_load(n(1), LoadModel::constant(0.25));
        let spec = PipelineSpec::balanced(1, 1.0, 0);
        let mapping = Mapping::new(vec![adapipe_mapper::mapping::Placement::replicated(vec![
            n(0),
            n(1),
        ])]);
        let mk = |selection| RunConfig {
            items: 200,
            initial_mapping: Some(mapping.clone()),
            selection,
            ..RunConfig::default()
        };
        let rr = run(
            &grid,
            &spec,
            &paced(ArrivalProcess::Uniform { rate: 1.2 }),
            &mk(Selection::RoundRobin),
        );
        let ll = run(
            &grid,
            &spec,
            &paced(ArrivalProcess::Uniform { rate: 1.2 }),
            &mk(Selection::LeastLoaded),
        );
        assert_eq!(rr.completed, 200);
        assert_eq!(ll.completed, 200);
        assert!(
            ll.makespan < rr.makespan,
            "least-loaded {} should beat round-robin {}",
            ll.makespan,
            rr.makespan
        );
    }

    #[test]
    fn stateful_stage_blocks_until_state_arrives() {
        // Stage 1 is stateful with 100 MB of state: migration over a LAN
        // takes ≈ 0.8 s; the adaptive run must still complete correctly.
        let mut grid = testbed_small3();
        FaultPlan::new()
            .slowdown(n(1), secs(20.0), secs(100_000.0), 0.02)
            .apply(&mut grid);
        let mut spec = PipelineSpec::balanced(3, 1.0, 0);
        spec.stages[1] = crate::spec::StageSpec::balanced("stateful", 1.0, 0).with_state(100 << 20);
        let cfg = RunConfig {
            items: 300,
            initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1), n(2)])),
            ..RunConfig::default()
        };
        let report = run(&grid, &spec, &under(Policy::periodic_default()), &cfg);
        assert_eq!(report.completed, 300);
        assert!(report.adaptation_count() >= 1);
        let migration = report.adaptations[0].migration_cost;
        assert!(
            migration > SimDuration::from_millis(500),
            "state transfer must dominate migration cost, got {migration}"
        );
    }

    #[test]
    fn config_fault_plan_replays_items_and_reports_downtime() {
        // The same crash as crash_under_adaptive_policy_completes, but
        // declared on the run config: the grid passed in stays pristine, the
        // run survives, stranded items count as replays, and the report
        // carries per-node downtime.
        let grid = testbed_small3();
        let spec = PipelineSpec::balanced(3, 1.0, 0);
        let bus = EventBus::default();
        let events = bus.subscribe();
        let cfg = RunConfig {
            items: 200,
            initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1), n(2)])),
            faults: FaultPlan::new().crash(n(1), secs(10.0)),
            events: bus,
            ..RunConfig::default()
        };
        let report = run(&grid, &spec, &under(Policy::periodic_default()), &cfg);
        assert_eq!(report.completed, 200, "crash must be survived");
        assert!(!report.truncated);
        // The caller's grid was not mutated by the fault plan.
        assert_eq!(grid.node(n(1)).load.availability(secs(20.0)), 1.0);
        // Items queued on the dead node were rescued and counted.
        assert!(report.replays > 0, "stranded items must replay");
        assert!(!report.final_mapping.nodes_used().contains(&n(1)));
        assert_eq!(report.node_downtime.len(), 3);
        assert!(report.node_downtime[1] > SimDuration::ZERO);
        assert_eq!(report.node_downtime[0], SimDuration::ZERO);
        let seen: Vec<_> = events.try_iter().collect();
        use adapipe_runtime::session::RunEvent;
        assert!(seen
            .iter()
            .any(|e| matches!(e, RunEvent::NodeDown { node: 1, .. })));
        let replay_events = seen
            .iter()
            .filter(|e| matches!(e, RunEvent::ItemReplayed { .. }))
            .count() as u64;
        assert_eq!(replay_events, report.replays);
    }

    #[test]
    fn config_faults_match_manually_applied_plan() {
        // Declaring a slowdown through the run config must produce the exact
        // run a manually pre-faulted grid produces: same physics, and
        // a slowdown alone adds no control-plane interference.
        let plan = FaultPlan::new().slowdown(n(1), secs(50.0), secs(100_000.0), 0.05);
        let spec = PipelineSpec::balanced(3, 1.0, 0);
        let mapping = Mapping::from_assignment(&[n(0), n(1), n(2)]);
        let policy = Policy::Periodic {
            interval: SimDuration::from_secs(5),
        };
        let mut pre_faulted = testbed_small3();
        plan.apply(&mut pre_faulted);
        let manual = run(
            &pre_faulted,
            &spec,
            &under(policy),
            &RunConfig {
                items: 300,
                initial_mapping: Some(mapping.clone()),
                ..RunConfig::default()
            },
        );
        let grid = testbed_small3();
        let declared = run(
            &grid,
            &spec,
            &under(policy),
            &RunConfig {
                items: 300,
                initial_mapping: Some(mapping),
                faults: plan,
                ..RunConfig::default()
            },
        );
        assert_eq!(declared.completed, manual.completed);
        assert_eq!(declared.makespan, manual.makespan);
        assert_eq!(declared.adaptations.len(), manual.adaptations.len());
        assert_eq!(declared.final_mapping, manual.final_mapping);
        assert_eq!(declared.replays, 0, "a slowdown strands nothing");
    }

    #[test]
    fn crash_under_static_policy_truncates_run() {
        let mut grid = testbed_small3();
        FaultPlan::new().crash(n(1), secs(10.0)).apply(&mut grid);
        let spec = PipelineSpec::balanced(3, 1.0, 0);
        let cfg = RunConfig {
            items: 200,
            initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1), n(2)])),
            ..RunConfig::default()
        };
        let report = run(&grid, &spec, &under(Policy::Static), &cfg);
        assert!(report.truncated, "static run must starve after the crash");
        assert!(report.completed < 200);
    }

    #[test]
    fn crash_under_adaptive_policy_completes() {
        let mut grid = testbed_small3();
        FaultPlan::new().crash(n(1), secs(10.0)).apply(&mut grid);
        let spec = PipelineSpec::balanced(3, 1.0, 0);
        let cfg = RunConfig {
            items: 200,
            initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1), n(2)])),
            ..RunConfig::default()
        };
        let report = run(&grid, &spec, &under(Policy::periodic_default()), &cfg);
        assert_eq!(report.completed, 200, "adaptive run must survive the crash");
        assert!(!report.truncated);
    }

    #[test]
    fn poisson_arrivals_spread_completions() {
        let (grid, spec) = balanced_setup();
        let cfg = RunConfig {
            items: 100,
            initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1), n(2)])),
            ..RunConfig::default()
        };
        let report = run(
            &grid,
            &spec,
            &paced(ArrivalProcess::Poisson { rate: 0.5, seed: 3 }),
            &cfg,
        );
        assert_eq!(report.completed, 100);
        // Arrival-limited: makespan ≈ 100/0.5 = 200 s, definitely > 150.
        assert!(report.makespan.as_secs_f64() > 150.0);
    }

    #[test]
    fn uniform_arrivals_respect_rate() {
        let (grid, spec) = balanced_setup();
        let cfg = RunConfig {
            items: 50,
            initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1), n(2)])),
            ..RunConfig::default()
        };
        let report = run(
            &grid,
            &spec,
            &paced(ArrivalProcess::Uniform { rate: 0.25 }),
            &cfg,
        );
        assert_eq!(report.completed, 50);
        // Last arrival at 49/0.25 = 196 s + ~3 s latency.
        assert!((report.makespan.as_secs_f64() - 199.0).abs() < 3.0);
    }

    #[test]
    fn mean_latency_matches_pipeline_depth() {
        let (grid, spec) = balanced_setup();
        let cfg = RunConfig {
            items: 1,
            initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1), n(2)])),
            ..RunConfig::default()
        };
        let report = run(&grid, &spec, &Session::default(), &cfg);
        // One item: latency = 3 stages × 1 s (+ negligible LAN hops).
        assert!((report.mean_latency.as_secs_f64() - 3.0).abs() < 0.1);
    }

    #[test]
    fn link_contention_serialises_big_transfers() {
        // Two stages on different nodes with huge items: with contention
        // the link is the bottleneck and serialises strictly.
        let grid = testbed_small3();
        let mut spec = PipelineSpec::balanced(2, 0.01, 0);
        spec.stages[0].out_bytes = 12_500_000; // 12.5 MB over 1 Gbit/s LAN = 0.1 s
        let mapping = Mapping::from_assignment(&[n(0), n(1)]);
        let mk = |contention| RunConfig {
            items: 100,
            initial_mapping: Some(mapping.clone()),
            link_contention: contention,
            ..RunConfig::default()
        };
        let without = run(&grid, &spec, &Session::default(), &mk(false));
        let with = run(&grid, &spec, &Session::default(), &mk(true));
        assert!(with.makespan >= without.makespan);
        assert_eq!(with.completed, 100);
    }

    /// (a ‖ b) → join over three nodes; the equivalent serialized chain
    /// is the same three stages in series.
    fn two_branch_spec(work: f64) -> PipelineSpec {
        PipelineSpec::with_graph(
            vec![
                crate::spec::StageSpec::balanced("a", work, 0),
                crate::spec::StageSpec::balanced("b", work, 0),
                crate::spec::StageSpec::balanced("join", 0.0, 0),
            ],
            crate::spec::StageGraph::builder().split(&[1, 1]).build(),
        )
    }

    #[test]
    fn branched_pipeline_completes_every_item_exactly_once() {
        let grid = testbed_small3();
        let spec = two_branch_spec(1.0);
        let cfg = RunConfig {
            items: 50,
            initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1), n(2)])),
            ..RunConfig::default()
        };
        let report = run(&grid, &spec, &Session::default(), &cfg);
        assert_eq!(report.completed, 50);
        assert!(!report.truncated);
        // Every join consumed both branch outputs: the bottleneck stays
        // 1 s/item, so 50 items drain in ≈ latency + 49 s.
        let makespan = report.makespan.as_secs_f64();
        assert!((makespan - 50.0).abs() < 2.0, "makespan={makespan}");
    }

    #[test]
    fn branches_overlap_where_the_serial_chain_cannot() {
        // One item through (1 s ‖ 1 s) → join arrives in ≈ 1 s; the
        // serialized chain needs ≈ 2 s.
        let grid = testbed_small3();
        let mapping = Mapping::from_assignment(&[n(0), n(1), n(2)]);
        let mk = |spec: &PipelineSpec| {
            run(
                &grid,
                spec,
                &Session::default(),
                &RunConfig {
                    items: 1,
                    initial_mapping: Some(mapping.clone()),
                    ..RunConfig::default()
                },
            )
        };
        let branched = mk(&two_branch_spec(1.0));
        let chain = mk(&PipelineSpec::new(vec![
            crate::spec::StageSpec::balanced("a", 1.0, 0),
            crate::spec::StageSpec::balanced("b", 1.0, 0),
            crate::spec::StageSpec::balanced("join", 0.0, 0),
        ]));
        let overlap = branched.mean_latency.as_secs_f64();
        let serial = chain.mean_latency.as_secs_f64();
        assert!((overlap - 1.0).abs() < 0.1, "branched latency {overlap}");
        assert!((serial - 2.0).abs() < 0.1, "chain latency {serial}");
    }

    /// Simulated makespan of the same `stages` flattened into a chain
    /// over that of `graph`: a burst of six items, one stage per free LAN
    /// node. Throughput is resource-bound either way; what the branches
    /// win is fill / drain latency.
    fn chain_over_graph(
        stages: Vec<crate::spec::StageSpec>,
        graph: crate::spec::StageGraph,
    ) -> f64 {
        use adapipe_gridsim::net::{LinkSpec, Topology};
        use adapipe_gridsim::node::{Node, NodeSpec};
        let np = stages.len();
        let nodes = (0..np)
            .map(|i| Node::new(NodeSpec::new(format!("n{i}"), 1.0, 1), LoadModel::free()))
            .collect();
        let grid = GridSpec::new(nodes, Topology::uniform(np, LinkSpec::lan()));
        let cfg = RunConfig {
            items: 6,
            initial_mapping: Some(Mapping::from_assignment(
                &(0..np).map(NodeId).collect::<Vec<_>>(),
            )),
            ..RunConfig::default()
        };
        let mk = |spec: PipelineSpec| {
            let report = run(&grid, &spec, &Session::default(), &cfg);
            assert_eq!(report.completed, 6);
            report.makespan.as_secs_f64()
        };
        mk(PipelineSpec::new(stages.clone())) / mk(PipelineSpec::with_graph(stages, graph))
    }

    /// `names.len()` stages of 2 s each.
    fn heavy(names: impl IntoIterator<Item = String>) -> Vec<crate::spec::StageSpec> {
        names
            .into_iter()
            .map(|name| crate::spec::StageSpec::balanced(name, 2.0, 1_000))
            .collect()
    }

    #[test]
    fn two_branch_graph_beats_its_serialized_chain_by_1_3x() {
        // (4 stages ‖ 4 stages) → join through the series-parallel
        // `split` sugar: one item's critical path is 4 heavy stages, not 8.
        let mut stages = heavy((0..8).map(|i| format!("s{i}")));
        stages.push(crate::spec::StageSpec::balanced("join", 0.1, 1_000));
        let graph = crate::spec::StageGraph::builder().split(&[4, 4]).build();
        let ratio = chain_over_graph(stages, graph);
        assert!(ratio >= 1.3, "chain / branched makespan {ratio:.3}");
    }

    #[test]
    fn diamond_dag_beats_its_serialized_chain_by_1_2x() {
        // fetch ─┬─ b0s0 … b0s3 ─┐
        //        └─ b1s0 … b1s3 ─┴─ combine → sink, declared edge by edge —
        // the path every explicitly wired `Pipeline::dag()` program takes.
        let mut stages = heavy(
            std::iter::once("fetch".to_string())
                .chain((0..8).map(|i| format!("b{}s{}", i / 4, i % 4))),
        );
        stages.push(crate::spec::StageSpec::balanced("combine", 0.1, 1_000));
        stages.push(crate::spec::StageSpec::balanced("sink", 0.1, 1_000));
        let (combine, sink) = (9, 10);
        let mut dag = crate::spec::StageGraph::dag(stages.len());
        for first in [1, 5] {
            dag = dag.edge(0, first);
            for s in first..first + 3 {
                dag = dag.edge(s, s + 1);
            }
            dag = dag.edge(first + 3, combine);
        }
        let graph = dag.edge(combine, sink).build().expect("a valid DAG");
        let ratio = chain_over_graph(stages, graph);
        assert!(ratio >= 1.2, "chain / diamond makespan {ratio:.3}");
    }

    #[test]
    fn merge_host_crash_rescues_queued_joined_items() {
        // Fast branches feed a slow merge, so a deep queue of *joined*
        // items sits at the merge host when it crashes. The forced
        // re-map must re-home them as already-joined tasks (not count
        // them as fresh — forever incomplete — branch arrivals): every
        // item completes on a live node.
        let grid = testbed_small3();
        let spec = PipelineSpec::with_graph(
            vec![
                crate::spec::StageSpec::balanced("a", 0.05, 0),
                crate::spec::StageSpec::balanced("b", 0.05, 0),
                crate::spec::StageSpec::balanced("join", 1.0, 0),
            ],
            crate::spec::StageGraph::builder().split(&[1, 1]).build(),
        );
        let cfg = RunConfig {
            items: 100,
            initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1), n(2)])),
            faults: FaultPlan::new().crash(n(2), secs(20.0)),
            ..RunConfig::default()
        };
        let report = run(&grid, &spec, &under(Policy::periodic_default()), &cfg);
        assert_eq!(
            report.completed, 100,
            "joined items stranded at the crashed merge host"
        );
        assert!(!report.truncated);
        assert!(report.replays > 0, "the merge backlog must replay");
        assert!(!report.final_mapping.nodes_used().contains(&n(2)));
    }

    #[test]
    fn branched_execution_is_deterministic() {
        let grid = testbed_hetero8(7);
        let spec = PipelineSpec::with_graph(
            vec![
                crate::spec::StageSpec::balanced("pre", 0.5, 5_000),
                crate::spec::StageSpec::balanced("a", 1.0, 2_000),
                crate::spec::StageSpec::balanced("b", 1.5, 2_000),
                crate::spec::StageSpec::balanced("join", 0.2, 1_000),
            ],
            crate::spec::StageGraph::builder()
                .stages(1)
                .split(&[1, 1])
                .build(),
        );
        let cfg = RunConfig {
            items: 120,
            ..RunConfig::default()
        };
        let a = run(&grid, &spec, &under(Policy::periodic_default()), &cfg);
        let b = run(&grid, &spec, &under(Policy::periodic_default()), &cfg);
        assert_eq!(a.completed, 120);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.final_mapping, b.final_mapping);
        assert_eq!(a.adaptations.len(), b.adaptations.len());
    }

    #[test]
    fn zero_items_complete_instantly() {
        let (grid, spec) = balanced_setup();
        let cfg = RunConfig {
            items: 0,
            ..RunConfig::default()
        };
        let report = run(&grid, &spec, &Session::default(), &cfg);
        assert_eq!(report.completed, 0);
        assert_eq!(report.makespan, SimTime::ZERO);
        assert!(!report.truncated);
    }

    #[test]
    fn stepper_matches_batch_run_exactly() {
        // Driving the stepper by hand — pushes interleaved with
        // completion-by-completion stepping — must land on the same
        // report as the batch wrapper, because batch is the same world
        // fed all at once.
        let grid = testbed_hetero8(42);
        let spec = PipelineSpec::balanced(4, 1.0, 10_000);
        let cfg = RunConfig {
            items: 120,
            ..RunConfig::default()
        };
        let session = under(Policy::periodic_default());
        let batch = run(&grid, &spec, &session, &cfg);

        let mut stepper = SimStepper::new(&grid, spec.clone(), &session, &cfg, SessionId(0), 1.0);
        for &at in &session.arrivals().schedule(cfg.items) {
            stepper.push_at(at);
        }
        stepper.close();
        let mut seen = Vec::new();
        while let Some(item) = next_settled(&mut stepper) {
            seen.push(item);
        }
        assert_eq!(seen.len() as u64, cfg.items);
        // Every item completes exactly once.
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..cfg.items).collect::<Vec<_>>());
        let report = stepper.finish();
        assert_eq!(report.completed, batch.completed);
        assert_eq!(report.makespan, batch.makespan);
        assert_eq!(report.adaptations.len(), batch.adaptations.len());
        assert_eq!(report.final_mapping, batch.final_mapping);
        assert!(!report.truncated);
    }

    #[test]
    fn stepper_supports_live_interleaved_pushes() {
        // An open-stream session: push a few items, drain them, push
        // more — the world keeps its clock and the report accounts for
        // everything exactly once.
        let (grid, spec) = balanced_setup();
        let cfg = RunConfig {
            items: 10, // amortisation hint only
            initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1), n(2)])),
            ..RunConfig::default()
        };
        let mut stepper =
            SimStepper::new(&grid, spec, &Session::default(), &cfg, SessionId(0), 1.0);
        for _ in 0..3 {
            stepper.push_at(stepper.world.events.now());
        }
        let mut first = Vec::new();
        while let Some(item) = next_settled(&mut stepper) {
            first.push(item);
        }
        assert_eq!(first, vec![0, 1, 2]);
        assert!(!stepper.is_exhausted(), "open stream stays live");
        // The clock advanced; later pushes arrive later.
        let t = stepper.world.events.now();
        assert!(t > SimTime::ZERO);
        for _ in 0..2 {
            stepper.push_at(stepper.world.events.now());
        }
        stepper.close();
        let mut second = Vec::new();
        while let Some(item) = next_settled(&mut stepper) {
            second.push(item);
        }
        assert_eq!(second, vec![3, 4]);
        assert!(stepper.all_done());
        let report = stepper.finish();
        assert_eq!(report.completed, 5);
        assert!(!report.truncated);
    }

    #[test]
    fn a_horizon_past_the_clock_range_means_never() {
        // `from_secs(1 << 40)` saturates; so must the horizon built from
        // it, where the checked `SimTime + SimDuration` would panic.
        let (grid, spec) = balanced_setup();
        let cfg = RunConfig {
            items: 10,
            max_sim_time: SimDuration::from_secs(1 << 40),
            ..RunConfig::default()
        };
        let report = run(&grid, &spec, &Session::default(), &cfg);
        assert_eq!(report.completed, 10);
        assert!(!report.truncated);
    }

    #[test]
    fn unfinished_stepper_reports_truncation() {
        let (grid, spec) = balanced_setup();
        let cfg = RunConfig::default();
        let mut stepper =
            SimStepper::new(&grid, spec, &Session::default(), &cfg, SessionId(0), 1.0);
        for _ in 0..4 {
            stepper.push_at(SimTime::ZERO);
        }
        // Deliver just one completion, then abandon the rest.
        assert_eq!(next_settled(&mut stepper), Some(0));
        let report = stepper.finish();
        assert_eq!(report.completed, 1);
        assert!(report.truncated, "3 items were pushed but never drained");
    }

    #[test]
    fn a_drained_run_leaves_an_empty_arrival_window() {
        let grid = testbed_hetero8(42);
        let spec = PipelineSpec::balanced(4, 1.0, 10_000);
        let cfg = RunConfig {
            items: 200,
            ..RunConfig::default()
        };
        let session = under(Policy::periodic_default());
        let mut stepper = SimStepper::new(&grid, spec, &session, &cfg, SessionId(0), 1.0);
        for _ in 0..cfg.items {
            stepper.push_at(SimTime::ZERO);
        }
        stepper.close();
        while !stepper.all_done() && stepper.step() {}
        assert_eq!(stepper.completed(), 200);
        let window = &stepper.world.arrival_time;
        assert!(window.at.is_empty(), "{} slots left", window.at.len());
        assert_eq!(window.base, 200);
    }

    #[test]
    fn a_paced_live_stream_keeps_the_window_to_its_in_flight_span() {
        // One item every 2 s through three 1-s stages: at most two items
        // are in flight at once, however long the stream runs. The
        // window starts at the oldest unsettled item and ends at the
        // newest arrived one.
        let (grid, spec) = balanced_setup();
        let cfg = RunConfig {
            initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1), n(2)])),
            ..RunConfig::default()
        };
        let mut stepper =
            SimStepper::new(&grid, spec, &Session::default(), &cfg, SessionId(0), 1.0);
        let mut settled = HashSet::new();
        let mut widest = 0;
        let mut check = |stepper: &mut SimStepper<'_>| {
            while let Some(item) = stepper.pop_completion() {
                settled.insert(item);
            }
            let window = &stepper.world.arrival_time;
            assert!((0..window.base).all(|item| settled.contains(&item)));
            if !window.at.is_empty() {
                assert!(!settled.contains(&window.base), "a settled front slot");
            }
            widest = widest.max(window.at.len());
        };
        for i in 0..300 {
            let at = secs(2.0 * i as f64);
            while stepper.next_event_at().is_some_and(|t| t < at) {
                assert!(stepper.step());
                check(&mut stepper);
            }
            stepper.push_at(at);
        }
        stepper.close();
        while !stepper.all_done() && stepper.step() {
            check(&mut stepper);
        }
        assert_eq!(stepper.completed(), 300);
        assert!(stepper.world.arrival_time.at.is_empty());
        assert!(widest <= 2, "the window spanned {widest} items");
    }

    #[test]
    fn a_dead_lettered_item_leaves_no_slot_behind() {
        // Item 0 dead-letters at the middle stage. Were its slot left
        // behind, the window could never drop its front.
        let (grid, spec) = balanced_setup();
        let cfg = RunConfig {
            initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1), n(2)])),
            ..RunConfig::default()
        };
        let mut stepper =
            SimStepper::new(&grid, spec, &Session::default(), &cfg, SessionId(0), 1.0);
        let poison = ItemFate {
            failed: Vec::new(),
            dead: Some((1, "poison".to_string())),
        };
        stepper.push_at_with_fate(SimTime::ZERO, poison);
        for _ in 1..20 {
            stepper.push_at(SimTime::ZERO);
        }
        stepper.close();
        while !stepper.all_done() && stepper.step() {}
        assert_eq!((stepper.accounted(), stepper.completed()), (20, 19));
        let window = &stepper.world.arrival_time;
        assert!(window.at.is_empty() && window.base == 20);
        assert!(stepper.world.fates.is_empty());
    }

    /// Simulated twin of the engine's wall-clock
    /// `pipeline_parallelism_beats_sequential_time`: the same three
    /// 8-ms stages with 8-byte outputs, one per free node, 40 items
    /// present at `t = 0`. The run is the pipeline fill to the cycle:
    /// the first item crosses three tasks and two hops, and each later
    /// one leaves a task behind it. That holds on any host.
    #[test]
    fn pipeline_parallelism_beats_sequential_time_simulated() {
        let grid = uniform_grid(3);
        let stages = ["a", "b", "c"]
            .into_iter()
            .map(|name| StageSpec::balanced(name, 0.008, 8))
            .collect();
        let spec = PipelineSpec::new(stages);
        let items = 40u64;
        let cfg = RunConfig {
            items,
            initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1), n(2)])),
            ..RunConfig::default()
        };
        let report = run(&grid, &spec, &under(Policy::Static), &cfg);
        assert_eq!(report.completed, items);
        let task = SimDuration::from_secs_f64(0.008);
        let hop = grid.topology().transfer_time(n(0), n(1), 8);
        let fill = (0..items + 2).fold(SimTime::ZERO, |t, _| t + task) + hop + hop;
        assert_eq!(report.makespan, fill);
        let sequential = items as f64 * 0.024;
        assert!(report.makespan.as_secs_f64() < 0.75 * sequential);
    }

    /// Twin of the engine's `replicated_hot_stage_uses_multiple_nodes`,
    /// whose makespan bound holds only on a host with four cores: one
    /// 10-ms stage, 60 items at `t = 0`, three free nodes and the
    /// planner's launch mapping.
    #[test]
    fn replicated_hot_stage_uses_multiple_nodes_simulated() {
        let grid = uniform_grid(3);
        let spec = PipelineSpec::new(vec![StageSpec::balanced("hot", 0.010, 8)]);
        let items = 60u64;
        let cfg = RunConfig {
            items,
            ..RunConfig::default()
        };
        let report = run(&grid, &spec, &Session::default(), &cfg);
        assert_eq!(report.completed, items);
        let width = report.final_mapping.placement(0).width();
        assert!(width >= 2, "the hot stage runs on {width} node(s)");
        assert!(report.makespan.as_secs_f64() < 0.55);
        // Three wide, each node serves 20 items back to back; items
        // cross no link (the input declares no bytes, and the sink is
        // where the output is made).
        assert_eq!(width, 3);
        let task = SimDuration::from_secs_f64(0.010);
        let served = (0..items / 3).fold(SimTime::ZERO, |t, _| t + task);
        assert_eq!(report.makespan, served);
    }

    /// Twin of the engine's `planner_unfuses_when_spreading_wins`, whose
    /// final-mapping assertion holds only on a host with three cores: two
    /// equal 3-ms stages launched together on one of two free nodes, a
    /// 100-ms periodic policy and 150 items at `t = 0`. The simulator
    /// never fuses, so what this pins is the controller's side: it
    /// commits the spread mapping and keeps it. (`mapper`'s
    /// `planner_spreads_equal_stages_despite_the_fusion_discount` pins
    /// the plan under the fusion discount.)
    #[test]
    fn planner_unfuses_when_spreading_wins_simulated() {
        let grid = uniform_grid(2);
        let spec = PipelineSpec::new(vec![
            StageSpec::balanced("a", 0.003, 8),
            StageSpec::balanced("b", 0.003, 8),
        ]);
        let items = 150u64;
        let cfg = RunConfig {
            items,
            initial_mapping: Some(Mapping::all_on(n(0), 2)),
            ..RunConfig::default()
        };
        let periodic = Policy::Periodic {
            interval: SimDuration::from_millis(100),
        };
        let report = run(&grid, &spec, &under(periodic), &cfg);
        assert_eq!(report.completed, items);
        let spread = |m: &Mapping| m.nodes_used().len() == 2;
        let first = report
            .adaptations
            .iter()
            .find(|e| spread(&e.to))
            .expect("the controller commits a re-map onto both nodes");
        assert!(spread(&report.final_mapping), "the spread mapping is kept");
        // The third tick commits, and nothing moves it back.
        assert_eq!(report.adaptations.len(), 1);
        assert_eq!(first.at, SimTime::ZERO + SimDuration::from_millis(300));
        assert_eq!(report.makespan, SimTime::from_nanos(603_100_064));
    }

    #[test]
    fn heavy_load_model_slows_service_exactly() {
        // Availability 0.5 constant: unit work takes 2 s.
        let mut grid = testbed_small3();
        grid.set_load(n(0), LoadModel::constant(0.5));
        let spec = PipelineSpec::balanced(1, 1.0, 0);
        let cfg = RunConfig {
            items: 10,
            initial_mapping: Some(Mapping::from_assignment(&[n(0)])),
            ..RunConfig::default()
        };
        let report = run(&grid, &spec, &Session::default(), &cfg);
        assert!((report.makespan.as_secs_f64() - 20.0).abs() < 0.5);
    }
}
