//! What the pool's threads share about one tenant session: its
//! pipeline and stage depot, its routing table and the per-thread cache
//! over it, its sink and counters — and the adaptation thread that
//! re-maps it while it runs, when the loop has a schedule.
//!
//! Stage instances live in the depot: stateless stages are replicated
//! from a prototype on first use per worker; stateful stages exist
//! exactly once and physically move between workers on migration (the
//! old host deposits the instance when it processes the controller's
//! `Relinquish`, then notifies the new hosts, which buffer items
//! meanwhile).

use crate::credits::Credits;
use crate::exec::ItemSlot;
use crate::inbox::{Ctrl, MIN_LANE_WEIGHT};
use crate::pool::{Bell, Pool};
use adapipe_core::item::{JoinSlots, SeqMap};
use adapipe_core::pipeline::Pipeline;
use adapipe_core::spec::PipelineSpec;
use adapipe_core::stage::{DynStage, FanOutFn, KeyFn};
use adapipe_gridsim::time::SimTime;
use adapipe_mapper::mapping::Mapping;
use adapipe_runtime::adapt::AdaptationLoop;
use adapipe_runtime::backend::{ExecutionBackend, RemapPlan};
use adapipe_runtime::routing::{RoutingSnapshot, RoutingTable, Selection};
use adapipe_runtime::session::{
    EventBus, RunConfig, RunError, RunEvent, SessionControl, SessionId,
};
use adapipe_state::StateSnapshot;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One depot slot: a quiesced stage instance parked for its (possibly
/// new) owner to collect — `None` while the instance is live on a host.
pub(crate) type DepotSlot = Mutex<Option<Box<dyn DynStage>>>;

/// Collector-side control plane, multiplexed with finished items.
pub(crate) enum SinkMsg {
    /// A batch of finished items (one message per served message whose
    /// items left the pipeline): the served envelope's own buffer, holding
    /// the items in the slots they were served in.
    Done(Vec<ItemSlot>),
    /// An item exhausted a stage's retry budget and was diverted to the
    /// dead-letter channel: it settles (releasing its credit and
    /// counting toward drain termination) without producing an output.
    Dead {
        /// Sequence number of the diverted item.
        seq: u64,
        /// The stage that gave up on it.
        stage: usize,
        /// Total attempts consumed (first try + retries).
        attempts: u32,
        /// The final attempt's error.
        reason: String,
    },
    /// The input stream is closed; `expected` items were pushed.
    Closed { expected: u64 },
    /// Stop collecting immediately (session abort).
    Abort { pushed: u64 },
    /// Stop collecting: the run failed fatally (the typed error is on
    /// the shared `SessionControl`). Unlike `Abort`, the expected count
    /// is left as declared, so the report honestly shows truncation.
    Fatal,
}

/// One join block's open sets, by item sequence number.
pub(crate) type JoinMap = SeqMap<JoinSlots>;

/// Per-worker accounting for one tenant, flushed by the worker when the
/// tenant detaches ([`Ctrl::TenantGone`]) and read by the session's
/// teardown after every worker has acked.
#[derive(Default)]
pub(crate) struct WorkerAcc {
    pub(crate) busy: Duration,
    pub(crate) metrics: Option<adapipe_core::metrics::StageMetrics>,
}

/// Everything the workers share *about one tenant*: its pipeline, its
/// routing table, its depot, its sink. The pool-wide half (inboxes,
/// vnodes, health, the clock) lives in [`Pool`], reached via `pool`.
pub(crate) struct Shared {
    /// Pool-unique session id (becomes the public [`SessionId`]).
    pub(crate) id: u64,
    pub(crate) pool: Arc<Pool>,
    pub(crate) spec: PipelineSpec,
    /// Per-parallel-block fan-out duplicators (block order).
    pub(crate) fanouts: Vec<FanOutFn>,
    /// Join state per join block: inputs collected per item until the
    /// set completes and the assembled envelope ships to the joining
    /// stage's host. Global (not per-worker), so deposited inputs
    /// survive the loss of any vnode. Locked once per envelope of
    /// inputs (`item::Outbox::dispatch`) and once per diverted item;
    /// a join whose parts all come out of one worker's walk of the item
    /// never reaches it.
    pub(crate) joins: Vec<Mutex<JoinMap>>,
    pub(crate) routing: RwLock<RoutingTable>,
    /// Per stage, per slot: prototype (stateless/accumulator, slot 0),
    /// the unique instance (exclusive/opaque, slot 0), or one instance
    /// per shard (keyed — slot = shard). A migration deposits the
    /// quiesced instance here for the new owner to collect.
    pub(crate) depot: Vec<Vec<DepotSlot>>,
    /// Per-stage routing-key extractors (keyed stages only); items with
    /// no extractor — or a payload the extractor cannot read — hash by
    /// sequence number.
    pub(crate) keys: Vec<Option<KeyFn>>,
    /// Accumulator hand-off: a replica vacating a host parks its partial
    /// snapshot here; whichever replica processes next absorbs the
    /// backlog through the stage's merge operator.
    pub(crate) merge_inbox: Vec<Mutex<Vec<StateSnapshot>>>,
    pub(crate) sink: Sender<SinkMsg>,
    pub(crate) completed: AtomicU64,
    /// Tenant teardown flag: raised by drain/abort/fatal teardown.
    /// Workers discard this tenant's envelopes once set; the pool keeps
    /// running for the other tenants.
    pub(crate) done: AtomicBool,
    /// What the adaptation thread sleeps on between its deadlines;
    /// rung once `done` is raised, so the thread exits at once.
    pub(crate) bell: Bell,
    /// Event bus + error slot shared with the session (fault
    /// notifications, replay announcements, fatal failures).
    pub(crate) events: EventBus,
    pub(crate) control: SessionControl,
    /// Items re-dealt to a live host after their vnode went down.
    pub(crate) replays: AtomicU64,
    /// Retries performed across all stages (in-place re-attempts under
    /// a per-stage [`adapipe_runtime::session::ResiliencePolicy`]).
    pub(crate) retries: AtomicU64,
    /// Sequence numbers diverted to the dead-letter channel. Consulted
    /// by ordered delivery (a dead seq will never arrive — skip it) and
    /// by join deposits (a sibling branch of a dead item must not park
    /// its output forever). Guarded by `dead_count` so the common
    /// no-dead-letter run never takes the lock.
    pub(crate) dead: Mutex<BTreeSet<u64>>,
    /// Lock-free size of `dead`.
    pub(crate) dead_count: AtomicU64,
    /// Work envelopes taken off a sibling's inbox by an idle co-host.
    pub(crate) steals: AtomicU64,
    /// Stage runs executed *inline*: a worker ran the stage directly in
    /// the batch loop of an upstream stage's envelope instead of routing
    /// an envelope through an inbox (see `fusion::FusionPlan`).
    pub(crate) fused: AtomicU64,
    /// Items that arrived under a retired routing epoch and were
    /// re-homed to their stage's current hosts.
    pub(crate) rehomed: AtomicU64,
    /// Join inputs handed to `joins`: the parts no walk could pair
    /// inside itself (see `fusion::Region::walk`).
    pub(crate) deposits: AtomicU64,
    /// The in-flight credit gate (shared so fatal teardown can wake a
    /// blocked `push()`).
    pub(crate) credits: Option<Arc<Credits>>,
    /// This tenant's granted fraction of pool capacity (f64 bits),
    /// written by the pool's arbiter, read by the fair-queueing lanes
    /// and the share-scaled planner backend. `1.0` for a tenant that
    /// owns its pool.
    pub(crate) share: AtomicU64,
    /// Raised by graceful eviction: further pushes return
    /// [`RunError::Evicted`] while in-flight items drain normally.
    pub(crate) evicting: AtomicBool,
    /// Per-worker busy/metrics accounting, flushed at detach.
    pub(crate) accs: Vec<Mutex<WorkerAcc>>,
    /// Workers that have processed this tenant's [`Ctrl::TenantGone`];
    /// teardown waits for all of them before reading `accs`.
    pub(crate) detached: AtomicU64,
    /// Per stage, the stamp stride (`fusion::FusionPlan`) of the worker that
    /// adapted it last: how many of the stage's items fit one clock
    /// window. Inboxes read it as the budget for coalescing a send into
    /// the lane's queued tail envelope (`Inbox::send_work`). A hint —
    /// relaxed, last writer wins between replicas — and `1` until a
    /// worker has measured the stage, so a stage that never earns a
    /// wider window is served envelope by envelope.
    pub(crate) stride: Vec<AtomicU32>,
}

impl Shared {
    /// Builds tenant `id`'s shared state on `pool` from `pipeline`'s
    /// erased parts, routed by `mapping` to start with. Also returns
    /// the receiving end of its sink, for the collector.
    pub(crate) fn new<I, O>(
        id: u64,
        pool: &Arc<Pool>,
        pipeline: Pipeline<I, O>,
        cfg: &RunConfig,
        mapping: Mapping,
    ) -> (Arc<Shared>, Receiver<SinkMsg>) {
        let (spec, stages, fanouts, keys) = pipeline.into_parts();
        let (np, ns) = (pool.vnodes.len(), spec.len());
        let (sink, sink_rx) = channel();
        // One in-flight slot per stage boundary (source→s0, s0→s1, …,
        // s_last→sink) per unit of declared capacity.
        let credits = cfg
            .queue_capacity
            .map(|c| Arc::new(Credits::new((c * (ns + 1)) as u64)));
        // Depot: one slot per stage, except keyed stages get one per shard —
        // the built instance takes slot 0 and fresh (empty) shells seed the
        // rest; each shard accumulates exactly the keys routed to it.
        let depot: Vec<Vec<DepotSlot>> = stages
            .into_iter()
            .zip(spec.stages.iter())
            .map(|(built, sspec)| {
                let shards = sspec.state.shards();
                let mut slots = Vec::with_capacity(shards.max(1));
                for _ in 1..shards {
                    let shell = built
                        .fresh()
                        .expect("keyed stages always produce fresh shells");
                    slots.push(Mutex::new(Some(shell)));
                }
                slots.insert(0, Mutex::new(Some(built)));
                slots
            })
            .collect();
        let stage_shards: Vec<usize> = spec.stages.iter().map(|s| s.state.shards()).collect();
        let shared = Arc::new(Shared {
            id,
            pool: Arc::clone(pool),
            depot,
            keys,
            merge_inbox: (0..ns).map(|_| Mutex::new(Vec::new())).collect(),
            fanouts,
            joins: (0..spec.graph.join_blocks())
                .map(|_| Mutex::new(JoinMap::default()))
                .collect(),
            spec,
            // Health flags are the pool's: any tenant's fault tracker
            // marking a node down excludes it for every tenant's routing.
            routing: RwLock::new(
                RoutingTable::with_shared_health(
                    mapping,
                    Selection::RoundRobin,
                    Arc::clone(&pool.health),
                )
                .with_stage_shards(stage_shards),
            ),
            sink,
            completed: AtomicU64::new(0),
            done: AtomicBool::new(false),
            bell: Bell::default(),
            events: cfg.events.clone(),
            control: cfg.control.clone(),
            replays: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            dead: Mutex::new(BTreeSet::new()),
            dead_count: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            fused: AtomicU64::new(0),
            rehomed: AtomicU64::new(0),
            deposits: AtomicU64::new(0),
            credits,
            share: AtomicU64::new(1.0f64.to_bits()),
            evicting: AtomicBool::new(false),
            accs: (0..np).map(|_| Mutex::new(WorkerAcc::default())).collect(),
            detached: AtomicU64::new(0),
            stride: (0..ns).map(|_| AtomicU32::new(1)).collect(),
        });
        (shared, sink_rx)
    }

    /// The routing state in force right now (takes the table's read
    /// lock; threads that route per batch go through [`RouteCache`]).
    pub(crate) fn snapshot(&self) -> Arc<RoutingSnapshot> {
        self.routing
            .read()
            .expect("routing lock poisoned")
            .snapshot()
    }

    /// The tenant's current capacity share in `(0, 1]`.
    pub(crate) fn share(&self) -> f64 {
        f64::from_bits(self.share.load(Ordering::Relaxed))
    }

    /// Grants the tenant `share` of pool capacity (clamped to
    /// `[0.01, 1.0]` — a zero share would freeze the tenant's fair-
    /// queueing clock instead of throttling it). Takes effect on the
    /// next envelope pop and the next planning window.
    pub(crate) fn set_share(&self, share: f64) {
        let clamped = share.clamp(MIN_LANE_WEIGHT, 1.0);
        self.share.store(clamped.to_bits(), Ordering::Relaxed);
    }

    /// Forced eviction: fails the session with [`RunError::Evicted`]
    /// and tears its data plane down immediately; in-flight items are
    /// dropped and the report shows truncation. Co-tenants are
    /// untouched.
    pub(crate) fn evict_now(&self) {
        self.evicting.store(true, Ordering::SeqCst);
        self.control.fail(RunError::Evicted {
            session: SessionId(self.id),
        });
        fatal_teardown(self);
    }

    /// True once this tenant — or the whole pool — is tearing down.
    #[inline]
    pub(crate) fn finished(&self) -> bool {
        self.done.load(Ordering::Relaxed) || self.pool.done.load(Ordering::Relaxed)
    }

    /// The routing-key hash of one in-flight item at `stage`: the
    /// declared key extractor's for a keyed stage, the item's sequence
    /// number otherwise (deterministic for the run either way).
    #[inline]
    pub(crate) fn key_hash(&self, stage: usize, slot: &ItemSlot) -> u64 {
        self.keys[stage]
            .as_ref()
            .map_or(slot.seq, |key| key(&slot.payload))
    }

    /// True if `seq` was diverted to the dead-letter channel. The
    /// common path (no dead letters this run) is one relaxed load.
    #[inline]
    pub(crate) fn is_dead(&self, seq: u64) -> bool {
        self.dead_count.load(Ordering::Relaxed) > 0
            && self.dead.lock().expect("dead set poisoned").contains(&seq)
    }

    /// Diverts `seq` to the dead-letter channel: marks it dead, cancels
    /// any join deposits its sibling branches already parked, announces
    /// the diversion on the event bus, and settles the item with the
    /// collector (which records it and releases its credit).
    pub(crate) fn divert_dead(&self, seq: u64, stage: usize, attempts: u32, reason: String) {
        {
            let mut dead = self.dead.lock().expect("dead set poisoned");
            dead.insert(seq);
            self.dead_count.store(dead.len() as u64, Ordering::Relaxed);
        }
        for join in &self.joins {
            join.lock().expect("join lock poisoned").remove(&seq);
        }
        self.events.emit(RunEvent::ItemDeadLettered {
            session: SessionId(self.id),
            seq,
            stage,
            attempts,
        });
        let _ = self.sink.send(SinkMsg::Dead {
            seq,
            stage,
            attempts,
            reason,
        });
    }

    /// Records one item rescued off the down vnode `from`.
    pub(crate) fn note_replay(&self, seq: u64, stage: usize, from: usize) {
        self.replays.fetch_add(1, Ordering::Relaxed);
        self.events.emit(RunEvent::ItemReplayed {
            session: SessionId(self.id),
            seq,
            stage,
            from,
            branch: self.spec.graph.branch_of(stage),
        });
    }
}

/// A thread's lock-free view of the routing state: the last snapshot it
/// loaded plus the shared epoch counter. Revalidation is one atomic
/// load per batch; the `RwLock` is touched only when an install
/// actually happened since the last look.
pub(crate) struct RouteCache {
    snap: Arc<RoutingSnapshot>,
    epoch_cell: Arc<AtomicU64>,
}

impl RouteCache {
    pub(crate) fn new(shared: &Shared) -> Self {
        let table = shared.routing.read().expect("routing lock poisoned");
        RouteCache {
            snap: table.snapshot(),
            epoch_cell: table.epoch_cell(),
        }
    }

    /// The current snapshot (refreshed if the table published a newer
    /// epoch since the last call).
    pub(crate) fn current(&mut self, shared: &Shared) -> &Arc<RoutingSnapshot> {
        if self.epoch_cell.load(Ordering::Acquire) != self.snap.epoch() {
            self.snap = shared.snapshot();
        }
        &self.snap
    }
}

/// Irrecoverable failure *of one tenant* (stateful stage lost, every
/// node down, a poison item, forced eviction): record nothing
/// further for it, stop its collector, raise its done flag, wake every
/// worker (so tenant-scoped backlog gets discarded), its adaptation
/// thread and any of its pushers blocked on the credit gate. The typed
/// error is already on `shared.control`; the session surfaces it via
/// `error()` while `drain()`/`next()` unwind cleanly with a truncated
/// report. Other tenants on the pool are untouched.
pub(crate) fn fatal_teardown(shared: &Shared) {
    shared.done.store(true, Ordering::SeqCst);
    let _ = shared.sink.send(SinkMsg::Fatal);
    for inbox in &shared.pool.inboxes {
        inbox.send_ctrl(Ctrl::Wake);
    }
    shared.bell.ring();
    if let Some(credits) = &shared.credits {
        credits.break_gate();
    }
}

/// The threaded engine's view for the shared [`AdaptationLoop`]: wall
/// clock, vnode load schedules, the completion counter, and the
/// relinquish-on-remap commit. All capacity observations are scaled by
/// the tenant's granted share, so each tenant's planner sees "its"
/// fraction of the pool — the cross-tenant arbiter moves capacity by
/// moving shares, and every tenant re-plans against the new slice on
/// its next window. With share = 1 (a pool of one tenant) this is
/// exactly the single-session backend.
struct EngineBackend {
    shared: Arc<Shared>,
}

impl ExecutionBackend for EngineBackend {
    fn node_count(&self) -> usize {
        self.shared.pool.vnodes.len()
    }

    fn now(&self) -> SimTime {
        self.shared.pool.now()
    }

    fn mean_availability(&self, node: usize, from: SimTime, to: SimTime) -> f64 {
        self.shared.pool.vnodes[node]
            .load
            .mean_availability(from, to)
            * self.shared.share()
    }

    fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    fn commit_remap(&mut self, plan: &RemapPlan) {
        // Old hosts must surrender stateful instances (and drop
        // stateless replicas to reclaim memory); the new hosts pick them
        // up from the depot on first use, buffering items meanwhile.
        for &stage in &plan.moved {
            for host in plan.from.placement(stage).hosts() {
                self.shared.pool.inboxes[host.index()].send_ctrl(Ctrl::Relinquish {
                    tenant: Arc::clone(&self.shared),
                    stage,
                });
            }
        }
    }

    fn on_node_down(&mut self, node: usize, _at: SimTime) {
        // Wake the dead worker: its post-message service scan re-deals
        // buffered items to live replicas (or parks them for the forced
        // re-map's Relinquish to flush).
        self.shared.pool.inboxes[node].send_ctrl(Ctrl::Wake);
    }

    fn on_node_up(&mut self, node: usize, _at: SimTime) {
        // Wake the recovered worker so parked items resume service.
        self.shared.pool.inboxes[node].send_ctrl(Ctrl::Wake);
    }
}

/// Where a session's [`AdaptationLoop`] lives. It gets a thread of its
/// own only when it has something to wake for — a tick interval or a
/// pending fault transition. Otherwise (`Policy::Static` on a fault-free
/// pool) the session just holds it: a loop that never wakes needs no
/// thread to sleep on.
pub(crate) enum Adaptation {
    /// No schedule: the loop never runs, and settles the report as is.
    Held(Box<AdaptationLoop>),
    /// The loop's [`adaptation_thread`], which hands it back on exit.
    Thread(JoinHandle<AdaptationLoop>),
}

impl Adaptation {
    /// Starts `aloop` for `shared`, on a thread if it has a schedule.
    pub(crate) fn start(shared: &Arc<Shared>, aloop: AdaptationLoop) -> Self {
        if aloop.interval().is_none() && aloop.next_fault_at().is_none() {
            return Adaptation::Held(Box::new(aloop));
        }
        let shared = Arc::clone(shared);
        Adaptation::Thread(std::thread::spawn(move || adaptation_thread(shared, aloop)))
    }

    /// Hands the loop back once the tenant is done (`Shared::done`
    /// raised): wakes its thread, if it has one, and joins it.
    pub(crate) fn stop(self, shared: &Shared) -> std::thread::Result<AdaptationLoop> {
        match self {
            Adaptation::Held(aloop) => Ok(*aloop),
            Adaptation::Thread(thread) => {
                shared.bell.ring();
                thread.join()
            }
        }
    }
}

/// The adaptation thread: wakes once per adaptation interval to let the
/// shared loop tick (sense the windows that ended since the last tick,
/// plan, decide, re-map), and at each fault transition's exact scheduled
/// wall offset — even under `Policy::Static`, which never ticks but
/// whose nodes must still go down (and whose fatal losses must still
/// surface). Between those deadlines it sleeps on the tenant's bell,
/// which teardown and [`fatal_teardown`] ring, so it exits as soon as
/// the tenant is done — or once nothing is left to wake for. Hands the
/// loop back, for the session to settle its part of the report.
fn adaptation_thread(shared: Arc<Shared>, mut aloop: AdaptationLoop) -> AdaptationLoop {
    let interval = aloop.interval().map(|i| Duration::from_nanos(i.as_nanos()));
    let mut backend = EngineBackend {
        shared: Arc::clone(&shared),
    };

    let mut next_tick = interval.map(|i| Instant::now() + i);
    loop {
        let next_fault = aloop
            .next_fault_at()
            .map(|at| shared.pool.epoch + Duration::from_secs_f64(at.as_secs_f64()));
        // Static policy and no further faults: nothing to do, ever.
        let Some(next_wake) = next_tick.into_iter().chain(next_fault).min() else {
            break;
        };
        if shared.bell.wait(Some(next_wake), || shared.finished()) {
            break;
        }

        if next_fault.is_some_and(|f| f <= Instant::now()) {
            aloop.poll_faults(&mut backend, &shared.routing);
        }
        if let Some(due) = next_tick.filter(|&due| due <= Instant::now()) {
            next_tick = interval.map(|i| due + i);
            aloop.tick(&mut backend, &shared.routing);
        }
        // An unrecoverable fault transition, settled by either call,
        // latches the loop's fatal flag.
        if aloop.is_fatal() {
            fatal_teardown(&shared);
            break;
        }
    }
    aloop
}
