//! The threaded execution engine.
//!
//! One worker thread per virtual node; items travel in type-erased
//! *batched envelopes* (up to `EngineConfig::batch_size` items each as
//! sent; a worker that finds a backlog of them merges it, one clock
//! window at a time) through per-worker inboxes. Routing is lock-free
//! on the hot path: senders route each batch against an immutable
//! [`RoutingSnapshot`]
//! cached per thread and revalidated with one atomic epoch load — the
//! controller re-maps a *running* pipeline by publishing a new snapshot
//! (never by stalling readers behind a lock). Every envelope carries
//! the epoch it was routed under; a worker receiving an envelope for a
//! stage it no longer hosts re-homes it to the stage's current hosts —
//! the same drain-and-forward semantics the simulator models, with the
//! epoch stamp as the staleness proof (a current-epoch envelope always
//! lands on a current host).
//!
//! Replicated stateless stages form a *work-stealing pool*: each worker
//! pulls from its own inbox, and when it runs dry it scans the tail of
//! its siblings' inboxes for stealable envelopes (stateless stage, this
//! worker is a current co-host, current epoch) instead of going to
//! sleep. A sender whose destination inbox is backing up additionally
//! wakes one idle co-host, so a hot replica sheds load without waiting
//! for the controller to rebalance.
//!
//! This module is the *threaded backend* of the shared adaptive
//! runtime: routing goes through `adapipe-runtime`'s [`RoutingTable`],
//! and sensing/planning/re-mapping through its [`AdaptationLoop`] — the
//! identical code the simulator runs (including the realized-throughput
//! regret guard). What lives here is only what is physically threaded:
//! workers, channels, the stage depot, and the re-mapping *commit*
//! (telling vacated hosts to relinquish their stage instances).
//!
//! ## Streaming sessions and backpressure
//!
//! The primary entry point is [`spawn`], which starts the workers and
//! returns a live [`EngineSession`]: the caller pushes items while the
//! pipeline runs, pulls outputs as they complete, and finishes with a
//! graceful [`EngineSession::drain`] or an [`EngineSession::abort`].
//! The batch entry points ([`execute`], [`execute_fed`]) are thin
//! wrappers — spawn, feed the arrival schedule, drain.
//!
//! With `EngineConfig::queue_capacity` set, the session enforces a
//! bounded-queue discipline: the total number of in-flight items is
//! capped at `capacity × (stages + 1)` — one bounded buffer per stage
//! boundary, source and sink boundaries included — and
//! [`EngineSession::push`] blocks until a completion frees a slot. The
//! bound is enforced end-to-end with a credit counter rather than with
//! per-channel blocking sends: stages may be *coalesced* on one worker,
//! and with blocking channel sends two workers hosting interleaved
//! stages can block sending to each other's full inboxes — a classic
//! pipeline deadlock. A worker therefore never blocks; only the source
//! does, which is exactly where backpressure belongs, and every
//! inter-stage queue's occupancy is still bounded by the same total.
//!
//! Workers block on their inbox (`recv`) and are woken by messages
//! only — work envelopes, depot hand-over notifications, and an
//! explicit shutdown sentinel message at teardown. There is no
//! polling timeout and no idle busy-wake.
//!
//! Stage instances live in a depot: stateless stages are replicated from
//! a prototype on first use per worker; stateful stages exist exactly
//! once and physically move between workers on migration (the old host
//! deposits the instance when it processes the controller's
//! `Relinquish`, then notifies the new hosts, which buffer items
//! meanwhile).
//!
//! ## Multi-tenant pools
//!
//! The worker threads belong to a [`Pool`], not to a session: any
//! number of concurrent sessions (heterogeneous stage graphs) attach to
//! one pool with [`attach`], each keeping its own typed push/pull API,
//! routing table, adaptation loop, collector, credit gate, and
//! exactly-once replay isolation. Worker inboxes hold one weighted-fair
//! *lane* per tenant (start-time fair queueing over item counts), so a
//! spiking tenant's backlog cannot starve a steady co-tenant; the
//! cluster arbiter moves capacity between tenants by setting shares
//! ([`TenantHandle::set_share`]), which reweights both lane service and
//! each tenant's planner view of the pool. Node health is pool-wide
//! (one tenant's fault tracker marking a node down excludes it for
//! everyone), while replay, eviction, and fatal teardown stay strictly
//! tenant-scoped. [`spawn`] is the degenerate cluster-of-one: it
//! launches a private pool and shuts it down at drain.
//!
//! Ordering: with `preserve_order` (default) outputs are resequenced by
//! item index. During a migration window a *stateful* stage may observe
//! items slightly out of sequence order (items forwarded from the old
//! host race items routed directly to the new one) — the same asynchrony
//! a real grid deployment exhibits; applications needing strict
//! per-stage sequencing should use stateless stages plus a fold at the
//! sink.

use crate::credits::Credits;
use crate::inbox::{Inbox, MIN_LANE_WEIGHT};
use crate::item::{fail_stage, process_resilient, Outbox, ResilientOut};
use crate::vnode::VNodeSpec;
use adapipe_core::item::JoinSlots;
use adapipe_core::payload::Payload;
use adapipe_core::pipeline::Pipeline;
use adapipe_core::spec::{Next, PipelineSpec};
use adapipe_core::stage::{quiesce, BoxedItem, DynStage, FanOutFn, KeyFn};
use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::net::{LinkSpec, Topology};
use adapipe_gridsim::node::NodeId;
use adapipe_gridsim::time::{SimDuration, SimTime};
use adapipe_mapper::mapping::Mapping;
use adapipe_runtime::adapt::{AdaptationLoop, RuntimeConfig};
use adapipe_runtime::arrivals::ArrivalProcess;
use adapipe_runtime::backend::{ExecutionBackend, RemapPlan};
use adapipe_runtime::controller::ControllerConfig;
use adapipe_runtime::policy::Policy;
use adapipe_runtime::report::{AdaptationEvent, DeadLetter, ReportBuilder, RunReport};
use adapipe_runtime::routing::{RoutingSnapshot, RoutingTable};
use adapipe_runtime::session::{RunError, RunEvent, RunHooks, SessionControl, SessionId, TryNext};
use adapipe_state::{shard_of, StateAccess, StateSnapshot};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One depot slot: a quiesced stage instance parked for its (possibly
/// new) owner to collect — `None` while the instance is live on a host.
type DepotSlot = Mutex<Option<Box<dyn DynStage>>>;

/// What the adaptation thread hands back at teardown: committed
/// adaptation events, planning cycles, migrations, and declared state
/// bytes moved.
type AdaptationOutcome = (Vec<AdaptationEvent>, u64, u64, u64);

/// Threaded-engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The virtual nodes (one worker thread each).
    pub vnodes: Vec<VNodeSpec>,
    /// Adaptation policy (intervals are interpreted as wall time).
    pub policy: Policy,
    /// Controller tunables.
    pub controller: ControllerConfig,
    /// Launch mapping; `None` plans from availability at start.
    pub initial_mapping: Option<Mapping>,
    /// Resequence outputs by item index (the `Pipeline1for1` contract).
    pub preserve_order: bool,
    /// Arrival process pacing the batch entry points against the wall
    /// clock (the same backend-independent schedule the simulator
    /// materialises as events). Sessions ignore it — a pushed item
    /// arrives when the caller pushes it.
    pub arrivals: ArrivalProcess,
    /// Topology used for *planning* (the box itself has uniform cheap
    /// links); `None` = uniform local links.
    pub topology: Option<Topology>,
    /// Relative availability observation noise.
    pub observation_noise: f64,
    /// Noise stream seed.
    pub noise_seed: u64,
    /// Timeline bucket width.
    pub timeline_bucket: SimDuration,
    /// Emulate network cost on stage boundaries: before handing an item
    /// to a *different* vnode, the sending worker sleeps the planning
    /// topology's transfer time for the boundary's declared bytes
    /// (NIC-serialisation semantics). Off by default: a single box has
    /// no real network, and the planner then treats links as free.
    pub emulate_links: bool,
    /// Live observation callbacks (invoked on the adaptation thread).
    pub hooks: RunHooks,
    /// Per-stage-boundary queue bound: caps total in-flight items at
    /// `capacity × (stages + 1)` so `push()` blocks under backpressure.
    /// `None` = unbounded (the legacy batch behaviour). Must be ≥ 1.
    pub queue_capacity: Option<usize>,
    /// Envelope batch granularity: the session coalesces up to this
    /// many pushed items into one routed envelope, and stage exits ship
    /// their outputs in like-sized batches, amortising channel-send,
    /// routing, and credit overhead. A sender-side choice only: at `1`
    /// (the default) every push ships at once, and a worker that finds
    /// a backlog merges it into stride-sized envelopes itself (the
    /// inbox's `pop`). The credit gate always accounts per *item*
    /// regardless. Buffered input is flushed on
    /// [`EngineSession::close`], on any output-side call, and whenever
    /// the credit gate would block.
    pub batch_size: usize,
    /// In-flight steering flags shared with a live session.
    pub control: SessionControl,
    /// Scheduled faults, with times read as wall-clock offsets from
    /// engine start. Slowdowns and outages rewrite the named vnodes'
    /// load schedules; outages and crashes additionally take the vnode
    /// *down*: its worker stops serving (in-flight items are re-dealt
    /// to live replicas or parked until the forced re-map rescues
    /// them), routing excludes it, and `RunEvent::NodeDown` fires.
    pub faults: FaultPlan,
}

impl EngineConfig {
    /// A sensible default over the given virtual nodes.
    pub fn new(vnodes: Vec<VNodeSpec>) -> Self {
        assert!(!vnodes.is_empty(), "engine needs at least one vnode");
        EngineConfig {
            vnodes,
            policy: Policy::Static,
            controller: ControllerConfig::default(),
            initial_mapping: None,
            preserve_order: true,
            arrivals: ArrivalProcess::AllAtOnce,
            topology: None,
            observation_noise: 0.0,
            noise_seed: 1,
            timeline_bucket: SimDuration::from_millis(500),
            emulate_links: false,
            hooks: RunHooks::default(),
            queue_capacity: None,
            batch_size: 1,
            control: SessionControl::default(),
            faults: FaultPlan::new(),
        }
    }
}

/// Result of a threaded run: typed outputs plus the standard report.
pub struct EngineOutcome<O> {
    /// Pipeline outputs (resequenced if `preserve_order`).
    pub outputs: Vec<O>,
    /// Run metrics in the same shape the simulator reports (times are
    /// wall-clock seconds since engine start).
    pub report: RunReport,
}

/// One in-flight item: its sequence number, birth time, and payload.
pub(crate) struct ItemSlot {
    pub(crate) seq: u64,
    pub(crate) born: Instant,
    pub(crate) payload: BoxedItem,
}

/// A routed batch of items bound for one stage on one worker.
pub(crate) struct Envelope {
    pub(crate) stage: usize,
    /// The routing epoch the sender routed this envelope under. A
    /// receiver that no longer hosts `stage` uses the mismatch with its
    /// own (current) epoch as proof the envelope is stale and re-homes
    /// it; a current-epoch envelope always lands on a current host.
    pub(crate) epoch: u64,
    pub(crate) items: Vec<ItemSlot>,
}

/// Control-plane messages, served strictly before work envelopes.
pub(crate) enum Ctrl {
    /// Deposit `tenant`'s (stateful) instance of `stage` back into the
    /// depot.
    Relinquish { tenant: Arc<Shared>, stage: usize },
    /// Pure wake-up: re-run the post-message service scan (a stateful
    /// instance landed in the depot, a node changed health, or a tenant
    /// tore down fatally and its blocked peers must re-check).
    Wake,
    /// `tenant` is detaching from the pool: drop its lane and local
    /// state, flush its accounting, and ack via `Shared::detached`.
    TenantGone { tenant: Arc<Shared> },
    /// Pool teardown sentinel: the worker exits after processing it.
    Shutdown,
}

/// One message popped from an inbox: a control message, or a work
/// envelope tagged with the tenant it belongs to.
pub(crate) enum Msg {
    Work { tenant: Arc<Shared>, env: Envelope },
    Ctrl(Ctrl),
}

pub(crate) struct Finished {
    pub(crate) seq: u64,
    pub(crate) born: Instant,
    pub(crate) done: Instant,
    pub(crate) payload: BoxedItem,
}

/// Collector-side control plane, multiplexed with finished items.
enum SinkMsg {
    /// A batch of finished items (one message per processed envelope
    /// that ended at the sink).
    Done(Vec<Finished>),
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

/// Per-worker accounting for one tenant, flushed by the worker when the
/// tenant detaches ([`Ctrl::TenantGone`]) and read by the session's
/// teardown after every worker has acked.
#[derive(Default)]
struct WorkerAcc {
    busy: Duration,
    metrics: Option<adapipe_core::metrics::StageMetrics>,
}

/// The shared node pool: worker threads, their inboxes, and node health
/// — everything that outlives any single pipeline session. One `Pool`
/// serves any number of concurrent tenant sessions; the single-session
/// entry point [`spawn`] simply launches a pool of one tenant and shuts
/// it down at drain.
pub struct Pool {
    /// The virtual nodes (load schedules already rewritten for the
    /// pool-wide fault plan).
    vnodes: Vec<VNodeSpec>,
    /// Pool-wide scheduled faults (times are wall offsets from launch).
    faults: FaultPlan,
    inboxes: Vec<Inbox>,
    /// Wall-clock zero for every tenant admitted to this pool.
    epoch: Instant,
    /// Raised once by [`Pool::shutdown`]: workers exit, stray work is
    /// discarded, teardown ack-waits stop spinning.
    done: AtomicBool,
    /// Node down flags, shared with every tenant's routing table
    /// (`RoutingTable::with_shared_health`): one tenant's fault tracker
    /// marking a node down excludes it for all tenants.
    health: Arc<Vec<AtomicBool>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_session: AtomicU64,
}

impl Pool {
    /// Launches the pool: one worker thread per vnode, ready to serve
    /// sessions attached with [`attach`]. `faults` applies pool-wide
    /// (vnode load schedules are rewritten here once).
    pub fn launch(vnodes: Vec<VNodeSpec>, faults: FaultPlan) -> Arc<Pool> {
        assert!(!vnodes.is_empty(), "pool needs at least one vnode");
        let vnodes: Vec<VNodeSpec> = if faults.is_empty() {
            vnodes
        } else {
            vnodes
                .into_iter()
                .enumerate()
                .map(|(i, mut v)| {
                    v.load = faults.rewrite_load(NodeId(i), v.load);
                    v
                })
                .collect()
        };
        let np = vnodes.len();
        let pool = Arc::new(Pool {
            vnodes,
            faults,
            inboxes: (0..np).map(|_| Inbox::new()).collect(),
            epoch: Instant::now(),
            done: AtomicBool::new(false),
            health: Arc::new((0..np).map(|_| AtomicBool::new(false)).collect()),
            workers: Mutex::new(Vec::new()),
            next_session: AtomicU64::new(0),
        });
        let handles: Vec<JoinHandle<()>> = (0..np)
            .map(|me| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || worker_loop(me, pool))
            })
            .collect();
        *pool.workers.lock().expect("pool worker list poisoned") = handles;
        pool
    }

    /// Number of virtual nodes (= worker threads).
    pub fn node_count(&self) -> usize {
        self.vnodes.len()
    }

    /// The pool's vnode specs (fault-rewritten), for tenant planning.
    pub fn vnode_specs(&self) -> &[VNodeSpec] {
        &self.vnodes
    }

    /// The pool-wide fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Items currently queued at worker inboxes for `session`.
    pub fn queued_for(&self, session: SessionId) -> u64 {
        self.inboxes.iter().map(|b| b.queued_for(session.0)).sum()
    }

    fn is_down(&self, node: usize) -> bool {
        self.health
            .get(node)
            .is_some_and(|f| f.load(Ordering::SeqCst))
    }

    /// Stops and joins every worker. Idempotent; called automatically by
    /// the owning session's teardown when the pool was created by
    /// [`spawn`], or by the cluster facade when the cluster closes.
    /// Sessions still attached unwind with truncated reports (their
    /// ack-waits observe `done`).
    pub fn shutdown(&self) {
        self.done.store(true, Ordering::SeqCst);
        for inbox in &self.inboxes {
            inbox.send_ctrl(Ctrl::Shutdown);
        }
        let handles = std::mem::take(&mut *self.workers.lock().expect("pool worker list poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Everything the workers share *about one tenant*: its pipeline, its
/// routing table, its depot, its sink. The pool-wide half (inboxes,
/// vnodes, health, the clock) lives in [`Pool`], reached via `pool`.
pub(crate) struct Shared {
    /// Pool-unique session id (becomes the public [`SessionId`]).
    pub(crate) id: u64,
    pool: Arc<Pool>,
    pub(crate) spec: PipelineSpec,
    /// Per-stage in-edge bytes, precomputed once from the stage graph
    /// (`StageGraph::feed_bytes`) — link emulation must not walk the
    /// graph per envelope.
    bytes_into: Vec<u64>,
    /// Per-parallel-block fan-out duplicators (block order).
    pub(crate) fanouts: Vec<FanOutFn>,
    /// Join state per join block: inputs collected per item until the
    /// set completes and the assembled envelope ships to the joining
    /// stage's host. Global (not per-worker), so deposited inputs
    /// survive the loss of any vnode.
    pub(crate) joins: Vec<Mutex<HashMap<u64, JoinSlots>>>,
    /// Planning topology; also drives link emulation when enabled.
    topology: Topology,
    emulate_links: bool,
    routing: RwLock<RoutingTable>,
    /// Per stage, per slot: prototype (stateless/accumulator, slot 0),
    /// the unique instance (exclusive/opaque, slot 0), or one instance
    /// per shard (keyed — slot = shard). A migration deposits the
    /// quiesced instance here for the new owner to collect.
    depot: Vec<Vec<DepotSlot>>,
    /// Per-stage routing-key extractors (keyed stages only); items with
    /// no extractor — or a payload the extractor cannot read — hash by
    /// sequence number.
    keys: Vec<Option<KeyFn>>,
    /// Accumulator hand-off: a replica vacating a host parks its partial
    /// snapshot here; whichever replica processes next absorbs the
    /// backlog through the stage's merge operator.
    merge_inbox: Vec<Mutex<Vec<StateSnapshot>>>,
    sink: Sender<SinkMsg>,
    completed: AtomicU64,
    /// Tenant teardown flag: raised by drain/abort/fatal teardown.
    /// Workers discard this tenant's envelopes once set; the pool keeps
    /// running for the other tenants.
    done: AtomicBool,
    /// Event bus + error slot shared with the session (fault
    /// notifications, replay announcements, fatal failures).
    pub(crate) hooks: RunHooks,
    pub(crate) control: SessionControl,
    /// Items re-dealt to a live host after their vnode went down.
    replays: AtomicU64,
    /// Retries performed across all stages (in-place re-attempts under
    /// a per-stage [`adapipe_runtime::session::ResiliencePolicy`]).
    pub(crate) retries: AtomicU64,
    /// Attempts whose service time exceeded their stage's declared
    /// per-attempt bound (observational: a running closure cannot be
    /// interrupted, so the overrun is counted, not cancelled).
    pub(crate) timeouts: AtomicU64,
    /// Sequence numbers diverted to the dead-letter channel. Consulted
    /// by ordered delivery (a dead seq will never arrive — skip it) and
    /// by join deposits (a sibling branch of a dead item must not park
    /// its output forever). Guarded by `dead_count` so the common
    /// no-dead-letter run never takes the lock.
    dead: Mutex<BTreeSet<u64>>,
    /// Lock-free size of `dead`.
    dead_count: AtomicU64,
    /// Work envelopes taken off a sibling's inbox by an idle co-host.
    steals: AtomicU64,
    /// Stage-boundary hand-offs executed *fused*: the producing worker
    /// ran the consumer stage directly in the same batch loop instead
    /// of routing an envelope through an inbox (see [`FusionPlan`]).
    fused: AtomicU64,
    /// Items that arrived under a retired routing epoch and were
    /// re-homed to their stage's current hosts.
    rehomed: AtomicU64,
    /// The in-flight credit gate (shared so fatal teardown can wake a
    /// blocked `push()`).
    credits: Option<Arc<Credits>>,
    /// This tenant's granted fraction of pool capacity (f64 bits),
    /// written by the cluster arbiter, read by the fair-queueing lanes
    /// and the share-scaled planner backend. `1.0` for a tenant that
    /// owns its pool.
    share: AtomicU64,
    /// Raised by graceful eviction: further pushes return
    /// [`RunError::Evicted`] while in-flight items drain normally.
    evicting: AtomicBool,
    /// Per-worker busy/metrics accounting, flushed at detach.
    accs: Vec<Mutex<WorkerAcc>>,
    /// Workers that have processed this tenant's [`Ctrl::TenantGone`];
    /// teardown waits for all of them before reading `accs`.
    detached: AtomicU64,
    /// Per stage, the stamp stride ([`FusionPlan`]) of the worker that
    /// adapted it last: how many of the stage's items fit one clock
    /// window. Inboxes read it as the budget for merging a backlog of
    /// envelopes into one ([`crate::inbox::InboxQueue::pop`]). A hint —
    /// relaxed, last writer wins between replicas — and `1` until a
    /// worker has measured the stage, so a stage that never earns a
    /// wider window is served envelope by envelope.
    pub(crate) stride: Vec<AtomicU32>,
}

impl Shared {
    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.pool.epoch.elapsed().as_secs_f64())
    }

    /// The tenant's current capacity share in `(0, 1]`.
    pub(crate) fn share(&self) -> f64 {
        f64::from_bits(self.share.load(Ordering::Relaxed))
    }

    /// True once this tenant — or the whole pool — is tearing down.
    fn finished(&self) -> bool {
        self.done.load(Ordering::Relaxed) || self.pool.done.load(Ordering::Relaxed)
    }

    /// The routing-key hash of one in-flight item at `stage`: the
    /// declared key extractor when it can read the payload, the item's
    /// sequence number otherwise (deterministic for the run either way).
    fn key_hash(&self, stage: usize, slot: &ItemSlot) -> u64 {
        self.keys[stage]
            .as_ref()
            .and_then(|k| k(&slot.payload))
            .unwrap_or(slot.seq)
    }

    /// True if `seq` was diverted to the dead-letter channel. The
    /// common path (no dead letters this run) is one relaxed load.
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
        self.hooks.events.emit(RunEvent::ItemDeadLettered {
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
    fn note_replay(&self, seq: u64, stage: usize, from: usize) {
        self.replays.fetch_add(1, Ordering::Relaxed);
        self.hooks.events.emit(RunEvent::ItemReplayed {
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
struct RouteCache {
    snap: Arc<RoutingSnapshot>,
    epoch_cell: Arc<AtomicU64>,
}

impl RouteCache {
    fn new(shared: &Shared) -> Self {
        let table = shared.routing.read().expect("routing lock poisoned");
        RouteCache {
            snap: table.snapshot(),
            epoch_cell: table.epoch_cell(),
        }
    }

    /// The current snapshot (refreshed if the table published a newer
    /// epoch since the last call).
    fn current(&mut self, shared: &Shared) -> &Arc<RoutingSnapshot> {
        if self.epoch_cell.load(Ordering::Acquire) != self.snap.epoch() {
            self.snap = shared
                .routing
                .read()
                .expect("routing lock poisoned")
                .snapshot();
        }
        &self.snap
    }
}

/// Inbox depth beyond which a sender tries to wake an idle co-host of
/// the destination's stage (work-stealing assist).
const STEAL_WAKE_DEPTH: usize = 2;

/// How deep into a victim's backlog (from the tail) a thief scans for a
/// stealable envelope.
const STEAL_SCAN: usize = 8;

/// Cap per recycled-buffer free list: buffers beyond it are dropped.
const BUF_POOL_CAP: usize = 64;

/// Process-wide free lists recycling the two hot-path buffer shapes:
/// envelope item vectors (drained by whichever worker serves them) and
/// finished-batch vectors (consumed on the session thread after
/// delivery). Both cross threads, hence shared pools rather than
/// thread-locals; `try_lock` keeps them strictly off the critical path —
/// under contention the caller just allocates.
static SLOT_BUFS: Mutex<Vec<Vec<ItemSlot>>> = Mutex::new(Vec::new());
static FIN_BUFS: Mutex<Vec<Vec<Finished>>> = Mutex::new(Vec::new());

fn take_slot_buf(cap: usize) -> Vec<ItemSlot> {
    if let Ok(mut pool) = SLOT_BUFS.try_lock() {
        if let Some(mut buf) = pool.pop() {
            drop(pool);
            // The pool mixes shapes (a per-item session's buffers hold
            // one slot): grow once here, not by doubling under pushes.
            buf.reserve(cap);
            return buf;
        }
    }
    Vec::with_capacity(cap)
}

/// Returns an item buffer to the pool. Clearing happens here — on the
/// thread that owned the buffer — so any unconsumed payloads drop
/// before the buffer is offered to another thread.
pub(crate) fn put_slot_buf(mut buf: Vec<ItemSlot>) {
    buf.clear();
    if buf.capacity() == 0 {
        return;
    }
    if let Ok(mut pool) = SLOT_BUFS.try_lock() {
        if pool.len() < BUF_POOL_CAP {
            pool.push(buf);
        }
    }
}

fn take_fin_buf() -> Vec<Finished> {
    if let Ok(mut pool) = FIN_BUFS.try_lock() {
        if let Some(buf) = pool.pop() {
            return buf;
        }
    }
    Vec::new()
}

fn put_fin_buf(mut buf: Vec<Finished>) {
    buf.clear();
    if buf.capacity() == 0 {
        return;
    }
    if let Ok(mut pool) = FIN_BUFS.try_lock() {
        if pool.len() < BUF_POOL_CAP {
            pool.push(buf);
        }
    }
}

/// Hard ceiling on the stamp-sampling window (items per clock read) of
/// [`process_batch`]'s fast path.
const MAX_STAMP_STRIDE: u32 = 64;
/// A full sampling window completing faster than this doubles the
/// stride: the clock reads themselves are a measurable share of the
/// work.
const STRIDE_GROW_BELOW: Duration = Duration::from_micros(200);
/// A window slower than this halves the stride: sink stamps are fixed
/// up at window boundaries, so the per-item latency error is bounded by
/// one window and must stay small against real stage times.
const STRIDE_SHRINK_ABOVE: Duration = Duration::from_millis(1);

/// Routes `items` of `stage` against `snap` and delivers them bucketed
/// per destination worker. The single-host case (linear pipelines)
/// skips per-item routing entirely; replicated stages keep per-item
/// round-robin dealing inside the batch. `from` is the sending worker
/// (`None` for the source), used for link emulation.
fn ship(
    shared: &Arc<Shared>,
    snap: &RoutingSnapshot,
    from: Option<usize>,
    stage: usize,
    mut items: Vec<ItemSlot>,
) {
    if items.is_empty() {
        put_slot_buf(items);
        return;
    }
    let hosts = snap.hosts(stage);
    if hosts.len() == 1 {
        let dest = hosts[0].index();
        deliver_env(shared, snap, from, stage, dest, items);
        return;
    }
    let np = shared.pool.inboxes.len();
    let cap = items.len();
    let mut buckets: Vec<Vec<ItemSlot>> = (0..np).map(|_| take_slot_buf(cap)).collect();
    if shared.spec.stages[stage].state.shards() > 0 {
        // Keyed stage: every item is pinned to its key's shard owner —
        // never dealt round-robin, never detoured around a down owner
        // (the state lives there; a re-map moves it, then the items).
        for slot in items.drain(..) {
            let hash = shared.key_hash(stage, &slot);
            buckets[snap.route_keyed(stage, hash).index()].push(slot);
        }
    } else {
        for slot in items.drain(..) {
            buckets[snap.route(stage).index()].push(slot);
        }
    }
    put_slot_buf(items);
    for (dest, batch) in buckets.into_iter().enumerate() {
        if !batch.is_empty() {
            deliver_env(shared, snap, from, stage, dest, batch);
        } else {
            put_slot_buf(batch);
        }
    }
}

/// Sends one envelope to `dest`, paying the emulated link cost first
/// when enabled (NIC-serialisation semantics: the sender sleeps the
/// transfer time of the whole batch — latency is paid once per
/// envelope, which is exactly the amortisation batching buys).
fn deliver_env(
    shared: &Arc<Shared>,
    snap: &RoutingSnapshot,
    from: Option<usize>,
    stage: usize,
    dest: usize,
    items: Vec<ItemSlot>,
) {
    if let Some(from) = from {
        if shared.emulate_links && from != dest {
            let bytes = shared.bytes_into[stage].saturating_mul(items.len() as u64);
            let d = shared
                .topology
                .transfer_time(NodeId(from), NodeId(dest), bytes)
                .as_secs_f64();
            if d > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(d));
            }
        }
    }
    dispatch(
        shared,
        snap,
        dest,
        Envelope {
            stage,
            epoch: snap.epoch(),
            items,
        },
    );
}

/// Feeds a batch of source items into the pipeline entry: one envelope
/// to the entry stage, or — when the input fans out to several entry
/// stages — the same walk every stage output takes, grouped into one
/// envelope per entry (the in-flight credit still counts *items*, not
/// copies).
fn push_entry(shared: &Arc<Shared>, cache: &mut RouteCache, mut items: Vec<ItemSlot>) {
    let snap = cache.current(shared).clone();
    let entry = shared.spec.graph.entry();
    if let Next::Stage(stage) = entry {
        return ship(shared, &snap, None, stage, items);
    }
    // A pipeline has at least one stage: nothing exits at the entry,
    // `finished` stays empty.
    let mut outbox = Outbox {
        finished: Vec::new(),
        onward: Vec::new(),
    };
    for slot in items.drain(..) {
        let (seq, born) = (slot.seq, slot.born);
        if outbox
            .send(shared, &entry, seq, born, born, slot.payload)
            .is_err()
        {
            return; // typed failure recorded, session torn down
        }
    }
    put_slot_buf(items);
    for (stage, batch) in outbox.onward {
        ship(shared, &snap, None, stage, batch);
    }
}

/// Enqueues `env` on `dest`'s inbox lane for this tenant; if the inbox
/// is backing up and the stage has live sibling replicas, wakes one
/// idle co-host so it starts stealing instead of sleeping through the
/// backlog.
fn dispatch(shared: &Arc<Shared>, snap: &RoutingSnapshot, dest: usize, env: Envelope) {
    let stage = env.stage;
    let depth = shared.pool.inboxes[dest].send_work(shared, env);
    if depth > STEAL_WAKE_DEPTH && shared.spec.stages[stage].stateless {
        let hosts = snap.hosts(stage);
        if hosts.len() > 1 {
            for &h in hosts {
                if h.index() != dest
                    && !snap.is_down(h)
                    && shared.pool.inboxes[h.index()].wake_if_idle()
                {
                    break;
                }
            }
        }
    }
}

/// Irrecoverable failure *of one tenant* (stateful stage lost, every
/// node down, wrong-typed item, forced eviction): record nothing
/// further for it, stop its collector, raise its done flag, wake every
/// worker (so tenant-scoped backlog gets discarded) and any of its
/// pushers blocked on the credit gate. The typed error is already on
/// `shared.control`; the session surfaces it via `error()` while
/// `drain()`/`next()` unwind cleanly with a truncated report. Other
/// tenants on the pool are untouched.
pub(crate) fn fatal_teardown(shared: &Shared) {
    shared.done.store(true, Ordering::SeqCst);
    let _ = shared.sink.send(SinkMsg::Fatal);
    for inbox in &shared.pool.inboxes {
        inbox.send_ctrl(Ctrl::Wake);
    }
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
        self.shared.now()
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

    fn oracle_rates(&self, from: SimTime, to: SimTime) -> Vec<f64> {
        let share = self.shared.share();
        self.shared
            .pool
            .vnodes
            .iter()
            .map(|v| v.speed * v.load.mean_availability(from, to) * share)
            .collect()
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

/// A live threaded pipeline: workers are running, the caller feeds
/// items and pulls outputs while adaptation happens underneath. See the
/// module docs for the backpressure discipline.
///
/// Obtained from [`spawn`]; applications should prefer the unified
/// `adapipe::api::Pipeline::spawn`, which wraps this per backend.
pub struct EngineSession<I, O> {
    shared: Arc<Shared>,
    credits: Option<Arc<Credits>>,
    /// True when this session launched its own pool ([`spawn`]): the
    /// pool is shut down when the session tears down. Cluster-attached
    /// sessions leave the pool running for their co-tenants.
    owns_pool: bool,
    collector: Option<JoinHandle<ReportBuilder>>,
    adaptation: Option<JoinHandle<AdaptationOutcome>>,
    out_rx: Receiver<Vec<Finished>>,
    events: adapipe_runtime::session::EventBus,
    /// The pusher's lock-free routing view.
    cache: RouteCache,
    /// Input buffered towards the next envelope (≤ `batch_size` items,
    /// each already holding a credit).
    pending: Vec<ItemSlot>,
    batch_size: usize,
    /// Finished items received from the collector but not yet delivered
    /// to the caller (tail of the last output batch).
    inbuf: VecDeque<Finished>,
    pushed: u64,
    closed: bool,
    preserve_order: bool,
    /// Resequencing buffer (`preserve_order` only); bounded by the
    /// in-flight credit when `queue_capacity` is set. In-order arrivals
    /// bypass it entirely.
    reorder: BTreeMap<u64, O>,
    next_seq: u64,
    _types: PhantomData<fn(I) -> O>,
}

impl<I, O> EngineSession<I, O>
where
    I: Send + 'static,
    O: Send + 'static,
{
    /// Feeds one item into the pipeline. The item joins the pending
    /// envelope and ships when `batch_size` items have accumulated (or
    /// on `close`/output interaction/credit pressure). Blocks while the
    /// bounded in-flight budget is exhausted (emitting
    /// [`RunEvent::BackpressureStall`]); buffered input is flushed
    /// *before* blocking so the items holding credits can complete.
    /// Returns the item's sequence number.
    ///
    /// # Errors
    /// [`RunError::SessionClosed`] after [`EngineSession::close`];
    /// [`RunError::Evicted`] once the cluster began evicting this
    /// session (in-flight items still drain). The item is dropped in
    /// both cases.
    pub fn push(&mut self, item: I) -> Result<u64, RunError> {
        self.push_born(item, Instant::now())
    }

    /// [`EngineSession::push`] with an explicit birth stamp, so a batch
    /// push pays one clock read for the whole batch (every item of a
    /// batch arrives at the call instant — the same arrival semantics
    /// the all-at-once batch feed declares).
    fn push_born(&mut self, item: I, born: Instant) -> Result<u64, RunError> {
        if self.closed {
            return Err(RunError::SessionClosed);
        }
        if self.shared.evicting.load(Ordering::Relaxed) {
            return Err(RunError::Evicted {
                session: SessionId(self.shared.id),
            });
        }
        let seq = self.pushed;
        if let Some(credits) = &self.credits {
            if !credits.try_acquire() {
                // The buffered items hold credits that only completions
                // can return — flush them into the pipeline, then wait.
                self.flush_pending();
                let credits = self.credits.as_ref().expect("checked above");
                if let Some(waited) = credits.acquire() {
                    self.events.emit(RunEvent::BackpressureStall {
                        session: SessionId(self.shared.id),
                        seq,
                        waited: SimDuration::from_secs_f64(waited.as_secs_f64()),
                    });
                }
            }
        }
        self.pushed += 1;
        self.pending.push(ItemSlot {
            seq,
            born,
            payload: Payload::new(item),
        });
        if self.pending.len() >= self.batch_size {
            self.flush_pending();
        }
        Ok(seq)
    }

    /// Feeds a whole batch of items through the batched envelope path,
    /// flushing any remainder at the end of the call (so the batch is
    /// fully in flight when this returns). Returns the number of items
    /// pushed. Blocks like [`EngineSession::push`] under a bounded
    /// in-flight budget.
    ///
    /// # Errors
    /// Same lifecycle errors as [`EngineSession::push`]; items pushed
    /// before the error remain in flight (and are flushed first).
    pub fn push_batch(&mut self, items: impl IntoIterator<Item = I>) -> Result<u64, RunError> {
        let born = Instant::now();
        let mut n = 0;
        for item in items {
            if let Err(e) = self.push_born(item, born) {
                self.flush_pending();
                return Err(e);
            }
            n += 1;
        }
        self.flush_pending();
        Ok(n)
    }

    /// Ships the buffered input as one routed envelope (routing the
    /// pipeline entry — or fanning each item out when the graph opens
    /// with a parallel block, still one credit per *item*).
    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let items = std::mem::replace(&mut self.pending, take_slot_buf(self.batch_size));
        push_entry(&self.shared, &mut self.cache, items);
    }

    /// Declares the input stream complete (flushing buffered input).
    /// Idempotent; pushing after close returns
    /// [`RunError::SessionClosed`].
    pub fn close(&mut self) {
        if !self.closed {
            self.flush_pending();
            self.closed = true;
            let _ = self.shared.sink.send(SinkMsg::Closed {
                expected: self.pushed,
            });
        }
    }

    /// Items pushed so far.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Items that reached the sink so far.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Items currently between source and sink.
    pub fn in_flight(&self) -> u64 {
        self.pushed.saturating_sub(self.completed())
    }

    /// The pool's wall-clock epoch (all report times are relative to
    /// it).
    pub fn epoch(&self) -> Instant {
        self.shared.pool.epoch
    }

    /// This session's pool-unique id.
    pub fn session_id(&self) -> SessionId {
        SessionId(self.shared.id)
    }

    /// A cloneable cluster-side handle to this tenant: share control,
    /// demand sensing, and eviction. Used by the cluster arbiter; a
    /// plain session never needs it.
    pub fn tenant_handle(&self) -> TenantHandle {
        TenantHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The run's fatal error, if one was recorded (stateful stage lost
    /// to a crashed vnode, every vnode down, wrong-typed item). The
    /// failed run unwinds cleanly: `next()` stops yielding, `drain()`
    /// returns the truncated report, and this surfaces why.
    pub fn error(&self) -> Option<RunError> {
        self.shared.control.error()
    }

    /// Work envelopes stolen off sibling inboxes by idle co-hosts so
    /// far (work-stealing pool activity).
    pub fn steals(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Items that arrived under a retired routing epoch and were
    /// re-homed to their stage's current hosts (remap drain activity).
    pub fn rehomed(&self) -> u64 {
        self.shared.rehomed.load(Ordering::Relaxed)
    }

    /// Stage-boundary hand-offs executed *fused* so far: the producing
    /// worker ran the consumer stage directly in its batch loop instead
    /// of routing an envelope through an inbox, because the consumer is
    /// stateless, default-policy, and mapped solely to that worker.
    /// Re-maps that separate the pair un-fuse it automatically (the
    /// fusion plan is epoch-scoped).
    pub fn fused_hops(&self) -> u64 {
        self.shared.fused.load(Ordering::Relaxed)
    }

    /// Non-blocking poll of the output side (flushes buffered input
    /// first — waiting for output while input sits buffered would
    /// deadlock).
    pub fn try_next(&mut self) -> TryNext<O> {
        self.flush_pending();
        loop {
            if self.preserve_order {
                if let Some(o) = self.pop_ordered() {
                    return TryNext::Item(o);
                }
            }
            if let Some(fin) = self.inbuf.pop_front() {
                if let Some(o) = self.deliver(fin) {
                    return TryNext::Item(o);
                }
                continue;
            }
            match self.out_rx.try_recv() {
                Ok(mut batch) => {
                    self.inbuf.extend(batch.drain(..));
                    put_fin_buf(batch);
                }
                Err(TryRecvError::Empty) => return TryNext::Pending,
                Err(TryRecvError::Disconnected) => {
                    return match self.flush_reorder() {
                        Some(o) => TryNext::Item(o),
                        None => TryNext::Done,
                    }
                }
            }
        }
    }

    fn deliver(&mut self, fin: Finished) -> Option<O> {
        let out = fin
            .payload
            .downcast::<O>()
            .expect("pipeline output type mismatch");
        if self.preserve_order {
            self.skip_dead();
            // In-order fast path: the common case (single-replica
            // stages, no remap in flight) never touches the tree.
            if fin.seq == self.next_seq {
                self.next_seq += 1;
                Some(out)
            } else {
                self.reorder.insert(fin.seq, out);
                self.pop_ordered()
            }
        } else {
            Some(out)
        }
    }

    /// Advances the resequencing cursor past dead-lettered sequence
    /// numbers: a diverted item never produces an output, so ordered
    /// delivery must not wait for it.
    fn skip_dead(&mut self) {
        while self.shared.is_dead(self.next_seq) {
            self.next_seq += 1;
        }
    }

    fn pop_ordered(&mut self) -> Option<O> {
        self.skip_dead();
        let o = self.reorder.remove(&self.next_seq)?;
        self.next_seq += 1;
        Some(o)
    }

    /// After the collector is gone, deliver whatever the resequencing
    /// buffer still holds, in sequence order (gaps — aborted items —
    /// are skipped).
    fn flush_reorder(&mut self) -> Option<O> {
        let (&seq, _) = self.reorder.iter().next()?;
        self.next_seq = seq + 1;
        self.reorder.remove(&seq)
    }

    /// Graceful shutdown: closes the stream, waits for every pushed
    /// item to complete, and returns the remaining (un-pulled) outputs
    /// plus the standard report. Items already pulled via
    /// [`EngineSession::next`] are not repeated.
    pub fn drain(mut self) -> EngineOutcome<O> {
        self.close();
        let mut outputs = Vec::new();
        for o in self.by_ref() {
            outputs.push(o);
        }
        self.teardown(outputs)
    }

    /// Immediate shutdown: in-flight items are dropped and the report
    /// comes back `truncated` if anything was lost. Workers bail after
    /// at most the item they are currently processing — the queued
    /// backlog is discarded, not drained.
    pub fn abort(mut self) -> RunReport {
        let _ = self.shared.sink.send(SinkMsg::Abort {
            pushed: self.pushed,
        });
        // Raise the flag *before* the wake-up sentinels: a worker
        // chewing through a deep backlog checks it between items and
        // exits without serving the rest of its inbox.
        self.shared.done.store(true, Ordering::SeqCst);
        self.closed = true;
        self.teardown(Vec::new()).report
    }

    /// Detaches this tenant from the pool and assembles the report. The
    /// collector must already be on its way out (stream closed and
    /// delivered, or aborted). Every worker acks the detach
    /// ([`Ctrl::TenantGone`]) after flushing this tenant's accounting
    /// into `Shared::accs`; the wait escapes early if the whole pool is
    /// shutting down underneath us.
    fn teardown(&mut self, outputs: Vec<O>) -> EngineOutcome<O> {
        let mut report = self
            .collector
            .take()
            .expect("collector joined twice")
            .join()
            .expect("collector panicked");
        report.set_replays(self.shared.replays.load(Ordering::Relaxed));
        report.set_retries(self.shared.retries.load(Ordering::Relaxed));
        report.set_timeouts(self.shared.timeouts.load(Ordering::Relaxed));
        self.shared.done.store(true, Ordering::SeqCst);
        for inbox in &self.shared.pool.inboxes {
            inbox.send_ctrl(Ctrl::TenantGone {
                tenant: Arc::clone(&self.shared),
            });
        }
        let np = self.shared.pool.vnodes.len();
        while self.shared.detached.load(Ordering::SeqCst) < np as u64
            && !self.shared.pool.done.load(Ordering::SeqCst)
        {
            std::thread::sleep(Duration::from_micros(200));
        }
        let (adaptations, planning_cycles, migrations, state_bytes_moved) = self
            .adaptation
            .take()
            .expect("adaptation joined twice")
            .join()
            .expect("adaptation thread panicked");
        report.set_migrations(migrations, state_bytes_moved);
        report.set_stage_shards(
            self.shared
                .spec
                .stages
                .iter()
                .map(|s| s.state.shards())
                .collect(),
        );
        let ns = self.shared.spec.len();
        let mut node_busy = vec![SimDuration::ZERO; np];
        let mut stage_metrics = adapipe_core::metrics::StageMetrics::new(ns);
        for (i, acc) in self.shared.accs.iter().enumerate() {
            let acc = acc.lock().expect("worker accounting poisoned");
            node_busy[i] = SimDuration::from_secs_f64(acc.busy.as_secs_f64());
            if let Some(m) = &acc.metrics {
                stage_metrics.absorb(m);
            }
        }
        let final_mapping = self
            .shared
            .routing
            .read()
            .expect("routing lock poisoned")
            .mapping()
            .clone();
        let report = report.finish(
            final_mapping,
            adaptations,
            planning_cycles,
            node_busy,
            stage_metrics,
        );
        if self.owns_pool {
            self.shared.pool.shutdown();
        }
        EngineOutcome { outputs, report }
    }
}

/// A session dropped without [`EngineSession::drain`] or
/// [`EngineSession::abort`] (an error path, a panic unwind) must not
/// leak its threads or its pool lanes: workers hold the pool alive on
/// their own, so nothing disconnects by itself, and the adaptation
/// thread sleeps in a loop until the done flag rises. Drop performs the
/// abort shutdown — signal, detach, join — discarding outputs and the
/// report (and shutting the pool down when this session owns it).
impl<I, O> Drop for EngineSession<I, O> {
    fn drop(&mut self) {
        if self.collector.is_none() {
            return; // drain()/abort() already tore the run down
        }
        let _ = self.shared.sink.send(SinkMsg::Abort {
            pushed: self.pushed,
        });
        self.shared.done.store(true, Ordering::SeqCst);
        for inbox in &self.shared.pool.inboxes {
            inbox.send_ctrl(Ctrl::TenantGone {
                tenant: Arc::clone(&self.shared),
            });
        }
        if let Some(collector) = self.collector.take() {
            let _ = collector.join();
        }
        let np = self.shared.pool.vnodes.len();
        while self.shared.detached.load(Ordering::SeqCst) < np as u64
            && !self.shared.pool.done.load(Ordering::SeqCst)
        {
            std::thread::sleep(Duration::from_micros(200));
        }
        if let Some(adaptation) = self.adaptation.take() {
            let _ = adaptation.join();
        }
        if self.owns_pool {
            self.shared.pool.shutdown();
        }
    }
}

/// A cluster-side handle to one tenant on a pool: read demand signals,
/// set the granted share, drive eviction. Cloneable and independent of
/// the typed [`EngineSession`] (the arbiter is type-erased).
#[derive(Clone)]
pub struct TenantHandle {
    pub(crate) shared: Arc<Shared>,
}

impl TenantHandle {
    /// The tenant's session id.
    pub fn session(&self) -> SessionId {
        SessionId(self.shared.id)
    }

    /// Items that reached this tenant's sink so far.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Items queued for this tenant across all pool inboxes (backlog —
    /// the arbiter's demand signal alongside the completion rate).
    pub fn queued(&self) -> u64 {
        self.shared
            .pool
            .inboxes
            .iter()
            .map(|b| b.queued_for(self.shared.id))
            .sum()
    }

    /// The tenant's current capacity share.
    pub fn share(&self) -> f64 {
        self.shared.share()
    }

    /// Grants the tenant `share` of pool capacity (clamped to
    /// `[0.01, 1.0]` — a zero share would freeze the tenant's fair-
    /// queueing clock instead of throttling it). Takes effect on the
    /// next envelope pop and the next planning window.
    pub fn set_share(&self, share: f64) {
        let clamped = share.clamp(MIN_LANE_WEIGHT, 1.0);
        self.shared
            .share
            .store(clamped.to_bits(), Ordering::Relaxed);
    }

    /// True once the tenant finished or was torn down.
    pub fn is_done(&self) -> bool {
        self.shared.done.load(Ordering::SeqCst)
    }

    /// The tenant's fatal error, if any.
    pub fn error(&self) -> Option<RunError> {
        self.shared.control.error()
    }

    /// Begins graceful eviction: the session's further pushes return
    /// [`RunError::Evicted`], while everything already in flight drains
    /// normally. The caller still drains/closes the session itself.
    pub fn begin_eviction(&self) {
        self.shared.evicting.store(true, Ordering::SeqCst);
    }

    /// Forced eviction (pool shrink): fails the session with
    /// [`RunError::Evicted`] and tears its data plane down immediately;
    /// in-flight items are dropped and the report shows truncation.
    /// Co-tenants are untouched.
    pub fn evict_now(&self) {
        self.shared.evicting.store(true, Ordering::SeqCst);
        self.shared.control.fail(RunError::Evicted {
            session: SessionId(self.shared.id),
        });
        fatal_teardown(&self.shared);
    }
}

/// Blocking output iteration: `next()` waits for the next completed
/// output and yields `None` once the stream is finished (closed and
/// fully delivered, or aborted). With `preserve_order` outputs come in
/// push order; otherwise in completion order.
impl<I, O> Iterator for EngineSession<I, O>
where
    I: Send + 'static,
    O: Send + 'static,
{
    type Item = O;

    fn next(&mut self) -> Option<O> {
        self.flush_pending();
        loop {
            if self.preserve_order {
                if let Some(o) = self.pop_ordered() {
                    return Some(o);
                }
            }
            if let Some(fin) = self.inbuf.pop_front() {
                if let Some(o) = self.deliver(fin) {
                    return Some(o);
                }
                continue;
            }
            match self.out_rx.recv() {
                Ok(mut batch) => {
                    self.inbuf.extend(batch.drain(..));
                    put_fin_buf(batch);
                }
                Err(_) => return self.flush_reorder(),
            }
        }
    }
}

/// Starts `pipeline` on the configured virtual nodes and returns the
/// live [`EngineSession`]. `items_hint` seeds the adaptation loop's
/// remaining-work amortisation (a session's true length is unknown
/// until it closes); batch wrappers pass the exact stream length.
///
/// This is the single-session path: it launches a private [`Pool`]
/// (applying `cfg.faults` pool-wide) and attaches the one session as
/// its owning tenant, so the pool is shut down when the session drains.
/// Multi-tenant serving launches the pool once and calls [`attach`] per
/// session.
///
/// # Panics
/// Panics if the initial mapping references unknown nodes or covers the
/// wrong number of stages, or if `queue_capacity` is zero.
pub fn spawn<I, O>(
    pipeline: Pipeline<I, O>,
    cfg: &EngineConfig,
    items_hint: u64,
) -> EngineSession<I, O>
where
    I: Send + 'static,
    O: Send + 'static,
{
    // Fault physics: the plan rewrites the vnode load schedules (inside
    // `Pool::launch`) exactly as it rewrites a simulated grid's, so
    // slowdown/outage windows degrade workers through the same
    // availability → sleep machinery. The down/up control plane
    // (routing exclusion, forced re-maps, replay) runs through the
    // shared adaptation loop.
    let pool = Pool::launch(cfg.vnodes.clone(), cfg.faults.clone());
    attach(&pool, pipeline, cfg, items_hint, true)
}

/// Attaches `pipeline` as one tenant of a running [`Pool`] and returns
/// its live [`EngineSession`]. Any number of sessions (heterogeneous
/// stage graphs) may be attached concurrently; each keeps its own typed
/// push/pull API, routing table, adaptation loop, collector, and
/// exactly-once replay isolation, while sharing the pool's worker
/// threads under weighted-fair envelope admission.
///
/// Planning and fault handling use the *pool's* vnodes and fault plan —
/// `cfg.vnodes` and `cfg.faults` are ignored here (faults are a
/// pool-wide physical property, applied once at [`Pool::launch`]).
/// `owns_pool` makes the session shut the pool down at teardown (the
/// [`spawn`] cluster-of-one case).
///
/// # Panics
/// Panics if the initial mapping references unknown nodes or covers the
/// wrong number of stages, if a provided topology does not cover the
/// pool, or if `queue_capacity` is zero.
pub fn attach<I, O>(
    pool: &Arc<Pool>,
    pipeline: Pipeline<I, O>,
    cfg: &EngineConfig,
    items_hint: u64,
    owns_pool: bool,
) -> EngineSession<I, O>
where
    I: Send + 'static,
    O: Send + 'static,
{
    let np = pool.vnodes.len();
    let (spec, stages, fanouts, keys) = pipeline.into_parts();
    let ns = spec.len();
    let join_blocks = spec.graph.join_blocks();
    let vnodes = &pool.vnodes;

    let topology = cfg
        .topology
        .clone()
        .unwrap_or_else(|| Topology::uniform(np, LinkSpec::local()));
    assert_eq!(topology.len(), np, "topology must cover every vnode");

    let mut profile = spec.profile();
    // This engine fuses co-located stateless chain edges into direct
    // calls (see `FusionPlan`), so the planner may discount them.
    profile.fuses_colocated = true;
    profile.validate();
    let launch_rates: Vec<f64> = vnodes
        .iter()
        .map(|v| v.effective_rate(SimTime::ZERO))
        .collect();
    let initial_mapping = cfg.initial_mapping.clone().unwrap_or_else(|| {
        adapipe_mapper::search::plan(&profile, &launch_rates, &topology, &cfg.controller.planner)
            .mapping
    });
    assert_eq!(initial_mapping.len(), ns, "mapping must cover every stage");
    for node in initial_mapping.nodes_used() {
        assert!(
            node.index() < np,
            "mapping uses vnode {node} outside the engine"
        );
    }

    let session_id = pool.next_session.fetch_add(1, Ordering::SeqCst);
    let runtime_cfg = RuntimeConfig {
        policy: cfg.policy,
        controller: cfg.controller.clone(),
        profile,
        topology: topology.clone(),
        speeds: vnodes.iter().map(|v| v.speed).collect(),
        state_bytes: spec.stages.iter().map(|s| s.state_bytes).collect(),
        // "Stateless" to the planner means *replicable*: keyed and
        // accumulator stages run many live instances too.
        stateless: spec.stages.iter().map(|s| s.state.replicable()).collect(),
        state_access: spec.stages.iter().map(|s| s.state).collect(),
        faults: pool.faults.clone(),
        total_items: items_hint,
        observation_noise: cfg.observation_noise,
        noise_seed: cfg.noise_seed,
        hooks: cfg.hooks.clone(),
        control: cfg.control.clone(),
        session: SessionId(session_id),
    };
    let aloop = AdaptationLoop::new(runtime_cfg, &initial_mapping, &launch_rates);

    let (sink_tx, sink_rx) = channel::<SinkMsg>();

    // One in-flight slot per stage boundary (source→s0, s0→s1, …,
    // s_last→sink) per unit of declared capacity.
    let credits = cfg
        .queue_capacity
        .map(|c| Arc::new(Credits::new((c * (ns + 1)) as u64)));

    let boundary: Vec<u64> = std::iter::once(spec.input_bytes)
        .chain(spec.stages.iter().map(|s| s.out_bytes))
        .collect();
    let bytes_into = (0..ns)
        .map(|s| spec.graph.feed_bytes(s, &boundary))
        .collect();
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
        id: session_id,
        pool: Arc::clone(pool),
        depot,
        keys,
        merge_inbox: (0..ns).map(|_| Mutex::new(Vec::new())).collect(),
        spec,
        bytes_into,
        fanouts,
        joins: (0..join_blocks)
            .map(|_| Mutex::new(HashMap::new()))
            .collect(),
        topology,
        emulate_links: cfg.emulate_links,
        // Health flags are the pool's: any tenant's fault tracker
        // marking a node down excludes it for every tenant's routing.
        routing: RwLock::new(
            RoutingTable::with_shared_health(
                initial_mapping,
                adapipe_runtime::routing::Selection::RoundRobin,
                Arc::clone(&pool.health),
            )
            .with_stage_shards(stage_shards),
        ),
        sink: sink_tx,
        completed: AtomicU64::new(0),
        done: AtomicBool::new(false),
        hooks: cfg.hooks.clone(),
        control: cfg.control.clone(),
        replays: AtomicU64::new(0),
        retries: AtomicU64::new(0),
        timeouts: AtomicU64::new(0),
        dead: Mutex::new(BTreeSet::new()),
        dead_count: AtomicU64::new(0),
        steals: AtomicU64::new(0),
        fused: AtomicU64::new(0),
        rehomed: AtomicU64::new(0),
        credits: credits.clone(),
        share: AtomicU64::new(1.0f64.to_bits()),
        evicting: AtomicBool::new(false),
        accs: (0..np).map(|_| Mutex::new(WorkerAcc::default())).collect(),
        detached: AtomicU64::new(0),
        stride: (0..ns).map(|_| AtomicU32::new(1)).collect(),
    });

    // --- collector ---------------------------------------------------
    let (out_tx, out_rx) = channel::<Vec<Finished>>();
    let collector = {
        let shared = Arc::clone(&shared);
        let credits = credits.clone();
        let bucket = cfg.timeline_bucket;
        let faults = pool.faults.clone();
        std::thread::spawn(move || {
            let mut report = ReportBuilder::new(bucket, u64::MAX);
            if !faults.is_empty() {
                report.set_faults(faults, shared.pool.vnodes.len());
            }
            let mut expected: Option<u64> = None;
            loop {
                // Dead-lettered items settle without reaching the sink:
                // termination counts everything *accounted for*.
                if expected.is_some_and(|e| report.accounted() >= e) {
                    break;
                }
                let Ok(msg) = sink_rx.recv() else { break };
                match msg {
                    SinkMsg::Done(batch) => {
                        // Sink-side bookkeeping is per *envelope*, not
                        // per item: done stamps are non-decreasing
                        // within a batch, so the last one is the
                        // envelope's completion instant.
                        if let Some(last) = batch.last() {
                            let at = SimTime::from_secs_f64(
                                last.done.duration_since(shared.pool.epoch).as_secs_f64(),
                            );
                            report.record_envelope(
                                at,
                                batch.iter().map(|fin| {
                                    SimDuration::from_secs_f64(
                                        fin.done.duration_since(fin.born).as_secs_f64(),
                                    )
                                }),
                            );
                        }
                        shared
                            .completed
                            .fetch_add(batch.len() as u64, Ordering::Relaxed);
                        if let Some(c) = &credits {
                            c.release_n(batch.len() as u64);
                        }
                        // The session may have gone away (abort path):
                        // delivery failures are fine.
                        let _ = out_tx.send(batch);
                    }
                    SinkMsg::Dead {
                        seq,
                        stage,
                        attempts,
                        reason,
                    } => {
                        report.record_dead_letter(DeadLetter {
                            seq,
                            stage,
                            attempts,
                            reason,
                        });
                        // The diverted item settles: its credit returns
                        // so the in-flight gate cannot wedge on it.
                        if let Some(c) = &credits {
                            c.release_n(1);
                        }
                    }
                    SinkMsg::Closed { expected: e } => {
                        report.set_expected(e);
                        expected = Some(e);
                    }
                    SinkMsg::Abort { pushed } => {
                        report.set_expected(pushed);
                        return report;
                    }
                    // The declared expectation stands: a fatal run
                    // reports honestly as truncated.
                    SinkMsg::Fatal => return report,
                }
            }
            report
        })
    };

    // --- adaptation --------------------------------------------------
    let adaptation = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || adaptation_thread(shared, aloop))
    };

    let cache = RouteCache::new(&shared);
    let batch_size = cfg.batch_size.max(1);
    EngineSession {
        shared,
        credits,
        owns_pool,
        collector: Some(collector),
        adaptation: Some(adaptation),
        out_rx,
        events: cfg.hooks.events.clone(),
        cache,
        pending: Vec::with_capacity(batch_size),
        batch_size,
        inbuf: VecDeque::new(),
        pushed: 0,
        closed: false,
        preserve_order: cfg.preserve_order,
        reorder: BTreeMap::new(),
        next_seq: 0,
        _types: PhantomData,
    }
}

/// Runs `pipeline` over `inputs` on the configured virtual nodes.
///
/// This is the threaded *backend* batch entry point; applications
/// should prefer the unified `adapipe::api::Pipeline` builder, which
/// delegates here via `Backend::Threads`.
///
/// # Panics
/// Panics if the initial mapping references unknown nodes or covers the
/// wrong number of stages.
pub fn execute<I, O>(
    pipeline: Pipeline<I, O>,
    inputs: Vec<I>,
    cfg: &EngineConfig,
) -> EngineOutcome<O>
where
    I: Send + 'static,
    O: Send + 'static,
{
    let n_items = inputs.len() as u64;
    let mut it = inputs.into_iter();
    execute_fed(
        pipeline,
        n_items,
        move |_| it.next().expect("iterator covers n_items"),
        cfg,
    )
}

/// Like [`execute`], but draws each input lazily from `feed` at its
/// scheduled arrival time — memory stays proportional to the in-flight
/// window, not the whole stream, which matters for paced open streams
/// of large items.
///
/// Batch execution is sugar over the streaming session: [`spawn`], feed
/// the arrival schedule (pacing the pushes against the wall clock),
/// [`EngineSession::drain`].
///
/// # Panics
/// Panics if the initial mapping references unknown nodes or covers the
/// wrong number of stages.
pub fn execute_fed<I, O, F>(
    pipeline: Pipeline<I, O>,
    n_items: u64,
    feed: F,
    cfg: &EngineConfig,
) -> EngineOutcome<O>
where
    I: Send + 'static,
    O: Send + 'static,
    F: FnMut(u64) -> I + Send + 'static,
{
    let mut session = spawn(pipeline, cfg, n_items);
    let mut feed = feed;
    match cfg.arrivals {
        // Everything is due at t = 0: feed the whole stream through the
        // batched envelope path in one call.
        ArrivalProcess::AllAtOnce => {
            session
                .push_batch((0..n_items).map(&mut feed))
                .expect("batch feed pushes into an open session");
        }
        // Stream the backend-independent arrival schedule (O(1) state)
        // and pace the pushes against the wall clock with it — the
        // exact times the simulator would turn into arrival events.
        // Inputs are drawn from the feed only when their slot comes up.
        arrivals => {
            let mut arrivals = arrivals.stream();
            let epoch = session.epoch();
            for seq in 0..n_items {
                let at = arrivals
                    .next()
                    .expect("arrival stream is infinite")
                    .as_secs_f64();
                if at > 0.0 {
                    let due = epoch + Duration::from_secs_f64(at);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                }
                session
                    .push(feed(seq))
                    .expect("paced feed pushes into an open session");
            }
        }
    }
    session.drain()
}

/// A worker's thread-local view of one tenant: its stage instances,
/// parked envelopes, routing cache, and accounting (flushed into
/// `Shared::accs` when the tenant detaches).
struct TenantLocal {
    tenant: Arc<Shared>,
    /// Held stage instances, keyed by `(stage, slot)` — slot is the
    /// shard for keyed stages and `0` for everything else.
    local: HashMap<(usize, usize), Box<dyn DynStage>>,
    /// Parked envelopes per `(stage, slot)`: the instance is in transit
    /// (migration), or this vnode is down and the items await rescue.
    waiting: HashMap<(usize, usize), VecDeque<Envelope>>,
    cache: RouteCache,
    busy: Duration,
    metrics: adapipe_core::metrics::StageMetrics,
    /// Stage-fusion plan and stamp strides, refreshed lazily per
    /// routing epoch.
    fusion: FusionPlan,
}

impl TenantLocal {
    fn new(tenant: Arc<Shared>) -> Self {
        let cache = RouteCache::new(&tenant);
        let ns = tenant.spec.len();
        TenantLocal {
            tenant,
            local: HashMap::new(),
            waiting: HashMap::new(),
            cache,
            busy: Duration::ZERO,
            metrics: adapipe_core::metrics::StageMetrics::new(ns),
            fusion: FusionPlan::new(ns),
        }
    }

    /// Flushes this worker's accounting for the tenant into the shared
    /// per-worker slot (detach / worker exit).
    fn flush_acc(self, me: usize) {
        let mut acc = self.tenant.accs[me]
            .lock()
            .expect("worker accounting poisoned");
        acc.busy += self.busy;
        match &mut acc.metrics {
            Some(m) => m.absorb(&self.metrics),
            None => acc.metrics = Some(self.metrics),
        }
    }
}

/// Worker body: serve envelopes for every attached tenant, honour
/// migrations, account busy time per tenant. Blocks on the inbox
/// (stealing from siblings before sleeping); the only exit is the
/// [`Ctrl::Shutdown`] sentinel (or the pool's done flag).
fn worker_loop(me: usize, pool: Arc<Pool>) {
    let mut tenants: HashMap<u64, TenantLocal> = HashMap::new();

    loop {
        let msg = next_msg(me, &pool);
        // Pool teardown discards every backlog: the flag is raised
        // before the Shutdown sentinels, so a worker deep in queued work
        // exits here instead of serving the rest of its inbox first.
        if pool.done.load(Ordering::Relaxed) {
            break;
        }
        match msg {
            Msg::Work { tenant, env } => {
                // An aborted/fatally-failed tenant's backlog is
                // discarded, not served — its co-tenants keep running.
                if !tenant.done.load(Ordering::Relaxed) {
                    let tl = tenants
                        .entry(tenant.id)
                        .or_insert_with(|| TenantLocal::new(Arc::clone(&tenant)));
                    handle_work(me, env, tl);
                }
            }
            Msg::Ctrl(Ctrl::Relinquish { tenant, stage }) => {
                let tl = tenants
                    .entry(tenant.id)
                    .or_insert_with(|| TenantLocal::new(Arc::clone(&tenant)));
                relinquish(me, &pool, &tenant, stage, tl);
            }
            Msg::Ctrl(Ctrl::Wake) => {} // wake-up only; service below
            Msg::Ctrl(Ctrl::TenantGone { tenant }) => {
                // Detach: flush accounting, drop local state and the
                // inbox lane, then ack so teardown can read `accs`.
                if let Some(tl) = tenants.remove(&tenant.id) {
                    tl.flush_acc(me);
                }
                pool.inboxes[me].drop_lane(tenant.id);
                tenant.detached.fetch_add(1, Ordering::SeqCst);
            }
            Msg::Ctrl(Ctrl::Shutdown) => break,
        }
        // After every message, serve or re-route anything that became
        // actionable for any tenant: buffered items whose instance
        // landed in the depot, or whose stage has moved away meanwhile.
        for tl in tenants.values_mut() {
            if tl.tenant.done.load(Ordering::Relaxed) {
                // Aborted tenant: discard its parked backlog.
                tl.waiting.clear();
                continue;
            }
            serve_waiting(me, tl);
        }
    }
    // Pool shutdown with tenants still attached (cluster torn down
    // under live sessions): flush what accounting we have — their
    // teardown ack-waits escape on the pool flag.
    for (_, tl) in tenants.drain() {
        tl.flush_acc(me);
    }
}

/// Surrenders this worker's instances of `stage` for a migration — the
/// [`Ctrl::Relinquish`] a re-map commit sends to every old host. What
/// "surrender" means follows the stage's declared access pattern:
///
/// * **Stateless** — the replica is dropped; the depot keeps the
///   prototype and new hosts replicate their own.
/// * **Accumulator** — the local partial is snapshotted into the
///   stage's merge inbox for a surviving replica to absorb, then
///   dropped (the depot prototype seeds new replicas).
/// * **Keyed** — every locally-held shard instance is quiesced
///   (snapshot → fresh shell → restore, proving the state serializes)
///   and deposited in its shard's depot slot for the new owner.
/// * **Exclusive / Opaque** — the unique instance is quiesced and
///   deposited in slot 0; opaque closures cannot snapshot, so
///   [`quiesce`] passes the live box through unchanged.
///
/// Afterwards the stage's current hosts are woken: items they buffered
/// while the instance was in transit can be served now. The wake also
/// covers the case where this worker never held the instance (it sat in
/// the depot through a double migration) — the notification is
/// idempotent.
fn relinquish(me: usize, pool: &Pool, tenant: &Arc<Shared>, stage: usize, tl: &mut TenantLocal) {
    match tenant.spec.stages[stage].state {
        StateAccess::Stateless => {
            tl.local.remove(&(stage, 0));
            return; // nothing migrates; no one is blocked on a depot slot
        }
        StateAccess::Accumulator => {
            if let Some(mut inst) = tl.local.remove(&(stage, 0)) {
                if let Some(snap) = inst.snapshot() {
                    tenant.merge_inbox[stage]
                        .lock()
                        .expect("merge inbox poisoned")
                        .push(snap);
                }
            }
        }
        StateAccess::Keyed { shards } => {
            for shard in 0..shards {
                if let Some(inst) = tl.local.remove(&(stage, shard)) {
                    let (inst, _bytes) = quiesce(inst);
                    tenant.depot[stage][shard]
                        .lock()
                        .expect("depot lock poisoned")
                        .replace(inst);
                }
            }
        }
        StateAccess::Exclusive | StateAccess::Opaque => {
            if let Some(inst) = tl.local.remove(&(stage, 0)) {
                let (inst, _bytes) = quiesce(inst);
                tenant.depot[stage][0]
                    .lock()
                    .expect("depot lock poisoned")
                    .replace(inst);
            }
        }
    }
    let snap = tl.cache.current(tenant).clone();
    for &h in snap.hosts(stage) {
        if h.index() != me {
            pool.inboxes[h.index()].send_ctrl(Ctrl::Wake);
        }
    }
}

/// Blocks until a message is available for worker `me`: its own inbox
/// first, then a steal attempt across sibling inboxes, then a condvar
/// wait. The idle-flag protocol (see [`Inbox`]) guarantees a thief
/// woken by [`Inbox::wake_if_idle`] loops back to re-scan instead of
/// sleeping through the notification.
fn next_msg(me: usize, pool: &Pool) -> Msg {
    let inbox = &pool.inboxes[me];
    loop {
        if let Some(msg) = inbox.queue.lock().expect("inbox lock poisoned").pop() {
            return msg;
        }
        // Out of local work: advertise idleness, then go stealing.
        inbox.idle.store(true, Ordering::SeqCst);
        if let Some(msg) = try_steal(me, pool) {
            inbox.idle.store(false, Ordering::SeqCst);
            return msg;
        }
        let mut q = inbox.queue.lock().expect("inbox lock poisoned");
        loop {
            if let Some(msg) = q.pop() {
                inbox.idle.store(false, Ordering::SeqCst);
                return msg;
            }
            if !inbox.idle.load(Ordering::SeqCst) {
                break; // a sender cleared the flag: re-scan for steals
            }
            q = inbox.park(q);
        }
    }
}

/// Scans sibling inboxes (lane tails, bounded) for a work envelope this
/// worker may legally serve: the stage must be stateless (stateful
/// instances are pinned), currently replicated onto this worker under
/// the owning tenant's *current* routing epoch (stale envelopes belong
/// to their addressee, which re-homes them on arrival). A down worker
/// never steals; down victims keep their backlog for the replay/rescue
/// path, which does the fault accounting. Stolen envelopes are not
/// charged to the lane's virtual clock — the thief was idle, so the
/// capacity was surplus.
fn try_steal(me: usize, pool: &Pool) -> Option<Msg> {
    if pool.is_down(me) {
        return None;
    }
    let np = pool.inboxes.len();
    for off in 1..np {
        let victim = (me + off) % np;
        if pool.is_down(victim) {
            continue;
        }
        // Never wait on a victim's lock: a missed steal is cheap, a
        // stalled thief is not.
        let Ok(mut q) = pool.inboxes[victim].queue.try_lock() else {
            continue;
        };
        for lane in &mut q.lanes {
            if lane.queue.is_empty() || lane.tenant.done.load(Ordering::Relaxed) {
                continue;
            }
            // The per-tenant snapshot read happens under the victim's
            // inbox lock; safe because no path takes an inbox lock
            // while holding a routing lock (remap commits and fault
            // hooks run after the adaptation loop released it).
            let snap = lane
                .tenant
                .routing
                .read()
                .expect("routing lock poisoned")
                .snapshot();
            let lo = lane.queue.len().saturating_sub(STEAL_SCAN);
            for i in (lo..lane.queue.len()).rev() {
                let env = &lane.queue[i];
                let stage = env.stage;
                if lane.tenant.spec.stages[stage].stateless
                    && env.epoch == snap.epoch()
                    && snap.contains(stage, NodeId(me))
                    && snap.hosts(stage).len() > 1
                {
                    let env = lane.queue.remove(i).expect("index in range");
                    lane.tenant.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(Msg::Work {
                        tenant: Arc::clone(&lane.tenant),
                        env,
                    });
                }
            }
        }
    }
    None
}

/// Serves one work envelope: re-homes it if this worker no longer hosts
/// the stage (stale epoch), re-deals it if this vnode is down, buffers
/// it if the stage instance is unavailable, and processes it otherwise.
fn handle_work(me: usize, env: Envelope, tl: &mut TenantLocal) {
    let TenantLocal {
        tenant: shared,
        local,
        waiting,
        cache,
        busy,
        metrics,
        fusion,
    } = tl;
    let stage = env.stage;
    let snap = cache.current(shared).clone();
    let hosted = snap.contains(stage, NodeId(me));
    let me_down = snap.is_down(NodeId(me));
    if !hosted {
        // The sender routed by a snapshot no newer than ours (the inbox
        // hand-off orders its epoch load before ours), and `contains`
        // is immutable per snapshot — so a current-epoch envelope
        // always lands on a current host. Arriving here proves the
        // envelope is stale: re-home it at the current epoch. Off a
        // down vnode this is a rescue (the stage moved away because
        // this node died) — each item counts as a replay.
        debug_assert_ne!(
            env.epoch,
            snap.epoch(),
            "current-epoch envelope delivered to a non-host of stage {stage}"
        );
        shared
            .rehomed
            .fetch_add(env.items.len() as u64, Ordering::Relaxed);
        if me_down {
            for slot in &env.items {
                shared.note_replay(slot.seq, stage, me);
            }
        }
        ship(shared, &snap, Some(me), stage, env.items);
        return;
    }
    let shards = shared.spec.stages[stage].state.shards();
    if shards > 0 {
        // Keyed stage: split the envelope per shard and serve each
        // shard against its own instance slot. A shard this worker no
        // longer owns (the envelope predates a shard re-balance) is
        // forwarded to its current owner; a shard owned by this *down*
        // vnode parks — its keys pin here until a re-map moves the
        // shard, whose Relinquish wake-up flushes the queue.
        let mut per_shard: Vec<(usize, Vec<ItemSlot>)> = Vec::new();
        for slot in env.items {
            let shard = shard_of(shared.key_hash(stage, &slot), shards);
            push_onward(&mut per_shard, shard, slot);
        }
        for (shard, items) in per_shard {
            let owner = snap.shard_owner(stage, shard);
            if owner.index() != me {
                shared
                    .rehomed
                    .fetch_add(items.len() as u64, Ordering::Relaxed);
                if me_down {
                    for slot in &items {
                        shared.note_replay(slot.seq, stage, me);
                    }
                }
                deliver_env(shared, &snap, Some(me), stage, owner.index(), items);
            } else if me_down
                || waiting.get(&(stage, shard)).is_some_and(|q| !q.is_empty())
                || !try_acquire(shared, local, stage, shard)
            {
                waiting
                    .entry((stage, shard))
                    .or_default()
                    .push_back(Envelope {
                        stage,
                        epoch: snap.epoch(),
                        items,
                    });
            } else {
                let env = Envelope {
                    stage,
                    epoch: snap.epoch(),
                    items,
                };
                *busy += process_batch(me, env, shard, shared, cache, local, metrics, fusion);
            }
        }
    } else if me_down {
        // This vnode is down: it must not serve. Re-deal what a live
        // replica can absorb; park the rest — the forced re-map will
        // move the stage away, and the Relinquish wake-up flushes the
        // queue.
        let parked = redeal(shared, &snap, me, stage, env.items);
        if !parked.is_empty() {
            waiting.entry((stage, 0)).or_default().push_back(Envelope {
                stage,
                epoch: snap.epoch(),
                items: parked,
            });
        }
    } else if waiting.get(&(stage, 0)).is_some_and(|q| !q.is_empty())
        || !try_acquire(shared, local, stage, 0)
    {
        waiting.entry((stage, 0)).or_default().push_back(env);
    } else {
        *busy += process_batch(me, env, 0, shared, cache, local, metrics, fusion);
    }
}

/// Re-deals a down vnode's items to live replicas (counted and
/// announced as replays), returning the remainder to park — every
/// replica is down, so only a re-map can rescue those, and the rescue
/// flush happens on the Relinquish wake-up that re-map sends here.
fn redeal(
    shared: &Arc<Shared>,
    snap: &RoutingSnapshot,
    me: usize,
    stage: usize,
    items: Vec<ItemSlot>,
) -> Vec<ItemSlot> {
    let np = shared.pool.inboxes.len();
    let mut buckets: Vec<Vec<ItemSlot>> = (0..np).map(|_| Vec::new()).collect();
    let mut parked = Vec::new();
    for slot in items {
        let dest = snap.route(stage);
        if dest.index() == me || snap.is_down(dest) {
            parked.push(slot);
        } else {
            shared.note_replay(slot.seq, stage, me);
            buckets[dest.index()].push(slot);
        }
    }
    for (dest, batch) in buckets.into_iter().enumerate() {
        if !batch.is_empty() {
            dispatch(
                shared,
                snap,
                dest,
                Envelope {
                    stage,
                    epoch: snap.epoch(),
                    items: batch,
                },
            );
        }
    }
    parked
}

/// Serves every waiting queue that became actionable: processes queues
/// whose stage instance is (now) acquirable, re-homes queues whose
/// stage is no longer hosted here, and — when this vnode is down —
/// re-deals buffered items to live replicas.
fn serve_waiting(me: usize, tl: &mut TenantLocal) {
    let TenantLocal {
        tenant: shared,
        local,
        waiting,
        cache,
        busy,
        metrics,
        fusion,
    } = tl;
    if waiting.is_empty() {
        return;
    }
    let slots: Vec<(usize, usize)> = waiting
        .iter()
        .filter(|(_, q)| !q.is_empty())
        .map(|(&k, _)| k)
        .collect();
    for (stage, slot) in slots {
        let snap = cache.current(shared).clone();
        let me_down = snap.is_down(NodeId(me));
        let keyed = shared.spec.stages[stage].state.shards() > 0;
        let owned = if keyed {
            // Shard ownership, not mere stage hosting: a co-host that
            // lost this shard in a re-balance must forward its backlog.
            snap.contains(stage, NodeId(me)) && snap.shard_owner(stage, slot).index() == me
        } else {
            snap.contains(stage, NodeId(me))
        };
        if !owned {
            // The stage (or this shard) moved away while these items
            // were buffered: ship them to the current owner. Off a down
            // vnode this is the post-re-map rescue — each item counts
            // as a replay.
            if let Some(queue) = waiting.remove(&(stage, slot)) {
                for env in queue {
                    if me_down {
                        for item in &env.items {
                            shared.note_replay(item.seq, stage, me);
                        }
                    }
                    ship(shared, &snap, Some(me), stage, env.items);
                }
            }
        } else if me_down {
            if keyed {
                // Keys pin to their shard owner: nothing can be
                // re-dealt — the backlog waits for the re-map to move
                // the shard, whose Relinquish wake-up lands here again.
                continue;
            }
            // Still hosted but down: re-deal whatever a live replica
            // can absorb; the rest stays parked for the re-map. The
            // snapshot is lock-free, so a deep stranded backlog cannot
            // contend the adaptation thread's recovery re-map.
            if let Some(queue) = waiting.get_mut(&(stage, slot)) {
                let mut parked = Vec::new();
                for env in queue.drain(..) {
                    parked.extend(redeal(shared, &snap, me, stage, env.items));
                }
                if !parked.is_empty() {
                    queue.push_back(Envelope {
                        stage,
                        epoch: snap.epoch(),
                        items: parked,
                    });
                }
            }
        } else if try_acquire(shared, local, stage, slot) {
            let queue = waiting
                .get_mut(&(stage, slot))
                .expect("slot has a waiting queue");
            let envs: Vec<Envelope> = queue.drain(..).collect();
            for env in envs {
                *busy += process_batch(me, env, slot, shared, cache, local, metrics, fusion);
            }
        }
    }
}

/// Ensures `local` holds an instance of `(stage, slot)`; true on
/// success. Stateless and accumulator stages replicate from the depot
/// prototype (every host gets its own replica / partial); keyed stages
/// take their shard's unique instance, exclusive and opaque stages the
/// stage's unique instance — `false` while a migration still has it in
/// transit (the previous host has not deposited it yet).
fn try_acquire(
    shared: &Shared,
    local: &mut HashMap<(usize, usize), Box<dyn DynStage>>,
    stage: usize,
    slot: usize,
) -> bool {
    if local.contains_key(&(stage, slot)) {
        return true;
    }
    match shared.spec.stages[stage].state {
        StateAccess::Stateless | StateAccess::Accumulator => {
            let proto = shared.depot[stage][0].lock().expect("depot lock poisoned");
            if let Some(proto) = proto.as_ref() {
                if let Some(replica) = proto.replicate() {
                    local.insert((stage, slot), replica);
                    return true;
                }
            }
            false
        }
        StateAccess::Keyed { .. } | StateAccess::Exclusive | StateAccess::Opaque => {
            let mut cell = shared.depot[stage][slot]
                .lock()
                .expect("depot lock poisoned");
            match cell.take() {
                Some(inst) => {
                    local.insert((stage, slot), inst);
                    true
                }
                None => false, // still held by the previous host
            }
        }
    }
}

/// Appends `slot` to the onward batch for `stage`, creating the bucket
/// on first use (from the buffer pool). Linear pipelines keep exactly
/// one bucket, so this is a length-1 scan — no per-item allocation.
pub(crate) fn push_onward(onward: &mut Vec<(usize, Vec<ItemSlot>)>, stage: usize, slot: ItemSlot) {
    match onward.iter_mut().find(|(s, _)| *s == stage) {
        Some((_, batch)) => batch.push(slot),
        None => {
            let mut batch = take_slot_buf(0);
            batch.push(slot);
            onward.push((stage, batch));
        }
    }
}

/// A worker's per-tenant stage-fusion plan, recomputed lazily per
/// routing epoch: which stage boundaries collapse into direct calls
/// inside [`process_batch`]'s loop — no envelope, no inbox hop, no
/// re-routing.
///
/// `next[s] = Some(t)` iff `s`'s sole linear successor `t` is
/// stateless with a default resilience policy and is currently mapped
/// to exactly this worker — then every output of `s` produced here is
/// necessarily an input of `t` here, and the hand-off can be a plain
/// function call. The structural in-degree-1 requirement is implied:
/// a multi-predecessor stage is reached through a fan-in
/// ([`Next::Join`] or a slotted fan-out edge), never through
/// [`Next::Stage`]. The *entry* stage of a fused chain may be stateful
/// or resilient (a chain starts wherever the envelope landed); only
/// the fused successors must be stateless and default-policy, so
/// retry/dead-letter accounting and state migration keep their exact
/// per-envelope semantics. The moment a re-map separates a pair (or
/// replicates the successor), the epoch bump invalidates the plan and
/// the boundary reverts to an envelope — un-fusing is automatic.
///
/// `stride` rides along because it is the other per-stage hot-path
/// knob: the adaptive clock-sampling window of [`process_batch`]'s
/// fast path. It deliberately survives epoch changes — a re-map does
/// not forget how coarse a stage's timing windows can safely be. Every
/// change is published to `Shared::stride`, where the inboxes read it
/// as their merge budget: a backlog is served one window at a time.
struct FusionPlan {
    /// Routing epoch `next` was computed for (`u64::MAX` = never).
    epoch: u64,
    next: Vec<Option<usize>>,
    stride: Vec<u32>,
}

impl FusionPlan {
    fn new(ns: usize) -> Self {
        FusionPlan {
            epoch: u64::MAX,
            next: vec![None; ns],
            stride: vec![1; ns],
        }
    }

    /// Recomputes the plan against `snap` if the epoch moved since the
    /// last refresh.
    fn refresh(&mut self, me: usize, shared: &Shared, snap: &RoutingSnapshot) {
        if self.epoch == snap.epoch() {
            return;
        }
        self.epoch = snap.epoch();
        for s in 0..self.next.len() {
            self.next[s] = match shared.spec.graph.after(s) {
                Next::Stage(t)
                    if shared.spec.stages[t].state == StateAccess::Stateless
                        && shared.spec.stages[t].resilience.is_default() =>
                {
                    let hosts = snap.hosts(t);
                    (hosts.len() == 1 && hosts[0].index() == me).then_some(t)
                }
                _ => None,
            };
        }
    }
}

/// Runs item `seq`'s payload through every instance of the fused chain
/// `chain` in order, under the default (fail-fast) policy. With `samp`,
/// each hop is clock-stamped and its duration written there (the fast
/// path measures one item per window this way to split window time
/// across the chain's stages). `None` means a stage failed
/// ([`fail_stage`]): the session is already failed and torn down, and
/// the caller must abandon its batch.
fn run_chain(
    insts: &mut [Box<dyn DynStage>],
    chain: &[usize],
    shared: &Arc<Shared>,
    seq: u64,
    mut out: BoxedItem,
    samp: Option<&mut [Duration]>,
) -> Option<BoxedItem> {
    match samp {
        None => {
            for (inst, &cs) in insts.iter_mut().zip(chain) {
                match inst.try_process(out) {
                    Ok(o) => out = o,
                    Err(err) => {
                        fail_stage(shared, cs, seq, err);
                        return None;
                    }
                }
            }
        }
        Some(samp) => {
            let mut t_prev = Instant::now();
            for (ci, inst) in insts.iter_mut().enumerate() {
                match inst.try_process(out) {
                    Ok(o) => out = o,
                    Err(err) => {
                        fail_stage(shared, chain[ci], seq, err);
                        return None;
                    }
                }
                let t_now = Instant::now();
                samp[ci] = t_now.duration_since(t_prev);
                t_prev = t_now;
            }
        }
    }
    Some(out)
}

/// Runs every item of one envelope through its stage — and, when the
/// worker's [`FusionPlan`] fuses the stage with stateless successors
/// mapped solely here, straight through the whole chain in the same
/// loop, skipping the per-boundary envelope/inbox round-trip entirely.
/// Results ship onward in per-destination-stage batches (one sink
/// message per envelope that finished items). Returns occupied (busy)
/// time.
///
/// Two bookkeeping regimes:
///
/// * **Fast path** (entry stage has the default resilience policy and
///   the vnode can never throttle): the clock is read once per
///   *window* of [`FusionPlan`] stride items instead of per item, sink
///   stamps are fixed up at the window boundary, and service metrics
///   absorb each window as one exact-count batch
///   (`StageMetrics::record_batch`) — steady-state bookkeeping is
///   O(windows), not O(items). The stride adapts between 1 and
///   [`MAX_STAMP_STRIDE`] to keep windows in the
///   hundreds-of-microseconds band: cheap stages stop paying a clock
///   read per item, slow stages keep honest latency stamps. Fused
///   chains stamp one item per window hop-by-hop and split the
///   window's busy time across the chain's stages in those proportions
///   (counts and totals stay exact; the adaptation loop plans from
///   declared rates, so the report is the only consumer).
/// * **Slow path** (resilient entry stage, or a vnode with throttle
///   windows): exact per-item, per-hop accounting —
///   retry/backoff/dead-letter via [`process_resilient`], synthetic
///   slowdown sleeps and individual service samples on every hop.
#[allow(clippy::too_many_arguments)]
fn process_batch(
    me: usize,
    env: Envelope,
    slot: usize,
    shared: &Arc<Shared>,
    cache: &mut RouteCache,
    local: &mut HashMap<(usize, usize), Box<dyn DynStage>>,
    metrics: &mut adapipe_core::metrics::StageMetrics,
    fusion: &mut FusionPlan,
) -> Duration {
    let stage = env.stage;
    let snap = cache.current(shared).clone();
    fusion.refresh(me, shared, &snap);
    // The fused chain: the envelope's stage plus every successor the
    // plan fuses whose instance is acquirable right now. An instance
    // still in migration transit truncates the chain — those items
    // travel by envelope and buffer at the receiver, exactly as
    // unfused traffic would.
    let mut chain: Vec<usize> = vec![stage];
    {
        let mut s = stage;
        while let Some(t) = fusion.next[s] {
            if !try_acquire(shared, local, t, 0) {
                break;
            }
            chain.push(t);
            s = t;
        }
    }
    let after = shared.spec.graph.after(chain[chain.len() - 1]);
    let works: Vec<f64> = chain
        .iter()
        .map(|&s| shared.spec.stages[s].work.mean())
        .collect();
    // Each hop needs its own `&mut` inside the item loop: take the
    // chain's instances out of the map and reinsert them at the end.
    let mut insts: Vec<Box<dyn DynStage>> = chain
        .iter()
        .enumerate()
        .map(|(ci, &s)| {
            let key = (s, if ci == 0 { slot } else { 0 });
            local
                .remove(&key)
                .expect("instance acquired before process")
        })
        .collect();
    if shared.spec.stages[stage].state == StateAccess::Accumulator {
        // Absorb partials parked by replicas that vacated their hosts —
        // state migrated in via the stage's merge operator, before any
        // new item folds in.
        let pending: Vec<StateSnapshot> = shared.merge_inbox[stage]
            .lock()
            .expect("merge inbox poisoned")
            .drain(..)
            .collect();
        for snap in pending {
            insts[0].absorb(snap);
        }
    }
    let never_throttles = shared.pool.vnodes[me].never_throttles();
    let fast = never_throttles && shared.spec.stages[stage].resilience.is_default();
    let nseg = chain.len();
    let mut outbox = Outbox {
        finished: take_fin_buf(),
        onward: Vec::new(),
    };
    let mut busy = Duration::ZERO;
    let mut fused_hops: u64 = 0;
    let mut fatal = false;
    let mut items = env.items;
    let n = items.len();
    let mut it = items.drain(..);
    if fast {
        // Per-hop durations of the window's sampled item (fused chains
        // only; a chain of one skips per-hop stamping altogether).
        let mut samp = vec![Duration::ZERO; nseg];
        let mut idx = 0usize;
        let mut t_win = Instant::now();
        'windows: while idx < n {
            // An abort mid-batch (of this tenant or the whole pool)
            // drops the remainder — same contract as the discarded
            // inbox backlog (the report shows truncation). Checked per
            // window on this path.
            if shared.finished() {
                break;
            }
            let win = (fusion.stride[stage] as usize).min(n - idx);
            let win_fin_start = outbox.finished.len();
            let mut live: u64 = 0;
            let mut sampled = nseg == 1;
            for _ in 0..win {
                let slot = it.next().expect("window within batch");
                idx += 1;
                // A sibling branch may have dead-lettered this item
                // while this copy sat queued; its work is moot.
                if shared.is_dead(slot.seq) {
                    continue;
                }
                let out = if sampled {
                    run_chain(&mut insts, &chain, shared, slot.seq, slot.payload, None)
                } else {
                    sampled = true;
                    run_chain(
                        &mut insts,
                        &chain,
                        shared,
                        slot.seq,
                        slot.payload,
                        Some(&mut samp),
                    )
                };
                let Some(out) = out else {
                    fatal = true;
                    break 'windows;
                };
                live += 1;
                if outbox
                    .send(shared, &after, slot.seq, slot.born, t_win, out)
                    .is_err()
                {
                    fatal = true;
                    break 'windows;
                }
            }
            let t_end = Instant::now();
            let w = t_end.duration_since(t_win);
            busy += w;
            // Completed items take the window boundary as their sink
            // stamp: stamps stay non-decreasing, and the per-item
            // error is bounded by one window, which the stride
            // adaptation keeps short.
            for f in &mut outbox.finished[win_fin_start..] {
                f.done = t_end;
            }
            if live > 0 {
                let wsecs = w.as_secs_f64();
                if nseg == 1 {
                    metrics.record_batch(
                        stage,
                        SimDuration::from_secs_f64(wsecs),
                        live,
                        works[0] * live as f64,
                    );
                } else {
                    let total: f64 = samp.iter().map(Duration::as_secs_f64).sum();
                    for (ci, &cs) in chain.iter().enumerate() {
                        let frac = if total > 0.0 {
                            samp[ci].as_secs_f64() / total
                        } else {
                            1.0 / nseg as f64
                        };
                        metrics.record_batch(
                            cs,
                            SimDuration::from_secs_f64(wsecs * frac),
                            live,
                            works[ci] * live as f64,
                        );
                    }
                    fused_hops += (nseg as u64 - 1) * live;
                }
            }
            // Only full windows adapt the stride: a clipped tail
            // window is fast because it is short, not because the
            // stage is.
            if win == fusion.stride[stage] as usize {
                let stride = &mut fusion.stride[stage];
                if w < STRIDE_GROW_BELOW && *stride < MAX_STAMP_STRIDE {
                    *stride *= 2;
                    shared.stride[stage].store(*stride, Ordering::Relaxed);
                } else if w > STRIDE_SHRINK_ABOVE && *stride > 1 {
                    *stride /= 2;
                    shared.stride[stage].store(*stride, Ordering::Relaxed);
                }
            }
            t_win = t_end;
        }
        if fatal {
            busy += t_win.elapsed();
        }
    } else {
        let mut t_start = Instant::now();
        'items: for slot in it.by_ref() {
            if shared.finished() {
                break;
            }
            if shared.is_dead(slot.seq) {
                continue;
            }
            let mut out = slot.payload;
            let mut done = t_start;
            for (ci, inst) in insts.iter_mut().enumerate() {
                let cs = chain[ci];
                // Every hop goes through its stage's policy; under the
                // default one (every fused successor's) that is a
                // single attempt which succeeds or ends the run.
                match process_resilient(inst.as_mut(), shared, cs, slot.seq, out) {
                    ResilientOut::Done(o) => out = o,
                    ResilientOut::Dead => {
                        // Diverted to the dead-letter channel: the
                        // item is settled, nothing ships onward.
                        // The attempt time still counts as busy.
                        let t_end = Instant::now();
                        busy += t_end.duration_since(t_start);
                        t_start = t_end;
                        continue 'items;
                    }
                    ResilientOut::Fatal => {
                        busy += t_start.elapsed();
                        fatal = true;
                        break 'items;
                    }
                }
                let t_end = Instant::now();
                let compute = t_end.duration_since(t_start);
                t_start = t_end;
                done = t_end;
                let took = if never_throttles {
                    compute
                } else {
                    let started_at = SimTime::from_secs_f64(
                        t_end.duration_since(shared.pool.epoch).as_secs_f64(),
                    );
                    let sleep = shared.pool.vnodes[me].slowdown_sleep(compute, started_at);
                    if !sleep.is_zero() {
                        std::thread::sleep(sleep);
                        // The sleep must not be attributed to the next
                        // hop's compute window.
                        t_start = Instant::now();
                    }
                    compute + sleep
                };
                busy += took;
                metrics.record(
                    cs,
                    SimDuration::from_secs_f64(took.as_secs_f64()),
                    works[ci],
                );
            }
            if nseg > 1 {
                fused_hops += nseg as u64 - 1;
            }
            if outbox
                .send(shared, &after, slot.seq, slot.born, done, out)
                .is_err()
            {
                fatal = true;
                break;
            }
        }
    }
    // Dropping the drain clears any unprocessed remainder (abort /
    // fatal), so the buffer recycles empty with its payloads released.
    drop(it);
    put_slot_buf(items);
    for (ci, inst) in insts.into_iter().enumerate() {
        let key = (chain[ci], if ci == 0 { slot } else { 0 });
        local.insert(key, inst);
    }
    if fused_hops > 0 {
        shared.fused.fetch_add(fused_hops, Ordering::Relaxed);
    }
    let Outbox { finished, onward } = outbox;
    if fatal || finished.is_empty() {
        // Fatal: nothing ships — the collector already received
        // `Fatal` and the report shows truncation.
        put_fin_buf(finished);
    } else {
        let _ = shared.sink.send(SinkMsg::Done(finished));
    }
    if fatal {
        for (_, batch) in onward {
            put_slot_buf(batch);
        }
    } else {
        for (next, batch) in onward {
            ship(shared, &snap, Some(me), next, batch);
        }
    }
    busy
}

/// The monitoring/adaptation thread: wakes `samples_per_interval` times
/// per adaptation interval to feed the shared loop an observation, and
/// once per interval lets it tick (plan/decide/re-map). Fault
/// transitions get their own wake-ups at their exact scheduled wall
/// offsets — even under `Policy::Static`, where no sampling runs but
/// nodes must still go down (and fatal losses must still surface).
fn adaptation_thread(shared: Arc<Shared>, mut aloop: AdaptationLoop) -> AdaptationOutcome {
    let sample_wall = aloop
        .sample_dt()
        .map(|dt| Duration::from_secs_f64(dt.as_secs_f64()));
    let divisions = aloop.samples_per_interval();
    let mut backend = EngineBackend {
        shared: Arc::clone(&shared),
    };

    let mut next_sample = sample_wall.map(|w| Instant::now() + w);
    let mut rounds: u32 = 0;
    'run: loop {
        let next_fault = aloop
            .next_fault_at()
            .map(|at| shared.pool.epoch + Duration::from_secs_f64(at.as_secs_f64()));
        let next_wake = match (next_sample, next_fault) {
            (Some(s), Some(f)) => s.min(f),
            (Some(s), None) => s,
            (None, Some(f)) => f,
            // Static policy and no further faults: nothing to do, ever.
            (None, None) => break 'run,
        };
        // Sleep in short slices so shutdown is prompt.
        while Instant::now() < next_wake {
            if shared.finished() {
                break 'run;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        if shared.finished() {
            break 'run;
        }

        if next_fault.is_some_and(|f| f <= Instant::now()) {
            let outcome = aloop.poll_faults(&mut backend, &shared.routing);
            if outcome.fatal {
                fatal_teardown(&shared);
                break 'run;
            }
        }
        if let Some(due) = next_sample {
            if due <= Instant::now() {
                next_sample = Some(due + sample_wall.expect("sample schedule implies width"));
                aloop.sample(&backend);
                rounds += 1;
                if rounds.is_multiple_of(divisions) {
                    // Planning happens once per interval; sensing every
                    // round. The tick also settles due fault transitions;
                    // an unrecoverable one latches the loop's fatal flag.
                    let _ = aloop.tick(&mut backend, &shared.routing);
                    if aloop.is_fatal() {
                        fatal_teardown(&shared);
                        break 'run;
                    }
                }
            }
        }
    }
    let (migrations, state_bytes_moved) = aloop.migration_totals();
    let (adaptations, planning_cycles) = aloop.finish();
    (adaptations, planning_cycles, migrations, state_bytes_moved)
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::vnode::spin_for;
    use adapipe_core::pipeline::PipelineBuilder;
    use adapipe_core::spec::StageSpec;
    use adapipe_gridsim::load::LoadModel;
    use adapipe_gridsim::node::NodeId;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    /// A stage spinning for `ms` milliseconds per item.
    fn spin_stage(name: &str, ms: u64) -> (StageSpec, impl FnMut(u64) -> u64 + Send + Clone) {
        (
            StageSpec::balanced(name, ms as f64 / 1000.0, 8),
            move |x: u64| {
                spin_for(Duration::from_millis(ms));
                x + 1
            },
        )
    }

    fn free_nodes(k: usize) -> Vec<VNodeSpec> {
        (0..k).map(|i| VNodeSpec::free(format!("v{i}"))).collect()
    }

    /// Wall-clock speedup assertions need real hardware parallelism; on
    /// an undersized host only correctness is asserted.
    fn multicore(k: usize) -> bool {
        std::thread::available_parallelism()
            .map(|p| p.get() >= k)
            .unwrap_or(false)
    }

    #[test]
    fn outputs_are_complete_and_ordered() {
        let (s0, f0) = spin_stage("a", 1);
        let (s1, f1) = spin_stage("b", 1);
        let pipeline = PipelineBuilder::<u64>::new()
            .stage(s0, f0)
            .stage(s1, f1)
            .build();
        let cfg = EngineConfig::new(free_nodes(2));
        let inputs: Vec<u64> = (0..50).collect();
        let outcome = execute(pipeline, inputs, &cfg);
        assert_eq!(outcome.report.completed, 50);
        assert!(!outcome.report.truncated);
        // Each item passed both stages exactly once: x + 2, in order.
        let expect: Vec<u64> = (0..50).map(|x| x + 2).collect();
        assert_eq!(outcome.outputs, expect);
    }

    #[test]
    fn session_streams_outputs_while_pushing() {
        let (s0, f0) = spin_stage("a", 1);
        let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
        let cfg = EngineConfig::new(free_nodes(2));
        let mut session = spawn(pipeline, &cfg, 20);
        let mut got = Vec::new();
        for i in 0..20u64 {
            session.push(i).unwrap();
            // Interleave pulls with pushes — the pipeline is live.
            if let TryNext::Item(o) = session.try_next() {
                got.push(o);
            }
        }
        assert!(session.in_flight() <= 20);
        let outcome = session.drain();
        got.extend(outcome.outputs);
        assert_eq!(got, (1..=20).collect::<Vec<_>>());
        assert_eq!(outcome.report.completed, 20);
        assert!(!outcome.report.truncated);
    }

    #[test]
    fn session_next_blocks_until_each_output() {
        let (s0, f0) = spin_stage("a", 1);
        let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
        let cfg = EngineConfig::new(free_nodes(1));
        let mut session = spawn(pipeline, &cfg, 5);
        for i in 0..5u64 {
            session.push(i).unwrap();
        }
        session.close();
        let mut got = Vec::new();
        for o in session.by_ref() {
            got.push(o);
        }
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
        let outcome = session.drain();
        assert!(outcome.outputs.is_empty(), "everything already pulled");
        assert_eq!(outcome.report.completed, 5);
    }

    #[test]
    fn bounded_session_blocks_push_under_stall() {
        // capacity 1 over a 1-stage pipeline ⇒ 2 in-flight slots. The
        // stage takes ≥ 20 ms per item, so pushing 8 items must block
        // the source for roughly (8 − 2) × 20 ms.
        let (s0, f0) = spin_stage("slow", 20);
        let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
        let mut cfg = EngineConfig::new(free_nodes(1));
        cfg.queue_capacity = Some(1);
        let events = cfg.hooks.events.subscribe();
        let mut session = spawn(pipeline, &cfg, 8);
        let t0 = Instant::now();
        for i in 0..8u64 {
            session.push(i).unwrap();
        }
        let pushing = t0.elapsed();
        assert!(
            pushing >= Duration::from_millis(80),
            "8 pushes through 2 slots of a 20 ms stage took only {pushing:?}"
        );
        let outcome = session.drain();
        assert_eq!(outcome.report.completed, 8);
        assert_eq!(outcome.outputs, (1..=8).collect::<Vec<_>>());
        let stalls = events
            .try_iter()
            .filter(|e| matches!(e, RunEvent::BackpressureStall { .. }))
            .count();
        assert!(stalls >= 4, "expected repeated stalls, saw {stalls}");
    }

    #[test]
    fn abort_discards_backlog_instead_of_draining_it() {
        // 200 queued items of a 5 ms stage ≈ 1 s of backlog; abort must
        // return after at most the item in flight, not chew through it.
        let (s0, f0) = spin_stage("slow", 5);
        let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
        let cfg = EngineConfig::new(free_nodes(1));
        let mut session = spawn(pipeline, &cfg, 200);
        for i in 0..200u64 {
            session.push(i).unwrap();
        }
        let t0 = Instant::now();
        let report = session.abort();
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(400),
            "abort must not drain the ~1 s backlog, took {took:?}"
        );
        assert!(report.truncated);
    }

    #[test]
    fn dropping_a_session_reclaims_its_threads() {
        // A session abandoned without drain()/abort() (error path) must
        // shut its workers, collector, and adaptation thread down via
        // Drop — promptly, even with a deep backlog queued.
        let (s0, f0) = spin_stage("slow", 5);
        let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
        let mut cfg = EngineConfig::new(free_nodes(2));
        cfg.policy = Policy::Periodic {
            interval: SimDuration::from_millis(100),
        };
        let mut session = spawn(pipeline, &cfg, 100);
        for i in 0..100u64 {
            session.push(i).unwrap();
        }
        let t0 = Instant::now();
        drop(session);
        assert!(
            t0.elapsed() < Duration::from_millis(400),
            "drop must join all threads without draining the backlog"
        );
    }

    #[test]
    fn abort_reports_truncation() {
        let (s0, f0) = spin_stage("slow", 20);
        let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
        let cfg = EngineConfig::new(free_nodes(1));
        let mut session = spawn(pipeline, &cfg, 50);
        for i in 0..50u64 {
            session.push(i).unwrap();
        }
        let report = session.abort();
        assert!(
            report.truncated || report.completed == 50,
            "an aborted run either lost items (truncated) or got lucky"
        );
    }

    #[test]
    fn pipeline_parallelism_beats_sequential_time() {
        // 3 stages × 8 ms on 3 nodes: sequential would be n×24 ms; a
        // pipeline approaches n×8 ms.
        let (s0, f0) = spin_stage("a", 8);
        let (s1, f1) = spin_stage("b", 8);
        let (s2, f2) = spin_stage("c", 8);
        let pipeline = PipelineBuilder::<u64>::new()
            .stage(s0, f0)
            .stage(s1, f1)
            .stage(s2, f2)
            .build();
        let mut cfg = EngineConfig::new(free_nodes(3));
        cfg.initial_mapping = Some(Mapping::from_assignment(&[n(0), n(1), n(2)]));
        let items = 40u64;
        let outcome = execute(pipeline, (0..items).collect(), &cfg);
        assert_eq!(outcome.report.completed, items);
        if multicore(4) {
            let makespan = outcome.report.makespan.as_secs_f64();
            let sequential = items as f64 * 0.024;
            assert!(
                makespan < sequential * 0.75,
                "makespan {makespan:.3}s should be well under sequential {sequential:.3}s"
            );
        }
    }

    #[test]
    fn slow_vnode_slows_its_stage() {
        let (s0, f0) = spin_stage("a", 5);
        let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
        // Same stage on a full-speed vs a quarter-speed node.
        let mut fast_cfg = EngineConfig::new(vec![VNodeSpec::free("fast")]);
        fast_cfg.initial_mapping = Some(Mapping::all_on(n(0), 1));
        let mut slow_cfg = EngineConfig::new(vec![VNodeSpec::with_speed("slow", 0.25)]);
        slow_cfg.initial_mapping = Some(Mapping::all_on(n(0), 1));
        let fast = execute(
            PipelineBuilder::<u64>::new()
                .stage(spin_stage("a", 5).0, spin_stage("a", 5).1)
                .build(),
            (0..20).collect(),
            &fast_cfg,
        );
        let slow = execute(pipeline, (0..20).collect(), &slow_cfg);
        let ratio = slow.report.makespan.as_secs_f64() / fast.report.makespan.as_secs_f64();
        assert!(
            ratio > 2.0,
            "quarter-speed node should be ≳4× slower, measured ratio {ratio:.2}"
        );
    }

    #[test]
    fn stateful_stage_migrates_with_state_intact() {
        // A stateful running-sum stage must produce exactly-once,
        // order-insensitive totals even across a migration.
        let sum_spec = StageSpec::balanced("sum", 0.003, 8).with_state(8);
        let pipeline = PipelineBuilder::<u64>::new()
            .stateful_stage(sum_spec, {
                let mut acc = 0u64;
                move |x: u64| {
                    spin_for(Duration::from_millis(3));
                    acc += x;
                    acc
                }
            })
            .build();
        // The host collapses to 5 % almost immediately, so hundreds of
        // items remain when the controller first looks — migration is
        // unambiguously worthwhile.
        let vnodes = vec![
            VNodeSpec::free("v0").with_load(LoadModel::step(
                1.0,
                0.05,
                SimTime::from_secs_f64(0.1),
            )),
            VNodeSpec::free("v1"),
        ];
        let mut cfg = EngineConfig::new(vnodes);
        cfg.initial_mapping = Some(Mapping::all_on(n(0), 1));
        cfg.policy = Policy::Periodic {
            interval: SimDuration::from_millis(150),
        };
        let items: Vec<u64> = (1..=300).collect();
        let outcome = execute(pipeline, items, &cfg);
        assert_eq!(outcome.report.completed, 300);
        // The final (largest) accumulator value must be the total sum:
        // every item added exactly once.
        let max = outcome.outputs.iter().max().copied().unwrap();
        assert_eq!(max, 45150, "state lost or duplicated across migration");
        assert!(outcome.report.adaptation_count() >= 1);
    }

    #[test]
    fn vnode_crash_mid_run_loses_nothing() {
        // Stage "slow" starts pinned to v1; v1 crashes at 150 ms with a
        // deep backlog queued. The fault wake-up must mark it down,
        // force a re-map onto a live vnode, and replay the stranded
        // envelopes — every output delivered exactly once, in order.
        let (s0, f0) = spin_stage("slow", 4);
        let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
        let mut cfg = EngineConfig::new(free_nodes(2));
        cfg.initial_mapping = Some(Mapping::all_on(n(1), 1));
        cfg.policy = Policy::Periodic {
            interval: SimDuration::from_millis(100),
        };
        cfg.faults = FaultPlan::new().crash(n(1), SimTime::from_secs_f64(0.15));
        let events = cfg.hooks.events.subscribe();
        let mut session = spawn(pipeline, &cfg, 100);
        for i in 0..100u64 {
            session.push(i).unwrap();
        }
        let outcome = session.drain();
        assert_eq!(outcome.report.completed, 100, "items lost to the crash");
        assert!(!outcome.report.truncated);
        assert_eq!(outcome.outputs, (1..=100).collect::<Vec<_>>());
        assert!(outcome.report.replays > 0, "backlog must replay");
        assert!(!outcome.report.final_mapping.nodes_used().contains(&n(1)));
        assert!(outcome.report.node_downtime[1] > SimDuration::ZERO);
        let seen: Vec<_> = events.try_iter().collect();
        assert!(seen
            .iter()
            .any(|e| matches!(e, RunEvent::NodeDown { node: 1, .. })));
        assert!(seen
            .iter()
            .any(|e| matches!(e, RunEvent::ItemReplayed { .. })));
    }

    #[test]
    fn branched_pipeline_joins_every_item_exactly_once() {
        use adapipe_core::spec::{PipelineSpec, StageGraph};
        use adapipe_core::stage::{fan_out_fn, FnStage, MergeStage};
        // (x+1 ‖ x*2) → sum, assembled from erased graph parts.
        let spec = PipelineSpec::with_graph(
            vec![
                StageSpec::balanced("a", 0.001, 8),
                StageSpec::balanced("b", 0.001, 8),
                StageSpec::balanced("join", 0.001, 8),
            ],
            StageGraph::builder().split(&[1, 1]).build(),
        );
        let stages: Vec<Box<dyn DynStage>> = vec![
            Box::new(FnStage::new("a", |x: u64| x + 1)),
            Box::new(FnStage::new("b", |x: u64| x * 2)),
            Box::new(MergeStage::new("join", |parts: Vec<u64>| {
                parts[0] * 1000 + parts[1]
            })),
        ];
        let pipeline: Pipeline<u64, u64> =
            Pipeline::from_parts(spec, stages, vec![fan_out_fn::<u64>(2)], vec![None; 3]);
        let cfg = EngineConfig::new(free_nodes(3));
        let outcome = execute(pipeline, (0..100).collect(), &cfg);
        assert_eq!(outcome.report.completed, 100);
        assert!(!outcome.report.truncated);
        // Branch order is part of the merge contract: parts[0] is always
        // branch a, parts[1] always branch b.
        let expect: Vec<u64> = (0..100).map(|x| (x + 1) * 1000 + x * 2).collect();
        assert_eq!(outcome.outputs, expect);
    }

    #[test]
    fn wrong_typed_item_fails_session_with_typed_error() {
        // Assemble a deliberately mis-typed pipeline from erased parts:
        // the stage declares u64 but the session pushes strings. The
        // run must fail with StageTypeMismatch on the session — not
        // panic a worker thread and hang the drain.
        use adapipe_core::spec::StageSpec;
        use adapipe_core::stage::FnStage;
        let spec =
            adapipe_core::spec::PipelineSpec::new(vec![StageSpec::balanced("typed", 0.001, 8)]);
        let stages: Vec<Box<dyn DynStage>> = vec![Box::new(FnStage::new("typed", |x: u64| x + 1))];
        let pipeline: Pipeline<String, u64> =
            Pipeline::from_parts(spec, stages, Vec::new(), vec![None]);
        let cfg = EngineConfig::new(free_nodes(1));
        let mut session = spawn(pipeline, &cfg, 4);
        for i in 0..4 {
            session.push(format!("item {i}")).unwrap();
        }
        // The failure is asynchronous; drain unwinds cleanly.
        let outcome = session.drain();
        assert!(outcome.report.truncated);
        assert!(outcome.report.completed < 4);
    }

    #[test]
    fn wrong_typed_item_error_is_readable_before_drain() {
        use adapipe_core::spec::StageSpec;
        use adapipe_core::stage::FnStage;
        let spec =
            adapipe_core::spec::PipelineSpec::new(vec![StageSpec::balanced("typed", 0.001, 8)]);
        let stages: Vec<Box<dyn DynStage>> = vec![Box::new(FnStage::new("typed", |x: u64| x + 1))];
        let pipeline: Pipeline<String, u64> =
            Pipeline::from_parts(spec, stages, Vec::new(), vec![None]);
        let cfg = EngineConfig::new(free_nodes(1));
        let mut session = spawn(pipeline, &cfg, 1);
        session.push("oops".to_string()).unwrap();
        let t0 = Instant::now();
        while session.error().is_none() && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            session.error(),
            Some(RunError::StageTypeMismatch {
                stage: "typed".into()
            })
        );
        let _ = session.drain(); // unwinds, no hang
    }

    #[test]
    fn link_emulation_slows_cross_node_boundaries() {
        let mk_pipeline = || {
            let (s0, f0) = spin_stage("a", 1);
            let (s1, f1) = spin_stage("b", 1);
            let mut p = PipelineBuilder::<u64>::new().stage(s0, f0).stage(s1, f1);
            p = p.input_bytes(0);
            p.build()
        };
        let slow_link = Topology::uniform(2, LinkSpec::new(SimDuration::from_millis(10), 1e9));
        let mk_cfg = |emulate: bool| {
            let mut cfg = EngineConfig::new(free_nodes(2));
            cfg.initial_mapping = Some(Mapping::from_assignment(&[n(0), n(1)]));
            cfg.topology = Some(slow_link.clone());
            cfg.emulate_links = emulate;
            cfg
        };
        let items = 30u64;
        let without = execute(mk_pipeline(), (0..items).collect(), &mk_cfg(false));
        let with = execute(mk_pipeline(), (0..items).collect(), &mk_cfg(true));
        assert_eq!(with.report.completed, items);
        // Each boundary crossing pays ≥ 10 ms of sender serialisation:
        // the emulated run must be visibly slower.
        assert!(
            with.report.makespan.as_secs_f64() > without.report.makespan.as_secs_f64() + 0.1,
            "emulated {} vs plain {}",
            with.report.makespan,
            without.report.makespan
        );
        let expect: Vec<u64> = (0..items).map(|x| x + 2).collect();
        assert_eq!(with.outputs, expect);
    }

    #[test]
    fn empty_input_returns_immediately() {
        let (s0, f0) = spin_stage("a", 1);
        let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
        let cfg = EngineConfig::new(free_nodes(1));
        let outcome = execute(pipeline, vec![], &cfg);
        assert_eq!(outcome.report.completed, 0);
        assert!(outcome.outputs.is_empty());
    }

    #[test]
    fn pacing_limits_throughput() {
        let (s0, f0) = spin_stage("a", 1);
        let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
        let mut cfg = EngineConfig::new(free_nodes(1));
        cfg.arrivals = ArrivalProcess::Uniform { rate: 100.0 }; // 10 ms between items
        let outcome = execute(pipeline, (0..30).collect(), &cfg);
        // 30 items at 100/s ≥ 0.29 s regardless of stage speed.
        assert!(outcome.report.makespan.as_secs_f64() > 0.25);
        assert_eq!(outcome.report.completed, 30);
    }

    #[test]
    fn replicated_hot_stage_uses_multiple_nodes() {
        // One 10 ms stage, 3 nodes: the planner should replicate it, and
        // the engine must produce exactly-once outputs anyway.
        let (s0, f0) = spin_stage("hot", 10);
        let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
        let cfg = EngineConfig::new(free_nodes(3));
        let outcome = execute(pipeline, (0..60).collect(), &cfg);
        assert_eq!(outcome.report.completed, 60);
        let expect: Vec<u64> = (0..60).map(|x| x + 1).collect();
        assert_eq!(outcome.outputs, expect);
        // With ≥2 replicas the makespan beats the single-node 600 ms —
        // only observable with real hardware parallelism.
        if multicore(4) && outcome.report.final_mapping.placement(0).width() > 1 {
            assert!(outcome.report.makespan.as_secs_f64() < 0.55);
        }
    }

    #[test]
    fn batched_envelopes_preserve_order_and_exactly_once() {
        // batch_size 16 over a 2-stage pipeline: outputs must be the
        // same complete ordered stream the per-item wire produces.
        let (s0, f0) = spin_stage("a", 1);
        let (s1, f1) = spin_stage("b", 1);
        let pipeline = PipelineBuilder::<u64>::new()
            .stage(s0, f0)
            .stage(s1, f1)
            .build();
        let mut cfg = EngineConfig::new(free_nodes(2));
        cfg.batch_size = 16;
        let outcome = execute(pipeline, (0..100).collect(), &cfg);
        assert_eq!(outcome.report.completed, 100);
        assert!(!outcome.report.truncated);
        let expect: Vec<u64> = (0..100).map(|x| x + 2).collect();
        assert_eq!(outcome.outputs, expect);
    }

    #[test]
    fn batched_branched_pipeline_joins_exactly_once() {
        use adapipe_core::spec::{PipelineSpec, StageGraph};
        use adapipe_core::stage::{fan_out_fn, FnStage, MergeStage};
        // Fan-out/join with batch_size 8: per-item fan-out and join
        // accounting inside batches must not lose or duplicate parts.
        let spec = PipelineSpec::with_graph(
            vec![
                StageSpec::balanced("a", 0.001, 8),
                StageSpec::balanced("b", 0.001, 8),
                StageSpec::balanced("join", 0.001, 8),
            ],
            StageGraph::builder().split(&[1, 1]).build(),
        );
        let stages: Vec<Box<dyn DynStage>> = vec![
            Box::new(FnStage::new("a", |x: u64| x + 1)),
            Box::new(FnStage::new("b", |x: u64| x * 2)),
            Box::new(MergeStage::new("join", |parts: Vec<u64>| {
                parts[0] * 1000 + parts[1]
            })),
        ];
        let pipeline: Pipeline<u64, u64> =
            Pipeline::from_parts(spec, stages, vec![fan_out_fn::<u64>(2)], vec![None; 3]);
        let mut cfg = EngineConfig::new(free_nodes(3));
        cfg.batch_size = 8;
        let outcome = execute(pipeline, (0..100).collect(), &cfg);
        assert_eq!(outcome.report.completed, 100);
        let expect: Vec<u64> = (0..100).map(|x| (x + 1) * 1000 + x * 2).collect();
        assert_eq!(outcome.outputs, expect);
    }

    #[test]
    fn push_batch_respects_bounded_credits() {
        // batch_size 8 against a 2-slot in-flight window: push_batch
        // must flush buffered input before blocking on the credit gate
        // (buffered items hold credits only completions can return) —
        // anything else deadlocks here.
        let (s0, f0) = spin_stage("slow", 2);
        let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
        let mut cfg = EngineConfig::new(free_nodes(1));
        cfg.queue_capacity = Some(1);
        cfg.batch_size = 8;
        let mut session = spawn(pipeline, &cfg, 50);
        let pushed = session.push_batch(0..50u64).unwrap();
        assert_eq!(pushed, 50);
        let outcome = session.drain();
        assert_eq!(outcome.report.completed, 50);
        assert_eq!(outcome.outputs, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn pending_input_flushes_on_output_interaction() {
        // 3 items buffered under a batch_size far larger than the
        // stream: next() must flush them or it would wait forever.
        let (s0, f0) = spin_stage("a", 1);
        let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
        let mut cfg = EngineConfig::new(free_nodes(1));
        cfg.batch_size = 64;
        let mut session = spawn(pipeline, &cfg, 3);
        for i in 0..3u64 {
            session.push(i).unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(session.next().expect("pending input must flush"));
        }
        assert_eq!(got, vec![1, 2, 3]);
        session.close();
        let outcome = session.drain();
        assert_eq!(outcome.report.completed, 3);
    }

    #[test]
    fn idle_replica_steals_from_a_loaded_sibling() {
        use adapipe_mapper::mapping::Placement;
        // One stateless stage replicated on a quarter-speed and a free
        // vnode. Round-robin deals half the stream to each; the fast
        // replica drains its share early and must steal from the slow
        // one's backlog instead of idling. Exactly-once and ordering
        // must survive the steals.
        let (s0, f0) = spin_stage("hot", 2);
        let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
        let mut cfg = EngineConfig::new(vec![
            VNodeSpec::with_speed("slow", 0.25),
            VNodeSpec::free("fast"),
        ]);
        cfg.initial_mapping = Some(Mapping::new(vec![Placement::replicated(vec![n(0), n(1)])]));
        let mut session = spawn(pipeline, &cfg, 40);
        for i in 0..40u64 {
            session.push(i).unwrap();
        }
        session.close();
        let mut got = Vec::new();
        for o in session.by_ref() {
            got.push(o);
        }
        assert_eq!(got, (1..=40).collect::<Vec<_>>());
        assert!(
            session.steals() > 0,
            "fast replica should have stolen from the slow one's backlog"
        );
        let outcome = session.drain();
        assert_eq!(outcome.report.completed, 40);
        assert!(!outcome.report.truncated);
    }

    #[test]
    fn fused_colocated_chain_is_item_identical_to_spread() {
        use adapipe_runtime::session::ResiliencePolicy;
        // Three cheap stateless stages. Coalesced on one vnode the
        // fusion plan collapses both boundaries into direct calls
        // (counted per hop); spread over three vnodes nothing may
        // fuse. Outputs must be bit-identical either way.
        let build = || {
            PipelineBuilder::<u64>::new()
                .stage(StageSpec::balanced("a", 0.001, 8), |x: u64| x + 1)
                .stage(StageSpec::balanced("b", 0.001, 8), |x: u64| x * 3)
                .stage(StageSpec::balanced("c", 0.001, 8), |x: u64| x - 2)
                .build()
        };
        let expect: Vec<u64> = (0..500u64).map(|x| (x + 1) * 3 - 2).collect();

        let mut co_cfg = EngineConfig::new(free_nodes(1));
        co_cfg.initial_mapping = Some(Mapping::all_on(n(0), 3));
        let mut session = spawn(build(), &co_cfg, 500);
        for i in 0..500u64 {
            session.push(i).unwrap();
        }
        session.close();
        let got: Vec<u64> = session.by_ref().collect();
        assert_eq!(got, expect);
        assert!(
            session.fused_hops() > 0,
            "co-located stateless chain must fuse"
        );
        let outcome = session.drain();
        assert_eq!(outcome.report.completed, 500);
        assert!(!outcome.report.truncated);

        let mut sp_cfg = EngineConfig::new(free_nodes(3));
        sp_cfg.initial_mapping = Some(Mapping::from_assignment(&[n(0), n(1), n(2)]));
        let mut session = spawn(build(), &sp_cfg, 500);
        for i in 0..500u64 {
            session.push(i).unwrap();
        }
        session.close();
        let got: Vec<u64> = session.by_ref().collect();
        assert_eq!(got, expect);
        assert_eq!(
            session.fused_hops(),
            0,
            "cross-node boundaries must not fuse"
        );
        let outcome = session.drain();
        assert_eq!(outcome.report.completed, 500);

        // A resilient *entry* stage still fuses into its stateless
        // successor (the slow path walks the chain per item), so the
        // retry bookkeeping on the entry hop costs nothing downstream.
        let pipeline = PipelineBuilder::<u64>::new()
            .stage(
                StageSpec::balanced("a", 0.001, 8)
                    .with_resilience(ResiliencePolicy::new().retries(2)),
                |x: u64| x + 1,
            )
            .stage(StageSpec::balanced("b", 0.001, 8), |x: u64| x * 3)
            .build();
        let mut cfg = EngineConfig::new(free_nodes(1));
        cfg.initial_mapping = Some(Mapping::all_on(n(0), 2));
        let mut session = spawn(pipeline, &cfg, 100);
        for i in 0..100u64 {
            session.push(i).unwrap();
        }
        session.close();
        let got: Vec<u64> = session.by_ref().collect();
        assert_eq!(got, (0..100u64).map(|x| (x + 1) * 3).collect::<Vec<_>>());
        assert!(
            session.fused_hops() > 0,
            "resilient entry must not block fusing its successor"
        );
        session.drain();
    }

    #[test]
    fn stateful_or_resilient_successors_refuse_fusion() {
        use adapipe_runtime::session::ResiliencePolicy;
        // a → sum, co-located, but sum is stateful: fusing would route
        // items around the state-migration bookkeeping, so the plan
        // must refuse.
        let pipeline = PipelineBuilder::<u64>::new()
            .stage(StageSpec::balanced("a", 0.001, 8), |x: u64| x + 1)
            .stateful_stage(StageSpec::balanced("sum", 0.001, 8).with_state(8), {
                let mut acc = 0u64;
                move |x: u64| {
                    acc += x;
                    acc
                }
            })
            .build();
        let mut cfg = EngineConfig::new(free_nodes(1));
        cfg.initial_mapping = Some(Mapping::all_on(n(0), 2));
        let mut session = spawn(pipeline, &cfg, 100);
        for i in 0..100u64 {
            session.push(i).unwrap();
        }
        session.close();
        let got: Vec<u64> = session.by_ref().collect();
        let max = got.iter().max().copied().unwrap();
        assert_eq!(max, (1..=100u64).sum::<u64>(), "sum lost or doubled");
        assert_eq!(session.fused_hops(), 0, "stateful successor fused");
        session.drain();

        // Same refusal for a resilient successor: its retry/dead-letter
        // accounting is per-envelope and must keep receiving envelopes.
        let pipeline = PipelineBuilder::<u64>::new()
            .stage(StageSpec::balanced("a", 0.001, 8), |x: u64| x + 1)
            .stage(
                StageSpec::balanced("b", 0.001, 8)
                    .with_resilience(ResiliencePolicy::new().retries(2)),
                |x: u64| x * 2,
            )
            .build();
        let mut cfg = EngineConfig::new(free_nodes(1));
        cfg.initial_mapping = Some(Mapping::all_on(n(0), 2));
        let mut session = spawn(pipeline, &cfg, 100);
        for i in 0..100u64 {
            session.push(i).unwrap();
        }
        session.close();
        let got: Vec<u64> = session.by_ref().collect();
        assert_eq!(got, (0..100u64).map(|x| (x + 1) * 2).collect::<Vec<_>>());
        assert_eq!(session.fused_hops(), 0, "resilient successor fused");
        session.drain();
    }

    #[test]
    fn forced_remap_fuses_newly_colocated_stages() {
        // Stages start spread (nothing fuses); v1 crashes mid-run, the
        // forced re-map lands both stages on v0, and the refreshed plan
        // starts fusing — while replay keeps the stream exactly-once.
        let (s0, f0) = spin_stage("a", 2);
        let (s1, f1) = spin_stage("b", 2);
        let pipeline = PipelineBuilder::<u64>::new()
            .stage(s0, f0)
            .stage(s1, f1)
            .build();
        let mut cfg = EngineConfig::new(free_nodes(2));
        cfg.initial_mapping = Some(Mapping::from_assignment(&[n(0), n(1)]));
        cfg.policy = Policy::Periodic {
            interval: SimDuration::from_millis(100),
        };
        cfg.faults = FaultPlan::new().crash(n(1), SimTime::from_secs_f64(0.15));
        let mut session = spawn(pipeline, &cfg, 100);
        for i in 0..100u64 {
            session.push(i).unwrap();
        }
        session.close();
        let got: Vec<u64> = session.by_ref().collect();
        assert_eq!(got, (2..=101).collect::<Vec<_>>());
        assert!(
            session.fused_hops() > 0,
            "post-crash co-location must start fusing"
        );
        let outcome = session.drain();
        assert_eq!(outcome.report.completed, 100);
        assert!(!outcome.report.final_mapping.nodes_used().contains(&n(1)));
    }

    #[test]
    fn planner_unfuses_when_spreading_wins() {
        // Two equal spin stages start coalesced (fused); the periodic
        // controller finds that spreading doubles predicted throughput
        // — the fusion latency discount must not override the
        // bottleneck term — re-maps, and the plan un-fuses. Outputs
        // stay exact through the transition.
        let (s0, f0) = spin_stage("a", 3);
        let (s1, f1) = spin_stage("b", 3);
        let pipeline = PipelineBuilder::<u64>::new()
            .stage(s0, f0)
            .stage(s1, f1)
            .build();
        let mut cfg = EngineConfig::new(free_nodes(2));
        cfg.initial_mapping = Some(Mapping::all_on(n(0), 2));
        cfg.policy = Policy::Periodic {
            interval: SimDuration::from_millis(100),
        };
        let mut session = spawn(pipeline, &cfg, 150);
        for i in 0..150u64 {
            session.push(i).unwrap();
        }
        session.close();
        let got: Vec<u64> = session.by_ref().collect();
        assert_eq!(got, (2..=151).collect::<Vec<_>>());
        assert!(
            session.fused_hops() > 0,
            "coalesced start must fuse until the re-map"
        );
        let outcome = session.drain();
        assert_eq!(outcome.report.completed, 150);
        assert!(
            outcome
                .report
                .adaptations
                .iter()
                .any(|e| e.to.nodes_used().len() == 2),
            "controller must commit a re-map to the spread mapping"
        );
        // On a loaded host with fewer cores than threads the controller
        // may then legitimately re-coalesce; `mapper`'s
        // `planner_spreads_equal_stages_despite_the_fusion_discount`
        // pins the planning decision itself deterministically.
        if multicore(3) {
            assert_eq!(
                outcome.report.final_mapping.nodes_used().len(),
                2,
                "final mapping must be spread"
            );
        }
    }

    #[test]
    fn push_after_close_returns_typed_error() {
        let (s0, f0) = spin_stage("a", 1);
        let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
        let cfg = EngineConfig::new(free_nodes(1));
        let mut session = spawn(pipeline, &cfg, 2);
        session.push(1).unwrap();
        session.close();
        assert_eq!(session.push(2), Err(RunError::SessionClosed));
        assert_eq!(session.push_batch(3..5), Err(RunError::SessionClosed));
        let outcome = session.drain();
        assert_eq!(outcome.report.completed, 1, "rejected pushes never ran");
    }

    #[test]
    fn eviction_rejects_new_pushes_but_drains_in_flight() {
        let (s0, f0) = spin_stage("a", 1);
        let pipeline = PipelineBuilder::<u64>::new().stage(s0, f0).build();
        let cfg = EngineConfig::new(free_nodes(1));
        let mut session = spawn(pipeline, &cfg, 10);
        for i in 0..10u64 {
            session.push(i).unwrap();
        }
        let handle = session.tenant_handle();
        handle.begin_eviction();
        let id = session.session_id();
        assert_eq!(session.push(10), Err(RunError::Evicted { session: id }));
        // Graceful: everything already accepted still completes.
        let outcome = session.drain();
        assert_eq!(outcome.report.completed, 10);
        assert!(!outcome.report.truncated);
    }

    #[test]
    fn concurrent_tenants_share_one_pool_exactly_once() {
        // Three heterogeneous sessions attached to one 2-worker pool,
        // pushed interleaved: each must finish complete, ordered, and
        // isolated (disjoint transforms prove no cross-tenant leakage).
        let pool = Pool::launch(free_nodes(2), FaultPlan::new());
        let cfg = EngineConfig::new(free_nodes(2));
        let mk = |add: u64| {
            let (s0, _) = spin_stage("t", 1);
            PipelineBuilder::<u64>::new()
                .stage(s0, move |x: u64| {
                    spin_for(Duration::from_millis(1));
                    x + add
                })
                .build()
        };
        let mut a = attach(&pool, mk(100), &cfg, 30, false);
        let mut b = attach(&pool, mk(1000), &cfg, 30, false);
        let mut c = attach(&pool, mk(10000), &cfg, 30, false);
        assert_ne!(a.session_id(), b.session_id());
        for i in 0..30u64 {
            a.push(i).unwrap();
            b.push(i).unwrap();
            c.push(i).unwrap();
        }
        let (oa, ob, oc) = (a.drain(), b.drain(), c.drain());
        assert_eq!(oa.outputs, (0..30).map(|x| x + 100).collect::<Vec<_>>());
        assert_eq!(ob.outputs, (0..30).map(|x| x + 1000).collect::<Vec<_>>());
        assert_eq!(oc.outputs, (0..30).map(|x| x + 10000).collect::<Vec<_>>());
        assert!(!oa.report.truncated && !ob.report.truncated && !oc.report.truncated);
        pool.shutdown();
    }

    #[test]
    fn forced_eviction_leaves_co_tenants_running() {
        let pool = Pool::launch(free_nodes(2), FaultPlan::new());
        let cfg = EngineConfig::new(free_nodes(2));
        let (s0, f0) = spin_stage("keep", 1);
        let keep = PipelineBuilder::<u64>::new().stage(s0, f0).build();
        let (s1, f1) = spin_stage("goner", 2);
        let goner = PipelineBuilder::<u64>::new().stage(s1, f1).build();
        let mut survivor = attach(&pool, keep, &cfg, 40, false);
        let mut victim = attach(&pool, goner, &cfg, 200, false);
        for i in 0..200u64 {
            victim.push(i).unwrap();
        }
        let handle = victim.tenant_handle();
        handle.evict_now();
        assert_eq!(
            handle.error(),
            Some(RunError::Evicted {
                session: handle.session()
            })
        );
        let report = {
            // The evicted session unwinds truncated, promptly.
            let t0 = Instant::now();
            let outcome = victim.drain();
            assert!(t0.elapsed() < Duration::from_secs(2));
            outcome.report
        };
        assert!(report.truncated);
        // The co-tenant is unaffected: full exactly-once stream.
        for i in 0..40u64 {
            survivor.push(i).unwrap();
        }
        let outcome = survivor.drain();
        assert_eq!(outcome.outputs, (1..=40).collect::<Vec<_>>());
        assert!(!outcome.report.truncated);
        pool.shutdown();
    }

    #[test]
    fn weighted_shares_bias_worker_capacity() {
        // Two identical spin-heavy tenants flood one single-worker pool;
        // tenant A holds 4× the share of tenant B. Weighted-fair lane
        // service must let A finish its stream well before B finishes
        // its own (both streams are equal length).
        let pool = Pool::launch(free_nodes(1), FaultPlan::new());
        let cfg = EngineConfig::new(free_nodes(1));
        let mk = || {
            let (s0, f0) = spin_stage("w", 2);
            PipelineBuilder::<u64>::new().stage(s0, f0).build()
        };
        let mut a = attach(&pool, mk(), &cfg, 60, false);
        let mut b = attach(&pool, mk(), &cfg, 60, false);
        a.tenant_handle().set_share(0.8);
        b.tenant_handle().set_share(0.2);
        // Envelope-per-item keeps many envelopes queued per lane.
        for i in 0..60u64 {
            a.push(i).unwrap();
            b.push(i).unwrap();
        }
        a.close();
        b.close();
        let a_handle = a.tenant_handle();
        let b_handle = b.tenant_handle();
        // Wait until A's stream completes; B must still have backlog.
        let t0 = Instant::now();
        while a_handle.completed() < 60 && t0.elapsed() < Duration::from_secs(30) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(a_handle.completed(), 60, "high-share tenant finished");
        let b_done = b_handle.completed();
        assert!(
            b_done < 60,
            "low-share tenant should lag the high-share one (completed {b_done})"
        );
        let (oa, ob) = (a.drain(), b.drain());
        assert_eq!(oa.report.completed, 60);
        assert_eq!(ob.report.completed, 60);
        pool.shutdown();
    }
}
