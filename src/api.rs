//! The unified `Pipeline` API: one typed, backend-agnostic entry point
//! for every execution backend.
//!
//! The paper presents *one* adaptive pipeline skeleton that hides
//! placement and re-mapping behind a single programming surface. This
//! module is that surface; both backends sit behind it:
//!
//! ```
//! use adapipe::prelude::*;
//!
//! let pipeline = Pipeline::<u64>::builder()
//!     .stage("inc", |x: u64| x + 1)
//!     .stage_replicated("double", |x: u64| x * 2, 4)
//!     .policy(Policy::periodic_default())
//!     .feed(|i| i)
//!     .build()
//!     .expect("valid pipeline");
//!
//! // The same program runs on any backend.
//! let grid = testbed_small3();
//! let handle = pipeline
//!     .run(Backend::Sim(&grid), RunConfig { items: 50, ..RunConfig::default() })
//!     .expect("compatible backend");
//! assert_eq!(handle.report.completed, 50);
//! ```
//!
//! `build()` validates the declaration (non-empty, unique stage names,
//! legal replica bounds, policy/arrival compatibility) and returns a
//! typed [`BuildError`] instead of panicking mid-run; `run()`/`spawn()`
//! add the backend-dependent checks (input feed present, selection
//! supported). Stage state and replication properties are declared in
//! the API — [`PipelineBuilder::stage_replicated`] bounds how wide the
//! planner may legally farm a stage,
//! [`PipelineBuilder::stateful_stage`] pins a stage to width one — so
//! the runtime can replicate exactly what the programmer permitted.
//!
//! ## One graph builder
//!
//! A pipeline's stages form a DAG, declared through one builder, core's
//! [`adapipe_core::pipeline::DagBuilder`]. [`Pipeline::dag`] exposes it:
//! each stage names its producers by the typed [`Node`] handles earlier
//! declarations returned, so an edge between mismatched item types, or
//! an exit of the wrong type, does not compile. [`Pipeline::builder`]'s
//! chain and its [`PipelineBuilder::parallel`] blocks are sugar over the
//! same [`DagBuilder`]: the chain holds a handle on its last stage, and a
//! block clones it once per branch and joins the branch ends. The
//! builder erases each stage in the call that declares it, so this
//! module never handles an erased stage, and every pipeline it hands a
//! backend is well-typed by construction.
//!
//! ## Streaming sessions
//!
//! Batch `run()` is sugar. The primary execution surface is the live
//! session: [`Pipeline::spawn`] starts the pipeline and hands back a
//! [`RunSession`] whose input side ([`RunSession::push`],
//! [`RunSession::close`]) and output side ([`RunSession::next`],
//! [`RunSession::try_next`]) the caller drives while adaptation runs
//! underneath:
//!
//! ```
//! use adapipe::prelude::*;
//!
//! let pipeline = Pipeline::<u64>::builder()
//!     .stage("inc", |x: u64| x + 1)
//!     .build()
//!     .expect("valid pipeline");
//! let mut session = pipeline
//!     .spawn(
//!         Backend::Threads(vec![VNodeSpec::free("v0")]),
//!         RunConfig { queue_capacity: Some(64), ..RunConfig::default() },
//!     )
//!     .expect("spawn");
//! for i in 0..10 {
//!     // Blocks only when the bounded queues are full; a closed or
//!     // evicted session returns a typed `RunError` instead.
//!     session.push(i).unwrap();
//! }
//! let handle = session.drain(); // graceful: every pushed item completes
//! assert_eq!(handle.outputs, (1..=10).collect::<Vec<_>>());
//! ```
//!
//! In-flight control rides on the session:
//! [`RunSession::pause_adaptation`] / [`RunSession::resume_adaptation`]
//! freeze and thaw re-mapping, [`RunSession::force_remap`] demands one
//! planning cycle now, [`RunSession::abort`] kills the run (vs. the
//! graceful [`RunSession::drain`]), and [`RunSession::events`]
//! subscribes to the live [`RunEvent`] stream (each tick's [`Verdict`],
//! re-mappings, faults, backpressure stalls).
//!
//! The same session API runs on the simulator: the discrete-event world
//! advances cooperatively as the session is driven (`next()`/`drain()`
//! step it; virtual time never advances on its own), pushed items take
//! their arrival instants from the pipeline's declared
//! [`ArrivalProcess`], and stage functions are applied to pushed items
//! in push order — so one scenario written against [`RunSession`]
//! produces item-identical outputs on either backend.
//!
//! This module runs neither backend. A [`RunSession`] holds the
//! backend's own session (`adapipe_core::simsession::SimSession` or
//! `adapipe_engine::exec::EngineSession`) as a boxed
//! [`LiveSession`], so each of
//! its methods is one call that never asks which backend is underneath.
//! A [`Cluster`] wraps the backend's own pool
//! (`adapipe_core::simsession::SimPool` or `adapipe_engine::exec::Pool`),
//! which owns its tenants, and matches on it, because admission is
//! generic in the tenant's item types. What happens to an
//! item at a stage is decided in one place both backends call,
//! `adapipe_core::item`.
//!
//! Live observation goes through [`RunConfig`]'s [`EventBus`] (a
//! batch `run` subscribes before it starts) or [`RunSession::events`];
//! post-run observation through the [`RunHandle`].
//!
//! ## Multi-tenant clusters
//!
//! One node pool can serve many concurrent pipelines: [`Cluster::new`]
//! owns the pool once, [`Cluster::admit`] attaches any number of
//! sessions (heterogeneous stage graphs, each keeping this same typed
//! push/pull API) under per-tenant [`ShareQuota`]s, and
//! [`Cluster::evict`] / [`Cluster::evict_now`] remove tenants
//! gracefully or forcibly. See the `Cluster` docs for the capacity
//! arbitration and fairness semantics.

use adapipe_core::pipeline::{
    DagBuilder as CoreDag, Exit, Pipeline as CorePipeline, PipelineBuilder as CoreChain,
};
use adapipe_core::simengine;
use adapipe_core::simsession::{self, SimPool};
use adapipe_core::spec::{PipelineSpec, ResiliencePolicy, StageSpec};
use adapipe_engine::exec::{self, Pool};
use adapipe_engine::vnode::VNodeSpec;
use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::grid::GridSpec;
use adapipe_gridsim::node::NodeId;
use adapipe_runtime::policy::Policy;
use adapipe_runtime::report::RunReport;
use adapipe_runtime::routing::Selection;
use adapipe_runtime::session::{self, LiveSession, Session, SessionControl};
use adapipe_state::StateCodec;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

pub use adapipe_core::pipeline::Node;
pub use adapipe_mapper::share::ShareQuota;
pub use adapipe_runtime::adapt::Verdict;
pub use adapipe_runtime::session::{
    ArrivalProcess, BuildError, EventBus, RunConfig, RunError, RunEvent, RunHandle, SessionId,
    TryNext,
};

/// Which execution backend a built [`Pipeline`] runs on.
pub enum Backend<'a> {
    /// Deterministic discrete-event execution on a simulated grid (the
    /// evaluation substrate). Stage *functions* are not invoked — the
    /// simulator executes the declared cost metadata — so the returned
    /// [`RunHandle::outputs`] is empty.
    Sim(&'a GridSpec),
    /// Real OS threads over the given virtual nodes, with synthetic
    /// heterogeneity. Stage functions process real inputs drawn from the
    /// pipeline's feed.
    Threads(Vec<VNodeSpec>),
}

impl Backend<'_> {
    fn node_count(&self) -> usize {
        match self {
            Backend::Sim(grid) => grid.len(),
            Backend::Threads(vnodes) => vnodes.len(),
        }
    }
}

/// A validated, backend-agnostic pipeline program: typed stage
/// functions, cost metadata, adaptation policy, and arrival process.
/// Built by [`PipelineBuilder`]; executed by [`Pipeline::run`] on any
/// [`Backend`].
pub struct Pipeline<I, O = I> {
    /// The erased program both backends take: spec, stage functions,
    /// fan-out duplicators, routing-key extractors.
    core: CorePipeline<I, O>,
    session: Session,
    feed: Option<Box<dyn Fn(u64) -> I + Send>>,
    faults: FaultPlan,
}

impl<I, O> std::fmt::Debug for Pipeline<I, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("spec", self.core.spec())
            .field("session", &self.session)
            .field("feed", &self.feed.as_ref().map(|_| "Fn"))
            .finish()
    }
}

impl<I: Send + 'static> Pipeline<I, I> {
    /// Starts a builder for a pipeline whose inputs have type `I`.
    pub fn builder() -> PipelineBuilder<I, I> {
        PipelineBuilder::new()
    }

    /// Starts a *DAG* builder for a pipeline whose inputs have type
    /// `I`: each stage names its producers by their typed [`Node`]
    /// handles instead of following the chain and series-parallel
    /// sugar, and [`DagBuilder::exit`] picks the node the pipeline
    /// delivers.
    pub fn dag() -> DagBuilder<I> {
        DagBuilder::default()
    }
}

impl<I: Send + 'static, O: Send + 'static> Pipeline<I, O> {
    /// Number of stages.
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// True if the pipeline has no stages (not constructible).
    pub fn is_empty(&self) -> bool {
        self.core.is_empty()
    }

    /// The planner-facing cost metadata.
    pub fn spec(&self) -> &PipelineSpec {
        self.core.spec()
    }

    /// The validated adaptation policy.
    pub fn policy(&self) -> Policy {
        self.session.policy()
    }

    /// The validated arrival process.
    pub fn arrivals(&self) -> ArrivalProcess {
        self.session.arrivals()
    }

    /// Shared `run()`/`spawn()`/`admit()` validation against a backend
    /// of `node_count` nodes, threaded or not: the launch mapping must
    /// honour the declared stage properties (statefulness, replica
    /// bounds) and the backend's node set — otherwise the
    /// typed-validation contract would be silently bypassed by the one
    /// knob that places stages directly — a declared queue bound must
    /// be able to admit at least one item, and the (merged) fault plan
    /// may only name nodes the backend has.
    fn validate_run(
        &self,
        node_count: usize,
        threads: bool,
        cfg: &RunConfig,
    ) -> Result<(), BuildError> {
        if cfg.queue_capacity == Some(0) {
            return Err(BuildError::ZeroQueueCapacity);
        }
        if let Some(mapping) = &cfg.initial_mapping {
            let stages = &self.spec().stages;
            let replica_cap: Vec<usize> = stages.iter().map(|s| s.replica_cap()).collect();
            session::validate_mapping(mapping, &replica_cap, node_count)?;
        }
        session::validate_faults(&cfg.faults, node_count)?;
        if threads && cfg.selection == Selection::LeastLoaded {
            return Err(BuildError::UnsupportedSelection { backend: "threads" });
        }
        Ok(())
    }

    /// Starts the pipeline on `backend` and returns the live
    /// [`RunSession`]: push items, pull outputs, steer adaptation — all
    /// while the run is in flight. `cfg.items` only seeds the
    /// adaptation loop's remaining-work amortisation (the true stream
    /// length is whatever is pushed before [`RunSession::close`]).
    ///
    /// No input feed is required: the session's `push` supplies real
    /// items on every backend. Under [`Backend::Sim`] the pushed items
    /// take their simulated arrival instants from the pipeline's
    /// declared [`ArrivalProcess`], and the stage functions are applied
    /// in push order, so the session yields real outputs there too.
    pub fn spawn<'g>(
        self,
        backend: Backend<'g>,
        mut cfg: RunConfig,
    ) -> Result<RunSession<'g, I, O>, BuildError> {
        // The effective fault plan: whatever the pipeline declared at
        // build time, then the run's own faults on top.
        cfg.faults = self.faults.clone().merge(&cfg.faults);
        let threads = matches!(backend, Backend::Threads(_));
        self.validate_run(backend.node_count(), threads, &cfg)?;
        let inner: Box<dyn LiveSession<I, O> + 'g> = match backend {
            Backend::Sim(grid) => Box::new(simsession::spawn(grid, self.core, &self.session, &cfg)),
            Backend::Threads(vnodes) => {
                Box::new(exec::spawn(self.core, vnodes, &self.session, &cfg))
            }
        };
        Ok(RunSession {
            inner,
            control: cfg.control,
            bus: cfg.events,
        })
    }

    /// Runs the pipeline to completion on `backend` under `cfg`: the
    /// backend's batch wrapper — spawn a session, feed `cfg.items`
    /// items on the declared arrival schedule, drain.
    ///
    /// Backend-dependent validation happens here: the threaded backend
    /// needs an input [`PipelineBuilder::feed`] to synthesise the items
    /// (a live session pushes real items instead) and exposes no
    /// queue-depth probe for [`Selection::LeastLoaded`]. Under
    /// [`Backend::Sim`] the batch path feeds arrival *metadata* only —
    /// stage functions are not invoked and [`RunHandle::outputs`] stays
    /// empty.
    pub fn run(self, backend: Backend<'_>, mut cfg: RunConfig) -> Result<RunHandle<O>, BuildError> {
        // Declaration errors (bad mapping, unsupported selection)
        // surface before a missing feed does.
        cfg.faults = self.faults.clone().merge(&cfg.faults);
        let threads = matches!(backend, Backend::Threads(_));
        self.validate_run(backend.node_count(), threads, &cfg)?;
        match backend {
            Backend::Sim(grid) => Ok(RunHandle {
                outputs: Vec::new(),
                report: simengine::run(grid, self.spec(), &self.session, &cfg),
                error: cfg.control.error(),
            }),
            Backend::Threads(vnodes) => {
                let feed = self
                    .feed
                    .ok_or(BuildError::MissingFeed { backend: "threads" })?;
                Ok(exec::execute_fed(
                    self.core,
                    feed,
                    vnodes,
                    &self.session,
                    &cfg,
                ))
            }
        }
    }
}

/// A live pipeline run: the streaming counterpart of [`RunHandle`].
/// Obtained from [`Pipeline::spawn`]; one session is one run.
///
/// * **Input side** — [`RunSession::push`] feeds items (blocking under
///   a bounded `queue_capacity` on the threaded backend);
///   [`RunSession::close`] declares the stream complete.
/// * **Output side** — [`RunSession::next`] blocks for the next output
///   (driving the simulated world forward under [`Backend::Sim`]);
///   [`RunSession::try_next`] polls without blocking.
/// * **Control** — pause/resume/force adaptation, graceful
///   [`RunSession::drain`] vs. immediate [`RunSession::abort`], and the
///   [`RunSession::events`] subscription stream.
pub struct RunSession<'g, I, O> {
    /// The backend's own session: `SimSession` (cooperatively stepped)
    /// or `EngineSession` (live threads).
    inner: Box<dyn LiveSession<I, O> + 'g>,
    control: SessionControl,
    bus: EventBus,
}

impl<I, O> std::fmt::Debug for RunSession<'_, I, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSession")
            .field("session", &self.inner.session_id())
            .field("control", &self.control)
            .finish()
    }
}

impl<I: Send + 'static, O: Send + 'static> RunSession<'_, I, O> {
    /// Feeds one item into the pipeline, returning its sequence number.
    ///
    /// Threaded backend: the item arrives now, stamped by the session's
    /// stamp window (one clock read per window of pushes, at most one
    /// window early; any output poll or blocking wait closes it); with
    /// a bounded `queue_capacity` the call blocks while the in-flight
    /// budget is exhausted (real backpressure) and emits
    /// [`RunEvent::BackpressureStall`]. Simulation backend: the item's
    /// arrival instant comes from the declared [`ArrivalProcess`]
    /// (clamped to the world's current virtual time), its stage
    /// functions run immediately in push order, and the output is
    /// withheld until the simulated world completes the item.
    ///
    /// # Errors
    /// [`RunError::SessionClosed`] after [`RunSession::close`] /
    /// [`RunSession::drain`] began, [`RunError::Evicted`] once a
    /// cluster evicted this session — on both backends.
    pub fn push(&mut self, item: I) -> Result<u64, RunError> {
        self.inner.push(item)
    }

    /// Feeds a whole batch of items, returning how many were pushed.
    ///
    /// On the threaded backend this feeds the batched envelope path
    /// directly: items coalesce into [`RunConfig::batch_size`]-sized
    /// envelopes as they are pushed and any remainder is flushed before
    /// the call returns, so the entire batch is in flight afterwards
    /// (the batch `run()` sugar goes through the same path). On the
    /// simulation backend it is equivalent to pushing each item in
    /// order.
    ///
    /// # Errors
    /// Same lifecycle errors as [`RunSession::push`]; items already
    /// admitted before the error stay in flight.
    pub fn push_batch(&mut self, items: impl IntoIterator<Item = I>) -> Result<u64, RunError> {
        self.inner.push_batch(&mut items.into_iter())
    }

    /// Declares the input stream complete: no further pushes; `drain`
    /// and `next` now have a definite end.
    pub fn close(&mut self) {
        self.inner.close();
    }

    /// The session's cluster-wide identity. Standalone `spawn` sessions
    /// report `SessionId(0)`; cluster-admitted sessions carry the id
    /// tagged on every [`RunEvent`] they emit.
    pub fn session_id(&self) -> SessionId {
        self.inner.session_id()
    }

    /// Items pushed so far.
    pub fn pushed(&self) -> u64 {
        self.inner.pushed()
    }

    /// Items that reached the sink so far.
    pub fn completed(&self) -> u64 {
        self.inner.completed()
    }

    /// Items pushed and not yet settled: neither completed at the sink
    /// nor diverted to the dead-letter channel.
    pub fn in_flight(&self) -> u64 {
        self.inner.in_flight()
    }

    /// Non-blocking poll of the output side. Under [`Backend::Sim`]
    /// this never advances virtual time — it only surfaces outputs that
    /// earlier `next()`/`drain()` stepping already completed.
    pub fn try_next(&mut self) -> TryNext<O> {
        self.inner.try_next()
    }

    /// Freezes adaptation: sensing and window statistics continue, but
    /// no re-mapping (planner or regret guard) commits until resumed.
    pub fn pause_adaptation(&self) {
        self.control.pause_adaptation();
    }

    /// Lifts a [`RunSession::pause_adaptation`].
    pub fn resume_adaptation(&self) {
        self.control.resume_adaptation();
    }

    /// Requests one planning cycle at the next adaptation tick,
    /// bypassing warm-up gating, guard hold-downs, and the reactive
    /// trigger. No-op under [`Policy::Static`] (nothing ever ticks).
    pub fn force_remap(&self) {
        self.control.force_remap();
    }

    /// Subscribes to the live [`RunEvent`] stream (re-mappings, window
    /// statistics, backpressure stalls, node-down/up transitions, item
    /// replays). Events emitted before the subscription are not
    /// replayed — subscribe right after `spawn` to see everything.
    pub fn events(&self) -> Receiver<RunEvent> {
        self.bus.subscribe()
    }

    /// The run's fatal error, if one was recorded (a stateful stage
    /// lost to a crashed node, every node down, a poison item).
    /// The failed run unwinds cleanly — `next()` stops yielding and
    /// [`RunSession::drain`] returns a truncated report — and this (or
    /// [`RunHandle::error`]) says why.
    pub fn error(&self) -> Option<RunError> {
        self.control.error()
    }

    /// Graceful shutdown: closes the stream, waits until every pushed
    /// item has settled, and returns the remaining (un-pulled) outputs,
    /// the standard report and the run's first fatal error. Items
    /// already pulled via [`RunSession::next`] are not repeated.
    pub fn drain(self) -> RunHandle<O> {
        self.inner.drain()
    }

    /// Immediate shutdown: in-flight items are dropped and the report
    /// comes back `truncated` if anything was lost.
    pub fn abort(self) -> RunReport {
        self.inner.abort()
    }
}

/// Blocking output iteration: `next()` waits until the next output is
/// available and yields `None` once no output can ever arrive again
/// (stream closed and fully delivered, run aborted, or — simulation
/// backend — the world starved or hit its horizon). Under
/// [`Backend::Sim`], "blocking" means driving the simulated world
/// forward; with nothing in flight it yields `None` rather than wait
/// for pushes that cannot happen (the session is single-threaded by
/// construction). With `preserve_order` outputs come in push order;
/// otherwise in completion order.
impl<I: Send + 'static, O: Send + 'static> Iterator for RunSession<'_, I, O> {
    type Item = O;

    fn next(&mut self) -> Option<O> {
        self.inner.next()
    }
}

/// Cluster-level configuration: properties of the shared pool itself,
/// as opposed to any one tenant's [`SessionConfig`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Node churn of the shared pool. Outages hit every tenant at the
    /// same instants (it is one pool); per-session fault plans are
    /// rejected at [`Cluster::admit`] with
    /// [`BuildError::PerSessionFaults`].
    pub faults: FaultPlan,
    /// Arbitration window of the threaded backend's capacity arbiter
    /// (ignored by the simulation backend, whose shares are static).
    pub window: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            faults: FaultPlan::new(),
            window: Duration::from_millis(25),
        }
    }
}

/// Per-tenant admission configuration: the session's ordinary
/// [`RunConfig`] plus its capacity [`ShareQuota`].
#[derive(Default)]
pub struct SessionConfig {
    /// The tenant's run configuration. Per-session `faults` are
    /// rejected — churn belongs to the shared pool
    /// ([`ClusterConfig::faults`]).
    pub run: RunConfig,
    /// The tenant's capacity quota: `min_share` is a guaranteed floor
    /// while the tenant has demand, `max_share` a hard ceiling, and
    /// `weight` divides contended capacity. The default is a
    /// best-effort weight-1 tenant.
    pub quota: ShareQuota,
}

/// Many concurrent pipelines on one shared node pool.
///
/// A `Cluster` owns the pool once — [`Cluster::new`] launches it — and
/// [`Cluster::admit`] attaches any number of concurrent sessions:
/// heterogeneous stage graphs, each keeping the same typed
/// [`RunSession`] push/pull API a standalone [`Pipeline::spawn`]
/// returns. Capacity is divided by per-tenant [`ShareQuota`]s:
///
/// * **Threaded backend** — a single global arbitration loop senses
///   each tenant's progress and inbox backlog every
///   [`ClusterConfig::window`] and re-divides capacity by weighted
///   progressive filling under the quotas. Shares act twice: they
///   re-weight the pool inboxes' start-time-fair-queueing lanes (a
///   spiking tenant cannot starve the rest) and re-scale each tenant's
///   planner view of the pool (replicas migrate toward tenants that can
///   use them). Idle tenants release their grant — even the `min_share`
///   floor — after a short grace period.
/// * **Simulation backend** — deterministic: each tenant is granted a
///   *static* share equal to its quota ceiling at admission (the
///   ceilings may not oversubscribe the pool —
///   [`BuildError::PoolOversubscribed`]), and the tenants' worlds
///   interleave through one merged event clock, earliest event first.
///
/// Every [`RunEvent`] a tenant emits carries its [`SessionId`];
/// [`Cluster::events`] subscribes to the merged cluster-wide stream.
/// [`Cluster::evict`] begins graceful eviction (pushes fail typed,
/// in-flight items drain); [`Cluster::evict_now`] forcibly detaches the
/// tenant, failing its run with [`RunError::Evicted`].
pub struct Cluster<'g> {
    inner: ClusterInner<'g>,
    /// The cluster-wide merged event bus: every admitted session's
    /// hooks emit onto it.
    bus: EventBus,
}

enum ClusterInner<'g> {
    /// Deterministic shared-pool simulation: static shares plus the
    /// merged event clock.
    Sim(SimPool<'g>),
    /// Live threaded pool with the background capacity arbiter.
    Threads(Arc<Pool>),
}

impl std::fmt::Debug for Cluster<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let backend = match &self.inner {
            ClusterInner::Sim(_) => "sim",
            ClusterInner::Threads(_) => "threads",
        };
        f.debug_struct("Cluster")
            .field("backend", &backend)
            .field("sessions", &self.sessions())
            .finish()
    }
}

impl<'g> Cluster<'g> {
    /// Launches the shared node pool. The threaded backend starts its
    /// workers and the arbiter thread immediately; the simulation
    /// backend records the grid and fault plan for each admission.
    pub fn new(backend: Backend<'g>, cfg: ClusterConfig) -> Result<Cluster<'g>, BuildError> {
        session::validate_faults(&cfg.faults, backend.node_count())?;
        let inner = match backend {
            Backend::Sim(grid) => ClusterInner::Sim(SimPool::new(grid, cfg.faults)),
            Backend::Threads(vnodes) => {
                ClusterInner::Threads(Pool::launch(vnodes, cfg.faults, Some(cfg.window)))
            }
        };
        Ok(Cluster {
            inner,
            bus: EventBus::new(),
        })
    }

    /// Admits a pipeline as a new tenant and returns its live
    /// [`RunSession`] — same typed push/pull API as a standalone
    /// [`Pipeline::spawn`], but sharing this cluster's pool under the
    /// given quota.
    ///
    /// # Errors
    /// [`BuildError::PerSessionFaults`] if the pipeline or its run
    /// config declares faults (churn belongs to
    /// [`ClusterConfig::faults`]); [`BuildError::InvalidQuota`] for a
    /// malformed quota; [`BuildError::PoolOversubscribed`] (simulation
    /// backend) when the static share grants would exceed the pool;
    /// plus everything [`Pipeline::spawn`] validates.
    pub fn admit<I: Send + 'static, O: Send + 'static>(
        &mut self,
        pipeline: Pipeline<I, O>,
        mut cfg: SessionConfig,
    ) -> Result<RunSession<'g, I, O>, BuildError> {
        if !cfg.run.faults.is_empty() || !pipeline.faults.is_empty() {
            return Err(BuildError::PerSessionFaults);
        }
        if !cfg.quota.is_valid() {
            return Err(BuildError::InvalidQuota {
                detail: format!(
                    "min_share {}, max_share {}, weight {}",
                    cfg.quota.min_share, cfg.quota.max_share, cfg.quota.weight
                ),
            });
        }
        // Every tenant's events merge onto the cluster-wide bus (demux
        // by each event's `session` field); subscriptions made through
        // `RunSession::events` see the same merged stream.
        cfg.run.events = self.bus.clone();
        let threads = matches!(self.inner, ClusterInner::Threads(_));
        pipeline.validate_run(self.node_count(), threads, &cfg.run)?;
        let control = cfg.run.control.clone();
        let inner: Box<dyn LiveSession<I, O> + 'g> = match &mut self.inner {
            ClusterInner::Sim(pool) => {
                Box::new(pool.admit(pipeline.core, &pipeline.session, cfg.run, cfg.quota)?)
            }
            ClusterInner::Threads(pool) => Box::new(exec::attach(
                pool,
                pipeline.core,
                &pipeline.session,
                &cfg.run,
                cfg.quota,
            )),
        };
        Ok(RunSession {
            inner,
            control,
            bus: self.bus.clone(),
        })
    }

    /// Begins graceful eviction of a tenant: its pushes start failing
    /// with [`RunError::Evicted`] while everything already in flight
    /// drains normally — `drain` on the tenant's session still returns
    /// a complete report. Returns `false` for an unknown session.
    pub fn evict(&self, id: SessionId) -> bool {
        match &self.inner {
            ClusterInner::Sim(pool) => pool.evict(id),
            ClusterInner::Threads(pool) => pool.evict(id),
        }
    }

    /// Forcibly detaches a tenant *now*: its run fails with
    /// [`RunError::Evicted`], in-flight items are dropped (the tenant's
    /// report comes back truncated), and its capacity share returns to
    /// the survivors. Returns `false` for an unknown session.
    pub fn evict_now(&mut self, id: SessionId) -> bool {
        match &self.inner {
            ClusterInner::Sim(pool) => pool.evict_now(id),
            ClusterInner::Threads(pool) => pool.evict_now(id),
        }
    }

    /// The ids of the currently attached sessions, admission order.
    pub fn sessions(&self) -> Vec<SessionId> {
        match &self.inner {
            ClusterInner::Sim(pool) => pool.sessions(),
            ClusterInner::Threads(pool) => pool.sessions(),
        }
    }

    /// The capacity share currently granted to a session: its static
    /// grant on the simulation backend, the arbiter's latest decision
    /// on the threaded backend. `None` for an unknown session.
    pub fn share_of(&self, id: SessionId) -> Option<f64> {
        match &self.inner {
            ClusterInner::Sim(pool) => pool.share_of(id),
            ClusterInner::Threads(pool) => pool.share_of(id),
        }
    }

    /// Number of nodes in the shared pool.
    pub fn node_count(&self) -> usize {
        match &self.inner {
            ClusterInner::Sim(pool) => pool.node_count(),
            ClusterInner::Threads(pool) => pool.node_count(),
        }
    }

    /// Subscribes to the merged cluster-wide [`RunEvent`] stream; every
    /// event carries the emitting tenant's [`SessionId`]. Events before
    /// the subscription are not replayed.
    pub fn events(&self) -> Receiver<RunEvent> {
        self.bus.subscribe()
    }

    /// Shuts the shared pool down, as dropping the cluster does.
    /// Threaded backend: stops the arbiter and joins the workers
    /// (attached sessions, if any remain, unwind with truncated
    /// reports). Simulation backend: drops the registry; outstanding
    /// sessions keep their own worlds and finish independently.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Cluster<'_> {
    fn drop(&mut self) {
        if let ClusterInner::Threads(pool) = &self.inner {
            pool.shutdown();
        }
    }
}

/// Typed builder for the unified [`Pipeline`]: core's chain builder (a
/// [`DagBuilder`] graph plus its *tail*, the [`Node`] whose output the
/// next appended stage consumes) and the run declarations. `Cur` is the
/// tail's item type, so stage `i+1` must accept exactly what stage `i`
/// produces — checked at compile time. Chain stages,
/// [`PipelineBuilder::parallel`] blocks and [`DagBuilder`] graphs all
/// declare their stages on the same graph builder; everything else is
/// checked by [`PipelineBuilder::build`], which returns a typed
/// [`BuildError`] instead of panicking.
pub struct PipelineBuilder<In, Cur = In> {
    chain: CoreChain<In, Cur, Pipeline<In>>,
    run: RunDecl<In>,
}

/// What a builder declares about the run as a whole rather than about
/// any one stage.
struct RunDecl<In> {
    policy: Policy,
    arrivals: ArrivalProcess,
    baseline: bool,
    feed: Option<Box<dyn Fn(u64) -> In + Send>>,
    faults: FaultPlan,
}

impl<In: Send + 'static> PipelineBuilder<In, In> {
    /// Starts a pipeline whose inputs have type `In`: a graph with no
    /// stage yet, positioned at the pipeline input.
    pub fn new() -> Self {
        Pipeline::wrap(CoreChain::new())
    }
}

impl<In: Send + 'static> Default for PipelineBuilder<In, In> {
    fn default() -> Self {
        Self::new()
    }
}

impl PipelineBuilder<u64, u64> {
    /// Builds from an engine-agnostic [`PipelineSpec`] alone — any DAG
    /// spec, however its graph was wired: core's identity program over
    /// `u64` ([`CorePipeline::identity`]), with the feed defaulting to
    /// the item index. The simulation backend only consumes the
    /// metadata, so this is the natural entry point for simulation
    /// scenarios (and still runs — trivially — on the threaded
    /// backend). Stages appended afterwards consume the spec's exit
    /// stage.
    pub fn from_spec(spec: PipelineSpec) -> Self {
        PipelineBuilder::from_pipeline(CorePipeline::identity(spec)).feed(|i| i)
    }
}

impl<In: Send + 'static, Cur: Send + 'static> PipelineBuilder<In, Cur> {
    /// Adopts an already-built engine-level pipeline (e.g. the imaging
    /// or signal workloads), keeping its stages, stage graph and cost
    /// metadata; the unified policy/arrivals/feed declarations still
    /// apply, and stages appended afterwards consume its exit stage.
    pub fn from_pipeline(pipeline: CorePipeline<In, Cur>) -> Self {
        Pipeline::wrap(CoreChain::from_pipeline(pipeline))
    }

    /// Declares how many bytes each input item carries into stage 0.
    pub fn input_bytes(mut self, bytes: u64) -> Self {
        self.chain = self.chain.input_bytes(bytes);
        self
    }

    /// Pins the input source to a grid node (inputs pay the transfer
    /// from there to stage 0's host).
    pub fn source(mut self, node: NodeId) -> Self {
        self.chain = self.chain.source(node);
        self
    }

    /// Pins the output sink to a grid node.
    pub fn sink(mut self, node: NodeId) -> Self {
        self.chain = self.chain.sink(node);
        self
    }

    /// Sets the adaptation policy (default [`Policy::Static`]).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.run.policy = policy;
        self
    }

    /// Sets the arrival process (default [`ArrivalProcess::AllAtOnce`]).
    pub fn arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.run.arrivals = arrivals;
        self
    }

    /// Declares scheduled faults the run must survive: slowdowns and
    /// outages degrade the named nodes, outages and crashes take them
    /// *down* (routing exclusion, `RunEvent::NodeDown`, a forced
    /// committed re-map away from them, at-least-once replay of
    /// stranded items). Honoured identically by both backends; times
    /// are on the backend clock. Merged with (before) any plan the
    /// `RunConfig` carries. Validated against the backend's node set at
    /// `run()`/`spawn()`.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.run.faults = plan;
        self
    }

    /// Acknowledges a *deliberate* baseline: waives the policy × arrival
    /// pairing rule (e.g. `Policy::Static` under a paced open stream,
    /// run to show what non-adaptive scheduling costs). Every other
    /// validation still applies.
    pub fn as_baseline(mut self) -> Self {
        self.run.baseline = true;
        self
    }

    /// Declares the input feed: item index → input. Backends that
    /// execute stage functions on real items (threads) require one; the
    /// simulator ignores it.
    pub fn feed(mut self, f: impl Fn(u64) -> In + Send + 'static) -> Self {
        self.run.feed = Some(Box::new(f));
        self
    }

    /// Declares one stage on the graph, fed by the tail, and makes it
    /// the new tail.
    fn then<Out>(
        self,
        declare: impl FnOnce(&mut DagBuilder<In>, Node<Cur>) -> Node<Out>,
    ) -> PipelineBuilder<In, Out> {
        PipelineBuilder {
            chain: self.chain.then(declare),
            run: self.run,
        }
    }

    /// Appends a stateless stage with default cost metadata (1 work
    /// unit per item, no boundary bytes). The closure must be `Clone`
    /// so the runtime can replicate the stage across nodes.
    pub fn stage<Out, F>(self, name: impl Into<String>, f: F) -> PipelineBuilder<In, Out>
    where
        Out: Send + 'static,
        F: FnMut(Cur) -> Out + Send + Clone + 'static,
    {
        self.stage_with(StageSpec::balanced(name, 1.0, 0), f)
    }

    /// Appends a stateless stage replicable up to `replicas` nodes —
    /// the declared replication property the planner may exploit. A
    /// bound of zero is rejected at [`PipelineBuilder::build`].
    pub fn stage_replicated<Out, F>(
        self,
        name: impl Into<String>,
        f: F,
        replicas: usize,
    ) -> PipelineBuilder<In, Out>
    where
        Out: Send + 'static,
        F: FnMut(Cur) -> Out + Send + Clone + 'static,
    {
        self.stage_with(StageSpec::balanced(name, 1.0, 0).with_replicas(replicas), f)
    }

    /// Appends a stage with explicit cost metadata. The stage
    /// replicates iff `spec`'s declared state is replicable (stateless,
    /// keyed, accumulator); exclusive and opaque declarations run it as
    /// one instance, never copied.
    pub fn stage_with<Out, F>(self, spec: StageSpec, f: F) -> PipelineBuilder<In, Out>
    where
        Out: Send + 'static,
        F: FnMut(Cur) -> Out + Send + Clone + 'static,
    {
        self.then(|graph, tail| graph.node_with(spec, tail, f))
    }

    /// Appends a stateful stage with *opaque* (undeclared) closure
    /// state: it runs as one instance that is never copied, migrating
    /// it costs `spec.state_bytes` of transfer, and losing its node
    /// permanently fails the run with `RunError::StatefulStageLost` —
    /// the runtime cannot move state it cannot serialize. Prefer the
    /// declared patterns ([`PipelineBuilder::keyed_stage`],
    /// [`PipelineBuilder::accumulator_stage`],
    /// [`PipelineBuilder::exclusive_stage`]), which replicate and/or
    /// live-migrate instead. The closure needs no `Clone` bound, so it
    /// cannot replicate: a replicable declaration is normalised to
    /// opaque.
    pub fn stateful_stage<Out, F>(self, spec: StageSpec, f: F) -> PipelineBuilder<In, Out>
    where
        Out: Send + 'static,
        F: FnMut(Cur) -> Out + Send + 'static,
    {
        self.then(|graph, tail| graph.stateful_node_with(spec, tail, f))
    }

    /// Appends a *fallible* stateless stage: the closure may reject an
    /// item with an error string, and the stage's declared
    /// [`ResiliencePolicy`] (see [`PipelineBuilder::resilience`])
    /// decides what happens — retry with backoff, dead-letter
    /// diversion, or the default: fail fast, ending the run with
    /// [`RunError::PoisonItem`] (`attempts == 1`) on either backend.
    /// The input must be `Clone` so a failed attempt hands the
    /// untouched item back for re-presentation.
    pub fn try_stage<Out, F>(self, name: impl Into<String>, f: F) -> PipelineBuilder<In, Out>
    where
        Cur: Clone,
        Out: Send + 'static,
        F: FnMut(Cur) -> Result<Out, String> + Send + Clone + 'static,
    {
        self.try_stage_with(StageSpec::balanced(name, 1.0, 0), f)
    }

    /// Appends a fallible stage with explicit cost metadata; it
    /// replicates iff the declared state does, as on
    /// [`PipelineBuilder::stage_with`].
    pub fn try_stage_with<Out, F>(self, spec: StageSpec, f: F) -> PipelineBuilder<In, Out>
    where
        Cur: Clone,
        Out: Send + 'static,
        F: FnMut(Cur) -> Result<Out, String> + Send + Clone + 'static,
    {
        self.then(|graph, tail| graph.try_node_with(spec, tail, f))
    }

    /// Declares the failure-handling policy of the most recently
    /// appended stage: bounded retries with exponential backoff,
    /// dead-letter diversion, per-hop tracing — honoured identically
    /// by both backends. A call before
    /// any stage was appended is ignored.
    pub fn resilience(self, policy: ResiliencePolicy) -> Self {
        self.then(|graph, tail| {
            graph.resilience(policy);
            tail
        })
    }

    /// Appends a stage with *keyed* state: items hash to one of
    /// `shards` independent state slices via `key`, each first-seen key
    /// is seeded from `init`, and `f` folds the item into its key's
    /// state. The planner may replicate the stage up to `shards` ways
    /// (each replica owns a shard subset), and a shard whose owner dies
    /// is quiesced, snapshotted, and resumed on a live node — the run
    /// survives.
    ///
    /// ```
    /// use adapipe::prelude::*;
    ///
    /// let pipeline = Pipeline::<u64>::builder()
    ///     .keyed_stage("count", 4, |x: &u64| x % 7, || 0u64, |seen, x: u64| {
    ///         *seen += 1;
    ///         (x, *seen)
    ///     })
    ///     .build()
    ///     .expect("valid keyed pipeline");
    /// assert_eq!(pipeline.len(), 1);
    /// ```
    pub fn keyed_stage<Out, S, K, F>(
        self,
        name: impl Into<String>,
        shards: usize,
        key: K,
        init: impl Fn() -> S + Send + Sync + 'static,
        f: F,
    ) -> PipelineBuilder<In, Out>
    where
        Out: Send + 'static,
        S: StateCodec + Send + 'static,
        K: Fn(&Cur) -> u64 + Send + Sync + 'static,
        F: FnMut(&mut S, Cur) -> Out + Send + Clone + 'static,
    {
        self.keyed_stage_with(
            StageSpec::balanced(name, 1.0, 0).with_keyed_state(shards, 0),
            key,
            init,
            f,
        )
    }

    /// [`PipelineBuilder::keyed_stage`] with explicit cost metadata;
    /// `spec` must declare keyed state ([`StageSpec::with_keyed_state`]).
    ///
    /// # Panics
    /// Panics if `spec` does not declare keyed state — the shard count
    /// is part of the declaration, not something the builder can guess.
    pub fn keyed_stage_with<Out, S, K, F>(
        self,
        spec: StageSpec,
        key: K,
        init: impl Fn() -> S + Send + Sync + 'static,
        f: F,
    ) -> PipelineBuilder<In, Out>
    where
        Out: Send + 'static,
        S: StateCodec + Send + 'static,
        K: Fn(&Cur) -> u64 + Send + Sync + 'static,
        F: FnMut(&mut S, Cur) -> Out + Send + Clone + 'static,
    {
        self.then(|graph, tail| graph.keyed_node_with(spec, tail, key, init, f))
    }

    /// Appends a stage with *accumulator* state: one logical value with
    /// a commutative `merge`. Replicas keep partials seeded from
    /// `init`; a replica vacating a host (re-map or node death) hands
    /// its partial to a survivor through `merge`, so the run survives
    /// and no contribution is lost. Explicit cost metadata is declared
    /// on the graph builder, [`DagBuilder::accumulator_node_with`].
    pub fn accumulator_stage<Out, S, F, M>(
        self,
        name: impl Into<String>,
        init: impl Fn() -> S + Send + Sync + 'static,
        f: F,
        merge: M,
    ) -> PipelineBuilder<In, Out>
    where
        Out: Send + 'static,
        S: StateCodec + Send + 'static,
        F: FnMut(&mut S, Cur) -> Out + Send + Clone + 'static,
        M: Fn(&mut S, S) + Send + Sync + 'static,
    {
        let spec = StageSpec::balanced(name, 1.0, 0).with_accumulator_state(0);
        self.then(|graph, tail| graph.accumulator_node_with(spec, tail, init, f, merge))
    }

    /// Appends a stage with *exclusive* declared state: serializable
    /// but indivisible, seeded from `init`. Exactly one live instance
    /// ever runs, but unlike [`PipelineBuilder::stateful_stage`] the
    /// state can quiesce, snapshot, and resume on another host — a node
    /// death migrates it instead of aborting the run.
    pub fn exclusive_stage<Out, S, F>(
        self,
        name: impl Into<String>,
        init: impl Fn() -> S + Send + Sync + 'static,
        f: F,
    ) -> PipelineBuilder<In, Out>
    where
        Out: Send + 'static,
        S: StateCodec + Send + 'static,
        F: FnMut(&mut S, Cur) -> Out + Send + Clone + 'static,
    {
        self.exclusive_stage_with(
            StageSpec::balanced(name, 1.0, 0).with_exclusive_state(0),
            init,
            f,
        )
    }

    /// [`PipelineBuilder::exclusive_stage`] with explicit cost metadata
    /// (the exclusive declaration is applied if missing).
    pub fn exclusive_stage_with<Out, S, F>(
        self,
        spec: StageSpec,
        init: impl Fn() -> S + Send + Sync + 'static,
        f: F,
    ) -> PipelineBuilder<In, Out>
    where
        Out: Send + 'static,
        S: StateCodec + Send + 'static,
        F: FnMut(&mut S, Cur) -> Out + Send + Clone + 'static,
    {
        self.then(|graph, tail| graph.exclusive_node_with(spec, tail, init, f))
    }

    /// Fans each item out to the given branch sub-pipelines — sugar for
    /// cloning the tail's [`Node`] once per branch
    /// ([`DagBuilder::parallel`]) and closing the block with a
    /// [`DagBuilder::join`] of the branch ends. Every branch
    /// receives its own clone of the item (hence `Cur: Clone`), the
    /// branches execute concurrently (on the threaded backend) over
    /// their own placements, and the block must be closed with
    /// [`ParallelBuilder::merge`] (or
    /// [`ParallelBuilder::merge_with`]), which folds the branch outputs
    /// — delivered in branch order — back into one item:
    ///
    /// ```
    /// use adapipe::prelude::*;
    ///
    /// let pipeline = Pipeline::<u64>::builder()
    ///     .stage("decode", |x: u64| x + 1)
    ///     .parallel(vec![
    ///         Branch::new().stage("analyze", |x: u64| x * 10),
    ///         Branch::new().stage("thumbnail", |x: u64| x + 100),
    ///     ])
    ///     .merge("combine", |outs: Vec<u64>| outs[0] + outs[1])
    ///     .build()
    ///     .expect("valid branched pipeline");
    /// assert_eq!(pipeline.len(), 4, "two branches + merge + decode");
    /// ```
    ///
    /// Structural rules (typed errors at `build()`): a block needs at
    /// least two branches ([`BuildError::TooFewBranches`]) and every
    /// branch at least one stage ([`BuildError::EmptyBranch`]).
    pub fn parallel<B>(self, branches: Vec<Branch<Cur, B>>) -> ParallelBuilder<In, B>
    where
        Cur: Clone,
        B: Send + 'static,
    {
        let (mut graph, tail) = self.chain.into_graph();
        let branches = branches.into_iter().map(|b| (b.chain, b.cap)).collect();
        let ends = graph.parallel(tail, branches);
        ParallelBuilder {
            graph,
            ends,
            run: self.run,
        }
    }

    /// Validates and finalises the pipeline. See the module docs (and
    /// [`adapipe_runtime::session`]) for the full rule set; branched
    /// declarations additionally require at least two branches per
    /// parallel block and a non-empty stage list per branch, and a
    /// [`DagBuilder`] graph one sink, which must be its exit node.
    pub fn build(self) -> Result<Pipeline<In, Cur>, BuildError> {
        let (graph, exit) = self.chain.into_graph();
        let core = graph.finish(exit)?;
        let run = self.run;
        let session = if run.baseline {
            Session::baseline(run.policy, run.arrivals)?
        } else {
            Session::new(run.policy, run.arrivals)?
        };
        Ok(Pipeline {
            core,
            session,
            feed: run.feed,
            faults: run.faults,
        })
    }
}

/// A branch sub-pipeline of a [`PipelineBuilder::parallel`] block:
/// a typed chain of stages from the block's input type `I` to the
/// branch output `Cur`. All branches of one block must end in the same
/// output type (the merge receives `Vec` of it, in branch order).
pub struct Branch<I, Cur = I> {
    chain: CoreChain<I, Cur>,
    /// Per-branch replication cap, tightening each stage's own bound.
    cap: usize,
}

impl<I: Send + 'static> Branch<I, I> {
    /// Starts a branch whose input (the fanned-out item) has type `I`.
    pub fn new() -> Self {
        Branch {
            chain: CoreChain::new(),
            cap: usize::MAX,
        }
    }
}

impl<I: Send + 'static> Default for Branch<I, I> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: Send + 'static, Cur: Send + 'static> Branch<I, Cur> {
    /// Appends a stateless stage with default cost metadata.
    pub fn stage<Out, F>(self, name: impl Into<String>, f: F) -> Branch<I, Out>
    where
        Out: Send + 'static,
        F: FnMut(Cur) -> Out + Send + Clone + 'static,
    {
        self.stage_with(StageSpec::balanced(name, 1.0, 0), f)
    }

    /// Appends a stateless stage replicable up to `replicas` nodes.
    pub fn stage_replicated<Out, F>(
        self,
        name: impl Into<String>,
        f: F,
        replicas: usize,
    ) -> Branch<I, Out>
    where
        Out: Send + 'static,
        F: FnMut(Cur) -> Out + Send + Clone + 'static,
    {
        self.stage_with(StageSpec::balanced(name, 1.0, 0).with_replicas(replicas), f)
    }

    /// Appends a stage with explicit cost metadata; it replicates iff
    /// the declared state does, as on the main builder.
    pub fn stage_with<Out, F>(self, spec: StageSpec, f: F) -> Branch<I, Out>
    where
        Out: Send + 'static,
        F: FnMut(Cur) -> Out + Send + Clone + 'static,
    {
        Branch {
            chain: self.chain.stage(spec, f),
            cap: self.cap,
        }
    }

    /// Declares the branch-wide replication cap: no stage of this
    /// branch may be farmed wider, on top of each stage's own declared
    /// bound. A cap of zero is rejected at `build()` like any other
    /// zero replica bound.
    pub fn replicas(mut self, cap: usize) -> Self {
        self.cap = cap;
        self
    }
}

/// A [`PipelineBuilder`] whose last declaration was an open
/// [`PipelineBuilder::parallel`] block: the only way forward is
/// [`ParallelBuilder::merge`] / [`ParallelBuilder::merge_with`], so an
/// unmerged block is unrepresentable.
pub struct ParallelBuilder<In, B> {
    graph: DagBuilder<In>,
    /// The last stage of each branch, in branch order.
    ends: Vec<Node<B>>,
    run: RunDecl<In>,
}

impl<In: Send + 'static, B: Send + 'static> ParallelBuilder<In, B> {
    /// Closes the parallel block with a merge stage of default cost
    /// metadata: `f` receives one output per branch, in branch order,
    /// and folds them into the block's single output.
    pub fn merge<Out, F>(self, name: impl Into<String>, f: F) -> PipelineBuilder<In, Out>
    where
        Out: Send + 'static,
        F: FnMut(Vec<B>) -> Out + Send + Clone + 'static,
    {
        self.merge_with(StageSpec::balanced(name, 1.0, 0), f)
    }

    /// Closes the parallel block with a merge stage carrying explicit
    /// cost metadata. The merge replicates iff the declared state does;
    /// an exclusive or opaque declaration pins it to width one (it may
    /// accumulate across items).
    pub fn merge_with<Out, F>(self, spec: StageSpec, f: F) -> PipelineBuilder<In, Out>
    where
        Out: Send + 'static,
        F: FnMut(Vec<B>) -> Out + Send + Clone + 'static,
    {
        let mut graph = self.graph;
        let tail = graph.join_with(spec, self.ends, f);
        PipelineBuilder {
            run: self.run,
            ..graph.exit(tail)
        }
    }
}

/// Builder for a pipeline over a *general DAG* of named stages: core's
/// one graph builder ([`adapipe_core::pipeline::DagBuilder`]), whose
/// `exit` hands back this module's [`PipelineBuilder`]. Each
/// declaration — `node`, `try_node`, `join`, their `_with` forms and
/// the declared-state kinds — names its producers by their typed
/// [`Node`] handles and returns the handle of the new stage, starting
/// from `input()`. `exit(node)` names the node whose output the
/// pipeline delivers and hands back a [`PipelineBuilder`] for the run
/// declarations and `build()`.
///
/// A handle names only a stage that already exists, so every edge
/// points backwards: the graph has no cycle, self-edge or unknown
/// stage to report. Types are checked where the handle is passed, and
/// a stage feeding several consumers needs its handle cloned, which
/// needs a `Clone` output. What is left for `build()` returns a typed
/// [`BuildError`]: [`BuildError::UnreachableStage`] and
/// [`BuildError::InvalidEdge`] for a dangling node, a join of fewer
/// than two stages, one handle given to a join twice, or an exit that
/// is not the graph's one sink, plus every rule of
/// [`PipelineBuilder::build`].
///
/// ```
/// use adapipe::prelude::*;
///
/// // fetch ─┬─ parse ─┐
/// //        └─ audit ─┴─ combine → sink
/// let mut dag = Pipeline::<u64>::dag();
/// let fetch = dag.node("fetch", dag.input(), |x: u64| x + 1);
/// let parse = dag.node("parse", fetch.clone(), |x: u64| x * 2);
/// let audit = dag.node("audit", fetch, |x: u64| x * 10);
/// let combine = dag.join("combine", vec![parse, audit], |outs: Vec<u64>| {
///     outs[0] + outs[1]
/// });
/// let sink = dag.node("sink", combine, |x: u64| x);
/// let pipeline = dag.exit(sink).build().expect("valid DAG");
/// assert_eq!(pipeline.len(), 5);
/// ```
///
/// Each snippet that must not compile below has a twin that does,
/// differing only in the line under test, so the snippet fails for the
/// reason it names and not for a missing import.
///
/// An edge into a stage of another input type does not compile:
///
/// ```compile_fail
/// use adapipe::prelude::*;
///
/// let mut dag = Pipeline::<u64>::dag();
/// let count = dag.node("count", dag.input(), |x: u64| x + 1);
/// let _ = dag.node("shout", count, |s: String| s.to_uppercase());
/// ```
///
/// ```
/// use adapipe::prelude::*;
///
/// let mut dag = Pipeline::<u64>::dag();
/// let count = dag.node("count", dag.input(), |x: u64| x + 1);
/// let _ = dag.node("shout", count, |x: u64| x.to_string());
/// ```
///
/// Nor does an exit whose type is not the declared output:
///
/// ```compile_fail
/// use adapipe::prelude::*;
///
/// let mut dag = Pipeline::<u64>::dag();
/// let count = dag.node("count", dag.input(), |x: u64| x + 1);
/// let _: Pipeline<u64, String> = dag.exit(count).build().unwrap();
/// ```
///
/// ```
/// use adapipe::prelude::*;
///
/// let mut dag = Pipeline::<u64>::dag();
/// let count = dag.node("count", dag.input(), |x: u64| x + 1);
/// let _: Pipeline<u64, u64> = dag.exit(count).build().unwrap();
/// ```
///
/// Nor fanning out a stage whose output cannot be copied:
///
/// ```compile_fail
/// use adapipe::prelude::*;
///
/// struct Frame(Vec<u8>); // not Clone
/// let mut dag = Pipeline::<u64>::dag();
/// let frame = dag.node("frame", dag.input(), |x: u64| Frame(vec![x as u8]));
/// let size = dag.node("size", frame.clone(), |f: Frame| f.0.len());
/// let head = dag.node("head", frame, |f: Frame| f.0[0] as usize);
/// let _ = dag.join("both", vec![size, head], |v: Vec<usize>| v[0] + v[1]);
/// ```
///
/// ```
/// use adapipe::prelude::*;
///
/// #[derive(Clone)]
/// struct Frame(Vec<u8>);
/// let mut dag = Pipeline::<u64>::dag();
/// let frame = dag.node("frame", dag.input(), |x: u64| Frame(vec![x as u8]));
/// let size = dag.node("size", frame.clone(), |f: Frame| f.0.len());
/// let head = dag.node("head", frame, |f: Frame| f.0[0] as usize);
/// let _ = dag.join("both", vec![size, head], |v: Vec<usize>| v[0] + v[1]);
/// ```
pub type DagBuilder<In> = CoreDag<In, Pipeline<In>>;

/// A facade [`DagBuilder`] graph ends in a facade [`PipelineBuilder`],
/// its run declared as the defaults: [`Policy::Static`], every item at
/// once, no feed, no faults.
impl<In: Send + 'static> Exit<In> for Pipeline<In> {
    type Builder<Out> = PipelineBuilder<In, Out>;

    fn wrap<Out>(chain: CoreChain<In, Out, Self>) -> PipelineBuilder<In, Out> {
        PipelineBuilder {
            chain,
            run: RunDecl {
                policy: Policy::Static,
                arrivals: ArrivalProcess::AllAtOnce,
                baseline: false,
                feed: None,
                faults: FaultPlan::new(),
            },
        }
    }
}
