//! The simulation backend's live session: the typed push/pull surface
//! over a stepped `simengine` world, one implementation of the
//! [`LiveSession`] trait the threaded engine's `EngineSession` also
//! implements.
//!
//! [`SimPool::admit`] enrols a session as a tenant of a [`SimPool`] —
//! one simulated grid shared by many sessions under static shares —
//! whose merged event clock interleaves every tenant's world earliest
//! event first; [`spawn`] is the pool of one.
//! Virtual time never advances on its own: `next()` and `drain()` step
//! the world, `try_next()` only collects what earlier stepping
//! completed.
//!
//! Stage functions run on the caller's thread at push time, in push
//! order — the canonical sequential semantics — through the
//! [`crate::item`] kernel (the same retry loop, join assembly and
//! fan-out walk the threaded workers call). The world executes cost
//! metadata only, so each push hands it the observed outcome (retries
//! per stage, a dead-letter diversion) to charge, and the output is
//! withheld until the simulated world completes the item.

use crate::item::{self, GaveUp, Hops, JoinSlots};
use crate::payload::Payload;
use crate::pipeline::Pipeline;
use crate::simengine::{ItemFate, SimStepper};
use crate::spec::{StageGraph, StageSpec};
use crate::stage::{BoxedItem, DynStage, FanOutFn};
use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::grid::GridSpec;
use adapipe_gridsim::time::SimTime;
use adapipe_mapper::share::ShareQuota;
use adapipe_runtime::arrivals::ArrivalStream;
use adapipe_runtime::report::RunReport;
use adapipe_runtime::session::{
    BuildError, LiveSession, RunConfig, RunError, RunHandle, Session, SessionControl, SessionId,
    TryNext,
};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// A live simulated pipeline run. Obtained from [`spawn`] or
/// [`SimPool::admit`]; applications should prefer the unified
/// `adapipe::api::Pipeline::spawn`, which holds it as a boxed
/// [`LiveSession`].
pub struct SimSession<'g, I, O> {
    /// The steppable world. Shared (`Arc`) so the pool's merged event
    /// clock can reach it through the tenant's weak handle; the session
    /// is the sole owner.
    stepper: Arc<Mutex<SimStepper<'g>>>,
    /// The registry of the pool this session is a tenant of (its own,
    /// when standalone).
    tenants: Tenants<'g>,
    /// Identity, share and eviction flags (shared with the pool).
    tenant: SimTenant<'g>,
    /// `true` after [`LiveSession::close`]: further pushes are a typed
    /// [`RunError::SessionClosed`].
    closed: bool,
    exec: PushExec,
    arrivals: ArrivalStream,
    /// Outputs computed at push, keyed by sequence number; absent for
    /// items that dead-lettered or failed the run.
    outputs: HashMap<u64, BoxedItem>,
    /// `preserve_order`: settled sequence numbers at or past `next_seq`,
    /// the next one to deliver. In completion order the world's own
    /// completion log is the queue.
    done: BTreeSet<u64>,
    next_seq: u64,
    preserve_order: bool,
    _types: PhantomData<fn(I) -> O>,
}

/// Starts `pipeline` on the simulated `grid` under `cfg.faults` as the
/// only tenant of a pool of its own, admitted under
/// [`ShareQuota::default`]: `SessionId(0)`, the whole grid — see
/// [`SimPool::admit`].
pub fn spawn<'g, I, O>(
    grid: &'g GridSpec,
    pipeline: Pipeline<I, O>,
    session: &Session,
    cfg: &RunConfig,
) -> SimSession<'g, I, O> {
    SimPool::new(grid, cfg.faults.clone())
        .admit(pipeline, session, cfg.clone(), ShareQuota::default())
        .expect("a pool of one has the whole grid free")
}

impl<'g, I, O> SimSession<'g, I, O> {
    fn world(&self) -> std::sync::MutexGuard<'_, SimStepper<'g>> {
        self.stepper.lock().expect("sim stepper poisoned")
    }

    /// Takes the next deliverable output among the completions buffered
    /// in the world — possibly completed by a co-tenant's stepping of
    /// the merged clock — without advancing virtual time. Items that
    /// settled without an output (dead-lettered, failed) are skipped.
    fn pop_ready(&mut self) -> Option<BoxedItem> {
        let mut world = self.stepper.lock().expect("sim stepper poisoned");
        if !self.preserve_order {
            while let Some(seq) = world.pop_completion() {
                if let Some(out) = self.outputs.remove(&seq) {
                    return Some(out);
                }
            }
            return None;
        }
        while let Some(seq) = world.pop_completion() {
            self.done.insert(seq);
        }
        while self.done.remove(&self.next_seq) {
            self.next_seq += 1;
            if let Some(out) = self.outputs.remove(&(self.next_seq - 1)) {
                return Some(out);
            }
        }
        None
    }

    /// True while some pushed item has not yet been accounted for —
    /// completed at the sink *or* diverted to the dead-letter channel —
    /// and the world can still make progress toward it.
    fn pending(&self) -> bool {
        if self.tenant.flags.killed.load(Ordering::SeqCst) {
            return false;
        }
        let world = self.world();
        !world.is_exhausted() && world.accounted() < world.pushed()
    }

    /// Immediate shutdown: in-flight items are dropped and the report
    /// comes back `truncated` if anything was lost. (Recovers sole
    /// ownership of the world — the pool holds only weak handles, so
    /// the session leaves the pool with it — and produces the final
    /// report.)
    pub fn abort(self) -> RunReport {
        Arc::try_unwrap(self.stepper)
            .ok()
            .expect("sim stepper uniquely owned at run end")
            .into_inner()
            .expect("sim stepper poisoned")
            .finish()
    }
}

impl<I: Send + 'static, O: Send + 'static> SimSession<'_, I, O> {
    /// Graceful shutdown: closes the stream, steps the world until
    /// every pushed item has settled, and returns the remaining
    /// (un-pulled) outputs plus the standard report.
    pub fn drain(mut self) -> RunHandle<O> {
        self.close();
        let outputs: Vec<O> = self.by_ref().collect();
        let error = self.tenant.control.error();
        RunHandle {
            outputs,
            report: self.abort(),
            error,
        }
    }
}

impl<I: Send + 'static, O: Send + 'static> LiveSession<I, O> for SimSession<'_, I, O> {
    /// Its arrival instant comes from the declared arrival process
    /// (clamped to the world's current virtual time), its stage
    /// functions run now, in push order, and the output is withheld
    /// until the simulated world completes the item.
    fn push(&mut self, item: I) -> Result<u64, RunError> {
        if self.closed {
            return Err(RunError::SessionClosed);
        }
        let flags = &self.tenant.flags;
        if flags.evicting.load(Ordering::SeqCst) || flags.killed.load(Ordering::SeqCst) {
            return Err(RunError::Evicted {
                session: self.tenant.id,
            });
        }
        // Run the stage functions *before* entering the item into the
        // world: the observed outcome rides in with the push so the
        // world can charge the extra attempts and divert the item at
        // the fated stage.
        let seq = self.pushed();
        let (out, fate) = self.exec.run(&self.tenant.control, seq, Payload::new(item));
        let at = self.arrivals.next().expect("arrival stream is infinite");
        let pushed_as = self.world().push_at_with_fate(at, fate);
        debug_assert_eq!(pushed_as, seq);
        if let Some(out) = out {
            self.outputs.insert(seq, out);
        }
        Ok(seq)
    }

    /// Pushes each item in order.
    fn push_batch(&mut self, items: &mut dyn Iterator<Item = I>) -> Result<u64, RunError> {
        let mut n = 0;
        for item in items {
            self.push(item)?;
            n += 1;
        }
        Ok(n)
    }

    fn close(&mut self) {
        self.closed = true;
        self.world().close();
    }

    fn session_id(&self) -> SessionId {
        self.tenant.id
    }

    fn pushed(&self) -> u64 {
        self.world().pushed()
    }

    fn completed(&self) -> u64 {
        self.world().completed()
    }

    fn in_flight(&self) -> u64 {
        let world = self.world();
        world.pushed().saturating_sub(world.accounted())
    }

    /// Never advances virtual time — it only surfaces outputs that
    /// earlier `next()`/`drain()` stepping (this session's or a
    /// co-tenant's) already completed. An idle *open* stream is
    /// `Pending`, not `Done`: the caller may still push.
    fn try_next(&mut self) -> TryNext<O> {
        if let Some(out) = self.pop_ready() {
            return TryNext::Item(downcast_output(out));
        }
        let world_done = {
            let world = self.world();
            world.all_done() || world.is_exhausted()
        };
        if (world_done || self.tenant.flags.killed.load(Ordering::SeqCst)) && self.done.is_empty() {
            TryNext::Done
        } else {
            TryNext::Pending
        }
    }

    fn drain(self: Box<Self>) -> RunHandle<O> {
        SimSession::drain(*self)
    }

    fn abort(self: Box<Self>) -> RunReport {
        SimSession::abort(*self)
    }
}

/// Blocking output iteration, where "blocking" means driving the
/// simulated world forward: `next()` steps until the next output is
/// deliverable and yields `None` once none can ever arrive (every
/// pushed item settled, the world starved or hit its horizon, or the
/// session was force-evicted). With nothing in flight it yields `None`
/// rather than wait for pushes that cannot happen — the session is
/// single-threaded by construction.
impl<I: Send + 'static, O: Send + 'static> Iterator for SimSession<'_, I, O> {
    type Item = O;

    fn next(&mut self) -> Option<O> {
        loop {
            if let Some(out) = self.pop_ready() {
                return Some(downcast_output(out));
            }
            if !self.pending() || !self.tenants.step_earliest() {
                return None;
            }
        }
    }
}

fn downcast_output<O: 'static>(out: BoxedItem) -> O {
    out.downcast::<O>()
        .expect("the typed builder's exit stage produces `O`")
}

/// The push-time executor: one item runs through the stage graph on the
/// caller's thread. Its payloads travel the wired graph (fan-out copies
/// in edge order, join inputs assembled in slot order — exactly what
/// the threaded backend's workers assemble, because both call
/// [`item::forward`] and [`JoinSlots`]) and every stage failure runs
/// [`item::attempt`]. Working memory is sized once per graph, so a push
/// allocates nothing here.
struct PushExec {
    stages: Vec<Box<dyn DynStage>>,
    specs: Vec<StageSpec>,
    graph: StageGraph,
    /// One duplicator per fan block of `graph`.
    fanouts: Vec<FanOutFn>,
    inflight: Inflight,
}

/// Where the one item in flight has got to.
struct Inflight {
    /// The joining stage of each join block.
    joiners: Vec<usize>,
    /// Join assembly, per join block.
    joins: Vec<JoinSlots>,
    /// Payloads ready to be processed, FIFO over the acyclic graph.
    ready: VecDeque<(usize, BoxedItem)>,
    /// The pipeline output, once the exit stage produced it.
    exit: Option<BoxedItem>,
    /// Fan-out scratch, kept for the session's life.
    copies: Vec<BoxedItem>,
}

impl Hops for Inflight {
    fn copies(&mut self) -> &mut Vec<BoxedItem> {
        &mut self.copies
    }

    fn exit(&mut self, payload: BoxedItem) {
        self.exit = Some(payload);
    }

    fn stage(&mut self, stage: usize, payload: BoxedItem) {
        self.ready.push_back((stage, payload));
    }

    fn slot(&mut self, block: usize, slot: usize, part: BoxedItem) {
        if let Some(parts) = self.joins[block].deposit(slot, part) {
            self.stage(self.joiners[block], Payload::new(parts));
        }
    }
}

impl PushExec {
    /// Returns the exit output — `None` when the item dead-letters, or
    /// on a fatal error, which is recorded on `control` (the item then
    /// completes in the simulated world without an output) — plus the
    /// [`ItemFate`] the world needs to charge the retries and divert
    /// the item at the fated stage. `seq` is the sequence number the
    /// item is about to be pushed under (used only in error payloads).
    fn run(
        &mut self,
        control: &SessionControl,
        seq: u64,
        item: BoxedItem,
    ) -> (Option<BoxedItem>, ItemFate) {
        let mut fate = ItemFate::default();
        // An item that ended early (dead-lettered, failed the run) may
        // have left copies behind.
        self.inflight.ready.clear();
        self.inflight.joins.iter_mut().for_each(JoinSlots::clear);
        let mut next = self.graph.entry();
        let mut payload = item;
        loop {
            item::forward(
                &self.graph,
                &self.fanouts,
                &next,
                payload,
                &mut self.inflight,
            );
            if let Some(out) = self.inflight.exit.take() {
                return (Some(out), fate);
            }
            let (stage, mut input) = self
                .inflight
                .ready
                .pop_front()
                .expect("an acyclic graph reaches its exit before the executor drains");
            let mut failed = 0;
            let verdict = item::attempt(
                self.stages[stage].as_mut(),
                &self.specs[stage],
                seq,
                &mut input,
                |_| failed += 1,
            );
            if failed > 0 {
                fate.failed.push((stage, failed));
            }
            match verdict {
                Ok(_attempts) => {
                    payload = input;
                    next = self.graph.after(stage);
                }
                Err(GaveUp::DeadLetter { reason, .. }) => {
                    fate.dead = Some((stage, reason));
                    return (None, fate);
                }
                Err(GaveUp::Fatal(error)) => {
                    control.fail(error);
                    return (None, fate);
                }
            }
        }
    }
}

/// Eviction flags of one pool tenant, shared between its
/// [`SimSession`] and its [`SimTenant`] handles.
#[derive(Default)]
struct TenantFlags {
    /// Graceful eviction: no further pushes are admitted; in-flight
    /// items drain normally.
    evicting: AtomicBool,
    /// Forced eviction: the world no longer participates in the merged
    /// clock and the run unwinds with [`RunError::Evicted`].
    killed: AtomicBool,
}

/// The pool's handle on one simulated tenant: identity, granted share,
/// and eviction. Independent of the typed [`SimSession`].
#[derive(Clone)]
struct SimTenant<'g> {
    id: SessionId,
    share: f64,
    stepper: Weak<Mutex<SimStepper<'g>>>,
    flags: Arc<TenantFlags>,
    control: SessionControl,
}

impl SimTenant<'_> {
    /// True once the tenant was force-evicted or its session is gone.
    fn is_done(&self) -> bool {
        self.flags.killed.load(Ordering::SeqCst) || self.stepper.strong_count() == 0
    }

    /// Forced eviction: the session fails with [`RunError::Evicted`],
    /// its world stops taking part in the merged clock, and its report
    /// comes back truncated. Co-tenants are untouched.
    fn evict_now(&self) {
        self.flags.evicting.store(true, Ordering::SeqCst);
        self.flags.killed.store(true, Ordering::SeqCst);
        self.control.fail(RunError::Evicted { session: self.id });
    }
}

/// The tenant registry of one pool, shared with its sessions — the
/// merged event clock steps through it. Cheap to clone (a shared
/// handle).
#[derive(Clone, Default)]
struct Tenants<'g>(Arc<Mutex<Vec<SimTenant<'g>>>>);

impl<'g> Tenants<'g> {
    fn lock(&self) -> MutexGuard<'_, Vec<SimTenant<'g>>> {
        self.0.lock().expect("sim pool registry poisoned")
    }

    /// The registry of live tenants: done tenants (drained, aborted,
    /// dropped or force-evicted) leave it here, before the caller sees
    /// it.
    fn live(&self) -> MutexGuard<'_, Vec<SimTenant<'g>>> {
        let mut tenants = self.lock();
        tenants.retain(|t| !t.is_done());
        tenants
    }

    /// Advances virtual time by one event — one tick of the merged event
    /// clock: find the live tenant whose
    /// next event is earliest — ties break toward the earliest-admitted
    /// — and step that tenant's world once. Force-evicted, dropped and
    /// exhausted worlds no longer participate. Returns `false` when no
    /// world can fire another event.
    fn step_earliest(&self) -> bool {
        let mut best: Option<(SimTime, Arc<Mutex<SimStepper<'g>>>)> = None;
        for tenant in self.lock().iter() {
            if tenant.flags.killed.load(Ordering::SeqCst) {
                continue;
            }
            let Some(stepper) = tenant.stepper.upgrade() else {
                continue;
            };
            let next = {
                let world = stepper.lock().expect("sim stepper poisoned");
                if world.is_exhausted() {
                    None
                } else {
                    world.next_event_at()
                }
            };
            if let Some(at) = next {
                if best.as_ref().is_none_or(|(bt, _)| at < *bt) {
                    best = Some((at, stepper));
                }
            }
        }
        match best {
            Some((_, stepper)) => stepper.lock().expect("sim stepper poisoned").step(),
            None => false,
        }
    }
}

/// One simulated grid time-shared by many sessions, deterministically:
/// the grid, the pool's fault plan, the tenant registry and the next
/// session id.
///
/// There is no arbiter here. [`SimPool::admit`] grants each tenant a
/// *static* share — its quota ceiling — which the tenant's world
/// applies to every service time and sensed rate; the granted ceilings
/// may not oversubscribe the pool. The tenants' worlds interleave
/// through the merged event clock, earliest event first.
///
/// Eviction is two-speed, as on the threaded backend:
/// [`SimPool::evict`] stops new pushes and lets in-flight work drain,
/// [`SimPool::evict_now`] fails the tenant immediately with a typed
/// [`RunError::Evicted`].
pub struct SimPool<'g> {
    grid: &'g GridSpec,
    /// Node churn of the shared pool: every tenant's world applies the
    /// same plan, so outages hit all tenants at the same instants.
    faults: FaultPlan,
    next_id: u64,
    tenants: Tenants<'g>,
}

impl<'g> SimPool<'g> {
    /// An empty pool over `grid` whose every tenant runs under `faults`.
    pub fn new(grid: &'g GridSpec, faults: FaultPlan) -> Self {
        SimPool {
            grid,
            faults,
            next_id: 0,
            tenants: Tenants::default(),
        }
    }

    /// Number of nodes in the shared grid.
    pub fn node_count(&self) -> usize {
        self.grid.len()
    }

    /// Admits `pipeline` as a new tenant running `session` under `cfg`
    /// and returns its live session. The pool supplies what it owns:
    /// the tenant's id (next in admission order), its capacity share
    /// (`quota.max_share`, granted statically), and the fault plan,
    /// which replaces `cfg.faults`. Each tenant simulates the whole
    /// grid, scaled to its share.
    ///
    /// `cfg.items` only seeds the adaptation loop's remaining-work
    /// amortisation (the true stream length is whatever is pushed
    /// before [`LiveSession::close`]); pushed items take their arrival
    /// instants from `session`'s arrival process. With
    /// `cfg.preserve_order` outputs come in push order, otherwise in
    /// completion order.
    ///
    /// # Errors
    /// [`BuildError::PoolOversubscribed`] when the share would exceed
    /// what the live tenants' grants leave of the pool.
    ///
    /// # Panics
    /// Panics if the launch mapping does not fit the pipeline or the
    /// grid, or if the share is zero.
    pub fn admit<I, O>(
        &mut self,
        pipeline: Pipeline<I, O>,
        session: &Session,
        mut cfg: RunConfig,
        quota: ShareQuota,
    ) -> Result<SimSession<'g, I, O>, BuildError> {
        let share = quota.max_share;
        let taken: f64 = self.tenants.live().iter().map(|t| t.share).sum();
        if share > 1.0 - taken + 1e-9 {
            return Err(BuildError::PoolOversubscribed {
                requested: share,
                available: (1.0 - taken).max(0.0),
            });
        }
        cfg.faults = self.faults.clone();
        let id = SessionId(self.next_id);
        self.next_id += 1;
        let (spec, stages, fanouts, _keys) = pipeline.into_parts();
        let graph = spec.graph.clone();
        let exec = PushExec {
            inflight: Inflight {
                joiners: (0..graph.join_blocks())
                    .map(|b| graph.merge_of(b))
                    .collect(),
                joins: (0..graph.join_blocks())
                    .map(|b| JoinSlots::new(graph.join_width(b)))
                    .collect(),
                ready: VecDeque::new(),
                exit: None,
                copies: Vec::new(),
            },
            stages,
            specs: spec.stages.clone(),
            graph,
            fanouts,
        };
        let stepper = Arc::new(Mutex::new(SimStepper::new(
            self.grid, spec, session, &cfg, id, share,
        )));
        let tenant = SimTenant {
            id,
            share,
            stepper: Arc::downgrade(&stepper),
            flags: Arc::default(),
            control: cfg.control.clone(),
        };
        self.tenants.lock().push(tenant.clone());
        Ok(SimSession {
            stepper,
            tenants: self.tenants.clone(),
            tenant,
            closed: false,
            exec,
            arrivals: session.arrivals().stream(),
            outputs: HashMap::new(),
            done: BTreeSet::new(),
            next_seq: 0,
            preserve_order: cfg.preserve_order,
            _types: PhantomData,
        })
    }

    /// Live tenants, in admission order.
    pub fn sessions(&self) -> Vec<SessionId> {
        self.tenants.live().iter().map(|t| t.id).collect()
    }

    /// Runs `f` on the live tenant `session`, if there is one.
    fn with_tenant<T>(&self, session: SessionId, f: impl FnOnce(&SimTenant<'g>) -> T) -> Option<T> {
        self.tenants.live().iter().find(|t| t.id == session).map(f)
    }

    /// The static share granted to `session`, if it is a live tenant.
    pub fn share_of(&self, session: SessionId) -> Option<f64> {
        self.with_tenant(session, |t| t.share)
    }

    /// Graceful eviction: the session stops admitting new pushes
    /// ([`RunError::Evicted`]) but its in-flight items drain normally.
    /// Returns false if the session is not a live tenant.
    pub fn evict(&self, session: SessionId) -> bool {
        self.with_tenant(session, |t| t.flags.evicting.store(true, Ordering::SeqCst))
            .is_some()
    }

    /// Forced eviction: the session fails immediately with
    /// [`RunError::Evicted`], its report comes back truncated, and its
    /// share returns to the pool. Returns false if the session is not a
    /// live tenant.
    pub fn evict_now(&self, session: SessionId) -> bool {
        self.with_tenant(session, SimTenant::evict_now).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{DagBuilder, PipelineBuilder};
    use crate::spec::ResiliencePolicy;
    use adapipe_gridsim::grid::testbed_small3;

    /// fetch → {parse, audit} → combine, where parse rejects every
    /// value ending in 4 and dead-letters it after one retry.
    fn fallible_diamond() -> Pipeline<u64, u64> {
        let stage = |name: &str| StageSpec::balanced(name, 1.0, 8);
        let mut dag = DagBuilder::<u64>::default();
        let fetch = dag.node_with(stage("fetch"), dag.input(), |x: u64| x + 1);
        let parse = dag.try_node_with(stage("parse"), fetch.clone(), |v: u64| {
            if v % 10 == 4 {
                Err(format!("indigestible payload {v}"))
            } else {
                Ok(v * 10)
            }
        });
        dag.resilience(ResiliencePolicy::new().retries(1).dead_letter());
        let audit = dag.node_with(stage("audit"), fetch, |v: u64| v + 100);
        let combine = dag.join_with(stage("combine"), vec![parse, audit], |parts: Vec<u64>| {
            parts[0] + parts[1]
        });
        dag.finish(combine).expect("a diamond")
    }

    #[test]
    fn dead_lettered_items_leave_no_join_state_behind() {
        let grid = testbed_small3();
        let mut session = spawn(
            &grid,
            fallible_diamond(),
            &Session::default(),
            &RunConfig::default(),
        );
        for i in 0..50 {
            session.push(i).unwrap();
        }
        session.close();
        let outputs: Vec<u64> = session.by_ref().collect();
        let healthy: Vec<u64> = (1..=50u64)
            .filter(|v| v % 10 != 4)
            .map(|v| v * 10 + v + 100)
            .collect();
        assert_eq!(outputs, healthy);
        // Every item has settled; the audit copies of the five diverted
        // items reached the join before or after the diversion, and
        // none may still be counted there or pinned to a merge host.
        assert_eq!(session.world().accounted(), 50);
        assert_eq!(session.world().join_state(), 0);
        let (rest, report) = session.drain().into_parts();
        assert!(rest.is_empty());
        assert_eq!(report.dead_letters, 5);
        assert_eq!(report.retries, 5);
        assert!(!report.truncated);
    }

    fn inc() -> Pipeline<u64, u64> {
        PipelineBuilder::<u64>::new()
            .stage(StageSpec::balanced("inc", 1.0, 0), |x: u64| x + 1)
            .build()
    }

    /// Admits [`inc`] under the defaults with `max_share` as its ceiling.
    fn admit<'g>(
        pool: &mut SimPool<'g>,
        max_share: f64,
    ) -> Result<SimSession<'g, u64, u64>, BuildError> {
        pool.admit(
            inc(),
            &Session::default(),
            RunConfig::default(),
            ShareQuota::bounded(0.0, max_share),
        )
    }

    #[test]
    fn static_shares_are_granted_in_admission_order_and_bounded_by_the_pool() {
        let grid = testbed_small3();
        let mut pool = SimPool::new(&grid, FaultPlan::new());
        let mut a = admit(&mut pool, 0.5).expect("half the pool is free");
        let b = admit(&mut pool, 0.5).expect("the other half too");
        let (ida, idb) = (a.session_id(), b.session_id());
        assert_eq!(pool.sessions(), vec![ida, idb]);
        assert_eq!(pool.share_of(idb), Some(0.5));
        assert!(matches!(
            admit(&mut pool, 0.25),
            Err(BuildError::PoolOversubscribed { .. })
        ));

        // A finished tenant's share returns to the pool.
        a.push(1).unwrap();
        let (outputs, report) = a.drain().into_parts();
        assert_eq!(outputs, vec![2]);
        assert!(!report.truncated);
        assert_eq!(pool.sessions(), vec![idb]);
        assert!(!pool.evict(ida), "no longer a tenant");
        let _c = admit(&mut pool, 0.5).expect("A's half is free again");

        // Forced eviction frees a share at once.
        assert!(pool.evict_now(idb));
        assert!(!pool.evict_now(idb), "already gone");
        assert_eq!(pool.share_of(idb), None);
        drop(b);
    }
}
