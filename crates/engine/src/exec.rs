//! The threaded execution engine.
//!
//! One worker thread per virtual node; items travel in type-erased
//! *batched envelopes* (up to `RunConfig::batch_size` items each as
//! sent; a send that finds a backlog queued joins its tail envelope, one
//! clock window at a time) through per-worker inboxes. Routing is lock-free
//! on the hot path: senders route each batch against an immutable
//! [`adapipe_runtime::routing::RoutingSnapshot`]
//! cached per thread and revalidated with one atomic epoch load — the
//! controller re-maps a *running* pipeline by publishing a new snapshot
//! (never by stalling readers behind a lock). Every envelope carries
//! the epoch it was routed under; a worker receiving an envelope for a
//! stage it no longer hosts re-homes it to the stage's current hosts —
//! the same drain-and-forward semantics the simulator models, with the
//! epoch stamp as the staleness proof (a current-epoch envelope always
//! lands on a current host).
//!
//! This module is the *threaded backend* of the shared adaptive
//! runtime: routing goes through `adapipe-runtime`'s
//! [`adapipe_runtime::routing::RoutingTable`],
//! and sensing/planning/re-mapping through its [`AdaptationLoop`] — the
//! identical code the simulator runs (including the realized-throughput
//! regret guard). What lives in this crate is only what is physically
//! threaded: workers, channels, the stage depot, and the re-mapping
//! *commit* (telling vacated hosts to relinquish their stage instances).
//!
//! This file is the engine's public face — the live [`EngineSession`],
//! which reads its own sink and keeps its own report, and the entry
//! points, which take the run's validated [`Session`] and its
//! [`RunConfig`] as they are. The machinery underneath is one module per protocol: `pool` (the
//! threads and their health), `arbiter` (the pool's tenant registry
//! and a cluster's capacity arbiter), `inbox` (waiting, waking, stealing,
//! weighted-fair lanes), `worker` (the loop, placement, shipping),
//! `fusion` (the batch loop and stage fusion), `tenant` (what those
//! threads share about one session: depot, routing, the adaptation
//! thread), `credits`, `item`, and `threads` (the thread cache every
//! lifecycle thread runs on).
//!
//! ## Streaming sessions and backpressure
//!
//! The primary entry point is [`spawn`], which starts the workers and
//! returns a live [`EngineSession`]: the caller pushes items while the
//! pipeline runs, pulls outputs as they complete, and finishes with a
//! graceful [`EngineSession::drain`] or an [`EngineSession::abort`].
//! The batch entry point, [`execute_fed`], is a thin wrapper — spawn,
//! feed the arrival schedule, drain.
//!
//! With `RunConfig::queue_capacity` set, the session enforces a
//! bounded-queue discipline: the total number of in-flight items is
//! capped at `capacity × (stages + 1)` — one bounded buffer per stage
//! boundary, source and sink boundaries included — and
//! [`LiveSession::push`] blocks until a completion frees a slot. The
//! bound is enforced end-to-end with a credit counter rather than with
//! per-channel blocking sends: stages may be *coalesced* on one worker,
//! and with blocking channel sends two workers hosting interleaved
//! stages can block sending to each other's full inboxes — a classic
//! pipeline deadlock. A worker therefore never blocks; only the source
//! does, which is exactly where backpressure belongs, and every
//! inter-stage queue's occupancy is still bounded by the same total.
//!
//! The session *banks* credits: a trip to the gate takes up to a
//! window's worth — a stamp stride for [`LiveSession::push`], the rest
//! of the envelope being filled (as far as the iterator's hint) for
//! [`LiveSession::push_batch`] — and the pushes spend them one per item.
//! Banked credits count as in flight, so the bound above still covers
//! everything, and `close` returns what is left. Credits come back at
//! the sink, from the workers: the worker that ships a sink batch
//! counts its items completed and releases their credits itself, and a
//! dead-lettered item's credit is released where it is diverted. So a
//! blocked pusher is woken by the worker that frees its window, not by
//! a thread in between, and completions are live whether or not the
//! caller polls. A push that finds the gate empty blocks until a
//! window's worth is free at once, at most half the budget (Clark's
//! remedy for silly windows, RFC 813), instead of waking for every
//! credit a completion returns. A part-filled
//! envelope keeps filling through that wait; it is flushed first only
//! when its own items' credits are needed for the wait to end
//! (`pending + need > capacity`), so every wait stays live.
//!
//! Born stamps are paid per window too. [`LiveSession::push`] reads the
//! pool clock once per *stamp window* and stamps every push in the
//! window with that reading. The window holds the session's stride of
//! pushes, which adapts by the fast path's own rule (1–64 items, kept
//! in the hundreds-of-microseconds band), and closes early at every
//! output poll (`try_next`, `next`, `drain`, `close`) and every blocking
//! credit wait; a window slower than a millisecond restarts the stride
//! at 1, because a slow push window means the caller paused. So a born
//! stamp is at most one window early — the bound sink stamps already
//! have — and a paced stream is stamped exactly. `push_batch` stamps
//! its whole call with one reading.
//!
//! Workers block on their inbox (`recv`) and are woken by messages
//! only — work envelopes, depot hand-over notifications, and an
//! explicit shutdown sentinel message at teardown. There is no
//! polling timeout and no idle busy-wake, and that holds for the
//! lifecycle too: a detaching session sleeps until the last worker's
//! ack wakes it, the adaptation thread until its next tick or fault
//! (or teardown), the arbiter until its next window (or shutdown). A
//! worker woken from its park yields once before it pops, so on a busy
//! CPU the pusher that woke it finishes its burst and the worker takes
//! the burst as one envelope.
//!
//! ## Threads
//!
//! * per pool: one worker per vnode, plus the arbiter for a cluster's
//!   pool (one launched with an arbitration window);
//! * per session: an adaptation thread only when the adaptation loop
//!   has a schedule — a tick interval or a pending fault transition. A
//!   `Policy::Static` session on a fault-free pool holds its loop
//!   without a thread, since the loop never wakes, and so runs on the
//!   caller's thread and the pool's alone. No thread sits between the
//!   workers and the session: the session reads the sink itself.
//!
//! Each is a job on the engine's thread cache (`threads`), not a thread
//! of its own: teardown waits for the jobs, their threads go back to
//! the cache, and the next session's jobs run on them. A thread no job
//! takes within 50 ms exits.
//!
//! ## Multi-tenant pools
//!
//! The worker threads belong to a [`Pool`], not to a session: any
//! number of concurrent sessions (heterogeneous stage graphs) attach to
//! one pool with [`attach`], each keeping its own typed push/pull API,
//! routing table, adaptation loop, sink and report, credit gate, and
//! exactly-once replay isolation, and each registered with the pool
//! under its capacity quota. Worker inboxes hold one weighted-fair
//! *lane* per tenant (start-time fair queueing over item counts), so a
//! spiking tenant's backlog cannot starve a steady co-tenant; a
//! cluster's pool runs an arbiter that moves capacity between tenants
//! by setting shares, which reweights both lane service and each
//! tenant's planner view of the pool. Node health is pool-wide (one
//! tenant's fault tracker marking a node down excludes it for
//! everyone), while replay, eviction, and fatal teardown stay strictly
//! tenant-scoped. [`spawn`] is the pool of one: it launches a private
//! pool with no arbiter, attaches the session under the default quota
//! (the whole pool), and shuts the pool down at drain.
//!
//! Ordering: with `preserve_order` (default) outputs are resequenced by
//! item index, in a window over the sequence numbers (`exec/reorder.rs`):
//! an output that finishes early waits in slot `seq − cursor`, an
//! in-order stream leaves the window empty and untouched, and the
//! window is never longer than what is pushed and not yet delivered.
//! The session resequences what it reads off the sink, on the caller's
//! thread, as the caller polls. Credits come back at the sink, not at
//! delivery, so `queue_capacity` bounds what is inside the pipeline;
//! finished outputs wait in the sink channel and this window until the
//! caller polls. During a migration window a *stateful* stage may
//! observe items slightly out of sequence order (items forwarded from
//! the old host race items routed directly to the new one) — the same
//! asynchrony a real grid deployment exhibits; applications needing
//! strict per-stage sequencing should use stateless stages plus a fold
//! at the sink.

use crate::credits::Credits;
use crate::fusion::{next_stride, SLOT_BUFS, STRIDE_SHRINK_ABOVE};
use crate::inbox::Ctrl;
use crate::item::Outbox;
pub use crate::pool::Pool;
use crate::tenant::{Adaptation, RouteCache, Shared, SinkMsg};
use crate::vnode::VNodeSpec;
use crate::worker::ship;
use adapipe_core::payload::Payload;
use adapipe_core::pipeline::Pipeline;
use adapipe_core::spec::Next;
use adapipe_core::stage::BoxedItem;
use adapipe_gridsim::net::{LinkSpec, Topology};
use adapipe_gridsim::time::{SimDuration, SimTime};
use adapipe_mapper::share::ShareQuota;
use adapipe_runtime::adapt::{AdaptationLoop, RuntimeConfig};
use adapipe_runtime::arrivals::ArrivalProcess;
use adapipe_runtime::report::{DeadLetter, ReportBuilder, RunReport};
use adapipe_runtime::session::{
    LiveSession, RunConfig, RunError, RunEvent, RunHandle, Session, SessionId, TryNext,
};
use reorder::Reorder;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bucket width of the reported throughput timeline when
/// [`RunConfig::timeline_bucket`] is `None`, in wall time.
const DEFAULT_TIMELINE_BUCKET: SimDuration = SimDuration::from_millis(500);

/// One item's record from push to delivery: its sequence number,
/// birth and completion on the pool clock ([`Pool::now`]), and payload.
/// An envelope carries its items in these slots, a worker's walk runs
/// each item in the slot it arrived in, and an item that leaves the
/// pipeline stays there: the served envelope's buffer, compacted past
/// the items that went elsewhere, is the sink batch the session
/// delivers from. `done` means something only once the item has left
/// the pipeline; until then it holds the born stamp.
pub(crate) struct ItemSlot {
    pub(crate) seq: u64,
    pub(crate) born: SimTime,
    pub(crate) done: SimTime,
    pub(crate) payload: BoxedItem,
}

impl ItemSlot {
    /// A slot for `payload`, born at `born`, on its way into a stage.
    #[inline]
    pub(crate) fn new(seq: u64, born: SimTime, payload: BoxedItem) -> Self {
        ItemSlot {
            seq,
            born,
            done: born,
            payload,
        }
    }
}

/// One clock reading shared by a run of per-item pushes: the born
/// stamp of every push in the window. [`EngineSession::push`] reads the
/// pool clock only to open a window; the window holds `stride` pushes
/// and closes early at any output poll and at any blocking credit wait,
/// so a stamp is at most one window early. The stride adapts by the
/// fast path's own rule ([`next_stride`]) from each window's time — the
/// pushes in it and whatever the caller did up to the push that opens
/// the next — except that a window slower than [`STRIDE_SHRINK_ABOVE`]
/// restarts it at 1: a slow push window means the caller paused, and
/// the stamps after a pause must be exact again at once.
struct StampWindow {
    /// The window's clock reading.
    born: SimTime,
    stride: u32,
    /// Pushes stamped in the window so far.
    taken: u32,
    /// Pushes the window still admits; zero when spent or closed.
    left: u32,
}

impl StampWindow {
    fn new() -> Self {
        StampWindow {
            born: SimTime::ZERO,
            stride: 1,
            taken: 0,
            left: 0,
        }
    }

    /// The next push's born stamp; reads `clock` only to open a window.
    #[inline]
    fn stamp(&mut self, clock: impl FnOnce() -> SimTime) -> SimTime {
        if self.left == 0 {
            self.open(clock());
        }
        self.left -= 1;
        self.taken += 1;
        self.born
    }

    /// Adapts the stride from the window that `now` ends, if one ran,
    /// and opens the next at `now`.
    fn open(&mut self, now: SimTime) {
        if self.taken > 0 {
            let w = Duration::from_nanos(now.saturating_since(self.born).as_nanos());
            self.stride = if w > STRIDE_SHRINK_ABOVE {
                1
            } else {
                next_stride(self.stride, self.taken as usize, w)
            };
        }
        self.born = now;
        self.taken = 0;
        self.left = self.stride;
    }

    /// Ends the window early: the next push reads the clock.
    fn close(&mut self) {
        self.left = 0;
    }
}

/// Feeds a batch of source items into the pipeline entry: one envelope
/// to the entry stage, or — when the input fans out to several entry
/// stages — the same walk every stage output takes, grouped into one
/// envelope per entry (the in-flight credit still counts *items*, not
/// copies). Returns `items`' emptied buffer when it comes back (see
/// [`ship`]).
fn push_entry(
    shared: &Arc<Shared>,
    cache: &mut RouteCache,
    mut items: Vec<ItemSlot>,
) -> Option<Vec<ItemSlot>> {
    // Borrowed, not cloned: a per-item push ships one envelope per
    // item, and a clone is two atomic read-modify-writes on each.
    let snap = cache.current(shared);
    let entry = shared.spec.graph.entry();
    if let Next::Stage(stage) = entry {
        return ship(shared, snap, stage, items);
    }
    // A pipeline has at least one stage: nothing exits at the entry,
    // the sink batch stays empty.
    let mut outbox = Outbox::new(items.len());
    for slot in items.drain(..) {
        outbox.send(shared, &entry, slot.seq, slot.born, slot.payload);
    }
    outbox.dispatch(shared, snap);
    Some(items)
}

/// A live threaded pipeline: workers are running, the caller feeds
/// items and pulls outputs while adaptation happens underneath. See the
/// module docs for the backpressure discipline.
///
/// Obtained from [`spawn`]; applications should prefer the unified
/// `adapipe::api::Pipeline::spawn`, which holds it as a boxed
/// [`LiveSession`].
pub struct EngineSession<I, O> {
    pub(crate) shared: Arc<Shared>,
    credits: Option<Arc<Credits>>,
    /// True when this session launched its own pool ([`spawn`]): the
    /// pool is shut down when the session tears down. Cluster-attached
    /// sessions leave the pool running for their co-tenants.
    owns_pool: bool,
    /// The loop's home until teardown takes it; `None` once the session
    /// is torn down.
    adaptation: Option<Adaptation>,
    /// What the workers settle at the sink: finished batches, dead
    /// letters and a fatal teardown's notice, read as the caller polls.
    sink_rx: Receiver<SinkMsg>,
    /// The report rows of every sink message read so far.
    report: ReportBuilder,
    /// Set by [`SinkMsg::Fatal`]: nothing after it is read.
    fatal: bool,
    events: adapipe_runtime::session::EventBus,
    /// The pusher's lock-free routing view.
    cache: RouteCache,
    /// Input buffered towards the next envelope (≤ `batch_size` items,
    /// each already holding a credit).
    pending: Vec<ItemSlot>,
    batch_size: usize,
    /// Born stamps of per-item pushes (see [`StampWindow`]).
    stamp: StampWindow,
    /// Credits taken from the gate and not yet spent (bounded sessions
    /// only). They count as in flight; `close` returns what is left.
    held: u64,
    /// Finished items read off the sink but not yet delivered to the
    /// caller: the rest of the last sink batch, which is the buffer a
    /// worker served those items in.
    inbuf: VecDeque<ItemSlot>,
    pushed: u64,
    closed: bool,
    preserve_order: bool,
    /// Resequencer (`preserve_order` only).
    reorder: Reorder<O>,
    _types: PhantomData<fn(I) -> O>,
}

impl<I, O> EngineSession<I, O>
where
    I: Send + 'static,
    O: Send + 'static,
{
    /// The lifecycle check every push passes before it takes a credit.
    fn admit(&self) -> Result<(), RunError> {
        if self.closed {
            return Err(RunError::SessionClosed);
        }
        if self.shared.evicting.load(Ordering::Relaxed) {
            return Err(RunError::Evicted {
                session: SessionId(self.shared.id),
            });
        }
        Ok(())
    }

    /// Spends one credit on the next item (bounded sessions only). An
    /// empty bank takes up to `want` — the push's window, asked for only
    /// then — from the gate in one trip. A gate found empty is Clark's
    /// silly-window case: the pusher blocks until a window's worth is
    /// free at once, `need = min(want, max(1, capacity / 2))`, rather
    /// than waking for every credit that comes back. Buffered items hold
    /// credits only completions can return, so they are flushed first
    /// exactly when the wait could not end otherwise (`pending + need >
    /// capacity`); a part-filled envelope keeps filling through every
    /// other wait.
    #[inline]
    fn take_credit(&mut self, want: impl FnOnce(&Self) -> usize) {
        if self.held == 0 {
            let Some(credits) = &self.credits else { return };
            let want = want(self);
            self.held = credits.try_acquire_n(want as u64);
            if self.held == 0 {
                let credits = Arc::clone(credits);
                let need = (want as u64).min((credits.capacity() / 2).max(1));
                if self.pending.len() as u64 + need > credits.capacity() {
                    self.flush_pending();
                }
                if let Some(waited) = credits.acquire_n(need) {
                    self.stamp.close();
                    self.events.emit(RunEvent::BackpressureStall {
                        session: SessionId(self.shared.id),
                        seq: self.pushed,
                        waited: SimDuration::from_duration(waited),
                    });
                }
                self.held = need;
            }
        }
        self.held -= 1;
    }

    /// Buffers one admitted item, its credit already taken, under the
    /// next sequence number (returned), and ships the envelope once it
    /// is full.
    fn enqueue(&mut self, item: I, born: SimTime) -> u64 {
        let seq = self.pushed;
        self.pushed += 1;
        self.pending
            .push(ItemSlot::new(seq, born, Payload::new(item)));
        if self.pending.len() >= self.batch_size {
            self.flush_pending();
        }
        seq
    }

    /// Ships the buffered input as one routed envelope (routing the
    /// pipeline entry — or fanning each item out when the graph opens
    /// with a parallel block, still one credit per *item*). The next
    /// envelope fills the buffer that comes back, if one does — a
    /// per-item push that joins a queued envelope costs no buffer —
    /// and a pooled one otherwise.
    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let items = std::mem::take(&mut self.pending);
        self.pending = push_entry(&self.shared, &mut self.cache, items)
            .unwrap_or_else(|| SLOT_BUFS.take(self.batch_size));
    }

    /// The pool's wall-clock epoch (all report times are relative to
    /// it).
    pub fn epoch(&self) -> Instant {
        self.shared.pool.epoch
    }

    /// The run's fatal error, if one was recorded (stateful stage lost
    /// to a crashed vnode, every vnode down, a poison item). The
    /// failed run unwinds cleanly: `next()` stops yielding, `drain()`
    /// returns the truncated report, and this surfaces why.
    pub fn error(&self) -> Option<RunError> {
        self.shared.control.error()
    }

    /// Work envelopes stolen off sibling inboxes by idle co-hosts so
    /// far (work-stealing pool activity).
    #[cfg(test)]
    pub(crate) fn steals(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Stage runs executed *inline* so far: a worker ran the stage
    /// directly in the batch loop of an envelope for an upstream stage
    /// — after a plain edge, a fan-out, or a join whose parts all came
    /// out of the same item's walk — instead of routing an envelope
    /// through an inbox, because the stage is stateless, default-policy,
    /// and mapped solely to that worker. Re-maps that separate a stage
    /// from its producers un-fuse it automatically (the fusion plan is
    /// epoch-scoped).
    #[cfg(test)]
    pub(crate) fn fused_hops(&self) -> u64 {
        self.shared.fused.load(Ordering::Relaxed)
    }

    fn deliver(&mut self, fin: ItemSlot) -> Option<O> {
        let out = fin
            .payload
            .downcast::<O>()
            .expect("the typed builder's exit stage produces `O`");
        if self.preserve_order {
            let shared = &self.shared;
            self.reorder
                .deliver(fin.seq, out, |seq| shared.is_dead(seq))
        } else {
            Some(out)
        }
    }

    fn pop_ordered(&mut self) -> Option<O> {
        let shared = &self.shared;
        self.reorder.pop_ordered(|seq| shared.is_dead(seq))
    }

    /// The next output: waits for one when `wait`, and otherwise
    /// reports `Pending` while none has completed. Flushes buffered
    /// input first — waiting for output while input sits buffered would
    /// deadlock.
    fn poll(&mut self, wait: bool) -> TryNext<O> {
        self.flush_pending();
        self.stamp.close();
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
            // The stream ends once the closed stream's every push is
            // accounted for (dead letters settle without reaching the
            // sink), or at a fatal teardown.
            if self.fatal || (self.closed && self.report.accounted() >= self.pushed) {
                return match self.reorder.flush() {
                    Some(o) => TryNext::Item(o),
                    None => TryNext::Done,
                };
            }
            let msg = if wait {
                self.sink_rx.recv().map_err(|_| TryRecvError::Disconnected)
            } else {
                self.sink_rx.try_recv()
            };
            match msg {
                // Delivery runs straight out of the sink batch: a batch is
                // taken only once `inbuf` is spent, so the batch becomes
                // `inbuf` (O(1), no item copied) and the spent buffer goes
                // back to the pool.
                Ok(msg) => {
                    if let Some(batch) = self.settle(msg) {
                        let spent = std::mem::replace(&mut self.inbuf, batch.into());
                        SLOT_BUFS.put(spent.into());
                    }
                }
                Err(TryRecvError::Empty) => return TryNext::Pending,
                // `Shared` holds the sender, so this cannot happen while
                // the session lives; were it to, the stream would end.
                Err(TryRecvError::Disconnected) => self.fatal = true,
            }
        }
    }

    /// Records one sink message in the report and hands back a finished
    /// batch for delivery. The workers count the items and release their
    /// credits themselves.
    fn settle(&mut self, msg: SinkMsg) -> Option<Vec<ItemSlot>> {
        match msg {
            SinkMsg::Done(batch) => {
                // Sink-side bookkeeping is per *envelope*, not per item:
                // done stamps are non-decreasing within a batch, so the
                // last one is the envelope's completion instant.
                if let Some(last) = batch.last() {
                    self.report.record_envelope(
                        last.done,
                        batch.iter().map(|fin| fin.done.saturating_since(fin.born)),
                    );
                }
                Some(batch)
            }
            SinkMsg::Dead {
                seq,
                stage,
                attempts,
                reason,
            } => {
                self.report.record_dead_letter(DeadLetter {
                    seq,
                    stage,
                    attempts,
                    reason,
                });
                None
            }
            // The declared expectation stands: a fatal run reports
            // honestly as truncated.
            SinkMsg::Fatal => {
                self.fatal = true;
                None
            }
        }
    }

    /// Graceful shutdown: closes the stream, waits for every pushed
    /// item to complete, and returns the remaining (un-pulled) outputs,
    /// the standard report and the run's fatal error. Items already
    /// pulled via `next` are not repeated.
    pub fn drain(mut self) -> RunHandle<O> {
        self.close();
        let outputs = self.by_ref().collect();
        self.teardown(outputs)
    }

    /// Immediate shutdown: in-flight items are dropped and the report
    /// comes back `truncated` if anything was lost. Workers bail after
    /// at most the item they are currently processing — the queued
    /// backlog is discarded, not drained.
    pub fn abort(mut self) -> RunReport {
        // Raise the flag *before* the wake-up sentinels: a worker
        // chewing through a deep backlog checks it between items and
        // exits without serving the rest of its inbox.
        self.shared.done.store(true, Ordering::SeqCst);
        self.closed = true;
        self.teardown(Vec::new()).report
    }

    /// Detaches this tenant from the pool and assembles the report: the
    /// sink messages the workers sent before they acked the detach are
    /// recorded too (up to a fatal notice), which matters to an abort.
    /// Waits for the adaptation loop's job (and the pool's, when this
    /// session owns it), so their threads are back in the thread cache
    /// for the next session when this returns.
    fn teardown(&mut self, outputs: Vec<O>) -> RunHandle<O> {
        self.detach();
        while !self.fatal {
            let Ok(msg) = self.sink_rx.try_recv() else {
                break;
            };
            self.settle(msg);
        }
        let mut report = std::mem::replace(
            &mut self.report,
            ReportBuilder::new(DEFAULT_TIMELINE_BUCKET, 0),
        );
        report.set_expected(self.pushed);
        report.record_replay(self.shared.replays.load(Ordering::Relaxed));
        report.record_retries(self.shared.retries.load(Ordering::Relaxed));
        let np = self.shared.pool.vnodes.len();
        self.adaptation
            .take()
            .expect("adaptation stopped twice")
            .stop(&self.shared)
            .expect("adaptation thread panicked")
            .finish(&mut report);
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
            node_busy[i] = SimDuration::from_duration(acc.busy);
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
        let report = report.finish(final_mapping, node_busy, stage_metrics);
        if self.owns_pool {
            self.shared.pool.shutdown();
        }
        RunHandle {
            outputs,
            report,
            error: self.shared.control.error(),
        }
    }
}

impl<I, O> LiveSession<I, O> for EngineSession<I, O>
where
    I: Send + 'static,
    O: Send + 'static,
{
    /// The item joins the pending envelope and ships when `batch_size`
    /// items have accumulated (or on `close`, output interaction, or a
    /// credit wait that could not end without it).
    ///
    /// **Born stamp:** the pool clock is read once per stamp window,
    /// and every push in the window is born at that reading. A window holds up to the session's adaptive stride of
    /// pushes and closes early at any output poll (`try_next`, `next`,
    /// `drain`, `close`) and at any blocking credit wait, so a stamp is
    /// at most one window early — under a few hundred microseconds in a
    /// steady stream, the bound sink stamps already have — and pushes
    /// spaced more than a millisecond apart are stamped exactly.
    ///
    /// **Credits:** a bounded session banks them. A trip to the gate
    /// takes up to a stride's worth; while the gate is empty the push
    /// blocks for a window's worth at once (emitting
    /// [`RunEvent::BackpressureStall`]). A refused item is dropped.
    fn push(&mut self, item: I) -> Result<u64, RunError> {
        let shared = &self.shared;
        let born = self.stamp.stamp(|| shared.pool.now());
        self.admit()?;
        self.take_credit(|s| s.stamp.stride as usize);
        Ok(self.enqueue(item, born))
    }

    /// Feeds the batched envelope path, flushing any remainder at the
    /// end of the call (so the batch is fully in flight when this
    /// returns). One clock read stamps the whole batch (every item of a
    /// batch arrives at the call instant — the same arrival semantics
    /// the all-at-once batch feed declares). Under a bounded in-flight
    /// budget it banks credits like `push`, a trip to the gate taking
    /// the rest of the envelope being filled as far as the iterator's
    /// hint, and blocks the same way: for the rest of the envelope (at
    /// most half the budget) at once, flushing the part-filled envelope
    /// first only when the wait could not end without it. Credits taken
    /// and not spent — an error part-way, an iterator shorter than its
    /// hint — stay banked for the next push.
    fn push_batch(&mut self, items: &mut dyn Iterator<Item = I>) -> Result<u64, RunError> {
        let born = self.shared.pool.now();
        let mut n = 0;
        let mut outcome = Ok(());
        while let Some(item) = items.next() {
            if let Err(e) = self.admit() {
                outcome = Err(e);
                break;
            }
            self.take_credit(|s| {
                let room = s.batch_size - s.pending.len();
                room.min(items.size_hint().0.saturating_add(1))
            });
            self.enqueue(item, born);
            n += 1;
        }
        self.flush_pending();
        outcome.map(|()| n)
    }

    /// Flushes buffered input, closes the stamp window and returns the
    /// banked credits.
    fn close(&mut self) {
        if !self.closed {
            self.flush_pending();
            self.stamp.close();
            if let Some(credits) = self.credits.as_ref().filter(|_| self.held > 0) {
                credits.release_n(self.held);
                self.held = 0;
            }
            self.closed = true;
        }
    }

    fn session_id(&self) -> SessionId {
        SessionId(self.shared.id)
    }

    fn pushed(&self) -> u64 {
        self.pushed
    }

    fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    fn in_flight(&self) -> u64 {
        let dead = self.shared.dead_count.load(Ordering::Relaxed);
        self.pushed.saturating_sub(self.completed() + dead)
    }

    fn try_next(&mut self) -> TryNext<O> {
        self.poll(false)
    }

    fn drain(self: Box<Self>) -> RunHandle<O> {
        EngineSession::drain(*self)
    }

    fn abort(self: Box<Self>) -> RunReport {
        EngineSession::abort(*self)
    }
}

impl<I, O> EngineSession<I, O> {
    /// Raises the tenant's done flag, tells every worker the tenant is
    /// gone ([`Ctrl::TenantGone`]) and sleeps on the pool's bell until
    /// the last ack rings it: each worker has then flushed this tenant's
    /// accounting into `Shared::accs` and dropped its lane. The wait
    /// ends early if the whole pool shuts down underneath us, which
    /// rings the same bell. The tenant then leaves the pool's registry.
    fn detach(&self) {
        let (shared, pool) = (&self.shared, &self.shared.pool);
        shared.done.store(true, Ordering::SeqCst);
        for inbox in &pool.inboxes {
            inbox.send_ctrl(Ctrl::TenantGone {
                tenant: Arc::clone(shared),
            });
        }
        let workers = pool.inboxes.len() as u64;
        pool.bell.wait(None, || {
            shared.detached.load(Ordering::SeqCst) >= workers || pool.done.load(Ordering::SeqCst)
        });
        pool.prune();
    }
}

/// A session dropped without [`EngineSession::drain`] or
/// [`EngineSession::abort`] (an error path, a panic unwind) must not
/// leak its threads or its pool lanes: workers hold the pool alive on
/// their own, so nothing disconnects by itself, and an adaptation
/// thread sleeps until its bell rings. Drop performs the abort
/// shutdown — signal, detach, wait for each job — discarding outputs
/// and the report (and shutting the pool down when this session owns
/// it), so every thread goes back to the thread cache.
impl<I, O> Drop for EngineSession<I, O> {
    fn drop(&mut self) {
        let Some(adaptation) = self.adaptation.take() else {
            return; // drain()/abort() already tore the run down
        };
        // Raised before anything is joined, so a worker deep in this
        // tenant's backlog stops serving it at once.
        self.shared.done.store(true, Ordering::SeqCst);
        self.detach();
        let _ = adaptation.stop(&self.shared);
        if self.owns_pool {
            self.shared.pool.shutdown();
        }
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
        match self.poll(true) {
            TryNext::Item(o) => Some(o),
            TryNext::Pending | TryNext::Done => None,
        }
    }
}

/// Starts `pipeline` on `vnodes` (one worker thread each) as `session`
/// under `cfg` and returns the live [`EngineSession`]. `cfg.items`
/// seeds the adaptation loop's remaining-work amortisation (a session's
/// true length is unknown until it closes); `session`'s policy
/// intervals and `cfg.faults`' times are read as wall time since engine
/// start.
///
/// This is the single-session path, a pool of one: it launches a
/// private [`Pool`] with no arbiter (applying `cfg.faults` pool-wide)
/// and attaches the one session under [`ShareQuota::default`] — the
/// whole pool — as its owning tenant, so the pool is shut down when the
/// session drains. Multi-tenant serving launches the pool once and
/// calls [`attach`] per session.
///
/// # Panics
/// Panics if `vnodes` is empty, if the initial mapping references
/// unknown nodes or covers the wrong number of stages, or if
/// `queue_capacity` is zero.
pub fn spawn<I, O>(
    pipeline: Pipeline<I, O>,
    vnodes: Vec<VNodeSpec>,
    session: &Session,
    cfg: &RunConfig,
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
    let pool = Pool::launch(vnodes, cfg.faults.clone(), None);
    let mut session = attach(&pool, pipeline, session, cfg, ShareQuota::default());
    session.owns_pool = true;
    session
}

/// Attaches `pipeline` as one tenant of a running [`Pool`], registered
/// with the pool under `quota`, and returns its live [`EngineSession`].
/// Any number of sessions (heterogeneous stage graphs) may be attached
/// concurrently; each keeps its own typed push/pull API, routing table,
/// adaptation loop, sink and report, and exactly-once replay isolation,
/// while sharing the pool's worker threads under weighted-fair envelope
/// admission. Registration re-divides the pool by the static fair split
/// of the tenants' quotas; a pool launched with an arbitration window
/// re-divides it by demand from then on. The session leaves the pool
/// running for its co-tenants when it tears down.
///
/// Planning and fault handling use the *pool's* vnodes and fault plan
/// (faults are a pool-wide physical property, applied once at
/// [`Pool::launch`]).
///
/// # Panics
/// Panics if the initial mapping references unknown nodes or covers the
/// wrong number of stages, if `queue_capacity` is zero, or if the quota
/// is invalid ([`ShareQuota::is_valid`]).
pub fn attach<I, O>(
    pool: &Arc<Pool>,
    pipeline: Pipeline<I, O>,
    session: &Session,
    cfg: &RunConfig,
    quota: ShareQuota,
) -> EngineSession<I, O>
where
    I: Send + 'static,
    O: Send + 'static,
{
    let spec = pipeline.spec();
    let vnodes = &pool.vnodes;

    let mut profile = spec.profile();
    // This engine runs co-located stateless stages inline — across
    // plain, fan-out and join edges (see `fusion::FusionPlan`) — so the
    // planner may discount those edges.
    profile.fuses_colocated = true;
    // Plan from the pool's availability now: a tenant attached to a
    // running pool starts on the world as it is, not as it was at launch.
    let now = pool.now();
    let launch_rates: Vec<f64> = vnodes.iter().map(|v| v.effective_rate(now)).collect();
    let session_id = pool.next_session.fetch_add(1, Ordering::SeqCst);
    let substrate = RuntimeConfig {
        profile,
        // One machine: every vnode pair talks over a local link.
        topology: Topology::uniform(vnodes.len(), LinkSpec::local()),
        speeds: vnodes.iter().map(|v| v.speed).collect(),
        state_bytes: spec.stages.iter().map(|s| s.state_bytes).collect(),
        faults: pool.faults.clone(),
        session: SessionId(session_id),
    };
    let (aloop, initial_mapping) = AdaptationLoop::launch(substrate, session, cfg, &launch_rates);

    let (shared, sink_rx) = Shared::new(session_id, pool, pipeline, cfg, initial_mapping);
    pool.register(Arc::clone(&shared), quota);
    let bucket = cfg.timeline_bucket.unwrap_or(DEFAULT_TIMELINE_BUCKET);
    let mut report = ReportBuilder::new(bucket, u64::MAX);
    if !pool.faults.is_empty() {
        report.set_faults(pool.faults.clone(), pool.vnodes.len());
    }
    let adaptation = Adaptation::start(&shared, aloop);

    let cache = RouteCache::new(&shared);
    let batch_size = cfg.batch_size.max(1);
    EngineSession {
        credits: shared.credits.clone(),
        shared,
        owns_pool: false,
        adaptation: Some(adaptation),
        sink_rx,
        report,
        fatal: false,
        events: cfg.events.clone(),
        cache,
        pending: Vec::with_capacity(batch_size),
        batch_size,
        stamp: StampWindow::new(),
        held: 0,
        inbuf: VecDeque::new(),
        pushed: 0,
        closed: false,
        preserve_order: cfg.preserve_order,
        reorder: Reorder::new(),
        _types: PhantomData,
    }
}

/// Runs `pipeline` over `cfg.items` inputs, each drawn lazily from
/// `feed` at its scheduled arrival time — memory stays proportional to
/// the in-flight window, not the whole stream, which matters for paced
/// open streams of large items.
///
/// Batch execution is sugar over the streaming session: [`spawn`], feed
/// `session`'s arrival schedule (pacing the pushes against the wall
/// clock — the same backend-independent schedule the simulator
/// materialises as events), [`EngineSession::drain`].
///
/// # Panics
/// As [`spawn`].
pub fn execute_fed<I, O, F>(
    pipeline: Pipeline<I, O>,
    feed: F,
    vnodes: Vec<VNodeSpec>,
    session: &Session,
    cfg: &RunConfig,
) -> RunHandle<O>
where
    I: Send + 'static,
    O: Send + 'static,
    F: FnMut(u64) -> I + Send + 'static,
{
    let n_items = cfg.items;
    let arrivals = session.arrivals();
    let mut session = spawn(pipeline, vnodes, session, cfg);
    let mut feed = feed;
    match arrivals {
        // Everything is due at t = 0: feed the whole stream through the
        // batched envelope path in one call.
        ArrivalProcess::AllAtOnce => {
            session
                .push_batch(&mut (0..n_items).map(&mut feed))
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

mod reorder;
#[cfg(test)]
pub(crate) mod tests;
