//! Stage fusion and the batch loop: what a worker does with one
//! envelope once placement has decided to serve it.
//!
//! Co-located stateless successors are *fused* into the envelope's own
//! loop ([`FusionPlan`]): the hand-off between them is a function call,
//! not an envelope. [`process_batch`] acquires that chain of instances,
//! runs the items through it under one of two bookkeeping regimes (a
//! fast path that reads the clock once per *stride* of items, a slow
//! path with exact per-item accounting), and flushes the results — one
//! sink message, one onward envelope per consuming stage. The two
//! recycled buffer shapes of that loop live here too.

use crate::exec::{Finished, ItemSlot};
use crate::inbox::Envelope;
use crate::item::{fail_stage, process_resilient, Outbox, ResilientOut};
use crate::tenant::Shared;
use crate::worker::{try_acquire, TenantLocal};
use adapipe_core::metrics::StageMetrics;
use adapipe_core::spec::Next;
use adapipe_core::stage::{BoxedItem, DynStage};
use adapipe_gridsim::time::SimDuration;
use adapipe_runtime::routing::RoutingSnapshot;
use adapipe_state::{StateAccess, StateSnapshot};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use std::vec::Drain;

/// Cap per recycled-buffer free list: buffers beyond it are dropped.
const BUF_POOL_CAP: usize = 64;

/// A process-wide free list recycling one hot-path buffer shape. The
/// buffers cross threads, hence shared pools rather than thread-locals;
/// `try_lock` keeps them strictly off the critical path — under
/// contention the caller just allocates. The pool is not what keeps a
/// per-item pusher off the heap: a send whose items join the
/// destination's queued tail envelope hands its buffer straight back to
/// the sender (`Inbox::send_work`), so envelope buffers come and go
/// here about once per *served* envelope, not once per push.
pub(crate) struct BufPool<T>(Mutex<Vec<Vec<T>>>);

/// Envelope item vectors (drained by whichever worker serves them).
pub(crate) static SLOT_BUFS: BufPool<ItemSlot> = BufPool(Mutex::new(Vec::new()));
/// Finished-batch vectors (consumed on the session thread after
/// delivery).
pub(crate) static FIN_BUFS: BufPool<Finished> = BufPool(Mutex::new(Vec::new()));

impl<T> BufPool<T> {
    /// An empty buffer with room for `cap` elements.
    pub(crate) fn take(&self, cap: usize) -> Vec<T> {
        if let Ok(mut pool) = self.0.try_lock() {
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

    /// Returns a buffer to the pool. Clearing happens here — on the
    /// thread that owned the buffer — so any unconsumed payloads drop
    /// before the buffer is offered to another thread.
    pub(crate) fn put(&self, mut buf: Vec<T>) {
        buf.clear();
        if buf.capacity() == 0 {
            return;
        }
        if let Ok(mut pool) = self.0.try_lock() {
            if pool.len() < BUF_POOL_CAP {
                pool.push(buf);
            }
        }
    }
}

/// Hard ceiling on the stamp-sampling window (items per clock read) of
/// the fast path.
const MAX_STAMP_STRIDE: u32 = 64;
/// A sampling window completing faster than this — a clipped one
/// scaled up to the full stride — doubles the stride: the clock reads
/// themselves are a measurable share of the work.
const STRIDE_GROW_BELOW: Duration = Duration::from_micros(200);
/// A full window slower than this halves the stride: sink stamps are fixed
/// up at window boundaries, so the per-item latency error is bounded by
/// one window and must stay small against real stage times.
const STRIDE_SHRINK_ABOVE: Duration = Duration::from_millis(1);

/// The stride after a fast-path window of `win` items that took `w`.
///
/// A clipped window (fewer items than the stride) is fast because it is
/// short, so it grows the stride only at its pace, scaled up to a full
/// window. It must count: a send joins a queued envelope within the
/// stride as it stood then, so a backlog sent under a small stride
/// arrives in envelopes shorter than the stride its first window
/// earned. Only a full window shrinks it: one slow item says little
/// about a window.
fn next_stride(stride: u32, win: usize, w: Duration) -> u32 {
    let paced = w * stride / win as u32;
    if paced < STRIDE_GROW_BELOW && stride < MAX_STAMP_STRIDE {
        stride * 2
    } else if win == stride as usize && w > STRIDE_SHRINK_ABOVE && stride > 1 {
        stride / 2
    } else {
        stride
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
/// knob: the adaptive clock-sampling window of the fast path. It
/// deliberately survives epoch changes — a re-map does not forget how
/// coarse a stage's timing windows can safely be. Every change is
/// published to `Shared::stride`, where the inboxes read it as their
/// coalescing budget: a backlog is served one window at a time. `samp` is
/// the fast path's per-hop scratch, one slot per stage (no chain is
/// longer), so serving an envelope allocates none.
pub(crate) struct FusionPlan {
    /// Routing epoch `next` was computed for (`u64::MAX` = never).
    epoch: u64,
    next: Vec<Option<usize>>,
    stride: Vec<u32>,
    samp: Vec<Duration>,
}

impl FusionPlan {
    pub(crate) fn new(ns: usize) -> Self {
        FusionPlan {
            epoch: u64::MAX,
            next: vec![None; ns],
            stride: vec![1; ns],
            samp: vec![Duration::ZERO; ns],
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
                    if shared.spec.stages[t].state.is_stateless()
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

/// One envelope being served: the chain of instances it runs through
/// — its own stage plus every successor the plan fuses, taken out of
/// the worker's map for the duration (each hop needs its own `&mut`
/// inside the item loop) — and what the run accumulates.
struct Batch {
    stages: Vec<usize>,
    insts: Vec<Box<dyn DynStage>>,
    /// Declared mean work per stage, for the service metrics.
    works: Vec<f64>,
    /// Where the last stage's outputs go.
    after: Next,
    outbox: Outbox,
    /// Occupied time.
    busy: Duration,
    fused_hops: u64,
    /// A stage failed the session: nothing ships.
    fatal: bool,
}

/// Runs every item of one envelope through its stage — and, when the
/// worker's [`FusionPlan`] fuses the stage with stateless successors
/// mapped solely here, straight through the whole chain in the same
/// loop, skipping the per-boundary envelope/inbox round-trip entirely.
/// Results ship onward in per-destination-stage batches (one sink
/// message per envelope that finished items); occupied time is added to
/// the tenant's busy account.
///
/// Two bookkeeping regimes: [`Batch::run_fast`] when the entry stage has
/// the default resilience policy and the vnode can never throttle,
/// [`Batch::run_slow`] otherwise.
pub(crate) fn process_batch(
    me: usize,
    tl: &mut TenantLocal,
    snap: &RoutingSnapshot,
    env: Envelope,
    slot: usize,
) {
    let stage = env.stage;
    tl.fusion.refresh(me, &tl.tenant, snap);
    let mut batch = Batch::acquire(tl, stage, slot);
    let mut items = env.items;
    let mut it = items.drain(..);
    let never_throttles = tl.tenant.pool.vnodes[me].never_throttles();
    if never_throttles && tl.tenant.spec.stages[stage].resilience.is_default() {
        batch.run_fast(tl, &mut it);
    } else {
        batch.run_slow(me, tl, &mut it);
    }
    // Dropping the drain clears any unprocessed remainder (abort /
    // fatal), so the buffer recycles empty with its payloads released.
    drop(it);
    SLOT_BUFS.put(items);
    batch.finish(tl, snap, slot);
}

impl Batch {
    /// The chain: the envelope's stage (instance already acquired by
    /// placement) plus every fused successor whose instance is
    /// acquirable right now. An instance still in migration transit
    /// truncates the chain — those items travel by envelope and buffer
    /// at the receiver, exactly as unfused traffic would.
    fn acquire(tl: &mut TenantLocal, stage: usize, slot: usize) -> Batch {
        let shared = &tl.tenant;
        let mut stages = vec![stage];
        let mut s = stage;
        while let Some(t) = tl.fusion.next[s] {
            if !try_acquire(shared, &mut tl.local, t, 0) {
                break;
            }
            stages.push(t);
            s = t;
        }
        let mut insts: Vec<Box<dyn DynStage>> = stages
            .iter()
            .enumerate()
            .map(|(ci, &s)| {
                tl.local
                    .remove(&(s, if ci == 0 { slot } else { 0 }))
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
        Batch {
            works: stages
                .iter()
                .map(|&s| shared.spec.stages[s].work.mean())
                .collect(),
            after: shared.spec.graph.after(s),
            stages,
            insts,
            outbox: Outbox::new(FIN_BUFS.take(0)),
            busy: Duration::ZERO,
            fused_hops: 0,
            fatal: false,
        }
    }

    /// Puts the instances back and ships what the envelope produced
    /// ([`Outbox::dispatch`]).
    fn finish(self, tl: &mut TenantLocal, snap: &RoutingSnapshot, slot: usize) {
        for (ci, (s, inst)) in self.stages.into_iter().zip(self.insts).enumerate() {
            tl.local.insert((s, if ci == 0 { slot } else { 0 }), inst);
        }
        tl.busy += self.busy;
        let shared = &tl.tenant;
        if self.fused_hops > 0 {
            shared.fused.fetch_add(self.fused_hops, Ordering::Relaxed);
        }
        // Fatal: nothing ships — the collector already received
        // `Fatal` and the report shows truncation.
        if !self.fatal {
            self.outbox.dispatch(shared, snap);
        }
    }

    /// The fast path: the clock is read once per *window* of stride
    /// items instead of per item, sink stamps are fixed up at the window
    /// boundary, and service metrics absorb each window as one
    /// exact-count batch (`StageMetrics::record_batch`) — steady-state
    /// bookkeeping is O(windows), not O(items). The stride adapts
    /// between 1 and [`MAX_STAMP_STRIDE`] to keep windows in the
    /// hundreds-of-microseconds band: cheap stages stop paying a clock
    /// read per item, slow stages keep honest latency stamps.
    fn run_fast(&mut self, tl: &mut TenantLocal, it: &mut Drain<'_, ItemSlot>) {
        let shared = &tl.tenant;
        let (stage, nseg) = (self.stages[0], self.stages.len());
        let stride = &mut tl.fusion.stride[stage];
        // Per-hop durations of the window's sampled item (fused chains
        // only; a chain of one skips per-hop stamping altogether).
        let samp = &mut tl.fusion.samp[..nseg];
        samp.fill(Duration::ZERO);
        let mut t_win = Instant::now();
        'windows: while it.len() > 0 {
            // An abort mid-batch (of this tenant or the whole pool)
            // drops the remainder — same contract as the discarded
            // inbox backlog (the report shows truncation). Checked per
            // window on this path.
            if shared.finished() {
                break;
            }
            let win = (*stride as usize).min(it.len());
            let win_fin_start = self.outbox.finished.len();
            let mut live: u64 = 0;
            let mut sampled = nseg == 1;
            for slot in it.by_ref().take(win) {
                // A sibling branch may have dead-lettered this item
                // while this copy sat queued; its work is moot.
                if shared.is_dead(slot.seq) {
                    continue;
                }
                // The window's first live item is the one stamped per hop.
                let (insts, chain) = (&mut self.insts[..], &self.stages[..]);
                let out = if sampled {
                    run_chain(insts, chain, shared, slot.seq, slot.payload, None)
                } else {
                    sampled = true;
                    run_chain(
                        insts,
                        chain,
                        shared,
                        slot.seq,
                        slot.payload,
                        Some(&mut *samp),
                    )
                };
                // The sink stamp is a placeholder until the window ends.
                let sent = out.map(|out| {
                    let (outbox, after) = (&mut self.outbox, &self.after);
                    outbox.send(shared, after, slot.seq, slot.born, slot.born, out)
                });
                if sent != Some(Ok(())) {
                    self.fatal = true;
                    self.busy += t_win.elapsed();
                    break 'windows;
                }
                live += 1;
            }
            let t_end = Instant::now();
            let w = t_end.duration_since(t_win);
            self.busy += w;
            // Completed items take the window boundary as their sink
            // stamp: stamps stay non-decreasing, and the per-item
            // error is bounded by one window, which the stride
            // adaptation keeps short.
            let done = shared.pool.at(t_end);
            for f in &mut self.outbox.finished[win_fin_start..] {
                f.done = done;
            }
            if live > 0 {
                self.record_window(&mut tl.metrics, samp, w, live);
            }
            let next = next_stride(*stride, win, w);
            if next != *stride {
                *stride = next;
                shared.stride[stage].store(next, Ordering::Relaxed);
            }
            t_win = t_end;
        }
    }

    /// Books one fast-path window of `live` items that took `w`. Fused
    /// chains stamped one item per window hop-by-hop (`samp`) and split
    /// the window's busy time across the chain's stages in those
    /// proportions: counts and totals stay exact (the adaptation loop
    /// plans from declared rates, so the report is the only consumer).
    /// A chain of one is never stamped; its all-zero `samp` gives the
    /// one stage the whole window.
    fn record_window(
        &mut self,
        metrics: &mut StageMetrics,
        samp: &[Duration],
        w: Duration,
        live: u64,
    ) {
        let (wsecs, nseg) = (w.as_secs_f64(), samp.len());
        let total: f64 = samp.iter().map(Duration::as_secs_f64).sum();
        for (ci, &cs) in self.stages.iter().enumerate() {
            let frac = if total > 0.0 {
                samp[ci].as_secs_f64() / total
            } else {
                1.0 / nseg as f64
            };
            let took = SimDuration::from_secs_f64(wsecs * frac);
            metrics.record_batch(cs, took, live, self.works[ci] * live as f64);
        }
        self.fused_hops += (nseg as u64 - 1) * live;
    }

    /// The slow path (resilient entry stage, or a vnode with throttle
    /// windows): exact per-item, per-hop accounting —
    /// retry/backoff/dead-letter via [`process_resilient`], synthetic
    /// slowdown sleeps and individual service samples on every hop.
    fn run_slow(&mut self, me: usize, tl: &mut TenantLocal, it: &mut Drain<'_, ItemSlot>) {
        let shared = &tl.tenant;
        let vnode = &shared.pool.vnodes[me];
        let never_throttles = vnode.never_throttles();
        let mut t_start = Instant::now();
        'items: for slot in it {
            if shared.finished() {
                break;
            }
            if shared.is_dead(slot.seq) {
                continue;
            }
            let mut out = slot.payload;
            let mut done = t_start;
            for (ci, inst) in self.insts.iter_mut().enumerate() {
                let cs = self.stages[ci];
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
                        self.busy += t_end.duration_since(t_start);
                        t_start = t_end;
                        continue 'items;
                    }
                    ResilientOut::Fatal => {
                        self.busy += t_start.elapsed();
                        self.fatal = true;
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
                    let sleep = vnode.slowdown_sleep(compute, shared.pool.at(t_end));
                    if !sleep.is_zero() {
                        std::thread::sleep(sleep);
                        // The sleep must not be attributed to the next
                        // hop's compute window.
                        t_start = Instant::now();
                    }
                    compute + sleep
                };
                self.busy += took;
                tl.metrics
                    .record(cs, SimDuration::from_duration(took), self.works[ci]);
            }
            self.fused_hops += self.stages.len() as u64 - 1;
            let (outbox, after) = (&mut self.outbox, &self.after);
            let done = shared.pool.at(done);
            if outbox
                .send(shared, after, slot.seq, slot.born, done, out)
                .is_err()
            {
                self.fatal = true;
                break;
            }
        }
    }
}

/// Runs item `seq`'s payload through every instance of the fused chain
/// `chain` in order, under
/// the default (fail-fast) policy. With `samp`, each hop is
/// clock-stamped and its duration written there (the fast path
/// measures one item per window this way to split window time
/// across the chain's stages). `None` means a stage failed
/// ([`fail_stage`]): the session is already failed and torn down,
/// and the caller must abandon its batch.
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
                match inst.process(out) {
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
                match inst.process(out) {
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

#[cfg(test)]
mod tests {
    use super::{next_stride, MAX_STAMP_STRIDE};
    use crate::exec::spawn;
    use crate::vnode::VNodeSpec;
    use adapipe_core::pipeline::Pipeline;
    use adapipe_core::spec::{PipelineSpec, StageSpec};
    use adapipe_core::stage::{DynStage, FnStage};
    use adapipe_gridsim::net::{LinkSpec, Topology};
    use adapipe_gridsim::node::NodeId;
    use adapipe_mapper::mapping::Mapping;
    use adapipe_mapper::model::evaluate;
    use adapipe_runtime::session::{LiveSession, RunConfig, Session};
    use std::time::Duration;

    /// The model prices fusion exactly as the engine fuses: a 2-stage
    /// chain, co-located and unreplicated, with a 1 MB boundary, the
    /// successor under each of the five declarations. The prediction
    /// carries the fused-edge discount iff the worker's [`super::FusionPlan`]
    /// fuses the edge.
    #[test]
    fn model_discounts_exactly_the_edges_the_engine_fuses() {
        let declarations: [fn(StageSpec) -> StageSpec; 5] = [
            |s| s,
            |s| s.with_keyed_state(4, 64),
            |s| s.with_accumulator_state(64),
            |s| s.with_exclusive_state(64),
            |s| s.with_state(64),
        ];
        let mapping = Mapping::all_on(NodeId(0), 2);
        let topology = Topology::uniform(1, LinkSpec::lan());
        let items = 200u64;
        let mut disagree = Vec::new();
        for declare in declarations {
            let spec = PipelineSpec::new(vec![
                StageSpec::balanced("a", 1.0, 1_000_000),
                declare(StageSpec::balanced("b", 1.0, 8)),
            ]);
            let label = spec.stages[1].state.label();
            let mut profile = spec.profile();
            profile.fuses_colocated = true;
            let fused = evaluate(&profile, &mapping, &[1.0], &topology).latency;
            profile.fuses_colocated = false;
            let routed = evaluate(&profile, &mapping, &[1.0], &topology).latency;
            let discounted = fused < routed;

            let stages: Vec<Box<dyn DynStage>> = vec![
                Box::new(FnStage::new("a", |x: u64| x + 1)),
                Box::new(FnStage::new("b", |x: u64| x * 2)),
            ];
            let pipeline =
                Pipeline::<u64, u64>::from_parts(spec, stages, Vec::new(), vec![None; 2]);
            let cfg = RunConfig {
                initial_mapping: Some(mapping.clone()),
                ..RunConfig::default()
            };
            let vnodes = vec![VNodeSpec::free("v0")];
            let mut session = spawn(pipeline, vnodes, &Session::default(), &cfg);
            for i in 0..items {
                session.push(i).unwrap();
            }
            session.close();
            let got: Vec<u64> = session.by_ref().collect();
            assert_eq!(got, (0..items).map(|x| (x + 1) * 2).collect::<Vec<_>>());
            let fuses = session.fused_hops() > 0;
            session.drain();
            println!(
                "{label:>11}: predicted {fused:.6} s (routed {routed:.6} s), \
                 model discounts {discounted}, engine fuses {fuses}"
            );
            if discounted != fuses {
                disagree.push(label);
            }
        }
        assert!(
            disagree.is_empty(),
            "the model's fused-edge discount disagrees with FusionPlan for {disagree:?} successors"
        );
    }

    #[test]
    fn a_clipped_window_grows_the_stride_at_its_pace_and_never_shrinks_it() {
        let us = Duration::from_micros;
        // Full windows: fast doubles, slow halves, in between keeps.
        assert_eq!(next_stride(8, 8, us(150)), 16);
        assert_eq!(next_stride(8, 8, us(1500)), 4);
        assert_eq!(next_stride(8, 8, us(500)), 8);
        // One item of a stride-8 window: 10 µs paces a full window at
        // 80 µs and grows it; 30 µs paces it at 240 µs and keeps it.
        assert_eq!(next_stride(8, 1, us(10)), 16);
        assert_eq!(next_stride(8, 1, us(30)), 8);
        // However slow, a clipped window does not shrink the stride.
        assert_eq!(next_stride(8, 1, us(5000)), 8);
        // The bounds hold.
        assert_eq!(next_stride(MAX_STAMP_STRIDE, 1, us(1)), MAX_STAMP_STRIDE);
        assert_eq!(next_stride(1, 1, us(5000)), 1);
    }
}
