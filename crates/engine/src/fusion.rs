//! Stage fusion and the batch loop: what a worker does with one
//! envelope once placement has decided to serve it.
//!
//! Co-located stateless stages run *inline* in the envelope's own loop
//! ([`FusionPlan`]): the hand-off into them is a function call, not an
//! envelope — across plain edges, fan-outs and joins alike.
//! [`process_batch`] serves one message as one batch: the pieces
//! placement kept (one for an unkeyed envelope, one per shard of a keyed
//! one, parked backlog ahead of fresh items within a shard). It acquires
//! the region of instances the stage reaches once, swapping the entry
//! stage's shard instance between pieces, walks each item through it (a
//! fan-out's extra copies wait on a stack, a join's parts meet in
//! per-walk slots) under one of two bookkeeping regimes (a fast path
//! that reads the clock once per *stride* of items, a slow path with
//! exact per-item accounting), and flushes the results once — one sink
//! message, one onward envelope per consuming stage, one shared-map
//! deposit per join input the walk could not pair.
//!
//! An item is walked in the [`ItemSlot`] it arrived in, and an item that
//! leaves the pipeline stays there: after its last stage call nothing
//! copies it. Each piece's buffer is compacted in place past the items
//! that went onward, joined or were dead-lettered, and the first one
//! holding any is the sink message itself (later pieces' exits join
//! it). So one recycled buffer shape serves the whole loop, and it
//! lives here too.

use crate::exec::ItemSlot;
use crate::item::{fail_stage, process_resilient, Outbox, ResilientOut};
use crate::tenant::Shared;
use crate::worker::{try_acquire, TenantLocal};
use adapipe_core::item::{forward, Hops, JoinSlots};
use adapipe_core::metrics::StageMetrics;
use adapipe_core::payload::Payload;
use adapipe_core::spec::{Next, PipelineSpec, StageGraph};
use adapipe_core::stage::{BoxedItem, DynStage};
use adapipe_gridsim::time::{SimDuration, SimTime};
use adapipe_runtime::routing::RoutingSnapshot;
use adapipe_state::{StateAccess, StateSnapshot};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cap per recycled-buffer free list: buffers beyond it are dropped.
const BUF_POOL_CAP: usize = 64;

/// A process-wide free list recycling the hot path's one buffer shape,
/// `Vec<ItemSlot>`: envelopes, onward and join buckets, and — the same
/// buffers, once served — sink batches, which the session hands back
/// once it has delivered out of them. The buffers cross threads, hence
/// a shared pool rather than thread-locals; `try_lock` keeps it
/// strictly off the critical path — under contention the caller just
/// allocates. The pool is not what keeps a per-item pusher off the
/// heap: a send whose items join the destination's queued tail envelope
/// hands its buffer straight back to the sender (`Inbox::send_work`),
/// so envelope buffers come and go here about once per *served*
/// envelope, not once per push.
pub(crate) struct BufPool(Mutex<Vec<Vec<ItemSlot>>>);

/// Item-slot vectors: envelopes and the sink batches they become.
pub(crate) static SLOT_BUFS: BufPool = BufPool(Mutex::new(Vec::new()));

impl BufPool {
    /// An empty buffer with room for `cap` elements.
    pub(crate) fn take(&self, cap: usize) -> Vec<ItemSlot> {
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
    pub(crate) fn put(&self, mut buf: Vec<ItemSlot>) {
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
/// the fast path and of a session's per-item pushes.
pub(crate) const MAX_STAMP_STRIDE: u32 = 64;
/// A sampling window completing faster than this — a clipped one
/// scaled up to the full stride — doubles the stride: the clock reads
/// themselves are a measurable share of the work.
const STRIDE_GROW_BELOW: Duration = Duration::from_micros(200);
/// A full window slower than this halves the stride: sink stamps are fixed
/// up at window boundaries, so the per-item latency error is bounded by
/// one window and must stay small against real stage times. A session's
/// push window slower than this restarts its stride at 1 instead.
pub(crate) const STRIDE_SHRINK_ABOVE: Duration = Duration::from_millis(1);

/// The stride after a fast-path window of `win` items that took `w`.
///
/// A clipped window (fewer items than the stride) is fast because it is
/// short, so it grows the stride only at its pace, scaled up to a full
/// window. It must count: a send joins a queued envelope within the
/// stride as it stood then, so a backlog sent under a small stride
/// arrives in envelopes shorter than the stride its first window
/// earned. Only a full window shrinks it: one slow item says little
/// about a window.
pub(crate) fn next_stride(stride: u32, win: usize, w: Duration) -> u32 {
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
/// routing epoch: which stages run *inline* inside [`process_batch`]'s
/// loop — as a direct call on the item the walk holds, with no
/// envelope, no inbox hop, no re-routing and, at a join, no shared
/// join map.
///
/// `inline[t]` holds iff `t` is stateless, has the default resilience
/// policy and is currently mapped to exactly this worker — then every
/// input of `t` produced here is an input of `t` here, whatever the
/// edge: a plain successor, one target of a fan-out, or a join whose
/// parts all come out of one item's walk. An envelope's walk starts at
/// its own stage, which may be stateful or resilient (a walk starts
/// wherever the envelope landed), and reaches every inline stage
/// downstream of it through inline stages (`reach`); only those must be
/// stateless and default-policy, so retry/dead-letter accounting and
/// state migration keep their exact per-envelope semantics. The moment
/// a re-map separates a stage from its producers (or replicates it),
/// the epoch bump invalidates the plan and its inputs revert to
/// envelopes — un-fusing is automatic.
///
/// `stride` rides along because it is the other per-stage hot-path
/// knob: the adaptive clock-sampling window of the fast path. It
/// deliberately survives epoch changes — a re-map does not forget how
/// coarse a stage's timing windows can safely be. Every change is
/// published to `Shared::stride`, where the inboxes read it as their
/// coalescing budget: a backlog is served one window at a time.
/// `region` is the walk's scratch, sized once per tenant, so serving
/// an envelope allocates none.
pub(crate) struct FusionPlan {
    /// Routing epoch `inline` was computed for (`u64::MAX` = never).
    epoch: u64,
    /// Per stage: runs inline wherever a walk on this worker reaches it.
    inline: Vec<bool>,
    /// Per stage: the inline stages a walk entering there reaches, in
    /// topological order.
    reach: Vec<Vec<usize>>,
    /// Per stage: declared mean work, for the service metrics.
    works: Vec<f64>,
    stride: Vec<u32>,
    region: Region,
}

impl FusionPlan {
    pub(crate) fn new(spec: &PipelineSpec) -> Self {
        let (ns, graph) = (spec.len(), &spec.graph);
        FusionPlan {
            epoch: u64::MAX,
            inline: vec![false; ns],
            reach: vec![Vec::new(); ns],
            works: spec.stages.iter().map(|s| s.work.mean()).collect(),
            stride: vec![1; ns],
            region: Region {
                after: (0..ns).map(|s| graph.after(s)).collect(),
                insts: (0..ns).map(|_| None).collect(),
                held: Vec::new(),
                stack: Vec::new(),
                joins: (0..graph.join_blocks())
                    .map(|b| JoinSlots::new(graph.join_width(b)))
                    .collect(),
                pending: 0,
                runs: vec![0; ns],
                samp: vec![Duration::ZERO; ns],
            },
        }
    }

    /// Recomputes the plan against `snap` if the epoch moved since the
    /// last refresh.
    fn refresh(&mut self, me: usize, shared: &Shared, snap: &RoutingSnapshot) {
        if self.epoch == snap.epoch() {
            return;
        }
        self.epoch = snap.epoch();
        let spec = &shared.spec;
        for (t, inline) in self.inline.iter_mut().enumerate() {
            let (decl, hosts) = (&spec.stages[t], snap.hosts(t));
            *inline = decl.state.is_stateless()
                && decl.resilience.is_default()
                && hosts.len() == 1
                && hosts[0].index() == me;
        }
        let mut reached = vec![false; spec.len()];
        for (s, reach) in self.reach.iter_mut().enumerate() {
            reached.fill(false);
            reached[s] = true;
            reach.clear();
            for &t in spec.graph.topo_order() {
                if self.inline[t] && spec.graph.preds(t).iter().any(|&p| reached[p]) {
                    reached[t] = true;
                    reach.push(t);
                }
            }
        }
    }
}

/// The instances one envelope's walks run through and the walks'
/// scratch, all indexed by stage (or join block): kept in the plan
/// between envelopes, so a walk allocates nothing but a completed
/// join's vector.
#[derive(Default)]
struct Region {
    /// Per stage: where its output goes (the graph's `after`).
    after: Vec<Next>,
    /// The instance of every stage the batch holds — its own stage
    /// plus each inline stage it reaches — taken out of the worker's
    /// map for the duration (each needs its own `&mut` in the walk).
    insts: Vec<Option<Box<dyn DynStage>>>,
    /// The stages `insts` holds, the envelope's own first.
    held: Vec<usize>,
    /// Inputs of held stages waiting their turn in the current walk:
    /// the second and later copies of a fan-out, and the set a join
    /// completed.
    stack: Vec<(usize, BoxedItem)>,
    /// Per join block: the parts the current walk deposited.
    joins: Vec<JoinSlots>,
    /// Parts in `joins` whose set is not complete yet.
    pending: usize,
    /// Per stage: items run since the last booking.
    runs: Vec<u64>,
    /// Per stage: how long the window's sampled item took there.
    samp: Vec<Duration>,
}

impl Region {
    /// Walks the item in `slot` from the envelope's stage through every
    /// held stage it reaches — [`forward`] driving a [`Hop`] — with
    /// `run` presenting the slot's payload to each stage, which rewrites
    /// it in place, and `stop` saying how a failure ends the walk. The
    /// slot is the walk's one item holder: an input the walk takes up
    /// next (a fan-out's copy, a join's assembled set) is written into
    /// it, and an output leaving the pipeline stays in it — `Ok(true)`:
    /// the caller keeps the slot as it is for the sink batch. Any other
    /// output leaves the slot through `forward`, a unit in its place —
    /// `Ok(false)`, as for an item dead-lettered. (No payload crosses a
    /// stage call by value, and none crosses the exit: reloading a
    /// payload just written was the walk's costliest instruction, at
    /// both places.) Parts of a join that did not complete inside the
    /// walk go on to the shared join map through `outbox`, so a block
    /// that is only partly co-located still pairs exactly once. With
    /// `sample`, each stage's share of the walk is stamped into `samp`.
    /// `Err(())`: a stage failed the run, which is already torn down.
    #[inline]
    fn walk<E>(
        &mut self,
        shared: &Arc<Shared>,
        outbox: &mut Outbox,
        slot: &mut ItemSlot,
        sample: bool,
        mut run: impl FnMut(usize, &mut dyn DynStage, &mut BoxedItem) -> Result<(), E>,
        mut stop: impl FnMut(usize, E) -> Stop,
    ) -> Result<bool, ()> {
        let graph = &shared.spec.graph;
        let (seq, born) = (slot.seq, slot.born);
        let mut stage = self.held[0];
        let mut t_prev = sample.then(Instant::now);
        let exits = loop {
            let inst = self.insts[stage]
                .as_deref_mut()
                .expect("walks run held stages");
            if let Err(err) = run(stage, inst, &mut slot.payload) {
                match stop(stage, err) {
                    Stop::Dead => {
                        // Settled on the dead-letter channel: nothing
                        // of the item goes further.
                        self.stack.clear();
                        self.drop_parts();
                        return Ok(false);
                    }
                    Stop::Fatal => return Err(()),
                }
            }
            self.runs[stage] += 1;
            if let Some(t_prev) = &mut t_prev {
                let t_now = Instant::now();
                self.samp[stage] = t_now.duration_since(*t_prev);
                *t_prev = t_now;
            }
            let next = match &self.after[stage] {
                // A plain inline successor continues the walk: a chain
                // costs one call per stage.
                Next::Stage(t) if self.insts[*t].is_some() => {
                    stage = *t;
                    continue;
                }
                // The exit stage is the graph's one sink, so every other
                // part of the item has been walked into it by now.
                Next::Done => break true,
                next => next,
            };
            let item = std::mem::replace(&mut slot.payload, Payload::new(()));
            let mut hop = Hop {
                seq,
                born,
                graph,
                outbox: &mut *outbox,
                insts: &self.insts,
                stack: &mut self.stack,
                joins: &mut self.joins,
                pending: &mut self.pending,
                next: None,
            };
            forward(graph, &shared.fanouts, next, item, &mut hop);
            match hop.next.or_else(|| self.stack.pop()) {
                Some((t, input)) => {
                    // What it replaces is the unit left behind above,
                    // whose drop does nothing.
                    std::mem::forget(std::mem::replace(&mut slot.payload, input));
                    stage = t;
                }
                None => break false,
            }
        };
        debug_assert!(!exits || self.stack.is_empty());
        if self.pending > 0 {
            for (block, set) in self.joins.iter_mut().enumerate() {
                for (part, payload) in set.drain() {
                    outbox.joining(block, part, ItemSlot::new(seq, born, payload));
                }
            }
            self.pending = 0;
        }
        Ok(exits)
    }

    /// Drops the parts an abandoned walk left in the join slots.
    fn drop_parts(&mut self) {
        if self.pending > 0 {
            self.joins
                .iter_mut()
                .for_each(|set| set.drain().for_each(drop));
            self.pending = 0;
        }
    }

    /// Clears the run counts, returning the inline runs among them —
    /// every held stage's but the envelope's own.
    fn take_inline_runs(&mut self) -> u64 {
        let entry = self.held[0];
        let runs = self
            .held
            .iter()
            .map(|&s| (s, std::mem::take(&mut self.runs[s])));
        runs.filter(|&(s, _)| s != entry).map(|(_, n)| n).sum()
    }
}

/// Why a walk stops short.
enum Stop {
    /// The item settled on the dead-letter channel.
    Dead,
    /// The run failed and is already torn down.
    Fatal,
}

/// Where one stage output of a walk goes: a held stage's input goes on
/// with the walk (the first directly, the rest via the stack), a join
/// part into the walk's slots, the rest into the envelope's [`Outbox`].
struct Hop<'a> {
    seq: u64,
    born: SimTime,
    graph: &'a StageGraph,
    outbox: &'a mut Outbox,
    insts: &'a [Option<Box<dyn DynStage>>],
    stack: &'a mut Vec<(usize, BoxedItem)>,
    joins: &'a mut [JoinSlots],
    pending: &'a mut usize,
    /// The input the walk runs next.
    next: Option<(usize, BoxedItem)>,
}

impl Hops for Hop<'_> {
    #[inline]
    fn copies(&mut self) -> &mut Vec<BoxedItem> {
        &mut self.outbox.copies
    }

    fn exit(&mut self, _: BoxedItem) {
        unreachable!("the walk keeps an exit in its slot and never forwards one")
    }

    #[inline]
    fn stage(&mut self, stage: usize, payload: BoxedItem) {
        if self.insts[stage].is_none() {
            let slot = ItemSlot::new(self.seq, self.born, payload);
            self.outbox.onward(stage, slot);
        } else if self.next.is_none() {
            self.next = Some((stage, payload));
        } else {
            self.stack.push((stage, payload));
        }
    }

    #[inline]
    fn slot(&mut self, block: usize, slot: usize, part: BoxedItem) {
        match self.joins[block].deposit(slot, part) {
            None => *self.pending += 1,
            Some(parts) => {
                // The joining stage must receive the assembled vector,
                // not a raw copy to process.
                *self.pending -= parts.len() - 1;
                self.stage(self.graph.merge_of(block), Payload::new(parts));
            }
        }
    }
}

/// One message being served: the region's instances and scratch,
/// moved out of the plan for the duration, and what the run
/// accumulates.
struct Batch {
    region: Region,
    /// The shard (slot) whose instance of the entry stage the region
    /// holds.
    slot: usize,
    outbox: Outbox,
    /// Occupied time.
    busy: Duration,
    fused_hops: u64,
    /// A stage failed the session: nothing ships.
    fatal: bool,
}

/// Runs every item of one message through its stage — and, when the
/// worker's [`FusionPlan`] runs stages downstream of it inline, through
/// every one of them the item reaches, fan-outs and joins included, in
/// the same loop, skipping the per-boundary envelope/inbox round-trip
/// and the shared join map entirely. `pieces` are what placement kept
/// to serve, as `(slot, items)` in order — one for an unkeyed envelope,
/// one per held shard of a keyed one — and leave emptied. They share
/// one region and one [`Outbox`]: results ship onward in
/// per-destination-stage batches, and the items that leave the pipeline
/// ship in the buffers they were served in, as one sink message per
/// message that finished items; occupied time is added to the tenant's
/// busy account.
///
/// Two bookkeeping regimes: [`Batch::run_fast`] when the entry stage has
/// the default resilience policy and the vnode can never throttle,
/// [`Batch::run_slow`] otherwise.
pub(crate) fn process_batch(
    me: usize,
    tl: &mut TenantLocal,
    snap: &RoutingSnapshot,
    stage: usize,
    pieces: &mut Vec<(usize, Vec<ItemSlot>)>,
) {
    tl.fusion.refresh(me, &tl.tenant, snap);
    let len = pieces.iter().map(|(_, items)| items.len()).sum();
    let mut batch = Batch::acquire(tl, stage, pieces[0].0, len);
    let never_throttles = tl.tenant.pool.vnodes[me].never_throttles();
    let fast = never_throttles && tl.tenant.spec.stages[stage].resilience.is_default();
    for (slot, mut items) in pieces.drain(..) {
        // A fatal failure ends the batch: later pieces do not run.
        if !batch.fatal {
            batch.enter(&mut tl.local, slot);
            if fast {
                batch.run_fast(tl, &mut items);
            } else {
                batch.run_slow(me, tl, &mut items);
            }
        }
        if batch.fatal {
            // Nothing ships: recycling releases the payloads.
            SLOT_BUFS.put(items);
        } else {
            batch.outbox.exits(items);
        }
    }
    batch.finish(tl, snap);
}

impl Batch {
    /// The region: the stage's instance for `slot` (acquired by
    /// placement) plus every inline stage it reaches whose instance is
    /// acquirable right now. An instance still in migration transit
    /// stays out — its inputs travel by envelope and buffer at the
    /// receiver, exactly as unfused traffic would. The outbox sizes its
    /// batches for the message's `hint` items.
    fn acquire(tl: &mut TenantLocal, stage: usize, slot: usize, hint: usize) -> Batch {
        let shared = &tl.tenant;
        let mut region = std::mem::take(&mut tl.fusion.region);
        let entry = tl.local.remove(&(stage, slot));
        region.insts[stage] = Some(entry.expect("instance acquired before process"));
        region.held.push(stage);
        for &t in &tl.fusion.reach[stage] {
            if try_acquire(shared, &mut tl.local, t, 0) {
                region.insts[t] = tl.local.remove(&(t, 0));
                region.held.push(t);
            }
        }
        if shared.spec.stages[stage].state == StateAccess::Accumulator {
            // Absorb partials parked by replicas that vacated their hosts —
            // state migrated in via the stage's merge operator, before any
            // new item folds in.
            let pending: Vec<StateSnapshot> = shared.merge_inbox[stage]
                .lock()
                .expect("merge inbox poisoned")
                .drain(..)
                .collect();
            let inst = region.insts[stage].as_mut().expect("just acquired");
            for snap in pending {
                inst.absorb(snap);
            }
        }
        Batch {
            region,
            slot,
            outbox: Outbox::new(hint),
            busy: Duration::ZERO,
            fused_hops: 0,
            fatal: false,
        }
    }

    /// Swaps the entry stage's instance for `slot`'s (acquired by
    /// placement) when the next piece is another shard's.
    fn enter(&mut self, local: &mut HashMap<(usize, usize), Box<dyn DynStage>>, slot: usize) {
        if slot == self.slot {
            return;
        }
        let stage = self.region.held[0];
        let inst = local.remove(&(stage, slot));
        let inst = inst.expect("placement acquired every piece's instance");
        let out = self.region.insts[stage].replace(inst).expect("held");
        local.insert((stage, std::mem::replace(&mut self.slot, slot)), out);
    }

    /// Puts the instances back and ships what the message produced
    /// ([`Outbox::dispatch`]).
    fn finish(mut self, tl: &mut TenantLocal, snap: &RoutingSnapshot) {
        let (region, slot) = (&mut self.region, self.slot);
        // A walk the run's failure cut short leaves inputs and counts
        // behind.
        region.stack.clear();
        region.drop_parts();
        region.take_inline_runs();
        for (i, s) in region.held.drain(..).enumerate() {
            let inst = region.insts[s].take().expect("held");
            tl.local.insert((s, if i == 0 { slot } else { 0 }), inst);
        }
        tl.fusion.region = self.region;
        tl.busy += self.busy;
        let shared = &tl.tenant;
        if self.fused_hops > 0 {
            shared.fused.fetch_add(self.fused_hops, Ordering::Relaxed);
        }
        // Fatal: nothing ships — the session reads nothing after
        // `Fatal`, and the report shows truncation.
        if !self.fatal {
            self.outbox.dispatch(shared, snap);
        }
    }

    /// The fast path: the clock is read once per *window* of stride
    /// items instead of per item, sink stamps are fixed up at the window
    /// boundary, and service metrics absorb each window as one
    /// exact-count batch per stage (`StageMetrics::record_batch`) —
    /// steady-state bookkeeping is O(windows), not O(items). The stride
    /// adapts between 1 and [`MAX_STAMP_STRIDE`] to keep windows in the
    /// hundreds-of-microseconds band: cheap stages stop paying a clock
    /// read per item, slow stages keep honest latency stamps.
    ///
    /// Each item is walked in its own slot of `items`; those leaving the
    /// pipeline are compacted to the front, in walk order, and `items` is
    /// cut to them (unless a stage failed the run).
    fn run_fast(&mut self, tl: &mut TenantLocal, items: &mut Vec<ItemSlot>) {
        let (shared, plan) = (&tl.tenant, &mut tl.fusion);
        let stage = self.region.held[0];
        // A region of one stage needs no per-stage split of its windows.
        let per_stage = self.region.held.len() > 1;
        let mut t_win = Instant::now();
        // Items walked so far, and how many of them left the pipeline.
        let (mut walked, mut kept) = (0, 0);
        while walked < items.len() {
            // An abort mid-batch (of this tenant or the whole pool)
            // drops the remainder — same contract as the discarded
            // inbox backlog (the report shows truncation). Checked per
            // window on this path.
            if shared.finished() {
                break;
            }
            let stride = plan.stride[stage];
            let win = (stride as usize).min(items.len() - walked);
            let win_kept = kept;
            // The window's first live item is the one stamped per stage.
            let mut sample = per_stage;
            for i in walked..walked + win {
                let slot = &mut items[i];
                let seq = slot.seq;
                // A sibling branch may have dead-lettered this item
                // while this copy sat queued; its work is moot.
                if shared.is_dead(seq) {
                    continue;
                }
                match self.region.walk(
                    shared,
                    &mut self.outbox,
                    slot,
                    std::mem::take(&mut sample),
                    |_, inst, input| inst.process(input),
                    |cs, err| {
                        fail_stage(shared, cs, seq, err.reason);
                        Stop::Fatal
                    },
                ) {
                    Ok(true) => keep(items, i, &mut kept),
                    Ok(false) => {}
                    Err(()) => {
                        self.fatal = true;
                        self.busy += t_win.elapsed();
                        return;
                    }
                }
            }
            walked += win;
            let t_end = Instant::now();
            let w = t_end.duration_since(t_win);
            self.busy += w;
            // Completed items take the window boundary as their sink
            // stamp: stamps stay non-decreasing, and the per-item
            // error is bounded by one window, which the stride
            // adaptation keeps short.
            let done = shared.pool.at(t_end);
            for slot in &mut items[win_kept..kept] {
                slot.done = done;
            }
            self.record_window(&mut tl.metrics, &plan.works, w);
            let next = next_stride(stride, win, w);
            if next != stride {
                plan.stride[stage] = next;
                shared.stride[stage].store(next, Ordering::Relaxed);
            }
            t_win = t_end;
        }
        items.truncate(kept);
    }

    /// Books one fast-path window that took `w`. Regions of several
    /// stages stamped one item per window stage by stage (`samp`) and
    /// split the window's busy time across the stages that ran in those
    /// proportions: counts and totals stay exact (the adaptation loop
    /// plans from declared rates, so the report is the only consumer).
    /// A region of one is never stamped; its one stage gets the whole
    /// window.
    fn record_window(&mut self, metrics: &mut StageMetrics, works: &[f64], w: Duration) {
        let region = &mut self.region;
        let ran: u64 = region.held.iter().map(|&s| region.runs[s]).sum();
        if ran == 0 {
            return;
        }
        let wsecs = w.as_secs_f64();
        let total: f64 = region
            .held
            .iter()
            .map(|&s| region.samp[s].as_secs_f64())
            .sum();
        for &s in &region.held {
            let (runs, samp) = (region.runs[s], std::mem::take(&mut region.samp[s]));
            if runs > 0 {
                let frac = if total > 0.0 {
                    samp.as_secs_f64() / total
                } else {
                    runs as f64 / ran as f64
                };
                let took = SimDuration::from_secs_f64(wsecs * frac);
                metrics.record_batch(s, took, runs, works[s] * runs as f64);
            }
        }
        self.fused_hops += region.take_inline_runs();
    }

    /// The slow path (resilient entry stage, or a vnode with throttle
    /// windows): the same walk with exact per-item, per-stage
    /// accounting — retry/backoff/dead-letter via [`process_resilient`],
    /// synthetic slowdown sleeps and individual service samples on every
    /// stage that runs. Items leaving the pipeline are kept in their
    /// slots as on the fast path, each stamped at its last stage call.
    fn run_slow(&mut self, me: usize, tl: &mut TenantLocal, items: &mut Vec<ItemSlot>) {
        let (shared, plan, metrics) = (&tl.tenant, &tl.fusion, &mut tl.metrics);
        let vnode = &shared.pool.vnodes[me];
        let never_throttles = vnode.never_throttles();
        let mut t_start = Instant::now();
        let mut kept = 0;
        for i in 0..items.len() {
            if shared.finished() {
                break;
            }
            let slot = &mut items[i];
            let seq = slot.seq;
            if shared.is_dead(seq) {
                continue;
            }
            let (mut done, mut busy) = (t_start, Duration::ZERO);
            let exits = self.region.walk(
                shared,
                &mut self.outbox,
                slot,
                false,
                |cs, inst, input| {
                    // Every stage goes through its policy; under the
                    // default one (every inline stage's) that is a
                    // single attempt which succeeds or ends the run.
                    let out = match process_resilient(inst, shared, cs, seq, input) {
                        ResilientOut::Done => Ok(()),
                        ResilientOut::Dead => Err(Stop::Dead),
                        ResilientOut::Fatal => Err(Stop::Fatal),
                    };
                    let t_end = Instant::now();
                    let compute = t_end.duration_since(t_start);
                    t_start = t_end;
                    if out.is_err() {
                        // Dead-lettered or fatal: the attempt time
                        // still counts as busy.
                        busy += compute;
                        return out;
                    }
                    done = t_end;
                    let took = if never_throttles {
                        compute
                    } else {
                        let sleep = vnode.slowdown_sleep(compute, shared.pool.at(t_end));
                        if !sleep.is_zero() {
                            std::thread::sleep(sleep);
                            // The sleep must not be attributed to the
                            // next stage's compute window.
                            t_start = Instant::now();
                        }
                        compute + sleep
                    };
                    busy += took;
                    metrics.record(cs, SimDuration::from_duration(took), plan.works[cs]);
                    out
                },
                |_, stop| stop,
            );
            self.busy += busy;
            match exits {
                Ok(true) => {
                    slot.done = shared.pool.at(done);
                    keep(items, i, &mut kept);
                }
                Ok(false) => {}
                Err(()) => {
                    self.fatal = true;
                    break;
                }
            }
        }
        items.truncate(kept);
        self.fused_hops += self.region.take_inline_runs();
    }
}

/// Moves the item just walked at `i`, which left the pipeline, down
/// behind the `kept` exits walked before it: a buffer whose items all
/// leave is never touched.
#[inline]
fn keep(items: &mut [ItemSlot], i: usize, kept: &mut usize) {
    if i != *kept {
        items.swap(i, *kept);
    }
    *kept += 1;
}

#[cfg(test)]
mod tests;
