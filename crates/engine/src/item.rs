//! What the threaded workers do with one item at one stage: thin
//! callers of the backend-independent kernel, [`adapipe_core::item`],
//! adding what only this backend has — atomic counters, real backoff
//! sleeps, the event bus, and the per-item join map that worker threads
//! share — which an envelope's outputs reach through its [`Outbox`],
//! under one lock per envelope.

use crate::exec::ItemSlot;
use crate::fusion::SLOT_BUFS;
use crate::tenant::{fatal_teardown, Shared, SinkMsg};
use crate::worker::{push_bucket, ship};
use adapipe_core::item::{self, GaveUp, Hops, JoinSlots};
use adapipe_core::payload::Payload;
use adapipe_core::spec::Next;
use adapipe_core::stage::{BoxedItem, DynStage};
use adapipe_gridsim::time::SimTime;
use adapipe_runtime::routing::RoutingSnapshot;
use adapipe_runtime::session::{RunError, RunEvent, SessionId};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Outcome of one item's trip through a stage under the stage's
/// [`adapipe_runtime::session::ResiliencePolicy`].
pub(crate) enum ResilientOut {
    /// The stage rewrote the item as its output, possibly after
    /// in-place retries.
    Done,
    /// The item exhausted its retry budget and was diverted to the
    /// dead-letter channel; it takes no further part in the run.
    Dead,
    /// Unrecoverable failure — the session is already torn down; the
    /// worker must stop processing this tenant's batch.
    Fatal,
}

/// Runs the item in `slot` through `inst` under `stage`'s resilience
/// policy, leaving the output in `slot`: the kernel's retry loop, with
/// this backend's share of each failed attempt — count it, sleep out
/// the backoff — then opt-in per-hop tracing on success, dead-letter
/// diversion or a typed fatal error once the budget is spent.
pub(crate) fn process_resilient(
    inst: &mut dyn DynStage,
    shared: &Arc<Shared>,
    stage: usize,
    seq: u64,
    slot: &mut BoxedItem,
) -> ResilientOut {
    let spec = &shared.spec.stages[stage];
    let policy = &spec.resilience;
    let verdict = item::attempt(inst, spec, seq, slot, |failed| {
        shared.retries.fetch_add(1, Ordering::Relaxed);
        let delay = policy.backoff_delay(failed);
        if delay.as_secs_f64() > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(delay.as_secs_f64()));
        }
    });
    match verdict {
        Ok(attempts) => {
            if policy.trace {
                shared.events.emit(RunEvent::ItemTrace {
                    session: SessionId(shared.id),
                    seq,
                    stage,
                    attempts,
                    at: shared.pool.now(),
                });
            }
            ResilientOut::Done
        }
        Err(gave_up) => settle(shared, stage, seq, gave_up),
    }
}

/// Carries out a stage's decision to stop trying an item: divert it to
/// the dead-letter channel, or fail the session typed and tear it down
/// — never kill the worker thread and hang everyone blocked on it.
fn settle(shared: &Arc<Shared>, stage: usize, seq: u64, gave_up: GaveUp) -> ResilientOut {
    match gave_up {
        GaveUp::DeadLetter { attempts, reason } => {
            shared.divert_dead(seq, stage, attempts, reason);
            ResilientOut::Dead
        }
        GaveUp::Fatal(error) => {
            fail_run(shared, error);
            ResilientOut::Fatal
        }
    }
}

fn fail_run(shared: &Shared, error: RunError) {
    shared.control.fail(error);
    fatal_teardown(shared);
}

/// A first-attempt failure on the fused / fast path, whose stages all
/// run under the default policy (no retry budget, no dead-letter
/// channel): the kernel's give-up mapping with `attempts == 1`, which
/// there always ends the run. The caller abandons its batch.
pub(crate) fn fail_stage(shared: &Arc<Shared>, stage: usize, seq: u64, reason: String) {
    settle(
        shared,
        stage,
        seq,
        item::give_up(&shared.spec.stages[stage], seq, 1, reason),
    );
}

/// Where an envelope's items go when they leave their stage: the sink
/// batch, the onward batches per consuming stage, and the join inputs
/// per `(block, slot)`. Join inputs wait here until [`Outbox::dispatch`], so
/// a block's lock is taken once per envelope rather than once per item.
/// An item leaving the pipeline is not copied in here: it stays in the
/// slot it was served in, and the served buffer itself becomes the sink
/// batch ([`Outbox::exits`]).
pub(crate) struct Outbox {
    /// The sink batch: a served buffer that kept the items leaving the
    /// pipeline where they were served, with later pieces' exits
    /// appended; empty until then. Its capacity is zero or at least
    /// `hint`.
    sink: Vec<ItemSlot>,
    /// How many items one bucket may expect: the size of the batch the
    /// outputs come from.
    hint: usize,
    onward: Vec<(usize, Vec<ItemSlot>)>,
    joining: Vec<((usize, usize), Vec<ItemSlot>)>,
    /// Fan-out scratch (`Hops::copies`), kept across the envelope.
    pub(crate) copies: Vec<BoxedItem>,
}

impl Outbox {
    /// An empty outbox for the outputs of a batch of `hint` items.
    pub(crate) fn new(hint: usize) -> Self {
        Outbox {
            sink: Vec::new(),
            hint,
            onward: Vec::new(),
            joining: Vec::new(),
            copies: Vec::new(),
        }
    }

    /// Routes one source item entering the pipeline wherever `next`
    /// says — the kernel's walk, landing in this outbox. `next` is the
    /// pipeline's entry, which is never its exit.
    #[inline]
    pub(crate) fn send(
        &mut self,
        shared: &Arc<Shared>,
        next: &Next,
        seq: u64,
        born: SimTime,
        payload: BoxedItem,
    ) {
        let mut leaving = Leaving {
            seq,
            born,
            outbox: self,
        };
        item::forward(
            &shared.spec.graph,
            &shared.fanouts,
            next,
            payload,
            &mut leaving,
        );
    }

    /// Takes one served buffer, compacted to the items that left the
    /// pipeline in it, each in the slot it was served in. While the
    /// sink batch is empty, a buffer with room for the whole message's
    /// `hint` items becomes it — an unkeyed envelope's always has — so
    /// its exits are not copied again. A shard piece's buffer is sized
    /// for its shard: its items join a sink batch with that room (one
    /// from the pool if none yet), so the batch never regrows item by
    /// item, and the buffer goes back to the pool.
    pub(crate) fn exits(&mut self, mut items: Vec<ItemSlot>) {
        if self.sink.is_empty() && items.capacity() >= self.hint {
            std::mem::swap(&mut self.sink, &mut items);
        } else if !items.is_empty() {
            if self.sink.capacity() == 0 {
                self.sink = SLOT_BUFS.take(self.hint);
            }
            self.sink.append(&mut items);
        }
        SLOT_BUFS.put(items);
    }

    /// Buckets one input of `stage`, bound for its host.
    #[inline]
    pub(crate) fn onward(&mut self, stage: usize, slot: ItemSlot) {
        push_bucket(&mut self.onward, stage, slot, self.hint);
    }

    /// Buckets one input of join `block`'s `slot`, bound for the shared
    /// join map.
    #[inline]
    pub(crate) fn joining(&mut self, block: usize, slot: usize, part: ItemSlot) {
        push_bucket(&mut self.joining, (block, slot), part, self.hint);
    }

    /// Ships what the envelope produced: the join inputs into the map
    /// the workers share (completed sets go onward to the joining
    /// stage), one sink message for the finished items, one onward
    /// envelope per consuming stage.
    pub(crate) fn dispatch(mut self, shared: &Arc<Shared>, snap: &RoutingSnapshot) {
        self.settle_joins(shared);
        if self.sink.is_empty() {
            SLOT_BUFS.put(self.sink);
        } else {
            let _ = shared.sink.send(SinkMsg::Done(self.sink));
        }
        for (stage, items) in self.onward {
            if let Some(buf) = ship(shared, snap, stage, items) {
                SLOT_BUFS.put(buf);
            }
        }
    }

    /// Deposits every bucketed join input, one lock per bucket — which
    /// is one per join block: a stage has at most one edge into any
    /// join (the graph rejects duplicates), so no two buckets of one
    /// envelope share a block. A deposit completing its item's set
    /// sends the assembled parts (slot order) onward to the joining
    /// stage — which must receive that vector, not a raw copy to
    /// process; an input whose item already dead-lettered on another
    /// branch is dropped rather than parked forever.
    fn settle_joins(&mut self, shared: &Shared) {
        let graph = &shared.spec.graph;
        for ((block, slot), mut inputs) in std::mem::take(&mut self.joining) {
            let (joiner, width) = (graph.merge_of(block), graph.join_width(block));
            let deposited = inputs.len() as u64;
            shared.deposits.fetch_add(deposited, Ordering::Relaxed);
            let mut joins = shared.joins[block].lock().expect("join lock poisoned");
            for ItemSlot {
                seq, born, payload, ..
            } in inputs.drain(..)
            {
                // Checked under the join lock: `Shared::divert_dead`
                // marks the item dead *before* it sweeps this map, so a
                // deposit that still reads "alive" here is one the sweep
                // has yet to come for.
                if shared.is_dead(seq) {
                    continue;
                }
                let set = joins.entry(seq).or_insert_with(|| JoinSlots::new(width));
                if let Some(parts) = set.deposit(slot, payload) {
                    joins.remove(&seq);
                    let slot = ItemSlot::new(seq, born, Payload::new(parts));
                    push_bucket(&mut self.onward, joiner, slot, deposited as usize);
                }
            }
            drop(joins);
            SLOT_BUFS.put(inputs);
        }
    }
}

/// One source item on its way into an [`Outbox`].
struct Leaving<'a> {
    seq: u64,
    born: SimTime,
    outbox: &'a mut Outbox,
}

impl Leaving<'_> {
    fn slot_of(&self, payload: BoxedItem) -> ItemSlot {
        ItemSlot::new(self.seq, self.born, payload)
    }
}

impl Hops for Leaving<'_> {
    #[inline]
    fn copies(&mut self) -> &mut Vec<BoxedItem> {
        &mut self.outbox.copies
    }

    fn exit(&mut self, _: BoxedItem) {
        unreachable!("a pipeline has at least one stage: nothing exits at its entry")
    }

    #[inline]
    fn stage(&mut self, stage: usize, payload: BoxedItem) {
        let slot = self.slot_of(payload);
        self.outbox.onward(stage, slot);
    }

    #[inline]
    fn slot(&mut self, block: usize, slot: usize, part: BoxedItem) {
        let part = self.slot_of(part);
        self.outbox.joining(block, slot, part);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::spawn;
    use crate::vnode::VNodeSpec;
    use adapipe_core::pipeline::{DagBuilder, Pipeline};
    use adapipe_core::spec::{ResiliencePolicy, StageSpec};
    use adapipe_gridsim::node::NodeId;
    use adapipe_mapper::mapping::{Mapping, Placement};
    use adapipe_runtime::session::{LiveSession, RunConfig, RunHandle, Session};
    use std::sync::Mutex;

    /// fetch → {parse, audit} → combine, where parse rejects every
    /// value ending in 4 and dead-letters it after one retry. `audit`
    /// and `parse_hook` (called as `parse` takes an item up) are the
    /// test's to instrument.
    fn fallible_diamond(
        mut parse_hook: impl FnMut() + Send + Clone + 'static,
        audit: impl FnMut(u64) -> u64 + Send + Clone + 'static,
    ) -> Pipeline<u64, u64> {
        let stage = |name: &str| StageSpec::balanced(name, 0.001, 8);
        let mut dag = DagBuilder::<u64>::default();
        let fetch = dag.node_with(stage("fetch"), dag.input(), |x: u64| x + 1);
        let parse = dag.try_node_with(stage("parse"), fetch.clone(), move |v: u64| {
            parse_hook();
            if v % 10 == 4 {
                Err(format!("indigestible payload {v}"))
            } else {
                Ok(v * 10)
            }
        });
        dag.resilience(ResiliencePolicy::new().retries(1).dead_letter());
        let audit = dag.node_with(stage("audit"), fetch, audit);
        let combine = dag.join_with(stage("combine"), vec![parse, audit], |parts: Vec<u64>| {
            parts[0] + parts[1]
        });
        dag.finish(combine).expect("a diamond")
    }

    fn audit(v: u64) -> u64 {
        v + 100
    }

    /// What the diamond makes of input `x`; `None` if parse diverts it.
    fn expected(x: u64) -> Option<u64> {
        let v = x + 1;
        (v % 10 != 4).then_some(v * 10 + audit(v))
    }

    fn parked(shared: &Shared) -> usize {
        shared.joins.iter().map(|j| j.lock().unwrap().len()).sum()
    }

    /// Every pushed item is accounted for exactly once — an output, in
    /// push order, or a dead letter — and no join input outlives the
    /// run, whichever side of the diversion it arrived on.
    fn assert_settled(items: u64, outcome: &RunHandle<u64>, tenant: &Shared) {
        let outputs: Vec<u64> = (0..items).filter_map(expected).collect();
        assert_eq!(outcome.outputs, outputs, "no duplicate, no loss");
        let dead = items - outputs.len() as u64;
        assert_eq!(outcome.report.dead_letters, dead);
        assert_eq!(outcome.report.retries, dead);
        assert_eq!(outcome.report.completed + dead, items);
        assert!(!outcome.report.truncated);
        assert_eq!(parked(tenant), 0);
    }

    #[test]
    fn dead_lettered_items_leave_no_join_state_behind() {
        // Per item on three vnodes; in 64-item envelopes on two.
        for (vnodes, batch_size, items) in [(3, 1, 50), (2, 64, 1000)] {
            let vnodes = (0..vnodes).map(|i| VNodeSpec::free(format!("v{i}")));
            let cfg = RunConfig {
                batch_size,
                ..RunConfig::default()
            };
            let mut session = spawn(
                fallible_diamond(|| (), audit),
                vnodes.collect(),
                &Session::default(),
                &cfg,
            );
            let tenant = Arc::clone(&session.shared);
            session.push_batch(&mut (0..items)).unwrap();
            let outcome = session.drain();
            assert_settled(items, &outcome, &tenant);

            // A deposit for an item already diverted is refused outright.
            let shared = &tenant;
            let dead_seq = outcome.report.dead_letter_log[0].seq;
            let now = shared.pool.now();
            let mut late = Outbox::new(1);
            let into_join = Next::Join {
                block: 0,
                branch: 1,
            };
            late.send(shared, &into_join, dead_seq, now, Payload::new(1u64));
            late.dispatch(shared, &shared.snapshot());
            assert_eq!(parked(shared), 0);
        }
    }

    /// The interleaving batching adds: a whole envelope of `audit`
    /// outputs sits bucketed in its worker's outbox while `parse`, on
    /// the other vnode, dead-letters their siblings — so every sweep of
    /// the join map comes and goes before the deposits it was meant to
    /// cancel arrive. They must be refused when the outbox settles.
    #[test]
    fn deposits_bucketed_while_their_item_dead_letters_are_refused_at_settle() {
        const ITEMS: u64 = 63;
        const PATIENCE: Duration = Duration::from_secs(20);
        let dead = (0..ITEMS).filter(|&x| expected(x).is_none()).count();
        assert!(dead > 0 && expected(ITEMS - 1).is_some());
        let vnodes = (0..2).map(|i| VNodeSpec::free(format!("v{i}")));
        let mut cfg = RunConfig {
            batch_size: ITEMS as usize,
            ..RunConfig::default()
        };
        // `audit` alone on v1: one envelope, one outbox.
        let on = |v| Placement::single(NodeId(v));
        cfg.initial_mapping = Some(Mapping::new(vec![on(0), on(0), on(1), on(0)]));
        let events = Arc::new(Mutex::new(cfg.events.subscribe()));
        let (at_gate, gate) = std::sync::mpsc::channel::<()>();
        let gate = Arc::new(Mutex::new(Some(gate)));
        let forced = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // `parse` starts only once `audit` is on its envelope's last
        // item, every other output bucketed behind it ...
        let held_parse = move || {
            if let Some(gate) = gate.lock().unwrap().take() {
                let _ = gate.recv_timeout(PATIENCE);
            }
        };
        // ... and `audit` finishes only once `parse` has diverted every
        // item it is going to (the event follows the sweep).
        let held_audit = {
            let forced = Arc::clone(&forced);
            move |v: u64| {
                if v == ITEMS {
                    at_gate.send(()).unwrap();
                    let events = events.lock().unwrap();
                    let diverted = std::iter::from_fn(|| events.recv_timeout(PATIENCE).ok())
                        .filter(|e| matches!(e, RunEvent::ItemDeadLettered { .. }))
                        .take(dead)
                        .count();
                    forced.store(diverted == dead, Ordering::SeqCst);
                }
                audit(v)
            }
        };
        let mut session = spawn(
            fallible_diamond(held_parse, held_audit),
            vnodes.collect(),
            &Session::default(),
            &cfg,
        );
        let tenant = Arc::clone(&session.shared);
        session.push_batch(&mut (0..ITEMS)).unwrap();
        let outcome = session.drain();
        assert!(
            forced.load(Ordering::SeqCst),
            "the interleaving was not forced"
        );
        assert_settled(ITEMS, &outcome, &tenant);
    }
}
