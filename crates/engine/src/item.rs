//! What the threaded workers do with one item at one stage: thin
//! callers of the backend-independent kernel, [`adapipe_core::item`],
//! adding what only this backend has — atomic counters, real backoff
//! sleeps, wall-clock timeout stamps, the event bus, and the per-item
//! join map that worker threads share.

use crate::exec::{Finished, ItemSlot};
use crate::tenant::{fatal_teardown, Shared};
use crate::worker::push_onward;
use adapipe_core::item::{self, GaveUp, Hops, JoinSlots};
use adapipe_core::payload::Payload;
use adapipe_core::spec::Next;
use adapipe_core::stage::{BoxedItem, DynStage, StageError};
use adapipe_runtime::session::{RunError, RunEvent, SessionId};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deposits one input into join `block`'s slot `slot` for item `seq`.
/// Returns the assembled parts (slot order) when this deposit completes
/// the set; `None` while siblings are still outstanding — or when the
/// item already dead-lettered on another branch, in which case the
/// input is dropped rather than parked forever.
pub(crate) fn deposit_join(
    shared: &Shared,
    block: usize,
    slot: usize,
    seq: u64,
    part: BoxedItem,
) -> Option<Vec<BoxedItem>> {
    let mut joins = shared.joins[block].lock().expect("join lock poisoned");
    // Checked under the join lock: `Shared::divert_dead` marks the item
    // dead *before* it sweeps this map, so a deposit that still reads
    // "alive" here is one the sweep has yet to come for.
    if shared.is_dead(seq) {
        return None;
    }
    let parts = joins
        .entry(seq)
        .or_insert_with(|| JoinSlots::new(shared.spec.graph.join_width(block)))
        .deposit(slot, part)?;
    joins.remove(&seq);
    Some(parts)
}

/// Outcome of one item's trip through a stage under the stage's
/// [`adapipe_runtime::session::ResiliencePolicy`].
pub(crate) enum ResilientOut {
    /// The stage produced an output, possibly after in-place retries.
    Done(BoxedItem),
    /// The item exhausted its retry budget and was diverted to the
    /// dead-letter channel; it takes no further part in the run.
    Dead,
    /// Unrecoverable failure — the session is already torn down; the
    /// worker must stop processing this tenant's batch.
    Fatal,
}

/// Runs one item through `inst` under `stage`'s resilience policy: the
/// kernel's retry loop, with this backend's share of each failed
/// attempt — count it, stamp its service time against the per-attempt
/// bound (observational: a running closure cannot be interrupted, so an
/// overrun is counted, never cancelled), sleep out the backoff — then
/// opt-in per-hop tracing on success, dead-letter diversion or a typed
/// fatal error once the budget is spent.
pub(crate) fn process_resilient(
    inst: &mut dyn DynStage,
    shared: &Arc<Shared>,
    stage: usize,
    seq: u64,
    payload: BoxedItem,
) -> ResilientOut {
    let spec = &shared.spec.stages[stage];
    let policy = &spec.resilience;
    let bound = policy
        .timeout
        .map(|t| Duration::from_secs_f64(t.as_secs_f64()));
    let stamp = |started: Instant| {
        if bound.is_some_and(|b| started.elapsed() > b) {
            shared.timeouts.fetch_add(1, Ordering::Relaxed);
        }
    };
    let mut started = Instant::now();
    let verdict = item::attempt(inst, spec, seq, payload, |failed| {
        stamp(started);
        shared.retries.fetch_add(1, Ordering::Relaxed);
        let delay = policy.backoff_delay(failed);
        if delay.as_secs_f64() > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(delay.as_secs_f64()));
        }
        started = Instant::now();
    });
    stamp(started);
    match verdict {
        Ok((out, attempts)) => {
            if policy.trace {
                shared.hooks.events.emit(RunEvent::ItemTrace {
                    session: SessionId(shared.id),
                    seq,
                    stage,
                    attempts,
                    at: shared.now(),
                });
            }
            ResilientOut::Done(out)
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
pub(crate) fn fail_stage(shared: &Arc<Shared>, stage: usize, seq: u64, err: StageError) {
    settle(
        shared,
        stage,
        seq,
        item::give_up(&shared.spec.stages[stage], seq, 1, err),
    );
}

/// Where an envelope's items go when they leave their stage: the sink
/// batch, and the onward batches per consuming stage.
pub(crate) struct Outbox {
    pub(crate) finished: Vec<Finished>,
    pub(crate) onward: Vec<(usize, Vec<ItemSlot>)>,
}

impl Outbox {
    /// Routes one stage output (or one source item entering the
    /// pipeline) wherever `next` says — the kernel's walk, landing in
    /// this outbox and the join map the workers share. `Err(())` means
    /// a fan-out type mismatch: the session is already failed and torn
    /// down, and the caller must abandon the rest of its batch.
    #[inline]
    pub(crate) fn send(
        &mut self,
        shared: &Arc<Shared>,
        next: &Next,
        seq: u64,
        born: Instant,
        done: Instant,
        payload: BoxedItem,
    ) -> Result<(), ()> {
        let mut leaving = Leaving {
            shared,
            seq,
            born,
            done,
            outbox: self,
        };
        item::forward(
            &shared.spec.graph,
            &shared.fanouts,
            next,
            payload,
            &mut leaving,
        )
        // Same contract as a stage-level mismatch: fail the
        // session typed.
        .map_err(|type_err| {
            fail_run(
                shared,
                RunError::StageTypeMismatch {
                    stage: type_err.stage,
                },
            )
        })
    }
}

/// One item on its way into an [`Outbox`].
struct Leaving<'a> {
    shared: &'a Shared,
    seq: u64,
    born: Instant,
    done: Instant,
    outbox: &'a mut Outbox,
}

impl Hops for Leaving<'_> {
    #[inline]
    fn exit(&mut self, payload: BoxedItem) {
        self.outbox.finished.push(Finished {
            seq: self.seq,
            born: self.born,
            done: self.done,
            payload,
        });
    }

    #[inline]
    fn stage(&mut self, stage: usize, payload: BoxedItem) {
        let (seq, born) = (self.seq, self.born);
        push_onward(
            &mut self.outbox.onward,
            stage,
            ItemSlot { seq, born, payload },
        );
    }

    /// The joining stage must receive the assembled vector, not a raw
    /// copy to process.
    #[inline]
    fn slot(&mut self, block: usize, slot: usize, part: BoxedItem) {
        if let Some(parts) = deposit_join(self.shared, block, slot, self.seq, part) {
            let joiner = self.shared.spec.graph.merge_of(block);
            self.stage(joiner, Payload::new(parts));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{spawn, EngineConfig};
    use crate::vnode::VNodeSpec;
    use adapipe_core::pipeline::Pipeline;
    use adapipe_core::spec::{PipelineSpec, ResiliencePolicy, StageGraph, StageSpec};
    use adapipe_core::stage::{fan_out_fn, FallibleFnStage, FnStage, MergeStage};

    /// fetch → {parse, audit} → combine, where parse rejects every
    /// value ending in 4 and dead-letters it after one retry.
    fn fallible_diamond() -> Pipeline<u64, u64> {
        let stage = |name: &str| StageSpec::balanced(name, 0.001, 8);
        let spec = PipelineSpec::with_graph(
            vec![
                stage("fetch"),
                stage("parse").with_resilience(ResiliencePolicy::new().retries(1).dead_letter()),
                stage("audit"),
                stage("combine"),
            ],
            StageGraph::dag(4)
                .edge(0, 1)
                .edge(0, 2)
                .edge(1, 3)
                .edge(2, 3)
                .build()
                .expect("a diamond"),
        );
        let stages: Vec<Box<dyn DynStage>> = vec![
            Box::new(FnStage::new("fetch", |x: u64| x + 1)),
            Box::new(FallibleFnStage::new("parse", |v: u64| {
                if v % 10 == 4 {
                    Err(format!("indigestible payload {v}"))
                } else {
                    Ok(v * 10)
                }
            })),
            Box::new(FnStage::new("audit", |v: u64| v + 100)),
            Box::new(MergeStage::new("combine", |parts: Vec<u64>| {
                parts[0] + parts[1]
            })),
        ];
        Pipeline::from_parts(spec, stages, vec![fan_out_fn::<u64>(2)], vec![None; 4])
    }

    #[test]
    fn dead_lettered_items_leave_no_join_state_behind() {
        let vnodes = (0..3).map(|i| VNodeSpec::free(format!("v{i}"))).collect();
        let mut session = spawn(fallible_diamond(), &EngineConfig::new(vnodes), 50);
        let tenant = session.tenant_handle();
        for i in 0..50 {
            session.push(i).unwrap();
        }
        let outcome = session.drain();
        assert_eq!(outcome.report.dead_letters, 5);
        assert_eq!(outcome.report.completed, 45);
        assert_eq!(outcome.report.retries, 5);
        // The audit copies of the five diverted items reached the join
        // before, during or after the diversion; none may be parked.
        let shared = &tenant.shared;
        let parked = |shared: &Shared| -> usize {
            shared.joins.iter().map(|j| j.lock().unwrap().len()).sum()
        };
        assert_eq!(parked(shared), 0);
        // A deposit for an item already diverted is refused outright.
        let dead_seq = outcome.report.dead_letter_log[0].seq;
        assert!(deposit_join(shared, 0, 1, dead_seq, Payload::new(1u64)).is_none());
        assert_eq!(parked(shared), 0);
    }
}
