//! The item-semantics kernel: what happens to *one item at one stage*,
//! and where its output goes next.
//!
//! A stage's meaning must not depend on which backend runs it, so the
//! three decisions every backend has to make per item live here, once:
//!
//! 1. [`attempt`] / [`give_up`] — the one retry loop, which presents
//!    one item slot until the stage rewrites it, and the one mapping
//!    from a [`StageError`](crate::stage::StageError) plus the stage's
//!    [`ResiliencePolicy`](crate::spec::ResiliencePolicy) to an output,
//!    a dead letter, or the [`RunError`] that ends the run;
//! 2. [`JoinSlots`] — the input slots of one joining stage for one
//!    item: deposit by slot, get the slot-ordered vector back when the
//!    set completes;
//! 3. [`forward`] — the one walk of [`Next`]: exit, plain consumer,
//!    fan-out over plain and slotted targets in edge order, join slot,
//!    each sent to the backend's [`Hops`], the fan-out's copies passing
//!    through a scratch vector the backend keeps between items.
//!
//! Beside them sits [`SeqMap`], the table both backends key their
//! per-item bookkeeping by: sequence numbers, hashed by [`SeqHasher`]
//! with one multiply.
//!
//! The kernel owns no clock, no queue and no lock. Backends supply
//! those: the threaded engine's workers call it from their slow path
//! (`adapipe-engine`'s `item` module adds counters, backoff sleeps and
//! the shared per-item join map), the simulation backend's
//! [`SimSession`](crate::simsession::SimSession) calls it at push time
//! and hands the observed outcome to the simulated world to charge.

use crate::spec::{Next, StageGraph, StageSpec};
use crate::stage::{BoxedItem, DynStage, FanOutFn};
use adapipe_runtime::session::RunError;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Why a stage stopped trying an item.
#[derive(Debug, PartialEq)]
pub enum GaveUp {
    /// The retry budget is spent and the stage declared a dead-letter
    /// channel: the item settles there, the run goes on.
    DeadLetter {
        /// Attempts consumed (first try + retries).
        attempts: u32,
        /// The last attempt's error.
        reason: String,
    },
    /// Nothing absorbs the failure: the run ends with this error.
    Fatal(RunError),
}

/// Presents the item in `slot` to `stage` until the stage rewrites it
/// as its output or the stage's policy gives up: a rejected item stays
/// in the slot, and the same slot is presented again while
/// `spec.resilience.max_retries` allows.
/// `retrying` runs once per failed attempt that will be retried, with
/// that attempt's 1-based number, before the item is presented again —
/// where a backend counts the retry and waits out its backoff.
///
/// Returns the number of attempts the output took; `slot` then holds
/// it.
pub fn attempt(
    stage: &mut dyn DynStage,
    spec: &StageSpec,
    seq: u64,
    slot: &mut BoxedItem,
    mut retrying: impl FnMut(u32),
) -> Result<u32, GaveUp> {
    let mut attempts: u32 = 1;
    loop {
        match stage.process(slot) {
            Ok(()) => return Ok(attempts),
            Err(_) if attempts <= spec.resilience.max_retries => {
                retrying(attempts);
                attempts += 1;
            }
            Err(err) => return Err(give_up(spec, seq, attempts, err.reason)),
        }
    }
}

/// What a stage's rejection, for `reason`, means once no further
/// attempt will be made: the rejected item diverts to the dead-letter
/// channel if the stage declared one, and otherwise poisons the run
/// ([`RunError::PoisonItem`], naming the stage and the give-up attempt
/// count — `attempts == 1` under the default policy).
pub fn give_up(spec: &StageSpec, seq: u64, attempts: u32, reason: String) -> GaveUp {
    if spec.resilience.dead_letter {
        return GaveUp::DeadLetter { attempts, reason };
    }
    GaveUp::Fatal(RunError::PoisonItem {
        stage: spec.name.clone(),
        seq,
        attempts,
        reason,
    })
}

/// The input slots of one joining stage, for one item.
pub struct JoinSlots {
    width: usize,
    /// `width` slots, or none once a completed set has left — as the
    /// very vector it was assembled in — until the next item arrives.
    slots: Vec<Option<BoxedItem>>,
}

impl JoinSlots {
    /// Empty slots for a join of `width` inputs.
    pub fn new(width: usize) -> Self {
        JoinSlots {
            width,
            slots: Self::empty(width),
        }
    }

    fn empty(width: usize) -> Vec<Option<BoxedItem>> {
        (0..width).map(|_| None).collect()
    }

    /// Puts `part` into `slot`. When that completes the set, returns
    /// the parts in slot order — whatever order they were deposited in —
    /// and leaves every slot empty for the next item.
    pub fn deposit(&mut self, slot: usize, part: BoxedItem) -> Option<Vec<BoxedItem>> {
        if self.slots.is_empty() {
            self.slots = Self::empty(self.width);
        }
        self.slots[slot] = Some(part);
        if !self.slots.iter().all(Option::is_some) {
            return None;
        }
        let full = std::mem::take(&mut self.slots).into_iter();
        Some(full.map(|part| part.expect("every slot is full")).collect())
    }

    /// Takes out the parts of an incomplete set, each with its slot, and
    /// leaves every slot empty for the next item — for a backend that
    /// hands an unfinished set on to be completed elsewhere.
    pub fn drain(&mut self) -> impl Iterator<Item = (usize, BoxedItem)> + '_ {
        let parts = self.slots.iter_mut().enumerate();
        parts.filter_map(|(slot, part)| Some((slot, part.take()?)))
    }

    /// Drops whatever an item that ended early left behind.
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

/// A table keyed by item sequence number.
pub type SeqMap<V> = HashMap<u64, V, BuildHasherDefault<SeqHasher>>;

/// Hashes a sequence number with one multiply. The keys are a
/// session's own push counter — consecutive, never chosen by a caller —
/// so the default hasher's flood protection buys nothing here, and its
/// SipHash rounds are paid on every lookup. An odd multiplier keeps
/// consecutive numbers in distinct buckets (the low bits) and spreads
/// them over the table's tag bits (the high ones).
#[derive(Default)]
pub struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a u64 key hashes through write_u64");
    }

    #[inline]
    fn write_u64(&mut self, seq: u64) {
        self.0 = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Where [`forward`] sends payloads: a backend's queues, sink and join
/// state behind three hops, plus the vector a fan-out writes its copies
/// into on their way to those hops. (A trait rather than one callback
/// taking an enum: the hops sit in the threaded engine's per-item loop,
/// where packing a payload into an enum for the callback to unpack
/// again measurably costs throughput.)
pub trait Hops {
    /// The backend's fan-out scratch vector: [`forward`] borrows it
    /// for one fan-out, fills and drains it, and hands it back empty
    /// with its capacity — so the backend keeps one for as long as it
    /// forwards (per envelope, per session) and no item allocates one.
    fn copies(&mut self) -> &mut Vec<BoxedItem>;
    /// The payload is the pipeline's output. A backend that walks an
    /// item in a slot of its own may leave the output in that slot and
    /// never forward a [`Next::Done`]: the threaded engine's walk does,
    /// so that nothing copies an output after its last stage call.
    fn exit(&mut self, payload: BoxedItem);
    /// The payload is `stage`'s next input.
    fn stage(&mut self, stage: usize, payload: BoxedItem);
    /// The payload fills input `slot` of join `block`; the joining
    /// stage ([`StageGraph::merge_of`]) runs on the assembled vector
    /// once every slot is full.
    fn slot(&mut self, block: usize, slot: usize, part: BoxedItem);
}

/// Hands `payload` wherever `next` says, one hop per destination: the
/// exit, a consuming stage, a join slot, or — fanning out — one copy per
/// target of the fan block in edge order, where a plain target consumes
/// its copy and a slotted target (a producer feeding one input of a
/// downstream join directly) has it deposited in that join's slot.
#[inline]
pub fn forward(
    graph: &StageGraph,
    fanouts: &[FanOutFn],
    next: &Next,
    payload: BoxedItem,
    to: &mut impl Hops,
) {
    match *next {
        Next::Done => to.exit(payload),
        Next::Stage(stage) => to.stage(stage, payload),
        Next::Join { block, branch } => to.slot(block, branch, payload),
        Next::FanOut { block } => {
            let mut copies = std::mem::take(to.copies());
            fanouts[block](payload, &mut copies);
            for (target, part) in graph.fan_targets(block).iter().zip(copies.drain(..)) {
                match target.slot {
                    None => to.stage(target.stage, part),
                    Some(slot) => {
                        let block = graph
                            .merge_block_of(target.stage)
                            .expect("slotted fan target joins");
                        to.slot(block, slot, part);
                    }
                }
            }
            *to.copies() = copies;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;
    use crate::spec::ResiliencePolicy;
    use crate::stage::{fan_out_fn, FallibleFnStage};

    /// A stage rejecting its first `failures` presentations.
    fn flaky(failures: u32) -> impl DynStage {
        let mut seen = 0;
        FallibleFnStage::new("flaky", move |x: u64| {
            seen += 1;
            if seen <= failures {
                Err(format!("glitch {seen}"))
            } else {
                Ok(x + 1)
            }
        })
    }

    fn spec(policy: ResiliencePolicy) -> StageSpec {
        StageSpec::balanced("flaky", 1.0, 0).with_resilience(policy)
    }

    #[test]
    fn default_policy_tries_once_and_poisons_the_run() {
        let mut retried = Vec::new();
        let gave_up = attempt(
            &mut flaky(1),
            &spec(ResiliencePolicy::new()),
            7,
            &mut Payload::new(1u64),
            |a| retried.push(a),
        )
        .unwrap_err();
        assert!(retried.is_empty(), "max_retries = 0 never retries");
        assert_eq!(
            gave_up,
            GaveUp::Fatal(RunError::PoisonItem {
                stage: "flaky".into(),
                seq: 7,
                attempts: 1,
                reason: "glitch 1".into(),
            })
        );
    }

    #[test]
    fn success_on_the_last_allowed_attempt_counts_every_retry() {
        let mut retried = Vec::new();
        let mut out = Payload::new(41u64);
        let attempts = attempt(
            &mut flaky(2),
            &spec(ResiliencePolicy::new().retries(2)),
            0,
            &mut out,
            |a| retried.push(a),
        )
        .expect("third attempt succeeds");
        assert_eq!(
            out.downcast::<u64>().unwrap(),
            42,
            "the same item came back"
        );
        assert_eq!(attempts, 3);
        assert_eq!(retried, vec![1, 2]);
    }

    #[test]
    fn spent_budget_dead_letters_or_poisons_by_declaration() {
        let run = |policy: ResiliencePolicy| {
            let mut item = Payload::new(0u64);
            attempt(&mut flaky(9), &spec(policy), 3, &mut item, |_| {}).unwrap_err()
        };
        assert_eq!(
            run(ResiliencePolicy::new().retries(1).dead_letter()),
            GaveUp::DeadLetter {
                attempts: 2,
                reason: "glitch 2".into(),
            }
        );
        assert!(matches!(
            run(ResiliencePolicy::new().retries(1)),
            GaveUp::Fatal(RunError::PoisonItem { attempts: 2, .. })
        ));
    }

    /// A stage rejecting its first two attempts, in the one slot the
    /// retry loop presents: every attempt meets the item as it arrived,
    /// the output is the third attempt's, and a budget spent before it
    /// settles the item as a dead letter with the input still in place.
    #[test]
    fn a_retry_presents_the_same_slot_until_the_stage_rewrites_it() {
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let twice_shy = || {
            let seen = std::sync::Arc::clone(&seen);
            FallibleFnStage::new("flaky", move |x: u64| {
                let mut seen = seen.lock().unwrap();
                seen.push(x);
                match seen.len() {
                    n @ (1 | 2) => Err(format!("glitch {n}")),
                    n => Ok((x, n)),
                }
            })
        };
        let mut slot = Payload::new(41u64);
        let policy = ResiliencePolicy::new().retries(2);
        let attempts = attempt(&mut twice_shy(), &spec(policy), 5, &mut slot, |_| {});
        assert_eq!(attempts, Ok(3));
        assert_eq!(
            *seen.lock().unwrap(),
            [41, 41, 41],
            "each retry saw the same value"
        );
        assert_eq!(slot.downcast::<(u64, usize)>().unwrap(), (41, 3));

        seen.lock().unwrap().clear();
        let mut slot = Payload::new(41u64);
        let policy = ResiliencePolicy::new().retries(1).dead_letter();
        let gave_up = attempt(&mut twice_shy(), &spec(policy), 5, &mut slot, |_| {});
        assert_eq!(
            gave_up,
            Err(GaveUp::DeadLetter {
                attempts: 2,
                reason: "glitch 2".into(),
            })
        );
        assert_eq!(*seen.lock().unwrap(), [41, 41]);
        assert_eq!(slot.downcast::<u64>().unwrap(), 41, "the input stayed put");
    }

    fn values(parts: Vec<BoxedItem>) -> Vec<u64> {
        parts
            .into_iter()
            .map(|p| p.downcast::<u64>().unwrap())
            .collect()
    }

    #[test]
    fn join_slots_order_by_slot_and_serve_item_after_item() {
        let mut join = JoinSlots::new(3);
        assert!(join.deposit(2, Payload::new(30u64)).is_none());
        assert!(join.deposit(0, Payload::new(10u64)).is_none());
        let parts = join.deposit(1, Payload::new(20u64)).expect("set complete");
        assert_eq!(values(parts), vec![10, 20, 30]);
        // Completion emptied the slots: the next item needs all three
        // again, and may deposit them in another order.
        assert!(join.deposit(1, Payload::new(2u64)).is_none());
        assert!(join.deposit(0, Payload::new(1u64)).is_none());
        let parts = join.deposit(2, Payload::new(3u64)).expect("set complete");
        assert_eq!(values(parts), vec![1, 2, 3]);
    }

    #[test]
    fn join_slots_clear_forgets_a_partial_set() {
        let mut join = JoinSlots::new(2);
        assert!(join.deposit(0, Payload::new(1u64)).is_none());
        join.clear();
        assert!(
            join.deposit(1, Payload::new(5u64)).is_none(),
            "slot 0 is gone"
        );
        let parts = join.deposit(0, Payload::new(4u64)).expect("set complete");
        assert_eq!(values(parts), vec![4, 5]);
    }

    #[test]
    fn join_slots_drain_hands_on_a_partial_set_by_slot() {
        let mut join = JoinSlots::new(3);
        assert!(join.deposit(2, Payload::new(30u64)).is_none());
        assert!(join.deposit(0, Payload::new(10u64)).is_none());
        let parts: Vec<(usize, u64)> = join.drain().map(|(s, p)| (s, read(p))).collect();
        assert_eq!(parts, vec![(0, 10), (2, 30)]);
        assert_eq!(join.drain().count(), 0, "drained slots are empty");
        // The next item starts from empty slots.
        assert!(join.deposit(1, Payload::new(2u64)).is_none());
        assert!(join.deposit(0, Payload::new(1u64)).is_none());
        let parts = join.deposit(2, Payload::new(3u64)).expect("set complete");
        assert_eq!(values(parts), vec![1, 2, 3]);
    }

    /// What one `forward` call sent, payloads read back as `u64`.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Exit(u64),
        Stage(usize, u64),
        Slot {
            block: usize,
            slot: usize,
            part: u64,
        },
    }

    fn read(payload: BoxedItem) -> u64 {
        payload.downcast::<u64>().unwrap()
    }

    /// Records every hop.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<Seen>,
        copies: Vec<BoxedItem>,
    }

    impl Hops for Recorder {
        fn copies(&mut self) -> &mut Vec<BoxedItem> {
            &mut self.copies
        }
        fn exit(&mut self, payload: BoxedItem) {
            self.seen.push(Seen::Exit(read(payload)));
        }
        fn stage(&mut self, stage: usize, payload: BoxedItem) {
            self.seen.push(Seen::Stage(stage, read(payload)));
        }
        fn slot(&mut self, block: usize, slot: usize, part: BoxedItem) {
            let part = read(part);
            self.seen.push(Seen::Slot { block, slot, part });
        }
    }

    #[test]
    fn forward_walks_plain_and_slotted_targets_in_edge_order() {
        // 0 → {1, 2, 3}; {1, 2} → 4; {3, 4} → 5.
        let graph = StageGraph::dag(6)
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .edge(1, 4)
            .edge(2, 4)
            .edge(3, 5)
            .edge(4, 5)
            .build()
            .expect("valid wiring");
        let fanouts: Vec<FanOutFn> = (0..graph.blocks())
            .map(|b| fan_out_fn::<u64>(graph.fan_targets(b).len()))
            .collect();
        let walk = |next: Next| {
            let mut to = Recorder::default();
            forward(&graph, &fanouts, &next, Payload::new(9u64), &mut to);
            assert!(to.copies.is_empty(), "the scratch vector comes back empty");
            to.seen
        };
        assert_eq!(walk(graph.entry()), vec![Seen::Stage(0, 9)]);
        assert_eq!(
            walk(graph.after(0)),
            vec![Seen::Stage(1, 9), Seen::Stage(2, 9), Seen::Stage(3, 9)]
        );
        let join4 = graph.merge_block_of(4).unwrap();
        let join5 = graph.merge_block_of(5).unwrap();
        let slot = |block, slot| Seen::Slot {
            block,
            slot,
            part: 9,
        };
        assert_eq!(walk(graph.after(1)), vec![slot(join4, 0)]);
        assert_eq!(walk(graph.after(2)), vec![slot(join4, 1)]);
        assert_eq!(walk(graph.after(3)), vec![slot(join5, 0)]);
        assert_eq!(walk(graph.after(4)), vec![slot(join5, 1)]);
        assert_eq!(walk(graph.after(5)), vec![Seen::Exit(9)]);

        // A producer feeding a stage *and* a join slot directly:
        // 0 → {1, 2}; {0, 1} → 2 has the slotted target second.
        let shortcut = StageGraph::dag(3)
            .edge(0, 1)
            .edge(0, 2)
            .edge(1, 2)
            .build()
            .expect("valid wiring");
        let fanouts = vec![fan_out_fn::<u64>(2)];
        let join2 = shortcut.merge_block_of(2).unwrap();
        let mut to = Recorder::default();
        let after0 = shortcut.after(0);
        forward(&shortcut, &fanouts, &after0, Payload::new(4u64), &mut to);
        let into_join = Seen::Slot {
            block: join2,
            slot: 0,
            part: 4,
        };
        assert_eq!(to.seen, vec![Seen::Stage(1, 4), into_join]);
        // The scratch vector is the backend's to keep: the second item
        // fans out through the allocation the first one made.
        let kept = (to.copies.as_ptr(), to.copies.capacity());
        assert!(kept.1 >= 2);
        forward(&shortcut, &fanouts, &after0, Payload::new(5u64), &mut to);
        assert_eq!((to.copies.as_ptr(), to.copies.capacity()), kept);
        assert_eq!(to.seen.len(), 4);
    }
}
