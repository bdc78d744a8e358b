//! Pipeline stages: the user-supplied computation units.
//!
//! Two views exist of a stage:
//!
//! * the **typed** view, a closure declared on the typed builder
//!   ([`crate::pipeline::DagBuilder`]) — the compiler checks that each
//!   stage accepts what its producers make;
//! * the **erased** view ([`DynStage`]) used by execution engines — items
//!   travel as [`Payload`]s so the runtime can re-wire stages across
//!   hosts without generic plumbing.
//!
//! The builder erases a stage, and the fan-out duplicator and key
//! extractor around it, in the one call that declares it, with the
//! types the compiler just checked. So no erased part meets an item of
//! another type, and each downcast here states that invariant.
//!
//! Stage *functions* are `FnMut`: a stage may carry state (e.g. a running
//! histogram), in which case its [`StageSpec`](crate::spec::StageSpec)
//! must declare that state. An instance only processes items, makes a
//! fresh copy of itself and moves its state; whether it is copied at
//! all, and how many instances run, is its declaration's decision alone.

use crate::payload::Payload;
use adapipe_state::{StateCodec, StateSnapshot};
use std::collections::HashMap;
use std::sync::Arc;

/// A type-erased item flowing through the pipeline.
///
/// Historically this was `Box<dyn Any + Send>` — one heap allocation
/// per item per stage hop. It is now an alias for [`Payload`], which
/// stores values of up to five machine words (a `u64`, a `String`, a
/// `Vec` with two more words, …) **inline** with no allocation at all,
/// and spills larger values to a thread-local pooled block. The
/// downcast-checked surface is unchanged in spirit
/// ([`Payload::downcast`] / [`Payload::downcast_ref`]), but `downcast`
/// yields the value itself rather than a `Box` around it, and a stage
/// rewrites its item where it lies ([`Payload::map`]).
pub type BoxedItem = Payload;

/// What every downcast of an erased item states: the typed builder
/// ([`crate::pipeline::DagBuilder`]) erases each stage, duplicator and
/// key extractor as it is declared, so each only ever meets the item
/// type it was declared with.
const TYPED: &str = "the typed builder hands each stage only its declared item type";

/// Extracts the routing key hash from an erased item headed into a
/// keyed stage. Shared behind an `Arc` so pipelines stay cloneable.
pub type KeyFn = Arc<dyn Fn(&BoxedItem) -> u64 + Send + Sync>;

/// Builds the [`KeyFn`] for a keyed stage with input type `I`.
fn key_fn<I: Send + 'static>(key: impl Fn(&I) -> u64 + Send + Sync + 'static) -> KeyFn {
    Arc::new(move |item: &BoxedItem| key(item.downcast_ref::<I>().expect(TYPED)))
}

/// Copies one erased item once per target of a fan block — the fan-out
/// half of a stage graph — *into a vector the caller owns*: the copies
/// are appended in edge order, and the caller drains them into its hops
/// and keeps the vector for the next item, so a fan-out allocates
/// nothing per item. The typed builder makes one for each producer
/// whose [`Node`](crate::pipeline::Node) handle was cloned; shared
/// behind an `Arc` so pipelines stay cloneable.
pub type FanOutFn = Arc<dyn Fn(BoxedItem, &mut Vec<BoxedItem>) + Send + Sync>;

/// Builds the [`FanOutFn`] duplicating items of type `T` to `branches`
/// copies: `branches - 1` clones and then the original itself, in edge
/// order (every copy carries the same value), in one call.
pub(crate) fn fan_out_fn<T: Clone + Send + 'static>(branches: usize) -> FanOutFn {
    Arc::new(move |item: BoxedItem, copies: &mut Vec<BoxedItem>| {
        let value = item.downcast_ref::<T>().expect(TYPED);
        for _ in 1..branches {
            copies.push(Payload::new(value.clone()));
        }
        copies.push(item);
    })
}

/// A fallible stage rejected an item, as returned by
/// [`DynStage::process`]. The input never left its slot, so an engine
/// honouring a [`adapipe_runtime::session::ResiliencePolicy`] can wait
/// out the backoff and re-present exactly the same item.
#[derive(Debug)]
pub struct StageError {
    /// The closure's error.
    pub reason: String,
}

/// `item` as the `T` a stage declared as its input.
fn downcast_input<T: 'static>(item: BoxedItem) -> T {
    item.downcast::<T>().expect(TYPED)
}

/// Rewrites `item`, a stage's declared input `I`, in place as the `O`
/// that `f` makes of it.
#[inline]
fn rewrite<I: 'static, O: Send + 'static>(item: &mut BoxedItem, f: impl FnOnce(I) -> O) {
    let typed = item.map(f);
    assert!(typed, "{TYPED}");
}

/// The execution engines' view of a stage.
pub trait DynStage: Send {
    /// Processes one item in place: `item` holds the stage's declared
    /// input on entry (the typed builder erased the stage and every
    /// producer feeding it together) and its output on success. A
    /// fallible stage that rejects the item returns a [`StageError`]
    /// and leaves the input in `item`, untouched, so the engine can
    /// present the same slot again.
    fn process(&mut self, item: &mut BoxedItem) -> Result<(), StageError>;

    /// Stage name for logs and reports.
    fn name(&self) -> &str;

    /// A new instance of the same stage with its state reset to init:
    /// a replica or partial where the declaration lets the stage run
    /// wide, an empty shard shell for keyed state, and the target a
    /// migration restores a snapshot into. `None` when the closure
    /// cannot be copied (opaque state). The instance never decides
    /// whether it is copied; its declaration does.
    fn fresh(&self) -> Option<Box<dyn DynStage>>;

    /// Serializes this instance's state for a migration hand-off, or
    /// `None` for stages with no movable state (stateless or opaque).
    fn snapshot(&mut self) -> Option<StateSnapshot> {
        None
    }

    /// Replaces this instance's state from a snapshot. Returns `false`
    /// when the stage does not support restore or the bytes are
    /// malformed (the caller keeps the donor instance alive instead).
    fn restore(&mut self, _snap: StateSnapshot) -> bool {
        false
    }

    /// Merges a *partial* snapshot into this instance's state — the
    /// accumulator hand-off (a keyed stage absorbs disjoint key sets
    /// the same way). Returns `false` when unsupported or malformed.
    fn absorb(&mut self, _snap: StateSnapshot) -> bool {
        false
    }
}

/// A stage built from a closure `I -> O`. Whatever state the closure
/// captures is opaque to the runtime: it can neither snapshot nor
/// merge it, only copy the closure (when it is `Clone`) as a fresh
/// instance.
pub(crate) struct FnStage<I, O, F>
where
    F: FnMut(I) -> O + Send,
{
    name: String,
    f: F,
    copy: Option<fn(&F) -> F>,
    _types: std::marker::PhantomData<fn(I) -> O>,
}

impl<I, O, F> FnStage<I, O, F>
where
    I: Send + 'static,
    O: Send + 'static,
    F: FnMut(I) -> O + Send,
{
    /// Wraps `f` as a named stage; [`DynStage::fresh`] clones `f`.
    pub(crate) fn new(name: impl Into<String>, f: F) -> Self
    where
        F: Clone,
    {
        FnStage {
            name: name.into(),
            f,
            copy: Some(F::clone),
            _types: std::marker::PhantomData,
        }
    }

    /// Wraps a closure that cannot be copied as a named stage: the
    /// closure needs no `Clone` bound, and [`DynStage::fresh`] is
    /// `None`, so it needs a declaration that never copies an instance
    /// (the builders' `stateful_stage` declares it opaque).
    pub(crate) fn opaque(name: impl Into<String>, f: F) -> Self {
        FnStage {
            name: name.into(),
            f,
            copy: None,
            _types: std::marker::PhantomData,
        }
    }
}

impl<I, O, F> DynStage for FnStage<I, O, F>
where
    I: Send + 'static,
    O: Send + 'static,
    F: FnMut(I) -> O + Send + 'static,
{
    fn process(&mut self, item: &mut BoxedItem) -> Result<(), StageError> {
        rewrite(item, &mut self.f);
        Ok(())
    }

    fn fresh(&self) -> Option<Box<dyn DynStage>> {
        let copy = self.copy?;
        Some(Box::new(FnStage {
            name: self.name.clone(),
            f: copy(&self.f),
            copy: self.copy,
            _types: std::marker::PhantomData,
        }))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A stage built from a *fallible* closure `I -> Result<O, String>`.
///
/// The input type must be `Clone`: the stage hands the closure a clone
/// of each item, so a failure leaves the untouched original in its slot
/// and the engine's retry loop can re-present it after the stage's
/// declared backoff.
pub(crate) struct FallibleFnStage<I, O, F>
where
    F: FnMut(I) -> Result<O, String> + Send,
{
    name: String,
    f: F,
    _types: std::marker::PhantomData<fn(I) -> O>,
}

impl<I, O, F> FallibleFnStage<I, O, F>
where
    I: Clone + Send + 'static,
    O: Send + 'static,
    F: FnMut(I) -> Result<O, String> + Send,
{
    /// Wraps `f` as a named fallible stage.
    pub(crate) fn new(name: impl Into<String>, f: F) -> Self {
        FallibleFnStage {
            name: name.into(),
            f,
            _types: std::marker::PhantomData,
        }
    }
}

impl<I, O, F> DynStage for FallibleFnStage<I, O, F>
where
    I: Clone + Send + 'static,
    O: Send + 'static,
    F: FnMut(I) -> Result<O, String> + Send + Clone + 'static,
{
    fn process(&mut self, item: &mut BoxedItem) -> Result<(), StageError> {
        let input = item.downcast_ref::<I>().expect(TYPED).clone();
        let out = (self.f)(input).map_err(|reason| StageError { reason })?;
        rewrite(item, |_: I| out);
        Ok(())
    }

    fn fresh(&self) -> Option<Box<dyn DynStage>> {
        Some(Box::new(FallibleFnStage {
            name: self.name.clone(),
            f: self.f.clone(),
            _types: std::marker::PhantomData,
        }))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The fan-in half of a parallel block: a stage whose input is the
/// `Vec` of branch outputs (in branch order) and whose closure folds
/// them into one item. Engines deliver the joined vector as a
/// `BoxedItem` wrapping `Vec<BoxedItem>`; each element must downcast to
/// the common branch output type `B`.
pub(crate) struct MergeStage<B, O, F>
where
    F: FnMut(Vec<B>) -> O + Send,
{
    name: String,
    f: F,
    _types: std::marker::PhantomData<fn(Vec<B>) -> O>,
}

impl<B, O, F> MergeStage<B, O, F>
where
    B: Send + 'static,
    O: Send + 'static,
    F: FnMut(Vec<B>) -> O + Send,
{
    /// Wraps `f` as a named merge stage.
    pub(crate) fn new(name: impl Into<String>, f: F) -> Self {
        MergeStage {
            name: name.into(),
            f,
            _types: std::marker::PhantomData,
        }
    }
}

impl<B, O, F> DynStage for MergeStage<B, O, F>
where
    B: Send + 'static,
    O: Send + 'static,
    F: FnMut(Vec<B>) -> O + Send + Clone + 'static,
{
    fn process(&mut self, item: &mut BoxedItem) -> Result<(), StageError> {
        rewrite(item, |parts: Vec<BoxedItem>| {
            // Collected in place: a `B` no larger than a `Payload` reuses
            // the joined vector's block, so a join costs one allocation,
            // not two.
            let typed = parts.into_iter().map(downcast_input::<B>).collect();
            (self.f)(typed)
        });
        Ok(())
    }

    fn fresh(&self) -> Option<Box<dyn DynStage>> {
        Some(Box::new(MergeStage {
            name: self.name.clone(),
            f: self.f.clone(),
            _types: std::marker::PhantomData,
        }))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A stage with *keyed* state: per-key values of type `S`, partitioned
/// by key hash. Each live instance owns a disjoint slice of the key
/// space (the router guarantees a key always meets the same instance),
/// so fresh instances are empty shells and their contents migrate as
/// codec-encoded `HashMap<key-hash, S>` snapshots.
pub(crate) struct KeyedStage<I, O, S, K, F>
where
    K: Fn(&I) -> u64 + Send + Sync,
    F: FnMut(&mut S, I) -> O + Send,
{
    name: String,
    key: Arc<K>,
    init: Arc<dyn Fn() -> S + Send + Sync>,
    f: F,
    states: HashMap<u64, S>,
    version: u64,
    _types: std::marker::PhantomData<fn(I) -> O>,
}

impl<I, O, S, K, F> KeyedStage<I, O, S, K, F>
where
    I: Send + 'static,
    O: Send + 'static,
    S: StateCodec + Send + 'static,
    K: Fn(&I) -> u64 + Send + Sync + 'static,
    F: FnMut(&mut S, I) -> O + Send + Clone + 'static,
{
    /// Wraps `f` as a named keyed stage: `key` hashes an item to its
    /// state slice, `init` seeds the state of a first-seen key.
    pub(crate) fn new(
        name: impl Into<String>,
        key: K,
        init: impl Fn() -> S + Send + Sync + 'static,
        f: F,
    ) -> Self {
        KeyedStage {
            name: name.into(),
            key: Arc::new(key),
            init: Arc::new(init),
            f,
            states: HashMap::new(),
            version: 0,
            _types: std::marker::PhantomData,
        }
    }

    /// The erased key extractor the router uses to pick this stage's
    /// destination shard per item.
    pub(crate) fn routing_key(&self) -> KeyFn {
        let key = Arc::clone(&self.key);
        key_fn(move |input: &I| key(input))
    }
}

impl<I, O, S, K, F> DynStage for KeyedStage<I, O, S, K, F>
where
    I: Send + 'static,
    O: Send + 'static,
    S: StateCodec + Send + 'static,
    K: Fn(&I) -> u64 + Send + Sync + 'static,
    F: FnMut(&mut S, I) -> O + Send + Clone + 'static,
{
    fn process(&mut self, item: &mut BoxedItem) -> Result<(), StageError> {
        rewrite(item, |input: I| {
            let hash = (self.key)(&input);
            let state = self.states.entry(hash).or_insert_with(|| (self.init)());
            (self.f)(state, input)
        });
        Ok(())
    }

    fn fresh(&self) -> Option<Box<dyn DynStage>> {
        // Shells start empty: each one owns whichever keys the router
        // sends it.
        Some(Box::new(KeyedStage {
            name: self.name.clone(),
            key: Arc::clone(&self.key),
            init: Arc::clone(&self.init),
            f: self.f.clone(),
            states: HashMap::new(),
            version: 0,
            _types: std::marker::PhantomData,
        }))
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn snapshot(&mut self) -> Option<StateSnapshot> {
        self.version += 1;
        Some(StateSnapshot::new(self.version, self.states.to_bytes()))
    }

    fn restore(&mut self, snap: StateSnapshot) -> bool {
        match HashMap::<u64, S>::from_bytes(&snap.bytes) {
            Some(states) if snap.version >= self.version => {
                self.states = states;
                self.version = snap.version;
                true
            }
            _ => false,
        }
    }

    fn absorb(&mut self, snap: StateSnapshot) -> bool {
        match HashMap::<u64, S>::from_bytes(&snap.bytes) {
            Some(states) => {
                // Key sets from different shards are disjoint; a repeat
                // of a key we already host keeps the absorbed (newer,
                // migrated-in) value.
                self.states.extend(states);
                self.version = self.version.max(snap.version);
                true
            }
            None => false,
        }
    }
}

/// The merge operator of an accumulator: folds the right partial into
/// the left.
type MergeFn<S> = Arc<dyn Fn(&mut S, S) + Send + Sync>;

/// A stage with one value of declared state, seeded from `init`, that
/// snapshots and restores through its codec. Under an *accumulator*
/// declaration the value has a commutative merge: every replica keeps
/// a partial, and a replica vacating a host snapshots its partial for
/// a survivor to [`DynStage::absorb`]. Under an *exclusive* declaration
/// there is no merge: one instance runs, and a migration moves its
/// value whole.
pub(crate) struct AccumStage<I, O, S, F>
where
    F: FnMut(&mut S, I) -> O + Send,
{
    name: String,
    init: Arc<dyn Fn() -> S + Send + Sync>,
    f: F,
    merge: Option<MergeFn<S>>,
    state: S,
    version: u64,
    _types: std::marker::PhantomData<fn(I) -> O>,
}

impl<I, O, S, F> AccumStage<I, O, S, F>
where
    I: Send + 'static,
    O: Send + 'static,
    S: StateCodec + Send + 'static,
    F: FnMut(&mut S, I) -> O + Send + Clone + 'static,
{
    /// Wraps `f` as a named accumulator stage with merge operator
    /// `merge` (folds the right partial into the left).
    pub(crate) fn new(
        name: impl Into<String>,
        init: impl Fn() -> S + Send + Sync + 'static,
        f: F,
        merge: impl Fn(&mut S, S) + Send + Sync + 'static,
    ) -> Self {
        Self::with_merge(name, Arc::new(init), f, Some(Arc::new(merge)))
    }

    /// Wraps `f` as a named exclusive-state stage seeded from `init`:
    /// it has no merge, so [`DynStage::absorb`] refuses every partial.
    pub(crate) fn exclusive(
        name: impl Into<String>,
        init: impl Fn() -> S + Send + Sync + 'static,
        f: F,
    ) -> Self {
        Self::with_merge(name, Arc::new(init), f, None)
    }

    fn with_merge(
        name: impl Into<String>,
        init: Arc<dyn Fn() -> S + Send + Sync>,
        f: F,
        merge: Option<MergeFn<S>>,
    ) -> Self {
        let state = init();
        AccumStage {
            name: name.into(),
            init,
            f,
            merge,
            state,
            version: 0,
            _types: std::marker::PhantomData,
        }
    }
}

impl<I, O, S, F> DynStage for AccumStage<I, O, S, F>
where
    I: Send + 'static,
    O: Send + 'static,
    S: StateCodec + Send + 'static,
    F: FnMut(&mut S, I) -> O + Send + Clone + 'static,
{
    fn process(&mut self, item: &mut BoxedItem) -> Result<(), StageError> {
        rewrite(item, |input: I| (self.f)(&mut self.state, input));
        Ok(())
    }

    fn fresh(&self) -> Option<Box<dyn DynStage>> {
        Some(Box::new(Self::with_merge(
            self.name.clone(),
            Arc::clone(&self.init),
            self.f.clone(),
            self.merge.clone(),
        )))
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn snapshot(&mut self) -> Option<StateSnapshot> {
        self.version += 1;
        Some(StateSnapshot::new(self.version, self.state.to_bytes()))
    }

    fn restore(&mut self, snap: StateSnapshot) -> bool {
        match S::from_bytes(&snap.bytes) {
            Some(state) if snap.version >= self.version => {
                self.state = state;
                self.version = snap.version;
                true
            }
            _ => false,
        }
    }

    fn absorb(&mut self, snap: StateSnapshot) -> bool {
        let Some(merge) = &self.merge else {
            return false;
        };
        match S::from_bytes(&snap.bytes) {
            Some(partial) => {
                merge(&mut self.state, partial);
                self.version = self.version.max(snap.version);
                true
            }
            None => false,
        }
    }
}

/// Moves a quiescent instance's state through the byte boundary: a
/// snapshot restored into a fresh shell of the same stage type. This is
/// what a migration deposits on the receiving side, proving the state
/// really serializes (an instance whose state cannot make the round
/// trip — opaque closures, malformed bytes — moves as the live box
/// instead, which is only sound within one process).
pub fn quiesce(mut inst: Box<dyn DynStage>) -> (Box<dyn DynStage>, usize) {
    let Some(snap) = inst.snapshot() else {
        return (inst, 0);
    };
    let moved = snap.len();
    if let Some(mut shell) = inst.fresh() {
        if shell.restore(snap) {
            return (shell, moved);
        }
    }
    (inst, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_stage_processes_typed_items() {
        let mut s = FnStage::new("double", |x: i64| x * 2);
        let mut out = Payload::new(21i64);
        s.process(&mut out).expect("typed item");
        assert_eq!(out.downcast::<i64>().unwrap(), 42);
        assert_eq!(s.name(), "double");
    }

    #[test]
    fn fn_stage_may_change_type() {
        let mut s = FnStage::new("fmt", |x: u32| format!("{x}!"));
        let mut out = Payload::new(7u32);
        s.process(&mut out).expect("typed item");
        assert_eq!(out.downcast::<String>().unwrap(), "7!");
    }

    #[test]
    fn replicas_are_independent() {
        let counter_stage = FnStage::new("count", {
            let mut seen = 0u64;
            move |x: u64| {
                seen += 1;
                x + seen
            }
        });
        let mut a: Box<dyn DynStage> = Box::new(counter_stage);
        let mut b = a.fresh().expect("cloneable");
        let run = |s: &mut Box<dyn DynStage>| {
            let mut item = Payload::new(0u64);
            s.process(&mut item).expect("typed item");
            item.downcast::<u64>().unwrap()
        };
        // Each replica keeps its own `seen` counter.
        assert_eq!(run(&mut a), 1);
        assert_eq!(run(&mut a), 2);
        assert_eq!(run(&mut b), 1);
    }

    #[test]
    fn fan_out_clones_and_merge_folds() {
        let split = fan_out_fn::<u64>(3);
        let mut parts = Vec::new();
        split(Payload::new(7u64), &mut parts);
        assert_eq!(parts.len(), 3);
        let mut m = MergeStage::new("sum", |xs: Vec<u64>| xs.iter().sum::<u64>());
        let mut joined: BoxedItem = Payload::new(parts);
        m.process(&mut joined).expect("typed parts merge");
        assert_eq!(joined.downcast::<u64>().unwrap(), 21);
        assert!(m.fresh().is_some(), "merges copy");
    }

    #[test]
    fn fan_out_and_merge_report_type_mismatches() {
        // A fan-out appends after what the caller's vector holds, and a
        // merge reads its joined parts in slot order.
        let split = fan_out_fn::<u64>(2);
        let mut parts = vec![Payload::new(0u64)];
        split(Payload::new(5u64), &mut parts);
        assert_eq!(parts.len(), 3);
        let mut m = MergeStage::new("j", |xs: Vec<u64>| xs[0] * 100 + xs[1] * 10 + xs[2]);
        let mut out = Payload::new(parts);
        m.process(&mut out).expect("typed parts merge");
        assert_eq!(out.downcast::<u64>().unwrap(), 55);
    }

    #[test]
    fn keyed_stage_state_survives_the_byte_round_trip() {
        let mut a = KeyedStage::new(
            "count",
            |k: &u64| *k,
            || 0u64,
            |n: &mut u64, _k: u64| {
                *n += 1;
                *n
            },
        );
        let run = |s: &mut dyn DynStage, k: u64| {
            let mut item = Payload::new(k);
            s.process(&mut item).expect("typed");
            item.downcast::<u64>().unwrap()
        };
        assert_eq!(run(&mut a, 7), 1);
        assert_eq!(run(&mut a, 7), 2);
        assert_eq!(run(&mut a, 9), 1);
        // Quiesce: snapshot → fresh shell → restore, through real bytes.
        let (mut b, moved) = quiesce(Box::new(a));
        assert!(moved > 0, "keyed state must actually ship bytes");
        assert_eq!(run(b.as_mut(), 7), 3, "key 7 kept its count");
        assert_eq!(run(b.as_mut(), 9), 2);
        // Fresh instances are empty shells: keys start over.
        let mut c = b.fresh().expect("keyed stages copy");
        assert_eq!(run(c.as_mut(), 7), 1);
    }

    #[test]
    fn keyed_stage_absorbs_disjoint_key_sets() {
        let make = || {
            KeyedStage::new(
                "m",
                |k: &u64| *k,
                || 0u64,
                |n: &mut u64, _k: u64| {
                    *n += 10;
                    *n
                },
            )
        };
        let mut left = make();
        let mut right = make();
        left.process(&mut Payload::new(1u64)).unwrap();
        right.process(&mut Payload::new(2u64)).unwrap();
        right.process(&mut Payload::new(2u64)).unwrap();
        let snap = right.snapshot().expect("keyed snapshots");
        assert!(left.absorb(snap));
        let mut out = Payload::new(2u64);
        left.process(&mut out).unwrap();
        assert_eq!(out.downcast::<u64>().unwrap(), 30, "absorbed key 2 at 20");
    }

    #[test]
    fn accumulator_partials_merge() {
        let make = || {
            AccumStage::new(
                "sum",
                || 0u64,
                |acc: &mut u64, x: u64| {
                    *acc += x;
                    *acc
                },
                |acc: &mut u64, other: u64| *acc += other,
            )
        };
        let mut a = make();
        a.process(&mut Payload::new(5u64)).unwrap();
        // A fresh instance is an independent partial seeded from init.
        let mut b = a.fresh().expect("accumulators copy");
        b.process(&mut Payload::new(7u64)).unwrap();
        let snap = b.snapshot().expect("accumulators snapshot");
        assert!(a.absorb(snap), "partials merge");
        let mut out = Payload::new(0u64);
        a.process(&mut out).unwrap();
        assert_eq!(out.downcast::<u64>().unwrap(), 12);
    }

    #[test]
    fn exclusive_stage_migrates_but_never_replicates() {
        let mut s = AccumStage::exclusive(
            "ledger",
            || 0i64,
            |acc: &mut i64, x: i64| {
                *acc += x;
                *acc
            },
        );
        s.process(&mut Payload::new(40i64)).unwrap();
        // One instance runs because the declaration says so; the
        // instance itself only refuses to merge a partial.
        assert!(!adapipe_state::StateAccess::Exclusive.replicable());
        let partial = s.fresh().expect("a fresh shell").snapshot().unwrap();
        assert!(!s.absorb(partial), "exclusive state has no merge");
        let (mut moved, bytes) = quiesce(Box::new(s));
        assert_eq!(bytes, 8, "one i64 of state shipped");
        let mut out = Payload::new(2i64);
        moved.process(&mut out).unwrap();
        assert_eq!(out.downcast::<i64>().unwrap(), 42);
    }

    #[test]
    fn quiesce_falls_back_to_the_live_box_for_opaque_state() {
        let mut total = 0u64;
        let s = FnStage::opaque("opaque", move |x: u64| {
            total += x;
            total
        });
        assert!(s.fresh().is_none(), "an opaque closure cannot be copied");
        let (mut back, bytes) = quiesce(Box::new(s));
        assert_eq!(bytes, 0, "opaque state cannot ship");
        let mut out = Payload::new(3u64);
        back.process(&mut out).unwrap();
        assert_eq!(out.downcast::<u64>().unwrap(), 3);
    }

    #[test]
    fn stale_snapshots_are_rejected() {
        let mut s = AccumStage::exclusive(
            "v",
            || 0u64,
            |acc: &mut u64, x: u64| {
                *acc += x;
                *acc
            },
        );
        s.process(&mut Payload::new(1u64)).unwrap();
        let old = s.snapshot().unwrap();
        s.process(&mut Payload::new(1u64)).unwrap();
        let newer = s.snapshot().unwrap();
        assert!(newer.version > old.version);
        // A restore must never roll state back to an older snapshot.
        assert!(!s.restore(old));
        assert!(s.restore(newer));
    }

    #[test]
    fn key_fn_extracts_and_rejects() {
        let kf = key_fn(|s: &String| s.len() as u64);
        let item: BoxedItem = Payload::new(String::from("abcd"));
        assert_eq!(kf(&item), 4);
    }

    #[test]
    fn fallible_stage_returns_the_item_for_retry() {
        let mut s = FallibleFnStage::new("flaky", |x: u64| {
            if x.is_multiple_of(2) {
                Ok(x * 10)
            } else {
                Err(format!("odd input {x}"))
            }
        });
        let mut out = Payload::new(4u64);
        s.process(&mut out).expect("even succeeds");
        assert_eq!(out.downcast::<u64>().unwrap(), 40);
        // A rejected item never leaves its slot: the same slot is
        // presented again, and meets the same input.
        let mut item = Payload::new(3u64);
        for _ in 0..2 {
            let StageError { reason } = s.process(&mut item).unwrap_err();
            assert_eq!(reason, "odd input 3");
            assert_eq!(item.downcast_ref::<u64>(), Some(&3));
        }
        assert_eq!(item.downcast::<u64>().unwrap(), 3);
        assert!(s.fresh().is_some(), "fallible stages copy");
    }

    #[test]
    fn fan_out_fn_duplicates_and_rejects() {
        let split = fan_out_fn::<String>(3);
        let mut copies = vec![Payload::new(String::from("kept"))];
        split(Payload::new(String::from("dup")), &mut copies);
        let copies: Vec<String> = copies
            .into_iter()
            .map(|c| c.downcast::<String>().unwrap())
            .collect();
        assert_eq!(copies, ["kept", "dup", "dup", "dup"]);
    }
}
