//! The erased item representation for the data plane.
//!
//! Historically items travelled as `Box<dyn Any + Send>`: one heap
//! allocation per item per hop, even for a `u64`. [`Payload`] keeps the
//! same downcast-checked surface but stores values of up to five words
//! (40 bytes on 64-bit: a `String` or `Vec` plus two words, such as an
//! image with its width and height, or a four-field record) **inline**
//! — no allocation at all, and no cold block to chase at the next hop.
//! Larger values spill to a block drawn from a thread-local size-class
//! pool, so even the spill path stops touching the global allocator in
//! steady state. A `Payload` is six words: the slot and a vtable
//! pointer.
//!
//! A stage call does not move its item: [`Payload::map`] reads the
//! input out of the slot and writes the output back into the same
//! words, so the stage hands its result back in place, never through a
//! returned six-word value the caller must reload.
//!
//! Safety model: a `Payload` is a type-erased owned value. The static
//! vtable generated per concrete type records how to identify, drop,
//! and (for spilled values) free it; every constructor requires
//! `T: Send + 'static`, which is what makes the manual `Send` impl
//! sound. While `map`'s closure runs, the slot holds `()`, whose drop
//! does nothing, so a panicking closure drops its input once and
//! leaves a payload that is still safe to drop. Spill blocks are sized
//! by *class* (a pure function of the
//! value's layout), so a block may be freed on a different thread than
//! the one that allocated it — each thread's pool recycles whatever
//! lands on it.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::any::TypeId;
use std::cell::RefCell;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};
use std::ptr;

/// Number of machine words stored inline.
const INLINE_WORDS: usize = 5;
const INLINE_BYTES: usize = INLINE_WORDS * size_of::<usize>();

/// True when `T` fits the inline slot (size ≤ 5 words, word-aligned).
const fn fits_inline<T>() -> bool {
    size_of::<T>() <= INLINE_BYTES && align_of::<T>() <= align_of::<usize>()
}

union Repr {
    inline: [MaybeUninit<usize>; INLINE_WORDS],
    spill: *mut u8,
}

impl Repr {
    /// Writes `value` into the slot, which holds no live value: inline
    /// when it fits, otherwise into a pooled spill block.
    #[inline]
    fn put<T>(&mut self, value: T) {
        if fits_inline::<T>() {
            // SAFETY: `T` fits the five words and their alignment.
            unsafe { ptr::write(self.inline.as_mut_ptr() as *mut T, value) };
        } else {
            let block = spill_alloc(size_of::<T>(), align_of::<T>());
            // SAFETY: the block was allocated for `T`'s layout.
            unsafe { ptr::write(block as *mut T, value) };
            self.spill = block;
        }
    }

    /// Moves the held `T` out, returning a spill block to the pool.
    ///
    /// # Safety
    /// The slot holds a `T`, and the caller treats it as gone: nothing
    /// reads or drops it again.
    #[inline]
    unsafe fn take<T>(&self) -> T {
        // SAFETY: the caller's guarantee; a spilled `T`'s block was
        // allocated for `T`'s layout, so it is freed with that layout.
        unsafe {
            if fits_inline::<T>() {
                ptr::read(self.inline.as_ptr() as *const T)
            } else {
                let block = self.spill;
                let value = ptr::read(block as *const T);
                spill_dealloc(block, size_of::<T>(), align_of::<T>());
                value
            }
        }
    }
}

/// Per-type operations. One static instance exists per concrete `T`
/// (via const promotion in [`Payload::new`]); `Payload` carries a
/// `&'static` to it, so erased items cost no per-item metadata beyond
/// one pointer.
struct PayloadVtable {
    /// `TypeId::of::<T>()`: a downcast's type check is one compare, no
    /// call.
    tid: TypeId,
    /// Monomorphised `type_name::<T>` for diagnostics.
    type_name: fn() -> &'static str,
    /// Drops the value in place; for spilled values also returns the
    /// block to the pool.
    drop_fn: unsafe fn(&mut Repr),
    /// True when the value lives in the inline slot.
    inline: bool,
}

struct VtOf<T>(std::marker::PhantomData<T>);

impl<T: Send + 'static> VtOf<T> {
    const VT: PayloadVtable = PayloadVtable {
        tid: TypeId::of::<T>(),
        type_name: std::any::type_name::<T>,
        drop_fn: drop_value::<T>,
        inline: fits_inline::<T>(),
    };
}

/// Drops the `T` held in `repr`; monomorphisation resolves the branch
/// at compile time.
unsafe fn drop_value<T>(repr: &mut Repr) {
    unsafe {
        if fits_inline::<T>() {
            ptr::drop_in_place(repr.inline.as_mut_ptr() as *mut T);
        } else {
            let block = repr.spill;
            ptr::drop_in_place(block as *mut T);
            spill_dealloc(block, size_of::<T>(), align_of::<T>());
        }
    }
}

/// A type-erased owned value: the unit the data plane moves between
/// stages. Values of at most five words are stored inline (zero
/// allocations); larger values live in a pooled spill block. Construct
/// with [`Payload::new`], rewrite in place with [`Payload::map`],
/// consume with [`Payload::downcast`].
pub struct Payload {
    repr: Repr,
    vt: &'static PayloadVtable,
}

// Sound because `Payload::new` requires `T: Send + 'static`: every
// value a Payload can hold is itself Send, and the vtable is a shared
// static.
unsafe impl Send for Payload {}

impl Payload {
    /// Erases `value`. Inline when `T` is at most five words;
    /// otherwise spilled to a pooled block.
    #[inline]
    pub fn new<T: Send + 'static>(value: T) -> Payload {
        let mut repr = Repr {
            inline: [MaybeUninit::uninit(); INLINE_WORDS],
        };
        repr.put(value);
        Payload {
            repr,
            vt: &VtOf::<T>::VT,
        }
    }

    /// True when the held value is a `T`.
    #[inline]
    pub fn is<T: 'static>(&self) -> bool {
        self.vt.tid == TypeId::of::<T>()
    }

    /// The held value's type name (diagnostics only — not stable).
    fn type_name(&self) -> &'static str {
        (self.vt.type_name)()
    }

    /// Takes the value out as a `T`, or hands the payload back intact
    /// if the held type differs. Unlike `Box<dyn Any>::downcast` this
    /// yields the value directly, not a box around it.
    #[inline]
    pub fn downcast<T: 'static>(self) -> Result<T, Payload> {
        if !self.is::<T>() {
            return Err(self);
        }
        let this = ManuallyDrop::new(self);
        // SAFETY: the type check above says `repr` holds a `T`, and
        // `this` never drops it again.
        Ok(unsafe { this.repr.take::<T>() })
    }

    /// Rewrites the held `T` as the `O` that `f` makes of it, in this
    /// same slot, and returns `true`; returns `false` without calling
    /// `f`, the payload intact, if the held type differs. This is how a
    /// stage call hands its output back: the slot stays where it lies,
    /// so no payload is moved through a return value.
    ///
    /// While `f` runs, the slot holds `()`: `f` owns the `T`, so a
    /// panic in `f` drops it there, once, and leaves this payload
    /// holding a unit whose drop does nothing. A spilled `T`'s block
    /// goes back to the pool before `f` runs; a spilled `O` draws one.
    #[inline]
    #[must_use]
    pub fn map<T: 'static, O: Send + 'static>(&mut self, f: impl FnOnce(T) -> O) -> bool {
        if !self.is::<T>() {
            return false;
        }
        self.vt = &VtOf::<()>::VT;
        // SAFETY: the type check above says `repr` holds a `T`, and the
        // unit vtable just parked in the slot never reads it again.
        let value = unsafe { self.repr.take::<T>() };
        self.repr.put(f(value));
        self.vt = &VtOf::<O>::VT;
        true
    }

    /// Borrows the value as a `T`, if that is what it holds.
    #[inline]
    pub fn downcast_ref<T: 'static>(&self) -> Option<&T> {
        if !self.is::<T>() {
            return None;
        }
        unsafe {
            Some(if self.vt.inline {
                &*(self.repr.inline.as_ptr() as *const T)
            } else {
                &*(self.repr.spill as *const T)
            })
        }
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        unsafe { (self.vt.drop_fn)(&mut self.repr) }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Payload")
            .field("type", &self.type_name())
            .field("inline", &self.vt.inline)
            .finish()
    }
}

// --- spill pool ---------------------------------------------------------
//
// Blocks are drawn from power-of-two size classes (64..=1024 bytes,
// 16-byte aligned) kept on capped thread-local free lists. Anything
// word-aligned that would fit a smaller class rides inline; only an
// over-aligned small value (a `u128`, say) spills into the 64-byte
// class. The class —
// and therefore the alloc/dealloc layout — is a pure function of the
// value's layout, so a block may be freed on any thread: it simply
// joins that thread's list. Oversized or over-aligned values bypass the
// pool entirely.

const CLASS_MIN: usize = 64;
const CLASS_MAX: usize = 1024;
const CLASS_ALIGN: usize = 16;
const NUM_CLASSES: usize = 5; // 64, 128, 256, 512, 1024
/// Retained blocks per class per thread (worst case 1024 B × 64 × 5
/// classes ≈ 390 KiB per thread, only if every class saturates).
const PER_CLASS_CAP: usize = 64;

/// The size class of a layout, or `None` when it must bypass the pool.
#[inline]
fn class_of(size: usize, align: usize) -> Option<usize> {
    if size > CLASS_MAX || align > CLASS_ALIGN {
        return None;
    }
    let rounded = size.max(CLASS_MIN).next_power_of_two();
    Some((rounded.trailing_zeros() - CLASS_MIN.trailing_zeros()) as usize)
}

#[inline]
fn class_layout(class: usize) -> Layout {
    // Class sizes/alignments are compile-time valid.
    unsafe { Layout::from_size_align_unchecked(CLASS_MIN << class, CLASS_ALIGN) }
}

struct SpillPool {
    classes: [Vec<*mut u8>; NUM_CLASSES],
}

impl Drop for SpillPool {
    fn drop(&mut self) {
        for (class, list) in self.classes.iter_mut().enumerate() {
            for block in list.drain(..) {
                unsafe { dealloc(block, class_layout(class)) };
            }
        }
    }
}

thread_local! {
    static SPILL_POOL: RefCell<SpillPool> = const {
        RefCell::new(SpillPool {
            classes: [const { Vec::new() }; NUM_CLASSES],
        })
    };
}

fn spill_alloc(size: usize, align: usize) -> *mut u8 {
    let (layout, pooled) = match class_of(size, align) {
        Some(class) => (class_layout(class), Some(class)),
        None => (
            Layout::from_size_align(size.max(1), align).expect("valid value layout"),
            None,
        ),
    };
    if let Some(class) = pooled {
        // `try_with` so a payload created during thread teardown (after
        // the pool's own destructor) still works — it just skips reuse.
        let reused = SPILL_POOL
            .try_with(|pool| pool.borrow_mut().classes[class].pop())
            .ok()
            .flatten();
        if let Some(block) = reused {
            return block;
        }
    }
    let block = unsafe { alloc(layout) };
    if block.is_null() {
        handle_alloc_error(layout);
    }
    block
}

unsafe fn spill_dealloc(block: *mut u8, size: usize, align: usize) {
    match class_of(size, align) {
        Some(class) => {
            let kept = SPILL_POOL
                .try_with(|pool| {
                    let list = &mut pool.borrow_mut().classes[class];
                    if list.len() < PER_CLASS_CAP {
                        list.push(block);
                        true
                    } else {
                        false
                    }
                })
                .unwrap_or(false);
            if !kept {
                unsafe { dealloc(block, class_layout(class)) };
            }
        }
        None => unsafe {
            dealloc(
                block,
                Layout::from_size_align(size.max(1), align).expect("valid value layout"),
            )
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_gridsim::rng::splitmix64;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Arc;

    #[test]
    fn small_values_round_trip_inline() {
        let p = Payload::new(42u64);
        assert!(p.vt.inline);
        assert!(p.is::<u64>());
        assert_eq!(p.downcast::<u64>().unwrap(), 42);

        let s = Payload::new(String::from("three words"));
        assert!(s.vt.inline, "String is exactly 3 words");
        assert_eq!(s.downcast::<String>().unwrap(), "three words");

        let v = Payload::new(vec![1u8, 2, 3]);
        assert!(v.vt.inline, "Vec is exactly 3 words");
        assert_eq!(v.downcast::<Vec<u8>>().unwrap(), vec![1, 2, 3]);

        let record = (String::from("a frame"), 192usize, 192usize);
        let r = Payload::new(record.clone());
        assert!(r.vt.inline, "a Vec or String plus two words is 5 words");
        assert_eq!(r.downcast::<(String, usize, usize)>().unwrap(), record);
    }

    /// The envelope is the five inline words and the vtable pointer: a
    /// field added to `Payload` regrows every slot the engine moves.
    #[test]
    fn a_payload_is_six_words() {
        assert_eq!(size_of::<Payload>(), 6 * size_of::<usize>());
        assert_eq!(INLINE_BYTES, 5 * size_of::<usize>());
    }

    #[test]
    fn large_values_spill_and_round_trip() {
        let big = [7u64; 16]; // 128 bytes — over the inline budget
        let p = Payload::new(big);
        assert!(!p.vt.inline);
        assert_eq!(p.downcast::<[u64; 16]>().unwrap(), big);
    }

    #[test]
    fn over_aligned_values_bypass_the_pool_but_round_trip() {
        #[repr(align(64))]
        #[derive(Clone, Copy, PartialEq, Debug)]
        struct Cacheline([u8; 64]);
        let v = Cacheline([9; 64]);
        let p = Payload::new(v);
        assert!(!p.vt.inline);
        assert_eq!(p.downcast::<Cacheline>().unwrap(), v);
    }

    #[test]
    fn wrong_type_downcast_returns_the_payload_intact() {
        let p = Payload::new(5i32);
        let p = p.downcast::<String>().unwrap_err();
        assert!(p.is::<i32>());
        assert_eq!(p.downcast::<i32>().unwrap(), 5);
    }

    #[test]
    fn refs_borrow_without_consuming() {
        let mut p = Payload::new(vec![1u64, 2]);
        assert_eq!(p.downcast_ref::<Vec<u64>>().unwrap().len(), 2);
        assert!(p.downcast_ref::<u64>().is_none());
        assert!(p.map(|mut v: Vec<u64>| {
            v.push(3);
            v
        }));
        assert_eq!(p.downcast::<Vec<u64>>().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn drop_runs_for_inline_and_spilled_values() {
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        drop(Payload::new(Probe(Arc::clone(&drops)))); // inline (2 words)
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(Payload::new((Probe(Arc::clone(&drops)), [0u64; 8]))); // spilled
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn spill_blocks_recycle_within_a_thread() {
        // Exercise alloc→free→alloc through the pool; mostly checks for
        // layout mismatches under miri-like scrutiny and double frees.
        for _ in 0..3 {
            let blocks: Vec<Payload> = (0..8).map(|i| Payload::new([i as u64; 8])).collect();
            for (i, b) in blocks.into_iter().enumerate() {
                assert_eq!(b.downcast::<[u64; 8]>().unwrap()[0], i as u64);
            }
        }
    }

    #[test]
    fn payloads_cross_threads() {
        let p = Payload::new([3u64; 8]); // spilled on this thread
        let q = Payload::new(String::from("inline"));
        std::thread::spawn(move || {
            assert_eq!(p.downcast::<[u64; 8]>().unwrap()[0], 3);
            assert_eq!(q.downcast::<String>().unwrap(), "inline");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn debug_names_the_held_type() {
        let p = Payload::new(1u8);
        let s = format!("{p:?}");
        assert!(s.contains("u8"), "{s}");
    }

    /// Drops counted per side (0: the `Payload` under test, 1: the
    /// `Box<dyn Any>` model) and per [`Body::KIND`].
    static DROPS: [[AtomicUsize; 8]; 2] = [const { [const { AtomicUsize::new(0) }; 8] }; 2];

    /// A value of each size class the model test covers.
    trait Body: Send + PartialEq + std::fmt::Debug + 'static {
        const KIND: usize;
        /// Whether `Payload` should hold it inline.
        const INLINE: bool;
        fn of(tag: u64) -> Self;
    }

    impl Body for () {
        const KIND: usize = 0;
        const INLINE: bool = true;
        fn of(_: u64) -> Self {}
    }

    impl Body for u64 {
        const KIND: usize = 1;
        const INLINE: bool = true;
        fn of(tag: u64) -> Self {
            tag
        }
    }

    impl Body for [u64; 3] {
        const KIND: usize = 2;
        const INLINE: bool = true;
        fn of(tag: u64) -> Self {
            [tag, !tag, tag ^ 3]
        }
    }

    /// One byte over the inline slot: the smallest spill, class 64.
    impl Body for [u8; 41] {
        const KIND: usize = 3;
        const INLINE: bool = false;
        fn of(tag: u64) -> Self {
            std::array::from_fn(|i| (tag >> (i % 8 * 8)) as u8 ^ i as u8)
        }
    }

    /// The size of an `Image` (a `Vec` and two `usize`s): the whole
    /// inline slot, so a frame crosses every hop without a block.
    impl Body for [u64; 5] {
        const KIND: usize = 4;
        const INLINE: bool = true;
        fn of(tag: u64) -> Self {
            std::array::from_fn(|i| tag.rotate_left(i as u32))
        }
    }

    /// One word over the inline slot: the smallest word-sized record
    /// that spills, class 64.
    impl Body for [u64; 6] {
        const KIND: usize = 5;
        const INLINE: bool = false;
        fn of(tag: u64) -> Self {
            std::array::from_fn(|i| tag ^ (i as u64).wrapping_mul(0x9e37_79b9))
        }
    }

    /// Over `CLASS_MAX`: bypasses the pool.
    impl Body for [u64; 512] {
        const KIND: usize = 6;
        const INLINE: bool = false;
        fn of(tag: u64) -> Self {
            std::array::from_fn(|i| tag.wrapping_mul(i as u64 + 1))
        }
    }

    /// Over `CLASS_ALIGN`: bypasses the pool.
    #[repr(align(64))]
    #[derive(PartialEq, Debug)]
    struct Aligned(u64);

    impl Body for Aligned {
        const KIND: usize = 7;
        const INLINE: bool = false;
        fn of(tag: u64) -> Self {
            Aligned(tag)
        }
    }

    /// A body on side `S` whose drop counts in `DROPS[S][B::KIND]`.
    #[derive(PartialEq, Debug)]
    struct Val<const S: usize, B: Body>(B);

    impl<const S: usize, B: Body> Drop for Val<S, B> {
        fn drop(&mut self) {
            DROPS[S][B::KIND].fetch_add(1, Ordering::SeqCst);
        }
    }

    /// One live value, held by both sides.
    struct Slot {
        kind: usize,
        tag: u64,
        subject: Payload,
        model: Box<dyn std::any::Any + Send>,
    }

    /// Values dropped so far, by [`Body::KIND`]: what the model says
    /// each side's `DROPS` row must read.
    type Dropped = [usize; 8];

    /// One step of the model test: make a new `B` tagged from `r`, or
    /// act on the live `B` at `slots[at]` as `r` picks.
    fn op<B: Body>(r: u64, at: Option<usize>, slots: &mut Vec<Slot>, dropped: &mut Dropped) {
        let tag = r >> 16;
        let Some(at) = at else {
            let subject = Payload::new(Val::<0, B>(B::of(tag)));
            assert_eq!(subject.vt.inline, B::INLINE, "{}", subject.type_name());
            slots.push(Slot {
                kind: B::KIND,
                tag,
                subject,
                model: Box::new(Val::<1, B>(B::of(tag))),
            });
            return;
        };
        let expected = B::of(slots[at].tag);
        match r % 6 {
            0 => {
                let Slot { subject, model, .. } = slots.swap_remove(at);
                let got = subject.downcast::<Val<0, B>>().unwrap();
                let want = model.downcast::<Val<1, B>>().unwrap();
                assert_eq!((&got.0, &want.0), (&expected, &expected));
                dropped[B::KIND] += 1;
            }
            1 => {
                // Wrong types: the other side's `Val`, the bare body and
                // an unrelated type. Each hands the value back intact.
                let slot = &mut slots[at];
                let subject = std::mem::replace(&mut slot.subject, Payload::new(()));
                let subject = subject.downcast::<Val<1, B>>().unwrap_err();
                let subject = subject.downcast::<B>().unwrap_err();
                let subject = subject.downcast::<String>().unwrap_err();
                assert!(slot.model.downcast_ref::<Val<0, B>>().is_none());
                assert_eq!(subject.downcast_ref::<Val<0, B>>().unwrap().0, expected);
                slot.subject = subject;
            }
            2 => {
                let slot = &slots[at];
                assert!(slot.subject.downcast_ref::<Val<1, B>>().is_none());
                let got = slot.subject.downcast_ref::<Val<0, B>>().unwrap();
                let want = slot.model.downcast_ref::<Val<1, B>>().unwrap();
                assert_eq!((&got.0, &want.0), (&expected, &expected));
            }
            3 => {
                // Retagged through `map` with no drop: the value passes
                // through `f` and lands back in the same slot.
                let slot = &mut slots[at];
                assert!(!slot.subject.map(|_: B| -> u64 { unreachable!() }));
                slot.tag = tag;
                assert!(slot.subject.map(|mut v: Val<0, B>| {
                    v.0 = B::of(tag);
                    v
                }));
                slot.model.downcast_mut::<Val<1, B>>().unwrap().0 = B::of(tag);
            }
            4 => {
                // Rewritten in place under a new tag: the wrong type is
                // refused untouched, the right one drops the old value
                // once, as the model's replaced box does.
                let slot = &mut slots[at];
                assert!(!slot.subject.map(|_: Val<1, B>| -> u64 { unreachable!() }));
                assert!(slot.subject.map(|old: Val<0, B>| {
                    assert_eq!(old.0, expected);
                    Val::<0, B>(B::of(tag))
                }));
                assert_eq!(slot.subject.vt.inline, B::INLINE);
                slot.model = Box::new(Val::<1, B>(B::of(tag)));
                slot.tag = tag;
                dropped[B::KIND] += 1;
            }
            _ => {
                drop(slots.swap_remove(at));
                dropped[B::KIND] += 1;
            }
        }
    }

    /// Runs [`op`] on the type of `kind`.
    fn op_on(kind: usize, r: u64, at: Option<usize>, slots: &mut Vec<Slot>, d: &mut Dropped) {
        match kind {
            0 => op::<()>(r, at, slots, d),
            1 => op::<u64>(r, at, slots, d),
            2 => op::<[u64; 3]>(r, at, slots, d),
            3 => op::<[u8; 41]>(r, at, slots, d),
            4 => op::<[u64; 5]>(r, at, slots, d),
            5 => op::<[u64; 6]>(r, at, slots, d),
            6 => op::<[u64; 512]>(r, at, slots, d),
            _ => op::<Aligned>(r, at, slots, d),
        }
    }

    /// Both sides' drop counts, by kind.
    fn drops() -> [Dropped; 2] {
        DROPS
            .each_ref()
            .map(|side| side.each_ref().map(|n| n.load(Ordering::SeqCst)))
    }

    /// The live values and the model's drop counts, handed from thread
    /// to thread with the random state and the round number.
    type Baton = (u64, usize, Vec<Slot>, Dropped);

    /// Rounds per seed of the model test, each of 64 steps.
    const ROUNDS: usize = 16;

    /// Runs each baton it receives for one round and hands it to
    /// `next`, until the last round, whose values it returns. When the
    /// other relay ends or panics, its channels close and this one
    /// returns `None`.
    fn relay(rx: Receiver<Baton>, next: Sender<Baton>) -> Option<(Vec<Slot>, Dropped)> {
        for (mut r, round, mut slots, mut dropped) in rx {
            if round == ROUNDS {
                return Some((slots, dropped));
            }
            for _ in 0..64 {
                r = splitmix64(r);
                let at = (r % 6 != 0 && !slots.is_empty()).then(|| (r >> 8) as usize % slots.len());
                let kind = at.map_or((r >> 3) as usize % 8, |i| slots[i].kind);
                op_on(kind, r / 6, at, &mut slots, &mut dropped);
                assert_eq!(drops(), [dropped; 2]);
            }
            next.send((r, round + 1, slots, dropped)).ok()?;
        }
        None
    }

    /// Seeded runs of `new`, `downcast` to the right and wrong types,
    /// `downcast_ref`, `map` and drop over eight types, from a
    /// ZST to a 4 KiB and an over-aligned value, each held by a
    /// `Payload` and by a `Box<dyn Any>`. The live values pass back and
    /// forth between two threads, so spill blocks are freed into, and
    /// reused from, a pool other than the one that made them. Every
    /// value read equals the model's, and after every step each type's
    /// drops on both sides equal the count of values the run let go.
    #[test]
    fn payload_matches_a_boxed_any_model() {
        assert_eq!(class_of(size_of::<[u8; 41]>(), 1), Some(0));
        assert_eq!(class_of(size_of::<[u64; 6]>(), 8), Some(0));
        assert_eq!(class_of(size_of::<[u64; 512]>(), 8), None);
        assert_eq!(class_of(size_of::<Aligned>(), align_of::<Aligned>()), None);
        let mut dropped = drops()[0];
        for seed in 0..12 {
            let (to_first, first) = channel();
            let (to_second, second) = channel();
            to_first.send((seed, 0, Vec::new(), dropped)).unwrap();
            let (slots, mut after) = std::thread::scope(|scope| {
                let a = scope.spawn(move || relay(first, to_second));
                let b = scope.spawn(move || relay(second, to_first));
                let (a, b) = (a.join().unwrap(), b.join().unwrap());
                a.or(b).expect("one relay ran the last round")
            });
            for slot in slots {
                after[slot.kind] += 1;
            }
            dropped = after;
            assert_eq!(drops(), [dropped; 2], "seed {seed}");
        }
        assert!(dropped.iter().all(|&n| n > 20), "{dropped:?}");
    }

    /// A value whose `Drop` panics, caught by `catch_unwind`: the drop
    /// runs once and the panic reaches the caller. A spilled value's
    /// block is leaked, neither freed nor pooled, because the drop
    /// unwinds before `spill_dealloc`; that is memory-safe, and the
    /// thread's pool serves the next payload as before.
    #[test]
    fn a_panicking_drop_runs_once_and_leaks_only_its_block() {
        struct Bomb<const N: usize>(Arc<AtomicUsize>, [u64; N]);
        impl<const N: usize> Drop for Bomb<N> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
                panic!("drop of a {}-word bomb", N + 1);
            }
        }
        let pooled = || SPILL_POOL.with(|pool| pool.borrow().classes[0].len());
        let runs = Arc::new(AtomicUsize::new(0));
        let inline = Payload::new(Bomb(Arc::clone(&runs), [0; 1]));
        let spilled = Payload::new(Bomb(Arc::clone(&runs), [0; 5]));
        assert!(inline.vt.inline && !spilled.vt.inline);
        drop(Payload::new([0u64; 6])); // leaves a class-64 block pooled
        let before = pooled();
        for p in [inline, spilled] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(p)));
            assert!(caught.is_err(), "the panic reaches the caller");
        }
        assert_eq!(runs.load(Ordering::SeqCst), 2, "each drop ran once");
        assert_eq!(pooled(), before, "the spilled bomb's block is not pooled");
        let next = Payload::new([7u64; 6]);
        assert_eq!(pooled(), before - 1, "the pool still serves");
        assert_eq!(next.downcast::<[u64; 6]>().unwrap(), [7; 6]);
    }

    /// A value whose drops count in its counter.
    struct Probe<const N: usize>(Arc<AtomicUsize>, [u64; N]);

    impl<const N: usize> Drop for Probe<N> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// All four moves a rewrite can make: inline to inline, inline to
    /// spilled, spilled to inline and spilled to spilled. Each drops
    /// its input once, inside the closure that consumed it, and leaves
    /// the output held where the output's size says.
    #[test]
    fn map_moves_between_inline_and_spilled_storage() {
        let drops = Arc::new(AtomicUsize::new(0));
        let probe = |n: u64| Probe(Arc::clone(&drops), [n; 1]);
        let big = |n: u64| Probe(Arc::clone(&drops), [n; 8]);

        let mut p = Payload::new(probe(3));
        assert!(p.map(|x: Probe<1>| format!("{}", x.1[0])));
        assert!(p.vt.inline);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert_eq!(p.downcast_ref::<String>().unwrap(), "3");

        let mut p = Payload::new(probe(4));
        assert!(p.map(|x: Probe<1>| big(x.1[0] + 1)));
        assert!(!p.vt.inline, "inline to spilled");
        assert_eq!(drops.load(Ordering::SeqCst), 2);

        assert!(p.map(|x: Probe<8>| probe(x.1.iter().sum())));
        assert!(p.vt.inline, "spilled to inline");
        assert_eq!(drops.load(Ordering::SeqCst), 3);
        assert_eq!(p.downcast_ref::<Probe<1>>().unwrap().1, [40]);

        drop(p);
        assert_eq!(drops.load(Ordering::SeqCst), 4);

        let mut p = Payload::new(big(2));
        assert!(p.map(|x: Probe<8>| [x.1[0]; 64]));
        assert!(!p.vt.inline, "spilled to spilled, another class");
        assert_eq!(drops.load(Ordering::SeqCst), 5);
        assert_eq!(p.downcast::<[u64; 64]>().unwrap(), [2; 64]);
    }

    /// A rewrite from the wrong type calls nothing and changes nothing,
    /// inline or spilled.
    #[test]
    fn map_from_the_wrong_type_leaves_the_payload_intact() {
        let mut called = false;
        let mut p = Payload::new(5i32);
        assert!(!p.map(|s: String| {
            called = true;
            s.len()
        }));
        let mut q = Payload::new([9u64; 8]);
        assert!(!q.map(|x: [u64; 7]| {
            called = true;
            x
        }));
        assert!(!called);
        assert!(p.vt.inline && !q.vt.inline);
        assert_eq!(p.downcast::<i32>().unwrap(), 5);
        assert_eq!(q.downcast::<[u64; 8]>().unwrap(), [9; 8]);
    }

    /// A closure that panics owns its input, so the unwind drops it
    /// once; the slot it leaves holds a unit and drops nothing more.
    /// A spilled input's block went back to the pool before the call.
    #[test]
    fn a_panicking_map_drops_its_input_once_and_leaves_the_slot_droppable() {
        let pooled = || SPILL_POOL.with(|pool| pool.borrow().classes[0].len());
        let drops = Arc::new(AtomicUsize::new(0));
        let mut inline = Payload::new(Probe(Arc::clone(&drops), [0; 1]));
        let mut spilled = Payload::new(Probe(Arc::clone(&drops), [0; 6]));
        assert!(inline.vt.inline && !spilled.vt.inline);
        let before = pooled();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = inline.map(|_: Probe<1>| -> u64 { panic!("inline stage") });
        }));
        assert!(caught.is_err(), "the panic reaches the caller");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = spilled.map(|_: Probe<6>| -> String { panic!("spilled stage") });
        }));
        assert!(caught.is_err());
        assert_eq!(drops.load(Ordering::SeqCst), 2, "each input dropped once");
        assert_eq!(pooled(), before + 1, "the spilled input's block is pooled");
        assert!(inline.is::<()>() && spilled.is::<()>());
        drop((inline, spilled));
        assert_eq!(drops.load(Ordering::SeqCst), 2, "the slots drop nothing");
    }

    #[test]
    fn class_selection_is_a_pure_function_of_layout() {
        assert_eq!(class_of(1, 1), Some(0));
        assert_eq!(class_of(16, 16), Some(0), "u128 spills");
        assert_eq!(class_of(64, 8), Some(0));
        assert_eq!(class_of(65, 8), Some(1));
        assert_eq!(class_of(1024, 16), Some(4));
        assert_eq!(class_of(1025, 8), None);
        assert_eq!(class_of(64, 32), None, "over-aligned bypasses the pool");
    }
}
