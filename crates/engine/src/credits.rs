//! The end-to-end in-flight credit gate behind `queue_capacity`.
//!
//! A session's pusher banks credits rather than taking one per item
//! (`EngineSession::held`): a trip to the gate takes up to a window's
//! worth with [`Credits::try_acquire_n`], and only a pusher that finds
//! the gate empty blocks, in [`Credits::acquire_n`], for a whole window
//! (Clark's rule against silly windows, RFC 813). The waiter's need is
//! recorded on the gate, so a release wakes it only once that many
//! slots are free, not once per finished envelope. Banked credits count
//! as in flight; the session returns what is left when it closes.
//!
//! Slots come back at the sink: the worker that ships a sink batch
//! releases one per item in it (`item::Outbox::dispatch`), and a
//! dead-lettered item's slot is released where it is diverted
//! (`tenant::Shared::divert_dead`). So every releaser is a worker, and
//! a release that covers a blocked pusher's need wakes it directly.
//!
//! The acquire/release methods are `#[inline]`: every envelope crosses
//! them, and their callers (the session's push in `exec`, the workers'
//! dispatch in `item`) live in other modules.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// End-to-end in-flight credit gate: a push spends one slot per item,
/// and the worker that ships the item to the sink releases it. See the
/// `exec` module docs for why the bound is end-to-end rather than
/// per-channel blocking sends.
pub(crate) struct Credits {
    /// Slots in all: `queue_capacity × (stages + 1)`.
    capacity: u64,
    gate: Mutex<Gate>,
    freed: Condvar,
    /// Raised at fatal teardown: nothing will ever release a slot
    /// again, so blocked pushers must wake and give up instead of
    /// waiting on workers that have stopped serving the tenant.
    broken: AtomicBool,
}

struct Gate {
    available: u64,
    /// The smallest need of the pushers asleep on `freed`, `u64::MAX`
    /// when none is. A release notifies only once it covers that need:
    /// on a futex condvar `notify_*` is a system call whether or not
    /// anyone listens, the workers release once per finished
    /// envelope, and a waiter woken short of its need only sleeps
    /// again. Reset at each notify; every waiter that goes back to
    /// sleep records its need again.
    wanted: u64,
}

impl Gate {
    /// Takes `n` slots. Saturating, because a broken gate admits a
    /// pusher whatever is left.
    fn take(&mut self, n: u64) {
        self.available = self.available.saturating_sub(n);
    }
}

impl Credits {
    pub(crate) fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "credit capacity must be positive");
        Credits {
            capacity,
            gate: Mutex::new(Gate {
                available: capacity,
                wanted: u64::MAX,
            }),
            freed: Condvar::new(),
            broken: AtomicBool::new(false),
        }
    }

    /// Slots in all, free or not.
    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Takes `n` slots, blocking until that many are free at once;
    /// returns the blocked wall time, or `None` if they were free
    /// immediately (or the gate broke). A broken gate grants all `n`,
    /// as [`Credits::try_acquire_n`] does.
    #[inline]
    pub(crate) fn acquire_n(&self, n: u64) -> Option<Duration> {
        let mut gate = self.gate.lock().expect("credit lock poisoned");
        if gate.available >= n || self.broken.load(Ordering::SeqCst) {
            gate.take(n);
            return None;
        }
        let t0 = Instant::now();
        while gate.available < n && !self.broken.load(Ordering::SeqCst) {
            gate.wanted = gate.wanted.min(n);
            gate = self.freed.wait(gate).expect("credit lock poisoned");
        }
        gate.take(n);
        Some(t0.elapsed())
    }

    /// Non-blocking acquire of up to `n` slots under one lock; returns
    /// how many were taken — never more than were available, except
    /// that a broken gate grants all `n`. Zero sends the pusher to
    /// [`Credits::acquire_n`]; slots taken and then not spent go back
    /// through [`Credits::release_n`].
    #[inline]
    pub(crate) fn try_acquire_n(&self, n: u64) -> u64 {
        let mut gate = self.gate.lock().expect("credit lock poisoned");
        let granted = if self.broken.load(Ordering::SeqCst) {
            n
        } else {
            n.min(gate.available)
        };
        gate.take(granted);
        granted
    }

    #[inline]
    pub(crate) fn release_n(&self, n: u64) {
        let mut gate = self.gate.lock().expect("credit lock poisoned");
        gate.available += n;
        // A waiter records its need under this lock before it waits,
        // so nobody asleep on `freed` can get through yet unless this
        // covers the smallest need.
        if gate.available >= gate.wanted {
            gate.wanted = u64::MAX;
            self.freed.notify_all();
        }
    }

    /// Slots free right now.
    #[cfg(test)]
    pub(crate) fn available(&self) -> u64 {
        self.gate.lock().expect("credit lock poisoned").available
    }

    /// True while a pusher is asleep in [`Credits::acquire_n`] (its need
    /// is recorded under the lock it waits on).
    #[cfg(test)]
    pub(crate) fn waiting(&self) -> bool {
        self.gate.lock().expect("credit lock poisoned").wanted != u64::MAX
    }

    /// Wakes every blocked pusher permanently (fatal teardown).
    pub(crate) fn break_gate(&self) {
        let _guard = self.gate.lock().expect("credit lock poisoned");
        self.broken.store(true, Ordering::SeqCst);
        self.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver};
    use std::sync::Arc;

    const NOT_YET: Duration = Duration::from_millis(50);
    const SURELY: Duration = Duration::from_secs(10);

    /// Spawns `n` threads blocking in `acquire_n(need)`; each reports
    /// on `rx` when it gets through.
    fn waiters(
        credits: &Arc<Credits>,
        n: usize,
        need: u64,
    ) -> (Vec<std::thread::JoinHandle<()>>, Receiver<()>) {
        let (tx, rx) = channel();
        let handles = (0..n)
            .map(|_| {
                let (credits, tx) = (Arc::clone(credits), tx.clone());
                std::thread::spawn(move || {
                    credits.acquire_n(need);
                    tx.send(()).expect("test thread outlives its waiters");
                })
            })
            .collect();
        (handles, rx)
    }

    #[test]
    fn every_release_and_a_broken_gate_wake_exactly_who_they_should() {
        let credits = Arc::new(Credits::new(2));
        assert_eq!(credits.try_acquire_n(1), 1);
        assert!(credits.acquire_n(1).is_none(), "a free slot never blocks");
        assert_eq!(credits.try_acquire_n(1), 0, "both slots are taken");

        let (handles, through) = waiters(&credits, 3, 1);
        assert!(
            through.recv_timeout(NOT_YET).is_err(),
            "nothing was released"
        );
        // One slot: exactly one waiter gets through.
        credits.release_n(1);
        through
            .recv_timeout(SURELY)
            .expect("a released slot wakes a waiter");
        assert!(
            through.recv_timeout(NOT_YET).is_err(),
            "one slot, one waiter"
        );
        // Two slots at once: both remaining waiters get through.
        credits.release_n(2);
        for _ in 0..2 {
            through
                .recv_timeout(SURELY)
                .expect("release_n(2) wakes two");
        }
        for h in handles {
            h.join().unwrap();
        }

        // Zero slots again; breaking the gate frees everyone, for good.
        assert_eq!(credits.try_acquire_n(1), 0);
        let (handles, through) = waiters(&credits, 2, 1);
        assert!(through.recv_timeout(NOT_YET).is_err());
        credits.break_gate();
        for _ in 0..2 {
            through
                .recv_timeout(SURELY)
                .expect("a broken gate parks nobody");
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            credits.try_acquire_n(1),
            1,
            "a broken gate admits everything"
        );
        assert!(credits.acquire_n(1).is_none());
    }

    /// A pusher blocked for a window's worth sleeps through releases
    /// that leave it short (it is not even woken: `wanted` holds its
    /// need), gets through once that many are free at once, and takes
    /// exactly its need; a broken gate frees it whatever is left.
    #[test]
    fn an_acquire_n_waiter_wakes_only_once_its_whole_need_is_free() {
        let credits = Arc::new(Credits::new(8));
        assert_eq!(credits.try_acquire_n(8), 8);
        let (handles, through) = waiters(&credits, 1, 5);
        for _ in 0..4 {
            credits.release_n(1);
            assert!(
                through.recv_timeout(NOT_YET).is_err(),
                "woke with {} of 5 free",
                credits.available()
            );
        }
        credits.release_n(1);
        through
            .recv_timeout(SURELY)
            .expect("five free slots wake a waiter that needs five");
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(credits.available(), 0, "it took its whole need");

        // Short of its need again; only a broken gate lets it through.
        credits.release_n(3);
        let (handles, through) = waiters(&credits, 1, 4);
        assert!(through.recv_timeout(NOT_YET).is_err(), "3 of 4 free");
        credits.break_gate();
        through
            .recv_timeout(SURELY)
            .expect("a broken gate parks nobody");
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(credits.available(), 0);
    }

    #[test]
    fn try_acquire_n_never_overdraws_and_a_broken_gate_grants_it_all() {
        let credits = Credits::new(10);
        assert_eq!(credits.try_acquire_n(4), 4);
        assert_eq!(credits.try_acquire_n(0), 0);
        assert_eq!(
            credits.try_acquire_n(256),
            6,
            "what is left, not what was asked"
        );
        assert_eq!(credits.try_acquire_n(256), 0);
        assert_eq!(credits.available(), 0);
        // Unspent slots go back the way finished items' slots do.
        credits.release_n(3);
        assert_eq!(credits.try_acquire_n(2), 2);
        assert_eq!(credits.available(), 1);

        // Nothing will ever be released again: every request is
        // granted in full, and the count stops at zero.
        credits.break_gate();
        assert_eq!(credits.try_acquire_n(256), 256);
        assert_eq!(credits.available(), 0);
        assert_eq!(credits.try_acquire_n(7), 7);
    }

    /// Eight threads draw random-sized requests against a gate that a
    /// ninth keeps refilling: whatever the interleaving, the grants add
    /// up to exactly what was put in, so no request was ever granted a
    /// slot that was not there.
    #[test]
    fn concurrent_try_acquire_n_grants_exactly_what_was_released() {
        const CAPACITY: u64 = 64;
        const REFILLS: u64 = 2_000;
        let credits = Arc::new(Credits::new(CAPACITY));
        let stop = Arc::new(AtomicBool::new(false));
        let takers: Vec<_> = (0..8u64)
            .map(|t| {
                let (credits, stop) = (Arc::clone(&credits), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let (mut granted, mut x) = (0, 0x9E37_79B9 + t);
                    while !stop.load(Ordering::SeqCst) {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let want = 1 + (x >> 33) % 96;
                        let got = credits.try_acquire_n(want);
                        assert!(got <= want);
                        granted += got;
                    }
                    granted
                })
            })
            .collect();
        for _ in 0..REFILLS {
            credits.release_n(3);
        }
        stop.store(true, Ordering::SeqCst);
        let granted: u64 = takers.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(granted + credits.available(), CAPACITY + 3 * REFILLS);
    }
}
