//! Ordered delivery: the session's resequencer.

use std::collections::VecDeque;

/// The resequencer: outputs that finished ahead of their turn wait in
/// a window over the sequence numbers, and leave in push order.
pub(super) struct Reorder<O> {
    /// The sequence number ordered delivery hands out next.
    next_seq: u64,
    /// Slot `i` is sequence number `next_seq + i`: its output if that
    /// has arrived, `None` while it is in flight (or dead-lettered).
    /// The cursor and the front slot advance together. The window
    /// reaches from the cursor to the furthest output that arrived
    /// early, so it never has more slots than there are items pushed
    /// and not yet delivered: at most the in-flight credit when
    /// `queue_capacity` is set, and without one, however far the
    /// caller lets pushes run ahead of the outputs it pulls (the
    /// session then buffers that many items somewhere in any case). A
    /// stream that completes in order never touches it.
    window: VecDeque<Option<O>>,
}

impl<O> Reorder<O> {
    pub(super) fn new() -> Self {
        Reorder {
            next_seq: 0,
            window: VecDeque::new(),
        }
    }

    /// Slots in the window right now.
    #[cfg(test)]
    pub(super) fn held(&self) -> usize {
        self.window.len()
    }

    /// Moves the cursor one sequence number on, and the window with
    /// it; returns what the front slot held.
    fn advance(&mut self) -> Option<O> {
        self.next_seq += 1;
        self.window.pop_front().flatten()
    }

    /// Advances the cursor past dead-lettered sequence numbers: a
    /// diverted item never produces an output, so ordered delivery
    /// must not wait for it.
    fn skip_dead(&mut self, is_dead: impl Fn(u64) -> bool) {
        while is_dead(self.next_seq) {
            self.advance();
        }
    }

    /// Takes the output of `seq` in; returns the next output in order
    /// if there is one now.
    pub(super) fn deliver(&mut self, seq: u64, out: O, is_dead: impl Fn(u64) -> bool) -> Option<O> {
        self.skip_dead(&is_dead);
        // In-order fast path: the common case (single-replica stages,
        // no remap in flight) finds the window empty and leaves it so.
        if seq == self.next_seq {
            let early = self.advance();
            debug_assert!(early.is_none(), "output {seq} arrived twice");
            return Some(out);
        }
        // Every pushed item settles exactly once, so nothing arrives
        // behind the cursor or into a full slot; if the engine ever
        // broke that, the output is dropped, not indexed with.
        let slot = seq
            .checked_sub(self.next_seq)
            .and_then(|ahead| usize::try_from(ahead).ok())
            .filter(|&ahead| self.window.get(ahead).is_none_or(Option::is_none));
        debug_assert!(slot.is_some(), "output {seq} arrived late or twice");
        let ahead = slot?;
        if self.window.len() <= ahead {
            self.window.resize_with(ahead + 1, || None);
        }
        self.window[ahead] = Some(out);
        self.pop_ordered(is_dead)
    }

    /// The output at the cursor, if it has arrived.
    pub(super) fn pop_ordered(&mut self, is_dead: impl Fn(u64) -> bool) -> Option<O> {
        self.skip_dead(is_dead);
        self.window.front()?.as_ref()?;
        self.advance()
    }

    /// After the collector is gone: whatever the window still holds,
    /// in sequence order (gaps — aborted items — are skipped).
    pub(super) fn flush(&mut self) -> Option<O> {
        while !self.window.is_empty() {
            if let Some(out) = self.advance() {
                return Some(out);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::Reorder;

    /// The resequencer as it was before it became a window — a tree of the
    /// outputs that arrived early — kept as the model the window must
    /// agree with.
    #[derive(Default)]
    struct TreeReorder {
        reorder: std::collections::BTreeMap<u64, u64>,
        next_seq: u64,
    }

    impl TreeReorder {
        fn skip_dead(&mut self, is_dead: impl Fn(u64) -> bool) {
            while is_dead(self.next_seq) {
                self.next_seq += 1;
            }
        }

        fn deliver(&mut self, seq: u64, out: u64, is_dead: impl Fn(u64) -> bool) -> Option<u64> {
            self.skip_dead(&is_dead);
            if seq == self.next_seq {
                self.next_seq += 1;
                Some(out)
            } else {
                self.reorder.insert(seq, out);
                self.pop_ordered(is_dead)
            }
        }

        fn pop_ordered(&mut self, is_dead: impl Fn(u64) -> bool) -> Option<u64> {
            self.skip_dead(is_dead);
            let o = self.reorder.remove(&self.next_seq)?;
            self.next_seq += 1;
            Some(o)
        }

        fn flush(&mut self) -> Option<u64> {
            let (&seq, _) = self.reorder.iter().next()?;
            self.next_seq = seq + 1;
            self.reorder.remove(&seq)
        }
    }

    /// Seeded streams the way the engine makes them: every sequence number
    /// settles once, at most `spread` numbers ahead of the oldest one
    /// unsettled — as an output, or (one in `1 / dead_share`) as a dead
    /// letter that never arrives — and some streams lose their collector
    /// part-way, after which nothing more arrives. The window must hand
    /// out what the tree hands out, call for call, and end empty.
    #[test]
    fn resequencer_window_matches_the_tree_model() {
        use adapipe_gridsim::rng::Rng64;
        use std::collections::BTreeSet;
        for seed in 0..300 {
            let mut rng = Rng64::new(seed);
            let items = 1 + rng.next_range(400) as u64;
            let spread = 1 + rng.next_range(96);
            let dead_share = [0.0, 0.02, 0.3][rng.next_range(3)];
            let cut = (rng.next_range(3) == 0).then(|| rng.next_range(items as usize + 1));

            let (mut window, mut tree) = (Reorder::new(), TreeReorder::default());
            let mut dead = BTreeSet::new();
            let (mut got, mut arrived) = (Vec::new(), BTreeSet::new());
            // The session's loop: hand out what is in order, then take the
            // next arrival in.
            let drain = |window: &mut Reorder<u64>,
                         tree: &mut TreeReorder,
                         dead: &BTreeSet<u64>,
                         got: &mut Vec<u64>| loop {
                let (w, t) = (
                    window.pop_ordered(|s| dead.contains(&s)),
                    tree.pop_ordered(|s| dead.contains(&s)),
                );
                assert_eq!(w, t, "seed {seed}: pop_ordered");
                match w {
                    Some(out) => got.push(out),
                    None => break,
                }
            };
            let mut in_flight: Vec<u64> = Vec::new();
            let mut pushed = 0;
            for step in 0.. {
                while pushed < items && in_flight.len() < spread {
                    in_flight.push(pushed);
                    pushed += 1;
                }
                if in_flight.is_empty() || cut == Some(step) {
                    break;
                }
                let seq = in_flight.remove(rng.next_range(in_flight.len()));
                if rng.next_unit() < dead_share {
                    dead.insert(seq);
                } else {
                    arrived.insert(seq);
                    let (w, t) = (
                        window.deliver(seq, seq, |s| dead.contains(&s)),
                        tree.deliver(seq, seq, |s| dead.contains(&s)),
                    );
                    assert_eq!(w, t, "seed {seed}: deliver({seq})");
                    got.extend(w);
                }
                drain(&mut window, &mut tree, &dead, &mut got);
            }
            // The collector is gone (stream complete, or cut short).
            loop {
                let (w, t) = (window.flush(), tree.flush());
                assert_eq!(w, t, "seed {seed}: flush");
                match w {
                    Some(out) => got.push(out),
                    None => break,
                }
            }
            assert_eq!(window.held(), 0, "seed {seed}: the window ends empty");
            assert!(tree.reorder.is_empty());
            // In order, once, and everything that arrived.
            assert!(got.windows(2).all(|w| w[0] < w[1]), "seed {seed}: {got:?}");
            assert_eq!(got.len(), arrived.len(), "seed {seed}");
            assert!(got.iter().all(|seq| arrived.contains(seq)));
        }
    }

    /// An output behind the cursor, or for a slot already filled, breaks
    /// exactly-once upstream: loud in a debug build, and in a release
    /// build dropped — never an underflowed index into the window.
    #[test]
    fn a_late_or_repeated_output_is_refused_not_indexed_with() {
        let alive = |_| false;
        for stray in [0, 2] {
            let mut window = Reorder::new();
            assert_eq!(window.deliver(0, 'a', alive), Some('a'));
            assert_eq!(window.deliver(2, 'c', alive), None);
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                window.deliver(stray, 'x', alive)
            }));
            if cfg!(debug_assertions) {
                assert!(refused.is_err(), "output {stray} went unnoticed");
            } else {
                assert_eq!(refused.ok(), Some(None));
                assert_eq!(window.held(), 2);
                assert_eq!(window.deliver(1, 'b', alive), Some('b'));
                assert_eq!(window.pop_ordered(alive), Some('c'));
            }
        }
    }
}
