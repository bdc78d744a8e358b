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
