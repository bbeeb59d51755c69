//! The one fixed-capacity ring behind the recorder: a `Ring` of
//! [`Span`](crate::Span)s for the telemetry records.
//!
//! One ring per core, preallocated when observability is enabled, so
//! the recording path ([`Ring::push`]) is a bounds-checked store plus
//! two integer bumps — no allocation, no branching beyond the wrap test
//! (px-analyze rule R5 enforces this statically).
//!
//! The ring is single-producer/single-consumer with *time-separated*
//! roles: the owning worker thread is the only producer during a run,
//! and consumers ([`Ring::recent`], drains) only touch it after the
//! worker has finished (join) or on the worker's own thread (test
//! failure paths). That separation is why no atomics are needed — the
//! handoff happens through the thread join, which is already a
//! synchronization point.

/// A fixed-capacity overwrite-oldest ring.
///
/// Capacity 0 (the disabled configuration) makes every push a no-op
/// without allocating anything.
#[derive(Debug, Clone, Default)]
pub struct Ring<T> {
    buf: Box<[T]>,
    /// Next slot to write (== oldest slot once the ring has wrapped).
    next: usize,
    /// Total entries ever pushed (keeps counting past capacity).
    written: u64,
}

impl<T: Copy + Default> Ring<T> {
    /// Creates a ring holding up to `capacity` entries, preallocated.
    pub fn with_capacity(capacity: usize) -> Self {
        Ring {
            buf: vec![T::default(); capacity].into_boxed_slice(),
            next: 0,
            written: 0,
        }
    }

    /// Records one entry, overwriting the oldest when full. Alloc-free.
    #[inline]
    pub fn push(&mut self, v: T) {
        let cap = self.buf.len();
        if cap == 0 {
            return;
        }
        if let Some(slot) = self.buf.get_mut(self.next) {
            *slot = v;
        }
        self.next += 1;
        if self.next == cap {
            self.next = 0;
        }
        self.written = self.written.wrapping_add(1);
    }

    /// Ring capacity in entries.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Total entries ever pushed (including overwritten ones).
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Entries currently held (≤ capacity).
    pub fn len(&self) -> usize {
        usize::try_from(self.written)
            .unwrap_or(usize::MAX)
            .min(self.buf.len())
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }

    /// The last `n` entries, oldest first. Allocates (cold path only).
    pub fn recent(&self, n: usize) -> Vec<T> {
        let held = self.len();
        let take = n.min(held);
        let cap = self.buf.len();
        let mut out = Vec::with_capacity(take);
        for i in 0..take {
            // The `take` newest entries end just before `next`; walk them
            // oldest-first with wraparound.
            let idx = (self.next + cap - take + i) % cap.max(1);
            if let Some(v) = self.buf.get(idx) {
                out.push(*v);
            }
        }
        out
    }

    /// Forgets every entry and restarts the `written` count, keeping
    /// the allocation.
    pub fn clear(&mut self) {
        self.next = 0;
        self.written = 0;
    }
}

#[cfg(test)]
mod tests {
    // Recency order across arbitrary wrap patterns is the proptest
    // `tests/obs_props.rs::ring_recent_matches_reference`.
    use super::*;

    #[test]
    fn zero_capacity_ring_is_a_noop() {
        let mut r = Ring::with_capacity(0);
        r.push(1u64);
        assert_eq!(r.written(), 0);
        assert!(r.recent(10).is_empty());
        assert!(r.is_empty());
    }

    #[test]
    fn clear_forgets_entries_and_keeps_the_allocation() {
        let mut r = Ring::with_capacity(4);
        for t in 0..10u64 {
            r.push(t);
        }
        r.clear();
        assert_eq!((r.len(), r.written(), r.capacity()), (0, 0, 4));
        assert!(r.recent(64).is_empty(), "stale slots are never read");
        r.push(11);
        assert_eq!(r.recent(64), vec![11]);
    }
}
