//! The future-event list.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, M)` pairs with two
//! properties the GPU model depends on:
//!
//! * **Stable tie-breaking** — events scheduled for the same instant pop
//!   in the order they were scheduled, making runs deterministic.
//! * **Cancellation** — `schedule` returns an [`EventId`] that can later
//!   be cancelled in O(1) (lazy tombstoning); the processor-sharing SMX
//!   model reschedules pending block-completion events whenever
//!   occupancy changes.
//!
//! # Internals
//!
//! The heap is a hand-rolled **4-ary min-heap** ordered by the
//! lexicographic `(time_ns, seq)` key, so FIFO tie-breaking falls out
//! of the key itself and the pop order is bit-identical to the
//! reference `(time, seq)` order. Four children per node halve the
//! tree depth versus a binary heap and keep sift-downs within one or
//! two cache lines of the `Vec`; sifts move elements with the same
//! hole technique `std::collections::BinaryHeap` uses.
//!
//! Cancellation is tracked in two **bit vectors indexed by `seq`**
//! instead of a hash set: `cancelled` marks live tombstones and
//! `retired` marks events that have already been delivered. Sequence
//! numbers are never reused, so an `EventId` doubles as its own
//! generation check — a stale id (already delivered, or a tombstone
//! already dropped) can never alias a newer event, and cancelling it is
//! a reported no-op rather than a phantom tombstone. The hot pop path
//! therefore costs one shift/mask bit test per event where it used to
//! pay a SipHash lookup. The bit vectors grow by one bit per scheduled
//! event (2 bits/event total, ~2.4 MB per 100 M events), which is
//! negligible next to the heap itself for every workload we run.
//!
//! When tombstones exceed **one third of the heap** the queue
//! **purges**: one O(n) retain-and-reheapify drops more than n/3
//! entries, making the purge O(1) amortized per cancellation.
//! Reschedule-heavy callers (the processor-sharing SMX model cancels
//! roughly as often as it schedules) would otherwise drag an
//! ever-growing tail of dead entries through every sift. The enforced
//! bound is observable: [`QueueStats::tombstone_ratio`] reports the
//! peak in-heap tombstone fraction, which the purge trigger keeps at
//! or below ⅓.

use crate::time::{Dur, SimTime};

/// Opaque handle to a scheduled event, used for cancellation.
///
/// Wraps the event's sequence number. Sequence numbers are issued once
/// and never recycled, so the id is generation-safe: after the event is
/// delivered (or its tombstone is dropped) the id goes permanently
/// stale and [`EventQueue::cancel`] reports a no-op.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

/// Throughput and tombstone counters for one queue's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueueStats {
    /// Events scheduled (== sequence numbers issued).
    pub scheduled: u64,
    /// Events delivered by [`EventQueue::pop`].
    pub popped: u64,
    /// Tombstones created (successful cancellations).
    pub cancelled: u64,
    /// Cancellations of already-delivered or already-dead events
    /// (reported no-ops; a nonzero count usually flags a caller that
    /// holds on to stale [`EventId`]s).
    pub stale_cancels: u64,
    /// High-water mark of live pending events.
    pub peak_pending: usize,
    /// Peak fraction of the heap occupied by tombstones, sampled after
    /// each cancellation's amortized-purge decision. The purge trigger
    /// fires as soon as tombstones exceed ⅓ of the heap, so this value
    /// never exceeds 1/3 — it measures how much dead weight sifts
    /// actually dragged around at the worst moment.
    pub peak_tombstone_ratio: f64,
}

impl QueueStats {
    /// Peak in-heap tombstone fraction over the queue's lifetime — the
    /// price of lazy tombstoning. Bounded at ⅓ by the amortized purge
    /// (see the module docs); a value near the bound means the caller
    /// cancels about as often as it schedules.
    pub fn tombstone_ratio(&self) -> f64 {
        self.peak_tombstone_ratio
    }
}

/// Grow-on-demand bit set indexed by event sequence number.
#[derive(Default)]
struct SeqBits {
    words: Vec<u64>,
}

impl SeqBits {
    #[inline]
    fn get(&self, seq: u64) -> bool {
        self.words
            .get((seq >> 6) as usize)
            .is_some_and(|w| w >> (seq & 63) & 1 == 1)
    }

    #[inline]
    fn set(&mut self, seq: u64) {
        let w = (seq >> 6) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (seq & 63);
    }
}

/// A scheduled event: `(time, seq)` ordering key plus the message.
///
/// Kept as two `u64`s rather than one packed `u128` — the compare is
/// the same two instructions either way, but `u128` forces 16-byte
/// alignment and pads a `u64`-payload node from 24 to 32 bytes, which
/// is pure wasted heap bandwidth.
struct Scheduled<M> {
    /// Event time in nanoseconds.
    at: u64,
    /// Tie-breaking sequence number (unique; FIFO among equal times).
    seq: u64,
    msg: M,
}

impl<M> Scheduled<M> {
    #[inline]
    fn at(&self) -> SimTime {
        SimTime::from_ns(self.at)
    }

    #[inline]
    fn seq(&self) -> u64 {
        self.seq
    }

    /// Total ordering key; lexicographic `(time, seq)`.
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

/// Children per heap node.
const D: usize = 4;

// Both sifts use the hole technique std's BinaryHeap uses: lift the
// displaced element out once, shift ancestors/children into the hole
// with single copies, and write the element back exactly once — one
// move per level instead of a three-move swap. They are free functions
// (not methods) so `purge_tombstones` can heapify with the same code.
//
// Safety: indices stay within `heap` (checked against `len` before
// every access), and no user code runs while the hole is open — `u64`
// tuple comparisons cannot panic — so the duplicate created by
// `ptr::read` is always resolved by the final `ptr::write`.

#[inline]
fn sift_up<M>(heap: &mut [Scheduled<M>], mut i: usize) {
    unsafe {
        let ptr = heap.as_mut_ptr();
        let elem = std::ptr::read(ptr.add(i));
        let ekey = elem.key();
        while i > 0 {
            let parent = (i - 1) / D;
            if ekey < (*ptr.add(parent)).key() {
                std::ptr::copy_nonoverlapping(ptr.add(parent), ptr.add(i), 1);
                i = parent;
            } else {
                break;
            }
        }
        std::ptr::write(ptr.add(i), elem);
    }
}

#[inline]
fn sift_down<M>(heap: &mut [Scheduled<M>], mut i: usize) {
    let len = heap.len();
    unsafe {
        let ptr = heap.as_mut_ptr();
        let elem = std::ptr::read(ptr.add(i));
        let ekey = elem.key();
        loop {
            let first = i * D + 1;
            if first >= len {
                break;
            }
            let end = (first + D).min(len);
            let mut min = first;
            let mut min_key = (*ptr.add(first)).key();
            for c in first + 1..end {
                let k = (*ptr.add(c)).key();
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            if min_key < ekey {
                std::ptr::copy_nonoverlapping(ptr.add(min), ptr.add(i), 1);
                i = min;
            } else {
                break;
            }
        }
        std::ptr::write(ptr.add(i), elem);
    }
}

/// Deterministic future-event list.
///
/// The queue also tracks the current simulation clock: [`EventQueue::now`]
/// advances monotonically as events are popped. Scheduling into the past
/// is a logic error and panics in debug builds (clamped to `now` in
/// release builds so a stray rounding artifact cannot wedge a long run).
pub struct EventQueue<M> {
    heap: Vec<Scheduled<M>>,
    /// Live tombstones: cancelled events still sitting in the heap.
    cancelled: SeqBits,
    /// Events delivered by `pop` (never set for dropped tombstones —
    /// those keep their `cancelled` bit instead).
    retired: SeqBits,
    /// Tombstones currently in the heap (`heap.len() - live_cancelled`
    /// is the live pending count).
    live_cancelled: usize,
    now: SimTime,
    next_seq: u64,
    popped: u64,
    cancels: u64,
    stale_cancels: u64,
    peak_pending: usize,
    peak_tombstone_ratio: f64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Create an empty queue with the clock at `t = 0`.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            cancelled: SeqBits::default(),
            retired: SeqBits::default(),
            live_cancelled: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
            cancels: 0,
            stale_cancels: 0,
            peak_pending: 0,
            peak_tombstone_ratio: 0.0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far (diagnostics / perf counters).
    #[inline]
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Lifetime counters: scheduled/popped/cancelled totals, stale
    /// cancellations, and the pending high-water mark.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            scheduled: self.next_seq,
            popped: self.popped,
            cancelled: self.cancels,
            stale_cancels: self.stale_cancels,
            peak_pending: self.peak_pending,
            peak_tombstone_ratio: self.peak_tombstone_ratio,
        }
    }

    /// Number of live (non-cancelled) events still pending.
    pub fn pending(&self) -> usize {
        self.heap.len() - self.live_cancelled
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Schedule `msg` at absolute time `at`.
    ///
    /// Panics in debug builds if `at` lies in the past; clamps to `now`
    /// in release builds.
    pub fn schedule_at(&mut self, at: SimTime, msg: M) -> EventId {
        debug_assert!(
            at >= self.now,
            "scheduled an event in the past: at={at} now={}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap_push(Scheduled {
            at: at.as_ns(),
            seq,
            msg,
        });
        self.peak_pending = self.peak_pending.max(self.pending());
        EventId(seq)
    }

    /// Schedule `msg` after a delay relative to the current clock.
    pub fn schedule_in(&mut self, delay: Dur, msg: M) -> EventId {
        self.schedule_at(self.now + delay, msg)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event
    /// was still pending (i.e. this call actually removed it).
    ///
    /// Cancelling an id that was never issued, was already cancelled, or
    /// has already been delivered is a reported no-op (`false`);
    /// delivered-event cancellations are additionally counted in
    /// [`QueueStats::stale_cancels`].
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_seq || self.cancelled.get(id.0) {
            return false;
        }
        if self.retired.get(id.0) {
            self.stale_cancels += 1;
            return false;
        }
        self.cancelled.set(id.0);
        self.live_cancelled += 1;
        self.cancels += 1;
        // Amortized compaction: as soon as tombstones exceed ⅓ of the
        // heap, rebuild it without them. Each purge is O(n) but removes
        // more than n/3 elements, so the cost is O(1) amortized per
        // cancel — and it keeps reschedule-churn workloads (the SMX
        // processor-sharing model cancels roughly as often as it
        // schedules) from dragging an unbounded tail of dead entries
        // through every sift.
        if self.live_cancelled * 3 > self.heap.len() {
            self.purge_tombstones();
        }
        // Sample the in-heap tombstone fraction *after* the purge
        // decision: what remains is what future sifts actually carry,
        // and the trigger above caps it at ⅓ — the invariant
        // `QueueStats::tombstone_ratio` reports.
        if !self.heap.is_empty() {
            let ratio = self.live_cancelled as f64 / self.heap.len() as f64;
            if ratio > self.peak_tombstone_ratio {
                self.peak_tombstone_ratio = ratio;
            }
        }
        true
    }

    /// Drop every tombstone from the heap and re-heapify in place.
    ///
    /// Does not disturb pop order: keys are unique and totally ordered,
    /// so any valid heap over the surviving elements delivers them in
    /// the same `(time, seq)` sequence (the property-based test
    /// `event_queue_matches_reference_model` exercises this). The
    /// `cancelled` bits stay set (purged tombstones are
    /// indistinguishable from ones dropped at pop time), keeping
    /// double-cancels reported no-ops.
    fn purge_tombstones(&mut self) {
        let cancelled = &self.cancelled;
        self.heap.retain(|ev| !cancelled.get(ev.seq));
        self.live_cancelled = 0;
        let len = self.heap.len();
        if len > 1 {
            for i in (0..=(len - 2) / D).rev() {
                sift_down(&mut self.heap, i);
            }
        }
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, M)> {
        while let Some(ev) = self.heap_pop() {
            if self.cancelled.get(ev.seq()) {
                // Dropped tombstone; the `cancelled` bit stays set so a
                // late cancel of this id remains a no-op.
                self.live_cancelled -= 1;
                continue;
            }
            debug_assert!(ev.at() >= self.now, "event heap returned a past event");
            self.retired.set(ev.seq());
            self.now = ev.at();
            self.popped += 1;
            return Some((ev.at(), ev.msg));
        }
        None
    }

    /// Timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drain cancelled tombstones from the top so peek is accurate.
        while let Some(top) = self.heap.first() {
            if self.cancelled.get(top.seq()) {
                self.heap_pop().expect("peeked element vanished");
                self.live_cancelled -= 1;
            } else {
                return Some(top.at());
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // 4-ary min-heap plumbing
    // ------------------------------------------------------------------

    #[inline]
    fn heap_push(&mut self, ev: Scheduled<M>) {
        self.heap.push(ev);
        let last = self.heap.len() - 1;
        sift_up(&mut self.heap, last);
    }

    #[inline]
    fn heap_pop(&mut self) -> Option<Scheduled<M>> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some(last);
        }
        let ret = std::mem::replace(&mut self.heap[0], last);
        sift_down(&mut self.heap, 0);
        Some(ret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(30), "c");
        q.schedule_at(SimTime::from_ns(10), "a");
        q.schedule_at(SimTime::from_ns(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, m)| m).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_ns(30));
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_ns(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, m)| m).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(100), 1);
        q.pop();
        q.schedule_in(Dur::from_ns(50), 2);
        let (t, m) = q.pop().unwrap();
        assert_eq!((t.as_ns(), m), (150, 2));
    }

    #[test]
    fn cancellation_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_ns(10), "a");
        q.schedule_at(SimTime::from_ns(20), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.pending(), 1);
        let (t, m) = q.pop().unwrap();
        assert_eq!((t.as_ns(), m), (20, "b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn cancel_of_delivered_event_is_reported_noop() {
        // Regression: this used to insert a stale tombstone, making
        // `pending()` under-count and eventually underflow-panic.
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_ns(10), "a");
        q.schedule_at(SimTime::from_ns(20), "b");
        let (_, m) = q.pop().unwrap();
        assert_eq!(m, "a");
        assert!(!q.cancel(a), "cancel after delivery must be a no-op");
        assert_eq!(q.pending(), 1, "pending must not under-count");
        assert_eq!(q.stats().stale_cancels, 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pending(), 0, "no underflow after draining");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_of_dropped_tombstone_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_ns(10), "a");
        q.schedule_at(SimTime::from_ns(20), "b");
        assert!(q.cancel(a));
        assert_eq!(q.pop().unwrap().1, "b"); // drops a's tombstone
        assert!(!q.cancel(a), "tombstone already dropped");
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_ns(10), "a");
        q.schedule_at(SimTime::from_ns(20), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(20)));
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pending_accounts_for_tombstones() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10)
            .map(|i| q.schedule_at(SimTime::from_ns(i), i))
            .collect();
        for id in &ids[..5] {
            q.cancel(*id);
        }
        assert_eq!(q.pending(), 5);
        assert!(!q.is_empty());
    }

    #[test]
    fn stats_track_queue_lifetime() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..8)
            .map(|i| q.schedule_at(SimTime::from_ns(i), i))
            .collect();
        q.cancel(ids[0]);
        q.cancel(ids[1]);
        while q.pop().is_some() {}
        q.cancel(ids[7]); // stale: already delivered
        let s = q.stats();
        assert_eq!(s.scheduled, 8);
        assert_eq!(s.popped, 6);
        assert_eq!(s.cancelled, 2);
        assert_eq!(s.stale_cancels, 1);
        assert_eq!(s.peak_pending, 8);
        // Both cancelled events' tombstones sat in the full 8-entry
        // heap, so the peak in-heap fraction is 2/8.
        assert!((s.tombstone_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(QueueStats::default().tombstone_ratio(), 0.0);
    }

    /// The amortized purge fires as soon as tombstones exceed ⅓ of the
    /// heap, so the reported peak tombstone ratio can never exceed ⅓ —
    /// even under a churn workload that cancels as often as it
    /// schedules (the regime where the old lifetime `cancelled /
    /// scheduled` metric read ~0.5 and looked like a broken invariant).
    #[test]
    fn tombstone_ratio_is_bounded_by_purge_invariant() {
        let mut q = EventQueue::new();
        let mut pending: Vec<EventId> = Vec::new();
        let mut tick = 0u64;
        // Churn: keep ~200 events pending; every step cancels one
        // event and schedules a replacement (the SMX reschedule shape).
        for i in 0..200u64 {
            pending.push(q.schedule_at(SimTime::from_ns(i), i));
        }
        for step in 0..20_000u64 {
            let victim = pending.swap_remove((step.wrapping_mul(2654435761) as usize) % pending.len());
            assert!(q.cancel(victim));
            tick += 1 + step % 7;
            pending.push(q.schedule_at(SimTime::from_ns(200 + tick), step));
        }
        let s = q.stats();
        let cancelled_fraction = s.cancelled as f64 / s.scheduled as f64;
        assert!(
            cancelled_fraction > 0.45,
            "churn workload must actually cancel heavily: {cancelled_fraction}"
        );
        assert!(
            s.tombstone_ratio() <= 1.0 / 3.0 + 1e-12,
            "peak in-heap tombstone ratio {} exceeds the documented ⅓ purge bound",
            s.tombstone_ratio()
        );
        assert!(s.tombstone_ratio() > 0.0, "churn must leave tombstones");
    }

    #[test]
    fn heap_handles_large_interleaved_load() {
        // Cross-check pop order on a load large enough to exercise
        // multi-level 4-ary sifts.
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        for i in 0..5000u64 {
            let t = (i * 2654435761) % 10_007;
            q.schedule_at(SimTime::from_ns(t), i);
            expect.push((t, i));
        }
        expect.sort();
        let got: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop()).map(|(t, m)| (t.as_ns(), m)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(100), ());
        q.pop();
        q.schedule_at(SimTime::from_ns(50), ());
    }
}
