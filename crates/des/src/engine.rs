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
//! **Runs.** Consecutive `schedule_at` calls for the same instant share
//! one heap node: the node carries the run's head event inline and the
//! rest in a tail buffer. A run's sequence numbers are contiguous (no
//! other schedule call came between its members), so no other node's
//! key lies between two members' keys: delivering the head and
//! promoting the next member raises the node's key without breaking
//! the heap order, and needs no sift. The run still open for appends
//! (the one the last `schedule_at` joined) waits beside the heap and
//! enters it when a schedule for another instant closes it, so
//! appending never has to find a node inside the heap. A simulation
//! whose waves of block groups finish at one instant and re-arm at
//! one later instant pays one heap push and one heap pop per wave
//! instead of one of each per event.
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
//! When tombstones exceed **one third of the stored events** the queue
//! **purges**: one O(n) pass drops more than n/3 of them from their
//! runs and re-heapifies, making the purge O(1) amortized per
//! cancellation. Reschedule-heavy callers (the processor-sharing SMX
//! model cancels roughly as often as it schedules) would otherwise drag
//! an ever-growing tail of dead entries through every sift. The
//! enforced bound is observable: [`QueueStats::tombstone_ratio`]
//! reports the peak stored tombstone fraction, which the purge trigger
//! keeps at or below ⅓. Every counter counts events, never nodes.

use crate::time::{Dur, SimTime};
use std::collections::VecDeque;

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
    /// Peak fraction of the stored events that are tombstones, sampled
    /// after each cancellation's amortized-purge decision. The purge
    /// trigger fires as soon as tombstones exceed ⅓ of the stored
    /// events, so this value never exceeds 1/3 — it measures how much
    /// dead weight the queue actually carried at the worst moment.
    pub peak_tombstone_ratio: f64,
}

impl QueueStats {
    /// Peak stored tombstone fraction over the queue's lifetime — the
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

/// Bits of [`Run::word`] below the head's sequence number; they hold
/// the run's tail-buffer index plus one (0: no member behind the head).
/// Sequence numbers are unique, so they alone order two words and the
/// key compares whole words. Sequence numbers stay below 2^48 (~2.8e14
/// events per queue).
const TAIL_BITS: u32 = 16;
const TAIL_MASK: u64 = (1 << TAIL_BITS) - 1;
/// Tail buffers a node can name. When this many runs already have
/// members behind their head, a further same-instant schedule starts a
/// new node instead of joining a run: runs save work, they never decide
/// the order.
const MAX_TAILS: usize = TAIL_MASK as usize;

/// One heap node: a run of events scheduled back to back for the same
/// instant. The head — the member delivered next — sits inline; the
/// members behind it, if any, wait in a tail buffer.
///
/// The node is `at`, one `u64` and the message: the head's seq and the
/// tail-buffer index share `word`, so a node with a `u64` payload is 24
/// bytes, as it was before runs existed. (A separate index field pads
/// it to 32 bytes, and the larger node measurably slows every sift on
/// sift-heavy patterns.)
struct Run<M> {
    /// Event time in nanoseconds, shared by every member.
    at: u64,
    /// The head's sequence number (unique; FIFO among equal times)
    /// above [`TAIL_BITS`] bits of tail-buffer index.
    word: u64,
    /// The head's message.
    msg: M,
}

impl<M> Run<M> {
    #[inline]
    fn new(at: u64, seq: u64, msg: M) -> Self {
        Run {
            at,
            word: seq << TAIL_BITS,
            msg,
        }
    }

    /// The head's sequence number.
    #[inline]
    fn seq(&self) -> u64 {
        self.word >> TAIL_BITS
    }

    /// Total ordering key: `(time, seq)` of the head, lexicographic
    /// (the tail bits sit below the seq and never decide).
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.at, self.word)
    }

    /// Index of the tail buffer, if members wait behind the head.
    #[inline]
    fn tail(&self) -> Option<usize> {
        match self.word & TAIL_MASK {
            0 => None,
            t => Some(t as usize - 1),
        }
    }

    #[inline]
    fn set(&mut self, seq: u64, tail: Option<usize>) {
        self.word = seq << TAIL_BITS | tail.map_or(0, |t| t as u64 + 1);
    }
}

/// Tail buffers of the runs that have members behind their head,
/// recycled through a free list so steady-state appends allocate
/// nothing. Each entry keeps its member's own `seq`: a purge may drop
/// cancelled members from the middle of a run.
struct Tails<M> {
    bufs: Vec<VecDeque<(u64, M)>>,
    free: Vec<usize>,
}

impl<M> Tails<M> {
    /// True when `run` can take another member: it has a tail buffer,
    /// or one is free or can still be made.
    #[inline]
    fn can_grow(&self, run: &Run<M>) -> bool {
        run.tail().is_some() || !self.free.is_empty() || self.bufs.len() < MAX_TAILS
    }

    /// Append `(seq, msg)` behind `run`'s head (see [`Tails::can_grow`]).
    #[inline]
    fn push(&mut self, run: &mut Run<M>, seq: u64, msg: M) {
        let tail = match run.tail() {
            Some(t) => t,
            None => {
                let t = self.free.pop().unwrap_or_else(|| {
                    self.bufs.push(VecDeque::new());
                    self.bufs.len() - 1
                });
                run.set(run.seq(), Some(t));
                t
            }
        };
        self.bufs[tail].push_back((seq, msg));
    }

    /// Replace `run`'s head with the next member and return the old
    /// head as `(seq, msg)`; `None` when the run has no other member
    /// (the caller then removes the run whole).
    #[inline]
    fn advance(&mut self, run: &mut Run<M>) -> Option<(u64, M)> {
        let tail = run.tail()?;
        let buf = &mut self.bufs[tail];
        let (seq, msg) = buf.pop_front().expect("a run's tail buffer is never empty");
        let old_seq = run.seq();
        if buf.is_empty() {
            self.free.push(tail);
            run.set(seq, None);
        } else {
            run.set(seq, Some(tail));
        }
        Some((old_seq, std::mem::replace(&mut run.msg, msg)))
    }

    /// Drop `run`'s cancelled members, promoting the first live one to
    /// head. Returns false when no member is live (the caller drops the
    /// run; its tail buffer is already recycled).
    #[inline]
    fn purge(&mut self, run: &mut Run<M>, cancelled: &SeqBits) -> bool {
        let Some(tail) = run.tail() else {
            return !cancelled.get(run.seq());
        };
        self.bufs[tail].retain(|(seq, _)| !cancelled.get(*seq));
        if self.bufs[tail].is_empty() {
            self.free.push(tail);
            run.set(run.seq(), None);
        }
        while cancelled.get(run.seq()) {
            if self.advance(run).is_none() {
                return false;
            }
        }
        true
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
fn sift_up<M>(heap: &mut [Run<M>], mut i: usize) {
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
fn sift_down<M>(heap: &mut [Run<M>], mut i: usize) {
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

/// Where the next event in `(time, seq)` order lives.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Front {
    /// The open run (not yet in the heap).
    Open,
    /// The heap's root.
    Heap,
}

/// Deterministic future-event list.
///
/// The queue also tracks the current simulation clock: [`EventQueue::now`]
/// advances monotonically as events are popped. Scheduling into the past
/// is a logic error and panics in debug builds (clamped to `now` in
/// release builds so a stray rounding artifact cannot wedge a long run).
pub struct EventQueue<M> {
    /// Closed runs.
    heap: Vec<Run<M>>,
    /// The run the last `schedule_at` call joined, while it has members
    /// left; it enters the heap when a schedule for another instant
    /// closes it.
    open: Option<Run<M>>,
    tails: Tails<M>,
    /// Live tombstones: cancelled events still stored in some run.
    cancelled: SeqBits,
    /// Events delivered by `pop` (never set for dropped tombstones —
    /// those keep their `cancelled` bit instead).
    retired: SeqBits,
    /// Events stored in runs, tombstones included.
    stored: usize,
    /// Tombstones currently stored (`stored - live_cancelled` is the
    /// live pending count).
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
            open: None,
            tails: Tails {
                bufs: Vec::new(),
                free: Vec::new(),
            },
            cancelled: SeqBits::default(),
            retired: SeqBits::default(),
            stored: 0,
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
        self.stored - self.live_cancelled
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Schedule `msg` at absolute time `at`.
    ///
    /// Panics in debug builds if `at` lies in the past; clamps to `now`
    /// in release builds.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, msg: M) -> EventId {
        debug_assert!(
            at >= self.now,
            "scheduled an event in the past: at={at} now={}",
            self.now
        );
        let at = at.max(self.now).as_ns();
        let seq = self.next_seq;
        assert!(
            seq >> (64 - TAIL_BITS) == 0,
            "event sequence numbers exhausted"
        );
        self.next_seq += 1;
        self.stored += 1;
        match &mut self.open {
            // The open run took the previous schedule call, so no other
            // run holds a seq between its members and this one.
            Some(run) if run.at == at && self.tails.can_grow(run) => self.tails.push(run, seq, msg),
            open => {
                if let Some(closed) = open.replace(Run::new(at, seq, msg)) {
                    self.heap_push(closed);
                }
            }
        }
        self.peak_pending = self.peak_pending.max(self.pending());
        EventId(seq)
    }

    /// Schedule `msg` after a delay relative to the current clock.
    #[inline]
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
        // stored events, rebuild the runs without them. Each purge is
        // O(n) but removes more than n/3 events, so the cost is O(1)
        // amortized per cancel — and it keeps reschedule-churn
        // workloads (the SMX processor-sharing model cancels roughly as
        // often as it schedules) from dragging an unbounded tail of
        // dead entries through every sift.
        if self.live_cancelled * 3 > self.stored {
            self.purge_tombstones();
        }
        // Sample the stored tombstone fraction *after* the purge
        // decision: what remains is what the queue actually carries,
        // and the trigger above caps it at ⅓ — the invariant
        // `QueueStats::tombstone_ratio` reports.
        if self.stored > 0 {
            let ratio = self.live_cancelled as f64 / self.stored as f64;
            if ratio > self.peak_tombstone_ratio {
                self.peak_tombstone_ratio = ratio;
            }
        }
        true
    }

    /// Drop every tombstone from its run, drop runs left empty, and
    /// re-heapify in place.
    ///
    /// Does not disturb pop order: keys are unique and totally ordered,
    /// so any valid heap over the surviving runs delivers them in the
    /// same `(time, seq)` sequence, and a run that lost members keeps
    /// every seq between its first and last member to itself (the
    /// property-based test `event_queue_matches_reference_model`
    /// exercises this). The `cancelled` bits stay set (purged
    /// tombstones are indistinguishable from ones dropped at pop time),
    /// keeping double-cancels reported no-ops.
    fn purge_tombstones(&mut self) {
        let Self {
            heap,
            open,
            tails,
            cancelled,
            ..
        } = self;
        heap.retain_mut(|run| tails.purge(run, cancelled));
        if open
            .as_mut()
            .is_some_and(|run| !tails.purge(run, cancelled))
        {
            *open = None;
        }
        self.stored -= self.live_cancelled;
        self.live_cancelled = 0;
        let len = self.heap.len();
        if len > 1 {
            for i in (0..=(len - 2) / D).rev() {
                sift_down(&mut self.heap, i);
            }
        }
    }

    /// Which run holds the next event in `(time, seq)` order.
    #[inline]
    fn front(&self) -> Option<Front> {
        match (&self.open, self.heap.first()) {
            (Some(open), Some(root)) if root.key() < open.key() => Some(Front::Heap),
            (Some(_), _) => Some(Front::Open),
            (None, Some(_)) => Some(Front::Heap),
            (None, None) => None,
        }
    }

    /// Remove the head of the run at `front`: `(time, seq, msg)`.
    #[inline]
    fn take_head(&mut self, front: Front) -> (u64, u64, M) {
        self.stored -= 1;
        let run = match front {
            Front::Open => self.open.as_mut(),
            Front::Heap => self.heap.first_mut(),
        }
        .expect("front names a stored run");
        let at = run.at;
        if let Some((seq, msg)) = self.tails.advance(run) {
            return (at, seq, msg);
        }
        let run = match front {
            Front::Open => self.open.take(),
            Front::Heap => self.heap_pop(),
        }
        .expect("front names a stored run");
        (at, run.seq(), run.msg)
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, M)> {
        while let Some(front) = self.front() {
            let (at, seq, msg) = self.take_head(front);
            if self.cancelled.get(seq) {
                // Dropped tombstone; the `cancelled` bit stays set so a
                // late cancel of this id remains a no-op.
                self.live_cancelled -= 1;
                continue;
            }
            let at = SimTime::from_ns(at);
            debug_assert!(at >= self.now, "event heap returned a past event");
            self.retired.set(seq);
            self.now = at;
            self.popped += 1;
            return Some((at, msg));
        }
        None
    }

    /// Timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drain cancelled tombstones from the front so peek is accurate.
        while let Some(front) = self.front() {
            let head = match front {
                Front::Open => self.open.as_ref(),
                Front::Heap => self.heap.first(),
            }
            .expect("front names a stored run");
            if !self.cancelled.get(head.seq()) {
                return Some(SimTime::from_ns(head.at));
            }
            self.take_head(front);
            self.live_cancelled -= 1;
        }
        None
    }

    /// The instant the earliest stored event is due, tombstones
    /// included: a lower bound on the next live event's time. Unlike
    /// [`EventQueue::peek_time`] it drops no tombstone, so asking never
    /// moves a later purge decision or the tombstone-ratio peak.
    #[inline]
    pub fn next_due(&self) -> Option<SimTime> {
        let open = self.open.as_ref().map(|run| run.at);
        let heap = self.heap.first().map(|run| run.at);
        open.into_iter().chain(heap).min().map(SimTime::from_ns)
    }

    /// Raise the pending high-water mark to at least `peak`: for a
    /// caller that books in one event a stretch of simulation it has
    /// seen hold `peak` events pending at once.
    #[inline]
    pub fn raise_peak_pending(&mut self, peak: usize) {
        self.peak_pending = self.peak_pending.max(peak);
    }

    // ------------------------------------------------------------------
    // 4-ary min-heap plumbing
    // ------------------------------------------------------------------

    #[inline]
    fn heap_push(&mut self, run: Run<M>) {
        self.heap.push(run);
        let last = self.heap.len() - 1;
        sift_up(&mut self.heap, last);
    }

    #[inline]
    fn heap_pop(&mut self) -> Option<Run<M>> {
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

    /// Schedule `n` events back to back at `at` (one run), payloads
    /// `base..base + n`.
    fn run_of(q: &mut EventQueue<u64>, at: u64, base: u64, n: u64) -> Vec<EventId> {
        (base..base + n)
            .map(|m| q.schedule_at(SimTime::from_ns(at), m))
            .collect()
    }

    fn drain(q: &mut EventQueue<u64>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|(t, m)| (t.as_ns(), m))
            .collect()
    }

    #[test]
    fn back_to_back_schedules_share_one_node() {
        let mut q = EventQueue::new();
        run_of(&mut q, 10, 0, 5);
        // A schedule for another instant closes the run into the heap.
        q.schedule_at(SimTime::from_ns(5), 99);
        assert_eq!(q.heap.len(), 1, "five same-instant events are one node");
        assert_eq!(q.pending(), 6);
        assert_eq!(
            drain(&mut q),
            vec![(5, 99), (10, 0), (10, 1), (10, 2), (10, 3), (10, 4)]
        );
        assert_eq!(
            q.tails.free.len(),
            q.tails.bufs.len(),
            "tail buffers recycled"
        );
    }

    #[test]
    fn cancelling_a_runs_head_middle_and_tail() {
        for victim in [0usize, 2, 4] {
            let mut q = EventQueue::new();
            let ids = run_of(&mut q, 10, 0, 5);
            q.schedule_at(SimTime::from_ns(20), 5); // closes the run
            assert!(q.cancel(ids[victim]));
            assert_eq!(q.pending(), 5);
            let want: Vec<(u64, u64)> = (0..5u64)
                .filter(|&m| m != victim as u64)
                .map(|m| (10, m))
                .chain([(20, 5)])
                .collect();
            assert_eq!(drain(&mut q), want, "victim {victim}");
            assert!(!q.cancel(ids[victim]), "tombstone already dropped");
            assert_eq!(q.stats().popped, 5);
        }
    }

    #[test]
    fn purge_leaves_a_partial_run() {
        let mut q = EventQueue::new();
        let ids = run_of(&mut q, 10, 0, 6);
        run_of(&mut q, 20, 6, 3);
        // Three cancels of nine stored events reach ⅓ without a purge;
        // the fourth crosses it and purges the dead members out of the
        // first run's middle and head, leaving a partial run.
        for &i in &[0usize, 2, 3] {
            assert!(q.cancel(ids[i]));
        }
        assert_eq!((q.stored, q.live_cancelled), (9, 3));
        assert!(q.cancel(ids[5]));
        assert_eq!((q.stored, q.live_cancelled), (5, 0), "purged");
        assert_eq!(q.heap.len(), 1, "the partial run stayed one node");
        assert_eq!(q.stats().tombstone_ratio(), 1.0 / 3.0);
        // The partial run keeps appending: the open run was purged, not
        // closed.
        q.schedule_at(SimTime::from_ns(20), 9);
        assert_eq!(
            drain(&mut q),
            vec![(10, 1), (10, 4), (20, 6), (20, 7), (20, 8), (20, 9)]
        );
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn purge_drops_a_fully_cancelled_open_run() {
        let mut q = EventQueue::new();
        run_of(&mut q, 10, 0, 2);
        let ids = run_of(&mut q, 20, 2, 2);
        q.cancel(ids[0]);
        assert!(q.cancel(ids[1]), "second cancel crosses ⅓ and purges");
        assert!(q.open.is_none());
        assert_eq!(drain(&mut q), vec![(10, 0), (10, 1)]);
    }

    #[test]
    fn peek_skips_a_cancelled_run_head() {
        let mut q = EventQueue::new();
        let ids = run_of(&mut q, 10, 0, 3);
        q.schedule_at(SimTime::from_ns(30), 3); // closes the run
        run_of(&mut q, 40, 4, 6); // keeps the tombstone below ⅓
        assert!(q.cancel(ids[0]));
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(10)));
        assert_eq!(q.pending(), 9);
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), 1)));
        assert!(q.cancel(ids[2]));
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(30)), "whole run dead");
        assert_eq!(q.pop(), Some((SimTime::from_ns(30), 3)));
    }

    #[test]
    fn schedule_at_the_instant_of_a_just_emptied_run() {
        let mut q = EventQueue::new();
        run_of(&mut q, 10, 0, 2);
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), 0)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), 1)));
        assert!(q.open.is_none(), "a fully popped run is gone");
        // A new run at the same instant, behind a later event that was
        // scheduled first.
        q.schedule_at(SimTime::from_ns(15), 2);
        run_of(&mut q, 10, 3, 2);
        assert_eq!(drain(&mut q), vec![(10, 3), (10, 4), (15, 2)]);
        // Same instant straight after the run emptied, nothing between.
        run_of(&mut q, 20, 5, 1);
        assert_eq!(q.pop(), Some((SimTime::from_ns(20), 5)));
        run_of(&mut q, 20, 6, 2);
        assert_eq!(drain(&mut q), vec![(20, 6), (20, 7)]);
        assert_eq!(q.stats().popped, 8);
    }

    /// Appends keep joining the open run while its head is delivered:
    /// the wave pattern of the GPU model (pop one, schedule its
    /// successor one wave later).
    #[test]
    fn waves_refill_one_run_per_instant() {
        let mut q = EventQueue::new();
        run_of(&mut q, 100, 0, 13);
        let mut got = Vec::new();
        while let Some((t, m)) = q.pop() {
            got.push((t.as_ns(), m));
            if m < 13 * 9 {
                q.schedule_at(t + Dur::from_ns(100), m + 13);
                assert!(q.heap.len() <= 1, "at most the closing wave is in the heap");
            }
        }
        let want: Vec<(u64, u64)> = (0..13 * 10u64).map(|m| (100 * (m / 13 + 1), m)).collect();
        assert_eq!(got, want);
    }

    /// `next_due` counts tombstones (a lower bound that drops nothing)
    /// until a peek drops them, and `raise_peak_pending` only ever
    /// raises the high-water mark.
    #[test]
    fn next_due_is_a_lower_bound_and_the_peak_only_rises() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_due(), None);
        let dead = q.schedule_at(SimTime::from_ns(10), 0);
        q.schedule_at(SimTime::from_ns(20), 1);
        q.schedule_at(SimTime::from_ns(5), 2);
        assert!(q.cancel(dead));
        assert_eq!(q.next_due(), Some(SimTime::from_ns(5)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(5), 2)));
        assert_eq!(q.next_due(), Some(SimTime::from_ns(10)), "a tombstone");
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(20)));
        assert_eq!(q.next_due(), Some(SimTime::from_ns(20)));
        q.raise_peak_pending(1);
        assert_eq!(q.stats().peak_pending, 3);
        q.raise_peak_pending(7);
        assert_eq!(q.stats().peak_pending, 7);
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
