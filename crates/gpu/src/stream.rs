//! CUDA streams.
//!
//! A stream is a FIFO work queue: operation *N+1* may not begin until
//! operation *N* has completed. Cross-stream operations are independent
//! (subject to engine and SMX availability). `cudaStreamSynchronize`
//! blocks the calling host thread until everything enqueued on the
//! stream so far has completed; because in-stream execution is strictly
//! ordered, a completion *count* threshold implements this exactly.

use crate::fault::FaultKind;
use crate::types::{AppId, OpId};
use std::collections::VecDeque;

/// One CUDA stream's device-side state.
#[derive(Debug, Default)]
pub struct Stream {
    /// Ops enqueued and not yet completed, in order. The front op is
    /// the only one eligible to execute ("active").
    queue: VecDeque<OpId>,
    /// Total ops ever enqueued.
    enqueued: u64,
    /// Total ops completed.
    completed: u64,
    /// Host threads blocked in `cudaStreamSynchronize`, with the
    /// completion count each is waiting for.
    waiters: Vec<(AppId, u64)>,
    /// Sticky error, CUDA-style: once an op on this stream faults, every
    /// subsequent op completes immediately with the error instead of
    /// executing. The first fault wins.
    error: Option<FaultKind>,
}

impl Stream {
    /// New empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue an op. Returns `true` if the op landed at the front of
    /// the queue (and should be activated immediately).
    pub fn enqueue(&mut self, op: OpId) -> bool {
        self.queue.push_back(op);
        self.enqueued += 1;
        self.queue.len() == 1
    }

    /// Complete the front op (which must be `op`). Returns the next op
    /// to activate, if any.
    pub fn complete_front(&mut self, op: OpId) -> Option<OpId> {
        let front = self.queue.pop_front().expect("completing on empty stream");
        assert_eq!(front, op, "stream completed out of order");
        self.completed += 1;
        self.queue.front().copied()
    }

    /// The op currently eligible to execute.
    pub fn front(&self) -> Option<OpId> {
        self.queue.front().copied()
    }

    /// Number of enqueued-but-incomplete ops.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Total ops completed.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// True if all enqueued work has completed.
    pub fn is_drained(&self) -> bool {
        self.queue.is_empty()
    }

    /// Register a host thread waiting for the current enqueue count to
    /// complete. Returns `false` (no blocking needed) if the stream has
    /// already drained that far.
    pub fn add_sync_waiter(&mut self, app: AppId) -> bool {
        if self.completed >= self.enqueued {
            return false;
        }
        self.waiters.push((app, self.enqueued));
        true
    }

    /// Collect the waiters whose thresholds are now satisfied.
    pub fn take_satisfied_waiters(&mut self) -> Vec<AppId> {
        let completed = self.completed;
        let mut woken = Vec::new();
        self.waiters.retain(|&(app, threshold)| {
            if completed >= threshold {
                woken.push(app);
                false
            } else {
                true
            }
        });
        woken
    }

    /// Number of blocked sync waiters (diagnostics).
    pub fn waiter_count(&self) -> usize {
        self.waiters.len()
    }

    /// Mark the stream with a sticky error (the first fault wins).
    pub fn poison(&mut self, kind: FaultKind) {
        if self.error.is_none() {
            self.error = Some(kind);
        }
    }

    /// The sticky error, if any.
    pub fn error(&self) -> Option<FaultKind> {
        self.error
    }

    /// True once a fault has poisoned the stream.
    pub fn is_poisoned(&self) -> bool {
        self.error.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_enqueue_is_front() {
        let mut s = Stream::new();
        assert!(s.enqueue(OpId(0)));
        assert!(!s.enqueue(OpId(1)));
        assert_eq!(s.front(), Some(OpId(0)));
        assert_eq!(s.in_flight(), 2);
    }

    #[test]
    fn completion_activates_next() {
        let mut s = Stream::new();
        s.enqueue(OpId(0));
        s.enqueue(OpId(1));
        assert_eq!(s.complete_front(OpId(0)), Some(OpId(1)));
        assert_eq!(s.complete_front(OpId(1)), None);
        assert!(s.is_drained());
        assert_eq!(s.completed_count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_completion_panics() {
        let mut s = Stream::new();
        s.enqueue(OpId(0));
        s.enqueue(OpId(1));
        s.complete_front(OpId(1));
    }

    #[test]
    fn sync_on_drained_stream_does_not_block() {
        let mut s = Stream::new();
        assert!(!s.add_sync_waiter(AppId(0)));
        s.enqueue(OpId(0));
        s.complete_front(OpId(0));
        assert!(!s.add_sync_waiter(AppId(0)));
    }

    #[test]
    fn sync_waiter_wakes_at_threshold() {
        let mut s = Stream::new();
        s.enqueue(OpId(0));
        s.enqueue(OpId(1));
        assert!(s.add_sync_waiter(AppId(5))); // waits for 2 completions
        s.complete_front(OpId(0));
        assert!(s.take_satisfied_waiters().is_empty());
        s.complete_front(OpId(1));
        assert_eq!(s.take_satisfied_waiters(), vec![AppId(5)]);
        assert_eq!(s.waiter_count(), 0);
    }

    #[test]
    fn sync_ignores_ops_enqueued_after_it() {
        let mut s = Stream::new();
        s.enqueue(OpId(0));
        assert!(s.add_sync_waiter(AppId(1))); // threshold = 1
        s.enqueue(OpId(1)); // enqueued later; sync must not wait on it
        s.complete_front(OpId(0));
        assert_eq!(s.take_satisfied_waiters(), vec![AppId(1)]);
    }

    #[test]
    fn first_poison_is_sticky() {
        let mut s = Stream::new();
        assert!(!s.is_poisoned());
        s.poison(FaultKind::CopyFail);
        s.poison(FaultKind::KernelHang);
        assert_eq!(s.error(), Some(FaultKind::CopyFail), "first fault wins");
        assert!(s.is_poisoned());
    }

    #[test]
    fn multiple_waiters_distinct_thresholds() {
        let mut s = Stream::new();
        s.enqueue(OpId(0));
        s.add_sync_waiter(AppId(1)); // threshold 1
        s.enqueue(OpId(1));
        s.add_sync_waiter(AppId(2)); // threshold 2
        s.complete_front(OpId(0));
        assert_eq!(s.take_satisfied_waiters(), vec![AppId(1)]);
        s.complete_front(OpId(1));
        assert_eq!(s.take_satisfied_waiters(), vec![AppId(2)]);
    }
}
