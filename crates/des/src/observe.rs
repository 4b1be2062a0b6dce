//! Transition observation plumbing.
//!
//! A [`TransitionRing`] is a fixed-capacity ring buffer of timestamped,
//! human-readable transition notes. Simulators push one note per
//! interesting state change; when an invariant checker detects a
//! violation, the ring holds the last N transitions leading up to it —
//! the context that turns "residency exceeded at t=1.42ms" into a
//! debuggable report. Unlike [`crate::trace::TraceLog`] (which records
//! *spans* for timeline rendering), the ring records *instants*, never
//! grows beyond its capacity, and is cheap enough to leave on whenever
//! the observer that feeds it is enabled.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Fixed-capacity ring of recent `(time, note)` transitions.
#[derive(Clone, Debug)]
pub struct TransitionRing {
    cap: usize,
    buf: VecDeque<(SimTime, String)>,
}

impl TransitionRing {
    /// A ring holding at most `cap` notes (`cap == 0` records nothing).
    pub fn new(cap: usize) -> Self {
        TransitionRing {
            cap,
            buf: VecDeque::with_capacity(cap),
        }
    }

    /// Record a transition, evicting the oldest note when full.
    pub fn push(&mut self, at: SimTime, note: String) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back((at, note));
    }

    /// Notes currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(SimTime, String)> {
        self.buf.iter()
    }

    /// Number of retained notes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Render the retained notes as `"[time] note"` lines, oldest first.
    pub fn render(&self) -> Vec<String> {
        self.buf
            .iter()
            .map(|(t, n)| format!("[{t}] {n}"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn keeps_only_last_cap_notes() {
        let mut r = TransitionRing::new(3);
        for i in 0..10u64 {
            r.push(t(i), format!("n{i}"));
        }
        assert_eq!(r.len(), 3);
        let notes: Vec<&str> = r.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(notes, vec!["n7", "n8", "n9"]);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut r = TransitionRing::new(0);
        r.push(t(1), "x".into());
        assert!(r.is_empty());
        assert!(r.render().is_empty());
    }

    #[test]
    fn render_includes_time_and_note() {
        let mut r = TransitionRing::new(4);
        r.push(t(1500), "grid0 dispatched".into());
        let lines = r.render();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("grid0 dispatched"), "{lines:?}");
        assert!(lines[0].starts_with('['), "{lines:?}");
    }
}
