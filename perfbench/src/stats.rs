//! Sample statistics and accounting rules shared by every workload:
//! the percentile rule, failure accounting, open-loop due times and
//! ratios over server counter deltas.

use hq_bench::service::{Reject, StatusReport};
use std::time::Duration;

/// A percentile is reported only when at least this many samples lie
/// beyond it; a p99 therefore needs 1000 samples.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-quantile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly above the nearest-rank `p`-quantile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Nearest-rank `p`-quantile of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if beyond(sorted.len(), p) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Median of unsorted values (mean of the middle two for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sort ascending in place and return the slice.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Split `(time, value)` samples into `n` equal spans of `[0, end)` by
/// time; samples at or past `end` land in the last span.
pub fn windows(samples: &[(f64, f64)], end: f64, n: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); n];
    for &(t, v) in samples {
        let k = ((t / end * n as f64) as usize).min(n - 1);
        out[k].push(v);
    }
    out
}

/// Outcome counts of one run. Every logical operation is attempted
/// once; retries of a refused submit are counted apart and are not new
/// attempts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// Logical operations started.
    pub attempted: u64,
    /// Operations that completed `ok` (before the correctness check).
    pub ok: u64,
    /// Completed operations whose output differed from the reference.
    pub diverged: u64,
    /// Refused by admission control (`shed:*`).
    pub shed: u64,
    /// Refused with `queue-full`.
    pub queue_full: u64,
    /// Refused with `circuit-open`.
    pub circuit_open: u64,
    /// Refused with `unavailable` or `shutting-down`.
    pub unavailable: u64,
    /// Accepted, then answered `deadline`.
    pub deadline: u64,
    /// Accepted or sent, then never answered (transport failure).
    pub lost: u64,
    /// Any other failed answer (`bad-request`, panic, simulator error).
    pub other: u64,
    /// Resubmits after a transient refusal.
    pub retries: u64,
}

impl Tally {
    /// Attempts that did not end in a correct result.
    pub fn failed(&self) -> u64 {
        self.attempted
            .saturating_sub(self.ok.saturating_sub(self.diverged))
    }

    /// `failed / attempted`, 0 when nothing was attempted.
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed(), self.attempted)
    }

    /// Count one refusal under its kind.
    pub fn refuse(&mut self, reject: &Reject) {
        match reject {
            Reject::Shed { .. } => self.shed += 1,
            Reject::QueueFull { .. } => self.queue_full += 1,
            Reject::CircuitOpen { .. } => self.circuit_open += 1,
            Reject::Unavailable(_) | Reject::ShuttingDown => self.unavailable += 1,
            Reject::BadRequest(_) => self.other += 1,
        }
    }

    /// Add another tally's counts to this one.
    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.diverged += o.diverged;
        self.shed += o.shed;
        self.queue_full += o.queue_full;
        self.circuit_open += o.circuit_open;
        self.unavailable += o.unavailable;
        self.deadline += o.deadline;
        self.lost += o.lost;
        self.other += o.other;
        self.retries += o.retries;
    }

    /// One-line breakdown for the run log.
    pub fn describe(&self) -> String {
        format!(
            "attempted {} ok {} diverged {} shed {} queue-full {} circuit-open {} \
             unavailable {} deadline {} lost {} other {} (retries {})",
            self.attempted,
            self.ok,
            self.diverged,
            self.shed,
            self.queue_full,
            self.circuit_open,
            self.unavailable,
            self.deadline,
            self.lost,
            self.other,
            self.retries
        )
    }
}

/// Fixed-rate arrival schedule of an open loop. Due times are integer
/// multiples of the interval from the start, so they never drift.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    interval_ns: u64,
}

impl Schedule {
    /// Schedule sending `rate_per_s` operations per second.
    pub fn new(rate_per_s: f64) -> Schedule {
        assert!(rate_per_s > 0.0, "arrival rate must be positive");
        Schedule {
            interval_ns: ((1e9 / rate_per_s).round() as u64).max(1),
        }
    }

    /// Offset of operation `i` from the start of the loop.
    pub fn due(&self, i: u64) -> Duration {
        Duration::from_nanos(i * self.interval_ns)
    }

    /// Operations due strictly before `window` has elapsed.
    pub fn jobs_within(&self, window: Duration) -> u64 {
        let w = window.as_nanos() as u64;
        w.div_ceil(self.interval_ns)
    }
}

/// How late an operation was sent: `sent - due`, 0 if early.
pub fn lag(due: Duration, sent: Duration) -> Duration {
    sent.saturating_sub(due)
}

/// Open-loop latency of one operation: from when it was due, not from
/// when it was sent, so a generator stall is charged to every operation
/// it delayed.
pub fn latency_from_due(due: Duration, done: Duration) -> Duration {
    done.saturating_sub(due)
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Server counters accumulated between two `Status` snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StatusDelta {
    pub accepts: u64,
    pub fsyncs: u64,
    pub dispatches: u64,
    pub dispatched_jobs: u64,
    pub window_flushes: u64,
    pub solo_flushes: u64,
    pub shed: u64,
    pub rejected: u64,
    pub completed: u64,
}

impl StatusDelta {
    /// Counters from `before` to `after`. A counter that went backwards
    /// (the server restarted between the snapshots) reads 0.
    pub fn between(before: &StatusReport, after: &StatusReport) -> StatusDelta {
        StatusDelta {
            accepts: after.accepts.saturating_sub(before.accepts),
            fsyncs: after.fsyncs.saturating_sub(before.fsyncs),
            dispatches: after.dispatches.saturating_sub(before.dispatches),
            dispatched_jobs: after.dispatched_jobs.saturating_sub(before.dispatched_jobs),
            window_flushes: after.window_flushes.saturating_sub(before.window_flushes),
            solo_flushes: after.solo_flushes.saturating_sub(before.solo_flushes),
            shed: after.shed.saturating_sub(before.shed),
            rejected: after.rejected.saturating_sub(before.rejected),
            completed: after.completed.saturating_sub(before.completed),
        }
    }

    /// Journal fsyncs per accepted job.
    pub fn fsyncs_per_accept(&self) -> f64 {
        ratio(self.fsyncs, self.accepts)
    }

    /// Mean jobs per worker dispatch.
    pub fn batch_occupancy(&self) -> f64 {
        ratio(self.dispatched_jobs, self.dispatches)
    }

    /// Share of accept-side commits that covered two or more records.
    pub fn window_flush_share(&self) -> f64 {
        ratio(self.window_flushes, self.window_flushes + self.solo_flushes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ascending(999), 0.99), None);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(percentile(&ascending(1000), 0.99), Some(990.0));
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&ascending(19), 0.5), None);
        assert_eq!(percentile(&ascending(20), 0.5), Some(10.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windows_split_by_time() {
        let s = [(0.0, 1.0), (0.99, 2.0), (1.0, 3.0), (2.5, 4.0), (3.0, 5.0)];
        let w = windows(&s, 3.0, 3);
        assert_eq!(w, vec![vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0]]);
    }

    #[test]
    fn error_rate_counts_refusals_losses_and_divergence_but_not_retries() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0, "nothing attempted reads 0, not NaN");
        t.attempted = 10;
        t.ok = 7;
        t.refuse(&Reject::QueueFull { depth: 16 });
        t.refuse(&Reject::Shed {
            reason: "tenant-rate".into(),
            retry_after_ms: 5,
        });
        t.lost = 1;
        t.retries = 40;
        assert_eq!(t.failed(), 3);
        assert!((t.error_rate() - 0.3).abs() < 1e-12);
        // A completed job whose artifact differs is a failure too.
        t.diverged = 2;
        assert_eq!(t.failed(), 5);
        assert!((t.error_rate() - 0.5).abs() < 1e-12);
        assert_eq!((t.shed, t.queue_full), (1, 1));
    }

    #[test]
    fn refusal_kinds_are_classified() {
        let mut t = Tally::default();
        t.refuse(&Reject::CircuitOpen {
            class: "c".into(),
            retry_ms: 1,
        });
        t.refuse(&Reject::ShuttingDown);
        t.refuse(&Reject::Unavailable("down".into()));
        t.refuse(&Reject::BadRequest("junk".into()));
        assert_eq!((t.circuit_open, t.unavailable, t.other), (1, 2, 1));
    }

    #[test]
    fn due_times_are_exact_multiples_and_do_not_drift() {
        let s = Schedule::new(3.0);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(3), Duration::from_nanos(999_999_999));
        assert_eq!(s.due(3_000_000), Duration::from_nanos(999_999_999_000_000));
        let s = Schedule::new(200.0);
        assert_eq!(s.due(200), Duration::from_secs(1));
        assert_eq!(s.jobs_within(Duration::from_secs(10)), 2000);
        assert_eq!(s.jobs_within(Duration::from_nanos(5_000_001)), 2);
        assert_eq!(s.jobs_within(Duration::ZERO), 0);
    }

    #[test]
    fn latency_is_charged_from_the_due_time() {
        let s = Schedule::new(100.0); // due every 10 ms
                                      // The generator stalls 50 ms before sending job 2, which then
                                      // completes 1 ms after it was sent.
        let due = s.due(2);
        let sent = Duration::from_millis(70);
        let done = Duration::from_millis(71);
        assert_eq!(lag(due, sent), Duration::from_millis(50));
        assert_eq!(latency_from_due(due, done), Duration::from_millis(51));
        // Sent early (never happens, but must not underflow).
        assert_eq!(lag(due, Duration::from_millis(1)), Duration::ZERO);
    }

    #[test]
    fn status_ratios_with_zero_denominators_read_zero() {
        let zero = StatusReport::default();
        let d = StatusDelta::between(&zero, &zero);
        assert_eq!(d.fsyncs_per_accept(), 0.0);
        assert_eq!(d.batch_occupancy(), 0.0);
        assert_eq!(d.window_flush_share(), 0.0);
        let after = StatusReport {
            accepts: 8,
            fsyncs: 4,
            dispatches: 4,
            dispatched_jobs: 6,
            window_flushes: 3,
            solo_flushes: 1,
            ..StatusReport::default()
        };
        let d = StatusDelta::between(&zero, &after);
        assert_eq!(d.fsyncs_per_accept(), 0.5);
        assert_eq!(d.batch_occupancy(), 1.5);
        assert_eq!(d.window_flush_share(), 0.75);
        // A restarted server's counters go backwards: read 0, never wrap.
        let d = StatusDelta::between(&after, &zero);
        assert_eq!((d.accepts, d.fsyncs), (0, 0));
        assert_eq!(d.fsyncs_per_accept(), 0.0);
    }
}
