//! Simulation outputs: per-application statistics and device series.

use crate::config::DeviceConfig;
use crate::fault::FaultKind;
use crate::types::{AppId, Dir, StreamId};
use hq_des::record::TimeSeries;
use hq_des::time::{Dur, SimTime};
use hq_des::trace::TraceLog;

/// Aggregated statistics for one transfer direction of one application.
#[derive(Clone, Debug, Default)]
pub struct TransferStats {
    /// Number of memcpy operations.
    pub count: u32,
    /// Total bytes moved.
    pub bytes: u64,
    /// Engine start of the first transfer.
    pub first_start: Option<SimTime>,
    /// Engine completion of the last transfer.
    pub last_end: Option<SimTime>,
    /// Sum of pure engine service time for this app's transfers.
    pub service_time: Dur,
}

impl TransferStats {
    /// The paper's *effective memory transfer latency* `Le` (§III-B,
    /// eq. 2): wall time from the start of the application's first
    /// transfer to the completion of its last, in this direction —
    /// inflated when other applications' transfers interleave.
    pub fn effective_latency(&self) -> Option<Dur> {
        match (self.first_start, self.last_end) {
            (Some(a), Some(b)) => Some(b - a),
            _ => None,
        }
    }

    pub(crate) fn note_service(&mut self, start: SimTime, end: SimTime) {
        self.first_start = Some(self.first_start.map_or(start, |f| f.min(start)));
        self.last_end = Some(self.last_end.map_or(end, |l| l.max(end)));
        self.service_time += end - start;
    }

    fn shift(&mut self, offset: Dur) {
        self.first_start = self.first_start.map(|t| t + offset);
        self.last_end = self.last_end.map(|t| t + offset);
    }
}

/// Terminal status of one application.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AppOutcome {
    /// Every device operation completed normally.
    #[default]
    Completed,
    /// A fault struck (injected or watchdog-detected); the remaining
    /// stream operations completed with a sticky error.
    Failed {
        /// The first fault that poisoned the application's stream.
        reason: FaultKind,
    },
    /// The harness re-ran the application after a failure and the retry
    /// completed. `attempts` counts the re-runs, not the failed first
    /// run: one successful retry is `attempts: 1`, two runs in all.
    Retried {
        /// Re-runs of this application after its first, failed run (≥ 1).
        attempts: u32,
    },
}

impl AppOutcome {
    /// True when the application ended in failure.
    pub fn is_failed(&self) -> bool {
        matches!(self, AppOutcome::Failed { .. })
    }
}

/// Run-wide reliability counters (all zero for fault-free runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Injected DMA copy failures.
    pub copy_faults: u32,
    /// Injected kernel aborts that fired.
    pub kernel_faults: u32,
    /// Grids killed by the watchdog (hangs and starvation kills).
    pub watchdog_kills: u32,
    /// Watchdog checks that observed progress and re-armed.
    pub watchdog_rearms: u32,
    /// Ops completed-with-error through sticky stream poisoning.
    pub ops_errored: u64,
    /// Mutexes force-released because their holder's thread terminated
    /// while still holding them.
    pub forced_mutex_releases: u32,
    /// Threads still resident on SMXs after the event queue drained
    /// (must be zero; checked by [`crate::validate`]).
    pub leaked_residency: u64,
    /// Mutexes still held after the event queue drained (must be zero).
    pub held_mutexes: u32,
}

impl FaultCounters {
    /// Total faults that actually fired during the run.
    pub fn injected(&self) -> u32 {
        self.copy_faults + self.kernel_faults + self.watchdog_kills
    }

    /// Accumulate another run's counters (used when the harness merges
    /// retry or degraded epochs into one outcome).
    pub fn absorb(&mut self, other: &FaultCounters) {
        self.copy_faults += other.copy_faults;
        self.kernel_faults += other.kernel_faults;
        self.watchdog_kills += other.watchdog_kills;
        self.watchdog_rearms += other.watchdog_rearms;
        self.ops_errored += other.ops_errored;
        self.forced_mutex_releases += other.forced_mutex_releases;
        self.leaked_residency += other.leaked_residency;
        self.held_mutexes += other.held_mutexes;
    }
}

/// Per-application results.
#[derive(Clone, Debug)]
pub struct AppStats {
    /// Application id (host thread).
    pub app: AppId,
    /// Application label.
    pub label: String,
    /// Stream the application ran on.
    pub stream: StreamId,
    /// When the host thread started executing.
    pub started: Option<SimTime>,
    /// When the host thread finished its program (after final sync).
    pub finished: Option<SimTime>,
    /// HtoD transfer aggregates.
    pub htod: TransferStats,
    /// DtoH transfer aggregates.
    pub dtoh: TransferStats,
    /// Number of completed kernel launches.
    pub kernels_completed: u32,
    /// First kernel dispatch time.
    pub first_kernel_start: Option<SimTime>,
    /// Last kernel completion time.
    pub last_kernel_end: Option<SimTime>,
    /// Terminal status ([`AppOutcome::Completed`] unless a fault struck;
    /// the harness upgrades recovered apps to [`AppOutcome::Retried`]).
    pub outcome: AppOutcome,
    /// Faults injected into this application's operations.
    pub faults: u32,
}

impl AppStats {
    pub(crate) fn new(app: AppId, label: String, stream: StreamId) -> Self {
        AppStats {
            app,
            label,
            stream,
            started: None,
            finished: None,
            htod: TransferStats::default(),
            dtoh: TransferStats::default(),
            kernels_completed: 0,
            first_kernel_start: None,
            last_kernel_end: None,
            outcome: AppOutcome::Completed,
            faults: 0,
        }
    }

    /// Shift every timestamp by `offset`. The harness uses this to place
    /// a retry epoch's statistics after the primary run on one clock.
    pub fn shift(&mut self, offset: Dur) {
        self.started = self.started.map(|t| t + offset);
        self.finished = self.finished.map(|t| t + offset);
        self.htod.shift(offset);
        self.dtoh.shift(offset);
        self.first_kernel_start = self.first_kernel_start.map(|t| t + offset);
        self.last_kernel_end = self.last_kernel_end.map(|t| t + offset);
    }

    /// Transfer stats for a direction.
    pub fn transfers(&self, dir: Dir) -> &TransferStats {
        match dir {
            Dir::HtoD => &self.htod,
            Dir::DtoH => &self.dtoh,
        }
    }

    pub(crate) fn transfers_mut(&mut self, dir: Dir) -> &mut TransferStats {
        match dir {
            Dir::HtoD => &mut self.htod,
            Dir::DtoH => &mut self.dtoh,
        }
    }

    /// Wall time from thread start to thread finish.
    pub fn turnaround(&self) -> Option<Dur> {
        match (self.started, self.finished) {
            (Some(a), Some(b)) => Some(b - a),
            _ => None,
        }
    }
}

/// Errors a simulation run can report instead of panicking.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// Sum of application device allocations exceeds device memory.
    DeviceMemoryExceeded {
        /// Label of the application whose allocation failed.
        app: String,
        /// Bytes that application requested.
        app_requested: u64,
        /// Bytes requested across all applications.
        requested: u64,
        /// Device capacity.
        capacity: u64,
    },
    /// The event queue drained while host threads were still blocked —
    /// e.g. a program locks a mutex and never unlocks it.
    Deadlock {
        /// Labels and states of the stuck threads.
        stuck: Vec<String>,
    },
    /// The online invariant auditor ([`crate::audit::Auditor`]) observed
    /// a conservation-invariant violation and aborted the run.
    AuditFailure {
        /// Rendered violations (`[time] entity: message`), in order.
        violations: Vec<String>,
        /// The most recent simulator transitions leading up to the
        /// first violation, oldest first.
        context: Vec<String>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::DeviceMemoryExceeded {
                app,
                app_requested,
                requested,
                capacity,
            } => write!(
                f,
                "device memory exceeded: allocation of {app_requested} B for '{app}' failed \
                 (total requested {requested} B of {capacity} B)"
            ),
            SimError::Deadlock { stuck } => {
                write!(f, "simulation deadlocked; stuck threads: {stuck:?}")
            }
            SimError::AuditFailure { violations, context } => {
                write!(
                    f,
                    "invariant audit failed with {} violation(s)",
                    violations.len()
                )?;
                for v in violations {
                    write!(f, "\n  violation: {v}")?;
                }
                if !context.is_empty() {
                    write!(f, "\n  recent transitions:")?;
                    for line in context {
                        write!(f, "\n    {line}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Host-side throughput counters for one run: how fast the simulator
/// itself chewed through its event loop. Every field describes this
/// run's own event queue, so a run's counters do not depend on what
/// else ran before or beside it. Wall-clock fields are
/// *nondeterministic* (they measure the host machine, not the simulated
/// device) and must never feed back into simulated results; every
/// other field is a deterministic function of the run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimPerf {
    /// Discrete events the run handled: those the future-event list
    /// delivered plus the [`SimPerf::skipped`] ones a replay booked.
    pub events: u64,
    /// Wall-clock seconds spent inside the event loop.
    pub wall_secs: f64,
    /// `events / wall_secs` (0 when the wall time is unmeasurably small).
    pub events_per_sec: f64,
    /// Peak number of pending events in the future-event list.
    pub peak_pending: usize,
    /// Events cancelled while still pending (in-heap tombstones).
    pub cancelled: u64,
    /// Cancellations that targeted already-delivered events (no-ops).
    pub stale_cancels: u64,
    /// Peak fraction of the queue's stored events that were tombstones
    /// (bounded at ⅓ by the queue's amortized purge).
    pub tombstone_ratio: f64,
    /// `GroupDone` events the steady-wave refill served: a lone group
    /// re-armed in place with its grid's next blocks instead of the
    /// general retire-and-dispatch path (the trajectory is the same).
    pub refills: u64,
    /// Events of solo-grid episodes booked by a replay: a grid running
    /// alone on an idle device that repeats one already simulated in
    /// the run is booked in one event, and the episode's other events
    /// are never scheduled nor popped. `events` counts them, so it
    /// reads the same with or without the replay.
    pub skipped: u64,
}

/// Complete output of one simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Device configuration the run used.
    pub device: DeviceConfig,
    /// Wall-clock end of the run (last host thread finish).
    pub makespan: SimTime,
    /// Per-application statistics, in application-id order.
    pub apps: Vec<AppStats>,
    /// Timeline spans (empty if tracing was disabled).
    pub trace: TraceLog,
    /// Device-wide resident thread count over time (drives the power
    /// model's occupancy term).
    pub resident_threads: TimeSeries,
    /// Number of non-idle SMX units over time.
    pub active_smx: TimeSeries,
    /// DMA busy indicator (0/1) per direction over time.
    pub dma_busy: [TimeSeries; 2],
    /// Number of discrete events processed, replayed ones included
    /// (perf diagnostics).
    pub events: u64,
    /// Event-loop throughput counters (host wall clock; nondeterministic).
    pub perf: SimPerf,
    /// Reliability counters (all zero for fault-free runs).
    pub faults: FaultCounters,
}

impl SimResult {
    /// Mean effective memory transfer latency across applications for a
    /// direction (the per-stream/per-application average of eq. 2).
    pub fn mean_effective_latency(&self, dir: Dir) -> Option<Dur> {
        let vals: Vec<Dur> = self
            .apps
            .iter()
            .filter_map(|a| a.transfers(dir).effective_latency())
            .collect();
        if vals.is_empty() {
            return None;
        }
        let total: u64 = vals.iter().map(|d| d.as_ns()).sum();
        Some(Dur::from_ns(total / vals.len() as u64))
    }

    /// Device occupancy (resident threads / capacity) averaged over the
    /// run.
    pub fn mean_occupancy(&self) -> f64 {
        let cap = self.device.max_resident_threads() as f64;
        if cap == 0.0 || self.makespan == SimTime::ZERO {
            return 0.0;
        }
        self.resident_threads
            .mean_over(SimTime::ZERO, self.makespan)
            / cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_latency_requires_both_ends() {
        let mut ts = TransferStats::default();
        assert_eq!(ts.effective_latency(), None);
        ts.note_service(SimTime::from_ns(100), SimTime::from_ns(150));
        ts.note_service(SimTime::from_ns(300), SimTime::from_ns(400));
        assert_eq!(ts.effective_latency(), Some(Dur::from_ns(300)));
        assert_eq!(ts.service_time, Dur::from_ns(150));
    }

    #[test]
    fn note_service_keeps_extremes() {
        let mut ts = TransferStats::default();
        ts.note_service(SimTime::from_ns(200), SimTime::from_ns(250));
        ts.note_service(SimTime::from_ns(50), SimTime::from_ns(80));
        assert_eq!(ts.first_start, Some(SimTime::from_ns(50)));
        assert_eq!(ts.last_end, Some(SimTime::from_ns(250)));
    }

    #[test]
    fn turnaround() {
        let mut a = AppStats::new(AppId(0), "x".into(), StreamId(0));
        assert_eq!(a.turnaround(), None);
        a.started = Some(SimTime::from_ns(10));
        a.finished = Some(SimTime::from_ns(110));
        assert_eq!(a.turnaround(), Some(Dur::from_ns(100)));
    }

    #[test]
    fn sim_error_display() {
        let e = SimError::DeviceMemoryExceeded {
            app: "hog#0".into(),
            app_requested: 7,
            requested: 10,
            capacity: 5,
        };
        let msg = e.to_string();
        assert!(msg.contains("device memory exceeded"));
        assert!(msg.contains("hog#0"), "names the failing app: {msg}");
        assert!(msg.contains('7'), "names the failing request: {msg}");
        let d = SimError::Deadlock {
            stuck: vec!["a".into()],
        };
        assert!(d.to_string().contains("deadlock"));
    }

    #[test]
    fn app_stats_shift_moves_every_timestamp() {
        let mut a = AppStats::new(AppId(0), "x".into(), StreamId(0));
        a.started = Some(SimTime::from_ns(10));
        a.finished = Some(SimTime::from_ns(110));
        a.htod.note_service(SimTime::from_ns(20), SimTime::from_ns(30));
        a.first_kernel_start = Some(SimTime::from_ns(40));
        a.last_kernel_end = Some(SimTime::from_ns(90));
        a.shift(Dur::from_ns(1000));
        assert_eq!(a.started, Some(SimTime::from_ns(1010)));
        assert_eq!(a.finished, Some(SimTime::from_ns(1110)));
        assert_eq!(a.htod.first_start, Some(SimTime::from_ns(1020)));
        assert_eq!(a.htod.last_end, Some(SimTime::from_ns(1030)));
        assert_eq!(a.first_kernel_start, Some(SimTime::from_ns(1040)));
        assert_eq!(a.last_kernel_end, Some(SimTime::from_ns(1090)));
        assert_eq!(a.turnaround(), Some(Dur::from_ns(100)), "durations keep");
        assert_eq!(
            a.htod.service_time,
            Dur::from_ns(10),
            "service time is a duration, not shifted"
        );
    }

    #[test]
    fn fault_counters_absorb_and_injected() {
        let mut a = FaultCounters {
            copy_faults: 1,
            ops_errored: 3,
            ..FaultCounters::default()
        };
        let b = FaultCounters {
            kernel_faults: 2,
            watchdog_kills: 1,
            ops_errored: 4,
            ..FaultCounters::default()
        };
        a.absorb(&b);
        assert_eq!(a.injected(), 4);
        assert_eq!(a.ops_errored, 7);
        assert!(AppOutcome::Failed {
            reason: FaultKind::CopyFail
        }
        .is_failed());
        assert!(!AppOutcome::Retried { attempts: 2 }.is_failed());
        assert_eq!(AppOutcome::default(), AppOutcome::Completed);
    }
}
