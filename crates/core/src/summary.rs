//! Run summaries: the JSON document `hyperq run --json` writes.
//!
//! [`RunSummary`] holds everything a plotting script or regression
//! checker needs from one run (makespan, energy, power, per-app
//! effective transfer latency Le), without the full trace payload.

use crate::harness::RunOutcome;
use hq_des::json::Json;
use hq_gpu::prelude::{AppOutcome, FaultCounters};
use hq_gpu::types::Dir;

/// Per-application summary row.
#[derive(Clone, Debug, PartialEq)]
pub struct AppSummary {
    /// Application label (`gaussian#3`).
    pub label: String,
    /// Wall time from thread start to join, in nanoseconds.
    pub turnaround_ns: u64,
    /// Effective HtoD transfer latency (eq. 2), if the app transferred.
    pub le_htod_ns: Option<u64>,
    /// Effective DtoH transfer latency.
    pub le_dtoh_ns: Option<u64>,
    /// Completed kernel launches.
    pub kernels: u32,
    /// Bytes moved host-to-device.
    pub htod_bytes: u64,
    /// Bytes moved device-to-host.
    pub dtoh_bytes: u64,
    /// How the application ended (completed, failed, or retried).
    pub outcome: AppOutcome,
    /// Injected faults that hit this application.
    pub faults: u32,
}

/// Whole-run summary (the JSON artifact schema).
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// Launch order used.
    pub schedule: Vec<String>,
    /// Workload makespan in nanoseconds.
    pub makespan_ns: u64,
    /// Total GPU energy in Joules.
    pub energy_j: f64,
    /// Time-weighted average power in Watts.
    pub avg_power_w: f64,
    /// Peak power in Watts.
    pub peak_power_w: f64,
    /// Mean device occupancy over the run, in `[0, 1]`.
    pub mean_occupancy: f64,
    /// Fault and recovery counters for the whole run.
    pub faults: FaultCounters,
    /// Retry attempts spent recovering failed applications.
    pub retries: u32,
    /// True when the Degrade policy re-ran the workload serialized.
    pub degraded: bool,
    /// Discrete events the simulation delivered. Deterministic per
    /// seed, unlike the wall-clock throughput counters in
    /// `SimResult::perf` (which are deliberately excluded from this
    /// schema — artifacts must be byte-identical across runs).
    pub events: u64,
    /// Per-application rows, in application order.
    pub apps: Vec<AppSummary>,
}

impl From<&RunOutcome> for RunSummary {
    fn from(out: &RunOutcome) -> Self {
        RunSummary {
            schedule: out.schedule.clone(),
            makespan_ns: out.makespan().as_ns(),
            energy_j: out.energy_j(),
            avg_power_w: out.avg_power_w(),
            peak_power_w: out.power.peak_w,
            mean_occupancy: out.result.mean_occupancy(),
            faults: out.result.faults,
            retries: out.retries,
            degraded: out.degraded,
            events: out.result.events,
            apps: out
                .result
                .apps
                .iter()
                .map(|a| AppSummary {
                    label: a.label.clone(),
                    turnaround_ns: a.turnaround().map(|d| d.as_ns()).unwrap_or(0),
                    le_htod_ns: a
                        .transfers(Dir::HtoD)
                        .effective_latency()
                        .map(|d| d.as_ns()),
                    le_dtoh_ns: a
                        .transfers(Dir::DtoH)
                        .effective_latency()
                        .map(|d| d.as_ns()),
                    kernels: a.kernels_completed,
                    htod_bytes: a.htod.bytes,
                    dtoh_bytes: a.dtoh.bytes,
                    outcome: a.outcome,
                    faults: a.faults,
                })
                .collect(),
        }
    }
}

impl RunSummary {
    /// The summary as a pretty JSON document, one key per field.
    /// Floats are written shortest round-trip, so they parse back
    /// bit-equal; an absent Le is `null`; an app's outcome is
    /// `{"kind": "completed" | "failed" | "retried"}` plus `"reason"`
    /// (the fault kind) or `"attempts"` (re-runs after the failed
    /// first run).
    pub fn to_json(&self) -> String {
        let f = &self.faults;
        let faults = Json::obj([
            ("copy_faults", f.copy_faults.into()),
            ("kernel_faults", f.kernel_faults.into()),
            ("watchdog_kills", f.watchdog_kills.into()),
            ("watchdog_rearms", f.watchdog_rearms.into()),
            ("ops_errored", f.ops_errored.into()),
            ("forced_mutex_releases", f.forced_mutex_releases.into()),
            ("leaked_residency", f.leaked_residency.into()),
            ("held_mutexes", f.held_mutexes.into()),
        ]);
        let apps = self.apps.iter().map(|a| {
            let outcome = match a.outcome {
                AppOutcome::Completed => Json::obj([("kind", "completed".into())]),
                AppOutcome::Failed { reason } => Json::obj([
                    ("kind", "failed".into()),
                    ("reason", reason.to_string().into()),
                ]),
                AppOutcome::Retried { attempts } => {
                    Json::obj([("kind", "retried".into()), ("attempts", attempts.into())])
                }
            };
            Json::obj([
                ("label", a.label.as_str().into()),
                ("turnaround_ns", a.turnaround_ns.into()),
                ("le_htod_ns", a.le_htod_ns.into()),
                ("le_dtoh_ns", a.le_dtoh_ns.into()),
                ("kernels", a.kernels.into()),
                ("htod_bytes", a.htod_bytes.into()),
                ("dtoh_bytes", a.dtoh_bytes.into()),
                ("outcome", outcome),
                ("faults", a.faults.into()),
            ])
        });
        Json::obj([
            (
                "schedule",
                Json::Arr(self.schedule.iter().map(|s| s.as_str().into()).collect()),
            ),
            ("makespan_ns", self.makespan_ns.into()),
            ("energy_j", self.energy_j.into()),
            ("avg_power_w", self.avg_power_w.into()),
            ("peak_power_w", self.peak_power_w.into()),
            ("mean_occupancy", self.mean_occupancy.into()),
            ("faults", faults),
            ("retries", self.retries.into()),
            ("degraded", self.degraded.into()),
            ("events", self.events.into()),
            ("apps", Json::Arr(apps.collect())),
        ])
        .pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{pair_workload, run_workload, RunConfig};
    use hq_des::json::parse_json;
    use hq_workloads::apps::AppKind;

    #[test]
    fn summary_writes_outcomes_and_missing_le() {
        let kinds = pair_workload(AppKind::Knearest, AppKind::Needle, 2);
        let out = run_workload(&RunConfig::concurrent(2), &kinds).unwrap();
        let mut summary = RunSummary::from(&out);
        assert!(summary.makespan_ns > 0 && summary.energy_j > 0.0 && summary.events > 0);
        summary.apps[0].le_dtoh_ns = None;
        summary.apps[0].outcome = AppOutcome::Failed {
            reason: hq_gpu::fault::FaultKind::KernelHang,
        };
        summary.apps[1].outcome = AppOutcome::Retried { attempts: 2 };
        let doc = parse_json(&summary.to_json()).unwrap();
        let apps = doc.arr("apps").unwrap();
        assert_eq!(apps[0].get("le_dtoh_ns"), Some(&Json::Null));
        let outcome = |i: usize| apps[i].get("outcome").unwrap().clone();
        assert_eq!(outcome(0).str_field("kind"), Ok("failed"));
        assert_eq!(outcome(0).str_field("reason"), Ok("kernel-hang"));
        assert_eq!(outcome(1).num("attempts"), Ok(2));
        assert_eq!(doc.get("faults").unwrap().num("watchdog_kills"), Ok(0));
    }

    #[test]
    fn per_app_fields_populated() {
        let kinds = pair_workload(AppKind::Knearest, AppKind::Needle, 2);
        let out = run_workload(&RunConfig::concurrent(2), &kinds).unwrap();
        let summary = RunSummary::from(&out);
        for app in &summary.apps {
            assert!(app.turnaround_ns > 0, "{}", app.label);
            assert!(app.kernels > 0);
            assert!(app.le_htod_ns.is_some());
            assert!(app.htod_bytes > 0);
        }
    }
}
