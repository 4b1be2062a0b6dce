//! The run harness: stream management, thread launch, measurement.
//!
//! Mirrors the paper's test-harness execution flow (§IV): instantiate a
//! class object per application, start the power monitor, launch each
//! application on its own child thread (in schedule order, which is
//! also stream-allocation order), join, and report. Serialized
//! baselines chain thread starts so exactly one application runs at a
//! time on a single stream.

use crate::kernel::{build_program, Kernel, Memsync, RodiniaApp};
use crate::ordering::{schedule, ScheduleOrder};
use hq_des::rng::DetRng;
use hq_des::time::{Dur, SimTime};
use hq_gpu::prelude::*;
use hq_power::{PowerModel, PowerMonitor, PowerReport};
use hq_workloads::apps::AppKind;

/// Memory-synchronization technique selection (mutex ids are created
/// internally by the harness).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemsyncMode {
    /// Default CUDA behaviour.
    Off,
    /// Mutex released right after the enqueues.
    Enqueue,
    /// Mutex held until the stage's transfers complete (the paper's
    /// mechanism).
    Synced,
}

/// What the harness does about applications that fail from injected
/// faults (see [`FaultPlan`]).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum RecoveryPolicy {
    /// Report failures as-is; the workload's other applications still
    /// run to completion.
    #[default]
    FailFast,
    /// Re-run each failed application alone on a fresh stream after a
    /// simulated exponential backoff; its scripted faults are treated as
    /// transient (consumed by the first attempt) while probabilistic
    /// rates keep applying with a re-derived seed.
    Retry {
        /// Maximum re-runs per failed application.
        max_attempts: u32,
        /// Backoff before attempt `n` is `backoff * 2^(n-1)`.
        backoff: Dur,
    },
    /// Re-run the whole workload in degraded mode — serialized on a
    /// single stream through a single hardware work queue (Fermi-style)
    /// — trading all concurrency for isolation.
    Degrade,
}

/// Watchdog armed automatically whenever a non-empty fault plan is
/// installed and the host config leaves the timeout unset: long enough
/// that no Rodinia-scale kernel trips it, short enough that a hung grid
/// is reclaimed within one power-sampling period-scale delay.
pub const DEFAULT_WATCHDOG: Dur = Dur::from_ms(50);

/// Full configuration of one harness run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Device model.
    pub device: DeviceConfig,
    /// Host timing model.
    pub host: HostConfig,
    /// Number of CUDA streams (`NS`); applications are assigned
    /// round-robin in schedule order.
    pub num_streams: u32,
    /// Launch order policy.
    pub order: ScheduleOrder,
    /// Memory-transfer synchronization.
    pub memsync: MemsyncMode,
    /// Fully serialized baseline: one stream, threads chained so one
    /// application runs at a time.
    pub serialize: bool,
    /// Simulation seed (jitter + random shuffle).
    pub seed: u64,
    /// Record timeline spans (disable for sweeps).
    pub trace: bool,
    /// Board power model.
    pub power: PowerModel,
    /// Power sensor period.
    pub sample_period: Dur,
    /// Fault plan injected into the run (empty = no faults, and the
    /// run is bit-identical to a harness without the fault layer).
    pub faults: FaultPlan,
    /// What to do about applications the faults kill.
    pub recovery: RecoveryPolicy,
}

impl RunConfig {
    /// Concurrent run on `num_streams` streams, Naïve FIFO, no memsync.
    pub fn concurrent(num_streams: u32) -> Self {
        RunConfig {
            device: DeviceConfig::tesla_k20(),
            host: HostConfig::default(),
            num_streams,
            order: ScheduleOrder::NaiveFifo,
            memsync: MemsyncMode::Off,
            serialize: false,
            seed: 0xC0FFEE,
            trace: false,
            power: PowerModel::tesla_k20(),
            sample_period: Dur::from_ms(15),
            faults: FaultPlan::none(),
            recovery: RecoveryPolicy::FailFast,
        }
    }

    /// The paper's serialized baseline.
    pub fn serial() -> Self {
        RunConfig {
            num_streams: 1,
            serialize: true,
            ..Self::concurrent(1)
        }
    }

    /// Builder-style order override.
    pub fn with_order(mut self, order: ScheduleOrder) -> Self {
        self.order = order;
        self
    }

    /// Builder-style memsync override.
    pub fn with_memsync(mut self, memsync: MemsyncMode) -> Self {
        self.memsync = memsync;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style trace toggle.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Builder-style fault plan override.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style recovery policy override.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }
}

/// One scheduled application instance.
pub type AppSpec = (AppKind, usize);

/// Everything measured in one harness run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Launch order actually used (labels, in order).
    pub schedule: Vec<String>,
    /// Raw simulation output.
    pub result: SimResult,
    /// Power/energy measurement.
    pub power: PowerReport,
    /// Retry attempts spent recovering failed applications.
    pub retries: u32,
    /// True when the Degrade policy re-ran the workload serialized.
    pub degraded: bool,
}

impl RunOutcome {
    /// Total wall time of the workload.
    pub fn makespan(&self) -> Dur {
        self.result.makespan - SimTime::ZERO
    }

    /// Total GPU energy in Joules.
    pub fn energy_j(&self) -> f64 {
        self.power.energy_j
    }

    /// Time-weighted average power in Watts.
    pub fn avg_power_w(&self) -> f64 {
        self.power.avg_true_w
    }

    /// Mean effective memory transfer latency across applications.
    pub fn mean_le(&self, dir: Dir) -> Option<Dur> {
        self.result.mean_effective_latency(dir)
    }
}

/// Build the per-type instance groups and apply the scheduling order.
pub fn build_schedule(kinds: &[AppKind], order: ScheduleOrder, seed: u64) -> Vec<AppSpec> {
    // Group by type in first-appearance order, numbering instances
    // within each type.
    let mut type_order: Vec<AppKind> = Vec::new();
    for &k in kinds {
        if !type_order.contains(&k) {
            type_order.push(k);
        }
    }
    let groups: Vec<Vec<AppSpec>> = type_order
        .iter()
        .map(|&t| {
            (0..kinds.iter().filter(|&&k| k == t).count())
                .map(|i| (t, i))
                .collect()
        })
        .collect();
    let mut rng = DetRng::seed_from_u64(seed).fork(0x0bde7);
    schedule(&groups, order, &mut rng)
}

/// Run an explicit schedule (used by the dynamic scheduler, which
/// searches orders directly) and apply the configured recovery policy
/// to any fault-killed application.
pub fn run_schedule(cfg: &RunConfig, specs: &[AppSpec]) -> Result<RunOutcome, SimError> {
    let mut out = run_schedule_once(cfg, specs, &cfg.faults, cfg.seed)?;
    let any_failed = out.result.apps.iter().any(|a| a.outcome.is_failed());
    if !cfg.faults.is_empty() && any_failed {
        apply_recovery(cfg, specs, &mut out)?;
        out.power = PowerMonitor::with_period(cfg.power, cfg.sample_period).measure(&out.result);
    }
    Ok(out)
}

/// One simulation pass, no recovery: assemble the simulator (streams,
/// memsync mutexes, compiled applications, fault plan, optional
/// auditor), run it and measure its power. With a non-empty `plan` and
/// no explicit watchdog timeout, [`DEFAULT_WATCHDOG`] is armed so
/// injected hangs cannot wedge the run.
fn run_schedule_once(
    cfg: &RunConfig,
    specs: &[AppSpec],
    plan: &FaultPlan,
    seed: u64,
) -> Result<RunOutcome, SimError> {
    let num_streams = if cfg.serialize { 1 } else { cfg.num_streams };
    let mut host = cfg.host;
    if !plan.is_empty() && host.watchdog_timeout.is_none() {
        host.watchdog_timeout = Some(DEFAULT_WATCHDOG);
    }
    let mut sim = GpuSim::with_trace(cfg.device.clone(), host, seed, cfg.trace);
    // `HQ_AUDIT=1` arms the online invariant auditor for every harness
    // run; the auditor is a pure observer, so audited results (and all
    // artifacts derived from them) must stay byte-identical to
    // unaudited ones — the suite determinism test relies on this.
    if std::env::var("HQ_AUDIT").map(|v| v == "1").unwrap_or(false) {
        sim.enable_audit();
    }
    sim.set_fault_plan(plan.clone());
    let mut streams = crate::streams::StreamManager::create(&mut sim, num_streams);
    let memsync = match cfg.memsync {
        MemsyncMode::Off => Memsync::Off,
        MemsyncMode::Enqueue => Memsync::Enqueue(sim.create_mutex()),
        MemsyncMode::Synced => Memsync::Synced(sim.create_mutex()),
    };
    let mut schedule = Vec::with_capacity(specs.len());
    let mut prev: Option<AppId> = None;
    for &(kind, instance) in specs.iter() {
        let app = RodiniaApp::new(kind, instance);
        schedule.push(Kernel::label(&app));
        let program = build_program(&app, memsync);
        let id = sim.add_app(program, streams.acquire());
        if cfg.serialize {
            if let Some(p) = prev {
                sim.set_start_after(id, p);
            }
            prev = Some(id);
        }
    }
    let result = sim.run()?;
    let power = PowerMonitor::with_period(cfg.power, cfg.sample_period).measure(&result);
    Ok(RunOutcome {
        schedule,
        result,
        power,
        retries: 0,
        degraded: false,
    })
}

/// The fault plan a recovery re-run sees: scripted faults are transient
/// (consumed by the primary attempt) while probabilistic rates keep
/// applying with a seed re-derived per attempt, so a retry can fail
/// again under a hostile environment.
fn retry_plan(plan: &FaultPlan, attempt: u32) -> FaultPlan {
    let mut p = plan.clone();
    p.scripted.clear();
    p.seed ^= 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(attempt as u64);
    p
}

/// Exponential backoff before retry attempt `n` (1-based).
fn backoff_delay(backoff: Dur, attempt: u32) -> Dur {
    let shift = (attempt - 1).min(20);
    Dur::from_ns(backoff.as_ns().saturating_mul(1u64 << shift))
}

fn apply_recovery(cfg: &RunConfig, specs: &[AppSpec], out: &mut RunOutcome) -> Result<(), SimError> {
    match cfg.recovery {
        RecoveryPolicy::FailFast => Ok(()),
        RecoveryPolicy::Retry {
            max_attempts,
            backoff,
        } => retry_failed_apps(cfg, specs, out, max_attempts, backoff),
        RecoveryPolicy::Degrade => degrade(cfg, specs, out),
    }
}

/// Re-run each failed application alone on a fresh stream, stacking the
/// re-runs after the primary makespan with exponential backoff between
/// attempts. A recovered application's stats are grafted back into the
/// outcome (time-shifted) and marked [`AppOutcome::Retried`].
fn retry_failed_apps(
    cfg: &RunConfig,
    specs: &[AppSpec],
    out: &mut RunOutcome,
    max_attempts: u32,
    backoff: Dur,
) -> Result<(), SimError> {
    let failed: Vec<usize> = out
        .result
        .apps
        .iter()
        .enumerate()
        .filter(|(_, a)| a.outcome.is_failed())
        .map(|(i, _)| i)
        .collect();
    let solo_cfg = RunConfig {
        num_streams: 1,
        serialize: false,
        trace: false,
        recovery: RecoveryPolicy::FailFast,
        ..cfg.clone()
    };
    for idx in failed {
        for attempt in 1..=max_attempts {
            out.retries += 1;
            let offset = (out.result.makespan - SimTime::ZERO) + backoff_delay(backoff, attempt);
            let plan = retry_plan(&cfg.faults, attempt);
            let seed = cfg.seed.wrapping_add(attempt as u64).wrapping_add(idx as u64);
            let solo = run_schedule_once(&solo_cfg, &specs[idx..idx + 1], &plan, seed)?;
            out.result.faults.absorb(&solo.result.faults);
            let mut st = solo.result.apps.into_iter().next().expect("one app ran");
            st.shift(offset);
            let end = SimTime::ZERO + offset + (solo.result.makespan - SimTime::ZERO);
            out.result.makespan = out.result.makespan.max(end);
            if !st.outcome.is_failed() {
                let prior = &out.result.apps[idx];
                st.app = prior.app;
                st.stream = prior.stream;
                st.faults += prior.faults;
                st.outcome = AppOutcome::Retried { attempts: attempt };
                out.result.apps[idx] = st;
                break;
            }
        }
    }
    Ok(())
}

/// Re-run the whole workload serialized through a single hardware work
/// queue (Fermi-style degraded mode), appended after the failed primary
/// attempt on the timeline.
fn degrade(cfg: &RunConfig, specs: &[AppSpec], out: &mut RunOutcome) -> Result<(), SimError> {
    let mut dcfg = cfg.clone();
    dcfg.serialize = true;
    dcfg.num_streams = 1;
    dcfg.device.hw_queues = 1;
    dcfg.recovery = RecoveryPolicy::FailFast;
    let plan = retry_plan(&cfg.faults, 1);
    let seed = cfg.seed.wrapping_add(1);
    let mut rerun = run_schedule_once(&dcfg, specs, &plan, seed)?;
    let offset = out.result.makespan - SimTime::ZERO;
    for st in &mut rerun.result.apps {
        st.shift(offset);
    }
    rerun.result.makespan = SimTime::ZERO + offset + (rerun.result.makespan - SimTime::ZERO);
    rerun.result.faults.absorb(&out.result.faults);
    rerun.degraded = true;
    rerun.retries = out.retries;
    *out = rerun; // run_schedule re-measures power on the merged result
    Ok(())
}

/// Schedule `kinds` under the configured order and run.
pub fn run_workload(cfg: &RunConfig, kinds: &[AppKind]) -> Result<RunOutcome, SimError> {
    let specs = build_schedule(kinds, cfg.order, cfg.seed);
    run_schedule(cfg, &specs)
}

/// The paper's heterogeneous workload: `total` applications evenly
/// split between two types (§IV).
pub fn pair_workload(x: AppKind, y: AppKind, total: usize) -> Vec<AppKind> {
    let m = total / 2;
    let mut kinds = vec![x; m];
    kinds.extend(vec![y; total - m]);
    kinds
}

/// A homogeneous workload of `n` copies of one type.
pub fn homogeneous_workload(kind: AppKind, n: usize) -> Vec<AppKind> {
    vec![kind; n]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_workload_splits_evenly() {
        let w = pair_workload(AppKind::Gaussian, AppKind::Needle, 8);
        assert_eq!(w.iter().filter(|&&k| k == AppKind::Gaussian).count(), 4);
        assert_eq!(w.iter().filter(|&&k| k == AppKind::Needle).count(), 4);
        let w = pair_workload(AppKind::Gaussian, AppKind::Needle, 5);
        assert_eq!(w.iter().filter(|&&k| k == AppKind::Needle).count(), 3);
    }

    #[test]
    fn build_schedule_round_robin_instances() {
        let kinds = pair_workload(AppKind::Needle, AppKind::Knearest, 6);
        let specs = build_schedule(&kinds, ScheduleOrder::RoundRobin, 1);
        assert_eq!(
            specs,
            vec![
                (AppKind::Needle, 0),
                (AppKind::Knearest, 0),
                (AppKind::Needle, 1),
                (AppKind::Knearest, 1),
                (AppKind::Needle, 2),
                (AppKind::Knearest, 2),
            ]
        );
    }

    #[test]
    fn serial_run_executes_one_at_a_time() {
        let cfg = RunConfig::serial().with_trace(true);
        let kinds = pair_workload(AppKind::Knearest, AppKind::Needle, 4);
        let out = run_workload(&cfg, &kinds).unwrap();
        assert_eq!(out.result.apps.len(), 4);
        // Threads ran disjointly: each app starts after the previous
        // one finished.
        let mut spans: Vec<(SimTime, SimTime)> = out
            .result
            .apps
            .iter()
            .map(|a| (a.started.unwrap(), a.finished.unwrap()))
            .collect();
        spans.sort();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "serial apps must not overlap");
        }
    }

    #[test]
    fn concurrent_beats_serial_for_small_apps() {
        let kinds = pair_workload(AppKind::Knearest, AppKind::Needle, 8);
        let serial = run_workload(&RunConfig::serial(), &kinds).unwrap();
        let conc = run_workload(&RunConfig::concurrent(8), &kinds).unwrap();
        assert!(
            conc.makespan() < serial.makespan(),
            "concurrent {} !< serial {}",
            conc.makespan(),
            serial.makespan()
        );
    }

    #[test]
    fn memsync_reduces_effective_latency() {
        let kinds = pair_workload(AppKind::Gaussian, AppKind::Needle, 8);
        let base = run_workload(&RunConfig::concurrent(8), &kinds).unwrap();
        let synced = run_workload(
            &RunConfig::concurrent(8).with_memsync(MemsyncMode::Synced),
            &kinds,
        )
        .unwrap();
        let le_base = base.mean_le(Dir::HtoD).unwrap();
        let le_sync = synced.mean_le(Dir::HtoD).unwrap();
        assert!(
            le_sync < le_base,
            "memsync must cut Le: {le_sync} !< {le_base}"
        );
    }

    #[test]
    fn schedule_labels_match_order() {
        let cfg = RunConfig::concurrent(4).with_order(ScheduleOrder::ReverseRoundRobin);
        let kinds = pair_workload(AppKind::Knearest, AppKind::Needle, 4);
        let out = run_workload(&cfg, &kinds).unwrap();
        assert_eq!(
            out.schedule,
            vec!["needle#0", "knearest#0", "needle#1", "knearest#1"]
        );
    }

    #[test]
    fn failfast_surfaces_failure_retry_recovers_it() {
        let kinds = pair_workload(AppKind::Knearest, AppKind::Needle, 4);
        // Scripted kernel fault against app 1; everything else healthy.
        let faulty = RunConfig::concurrent(4)
            .with_faults(FaultPlan::none().with_fault(FaultKind::KernelFault, AppId(1), 0));

        let ff = run_workload(&faulty, &kinds).unwrap();
        assert_eq!(ff.retries, 0);
        assert!(!ff.degraded);
        assert_eq!(
            ff.result.apps[1].outcome,
            AppOutcome::Failed {
                reason: FaultKind::KernelFault
            },
            "FailFast must surface the failure"
        );
        hq_gpu::validate::assert_valid(&ff.result);

        let retried = run_workload(
            &faulty.clone().with_recovery(RecoveryPolicy::Retry {
                max_attempts: 2,
                backoff: Dur::from_us(100),
            }),
            &kinds,
        )
        .unwrap();
        assert_eq!(retried.retries, 1, "one attempt recovers a transient fault");
        assert_eq!(
            retried.result.apps[1].outcome,
            AppOutcome::Retried { attempts: 1 }
        );
        assert!(
            retried.makespan() > ff.makespan(),
            "the retry extends the timeline"
        );
        // The recovered app's re-run sits after the primary makespan.
        assert!(retried.result.apps[1].started.unwrap() >= ff.result.makespan);
        hq_gpu::validate::assert_valid(&retried.result);
    }

    #[test]
    fn degrade_reruns_whole_workload_serialized() {
        let kinds = pair_workload(AppKind::Knearest, AppKind::Needle, 4);
        let faulty = RunConfig::concurrent(4)
            .with_faults(FaultPlan::none().with_fault(FaultKind::KernelFault, AppId(1), 0))
            .with_recovery(RecoveryPolicy::Degrade);
        let out = run_workload(&faulty, &kinds).unwrap();
        assert!(out.degraded);
        for a in &out.result.apps {
            assert_eq!(
                a.outcome,
                AppOutcome::Completed,
                "{}: degraded serialized re-run completes everything",
                a.label
            );
        }
        hq_gpu::validate::assert_valid(&out.result);
    }

    #[test]
    fn fault_free_run_is_bit_identical_under_any_recovery_policy() {
        let kinds = pair_workload(AppKind::Gaussian, AppKind::Needle, 6);
        let base = run_workload(&RunConfig::concurrent(6), &kinds).unwrap();
        for policy in [
            RecoveryPolicy::FailFast,
            RecoveryPolicy::Retry {
                max_attempts: 3,
                backoff: Dur::from_us(50),
            },
            RecoveryPolicy::Degrade,
        ] {
            let out = run_workload(&RunConfig::concurrent(6).with_recovery(policy), &kinds).unwrap();
            assert_eq!(out.result.makespan, base.result.makespan, "{policy:?}");
            assert_eq!(
                format!("{:?}", out.result.apps),
                format!("{:?}", base.result.apps),
                "{policy:?}: recovery config must not perturb a fault-free run"
            );
            assert_eq!(out.retries, 0);
            assert!(!out.degraded);
        }
    }

    #[test]
    fn retry_exhaustion_leaves_app_failed() {
        // A 100% kernel-fault rate can never be retried successfully.
        let kinds = homogeneous_workload(AppKind::Knearest, 2);
        let cfg = RunConfig::concurrent(2)
            .with_faults(
                FaultPlan::none()
                    .with_rate(FaultKind::KernelFault, 1.0)
                    .with_seed(5),
            )
            .with_recovery(RecoveryPolicy::Retry {
                max_attempts: 2,
                backoff: Dur::from_us(10),
            });
        let out = run_workload(&cfg, &kinds).unwrap();
        assert_eq!(out.retries, 4, "2 apps x 2 exhausted attempts");
        for a in &out.result.apps {
            assert!(a.outcome.is_failed(), "{}: unrecoverable", a.label);
        }
    }

    #[test]
    fn outcome_metrics_populated() {
        let out = run_workload(
            &RunConfig::concurrent(2),
            &homogeneous_workload(AppKind::Knearest, 2),
        )
        .unwrap();
        assert!(out.makespan().as_ns() > 0);
        assert!(out.energy_j() > 0.0);
        assert!(out.avg_power_w() > 0.0);
        assert!(out.mean_le(Dir::HtoD).is_some());
    }
}
