//! Cached execution equivalence: a scenario run through the scenario
//! cache — cold (a miss that simulates and inserts), warm from the
//! memo, warm from disk — must be indistinguishable, byte for byte,
//! from the same scenario run uncached by `run_schedule`, across the
//! determinism axes (faults on/off and recovery policy, `HQ_AUDIT=1`),
//! and a job that faults must not perturb clean jobs run around it in
//! the same process.
//!
//! Artifact comparison goes through the scenario cache's own entry
//! encoding ([`scenario::encode_outcome`]) — the exact bytes the cache
//! would persist — with the one documented-nondeterministic line (the
//! `perf ` wall-clock line) stripped.

use hq_bench::scenario::{self, run_scenario};
use hq_des::time::Dur;
use hq_gpu::prelude::*;
use hq_workloads::apps::AppKind;
use hyperq_core::autosched::{AutoScheduler, Objective};
use hyperq_core::harness::{
    build_schedule, pair_workload, run_schedule, AppSpec, RecoveryPolicy, RunConfig, RunOutcome,
};
use parking_lot::Mutex;
use proptest::prelude::*;

/// Tests in this binary run on concurrent threads but mutate
/// process-global environment variables (`HQ_RESULTS`, `HQ_AUDIT`)
/// and the process-global scenario memo; every test holds this lock
/// for its whole body.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Deterministic artifact bytes for one outcome: the cache entry
/// encoding minus the wall-clock `perf ` line — and minus the `crc `
/// integrity header, which covers the full body (perf line included)
/// and so inherits its nondeterminism.
fn artifact(cfg: &RunConfig, specs: &[AppSpec], out: &RunOutcome) -> String {
    scenario::encode_outcome(cfg, specs, out)
        .lines()
        .filter(|l| !l.starts_with("perf ") && !l.starts_with("crc "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// One job from a compact generator tuple: workload size, fault rate
/// (0 = fault-free), recovery policy selector.
fn job_from(na: u32, fault_pm: u32, policy: u8, seed: u64) -> (RunConfig, Vec<AppSpec>) {
    let kinds = pair_workload(AppKind::Needle, AppKind::Knearest, na as usize);
    let mut cfg = RunConfig::concurrent(na);
    cfg.seed = seed;
    if fault_pm > 0 {
        let plan = FaultPlan::none()
            .with_rate(FaultKind::KernelFault, fault_pm as f64 / 1000.0)
            .with_rate(FaultKind::CopyFail, fault_pm as f64 / 2000.0)
            .with_seed(0xfa ^ seed);
        cfg = cfg.with_faults(plan);
        cfg = cfg.with_recovery(match policy % 3 {
            0 => RecoveryPolicy::FailFast,
            1 => RecoveryPolicy::Retry {
                max_attempts: 2,
                backoff: Dur::from_us(100),
            },
            _ => RecoveryPolicy::Degrade,
        });
    }
    let specs = build_schedule(&kinds, cfg.order, cfg.seed);
    (cfg, specs)
}

/// The deterministic part of a run's `SimPerf`: every counter but the
/// wall clock and the rate derived from it.
fn sim_perf(out: &RunOutcome) -> (u64, usize, u64, u64, u64, u64, u64) {
    let p = out.result.perf;
    (
        p.events,
        p.peak_pending,
        p.cancelled,
        p.stale_cancels,
        p.tombstone_ratio.to_bits(),
        p.refills,
        p.skipped,
    )
}

/// Run `jobs` in order, each four ways — uncached `run_schedule`, then
/// `run_scenario` cold, warm from the memo, and warm from disk (memo
/// dropped) — against a fresh cache directory. Every cached run's
/// artifact bytes and `SimPerf` must equal the uncached run's, the
/// cold run must be exactly one miss and each warm run exactly one
/// hit. Returns the uncached outcomes.
fn assert_cached_matches_uncached(
    jobs: &[(RunConfig, Vec<AppSpec>)],
    what: &str,
) -> Vec<RunOutcome> {
    let dir = std::env::temp_dir().join(format!("hq_cached_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::env::set_var("HQ_RESULTS", &dir);
    let mut uncached = Vec::new();
    for (i, (cfg, specs)) in jobs.iter().enumerate() {
        // Each job starts cold even when a generator repeats one.
        std::fs::remove_dir_all(&dir).ok();
        scenario::reset_cache();
        let direct = run_schedule(cfg, specs).expect("uncached run");
        let want = (artifact(cfg, specs, &direct), sim_perf(&direct));
        for (temp, hit) in [("cold", false), ("memo-warm", true), ("disk-warm", true)] {
            if temp == "disk-warm" {
                scenario::reset_cache();
            }
            let (h0, m0) = scenario::cache_stats();
            let out = run_scenario(cfg, specs).expect("cached run");
            let (h1, m1) = scenario::cache_stats();
            assert_eq!(
                (h1 - h0, m1 - m0),
                (hit as u64, !hit as u64),
                "job {i} {temp}: hit/miss counts ({what})"
            );
            assert_eq!(
                (artifact(cfg, specs, &out), sim_perf(&out)),
                want,
                "job {i} {temp}: artifact bytes or SimPerf diverged ({what})"
            );
        }
        uncached.push(direct);
    }
    scenario::reset_cache();
    std::env::remove_var("HQ_RESULTS");
    std::fs::remove_dir_all(&dir).ok();
    uncached
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random jobs across workload size, fault rate and recovery
    /// policy give the same bytes cached and uncached.
    #[test]
    fn cached_runs_match_uncached(
        lanes in proptest::collection::vec((2u32..5, 0u32..180, 0u8..3, 0u64..1000), 2..5),
    ) {
        let _guard = ENV_LOCK.lock();
        let jobs: Vec<_> = lanes
            .iter()
            .map(|&(na, pm, pol, seed)| job_from(na, pm, pol, seed))
            .collect();
        assert_cached_matches_uncached(&jobs, "proptest faults on/off");
    }
}

/// The `HQ_AUDIT=1` axis and job isolation: a heavily-faulting job
/// (with recovery re-runs) run between two clean ones must leave the
/// clean jobs' bytes and `SimPerf` exactly as solo runs made before it
/// produced them, cached and uncached alike, with and without the
/// online invariant auditor.
#[test]
fn faulting_job_between_clean_ones_matches_solo_runs_audited_or_not() {
    let _guard = ENV_LOCK.lock();
    let clean_a = job_from(2, 0, 0, 21);
    let faulty = job_from(3, 400, 1, 22);
    let clean_b = job_from(4, 0, 0, 23);
    for audit in [false, true] {
        if audit {
            std::env::set_var("HQ_AUDIT", "1");
        }
        let what = if audit { "HQ_AUDIT=1" } else { "audit off" };
        let solo_a = run_schedule(&clean_a.0, &clean_a.1).expect("solo a");
        let solo_b = run_schedule(&clean_b.0, &clean_b.1).expect("solo b");
        let outs = assert_cached_matches_uncached(
            &[clean_a.clone(), faulty.clone(), clean_b.clone()],
            what,
        );
        for ((cfg, specs), solo, out) in
            [(&clean_a, &solo_a, &outs[0]), (&clean_b, &solo_b, &outs[2])]
        {
            assert_eq!(
                (artifact(cfg, specs, solo), sim_perf(solo)),
                (artifact(cfg, specs, out), sim_perf(out)),
                "clean job around the faulty one diverged ({what})"
            );
        }
        std::env::remove_var("HQ_AUDIT");
    }
}

/// The schedule search through the scenario cache (as `ext_autosched`
/// runs it) returns exactly the uncached search's `SearchResult`.
#[test]
fn cached_search_matches_uncached_search() {
    fn cached(cfg: &RunConfig, specs: &[AppSpec]) -> Result<RunOutcome, SimError> {
        run_scenario(cfg, specs).map(std::sync::Arc::unwrap_or_clone)
    }
    let _guard = ENV_LOCK.lock();
    let dir = std::env::temp_dir().join(format!("hq_cached_search_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::env::set_var("HQ_RESULTS", &dir);
    scenario::reset_cache();
    let cfg = RunConfig::concurrent(4);
    let kinds = pair_workload(AppKind::Knearest, AppKind::Needle, 6);
    for objective in [Objective::Makespan, Objective::Energy] {
        let sched = AutoScheduler {
            objective,
            swap_budget: 12,
            seed: 17,
        };
        let direct = sched.optimize(&cfg, &kinds);
        let via_cache = sched.optimize_with(cached, &cfg, &kinds);
        assert_eq!(direct.schedule, via_cache.schedule, "{objective:?}");
        assert_eq!(direct.best_score, via_cache.best_score, "{objective:?}");
        assert_eq!(
            direct.canonical_score, via_cache.canonical_score,
            "{objective:?}"
        );
        assert_eq!(direct.evaluations, via_cache.evaluations, "{objective:?}");
        assert_eq!(
            artifact(&cfg, &direct.schedule, &direct.outcome),
            artifact(&cfg, &via_cache.schedule, &via_cache.outcome),
            "{objective:?}"
        );
    }
    scenario::reset_cache();
    std::env::remove_var("HQ_RESULTS");
    std::fs::remove_dir_all(&dir).ok();
}
