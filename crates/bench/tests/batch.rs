//! Batched execution equivalence: K scenarios handed to a batch entry
//! point (memo hits served first, cold lanes run back to back) must be
//! indistinguishable — byte for byte — from the same K scenarios run
//! serially, across the determinism axes (faults on/off, `HQ_AUDIT=1`,
//! cold/warm scenario cache), and a lane that faults must not perturb
//! its siblings.
//!
//! Artifact comparison goes through the scenario cache's own entry
//! encoding ([`scenario::encode_outcome`]) — the exact bytes the cache
//! would persist — with the one documented-nondeterministic line (the
//! `perf ` wall-clock line) stripped.

use hq_bench::chaos::{self, Chaos};
use hq_bench::scenario::{self, run_scenario, run_scenario_batch_jobs};
use hq_bench::soak::Soak;
use hq_des::rng::DetRng;
use hq_des::time::Dur;
use hq_gpu::prelude::*;
use hq_workloads::apps::AppKind;
use hyperq_core::harness::{
    build_schedule, pair_workload, run_schedule, run_schedule_batch, AppSpec, RecoveryPolicy,
    RunConfig, RunOutcome,
};
use parking_lot::Mutex;
use proptest::prelude::*;

/// Tests in this binary run on concurrent threads but mutate
/// process-global environment variables (`HQ_RESULTS`,
/// `HQ_SCENARIO_CACHE`, `HQ_AUDIT`) and the process-global scenario /
/// chaos-case memos; every test holds this lock for its whole body.
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
fn sim_perf(out: &RunOutcome) -> (u64, usize, u64, u64, u64) {
    let p = out.result.perf;
    (
        p.events,
        p.peak_pending,
        p.cancelled,
        p.stale_cancels,
        p.tombstone_ratio.to_bits(),
    )
}

/// Serial-vs-batched comparison for a fixed job list, on whatever
/// env axis the caller has set up. Uses the uncached `run_schedule` /
/// `run_schedule_batch` pair so both sides genuinely simulate. Each
/// lane's `SimPerf` must equal its solo run's, wall clock excluded.
fn assert_batch_matches_serial(jobs: &[(RunConfig, Vec<AppSpec>)], what: &str) {
    let serial: Vec<_> = jobs
        .iter()
        .map(|(cfg, specs)| run_schedule(cfg, specs).expect("serial run"))
        .collect();
    let batched = run_schedule_batch(jobs);
    assert_eq!(batched.len(), serial.len(), "{what}");
    for (lane, ((cfg, specs), (s, b))) in
        jobs.iter().zip(serial.iter().zip(&batched)).enumerate()
    {
        let b = b.as_ref().expect("batched lane");
        assert_eq!(
            artifact(cfg, specs, s),
            artifact(cfg, specs, b),
            "lane {lane} artifact bytes diverged ({what})"
        );
        assert_eq!(
            sim_perf(s),
            sim_perf(b),
            "lane {lane} SimPerf diverged ({what})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random batches of K jobs across workload size, fault rate and
    /// recovery policy produce byte-identical artifacts to serial runs.
    #[test]
    fn batched_artifacts_match_serial(
        lanes in proptest::collection::vec((2u32..5, 0u32..180, 0u8..3, 0u64..1000), 2..5),
    ) {
        let _guard = ENV_LOCK.lock();
        let jobs: Vec<_> = lanes
            .iter()
            .map(|&(na, pm, pol, seed)| job_from(na, pm, pol, seed))
            .collect();
        assert_batch_matches_serial(&jobs, "proptest faults on/off");
    }
}

/// The `HQ_AUDIT=1` axis: every lane runs under the online invariant
/// auditor, batched and serial alike, and the bytes still match.
#[test]
fn audited_batch_matches_serial() {
    let _guard = ENV_LOCK.lock();
    std::env::set_var("HQ_AUDIT", "1");
    let jobs = vec![
        job_from(2, 0, 0, 1),
        job_from(3, 120, 1, 2),
        job_from(2, 60, 2, 3),
    ];
    assert_batch_matches_serial(&jobs, "HQ_AUDIT=1");
    std::env::remove_var("HQ_AUDIT");
}

/// Cold/warm cache axis for the cached batch entry point: a warm lane
/// is served from the cache without simulating, a cold lane
/// simulates and is inserted — and every lane's bytes equal the
/// serial `run_scenario` result regardless of temperature.
#[test]
fn batch_cache_integration_per_lane() {
    let _guard = ENV_LOCK.lock();
    let dir = std::env::temp_dir().join(format!("hq_batch_cache_{}", std::process::id()));
    std::env::set_var("HQ_RESULTS", &dir);
    scenario::reset_cache();

    let jobs = vec![job_from(2, 0, 0, 10), job_from(3, 0, 0, 11), job_from(2, 90, 1, 12)];

    // Warm exactly one lane through the serial cached path.
    let warm_serial = run_scenario(&jobs[1].0, &jobs[1].1).expect("serial warm-up");
    let (h0, m0) = scenario::cache_stats();

    // Batch: lane 1 must be a hit (served without simulating), lanes
    // 0/2 cold misses.
    let batched = run_scenario_batch_jobs(&jobs);
    let (h1, m1) = scenario::cache_stats();
    assert_eq!(h1 - h0, 1, "exactly the warm lane hits");
    assert_eq!(m1 - m0, 2, "exactly the cold lanes miss");
    let warm_lane = batched[1].as_ref().expect("warm lane");
    assert_eq!(
        artifact(&jobs[1].0, &jobs[1].1, &warm_serial),
        artifact(&jobs[1].0, &jobs[1].1, warm_lane),
        "warm lane must replay the cached bytes"
    );

    // Misses were inserted: a second batch is all hits, no simulation.
    let again = run_scenario_batch_jobs(&jobs);
    let (h2, m2) = scenario::cache_stats();
    assert_eq!(m2, m1, "second batch must not re-simulate");
    assert_eq!(h2 - h1, jobs.len() as u64, "second batch all hits");

    // And every lane matches the serial cached path byte for byte.
    for (lane, (cfg, specs)) in jobs.iter().enumerate() {
        let serial = run_scenario(cfg, specs).expect("serial");
        let b = again[lane].as_ref().expect("batched lane");
        assert_eq!(
            artifact(cfg, specs, &serial),
            artifact(cfg, specs, b),
            "lane {lane} cached bytes"
        );
    }

    scenario::reset_cache();
    std::env::remove_var("HQ_RESULTS");
    std::fs::remove_dir_all(&dir).ok();
}

/// Lane isolation at the harness level: a heavily-faulting lane (with
/// recovery re-runs) sandwiched between clean lanes must leave the
/// clean lanes' bytes exactly as their solo serial runs produced them.
#[test]
fn faulting_lane_does_not_perturb_clean_siblings() {
    let _guard = ENV_LOCK.lock();
    let clean_a = job_from(2, 0, 0, 21);
    let faulty = job_from(3, 400, 1, 22);
    let clean_b = job_from(4, 0, 0, 23);
    let solo_a = run_schedule(&clean_a.0, &clean_a.1).expect("solo a");
    let solo_b = run_schedule(&clean_b.0, &clean_b.1).expect("solo b");

    let jobs = vec![clean_a.clone(), faulty, clean_b.clone()];
    let batched = run_schedule_batch(&jobs);
    let a = batched[0].as_ref().expect("lane a");
    let b = batched[2].as_ref().expect("lane b");
    assert_eq!(
        artifact(&clean_a.0, &clean_a.1, &solo_a),
        artifact(&clean_a.0, &clean_a.1, a),
        "clean lane before the faulty lane"
    );
    assert_eq!(
        artifact(&clean_b.0, &clean_b.1, &solo_b),
        artifact(&clean_b.0, &clean_b.1, b),
        "clean lane after the faulty lane"
    );
    assert_eq!(sim_perf(&solo_a), sim_perf(a), "clean lane a SimPerf");
    assert_eq!(sim_perf(&solo_b), sim_perf(b), "clean lane b SimPerf");
}

/// Chaos: batched case execution classifies every case exactly as the
/// serial path does — across passes (event counts included), audit
/// failures, deadlocks and validate violations — and the per-case memo
/// serves repeats without re-simulation.
#[test]
fn chaos_batch_matches_serial_cases() {
    let _guard = ENV_LOCK.lock();
    chaos::reset_case_cache();
    let mut rng = DetRng::seed_from_u64(0xc4a0);
    let specs: Vec<chaos::CaseSpec> = (0..24).map(|_| chaos::gen_case(&mut rng)).collect();

    let serial: Vec<String> = specs
        .iter()
        .map(|s| format!("{:?}", Chaos::run(s)))
        .collect();
    let batched: Vec<String> = Chaos::run_batch(&specs)
        .into_iter()
        .map(|o| format!("{o:?}"))
        .collect();
    assert_eq!(serial, batched, "batched chaos outcomes diverged");
    let (h0, m0) = chaos::case_cache_stats();
    assert_eq!(m0, 24, "first batch all misses");
    assert_eq!(h0, 0);

    // Memoized: the same batch again is pure hits.
    let again: Vec<String> = Chaos::run_batch(&specs)
        .into_iter()
        .map(|o| format!("{o:?}"))
        .collect();
    assert_eq!(serial, again, "memoized chaos outcomes diverged");
    let (h1, m1) = chaos::case_cache_stats();
    assert_eq!(m1, 24, "second batch must not re-simulate");
    assert_eq!(h1, 24, "second batch all hits");
    chaos::reset_case_cache();
}
