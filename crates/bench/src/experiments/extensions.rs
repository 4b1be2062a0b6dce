//! Extension studies beyond the paper's figures:
//!
//! * **Homogeneous scaling** — §IV defines homogeneous workloads but
//!   the paper only reports them as the `Le` expectation baseline; here
//!   we sweep NA = NS for each benchmark to expose its concurrency
//!   ceiling.
//! * **Random-shuffle study** — §V-C: "A more exhaustive experiment
//!   could easily be conducted by providing many more distinct random
//!   shuffle schedules." We run that experiment.
//! * **Device scaling** — the same workload on a K40-class device
//!   (15 SMX, 12 GB), probing whether the techniques' benefits persist
//!   on a bigger part.
//! * **Dynamic scheduler** (§VI future work) — the greedy order search
//!   of `hyperq_core::autosched` against the canonical orders.

use crate::scenario::{run_scenario, run_scenario_workload};
use crate::util::{par_map, ExperimentReport, Scale};
use hq_des::time::Dur;
use hq_gpu::prelude::*;
use hq_workloads::apps::AppKind;
use hyperq_core::autosched::{AutoScheduler, Objective};
use hyperq_core::harness::{
    homogeneous_workload, pair_workload, AppSpec, RecoveryPolicy, RunConfig, RunOutcome,
};
use hyperq_core::metrics::improvement;
use hyperq_core::ordering::ScheduleOrder;
use hyperq_core::report::{pct, Table};
use std::sync::Arc;

/// Homogeneous NA = NS scaling per benchmark.
pub fn homogeneous_scaling(scale: Scale) -> ExperimentReport {
    let sizes: Vec<u32> = scale.pick(vec![1, 2, 4, 8, 16, 32], vec![1, 2, 4]);
    let jobs: Vec<(AppKind, u32)> = AppKind::ALL
        .into_iter()
        .flat_map(|k| sizes.iter().map(move |&n| (k, n)))
        .collect();
    let rows = par_map(jobs, |&(kind, n)| {
        let out = run_scenario_workload(
            &RunConfig::concurrent(n),
            &homogeneous_workload(kind, n as usize),
        )
        .expect("run");
        (kind, n, out.makespan())
    });
    let mut table = Table::new(vec![
        "benchmark",
        "NA=NS",
        "makespan",
        "per-app cost",
        "scaling efficiency",
    ]);
    let mut solo: std::collections::HashMap<AppKind, Dur> = Default::default();
    for &(kind, n, mk) in &rows {
        if n == 1 {
            solo.insert(kind, mk);
        }
        let base = solo[&kind].as_ns() as f64;
        let per_app = mk.as_ns() as f64 / n as f64;
        table.row(vec![
            kind.name().to_string(),
            n.to_string(),
            mk.to_string(),
            Dur::from_ns(per_app as u64).to_string(),
            format!("{:.2}x", base / per_app),
        ]);
    }
    ExperimentReport {
        id: "ext_homogeneous_scaling".into(),
        title: "Extension — homogeneous workload scaling (NA = NS)".into(),
        markdown: format!(
            "Scaling efficiency = solo cost / per-application cost at NA \
             concurrent copies (>1x means the benchmark shares the device \
             productively; ~1x means it saturates a resource alone).\n\n{}",
            table.to_markdown()
        ),
        csv: Some(table.to_csv()),
    }
}

/// The paper's proposed many-shuffles experiment.
pub fn shuffle_study(scale: Scale) -> ExperimentReport {
    let na = scale.pick(32, 8);
    let shuffles = scale.pick(24, 6);
    let kinds = pair_workload(AppKind::Gaussian, AppKind::Needle, na as usize);
    let seeds: Vec<u64> = (0..shuffles).collect();
    let runs = par_map(seeds, |&s| {
        let cfg = RunConfig::concurrent(na)
            .with_order(ScheduleOrder::RandomShuffle)
            .with_seed(0x5401 + s);
        run_scenario_workload(&cfg, &kinds).expect("run").makespan()
    });
    let fifo = run_scenario_workload(&RunConfig::concurrent(na), &kinds)
        .expect("fifo")
        .makespan();
    let best = runs.iter().min().copied().unwrap();
    let worst = runs.iter().max().copied().unwrap();
    let mean_ns = runs.iter().map(|d| d.as_ns()).sum::<u64>() / runs.len() as u64;
    let mut table = Table::new(vec!["statistic", "makespan", "vs Naive FIFO"]);
    for (name, d) in [
        ("best shuffle", best),
        ("mean shuffle", Dur::from_ns(mean_ns)),
        ("worst shuffle", worst),
        ("Naive FIFO", fifo),
    ] {
        table.row(vec![
            name.to_string(),
            d.to_string(),
            pct(improvement(fifo, d)),
        ]);
    }
    ExperimentReport {
        id: "ext_shuffle_study".into(),
        title: "Extension — distribution over many random shuffles (§V-C's proposed experiment)"
            .into(),
        markdown: format!(
            "{{gaussian, needle}}, NA = NS = {na}, {shuffles} distinct \
             random-shuffle schedules.\n\n{}\n\
             The spread between best and worst shuffle bounds what any \
             ordering heuristic can recover on this pair.\n",
            table.to_markdown()
        ),
        csv: Some(table.to_csv()),
    }
}

/// The same pair workload on K20 vs K40-class devices.
pub fn device_scaling(scale: Scale) -> ExperimentReport {
    let na = scale.pick(16, 4);
    let rows = par_map(AppKind::pairs(), |&(x, y)| {
        let kinds = pair_workload(x, y, na as usize);
        let run_dev = |dev: DeviceConfig, serialize: bool| {
            let mut cfg = if serialize {
                RunConfig::serial()
            } else {
                RunConfig::concurrent(na)
            };
            cfg.device = dev;
            run_scenario_workload(&cfg, &kinds).expect("run").makespan()
        };
        let k20_imp = improvement(
            run_dev(DeviceConfig::tesla_k20(), true),
            run_dev(DeviceConfig::tesla_k20(), false),
        );
        let k40_imp = improvement(
            run_dev(DeviceConfig::tesla_k40(), true),
            run_dev(DeviceConfig::tesla_k40(), false),
        );
        (format!("{x}+{y}"), k20_imp, k40_imp)
    });
    let mut table = Table::new(vec!["pair", "K20 concurrency gain", "K40 concurrency gain"]);
    for (p, a, b) in &rows {
        table.row(vec![p.clone(), pct(*a), pct(*b)]);
    }
    ExperimentReport {
        id: "ext_device_scaling".into(),
        title: "Extension — does the benefit persist on a larger device (K40)?".into(),
        markdown: format!(
            "NA = {na}; concurrency gain = full-concurrent vs serialized on \
             the same device. A bigger part leaves *more* leftover space, so \
             the lazy policy's gain should not shrink.\n\n{}",
            table.to_markdown()
        ),
        csv: Some(table.to_csv()),
    }
}

/// Higher task heterogeneity: §IV notes the framework "supports the
/// ability to test workloads with a higher degree of task
/// heterogeneity" but only evaluates pairs; this study runs 3- and
/// 4-type mixes.
pub fn heterogeneity_study(scale: Scale) -> ExperimentReport {
    let na = scale.pick(16, 4);
    let mixes: Vec<(&str, Vec<AppKind>)> = vec![
        (
            "2 types: gaussian+needle",
            pair_workload(AppKind::Gaussian, AppKind::Needle, na),
        ),
        ("3 types: gaussian+needle+knearest", {
            let mut v = Vec::new();
            for i in 0..na {
                v.push([AppKind::Gaussian, AppKind::Needle, AppKind::Knearest][i % 3]);
            }
            v
        }),
        ("4 types: all benchmarks", {
            let mut v = Vec::new();
            for i in 0..na {
                v.push(AppKind::ALL[i % 4]);
            }
            v
        }),
    ];
    let rows = par_map(mixes, |(name, kinds)| {
        let serial = run_scenario_workload(&RunConfig::serial(), kinds).expect("serial");
        let conc = run_scenario_workload(&RunConfig::concurrent(na as u32), kinds).expect("concurrent");
        (
            name.to_string(),
            serial.makespan(),
            conc.makespan(),
            improvement(serial.makespan(), conc.makespan()),
        )
    });
    let mut table = Table::new(vec!["mix", "serial", "full-concurrent", "improvement"]);
    for (name, s, c, imp) in &rows {
        table.row(vec![name.clone(), s.to_string(), c.to_string(), pct(*imp)]);
    }
    ExperimentReport {
        id: "ext_heterogeneity".into(),
        title: "Extension — workloads with more than two task types (§IV)".into(),
        markdown: format!(
            "NA = {na} applications split across 2, 3 and 4 benchmark types; \
             improvement is full-concurrent vs serialized.\n\n{}",
            table.to_markdown()
        ),
        csv: Some(table.to_csv()),
    }
}

/// [`hyperq_core::autosched::Runner`] backed by the scenario cache:
/// warm candidates come straight from the cache, cold ones simulate.
/// The scheduler keeps owned outcomes, so each shared one is copied
/// out.
fn scenario_runner(cfg: &RunConfig, specs: &[AppSpec]) -> Result<RunOutcome, SimError> {
    run_scenario(cfg, specs).map(Arc::unwrap_or_clone)
}

/// §VI future work: the greedy dynamic scheduler vs canonical orders.
pub fn autosched_study(scale: Scale) -> ExperimentReport {
    let na = scale.pick(8, 4);
    let kinds = pair_workload(AppKind::Needle, AppKind::Knearest, na as usize);
    let cfg = RunConfig::concurrent(na);
    let mut table = Table::new(vec![
        "objective",
        "best canonical",
        "after greedy search",
        "search gain",
        "evaluations",
    ]);
    for objective in [Objective::Makespan, Objective::Energy] {
        let sched = AutoScheduler {
            objective,
            swap_budget: scale.pick(24, 6),
            seed: 17,
        };
        let res = sched.optimize_with(scenario_runner, &cfg, &kinds);
        // Sanity: re-running the found schedule reproduces the score.
        let replay = run_scenario(&cfg, &res.schedule).expect("replay");
        let replay_score = match objective {
            Objective::Makespan => replay.makespan().as_ns() as f64,
            Objective::Energy => replay.energy_j(),
        };
        assert!((replay_score - res.best_score).abs() / res.best_score < 1e-9);
        table.row(vec![
            format!("{objective:?}"),
            format!("{:.3}", res.canonical_score),
            format!("{:.3}", res.best_score),
            pct((res.canonical_score - res.best_score) / res.canonical_score),
            res.evaluations.to_string(),
        ]);
    }
    ExperimentReport {
        id: "ext_autosched".into(),
        title: "Extension — §VI dynamic schedule search (greedy swaps over the launch queue)"
            .into(),
        markdown: format!(
            "{{needle, knearest}}, NA = NS = {na}. Scores are ns (makespan) \
             or Joules (energy); the search is seeded with the best of the \
             five canonical orders and hill-climbs pairwise swaps.\n\n{}",
            table.to_markdown()
        ),
        csv: Some(table.to_csv()),
    }
}

/// Reliability extension: makespan vs injected kernel-fault rate under
/// each recovery policy. Quantifies what each policy pays to keep the
/// workload's results: FailFast loses apps but no time, Retry buys the
/// failures back with serial re-runs, Degrade pays a full serialized
/// second pass.
pub fn fault_sweep(scale: Scale) -> ExperimentReport {
    let na = scale.pick(8, 4);
    let kinds = pair_workload(AppKind::Needle, AppKind::Knearest, na as usize);
    let rates: Vec<f64> = scale.pick(
        vec![0.0, 0.02, 0.05, 0.10, 0.20],
        vec![0.0, 0.05, 0.20],
    );
    let policies = [
        ("failfast", RecoveryPolicy::FailFast),
        (
            "retry(2)",
            RecoveryPolicy::Retry {
                max_attempts: 2,
                backoff: Dur::from_us(100),
            },
        ),
        ("degrade", RecoveryPolicy::Degrade),
    ];
    let jobs: Vec<(f64, &str, RecoveryPolicy)> = rates
        .iter()
        .flat_map(|&r| policies.iter().map(move |&(n, p)| (r, n, p)))
        .collect();
    let baseline = run_scenario_workload(&RunConfig::concurrent(na), &kinds)
        .expect("baseline")
        .makespan();
    let rows: Vec<_> = jobs
        .iter()
        .map(|&(rate, name, policy)| {
            let plan = FaultPlan::none()
                .with_rate(FaultKind::KernelFault, rate)
                .with_rate(FaultKind::CopyFail, rate / 2.0)
                .with_seed(0xfa);
            let cfg = RunConfig::concurrent(na)
                .with_faults(plan)
                .with_recovery(policy);
            let out = run_scenario_workload(&cfg, &kinds).expect("faulty run drains");
            let failed = out
                .result
                .apps
                .iter()
                .filter(|a| a.outcome.is_failed())
                .count();
            (
                rate,
                name,
                out.makespan(),
                failed,
                out.retries,
                out.degraded,
            )
        })
        .collect();
    let mut table = Table::new(vec![
        "fault rate",
        "policy",
        "makespan",
        "vs fault-free",
        "failed apps",
        "retries",
        "degraded",
    ]);
    for &(rate, name, mk, failed, retries, degraded) in &rows {
        let cost = (mk.as_ns() as f64 - baseline.as_ns() as f64) / baseline.as_ns() as f64;
        // Normalize -0.0 so identical makespans print "+0.0%".
        let cost = if cost == 0.0 { 0.0 } else { cost };
        table.row(vec![
            format!("{rate:.2}"),
            name.to_string(),
            mk.to_string(),
            pct(cost),
            failed.to_string(),
            retries.to_string(),
            degraded.to_string(),
        ]);
    }
    ExperimentReport {
        id: "ext_fault_sweep".into(),
        title: "Extension — makespan vs fault rate under each recovery policy".into(),
        markdown: format!(
            "{{needle, knearest}}, NA = NS = {na}; kernel faults injected at \
             the listed rate (copy faults at half of it, fault seed fixed). \
             'vs fault-free' is the makespan cost relative to the clean \
             baseline {baseline}.\n\n{}",
            table.to_markdown()
        ),
        csv: Some(table.to_csv()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "runs quick-scale simulations (slow in debug); exercised in release by scripts/ci.sh"]
    fn homogeneous_scaling_reports_all_kinds() {
        let r = homogeneous_scaling(Scale::Quick);
        for kind in AppKind::ALL {
            assert!(r.markdown.contains(kind.name()), "missing {kind}");
        }
    }

    #[test]
    #[ignore = "runs quick-scale simulations (slow in debug); exercised in release by scripts/ci.sh"]
    fn shuffle_study_spread_is_ordered() {
        let r = shuffle_study(Scale::Quick);
        assert!(r.markdown.contains("best shuffle"));
    }

    #[test]
    #[ignore = "runs quick-scale simulations (slow in debug); exercised in release by scripts/ci.sh"]
    fn fault_sweep_zero_rate_matches_baseline() {
        let r = fault_sweep(Scale::Quick);
        assert!(r.markdown.contains("failfast"));
        assert!(r.markdown.contains("retry(2)"));
        assert!(r.markdown.contains("degrade"));
        // The 0.00-rate rows must pay nothing vs the clean baseline.
        for line in r.markdown.lines().filter(|l| l.contains("| 0.00 |")) {
            assert!(line.contains("+0.0%"), "fault-free row costs time: {line}");
        }
    }

    #[test]
    #[ignore = "runs quick-scale simulations (slow in debug); exercised in release by scripts/ci.sh"]
    fn autosched_study_replays_consistently() {
        // The internal assert in autosched_study validates replay
        // determinism; reaching here means it held.
        let r = autosched_study(Scale::Quick);
        assert!(r.markdown.contains("Makespan"));
        assert!(r.markdown.contains("Energy"));
    }
}
