//! Dynamic schedule search (the paper's §VI future work).
//!
//! The paper closes by envisioning a `Scheduler` class that
//! "dynamically modif[ies] the schedule and adjust[s] queue orders to
//! optimize on different objectives, such as power management". This
//! module implements that sketch as a greedy local search: start from
//! the best of the five canonical orders, then hill-climb over pairwise
//! swaps of the launch queue, evaluating each candidate on the
//! simulated device and keeping improvements. The objective is
//! pluggable (makespan or energy), matching the paper's throughput /
//! power-management framing.

use crate::harness::{build_schedule, run_schedule, AppSpec, RunConfig, RunOutcome};
use crate::ordering::ScheduleOrder;
use hq_des::rng::DetRng;
use hq_gpu::result::SimError;
use hq_workloads::apps::AppKind;

/// How the search evaluates one candidate schedule. Callers that
/// memoize deterministic runs (e.g. `hq-bench`'s scenario cache) pass
/// their cached entry point here so repeated candidates cost nothing.
pub type Runner = fn(&RunConfig, &[AppSpec]) -> Result<RunOutcome, SimError>;

/// What the scheduler optimizes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Objective {
    /// Minimize workload makespan (throughput).
    Makespan,
    /// Minimize total GPU energy (power management).
    Energy,
}

impl Objective {
    fn score(self, out: &RunOutcome) -> f64 {
        match self {
            Objective::Makespan => out.makespan().as_ns() as f64,
            Objective::Energy => out.energy_j(),
        }
    }
}

/// Result of a schedule search.
#[derive(Debug)]
pub struct SearchResult {
    /// The best schedule found.
    pub schedule: Vec<AppSpec>,
    /// Its outcome.
    pub outcome: RunOutcome,
    /// Objective value of the best schedule.
    pub best_score: f64,
    /// Objective value of the best *canonical* order (the improvement
    /// attributable to dynamic search is `canonical_score − best_score`).
    pub canonical_score: f64,
    /// Number of simulations evaluated.
    pub evaluations: usize,
}

/// Greedy dynamic scheduler.
#[derive(Clone, Copy, Debug)]
pub struct AutoScheduler {
    /// Objective to minimize.
    pub objective: Objective,
    /// Number of swap candidates to evaluate after seeding from the
    /// canonical orders.
    pub swap_budget: usize,
    /// Search randomness seed.
    pub seed: u64,
}

impl AutoScheduler {
    /// A scheduler with a modest default budget.
    pub fn new(objective: Objective) -> Self {
        AutoScheduler {
            objective,
            swap_budget: 20,
            seed: 0x5EED,
        }
    }

    /// Search launch orders for `kinds` under `cfg`, simulating each
    /// candidate directly with [`run_schedule`].
    pub fn optimize(&self, cfg: &RunConfig, kinds: &[AppKind]) -> SearchResult {
        self.optimize_with(run_schedule, cfg, kinds)
    }

    /// Like [`AutoScheduler::optimize`], but every candidate evaluation
    /// goes through `runner` — the hook a memoizing harness uses to
    /// serve repeated candidates from its scenario cache.
    pub fn optimize_with(&self, runner: Runner, cfg: &RunConfig, kinds: &[AppKind]) -> SearchResult {
        let mut evals = 0;
        // Seed: best of the five canonical orders.
        let mut best_specs: Option<Vec<AppSpec>> = None;
        let mut best_out: Option<RunOutcome> = None;
        let mut best_score = f64::INFINITY;
        for order in ScheduleOrder::ALL {
            let specs = build_schedule(kinds, order, cfg.seed);
            let out = runner(cfg, &specs).expect("schedule runs");
            evals += 1;
            let s = self.objective.score(&out);
            if s < best_score {
                best_score = s;
                best_specs = Some(specs);
                best_out = Some(out);
            }
        }
        let canonical_score = best_score;
        let mut best_specs = best_specs.expect("at least one order evaluated");
        let mut best_out = best_out.expect("at least one order evaluated");

        // Hill-climb: random pairwise swaps, keep improvements.
        let mut rng = DetRng::seed_from_u64(self.seed);
        let n = best_specs.len();
        if n >= 2 {
            for _ in 0..self.swap_budget {
                let i = rng.gen_range(0..n);
                let j = rng.gen_range(0..n);
                if i == j || best_specs[i] == best_specs[j] {
                    continue;
                }
                let mut cand = best_specs.clone();
                cand.swap(i, j);
                let out = runner(cfg, &cand).expect("schedule runs");
                evals += 1;
                let s = self.objective.score(&out);
                if s < best_score {
                    best_score = s;
                    best_specs = cand;
                    best_out = out;
                }
            }
        }
        SearchResult {
            schedule: best_specs,
            outcome: best_out,
            best_score,
            canonical_score,
            evaluations: evals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::pair_workload;

    #[test]
    fn search_never_worse_than_canonical() {
        let cfg = RunConfig::concurrent(4);
        let kinds = pair_workload(AppKind::Knearest, AppKind::Needle, 4);
        let sched = AutoScheduler {
            objective: Objective::Makespan,
            swap_budget: 6,
            seed: 1,
        };
        let res = sched.optimize(&cfg, &kinds);
        assert!(res.best_score <= res.canonical_score);
        assert_eq!(res.schedule.len(), 4);
        assert!(res.evaluations >= 5, "all canonical orders evaluated");
    }

    #[test]
    fn energy_objective_scores_energy() {
        let cfg = RunConfig::concurrent(2);
        let kinds = pair_workload(AppKind::Knearest, AppKind::Needle, 2);
        let sched = AutoScheduler {
            objective: Objective::Energy,
            swap_budget: 2,
            seed: 2,
        };
        let res = sched.optimize(&cfg, &kinds);
        assert!((res.best_score - res.outcome.energy_j()).abs() < 1e-9);
    }

    #[test]
    fn schedule_is_a_permutation_of_input() {
        let cfg = RunConfig::concurrent(4);
        let kinds = pair_workload(AppKind::Knearest, AppKind::Needle, 6);
        let res = AutoScheduler::new(Objective::Makespan).optimize(&cfg, &kinds);
        let mut got: Vec<AppKind> = res.schedule.iter().map(|&(k, _)| k).collect();
        let mut want = kinds.clone();
        got.sort_by_key(|k| k.name());
        want.sort_by_key(|k| k.name());
        assert_eq!(got, want);
    }
}
