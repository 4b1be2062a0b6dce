//! # hq-bench — the experiment harness
//!
//! One module (and one binary) per table/figure of the paper's
//! evaluation, plus the ablations DESIGN.md calls out. Every experiment
//! follows the same contract: a `run(scale) -> ExperimentReport`
//! function that executes the simulations, prints the paper-comparable
//! rows, and saves markdown/CSV artifacts under `results/`.
//!
//! Binaries accept `--quick` (or `HQ_QUICK=1`) to run a reduced-scale
//! variant for smoke testing; the full scale reproduces the paper's
//! parameters (up to `NA = 32` applications on `NS = 32` streams).

pub mod chaos;
pub mod experiments;
pub mod scenario;
pub mod service;
pub mod soak;
pub mod suite;
pub mod torture;
pub mod util;

pub use scenario::{run_scenario, run_scenario_workload};
pub use util::{ExperimentReport, Scale};
