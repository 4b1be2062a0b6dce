//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes which device operations fail during a run:
//! *scripted* faults hit the n-th copy/kernel issued by a named
//! application, *probabilistic* faults strike each operation with a
//! configured rate drawn from a dedicated seeded RNG. The plan is
//! installed with [`crate::GpuSim::set_fault_plan`] before `run()`.
//!
//! Three fault kinds model the failure modes a production Hyper-Q
//! deployment must survive:
//!
//! * [`FaultKind::CopyFail`] — a DMA transfer errors out after the bus
//!   latency instead of moving data.
//! * [`FaultKind::KernelFault`] — a grid aborts after a fraction of its
//!   thread blocks complete (a device-side exception).
//! * [`FaultKind::KernelHang`] — a grid stops completing blocks while
//!   squatting on its SMX residency; only the watchdog
//!   ([`crate::config::HostConfig::watchdog_timeout`]) can reclaim it.
//!
//! All decisions come from a [`DetRng`] forked from the plan seed, never
//! from the simulator's own RNG — a run with an empty plan makes **zero**
//! fault-RNG draws and is bit-identical to a run without the subsystem.
//!
//! # Fault spec grammar
//!
//! [`FaultPlan::parse`] accepts a comma-separated clause list:
//!
//! ```text
//! copy@1        the first copy issued by app 1 fails
//! kernel@0:2    the third kernel issued by app 0 aborts partway
//! hang@3        the first kernel issued by app 3 hangs
//! copy%0.05     every copy fails with probability 0.05
//! kernel%0.01   every kernel aborts with probability 0.01
//! hang%0.005    every kernel hangs with probability 0.005
//! seed=42       seed for the probabilistic draws
//! progress=0.25 faulting kernels abort after 25% of their blocks
//! ```

use crate::types::AppId;
use hq_des::rng::DetRng;

/// The kinds of injected faults.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// A DMA transfer fails after the engine latency.
    CopyFail,
    /// A kernel aborts partway through its thread blocks.
    KernelFault,
    /// A kernel stops completing blocks; the watchdog must kill it.
    KernelHang,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultKind::CopyFail => "copy-fail",
            FaultKind::KernelFault => "kernel-fault",
            FaultKind::KernelHang => "kernel-hang",
        })
    }
}

/// A scripted fault: the `nth` (0-based) operation of the matching kind
/// issued by `app` fails. Copy specs count memcpys; kernel/hang specs
/// count kernel launches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultSpec {
    /// What goes wrong.
    pub kind: FaultKind,
    /// The application whose operation fails.
    pub app: AppId,
    /// Which occurrence of the matching operation kind (0-based).
    pub nth: u32,
}

/// Per-operation fault probabilities.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct FaultRates {
    /// Probability that any given copy fails.
    pub copy_fail: f64,
    /// Probability that any given kernel aborts partway.
    pub kernel_fault: f64,
    /// Probability that any given kernel hangs.
    pub kernel_hang: f64,
}

impl FaultRates {
    /// True when every rate is zero.
    pub fn is_zero(&self) -> bool {
        self.copy_fail == 0.0 && self.kernel_fault == 0.0 && self.kernel_hang == 0.0
    }
}

/// A complete, deterministic fault plan for one simulation run.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultPlan {
    /// Scripted faults (exact operation targeting).
    pub scripted: Vec<FaultSpec>,
    /// Probabilistic per-operation fault rates.
    pub rates: FaultRates,
    /// Seed for the probabilistic draws (independent of the sim seed).
    pub seed: u64,
    /// Fraction of a grid's blocks that complete before a
    /// [`FaultKind::KernelFault`] aborts it, clamped to `[0, 1)` of the
    /// block count at decision time.
    pub fault_progress: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults, and no fault-RNG draws at run time.
    pub fn none() -> Self {
        FaultPlan {
            scripted: Vec::new(),
            rates: FaultRates::default(),
            seed: 0,
            fault_progress: 0.5,
        }
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.scripted.is_empty() && self.rates.is_zero()
    }

    /// Builder: add a scripted fault.
    pub fn with_fault(mut self, kind: FaultKind, app: AppId, nth: u32) -> Self {
        self.scripted.push(FaultSpec { kind, app, nth });
        self
    }

    /// Builder: set a probabilistic rate for one fault kind.
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} outside [0, 1]");
        match kind {
            FaultKind::CopyFail => self.rates.copy_fail = rate,
            FaultKind::KernelFault => self.rates.kernel_fault = rate,
            FaultKind::KernelHang => self.rates.kernel_hang = rate,
        }
        self
    }

    /// Builder: set the probabilistic seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Parse the spec grammar (see the module docs).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(v) = clause.strip_prefix("seed=") {
                plan.seed = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad seed '{v}' in fault spec"))?;
            } else if let Some(v) = clause.strip_prefix("progress=") {
                let p: f64 = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad progress '{v}' in fault spec"))?;
                if !(0.0..1.0).contains(&p) {
                    return Err(format!("progress {p} must be in [0, 1)"));
                }
                plan.fault_progress = p;
            } else if let Some((kind, target)) = clause.split_once('@') {
                let kind = parse_kind(kind)?;
                let (app, nth) = match target.split_once(':') {
                    Some((a, n)) => (
                        parse_u32(a, "app id")?,
                        parse_u32(n, "occurrence index")?,
                    ),
                    None => (parse_u32(target, "app id")?, 0),
                };
                plan.scripted.push(FaultSpec {
                    kind,
                    app: AppId(app),
                    nth,
                });
            } else if let Some((kind, rate)) = clause.split_once('%') {
                let kind = parse_kind(kind)?;
                let rate: f64 = rate
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad rate '{rate}' in fault spec"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("rate {rate} must be in [0, 1]"));
                }
                plan = plan.with_rate(kind, rate);
            } else {
                return Err(format!(
                    "unrecognised fault clause '{clause}' (expected kind@app[:nth], kind%rate, seed=N, or progress=F)"
                ));
            }
        }
        Ok(plan)
    }
}

fn parse_kind(s: &str) -> Result<FaultKind, String> {
    match s.trim().to_ascii_lowercase().as_str() {
        "copy" => Ok(FaultKind::CopyFail),
        "kernel" => Ok(FaultKind::KernelFault),
        "hang" => Ok(FaultKind::KernelHang),
        other => Err(format!(
            "unknown fault kind '{other}' (expected copy, kernel, or hang)"
        )),
    }
}

fn parse_u32(s: &str, what: &str) -> Result<u32, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("bad {what} '{s}' in fault spec"))
}

/// How a doomed grid fails, decided when its launch activates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GridFault {
    /// Abort once this many blocks have completed (always fewer than the
    /// grid's block count).
    Abort {
        /// Completed-block threshold that triggers the abort.
        after_blocks: u32,
    },
    /// Never complete another block; residency is held until the
    /// watchdog evicts the grid.
    Hang,
}

/// Runtime fault-decision state, owned by the simulator.
///
/// Tracks per-application operation counts (for scripted targeting) and
/// owns the dedicated probabilistic RNG. An empty plan short-circuits
/// every decision without touching the RNG.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: DetRng,
    copies_seen: Vec<u32>,
    kernels_seen: Vec<u32>,
}

impl FaultState {
    /// Build the decision state for a plan.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = DetRng::seed_from_u64(plan.seed).fork(0xfa017);
        FaultState {
            plan,
            rng,
            copies_seen: Vec::new(),
            kernels_seen: Vec::new(),
        }
    }

    /// True when no fault can ever fire.
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// Decide whether the next copy issued by `app` fails. Counts the
    /// copy either way so scripted indices stay aligned.
    pub fn next_copy_fails(&mut self, app: AppId) -> bool {
        if self.plan.is_empty() {
            return false;
        }
        let n = bump(&mut self.copies_seen, app);
        if self
            .plan
            .scripted
            .iter()
            .any(|s| s.kind == FaultKind::CopyFail && s.app == app && s.nth == n)
        {
            return true;
        }
        self.plan.rates.copy_fail > 0.0 && self.rng.gen_bool(self.plan.rates.copy_fail)
    }

    /// Decide the fate of the next kernel issued by `app`; `blocks` is
    /// the grid's block count (used to place the abort threshold).
    pub fn next_kernel_fate(&mut self, app: AppId, blocks: u32) -> Option<GridFault> {
        if self.plan.is_empty() {
            return None;
        }
        let n = bump(&mut self.kernels_seen, app);
        let scripted = self
            .plan
            .scripted
            .iter()
            .find(|s| s.kind != FaultKind::CopyFail && s.app == app && s.nth == n)
            .map(|s| s.kind);
        let kind = scripted.or_else(|| {
            let r = self.plan.rates;
            if r.kernel_fault > 0.0 && self.rng.gen_bool(r.kernel_fault) {
                Some(FaultKind::KernelFault)
            } else if r.kernel_hang > 0.0 && self.rng.gen_bool(r.kernel_hang) {
                Some(FaultKind::KernelHang)
            } else {
                None
            }
        })?;
        Some(match kind {
            FaultKind::KernelFault => GridFault::Abort {
                after_blocks: abort_threshold(blocks, self.plan.fault_progress),
            },
            FaultKind::KernelHang => GridFault::Hang,
            FaultKind::CopyFail => unreachable!("copy fault matched a kernel"),
        })
    }
}

/// Threshold strictly below the block count so an aborting grid never
/// quietly completes (a zero-block threshold kills at dispatch).
fn abort_threshold(blocks: u32, progress: f64) -> u32 {
    if blocks == 0 {
        return 0;
    }
    ((blocks as f64 * progress) as u32).min(blocks - 1)
}

fn bump(counts: &mut Vec<u32>, app: AppId) -> u32 {
    if counts.len() <= app.index() {
        counts.resize(app.index() + 1, 0);
    }
    let n = counts[app.index()];
    counts[app.index()] += 1;
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_faults() {
        let mut fs = FaultState::new(FaultPlan::none());
        assert!(fs.is_empty());
        for i in 0..100 {
            assert!(!fs.next_copy_fails(AppId(i % 4)));
            assert_eq!(fs.next_kernel_fate(AppId(i % 4), 64), None);
        }
    }

    #[test]
    fn scripted_copy_hits_exact_occurrence() {
        let plan = FaultPlan::none().with_fault(FaultKind::CopyFail, AppId(1), 2);
        let mut fs = FaultState::new(plan);
        assert!(!fs.next_copy_fails(AppId(1))); // 0th
        assert!(!fs.next_copy_fails(AppId(0))); // other app
        assert!(!fs.next_copy_fails(AppId(1))); // 1st
        assert!(fs.next_copy_fails(AppId(1))); // 2nd -> fault
        assert!(!fs.next_copy_fails(AppId(1))); // 3rd
    }

    #[test]
    fn scripted_kernel_fates() {
        let plan = FaultPlan::none()
            .with_fault(FaultKind::KernelFault, AppId(0), 0)
            .with_fault(FaultKind::KernelHang, AppId(2), 1);
        let mut fs = FaultState::new(plan);
        assert_eq!(
            fs.next_kernel_fate(AppId(0), 64),
            Some(GridFault::Abort { after_blocks: 32 })
        );
        assert_eq!(fs.next_kernel_fate(AppId(2), 8), None);
        assert_eq!(fs.next_kernel_fate(AppId(2), 8), Some(GridFault::Hang));
    }

    #[test]
    fn abort_threshold_stays_below_block_count() {
        assert_eq!(abort_threshold(1, 0.5), 0);
        assert_eq!(abort_threshold(2, 0.99), 1);
        assert_eq!(abort_threshold(64, 0.5), 32);
        assert_eq!(abort_threshold(0, 0.5), 0);
    }

    #[test]
    fn probabilistic_rates_are_deterministic_per_seed() {
        let plan = FaultPlan::none()
            .with_rate(FaultKind::CopyFail, 0.3)
            .with_seed(7);
        let run = |plan: FaultPlan| -> Vec<bool> {
            let mut fs = FaultState::new(plan);
            (0..64).map(|_| fs.next_copy_fails(AppId(0))).collect()
        };
        let a = run(plan.clone());
        let b = run(plan.clone());
        assert_eq!(a, b, "same seed, same decisions");
        assert!(a.iter().any(|&f| f), "rate 0.3 over 64 draws fires");
        assert!(!a.iter().all(|&f| f), "rate 0.3 is not always");
        let c = run(plan.with_seed(8));
        assert_ne!(a, c, "different seed, different decisions");
    }

    #[test]
    fn parse_full_grammar() {
        let plan =
            FaultPlan::parse("copy@1, kernel@0:2, hang@3, copy%0.05, seed=42, progress=0.25")
                .unwrap();
        assert_eq!(
            plan.scripted,
            vec![
                FaultSpec {
                    kind: FaultKind::CopyFail,
                    app: AppId(1),
                    nth: 0
                },
                FaultSpec {
                    kind: FaultKind::KernelFault,
                    app: AppId(0),
                    nth: 2
                },
                FaultSpec {
                    kind: FaultKind::KernelHang,
                    app: AppId(3),
                    nth: 0
                },
            ]
        );
        assert_eq!(plan.rates.copy_fail, 0.05);
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.fault_progress, 0.25);
        assert!(!plan.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("explode@1").is_err());
        assert!(FaultPlan::parse("copy@x").is_err());
        assert!(FaultPlan::parse("copy%1.5").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("progress=1.0").is_err());
        assert!(FaultPlan::parse("wat").is_err());
    }

    #[test]
    fn parse_empty_spec_is_empty_plan() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::none());
    }
}
