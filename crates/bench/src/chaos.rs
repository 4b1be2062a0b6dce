//! Chaos soak: randomized config × workload × fault cases run under the
//! online invariant auditor. The generic driver, shrinker and repro
//! codec live in [`crate::soak`]; this module supplies the [`Chaos`]
//! soak: the case type, its generator, the audited simulation and the
//! repro field layout.
//!
//! [`Chaos::gen`] draws a [`CaseSpec`] — a fully self-describing
//! simulation case (device geometry, per-app workload, fault plan) —
//! from a seeded [`DetRng`]; the generator only emits cases whose
//! *expected* outcome is a clean run (apps `Completed` or `Failed`, zero
//! audit violations, `validate()` empty). In particular a watchdog is
//! always armed when hang faults are possible, so a deadlock is a bug,
//! never an expected outcome. [`Chaos::run`] builds the simulator with
//! the auditor enabled, runs it (panics caught), and classifies the
//! outcome.
//!
//! Everything is deterministic: the same soak seed yields the same
//! cases, outcomes and repro files. Chaos repros carry no `"kind"`
//! field (they predate it).

use crate::soak::{guarded, Outcome, OutcomeOf, Soak, REPRO_VERSION};
use hq_des::json::Json;
use hq_des::rng::DetRng;
use hq_des::time::Dur;
use hq_gpu::prelude::*;
use hq_gpu::validate::validate;

// ---------------------------------------------------------------------
// Case specification
// ---------------------------------------------------------------------

/// One kernel launch in a chaos case. Sizes are chosen so any kernel
/// fits the Kepler per-SMX limits and one block always completes well
/// inside a watchdog window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelSpec {
    /// Thread blocks (1..=64).
    pub blocks: u32,
    /// Threads per block (32..=256, warp multiple).
    pub tpb: u32,
    /// Nominal single-block time, microseconds (1..=50).
    pub work_us: u32,
    /// Shared memory per block, KiB (0..=8).
    pub smem_kb: u32,
    /// Registers per thread (16..=48).
    pub regs: u32,
}

/// One application (host thread) in a chaos case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppSpec {
    /// Stream index this app issues to (sharing allowed).
    pub stream: u32,
    /// HtoD transfer size, KiB (1..).
    pub htod_kb: u32,
    /// DtoH transfer size, KiB (1..).
    pub dtoh_kb: u32,
    /// Kernel launches, in order (≥ 1).
    pub kernels: Vec<KernelSpec>,
    /// Wrap the HtoD stage in the transfer mutex (paper §III-B).
    pub use_mutex: bool,
    /// When using the mutex, hold it across a stream sync.
    pub mutex_sync: bool,
}

/// One scripted fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScriptedFault {
    /// Fault class.
    pub kind: FaultKind,
    /// Target app index.
    pub app: u32,
    /// Zero-based occurrence of the matching op kind.
    pub nth: u32,
}

/// A fully self-describing chaos case. Every field round-trips through
/// the JSON repro format exactly (rates are per-mille integers for that
/// reason).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseSpec {
    /// Simulation RNG seed.
    pub seed: u64,
    /// SMX count (1..=16).
    pub num_smx: u32,
    /// Hardware work queues (1, 4 or 32).
    pub hw_queues: u32,
    /// Conservative-fit admission instead of the lazy LEFTOVER policy.
    pub conservative_fit: bool,
    /// Issue-order DMA arbitration instead of stream interleaving.
    pub issue_order: bool,
    /// DMA chunk size in KiB (0 = unchunked).
    pub chunk_kb: u32,
    /// Thread launch stagger, microseconds.
    pub stagger_us: u32,
    /// Mean host jitter, nanoseconds (0 = none; still deterministic —
    /// jitter draws from the seeded simulation RNG).
    pub jitter_ns: u32,
    /// Watchdog timeout, microseconds (0 = no watchdog). Always nonzero
    /// when hang faults are possible.
    pub watchdog_us: u32,
    /// Applications.
    pub apps: Vec<AppSpec>,
    /// Scripted faults.
    pub faults: Vec<ScriptedFault>,
    /// Probabilistic copy-fail rate, per mille.
    pub copy_fail_pm: u32,
    /// Probabilistic kernel-fault rate, per mille.
    pub kernel_fault_pm: u32,
    /// Probabilistic kernel-hang rate, per mille.
    pub kernel_hang_pm: u32,
    /// Fault RNG seed.
    pub fault_seed: u64,
}

impl CaseSpec {
    /// True when any hang fault can occur (scripted or probabilistic).
    pub fn hangs_possible(&self) -> bool {
        self.kernel_hang_pm > 0
            || self
                .faults
                .iter()
                .any(|f| f.kind == FaultKind::KernelHang)
    }
}

// ---------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------

fn gen_kernel(rng: &mut DetRng) -> KernelSpec {
    KernelSpec {
        blocks: rng.gen_range(1u32..=64),
        tpb: 32 * rng.gen_range(1u32..=8),
        work_us: rng.gen_range(1u32..=50),
        smem_kb: rng.gen_range(0u32..=8),
        regs: rng.gen_range(16u32..=48),
    }
}

/// Draw one random case. The generator keeps every case inside the
/// "expected clean" envelope documented on the module: kernels fit
/// the SMX limits, no program deadlocks by construction, and the
/// watchdog is armed whenever a hang is possible.
pub fn gen_case(rng: &mut DetRng) -> CaseSpec {
    let napps = rng.gen_range(1usize..=5);
    let nstreams = rng.gen_range(1u32..=napps as u32);
    let apps: Vec<AppSpec> = (0..napps)
        .map(|_| {
            let nk = rng.gen_range(1usize..=3);
            AppSpec {
                stream: rng.gen_range(0u32..nstreams),
                htod_kb: rng.gen_range(1u32..=2048),
                dtoh_kb: rng.gen_range(1u32..=2048),
                kernels: (0..nk).map(|_| gen_kernel(rng)).collect(),
                use_mutex: rng.gen_bool(0.3),
                mutex_sync: rng.gen_bool(0.5),
            }
        })
        .collect();

    // Fault plan: a few scripted strikes plus optional background rates.
    let nfaults = rng.gen_range(0usize..=2);
    let kinds = [
        FaultKind::CopyFail,
        FaultKind::KernelFault,
        FaultKind::KernelHang,
    ];
    let faults: Vec<ScriptedFault> = (0..nfaults)
        .map(|_| ScriptedFault {
            kind: *rng.choose(&kinds).expect("non-empty"),
            app: rng.gen_range(0u32..napps as u32),
            nth: rng.gen_range(0u32..=2),
        })
        .collect();
    let rate = |rng: &mut DetRng| {
        if rng.gen_bool(0.3) {
            rng.gen_range(1u32..=150)
        } else {
            0
        }
    };
    let (copy_fail_pm, kernel_fault_pm, kernel_hang_pm) = (rate(rng), rate(rng), rate(rng));

    let mut spec = CaseSpec {
        seed: rng.gen_range(0u64..u64::MAX),
        num_smx: rng.gen_range(1u32..=16),
        hw_queues: *rng.choose(&[1u32, 4, 32]).expect("non-empty"),
        conservative_fit: rng.gen_bool(0.3),
        issue_order: rng.gen_bool(0.3),
        chunk_kb: *rng.choose(&[0u32, 256, 1024]).expect("non-empty"),
        stagger_us: rng.gen_range(0u32..=50),
        jitter_ns: if rng.gen_bool(0.5) {
            rng.gen_range(1u32..=2000)
        } else {
            0
        },
        watchdog_us: 0,
        apps,
        faults,
        copy_fail_pm,
        kernel_fault_pm,
        kernel_hang_pm,
        fault_seed: rng.gen_range(0u64..u64::MAX),
    };
    // A hang without a watchdog deadlocks by design — force one. The
    // 2–5 ms window is ≥ 5× the slowest possible block group (50 µs ×
    // 8× max processor-sharing stretch), so progressing grids are
    // never falsely killed, while starvation kills of grids stuck
    // waiting for space remain legitimate outcomes.
    if spec.hangs_possible() || rng.gen_bool(0.3) {
        spec.watchdog_us = rng.gen_range(2_000u32..=5_000);
    }
    spec
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Failure category: shrinking only accepts candidates that fail in the
/// same category, so the minimized case reproduces the original class
/// of bug rather than morphing into a different one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The online auditor tripped (`SimError::AuditFailure`).
    Audit,
    /// The run deadlocked (generated cases must never deadlock).
    Deadlock,
    /// `run()` returned some other error.
    Error,
    /// Post-run `validate()` reported violations.
    Validate,
    /// The simulator panicked.
    Panic,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

/// Tallies of a passing chaos case.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Events popped by the case's event loop, so a soak can report
    /// events/s throughput.
    pub events: u64,
}

impl std::ops::AddAssign for ChaosStats {
    fn add_assign(&mut self, other: ChaosStats) {
        self.events += other.events;
    }
}

impl std::fmt::Display for ChaosStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} events", self.events)
    }
}

/// Outcome of one chaos case.
pub type CaseOutcome = OutcomeOf<Chaos>;

impl CaseOutcome {
    /// Events processed by a passing case (0 for failures).
    pub fn events(&self) -> u64 {
        match self {
            Outcome::Pass(stats) => stats.events,
            Outcome::Fail(..) => 0,
        }
    }
}

fn build_sim(spec: &CaseSpec) -> GpuSim {
    let mut dev = DeviceConfig::tesla_k20();
    dev.num_smx = spec.num_smx.max(1);
    dev.hw_queues = spec.hw_queues.max(1);
    dev.admission = if spec.conservative_fit {
        AdmissionPolicy::ConservativeFit
    } else {
        AdmissionPolicy::Lazy
    };
    dev.dma.service_order = if spec.issue_order {
        ServiceOrder::IssueOrder
    } else {
        ServiceOrder::StreamInterleaved
    };
    dev.dma.chunk_bytes = if spec.chunk_kb > 0 {
        Some(spec.chunk_kb as u64 * 1024)
    } else {
        None
    };
    let mut host = HostConfig::deterministic();
    host.thread_launch_stagger = Dur::from_us(spec.stagger_us as u64);
    host.jitter_mean = Dur::from_ns(spec.jitter_ns as u64);
    if spec.watchdog_us > 0 {
        host = host.with_watchdog(Dur::from_us(spec.watchdog_us as u64));
    }

    let mut sim = GpuSim::with_trace(dev, host, spec.seed, false);
    sim.enable_audit();

    let mut plan = FaultPlan::none().with_seed(spec.fault_seed);
    for f in &spec.faults {
        plan = plan.with_fault(f.kind, AppId(f.app), f.nth);
    }
    plan = plan
        .with_rate(FaultKind::CopyFail, spec.copy_fail_pm as f64 / 1000.0)
        .with_rate(FaultKind::KernelFault, spec.kernel_fault_pm as f64 / 1000.0)
        .with_rate(FaultKind::KernelHang, spec.kernel_hang_pm as f64 / 1000.0);
    sim.set_fault_plan(plan);

    let nstreams = spec
        .apps
        .iter()
        .map(|a| a.stream + 1)
        .max()
        .unwrap_or(1);
    let streams = sim.create_streams(nstreams);
    let mutex = sim.create_mutex();
    for (i, a) in spec.apps.iter().enumerate() {
        let mut b = Program::builder(format!("app{i}")).htod(a.htod_kb as u64 * 1024, "in");
        for (j, k) in a.kernels.iter().enumerate() {
            b = b.launch(
                KernelDesc::new(
                    format!("k{j}"),
                    k.blocks.max(1),
                    k.tpb.clamp(1, 1024),
                    Dur::from_us(k.work_us.max(1) as u64),
                )
                .with_smem(k.smem_kb * 1024)
                .with_regs(k.regs.max(1)),
            );
        }
        let mut p = b.dtoh(a.dtoh_kb as u64 * 1024, "out").sync().build();
        if a.use_mutex {
            p = p.with_htod_mutex(mutex, a.mutex_sync);
        }
        sim.add_app(p, streams[a.stream as usize]);
    }
    sim
}

/// Classify one simulation result.
fn classify(run: Result<SimResult, SimError>) -> CaseOutcome {
    match run {
        Err(e @ SimError::AuditFailure { .. }) => Outcome::Fail(FailureKind::Audit, e.to_string()),
        Err(e @ SimError::Deadlock { .. }) => Outcome::Fail(FailureKind::Deadlock, e.to_string()),
        Err(e) => Outcome::Fail(FailureKind::Error, e.to_string()),
        Ok(result) => {
            let violations = validate(&result);
            if violations.is_empty() {
                Outcome::Pass(ChaosStats {
                    events: result.events,
                })
            } else {
                Outcome::Fail(
                    FailureKind::Validate,
                    violations
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join("; "),
                )
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shrinking and the repro layout
// ---------------------------------------------------------------------

fn drop_app(spec: &CaseSpec, i: usize) -> CaseSpec {
    let mut s = spec.clone();
    s.apps.remove(i);
    // Re-target scripted faults: drop those aimed at the removed app,
    // shift higher indices down.
    s.faults.retain(|f| f.app != i as u32);
    for f in &mut s.faults {
        if f.app > i as u32 {
            f.app -= 1;
        }
    }
    s
}

fn fault_kind_from_str(s: &str) -> Result<FaultKind, String> {
    match s {
        "copy-fail" => Ok(FaultKind::CopyFail),
        "kernel-fault" => Ok(FaultKind::KernelFault),
        "kernel-hang" => Ok(FaultKind::KernelHang),
        other => Err(format!("unknown fault kind '{other}'")),
    }
}

/// Serialize a case (with format version) into a pretty JSON repro.
pub fn case_to_json(spec: &CaseSpec) -> String {
    let apps = spec.apps.iter().map(|a| {
        let kernels = a.kernels.iter().map(|k| {
            Json::obj([
                ("blocks", k.blocks.into()),
                ("tpb", k.tpb.into()),
                ("work_us", k.work_us.into()),
                ("smem_kb", k.smem_kb.into()),
                ("regs", k.regs.into()),
            ])
        });
        Json::obj([
            ("stream", a.stream.into()),
            ("htod_kb", a.htod_kb.into()),
            ("dtoh_kb", a.dtoh_kb.into()),
            ("use_mutex", a.use_mutex.into()),
            ("mutex_sync", a.mutex_sync.into()),
            ("kernels", Json::Arr(kernels.collect())),
        ])
    });
    let faults = spec.faults.iter().map(|f| {
        Json::obj([
            ("kind", f.kind.to_string().into()),
            ("app", f.app.into()),
            ("nth", f.nth.into()),
        ])
    });
    Json::obj([
        ("version", REPRO_VERSION.into()),
        ("seed", spec.seed.into()),
        ("num_smx", spec.num_smx.into()),
        ("hw_queues", spec.hw_queues.into()),
        ("conservative_fit", spec.conservative_fit.into()),
        ("issue_order", spec.issue_order.into()),
        ("chunk_kb", spec.chunk_kb.into()),
        ("stagger_us", spec.stagger_us.into()),
        ("jitter_ns", spec.jitter_ns.into()),
        ("watchdog_us", spec.watchdog_us.into()),
        ("apps", Json::Arr(apps.collect())),
        ("faults", Json::Arr(faults.collect())),
        ("copy_fail_pm", spec.copy_fail_pm.into()),
        ("kernel_fault_pm", spec.kernel_fault_pm.into()),
        ("kernel_hang_pm", spec.kernel_hang_pm.into()),
        ("fault_seed", spec.fault_seed.into()),
    ])
    .pretty()
}

// ---------------------------------------------------------------------
// The soak
// ---------------------------------------------------------------------

/// The chaos soak over the simulator (see the module docs).
pub struct Chaos;

impl Soak for Chaos {
    type Case = CaseSpec;
    type Failure = FailureKind;
    type Stats = ChaosStats;
    const KIND: &'static str = "chaos";
    const SHRINK_ROUNDS: usize = 200;
    const PANIC: FailureKind = FailureKind::Panic;

    fn gen(rng: &mut DetRng) -> CaseSpec {
        gen_case(rng)
    }

    /// Build and run one case with the auditor enabled; classify the
    /// outcome.
    fn run(spec: &CaseSpec) -> CaseOutcome {
        guarded::<Chaos>(|| classify(build_sim(spec).run()))
    }

    /// Drop apps, drop faults, zero rates, shrink sizes, simplify the
    /// device.
    fn candidates(spec: &CaseSpec) -> Vec<CaseSpec> {
        let mut out = Vec::new();
        // Drop whole apps (biggest wins first).
        for i in 0..spec.apps.len() {
            if spec.apps.len() > 1 {
                out.push(drop_app(spec, i));
            }
        }
        // Drop scripted faults.
        for i in 0..spec.faults.len() {
            let mut s = spec.clone();
            s.faults.remove(i);
            out.push(s);
        }
        // Zero background rates.
        for f in [
            |s: &mut CaseSpec| s.copy_fail_pm = 0,
            |s: &mut CaseSpec| s.kernel_fault_pm = 0,
            |s: &mut CaseSpec| s.kernel_hang_pm = 0,
        ] {
            let mut s = spec.clone();
            f(&mut s);
            if s != *spec {
                out.push(s);
            }
        }
        // Per-app simplifications.
        for i in 0..spec.apps.len() {
            let a = &spec.apps[i];
            if a.kernels.len() > 1 {
                let mut s = spec.clone();
                s.apps[i].kernels.truncate(1);
                out.push(s);
            }
            if a.htod_kb > 1 || a.dtoh_kb > 1 {
                let mut s = spec.clone();
                s.apps[i].htod_kb = (a.htod_kb / 2).max(1);
                s.apps[i].dtoh_kb = (a.dtoh_kb / 2).max(1);
                out.push(s);
            }
            if a.use_mutex {
                let mut s = spec.clone();
                s.apps[i].use_mutex = false;
                out.push(s);
            }
            for (j, k) in a.kernels.iter().enumerate() {
                if k.blocks > 1 || k.work_us > 1 {
                    let mut s = spec.clone();
                    s.apps[i].kernels[j].blocks = (k.blocks / 2).max(1);
                    s.apps[i].kernels[j].work_us = (k.work_us / 2).max(1);
                    out.push(s);
                }
                if k.smem_kb > 0 || k.regs > 16 {
                    let mut s = spec.clone();
                    s.apps[i].kernels[j].smem_kb = 0;
                    s.apps[i].kernels[j].regs = 16;
                    out.push(s);
                }
            }
        }
        // Device simplifications.
        for f in [
            |s: &mut CaseSpec| s.chunk_kb = 0,
            |s: &mut CaseSpec| s.issue_order = false,
            |s: &mut CaseSpec| s.conservative_fit = false,
            |s: &mut CaseSpec| s.jitter_ns = 0,
            |s: &mut CaseSpec| s.stagger_us = 0,
            |s: &mut CaseSpec| s.hw_queues = 32,
            |s: &mut CaseSpec| s.num_smx = 13,
            |s: &mut CaseSpec| {
                if !s.hangs_possible() {
                    s.watchdog_us = 0;
                }
            },
        ] {
            let mut s = spec.clone();
            f(&mut s);
            if s != *spec {
                out.push(s);
            }
        }
        out
    }

    fn to_json(case: &CaseSpec) -> String {
        case_to_json(case)
    }

    /// Every integer must fit its field: an oversized value is an error,
    /// never a silently truncated case.
    fn from_json(root: &Json) -> Result<CaseSpec, String> {
        let mut apps = Vec::new();
        for a in root.arr("apps")? {
            let mut kernels = Vec::new();
            for k in a.arr("kernels")? {
                kernels.push(KernelSpec {
                    blocks: k.int("blocks")?,
                    tpb: k.int("tpb")?,
                    work_us: k.int("work_us")?,
                    smem_kb: k.int("smem_kb")?,
                    regs: k.int("regs")?,
                });
            }
            if kernels.is_empty() {
                return Err("app with no kernels".into());
            }
            apps.push(AppSpec {
                stream: a.int("stream")?,
                htod_kb: a.int("htod_kb")?,
                dtoh_kb: a.int("dtoh_kb")?,
                kernels,
                use_mutex: a.boolean("use_mutex")?,
                mutex_sync: a.boolean("mutex_sync")?,
            });
        }
        if apps.is_empty() {
            return Err("repro has no apps".into());
        }
        let mut faults = Vec::new();
        for f in root.arr("faults")? {
            faults.push(ScriptedFault {
                kind: fault_kind_from_str(f.str_field("kind")?)?,
                app: f.int("app")?,
                nth: f.int("nth")?,
            });
        }
        Ok(CaseSpec {
            seed: root.num("seed")?,
            num_smx: root.int("num_smx")?,
            hw_queues: root.int("hw_queues")?,
            conservative_fit: root.boolean("conservative_fit")?,
            issue_order: root.boolean("issue_order")?,
            chunk_kb: root.int("chunk_kb")?,
            stagger_us: root.int("stagger_us")?,
            jitter_ns: root.int("jitter_ns")?,
            watchdog_us: root.int("watchdog_us")?,
            apps,
            faults,
            copy_fail_pm: root.int("copy_fail_pm")?,
            kernel_fault_pm: root.int("kernel_fault_pm")?,
            kernel_hang_pm: root.int("kernel_hang_pm")?,
            fault_seed: root.num("fault_seed")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soak::{parse_repro, shrink, write_repro};

    #[test]
    fn generated_cases_round_trip_through_json() {
        let mut rng = DetRng::seed_from_u64(42);
        for _ in 0..50 {
            let spec = gen_case(&mut rng);
            let json = case_to_json(&spec);
            let back = parse_repro::<Chaos>(&json).expect("parse back");
            assert_eq!(spec, back, "JSON round-trip changed the case");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a: Vec<CaseSpec> = {
            let mut rng = DetRng::seed_from_u64(7);
            (0..10).map(|_| gen_case(&mut rng)).collect()
        };
        let b: Vec<CaseSpec> = {
            let mut rng = DetRng::seed_from_u64(7);
            (0..10).map(|_| gen_case(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn hangs_always_come_with_a_watchdog() {
        let mut rng = DetRng::seed_from_u64(1234);
        for _ in 0..200 {
            let spec = gen_case(&mut rng);
            if spec.hangs_possible() {
                assert!(spec.watchdog_us > 0, "hang case without watchdog: {spec:?}");
            }
        }
    }

    #[test]
    fn small_soak_passes_clean() {
        let mut rng = DetRng::seed_from_u64(2026);
        for i in 0..20 {
            let spec = gen_case(&mut rng);
            let outcome = Chaos::run(&spec);
            assert!(
                outcome.passed(),
                "case {i} failed: {outcome:?}\nspec: {spec:?}"
            );
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_repro::<Chaos>("").is_err());
        assert!(parse_repro::<Chaos>("{}").is_err());
        assert!(parse_repro::<Chaos>("{\"version\": 999}").is_err());
        assert!(parse_repro::<Chaos>("not json at all").is_err());
    }

    /// A value that does not fit its field is rejected rather than
    /// truncated: `"blocks": 4294967297` must not replay as 1 block.
    #[test]
    fn oversized_fields_are_rejected() {
        let mut spec = gen_case(&mut DetRng::seed_from_u64(4));
        spec.apps[0].kernels[0].blocks = 7;
        let json = case_to_json(&spec);
        let blocks = json.replacen("\"blocks\": 7,", "\"blocks\": 4294967297,", 1);
        let err = parse_repro::<Chaos>(&blocks).unwrap_err();
        assert!(err.contains("'blocks' out of range"), "{err}");
        let smx = json.replace(
            &format!("\"num_smx\": {},", spec.num_smx),
            "\"num_smx\": 4294967296,",
        );
        let err = parse_repro::<Chaos>(&smx).unwrap_err();
        assert!(err.contains("'num_smx' out of range"), "{err}");
    }

    /// A torn repro file (crash mid-write before `write_repro` existed,
    /// disk-full copy, manual truncation) must yield a clean parse error
    /// from every byte prefix — never a panic. This is the contract
    /// `hyperq repro` relies on to turn unusable files into one-line
    /// `error:` messages.
    #[test]
    fn truncated_repro_is_a_clean_parse_error() {
        let spec = gen_case(&mut DetRng::seed_from_u64(31));
        let json = case_to_json(&spec);
        // Every cut before the closing brace loses structure; cuts after
        // it only trim trailing whitespace and still parse.
        for cut in 0..json.trim_end().len() {
            if !json.is_char_boundary(cut) {
                continue;
            }
            assert!(
                parse_repro::<Chaos>(&json[..cut]).is_err(),
                "prefix of {cut} bytes parsed as a full case"
            );
        }
        assert!(parse_repro::<Chaos>(&json).is_ok());
    }

    /// `write_repro` round-trips through `parse_repro` and leaves no
    /// temp file behind.
    #[test]
    fn write_repro_round_trips() {
        let dir = std::env::temp_dir().join(format!("hq_write_repro_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("case.json");
        let spec = gen_case(&mut DetRng::seed_from_u64(8));
        write_repro::<Chaos>(&path, &spec).unwrap();
        let back = parse_repro::<Chaos>(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(spec, back);
        assert!(!dir.join("case.json.tmp").exists(), "temp file left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// End-to-end shrink demo with a synthetic oracle: a specific
    /// "bug" (kernel-fault against app 0 while more than one app is
    /// present... deliberately broad) must shrink to a minimal failing
    /// case that still round-trips through a repro file.
    #[test]
    fn shrinker_minimizes_and_repro_replays() {
        // Build a deliberately failing case: a hang fault scripted with
        // no watchdog armed — the one combination the generator never
        // emits — which must deadlock, be caught, and shrink.
        let mut rng = DetRng::seed_from_u64(99);
        let mut spec = gen_case(&mut rng);
        while spec.apps.len() < 3 {
            spec = gen_case(&mut rng);
        }
        spec.watchdog_us = 0;
        spec.copy_fail_pm = 0;
        spec.kernel_fault_pm = 0;
        spec.kernel_hang_pm = 0;
        spec.faults = vec![ScriptedFault {
            kind: FaultKind::KernelHang,
            app: 0,
            nth: 0,
        }];
        let outcome = Chaos::run(&spec);
        let Outcome::Fail(kind, _) = outcome else {
            panic!("hang without watchdog must fail");
        };
        assert_eq!(kind, FailureKind::Deadlock);
        let (small, steps) = shrink::<Chaos>(&spec, kind);
        assert!(steps > 0, "shrinker made no progress");
        assert!(small.apps.len() <= spec.apps.len());
        assert_eq!(small.apps.len(), 1, "deadlock case should shrink to 1 app");
        // The minimized case still fails the same way...
        let Outcome::Fail(k2, _) = Chaos::run(&small) else {
            panic!("shrunk case no longer fails");
        };
        assert_eq!(k2, FailureKind::Deadlock);
        // ...and survives the repro round-trip.
        let json = case_to_json(&small);
        let back = parse_repro::<Chaos>(&json).expect("repro parses");
        assert_eq!(small, back);
        let Outcome::Fail(k3, _) = Chaos::run(&back) else {
            panic!("repro case no longer fails");
        };
        assert_eq!(k3, FailureKind::Deadlock);
    }
}
