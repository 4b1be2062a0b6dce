//! Hand-rolled argument parsing for the `hyperq` CLI.

use hq_gpu::prelude::FaultPlan;
use hq_workloads::apps::AppKind;
use hyperq_core::harness::MemsyncMode;
use hyperq_core::ordering::ScheduleOrder;

/// Usage text shown on parse errors and `--help`.
pub const USAGE: &str = "\
hyperq — Hyper-Q management framework on a simulated Tesla K20

USAGE:
  hyperq run       --workload SPEC [--streams N] [--order ORDER]
                   [--memsync off|enqueue|synced] [--serial] [--seed N]
                   [--device k20|k40|fermi] [--gantt] [--chrome FILE]
                   [--json FILE]
  hyperq compare   --workload SPEC [--streams N] [--seed N]
  hyperq trace     --workload SPEC [--streams N] [--chrome FILE] [--seed N]
  hyperq autosched --workload SPEC [--streams N] [--objective makespan|energy]
                   [--budget N] [--seed N]
  hyperq faults    [--workload SPEC] [--streams N] [--faults FAULTS]
                   [--recovery failfast|retry|degrade] [--attempts N] [--seed N]
  hyperq repro     FILE
  hyperq serve     --socket PATH [--workers N] [--queue-depth N]
                   [--breaker-threshold K] [--breaker-cooldown-ms MS]
                   [--journal PATH] [--artifact-dir DIR] [--recover-only]
                   [--tenant-max-queued N] [--tenant-max-inflight N]
                   [--tenant-rate R] [--tenant-burst B] [--drr-quantum N]
                   [--brownout-threshold F] [--commit-window-us US]
  hyperq serve     --tcp ADDR --fleet N [--fleet-dir DIR] [--queue-depth N]
                   [--workers N] [--heartbeat-ms MS] [--max-restarts K]
                   [--breaker-threshold K] [--breaker-cooldown-ms MS]
                   [--tenant-max-queued N] [--tenant-max-inflight N]
                   [--tenant-rate R] [--brownout-threshold F]
                   [--commit-window-us US]
  hyperq submit    --socket PATH|--tcp ADDR --workload SPEC [--streams N]
                   [--order ORDER] [--memsync MODE] [--serial] [--seed N]
                   [--device DEV] [--deadline-ms N] [--class NAME] [--panic]
                   [--tenant NAME] [--no-wait] [--timeout-ms MS]
  hyperq submit    --socket PATH|--tcp ADDR --status | --shutdown
  hyperq submit    --direct --workload SPEC [run flags]
  hyperq journal   inspect FILE
  hyperq scrub     [--repair] [--journal PATH] [--artifact-dir DIR]
                   [--cache-dir DIR]
  hyperq chaos     [--cases N] [--seed N] [--repro-dir DIR]
  hyperq torture   [--cases N] [--seed N] [--repro-dir DIR]
  hyperq table3
  hyperq devices
  hyperq help

SPEC:    e.g. 'gaussian*4+needle*4' (aliases: nn, nw, srad_v2)
ORDER:   fifo | round-robin | shuffle | reverse-fifo | reverse-round-robin
FAULTS:  comma-separated clauses, e.g. 'copy@1,kernel@0:2,hang%0.05,seed=7'
         KIND@APP[:NTH] scripts the NTH (default 0) op of app APP;
         KIND%RATE injects probabilistically; KIND is copy|kernel|hang;
         seed=N / progress=F set the fault RNG seed and abort point.
         `run` accepts --faults/--recovery/--attempts too.";

/// Which device preset to simulate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DevicePreset {
    /// Tesla K20 (the paper's testbed).
    K20,
    /// Tesla K40 (larger Kepler part).
    K40,
    /// Fermi-class single-work-queue device.
    Fermi,
}

/// A parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Run one configuration and report metrics.
    Run,
    /// Serial vs concurrent vs +memsync comparison table.
    Compare,
    /// Emit the timeline (ASCII Gantt and optionally Chrome JSON).
    Trace,
    /// Greedy dynamic-order search (§VI).
    Autosched,
    /// Fault-injection demo: same workload under each recovery policy.
    Faults,
    /// Replay a chaos or torture repro file.
    Repro,
    /// Long-running scenario server over a Unix-domain socket.
    Serve,
    /// Submit a job to (or query/stop) a running scenario server.
    Submit,
    /// Read-only dump of a journal file (`journal inspect FILE`).
    JournalInspect,
    /// Verify (and with `--repair`, heal) the journal, scenario cache
    /// and artifact store.
    Scrub,
    /// Simulator chaos soak: randomized audited simulation cases, with
    /// shrinking JSON repros.
    Chaos,
    /// Service torture soak: bursts under joint I/O + network fault
    /// plans, with shrinking JSON repros.
    Torture,
    /// Print Table III.
    Table3,
    /// List device presets.
    Devices,
    /// Print usage.
    Help,
}

/// Fully parsed CLI invocation.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Subcommand.
    pub command: Command,
    /// Application multiset (empty for table3/devices/help).
    pub workload: Vec<AppKind>,
    /// Stream count `NS`.
    pub streams: u32,
    /// Launch order.
    pub order: ScheduleOrder,
    /// Memory-synchronization mode.
    pub memsync: MemsyncMode,
    /// Serialized baseline instead of concurrent execution.
    pub serial: bool,
    /// Simulation seed.
    pub seed: u64,
    /// Device preset.
    pub device: DevicePreset,
    /// Print the ASCII Gantt timeline after a `run`.
    pub gantt: bool,
    /// Write a Chrome trace JSON to this path.
    pub chrome: Option<String>,
    /// Write a RunSummary JSON to this path.
    pub json: Option<String>,
    /// Autosched objective: `true` = energy, `false` = makespan.
    pub objective_energy: bool,
    /// Autosched swap budget.
    pub budget: usize,
    /// Fault plan to inject (`--faults`), if any.
    pub faults: Option<FaultPlan>,
    /// Recovery policy selector (`--recovery`).
    pub recovery: RecoveryChoice,
    /// Max retry attempts per failed app (`--attempts`, retry policy).
    pub attempts: u32,
    /// Repro file to replay (`repro FILE`).
    pub repro_file: Option<String>,
    /// Unix-domain socket path (`serve` / `submit`).
    pub socket: Option<String>,
    /// TCP address of a fleet coordinator (`serve --tcp` / `submit --tcp`).
    pub tcp: Option<String>,
    /// Worker process count for fleet mode (`serve --fleet`, 0 = off).
    pub fleet: usize,
    /// Fleet state directory (`serve --fleet-dir`).
    pub fleet_dir: Option<String>,
    /// Supervisor heartbeat period in ms (`serve --heartbeat-ms`).
    pub heartbeat_ms: u64,
    /// In-place restarts per worker before rehashing (`--max-restarts`).
    pub max_restarts: u32,
    /// Journal path override (`serve --journal`).
    pub journal: Option<String>,
    /// Artifact directory override (`serve --artifact-dir`).
    pub artifact_dir: Option<String>,
    /// Client read timeout in ms (`submit --timeout-ms`; falls back to
    /// `HQ_SUBMIT_TIMEOUT_MS`, then a generous default).
    pub timeout_ms: Option<u64>,
    /// Server worker thread count (`serve --workers`).
    pub serve_workers: usize,
    /// Bounded job-queue depth (`serve --queue-depth`).
    pub queue_depth: usize,
    /// Consecutive failures that open a circuit (`--breaker-threshold`).
    pub breaker_threshold: u32,
    /// Open-circuit cooldown in ms (`--breaker-cooldown-ms`).
    pub breaker_cooldown_ms: u64,
    /// Recover the journal (replaying unfinished jobs) and exit.
    pub recover_only: bool,
    /// Per-job deadline in ms from acceptance (`submit --deadline-ms`).
    pub deadline_ms: Option<u64>,
    /// Circuit-breaker class override (`submit --class`).
    pub job_class: Option<String>,
    /// Submit a job that panics deliberately (`submit --panic`).
    pub scripted_panic: bool,
    /// Return after acceptance instead of waiting (`submit --no-wait`).
    pub no_wait: bool,
    /// Query server status instead of submitting (`submit --status`).
    pub submit_status: bool,
    /// Ask the server to shut down gracefully (`submit --shutdown`).
    pub submit_shutdown: bool,
    /// Run the job in-process and print the artifact (`submit --direct`).
    pub direct: bool,
    /// Tenant the submitted job is billed to (`submit --tenant`).
    pub tenant: Option<String>,
    /// Per-tenant queued-job quota (`serve --tenant-max-queued`, 0 = off).
    pub tenant_max_queued: usize,
    /// Per-tenant in-flight cap (`serve --tenant-max-inflight`, 0 = off).
    pub tenant_max_inflight: usize,
    /// Per-tenant admission rate in jobs/s (`serve --tenant-rate`, 0 = off).
    pub tenant_rate: f64,
    /// Token-bucket burst capacity (`serve --tenant-burst`, 0 = auto).
    pub tenant_burst: f64,
    /// DRR credits per scheduling visit (`serve --drr-quantum`).
    pub drr_quantum: u32,
    /// Brownout utilization threshold (`serve --brownout-threshold`, 0 = off).
    pub brownout_threshold: f64,
    /// Group-commit window in µs (`serve --commit-window-us`), held
    /// open only while accepts arrive closer together than it
    /// (0 = never linger).
    pub commit_window_us: u64,
    /// Journal file to dump (`journal inspect FILE`).
    pub journal_file: Option<String>,
    /// Repair detected damage instead of only reporting it
    /// (`scrub --repair`).
    pub repair: bool,
    /// Scenario-cache directory override (`scrub --cache-dir`).
    pub cache_dir: Option<String>,
    /// Soak cases to run (`chaos`/`torture --cases`).
    pub cases: usize,
    /// Directory shrunk soak repros are written to (`--repro-dir`).
    pub repro_dir: Option<String>,
}

/// Which recovery policy the harness should apply to failed apps.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RecoveryChoice {
    /// Surface failures without re-running anything.
    #[default]
    FailFast,
    /// Re-run each failed app alone with backoff.
    Retry,
    /// Re-run the whole workload serialized on one hardware queue.
    Degrade,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            command: Command::Help,
            workload: Vec::new(),
            streams: 8,
            order: ScheduleOrder::NaiveFifo,
            memsync: MemsyncMode::Off,
            serial: false,
            seed: 0xC0FFEE,
            device: DevicePreset::K20,
            gantt: false,
            chrome: None,
            json: None,
            objective_energy: false,
            budget: 20,
            faults: None,
            recovery: RecoveryChoice::FailFast,
            attempts: 2,
            repro_file: None,
            socket: None,
            tcp: None,
            fleet: 0,
            fleet_dir: None,
            heartbeat_ms: 200,
            max_restarts: 3,
            journal: None,
            artifact_dir: None,
            timeout_ms: None,
            serve_workers: 2,
            queue_depth: 16,
            breaker_threshold: 3,
            breaker_cooldown_ms: 250,
            recover_only: false,
            deadline_ms: None,
            job_class: None,
            scripted_panic: false,
            no_wait: false,
            submit_status: false,
            submit_shutdown: false,
            direct: false,
            tenant: None,
            tenant_max_queued: 0,
            tenant_max_inflight: 0,
            tenant_rate: 0.0,
            tenant_burst: 0.0,
            drr_quantum: 1,
            brownout_threshold: 0.0,
            commit_window_us: 200,
            journal_file: None,
            repair: false,
            cache_dir: None,
            cases: 25,
            repro_dir: None,
        }
    }
}

/// Tenant names travel on the wire and into journal records, so keep
/// them to a conservative identifier charset.
fn validate_tenant(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 64 {
        return Err("--tenant must be 1..=64 characters".into());
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
    {
        return Err(format!(
            "--tenant '{name}' may only contain letters, digits, '-', '_', '.'"
        ));
    }
    Ok(())
}

fn parse_recovery(s: &str) -> Result<RecoveryChoice, String> {
    match s.to_ascii_lowercase().as_str() {
        "failfast" | "fail-fast" | "none" => Ok(RecoveryChoice::FailFast),
        "retry" => Ok(RecoveryChoice::Retry),
        "degrade" | "serialize" => Ok(RecoveryChoice::Degrade),
        other => Err(format!("unknown recovery policy '{other}'")),
    }
}

fn parse_order(s: &str) -> Result<ScheduleOrder, String> {
    match s.to_ascii_lowercase().as_str() {
        "fifo" | "naive-fifo" | "naive" => Ok(ScheduleOrder::NaiveFifo),
        "round-robin" | "rr" => Ok(ScheduleOrder::RoundRobin),
        "shuffle" | "random" | "random-shuffle" => Ok(ScheduleOrder::RandomShuffle),
        "reverse-fifo" | "rfifo" => Ok(ScheduleOrder::ReverseFifo),
        "reverse-round-robin" | "rrr" => Ok(ScheduleOrder::ReverseRoundRobin),
        other => Err(format!("unknown order '{other}'")),
    }
}

fn parse_memsync(s: &str) -> Result<MemsyncMode, String> {
    match s.to_ascii_lowercase().as_str() {
        "off" | "none" => Ok(MemsyncMode::Off),
        "enqueue" => Ok(MemsyncMode::Enqueue),
        "synced" | "sync" | "on" => Ok(MemsyncMode::Synced),
        other => Err(format!("unknown memsync mode '{other}'")),
    }
}

fn parse_device(s: &str) -> Result<DevicePreset, String> {
    match s.to_ascii_lowercase().as_str() {
        "k20" => Ok(DevicePreset::K20),
        "k40" => Ok(DevicePreset::K40),
        "fermi" => Ok(DevicePreset::Fermi),
        other => Err(format!("unknown device '{other}'")),
    }
}

/// Parse argv (without the program name).
pub fn parse_args(args: Vec<String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.into_iter().peekable();
    let Some(cmd) = it.next() else {
        return Err("missing subcommand".into());
    };
    cli.command = match cmd.as_str() {
        "run" => Command::Run,
        "compare" => Command::Compare,
        "trace" => Command::Trace,
        "autosched" => Command::Autosched,
        "faults" => Command::Faults,
        "repro" => Command::Repro,
        "serve" => Command::Serve,
        "submit" => Command::Submit,
        "journal" => match it.next().as_deref() {
            Some("inspect") => Command::JournalInspect,
            Some(other) => return Err(format!("unknown journal action '{other}' (try 'inspect')")),
            None => return Err("journal requires an action: journal inspect FILE".into()),
        },
        "scrub" => Command::Scrub,
        "chaos" => Command::Chaos,
        "torture" => Command::Torture,
        "table3" => Command::Table3,
        "devices" => Command::Devices,
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(format!("unknown subcommand '{other}'")),
    };
    let value = |it: &mut std::iter::Peekable<std::vec::IntoIter<String>>,
                 flag: &str|
     -> Result<String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" | "-w" => {
                cli.workload =
                    crate::cli::workload_spec::parse_workload(&value(&mut it, "--workload")?)?;
            }
            "--streams" | "-s" => {
                cli.streams = value(&mut it, "--streams")?
                    .parse()
                    .map_err(|_| "--streams needs an integer".to_string())?;
                if cli.streams == 0 || cli.streams > 1024 {
                    return Err("--streams must be in 1..=1024".into());
                }
            }
            "--order" | "-o" => cli.order = parse_order(&value(&mut it, "--order")?)?,
            "--memsync" | "-m" => cli.memsync = parse_memsync(&value(&mut it, "--memsync")?)?,
            "--serial" => cli.serial = true,
            "--seed" => {
                cli.seed = value(&mut it, "--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?;
            }
            "--device" | "-d" => cli.device = parse_device(&value(&mut it, "--device")?)?,
            "--gantt" => cli.gantt = true,
            "--chrome" => cli.chrome = Some(value(&mut it, "--chrome")?),
            "--json" => cli.json = Some(value(&mut it, "--json")?),
            "--objective" => {
                cli.objective_energy = match value(&mut it, "--objective")?.as_str() {
                    "energy" | "power" => true,
                    "makespan" | "time" | "performance" => false,
                    other => return Err(format!("unknown objective '{other}'")),
                };
            }
            "--budget" => {
                cli.budget = value(&mut it, "--budget")?
                    .parse()
                    .map_err(|_| "--budget needs an integer".to_string())?;
            }
            "--faults" | "-f" => {
                cli.faults = Some(
                    FaultPlan::parse(&value(&mut it, "--faults")?)
                        .map_err(|e| format!("--faults: {e}"))?,
                );
            }
            "--recovery" | "-r" => cli.recovery = parse_recovery(&value(&mut it, "--recovery")?)?,
            "--attempts" => {
                cli.attempts = value(&mut it, "--attempts")?
                    .parse()
                    .map_err(|_| "--attempts needs an integer".to_string())?;
                if cli.attempts == 0 || cli.attempts > 16 {
                    return Err("--attempts must be in 1..=16".into());
                }
            }
            "--socket" => cli.socket = Some(value(&mut it, "--socket")?),
            "--tcp" => cli.tcp = Some(value(&mut it, "--tcp")?),
            "--fleet" => {
                cli.fleet = value(&mut it, "--fleet")?
                    .parse()
                    .map_err(|_| "--fleet needs an integer".to_string())?;
                if cli.fleet == 0 || cli.fleet > 16 {
                    return Err("--fleet must be in 1..=16".into());
                }
            }
            "--fleet-dir" => cli.fleet_dir = Some(value(&mut it, "--fleet-dir")?),
            "--heartbeat-ms" => {
                cli.heartbeat_ms = value(&mut it, "--heartbeat-ms")?
                    .parse()
                    .map_err(|_| "--heartbeat-ms needs an integer".to_string())?;
                if cli.heartbeat_ms == 0 {
                    return Err("--heartbeat-ms must be at least 1".into());
                }
            }
            "--max-restarts" => {
                cli.max_restarts = value(&mut it, "--max-restarts")?
                    .parse()
                    .map_err(|_| "--max-restarts needs an integer".to_string())?;
            }
            "--journal" => cli.journal = Some(value(&mut it, "--journal")?),
            "--artifact-dir" => cli.artifact_dir = Some(value(&mut it, "--artifact-dir")?),
            "--timeout-ms" => {
                let ms: u64 = value(&mut it, "--timeout-ms")?
                    .parse()
                    .map_err(|_| "--timeout-ms needs an integer".to_string())?;
                if ms == 0 {
                    return Err("--timeout-ms must be at least 1".into());
                }
                cli.timeout_ms = Some(ms);
            }
            "--workers" => {
                cli.serve_workers = value(&mut it, "--workers")?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_string())?;
                if cli.serve_workers == 0 || cli.serve_workers > 64 {
                    return Err("--workers must be in 1..=64".into());
                }
            }
            "--queue-depth" => {
                cli.queue_depth = value(&mut it, "--queue-depth")?
                    .parse()
                    .map_err(|_| "--queue-depth needs an integer".to_string())?;
                if cli.queue_depth == 0 {
                    return Err("--queue-depth must be at least 1".into());
                }
            }
            "--breaker-threshold" => {
                cli.breaker_threshold = value(&mut it, "--breaker-threshold")?
                    .parse()
                    .map_err(|_| "--breaker-threshold needs an integer".to_string())?;
                if cli.breaker_threshold == 0 {
                    return Err("--breaker-threshold must be at least 1".into());
                }
            }
            "--breaker-cooldown-ms" => {
                cli.breaker_cooldown_ms = value(&mut it, "--breaker-cooldown-ms")?
                    .parse()
                    .map_err(|_| "--breaker-cooldown-ms needs an integer".to_string())?;
            }
            "--recover-only" => cli.recover_only = true,
            "--deadline-ms" => {
                let ms: u64 = value(&mut it, "--deadline-ms")?
                    .parse()
                    .map_err(|_| "--deadline-ms needs an integer".to_string())?;
                // A zero deadline is dead on arrival and anything past a
                // day is a typo, not a deadline.
                if ms == 0 || ms > 86_400_000 {
                    return Err("--deadline-ms must be in 1..=86400000 (24h)".into());
                }
                cli.deadline_ms = Some(ms);
            }
            "--tenant" => {
                let name = value(&mut it, "--tenant")?;
                validate_tenant(&name)?;
                cli.tenant = Some(name);
            }
            "--tenant-max-queued" => {
                cli.tenant_max_queued = value(&mut it, "--tenant-max-queued")?
                    .parse()
                    .map_err(|_| "--tenant-max-queued needs an integer".to_string())?;
                if cli.tenant_max_queued == 0 || cli.tenant_max_queued > 100_000 {
                    return Err("--tenant-max-queued must be in 1..=100000".into());
                }
            }
            "--tenant-max-inflight" => {
                cli.tenant_max_inflight = value(&mut it, "--tenant-max-inflight")?
                    .parse()
                    .map_err(|_| "--tenant-max-inflight needs an integer".to_string())?;
                if cli.tenant_max_inflight == 0 || cli.tenant_max_inflight > 1024 {
                    return Err("--tenant-max-inflight must be in 1..=1024".into());
                }
            }
            "--tenant-rate" => {
                cli.tenant_rate = value(&mut it, "--tenant-rate")?
                    .parse()
                    .map_err(|_| "--tenant-rate needs a number (jobs/sec)".to_string())?;
                if !cli.tenant_rate.is_finite()
                    || cli.tenant_rate <= 0.0
                    || cli.tenant_rate > 1_000_000.0
                {
                    return Err("--tenant-rate must be in (0, 1000000] jobs/sec".into());
                }
            }
            "--tenant-burst" => {
                cli.tenant_burst = value(&mut it, "--tenant-burst")?
                    .parse()
                    .map_err(|_| "--tenant-burst needs a number".to_string())?;
                if !cli.tenant_burst.is_finite()
                    || cli.tenant_burst <= 0.0
                    || cli.tenant_burst > 1_000_000.0
                {
                    return Err("--tenant-burst must be in (0, 1000000]".into());
                }
            }
            "--drr-quantum" => {
                cli.drr_quantum = value(&mut it, "--drr-quantum")?
                    .parse()
                    .map_err(|_| "--drr-quantum needs an integer".to_string())?;
                if cli.drr_quantum == 0 || cli.drr_quantum > 64 {
                    return Err("--drr-quantum must be in 1..=64".into());
                }
            }
            "--commit-window-us" => {
                cli.commit_window_us = value(&mut it, "--commit-window-us")?
                    .parse()
                    .map_err(|_| "--commit-window-us needs an integer".to_string())?;
                if cli.commit_window_us > 1_000_000 {
                    return Err("--commit-window-us must be at most 1000000 (1s)".into());
                }
            }
            "--brownout-threshold" => {
                cli.brownout_threshold = value(&mut it, "--brownout-threshold")?
                    .parse()
                    .map_err(|_| "--brownout-threshold needs a number in (0, 1]".to_string())?;
                if !cli.brownout_threshold.is_finite()
                    || cli.brownout_threshold <= 0.0
                    || cli.brownout_threshold > 1.0
                {
                    return Err("--brownout-threshold must be in (0, 1]".into());
                }
            }
            "--repair" => cli.repair = true,
            "--cache-dir" => cli.cache_dir = Some(value(&mut it, "--cache-dir")?),
            "--cases" => {
                cli.cases = value(&mut it, "--cases")?
                    .parse()
                    .map_err(|_| "--cases needs an integer".to_string())?;
                if cli.cases == 0 || cli.cases > 10_000 {
                    return Err("--cases must be in 1..=10000".into());
                }
            }
            "--repro-dir" => cli.repro_dir = Some(value(&mut it, "--repro-dir")?),
            "--class" => cli.job_class = Some(value(&mut it, "--class")?),
            "--panic" => cli.scripted_panic = true,
            "--no-wait" => cli.no_wait = true,
            "--status" => cli.submit_status = true,
            "--shutdown" => cli.submit_shutdown = true,
            "--direct" => cli.direct = true,
            other if cli.command == Command::Repro && !other.starts_with('-') => {
                if cli.repro_file.is_some() {
                    return Err("repro takes exactly one FILE".into());
                }
                cli.repro_file = Some(flag);
            }
            other if cli.command == Command::JournalInspect && !other.starts_with('-') => {
                if cli.journal_file.is_some() {
                    return Err("journal inspect takes exactly one FILE".into());
                }
                cli.journal_file = Some(flag);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let needs_workload = matches!(
        cli.command,
        Command::Run | Command::Compare | Command::Trace | Command::Autosched
    );
    if needs_workload && cli.workload.is_empty() {
        return Err("this subcommand requires --workload".into());
    }
    if cli.command == Command::Repro && cli.repro_file.is_none() {
        return Err("repro requires a FILE argument".into());
    }
    if cli.command == Command::JournalInspect && cli.journal_file.is_none() {
        return Err("journal inspect requires a FILE argument".into());
    }
    if cli.command == Command::Serve {
        if cli.fleet > 0 {
            if cli.tcp.is_none() {
                return Err("serve --fleet requires --tcp ADDR".into());
            }
            if cli.recover_only {
                return Err("--recover-only does not apply to fleet mode".into());
            }
        } else if cli.socket.is_none() {
            return Err("serve requires --socket (or --tcp with --fleet)".into());
        }
    }
    if cli.command == Command::Submit {
        if cli.direct && (cli.submit_status || cli.submit_shutdown) {
            return Err("--direct cannot be combined with --status/--shutdown".into());
        }
        if cli.socket.is_some() && cli.tcp.is_some() {
            return Err("submit takes --socket or --tcp, not both".into());
        }
        if !cli.direct && cli.socket.is_none() && cli.tcp.is_none() {
            return Err("submit requires --socket or --tcp (or --direct)".into());
        }
        let is_query = cli.submit_status || cli.submit_shutdown;
        if !is_query && cli.workload.is_empty() {
            return Err("submit requires --workload (or --status/--shutdown)".into());
        }
    }
    Ok(cli)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_full_run_command() {
        let cli = parse_args(argv(
            "run --workload gaussian*2+nn*2 --streams 4 --order rr --memsync synced --seed 9 --device k40 --gantt",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Run);
        assert_eq!(cli.workload.len(), 4);
        assert_eq!(cli.streams, 4);
        assert_eq!(cli.order, ScheduleOrder::RoundRobin);
        assert_eq!(cli.memsync, MemsyncMode::Synced);
        assert_eq!(cli.seed, 9);
        assert_eq!(cli.device, DevicePreset::K40);
        assert!(cli.gantt);
    }

    #[test]
    fn defaults_are_sane() {
        let cli = parse_args(argv("run -w needle")).unwrap();
        assert_eq!(cli.streams, 8);
        assert_eq!(cli.order, ScheduleOrder::NaiveFifo);
        assert_eq!(cli.memsync, MemsyncMode::Off);
        assert!(!cli.serial);
    }

    #[test]
    fn workload_required_for_run_commands() {
        assert!(parse_args(argv("run")).is_err());
        assert!(parse_args(argv("compare")).is_err());
        assert!(parse_args(argv("table3")).is_ok());
        assert!(parse_args(argv("devices")).is_ok());
    }

    #[test]
    fn rejects_unknown_things() {
        assert!(parse_args(argv("frobnicate")).is_err());
        assert!(parse_args(argv("run -w needle --order sideways")).is_err());
        assert!(parse_args(argv("run -w needle --what")).is_err());
        assert!(parse_args(argv("run -w needle --streams 0")).is_err());
        assert!(parse_args(argv("run -w needle --streams")).is_err());
    }

    #[test]
    fn all_order_aliases() {
        for (alias, want) in [
            ("fifo", ScheduleOrder::NaiveFifo),
            ("rr", ScheduleOrder::RoundRobin),
            ("shuffle", ScheduleOrder::RandomShuffle),
            ("reverse-fifo", ScheduleOrder::ReverseFifo),
            ("rrr", ScheduleOrder::ReverseRoundRobin),
        ] {
            let cli = parse_args(argv(&format!("run -w nn --order {alias}"))).unwrap();
            assert_eq!(cli.order, want, "{alias}");
        }
    }

    #[test]
    fn autosched_flags() {
        let cli = parse_args(argv("autosched -w nn*4 --objective energy --budget 7")).unwrap();
        assert!(cli.objective_energy);
        assert_eq!(cli.budget, 7);
    }

    #[test]
    fn fault_flags_parse() {
        let cli = parse_args(argv(
            "run -w nn*2 --faults copy@1,kernel%0.1,seed=7 --recovery retry --attempts 3",
        ))
        .unwrap();
        let plan = cli.faults.expect("plan parsed");
        assert_eq!(plan.scripted.len(), 1);
        assert_eq!(plan.seed, 7);
        assert_eq!(cli.recovery, RecoveryChoice::Retry);
        assert_eq!(cli.attempts, 3);
    }

    #[test]
    fn faults_subcommand_needs_no_workload() {
        let cli = parse_args(argv("faults")).unwrap();
        assert_eq!(cli.command, Command::Faults);
        assert!(cli.workload.is_empty());
        assert_eq!(cli.recovery, RecoveryChoice::FailFast);
    }

    #[test]
    fn repro_takes_one_positional_file() {
        let cli = parse_args(argv("repro results/chaos_repro.json")).unwrap();
        assert_eq!(cli.command, Command::Repro);
        assert_eq!(cli.repro_file.as_deref(), Some("results/chaos_repro.json"));
        assert!(parse_args(argv("repro")).is_err());
        assert!(parse_args(argv("repro a.json b.json")).is_err());
        assert!(parse_args(argv("repro --bogus a.json")).is_err());
    }

    #[test]
    fn serve_flags_parse_and_socket_is_required() {
        let cli = parse_args(argv(
            "serve --socket /tmp/hq.sock --workers 3 --queue-depth 5 \
             --breaker-threshold 2 --breaker-cooldown-ms 100 --recover-only",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Serve);
        assert_eq!(cli.socket.as_deref(), Some("/tmp/hq.sock"));
        assert_eq!(cli.serve_workers, 3);
        assert_eq!(cli.queue_depth, 5);
        assert_eq!(cli.breaker_threshold, 2);
        assert_eq!(cli.breaker_cooldown_ms, 100);
        assert!(cli.recover_only);
        assert!(parse_args(argv("serve")).is_err());
        assert!(parse_args(argv("serve --socket s --workers 0")).is_err());
        assert!(parse_args(argv("serve --socket s --queue-depth 0")).is_err());
    }

    #[test]
    fn fleet_serve_flags_parse_and_validate() {
        let cli = parse_args(argv(
            "serve --tcp 127.0.0.1:0 --fleet 3 --fleet-dir /tmp/fleet \
             --heartbeat-ms 100 --max-restarts 1 --queue-depth 32",
        ))
        .unwrap();
        assert_eq!(cli.tcp.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cli.fleet, 3);
        assert_eq!(cli.fleet_dir.as_deref(), Some("/tmp/fleet"));
        assert_eq!(cli.heartbeat_ms, 100);
        assert_eq!(cli.max_restarts, 1);
        // Fleet mode needs the TCP front door; plain serve still needs
        // its socket; recover-only is single-process-only.
        assert!(parse_args(argv("serve --fleet 3")).is_err());
        assert!(parse_args(argv("serve --tcp 127.0.0.1:0")).is_err());
        assert!(parse_args(argv("serve --tcp a:1 --fleet 0")).is_err());
        assert!(parse_args(argv("serve --tcp a:1 --fleet 3 --recover-only")).is_err());
        // Journal/artifact overrides ride on plain serve.
        let cli = parse_args(argv(
            "serve --socket /tmp/s --journal /tmp/j.wal --artifact-dir /tmp/a",
        ))
        .unwrap();
        assert_eq!(cli.journal.as_deref(), Some("/tmp/j.wal"));
        assert_eq!(cli.artifact_dir.as_deref(), Some("/tmp/a"));
    }

    #[test]
    fn submit_tcp_and_timeout_flags() {
        let cli = parse_args(argv("submit --tcp 127.0.0.1:9911 -w nn --timeout-ms 250")).unwrap();
        assert_eq!(cli.tcp.as_deref(), Some("127.0.0.1:9911"));
        assert_eq!(cli.timeout_ms, Some(250));
        assert!(parse_args(argv("submit --tcp a:1 --socket s -w nn")).is_err());
        assert!(parse_args(argv("submit --tcp a:1 -w nn --timeout-ms 0")).is_err());
        assert!(parse_args(argv("submit --tcp a:1 --status")).is_ok());
    }

    #[test]
    fn submit_flags_parse_with_modes() {
        let cli = parse_args(argv(
            "submit --socket /tmp/hq.sock -w nn*2 --deadline-ms 500 --class burst --no-wait",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Submit);
        assert_eq!(cli.deadline_ms, Some(500));
        assert_eq!(cli.job_class.as_deref(), Some("burst"));
        assert!(cli.no_wait && !cli.scripted_panic);
        let cli = parse_args(argv("submit --socket s --status")).unwrap();
        assert!(cli.submit_status);
        let cli = parse_args(argv("submit --socket s --shutdown")).unwrap();
        assert!(cli.submit_shutdown);
        let cli = parse_args(argv("submit --direct -w needle --panic")).unwrap();
        assert!(cli.direct && cli.scripted_panic);
        // Missing socket (without --direct) or workload are usage errors.
        assert!(parse_args(argv("submit -w nn")).is_err());
        assert!(parse_args(argv("submit --socket s")).is_err());
        assert!(parse_args(argv("submit --direct --status")).is_err());
    }

    #[test]
    fn deadline_rejects_zero_and_absurd_values() {
        let cli = parse_args(argv("submit --socket s -w nn --deadline-ms 500")).unwrap();
        assert_eq!(cli.deadline_ms, Some(500));
        assert!(parse_args(argv("submit --socket s -w nn --deadline-ms 0")).is_err());
        assert!(parse_args(argv("submit --socket s -w nn --deadline-ms 86400001")).is_err());
        assert!(parse_args(argv("submit --socket s -w nn --deadline-ms soon")).is_err());
    }

    #[test]
    fn tenant_flag_parses_and_validates_charset() {
        let cli = parse_args(argv("submit --socket s -w nn --tenant team-a.prod_1")).unwrap();
        assert_eq!(cli.tenant.as_deref(), Some("team-a.prod_1"));
        assert!(parse_args(argv("submit --socket s -w nn --tenant bad:name")).is_err());
        assert!(parse_args(argv("submit --socket s -w nn --tenant")).is_err());
        let long = "x".repeat(65);
        assert!(parse_args(argv(&format!("submit --socket s -w nn --tenant {long}"))).is_err());
    }

    #[test]
    fn serve_tenant_quota_flags_parse_and_validate() {
        let cli = parse_args(argv(
            "serve --socket s --tenant-max-queued 8 --tenant-max-inflight 2 \
             --tenant-rate 5.5 --tenant-burst 3 --drr-quantum 4 --brownout-threshold 0.8",
        ))
        .unwrap();
        assert_eq!(cli.tenant_max_queued, 8);
        assert_eq!(cli.tenant_max_inflight, 2);
        assert!((cli.tenant_rate - 5.5).abs() < 1e-9);
        assert!((cli.tenant_burst - 3.0).abs() < 1e-9);
        assert_eq!(cli.drr_quantum, 4);
        assert!((cli.brownout_threshold - 0.8).abs() < 1e-9);
        // Zeros and out-of-range values are usage errors, not silent off.
        assert!(parse_args(argv("serve --socket s --tenant-max-queued 0")).is_err());
        assert!(parse_args(argv("serve --socket s --tenant-max-inflight 0")).is_err());
        assert!(parse_args(argv("serve --socket s --tenant-rate 0")).is_err());
        assert!(parse_args(argv("serve --socket s --tenant-rate -1")).is_err());
        assert!(parse_args(argv("serve --socket s --tenant-rate nan")).is_err());
        assert!(parse_args(argv("serve --socket s --drr-quantum 65")).is_err());
        assert!(parse_args(argv("serve --socket s --brownout-threshold 0")).is_err());
        assert!(parse_args(argv("serve --socket s --brownout-threshold 1.5")).is_err());
    }

    #[test]
    fn serve_batch_and_commit_window_flags_parse_and_validate() {
        let cli = parse_args(argv("serve --socket s --commit-window-us 500")).unwrap();
        assert_eq!(cli.commit_window_us, 500);
        // 0 disables group commit (synchronous fsync per accept).
        let cli = parse_args(argv("serve --socket s --commit-window-us 0")).unwrap();
        assert_eq!(cli.commit_window_us, 0);
        // Default: a small window is on.
        let cli = parse_args(argv("serve --socket s")).unwrap();
        assert_eq!(cli.commit_window_us, 200);
        // Workers pop one job per wakeup; the old batch-size flag is
        // gone and rejected like any unknown flag.
        let err = parse_args(argv("serve --socket s --dispatch-batch 8")).err();
        assert_eq!(err.as_deref(), Some("unknown flag '--dispatch-batch'"));
        assert!(parse_args(argv("serve --socket s --commit-window-us 1000001")).is_err());
        assert!(parse_args(argv("serve --socket s --commit-window-us lots")).is_err());
    }

    #[test]
    fn journal_inspect_takes_one_positional_file() {
        let cli = parse_args(argv("journal inspect /tmp/hq.journal")).unwrap();
        assert_eq!(cli.command, Command::JournalInspect);
        assert_eq!(cli.journal_file.as_deref(), Some("/tmp/hq.journal"));
        assert!(parse_args(argv("journal")).is_err());
        assert!(parse_args(argv("journal inspect")).is_err());
        assert!(parse_args(argv("journal inspect a b")).is_err());
        assert!(parse_args(argv("journal vacuum f")).is_err());
    }

    #[test]
    fn scrub_parses_with_optional_overrides() {
        let cli = parse_args(argv("scrub")).unwrap();
        assert_eq!(cli.command, Command::Scrub);
        assert!(!cli.repair);
        let cli = parse_args(argv(
            "scrub --repair --journal /tmp/j.wal --artifact-dir /tmp/art --cache-dir /tmp/cache",
        ))
        .unwrap();
        assert!(cli.repair);
        assert_eq!(cli.journal.as_deref(), Some("/tmp/j.wal"));
        assert_eq!(cli.artifact_dir.as_deref(), Some("/tmp/art"));
        assert_eq!(cli.cache_dir.as_deref(), Some("/tmp/cache"));
    }

    #[test]
    fn torture_parses_cases_seed_and_repro_dir() {
        let cli = parse_args(argv("torture")).unwrap();
        assert_eq!(cli.command, Command::Torture);
        assert_eq!(cli.cases, 25);
        let cli = parse_args(argv("torture --cases 3 --seed 99 --repro-dir /tmp/repros")).unwrap();
        assert_eq!(cli.cases, 3);
        assert_eq!(cli.seed, 99);
        assert_eq!(cli.repro_dir.as_deref(), Some("/tmp/repros"));
        assert!(parse_args(argv("torture --cases 0")).is_err());
        assert!(parse_args(argv("torture --cases 20000")).is_err());
    }

    #[test]
    fn chaos_parses_cases_and_seed_and_rejects_batch() {
        let cli = parse_args(argv("chaos --cases 200 --seed 7")).unwrap();
        assert_eq!(cli.command, Command::Chaos);
        assert_eq!((cli.cases, cli.seed), (200, 7));
        // Cases run one at a time; the old batch-size flag is gone.
        let err = parse_args(argv("chaos --cases 200 --batch 16")).err();
        assert_eq!(err.as_deref(), Some("unknown flag '--batch'"));
    }

    #[test]
    fn bad_fault_inputs_are_structured_errors() {
        assert!(parse_args(argv("run -w nn --faults bogus@1")).is_err());
        assert!(parse_args(argv("run -w nn --faults copy@oops")).is_err());
        assert!(parse_args(argv("run -w nn --recovery sometimes")).is_err());
        assert!(parse_args(argv("run -w nn --attempts 0")).is_err());
        assert!(parse_args(argv("run -w nn --attempts many")).is_err());
    }
}
