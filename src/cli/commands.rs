//! Command implementations for the `hyperq` CLI.

use crate::cli::args::{Cli, Command, DevicePreset, RecoveryChoice, USAGE};
use crate::cli::workload_spec::format_workload;
use hq_bench::chaos::Chaos;
use hq_bench::service::{JobSpec, ServeOptions};
use hq_bench::soak::{self, Soak};
use hq_bench::torture::Torture;
use hq_des::time::Dur;
use hq_gpu::prelude::*;
use hq_gpu::types::Dir;
use hq_workloads::geometry;
use hyperq_core::autosched::{AutoScheduler, Objective};
use hyperq_core::harness::{run_workload, MemsyncMode, RecoveryPolicy, RunConfig, RunOutcome};
use hyperq_core::metrics::improvement;
use hyperq_core::report::{joules, pct, watts, Table};

fn device_for(preset: DevicePreset) -> DeviceConfig {
    match preset {
        DevicePreset::K20 => DeviceConfig::tesla_k20(),
        DevicePreset::K40 => DeviceConfig::tesla_k40(),
        DevicePreset::Fermi => DeviceConfig::fermi_like(),
    }
}

fn recovery_for(cli: &Cli) -> RecoveryPolicy {
    match cli.recovery {
        RecoveryChoice::FailFast => RecoveryPolicy::FailFast,
        RecoveryChoice::Retry => RecoveryPolicy::Retry {
            max_attempts: cli.attempts,
            backoff: Dur::from_us(100),
        },
        RecoveryChoice::Degrade => RecoveryPolicy::Degrade,
    }
}

fn config_from(cli: &Cli, trace: bool) -> RunConfig {
    let mut cfg = if cli.serial {
        RunConfig::serial()
    } else {
        RunConfig::concurrent(cli.streams)
    };
    cfg.device = device_for(cli.device);
    cfg = cfg
        .with_order(cli.order)
        .with_memsync(cli.memsync)
        .with_seed(cli.seed)
        .with_trace(trace)
        .with_recovery(recovery_for(cli));
    if let Some(plan) = &cli.faults {
        cfg = cfg.with_faults(plan.clone());
    }
    cfg
}

fn outcome_summary(out: &RunOutcome) -> String {
    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec!["makespan".to_string(), out.makespan().to_string()]);
    t.row(vec!["avg power".to_string(), watts(out.avg_power_w())]);
    t.row(vec!["peak power".to_string(), watts(out.power.peak_w)]);
    t.row(vec!["energy".to_string(), joules(out.energy_j())]);
    // Deterministic event count only; wall-clock throughput goes to
    // stderr in `cmd_run` so run output stays seed-reproducible.
    t.row(vec!["events".to_string(), out.result.perf.events.to_string()]);
    if let Some(le) = out.mean_le(Dir::HtoD) {
        t.row(vec!["mean Le (HtoD)".to_string(), le.to_string()]);
    }
    if let Some(le) = out.mean_le(Dir::DtoH) {
        t.row(vec!["mean Le (DtoH)".to_string(), le.to_string()]);
    }
    let f = &out.result.faults;
    if f.injected() > 0 || out.retries > 0 || out.degraded {
        t.row(vec![
            "faults injected".to_string(),
            format!(
                "{} (copy {}, kernel {}, watchdog kills {})",
                f.injected(),
                f.copy_faults,
                f.kernel_faults,
                f.watchdog_kills
            ),
        ]);
        t.row(vec!["ops errored".to_string(), f.ops_errored.to_string()]);
        t.row(vec!["retries".to_string(), out.retries.to_string()]);
        t.row(vec!["degraded".to_string(), out.degraded.to_string()]);
    }
    let mut s = t.to_text();
    let troubled: Vec<String> = out
        .result
        .apps
        .iter()
        .filter(|a| a.outcome != AppOutcome::Completed)
        .map(|a| format!("  {} -> {:?}", a.label, a.outcome))
        .collect();
    if !troubled.is_empty() {
        s.push_str("\napp outcomes:\n");
        s.push_str(&troubled.join("\n"));
        s.push('\n');
    }
    s
}

fn cmd_run(cli: &Cli) -> Result<String, String> {
    let want_trace = cli.gantt || cli.chrome.is_some();
    let cfg = config_from(cli, want_trace);
    let out = run_workload(&cfg, &cli.workload).map_err(|e| e.to_string())?;
    let p = &out.result.perf;
    eprintln!(
        "perf: {} events in {:.3} s ({:.0} events/s, peak pending {}, \
         cancelled {}, tombstone ratio {:.3})",
        p.events, p.wall_secs, p.events_per_sec, p.peak_pending, p.cancelled, p.tombstone_ratio
    );
    let mut s = format!(
        "workload: {}\nschedule: {}\n\n{}",
        format_workload(&cli.workload),
        out.schedule.join(", "),
        outcome_summary(&out)
    );
    if cli.gantt {
        s.push_str("\ntimeline:\n");
        s.push_str(&out.result.trace.render_gantt(100));
    }
    if let Some(path) = &cli.json {
        let summary = hyperq_core::summary::RunSummary::from(&out);
        std::fs::write(path, summary.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        s.push_str(&format!("\nrun summary written to {path}\n"));
    }
    if let Some(path) = &cli.chrome {
        std::fs::write(path, out.result.trace.to_chrome_json())
            .map_err(|e| format!("writing {path}: {e}"))?;
        s.push_str(&format!("\nchrome trace written to {path}\n"));
    }
    Ok(s)
}

fn cmd_compare(cli: &Cli) -> Result<String, String> {
    let mut serial_cfg = config_from(cli, false);
    serial_cfg.serialize = true;
    serial_cfg.num_streams = 1;
    serial_cfg.memsync = MemsyncMode::Off;
    let serial = run_workload(&serial_cfg, &cli.workload).map_err(|e| e.to_string())?;

    let mut rows: Vec<(&str, RunOutcome)> = vec![("serial", serial)];
    for (name, memsync) in [
        ("concurrent", MemsyncMode::Off),
        ("concurrent+memsync", MemsyncMode::Synced),
    ] {
        let mut cfg = config_from(cli, false);
        cfg.serialize = false;
        cfg.memsync = memsync;
        rows.push((
            name,
            run_workload(&cfg, &cli.workload).map_err(|e| e.to_string())?,
        ));
    }
    let base_mk = rows[0].1.makespan();
    let base_e = rows[0].1.energy_j();
    let mut t = Table::new(vec![
        "configuration",
        "makespan",
        "vs serial",
        "energy",
        "energy vs serial",
    ]);
    for (name, out) in &rows {
        t.row(vec![
            name.to_string(),
            out.makespan().to_string(),
            pct(improvement(base_mk, out.makespan())),
            joules(out.energy_j()),
            pct((base_e - out.energy_j()) / base_e),
        ]);
    }
    Ok(format!(
        "workload: {} on {} streams ({})\n\n{}",
        format_workload(&cli.workload),
        cli.streams,
        device_for(cli.device).name,
        t.to_text()
    ))
}

fn cmd_trace(cli: &Cli) -> Result<String, String> {
    let mut cli2 = cli.clone();
    cli2.gantt = true;
    cmd_run(&cli2)
}

fn cmd_autosched(cli: &Cli) -> Result<String, String> {
    let cfg = config_from(cli, false);
    let sched = AutoScheduler {
        objective: if cli.objective_energy {
            Objective::Energy
        } else {
            Objective::Makespan
        },
        swap_budget: cli.budget,
        seed: cli.seed,
    };
    let res = sched.optimize(&cfg, &cli.workload);
    let labels: Vec<String> = res
        .schedule
        .iter()
        .map(|(k, i)| format!("{}#{i}", k.name()))
        .collect();
    Ok(format!(
        "objective: {:?}\nevaluations: {}\nbest canonical score: {:.3}\nbest found score:     {:.3} ({} better)\nschedule: {}\n\n{}",
        sched.objective,
        res.evaluations,
        res.canonical_score,
        res.best_score,
        pct((res.canonical_score - res.best_score) / res.canonical_score),
        labels.join(", "),
        outcome_summary(&res.outcome)
    ))
}

/// Fault-injection demo: run one faulty workload under every recovery
/// policy and tabulate how each one absorbs the damage.
fn cmd_faults(cli: &Cli) -> Result<String, String> {
    let mut cli = cli.clone();
    if cli.workload.is_empty() {
        cli.workload = crate::cli::workload_spec::parse_workload("nn*2+needle*2")?;
    }
    let plan = cli.faults.clone().unwrap_or_else(|| {
        FaultPlan::none()
            .with_fault(FaultKind::KernelFault, AppId(1), 0)
            .with_fault(FaultKind::CopyFail, AppId(2), 0)
            .with_seed(cli.seed)
    });
    let mut t = Table::new(vec![
        "recovery",
        "makespan",
        "failed apps",
        "retries",
        "degraded",
        "faults injected",
    ]);
    for choice in [
        RecoveryChoice::FailFast,
        RecoveryChoice::Retry,
        RecoveryChoice::Degrade,
    ] {
        cli.recovery = choice;
        let cfg = config_from(&cli, false).with_faults(plan.clone());
        let out = run_workload(&cfg, &cli.workload).map_err(|e| e.to_string())?;
        let failed = out
            .result
            .apps
            .iter()
            .filter(|a| a.outcome.is_failed())
            .count();
        t.row(vec![
            format!("{choice:?}").to_ascii_lowercase(),
            out.makespan().to_string(),
            failed.to_string(),
            out.retries.to_string(),
            out.degraded.to_string(),
            out.result.faults.injected().to_string(),
        ]);
    }
    Ok(format!(
        "workload: {} on {} streams, fault plan: {} scripted fault(s)\n\n{}",
        format_workload(&cli.workload),
        cli.streams,
        plan.scripted.len(),
        t.to_text()
    ))
}

fn cmd_devices() -> String {
    let mut t = Table::new(vec![
        "preset",
        "name",
        "SMX",
        "max resident blocks",
        "hw queues",
        "memory",
    ]);
    for (flag, dev) in [
        ("k20", DeviceConfig::tesla_k20()),
        ("k40", DeviceConfig::tesla_k40()),
        ("fermi", DeviceConfig::fermi_like()),
    ] {
        t.row(vec![
            flag.to_string(),
            dev.name.clone(),
            dev.num_smx.to_string(),
            dev.max_resident_blocks().to_string(),
            dev.hw_queues.to_string(),
            format!("{} GiB", dev.device_mem_bytes >> 30),
        ]);
    }
    t.to_text()
}

/// Replay a chaos or torture repro file (written by a failing soak).
/// Succeeds with a status line either way — a repro that still fails
/// is the expected, useful outcome — and only errors when the file
/// itself is unusable.
fn cmd_repro(cli: &Cli) -> Result<String, String> {
    let path = cli.repro_file.as_deref().expect("checked by parse_args");
    let verdict = soak::replay(std::path::Path::new(path))?;
    Ok(format!("repro {path}: {verdict}"))
}

fn device_name(preset: DevicePreset) -> &'static str {
    match preset {
        DevicePreset::K20 => "k20",
        DevicePreset::K40 => "k40",
        DevicePreset::Fermi => "fermi",
    }
}

fn job_spec_from(cli: &Cli) -> JobSpec {
    JobSpec {
        workload: cli.workload.clone(),
        streams: cli.streams,
        order: cli.order,
        memsync: cli.memsync,
        serial: cli.serial,
        seed: cli.seed,
        device: device_name(cli.device).to_string(),
        deadline_ms: cli.deadline_ms,
        class: cli.job_class.clone(),
        scripted_panic: cli.scripted_panic,
        tenant: cli
            .tenant
            .clone()
            .unwrap_or_else(|| hq_bench::service::DEFAULT_TENANT.to_string()),
        // Left empty here: submit_with_retry generates a key per logical
        // submission so every retry of this invocation dedups server-side.
        idem: String::new(),
    }
}

/// `hyperq serve`: run the scenario service — a fleet coordinator with
/// `--fleet N` (supervised worker processes behind a TCP front door),
/// the single-process Unix-socket server otherwise (or, with
/// `--recover-only`, just replay the journal and report what recovery
/// did).
fn cmd_serve(cli: &Cli) -> Result<String, String> {
    if cli.fleet > 0 {
        let addr = cli.tcp.as_deref().expect("checked by parse_args");
        let dir = cli
            .fleet_dir
            .clone()
            .unwrap_or_else(|| "results/fleet".to_string());
        let mut opts = hq_bench::service::FleetOptions::new(addr, dir);
        opts.workers = cli.fleet;
        opts.queue_depth = cli.queue_depth;
        opts.worker_threads = cli.serve_workers.min(4);
        opts.breaker_threshold = cli.breaker_threshold;
        opts.breaker_cooldown_ms = cli.breaker_cooldown_ms;
        opts.heartbeat_ms = cli.heartbeat_ms;
        opts.max_restarts = cli.max_restarts;
        opts.tenant_max_queued = cli.tenant_max_queued;
        opts.tenant_max_inflight = cli.tenant_max_inflight;
        opts.tenant_rate = cli.tenant_rate;
        opts.brownout_threshold = cli.brownout_threshold;
        opts.commit_window_us = cli.commit_window_us;
        hq_bench::service::fleet::serve_fleet(opts)?;
        return Ok("fleet drained and stopped".to_string());
    }
    let socket = cli.socket.as_deref().expect("checked by parse_args");
    let mut opts = ServeOptions::new(socket);
    opts.workers = cli.serve_workers;
    opts.queue_depth = cli.queue_depth;
    opts.breaker_threshold = cli.breaker_threshold;
    opts.breaker_cooldown_ms = cli.breaker_cooldown_ms;
    opts.tenant_max_queued = cli.tenant_max_queued;
    opts.tenant_max_inflight = cli.tenant_max_inflight;
    opts.tenant_rate = cli.tenant_rate;
    opts.tenant_burst = cli.tenant_burst;
    opts.drr_quantum = cli.drr_quantum;
    opts.brownout_threshold = cli.brownout_threshold;
    opts.commit_window_us = cli.commit_window_us;
    if let Some(journal) = &cli.journal {
        opts.journal = journal.into();
    }
    if let Some(dir) = &cli.artifact_dir {
        opts.artifact_dir = dir.into();
    }
    let report = hq_bench::service::serve(opts, cli.recover_only)?;
    let mut s = report.summary();
    for (id, status) in &report.replayed {
        s.push_str(&format!("\nreplayed job {id} -> {status}"));
    }
    Ok(s)
}

fn render_done(id: u64, done: &hq_bench::service::JobDone) -> String {
    use hq_bench::service::JobDone;
    match done {
        JobDone::Ok { artifact } => format!("job {id}: ok\nartifact: {artifact}"),
        JobDone::DeadlineExceeded => format!("job {id}: deadline-exceeded"),
        JobDone::Panicked(msg) => format!("job {id}: panicked: {msg}"),
        JobDone::SimError(msg) => format!("job {id}: sim-error: {msg}"),
    }
}

fn render_rejection(reject: &hq_bench::service::Reject) -> String {
    use hq_bench::service::Reject;
    match reject {
        Reject::QueueFull { depth } => format!("rejected: queue-full (depth {depth})"),
        Reject::CircuitOpen { class, retry_ms } => {
            format!("rejected: circuit-open for class '{class}' (retry in {retry_ms} ms)")
        }
        Reject::ShuttingDown => "rejected: shutting-down".to_string(),
        Reject::Unavailable(msg) => format!("rejected: unavailable: {msg}"),
        Reject::BadRequest(msg) => format!("rejected: bad-request: {msg}"),
        Reject::Shed {
            reason,
            retry_after_ms,
        } => format!("rejected: shed:{reason} (retry in {retry_after_ms} ms)"),
    }
}

/// Effective submit read timeout: `--timeout-ms`, else the
/// `HQ_SUBMIT_TIMEOUT_MS` environment variable, else two minutes —
/// generous enough for a worker restart plus journal replay, but a
/// wedged server can no longer hang `hyperq submit` forever.
fn submit_timeout_ms(cli: &Cli) -> u64 {
    cli.timeout_ms
        .or_else(|| {
            std::env::var("HQ_SUBMIT_TIMEOUT_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&ms| ms > 0)
        })
        .unwrap_or(120_000)
}

/// `hyperq submit`: talk to a running server (submit / status /
/// shutdown), or with `--direct` run the job in-process and print the
/// artifact bytes — the reference output the CI crash-recovery gate
/// compares served artifacts against.
fn cmd_submit(cli: &Cli) -> Result<String, String> {
    use hq_bench::service::{Client, Request, Response};
    if cli.direct {
        let artifact = hq_bench::service::run_job_direct(&job_spec_from(cli))?;
        // `main_with` prints with a trailing newline; hand it the
        // artifact minus its own final newline so stdout is byte-equal
        // to the artifact file.
        return Ok(artifact.trim_end_matches('\n').to_string());
    }
    let mut client = match (&cli.socket, &cli.tcp) {
        (Some(socket), _) => Client::connect(std::path::Path::new(socket))?,
        (None, Some(addr)) => Client::connect_tcp(addr)?,
        (None, None) => unreachable!("checked by parse_args"),
    };
    client.set_read_timeout(Some(std::time::Duration::from_millis(submit_timeout_ms(cli))))?;
    if cli.submit_status {
        return match client.call(&Request::Status)? {
            Response::Status(s) => {
                let mut out = format!(
                    "queued {} running {} completed {} rejected {} shed {}\nopen circuits: {}",
                    s.queued,
                    s.running,
                    s.completed,
                    s.rejected,
                    s.shed,
                    if s.open_circuits.is_empty() {
                        "none".to_string()
                    } else {
                        s.open_circuits.join(", ")
                    }
                );
                out.push_str(&format!(
                    "\nbatch: dispatches {} jobs {}",
                    s.dispatches, s.dispatched_jobs
                ));
                let per_accept = if s.accepts > 0 {
                    s.fsyncs as f64 / s.accepts as f64
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "\njournal: accepts {} fsyncs {} ({:.2} per accept) window {} solo {}",
                    s.accepts, s.fsyncs, per_accept, s.window_flushes, s.solo_flushes
                ));
                out.push_str(&format!(
                    "\nintegrity: cache_corrupt {} dedup_hits {} memo_entries {} memo_bytes {} memo_evictions {}",
                    s.cache_corrupt, s.dedup_hits, s.memo_entries, s.memo_bytes, s.memo_evictions
                ));
                for t in &s.tenants {
                    out.push_str(&format!(
                        "\ntenant {}: queued {} running {} served {} shed {} p99 {} ms",
                        t.tenant, t.queued, t.running, t.served, t.shed, t.p99_ms
                    ));
                }
                Ok(out)
            }
            other => Err(format!("unexpected response: {other:?}")),
        };
    }
    if cli.submit_shutdown {
        return match client.call(&Request::Shutdown)? {
            Response::Bye { draining } => {
                Ok(format!("server shutting down, draining {draining} job(s)"))
            }
            other => Err(format!("unexpected response: {other:?}")),
        };
    }
    // Transient rejections (queue-full, shed) retry with jittered
    // backoff — honoring the server's retry-after hint — inside the
    // same budget that bounds the read timeout.
    let spec = job_spec_from(cli);
    let budget = std::time::Duration::from_millis(submit_timeout_ms(cli));
    let mut response = client.submit_with_retry(&spec, budget)?;
    if !cli.no_wait {
        if let Response::Accepted(id) = response {
            response = client.call(&Request::Wait(id))?;
        }
    }
    match response {
        Response::Accepted(id) => Ok(format!("accepted job {id}")),
        Response::Done(id, done) => Ok(render_done(id, &done)),
        Response::Rejected(reject) => Err(render_rejection(&reject)),
        other => Err(format!("unexpected response: {other:?}")),
    }
}

/// `hyperq journal inspect FILE`: read-only dump of a journal — the
/// header/seal state, per-tenant accepted/done/unfinished counts, and
/// every record. Never writes, locks, or truncates, so it is safe to
/// point at a live server's journal.
fn cmd_journal_inspect(cli: &Cli) -> Result<String, String> {
    let path = cli.journal_file.as_deref().expect("checked by parse_args");
    let inspection = hq_bench::service::Journal::inspect(std::path::Path::new(path))
        .map_err(|e| format!("inspect {path}: {e}"))?;
    Ok(inspection.render())
}

/// `hyperq scrub [--repair]`: verify the journal, scenario cache and
/// artifact store end to end; with `--repair`, heal what can be healed
/// (truncate torn journal tails, quarantine mid-file corruption,
/// delete-and-re-execute damaged cache entries and artifacts). Exits
/// nonzero while damage remains, so `scrub --repair && scrub` is the
/// self-healing gate: the second pass must find a clean store.
fn cmd_scrub(cli: &Cli) -> Result<String, String> {
    let mut opts = hq_bench::service::ScrubOptions::from_results_dir();
    if let Some(j) = &cli.journal {
        opts.journal = j.into();
    }
    if let Some(a) = &cli.artifact_dir {
        opts.artifact_dir = a.into();
    }
    if let Some(c) = &cli.cache_dir {
        opts.cache_dir = c.into();
    }
    opts.repair = cli.repair;
    let report = hq_bench::service::scrub::scrub(&opts)?;
    let rendered = report.render();
    if report.clean() {
        Ok(rendered)
    } else {
        Err(rendered)
    }
}

/// `hyperq chaos` / `hyperq torture`: run a soak of generated cases.
/// The first failing case is shrunk to a minimal case, written as a
/// JSON repro (replayable with `hyperq repro FILE`), and reported as an
/// error. Progress goes to stderr every 50 cases.
fn cmd_soak<S: Soak>(cli: &Cli) -> Result<String, String> {
    let repro_dir = cli
        .repro_dir
        .as_ref()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| hq_bench::util::out_dir().join("repro"));
    let t0 = std::time::Instant::now();
    let report = soak::soak::<S>(cli.cases, cli.seed, &repro_dir, |i, _| {
        if (i + 1).is_multiple_of(50) {
            eprintln!(
                "  {}: {}/{} cases run ({:.2?})",
                S::KIND,
                i + 1,
                cli.cases,
                t0.elapsed()
            );
        }
    })
    .map_err(|e| {
        format!(
            "{}: cannot write repro under {}: {e}",
            S::KIND,
            repro_dir.display()
        )
    })?;
    match report.failure {
        None => Ok(format!(
            "{}: {} case(s) passed — {}",
            S::KIND,
            report.cases,
            report.totals
        )),
        Some(f) => Err(format!(
            "{}: case {} of {} FAILED ({})\n{}\nshrunk in {} step(s); replay with: hyperq repro {}",
            S::KIND,
            f.case + 1,
            cli.cases,
            f.kind,
            f.detail,
            f.steps,
            f.repro.display()
        )),
    }
}

/// Execute a parsed CLI invocation, returning the text to print.
pub fn execute(cli: Cli) -> Result<String, String> {
    match cli.command {
        Command::Run => cmd_run(&cli),
        Command::Compare => cmd_compare(&cli),
        Command::Trace => cmd_trace(&cli),
        Command::Autosched => cmd_autosched(&cli),
        Command::Faults => cmd_faults(&cli),
        Command::Repro => cmd_repro(&cli),
        Command::Serve => cmd_serve(&cli),
        Command::Submit => cmd_submit(&cli),
        Command::JournalInspect => cmd_journal_inspect(&cli),
        Command::Scrub => cmd_scrub(&cli),
        Command::Chaos => cmd_soak::<Chaos>(&cli),
        Command::Torture => cmd_soak::<Torture>(&cli),
        Command::Table3 => {
            geometry::validate_against_builders();
            Ok(geometry::render_markdown())
        }
        Command::Devices => Ok(cmd_devices()),
        Command::Help => Ok(USAGE.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::parse_args;

    fn run(s: &str) -> Result<String, String> {
        let args = s.split_whitespace().map(String::from).collect();
        execute(parse_args(args).expect("parse"))
    }

    #[test]
    fn run_command_reports_metrics() {
        let out = run("run -w nn*2+needle*2 --streams 4 --seed 3").unwrap();
        assert!(out.contains("makespan"));
        assert!(out.contains("energy"));
        assert!(out.contains("events"));
        assert!(out.contains("schedule: knearest#0"));
    }

    #[test]
    fn run_with_gantt_renders_lanes() {
        let out = run("run -w nn*2 --streams 2 --gantt").unwrap();
        assert!(out.contains("lane"));
    }

    #[test]
    fn compare_shows_three_configurations() {
        let out = run("compare -w nn*2+needle*2 --streams 4").unwrap();
        assert!(out.contains("serial"));
        assert!(out.contains("concurrent+memsync"));
        assert!(out.contains("vs serial"));
    }

    #[test]
    fn table3_and_devices_render() {
        assert!(run("table3").unwrap().contains("Fan2"));
        let d = run("devices").unwrap();
        assert!(d.contains("k20") && d.contains("208"));
    }

    #[test]
    fn autosched_runs_small_budget() {
        let out = run("autosched -w nn*2+needle*2 --streams 4 --budget 2").unwrap();
        assert!(out.contains("best found score"));
    }

    #[test]
    fn help_prints_usage() {
        assert!(run("help").unwrap().contains("USAGE"));
    }

    #[test]
    fn repro_replays_a_written_case_and_rejects_garbage() {
        use hq_bench::chaos;
        use hq_des::rng::DetRng;

        let dir = std::env::temp_dir().join(format!("hq_repro_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // A generated case always passes; its repro must replay clean.
        let spec = chaos::gen_case(&mut DetRng::seed_from_u64(5));
        let path = dir.join("pass.json");
        std::fs::write(&path, chaos::case_to_json(&spec)).unwrap();
        let out = run(&format!("repro {}", path.display())).unwrap();
        assert!(out.contains("PASS"), "{out}");

        // A hang with no watchdog deadlocks; the repro reports FAIL but
        // the command itself succeeds (replaying a failure is the point).
        let mut bad = spec;
        bad.watchdog_us = 0;
        bad.kernel_hang_pm = 0;
        bad.copy_fail_pm = 0;
        bad.kernel_fault_pm = 0;
        bad.faults = vec![chaos::ScriptedFault {
            kind: FaultKind::KernelHang,
            app: 0,
            nth: 0,
        }];
        let path = dir.join("fail.json");
        std::fs::write(&path, chaos::case_to_json(&bad)).unwrap();
        let out = run(&format!("repro {}", path.display())).unwrap();
        assert!(out.contains("FAIL") && out.contains("Deadlock"), "{out}");

        // An unusable file is a command error.
        let path = dir.join("garbage.json");
        std::fs::write(&path, "{ not json").unwrap();
        assert!(run(&format!("repro {}", path.display())).is_err());
        assert!(run(&format!("repro {}", dir.join("missing.json").display())).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `repro` dispatches on the repro's `"kind"`: a torture repro with a
    /// bad field is reported by its torture field, never by falling
    /// through to the chaos layout (`'apps'`).
    #[test]
    fn repro_of_a_bad_torture_case_names_the_torture_field() {
        use hq_bench::torture;
        use hq_des::rng::DetRng;

        let dir = std::env::temp_dir().join(format!("hq_repro_kind_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let json = torture::case_to_json(&torture::gen_case(&mut DetRng::seed_from_u64(5)));
        let bad: String = json
            .lines()
            .map(|l| {
                if l.starts_with("  \"tenants\":") {
                    "  \"tenants\": \"many\",\n".to_string()
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        assert_ne!(bad, json);
        let path = dir.join("torture.json");
        std::fs::write(&path, bad).unwrap();
        let err = run(&format!("repro {}", path.display())).unwrap_err();
        assert!(
            err.contains("'tenants'") && !err.contains("'apps'"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fermi_device_flag_works() {
        let out = run("run -w needle*2 --streams 2 --device fermi").unwrap();
        assert!(out.contains("makespan"));
    }

    #[test]
    fn run_with_faults_reports_damage_and_retry_recovers() {
        let failed = run("run -w nn*2 --streams 2 --faults kernel@1").unwrap();
        assert!(failed.contains("faults injected"), "{failed}");
        assert!(failed.contains("app outcomes:"), "{failed}");
        assert!(failed.contains("Failed"), "{failed}");
        let recovered =
            run("run -w nn*2 --streams 2 --faults kernel@1 --recovery retry").unwrap();
        assert!(recovered.contains("Retried"), "{recovered}");
    }

    #[test]
    fn faults_demo_compares_policies() {
        let out = run("faults --streams 4 --seed 5").unwrap();
        assert!(out.contains("failfast"), "{out}");
        assert!(out.contains("retry"), "{out}");
        assert!(out.contains("degrade"), "{out}");
        assert!(out.contains("faults injected"), "{out}");
    }

    #[test]
    fn submit_direct_prints_the_deterministic_artifact() {
        let a = run("submit --direct -w nn*2+needle*2 --streams 4 --seed 11").unwrap();
        let b = run("submit --direct -w nn*2+needle*2 --streams 4 --seed 11").unwrap();
        assert_eq!(a, b, "direct artifact must be deterministic");
        assert!(a.starts_with("hq-service-artifact v1\n"), "{a}");
        assert!(a.ends_with("end"), "newline re-added by main_with");
        // The artifact matches the service's own renderer byte-for-byte.
        let cli = parse_args(
            "submit --direct -w nn*2+needle*2 --streams 4 --seed 11"
                .split_whitespace()
                .map(String::from)
                .collect(),
        )
        .unwrap();
        let direct = hq_bench::service::run_job_direct(&super::job_spec_from(&cli)).unwrap();
        assert_eq!(format!("{a}\n"), direct);
        // A scripted-panic job has no artifact to print.
        assert!(run("submit --direct -w nn --panic").is_err());
    }

    #[test]
    fn journal_inspect_dumps_tenants_and_rejects_missing_files() {
        use hq_bench::service::{JobSpec, Journal};
        let dir = std::env::temp_dir().join(format!("hq_cli_inspect_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.wal");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            let mut spec = JobSpec {
                workload: vec![hq_workloads::apps::AppKind::Knearest],
                ..JobSpec::default()
            };
            spec.tenant = "acme".to_string();
            j.accept(1, &spec).unwrap();
            j.done(1, "ok", None).unwrap();
            spec.tenant = "globex".to_string();
            j.accept(2, &spec).unwrap();
        }
        let out = run(&format!("journal inspect {}", path.display())).unwrap();
        assert!(out.contains("tenant acme: accepted 1 done 1 unfinished 0"), "{out}");
        assert!(out.contains("tenant globex: accepted 1 done 0 unfinished 1"), "{out}");
        assert!(out.contains("sealed=no"), "{out}");
        assert!(run(&format!("journal inspect {}", dir.join("nope.wal").display())).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn submit_to_a_dead_socket_is_a_structured_error() {
        let err = run("submit --socket /tmp/hq-definitely-not-served.sock -w nn").unwrap_err();
        assert!(err.contains("connect"), "{err}");
        let err = run("submit --tcp 127.0.0.1:1 -w nn").unwrap_err();
        assert!(err.contains("connect"), "{err}");
    }

    #[test]
    fn submit_timeout_precedence_is_flag_env_default() {
        let cli = |s: &str| {
            parse_args(s.split_whitespace().map(String::from).collect()).expect("parse")
        };
        std::env::remove_var("HQ_SUBMIT_TIMEOUT_MS");
        assert_eq!(submit_timeout_ms(&cli("submit --tcp a:1 -w nn")), 120_000);
        assert_eq!(
            submit_timeout_ms(&cli("submit --tcp a:1 -w nn --timeout-ms 77")),
            77
        );
        std::env::set_var("HQ_SUBMIT_TIMEOUT_MS", "5000");
        assert_eq!(submit_timeout_ms(&cli("submit --tcp a:1 -w nn")), 5_000);
        assert_eq!(
            submit_timeout_ms(&cli("submit --tcp a:1 -w nn --timeout-ms 77")),
            77,
            "the flag outranks the environment"
        );
        std::env::set_var("HQ_SUBMIT_TIMEOUT_MS", "not-a-number");
        assert_eq!(submit_timeout_ms(&cli("submit --tcp a:1 -w nn")), 120_000);
        std::env::remove_var("HQ_SUBMIT_TIMEOUT_MS");
    }

    #[test]
    fn fault_free_run_output_is_unchanged_by_recovery_flags() {
        let base = run("run -w nn*2 --streams 2 --seed 4").unwrap();
        let with_policy = run("run -w nn*2 --streams 2 --seed 4 --recovery retry").unwrap();
        assert_eq!(base, with_policy);
        assert!(!base.contains("faults injected"));
    }
}
