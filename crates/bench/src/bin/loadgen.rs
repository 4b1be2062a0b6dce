//! Burst load generator for the scenario service and fleet.
//!
//! Drives a sustained burst of `submit`+`wait` conversations over C
//! concurrent connections against a Unix-socket server (`--socket`) or
//! a fleet coordinator's TCP front door (`--tcp`), and reports p50/p99
//! job latency, jobs/s, jobs/s-per-core and the server's fsyncs per
//! accept. Throughput is reported, not gated: absolute serving speed is
//! compared change against parent by `perfbench`.
//!
//! Chaos hooks, used by the CI fleet gate:
//!
//! * `--kill-pidfile FILE --kill-after K` — after the K-th job
//!   completes, `kill -9` the process whose pid is in FILE (a fleet
//!   worker), making "crash one worker mid-burst" a deterministic,
//!   repeatable event rather than a sleep-based race;
//! * `--verify` — after every `ok` job, read the artifact and compare
//!   byte-for-byte against an in-process [`run_job_direct`] of the
//!   same spec. Any mismatch or lost job makes the run exit non-zero,
//!   so "zero accepted jobs lost" is machine-checked.
//!
//! `--json FILE` saves the measurements (flat JSON). A lost or
//! diverged job makes the run exit non-zero.

use hq_bench::service::{run_job_direct, Client, JobDone, JobSpec, Reject, Request, Response};
use hq_des::json::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Options {
    socket: Option<PathBuf>,
    tcp: Option<String>,
    jobs: usize,
    conns: usize,
    seed_base: u64,
    seed_pool: u64,
    deadline_ms: Option<u64>,
    timeout_ms: u64,
    verify: bool,
    kill_pidfile: Option<PathBuf>,
    kill_after: u64,
    json: Option<PathBuf>,
    tenant: Option<String>,
    pace_ms: u64,
    allow_shed: bool,
}

fn usage() -> String {
    "usage: loadgen (--socket PATH | --tcp ADDR) [--jobs N] [--conns C] \
     [--seed BASE] [--seed-pool P] [--deadline-ms MS] [--timeout-ms MS] \
     [--tenant NAME] [--pace-ms MS] [--allow-shed] \
     [--verify] [--kill-pidfile FILE --kill-after K] [--json FILE]"
        .to_string()
}

fn parse(args: Vec<String>) -> Result<Options, String> {
    let mut o = Options {
        socket: None,
        tcp: None,
        jobs: 60,
        conns: 4,
        seed_base: 1,
        seed_pool: 8,
        deadline_ms: None,
        timeout_ms: 60_000,
        verify: false,
        kill_pidfile: None,
        kill_after: 0,
        json: None,
        tenant: None,
        pace_ms: 0,
        allow_shed: false,
    };
    let mut it = args.into_iter();
    let value = |it: &mut std::vec::IntoIter<String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--socket" => o.socket = Some(value(&mut it, "--socket")?.into()),
            "--tcp" => o.tcp = Some(value(&mut it, "--tcp")?),
            "--jobs" => o.jobs = value(&mut it, "--jobs")?.parse().map_err(|_| usage())?,
            "--conns" => o.conns = value(&mut it, "--conns")?.parse().map_err(|_| usage())?,
            "--seed" => o.seed_base = value(&mut it, "--seed")?.parse().map_err(|_| usage())?,
            "--seed-pool" => {
                o.seed_pool = value(&mut it, "--seed-pool")?.parse().map_err(|_| usage())?
            }
            "--deadline-ms" => {
                o.deadline_ms =
                    Some(value(&mut it, "--deadline-ms")?.parse().map_err(|_| usage())?)
            }
            "--timeout-ms" => {
                o.timeout_ms = value(&mut it, "--timeout-ms")?.parse().map_err(|_| usage())?
            }
            "--verify" => o.verify = true,
            "--kill-pidfile" => o.kill_pidfile = Some(value(&mut it, "--kill-pidfile")?.into()),
            "--kill-after" => {
                o.kill_after = value(&mut it, "--kill-after")?.parse().map_err(|_| usage())?
            }
            "--json" => o.json = Some(value(&mut it, "--json")?.into()),
            "--tenant" => o.tenant = Some(value(&mut it, "--tenant")?),
            "--pace-ms" => o.pace_ms = value(&mut it, "--pace-ms")?.parse().map_err(|_| usage())?,
            "--allow-shed" => o.allow_shed = true,
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    if o.socket.is_none() == o.tcp.is_none() {
        return Err(format!("exactly one of --socket/--tcp is required\n{}", usage()));
    }
    if o.jobs == 0 || o.conns == 0 || o.seed_pool == 0 {
        return Err("--jobs/--conns/--seed-pool must be at least 1".into());
    }
    if o.kill_pidfile.is_some() && o.kill_after == 0 {
        return Err("--kill-pidfile needs --kill-after K (K >= 1)".into());
    }
    Ok(o)
}

fn connect(o: &Options) -> Result<Client, String> {
    let mut client = match (&o.socket, &o.tcp) {
        (Some(path), _) => Client::connect(path)?,
        (_, Some(addr)) => Client::connect_tcp(addr)?,
        _ => unreachable!("validated in parse"),
    };
    client.set_read_timeout(Some(Duration::from_millis(o.timeout_ms)))?;
    Ok(client)
}

fn spec_for(o: &Options, job: usize) -> JobSpec {
    let mut spec = JobSpec {
        seed: o.seed_base + (job as u64 % o.seed_pool),
        deadline_ms: o.deadline_ms,
        ..JobSpec::default()
    };
    if let Some(tenant) = &o.tenant {
        spec.tenant = tenant.clone();
    }
    spec
}

/// `kill -9` the pid recorded in `pidfile` — the deterministic
/// mid-burst crash. Going through the external `kill` avoids a direct
/// libc dependency and matches what an operator (or the chaos gate's
/// shell version) would do.
fn kill_nine(pidfile: &Path) {
    match std::fs::read_to_string(pidfile) {
        Ok(pid) => {
            let pid = pid.trim().to_string();
            eprintln!("loadgen: killing pid {pid} ({})", pidfile.display());
            match std::process::Command::new("kill").args(["-9", &pid]).status() {
                Ok(st) if st.success() => {}
                Ok(st) => eprintln!("loadgen: kill exited with {st}"),
                Err(e) => eprintln!("loadgen: kill failed: {e}"),
            }
        }
        Err(e) => eprintln!("loadgen: read {}: {e}", pidfile.display()),
    }
}

struct Shared {
    completions: AtomicU64,
    killed: AtomicBool,
    retries: AtomicU64,
    failures: AtomicU64,
    shed: AtomicU64,
}

/// What happened to one job: finished (with its latency), shed by
/// admission control (only a terminal outcome under `--allow-shed`),
/// or lost/diverged — the failure the exit code reports.
enum Outcome {
    Done(f64),
    Shed,
    Lost,
}

/// Run one job to completion: submit (retrying transient rejections
/// and transport drops with backoff), then wait by id — re-waiting on
/// a fresh connection if the conversation dies, so a coordinator
/// riding out a worker crash never counts as a client failure.
fn run_one(o: &Options, shared: &Shared, client: &mut Option<Client>, job: usize) -> Outcome {
    let spec = spec_for(o, job);
    let started = Instant::now();
    let overall = Duration::from_millis(o.timeout_ms.saturating_mul(2).max(10_000));
    let mut accepted: Option<u64> = None;
    let mut attempt = 0u32;
    let done = loop {
        if started.elapsed() > overall {
            eprintln!("loadgen: job {job}: gave up after {:?}", started.elapsed());
            return Outcome::Lost;
        }
        let c = match client {
            Some(c) => c,
            None => match connect(o) {
                Ok(c) => client.insert(c),
                Err(_) => {
                    shared.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(50));
                    continue;
                }
            },
        };
        let result = match accepted {
            None => c.call(&Request::Submit(spec.clone())),
            Some(id) => c.call(&Request::Wait(id)),
        };
        match result {
            Ok(Response::Accepted(id)) => accepted = Some(id),
            Ok(Response::Done(_, done)) => break done,
            Ok(Response::Rejected(Reject::Shed { retry_after_ms, .. }))
                if accepted.is_none() =>
            {
                shared.shed.fetch_add(1, Ordering::Relaxed);
                if o.allow_shed {
                    // A flooding tenant takes the shed as the answer
                    // and moves on — that is the overload contract.
                    return Outcome::Shed;
                }
                // A paced tenant resubmits after the server's hint.
                shared.retries.fetch_add(1, Ordering::Relaxed);
                attempt += 1;
                let backoff = 10u64 << attempt.min(5);
                std::thread::sleep(Duration::from_millis(backoff.max(retry_after_ms)));
            }
            Ok(Response::Rejected(Reject::QueueFull { .. }))
            | Ok(Response::Rejected(Reject::CircuitOpen { .. }))
            | Ok(Response::Rejected(Reject::Unavailable(_)))
                if accepted.is_none() =>
            {
                // Transient backpressure: back off and resubmit.
                shared.retries.fetch_add(1, Ordering::Relaxed);
                attempt += 1;
                std::thread::sleep(Duration::from_millis(10 << attempt.min(5)));
            }
            Ok(other) => {
                eprintln!("loadgen: job {job}: terminal {other:?}");
                return Outcome::Lost;
            }
            Err(e) => {
                // Transport died or timed out: reconnect. An accepted
                // job keeps its id — the server holds the result.
                shared.retries.fetch_add(1, Ordering::Relaxed);
                *client = None;
                attempt += 1;
                if attempt.is_multiple_of(10) {
                    eprintln!("loadgen: job {job}: retrying after: {e}");
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    };
    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
    let n = shared.completions.fetch_add(1, Ordering::SeqCst) + 1;
    if let Some(pidfile) = &o.kill_pidfile {
        if n == o.kill_after && !shared.killed.swap(true, Ordering::SeqCst) {
            kill_nine(pidfile);
        }
    }
    match done {
        JobDone::Ok { artifact } => {
            if o.verify {
                let served = std::fs::read_to_string(&artifact).unwrap_or_default();
                let direct = run_job_direct(&spec).unwrap_or_default();
                if served.is_empty() || served != direct {
                    eprintln!("loadgen: job {job}: artifact {artifact} diverges from --direct");
                    return Outcome::Lost;
                }
            }
            Outcome::Done(latency_ms)
        }
        JobDone::DeadlineExceeded if o.deadline_ms.is_some() => Outcome::Done(latency_ms),
        other => {
            eprintln!("loadgen: job {job}: finished {}: not ok", other.code());
            Outcome::Lost
        }
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(args) {
        Ok(o) => Arc::new(o),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let shared = Arc::new(Shared {
        completions: AtomicU64::new(0),
        killed: AtomicBool::new(false),
        retries: AtomicU64::new(0),
        failures: AtomicU64::new(0),
        shed: AtomicU64::new(0),
    });
    let next_job = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut latencies: Vec<f64> = Vec::with_capacity(o.jobs);
    let handles: Vec<_> = (0..o.conns)
        .map(|t| {
            let o = Arc::clone(&o);
            let shared = Arc::clone(&shared);
            let next_job = Arc::clone(&next_job);
            std::thread::Builder::new()
                .name(format!("loadgen-{t}"))
                .spawn(move || {
                    let mut client: Option<Client> = None;
                    let mut mine = Vec::new();
                    loop {
                        let job = next_job.fetch_add(1, Ordering::SeqCst) as usize;
                        if job >= o.jobs {
                            break;
                        }
                        match run_one(&o, &shared, &mut client, job) {
                            Outcome::Done(ms) => mine.push(ms),
                            Outcome::Shed => {}
                            Outcome::Lost => {
                                shared.failures.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        if o.pace_ms > 0 {
                            std::thread::sleep(Duration::from_millis(o.pace_ms));
                        }
                    }
                    mine
                })
                .expect("spawn loadgen thread")
        })
        .collect();
    for h in handles {
        latencies.extend(h.join().expect("loadgen thread panicked"));
    }
    let wall = started.elapsed().as_secs_f64();
    let failures = shared.failures.load(Ordering::SeqCst);
    let retries = shared.retries.load(Ordering::Relaxed);
    let shed = shared.shed.load(Ordering::Relaxed);
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1) as f64;
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let jobs_per_sec = latencies.len() as f64 / wall.max(1e-9);
    // One status call after the burst surfaces the server's batching
    // and group-commit counters alongside the client-side figures. A
    // failed call is fatal: zeroed counters would read as a perfect
    // fsync ratio.
    let status = match connect(&o).and_then(|mut c| c.call(&Request::Status)) {
        Ok(Response::Status(s)) => s,
        other => {
            eprintln!("loadgen: status call failed: {other:?}");
            std::process::exit(1);
        }
    };
    let fsyncs_per_accept = if status.accepts > 0 {
        status.fsyncs as f64 / status.accepts as f64
    } else {
        0.0
    };
    let fixed3 = |x: f64| Json::Fixed(x, 3);
    let report = Json::obj([
        ("jobs", (o.jobs as u64).into()),
        ("completed", (latencies.len() as u64).into()),
        ("failures", failures.into()),
        ("retries", retries.into()),
        ("shed", shed.into()),
        ("wall_secs", fixed3(wall)),
        ("jobs_per_sec", fixed3(jobs_per_sec)),
        ("jobs_per_sec_per_core", fixed3(jobs_per_sec / cores)),
        ("p50_ms", fixed3(percentile(&latencies, 50.0))),
        ("p99_ms", fixed3(percentile(&latencies, 99.0))),
        ("fsyncs_per_accept", fixed3(fsyncs_per_accept)),
        ("window_flushes", status.window_flushes.into()),
        ("solo_flushes", status.solo_flushes.into()),
        ("cache_corrupt", status.cache_corrupt.into()),
        ("dedup_hits", status.dedup_hits.into()),
    ])
    .pretty();
    print!("{report}");
    if let Some(path) = &o.json {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("loadgen: write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    if failures > 0 {
        eprintln!("loadgen: {failures} job(s) lost or diverged");
        std::process::exit(1);
    }
}
