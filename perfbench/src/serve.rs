//! The serving workloads: `serve_warm` (memo-hit jobs) and `serve_cold`
//! (unique scenarios), each an open loop against a `hyperq serve`
//! child, with the correctness check after the timed window.

use crate::server::Server;
use crate::stats::{lag, latency_from_due, Schedule, StatusDelta, Tally};
use hq_bench::service::{run_job_direct, Client, JobDone, JobSpec, Request, Response};
use hq_workloads::apps::AppKind;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Distinct scenarios `serve_warm` draws from.
pub const WARM_POOL: u64 = 4;
/// Arrival rate of `serve_warm`, jobs/s. A memo-hit job takes about
/// 0.5 ms, 0.4 ms of it waiting for `Accepted` behind the 200 µs
/// group-commit window, so at 1 ms spacing the server seldom holds two
/// jobs. The rate is fixed rather than closed-loop: a closed loop over
/// two connections completes two over the *mean* latency, so a host
/// stall of one connection idles half the load, and on a shared 2-vCPU
/// host its `jobs_per_s` spread past 0.25 between runs of the same code
/// while the median latency held.
pub const WARM_RATE: f64 = 1000.0;
/// Arrival rate of `serve_cold`, jobs/s. A job takes 12–19 ms on one
/// of the server's two workers, so at 33 ms spacing two jobs seldom
/// overlap and no queue forms: the latency is the job's own service
/// time, not a queue that grows with the host's load (at 55 jobs/s a
/// slow host phase queued jobs and moved p90 by a third). A 40 s run
/// still completes the 1200 jobs a p99 needs with room to spare.
pub const COLD_RATE: f64 = 30.0;
/// Jobs an open loop keeps in flight at most. A sender that fell behind
/// catches up by sending back to back; the bound keeps that burst
/// within the server's queue depth of 16, so a host stall delays jobs
/// instead of having them refused with `queue-full`.
const MAX_IN_FLIGHT: usize = 8;
/// Length of the traced run's capacity probe, a closed loop after the
/// open loop's window.
pub const PROBE: Duration = Duration::from_secs(4);
/// Connections of the capacity probe, one tenant each, and the jobs
/// each keeps in flight: eight jobs keep both workers busy with a queue
/// behind them, so group commit and batched dispatch are exercised.
const PROBE_CONNS: u64 = 2;
const PROBE_DEPTH: usize = 4;
/// Server boots per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// splitmix64: the seed → input derivation.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `serve_warm` scenario pool: default jobs (needle×1, 4 streams)
/// on `WARM_POOL` seeds drawn from `seed`.
pub fn warm_pool(seed: u64) -> Vec<JobSpec> {
    (0..WARM_POOL)
        .map(|k| JobSpec {
            seed: mix(seed ^ (k + 1)) >> 16,
            ..JobSpec::default()
        })
        .collect()
}

/// Job `i` of `serve_cold`: the paper's four-app Rodinia mix on 8
/// streams with a seed of its own.
pub fn cold_spec(seed: u64, i: u64) -> JobSpec {
    JobSpec {
        workload: vec![
            AppKind::Gaussian,
            AppKind::Knearest,
            AppKind::Needle,
            AppKind::Srad,
        ],
        streams: 8,
        seed: (mix(seed) >> 24).wrapping_add(i),
        ..JobSpec::default()
    }
}

/// Everything one serving run measured.
#[derive(Default)]
pub struct ServeRun {
    pub setup_s: Vec<f64>,
    /// Client latency of each `ok` job: from its [`Clock`] to `Done`.
    pub latency_ms: Vec<f64>,
    /// When each of those jobs completed, seconds into the window.
    pub done_s: Vec<f64>,
    /// Submit sent to `Accepted` received.
    pub accept_ms: Vec<f64>,
    /// `Accepted` received to `Done` received.
    pub complete_ms: Vec<f64>,
    /// Send time minus due time of every attempt.
    pub lag_ms: Vec<f64>,
    pub tally: Tally,
    /// From the first send to the last answer.
    pub elapsed_s: f64,
    pub delta: StatusDelta,
    pub peak_rss_mb: f64,
    /// Share of the window's completed jobs served from the scenario
    /// cache.
    pub hit_ratio: f64,
    /// Traced runs only: the capacity probe.
    pub capacity: Option<Capacity>,
    pub artifact_bytes: f64,
    pub correct: bool,
}

/// What the capacity probe measured.
pub struct Capacity {
    /// Completed `ok` jobs per second.
    pub jobs_per_s: f64,
    /// Server counters over the probe.
    pub delta: StatusDelta,
}

/// One completed job: which spec it ran and where its artifact is.
struct Served {
    spec: usize,
    artifact: String,
}

/// Boot the server `SETUP_REPS` times (each on a fresh directory,
/// submitting `prime` to completion), timing each boot; keep the last.
fn set_up(run_dir: &Path, prime: &[JobSpec], run: &mut ServeRun) -> Result<Server, String> {
    let mut last = None;
    for r in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            Server::shutdown(prev)?;
        }
        let t = Instant::now();
        let server = Server::boot(&run_dir.join(format!("server-{r}")))?;
        if !prime.is_empty() {
            let mut c = server.connect()?;
            for spec in prime {
                match c.submit_and_wait(spec.clone())? {
                    Response::Done(_, JobDone::Ok { .. }) => {}
                    other => return Err(format!("priming job answered {other:?}")),
                }
            }
        }
        run.setup_s.push(t.elapsed().as_secs_f64());
        last = Some(server);
    }
    Ok(last.expect("SETUP_REPS > 0"))
}

fn cache_entries(server: &Server) -> u64 {
    std::fs::read_dir(server.dir.join("results").join(".scenario-cache"))
        .map(|d| d.filter_map(Result::ok).count() as u64)
        .unwrap_or(0)
}

/// Submit once. `None` when the job was refused or the connection died
/// (counted in `tally`; a dead connection is replaced). The loop never
/// retries: a retry would hold up every later send.
fn submit(client: &mut Client, server: &Server, spec: &JobSpec, tally: &mut Tally) -> Option<u64> {
    match client.call(&Request::Submit(spec.clone())) {
        Ok(Response::Accepted(id)) => Some(id),
        Ok(Response::Rejected(r)) => {
            tally.refuse(&r);
            None
        }
        Ok(_) => {
            tally.other += 1;
            None
        }
        Err(_) => {
            tally.lost += 1;
            if let Ok(c) = server.connect() {
                *client = c;
            }
            None
        }
    }
}

/// Wait for job `id`; the artifact path when it completed `ok`.
fn wait(client: &mut Client, server: &Server, id: u64, tally: &mut Tally) -> Option<String> {
    match client.call(&Request::Wait(id)) {
        Ok(Response::Done(_, JobDone::Ok { artifact })) => {
            tally.ok += 1;
            Some(artifact)
        }
        Ok(Response::Done(_, JobDone::DeadlineExceeded)) => {
            tally.deadline += 1;
            None
        }
        Ok(_) => {
            tally.other += 1;
            None
        }
        Err(_) => {
            tally.lost += 1;
            if let Ok(c) = server.connect() {
                *client = c;
            }
            None
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Compare every served artifact with the reference bytes of its spec,
/// counting mismatches and unreadable artifacts as diverged. Runs on
/// two threads; the reference is computed by `reference(spec index)`.
fn verify(
    served: &[Served],
    reference: &(dyn Fn(usize) -> Result<String, String> + Sync),
    run: &mut ServeRun,
) {
    let check = |chunk: &[Served]| -> (u64, u64) {
        let (mut diverged, mut bytes) = (0u64, 0u64);
        for s in chunk {
            let got = std::fs::read_to_string(&s.artifact).unwrap_or_default();
            bytes += got.len() as u64;
            if reference(s.spec).map_or(true, |want| want != got) {
                diverged += 1;
            }
        }
        (diverged, bytes)
    };
    let half = served.len().div_ceil(2);
    let (a, b) = served.split_at(half);
    let ((d1, b1), (d2, b2)) = std::thread::scope(|s| {
        let h = s.spawn(|| check(b));
        let first = check(a);
        (first, h.join().expect("verifier thread"))
    });
    run.tally.diverged += d1 + d2;
    run.artifact_bytes = crate::stats::ratio(b1 + b2, served.len() as u64);
}

/// `serve_warm`: boot and prime the pool, then an open loop at
/// [`WARM_RATE`] drawing from it, one tenant for even and one for odd
/// jobs, each timed from its send; every artifact is checked against
/// the pool's reference bytes.
pub fn warm(run_dir: &Path, seed: u64, seconds: f64, probe: bool) -> Result<ServeRun, String> {
    let pool = warm_pool(seed);
    let reference: Vec<String> = pool.iter().map(run_job_direct).collect::<Result<_, _>>()?;
    let job = |i: u64| {
        let k = (mix(seed ^ (0xC0DE_0000 + i)) % pool.len() as u64) as usize;
        let spec = JobSpec {
            tenant: format!("t{}", i % 2),
            ..pool[k].clone()
        };
        (k, spec)
    };
    open_loop(
        run_dir,
        &pool,
        Pace {
            rate: WARM_RATE,
            clock: Clock::Sent,
        },
        seconds,
        probe,
        &job,
        &|k| Ok(reference[k].clone()),
    )
}

/// `serve_cold`: boot, then an open loop of unique scenarios at
/// [`COLD_RATE`], each timed from its due time; every artifact is
/// checked against a fresh direct run.
pub fn cold(run_dir: &Path, seed: u64, seconds: f64, probe: bool) -> Result<ServeRun, String> {
    open_loop(
        run_dir,
        &[],
        Pace {
            rate: COLD_RATE,
            clock: Clock::Due,
        },
        seconds,
        probe,
        &|i| (i as usize, cold_spec(seed, i)),
        &|i| run_job_direct(&cold_spec(seed, i as u64)),
    )
}

/// Where an open loop starts a job's latency clock.
#[derive(Clone, Copy, PartialEq)]
enum Clock {
    /// When the job was due, so a stalled generator is charged to every
    /// job it delayed.
    Due,
    /// When the submit was sent: the client-observed latency of the job
    /// alone. Generator lag is still counted in `client.late_sends`.
    Sent,
}

/// How an open loop sends: `rate` jobs/s, each timed from `clock`.
#[derive(Clone, Copy)]
struct Pace {
    rate: f64,
    clock: Clock,
}

/// A job the open loop's sender handed to its waiter.
struct Pending {
    key: usize,
    id: u64,
    due: Duration,
    sent: Duration,
    accepted: Duration,
}

/// Boot (priming `prime`), then one thread submits job `i` = `job(i)`
/// at `pace` for `seconds` while another waits on the ids. With
/// `probe`, then run the capacity probe on the jobs that follow. Last,
/// verify every artifact against `reference` of its key. `job` returns
/// the job's reference key with its spec.
fn open_loop(
    run_dir: &Path,
    prime: &[JobSpec],
    pace: Pace,
    seconds: f64,
    probe: bool,
    job: &(dyn Fn(u64) -> (usize, JobSpec) + Sync),
    reference: &(dyn Fn(usize) -> Result<String, String> + Sync),
) -> Result<ServeRun, String> {
    let mut run = ServeRun::default();
    let server = set_up(run_dir, prime, &mut run)?;
    let before = server.status()?;
    let inserts_before = cache_entries(&server);
    let schedule = Schedule::new(pace.rate);
    let window = Duration::from_secs_f64(seconds);
    let (tx, rx) = mpsc::channel::<Pending>();
    let mut sender_client = server.connect()?;
    let mut waiter_client = server.connect()?;
    // The server's accept loop picks up a new connection within 25 ms;
    // a ping on each makes sure both are served before timing starts.
    for c in [&mut sender_client, &mut waiter_client] {
        c.call(&Request::Ping)?;
    }
    let in_flight = AtomicUsize::new(0);
    let t0 = Instant::now();
    let (sender, (waiter, mut served)) = std::thread::scope(|s| {
        let (server, in_flight) = (&server, &in_flight);
        let waiter = s.spawn(move || {
            let mut run = ServeRun::default();
            let mut served = Vec::new();
            for p in rx {
                let answer = wait(&mut waiter_client, server, p.id, &mut run.tally);
                in_flight.fetch_sub(1, Ordering::Release);
                if let Some(artifact) = answer {
                    let done = t0.elapsed();
                    let start = if pace.clock == Clock::Due {
                        p.due
                    } else {
                        p.sent
                    };
                    run.latency_ms.push(ms(latency_from_due(start, done)));
                    run.done_s.push(done.as_secs_f64());
                    run.accept_ms.push(ms(p.accepted - p.sent));
                    run.complete_ms.push(ms(done - p.accepted));
                    served.push(Served {
                        spec: p.key,
                        artifact,
                    });
                }
            }
            (run, served)
        });
        let mut run = ServeRun::default();
        for i in 0..schedule.jobs_within(window) {
            let due = schedule.due(i);
            if let Some(wait) = due.checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
            while in_flight.load(Ordering::Acquire) >= MAX_IN_FLIGHT {
                std::thread::sleep(Duration::from_micros(50));
            }
            let sent = t0.elapsed();
            run.lag_ms.push(ms(lag(due, sent)));
            run.tally.attempted += 1;
            let (key, spec) = job(i);
            if let Some(id) = submit(&mut sender_client, server, &spec, &mut run.tally) {
                let accepted = t0.elapsed();
                in_flight.fetch_add(1, Ordering::Release);
                tx.send(Pending {
                    key,
                    id,
                    due,
                    sent,
                    accepted,
                })
                .expect("waiter outlives the sender");
            }
        }
        drop(tx);
        (run, waiter.join().expect("waiter thread"))
    });
    run.elapsed_s = t0.elapsed().as_secs_f64();
    run.delta = StatusDelta::between(&before, &server.status()?);
    let inserts = cache_entries(&server).saturating_sub(inserts_before);
    run.peak_rss_mb = server.peak_rss_mb()?;
    run.tally.merge(&sender.tally);
    run.tally.merge(&waiter.tally);
    run.hit_ratio = 1.0 - crate::stats::ratio(inserts.min(run.tally.ok), run.tally.ok);
    if probe {
        let first = schedule.jobs_within(window);
        run.capacity = Some(capacity(&server, job, first, &mut run.tally, &mut served)?);
    }
    server.shutdown()?;
    run.lag_ms = sender.lag_ms;
    run.latency_ms = waiter.latency_ms;
    run.done_s = waiter.done_s;
    run.accept_ms = waiter.accept_ms;
    run.complete_ms = waiter.complete_ms;
    verify(&served, reference, &mut run);
    run.correct = run.tally.diverged == 0;
    Ok(run)
}

/// The capacity probe: [`PROBE_CONNS`] closed loops for [`PROBE`], each
/// submitting [`PROBE_DEPTH`] jobs, then waiting on all of them, on job
/// numbers from `first` on.
fn capacity(
    server: &Server,
    job: &(dyn Fn(u64) -> (usize, JobSpec) + Sync),
    first: u64,
    tally: &mut Tally,
    served: &mut Vec<Served>,
) -> Result<Capacity, String> {
    let mut clients = Vec::new();
    for _ in 0..PROBE_CONNS {
        let mut c = server.connect()?;
        c.call(&Request::Ping)?;
        clients.push(c);
    }
    let before = server.status()?;
    let t0 = Instant::now();
    let parts: Vec<(Tally, Vec<Served>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(0..)
            .map(|(mut client, c)| {
                s.spawn(move || {
                    let (mut tally, mut served) = (Tally::default(), Vec::new());
                    let mut i = first + c;
                    while t0.elapsed() < PROBE {
                        let mut ids = Vec::new();
                        for _ in 0..PROBE_DEPTH {
                            let (key, spec) = job(i);
                            i += PROBE_CONNS;
                            tally.attempted += 1;
                            if let Some(id) = submit(&mut client, server, &spec, &mut tally) {
                                ids.push((key, id));
                            }
                        }
                        for (key, id) in ids {
                            if let Some(artifact) = wait(&mut client, server, id, &mut tally) {
                                served.push(Served {
                                    spec: key,
                                    artifact,
                                });
                            }
                        }
                    }
                    (tally, served)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let delta = StatusDelta::between(&before, &server.status()?);
    let mut ok = 0;
    for (t, s) in parts {
        ok += t.ok;
        tally.merge(&t);
        served.extend(s);
    }
    Ok(Capacity {
        jobs_per_s: ok as f64 / elapsed,
        delta,
    })
}
