//! Fleet coordinator: a supervised multi-process sharded front end for
//! the scenario service.
//!
//! The single-process [`super::Server`] keeps many worker *threads*
//! busy; the fleet applies the same Hyper-Q principle one level up and
//! keeps many worker *processes* busy — each its own `hyperq serve`
//! child with a private Unix socket, write-ahead journal and scenario
//! cache — behind one TCP front door speaking the exact same
//! length-prefixed [`super::protocol`] frames. The door is the server's
//! own front end: a blocking accept loop with a thread per connection.
//!
//! ## Topology and placement
//!
//! ```text
//!   clients ──TCP──▶ coordinator ──UDS──▶ shard-0  (journal, cache)
//!                         │         ├───▶ shard-1  (journal, cache)
//!                         ▼         └───▶ shard-2  (journal, cache)
//!                    supervisor (heartbeats, restart/rehash)
//! ```
//!
//! Jobs are placed on the consistent-hash [`Ring`] keyed by the spec's
//! [`JobSpec::signature`] — the same key the content-addressed scenario
//! cache uses — so repeated submissions of one spec keep landing on the
//! shard whose cache is already warm, and losing one shard remaps only
//! that shard's keys.
//!
//! ## Robustness
//!
//! * **Dispatch** is bounded-retry with exponential backoff and
//!   deterministic jitter; each transport failure records against that
//!   shard's [`Breaker`], and routing walks past open-breaker shards.
//!   If every attempt fails the client gets a framed `unavailable` —
//!   nothing was accepted, resubmitting is safe.
//! * **Acceptance is worker-durable**: the coordinator answers
//!   `Accepted` only after a worker has fsynced the job into its own
//!   journal, so `kill -9` of any worker at any instant loses zero
//!   accepted jobs — the supervisor either restarts the worker in
//!   place (its journal replays deterministically) or, past
//!   `max_restarts`, marks the shard dead, removes it from the ring
//!   and rehashes its unfinished jobs onto surviving shards, rescuing
//!   already-completed results via a read-only [`Journal::peek`].
//! * **Heartbeats fold into the breaker**: the supervisor pings every
//!   shard each `heartbeat_ms`; failures open the shard's breaker
//!   (routing avoids it), and after the cooldown the next ping *is*
//!   the half-open probe that closes it again.
//! * **Deadlines propagate**: a job's remaining deadline budget is
//!   recomputed at every coordinator→worker hop, including
//!   re-dispatch after a crash.
//! * **Graceful drain**: SIGTERM or a `shutdown` request wakes the
//!   accept loop at once and new connections are refused; the
//!   coordinator collects every outstanding job's result, releases the
//!   supervisor from its heartbeat wait, then shuts each worker down so
//!   every live shard seals its journal.

use super::journal::Journal;
use super::protocol::{JobDone, JobSpec, Reject, Request, Response, StatusReport, TenantStat};
use super::ring::{Ring, DEFAULT_VNODES};
use super::{front, retry_backoff as backoff, Breaker, Client};
use crate::util::write_atomic;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Fleet tunables. [`FleetOptions::new`] fills serving defaults; the
/// CLI overrides from flags, tests from code.
#[derive(Clone, Debug)]
pub struct FleetOptions {
    /// TCP address to bind, e.g. `127.0.0.1:0` (0 = pick a port; the
    /// resolved address is written to `<dir>/addr`).
    pub addr: String,
    /// Worker *process* count (one shard each).
    pub workers: usize,
    /// Fleet state directory; shard `i` lives under `<dir>/shard-<i>/`.
    pub dir: PathBuf,
    /// Per-worker bounded queue depth.
    pub queue_depth: usize,
    /// Worker threads inside each worker process.
    pub worker_threads: usize,
    /// Transport failures that open a shard's breaker.
    pub breaker_threshold: u32,
    /// Open-shard cooldown before a heartbeat probe is admitted.
    pub breaker_cooldown_ms: u64,
    /// Supervisor heartbeat period.
    pub heartbeat_ms: u64,
    /// In-place restarts per shard before it is declared dead and its
    /// jobs rehashed onto surviving shards.
    pub max_restarts: u32,
    /// Bounded dispatch attempts per submit.
    pub dispatch_attempts: u32,
    /// Base of the exponential dispatch backoff.
    pub backoff_base_ms: u64,
    /// Read timeout on every coordinator→worker call.
    pub call_timeout_ms: u64,
    /// Worker binary; defaults to this executable (`hyperq`).
    pub worker_bin: Option<PathBuf>,
    /// Per-tenant queued quota forwarded to every worker (0 = off).
    pub tenant_max_queued: usize,
    /// Per-tenant in-flight cap forwarded to every worker (0 = off).
    pub tenant_max_inflight: usize,
    /// Per-tenant token-bucket rate forwarded to every worker (0 = off).
    pub tenant_rate: f64,
    /// Brownout utilization threshold forwarded to every worker
    /// (0 = off).
    pub brownout_threshold: f64,
    /// Group-commit window (µs) forwarded to every worker.
    pub commit_window_us: u64,
}

impl FleetOptions {
    /// Defaults for a fleet on `addr` with state under `dir`.
    pub fn new(addr: impl Into<String>, dir: impl Into<PathBuf>) -> Self {
        FleetOptions {
            addr: addr.into(),
            workers: 3,
            dir: dir.into(),
            queue_depth: 64,
            worker_threads: 1,
            breaker_threshold: 2,
            breaker_cooldown_ms: 500,
            heartbeat_ms: 200,
            max_restarts: 3,
            dispatch_attempts: 6,
            backoff_base_ms: 25,
            call_timeout_ms: 2_000,
            worker_bin: None,
            tenant_max_queued: 0,
            tenant_max_inflight: 0,
            tenant_rate: 0.0,
            brownout_threshold: 0.0,
            // Same serving default as a standalone `ServeOptions`.
            commit_window_us: 200,
        }
    }
}

/// One worker process's identity and health, as the coordinator sees it.
struct Shard {
    name: String,
    dir: PathBuf,
    socket: PathBuf,
    journal: PathBuf,
    artifact_dir: PathBuf,
    pidfile: PathBuf,
    breaker: Breaker,
    restarts: u32,
    dead: bool,
    ping_failures: u32,
}

/// One accepted job, from the client's point of view: a fleet-level id
/// mapped to whichever worker currently owns it.
struct FleetJob {
    spec: JobSpec,
    shard: usize,
    worker_id: u64,
    done: Option<JobDone>,
    accepted_at: Instant,
}

struct FleetState {
    shards: Vec<Shard>,
    ring: Ring,
    jobs: HashMap<u64, FleetJob>,
    /// `{tenant}/{idem}` → fleet job id. The coordinator-level half of
    /// idempotent submission: a client retry after a lost ack dedups
    /// here without touching any worker, and — more importantly — a
    /// retry can never be *re-dispatched* to a different shard than
    /// the original accept (which per-worker journal dedup alone could
    /// not prevent across a failover reroute).
    idem: HashMap<String, u64>,
    next_id: u64,
    completed: u64,
    rejected: u64,
    shutting_down: bool,
}

/// The fleet coordinator. [`Fleet::start`] binds the TCP front door
/// and spawns the worker processes; [`Fleet::run`] serves until
/// SIGTERM or a `shutdown` request, then drains.
pub struct Fleet {
    state: Mutex<FleetState>,
    cond: Condvar,
    opts: FleetOptions,
    listener: Arc<TcpListener>,
    local: SocketAddr,
    children: Mutex<Vec<Option<Child>>>,
    /// Stop accepting new connections/jobs.
    stop: AtomicBool,
    /// Drain finished; the supervisor may exit.
    done: AtomicBool,
    /// Duplicate submits answered from the coordinator idem map.
    dedup_hits: AtomicU64,
    /// Set when a client-path call got no usable answer from a worker;
    /// wakes the supervisor before its next heartbeat.
    kick: Mutex<bool>,
    kicked: Condvar,
}

impl Fleet {
    /// Bind the front door, lay out the shard directories and spawn
    /// every worker process. The resolved TCP address (useful with
    /// port 0) is written to `<dir>/addr` before any worker starts.
    pub fn start(opts: FleetOptions) -> Result<Arc<Fleet>, String> {
        std::fs::create_dir_all(&opts.dir)
            .map_err(|e| format!("create fleet dir {}: {e}", opts.dir.display()))?;
        let listener = TcpListener::bind(&opts.addr)
            .map_err(|e| format!("bind {}: {e}", opts.addr))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        write_atomic(&opts.dir.join("addr"), &format!("{local}\n"))
            .map_err(|e| format!("write addr file: {e}"))?;

        let n = opts.workers.max(1);
        let mut shards = Vec::with_capacity(n);
        let mut ring = Ring::new(DEFAULT_VNODES);
        for i in 0..n {
            let name = format!("shard-{i}");
            let dir = opts.dir.join(&name);
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("create {}: {e}", dir.display()))?;
            ring.add(&name);
            shards.push(Shard {
                socket: dir.join("hq.sock"),
                journal: dir.join("journal").join("service.wal"),
                artifact_dir: dir.join("service"),
                pidfile: dir.join("worker.pid"),
                name,
                dir,
                breaker: Breaker::default(),
                restarts: 0,
                dead: false,
                ping_failures: 0,
            });
        }
        let fleet = Arc::new(Fleet {
            state: Mutex::new(FleetState {
                shards,
                ring,
                jobs: HashMap::new(),
                idem: HashMap::new(),
                next_id: 1,
                completed: 0,
                rejected: 0,
                shutting_down: false,
            }),
            cond: Condvar::new(),
            opts,
            listener: Arc::new(listener),
            local,
            children: Mutex::new((0..n).map(|_| None).collect()),
            stop: AtomicBool::new(false),
            done: AtomicBool::new(false),
            dedup_hits: AtomicU64::new(0),
            kick: Mutex::new(false),
            kicked: Condvar::new(),
        });
        for i in 0..n {
            let child = fleet.spawn_worker(i)?;
            fleet.children.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(child);
        }
        Ok(fleet)
    }

    fn lock(&self) -> MutexGuard<'_, FleetState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    // -----------------------------------------------------------------
    // Worker process lifecycle.
    // -----------------------------------------------------------------

    /// Spawn the worker process for shard `i` and wait for its socket
    /// to come up. The child gets `HQ_RESULTS=<shard dir>`, giving it a
    /// private scenario cache, journal and artifact tree — the unit of
    /// both cache warmth and crash recovery.
    fn spawn_worker(&self, i: usize) -> Result<Child, String> {
        let (name, dir, socket, journal, artifact_dir, pidfile) = {
            let g = self.lock();
            let s = &g.shards[i];
            (
                s.name.clone(),
                s.dir.clone(),
                s.socket.clone(),
                s.journal.clone(),
                s.artifact_dir.clone(),
                s.pidfile.clone(),
            )
        };
        let bin = match &self.opts.worker_bin {
            Some(p) => p.clone(),
            None => std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
        };
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("worker.log"))
            .map_err(|e| format!("open worker log: {e}"))?;
        let mut cmd = Command::new(&bin);
        cmd.arg("serve")
            .args(["--socket".as_ref(), socket.as_os_str()])
            .args(["--workers", &self.opts.worker_threads.max(1).to_string()])
            .args(["--queue-depth", &self.opts.queue_depth.to_string()])
            .args(["--journal".as_ref(), journal.as_os_str()])
            .args(["--artifact-dir".as_ref(), artifact_dir.as_os_str()]);
        // Tenant quotas and brownout apply per shard: each worker
        // enforces them on its own queue, so the fleet-wide quota is
        // (roughly) the per-shard quota times live shards.
        if self.opts.tenant_max_queued > 0 {
            cmd.args(["--tenant-max-queued", &self.opts.tenant_max_queued.to_string()]);
        }
        if self.opts.tenant_max_inflight > 0 {
            cmd.args(["--tenant-max-inflight", &self.opts.tenant_max_inflight.to_string()]);
        }
        if self.opts.tenant_rate > 0.0 {
            cmd.args(["--tenant-rate", &self.opts.tenant_rate.to_string()]);
        }
        if self.opts.brownout_threshold > 0.0 {
            cmd.args(["--brownout-threshold", &self.opts.brownout_threshold.to_string()]);
        }
        cmd.args(["--commit-window-us", &self.opts.commit_window_us.to_string()]);
        let child = cmd
            .env("HQ_RESULTS", &dir)
            .stdin(Stdio::null())
            .stdout(log.try_clone().map_err(|e| format!("clone log: {e}"))?)
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {} for {name}: {e}", bin.display()))?;
        write_atomic(&pidfile, &format!("{}\n", child.id()))
            .map_err(|e| format!("write pidfile: {e}"))?;
        // Wait for the socket: recovery replay happens before the bind,
        // so a connectable socket means the worker is fully caught up.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if std::os::unix::net::UnixStream::connect(&socket).is_ok() {
                eprintln!("fleet: {name} up (pid {})", child.id());
                return Ok(child);
            }
            if Instant::now() >= deadline {
                return Err(format!("{name} never bound {}", socket.display()));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Open a fresh connection to shard `i` and perform one call under
    /// the fleet's read timeout. A fresh connection per call keeps a
    /// timed-out (possibly mid-frame) stream from ever being reused.
    fn call_worker(&self, i: usize, req: &Request, timeout_ms: u64) -> Result<Response, String> {
        let socket = {
            let g = self.lock();
            if g.shards[i].dead {
                return Err(format!("{} is dead", g.shards[i].name));
            }
            g.shards[i].socket.clone()
        };
        let mut client = Client::connect(&socket)?;
        client.set_read_timeout(Some(Duration::from_millis(timeout_ms.max(1))))?;
        client.call(req)
    }

    fn ping(&self, i: usize) -> bool {
        matches!(
            self.call_worker(i, &Request::Ping, self.opts.call_timeout_ms.min(500)),
            Ok(Response::Pong)
        )
    }

    fn record_shard(&self, i: usize, success: bool) {
        let threshold = self.opts.breaker_threshold;
        let cooldown = Duration::from_millis(self.opts.breaker_cooldown_ms);
        let mut g = self.lock();
        g.shards[i]
            .breaker
            .record(success, Instant::now(), threshold, cooldown);
    }

    /// A client-path call got no usable answer from shard `i`'s
    /// worker: count it against the shard's breaker and wake the
    /// supervisor, so a crashed worker is restarted now rather than at
    /// the next heartbeat. Client paths pace their own retries, so
    /// kicks cannot spin the supervisor.
    fn report_shard_failure(&self, i: usize) {
        self.record_shard(i, false);
        self.kick();
    }

    /// End the supervisor's current (or next) heartbeat wait at once.
    fn kick(&self) {
        *self.kick.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.kicked.notify_one();
    }

    /// Wait one heartbeat, or until a client-path call or the drain
    /// kicks.
    fn await_tick(&self) {
        let mut kick = self.kick.lock().unwrap_or_else(|e| e.into_inner());
        if !*kick {
            let beat = Duration::from_millis(self.opts.heartbeat_ms);
            kick = self
                .kicked
                .wait_timeout(kick, beat)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        *kick = false;
    }

    /// Supervisor tick body: reap exited children, heartbeat the rest.
    fn supervise_once(self: &Arc<Self>) {
        let n = { self.lock().shards.len() };
        for i in 0..n {
            if self.lock().shards[i].dead {
                continue;
            }
            let exited = {
                let mut ch = self.children.lock().unwrap_or_else(|e| e.into_inner());
                match ch[i].as_mut() {
                    Some(c) => c.try_wait().ok().flatten().is_some(),
                    None => true,
                }
            };
            if exited {
                let name = self.lock().shards[i].name.clone();
                eprintln!("fleet: {name} exited unexpectedly");
                self.restart_or_rehash(i);
                continue;
            }
            // Heartbeat, gated by the shard breaker: while open we stay
            // away until the cooldown, then the ping is the half-open
            // probe that decides whether the shard rejoins routing.
            let admit = {
                let mut g = self.lock();
                let b = &mut g.shards[i].breaker;
                !b.is_open() || b.admit(Instant::now()).is_ok()
            };
            if !admit {
                continue;
            }
            let ok = self.ping(i);
            let wedged = {
                let mut g = self.lock();
                if ok {
                    g.shards[i].ping_failures = 0;
                } else {
                    g.shards[i].ping_failures += 1;
                }
                g.shards[i].ping_failures > self.opts.breaker_threshold + 2
            };
            self.record_shard(i, ok);
            if wedged {
                // Alive but unresponsive: treat like a crash.
                let name = self.lock().shards[i].name.clone();
                eprintln!("fleet: {name} is wedged; killing it");
                {
                    let mut ch = self.children.lock().unwrap_or_else(|e| e.into_inner());
                    if let Some(c) = ch[i].as_mut() {
                        let _ = c.kill();
                    }
                }
                self.restart_or_rehash(i);
            }
        }
    }

    /// A worker is gone. Below `max_restarts`, respawn it in place —
    /// its journal replays unfinished jobs deterministically before
    /// the socket rebinds, so waiters just reattach. Past the budget,
    /// declare the shard dead, drop it from the ring (bounded churn:
    /// only its keys move) and rehash its outstanding jobs onto the
    /// survivors, rescuing any results its journal already recorded.
    fn restart_or_rehash(self: &Arc<Self>, i: usize) {
        {
            let mut ch = self.children.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(mut c) = ch[i].take() {
                let _ = c.kill();
                let _ = c.wait();
            }
        }
        let (name, may_restart) = {
            let mut g = self.lock();
            if g.shards[i].dead {
                return;
            }
            let may = g.shards[i].restarts < self.opts.max_restarts;
            if may {
                g.shards[i].restarts += 1;
            }
            (g.shards[i].name.clone(), may)
        };
        if may_restart {
            let attempt = self.lock().shards[i].restarts;
            eprintln!(
                "fleet: restarting {name} in place (attempt {attempt}/{})",
                self.opts.max_restarts
            );
            match self.spawn_worker(i) {
                Ok(child) => {
                    self.children.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(child);
                    let mut g = self.lock();
                    g.shards[i].ping_failures = 0;
                    self.cond.notify_all();
                    return;
                }
                Err(e) => eprintln!("fleet: restart of {name} failed: {e}"),
            }
        }
        eprintln!("fleet: {name} is gone for good; rehashing its jobs");
        let (pending, journal_path, artifact_dir) = {
            let mut g = self.lock();
            g.shards[i].dead = true;
            let name = g.shards[i].name.clone();
            g.ring.remove(&name);
            let pending: Vec<(u64, u64, JobSpec, Instant)> = g
                .jobs
                .iter()
                .filter(|(_, j)| j.shard == i && j.done.is_none())
                .map(|(id, j)| (*id, j.worker_id, j.spec.clone(), j.accepted_at))
                .collect();
            (
                pending,
                g.shards[i].journal.clone(),
                g.shards[i].artifact_dir.clone(),
            )
        };
        // Rescue what the dead worker already finished: its journal's
        // done markers are durable, and `ok` artifacts were written
        // before the marker, so those results survive the crash.
        let salvaged = Journal::peek(&journal_path).unwrap_or_default();
        for (fid, wid, spec, accepted_at) in pending {
            let rescued = salvaged.completed.iter().find(|(id, _)| *id == wid).map(
                |(_, status)| match status.as_str() {
                    "ok" => JobDone::Ok {
                        artifact: artifact_dir.join(format!("job-{wid}.out")).display().to_string(),
                    },
                    "deadline" => JobDone::DeadlineExceeded,
                    "panic" => JobDone::Panicked(format!("panicked on {name} before it died")),
                    _ => JobDone::SimError(format!("failed on {name} before it died")),
                },
            );
            let done = match rescued {
                Some(done) => Some(done),
                // Unfinished: replay it elsewhere. The generous attempt
                // budget matters more than latency here — losing the
                // job is not an option.
                None => match self.dispatch(&spec, accepted_at, self.opts.dispatch_attempts * 2) {
                    Ok((shard, worker_id)) => {
                        let mut g = self.lock();
                        if let Some(j) = g.jobs.get_mut(&fid) {
                            j.shard = shard;
                            j.worker_id = worker_id;
                        }
                        eprintln!("fleet: job {fid} rehashed from {name} to shard {shard}");
                        None
                    }
                    Err(_) => Some(JobDone::SimError(format!(
                        "job lost with {name} and no surviving shard would take it"
                    ))),
                },
            };
            if let Some(done) = done {
                let mut g = self.lock();
                if let Some(j) = g.jobs.get_mut(&fid) {
                    if j.done.is_none() {
                        j.done = Some(done);
                        g.completed += 1;
                    }
                }
            }
        }
        self.cond.notify_all();
    }

    // -----------------------------------------------------------------
    // Dispatch.
    // -----------------------------------------------------------------

    /// Place `spec` on a worker: consistent-hash routing with failover
    /// past unhealthy shards, bounded retries, exponential backoff with
    /// deterministic jitter, and deadline budget recomputed (anchored
    /// at `accepted_at`) for every hop. Returns the `(shard, worker
    /// job id)` placement; the worker has durably journaled the job
    /// before this returns `Ok`.
    fn dispatch(
        &self,
        spec: &JobSpec,
        accepted_at: Instant,
        attempts: u32,
    ) -> Result<(usize, u64), Reject> {
        let key = spec.signature();
        let mut failures: HashMap<usize, u32> = HashMap::new();
        let mut last_reject = Reject::Unavailable("no shard is healthy".to_string());
        for attempt in 0..attempts.max(1) {
            let target = {
                let g = self.lock();
                let tried_out = |name: &str| {
                    g.shards
                        .iter()
                        .position(|s| s.name == *name)
                        .is_some_and(|i| failures.get(&i).copied().unwrap_or(0) >= 2)
                };
                let routed = g
                    .ring
                    .route(&key, |n| {
                        !tried_out(n)
                            && g.shards
                                .iter()
                                .find(|s| s.name == *n)
                                .is_some_and(|s| !s.dead && !s.breaker.is_open())
                    })
                    .map(str::to_string);
                // Last resort: any live shard at all, breaker be damned
                // — an open breaker is a hint, not a guarantee of death,
                // and `unavailable` to the client is strictly worse.
                let fallback = || {
                    g.shards
                        .iter()
                        .enumerate()
                        .filter(|(i, s)| !s.dead && failures.get(i).copied().unwrap_or(0) < 2)
                        .map(|(_, s)| s.name.clone())
                        .next()
                };
                routed.or_else(fallback).and_then(|name| {
                    g.shards.iter().position(|s| s.name == name)
                })
            };
            let Some(si) = target else { break };
            let mut forwarded = spec.clone();
            if let Some(ms) = spec.deadline_ms {
                forwarded.deadline_ms =
                    Some(ms.saturating_sub(accepted_at.elapsed().as_millis() as u64));
            }
            match self.call_worker(si, &Request::Submit(forwarded), self.opts.call_timeout_ms) {
                Ok(Response::Accepted(wid)) => {
                    self.record_shard(si, true);
                    return Ok((si, wid));
                }
                Ok(Response::Rejected(r @ Reject::QueueFull { .. })) => {
                    // Transient backpressure, not shard damage: retry
                    // (possibly the same shard) after the backoff.
                    last_reject = r;
                }
                Ok(Response::Rejected(r @ Reject::Shed { .. })) => {
                    // Admission control shed the job. Also transient:
                    // the worker said *when* to come back, and the
                    // sleep below honours that hint. If retries run
                    // out, the shed (with its hint) reaches the
                    // client, which routes it into its own backoff.
                    last_reject = r;
                }
                Ok(Response::Rejected(r @ Reject::CircuitOpen { .. })) => {
                    // The job *class* is failing, and it would fail the
                    // same way on every shard. Fail fast to the client.
                    return Err(r);
                }
                Ok(Response::Rejected(r)) => return Err(r),
                Ok(_) | Err(_) => {
                    self.report_shard_failure(si);
                    *failures.entry(si).or_insert(0) += 1;
                    last_reject = Reject::Unavailable(format!(
                        "shard {si} not answering (attempt {})",
                        attempt + 1
                    ));
                }
            }
            // A shed's retry-after hint floors the backoff (capped so a
            // far-future hint cannot wedge the dispatch thread).
            let hint = match &last_reject {
                Reject::Shed { retry_after_ms, .. } => {
                    Duration::from_millis((*retry_after_ms).min(1_000))
                }
                _ => Duration::ZERO,
            };
            std::thread::sleep(backoff(self.opts.backoff_base_ms, &key, attempt).max(hint));
        }
        Err(last_reject)
    }

    // -----------------------------------------------------------------
    // The client-facing request handlers.
    // -----------------------------------------------------------------

    /// Handle one client request to one response (the front end's
    /// per-connection handler; also driven directly by tests).
    pub fn handle(self: &Arc<Self>, req: Request) -> Response {
        match req {
            Request::Submit(spec) => self.submit(spec),
            Request::Wait(id) => self.wait_join(id),
            Request::Status => self.status(),
            Request::Ping => Response::Pong,
            Request::Shutdown => self.shutdown(),
        }
    }

    fn submit(&self, spec: JobSpec) -> Response {
        let idem_key =
            (!spec.idem.is_empty()).then(|| format!("{}/{}", spec.tenant, spec.idem));
        {
            let g = self.lock();
            if g.shutting_down {
                return Response::Rejected(Reject::ShuttingDown);
            }
            if let Some(&orig) = idem_key.as_ref().and_then(|k| g.idem.get(k)) {
                self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                return Response::Accepted(orig);
            }
        }
        let accepted_at = Instant::now();
        match self.dispatch(&spec, accepted_at, self.opts.dispatch_attempts) {
            Ok((shard, worker_id)) => {
                let mut g = self.lock();
                // Two concurrent duplicates can both miss the map above
                // and both dispatch; the worker's journal dedup answers
                // both with one worker id, so keep whichever fleet id
                // mapped first and answer with it.
                if let Some(&orig) = idem_key.as_ref().and_then(|k| g.idem.get(k)) {
                    self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    return Response::Accepted(orig);
                }
                let id = g.next_id;
                g.next_id += 1;
                if let Some(k) = idem_key {
                    g.idem.insert(k, id);
                }
                g.jobs.insert(
                    id,
                    FleetJob {
                        spec,
                        shard,
                        worker_id,
                        done: None,
                        accepted_at,
                    },
                );
                Response::Accepted(id)
            }
            Err(reject) => {
                self.lock().rejected += 1;
                Response::Rejected(reject)
            }
        }
    }

    /// Resolve fleet job `id` to its terminal result, riding out
    /// worker restarts and rehashes: each round re-reads the current
    /// placement, long-polls that worker, and on trouble probes the
    /// worker's liveness so a merely-slow job is never misread as a
    /// dead shard.
    fn wait_join(self: &Arc<Self>, id: u64) -> Response {
        // Generous overall budget: many heartbeat-paced rounds, each
        // cheap. A job can legitimately wait through a worker restart
        // plus replay, but not forever.
        for _round in 0..600u32 {
            let (si, wid, spec, accepted_at) = {
                let g = self.lock();
                match g.jobs.get(&id) {
                    None => {
                        return Response::Rejected(Reject::BadRequest(format!(
                            "unknown job id {id}"
                        )))
                    }
                    Some(j) => {
                        if let Some(done) = &j.done {
                            return Response::Done(id, done.clone());
                        }
                        (j.shard, j.worker_id, j.spec.clone(), j.accepted_at)
                    }
                }
            };
            match self.call_worker(si, &Request::Wait(wid), self.opts.call_timeout_ms) {
                Ok(Response::Done(_, done)) => {
                    let mut g = self.lock();
                    if let Some(j) = g.jobs.get_mut(&id) {
                        if j.done.is_none() {
                            j.done = Some(done.clone());
                            g.completed += 1;
                        }
                    }
                    self.cond.notify_all();
                    return Response::Done(id, done);
                }
                Ok(Response::Rejected(Reject::BadRequest(_))) => {
                    // The worker no longer knows the id (journal was
                    // archived or rotated under a version bump): the
                    // job is not running anywhere. Re-dispatch it.
                    match self.dispatch(&spec, accepted_at, self.opts.dispatch_attempts) {
                        Ok((shard, worker_id)) => {
                            let mut g = self.lock();
                            if let Some(j) = g.jobs.get_mut(&id) {
                                if j.done.is_none() && j.shard == si && j.worker_id == wid {
                                    j.shard = shard;
                                    j.worker_id = worker_id;
                                }
                            }
                        }
                        Err(_) => {
                            std::thread::sleep(Duration::from_millis(self.opts.heartbeat_ms));
                        }
                    }
                }
                Ok(_) => {
                    std::thread::sleep(Duration::from_millis(self.opts.heartbeat_ms));
                }
                Err(_) => {
                    // Timed out or failed to connect. Alive-but-busy is
                    // normal (long job, long-poll timeout): just wait
                    // again. Dead gets noticed here *and* by the
                    // supervisor; either path revives or rehashes, and
                    // the next round re-reads the mapping.
                    if !self.ping(si) {
                        self.report_shard_failure(si);
                        std::thread::sleep(Duration::from_millis(self.opts.heartbeat_ms));
                    }
                }
            }
        }
        Response::Rejected(Reject::Unavailable(format!(
            "job {id} did not resolve in time"
        )))
    }

    /// Aggregate status: live workers' queue counters summed, fleet
    /// counters for completed/rejected, and open circuits = unhealthy
    /// shards (by name) plus every class circuit workers report.
    fn status(&self) -> Response {
        let (targets, mut report) = {
            let g = self.lock();
            let mut r = StatusReport {
                completed: g.completed,
                rejected: g.rejected,
                dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
                ..StatusReport::default()
            };
            let mut targets = Vec::new();
            for (i, s) in g.shards.iter().enumerate() {
                if s.dead || s.breaker.is_open() {
                    r.open_circuits.push(s.name.clone());
                }
                if !s.dead {
                    targets.push(i);
                }
            }
            (targets, r)
        };
        for i in targets {
            if let Ok(Response::Status(s)) =
                self.call_worker(i, &Request::Status, self.opts.call_timeout_ms.min(500))
            {
                report.queued += s.queued;
                report.running += s.running;
                report.shed += s.shed;
                report.dispatches += s.dispatches;
                report.dispatched_jobs += s.dispatched_jobs;
                report.accepts += s.accepts;
                report.fsyncs += s.fsyncs;
                report.window_flushes += s.window_flushes;
                report.solo_flushes += s.solo_flushes;
                report.cache_corrupt += s.cache_corrupt;
                report.dedup_hits += s.dedup_hits;
                report.memo_entries += s.memo_entries;
                report.memo_bytes += s.memo_bytes;
                report.memo_evictions += s.memo_evictions;
                report.open_circuits.extend(s.open_circuits);
                merge_tenant_stats(&mut report.tenants, s.tenants);
            }
        }
        report.open_circuits.sort();
        report.open_circuits.dedup();
        report.tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        Response::Status(report)
    }

    fn shutdown(&self) -> Response {
        let mut g = self.lock();
        g.shutting_down = true;
        self.stop.store(true, Ordering::SeqCst);
        let draining = g.jobs.values().filter(|j| j.done.is_none()).count() as u64;
        self.cond.notify_all();
        Response::Bye { draining }
    }

    // -----------------------------------------------------------------
    // Serve loop.
    // -----------------------------------------------------------------

    /// Accept connections until SIGTERM or a `shutdown` request, then
    /// drain every outstanding job, shut the workers down (each seals
    /// its journal) and reap them.
    pub fn run(self: &Arc<Self>) -> Result<(), String> {
        let supervisor = {
            let fleet = Arc::clone(self);
            std::thread::Builder::new()
                .name("hq-fleet-supervisor".to_string())
                .spawn(move || loop {
                    fleet.await_tick();
                    if fleet.done.load(Ordering::SeqCst) {
                        break;
                    }
                    fleet.supervise_once();
                })
                .map_err(|e| format!("spawn supervisor: {e}"))?
        };
        eprintln!(
            "fleet: listening on {} ({} worker processes)",
            self.local,
            self.lock().shards.len()
        );
        let fleet = Arc::clone(self);
        front::serve(Arc::clone(&self.listener), &self.stop, move |req| fleet.handle(req));
        self.lock().shutting_down = true;
        // Drain: resolve every outstanding job ourselves. The
        // supervisor stays alive through this so a worker dying
        // mid-drain still gets restarted or rehashed.
        loop {
            let pending: Vec<u64> = {
                let g = self.lock();
                g.jobs
                    .iter()
                    .filter(|(_, j)| j.done.is_none())
                    .map(|(id, _)| *id)
                    .collect()
            };
            if pending.is_empty() {
                break;
            }
            eprintln!("fleet: draining {} outstanding job(s)", pending.len());
            for id in pending {
                let _ = self.wait_join(id);
            }
        }
        self.done.store(true, Ordering::SeqCst);
        self.kick();
        let _ = supervisor.join();
        // Now the live workers (`call_worker` skips dead shards): each
        // drains (its queue is already empty) and seals its journal.
        let n = self.lock().shards.len();
        for i in 0..n {
            let _ = self.call_worker(i, &Request::Shutdown, self.opts.call_timeout_ms);
        }
        let mut ch = self.children.lock().unwrap_or_else(|e| e.into_inner());
        for c in ch.iter_mut() {
            if let Some(mut c) = c.take() {
                let _ = c.wait();
            }
        }
        eprintln!("fleet: drained, workers sealed and reaped, bye");
        Ok(())
    }
}

/// Sum one worker's per-tenant counters into the fleet aggregate:
/// counts add across shards, p99 takes the worst shard (a conservative
/// upper bound — cross-shard percentiles cannot be merged exactly from
/// summaries).
fn merge_tenant_stats(dst: &mut Vec<TenantStat>, src: Vec<TenantStat>) {
    for s in src {
        match dst.iter_mut().find(|d| d.tenant == s.tenant) {
            Some(d) => {
                d.queued += s.queued;
                d.running += s.running;
                d.served += s.served;
                d.shed += s.shed;
                d.p99_ms = d.p99_ms.max(s.p99_ms);
            }
            None => dst.push(s),
        }
    }
}

/// `hyperq serve --fleet N` entry point.
pub fn serve_fleet(opts: FleetOptions) -> Result<(), String> {
    let fleet = Fleet::start(opts)?;
    eprintln!("fleet: address file {}", fleet.opts.dir.join("addr").display());
    fleet.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_is_bounded_and_jitters_deterministically() {
        let a = backoff(25, "k", 0);
        let b = backoff(25, "k", 4);
        assert!(a < Duration::from_millis(51));
        assert!(b >= Duration::from_millis(200), "{b:?}");
        assert!(b <= Duration::from_millis(800), "{b:?}");
        assert_eq!(backoff(25, "k", 3), backoff(25, "k", 3), "deterministic");
        // The shift is clamped: huge attempt counts cannot overflow.
        let huge = backoff(25, "k", u32::MAX);
        assert!(huge <= Duration::from_millis(25 << 6));
    }

    #[test]
    fn fleet_options_defaults_are_sane() {
        let o = FleetOptions::new("127.0.0.1:0", "/tmp/x");
        assert!(o.workers >= 2, "a fleet of one is not a fleet");
        assert!(o.max_restarts > 0);
        assert!(o.dispatch_attempts > 1);
        assert!(o.call_timeout_ms >= 1000);
    }
}
