//! Resilient scenario service: a long-running job server over a
//! Unix-domain socket (`hyperq serve`) with a matching client
//! (`hyperq submit`).
//!
//! The experiment suite runs scenarios in batch; this module serves
//! them on demand while staying robust to every failure the chaos
//! harness knows how to inject:
//!
//! * **Backpressure** — the job queue is bounded (`--queue-depth`);
//!   submits past the bound are rejected with a structured
//!   `queue-full`, never buffered without limit.
//! * **Deadlines** — each job may carry a deadline measured from
//!   acceptance. Expired jobs are cancelled (before *or* during
//!   execution — a late result is discarded) and answer
//!   `deadline`.
//! * **Panic isolation** — every job runs under
//!   [`std::panic::catch_unwind`]; a panicking job answers `panic`
//!   while the worker and server keep serving.
//! * **Circuit breaker** — per scenario class (default: the spec's
//!   [`JobSpec::signature`]), K consecutive panics/errors open the
//!   breaker: submits fail fast with `circuit-open` until a cooldown
//!   probe succeeds.
//! * **Crash safety** — accepted jobs hit a fsynced write-ahead
//!   [`journal`] *before* they become runnable; `kill -9` at any
//!   instant loses nothing. On restart the journal is replayed:
//!   completed jobs are skipped, unfinished ones re-execute through
//!   the deterministic [`crate::scenario::run_scenario`] cache and
//!   produce byte-identical artifacts.
//! * **Graceful shutdown** — SIGTERM or a `shutdown` request wakes
//!   the blocking accept loop (the `front` module, shared with the
//!   fleet), which refuses new connections from then on; the server
//!   drains in-flight jobs, seals the journal and removes the socket.
//! * **Concurrency** — each worker wakeup pops one queued job in DRR
//!   order, runs it under its own panic guard and settles it at once,
//!   so a short job never waits behind a long one while a worker is
//!   idle; `--commit-window-us` group commit coalesces concurrent
//!   accept fsyncs into one `sync_data` (DESIGN §5j).
//!
//! Workers are plain [`std::thread`]s over the scenario cache; the
//! whole service uses only `std` primitives (`Mutex` + `Condvar` —
//! the vendored `parking_lot` shim has no condvar).

pub mod fleet;
mod front;
pub mod journal;
pub mod protocol;
pub mod ring;
pub mod scrub;
pub mod tenancy;

pub use fleet::{Fleet, FleetOptions};
pub use journal::{Inspection, Journal, Recovered};
pub use scrub::{ScrubOptions, ScrubReport};
pub use protocol::{
    JobDone, JobSpec, Reject, Request, Response, StatusReport, TenantStat, DEFAULT_TENANT,
};
pub use ring::Ring;
pub use tenancy::{ServiceEstimator, TenantPolicy, TenantQueues};

use crate::scenario::{run_workload_deferred, scenario_is_warm, EntryWrite, SIM_VERSION};
use crate::util::codec::{esc, fnv1a};
use crate::util::write_atomic;
use front::Conn;
use hq_gpu::config::DeviceConfig;
use hq_gpu::result::AppOutcome;
use hyperq_core::harness::{RunConfig, RunOutcome};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Server tunables. `new` fills every knob with the serving defaults;
/// the CLI overrides from flags, tests from code.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Unix-domain socket path to bind.
    pub socket: PathBuf,
    /// Worker thread count.
    pub workers: usize,
    /// Bounded queue depth; submits past it get `queue-full`.
    pub queue_depth: usize,
    /// Consecutive failures that open a class's circuit breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before admitting a probe.
    pub breaker_cooldown_ms: u64,
    /// Write-ahead journal path.
    pub journal: PathBuf,
    /// Directory artifacts are rendered into (`job-<id>.out`).
    pub artifact_dir: PathBuf,
    /// Max jobs one tenant may have queued (0 = unbounded; only the
    /// global `queue_depth` applies).
    pub tenant_max_queued: usize,
    /// Max jobs one tenant may have executing at once (0 = unbounded).
    pub tenant_max_inflight: usize,
    /// Per-tenant token-bucket admission rate, jobs/second (0 = off).
    pub tenant_rate: f64,
    /// Token-bucket burst capacity (0 = `max(tenant_rate, 1)`).
    pub tenant_burst: f64,
    /// DRR credits a tenant lane earns per scheduling visit.
    pub drr_quantum: u32,
    /// Utilization fraction (queued+running over queue_depth+workers)
    /// past which brownout sheds cold work, serving warm scenario-cache
    /// hits only. 0 disables brownout.
    pub brownout_threshold: f64,
    /// Group-commit window in microseconds: while accept records
    /// arrive closer together than this (an EWMA of their gaps), a
    /// commit holds the window open so concurrent records share one
    /// fsync; spaced arrivals sync at once. `accepted` replies are
    /// released only after the covering fsync returns. 0 never
    /// lingers.
    pub commit_window_us: u64,
}

impl ServeOptions {
    /// Defaults for a server on `socket`; journal and artifacts land
    /// under the current results dir.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServeOptions {
            socket: socket.into(),
            workers: 2,
            queue_depth: 16,
            breaker_threshold: 3,
            breaker_cooldown_ms: 250,
            journal: crate::util::out_dir().join("journal").join("service.wal"),
            artifact_dir: crate::util::out_dir().join("service"),
            tenant_max_queued: 0,
            tenant_max_inflight: 0,
            tenant_rate: 0.0,
            tenant_burst: 0.0,
            drr_quantum: 1,
            brownout_threshold: 0.0,
            commit_window_us: 200,
        }
    }
}

impl ServeOptions {
    /// The per-tenant policy these options configure.
    pub fn tenant_policy(&self) -> TenantPolicy {
        TenantPolicy {
            max_queued: self.tenant_max_queued,
            max_inflight: self.tenant_max_inflight,
            rate_per_sec: self.tenant_rate,
            burst: self.tenant_burst,
            quantum: self.drr_quantum,
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic job execution (shared by workers, replay and the CLI's
// `submit --direct` byte-for-byte comparison path).
// ---------------------------------------------------------------------

/// The run configuration a spec executes under.
pub fn config_for(spec: &JobSpec) -> RunConfig {
    let mut cfg = if spec.serial {
        RunConfig::serial()
    } else {
        RunConfig::concurrent(spec.streams)
    };
    cfg.device = match spec.device.as_str() {
        "k40" => DeviceConfig::tesla_k40(),
        "fermi" => DeviceConfig::fermi_like(),
        _ => DeviceConfig::tesla_k20(),
    };
    cfg.with_order(spec.order)
        .with_memsync(spec.memsync)
        .with_seed(spec.seed)
}

fn opt_ns(t: Option<hq_des::time::SimTime>) -> String {
    t.map(|t| t.as_ns().to_string()).unwrap_or_else(|| "-".into())
}

/// Render the service artifact for one completed run. Everything here
/// is a pure function of the deterministic [`RunOutcome`] (wall-clock
/// perf counters are deliberately excluded), so an identical spec
/// renders identical bytes — on first execution, on crash-recovery
/// replay, and via [`run_job_direct`].
pub fn render_artifact(spec: &JobSpec, out: &RunOutcome) -> String {
    let mut s = String::with_capacity(512);
    let _ = writeln!(s, "hq-service-artifact v1");
    let _ = writeln!(s, "spec {}", esc(&spec.signature()));
    let _ = writeln!(s, "sim {SIM_VERSION}");
    let _ = writeln!(s, "makespan_ns {}", out.result.makespan.as_ns());
    let _ = writeln!(s, "events {}", out.result.events);
    let _ = writeln!(s, "energy_j {:?}", out.power.energy_j);
    let _ = writeln!(s, "avg_power_w {:?}", out.power.avg_true_w);
    let _ = writeln!(s, "retries {}", out.retries);
    let _ = writeln!(s, "degraded {}", u8::from(out.degraded));
    let _ = writeln!(s, "schedule {}", out.schedule.len());
    for label in &out.schedule {
        let _ = writeln!(s, "{}", esc(label));
    }
    let _ = writeln!(s, "apps {}", out.result.apps.len());
    for a in &out.result.apps {
        let code = match a.outcome {
            AppOutcome::Completed => "ok".to_string(),
            AppOutcome::Failed { reason } => format!("fail:{reason:?}"),
            AppOutcome::Retried { attempts } => format!("retry:{attempts}"),
        };
        let _ = writeln!(s, "a {} {code} {}", esc(&a.label), opt_ns(a.finished));
    }
    s.push_str("end\n");
    s
}

/// Run a spec to its rendered artifact, bypassing the server (no
/// queue, no deadline, no journal). The CI crash-recovery gate compares
/// served artifacts byte-for-byte against this.
pub fn run_job_direct(spec: &JobSpec) -> Result<String, String> {
    let (artifact, entry) = run_job(spec)?;
    if let Some(entry) = entry {
        entry.write();
    }
    Ok(artifact)
}

/// Run a spec to its rendered artifact and the scenario-cache entry it
/// still owes to disk (a cache miss in disk mode).
fn run_job(spec: &JobSpec) -> Result<(String, Option<EntryWrite>), String> {
    if spec.scripted_panic {
        return Err("scripted-panic job has no artifact".to_string());
    }
    let cfg = config_for(spec);
    let (out, entry) = run_workload_deferred(&cfg, &spec.workload).map_err(|e| e.to_string())?;
    Ok((render_artifact(spec, &out), entry))
}

enum Exec {
    Ok(String, Option<EntryWrite>),
    Panicked(String),
    SimError(String),
}

fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Execute one spec with panic isolation. The closure owns no locks,
/// so unwinding cannot poison server state.
fn execute_spec(spec: &JobSpec) -> Exec {
    let result = catch_unwind(AssertUnwindSafe(|| {
        if spec.scripted_panic {
            panic!("scripted panic requested by submitter");
        }
        run_job(spec)
    }));
    match result {
        Ok(Ok((artifact, entry))) => Exec::Ok(artifact, entry),
        Ok(Err(msg)) => Exec::SimError(msg),
        Err(payload) => Exec::Panicked(panic_msg(payload.as_ref())),
    }
}

// ---------------------------------------------------------------------
// Circuit breaker.
// ---------------------------------------------------------------------

/// Per-class circuit breaker: `threshold` consecutive failures open
/// it; while open every submit fails fast; after the cooldown one
/// probe job is admitted — success closes the breaker, failure
/// re-opens it for another cooldown.
#[derive(Clone, Debug, Default)]
pub struct Breaker {
    consecutive_failures: u32,
    state: BreakerState,
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
enum BreakerState {
    #[default]
    Closed,
    Open {
        until: Instant,
    },
    HalfOpen,
}

impl Breaker {
    /// May a job of this class be admitted at `now`? `Err(retry_ms)`
    /// when the circuit is open (or a probe is already in flight). An
    /// `Ok` after cooldown marks the probe in flight — the caller must
    /// enqueue the job or call [`Breaker::abort_probe`].
    pub fn admit(&mut self, now: Instant) -> Result<(), u64> {
        match self.state {
            BreakerState::Closed => Ok(()),
            BreakerState::Open { until } if now >= until => {
                self.state = BreakerState::HalfOpen;
                Ok(())
            }
            BreakerState::Open { until } => {
                Err((until.duration_since(now).as_millis() as u64).max(1))
            }
            BreakerState::HalfOpen => Err(1),
        }
    }

    /// The admitted probe never made it into the queue (journal write
    /// failed, queue raced full): allow the next submit to probe.
    pub fn abort_probe(&mut self, now: Instant) {
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Open { until: now };
        }
    }

    /// Record a job outcome for this class.
    pub fn record(&mut self, success: bool, now: Instant, threshold: u32, cooldown: Duration) {
        if success {
            *self = Breaker::default();
            return;
        }
        self.consecutive_failures += 1;
        if self.state == BreakerState::HalfOpen || self.consecutive_failures >= threshold {
            self.state = BreakerState::Open {
                until: now + cooldown,
            };
        }
    }

    /// Is the circuit currently rejecting submits?
    pub fn is_open(&self) -> bool {
        !matches!(self.state, BreakerState::Closed)
    }
}

// ---------------------------------------------------------------------
// Group-commit journaling.
// ---------------------------------------------------------------------

/// Accept-side commit bookkeeping: sequence numbers of journal records
/// staged (written, unsynced) and made durable, the arrival-rate
/// estimate that gates the commit window, plus the fsync counters
/// `--status` reports.
#[derive(Default)]
struct FlushState {
    /// Records staged into the journal so far. Bumped under the server
    /// state lock right after the journal write, so sequence order
    /// matches journal byte order.
    written_seq: u64,
    /// Highest staged record covered by a completed `sync_data`.
    flushed_seq: u64,
    /// A leader currently holds the commit window open or is syncing.
    flusher_active: bool,
    /// Records at or below this sequence saw their covering fsync
    /// fail; their submitters answer a rejection, never `accepted`.
    failed_seq: u64,
    fail_msg: String,
    /// When the previous record was staged.
    last_stage: Option<Instant>,
    /// EWMA of the gaps between staged records, each sample clamped at
    /// [`GAP_CLAMP`] windows. Starts at zero, so a fresh server
    /// lingers on its first record.
    gap_ewma: Duration,
    fsyncs: u64,
    window_flushes: u64,
    solo_flushes: u64,
}

/// Weight of the newest gap sample in [`FlushState::gap_ewma`] is
/// `1 / GAP_EWMA_DIV`.
const GAP_EWMA_DIV: u32 = 8;
/// Gap samples are clamped at this many commit windows, so one idle
/// spell lifts the estimate by at most `2 / GAP_EWMA_DIV` windows and
/// a new burst re-arms the window after a handful of accepts.
const GAP_CLAMP: u32 = 2;

/// Group commit for journal `A` records: submitters stage their
/// records without fsyncing and wait here; the first waiter becomes
/// the *leader* and issues one `sync_data` covering every record
/// staged by then. The leader holds the window open first only when
/// company is likely: when the recent gap between staged records
/// (an EWMA) is below the window. Spaced traffic, where no follower
/// would arrive in time, syncs at once instead of sleeping out a
/// window nobody shares; records staged during that sync ride the next
/// leader's. A zero window never lingers. `accepted` is released only
/// after the covering fsync returns, so accepted⇒durable holds by
/// construction. Lock order is state → flush: the leader never takes
/// the state lock, and stagers take the flush lock only briefly while
/// already holding the state lock.
struct GroupCommit {
    flush: Mutex<FlushState>,
    flushed: Condvar,
    /// Duplicate journal handle: `sync_data` makes every record
    /// written through the journal's own handle durable, whichever
    /// handle issues it.
    file: std::fs::File,
    /// Journal path, so the covering fsync routes through the
    /// [`crate::util::io`] facade (fault injection, fsyncgate
    /// poisoning) exactly like the journal's own appends.
    path: PathBuf,
    window: Duration,
}

impl GroupCommit {
    fn new(file: std::fs::File, path: PathBuf, window: Duration) -> Self {
        GroupCommit {
            flush: Mutex::new(FlushState::default()),
            flushed: Condvar::new(),
            file,
            path,
            window,
        }
    }

    fn lock(&self) -> MutexGuard<'_, FlushState> {
        self.flush.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register one staged record and fold its arrival gap into the
    /// rate estimate. Call under the server state lock, immediately
    /// after the unsynced journal write.
    fn stage(&self) -> u64 {
        let now = Instant::now();
        let mut s = self.lock();
        if let Some(last) = s.last_stage.replace(now) {
            let gap = now.duration_since(last).min(self.window * GAP_CLAMP);
            s.gap_ewma = s.gap_ewma - s.gap_ewma / GAP_EWMA_DIV + gap / GAP_EWMA_DIV;
        }
        s.written_seq += 1;
        s.written_seq
    }

    /// Block until record `seq` is durable; `Err` if its covering
    /// fsync failed.
    fn wait_durable(&self, seq: u64) -> Result<(), String> {
        let mut s = self.lock();
        loop {
            if s.flushed_seq >= seq {
                if s.failed_seq >= seq {
                    return Err(s.fail_msg.clone());
                }
                return Ok(());
            }
            if s.flusher_active {
                s = self.flushed.wait(s).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            s.flusher_active = true;
            let linger = s.gap_ewma < self.window;
            drop(s);
            // Hold the window open so concurrent submitters can pile
            // their records onto this commit — but only when they
            // have recently been arriving closer together than that.
            if linger {
                std::thread::sleep(self.window);
            }
            let (target, covered) = {
                let pre = self.lock();
                (pre.written_seq, pre.written_seq - pre.flushed_seq)
            };
            let res = crate::util::io::sync_data(&self.file, &self.path);
            let mut post = self.lock();
            post.fsyncs += 1;
            if covered >= 2 {
                post.window_flushes += 1;
            } else {
                post.solo_flushes += 1;
            }
            if let Err(e) = res {
                post.failed_seq = post.failed_seq.max(target);
                post.fail_msg = e.to_string();
            }
            post.flushed_seq = target;
            post.flusher_active = false;
            self.flushed.notify_all();
            s = post;
        }
    }

    /// `(fsyncs, window_flushes, solo_flushes)` snapshot for status.
    fn counters(&self) -> (u64, u64, u64) {
        let s = self.lock();
        (s.fsyncs, s.window_flushes, s.solo_flushes)
    }

    /// Highest record staged so far. A duplicate submit that finds its
    /// original still `admitting` waits for a sync covering this seq —
    /// it may not answer `accepted` before the original is durable.
    fn latest_staged(&self) -> u64 {
        self.lock().written_seq
    }
}

// ---------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------

struct QueuedJob {
    id: u64,
    spec: JobSpec,
    accepted_at: Instant,
}

struct State {
    tenants: TenantQueues<QueuedJob>,
    /// Ids staged in an open commit window: journaled (unsynced) and
    /// holding queue capacity, but not yet worker-visible.
    admitting: HashSet<u64>,
    /// `{tenant}/{idem}` → job id for every accepted job that carried
    /// an idempotency key. A retried submit after a lost `accepted` ack
    /// finds its original id here and dedups instead of double-running.
    /// Entries are inserted at staging time (so a duplicate racing the
    /// open commit window still dedups) and removed if the commit
    /// fails; recovery rebuilds the map from the journal's `A` records.
    idem: HashMap<String, u64>,
    running: HashSet<u64>,
    results: HashMap<u64, JobDone>,
    breakers: HashMap<String, Breaker>,
    estimator: ServiceEstimator,
    next_id: u64,
    completed: u64,
    rejected: u64,
    shed: u64,
    shutting_down: bool,
    journal: Journal,
}

/// Breaker lattice key: the per-class breaker is scoped per tenant, so
/// one tenant's failing class fails fast for *that tenant only* while
/// another tenant's identical class keeps serving.
fn breaker_key(spec: &JobSpec) -> String {
    let class = spec.class.clone().unwrap_or_else(|| spec.signature());
    format!("{}/{}", spec.tenant, class)
}

/// What crash recovery did on startup.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// `(id, status)` of jobs replayed just now.
    pub replayed: Vec<(u64, String)>,
    /// Jobs found already done in the journal (not re-run).
    pub already_done: usize,
    /// Torn tail bytes truncated from the journal.
    pub torn_bytes: u64,
    /// The journal was archived for a `SIM_VERSION` mismatch.
    pub archived: bool,
    /// The previous run shut down gracefully.
    pub was_sealed: bool,
}

impl RecoveryReport {
    /// One-line summary for logs and the CI gate.
    pub fn summary(&self) -> String {
        format!(
            "recovery: replayed {} job(s), skipped {} already done, truncated {} torn byte(s), archived={}, sealed={}",
            self.replayed.len(),
            self.already_done,
            self.torn_bytes,
            u8::from(self.archived),
            u8::from(self.was_sealed)
        )
    }
}

/// The scenario server. Construct with [`Server::new`] (which performs
/// crash recovery), then either [`Server::run`] the socket accept loop
/// or drive it in-process from tests via [`Server::handle`].
pub struct Server {
    state: Mutex<State>,
    cond: Condvar,
    opts: ServeOptions,
    stop: AtomicBool,
    gc: GroupCommit,
    /// Jobs dispatched to a worker, one per wakeup.
    dispatches: AtomicU64,
    /// Submits answered `accepted`.
    accepts: AtomicU64,
    /// Submits answered with the original id of an already-accepted
    /// idempotency key (lost-ack retries that deduped).
    dedup_hits: AtomicU64,
}

impl Server {
    /// Open (recovering) the journal, replay unfinished jobs, and
    /// return the ready-to-serve server plus what recovery did.
    pub fn new(opts: ServeOptions) -> Result<(Arc<Server>, RecoveryReport), String> {
        let (journal, recovered) = Journal::open(&opts.journal)
            .map_err(|e| format!("open journal {}: {e}", opts.journal.display()))?;
        let mut report = RecoveryReport {
            already_done: recovered.completed.len(),
            torn_bytes: recovered.torn_bytes,
            archived: recovered.archived.is_some(),
            was_sealed: recovered.was_sealed,
            ..RecoveryReport::default()
        };
        let mut state = State {
            tenants: TenantQueues::default(),
            admitting: HashSet::new(),
            idem: recovered.idem_keys.iter().cloned().collect(),
            running: HashSet::new(),
            results: HashMap::new(),
            breakers: HashMap::new(),
            estimator: ServiceEstimator::default(),
            next_id: recovered.next_id,
            completed: 0,
            rejected: 0,
            shed: 0,
            shutting_down: false,
            journal,
        };
        // Jobs the journal says were already done get their results
        // reconstructed so a `wait` that arrives after the restart (a
        // fleet coordinator reattaching to a revived worker) still gets
        // its answer. The `ok` artifact path is trustworthy — the
        // artifact is written durably *before* the done mark — while a
        // pre-restart panic/error message is gone; only its status
        // survives.
        for (id, status) in &recovered.completed {
            let done = match status.as_str() {
                "ok" => JobDone::Ok {
                    artifact: opts
                        .artifact_dir
                        .join(format!("job-{id}.out"))
                        .display()
                        .to_string(),
                },
                "deadline" => JobDone::DeadlineExceeded,
                "panic" => JobDone::Panicked("panicked before a restart".to_string()),
                _ => JobDone::SimError("failed before a restart".to_string()),
            };
            state.results.insert(*id, done);
            state.completed += 1;
        }
        // Replay before serving: sequential, deterministic, and marked
        // done in the same journal so a crash *during* replay just
        // replays the remainder next time. Jobs that carried a deadline
        // are conservatively expired — their deadline was anchored at
        // original acceptance, which the crash outlived.
        for (id, spec) in recovered.unfinished {
            let (done, digest) = if spec.deadline_ms.is_some() {
                (JobDone::DeadlineExceeded, None)
            } else {
                let (done, digest, entry) = self::finish(&opts, id, execute_spec(&spec));
                if let Some(entry) = entry {
                    entry.write();
                }
                (done, digest)
            };
            state
                .journal
                .done(id, done.code(), digest)
                .map_err(|e| format!("journal replay mark: {e}"))?;
            report.replayed.push((id, done.code().to_string()));
            state.completed += 1;
            state.results.insert(id, done);
        }
        let sync_handle = state
            .journal
            .sync_handle()
            .map_err(|e| format!("dup journal handle: {e}"))?;
        let server = Arc::new(Server {
            state: Mutex::new(state),
            cond: Condvar::new(),
            gc: GroupCommit::new(
                sync_handle,
                opts.journal.clone(),
                Duration::from_micros(opts.commit_window_us),
            ),
            opts,
            stop: AtomicBool::new(false),
            dispatches: AtomicU64::new(0),
            accepts: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
        });
        Ok((server, report))
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Job panics are confined by catch_unwind; a poisoned lock can
        // only mean a bug in server bookkeeping itself, and the state
        // is still consistent enough to keep serving.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Handle one request to one response. Public so tests (and the
    /// recover-only path) can drive the server without a socket.
    pub fn handle(&self, req: Request) -> Response {
        match req {
            Request::Submit(spec) => self.submit(spec),
            Request::Wait(id) => self.wait_for(id),
            Request::Status => self.status(),
            Request::Ping => Response::Pong,
            Request::Shutdown => self.shutdown(),
        }
    }

    /// Estimated milliseconds for the current backlog to drain by one
    /// job per worker — the unit retry hint for backlog-driven sheds.
    fn drain_step_ms(&self, g: &State) -> u64 {
        let per_job = g.estimator.global_estimate().unwrap_or(25.0);
        ((per_job / self.opts.workers.max(1) as f64).ceil() as u64).clamp(1, 60_000)
    }

    fn shed(&self, g: &mut MutexGuard<'_, State>, tenant: &str, verdict: tenancy::ShedVerdict) -> Response {
        g.shed += 1;
        g.tenants.record_shed(tenant);
        Response::Rejected(Reject::Shed {
            reason: verdict.reason.to_string(),
            retry_after_ms: verdict.retry_after_ms,
        })
    }

    fn submit(&self, spec: JobSpec) -> Response {
        let policy = self.opts.tenant_policy();
        let mut g = self.lock();
        if g.shutting_down {
            return Response::Rejected(Reject::ShuttingDown);
        }
        // Idempotent resubmit: a client that lost the `accepted` ack
        // retries with the same key; the job was already accepted, so
        // hand back its original id instead of double-running. Checked
        // before every capacity gate — a duplicate holds no new
        // capacity — and before the journal-failed gate: the original
        // accept is durable, so re-answering it is honest even when the
        // journal can no longer take new work.
        let idem_key =
            (!spec.idem.is_empty()).then(|| format!("{}/{}", spec.tenant, spec.idem));
        if let Some(key) = &idem_key {
            if let Some(&orig) = g.idem.get(key) {
                self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                if g.admitting.contains(&orig) {
                    // The original is still waiting on its covering
                    // fsync. `accepted` may not be answered — for any
                    // id — before that record is durable, so wait for
                    // a sync covering everything staged so far.
                    let seq = self.gc.latest_staged();
                    drop(g);
                    if let Err(e) = self.gc.wait_durable(seq) {
                        let mut g = self.lock();
                        g.rejected += 1;
                        return Response::Rejected(Reject::Unavailable(format!(
                            "journal append failed: {e}"
                        )));
                    }
                    // A sync at `seq` covers the original's earlier
                    // record, so reaching here means the original is
                    // durable; its own submitter thread finishes the
                    // queue bookkeeping.
                }
                return Response::Accepted(orig);
            }
        }
        if let Some(why) = g.journal.failed() {
            let why = why.to_string();
            g.rejected += 1;
            return Response::Rejected(Reject::Unavailable(format!("journal failed: {why}")));
        }
        // Jobs staged in an open commit window hold queue capacity
        // already: counting them keeps the bound exact while their
        // `accepted` replies are still waiting on the covering fsync.
        if g.tenants.total_queued() + g.tenants.total_admitting() >= self.opts.queue_depth {
            g.rejected += 1;
            return Response::Rejected(Reject::QueueFull {
                depth: self.opts.queue_depth,
            });
        }
        let now = Instant::now();
        // Admission control, cheapest evidence first; every shed
        // happens *before* the journal write, so a shed job was never
        // accepted and the client may resubmit freely.
        if g.tenants.check_queue_quota(&spec.tenant, &policy).is_err() {
            let verdict = tenancy::ShedVerdict {
                reason: "tenant-queue-full",
                retry_after_ms: self.drain_step_ms(&g),
            };
            return self.shed(&mut g, &spec.tenant, verdict);
        }
        if let Some(deadline_ms) = spec.deadline_ms {
            let backlog = g.tenants.total_queued() + g.tenants.total_admitting() + g.running.len();
            let class = spec.class.clone().unwrap_or_else(|| spec.signature());
            if let Some(retry) = g.estimator.wont_meet_deadline(
                &class,
                backlog,
                self.opts.workers.max(1),
                deadline_ms,
            ) {
                let verdict = tenancy::ShedVerdict {
                    reason: "wont-meet-deadline",
                    retry_after_ms: retry,
                };
                return self.shed(&mut g, &spec.tenant, verdict);
            }
        }
        if self.opts.brownout_threshold > 0.0 {
            let backlog =
                (g.tenants.total_queued() + g.tenants.total_admitting() + g.running.len()) as f64;
            let capacity = (self.opts.queue_depth + self.opts.workers.max(1)) as f64;
            // The warmth probe builds a schedule and may read a disk
            // entry under the state lock: only pay for it when over.
            if backlog / capacity > self.opts.brownout_threshold
                && !spec.scripted_panic
                && !scenario_is_warm(&config_for(&spec), &spec.workload)
            {
                let verdict = tenancy::ShedVerdict {
                    reason: "brownout",
                    retry_after_ms: self.drain_step_ms(&g).max(50),
                };
                return self.shed(&mut g, &spec.tenant, verdict);
            }
        }
        if let Err(retry_after_ms) = g.tenants.take_token(&spec.tenant, now, &policy) {
            let verdict = tenancy::ShedVerdict {
                reason: "tenant-rate",
                retry_after_ms,
            };
            return self.shed(&mut g, &spec.tenant, verdict);
        }
        let key = breaker_key(&spec);
        if let Err(retry_ms) = g.breakers.entry(key.clone()).or_default().admit(now) {
            g.rejected += 1;
            return Response::Rejected(Reject::CircuitOpen {
                class: key,
                retry_ms,
            });
        }
        let id = g.next_id;
        let tenant = spec.tenant.clone();
        // Journal first — the job must be durable before any worker
        // can see it, or a crash between dequeue and completion would
        // lose it. Stage the record now — write order matches id
        // order, both assigned under the state lock — then wait for a
        // covering fsync *outside* the lock so concurrent submitters
        // coalesce into one sync. Until then the job holds an
        // `admitting` reservation: it owns queue capacity and its id
        // answers `wait` as pending, but no worker can see it.
        if let Err(e) = g.journal.accept_nosync(id, &spec) {
            if let Some(b) = g.breakers.get_mut(&key) {
                b.abort_probe(now);
            }
            g.rejected += 1;
            return Response::Rejected(Reject::Unavailable(format!("journal append failed: {e}")));
        }
        let seq = self.gc.stage();
        g.next_id += 1;
        // Map the idempotency key now, under the same lock that staged
        // the record: a duplicate arriving inside the open commit
        // window must dedup against this id (and wait for its fsync),
        // not double-journal the job.
        if let Some(k) = &idem_key {
            g.idem.insert(k.clone(), id);
        }
        g.tenants.begin_admission(&tenant);
        g.admitting.insert(id);
        drop(g);
        let committed = self.gc.wait_durable(seq);
        let mut g = self.lock();
        g.admitting.remove(&id);
        g.tenants.finish_admission(&tenant);
        match committed {
            Ok(()) => {
                g.tenants.push(
                    &tenant,
                    QueuedJob {
                        id,
                        spec,
                        accepted_at: now,
                    },
                );
                self.accepts.fetch_add(1, Ordering::Relaxed);
                self.cond.notify_all();
                Response::Accepted(id)
            }
            Err(e) => {
                // The record never became durable, so the job must not
                // run. (If its bytes did land, crash replay re-runs it
                // harmlessly: only accepted⇒durable is promised, not
                // the converse.) The journal handle is poisoned so no
                // later append can silently land after the lost pages,
                // and the idempotency key is unmapped — this job was
                // never accepted, so a retry must be a fresh submit.
                g.journal.mark_failed(&e);
                if let Some(k) = &idem_key {
                    g.idem.remove(k);
                }
                if let Some(b) = g.breakers.get_mut(&key) {
                    b.abort_probe(Instant::now());
                }
                g.rejected += 1;
                self.cond.notify_all();
                Response::Rejected(Reject::Unavailable(format!("journal append failed: {e}")))
            }
        }
    }

    fn wait_for(&self, id: u64) -> Response {
        let mut g = self.lock();
        if id == 0 || id >= g.next_id {
            return Response::Rejected(Reject::BadRequest(format!("unknown job id {id}")));
        }
        loop {
            if let Some(done) = g.results.get(&id) {
                return Response::Done(id, done.clone());
            }
            let pending = g.running.contains(&id)
                || g.admitting.contains(&id)
                || g.tenants.any_queued(|j| j.id == id);
            if !pending {
                // A pre-restart id whose result this process never held.
                return Response::Rejected(Reject::BadRequest(format!(
                    "job {id} predates this server instance"
                )));
            }
            g = self.cond.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn status(&self) -> Response {
        let g = self.lock();
        let mut open_circuits: Vec<String> = g
            .breakers
            .iter()
            .filter(|(_, b)| b.is_open())
            .map(|(class, _)| class.clone())
            .collect();
        open_circuits.sort();
        let (fsyncs, window_flushes, solo_flushes) = self.gc.counters();
        let memo = crate::scenario::memo_stats();
        let dispatches = self.dispatches.load(Ordering::Relaxed);
        Response::Status(StatusReport {
            queued: g.tenants.total_queued() as u64,
            running: g.running.len() as u64,
            completed: g.completed,
            rejected: g.rejected,
            shed: g.shed,
            open_circuits,
            tenants: g.tenants.stats(),
            dispatches,
            dispatched_jobs: dispatches,
            accepts: self.accepts.load(Ordering::Relaxed),
            fsyncs,
            window_flushes,
            solo_flushes,
            cache_corrupt: crate::scenario::cache_corrupt_count(),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            memo_entries: memo.entries,
            memo_bytes: memo.bytes,
            memo_evictions: memo.evictions,
        })
    }

    fn shutdown(&self) -> Response {
        let mut g = self.lock();
        g.shutting_down = true;
        self.stop.store(true, Ordering::SeqCst);
        let draining =
            (g.tenants.total_queued() + g.tenants.total_admitting() + g.running.len()) as u64;
        self.cond.notify_all();
        Response::Bye { draining }
    }

    fn worker_loop(self: &Arc<Self>) {
        let policy = self.opts.tenant_policy();
        loop {
            // One DRR pop per wakeup: a worker holds only the job it
            // runs, so a short job queued behind a long one goes to
            // the next idle worker instead of waiting its turn.
            let job = {
                let mut g = self.lock();
                loop {
                    if let Some((_, job)) = g.tenants.pop(&policy) {
                        g.running.insert(job.id);
                        break job;
                    }
                    // `pop` can return None with jobs still queued when
                    // every non-empty lane is at its in-flight cap; a
                    // cap only binds while something is running, so the
                    // drain below cannot deadlock. Jobs still waiting
                    // on their commit-window fsync (`admitting`) will
                    // be pushed and wake us again.
                    if g.shutting_down
                        && g.running.is_empty()
                        && g.tenants.total_queued() == 0
                        && g.admitting.is_empty()
                    {
                        return;
                    }
                    g = self.cond.wait(g).unwrap_or_else(|e| e.into_inner());
                }
            };
            self.dispatches.fetch_add(1, Ordering::Relaxed);
            let (done, exec_ms, digest, entry) = self.execute(&job);
            self.settle(&job, done, exec_ms, digest);
            // The job is answered, and its outcome is in the scenario
            // memo, so repeats and the brownout warmth probe already
            // hit. Only now does its cache entry go to disk, off the
            // reply path and before this worker takes its next job;
            // shutdown joins the workers, so no entry is left unwritten
            // at exit. A crash in between loses the entry, never
            // corrupts it (atomic write), and a lost entry is a future
            // miss: entries owe no durability, like the `D` marks.
            if let Some(entry) = entry {
                entry.write();
            }
        }
    }

    /// Record a finished job's outcome and answer its waiters.
    fn settle(&self, job: &QueuedJob, done: JobDone, exec_ms: Option<f64>, digest: Option<u64>) {
        let mut g = self.lock();
        g.running.remove(&job.id);
        g.completed += 1;
        let served_ms = matches!(done, JobDone::Ok { .. })
            .then(|| job.accepted_at.elapsed().as_millis() as u64);
        g.tenants.complete(&job.spec.tenant, served_ms);
        if let Some(ms) = exec_ms {
            // Feed the deadline forecast with the tenant-agnostic
            // class: service time is a property of the scenario,
            // not of who submitted it.
            let class = job
                .spec
                .class
                .clone()
                .unwrap_or_else(|| job.spec.signature());
            g.estimator.observe(&class, ms);
        }
        let success = !matches!(done, JobDone::Panicked(_) | JobDone::SimError(_));
        g.breakers
            .entry(breaker_key(&job.spec))
            .or_default()
            .record(
                success,
                Instant::now(),
                self.opts.breaker_threshold,
                Duration::from_millis(self.opts.breaker_cooldown_ms),
            );
        // Done marks owe no durability (a lost `D` replays the job
        // to a byte-identical artifact), so the mark rides to disk
        // with the next accept commit or the shutdown seal instead
        // of costing a worker fsync here. A failed write latches
        // the journal failed (the guard in `done_nosync` does it);
        // subsequent submits answer `unavailable`. The completion
        // itself stands — a lost `D` only costs a harmless replay.
        if let Err(e) = g.journal.done_nosync(job.id, done.code(), digest) {
            eprintln!("service: journal done mark failed, journal sealed: {e}");
        }
        g.results.insert(job.id, done);
        self.cond.notify_all();
    }

    /// Execute one dispatched job outside any lock, returning its
    /// outcome, `exec_ms` for the deadline estimator (None when it was
    /// cancelled before running), its artifact digest and the cache
    /// entry it owes to disk. The job runs through [`execute_spec`]
    /// under its own panic guard.
    fn execute(
        &self,
        job: &QueuedJob,
    ) -> (JobDone, Option<f64>, Option<u64>, Option<EntryWrite>) {
        let deadline = job
            .spec
            .deadline_ms
            .map(|ms| job.accepted_at + Duration::from_millis(ms));
        let expired = || deadline.is_some_and(|d| Instant::now() >= d);
        if expired() {
            // Cancelled before it ever ran.
            return (JobDone::DeadlineExceeded, None, None, None);
        }
        let started = Instant::now();
        let exec = execute_spec(&job.spec);
        let exec_ms = started.elapsed().as_secs_f64() * 1000.0;
        let (done, digest, entry) = if expired() {
            // Finished too late: the result is discarded, no artifact
            // is written. The cache entry still is: the outcome is
            // right, only late.
            let entry = match exec {
                Exec::Ok(_, entry) => entry,
                _ => None,
            };
            (JobDone::DeadlineExceeded, None, entry)
        } else {
            finish(&self.opts, job.id, exec)
        };
        (done, Some(exec_ms), digest, entry)
    }

    /// Bind the socket and serve until SIGTERM or a `shutdown`
    /// request, then drain in-flight jobs, seal the journal and remove
    /// the socket.
    pub fn run(self: &Arc<Self>) -> Result<(), String> {
        let socket = &self.opts.socket;
        if socket.exists() {
            match UnixStream::connect(socket) {
                Ok(_) => return Err(format!("{} already has a live server", socket.display())),
                // Stale socket from a crashed predecessor.
                Err(_) => std::fs::remove_file(socket)
                    .map_err(|e| format!("remove stale socket: {e}"))?,
            }
        }
        if let Some(dir) = socket.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("create socket dir: {e}"))?;
        }
        let listener =
            UnixListener::bind(socket).map_err(|e| format!("bind {}: {e}", socket.display()))?;
        let workers: Vec<_> = (0..self.opts.workers.max(1))
            .map(|i| {
                let server = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("hq-service-worker-{i}"))
                    .spawn(move || server.worker_loop())
                    .map_err(|e| format!("spawn worker: {e}"))
            })
            .collect::<Result<_, _>>()?;
        eprintln!(
            "service: listening on {} ({} workers, queue depth {})",
            socket.display(),
            self.opts.workers.max(1),
            self.opts.queue_depth
        );
        let server = Arc::clone(self);
        front::serve(Arc::new(listener), &self.stop, move |req| server.handle(req));
        // Drain: stop admitting, let workers finish what is queued and
        // running, then seal so the next start knows nothing is owed.
        {
            let mut g = self.lock();
            g.shutting_down = true;
            self.cond.notify_all();
            while g.tenants.total_queued() > 0 || !g.running.is_empty() || !g.admitting.is_empty()
            {
                g = self.cond.wait(g).unwrap_or_else(|e| e.into_inner());
            }
            g.journal
                .seal()
                .map_err(|e| format!("seal journal: {e}"))?;
        }
        self.cond.notify_all();
        for w in workers {
            let _ = w.join();
        }
        let _ = std::fs::remove_file(socket);
        eprintln!("service: drained and sealed, bye");
        Ok(())
    }
}

/// Render and persist the artifact for an execution result. Returns the
/// outcome plus, for `ok` jobs, the fnv1a digest of the artifact bytes —
/// journaled with the `D` mark so `hyperq scrub` can verify the artifact
/// on disk without re-executing the job — and the cache entry the run
/// still owes to disk.
fn finish(opts: &ServeOptions, id: u64, exec: Exec) -> (JobDone, Option<u64>, Option<EntryWrite>) {
    match exec {
        Exec::Panicked(msg) => (JobDone::Panicked(msg), None, None),
        Exec::SimError(msg) => (JobDone::SimError(msg), None, None),
        Exec::Ok(artifact, entry) => {
            let path = opts.artifact_dir.join(format!("job-{id}.out"));
            let digest = fnv1a(artifact.as_bytes());
            if let Err(e) = std::fs::create_dir_all(&opts.artifact_dir)
                .and_then(|()| write_atomic(&path, &artifact))
            {
                return (
                    JobDone::SimError(format!("write artifact {}: {e}", path.display())),
                    None,
                    entry,
                );
            }
            (
                JobDone::Ok {
                    artifact: path.display().to_string(),
                },
                Some(digest),
                entry,
            )
        }
    }
}

/// `hyperq serve` entry point. With `recover_only`, performs journal
/// recovery (replaying unfinished jobs) and returns without binding
/// the socket — the deterministic crash-recovery gate CI uses.
///
/// Before recovery runs, the journal gets an on-boot integrity scrub:
/// mid-file corruption is a hard startup error (recovery's prefix scan
/// would silently drop every record past the damage — serving from
/// that view could re-run completed jobs or lose accepted ones), while
/// tail damage is left for recovery's ordinary torn-tail truncation.
pub fn serve(opts: ServeOptions, recover_only: bool) -> Result<RecoveryReport, String> {
    match Journal::verify(&opts.journal) {
        Ok(v) if v.mid_file_corrupt => {
            let what = if v.total_lines == 0 {
                "no recognizable content at all".to_string()
            } else {
                format!("mid-file corruption (bad line(s) {:?})", v.bad_lines)
            };
            return Err(format!(
                "journal {} has {what}; refusing to serve from a partial \
                 view — run `hyperq scrub --repair` to quarantine it",
                opts.journal.display(),
            ));
        }
        // A wrong-but-parseable sim version is legitimate (recovery
        // archives such journals); a file where *nothing* parses is
        // damage, not a version skew.
        Ok(v) if v.total_lines > 0 && v.bad_lines.len() as u64 == v.total_lines => {
            return Err(format!(
                "journal {} has no parseable records at all; run \
                 `hyperq scrub --repair` to quarantine it",
                opts.journal.display()
            ));
        }
        _ => {}
    }
    let (server, report) = Server::new(opts)?;
    eprintln!("service: {}", report.summary());
    for (id, status) in &report.replayed {
        eprintln!("service: replayed job {id} -> {status}");
    }
    if !recover_only {
        server.run()?;
    }
    Ok(report)
}

/// Process-unique idempotency key for one logical submit: pid, a
/// monotonic per-process counter and a wall-clock nanosecond stamp.
/// Two processes (or two runs of one) can never mint the same key, so
/// the server's dedup map only ever coalesces genuine retries.
pub fn gen_idem_key() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    format!(
        "c{}-{:x}-{}",
        std::process::id(),
        nanos,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

/// Exponential backoff with deterministic jitter: no RNG dependency,
/// yet two clients (or coordinators) retrying the same key do not
/// stampede in lockstep — the jitter is salted by key *and* attempt.
/// Shared by fleet dispatch retries and the client submit retry loop.
pub(crate) fn retry_backoff(base_ms: u64, key: &str, attempt: u32) -> Duration {
    let ceiling = base_ms.max(1) << attempt.min(6);
    let salt = fnv1a(format!("{key}#{attempt}").as_bytes());
    Duration::from_millis(ceiling / 2 + salt % (ceiling / 2 + 1))
}

// ---------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------

/// Seeded connection-fault plan for the network torture harness. Each
/// [`Client::call`] rolls deterministically (from `seed` and a
/// per-client request counter) for one of three faults:
///
/// * **mid-frame disconnect** — only a prefix of the request frame is
///   written before the call errors out, leaving the server with a
///   torn frame (its framed `bad-request` answer goes nowhere);
/// * **trickle** — the frame is delivered one byte at a time with a
///   flush per byte, exercising the server's buffered frame reader;
/// * **lost ack** — the request is delivered and answered normally,
///   but an `accepted` response is dropped on the floor, exactly like
///   a connection dying between the server's journal fsync and the
///   client's read. The caller must reconnect and resubmit with the
///   same idempotency key; the server dedups.
///
/// All probabilities are per-mille. Injected faults surface as `Err`
/// strings prefixed `injected:` so harnesses can tell them from real
/// transport failures.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetFaultPlan {
    /// Fault-stream seed; same seed + same call sequence = same faults.
    pub seed: u64,
    /// Per-call chance (‰) of a mid-frame disconnect.
    pub disconnect_pm: u16,
    /// Per-call chance (‰) of byte-at-a-time delivery.
    pub trickle_pm: u16,
    /// Per-submit chance (‰) of losing an `accepted` ack.
    pub lost_ack_pm: u16,
}

struct NetFaultState {
    plan: NetFaultPlan,
    calls: u64,
    /// Faults injected so far (harness assertion material).
    injected: u64,
}

impl NetFaultState {
    fn roll(&mut self, lane: u64, pm: u16) -> bool {
        let x = crate::util::io::splitmix64(
            self.plan.seed ^ self.calls.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ lane,
        );
        pm > 0 && x % 1000 < pm as u64
    }
}

/// Client connection holding one request/response conversation.
pub struct Client {
    reader: BufReader<Box<dyn Conn>>,
    writer: Box<dyn Conn>,
    timeout_ms: Option<u64>,
    bufs: protocol::FrameBufs,
    net: Option<NetFaultState>,
}

impl Client {
    fn from_conn(stream: Box<dyn Conn>) -> Result<Client, String> {
        let read_half = stream.try_clone_conn().map_err(|e| format!("clone stream: {e}"))?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: stream,
            timeout_ms: None,
            bufs: protocol::FrameBufs::default(),
            net: None,
        })
    }

    /// Arm a seeded [`NetFaultPlan`] on this connection (torture
    /// harness only; production clients never set one).
    pub fn set_net_faults(&mut self, plan: NetFaultPlan) {
        self.net = Some(NetFaultState {
            plan,
            calls: 0,
            injected: 0,
        });
    }

    /// Network faults injected on this connection so far.
    pub fn net_faults_injected(&self) -> u64 {
        self.net.as_ref().map(|n| n.injected).unwrap_or(0)
    }

    /// Connect to a serving Unix socket.
    pub fn connect(socket: &Path) -> Result<Client, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        Client::from_conn(Box::new(stream))
    }

    /// Connect to a fleet coordinator's TCP front door.
    pub fn connect_tcp(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        Client::from_conn(Box::new(stream))
    }

    /// Bound every subsequent response read: a wedged server answers
    /// with a structured timeout error instead of hanging the caller
    /// forever. `None` restores blocking reads.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), String> {
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(|e| format!("set read timeout: {e}"))?;
        self.timeout_ms = timeout.map(|d| d.as_millis() as u64);
        Ok(())
    }

    /// One request, one response.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        if self.net.is_some() {
            return self.call_with_faults(req);
        }
        protocol::write_frame_into(&mut self.writer, &mut self.bufs, &req.encode())
            .map_err(|e| format!("send request: {e}"))?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response, String> {
        match protocol::read_frame_into(&mut self.reader, &mut self.bufs) {
            Ok(Some(payload)) => Response::decode(payload),
            Ok(None) => Err("server closed the connection".to_string()),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Err(match self.timeout_ms {
                    Some(ms) => format!("timed out after {ms}ms waiting for a response"),
                    None => "timed out waiting for a response".to_string(),
                })
            }
            Err(e) => Err(format!("read response: {e}")),
        }
    }

    /// [`Client::call`] under an armed [`NetFaultPlan`]. After an
    /// `injected: connection lost mid-frame` error the connection is
    /// dead weight — drop this client and reconnect, like a real
    /// caller whose TCP session died.
    fn call_with_faults(&mut self, req: &Request) -> Result<Response, String> {
        let payload = req.encode();
        let mut frame = format!("{}\n", payload.len()).into_bytes();
        frame.extend_from_slice(payload.as_bytes());
        let net = self.net.as_mut().expect("call_with_faults without a plan");
        net.calls += 1;
        let calls = net.calls;
        let seed = net.plan.seed;
        let disconnect = net.roll(1, net.plan.disconnect_pm);
        let trickle = net.roll(2, net.plan.trickle_pm);
        let lose_ack = matches!(req, Request::Submit(_)) && net.roll(3, net.plan.lost_ack_pm);
        if disconnect {
            net.injected += 1;
            let cut =
                (crate::util::io::splitmix64(seed ^ calls) as usize) % frame.len().max(1);
            let _ = self
                .writer
                .write_all(&frame[..cut])
                .and_then(|()| self.writer.flush());
            return Err("injected: connection lost mid-frame".to_string());
        }
        if trickle {
            net.injected += 1;
            for b in &frame {
                self.writer
                    .write_all(std::slice::from_ref(b))
                    .and_then(|()| self.writer.flush())
                    .map_err(|e| format!("send request: {e}"))?;
            }
        } else {
            self.writer
                .write_all(&frame)
                .and_then(|()| self.writer.flush())
                .map_err(|e| format!("send request: {e}"))?;
        }
        let resp = self.read_response()?;
        if lose_ack && matches!(resp, Response::Accepted(_)) {
            // The server committed and answered; the answer "got lost".
            if let Some(n) = self.net.as_mut() {
                n.injected += 1;
            }
            return Err("injected: accepted ack lost".to_string());
        }
        Ok(resp)
    }

    /// Submit and, when accepted, block until the job finishes.
    pub fn submit_and_wait(&mut self, spec: JobSpec) -> Result<Response, String> {
        match self.call(&Request::Submit(spec))? {
            Response::Accepted(id) => self.call(&Request::Wait(id)),
            other => Ok(other),
        }
    }

    /// Submit with bounded retries: transient rejections (`queue-full`
    /// and every `shed`) back off — jittered exponential, floored at
    /// the server's `retry-after-ms` hint — and resubmit until the job
    /// is accepted or `budget` is exhausted, then the last rejection is
    /// returned. Terminal answers (`circuit-open`, `shutting-down`,
    /// `bad-request`) pass straight through: retrying those burns the
    /// budget for an answer the server already gave definitively.
    pub fn submit_with_retry(
        &mut self,
        spec: &JobSpec,
        budget: Duration,
    ) -> Result<Response, String> {
        let started = Instant::now();
        let key = spec.signature();
        // Every resubmit in this loop is the same logical job: give it
        // one idempotency key so a retry after a lost ack (or any
        // response the transport ate) dedups server-side instead of
        // double-running. A caller-provided key is kept as-is.
        let mut spec = spec.clone();
        if spec.idem.is_empty() {
            spec.idem = gen_idem_key();
        }
        let mut attempt = 0u32;
        loop {
            let resp = self.call(&Request::Submit(spec.clone()))?;
            let hint_ms = match &resp {
                Response::Rejected(Reject::QueueFull { .. }) => 0,
                Response::Rejected(Reject::Shed { retry_after_ms, .. }) => *retry_after_ms,
                _ => return Ok(resp),
            };
            let elapsed = started.elapsed();
            if elapsed >= budget {
                return Ok(resp);
            }
            let pause = retry_backoff(10, &key, attempt)
                .max(Duration::from_millis(hint_ms))
                .min(budget - elapsed);
            std::thread::sleep(pause);
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_after_cooldown() {
        let t0 = Instant::now();
        let cooldown = Duration::from_millis(100);
        let mut b = Breaker::default();
        assert_eq!(b.admit(t0), Ok(()));
        b.record(false, t0, 3, cooldown);
        b.record(false, t0, 3, cooldown);
        assert!(!b.is_open(), "below threshold stays closed");
        b.record(false, t0, 3, cooldown);
        assert!(b.is_open(), "third consecutive failure opens");
        let retry = b.admit(at(t0, 10)).unwrap_err();
        assert!(retry > 0 && retry <= 100, "retry hint {retry}");
        // Cooldown elapsed: exactly one probe gets through.
        assert_eq!(b.admit(at(t0, 150)), Ok(()));
        assert_eq!(b.admit(at(t0, 151)), Err(1), "second probe rejected");
        // Probe success closes the breaker and resets the count.
        b.record(true, at(t0, 160), 3, cooldown);
        assert!(!b.is_open());
        b.record(false, at(t0, 170), 3, cooldown);
        assert!(!b.is_open(), "failure count restarted after success");
    }

    #[test]
    fn breaker_reopens_on_failed_probe() {
        let t0 = Instant::now();
        let cooldown = Duration::from_millis(50);
        let mut b = Breaker::default();
        for _ in 0..3 {
            b.record(false, t0, 3, cooldown);
        }
        assert_eq!(b.admit(at(t0, 60)), Ok(()));
        // The probe itself fails: straight back to open, full cooldown.
        b.record(false, at(t0, 61), 3, cooldown);
        assert!(b.admit(at(t0, 62)).is_err());
        assert_eq!(b.admit(at(t0, 120)), Ok(()));
    }

    #[test]
    fn aborted_probe_allows_the_next_submit_to_probe() {
        let t0 = Instant::now();
        let cooldown = Duration::from_millis(50);
        let mut b = Breaker::default();
        for _ in 0..3 {
            b.record(false, t0, 3, cooldown);
        }
        assert_eq!(b.admit(at(t0, 60)), Ok(()));
        b.abort_probe(at(t0, 60));
        // Without abort_probe this would be Err(1) forever.
        assert_eq!(b.admit(at(t0, 61)), Ok(()));
    }

    /// Commit window of the rate-gate tests: wide enough that
    /// scheduling noise cannot blur "lingered" into "did not".
    const GC_WINDOW: Duration = Duration::from_millis(50);

    /// A group commit over an unlinked scratch file, on tmpfs when the
    /// host has one so the fsync itself costs microseconds.
    fn scratch_commit(name: &str) -> GroupCommit {
        let shm = Path::new("/dev/shm");
        let dir = if shm.is_dir() {
            shm.to_path_buf()
        } else {
            std::env::temp_dir()
        };
        let path = dir.join(format!("hq-gc-{}-{name}", std::process::id()));
        let file = std::fs::File::create(&path).expect("scratch journal");
        std::fs::remove_file(&path).expect("unlink scratch journal");
        GroupCommit::new(file, path, GC_WINDOW)
    }

    #[test]
    fn group_commit_lingers_on_a_fresh_servers_first_record() {
        let gc = scratch_commit("fresh");
        let seq = gc.stage();
        let t = Instant::now();
        gc.wait_durable(seq).expect("durable");
        assert!(
            t.elapsed() >= GC_WINDOW,
            "the first record must hold the window open, waited {:?}",
            t.elapsed()
        );
        assert_eq!(gc.counters(), (1, 0, 1));
    }

    #[test]
    fn group_commit_skips_the_window_for_spaced_arrivals() {
        let gc = scratch_commit("spaced");
        // Gaps of two windows (the clamp) lift the estimate past one
        // window within seven samples; the early records still linger.
        for _ in 0..8 {
            gc.wait_durable(gc.stage()).expect("durable");
            std::thread::sleep(GC_WINDOW * 2);
        }
        let (fsyncs, windows, solos) = gc.counters();
        let seq = gc.stage();
        let t = Instant::now();
        gc.wait_durable(seq).expect("durable");
        assert!(
            t.elapsed() < GC_WINDOW / 2,
            "a lone record after spaced arrivals must not sleep out the window, waited {:?}",
            t.elapsed()
        );
        assert_eq!(gc.counters(), (fsyncs + 1, windows, solos + 1));
    }

    #[test]
    fn group_commit_shares_one_fsync_after_tight_arrivals_and_an_idle_spell() {
        let gc = Arc::new(scratch_commit("tight"));
        let mut last = 0;
        for _ in 0..8 {
            last = gc.stage();
        }
        gc.wait_durable(last).expect("durable");
        // One long pause must not switch lingering off: its gap sample
        // is clamped at two windows.
        std::thread::sleep(GC_WINDOW * 10);
        let (fsyncs, windows, solos) = gc.counters();
        let start = Arc::new(std::sync::Barrier::new(4));
        let stagers: Vec<_> = (0..4)
            .map(|_| {
                let (gc, start) = (Arc::clone(&gc), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    gc.wait_durable(gc.stage())
                })
            })
            .collect();
        for h in stagers {
            h.join().expect("stager").expect("durable");
        }
        assert_eq!(
            gc.counters(),
            (fsyncs + 1, windows + 1, solos),
            "four concurrent stagers must share one window flush"
        );
    }

    #[test]
    fn artifact_rendering_is_deterministic_and_spec_tagged() {
        let spec = JobSpec::default();
        let a = run_job_direct(&spec).expect("direct run");
        let b = run_job_direct(&spec).expect("direct rerun");
        assert_eq!(a, b, "identical spec must render identical bytes");
        assert!(a.starts_with("hq-service-artifact v1\n"));
        assert!(a.contains(&format!("spec {}", esc(&spec.signature()))));
        assert!(a.ends_with("end\n"));
        let panicky = JobSpec {
            scripted_panic: true,
            ..JobSpec::default()
        };
        assert!(run_job_direct(&panicky).is_err());
    }

    #[test]
    fn execute_spec_isolates_panics() {
        let spec = JobSpec {
            scripted_panic: true,
            ..JobSpec::default()
        };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let exec = execute_spec(&spec);
        std::panic::set_hook(prev);
        match exec {
            Exec::Panicked(msg) => assert!(msg.contains("scripted panic"), "{msg}"),
            _ => panic!("expected Panicked"),
        }
    }
}
