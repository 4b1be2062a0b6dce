//! Wire protocol for the scenario service: length-prefixed frames over
//! a Unix-domain socket carrying one-line requests and responses.
//!
//! The grammar is pinned by wire compatibility (a fleet coordinator,
//! its shard workers and every client must agree on every byte), so
//! the protocol is the crate's line codec
//! ([`crate::util::codec`]), not JSON: every payload is a single line of
//! space-separated tokens whose string-valued fields are percent-escaped
//! with [`esc`]. A frame is
//!
//! ```text
//! <decimal payload length>\n<payload bytes>
//! ```
//!
//! and every payload starts with the protocol magic [`MAGIC`] so a
//! stray client speaking something else gets a structured
//! `bad-request`, never a panic. Decoding is total: malformed frames
//! and payloads produce `Err(String)` describing the problem.

use crate::util::codec::{esc, unesc};
use hq_workloads::apps::AppKind;
use hyperq_core::harness::MemsyncMode;
use hyperq_core::ordering::ScheduleOrder;
use std::io::{BufRead, Write};

/// Protocol magic + version prefix on every payload. Bump the digit if
/// the request/response grammar changes incompatibly.
pub const MAGIC: &str = "hq1";

/// Upper bound on a single frame payload; anything larger is rejected
/// before allocation, so a corrupt length prefix cannot OOM the
/// coordinator or a worker. Violations are answered with a *framed*
/// `bad-request` by [`serve_frames`], never a silent connection drop.
pub const MAX_FRAME: usize = 1 << 20;

/// Tenant assigned to jobs that carry no explicit tenant — including
/// every record written before the tenant field existed, so pre-tenant
/// journals replay unchanged (the `tenant=` token is *optional* on
/// decode; see the schema-bump rule in DESIGN §5i).
pub const DEFAULT_TENANT: &str = "default";

/// Escape a string for embedding inside a comma/colon-structured wire
/// field (the per-tenant status section): [`esc`] plus `:` and `,`.
/// [`unesc`] already decodes any `%XX`, so no matching decoder is
/// needed.
fn esc_field(s: &str) -> String {
    esc(s).replace(':', "%3A").replace(',', "%2C")
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/// Reusable per-connection framing buffers. A busy connection reads
/// and writes thousands of frames; routing them all through one set of
/// buffers replaces a per-frame header `String` + payload `Vec`
/// allocation with amortized reuse, and lets a write go out as a
/// single `write_all` (header + payload assembled contiguously).
#[derive(Default)]
pub struct FrameBufs {
    header: String,
    payload: Vec<u8>,
    write: Vec<u8>,
}

/// Write one `<len>\n<payload>` frame through `bufs` and flush: one
/// buffer assembly, one `write_all`, no per-frame allocation once the
/// buffer has grown to the connection's working frame size.
pub fn write_frame_into(
    w: &mut impl Write,
    bufs: &mut FrameBufs,
    payload: &str,
) -> std::io::Result<()> {
    bufs.write.clear();
    writeln!(bufs.write, "{}", payload.len())?;
    bufs.write.extend_from_slice(payload.as_bytes());
    w.write_all(&bufs.write)?;
    w.flush()
}

/// Read one frame into `bufs`, returning a view of the payload.
/// `Ok(None)` on clean EOF at a frame boundary; `Err` on a torn frame,
/// an oversized length or malformed UTF-8. The [`MAX_FRAME`] check
/// still happens *before* the payload buffer is grown, so a corrupt
/// length prefix cannot OOM the process.
pub fn read_frame_into<'a>(
    r: &mut impl BufRead,
    bufs: &'a mut FrameBufs,
) -> std::io::Result<Option<&'a str>> {
    bufs.header.clear();
    if r.read_line(&mut bufs.header)? == 0 {
        return Ok(None);
    }
    let len: usize = bufs
        .header
        .trim_end()
        .parse()
        .map_err(|_| bad_data(format!("bad frame length {:?}", bufs.header)))?;
    if len > MAX_FRAME {
        return Err(bad_data(format!("frame of {len} bytes exceeds {MAX_FRAME}")));
    }
    bufs.payload.resize(len, 0);
    r.read_exact(&mut bufs.payload)?;
    std::str::from_utf8(&bufs.payload)
        .map(Some)
        .map_err(|_| bad_data("frame payload is not UTF-8".to_string()))
}

/// Write one `<len>\n<payload>` frame and flush. Allocating
/// convenience wrapper over [`write_frame_into`] for one-shot callers.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    write_frame_into(w, &mut FrameBufs::default(), payload)
}

/// Read one frame. `Ok(None)` on clean EOF at a frame boundary;
/// `Err` on a torn frame, an oversized length or malformed UTF-8.
/// Allocating convenience wrapper over [`read_frame_into`].
pub fn read_frame(r: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut bufs = FrameBufs::default();
    read_frame_into(r, &mut bufs).map(|o| o.map(str::to_string))
}

fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Serve one connection: read request frames, answer each with one
/// response frame, until clean EOF, a transport error, or a `Bye`.
/// Protocol violations — a frame whose declared length exceeds
/// [`MAX_FRAME`] (rejected before any allocation), a malformed length
/// prefix, non-UTF-8 payload bytes — are answered with a framed
/// `bad-request` carrying the violation before the connection closes,
/// so a confused client sees a structured error rather than a silent
/// hangup. Shared by the single-process server (Unix socket) and the
/// fleet coordinator (TCP): both front doors speak identical frames.
pub fn serve_frames<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    mut handle: impl FnMut(Request) -> Response,
) {
    let mut bufs = FrameBufs::default();
    loop {
        let request = match read_frame_into(reader, &mut bufs) {
            Ok(Some(p)) => Request::decode(p),
            Ok(None) => return,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                let refuse = Response::Rejected(Reject::BadRequest(format!("protocol: {e}")));
                let _ = write_frame_into(writer, &mut bufs, &refuse.encode());
                return;
            }
            Err(_) => return,
        };
        let response = match request {
            Ok(req) => handle(req),
            Err(e) => Response::Rejected(Reject::BadRequest(e)),
        };
        let last = matches!(response, Response::Bye { .. });
        if write_frame_into(writer, &mut bufs, &response.encode()).is_err() || last {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Job specification.
// ---------------------------------------------------------------------

/// Everything needed to run one scenario job, encodable onto one wire
/// token line. The device is kept as its preset name so the service
/// stays independent of the CLI's `DevicePreset` type.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Application multiset to schedule.
    pub workload: Vec<AppKind>,
    /// Stream count.
    pub streams: u32,
    /// Launch order.
    pub order: ScheduleOrder,
    /// Memory-synchronization mode.
    pub memsync: MemsyncMode,
    /// Serialized baseline instead of concurrent execution.
    pub serial: bool,
    /// Simulation seed.
    pub seed: u64,
    /// Device preset name: `k20` | `k40` | `fermi`.
    pub device: String,
    /// Submitting tenant. Purely a serving-plane dimension: it selects
    /// the per-tenant queue, quotas and breaker scope but never affects
    /// the simulation, so it is *not* part of [`JobSpec::signature`]
    /// and identical scenarios stay cache-shared across tenants.
    pub tenant: String,
    /// Per-job deadline in milliseconds from acceptance, if any.
    pub deadline_ms: Option<u64>,
    /// Circuit-breaker class override; defaults to the spec signature.
    pub class: Option<String>,
    /// Panic deliberately instead of simulating (isolation testing).
    pub scripted_panic: bool,
    /// Client-generated idempotency key, empty for none. A resubmit
    /// carrying the key of an already-accepted job (a retry after the
    /// `accepted` ack was lost on the wire) answers the *original*
    /// job id instead of double-running. Journaled inside the `A`
    /// record, so the dedup map survives crash recovery. Serving-plane
    /// only: not part of [`JobSpec::signature`].
    pub idem: String,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            workload: vec![AppKind::Needle],
            streams: 4,
            order: ScheduleOrder::NaiveFifo,
            memsync: MemsyncMode::Off,
            serial: false,
            seed: 0xC0FFEE,
            device: "k20".to_string(),
            tenant: DEFAULT_TENANT.to_string(),
            deadline_ms: None,
            class: None,
            scripted_panic: false,
            idem: String::new(),
        }
    }
}

fn order_name(o: ScheduleOrder) -> &'static str {
    match o {
        ScheduleOrder::NaiveFifo => "fifo",
        ScheduleOrder::RoundRobin => "rr",
        ScheduleOrder::RandomShuffle => "shuffle",
        ScheduleOrder::ReverseFifo => "rfifo",
        ScheduleOrder::ReverseRoundRobin => "rrr",
    }
}

fn order_from(s: &str) -> Option<ScheduleOrder> {
    Some(match s {
        "fifo" => ScheduleOrder::NaiveFifo,
        "rr" => ScheduleOrder::RoundRobin,
        "shuffle" => ScheduleOrder::RandomShuffle,
        "rfifo" => ScheduleOrder::ReverseFifo,
        "rrr" => ScheduleOrder::ReverseRoundRobin,
        _ => return None,
    })
}

fn memsync_name(m: MemsyncMode) -> &'static str {
    match m {
        MemsyncMode::Off => "off",
        MemsyncMode::Enqueue => "enqueue",
        MemsyncMode::Synced => "synced",
    }
}

fn memsync_from(s: &str) -> Option<MemsyncMode> {
    Some(match s {
        "off" => MemsyncMode::Off,
        "enqueue" => MemsyncMode::Enqueue,
        "synced" => MemsyncMode::Synced,
        _ => return None,
    })
}

impl JobSpec {
    /// Everything that determines the *simulation* (not the service
    /// bookkeeping): identical signatures run identical scenarios, so
    /// this doubles as the default circuit-breaker class and is
    /// embedded in the rendered artifact.
    pub fn signature(&self) -> String {
        let wl: Vec<&str> = self.workload.iter().map(|k| k.name()).collect();
        format!(
            "wl={} ns={} order={} memsync={} serial={} seed={} dev={}",
            wl.join("+"),
            self.streams,
            order_name(self.order),
            memsync_name(self.memsync),
            u8::from(self.serial),
            self.seed,
            self.device
        )
    }

    /// One-line wire/journal encoding (whitespace-separated `k=v`
    /// tokens). Inverse of [`JobSpec::decode`].
    pub fn encode(&self) -> String {
        let mut s = self.signature();
        match self.deadline_ms {
            Some(ms) => s.push_str(&format!(" deadline={ms}")),
            None => s.push_str(" deadline=-"),
        }
        match &self.class {
            Some(c) => s.push_str(&format!(" class={}", esc(c))),
            None => s.push_str(" class=-"),
        }
        s.push_str(&format!(" panic={}", u8::from(self.scripted_panic)));
        s.push_str(&format!(" tenant={}", esc(&self.tenant)));
        // Optional on the wire (same schema-bump rule as `tenant=`):
        // emitted only when set, so keyless specs and old journal
        // records stay byte-identical.
        if !self.idem.is_empty() {
            s.push_str(&format!(" idem={}", esc(&self.idem)));
        }
        s
    }

    /// Decode [`JobSpec::encode`] output. Structured errors, no panics.
    pub fn decode(line: &str) -> Result<JobSpec, String> {
        let mut spec = JobSpec {
            workload: Vec::new(),
            ..JobSpec::default()
        };
        let mut seen = 0u32;
        for tok in line.split(' ').filter(|t| !t.is_empty()) {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("malformed job token '{tok}'"))?;
            seen += 1;
            match key {
                "wl" => {
                    for name in val.split('+') {
                        spec.workload.push(
                            AppKind::parse(name).ok_or_else(|| format!("unknown app '{name}'"))?,
                        );
                    }
                }
                "ns" => spec.streams = val.parse().map_err(|_| format!("bad ns '{val}'"))?,
                "order" => {
                    spec.order = order_from(val).ok_or_else(|| format!("bad order '{val}'"))?
                }
                "memsync" => {
                    spec.memsync =
                        memsync_from(val).ok_or_else(|| format!("bad memsync '{val}'"))?
                }
                "serial" => spec.serial = val == "1",
                "seed" => spec.seed = val.parse().map_err(|_| format!("bad seed '{val}'"))?,
                "dev" => {
                    if !matches!(val, "k20" | "k40" | "fermi") {
                        return Err(format!("unknown device '{val}'"));
                    }
                    spec.device = val.to_string();
                }
                "deadline" => {
                    spec.deadline_ms = match val {
                        "-" => None,
                        ms => Some(ms.parse().map_err(|_| format!("bad deadline '{ms}'"))?),
                    }
                }
                "class" => {
                    spec.class = match val {
                        "-" => None,
                        c => Some(unesc(c).ok_or_else(|| format!("bad class '{c}'"))?),
                    }
                }
                "panic" => spec.scripted_panic = val == "1",
                // Optional (added after v1 journals existed): lines
                // without it — every pre-tenant record — replay as the
                // default tenant, and `seen` is not incremented so the
                // mandatory-field floor below stays meaningful.
                "tenant" => {
                    seen -= 1;
                    spec.tenant = unesc(val).ok_or_else(|| format!("bad tenant '{val}'"))?;
                    if spec.tenant.is_empty() {
                        return Err("job tenant must not be empty".to_string());
                    }
                }
                // Optional like `tenant=`: absent on keyless specs and
                // on every record journaled before the field existed.
                "idem" => {
                    seen -= 1;
                    spec.idem = unesc(val).ok_or_else(|| format!("bad idem '{val}'"))?;
                    if spec.idem.is_empty() {
                        return Err("job idem key must not be empty".to_string());
                    }
                }
                other => return Err(format!("unknown job field '{other}'")),
            }
        }
        if seen < 10 {
            return Err(format!("job spec has {seen} fields, expected 10"));
        }
        if spec.workload.is_empty() {
            return Err("job spec has an empty workload".to_string());
        }
        if spec.streams == 0 || spec.streams > 1024 {
            return Err("job streams must be in 1..=1024".to_string());
        }
        Ok(spec)
    }
}

// ---------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------

/// A client request. One connection may carry any number of requests.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Enqueue a job; answered with `Accepted` or `Rejected`.
    Submit(JobSpec),
    /// Block until job `id` completes; answered with `Done`.
    Wait(u64),
    /// Queue/breaker snapshot; answered with `Status`.
    Status,
    /// Liveness probe; answered with `Pong` without touching the job
    /// queue. The fleet coordinator heartbeats workers with this.
    Ping,
    /// Graceful shutdown: drain in-flight jobs, reject new ones.
    Shutdown,
}

impl Request {
    /// Encode onto one payload line.
    pub fn encode(&self) -> String {
        match self {
            Request::Submit(spec) => format!("{MAGIC} submit {}", esc(&spec.encode())),
            Request::Wait(id) => format!("{MAGIC} wait {id}"),
            Request::Status => format!("{MAGIC} status"),
            Request::Ping => format!("{MAGIC} ping"),
            Request::Shutdown => format!("{MAGIC} shutdown"),
        }
    }

    /// Decode a payload line. Structured errors, no panics.
    pub fn decode(line: &str) -> Result<Request, String> {
        let mut toks = line.split(' ');
        if toks.next() != Some(MAGIC) {
            return Err(format!("request does not start with '{MAGIC}'"));
        }
        match (toks.next(), toks.next(), toks.next()) {
            (Some("submit"), Some(spec), None) => {
                let raw = unesc(spec).ok_or("malformed submit escape")?;
                Ok(Request::Submit(JobSpec::decode(&raw)?))
            }
            (Some("wait"), Some(id), None) => id
                .parse()
                .map(Request::Wait)
                .map_err(|_| format!("bad wait id '{id}'")),
            (Some("status"), None, _) => Ok(Request::Status),
            (Some("ping"), None, _) => Ok(Request::Ping),
            (Some("shutdown"), None, _) => Ok(Request::Shutdown),
            _ => Err(format!("unknown request '{line}'")),
        }
    }
}

// ---------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------

/// Why a submit was refused. Every variant is a normal, recoverable
/// answer: the server keeps serving after sending one.
#[derive(Clone, Debug, PartialEq)]
pub enum Reject {
    /// The bounded queue is at `--queue-depth`; resubmit later.
    QueueFull {
        /// Configured depth the queue was at.
        depth: usize,
    },
    /// The job's breaker class is open after repeated failures.
    CircuitOpen {
        /// Breaker class that is open.
        class: String,
        /// Milliseconds until the next cooldown probe is admitted.
        retry_ms: u64,
    },
    /// The job was shed by admission control: a tenant quota, the
    /// deadline forecast, or brownout. `reason` is a stable structured
    /// tag (`wont-meet-deadline`, `tenant-queue-full`, `tenant-rate`,
    /// `tenant-inflight`, `brownout`) and `retry_after_ms` is the
    /// server's estimate of when a resubmit could be admitted. Nothing
    /// was accepted or journaled; resubmitting is always safe.
    Shed {
        /// Structured shed reason tag.
        reason: String,
        /// Suggested client back-off before resubmitting.
        retry_after_ms: u64,
    },
    /// The server is draining for shutdown.
    ShuttingDown,
    /// No worker could take the job right now (fleet dispatch
    /// exhausted its bounded retries, or every shard is down).
    /// Resubmitting later is safe — nothing was accepted.
    Unavailable(String),
    /// Malformed or unserviceable request.
    BadRequest(String),
}

/// Terminal state of one job.
#[derive(Clone, Debug, PartialEq)]
pub enum JobDone {
    /// Completed; artifact written to this path.
    Ok {
        /// Path of the rendered artifact file.
        artifact: String,
    },
    /// Deadline elapsed before or during execution; no artifact.
    DeadlineExceeded,
    /// The job panicked; the worker caught it and kept serving.
    Panicked(String),
    /// The simulator returned a structured error.
    SimError(String),
}

impl JobDone {
    /// Stable status code used on the wire and in the journal.
    pub fn code(&self) -> &'static str {
        match self {
            JobDone::Ok { .. } => "ok",
            JobDone::DeadlineExceeded => "deadline",
            JobDone::Panicked(_) => "panic",
            JobDone::SimError(_) => "error",
        }
    }
}

/// Serving-plane counters for one tenant, as reported by `--status`.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TenantStat {
    /// Tenant name.
    pub tenant: String,
    /// Jobs waiting in this tenant's queue.
    pub queued: u64,
    /// Jobs of this tenant currently executing.
    pub running: u64,
    /// Jobs of this tenant completed by this process.
    pub served: u64,
    /// Submits of this tenant shed by admission control.
    pub shed: u64,
    /// 99th-percentile accept-to-completion latency over a recent
    /// window, in milliseconds (0 until the first completion).
    pub p99_ms: u64,
}

/// Point-in-time queue snapshot.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct StatusReport {
    /// Jobs waiting in the queue.
    pub queued: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Jobs finished with any status.
    pub completed: u64,
    /// Submits rejected so far (queue-full + circuit-open).
    pub rejected: u64,
    /// Submits shed by admission control (quotas, deadline forecast,
    /// brownout). Disjoint from `rejected`.
    pub shed: u64,
    /// Breaker classes currently open.
    pub open_circuits: Vec<String>,
    /// Per-tenant serving counters, sorted by tenant name.
    pub tenants: Vec<TenantStat>,
    /// Jobs dispatched to a worker, one per wakeup.
    pub dispatches: u64,
    /// Jobs dispatched across all wakeups. Always equal to
    /// `dispatches` now that a wakeup takes one job; kept in its wire
    /// slot so existing readers of the status frame still parse it.
    pub dispatched_jobs: u64,
    /// Submits journaled and answered `accepted`.
    pub accepts: u64,
    /// Journal `sync_data` calls issued by accept-side commits (done
    /// marks ride along unsynced). `fsyncs / accepts` < 1 means group commit
    /// is amortizing durability across concurrent submitters.
    pub fsyncs: u64,
    /// Accept-side commits whose fsync covered ≥ 2 staged records.
    pub window_flushes: u64,
    /// Accept-side commits that covered exactly one record: a spaced
    /// accept synced without lingering, or a window nobody else
    /// joined.
    pub solo_flushes: u64,
    /// Scenario-cache entries that were present on disk but failed
    /// integrity verification (corrupt, not merely missing). Each one
    /// degraded to a recomputation; a rising count means the cache
    /// store is rotting and wants a `hyperq scrub --repair`.
    pub cache_corrupt: u64,
    /// Submits deduplicated by idempotency key: a client retried after
    /// losing an `accepted` ack and got the original job id back.
    pub dedup_hits: u64,
    /// Outcomes held by the in-process scenario memo.
    pub memo_entries: u64,
    /// Their estimated footprint in bytes; bounded per process by
    /// `scenario::MEMO_BUDGET` (a fleet sums its shards).
    pub memo_bytes: u64,
    /// Memo entries evicted to stay within the budget. An evicted
    /// scenario is served from the disk cache (or re-simulated) next
    /// time, byte-identical.
    pub memo_evictions: u64,
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Job accepted and journaled under this id.
    Accepted(u64),
    /// Submit refused.
    Rejected(Reject),
    /// Job `id` finished.
    Done(u64, JobDone),
    /// Status snapshot.
    Status(StatusReport),
    /// Liveness probe answer.
    Pong,
    /// Shutdown acknowledged; `draining` jobs still in flight.
    Bye {
        /// Queued + running jobs that will drain before exit.
        draining: u64,
    },
}

impl Response {
    /// Encode onto one payload line.
    pub fn encode(&self) -> String {
        match self {
            Response::Accepted(id) => format!("{MAGIC} accepted {id}"),
            Response::Rejected(Reject::QueueFull { depth }) => {
                format!("{MAGIC} rejected queue-full {depth}")
            }
            Response::Rejected(Reject::CircuitOpen { class, retry_ms }) => {
                format!("{MAGIC} rejected circuit-open {} {retry_ms}", esc(class))
            }
            Response::Rejected(Reject::Shed {
                reason,
                retry_after_ms,
            }) => {
                format!("{MAGIC} rejected shed {} {retry_after_ms}", esc(reason))
            }
            Response::Rejected(Reject::ShuttingDown) => {
                format!("{MAGIC} rejected shutting-down")
            }
            Response::Rejected(Reject::Unavailable(msg)) => {
                format!("{MAGIC} rejected unavailable {}", esc(msg))
            }
            Response::Rejected(Reject::BadRequest(msg)) => {
                format!("{MAGIC} rejected bad-request {}", esc(msg))
            }
            Response::Done(id, done) => {
                let detail = match done {
                    JobDone::Ok { artifact } => esc(artifact),
                    JobDone::DeadlineExceeded => "-".to_string(),
                    JobDone::Panicked(msg) | JobDone::SimError(msg) => esc(msg),
                };
                format!("{MAGIC} done {id} {} {detail}", done.code())
            }
            Response::Status(s) => {
                let circuits: Vec<String> = s.open_circuits.iter().map(|c| esc_field(c)).collect();
                let tenants: Vec<String> = s
                    .tenants
                    .iter()
                    .map(|t| {
                        format!(
                            "{}:{}:{}:{}:{}:{}",
                            esc_field(&t.tenant),
                            t.queued,
                            t.running,
                            t.served,
                            t.shed,
                            t.p99_ms
                        )
                    })
                    .collect();
                format!(
                    "{MAGIC} status {} {} {} {} {} {} {} {}:{}:{}:{}:{}:{}:{}:{}:{}:{}:{}",
                    s.queued,
                    s.running,
                    s.completed,
                    s.rejected,
                    s.shed,
                    if circuits.is_empty() {
                        "-".to_string()
                    } else {
                        circuits.join(",")
                    },
                    if tenants.is_empty() {
                        "-".to_string()
                    } else {
                        tenants.join(",")
                    },
                    s.dispatches,
                    s.dispatched_jobs,
                    s.accepts,
                    s.fsyncs,
                    s.window_flushes,
                    s.solo_flushes,
                    s.cache_corrupt,
                    s.dedup_hits,
                    s.memo_entries,
                    s.memo_bytes,
                    s.memo_evictions
                )
            }
            Response::Pong => format!("{MAGIC} pong"),
            Response::Bye { draining } => format!("{MAGIC} bye {draining}"),
        }
    }

    /// Decode a payload line. Structured errors, no panics.
    pub fn decode(line: &str) -> Result<Response, String> {
        let toks: Vec<&str> = line.split(' ').collect();
        if toks.first() != Some(&MAGIC) {
            return Err(format!("response does not start with '{MAGIC}'"));
        }
        let num = |s: &str| -> Result<u64, String> {
            s.parse().map_err(|_| format!("bad number '{s}'"))
        };
        match toks.get(1).copied() {
            Some("accepted") if toks.len() == 3 => Ok(Response::Accepted(num(toks[2])?)),
            Some("rejected") => match (toks.get(2).copied(), toks.len()) {
                (Some("queue-full"), 4) => Ok(Response::Rejected(Reject::QueueFull {
                    depth: num(toks[3])? as usize,
                })),
                (Some("circuit-open"), 5) => Ok(Response::Rejected(Reject::CircuitOpen {
                    class: unesc(toks[3]).ok_or("bad class escape")?,
                    retry_ms: num(toks[4])?,
                })),
                (Some("shed"), 5) => Ok(Response::Rejected(Reject::Shed {
                    reason: unesc(toks[3]).ok_or("bad shed reason escape")?,
                    retry_after_ms: num(toks[4])?,
                })),
                (Some("shutting-down"), 3) => Ok(Response::Rejected(Reject::ShuttingDown)),
                (Some("unavailable"), 4) => Ok(Response::Rejected(Reject::Unavailable(
                    unesc(toks[3]).ok_or("bad message escape")?,
                ))),
                (Some("bad-request"), 4) => Ok(Response::Rejected(Reject::BadRequest(
                    unesc(toks[3]).ok_or("bad message escape")?,
                ))),
                _ => Err(format!("unknown rejection '{line}'")),
            },
            Some("done") if toks.len() == 5 => {
                let id = num(toks[2])?;
                let detail = toks[4];
                let done = match toks[3] {
                    "ok" => JobDone::Ok {
                        artifact: unesc(detail).ok_or("bad artifact escape")?,
                    },
                    "deadline" => JobDone::DeadlineExceeded,
                    "panic" => JobDone::Panicked(unesc(detail).ok_or("bad panic escape")?),
                    "error" => JobDone::SimError(unesc(detail).ok_or("bad error escape")?),
                    other => return Err(format!("unknown done status '{other}'")),
                };
                Ok(Response::Done(id, done))
            }
            Some("status") if toks.len() == 10 => {
                let open_circuits = if toks[7] == "-" {
                    Vec::new()
                } else {
                    toks[7]
                        .split(',')
                        .map(|c| unesc(c).ok_or("bad circuit escape".to_string()))
                        .collect::<Result<_, _>>()?
                };
                let tenants = if toks[8] == "-" {
                    Vec::new()
                } else {
                    toks[8]
                        .split(',')
                        .map(|entry| {
                            let f: Vec<&str> = entry.split(':').collect();
                            if f.len() != 6 {
                                return Err(format!("bad tenant stat '{entry}'"));
                            }
                            Ok(TenantStat {
                                tenant: unesc(f[0]).ok_or("bad tenant escape")?,
                                queued: num(f[1])?,
                                running: num(f[2])?,
                                served: num(f[3])?,
                                shed: num(f[4])?,
                                p99_ms: num(f[5])?,
                            })
                        })
                        .collect::<Result<_, _>>()?
                };
                let batch: Vec<&str> = toks[9].split(':').collect();
                if batch.len() != 11 {
                    return Err(format!("bad batch counters '{}'", toks[9]));
                }
                Ok(Response::Status(StatusReport {
                    queued: num(toks[2])?,
                    running: num(toks[3])?,
                    completed: num(toks[4])?,
                    rejected: num(toks[5])?,
                    shed: num(toks[6])?,
                    open_circuits,
                    tenants,
                    dispatches: num(batch[0])?,
                    dispatched_jobs: num(batch[1])?,
                    accepts: num(batch[2])?,
                    fsyncs: num(batch[3])?,
                    window_flushes: num(batch[4])?,
                    solo_flushes: num(batch[5])?,
                    cache_corrupt: num(batch[6])?,
                    dedup_hits: num(batch[7])?,
                    memo_entries: num(batch[8])?,
                    memo_bytes: num(batch[9])?,
                    memo_evictions: num(batch[10])?,
                }))
            }
            Some("pong") if toks.len() == 2 => Ok(Response::Pong),
            Some("bye") if toks.len() == 3 => Ok(Response::Bye {
                draining: num(toks[2])?,
            }),
            _ => Err(format!("unknown response '{line}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> JobSpec {
        JobSpec {
            workload: vec![AppKind::Gaussian, AppKind::Needle, AppKind::Needle],
            streams: 6,
            order: ScheduleOrder::RoundRobin,
            memsync: MemsyncMode::Synced,
            serial: false,
            seed: 42,
            device: "k40".to_string(),
            tenant: DEFAULT_TENANT.to_string(),
            deadline_ms: Some(1500),
            class: Some("figure 6 burst".to_string()),
            scripted_panic: false,
            idem: String::new(),
        }
    }

    #[test]
    fn job_spec_round_trips() {
        for spec in [
            sample_spec(),
            JobSpec::default(),
            JobSpec {
                deadline_ms: Some(0),
                class: None,
                scripted_panic: true,
                serial: true,
                ..sample_spec()
            },
            JobSpec {
                idem: "cli-1234-0007 a%b".to_string(),
                ..sample_spec()
            },
        ] {
            let line = spec.encode();
            assert!(!line.contains('\n'));
            assert_eq!(JobSpec::decode(&line).as_ref(), Ok(&spec), "{line}");
        }
        // A keyless spec encodes without the idem token at all, so lines
        // journaled before the field existed stay byte-identical.
        assert!(!sample_spec().encode().contains("idem="));
        // Empty keys are rejected, not treated as "no key".
        assert!(JobSpec::decode(&format!("{} idem=", sample_spec().encode())).is_err());
    }

    #[test]
    fn job_spec_tenant_round_trips_and_pre_tenant_lines_decode_as_default() {
        let spec = JobSpec {
            tenant: "team a/b:c".to_string(),
            ..sample_spec()
        };
        assert_eq!(JobSpec::decode(&spec.encode()).as_ref(), Ok(&spec));

        // A v1 journal line written before the tenant field existed.
        let old = sample_spec().encode();
        let old = old.strip_suffix(" tenant=default").unwrap();
        let decoded = JobSpec::decode(old).unwrap();
        assert_eq!(decoded.tenant, DEFAULT_TENANT);
        assert_eq!(decoded, sample_spec());

        // Empty tenants are rejected, not silently defaulted.
        assert!(JobSpec::decode(&format!("{old} tenant=")).is_err());
    }

    #[test]
    fn job_spec_rejects_malformed() {
        assert!(JobSpec::decode("").is_err());
        assert!(JobSpec::decode("wl=needle").is_err(), "missing fields");
        let good = sample_spec().encode();
        assert!(JobSpec::decode(&good.replace("dev=k40", "dev=k99")).is_err());
        assert!(JobSpec::decode(&good.replace("order=rr", "order=zz")).is_err());
        assert!(JobSpec::decode(&good.replace("ns=6", "ns=0")).is_err());
        assert!(JobSpec::decode(&good.replace("wl=gaussian+needle+needle", "wl=quux")).is_err());
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Submit(sample_spec()),
            Request::Wait(17),
            Request::Status,
            Request::Ping,
            Request::Shutdown,
        ] {
            assert_eq!(Request::decode(&req.encode()).as_ref(), Ok(&req));
        }
        assert!(Request::decode("hq0 status").is_err());
        assert!(Request::decode("hq1 frobnicate").is_err());
        assert!(Request::decode("hq1 wait nope").is_err());
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Accepted(3),
            Response::Rejected(Reject::QueueFull { depth: 16 }),
            Response::Rejected(Reject::CircuitOpen {
                class: "wl=needle ns=4".to_string(),
                retry_ms: 250,
            }),
            Response::Rejected(Reject::Shed {
                reason: "wont-meet-deadline".to_string(),
                retry_after_ms: 420,
            }),
            Response::Rejected(Reject::Shed {
                reason: "tenant-queue-full".to_string(),
                retry_after_ms: 0,
            }),
            Response::Rejected(Reject::ShuttingDown),
            Response::Rejected(Reject::Unavailable("all shards down".to_string())),
            Response::Rejected(Reject::BadRequest("what even is this".to_string())),
            Response::Done(
                9,
                Response::decode(&Response::Done(9, JobDone::DeadlineExceeded).encode())
                    .map(|r| match r {
                        Response::Done(_, d) => d,
                        _ => unreachable!(),
                    })
                    .unwrap(),
            ),
            Response::Done(
                7,
                JobDone::Ok {
                    artifact: "results/service/job-7.out".to_string(),
                },
            ),
            Response::Done(8, JobDone::Panicked("scripted panic".to_string())),
            Response::Done(10, JobDone::SimError("deadlock at t=3".to_string())),
            Response::Status(StatusReport {
                queued: 2,
                running: 1,
                completed: 40,
                rejected: 3,
                shed: 7,
                open_circuits: vec!["class a".to_string(), "class b".to_string()],
                tenants: vec![
                    TenantStat {
                        tenant: "paced".to_string(),
                        queued: 1,
                        running: 1,
                        served: 20,
                        shed: 0,
                        p99_ms: 12,
                    },
                    // Hostile tenant name: separators and spaces must
                    // survive the colon/comma-structured wire field.
                    TenantStat {
                        tenant: "a:b,c d".to_string(),
                        queued: 1,
                        running: 0,
                        served: 20,
                        shed: 7,
                        p99_ms: 440,
                    },
                ],
                dispatches: 11,
                dispatched_jobs: 40,
                accepts: 43,
                fsyncs: 9,
                window_flushes: 6,
                solo_flushes: 3,
                cache_corrupt: 2,
                dedup_hits: 5,
                memo_entries: 158,
                memo_bytes: 14_400_000,
                memo_evictions: 3,
            }),
            Response::Status(StatusReport::default()),
            Response::Pong,
            Response::Bye { draining: 5 },
        ] {
            assert_eq!(Response::decode(&resp.encode()).as_ref(), Ok(&resp));
        }
        assert!(Response::decode("hq1 done 1 maybe x").is_err());
    }

    #[test]
    fn frame_bufs_reuse_across_frames() {
        let mut wire = Vec::new();
        let mut bufs = FrameBufs::default();
        write_frame_into(&mut wire, &mut bufs, "hq1 ping").unwrap();
        write_frame_into(&mut wire, &mut bufs, "hq1 status").unwrap();
        write_frame_into(&mut wire, &mut bufs, "").unwrap();
        let mut r = std::io::BufReader::new(&wire[..]);
        assert_eq!(read_frame_into(&mut r, &mut bufs).unwrap(), Some("hq1 ping"));
        assert_eq!(
            read_frame_into(&mut r, &mut bufs).unwrap(),
            Some("hq1 status")
        );
        // A shorter frame after a longer one must not see stale bytes.
        assert_eq!(read_frame_into(&mut r, &mut bufs).unwrap(), Some(""));
        assert_eq!(read_frame_into(&mut r, &mut bufs).unwrap(), None);

        // The MAX_FRAME check still fires before the buffer grows.
        let huge = format!("{}\n", MAX_FRAME + 1);
        let before = bufs.payload.capacity();
        let mut r = std::io::BufReader::new(huge.as_bytes());
        assert!(read_frame_into(&mut r, &mut bufs).is_err());
        assert_eq!(bufs.payload.capacity(), before, "no allocation on reject");
    }

    #[test]
    fn frames_round_trip_and_reject_torn_input() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hq1 status").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = std::io::BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hq1 status"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        // Torn payload: header promises more bytes than exist.
        let mut r = std::io::BufReader::new(&b"10\nabc"[..]);
        assert!(read_frame(&mut r).is_err());
        // Oversized and malformed lengths are structured errors.
        let huge = format!("{}\n", MAX_FRAME + 1);
        assert!(read_frame(&mut std::io::BufReader::new(huge.as_bytes())).is_err());
        assert!(read_frame(&mut std::io::BufReader::new(&b"nope\nx"[..])).is_err());
    }

    #[test]
    fn serve_frames_answers_protocol_violations_with_framed_errors() {
        // An oversized declared length must produce a framed
        // bad-request response, not a silent close — and must do so
        // without allocating the claimed buffer.
        let huge = format!("{}\nwhatever", usize::MAX);
        let mut out = Vec::new();
        serve_frames(
            &mut std::io::BufReader::new(huge.as_bytes()),
            &mut out,
            |_| unreachable!("no frame should ever decode"),
        );
        let mut r = std::io::BufReader::new(&out[..]);
        let reply = read_frame(&mut r).unwrap().expect("a framed error");
        match Response::decode(&reply) {
            Ok(Response::Rejected(Reject::BadRequest(msg))) => {
                assert!(msg.contains("protocol"), "{msg}");
            }
            other => panic!("expected framed bad-request, got {other:?}"),
        }

        // A well-formed frame with a garbage payload gets a framed
        // bad-request too, and the connection keeps serving.
        let mut input = Vec::new();
        write_frame(&mut input, "not-the-magic at all").unwrap();
        write_frame(&mut input, &Request::Ping.encode()).unwrap();
        let mut out = Vec::new();
        serve_frames(
            &mut std::io::BufReader::new(&input[..]),
            &mut out,
            |req| match req {
                Request::Ping => Response::Pong,
                other => panic!("unexpected {other:?}"),
            },
        );
        let mut r = std::io::BufReader::new(&out[..]);
        let first = read_frame(&mut r).unwrap().unwrap();
        assert!(matches!(
            Response::decode(&first),
            Ok(Response::Rejected(Reject::BadRequest(_)))
        ));
        let second = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(Response::decode(&second), Ok(Response::Pong));

        // Bye terminates the loop after one response.
        let mut input = Vec::new();
        write_frame(&mut input, &Request::Shutdown.encode()).unwrap();
        write_frame(&mut input, &Request::Ping.encode()).unwrap();
        let mut out = Vec::new();
        serve_frames(
            &mut std::io::BufReader::new(&input[..]),
            &mut out,
            |_| Response::Bye { draining: 0 },
        );
        let mut r = std::io::BufReader::new(&out[..]);
        assert!(read_frame(&mut r).unwrap().is_some());
        assert!(read_frame(&mut r).unwrap().is_none(), "loop stopped at Bye");
    }
}
