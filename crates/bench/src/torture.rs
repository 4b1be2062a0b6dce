//! Host I/O + network torture harness: service bursts under *joint*
//! disk and connection fault plans, with invariant checking, a greedy
//! shrinker and JSON repro files.
//!
//! Where [`crate::chaos`] tortures the *simulator*, this module
//! tortures the *serving plane* around it, as the [`Torture`]
//! [`Soak`](crate::soak::Soak). One [`TortureCase`] spins up
//! a real [`Server`](crate::service::Server) on a Unix socket, arms a
//! seeded [`IoFaultPlan`] scoped (by path filter) to the case's journal
//! and artifact store, and drives it with per-tenant client threads
//! whose connections carry a seeded
//! [`NetFaultPlan`](crate::service::NetFaultPlan) — mid-frame
//! disconnects, byte-trickled frames, and lost `accepted` acks. Clients
//! behave like disciplined production callers: reconnect on transport
//! death and resubmit with the *same* idempotency key.
//!
//! [`Torture::run`] checks four end-to-end invariants, each its own
//! [`TortureFailure`] category:
//!
//! 1. **No acked job is ever lost** ([`TortureFailure::AckLoss`]) —
//!    every submit the client saw `accepted` resolves through `wait`.
//! 2. **Duplicates dedup** ([`TortureFailure::Dedup`]) — resubmitting
//!    an accepted job's idempotency key answers the original id, never
//!    a second run.
//! 3. **fsync failure never acks** ([`TortureFailure::Durability`]) —
//!    when the journal cannot have been corrupted post-write (no bit
//!    flips in the plan), every acked id must sit in the journal's
//!    verified record set: an ack without a durable record would be
//!    fsyncgate all over again.
//! 4. **The store self-heals** ([`TortureFailure::Scrub`]) — after the
//!    burst, `scrub --repair` followed by a verify-only scrub must
//!    leave a clean store, whatever the fault plan did to it.
//!
//! On failure, the shared [`crate::soak`] driver shrinks the case
//! (fewer tenants, fewer jobs, fault rates zeroed) while the same
//! failure category reproduces, and writes it as a JSON repro that
//! carries `"kind": "torture"`.
//!
//! Case *generation* is deterministic (same soak seed, same cases) and
//! both fault streams are seeded; execution involves real threads, so a
//! replay sees the same fault *rates* and seeds but may interleave
//! differently — like any real-world torture rig, the invariants are
//! what must hold on every interleaving.

use crate::service::scrub::{scrub, ScrubOptions};
use crate::service::{
    Client, JobSpec, Journal, NetFaultPlan, Reject, Request, Response, ServeOptions, Server,
};
use crate::soak::{guarded, Outcome, OutcomeOf, Soak, REPRO_VERSION};
use crate::util::io::{self, IoFaultPlan};
use hq_des::json::Json;
use hq_des::rng::DetRng;
use hq_workloads::apps::AppKind;
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Case specification
// ---------------------------------------------------------------------

/// One self-describing torture case: burst shape plus both fault
/// plans' per-mille rates. Every field round-trips through the JSON
/// repro format exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TortureCase {
    /// Master seed: job seeds and both fault streams derive from it.
    pub seed: u64,
    /// Concurrent client threads, one tenant each (1..=3).
    pub tenants: u32,
    /// Jobs each tenant submits sequentially (1..=5).
    pub jobs_per_tenant: u32,
    /// I/O: per-mille rate of short writes.
    pub short_write_pm: u16,
    /// I/O: per-mille rate of injected-and-retried EINTRs.
    pub eintr_pm: u16,
    /// I/O: per-mille rate of fsync EIO (fsyncgate semantics).
    pub fsync_eio_pm: u16,
    /// I/O: per-mille rate of ENOSPC.
    pub enospc_pm: u16,
    /// I/O: per-mille rate of torn renames.
    pub torn_rename_pm: u16,
    /// I/O: per-mille rate of post-write bit flips.
    pub bitflip_pm: u16,
    /// Net: per-call chance of a mid-frame disconnect.
    pub disconnect_pm: u16,
    /// Net: per-call chance of byte-at-a-time delivery.
    pub trickle_pm: u16,
    /// Net: per-submit chance of a lost `accepted` ack.
    pub lost_ack_pm: u16,
}

impl TortureCase {
    /// True when any client-side network fault can fire.
    pub fn net_faults_possible(&self) -> bool {
        self.disconnect_pm > 0 || self.trickle_pm > 0 || self.lost_ack_pm > 0
    }
}

// ---------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------

/// Draw one random case. Rates are kept modest so most cases make
/// real progress (an fsync EIO latches the journal failed for the rest
/// of the burst — informative, but only if some jobs got through
/// first), and every case carries at least one nonzero fault rate:
/// a fault-free burst is the service test suite's job, not ours.
pub fn gen_case(rng: &mut DetRng) -> TortureCase {
    loop {
        let io_rate = |rng: &mut DetRng, cap: u16| -> u16 {
            if rng.gen_bool(0.35) {
                rng.gen_range(1u32..=cap as u32) as u16
            } else {
                0
            }
        };
        let net_rate = |rng: &mut DetRng, cap: u16| -> u16 {
            if rng.gen_bool(0.4) {
                rng.gen_range(1u32..=cap as u32) as u16
            } else {
                0
            }
        };
        let case = TortureCase {
            seed: rng.gen_range(0u64..u64::MAX),
            tenants: rng.gen_range(1u32..=3),
            jobs_per_tenant: rng.gen_range(1u32..=5),
            short_write_pm: io_rate(rng, 100),
            eintr_pm: io_rate(rng, 200),
            fsync_eio_pm: io_rate(rng, 35),
            enospc_pm: io_rate(rng, 60),
            torn_rename_pm: io_rate(rng, 100),
            bitflip_pm: io_rate(rng, 80),
            disconnect_pm: net_rate(rng, 120),
            trickle_pm: net_rate(rng, 250),
            lost_ack_pm: net_rate(rng, 250),
        };
        let any_fault = case.short_write_pm
            | case.eintr_pm
            | case.fsync_eio_pm
            | case.enospc_pm
            | case.torn_rename_pm
            | case.bitflip_pm
            | case.disconnect_pm
            | case.trickle_pm
            | case.lost_ack_pm;
        if any_fault > 0 {
            return case;
        }
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Failure category: shrinking only accepts candidates that fail the
/// same invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TortureFailure {
    /// An acked job never resolved through `wait`.
    AckLoss,
    /// A duplicate submit (same idempotency key) answered a new id.
    Dedup,
    /// An acked id is missing from a journal that cannot have been
    /// damaged post-write — the server acked before durability.
    Durability,
    /// `scrub --repair` could not return the store to clean.
    Scrub,
    /// The harness or server panicked.
    Panic,
}

impl std::fmt::Display for TortureFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TortureFailure::AckLoss => "ack-loss",
            TortureFailure::Dedup => "dedup",
            TortureFailure::Durability => "durability",
            TortureFailure::Scrub => "scrub",
            TortureFailure::Panic => "panic",
        })
    }
}

/// Tallies from one passing case.
#[derive(Clone, Copy, Debug, Default)]
pub struct TortureStats {
    /// Jobs whose submit was acked (client saw `accepted`).
    pub acked: u64,
    /// Acked jobs that resolved through `wait`.
    pub resolved: u64,
    /// Jobs the burst gave up submitting (journal latched failed,
    /// retry budget exhausted) — allowed, as long as nothing acked is
    /// among them.
    pub unaccepted: u64,
    /// Disk faults the I/O shim injected.
    pub io_faults: u64,
    /// Connection faults the clients injected.
    pub net_faults: u64,
}

impl std::ops::AddAssign for TortureStats {
    fn add_assign(&mut self, s: TortureStats) {
        self.acked += s.acked;
        self.resolved += s.resolved;
        self.unaccepted += s.unaccepted;
        self.io_faults += s.io_faults;
        self.net_faults += s.net_faults;
    }
}

impl std::fmt::Display for TortureStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} acked, {} resolved, {} unaccepted, {} disk fault(s), {} net fault(s) injected",
            self.acked, self.resolved, self.unaccepted, self.io_faults, self.net_faults
        )
    }
}

/// Outcome of one torture case: `Pass` when all four invariants held.
pub type TortureOutcome = OutcomeOf<Torture>;

/// Per-tenant burst results, folded into the case outcome.
#[derive(Default)]
struct TenantResult {
    acked_ids: Vec<u64>,
    resolved: u64,
    unaccepted: u64,
    net_faults: u64,
    violation: Option<(TortureFailure, String)>,
}

/// Distinguishes concurrent cases in one process; the per-case root
/// directory (and thus the fault plan's path filter) must be unique.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

fn job_spec(case: &TortureCase, tenant: u32, j: u32) -> JobSpec {
    JobSpec {
        workload: vec![AppKind::Needle],
        streams: 2,
        // A small seed set so the burst exercises both cold runs and
        // scenario-cache hits.
        seed: (case.seed % 977) ^ (j as u64 % 3),
        tenant: format!("t{tenant}"),
        // Deterministic per-job key: a reconnect-and-resubmit after a
        // lost ack carries the same key, which is the whole point.
        idem: format!("t{tenant}-j{j}"),
        ..JobSpec::default()
    }
}

/// Connect (with retries) and arm the case's net-fault plan. `conn_seq`
/// is mixed into the plan seed: a fresh connection must not replay the
/// dead connection's exact fault rolls, or a mid-frame disconnect on
/// call 1 would repeat forever.
fn connect_client(
    socket: &Path,
    case: &TortureCase,
    tenant: u32,
    conn_seq: &mut u64,
) -> Option<Client> {
    for _ in 0..200 {
        if let Ok(mut c) = Client::connect(socket) {
            let _ = c.set_read_timeout(Some(Duration::from_secs(20)));
            if case.net_faults_possible() {
                c.set_net_faults(NetFaultPlan {
                    seed: case.seed
                        ^ ((tenant as u64) << 48)
                        ^ conn_seq.wrapping_mul(0xA076_1D64_78BD_642F),
                    disconnect_pm: case.disconnect_pm,
                    trickle_pm: case.trickle_pm,
                    lost_ack_pm: case.lost_ack_pm,
                });
            }
            *conn_seq += 1;
            return Some(c);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    None
}

/// The tenant's connected client, reconnecting first when the last one
/// was retired. `None` when the server cannot be reached at all.
fn live<'a>(
    client: &'a mut Option<Client>,
    socket: &Path,
    case: &TortureCase,
    tenant: u32,
    conn_seq: &mut u64,
) -> Option<&'a mut Client> {
    if client.is_none() {
        *client = connect_client(socket, case, tenant, conn_seq);
    }
    client.as_mut()
}

/// Harvest a client's injected-fault count before dropping it.
fn retire(client: &mut Option<Client>, res: &mut TenantResult) {
    if let Some(c) = client.take() {
        res.net_faults += c.net_faults_injected();
    }
}

/// One tenant's burst: sequential resilient submits, a deliberate
/// duplicate probe per acked job, then a wait for resolution.
fn tenant_burst(socket: &Path, case: &TortureCase, tenant: u32) -> TenantResult {
    let mut res = TenantResult::default();
    let mut conn_seq = 0u64;
    let mut client = connect_client(socket, case, tenant, &mut conn_seq);
    for j in 0..case.jobs_per_tenant {
        if res.violation.is_some() {
            break;
        }
        let spec = job_spec(case, tenant, j);
        // Resilient submit: transient rejections back off, transport
        // deaths (injected or real) reconnect and resubmit the same
        // idempotency key.
        let mut acked: Option<u64> = None;
        for _ in 0..24 {
            let Some(c) = live(&mut client, socket, case, tenant, &mut conn_seq) else {
                break;
            };
            match c.call(&Request::Submit(spec.clone())) {
                Ok(Response::Accepted(id)) => {
                    acked = Some(id);
                    break;
                }
                Ok(Response::Rejected(
                    Reject::QueueFull { .. } | Reject::Shed { .. } | Reject::Unavailable(_),
                )) => std::thread::sleep(Duration::from_millis(15)),
                Ok(_) => break,
                Err(_) => retire(&mut client, &mut res),
            }
        }
        let Some(id) = acked else {
            res.unaccepted += 1;
            continue;
        };
        res.acked_ids.push(id);
        // Dedup probe: the key is now mapped server-side for the
        // server's whole lifetime, so an explicit duplicate must
        // answer the original id — acked duplicates with a fresh id
        // would be a double-run.
        for _ in 0..12 {
            let Some(c) = live(&mut client, socket, case, tenant, &mut conn_seq) else {
                break;
            };
            match c.call(&Request::Submit(spec.clone())) {
                Ok(Response::Accepted(id2)) => {
                    if id2 != id {
                        res.violation = Some((
                            TortureFailure::Dedup,
                            format!(
                                "tenant {tenant} job {j}: duplicate submit of key '{}' acked id {id2}, original was {id}",
                                spec.idem
                            ),
                        ));
                    }
                    break;
                }
                Ok(other) => {
                    // Duplicates bypass admission (the idem map is
                    // consulted first), so any rejection here means the
                    // mapping was dropped — also a dedup failure.
                    res.violation = Some((
                        TortureFailure::Dedup,
                        format!(
                            "tenant {tenant} job {j}: duplicate submit of key '{}' answered {other:?} instead of the original id {id}",
                            spec.idem
                        ),
                    ));
                    break;
                }
                Err(_) => retire(&mut client, &mut res),
            }
        }
        // Resolution: an acked job must complete (any terminal state —
        // ok, failed, panicked, deadline — counts; vanishing does not).
        let mut resolved = false;
        for _ in 0..12 {
            let Some(c) = live(&mut client, socket, case, tenant, &mut conn_seq) else {
                break;
            };
            match c.call(&Request::Wait(id)) {
                Ok(Response::Done(_, _)) => {
                    resolved = true;
                    break;
                }
                Ok(other) => {
                    res.violation = Some((
                        TortureFailure::AckLoss,
                        format!("tenant {tenant} job {j}: wait for acked id {id} answered {other:?}"),
                    ));
                    break;
                }
                Err(_) => retire(&mut client, &mut res),
            }
        }
        if resolved {
            res.resolved += 1;
        } else if res.violation.is_none() {
            res.violation = Some((
                TortureFailure::AckLoss,
                format!("tenant {tenant} job {j}: acked id {id} never resolved"),
            ));
        }
    }
    retire(&mut client, &mut res);
    res
}

/// Run one case end to end (see [`Torture::run`] for the panic guard).
fn run_case(case: &TortureCase) -> TortureOutcome {
    let root = std::env::temp_dir().join(format!(
        "hq-torture-{}-{}",
        std::process::id(),
        RUN_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create torture root");

    let mut opts = ServeOptions::new(root.join("hq.sock"));
    opts.journal = root.join("journal").join("service.wal");
    opts.artifact_dir = root.join("service");
    opts.workers = 2;
    opts.queue_depth = 64;
    // Breakers are not under test; a panicked worker run under ENOSPC
    // must not convert later submits into circuit-open rejections.
    opts.breaker_threshold = u32::MAX;
    let socket = opts.socket.clone();
    let journal_path = opts.journal.clone();
    let artifact_dir = opts.artifact_dir.clone();

    let (server, _report) = Server::new(opts).expect("torture server");
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    // Wait for the socket to bind before arming faults.
    let mut probe_seq = 0u64;
    let quiet = TortureCase {
        disconnect_pm: 0,
        trickle_pm: 0,
        lost_ack_pm: 0,
        ..case.clone()
    };
    drop(connect_client(&socket, &quiet, u32::MAX, &mut probe_seq).expect("server never bound"));

    // Disk faults scoped to this case's store: the path filter keeps
    // the process-global shim away from the shared scenario cache and
    // any sibling test's files.
    let guard = io::install(IoFaultPlan {
        seed: case.seed ^ 0xD15C_FA17,
        short_write_pm: case.short_write_pm,
        eintr_pm: case.eintr_pm,
        fsync_eio_pm: case.fsync_eio_pm,
        enospc_pm: case.enospc_pm,
        torn_rename_pm: case.torn_rename_pm,
        bitflip_pm: case.bitflip_pm,
        path_filter: root.to_string_lossy().into_owned(),
    });

    let handles: Vec<_> = (0..case.tenants)
        .map(|t| {
            let socket = socket.clone();
            let case = case.clone();
            std::thread::spawn(move || tenant_burst(&socket, &case, t))
        })
        .collect();
    let results: Vec<TenantResult> = handles
        .into_iter()
        .map(|h| h.join().expect("tenant thread"))
        .collect();

    let io_stats = io::fault_stats();
    let io_faults = io_stats.short_writes
        + io_stats.fsync_eio
        + io_stats.enospc
        + io_stats.torn_renames
        + io_stats.bitflips;
    drop(guard);

    // Faults disarmed: shut the server down. A journal latched failed
    // by an injected fsync EIO may refuse the seal — that is the
    // crash-equivalent state the scrub phase below must cope with.
    if let Ok(mut c) = Client::connect(&socket) {
        let _ = c.set_read_timeout(Some(Duration::from_secs(20)));
        let _ = c.call(&Request::Shutdown);
    }
    let _ = runner.join();

    let mut stats = TortureStats {
        io_faults,
        ..TortureStats::default()
    };
    let mut acked_ids: Vec<u64> = Vec::new();
    for r in &results {
        stats.acked += r.acked_ids.len() as u64;
        stats.resolved += r.resolved;
        stats.unaccepted += r.unaccepted;
        stats.net_faults += r.net_faults;
        acked_ids.extend(&r.acked_ids);
        if let Some((kind, detail)) = &r.violation {
            let _ = std::fs::remove_dir_all(&root);
            return Outcome::Fail(*kind, detail.clone());
        }
    }

    // Durability: with bit flips in the plan the journal may have been
    // legitimately damaged *after* the ack (that is scrub's problem);
    // without them, every acked id must be in the verified record set
    // and the journal must parse clean — an ack without a durable
    // record means the server answered before fsync.
    if case.bitflip_pm == 0 {
        match Journal::verify(&journal_path) {
            Ok(v) => {
                if !v.header_ok || !v.bad_lines.is_empty() {
                    let _ = std::fs::remove_dir_all(&root);
                    return Outcome::Fail(
                        TortureFailure::Durability,
                        format!(
                            "no bit flips were planned, yet the journal has unparseable records (header_ok={}, bad lines {:?})",
                            v.header_ok, v.bad_lines
                        ),
                    );
                }
                let durable: HashSet<u64> = v.accepted.iter().map(|(id, _)| *id).collect();
                if let Some(id) = acked_ids.iter().find(|id| !durable.contains(id)) {
                    let _ = std::fs::remove_dir_all(&root);
                    return Outcome::Fail(
                        TortureFailure::Durability,
                        format!("id {id} was acked but has no journal record"),
                    );
                }
            }
            Err(e) => {
                let _ = std::fs::remove_dir_all(&root);
                return Outcome::Fail(
                    TortureFailure::Durability,
                    format!("journal unverifiable: {e}"),
                );
            }
        }
    }

    // Self-healing: repair, then verify the repair.
    let repair = ScrubOptions {
        journal: journal_path.clone(),
        artifact_dir: artifact_dir.clone(),
        cache_dir: root.join("cache"),
        repair: true,
    };
    match scrub(&repair) {
        Ok(r) if r.clean() => {}
        Ok(r) => {
            let _ = std::fs::remove_dir_all(&root);
            return Outcome::Fail(
                TortureFailure::Scrub,
                format!("scrub --repair left damage:\n{}", r.render()),
            );
        }
        Err(e) => {
            let _ = std::fs::remove_dir_all(&root);
            return Outcome::Fail(TortureFailure::Scrub, format!("scrub --repair: {e}"));
        }
    }
    let verify = ScrubOptions {
        journal: journal_path,
        artifact_dir,
        cache_dir: root.join("cache"),
        repair: false,
    };
    match scrub(&verify) {
        Ok(r) if r.findings.is_empty() => {}
        Ok(r) => {
            let _ = std::fs::remove_dir_all(&root);
            return Outcome::Fail(
                TortureFailure::Scrub,
                format!("store still dirty after repair:\n{}", r.render()),
            );
        }
        Err(e) => {
            let _ = std::fs::remove_dir_all(&root);
            return Outcome::Fail(TortureFailure::Scrub, format!("verify scrub: {e}"));
        }
    }

    let _ = std::fs::remove_dir_all(&root);
    Outcome::Pass(stats)
}

// ---------------------------------------------------------------------
// JSON repro layout
// ---------------------------------------------------------------------

/// Serialize a case into a flat JSON repro.
pub fn case_to_json(case: &TortureCase) -> String {
    Json::obj([
        ("version", REPRO_VERSION.into()),
        ("kind", "torture".into()),
        ("seed", case.seed.into()),
        ("tenants", case.tenants.into()),
        ("jobs_per_tenant", case.jobs_per_tenant.into()),
        ("short_write_pm", case.short_write_pm.into()),
        ("eintr_pm", case.eintr_pm.into()),
        ("fsync_eio_pm", case.fsync_eio_pm.into()),
        ("enospc_pm", case.enospc_pm.into()),
        ("torn_rename_pm", case.torn_rename_pm.into()),
        ("bitflip_pm", case.bitflip_pm.into()),
        ("disconnect_pm", case.disconnect_pm.into()),
        ("trickle_pm", case.trickle_pm.into()),
        ("lost_ack_pm", case.lost_ack_pm.into()),
    ])
    .pretty()
}

// ---------------------------------------------------------------------
// The soak
// ---------------------------------------------------------------------

/// The torture soak over the serving plane (see the module docs).
pub struct Torture;

impl Soak for Torture {
    type Case = TortureCase;
    type Failure = TortureFailure;
    type Stats = TortureStats;
    const KIND: &'static str = "torture";
    /// Lower than the chaos cap: every probe stands up a real server.
    const SHRINK_ROUNDS: usize = 40;
    const PANIC: TortureFailure = TortureFailure::Panic;

    fn gen(rng: &mut DetRng) -> TortureCase {
        gen_case(rng)
    }

    /// Run one case end to end; harness panics are caught and classified.
    fn run(case: &TortureCase) -> TortureOutcome {
        guarded::<Torture>(|| run_case(case))
    }

    /// Fewer tenants, fewer jobs, then each nonzero fault rate zeroed.
    fn candidates(case: &TortureCase) -> Vec<TortureCase> {
        let mut out = Vec::new();
        if case.tenants > 1 {
            out.push(TortureCase {
                tenants: case.tenants - 1,
                ..case.clone()
            });
        }
        if case.jobs_per_tenant > 1 {
            out.push(TortureCase {
                jobs_per_tenant: case.jobs_per_tenant / 2,
                ..case.clone()
            });
        }
        let rates: [fn(&mut TortureCase) -> &mut u16; 9] = [
            |c| &mut c.short_write_pm,
            |c| &mut c.eintr_pm,
            |c| &mut c.fsync_eio_pm,
            |c| &mut c.enospc_pm,
            |c| &mut c.torn_rename_pm,
            |c| &mut c.bitflip_pm,
            |c| &mut c.disconnect_pm,
            |c| &mut c.trickle_pm,
            |c| &mut c.lost_ack_pm,
        ];
        for f in rates {
            let mut s = case.clone();
            if *f(&mut s) > 0 {
                *f(&mut s) = 0;
                out.push(s);
            }
        }
        out
    }

    fn to_json(case: &TortureCase) -> String {
        case_to_json(case)
    }

    fn from_json(root: &Json) -> Result<TortureCase, String> {
        Ok(TortureCase {
            seed: root.num("seed")?,
            tenants: root.num("tenants")?.clamp(1, 64) as u32,
            jobs_per_tenant: root.num("jobs_per_tenant")?.clamp(1, 1024) as u32,
            short_write_pm: root.int("short_write_pm")?,
            eintr_pm: root.int("eintr_pm")?,
            fsync_eio_pm: root.int("fsync_eio_pm")?,
            enospc_pm: root.int("enospc_pm")?,
            torn_rename_pm: root.int("torn_rename_pm")?,
            bitflip_pm: root.int("bitflip_pm")?,
            disconnect_pm: root.int("disconnect_pm")?,
            trickle_pm: root.int("trickle_pm")?,
            lost_ack_pm: root.int("lost_ack_pm")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soak::parse_repro;

    #[test]
    fn generation_is_deterministic_and_round_trips() {
        let a: Vec<TortureCase> = {
            let mut rng = DetRng::seed_from_u64(11);
            (0..20).map(|_| gen_case(&mut rng)).collect()
        };
        let b: Vec<TortureCase> = {
            let mut rng = DetRng::seed_from_u64(11);
            (0..20).map(|_| gen_case(&mut rng)).collect()
        };
        assert_eq!(a, b);
        for case in &a {
            let back = parse_repro::<Torture>(&case_to_json(case)).expect("parse back");
            assert_eq!(*case, back, "JSON round-trip changed the case");
        }
    }

    #[test]
    fn parser_rejects_garbage_and_chaos_repros() {
        assert!(parse_repro::<Torture>("").is_err());
        assert!(parse_repro::<Torture>("{}").is_err());
        assert!(parse_repro::<Torture>("{\"version\": 1, \"kind\": \"chaos\"}").is_err());
        // A chaos repro (no "kind" field) must not parse as torture.
        let chaos = crate::chaos::case_to_json(&crate::chaos::gen_case(
            &mut DetRng::seed_from_u64(3),
        ));
        assert!(parse_repro::<Torture>(&chaos).is_err());
    }

    #[test]
    fn candidates_strictly_simplify() {
        let mut rng = DetRng::seed_from_u64(5);
        let case = gen_case(&mut rng);
        for cand in Torture::candidates(&case) {
            assert_ne!(cand, case);
            let jobs = |c: &TortureCase| c.tenants * c.jobs_per_tenant;
            assert!(jobs(&cand) <= jobs(&case));
        }
        // A fully minimal case has no candidates left.
        let minimal = TortureCase {
            seed: 1,
            tenants: 1,
            jobs_per_tenant: 1,
            short_write_pm: 0,
            eintr_pm: 0,
            fsync_eio_pm: 0,
            enospc_pm: 0,
            torn_rename_pm: 0,
            bitflip_pm: 0,
            disconnect_pm: 0,
            trickle_pm: 0,
            lost_ack_pm: 0,
        };
        assert!(Torture::candidates(&minimal).is_empty());
    }

    /// A fault-free burst passes with every job acked and resolved —
    /// the harness itself must not produce false positives.
    #[test]
    fn fault_free_case_passes_with_full_resolution() {
        let case = TortureCase {
            seed: 42,
            tenants: 2,
            jobs_per_tenant: 2,
            short_write_pm: 0,
            eintr_pm: 0,
            fsync_eio_pm: 0,
            enospc_pm: 0,
            torn_rename_pm: 0,
            bitflip_pm: 0,
            disconnect_pm: 0,
            trickle_pm: 0,
            lost_ack_pm: 0,
        };
        match Torture::run(&case) {
            Outcome::Pass(s) => {
                assert_eq!(s.acked, 4, "{s:?}");
                assert_eq!(s.resolved, 4, "{s:?}");
                assert_eq!(s.unaccepted, 0, "{s:?}");
            }
            Outcome::Fail(kind, detail) => panic!("clean case failed {kind}: {detail}"),
        }
    }

    /// Heavy lost-ack and disconnect rates: every resubmit rides the
    /// same idempotency key, so the invariants (dedup included) must
    /// hold and at least some jobs make it through.
    #[test]
    fn network_torture_dedups_and_resolves() {
        let case = TortureCase {
            seed: 7,
            tenants: 2,
            jobs_per_tenant: 3,
            short_write_pm: 0,
            eintr_pm: 0,
            fsync_eio_pm: 0,
            enospc_pm: 0,
            torn_rename_pm: 0,
            bitflip_pm: 0,
            disconnect_pm: 120,
            trickle_pm: 200,
            lost_ack_pm: 350,
        };
        match Torture::run(&case) {
            Outcome::Pass(s) => {
                assert!(s.acked > 0, "nothing got through: {s:?}");
                assert_eq!(s.acked, s.resolved, "{s:?}");
            }
            Outcome::Fail(kind, detail) => panic!("net torture failed {kind}: {detail}"),
        }
    }

    /// Joint disk + net fault plan: the full gauntlet, including the
    /// post-burst `scrub --repair` → verify-clean cycle.
    #[test]
    fn joint_fault_case_holds_all_invariants() {
        let case = TortureCase {
            seed: 1234,
            tenants: 2,
            jobs_per_tenant: 3,
            short_write_pm: 60,
            eintr_pm: 150,
            fsync_eio_pm: 20,
            enospc_pm: 40,
            torn_rename_pm: 60,
            bitflip_pm: 50,
            disconnect_pm: 80,
            trickle_pm: 120,
            lost_ack_pm: 150,
        };
        let outcome = Torture::run(&case);
        assert!(outcome.passed(), "{outcome:?}");
    }
}
