//! End-to-end tests for the resilient scenario service: journal crash
//! recovery (including a truncation sweep over every byte of the final
//! record), queue backpressure, circuit breaking, deadline
//! cancellation, panic isolation and graceful shutdown over a real
//! Unix-domain socket.

use hq_bench::scenario::{self, MEMO_BUDGET};
use hq_bench::service::protocol::{read_frame, write_frame};
use hq_bench::service::{
    config_for, run_job_direct, Client, JobDone, JobSpec, Journal, Reject, Request, Response,
    ServeOptions, Server,
};
use hq_workloads::apps::AppKind;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Tests mutate the process-global `HQ_RESULTS` (the scenario cache
/// root); each test holds this for its whole body.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct TestDirs {
    root: PathBuf,
}

impl TestDirs {
    fn new(name: &str) -> TestDirs {
        let root = std::env::temp_dir().join(format!("hq-service-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create test dir");
        std::env::set_var("HQ_RESULTS", &root);
        TestDirs { root }
    }

    fn opts(&self) -> ServeOptions {
        let mut opts = ServeOptions::new(self.root.join("hq.sock"));
        opts.journal = self.root.join("journal").join("service.wal");
        opts.artifact_dir = self.root.join("service");
        opts
    }
}

impl Drop for TestDirs {
    fn drop(&mut self) {
        std::env::remove_var("HQ_RESULTS");
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn spec(seed: u64) -> JobSpec {
    JobSpec {
        seed,
        ..JobSpec::default()
    }
}

/// Satellite: append N jobs, truncate the journal at every byte offset
/// of the final record, replay, and assert (a) no panic, (b) completed
/// jobs are not re-run, (c) unfinished jobs re-execute to
/// byte-identical artifacts.
#[test]
fn journal_truncation_sweep_recovers_at_every_offset() {
    let _env = env_lock();
    let dirs = TestDirs::new("truncation-sweep");
    let opts = dirs.opts();

    // Journal three accepted jobs; job 1 completed, jobs 2 and 3 not.
    {
        let (mut j, _) = Journal::open(&opts.journal).expect("fresh journal");
        j.accept(1, &spec(1)).unwrap();
        j.done(1, "ok", None).unwrap();
        j.accept(2, &spec(2)).unwrap();
        j.accept(3, &spec(3)).unwrap();
    }
    let full = std::fs::read(&opts.journal).expect("journal bytes");
    // The final record is job 3's accept line.
    let last_start = full[..full.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|i| i + 1)
        .expect("final record start");

    let direct2 = run_job_direct(&spec(2)).expect("direct job 2");
    let direct3 = run_job_direct(&spec(3)).expect("direct job 3");

    for cut in last_start..=full.len() {
        std::fs::write(&opts.journal, &full[..cut]).unwrap();
        let _ = std::fs::remove_dir_all(&opts.artifact_dir);
        let (_, report) = Server::new(opts.clone()).expect("recovery must not fail");

        let replayed: Vec<u64> = report.replayed.iter().map(|(id, _)| *id).collect();
        assert!(
            !replayed.contains(&1),
            "cut {cut}: completed job 1 must not re-run"
        );
        assert!(
            replayed.contains(&2),
            "cut {cut}: job 2's record is intact and must replay"
        );
        let torn = cut < full.len();
        assert_eq!(
            replayed.contains(&3),
            !torn,
            "cut {cut}: job 3 replays iff its record survived whole"
        );
        let expect_torn = if torn { (cut - last_start) as u64 } else { 0 };
        assert_eq!(report.torn_bytes, expect_torn, "cut {cut}");

        assert!(
            !opts.artifact_dir.join("job-1.out").exists(),
            "cut {cut}: job 1 must produce no artifact"
        );
        let got2 = std::fs::read_to_string(opts.artifact_dir.join("job-2.out"))
            .expect("job 2 artifact");
        assert_eq!(got2, direct2, "cut {cut}: job 2 artifact not byte-identical");
        if !torn {
            let got3 = std::fs::read_to_string(opts.artifact_dir.join("job-3.out"))
                .expect("job 3 artifact");
            assert_eq!(got3, direct3, "cut {cut}: job 3 artifact not byte-identical");
        }

        // Recovery marked the replayed jobs done: reopening finds
        // nothing left to do.
        let (_, rec) = Journal::open(&opts.journal).expect("reopen");
        assert!(
            rec.unfinished.is_empty(),
            "cut {cut}: replay must leave no unfinished jobs"
        );
    }
}

/// A crash *during* replay (simulated by recovering, then restoring an
/// older journal plus the new done-markers) never loses or duplicates
/// work: done markers appended by replay are honoured on the next pass.
#[test]
fn replay_is_resumable_and_marks_jobs_done() {
    let _env = env_lock();
    let dirs = TestDirs::new("replay-marks");
    let opts = dirs.opts();
    {
        let (mut j, _) = Journal::open(&opts.journal).expect("fresh journal");
        j.accept(1, &spec(21)).unwrap();
        j.accept(2, &spec(22)).unwrap();
    }
    let (_, first) = Server::new(opts.clone()).expect("first recovery");
    assert_eq!(first.replayed.len(), 2);
    // Second recovery of the same journal: everything already done.
    let (_, second) = Server::new(opts.clone()).expect("second recovery");
    assert!(second.replayed.is_empty(), "{second:?}");
    assert_eq!(second.already_done, 2);
    // Jobs that carried a deadline are conservatively expired on
    // replay, not executed.
    {
        let (mut j, _) = Journal::open(&opts.journal).expect("journal");
        let deadline_spec = JobSpec {
            deadline_ms: Some(60_000),
            ..spec(23)
        };
        j.accept(7, &deadline_spec).unwrap();
    }
    let (_, third) = Server::new(opts.clone()).expect("third recovery");
    assert_eq!(third.replayed, vec![(7, "deadline".to_string())]);
    assert!(!opts.artifact_dir.join("job-7.out").exists());
}

/// Every scenario-cache entry under `root`, checked for header, CRC
/// and that its preimage hashes to the key its file name claims.
fn verified_cache_entries(root: &Path) -> usize {
    let dir = root.join(".scenario-cache");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return 0;
    };
    entries
        .map(|e| {
            let path = e.expect("cache dir entry").path();
            let name = path.file_name().unwrap().to_str().unwrap();
            let key = u64::from_str_radix(name.split('.').next().unwrap(), 16)
                .unwrap_or_else(|_| panic!("stray file {name} in the cache dir"));
            let text = std::fs::read_to_string(&path).expect("read cache entry");
            scenario::verify_cache_entry(&text, Some(key))
                .unwrap_or_else(|e| panic!("cache entry {name}: {e}"));
        })
        .count()
}

/// A recovery replay writes its jobs' cache entries before the server
/// is handed out, as a direct run does.
#[test]
fn recovery_replay_writes_its_cache_entries() {
    let _env = env_lock();
    let dirs = TestDirs::new("replay-entries");
    let opts = dirs.opts();
    {
        let (mut j, _) = Journal::open(&opts.journal).expect("fresh journal");
        j.accept(1, &spec(41)).unwrap();
        j.accept(2, &spec(42)).unwrap();
    }
    scenario::reset_cache();
    let (_, report) = Server::new(opts).expect("recovery");
    assert_eq!(report.replayed.len(), 2);
    assert_eq!(verified_cache_entries(&dirs.root), 2);
}

/// Workers write a job's cache entry after answering it. The outcome is
/// in the memo before the answer, so the brownout warmth probe reads
/// the scenario warm the moment `Done` arrives; and shutdown joins the
/// workers, so after the drain every served job's entry is on disk and
/// decodes (a fresh process memo then serves every job as a disk hit,
/// byte-identical).
#[test]
fn served_entries_are_warm_at_once_and_on_disk_after_the_drain() {
    let _env = env_lock();
    let dirs = TestDirs::new("deferred-entries");
    let mut opts = dirs.opts();
    opts.workers = 2;
    let socket = opts.socket.clone();
    scenario::reset_cache();
    let (server, _) = Server::new(opts).expect("server");
    let runner = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let specs: Vec<JobSpec> = (0..6)
        .map(|i| JobSpec {
            workload: vec![AppKind::Needle, AppKind::Knearest],
            seed: 500 + i,
            ..JobSpec::default()
        })
        .collect();
    let mut served = Vec::new();
    for s in &specs {
        let id = match server.handle(Request::Submit(s.clone())) {
            Response::Accepted(id) => id,
            other => panic!("expected accepted, got {other:?}"),
        };
        match server.handle(Request::Wait(id)) {
            Response::Done(_, JobDone::Ok { artifact }) => {
                assert!(
                    scenario::scenario_is_warm(&config_for(s), &s.workload),
                    "job {id} answered but its scenario is not warm"
                );
                served.push(std::fs::read_to_string(artifact).expect("artifact"));
            }
            other => panic!("job {id} failed: {other:?}"),
        }
    }
    match connect_with_retry(&socket).call(&Request::Shutdown).expect("shutdown") {
        Response::Bye { .. } => {}
        other => panic!("expected bye, got {other:?}"),
    }
    runner.join().expect("runner join").expect("run ok");
    assert_eq!(verified_cache_entries(&dirs.root), specs.len());
    scenario::reset_cache();
    for (s, artifact) in specs.iter().zip(&served) {
        assert_eq!(&run_job_direct(s).unwrap(), artifact);
    }
    assert_eq!(
        scenario::cache_stats(),
        (specs.len() as u64, 0),
        "every job must decode from its disk entry"
    );
}

/// Backpressure and shutdown at the state-machine level (no workers
/// running, so the queue cannot drain underneath the test).
#[test]
fn bounded_queue_rejects_and_shutdown_drains() {
    let _env = env_lock();
    let dirs = TestDirs::new("backpressure");
    let mut opts = dirs.opts();
    opts.queue_depth = 2;
    let (server, _) = Server::new(opts).expect("server");

    assert_eq!(server.handle(Request::Submit(spec(1))), Response::Accepted(1));
    assert_eq!(server.handle(Request::Submit(spec(2))), Response::Accepted(2));
    assert_eq!(
        server.handle(Request::Submit(spec(3))),
        Response::Rejected(Reject::QueueFull { depth: 2 }),
        "third submit must hit the bound"
    );
    match server.handle(Request::Status) {
        Response::Status(s) => {
            assert_eq!(s.queued, 2);
            assert_eq!(s.rejected, 1);
        }
        other => panic!("expected status, got {other:?}"),
    }
    // Waiting for an id that was never accepted is a structured error.
    assert!(matches!(
        server.handle(Request::Wait(99)),
        Response::Rejected(Reject::BadRequest(_))
    ));
    // Shutdown reports the backlog and rejects all further submits.
    assert_eq!(server.handle(Request::Shutdown), Response::Bye { draining: 2 });
    assert_eq!(
        server.handle(Request::Submit(spec(4))),
        Response::Rejected(Reject::ShuttingDown)
    );
}

fn connect_with_retry(socket: &Path) -> Client {
    for _ in 0..200 {
        if let Ok(c) = Client::connect(socket) {
            return c;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("server never bound {}", socket.display());
}

/// Full service lifecycle over a real socket: healthy jobs, deadline
/// cancellation, panic isolation, the per-class circuit breaker, and a
/// graceful shutdown that seals the journal.
#[test]
fn service_over_socket_survives_panics_deadlines_and_breaker_trips() {
    let _env = env_lock();
    let dirs = TestDirs::new("socket-e2e");
    let mut opts = dirs.opts();
    opts.workers = 1;
    opts.breaker_threshold = 1;
    opts.breaker_cooldown_ms = 100;
    let socket = opts.socket.clone();
    let journal_path = opts.journal.clone();
    let artifact_dir = opts.artifact_dir.clone();

    let (server, report) = Server::new(opts).expect("server");
    assert!(report.replayed.is_empty());
    let runner = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let mut client = connect_with_retry(&socket);

    // Healthy job: served artifact is byte-identical to a direct run.
    let healthy = spec(31);
    match client.submit_and_wait(healthy.clone()).expect("submit") {
        Response::Done(id, JobDone::Ok { artifact }) => {
            let served = std::fs::read_to_string(&artifact).expect("artifact file");
            assert_eq!(served, run_job_direct(&healthy).unwrap());
            assert!(artifact.ends_with(&format!("job-{id}.out")));
        }
        other => panic!("expected ok, got {other:?}"),
    }

    // Deadline 0 expires before the worker can start it.
    let doomed = JobSpec {
        deadline_ms: Some(0),
        ..spec(32)
    };
    match client.submit_and_wait(doomed).expect("submit") {
        Response::Done(_, JobDone::DeadlineExceeded) => {}
        other => panic!("expected deadline-exceeded, got {other:?}"),
    }

    // A panicking job answers `panic` — and opens its class's breaker
    // (threshold 1) without taking the worker down.
    let bomb = JobSpec {
        scripted_panic: true,
        class: Some("bombs".to_string()),
        ..spec(33)
    };
    match client.submit_and_wait(bomb.clone()).expect("submit") {
        Response::Done(_, JobDone::Panicked(msg)) => {
            assert!(msg.contains("scripted panic"), "{msg}")
        }
        other => panic!("expected panicked, got {other:?}"),
    }
    match client.submit_and_wait(bomb.clone()).expect("submit") {
        Response::Rejected(Reject::CircuitOpen { class, retry_ms }) => {
            assert_eq!(class, "default/bombs", "breaker keys are tenant-scoped");
            assert!(retry_ms <= 100);
        }
        other => panic!("expected circuit-open, got {other:?}"),
    }
    match client.call(&Request::Status).expect("status") {
        Response::Status(s) => assert_eq!(s.open_circuits, vec!["default/bombs".to_string()]),
        other => panic!("expected status, got {other:?}"),
    }
    // Other classes keep serving while the breaker is open.
    match client.submit_and_wait(spec(34)).expect("submit") {
        Response::Done(_, JobDone::Ok { .. }) => {}
        other => panic!("expected ok, got {other:?}"),
    }
    // After the cooldown a healthy probe of the same class closes it.
    std::thread::sleep(Duration::from_millis(150));
    let probe = JobSpec {
        class: Some("bombs".to_string()),
        ..spec(35)
    };
    match client.submit_and_wait(probe.clone()).expect("probe") {
        Response::Done(_, JobDone::Ok { .. }) => {}
        other => panic!("expected probe success, got {other:?}"),
    }
    match client.submit_and_wait(probe).expect("post-probe") {
        Response::Done(_, JobDone::Ok { .. }) => {}
        other => panic!("breaker should be closed, got {other:?}"),
    }

    // A malformed payload gets a structured rejection, not a hangup.
    let mut raw = std::os::unix::net::UnixStream::connect(&socket).expect("raw connect");
    write_frame(&mut raw, "not even close").unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let payload = read_frame(&mut reader).unwrap().expect("response");
    assert!(
        matches!(
            Response::decode(&payload),
            Ok(Response::Rejected(Reject::BadRequest(_)))
        ),
        "{payload}"
    );

    // Graceful shutdown drains and seals.
    match client.call(&Request::Shutdown).expect("shutdown") {
        Response::Bye { .. } => {}
        other => panic!("expected bye, got {other:?}"),
    }
    runner.join().expect("runner join").expect("run ok");
    assert!(!socket.exists(), "socket removed on shutdown");
    let (_, rec) = Journal::open(&journal_path).expect("reopen journal");
    assert!(rec.was_sealed, "journal sealed by graceful shutdown");
    assert!(rec.unfinished.is_empty());
    // Artifacts only for the jobs that completed in time.
    assert!(artifact_dir.join("job-1.out").exists());
    assert!(!artifact_dir.join("job-2.out").exists(), "deadline job");
    assert!(!artifact_dir.join("job-3.out").exists(), "panicked job");
}

/// Tentpole chaos test: tenant `flood` hammers the server far past its
/// quota while tenant `paced` submits sequentially. Deficit round-robin
/// scheduling and per-tenant quotas must keep `paced` flowing: never
/// shed (it stays under quota) and with p99 bounded by 3x its solo
/// baseline (floored at 100 ms to absorb scheduler noise on busy CI
/// boxes — without DRR, `paced` would wait behind the flood's entire
/// continuously-refilled lane and blow far past the bound).
#[test]
fn flooding_tenant_cannot_starve_a_paced_tenant() {
    let _env = env_lock();
    let dirs = TestDirs::new("starvation");
    let mut opts = dirs.opts();
    opts.workers = 2;
    opts.queue_depth = 64;
    opts.tenant_max_queued = 4;
    let socket = opts.socket.clone();
    let (server, _) = Server::new(opts).expect("server");
    let runner = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let mut client = connect_with_retry(&socket);

    let paced_spec = |seed: u64| JobSpec {
        tenant: "paced".to_string(),
        seed,
        ..JobSpec::default()
    };
    // Worst-of-6 sequential latency — p99 for a sample this size.
    let paced_round = |client: &mut Client, base: u64| -> Duration {
        let mut worst = Duration::ZERO;
        for i in 0..6 {
            let t0 = Instant::now();
            match client.submit_and_wait(paced_spec(base + i)).expect("paced submit") {
                Response::Done(_, JobDone::Ok { .. }) => {}
                other => panic!("paced tenant must never be rejected under quota: {other:?}"),
            }
            worst = worst.max(t0.elapsed());
        }
        worst
    };

    // Solo baseline: the paced tenant alone on the server.
    let solo_p99 = paced_round(&mut client, 1_000);

    // Flood: four threads hammer tenant `flood` with cold, distinct
    // jobs, abandoning whatever the server sheds, until told to stop.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flooders: Vec<_> = (0..4u64)
        .map(|t| {
            let stop = std::sync::Arc::clone(&stop);
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut c = connect_with_retry(&socket);
                let mut seed = 50_000 + 10_000 * t;
                let mut sheds = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    seed += 1;
                    let spec = JobSpec {
                        tenant: "flood".to_string(),
                        seed,
                        ..JobSpec::default()
                    };
                    match c.call(&Request::Submit(spec)) {
                        Ok(Response::Rejected(Reject::Shed {
                            reason,
                            retry_after_ms,
                        })) => {
                            assert_eq!(reason, "tenant-queue-full");
                            assert!(retry_after_ms >= 1, "hint must be usable");
                            sheds += 1;
                        }
                        Ok(Response::Accepted(_))
                        | Ok(Response::Rejected(Reject::QueueFull { .. })) => {}
                        Ok(other) => panic!("unexpected flood response: {other:?}"),
                        Err(e) => panic!("flood transport error: {e}"),
                    }
                }
                sheds
            })
        })
        .collect();

    // Give the flood a moment to saturate its lane, then run the paced
    // tenant through the contended server.
    std::thread::sleep(Duration::from_millis(20));
    let contended_p99 = paced_round(&mut client, 2_000);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let shed_total: u64 = flooders.into_iter().map(|h| h.join().expect("flooder")).sum();
    assert!(shed_total > 0, "the flood never hit its quota");

    let bound = solo_p99.max(Duration::from_millis(100)) * 3;
    assert!(
        contended_p99 <= bound,
        "paced tenant degraded beyond 3x solo: solo {solo_p99:?}, contended {contended_p99:?}"
    );

    // Per-tenant accounting: the flood's sheds are attributed to it;
    // the paced tenant shows its served jobs and zero sheds.
    match client.call(&Request::Status).expect("status") {
        Response::Status(s) => {
            assert!(s.shed >= shed_total, "global shed counter lost sheds");
            let flood = s
                .tenants
                .iter()
                .find(|t| t.tenant == "flood")
                .expect("flood stats");
            assert!(flood.shed >= shed_total);
            let paced = s
                .tenants
                .iter()
                .find(|t| t.tenant == "paced")
                .expect("paced stats");
            assert_eq!(paced.shed, 0, "paced tenant must never be shed under quota");
            assert_eq!(paced.served, 12);
        }
        other => panic!("expected status, got {other:?}"),
    }

    match client.call(&Request::Shutdown).expect("shutdown") {
        Response::Bye { .. } => {}
        other => panic!("expected bye, got {other:?}"),
    }
    runner.join().expect("runner join").expect("run ok");
}

/// Satellite: the tenant-scoped breaker's half-open state admits
/// exactly one probe. While that probe is still queued behind a busy
/// worker, a second submit for the same tenant/class must bounce with
/// circuit-open rather than racing a second probe through.
#[test]
fn half_open_breaker_admits_one_probe_under_concurrent_submits() {
    let _env = env_lock();
    let dirs = TestDirs::new("half-open-race");
    let mut opts = dirs.opts();
    opts.workers = 1;
    opts.breaker_threshold = 1;
    opts.breaker_cooldown_ms = 100;
    let socket = opts.socket.clone();
    let (server, _) = Server::new(opts).expect("server");
    let runner = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let mut client = connect_with_retry(&socket);

    let racy = |seed: u64, panic: bool| JobSpec {
        tenant: "acme".to_string(),
        class: Some("race".to_string()),
        scripted_panic: panic,
        seed,
        ..JobSpec::default()
    };
    // One scripted panic opens acme/race (threshold 1).
    match client.submit_and_wait(racy(41, true)).expect("bomb") {
        Response::Done(_, JobDone::Panicked(_)) => {}
        other => panic!("expected panic, got {other:?}"),
    }
    match client.submit_and_wait(racy(42, false)).expect("while open") {
        Response::Rejected(Reject::CircuitOpen { class, .. }) => assert_eq!(class, "acme/race"),
        other => panic!("expected circuit-open, got {other:?}"),
    }
    std::thread::sleep(Duration::from_millis(150));
    // Pin the worker with a fat filler job so the probe cannot
    // complete before the concurrent submit arrives.
    let fill = JobSpec {
        tenant: "acme".to_string(),
        workload: vec![AppKind::Needle; 8],
        seed: 43,
        ..JobSpec::default()
    };
    match client.call(&Request::Submit(fill)).expect("fill") {
        Response::Accepted(_) => {}
        other => panic!("expected filler accepted, got {other:?}"),
    }
    // First same-class submit after the cooldown is the probe...
    let probe_id = match client.call(&Request::Submit(racy(44, false))).expect("probe") {
        Response::Accepted(id) => id,
        other => panic!("expected the probe to be admitted, got {other:?}"),
    };
    // ...and a concurrent second submit must NOT become a second probe.
    match client.call(&Request::Submit(racy(45, false))).expect("second") {
        Response::Rejected(Reject::CircuitOpen { class, retry_ms }) => {
            assert_eq!(class, "acme/race");
            assert!(retry_ms <= 100);
        }
        other => panic!("expected circuit-open while the probe is in flight, got {other:?}"),
    }
    // The probe completing closes the breaker for everyone.
    match client.call(&Request::Wait(probe_id)).expect("wait probe") {
        Response::Done(_, JobDone::Ok { .. }) => {}
        other => panic!("probe should succeed, got {other:?}"),
    }
    match client.submit_and_wait(racy(46, false)).expect("after close") {
        Response::Done(_, JobDone::Ok { .. }) => {}
        other => panic!("breaker should be closed after the probe, got {other:?}"),
    }
    match client.call(&Request::Shutdown).expect("shutdown") {
        Response::Bye { .. } => {}
        other => panic!("expected bye, got {other:?}"),
    }
    runner.join().expect("runner join").expect("run ok");
}

/// Deadline-aware admission: once the estimator has service-time
/// evidence for a class, an impossible deadline is shed at admission
/// with a retry-after hint; without evidence the job is admitted and
/// expires after acceptance (the pre-tenant behavior, which keeps
/// first-contact deadline jobs out of the forecaster's blast radius).
#[test]
fn deadline_forecast_sheds_with_evidence_and_admits_without() {
    let _env = env_lock();
    let dirs = TestDirs::new("deadline-shed");
    let mut opts = dirs.opts();
    opts.workers = 1;
    let socket = opts.socket.clone();
    let (server, _) = Server::new(opts).expect("server");
    let runner = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let mut client = connect_with_retry(&socket);

    // Heavy enough that its service time dwarfs a 1 ms deadline in
    // release builds too.
    let heavy = |seed: u64| JobSpec {
        workload: vec![AppKind::Needle; 16],
        class: Some("heavy".to_string()),
        seed,
        ..JobSpec::default()
    };
    // Train the estimator with one completed "heavy" job.
    match client.submit_and_wait(heavy(61)).expect("train") {
        Response::Done(_, JobDone::Ok { .. }) => {}
        other => panic!("expected training job ok, got {other:?}"),
    }
    // A class the estimator has never served: admitted despite the
    // impossible deadline — shed only with evidence.
    let fresh = JobSpec {
        deadline_ms: Some(1),
        class: Some("fresh".to_string()),
        seed: 62,
        ..JobSpec::default()
    };
    match client.submit_and_wait(fresh).expect("fresh") {
        Response::Done(..) => {}
        other => panic!("no-evidence deadline job must be admitted, got {other:?}"),
    }
    // Build a backlog of known-heavy work...
    let mut queued = Vec::new();
    for seed in 63..67 {
        match client.call(&Request::Submit(heavy(seed))).expect("backlog") {
            Response::Accepted(id) => queued.push(id),
            other => panic!("expected backlog accepted, got {other:?}"),
        }
    }
    // ...then an impossible deadline for that class is shed at
    // admission, with a hint for when to try again.
    let doomed = JobSpec {
        deadline_ms: Some(1),
        ..heavy(70)
    };
    match client.call(&Request::Submit(doomed)).expect("doomed") {
        Response::Rejected(Reject::Shed {
            reason,
            retry_after_ms,
        }) => {
            assert_eq!(reason, "wont-meet-deadline");
            assert!(retry_after_ms >= 1);
        }
        other => panic!("expected wont-meet-deadline shed, got {other:?}"),
    }
    match client.call(&Request::Status).expect("status") {
        Response::Status(s) => {
            assert!(s.shed >= 1);
            let t = s
                .tenants
                .iter()
                .find(|t| t.tenant == "default")
                .expect("default tenant stats");
            assert!(t.shed >= 1, "shed must be attributed to the tenant");
        }
        other => panic!("expected status, got {other:?}"),
    }
    for id in queued {
        client.call(&Request::Wait(id)).expect("drain backlog");
    }
    match client.call(&Request::Shutdown).expect("shutdown") {
        Response::Bye { .. } => {}
        other => panic!("expected bye, got {other:?}"),
    }
    runner.join().expect("runner join").expect("run ok");
}

/// Brownout: past the utilization threshold the server keeps serving
/// warm scenario-cache hits and sheds cold work (state-level — no
/// workers, so the backlog cannot drain underneath the assertions).
#[test]
fn brownout_sheds_cold_work_but_serves_warm_cache_hits() {
    let _env = env_lock();
    let dirs = TestDirs::new("brownout");
    let mut opts = dirs.opts();
    opts.workers = 1;
    opts.queue_depth = 4;
    opts.brownout_threshold = 0.1;
    let (server, _) = Server::new(opts).expect("server");

    // Warm the scenario cache for one spec (in-process memo hit).
    let warm = spec(91);
    run_job_direct(&warm).expect("warm the cache");

    // Below the threshold everything is admitted.
    assert_eq!(server.handle(Request::Submit(spec(92))), Response::Accepted(1));
    // Utilization is now 1/5 > 0.1: brownout. Cold work sheds...
    match server.handle(Request::Submit(spec(93))) {
        Response::Rejected(Reject::Shed {
            reason,
            retry_after_ms,
        }) => {
            assert_eq!(reason, "brownout");
            assert!(retry_after_ms >= 50, "brownout hints are deliberately coarse");
        }
        other => panic!("expected brownout shed, got {other:?}"),
    }
    // ...but the warm spec is still served.
    assert_eq!(server.handle(Request::Submit(warm)), Response::Accepted(2));
    match server.handle(Request::Status) {
        Response::Status(s) => {
            assert_eq!(s.shed, 1);
            let t = s
                .tenants
                .iter()
                .find(|t| t.tenant == "default")
                .expect("default tenant stats");
            assert_eq!(t.shed, 1);
            assert_eq!(t.queued, 2);
        }
        other => panic!("expected status, got {other:?}"),
    }
}

/// Brownout probes the scenario cache only once the backlog is over
/// its threshold: below it a submit never builds the warmth probe, so
/// a corrupt disk entry for the spec goes unread; over it the probe
/// reads (and counts) the entry and sheds the spec as cold.
#[test]
fn brownout_probes_the_cache_only_over_its_threshold() {
    let _env = env_lock();
    let dirs = TestDirs::new("brownout-probe");
    let mut opts = dirs.opts();
    opts.workers = 1;
    opts.queue_depth = 4;
    opts.brownout_threshold = 0.5;
    let (server, _) = Server::new(opts).expect("server");

    // A disk entry for spec 41 that fails its CRC, and no memo copy.
    run_job_direct(&spec(41)).expect("write the cache entry");
    let cache = dirs.root.join(".scenario-cache");
    let entry = std::fs::read_dir(&cache)
        .expect("cache dir")
        .next()
        .expect("one entry")
        .expect("entry")
        .path();
    let mut bytes = std::fs::read(&entry).expect("entry bytes");
    let last = bytes.len() - 10;
    bytes[last] ^= 0x01;
    std::fs::write(&entry, &bytes).expect("corrupt the entry");
    hq_bench::scenario::reset_cache();

    let corrupt = |server: &Server| match server.handle(Request::Status) {
        Response::Status(s) => s.cache_corrupt,
        other => panic!("expected status, got {other:?}"),
    };
    // Backlog 0, 1, 2 of capacity 5: at or under 0.5, never probed.
    for seed in [41, 42, 43] {
        assert!(matches!(server.handle(Request::Submit(spec(seed))), Response::Accepted(_)));
    }
    assert_eq!(corrupt(&server), 0, "a submit under the threshold read the cache");
    // Backlog 3 of 5 is over: the probe reads the corrupt entry, which
    // is no warm hit, so the spec sheds as cold.
    match server.handle(Request::Submit(spec(41))) {
        Response::Rejected(Reject::Shed { reason, .. }) => assert_eq!(reason, "brownout"),
        other => panic!("expected brownout shed, got {other:?}"),
    }
    assert_eq!(corrupt(&server), 1);
}

/// Satellite: `Client::submit_with_retry` rides out sheds — backing
/// off on the server's retry-after hint — until tenant capacity frees
/// up, within its budget.
#[test]
fn submit_with_retry_rides_out_sheds_until_capacity_frees() {
    let _env = env_lock();
    let dirs = TestDirs::new("retry-shed");
    let mut opts = dirs.opts();
    opts.workers = 1;
    opts.tenant_max_queued = 1;
    let socket = opts.socket.clone();
    let (server, _) = Server::new(opts).expect("server");
    let runner = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let mut client = connect_with_retry(&socket);

    // Saturate the tenant's queue quota with fat jobs.
    let fat = |seed: u64| JobSpec {
        workload: vec![AppKind::Needle; 8],
        seed,
        ..JobSpec::default()
    };
    let mut accepted = 0;
    for seed in 81..85 {
        if let Response::Accepted(_) = client.call(&Request::Submit(fat(seed))).expect("fill") {
            accepted += 1;
        }
    }
    assert!(accepted >= 1, "at least the first job must be admitted");

    // A plain submit may shed right now; the retrying submit must ride
    // it out and come back accepted well within its budget.
    let resp = client
        .submit_with_retry(&fat(90), Duration::from_secs(30))
        .expect("retrying submit");
    let id = match resp {
        Response::Accepted(id) => id,
        other => panic!("expected eventual acceptance, got {other:?}"),
    };
    match client.call(&Request::Wait(id)).expect("wait") {
        Response::Done(_, JobDone::Ok { .. }) => {}
        other => panic!("expected ok, got {other:?}"),
    }
    match client.call(&Request::Shutdown).expect("shutdown") {
        Response::Bye { .. } => {}
        other => panic!("expected bye, got {other:?}"),
    }
    runner.join().expect("runner join").expect("run ok");
}

/// Satellite: a `submit` against a server that accepts the connection
/// but never replies must fail with a clear timeout error and a
/// non-zero exit code — not hang forever.
#[test]
fn submit_times_out_against_a_silent_server_with_a_clear_error() {
    let _env = env_lock();
    let dirs = TestDirs::new("silent-server");
    let socket = dirs.root.join("silent.sock");
    let listener = std::os::unix::net::UnixListener::bind(&socket).expect("bind silent socket");
    // Accept connections and read forever without ever replying.
    let silent = std::thread::spawn(move || {
        use std::io::Read;
        while let Ok((mut s, _)) = listener.accept() {
            let mut sink = [0u8; 256];
            while matches!(s.read(&mut sink), Ok(n) if n > 0) {}
        }
    });

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hyperq"))
        .args([
            "submit",
            "--socket",
            socket.to_str().unwrap(),
            "--workload",
            "needle",
            "--timeout-ms",
            "300",
        ])
        .output()
        .expect("run hyperq submit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected exit 1, got {:?}; stderr: {stderr}",
        out.status
    );
    assert!(
        stderr.contains("timed out after 300ms"),
        "expected a timeout error, got: {stderr}"
    );

    // The env var sets the default; the flag still wins over it.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hyperq"))
        .args(["submit", "--socket", socket.to_str().unwrap(), "--workload", "needle"])
        .env("HQ_SUBMIT_TIMEOUT_MS", "250")
        .output()
        .expect("run hyperq submit");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("timed out after 250ms"),
        "env-provided timeout not honored: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    drop(silent);
}

/// Satellite: a journal written through the group-commit path (several
/// concurrent submits coalesced into shared fsync windows) stays
/// byte-compatible with the solo-append format: a truncation sweep
/// over the final record recovers every intact job to byte-identical
/// artifacts and drops exactly the torn tail.
#[test]
fn group_commit_journal_survives_truncation_sweep() {
    let _env = env_lock();
    let dirs = TestDirs::new("gc-truncation");
    let mut opts = dirs.opts();
    // A wide window guarantees the concurrent submits below share it.
    opts.commit_window_us = 20_000;
    let (server, _) = Server::new(opts.clone()).expect("server");

    // Four concurrent submits block inside the commit window together;
    // no worker threads are running (`run()` was never called), so all
    // four stay accepted-but-unfinished in the journal.
    let submits: Vec<_> = (0..4u64)
        .map(|i| {
            let server = std::sync::Arc::clone(&server);
            std::thread::spawn(move || (300 + i, server.handle(Request::Submit(spec(300 + i)))))
        })
        .collect();
    let mut by_id: Vec<(u64, u64)> = submits
        .into_iter()
        .map(|h| {
            let (seed, resp) = h.join().expect("submit thread");
            match resp {
                Response::Accepted(id) => (id, seed),
                other => panic!("expected accepted, got {other:?}"),
            }
        })
        .collect();
    drop(server);
    by_id.sort_unstable();

    let full = std::fs::read(&opts.journal).expect("journal bytes");
    let last_start = full[..full.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|i| i + 1)
        .expect("final record start");
    // Staging order is id order, so the final record is the max id's.
    let direct: Vec<(u64, String)> = by_id
        .iter()
        .map(|&(id, seed)| (id, run_job_direct(&spec(seed)).expect("direct run")))
        .collect();
    let (&(last_id, _), intact) = by_id.split_last().expect("four accepted jobs");

    for cut in last_start..=full.len() {
        std::fs::write(&opts.journal, &full[..cut]).unwrap();
        let _ = std::fs::remove_dir_all(&opts.artifact_dir);
        let (_, report) = Server::new(opts.clone()).expect("recovery must not fail");
        let torn = cut < full.len();

        let replayed: Vec<u64> = report.replayed.iter().map(|(id, _)| *id).collect();
        for &(id, _) in intact {
            assert!(replayed.contains(&id), "cut {cut}: intact job {id} must replay");
        }
        assert_eq!(
            replayed.contains(&last_id),
            !torn,
            "cut {cut}: the final job replays iff its record survived whole"
        );
        let expect_torn = if torn { (cut - last_start) as u64 } else { 0 };
        assert_eq!(report.torn_bytes, expect_torn, "cut {cut}");

        for &(id, ref want) in &direct {
            let path = opts.artifact_dir.join(format!("job-{id}.out"));
            if id == last_id && torn {
                assert!(!path.exists(), "cut {cut}: torn job must leave no artifact");
                continue;
            }
            let got = std::fs::read_to_string(&path).expect("replayed artifact");
            assert_eq!(&got, want, "cut {cut}: job {id} artifact not byte-identical");
        }
    }
}

/// Satellite: `kill -9` inside an open commit window loses no accepted
/// work because acceptance was never sent — the client is still
/// blocked on the covering fsync when the server dies. The staged
/// record's bytes do survive a mere process kill (the page cache is
/// not lost), so the machine crash group commit actually defends
/// against is simulated by truncating them away; recovery must then
/// find a clean journal with nothing owed.
#[test]
fn kill_nine_inside_commit_window_never_acked_the_lost_record() {
    let _env = env_lock();
    let dirs = TestDirs::new("gc-kill9");
    let socket = dirs.root.join("svc.sock");
    let journal = dirs.root.join("journal").join("service.wal");

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_hyperq"))
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--workers",
            "1",
            "--commit-window-us",
            "1000000",
        ])
        .env("HQ_RESULTS", &dirs.root)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn hyperq serve");
    for _ in 0..400 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(socket.exists(), "server never bound {}", socket.display());
    let len_before = std::fs::metadata(&journal).expect("journal created").len();

    // Submit into a one-second commit window: the A record is staged
    // and buffer-written, but the `accepted` reply is withheld until
    // the covering fsync — which never comes.
    let mut raw = std::os::unix::net::UnixStream::connect(&socket).expect("raw connect");
    write_frame(&mut raw, &Request::Submit(spec(400)).encode()).expect("send submit");
    std::thread::sleep(Duration::from_millis(300));
    let pid = child.id().to_string();
    let st = std::process::Command::new("kill")
        .args(["-9", &pid])
        .status()
        .expect("kill -9");
    assert!(st.success(), "kill -9 {pid} failed");
    let _ = child.wait();

    // The client never saw `accepted` for the staged record.
    let mut reader = std::io::BufReader::new(raw);
    match read_frame(&mut reader) {
        Ok(None) => {}  // clean EOF
        Err(_) => {}    // connection reset — equally no ack
        Ok(Some(payload)) => panic!("server acked inside the open commit window: {payload}"),
    }

    // kill -9 alone leaves the staged bytes in the file; drop them to
    // model the machine crash that loses un-fsynced data.
    let full = std::fs::read(&journal).expect("journal bytes");
    assert!(
        full.len() as u64 > len_before,
        "the staged record should survive a process kill"
    );
    std::fs::write(&journal, &full[..len_before as usize]).unwrap();

    let (_, report) = Server::new(dirs.opts()).expect("recovery");
    assert!(
        report.replayed.is_empty(),
        "a lost record nobody was promised must not replay: {report:?}"
    );
    assert_eq!(report.torn_bytes, 0, "the truncated journal is clean");
    assert!(
        !dirs.opts().artifact_dir.join("job-1.out").exists(),
        "no artifact for the lost submit"
    );
}

/// A `hyperq serve` child, SIGKILLed when dropped, so a failing test
/// leaves no server behind.
struct ServeChild(std::process::Child);

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn `hyperq serve` with one worker on `socket`, its journal,
/// artifacts and scenario cache under `root`.
fn spawn_serve(root: &Path, socket: &Path) -> ServeChild {
    let child = std::process::Command::new(env!("CARGO_BIN_EXE_hyperq"))
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--workers",
            "1",
        ])
        .env("HQ_RESULTS", root)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn hyperq serve");
    ServeChild(child)
}

/// A client of the server on `socket`, which may still be replaying
/// its journal (a debug build replays a cold job in well under the
/// 30 s allowed).
fn connect_patiently(socket: &Path) -> Client {
    let t0 = Instant::now();
    loop {
        if let Ok(c) = Client::connect(socket) {
            return c;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "server never bound {}",
            socket.display()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A server SIGKILLed the moment a cold job's `Done` reaches the client
/// dies before, during or after writing the job's scenario-cache entry
/// (the write follows the reply). Whichever it was, `hyperq scrub`
/// finds the stores clean, and a restarted server answers `wait` on the
/// job with the bytes `hyperq submit --direct` prints. Five rounds, each
/// with a fresh directory and seed; whether the entry reached the disk
/// is a race, so the test reports how often it did not and asserts
/// nothing about it.
#[test]
fn kill_nine_after_done_scrubs_clean_and_restart_serves_the_direct_artifact() {
    const ROUNDS: u64 = 5;
    let _env = env_lock();
    let hyperq = env!("CARGO_BIN_EXE_hyperq");
    let mut missing = 0;
    for round in 0..ROUNDS {
        let dirs = TestDirs::new(&format!("done-kill9-{round}"));
        let socket = dirs.root.join("svc.sock");
        let seed = 700 + round;
        let spec = JobSpec {
            workload: vec![
                AppKind::Gaussian,
                AppKind::Needle,
                AppKind::Knearest,
                AppKind::Srad,
            ],
            streams: 8,
            seed,
            ..JobSpec::default()
        };

        let server = spawn_serve(&dirs.root, &socket);
        let mut client = connect_patiently(&socket);
        let id = match client.call(&Request::Submit(spec)).expect("submit") {
            Response::Accepted(id) => id,
            other => panic!("expected accepted, got {other:?}"),
        };
        match client.call(&Request::Wait(id)).expect("wait") {
            Response::Done(_, JobDone::Ok { .. }) => {}
            other => panic!("job {id} failed: {other:?}"),
        }
        drop(server); // SIGKILL
        let entries = std::fs::read_dir(dirs.root.join(".scenario-cache"))
            .map(|d| {
                d.filter(|e| {
                    e.as_ref()
                        .is_ok_and(|e| !e.path().to_string_lossy().ends_with(".tmp"))
                })
                .count()
            })
            .unwrap_or(0);
        if entries == 0 {
            missing += 1;
        }

        let scrub = std::process::Command::new(hyperq)
            .arg("scrub")
            .env("HQ_RESULTS", &dirs.root)
            .output()
            .expect("run hyperq scrub");
        assert!(
            scrub.status.success(),
            "round {round}: scrub after the kill found damage:\n{}{}",
            String::from_utf8_lossy(&scrub.stdout),
            String::from_utf8_lossy(&scrub.stderr)
        );

        let mut server = spawn_serve(&dirs.root, &socket);
        let mut client = connect_patiently(&socket);
        let served = match client.call(&Request::Wait(id)).expect("wait after restart") {
            Response::Done(_, JobDone::Ok { artifact }) => {
                std::fs::read(artifact).expect("artifact")
            }
            other => panic!("round {round}: job {id} after restart: {other:?}"),
        };
        match client.call(&Request::Shutdown).expect("shutdown") {
            Response::Bye { .. } => {}
            other => panic!("expected bye, got {other:?}"),
        }
        let _ = server.0.wait();

        let seed = seed.to_string();
        let direct = std::process::Command::new(hyperq)
            .args(["submit", "--direct", "-w", "gaussian+needle+knearest+srad"])
            .args(["--streams", "8", "--seed", seed.as_str()])
            .env("HQ_RESULTS", dirs.root.join("direct"))
            .output()
            .expect("run hyperq submit --direct");
        assert!(direct.status.success(), "submit --direct failed");
        assert!(
            served == direct.stdout,
            "round {round}: served artifact differs from submit --direct"
        );
    }
    eprintln!("scenario-cache entry missing after the kill in {missing} of {ROUNDS} rounds");
}

/// Dispatch preserves the tenancy contract under `tenant_max_inflight
/// 2` with three workers, so the cap can bind: `alpha` queues six
/// multi-second jobs and `beta` two, and once `beta` is drained three
/// idle workers face `alpha`'s backlog. Status polls while the queue
/// drains never see a tenant with more than two jobs running, and do
/// see two. Both tenants finish fully served in DRR order, and every
/// artifact is byte-identical to the single-job `run_job_direct` path.
#[test]
fn dispatch_respects_drr_and_inflight_caps_with_identical_artifacts() {
    let _env = env_lock();
    let dirs = TestDirs::new("drr-caps");
    let mut opts = dirs.opts();
    opts.workers = 3;
    opts.queue_depth = 64;
    opts.tenant_max_inflight = 2;
    opts.commit_window_us = 0; // synchronous accepts for pre-queueing
    let socket = opts.socket.clone();
    let artifact_dir = opts.artifact_dir.clone();
    let (server, _) = Server::new(opts).expect("server");

    // Pre-queue everything before any worker exists, so the first
    // drain faces the full two-tenant backlog.
    let mut ids: Vec<(u64, JobSpec)> = Vec::new();
    for (tenant, jobs) in [("alpha", 6u64), ("beta", 2)] {
        for i in 0..jobs {
            let s = JobSpec {
                tenant: tenant.to_string(),
                workload: [vec![AppKind::Gaussian; 3], vec![AppKind::Srad; 3]].concat(),
                streams: 8,
                seed: 500 + 10 * i + (tenant == "beta") as u64,
                ..JobSpec::default()
            };
            match server.handle(Request::Submit(s.clone())) {
                Response::Accepted(id) => ids.push((id, s)),
                other => panic!("expected accepted, got {other:?}"),
            }
        }
    }

    let runner = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let mut client = connect_with_retry(&socket);
    let mut peak_running = 0;
    let status = loop {
        let s = match client.call(&Request::Status).expect("status") {
            Response::Status(s) => s,
            other => panic!("expected status, got {other:?}"),
        };
        for t in &s.tenants {
            assert!(
                t.running <= 2,
                "tenant {} runs {} jobs over its cap of 2: {s:?}",
                t.tenant,
                t.running
            );
            peak_running = peak_running.max(t.running);
        }
        if s.completed == ids.len() as u64 {
            break s;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    assert_eq!(peak_running, 2, "no poll saw a tenant at its cap");
    // One job per wakeup: the 8-job backlog takes exactly 8 dispatches.
    assert_eq!(status.dispatches, 8, "one dispatch per job");
    assert_eq!(
        status.dispatched_jobs, status.dispatches,
        "every dispatch carries one job"
    );
    for (tenant, jobs) in [("alpha", 6), ("beta", 2)] {
        let t = status
            .tenants
            .iter()
            .find(|t| t.tenant == tenant)
            .expect("tenant stats");
        assert_eq!(t.served, jobs, "{tenant} must be fully served");
        assert_eq!(t.shed, 0, "{tenant} must never be shed");
    }
    assert!(
        status.solo_flushes >= 8,
        "window 0 means one solo fsync per accept, got {}",
        status.solo_flushes
    );

    for (id, spec) in &ids {
        match client.call(&Request::Wait(*id)).expect("wait") {
            Response::Done(_, JobDone::Ok { .. }) => {}
            other => panic!("job {id} failed: {other:?}"),
        }
        let got = std::fs::read_to_string(artifact_dir.join(format!("job-{id}.out")))
            .expect("served artifact");
        assert_eq!(
            got,
            run_job_direct(spec).unwrap(),
            "job {id} artifact differs from the direct run"
        );
    }

    match client.call(&Request::Shutdown).expect("shutdown") {
        Response::Bye { .. } => {}
        other => panic!("expected bye, got {other:?}"),
    }
    runner.join().expect("runner join").expect("run ok");
}

/// Satellite: a frame whose length header exceeds `MAX_FRAME` is
/// bounced with a framed error *before* any allocation, over a real
/// socket; the connection then closes without taking the server down.
/// No false serialization in the server itself: with two workers, one
/// heavy job queued ahead of three light ones, the light jobs all
/// finish on the free worker while the heavy one is still running.
/// A worker that drained the whole queue in one wakeup would hold the
/// light jobs behind the heavy one.
#[test]
fn short_jobs_are_not_held_behind_a_long_one() {
    let _env = env_lock();
    let dirs = TestDirs::new("no-false-serialization");
    let mut opts = dirs.opts();
    opts.workers = 2;
    opts.commit_window_us = 0; // synchronous accepts for pre-queueing
    let socket = opts.socket.clone();
    let (server, _) = Server::new(opts).expect("server");
    let submit = |s: JobSpec| match server.handle(Request::Submit(s)) {
        Response::Accepted(id) => id,
        other => panic!("expected accepted, got {other:?}"),
    };

    // Queue everything before any worker exists: the heavy job first.
    let heavy = submit(JobSpec {
        workload: [vec![AppKind::Gaussian; 6], vec![AppKind::Srad; 6]].concat(),
        streams: 16,
        seed: 9100,
        ..JobSpec::default()
    });
    let light: Vec<u64> = (0..3).map(|i| submit(spec(9200 + i))).collect();

    let runner = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let mut client = connect_with_retry(&socket);
    for id in &light {
        match client.call(&Request::Wait(*id)).expect("wait") {
            Response::Done(_, JobDone::Ok { .. }) => {}
            other => panic!("light job {id} failed: {other:?}"),
        }
    }
    match client.call(&Request::Status).expect("status") {
        Response::Status(s) => {
            assert_eq!(s.completed, 3, "only the light jobs are done: {s:?}");
            assert_eq!(s.running, 1, "the heavy job is still running: {s:?}");
        }
        other => panic!("expected status, got {other:?}"),
    }
    match client.call(&Request::Wait(heavy)).expect("wait") {
        Response::Done(_, JobDone::Ok { .. }) => {}
        other => panic!("heavy job failed: {other:?}"),
    }

    match client.call(&Request::Shutdown).expect("shutdown") {
        Response::Bye { .. } => {}
        other => panic!("expected bye, got {other:?}"),
    }
    runner.join().expect("runner join").expect("run ok");
}

#[test]
fn oversized_frame_is_rejected_without_allocation_over_socket() {
    use std::io::Write;

    let _env = env_lock();
    let dirs = TestDirs::new("oversize");
    let opts = dirs.opts();
    let socket = opts.socket.clone();
    let (server, _) = Server::new(opts).expect("server");
    let runner = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let _probe = connect_with_retry(&socket);

    let mut raw = std::os::unix::net::UnixStream::connect(&socket).expect("raw connect");
    raw.write_all(format!("{}\n", u64::MAX).as_bytes()).unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let payload = read_frame(&mut reader).unwrap().expect("framed error");
    match Response::decode(&payload) {
        Ok(Response::Rejected(Reject::BadRequest(msg))) => {
            assert!(msg.contains("protocol:"), "{msg}")
        }
        other => panic!("expected framed bad-request, got {other:?} ({payload})"),
    }
    // The server is still healthy for well-formed clients.
    let mut client = connect_with_retry(&socket);
    match client.submit_and_wait(spec(77)).expect("submit after abuse") {
        Response::Done(_, JobDone::Ok { .. }) => {}
        other => panic!("expected ok, got {other:?}"),
    }
    match client.call(&Request::Shutdown).expect("shutdown") {
        Response::Bye { .. } => {}
        other => panic!("expected bye, got {other:?}"),
    }
    runner.join().expect("runner join").expect("run ok");
}

/// The scenario memo is bounded: a server that serves more unique
/// scenarios than `MEMO_BUDGET` holds evicts its least recently used
/// outcomes, reports a footprint within the budget, and still writes
/// every artifact byte-identical to a direct run — evicted scenarios
/// come back from the disk cache.
#[test]
fn memo_stays_within_budget_while_serving_more_unique_scenarios_than_it_holds() {
    let _env = env_lock();
    let dirs = TestDirs::new("memo-budget");
    let mut opts = dirs.opts();
    opts.workers = 2;
    opts.queue_depth = 512;
    let socket = opts.socket.clone();
    let artifact_dir = opts.artifact_dir.clone();
    let (server, _) = Server::new(opts).expect("server");
    let status = |server: &Server| match server.handle(Request::Status) {
        Response::Status(s) => s,
        other => panic!("expected status, got {other:?}"),
    };
    let before = status(&server);
    let runner = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };

    // The cold serving mix: ~130 KB of outcome per scenario, so 300
    // unique seeds are ~40 MB, past the 32 MiB budget.
    let jobs = 300u64;
    let mut ids: Vec<(u64, JobSpec)> = Vec::new();
    for seed in 0..jobs {
        let s = JobSpec {
            workload: vec![AppKind::Gaussian, AppKind::Knearest, AppKind::Needle, AppKind::Srad],
            streams: 8,
            seed: 7000 + seed,
            ..JobSpec::default()
        };
        match server.handle(Request::Submit(s.clone())) {
            Response::Accepted(id) => ids.push((id, s)),
            other => panic!("expected accepted, got {other:?}"),
        }
    }
    for (id, _) in &ids {
        match server.handle(Request::Wait(*id)) {
            Response::Done(_, JobDone::Ok { .. }) => {}
            other => panic!("job {id} failed: {other:?}"),
        }
    }

    let after = status(&server);
    assert!(
        after.memo_evictions > before.memo_evictions,
        "{jobs} cold scenarios must overflow the memo"
    );
    assert!(
        after.memo_bytes <= MEMO_BUDGET as u64,
        "memo holds {} B, budget {MEMO_BUDGET} B",
        after.memo_bytes
    );
    assert!(after.memo_entries < before.memo_entries + jobs);

    // Newest first: those are still memo-resident, and each disk hit
    // further down then evicts an entry already checked.
    for (id, spec) in ids.iter().rev() {
        let got = std::fs::read_to_string(artifact_dir.join(format!("job-{id}.out")))
            .expect("served artifact");
        assert_eq!(
            got,
            run_job_direct(spec).unwrap(),
            "job {id} artifact differs from the direct run"
        );
    }
    assert!(status(&server).memo_bytes <= MEMO_BUDGET as u64);

    match connect_with_retry(&socket).call(&Request::Shutdown).expect("shutdown") {
        Response::Bye { .. } => {}
        other => panic!("expected bye, got {other:?}"),
    }
    runner.join().expect("runner join").expect("run ok");
}

/// Open file descriptors of this process.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

/// Each `Server::run` registers its listener for the SIGTERM wake and
/// releases it on the way out: fifty start/stop cycles, each stopped
/// by a `shutdown` request, leave no descriptor behind (one per run
/// would add fifty).
#[test]
fn repeated_server_runs_leak_no_file_descriptors() {
    let _env = env_lock();
    let dirs = TestDirs::new("fd-leak");
    let cycle = |i: u32| {
        let mut opts = dirs.opts();
        opts.journal = dirs.root.join(format!("journal-{i}")).join("service.wal");
        opts.workers = 1;
        let socket = opts.socket.clone();
        let (server, _) = Server::new(opts).expect("server");
        let runner = {
            let server = std::sync::Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };
        let mut client = connect_with_retry(&socket);
        match client.call(&Request::Shutdown).expect("shutdown") {
            Response::Bye { .. } => {}
            other => panic!("expected bye, got {other:?}"),
        }
        runner.join().expect("runner join").expect("run ok");
    };
    // One warm-up cycle, so descriptors a first run opens for the life
    // of the process are not counted.
    cycle(0);
    let before = open_fds();
    for i in 1..=50 {
        cycle(i);
    }
    // A connection thread may still be on its way out of the last
    // cycle; a leak stays.
    let deadline = Instant::now() + Duration::from_secs(2);
    while open_fds() > before + 5 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let after = open_fds();
    assert!(
        after <= before + 5,
        "{before} fds open before 50 server runs, {after} after"
    );
}
