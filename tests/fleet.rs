//! Fleet integration tests: consistent-hash ring properties
//! (proptest), a kill -9 of a worker mid-burst with zero accepted-job
//! loss and byte-identical artifacts, and permanent-death rehashing
//! with the shard surfacing in `open_circuits`; SIGTERM drains of a
//! server and a fleet, and fresh-connection latency of a fleet against
//! a server.

use hq_bench::service::ring::DEFAULT_VNODES;
use hq_bench::service::{run_job_direct, Client, JobDone, JobSpec, Request, Response, Ring};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Ring properties.
// ---------------------------------------------------------------------

fn member_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("shard-{i}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Placement is a pure function of the member *set*: any insertion
    /// order, or a fresh `Ring` in another process, computes the same
    /// owner for every key.
    #[test]
    fn ring_placement_is_deterministic_and_order_independent(
        members in 2usize..6,
        order in proptest::collection::vec(0usize..100, 1..6),
        seeds in proptest::collection::vec(0u64..10_000, 1..40),
    ) {
        let names = member_names(members);
        let mut sorted_in = Ring::new(DEFAULT_VNODES);
        for n in &names {
            sorted_in.add(n);
        }
        let mut shuffled_in = Ring::new(DEFAULT_VNODES);
        for (i, &o) in order.iter().enumerate() {
            // A crude deterministic shuffle: rotate by the sampled
            // offsets, re-adding already-present names (idempotent).
            shuffled_in.add(&names[(o + i) % names.len()]);
        }
        for n in &names {
            shuffled_in.add(n);
        }
        for seed in seeds {
            let key = JobSpec { seed, ..JobSpec::default() }.signature();
            prop_assert_eq!(sorted_in.node_for(&key), shuffled_in.node_for(&key));
        }
    }

    /// Removing one member remaps *only* that member's keys; every
    /// other key keeps its owner (and therefore its warm shard cache).
    #[test]
    fn ring_removal_remaps_only_the_removed_members_keys(
        members in 2usize..6,
        victim in 0usize..6,
        seeds in proptest::collection::vec(0u64..10_000, 1..60),
    ) {
        let names = member_names(members);
        let victim = &names[victim % members];
        let mut full = Ring::new(DEFAULT_VNODES);
        for n in &names {
            full.add(n);
        }
        let mut reduced = full.clone();
        reduced.remove(victim);
        for seed in seeds {
            let key = JobSpec { seed, ..JobSpec::default() }.signature();
            let before = full.node_for(&key).unwrap();
            let after = reduced.node_for(&key).unwrap();
            if before == victim {
                prop_assert_ne!(after, victim);
            } else {
                prop_assert_eq!(before, after);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Live fleet tests.
// ---------------------------------------------------------------------

/// Tests mutate the process-global `HQ_RESULTS` (for the in-process
/// `run_job_direct` comparisons); each holds this for its whole body.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct FleetUnderTest {
    root: PathBuf,
    fleet_dir: PathBuf,
    child: Child,
    addr: String,
}

impl FleetUnderTest {
    /// Spawn `hyperq serve --tcp 127.0.0.1:0 --fleet N` and wait for
    /// the coordinator to publish its resolved address.
    fn start(name: &str, workers: usize, extra: &[&str]) -> FleetUnderTest {
        let root = std::env::temp_dir().join(format!("hq-fleet-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create test dir");
        std::env::set_var("HQ_RESULTS", root.join("client-results"));
        let fleet_dir = root.join("fleet");
        let child = Command::new(env!("CARGO_BIN_EXE_hyperq"))
            .args([
                "serve",
                "--tcp",
                "127.0.0.1:0",
                "--fleet",
                &workers.to_string(),
                "--fleet-dir",
                fleet_dir.to_str().unwrap(),
            ])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::from(
                std::fs::File::create(root.join("coord.log")).unwrap(),
            ))
            .spawn()
            .expect("spawn coordinator");
        let addr_file = fleet_dir.join("addr");
        let deadline = Instant::now() + Duration::from_secs(60);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&addr_file) {
                let s = s.trim().to_string();
                if !s.is_empty() {
                    break s;
                }
            }
            assert!(
                Instant::now() < deadline,
                "coordinator never published {}:\n{}",
                addr_file.display(),
                std::fs::read_to_string(root.join("coord.log")).unwrap_or_default()
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        FleetUnderTest {
            root,
            fleet_dir,
            child,
            addr,
        }
    }

    fn client(&self) -> Client {
        for _ in 0..300 {
            if let Ok(mut c) = Client::connect_tcp(&self.addr) {
                c.set_read_timeout(Some(Duration::from_secs(120)))
                    .expect("read timeout");
                return c;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("coordinator never accepted on {}", self.addr);
    }

    fn coord_log(&self) -> String {
        std::fs::read_to_string(self.root.join("coord.log")).unwrap_or_default()
    }

    /// `kill -9` the worker process behind `shard`.
    fn kill_worker(&self, shard: &str) {
        let pid = std::fs::read_to_string(self.fleet_dir.join(shard).join("worker.pid"))
            .expect("worker pidfile");
        let status = Command::new("kill")
            .args(["-9", pid.trim()])
            .status()
            .expect("run kill");
        assert!(status.success(), "kill -9 {pid} failed");
    }

    /// Ask the coordinator to shut down, then wait for it to drain,
    /// seal the workers and exit cleanly.
    fn shutdown(&mut self) {
        let mut c = self.client();
        match c.call(&Request::Shutdown).expect("shutdown request") {
            Response::Bye { .. } => {}
            other => panic!("expected bye, got {other:?}"),
        }
        let log = self.root.join("coord.log");
        wait_clean_exit(&mut self.child, "coordinator", Duration::from_secs(60), &log);
    }

    /// Assert the shard's journal ends in a seal (`S`) record.
    fn assert_sealed(&self, shard: &str) {
        assert_journal_sealed(&self.fleet_dir.join(shard).join("journal/service.wal"));
    }
}

impl Drop for FleetUnderTest {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // Reap any workers the coordinator left behind on a panic.
        for i in 0..8 {
            let pidfile = self.fleet_dir.join(format!("shard-{i}")).join("worker.pid");
            if let Ok(pid) = std::fs::read_to_string(&pidfile) {
                let _ = Command::new("kill")
                    .args(["-9", pid.trim()])
                    .stderr(Stdio::null())
                    .status();
            }
        }
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

/// Expect a `Done(_, Ok)` whose artifact is byte-identical to an
/// in-process direct run of the same spec.
fn assert_done_ok_identical(resp: Response, expect: &JobSpec) {
    match resp {
        Response::Done(_, JobDone::Ok { artifact }) => {
            let served = std::fs::read_to_string(&artifact)
                .unwrap_or_else(|e| panic!("read artifact {artifact}: {e}"));
            let direct = run_job_direct(expect).expect("direct run");
            assert_eq!(served, direct, "artifact diverges from --direct for {expect:?}");
        }
        other => panic!("expected ok for {expect:?}, got {other:?}"),
    }
}

/// The headline robustness guarantee: `kill -9` a worker in the middle
/// of a burst; every accepted job still completes, artifacts stay
/// byte-identical to direct runs, and the worker is restarted in place.
#[test]
fn kill_nine_mid_burst_loses_no_jobs_and_artifacts_match_direct() {
    let _env = env_lock();
    let fleet = FleetUnderTest::start("kill-mid-burst", 3, &["--heartbeat-ms", "100"]);

    const JOBS: u64 = 30;
    const CONNS: u64 = 3;
    const KILL_AFTER: u64 = 5;
    let completions = Arc::new(AtomicU64::new(0));
    let killed = Arc::new(AtomicBool::new(false));
    let fleet = Arc::new(Mutex::new(fleet));
    let handles: Vec<_> = (0..CONNS)
        .map(|t| {
            let completions = Arc::clone(&completions);
            let killed = Arc::clone(&killed);
            let fleet = Arc::clone(&fleet);
            std::thread::spawn(move || {
                let mut client = fleet.lock().unwrap().client();
                for i in 0..JOBS / CONNS {
                    let s = spec(1000 + t * 100 + i);
                    let resp = client.submit_and_wait(s.clone()).expect("submit+wait");
                    assert_done_ok_identical(resp, &s);
                    let n = completions.fetch_add(1, Ordering::SeqCst) + 1;
                    if n == KILL_AFTER && !killed.swap(true, Ordering::SeqCst) {
                        fleet.lock().unwrap().kill_worker("shard-1");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("burst thread");
    }
    assert_eq!(completions.load(Ordering::SeqCst), JOBS);
    assert!(killed.load(Ordering::SeqCst), "burst ended before the kill fired");

    let mut fleet = Arc::try_unwrap(fleet)
        .unwrap_or_else(|_| panic!("burst threads still hold the fleet"))
        .into_inner()
        .unwrap();
    // The supervisor noticed the corpse and restarted it in place.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !fleet.coord_log().contains("restarting shard-1 in place") {
        assert!(
            Instant::now() < deadline,
            "no in-place restart in coordinator log:\n{}",
            fleet.coord_log()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // Graceful shutdown seals every shard's journal.
    fleet.shutdown();
    for shard in ["shard-0", "shard-1", "shard-2"] {
        fleet.assert_sealed(shard);
    }
}

/// When a worker dies for good (`--max-restarts 0`), its accepted jobs
/// are rehashed onto surviving shards and still complete byte-identical
/// to direct runs, and the dead shard shows up in `open_circuits`.
#[test]
fn dead_shard_jobs_rehash_to_survivors_and_surface_in_status() {
    let _env = env_lock();
    let mut fleet = FleetUnderTest::start(
        "rehash",
        2,
        &["--heartbeat-ms", "100", "--max-restarts", "0"],
    );

    // Find seeds the ring places on shard-1 — the fleet computes
    // placement with this exact same deterministic ring.
    let mut ring = Ring::new(DEFAULT_VNODES);
    ring.add("shard-0");
    ring.add("shard-1");
    let victim_seeds: Vec<u64> = (0..10_000u64)
        .filter(|&s| ring.node_for(&spec(s).signature()) == Some("shard-1"))
        .take(4)
        .collect();
    assert_eq!(victim_seeds.len(), 4, "shard-1 owns almost nothing?");

    // Submit the victim-owned jobs (accepted => journaled on shard-1),
    // then kill -9 the worker before waiting on any of them.
    let mut client = fleet.client();
    let mut accepted = Vec::new();
    for &s in &victim_seeds {
        match client.call(&Request::Submit(spec(s))).expect("submit") {
            Response::Accepted(id) => accepted.push((id, spec(s))),
            other => panic!("expected accepted, got {other:?}"),
        }
    }
    fleet.kill_worker("shard-1");

    // Every accepted job must still complete — rehashed onto shard-0 —
    // with byte-identical artifacts.
    for (id, s) in &accepted {
        let resp = client.call(&Request::Wait(*id)).expect("wait");
        assert_done_ok_identical(resp, s);
    }
    let log = fleet.coord_log();
    assert!(
        log.contains("gone for good") || log.contains("rehashed"),
        "expected permanent-death rehash in log:\n{log}"
    );

    // The dead shard is visible in status, and new submissions keep
    // working, routed entirely to the survivor.
    match client.call(&Request::Status).expect("status") {
        Response::Status(s) => assert!(
            s.open_circuits.iter().any(|c| c == "shard-1"),
            "dead shard missing from open_circuits: {:?}",
            s.open_circuits
        ),
        other => panic!("expected status, got {other:?}"),
    }
    for &s in victim_seeds.iter().take(2) {
        let resp = client.submit_and_wait(spec(s)).expect("post-death submit");
        assert_done_ok_identical(resp, &spec(s));
    }

    fleet.shutdown();
    // The survivor sealed its journal; the dead shard's journal is, by
    // definition of kill -9, unsealed — its jobs were salvaged instead.
    fleet.assert_sealed("shard-0");
}

/// Oversized frames are rejected with a framed error *before* any
/// allocation, over a real TCP connection to the coordinator.
#[test]
fn oversized_frame_gets_a_framed_error_over_tcp() {
    use hq_bench::service::protocol::read_frame;
    use std::io::{BufReader, Write};

    let _env = env_lock();
    let mut fleet = FleetUnderTest::start("oversize", 1, &[]);
    let mut raw = std::net::TcpStream::connect(&fleet.addr).expect("raw connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // A length header claiming ~16 exabytes: must be bounced without
    // the coordinator attempting the allocation.
    raw.write_all(format!("{}\n", u64::MAX).as_bytes()).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let text = read_frame(&mut reader).expect("framed error").expect("not eof");
    assert!(
        text.contains("rejected bad-request") && text.contains("protocol:"),
        "unexpected reply: {text}"
    );
    drop(reader);
    fleet.shutdown();
}

// ---------------------------------------------------------------------
// The shared front end: fresh connections and SIGTERM, against a fleet
// (TCP) and a single `hyperq serve` (Unix socket).
// ---------------------------------------------------------------------

/// A single `hyperq serve --socket` process with its own results dir.
struct ServerUnderTest {
    root: PathBuf,
    socket: PathBuf,
    child: Child,
}

impl ServerUnderTest {
    fn start(name: &str) -> ServerUnderTest {
        let root = std::env::temp_dir().join(format!("hq-serve-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create test dir");
        let socket = root.join("hq.sock");
        let child = Command::new(env!("CARGO_BIN_EXE_hyperq"))
            .args([
                "serve",
                "--socket",
                socket.to_str().unwrap(),
                "--workers",
                "1",
            ])
            .env("HQ_RESULTS", &root)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn server");
        let server = ServerUnderTest {
            root,
            socket,
            child,
        };
        drop(server.client());
        server
    }

    fn client(&self) -> Client {
        for _ in 0..3000 {
            if let Ok(mut c) = Client::connect(&self.socket) {
                c.set_read_timeout(Some(Duration::from_secs(120)))
                    .expect("read timeout");
                return c;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("server never bound {}", self.socket.display());
    }
}

impl Drop for ServerUnderTest {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Assert the journal at `path` ends in a seal (`S`) record.
fn assert_journal_sealed(path: &Path) {
    let text = std::fs::read_to_string(path).expect("read journal");
    let last = text.lines().last().unwrap_or_default();
    assert_eq!(
        last.split(' ').nth(1),
        Some("S"),
        "{}: journal not sealed; last record: {last:?}",
        path.display()
    );
}

/// Wait for `child` to exit 0 within `limit` and return how long it
/// took. A timeout panics with the contents of `log`, if any.
fn wait_clean_exit(child: &mut Child, what: &str, limit: Duration, log: &Path) -> Duration {
    let asked = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            assert!(status.success(), "{what} exited {status}");
            return asked.elapsed();
        }
        assert!(
            asked.elapsed() < limit,
            "{what} still running {limit:?} after being asked to stop:\n{}",
            std::fs::read_to_string(log).unwrap_or_default()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// `kill -TERM` the process, then require a clean exit within 5 s.
fn term_and_wait(child: &mut Child, what: &str, log: &Path) -> Duration {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -TERM {what} failed");
    wait_clean_exit(child, what, Duration::from_secs(5), log)
}

fn ping(client: &mut Client) {
    assert_eq!(client.call(&Request::Ping).expect("ping"), Response::Pong);
}

/// SIGTERM wakes the blocking accept on both listener kinds: with one
/// job done and an idle client connected, the server and the fleet
/// coordinator each drain, seal every journal and exit 0 within 5 s.
#[test]
fn sigterm_drains_a_server_and_a_fleet_and_seals_their_journals() {
    let _env = env_lock();
    let mut server = ServerUnderTest::start("sigterm");
    let mut fleet = FleetUnderTest::start("sigterm", 2, &[]);

    let mut c = server.client();
    assert_done_ok_identical(c.submit_and_wait(spec(61)).expect("server job"), &spec(61));
    let mut c = fleet.client();
    assert_done_ok_identical(c.submit_and_wait(spec(62)).expect("fleet job"), &spec(62));
    // An idle connection each, already accepted, left open through the
    // drain.
    let (mut idle_server, mut idle_fleet) = (server.client(), fleet.client());
    ping(&mut idle_server);
    ping(&mut idle_fleet);

    let server_exit = term_and_wait(&mut server.child, "hyperq serve", Path::new(""));
    let fleet_log = fleet.root.join("coord.log");
    let fleet_exit = term_and_wait(&mut fleet.child, "fleet coordinator", &fleet_log);
    eprintln!("SIGTERM to exit: server {server_exit:?}, fleet {fleet_exit:?}");
    assert_journal_sealed(&server.root.join("journal/service.wal"));
    for shard in ["shard-0", "shard-1"] {
        fleet.assert_sealed(shard);
    }
    drop((idle_server, idle_fleet));
}

/// Median of `samples`, in milliseconds.
fn median_ms(mut samples: Vec<Duration>) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

/// A fresh connection to the fleet coordinator is answered as soon as
/// one to a single server: 20 connect→`ping`→`pong` round trips each,
/// spaced apart and interleaved in one run, and the fleet's median may
/// exceed the server's by at most 3 ms. (A front end that polls its
/// listener instead of blocking in `accept` reads ~13 ms here.)
#[test]
fn fresh_connections_reach_a_fleet_as_fast_as_a_server() {
    let _env = env_lock();
    let server = ServerUnderTest::start("fresh");
    let fleet = FleetUnderTest::start("fresh", 1, &[]);
    let (mut to_server, mut to_fleet) = (Vec::new(), Vec::new());
    for _ in 0..20 {
        let t = Instant::now();
        ping(&mut Client::connect(&server.socket).expect("connect server"));
        to_server.push(t.elapsed());
        std::thread::sleep(Duration::from_millis(10));
        let t = Instant::now();
        ping(&mut Client::connect_tcp(&fleet.addr).expect("connect fleet"));
        to_fleet.push(t.elapsed());
        std::thread::sleep(Duration::from_millis(10));
    }
    let (server_ms, fleet_ms) = (median_ms(to_server), median_ms(to_fleet));
    eprintln!("fresh connect->pong median: server {server_ms:.3} ms, fleet {fleet_ms:.3} ms");
    assert!(
        fleet_ms <= server_ms + 3.0,
        "fleet median {fleet_ms:.3} ms exceeds server median {server_ms:.3} ms + 3 ms"
    );
}
