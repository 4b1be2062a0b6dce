//! Content-addressed scenario cache: the single choke point every
//! experiment routes its simulation runs through.
//!
//! The paper's evaluation is sweep-shaped — Figs. 4–10, the ablations
//! and the extension studies re-simulate many identical
//! `(DeviceConfig, workload, seed, fault plan)` scenarios. Every run is
//! deterministic, so an identical scenario always produces an identical
//! [`RunOutcome`]; repeating one is pure waste on the single-core boxes
//! the suite targets. [`run_scenario`] memoizes [`run_schedule`] behind
//! a structural [`ScenarioKey`]:
//!
//! * an **in-process memo** serves repeats within one process (e.g. the
//!   serialized baseline shared by several figures, or a warm job pool
//!   on a long-running server). It is a least-recently-used map bounded
//!   by [`MEMO_BUDGET`] bytes of estimated outcome footprint, and hands
//!   outcomes out as shared [`Arc<RunOutcome>`]s: a hit is a refcount
//!   bump, never a deep copy, and an outcome a caller holds stays valid
//!   after its entry is evicted. An evicted scenario comes back from
//!   the disk layer (or, in `mem` mode, is re-simulated) byte-identical,
//!   so eviction is invisible to callers; and
//! * an **on-disk cache** under `<results>/.scenario-cache/` serves
//!   repeats across processes (a re-run suite, `--resume`, CI smoke
//!   runs). Entries are written atomically via
//!   [`crate::util::write_atomic`], so a crash can never leave a
//!   truncated entry; any entry that fails to parse is treated as a
//!   miss and rewritten. [`run_scenario`] writes an entry before it
//!   returns. The service ([`run_workload_deferred`]) inserts the
//!   outcome into the memo before it answers the job, and writes the
//!   disk entry only after the answer: a crash in between can lose
//!   that entry, never corrupt one, and a lost entry is only a future
//!   miss, since the outcome is deterministic.
//!
//! The key is an FNV-1a hash over the *full* `Debug` rendering of the
//! run configuration and schedule plus [`SIM_VERSION`]; the rendering
//! itself (the preimage) is stored alongside each entry and compared on
//! lookup, so hash collisions degrade to misses instead of wrong
//! results, and bumping [`SIM_VERSION`] invalidates every stale entry
//! at once. Wall-clock [`hq_gpu::result::SimPerf`] counters ride along
//! verbatim (they are documented as nondeterministic and never feed
//! artifacts); the [`hq_power::PowerReport`] is *recomputed* from the
//! cached result — it is a pure function of the result and the power
//! model, exactly as [`run_schedule`] computes it.
//!
//! `HQ_SCENARIO_CACHE` controls the cache: `off` disables it entirely
//! (every call simulates), `mem` keeps only the in-process memo, and
//! anything else (the default) enables memo + disk.

use crate::util::codec::{esc, fnv1a, unesc, Cursor};
use crate::util::{out_dir, write_atomic};
use hq_des::record::TimeSeries;
use hq_des::time::{Dur, SimTime};
use hq_des::trace::{Span, SpanKind, TraceLog};
use hq_gpu::fault::FaultKind;
use hq_gpu::result::{
    AppOutcome, AppStats, FaultCounters, SimError, SimPerf, SimResult, TransferStats,
};
use hq_gpu::types::{AppId, StreamId};
use hq_power::PowerMonitor;
use hq_workloads::apps::AppKind;
use hyperq_core::harness::{build_schedule, run_schedule, AppSpec, RunConfig, RunOutcome};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Simulator-semantics stamp folded into every [`ScenarioKey`]. Bump it
/// whenever a change alters *any* simulated result (event ordering,
/// timing model, fault semantics, …) so that previously cached outcomes
/// can never be replayed against a simulator that would no longer
/// produce them. Pure performance work that keeps trajectories
/// byte-identical does not require a bump.
pub const SIM_VERSION: u32 = 1;

/// On-disk entry format version (bump when the encoding below changes;
/// old entries then fail the header check and are recomputed).
/// v2 added the `crc` line: a fnv1a checksum over the entry body, so
/// any corruption — including a single flipped byte in a numeric field
/// that would otherwise still parse — is *detected*, never mis-parsed.
pub(crate) const DISK_VERSION: u32 = 2;

/// Structural identity of one simulation scenario: the FNV-1a hash of
/// the full configuration/schedule rendering plus [`SIM_VERSION`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ScenarioKey(pub u64);

impl ScenarioKey {
    /// Hex form used as the cache file stem.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The exact string hashed into a [`ScenarioKey`]. `RunConfig` and
/// `AppSpec` derive `Debug` over every field that can influence a run
/// (device, host timing, streams, order, memsync, seed, trace, power
/// model, fault plan, recovery policy), so two scenarios render equal
/// iff the simulator would walk the same trajectory.
pub fn preimage(cfg: &RunConfig, specs: &[AppSpec]) -> String {
    format!("sim={SIM_VERSION}|{cfg:?}|{specs:?}")
}

/// Key for one `(config, schedule)` scenario.
pub fn scenario_key(cfg: &RunConfig, specs: &[AppSpec]) -> ScenarioKey {
    ScenarioKey(fnv1a(preimage(cfg, specs).as_bytes()))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum CacheMode {
    Off,
    Memo,
    MemoAndDisk,
}

fn cache_mode() -> CacheMode {
    match std::env::var("HQ_SCENARIO_CACHE").as_deref() {
        Ok("off") | Ok("0") => CacheMode::Off,
        Ok("mem") => CacheMode::Memo,
        _ => CacheMode::MemoAndDisk,
    }
}

/// Byte budget of the in-process memo, in estimated outcome footprint
/// (see [`footprint`]). After every insert the least-recently-used
/// entries are evicted until the memo is back at or under it.
///
/// Sized from two measurements. The quick experiment suite's whole
/// memo working set is 158 entries, ~14.6 MB, so the suite never evicts
/// and keeps every in-run repeat a memo hit with 2× headroom. A served
/// cold job (gaussian+nn+nw+srad on 8 streams) is ~130 KB, nearly all
/// of it three ~2.7k-point time series, so the budget caps a
/// long-running server at ~250 such outcomes however many unique
/// scenarios it serves.
pub const MEMO_BUDGET: usize = 32 << 20;

/// One memo entry. The preimage is kept so a 64-bit hash collision is
/// detected (and degrades to a miss) instead of aliasing two scenarios.
struct MemoEntry {
    pre: String,
    out: Arc<RunOutcome>,
    bytes: usize,
    last_used: u64,
}

/// Byte-budgeted LRU of shared outcomes. Recency is a logical clock
/// bumped on every hit and insert; eviction scans linearly for the
/// oldest entry. A full memo holds ~250 cold serving outcomes or a few
/// thousand small ones, so a scan costs microseconds, paid only by an
/// insert, which follows a simulation or a disk read.
struct Memo {
    map: HashMap<u64, MemoEntry>,
    budget: usize,
    bytes: usize,
    clock: u64,
    evictions: u64,
}

impl Memo {
    fn new(budget: usize) -> Self {
        Memo {
            map: HashMap::new(),
            budget,
            bytes: 0,
            clock: 0,
            evictions: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The outcome stored for `key` if its preimage matches, marked as
    /// most recently used.
    fn get(&mut self, key: u64, pre: &str) -> Option<Arc<RunOutcome>> {
        let now = self.tick();
        let e = self.map.get_mut(&key).filter(|e| e.pre == pre)?;
        e.last_used = now;
        Some(Arc::clone(&e.out))
    }

    /// Whether `key` holds this preimage, without touching recency.
    fn contains(&self, key: u64, pre: &str) -> bool {
        self.map.get(&key).is_some_and(|e| e.pre == pre)
    }

    fn insert(&mut self, key: u64, pre: String, out: Arc<RunOutcome>) {
        let bytes = footprint(&pre, &out);
        let last_used = self.tick();
        let entry = MemoEntry {
            pre,
            out,
            bytes,
            last_used,
        };
        if let Some(old) = self.map.insert(key, entry) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        while self.bytes > self.budget {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
            else {
                break;
            };
            let e = self.map.remove(&oldest).expect("the oldest key is resident");
            self.bytes -= e.bytes;
            self.evictions += 1;
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.bytes = 0;
    }

    fn stats(&self) -> MemoStats {
        MemoStats {
            entries: self.map.len() as u64,
            bytes: self.bytes as u64,
            evictions: self.evictions,
        }
    }
}

/// Estimated heap footprint of one memo entry: every time-series point
/// and power sample at 16 bytes, trace spans, per-app stats and the
/// schedule with their label strings, and the preimage. Lengths, not
/// capacities — an estimate for budgeting, not an allocator audit.
fn footprint(pre: &str, out: &RunOutcome) -> usize {
    let r = &out.result;
    let points = [
        &r.resident_threads,
        &r.active_smx,
        &r.dma_busy[0],
        &r.dma_busy[1],
        &out.power.series,
    ]
    .iter()
    .map(|ts| ts.points().len())
    .sum::<usize>()
        + out.power.samples.len();
    let spans: usize = r
        .trace
        .spans()
        .iter()
        .map(|sp| size_of::<Span>() + sp.label.len())
        .sum();
    let apps: usize = r
        .apps
        .iter()
        .map(|a| size_of::<AppStats>() + a.label.len())
        .sum();
    let schedule: usize = out
        .schedule
        .iter()
        .map(|l| size_of::<String>() + l.len())
        .sum();
    size_of::<RunOutcome>()
        + points * size_of::<(SimTime, f64)>()
        + spans
        + apps
        + schedule
        + pre.len()
}

/// Wrap a freshly made outcome for sharing as a copy, dropping the
/// original. The simulator grows its recorded vectors by doubling; the
/// copy allocates each at its exact length, and the memo keeps an
/// outcome long after the run that made it. Measured on `serve_cold`,
/// keeping the original put peak RSS at ~69 MB against ~47 MB.
/// Trimming in place (`shrink_to_fit`) reached ~56 MB, but its
/// shrinking reallocations left later simulations in the same process
/// ~40% slower (timed on serial chaos cases: 104–106 µs/case against
/// ~60 µs/case with the copy).
fn share(out: RunOutcome) -> Arc<RunOutcome> {
    Arc::new(out.clone())
}

fn memo() -> &'static Mutex<Memo> {
    static MEMO: OnceLock<Mutex<Memo>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(Memo::new(MEMO_BUDGET)))
}

/// Point-in-time footprint of the in-process memo.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Outcomes currently held.
    pub entries: u64,
    /// Their estimated footprint in bytes; never above [`MEMO_BUDGET`]
    /// once an insert returns.
    pub bytes: u64,
    /// Process-lifetime count of entries evicted to stay in budget.
    pub evictions: u64,
}

/// Current [`MemoStats`] of the in-process memo. Surfaced in the
/// service's `--status` integrity line.
pub fn memo_stats() -> MemoStats {
    memo().lock().stats()
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static CACHE_CORRUPT: AtomicU64 = AtomicU64::new(0);

/// Process-lifetime `(hits, misses)` across every [`run_scenario`]
/// call. The suite runner samples this around each experiment to report
/// per-experiment counters.
pub fn cache_stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// Process-lifetime count of on-disk cache entries that were *present*
/// but failed integrity verification (header/CRC/preimage) and degraded
/// to a recompute. Surfaced in `--status` and `loadgen --json`; a
/// rising count means the cache store is rotting on disk and wants a
/// `hyperq scrub --repair`.
pub fn cache_corrupt_count() -> u64 {
    CACHE_CORRUPT.load(Ordering::Relaxed)
}

/// Read one on-disk entry; a file that exists but fails to decode is
/// counted corrupt and warned about — unlike a missing file, which is
/// an ordinary (silent) miss.
fn read_entry(path: &std::path::Path, pre: &str, cfg: &RunConfig) -> Option<RunOutcome> {
    let text = std::fs::read_to_string(path).ok()?;
    let out = decode(&text, pre, cfg);
    if out.is_none() {
        CACHE_CORRUPT.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "scenario-cache: corrupt entry {} (recomputing; `hyperq scrub --repair` cleans the store)",
            path.display()
        );
    }
    out
}

/// Drop only the in-process memo, leaving every counter alone. The
/// scrubber's repair pass uses this so a re-execution actually reaches
/// the disk layer and rewrites the entry it deleted — a memo hit would
/// silently skip the repopulation.
pub(crate) fn drop_memo() {
    memo().lock().clear();
}

/// Drop the in-process memo and zero the hit/miss, corruption and
/// eviction counters. Tests and benchmarks use this to measure a
/// genuinely cold run; the on-disk cache is unaffected (point
/// `HQ_RESULTS` somewhere fresh for that).
pub fn reset_cache() {
    {
        let mut memo = memo().lock();
        memo.clear();
        memo.evictions = 0;
    }
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    CACHE_CORRUPT.store(0, Ordering::Relaxed);
}

/// Directory holding on-disk entries for the current results dir.
pub fn cache_dir() -> PathBuf {
    out_dir().join(".scenario-cache")
}

/// The cache layers one call runs against: a memo, the mode, and the
/// disk directory. The public entry points use the process memo with
/// the mode and directory the environment names (re-read per call, so
/// `HQ_SCENARIO_CACHE`/`HQ_RESULTS` changes take effect at once); the
/// unit tests drive their own memo with a small budget.
struct Layers<'a> {
    memo: &'a Mutex<Memo>,
    mode: CacheMode,
    dir: PathBuf,
}

impl Layers<'static> {
    fn from_env() -> Self {
        Layers {
            memo: memo(),
            mode: cache_mode(),
            dir: cache_dir(),
        }
    }
}

impl Layers<'_> {
    fn entry_path(&self, key: ScenarioKey) -> PathBuf {
        self.dir.join(format!("{}.v{DISK_VERSION}", key.hex()))
    }

    /// The warm half of a lookup: the memo first, then (in disk mode)
    /// the disk entry, which is promoted into the memo. Counts a hit
    /// when it finds one.
    fn lookup(
        &self,
        key: ScenarioKey,
        pre: &str,
        cfg: &RunConfig,
    ) -> Option<Arc<RunOutcome>> {
        if let Some(out) = self.memo.lock().get(key.0, pre) {
            HITS.fetch_add(1, Ordering::Relaxed);
            return Some(out);
        }
        if self.mode == CacheMode::MemoAndDisk {
            if let Some(out) = read_entry(&self.entry_path(key), pre, cfg) {
                HITS.fetch_add(1, Ordering::Relaxed);
                let out = share(out);
                self.memo.lock().insert(key.0, pre.to_string(), Arc::clone(&out));
                return Some(out);
            }
        }
        None
    }

    /// Look the scenario up, else simulate it and insert the outcome
    /// into the memo at once. In disk mode a fresh outcome also comes
    /// with the [`EntryWrite`] that puts it on disk, for the caller to
    /// run when it suits.
    fn run_deferred(
        &self,
        cfg: &RunConfig,
        specs: &[AppSpec],
    ) -> Result<(Arc<RunOutcome>, Option<EntryWrite>), SimError> {
        if self.mode == CacheMode::Off {
            return Ok((Arc::new(run_schedule(cfg, specs)?), None));
        }
        let pre = preimage(cfg, specs);
        let key = ScenarioKey(fnv1a(pre.as_bytes()));
        if let Some(out) = self.lookup(key, &pre, cfg) {
            return Ok((out, None));
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
        let out = share(run_schedule(cfg, specs)?);
        let entry = (self.mode == CacheMode::MemoAndDisk).then(|| EntryWrite {
            path: self.entry_path(key),
            pre: pre.clone(),
            out: Arc::clone(&out),
        });
        self.memo.lock().insert(key.0, pre, Arc::clone(&out));
        Ok((out, entry))
    }

    /// [`Layers::run_deferred`], writing the disk entry before it
    /// returns.
    fn run(&self, cfg: &RunConfig, specs: &[AppSpec]) -> Result<Arc<RunOutcome>, SimError> {
        let (out, entry) = self.run_deferred(cfg, specs)?;
        if let Some(entry) = entry {
            entry.write();
        }
        Ok(out)
    }

    fn is_warm(&self, cfg: &RunConfig, specs: &[AppSpec]) -> bool {
        if self.mode == CacheMode::Off {
            return false;
        }
        let pre = preimage(cfg, specs);
        let key = ScenarioKey(fnv1a(pre.as_bytes()));
        self.memo.lock().contains(key.0, &pre)
            || (self.mode == CacheMode::MemoAndDisk
                && read_entry(&self.entry_path(key), &pre, cfg).is_some())
    }
}

/// A freshly simulated outcome's disk entry, not yet written. The
/// outcome is already in the memo, so repeats in this process hit
/// whether or not the entry has reached the disk.
pub struct EntryWrite {
    path: PathBuf,
    pre: String,
    out: Arc<RunOutcome>,
}

impl EntryWrite {
    /// Encode the entry and write it atomically. Best-effort: a failed
    /// write, like an entry never written, is only a future miss.
    pub fn write(self) {
        let Some(dir) = self.path.parent() else {
            return;
        };
        if std::fs::create_dir_all(dir).is_ok() {
            let _ = write_atomic(&self.path, &encode(&self.pre, &self.out));
        }
    }
}

/// Run one scenario through the cache: memo first, then the disk
/// cache, then a real [`run_schedule`] simulation (whose outcome is
/// inserted into both layers before this returns). Errors are never
/// cached. This is the choke point every experiment's simulation goes
/// through; call
/// [`run_schedule`] directly to bypass the cache (as the perf
/// benchmarks measuring raw simulator throughput do). The outcome is
/// shared with the memo, so a hit costs a refcount bump.
pub fn run_scenario(cfg: &RunConfig, specs: &[AppSpec]) -> Result<Arc<RunOutcome>, SimError> {
    Layers::from_env().run(cfg, specs)
}

/// [`run_scenario`] for a workload given as app kinds: builds the
/// schedule exactly as [`hyperq_core::harness::run_workload`] does,
/// then routes it through the cache.
pub fn run_scenario_workload(
    cfg: &RunConfig,
    kinds: &[AppKind],
) -> Result<Arc<RunOutcome>, SimError> {
    let specs = build_schedule(kinds, cfg.order, cfg.seed);
    run_scenario(cfg, &specs)
}

/// [`run_scenario_workload`] that leaves a fresh outcome's disk entry
/// to the caller: the outcome is in the memo when this returns, and
/// the returned [`EntryWrite`] (disk mode, cache misses only) puts it
/// on disk. The service answers a job first and writes its entry
/// after.
pub fn run_workload_deferred(
    cfg: &RunConfig,
    kinds: &[AppKind],
) -> Result<(Arc<RunOutcome>, Option<EntryWrite>), SimError> {
    let specs = build_schedule(kinds, cfg.order, cfg.seed);
    Layers::from_env().run_deferred(cfg, &specs)
}

/// Probe whether a workload scenario would be a cache hit *without*
/// running it: a memo entry whose preimage matches, or (in disk mode) a
/// disk entry that decodes against the preimage. The service's brownout
/// admission check uses this to tell warm work — serviceable at
/// negligible cost even under overload — from cold work to shed.
pub fn scenario_is_warm(cfg: &RunConfig, kinds: &[AppKind]) -> bool {
    let specs = build_schedule(kinds, cfg.order, cfg.seed);
    Layers::from_env().is_warm(cfg, &specs)
}

/// Encode an outcome exactly as its cache entry would be written — the
/// byte-identity tests compare uncached and cached runs through this
/// (the `perf ` line carries wall-clock numbers and is the one
/// documented-nondeterministic line; strip it before comparing).
pub fn encode_outcome(cfg: &RunConfig, specs: &[AppSpec], out: &RunOutcome) -> String {
    encode(&preimage(cfg, specs), out)
}

/// Structural integrity check of one on-disk cache entry, for `hyperq
/// scrub`: header version, body CRC, and — when `expect_key` is the
/// entry's filename stem — that the stored preimage actually hashes to
/// the key the file claims to answer for. Cheaper than a full
/// [`decode`] (no `RunConfig` needed) and catches exactly the damage
/// classes the cache itself degrades on.
pub fn verify_cache_entry(text: &str, expect_key: Option<u64>) -> Result<(), String> {
    let body = checked_body(text).ok_or("bad header, CRC mismatch, or truncated body")?;
    let mut c = Cursor::new(body);
    let stored_pre = c.tagged("pre").ok_or("missing preimage line")?;
    if stored_pre.len() != 1 {
        return Err("malformed preimage line".to_string());
    }
    let pre = unesc(stored_pre[0]).ok_or("unescapable preimage")?;
    if let Some(key) = expect_key {
        if fnv1a(pre.as_bytes()) != key {
            return Err(format!(
                "preimage hashes to {:016x}, file claims {key:016x}",
                fnv1a(pre.as_bytes())
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// On-disk encoding.
//
// Entry bytes are pinned: the golden digests in `tests/golden.rs`
// hash them, and entries already on disk must keep decoding. So
// entries use a line-oriented text format rather than JSON: a header with
// the format version, the escaped key preimage (verified on load), and
// one section per `RunOutcome` component. Floats are rendered with
// `{:?}` (Rust's shortest round-trip representation) and times as
// nanosecond integers, so a decode is bit-exact. The `PowerReport` and
// the result's `DeviceConfig` are *not* stored: power is recomputed
// from the decoded result (a pure function), and the device is the
// config's device — except for its `hw_queues`, which the Degrade
// recovery policy rewrites to 1, so that one field is stored.
// ---------------------------------------------------------------------

fn opt_time(t: Option<SimTime>) -> String {
    match t {
        Some(t) => t.as_ns().to_string(),
        None => "-".to_string(),
    }
}

fn parse_opt_time(tok: &str) -> Option<Option<SimTime>> {
    if tok == "-" {
        return Some(None);
    }
    tok.parse::<u64>().ok().map(|ns| Some(SimTime::from_ns(ns)))
}

fn span_kind_code(k: SpanKind) -> u8 {
    match k {
        SpanKind::CopyHtoD => 0,
        SpanKind::CopyDtoH => 1,
        SpanKind::Kernel => 2,
        SpanKind::Host => 3,
    }
}

fn span_kind_from(code: u64) -> Option<SpanKind> {
    Some(match code {
        0 => SpanKind::CopyHtoD,
        1 => SpanKind::CopyDtoH,
        2 => SpanKind::Kernel,
        3 => SpanKind::Host,
        _ => return None,
    })
}

fn fault_kind_code(k: FaultKind) -> u8 {
    match k {
        FaultKind::CopyFail => 0,
        FaultKind::KernelFault => 1,
        FaultKind::KernelHang => 2,
    }
}

fn fault_kind_from(code: u64) -> Option<FaultKind> {
    Some(match code {
        0 => FaultKind::CopyFail,
        1 => FaultKind::KernelFault,
        2 => FaultKind::KernelHang,
        _ => return None,
    })
}

fn push_series(out: &mut String, tag: &str, ts: &TimeSeries) {
    let _ = writeln!(out, "{tag} {}", ts.points().len());
    for &(t, v) in ts.points() {
        let _ = writeln!(out, "{} {:?}", t.as_ns(), v);
    }
}

fn push_transfers(out: &mut String, tag: &str, t: &TransferStats) {
    let _ = writeln!(
        out,
        "{tag} {} {} {} {} {}",
        t.count,
        t.bytes,
        opt_time(t.first_start),
        opt_time(t.last_end),
        t.service_time.as_ns()
    );
}

fn encode(pre: &str, out: &RunOutcome) -> String {
    let body = encode_body(pre, out);
    format!(
        "hq-scenario v{DISK_VERSION}\ncrc {:016x}\n{body}",
        fnv1a(body.as_bytes())
    )
}

fn encode_body(pre: &str, out: &RunOutcome) -> String {
    let r = &out.result;
    let mut s = String::with_capacity(4096);
    let _ = writeln!(s, "pre {}", esc(pre));
    let _ = writeln!(s, "retries {}", out.retries);
    let _ = writeln!(s, "degraded {}", u8::from(out.degraded));
    let _ = writeln!(s, "hwq {}", r.device.hw_queues);
    let _ = writeln!(s, "makespan {}", r.makespan.as_ns());
    let _ = writeln!(s, "events {}", r.events);
    let p = r.perf;
    let _ = writeln!(
        s,
        "perf {} {:?} {:?} {} {} {} {:?} {} {}",
        p.events,
        p.wall_secs,
        p.events_per_sec,
        p.peak_pending,
        p.cancelled,
        p.stale_cancels,
        p.tombstone_ratio,
        p.refills,
        p.skipped
    );
    let f = r.faults;
    let _ = writeln!(
        s,
        "faults {} {} {} {} {} {} {} {}",
        f.copy_faults,
        f.kernel_faults,
        f.watchdog_kills,
        f.watchdog_rearms,
        f.ops_errored,
        f.forced_mutex_releases,
        f.leaked_residency,
        f.held_mutexes
    );
    let _ = writeln!(s, "schedule {}", out.schedule.len());
    for label in &out.schedule {
        let _ = writeln!(s, "{}", esc(label));
    }
    let _ = writeln!(s, "apps {}", r.apps.len());
    for a in &r.apps {
        let outcome = match a.outcome {
            AppOutcome::Completed => "ok".to_string(),
            AppOutcome::Failed { reason } => format!("fail {}", fault_kind_code(reason)),
            AppOutcome::Retried { attempts } => format!("retry {attempts}"),
        };
        let _ = writeln!(
            s,
            "a {} {} {} {} {} {} {} {} {} {}",
            a.app.0,
            a.stream.0,
            esc(&a.label),
            opt_time(a.started),
            opt_time(a.finished),
            a.kernels_completed,
            opt_time(a.first_kernel_start),
            opt_time(a.last_kernel_end),
            a.faults,
            outcome
        );
        push_transfers(&mut s, "h", &a.htod);
        push_transfers(&mut s, "d", &a.dtoh);
    }
    push_series(&mut s, "ts", &r.resident_threads);
    push_series(&mut s, "ts", &r.active_smx);
    push_series(&mut s, "ts", &r.dma_busy[0]);
    push_series(&mut s, "ts", &r.dma_busy[1]);
    let _ = writeln!(s, "trace {} {}", u8::from(r.trace.is_enabled()), r.trace.spans().len());
    for sp in r.trace.spans() {
        let _ = writeln!(
            s,
            "x {} {} {} {} {}",
            sp.lane,
            span_kind_code(sp.kind),
            esc(&sp.label),
            sp.start.as_ns(),
            sp.end.as_ns()
        );
    }
    s.push_str("end\n");
    s
}

// Scenario-specific extensions over the shared line [`Cursor`] (the
// cursor itself lives in `util::codec`; truncated or corrupt input
// decodes to `None` — a cache miss — never a panic).

fn read_series(c: &mut Cursor<'_>) -> Option<TimeSeries> {
    let n = c.tagged_u64("ts")?;
    let mut points = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let line = c.line()?;
        let (t, v) = line.split_once(' ')?;
        points.push((SimTime::from_ns(t.parse().ok()?), v.parse().ok()?));
    }
    if !points.windows(2).all(|w: &[(SimTime, f64)]| w[0].0 <= w[1].0) {
        return None;
    }
    // `from_points` (not `set`): recorded series may legitimately
    // hold repeated values, which `set` would dedupe away.
    Some(TimeSeries::from_points(points))
}

fn read_transfers(c: &mut Cursor<'_>, tag: &str) -> Option<TransferStats> {
    let t = c.tagged(tag)?;
    if t.len() != 5 {
        return None;
    }
    Some(TransferStats {
        count: t[0].parse().ok()?,
        bytes: t[1].parse().ok()?,
        first_start: parse_opt_time(t[2])?,
        last_end: parse_opt_time(t[3])?,
        service_time: Dur::from_ns(t[4].parse().ok()?),
    })
}

/// Split an entry's raw text into its body after verifying the header
/// version and the body CRC. Shared by [`decode`] and the scrubber's
/// [`verify_cache_entry`]: any single corrupt byte — header, CRC line
/// or body — fails here rather than mis-parsing downstream.
fn checked_body(text: &str) -> Option<&str> {
    if !text.ends_with("end\n") {
        return None;
    }
    let (header, rest) = text.split_once('\n')?;
    if header != format!("hq-scenario v{DISK_VERSION}") {
        return None;
    }
    let (crc_line, body) = rest.split_once('\n')?;
    let crc = crc_line.strip_prefix("crc ")?;
    if crc.len() != 16 || u64::from_str_radix(crc, 16).ok()? != fnv1a(body.as_bytes()) {
        return None;
    }
    Some(body)
}

fn decode(text: &str, pre: &str, cfg: &RunConfig) -> Option<RunOutcome> {
    // Atomic writes mean a file is either complete or absent, but a
    // version bump, a corrupt byte, or a concurrent writer racing the
    // same entry must degrade to a miss: verify header, CRC, preimage
    // and trailer.
    let mut c = Cursor::new(checked_body(text)?);
    let stored_pre = c.tagged("pre")?;
    if stored_pre.len() != 1 || unesc(stored_pre[0])? != pre {
        return None;
    }
    let retries = c.tagged_u64("retries")? as u32;
    let degraded = c.tagged_u64("degraded")? != 0;
    let hw_queues = c.tagged_u64("hwq")? as u32;
    let makespan = SimTime::from_ns(c.tagged_u64("makespan")?);
    let events = c.tagged_u64("events")?;
    let p = c.tagged("perf")?;
    // Entries written before the refill and skip counters existed carry
    // seven or eight fields; their trajectory is the same, the missing
    // counts unknown (read as 0).
    if !(7..=9).contains(&p.len()) {
        return None;
    }
    let count = |i: usize| p.get(i).map_or(Some(0), |v| v.parse().ok());
    let perf = SimPerf {
        events: p[0].parse().ok()?,
        wall_secs: p[1].parse().ok()?,
        events_per_sec: p[2].parse().ok()?,
        peak_pending: p[3].parse().ok()?,
        cancelled: p[4].parse().ok()?,
        stale_cancels: p[5].parse().ok()?,
        tombstone_ratio: p[6].parse().ok()?,
        refills: count(7)?,
        skipped: count(8)?,
    };
    let f = c.tagged("faults")?;
    if f.len() != 8 {
        return None;
    }
    let faults = FaultCounters {
        copy_faults: f[0].parse().ok()?,
        kernel_faults: f[1].parse().ok()?,
        watchdog_kills: f[2].parse().ok()?,
        watchdog_rearms: f[3].parse().ok()?,
        ops_errored: f[4].parse().ok()?,
        forced_mutex_releases: f[5].parse().ok()?,
        leaked_residency: f[6].parse().ok()?,
        held_mutexes: f[7].parse().ok()?,
    };
    let nsched = c.tagged_u64("schedule")?;
    let mut schedule = Vec::with_capacity(nsched as usize);
    for _ in 0..nsched {
        schedule.push(unesc(c.line()?)?);
    }
    let napps = c.tagged_u64("apps")?;
    let mut apps = Vec::with_capacity(napps as usize);
    for _ in 0..napps {
        let a = c.tagged("a")?;
        if a.len() < 10 {
            return None;
        }
        let outcome = match a[9] {
            "ok" if a.len() == 10 => AppOutcome::Completed,
            "fail" if a.len() == 11 => AppOutcome::Failed {
                reason: fault_kind_from(a[10].parse().ok()?)?,
            },
            "retry" if a.len() == 11 => AppOutcome::Retried {
                attempts: a[10].parse().ok()?,
            },
            _ => return None,
        };
        let htod = read_transfers(&mut c, "h")?;
        let dtoh = read_transfers(&mut c, "d")?;
        apps.push(AppStats {
            app: AppId(a[0].parse().ok()?),
            stream: StreamId(a[1].parse().ok()?),
            label: unesc(a[2])?,
            started: parse_opt_time(a[3])?,
            finished: parse_opt_time(a[4])?,
            htod,
            dtoh,
            kernels_completed: a[5].parse().ok()?,
            first_kernel_start: parse_opt_time(a[6])?,
            last_kernel_end: parse_opt_time(a[7])?,
            outcome,
            faults: a[8].parse().ok()?,
        });
    }
    let resident_threads = read_series(&mut c)?;
    let active_smx = read_series(&mut c)?;
    let dma0 = read_series(&mut c)?;
    let dma1 = read_series(&mut c)?;
    let t = c.tagged("trace")?;
    if t.len() != 2 {
        return None;
    }
    let mut trace = if t[0] == "1" {
        TraceLog::enabled()
    } else {
        TraceLog::disabled()
    };
    let nspans = t[1].parse::<u64>().ok()?;
    for _ in 0..nspans {
        let x = c.tagged("x")?;
        if x.len() != 5 {
            return None;
        }
        trace.push(Span {
            lane: x[0].parse().ok()?,
            kind: span_kind_from(x[1].parse().ok()?)?,
            label: unesc(x[2])?,
            start: SimTime::from_ns(x[3].parse().ok()?),
            end: SimTime::from_ns(x[4].parse().ok()?),
        });
    }
    if c.line()? != "end" || c.line().is_some() {
        return None;
    }
    // The run's device is the config's device, except Degrade recovery
    // reruns through a single hardware queue (see `harness::degrade`).
    let mut device = cfg.device.clone();
    device.hw_queues = hw_queues;
    let result = SimResult {
        device,
        makespan,
        apps,
        trace,
        resident_threads,
        active_smx,
        dma_busy: [dma0, dma1],
        events,
        perf,
        faults,
    };
    // Power is a pure function of the result and the configured model —
    // recomputed, not stored, exactly as `run_schedule` derives it.
    let power = PowerMonitor::with_period(cfg.power, cfg.sample_period).measure(&result);
    Some(RunOutcome {
        schedule,
        result,
        power,
        retries,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperq_core::harness::pair_workload;

    fn sample_outcome(cfg: &RunConfig, specs: &[AppSpec]) -> RunOutcome {
        run_schedule(cfg, specs).expect("sample run")
    }

    fn sample_cfg() -> RunConfig {
        RunConfig::concurrent(4).with_seed(7).with_trace(true)
    }

    fn sample_specs(cfg: &RunConfig) -> Vec<AppSpec> {
        build_schedule(
            &pair_workload(AppKind::Needle, AppKind::Knearest, 4),
            cfg.order,
            cfg.seed,
        )
    }

    /// Byte-exact round-trip through the disk encoding: a decoded
    /// outcome re-encodes to the identical text, and every field the
    /// experiments consume survives.
    #[test]
    fn disk_encoding_round_trips() {
        let cfg = sample_cfg();
        let specs = sample_specs(&cfg);
        let pre = preimage(&cfg, &specs);
        let out = sample_outcome(&cfg, &specs);
        let text = encode(&pre, &out);
        let back = decode(&text, &pre, &cfg).expect("decodes");
        assert_eq!(encode(&pre, &back), text, "re-encode differs");
        assert_eq!(back.schedule, out.schedule);
        assert_eq!(back.result.makespan, out.result.makespan);
        assert_eq!(back.result.events, out.result.events);
        assert_eq!(back.result.apps.len(), out.result.apps.len());
        for (a, b) in back.result.apps.iter().zip(&out.result.apps) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.finished, b.finished);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.htod.bytes, b.htod.bytes);
        }
        assert_eq!(
            back.result.resident_threads.points(),
            out.result.resident_threads.points()
        );
        assert_eq!(back.result.trace.spans().len(), out.result.trace.spans().len());
        assert_eq!(back.result.device, out.result.device);
        assert!((back.power.energy_j - out.power.energy_j).abs() < 1e-12);
        assert_eq!(back.retries, out.retries);
        assert_eq!(back.degraded, out.degraded);
    }

    /// Entries written before the refill and skip counters existed
    /// carry seven or eight `perf` fields: they still decode, the
    /// missing counts read 0, and every other field is unchanged. A
    /// line of any other length is corrupt.
    #[test]
    fn decode_reads_older_perf_lines() {
        let cfg = sample_cfg();
        let specs = sample_specs(&cfg);
        let pre = preimage(&cfg, &specs);
        let out = sample_outcome(&cfg, &specs);
        let body = encode_body(&pre, &out);
        let perf = body.lines().find(|l| l.starts_with("perf ")).expect("perf line");
        let fields: Vec<&str> = perf.split(' ').collect();
        assert_eq!(fields.len(), 10, "tag and nine fields");
        // The entry with its perf line replaced, under a matching CRC.
        let entry = |line: &str| {
            let body = body.replacen(perf, line, 1);
            format!(
                "hq-scenario v{DISK_VERSION}\ncrc {:016x}\n{body}",
                fnv1a(body.as_bytes())
            )
        };
        let p = out.result.perf;
        for (n, refills) in [(7, 0), (8, p.refills)] {
            let line = fields[..=n].join(" ");
            let back = decode(&entry(&line), &pre, &cfg).expect("older entry decodes");
            assert_eq!((back.result.perf.refills, back.result.perf.skipped), (refills, 0));
            let again = encode_body(&pre, &back);
            let again_perf = again.lines().find(|l| l.starts_with("perf ")).expect("perf line");
            assert_eq!(again.replacen(again_perf, perf, 1), body, "{n} fields");
        }
        assert!(decode(&entry(&fields[..=6].join(" ")), &pre, &cfg).is_none());
        assert!(decode(&entry(&format!("{perf} 0")), &pre, &cfg).is_none());
    }

    /// A preimage mismatch (hash collision, stale key) is a miss.
    #[test]
    fn decode_rejects_wrong_preimage() {
        let cfg = sample_cfg();
        let specs = sample_specs(&cfg);
        let pre = preimage(&cfg, &specs);
        let out = sample_outcome(&cfg, &specs);
        let text = encode(&pre, &out);
        assert!(decode(&text, "something else", &cfg).is_none());
    }

    /// Truncated or corrupted entries decode to `None`, never panic.
    #[test]
    fn decode_rejects_truncation_and_corruption() {
        let cfg = sample_cfg();
        let specs = sample_specs(&cfg);
        let pre = preimage(&cfg, &specs);
        let out = sample_outcome(&cfg, &specs);
        let text = encode(&pre, &out);
        for cut in [0, 1, text.len() / 3, text.len() - 1] {
            assert!(decode(&text[..cut], &pre, &cfg).is_none(), "cut at {cut}");
        }
        let garbled = text.replacen("perf", "prf", 1);
        assert!(decode(&garbled, &pre, &cfg).is_none());
        let stale = text.replacen(
            &format!("hq-scenario v{DISK_VERSION}"),
            "hq-scenario v0",
            1,
        );
        assert!(decode(&stale, &pre, &cfg).is_none());
    }

    /// The v2 CRC makes *every* single-byte corruption detectable —
    /// including flips inside numeric fields that still parse as
    /// numbers, which the line grammar alone could mis-parse as a
    /// different (wrong) outcome.
    #[test]
    fn single_byte_corruption_is_always_detected() {
        let cfg = sample_cfg();
        let specs = sample_specs(&cfg);
        let pre = preimage(&cfg, &specs);
        let out = sample_outcome(&cfg, &specs);
        let text = encode(&pre, &out);
        assert!(verify_cache_entry(&text, Some(fnv1a(pre.as_bytes()))).is_ok());
        let bytes = text.as_bytes();
        // Sampled positions across the whole entry (every byte would be
        // slow on the long series sections); step is coprime-ish so all
        // sections get coverage.
        let step = (bytes.len() / 97).max(1);
        for pos in (0..bytes.len()).step_by(step) {
            let mut bad = bytes.to_vec();
            bad[pos] ^= 0x01;
            let bad = match String::from_utf8(bad) {
                Ok(s) => s,
                Err(_) => continue, // non-UTF-8 never reaches decode
            };
            assert!(
                decode(&bad, &pre, &cfg).is_none(),
                "flipped byte at {pos} was mis-parsed"
            );
            assert!(verify_cache_entry(&bad, None).is_err(), "flip at {pos}");
        }
    }

    /// Differing seeds, devices, fault plans and schedules must all
    /// produce distinct keys; identical inputs the same key.
    #[test]
    fn keys_are_structural() {
        let cfg = sample_cfg();
        let specs = sample_specs(&cfg);
        assert_eq!(scenario_key(&cfg, &specs), scenario_key(&cfg.clone(), &specs));
        assert_ne!(
            scenario_key(&cfg, &specs),
            scenario_key(&cfg.clone().with_seed(8), &specs)
        );
        let mut k40 = cfg.clone();
        k40.device = hq_gpu::config::DeviceConfig::tesla_k40();
        assert_ne!(scenario_key(&cfg, &specs), scenario_key(&k40, &specs));
        let mut swapped = specs.clone();
        swapped.swap(0, 1);
        assert_ne!(scenario_key(&cfg, &specs), scenario_key(&cfg, &swapped));
    }

    /// Equal-length stand-in preimages, so every test entry built from
    /// one outcome has the same footprint.
    fn fake_pre(i: u64) -> String {
        format!("test-scenario-{i:04}")
    }

    /// A shared sample outcome, its per-entry footprint under a
    /// [`fake_pre`] preimage, and a memo whose budget holds `n` of them.
    fn memo_holding(n: usize) -> (Arc<RunOutcome>, usize, Memo) {
        let cfg = sample_cfg();
        let out = Arc::new(sample_outcome(&cfg, &sample_specs(&cfg)));
        let per = footprint(&fake_pre(0), &out);
        (out, per, Memo::new(per * n + per / 2))
    }

    /// The cache entry encoding minus the wall-clock `perf ` line and
    /// the `crc ` line that covers it.
    fn deterministic(text: &str) -> Vec<&str> {
        text.lines()
            .filter(|l| !l.starts_with("perf ") && !l.starts_with("crc "))
            .collect()
    }

    #[test]
    fn memo_bytes_never_exceed_the_budget() {
        let (out, per, mut memo) = memo_holding(3);
        assert!(per > 10_000, "a traced sample outcome is not tiny: {per} B");
        for i in 0..20 {
            memo.insert(i, fake_pre(i), Arc::clone(&out));
            assert!(memo.bytes <= memo.budget, "over budget after insert {i}");
        }
        // Re-inserting a resident key replaces it, never double-counts.
        memo.insert(19, fake_pre(19), Arc::clone(&out));
        let st = memo.stats();
        assert_eq!(st.entries, 3);
        assert_eq!(st.bytes as usize, 3 * per);
        assert_eq!(st.evictions, 17, "one eviction per insert past the third");
        memo.clear();
        assert_eq!(memo.stats().bytes, 0);
        assert_eq!(memo.stats().evictions, 17, "clearing is not evicting");
    }

    #[test]
    fn a_recently_hit_entry_outlives_a_colder_one() {
        let (out, _, mut memo) = memo_holding(3);
        for i in 0..3 {
            memo.insert(i, fake_pre(i), Arc::clone(&out));
        }
        assert!(memo.get(0, &fake_pre(0)).is_some());
        memo.insert(3, fake_pre(3), Arc::clone(&out));
        assert!(memo.contains(0, &fake_pre(0)), "the hit entry was evicted");
        assert!(!memo.contains(1, &fake_pre(1)), "the coldest entry survived");
        assert!(memo.contains(2, &fake_pre(2)) && memo.contains(3, &fake_pre(3)));
        // A preimage mismatch is a miss and does not refresh anything.
        assert!(memo.get(2, "another scenario").is_none());
        assert_eq!(memo.stats().evictions, 1);
    }

    #[test]
    fn a_held_outcome_stays_valid_after_its_eviction() {
        let (out, _, mut memo) = memo_holding(2);
        memo.insert(0, fake_pre(0), out);
        let held = memo.get(0, &fake_pre(0)).expect("resident");
        let before = encode(&fake_pre(0), &held);
        for i in 1..6 {
            let copy = Arc::new(RunOutcome::clone(&held));
            memo.insert(i, fake_pre(i), copy);
        }
        assert!(!memo.contains(0, &fake_pre(0)), "entry 0 must be evicted");
        assert_eq!(Arc::strong_count(&held), 1, "the caller owns the last reference");
        assert_eq!(encode(&fake_pre(0), &held), before);
    }

    /// Eviction is invisible to callers: an evicted scenario comes back
    /// byte-identical — re-simulated in `mem` mode, decoded from its
    /// disk entry otherwise.
    #[test]
    fn an_evicted_scenario_comes_back_byte_identical() {
        let cfg = sample_cfg();
        let specs = sample_specs(&cfg);
        let other = cfg.clone().with_seed(8);
        let other_specs = sample_specs(&other);
        let per = footprint(&preimage(&cfg, &specs), &sample_outcome(&cfg, &specs));
        for mode in [CacheMode::Memo, CacheMode::MemoAndDisk] {
            let dir = std::env::temp_dir().join(format!(
                "hq-memo-evict-{}-{}",
                std::process::id(),
                mode == CacheMode::Memo
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let memo = Mutex::new(Memo::new(per + per / 2));
            let layers = Layers {
                memo: &memo,
                mode,
                dir: dir.clone(),
            };
            let first = layers.run(&cfg, &specs).expect("first run");
            layers.run(&other, &other_specs).expect("evicting run");
            let key = scenario_key(&cfg, &specs).0;
            assert!(!memo.lock().contains(key, &preimage(&cfg, &specs)));
            assert!(memo.lock().stats().evictions >= 1);
            let (_, m0) = cache_stats();
            let again = layers.run(&cfg, &specs).expect("run after eviction");
            let (_, m1) = cache_stats();
            assert!(!Arc::ptr_eq(&first, &again), "served a fresh outcome");
            let (a, b) = (
                encode_outcome(&cfg, &specs, &first),
                encode_outcome(&cfg, &specs, &again),
            );
            assert_eq!(deterministic(&a), deterministic(&b));
            if mode == CacheMode::Memo {
                assert!(m1 > m0, "mem mode re-simulates an evicted scenario");
            } else {
                // The disk entry stores the wall-clock perf line
                // verbatim: equal bytes *including* it prove the
                // outcome was decoded, not re-simulated.
                assert_eq!(a, b);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The memo layer serves an identical scenario without resimulating
    /// and the counters record it.
    #[test]
    fn memo_hit_returns_identical_outcome() {
        // Keep this test off the disk: memo-only mode.
        std::env::set_var("HQ_SCENARIO_CACHE", "mem");
        let cfg = RunConfig::concurrent(2).with_seed(0xCAFE);
        let specs = build_schedule(
            &pair_workload(AppKind::Needle, AppKind::Knearest, 2),
            cfg.order,
            cfg.seed,
        );
        let (h0, m0) = cache_stats();
        let a = run_scenario(&cfg, &specs).expect("first run");
        let b = run_scenario(&cfg, &specs).expect("second run");
        let (h1, m1) = cache_stats();
        std::env::remove_var("HQ_SCENARIO_CACHE");
        assert!(m1 > m0, "first run must miss");
        assert!(h1 > h0, "second run must hit");
        assert_eq!(a.result.makespan, b.result.makespan);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.result.events, b.result.events);
    }
}
