//! Host I/O facade with deterministic fault injection.
//!
//! Every durability-bearing I/O operation in the crate — journal
//! appends and fsyncs, `write_atomic` for artifacts and cache entries,
//! the directory fsyncs that make renames durable — routes through this
//! module instead of calling `std::fs` directly. In production nothing
//! is installed and every function is a passthrough guarded by a single
//! relaxed atomic load. Under test, [`install`] arms a seeded
//! [`IoFaultPlan`] and the same call sites start experiencing the
//! faults a long-running host actually sees:
//!
//! * **short writes** — a prefix of the buffer reaches the disk, then
//!   the write errors (torn record / torn artifact);
//! * **EINTR** — transparently retried inside the facade, counted, and
//!   never surfaced (the one fault a caller must *not* see);
//! * **fsync EIO with fsyncgate semantics** — when fsync fails the
//!   kernel has already dropped the dirty pages, so the facade
//!   truncates the file back to its last successfully-synced length and
//!   *poisons* it: every later fsync on the same path fails too.
//!   Retrying fsync after an error and treating success as durability
//!   is the classic fsyncgate bug; the poison makes that bug fail tests
//!   loudly instead of silently losing data;
//! * **ENOSPC** — the write fails before any byte lands;
//! * **torn renames** — the rename errors inside the crash window, the
//!   destination keeps its old bytes;
//! * **post-write bit flips** — after a successful write one byte of
//!   the just-written range is flipped on disk (silent media
//!   corruption for `hyperq scrub` to find).
//!
//! All decisions derive from the plan seed and a per-operation counter,
//! so a failing torture case replays byte-identically. The plan is
//! process-global; [`install`] holds a lock for the guard's lifetime so
//! concurrent tests serialize instead of interleaving fault streams.

use std::collections::{HashMap, HashSet};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Seeded fault plan. Rates are per-mille (0–1000) per operation; a
/// zero rate disables that fault. `path_filter` (substring match on the
/// operated-on path, empty = all paths) scopes faults, e.g. to the
/// scenario cache only.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IoFaultPlan {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Per-mille rate of short writes (prefix lands, then error).
    pub short_write_pm: u16,
    /// Per-mille rate of injected-and-retried EINTRs per write.
    pub eintr_pm: u16,
    /// Per-mille rate of fsync EIO; poisons the file (fsyncgate).
    pub fsync_eio_pm: u16,
    /// Per-mille rate of ENOSPC (write fails, nothing lands).
    pub enospc_pm: u16,
    /// Per-mille rate of torn renames (error, destination unchanged).
    pub torn_rename_pm: u16,
    /// Per-mille rate of post-write single-byte flips on disk.
    pub bitflip_pm: u16,
    /// Substring filter on paths; empty applies the plan everywhere.
    pub path_filter: String,
}

/// Counts of injected faults, for assertions and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IoFaultStats {
    /// Short writes injected.
    pub short_writes: u64,
    /// EINTRs injected (and transparently retried).
    pub eintr: u64,
    /// fsync EIOs injected (first hits plus poisoned repeats).
    pub fsync_eio: u64,
    /// ENOSPC errors injected.
    pub enospc: u64,
    /// Torn renames injected.
    pub torn_renames: u64,
    /// Post-write bit flips injected.
    pub bitflips: u64,
}

impl IoFaultStats {
    /// Total injected faults (excluding retried EINTRs, which are
    /// invisible to callers by design).
    pub fn total(&self) -> u64 {
        self.short_writes + self.fsync_eio + self.enospc + self.torn_renames + self.bitflips
    }
}

struct FaultState {
    plan: IoFaultPlan,
    op: u64,
    stats: IoFaultStats,
    /// Files whose fsync has failed: dirty pages are gone, every later
    /// fsync on the path keeps failing (fsyncgate).
    poisoned: HashSet<PathBuf>,
    /// Last length known durable per path, so an injected fsync EIO
    /// drops exactly the unsynced tail — never previously-synced data.
    synced_len: HashMap<PathBuf, u64>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<FaultState>> = Mutex::new(None);
static INSTALL: Mutex<()> = Mutex::new(());

fn state() -> MutexGuard<'static, Option<FaultState>> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Guard returned by [`install`]; dropping it disarms the plan and
/// releases the global install lock.
pub struct FaultGuard {
    _serialize: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::Release);
        *state() = None;
    }
}

/// Arm a fault plan for the guard's lifetime. Serializes with any other
/// installer (the plan is process-global state).
pub fn install(plan: IoFaultPlan) -> FaultGuard {
    let serialize = INSTALL.lock().unwrap_or_else(|e| e.into_inner());
    *state() = Some(FaultState {
        plan,
        op: 0,
        stats: IoFaultStats::default(),
        poisoned: HashSet::new(),
        synced_len: HashMap::new(),
    });
    ACTIVE.store(true, Ordering::Release);
    FaultGuard {
        _serialize: serialize,
    }
}

/// A `path_filter` scoping a plan to the directory holding `path`
/// (trailing separator included, so `dir-a` never matches `dir-ab`).
/// Tests arm plans through this: the shim is process-global, and an
/// unscoped plan would inject faults into whatever sibling tests on
/// other threads happen to write meanwhile.
#[cfg(test)]
pub(crate) fn dir_filter(path: &Path) -> String {
    let dir = path.parent().expect("a file inside a test directory");
    format!("{}{}", dir.display(), std::path::MAIN_SEPARATOR)
}

/// Whether a fault plan is currently armed.
pub fn faults_active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// Snapshot of the injected-fault counters (zeroes when no plan).
pub fn fault_stats() -> IoFaultStats {
    state().as_ref().map(|s| s.stats).unwrap_or_default()
}

/// Deterministic 64-bit mixer shared by the I/O and network fault
/// plans: same seed, same fault stream.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn inject_err(msg: String) -> std::io::Error {
    std::io::Error::other(msg)
}

impl FaultState {
    fn matches(&self, path: &Path) -> bool {
        self.plan.path_filter.is_empty()
            || path.to_string_lossy().contains(&self.plan.path_filter)
    }

    fn rng(&mut self) -> u64 {
        self.op = self.op.wrapping_add(1);
        splitmix64(self.plan.seed ^ self.op.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn roll(&mut self, pm: u16) -> bool {
        pm > 0 && self.rng() % 1000 < pm as u64
    }

    fn note_baseline(&mut self, path: &Path, file: &std::fs::File) {
        if !self.synced_len.contains_key(path) {
            let len = file.metadata().map(|m| m.len()).unwrap_or(0);
            self.synced_len.insert(path.to_path_buf(), len);
        }
    }

    fn write_all(
        &mut self,
        file: &mut std::fs::File,
        path: &Path,
        buf: &[u8],
    ) -> std::io::Result<()> {
        // Content present before the plan saw this file counts as
        // durable: an injected fsync EIO must only drop the tail
        // written under the plan.
        self.note_baseline(path, file);
        if self.roll(self.plan.enospc_pm) {
            self.stats.enospc += 1;
            return Err(inject_err(format!(
                "injected ENOSPC writing {}: no space left on device",
                path.display()
            )));
        }
        while self.roll(self.plan.eintr_pm) {
            // EINTR is retried right here — callers never see it.
            self.stats.eintr += 1;
        }
        if !buf.is_empty() && self.roll(self.plan.short_write_pm) {
            let cut = (self.rng() as usize) % buf.len();
            file.write_all(&buf[..cut])?;
            self.stats.short_writes += 1;
            return Err(inject_err(format!(
                "injected short write on {}: {cut} of {} bytes hit the disk",
                path.display(),
                buf.len()
            )));
        }
        file.write_all(buf)?;
        if !buf.is_empty() && self.roll(self.plan.bitflip_pm) {
            let off = (self.rng() as usize) % buf.len();
            if flip_written_byte(file, path, buf.len(), off).is_ok() {
                self.stats.bitflips += 1;
            }
        }
        Ok(())
    }

    fn sync(&mut self, file: &std::fs::File, path: &Path, all: bool) -> std::io::Result<()> {
        if self.poisoned.contains(path) {
            self.stats.fsync_eio += 1;
            return Err(inject_err(format!(
                "injected EIO: fsync already failed on {} (file poisoned, dirty pages gone)",
                path.display()
            )));
        }
        if self.roll(self.plan.fsync_eio_pm) {
            // fsyncgate: the failed fsync dropped the dirty pages. Make
            // that physically true — the unsynced tail disappears — and
            // keep every later fsync on this path failing, so a caller
            // that retries-and-pretends corrupts state *visibly*.
            let synced = self.synced_len.get(path).copied().unwrap_or(0);
            let _ = truncate_to(path, synced);
            self.poisoned.insert(path.to_path_buf());
            self.stats.fsync_eio += 1;
            return Err(inject_err(format!(
                "injected EIO: fsync on {} lost dirty pages",
                path.display()
            )));
        }
        let r = if all { file.sync_all() } else { file.sync_data() };
        if r.is_ok() {
            if let Ok(m) = file.metadata() {
                self.synced_len.insert(path.to_path_buf(), m.len());
            }
        }
        r
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        if self.roll(self.plan.torn_rename_pm) {
            self.stats.torn_renames += 1;
            return Err(inject_err(format!(
                "injected torn rename {} -> {}: crashed inside the rename window",
                from.display(),
                to.display()
            )));
        }
        std::fs::rename(from, to)?;
        if let Some(len) = self.synced_len.remove(from) {
            self.synced_len.insert(to.to_path_buf(), len);
        }
        if self.poisoned.remove(from) {
            self.poisoned.insert(to.to_path_buf());
        }
        Ok(())
    }
}

/// Flip one byte of the range the caller just wrote (the last
/// `written` bytes of the file), at offset `off` within that range.
fn flip_written_byte(
    file: &std::fs::File,
    path: &Path,
    written: usize,
    off: usize,
) -> std::io::Result<()> {
    let end = file.metadata()?.len();
    let pos = end.saturating_sub(written as u64) + off as u64;
    let mut f = std::fs::OpenOptions::new().read(true).write(true).open(path)?;
    f.seek(SeekFrom::Start(pos))?;
    let mut b = [0u8; 1];
    f.read_exact(&mut b)?;
    b[0] ^= 0x40;
    f.seek(SeekFrom::Start(pos))?;
    f.write_all(&b)?;
    Ok(())
}

fn truncate_to(path: &Path, len: u64) -> std::io::Result<()> {
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(len)
}

/// Facade over [`std::fs::File::write_all`]. `path` identifies the file
/// for fault scoping and poison tracking.
pub fn write_all(file: &mut std::fs::File, path: &Path, buf: &[u8]) -> std::io::Result<()> {
    if !faults_active() {
        return file.write_all(buf);
    }
    let mut g = state();
    match g.as_mut() {
        Some(s) if s.matches(path) => s.write_all(file, path, buf),
        _ => file.write_all(buf),
    }
}

/// Facade over [`std::fs::File::sync_data`] with fsyncgate poison.
pub fn sync_data(file: &std::fs::File, path: &Path) -> std::io::Result<()> {
    if !faults_active() {
        return file.sync_data();
    }
    let mut g = state();
    match g.as_mut() {
        Some(s) if s.matches(path) => s.sync(file, path, false),
        _ => file.sync_data(),
    }
}

/// Facade over [`std::fs::File::sync_all`] with fsyncgate poison.
pub fn sync_all(file: &std::fs::File, path: &Path) -> std::io::Result<()> {
    if !faults_active() {
        return file.sync_all();
    }
    let mut g = state();
    match g.as_mut() {
        Some(s) if s.matches(path) => s.sync(file, path, true),
        _ => file.sync_all(),
    }
}

/// Facade over [`std::fs::rename`] with torn-rename injection.
pub fn rename(from: &Path, to: &Path) -> std::io::Result<()> {
    if !faults_active() {
        return std::fs::rename(from, to);
    }
    let mut g = state();
    match g.as_mut() {
        Some(s) if s.matches(to) => s.rename(from, to),
        _ => std::fs::rename(from, to),
    }
}

/// Fsync the directory containing `path`, making a rename / create /
/// unlink of the file itself durable. A path with no parent is a no-op;
/// failure to *open* the directory surfaces like any other error (the
/// callers that tolerate exotic filesystems decide what to do with it).
pub fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    match path.parent().filter(|d| !d.as_os_str().is_empty()) {
        Some(dir) => {
            let d = std::fs::File::open(dir)?;
            sync_all(&d, dir)
        }
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hq-io-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("victim.bin")
    }

    fn open_append(path: &Path) -> std::fs::File {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap()
    }

    #[test]
    fn passthrough_when_no_plan_installed() {
        // Hold the install lock throughout: a sibling test on another
        // thread may arm a plan, and this test asserts that none is.
        let _serialize = INSTALL.lock().unwrap_or_else(|e| e.into_inner());
        let path = tmp("passthrough");
        let mut f = open_append(&path);
        assert!(!faults_active());
        write_all(&mut f, &path, b"hello").unwrap();
        sync_data(&f, &path).unwrap();
        sync_all(&f, &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        assert_eq!(fault_stats(), IoFaultStats::default());
    }

    #[test]
    fn enospc_lands_nothing_and_is_counted() {
        let path = tmp("enospc");
        let mut f = open_append(&path);
        let _g = install(IoFaultPlan {
            seed: 1,
            enospc_pm: 1000,
            path_filter: dir_filter(&path),
            ..IoFaultPlan::default()
        });
        let err = write_all(&mut f, &path, b"doomed").unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        assert_eq!(fault_stats().enospc, 1);
    }

    #[test]
    fn short_write_leaves_a_strict_prefix() {
        let path = tmp("short");
        let mut f = open_append(&path);
        let _g = install(IoFaultPlan {
            seed: 3,
            short_write_pm: 1000,
            path_filter: dir_filter(&path),
            ..IoFaultPlan::default()
        });
        let err = write_all(&mut f, &path, b"0123456789").unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        let on_disk = std::fs::read(&path).unwrap();
        assert!(on_disk.len() < 10, "short write wrote everything");
        assert_eq!(&on_disk[..], &b"0123456789"[..on_disk.len()]);
        assert_eq!(fault_stats().short_writes, 1);
    }

    #[test]
    fn eintr_is_retried_never_surfaced() {
        let path = tmp("eintr");
        let mut f = open_append(&path);
        let _g = install(IoFaultPlan {
            seed: 5,
            eintr_pm: 400,
            path_filter: dir_filter(&path),
            ..IoFaultPlan::default()
        });
        for i in 0..50u32 {
            write_all(&mut f, &path, format!("rec {i}\n").as_bytes()).unwrap();
        }
        assert!(fault_stats().eintr > 0, "rate 400/1000 over 50 writes must hit");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 50, "every write landed intact");
    }

    #[test]
    fn fsync_eio_poisons_and_drops_only_the_unsynced_tail() {
        let path = tmp("fsyncgate");
        let mut f = open_append(&path);
        // Durable base written before the plan arms.
        f.write_all(b"synced-base\n").unwrap();
        f.sync_data().unwrap();
        let _g = install(IoFaultPlan {
            seed: 7,
            fsync_eio_pm: 1000,
            path_filter: dir_filter(&path),
            ..IoFaultPlan::default()
        });
        write_all(&mut f, &path, b"dirty-tail\n").unwrap();
        let err = sync_data(&f, &path).unwrap_err();
        assert!(err.to_string().contains("EIO"), "{err}");
        // fsyncgate: the dirty tail is gone, the synced base survives.
        assert_eq!(std::fs::read(&path).unwrap(), b"synced-base\n");
        // The file is poisoned: fsync keeps failing even though the
        // fault would not re-roll (rate is irrelevant once poisoned).
        let err2 = sync_all(&f, &path).unwrap_err();
        assert!(err2.to_string().contains("poisoned"), "{err2}");
        assert_eq!(fault_stats().fsync_eio, 2);
    }

    #[test]
    fn successful_sync_advances_the_durable_watermark() {
        let path = tmp("watermark");
        let mut f = open_append(&path);
        // fsync fails on roughly half the ops; the surviving prefix
        // must always be exactly what the last successful sync covered.
        let _g = install(IoFaultPlan {
            seed: 11,
            fsync_eio_pm: 0,
            path_filter: dir_filter(&path),
            ..IoFaultPlan::default()
        });
        write_all(&mut f, &path, b"a\n").unwrap();
        sync_data(&f, &path).unwrap();
        write_all(&mut f, &path, b"b\n").unwrap();
        sync_data(&f, &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"a\nb\n");
    }

    #[test]
    fn torn_rename_keeps_the_destination_unchanged() {
        let path = tmp("rename");
        std::fs::write(&path, b"old").unwrap();
        let tmp_path = path.with_extension("tmp");
        std::fs::write(&tmp_path, b"new").unwrap();
        let _g = install(IoFaultPlan {
            seed: 13,
            torn_rename_pm: 1000,
            path_filter: dir_filter(&path),
            ..IoFaultPlan::default()
        });
        let err = rename(&tmp_path, &path).unwrap_err();
        assert!(err.to_string().contains("torn rename"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        assert_eq!(fault_stats().torn_renames, 1);
    }

    #[test]
    fn bitflip_corrupts_exactly_one_written_byte() {
        let path = tmp("bitflip");
        let mut f = open_append(&path);
        let payload = b"0123456789abcdef0123456789abcdef";
        let _g = install(IoFaultPlan {
            seed: 17,
            bitflip_pm: 1000,
            path_filter: dir_filter(&path),
            ..IoFaultPlan::default()
        });
        write_all(&mut f, &path, payload).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk.len(), payload.len());
        let diffs = on_disk
            .iter()
            .zip(payload.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1, "exactly one byte flipped");
        assert_eq!(fault_stats().bitflips, 1);
    }

    #[test]
    fn path_filter_scopes_the_plan() {
        let hit = tmp("filter-hit");
        let miss = tmp("filter-miss");
        let mut fh = open_append(&hit);
        let mut fm = open_append(&miss);
        let _g = install(IoFaultPlan {
            seed: 19,
            enospc_pm: 1000,
            path_filter: "filter-hit".to_string(),
            ..IoFaultPlan::default()
        });
        assert!(write_all(&mut fh, &hit, b"x").is_err());
        write_all(&mut fm, &miss, b"x").unwrap();
        assert_eq!(std::fs::read(&miss).unwrap(), b"x");
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let run = |seed: u64| -> (Vec<bool>, IoFaultStats) {
            let path = tmp(&format!("replay-{seed}"));
            let mut f = open_append(&path);
            let _g = install(IoFaultPlan {
                seed,
                short_write_pm: 300,
                enospc_pm: 200,
                path_filter: dir_filter(&path),
                ..IoFaultPlan::default()
            });
            let outcomes: Vec<bool> = (0..40)
                .map(|i| write_all(&mut f, &path, format!("record {i}\n").as_bytes()).is_ok())
                .collect();
            (outcomes, fault_stats())
        };
        let (a1, s1) = run(42);
        // Same seed, fresh state (different path must not perturb the
        // stream: decisions only hash seed and op counter).
        let (a2, s2) = run(42);
        assert_eq!(a1, a2);
        assert_eq!(s1, s2);
        assert!(s1.total() > 0, "rates must actually fire over 40 ops");
    }
}
