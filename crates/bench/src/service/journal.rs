//! Crash-safe write-ahead journal for the scenario service.
//!
//! Every accepted job is appended here — with `fsync` — *before* it
//! becomes runnable, and marked done after it finishes, so a `kill -9`
//! at any instant loses no accepted work: on restart the journal is
//! scanned and every accepted-but-unfinished job is replayed. Replay is
//! deterministic because execution goes through the content-addressed
//! [`crate::scenario::run_scenario`] cache, so a replayed job produces
//! a byte-identical artifact.
//!
//! ## Record format
//!
//! One record per line; each line is `<16-hex fnv1a of payload> <payload>`:
//!
//! ```text
//! f30a…e1 hq-journal v1 sim 1
//! 9bc2…04 A 1 wl=needle+gaussian%20ns=4%20…
//! 20d1…77 D 1 ok
//! 51f0…3a S
//! ```
//!
//! * the header pins the journal format version and [`SIM_VERSION`];
//! * `A <id> <escaped spec>` — job accepted (the spec carries the
//!   client idempotency key, so recovery rebuilds the dedup map);
//! * `D <id> <status> [digest]` — job finished (`ok`/`deadline`/
//!   `panic`/`error`); `ok` marks may carry the 16-hex fnv1a digest of
//!   the artifact bytes so `hyperq scrub` can verify artifacts without
//!   re-executing them;
//! * `S` — sealed by a graceful shutdown (nothing left to replay).
//!
//! ## Failed writes and fsyncs
//!
//! Appends go through the [`crate::util::io`] facade. Any append or
//! fsync error **poisons the journal**: a torn record in the middle of
//! the file would make every record appended after it unrecoverable
//! (the recovery scan stops at the first invalid record), and a failed
//! fsync means the kernel dropped the dirty pages (fsyncgate) — in
//! both cases continuing to append would silently un-journal future
//! accepted jobs. A poisoned journal rejects every later append with a
//! structured error; the owning server must stop acknowledging work.
//!
//! ## Torn tails
//!
//! A crash mid-append can leave a torn final record (no newline, or a
//! checksum mismatch). [`Journal::open`] detects the first invalid
//! record, truncates the file back to the last valid boundary and keeps
//! going — torn tails are expected wear, never fatal. A [`SIM_VERSION`]
//! mismatch invalidates replay compatibility entirely (the cached
//! scenarios the journal's jobs would replay against no longer exist):
//! the old journal is archived next to itself and a fresh one started.

use super::protocol::JobSpec;
use crate::scenario::SIM_VERSION;
use crate::util::codec::{esc, fnv1a, unesc};
use crate::util::io;
use std::path::{Path, PathBuf};

/// Journal line-format version; bump when the record grammar changes.
pub const JOURNAL_VERSION: u32 = 1;

/// One parsed journal record.
#[derive(Clone, Debug, PartialEq)]
enum Record {
    Header { version: u32, sim: u32 },
    Accept(u64, JobSpec),
    Done(u64, String, Option<u64>),
    Seal,
}

/// What [`Journal::open`] found in an existing journal.
#[derive(Debug, Default)]
pub struct Recovered {
    /// `(id, status)` of jobs with a done marker — never re-run.
    pub completed: Vec<(u64, String)>,
    /// `(id, artifact digest)` for done marks that recorded one; the
    /// scrubber checks artifacts against these without re-executing.
    pub artifact_digests: Vec<(u64, u64)>,
    /// Accepted-but-unfinished jobs, in acceptance order: the replay
    /// work list.
    pub unfinished: Vec<(u64, JobSpec)>,
    /// `({tenant}/{idem}, id)` for every accept record carrying an
    /// idempotency key — finished or not — so the server's dedup map
    /// survives restarts and a client retrying across a crash still
    /// gets the original id instead of a double execution.
    pub idem_keys: Vec<(String, u64)>,
    /// First id the server may assign (max journaled id + 1).
    pub next_id: u64,
    /// Bytes of torn tail truncated away, if any.
    pub torn_bytes: u64,
    /// Where an incompatible (wrong `sim`) journal was archived.
    pub archived: Option<PathBuf>,
    /// The previous run shut down gracefully (journal was sealed).
    pub was_sealed: bool,
}

/// Read-only post-mortem view of a journal file, produced by
/// [`Journal::inspect`] for the `hyperq journal inspect` subcommand.
#[derive(Debug, Default)]
pub struct Inspection {
    /// Inspected file.
    pub path: PathBuf,
    /// `(journal_version, sim_version)` from the header, if present.
    pub header: Option<(u32, u32)>,
    /// Whether this process could replay the journal (header matches).
    pub compatible: bool,
    /// Accept records found.
    pub accepted: u64,
    /// Done records found.
    pub done: u64,
    /// The journal carries a seal record (graceful shutdown).
    pub sealed: bool,
    /// Torn tail bytes after the last valid record (left untouched).
    pub torn_bytes: u64,
    /// Per-tenant `(tenant, accepted, done, unfinished)`, sorted.
    pub tenants: Vec<(String, u64, u64, u64)>,
    /// Human-readable dump of every valid record, in file order.
    pub records: Vec<String>,
}

impl Inspection {
    fn tenant_entry(&mut self, tenant: &str) -> &mut (String, u64, u64, u64) {
        if let Some(i) = self.tenants.iter().position(|t| t.0 == tenant) {
            return &mut self.tenants[i];
        }
        self.tenants.push((tenant.to_string(), 0, 0, 0));
        self.tenants.sort();
        let i = self
            .tenants
            .iter()
            .position(|t| t.0 == tenant)
            .expect("just inserted");
        &mut self.tenants[i]
    }

    /// Multi-line report for the CLI.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "journal: {}", self.path.display());
        match self.header {
            Some((v, sim)) => {
                let _ = writeln!(
                    s,
                    "header: v{v} sim {sim} ({})",
                    if self.compatible {
                        "compatible"
                    } else {
                        "INCOMPATIBLE with this binary"
                    }
                );
            }
            None => {
                let _ = writeln!(s, "header: missing (empty or torn at birth)");
            }
        }
        let _ = writeln!(
            s,
            "records: {} accepted, {} done, sealed={}, torn tail {} byte(s)",
            self.accepted,
            self.done,
            if self.sealed { "yes" } else { "no" },
            self.torn_bytes
        );
        for (tenant, accepted, done, unfinished) in &self.tenants {
            let _ = writeln!(
                s,
                "tenant {tenant}: accepted {accepted} done {done} unfinished {unfinished}"
            );
        }
        for r in &self.records {
            let _ = writeln!(s, "  {r}");
        }
        s
    }
}

/// Append handle over the journal file. All appends are fsynced before
/// returning, honouring the same discipline as
/// [`crate::util::write_atomic`]: a record either is durably on disk or
/// was never acknowledged. The handle latches into a failed state on
/// the first append/fsync error (see the module docs for why) and
/// rejects everything afterwards.
pub struct Journal {
    file: std::fs::File,
    path: PathBuf,
    /// First append/fsync error, if any; once set, every later append
    /// is refused. Silent retry after a failed fsync is the fsyncgate
    /// bug — the dirty pages are gone and a "successful" retry proves
    /// nothing.
    failed: Option<String>,
}

fn encode_record(payload: &str) -> String {
    format!("{:016x} {payload}\n", fnv1a(payload.as_bytes()))
}

/// The `D` record payload for a finished job.
fn done_payload(id: u64, status: &str, digest: Option<u64>) -> String {
    match digest {
        Some(d) => format!("D {id} {status} {d:016x}"),
        None => format!("D {id} {status}"),
    }
}

/// Fsync the directory containing `path` so a rename/unlink/create of
/// the journal itself is durable. Errors are surfaced to the caller —
/// the rotation paths carry the same durability contract as appends.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    io::sync_parent_dir(path)
}

fn parse_record(line: &str) -> Option<Record> {
    let (crc, payload) = line.split_once(' ')?;
    if crc.len() != 16 || u64::from_str_radix(crc, 16).ok()? != fnv1a(payload.as_bytes()) {
        return None;
    }
    let toks: Vec<&str> = payload.split(' ').collect();
    match toks.as_slice() {
        ["hq-journal", v, "sim", sim] => Some(Record::Header {
            version: v.strip_prefix('v')?.parse().ok()?,
            sim: sim.parse().ok()?,
        }),
        ["A", id, spec] => Some(Record::Accept(
            id.parse().ok()?,
            JobSpec::decode(&unesc(spec)?).ok()?,
        )),
        ["D", id, status] => Some(Record::Done(id.parse().ok()?, (*status).to_string(), None)),
        ["D", id, status, digest] => Some(Record::Done(
            id.parse().ok()?,
            (*status).to_string(),
            Some(u64::from_str_radix(digest, 16).ok().filter(|_| digest.len() == 16)?),
        )),
        ["S"] => Some(Record::Seal),
        _ => None,
    }
}

/// Scan raw journal bytes into `(records, valid_prefix_len)`: parsing
/// stops at the first torn record (missing newline, bad UTF-8, bad
/// checksum, unknown grammar) and reports how many bytes were valid.
fn scan(bytes: &[u8]) -> (Vec<Record>, usize) {
    let mut records = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        let Some(nl) = bytes[off..].iter().position(|&b| b == b'\n') else {
            break; // no trailing newline: torn
        };
        let Some(rec) = std::str::from_utf8(&bytes[off..off + nl])
            .ok()
            .and_then(parse_record)
        else {
            break;
        };
        records.push(rec);
        off += nl + 1;
    }
    (records, off)
}

impl Journal {
    /// Open (creating if needed) the journal at `path`, recovering its
    /// contents. Torn tails are truncated; an incompatible
    /// [`SIM_VERSION`] archives the old journal; a sealed journal is
    /// rotated (its jobs were fully drained, so ids restart at 1).
    pub fn open(path: &Path) -> std::io::Result<(Journal, Recovered)> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut rec = Recovered::default();
        let mut fresh = true;
        if path.exists() {
            let bytes = std::fs::read(path)?;
            let (records, valid) = scan(&bytes);
            match records.first() {
                Some(Record::Header { version, sim })
                    if *version == JOURNAL_VERSION && *sim == SIM_VERSION =>
                {
                    if valid < bytes.len() {
                        rec.torn_bytes = (bytes.len() - valid) as u64;
                        let f = std::fs::OpenOptions::new().write(true).open(path)?;
                        f.set_len(valid as u64)?;
                        io::sync_all(&f, path)?;
                    }
                    rec.was_sealed = records.iter().any(|r| matches!(r, Record::Seal));
                    if rec.was_sealed {
                        // Graceful predecessor: everything drained.
                        // Rotate so the file cannot grow without bound.
                        std::fs::remove_file(path)?;
                        sync_parent_dir(path)?;
                    } else {
                        fresh = false;
                        let mut done: Vec<u64> = Vec::new();
                        for r in &records {
                            if let Record::Done(id, status, digest) = r {
                                done.push(*id);
                                rec.completed.push((*id, status.clone()));
                                if let Some(d) = digest {
                                    rec.artifact_digests.push((*id, *d));
                                }
                            }
                        }
                        for r in &records {
                            if let Record::Accept(id, spec) = r {
                                rec.next_id = rec.next_id.max(*id + 1);
                                if !spec.idem.is_empty() {
                                    rec.idem_keys
                                        .push((format!("{}/{}", spec.tenant, spec.idem), *id));
                                }
                                if !done.contains(id) {
                                    rec.unfinished.push((*id, spec.clone()));
                                }
                            }
                        }
                    }
                }
                Some(Record::Header { .. }) => {
                    // Wrong journal or simulator version: the cached
                    // scenarios its jobs rely on are gone, so replay
                    // would not be byte-identical. Archive and restart.
                    let mut archive = path.as_os_str().to_owned();
                    archive.push(".stale");
                    let archive = PathBuf::from(archive);
                    std::fs::rename(path, &archive)?;
                    sync_parent_dir(path)?;
                    rec.archived = Some(archive);
                }
                // Headerless (empty or torn-at-birth) journal: nothing
                // recoverable; start over.
                _ => {
                    std::fs::remove_file(path)?;
                    sync_parent_dir(path)?;
                }
            }
        }
        if rec.next_id == 0 {
            rec.next_id = 1;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut journal = Journal {
            file,
            path: path.to_path_buf(),
            failed: None,
        };
        if fresh {
            journal.append(&format!("hq-journal v{JOURNAL_VERSION} sim {SIM_VERSION}"))?;
            // The file's first record is durable; make its *name* so
            // too, surfacing failure like every other append would.
            sync_parent_dir(path)?;
        }
        Ok((journal, rec))
    }

    /// The first append/fsync error this handle hit, if any. A failed
    /// journal must stop acknowledging work; callers surface this to
    /// the admission path.
    pub fn failed(&self) -> Option<&str> {
        self.failed.as_deref()
    }

    /// Latch an external durability failure (e.g. the group-commit
    /// flusher's covering `sync_data` on a [`Journal::sync_handle`]
    /// duplicate failed). The journal refuses all later appends.
    pub fn mark_failed(&mut self, why: &str) {
        if self.failed.is_none() {
            self.failed = Some(why.to_string());
        }
    }

    /// Refuse the operation if the journal already failed, and latch
    /// the failure if the operation itself errors.
    fn guard<R>(
        &mut self,
        op: impl FnOnce(&mut Self) -> std::io::Result<R>,
    ) -> std::io::Result<R> {
        if let Some(why) = &self.failed {
            return Err(std::io::Error::other(format!(
                "journal failed, refusing append: {why}"
            )));
        }
        let r = op(self);
        if let Err(e) = &r {
            self.failed = Some(e.to_string());
        }
        r
    }

    fn append(&mut self, payload: &str) -> std::io::Result<()> {
        let rec = encode_record(payload);
        self.guard(|j| {
            io::write_all(&mut j.file, &j.path, rec.as_bytes())?;
            io::sync_data(&j.file, &j.path)
        })
    }

    /// Journal an accepted job. Must be called (and return) before the
    /// job becomes visible to any worker.
    pub fn accept(&mut self, id: u64, spec: &JobSpec) -> std::io::Result<()> {
        self.append(&format!("A {id} {}", esc(&spec.encode())))
    }

    /// Stage an accept record *without* fsyncing: the group-commit path
    /// writes records as submitters arrive and lets one covering
    /// [`Journal::sync_handle`] `sync_data` make a whole commit window
    /// durable at once. The caller owns the accepted⇒durable contract:
    /// the job must not become worker-visible (and `accepted` must not
    /// be answered) until a sync covering this record completes.
    pub fn accept_nosync(&mut self, id: u64, spec: &JobSpec) -> std::io::Result<()> {
        let rec = encode_record(&format!("A {id} {}", esc(&spec.encode())));
        self.guard(|j| io::write_all(&mut j.file, &j.path, rec.as_bytes()))
    }

    /// Mark a job finished with its wire status code; `digest` records
    /// the fnv1a of the artifact bytes for `ok` completions so the
    /// scrubber can verify artifacts offline.
    pub fn done(&mut self, id: u64, status: &str, digest: Option<u64>) -> std::io::Result<()> {
        self.append(&done_payload(id, status, digest))
    }

    /// [`Journal::done`] without `sync_data`. Losing an unsynced `D` is
    /// benign — the job replays to a byte-identical artifact — so the
    /// mark becomes durable for free with the next accept commit or
    /// the shutdown seal.
    pub fn done_nosync(
        &mut self,
        id: u64,
        status: &str,
        digest: Option<u64>,
    ) -> std::io::Result<()> {
        let rec = encode_record(&done_payload(id, status, digest));
        self.guard(|j| io::write_all(&mut j.file, &j.path, rec.as_bytes()))
    }

    /// A duplicate handle onto the journal file for `sync_data` calls
    /// that must not hold whatever lock guards appends: `sync_data`
    /// makes *all* previously written records durable regardless of
    /// which handle issued the writes.
    pub fn sync_handle(&self) -> std::io::Result<std::fs::File> {
        self.file.try_clone()
    }

    /// Seal on graceful shutdown: all accepted jobs have done markers.
    pub fn seal(&mut self) -> std::io::Result<()> {
        self.append("S")
    }

    /// Journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read-only recovery scan of a journal that belongs to *another*
    /// process (a dead fleet worker): reports completed/unfinished jobs
    /// exactly like [`Journal::open`] but never truncates, archives,
    /// rotates or appends — the owning worker may be restarted later
    /// and must find its journal byte-for-byte as it left it. A torn
    /// tail is simply skipped; an incompatible header yields an empty
    /// `Recovered` (nothing can be safely replayed from it). Missing
    /// files are not an error: a worker that died before journaling
    /// anything has nothing to recover.
    /// Read-only post-mortem dump of a journal (`hyperq journal
    /// inspect`). Like [`Journal::peek`] it never mutates the file, but
    /// where `peek` answers "what must be replayed", `inspect` keeps
    /// every record — including an incompatible header, which `peek`
    /// collapses to "nothing recoverable" — so a human can see exactly
    /// what a dead server owed whom.
    pub fn inspect(path: &Path) -> std::io::Result<Inspection> {
        let bytes = std::fs::read(path)?;
        let (records, valid) = scan(&bytes);
        let mut ins = Inspection {
            path: path.to_path_buf(),
            torn_bytes: (bytes.len() - valid) as u64,
            ..Inspection::default()
        };
        let mut done: Vec<u64> = Vec::new();
        for r in &records {
            if let Record::Done(id, _, _) = r {
                done.push(*id);
            }
        }
        for r in &records {
            match r {
                Record::Header { version, sim } => {
                    ins.header = Some((*version, *sim));
                    ins.compatible = *version == JOURNAL_VERSION && *sim == SIM_VERSION;
                }
                Record::Accept(id, spec) => {
                    ins.accepted += 1;
                    let tenant = ins.tenant_entry(&spec.tenant);
                    tenant.1 += 1;
                    if !done.contains(id) {
                        tenant.3 += 1;
                    }
                    let state = if done.contains(id) { "done" } else { "unfinished" };
                    ins.records.push(format!(
                        "A {id} tenant={} {state} {}",
                        spec.tenant,
                        spec.signature()
                    ));
                }
                Record::Done(id, status, digest) => {
                    ins.done += 1;
                    match digest {
                        Some(d) => ins.records.push(format!("D {id} {status} digest={d:016x}")),
                        None => ins.records.push(format!("D {id} {status}")),
                    }
                }
                Record::Seal => {
                    ins.sealed = true;
                    ins.records.push("S (sealed)".to_string());
                }
            }
        }
        // Attribute done marks to tenants via their accept records.
        for r in &records {
            if let Record::Accept(id, spec) = r {
                if done.contains(id) {
                    ins.tenant_entry(&spec.tenant).2 += 1;
                }
            }
        }
        Ok(ins)
    }

    pub fn peek(path: &Path) -> std::io::Result<Recovered> {
        let mut rec = Recovered {
            next_id: 1,
            ..Recovered::default()
        };
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(rec),
            Err(e) => return Err(e),
        };
        let (records, valid) = scan(&bytes);
        rec.torn_bytes = (bytes.len() - valid) as u64;
        match records.first() {
            Some(Record::Header { version, sim })
                if *version == JOURNAL_VERSION && *sim == SIM_VERSION => {}
            _ => return Ok(rec),
        }
        rec.was_sealed = records.iter().any(|r| matches!(r, Record::Seal));
        let mut done: Vec<u64> = Vec::new();
        for r in &records {
            if let Record::Done(id, status, digest) = r {
                done.push(*id);
                rec.completed.push((*id, status.clone()));
                if let Some(d) = digest {
                    rec.artifact_digests.push((*id, *d));
                }
            }
        }
        for r in &records {
            if let Record::Accept(id, spec) = r {
                rec.next_id = rec.next_id.max(*id + 1);
                if !spec.idem.is_empty() {
                    rec.idem_keys
                        .push((format!("{}/{}", spec.tenant, spec.idem), *id));
                }
                if !done.contains(id) {
                    rec.unfinished.push((*id, spec.clone()));
                }
            }
        }
        Ok(rec)
    }

    /// Line-wise integrity scan for `hyperq scrub`. Unlike the
    /// prefix-scan used by recovery (which stops at the first invalid
    /// record), this parses every line independently and *resyncs*
    /// after damage, so it can tell the two corruption classes apart:
    ///
    /// * **tail damage** — invalid lines/bytes only at the end of the
    ///   file (a torn final append): expected wear, repairable by
    ///   truncation;
    /// * **mid-file corruption** — an invalid line with valid records
    ///   after it (a flipped bit, an overwritten block): the file can
    ///   no longer be trusted as a whole, because recovery's prefix
    ///   scan would silently drop every record past the damage. Scrub
    ///   quarantines such journals.
    ///
    /// Never mutates the file.
    pub fn verify(path: &Path) -> std::io::Result<Verification> {
        let bytes = std::fs::read(path)?;
        let mut v = Verification {
            path: path.to_path_buf(),
            ..Verification::default()
        };
        let mut off = 0usize;
        let mut line_no = 0u64;
        let mut last_valid_line = 0u64;
        let mut records: Vec<Record> = Vec::new();
        while off < bytes.len() {
            let Some(nl) = bytes[off..].iter().position(|&b| b == b'\n') else {
                v.torn_tail_bytes = (bytes.len() - off) as u64;
                break;
            };
            line_no += 1;
            match std::str::from_utf8(&bytes[off..off + nl])
                .ok()
                .and_then(parse_record)
            {
                Some(rec) => {
                    last_valid_line = line_no;
                    if line_no == 1 {
                        if let Record::Header { version, sim } = &rec {
                            v.header_ok = *version == JOURNAL_VERSION && *sim == SIM_VERSION;
                        }
                    }
                    if v.bad_lines.is_empty() {
                        v.valid_prefix_bytes = (off + nl + 1) as u64;
                    }
                    records.push(rec);
                }
                None => v.bad_lines.push(line_no),
            }
            off += nl + 1;
        }
        v.total_lines = line_no;
        v.mid_file_corrupt = v.bad_lines.iter().any(|&b| b < last_valid_line);
        // A non-empty file with no complete line at all is either torn
        // at birth (crash inside the very first header append — the
        // bytes must then be a strict prefix of the header line, and
        // restart-from-scratch is correct) or whole-file bit rot, which
        // must quarantine rather than silently restart. Garbage that
        // happens to contain no newline would otherwise masquerade as
        // a torn tail and be deleted by recovery.
        if line_no == 0 && v.torn_tail_bytes > 0 {
            let expected = format!("hq-journal v{JOURNAL_VERSION} sim {SIM_VERSION}\n");
            if !expected.as_bytes().starts_with(&bytes) {
                v.mid_file_corrupt = true;
            }
        }
        for r in records {
            match r {
                Record::Header { .. } => {}
                Record::Accept(id, spec) => v.accepted.push((id, spec)),
                Record::Done(id, status, digest) => v.completed.push((id, status, digest)),
                Record::Seal => v.sealed = true,
            }
        }
        Ok(v)
    }
}

/// Report from [`Journal::verify`]: per-line integrity over a journal
/// file, distinguishing repairable tail damage from quarantine-worthy
/// mid-file corruption.
#[derive(Debug, Default)]
pub struct Verification {
    /// Verified file.
    pub path: PathBuf,
    /// Line 1 is a header matching this binary's versions.
    pub header_ok: bool,
    /// Complete (newline-terminated) lines seen.
    pub total_lines: u64,
    /// 1-based numbers of lines that failed checksum/grammar.
    pub bad_lines: Vec<u64>,
    /// Trailing bytes with no newline (torn final append).
    pub torn_tail_bytes: u64,
    /// Byte length of the longest all-valid record prefix — where a
    /// tail-damage repair may safely truncate to. When
    /// `mid_file_corrupt` is set this is *not* a safe truncation point
    /// (it would discard valid records after the damage).
    pub valid_prefix_bytes: u64,
    /// A bad line is followed by a valid record: recovery's prefix
    /// scan would silently drop everything past the damage.
    pub mid_file_corrupt: bool,
    /// A seal record is present.
    pub sealed: bool,
    /// Every valid accept record, in file order.
    pub accepted: Vec<(u64, JobSpec)>,
    /// Every valid done record: `(id, status, artifact digest)`.
    pub completed: Vec<(u64, String, Option<u64>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hq-journal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("service.wal")
    }

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            seed,
            ..JobSpec::default()
        }
    }

    #[test]
    fn journal_round_trips_accept_and_done() {
        let path = tmp("roundtrip");
        {
            let (mut j, rec) = Journal::open(&path).unwrap();
            assert_eq!(rec.next_id, 1);
            assert!(rec.unfinished.is_empty());
            j.accept(1, &spec(1)).unwrap();
            j.accept(2, &spec(2)).unwrap();
            j.done(1, "ok", None).unwrap();
        }
        let (_, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.completed, vec![(1, "ok".to_string())]);
        assert_eq!(rec.unfinished.len(), 1);
        assert_eq!(rec.unfinished[0].0, 2);
        assert_eq!(rec.unfinished[0].1, spec(2));
        assert_eq!(rec.next_id, 3);
        assert_eq!(rec.torn_bytes, 0);
    }

    #[test]
    fn sealed_journal_rotates() {
        let path = tmp("sealed");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.accept(1, &spec(1)).unwrap();
            j.done(1, "ok", None).unwrap();
            j.seal().unwrap();
        }
        let (_, rec) = Journal::open(&path).unwrap();
        assert!(rec.was_sealed);
        assert!(rec.unfinished.is_empty());
        assert!(rec.completed.is_empty());
        assert_eq!(rec.next_id, 1, "ids restart after a sealed run");
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmp("torn");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.accept(1, &spec(1)).unwrap();
        }
        let good_len = std::fs::metadata(&path).unwrap().len();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"deadbeef00000000 A 2 torn-and-");
        std::fs::write(&path, &bytes).unwrap();
        let (_, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.torn_bytes, 30);
        assert_eq!(rec.unfinished.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);
    }

    #[test]
    fn sim_version_mismatch_archives_and_restarts() {
        let path = tmp("mismatch");
        let stale_sim = SIM_VERSION + 1;
        let header = format!("hq-journal v{JOURNAL_VERSION} sim {stale_sim}");
        std::fs::write(&path, encode_record(&header)).unwrap();
        let (_, rec) = Journal::open(&path).unwrap();
        let archive = rec.archived.expect("archived");
        assert!(archive.exists());
        assert!(rec.unfinished.is_empty());
        assert_eq!(rec.next_id, 1);
    }

    #[test]
    fn peek_reads_without_mutating() {
        let path = tmp("peek");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.accept(1, &spec(1)).unwrap();
            j.accept(2, &spec(2)).unwrap();
            j.done(1, "ok", None).unwrap();
        }
        // Append a torn tail; peek must skip it AND leave it in place.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"deadbeef00000000 A 3 torn");
        std::fs::write(&path, &bytes).unwrap();
        let before = std::fs::read(&path).unwrap();
        let rec = Journal::peek(&path).unwrap();
        assert_eq!(rec.completed, vec![(1, "ok".to_string())]);
        assert_eq!(rec.unfinished.len(), 1);
        assert_eq!(rec.unfinished[0].0, 2);
        assert_eq!(rec.next_id, 3);
        assert_eq!(rec.torn_bytes, 25);
        assert_eq!(std::fs::read(&path).unwrap(), before, "peek mutated the file");
        // A journal that never existed recovers nothing, not an error.
        let ghost = Journal::peek(&path.with_extension("ghost")).unwrap();
        assert!(ghost.unfinished.is_empty() && ghost.completed.is_empty());
    }

    #[test]
    fn inspect_dumps_records_per_tenant_counts_and_seal_state() {
        let path = tmp("inspect");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.accept(
                1,
                &JobSpec {
                    tenant: "alpha".to_string(),
                    ..spec(1)
                },
            )
            .unwrap();
            j.accept(
                2,
                &JobSpec {
                    tenant: "beta".to_string(),
                    ..spec(2)
                },
            )
            .unwrap();
            j.done(1, "ok", None).unwrap();
        }
        // A torn tail must be reported but never truncated by inspect.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"deadbeef00000000 A 3 torn");
        std::fs::write(&path, &bytes).unwrap();
        let before = std::fs::read(&path).unwrap();

        let ins = Journal::inspect(&path).unwrap();
        assert_eq!(ins.header, Some((JOURNAL_VERSION, SIM_VERSION)));
        assert!(ins.compatible);
        assert_eq!((ins.accepted, ins.done), (2, 1));
        assert!(!ins.sealed);
        assert_eq!(ins.torn_bytes, 25);
        assert_eq!(
            ins.tenants,
            vec![
                ("alpha".to_string(), 1, 1, 0),
                ("beta".to_string(), 1, 0, 1),
            ]
        );
        assert_eq!(std::fs::read(&path).unwrap(), before, "inspect mutated");

        let report = ins.render();
        assert!(report.contains("tenant beta: accepted 1 done 0 unfinished 1"));
        assert!(report.contains("A 2 tenant=beta unfinished"), "{report}");

        // Sealed journals say so.
        let path2 = tmp("inspect-sealed");
        {
            let (mut j, _) = Journal::open(&path2).unwrap();
            j.seal().unwrap();
        }
        assert!(Journal::inspect(&path2).unwrap().sealed);
    }

    #[test]
    fn garbage_file_restarts_clean() {
        let path = tmp("garbage");
        std::fs::write(&path, b"\xff\xfe not a journal at all").unwrap();
        let (_, rec) = Journal::open(&path).unwrap();
        assert!(rec.unfinished.is_empty());
        assert_eq!(rec.next_id, 1);
        // The reopened file is a valid fresh journal.
        let (_, rec2) = Journal::open(&path).unwrap();
        assert_eq!(rec2.torn_bytes, 0);
    }

    #[test]
    fn done_digest_round_trips_through_recovery() {
        let path = tmp("digest");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.accept(1, &spec(1)).unwrap();
            j.accept(2, &spec(2)).unwrap();
            j.done(1, "ok", Some(0xdead_beef_0042_0017)).unwrap();
            j.done(2, "deadline", None).unwrap();
        }
        let (_, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.completed.len(), 2);
        assert_eq!(rec.artifact_digests, vec![(1, 0xdead_beef_0042_0017)]);
        // peek sees the same digests without mutating.
        let peeked = Journal::peek(&path).unwrap();
        assert_eq!(peeked.artifact_digests, vec![(1, 0xdead_beef_0042_0017)]);
        // And inspect renders them.
        let ins = Journal::inspect(&path).unwrap();
        assert!(
            ins.records.iter().any(|r| r.contains("digest=deadbeef00420017")),
            "{:?}",
            ins.records
        );
    }

    #[test]
    fn fsync_failure_poisons_the_journal() {
        let path = tmp("poison");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.accept(1, &spec(1)).unwrap();
        let before = std::fs::read(&path).unwrap();
        let err = {
            let _g = crate::util::io::install(crate::util::io::IoFaultPlan {
                seed: 9,
                fsync_eio_pm: 1000,
                path_filter: crate::util::io::dir_filter(&path),
                ..crate::util::io::IoFaultPlan::default()
            });
            j.accept(2, &spec(2)).unwrap_err()
        };
        assert!(err.to_string().contains("EIO"), "{err}");
        assert!(j.failed().is_some(), "journal must latch the failure");
        // fsyncgate: the unsynced record is gone; the synced one stays.
        assert_eq!(std::fs::read(&path).unwrap(), before);
        // With the plan gone the disk is healthy again — but the
        // journal must still refuse: dirty pages were already lost.
        let err2 = j.accept(3, &spec(3)).unwrap_err();
        assert!(
            err2.to_string().contains("journal failed, refusing append"),
            "{err2}"
        );
        assert!(j.done(1, "ok", None).is_err(), "done marks refused too");
    }

    #[test]
    fn short_write_poisons_the_journal() {
        // A torn record mid-file makes all later appends unrecoverable
        // (the prefix scan stops at the tear) — so a failed *write*
        // must poison exactly like a failed fsync.
        let path = tmp("poison-write");
        let (mut j, _) = Journal::open(&path).unwrap();
        {
            let _g = crate::util::io::install(crate::util::io::IoFaultPlan {
                seed: 23,
                short_write_pm: 1000,
                path_filter: crate::util::io::dir_filter(&path),
                ..crate::util::io::IoFaultPlan::default()
            });
            assert!(j.accept(1, &spec(1)).is_err());
        }
        assert!(j.failed().unwrap().contains("short write"));
        assert!(j.accept(2, &spec(2)).is_err());
        // Recovery still works: the torn record is truncated away.
        drop(j);
        let (_, rec) = Journal::open(&path).unwrap();
        assert!(rec.unfinished.is_empty());
    }

    #[test]
    fn verify_distinguishes_tail_damage_from_mid_file_corruption() {
        let path = tmp("verify");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.accept(1, &spec(1)).unwrap();
            j.accept(2, &spec(2)).unwrap();
            j.done(1, "ok", Some(0x1234_5678_9abc_def0)).unwrap();
        }
        // Pristine journal: header ok, no damage.
        let v = Journal::verify(&path).unwrap();
        assert!(v.header_ok && v.bad_lines.is_empty() && !v.mid_file_corrupt);
        assert_eq!(v.accepted.len(), 2);
        assert_eq!(v.completed, vec![(1, "ok".to_string(), Some(0x1234_5678_9abc_def0))]);

        // Torn tail only: damaged, but not mid-file corruption.
        let clean = std::fs::read(&path).unwrap();
        let mut torn = clean.clone();
        torn.extend_from_slice(b"deadbeef00000000 A 9 to");
        std::fs::write(&path, &torn).unwrap();
        let v = Journal::verify(&path).unwrap();
        assert_eq!(v.torn_tail_bytes, 23);
        assert!(!v.mid_file_corrupt);

        // Flip one byte of the first accept record: valid records
        // still follow, so this is mid-file corruption.
        let mut flipped = clean.clone();
        let second_line = clean.iter().position(|&b| b == b'\n').unwrap() + 5;
        flipped[second_line] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let v = Journal::verify(&path).unwrap();
        assert_eq!(v.bad_lines, vec![2]);
        assert!(v.mid_file_corrupt, "valid records after the damage");
        assert_eq!(v.accepted.len(), 1, "the undamaged accept still parses");
        assert!(v.header_ok);
    }
}
