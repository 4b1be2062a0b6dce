//! One cold pass of the experiment registry at quick scale on one
//! worker, in a fresh child process on an empty scenario cache: the
//! `suite.*` layers of a traced run. The pass times each registry
//! entry, then replays the registry on the now-warm cache and checks
//! every report is byte-identical to its cold run.

use crate::stats::Tally;
use hq_bench::util::codec::fnv1a;
use hq_bench::util::Scale;
use hq_bench::{scenario, suite};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// What one registry pass measured.
#[derive(Default)]
pub struct SuitePass {
    /// Wall time of each registry entry, in registry order.
    pub entry_s: Vec<(String, f64)>,
    /// Scenario-cache hits and misses of the cold run.
    pub hits: u64,
    pub misses: u64,
    pub tally: Tally,
}

impl SuitePass {
    /// Wall time of the whole registry.
    pub fn total_s(&self) -> f64 {
        self.entry_s.iter().map(|e| e.1).sum()
    }
}

fn digest(r: &hq_bench::util::ExperimentReport) -> u64 {
    let mut bytes = r.markdown.clone().into_bytes();
    bytes.push(0);
    bytes.extend_from_slice(r.csv.as_deref().unwrap_or("").as_bytes());
    fnv1a(&bytes)
}

/// Body of `--suite-child`: run the registry cold (one `exp` line per
/// entry), then warm (one `warm` line per entry). `HQ_RESULTS` names
/// the pass's empty results directory.
pub fn child() -> u8 {
    hq_bench::util::set_jobs(1);
    scenario::reset_cache();
    let registry = suite::registry();
    let mut out = std::io::stdout().lock();
    let mut say = |line: String| {
        let _ = writeln!(out, "{line}").and_then(|()| out.flush());
    };
    for (_, id, run) in &registry {
        let t = Instant::now();
        let report = run(Scale::Quick);
        let secs = t.elapsed().as_secs_f64();
        say(format!("exp {id} {secs} {:016x}", digest(&report)));
    }
    let (hits, misses) = scenario::cache_stats();
    say(format!("cache {hits} {misses}"));
    for (_, id, run) in &registry {
        say(format!("warm {id} {:016x}", digest(&run(Scale::Quick))));
    }
    0
}

fn num(s: &str) -> Result<f64, String> {
    s.parse()
        .map_err(|_| format!("suite child sent a bad number {s:?}"))
}

/// One pass in a fresh child whose results directory is under `dir`.
pub fn pass(dir: &Path) -> Result<SuitePass, String> {
    let entries = suite::registry().len();
    let mut run = SuitePass::default();
    run.tally.attempted = entries as u64;
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg("--suite-child")
        .env("HQ_RESULTS", dir.join("results"))
        .env_remove("HQ_SCENARIO_CACHE")
        .env_remove("HQ_AUDIT")
        .env_remove("HQ_JOBS")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn suite child: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut cold_digests = Vec::new();
    let mut warm_digests = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read suite child: {e}"))?;
        match line.split(' ').collect::<Vec<_>>().as_slice() {
            ["exp", id, secs, d] => {
                run.entry_s.push((id.to_string(), num(secs)?));
                cold_digests.push(d.to_string());
            }
            ["cache", h, m] => {
                run.hits = num(h)? as u64;
                run.misses = num(m)? as u64;
            }
            ["warm", _, d] => warm_digests.push(d.to_string()),
            _ => {}
        }
    }
    let status = child.wait().map_err(|e| format!("wait suite child: {e}"))?;
    let done = run.entry_s.len();
    if !status.success() || done != entries || warm_digests.len() != entries {
        return Err(format!(
            "suite child exited {status} after {done} of {entries} experiments"
        ));
    }
    run.tally.ok = done as u64;
    for ((id, _), (cold, warm)) in run
        .entry_s
        .iter()
        .zip(cold_digests.iter().zip(&warm_digests))
    {
        if cold != warm {
            eprintln!("suite: report {id} differs between its cold run and its warm replay");
            run.tally.diverged += 1;
        }
    }
    Ok(run)
}
