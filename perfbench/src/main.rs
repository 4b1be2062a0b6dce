//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_warm|serve_cold --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of stdout is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`. A human-readable account goes to stderr. Every file the
//! run writes lives under `.perfbench_run/` in the current directory,
//! on a private tmpfs mounted there when `unshare` allows it. See
//! `perfbench/README.md`.

mod catalog;
mod ledger;
mod serve;
mod server;
mod stats;
mod suite;

use serve::ServeRun;
use server::Server;
use stats::{median, percentile, sorted, Tally};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: perfbench --workload serve_warm|serve_cold \
                     --seed N --seconds S --trace 0|1\n       perfbench --write-manifest";

/// Set in the re-executed measuring process: its run directory.
const RUN_DIR_ENV: &str = "PERFBENCH_RUN_DIR";
/// Set alongside: `tmpfs` or `disk`, what the run directory sits on.
const SUBSTRATE_ENV: &str = "PERFBENCH_SUBSTRATE";

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut seen = [false; 4];
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                if !catalog::WORKLOADS.iter().any(|(w, _)| w == value) {
                    return Err(format!("unknown workload {value:?}"));
                }
                o.workload = value.clone();
                seen[0] = true;
            }
            "--seed" => {
                o.seed = value.parse().map_err(|_| bad())?;
                seen[1] = true;
            }
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 120.0) {
                    return Err(bad());
                }
                seen[2] = true;
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
                seen[3] = true;
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if seen != [true; 4] {
        return Err("--workload, --seed, --seconds and --trace are all required".to_string());
    }
    Ok(o)
}

/// What one run reports.
struct Report {
    correct: bool,
    tally: Tally,
    metrics: Vec<(String, f64)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                assert!(v.is_finite(), "metric {name} is not finite: {v}");
                let unit = catalog::unit_of(name).unwrap_or_else(|| panic!("undeclared {name}"));
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.tally.attempted,
            self.tally.failed(),
            metrics.join(", ")
        )
    }
}

fn put(metrics: &mut Vec<(String, f64)>, name: &str, v: f64) {
    metrics.push((name.to_string(), v));
}

/// Percentile `p` of `sorted`, or the "too few samples" error.
fn required(sorted: &[f64], p: f64) -> Result<f64, String> {
    percentile(sorted, p).ok_or_else(|| {
        format!(
            "too few samples for a p{:.0}: {} of them, and it needs {} beyond it",
            p * 100.0,
            sorted.len(),
            stats::MIN_BEYOND
        )
    })
}

/// Log the whole run's client latency percentiles with the sample count.
fn log_latency(sorted: &[f64]) {
    let shown: Vec<String> = [0.5, 0.9, 0.99]
        .iter()
        .map(|&q| match percentile(sorted, q) {
            Some(v) => format!("p{:.0} {v:.3}", q * 100.0),
            None => format!("p{:.0} refused", q * 100.0),
        })
        .collect();
    eprintln!(
        "client latency (ms): {}, max {:.3} over {} samples",
        shown.join(", "),
        sorted.last().copied().unwrap_or(0.0),
        sorted.len()
    );
}

/// Per-layer values a serving run observed itself.
fn serving_layers(m: &mut Vec<(String, f64)>, run: &ServeRun) {
    put(
        m,
        "journal.fsyncs_per_accept",
        run.delta.fsyncs_per_accept(),
    );
    put(m, "service.accept_p50_ms", median(&run.accept_ms));
    put(m, "service.complete_p50_ms", median(&run.complete_ms));
    let probe = run.capacity.as_ref().expect("traced runs probe capacity");
    eprintln!(
        "capacity probe: {:.1} jobs/s over {} s; {} dispatches of {} jobs, {} of {} commits shared",
        probe.jobs_per_s,
        serve::PROBE.as_secs(),
        probe.delta.dispatches,
        probe.delta.dispatched_jobs,
        probe.delta.window_flushes,
        probe.delta.window_flushes + probe.delta.solo_flushes
    );
    put(m, "service.capacity_jobs_per_s", probe.jobs_per_s);
    put(m, "service.batch_occupancy", probe.delta.batch_occupancy());
    put(
        m,
        "service.window_flush_share",
        probe.delta.window_flush_share(),
    );
    put(m, "service.artifact_bytes", run.artifact_bytes);
    put(m, "service.shed", run.delta.shed as f64);
    put(m, "service.rejected", run.delta.rejected as f64);
    put(m, "client.retries", run.tally.retries as f64);
    put(
        m,
        "client.late_sends",
        run.lag_ms.iter().filter(|&&l| l >= 1.0).count() as f64,
    );
}

/// The in-process ledger on `spec`, against a fresh server for the
/// socket floor.
fn ledger_layers(
    m: &mut Vec<(String, f64)>,
    spec: &hq_bench::service::JobSpec,
    dir: &Path,
) -> Result<ledger::Layers, String> {
    let server = Server::boot(&dir.join("ledger-server"))?;
    let layers = ledger::measure(spec, &server, &dir.join("ledger"))?;
    server.shutdown()?;
    for (name, v) in &layers.values {
        put(m, name, *v);
    }
    Ok(layers)
}

/// Order `m` as the catalog declares the per-layer metrics, checking
/// every one is present exactly once.
fn in_catalog_order(m: Vec<(String, f64)>) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for decl in catalog::per_layer() {
        let mut hits = m.iter().filter(|(n, _)| *n == decl.name);
        match (hits.next(), hits.next()) {
            (Some(x), None) => out.push(x.clone()),
            _ => return Err(format!("ledger reported {} not exactly once", decl.name)),
        }
    }
    if out.len() != m.len() {
        return Err("ledger reported an undeclared metric".to_string());
    }
    Ok(out)
}

/// Spans a serving run's window is cut into; end-to-end serving
/// figures are medians over them, so a host slowdown that covers less
/// than half the window does not move them. `serve_warm` completes
/// 1000 jobs a second and affords 2 s spans; `serve_cold` completes 30,
/// so its 8 s spans hold 240 jobs each.
const WARM_SPANS: usize = 20;
const COLD_SPANS: usize = 5;

/// Completed jobs per second and p50 latency of a serving run, each
/// the median over `n` equal spans of the window.
fn windowed(run: &ServeRun, n: usize) -> Result<(f64, f64), String> {
    let samples: Vec<(f64, f64)> = run
        .done_s
        .iter()
        .copied()
        .zip(run.latency_ms.iter().copied())
        .collect();
    let spans = stats::windows(&samples, run.elapsed_s, n);
    let span_s = run.elapsed_s / n as f64;
    let rate: Vec<f64> = spans.iter().map(|w| w.len() as f64 / span_s).collect();
    let p50: Vec<f64> = spans
        .into_iter()
        .map(|w| required(&sorted(w), 0.5))
        .collect::<Result<_, _>>()?;
    eprintln!("per-span jobs/s {rate:.1?}, p50 ms {p50:.4?}");
    Ok((median(&rate), median(&p50)))
}

fn run_serve(o: &Opts, dir: &Path) -> Result<Report, String> {
    let cold = o.workload == "serve_cold";
    let run = if cold {
        serve::cold(dir, o.seed, o.seconds, o.trace)?
    } else {
        serve::warm(dir, o.seed, o.seconds, o.trace)?
    };
    eprintln!("{}: {}", o.workload, run.tally.describe());
    eprintln!("setup samples (s): {:.4?}", run.setup_s);
    let latency = sorted(run.latency_ms.clone());
    log_latency(&latency);
    let (jobs_per_s, p50) = windowed(&run, if cold { COLD_SPANS } else { WARM_SPANS })?;
    let lag = sorted(run.lag_ms.clone());
    eprintln!(
        "generator lag: p50 {:.3} ms, max {:.3} ms; {} of {} sends 1 ms or more late",
        percentile(&lag, 0.5).unwrap_or(0.0),
        lag.last().copied().unwrap_or(0.0),
        lag.iter().filter(|&&l| l >= 1.0).count(),
        lag.len()
    );
    let mut m = Vec::new();
    if !o.trace {
        put(&mut m, "setup_s", median(&run.setup_s));
        put(&mut m, "jobs_per_s", jobs_per_s);
        put(&mut m, "latency_p50_ms", p50);
        put(&mut m, "peak_rss_mb", run.peak_rss_mb);
        eprintln!(
            "error_rate {} ratio; host.calib_ns {:.4} ns",
            run.tally.error_rate(),
            ledger::calib_ns()
        );
        return Ok(Report {
            correct: run.correct,
            tally: run.tally,
            metrics: m,
        });
    }
    serving_layers(&mut m, &run);
    put(&mut m, "client.latency_p90_ms", required(&latency, 0.9)?);
    put(&mut m, "client.latency_p99_ms", required(&latency, 0.99)?);
    put(&mut m, "client.error_rate", run.tally.error_rate());
    put(&mut m, "scenario.hit_ratio", run.hit_ratio);
    let spec = if cold {
        serve::cold_spec(o.seed, 0)
    } else {
        serve::warm_pool(o.seed).swap_remove(0)
    };
    let layers = ledger_layers(&mut m, &spec, dir)?;
    let pass = suite::pass(&dir.join("suite"))?;
    eprintln!(
        "suite layers: one cold registry pass, {:.4} s, scenario cache {} hits {} misses; {}",
        pass.total_s(),
        pass.hits,
        pass.misses,
        pass.tally.describe()
    );
    put(&mut m, "suite.total_s", pass.total_s());
    for (id, s) in &pass.entry_s {
        put(&mut m, &catalog::suite_metric(id), *s);
    }
    eprintln!(
        "{}",
        ledger::time_table(
            &o.workload,
            &ledger::Halves {
                accept_ms: median(&run.accept_ms),
                complete_ms: median(&run.complete_ms),
                latency_ms: required(&latency, 0.5)?,
            },
            run.delta.fsyncs_per_accept(),
            cold,
            &layers
        )
    );
    Ok(Report {
        correct: run.correct && pass.tally.diverged == 0,
        tally: run.tally,
        metrics: in_catalog_order(m)?,
    })
}

/// The measuring process: runs inside the run directory's namespace.
fn measure(o: &Opts, dir: &Path) -> ExitCode {
    // Reference runs for the correctness checks bypass every cache.
    std::env::set_var("HQ_SCENARIO_CACHE", "off");
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}; run dir on {}; {} cpus",
        o.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace),
        std::env::var(SUBSTRATE_ENV).unwrap_or_else(|_| "disk".into()),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    match run_serve(o, dir) {
        Ok(r) => {
            for (name, v) in &r.metrics {
                eprintln!("  {name} = {v} {}", catalog::unit_of(name).unwrap_or("?"));
            }
            println!("{}", r.json());
            if r.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: outputs differ from their reference");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// `unshare` invocation that runs a command with a private tmpfs
/// mounted on `dir`, if this machine allows one.
fn tmpfs_prefix(dir: &Path) -> Option<Vec<String>> {
    const MOUNT: &str = "mount -t tmpfs -o size=2g,mode=0700 perfbench \"$0\"";
    for flags in ["-m", "-rm"] {
        let probe = Command::new("unshare")
            .args([flags, "sh", "-c", MOUNT])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status();
        if probe.is_ok_and(|s| s.success()) {
            let script = format!("{MOUNT} && exec \"$@\"");
            let dir = dir.to_str()?.to_string();
            return Some(vec![
                "unshare".into(),
                flags.into(),
                "sh".into(),
                "-c".into(),
                script,
                dir,
            ]);
        }
    }
    None
}

/// The launching process: make the run directory, re-execute this
/// binary inside it (on a private tmpfs when possible), clean up.
fn launch(args: &[String]) -> ExitCode {
    let root = match std::env::current_dir() {
        Ok(d) => d.join(".perfbench_run"),
        Err(e) => {
            eprintln!("error: current dir: {e}");
            return ExitCode::from(1);
        }
    };
    let dir = root.join(std::process::id().to_string());
    let exe = match std::fs::create_dir_all(&dir).and_then(|()| std::env::current_exe()) {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: prepare {}: {e}", dir.display());
            return ExitCode::from(1);
        }
    };
    let (mut cmd, substrate) = match tmpfs_prefix(&dir) {
        Some(prefix) => {
            let mut c = Command::new(&prefix[0]);
            c.args(&prefix[1..]).arg(&exe);
            (c, "tmpfs")
        }
        None => (Command::new(&exe), "disk"),
    };
    let status = cmd
        .args(args)
        .env(RUN_DIR_ENV, &dir)
        .env(SUBSTRATE_ENV, substrate)
        .status();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&root);
    match status {
        Ok(s) => ExitCode::from(s.code().map_or(1, |c| c.clamp(0, 255) as u8)),
        Err(e) => {
            eprintln!("error: run {}: {e}", exe.display());
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--serve-child") => {
            return ExitCode::from(hyperq_repro::cli::main_with(args[1..].to_vec()))
        }
        Some("--suite-child") => return ExitCode::from(suite::child()),
        Some("--write-manifest") => {
            return match std::fs::write("BENCHMARK.json", catalog::manifest()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: write BENCHMARK.json: {e}");
                    ExitCode::from(1)
                }
            };
        }
        _ => {}
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match std::env::var_os(RUN_DIR_ENV) {
        Some(dir) => measure(&opts, &PathBuf::from(dir)),
        None => launch(&args),
    }
}
