//! The per-layer ledger of a traced run: each layer timed from outside
//! by calling its public functions on the workload's own job spec, plus
//! the "where a served job's time goes" table.

use crate::server::Server;
use crate::stats::median;
use hq_bench::scenario::{encode_outcome, run_scenario_workload};
use hq_bench::service::{
    render_artifact, JobDone, JobSpec, Journal, Request, Response, TenantPolicy, TenantQueues,
};
use hq_bench::util::write_atomic;
use hq_power::PowerMonitor;
use hyperq_core::harness::{build_schedule, run_schedule, RunConfig};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Batches per layer measurement; the median batch is reported.
const BATCHES: usize = 7;
/// Wall time one batch aims at.
const BATCH_TARGET: Duration = Duration::from_millis(15);

/// Median per-call nanoseconds of `f`, over [`BATCHES`] batches sized
/// from one timed warm-up call to last about [`BATCH_TARGET`] each.
pub fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1);
    let iters = (BATCH_TARGET.as_nanos() / once).clamp(1, 1_000_000) as usize;
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// Nanoseconds per step of a fixed integer mixing loop: the machine's
/// speed at the time of the run, recorded as context only.
pub fn calib_ns() -> f64 {
    const STEPS: u64 = 100_000;
    per_call_ns(|| {
        let mut x = black_box(0x5EED_u64);
        for _ in 0..STEPS {
            x = crate::serve::mix(x);
        }
        black_box(x);
    }) / STEPS as f64
}

/// The run configuration the service derives from a default-device,
/// concurrent job spec.
fn config_for(spec: &JobSpec) -> RunConfig {
    RunConfig::concurrent(spec.streams)
        .with_order(spec.order)
        .with_memsync(spec.memsync)
        .with_seed(spec.seed)
}

/// Layer timings of one job spec.
pub struct Layers {
    pub values: Vec<(&'static str, f64)>,
}

impl Layers {
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("ledger has no {name}"))
    }
}

/// Time every in-process layer on `spec`, and the socket floor against
/// `server`. Scratch files go under `dir`.
pub fn measure(spec: &JobSpec, server: &Server, dir: &Path) -> Result<Layers, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut v: Vec<(&'static str, f64)> = Vec::new();

    let mut client = server.connect()?;
    let ping = per_call_ns(|| {
        let r = client.call(&Request::Ping);
        assert!(matches!(r, Ok(Response::Pong)), "ping answered {r:?}");
    });
    v.push(("protocol.ping_rtt_us", ping / 1e3));

    let done = Response::Done(
        41,
        JobDone::Ok {
            artifact: dir.join("artifacts/job-41.out").display().to_string(),
        },
    );
    let codec = per_call_ns(|| {
        let req = Request::Submit(spec.clone()).encode();
        black_box(Request::decode(black_box(&req)).expect("request round-trips"));
        let resp = done.encode();
        black_box(Response::decode(black_box(&resp)).expect("response round-trips"));
    });
    v.push(("protocol.codec_us", codec / 1e3));

    let (mut journal, _) =
        Journal::open(&dir.join("journal.wal")).map_err(|e| format!("open ledger journal: {e}"))?;
    let mut id = 0u64;
    let accept = per_call_ns(|| {
        id += 1;
        journal.accept(id, spec).expect("journal accept");
    });
    v.push(("journal.accept_sync_us", accept / 1e3));

    let policy = TenantPolicy::default();
    let mut queues: TenantQueues<u64> = TenantQueues::default();
    let mut n = 0u64;
    let push_pop = per_call_ns(|| {
        n += 1;
        queues.push("t0", n);
        queues.push("t1", n);
        black_box(queues.pop(&policy).expect("queued"));
        black_box(queues.pop(&policy).expect("queued"));
    });
    v.push(("tenancy.push_pop_ns", push_pop / 2.0));

    let cfg = config_for(spec);
    let kinds = spec.workload.clone();
    let specs = build_schedule(&kinds, cfg.order, cfg.seed);
    let build = per_call_ns(|| {
        black_box(build_schedule(black_box(&kinds), cfg.order, cfg.seed));
    });
    v.push(("core.build_schedule_us", build / 1e3));

    let mut out = run_schedule(&cfg, &specs).map_err(|e| format!("simulate: {e}"))?;
    let run = per_call_ns(|| {
        out = run_schedule(&cfg, &specs).expect("simulation reruns");
    });
    let monitor = PowerMonitor::with_period(cfg.power, cfg.sample_period);
    let power = per_call_ns(|| {
        black_box(monitor.measure(black_box(&out.result)));
    });
    let sim = (run - power).max(0.0);
    let perf = out.result.perf;
    v.push(("gpu.sim_us_per_job", sim / 1e3));
    v.push(("gpu.ns_per_event", sim / out.result.events.max(1) as f64));
    v.push(("des.events_per_job", out.result.events as f64));
    v.push(("des.peak_pending", perf.peak_pending as f64));
    v.push(("des.tombstone_ratio", perf.tombstone_ratio));
    v.push(("power.measure_us", power / 1e3));

    let artifact = render_artifact(spec, &out);
    let render = per_call_ns(|| {
        black_box(render_artifact(spec, black_box(&out)));
    });
    v.push(("service.render_us", render / 1e3));
    let artifact_path = dir.join("job-41.out");
    let write = per_call_ns(|| write_atomic(&artifact_path, &artifact).expect("write artifact"));
    v.push(("service.artifact_write_us", write / 1e3));

    let entry = encode_outcome(&cfg, &specs, &out);
    let entry_path = dir.join("entry.v2");
    let insert = per_call_ns(|| {
        let text = encode_outcome(&cfg, &specs, black_box(&out));
        write_atomic(&entry_path, &text).expect("write cache entry");
    });
    v.push(("scenario.insert_us", insert / 1e3));
    v.push(("scenario.entry_bytes", entry.len() as f64));

    // The memo layer alone: in-process cache, nothing on disk.
    std::env::set_var("HQ_SCENARIO_CACHE", "mem");
    run_scenario_workload(&cfg, &kinds).map_err(|e| format!("prime memo: {e}"))?;
    let hit = per_call_ns(|| {
        black_box(run_scenario_workload(&cfg, &kinds).expect("memo hit"));
    });
    std::env::set_var("HQ_SCENARIO_CACHE", "off");
    v.push(("scenario.memo_hit_us", hit / 1e3));

    v.push(("host.calib_ns", calib_ns()));
    Ok(Layers { values: v })
}

/// Median submit→`Accepted` and `Accepted`→`Done` times of a serving
/// run, the two halves of a served job's client latency.
pub struct Halves {
    pub accept_ms: f64,
    pub complete_ms: f64,
    pub latency_ms: f64,
}

/// "Where a served job's time goes": per job, the layer costs on each
/// half of the client latency, and what the layers leave unexplained on
/// that half as its own row: admission and the group-commit window on
/// the accept side, queue wait and dispatch on the completion side.
pub fn time_table(
    workload: &str,
    h: &Halves,
    fsyncs_per_accept: f64,
    cold: bool,
    l: &Layers,
) -> String {
    let trip = l.get("protocol.ping_rtt_us") + l.get("protocol.codec_us");
    let accept: Vec<(String, f64)> = vec![
        ("socket round trip + codec".into(), trip),
        (
            format!("journal fsync ({fsyncs_per_accept:.2} per accept)"),
            fsyncs_per_accept * l.get("journal.accept_sync_us"),
        ),
    ];
    let mut complete: Vec<(String, f64)> = vec![("socket round trip + codec".into(), trip)];
    if cold {
        complete.push(("schedule build".into(), l.get("core.build_schedule_us")));
        complete.push((
            "simulation (event loop)".into(),
            l.get("gpu.sim_us_per_job"),
        ));
        complete.push(("power model".into(), l.get("power.measure_us")));
        complete.push(("scenario-cache insert".into(), l.get("scenario.insert_us")));
    } else {
        complete.push((
            "scenario-cache memo hit".into(),
            l.get("scenario.memo_hit_us"),
        ));
    }
    complete.push(("artifact render".into(), l.get("service.render_us")));
    complete.push(("artifact write".into(), l.get("service.artifact_write_us")));
    let total_us = h.latency_ms * 1e3;
    let mut s = format!(
        "\nwhere a served job's time goes ({workload}, p50 client latency {total_us:.1} us)\n\n\
         | stage | us per job | share of p50 |\n|---|---:|---:|\n"
    );
    let mut row = |stage: &str, us: f64| {
        s.push_str(&format!(
            "| {stage} | {us:.1} | {:.1}% |\n",
            100.0 * us / total_us
        ));
    };
    for (half, measured_ms, rows, rest) in [
        (
            "submit -> accepted",
            h.accept_ms,
            &accept,
            "admission, group-commit window",
        ),
        (
            "accepted -> done",
            h.complete_ms,
            &complete,
            "queue wait, dispatch",
        ),
    ] {
        row(&format!("**{half} (p50)**"), measured_ms * 1e3);
        for (stage, us) in rows {
            row(&format!("- {stage}"), *us);
        }
        let explained: f64 = rows.iter().map(|r| r.1).sum();
        row(
            &format!("- unexplained: {rest}"),
            measured_ms * 1e3 - explained,
        );
    }
    row("**client latency (p50)**", total_us);
    s
}
