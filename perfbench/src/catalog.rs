//! The benchmark's declared interface: workloads, end-to-end metrics
//! and per-layer metrics, and the `BENCHMARK.json` manifest written
//! from them (`--write-manifest`).

/// Workload names and why each was chosen.
pub const WORKLOADS: [(&str, &str); 2] = [
    (
        "serve_warm",
        "open loop, 1000 jobs/s, default needle jobs from a primed 4-seed pool on 2 tenants: every \
         job is a scenario-cache memo hit, so only the serving plane is timed",
    ),
    (
        "serve_cold",
        "open loop, 30 jobs/s evenly spaced, every job a unique gaussian+nn+nw+srad scenario on \
         8 streams: simulation, power and cache inserts dominate; no queue forms, so no batching",
    ),
];

/// One declared metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Allowed share of the parent's median by which an end-to-end
    /// metric may worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

fn m(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// Metrics a user of the system sees, measured with tracing off. The
/// timing bounds sit at the 0.25 ceiling: on the 2-vCPU reference VM
/// the host's load shifts CPU-bound medians by up to ~10% between sets
/// of runs made minutes apart (see README, "Spread").
pub fn end_to_end() -> Vec<Metric> {
    vec![
        m("setup_s", "s", "lower", Some(0.25)),
        m("jobs_per_s", "jobs/s", "higher", Some(0.25)),
        m("latency_p50_ms", "ms", "lower", Some(0.25)),
        m("peak_rss_mb", "MB", "lower", Some(0.25)),
    ]
}

/// Metrics of single layers, from the traced run.
pub fn per_layer() -> Vec<Metric> {
    let mut v = vec![
        m("protocol.ping_rtt_us", "us", "lower", None),
        m("protocol.codec_us", "us", "lower", None),
        m("journal.accept_sync_us", "us", "lower", None),
        m("journal.fsyncs_per_accept", "ratio", "lower", None),
        m("tenancy.push_pop_ns", "ns", "lower", None),
        m("service.accept_p50_ms", "ms", "lower", None),
        m("service.complete_p50_ms", "ms", "lower", None),
        m("service.capacity_jobs_per_s", "jobs/s", "higher", None),
        m("service.batch_occupancy", "jobs/dispatch", "higher", None),
        m("service.window_flush_share", "ratio", "higher", None),
        m("service.render_us", "us", "lower", None),
        m("service.artifact_write_us", "us", "lower", None),
        m("service.artifact_bytes", "bytes", "lower", None),
        m("service.shed", "count", "lower", None),
        m("service.rejected", "count", "lower", None),
        m("client.retries", "count", "lower", None),
        m("client.late_sends", "count", "lower", None),
        m("client.latency_p90_ms", "ms", "lower", None),
        m("client.latency_p99_ms", "ms", "lower", None),
        m("client.error_rate", "ratio", "lower", None),
        m("scenario.hit_ratio", "ratio", "higher", None),
        m("scenario.memo_hit_us", "us", "lower", None),
        m("scenario.insert_us", "us", "lower", None),
        m("scenario.entry_bytes", "bytes", "lower", None),
        m("core.build_schedule_us", "us", "lower", None),
        m("gpu.sim_us_per_job", "us", "lower", None),
        m("gpu.ns_per_event", "ns", "lower", None),
        m("des.events_per_job", "count", "lower", None),
        m("des.peak_pending", "count", "lower", None),
        m("des.tombstone_ratio", "ratio", "lower", None),
        m("power.measure_us", "us", "lower", None),
        m("suite.total_s", "s", "lower", None),
    ];
    for (_, id, _) in hq_bench::suite::registry() {
        v.push(m(&suite_metric(id), "s", "lower", None));
    }
    v.push(m("host.calib_ns", "ns", "lower", None));
    v
}

/// Per-layer metric name of one registry entry's wall time.
pub fn suite_metric(id: &str) -> String {
    format!("suite.{id}_s")
}

/// Unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end()
        .into_iter()
        .chain(per_layer())
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

/// The program and arguments that run the benchmark from the repository
/// root; the workload flags follow.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 40;

/// `BENCHMARK.json`, pretty-printed.
pub fn manifest() -> String {
    let quote = |s: &str| format!("\"{s}\"");
    let command: Vec<String> = COMMAND.iter().map(|s| quote(s)).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": {}, \"why\": {}}}", quote(n), quote(why)))
        .collect();
    let metric = |m: &Metric| match m.bound {
        Some(b) => format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {b}}}",
            quote(&m.name),
            quote(m.unit),
            quote(m.better)
        ),
        None => format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
            quote(&m.name),
            quote(m.unit),
            quote(m.better)
        ),
    };
    let e2e: Vec<String> = end_to_end().iter().map(metric).collect();
    let layers: Vec<String> = per_layer().iter().map(metric).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn committed_manifest_matches_the_catalog() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with `cargo run --release --manifest-path perfbench/Cargo.toml -- --write-manifest`"
        );
    }

    #[test]
    fn names_units_and_bounds_are_well_formed() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = HashSet::new();
        for (w, why) in WORKLOADS {
            assert!(name_ok(w) && seen.insert(w.to_string()), "{w}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{w}: why too long");
        }
        for m in &all {
            assert!(
                name_ok(&m.name) && seen.insert(m.name.clone()),
                "{}",
                m.name
            );
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
            assert!(m.better == "lower" || m.better == "higher");
        }
        assert!(end_to_end()
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = &end_to_end()[0];
        assert_eq!((setup.name.as_str(), setup.unit), ("setup_s", "s"));
        let largest = end_to_end()
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        assert!(per_layer().iter().all(|m| m.bound.is_none()));
        assert!(per_layer().len() <= 128);
    }
}
