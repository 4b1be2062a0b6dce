//! The JSON writer and parser (`hq_des::json`) against each other and
//! against the documents the CLI writes: arbitrary strings and finite
//! floats survive write → parse in both layouts, a Chrome-trace label
//! with `"` and `\` stays valid JSON, and `hyperq run --json` writes a
//! real run summary.

use hyperq_repro::cli::{commands::execute, parse_args};
use hyperq_repro::des::json::{parse_json, Json};
use hyperq_repro::des::time::SimTime;
use hyperq_repro::des::trace::{SpanKind, TraceLog};
use hyperq_repro::gpu::prelude::AppOutcome;
use hyperq_repro::hyperq::harness::{run_workload, RunConfig};
use hyperq_repro::hyperq::summary::RunSummary;
use hyperq_repro::workloads::apps::AppKind;
use proptest::prelude::*;

/// A character biased toward what needs escaping: control characters,
/// quotes and backslashes, multi-byte and astral characters.
fn pick_char(u: u32) -> char {
    let v = u >> 2;
    match u & 3 {
        0 => char::from_u32(v % 0x20).expect("control character"),
        1 => ['"', '\\', '/', 'a', ' ', '\u{7f}', 'é', '𝄞'][(v % 8) as usize],
        2 => char::from_u32(0x20 + v % 0x5f).expect("printable ASCII"),
        _ => char::from_u32(v % 0x11_0000).unwrap_or('\u{fffd}'),
    }
}

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u32>(), 0..24)
        .prop_map(|cs| cs.into_iter().map(pick_char).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strings_and_floats_round_trip(s in arb_string(), bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        prop_assume!(x.is_finite());
        let doc = Json::Obj(vec![
            (s.clone(), Json::Str(s.clone())),
            ("x".into(), Json::F64(x)),
            ("deep".into(), Json::Arr(vec![Json::Arr(vec![Json::Str(s.clone()), Json::F64(x)])])),
        ]);
        for text in [doc.pretty(), doc.compact()] {
            let back = parse_json(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            prop_assert_eq!(back.str_field(&s), Ok(s.as_str()));
            let got = back.get("x").and_then(Json::as_f64).expect("x is a number");
            prop_assert_eq!(got.to_bits(), x.to_bits(), "{} in {}", x, text);
            let Some(Json::Arr(deep)) = back.get("deep") else { panic!("{text}") };
            prop_assert_eq!(&deep[0], &Json::Arr(vec![Json::Str(s.clone()), back.get("x").unwrap().clone()]));
        }
    }
}

#[test]
fn chrome_trace_label_with_quote_and_backslash_is_valid_json() {
    let label = r#"Fan "1" C:\k\n"#;
    let mut log = TraceLog::enabled();
    log.record(
        3,
        SpanKind::Kernel,
        label,
        SimTime::from_ns(500),
        SimTime::from_ns(2_000),
    );
    let text = log.to_chrome_json();
    let Json::Arr(events) = parse_json(&text).unwrap_or_else(|e| panic!("{e}: {text}")) else {
        panic!("not an array: {text}");
    };
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].str_field("name"), Ok(label));
    assert_eq!(events[0].get("ts").and_then(Json::as_f64), Some(0.5));
    assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(1.5));
    assert_eq!(events[0].num("tid"), Ok(3));
}

fn opt_num(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

#[test]
fn run_json_writes_the_run_summary() {
    let dir = std::env::temp_dir().join(format!("hq-run-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("summary.json");
    let mut args: Vec<String> = "run --workload gaussian+needle --streams 4 --seed 7 --json"
        .split(' ')
        .map(String::from)
        .collect();
    args.push(path.display().to_string());
    let cli = parse_args(args).unwrap();
    execute(cli).expect("run succeeds");
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let doc = parse_json(&text).unwrap_or_else(|e| panic!("{e}: {text}"));

    let cfg = RunConfig::concurrent(4).with_seed(7);
    let out = run_workload(&cfg, &[AppKind::Gaussian, AppKind::Needle]).unwrap();
    let want = RunSummary::from(&out);
    assert_eq!(doc.num("makespan_ns"), Ok(want.makespan_ns));
    assert_eq!(doc.num("events"), Ok(want.events));
    for (key, x) in [
        ("energy_j", want.energy_j),
        ("avg_power_w", want.avg_power_w),
        ("peak_power_w", want.peak_power_w),
        ("mean_occupancy", want.mean_occupancy),
    ] {
        let got = doc.get(key).and_then(Json::as_f64);
        assert_eq!(got.map(f64::to_bits), Some(x.to_bits()), "{key}");
    }
    let schedule: Vec<Json> = want.schedule.iter().map(|s| Json::Str(s.clone())).collect();
    assert_eq!(doc.arr("schedule"), Ok(schedule.as_slice()));
    assert_eq!(doc.num("retries"), Ok(want.retries as u64));
    assert_eq!(doc.boolean("degraded"), Ok(want.degraded));
    assert_eq!(doc.get("faults").unwrap().num("watchdog_kills"), Ok(0));

    let apps = doc.arr("apps").unwrap();
    assert_eq!(apps.len(), want.apps.len());
    for (got, app) in apps.iter().zip(&want.apps) {
        assert_eq!(got.str_field("label"), Ok(app.label.as_str()));
        assert_eq!(got.num("turnaround_ns"), Ok(app.turnaround_ns));
        assert_eq!(got.get("le_htod_ns"), Some(&opt_num(app.le_htod_ns)));
        assert_eq!(got.get("le_dtoh_ns"), Some(&opt_num(app.le_dtoh_ns)));
        assert_eq!(got.num("kernels"), Ok(app.kernels as u64));
        assert_eq!(got.num("htod_bytes"), Ok(app.htod_bytes));
        assert_eq!(got.num("dtoh_bytes"), Ok(app.dtoh_bytes));
        assert_eq!(got.num("faults"), Ok(app.faults as u64));
        assert_eq!(app.outcome, AppOutcome::Completed);
        let outcome = got.get("outcome").unwrap();
        assert_eq!(outcome.str_field("kind"), Ok("completed"));
    }
    assert!(
        want.apps.iter().all(|a| a.le_htod_ns.is_some()),
        "Le measured"
    );
}
