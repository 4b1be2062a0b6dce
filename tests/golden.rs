//! Golden trajectory pins: an oracle that does not share code with
//! what it checks.
//!
//! Every other determinism test compares two paths of the *same* build
//! (serial vs batch, cached vs uncached, audited vs not), so a change
//! that shifts every path by the same simulated nanosecond passes them
//! all. These tests pin, as constants, what a fixed set of scenarios
//! produces: the FNV-1a digest of the outcome's cache-entry bytes (the
//! wall-clock `perf ` line and the `crc ` header that covers it are
//! excluded), the event count and the makespan.
//!
//! A performance change to the simulator must leave every row
//! untouched. A deliberate model change updates the table: a failing
//! run prints the rows it computed in the table's own syntax.

use hq_bench::chaos::{self, Chaos};
use hq_bench::scenario::encode_outcome;
use hq_bench::soak::Soak;
use hq_bench::torture;
use hyperq_repro::des::rng::DetRng;
use hyperq_repro::des::time::Dur;
use hyperq_repro::gpu::config::DeviceConfig;
use hyperq_repro::gpu::fault::{FaultKind, FaultPlan};
use hyperq_repro::gpu::types::AppId;
use hyperq_repro::hyperq::harness::{
    build_schedule, run_schedule, MemsyncMode, RecoveryPolicy, RunConfig,
};
use hyperq_repro::workloads::apps::AppKind;

/// The `serve_cold` benchmark's job shape: the paper's four-app Rodinia
/// mix on 8 streams.
const COLD_MIX: [AppKind; 4] = [
    AppKind::Gaussian,
    AppKind::Knearest,
    AppKind::Needle,
    AppKind::Srad,
];

/// One pinned scenario: name, artifact digest, events, makespan (ns).
type Pin = (&'static str, u64, u64, u64);

const PINS: &[Pin] = &[
    ("cold-seed-1", 0x6c879862b37bf44d, 72559, 79852119),
    ("cold-seed-7", 0x9307272b5be0c4ac, 72559, 79852013),
    ("cold-seed-42", 0x7cb94200daf1590d, 72559, 79852617),
    ("cold-seed-1234", 0x1d81d4516f1867e4, 72559, 79851684),
    ("cold-seed-12648430", 0xf81e34a6d4fe4cc6, 72559, 79852452),
    ("cold-seed-9876543210", 0x310c58d79fc0ae26, 72559, 79852274),
    ("serial", 0x290011618dc5280b, 70947, 85476980),
    ("memsync-traced", 0xd1f4f58803d0812e, 72653, 79623973),
    ("k40", 0xe0c82762e1bcc1dd, 72885, 72215166),
    ("fermi", 0x47fe763491194c42, 70947, 81207668),
    ("hang-abort-retry", 0xd57d629e72de8714, 27651, 216214989),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The pinned scenarios, in table order.
fn scenarios() -> Vec<(String, RunConfig, Vec<AppKind>)> {
    let mut out = Vec::new();
    for seed in [1u64, 7, 42, 1234, 0xC0FFEE, 9_876_543_210] {
        out.push((
            format!("cold-seed-{seed}"),
            RunConfig::concurrent(8).with_seed(seed),
            COLD_MIX.to_vec(),
        ));
    }
    out.push((
        "serial".to_string(),
        RunConfig::serial().with_seed(7),
        COLD_MIX.to_vec(),
    ));
    out.push((
        "memsync-traced".to_string(),
        RunConfig::concurrent(8)
            .with_memsync(MemsyncMode::Synced)
            .with_trace(true)
            .with_seed(7),
        COLD_MIX.to_vec(),
    ));
    let mut k40 = RunConfig::concurrent(8).with_seed(7);
    k40.device = DeviceConfig::tesla_k40();
    out.push(("k40".to_string(), k40, COLD_MIX.to_vec()));
    let mut fermi = RunConfig::concurrent(8).with_seed(7);
    fermi.device = DeviceConfig::fermi_like();
    out.push(("fermi".to_string(), fermi, COLD_MIX.to_vec()));
    // Hangs (killed by the watchdog the harness arms for any fault
    // plan) and aborts, recovered by retrying the failed apps alone.
    let plan = FaultPlan::none()
        .with_fault(FaultKind::KernelHang, AppId(0), 400)
        .with_fault(FaultKind::KernelFault, AppId(2), 1)
        .with_fault(FaultKind::KernelHang, AppId(3), 2)
        .with_seed(0x601d);
    out.push((
        "hang-abort-retry".to_string(),
        RunConfig::concurrent(8)
            .with_seed(11)
            .with_faults(plan)
            .with_recovery(RecoveryPolicy::Retry {
                max_attempts: 2,
                backoff: Dur::from_us(200),
            }),
        COLD_MIX.to_vec(),
    ));
    out
}

fn compute() -> Vec<(String, u64, u64, u64)> {
    scenarios()
        .into_iter()
        .map(|(name, cfg, kinds)| {
            let specs = build_schedule(&kinds, cfg.order, cfg.seed);
            let out = run_schedule(&cfg, &specs)
                .unwrap_or_else(|e| panic!("scenario {name} failed: {e}"));
            let artifact: String = encode_outcome(&cfg, &specs, &out)
                .lines()
                .filter(|l| !l.starts_with("perf ") && !l.starts_with("crc "))
                .flat_map(|l| [l, "\n"])
                .collect();
            (
                name,
                fnv1a(artifact.as_bytes()),
                out.result.events,
                out.result.makespan.as_ns(),
            )
        })
        .collect()
}

#[test]
fn simulated_trajectories_match_their_pins() {
    let got = compute();
    let table: String = got
        .iter()
        .map(|(n, d, e, m)| format!("    (\"{n}\", 0x{d:016x}, {e}, {m}),\n"))
        .collect();
    let same = got.len() == PINS.len()
        && got
            .iter()
            .zip(PINS)
            .all(|((n, d, e, m), p)| (n.as_str(), *d, *e, *m) == *p);
    assert!(
        same,
        "trajectories drifted from the pins; computed:\n{table}"
    );
}

/// `GroupDone` events in one cold-mix job (seed 1): 70,332 of its
/// 72,559 events, most of them gaussian Fan2 groups of 8 blocks alone
/// on their SMX.
const COLD_GROUP_DONE: u64 = 70_332;

/// Refills on the cold mix (seed 1): `GroupDone` events that re-arm a
/// lone group in place, whether popped or booked by a solo-grid
/// replay.
const COLD_REFILLS: u64 = 59_363;

/// The simulator's steady-wave refill must keep serving most of the
/// cold mix's group completions, and its solo-grid replay must keep
/// booking most of the events without popping them. Neither ever
/// changes a trajectory, so the pins above cannot see an edit that
/// quietly turns them off or narrows them; these shares can.
#[test]
fn steady_wave_refill_serves_most_cold_mix_group_completions() {
    let cfg = RunConfig::concurrent(8).with_seed(1);
    let specs = build_schedule(&COLD_MIX, cfg.order, cfg.seed);
    let perf = run_schedule(&cfg, &specs).expect("cold run").result.perf;
    assert_eq!(perf.events, 72_559, "the cold mix changed; re-measure");
    assert!(
        perf.refills * 4 >= COLD_GROUP_DONE * 3,
        "refill share {} of {COLD_GROUP_DONE} GroupDone events is below 75%",
        perf.refills
    );
    assert_eq!(
        perf.refills, COLD_REFILLS,
        "the replay must book exactly the refills it replaces"
    );
    assert!(
        perf.skipped * 100 >= perf.events * 80,
        "solo-grid replay booked {} of {} events, below 80%",
        perf.skipped,
        perf.events
    );
}

#[test]
fn the_fault_scenario_exercises_hangs_aborts_and_retries() {
    let (name, cfg, kinds) = scenarios().pop().expect("fault scenario");
    let specs = build_schedule(&kinds, cfg.order, cfg.seed);
    let out = run_schedule(&cfg, &specs).expect("fault scenario runs");
    let f = out.result.faults;
    assert!(f.watchdog_kills > 0, "{name}: no hang was killed: {f:?}");
    assert!(f.kernel_faults > 0, "{name}: no kernel aborted: {f:?}");
    assert!(out.retries > 0, "{name}: nothing was retried");
}

/// One pinned JSON document set: name and the FNV-1a digest of the
/// documents' bytes, concatenated in generation order.
const DOC_PINS: &[(&str, u64)] = &[
    ("chaos-42x50", 0xe6838704d2d930c5),
    ("chaos-7x200", 0x0325605aa14ac6ea),
    ("torture-11x20", 0x66232cb0f4f6aff9),
    ("chrome-cold-seed-7", 0xe477889d5dc49364),
];

/// Chaos repros of `n` cases drawn from `seed`, each followed by the
/// repros of its shrink candidates (which cover empty fault lists).
fn chaos_repros(seed: u64, n: usize) -> String {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut out = String::new();
    for _ in 0..n {
        let case = chaos::gen_case(&mut rng);
        out.push_str(&chaos::case_to_json(&case));
        for cand in Chaos::candidates(&case) {
            out.push_str(&chaos::case_to_json(&cand));
        }
    }
    out
}

fn torture_repros(seed: u64, n: usize) -> String {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n)
        .map(|_| torture::case_to_json(&torture::gen_case(&mut rng)))
        .collect()
}

/// The Chrome trace of a traced `serve_cold`-mix run.
fn cold_chrome_trace() -> String {
    let cfg = RunConfig::concurrent(8).with_trace(true).with_seed(7);
    let specs = build_schedule(&COLD_MIX, cfg.order, cfg.seed);
    let out = run_schedule(&cfg, &specs).expect("traced run");
    out.result.trace.to_chrome_json()
}

#[test]
fn json_documents_match_their_pins() {
    let got = [
        ("chaos-42x50", fnv1a(chaos_repros(42, 50).as_bytes())),
        ("chaos-7x200", fnv1a(chaos_repros(7, 200).as_bytes())),
        ("torture-11x20", fnv1a(torture_repros(11, 20).as_bytes())),
        ("chrome-cold-seed-7", fnv1a(cold_chrome_trace().as_bytes())),
    ];
    let table: String = got
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", 0x{d:016x}),\n"))
        .collect();
    assert!(
        got.as_slice() == DOC_PINS,
        "JSON documents drifted from the pins; computed:\n{table}"
    );
}
