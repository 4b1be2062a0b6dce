//! One soak harness shared by the chaos soak ([`crate::chaos`], the
//! simulator) and the torture soak ([`crate::torture`], the serving
//! plane).
//!
//! A soak implements [`Soak`]: how to draw a case from a seeded
//! [`DetRng`], run it, list one-step simplifications of it, and lay it
//! out as a JSON repro. Everything else lives here once:
//!
//! 1. [`soak`] draws `cases` cases from `seed`, runs them one by one
//!    and stops at the first failure.
//! 2. [`shrink`] greedily minimizes that case: it accepts the first
//!    candidate that still fails in the same category, so the repro
//!    never morphs into a different bug.
//! 3. [`write_repro`] writes the minimized case crash-safely; [`replay`]
//!    reads any repro back, dispatches on its `"kind"` field and runs it.
//!
//! Repros share one header: `"version"` ([`REPRO_VERSION`]) and
//! `"kind"`. Chaos repros predate the kind field and never carry it, so
//! a repro without one is a chaos repro.

use crate::chaos::Chaos;
use crate::torture::Torture;
use crate::util::codec::fnv1a;
use crate::util::write_atomic;
use hq_des::json::{parse_json, Json};
use hq_des::rng::DetRng;
use std::fmt::{Debug, Display};
use std::ops::AddAssign;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Repro file format version (bump on an incompatible case change).
pub const REPRO_VERSION: u64 = 1;

/// Outcome of one soak case.
#[derive(Clone, Debug)]
pub enum Outcome<S, F> {
    /// The case held every invariant; carries its tallies.
    Pass(S),
    /// The case failed (category + human-readable detail).
    Fail(F, String),
}

impl<S, F> Outcome<S, F> {
    /// True for [`Outcome::Pass`].
    pub fn passed(&self) -> bool {
        matches!(self, Outcome::Pass(_))
    }
}

/// The outcome type of soak `S`.
pub type OutcomeOf<S> = Outcome<<S as Soak>::Stats, <S as Soak>::Failure>;

/// One randomized soak: case generation, execution, shrink candidates
/// and the repro field layout.
pub trait Soak {
    /// A fully self-describing case; round-trips through its repro JSON.
    type Case: Clone + Debug + PartialEq;
    /// Failure category. Shrinking only accepts candidates that fail in
    /// the same category.
    type Failure: Copy + Debug + Display + PartialEq;
    /// Tallies of a passing case, summed across a soak.
    type Stats: Debug + Default + Display + AddAssign;
    /// The repro's `"kind"` and the repro file-name prefix.
    const KIND: &'static str;
    /// Cap on accepted shrink steps, so a pathological case cannot soak
    /// the soak.
    const SHRINK_ROUNDS: usize;
    /// The category of a caught panic.
    const PANIC: Self::Failure;

    /// Draw one case.
    fn gen(rng: &mut DetRng) -> Self::Case;
    /// Run one case; panics are caught (see [`guarded`]).
    fn run(case: &Self::Case) -> OutcomeOf<Self>;
    /// One-step simplifications of a case, in the order the shrinker
    /// tries them; every candidate differs from `case`.
    fn candidates(case: &Self::Case) -> Vec<Self::Case>;
    /// Serialize a case into a pretty JSON repro.
    fn to_json(case: &Self::Case) -> String;
    /// Read a case's fields back from a repro whose header
    /// [`parse_repro`] has already checked.
    fn from_json(root: &Json) -> Result<Self::Case, String>;
}

/// Run `f`, reporting a panic inside it as an `S::PANIC` failure rather
/// than tearing down the soak.
pub fn guarded<S: Soak>(f: impl FnOnce() -> OutcomeOf<S>) -> OutcomeOf<S> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(|s| s.as_str())
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string panic>");
        Outcome::Fail(S::PANIC, format!("panic: {msg}"))
    })
}

/// Greedily minimize a failing case: repeatedly accept the first
/// candidate that still fails in category `kind`, until none does or
/// `S::SHRINK_ROUNDS` steps were taken. Returns the minimized case and
/// the number of accepted steps.
pub fn shrink<S: Soak>(case: &S::Case, kind: S::Failure) -> (S::Case, usize) {
    let mut current = case.clone();
    let mut steps = 0;
    while steps < S::SHRINK_ROUNDS {
        let next = S::candidates(&current)
            .into_iter()
            .find(|cand| matches!(S::run(cand), Outcome::Fail(k, _) if k == kind));
        let Some(next) = next else { break };
        current = next;
        steps += 1;
    }
    (current, steps)
}

/// The `"kind"` a repro declares; a repro without one is a chaos repro.
fn repro_kind(root: &Json) -> Result<&str, String> {
    match root.get("kind") {
        None => Ok(Chaos::KIND),
        Some(_) => root.str_field("kind"),
    }
}

/// Parse a repro of soak `S`: check the shared header (version, kind),
/// then read the case's fields.
pub fn parse_repro<S: Soak>(text: &str) -> Result<S::Case, String> {
    let root = parse_json(text)?;
    decode::<S>(&root)
}

fn decode<S: Soak>(root: &Json) -> Result<S::Case, String> {
    let version = root.num("version")?;
    if version != REPRO_VERSION {
        return Err(format!(
            "{} repro format version {version} unsupported (expected {REPRO_VERSION})",
            S::KIND
        ));
    }
    let kind = repro_kind(root)?;
    if kind != S::KIND {
        return Err(format!("repro kind '{kind}' is not a {} case", S::KIND));
    }
    S::from_json(root)
}

/// Write a repro file crash-safely: the JSON goes through
/// [`write_atomic`] (fsync + rename), so a crash mid-shrink can never
/// leave a torn repro behind — the file is either absent or complete.
pub fn write_repro<S: Soak>(path: &Path, case: &S::Case) -> std::io::Result<()> {
    write_atomic(path, &S::to_json(case))
}

/// Load a repro file of either soak, dispatching on its `"kind"`, and
/// replay it. Returns the verdict line (`PASS …` or `FAIL (category)`
/// plus detail) when the file parses — the *case* may still fail, which
/// is the point of a repro — and `Err` when the file itself is unusable.
pub fn replay(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let root = parse_json(&text)?;
    match repro_kind(&root)? {
        Chaos::KIND => replay_case::<Chaos>(&root),
        Torture::KIND => replay_case::<Torture>(&root),
        other => Err(format!("unknown repro kind '{other}'")),
    }
}

fn replay_case<S: Soak>(root: &Json) -> Result<String, String> {
    Ok(match S::run(&decode::<S>(root)?) {
        Outcome::Pass(stats) => format!("PASS — the case runs clean ({stats})"),
        Outcome::Fail(kind, detail) => format!("FAIL ({kind})\n{detail}"),
    })
}

/// A soak's first failure, minimized.
#[derive(Debug)]
pub struct SoakFailure<F> {
    /// Zero-based index of the failing case.
    pub case: usize,
    /// Failure category.
    pub kind: F,
    /// Detail of the original (unshrunk) failure.
    pub detail: String,
    /// Accepted shrink steps.
    pub steps: usize,
    /// The minimized case's repro file.
    pub repro: PathBuf,
}

/// Result of a soak: either every case passed, or the first failure.
pub struct SoakReport<S: Soak> {
    /// Cases run (stops at the first failure).
    pub cases: usize,
    /// Tallies summed across passing cases.
    pub totals: S::Stats,
    /// First failure by case index, shrunk, with its repro path.
    pub failure: Option<SoakFailure<S::Failure>>,
}

/// Run `cases` generated cases from `seed`, one at a time through
/// [`Soak::run`]. On the first failure, shrink it and write its repro
/// under `repro_dir` as `KIND-category-hash.json`. `progress` is called
/// after each case with (index, outcome). Errors only when the repro
/// cannot be written.
pub fn soak<S: Soak>(
    cases: usize,
    seed: u64,
    repro_dir: &Path,
    mut progress: impl FnMut(usize, &OutcomeOf<S>),
) -> std::io::Result<SoakReport<S>> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut totals = S::Stats::default();
    for i in 0..cases {
        let case = S::gen(&mut rng);
        let outcome = S::run(&case);
        progress(i, &outcome);
        match outcome {
            Outcome::Pass(stats) => totals += stats,
            Outcome::Fail(kind, detail) => {
                let (small, steps) = shrink::<S>(&case, kind);
                let repro = repro_dir.join(format!(
                    "{}-{kind}-{:016x}.json",
                    S::KIND,
                    fnv1a(S::to_json(&small).as_bytes())
                ));
                std::fs::create_dir_all(repro_dir)?;
                write_repro::<S>(&repro, &small)?;
                return Ok(SoakReport {
                    cases: i + 1,
                    totals,
                    failure: Some(SoakFailure {
                        case: i,
                        kind,
                        detail,
                        steps,
                        repro,
                    }),
                });
            }
        }
    }
    Ok(SoakReport {
        cases,
        totals,
        failure: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every shrink candidate differs from its parent (so shrinking
    /// always moves) and survives its own repro round-trip (so a shrunk
    /// case replays as itself).
    fn candidates_differ_and_round_trip<S: Soak>(seed: u64) {
        let mut rng = DetRng::seed_from_u64(seed);
        for _ in 0..10 {
            let case = S::gen(&mut rng);
            for cand in S::candidates(&case) {
                assert_ne!(cand, case, "{} candidate equals its parent", S::KIND);
                let back = parse_repro::<S>(&S::to_json(&cand)).expect("candidate repro parses");
                assert_eq!(back, cand, "{} candidate changed in its repro", S::KIND);
            }
        }
    }

    /// A toy soak: a case is a number, and any number ≥ 90 "fails".
    struct Toy;

    impl Soak for Toy {
        type Case = u64;
        type Failure = &'static str;
        type Stats = u64;
        const KIND: &'static str = "toy";
        const SHRINK_ROUNDS: usize = 100;
        const PANIC: &'static str = "panic";

        fn gen(rng: &mut DetRng) -> u64 {
            rng.gen_range(0u64..100)
        }
        fn run(case: &u64) -> OutcomeOf<Toy> {
            if *case >= 90 {
                Outcome::Fail("big", format!("{case} is too big"))
            } else {
                Outcome::Pass(1)
            }
        }
        fn candidates(case: &u64) -> Vec<u64> {
            (*case > 0).then(|| case - 1).into_iter().collect()
        }
        fn to_json(case: &u64) -> String {
            Json::obj([
                ("version", 1u64.into()),
                ("kind", "toy".into()),
                ("n", (*case).into()),
            ])
            .pretty()
        }
        fn from_json(root: &Json) -> Result<u64, String> {
            root.num("n")
        }
    }

    /// The driver stops at the first failing case, shrinks it to the
    /// smallest failure and names its repro by the shrunk case's hash.
    #[test]
    fn driver_stops_at_the_first_failure_and_writes_its_shrunk_repro() {
        let dir = std::env::temp_dir().join(format!("hq_soak_driver_{}", std::process::id()));
        let report = soak::<Toy>(500, 3, &dir, |_, _| {}).unwrap();
        let first = report
            .failure
            .as_ref()
            .expect("some case ≥ 90 in 500 draws");
        assert_eq!(report.cases, first.case + 1);
        assert_eq!(
            report.totals, first.case as u64,
            "every earlier case passed"
        );
        assert_eq!(first.kind, "big");
        let original: u64 = first.detail.split(' ').next().unwrap().parse().unwrap();
        assert_eq!(first.steps as u64, original - 90, "one step per candidate");
        let text = std::fs::read_to_string(&first.repro).unwrap();
        assert_eq!(
            parse_repro::<Toy>(&text),
            Ok(90),
            "shrunk to the smallest failure"
        );
        let name = format!("toy-big-{:016x}.json", fnv1a(Toy::to_json(&90).as_bytes()));
        assert_eq!(first.repro, dir.join(name));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shrink_candidates_differ_and_round_trip_for_every_soak() {
        candidates_differ_and_round_trip::<Chaos>(17);
        candidates_differ_and_round_trip::<Torture>(17);
    }

    #[test]
    fn repro_header_is_checked_before_fields() {
        let torture = Torture::to_json(&Torture::gen(&mut DetRng::seed_from_u64(3)));
        let chaos = Chaos::to_json(&Chaos::gen(&mut DetRng::seed_from_u64(3)));
        // Each soak rejects the other's repros by kind, and a wrong
        // version by version.
        assert!(parse_repro::<Chaos>(&torture).unwrap_err().contains("kind"));
        assert!(parse_repro::<Torture>(&chaos).unwrap_err().contains("kind"));
        let future = chaos.replace("\"version\": 1", "\"version\": 2");
        assert!(parse_repro::<Chaos>(&future)
            .unwrap_err()
            .contains("version"));
        // An explicit chaos kind is accepted like a missing one.
        let explicit = chaos.replacen('{', "{\"kind\": \"chaos\",", 1);
        assert!(parse_repro::<Chaos>(&explicit).is_ok());
    }

    /// A panic inside a case becomes the soak's panic category with the
    /// panic message, whether the payload is a `&str` or a `String`.
    #[test]
    fn guarded_classifies_panics() {
        let out = guarded::<Chaos>(|| panic!("boom"));
        assert!(matches!(out, Outcome::Fail(k, ref d) if k == Chaos::PANIC && d == "panic: boom"));
        let out = guarded::<Torture>(|| panic!("{}", String::from("bang")));
        assert!(
            matches!(out, Outcome::Fail(k, ref d) if k == Torture::PANIC && d == "panic: bang")
        );
    }
}
