//! Speed ratios taken inside one run, each against its own in-process
//! reference, never against a number recorded on another day:
//!
//! * `queue.{schedule_pop,cancel_heavy,churn,same_instant_waves}` — the
//!   production [`EventQueue`] against a frozen copy of the
//!   pre-overhaul queue on the same four access patterns;
//! * `sim.label_heavy` — a program with hundreds of distinct kernel and
//!   buffer names simulated with tracing on against the same program
//!   with tracing off, so a label path that allocates per span shows up
//!   as a traced/untraced gap.
//!
//! Timings are best-of-reps with the two sides interleaved, so a burst
//! of machine load slows both. A ratio that misses its bound is
//! measured again, up to [`ATTEMPTS`] times, and only a miss that
//! repeats on every attempt fails: one scheduler stall cannot fail the
//! test, a real slowdown can.
//!
//! The test is `#[ignore]`d because debug-build timings mean nothing;
//! run it in release:
//!
//! ```text
//! cargo test --release -p hq-bench --test speed_ratios -- --include-ignored
//! ```

use hq_des::prelude::*;
use hq_gpu::config::{DeviceConfig, HostConfig};
use hq_gpu::kernel::KernelDesc;
use hq_gpu::program::Program;
use hq_gpu::GpuSim;
use std::time::Instant;

/// Measurements per ratio before a miss counts.
const ATTEMPTS: usize = 3;

/// The pre-overhaul future-event list, frozen verbatim (minus unused
/// API) so the speedup of the production queue stays measurable in
/// perpetuity: `BinaryHeap` ordered by `(time, seq)` with `HashSet`
/// tombstones — one SipHash probe per pop and per cancel.
mod reference {
    use hq_des::time::SimTime;
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashSet};

    pub struct EventId(u64);

    struct Scheduled<M> {
        at: SimTime,
        seq: u64,
        msg: M,
    }

    impl<M> PartialEq for Scheduled<M> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<M> Eq for Scheduled<M> {}
    impl<M> Ord for Scheduled<M> {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }
    impl<M> PartialOrd for Scheduled<M> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    pub struct EventQueue<M> {
        heap: BinaryHeap<Scheduled<M>>,
        cancelled: HashSet<u64>,
        now: SimTime,
        next_seq: u64,
    }

    impl<M> EventQueue<M> {
        pub fn new() -> Self {
            EventQueue {
                heap: BinaryHeap::new(),
                cancelled: HashSet::new(),
                now: SimTime::ZERO,
                next_seq: 0,
            }
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn schedule_at(&mut self, at: SimTime, msg: M) -> EventId {
            let at = at.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Scheduled { at, seq, msg });
            EventId(seq)
        }

        pub fn cancel(&mut self, id: EventId) -> bool {
            if id.0 >= self.next_seq {
                return false;
            }
            self.cancelled.insert(id.0)
        }

        pub fn pop(&mut self) -> Option<(SimTime, M)> {
            while let Some(ev) = self.heap.pop() {
                if self.cancelled.remove(&ev.seq) {
                    continue;
                }
                self.now = ev.at;
                return Some((ev.at, ev.msg));
            }
            None
        }
    }
}

/// A queue implementation the patterns can drive.
trait Queue {
    type Id;
    fn new() -> Self;
    fn now(&self) -> SimTime;
    fn schedule_at(&mut self, at: SimTime, msg: u64) -> Self::Id;
    fn cancel(&mut self, id: Self::Id) -> bool;
    fn pop(&mut self) -> Option<(SimTime, u64)>;
}

impl Queue for EventQueue<u64> {
    type Id = EventId;
    fn new() -> Self {
        EventQueue::new()
    }
    fn now(&self) -> SimTime {
        EventQueue::now(self)
    }
    fn schedule_at(&mut self, at: SimTime, msg: u64) -> EventId {
        EventQueue::schedule_at(self, at, msg)
    }
    fn cancel(&mut self, id: EventId) -> bool {
        EventQueue::cancel(self, id)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        EventQueue::pop(self)
    }
}

impl Queue for reference::EventQueue<u64> {
    type Id = reference::EventId;
    fn new() -> Self {
        reference::EventQueue::new()
    }
    fn now(&self) -> SimTime {
        reference::EventQueue::now(self)
    }
    fn schedule_at(&mut self, at: SimTime, msg: u64) -> reference::EventId {
        reference::EventQueue::schedule_at(self, at, msg)
    }
    fn cancel(&mut self, id: reference::EventId) -> bool {
        reference::EventQueue::cancel(self, id)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        reference::EventQueue::pop(self)
    }
}

// ---------------------------------------------------------------------
// Queue patterns. Each returns the number of *delivered* events, the
// events/sec numerator.
// ---------------------------------------------------------------------

/// Schedule 10k events at scattered times, then drain.
fn pattern_schedule_pop<Q: Queue>() -> u64 {
    let mut q = Q::new();
    for i in 0..10_000u64 {
        q.schedule_at(SimTime::from_ns((i * 7919) % 100_000), i);
    }
    let mut n = 0;
    while q.pop().is_some() {
        n += 1;
    }
    n
}

/// Schedule 5k, cancel every other one, then drain.
fn pattern_cancel_heavy<Q: Queue>() -> u64 {
    let mut q = Q::new();
    let ids: Vec<Q::Id> = (0..5_000u64)
        .map(|i| q.schedule_at(SimTime::from_ns(i), i))
        .collect();
    for id in ids.into_iter().step_by(2) {
        q.cancel(id);
    }
    let mut n = 0;
    while q.pop().is_some() {
        n += 1;
    }
    n
}

/// The simulator's dominant pattern: processor-sharing reschedule
/// churn. Keep ~512 group-completion events pending; each "rate
/// change" cancels and re-issues a slice of them, then a few events
/// are delivered. Cancels ≈ schedules and deliveries are rare, so a
/// lazy-tombstone queue's dead entries pile up far faster than pops
/// drain them — the regime the purge + bitvec scheme is built for
/// (the pre-overhaul queue's heap grows without bound here).
fn pattern_reschedule_churn<Q: Queue>() -> u64 {
    const GROUPS: usize = 128;
    const ROUNDS: usize = 20_000;
    const SLICE: usize = 32;
    let mut q = Q::new();
    let mut ids: Vec<Q::Id> = Vec::with_capacity(GROUPS);
    let mut t = 0u64;
    for g in 0..GROUPS as u64 {
        t += 37;
        ids.push(q.schedule_at(SimTime::from_ns(100_000 + t), g));
    }
    let mut delivered = 0u64;
    for round in 0..ROUNDS {
        // A rate change re-times one slice of pending completions.
        let base = (round * SLICE) % GROUPS;
        for (k, slot) in ids.iter_mut().skip(base).take(SLICE).enumerate() {
            t += 91;
            let at = q.now() + Dur::from_ns(50_000 + (t % 75_000));
            let id = q.schedule_at(at, (base + k) as u64);
            let old = std::mem::replace(slot, id);
            q.cancel(old);
        }
        // A few completions are delivered and immediately replaced.
        for _ in 0..4 {
            if let Some((_, g)) = q.pop() {
                delivered += 1;
                t += 53;
                let at = q.now() + Dur::from_ns(60_000 + (t % 90_000));
                ids[g as usize % GROUPS] = q.schedule_at(at, g % GROUPS as u64);
            }
        }
    }
    while q.pop().is_some() {
        delivered += 1;
    }
    delivered
}

/// The GPU model's steady-wave shape: a 13-SMX device's block groups
/// finish at one instant, and each completion re-arms its SMX one wave
/// later, so every schedule lands on the instant of the schedule before
/// it. A queue that keeps same-instant events in one run node pays no
/// sift for most of these pops and schedules.
fn pattern_same_instant_waves<Q: Queue>() -> u64 {
    const WIDTH: u64 = 13;
    const WAVE_NS: u64 = 7_000;
    const EVENTS: u64 = 20_000;
    let mut q = Q::new();
    for smx in 0..WIDTH {
        q.schedule_at(SimTime::from_ns(WAVE_NS), smx);
    }
    let mut delivered = 0;
    while let Some((t, smx)) = q.pop() {
        delivered += 1;
        if delivered + WIDTH <= EVENTS {
            q.schedule_at(t + Dur::from_ns(WAVE_NS), smx);
        }
    }
    delivered
}

/// Call `f` once: its work count and wall-clock seconds.
fn timed(f: impl FnOnce() -> u64) -> (u64, f64) {
    let t0 = Instant::now();
    let work = std::hint::black_box(f());
    (work, t0.elapsed().as_secs_f64())
}

/// Best-of-`reps` seconds of `a` and of `b`, each returning its work
/// count and timed seconds. The two run alternately so machine load
/// lands on both.
fn best_pair(
    reps: usize,
    mut a: impl FnMut() -> (u64, f64),
    mut b: impl FnMut() -> (u64, f64),
) -> [(u64, f64); 2] {
    let mut best = [(0, f64::INFINITY); 2];
    for _ in 0..reps {
        for (slot, (work, secs)) in best.iter_mut().zip([a(), b()]) {
            *slot = (work, slot.1.min(secs));
        }
    }
    best
}

/// `Ok(report line)` when a ratio holds, `Err(report line)` when it
/// misses; either line names the measurement, both sides and the bound.
type Verdict = Result<String, String>;

/// Production over frozen events/s on one pattern must reach `floor`.
fn queue_ratio(name: &str, floor: f64, production: fn() -> u64, frozen: fn() -> u64) -> Verdict {
    let [(events, prod_s), (ref_events, ref_s)] =
        best_pair(15, || timed(production), || timed(frozen));
    assert_eq!(
        events, ref_events,
        "{name}: both queues must deliver the same events"
    );
    let (prod, reference) = (events as f64 / prod_s, events as f64 / ref_s);
    let ratio = prod / reference;
    let line = format!(
        "{name}: production {:.2}M events/s vs frozen {:.2}M events/s = {ratio:.2}x (floor {floor}x)",
        prod / 1e6,
        reference / 1e6
    );
    if ratio >= floor {
        Ok(line)
    } else {
        Err(line)
    }
}

/// The label-heavy program: 48 applications of 24 kernels each, every
/// kernel and buffer with its own generated name, on 16 streams.
/// Returns the events delivered and the seconds `run` took; building
/// the program is not timed.
fn label_heavy(trace: bool) -> (u64, f64) {
    let mut sim = GpuSim::with_trace(DeviceConfig::tesla_k20(), HostConfig::default(), 7, trace);
    let streams = sim.create_streams(16);
    for a in 0..48u32 {
        let mut b = Program::builder(format!("labelheavy#{a}"))
            .htod(256 << 10, format!("input_buffer_{a}"));
        for k in 0..24u32 {
            b = b.launch(KernelDesc::new(
                format!("labelheavy_kernel_{a}_{k}_stage{}", k % 7),
                26u32,
                256u32,
                Dur::from_ns(30_000),
            ));
        }
        let program = b.dtoh(256 << 10, format!("output_buffer_{a}")).build();
        sim.add_app(program, streams[(a % 16) as usize]);
    }
    timed(|| sim.run().expect("label-heavy run").perf.events)
}

/// Traced over untraced wall clock of the label-heavy run must stay at
/// or below `ceiling`. The ratio sees only cost confined to the trace
/// path: a label regression that also slows untraced runs cancels out.
fn label_heavy_ratio(ceiling: f64) -> Verdict {
    let [(events, traced_s), (untraced_events, untraced_s)] =
        best_pair(9, || label_heavy(true), || label_heavy(false));
    assert_eq!(
        events, untraced_events,
        "tracing must not change the trajectory"
    );
    let ratio = traced_s / untraced_s;
    let line = format!(
        "sim.label_heavy: traced {:.2}M events/s vs untraced {:.2}M events/s = {ratio:.2}x the time \
         (ceiling {ceiling}x)",
        events as f64 / traced_s / 1e6,
        events as f64 / untraced_s / 1e6
    );
    if ratio <= ceiling {
        Ok(line)
    } else {
        Err(line)
    }
}

#[test]
#[ignore = "timing-sensitive: run in release with --include-ignored"]
fn speed_ratios_hold_against_in_process_references() {
    type Q = EventQueue<u64>;
    type F = reference::EventQueue<u64>;
    let checks: [&dyn Fn() -> Verdict; 5] = [
        &|| {
            queue_ratio(
                "queue.schedule_pop",
                0.8,
                pattern_schedule_pop::<Q>,
                pattern_schedule_pop::<F>,
            )
        },
        &|| {
            queue_ratio(
                "queue.cancel_heavy",
                1.5,
                pattern_cancel_heavy::<Q>,
                pattern_cancel_heavy::<F>,
            )
        },
        &|| {
            queue_ratio(
                "queue.churn",
                1.25,
                pattern_reschedule_churn::<Q>,
                pattern_reschedule_churn::<F>,
            )
        },
        &|| {
            queue_ratio(
                "queue.same_instant_waves",
                2.0,
                pattern_same_instant_waves::<Q>,
                pattern_same_instant_waves::<F>,
            )
        },
        &|| label_heavy_ratio(1.25),
    ];
    let mut failures = Vec::new();
    for check in checks {
        let mut last_miss = String::new();
        let held = (1..=ATTEMPTS).any(|attempt| match check() {
            Ok(line) => {
                eprintln!("{line}");
                true
            }
            Err(line) => {
                eprintln!("miss on attempt {attempt}/{ATTEMPTS}: {line}");
                last_miss = line;
                false
            }
        });
        if !held {
            failures.push(last_miss);
        }
    }
    assert!(
        failures.is_empty(),
        "speed ratios missed on all {ATTEMPTS} attempts:\n{}",
        failures.join("\n")
    );
}
