//! The device + host co-simulation.
//!
//! [`GpuSim`] owns every component — SMX array, grid management unit,
//! DMA engines, streams, host threads and mutexes — and advances them
//! through a single deterministic event loop. The public surface is
//! deliberately CUDA-shaped: create streams, add applications (host
//! threads running [`Program`]s), run, and collect a [`SimResult`].
//!
//! ```
//! use hq_gpu::prelude::*;
//! use hq_des::time::Dur;
//!
//! let mut sim = GpuSim::new(DeviceConfig::tesla_k20(), HostConfig::deterministic(), 42);
//! let s = sim.create_stream();
//! let program = Program::builder("demo")
//!     .htod(1 << 20, "input")
//!     .launch(KernelDesc::new("k", 64u32, 256u32, Dur::from_us(20)))
//!     .dtoh(1 << 20, "output")
//!     .build();
//! sim.add_app(program, s);
//! let result = sim.run().expect("run succeeds");
//! assert_eq!(result.apps.len(), 1);
//! assert!(result.makespan.as_ns() > 0);
//! ```

use crate::audit::Auditor;
use crate::config::{AdmissionPolicy, DeviceConfig, HostConfig};
use crate::dma::Engine;
use crate::fault::{FaultKind, FaultPlan, FaultState, GridFault};
use crate::gmu::{Gmu, GridState, ResourceTotals};
use crate::host::{HostState, HostThread, SimMutex};
use crate::kernel::KernelInfo;
use crate::program::{COp, Program};
use crate::result::{AppOutcome, AppStats, FaultCounters, SimError, SimPerf, SimResult};
use crate::smx::{self, Smx};
use crate::stream::Stream;
use crate::types::{AppId, Dir, GridId, MutexId, OpId, StreamId};
use hq_des::prelude::*;
use hq_des::time::{Dur, SimTime};
use std::collections::VecDeque;

/// Discrete events driving the co-simulation.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A host thread begins executing its program.
    ThreadStart(AppId),
    /// A host thread resumes after a timed operation.
    HostResume(AppId),
    /// The DMA engine for a direction finished its service slice.
    CopyDone(Dir),
    /// A grid finished its GMU launch latency and is dispatchable.
    GridReady(GridId),
    /// A block group on an SMX ran to completion.
    GroupDone { smx: u32, token: u64 },
    /// An injected DMA fault surfaces for a stream's head copy op.
    CopyFault(OpId),
    /// Watchdog check: kill `grid` if it completed no block since the
    /// check was armed (`mark` is the completed-block count back then).
    WatchdogFire { grid: GridId, mark: u32 },
    /// A replayed solo grid's recorded episode ends (see
    /// [`GpuSim::replay`]).
    SoloDone(GridId),
}

/// Device-side operation kinds held in the op arena. `Copy` all the way
/// down: a kernel op embeds its compiled descriptor by value.
#[derive(Debug, Clone, Copy)]
enum OpKind {
    Copy { dir: Dir, bytes: u64 },
    Kernel { desc: KernelInfo },
}

/// One device op in the arena — fully `Copy`, so enqueueing, activating
/// and completing ops never touches the heap (the arena `Vec` itself
/// grows amortized, like a slab).
#[derive(Debug, Clone, Copy)]
struct OpState {
    app: AppId,
    stream: StreamId,
    /// Global host-issue sequence number (engine service order).
    seq: u64,
    kind: OpKind,
    /// Interned trace label; resolved to a string only at boundaries.
    label: Symbol,
}

/// What running one grid alone on an idle device did, from its
/// `GridReady` to the end of the handler that finished it: recorded
/// the first time such a grid runs, replayed in one event by later
/// grids of the same launch (see [`GpuSim::replay`]).
struct Episode {
    desc: KernelInfo,
    full_fit: u32,
    span: Dur,
    /// Every occupancy sample: offset from the start, resident threads,
    /// active SMXs.
    samples: Vec<(Dur, u32, u32)>,
    /// Group tokens handed out, refills served and events delivered.
    tokens: u64,
    refills: u64,
    events: u64,
    /// Most events pending at once beyond those pending at the start,
    /// before the handler that finished the grid.
    peak_pending: usize,
}

/// An episode being recorded, with the counters it started from.
struct Recording {
    gid: GridId,
    t0: SimTime,
    /// When the handler running the grid's `finish_grid` is done.
    finished: Option<SimTime>,
    samples: Vec<(Dur, u32, u32)>,
    peak_pending: usize,
    start_tokens: u64,
    start_refills: u64,
    start_events: u64,
    start_pending: usize,
    start_cancels: (u64, u64),
}

/// The simulator. See the module docs for an end-to-end example.
pub struct GpuSim {
    dev: DeviceConfig,
    host: HostConfig,
    rng: DetRng,
    q: EventQueue<Ev>,
    smxs: Vec<Smx>,
    engines: [Engine; 2],
    streams: Vec<Stream>,
    gmu: Gmu,
    admission_wait: VecDeque<GridId>,
    ops: Vec<OpState>,
    threads: Vec<HostThread>,
    mutexes: Vec<SimMutex>,
    stats: Vec<AppStats>,
    /// Per-simulation string table: program, buffer and kernel labels
    /// are interned at [`GpuSim::add_app`] time and flow through the
    /// event loop as `Copy` [`Symbol`]s.
    interner: Interner,
    trace: TraceLog,
    resident_threads: TimeSeries,
    active_smx: TimeSeries,
    enq_seq: u64,
    group_token: u64,
    finished_threads: usize,
    faults: FaultState,
    fault_stats: FaultCounters,
    audit: Auditor,
    /// `GroupDone` events served by the steady-wave refill.
    refills: u64,
    /// Events of replayed solo-grid episodes that were never scheduled
    /// nor popped, counted in `events`.
    skipped: u64,
    /// Recorded solo-grid episodes, and the one being recorded.
    episodes: Vec<Episode>,
    recording: Option<Recording>,
    /// Launches (kernel, full fit) already seen ready to run solo; a
    /// launch is recorded only once it is in here.
    seen_solo: Vec<(KernelInfo, u32)>,
    #[cfg(test)]
    sabotage: Sabotage,
    /// Test-only switch for the steady-wave refill: off, every
    /// `GroupDone` takes the general path (the equivalence oracle).
    #[cfg(test)]
    steady_refill: bool,
    /// Test-only switch for the solo-grid replay: off, no episode is
    /// recorded or replayed (the equivalence oracle).
    #[cfg(test)]
    solo_replay: bool,
    // Scratch buffers reused across dispatch() calls so the per-event
    // hot path performs no allocations once they reach steady size.
    scratch_fits: Vec<(usize, u32)>,
    scratch_touched: Vec<usize>,
    /// Incrementally maintained occupancy totals (threads resident on
    /// the device, SMX units with at least one resident block), so the
    /// per-event occupancy sample is two pushes instead of a sweep over
    /// the whole SMX array.
    occ_threads: u32,
    occ_active: usize,
    /// True when a grid entered `gmu.dispatchable` since the last full
    /// dispatcher sweep. A full sweep leaves every still-dispatchable
    /// grid fitting on *no* SMX, so later sweeps may restrict their
    /// scan to the one SMX that freed residency — unless a fresh grid
    /// (which was never scanned) arrived in between.
    dispatch_fresh: bool,
}

/// Deliberate invariant-breaking hooks for the auditor's mutation
/// self-test: each variant corrupts the stream of notifications the
/// auditor sees (never the simulation itself), and the self-test
/// asserts the auditor catches the corruption. Guards against the
/// auditor silently going blind.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Sabotage {
    /// No corruption (default).
    None,
    /// Report every block-group completion twice.
    DoubleComplete,
    /// Report a phantom oversized placement alongside each real one.
    OverAdmit,
}

impl GpuSim {
    /// Create a simulator with tracing enabled.
    pub fn new(dev: DeviceConfig, host: HostConfig, seed: u64) -> Self {
        Self::with_trace(dev, host, seed, true)
    }

    /// Create a simulator, choosing whether to record timeline spans
    /// (disable for large parameter sweeps).
    pub fn with_trace(dev: DeviceConfig, host: HostConfig, seed: u64, trace: bool) -> Self {
        let smxs = (0..dev.num_smx).map(|_| Smx::new(dev.smx)).collect();
        GpuSim {
            engines: [
                Engine::new(Dir::HtoD, dev.dma),
                Engine::new(Dir::DtoH, dev.dma),
            ],
            gmu: Gmu::new(dev.hw_queues),
            smxs,
            dev,
            host,
            rng: DetRng::seed_from_u64(seed),
            q: EventQueue::new(),
            streams: Vec::new(),
            admission_wait: VecDeque::new(),
            ops: Vec::new(),
            threads: Vec::new(),
            mutexes: Vec::new(),
            stats: Vec::new(),
            interner: Interner::new(),
            trace: if trace {
                TraceLog::enabled()
            } else {
                TraceLog::disabled()
            },
            resident_threads: TimeSeries::new(),
            active_smx: TimeSeries::new(),
            enq_seq: 0,
            group_token: 0,
            finished_threads: 0,
            faults: FaultState::new(FaultPlan::none()),
            fault_stats: FaultCounters::default(),
            audit: Auditor::off(),
            refills: 0,
            skipped: 0,
            episodes: Vec::new(),
            recording: None,
            seen_solo: Vec::new(),
            #[cfg(test)]
            sabotage: Sabotage::None,
            #[cfg(test)]
            steady_refill: true,
            #[cfg(test)]
            solo_replay: true,
            scratch_fits: Vec::new(),
            scratch_touched: Vec::new(),
            occ_threads: 0,
            occ_active: 0,
            dispatch_fresh: false,
        }
    }

    /// Enable the online invariant auditor (see [`crate::audit`]). The
    /// run then aborts with [`SimError::AuditFailure`] on the first
    /// invariant violation instead of continuing on corrupt state.
    /// Off by default: auditing shadows every transition and is meant
    /// for soak testing, not for measured sweeps.
    pub fn enable_audit(&mut self) {
        self.audit = Auditor::on(&self.dev);
    }

    /// True when [`GpuSim::enable_audit`] was called.
    pub fn audit_enabled(&self) -> bool {
        self.audit.is_on()
    }

    #[cfg(test)]
    pub(crate) fn set_sabotage(&mut self, s: Sabotage) {
        self.sabotage = s;
    }

    #[cfg(test)]
    pub(crate) fn set_steady_refill(&mut self, on: bool) {
        self.steady_refill = on;
    }

    #[cfg(test)]
    pub(crate) fn set_solo_replay(&mut self, on: bool) {
        self.solo_replay = on;
    }

    /// Install a fault plan (see [`crate::fault`]). Call before
    /// [`GpuSim::run`]. An empty plan leaves the run bit-identical to a
    /// simulator without the reliability layer: fault decisions draw
    /// from a dedicated RNG forked from the plan seed, never from the
    /// simulation RNG.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultState::new(plan);
    }

    /// Create one CUDA stream; returns its id (also the trace lane).
    pub fn create_stream(&mut self) -> StreamId {
        let id = StreamId(self.streams.len() as u32);
        self.streams.push(Stream::new());
        id
    }

    /// Create `n` streams.
    pub fn create_streams(&mut self, n: u32) -> Vec<StreamId> {
        (0..n).map(|_| self.create_stream()).collect()
    }

    /// Create a host-side mutex for the memory-sync technique.
    pub fn create_mutex(&mut self) -> MutexId {
        let id = MutexId(self.mutexes.len() as u32);
        self.mutexes.push(SimMutex::new());
        id
    }

    /// Add an application (one host thread running `program` against
    /// `stream`). The order of `add_app` calls is the launch order: the
    /// parent staggers thread starts by
    /// [`HostConfig::thread_launch_stagger`].
    pub fn add_app(&mut self, program: Program, stream: StreamId) -> AppId {
        assert!(
            stream.index() < self.streams.len(),
            "unknown stream {stream}"
        );
        let app = AppId(self.threads.len() as u32);
        self.stats
            .push(AppStats::new(app, program.label.clone(), stream));
        // Compile once: every label becomes a `Symbol`, every op `Copy`.
        let compiled = program.compile(&mut self.interner);
        self.threads.push(HostThread::new(app, stream, compiled));
        app
    }

    /// Make `app` start only after `dep` finishes (serialized baseline).
    pub fn set_start_after(&mut self, app: AppId, dep: AppId) {
        assert_ne!(app, dep, "thread cannot wait on itself");
        self.threads[app.index()].start_after = Some(dep);
    }

    /// Run to completion.
    pub fn run(mut self) -> Result<SimResult, SimError> {
        self.begin()?;
        let loop_start = std::time::Instant::now();
        while let Some((_, ev)) = self.q.pop() {
            self.handle(ev);
            if self.audit.tripped() {
                return Err(self.audit_failure());
            }
        }
        let wall_secs = loop_start.elapsed().as_secs_f64();
        self.complete(wall_secs)
    }

    /// Pre-flight and initial events: place every application's device
    /// footprint through the allocator (exactly as the paper's parent
    /// thread cudaMallocs everything before launching children), then
    /// schedule the staggered thread starts.
    fn begin(&mut self) -> Result<(), SimError> {
        let mut pool = crate::memory::MemoryPool::new(self.dev.device_mem_bytes);
        for t in &self.threads {
            if t.program.device_bytes > 0
                && pool.alloc(t.program.device_bytes, Some(t.app)).is_err()
            {
                let requested: u64 = self.threads.iter().map(|t| t.program.device_bytes).sum();
                return Err(SimError::DeviceMemoryExceeded {
                    app: self.interner.resolve(t.program.label).to_string(),
                    app_requested: t.program.device_bytes,
                    requested,
                    capacity: self.dev.device_mem_bytes,
                });
            }
        }

        // Parent thread launches independent children with a stagger, in
        // add order; dependent children start when their dependency
        // finishes.
        let mut at = SimTime::ZERO;
        for i in 0..self.threads.len() {
            if self.threads[i].start_after.is_none() {
                let jit = self.jitter();
                self.q
                    .schedule_at(at + jit, Ev::ThreadStart(AppId(i as u32)));
                at += self.host.thread_launch_stagger;
            }
        }
        Ok(())
    }

    /// Post-drain bookkeeping: deadlock detection, audit finalization,
    /// reliability sweeps, and `SimResult` extraction.
    fn complete(mut self, wall_secs: f64) -> Result<SimResult, SimError> {
        if self.finished_threads != self.threads.len() {
            let stuck = self
                .threads
                .iter()
                .filter(|t| !t.is_done())
                .map(|t| self.describe_stuck(t))
                .collect();
            return Err(SimError::Deadlock { stuck });
        }

        // End-of-run conservation sweep: with every host thread done and
        // the queue drained, the audited world must be quiescent.
        if self.audit.is_on() {
            let now = self.q.now();
            self.audit.finalize(now);
            if self.audit.tripped() {
                return Err(self.audit_failure());
            }
        }

        // Post-run reliability accounting: residency or mutexes still
        // held at drain time indicate a reclamation bug (validate()
        // flags either as a violation).
        self.fault_stats.leaked_residency = self
            .smxs
            .iter()
            .map(|s| s.resident_threads() as u64)
            .sum();
        self.fault_stats.held_mutexes = self
            .mutexes
            .iter()
            .filter(|m| m.holder().is_some())
            .count() as u32;

        let makespan = self
            .threads
            .iter()
            .filter_map(|t| t.finished)
            .max()
            .unwrap_or(SimTime::ZERO);
        let qs = self.q.stats();
        let events = self.events();
        let [htod, dtoh] = self.engines;
        Ok(SimResult {
            device: self.dev,
            makespan,
            apps: self.stats,
            trace: self.trace,
            resident_threads: self.resident_threads,
            active_smx: self.active_smx,
            dma_busy: [htod.util.series().clone(), dtoh.util.series().clone()],
            events,
            perf: SimPerf {
                events,
                wall_secs,
                events_per_sec: if wall_secs > 0.0 {
                    events as f64 / wall_secs
                } else {
                    0.0
                },
                peak_pending: qs.peak_pending,
                cancelled: qs.cancelled,
                stale_cancels: qs.stale_cancels,
                tombstone_ratio: qs.tombstone_ratio(),
                refills: self.refills,
                skipped: self.skipped,
            },
            faults: self.fault_stats,
        })
    }

    /// Render the auditor's structured failure report.
    fn audit_failure(&self) -> SimError {
        let (violations, context) = self.audit.render_report();
        SimError::AuditFailure { violations, context }
    }

    /// Diagnostic line for a thread that never finished: names the mutex
    /// (and its current holder) or the stream the thread is stuck on.
    fn describe_stuck(&self, t: &HostThread) -> String {
        // Labels are interned: resolve them so diagnostics name culprits
        // by string, never by raw symbol id.
        let label = self.interner.resolve(t.program.label);
        match t.state {
            HostState::BlockedOnMutex(m) => {
                let holder = match self.mutexes[m.index()].holder() {
                    Some(h) => self.interner.resolve(self.threads[h.index()].program.label),
                    None => "nobody",
                };
                format!("{label} (blocked on {m} held by {holder})")
            }
            HostState::BlockedOnSync => {
                format!("{label} (blocked syncing {})", t.stream)
            }
            _ => format!("{label} ({:?})", t.state),
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Events delivered so far: popped plus replayed.
    fn events(&self) -> u64 {
        self.q.popped() + self.skipped
    }

    fn handle(&mut self, ev: Ev) {
        if self.audit.is_on() {
            // Time monotonicity + transition-ring context; the closure
            // keeps the Debug formatting off the unaudited hot path.
            let now = self.q.now();
            self.audit.on_event(now, || format!("{ev:?}"));
        }
        // Only the recorded grid's own completions may run inside its
        // episode.
        if self.recording.is_some() && !matches!(ev, Ev::GroupDone { .. }) {
            self.recording = None;
        }
        match ev {
            Ev::ThreadStart(app) => {
                let now = self.q.now();
                let t = &mut self.threads[app.index()];
                debug_assert_eq!(t.state, HostState::NotStarted);
                t.state = HostState::Running;
                t.started = Some(now);
                self.stats[app.index()].started = Some(now);
                self.host_step(app);
            }
            Ev::HostResume(app) => self.host_step(app),
            Ev::CopyDone(dir) => self.on_copy_done(dir),
            Ev::GridReady(grid) => self.on_grid_ready(grid),
            Ev::GroupDone { smx, token } => self.on_group_done(smx as usize, token),
            Ev::CopyFault(op) => self.on_copy_fault(op),
            Ev::WatchdogFire { grid, mark } => self.on_watchdog_fire(grid, mark),
            Ev::SoloDone(grid) => self.finish_grid(grid),
        }
        if self.recording.is_some() {
            self.note_recording();
        }
    }

    fn jitter(&mut self) -> Dur {
        let mean = self.host.jitter_mean.as_secs_f64();
        if mean == 0.0 {
            Dur::ZERO
        } else {
            Dur::from_secs_f64(self.rng.gen_exp(mean))
        }
    }

    /// Execute the host thread's current op. Exactly one of three things
    /// happens: a resume event is scheduled (timed op), the thread
    /// blocks (mutex / sync), or the thread finishes.
    fn host_step(&mut self, app: AppId) {
        let idx = app.index();
        if self.threads[idx].pc >= self.threads[idx].program.ops.len() {
            self.finish_thread(app);
            return;
        }
        // Ops are `Copy`: stepping a program clones nothing (the trace
        // label for copies was pre-interned at compile time, direction
        // suffix included).
        let op = self.threads[idx].program.ops[self.threads[idx].pc];
        match op {
            COp::HostWork(dur) => {
                self.threads[idx].pc += 1;
                let jit = self.jitter();
                self.q.schedule_in(dur + jit, Ev::HostResume(app));
            }
            COp::Memcpy { dir, bytes, label } => {
                self.enqueue_device_op(app, OpKind::Copy { dir, bytes }, label);
                self.threads[idx].pc += 1;
                let cost = self.host.driver_call_overhead + self.jitter();
                self.q.schedule_in(cost, Ev::HostResume(app));
            }
            COp::Launch(kernel) => {
                self.enqueue_device_op(app, OpKind::Kernel { desc: kernel }, kernel.name);
                self.threads[idx].pc += 1;
                let cost = self.host.driver_call_overhead + self.jitter();
                self.q.schedule_in(cost, Ev::HostResume(app));
            }
            COp::Sync => {
                let stream = self.threads[idx].stream;
                if self.streams[stream.index()].add_sync_waiter(app) {
                    self.threads[idx].state = HostState::BlockedOnSync;
                } else {
                    self.threads[idx].pc += 1;
                    let cost = self.host.driver_call_overhead + self.jitter();
                    self.q.schedule_in(cost, Ev::HostResume(app));
                }
            }
            COp::Lock(m) => {
                let granted = self.mutexes[m.index()].lock(app);
                self.audit.on_mutex_lock(self.q.now(), m, app, granted);
                if granted {
                    self.threads[idx].pc += 1;
                    let cost = self.host.mutex_overhead + self.jitter();
                    self.q.schedule_in(cost, Ev::HostResume(app));
                } else {
                    self.threads[idx].state = HostState::BlockedOnMutex(m);
                }
            }
            COp::Unlock(m) => {
                let next = self.mutexes[m.index()].unlock(app);
                self.audit.on_mutex_unlock(self.q.now(), m, app, next);
                if let Some(next) = next {
                    // FIFO handoff: the woken thread's pending MutexLock
                    // op completes now.
                    let nt = &mut self.threads[next.index()];
                    debug_assert_eq!(nt.state, HostState::BlockedOnMutex(m));
                    nt.state = HostState::Running;
                    nt.pc += 1;
                    let cost = self.host.mutex_overhead + self.jitter();
                    self.q.schedule_in(cost, Ev::HostResume(next));
                }
                self.threads[idx].pc += 1;
                let cost = self.host.mutex_overhead + self.jitter();
                self.q.schedule_in(cost, Ev::HostResume(app));
            }
        }
    }

    fn finish_thread(&mut self, app: AppId) {
        let now = self.q.now();
        let t = &mut self.threads[app.index()];
        debug_assert!(!t.is_done(), "thread finished twice");
        t.state = HostState::Done;
        t.finished = Some(now);
        self.stats[app.index()].finished = Some(now);
        self.finished_threads += 1;
        self.force_release_mutexes(app);
        // Start dependents (serialized baselines chain thread starts).
        for i in 0..self.threads.len() {
            if self.threads[i].start_after == Some(app) {
                let d = self.host.thread_launch_stagger + self.jitter();
                self.q.schedule_in(d, Ev::ThreadStart(AppId(i as u32)));
            }
        }
    }

    /// Safety net mirroring robust-mutex semantics: a thread that ends
    /// while still holding a mutex (e.g. its program faulted past the
    /// unlock) releases it so FIFO waiters are not stranded forever.
    fn force_release_mutexes(&mut self, app: AppId) {
        for mi in 0..self.mutexes.len() {
            if self.mutexes[mi].holder() != Some(app) {
                continue;
            }
            self.fault_stats.forced_mutex_releases += 1;
            let next = self.mutexes[mi].unlock(app);
            self.audit
                .on_mutex_unlock(self.q.now(), MutexId(mi as u32), app, next);
            if let Some(next) = next {
                let m = MutexId(mi as u32);
                let nt = &mut self.threads[next.index()];
                debug_assert_eq!(nt.state, HostState::BlockedOnMutex(m));
                nt.state = HostState::Running;
                nt.pc += 1;
                let cost = self.host.mutex_overhead + self.jitter();
                self.q.schedule_in(cost, Ev::HostResume(next));
            }
        }
    }

    // ------------------------------------------------------------------
    // Device-op plumbing
    // ------------------------------------------------------------------

    fn enqueue_device_op(&mut self, app: AppId, kind: OpKind, label: Symbol) {
        let stream = self.threads[app.index()].stream;
        let op = OpId(self.ops.len() as u32);
        let seq = self.enq_seq;
        self.enq_seq += 1;
        self.ops.push(OpState {
            app,
            stream,
            seq,
            kind,
            label,
        });
        self.audit.on_enqueue(self.q.now(), stream, op);
        if self.streams[stream.index()].enqueue(op) {
            if self.streams[stream.index()].is_poisoned() {
                self.error_op(op);
            } else {
                self.activate_op(op);
            }
        }
    }

    /// Drain an op as completed-with-error on a poisoned stream: it does
    /// no device work and finishes immediately (CUDA sticky-error
    /// semantics — the host thread keeps running and every call returns
    /// the error).
    fn error_op(&mut self, op: OpId) {
        self.mark_errored(op);
        self.complete_op(op);
    }

    /// Account an op that completed with the stream's sticky error: its
    /// owning app observed the failure even if the original fault hit
    /// another app sharing the stream.
    fn mark_errored(&mut self, op: OpId) {
        self.fault_stats.ops_errored += 1;
        let app = self.ops[op.index()].app;
        let stream = self.ops[op.index()].stream;
        if let Some(reason) = self.streams[stream.index()].error() {
            let st = &mut self.stats[app.index()];
            if !st.outcome.is_failed() {
                st.outcome = AppOutcome::Failed { reason };
            }
        }
    }

    /// An op reached the head of its stream and may execute.
    fn activate_op(&mut self, op: OpId) {
        let now = self.q.now();
        let o = &self.ops[op.index()];
        match &o.kind {
            OpKind::Copy { dir, bytes } => {
                let (dir, bytes, seq, stream, app) = (*dir, *bytes, o.seq, o.stream, o.app);
                if self.faults.next_copy_fails(app) {
                    // The failure surfaces after the bus latency, like a
                    // real aborted transfer.
                    self.q.schedule_in(self.dev.dma.latency, Ev::CopyFault(op));
                    return;
                }
                self.engines[dir.index()].submit(seq, op, stream, bytes);
                self.kick_engine(dir);
            }
            OpKind::Kernel { desc } => {
                let desc = *desc;
                let stream = o.stream;
                let app = o.app;
                let fate = self.faults.next_kernel_fate(app, desc.blocks());
                let (gid, at_head) = self.gmu.push_grid(op, stream, desc);
                let grid = &mut self.gmu.grids[gid.index()];
                grid.fault = fate;
                grid.full_fit = Smx::new(self.dev.smx).max_fit(&desc);
                self.audit
                    .on_grid_launch(now, gid, self.interner.resolve(desc.name), &desc);
                if at_head {
                    self.gmu.grids[gid.index()].state = GridState::Launching;
                    self.q
                        .schedule_at(now + self.dev.kernel_launch_latency, Ev::GridReady(gid));
                }
            }
        }
    }

    fn kick_engine(&mut self, dir: Dir) {
        let now = self.q.now();
        if let Some(dur) = self.engines[dir.index()].try_start(now) {
            if self.audit.is_on() {
                if let Some(ac) = self.engines[dir.index()].active() {
                    let (op, stream) = (ac.op, ac.stream);
                    let at_head = self.streams[stream.index()].front() == Some(op);
                    self.audit.on_copy_start(now, dir, op, at_head);
                }
            }
            self.q.schedule_in(dur, Ev::CopyDone(dir));
        }
    }

    fn on_copy_done(&mut self, dir: Dir) {
        let now = self.q.now();
        let progress = self.engines[dir.index()].finish_current(now, &mut self.enq_seq);
        self.audit.on_copy_finish(now, dir, progress.op);
        let Self {
            ops,
            trace,
            interner,
            ..
        } = &mut *self;
        let o = &ops[progress.op.index()];
        let (app, stream) = (o.app, o.stream);
        let kind = match dir {
            Dir::HtoD => SpanKind::CopyHtoD,
            Dir::DtoH => SpanKind::CopyDtoH,
        };
        // Pass the label as `&str`: `TraceLog::record` only allocates a
        // `String` when tracing is enabled, and copy completions are a
        // per-event hot path in traceless sweeps.
        trace.record(stream.0, kind, interner.resolve(o.label), progress.started, now);
        self.stats[app.index()]
            .transfers_mut(dir)
            .note_service(progress.started, now);
        if progress.done {
            let total = match self.ops[progress.op.index()].kind {
                OpKind::Copy { bytes, .. } => bytes,
                _ => unreachable!("copy completion for non-copy op"),
            };
            let st = self.stats[app.index()].transfers_mut(dir);
            st.count += 1;
            st.bytes += total;
            self.complete_op(progress.op);
        }
        self.kick_engine(dir);
    }

    /// An injected DMA fault surfaces: record the aborted slice, poison
    /// the stream, fail the app, and complete the op with error.
    fn on_copy_fault(&mut self, op: OpId) {
        let now = self.q.now();
        let o = &self.ops[op.index()];
        let (app, stream, label) = (o.app, o.stream, o.label);
        let dir = match o.kind {
            OpKind::Copy { dir, .. } => dir,
            _ => unreachable!("copy fault for non-copy op"),
        };
        let start = SimTime::from_ns(now.as_ns().saturating_sub(self.dev.dma.latency.as_ns()));
        let kind = match dir {
            Dir::HtoD => SpanKind::CopyHtoD,
            Dir::DtoH => SpanKind::CopyDtoH,
        };
        if self.trace.is_enabled() {
            let label = self.interner.resolve(label);
            self.trace
                .record(stream.0, kind, format!("{label} !copy-fail"), start, now);
        }
        self.fault_stats.copy_faults += 1;
        self.fail_app(app, FaultKind::CopyFail);
        self.streams[stream.index()].poison(FaultKind::CopyFail);
        self.complete_op(op);
    }

    fn complete_op(&mut self, op: OpId) {
        let now = self.q.now();
        let stream = self.ops[op.index()].stream;
        self.audit.on_op_complete(now, stream, op);
        let mut next = self.streams[stream.index()].complete_front(op);
        // Sticky-error drain: once the stream is poisoned, every queued
        // op completes immediately with the error instead of executing.
        while let Some(n) = next {
            if !self.streams[stream.index()].is_poisoned() {
                break;
            }
            self.mark_errored(n);
            self.audit.on_op_complete(now, stream, n);
            next = self.streams[stream.index()].complete_front(n);
        }
        if let Some(next) = next {
            self.activate_op(next);
        }
        for app in self.streams[stream.index()].take_satisfied_waiters() {
            let t = &mut self.threads[app.index()];
            debug_assert_eq!(t.state, HostState::BlockedOnSync);
            t.state = HostState::Running;
            t.pc += 1;
            // Waking from cudaStreamSynchronize costs a short hop back
            // to user code.
            let d = Dur::from_ns(500) + self.jitter();
            self.q.schedule_at(now + d, Ev::HostResume(app));
        }
    }

    // ------------------------------------------------------------------
    // Grid management and block dispatch
    // ------------------------------------------------------------------

    fn on_grid_ready(&mut self, gid: GridId) {
        self.gmu.grids[gid.index()].state = GridState::Dispatchable;
        // A degenerate zero-block grid (empty Dim3) completes
        // immediately — it must not sit in the dispatch queue forever.
        if self.gmu.grids[gid.index()].is_finished() {
            self.finish_grid(gid);
            return;
        }
        // A grid doomed to abort before any block completes dies at
        // activation (a device-side exception on kernel entry).
        if let Some(GridFault::Abort { after_blocks: 0 }) = self.gmu.grids[gid.index()].fault {
            self.fault_stats.kernel_faults += 1;
            self.kill_grid(gid, FaultKind::KernelFault);
            return;
        }
        self.arm_watchdog(gid);
        if self.runs_solo(gid) {
            let grid = &self.gmu.grids[gid.index()];
            let launch = (grid.desc, grid.full_fit);
            match self
                .episodes
                .iter()
                .position(|e| (e.desc, e.full_fit) == launch)
            {
                Some(i) if self.replay(gid, i) => return,
                Some(_) => {}
                // A launch is recorded the second time it runs solo: one
                // that never repeats (each of needle's diagonals) would
                // pay for a recording nothing replays.
                None if self.seen_solo.contains(&launch) => self.record(gid),
                None => self.seen_solo.push(launch),
            }
        }
        match self.dev.admission {
            AdmissionPolicy::Lazy => {
                self.gmu.dispatchable.push_back(gid);
                self.dispatch_fresh = true;
            }
            AdmissionPolicy::ConservativeFit => {
                self.admission_wait.push_back(gid);
                self.try_admit();
            }
        }
        self.dispatch();
    }

    /// True when the ready grid `gid` will run alone on an idle device:
    /// lazy admission, no auditor, no fault or watchdog on the grid, no
    /// group resident, and nothing else dispatchable or waiting for
    /// admission. What it then does depends only on its launch and the
    /// device, so an episode recorded for one such grid holds for every
    /// later one of the same launch, shifted in time.
    fn runs_solo(&self, gid: GridId) -> bool {
        #[cfg(test)]
        if !self.solo_replay {
            return false;
        }
        let grid = &self.gmu.grids[gid.index()];
        self.dev.admission == AdmissionPolicy::Lazy
            && !self.audit.is_on()
            && grid.fault.is_none()
            && grid.watchdog.is_none()
            && self.occ_active == 0
            && self.gmu.dispatchable.is_empty()
            && self.admission_wait.is_empty()
    }

    /// Start recording the episode of the solo grid `gid`, which the
    /// normal path then runs. The recording is stored by
    /// [`GpuSim::note_recording`] once the handler that finishes the
    /// grid returns, and dropped if any other event runs first or
    /// anything is cancelled meanwhile.
    fn record(&mut self, gid: GridId) {
        let qs = self.q.stats();
        self.recording = Some(Recording {
            gid,
            t0: self.q.now(),
            finished: None,
            samples: Vec::new(),
            peak_pending: 0,
            start_tokens: self.group_token,
            start_refills: self.refills,
            start_events: self.events(),
            start_pending: self.q.pending(),
            start_cancels: (qs.cancelled, qs.stale_cancels),
        });
    }

    /// End-of-handler step of a recording: track the pending peak
    /// (nothing is cancelled inside a kept episode, so the count only
    /// rises within a handler) and, once the grid has finished, store
    /// the episode. The finishing handler is left out of the peak: by
    /// then every group has retired, and what `finish_grid` schedules
    /// (the successor's `GridReady`, sync waiters' `HostResume`s, the
    /// stream's next op) depends on state outside the episode; a
    /// replay's `SoloDone` schedules it for real, and the queue counts
    /// it then.
    fn note_recording(&mut self) {
        let pending = self.q.pending();
        let Some(rec) = &mut self.recording else {
            return;
        };
        let Some(end) = rec.finished else {
            rec.peak_pending = rec
                .peak_pending
                .max(pending.saturating_sub(rec.start_pending));
            return;
        };
        let rec = self.recording.take().expect("recording checked above");
        // A solo grid holds at most one group per SMX, so nothing is
        // cancelled inside its episode. Should that change, a replay
        // must not skip a cancellation.
        let qs = self.q.stats();
        if (qs.cancelled, qs.stale_cancels) != rec.start_cancels {
            return;
        }
        let grid = &self.gmu.grids[rec.gid.index()];
        let episode = Episode {
            desc: grid.desc,
            full_fit: grid.full_fit,
            span: end - rec.t0,
            samples: rec.samples,
            tokens: self.group_token - rec.start_tokens,
            refills: self.refills - rec.start_refills,
            events: self.events() - rec.start_events,
            peak_pending: rec.peak_pending,
        };
        self.episodes.push(episode);
    }

    /// Replay episode `i` for the solo grid `gid`, when nothing is due
    /// before the episode ends: book the grid as run, issue the
    /// episode's occupancy samples and counters, and
    /// schedule one [`Ev::SoloDone`] at the episode's end, whose
    /// handler finishes the grid as the episode's last handler did.
    /// Nothing else can run inside the window, so nobody can tell the
    /// difference. A stored tombstone due inside the window blocks the
    /// replay too: `EventQueue::next_due` counts them, because dropping
    /// one early would move a later purge decision. Returns false,
    /// having touched nothing, when the window is not clear.
    fn replay(&mut self, gid: GridId, i: usize) -> bool {
        let now = self.q.now();
        let e = &self.episodes[i];
        let end = now + e.span;
        if self.q.next_due().is_some_and(|next| next <= end) {
            return false;
        }
        let grid = &mut self.gmu.grids[gid.index()];
        grid.first_dispatch = Some(now);
        grid.completed_blocks = grid.to_dispatch;
        grid.to_dispatch = 0;
        grid.outstanding = 0;
        for &(offset, threads, active) in &e.samples {
            self.resident_threads.set(now + offset, f64::from(threads));
            self.active_smx.set(now + offset, f64::from(active));
        }
        // Every SMX is idle, rescheduled at rate 1.0 by its last
        // retirement; the episode leaves each one so, as it found it.
        debug_assert!(self.smxs.iter().all(|s| s.is_idle() && s.sched_rate == 1.0));
        self.group_token += e.tokens;
        self.refills += e.refills;
        self.skipped += e.events - 1;
        let peak = self.q.pending() + e.peak_pending;
        self.q.schedule_at(end, Ev::SoloDone(gid));
        self.q.raise_peak_pending(peak);
        true
    }

    /// Conservative-fit gate: admit waiting grids FIFO while their *sum
    /// total* resource request fits the device; an oversubscribing grid
    /// is admitted only onto an empty device (i.e. serialized).
    fn try_admit(&mut self) {
        let cap = ResourceTotals::device_capacity(&self.dev);
        while let Some(&gid) = self.admission_wait.front() {
            let need = ResourceTotals::of_grid(&self.gmu.grids[gid.index()].desc);
            let would = self.gmu.admitted_totals.plus(&need);
            let device_empty = self.gmu.admitted_totals.blocks == 0;
            if would.fits_in(&cap) || device_empty {
                self.gmu.admitted_totals = would;
                self.audit.on_admit(self.q.now(), gid, need, would);
                self.gmu.grids[gid.index()].admitted = true;
                self.admission_wait.pop_front();
                self.gmu.dispatchable.push_back(gid);
                self.dispatch_fresh = true;
            } else {
                break;
            }
        }
    }

    /// The LEFTOVER dispatcher: walk dispatchable grids in admission
    /// order, packing blocks onto SMXs until resources are exhausted.
    fn dispatch(&mut self) {
        self.dispatch_fresh = false;
        // Nothing visible to the dispatcher: skip the SMX scan entirely.
        if self.gmu.dispatchable.is_empty() {
            return;
        }
        let now = self.q.now();
        let mut touched = std::mem::take(&mut self.scratch_touched);
        let mut fits = std::mem::take(&mut self.scratch_fits);
        touched.clear();
        let mut i = 0;
        while i < self.gmu.dispatchable.len() {
            let gid = self.gmu.dispatchable[i];
            // The hardware thread-block scheduler distributes a grid's
            // blocks across SMX units rather than filling one unit at a
            // time; emulate that with placement rounds — each round
            // spreads an even share over every SMX that still fits a
            // block of this kernel.
            loop {
                let grid = &self.gmu.grids[gid.index()];
                let to_dispatch = grid.to_dispatch;
                if to_dispatch == 0 {
                    break;
                }
                fits.clear();
                fits.extend(self.smxs.iter().enumerate().filter_map(|(si, s)| {
                    let fit = s.max_fit(&grid.desc);
                    (fit > 0).then_some((si, fit))
                }));
                if fits.is_empty() {
                    break;
                }
                let share = to_dispatch.div_ceil(fits.len() as u32).max(1);
                let mut left = to_dispatch;
                for &(si, fit) in &fits {
                    if left == 0 {
                        break;
                    }
                    let n = fit.min(share).min(left);
                    self.place_group(now, si, gid, n);
                    left -= n;
                    if !touched.contains(&si) {
                        touched.push(si);
                    }
                }
                self.gmu.grids[gid.index()].note_placed(to_dispatch - left, now);
            }
            if self.gmu.grids[gid.index()].to_dispatch == 0 {
                self.gmu.dispatchable.remove(i);
            } else {
                i += 1;
            }
        }
        for &si in &touched {
            self.reschedule_smx(si);
        }
        if !touched.is_empty() {
            self.record_occupancy(now);
        }
        self.scratch_touched = touched;
        self.scratch_fits = fits;
    }

    /// Dispatcher sweep restricted to the one SMX that just freed
    /// residency. Placement never *creates* free space, so after a full
    /// sweep every still-dispatchable grid fits on no SMX; when a group
    /// then retires on `si`, only `si` can have room, and scanning the
    /// other units is provably wasted work (the sweep is byte-for-byte
    /// equivalent). A fresh, never-scanned grid voids that reasoning —
    /// fall back to the full sweep.
    ///
    /// Each grid gets one placement round: it fills `si` to its fit or
    /// empties the grid, so a second round would place nothing. The
    /// caller (`on_group_done`) reschedules `si` and samples occupancy
    /// itself, right after and at the same instant.
    fn dispatch_freed(&mut self, si: usize) {
        if self.dispatch_fresh {
            self.dispatch();
            return;
        }
        let now = self.q.now();
        let mut i = 0;
        while i < self.gmu.dispatchable.len() {
            let gid = self.gmu.dispatchable[i];
            let grid = &self.gmu.grids[gid.index()];
            let n = self.smxs[si].max_fit(&grid.desc).min(grid.to_dispatch);
            if n > 0 {
                self.place_group(now, si, gid, n);
                self.gmu.grids[gid.index()].note_placed(n, now);
            }
            if self.gmu.grids[gid.index()].to_dispatch == 0 {
                self.gmu.dispatchable.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Place `n` blocks of `gid` on SMX `si` as one new group.
    fn place_group(&mut self, now: SimTime, si: usize, gid: GridId, n: u32) {
        let desc = &self.gmu.grids[gid.index()].desc;
        let token = self.group_token;
        self.group_token += 1;
        let smx = &mut self.smxs[si];
        smx.advance(now);
        if smx.is_idle() {
            self.occ_active += 1;
        }
        self.occ_threads += n * desc.threads_per_block();
        smx.place(now, token, gid, desc, n);
        self.audit_dispatch(now, si, token, gid, n);
    }

    /// Tell the auditor `n` blocks of `gid` were placed on SMX `si`.
    #[inline]
    fn audit_dispatch(&mut self, now: SimTime, si: usize, token: u64, gid: GridId, n: u32) {
        if !self.audit.is_on() {
            return;
        }
        let desc = &self.gmu.grids[gid.index()].desc;
        self.audit.on_dispatch(now, si, token, gid, desc, n);
        #[cfg(test)]
        if self.sabotage == Sabotage::OverAdmit {
            // Phantom oversized placement: the shadow SMX sees a full
            // extra complement of blocks that was never actually placed.
            self.audit.on_dispatch(now, si, u64::MAX, gid, desc, 16);
        }
    }

    /// Tell the auditor group `token` on SMX `si` retired.
    #[inline]
    fn audit_group_complete(&mut self, now: SimTime, si: usize, token: u64) {
        if !self.audit.is_on() {
            return;
        }
        self.audit.on_group_complete(now, si, token);
        #[cfg(test)]
        if self.sabotage == Sabotage::DoubleComplete {
            // Report the same completion again: the auditor must notice
            // the group no longer exists.
            self.audit.on_group_complete(now, si, token);
        }
    }

    /// (Re-)issue completion events for the groups on an SMX. If the
    /// processor-sharing rate is unchanged since the last issue,
    /// existing events are still exact (remaining work drains linearly
    /// at that rate), so only groups without an event — new placements —
    /// get one; otherwise every group's event is cancelled and
    /// recomputed at the new rate.
    fn reschedule_smx(&mut self, si: usize) {
        let q = &mut self.q;
        let gmu = &self.gmu;
        let smx = &mut self.smxs[si];
        let rate = smx.rate();
        let rate_changed = rate != smx.sched_rate;
        smx.sched_rate = rate;
        for g in smx.groups_mut() {
            if !rate_changed && g.ev.is_some() {
                continue;
            }
            // A hung grid's blocks never complete: the group squats on
            // its residency (and drags the processor-sharing rate) until
            // the watchdog evicts the grid. It never holds an event to
            // cancel — the grid's fate is fixed in `activate_op`, before
            // its `GridReady`, so none was ever issued for it.
            if gmu.grids[g.grid.index()].fault == Some(GridFault::Hang) {
                debug_assert!(g.ev.is_none(), "hung group holds a completion event");
                continue;
            }
            if let Some(ev) = g.ev.take() {
                q.cancel(ev);
            }
            g.ev = Some(q.schedule_in(
                smx::eta(g.remaining_ns(), rate),
                Ev::GroupDone {
                    smx: si as u32,
                    token: g.token,
                },
            ));
        }
    }

    fn on_group_done(&mut self, si: usize, token: u64) {
        let now = self.q.now();
        if self.refill_in_place(now, si, token) {
            return;
        }
        let smx = &mut self.smxs[si];
        smx.advance(now);
        let group = smx
            .take_completed(token)
            .expect("GroupDone for unknown group (stale event not cancelled?)");
        self.occ_threads -= group.threads();
        if self.smxs[si].is_idle() {
            self.occ_active -= 1;
        }
        self.audit_group_complete(now, si, token);
        let gid = group.grid;
        let grid = &mut self.gmu.grids[gid.index()];
        grid.outstanding -= group.blocks;
        grid.completed_blocks += group.blocks;
        // An aborting grid dies the moment its completed-block count
        // crosses the fault threshold — even if those were its last
        // blocks (the exception beats the completion signal).
        if let Some(GridFault::Abort { after_blocks }) = grid.fault {
            if grid.completed_blocks >= after_blocks {
                // Survivors on this SMX sped up when the group retired;
                // their events must be re-issued before the kill path
                // (which only reschedules SMXs it evicts from) runs.
                self.reschedule_smx(si);
                self.fault_stats.kernel_faults += 1;
                self.kill_grid(gid, FaultKind::KernelFault);
                return;
            }
        }
        if grid.is_finished() {
            self.finish_grid(gid);
        }
        // Freed residency: let waiting blocks (this grid's or others')
        // take the leftover space (only this SMX freed any), then
        // re-issue completion events for this SMX exactly once — the
        // retirement and any replacement placement both happened at
        // `now`, so a single reschedule at the final rate produces the
        // same events as rescheduling after each step would.
        self.dispatch_freed(si);
        self.reschedule_smx(si);
        self.record_occupancy(now);
    }

    /// The steady-wave refill: a big grid streaming through the SMXs in
    /// waves refills each freed SMX with its own next blocks. It applies
    /// when the retiring group is alone on its SMX, its grid heads the
    /// dispatch order and no fresh grid awaits a full sweep, the grid
    /// has no fault and at least as many blocks left to dispatch, and an
    /// empty SMX fits exactly that many. The general path — retire,
    /// `dispatch_freed`, `reschedule_smx`, `record_occupancy` — would
    /// then put the same blocks back with the same rate, residency and
    /// occupancy samples. Grids behind this one would get nothing: each
    /// failed to fit on this SMX at the sweep that last left it holding
    /// just this group, and the refill leaves it exactly so. Re-arm the
    /// group in place instead: new token, full work, one completion
    /// event. The audit hooks see the same retirement and placement in
    /// the same order. Returns false, having touched nothing, when any
    /// condition fails.
    fn refill_in_place(&mut self, now: SimTime, si: usize, token: u64) -> bool {
        #[cfg(test)]
        if !self.steady_refill {
            return false;
        }
        if self.dispatch_fresh {
            return false;
        }
        let Some(group) = self.smxs[si].sole_group() else {
            return false;
        };
        debug_assert_eq!(group.token, token, "GroupDone for a replaced group");
        let (gid, blocks) = (group.grid, group.blocks);
        let grid = &mut self.gmu.grids[gid.index()];
        if self.gmu.dispatchable.front() != Some(&gid)
            || grid.fault.is_some()
            || grid.to_dispatch < blocks
            || grid.full_fit != blocks
        {
            return false;
        }
        let rate = self.smxs[si].rate();
        debug_assert_eq!(
            rate, self.smxs[si].sched_rate,
            "SMX left with stale completion events"
        );
        let eta = match grid.refill_eta {
            Some((at_rate, eta)) if at_rate == rate => eta,
            _ => {
                let eta = smx::eta(grid.desc.work_per_block.as_ns() as f64, rate);
                grid.refill_eta = Some((rate, eta));
                eta
            }
        };
        let new_token = self.group_token;
        self.group_token += 1;
        debug_assert!(grid.first_dispatch.is_some());
        // The group retires `blocks` and places as many again, so
        // `outstanding` stays as it is.
        grid.completed_blocks += blocks;
        grid.to_dispatch -= blocks;
        if grid.to_dispatch == 0 {
            self.gmu.dispatchable.pop_front();
        }
        let g = self.smxs[si].refill(now, new_token, &grid.desc);
        g.ev = Some(self.q.schedule_in(
            eta,
            Ev::GroupDone {
                smx: si as u32,
                token: new_token,
            },
        ));
        self.audit_group_complete(now, si, token);
        self.audit_dispatch(now, si, new_token, gid, blocks);
        self.refills += 1;
        true
    }

    fn finish_grid(&mut self, gid: GridId) {
        let now = self.q.now();
        let grid = &mut self.gmu.grids[gid.index()];
        grid.state = GridState::Done;
        let op = grid.op;
        let stream = grid.stream;
        let name = grid.desc.name;
        let start = grid.first_dispatch.unwrap_or(now);
        let desc_totals = ResourceTotals::of_grid(&grid.desc);
        let admitted = grid.admitted;
        let watchdog = grid.watchdog.take();
        if let Some(ev) = watchdog {
            self.q.cancel(ev);
        }
        if let Some(rec) = &mut self.recording {
            if rec.gid == gid {
                rec.finished = Some(now);
            }
        }
        self.audit.on_grid_finished(now, gid);
        self.trace
            .record(stream.0, SpanKind::Kernel, self.interner.resolve(name), start, now);
        let app = self.ops[op.index()].app;
        let st = &mut self.stats[app.index()];
        st.kernels_completed += 1;
        st.first_kernel_start = Some(st.first_kernel_start.map_or(start, |f| f.min(start)));
        st.last_kernel_end = Some(st.last_kernel_end.map_or(now, |l| l.max(now)));
        if self.dev.admission == AdmissionPolicy::ConservativeFit && admitted {
            self.gmu.admitted_totals = self.gmu.admitted_totals.minus(&desc_totals);
            self.audit
                .on_reclaim(now, gid, desc_totals, self.gmu.admitted_totals);
            self.try_admit();
        }
        // Next grid in this hardware work queue becomes visible.
        if let Some(next) = self.gmu.pop_queue_head(gid) {
            self.gmu.grids[next.index()].state = GridState::Launching;
            self.q
                .schedule_at(now + self.dev.kernel_launch_latency, Ev::GridReady(next));
        }
        self.complete_op(op);
    }

    // ------------------------------------------------------------------
    // Watchdog and grid kill
    // ------------------------------------------------------------------

    /// Arm (or re-arm) the watchdog for a dispatchable grid, remembering
    /// its completed-block count so the firing can detect progress.
    fn arm_watchdog(&mut self, gid: GridId) {
        let Some(timeout) = self.host.watchdog_timeout else {
            return;
        };
        let mark = self.gmu.grids[gid.index()].completed_blocks;
        let ev = self
            .q
            .schedule_in(timeout, Ev::WatchdogFire { grid: gid, mark });
        self.gmu.grids[gid.index()].watchdog = Some(ev);
    }

    /// Watchdog check: a dispatchable grid that completed no block over
    /// a whole timeout window is declared hung and killed; a grid that
    /// made progress gets the watchdog re-armed.
    fn on_watchdog_fire(&mut self, gid: GridId, mark: u32) {
        if self.gmu.grids[gid.index()].state != GridState::Dispatchable {
            return; // grid retired between scheduling and firing
        }
        // This firing consumed the armed event.
        self.gmu.grids[gid.index()].watchdog = None;
        if self.gmu.grids[gid.index()].completed_blocks != mark {
            self.fault_stats.watchdog_rearms += 1;
            self.audit.on_watchdog_fire(self.q.now(), gid, true);
            self.arm_watchdog(gid);
            return;
        }
        self.fault_stats.watchdog_kills += 1;
        self.audit.on_watchdog_fire(self.q.now(), gid, false);
        self.kill_grid(gid, FaultKind::KernelHang);
    }

    /// Kill a grid: evict its resident block groups, reclaim admission
    /// totals, fail the owning app, poison its stream, and let the next
    /// grid in the hardware work queue through.
    fn kill_grid(&mut self, gid: GridId, reason: FaultKind) {
        let now = self.q.now();
        if matches!(
            self.gmu.grids[gid.index()].state,
            GridState::Done | GridState::Failed
        ) {
            return;
        }
        // Evict every resident group belonging to this grid; survivors
        // on the same SMX speed up.
        for si in 0..self.smxs.len() {
            let tokens: Vec<u64> = self.smxs[si]
                .groups()
                .filter(|g| g.grid == gid)
                .map(|g| g.token)
                .collect();
            if tokens.is_empty() {
                continue;
            }
            self.smxs[si].advance(now);
            for token in tokens {
                if let Some(group) = self.smxs[si].evict(token) {
                    self.occ_threads -= group.threads();
                    if let Some(ev) = group.ev {
                        self.q.cancel(ev);
                    }
                    self.audit.on_group_evicted(now, si, token);
                }
            }
            if self.smxs[si].is_idle() {
                self.occ_active -= 1;
            }
            self.reschedule_smx(si);
        }
        self.gmu.dispatchable.retain(|&g| g != gid);
        self.admission_wait.retain(|&g| g != gid);
        let grid = &mut self.gmu.grids[gid.index()];
        let op = grid.op;
        let stream = grid.stream;
        let name = grid.desc.name;
        let start = grid.first_dispatch;
        let desc_totals = ResourceTotals::of_grid(&grid.desc);
        let admitted = grid.admitted;
        let watchdog = grid.watchdog.take();
        grid.state = GridState::Failed;
        grid.outstanding = 0;
        grid.to_dispatch = 0;
        if let Some(ev) = watchdog {
            self.q.cancel(ev);
        }
        self.audit.on_grid_killed(now, gid, reason);
        if let Some(start) = start {
            if self.trace.is_enabled() {
                let name = self.interner.resolve(name);
                self.trace.record(
                    stream.0,
                    SpanKind::Kernel,
                    format!("{name} !{reason}"),
                    start,
                    now,
                );
            }
        }
        if self.dev.admission == AdmissionPolicy::ConservativeFit && admitted {
            self.gmu.admitted_totals = self.gmu.admitted_totals.minus(&desc_totals);
            self.audit
                .on_reclaim(now, gid, desc_totals, self.gmu.admitted_totals);
            self.try_admit();
        }
        let app = self.ops[op.index()].app;
        self.fail_app(app, reason);
        self.streams[stream.index()].poison(reason);
        // Next grid in this hardware work queue becomes visible.
        if let Some(next) = self.gmu.pop_queue_head(gid) {
            self.gmu.grids[next.index()].state = GridState::Launching;
            self.q
                .schedule_at(now + self.dev.kernel_launch_latency, Ev::GridReady(next));
        }
        self.complete_op(op);
        self.dispatch();
        self.record_occupancy(now);
    }

    /// Record a fault against an app's stats; the first fault decides
    /// the reported failure reason.
    fn fail_app(&mut self, app: AppId, reason: FaultKind) {
        let st = &mut self.stats[app.index()];
        st.faults += 1;
        if !st.outcome.is_failed() {
            st.outcome = AppOutcome::Failed { reason };
        }
    }

    fn record_occupancy(&mut self, now: SimTime) {
        debug_assert_eq!(
            self.occ_threads,
            self.smxs.iter().map(|s| s.resident_threads()).sum::<u32>(),
            "incremental occupancy counter drifted from the SMX array"
        );
        debug_assert_eq!(
            self.occ_active,
            self.smxs.iter().filter(|s| !s.is_idle()).count(),
            "incremental active-SMX counter drifted from the SMX array"
        );
        self.resident_threads.set(now, self.occ_threads as f64);
        self.active_smx.set(now, self.occ_active as f64);
        if let Some(rec) = &mut self.recording {
            rec.samples
                .push((now - rec.t0, self.occ_threads, self.occ_active as u32));
        }
    }
}

/// Re-exports for a one-line import in downstream crates.
pub mod prelude {
    pub use crate::audit::{AuditViolation, Auditor};
    pub use crate::config::{
        AdmissionPolicy, DeviceConfig, DmaConfig, HostConfig, ServiceOrder, SmxLimits,
    };
    pub use crate::fault::{FaultKind, FaultPlan, FaultRates, FaultSpec, GridFault};
    pub use crate::kernel::{Dim3, KernelDesc, KernelInfo};
    pub use crate::program::{COp, CompiledProgram, HostOp, Program, ProgramBuilder};
    pub use crate::result::{
        AppOutcome, AppStats, FaultCounters, SimError, SimPerf, SimResult, TransferStats,
    };
    pub use crate::sim::GpuSim;
    pub use crate::types::{AppId, Dir, GridId, MutexId, OpId, StreamId};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelDesc;
    use crate::program::Program;

    /// A small two-app run with copies, kernels and a mutex — enough to
    /// exercise every audited subsystem.
    fn sample_sim() -> GpuSim {
        let mut sim = GpuSim::new(DeviceConfig::tesla_k20(), HostConfig::deterministic(), 7);
        let m = sim.create_mutex();
        for i in 0..2 {
            let s = sim.create_stream();
            let program = Program::builder(format!("app{i}"))
                .htod(256 * 1024, "in")
                .launch(KernelDesc::new("k", 32u32, 128u32, Dur::from_us(10)))
                .dtoh(256 * 1024, "out")
                .sync()
                .build()
                .with_htod_mutex(m, true);
            sim.add_app(program, s);
        }
        sim
    }

    #[test]
    fn audited_clean_run_succeeds() {
        let mut sim = sample_sim();
        sim.enable_audit();
        assert!(sim.audit_enabled());
        let result = sim.run().expect("audited clean run must pass");
        assert_eq!(result.apps.len(), 2);
    }

    #[test]
    fn audit_matches_unaudited_result() {
        // Auditing must be purely observational: same seed, same world.
        let base = sample_sim().run().expect("unaudited run");
        let mut audited = sample_sim();
        audited.enable_audit();
        let audited = audited.run().expect("audited run");
        assert_eq!(base.makespan, audited.makespan);
        assert_eq!(base.events, audited.events);
    }

    /// Mutation self-test: a deliberately double-completed block must
    /// trip the auditor (otherwise the auditor has gone blind).
    #[test]
    fn sabotaged_double_completion_is_caught() {
        let mut sim = sample_sim();
        sim.enable_audit();
        sim.set_sabotage(Sabotage::DoubleComplete);
        let err = sim.run().expect_err("sabotaged run must abort");
        match err {
            SimError::AuditFailure { violations, context } => {
                assert!(
                    violations.iter().any(|v| v.contains("unknown group")),
                    "{violations:?}"
                );
                assert!(!context.is_empty(), "report must carry transition context");
            }
            other => panic!("expected AuditFailure, got {other:?}"),
        }
    }

    /// Mutation self-test: a phantom over-admission of an SMX must trip
    /// the residency invariant.
    #[test]
    fn sabotaged_over_admission_is_caught() {
        let mut sim = sample_sim();
        sim.enable_audit();
        sim.set_sabotage(Sabotage::OverAdmit);
        let err = sim.run().expect_err("sabotaged run must abort");
        match err {
            SimError::AuditFailure { violations, .. } => {
                assert!(
                    violations
                        .iter()
                        .any(|v| v.contains("exceed") && v.contains("smx")),
                    "{violations:?}"
                );
            }
            other => panic!("expected AuditFailure, got {other:?}"),
        }
    }

    /// Sabotage without the auditor enabled must not disturb the run:
    /// the hooks are observational even when corrupted.
    #[test]
    fn sabotage_without_audit_is_inert() {
        let mut sim = sample_sim();
        sim.set_sabotage(Sabotage::DoubleComplete);
        sim.run().expect("unaudited sabotage must be a no-op");
    }

    /// Everything deterministic a run produces: makespan, events, queue
    /// counters, per-app stats, both occupancy series, DMA utilization,
    /// fault counters and trace spans (or the error). Only the wall
    /// clock and the refill and skip counts are left out: the switches
    /// under test change those by design ([`Ways`] reports them).
    fn fingerprint(run: &Result<SimResult, SimError>) -> String {
        match run {
            Ok(r) => {
                let p = r.perf;
                format!(
                    "makespan {:?} events {} perf {} {} {} {} {} faults {:?}\n\
                     apps {:?}\nresident {:?}\nactive {:?}\ndma {:?}\nspans {:?}",
                    r.makespan,
                    r.events,
                    p.events,
                    p.peak_pending,
                    p.cancelled,
                    p.stale_cancels,
                    p.tombstone_ratio,
                    r.faults,
                    r.apps,
                    r.resident_threads.points(),
                    r.active_smx.points(),
                    r.dma_busy.iter().map(|s| s.points()).collect::<Vec<_>>(),
                    r.trace.spans(),
                )
            }
            Err(e) => format!("error {e:?}"),
        }
    }

    /// One program run three ways: the general path alone, with the
    /// steady-wave refill, and with the refill and the solo-grid replay
    /// (the default).
    struct Ways {
        general: String,
        refill: String,
        replay: String,
        /// Refills of the refill-only run.
        refills: u64,
        /// Refills and skipped events of the default run.
        replay_refills: u64,
        skipped: u64,
    }

    impl Ways {
        fn of(build: impl Fn() -> GpuSim) -> Ways {
            let counts = |r: &Result<SimResult, SimError>| {
                r.as_ref()
                    .map_or((0, 0), |r| (r.perf.refills, r.perf.skipped))
            };
            let mut sim = build();
            sim.set_steady_refill(false);
            sim.set_solo_replay(false);
            let general = sim.run();
            assert_eq!(counts(&general), (0, 0), "the switches turn both paths off");
            let mut sim = build();
            sim.set_solo_replay(false);
            let refill = sim.run();
            let (refills, none) = counts(&refill);
            assert_eq!(none, 0, "the switch turns the replay off");
            let replay = build().run();
            let (replay_refills, skipped) = counts(&replay);
            Ways {
                general: fingerprint(&general),
                refill: fingerprint(&refill),
                replay: fingerprint(&replay),
                refills,
                replay_refills,
                skipped,
            }
        }

        /// All three runs are one run, and the replay books exactly the
        /// refills it replaces.
        fn assert_exact(&self) {
            assert_eq!(self.refill, self.general, "refill vs general path");
            assert_eq!(self.replay, self.general, "solo replay vs general path");
            assert_eq!(
                self.replay_refills, self.refills,
                "refill count with the replay"
            );
        }
    }

    /// One big grid streaming through the SMXs in waves: most group
    /// completions take the refill path, and the run is the general
    /// path's to the byte.
    #[test]
    fn a_streaming_grid_refills_in_place_and_matches_the_general_path() {
        let build = || {
            let mut sim = GpuSim::new(DeviceConfig::tesla_k20(), HostConfig::default(), 3);
            let s = sim.create_stream();
            let program = Program::builder("waves")
                .htod(1 << 20, "in")
                .launch(KernelDesc::new("fan2", 1024u32, 256u32, Dur::from_us(7)))
                .launch(KernelDesc::new("fan1", 4u32, 512u32, Dur::from_us(2)))
                .launch(KernelDesc::new("fan2", 1024u32, 256u32, Dur::from_us(7)))
                .dtoh(1 << 20, "out")
                .build();
            sim.add_app(program, s);
            sim.enable_audit();
            sim
        };
        let ways = Ways::of(build);
        ways.assert_exact();
        // 2 × 1024 blocks in groups of 8: 256 group completions, of
        // which all but the last wave of each grid refill.
        assert_eq!(ways.refills, 2 * (128 - 13));
        assert_eq!(ways.skipped, 0, "audited runs never replay");
    }

    /// A grid queued behind a streaming one waits for the stream's last
    /// wave: every SMX is full of the head grid's blocks, so the refill
    /// keeps serving the head grid while the other stays dispatchable,
    /// and the run is the general path's to the byte.
    #[test]
    fn a_grid_waiting_behind_a_streaming_grid_leaves_the_refill_exact() {
        let build = || {
            let mut sim = GpuSim::new(DeviceConfig::tesla_k20(), HostConfig::default(), 5);
            let streams = sim.create_streams(2);
            let head = Program::builder("head")
                .launch(KernelDesc::new("fan2", 1024u32, 256u32, Dur::from_us(7)))
                .build();
            let behind = Program::builder("behind")
                .htod(1 << 16, "in")
                .launch(KernelDesc::new("wide", 26u32, 512u32, Dur::from_us(5)))
                .build();
            sim.add_app(head, streams[0]);
            sim.add_app(behind, streams[1]);
            sim.enable_audit();
            sim
        };
        let ways = Ways::of(build);
        ways.assert_exact();
        // Every head group after the first wave (128 - 13 = 115), then
        // 2 of `wide`'s groups of 4 once it heads the order: the refill
        // keeps going while `wide` waits, where a rule requiring the
        // head grid to be the only dispatchable one would stop.
        assert_eq!(ways.refills, 115 + 2);
    }

    /// Gaussian's shape, jitter-free: one stream launches a 3-wave grid
    /// (312 blocks of 256 threads: 13 SMXs × 8 blocks a wave) twice and
    /// syncs, `PAIRS` times, while a host thread on a second stream,
    /// started 20 µs in, works for `poke` and then for a second. The
    /// poke never touches the device, so it moves no replay but the one
    /// whose window it falls in. The first grid of a pair is ready 4 µs
    /// after its launch call, and the host's next call lands 1 µs into
    /// its run; the second grid is ready once the first finishes and
    /// runs alone while the host waits in the sync. So the second grid
    /// of the first pair records its episode, and that of each later
    /// pair replays it, unless the poke is due inside its window.
    fn repeats_beside_a_poke(poke: Dur) -> GpuSim {
        let mut sim = GpuSim::new(DeviceConfig::tesla_k20(), HostConfig::deterministic(), 9);
        let streams = sim.create_streams(2);
        let poke = Program::builder("poke")
            .host_work(poke)
            .host_work(Dur::from_secs(1))
            .build();
        sim.add_app(pairs(), streams[0]);
        sim.add_app(poke, streams[1]);
        sim
    }

    /// The pairs of `repeats_beside_a_poke`.
    fn pairs() -> Program {
        let mut b = Program::builder("repeat");
        for _ in 0..PAIRS {
            let fan2 = KernelDesc::new("fan2", 312u32, 256u32, Dur::from_us(7));
            b = b.launch(fan2.clone()).launch(fan2).sync();
        }
        b.build()
    }

    /// The kernel spans of a run's stream `lane`, in start order.
    fn kernel_spans(r: &SimResult, lane: u32) -> Vec<(SimTime, SimTime)> {
        r.trace
            .lane_spans(lane)
            .iter()
            .filter(|s| s.kind == SpanKind::Kernel)
            .map(|s| (s.start, s.end))
            .collect()
    }

    const PAIRS: u64 = 4;

    /// Events one 312-block episode delivers: 13 first-wave groups, 26
    /// refills and 13 last-wave groups.
    const EPISODE_EVENTS: u64 = 39;

    /// The repeats' kernel spans in a run whose poke comes long after
    /// them, and the poke's start.
    fn repeat_windows() -> (Vec<(SimTime, SimTime)>, SimTime) {
        let r = repeats_beside_a_poke(Dur::from_secs(1))
            .run()
            .expect("probe run");
        (
            kernel_spans(&r, 0),
            r.apps[1].started.expect("poke started"),
        )
    }

    /// With the poke out of the way, the second grid of each pair
    /// after the first replays the first pair's: `PAIRS - 1` episodes'
    /// events, less one popped `SoloDone` each. Every grid refills 26
    /// times, replayed or not.
    #[test]
    fn repeats_of_a_solo_grid_replay_its_first_episode() {
        let ways = Ways::of(|| repeats_beside_a_poke(Dur::from_secs(1)));
        ways.assert_exact();
        assert_eq!(ways.refills, 2 * PAIRS * 26);
        assert_eq!(ways.skipped, (PAIRS - 1) * (EPISODE_EVENTS - 1));
    }

    /// A poke due inside the third pair's replay window, exactly at its
    /// end, or 1 ns after it. Inside, the poke's event lands
    /// mid-episode and the grid must take the general path. At the
    /// end, the poke's event would pop before the episode's last one,
    /// so the window is not clear either. Just after, the grid
    /// replays. Each run is the general path's to the byte.
    #[test]
    fn a_poke_inside_or_at_the_end_of_a_replay_window_blocks_it() {
        let (windows, started) = repeat_windows();
        assert_eq!(windows.len() as u64, 2 * PAIRS);
        let (start, end) = windows[5];
        let skipped = |at: SimTime| {
            let ways = Ways::of(|| repeats_beside_a_poke(at - started));
            ways.assert_exact();
            ways.skipped
        };
        let all = (PAIRS - 1) * (EPISODE_EVENTS - 1);
        let one_less = all - (EPISODE_EVENTS - 1);
        let inside = start + Dur::from_ns((end - start).as_ns() / 2);
        assert_eq!(skipped(end + Dur::from_ns(1)), all, "just after the window");
        assert_eq!(skipped(end), one_less, "exactly at the window's end");
        assert_eq!(skipped(inside), one_less, "inside the window");
    }

    /// A replay whose window holds more pending events than its
    /// recording did, and more than any other moment of the run: the
    /// pairs alone, started 1 ms in, beside a thread that works from
    /// the start until 4 µs before the last pair's first grid finishes,
    /// returns from its closing sync 5 µs later, in the 4 µs before the
    /// second grid is ready, and then starts four sleepers, due 1 ms
    /// later, long after the last replay ends. The replay must raise
    /// the queue's pending peak itself.
    #[test]
    fn a_replay_books_the_pending_peak_of_its_episode() {
        let build = |work: Dur| {
            let host = HostConfig {
                thread_launch_stagger: Dur::from_ms(1),
                ..HostConfig::deterministic()
            };
            let mut sim = GpuSim::new(DeviceConfig::tesla_k20(), host, 9);
            let streams = sim.create_streams(2);
            let waker = Program::builder("waker").host_work(work).build();
            let waker = sim.add_app(waker, streams[1]);
            sim.add_app(pairs(), streams[0]);
            for i in 0..4 {
                let sleeper = Program::builder(format!("sleeper{i}"))
                    .host_work(Dur::from_secs(1))
                    .build();
                let app = sim.add_app(sleeper, streams[1]);
                sim.set_start_after(app, waker);
            }
            sim
        };
        let probe = build(Dur::from_secs(1)).run().expect("probe run");
        let (_, last_first_end) = kernel_spans(&probe, 0)[6];
        let work = (last_first_end - SimTime::ZERO) - Dur::from_us(4);
        let ways = Ways::of(|| build(work));
        ways.assert_exact();
        assert_eq!(ways.skipped, (PAIRS - 1) * (EPISODE_EVENTS - 1));
    }

    /// A replay whose finish schedules less than its recording's did,
    /// on Fermi's single hardware queue. Each round launches a 60 µs
    /// `hold` grid and a 2-block `solo` grid behind it in one stream,
    /// and syncs; `solo` runs alone. Round one only shows the launch
    /// to the sim. In round two, 2 µs after `hold` ends, `x` from a
    /// second stream enters the hardware queue behind `solo`, whose
    /// 1 µs run then ends before that thread's next call, and a waiter
    /// thread syncs on the first stream: the recorded finish schedules
    /// three events (`x`'s `GridReady` and two `HostResume`s) where
    /// the groups had two pending. Round three, once two 1 s sleepers
    /// have started, replays it: nothing queues behind `solo` and only
    /// its own thread waits, so the finish schedules one. Counting
    /// round two's finish in the episode's peak would book one more
    /// event pending than the run ever holds.
    #[test]
    fn a_replay_leaves_its_recordings_finish_out_of_the_pending_peak() {
        let build = |wait: Dur| {
            let mut sim = GpuSim::new(DeviceConfig::fermi_like(), HostConfig::deterministic(), 4);
            let streams = sim.create_streams(2);
            let round = |b: crate::program::ProgramBuilder| {
                b.launch(KernelDesc::new("hold", 1u32, 256u32, Dur::from_us(60)))
                    .launch(KernelDesc::new("solo", 2u32, 256u32, Dur::from_us(1)))
                    .sync()
            };
            let solo = round(Program::builder("solo")).host_work(Dur::from_us(100));
            let solo = round(solo).host_work(Dur::from_us(200));
            sim.add_app(round(solo).build(), streams[0]);
            let behind = Program::builder("behind")
                .host_work(wait)
                .launch(KernelDesc::new("x", 1u32, 256u32, Dur::from_us(3)))
                .sync()
                .build();
            let behind = sim.add_app(behind, streams[1]);
            let waiter = Program::builder("waiter")
                .host_work(Dur::from_us(150))
                .sync()
                .build();
            sim.add_app(waiter, streams[0]);
            for i in 0..2 {
                let sleeper = Program::builder(format!("sleeper{i}"))
                    .host_work(Dur::from_secs(1))
                    .build();
                let sleeper = sim.add_app(sleeper, streams[1]);
                sim.set_start_after(sleeper, behind);
            }
            sim
        };
        let probe = build(Dur::from_secs(1)).run().expect("probe run");
        let (_, hold_end) = kernel_spans(&probe, 0)[2];
        let started = probe.apps[1].started.expect("behind started");
        let wait = (hold_end + Dur::from_us(2)) - started;
        let r = build(wait).run().expect("run");
        let order: Vec<_> = r.trace.spans().iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            order,
            ["hold", "solo", "hold", "solo", "x", "hold", "solo"],
            "x runs behind the second solo"
        );
        let ways = Ways::of(|| build(wait));
        ways.assert_exact();
        // `solo`'s third grid replays its second: two groups, one
        // popped `SoloDone`.
        assert_eq!(ways.skipped, 1);
    }

    /// Cases of `refill_and_replay_match_the_general_path`, and the
    /// share of the cases open to the replay (no auditor, no fault
    /// plan, lazy admission) that must replay a solo grid.
    const EXACT_CASES: u32 = 384;
    const REPLAY_SHARE_PERCENT: u32 = 25;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(EXACT_CASES))]

        /// The steady-wave refill and the solo-grid replay are exact:
        /// random small multi-stream programs — co-resident grids,
        /// memsync mutexes, lazy and conservative-fit admission,
        /// scripted aborts and hangs, K20, K40 and Fermi; audit and
        /// conservative fit each in a quarter of the cases, a fault
        /// plan with a watchdog in about two thirds — produce the same
        /// run on the general path, with the refill, and with the
        /// refill and the replay.
        /// Half the grids are drawn big enough to stream through the
        /// device in several full-fit waves. Each case adds gaussian's
        /// shape on a stream of its own: 2–3 rounds of one kernel
        /// launched 1–3 times and a sync (the last grid of a round runs
        /// while its host waits in the sync, so it may run alone, and
        /// then replay in the next round). In a jitter-free case a host
        /// thread on another stream may launch a grid from inside one
        /// of those launches' windows, exactly at its end, or 1 ns
        /// after it (read off a probe run). The replay must fire in at
        /// least [`REPLAY_SHARE_PERCENT`]% of the cases open to it, and
        /// never with the auditor on, a fault plan, or conservative-fit
        /// admission.
        #[test]
        fn refill_and_replay_match_the_general_path(
            device in 0usize..3,
            flags in (
                0u8..4,
                proptest::prelude::any::<bool>(),
                proptest::prelude::any::<bool>(),
                0u8..4,
            ),
            seed in proptest::prelude::any::<u64>(),
            streams in 1u32..5,
            apps in proptest::collection::vec(
                (
                    proptest::collection::vec(
                        (
                            proptest::prop_oneof![1u32..400, 400u32..2400],
                            0usize..5,
                            1u64..40,
                            0u32..24,
                            8u32..64,
                        ),
                        1..4,
                    ),
                    1u64..512,
                    proptest::prelude::any::<bool>(),
                ),
                1..5,
            ),
            repeat in (
                (
                    proptest::prop_oneof![1u32..400, 400u32..2400],
                    0usize..5,
                    1u64..40,
                    0u32..24,
                    8u32..64,
                ),
                1usize..4,
                2usize..6,
            ),
            poke in (0u8..4, 0usize..8),
            faults in proptest::collection::vec((proptest::prelude::any::<bool>(), 0u32..5, 0u32..3), 0..3),
        ) {
            use std::sync::atomic::{AtomicU32, Ordering};
            static CASES: AtomicU32 = AtomicU32::new(0);
            static OPEN: AtomicU32 = AtomicU32::new(0);
            static REPLAYED: AtomicU32 = AtomicU32::new(0);
            let (conservative, memsync, jitter, audit, faulty) =
                (flags.0 == 0, flags.1, flags.2, flags.3 == 0, !faults.is_empty());
            let kernel = |name: String, (blocks, tpb, work_us, smem_kb, regs): (u32, usize, u64, u32, u32)| {
                KernelDesc::new(name, blocks, [64u32, 128, 256, 512, 1024][tpb], Dur::from_us(work_us))
                    .with_smem(smem_kb << 10)
                    .with_regs(regs)
            };
            // The poke's host work; `None` leaves it out.
            let build = |poke: Option<Dur>| {
                let mut dev = [
                    DeviceConfig::tesla_k20(),
                    DeviceConfig::tesla_k40(),
                    DeviceConfig::fermi_like(),
                ][device]
                    .clone();
                if conservative {
                    dev.admission = AdmissionPolicy::ConservativeFit;
                }
                let mut host = if jitter {
                    HostConfig::default()
                } else {
                    HostConfig::deterministic()
                };
                if faulty {
                    host = host.with_watchdog(Dur::from_us(500));
                }
                let mut sim = GpuSim::new(dev, host, seed);
                let ids = sim.create_streams(streams + 2);
                let m = sim.create_mutex();
                let mut b = Program::builder("repeat").htod(64 << 10, "in");
                for _ in 0..repeat.2 {
                    for _ in 0..repeat.1 {
                        b = b.launch(kernel("rep".into(), repeat.0));
                    }
                    b = b.sync();
                }
                sim.add_app(b.dtoh(64 << 10, "out").build(), ids[streams as usize]);
                if let Some(work) = poke {
                    let poke = Program::builder("poke")
                        .host_work(work)
                        .launch(KernelDesc::new("poke", 2u32, 128u32, Dur::from_us(3)))
                        .sync()
                        .build();
                    sim.add_app(poke, ids[streams as usize + 1]);
                }
                for (i, (kernels, kb, sync)) in apps.iter().enumerate() {
                    let mut b = Program::builder(format!("app{i}")).htod(kb << 10, "in");
                    for (k, &desc) in kernels.iter().enumerate() {
                        b = b.launch(kernel(format!("k{k}"), desc));
                    }
                    if *sync {
                        b = b.sync();
                    }
                    let mut program = b.dtoh(kb << 10, "out").build();
                    if memsync {
                        program = program.with_htod_mutex(m, true);
                    }
                    sim.add_app(program, ids[i % streams as usize]);
                }
                if faulty {
                    let apps = sim.threads.len() as u32;
                    let mut plan = FaultPlan::none();
                    for &(hang, app, nth) in &faults {
                        let kind = if hang { FaultKind::KernelHang } else { FaultKind::KernelFault };
                        plan = plan.with_fault(kind, AppId(app % apps), nth);
                    }
                    sim.set_fault_plan(plan);
                }
                if audit {
                    sim.enable_audit();
                }
                sim
            };
            // Place the poke against a repeat's window in a probe run
            // whose poke comes long after everything.
            let far = Dur::from_secs(10);
            let poke = match poke.0 {
                0 => None,
                _ if jitter => None,
                mode => build(Some(far)).run().ok().and_then(|r| {
                    let windows = &kernel_spans(&r, streams)[1..];
                    let &(start, end) = windows.get(poke.1 % windows.len().max(1))?;
                    let at = match mode {
                        1 => start + Dur::from_ns((end - start).as_ns() / 2),
                        2 => end,
                        _ => end + Dur::from_ns(1),
                    };
                    let started = r.apps[1].started?;
                    (at > started).then(|| at - started)
                }),
            };
            let ways = Ways::of(|| build(Some(poke.unwrap_or(far))));
            ways.assert_exact();
            let open = !(audit || faulty || conservative);
            if !open {
                proptest::prop_assert_eq!(ways.skipped, 0, "replayed with audit, faults or conservative fit");
            }
            let cases = CASES.fetch_add(1, Ordering::Relaxed) + 1;
            OPEN.fetch_add(u32::from(open), Ordering::Relaxed);
            REPLAYED.fetch_add(u32::from(ways.skipped > 0), Ordering::Relaxed);
            // The shim runs every case in order on one thread: after
            // the last one, check the share (a `PROPTEST_CASES` cap
            // below the full count skips the check).
            if cases == EXACT_CASES {
                let (open, replayed) = (OPEN.load(Ordering::Relaxed), REPLAYED.load(Ordering::Relaxed));
                proptest::prop_assert!(
                    replayed * 100 >= open * REPLAY_SHARE_PERCENT,
                    "the replay fired in {replayed} of {open} open cases"
                );
            }
        }
    }
}
