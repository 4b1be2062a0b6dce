//! Host-side application programs.
//!
//! An *application* in the paper is a CPU thread executing a fixed
//! pattern of CUDA runtime calls against one stream — in general
//! `HtoD transfers → kernel iterations → DtoH transfers`. [`Program`] is
//! that pattern as data: a sequence of [`HostOp`]s executed by a
//! simulated host thread, each call paying the configured driver
//! overhead before its operation is enqueued.

use crate::kernel::{KernelDesc, KernelInfo};
use crate::types::{Dir, MutexId};
use hq_des::intern::{Interner, Symbol};
use hq_des::time::Dur;

/// One host-side operation (one CUDA runtime call or host action).
#[derive(Clone, Debug, PartialEq)]
pub enum HostOp {
    /// `cudaMemcpyAsync` on the application's stream.
    MemcpyAsync {
        /// Transfer direction.
        dir: Dir,
        /// Transfer size in bytes.
        bytes: u64,
        /// Label for traces (e.g. the buffer name).
        label: String,
    },
    /// Kernel launch on the application's stream.
    LaunchKernel {
        /// Full launch descriptor.
        kernel: KernelDesc,
    },
    /// `cudaStreamSynchronize`: block the host thread until every
    /// operation previously enqueued on the stream has completed.
    StreamSync,
    /// Pure host-side computation (no device interaction).
    HostWork {
        /// How long the host stays busy.
        dur: Dur,
    },
    /// Acquire a host mutex (blocking; FIFO wakeup). Used by the
    /// memory-transfer synchronization technique (paper §III-B).
    MutexLock(MutexId),
    /// Release a host mutex.
    MutexUnlock(MutexId),
}

/// A complete application program plus bookkeeping metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Application label (e.g. `gaussian#3`).
    pub label: String,
    /// Ops executed in order by the host thread.
    pub ops: Vec<HostOp>,
    /// Device memory this application allocates before the timed
    /// region (checked against device capacity at simulation start).
    pub device_bytes: u64,
}

impl Program {
    /// Start building a program.
    pub fn builder(label: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder {
            program: Program {
                label: label.into(),
                ops: Vec::new(),
                device_bytes: 0,
            },
        }
    }

    /// Number of kernel launches in the program.
    pub fn kernel_launches(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, HostOp::LaunchKernel { .. }))
            .count()
    }

    /// Total bytes transferred in the given direction.
    pub fn transfer_bytes(&self, dir: Dir) -> u64 {
        self.ops
            .iter()
            .filter_map(|op| match op {
                HostOp::MemcpyAsync { dir: d, bytes, .. } if *d == dir => Some(*bytes),
                _ => None,
            })
            .sum()
    }

    /// Number of individual transfers in the given direction.
    pub fn transfer_count(&self, dir: Dir) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, HostOp::MemcpyAsync { dir: d, .. } if *d == dir))
            .count()
    }

    /// Wrap the leading HtoD transfer stage in `lock(mutex) … unlock`,
    /// implementing the paper's memory-transfer synchronization
    /// (§III-B): all of an application's HtoD transfers complete as a
    /// pseudo-burst before another application takes the copy queue.
    ///
    /// `sync_before_unlock` inserts a `StreamSync` before the unlock so
    /// the mutex is held until the transfers have *completed* (not just
    /// been enqueued), exactly as the paper describes.
    ///
    /// Programs whose first operation is not an HtoD transfer are
    /// returned unchanged.
    pub fn with_htod_mutex(mut self, mutex: MutexId, sync_before_unlock: bool) -> Program {
        let stage_end = self
            .ops
            .iter()
            .position(|op| !matches!(op, HostOp::MemcpyAsync { dir: Dir::HtoD, .. }))
            .unwrap_or(self.ops.len());
        if stage_end == 0 {
            return self;
        }
        let mut ops = Vec::with_capacity(self.ops.len() + 3);
        ops.push(HostOp::MutexLock(mutex));
        ops.extend(self.ops.drain(..stage_end));
        if sync_before_unlock {
            ops.push(HostOp::StreamSync);
        }
        ops.push(HostOp::MutexUnlock(mutex));
        ops.append(&mut self.ops);
        self.ops = ops;
        self
    }
}

/// One compiled host op: the `Copy` form of [`HostOp`] executed by the
/// simulator's host-step loop. Trace labels are pre-interned (including
/// the `"{label} {dir}"` suffix copies carry in the timeline), so
/// stepping a program clones nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum COp {
    /// `cudaMemcpyAsync`; `label` is the full interned trace label.
    Memcpy {
        /// Transfer direction.
        dir: Dir,
        /// Transfer size in bytes.
        bytes: u64,
        /// Interned trace label (`"{buffer} {dir}"`).
        label: Symbol,
    },
    /// Kernel launch with a compiled descriptor.
    Launch(KernelInfo),
    /// `cudaStreamSynchronize`.
    Sync,
    /// Pure host-side computation.
    HostWork(Dur),
    /// Acquire a host mutex.
    Lock(MutexId),
    /// Release a host mutex.
    Unlock(MutexId),
}

/// A [`Program`] compiled against a per-simulation [`Interner`]: every
/// label is a [`Symbol`] and every op is `Copy`.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// Interned application label.
    pub label: Symbol,
    /// Compiled ops, in program order.
    pub ops: Vec<COp>,
    /// Device memory footprint (see [`Program::device_bytes`]).
    pub device_bytes: u64,
}

impl Program {
    /// Compile this program for execution, interning all labels into
    /// `table`. The simulator calls this once per added application.
    pub fn compile(&self, table: &mut Interner) -> CompiledProgram {
        let ops = self
            .ops
            .iter()
            .map(|op| match op {
                HostOp::MemcpyAsync { dir, bytes, label } => COp::Memcpy {
                    dir: *dir,
                    bytes: *bytes,
                    label: table.intern(&format!("{label} {dir}")),
                },
                HostOp::LaunchKernel { kernel } => COp::Launch(kernel.compile(table)),
                HostOp::StreamSync => COp::Sync,
                HostOp::HostWork { dur } => COp::HostWork(*dur),
                HostOp::MutexLock(m) => COp::Lock(*m),
                HostOp::MutexUnlock(m) => COp::Unlock(*m),
            })
            .collect();
        CompiledProgram {
            label: table.intern(&self.label),
            ops,
            device_bytes: self.device_bytes,
        }
    }
}

/// Fluent builder for [`Program`].
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// Add a host-to-device transfer.
    pub fn htod(mut self, bytes: u64, label: impl Into<String>) -> Self {
        self.program.ops.push(HostOp::MemcpyAsync {
            dir: Dir::HtoD,
            bytes,
            label: label.into(),
        });
        self
    }

    /// Add a device-to-host transfer.
    pub fn dtoh(mut self, bytes: u64, label: impl Into<String>) -> Self {
        self.program.ops.push(HostOp::MemcpyAsync {
            dir: Dir::DtoH,
            bytes,
            label: label.into(),
        });
        self
    }

    /// Add a kernel launch.
    pub fn launch(mut self, kernel: KernelDesc) -> Self {
        self.program.ops.push(HostOp::LaunchKernel { kernel });
        self
    }

    /// Add a stream synchronize.
    pub fn sync(mut self) -> Self {
        self.program.ops.push(HostOp::StreamSync);
        self
    }

    /// Add host-side work.
    pub fn host_work(mut self, dur: Dur) -> Self {
        self.program.ops.push(HostOp::HostWork { dur });
        self
    }

    /// Record device memory footprint (informational; checked against
    /// device capacity when the simulation starts).
    pub fn device_alloc(mut self, bytes: u64) -> Self {
        self.program.device_bytes += bytes;
        self
    }

    /// Finish with a trailing `StreamSync` so the host thread's
    /// completion time includes all of its device work — every
    /// application in the paper's harness joins its thread only after
    /// its stream drains.
    pub fn build(mut self) -> Program {
        if !matches!(self.program.ops.last(), Some(HostOp::StreamSync)) {
            self.program.ops.push(HostOp::StreamSync);
        }
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(name: &str) -> KernelDesc {
        KernelDesc::new(name, 4u32, 64u32, Dur::from_us(10))
    }

    #[test]
    fn builder_appends_trailing_sync() {
        let p = Program::builder("a")
            .htod(1024, "x")
            .launch(k("k1"))
            .dtoh(1024, "y")
            .build();
        assert_eq!(p.ops.len(), 4);
        assert!(matches!(p.ops.last(), Some(HostOp::StreamSync)));
        let p2 = Program::builder("b").sync().build();
        assert_eq!(p2.ops.len(), 1, "no duplicate trailing sync");
    }

    #[test]
    fn counters() {
        let p = Program::builder("a")
            .htod(1000, "x")
            .htod(500, "y")
            .launch(k("k1"))
            .launch(k("k2"))
            .dtoh(300, "z")
            .build();
        assert_eq!(p.kernel_launches(), 2);
        assert_eq!(p.transfer_bytes(Dir::HtoD), 1500);
        assert_eq!(p.transfer_bytes(Dir::DtoH), 300);
        assert_eq!(p.transfer_count(Dir::HtoD), 2);
        assert_eq!(p.transfer_count(Dir::DtoH), 1);
    }

    #[test]
    fn htod_mutex_wraps_leading_stage() {
        let m = MutexId(0);
        let p = Program::builder("a")
            .htod(1000, "x")
            .htod(500, "y")
            .launch(k("k1"))
            .dtoh(300, "z")
            .build()
            .with_htod_mutex(m, true);
        // lock, htod, htod, sync, unlock, launch, dtoh, sync
        assert!(matches!(p.ops[0], HostOp::MutexLock(id) if id == m));
        assert!(matches!(
            p.ops[1],
            HostOp::MemcpyAsync { dir: Dir::HtoD, .. }
        ));
        assert!(matches!(
            p.ops[2],
            HostOp::MemcpyAsync { dir: Dir::HtoD, .. }
        ));
        assert!(matches!(p.ops[3], HostOp::StreamSync));
        assert!(matches!(p.ops[4], HostOp::MutexUnlock(id) if id == m));
        assert!(matches!(p.ops[5], HostOp::LaunchKernel { .. }));
    }

    #[test]
    fn htod_mutex_without_sync() {
        let p = Program::builder("a")
            .htod(1000, "x")
            .launch(k("k1"))
            .build()
            .with_htod_mutex(MutexId(1), false);
        assert!(matches!(p.ops[0], HostOp::MutexLock(_)));
        assert!(matches!(p.ops[2], HostOp::MutexUnlock(_)));
    }

    #[test]
    fn htod_mutex_noop_when_no_leading_stage() {
        let p = Program::builder("a")
            .launch(k("k1"))
            .htod(1000, "late")
            .build();
        let before = p.clone();
        let after = p.with_htod_mutex(MutexId(0), true);
        assert_eq!(before, after);
    }

    #[test]
    fn compile_interns_labels_and_preserves_structure() {
        let mut table = Interner::new();
        let p = Program::builder("gaussian#0")
            .htod(1024, "a")
            .launch(k("Fan1"))
            .dtoh(512, "m")
            .build()
            .compile(&mut table);
        assert_eq!(table.resolve(p.label), "gaussian#0");
        assert_eq!(p.ops.len(), 4);
        match p.ops[0] {
            COp::Memcpy { dir, bytes, label } => {
                assert_eq!(dir, Dir::HtoD);
                assert_eq!(bytes, 1024);
                // The trace-ready label includes the direction suffix.
                assert_eq!(table.resolve(label), "a HtoD");
            }
            ref other => panic!("expected Memcpy, got {other:?}"),
        }
        match p.ops[1] {
            COp::Launch(info) => assert_eq!(table.resolve(info.name), "Fan1"),
            ref other => panic!("expected Launch, got {other:?}"),
        }
        assert_eq!(p.ops[3], COp::Sync);
    }

    #[test]
    fn device_alloc_accumulates() {
        let p = Program::builder("a")
            .device_alloc(1024)
            .device_alloc(2048)
            .build();
        assert_eq!(p.device_bytes, 3072);
    }
}
