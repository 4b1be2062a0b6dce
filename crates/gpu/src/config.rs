//! Device and host configuration.
//!
//! The defaults model the paper's testbed: a Tesla K20 (Kepler GK110,
//! compute capability 3.5) — 13 SMX units, Hyper-Q with 32 hardware
//! work queues, and one DMA engine per transfer direction — driven by a
//! multithreaded host through a CUDA-runtime-like driver with
//! microsecond-scale per-call overhead.

use hq_des::time::Dur;

/// Per-SMX residency limits and issue capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmxLimits {
    /// Maximum resident thread blocks (16 on CC 3.5).
    pub max_blocks: u32,
    /// Maximum resident threads (2048 on CC 3.5).
    pub max_threads: u32,
    /// Register file size in 32-bit registers (65,536 on CC 3.5).
    pub max_regs: u32,
    /// Shared memory in bytes (48 KiB usable on CC 3.5).
    pub max_smem: u32,
    /// Number of warps the SMX can progress at full rate simultaneously.
    ///
    /// Kepler SMX has 4 warp schedulers with dual issue; we model the
    /// unit as a processor-sharing server with this many full-rate warp
    /// slots: with `W` resident warps, each progresses at rate
    /// `min(1, issue_warps / W)`.
    pub issue_warps: u32,
}

impl SmxLimits {
    /// CC 3.5 (Kepler GK110) limits.
    pub const fn kepler() -> Self {
        SmxLimits {
            max_blocks: 16,
            max_threads: 2048,
            max_regs: 65_536,
            max_smem: 48 * 1024,
            issue_warps: 8,
        }
    }
}

/// How the grid management unit admits concurrent grids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// The paper's approach (§III-A): rely on the hardware thread-block
    /// scheduler's LEFTOVER policy. Grids dispatch blocks in arrival
    /// order until a resource is exhausted; oversubscribing grids still
    /// overlap in the leftover space.
    Lazy,
    /// Baseline modelled on resource-sharing schedulers such as Li et
    /// al. [2]: a grid may only begin executing if the *sum total* of
    /// its resource request and those of all running grids fits in the
    /// device; otherwise it waits (which for realistic kernels almost
    /// always means serialization, as the paper notes).
    ConservativeFit,
}

/// How the copy queue arbitrates among pending transfers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceOrder {
    /// Round-robin across streams with pending transfers (the behaviour
    /// the paper observed and illustrates in Fig. 1: *"control of the
    /// copy queue is interleaved between memory transfers from
    /// different threads"*). Default.
    StreamInterleaved,
    /// Strict host-issue FIFO (counterfactual for ablations).
    IssueOrder,
}

/// DMA engine parameters (one engine per direction on Kepler).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DmaConfig {
    /// Fixed per-transfer setup latency. Below ~8 KB a transfer is
    /// latency-dominated (paper §III-B, ref [16]).
    pub latency: Dur,
    /// Sustained PCIe bandwidth per direction, bytes per second
    /// (~6 GB/s effective for PCIe gen2 x16 with pinned memory).
    pub bytes_per_sec: f64,
    /// `Some(chunk)` splits every transfer into `chunk`-byte pieces that
    /// round-robin with other pending transfers — the "chunking"
    /// alternative of Pai et al. [8]. `None` (default) transfers each
    /// memcpy atomically, as the CUDA copy engine does.
    pub chunk_bytes: Option<u64>,
    /// Queue arbitration policy.
    pub service_order: ServiceOrder,
}

impl DmaConfig {
    /// PCIe gen2 x16 with pinned host memory (K20 testbed).
    pub fn pcie_gen2() -> Self {
        DmaConfig {
            latency: Dur::from_us(10),
            bytes_per_sec: 6.0e9,
            chunk_bytes: None,
            service_order: ServiceOrder::StreamInterleaved,
        }
    }

    /// Duration of a single transfer of `bytes` (latency + size/bw).
    pub fn transfer_time(&self, bytes: u64) -> Dur {
        self.latency + Dur::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }
}

/// Full device model configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceConfig {
    /// Human-readable device name.
    pub name: String,
    /// Number of SMX units (13 on the K20).
    pub num_smx: u32,
    /// Per-SMX limits.
    pub smx: SmxLimits,
    /// Number of hardware work queues: 32 with Hyper-Q (Kepler),
    /// 1 models a Fermi-class device (false serialization of kernels
    /// activated through the single queue).
    pub hw_queues: u32,
    /// DMA engine parameters (applied to both directions).
    pub dma: DmaConfig,
    /// Grid admission policy.
    pub admission: AdmissionPolicy,
    /// Latency between a grid reaching the head of its hardware queue
    /// and its blocks becoming dispatchable (GMU overhead).
    pub kernel_launch_latency: Dur,
    /// Device memory capacity in bytes (5 GB on the K20).
    pub device_mem_bytes: u64,
}

impl DeviceConfig {
    /// The paper's testbed: Tesla K20, compute capability 3.5.
    ///
    /// With 13 SMX × 16 resident blocks this gives the "theoretical
    /// maximum number of thread blocks of 208" quoted in §V-A.
    pub fn tesla_k20() -> Self {
        DeviceConfig {
            name: "Tesla K20 (simulated)".to_string(),
            num_smx: 13,
            smx: SmxLimits::kepler(),
            hw_queues: 32,
            dma: DmaConfig::pcie_gen2(),
            admission: AdmissionPolicy::Lazy,
            kernel_launch_latency: Dur::from_us(4),
            device_mem_bytes: 5 * 1024 * 1024 * 1024,
        }
    }

    /// A larger Kepler part (Tesla K40: 15 SMX, 12 GB) for scaling
    /// studies beyond the paper.
    pub fn tesla_k40() -> Self {
        DeviceConfig {
            name: "Tesla K40 (simulated)".to_string(),
            num_smx: 15,
            device_mem_bytes: 12 * 1024 * 1024 * 1024,
            ..Self::tesla_k20()
        }
    }

    /// The same compute fabric restricted to a single hardware work
    /// queue — a Fermi-generation device for the Hyper-Q ablation
    /// (pre-Kepler false serialization, paper §I).
    pub fn fermi_like() -> Self {
        DeviceConfig {
            name: "Fermi-class (simulated, single work queue)".to_string(),
            hw_queues: 1,
            ..Self::tesla_k20()
        }
    }

    /// Device-wide resident-block capacity (`num_smx × max_blocks`).
    pub fn max_resident_blocks(&self) -> u32 {
        self.num_smx * self.smx.max_blocks
    }

    /// Device-wide resident-thread capacity.
    pub fn max_resident_threads(&self) -> u32 {
        self.num_smx * self.smx.max_threads
    }
}

/// Host-side timing parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostConfig {
    /// Time a host thread spends in each driver API call before the
    /// operation is enqueued (and before the thread can issue the next
    /// call). This pacing is what interleaves enqueues from concurrent
    /// application threads in the single copy queue (paper Fig. 1).
    pub driver_call_overhead: Dur,
    /// Delay between consecutive child-thread launches by the parent
    /// thread. The paper's reordering technique relies on launch order
    /// "prejudicing" execution order (§III-C); the stagger is what makes
    /// launch order observable.
    pub thread_launch_stagger: Dur,
    /// Mean of an exponential jitter added to every driver call and
    /// thread start (OS scheduling noise). Zero disables jitter, which
    /// keeps runs fully deterministic given the seed.
    pub jitter_mean: Dur,
    /// Cost of a mutex lock/unlock operation on the host.
    pub mutex_overhead: Dur,
    /// Kernel watchdog timeout. When set, every dispatchable grid is
    /// checked on this period: a grid that completed no thread block
    /// since the previous check is killed — its residency and admission
    /// totals are reclaimed and its stream takes a sticky error (see
    /// [`crate::fault`]). `None` (the default) disables the watchdog and
    /// leaves runs bit-identical to a build without it.
    pub watchdog_timeout: Option<Dur>,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            driver_call_overhead: Dur::from_us(5),
            thread_launch_stagger: Dur::from_us(20),
            jitter_mean: Dur::from_ns(500),
            mutex_overhead: Dur::from_ns(100),
            watchdog_timeout: None,
        }
    }
}

impl HostConfig {
    /// A configuration with zero jitter (bit-deterministic regardless of
    /// seed), used by tests.
    pub fn deterministic() -> Self {
        HostConfig {
            jitter_mean: Dur::ZERO,
            ..Self::default()
        }
    }

    /// Builder-style watchdog timeout override.
    pub fn with_watchdog(mut self, timeout: Dur) -> Self {
        self.watchdog_timeout = Some(timeout);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k20_matches_paper_block_capacity() {
        let cfg = DeviceConfig::tesla_k20();
        assert_eq!(cfg.max_resident_blocks(), 208);
        assert_eq!(cfg.max_resident_threads(), 13 * 2048);
        assert_eq!(cfg.hw_queues, 32);
    }

    #[test]
    fn fermi_has_single_queue_same_fabric() {
        let f = DeviceConfig::fermi_like();
        let k = DeviceConfig::tesla_k20();
        assert_eq!(f.hw_queues, 1);
        assert_eq!(f.num_smx, k.num_smx);
        assert_eq!(f.smx, k.smx);
    }

    #[test]
    fn transfer_time_latency_dominated_below_8kb() {
        let dma = DmaConfig::pcie_gen2();
        let t_small = dma.transfer_time(1024);
        let t_8k = dma.transfer_time(8 * 1024);
        // Below 8KB the fixed latency dominates: both within ~15% of
        // each other even though sizes differ 8x.
        let ratio = t_8k.as_ns() as f64 / t_small.as_ns() as f64;
        assert!(ratio < 1.2, "ratio {ratio}");
        // Well above 8KB, time scales roughly linearly with size.
        let t_1m = dma.transfer_time(1 << 20);
        let t_2m = dma.transfer_time(2 << 20);
        let ratio = t_2m.as_ns() as f64 / t_1m.as_ns() as f64;
        assert!(ratio > 1.8, "ratio {ratio}");
    }

    #[test]
    fn transfer_time_monotone_in_size() {
        let dma = DmaConfig::pcie_gen2();
        let mut prev = Dur::ZERO;
        for bytes in [0u64, 1, 512, 4096, 8192, 1 << 16, 1 << 20, 100 << 20] {
            let t = dma.transfer_time(bytes);
            assert!(t >= prev);
            prev = t;
        }
    }
}
