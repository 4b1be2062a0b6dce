//! Kernel launch descriptors and per-block resource arithmetic.

use hq_des::intern::{Interner, Symbol};
use hq_des::time::Dur;

/// A CUDA-style 3-component launch dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// X extent (≥ 1).
    pub x: u32,
    /// Y extent (≥ 1).
    pub y: u32,
    /// Z extent (≥ 1).
    pub z: u32,
}

impl Dim3 {
    /// 1-D dimension `(x, 1, 1)`.
    pub const fn x(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// 2-D dimension `(x, y, 1)`.
    pub const fn xy(x: u32, y: u32) -> Self {
        Dim3 { x, y, z: 1 }
    }

    /// Total number of elements (`x·y·z`).
    pub const fn count(&self) -> u32 {
        self.x * self.y * self.z
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Self {
        Dim3::x(x)
    }
}

impl From<(u32, u32)> for Dim3 {
    fn from((x, y): (u32, u32)) -> Self {
        Dim3::xy(x, y)
    }
}

/// Static description of one kernel launch: geometry, per-block resource
/// requirements, and the cost model input (`work_per_block`).
///
/// `work_per_block` is the time one thread block takes when its warps
/// progress at full issue rate; the SMX processor-sharing model
/// stretches it when resident warps exceed the SMX issue capacity.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelDesc {
    /// Kernel name (as it would appear in a profiler timeline).
    pub name: String,
    /// Grid dimensions (number of thread blocks per axis).
    pub grid: Dim3,
    /// Block dimensions (threads per axis).
    pub block: Dim3,
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Static + dynamic shared memory per block, in bytes.
    pub smem_per_block: u32,
    /// Nominal single-block execution time at full issue rate.
    pub work_per_block: Dur,
}

impl KernelDesc {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        grid: impl Into<Dim3>,
        block: impl Into<Dim3>,
        work_per_block: Dur,
    ) -> Self {
        KernelDesc {
            name: name.into(),
            grid: grid.into(),
            block: block.into(),
            regs_per_thread: 32,
            smem_per_block: 0,
            work_per_block,
        }
    }

    /// Builder-style register requirement.
    pub fn with_regs(mut self, regs_per_thread: u32) -> Self {
        self.regs_per_thread = regs_per_thread;
        self
    }

    /// Builder-style shared-memory requirement.
    pub fn with_smem(mut self, smem_per_block: u32) -> Self {
        self.smem_per_block = smem_per_block;
        self
    }

    /// Total thread blocks in the grid (`#TB` in the paper's Table III).
    pub fn blocks(&self) -> u32 {
        self.grid.count()
    }

    /// Threads per block (`#TPB` in the paper's Table III).
    pub fn threads_per_block(&self) -> u32 {
        self.block.count()
    }

    /// Warps per block (threads rounded up to warp granularity).
    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block().div_ceil(32)
    }

    /// Registers required by one block.
    pub fn regs_per_block(&self) -> u32 {
        // The register file allocates per warp at warp granularity; the
        // per-thread count times 32 threads per warp is the standard
        // approximation.
        self.warps_per_block() * 32 * self.regs_per_thread
    }

    /// Total threads across the whole grid.
    pub fn total_threads(&self) -> u64 {
        self.blocks() as u64 * self.threads_per_block() as u64
    }

    /// Compile into the `Copy` form used inside the simulator, interning
    /// the kernel name into `table`.
    pub fn compile(&self, table: &mut Interner) -> KernelInfo {
        KernelInfo {
            name: table.intern(&self.name),
            grid: self.grid,
            block: self.block,
            regs_per_thread: self.regs_per_thread,
            smem_per_block: self.smem_per_block,
            work_per_block: self.work_per_block,
        }
    }
}

/// The compiled, `Copy` form of [`KernelDesc`] used on the simulator's
/// hot path: identical geometry and resource fields, but the kernel name
/// is a [`Symbol`] into the per-simulation [`Interner`], so activating,
/// dispatching and retiring a grid moves no heap memory. Resolve the
/// name back to a string only at the result boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelInfo {
    /// Interned kernel name.
    pub name: Symbol,
    /// Grid dimensions (number of thread blocks per axis).
    pub grid: Dim3,
    /// Block dimensions (threads per axis).
    pub block: Dim3,
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Static + dynamic shared memory per block, in bytes.
    pub smem_per_block: u32,
    /// Nominal single-block execution time at full issue rate.
    pub work_per_block: Dur,
}

impl KernelInfo {
    /// Builder-style register requirement.
    pub fn with_regs(mut self, regs_per_thread: u32) -> Self {
        self.regs_per_thread = regs_per_thread;
        self
    }

    /// Builder-style shared-memory requirement.
    pub fn with_smem(mut self, smem_per_block: u32) -> Self {
        self.smem_per_block = smem_per_block;
        self
    }

    /// Total thread blocks in the grid.
    pub fn blocks(&self) -> u32 {
        self.grid.count()
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.block.count()
    }

    /// Warps per block (threads rounded up to warp granularity).
    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block().div_ceil(32)
    }

    /// Registers required by one block (warp-granular, as in
    /// [`KernelDesc::regs_per_block`]).
    pub fn regs_per_block(&self) -> u32 {
        self.warps_per_block() * 32 * self.regs_per_thread
    }

    /// Total threads across the whole grid.
    pub fn total_threads(&self) -> u64 {
        self.blocks() as u64 * self.threads_per_block() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim3_constructors() {
        assert_eq!(Dim3::x(5).count(), 5);
        assert_eq!(Dim3::xy(32, 32).count(), 1024);
        assert_eq!(Dim3 { x: 2, y: 3, z: 4 }.count(), 24);
        let d: Dim3 = 7u32.into();
        assert_eq!(d, Dim3::x(7));
        let d: Dim3 = (16, 16).into();
        assert_eq!(d.count(), 256);
    }

    #[test]
    fn table3_fan2_geometry() {
        // gaussian Fan2: grid (32,32,1), block (16,16,1) → 1024 TB, 256 TPB.
        let k = KernelDesc::new("Fan2", (32, 32), (16, 16), Dur::from_us(3));
        assert_eq!(k.blocks(), 1024);
        assert_eq!(k.threads_per_block(), 256);
        assert_eq!(k.warps_per_block(), 8);
    }

    #[test]
    fn table3_needle_geometry() {
        // needle_cuda_shared_1: grid (16,1,1), block (32,1,1) → 16 TB, 32 TPB.
        let k = KernelDesc::new("needle_cuda_shared_1", 16u32, 32u32, Dur::from_us(5));
        assert_eq!(k.blocks(), 16);
        assert_eq!(k.threads_per_block(), 32);
        assert_eq!(k.warps_per_block(), 1);
    }

    #[test]
    fn warps_round_up() {
        let k = KernelDesc::new("odd", 1u32, 33u32, Dur::from_us(1));
        assert_eq!(k.warps_per_block(), 2);
        let k = KernelDesc::new("one", 1u32, 1u32, Dur::from_us(1));
        assert_eq!(k.warps_per_block(), 1);
    }

    #[test]
    fn regs_per_block_warp_granular() {
        let k = KernelDesc::new("k", 1u32, 33u32, Dur::from_us(1)).with_regs(40);
        // 2 warps × 32 threads × 40 regs
        assert_eq!(k.regs_per_block(), 2 * 32 * 40);
    }

    #[test]
    fn compile_preserves_geometry_and_interns_name() {
        let mut table = Interner::new();
        let k = KernelDesc::new("Fan2", (32, 32), (16, 16), Dur::from_us(3)).with_regs(20);
        let i = k.compile(&mut table);
        assert_eq!(table.resolve(i.name), "Fan2");
        assert_eq!(i.blocks(), k.blocks());
        assert_eq!(i.threads_per_block(), k.threads_per_block());
        assert_eq!(i.warps_per_block(), k.warps_per_block());
        assert_eq!(i.regs_per_block(), k.regs_per_block());
        assert_eq!(i.total_threads(), k.total_threads());
        // Compiling the same kernel twice reuses the symbol.
        assert_eq!(k.compile(&mut table).name, i.name);
    }

    #[test]
    fn builders_set_fields() {
        let k = KernelDesc::new("k", 1u32, 64u32, Dur::from_us(1))
            .with_regs(48)
            .with_smem(4096);
        assert_eq!(k.regs_per_thread, 48);
        assert_eq!(k.smem_per_block, 4096);
        assert_eq!(k.total_threads(), 64);
    }
}
