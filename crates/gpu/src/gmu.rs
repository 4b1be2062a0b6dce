//! Grid management: hardware work queues and the thread-block
//! dispatcher state.
//!
//! With Hyper-Q (Kepler) there are 32 hardware work queues; streams map
//! onto them round-robin, and only the grid at the *head* of each queue
//! is visible to the thread-block scheduler. A single queue (`hw_queues
//! = 1`) models Fermi-generation false serialization: kernels from
//! independent streams serialize in activation order because they share
//! one queue.
//!
//! Dispatch itself implements the paper's **LEFTOVER (lazy) policy**
//! (§III-A): visible grids offer blocks in admission order, and the
//! dispatcher packs blocks onto SMXs until a resource is exhausted —
//! grids whose combined requests *oversubscribe* the device still
//! overlap in the leftover space. The **conservative-fit** alternative
//! (modelled on resource-sharing schedulers such as Li et al. [2])
//! admits a grid only when the sum total of resource requests of all
//! running grids plus the candidate fits the device.

use crate::config::DeviceConfig;
use crate::fault::GridFault;
use crate::kernel::KernelInfo;
use crate::types::{GridId, OpId, StreamId};
use hq_des::engine::EventId;
use hq_des::time::{Dur, SimTime};
use std::collections::VecDeque;

/// Lifecycle of a launched grid.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GridState {
    /// Behind other grids in its hardware work queue.
    Queued,
    /// At the head of its queue, paying the GMU launch latency.
    Launching,
    /// Visible to the dispatcher (possibly gated by admission policy).
    Dispatchable,
    /// All blocks dispatched and completed.
    Done,
    /// Killed by an injected fault or the watchdog; remaining blocks
    /// were discarded and the stream took a sticky error.
    Failed,
}

/// One launched kernel grid.
#[derive(Debug)]
pub struct Grid {
    /// Grid id (index in the grid table).
    pub id: GridId,
    /// The stream op this grid belongs to.
    pub op: OpId,
    /// Stream the kernel was launched on.
    pub stream: StreamId,
    /// Compiled launch descriptor (`Copy`; the kernel name is interned).
    pub desc: KernelInfo,
    /// Hardware work queue index.
    pub hwq: usize,
    /// Blocks not yet dispatched to an SMX.
    pub to_dispatch: u32,
    /// Blocks dispatched but not yet completed.
    pub outstanding: u32,
    /// Lifecycle state.
    pub state: GridState,
    /// First block dispatch time (kernel span start).
    pub first_dispatch: Option<SimTime>,
    /// Blocks that have run to completion (watchdog progress signal and
    /// abort-threshold trigger).
    pub completed_blocks: u32,
    /// Injected doom, decided when the launch activated.
    pub fault: Option<GridFault>,
    /// True once the conservative-fit gate admitted this grid (its
    /// totals are in [`Gmu::admitted_totals`] and must be returned).
    pub admitted: bool,
    /// Pending watchdog event, cancelled when the grid retires.
    pub watchdog: Option<EventId>,
    /// Blocks of this grid an empty SMX fits: the group size of the
    /// simulator's steady-wave refill (set when the launch activates).
    pub full_fit: u32,
    /// Completion delay of a freshly refilled full-fit group, with the
    /// SMX rate it was computed at.
    pub refill_eta: Option<(f64, Dur)>,
}

impl Grid {
    /// True once every block has been dispatched and completed.
    pub fn is_finished(&self) -> bool {
        self.to_dispatch == 0 && self.outstanding == 0
    }

    /// Account `n` of this grid's blocks placed on an SMX at `now`.
    pub fn note_placed(&mut self, n: u32, now: SimTime) {
        self.to_dispatch -= n;
        self.outstanding += n;
        self.first_dispatch.get_or_insert(now);
    }
}

/// Aggregate resource totals used by the conservative-fit admission
/// policy ("sum total of resource requests", paper §II).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceTotals {
    /// Total thread blocks.
    pub blocks: u64,
    /// Total threads.
    pub threads: u64,
    /// Total registers.
    pub regs: u64,
    /// Total shared memory bytes.
    pub smem: u64,
}

impl ResourceTotals {
    /// Resource request of an entire grid.
    pub fn of_grid(desc: &KernelInfo) -> Self {
        let blocks = desc.blocks() as u64;
        ResourceTotals {
            blocks,
            threads: blocks * desc.threads_per_block() as u64,
            regs: blocks * desc.regs_per_block() as u64,
            smem: blocks * desc.smem_per_block as u64,
        }
    }

    /// Device-wide capacity.
    pub fn device_capacity(cfg: &DeviceConfig) -> Self {
        let n = cfg.num_smx as u64;
        ResourceTotals {
            blocks: n * cfg.smx.max_blocks as u64,
            threads: n * cfg.smx.max_threads as u64,
            regs: n * cfg.smx.max_regs as u64,
            smem: n * cfg.smx.max_smem as u64,
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &ResourceTotals) -> ResourceTotals {
        ResourceTotals {
            blocks: self.blocks + other.blocks,
            threads: self.threads + other.threads,
            regs: self.regs + other.regs,
            smem: self.smem + other.smem,
        }
    }

    /// Component-wise subtraction (saturating; used when a grid retires).
    pub fn minus(&self, other: &ResourceTotals) -> ResourceTotals {
        ResourceTotals {
            blocks: self.blocks.saturating_sub(other.blocks),
            threads: self.threads.saturating_sub(other.threads),
            regs: self.regs.saturating_sub(other.regs),
            smem: self.smem.saturating_sub(other.smem),
        }
    }

    /// True if every component fits within `capacity`.
    pub fn fits_in(&self, capacity: &ResourceTotals) -> bool {
        self.blocks <= capacity.blocks
            && self.threads <= capacity.threads
            && self.regs <= capacity.regs
            && self.smem <= capacity.smem
    }
}

/// Grid table plus hardware work queues.
#[derive(Debug)]
pub struct Gmu {
    /// All grids ever launched, indexed by [`GridId`].
    pub grids: Vec<Grid>,
    /// Hardware work queues (head = visible grid).
    pub hw_queues: Vec<VecDeque<GridId>>,
    /// Grids visible to the dispatcher with blocks left to dispatch,
    /// in admission order.
    pub dispatchable: VecDeque<GridId>,
    /// Aggregate resources of grids admitted under conservative fit
    /// and not yet finished.
    pub admitted_totals: ResourceTotals,
}

impl Gmu {
    /// New GMU with `hw_queues` hardware queues.
    pub fn new(hw_queues: u32) -> Self {
        Gmu {
            grids: Vec::new(),
            hw_queues: (0..hw_queues.max(1)).map(|_| VecDeque::new()).collect(),
            dispatchable: VecDeque::new(),
            admitted_totals: ResourceTotals::default(),
        }
    }

    /// Map a stream onto its hardware work queue (round-robin hashing,
    /// as Kepler does when streams outnumber queues).
    pub fn queue_for_stream(&self, stream: StreamId) -> usize {
        stream.index() % self.hw_queues.len()
    }

    /// Register a newly activated kernel launch. Returns the grid id
    /// and whether it landed at the head of its hardware queue (and
    /// should begin the launch-latency countdown).
    pub fn push_grid(&mut self, op: OpId, stream: StreamId, desc: KernelInfo) -> (GridId, bool) {
        let id = GridId(self.grids.len() as u32);
        let hwq = self.queue_for_stream(stream);
        let blocks = desc.blocks();
        self.grids.push(Grid {
            id,
            op,
            stream,
            desc,
            hwq,
            to_dispatch: blocks,
            outstanding: 0,
            state: GridState::Queued,
            first_dispatch: None,
            completed_blocks: 0,
            fault: None,
            admitted: false,
            watchdog: None,
            full_fit: 0,
            refill_eta: None,
        });
        self.hw_queues[hwq].push_back(id);
        let at_head = self.hw_queues[hwq].len() == 1;
        (id, at_head)
    }

    /// Pop a finished grid off its hardware queue head; returns the next
    /// grid in that queue (now at head), if any.
    pub fn pop_queue_head(&mut self, grid: GridId) -> Option<GridId> {
        let hwq = self.grids[grid.index()].hwq;
        let front = self.hw_queues[hwq].pop_front();
        debug_assert_eq!(front, Some(grid), "queue head mismatch");
        self.hw_queues[hwq].front().copied()
    }

    /// Grid accessor.
    pub fn grid(&self, id: GridId) -> &Grid {
        &self.grids[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelDesc;
    use hq_des::intern::Interner;

    fn desc(blocks: u32, tpb: u32) -> KernelInfo {
        KernelDesc::new("k", blocks, tpb, Dur::from_us(1)).compile(&mut Interner::new())
    }

    #[test]
    fn totals_of_grid() {
        let t = ResourceTotals::of_grid(&desc(1024, 256));
        assert_eq!(t.blocks, 1024);
        assert_eq!(t.threads, 1024 * 256);
    }

    #[test]
    fn device_capacity_k20() {
        let cap = ResourceTotals::device_capacity(&DeviceConfig::tesla_k20());
        assert_eq!(cap.blocks, 208);
        assert_eq!(cap.threads, 13 * 2048);
    }

    #[test]
    fn fits_in_checks_all_components() {
        let cap = ResourceTotals::device_capacity(&DeviceConfig::tesla_k20());
        // Fan2-sized grid (1024 blocks) oversubscribes block capacity.
        assert!(!ResourceTotals::of_grid(&desc(1024, 256)).fits_in(&cap));
        assert!(ResourceTotals::of_grid(&desc(100, 128)).fits_in(&cap));
    }

    #[test]
    fn plus_minus_roundtrip() {
        let a = ResourceTotals::of_grid(&desc(10, 64));
        let b = ResourceTotals::of_grid(&desc(5, 32));
        assert_eq!(a.plus(&b).minus(&b), a);
        // minus saturates
        assert_eq!(b.minus(&a).blocks, 0);
    }

    #[test]
    fn streams_hash_round_robin_onto_queues() {
        let gmu = Gmu::new(4);
        assert_eq!(gmu.queue_for_stream(StreamId(0)), 0);
        assert_eq!(gmu.queue_for_stream(StreamId(4)), 0);
        assert_eq!(gmu.queue_for_stream(StreamId(5)), 1);
    }

    #[test]
    fn push_grid_head_detection() {
        let mut gmu = Gmu::new(1); // Fermi: single queue
        let (g0, head0) = gmu.push_grid(OpId(0), StreamId(0), desc(4, 32));
        let (_g1, head1) = gmu.push_grid(OpId(1), StreamId(1), desc(4, 32));
        assert!(head0, "first grid heads the queue");
        assert!(!head1, "second grid queues behind it (false serialization)");
        let next = gmu.pop_queue_head(g0);
        assert_eq!(next, Some(GridId(1)));
    }

    #[test]
    fn hyperq_grids_on_distinct_streams_all_head() {
        let mut gmu = Gmu::new(32);
        for s in 0..8 {
            let (_, head) = gmu.push_grid(OpId(s), StreamId(s), desc(4, 32));
            assert!(head, "with Hyper-Q each stream heads its own queue");
        }
    }
}
