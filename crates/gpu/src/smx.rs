//! The SMX execution model.
//!
//! Each SMX is a processor-sharing server over *warp issue slots*: with
//! `W` resident warps and an issue capacity of `C` full-rate warp slots
//! (8 on Kepler: 4 schedulers × dual dispatch), every resident warp
//! progresses at rate `min(1, C/W)`. A thread block whose nominal
//! duration is `work_per_block` therefore completes in
//! `work_per_block / rate`, stretching as co-residency grows — total SMX
//! throughput stays constant once saturated, which is exactly the
//! behaviour that makes the paper's LEFTOVER packing "no worse than
//! serialization".
//!
//! Blocks are dispatched in *groups*: all blocks of the same grid placed
//! onto one SMX in one scheduling round. Blocks of a group start and
//! (having identical cost) finish together, so one event per group
//! suffices — this keeps event counts tractable for launches like
//! gaussian's Fan2 (1024 blocks × 511 calls × 32 applications).

use crate::config::SmxLimits;
use crate::kernel::KernelInfo;
use crate::types::GridId;
use hq_des::engine::EventId;
use hq_des::time::{Dur, SimTime};

/// A set of blocks from one grid, co-resident on one SMX.
#[derive(Debug)]
pub struct Group {
    /// Unique token identifying this group's completion event.
    pub token: u64,
    /// Grid the blocks belong to.
    pub grid: GridId,
    /// Number of blocks in the group.
    pub blocks: u32,
    /// Warps contributed per block.
    pub warps_per_block: u32,
    /// Pending completion event, owned by the simulator loop.
    pub ev: Option<EventId>,
    /// Remaining per-warp work, in nanoseconds at full issue rate.
    remaining: f64,
    /// Exact resident-resource deltas, released when the group retires.
    res_threads: u32,
    res_regs: u32,
    res_smem: u32,
}

/// Time a group with `remaining` full-rate nanoseconds of work needs
/// at per-warp `rate`, rounded up to whole nanoseconds.
#[inline]
pub fn eta(remaining: f64, rate: f64) -> Dur {
    Dur::from_ns((remaining / rate).ceil() as u64)
}

impl Group {
    /// Total warps this group keeps resident.
    pub fn warps(&self) -> u32 {
        self.blocks * self.warps_per_block
    }

    /// Remaining work in full-rate nanoseconds (diagnostics).
    pub fn remaining_ns(&self) -> f64 {
        self.remaining
    }

    /// Threads this group keeps resident (for occupancy accounting).
    pub fn threads(&self) -> u32 {
        self.res_threads
    }
}

/// A retiring group's remaining work must have drained (within a 1 ns
/// rounding tolerance).
fn debug_assert_drained(g: &Group) {
    debug_assert!(
        g.remaining < 1.0,
        "group {} completed with {} ns of work left",
        g.token,
        g.remaining
    );
}

/// One SMX unit: residency accounting plus the processor-sharing clock.
#[derive(Debug)]
pub struct Smx {
    limits: SmxLimits,
    groups: Vec<Group>,
    last_update: SimTime,
    blocks: u32,
    threads: u32,
    regs: u32,
    smem: u32,
    warps: u32,
    /// Current per-warp progress rate, recomputed whenever `warps`
    /// changes (see [`Smx::rate`]).
    rate: f64,
    /// Rate in effect when completion events were last (re)issued; when
    /// unchanged, outstanding events are still exact and need not be
    /// re-issued (a major event-churn saving for sub-capacity SMXs).
    pub sched_rate: f64,
}

impl Smx {
    /// A new, empty SMX.
    pub fn new(limits: SmxLimits) -> Self {
        Smx {
            limits,
            groups: Vec::new(),
            last_update: SimTime::ZERO,
            blocks: 0,
            threads: 0,
            regs: 0,
            smem: 0,
            warps: 0,
            rate: 1.0,
            sched_rate: 1.0,
        }
    }

    /// Resident thread count.
    pub fn resident_threads(&self) -> u32 {
        self.threads
    }

    /// Resident block count.
    pub fn resident_blocks(&self) -> u32 {
        self.blocks
    }

    /// Resident warp count.
    pub fn resident_warps(&self) -> u32 {
        self.warps
    }

    /// True if no blocks are resident.
    pub fn is_idle(&self) -> bool {
        self.blocks == 0
    }

    /// Current per-warp progress rate in `(0, 1]`.
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Recompute the cached rate after a residency change.
    fn update_rate(&mut self) {
        self.rate = if self.warps <= self.limits.issue_warps {
            1.0
        } else {
            self.limits.issue_warps as f64 / self.warps as f64
        };
    }

    /// Advance the processor-sharing clock to `now`, draining remaining
    /// work from every resident group at the current rate.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "SMX clock moved backwards");
        let dt = (now - self.last_update).as_ns() as f64;
        if dt > 0.0 && !self.groups.is_empty() {
            let r = self.rate();
            for g in &mut self.groups {
                g.remaining = (g.remaining - dt * r).max(0.0);
            }
        }
        self.last_update = now;
    }

    /// How many more blocks of `desc` fit on this SMX right now.
    pub fn max_fit(&self, desc: &KernelInfo) -> u32 {
        let by_blocks = self.limits.max_blocks - self.blocks;
        let tpb = desc.threads_per_block();
        if tpb == 0 || tpb > self.limits.max_threads {
            return 0;
        }
        let by_threads = (self.limits.max_threads - self.threads) / tpb;
        let by_regs = (self.limits.max_regs.saturating_sub(self.regs))
            .checked_div(desc.regs_per_block())
            .unwrap_or(u32::MAX);
        let by_smem = (self.limits.max_smem.saturating_sub(self.smem))
            .checked_div(desc.smem_per_block)
            .unwrap_or(u32::MAX);
        by_blocks.min(by_threads).min(by_regs).min(by_smem)
    }

    /// Place `n` blocks of `grid` (described by `desc`) as one group.
    ///
    /// The caller must have verified `n <= max_fit(desc)` and must call
    /// [`Smx::advance`] to `now` first (this method asserts both in
    /// debug builds). Returns a reference to the new group.
    pub fn place(
        &mut self,
        now: SimTime,
        token: u64,
        grid: GridId,
        desc: &KernelInfo,
        n: u32,
    ) -> &Group {
        debug_assert!(n > 0, "placing an empty group");
        debug_assert_eq!(self.last_update, now, "advance() before place()");
        debug_assert!(n <= self.max_fit(desc), "group exceeds SMX residency");
        self.blocks += n;
        self.threads += n * desc.threads_per_block();
        self.regs += n * desc.regs_per_block();
        self.smem += n * desc.smem_per_block;
        self.warps += n * desc.warps_per_block();
        self.update_rate();
        self.groups.push(Group {
            token,
            grid,
            blocks: n,
            warps_per_block: desc.warps_per_block(),
            ev: None,
            remaining: desc.work_per_block.as_ns() as f64,
            res_threads: n * desc.threads_per_block(),
            res_regs: n * desc.regs_per_block(),
            res_smem: n * desc.smem_per_block,
        });
        self.groups.last().expect("just pushed")
    }

    /// Remove the group identified by `token`, returning it. The caller
    /// must have advanced the clock to the completion instant; the
    /// group's remaining work must have drained (asserted within a
    /// 1 ns rounding tolerance).
    pub fn take_completed(&mut self, token: u64) -> Option<Group> {
        let idx = self.groups.iter().position(|g| g.token == token)?;
        let g = self.groups.swap_remove(idx);
        debug_assert_drained(&g);
        self.release(&g);
        Some(g)
    }

    /// The only resident group, if exactly one is resident.
    #[inline]
    pub fn sole_group(&self) -> Option<&Group> {
        match self.groups.as_slice() {
            [g] => Some(g),
            _ => None,
        }
    }

    /// Retire the only resident group at `now` and put a fresh group of
    /// the same grid and size in its place under `token`, with `desc`'s
    /// full work and no completion event yet. Residency and rate are
    /// left exactly as they were, so this equals
    /// [`Smx::take_completed`] followed by [`Smx::place`] of the same
    /// blocks. The retiring group's work must have drained, as in
    /// `take_completed`.
    #[inline]
    pub fn refill(&mut self, now: SimTime, token: u64, desc: &KernelInfo) -> &mut Group {
        self.advance(now);
        let [g] = self.groups.as_mut_slice() else {
            panic!("refill of an SMX without exactly one group");
        };
        debug_assert_drained(g);
        g.token = token;
        g.ev = None;
        g.remaining = desc.work_per_block.as_ns() as f64;
        g
    }

    /// Remove a group regardless of progress (simulation teardown).
    pub fn evict(&mut self, token: u64) -> Option<Group> {
        let idx = self.groups.iter().position(|g| g.token == token)?;
        let g = self.groups.swap_remove(idx);
        self.release(&g);
        Some(g)
    }

    fn release(&mut self, g: &Group) {
        self.blocks -= g.blocks;
        self.warps -= g.warps();
        self.threads -= g.res_threads;
        self.regs -= g.res_regs;
        self.smem -= g.res_smem;
        self.update_rate();
    }

    /// Time remaining until the given group completes at the current
    /// rate, rounded up to whole nanoseconds.
    pub fn eta(&self, token: u64) -> Option<Dur> {
        let g = self.groups.iter().find(|g| g.token == token)?;
        Some(eta(g.remaining, self.rate()))
    }

    /// Iterate over resident groups mutably (the simulator loop uses
    /// this to cancel and reschedule completion events after rate
    /// changes).
    pub fn groups_mut(&mut self) -> impl Iterator<Item = &mut Group> {
        self.groups.iter_mut()
    }

    /// Iterate over resident groups.
    pub fn groups(&self) -> impl Iterator<Item = &Group> {
        self.groups.iter()
    }

    /// Number of resident groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> SmxLimits {
        SmxLimits::kepler()
    }

    fn desc(tpb: u32, work_us: u64) -> KernelInfo {
        crate::kernel::KernelDesc::new("k", 1u32, tpb, Dur::from_us(work_us))
            .compile(&mut hq_des::intern::Interner::new())
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn max_fit_limited_by_blocks() {
        let s = Smx::new(limits());
        // 32-thread blocks: thread limit allows 64, block limit allows 16.
        assert_eq!(s.max_fit(&desc(32, 1)), 16);
    }

    #[test]
    fn max_fit_limited_by_threads() {
        let s = Smx::new(limits());
        // 256-thread blocks: 2048/256 = 8 < 16.
        assert_eq!(s.max_fit(&desc(256, 1)), 8);
    }

    #[test]
    fn max_fit_limited_by_smem() {
        let s = Smx::new(limits());
        let k = desc(32, 1).with_smem(16 * 1024); // 48K/16K = 3
        assert_eq!(s.max_fit(&k), 3);
    }

    #[test]
    fn max_fit_limited_by_regs() {
        let s = Smx::new(limits());
        // 256 threads × 64 regs = 16384 regs/block → 65536/16384 = 4.
        let k = desc(256, 1).with_regs(64);
        assert_eq!(s.max_fit(&k), 4);
    }

    #[test]
    fn max_fit_zero_for_oversized_block() {
        let s = Smx::new(limits());
        assert_eq!(
            s.max_fit(&desc(4096, 1)),
            0,
            "block larger than SMX thread limit"
        );
    }

    #[test]
    fn placement_updates_residency_and_release_restores() {
        let mut s = Smx::new(limits());
        s.advance(t(0));
        s.place(t(0), 1, GridId(0), &desc(256, 10), 4);
        assert_eq!(s.resident_blocks(), 4);
        assert_eq!(s.resident_threads(), 1024);
        assert_eq!(s.resident_warps(), 32);
        assert_eq!(s.max_fit(&desc(256, 10)), 4);
        let g = s.evict(1).expect("group exists");
        assert_eq!(g.blocks, 4);
        assert!(s.is_idle());
        assert_eq!(s.resident_threads(), 0);
        assert_eq!(s.resident_warps(), 0);
    }

    #[test]
    fn rate_full_until_issue_capacity() {
        let mut s = Smx::new(limits());
        s.advance(t(0));
        // One 256-thread block = 8 warps = exactly the issue capacity.
        s.place(t(0), 1, GridId(0), &desc(256, 10), 1);
        assert_eq!(s.rate(), 1.0);
        // A second block halves the rate.
        s.place(t(0), 2, GridId(0), &desc(256, 10), 1);
        assert!((s.rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_group_completes_in_nominal_time() {
        let mut s = Smx::new(limits());
        s.advance(t(0));
        s.place(t(0), 7, GridId(0), &desc(256, 10), 1);
        assert_eq!(s.eta(7), Some(Dur::from_us(10)));
        s.advance(t(10_000));
        let g = s.take_completed(7).expect("complete");
        assert_eq!(g.blocks, 1);
    }

    #[test]
    fn processor_sharing_stretches_coresident_groups() {
        let mut s = Smx::new(limits());
        s.advance(t(0));
        // Two 8-warp groups → rate 0.5 → 10µs of work takes 20µs.
        s.place(t(0), 1, GridId(0), &desc(256, 10), 1);
        s.place(t(0), 2, GridId(1), &desc(256, 10), 1);
        assert_eq!(s.eta(1), Some(Dur::from_us(20)));
        // After the first finishes, a late group speeds back up.
        s.advance(t(20_000));
        s.take_completed(1).unwrap();
        s.take_completed(2).unwrap();
        assert!(s.is_idle());
    }

    #[test]
    fn rate_change_midway_adjusts_eta() {
        let mut s = Smx::new(limits());
        s.advance(t(0));
        s.place(t(0), 1, GridId(0), &desc(256, 10), 1); // alone: rate 1
        s.advance(t(5_000)); // half done
        s.place(t(5_000), 2, GridId(1), &desc(256, 10), 1); // rate drops to 0.5
                                                            // 5µs of work left at rate 0.5 → 10µs more.
        assert_eq!(s.eta(1), Some(Dur::from_us(10)));
        assert_eq!(s.eta(2), Some(Dur::from_us(20)));
    }

    #[test]
    fn small_warp_groups_share_without_stretch() {
        let mut s = Smx::new(limits());
        s.advance(t(0));
        // Eight 1-warp blocks (needle-style 32-thread blocks) exactly
        // fill the issue capacity; all run at full rate.
        s.place(t(0), 1, GridId(0), &desc(32, 10), 8);
        assert_eq!(s.rate(), 1.0);
        assert_eq!(s.eta(1), Some(Dur::from_us(10)));
    }

    #[test]
    fn eta_unknown_token_is_none() {
        let s = Smx::new(limits());
        assert_eq!(s.eta(99), None);
        let mut s2 = Smx::new(limits());
        assert!(s2.take_completed(1).is_none());
        assert!(s2.evict(1).is_none());
    }

    #[test]
    fn advance_clamps_overshoot() {
        let mut s = Smx::new(limits());
        s.advance(t(0));
        s.place(t(0), 1, GridId(0), &desc(256, 10), 1);
        s.advance(t(50_000)); // way past completion
        let g = s.take_completed(1).unwrap();
        assert_eq!(g.remaining_ns(), 0.0);
    }

    #[test]
    fn group_count_tracks_groups() {
        let mut s = Smx::new(limits());
        s.advance(t(0));
        assert_eq!(s.group_count(), 0);
        s.place(t(0), 1, GridId(0), &desc(32, 1), 2);
        s.place(t(0), 2, GridId(1), &desc(32, 1), 3);
        assert_eq!(s.group_count(), 2);
        assert_eq!(s.groups().map(|g| g.blocks).sum::<u32>(), 5);
    }
}
