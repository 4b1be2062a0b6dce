//! Device memory management.
//!
//! A first-fit allocator with free-list coalescing over the device's
//! global memory, mirroring what `cudaMalloc`/`cudaFree` provide. The
//! simulator uses it at startup to place every application's device
//! footprint (so capacity failures surface exactly as CUDA would report
//! `cudaErrorMemoryAllocation`), and it is available to downstream
//! users who want to model allocation churn or fragmentation.

use crate::types::AppId;
use std::collections::BTreeMap;

/// A device pointer: byte offset into global memory.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DevicePtr(pub u64);

/// Allocation failure reasons.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocError {
    /// Not enough contiguous free memory (CUDA's
    /// `cudaErrorMemoryAllocation`).
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Largest contiguous free block available.
        largest_free: u64,
    },
    /// Zero-byte allocations are rejected (as `cudaMalloc` may).
    ZeroSize,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory {
                requested,
                largest_free,
            } => write!(
                f,
                "out of device memory: requested {requested} B, largest free block {largest_free} B"
            ),
            AllocError::ZeroSize => write!(f, "zero-size allocation"),
        }
    }
}

impl std::error::Error for AllocError {}

/// CUDA allocation granularity: `cudaMalloc` returns 256-byte-aligned
/// pointers.
pub const ALIGN: u64 = 256;

fn align_up(x: u64) -> u64 {
    x.div_ceil(ALIGN) * ALIGN
}

/// First-fit device memory pool with coalescing.
#[derive(Clone, Debug)]
pub struct MemoryPool {
    capacity: u64,
    /// Free blocks: offset → length. Invariant: non-overlapping,
    /// non-adjacent (adjacent blocks are coalesced), aligned.
    free: BTreeMap<u64, u64>,
    /// Live allocations: offset → (length, owner).
    live: BTreeMap<u64, (u64, Option<AppId>)>,
}

impl MemoryPool {
    /// A pool over `capacity` bytes of device memory.
    pub fn new(capacity: u64) -> Self {
        let mut free = BTreeMap::new();
        if capacity > 0 {
            free.insert(0, capacity);
        }
        MemoryPool {
            capacity,
            free,
            live: BTreeMap::new(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated (including alignment padding).
    pub fn used(&self) -> u64 {
        self.live.values().map(|&(len, _)| len).sum()
    }

    /// Bytes free in total (may be fragmented).
    pub fn free_total(&self) -> u64 {
        self.capacity - self.used()
    }

    /// Largest single free block.
    pub fn largest_free(&self) -> u64 {
        self.free.values().copied().max().unwrap_or(0)
    }

    /// Number of live allocations.
    pub fn allocation_count(&self) -> usize {
        self.live.len()
    }

    /// Allocate `bytes` (rounded up to [`ALIGN`]), optionally tagged
    /// with an owning application.
    pub fn alloc(&mut self, bytes: u64, owner: Option<AppId>) -> Result<DevicePtr, AllocError> {
        if bytes == 0 {
            return Err(AllocError::ZeroSize);
        }
        let len = align_up(bytes);
        // First fit: lowest-offset free block that is large enough.
        let slot = self
            .free
            .iter()
            .find(|&(_, &flen)| flen >= len)
            .map(|(&off, &flen)| (off, flen));
        let Some((off, flen)) = slot else {
            return Err(AllocError::OutOfMemory {
                requested: bytes,
                largest_free: self.largest_free(),
            });
        };
        self.free.remove(&off);
        if flen > len {
            self.free.insert(off + len, flen - len);
        }
        self.live.insert(off, (len, owner));
        Ok(DevicePtr(off))
    }

    /// Free a previous allocation. Returns the freed length (panics on
    /// an invalid pointer — a double free is a program bug, exactly as
    /// in CUDA).
    pub fn free(&mut self, ptr: DevicePtr) -> u64 {
        let (len, _) = self
            .live
            .remove(&ptr.0)
            .unwrap_or_else(|| panic!("invalid or double free at offset {}", ptr.0));
        // Insert and coalesce with neighbours.
        let mut off = ptr.0;
        let mut end = ptr.0 + len;
        if let Some((&poff, &plen)) = self.free.range(..off).next_back() {
            if poff + plen == off {
                self.free.remove(&poff);
                off = poff;
            }
        }
        if let Some(&nlen) = self.free.get(&end) {
            self.free.remove(&end);
            end += nlen;
        }
        self.free.insert(off, end - off);
        len
    }

    /// Free every allocation owned by `owner` (application teardown),
    /// returning the number of blocks released.
    pub fn free_owner(&mut self, owner: AppId) -> usize {
        let ptrs: Vec<u64> = self
            .live
            .iter()
            .filter(|(_, &(_, o))| o == Some(owner))
            .map(|(&off, _)| off)
            .collect();
        let n = ptrs.len();
        for p in ptrs {
            self.free(DevicePtr(p));
        }
        n
    }

    /// Internal consistency check (used by tests): free and live blocks
    /// tile the address space without overlap, and free blocks are
    /// coalesced.
    pub fn check_invariants(&self) {
        let mut regions: Vec<(u64, u64, bool)> = Vec::new();
        for (&off, &len) in &self.free {
            regions.push((off, len, true));
        }
        for (&off, &(len, _)) in &self.live {
            regions.push((off, len, false));
        }
        regions.sort_unstable();
        let mut cursor = 0;
        let mut prev_free = false;
        for (off, len, is_free) in regions {
            assert_eq!(off, cursor, "gap or overlap at offset {off}");
            assert!(len > 0, "zero-length region at {off}");
            assert!(
                !(is_free && prev_free),
                "uncoalesced adjacent free blocks at {off}"
            );
            cursor = off + len;
            prev_free = is_free;
        }
        assert_eq!(cursor, self.capacity, "regions do not cover capacity");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_first_fit() {
        let mut p = MemoryPool::new(1 << 20);
        let a = p.alloc(100, None).unwrap();
        let b = p.alloc(100, None).unwrap();
        assert_eq!(a, DevicePtr(0));
        assert_eq!(b, DevicePtr(256), "aligned to 256B");
        p.check_invariants();
    }

    #[test]
    fn zero_alloc_rejected() {
        let mut p = MemoryPool::new(1024);
        assert_eq!(p.alloc(0, None), Err(AllocError::ZeroSize));
    }

    #[test]
    fn oom_reports_largest_block() {
        let mut p = MemoryPool::new(1024);
        p.alloc(512, None).unwrap();
        match p.alloc(1024, None) {
            Err(AllocError::OutOfMemory { largest_free, .. }) => {
                assert_eq!(largest_free, 512);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn free_coalesces_both_sides() {
        // Exactly three blocks fill the pool, so freeing the outer two
        // leaves two disjoint 1024-byte holes around b.
        let mut p = MemoryPool::new(3072);
        let a = p.alloc(1024, None).unwrap();
        let b = p.alloc(1024, None).unwrap();
        let c = p.alloc(1024, None).unwrap();
        p.free(a);
        p.free(c);
        assert_eq!(p.largest_free(), 1024, "fragmented around b");
        p.free(b);
        assert_eq!(p.largest_free(), 3072, "fully coalesced");
        assert_eq!(p.allocation_count(), 0);
        p.check_invariants();
    }

    #[test]
    fn first_fit_reuses_freed_hole() {
        let mut p = MemoryPool::new(4096);
        let a = p.alloc(1024, None).unwrap();
        let _b = p.alloc(1024, None).unwrap();
        p.free(a);
        let c = p.alloc(512, None).unwrap();
        assert_eq!(c, DevicePtr(0), "hole at 0 reused first");
        p.check_invariants();
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut p = MemoryPool::new(1024);
        let a = p.alloc(128, None).unwrap();
        p.free(a);
        p.free(a);
    }

    #[test]
    fn free_owner_releases_all() {
        let mut p = MemoryPool::new(1 << 20);
        let app0 = AppId(0);
        let app1 = AppId(1);
        p.alloc(1000, Some(app0)).unwrap();
        p.alloc(2000, Some(app0)).unwrap();
        p.alloc(3000, Some(app1)).unwrap();
        assert_eq!(p.free_owner(app0), 2);
        assert_eq!(p.allocation_count(), 1);
        p.check_invariants();
    }

    #[test]
    fn fragmentation_can_fail_despite_total_space() {
        let mut p = MemoryPool::new(3 * 256);
        let a = p.alloc(256, None).unwrap();
        let b = p.alloc(256, None).unwrap();
        let _c = p.alloc(256, None).unwrap();
        p.free(a);
        p.free(b); // coalesces into 512 at 0
        assert!(p.alloc(512, None).is_ok(), "coalesced hole fits");
        p.check_invariants();
    }

    #[test]
    fn used_and_free_account() {
        let mut p = MemoryPool::new(10_240);
        let a = p.alloc(100, None).unwrap(); // 256 used
        p.alloc(300, None).unwrap(); // 512 used
        assert_eq!(p.used(), 256 + 512);
        assert_eq!(p.free_total(), 10_240 - 768);
        p.free(a);
        assert_eq!(p.used(), 512);
    }
}
