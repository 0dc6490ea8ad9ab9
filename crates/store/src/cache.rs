//! The materializer's write-back block cache: real buffers behind the
//! simulator's own index.
//!
//! [`BlockCache`] pairs a [`SetAssocCache`] — the simulator's residency
//! and recency machinery, `capacity/ways` independent LRU sets — with a
//! map of real data buffers, one per resident block. The index picks
//! every victim, so the write pattern follows the same sharded-LRU
//! geometry the simulated caches use.
//!
//! [`fill`](BlockCache::fill)ed dirty buffers age in memory until
//! eviction or an explicit [`drain_dirty`](BlockCache::drain_dirty).
//! The cache itself never touches the disk — evictions hand the victim
//! buffer (with its dirty bit) back to the caller, which owns the flush
//! discipline (data before superblock; see `materialize`).

use flo_sim::cache::SetAssocCache;
use flo_sim::BlockAddr;
use std::collections::HashMap;

/// One resident block's real bytes plus its write-back state.
#[derive(Clone, Debug)]
struct Buffer {
    data: Vec<u8>,
    dirty: bool,
}

/// A block evicted from the cache: the caller must write it back iff
/// `dirty` is set.
#[derive(Clone, Debug)]
pub struct Eviction {
    /// Which block was evicted.
    pub block: BlockAddr,
    /// The evicted buffer.
    pub data: Vec<u8>,
    /// Whether the buffer holds unwritten modifications.
    pub dirty: bool,
}

/// Eviction and write-back counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Blocks evicted to make room.
    pub evictions: u64,
    /// Dirty buffers handed back for write-back (evictions + drains).
    pub writebacks: u64,
    /// Most dirty buffers ever resident at once.
    pub dirty_high_water: u64,
}

/// A fixed-capacity write-back block cache over real buffers.
#[derive(Clone, Debug)]
pub struct BlockCache {
    index: SetAssocCache,
    buffers: HashMap<BlockAddr, Buffer>,
    dirty: u64,
    counters: CacheCounters,
}

impl BlockCache {
    /// A cache of `capacity` blocks with `ways`-way sharded LRU sets —
    /// the same geometry rule the simulator's caches use.
    pub fn new(capacity: usize, ways: usize) -> BlockCache {
        let index = SetAssocCache::new(capacity, ways);
        let cap = index.capacity();
        BlockCache {
            index,
            buffers: HashMap::with_capacity(cap + 1),
            dirty: 0,
            counters: CacheCounters::default(),
        }
    }

    /// Install `data` for a block (or overwrite a resident block's
    /// buffer). Returns the victim the caller must handle — write it
    /// back iff `Eviction::dirty`.
    pub fn fill(&mut self, block: BlockAddr, data: Vec<u8>, dirty: bool) -> Option<Eviction> {
        let evicted = if self.buffers.contains_key(&block) {
            // Overwrite in place: promote, replace bytes, update dirty.
            self.index.insert(block);
            let buf = self.buffers.get_mut(&block).expect("resident");
            match (buf.dirty, dirty) {
                (false, true) => self.dirty += 1,
                (true, false) => self.dirty -= 1,
                _ => {}
            }
            buf.data = data;
            buf.dirty = dirty;
            None
        } else {
            let victim = self.index.insert(block);
            if dirty {
                self.dirty += 1;
            }
            self.buffers.insert(block, Buffer { data, dirty });
            victim.map(|v| {
                self.counters.evictions += 1;
                let buf = self.buffers.remove(&v).expect("victim had a buffer");
                if buf.dirty {
                    self.dirty -= 1;
                    self.counters.writebacks += 1;
                }
                Eviction {
                    block: v,
                    data: buf.data,
                    dirty: buf.dirty,
                }
            })
        };
        self.counters.dirty_high_water = self.counters.dirty_high_water.max(self.dirty);
        evicted
    }

    /// Hand back every dirty buffer (cloned; blocks stay resident and
    /// become clean). Sorted by block address so the flush order — and
    /// therefore the on-disk write pattern — is deterministic.
    pub fn drain_dirty(&mut self) -> Vec<(BlockAddr, Vec<u8>)> {
        let mut out: Vec<(BlockAddr, Vec<u8>)> = self
            .buffers
            .iter_mut()
            .filter(|(_, b)| b.dirty)
            .map(|(blk, b)| {
                b.dirty = false;
                (*blk, b.data.clone())
            })
            .collect();
        out.sort_by_key(|(blk, _)| *blk);
        self.counters.writebacks += out.len() as u64;
        self.dirty = 0;
        out
    }

    /// Eviction/write-back/dirty counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::new(0, i)
    }

    fn bytes(i: u64) -> Vec<u8> {
        vec![i as u8; 16]
    }

    #[test]
    fn eviction_returns_victim_buffer() {
        // 1-set cache of 2 ways: third insert evicts the LRU victim.
        let mut c = BlockCache::new(2, 2);
        c.fill(b(0), bytes(0), false);
        c.fill(b(8), bytes(8), true);
        let ev = c
            .fill(b(16), bytes(16), false)
            .expect("full set must evict");
        assert_eq!(ev.block, b(0));
        assert_eq!(ev.data, bytes(0));
        assert!(!ev.dirty);
        assert_eq!(c.counters().evictions, 1);
        assert_eq!(c.counters().writebacks, 0, "clean victim: no write-back");
        // Next eviction takes the dirty block.
        let ev = c.fill(b(24), bytes(24), false).expect("evicts again");
        assert_eq!(ev.block, b(8));
        assert!(ev.dirty);
        assert_eq!(c.counters().writebacks, 1);
        assert!(
            c.drain_dirty().is_empty(),
            "the dirty victim left the cache"
        );
    }

    #[test]
    fn dirty_tracking_and_high_water() {
        let mut c = BlockCache::new(8, 2);
        c.fill(b(0), bytes(0), true);
        c.fill(b(1), bytes(1), true);
        c.fill(b(2), bytes(2), false);
        c.fill(b(2), bytes(2), true); // a write hit dirties in place
        assert_eq!(c.counters().dirty_high_water, 3);
        let drained = c.drain_dirty();
        assert_eq!(drained.len(), 3);
        assert_eq!(c.counters().writebacks, 3);
        assert!(c.drain_dirty().is_empty());
        // Drained blocks stay resident, clean and keep their bytes: b(4)
        // takes set 0's free way, so b(8) must evict b(0) (the LRU way).
        assert!(c.fill(b(4), bytes(4), false).is_none());
        let ev = c.fill(b(8), bytes(8), false).expect("set 0 is full");
        assert_eq!(ev.block, b(0));
        assert_eq!(ev.data, bytes(0));
        assert!(!ev.dirty);
        assert_eq!(c.counters().dirty_high_water, 3, "high water persists");
        // Drain order is deterministic (sorted by address).
        let blocks: Vec<_> = drained.iter().map(|(blk, _)| *blk).collect();
        assert_eq!(blocks, vec![b(0), b(1), b(2)]);
    }

    #[test]
    fn overwrite_in_place_updates_dirty_state() {
        let mut c = BlockCache::new(4, 4);
        c.fill(b(1), bytes(1), true);
        assert!(c.fill(b(1), bytes(2), false).is_none(), "no self-eviction");
        assert!(c.drain_dirty().is_empty(), "clean overwrite clears dirty");
        assert_eq!(c.counters().writebacks, 0);
        // The overwrite replaced the bytes and kept one resident copy:
        // three more blocks fit the 4-way set without an eviction.
        c.fill(b(1), bytes(3), true);
        for i in 2..5 {
            assert!(c.fill(b(i), bytes(i), false).is_none());
        }
        assert_eq!(c.drain_dirty(), vec![(b(1), bytes(3))]);
    }
}
