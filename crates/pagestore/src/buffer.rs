//! The LRU buffer pool over a [`Disk`].

use crate::disk::{Disk, PageId};
use crate::lru::LruList;
use knnta_obs::AccessStats;
use knnta_util::codec::Bytes;
use knnta_util::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The slot count of the paged node tier's buffer pool
/// (`TarIndex::materialize_paged_nodes`).
///
/// It stays only as that tier's argument type and goes with it; every pool
/// is LRU, so the capacity is all there is to configure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferPoolConfig {
    /// Number of page slots; `0` disables buffering (pass-through).
    pub capacity: usize,
}

impl BufferPoolConfig {
    /// A pool of `capacity` LRU slots.
    pub fn lru(capacity: usize) -> Self {
        BufferPoolConfig { capacity }
    }
}

impl Default for BufferPoolConfig {
    /// The paper's setup: 10 buffer slots.
    fn default() -> Self {
        BufferPoolConfig::lru(10)
    }
}

/// A fixed-capacity LRU page buffer in front of a shared [`Disk`].
///
/// The paper assigns each TIA "a maximum of 10 buffer slots"; the collective
/// processing experiment (Section 8.4) then disables buffering for the
/// individual-processing baseline — both configurations are expressible here
/// (`capacity == 0` means unbuffered pass-through).
///
/// Writes go through the buffer and are flushed lazily on eviction
/// (write-back); [`BufferPool::flush`] forces everything out. Reads on a miss
/// fetch from disk and may evict the least-recently-used page.
#[derive(Debug)]
pub struct BufferPool {
    disk: Arc<Disk>,
    stats: AccessStats,
    state: Mutex<PoolState>,
    capacity: usize,
}

#[derive(Debug)]
struct PoolState {
    /// page -> slot
    map: HashMap<PageId, usize>,
    /// slot -> (page, payload, dirty)
    slots: Vec<Option<(PageId, Bytes, bool)>>,
    free: Vec<usize>,
    /// Occupied slots, most- to least-recently used.
    lru: LruList,
}

impl BufferPool {
    /// An LRU pool of `capacity` page slots over `disk`.
    ///
    /// `capacity == 0` disables buffering: every read/write goes straight to
    /// the disk (and still counts as a miss, so hit-rate metrics stay
    /// meaningful).
    pub fn new(disk: Arc<Disk>, capacity: usize) -> Self {
        let stats = disk.stats().clone();
        BufferPool {
            disk,
            stats,
            state: Mutex::new(PoolState {
                map: HashMap::with_capacity(capacity),
                slots: (0..capacity).map(|_| None).collect(),
                free: (0..capacity).rev().collect(),
                lru: LruList::new(capacity),
            }),
            capacity,
        }
    }

    /// The pool's slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    /// Reads `page` through the buffer.
    pub fn read(&self, page: PageId) -> Bytes {
        if self.capacity == 0 {
            self.stats.record_buffer_miss();
            return self.disk.read(page);
        }
        let mut st = self.state.lock();
        if let Some(&slot) = st.map.get(&page) {
            self.stats.record_buffer_hit();
            st.lru.touch(slot);
            let (_, data, _) = st.slots[slot].as_ref().expect("mapped slot occupied");
            return data.clone();
        }
        self.stats.record_buffer_miss();
        let data = self.disk.read(page);
        self.install(&mut st, page, data.clone(), false);
        data
    }

    /// Writes `page` through the buffer (write-back).
    pub fn write(&self, page: PageId, data: Bytes) {
        assert!(
            data.len() <= self.disk.page_size(),
            "payload of {} bytes exceeds page size {}",
            data.len(),
            self.disk.page_size()
        );
        if self.capacity == 0 {
            self.stats.record_buffer_miss();
            self.disk.write(page, data);
            return;
        }
        let mut st = self.state.lock();
        if let Some(&slot) = st.map.get(&page) {
            self.stats.record_buffer_hit();
            st.lru.touch(slot);
            st.slots[slot] = Some((page, data, true));
            return;
        }
        self.stats.record_buffer_miss();
        self.install(&mut st, page, data, true);
    }

    /// Allocates a fresh page on the underlying disk.
    pub fn allocate(&self) -> PageId {
        self.disk.allocate()
    }

    /// Flushes all dirty pages to disk (the buffer stays warm).
    pub fn flush(&self) {
        let mut st = self.state.lock();
        for (page, data, dirty) in st.slots.iter_mut().flatten() {
            if *dirty {
                self.disk.write(*page, data.clone());
                *dirty = false;
            }
        }
    }

    /// Drops every cached page, flushing dirty ones first.
    pub fn clear(&self) {
        let mut st = self.state.lock();
        for slot in 0..st.slots.len() {
            if let Some((page, data, dirty)) = st.slots[slot].take() {
                if dirty {
                    self.disk.write(page, data);
                }
                st.free.push(slot);
            }
        }
        st.map.clear();
        while st.lru.pop_back().is_some() {}
    }

    /// Installs `page` in a slot, evicting the least-recently-used page if
    /// the pool is full.
    fn install(&self, st: &mut PoolState, page: PageId, data: Bytes, dirty: bool) {
        let slot = if let Some(slot) = st.free.pop() {
            slot
        } else {
            let victim = st.lru.pop_back().expect("full pool has a victim");
            let (vp, vdata, vdirty) = st.slots[victim].take().expect("victim slot occupied");
            st.map.remove(&vp);
            if vdirty {
                self.disk.write(vp, vdata);
            }
            self.stats.record_buffer_eviction();
            victim
        };
        st.slots[slot] = Some((page, data, dirty));
        st.map.insert(page, slot);
        st.lru.push_front(slot);
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        // Persist dirty pages so a pool can be torn down and rebuilt over the
        // same disk (tests and TIA reopen paths rely on this).
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: usize) -> (BufferPool, AccessStats) {
        let stats = AccessStats::new();
        let disk = Arc::new(Disk::new(64, stats.clone()));
        (BufferPool::new(disk, cap), stats)
    }

    #[test]
    fn read_caches_page() {
        let (pool, stats) = pool(2);
        let p = pool.allocate();
        pool.disk().write(p, Bytes::from_static(b"v"));
        stats.reset();
        assert_eq!(pool.read(p), Bytes::from_static(b"v"));
        assert_eq!(pool.read(p), Bytes::from_static(b"v"));
        let s = stats.snapshot();
        assert_eq!(s.page_reads, 1, "second read must hit the buffer");
        assert_eq!(s.buffer_hits, 1);
        assert_eq!(s.buffer_misses, 1);
    }

    #[test]
    fn lru_eviction_writes_back_dirty() {
        let (pool, stats) = pool(2);
        let a = pool.allocate();
        let b = pool.allocate();
        let c = pool.allocate();
        pool.write(a, Bytes::from_static(b"a"));
        pool.write(b, Bytes::from_static(b"b"));
        // Touch a so b becomes LRU.
        let _ = pool.read(a);
        pool.write(c, Bytes::from_static(b"c")); // evicts b
        assert_eq!(stats.snapshot().buffer_evictions, 1);
        // b must have been written back to disk.
        assert_eq!(pool.disk().read(b), Bytes::from_static(b"b"));
        // a is still cached.
        stats.reset();
        let _ = pool.read(a);
        assert_eq!(stats.snapshot().page_reads, 0);
    }

    #[test]
    fn write_hit_updates_cached_value() {
        let (pool, _) = pool(2);
        let p = pool.allocate();
        pool.write(p, Bytes::from_static(b"one"));
        pool.write(p, Bytes::from_static(b"two"));
        assert_eq!(pool.read(p), Bytes::from_static(b"two"));
        pool.flush();
        assert_eq!(pool.disk().read(p), Bytes::from_static(b"two"));
    }

    #[test]
    fn zero_capacity_is_passthrough() {
        let (pool, stats) = pool(0);
        let p = pool.allocate();
        pool.write(p, Bytes::from_static(b"x"));
        let _ = pool.read(p);
        let _ = pool.read(p);
        let s = stats.snapshot();
        assert_eq!(s.page_reads, 2);
        assert_eq!(s.page_writes, 1);
        assert_eq!(s.buffer_hits, 0);
        assert_eq!(s.buffer_misses, 3);
    }

    #[test]
    fn drop_flushes_dirty_pages() {
        let stats = AccessStats::new();
        let disk = Arc::new(Disk::new(64, stats.clone()));
        let p;
        {
            let pool = BufferPool::new(Arc::clone(&disk), 4);
            p = pool.allocate();
            pool.write(p, Bytes::from_static(b"persisted"));
        }
        assert_eq!(disk.read(p), Bytes::from_static(b"persisted"));
    }

    #[test]
    fn clear_persists_and_empties() {
        let (pool, stats) = pool(4);
        let p = pool.allocate();
        pool.write(p, Bytes::from_static(b"z"));
        pool.clear();
        stats.reset();
        assert_eq!(pool.read(p), Bytes::from_static(b"z"));
        assert_eq!(stats.snapshot().page_reads, 1, "cleared pool must re-read");
    }

    #[test]
    fn thrashing_workload_round_trips_and_accounts_evictions() {
        let (pool, stats) = pool(3);
        let ids: Vec<PageId> = (0..16).map(|_| pool.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            pool.write(id, Bytes::from(vec![i as u8; 8]));
        }
        for _ in 0..3 {
            for (i, &id) in ids.iter().enumerate() {
                assert_eq!(pool.read(id), Bytes::from(vec![i as u8; 8]));
            }
        }
        let s = stats.snapshot();
        assert!(s.buffer_evictions > 0, "workload must evict");
        assert_eq!(
            s.buffer_evictions,
            s.buffer_misses - pool.capacity() as u64,
            "every miss beyond capacity installs over a victim"
        );
    }

    #[test]
    fn many_pages_thrash_correctly() {
        let (pool, _) = pool(3);
        let ids: Vec<PageId> = (0..20).map(|_| pool.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            pool.write(id, Bytes::from(vec![i as u8; 8]));
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(pool.read(id), Bytes::from(vec![i as u8; 8]));
        }
    }
}
