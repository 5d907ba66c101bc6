//! Property tests for the LRU buffer pool.
//!
//! Two guarantees pinned here, both under the deterministic RNG workload of
//! the in-repo property harness (`KNNTA_PROP_SEED` reproduces failures):
//!
//! 1. **Eviction accounting.** The eviction counter equals misses minus the
//!    slots filled for free — every miss beyond capacity must displace a
//!    victim.
//! 2. **LRU shadow model.** Against a recency-ordered model of the resident
//!    pages, every read and write hits exactly when the model holds the page,
//!    reads return the last write, and a flush persists every last write.

use knnta_util::prop::check;
use knnta_util::rng::Rng;
use pagestore::{AccessStats, BufferPool, Bytes, Disk, PageId};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

#[test]
fn evictions_equal_misses_minus_capacity() {
    check("evictions_equal_misses_minus_capacity", 48, |g| {
        let capacity = g.usize_in(1..9);
        let stats = AccessStats::new();
        let disk = Arc::new(Disk::new(32, stats.clone()));
        let pool = BufferPool::new(Arc::clone(&disk), capacity);
        let pages: Vec<PageId> = (0..capacity + g.usize_in(1..25))
            .map(|i| {
                let p = disk.allocate();
                disk.write(p, Bytes::from(vec![i as u8; 4]));
                p
            })
            .collect();
        stats.reset();
        let ops = g.usize_in(capacity + 1..301);
        for _ in 0..ops {
            let idx: usize = g.rng().gen_range(0..pages.len());
            let _ = pool.read(pages[idx]);
        }
        let s = stats.snapshot();
        assert_eq!(
            s.buffer_evictions,
            s.buffer_misses - s.buffer_misses.min(capacity as u64),
            "evictions must equal misses beyond the free slots \
             (misses={}, capacity={capacity})",
            s.buffer_misses
        );
    });
}

/// Recency-ordered resident pages (front = most recently used); returns
/// whether `page` was resident, then makes it the most recent.
fn shadow_access(lru: &mut VecDeque<PageId>, capacity: usize, page: PageId) -> bool {
    let hit = match lru.iter().position(|&p| p == page) {
        Some(pos) => {
            lru.remove(pos);
            true
        }
        None => false,
    };
    if capacity > 0 {
        lru.push_front(page);
        lru.truncate(capacity);
    }
    hit
}

#[test]
fn pool_matches_lru_shadow_model() {
    check("pool_matches_lru_shadow_model", 32, |g| {
        let capacity = g.usize_in(0..7);
        let stats = AccessStats::new();
        let disk = Arc::new(Disk::new(16, stats.clone()));
        let pool = BufferPool::new(Arc::clone(&disk), capacity);
        let pages: Vec<PageId> = (0..g.usize_in(1..21)).map(|_| pool.allocate()).collect();
        let mut written: HashMap<PageId, u8> = HashMap::new();
        let mut lru: VecDeque<PageId> = VecDeque::new();
        let ops = g.usize_in(1..201);
        for i in 0..ops {
            let idx: usize = g.rng().gen_range(0..pages.len());
            let page = pages[idx];
            let write = g.rng().gen_bool(0.5);
            if !write && !written.contains_key(&page) {
                continue;
            }
            let hits_before = stats.snapshot().buffer_hits;
            if write {
                let v = i as u8;
                pool.write(page, Bytes::from(vec![v; 4]));
                written.insert(page, v);
            } else {
                assert_eq!(
                    pool.read(page),
                    Bytes::from(vec![written[&page]; 4]),
                    "op {i}: read must return the last write"
                );
            }
            let hit = stats.snapshot().buffer_hits > hits_before;
            assert_eq!(
                hit,
                shadow_access(&mut lru, capacity, page),
                "op {i}: pool and LRU model disagree on residency (capacity={capacity})"
            );
        }
        pool.flush();
        for (&page, &v) in &written {
            assert_eq!(
                disk.read(page),
                Bytes::from(vec![v; 4]),
                "flush must persist the last write"
            );
        }
    });
}
