//! Shared access counters.
//!
//! Moved here verbatim from `pagestore::stats` so that exactly one type
//! defines hit/miss/access semantics for the whole stack (`pagestore`
//! re-exports it for backward compatibility). These counters are the
//! *oracle* accounting: schedule-invariant and bit-identical across
//! storage backends and thread counts — the metrics registry mirrors
//! them but never replaces them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared counters for the cost metrics the paper reports.
///
/// The dominant metric is `node_accesses` — every logical visit to an R-tree
/// / TAR-tree node during query processing increments it (Section 5: "the
/// performance of the BFS on the TAR-tree is roughly proportional to the
/// number of accessed nodes"). Physical page reads/writes and buffer
/// hits/misses are tracked separately for the disk-resident TIAs.
///
/// Cloning an `AccessStats` clones the `Arc`, so index structures and query
/// processors can share one set of counters.
#[derive(Debug, Clone, Default)]
pub struct AccessStats {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    node_accesses: AtomicU64,
    leaf_node_accesses: AtomicU64,
    page_reads: AtomicU64,
    page_writes: AtomicU64,
    buffer_hits: AtomicU64,
    buffer_misses: AtomicU64,
    buffer_evictions: AtomicU64,
}

/// A point-in-time copy of all counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Logical index node accesses (the paper's primary metric).
    pub node_accesses: u64,
    /// The subset of node accesses that hit leaf nodes (Section 6.3's
    /// analysis estimates leaf accesses only).
    pub leaf_node_accesses: u64,
    /// Physical page reads from the pagestore `Disk`.
    pub page_reads: u64,
    /// Physical page writes to the pagestore `Disk`.
    pub page_writes: u64,
    /// Buffer pool hits.
    pub buffer_hits: u64,
    /// Buffer pool misses (each implies a page read).
    pub buffer_misses: u64,
    /// Buffer pool evictions.
    pub buffer_evictions: u64,
}

impl AccessStats {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one logical node access.
    #[inline]
    pub fn record_node_access(&self) {
        self.inner.node_accesses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one leaf node access (in addition to the plain node access).
    #[inline]
    pub fn record_leaf_access(&self) {
        self.inner.leaf_node_accesses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one physical page read.
    #[inline]
    pub fn record_page_read(&self) {
        self.inner.page_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one physical page write.
    #[inline]
    pub fn record_page_write(&self) {
        self.inner.page_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a buffer pool hit.
    #[inline]
    pub fn record_buffer_hit(&self) {
        self.inner.buffer_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a buffer pool miss.
    #[inline]
    pub fn record_buffer_miss(&self) {
        self.inner.buffer_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a buffer pool eviction.
    #[inline]
    pub fn record_buffer_eviction(&self) {
        self.inner.buffer_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Current logical node access count.
    pub fn node_accesses(&self) -> u64 {
        self.inner.node_accesses.load(Ordering::Relaxed)
    }

    /// Current leaf node access count.
    pub fn leaf_node_accesses(&self) -> u64 {
        self.inner.leaf_node_accesses.load(Ordering::Relaxed)
    }

    /// A snapshot of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            node_accesses: self.inner.node_accesses.load(Ordering::Relaxed),
            leaf_node_accesses: self.inner.leaf_node_accesses.load(Ordering::Relaxed),
            page_reads: self.inner.page_reads.load(Ordering::Relaxed),
            page_writes: self.inner.page_writes.load(Ordering::Relaxed),
            buffer_hits: self.inner.buffer_hits.load(Ordering::Relaxed),
            buffer_misses: self.inner.buffer_misses.load(Ordering::Relaxed),
            buffer_evictions: self.inner.buffer_evictions.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.inner.node_accesses.store(0, Ordering::Relaxed);
        self.inner.leaf_node_accesses.store(0, Ordering::Relaxed);
        self.inner.page_reads.store(0, Ordering::Relaxed);
        self.inner.page_writes.store(0, Ordering::Relaxed);
        self.inner.buffer_hits.store(0, Ordering::Relaxed);
        self.inner.buffer_misses.store(0, Ordering::Relaxed);
        self.inner.buffer_evictions.store(0, Ordering::Relaxed);
    }

    /// Whether two handles share the same underlying counters.
    pub fn same_counters(&self, other: &AccessStats) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl StatsSnapshot {
    /// Counter-wise difference `self - earlier` (for measuring a query).
    pub fn since(self, earlier: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            node_accesses: self.node_accesses - earlier.node_accesses,
            leaf_node_accesses: self.leaf_node_accesses - earlier.leaf_node_accesses,
            page_reads: self.page_reads - earlier.page_reads,
            page_writes: self.page_writes - earlier.page_writes,
            buffer_hits: self.buffer_hits - earlier.buffer_hits,
            buffer_misses: self.buffer_misses - earlier.buffer_misses,
            buffer_evictions: self.buffer_evictions - earlier.buffer_evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = AccessStats::new();
        s.record_node_access();
        s.record_node_access();
        s.record_page_read();
        s.record_buffer_hit();
        s.record_buffer_miss();
        s.record_buffer_eviction();
        s.record_page_write();
        let snap = s.snapshot();
        assert_eq!(snap.node_accesses, 2);
        assert_eq!(snap.page_reads, 1);
        assert_eq!(snap.page_writes, 1);
        assert_eq!(snap.buffer_hits, 1);
        assert_eq!(snap.buffer_misses, 1);
        assert_eq!(snap.buffer_evictions, 1);
    }

    #[test]
    fn clone_shares_counters() {
        let s = AccessStats::new();
        let t = s.clone();
        t.record_node_access();
        assert_eq!(s.node_accesses(), 1);
        assert!(s.same_counters(&t));
        assert!(!s.same_counters(&AccessStats::new()));
    }

    #[test]
    fn reset_and_since() {
        let s = AccessStats::new();
        s.record_node_access();
        let before = s.snapshot();
        s.record_node_access();
        s.record_node_access();
        let delta = s.snapshot().since(before);
        assert_eq!(delta.node_accesses, 2);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn stats_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AccessStats>();
    }
}
