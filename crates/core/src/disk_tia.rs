//! Disk-resident TIAs: an MVBT mirror of every entry's aggregate series.
//!
//! In the paper's setup the R-tree part of the TAR-tree is memory resident
//! while each TIA is a *disk-based multi-version B-tree* with "a maximum of
//! 10 buffer slots" (Sections 4.1, 8). The in-memory [`TarIndex`] keeps its
//! TIA content as plain series (ground truth for maintenance); this module
//! materialises those series into per-entry [`mvbt::MvbtTia`]s on a shared
//! [`pagestore::Disk`], so aggregate computation during query processing
//! performs real buffered page I/O.
//!
//! The mirror is a snapshot: it is valid until the next structural or
//! aggregate change of the index ([`TarIndex`] tracks a content epoch), and
//! must be rebuilt afterwards — mirroring the paper's static-index
//! measurement methodology.

use crate::frontier::SharedBound;
use crate::index::{with_tree, TarIndex};
use crate::observe::{self, QueryScope};
use crate::poi::{KnntaQuery, QueryHit};
use crate::search::bfs_query_nodes;
use crate::storage::{MemNodes, StorageBackend};
use knnta_obs::SpanId;
use mvbt::MvbtTia;
use pagestore::{AccessStats, BufferPoolConfig, Disk, StatsSnapshot};
use rtree::NodeId;
use std::collections::HashMap;
use std::sync::Arc;

/// A disk-resident mirror of every tree entry's TIA.
pub struct DiskTias {
    tias: HashMap<(NodeId, usize), MvbtTia>,
    disk: Arc<Disk>,
    stats: AccessStats,
    built_at: u64,
}

impl DiskTias {
    /// Total pages allocated across all TIAs.
    pub fn page_count(&self) -> usize {
        self.disk.len()
    }

    /// Number of materialised TIAs (one per tree entry).
    pub fn tia_count(&self) -> usize {
        self.tias.len()
    }

    /// I/O statistics of the TIA disk (page reads/writes, buffer
    /// hits/misses).
    pub fn io_snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Resets the I/O statistics.
    pub fn reset_io(&self) {
        self.stats.reset();
    }

    /// Flushes and empties every TIA's buffer pool, so the next queries
    /// measure cold-cache I/O (the paper's disk-resident setting).
    pub fn cool_down(&self) {
        for tia in self.tias.values() {
            tia.clear_buffer();
        }
        self.stats.reset();
    }
}

impl TarIndex {
    /// Materialises every entry's TIA into a multi-version B-tree on a
    /// fresh in-memory disk with `page_size`-byte pages and `buffer_slots`
    /// LRU slots per TIA (the paper's values: 1024 and 10).
    pub fn materialize_disk_tias(&self, page_size: usize, buffer_slots: usize) -> DiskTias {
        self.materialize_disk_tias_with(page_size, BufferPoolConfig::lru(buffer_slots))
    }

    /// [`TarIndex::materialize_disk_tias`] with an explicit buffer
    /// capacity + replacement-policy configuration per TIA.
    pub fn materialize_disk_tias_with(
        &self,
        page_size: usize,
        config: BufferPoolConfig,
    ) -> DiskTias {
        let stats = AccessStats::new();
        let disk = Arc::new(Disk::new(page_size, stats.clone()));
        let mut tias = HashMap::new();
        with_tree!(self, t => {
            for id in t.node_ids() {
                for (idx, e) in t.node(id).entries.iter().enumerate() {
                    let mut tia = MvbtTia::with_config(Arc::clone(&disk), config);
                    tia.load_series(self.grid(), &e.aug);
                    tias.insert((id, idx), tia);
                }
            }
        });
        DiskTias {
            tias,
            disk,
            stats,
            built_at: self.content_epoch,
        }
    }

    /// Answers a kNNTA query with aggregates computed from the disk TIAs
    /// (real buffered page I/O, visible in [`DiskTias::io_snapshot`]).
    /// Results are identical to [`TarIndex::query`].
    ///
    /// # Panics
    ///
    /// Panics if the index changed since `tias` was materialised.
    pub fn query_with_disk_tias(&self, query: &KnntaQuery, tias: &DiskTias) -> Vec<QueryHit> {
        assert_eq!(
            tias.built_at, self.content_epoch,
            "disk TIAs are stale; rematerialise after index changes"
        );
        let ctx = self.ctx(query);
        let scope = QueryScope::begin_query(
            self.obs(),
            self.stats(),
            "disk_tia",
            StorageBackend::InMemory,
            query,
        );
        let parent = scope.as_ref().map_or(SpanId::NONE, QueryScope::span_id);
        let probes_before = scope
            .is_some()
            .then(|| tias.tias.values().map(MvbtTia::probes).sum::<u64>());
        let hits = with_tree!(self, t => {
            let disk_tia = |node, idx, _: &_| {
                let tia = tias.tias.get(&(node, idx));
                (tia.expect("every entry has a mirrored TIA").aggregate_over(ctx.iq), 0)
            };
            let bound = SharedBound::new();
            bfs_query_nodes(&MemNodes(t), &self.meta, &ctx, query.k, &bound, disk_tia, parent)
        });
        if let Some(scope) = scope {
            let probes: u64 = tias.tias.values().map(MvbtTia::probes).sum();
            self.obs()
                .counter(observe::M_TIA_PROBES)
                .add(probes - probes_before.unwrap_or(0));
            scope.finish(hits.len());
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::paper_example;
    use crate::index::{Grouping, IndexConfig};
    use tempora::TimeInterval;

    fn example_index(grouping: Grouping) -> TarIndex {
        let (grid, bounds, pois) = paper_example();
        TarIndex::build(IndexConfig::with_grouping(grouping), grid, bounds, pois)
    }

    #[test]
    fn disk_results_match_memory_results() {
        for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
            let index = example_index(grouping);
            let tias = index.materialize_disk_tias(1024, 10);
            assert!(tias.tia_count() >= index.len());
            for alpha0 in [0.2, 0.5, 0.8] {
                let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
                    .with_k(5)
                    .with_alpha0(alpha0);
                let mem = index.query(&q);
                let dsk = index.query_with_disk_tias(&q, &tias);
                assert_eq!(
                    mem.iter().map(|h| (h.poi, h.aggregate)).collect::<Vec<_>>(),
                    dsk.iter().map(|h| (h.poi, h.aggregate)).collect::<Vec<_>>(),
                    "{grouping} α0={alpha0}"
                );
            }
        }
    }

    #[test]
    fn disk_queries_do_io() {
        let index = example_index(Grouping::TarIntegral);
        let tias = index.materialize_disk_tias(1024, 10);
        tias.reset_io();
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3)).with_k(3);
        let _ = index.query_with_disk_tias(&q, &tias);
        let io = tias.io_snapshot();
        assert!(
            io.buffer_hits + io.buffer_misses > 0,
            "aggregates must be read through the buffer pool"
        );
        assert!(tias.page_count() > 0);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_mirror_rejected() {
        let mut index = example_index(Grouping::TarIntegral);
        let tias = index.materialize_disk_tias(1024, 10);
        index.ingest_epoch(0, &[(tempora::PoiId(0), 3)]);
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3));
        let _ = index.query_with_disk_tias(&q, &tias);
    }
}
