//! The packed immutable TAR-tree serving tier.
//!
//! [`TarIndex::pack`] bulk-loads the index's current contents into a
//! [`PackedTarTree`]: one contiguous little-endian word buffer
//! ([`rtree::PackedTree`], byte layout specified normatively in
//! `docs/FORMAT.md`) holding level-contiguous node boxes, entry targets and
//! inline TIA prefix partial sums. Leaf entries are ordered along the same
//! Hilbert curve the collective batch scheduler uses
//! (`crate::collective::HILBERT_BITS` over the grouping space), so a
//! query's frontier touches runs of adjacent entries.
//!
//! Queries run against the image **zero-copy** through
//! [`crate::StorageBackend::Packed`]: no per-node allocation, no codec
//! round-trip — a node fetch is two index computations into the shared
//! buffer. Answers are bit-identical to the arena and paged backends
//! because leaf entries store the exact projected box bits, the `(epoch,
//! cumulative)` prefix subtraction is exact in `u64`, and internal entries
//! carry a per-epoch **max** merge of their subtree — an admissible
//! aggregate upper bound, hence an admissible score lower bound for the
//! best-first pruning (DESIGN.md §12 gives the argument).
//!
//! The image serialises page-by-page onto a [`pagestore::Disk`]
//! ([`PackedTarTree::save_to_disk`] / [`PackedTarTree::load_from_disk`]),
//! and like [`crate::PagedNodes`] it is a snapshot: querying it after any
//! index mutation panics ("stale") until repacked.

use crate::augmentation::TiaAug;
use crate::collective::HILBERT_BITS;
use crate::hilbert;
use crate::index::{with_tree, Grouping, TarIndex};
use crate::observe::Probe;
use crate::poi::Poi;
use crate::storage::{NodeSource, NodeView};
use pagestore::{Bytes, Disk, PageId};
use rtree::{EntryPayload, GroupingStrategy, NodeId, PackItem, PackedTree, RStarTree};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use tempora::AggregateSeries;

/// A packed immutable serving image of a [`TarIndex`] (format v1, see
/// `docs/FORMAT.md`).
///
/// Build one with [`TarIndex::pack`]; query it through
/// [`crate::StorageBackend::Packed`] via [`TarIndex::query_on`],
/// [`TarIndex::query_parallel_on`] or
/// [`TarIndex::query_batch_collective_on`]. The image is tied to the
/// index's content epoch: after any mutation the next packed query panics
/// until the index is repacked.
pub struct PackedTarTree {
    pub(crate) tree: PackedTree,
    grouping: Grouping,
    built_at: u64,
    /// Node reads served by this image on instrumented paths (relaxed
    /// monotone counter; the disabled-observability path never touches it).
    fetches: AtomicU64,
}

/// Meta-word grouping tags (header `meta0`, see `docs/FORMAT.md`).
fn grouping_tag(g: Grouping) -> u64 {
    match g {
        Grouping::TarIntegral => 0,
        Grouping::IndSpa => 1,
        Grouping::IndAgg => 2,
    }
}

/// Inverse of [`grouping_tag`].
fn tag_grouping(tag: u64) -> Option<Grouping> {
    match tag {
        0 => Some(Grouping::TarIntegral),
        1 => Some(Grouping::IndSpa),
        2 => Some(Grouping::IndAgg),
        _ => None,
    }
}

/// Flattens every leaf entry of the arena tree into a [`PackItem`]: Hilbert
/// rank over the grouping-space center as the sort key, the exact
/// `project2()` box bits, the POI id as the target word, and the entry's
/// aggregate series re-encoded as inclusive prefix records.
fn pack_items<const D: usize, S>(t: &RStarTree<D, Poi, TiaAug, S>) -> Vec<PackItem>
where
    S: GroupingStrategy<D, AggregateSeries>,
{
    // First pass: collect centers raw, tracking the per-axis bounds —
    // `hilbert_key` quantises the *unit cube*, so grouping-space
    // coordinates must be normalised before ranking or the curve order
    // degenerates to clamped-corner ties.
    let mut centers: Vec<[f64; D]> = Vec::with_capacity(t.len());
    let mut raw = Vec::with_capacity(t.len());
    let mut lo = [f64::INFINITY; D];
    let mut hi = [f64::NEG_INFINITY; D];
    for id in t.node_ids() {
        let node = t.node(id);
        if !node.is_leaf() {
            continue;
        }
        for e in &node.entries {
            let EntryPayload::Data(poi) = &e.payload else {
                continue;
            };
            let mut center = [0.0f64; D];
            for d in 0..D {
                center[d] = 0.5 * (e.rect.min[d] + e.rect.max[d]);
                lo[d] = lo[d].min(center[d]);
                hi[d] = hi[d].max(center[d]);
            }
            centers.push(center);
            let r2 = e.rect.project2();
            let mut cum = 0u64;
            let tia = e
                .aug
                .iter()
                .map(|(epoch, v)| {
                    cum += v;
                    (epoch as u64, cum)
                })
                .collect();
            raw.push(([r2.min[0], r2.min[1], r2.max[0], r2.max[1]], poi.id.0 as u64, tia));
        }
    }
    centers
        .iter()
        .zip(raw)
        .map(|(center, (rect, target, tia))| {
            let mut unit = [0.0f64; D];
            for d in 0..D {
                let span = hi[d] - lo[d];
                unit[d] = if span > 0.0 { (center[d] - lo[d]) / span } else { 0.0 };
            }
            PackItem {
                key: hilbert::hilbert_key(unit, HILBERT_BITS),
                rect,
                target,
                tia,
            }
        })
        .collect()
}

/// The internal-entry TIA merge: per-epoch **max** over the children's
/// per-epoch values (decoded from their prefix records), re-encoded as a
/// prefix block. `Σ_epochs max_children v` upper-bounds every child's own
/// range sum, which keeps the packed traversal keys admissible lower bounds
/// on the scores beneath them (DESIGN.md §12).
fn max_merge(children: &[Vec<(u64, u64)>]) -> Vec<(u64, u64)> {
    let mut per_epoch: BTreeMap<u64, u64> = BTreeMap::new();
    for block in children {
        let mut prev = 0u64;
        for &(epoch, cum) in block {
            let v = cum - prev;
            prev = cum;
            let slot = per_epoch.entry(epoch).or_insert(0);
            *slot = (*slot).max(v);
        }
    }
    let mut cum = 0u64;
    per_epoch
        .into_iter()
        .map(|(epoch, v)| {
            cum += v;
            (epoch, cum)
        })
        .collect()
}

/// Entries per packed node (leaves and internal levels alike).
///
/// The serving fanout is deliberately decoupled from the arena tree's
/// `node_size` (a paging knob): a query scores every entry of each node it
/// opens, so the image wants small nodes — full 36-entry Hilbert chunks
/// overlap enough that the saved directory hops don't pay for the extra
/// entries scanned. 16 — the classic flatbush default — measured best
/// across k ∈ {1, 10, 100} on the gowalla workload (`packed` vs
/// `query_latency` bench groups, `BENCH_queries.json`), beating both wider
/// uniform fanouts and small-leaf/wide-internal splits. The fanout is baked
/// into the image at pack time and recorded implicitly by its node
/// directory, so readers never consult this constant.
pub const PACKED_FANOUT: usize = 16;

impl TarIndex {
    /// Packs the index's current contents into an immutable serving image.
    ///
    /// Leaf entries are sorted by Hilbert rank over their grouping-space
    /// position and cut into nodes of [`PACKED_FANOUT`] entries; parents
    /// are built bottom-up over runs of [`PACKED_FANOUT`] children with
    /// per-epoch-max TIA blocks. The resulting [`PackedTarTree`] answers
    /// queries bit-identically to [`TarIndex::query`].
    ///
    /// # Examples
    ///
    /// ```
    /// use knnta_core::{IndexConfig, KnntaQuery, Poi, StorageBackend, TarIndex};
    /// use tempora::{AggregateSeries, EpochGrid, TimeInterval};
    ///
    /// let grid = EpochGrid::fixed_days(1, 3);
    /// let bounds = rtree::Rect::new([0.0, 0.0], [10.0, 10.0]);
    /// let pois = vec![
    ///     (Poi::new(0, 1.0, 1.0), AggregateSeries::from_pairs([(0, 5)])),
    ///     (Poi::new(1, 9.0, 9.0), AggregateSeries::from_pairs([(1, 50)])),
    /// ];
    /// let index = TarIndex::build(IndexConfig::default(), grid, bounds, pois);
    ///
    /// let packed = index.pack();
    /// let q = KnntaQuery::new([1.0, 1.0], TimeInterval::days(0, 3)).with_k(2);
    /// let mem = index.query(&q);
    /// let hits = index.query_on(&q, StorageBackend::Packed(&packed));
    /// assert_eq!(mem.len(), hits.len());
    /// for (a, b) in mem.iter().zip(&hits) {
    ///     assert_eq!((a.poi, a.score.to_bits()), (b.poi, b.score.to_bits()));
    /// }
    /// ```
    pub fn pack(&self) -> PackedTarTree {
        let items = with_tree!(self, t => pack_items(t));
        let tree = PackedTree::pack(
            PACKED_FANOUT,
            PACKED_FANOUT,
            items,
            [grouping_tag(self.grouping()), self.content_epoch],
            max_merge,
        );
        PackedTarTree {
            tree,
            grouping: self.grouping(),
            built_at: self.content_epoch,
            fetches: AtomicU64::new(0),
        }
    }
}

impl PackedTarTree {
    /// The grouping of the packed index.
    pub fn grouping(&self) -> Grouping {
        self.grouping
    }

    /// Number of packed nodes (all levels).
    pub fn node_count(&self) -> usize {
        self.tree.node_count()
    }

    /// Number of packed data items.
    pub fn item_count(&self) -> usize {
        self.tree.item_count()
    }

    /// Number of tree levels (leaves up to the root).
    pub fn level_count(&self) -> usize {
        self.tree.level_count()
    }

    /// Whether the image holds no data items.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Size of the image in bytes (header + all sections).
    pub fn byte_len(&self) -> usize {
        self.tree.words().len() * 8
    }

    /// Node reads this image has served on instrumented query paths
    /// (monotone; the disabled-observability path does not count).
    pub fn fetches(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }

    /// The serialised image: the exact word buffer as little-endian bytes
    /// (`docs/FORMAT.md`). `to_bytes → from_bytes → to_bytes` is
    /// byte-identical.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.tree.to_bytes()
    }

    /// Deserialises an image produced by [`PackedTarTree::to_bytes`],
    /// validating magic, version, section layout and directory monotonicity.
    pub fn from_bytes(bytes: &[u8]) -> Result<PackedTarTree, String> {
        let tree = PackedTree::from_bytes(bytes)?;
        let [tag, built_at] = tree.meta();
        let grouping =
            tag_grouping(tag).ok_or_else(|| format!("unknown grouping tag {tag} in meta0"))?;
        Ok(PackedTarTree {
            tree,
            grouping,
            built_at,
            fetches: AtomicU64::new(0),
        })
    }

    /// Writes the image onto `disk` page by page (the last page may be
    /// short) and returns the page handle for [`PackedTarTree::load_from_disk`].
    pub fn save_to_disk(&self, disk: &Disk) -> PackedPages {
        let bytes = self.to_bytes();
        let mut pages = Vec::new();
        for chunk in bytes.chunks(disk.page_size().max(1)) {
            let page = disk.allocate();
            disk.write(page, Bytes::from(chunk.to_vec()));
            pages.push(page);
        }
        PackedPages {
            pages,
            bytes: bytes.len(),
        }
    }

    /// Reads an image previously written with [`PackedTarTree::save_to_disk`].
    pub fn load_from_disk(disk: &Disk, pages: &PackedPages) -> Result<PackedTarTree, String> {
        let mut buf = Vec::with_capacity(pages.bytes);
        for &p in &pages.pages {
            let b = disk.read(p);
            buf.extend_from_slice(b.as_slice());
        }
        buf.truncate(pages.bytes);
        PackedTarTree::from_bytes(&buf)
    }

    pub(crate) fn check_fresh(&self, content_epoch: u64) {
        assert_eq!(
            self.built_at, content_epoch,
            "packed tree is stale; repack after index changes"
        );
    }
}

impl std::fmt::Debug for PackedTarTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedTarTree")
            .field("grouping", &self.grouping)
            .field("nodes", &self.node_count())
            .field("items", &self.item_count())
            .field("levels", &self.level_count())
            .field("bytes", &self.byte_len())
            .finish()
    }
}

/// The on-disk location of a saved packed image: its pages in order plus the
/// exact byte length (the final page may be short).
#[derive(Debug, Clone)]
pub struct PackedPages {
    pages: Vec<PageId>,
    bytes: usize,
}

impl PackedPages {
    /// Number of pages the image occupies.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Exact byte length of the serialised image.
    pub fn byte_len(&self) -> usize {
        self.bytes
    }
}

/// [`NodeSource`] adapter over a packed image: node ids are packed node
/// indices, and `with_node` hands out a [`NodeView::Packed`] borrowing the
/// shared word buffer — no allocation, no decode.
pub(crate) struct PackedSource<'a>(pub &'a PackedTarTree);

impl<const D: usize> NodeSource<D> for PackedSource<'_> {
    fn root(&self) -> NodeId {
        NodeId(self.0.tree.root() as u32)
    }

    fn is_empty(&self) -> bool {
        self.0.tree.is_empty()
    }

    fn with_node<P: Probe, R>(
        &self,
        id: NodeId,
        probe: &mut P,
        f: impl FnOnce(NodeView<'_, D>, &mut P) -> R,
    ) -> R {
        // A packed fetch is two index computations into a shared buffer:
        // counted when observed, never timed.
        if P::ON {
            self.0.fetches.fetch_add(1, Ordering::Relaxed);
        }
        f(
            NodeView::Packed {
                tree: &self.0.tree,
                node: self.0.tree.node(id.0 as usize),
            },
            probe,
        )
    }

    fn kind(&self) -> &'static str {
        "packed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::paper_example;
    use crate::index::IndexConfig;
    use crate::poi::KnntaQuery;
    use crate::storage::StorageBackend;
    use pagestore::AccessStats;
    use tempora::{PoiId, TimeInterval};

    fn example_index(grouping: Grouping) -> TarIndex {
        let (grid, bounds, pois) = paper_example();
        TarIndex::build(IndexConfig::with_grouping(grouping), grid, bounds, pois)
    }

    fn scratch_disk(page_size: usize) -> Disk {
        Disk::new(page_size, AccessStats::new())
    }

    #[test]
    fn packed_results_are_bit_identical_for_every_grouping() {
        for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
            let index = example_index(grouping);
            let packed = index.pack();
            assert_eq!(packed.item_count(), index.len());
            for alpha0 in [0.2, 0.5, 0.8] {
                for k in [1, 3, 12] {
                    let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
                        .with_k(k)
                        .with_alpha0(alpha0);
                    let mem = index.query(&q);
                    let got = index.query_on(&q, StorageBackend::Packed(&packed));
                    assert_eq!(mem.len(), got.len(), "{grouping} k={k}");
                    for (a, b) in mem.iter().zip(&got) {
                        assert_eq!(a.poi, b.poi, "{grouping} k={k}");
                        assert_eq!(a.score.to_bits(), b.score.to_bits(), "{grouping} k={k}");
                        assert_eq!(a.aggregate, b.aggregate, "{grouping} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn packed_parallel_matches_sequential() {
        let index = example_index(Grouping::TarIntegral);
        let packed = index.pack();
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3)).with_k(5);
        let seq = index.query_on(&q, StorageBackend::Packed(&packed));
        for threads in [1, 2, 4] {
            let par = index.query_parallel_on(&q, threads, StorageBackend::Packed(&packed));
            assert_eq!(seq.len(), par.len(), "threads={threads}");
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.poi, b.poi, "threads={threads}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn packed_batch_collective_matches_individual() {
        let index = example_index(Grouping::TarIntegral);
        let packed = index.pack();
        let batch = vec![
            KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3)).with_k(3),
            KnntaQuery::new([9.4, 2.1], TimeInterval::days(1, 3)).with_k(2),
            KnntaQuery::new([1.0, 9.0], TimeInterval::days(0, 1)).with_k(5),
        ];
        let individual: Vec<_> = batch
            .iter()
            .map(|q| index.query_on(q, StorageBackend::Packed(&packed)))
            .collect();
        let collective = index.query_batch_collective_on(
            &batch,
            &crate::collective::BatchOptions::default(),
            StorageBackend::Packed(&packed),
        );
        for (i, (xs, ys)) in collective.iter().zip(&individual).enumerate() {
            assert_eq!(xs.len(), ys.len(), "query {i}");
            for (x, y) in xs.iter().zip(ys) {
                assert_eq!(x.poi, y.poi, "query {i}");
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "query {i}");
            }
        }
    }

    #[test]
    fn save_load_roundtrip_is_byte_identical() {
        let index = example_index(Grouping::TarIntegral);
        let packed = index.pack();
        for page_size in [64, 256, 1 << 20] {
            let disk = scratch_disk(page_size);
            let pages = packed.save_to_disk(&disk);
            assert_eq!(pages.byte_len(), packed.byte_len());
            assert_eq!(
                pages.page_count(),
                packed.byte_len().div_ceil(page_size.max(1))
            );
            let loaded = PackedTarTree::load_from_disk(&disk, &pages).expect("load");
            assert_eq!(loaded.to_bytes(), packed.to_bytes(), "page_size={page_size}");
            assert_eq!(loaded.grouping(), packed.grouping());

            let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3)).with_k(4);
            let a = index.query_on(&q, StorageBackend::Packed(&packed));
            let b = index.query_on(&q, StorageBackend::Packed(&loaded));
            assert_eq!(
                a.iter().map(|h| (h.poi, h.score.to_bits())).collect::<Vec<_>>(),
                b.iter().map(|h| (h.poi, h.score.to_bits())).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn from_bytes_rejects_unknown_grouping_tag() {
        let index = example_index(Grouping::TarIntegral);
        let mut bytes = index.pack().to_bytes();
        // meta0 is header word 14 (see docs/FORMAT.md).
        bytes[14 * 8..15 * 8].copy_from_slice(&99u64.to_le_bytes());
        let err = PackedTarTree::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("grouping tag"), "{err}");
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_packed_tree_rejected() {
        let mut index = example_index(Grouping::TarIntegral);
        let packed = index.pack();
        index.ingest_epoch(0, &[(PoiId(0), 3)]);
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3));
        let _ = index.query_on(&q, StorageBackend::Packed(&packed));
    }

    #[test]
    fn empty_index_packs_and_answers_empty() {
        let (grid, bounds, _) = paper_example();
        let index = TarIndex::new(IndexConfig::default(), grid, bounds);
        let packed = index.pack();
        assert!(packed.is_empty());
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3)).with_k(3);
        assert!(index.query_on(&q, StorageBackend::Packed(&packed)).is_empty());
    }

    #[test]
    fn max_merge_upper_bounds_children() {
        let a = vec![(0u64, 2u64), (2, 5)]; // values: e0=2, e2=3
        let b = vec![(1u64, 4u64), (2, 5)]; // values: e1=4, e2=1
        let merged = max_merge(&[a, b]);
        // per-epoch max: e0=2, e1=4, e2=3 → prefix 2, 6, 9
        assert_eq!(merged, vec![(0, 2), (1, 6), (2, 9)]);
    }
}
