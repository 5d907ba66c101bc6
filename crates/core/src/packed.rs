//! The packed immutable TAR-tree serving tier.
//!
//! A [`PackedTarTree`] is one contiguous little-endian word buffer
//! ([`rtree::PackedTree`], byte layout specified normatively in
//! `docs/FORMAT.md`) holding level-contiguous node boxes, entry targets and
//! inline TIA prefix partial sums. It is bulk-packed **straight from the
//! POIs**: an entry's grouping coordinates `(x̂, ŷ, 1 − λ̂p / max λ̂p)` are a
//! closed-form function of its POI, and leaf entries are ordered by
//! `(Hilbert key, POI id)` over exactly those coordinates (the curve the
//! collective batch scheduler uses, `crate::collective::HILBERT_BITS`), so
//! the image is a pure function of the POI set — no R\*-tree is built and
//! input order does not influence a byte. [`FrozenIndex::build`] is that
//! builder plus the small immutable metadata a query execution reads;
//! [`TarIndex::pack`] runs the same packer over the arena tree's leaf
//! entries.
//!
//! Queries run against the image **zero-copy** (a [`crate::PlanBackend::Packed`]
//! plan): no per-node allocation, no codec
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
//! and like [`crate::PagedNodes`] it is a snapshot: querying it through a
//! [`TarIndex`] that has mutated since panics ("stale") until repacked.

use crate::collective::{BatchOrder, HILBERT_BITS};
use crate::hilbert;
use crate::index::{z_of, Grouping, IndexConfig, IndexMeta, TarIndex};
use crate::observe::Probe;
use crate::poi::{KnntaQuery, Poi};
use crate::storage::{EntryTarget, NodeSource, NodeView};
use costmodel::IndexStats;
use knnta_obs::Obs;
use pagestore::{AccessStats, Bytes, Disk, PageId};
use rtree::{NodeId, PackItem, PackedTree, Rect};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use tempora::{AggregateSeries, EpochGrid, PoiId};

/// A packed immutable serving image of a POI set (format v1, see
/// `docs/FORMAT.md`).
///
/// Build one with [`FrozenIndex::build`] (straight from the POIs) or
/// [`TarIndex::pack`] (from an existing arena tree; same bytes); query it
/// through [`crate::Executor`] ([`crate::Executor::with_packed`]). An image
/// attached to a [`TarIndex`]'s executor is tied to that index's content
/// epoch: after any mutation the next packed query panics until the index is
/// repacked.
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

/// Hilbert ranks of grouping-space centres, after normalising each axis to
/// the unit interval over the centres' own bounding box — `hilbert_key`
/// quantises the *unit cube*, so unnormalised coordinates would all clamp
/// to one corner and the curve order would degenerate to ties.
fn hilbert_keys<const D: usize>(centers: &[[f64; D]]) -> Vec<u64> {
    let mut lo = [f64::INFINITY; D];
    let mut hi = [f64::NEG_INFINITY; D];
    for center in centers {
        for d in 0..D {
            lo[d] = lo[d].min(center[d]);
            hi[d] = hi[d].max(center[d]);
        }
    }
    centers
        .iter()
        .map(|center| {
            let mut unit = [0.0f64; D];
            for d in 0..D {
                let span = hi[d] - lo[d];
                unit[d] = if span > 0.0 { (center[d] - lo[d]) / span } else { 0.0 };
            }
            hilbert::hilbert_key(unit, HILBERT_BITS)
        })
        .collect()
}

/// The one packer: bulk-packs `(POI, series)` pairs into a serving image.
///
/// Per POI, in closed form: the normalised position `p̂`, the point box
/// `[p̂, p̂]`, the Hilbert rank of its grouping-space centre — `(p̂, z)` with
/// `z = 1 − λ̂p / max λ̂p` over *these* POIs for the TAR grouping, `p̂` alone
/// for IND-spa / IND-agg — the POI id as the target word, and the series'
/// inclusive prefix sums as the TIA block. [`PackedTree::pack`] then orders
/// by `(key, id)`, so `pois` may arrive in any order.
fn pack_pois(
    grouping: Grouping,
    meta: &IndexMeta,
    content_epoch: u64,
    pois: &[(Poi, &AggregateSeries)],
) -> PackedTarTree {
    let positions: Vec<[f64; 2]> = pois.iter().map(|(poi, _)| meta.norm(poi.pos)).collect();
    let keys = match grouping {
        Grouping::TarIntegral => {
            let m = meta.grid.len();
            let rates: Vec<f64> = pois.iter().map(|(_, series)| series.mean_rate(m)).collect();
            let max_rate = rates.iter().copied().fold(0.0, f64::max);
            let centers: Vec<[f64; 3]> = positions
                .iter()
                .zip(&rates)
                .map(|(p, &rate)| [p[0], p[1], z_of(rate, max_rate)])
                .collect();
            hilbert_keys(&centers)
        }
        Grouping::IndSpa | Grouping::IndAgg => hilbert_keys(&positions),
    };
    let items = keys
        .into_iter()
        .zip(&positions)
        .zip(pois)
        .map(|((key, p), (poi, series))| {
            let mut cum = 0u64;
            PackItem {
                key,
                rect: [p[0], p[1], p[0], p[1]],
                target: poi.id.0 as u64,
                tia: series
                    .iter()
                    .map(|(epoch, v)| {
                        cum += v;
                        (epoch as u64, cum)
                    })
                    .collect(),
            }
        })
        .collect();
    let tree = PackedTree::pack(
        PACKED_FANOUT,
        PACKED_FANOUT,
        items,
        [grouping_tag(grouping), content_epoch],
        max_merge,
    );
    PackedTarTree {
        tree,
        grouping,
        built_at: content_epoch,
        fetches: AtomicU64::new(0),
    }
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
    /// Only the leaf entries' POIs and series are read — the image is the
    /// one [`FrozenIndex::build`] gives for the same POIs (with this index's
    /// content epoch in `meta1`), whatever the tree's shape.
    ///
    /// # Examples
    ///
    /// ```
    /// use knnta_core::{Executor, IndexConfig, KnntaQuery, Poi, PlanBackend, TarIndex};
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
    /// let mut exec = Executor::new(&index).with_packed(&packed);
    /// let mut plan = exec.plan(&q);
    /// plan.backend = PlanBackend::Packed;
    /// let hits = exec.execute(&q, &plan);
    /// assert_eq!(mem.len(), hits.len());
    /// for (a, b) in mem.iter().zip(&hits) {
    ///     assert_eq!((a.poi, a.score.to_bits()), (b.poi, b.score.to_bits()));
    /// }
    /// ```
    pub fn pack(&self) -> PackedTarTree {
        pack_pois(
            self.grouping(),
            &self.meta,
            self.content_epoch,
            &self.leaf_entries(),
        )
    }
}

/// An arena-free index: the packed serving image of a POI set plus the small
/// immutable metadata a query execution reads — query space (grid, bounds,
/// distance scale), root-max series, access counters, observability handle,
/// content epoch and the planner's [`IndexStats`] — bulk-built straight from
/// the POIs. No R\*-tree ever exists; [`crate::Executor::frozen`] runs on it.
///
/// The image is byte-identical to `TarIndex::build(config, grid, bounds,
/// pois).pack()` for the same POIs in any order (`tests/direct_pack.rs`).
///
/// ```
/// use knnta_core::{Executor, FrozenIndex, IndexConfig, KnntaQuery, Poi, TarIndex};
/// use tempora::{AggregateSeries, EpochGrid, TimeInterval};
///
/// let grid = EpochGrid::fixed_days(1, 3);
/// let bounds = rtree::Rect::new([0.0, 0.0], [10.0, 10.0]);
/// let pois = vec![
///     (Poi::new(0, 1.0, 1.0), AggregateSeries::from_pairs([(0, 5)])),
///     (Poi::new(1, 9.0, 9.0), AggregateSeries::from_pairs([(1, 50)])),
/// ];
/// let frozen = FrozenIndex::build(IndexConfig::default(), grid.clone(), bounds, &pois);
///
/// let index = TarIndex::build(IndexConfig::default(), grid, bounds, pois);
/// assert_eq!(frozen.packed().to_bytes(), index.pack().to_bytes());
/// let q = KnntaQuery::new([1.0, 1.0], TimeInterval::days(0, 3)).with_k(2);
/// assert_eq!(Executor::frozen(&frozen).query(&q), index.query(&q));
/// ```
pub struct FrozenIndex {
    pub(crate) meta: IndexMeta,
    pub(crate) packed: PackedTarTree,
    pub(crate) root_max: AggregateSeries,
    /// Planner inputs, backend availability left `false` (the executor
    /// fills it in).
    pub(crate) plan_stats: IndexStats,
}

impl FrozenIndex {
    /// Bulk-builds the image and metadata from `pois` (series borrowed, in
    /// any order). `config` supplies the grouping and the node size the
    /// planner's fanout is derived from; the image's own fanout is
    /// [`PACKED_FANOUT`]. The content epoch (header `meta1`) is the POI
    /// count, as after [`TarIndex::build`].
    ///
    /// # Panics
    ///
    /// Panics on a duplicate POI id (`duplicate insert of {id}`, as
    /// [`TarIndex::build`] does) and on a non-finite position.
    pub fn build(
        config: IndexConfig,
        grid: EpochGrid,
        bounds: Rect<2>,
        pois: &[(Poi, AggregateSeries)],
    ) -> FrozenIndex {
        // Ascending id: the duplicate check, and a canonical order for the
        // planner's aggregate sample (its fit sums floats in sample order).
        let mut by_id: Vec<(Poi, &AggregateSeries)> =
            pois.iter().map(|(poi, series)| (*poi, series)).collect();
        by_id.sort_by_key(|(poi, _)| poi.id);
        for pair in by_id.windows(2) {
            assert!(pair[0].0.id != pair[1].0.id, "duplicate insert of {}", pair[1].0.id);
        }
        for (poi, _) in &by_id {
            assert!(
                poi.pos[0].is_finite() && poi.pos[1].is_finite(),
                "POI {} has a non-finite position {:?}",
                poi.id,
                poi.pos
            );
        }
        let meta = IndexMeta::new(grid, bounds, AccessStats::new());
        let packed = pack_pois(config.grouping, &meta, by_id.len() as u64, &by_id);
        let plan_stats = crate::plan::index_stats_of(
            config,
            &meta.bounds,
            packed.node_count(),
            packed.level_count(),
            &by_id,
        );
        FrozenIndex {
            root_max: AggregateSeries::max_of(by_id.iter().map(|(_, series)| *series)),
            meta,
            packed,
            plan_stats,
        }
    }

    /// Freezes an arena index as it stands: its packed image, a copy of its
    /// metadata (sharing its counters and observability handle), its
    /// root-max and planner inputs.
    pub(crate) fn of(index: &TarIndex) -> FrozenIndex {
        FrozenIndex {
            meta: index.meta.clone(),
            packed: index.pack(),
            root_max: index.root_max_series(),
            plan_stats: index.index_stats(),
        }
    }

    /// The packed serving image.
    pub fn packed(&self) -> &PackedTarTree {
        &self.packed
    }

    /// The access counters queries over this index record into.
    pub fn stats(&self) -> &AccessStats {
        &self.meta.stats
    }

    /// Attaches an observability handle (see [`TarIndex::set_obs`]).
    pub fn set_obs(&mut self, obs: Obs) {
        self.meta.obs = obs;
    }

    /// [`TarIndex::batch_order`] — a function of the query space alone, so
    /// it needs no tree.
    pub fn batch_order(&self, queries: &[KnntaQuery], order: BatchOrder) -> Vec<usize> {
        self.meta.batch_order(queries, order)
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

    /// The content epoch the image was packed at (header `meta1`).
    pub(crate) fn built_at(&self) -> u64 {
        self.built_at
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
/// indices, and `with_node` hands out a [`PackedView`] borrowing the shared
/// word buffer — no allocation, no decode.
#[derive(Clone, Copy)]
pub(crate) struct PackedSource<'a>(pub &'a PackedTarTree);

impl<'a> PackedSource<'a> {
    /// Node `id` as a view into the buffer. A packed fetch is two index
    /// computations into a shared buffer: counted when observed, never
    /// timed.
    pub(crate) fn fetch<P: Probe>(&self, id: NodeId) -> PackedView<'a> {
        if P::ON {
            self.0.fetches.fetch_add(1, Ordering::Relaxed);
        }
        let node = self.0.tree.node(id.0 as usize);
        PackedView {
            tree: &self.0.tree,
            leaf: node.is_leaf(),
            entries: node.entries(),
        }
    }
}

impl<'a, const D: usize> NodeSource<D> for PackedSource<'a> {
    type View = PackedView<'a>;

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
        f: impl FnOnce(&Self::View, &mut P) -> R,
    ) -> R {
        f(&self.fetch::<P>(id), probe)
    }
}

/// One node of a packed image, read zero-copy out of its word buffer: entry
/// `i` is the buffer's entry `entries.start + i`.
pub(crate) struct PackedView<'a> {
    /// The owning buffer.
    tree: &'a PackedTree,
    /// Whether the targets are items (leaf) or child nodes.
    leaf: bool,
    /// The node's absolute entry indices.
    pub entries: Range<usize>,
}

impl NodeView for PackedView<'_> {
    fn is_leaf(&self) -> bool {
        self.leaf
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn rect2(&self, i: usize) -> Rect<2> {
        let r = self.tree.entry_rect(self.entries.start + i);
        Rect::new([r[0], r[1]], [r[2], r[3]])
    }

    fn target(&self, i: usize) -> EntryTarget {
        let target = self.tree.entry_target(self.entries.start + i) as u32;
        if self.leaf {
            EntryTarget::Data(PoiId(target))
        } else {
            EntryTarget::Child(NodeId(target))
        }
    }

    fn sum_range(&self, i: usize, range: Range<usize>) -> (u64, u64) {
        (self.tree.entry_tia(self.entries.start + i).sum_range(range), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::paper_example;
    use crate::index::IndexConfig;
    use crate::collective::BatchOptions;
    use crate::plan::{run_batch, run_query};
    use crate::poi::{KnntaQuery, QueryHit};
    use crate::storage::StorageBackend;
    use pagestore::AccessStats;
    use tempora::{PoiId, TimeInterval};

    fn example_index(grouping: Grouping) -> TarIndex {
        let (grid, bounds, pois) = paper_example();
        TarIndex::build(IndexConfig::with_grouping(grouping), grid, bounds, pois)
    }

    fn query_packed(index: &TarIndex, q: &KnntaQuery, packed: &PackedTarTree) -> Vec<QueryHit> {
        run_query(&index.exec_env(), StorageBackend::Packed(packed), q)
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
                    let got = query_packed(&index, &q, &packed);
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
            .map(|q| query_packed(&index, q, &packed))
            .collect();
        let collective = run_batch(
            &index.exec_env(),
            StorageBackend::Packed(&packed),
            &batch,
            &BatchOptions {
                order: BatchOrder::Hilbert,
                tile: 64,
            },
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
            let a = query_packed(&index, &q, &packed);
            let b = query_packed(&index, &q, &loaded);
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
        let _ = query_packed(&index, &q, &packed);
    }

    #[test]
    fn empty_index_packs_and_answers_empty() {
        let (grid, bounds, _) = paper_example();
        let index = TarIndex::new(IndexConfig::default(), grid, bounds);
        let packed = index.pack();
        assert!(packed.is_empty());
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3)).with_k(3);
        assert!(query_packed(&index, &q, &packed).is_empty());
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
