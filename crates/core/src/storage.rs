//! Pluggable node storage: one [`NodeSource`] abstraction over the in-memory
//! arena, a paged snapshot of the tree, the packed serving image and the
//! packed image under a live snapshot's delta overlay ([`OverlayNodes`]).
//!
//! The paper keeps the R-tree memory resident and only *counts* node
//! accesses; this module makes the other end of that spectrum real. A
//! [`PagedNodes`] snapshot serialises every TAR-tree node onto
//! [`pagestore::Disk`] pages (via the in-repo codec, bit-exact for floats)
//! and answers node reads through an LRU buffer pool, so the
//! best-first search can run against genuinely paged storage. The search code itself is backend-agnostic: it goes
//! through the crate-private [`NodeSource`] abstraction, and the answers are
//! **bit-identical** across backends because the bytes of every rect,
//! position and aggregate round-trip exactly — the differential oracle in
//! `tests/oracle_equivalence.rs` pins this down.
//!
//! Logical node-access accounting is backend-independent (recorded in
//! [`TarIndex::stats`] either way); the paged backend *additionally* counts
//! physical page I/O and buffer hits/misses in its own counters
//! ([`PagedNodes::io_snapshot`]).

use crate::augmentation::TiaAug;
use crate::index::{Grouping, TarIndex, TreeImpl};
use crate::live::{ColumnSpan, DeltaColumns};
use crate::observe::Probe;
use crate::packed::{PackedSource, PackedTarTree, PackedView};
use crate::poi::Poi;
use pagestore::{BufferPoolConfig, Bytes, BytesMut, StatsSnapshot};
use rtree::{
    Entry, EntryPayload, GroupingStrategy, Node, NodeCodec, NodeId, PagedNodeStore, RStarTree, Rect,
};
use std::ops::Range;
use tempora::{AggregateSeries, PoiId};

/// Where an entry of a [`NodeView`] points: a data item or a child node.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EntryTarget {
    /// Leaf entry: the POI.
    Data(PoiId),
    /// Internal entry: the child node.
    Child(NodeId),
}

/// One fetched tree node, in exactly the shape the searches consume: entry
/// `i`'s 2-D spatial box (bit-identical to `rect.project2()` of the arena
/// entry — the packed format stores those projected bits verbatim), its
/// target, and its aggregate. Each backend implements it on its own node
/// type, so the kernel compiles per backend with no per-entry dispatch.
pub(crate) trait NodeView {
    /// Whether this node is a leaf.
    fn is_leaf(&self) -> bool;
    /// The number of entries.
    fn len(&self) -> usize;
    /// Entry `i`'s box projected to the two spatial dimensions.
    fn rect2(&self, i: usize) -> Rect<2>;
    /// What entry `i` points at.
    fn target(&self, i: usize) -> EntryTarget;
    /// Entry `i`'s temporal aggregate `g(p, Iq)` over the query's
    /// contained-epoch range — equal on every backend — and the number of
    /// stored epoch records the lookup scanned (a prefix block answers with
    /// two binary searches and scans none).
    fn sum_range(&self, i: usize, range: Range<usize>) -> (u64, u64);
}

/// An arena node — in memory, or decoded from a paged snapshot.
impl<const D: usize> NodeView for Node<D, Poi, AggregateSeries> {
    fn is_leaf(&self) -> bool {
        Node::is_leaf(self)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn rect2(&self, i: usize) -> Rect<2> {
        self.entries[i].rect.project2()
    }

    fn target(&self, i: usize) -> EntryTarget {
        match &self.entries[i].payload {
            EntryPayload::Data(poi) => EntryTarget::Data(poi.id),
            EntryPayload::Child(c) => EntryTarget::Child(*c),
        }
    }

    fn sum_range(&self, i: usize, range: Range<usize>) -> (u64, u64) {
        self.entries[i].aug.sum_range_counted(range)
    }
}

/// A source of tree nodes for the best-first searches: the in-memory arena
/// ([`MemNodes`]), a paged snapshot ([`PagedNodeStore`]), a packed tree
/// ([`PackedSource`]) or a packed tree under a live overlay
/// ([`OverlayNodes`]).
///
/// Each source hands out its own [`NodeSource::View`], borrowed rather than
/// returned because the paged implementation decodes into a temporary (and
/// the packed ones borrow from their buffer).
pub(crate) trait NodeSource<const D: usize> {
    /// The node type this source hands out.
    type View: NodeView;
    /// Whether a fetch is a buffered page read + decode, whose time the
    /// traced sequential search records as a paged fetch.
    const PAGED: bool = false;
    /// The root node id.
    fn root(&self) -> NodeId;
    /// Whether the tree holds no data items.
    fn is_empty(&self) -> bool;
    /// Applies `f` to node `id` (no logical-access counting here — the
    /// engines account, once per expanded node or physical fetch). The
    /// probe is handed on to `f`; a source whose fetch does real work
    /// charges it to the probe first (the paged store's buffered read +
    /// decode is its I/O time).
    fn with_node<P: Probe, R>(
        &self,
        id: NodeId,
        probe: &mut P,
        f: impl FnOnce(&Self::View, &mut P) -> R,
    ) -> R;
}

/// The in-memory arena as a [`NodeSource`].
pub(crate) struct MemNodes<'a, const D: usize, S>(pub &'a RStarTree<D, Poi, TiaAug, S>)
where
    S: GroupingStrategy<D, AggregateSeries>;

impl<const D: usize, S> NodeSource<D> for MemNodes<'_, D, S>
where
    S: GroupingStrategy<D, AggregateSeries>,
{
    type View = Node<D, Poi, AggregateSeries>;

    fn root(&self) -> NodeId {
        self.0.root_id()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn with_node<P: Probe, R>(
        &self,
        id: NodeId,
        probe: &mut P,
        f: impl FnOnce(&Self::View, &mut P) -> R,
    ) -> R {
        f(self.0.node(id), probe)
    }
}

/// A packed image with a frozen delta overlay stacked on top — the live
/// snapshot read path. Leaf entries gain their POI's exact sealed delta; an
/// internal entry gains the per-epoch max delta of the POIs under the node
/// it points at (admissible, and the merged tree's own bound wherever the
/// base holds nothing in the delta's epochs); everything else — tree shape,
/// rects, positions — passes through untouched. The image is never mutated,
/// so overlay readers share it freely with merged-index readers.
#[derive(Clone, Copy)]
pub(crate) struct OverlayNodes<'a> {
    /// The base image.
    pub packed: PackedSource<'a>,
    /// The sealed deltas as cumulative per-slot and per-node columns.
    pub deltas: &'a DeltaColumns,
    /// Indexed by leaf entry of the image: the slot of its POI.
    pub entry_slot: &'a [u32],
    /// The columns the query's epoch range covers: a source is built for
    /// one query, so an entry's delta is two column lookups.
    pub span: ColumnSpan,
}

impl<'a> NodeSource<2> for OverlayNodes<'a> {
    type View = OverlaidView<'a>;

    fn root(&self) -> NodeId {
        NodeSource::<2>::root(&self.packed)
    }

    fn is_empty(&self) -> bool {
        NodeSource::<2>::is_empty(&self.packed)
    }

    fn with_node<P: Probe, R>(
        &self,
        id: NodeId,
        probe: &mut P,
        f: impl FnOnce(&Self::View, &mut P) -> R,
    ) -> R {
        let view = OverlaidView {
            node: self.packed.fetch::<P>(id),
            overlay: *self,
        };
        f(&view, probe)
    }
}

/// A packed node with the frozen delta overlay stacked on its entries.
pub(crate) struct OverlaidView<'a> {
    /// The base image's node.
    node: PackedView<'a>,
    /// The sealed deltas as this query reads them.
    overlay: OverlayNodes<'a>,
}

impl NodeView for OverlaidView<'_> {
    fn is_leaf(&self) -> bool {
        self.node.is_leaf()
    }

    fn len(&self) -> usize {
        self.node.len()
    }

    fn rect2(&self, i: usize) -> Rect<2> {
        self.node.rect2(i)
    }

    fn target(&self, i: usize) -> EntryTarget {
        self.node.target(i)
    }

    /// The base block plus the entry's sealed delta over the query's epochs
    /// — exact in `u64`, so overlay reads stay bit-identical to a merged
    /// index.
    fn sum_range(&self, i: usize, range: Range<usize>) -> (u64, u64) {
        let (base, _) = self.node.sum_range(i, range);
        let (deltas, span) = (self.overlay.deltas, self.overlay.span);
        let delta = match self.node.target(i) {
            // Leaf entries get their POI's exact sealed delta, so leaf
            // aggregates equal the merged index's bit for bit.
            EntryTarget::Data(_) => {
                deltas.poi_sum(self.overlay.entry_slot[self.node.entries.start + i], span)
            }
            // Internal entries get the per-epoch max delta beneath their
            // child (Property 1 applied to the delta): for every POI p
            // below, `b_p + δ_p ≤ B_c + max δ`, so the bound stays
            // admissible and best-first pruning exact.
            EntryTarget::Child(c) => deltas.node_sum(c.0, span),
        };
        (base + delta, 0)
    }
}

/// Byte codec for TAR-tree nodes (`Node<D, Poi, AggregateSeries>`).
///
/// Layout (all little-endian): `level:u32, count:u32`, then per entry
/// `min[D]:f64, max[D]:f64, series_len:u32, (epoch:u32, value:u64)*,
/// tag:u8` with `tag 0 → child:u32` and `tag 1 → poi_id:u32, pos:2×f64`.
/// Floats travel as raw bits, so decoding reproduces every coordinate and
/// score input bit for bit.
pub(crate) struct TarNodeCodec;

impl<const D: usize> NodeCodec<D, Poi, AggregateSeries> for TarNodeCodec {
    fn encode(&self, node: &Node<D, Poi, AggregateSeries>, buf: &mut BytesMut) {
        buf.put_u32(node.level);
        buf.put_u32(node.entries.len() as u32);
        for e in &node.entries {
            for d in 0..D {
                buf.put_f64(e.rect.min[d]);
            }
            for d in 0..D {
                buf.put_f64(e.rect.max[d]);
            }
            buf.put_u32(e.aug.len() as u32);
            for (epoch, value) in e.aug.iter() {
                buf.put_u32(epoch);
                buf.put_u64(value);
            }
            match &e.payload {
                EntryPayload::Child(c) => {
                    buf.put_u8(0);
                    buf.put_u32(c.0);
                }
                EntryPayload::Data(poi) => {
                    buf.put_u8(1);
                    buf.put_u32(poi.id.0);
                    buf.put_f64(poi.pos[0]);
                    buf.put_f64(poi.pos[1]);
                }
            }
        }
    }

    fn decode(&self, buf: &mut Bytes) -> Node<D, Poi, AggregateSeries> {
        let level = buf.get_u32();
        let count = buf.get_u32() as usize;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let mut min = [0.0; D];
            let mut max = [0.0; D];
            for v in min.iter_mut() {
                *v = buf.get_f64();
            }
            for v in max.iter_mut() {
                *v = buf.get_f64();
            }
            let series_len = buf.get_u32() as usize;
            let aug = AggregateSeries::from_pairs(
                (0..series_len).map(|_| (buf.get_u32(), buf.get_u64())),
            );
            let payload = match buf.get_u8() {
                0 => EntryPayload::Child(NodeId(buf.get_u32())),
                _ => {
                    let id = PoiId(buf.get_u32());
                    let pos = [buf.get_f64(), buf.get_f64()];
                    EntryPayload::Data(Poi { id, pos })
                }
            };
            entries.push(Entry {
                rect: Rect::new(min, max),
                aug,
                payload,
            });
        }
        Node { level, entries }
    }
}

impl<const D: usize> NodeSource<D> for PagedNodeStore<D, Poi, AggregateSeries, TarNodeCodec> {
    type View = Node<D, Poi, AggregateSeries>;
    const PAGED: bool = true;

    fn root(&self) -> NodeId {
        PagedNodeStore::root(self)
    }

    fn is_empty(&self) -> bool {
        PagedNodeStore::is_empty(self)
    }

    fn with_node<P: Probe, R>(
        &self,
        id: NodeId,
        probe: &mut P,
        f: impl FnOnce(&Self::View, &mut P) -> R,
    ) -> R {
        let node = probe.io(|| self.read_node(id));
        f(&node, probe)
    }
}

/// The concrete paged store behind a [`PagedNodes`], by grouping dimension.
pub(crate) enum PagedStoreImpl {
    D3(PagedNodeStore<3, Poi, AggregateSeries, TarNodeCodec>),
    D2(PagedNodeStore<2, Poi, AggregateSeries, TarNodeCodec>),
}

/// A paged snapshot of a [`TarIndex`]'s tree nodes.
///
/// Like [`crate::DiskTias`], the snapshot is valid until the next structural
/// or aggregate change of the index; querying through a stale snapshot
/// panics. Build one with [`TarIndex::materialize_paged_nodes`] and attach it
/// with [`crate::Executor::with_paged`].
pub struct PagedNodes {
    pub(crate) store: PagedStoreImpl,
    grouping: Grouping,
    built_at: u64,
}

impl PagedNodes {
    /// The grouping of the snapshotted index.
    pub fn grouping(&self) -> Grouping {
        self.grouping
    }

    /// The buffer pool's slot count.
    pub fn buffer_slots(&self) -> usize {
        match &self.store {
            PagedStoreImpl::D3(s) => s.pool().capacity(),
            PagedStoreImpl::D2(s) => s.pool().capacity(),
        }
    }

    /// Number of snapshotted nodes.
    pub fn node_count(&self) -> usize {
        match &self.store {
            PagedStoreImpl::D3(s) => s.node_count(),
            PagedStoreImpl::D2(s) => s.node_count(),
        }
    }

    /// Total pages backing the snapshot.
    pub fn page_count(&self) -> usize {
        match &self.store {
            PagedStoreImpl::D3(s) => s.page_count(),
            PagedStoreImpl::D2(s) => s.page_count(),
        }
    }

    /// Physical I/O and buffer statistics of the node disk.
    pub fn io_snapshot(&self) -> StatsSnapshot {
        match &self.store {
            PagedStoreImpl::D3(s) => s.pool().disk().stats().snapshot(),
            PagedStoreImpl::D2(s) => s.pool().disk().stats().snapshot(),
        }
    }

    /// Resets the I/O statistics.
    pub fn reset_io(&self) {
        match &self.store {
            PagedStoreImpl::D3(s) => s.pool().disk().stats().reset(),
            PagedStoreImpl::D2(s) => s.pool().disk().stats().reset(),
        }
    }

    /// Empties the buffer pool and resets I/O counters, so the next queries
    /// measure cold-cache behaviour.
    pub fn cool_down(&self) {
        match &self.store {
            PagedStoreImpl::D3(s) => s.cool_down(),
            PagedStoreImpl::D2(s) => s.cool_down(),
        }
    }

    pub(crate) fn check_fresh(&self, content_epoch: u64) {
        assert_eq!(
            self.built_at, content_epoch,
            "paged nodes are stale; rematerialise after index changes"
        );
    }
}

impl std::fmt::Debug for PagedNodes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedNodes")
            .field("grouping", &self.grouping)
            .field("nodes", &self.node_count())
            .field("pages", &self.page_count())
            .field("buffer_slots", &self.buffer_slots())
            .finish()
    }
}

/// Which node storage an execution runs against — what a
/// [`costmodel::PlanBackend`] resolves to once the executor has looked up
/// the attached image. Results are bit-identical on all of them.
#[derive(Clone, Copy)]
pub(crate) enum StorageBackend<'a> {
    /// The index's in-memory node arena (the paper's setup).
    InMemory,
    /// A paged snapshot read through a buffer pool.
    Paged(&'a PagedNodes),
    /// A packed immutable serving image, searched in place
    /// (`docs/FORMAT.md`).
    Packed(&'a PackedTarTree),
    /// A live snapshot: its base's packed image under the frozen overlay.
    Overlaid(OverlayNodes<'a>),
}

impl<'a> StorageBackend<'a> {
    /// The `backend` span-attribute value: an overlaid snapshot is
    /// `"packed"`.
    pub fn label(&self) -> &'static str {
        match self {
            StorageBackend::InMemory => "mem",
            StorageBackend::Paged(_) => "paged",
            StorageBackend::Packed(_) | StorageBackend::Overlaid(_) => "packed",
        }
    }

    /// The packed image whose fetch counter this backend's reads advance.
    pub fn packed(&self) -> Option<&'a PackedTarTree> {
        match self {
            StorageBackend::Packed(p) => Some(p),
            StorageBackend::Overlaid(o) => Some(o.packed.0),
            StorageBackend::InMemory | StorageBackend::Paged(_) => None,
        }
    }
}

impl TarIndex {
    /// Snapshots every tree node onto paged storage with `page_size`-byte
    /// pages behind an LRU buffer pool of `config.capacity` slots.
    ///
    /// The snapshot is read-only and tied to the index's current content
    /// epoch (querying it after any index mutation panics, exactly like
    /// [`crate::DiskTias`]).
    pub fn materialize_paged_nodes(
        &self,
        page_size: usize,
        config: BufferPoolConfig,
    ) -> PagedNodes {
        let store = match &self.tree {
            TreeImpl::Tar(t) => {
                PagedStoreImpl::D3(PagedNodeStore::build(t, TarNodeCodec, page_size, config))
            }
            TreeImpl::Spa(t) => {
                PagedStoreImpl::D2(PagedNodeStore::build(t, TarNodeCodec, page_size, config))
            }
            TreeImpl::Agg(t) => {
                PagedStoreImpl::D2(PagedNodeStore::build(t, TarNodeCodec, page_size, config))
            }
        };
        PagedNodes {
            store,
            grouping: self.grouping(),
            built_at: self.content_epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::paper_example;
    use crate::index::IndexConfig;
    use crate::plan::run_query;
    use crate::poi::{KnntaQuery, QueryHit};
    use tempora::TimeInterval;

    fn query_on(index: &TarIndex, q: &KnntaQuery, backend: StorageBackend<'_>) -> Vec<QueryHit> {
        run_query(&index.exec_env(), backend, q)
    }

    fn example_index(grouping: Grouping) -> TarIndex {
        let (grid, bounds, pois) = paper_example();
        TarIndex::build(IndexConfig::with_grouping(grouping), grid, bounds, pois)
    }

    #[test]
    fn paged_results_are_bit_identical() {
        for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
            let index = example_index(grouping);
            let paged = index.materialize_paged_nodes(256, BufferPoolConfig::lru(4));
            assert_eq!(paged.node_count(), index.node_count());
            for alpha0 in [0.2, 0.5, 0.8] {
                let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
                    .with_k(5)
                    .with_alpha0(alpha0);
                let mem = index.query(&q);
                let got = query_on(&index, &q, StorageBackend::Paged(&paged));
                assert_eq!(mem.len(), got.len(), "{grouping}");
                for (a, b) in mem.iter().zip(&got) {
                    assert_eq!(a.poi, b.poi, "{grouping}");
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "{grouping}");
                }
            }
        }
    }

    #[test]
    fn paged_queries_do_buffered_io_and_accounting_matches() {
        let index = example_index(Grouping::TarIntegral);
        let paged = index.materialize_paged_nodes(256, BufferPoolConfig::lru(4));
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3)).with_k(3);

        index.stats().reset();
        let _ = index.query(&q);
        let seq = (
            index.stats().node_accesses(),
            index.stats().leaf_node_accesses(),
        );

        paged.reset_io();
        index.stats().reset();
        let _ = query_on(&index, &q, StorageBackend::Paged(&paged));
        assert_eq!(
            (
                index.stats().node_accesses(),
                index.stats().leaf_node_accesses()
            ),
            seq,
            "logical node accesses are backend-independent"
        );
        let io = paged.io_snapshot();
        assert!(
            io.buffer_hits + io.buffer_misses > 0,
            "paged nodes must be read through the buffer pool"
        );
        assert!(paged.page_count() > 0);
    }

    /// Each view is built once per fetched node, not once per entry, and
    /// the overlay must not grow it (sizes on x86-64: 32 and 72 bytes).
    #[test]
    fn overlay_views_are_no_larger_than_before_the_columns() {
        use std::mem::size_of;
        assert!(size_of::<PackedView<'_>>() <= 32);
        assert!(size_of::<OverlaidView<'_>>() <= 72);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_paged_snapshot_rejected() {
        let mut index = example_index(Grouping::TarIntegral);
        let paged = index.materialize_paged_nodes(256, BufferPoolConfig::default());
        index.ingest_epoch(0, &[(PoiId(0), 3)]);
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3));
        let _ = query_on(&index, &q, StorageBackend::Paged(&paged));
    }
}
