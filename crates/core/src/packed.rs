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
//! The image is also the index file: its last section holds the
//! configuration, bounds and epoch grid, so its bytes
//! ([`PackedTarTree::to_bytes`]) are all `knnta build` writes, and
//! [`FrozenIndex::from_bytes`] all every `--index` reads. That reader
//! recovers the POIs from the leaf level, checks each field it reads, and
//! checks every internal entry against the node it targets — its box the
//! node's bounding box, its TIA block the per-epoch max of the node's
//! blocks — in one pass up the levels, so a forged internal bound, which
//! would otherwise answer wrongly without an error, is rejected, and the
//! image read is the image queried. Like
//! [`crate::PagedNodes`] an image is a snapshot: querying it through a
//! [`TarIndex`] that has mutated since panics ("stale") until repacked.

use crate::collective::{BatchOrder, HILBERT_BITS};
use crate::hilbert;
use crate::index::{z_of, Grouping, IndexConfig, IndexMeta, TarIndex};
use crate::observe::Probe;
use crate::plan::index_stats_of;
use crate::poi::{KnntaQuery, Poi};
use crate::storage::{EntryTarget, NodeSource, NodeView};
use costmodel::IndexStats;
use knnta_obs::Obs;
use pagestore::AccessStats;
use rtree::{NodeId, PackItem, PackedTree, RTreeParams, Rect};
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use tempora::{AggregateSeries, EpochGrid, PoiId, Timestamp};

/// The most epochs an index file's grid may hold (`docs/FORMAT.md` §8):
/// `knnta build` refuses a longer grid and [`FrozenIndex::from_bytes`] a
/// file that holds one.
pub const MAX_EPOCHS: usize = 1 << 20;

/// Words of the caller section before the grid boundaries: node size,
/// forced-reinsert flag, then the bounds' four f64 bit patterns.
const CONFIG_WORDS: usize = 6;

/// A packed immutable serving image of a POI set (format v2, see
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

/// The one packer: bulk-packs `(POI, series)` pairs into a serving image,
/// closed by the caller section that makes it an index file.
///
/// Per POI, in closed form: the normalised position `p̂`, the point box
/// `[p̂, p̂]`, the Hilbert rank of its grouping-space centre — `(p̂, z)` with
/// `z = 1 − λ̂p / max λ̂p` over *these* POIs for the TAR grouping, `p̂` alone
/// for IND-spa / IND-agg — the POI id as the target word, and the series'
/// inclusive prefix sums as the TIA block. [`PackedTree::pack`] then orders
/// by `(key, id)`, so `pois` may arrive in any order.
fn pack_pois(
    config: IndexConfig,
    meta: &IndexMeta,
    content_epoch: u64,
    pois: &[(Poi, &AggregateSeries)],
) -> PackedTarTree {
    let grouping = config.grouping;
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
        &config_section(config, meta),
        max_merge,
    );
    PackedTarTree {
        tree,
        grouping,
        built_at: content_epoch,
        fetches: AtomicU64::new(0),
    }
}

/// The caller section of an index file (`docs/FORMAT.md` §8): node size,
/// forced-reinsert flag, the bounds as f64 bits, then the grid boundaries
/// as two's-complement seconds.
fn config_section(config: IndexConfig, meta: &IndexMeta) -> Vec<u64> {
    let b = &meta.bounds;
    let mut words = vec![config.node_size as u64, config.forced_reinsert as u64];
    words.extend([b.min[0], b.min[1], b.max[0], b.max[1]].map(f64::to_bits));
    words.push(meta.grid.t0().seconds() as u64);
    words.extend(meta.grid.iter().map(|epoch| epoch.end.seconds() as u64));
    words
}

/// Reads [`config_section`] back, checking each field.
fn read_config_section(
    grouping: Grouping,
    words: &[u64],
) -> Result<(IndexConfig, EpochGrid, Rect<2>), String> {
    let Some((head, boundaries)) = words.split_first_chunk::<CONFIG_WORDS>() else {
        return Err(format!(
            "bad config section: {} words, need at least {CONFIG_WORDS}",
            words.len()
        ));
    };
    let node_size = usize::try_from(head[0]).unwrap_or(usize::MAX);
    RTreeParams::try_for_node_size(node_size, grouping.dims())?;
    let [x0, y0, x1, y1] = [head[2], head[3], head[4], head[5]].map(f64::from_bits);
    let (min, max) = ([x0, y0], [x1, y1]);
    if !min.iter().chain(&max).all(|v| v.is_finite()) || x0 > x1 || y0 > y1 {
        return Err(format!("bad bounds: {min:?} .. {max:?}"));
    }
    if !(2..=MAX_EPOCHS + 1).contains(&boundaries.len()) {
        return Err(format!(
            "bad grid boundaries: {} of them, need 2 ..= {} (at most {MAX_EPOCHS} epochs)",
            boundaries.len(),
            MAX_EPOCHS + 1
        ));
    }
    let boundaries: Vec<Timestamp> = boundaries.iter().map(|&w| Timestamp(w as i64)).collect();
    if !boundaries.windows(2).all(|w| w[0] < w[1]) {
        return Err("bad grid boundaries: not increasing".into());
    }
    let config = IndexConfig {
        grouping,
        node_size,
        forced_reinsert: head[1] != 0,
    };
    Ok((config, EpochGrid::varied(boundaries), Rect::new(min, max)))
}

/// Checks every leaf entry of a file's image as a POI record — the POI
/// count against the leaf level, ids unique and below
/// [`FrozenIndex::poi_id_limit`], boxes finite points, series epochs
/// increasing and inside the grid, cumulatives increasing — and returns the
/// per-epoch max over all POIs, which must sum within `u64`: every TIA
/// prefix, leaf or internal, is at most that total.
fn check_leaves(tree: &PackedTree, grid_len: usize) -> Result<AggregateSeries, String> {
    let n = tree.leaf_entry_count();
    if tree.item_count() != n {
        return Err(format!(
            "bad poi count: the header says {} POIs, the leaf level holds {n}",
            tree.item_count()
        ));
    }
    let id_limit = FrozenIndex::poi_id_limit(n).min(1 << 32) as u64;
    let mut ids = Vec::with_capacity(n);
    let mut max = vec![0u64; grid_len];
    for entry in 0..n {
        let id = tree.entry_target(entry);
        if id >= id_limit {
            return Err(format!(
                "bad poi id: {id} is not below {id_limit}, the limit for {n} POIs"
            ));
        }
        ids.push(id);
        let r = tree.entry_rect(entry);
        if !r.iter().all(|v| v.is_finite()) || r[0] != r[2] || r[1] != r[3] {
            return Err(format!(
                "bad poi position: poi {id} has the box {r:?}, not a finite point"
            ));
        }
        let (mut prev_epoch, mut prev_cum) = (None, 0);
        for (epoch, cum) in tree.entry_tia(entry).pairs() {
            if epoch >= grid_len as u64 || prev_epoch.is_some_and(|e| e >= epoch) {
                return Err(format!(
                    "bad series epoch: poi {id} needs increasing epochs below {grid_len}"
                ));
            }
            // A series holds no zero value, so its prefix sum rises at
            // every record.
            if cum <= prev_cum {
                return Err(format!(
                    "bad series cumulative: poi {id} has a prefix sum that does not increase"
                ));
            }
            let slot = &mut max[epoch as usize];
            *slot = (*slot).max(cum - prev_cum);
            (prev_epoch, prev_cum) = (Some(epoch), cum);
        }
    }
    ids.sort_unstable();
    if let Some(pair) = ids.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("bad poi id: duplicate id {}", pair[0]));
    }
    let root_max = AggregateSeries::from_pairs((0u32..).zip(max));
    if root_max.checked_total().is_none() {
        return Err("bad series total: the per-epoch maxima over all POIs sum past u64::MAX".into());
    }
    Ok(root_max)
}

/// A raw coordinate whose normalised value `(x − lo) · inv_scale` is `t`
/// bit for bit: the plain inverse when it round-trips, else the least such
/// coordinate in IEEE total order — normalising is monotone in that order,
/// so a binary search over the bit patterns finds one whenever one exists.
fn denorm(t: f64, lo: f64, inv_scale: f64) -> f64 {
    let norm = |x: f64| (x - lo) * inv_scale;
    let guess = t / inv_scale + lo;
    if norm(guess).to_bits() == t.to_bits() {
        return guess;
    }
    // Keys that order as `f64::total_cmp` orders their values (the map is
    // its own inverse).
    let key = |bits: i64| bits ^ ((((bits >> 63) as u64) >> 1) as i64);
    let value = |k: i64| f64::from_bits(key(k) as u64);
    let (mut lo_k, mut hi_k) = (key(f64::MIN.to_bits() as i64), key(f64::MAX.to_bits() as i64));
    while lo_k < hi_k {
        let mid = ((lo_k as i128 + hi_k as i128) >> 1) as i64;
        if norm(value(mid)).total_cmp(&t).is_lt() {
            lo_k = mid + 1;
        } else {
            hi_k = mid;
        }
    }
    value(lo_k)
}

/// The internal-entry TIA merge: per-epoch **max** over the children's
/// per-epoch values (decoded from their prefix records), re-encoded as a
/// prefix block. `Σ_epochs max_children v` upper-bounds every child's own
/// range sum, which keeps the packed traversal keys admissible lower bounds
/// on the scores beneath them (DESIGN.md §12).
fn max_merge(children: &[Vec<(u64, u64)>]) -> Vec<(u64, u64)> {
    let mut merged = Vec::new();
    max_merge_into(children.iter().map(|block| block.iter().copied()), &mut merged);
    // Room for every child record is far more than the distinct epochs,
    // and the packer holds each level's blocks until it writes the image.
    merged.shrink_to_fit();
    merged
}

/// [`max_merge`] over prefix blocks given as record iterators, into `out`
/// (cleared first) — the packer and the reader's check share it.
fn max_merge_into<B: Iterator<Item = (u64, u64)>>(
    children: impl Iterator<Item = B>,
    out: &mut Vec<(u64, u64)>,
) {
    out.clear();
    for block in children {
        let mut prev = 0u64;
        out.extend(block.map(|(epoch, cum)| {
            let v = cum - prev;
            prev = cum;
            (epoch, v)
        }));
    }
    out.sort_unstable_by_key(|&(epoch, _)| epoch);
    out.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 = kept.1.max(next.1);
        }
        same
    });
    let mut cum = 0u64;
    for record in out.iter_mut() {
        cum += record.1;
        record.1 = cum;
    }
}

/// Checks every internal entry against the node it targets: its box is
/// that node's bounding box and its TIA block the [`max_merge`] of that
/// node's blocks, bit for bit. Internal entries are checked in order, so a
/// child's blocks are checked before its parent's merge reads them; the
/// leaves' were checked by [`check_leaves`].
fn check_internal(tree: &PackedTree) -> Result<(), String> {
    let mut merged = Vec::new();
    for entry in tree.leaf_entry_count()..tree.entry_count() {
        let child = tree.entry_target(entry) as usize;
        if tree.entry_rect(entry).map(f64::to_bits) != tree.node_rect(child).map(f64::to_bits) {
            return Err(format!(
                "bad internal box: entry {entry} is not the bounding box of node {child}"
            ));
        }
        let blocks = tree.node(child).entries().map(|c| tree.entry_tia(c).pairs());
        max_merge_into(blocks, &mut merged);
        if !tree.entry_tia(entry).pairs().eq(merged.iter().copied()) {
            return Err(format!(
                "bad internal TIA block: entry {entry} is not the per-epoch max of node \
                 {child}'s blocks"
            ));
        }
    }
    Ok(())
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
            self.config(),
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
/// pois).pack()` for the same POIs in any order (`tests/direct_pack.rs`),
/// and it is the index file: [`PackedTarTree::to_bytes`] writes it,
/// [`FrozenIndex::from_bytes`] reads it back.
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
///
/// let file = frozen.packed().to_bytes();
/// let read = FrozenIndex::from_bytes(&file).expect("a file this build wrote");
/// assert_eq!(read.packed().to_bytes(), file);
/// assert_eq!(Executor::frozen(&read).query(&q), index.query(&q));
/// ```
pub struct FrozenIndex {
    pub(crate) config: IndexConfig,
    pub(crate) meta: IndexMeta,
    pub(crate) packed: PackedTarTree,
    pub(crate) root_max: AggregateSeries,
    /// Planner inputs, backend availability left `false` (the executor
    /// fills it in); a file that was read computes them from its POIs when
    /// first planned on ([`FrozenIndex::plan_stats`]).
    plan_stats: OnceLock<IndexStats>,
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
        let by_id = by_id(pois);
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
        let packed = pack_pois(config, &meta, by_id.len() as u64, &by_id);
        let plan_stats = index_stats_of(
            config,
            &meta.bounds,
            packed.node_count(),
            packed.level_count(),
            &by_id,
        );
        FrozenIndex {
            config,
            root_max: AggregateSeries::max_of(by_id.iter().map(|(_, series)| *series)),
            meta,
            packed,
            plan_stats: OnceLock::from(plan_stats),
        }
    }

    /// Reads an index file — the bytes of a [`FrozenIndex::build`] or
    /// [`TarIndex::pack`] image — and validates it.
    ///
    /// Beyond the image's structure and shape ([`PackedTarTree::from_bytes`])
    /// the reader checks each field it recovers — node size, bounds, grid
    /// boundaries (at most [`MAX_EPOCHS`] epochs), the POI count against the
    /// leaf level, ids unique and below [`FrozenIndex::poi_id_limit`],
    /// positions finite points, series epochs increasing and inside the
    /// grid, cumulatives increasing, and per-epoch maxima over all POIs that
    /// sum within `u64` — and then, in one pass up the levels, that every
    /// internal entry's box and TIA block are exactly the bounding box and
    /// per-epoch max of the node it targets. A forged internal bound would
    /// otherwise answer wrongly without an error. Any failure is one
    /// [`io::ErrorKind::InvalidData`] error naming the field, never a panic.
    /// The image read is the one queried: nothing is re-packed.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<FrozenIndex> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let packed = PackedTarTree::from_bytes(bytes).map_err(invalid)?;
        let tree = &packed.tree;
        let (config, grid, bounds) =
            read_config_section(packed.grouping, tree.caller_words()).map_err(invalid)?;
        let root_max = check_leaves(tree, grid.len()).map_err(invalid)?;
        check_internal(tree).map_err(invalid)?;
        Ok(FrozenIndex {
            config,
            meta: IndexMeta::new(grid, bounds, AccessStats::new()),
            packed,
            root_max,
            plan_stats: OnceLock::new(),
        })
    }

    /// The exclusive upper bound on POI ids an index file of `poi_count`
    /// POIs may use: `max(64 × poi_count, 65 536)`, so small files with
    /// sparse ids still read. An arena index sizes its position table by
    /// the largest id, so this bounds the memory a file can claim to a
    /// constant multiple of its POI count.
    pub fn poi_id_limit(poi_count: usize) -> usize {
        poi_count.saturating_mul(64).max(1 << 16)
    }

    /// Every POI with its series, recovered from the image's leaf level in
    /// leaf order: the id from the entry's target, the series from
    /// differences of its prefix records, the position from its point box.
    /// A position is recovered as a raw coordinate whose normalised value
    /// is the stored box bit for bit — the only form of a position any
    /// query reads — so it may differ from the one built from in the last
    /// bits.
    pub fn pois(&self) -> Vec<(Poi, AggregateSeries)> {
        let (tree, lo) = (&self.packed.tree, self.meta.bounds.min);
        (0..tree.leaf_entry_count())
            .map(|entry| {
                let r = tree.entry_rect(entry);
                let inv_scale = self.meta.inv_scale;
                let pos = [denorm(r[0], lo[0], inv_scale), denorm(r[1], lo[1], inv_scale)];
                let mut prev = 0u64;
                let series = AggregateSeries::from_pairs(tree.entry_tia(entry).pairs().map(
                    |(epoch, cum)| {
                        let value = cum - prev;
                        prev = cum;
                        (epoch as u32, value)
                    },
                ));
                let id = PoiId(tree.entry_target(entry) as u32);
                (Poi { id, pos }, series)
            })
            .collect()
    }

    /// The arena tree over [`FrozenIndex::pois`] with this index's
    /// configuration, grid and bounds, STR bulk-loaded
    /// ([`TarIndex::build_bulk`]): it answers every query as this index
    /// does, and serves what needs a tree (MWA, the skyline, the paged
    /// store, mutation).
    pub fn to_arena(&self) -> TarIndex {
        TarIndex::build_bulk(self.config, self.meta.grid.clone(), self.meta.bounds, self.pois())
    }

    /// The planner's inputs: over the POIs as built, or, for a file that
    /// was read, over [`FrozenIndex::pois`].
    pub(crate) fn plan_stats(&self) -> &IndexStats {
        self.plan_stats.get_or_init(|| {
            let packed = &self.packed;
            index_stats_of(
                self.config,
                &self.meta.bounds,
                packed.node_count(),
                packed.level_count(),
                &by_id(&self.pois()),
            )
        })
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> IndexConfig {
        self.config
    }

    /// The epoch grid.
    pub fn grid(&self) -> &EpochGrid {
        &self.meta.grid
    }

    /// The data-space bounds.
    pub fn bounds(&self) -> &Rect<2> {
        &self.meta.bounds
    }

    /// Freezes an arena index as it stands: its packed image, a copy of its
    /// metadata (sharing its counters and observability handle), its
    /// root-max and planner inputs.
    pub(crate) fn of(index: &TarIndex) -> FrozenIndex {
        FrozenIndex {
            config: index.config(),
            meta: index.meta.clone(),
            packed: index.pack(),
            root_max: index.root_max_series(),
            plan_stats: OnceLock::from(index.index_stats()),
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

/// `pois` by reference in ascending id order — a canonical order for the
/// planner's aggregate sample (its fit sums floats in sample order), and
/// the order the duplicate checks read.
fn by_id(pois: &[(Poi, AggregateSeries)]) -> Vec<(Poi, &AggregateSeries)> {
    let mut by_id: Vec<(Poi, &AggregateSeries)> =
        pois.iter().map(|(poi, series)| (*poi, series)).collect();
    by_id.sort_by_key(|(poi, _)| poi.id);
    by_id
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
    /// validating its structure only: magic, version, section layout,
    /// directories, tree shape and the grouping tag. An index file is read
    /// by [`FrozenIndex::from_bytes`], which also checks every field and
    /// every internal box and TIA block.
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
    use tempora::{PoiId, TimeInterval};

    fn example_index(grouping: Grouping) -> TarIndex {
        let (grid, bounds, pois) = paper_example();
        TarIndex::build(IndexConfig::with_grouping(grouping), grid, bounds, pois)
    }

    fn query_packed(index: &TarIndex, q: &KnntaQuery, packed: &PackedTarTree) -> Vec<QueryHit> {
        run_query(&index.exec_env(), StorageBackend::Packed(packed), q)
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
    fn denorm_inverts_normalisation_bit_for_bit() {
        use knnta_util::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..20_000 {
            let lo = [0.0, -0.0, 1e-300, -73.99, 1e6][rng.gen_range(0usize..5)];
            let inv_scale = [1.0, 1.0 / 141.42, 7.3e-7, 3.1e4][rng.gen_range(0usize..4)];
            let p = lo + [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1e-9), -0.0, 0.0]
                [rng.gen_range(0usize..4)]
                / inv_scale;
            let t = (p - lo) * inv_scale;
            let x = denorm(t, lo, inv_scale);
            assert_eq!(((x - lo) * inv_scale).to_bits(), t.to_bits(), "{p} over {lo}, {inv_scale}");
        }
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
