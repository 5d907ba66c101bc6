//! The TAR-tree index (and its IND-spa / IND-agg alternatives) with kNNTA
//! query processing.

use crate::agg_grouping::AggGrouping;
use crate::augmentation::TiaAug;
use crate::poi::{KnntaQuery, Poi, QueryHit};
use knnta_obs::Obs;
use pagestore::AccessStats;
use rtree::{RStarGrouping, RStarTree, RTreeParams, Rect};
use std::collections::HashMap;
use tempora::{AggregateSeries, EpochGrid, PoiId, TimeInterval};

/// The entry grouping strategy an index is built with (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Grouping {
    /// The TAR-tree's integral 3-D strategy: R\* over
    /// `(x, y, 1 − λ̂p / max λ̂)` in the normalised unit cube (Section 5.2).
    TarIntegral,
    /// Spatial extents only (plain 2-D R\*) — the IND-spa baseline.
    IndSpa,
    /// Aggregate-distribution similarity (Manhattan distance) — the IND-agg
    /// baseline.
    IndAgg,
}

impl Grouping {
    /// The grouping-space dimensionality (decides node capacity: a
    /// 1024-byte node holds 50 2-D or 36 3-D entries).
    pub fn dims(self) -> usize {
        match self {
            Grouping::TarIntegral => 3,
            Grouping::IndSpa | Grouping::IndAgg => 2,
        }
    }
}

impl std::fmt::Display for Grouping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Grouping::TarIntegral => "TAR-tree",
            Grouping::IndSpa => "IND-spa",
            Grouping::IndAgg => "IND-agg",
        })
    }
}

/// Build-time configuration of a [`TarIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// The entry grouping strategy.
    pub grouping: Grouping,
    /// Node size in bytes (the paper's default is 1024).
    pub node_size: usize,
    /// Whether R\* forced reinsertion is enabled (ablation switch).
    pub forced_reinsert: bool,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            grouping: Grouping::TarIntegral,
            node_size: 1024,
            forced_reinsert: true,
        }
    }
}

impl IndexConfig {
    /// A config with the given grouping and the paper's defaults otherwise.
    pub fn with_grouping(grouping: Grouping) -> Self {
        IndexConfig {
            grouping,
            ..Default::default()
        }
    }
}

pub(crate) enum TreeImpl {
    Tar(RStarTree<3, Poi, TiaAug, RStarGrouping>),
    Spa(RStarTree<2, Poi, TiaAug, RStarGrouping>),
    Agg(RStarTree<2, Poi, TiaAug, AggGrouping>),
}

/// Dispatches a generic expression over the three tree instantiations.
macro_rules! with_tree {
    ($index:expr, $tree:ident => $body:expr) => {
        match &$index.tree {
            $crate::index::TreeImpl::Tar($tree) => $body,
            $crate::index::TreeImpl::Spa($tree) => $body,
            $crate::index::TreeImpl::Agg($tree) => $body,
        }
    };
}
pub(crate) use with_tree;

/// An index over POIs supporting kNNTA queries — the TAR-tree when built
/// with [`Grouping::TarIntegral`], or one of the paper's baselines.
///
/// The index keeps grouping coordinates in the normalised unit space of the
/// paper's analysis: positions are uniformly scaled so the data-space
/// diagonal has length 1 (which *is* the paper's `d(p,q)` normalisation),
/// and the third dimension is `z = 1 − λ̂p / max λ̂` (Section 5.2). Every
/// entry carries its TIA summary (an [`AggregateSeries`]; internal entries
/// hold the per-epoch max of their subtree).
pub struct TarIndex {
    pub(crate) tree: TreeImpl,
    grouping: Grouping,
    node_size: usize,
    forced_reinsert: bool,
    pub(crate) meta: IndexMeta,
    max_rate: f64,
    positions: Vec<Option<[f64; 2]>>,
    /// Bumped on every structural or aggregate change (used by the disk-TIA
    /// mirror to detect staleness).
    pub(crate) content_epoch: u64,
}

/// What a query execution reads of an index besides its tree nodes: the
/// query space (grid, bounds, distance scale) and the accounting sinks.
/// [`TarIndex`] and the arena-free [`crate::FrozenIndex`] both carry one, so
/// the executor runs on either.
#[derive(Clone)]
pub(crate) struct IndexMeta {
    pub grid: EpochGrid,
    pub bounds: Rect<2>,
    /// Uniform scale: 1 / diagonal length of `bounds`.
    pub inv_scale: f64,
    pub stats: AccessStats,
    /// Observability sinks shared by every query entry point; disabled by
    /// default (one branch per instrumentation site, no allocation).
    pub obs: Obs,
}

impl IndexMeta {
    pub fn new(grid: EpochGrid, bounds: Rect<2>, stats: AccessStats) -> Self {
        let diag = {
            let w = bounds.max[0] - bounds.min[0];
            let h = bounds.max[1] - bounds.min[1];
            (w * w + h * h).sqrt()
        };
        IndexMeta {
            grid,
            bounds,
            inv_scale: if diag > 0.0 { 1.0 / diag } else { 1.0 },
            stats,
            obs: Obs::disabled(),
        }
    }

    /// Normalises a raw position into the unit query space.
    pub fn norm(&self, p: [f64; 2]) -> [f64; 2] {
        [
            (p[0] - self.bounds.min[0]) * self.inv_scale,
            (p[1] - self.bounds.min[1]) * self.inv_scale,
        ]
    }

    /// The diagonal length used to normalise distances.
    pub fn scale(&self) -> f64 {
        1.0 / self.inv_scale
    }

    /// The evaluation context of `query` under the normaliser `gmax` (the
    /// root-max aggregate over the query interval, floored at 1).
    pub fn ctx_with_normalizer(&self, query: &KnntaQuery, gmax: f64) -> QueryCtx<'_> {
        assert!(
            query.point[0].is_finite() && query.point[1].is_finite(),
            "query point must be finite, got {:?}",
            query.point
        );
        QueryCtx {
            q: self.norm(query.point),
            iq: query.interval,
            range: self.grid.epochs_within(query.interval),
            alpha0: query.alpha0,
            alpha1: query.alpha1(),
            gmax,
            grid: &self.grid,
            scale: self.scale(),
        }
    }
}

impl TarIndex {
    /// An empty index.
    ///
    /// `bounds` is the data-space bounding box (used to normalise spatial
    /// distances); `max_rate` is fixed from the data at build time by
    /// [`TarIndex::build`], or grows lazily under incremental inserts.
    pub fn new(config: IndexConfig, grid: EpochGrid, bounds: Rect<2>) -> Self {
        Self::with_meta(config, IndexMeta::new(grid, bounds, AccessStats::new()))
    }

    /// An empty index over an existing query space, sharing its sinks.
    pub(crate) fn with_meta(config: IndexConfig, meta: IndexMeta) -> Self {
        let stats = meta.stats.clone();
        let params = RTreeParams::for_node_size(config.node_size, config.grouping.dims());
        let params = if config.forced_reinsert {
            params
        } else {
            params.without_reinsert()
        };
        let tree = match config.grouping {
            Grouping::TarIntegral => {
                TreeImpl::Tar(RStarTree::new(params, TiaAug, RStarGrouping, stats.clone()))
            }
            Grouping::IndSpa => {
                TreeImpl::Spa(RStarTree::new(params, TiaAug, RStarGrouping, stats.clone()))
            }
            Grouping::IndAgg => {
                TreeImpl::Agg(RStarTree::new(params, TiaAug, AggGrouping, stats.clone()))
            }
        };
        TarIndex {
            tree,
            grouping: config.grouping,
            node_size: config.node_size,
            forced_reinsert: config.forced_reinsert,
            meta,
            max_rate: 0.0,
            positions: Vec::new(),
            content_epoch: 0,
        }
    }

    /// Builds an index over a dataset (fixing `max λ̂` from the data first,
    /// as the normalisation of the third grouping dimension requires).
    pub fn build(
        config: IndexConfig,
        grid: EpochGrid,
        bounds: Rect<2>,
        pois: impl IntoIterator<Item = (Poi, AggregateSeries)>,
    ) -> Self {
        let mut index = Self::new(config, grid, bounds);
        index.fill(pois.into_iter().collect());
        index
    }

    /// Inserts a whole dataset into an empty index, fixing `max λ̂` from it
    /// first.
    pub(crate) fn fill(&mut self, pois: Vec<(Poi, AggregateSeries)>) {
        let m = self.meta.grid.len();
        self.max_rate = pois
            .iter()
            .map(|(_, s)| s.mean_rate(m))
            .fold(0.0, f64::max);
        for (poi, series) in pois {
            self.insert_poi(poi, series);
        }
    }

    /// Builds an index with STR bulk loading (`rtree::RStarTree::bulk_load`)
    /// instead of repeated insertion: near-fully-packed nodes, one sort pass
    /// per level, about ten times faster to construct (25,619 GW POIs:
    /// ≈0.023 s against ≈0.29 s for [`TarIndex::build`] on one Xeon core).
    /// Queries return exactly the same answers; node-access profiles differ
    /// slightly (see the `ablation` benchmarks).
    pub fn build_bulk(
        config: IndexConfig,
        grid: EpochGrid,
        bounds: Rect<2>,
        pois: impl IntoIterator<Item = (Poi, AggregateSeries)>,
    ) -> Self {
        let pois: Vec<(Poi, AggregateSeries)> = pois.into_iter().collect();
        let mut index = Self::new(config, grid, bounds);
        let m = index.meta.grid.len();
        index.max_rate = pois
            .iter()
            .map(|(_, s)| s.mean_rate(m))
            .fold(0.0, f64::max);
        for (poi, _) in &pois {
            let idx = poi.id.index();
            if index.positions.len() <= idx {
                index.positions.resize(idx + 1, None);
            }
            assert!(
                index.positions[idx].is_none(),
                "duplicate insert of {}",
                poi.id
            );
            index.positions[idx] = Some(poi.pos);
        }
        index.content_epoch += 1;
        match &mut index.tree {
            TreeImpl::Tar(t) => {
                let items = pois
                    .into_iter()
                    .map(|(poi, series)| {
                        let p = index.meta.norm(poi.pos);
                        let z = z_of(series.mean_rate(m), index.max_rate);
                        (Rect::point([p[0], p[1], z]), poi, series)
                    })
                    .collect();
                t.bulk_load(items);
            }
            TreeImpl::Spa(t) => {
                let items = pois
                    .into_iter()
                    .map(|(poi, series)| {
                        let p = index.meta.norm(poi.pos);
                        (Rect::point(p), poi, series)
                    })
                    .collect();
                t.bulk_load(items);
            }
            TreeImpl::Agg(t) => {
                let items = pois
                    .into_iter()
                    .map(|(poi, series)| {
                        let p = index.meta.norm(poi.pos);
                        (Rect::point(p), poi, series)
                    })
                    .collect();
                t.bulk_load(items);
            }
        }
        index
    }

    /// The grouping strategy this index was built with.
    pub fn grouping(&self) -> Grouping {
        self.grouping
    }

    /// The configured node size in bytes.
    pub fn config_node_size(&self) -> usize {
        self.node_size
    }

    /// Whether R* forced reinsertion is enabled.
    pub fn config_forced_reinsert(&self) -> bool {
        self.forced_reinsert
    }

    /// The configuration the index was built with.
    pub(crate) fn config(&self) -> IndexConfig {
        IndexConfig {
            grouping: self.grouping,
            node_size: self.node_size,
            forced_reinsert: self.forced_reinsert,
        }
    }

    /// Every indexed POI with its aggregate series (tree order; used by the
    /// live tier and diagnostics).
    pub fn export_pois(&self) -> Vec<(Poi, AggregateSeries)> {
        self.leaf_entries()
            .into_iter()
            .map(|(poi, series)| (poi, series.clone()))
            .collect()
    }

    /// Every indexed POI with its (borrowed) aggregate series, in tree
    /// order.
    pub(crate) fn leaf_entries(&self) -> Vec<(Poi, &AggregateSeries)> {
        with_tree!(self, t => {
            let mut out = Vec::with_capacity(t.len());
            for id in t.node_ids() {
                let node = t.node(id);
                if node.is_leaf() {
                    for e in &node.entries {
                        if let Some(poi) = e.data() {
                            out.push((*poi, &e.aug));
                        }
                    }
                }
            }
            out
        })
    }

    /// The epoch grid.
    pub fn grid(&self) -> &EpochGrid {
        &self.meta.grid
    }

    /// The data-space bounds.
    pub fn bounds(&self) -> &Rect<2> {
        &self.meta.bounds
    }

    /// Number of indexed POIs.
    pub fn len(&self) -> usize {
        with_tree!(self, t => t.len())
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tree nodes.
    pub fn node_count(&self) -> usize {
        with_tree!(self, t => t.node_count())
    }

    /// Tree height (0 = a single leaf).
    pub fn height(&self) -> u32 {
        with_tree!(self, t => t.height())
    }

    /// The shared access statistics (node accesses, TIA I/O).
    pub fn stats(&self) -> &AccessStats {
        &self.meta.stats
    }

    /// Attaches an observability handle: every subsequent query entry point
    /// emits spans and counters into it. Pass [`Obs::disabled`] to turn
    /// instrumentation back off (the default).
    pub fn set_obs(&mut self, obs: Obs) {
        self.meta.obs = obs;
    }

    /// The index's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.meta.obs
    }

    /// Normalises a raw position into the unit query space.
    pub(crate) fn norm(&self, p: [f64; 2]) -> [f64; 2] {
        self.meta.norm(p)
    }

    /// The diagonal length used to normalise distances.
    pub fn scale(&self) -> f64 {
        self.meta.scale()
    }

    /// Inserts a POI with its per-epoch aggregate series.
    ///
    /// The inserted path's MBRs and TIA summaries are updated as in
    /// Section 4.2; splits and reinsertions follow the configured grouping
    /// strategy.
    pub fn insert_poi(&mut self, poi: Poi, series: AggregateSeries) {
        let rate = series.mean_rate(self.meta.grid.len());
        if rate > self.max_rate {
            // Incremental inserts can exceed the build-time max; the stored
            // z of older entries drifts (the paper handles drift by periodic
            // rebuilds), but the normaliser must grow to keep z in [0, 1].
            self.max_rate = rate;
        }
        let p = self.norm(poi.pos);
        let idx = poi.id.index();
        if self.positions.len() <= idx {
            self.positions.resize(idx + 1, None);
        }
        assert!(
            self.positions[idx].is_none(),
            "duplicate insert of {}",
            poi.id
        );
        self.positions[idx] = Some(poi.pos);
        self.content_epoch += 1;
        let z = z_of(rate, self.max_rate);
        match &mut self.tree {
            TreeImpl::Tar(t) => {
                t.insert_with_aug(Rect::point([p[0], p[1], z]), poi, series);
            }
            TreeImpl::Spa(t) => t.insert_with_aug(Rect::point(p), poi, series),
            TreeImpl::Agg(t) => t.insert_with_aug(Rect::point(p), poi, series),
        }
    }

    /// Removes a POI. Returns whether it was present.
    pub fn remove_poi(&mut self, id: PoiId) -> bool {
        let Some(Some(pos)) = self.positions.get(id.index()).copied() else {
            return false;
        };
        let p = self.norm(pos);
        self.content_epoch += 1;
        let removed = match &mut self.tree {
            TreeImpl::Tar(t) => t
                .remove(&Rect::new([p[0], p[1], 0.0], [p[0], p[1], 1.0]), |poi| {
                    poi.id == id
                })
                .is_some(),
            TreeImpl::Spa(t) => t.remove(&Rect::point(p), |poi| poi.id == id).is_some(),
            TreeImpl::Agg(t) => t.remove(&Rect::point(p), |poi| poi.id == id).is_some(),
        };
        if removed {
            self.positions[id.index()] = None;
        }
        removed
    }

    /// Digests the check-ins of a finished epoch (Section 4.2): for every
    /// `(poi, aggregate)` with a non-zero aggregate, add the value to the
    /// POI's TIA and refresh the per-epoch max along the paths to those
    /// POIs. Only subtrees containing updated POIs are visited.
    ///
    /// Returns the number of updated leaf entries.
    pub fn ingest_epoch(&mut self, epoch_index: usize, updates: &[(PoiId, u64)]) -> usize {
        assert!(epoch_index < self.meta.grid.len(), "epoch outside the grid");
        let map: HashMap<PoiId, u64> = updates
            .iter()
            .filter(|&&(_, v)| v != 0)
            .copied()
            .collect();
        if map.is_empty() {
            return 0;
        }
        let points: Vec<[f64; 2]> = map
            .keys()
            .filter_map(|id| self.positions.get(id.index()).copied().flatten())
            .map(|pos| self.norm(pos))
            .collect();
        self.content_epoch += 1;
        let epoch = epoch_index as u32;
        match &mut self.tree {
            TreeImpl::Tar(t) => t.update_leaf_augs(
                &|rect: &Rect<3>| points.iter().any(|p| rect.project2().contains_point(p)),
                &mut |poi, aug| {
                    map.get(&poi.id).map(|&v| {
                        let mut s = aug.clone();
                        s.add(epoch, v);
                        s
                    })
                },
            ),
            TreeImpl::Spa(t) => t.update_leaf_augs(
                &|rect: &Rect<2>| points.iter().any(|p| rect.contains_point(p)),
                &mut |poi, aug| {
                    map.get(&poi.id).map(|&v| {
                        let mut s = aug.clone();
                        s.add(epoch, v);
                        s
                    })
                },
            ),
            TreeImpl::Agg(t) => t.update_leaf_augs(
                &|rect: &Rect<2>| points.iter().any(|p| rect.contains_point(p)),
                &mut |poi, aug| {
                    map.get(&poi.id).map(|&v| {
                        let mut s = aug.clone();
                        s.add(epoch, v);
                        s
                    })
                },
            ),
        }
    }

    /// The dataset-wide per-epoch max series (the root TIA's content).
    pub fn root_max_series(&self) -> AggregateSeries {
        with_tree!(self, t => {
            AggregateSeries::max_of(t.node(t.root_id()).entries.iter().map(|e| &e.aug))
        })
    }

    /// The normaliser for `g(p, Iq)`: the root TIA aggregate over `iq`
    /// (an upper bound on — and in the paper's examples equal to — the
    /// maximum POI aggregate), floored at 1 so `g` is well defined on empty
    /// intervals.
    pub fn aggregate_normalizer(&self, iq: TimeInterval) -> f64 {
        (self.root_max_series().aggregate_over(&self.meta.grid, iq) as f64).max(1.0)
    }

    pub(crate) fn ctx(&self, query: &KnntaQuery) -> QueryCtx<'_> {
        self.meta
            .ctx_with_normalizer(query, self.aggregate_normalizer(query.interval))
    }

    /// Answers a kNNTA query with best-first search over the index
    /// (Section 4.3), counting node accesses in [`TarIndex::stats`].
    ///
    /// Hits are returned best (smallest score) first. When an enabled
    /// [`Obs`] handle is attached ([`TarIndex::set_obs`]) the search emits a
    /// `query` span with `phase.*` children and publishes its counters; the
    /// answers are bit-identical either way.
    pub fn query(&self, query: &KnntaQuery) -> Vec<QueryHit> {
        crate::plan::run_query(
            &self.exec_env(),
            crate::storage::StorageBackend::InMemory,
            query,
        )
    }

    /// Checks every structural and TIA-summary invariant (test helper).
    pub fn validate(&self) {
        with_tree!(self, t => {
            t.validate();
            t.validate_augs();
        });
    }
}

/// The third grouping coordinate `z = 1 − λ̂p / max λ̂` (Section 5.2), clamped
/// to the unit interval; 1 while no POI has a positive rate.
pub(crate) fn z_of(rate: f64, max_rate: f64) -> f64 {
    if max_rate <= 0.0 {
        1.0
    } else {
        (1.0 - rate / max_rate).clamp(0.0, 1.0)
    }
}

/// Query-evaluation context: the query in normalised space plus the
/// normalisers.
pub(crate) struct QueryCtx<'a> {
    pub q: [f64; 2],
    pub iq: TimeInterval,
    /// The epochs fully contained in `iq` — what every TIA lookup sums over.
    pub range: std::ops::Range<usize>,
    pub alpha0: f64,
    pub alpha1: f64,
    pub gmax: f64,
    pub grid: &'a EpochGrid,
    pub scale: f64,
}

impl QueryCtx<'_> {
    /// The ranking score of an entry from its normalised distance and raw
    /// aggregate: `α0·s0 + α1·(1 − g/gmax)`.
    pub fn score(&self, s0: f64, aggregate: u64) -> (f64, f64) {
        let g = (aggregate as f64 / self.gmax).min(1.0);
        let s1 = 1.0 - g;
        (self.alpha0 * s0 + self.alpha1 * s1, s1)
    }

    /// A [`QueryHit`] for a POI at normalised distance `s0` with raw
    /// aggregate `agg`.
    pub fn hit(&self, poi: PoiId, s0: f64, aggregate: u64) -> QueryHit {
        let (score, s1) = self.score(s0, aggregate);
        QueryHit {
            poi,
            score,
            s0,
            s1,
            distance: s0 * self.scale,
            aggregate,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tempora::Timestamp;

    /// The 12 POIs of the paper's running example (Figure 1 / Table 1),
    /// with coordinates read off the figure's grid.
    pub(crate) fn paper_example() -> (EpochGrid, Rect<2>, Vec<(Poi, AggregateSeries)>) {
        let grid = EpochGrid::fixed_days(1, 3);
        let bounds = Rect::new([0.0, 0.0], [11.0, 11.0]);
        let mk = |id: u32, x: f64, y: f64, a: &[(u32, u64)]| {
            (
                Poi::new(id, x, y),
                AggregateSeries::from_pairs(a.iter().copied()),
            )
        };
        let pois = vec![
            mk(0, 1.0, 9.0, &[(0, 1), (1, 1)]),          // a
            mk(1, 3.0, 8.0, &[(0, 1), (2, 1)]),          // b
            mk(2, 4.5, 8.5, &[(0, 2), (1, 2), (2, 2)]),  // c
            mk(3, 1.5, 6.5, &[(0, 2)]),                  // d
            mk(4, 3.0, 6.0, &[(0, 1), (1, 1)]),          // e
            mk(5, 6.0, 5.0, &[(0, 3), (1, 5), (2, 4)]),  // f
            mk(6, 7.5, 6.0, &[(0, 2), (1, 3), (2, 1)]),  // g
            mk(7, 9.0, 7.0, &[(0, 1), (1, 1)]),          // h
            mk(8, 8.0, 3.0, &[(0, 2), (1, 2), (2, 2)]),  // i
            mk(9, 9.5, 2.0, &[(0, 2)]),                  // j
            mk(10, 7.0, 1.5, &[(0, 1), (2, 1)]),         // k
            mk(11, 5.0, 2.0, &[(0, 1), (2, 1)]),         // l
        ];
        (grid, bounds, pois)
    }

    fn build_example(grouping: Grouping) -> TarIndex {
        let (grid, bounds, pois) = paper_example();
        TarIndex::build(IndexConfig::with_grouping(grouping), grid, bounds, pois)
    }

    #[test]
    fn paper_example_top1_is_f() {
        // Section 3.2: with q = (4, 4.5), Iq = [t0, tc], α0 = 0.3, k = 1 the
        // answer is f with score 0.058.
        for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
            let index = build_example(grouping);
            let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
                .with_k(1)
                .with_alpha0(0.3);
            let hits = index.query(&q);
            assert_eq!(hits.len(), 1, "{grouping}");
            assert_eq!(hits[0].poi, PoiId(5), "{grouping}: expected f");
            assert_eq!(hits[0].aggregate, 12, "{grouping}");
        }
    }

    #[test]
    fn paper_example_scores() {
        // f(e) = 0.3·(2.24/15.6) + 0.7·(1 − 2/12) ≈ 0.626 with the paper's
        // numbers. Our diagonal is 11·√2 ≈ 15.56 (the paper rounds to 15.6)
        // and d(e, q) = √(1 + 1.5²) ≈ 1.80... — the paper's "2.24" reads the
        // figure differently, so check the formula rather than the digits:
        // recompute with our own geometry.
        let index = build_example(Grouping::TarIntegral);
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
            .with_k(12)
            .with_alpha0(0.3);
        let hits = index.query(&q);
        assert_eq!(hits.len(), 12);
        // Every score matches the definition f = α0·s0 + α1·s1.
        for h in &hits {
            let expect = 0.3 * h.s0 + 0.7 * h.s1;
            assert!((h.score - expect).abs() < 1e-12);
            assert!(h.s0 >= 0.0 && h.s0 <= 1.0);
            assert!(h.s1 >= 0.0 && h.s1 <= 1.0);
        }
        // Scores are non-decreasing.
        assert!(hits.windows(2).all(|w| w[0].score <= w[1].score + 1e-12));
        // f has the max aggregate, normalised to g = 1 → s1 = 0.
        let f = hits.iter().find(|h| h.poi == PoiId(5)).unwrap();
        assert_eq!(f.s1, 0.0);
        assert_eq!(f.aggregate, 12);
    }

    #[test]
    fn shorter_interval_changes_aggregates() {
        let index = build_example(Grouping::TarIntegral);
        // Interval covering only epoch 2: f has 4, b/k/l have 1 …
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(2, 3))
            .with_k(12)
            .with_alpha0(0.3);
        let hits = index.query(&q);
        let f = hits.iter().find(|h| h.poi == PoiId(5)).unwrap();
        assert_eq!(f.aggregate, 4);
        let a = hits.iter().find(|h| h.poi == PoiId(0)).unwrap();
        assert_eq!(a.aggregate, 0);
    }

    #[test]
    fn alpha_extremes_change_winner() {
        let index = build_example(Grouping::TarIntegral);
        // Heavily spatial: the nearest POI wins regardless of aggregate.
        let q_spatial = KnntaQuery::new([9.4, 2.1], TimeInterval::days(0, 3))
            .with_k(1)
            .with_alpha0(0.99);
        let hits = index.query(&q_spatial);
        assert_eq!(hits[0].poi, PoiId(9), "j is closest");
        // Heavily aggregate: f wins from anywhere.
        let q_agg = KnntaQuery::new([9.4, 2.1], TimeInterval::days(0, 3))
            .with_k(1)
            .with_alpha0(0.01);
        let hits = index.query(&q_agg);
        assert_eq!(hits[0].poi, PoiId(5));
    }

    #[test]
    fn ingest_epoch_updates_results() {
        let (grid, bounds, pois) = paper_example();
        let mut index = TarIndex::build(
            IndexConfig::with_grouping(Grouping::TarIntegral),
            grid,
            bounds,
            pois,
        );
        // POI j suddenly becomes the hottest location in epoch 2.
        let changed = index.ingest_epoch(2, &[(PoiId(9), 100)]);
        assert_eq!(changed, 1);
        index.validate();
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
            .with_k(1)
            .with_alpha0(0.3);
        let hits = index.query(&q);
        assert_eq!(hits[0].poi, PoiId(9));
        assert_eq!(hits[0].aggregate, 102);
    }

    #[test]
    fn ingest_noop_for_zero_updates() {
        let mut index = build_example(Grouping::TarIntegral);
        assert_eq!(index.ingest_epoch(0, &[(PoiId(1), 0)]), 0);
        assert_eq!(index.ingest_epoch(0, &[]), 0);
    }

    #[test]
    fn remove_poi_works() {
        let mut index = build_example(Grouping::TarIntegral);
        assert!(index.remove_poi(PoiId(5)));
        assert!(!index.remove_poi(PoiId(5)));
        assert_eq!(index.len(), 11);
        index.validate();
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
            .with_k(1)
            .with_alpha0(0.3);
        let hits = index.query(&q);
        assert_ne!(hits[0].poi, PoiId(5));
    }

    #[test]
    fn node_accesses_counted() {
        let index = build_example(Grouping::TarIntegral);
        index.stats().reset();
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3)).with_k(3);
        let _ = index.query(&q);
        assert!(index.stats().node_accesses() >= 1);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let (grid, bounds, _) = paper_example();
        let index = TarIndex::new(IndexConfig::default(), grid, bounds);
        let q = KnntaQuery::new([1.0, 1.0], TimeInterval::days(0, 3));
        assert!(index.query(&q).is_empty());
        assert!(index.is_empty());
    }

    #[test]
    fn k_larger_than_dataset() {
        let index = build_example(Grouping::TarIntegral);
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3)).with_k(100);
        assert_eq!(index.query(&q).len(), 12);
    }

    #[test]
    fn normalizer_uses_root_max_series() {
        let index = build_example(Grouping::TarIntegral);
        // Per-epoch maxes are 3, 5, 4 (POI f dominates every epoch) so the
        // normaliser over the full interval is 12.
        assert_eq!(
            index
                .root_max_series()
                .iter()
                .collect::<Vec<_>>(),
            vec![(0, 3), (1, 5), (2, 4)]
        );
        assert_eq!(index.aggregate_normalizer(TimeInterval::days(0, 3)), 12.0);
        assert_eq!(index.aggregate_normalizer(TimeInterval::days(1, 2)), 5.0);
        // Sub-epoch interval: floored at 1.
        assert_eq!(
            index.aggregate_normalizer(TimeInterval::new(Timestamp(1), Timestamp(2))),
            1.0
        );
    }

    #[test]
    fn all_groupings_agree_on_results() {
        // Correctness is grouping-independent (Section 5: "the BFS will
        // provide the correct query results … no matter which grouping
        // strategy is used").
        let tar = build_example(Grouping::TarIntegral);
        let spa = build_example(Grouping::IndSpa);
        let agg = build_example(Grouping::IndAgg);
        for alpha0 in [0.1, 0.3, 0.5, 0.9] {
            for k in [1, 3, 12] {
                let q = KnntaQuery::new([6.5, 4.0], TimeInterval::days(0, 2))
                    .with_k(k)
                    .with_alpha0(alpha0);
                let a = tar.query(&q);
                let b = spa.query(&q);
                let c = agg.query(&q);
                let scores =
                    |hits: &[QueryHit]| hits.iter().map(|h| h.score).collect::<Vec<_>>();
                assert_eq!(scores(&a), scores(&b), "α0={alpha0} k={k}");
                assert_eq!(scores(&a), scores(&c), "α0={alpha0} k={k}");
            }
        }
    }
}

#[cfg(test)]
mod bulk_tests {
    use super::*;
    use crate::index::tests::paper_example;
    use tempora::TimeInterval;

    #[test]
    fn bulk_build_matches_incremental_answers() {
        let (grid, bounds, pois) = paper_example();
        for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
            let config = IndexConfig::with_grouping(grouping);
            let inc = TarIndex::build(config, grid.clone(), bounds, pois.clone());
            let bulk = TarIndex::build_bulk(config, grid.clone(), bounds, pois.clone());
            assert_eq!(bulk.len(), inc.len());
            for alpha0 in [0.2, 0.5, 0.8] {
                for k in [1usize, 4, 12] {
                    let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
                        .with_k(k)
                        .with_alpha0(alpha0);
                    let a = inc.query(&q);
                    let b = bulk.query(&q);
                    let scores =
                        |hits: &[QueryHit]| hits.iter().map(|h| h.score).collect::<Vec<_>>();
                    assert_eq!(scores(&a), scores(&b), "{grouping} α0={alpha0} k={k}");
                }
            }
        }
    }

    #[test]
    fn bulk_build_supports_updates_afterwards() {
        let (grid, bounds, pois) = paper_example();
        let mut index =
            TarIndex::build_bulk(IndexConfig::default(), grid, bounds, pois.clone());
        index.ingest_epoch(1, &[(pois[0].0.id, 40)]);
        let q = KnntaQuery::new(pois[0].0.pos, TimeInterval::days(0, 3))
            .with_k(1)
            .with_alpha0(0.3);
        assert_eq!(index.query(&q)[0].poi, pois[0].0.id);
        assert!(index.remove_poi(pois[0].0.id));
        assert_eq!(index.len(), pois.len() - 1);
    }
}
