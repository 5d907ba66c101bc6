//! The unified `QueryPlan` → `Executor` pipeline.
//!
//! A [`QueryPlan`] is the only selector of backend and tile, and
//! [`Executor`] the only public place that takes one: [`Executor::execute`]
//! / [`Executor::execute_batch`] run a forced plan, [`Executor::query`] /
//! [`Executor::query_batch`] plan first and feed the measurement back, and
//! [`Executor::query_tile`] does the same for one shard's part of a tile
//! under bounds shared with the other shards.
//! [`TarIndex::query`] (Algorithm 1 on the arena, the reference every oracle
//! compares against) and [`crate::SnapshotView::query`] (packed image under
//! the live overlay) fix one configuration each. All of them call
//! [`run_query`] / [`run_batch`] here, which own the dispatch logic:
//! staleness checks, context construction, observability scopes, backend
//! dispatch (in-memory / paged / packed via [`SourceOp`]) and the
//! live-snapshot overlay on the packed image. The two engines
//! ([`bfs_query_nodes`], [`collective_on_nodes`]) are single-threaded
//! drivers around the one node-expansion kernel in [`crate::search`], so
//! every configuration scores entries with the same code and answers are
//! bit-identical across plans — `tests/planner_oracle.rs` is the
//! differential proof.
//!
//! On top sits the public [`Executor`]: the cost-model-driven front door
//! that asks [`costmodel::Planner`] (paper §6, calibrated online against
//! the measured node-access counters) which configuration to run, executes
//! it, and feeds the measurement back. See `DESIGN.md` §14.

use crate::collective::{batch_attrs, collective_on_nodes, BatchOptions, BatchOrder};
use crate::frontier::SharedBound;
use crate::index::{with_tree, IndexConfig, IndexMeta, QueryCtx, TarIndex};
use crate::observe::QueryScope;
use crate::packed::{FrozenIndex, PackedSource, PackedTarTree};
use crate::poi::{KnntaQuery, Poi, QueryHit};
use crate::search::{bfs_query_nodes, entry_tia};
use crate::storage::{MemNodes, NodeSource, PagedNodes, PagedStoreImpl, StorageBackend};
use costmodel::{IndexStats, PlanBackend, Planner, QueryPlan, QuerySpec};
use knnta_obs::{Histogram, Registry, SpanId};
use rtree::{RTreeParams, Rect};
use tempora::AggregateSeries;

/// A computation over a generic node source, dispatched by
/// [`ExecEnv::with_nodes`]. This is the rank-2 trick that lets one
/// function body run against the in-memory arena (`D = 2` or `3`), either
/// paged store instantiation, or the packed image, without monomorphising
/// the call sites five times by hand.
pub(crate) trait SourceOp {
    /// The computation's result type.
    type Out;
    /// Runs the computation against one concrete node source.
    fn run<const D: usize, N: NodeSource<D>>(self, nodes: &N) -> Self::Out;
}

impl TarIndex {
    /// The fixed-plan environment for direct index queries: the index's own
    /// normaliser, staleness checks on.
    pub(crate) fn exec_env(&self) -> ExecEnv<'_> {
        ExecEnv {
            meta: &self.meta,
            arena: Some(self),
            root_max: None,
            fresh_at: Some(self.content_epoch),
            bounds: None,
        }
    }
}

/// Everything an execution needs besides the plan itself: the query space
/// and sinks, the arena tree when there is one, an optional caller-owned
/// `gmax` source, the content epoch paged/packed backends must match
/// (snapshots own their images, so they skip the check), and the `f(p_k)`
/// bounds the queries share with other shards, if any.
#[derive(Clone, Copy)]
pub(crate) struct ExecEnv<'e> {
    /// The stats / obs / grid / bounds that drive the execution.
    pub meta: &'e IndexMeta,
    /// The arena tree: what [`StorageBackend::InMemory`] traverses and
    /// where `gmax` comes from when `root_max` is `None`. A
    /// [`FrozenIndex`] has none.
    pub arena: Option<&'e TarIndex>,
    /// Root-max series for the `gmax` normaliser; `None` reads it from the
    /// arena per query (or once per batch).
    pub root_max: Option<&'e AggregateSeries>,
    /// The content epoch paged/packed backends are validated against;
    /// `None` skips the check.
    pub fresh_at: Option<u64>,
    /// One [`SharedBound`] per query, held by every shard answering the
    /// same tile; `None` runs each query under a fresh bound of its own.
    pub bounds: Option<&'e [SharedBound]>,
}

impl<'e> ExecEnv<'e> {
    fn arena(&self) -> &'e TarIndex {
        self.arena
            .expect("in-memory plan on a frozen index: there is no arena tree to traverse")
    }

    fn ctx(&self, query: &KnntaQuery) -> QueryCtx<'e> {
        let gmax = match self.root_max {
            Some(rm) => (rm.aggregate_over(&self.meta.grid, query.interval) as f64).max(1.0),
            None => self.arena().aggregate_normalizer(query.interval),
        };
        self.meta.ctx_with_normalizer(query, gmax)
    }

    fn check_backend(&self, backend: StorageBackend<'_>) {
        let Some(content_epoch) = self.fresh_at else {
            return;
        };
        match backend {
            StorageBackend::InMemory => {}
            StorageBackend::Paged(p) => p.check_fresh(content_epoch),
            StorageBackend::Packed(p) => p.check_fresh(content_epoch),
            StorageBackend::Overlaid(_) => {}
        }
    }

    /// Dispatches `op` over the node source selected by `backend` — the
    /// single place that knows how to reach all five tree instantiations
    /// (and the packed one under a live overlay).
    fn with_nodes<O: SourceOp>(&self, backend: StorageBackend<'_>, op: O) -> O::Out {
        match backend {
            StorageBackend::InMemory => with_tree!(self.arena(), t => op.run(&MemNodes(t))),
            StorageBackend::Paged(paged) => match &paged.store {
                PagedStoreImpl::D3(s) => op.run(s),
                PagedStoreImpl::D2(s) => op.run(s),
            },
            StorageBackend::Packed(packed) => op.run::<2, _>(&PackedSource(packed)),
            StorageBackend::Overlaid(overlaid) => op.run(&overlaid),
        }
    }
}

/// The single-query execution function: every single-query entry point
/// lands here with a fixed plan.
pub(crate) fn run_query(
    env: &ExecEnv<'_>,
    backend: StorageBackend<'_>,
    query: &KnntaQuery,
) -> Vec<QueryHit> {
    env.check_backend(backend);
    let ctx = env.ctx(query);
    let meta = env.meta;
    let scope = QueryScope::begin_query(&meta.obs, &meta.stats, "seq", backend, query);
    let parent = scope.as_ref().map_or(SpanId::NONE, QueryScope::span_id);
    let hits = env.with_nodes(
        backend,
        QueryOp {
            meta,
            ctx: &ctx,
            k: query.k,
            bound: env.bounds.and_then(<[_]>::first),
            parent,
        },
    );
    if let Some(scope) = scope {
        scope.finish(hits.len());
    }
    hits
}

struct QueryOp<'c> {
    meta: &'c IndexMeta,
    ctx: &'c QueryCtx<'c>,
    k: usize,
    bound: Option<&'c SharedBound>,
    parent: SpanId,
}

impl SourceOp for QueryOp<'_> {
    type Out = Vec<QueryHit>;

    /// The best-first search every single-query path runs, under the
    /// caller's bound or a fresh one when the query runs alone.
    fn run<const D: usize, N: NodeSource<D>>(self, nodes: &N) -> Vec<QueryHit> {
        let QueryOp {
            meta,
            ctx,
            k,
            bound,
            parent,
        } = self;
        let fresh = SharedBound::new();
        let bound = bound.unwrap_or(&fresh);
        bfs_query_nodes(nodes, meta, ctx, k, bound, entry_tia(ctx), parent)
    }
}

/// The collective-batch execution function: every batch entry point lands
/// here with a fixed plan.
pub(crate) fn run_batch(
    env: &ExecEnv<'_>,
    backend: StorageBackend<'_>,
    queries: &[KnntaQuery],
    opts: &BatchOptions,
) -> Vec<Vec<QueryHit>> {
    env.check_backend(backend);
    let meta = env.meta;
    let scope = QueryScope::begin(
        &meta.obs,
        &meta.stats,
        "batch",
        "collective",
        backend,
        batch_attrs(queries, opts),
    );
    let parent = scope.as_ref().map_or(SpanId::NONE, QueryScope::span_id);
    // Computed after the scope begins, exactly like the pre-refactor paths
    // (root reads are uncounted either way; see `root_max_series`).
    let owned;
    let root_max = match env.root_max {
        Some(rm) => rm,
        None => {
            owned = env.arena().root_max_series();
            &owned
        }
    };
    let results = env.with_nodes(
        backend,
        BatchOp {
            meta,
            root_max,
            queries,
            bounds: env.bounds,
            opts,
            parent,
        },
    );
    if let Some(scope) = scope {
        scope.finish(results.iter().map(Vec::len).sum());
    }
    results
}

struct BatchOp<'c> {
    meta: &'c IndexMeta,
    root_max: &'c AggregateSeries,
    queries: &'c [KnntaQuery],
    bounds: Option<&'c [SharedBound]>,
    opts: &'c BatchOptions,
    parent: SpanId,
}

impl SourceOp for BatchOp<'_> {
    type Out = Vec<Vec<QueryHit>>;

    fn run<const D: usize, N: NodeSource<D>>(self, nodes: &N) -> Vec<Vec<QueryHit>> {
        let BatchOp {
            meta,
            root_max,
            queries,
            bounds,
            opts,
            parent,
        } = self;
        let fresh: Vec<SharedBound>;
        let bounds = match bounds {
            Some(bounds) => bounds,
            None => {
                fresh = queries.iter().map(|_| SharedBound::new()).collect();
                &fresh
            }
        };
        collective_on_nodes(nodes, meta, root_max, queries, bounds, opts, parent)
    }
}

// ---------------------------------------------------------------------------
// Planner integration: IndexStats extraction + the public Executor.
// ---------------------------------------------------------------------------

impl TarIndex {
    /// A planning-time [`costmodel::IndexStats`] snapshot of this index:
    /// shape (POI/node counts, height, effective fanout from the configured
    /// node size), the full-span per-POI aggregate sample the power-law fit
    /// runs on, and the clustering-aware support area. Packed availability
    /// is left `false` — [`Executor`] fills it in from the images actually
    /// attached.
    pub fn index_stats(&self) -> IndexStats {
        let mut by_id = self.leaf_entries();
        by_id.sort_by_key(|(poi, _)| poi.id);
        index_stats_of(
            self.config(),
            self.bounds(),
            self.node_count(),
            self.height() as usize + 1,
            &by_id,
        )
    }
}

/// The planner's inputs for a POI table in ascending-id order (a canonical
/// order: the power-law fit sums floats in sample order, so the arena and
/// the frozen index must present the same sequence to plan bit-equally).
/// `node_count` / `height` are whichever tree the caller has — the arena's
/// or the packed image's; they only cap the calibrated estimate and feed the
/// degenerate-sample fallback.
pub(crate) fn index_stats_of(
    config: IndexConfig,
    bounds: &Rect<2>,
    node_count: usize,
    height: usize,
    by_id: &[(Poi, &AggregateSeries)],
) -> IndexStats {
    let aggregates: Vec<u64> = by_id.iter().map(|(_, s)| s.total()).collect();
    let positions: Vec<[f64; 2]> = by_id.iter().map(|(p, _)| p.pos).collect();
    let support_area = costmodel::estimate_support_area(&positions, (bounds.min, bounds.max));
    let params = RTreeParams::for_node_size(config.node_size, config.grouping.dims());
    IndexStats {
        n: by_id.len(),
        node_count,
        height,
        fanout: costmodel::effective_fanout(params.max_entries),
        aggregates,
        support_area,
        packed_available: false,
    }
}

/// The cost-model-driven query front door: plans each query with
/// [`costmodel::Planner`] (paper-§6 node-access estimates, calibrated
/// online against the measured counters), executes the chosen
/// configuration through the unified executor, and feeds the measurement
/// back so estimates converge to observed costs.
///
/// Attach materialised serving tiers with [`Executor::with_paged`] /
/// [`Executor::with_packed`]; the planner picks the packed image when one
/// is attached and never the paged one, which only a forced plan runs.
/// Plan choice never affects answers — every configuration is
/// bit-identical (`tests/planner_oracle.rs`) — only latency.
///
/// ```
/// use knnta_core::{Executor, Grouping, IndexConfig, KnntaQuery, Poi, TarIndex};
/// use tempora::{AggregateSeries, EpochGrid, TimeInterval};
///
/// let grid = EpochGrid::fixed_days(1, 3);
/// let bounds = rtree::Rect::new([0.0, 0.0], [10.0, 10.0]);
/// let pois = (0..40).map(|i| {
///     (
///         Poi::new(i, (i % 8) as f64, (i / 8) as f64),
///         AggregateSeries::from_pairs([(0, 1 + (i as u64 * 7) % 23)]),
///     )
/// });
/// let index = TarIndex::build(IndexConfig::default(), grid, bounds, pois);
/// let packed = index.pack();
///
/// let mut exec = Executor::new(&index).with_packed(&packed);
/// let q = KnntaQuery::new([2.0, 3.0], TimeInterval::days(0, 3)).with_k(5);
/// let hits = exec.query(&q);
/// assert_eq!(hits, index.query(&q)); // plan choice never changes answers
/// let plan = exec.last_plan().expect("a plan was chosen");
/// assert!(plan.estimated_node_accesses > 0.0);
/// ```
pub struct Executor<'a> {
    base: Base<'a>,
    paged: Option<&'a PagedNodes>,
    packed: Option<&'a PackedTarTree>,
    root_max: Option<&'a AggregateSeries>,
    planner: Planner,
    /// `(content epoch, stats, stats fingerprint)` — the fingerprint is
    /// hashed once per epoch and handed to [`Planner::plan_keyed`].
    stats: Option<(u64, IndexStats, u64)>,
    last_plan: Option<QueryPlan>,
    /// Sliding-window measured/estimated cost-ratio histogram (×1000),
    /// attached via [`Executor::with_windows`].
    ratio_window: Option<Histogram>,
}

/// What an [`Executor`] runs over: an arena index (which may mutate between
/// queries), or a frozen image + metadata.
#[derive(Clone, Copy)]
enum Base<'a> {
    Arena(&'a TarIndex),
    Frozen(&'a FrozenIndex),
}

impl<'a> Base<'a> {
    fn meta(self) -> &'a IndexMeta {
        match self {
            Base::Arena(index) => &index.meta,
            Base::Frozen(frozen) => &frozen.meta,
        }
    }

    fn content_epoch(self) -> u64 {
        match self {
            Base::Arena(index) => index.content_epoch,
            Base::Frozen(frozen) => frozen.packed.built_at(),
        }
    }

    fn index_stats(self) -> IndexStats {
        match self {
            Base::Arena(index) => index.index_stats(),
            Base::Frozen(frozen) => frozen.plan_stats.clone(),
        }
    }
}

impl<'a> Executor<'a> {
    /// Name of the windowed measured/estimated cost-ratio histogram
    /// (values ×1000; see [`Executor::with_windows`]).
    pub const RATIO_METRIC: &'static str = "knnta.core.plan.ratio_x1000";
    /// Window ratios required before the median recalibration engages.
    pub const RECALIBRATE_MIN_SAMPLES: u64 = 16;

    /// An executor over `index` with a fresh (identity-calibrated) planner
    /// and no extra serving tiers attached.
    pub fn new(index: &'a TarIndex) -> Executor<'a> {
        Self::over(Base::Arena(index))
    }

    fn over(base: Base<'a>) -> Executor<'a> {
        Executor {
            base,
            paged: None,
            packed: None,
            root_max: None,
            planner: Planner::new(),
            stats: None,
            last_plan: None,
            ratio_window: None,
        }
    }

    /// An executor over a [`FrozenIndex`]: its packed image attached, its
    /// own root-max as the `gmax` source (override with
    /// [`Executor::with_root_max`]), no arena tree — the planner never picks
    /// the in-memory backend. Plans and answers are bit-equal to
    /// `Executor::new(&index).with_packed(&index.pack())` over a
    /// [`TarIndex`] built from the same POIs.
    pub fn frozen(frozen: &'a FrozenIndex) -> Executor<'a> {
        Executor {
            packed: Some(&frozen.packed),
            root_max: Some(&frozen.root_max),
            ..Self::over(Base::Frozen(frozen))
        }
    }

    /// Makes a paged node snapshot available to forced plans (the planner
    /// never picks it). The image must stay fresh: executing a plan against
    /// a stale image panics.
    pub fn with_paged(mut self, paged: &'a PagedNodes) -> Executor<'a> {
        self.paged = Some(paged);
        self
    }

    /// Makes a packed serving image available to the planner (same
    /// freshness contract as [`Executor::with_paged`]).
    pub fn with_packed(mut self, packed: &'a PackedTarTree) -> Executor<'a> {
        self.packed = Some(packed);
        self
    }

    /// Overrides the `gmax` normaliser source with a caller-owned root-max
    /// series. A shard of a partitioned index passes the *global* root-max
    /// here so its scores are bit-identical to the unsharded tree's —
    /// `TiaAug` keeps internal entries as per-epoch maxima of their
    /// children, so the global root-max equals the per-epoch max over every
    /// POI series regardless of how the POIs are partitioned.
    pub fn with_root_max(mut self, root_max: &'a AggregateSeries) -> Executor<'a> {
        self.root_max = Some(root_max);
        self
    }

    /// The fixed execution environment every plan runs under: freshness
    /// checks on, the optional caller-owned normaliser.
    fn env(&self) -> ExecEnv<'a> {
        ExecEnv {
            meta: self.base.meta(),
            arena: match self.base {
                Base::Arena(index) => Some(index),
                Base::Frozen(_) => None,
            },
            root_max: self.root_max,
            fresh_at: Some(self.base.content_epoch()),
            bounds: None,
        }
    }

    /// The planner (estimates + calibration state).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Seeds the executor with a previously-accumulated planner, so EWMA
    /// calibration survives the executor being rebuilt.
    pub fn with_planner(mut self, planner: Planner) -> Executor<'a> {
        self.planner = planner;
        self
    }

    /// The plan chosen by the most recent [`Executor::plan`] /
    /// [`Executor::query`] / [`Executor::query_batch`] call.
    pub fn last_plan(&self) -> Option<&QueryPlan> {
        self.last_plan.as_ref()
    }

    /// Streams planner feedback into a live-telemetry window: every
    /// measured/estimated node-access ratio is recorded (×1000) into the
    /// [`Executor::RATIO_METRIC`] sliding-window histogram of `windows`,
    /// and once the window holds [`Executor::RECALIBRATE_MIN_SAMPLES`]
    /// ratios the calibration factor is snapped to the window *median*
    /// ([`Planner::recalibrate`]) on top of the per-query EWMA — robust to
    /// outliers, and forgetting stale workload regimes as the window
    /// rotates. Plan choice never changes answers, so attaching a window
    /// is always answer-safe (the planner-oracle suite pins this).
    pub fn with_windows(mut self, windows: &Registry) -> Executor<'a> {
        if windows.is_enabled() {
            self.ratio_window =
                Some(windows.histogram(Self::RATIO_METRIC, knnta_obs::bounds::RATIO_X1000));
        }
        self
    }

    /// Records one feedback ratio into the attached window and periodically
    /// snaps the calibration to the window median.
    fn window_feedback(&mut self, plan: &QueryPlan, measured: u64) {
        let Some(hist) = &self.ratio_window else { return };
        if !(plan.model_node_accesses > 0.0) {
            return;
        }
        let ratio = measured as f64 / plan.model_node_accesses;
        hist.record((ratio * 1000.0).round() as u64);
        if hist.window_count() >= Self::RECALIBRATE_MIN_SAMPLES {
            self.planner.recalibrate(hist.quantile(0.5) as f64 / 1000.0);
        }
    }

    /// The planning-time index snapshot the next plan will be based on
    /// (cached per content epoch, with backend availability filled in).
    pub fn index_stats(&mut self) -> &IndexStats {
        self.refresh_stats();
        &self.stats.as_ref().expect("refreshed above").1
    }

    fn refresh_stats(&mut self) {
        let epoch = self.base.content_epoch();
        if !matches!(&self.stats, Some((e, ..)) if *e == epoch) {
            let stats = self.base.index_stats();
            let fp = stats.fingerprint();
            self.stats = Some((epoch, stats, fp));
        }
        self.stats.as_mut().expect("just set").1.packed_available = self.packed.is_some();
    }

    fn plan_spec(&mut self, spec: QuerySpec) -> QueryPlan {
        self.refresh_stats();
        let (_, stats, fp) = self.stats.as_ref().expect("refreshed above");
        let plan = self.planner.plan_keyed(&spec, stats, *fp);
        self.last_plan = Some(plan);
        plan
    }

    /// Plans (without executing) a single query.
    pub fn plan(&mut self, query: &KnntaQuery) -> QueryPlan {
        self.plan_spec(QuerySpec::single(query.k, query.alpha0))
    }

    /// Plans (without executing) a collective batch.
    pub fn plan_batch(&mut self, queries: &[KnntaQuery]) -> QueryPlan {
        let k = queries.iter().map(|q| q.k).max().unwrap_or(0);
        let alpha0 = queries.first().map_or(0.5, |q| q.alpha0);
        self.plan_spec(QuerySpec {
            k,
            alpha0,
            batch: queries.len().max(1),
        })
    }

    fn backend_of(&self, plan: &QueryPlan) -> StorageBackend<'a> {
        match plan.backend {
            PlanBackend::InMemory => StorageBackend::InMemory,
            PlanBackend::Paged => StorageBackend::Paged(
                self.paged.expect("plan chose a paged backend that was never attached"),
            ),
            PlanBackend::Packed => StorageBackend::Packed(
                self.packed.expect("plan chose a packed backend that was never attached"),
            ),
        }
    }

    /// Runs `query` under `plan` — the planner's, or one whose `backend` the
    /// caller overwrote to force a configuration (no feedback).
    /// Every plan returns the same answer, bit for bit.
    ///
    /// # Panics
    ///
    /// A forced plan is the caller's claim about this executor; it panics on
    ///
    /// * a [`PlanBackend::Paged`] / [`PlanBackend::Packed`] plan with no such
    ///   image attached ([`Executor::with_paged`] / [`Executor::with_packed`]),
    /// * [`PlanBackend::InMemory`] on an [`Executor::frozen`] (there is no
    ///   arena tree),
    /// * a stale image (the index changed since it was materialised).
    pub fn execute(&self, query: &KnntaQuery, plan: &QueryPlan) -> Vec<QueryHit> {
        self.execute_in(&self.env(), query, plan)
    }

    fn execute_in(&self, env: &ExecEnv<'_>, query: &KnntaQuery, plan: &QueryPlan) -> Vec<QueryHit> {
        run_query(env, self.backend_of(plan), query)
    }

    /// Runs `queries` as one collective batch (paper §7.2) under `plan`'s
    /// backend and tile size (`0` is treated as 1), scheduled in `order` —
    /// the batch twin of [`Executor::execute`]. One result list per query, in
    /// input order, each bit-identical to [`Executor::execute`]'s answer for
    /// that query; node accesses are counted once per physical fetch.
    ///
    /// # Panics
    ///
    /// As [`Executor::execute`].
    pub fn execute_batch(
        &self,
        queries: &[KnntaQuery],
        plan: &QueryPlan,
        order: BatchOrder,
    ) -> Vec<Vec<QueryHit>> {
        self.execute_batch_in(&self.env(), queries, plan, order)
    }

    fn execute_batch_in(
        &self,
        env: &ExecEnv<'_>,
        queries: &[KnntaQuery],
        plan: &QueryPlan,
        order: BatchOrder,
    ) -> Vec<Vec<QueryHit>> {
        let opts = BatchOptions {
            order,
            tile: plan.tile,
        };
        run_batch(env, self.backend_of(plan), queries, &opts)
    }

    /// Feeds the node accesses `run` caused back into the calibration.
    fn measured<T>(&mut self, plan: &QueryPlan, run: impl FnOnce(&Self) -> T) -> T {
        let before = self.base.meta().stats.snapshot().node_accesses;
        let out = run(self);
        let after = self.base.meta().stats.snapshot().node_accesses;
        let measured = after.saturating_sub(before);
        self.planner.feedback(plan, measured);
        self.window_feedback(plan, measured);
        out
    }

    /// Plans and answers one query, feeding the measured node accesses back
    /// into the calibration.
    pub fn query(&mut self, query: &KnntaQuery) -> Vec<QueryHit> {
        let plan = self.plan(query);
        self.measured(&plan, |exec| exec.execute(query, &plan))
    }

    /// Plans and answers a collective batch (adaptive tile size, Hilbert
    /// order), feeding measured node accesses back.
    pub fn query_batch(&mut self, queries: &[KnntaQuery]) -> Vec<Vec<QueryHit>> {
        let plan = self.plan_batch(queries);
        self.measured(&plan, |exec| exec.execute_batch(queries, &plan, BatchOrder::Hilbert))
    }

    /// Plans and answers this executor's part of a tile whose queries other
    /// searches — the other shards of a partitioned index — answer too:
    /// [`Executor::query`] for one query, [`Executor::query_batch`] for
    /// more, feeding measured node accesses back either way.
    ///
    /// Query `i` prunes against `bounds[i]` and publishes its own k-th
    /// score there, so each search stops as soon as the hits found anywhere
    /// rule out the rest of its tree. A returned list then holds every hit
    /// of this executor's index that can rank in the global top `k` — ties
    /// with the bound included — and may be shorter than `k`;
    /// [`crate::merge_ranked`] over every holder's lists is the answer of
    /// one search over all the data, bit for bit. With a fresh bound per
    /// query and no other holder, the lists equal [`Executor::query_batch`]'s.
    ///
    /// # Panics
    ///
    /// If `bounds` and `queries` differ in length.
    pub fn query_tile(
        &mut self,
        queries: &[KnntaQuery],
        bounds: &[SharedBound],
    ) -> Vec<Vec<QueryHit>> {
        assert_eq!(queries.len(), bounds.len(), "one bound per query");
        let env = ExecEnv {
            bounds: Some(bounds),
            ..self.env()
        };
        if let [query] = queries {
            let plan = self.plan(query);
            vec![self.measured(&plan, |exec| exec.execute_in(&env, query, &plan))]
        } else {
            let plan = self.plan_batch(queries);
            let order = BatchOrder::Hilbert;
            self.measured(&plan, |exec| {
                exec.execute_batch_in(&env, queries, &plan, order)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::paper_example;
    use crate::index::{Grouping, IndexConfig};
    use tempora::TimeInterval;

    fn build(grouping: Grouping) -> TarIndex {
        let (grid, bounds, pois) = paper_example();
        TarIndex::build(IndexConfig::with_grouping(grouping), grid, bounds, pois)
    }

    #[test]
    fn executor_answers_match_direct_queries() {
        for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
            let index = build(grouping);
            let mut exec = Executor::new(&index);
            for k in [1, 3, 12] {
                let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
                    .with_k(k)
                    .with_alpha0(0.3);
                let got = exec.query(&q);
                let want = index.query(&q);
                assert_eq!(got.len(), want.len(), "{grouping} k={k}");
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(
                        (a.poi, a.score.to_bits()),
                        (b.poi, b.score.to_bits()),
                        "{grouping} k={k}"
                    );
                }
            }
            assert!(exec.planner().calibration().samples() > 0, "feedback ran");
        }
    }

    #[test]
    fn executor_window_feedback_records_ratios_and_recalibrates() {
        let index = build(Grouping::TarIntegral);
        let windows = Registry::new(4);
        let mut exec = Executor::new(&index).with_windows(&windows);
        let mut plain = Executor::new(&index);
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
            .with_k(3)
            .with_alpha0(0.3);
        for _ in 0..(Executor::RECALIBRATE_MIN_SAMPLES + 4) {
            let got = exec.query(&q);
            // Window attachment never changes answers.
            assert_eq!(got, plain.query(&q));
        }
        let hist = windows.histogram(Executor::RATIO_METRIC, knnta_obs::bounds::RATIO_X1000);
        assert!(hist.window_count() >= Executor::RECALIBRATE_MIN_SAMPLES);
        // The median recalibration ran on top of the per-query EWMA.
        assert!(
            exec.planner().calibration().samples() > plain.planner().calibration().samples()
        );
        // A disabled window registry attaches nothing.
        let exec = Executor::new(&index).with_windows(&Registry::default());
        assert!(exec.ratio_window.is_none());
    }

    #[test]
    fn executor_prefers_attached_packed_image() {
        let index = build(Grouping::TarIntegral);
        let packed = index.pack();
        let mut exec = Executor::new(&index).with_packed(&packed);
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3)).with_k(3);
        let hits = exec.query(&q);
        assert_eq!(exec.last_plan().unwrap().backend, PlanBackend::Packed);
        assert_eq!(hits.len(), index.query(&q).len());
    }

    #[test]
    fn executor_batch_matches_collective() {
        let index = build(Grouping::TarIntegral);
        let queries: Vec<KnntaQuery> = (0..6)
            .map(|i| {
                KnntaQuery::new([1.0 + i as f64, 2.0 + i as f64], TimeInterval::days(0, 3))
                    .with_k(4)
            })
            .collect();
        let mut exec = Executor::new(&index);
        let got = exec.query_batch(&queries);
        let plan = *exec.last_plan().unwrap();
        assert_eq!(got, exec.execute_batch(&queries, &plan, BatchOrder::Hilbert));
        let individual: Vec<_> = queries.iter().map(|q| index.query(q)).collect();
        assert_eq!(got, individual);
    }
}
