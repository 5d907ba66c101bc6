//! Collective (batched) query processing (Section 7.2).
//!
//! A batch of kNNTA queries runs one best-first search per query, but the
//! physical node fetches are shared. That pays where a fetch costs work of
//! its own, the paged store's page decode and buffer pool; on the packed
//! image a fetch is two index computations and every waiting query still
//! expands the node itself, so the service's shards answer their tiles one
//! query at a time ([`crate::Executor::query_tile`]) and this engine serves
//! [`crate::Executor::execute_batch`] / [`crate::Executor::query_batch`]
//! (DESIGN.md §10 has the measurement).
//!
//! * **Hilbert ordering.** The batch is sorted along a 3-D Hilbert curve
//!   over `(x, y, Iq midpoint)` (see [`crate::hilbert`]) and processed in
//!   fixed-size locality *tiles*. Queries inside a tile open near-identical
//!   frontiers, so the greedy "most frequent front entry first" rule of the
//!   paper fetches each hot node once for the whole tile — and the paged
//!   backend's buffer pool stays resident on the tile's subtree.
//! * **One normaliser per interval class.** `g(p, Iq)` depends on `Iq` only
//!   through its contained-epoch range, so the `f(p_k)` normaliser `gmax`
//!   is computed once per distinct range, not once per query.
//!
//! Every per-query traversal is the *same* bound-pruned best-first search as
//! [`TarIndex::query`] — each fetched node goes through the one expansion
//! kernel ([`crate::search`]) for every query waiting on it, and a query
//! stops at the first frontier node whose lower bound exceeds its `f(p_k)` —
//! so the batch answers are bit-identical to the individual ones, per
//! query, on every storage backend (`tests/batch_oracle.rs` is the
//! differential oracle). Node accesses are counted once per physical fetch,
//! and since each fetch serves at least one query's pop (whose pop set
//! equals its individual search's), collective accesses never exceed
//! individual accesses.

use crate::frontier::{SharedBound, WorkerHits};
use crate::hilbert;
use crate::index::{IndexMeta, QueryCtx, TarIndex};
use crate::observe::{self, Counts, NoProbe, Probe};
use crate::poi::{KnntaQuery, QueryHit};
use crate::search::{entry_tia, expand_node, NodeCand};
use crate::storage::{NodeSource, NodeView};
use knnta_obs::{AttrValue, SpanId};
use rtree::NodeId;
use std::collections::{BinaryHeap, HashMap};

/// How a collective batch is ordered before tiling (the `--batch-order`
/// CLI flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchOrder {
    /// Hilbert-curve locality order over `(x, y, Iq midpoint)`.
    #[default]
    Hilbert,
    /// The queries' input order (the naive scheduler).
    Input,
}

impl BatchOrder {
    /// Parses a CLI name (`hilbert` | `input`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "hilbert" => Some(BatchOrder::Hilbert),
            "input" => Some(BatchOrder::Input),
            _ => None,
        }
    }
}

impl std::fmt::Display for BatchOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BatchOrder::Hilbert => "hilbert",
            BatchOrder::Input => "input",
        })
    }
}

/// The schedule of one collective batch ([`crate::Executor::execute_batch`]
/// builds it from its `order` argument and the plan's tile). Every setting
/// preserves the answers; only the schedule and the amount of sharing
/// change.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchOptions {
    /// Batch ordering.
    pub order: BatchOrder,
    /// Queries per locality tile; node fetches are shared within a tile
    /// (`0` is treated as 1).
    pub tile: usize,
}

/// Per-axis Hilbert precision of the batch ordering: 16 bits × 3 axes keeps
/// the key in one `u64` with far finer cells than any realistic batch needs.
/// The packed bulk-load ([`crate::PackedTarTree`]) reuses the same precision
/// so both locality orderings quantize identically.
pub(crate) const HILBERT_BITS: u32 = 16;

impl TarIndex {
    /// The processing order a collective batch
    /// ([`crate::Executor::execute_batch`]) uses for `queries`: a permutation
    /// of `0..queries.len()`.
    ///
    /// The Hilbert order is a pure function of the query *values* — ties on
    /// the curve key are broken by the full query content — so it is
    /// deterministic under permutation of the batch: reordering the input
    /// permutes the returned indices but never the visit sequence of the
    /// query values themselves (`crates/core/tests/hilbert_props.rs` pins
    /// this down).
    pub fn batch_order(&self, queries: &[KnntaQuery], order: BatchOrder) -> Vec<usize> {
        self.meta.batch_order(queries, order)
    }
}

impl IndexMeta {
    /// [`TarIndex::batch_order`] — a function of the query space alone.
    pub(crate) fn batch_order(&self, queries: &[KnntaQuery], order: BatchOrder) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..queries.len()).collect();
        if order == BatchOrder::Input {
            return idx;
        }
        let grid = &self.grid;
        let t0 = grid.t0().seconds() as f64;
        let span = (grid.tc().seconds() - grid.t0().seconds()) as f64;
        let keys: Vec<u64> = queries
            .iter()
            .map(|q| {
                let p = self.norm(q.point);
                let mid =
                    0.5 * (q.interval.start().seconds() as f64 + q.interval.end().seconds() as f64);
                let t = if span > 0.0 { (mid - t0) / span } else { 0.0 };
                hilbert::hilbert_key([p[0], p[1], t], HILBERT_BITS)
            })
            .collect();
        // Tie-break by full query content (then input position, which only
        // separates byte-identical — hence interchangeable — queries), so
        // the order is a function of the multiset of queries, not of their
        // arrival order.
        let content = |q: &KnntaQuery| {
            (
                q.point[0].to_bits(),
                q.point[1].to_bits(),
                q.interval.start().seconds(),
                q.interval.end().seconds(),
                q.k,
                q.alpha0.to_bits(),
            )
        };
        idx.sort_by(|&a, &b| {
            keys[a]
                .cmp(&keys[b])
                .then_with(|| content(&queries[a]).cmp(&content(&queries[b])))
                .then(a.cmp(&b))
        });
        idx
    }
}

/// The root `batch` span's attributes: batch size and schedule knobs.
pub(crate) fn batch_attrs(queries: &[KnntaQuery], opts: &BatchOptions) -> Vec<(String, AttrValue)> {
    vec![
        ("queries".to_string(), AttrValue::from(queries.len() as u64)),
        ("order".to_string(), AttrValue::from(opts.order.to_string())),
        ("tile".to_string(), AttrValue::from(opts.tile as u64)),
    ]
}

/// One query's in-flight state: the same bound-pruned best-first search as
/// [`crate::search::bfs_query_nodes`], suspended whenever it needs a node
/// fetched.
struct BatchQuery<'a> {
    ctx: QueryCtx<'a>,
    /// Node frontier (min-heap on `(key, NodeId)`).
    heap: BinaryHeap<NodeCand>,
    hits: WorkerHits<'a>,
}

impl BatchQuery<'_> {
    /// The node the query needs next: its frontier front, unless the front's
    /// lower bound already exceeds `f(p_k)` — then the query is finished and
    /// the rest of its frontier is dropped, exactly like the individual
    /// search's early exit.
    fn front(&mut self) -> Option<NodeId> {
        match self.heap.peek() {
            Some(cand) if cand.key <= self.hits.bound() => Some(cand.id),
            Some(_) => {
                self.heap.clear();
                None
            }
            None => None,
        }
    }
}

/// Re-files a query under the bucket of its next front node (or retires it).
fn park(
    qi: usize,
    st: &mut BatchQuery<'_>,
    buckets: &mut HashMap<NodeId, Vec<usize>>,
    sizes: &mut BinaryHeap<(usize, NodeId)>,
) {
    if let Some(front) = st.front() {
        let bucket = buckets.entry(front).or_default();
        bucket.push(qi);
        sizes.push((bucket.len(), front));
    }
}

/// The collective traversal over any node source.
///
/// Within a tile, queries are bucketed by their front node and a lazy
/// max-heap on bucket sizes implements the paper's greedy "most frequent
/// front entry first" rule; each physical fetch is consumed by every query
/// currently waiting on that node.
///
/// `root_max` is the per-epoch root maximum the `f(p_k)` normaliser `gmax`
/// is computed from — the index's own [`TarIndex::root_max_series`] for
/// plain batches, or a live snapshot's overlay-adjusted series (which keeps
/// batch answers bit-identical to a merged index).
///
/// Every query runs under a fresh [`SharedBound`] of its own.
pub(crate) fn collective_on_nodes<const D: usize, N: NodeSource<D>>(
    nodes: &N,
    meta: &IndexMeta,
    root_max: &tempora::AggregateSeries,
    queries: &[KnntaQuery],
    opts: &BatchOptions,
    parent: SpanId,
) -> Vec<Vec<QueryHit>> {
    if meta.obs.is_enabled() {
        run_tiles::<D, N, Counts>(nodes, meta, root_max, queries, opts, parent)
    } else {
        run_tiles::<D, N, NoProbe>(nodes, meta, root_max, queries, opts, parent)
    }
}

/// [`collective_on_nodes`] for one probe type; each tile gets a fresh probe,
/// published as its `batch.tile` span's phases.
fn run_tiles<const D: usize, N: NodeSource<D>, P: Probe>(
    nodes: &N,
    meta: &IndexMeta,
    root_max: &tempora::AggregateSeries,
    queries: &[KnntaQuery],
    opts: &BatchOptions,
    parent: SpanId,
) -> Vec<Vec<QueryHit>> {
    let (stats, obs) = (&meta.stats, &meta.obs);
    let mut results: Vec<Vec<QueryHit>> = vec![Vec::new(); queries.len()];
    // Empty batches, all-k=0 batches and empty trees terminate here, before
    // any tree access (including the root-TIA normaliser scan).
    let active: Vec<usize> = (0..queries.len()).filter(|&i| queries[i].k > 0).collect();
    if active.is_empty() || nodes.is_empty() {
        return results;
    }

    let order: Vec<usize> = {
        let picked: Vec<KnntaQuery> = active.iter().map(|&i| queries[i]).collect();
        meta.batch_order(&picked, opts.order)
            .into_iter()
            .map(|i| active[i])
            .collect()
    };

    // Queries are grouped by contained-epoch range (the paper groups by
    // identical interval; ranges subsume that) and the shared `gmax`
    // normaliser is computed once per distinct range — identical to the
    // per-query value of `aggregate_normalizer`, which also only depends on
    // the range.
    let grid = &meta.grid;
    let mut gmax_of: HashMap<(usize, usize), f64> = HashMap::new();
    let root = nodes.root();

    for (ti, tile) in order.chunks(opts.tile.max(1)).enumerate() {
        let tile_start = obs.now_ns();
        let mut probe = P::default();
        let bounds: Vec<SharedBound> = tile.iter().map(|_| SharedBound::new()).collect();
        let mut states: HashMap<usize, BatchQuery<'_>> = tile
            .iter()
            .zip(&bounds)
            .map(|(&qi, bound)| {
                let q = &queries[qi];
                let r = grid.epochs_within(q.interval);
                let gmax = *gmax_of
                    .entry((r.start, r.end))
                    .or_insert_with(|| (root_max.sum_range(r) as f64).max(1.0));
                let mut heap = BinaryHeap::new();
                heap.push(NodeCand { key: 0.0, id: root });
                (
                    qi,
                    BatchQuery {
                        ctx: meta.ctx_with_normalizer(q, gmax),
                        heap,
                        hits: WorkerHits::new(q.k, bound),
                    },
                )
            })
            .collect();

        // Buckets of queries waiting on the same front node, with a lazy
        // max-heap on (bucket size, node) selecting the hottest node next.
        let mut buckets: HashMap<NodeId, Vec<usize>> = HashMap::new();
        let mut sizes: BinaryHeap<(usize, NodeId)> = BinaryHeap::new();
        for &qi in tile {
            let st = states.get_mut(&qi).expect("tile query has state");
            park(qi, st, &mut buckets, &mut sizes);
        }

        while let Some((count, node_id)) = sizes.pop() {
            // Skip stale heap entries: the bucket was already consumed, or
            // it grew and a larger entry for it exists.
            match buckets.get(&node_id) {
                Some(waiting) if waiting.len() == count => {}
                _ => continue,
            }
            let waiting = buckets.remove(&node_id).expect("bucket just checked");
            probe.busy(|probe| {
                nodes.with_node(node_id, probe, |node, probe| {
                    stats.record_node_access();
                    if node.is_leaf() {
                        stats.record_leaf_access();
                    }
                    for qi in waiting {
                        let st = states.get_mut(&qi).expect("waiting query has state");
                        debug_assert_eq!(st.heap.peek().map(|c| c.id), Some(node_id));
                        st.heap.pop();
                        let BatchQuery { ctx, heap, hits } = &mut *st;
                        let push = |cand| heap.push(cand);
                        expand_node(node, node_id, ctx, &entry_tia(ctx), hits, push, probe);
                        park(qi, st, &mut buckets, &mut sizes);
                    }
                })
            });
        }

        if P::ON {
            if let Some(tracer) = obs.tracer() {
                let tile_end = tracer.now_ns().max(tile_start);
                let span = tracer.add_span(
                    "batch.tile",
                    parent,
                    tile_start,
                    tile_end,
                    vec![
                        ("tile".to_string(), AttrValue::from(ti as u64)),
                        ("queries".to_string(), AttrValue::from(tile.len() as u64)),
                    ],
                );
                observe::emit_phase_spans(obs, span, tile_start, tile_end, &probe.counts());
            }
            obs.counter(observe::M_BATCH_TILES).inc();
            obs.counter(observe::M_BATCH_QUERIES).add(tile.len() as u64);
        }

        for (qi, st) in states {
            results[qi] = st.hits.into_sorted_vec();
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::paper_example;
    use crate::index::{Grouping, IndexConfig};
    use crate::plan::run_batch;
    use crate::storage::StorageBackend;
    use tempora::TimeInterval;

    /// The in-memory collective batch under an explicit schedule.
    fn collective(
        index: &TarIndex,
        batch: &[KnntaQuery],
        order: BatchOrder,
        tile: usize,
    ) -> Vec<Vec<QueryHit>> {
        let opts = BatchOptions { order, tile };
        run_batch(&index.exec_env(), StorageBackend::InMemory, batch, &opts)
    }

    /// The "individual" baseline: every query pays its own node accesses.
    fn individual(index: &TarIndex, batch: &[KnntaQuery]) -> Vec<Vec<QueryHit>> {
        batch.iter().map(|q| index.query(q)).collect()
    }

    fn example(grouping: Grouping) -> TarIndex {
        let (grid, bounds, pois) = paper_example();
        TarIndex::build(IndexConfig::with_grouping(grouping), grid, bounds, pois)
    }

    fn mixed_batch() -> Vec<KnntaQuery> {
        vec![
            KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
                .with_k(3)
                .with_alpha0(0.3),
            KnntaQuery::new([9.4, 2.1], TimeInterval::days(1, 3))
                .with_k(1)
                .with_alpha0(0.9),
            KnntaQuery::new([1.0, 9.0], TimeInterval::days(0, 1))
                .with_k(5)
                .with_alpha0(0.5),
            KnntaQuery::new([6.0, 5.0], TimeInterval::days(0, 2))
                .with_k(12)
                .with_alpha0(0.2),
            KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
                .with_k(3)
                .with_alpha0(0.3),
        ]
    }

    fn assert_bit_identical(a: &[Vec<QueryHit>], b: &[Vec<QueryHit>], tag: &str) {
        assert_eq!(a.len(), b.len(), "{tag}");
        for (i, (xs, ys)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(xs.len(), ys.len(), "{tag} query {i}");
            for (x, y) in xs.iter().zip(ys) {
                assert_eq!(x.poi, y.poi, "{tag} query {i}");
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "{tag} query {i}");
                assert_eq!(x.aggregate, y.aggregate, "{tag} query {i}");
            }
        }
    }

    #[test]
    fn collective_matches_individual_results() {
        let batch = mixed_batch();
        for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
            let index = example(grouping);
            let want = individual(&index, &batch);
            for order in [BatchOrder::Hilbert, BatchOrder::Input] {
                let got = collective(&index, &batch, order, 64);
                assert_bit_identical(&got, &want, &format!("{grouping} {order}"));
            }
        }
    }

    #[test]
    fn collective_shares_node_accesses() {
        let index = example(Grouping::TarIntegral);
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
            .with_k(3)
            .with_alpha0(0.3);
        let batch = vec![q; 20];

        index.stats().reset();
        let _ = individual(&index, &batch);
        let individual = index.stats().node_accesses();

        index.stats().reset();
        let _ = collective(&index, &batch, BatchOrder::Hilbert, 64);
        let shared = index.stats().node_accesses();

        assert!(shared >= 1);
        assert!(
            shared * 10 <= individual,
            "expected ≥10× sharing on identical queries, got {shared} vs {individual}"
        );
    }

    #[test]
    fn collective_never_exceeds_individual_accesses() {
        let batch = mixed_batch();
        for order in [BatchOrder::Hilbert, BatchOrder::Input] {
            let index = example(Grouping::TarIntegral);
            index.stats().reset();
            let _ = individual(&index, &batch);
            let individual = index.stats().node_accesses();

            index.stats().reset();
            let _ = collective(&index, &batch, order, 64);
            let shared = index.stats().node_accesses();
            assert!(shared <= individual, "{order}: {shared} > {individual}");
        }
    }

    #[test]
    fn empty_batch_touches_nothing() {
        let index = example(Grouping::TarIntegral);
        index.stats().reset();
        let results = collective(&index, &[], BatchOrder::Hilbert, 64);
        assert!(results.is_empty());
        assert_eq!(index.stats().node_accesses(), 0);
    }

    #[test]
    fn all_k_zero_batch_touches_nothing() {
        let index = example(Grouping::TarIntegral);
        let batch = vec![
            KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3)).with_k(0),
            KnntaQuery::new([1.0, 2.0], TimeInterval::days(1, 2)).with_k(0),
        ];
        index.stats().reset();
        let results = collective(&index, &batch, BatchOrder::Hilbert, 64);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(Vec::is_empty));
        assert_eq!(index.stats().node_accesses(), 0);
    }

    #[test]
    fn batch_with_k_zero_query() {
        let index = example(Grouping::TarIntegral);
        let mut batch = mixed_batch();
        batch.insert(2, KnntaQuery::new([5.0, 5.0], TimeInterval::days(0, 3)).with_k(0));
        let got = collective(&index, &batch, BatchOrder::Hilbert, 64);
        assert!(got[2].is_empty());
        assert_bit_identical(&got, &individual(&index, &batch), "k=0 mixed in");
    }

    #[test]
    fn empty_index_batch_is_empty() {
        let (grid, bounds, _) = paper_example();
        let index = TarIndex::new(IndexConfig::default(), grid, bounds);
        index.stats().reset();
        let results = collective(&index, &mixed_batch(), BatchOrder::Hilbert, 64);
        assert!(results.iter().all(Vec::is_empty));
        assert_eq!(index.stats().node_accesses(), 0);
    }

    #[test]
    fn tiny_tiles_stay_exact() {
        let index = example(Grouping::TarIntegral);
        let batch = mixed_batch();
        let want = individual(&index, &batch);
        for tile in [0, 1, 2, 3] {
            let got = collective(&index, &batch, BatchOrder::Hilbert, tile);
            assert_bit_identical(&got, &want, &format!("tile={tile}"));
        }
    }

    #[test]
    fn batch_order_is_a_permutation() {
        let index = example(Grouping::TarIntegral);
        let batch = mixed_batch();
        for order in [BatchOrder::Hilbert, BatchOrder::Input] {
            let mut perm = index.batch_order(&batch, order);
            assert_eq!(perm.len(), batch.len());
            perm.sort_unstable();
            assert_eq!(perm, (0..batch.len()).collect::<Vec<_>>());
        }
        assert_eq!(
            index.batch_order(&batch, BatchOrder::Input),
            (0..batch.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn batch_order_parse_roundtrip() {
        assert_eq!(BatchOrder::parse("hilbert"), Some(BatchOrder::Hilbert));
        assert_eq!(BatchOrder::parse("input"), Some(BatchOrder::Input));
        assert_eq!(BatchOrder::parse("zorder"), None);
        assert_eq!(BatchOrder::Hilbert.to_string(), "hilbert");
        assert_eq!(BatchOrder::Input.to_string(), "input");
    }
}
