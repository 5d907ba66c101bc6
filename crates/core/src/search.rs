//! Best-first kNNTA search (Section 4.3): the node-expansion kernel every
//! engine shares, and the sequential engine around it.
//!
//! [`expand_node`] is the only place an index entry is scored. The three
//! engines — the sequential loop here, the work-stealing
//! [`crate::frontier::parallel_bfs`] and the batched
//! [`crate::collective::collective_on_nodes`] — are drivers around it: each
//! owns its frontier, collects each query's hits in a [`WorkerHits`] under
//! the query's [`SharedBound`] on `f(p_k)` (fresh when the query runs alone,
//! shared with other workers or shards otherwise) and does its own access
//! accounting. Because the score expressions and their f64 operation order
//! exist once, the engines agree bit for bit.

use crate::frontier::{SharedBound, WorkerHits};
use crate::index::{IndexMeta, QueryCtx};
use crate::observe::{self, Counts, NoProbe, Probe};
use crate::poi::QueryHit;
use crate::storage::{EntryTarget, NodeSource, NodeView};
use knnta_obs::SpanId;
use pagestore::AccessStats;
use rtree::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A frontier element: a tree node and the admissible lower bound (Property
/// 1) on the score of anything inside it.
///
/// The `Ord` impl is *reversed* on `(key, id)` so a `BinaryHeap` pops the
/// smallest key first, with `NodeId` as a deterministic tie-break.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeCand {
    /// Lower bound on `f(p)` for every POI under this node.
    pub key: f64,
    /// The node.
    pub id: NodeId,
}

impl PartialEq for NodeCand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for NodeCand {}
impl PartialOrd for NodeCand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for NodeCand {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// Max-heap wrapper ordering hits by [`QueryHit::ranked_cmp`], so the heap
/// top is the *worst* retained hit.
struct RankedHit(QueryHit);

impl PartialEq for RankedHit {
    fn eq(&self, other: &Self) -> bool {
        self.0.ranked_cmp(&other.0) == Ordering::Equal
    }
}
impl Eq for RankedHit {}
impl PartialOrd for RankedHit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RankedHit {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.ranked_cmp(&other.0)
    }
}

/// A bounded best-`k` accumulator under the `(score, PoiId)` total order.
///
/// Hits go straight in here rather than through the node frontier; the
/// worst retained score (once full) is the search's `f(p_k)` upper bound.
pub(crate) struct TopK {
    k: usize,
    heap: BinaryHeap<RankedHit>,
}

impl TopK {
    /// An empty accumulator retaining at most `k` hits.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.saturating_add(1).min(4096)),
        }
    }

    /// Offers a hit, evicting the worst retained one if over capacity.
    pub fn push(&mut self, hit: QueryHit) {
        if self.heap.len() < self.k {
            self.heap.push(RankedHit(hit));
        } else if let Some(worst) = self.heap.peek() {
            if hit.ranked_cmp(&worst.0) == Ordering::Less {
                self.heap.pop();
                self.heap.push(RankedHit(hit));
            }
        }
    }

    /// The current upper bound on `f(p_k)`: the worst retained score once
    /// `k` hits are held, `+∞` before that.
    pub fn bound(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().map_or(f64::INFINITY, |w| w.0.score)
        }
    }

    /// The retained hits, unordered.
    pub fn into_hits(self) -> Vec<QueryHit> {
        self.heap.into_iter().map(|r| r.0).collect()
    }

    /// The retained hits in ranked order (best first).
    pub fn into_sorted_vec(self) -> Vec<QueryHit> {
        let mut v = self.into_hits();
        v.sort_by(QueryHit::ranked_cmp);
        v
    }
}

/// Expands one fetched node for one query — the node-expansion kernel.
///
/// Scores every entry (`s0` from the entry's box, the aggregate from
/// `agg_of`, which returns the value and the epoch records it scanned),
/// offers data entries to `hits`, and hands `push_child` each child whose
/// lower bound does not already exceed the `f(p_k)` bound. The bound only
/// tightens and never drops below the true `f(p_k)`, so a child above it
/// now is never expanded later: the expanded node set is exactly the nodes
/// with `key ≤ f(p_k)`, whatever the driver's schedule.
pub(crate) fn expand_node<V: NodeView, P: Probe>(
    node: &V,
    id: NodeId,
    ctx: &QueryCtx<'_>,
    agg_of: &impl Fn(NodeId, usize, &V) -> (u64, u64),
    hits: &mut WorkerHits<'_>,
    mut push_child: impl FnMut(NodeCand),
    probe: &mut P,
) {
    for i in 0..node.len() {
        let s0 = node.rect2(i).min_dist2(&ctx.q).sqrt();
        let (agg, scanned) = probe.tia(|| agg_of(id, i, node));
        probe.epochs_scanned(scanned);
        match node.target(i) {
            EntryTarget::Data(poi) => {
                if hits.offer(ctx.hit(poi, s0, agg)) {
                    probe.bound_update();
                }
            }
            EntryTarget::Child(c) => {
                let (key, _) = ctx.score(s0, agg);
                if key <= hits.bound() {
                    push_child(NodeCand { key, id: c });
                    probe.push();
                }
            }
        }
    }
}

/// The aggregate hook of every engine that reads the entries' own TIAs:
/// the entry's aggregate over the query's contained-epoch range.
pub(crate) fn entry_tia<'a, V: NodeView>(
    ctx: &'a QueryCtx<'_>,
) -> impl Fn(NodeId, usize, &V) -> (u64, u64) + 'a {
    |_, i, node| node.sum_range(i, ctx.range.clone())
}

/// Sequential best-first kNNTA search over any [`NodeSource`], with a
/// pluggable aggregate source ([`entry_tia`] by default; the MVBT-backed
/// disk TIAs via [`crate::DiskTias`]).
///
/// The frontier holds only *nodes* (min-heap on `(key, NodeId)`); hits from
/// expanded leaves go straight into a bounded top-k accumulator under the
/// `(score, PoiId)` total order. Logical node/leaf accesses are recorded in
/// `meta.stats` exactly as `RStarTree::access_node` records them, so the
/// access profile is backend-independent. With `meta.obs` enabled the search
/// also emits a `search.seq` span with its `phase.*` children and publishes
/// its frontier counters.
///
/// The search prunes against `bound` and publishes its own k-th score to
/// it. Under a fresh bound it is the plain search. Under a bound that
/// searches over other parts of the data also hold, it stops as early as
/// one search over all of it, and its result holds only the hits that may
/// rank in the global top `k`, possibly fewer than `k`.
pub(crate) fn bfs_query_nodes<const D: usize, N, F>(
    nodes: &N,
    meta: &IndexMeta,
    ctx: &QueryCtx<'_>,
    k: usize,
    bound: &SharedBound,
    agg_of: F,
    parent: SpanId,
) -> Vec<QueryHit>
where
    N: NodeSource<D>,
    F: Fn(NodeId, usize, &N::View) -> (u64, u64),
{
    if k == 0 || nodes.is_empty() {
        return Vec::new();
    }
    let (stats, obs) = (&meta.stats, &meta.obs);
    let hits = WorkerHits::new(k, bound);
    if !obs.is_enabled() {
        return best_first(nodes, stats, ctx, hits, &agg_of, &mut NoProbe, |_| {});
    }
    let span = obs.span("search.seq", parent);
    let start_ns = obs.now_ns();
    let fetch_hist = obs.histogram(observe::M_PAGED_FETCH_NS, observe::PAGED_FETCH_BOUNDS);
    let mut probe = Counts::default();
    let hits = best_first(nodes, stats, ctx, hits, &agg_of, &mut probe, |io_ns| {
        if N::PAGED {
            fetch_hist.record(io_ns);
        }
    });
    let end_ns = obs.now_ns();
    probe.busy_ns = end_ns.saturating_sub(start_ns);
    obs.counter(observe::M_HEAP_PUSHES).add(probe.pushes);
    obs.counter(observe::M_HEAP_POPS).add(probe.pops);
    obs.counter(observe::M_BOUND_UPDATES).add(probe.bound_updates);
    obs.counter(observe::M_EPOCHS_SCANNED).add(probe.epochs_scanned);
    observe::emit_phase_spans(obs, span.id(), start_ns, end_ns, &probe);
    span.finish();
    hits
}

/// The sequential loop: pop the best node, stop at the first one whose lower
/// bound exceeds `f(p_k)`, otherwise fetch and expand it. `fetched` sees each
/// fetch's I/O nanoseconds (zero without a recording probe).
fn best_first<const D: usize, N, F, P>(
    nodes: &N,
    stats: &AccessStats,
    ctx: &QueryCtx<'_>,
    mut hits: WorkerHits<'_>,
    agg_of: &F,
    probe: &mut P,
    mut fetched: impl FnMut(u64),
) -> Vec<QueryHit>
where
    N: NodeSource<D>,
    F: Fn(NodeId, usize, &N::View) -> (u64, u64),
    P: Probe,
{
    let mut heap = BinaryHeap::new();
    heap.push(NodeCand {
        key: 0.0,
        id: nodes.root(),
    });
    probe.push();
    while let Some(NodeCand { key, id }) = heap.pop() {
        probe.pop();
        if key > hits.bound() {
            break;
        }
        let io_before = probe.counts().io_ns;
        nodes.with_node(id, probe, |node, probe| {
            stats.record_node_access();
            if node.is_leaf() {
                stats.record_leaf_access();
            }
            expand_node(node, id, ctx, agg_of, &mut hits, |cand| heap.push(cand), probe);
        });
        fetched(probe.counts().io_ns - io_before);
    }
    hits.into_sorted_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora::PoiId;

    #[test]
    fn topk_keeps_best_under_ranked_order() {
        let mk = |id: u32, score: f64| QueryHit {
            poi: PoiId(id),
            score,
            s0: 0.0,
            s1: 0.0,
            distance: 0.0,
            aggregate: 0,
        };
        let mut t = TopK::new(2);
        assert_eq!(t.bound(), f64::INFINITY);
        t.push(mk(5, 0.3));
        t.push(mk(1, 0.3)); // ties broken by id: 1 beats 5
        t.push(mk(9, 0.1));
        assert_eq!(t.bound(), 0.3);
        let hits = t.into_sorted_vec();
        assert_eq!(
            hits.iter().map(|h| h.poi).collect::<Vec<_>>(),
            vec![PoiId(9), PoiId(1)]
        );
    }

    #[test]
    fn node_cand_orders_min_first() {
        let mut heap = BinaryHeap::new();
        heap.push(NodeCand { key: 0.4, id: NodeId(2) });
        heap.push(NodeCand { key: 0.1, id: NodeId(7) });
        heap.push(NodeCand { key: 0.1, id: NodeId(3) });
        assert_eq!(heap.pop().unwrap().id, NodeId(3));
        assert_eq!(heap.pop().unwrap().id, NodeId(7));
        assert_eq!(heap.pop().unwrap().id, NodeId(2));
    }
}
