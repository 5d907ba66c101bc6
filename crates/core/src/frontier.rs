//! Intra-query parallel best-first search: a work-stealing frontier sharded
//! over subtrees, with a shared lock-free `f(p_k)` bound for pruning.
//!
//! [`TarIndex::query`] traverses the tree with a single global priority
//! queue; this module parallelises *one* query's traversal. The global
//! frontier is sharded into per-worker binary heaps (seeded by dealing the
//! root's children round-robin, one subtree at a time), workers expand their
//! own best node first and steal the best front entry from a victim when
//! their frontier drains, and all workers prune against a shared atomic
//! upper bound on `f(p_k)` (see [`SharedBound`]). The caller owns that
//! bound: a query split across service shards hands every shard the same
//! one, so its workers also prune against the other shards' hits.
//!
//! Determinism is the contract, not an aspiration: for every thread count
//! the result is bit-identical to the sequential search, and the node-access
//! statistics recorded in [`TarIndex::stats`] are exactly the sequential
//! counts. DESIGN.md ("Sharded-frontier parallel search") gives the
//! admissibility argument; the short version lives on each type below.

use crate::index::QueryCtx;
use crate::observe::{self, Counts, NoProbe, Probe};
use crate::poi::QueryHit;
use crate::search::{entry_tia, expand_node, NodeCand, TopK};
use crate::storage::{NodeSource, NodeView};
use knnta_obs::{AttrValue, Obs, SpanId};
use knnta_util::sync::Mutex;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as MemOrder};

/// Lock-free shared upper bound on one query's `f(p_k)`: an `AtomicU64`
/// holding the bit pattern of an `f64`, monotonically tightened by CAS.
///
/// Every search that holds the same bound prunes against the best `k` hits
/// any of them has found: the workers of one parallel query, and the shards
/// of a partitioned index answering the same query
/// ([`crate::Executor::query_tile`]). Callers can only create and share a
/// bound; only the searches holding it ever move it.
///
/// Admissibility under concurrent updates: every value ever stored is some
/// search's *local* k-th-best score, published only once that search holds
/// `k` genuine hits. A local top-k over a subset of the data is at least the
/// global `f(p_k)`, so the bound never drops below `f(p_k)` under any
/// interleaving — pruning `key > bound` can therefore never discard a node
/// whose lower bound is within the true answer (Property 1 makes `key`
/// admissible, this makes the threshold admissible). Pruning is strict, so a
/// hit tied with the bound is kept and the `PoiId` tie-break still sees it.
pub struct SharedBound(AtomicU64);

impl Default for SharedBound {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedBound {
    /// A bound starting at `+∞`.
    pub fn new() -> Self {
        SharedBound(AtomicU64::new(f64::INFINITY.to_bits()))
    }

    /// The current bound.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(MemOrder::Relaxed))
    }

    /// Lowers the bound to `candidate` if that is an improvement; reports
    /// whether the bound actually moved (feeds the `bound_updates` counter).
    pub(crate) fn tighten(&self, candidate: f64) -> bool {
        let mut cur = self.0.load(MemOrder::Relaxed);
        while candidate < f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                candidate.to_bits(),
                MemOrder::Relaxed,
                MemOrder::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
        false
    }
}

/// Where every engine collects a query's hits: one search's local top-k,
/// pruned against and published to the [`SharedBound`] every holder shares.
/// Under a fresh bound with no other holder the bound always equals the
/// local k-th score, so this is exactly a plain top-k.
pub(crate) struct WorkerHits<'a> {
    local: TopK,
    shared: &'a SharedBound,
}

impl<'a> WorkerHits<'a> {
    /// An empty local top-`k` under `shared`.
    pub fn new(k: usize, shared: &'a SharedBound) -> Self {
        WorkerHits {
            local: TopK::new(k),
            shared,
        }
    }

    /// The current upper bound on `f(p_k)`.
    pub fn bound(&self) -> f64 {
        self.shared.get()
    }

    /// Offers a hit; reports whether the bound tightened.
    pub fn offer(&mut self, hit: QueryHit) -> bool {
        // The bound never drops below f(p_k), so hits above it can never
        // rank in the global top k.
        if hit.score > self.shared.get() {
            return false;
        }
        self.local.push(hit);
        self.shared.tighten(self.local.bound())
    }

    /// The retained hits in ranked order (best first).
    pub fn into_sorted_vec(self) -> Vec<QueryHit> {
        self.local.into_sorted_vec()
    }
}

/// One frontier pop as observed by a worker. Surfaced externally as `pop`
/// events on the per-worker trace spans of the observability layer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PopEvent {
    /// The popped candidate's admissible lower bound.
    pub key: f64,
    /// Whether the candidate was stolen from another worker's frontier.
    pub stolen: bool,
    /// Whether the node was expanded (`false` = pruned against the bound).
    pub expanded: bool,
    /// Whether the node is a leaf (meaningful only when `expanded`).
    pub is_leaf: bool,
    /// Tracer timestamp of the pop (0 when observability is disabled).
    pub t_ns: u64,
}

/// One worker's private state: its best-k accumulator, pop log and probe.
struct WorkerOutput<'b, P> {
    hits: WorkerHits<'b>,
    pops: Vec<PopEvent>,
    probe: P,
}

impl<'b, P: Probe> WorkerOutput<'b, P> {
    fn new(k: usize, bound: &'b SharedBound) -> Self {
        WorkerOutput {
            hits: WorkerHits::new(k, bound),
            pops: Vec::new(),
            probe: P::default(),
        }
    }
}

/// Flags the shared `poisoned` bit if the owning worker unwinds, so sibling
/// workers stop spinning instead of waiting forever on `pending`.
struct PanicGuard<'a>(&'a AtomicBool);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, MemOrder::Release);
        }
    }
}

/// The parallel best-first search over any [`NodeSource`] — the in-memory
/// arena, a paged snapshot or a packed image.
///
/// Every worker prunes against `bound`, which the caller may share with
/// searches elsewhere (a fresh [`SharedBound`] when the query runs alone).
/// Returns the ranked hits and the deterministic `(node, leaf)` access
/// counts to record. When `obs` is enabled, the traversal additionally emits
/// one `worker` span per worker (bracketing the whole parallel section)
/// carrying its pop log as `pop` events and its `phase.*` decomposition,
/// plus the frontier counters; `parent` is the enclosing query span.
pub(crate) fn parallel_bfs<const D: usize, N>(
    nodes: &N,
    ctx: &QueryCtx<'_>,
    k: usize,
    threads: usize,
    bound: &SharedBound,
    obs: &Obs,
    parent: SpanId,
) -> (Vec<QueryHit>, u64, u64)
where
    N: NodeSource<D> + Sync,
{
    if k == 0 || nodes.is_empty() {
        return (Vec::new(), 0, 0);
    }
    if obs.is_enabled() {
        traverse::<D, N, Counts>(nodes, ctx, k, threads, bound, obs, parent)
    } else {
        traverse::<D, N, NoProbe>(nodes, ctx, k, threads, bound, obs, parent)
    }
}

/// [`parallel_bfs`] for one probe type. Every worker expands nodes through
/// the shared kernel, so each entry is scored exactly as the sequential
/// search scores it.
fn traverse<const D: usize, N, P>(
    nodes: &N,
    ctx: &QueryCtx<'_>,
    k: usize,
    threads: usize,
    bound: &SharedBound,
    obs: &Obs,
    parent: SpanId,
) -> (Vec<QueryHit>, u64, u64)
where
    N: NodeSource<D> + Sync,
    P: Probe + Send,
{
    let start_ns = obs.now_ns();
    let tia = entry_tia(ctx);
    // Number of frontier candidates not yet fully processed (incremented
    // before a push, decremented after the pop finishes expanding); zero
    // means the whole traversal is drained.
    let pending = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);

    // Worker 0 expands the root inline and deals its children round-robin
    // across the worker frontiers — the initial subtree sharding.
    let mut heaps: Vec<BinaryHeap<NodeCand>> = (0..threads).map(|_| BinaryHeap::new()).collect();
    let mut seed = WorkerOutput::<P>::new(k, bound);
    {
        let root = nodes.root();
        let mut dealt = 0usize;
        let hits = &mut seed.hits;
        let is_leaf = seed.probe.busy(|probe| {
            nodes.with_node(root, probe, |node, probe| {
                let deal = |cand| {
                    pending.fetch_add(1, MemOrder::Release);
                    heaps[dealt % threads].push(cand);
                    dealt += 1;
                };
                expand_node(node, root, ctx, &tia, hits, deal, probe);
                node.is_leaf()
            })
        });
        seed.pops.push(PopEvent {
            key: 0.0,
            stolen: false,
            expanded: true,
            is_leaf,
            t_ns: obs.now_ns(),
        });
    }
    let frontiers: Vec<Mutex<BinaryHeap<NodeCand>>> = heaps.into_iter().map(Mutex::new).collect();

    let run_worker = |me: usize, out: &mut WorkerOutput<P>| {
        let _guard = PanicGuard(&poisoned);
        loop {
            // Own frontier first; otherwise steal the best front entry from
            // the nearest victim with work.
            let popped = {
                let own = frontiers[me].lock().pop();
                match own {
                    Some(task) => Some((task, false)),
                    None => (1..frontiers.len()).find_map(|d| {
                        frontiers[(me + d) % frontiers.len()]
                            .lock()
                            .pop()
                            .map(|task| (task, true))
                    }),
                }
            };
            let Some((task, stolen)) = popped else {
                if pending.load(MemOrder::Acquire) == 0 || poisoned.load(MemOrder::Acquire) {
                    break;
                }
                std::thread::yield_now();
                continue;
            };
            // Speculative pruning: the bound may still be above its final
            // value, so a node with key > f(p_k) can slip through here —
            // the post-hoc accounting filters those back out.
            let expanded = task.key <= bound.get();
            let mut is_leaf = false;
            if expanded {
                let mut children = Vec::new();
                let hits = &mut out.hits;
                is_leaf = out.probe.busy(|probe| {
                    nodes.with_node(task.id, probe, |node, probe| {
                        let collect = |cand| children.push(cand);
                        expand_node(node, task.id, ctx, &tia, hits, collect, probe);
                        node.is_leaf()
                    })
                });
                if !children.is_empty() {
                    pending.fetch_add(children.len(), MemOrder::Release);
                    let mut own = frontiers[me].lock();
                    for cand in children {
                        own.push(cand);
                    }
                }
            }
            out.pops.push(PopEvent {
                key: task.key,
                stolen,
                expanded,
                is_leaf,
                t_ns: obs.now_ns(),
            });
            pending.fetch_sub(1, MemOrder::Release);
        }
    };

    let mut outputs: Vec<WorkerOutput<'_, P>> = Vec::with_capacity(threads);
    if threads == 1 {
        run_worker(0, &mut seed);
        outputs.push(seed);
    } else {
        std::thread::scope(|scope| {
            let run_worker = &run_worker;
            let handles: Vec<_> = (1..threads)
                .map(|w| {
                    scope.spawn(move || {
                        let mut out = WorkerOutput::new(k, bound);
                        run_worker(w, &mut out);
                        out
                    })
                })
                .collect();
            run_worker(0, &mut seed);
            outputs.push(seed);
            for handle in handles {
                match handle.join() {
                    Ok(out) => outputs.push(out),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
    }

    let mut hits: Vec<QueryHit> = Vec::new();
    let mut pops: Vec<Vec<PopEvent>> = Vec::with_capacity(threads);
    let mut phases: Vec<Counts> = Vec::with_capacity(threads);
    for out in outputs {
        hits.extend(out.hits.local.into_hits());
        pops.push(out.pops);
        phases.push(out.probe.counts());
    }
    hits.sort_by(QueryHit::ranked_cmp);
    hits.truncate(k);

    // Deterministic accounting: the sequential search expands exactly the
    // nodes whose lower bound is ≤ the final f(p_k) (all of them when fewer
    // than k hits exist). Speculative expansions beyond that are timing
    // noise, so they are logged but not counted.
    let fpk = if hits.len() == k {
        hits[k - 1].score
    } else {
        f64::INFINITY
    };
    let mut nodes_count = 0u64;
    let mut leaves = 0u64;
    for log in &pops {
        for ev in log {
            if ev.expanded && ev.key <= fpk {
                nodes_count += 1;
                if ev.is_leaf {
                    leaves += 1;
                }
            }
        }
    }

    if P::ON {
        obs.counter(observe::M_BOUND_UPDATES)
            .add(phases.iter().map(|c| c.bound_updates).sum());
        emit_frontier_trace(obs, parent, start_ns, &pops, &phases, fpk);
    }
    (hits, nodes_count, leaves)
}

/// Emits the per-worker spans, pop events, per-worker phase decomposition
/// and frontier counters of one parallel traversal. All worker spans share
/// the same bracket `[start_ns, end_ns]` — workers are concurrent for the
/// whole section — and each carries its pop log as `pop` events with the
/// post-hoc `counted` verdict (`expanded && key <= f(p_k)`) attached.
fn emit_frontier_trace(
    obs: &Obs,
    parent: SpanId,
    start_ns: u64,
    pops: &[Vec<PopEvent>],
    phases: &[Counts],
    fpk: f64,
) {
    let Some(tracer) = obs.tracer() else { return };
    let end_ns = tracer.now_ns().max(start_ns);
    let mut total_pops = 0u64;
    let mut total_steals = 0u64;
    let mut speculative = 0u64;
    for (w, log) in pops.iter().enumerate() {
        let steals = log.iter().filter(|ev| ev.stolen).count() as u64;
        let expanded = log.iter().filter(|ev| ev.expanded).count() as u64;
        total_pops += log.len() as u64;
        total_steals += steals;
        speculative += log
            .iter()
            .filter(|ev| ev.expanded && ev.key > fpk)
            .count() as u64;
        let span = tracer.add_span(
            "worker",
            parent,
            start_ns,
            end_ns,
            vec![
                ("worker".to_string(), AttrValue::from(w as u64)),
                ("pops".to_string(), AttrValue::from(log.len() as u64)),
                ("steals".to_string(), AttrValue::from(steals)),
                ("expanded".to_string(), AttrValue::from(expanded)),
            ],
        );
        observe::emit_phase_spans(obs, span, start_ns, end_ns, &phases[w]);
        for ev in log {
            tracer.add_event(
                span,
                "pop",
                ev.t_ns.clamp(start_ns, end_ns),
                vec![
                    ("key".to_string(), AttrValue::from(ev.key)),
                    ("stolen".to_string(), AttrValue::from(ev.stolen)),
                    ("expanded".to_string(), AttrValue::from(ev.expanded)),
                    ("is_leaf".to_string(), AttrValue::from(ev.is_leaf)),
                    (
                        "counted".to_string(),
                        AttrValue::from(ev.expanded && ev.key <= fpk),
                    ),
                ],
            );
        }
    }
    obs.counter(observe::M_FRONTIER_POPS).add(total_pops);
    obs.counter(observe::M_FRONTIER_STEALS).add(total_steals);
    obs.counter(observe::M_FRONTIER_SPECULATIVE).add(speculative);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::paper_example;
    use crate::index::{Grouping, IndexConfig, TarIndex};
    use crate::plan::{run_query, ExecEnv, ExecMode};
    use crate::poi::KnntaQuery;
    use crate::storage::StorageBackend;
    use tempora::TimeInterval;

    /// The work-stealing traversal over the arena at `threads` workers.
    fn query_parallel(index: &TarIndex, q: &KnntaQuery, threads: usize) -> Vec<QueryHit> {
        run_query(&index.exec_env(), StorageBackend::InMemory, ExecMode::Par(threads), q)
    }

    fn build(grouping: Grouping) -> TarIndex {
        let (grid, bounds, pois) = paper_example();
        TarIndex::build(IndexConfig::with_grouping(grouping), grid, bounds, pois)
    }

    #[test]
    fn shared_bound_tightens_monotonically() {
        let b = SharedBound::new();
        assert_eq!(b.get(), f64::INFINITY);
        b.tighten(0.5);
        assert_eq!(b.get(), 0.5);
        b.tighten(0.7); // looser: ignored
        assert_eq!(b.get(), 0.5);
        b.tighten(0.25);
        assert_eq!(b.get(), 0.25);
    }

    #[test]
    fn parallel_matches_sequential_on_the_paper_example() {
        for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
            let index = build(grouping);
            for k in [1usize, 3, 12, 100] {
                let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
                    .with_k(k)
                    .with_alpha0(0.3);
                let want = index.query(&q);
                for threads in [1, 2, 4, 8] {
                    let got = query_parallel(&index, &q, threads);
                    assert_eq!(got.len(), want.len(), "{grouping} k={k} t={threads}");
                    for (a, b) in got.iter().zip(&want) {
                        assert_eq!(a.poi, b.poi, "{grouping} k={k} t={threads}");
                        assert_eq!(
                            a.score.to_bits(),
                            b.score.to_bits(),
                            "{grouping} k={k} t={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_accounting_matches_sequential() {
        let index = build(Grouping::TarIntegral);
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3)).with_k(3);
        index.stats().reset();
        let _ = index.query(&q);
        let seq = (index.stats().node_accesses(), index.stats().leaf_node_accesses());
        for threads in [1, 2, 4, 8] {
            index.stats().reset();
            let _ = query_parallel(&index, &q, threads);
            let par = (index.stats().node_accesses(), index.stats().leaf_node_accesses());
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn parallel_prunes_against_a_caller_bound() {
        // A bound another search already tightened to the true f(p_k) is
        // admissible: the answer is unchanged and no more nodes are opened.
        let index = build(Grouping::TarIntegral);
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3)).with_k(3);
        let want = index.query(&q);
        for threads in [1, 2, 4] {
            index.stats().reset();
            let _ = query_parallel(&index, &q, threads);
            let alone = index.stats().node_accesses();
            let bound = SharedBound::new();
            bound.tighten(want[q.k - 1].score);
            let env = ExecEnv {
                bounds: Some(std::slice::from_ref(&bound)),
                ..index.exec_env()
            };
            index.stats().reset();
            let got = run_query(&env, StorageBackend::InMemory, ExecMode::Par(threads), &q);
            assert_eq!(got, want, "threads={threads}");
            assert!(index.stats().node_accesses() <= alone, "threads={threads}");
        }
    }

    #[test]
    fn parallel_on_empty_index_and_zero_k() {
        let (grid, bounds, _) = paper_example();
        let empty = TarIndex::new(IndexConfig::default(), grid, bounds);
        let q = KnntaQuery::new([1.0, 1.0], TimeInterval::days(0, 3));
        assert!(query_parallel(&empty, &q, 4).is_empty());
        let index = build(Grouping::TarIntegral);
        let q0 = KnntaQuery::new([1.0, 1.0], TimeInterval::days(0, 3)).with_k(0);
        assert!(query_parallel(&index, &q0, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let index = build(Grouping::TarIntegral);
        let q = KnntaQuery::new([1.0, 1.0], TimeInterval::days(0, 3));
        let _ = query_parallel(&index, &q, 0);
    }

    #[test]
    fn trace_reports_one_span_per_worker() {
        let mut index = build(Grouping::TarIntegral);
        index.set_obs(Obs::enabled());
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3)).with_k(5);
        let _ = query_parallel(&index, &q, 4);
        let trace = index.obs().trace_snapshot();
        let workers: Vec<_> = trace.spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 4);
        // Every worker span hangs off the root query span.
        let query = trace
            .spans
            .iter()
            .find(|s| s.name == "query")
            .expect("query span");
        assert!(workers.iter().all(|w| w.parent == query.id));
        // Worker 0 at minimum logs the root expansion as a pop event.
        let w0 = workers[0];
        assert!(trace
            .events
            .iter()
            .any(|ev| ev.span == w0.id && ev.name == "pop"));
    }

    #[test]
    fn instrumented_parallel_query_matches_disabled() {
        let plain = build(Grouping::TarIntegral);
        let mut observed = build(Grouping::TarIntegral);
        observed.set_obs(Obs::enabled());
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3)).with_k(6);
        for threads in [1, 2, 4] {
            let want = query_parallel(&plain, &q, threads);
            let got = query_parallel(&observed, &q, threads);
            assert_eq!(want.len(), got.len(), "threads={threads}");
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(a.poi, b.poi, "threads={threads}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "threads={threads}");
            }
        }
    }
}
