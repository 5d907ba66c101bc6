//! One bound per query: the `f(p_k)` threshold every search answering the
//! same query prunes against, and the top-k that publishes to it.
//!
//! Each engine in [`crate::search`] and [`crate::collective`] collects a
//! query's hits in a [`WorkerHits`] under a [`SharedBound`]. A query that
//! runs alone gets a fresh bound; the shards of a partitioned index
//! answering the same query share one ([`crate::Executor::query_tile`]), so
//! each shard prunes against the hits the others have found. DESIGN.md §8
//! gives the admissibility argument; the short version lives on each type
//! below.

use crate::poi::QueryHit;
use crate::search::TopK;
use std::sync::atomic::{AtomicU64, Ordering as MemOrder};

/// Lock-free shared upper bound on one query's `f(p_k)`: an `AtomicU64`
/// holding the bit pattern of an `f64`, monotonically tightened by CAS.
///
/// Every search that holds the same bound prunes against the best `k` hits
/// any of them has found: the shards of a partitioned index answering the
/// same query ([`crate::Executor::query_tile`]). Callers can only create and share a
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::paper_example;
    use crate::index::{IndexConfig, TarIndex};
    use crate::plan::{run_query, ExecEnv};
    use crate::poi::KnntaQuery;
    use crate::storage::StorageBackend;
    use tempora::{PoiId, TimeInterval};

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
    fn worker_hits_publish_their_kth_score_and_drop_hits_above_the_bound() {
        let hit = |poi, score| QueryHit {
            poi: PoiId(poi),
            score,
            s0: 0.0,
            s1: 0.0,
            distance: 0.0,
            aggregate: 0,
        };
        let shared = SharedBound::new();
        let mut hits = WorkerHits::new(2, &shared);
        assert!(!hits.offer(hit(7, 0.6)), "one of two hits: no bound yet");
        assert!(hits.offer(hit(3, 0.4)));
        assert_eq!(hits.bound(), 0.6);
        assert!(!hits.offer(hit(9, 0.8)), "above the bound: dropped");
        // Another holder tightened the bound below this search's k-th score.
        shared.tighten(0.5);
        assert!(!hits.offer(hit(1, 0.55)));
        assert_eq!(hits.into_sorted_vec(), vec![hit(3, 0.4), hit(7, 0.6)]);
    }

    #[test]
    fn search_prunes_against_a_caller_bound() {
        // A bound another search already tightened to the true f(p_k) is
        // admissible: the answer is unchanged and no more nodes are opened.
        let (grid, bounds, pois) = paper_example();
        let index = TarIndex::build(IndexConfig::default(), grid, bounds, pois);
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3)).with_k(3);
        index.stats().reset();
        let want = index.query(&q);
        let alone = index.stats().node_accesses();
        let bound = SharedBound::new();
        bound.tighten(want[q.k - 1].score);
        let env = ExecEnv {
            bound: Some(&bound),
            ..index.exec_env()
        };
        index.stats().reset();
        assert_eq!(run_query(&env, StorageBackend::InMemory, &q), want);
        assert!(index.stats().node_accesses() <= alone);
    }
}
