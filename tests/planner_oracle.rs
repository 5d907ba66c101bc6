//! Differential oracle for the cost-model planner (`DESIGN.md` §14).
//!
//! Whatever configuration [`Executor`] plans — in-memory, paged, or
//! packed, any tile size — the answer must be **bit-identical** to every
//! forced configuration of the same query. The plan is allowed to change *how fast* an answer arrives, never
//! *which* answer arrives: admissibility of the best-first search (paper
//! Section 4.3) is a property of the scoring function, not of the execution
//! configuration.

mod common;

use common::{forced, index_of, seq, small_dataset, tiny_dataset};
use knnta::core::{
    BatchOrder, Executor, FrozenIndex, Grouping, IndexConfig, PlanBackend, QueryHit, TarIndex,
};
use knnta::lbsn::{IntervalAnchor, Workload};
use knnta::pagestore::{BufferPoolConfig, PolicyKind};
use knnta::{KnntaQuery, PoiId, TimeInterval};

/// Queries per grouping: a fast handful by default, 10× that under
/// `KNNTA_SOAK=1` (the soak lane in `scripts/verify.sh`).
fn differential_cases() -> usize {
    let soak = std::env::var("KNNTA_SOAK").map_or(false, |v| v != "0" && !v.is_empty());
    if soak {
        40
    } else {
        8
    }
}

/// Bitwise identity key: no float tolerance anywhere.
fn key(hits: &[QueryHit]) -> Vec<(u32, u64, u64)> {
    hits.iter()
        .map(|h| (h.poi.0, h.score.to_bits(), h.aggregate))
        .collect()
}

/// The planner-chosen execution of every (query, k) case must be
/// bit-identical to each forced configuration: the plain in-memory search,
/// the packed image, and the paged store under every replacement policy.
#[test]
fn planned_queries_match_every_forced_config() {
    let dataset = small_dataset();
    let cases = differential_cases();
    for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
        let index = index_of(&dataset, grouping);
        let packed = index.pack();
        let paged: Vec<_> = PolicyKind::ALL
            .iter()
            .map(|&policy| {
                index.materialize_paged_nodes(
                    index.config_node_size(),
                    BufferPoolConfig::new(8, policy),
                )
            })
            .collect();
        let mut exec = Executor::new(&index).with_packed(&packed).with_paged(&paged[0]);
        let on_policy: Vec<_> = paged
            .iter()
            .map(|p| Executor::new(&index).with_paged(p))
            .collect();
        let workload = Workload::generate(&dataset, cases, IntervalAnchor::Random, 77);
        for (i, &(point, interval)) in workload.queries.iter().enumerate() {
            for k in [1, 10, 100] {
                let q = KnntaQuery::new(point, interval).with_k(k).with_alpha0(0.3);
                let planned = key(&exec.query(&q));
                let plan = *exec.last_plan().expect("executor records its plan");
                let ctx = format!("{grouping} query {i} k={k} ({plan:?})");
                assert_eq!(planned, key(&index.query(&q)), "{ctx}: vs in-memory seq");
                assert_eq!(
                    planned,
                    key(&exec.execute(&q, &seq(PlanBackend::Packed))),
                    "{ctx}: vs packed seq"
                );
                for (on_paged, policy) in on_policy.iter().zip(PolicyKind::ALL) {
                    assert_eq!(
                        planned,
                        key(&on_paged.execute(&q, &seq(PlanBackend::Paged))),
                        "{ctx}: vs paged/{policy}"
                    );
                }
            }
        }
    }
}

/// The batch half of the differential: `execute_batch` under every
/// attached backend x tile size x batch order equals per-query
/// [`TarIndex::query`] bit for bit, so does the individual loop on each
/// backend, and the planned `query_batch` is exactly `execute_batch` under
/// the plan it chose, in Hilbert order.
#[test]
fn planned_batches_match_every_forced_config() {
    let dataset = small_dataset();
    let cases = differential_cases().max(12);
    for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
        let index = index_of(&dataset, grouping);
        let packed = index.pack();
        let paged = index.materialize_paged_nodes(
            index.config_node_size(),
            BufferPoolConfig::new(8, PolicyKind::Lru),
        );
        let workload = Workload::generate(&dataset, cases, IntervalAnchor::Recent, 78);
        let queries: Vec<_> = workload
            .queries
            .iter()
            .enumerate()
            .map(|(i, &(point, interval))| {
                KnntaQuery::new(point, interval)
                    .with_k(1 + (i % 10))
                    .with_alpha0(0.3)
            })
            .collect();
        let want: Vec<_> = queries.iter().map(|q| key(&index.query(q))).collect();
        let mut exec = Executor::new(&index).with_packed(&packed).with_paged(&paged);
        let planned: Vec<_> = exec.query_batch(&queries).iter().map(|h| key(h)).collect();
        let plan = *exec.last_plan().expect("executor records its plan");
        let ctx = format!("{grouping} batch ({plan:?})");
        assert_eq!(planned, want, "{ctx}: vs per-query in-memory");
        let replayed = exec.execute_batch(&queries, &plan, BatchOrder::Hilbert);
        let replayed: Vec<_> = replayed.iter().map(|h| key(h)).collect();
        assert_eq!(planned, replayed, "{ctx}: vs execute_batch under the same plan");
        for backend in [PlanBackend::InMemory, PlanBackend::Paged, PlanBackend::Packed] {
            let individual: Vec<_> = queries
                .iter()
                .map(|q| key(&exec.execute(q, &seq(backend))))
                .collect();
            assert_eq!(individual, want, "{ctx}: vs individual on {backend}");
            for tile in [1, 16, 64] {
                for order in [BatchOrder::Hilbert, BatchOrder::Input] {
                    let plan = forced(backend, tile);
                    let got = exec.execute_batch(&queries, &plan, order);
                    let got: Vec<_> = got.iter().map(|h| key(h)).collect();
                    assert_eq!(got, want, "{ctx}: vs collective on {backend}, tile {tile}, {order}");
                }
            }
        }
    }
}

/// The feedback loop must not drift the answers: repeated planned
/// executions of the same query — while the calibration factor moves —
/// always return the first answer, bit for bit.
#[test]
fn calibration_feedback_never_changes_answers() {
    let dataset = small_dataset();
    let index = index_of(&dataset, Grouping::TarIntegral);
    let packed = index.pack();
    let mut exec = Executor::new(&index).with_packed(&packed);
    let workload = Workload::generate(&dataset, 4, IntervalAnchor::Random, 79);
    for &(point, interval) in &workload.queries {
        let q = KnntaQuery::new(point, interval).with_k(10).with_alpha0(0.3);
        let first = key(&exec.query(&q));
        for round in 0..10 {
            assert_eq!(
                first,
                key(&exec.query(&q)),
                "round {round}: answers drifted under calibration feedback"
            );
        }
    }
    assert!(
        exec.planner().calibration().samples() >= 40,
        "every planned execution must feed the calibration"
    );
}

// ---------------------------------------------------------------------------
// Misuse of a forced plan: each case of `Executor::execute`'s `# Panics`.
// ---------------------------------------------------------------------------

fn tiny_index() -> TarIndex {
    let (grid, bounds, pois) = tiny_dataset();
    TarIndex::build(IndexConfig::default(), grid, bounds, pois)
}

fn tiny_query() -> KnntaQuery {
    KnntaQuery::new([50.0, 50.0], TimeInterval::days(0, 56)).with_k(3)
}

#[test]
#[should_panic(expected = "packed backend that was never attached")]
fn forced_plan_on_an_unattached_image_panics() {
    let index = tiny_index();
    Executor::new(&index).execute(&tiny_query(), &seq(PlanBackend::Packed));
}

#[test]
#[should_panic(expected = "in-memory plan on a frozen index")]
fn in_memory_plan_on_a_frozen_index_panics() {
    let (grid, bounds, pois) = tiny_dataset();
    let frozen = FrozenIndex::build(IndexConfig::default(), grid, bounds, &pois);
    let plan = seq(PlanBackend::InMemory);
    Executor::frozen(&frozen).execute_batch(&[tiny_query()], &plan, BatchOrder::Hilbert);
}

#[test]
#[should_panic(expected = "packed tree is stale")]
fn forced_plan_on_a_stale_image_panics() {
    let mut index = tiny_index();
    let packed = index.pack();
    index.ingest_epoch(0, &[(PoiId(0), 3)]);
    Executor::new(&index)
        .with_packed(&packed)
        .execute(&tiny_query(), &seq(PlanBackend::Packed));
}
