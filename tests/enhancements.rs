//! The two Section 7 enhancements, validated end-to-end on generated LBSN
//! data: minimum weight adjustment and collective query processing.

mod common;

use common::{index_of, seq, small_dataset};
use knnta::core::{BatchOrder, Executor, Grouping, PlanBackend, QueryHit, TarIndex};
use knnta::lbsn::{IntervalAnchor, Workload};
use knnta::{KnntaQuery, PoiId};
use std::collections::HashSet;

#[test]
fn mwa_pruning_equals_enumerating_on_lbsn_data() {
    let dataset = small_dataset();
    let index = index_of(&dataset, Grouping::TarIntegral);
    let workload = Workload::generate(&dataset, 10, IntervalAnchor::Random, 11);
    for &(point, interval) in &workload.queries {
        let q = KnntaQuery::new(point, interval).with_k(10).with_alpha0(0.5);
        let (top_p, adj_p) = index.mwa_pruning(&q);
        let (top_e, adj_e) = index.mwa_enumerating(&q);
        assert_eq!(
            top_p.iter().map(|h| h.poi).collect::<Vec<_>>(),
            top_e.iter().map(|h| h.poi).collect::<Vec<_>>()
        );
        for (a, b) in [(adj_p.lower, adj_e.lower), (adj_p.upper, adj_e.upper)] {
            match (a, b) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9, "{x} vs {y}"),
                (x, y) => assert_eq!(x.is_some(), y.is_some()),
            }
        }
    }
}

#[test]
fn mwa_boundaries_actually_flip_results() {
    let dataset = small_dataset();
    let index = index_of(&dataset, Grouping::TarIntegral);
    let workload = Workload::generate(&dataset, 8, IntervalAnchor::Random, 12);
    let mut verified = 0;
    for &(point, interval) in &workload.queries {
        let q = KnntaQuery::new(point, interval).with_k(5).with_alpha0(0.4);
        let (topk, adj) = index.mwa_pruning(&q);
        let top_set: HashSet<PoiId> = topk.iter().map(|h| h.poi).collect();
        for boundary in [adj.lower, adj.upper].into_iter().flatten() {
            // Guard against boundaries squeezed against the valid range.
            let past = if boundary < q.alpha0 {
                boundary - 1e-7
            } else {
                boundary + 1e-7
            };
            if past <= 0.0 || past >= 1.0 {
                continue;
            }
            let flipped = index.query(&q.with_alpha0(past));
            let new_set: HashSet<PoiId> = flipped.iter().map(|h| h.poi).collect();
            assert_ne!(top_set, new_set, "boundary {boundary} must change the set");
            verified += 1;
        }
    }
    assert!(verified > 0, "workload produced at least one finite boundary");
}

#[test]
fn mwa_pruning_saves_node_accesses_at_scale() {
    let dataset = small_dataset();
    let index = index_of(&dataset, Grouping::TarIntegral);
    let workload = Workload::generate(&dataset, 10, IntervalAnchor::Random, 13);
    let (mut pruning_total, mut enumerating_total) = (0u64, 0u64);
    for &(point, interval) in &workload.queries {
        let q = KnntaQuery::new(point, interval).with_k(10).with_alpha0(0.3);
        index.stats().reset();
        let _ = index.mwa_pruning(&q);
        pruning_total += index.stats().node_accesses();
        index.stats().reset();
        let _ = index.mwa_enumerating(&q);
        enumerating_total += index.stats().node_accesses();
    }
    assert!(
        pruning_total * 2 < enumerating_total,
        "pruning {pruning_total} vs enumerating {enumerating_total}"
    );
}

/// The paper's collective scheme: the arena, Hilbert order, 64-query tiles.
fn collective(index: &TarIndex, queries: &[KnntaQuery]) -> Vec<Vec<QueryHit>> {
    Executor::new(index).execute_batch(queries, &seq(PlanBackend::InMemory), BatchOrder::Hilbert)
}

#[test]
fn collective_processing_on_lbsn_workload() {
    let dataset = small_dataset();
    let index = index_of(&dataset, Grouping::TarIntegral);
    // 100 queries restricted to 5 interval types (as in Figure 16).
    let workload = Workload::generate(&dataset, 100, IntervalAnchor::Random, 14)
        .with_interval_types(5);
    let queries: Vec<KnntaQuery> = workload
        .queries
        .iter()
        .map(|&(p, iv)| KnntaQuery::new(p, iv).with_k(10).with_alpha0(0.3))
        .collect();

    index.stats().reset();
    let collective = collective(&index, &queries);
    let shared_accesses = index.stats().node_accesses();

    index.stats().reset();
    let individual: Vec<_> = queries.iter().map(|q| index.query(q)).collect();
    let individual_accesses = index.stats().node_accesses();

    // Same answers…
    for (i, (c, ind)) in collective.iter().zip(&individual).enumerate() {
        assert_eq!(
            c.iter().map(|h| h.poi).collect::<Vec<_>>(),
            ind.iter().map(|h| h.poi).collect::<Vec<_>>(),
            "query {i}"
        );
    }
    // …for far fewer node fetches.
    assert!(
        shared_accesses * 2 < individual_accesses,
        "collective {shared_accesses} vs individual {individual_accesses}"
    );
}

#[test]
fn collective_gain_grows_with_batch_size() {
    // Figure 15: the more queries processed collectively, the lower the
    // per-query cost.
    let dataset = small_dataset();
    let index = index_of(&dataset, Grouping::TarIntegral);
    let workload =
        Workload::generate(&dataset, 200, IntervalAnchor::Random, 15).with_interval_types(3);
    let mut per_query_costs = Vec::new();
    for batch in [10usize, 50, 200] {
        let queries: Vec<KnntaQuery> = workload.queries[..batch]
            .iter()
            .map(|&(p, iv)| KnntaQuery::new(p, iv).with_k(10))
            .collect();
        index.stats().reset();
        let _ = collective(&index, &queries);
        per_query_costs.push(index.stats().node_accesses() as f64 / batch as f64);
    }
    assert!(
        per_query_costs[2] < per_query_costs[0],
        "per-query cost shrinks: {per_query_costs:?}"
    );
}
