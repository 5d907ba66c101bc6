//! A shard's tile is its queries answered one at a time: `query_tile` under
//! fresh bounds returns, per query, exactly `Executor::query`'s list and
//! opens exactly the nodes those queries open on their own. A tile shares
//! no node fetch between its queries, repeats included.

mod common;

use common::small_dataset;
use knnta::core::{Executor, FrozenIndex, Grouping, IndexConfig, QueryHit, SharedBound};
use knnta::lbsn::{IntervalAnchor, Workload};
use knnta::{KnntaQuery, Poi};
use rtree::Rect;

/// Every field of a hit, floats by their bits.
fn bits(hits: &[QueryHit]) -> Vec<(u32, u64, u64, u64, u64, u64)> {
    hits.iter()
        .map(|h| {
            (
                h.poi.0,
                h.score.to_bits(),
                h.s0.to_bits(),
                h.s1.to_bits(),
                h.distance.to_bits(),
                h.aggregate,
            )
        })
        .collect()
}

#[test]
fn tile_answers_and_work_equal_its_queries_run_alone() {
    let dataset = small_dataset();
    let pois: Vec<_> = dataset
        .snapshot(dataset.grid.len())
        .into_iter()
        .map(|(id, pos, series)| (Poi { id, pos }, series))
        .collect();
    let frozen = FrozenIndex::build(
        IndexConfig::with_grouping(Grouping::TarIntegral),
        dataset.grid.clone(),
        Rect::new(dataset.bounds.0, dataset.bounds.1),
        &pois,
    );
    let mut tile: Vec<KnntaQuery> = Workload::generate(&dataset, 16, IntervalAnchor::Random, 49)
        .queries
        .iter()
        .enumerate()
        .map(|(i, &(point, interval))| {
            KnntaQuery::new(point, interval)
                .with_k([1, 10, 100, pois.len() + 7][i % 4])
                .with_alpha0(0.3)
        })
        .collect();
    // Repeats, adjacent and apart: a collective tile would fetch their
    // nodes once for all of them.
    tile.extend([tile[0], tile[0], tile[5], tile[3]]);
    assert!(tile.len() >= 16);

    let stats = frozen.stats();
    let mut alone = Executor::frozen(&frozen);
    let mut want = Vec::new();
    let mut alone_accesses = 0;
    for q in &tile {
        let before = stats.node_accesses();
        want.push(alone.query(q));
        alone_accesses += stats.node_accesses() - before;
    }

    let bounds: Vec<SharedBound> = tile.iter().map(|_| SharedBound::new()).collect();
    let before = stats.node_accesses();
    let got = Executor::frozen(&frozen).query_tile(&tile, &bounds);
    let tile_accesses = stats.node_accesses() - before;

    assert_eq!(got.len(), tile.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(bits(g), bits(w), "query {i} (k = {})", tile[i].k);
    }
    assert_eq!(
        want[3].len(),
        pois.len(),
        "k past the index returns every POI"
    );
    assert_eq!(
        tile_accesses, alone_accesses,
        "a tile opens exactly the nodes its queries open alone"
    );
}
