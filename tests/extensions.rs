//! Integration tests for the production extensions: bulk loading, live
//! ingestion, persistence, the public skyline, and the
//! multi-change MWA — all on generated LBSN data.

mod common;

use common::{assert_same_answer, baseline_of, index_of, small_dataset};
use knnta::core::{Grouping, IndexConfig, LiveIndex, TarIndex};
use knnta::lbsn::{IntervalAnchor, Workload};
use knnta::{CheckIn, KnntaQuery, Poi, PoiId, Timestamp};
use rtree::Rect;
use std::collections::HashSet;

#[test]
fn bulk_build_matches_baseline_on_dataset() {
    let dataset = small_dataset();
    let baseline = baseline_of(&dataset);
    let workload = Workload::generate(&dataset, 20, IntervalAnchor::Random, 31);
    for grouping in [Grouping::TarIntegral, Grouping::IndSpa] {
        let index = TarIndex::build_bulk(
            IndexConfig::with_grouping(grouping),
            dataset.grid.clone(),
            Rect::new(dataset.bounds.0, dataset.bounds.1),
            dataset
                .snapshot(dataset.grid.len())
                .into_iter()
                .map(|(id, pos, s)| (Poi { id, pos }, s)),
        );
        for &(point, interval) in &workload.queries {
            let q = KnntaQuery::new(point, interval).with_k(10).with_alpha0(0.3);
            assert_same_answer(&index.query(&q), &baseline.query(&q), "bulk");
        }
    }
}

#[test]
fn bulk_build_is_faster_and_tighter() {
    let dataset = small_dataset();
    let pois: Vec<_> = dataset
        .snapshot(dataset.grid.len())
        .into_iter()
        .map(|(id, pos, s)| (Poi { id, pos }, s))
        .collect();
    let grid = dataset.grid.clone();
    let bounds = Rect::new(dataset.bounds.0, dataset.bounds.1);
    let t0 = std::time::Instant::now();
    let incremental = TarIndex::build(IndexConfig::default(), grid.clone(), bounds, pois.clone());
    let incremental_time = t0.elapsed();
    let t0 = std::time::Instant::now();
    let bulk = TarIndex::build_bulk(IndexConfig::default(), grid, bounds, pois);
    let bulk_time = t0.elapsed();
    assert!(
        bulk_time < incremental_time,
        "bulk {bulk_time:?} vs incremental {incremental_time:?}"
    );
    assert!(
        bulk.node_count() <= incremental.node_count(),
        "bulk packs tighter: {} vs {}",
        bulk.node_count(),
        incremental.node_count()
    );
}

#[test]
fn live_streaming_matches_batch_build() {
    let dataset = small_dataset();
    let grid = dataset.grid.clone();
    let bounds = Rect::new(dataset.bounds.0, dataset.bounds.1);
    let snapshot = dataset.snapshot(grid.len());

    // Reference: the fully-built index.
    let reference = TarIndex::build(
        IndexConfig::default(),
        grid.clone(),
        bounds,
        snapshot.iter().map(|(id, pos, s)| (Poi { id: *id, pos: *pos }, s.clone())),
    );

    // Live: start empty, stream one check-in event per (poi, epoch, unit).
    let empty = TarIndex::build(
        IndexConfig::default(),
        grid.clone(),
        bounds,
        snapshot
            .iter()
            .map(|(id, pos, _)| (Poi { id: *id, pos: *pos }, Default::default())),
    );
    let live = LiveIndex::new(empty, 0);
    for epoch in 0..grid.len() {
        for (id, _, series) in &snapshot {
            let v = series.get(epoch as u32);
            if v > 0 {
                live.record(CheckIn::with_value(
                    *id,
                    grid.epoch(epoch).start + 60,
                    v as u32,
                ));
            }
        }
        live.seal_epoch();
    }
    live.validate();

    let workload = Workload::generate(&dataset, 15, IntervalAnchor::Random, 33);
    for &(point, interval) in &workload.queries {
        let q = KnntaQuery::new(point, interval).with_k(10).with_alpha0(0.3);
        assert_same_answer(&live.snapshot().query(&q), &reference.query(&q), "live stream");
    }
}

#[test]
fn persistence_roundtrip_on_dataset() {
    let dataset = small_dataset();
    let index = index_of(&dataset, Grouping::TarIntegral);
    let bytes = index.save_to_vec();
    let loaded = TarIndex::load_from_slice(&bytes).expect("valid snapshot");
    assert_eq!(loaded.len(), index.len());
    let workload = Workload::generate(&dataset, 15, IntervalAnchor::Recent, 34);
    for &(point, interval) in &workload.queries {
        let q = KnntaQuery::new(point, interval).with_k(10).with_alpha0(0.3);
        assert_same_answer(&loaded.query(&q), &index.query(&q), "persisted");
    }
}

#[test]
fn skyline_on_dataset_contains_all_weighted_winners() {
    let dataset = small_dataset();
    let index = index_of(&dataset, Grouping::TarIntegral);
    let workload = Workload::generate(&dataset, 6, IntervalAnchor::Random, 35);
    for &(point, interval) in &workload.queries {
        let sky: HashSet<PoiId> = index.skyline(point, interval).iter().map(|h| h.poi).collect();
        assert!(!sky.is_empty());
        for alpha0 in [0.1, 0.5, 0.9] {
            let q = KnntaQuery::new(point, interval).with_k(1).with_alpha0(alpha0);
            let top = index.query(&q)[0].poi;
            assert!(sky.contains(&top), "top-1 at α0={alpha0} on the skyline");
        }
    }
}

#[test]
fn mwa_changing_m_walks_outward_on_dataset() {
    let dataset = small_dataset();
    let index = index_of(&dataset, Grouping::TarIntegral);
    let point = dataset.positions[10];
    let tc = dataset.grid.tc();
    let interval = knnta::TimeInterval::new(tc - 64 * Timestamp::DAY, tc);
    let q = KnntaQuery::new(point, interval).with_k(5).with_alpha0(0.5);
    let original: HashSet<PoiId> = index.query(&q).iter().map(|h| h.poi).collect();
    let m1 = index.mwa_changing_m(&q, 1);
    let m2 = index.mwa_changing_m(&q, 2);
    // The m=2 boundary lies at or beyond the m=1 boundary on each side.
    if let (Some(a), Some(b)) = (m1.lower, m2.lower) {
        assert!(b <= a + 1e-12, "lower walks outward: {b} <= {a}");
        let past: HashSet<PoiId> = index
            .query(&q.with_alpha0((b - 1e-7).max(1e-6)))
            .iter()
            .map(|h| h.poi)
            .collect();
        assert!(original.difference(&past).count() >= 2);
    }
    if let (Some(a), Some(b)) = (m1.upper, m2.upper) {
        assert!(b >= a - 1e-12, "upper walks outward: {b} >= {a}");
    }
}
