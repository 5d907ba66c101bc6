//! Workspace-level property tests: on arbitrary datasets and queries, every
//! index variant must agree with the scan oracle, and the Section 7
//! algorithms must keep their contracts.

mod common;

use common::seq;
use knnta::core::{
    BatchOrder, Executor, Grouping, IndexConfig, PlanBackend, ScanBaseline, TarIndex,
};
use knnta::util::prop::{check, Gen};
use knnta::{AggregateSeries, EpochGrid, KnntaQuery, Poi, TimeInterval};
use rtree::{Rect, NODE_HEADER_BYTES};

const EPOCHS: usize = 12;

#[derive(Debug, Clone)]
struct ArbDataset {
    pois: Vec<(Poi, AggregateSeries)>,
}

fn gen_dataset(g: &mut Gen, max_pois: usize) -> ArbDataset {
    let raw = g.vec(1, max_pois, |g| {
        (
            g.f64_in(0.0..100.0),
            g.f64_in(0.0..100.0),
            g.vec(0, 8, |g| (g.u32_in(0..EPOCHS as u32), g.u64_in(0..50))),
        )
    });
    ArbDataset {
        pois: raw
            .into_iter()
            .enumerate()
            .map(|(i, (x, y, pairs))| {
                (Poi::new(i as u32, x, y), AggregateSeries::from_pairs(pairs))
            })
            .collect(),
    }
}

fn gen_query(g: &mut Gen) -> KnntaQuery {
    let (x, y) = (g.f64_in(0.0..100.0), g.f64_in(0.0..100.0));
    let start = g.i64_in(0..EPOCHS as i64);
    let len = g.i64_in(1..EPOCHS as i64 + 1);
    let k = g.usize_in(1..20);
    let alpha0 = g.f64_in(0.05..0.95);
    let end = (start + len).min(EPOCHS as i64);
    KnntaQuery::new([x, y], TimeInterval::days(7 * start, 7 * end))
        .with_k(k)
        .with_alpha0(alpha0)
}

fn build_all(ds: &ArbDataset) -> (ScanBaseline, Vec<TarIndex>) {
    let grid = EpochGrid::fixed_days(7, EPOCHS);
    let bounds = Rect::new([0.0, 0.0], [100.0, 100.0]);
    let baseline = ScanBaseline::build(grid.clone(), bounds, ds.pois.iter().cloned());
    let indexes = [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg]
        .into_iter()
        .map(|g| {
            // Small nodes force deep trees even on small datasets.
            let config = IndexConfig {
                grouping: g,
                node_size: 256,
                forced_reinsert: true,
            };
            TarIndex::build(config, grid.clone(), bounds, ds.pois.iter().cloned())
        })
        .collect();
    (baseline, indexes)
}

/// Deep trees — fanout 4 to 8, so inserts split and reinsert all the time —
/// keep every structural invariant and every TIA summary exact through the
/// build, removals and re-inserts, for all three groupings.
#[test]
fn small_node_trees_stay_valid_under_churn() {
    check("small_node_trees_stay_valid_under_churn", 16, |g| {
        let ds = gen_dataset(g, 150);
        let node_size = NODE_HEADER_BYTES + 28 * g.usize_in(4..9);
        let forced_reinsert = g.bool();
        let grid = EpochGrid::fixed_days(7, EPOCHS);
        let bounds = Rect::new([0.0, 0.0], [100.0, 100.0]);
        for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
            let config = IndexConfig {
                grouping,
                node_size,
                forced_reinsert,
            };
            let mut index = TarIndex::build(config, grid.clone(), bounds, ds.pois.iter().cloned());
            index.validate();
            let churn: Vec<&(Poi, AggregateSeries)> = ds.pois.iter().filter(|_| g.bool()).collect();
            for (poi, _) in &churn {
                assert!(index.remove_poi(poi.id), "{grouping}: {}", poi.id);
                index.validate();
            }
            for (poi, series) in churn {
                index.insert_poi(*poi, series.clone());
                index.validate();
            }
            assert_eq!(index.len(), ds.pois.len(), "{grouping}");
        }
    });
}

/// Index answers equal oracle answers for every grouping strategy.
#[test]
fn indexes_match_oracle() {
    check("indexes_match_oracle", 32, |g| {
        let ds = gen_dataset(g, 120);
        let q = gen_query(g);
        let (baseline, indexes) = build_all(&ds);
        let want = baseline.query(&q);
        for index in &indexes {
            index.validate();
            let got = index.query(&q);
            assert_eq!(got.len(), want.len());
            for (rank, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (a.score - b.score).abs() < 1e-9,
                    "{}: {} vs {}",
                    index.grouping(),
                    a.score,
                    b.score
                );
                // Same POI at the same normalised distance: the raw
                // distance is the same arithmetic on both sides.
                if a.poi == b.poi && a.s0.to_bits() == b.s0.to_bits() {
                    assert_eq!(
                        a.distance.to_bits(),
                        b.distance.to_bits(),
                        "{} rank {rank}: distance {} vs scan {}",
                        index.grouping(),
                        a.distance,
                        b.distance
                    );
                }
            }
        }
    });
}

/// The root max-series normaliser upper-bounds every hit's aggregate.
#[test]
fn normalizer_bounds_aggregates() {
    check("normalizer_bounds_aggregates", 32, |g| {
        let ds = gen_dataset(g, 80);
        let q = gen_query(g);
        let (_, indexes) = build_all(&ds);
        let index = &indexes[0];
        let gmax = index.aggregate_normalizer(q.interval);
        for hit in index.query(&q) {
            assert!(hit.aggregate as f64 <= gmax);
            assert!(hit.s0 >= 0.0 && hit.s0 <= 1.0 + 1e-9);
            assert!(hit.s1 >= 0.0 && hit.s1 <= 1.0 + 1e-9);
            let expect = q.alpha0 * hit.s0 + q.alpha1() * hit.s1;
            assert!((hit.score - expect).abs() < 1e-9);
        }
    });
}

/// MWA: the pruning algorithm always agrees with the enumerating one,
/// and no boundary lies on the wrong side of α0.
#[test]
fn mwa_contract() {
    check("mwa_contract", 32, |g| {
        let ds = gen_dataset(g, 60);
        let q = gen_query(g);
        let (_, indexes) = build_all(&ds);
        let index = &indexes[0];
        let (_, adj_p) = index.mwa_pruning(&q);
        let (_, adj_e) = index.mwa_enumerating(&q);
        match (adj_p.lower, adj_e.lower) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9),
            (a, b) => assert_eq!(a.is_some(), b.is_some()),
        }
        match (adj_p.upper, adj_e.upper) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9),
            (a, b) => assert_eq!(a.is_some(), b.is_some()),
        }
        if let Some(l) = adj_p.lower {
            assert!(l < q.alpha0);
        }
        if let Some(u) = adj_p.upper {
            assert!(u > q.alpha0);
        }
    });
}

/// Collective batch processing returns exactly the individual answers.
#[test]
fn collective_matches_individual() {
    check("collective_matches_individual", 32, |g| {
        let ds = gen_dataset(g, 80);
        let qs = g.vec(1, 12, gen_query);
        let (_, indexes) = build_all(&ds);
        let index = &indexes[0];
        let plan = seq(PlanBackend::InMemory);
        let collective = Executor::new(index).execute_batch(&qs, &plan, BatchOrder::Hilbert);
        let individual: Vec<_> = qs.iter().map(|q| index.query(q)).collect();
        for (c, i) in collective.iter().zip(&individual) {
            assert_eq!(c.len(), i.len());
            for (a, b) in c.iter().zip(i) {
                assert!((a.score - b.score).abs() < 1e-9);
                assert_eq!(a.aggregate, b.aggregate);
            }
        }
    });
}

/// Packed serving image (`docs/FORMAT.md`): for arbitrary datasets and
/// every grouping, pack → serialise → load → serialise is byte-identical
/// (both through plain bytes and through disk pages of arbitrary size),
/// and the reloaded image answers queries bit-identically to the freshly
/// packed one.
#[test]
fn packed_image_roundtrip_is_byte_identical() {
    use knnta::core::PackedTarTree;
    check("packed_image_roundtrip_is_byte_identical", 24, |g| {
        let ds = gen_dataset(g, 100);
        let q = gen_query(g);
        let (_, indexes) = build_all(&ds);
        let index = &indexes[g.usize_in(0..3)];
        let packed = index.pack();
        let image = packed.to_bytes();
        let loaded = PackedTarTree::from_bytes(&image).expect("own image must parse");
        assert_eq!(image, loaded.to_bytes(), "to_bytes→from_bytes→to_bytes drifted");
        let on_packed = seq(PlanBackend::Packed);
        let want = Executor::new(index).with_packed(&packed).execute(&q, &on_packed);
        let got = Executor::new(index).with_packed(&loaded).execute(&q, &on_packed);
        assert_eq!(want.len(), got.len());
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(
                (a.poi, a.score.to_bits(), a.aggregate),
                (b.poi, b.score.to_bits(), b.aggregate)
            );
        }
    });
}

/// Check-in ingestion is equivalent to building with the final series.
#[test]
fn ingestion_equivalence() {
    check("ingestion_equivalence", 32, |g| {
        let ds = gen_dataset(g, 50);
        let updates = g.vec(0, 25, |g| {
            (g.usize_in(0..50), g.usize_in(0..EPOCHS), g.u64_in(1..30))
        });
        let q = gen_query(g);
        let grid = EpochGrid::fixed_days(7, EPOCHS);
        let bounds = Rect::new([0.0, 0.0], [100.0, 100.0]);
        let mut live = TarIndex::build(
            IndexConfig {
                node_size: 256,
                ..IndexConfig::default()
            },
            grid.clone(),
            bounds,
            ds.pois.iter().cloned(),
        );
        let mut final_series: Vec<AggregateSeries> =
            ds.pois.iter().map(|(_, s)| s.clone()).collect();
        // Group updates by epoch to respect the batch-per-epoch model.
        for epoch in 0..EPOCHS {
            let batch: Vec<_> = updates
                .iter()
                .filter(|&&(p, e, _)| e == epoch && p < ds.pois.len())
                .map(|&(p, _, v)| (ds.pois[p].0.id, v))
                .collect();
            live.ingest_epoch(epoch, &batch);
            // Duplicates within one batch collapse last-write-wins inside
            // ingest_epoch (it builds a map); mirror that here.
            let mut seen = std::collections::HashMap::new();
            for &(pid, v) in &batch {
                seen.insert(pid, v);
            }
            for (pid, v) in seen {
                let idx = ds.pois.iter().position(|(p, _)| p.id == pid).unwrap();
                final_series[idx].add(epoch as u32, v);
            }
        }
        live.validate();
        let rebuilt = TarIndex::build(
            IndexConfig {
                node_size: 256,
                ..IndexConfig::default()
            },
            grid,
            bounds,
            ds.pois.iter().map(|(p, _)| *p).zip(final_series),
        );
        let a = live.query(&q);
        let b = rebuilt.query(&q);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((x.score - y.score).abs() < 1e-9, "{} vs {}", x.score, y.score);
        }
    });
}
