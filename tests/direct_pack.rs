//! The direct packer: `FrozenIndex::build` packs the serving image straight
//! from the POIs, and must reproduce — byte for byte, plan for plan, answer
//! for answer — what building the R\*-tree first and packing its leaves
//! gives (`TarIndex::build(..).pack()`).

mod common;

use common::{small_dataset, tiny_dataset};
use knnta::core::{Executor, FrozenIndex, Grouping, IndexConfig, TarIndex};
use knnta::lbsn::{IntervalAnchor, Workload};
use knnta::util::prop::{check, Gen};
use knnta::{AggregateSeries, EpochGrid, KnntaQuery, Poi, TimeInterval};
use rtree::Rect;

const GROUPINGS: [Grouping; 3] = [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg];

/// (a) The direct builder reproduces the format fixture that pins
/// `TarIndex::build(..).pack()` (`tests/format_golden.rs`).
#[test]
fn direct_image_matches_the_golden_fixture() {
    let (grid, bounds, pois) = tiny_dataset();
    let config = IndexConfig {
        grouping: Grouping::TarIntegral,
        node_size: 256,
        forced_reinsert: true,
    };
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/packed_v2.golden"
    ))
    .expect("golden fixture present");
    let frozen = FrozenIndex::build(config, grid, bounds, &pois);
    assert_eq!(frozen.packed().to_bytes(), golden);
}

const EPOCHS: usize = 10;

/// A random POI set with sparse ids: clustered on a handful of sites (so
/// positions repeat exactly), a share of all-zero series, epochs that
/// sometimes run past the grid (both builders accept them), and — the
/// `len_in(0, ..)` lower bound — sometimes empty or a single POI.
fn gen_pois(g: &mut Gen) -> Vec<(Poi, AggregateSeries)> {
    let sites = g.vec(1, 6, |g| [g.f64_in(0.0..100.0), g.f64_in(0.0..100.0)]);
    let n = g.len_in(0, 90);
    let mut id = 0u32;
    (0..n)
        .map(|_| {
            id += g.u32_in(1..4);
            let pos = if g.bool() {
                *g.pick(&sites)
            } else {
                [g.f64_in(0.0..100.0), g.f64_in(0.0..100.0)]
            };
            let series = if g.weighted(&[1, 3]) == 0 {
                AggregateSeries::new()
            } else {
                AggregateSeries::from_pairs(
                    g.vec(0, 8, |g| (g.u32_in(0..EPOCHS as u32 + 3), g.u64_in(0..40))),
                )
            };
            (Poi::new(id, pos[0], pos[1]), series)
        })
        .collect()
}

fn shuffle<T>(g: &mut Gen, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, g.usize_in(0..i + 1));
    }
}

/// (b) `direct == TarIndex::build(..).pack()` bytes, for every grouping,
/// whatever order either builder sees the POIs in, and the direct root max
/// (read off the image's root) is the per-epoch max over every series.
#[test]
fn direct_image_equals_build_then_pack() {
    check("direct_image_equals_build_then_pack", 48, |g| {
        let grid = EpochGrid::fixed_days(7, EPOCHS);
        let bounds = Rect::new([0.0, 0.0], [100.0, 100.0]);
        let pois = gen_pois(g);
        let root_max = AggregateSeries::max_of(pois.iter().map(|(_, series)| series));
        let mut shuffled = pois.clone();
        shuffle(g, &mut shuffled);
        for grouping in GROUPINGS {
            let config = IndexConfig {
                grouping,
                node_size: 256,
                forced_reinsert: true,
            };
            let want = TarIndex::build(config, grid.clone(), bounds, pois.iter().cloned())
                .pack()
                .to_bytes();
            for input in [&pois, &shuffled] {
                let frozen = FrozenIndex::build(config, grid.clone(), bounds, input);
                assert_eq!(
                    frozen.packed().to_bytes(),
                    want,
                    "{grouping}, {} POIs",
                    pois.len()
                );
                assert_eq!(frozen.root_max(), &root_max, "{grouping}, {} POIs", pois.len());
            }
        }
    });
}

fn queries(n: usize) -> (knnta::lbsn::LbsnDataset, Vec<KnntaQuery>) {
    let dataset = small_dataset();
    let queries = Workload::generate(&dataset, n, IntervalAnchor::Random, 21)
        .queries
        .iter()
        .enumerate()
        .map(|(i, &(point, interval))| {
            KnntaQuery::new(point, interval)
                .with_k([1, 10, 100][i % 3])
                .with_alpha0([0.3, 0.7][i % 2])
        })
        .collect();
    (dataset, queries)
}

/// (c) An executor over the frozen index plans and answers bit-equally to
/// one over the arena index with its packed image attached.
#[test]
fn frozen_executor_matches_the_arena_executor() {
    let (dataset, queries) = queries(48);
    let bounds = Rect::new(dataset.bounds.0, dataset.bounds.1);
    let pois: Vec<(Poi, AggregateSeries)> = dataset
        .snapshot(dataset.grid.len())
        .into_iter()
        .map(|(id, pos, series)| (Poi { id, pos }, series))
        .collect();
    for grouping in GROUPINGS {
        let config = IndexConfig::with_grouping(grouping);
        let index = TarIndex::build(config, dataset.grid.clone(), bounds, pois.iter().cloned());
        let packed = index.pack();
        let frozen = FrozenIndex::build(config, dataset.grid.clone(), bounds, &pois);
        let mut arena = Executor::new(&index).with_packed(&packed);
        let mut direct = Executor::frozen(&frozen);
        for q in &queries {
            assert_eq!(direct.query(q), arena.query(q), "{grouping}");
            let (a, d) = (arena.last_plan().unwrap(), direct.last_plan().unwrap());
            assert_eq!((d.backend, d.mode, d.tile), (a.backend, a.mode, a.tile));
            assert_eq!(
                d.model_node_accesses.to_bits(),
                a.model_node_accesses.to_bits(),
                "{grouping}"
            );
            assert!(d.estimated_fpk > 0.0, "the power-law fit ran, not the fallback");
        }
        assert_eq!(direct.query_batch(&queries), arena.query_batch(&queries), "{grouping}");
        assert_eq!(
            direct.last_plan().unwrap().model_node_accesses.to_bits(),
            arena.last_plan().unwrap().model_node_accesses.to_bits(),
        );
        assert_eq!(
            frozen.stats().snapshot().node_accesses,
            index.stats().snapshot().node_accesses,
            "{grouping}: same image, same traversal work"
        );
    }
}

fn two_pois(second: Poi) -> Vec<(Poi, AggregateSeries)> {
    vec![
        (Poi::new(7, 1.0, 1.0), AggregateSeries::from_pairs([(0, 5)])),
        (second, AggregateSeries::from_pairs([(1, 2)])),
    ]
}

fn build(pois: &[(Poi, AggregateSeries)]) -> FrozenIndex {
    let grid = EpochGrid::fixed_days(1, 3);
    let bounds = Rect::new([0.0, 0.0], [10.0, 10.0]);
    FrozenIndex::build(IndexConfig::default(), grid, bounds, pois)
}

/// Input-check parity with `TarIndex::build`: same panic, same message.
#[test]
#[should_panic(expected = "duplicate insert of")]
fn duplicate_poi_id_is_rejected() {
    build(&two_pois(Poi::new(7, 2.0, 2.0)));
}

#[test]
#[should_panic(expected = "non-finite position")]
fn non_finite_position_is_rejected() {
    build(&two_pois(Poi::new(8, f64::NAN, 2.0)));
}

/// The empty set packs (a single empty leaf) and answers nothing.
#[test]
fn empty_set_answers_nothing() {
    let frozen = build(&[]);
    let q = KnntaQuery::new([1.0, 1.0], TimeInterval::days(0, 3)).with_k(3);
    assert!(Executor::frozen(&frozen).query(&q).is_empty());
}
