//! Property tests for the service sharding seam (`knnta_core::shard`):
//! the POI partitioner and the scatter-gather top-k merge the sharded
//! query service (`crates/service`) is built on.
//!
//! Pinned contracts:
//! * every `PoiId` lands in exactly one shard, at every shard count;
//! * per-shard `gmax` is admissible against the global `gmax` — each
//!   shard's root-max series is dominated per-epoch by the unsharded
//!   tree's root-max, and the per-epoch max over all shards reproduces it
//!   exactly (the identity that lets shards score with the global
//!   normaliser, DESIGN.md §15);
//! * the merge of per-shard top-k lists equals the single-heap top-k of
//!   the union, ties broken by the global `(score, PoiId)` total order;
//! * shards pruning against one `SharedBound` per query
//!   (`Executor::query_tile`), run one after another in any order or
//!   concurrently, still merge to the unsharded answer bit for bit.

use knnta_core::{
    merge_ranked, partition_pois, Executor, FrozenIndex, Grouping, IndexConfig, KnntaQuery, Poi,
    QueryHit, SharedBound, TarIndex,
};
use knnta_util::prop::{check, Gen};
use tempora::{AggregateSeries, EpochGrid, PoiId, TimeInterval};

const EPOCHS: u32 = 8;

fn gen_pois(g: &mut Gen) -> Vec<(Poi, AggregateSeries)> {
    let n = g.len_in(1, 60);
    (0..n as u32)
        .map(|id| {
            let poi = Poi::new(id, g.f64_in(0.0..10.0), g.f64_in(0.0..10.0));
            let pairs: Vec<(u32, u64)> = (0..EPOCHS)
                .filter_map(|e| {
                    if g.bool() {
                        Some((e, g.u64_in(1..100)))
                    } else {
                        None
                    }
                })
                .collect();
            // At least one check-in so the series is non-empty.
            let series = if pairs.is_empty() {
                AggregateSeries::from_pairs([(0, 1)])
            } else {
                AggregateSeries::from_pairs(pairs)
            };
            (poi, series)
        })
        .collect()
}

fn build(pois: &[(Poi, AggregateSeries)]) -> TarIndex {
    let grid = EpochGrid::fixed_days(1, EPOCHS as usize);
    let bounds = rtree::Rect::new([0.0, 0.0], [10.0, 10.0]);
    TarIndex::build(
        IndexConfig::with_grouping(Grouping::TarIntegral),
        grid,
        bounds,
        pois.iter().cloned(),
    )
}

#[test]
fn every_poi_in_exactly_one_shard() {
    check("shard_partition_exact_cover", 60, |g| {
        let pois = gen_pois(g);
        let bounds = rtree::Rect::new([0.0, 0.0], [10.0, 10.0]);
        let shards = *g.pick(&[1usize, 2, 3, 4, 8, 16]);
        let positions: Vec<Poi> = pois.iter().map(|(p, _)| *p).collect();
        let parts = partition_pois(&positions, &bounds, shards);
        assert_eq!(parts.len(), shards);
        let mut ids: Vec<PoiId> = parts
            .iter()
            .flatten()
            .map(|&i| positions[i].id)
            .collect();
        ids.sort();
        let mut want: Vec<PoiId> = positions.iter().map(|p| p.id).collect();
        want.sort();
        assert_eq!(ids, want, "shards={shards}");
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        assert!(max - min <= 1, "balanced partition, got {sizes:?}");
    });
}

#[test]
fn per_shard_gmax_admissible_against_global() {
    check("shard_gmax_admissible", 30, |g| {
        let pois = gen_pois(g);
        let bounds = rtree::Rect::new([0.0, 0.0], [10.0, 10.0]);
        let shards = *g.pick(&[2usize, 3, 4, 8]);
        let global = build(&pois);
        let global_max = global.root_max_series();
        let grid = global.grid().clone();

        let positions: Vec<Poi> = pois.iter().map(|(p, _)| *p).collect();
        let parts = partition_pois(&positions, &bounds, shards);
        let mut shard_maxes = Vec::new();
        for part in parts.iter().filter(|p| !p.is_empty()) {
            let shard_pois: Vec<_> = part.iter().map(|&i| pois[i].clone()).collect();
            let shard = build(&shard_pois);
            shard_maxes.push(shard.root_max_series());
        }

        // Each shard's max is dominated by the global max on every epoch
        // span, and the shard maxes jointly reconstruct it.
        let rebuilt = AggregateSeries::max_of(shard_maxes.iter());
        for e in 0..EPOCHS {
            let iv = TimeInterval::days(e as i64, e as i64 + 1);
            let global_v = global_max.aggregate_over(&grid, iv);
            for (s, sm) in shard_maxes.iter().enumerate() {
                assert!(
                    sm.aggregate_over(&grid, iv) <= global_v,
                    "epoch {e}: shard {s} max exceeds global"
                );
            }
            assert_eq!(
                rebuilt.aggregate_over(&grid, iv),
                global_v,
                "epoch {e}: max over shards != global root-max"
            );
        }
    });
}

#[test]
fn merge_equals_single_heap_topk_on_union() {
    check("shard_merge_matches_union_topk", 120, |g| {
        // Random per-shard ranked lists with deliberate score ties across
        // shards (scores drawn from a small lattice).
        let shards = g.usize_in(1..6);
        let mut next_id = 0u32;
        let per_shard: Vec<Vec<QueryHit>> = (0..shards)
            .map(|_| {
                let mut hits: Vec<QueryHit> = (0..g.len_in(0, 12))
                    .map(|_| {
                        let id = next_id;
                        next_id += 1;
                        QueryHit {
                            poi: PoiId(id),
                            score: g.u32_in(0..8) as f64 / 8.0,
                            s0: 0.0,
                            s1: 0.0,
                            distance: 0.0,
                            aggregate: 0,
                        }
                    })
                    .collect();
                hits.sort_by(QueryHit::ranked_cmp);
                hits
            })
            .collect();
        let k = g.usize_in(1..15);

        let merged = merge_ranked(&per_shard, k);

        let mut union: Vec<QueryHit> = per_shard.iter().flatten().copied().collect();
        union.sort_by(QueryHit::ranked_cmp);
        union.truncate(k);

        let key = |h: &QueryHit| (h.poi, h.score.to_bits());
        assert_eq!(
            merged.iter().map(key).collect::<Vec<_>>(),
            union.iter().map(key).collect::<Vec<_>>()
        );
    });
}

#[test]
fn sharded_query_with_global_normaliser_matches_unsharded() {
    // End-to-end seam check (the service-level oracle in
    // `tests/service_oracle.rs` covers the full async path): build shard
    // trees with the global grid/bounds, execute with the global root-max
    // via `Executor::with_root_max`, merge — bit-identical to the
    // unsharded tree.
    check("shard_scatter_gather_bit_identical", 20, |g| {
        let pois = gen_pois(g);
        let bounds = rtree::Rect::new([0.0, 0.0], [10.0, 10.0]);
        let shards_n = *g.pick(&[2usize, 4]);
        let global = build(&pois);
        let global_max = global.root_max_series();

        let positions: Vec<Poi> = pois.iter().map(|(p, _)| *p).collect();
        let parts = partition_pois(&positions, &bounds, shards_n);
        let shard_trees: Vec<TarIndex> = parts
            .iter()
            .filter(|p| !p.is_empty())
            .map(|part| build(&part.iter().map(|&i| pois[i].clone()).collect::<Vec<_>>()))
            .collect();

        let q = KnntaQuery::new(
            [g.f64_in(0.0..10.0), g.f64_in(0.0..10.0)],
            TimeInterval::days(0, EPOCHS as i64),
        )
        .with_k(g.usize_in(1..12))
        .with_alpha0(0.3);

        let want = global.query(&q);
        let per_shard: Vec<Vec<QueryHit>> = shard_trees
            .iter()
            .map(|t| {
                let mut exec = knnta_core::Executor::new(t).with_root_max(&global_max);
                exec.query(&q)
            })
            .collect();
        let got = merge_ranked(&per_shard, q.k);

        let key = |h: &QueryHit| (h.poi, h.score.to_bits(), h.aggregate);
        assert_eq!(
            got.iter().map(key).collect::<Vec<_>>(),
            want.iter().map(key).collect::<Vec<_>>()
        );
    });
}

/// Every order of `0..n`.
fn orders(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for rest in orders(n - 1) {
        for at in 0..=rest.len() {
            let mut order = rest.clone();
            order.insert(at, n - 1);
            out.push(order);
        }
    }
    out
}

#[test]
fn shards_under_one_bound_merge_to_the_unsharded_answer() {
    check("shard_shared_bound_bit_identical", 40, |g| {
        // All aggregates tied, and POIs and query points on a 4 x 4
        // lattice: scores tie in bulk, so the bound often equals the score
        // of a hit in another shard exactly.
        let tied = g.bool();
        let lattice = |x: f64| if tied { (x / 3.0).floor() * 3.0 } else { x };
        let mut pois = gen_pois(g);
        if tied {
            let series = AggregateSeries::from_pairs((0..EPOCHS).map(|e| (e, 7)));
            for (poi, s) in &mut pois {
                poi.pos = poi.pos.map(lattice);
                *s = series.clone();
            }
        }
        let grid = EpochGrid::fixed_days(1, EPOCHS as usize);
        let bounds = rtree::Rect::new([0.0, 0.0], [10.0, 10.0]);
        let config = IndexConfig::with_grouping(Grouping::TarIntegral);
        let root_max = AggregateSeries::max_of(pois.iter().map(|(_, s)| s));
        let positions: Vec<Poi> = pois.iter().map(|(p, _)| *p).collect();
        let parts = partition_pois(&positions, &bounds, g.usize_in(1..5));
        let shards: Vec<FrozenIndex> = parts
            .iter()
            .filter(|part| !part.is_empty())
            .map(|part| {
                let part: Vec<_> = part.iter().map(|&i| pois[i].clone()).collect();
                FrozenIndex::build(config, grid.clone(), bounds, &part)
            })
            .collect();
        let all = FrozenIndex::build(config, grid.clone(), bounds, &pois);

        let largest = parts.iter().map(Vec::len).max().unwrap_or(0);
        let tile: Vec<KnntaQuery> = (0..*g.pick(&[1usize, 2, 5]))
            .map(|_| {
                let e = g.u32_in(0..EPOCHS) as i64;
                let interval = if g.bool() {
                    TimeInterval::days(e, e + 1)
                } else {
                    TimeInterval::days(0, EPOCHS as i64)
                };
                let beyond = largest + 1 + g.usize_in(0..5);
                let k = *g.pick(&[1, 10, beyond]);
                let point = [g.f64_in(0.0..10.0), g.f64_in(0.0..10.0)].map(lattice);
                KnntaQuery::new(point, interval)
                    .with_k(k)
                    .with_alpha0(g.f64_in(0.1..0.9))
            })
            .collect();
        let mut unsharded = Executor::frozen(&all);
        let want: Vec<Vec<QueryHit>> = tile.iter().map(|q| unsharded.query(q)).collect();

        let key = |h: &QueryHit| (h.poi, h.score.to_bits(), h.aggregate);
        let check_merge = |lists: &[Vec<Vec<QueryHit>>], how: &str| {
            for (i, q) in tile.iter().enumerate() {
                let per_shard: Vec<Vec<QueryHit>> = lists.iter().map(|l| l[i].clone()).collect();
                let got = merge_ranked(&per_shard, q.k);
                assert_eq!(
                    got.iter().map(key).collect::<Vec<_>>(),
                    want[i].iter().map(key).collect::<Vec<_>>(),
                    "{how}, query {i} (k = {})",
                    q.k
                );
            }
        };
        let fresh = || -> Vec<SharedBound> { tile.iter().map(|_| SharedBound::new()).collect() };
        let run = |shard: &FrozenIndex, bounds: &[SharedBound]| {
            Executor::frozen(shard)
                .with_root_max(&root_max)
                .query_tile(&tile, bounds)
        };

        for order in orders(shards.len()) {
            let bounds = fresh();
            let mut lists = vec![Vec::new(); shards.len()];
            for &s in &order {
                lists[s] = run(&shards[s], &bounds);
            }
            check_merge(&lists, &format!("shards run one by one in order {order:?}"));
        }
        let bounds = fresh();
        let lists: Vec<Vec<Vec<QueryHit>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .map(|shard| scope.spawn(|| run(shard, &bounds)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        check_merge(&lists, "shards concurrently");
    });
}
