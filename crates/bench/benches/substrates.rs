//! Micro-benchmarks for the substrates the TAR-tree is built on: the
//! multi-version B-tree (TIA), the R*-tree, and the page store.

use knnta_util::bench::Harness;
use mvbt::{Mvbt, MvbtTia};
use pagestore::{AccessStats, BufferPool, Bytes, Disk};
use rtree::{NoAug, RStarGrouping, RStarTree, RTreeParams, Rect};
use std::hint::black_box;
use std::sync::Arc;
use tempora::{AggregateSeries, EpochGrid, TimeInterval};

fn lcg_points(n: usize) -> Vec<[f64; 2]> {
    let mut x = 7u64;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = ((x >> 16) % 100_000) as f64 / 100.0;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = ((x >> 16) % 100_000) as f64 / 100.0;
            [a, b]
        })
        .collect()
}

/// MVBT: insertion throughput and interval-aggregate queries.
fn mvbt_ops(h: &mut Harness) {
    let mut group = h.group("mvbt");
    group.sample_size(20);
    group.bench("insert_10k", |b| {
        b.iter(|| {
            let disk = Arc::new(Disk::new(1024, AccessStats::new()));
            let pool = Arc::new(BufferPool::new(disk, 64));
            let mut t = Mvbt::new(pool);
            for k in 0..10_000i64 {
                t.insert(black_box((k * 7919) % 10_000), k as u128, 1);
            }
            t
        })
    });
    // TIA aggregate queries over a loaded index.
    let grid = EpochGrid::fixed_days(1, 1000);
    let disk = Arc::new(Disk::new(1024, AccessStats::new()));
    let mut tia = MvbtTia::new(disk, 10);
    tia.load_series(
        &grid,
        &AggregateSeries::from_pairs((0..1000u32).map(|e| (e, (e % 17 + 1) as u64))),
    );
    for days in [16i64, 256] {
        let iq = TimeInterval::days(100, 100 + days);
        group.bench(format!("tia_aggregate/{days}"), |b| {
            b.iter(|| black_box(tia.aggregate_over(iq)))
        });
    }
    group.finish();
}

/// R*-tree: incremental insert vs STR bulk load, and k-NN queries.
fn rtree_ops(h: &mut Harness) {
    let mut group = h.group("rtree");
    group.sample_size(10);
    let points = lcg_points(20_000);
    group.bench("insert_20k", |b| {
        b.iter(|| {
            let mut t: RStarTree<2, u32, NoAug, RStarGrouping> = RStarTree::new(
                RTreeParams::with_max_entries(50),
                NoAug,
                RStarGrouping,
                AccessStats::new(),
            );
            for (i, p) in points.iter().enumerate() {
                t.insert(Rect::point(*p), i as u32);
            }
            t
        })
    });
    group.bench("bulk_load_20k", |b| {
        b.iter(|| {
            let mut t: RStarTree<2, u32, NoAug, RStarGrouping> = RStarTree::new(
                RTreeParams::with_max_entries(50),
                NoAug,
                RStarGrouping,
                AccessStats::new(),
            );
            t.bulk_load(
                points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (Rect::point(*p), i as u32, ()))
                    .collect(),
            );
            t
        })
    });
    let mut t: RStarTree<2, u32, NoAug, RStarGrouping> = RStarTree::new(
        RTreeParams::with_max_entries(50),
        NoAug,
        RStarGrouping,
        AccessStats::new(),
    );
    for (i, p) in points.iter().enumerate() {
        t.insert(Rect::point(*p), i as u32);
    }
    group.bench("knn_10_of_20k", |b| {
        b.iter(|| black_box(t.nearest(&[500.0, 500.0], 10)))
    });
    group.finish();
}

/// Buffer pool: hit and miss paths.
fn pagestore_ops(h: &mut Harness) {
    let mut group = h.group("pagestore");
    let stats = AccessStats::new();
    let disk = Arc::new(Disk::new(1024, stats));
    let pool = BufferPool::new(Arc::clone(&disk), 10);
    let pages: Vec<_> = (0..100).map(|_| pool.allocate()).collect();
    for &p in &pages {
        pool.write(p, Bytes::from(vec![7u8; 512]));
    }
    group.bench("buffered_read_hit", |b| {
        let hot = pages[0];
        let _ = pool.read(hot);
        b.iter(|| black_box(pool.read(hot)))
    });
    group.bench("buffered_read_thrash", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 13) % pages.len(); // stride defeats the 10-slot LRU
            black_box(pool.read(pages[i]))
        })
    });
    group.finish();
}

fn main() {
    let mut h = Harness::new("substrates");
    mvbt_ops(&mut h);
    rtree_ops(&mut h);
    pagestore_ops(&mut h);
    h.finish().expect("write BENCH_substrates.json");
}
