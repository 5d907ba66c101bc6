//! Coverage for the in-repo build substrates (`knnta_util`) at the points
//! where the rest of the workspace actually depends on them: RNG
//! determinism, codec round-trips on real TIA pages, the index file's
//! round trip, and the bench runner's JSON artifact.

use knnta::core::{Executor, FrozenIndex, IndexConfig, TarIndex};
use knnta::util::bench::Harness;
use knnta::util::codec::{Bytes, BytesMut};
use knnta::util::rng::{Rng, StdRng};
use knnta::{AggregateSeries, EpochGrid, Poi};
use mvbt::{Node, NodeBody, LeafEntry, VERSION_INF};
use pagestore::PageId;
use rtree::Rect;

/// The same seed must give the same stream, across rng instances; distinct
/// seeds must diverge.
#[test]
fn rng_deterministic_per_seed() {
    for seed in [0u64, 1, 42, u64::MAX] {
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
    let mut a = StdRng::seed_from_u64(7);
    let mut b = StdRng::seed_from_u64(8);
    let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
    assert!(same < 4, "seeds 7 and 8 produced {same}/64 collisions");
}

/// gen_range stays in bounds and hits both ends of small ranges, for the
/// types the workspace samples.
#[test]
fn rng_ranges_cover_bounds() {
    let mut rng = StdRng::seed_from_u64(99);
    let (mut lo_seen, mut hi_seen) = (false, false);
    for _ in 0..500 {
        let x = rng.gen_range(0usize..4);
        assert!(x < 4);
        lo_seen |= x == 0;
        hi_seen |= x == 3;
        let f: f64 = rng.gen_range(-2.5..2.5);
        assert!((-2.5..2.5).contains(&f));
        let i = rng.gen_range(-10i64..=10);
        assert!((-10..=10).contains(&i));
    }
    assert!(lo_seen && hi_seen);
}

/// The index file (the packed image, `TarIndex::pack().to_bytes()`) of an
/// arena index survives a round trip byte for byte and answers queries
/// bit-identically, through the image and through the arena rebuilt from
/// it.
#[test]
fn codec_roundtrip_persist_snapshot() {
    let grid = EpochGrid::fixed_days(7, 8);
    let bounds = Rect::new([0.0, 0.0], [100.0, 100.0]);
    let mut rng = StdRng::seed_from_u64(12);
    let pois: Vec<_> = (0..60u32)
        .map(|i| {
            let series = AggregateSeries::from_pairs(
                (0..8u32).map(|e| (e, rng.gen_range(0u64..40))),
            );
            (
                Poi::new(i, rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                series,
            )
        })
        .collect();
    let index = TarIndex::build(IndexConfig::default(), grid, bounds, pois);
    let bytes = index.pack().to_bytes();
    let loaded = FrozenIndex::from_bytes(&bytes).expect("valid index file");
    assert_eq!(loaded.packed().to_bytes(), bytes);
    let q = knnta::KnntaQuery::new([50.0, 50.0], knnta::TimeInterval::days(0, 56)).with_k(10);
    let want = index.query(&q);
    assert_eq!(want.len(), 10);
    assert_eq!(Executor::frozen(&loaded).query(&q), want);
    assert_eq!(loaded.to_arena().query(&q), want);
}

/// MVBT node pages (the disk-TIA storage format) round-trip through the
/// codec bit-exactly, including extreme values.
#[test]
fn codec_roundtrip_disk_tia_pages() {
    let node = Node {
        start_version: u64::MAX - 1,
        body: NodeBody::Leaf(vec![
            LeafEntry {
                key: i64::MIN,
                start: 0,
                end: VERSION_INF,
                value: u128::MAX,
            },
            LeafEntry {
                key: i64::MAX,
                start: 17,
                end: 18,
                value: 0,
            },
        ]),
    };
    let encoded = node.encode();
    assert_eq!(Node::decode(encoded.clone()), node);
    // The page survives a trip through a pagestore disk too.
    let disk = pagestore::Disk::new(encoded.len().max(64), pagestore::AccessStats::new());
    let p = disk.allocate();
    disk.write(p, encoded);
    assert_eq!(Node::decode(disk.read(p)), node);
    assert_eq!(p, PageId(0));
}

/// Primitive put/get pairs are little-endian and exact at the extremes.
#[test]
fn codec_primitives_roundtrip() {
    let mut b = BytesMut::new();
    b.put_u8(0xAB);
    b.put_u16(0x1234);
    b.put_u32(0xDEAD_BEEF);
    b.put_u64(u64::MAX - 3);
    b.put_u128(u128::MAX / 3);
    b.put_i64(i64::MIN);
    b.put_f64(-0.1);
    let mut r: Bytes = b.freeze();
    assert_eq!(r.get_u8(), 0xAB);
    assert_eq!(r.get_u16(), 0x1234);
    assert_eq!(r.get_u32(), 0xDEAD_BEEF);
    assert_eq!(r.get_u64(), u64::MAX - 3);
    assert_eq!(r.get_u128(), u128::MAX / 3);
    assert_eq!(r.get_i64(), i64::MIN);
    assert_eq!(r.get_f64(), -0.1);
    assert!(r.is_empty());
}

/// The bench runner produces parseable, schema-complete JSON end to end.
#[test]
fn bench_runner_emits_valid_json() {
    let dir = std::env::temp_dir().join(format!("knnta_bench_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("KNNTA_BENCH_DIR", &dir);
    std::env::set_var("KNNTA_BENCH_FAST", "1");
    let mut h = Harness::new("smoke");
    let mut g = h.group("g");
    g.bench("noop", |b| b.iter(|| std::hint::black_box(1 + 1)));
    g.finish();
    let path = h.finish().expect("bench json written");
    let text = std::fs::read_to_string(&path).unwrap();
    // Minimal structural checks without a JSON parser dependency.
    for key in [
        "\"suite\": \"smoke\"",
        "\"group\": \"g\"",
        "\"bench\": \"noop\"",
        "\"median_ns\":",
        "\"p95_ns\":",
        "\"mean_ns\":",
        "\"min_ns\":",
        "\"iters_per_sample\":",
    ] {
        assert!(text.contains(key), "missing {key} in {text}");
    }
    assert_eq!(text.matches('{').count(), text.matches('}').count());
    assert_eq!(text.matches('[').count(), text.matches(']').count());
    std::env::remove_var("KNNTA_BENCH_DIR");
    std::env::remove_var("KNNTA_BENCH_FAST");
    let _ = std::fs::remove_dir_all(&dir);
}
