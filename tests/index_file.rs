//! The index file is the packed image (`docs/FORMAT.md`): a
//! `FrozenIndex`'s `packed().to_bytes()` writes it, and
//! `FrozenIndex::from_bytes` reads it back — recovering the POIs from the
//! leaf level, checking every field, and checking every internal entry
//! against the node it targets.

mod common;

use common::{forged_index_files, tiny_dataset};
use knnta::core::{Executor, FrozenIndex, Grouping, IndexConfig, QueryHit, TarIndex};
use knnta::util::prop::{check, Gen};
use knnta::{AggregateSeries, EpochGrid, KnntaQuery, Poi, TimeInterval, Timestamp};
use rtree::Rect;
use std::io;

const GROUPINGS: [Grouping; 3] = [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg];

const EPOCHS: usize = 10;

/// A random POI set inside `bounds`: sparse ids, positions that repeat
/// exactly on a handful of sites, a share of empty series, and — a quarter
/// of the time each — no POI or a single one.
fn gen_pois(g: &mut Gen, bounds: &Rect<2>) -> Vec<(Poi, AggregateSeries)> {
    let mut point = |g: &mut Gen| {
        [
            g.f64_in(bounds.min[0]..bounds.max[0]),
            g.f64_in(bounds.min[1]..bounds.max[1]),
        ]
    };
    let sites = g.vec(1, 6, &mut point);
    let n = match g.weighted(&[1, 1, 2]) {
        0 => 0,
        1 => 1,
        _ => g.len_in(2, 90),
    };
    let mut id = 0u32;
    (0..n)
        .map(|_| {
            id += g.u32_in(1..300);
            let pos = if g.bool() { *g.pick(&sites) } else { point(g) };
            let series = if g.weighted(&[1, 3]) == 0 {
                AggregateSeries::new()
            } else {
                AggregateSeries::from_pairs(
                    g.vec(0, 8, |g| (g.u32_in(0..EPOCHS as u32), g.u64_in(0..40))),
                )
            };
            (Poi::new(id, pos[0], pos[1]), series)
        })
        .collect()
}

/// Every bit an answer prints.
fn bits(hits: &[QueryHit]) -> Vec<(u32, u64, u64, u64)> {
    hits.iter()
        .map(|h| {
            (
                h.poi.0,
                h.score.to_bits(),
                h.aggregate,
                h.distance.to_bits(),
            )
        })
        .collect()
}

/// write → read → write is byte-identical, the recovered POIs re-pack to
/// the file byte for byte, and queries on the read index — its image and
/// the arena rebuilt from it — equal `TarIndex::query` bit for bit, for
/// every grouping.
#[test]
fn index_file_round_trip_is_exact() {
    check("index_file_round_trip_is_exact", 40, |g| {
        let grid = if g.bool() {
            EpochGrid::fixed_days(7, EPOCHS)
        } else {
            EpochGrid::exponential(86_400, EPOCHS)
        };
        // Off-origin bounds of any size: recovering a position inverts
        // `(x − min) / diagonal`, which rounds.
        let min = [g.f64_in(-180.0..180.0), g.f64_in(-90.0..90.0)];
        let span = [g.f64_in(0.001..500.0), g.f64_in(0.001..500.0)];
        let bounds = Rect::new(min, [min[0] + span[0], min[1] + span[1]]);
        let pois = gen_pois(g, &bounds);
        for grouping in GROUPINGS {
            let config = IndexConfig {
                grouping,
                node_size: *g.pick(&[256, 1024]),
                forced_reinsert: g.bool(),
            };
            let built = FrozenIndex::build(config, grid.clone(), bounds, &pois);
            let file = built.packed().to_bytes();
            let read = FrozenIndex::from_bytes(&file).expect("a written file reads back");
            assert_eq!(
                read.packed().to_bytes(),
                file,
                "{grouping}: write → read → write"
            );
            assert_eq!(read.config(), config);
            assert_eq!((read.grid(), read.bounds()), (&grid, &bounds));

            let mut recovered = read.pois();
            let repacked = FrozenIndex::build(config, grid.clone(), bounds, &recovered);
            assert_eq!(repacked.packed().to_bytes(), file, "{grouping}: re-pack");
            recovered.sort_by_key(|(poi, _)| poi.id);
            let mut want = pois.clone();
            want.sort_by_key(|(poi, _)| poi.id);
            assert_eq!(recovered.len(), want.len());
            for ((got, got_series), (poi, series)) in recovered.iter().zip(&want) {
                assert_eq!((got.id, got_series), (poi.id, series));
                for d in 0..2 {
                    let tolerance = 1e-12 * (1.0 + poi.pos[d].abs() + span[d]);
                    assert!(
                        (got.pos[d] - poi.pos[d]).abs() <= tolerance,
                        "{got:?} vs {poi:?}"
                    );
                }
            }

            let index = TarIndex::build(config, grid.clone(), bounds, pois.iter().cloned());
            let arena = read.to_arena();
            let mut exec = Executor::frozen(&read);
            for _ in 0..4 {
                let from = g.i64_in(0..60);
                let q = KnntaQuery::new(
                    [
                        g.f64_in(min[0]..min[0] + span[0]),
                        g.f64_in(min[1]..min[1] + span[1]),
                    ],
                    TimeInterval::new(Timestamp::from_days(from), Timestamp::from_days(from + 20)),
                )
                .with_k(g.usize_in(1..12))
                .with_alpha0(g.f64_in(0.05..0.95));
                let want = bits(&index.query(&q));
                assert_eq!(bits(&exec.query(&q)), want, "{grouping}: image");
                assert_eq!(bits(&arena.query(&q)), want, "{grouping}: arena");
            }
        }
    });
}

/// An arena index's own image (`TarIndex::pack`, whatever its content
/// epoch) is a file too.
#[test]
fn a_packed_arena_index_reads_back() {
    let (grid, bounds, pois) = tiny_dataset();
    let mut index = TarIndex::build(IndexConfig::default(), grid, bounds, pois);
    index.ingest_epoch(3, &[(knnta::PoiId(5), 7)]);
    let file = index.pack().to_bytes();
    let read = FrozenIndex::from_bytes(&file).expect("a packed index reads back");
    assert_eq!(read.packed().to_bytes(), file);
    let q = KnntaQuery::new([30.0, 40.0], TimeInterval::days(0, 56)).with_k(7);
    assert_eq!(
        bits(&Executor::frozen(&read).query(&q)),
        bits(&index.query(&q))
    );
}

/// Garbage and every forgery of `common::forged_index_files` are one
/// `InvalidData` error naming the field, never a panic.
#[test]
fn hostile_files_are_invalid_data() {
    for garbage in [&b""[..], b"not an index file", &[0u8; 128]] {
        let e = FrozenIndex::from_bytes(garbage)
            .err()
            .expect("garbage rejected");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }
    let (grid, bounds, pois) = tiny_dataset();
    let built = FrozenIndex::build(IndexConfig::default(), grid, bounds, &pois);
    let file = built.packed().to_bytes();
    for cut in [8, 100, file.len() / 2, file.len() - 8] {
        assert!(
            FrozenIndex::from_bytes(&file[..cut]).is_err(),
            "cut at {cut}"
        );
    }
    for (name, bytes, field) in forged_index_files(&file) {
        let e = FrozenIndex::from_bytes(&bytes)
            .err()
            .unwrap_or_else(|| panic!("{name} read"));
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{name}");
        let msg = e.to_string();
        assert!(msg.contains(field) && !msg.contains('\n'), "{name}: {msg}");
    }
}
