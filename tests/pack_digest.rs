//! Exact digest pin of the packer's output.
//!
//! `tests/fixtures/pack_digests.golden.txt` holds the FNV-1a-64 digest of
//! `to_bytes()` for every input below, in all three groupings, through both
//! builders: `FrozenIndex::build` (the image straight from the POIs) and
//! `TarIndex::build(..).pack()` (the arena tree's leaves packed). The inputs
//! cover the level boundaries of the 16-way packing (0, 1, 16, 17, 256, 257
//! and 4,097 POIs — the last packs 257 leaves under 17, 2 and 1 nodes),
//! empty series, repeated coordinates, sparse ids, a series that ends on the
//! grid's last epoch, one that runs past the grid, and the shared small
//! dataset. A change to the packer that moves one byte of any image fails
//! here with the input's name.
//!
//! Re-bless after an *intentional* change to the image with:
//!
//! ```text
//! KNNTA_BLESS=1 cargo test --test pack_digest
//! ```

mod common;

use common::small_dataset;
use knnta::core::{FrozenIndex, Grouping, IndexConfig, TarIndex};
use knnta::util::rng::{Rng, StdRng};
use knnta::{AggregateSeries, EpochGrid, Poi};
use rtree::Rect;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/pack_digests.golden.txt"
);

const GROUPINGS: [Grouping; 3] = [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg];

/// Epochs of the synthetic grid.
const EPOCHS: u32 = 12;

fn blessing() -> bool {
    std::env::var("KNNTA_BLESS").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// FNV-1a over 64 bits.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One named input: a grid, bounds and POIs.
struct Case {
    name: String,
    grid: EpochGrid,
    bounds: Rect<2>,
    pois: Vec<(Poi, AggregateSeries)>,
}

fn synthetic(name: String, pois: Vec<(Poi, AggregateSeries)>) -> Case {
    Case {
        name,
        grid: EpochGrid::fixed_days(7, EPOCHS as usize),
        bounds: Rect::new([0.0, 0.0], [100.0, 100.0]),
        pois,
    }
}

/// A random series over `epochs` epochs: up to six records, values that
/// vary over three orders of magnitude.
fn series(rng: &mut StdRng, epochs: u32) -> AggregateSeries {
    let records = rng.gen_range(1usize..7);
    AggregateSeries::from_pairs(
        (0..records).map(|_| (rng.gen_range(0..epochs), rng.gen_range(1u64..1000))),
    )
}

/// `n` seeded POIs with dense ids, uniform positions and non-empty series.
fn seeded(n: usize) -> Case {
    let mut rng = StdRng::seed_from_u64(0x5eed_0000 + n as u64);
    let pois = (0..n as u32)
        .map(|id| {
            let pos = [rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)];
            (Poi::new(id, pos[0], pos[1]), series(&mut rng, EPOCHS))
        })
        .collect();
    synthetic(format!("seeded_{n}"), pois)
}

/// The awkward shapes: empty series, POIs stacked on a few sites, ids with
/// gaps, and a series whose last record is the grid's last epoch.
fn awkward() -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(0x0dd_5eed);
    let empty_series = (0..300u32)
        .map(|id| {
            let pos = [rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)];
            let s = if id % 3 == 0 { AggregateSeries::new() } else { series(&mut rng, EPOCHS) };
            (Poi::new(id, pos[0], pos[1]), s)
        })
        .collect();
    let all_empty = (0..40u32)
        .map(|id| (Poi::new(id, id as f64, 100.0 - id as f64), AggregateSeries::new()))
        .collect();
    let sites: Vec<[f64; 2]> =
        (0..5).map(|_| [rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]).collect();
    let repeated = (0..290u32)
        .map(|id| {
            let pos = sites[id as usize % sites.len()];
            (Poi::new(id, pos[0], pos[1]), series(&mut rng, EPOCHS))
        })
        .collect();
    let mut id = 0u32;
    let sparse = (0..270)
        .map(|_| {
            id += rng.gen_range(1u32..200);
            let pos = [rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)];
            (Poi::new(id, pos[0], pos[1]), series(&mut rng, EPOCHS))
        })
        .collect();
    let last_epoch = (0..33u32)
        .map(|id| {
            let pos = [rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)];
            let mut s = series(&mut rng, EPOCHS);
            if id % 4 == 0 {
                s.add(EPOCHS - 1, 1 + id as u64);
            }
            (Poi::new(id, pos[0], pos[1]), s)
        })
        .collect();
    // A series past the grid's end builds today; the packer must keep
    // taking it, whatever it sizes by the grid.
    let past_grid = (0..20u32)
        .map(|id| {
            let pos = [rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)];
            let mut s = series(&mut rng, EPOCHS);
            if id == 7 {
                s.add(3 * EPOCHS, 9);
            }
            (Poi::new(id, pos[0], pos[1]), s)
        })
        .collect();
    vec![
        synthetic("empty_series".into(), empty_series),
        synthetic("all_empty_series".into(), all_empty),
        synthetic("repeated_coordinates".into(), repeated),
        synthetic("sparse_ids".into(), sparse),
        synthetic("last_epoch".into(), last_epoch),
        synthetic("past_grid".into(), past_grid),
    ]
}

fn small() -> Case {
    let dataset = small_dataset();
    let pois = dataset
        .snapshot(dataset.grid.len())
        .into_iter()
        .map(|(id, pos, series)| (Poi { id, pos }, series))
        .collect();
    Case {
        name: "small_dataset".into(),
        grid: dataset.grid.clone(),
        bounds: Rect::new(dataset.bounds.0, dataset.bounds.1),
        pois,
    }
}

/// One line per (input, grouping, builder): `name grouping builder digest
/// bytes`.
fn digests() -> String {
    let mut cases: Vec<Case> = [0, 1, 16, 17, 256, 257, 4097].into_iter().map(seeded).collect();
    cases.extend(awkward());
    cases.push(small());
    let mut out = String::new();
    for case in &cases {
        for grouping in GROUPINGS {
            let config = IndexConfig::with_grouping(grouping);
            let frozen = FrozenIndex::build(config, case.grid.clone(), case.bounds, &case.pois)
                .packed()
                .to_bytes();
            let arena =
                TarIndex::build(config, case.grid.clone(), case.bounds, case.pois.iter().cloned())
                    .pack()
                    .to_bytes();
            for (builder, bytes) in [("frozen", &frozen), ("arena", &arena)] {
                writeln!(
                    out,
                    "{} {grouping} {builder} {:016x} {}",
                    case.name,
                    fnv1a64(bytes),
                    bytes.len()
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn packed_images_match_the_blessed_digests() {
    let got = digests();
    if blessing() {
        std::fs::write(GOLDEN_PATH, &got).expect("write digest fixture");
        eprintln!("blessed {GOLDEN_PATH}");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("missing {GOLDEN_PATH} ({e}); regenerate with KNNTA_BLESS=1"));
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "packed image drifted from the blessed digest");
    }
    assert_eq!(got.lines().count(), want.lines().count(), "digest line count");
}

#[test]
fn fnv1a64_matches_the_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}
