//! Golden-fixture pin of the packed image layout (`docs/FORMAT.md`).
//!
//! `tests/fixtures/packed_v2.golden` is the byte-exact packed image — the
//! index file — of a small, fully deterministic dataset. Any change to the
//! v2 byte layout — header word order, section order, directory encoding,
//! TIA pair encoding, the config section, or the Hilbert packing itself —
//! shows up here as a byte diff, forcing a
//! deliberate format-version bump (and a `docs/FORMAT.md` update) instead
//! of silent drift.
//!
//! Regenerate after an *intentional* format change with:
//!
//! ```text
//! KNNTA_BLESS=1 cargo test --test format_golden
//! ```

mod common;

use common::{seq, tiny_dataset};
use knnta::core::{Executor, FrozenIndex, Grouping, IndexConfig, PlanBackend, TarIndex};
use knnta::{KnntaQuery, TimeInterval};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/packed_v2.golden"
);

/// The deterministic index behind the fixture: the hand-rolled 40-POI
/// dataset (no randomness). The packed fanout is fixed at 16
/// (`knnta_core::PACKED_FANOUT`), so 40 items give a multi-level image
/// regardless of the arena `node_size`.
fn golden_index() -> TarIndex {
    let (grid, bounds, pois) = tiny_dataset();
    let config = IndexConfig {
        grouping: Grouping::TarIntegral,
        node_size: 256,
        forced_reinsert: true,
    };
    TarIndex::build(config, grid, bounds, pois)
}

fn blessing() -> bool {
    std::env::var("KNNTA_BLESS").map_or(false, |v| v != "0" && !v.is_empty())
}

#[test]
fn packed_image_matches_the_golden_fixture() {
    let image = golden_index().pack().to_bytes();

    // The documented v2 header invariants, independent of the fixture.
    assert_eq!(&image[0..8], b"KNTAPAK1", "magic must open the image");
    assert_eq!(
        u64::from_le_bytes(image[8..16].try_into().unwrap()),
        2,
        "format version word"
    );
    assert_eq!(
        u64::from_le_bytes(image[14 * 8..15 * 8].try_into().unwrap()),
        0,
        "meta0 must carry the TAR-integral grouping tag"
    );
    assert_eq!(image.len() % 8, 0, "image must stay 8-byte aligned");

    if blessing() {
        std::fs::write(GOLDEN_PATH, &image).expect("write golden fixture");
        eprintln!("blessed {} ({} bytes)", GOLDEN_PATH, image.len());
        return;
    }
    let golden = std::fs::read(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("missing {GOLDEN_PATH} ({e}); regenerate with KNNTA_BLESS=1")
    });
    if image != golden {
        let at = image
            .iter()
            .zip(&golden)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| image.len().min(golden.len()));
        let word = at / 8;
        panic!(
            "packed image drifted from docs/FORMAT.md fixture: \
             {} bytes vs {} bytes, first difference at byte {at} (word {word}). \
             If the format change is intentional, bump the version, update \
             docs/FORMAT.md, and re-bless with KNNTA_BLESS=1.",
            image.len(),
            golden.len(),
        );
    }
}

#[test]
fn golden_fixture_still_answers_queries() {
    // The fixture is not just bytes: read as an index file, it must serve
    // the same answers as the live index it was packed from — so the pin
    // also guards against semantic drift in the reader.
    if blessing() {
        return; // fixture may be mid-regeneration
    }
    let golden = std::fs::read(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("missing {GOLDEN_PATH} ({e}); regenerate with KNNTA_BLESS=1")
    });
    let file = FrozenIndex::from_bytes(&golden).expect("golden image must read back");
    let index = golden_index();
    assert_eq!(file.packed().item_count(), index.len());
    let exec = Executor::frozen(&file);
    let on_packed = seq(PlanBackend::Packed);
    for k in [1, 5, 17] {
        for alpha0 in [0.2, 0.5, 0.8] {
            let q = KnntaQuery::new([37.0, 52.0], TimeInterval::days(7, 42))
                .with_k(k)
                .with_alpha0(alpha0);
            let want = index.query(&q);
            let got = exec.execute(&q, &on_packed);
            assert_eq!(want.len(), got.len(), "k={k} α0={alpha0}");
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(
                    (a.poi, a.score.to_bits(), a.aggregate),
                    (b.poi, b.score.to_bits(), b.aggregate),
                    "k={k} α0={alpha0}"
                );
            }
        }
    }
}
