//! The snapshot-equivalence differential oracle for the concurrent live
//! ingestion tier: while writer threads stream check-ins into a
//! [`LiveIndex`] (with concurrent sealing and background merging), every
//! snapshot a reader takes must answer queries **bit-for-bit identically**
//! to a single-threaded replay frozen at the snapshot's watermark — an
//! index built cold and fed the snapshot's cumulative deltas through
//! `TarIndex::ingest_epoch`, one epoch at a time.
//!
//! That equality is checked through `SnapshotView::query` — the one image a
//! snapshot serves, its base's packed image under the overlay — for all
//! three grouping strategies at every lifecycle point, plus the
//! event-conservation invariant `pending + sealed + dropped == recorded` at
//! quiescence.
//!
//! Under `KNNTA_SOAK=1` the suite additionally runs many randomized
//! writer/reader schedules; a failing schedule panics with a
//! `KNNTA_PROP_SEED=<seed> cargo test <name>` line that `scripts/soak.sh`
//! archives and replays.

mod common;

use common::{small_dataset, tiny_dataset};
use knnta::core::{
    Grouping, IndexConfig, LiveIndex, LiveOptions, QueryHit, SnapshotView, TarIndex,
};
use knnta::lbsn::{IntervalAnchor, LbsnDataset, Workload};
use knnta::util::rng::{Rng, StdRng};
use knnta::{AggregateSeries, CheckIn, KnntaQuery, Poi, PoiId, TimeInterval, Timestamp};
use rtree::Rect;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

fn soak() -> bool {
    std::env::var("KNNTA_SOAK").map_or(false, |v| v != "0" && !v.is_empty())
}

/// Bit-level equality: same POIs in the same order, bit-equal scores, equal
/// aggregates. Stricter than `common::assert_same_answer` on purpose — the
/// snapshot algebra promises *exactness*, not tolerance.
fn assert_bits(got: &[QueryHit], want: &[QueryHit], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: result sizes differ");
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            (g.poi, g.score.to_bits(), g.aggregate),
            (w.poi, w.score.to_bits(), w.aggregate),
            "{ctx}: rank {rank}"
        );
    }
}

/// The live tier's starting point: every dataset POI with an empty series
/// (nothing digested; ingestion starts at epoch 0).
fn empty_index(dataset: &LbsnDataset, grouping: Grouping) -> TarIndex {
    TarIndex::build(
        IndexConfig::with_grouping(grouping),
        dataset.grid.clone(),
        Rect::new(dataset.bounds.0, dataset.bounds.1),
        dataset
            .snapshot(dataset.grid.len())
            .into_iter()
            .map(|(id, pos, _)| (Poi { id, pos }, AggregateSeries::new())),
    )
}

/// Synthesizes a check-in stream whose per-(POI, epoch) totals equal the
/// dataset's series: epoch totals are sometimes split across two events,
/// ~15% of events are displaced out of epoch order (late arrivals), a few
/// are zero-valued (counted, never visible), and a sprinkle of
/// unknown-POI / out-of-grid events must be dropped. Returns the stream
/// and the exact number of events the live tier must drop.
fn synth_events(dataset: &LbsnDataset, seed: u64) -> (Vec<CheckIn>, u64) {
    let grid = &dataset.grid;
    let snapshot = dataset.snapshot(grid.len());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    for epoch in 0..grid.len() {
        let start = grid.epoch(epoch).start;
        for (id, _, series) in &snapshot {
            let mut v = series.get(epoch as u32);
            if v == 0 {
                continue;
            }
            if v >= 2 && rng.gen_bool(0.3) {
                let a = rng.gen_range(1..v);
                let t = start + rng.gen_range(0..7 * Timestamp::DAY);
                events.push(CheckIn::with_value(*id, t, a as u32));
                v -= a;
            }
            if rng.gen_bool(0.02) {
                let t = start + rng.gen_range(0..7 * Timestamp::DAY);
                events.push(CheckIn::with_value(*id, t, 0));
            }
            let t = start + rng.gen_range(0..7 * Timestamp::DAY);
            events.push(CheckIn::with_value(*id, t, v as u32));
        }
    }
    // Events the tier must refuse: POIs the index does not know, and
    // timestamps past the grid end.
    let known = snapshot[0].0;
    let bad = events.len() / 50 + 2;
    for i in 0..bad {
        if i % 2 == 0 {
            let t = grid.epoch(i % grid.len()).start + 30;
            events.push(CheckIn::with_value(PoiId(0xFFFF_FF00 + i as u32), t, 3));
        } else {
            events.push(CheckIn::with_value(known, grid.tc() + Timestamp::DAY, 3));
        }
    }
    // Light global shuffle: out-of-order delivery on top of the late splits.
    for i in 0..events.len() {
        if rng.gen_bool(0.15) {
            let j = rng.gen_range(0..events.len());
            events.swap(i, j);
        }
    }
    (events, bad as u64)
}

/// The frozen replay: a cold index over the same POIs, fed the snapshot's
/// cumulative deltas epoch by epoch through the single-threaded digestion
/// path. The oracle's ground truth.
fn replay_of(dataset: &LbsnDataset, grouping: Grouping, snap: &SnapshotView) -> TarIndex {
    let mut index = empty_index(dataset, grouping);
    let mut by_epoch: BTreeMap<usize, Vec<(PoiId, u64)>> = BTreeMap::new();
    for (epoch, poi, v) in snap.cumulative_deltas() {
        by_epoch.entry(epoch).or_default().push((poi, v));
    }
    for (epoch, updates) in by_epoch {
        index.ingest_epoch(epoch, &updates);
    }
    index
}

/// Streams `events` into `live` from `writers` round-robin threads while a
/// sealer thread seals (and occasionally merges) concurrently; a reader
/// thread collects up to `max_snapshots` snapshots mid-stream. Ends with
/// one final seal so at least one epoch of data is visible.
fn stream_concurrently(
    live: &LiveIndex,
    events: &[CheckIn],
    writers: usize,
    max_snapshots: usize,
    merge_while_streaming: bool,
) -> Vec<SnapshotView> {
    let done = AtomicBool::new(false);
    let snapshots: Mutex<Vec<SnapshotView>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                s.spawn(move || {
                    for e in events.iter().skip(w).step_by(writers) {
                        live.record(e.clone());
                    }
                })
            })
            .collect();
        s.spawn(|| {
            let mut i = 0u32;
            while !done.load(Ordering::Relaxed) {
                live.seal_epoch();
                if merge_while_streaming && i % 3 == 2 {
                    live.merge_sealed();
                }
                i += 1;
                std::thread::sleep(Duration::from_micros(400));
            }
        });
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                {
                    let mut snaps = snapshots.lock().unwrap();
                    if snaps.len() < max_snapshots {
                        snaps.push(live.snapshot());
                    }
                }
                std::thread::sleep(Duration::from_micros(700));
            }
        });
        for h in handles {
            h.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
    });
    live.seal_epoch();
    let mut snaps = snapshots.into_inner().unwrap();
    snaps.push(live.snapshot());
    snaps
}

/// Seals every remaining epoch (plus one drain at saturation) so nothing is
/// pending, then asserts the conservation invariant.
fn quiesce(live: &LiveIndex) {
    while live.current_epoch() < live.grid().len() {
        live.seal_epoch();
    }
    live.seal_epoch();
    assert_eq!(live.pending(), 0, "quiesced tier has no pending events");
    assert_eq!(
        live.sealed_events() + live.dropped(),
        live.recorded(),
        "conservation: sealed + dropped == recorded at quiescence"
    );
}

#[test]
fn concurrent_snapshots_match_single_threaded_replay() {
    // The headline oracle: 4 writers + concurrent sealer/merger + a reader
    // taking snapshots mid-stream. Every snapshot answers bit-identically
    // to its frozen replay; after quiescing, the tier equals the
    // batch-built reference exactly.
    let dataset = small_dataset();
    let (events, expected_drops) = synth_events(&dataset, 0xA11CE);
    let live = LiveIndex::new(empty_index(&dataset, Grouping::TarIntegral), 0);

    let max_snaps = if soak() { 20 } else { 8 };
    let snaps = stream_concurrently(&live, &events, 4, max_snaps, true);

    assert_eq!(live.recorded(), events.len() as u64);
    assert_eq!(live.dropped(), expected_drops, "exactly the injected bad events drop");
    assert_eq!(
        live.pending() + live.sealed_events() + live.dropped(),
        live.recorded(),
        "conservation holds under any interleaving"
    );

    // Watermarks of successively-taken snapshots never retreat.
    for w in snaps.windows(2) {
        assert!(
            w[0].watermark() <= w[1].watermark(),
            "watermarks are monotone: {} then {}",
            w[0].watermark(),
            w[1].watermark()
        );
    }

    let per_snap = if soak() { 10 } else { 5 };
    let workload = Workload::generate(&dataset, per_snap, IntervalAnchor::Random, 41);
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for (si, snap) in snaps.iter().enumerate() {
        let replay = replay_of(&dataset, Grouping::TarIntegral, snap);
        for (qi, &(point, interval)) in workload.queries.iter().enumerate() {
            let k = rng.gen_range(1..=120usize);
            let alpha0 = rng.gen_range(0.05..0.95);
            let q = KnntaQuery::new(point, interval).with_k(k).with_alpha0(alpha0);
            let ctx = format!("snapshot {si} ({}) query {qi} k={k}", snap.watermark());
            assert_bits(&snap.query(&q), &replay.query(&q), &ctx);
        }
    }

    // Quiesce and compare against the batch-built ground truth: the stream
    // conserves every per-(POI, epoch) total, so the fully-sealed,
    // fully-merged tier must equal an index built with the whole history.
    quiesce(&live);
    live.merge_sealed();
    let fin = live.snapshot();
    let reference = common::index_of(&dataset, Grouping::TarIntegral);
    let workload = Workload::generate(&dataset, per_snap * 2, IntervalAnchor::Random, 42);
    for (qi, &(point, interval)) in workload.queries.iter().enumerate() {
        let k = rng.gen_range(1..=120usize);
        let alpha0 = rng.gen_range(0.05..0.95);
        let q = KnntaQuery::new(point, interval).with_k(k).with_alpha0(alpha0);
        assert_bits(
            &fin.query(&q),
            &reference.query(&q),
            &format!("quiesced tier vs batch build, query {qi} k={k}"),
        );
    }
}

#[test]
fn every_grouping_and_lifecycle_point_matches_the_frozen_replay() {
    // All three groupings, against snapshots taken at three lifecycle
    // points (overlay on an empty base, merged base, merged base + fresh
    // overlay); at each, the image served is the canonical one.
    let dataset = small_dataset();
    let per_snap = if soak() { 10 } else { 4 };
    let mut rng = StdRng::seed_from_u64(0xD00D);
    for (gi, grouping) in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg]
        .into_iter()
        .enumerate()
    {
        let live = LiveIndex::new(empty_index(&dataset, grouping), 0);
        let (events, _) = synth_events(&dataset, 0xD00D + gi as u64);
        let half = events.len() / 2;

        let mut snaps = Vec::new();
        // (a) overlay over the still-empty base.
        snaps.extend(stream_concurrently(&live, &events[..half], 4, 0, false));
        // (b) everything sealed so far folded into a re-packed base (its
        // arena tree materialises on first use below).
        live.merge_sealed();
        snaps.push(live.snapshot());
        // (c) merged base plus a fresh overlay from the second half.
        snaps.extend(stream_concurrently(&live, &events[half..], 4, 0, false));

        let workload = Workload::generate(&dataset, per_snap, IntervalAnchor::Random, 50 + gi as u64);
        for (si, snap) in snaps.iter().enumerate() {
            // The base image is canonical before and after a merge: the
            // arena tree — the construction-time index at (a), materialised
            // from the merged POI table at (b) and (c) — packs to the very
            // bytes served.
            assert!(
                snap.index().pack().to_bytes() == snap.packed().to_bytes(),
                "{grouping} snapshot {si}: arena tree and base image disagree"
            );
            let replay = replay_of(&dataset, grouping, snap);
            let queries: Vec<KnntaQuery> = workload
                .queries
                .iter()
                .map(|&(point, interval)| {
                    KnntaQuery::new(point, interval)
                        .with_k(rng.gen_range(1..=120usize))
                        .with_alpha0(rng.gen_range(0.05..0.95))
                })
                .collect();
            for (qi, q) in queries.iter().enumerate() {
                let ctx = format!("{grouping} snapshot {si} q{qi}");
                assert_bits(&snap.query(q), &replay.query(q), &ctx);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Randomized writer/reader schedules (the soak lane's stress surface).
// ---------------------------------------------------------------------------

/// One randomized schedule on the tiny deterministic dataset: every knob —
/// writer count, shard count, shuffle intensity, seal cadence, snapshot
/// cadence, merge participation — is drawn from `seed`.
fn run_schedule(seed: u64) {
    let (grid, bounds, pois) = tiny_dataset();
    let mut rng = StdRng::seed_from_u64(seed);
    let writers = rng.gen_range(1..=4usize);
    let shards = 1usize << rng.gen_range(0..4u32);
    let shuffle = rng.gen_range(0.0..0.5);
    let merge_while_streaming = rng.gen_bool(0.5);

    let index = TarIndex::build(
        IndexConfig::default(),
        grid.clone(),
        bounds,
        pois.iter().map(|(p, _)| (*p, AggregateSeries::new())),
    );
    let live = LiveIndex::with_options(
        index,
        0,
        LiveOptions {
            shards,
            ..LiveOptions::default()
        },
    );

    let mut events = Vec::new();
    for epoch in 0..grid.len() {
        let start = grid.epoch(epoch).start;
        for (p, series) in &pois {
            let v = series.get(epoch as u32);
            if v > 0 {
                let t = start + rng.gen_range(0..7 * Timestamp::DAY);
                events.push(CheckIn::with_value(p.id, t, v as u32));
            }
        }
    }
    let mut drops = 0u64;
    if rng.gen_bool(0.5) {
        events.push(CheckIn::with_value(PoiId(9_999), grid.epoch(0).start + 5, 2));
        events.push(CheckIn::with_value(pois[0].0.id, grid.tc() + Timestamp::DAY, 2));
        drops = 2;
    }
    for i in 0..events.len() {
        if rng.gen_bool(shuffle) {
            let j = rng.gen_range(0..events.len());
            events.swap(i, j);
        }
    }

    let snaps = stream_concurrently(&live, &events, writers, 6, merge_while_streaming);
    assert_eq!(live.dropped(), drops, "schedule drops exactly the bad events");
    assert_eq!(
        live.pending() + live.sealed_events() + live.dropped(),
        live.recorded(),
        "conservation under schedule {seed:#x}"
    );

    for (si, snap) in snaps.iter().enumerate() {
        let replay = replay_of_tiny(&pois, snap);
        for qi in 0..3 {
            let point = [rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)];
            let a = rng.gen_range(0i64..56);
            let b = rng.gen_range(0i64..56);
            let interval =
                TimeInterval::new(Timestamp::from_days(a.min(b)), Timestamp::from_days(a.max(b) + 1));
            let k = rng.gen_range(1..=20usize);
            let alpha0 = rng.gen_range(0.05..0.95);
            let q = KnntaQuery::new(point, interval).with_k(k).with_alpha0(alpha0);
            let ctx = format!("schedule {seed:#x} snapshot {si} q{qi}");
            assert_bits(&snap.query(&q), &replay.query(&q), &ctx);
        }
    }

    // Quiesce; the tier must now equal the batch-built ground truth.
    quiesce(&live);
    live.merge_sealed();
    let fin = live.snapshot();
    let reference = TarIndex::build(IndexConfig::default(), grid.clone(), bounds, pois.clone());
    let q = KnntaQuery::new([50.0, 50.0], TimeInterval::days(0, 56))
        .with_k(10)
        .with_alpha0(0.5);
    assert_bits(
        &fin.query(&q),
        &reference.query(&q),
        &format!("schedule {seed:#x} quiesced vs batch build"),
    );
}

fn replay_of_tiny(pois: &[(Poi, AggregateSeries)], snap: &SnapshotView) -> TarIndex {
    let mut index = TarIndex::build(
        IndexConfig::default(),
        snap.grid().clone(),
        Rect::new([0.0, 0.0], [100.0, 100.0]),
        pois.iter().map(|(p, _)| (*p, AggregateSeries::new())),
    );
    let mut by_epoch: BTreeMap<usize, Vec<(PoiId, u64)>> = BTreeMap::new();
    for (epoch, poi, v) in snap.cumulative_deltas() {
        by_epoch.entry(epoch).or_default().push((poi, v));
    }
    for (epoch, updates) in by_epoch {
        index.ingest_epoch(epoch, &updates);
    }
    index
}

#[test]
fn randomized_schedules_preserve_snapshot_equivalence() {
    // `KNNTA_PROP_SEED` replays exactly one schedule (the failing-seed
    // convention shared with `knnta_util::prop`); otherwise schedules are
    // drawn from a fixed base seed, many more of them under KNNTA_SOAK=1.
    let seeds: Vec<u64> = match std::env::var("KNNTA_PROP_SEED") {
        Ok(v) => {
            let v = v.trim().to_string();
            let seed = v
                .strip_prefix("0x")
                .or_else(|| v.strip_prefix("0X"))
                .map(|h| u64::from_str_radix(h, 16).expect("KNNTA_PROP_SEED: bad hex seed"))
                .unwrap_or_else(|| v.parse().expect("KNNTA_PROP_SEED: bad seed"));
            vec![seed]
        }
        Err(_) => {
            let n = if soak() { 24 } else { 6 };
            let mut r = StdRng::seed_from_u64(0x5C4E_D01E);
            (0..n).map(|_| r.gen_range(0..u64::MAX)).collect()
        }
    };
    for seed in seeds {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run_schedule(seed))) {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic with non-string payload".to_string());
            panic!(
                "randomized schedule {seed:#x} failed:\n{msg}\n\
                 reproduce with: KNNTA_PROP_SEED={seed:#x} cargo test randomized_schedules_preserve_snapshot_equivalence"
            );
        }
    }
}
