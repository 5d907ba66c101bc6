//! Property tests for the concurrent live-ingestion tier ([`LiveIndex`]):
//! late / out-of-order arrivals under concurrent sealing, future-epoch
//! auto-rolls racing `record`, and event-counter conservation
//! (`pending + sealed + dropped == recorded`) under randomized
//! interleavings. Each case is deliberately tiny — the soak lane replays
//! these properties thousands of times.
//!
//! The deep *query-level* equivalence lives in `tests/snapshot_oracle.rs`;
//! here the ground truth is the cumulative per-(epoch, POI) delta map
//! itself, which [`SnapshotView::cumulative_deltas`] must reproduce exactly
//! no matter how writers, sealers and mergers interleave.

use knnta_core::{
    Grouping, IndexConfig, KnntaQuery, LiveIndex, LiveOptions, Poi, TarIndex,
};
use knnta_util::prop::{check, Gen};
use std::collections::BTreeMap;
use tempora::{AggregateSeries, CheckIn, EpochGrid, PoiId, TimeInterval, Timestamp};

const EPOCHS: usize = 6;
const POIS: u32 = 8;

fn tiny_index() -> (EpochGrid, TarIndex) {
    let grid = EpochGrid::fixed_days(1, EPOCHS);
    let bounds = rtree::Rect::new([0.0, 0.0], [100.0, 100.0]);
    let pois = (0..POIS).map(|i| {
        (
            Poi::new(i, (i % 4) as f64 * 25.0 + 5.0, (i / 4) as f64 * 40.0 + 10.0),
            AggregateSeries::new(),
        )
    });
    let index = TarIndex::build(
        IndexConfig::with_grouping(Grouping::TarIntegral),
        grid.clone(),
        bounds,
        pois,
    );
    (grid, index)
}

/// One drawn event: an in-grid check-in, or one the tier must drop.
#[derive(Clone, Copy)]
enum Ev {
    /// `(poi, epoch, value)` — value may be 0 (counted, never visible).
    In(u32, usize, u64),
    /// Unknown POI (in-grid timestamp).
    UnknownPoi,
    /// Timestamp past the grid end.
    OutOfGrid,
}

fn draw_events(g: &mut Gen, allow_bad: bool) -> Vec<Ev> {
    g.vec(1, 60, |g| {
        let arm = if allow_bad {
            g.weighted(&[12, 1, 1])
        } else {
            0
        };
        match arm {
            0 => Ev::In(
                g.u32_in(0..POIS),
                g.usize_in(0..EPOCHS),
                g.u64_in(0..5), // includes zero-valued check-ins
            ),
            1 => Ev::UnknownPoi,
            _ => Ev::OutOfGrid,
        }
    })
}

fn checkin_of(grid: &EpochGrid, g: &mut Gen, ev: Ev) -> CheckIn {
    match ev {
        Ev::In(poi, epoch, v) => {
            let t = grid.epoch(epoch).start + g.i64_in(0..Timestamp::DAY);
            CheckIn::with_value(PoiId(poi), t, v as u32)
        }
        Ev::UnknownPoi => CheckIn::with_value(PoiId(0xDEAD_BEEF), grid.epoch(0).start + 1, 3),
        Ev::OutOfGrid => CheckIn::with_value(PoiId(0), grid.tc() + Timestamp::DAY, 3),
    }
}

/// The per-(epoch, POI) totals the tier must end up with: zero-valued and
/// dropped events contribute nothing.
fn ground_truth(events: &[Ev]) -> BTreeMap<(usize, PoiId), u64> {
    let mut truth = BTreeMap::new();
    for ev in events {
        if let Ev::In(poi, epoch, v) = *ev {
            if v > 0 {
                *truth.entry((epoch, PoiId(poi))).or_insert(0) += v;
            }
        }
    }
    truth
}

fn bad_count(events: &[Ev]) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e, Ev::UnknownPoi | Ev::OutOfGrid))
        .count() as u64
}

/// Streams `checkins` from `writers` round-robin threads while a sealer
/// issues `seals` concurrent seal operations (and optional merges), then
/// quiesces and returns the tier for inspection.
fn run_interleaved(
    live: &LiveIndex,
    checkins: &[CheckIn],
    writers: usize,
    seals: usize,
    merge: bool,
) {
    std::thread::scope(|s| {
        for w in 0..writers {
            s.spawn(move || {
                for c in checkins.iter().skip(w).step_by(writers) {
                    live.record(c.clone());
                }
            });
        }
        s.spawn(move || {
            for i in 0..seals {
                live.seal_epoch();
                if merge && i % 2 == 1 {
                    live.merge_sealed();
                }
                std::thread::yield_now();
            }
        });
    });
    // Quiesce: seal every remaining epoch plus one saturated drain.
    while live.current_epoch() < live.grid().len() {
        live.seal_epoch();
    }
    live.seal_epoch();
}

#[test]
fn late_and_out_of_order_events_survive_concurrent_sealing() {
    // Events arrive in arbitrary epoch order while a sealer races them, so
    // many land as late arrivals for already-sealed epochs (including at
    // grid saturation). Every accepted event must still be attributed to
    // its own epoch: the final cumulative delta map equals the ground
    // truth computed from the event list alone.
    check("live_late_events_concurrent_sealing", 64, |g| {
        let (grid, index) = tiny_index();
        let live = LiveIndex::with_options(
            index,
            0,
            LiveOptions {
                shards: 1 << g.u32_in(0..3),
                ..LiveOptions::default()
            },
        );
        let events = draw_events(g, true);
        let checkins: Vec<CheckIn> = events.iter().map(|&e| checkin_of(&grid, g, e)).collect();
        let writers = g.usize_in(1..4);
        let seals = g.usize_in(0..2 * EPOCHS);
        let merge = g.bool();
        run_interleaved(&live, &checkins, writers, seals, merge);

        let got: BTreeMap<(usize, PoiId), u64> = live
            .snapshot()
            .cumulative_deltas()
            .into_iter()
            .map(|(epoch, poi, v)| ((epoch, poi), v))
            .collect();
        assert_eq!(got, ground_truth(&events), "attribution is interleaving-independent");
        assert_eq!(live.dropped(), bad_count(&events));
    });
}

#[test]
fn future_epoch_arrivals_race_the_roll() {
    // One writer streams epochs ascending, another descending: the
    // ascending stream keeps triggering the automatic roll-forward while
    // the descending one turns into late arrivals mid-roll. The open epoch
    // must end at least at the maximum epoch observed, and attribution
    // must again match the ground truth exactly.
    check("live_future_epoch_roll_race", 64, |g| {
        let (grid, index) = tiny_index();
        let live = LiveIndex::new(index, 0);
        let events: Vec<Ev> = g.vec(2, 40, |g| {
            Ev::In(g.u32_in(0..POIS), g.usize_in(0..EPOCHS), g.u64_in(1..4))
        });
        let mut ascending: Vec<CheckIn> = events.iter().map(|&e| checkin_of(&grid, g, e)).collect();
        ascending.sort_by_key(|c| c.time);
        let descending: Vec<CheckIn> = ascending.iter().rev().cloned().collect();
        let max_epoch = events
            .iter()
            .map(|e| match e {
                Ev::In(_, epoch, _) => *epoch,
                _ => 0,
            })
            .max()
            .unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                for c in &ascending {
                    live.record(c.clone());
                }
            });
            s.spawn(|| {
                for c in &descending {
                    live.record(c.clone());
                }
            });
        });
        assert!(
            live.current_epoch() >= max_epoch,
            "auto-roll reached epoch {} of {max_epoch}",
            live.current_epoch()
        );
        while live.current_epoch() < grid.len() {
            live.seal_epoch();
        }
        live.seal_epoch();
        let mut truth = ground_truth(&events);
        // Both streams carry every event once, so totals double.
        truth.values_mut().for_each(|v| *v *= 2);
        let got: BTreeMap<(usize, PoiId), u64> = live
            .snapshot()
            .cumulative_deltas()
            .into_iter()
            .map(|(epoch, poi, v)| ((epoch, poi), v))
            .collect();
        assert_eq!(got, truth, "rolls never misattribute epochs");
    });
}

#[test]
fn event_counters_conserve_under_any_interleaving() {
    // `pending + sealed + dropped == recorded` must hold whenever the
    // writers are at rest — regardless of how many seals (including zero)
    // and merges ran concurrently — and quiescing must empty `pending`
    // without losing a single event.
    check("live_counter_conservation", 64, |g| {
        let (grid, index) = tiny_index();
        let live = LiveIndex::with_options(
            index,
            0,
            LiveOptions {
                shards: 1 << g.u32_in(0..4),
                ..LiveOptions::default()
            },
        );
        let events = draw_events(g, true);
        let checkins: Vec<CheckIn> = events.iter().map(|&e| checkin_of(&grid, g, e)).collect();
        let writers = g.usize_in(1..5);
        let seals = g.usize_in(0..EPOCHS);
        {
            let live = &live;
            std::thread::scope(|s| {
                for w in 0..writers {
                    let checkins = &checkins;
                    s.spawn(move || {
                        for c in checkins.iter().skip(w).step_by(writers) {
                            live.record(c.clone());
                        }
                    });
                }
                s.spawn(move || {
                    for _ in 0..seals {
                        live.seal_epoch();
                        std::thread::yield_now();
                    }
                });
            });
        }
        assert_eq!(live.recorded(), checkins.len() as u64);
        assert_eq!(live.dropped(), bad_count(&events));
        assert_eq!(
            live.pending() + live.sealed_events() + live.dropped(),
            live.recorded(),
            "conservation at writer rest"
        );
        while live.current_epoch() < grid.len() {
            live.seal_epoch();
        }
        live.seal_epoch();
        assert_eq!(live.pending(), 0, "quiescing drains every shard");
        assert_eq!(
            live.sealed_events() + live.dropped(),
            live.recorded(),
            "no event lost or double-counted"
        );
    });
}

#[test]
fn merged_base_image_is_canonical_and_overlay_reads_match_the_replay() {
    // A merge is a fold plus a pack: the new base image is packed straight
    // from the folded POI table, and the arena tree is only materialised on
    // demand. The two must be the same index — the arena packs to the very
    // bytes the snapshot serves — and a query through a non-empty overlay
    // must answer bit-identically to a frozen replay of the snapshot's deltas.
    check("live_merged_base_is_canonical", 48, |g| {
        let (grid, index) = tiny_index();
        let live = LiveIndex::new(index, 0);
        let record_all = |g: &mut Gen| {
            let events = g.vec(1, 40, |g| {
                Ev::In(g.u32_in(0..POIS), g.usize_in(0..EPOCHS), g.u64_in(1..5))
            });
            for ev in events {
                live.record(checkin_of(&grid, g, ev));
            }
            live.seal_epoch();
        };
        record_all(g);
        assert!(live.merge_sealed() > 0);
        record_all(g);
        let snap = live.snapshot();
        assert!(
            snap.index().pack().to_bytes() == snap.packed().to_bytes(),
            "materialised arena and merged base image disagree"
        );
        assert!(!snap.cumulative_deltas().is_empty());
        let (_, mut replay) = tiny_index();
        for (epoch, poi, delta) in snap.cumulative_deltas() {
            replay.ingest_epoch(epoch, &[(poi, delta)]);
        }
        for _ in 0..4 {
            let (a, b) = (g.i64_in(0..EPOCHS as i64), g.i64_in(0..EPOCHS as i64));
            let q = KnntaQuery::new(
                [g.f64_in(0.0..100.0), g.f64_in(0.0..100.0)],
                TimeInterval::days(a.min(b), a.max(b) + 1),
            )
            .with_k(g.usize_in(1..POIS as usize + 2))
            .with_alpha0(g.f64_in(0.05..0.95));
            let bits = |hits: Vec<knnta_core::QueryHit>| -> Vec<(PoiId, u64, u64)> {
                hits.iter().map(|h| (h.poi, h.score.to_bits(), h.aggregate)).collect()
            };
            assert_eq!(bits(snap.query(&q)), bits(replay.query(&q)));
        }
        live.validate();
    });
}
