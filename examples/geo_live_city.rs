//! A live city dashboard on real-world coordinates: WGS-84 venues projected
//! to kilometres, a TAR-tree fed by a streaming check-in feed
//! (`LiveIndex`), weight-free exploration with the skyline, and the index
//! file.
//!
//! Run with: `cargo run --release --example geo_live_city`

use knnta::core::{
    Executor, FrozenIndex, GeoPoint, GeoProjector, IndexConfig, KnntaQuery, LiveIndex, Poi,
    TarIndex,
};
use knnta::{AggregateSeries, CheckIn, EpochGrid, PoiId, TimeInterval, Timestamp};
use knnta::util::rng::{Rng, StdRng};

fn main() {
    // A synthetic "Paris": venues scattered around the city centre.
    let mut rng = StdRng::seed_from_u64(14);
    let center = GeoPoint::new(48.8566, 2.3522);
    let venues: Vec<GeoPoint> = (0..4000)
        .map(|_| {
            GeoPoint::new(
                center.lat + rng.gen_range(-0.15..0.15),
                center.lon + rng.gen_range(-0.22..0.22),
            )
        })
        .collect();

    // Project to planar kilometres.
    let proj = GeoProjector::fit(&venues);
    let bounds = proj.bounds(&venues, 2.0);
    println!(
        "projected {} venues around ({:.4}, {:.4}); city box {:.0} x {:.0} km",
        venues.len(),
        proj.origin().lat,
        proj.origin().lon,
        bounds.max[0] - bounds.min[0],
        bounds.max[1] - bounds.min[1],
    );

    // Eight weekly epochs; the index starts with no history.
    let grid = EpochGrid::fixed_days(7, 8);
    let index = TarIndex::build_bulk(
        IndexConfig::default(),
        grid.clone(),
        bounds,
        venues.iter().enumerate().map(|(i, &g)| {
            let xy = proj.project(g);
            (Poi::new(i as u32, xy[0], xy[1]), AggregateSeries::new())
        }),
    );
    let live = LiveIndex::new(index, 0);

    // Stream six weeks of check-ins: every venue has a base rate; a few are
    // trendy and heat up over time.
    let trendy: Vec<u32> = (0..25).map(|_| rng.gen_range(0..4000)).collect();
    let mut events = 0u64;
    for week in 0..6i64 {
        for _ in 0..3_000 {
            let venue = rng.gen_range(0..4000u32);
            let t = Timestamp::from_days(week * 7 + rng.gen_range(0i64..7));
            live.record(CheckIn::at(PoiId(venue), t));
            events += 1;
        }
        for &venue in &trendy {
            for _ in 0..(week as u32 + 1) * 4 {
                let t = Timestamp::from_days(week * 7 + rng.gen_range(0i64..7));
                live.record(CheckIn::at(PoiId(venue), t));
                events += 1;
            }
        }
        live.seal_epoch();
    }
    println!(
        "streamed {events} check-ins over 6 weeks ({} dropped, {} pending)",
        live.dropped(),
        live.pending()
    );

    // Fold the sealed weeks into the base tree so the base-level extensions
    // below (skyline, the index file) see the whole stream, then take an
    // immutable snapshot to query.
    live.merge_sealed();
    let snap = live.snapshot();

    // "What's hot near Notre-Dame in the last month?"
    let me = proj.project(GeoPoint::new(48.853, 2.3499));
    let last_month = TimeInterval::new(Timestamp::from_days(14), Timestamp::from_days(42));
    let query = KnntaQuery::new(me, last_month).with_k(5).with_alpha0(0.4);
    println!("\ntop-5 near Notre-Dame, last 4 weeks:");
    for hit in snap.query(&query) {
        let geo = proj.unproject(
            snap.index()
                .export_pois()
                .iter()
                .find(|(p, _)| p.id == hit.poi)
                .map(|(p, _)| p.pos)
                .unwrap(),
        );
        println!(
            "  {}  ({:.4}, {:.4})  {:>3} check-ins  {:.2} km away  score {:.3}",
            hit.poi, geo.lat, geo.lon, hit.aggregate, hit.distance, hit.score
        );
    }

    // Weight-free view: the skyline (every POI that is best for SOME
    // distance/popularity trade-off).
    let sky = snap.index().skyline(me, last_month);
    println!("\nskyline ({} venues span all trade-offs):", sky.len());
    for hit in sky.iter().take(6) {
        println!(
            "  {}  {:.2} km, {} check-ins",
            hit.poi, hit.distance, hit.aggregate
        );
    }

    // Write the index file (the packed image) and read it back.
    let file = snap.packed().to_bytes();
    let restored = FrozenIndex::from_bytes(&file).expect("valid index file");
    assert_eq!(Executor::frozen(&restored).query(&query), snap.query(&query));
    println!(
        "\nwrote the index file: {} bytes; the copy read back answers identically",
        file.len()
    );
}
