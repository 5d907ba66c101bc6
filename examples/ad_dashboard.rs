//! Location-based mobile advertising: thousands of users' kNNTA queries per
//! second, answered collectively (Section 7.2).
//!
//! An ad platform continuously ranks venues for every active user (close +
//! trending = good ad slot). Processing each request individually re-reads
//! the same index nodes; the collective scheme shares node accesses across
//! the batch and aggregate computations across the few standard time
//! windows the product offers ("today", "this week", "this month").
//!
//! Run with: `cargo run --release --example ad_dashboard`

use knnta::core::{BatchOrder, Executor, IndexConfig, KnntaQuery, Poi, TarIndex};
use knnta::{TimeInterval, Timestamp};
use knnta::util::rng::{Rng, StdRng};
use rtree::Rect;
use std::time::Instant;

fn main() {
    let dataset = knnta::lbsn::gw().generate(0.02, 7, 3);
    let grid = dataset.grid.clone();
    let index = TarIndex::build(
        IndexConfig::default(),
        grid.clone(),
        Rect::new(dataset.bounds.0, dataset.bounds.1),
        dataset
            .snapshot(grid.len())
            .into_iter()
            .map(|(id, pos, series)| (Poi { id, pos }, series)),
    );
    println!(
        "venue index: {} POIs, {} nodes\n",
        index.len(),
        index.node_count()
    );

    // The product offers three standard windows; users are spread over the
    // map (their positions sampled near venues).
    let tc = grid.tc();
    let windows = [
        ("this week", TimeInterval::new(tc - 7 * Timestamp::DAY, tc)),
        ("this fortnight", TimeInterval::new(tc - 14 * Timestamp::DAY, tc)),
        ("this month", TimeInterval::new(tc - 28 * Timestamp::DAY, tc)),
    ];
    let mut rng = StdRng::seed_from_u64(1);
    let batch: Vec<KnntaQuery> = (0..2000)
        .map(|_| {
            let venue = dataset.positions[rng.gen_range(0..dataset.positions.len())];
            let user = [venue[0] + rng.gen_range(-0.5..0.5), venue[1] + rng.gen_range(-0.5..0.5)];
            let (_, window) = windows[rng.gen_range(0..windows.len())];
            KnntaQuery::new(user, window).with_k(10).with_alpha0(0.3)
        })
        .collect();
    println!("batch: {} user queries, {} window types", batch.len(), windows.len());

    // Individual processing: every query pays its own traversal.
    index.stats().reset();
    let t0 = Instant::now();
    let individual: Vec<_> = batch.iter().map(|q| index.query(q)).collect();
    let individual_time = t0.elapsed();
    let individual_accesses = index.stats().node_accesses();

    // Collective processing: shared node fetches + shared aggregates. The
    // planner sizes the tile to the batch, once, outside the timed region.
    let mut exec = Executor::new(&index);
    let plan = exec.plan_batch(&batch);
    index.stats().reset();
    let t0 = Instant::now();
    let collective = exec.execute_batch(&batch, &plan, BatchOrder::Hilbert);
    let collective_time = t0.elapsed();
    let collective_accesses = index.stats().node_accesses();

    // Same answers.
    assert_eq!(individual.len(), collective.len());
    for (a, b) in individual.iter().zip(&collective) {
        assert_eq!(
            a.iter().map(|h| h.poi).collect::<Vec<_>>(),
            b.iter().map(|h| h.poi).collect::<Vec<_>>()
        );
    }

    println!("\n                node accesses   per query   wall time");
    println!(
        "individual      {:>12}   {:>9.2}   {:?}",
        individual_accesses,
        individual_accesses as f64 / batch.len() as f64,
        individual_time
    );
    println!(
        "collective      {:>12}   {:>9.2}   {:?}",
        collective_accesses,
        collective_accesses as f64 / batch.len() as f64,
        collective_time
    );
    println!(
        "\nsharing factor: {:.1}x fewer node accesses",
        individual_accesses as f64 / collective_accesses.max(1) as f64
    );

    // A sample of what the ad engine sees.
    println!("\nsample ad slots for the first user:");
    for hit in &collective[0] {
        println!(
            "  {}  score {:.3}  {:>3} check-ins in window  {:.1} km away",
            hit.poi, hit.score, hit.aggregate, hit.distance
        );
    }
}
