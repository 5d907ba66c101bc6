//! Every index variant must return exactly the answers of the
//! sequential-scan oracle, for every grouping strategy, weight, result size
//! and interval — Section 5's correctness claim ("the BFS will provide the
//! correct query results on the TAR-tree no matter which grouping strategy
//! is used").

mod common;

use common::{assert_same_answer, baseline_of, index_of, seq, small_dataset};
use knnta::core::{Executor, Grouping, PackedTarTree, PlanBackend};
use knnta::lbsn::{IntervalAnchor, Workload};
use knnta::pagestore::{AccessStats, BufferPoolConfig, Disk, PolicyKind};
use knnta::util::rng::{Rng, StdRng};
use knnta::KnntaQuery;

#[test]
fn all_groupings_match_the_scan_oracle() {
    let dataset = small_dataset();
    let baseline = baseline_of(&dataset);
    let workload = Workload::generate(&dataset, 40, IntervalAnchor::Random, 1);
    for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
        let index = index_of(&dataset, grouping);
        assert_eq!(index.len(), baseline.len());
        index.validate();
        for (i, &(point, interval)) in workload.queries.iter().enumerate() {
            let q = KnntaQuery::new(point, interval).with_k(10).with_alpha0(0.3);
            let got = index.query(&q);
            let want = baseline.query(&q);
            assert_same_answer(&got, &want, &format!("{grouping} query {i}"));
        }
    }
}

#[test]
fn equivalence_across_k_and_alpha() {
    let dataset = small_dataset();
    let baseline = baseline_of(&dataset);
    let index = index_of(&dataset, Grouping::TarIntegral);
    let workload = Workload::generate(&dataset, 5, IntervalAnchor::Recent, 2);
    for &(point, interval) in &workload.queries {
        for k in [1, 5, 10, 50, 100] {
            for alpha0 in [0.1, 0.3, 0.5, 0.7, 0.9] {
                let q = KnntaQuery::new(point, interval)
                    .with_k(k)
                    .with_alpha0(alpha0);
                let got = index.query(&q);
                let want = baseline.query(&q);
                assert_same_answer(&got, &want, &format!("k={k} α0={alpha0}"));
            }
        }
    }
}

#[test]
fn short_and_degenerate_intervals() {
    let dataset = small_dataset();
    let baseline = baseline_of(&dataset);
    let index = index_of(&dataset, Grouping::TarIntegral);
    let tc = dataset.grid.tc();
    // Single-instant interval (contains no epoch): pure spatial ranking.
    let instant = knnta::TimeInterval::new(tc, tc);
    let point = dataset.positions[0];
    let q = KnntaQuery::new(point, instant).with_k(5).with_alpha0(0.5);
    let got = index.query(&q);
    let want = baseline.query(&q);
    assert_same_answer(&got, &want, "instant interval");
    assert!(got.iter().all(|h| h.aggregate == 0));
    // Interval covering everything.
    let all = knnta::TimeInterval::new(knnta::Timestamp::ZERO, tc);
    let q = KnntaQuery::new(point, all).with_k(20);
    assert_same_answer(&index.query(&q), &baseline.query(&q), "full interval");
}

/// Case count for the differential suite: 24 queries per grouping by
/// default, 10× that under `KNNTA_SOAK=1` (the soak lane in
/// `scripts/verify.sh`).
fn differential_cases() -> usize {
    let soak = std::env::var("KNNTA_SOAK").map_or(false, |v| v != "0" && !v.is_empty());
    if soak {
        240
    } else {
        24
    }
}

#[test]
fn randomized_queries_match_the_scan_oracle() {
    // The differential oracle at its soak case count: randomized points,
    // intervals, k and α0 for all three groupings, each answered exactly
    // as the brute-force scan answers it.
    let dataset = small_dataset();
    let baseline = baseline_of(&dataset);
    let cases = differential_cases();
    let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
    for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
        let index = index_of(&dataset, grouping);
        let workload = Workload::generate(&dataset, cases, IntervalAnchor::Random, 7);
        for (i, &(point, interval)) in workload.queries.iter().enumerate() {
            let k = rng.gen_range(1..=120usize);
            let alpha0 = rng.gen_range(0.05..0.95);
            let q = KnntaQuery::new(point, interval).with_k(k).with_alpha0(alpha0);
            let ctx = format!("{grouping} query {i} k={k}");
            assert_same_answer(&index.query(&q), &baseline.query(&q), &ctx);
        }
    }
}

#[test]
fn paged_backend_is_bit_identical_to_in_memory() {
    // The storage-backend oracle: serialising the tree nodes onto disk pages
    // and querying through a buffer pool — under every replacement policy —
    // returns hit-for-hit identical results (same POIs, same order, bit-equal
    // scores) to the in-memory search, for all three groupings.
    let dataset = small_dataset();
    let cases = (differential_cases() / 3).max(4);
    let mut rng = StdRng::seed_from_u64(0xD15C_5EED);
    for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
        let index = index_of(&dataset, grouping);
        let workload = Workload::generate(&dataset, cases, IntervalAnchor::Random, 13);
        for policy in PolicyKind::ALL {
            let paged =
                index.materialize_paged_nodes(1024, BufferPoolConfig::new(8, policy));
            assert_eq!(paged.node_count(), index.node_count());
            let exec = Executor::new(&index).with_paged(&paged);
            for (i, &(point, interval)) in workload.queries.iter().enumerate() {
                let k = rng.gen_range(1..=120usize);
                let alpha0 = rng.gen_range(0.05..0.95);
                let q = KnntaQuery::new(point, interval).with_k(k).with_alpha0(alpha0);
                let want = index.query(&q);
                let ctx = format!("{grouping} {policy} query {i} k={k}");
                let got = exec.execute(&q, &seq(PlanBackend::Paged));
                assert_same_answer(&got, &want, &ctx);
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "{ctx}");
                }
            }
            let io = paged.io_snapshot();
            assert!(
                io.buffer_hits + io.buffer_misses > 0,
                "{grouping} {policy}: paged queries must go through the buffer pool"
            );
        }
    }
}

#[test]
fn packed_backend_is_bit_identical_to_in_memory() {
    // The serving-tier oracle: the bulk-packed immutable image
    // (`docs/FORMAT.md`) returns hit-for-hit identical results (same POIs,
    // same order, bit-equal scores and aggregates) to the in-memory search,
    // for all three groupings — and so does the same image after a serialise → disk → deserialise round
    // trip.
    let dataset = small_dataset();
    let cases = (differential_cases() / 3).max(4);
    let mut rng = StdRng::seed_from_u64(0xD15C_5EED);
    for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
        let index = index_of(&dataset, grouping);
        let packed = index.pack();
        assert_eq!(packed.item_count(), index.len());
        assert_eq!(packed.grouping(), grouping);
        let stats = AccessStats::new();
        let disk = Disk::new(4096, stats);
        let pages = packed.save_to_disk(&disk);
        let loaded = PackedTarTree::load_from_disk(&disk, &pages).expect("valid packed image");
        let exec = Executor::new(&index).with_packed(&packed);
        let exec_loaded = Executor::new(&index).with_packed(&loaded);
        let workload = Workload::generate(&dataset, cases, IntervalAnchor::Random, 17);
        for (i, &(point, interval)) in workload.queries.iter().enumerate() {
            let k = rng.gen_range(1..=120usize);
            let alpha0 = rng.gen_range(0.05..0.95);
            let q = KnntaQuery::new(point, interval).with_k(k).with_alpha0(alpha0);
            let want = index.query(&q);
            let ctx = format!("{grouping} packed query {i} k={k}");
            let got = exec.execute(&q, &seq(PlanBackend::Packed));
            assert_same_answer(&got, &want, &ctx);
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "{ctx}");
            }
            let reloaded = exec_loaded.execute(&q, &seq(PlanBackend::Packed));
            assert_eq!(got.len(), reloaded.len(), "{ctx} (reloaded)");
            for (rank, (a, b)) in reloaded.iter().zip(&got).enumerate() {
                assert_eq!(
                    (a.poi, a.score.to_bits(), a.aggregate),
                    (b.poi, b.score.to_bits(), b.aggregate),
                    "{ctx} reloaded rank {rank}"
                );
            }
        }
    }
}

#[test]
fn node_accesses_ranking_matches_the_paper() {
    // The headline claim (Figures 8–9): the TAR-tree needs the fewest node
    // accesses. At laptop scale the TAR-vs-IND-spa gap is established from
    // k ≈ 10–50 upwards (at very small k the 3-D fanout tax of 36-vs-50
    // entries per node dominates); IND-agg loses by a large factor at every
    // k. See EXPERIMENTS.md for the full sweep.
    let dataset = knnta::lbsn::gw().generate(0.01, 7, 20_260_704);
    let workload = Workload::generate(&dataset, 80, IntervalAnchor::Random, 3);
    let mut accesses = std::collections::HashMap::new();
    for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
        let index = index_of(&dataset, grouping);
        index.stats().reset();
        for &(point, interval) in &workload.queries {
            let q = KnntaQuery::new(point, interval).with_k(50).with_alpha0(0.3);
            let _ = index.query(&q);
        }
        accesses.insert(grouping, index.stats().node_accesses());
    }
    let tar = accesses[&Grouping::TarIntegral];
    let spa = accesses[&Grouping::IndSpa];
    let agg = accesses[&Grouping::IndAgg];
    assert!(
        tar < spa && tar * 2 < agg,
        "TAR-tree should win at k=50: TAR {tar}, IND-spa {spa}, IND-agg {agg}"
    );
}
