//! Differential oracle for collective batch processing (Section 7.2 plus
//! the Hilbert-ordering enhancement): for every grouping strategy, storage
//! backend and batch ordering,
//! `Executor::execute_batch` must be **bit-identical** — same POIs, same
//! order, bit-equal scores, equal aggregates — to running the queries one
//! by one, and must never touch more tree nodes than the individual runs.

mod common;

use common::{index_of, seq, small_dataset};
use knnta::core::{BatchOrder, Executor, Grouping, PlanBackend, QueryHit, TarIndex};
use knnta::lbsn::{IntervalAnchor, Workload};
use knnta::pagestore::BufferPoolConfig;
use knnta::util::rng::{Rng, StdRng};
use knnta::KnntaQuery;

/// Batch size for the differential suite, 10× under `KNNTA_SOAK=1`
/// (the soak lane in `scripts/verify.sh`).
fn batch_cases() -> usize {
    let soak = std::env::var("KNNTA_SOAK").map_or(false, |v| v != "0" && !v.is_empty());
    if soak {
        200
    } else {
        20
    }
}

/// A randomized batch with duplicates and mixed k (including k = 0).
fn mixed_batch(dataset: &knnta::lbsn::LbsnDataset, count: usize, seed: u64) -> Vec<KnntaQuery> {
    let workload = Workload::generate(dataset, count, IntervalAnchor::Random, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C_0DE5);
    let mut batch: Vec<KnntaQuery> = workload
        .queries
        .iter()
        .map(|&(point, interval)| {
            let k = match rng.gen_range(0..8u32) {
                0 => 0, // empty answer, must not disturb the rest
                _ => rng.gen_range(1..=60usize),
            };
            let alpha0 = rng.gen_range(0.05..0.95);
            KnntaQuery::new(point, interval).with_k(k).with_alpha0(alpha0)
        })
        .collect();
    // Duplicate a third of the batch verbatim: duplicates are where the
    // shared-front-node scheme earns its keep.
    for i in 0..count / 3 {
        let dup = batch[i * 2 % count].clone();
        batch.push(dup);
    }
    batch
}

fn assert_bit_identical(got: &[Vec<QueryHit>], want: &[Vec<QueryHit>], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: batch sizes differ");
    for (qi, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{ctx}: query {qi} result sizes differ");
        for (rank, (a, b)) in g.iter().zip(w).enumerate() {
            assert_eq!(
                (a.poi, a.score.to_bits(), a.aggregate),
                (b.poi, b.score.to_bits(), b.aggregate),
                "{ctx}: query {qi} rank {rank}"
            );
        }
    }
}

const ORDERS: [BatchOrder; 2] = [BatchOrder::Hilbert, BatchOrder::Input];

/// One query at a time on the arena: every query pays its own accesses.
fn individual(index: &TarIndex, batch: &[KnntaQuery]) -> Vec<Vec<QueryHit>> {
    batch.iter().map(|q| index.query(q)).collect()
}

/// The in-memory collective batch under the fixed 64-query tile.
fn collective(index: &TarIndex, batch: &[KnntaQuery], order: BatchOrder) -> Vec<Vec<QueryHit>> {
    Executor::new(index).execute_batch(batch, &seq(PlanBackend::InMemory), order)
}

#[test]
fn collective_is_bit_identical_to_individual_in_memory() {
    let dataset = small_dataset();
    let batch = mixed_batch(&dataset, batch_cases(), 0xB47C_0001);
    for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
        let index = index_of(&dataset, grouping);
        let want = individual(&index, &batch);
        for order in ORDERS {
            let got = collective(&index, &batch, order);
            assert_bit_identical(&got, &want, &format!("{grouping} {order}"));
        }
    }
}

#[test]
fn collective_is_bit_identical_to_individual_paged() {
    let dataset = small_dataset();
    let batch = mixed_batch(&dataset, batch_cases().max(12) / 2, 0xB47C_0002);
    for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
        let index = index_of(&dataset, grouping);
        let want = individual(&index, &batch);
        let paged = index.materialize_paged_nodes(1024, BufferPoolConfig::lru(8));
        let exec = Executor::new(&index).with_paged(&paged);
        let plan = seq(PlanBackend::Paged);
        let got_ind: Vec<_> = batch.iter().map(|q| exec.execute(q, &plan)).collect();
        assert_bit_identical(&got_ind, &want, &format!("{grouping} individual"));
        for order in ORDERS {
            let got = exec.execute_batch(&batch, &plan, order);
            assert_bit_identical(&got, &want, &format!("{grouping} {order}"));
        }
    }
}

#[test]
fn collective_node_accesses_never_exceed_individual() {
    let dataset = small_dataset();
    let batch = mixed_batch(&dataset, batch_cases(), 0xB47C_0003);
    for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
        let index = index_of(&dataset, grouping);
        index.stats().reset();
        let _ = individual(&index, &batch);
        let individual = index.stats().node_accesses();
        for order in ORDERS {
            index.stats().reset();
            let _ = collective(&index, &batch, order);
            let collective = index.stats().node_accesses();
            assert!(
                collective <= individual,
                "{grouping} {order}: collective {collective} > individual {individual}"
            );
        }
    }
}

#[test]
fn duplicate_heavy_batches_share_most_node_accesses() {
    // A batch of one query repeated N times must cost roughly one query's
    // worth of node accesses, not N — the whole point of the scheme.
    let dataset = small_dataset();
    let index = index_of(&dataset, Grouping::TarIntegral);
    let workload = Workload::generate(&dataset, 1, IntervalAnchor::Random, 5);
    let (point, interval) = workload.queries[0];
    let q = KnntaQuery::new(point, interval).with_k(20).with_alpha0(0.3);
    let n = 32usize;
    let batch: Vec<KnntaQuery> = std::iter::repeat(q).take(n).collect();
    index.stats().reset();
    let _ = individual(&index, &batch);
    let individual = index.stats().node_accesses();
    index.stats().reset();
    let _ = collective(&index, &batch, BatchOrder::Hilbert);
    let collective = index.stats().node_accesses();
    assert!(
        collective * (n as u64) <= individual * 2,
        "{n} duplicates: collective {collective} should be ~individual/{n} of {individual}"
    );
}

#[test]
fn empty_and_all_k_zero_batches_touch_nothing() {
    let dataset = small_dataset();
    let index = index_of(&dataset, Grouping::TarIntegral);
    let tc = dataset.grid.tc();
    let q0 = KnntaQuery::new(dataset.positions[0], knnta::TimeInterval::new(tc, tc)).with_k(0);
    for order in ORDERS {
        index.stats().reset();
        assert!(collective(&index, &[], order).is_empty());
        let got = collective(&index, &[q0.clone(), q0.clone()], order);
        assert_eq!(got, vec![Vec::new(), Vec::new()], "{order}");
        assert_eq!(
            index.stats().node_accesses(),
            0,
            "{order}: degenerate batches must not touch the tree"
        );
    }
}

#[test]
fn ordering_is_independent_of_input_permutation() {
    // Hilbert ordering is a function of the query multiset: permuting the
    // batch permutes the answers identically (results follow their query).
    let dataset = small_dataset();
    let index = index_of(&dataset, Grouping::TarIntegral);
    let batch = mixed_batch(&dataset, 16, 0xB47C_0004);
    let base = collective(&index, &batch, BatchOrder::Hilbert);
    let mut rng = StdRng::seed_from_u64(0xF00D);
    let mut perm: Vec<usize> = (0..batch.len()).collect();
    for i in (1..perm.len()).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    let shuffled: Vec<KnntaQuery> = perm.iter().map(|&i| batch[i].clone()).collect();
    let got = collective(&index, &shuffled, BatchOrder::Hilbert);
    for (pos, &orig) in perm.iter().enumerate() {
        let a: Vec<_> = got[pos].iter().map(|h| (h.poi, h.score.to_bits())).collect();
        let b: Vec<_> = base[orig].iter().map(|h| (h.poi, h.score.to_bits())).collect();
        assert_eq!(a, b, "permuted query {pos} (originally {orig})");
    }
}

#[test]
fn batch_order_cli_names_round_trip() {
    for order in [BatchOrder::Hilbert, BatchOrder::Input] {
        assert_eq!(BatchOrder::parse(&order.to_string()), Some(order));
    }
    assert_eq!(BatchOrder::parse("zorder"), None);
}
