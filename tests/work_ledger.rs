//! Work ledger: the traversal-work counts of a fixed query set, pinned where
//! `cargo test` sees them.
//!
//! Counts are the only numbers a shared box reproduces exactly, so they are
//! the first evidence for (or against) an engine change: a diff of
//! `tests/fixtures/work_ledger.golden.txt` says "pushes fell, accesses did
//! not move" without a quiet machine, and an accidental change of traversal
//! work fails tier-1. The paper reports node accesses beside CPU time for
//! the same reason (Section 8).
//!
//! One line per storage backend × engine over the Section-8 query mix
//! (intervals 2^0…2^9 days, k ∈ {1, 10, 100}) on `common::small_dataset()`,
//! read only from `AccessStats`, `PackedTarTree::fetches()` and the published
//! `knnta.*` counters. Regenerate after an *intentional* change with:
//!
//! ```text
//! KNNTA_BLESS=1 cargo test --test work_ledger
//! ```

mod common;

use common::{index_of, small_dataset};
use knnta::core::{BatchOptions, Grouping, Obs, StorageBackend};
use knnta::lbsn::{IntervalAnchor, Workload};
use knnta::pagestore::BufferPoolConfig;
use knnta::KnntaQuery;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/work_ledger.golden.txt"
);

const COUNTERS: [&str; 3] = [
    "knnta.tempora.series.epochs_scanned",
    "knnta.core.search.heap_pushes",
    "knnta.core.search.heap_pops",
];

fn blessing() -> bool {
    std::env::var("KNNTA_BLESS").is_ok_and(|v| v != "0" && !v.is_empty())
}

#[test]
fn work_ledger_matches_the_golden_fixture() {
    let dataset = small_dataset();
    let mut index = index_of(&dataset, Grouping::TarIntegral);
    let obs = Obs::enabled();
    index.set_obs(obs.clone());
    let queries: Vec<KnntaQuery> = Workload::generate(&dataset, 96, IntervalAnchor::Random, 21)
        .queries
        .iter()
        .enumerate()
        .map(|(i, &(point, interval))| {
            KnntaQuery::new(point, interval)
                .with_k([1, 10, 100][i % 3])
                .with_alpha0(0.3)
        })
        .collect();
    let paged = index.materialize_paged_nodes(index.config_node_size(), BufferPoolConfig::lru(10));
    let packed = index.pack();
    let backends = [
        ("arena", StorageBackend::InMemory),
        ("paged", StorageBackend::Paged(&paged)),
        ("packed", StorageBackend::Packed(&packed)),
    ];
    let counters = || {
        let m = obs.metrics_snapshot();
        COUNTERS.map(|name| m.counter(name).unwrap_or(0))
    };

    let mut ledger = format!(
        "# {} queries, {} POIs; totals per backend x engine\n\
         # par2: a packed image also counts speculative fetches (schedule-dependent): not pinned\n\
         backend engine     nodes leaves epochs fetches pushes   pops\n",
        queries.len(),
        index.len(),
    );
    for (name, backend) in backends {
        for engine in ["seq", "par2", "tile64"] {
            index.stats().reset();
            let (before, fetches0) = (counters(), packed.fetches());
            match engine {
                "seq" => queries.iter().for_each(|q| {
                    index.query_on(q, backend);
                }),
                "par2" => queries.iter().for_each(|q| {
                    index.query_parallel_on(q, 2, backend);
                }),
                _ => {
                    index.query_batch_collective_on(&queries, &BatchOptions::default(), backend);
                }
            }
            let after = counters();
            let nodes = index.stats().node_accesses();
            let fetches = packed.fetches() - fetches0;
            let fetches = if engine == "par2" && name == "packed" {
                assert!(fetches >= nodes, "every counted access is a fetch");
                "-".to_string()
            } else {
                fetches.to_string()
            };
            writeln!(
                ledger,
                "{name:<7} {engine:<6} {nodes:>9} {:>6} {:>6} {fetches:>7} {:>6} {:>6}",
                index.stats().leaf_node_accesses(),
                after[0] - before[0],
                after[1] - before[1],
                after[2] - before[2],
            )
            .unwrap();
        }
    }

    if blessing() {
        std::fs::write(GOLDEN_PATH, &ledger).expect("write golden fixture");
        eprintln!("blessed {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden fixture missing — run with KNNTA_BLESS=1 to create it");
    assert_eq!(
        ledger, golden,
        "traversal work drifted from tests/fixtures/work_ledger.golden.txt; if intentional, \
         re-bless with KNNTA_BLESS=1 and state the diff in the change description"
    );
}
