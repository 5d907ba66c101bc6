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
//! `knnta.*` counters. Two more lines read the same queries through a live
//! snapshot, once through a delta overlay and once after merging it, and two
//! through a 2-way POI split, once with every shard searching alone and once
//! with each query's `f(p_k)` bound carried from one shard to the next.
//! Regenerate after an *intentional* change with:
//!
//! ```text
//! KNNTA_BLESS=1 cargo test --test work_ledger
//! ```

mod common;

use common::{index_of, par, seq, small_dataset};
use knnta::core::{
    partition_pois, BatchOrder, Executor, FrozenIndex, Grouping, IndexConfig, LiveIndex, Obs,
    PlanBackend, PlanMode, SharedBound, TarIndex,
};
use knnta::lbsn::{IntervalAnchor, LbsnDataset, Workload};
use knnta::pagestore::BufferPoolConfig;
use knnta::{AggregateSeries, CheckIn, KnntaQuery, Poi};
use rtree::Rect;
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
const NODE_ACCESSES: &str = "knnta.core.search.node_accesses";
const LEAF_ACCESSES: &str = "knnta.core.search.leaf_accesses";

fn blessing() -> bool {
    std::env::var("KNNTA_BLESS").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// One ledger line; `before` / `after` are the [`COUNTERS`] around the run.
fn row(
    backend: &str,
    engine: &str,
    nodes: u64,
    leaves: u64,
    fetches: &str,
    before: [u64; 3],
    after: [u64; 3],
) -> String {
    format!(
        "{backend:<7} {engine:<6} {nodes:>9} {leaves:>6} {:>6} {fetches:>7} {:>6} {:>6}",
        after[0] - before[0],
        after[1] - before[1],
        after[2] - before[2],
    )
}

/// The live tier's two read regimes over the same queries, through
/// `SnapshotView::query`: a `LiveIndex` over the dataset's POIs with an empty
/// history is fed every epoch's check-ins and merged at half the grid, so
/// the `overlay` row reads the other half as sealed-but-unmerged deltas on
/// top of the half-grid base; the `merged` row reads the same state after
/// `merge_sealed()` folded everything into one image.
fn live_rows(dataset: &LbsnDataset, queries: &[KnntaQuery]) -> String {
    let grid = &dataset.grid;
    let history = dataset.snapshot(grid.len());
    let mut index = TarIndex::build(
        IndexConfig::with_grouping(Grouping::TarIntegral),
        grid.clone(),
        Rect::new(dataset.bounds.0, dataset.bounds.1),
        history
            .iter()
            .map(|(id, pos, _)| (Poi { id: *id, pos: *pos }, AggregateSeries::new())),
    );
    let obs = Obs::enabled();
    index.set_obs(obs.clone());
    let live = LiveIndex::new(index, 0);
    for epoch in 0..grid.len() {
        if epoch == grid.len() / 2 {
            live.merge_sealed();
        }
        for (id, _, series) in &history {
            let v = series.get(epoch as u32);
            if v > 0 {
                live.record(CheckIn::with_value(*id, grid.epoch(epoch).start, v as u32));
            }
        }
        live.seal_epoch();
    }
    // Node and leaf accesses come from the published counters too: a live
    // base after a merge has its own access stats.
    let counters = || {
        let m = obs.metrics_snapshot();
        let [a, b, c] = COUNTERS;
        [NODE_ACCESSES, LEAF_ACCESSES, a, b, c].map(|name| m.counter(name).unwrap_or(0))
    };
    let mut rows = format!(
        "# live snapshot reads: overlay = {} sealed epochs on a {}-epoch base; merged = all folded\n",
        grid.len() - grid.len() / 2,
        grid.len() / 2,
    );
    let mut opened = Vec::new();
    for name in ["overlay", "merged"] {
        if name == "merged" {
            live.merge_sealed();
        }
        let snap = live.snapshot();
        let (b, fetches0) = (counters(), snap.packed().fetches());
        for q in queries {
            snap.query(q);
        }
        let a = counters();
        let fetches = (snap.packed().fetches() - fetches0).to_string();
        let (nodes, leaves) = (a[0] - b[0], a[1] - b[1]);
        let (before, after) = ([b[2], b[3], b[4]], [a[2], a[3], a[4]]);
        writeln!(
            rows,
            "{}",
            row(name, "seq", nodes, leaves, &fetches, before, after)
        )
        .unwrap();
        opened.push(nodes);
    }
    // Per-node delta maxima bound an internal entry by its own subtree, so
    // reading through the overlay prunes about as well as the merged tree.
    assert!(
        2 * opened[0] <= 3 * opened[1],
        "overlay reads opened {} nodes, more than 1.5x the {} after merging:\n{rows}",
        opened[0],
        opened[1],
    );
    rows
}

/// The sharded service's work on the same queries: the POIs split 2 ways
/// by `partition_pois`, one `FrozenIndex` per shard under the global root
/// max, each query run through `Executor::query_tile` on shard 0 and then on
/// shard 1. `alone` hands every shard a fresh bound; `shared` carries each
/// query's bound from shard 0 to shard 1, so shard 1 starts from shard 0's
/// k-th score; `preset` first runs the query on the unsharded image under
/// the same bound, so both shards start from the global `f(p_k)` — the
/// least any holder of a shared bound can open, which concurrent shards
/// approach as each one tightens the other's bound.
fn shard_rows(
    dataset: &LbsnDataset,
    pois: &[(Poi, AggregateSeries)],
    queries: &[KnntaQuery],
) -> String {
    let bounds = Rect::new(dataset.bounds.0, dataset.bounds.1);
    let root_max = AggregateSeries::max_of(pois.iter().map(|(_, s)| s));
    let positions: Vec<Poi> = pois.iter().map(|(p, _)| *p).collect();
    let obs = Obs::enabled();
    let parts = partition_pois(&positions, &bounds, 2);
    let shards: Vec<FrozenIndex> = parts
        .iter()
        .map(|part| {
            let part: Vec<_> = part.iter().map(|&i| pois[i].clone()).collect();
            let config = IndexConfig::with_grouping(Grouping::TarIntegral);
            let mut shard = FrozenIndex::build(config, dataset.grid.clone(), bounds, &part);
            shard.set_obs(obs.clone());
            shard
        })
        .collect();
    let counters = || {
        let m = obs.metrics_snapshot();
        COUNTERS.map(|name| m.counter(name).unwrap_or(0))
    };
    let totals = || {
        let sum = |of: &dyn Fn(&FrozenIndex) -> u64| shards.iter().map(of).sum::<u64>();
        let nodes = sum(&|s| s.stats().node_accesses());
        let leaves = sum(&|s| s.stats().leaf_node_accesses());
        (nodes, leaves, sum(&|s| s.packed().fetches()))
    };
    let whole = FrozenIndex::build(
        IndexConfig::with_grouping(Grouping::TarIntegral),
        dataset.grid.clone(),
        bounds,
        pois,
    );
    let mut rows = format!(
        "# 2-way split ({} + {} POIs), shard 0 then shard 1; shared = each query's bound carried \
         over; preset = bound preset to the global f(p_k)\n",
        parts[0].len(),
        parts[1].len(),
    );
    let fresh = || -> Vec<SharedBound> { queries.iter().map(|_| SharedBound::new()).collect() };
    let mut opened = Vec::new();
    for name in ["alone", "shared", "preset"] {
        let (before, (nodes0, leaves0, fetches0)) = (counters(), totals());
        let carried = fresh();
        if name == "preset" {
            let mut exec = Executor::frozen(&whole);
            for (q, bound) in queries.iter().zip(&carried) {
                exec.query_tile(std::slice::from_ref(q), std::slice::from_ref(bound));
            }
        }
        for shard in &shards {
            let mut exec = Executor::frozen(shard).with_root_max(&root_max);
            let own = fresh();
            let bounds = if name == "alone" { &own } else { &carried };
            for (q, bound) in queries.iter().zip(bounds) {
                exec.query_tile(std::slice::from_ref(q), std::slice::from_ref(bound));
            }
        }
        let (after, (nodes, leaves, fetches)) = (counters(), totals());
        let (nodes, leaves) = (nodes - nodes0, leaves - leaves0);
        let fetches = (fetches - fetches0).to_string();
        writeln!(
            rows,
            "{}",
            row("shard2", name, nodes, leaves, &fetches, before, after)
        )
        .unwrap();
        opened.push(nodes);
    }
    assert!(
        opened[2] <= opened[1] && opened[1] < opened[0],
        "a carried bound must save node opens, and the global f(p_k) the most:\n{rows}"
    );
    // The concurrent case: shards that tighten one bound as they go move
    // toward `preset`, which must open at most 0.85x of `alone`.
    assert!(
        20 * opened[2] <= 17 * opened[0],
        "the global f(p_k) must save at least 15% of the shards' solo node opens:\n{rows}"
    );
    rows
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
    let forced_exec = Executor::new(&index).with_paged(&paged).with_packed(&packed);
    let backends = [
        ("arena", PlanBackend::InMemory),
        ("paged", PlanBackend::Paged),
        ("packed", PlanBackend::Packed),
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
            let (seq, par2) = (seq(backend), par(backend, 2));
            match engine {
                "seq" => queries.iter().for_each(|q| {
                    forced_exec.execute(q, &seq);
                }),
                "par2" => queries.iter().for_each(|q| {
                    forced_exec.execute(q, &par2);
                }),
                _ => {
                    forced_exec.execute_batch(&queries, &seq, BatchOrder::Hilbert);
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
            let leaves = index.stats().leaf_node_accesses();
            writeln!(ledger, "{}", row(name, engine, nodes, leaves, &fetches, before, after)).unwrap();
        }
    }

    // The same image reached without an arena tree — packed straight from
    // the POIs, run through `Executor::frozen` — does exactly the work of
    // the `packed` rows above.
    let pois: Vec<_> = dataset
        .snapshot(dataset.grid.len())
        .into_iter()
        .map(|(id, pos, series)| (Poi { id, pos }, series))
        .collect();
    let mut frozen = FrozenIndex::build(
        IndexConfig::with_grouping(Grouping::TarIntegral),
        dataset.grid.clone(),
        Rect::new(dataset.bounds.0, dataset.bounds.1),
        &pois,
    );
    let frozen_obs = Obs::enabled();
    frozen.set_obs(frozen_obs.clone());
    let mut exec = Executor::frozen(&frozen);
    for (engine, mode) in [
        ("seq", PlanMode::Sequential),
        ("par2", PlanMode::Parallel { threads: 2 }),
    ] {
        frozen.stats().reset();
        let counters = || {
            let m = frozen_obs.metrics_snapshot();
            COUNTERS.map(|name| m.counter(name).unwrap_or(0))
        };
        let (before, fetches0) = (counters(), frozen.packed().fetches());
        for q in &queries {
            let mut plan = exec.plan(q);
            (plan.backend, plan.mode) = (PlanBackend::Packed, mode);
            exec.execute(q, &plan);
        }
        let after = counters();
        let fetches = match engine {
            "par2" => "-".to_string(),
            _ => (frozen.packed().fetches() - fetches0).to_string(),
        };
        let stats = frozen.stats();
        let (nodes, leaves) = (stats.node_accesses(), stats.leaf_node_accesses());
        let row = row("packed", engine, nodes, leaves, &fetches, before, after);
        assert!(
            ledger.lines().any(|line| line == row),
            "frozen-index row differs from the arena's packed row:\n{row}\n{ledger}"
        );
    }

    ledger.push_str(&live_rows(&dataset, &queries));
    ledger.push_str(&shard_rows(&dataset, &pois, &queries));

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
