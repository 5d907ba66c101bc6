//! Observability overhead guard: a query run with observability fully
//! disabled must produce byte-identical hits and node-access counts to the
//! pre-obs oracle fixture in `tests/fixtures/pre_obs_oracle.txt`.
//!
//! The fixture was generated from the tree *before* the `knnta-obs` layer
//! landed (regenerate deliberately with `KNNTA_REGEN_FIXTURES=1 cargo test
//! --test obs_overhead` — doing so redefines the oracle, so only do it when
//! the traversal itself legitimately changes). Each line captures one
//! deterministic query's full answer (POI, score bits, aggregate) plus the
//! node/leaf access counts, across sequential and paged executions.

mod common;

use common::{index_of, seq, small_dataset};
use knnta::core::{
    BatchOrder, Executor, Grouping, LiveIndex, Obs, PlanBackend, QueryHit, TarIndex,
};
use knnta::lbsn::{IntervalAnchor, Workload};
use knnta::pagestore::{AccessStats, BufferPoolConfig};
use knnta::{CheckIn, KnntaQuery};
use std::fmt::Write as _;
use std::path::Path;

const FIXTURE: &str = "tests/fixtures/pre_obs_oracle.txt";

fn fixture_queries(index: &TarIndex) -> Vec<KnntaQuery> {
    let dataset = small_dataset();
    let workload = Workload::generate(&dataset, 12, IntervalAnchor::Random, 7);
    let _ = index;
    workload
        .queries
        .iter()
        .enumerate()
        .map(|(i, &(point, interval))| {
            KnntaQuery::new(point, interval)
                .with_k([1, 5, 10, 25][i % 4])
                .with_alpha0([0.2, 0.3, 0.5, 0.8][i % 4])
        })
        .collect()
}

/// One execution's oracle line: `case <i> <mode> accesses=<n> leaves=<n>
/// hits=<poi>:<score-bits>:<aggregate>,...`.
fn oracle_line(i: usize, mode: &str, index: &TarIndex, run: impl FnOnce() -> Vec<knnta::core::QueryHit>) -> String {
    index.stats().reset();
    let hits = run();
    let mut line = format!(
        "case {i} {mode} accesses={} leaves={} hits=",
        index.stats().node_accesses(),
        index.stats().leaf_node_accesses()
    );
    for (j, h) in hits.iter().enumerate() {
        if j > 0 {
            line.push(',');
        }
        let _ = write!(line, "{}:{:016x}:{}", h.poi.0, h.score.to_bits(), h.aggregate);
    }
    line
}

fn oracle_dump() -> String {
    let dataset = small_dataset();
    let index = index_of(&dataset, Grouping::TarIntegral);
    dump_with(index)
}

fn dump_with(index: TarIndex) -> String {
    let queries = fixture_queries(&index);
    let paged = index.materialize_paged_nodes(index.config_node_size(), BufferPoolConfig::lru(10));
    let exec = Executor::new(&index).with_paged(&paged);
    let on_paged = seq(PlanBackend::Paged);
    let mut out = String::new();
    for (i, q) in queries.iter().enumerate() {
        out.push_str(&oracle_line(i, "seq", &index, || index.query(q)));
        out.push('\n');
        out.push_str(&oracle_line(i, "paged", &index, || exec.execute(q, &on_paged)));
        out.push('\n');
    }
    out
}

#[test]
fn disabled_obs_matches_pre_obs_oracle() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    let dump = oracle_dump();
    if std::env::var("KNNTA_REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &dump).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (regenerate with KNNTA_REGEN_FIXTURES=1)", path.display()));
    let want_lines: Vec<&str> = want.lines().collect();
    let got_lines: Vec<&str> = dump.lines().collect();
    assert_eq!(
        got_lines.len(),
        want_lines.len(),
        "oracle fixture line count drifted"
    );
    for (g, w) in got_lines.iter().zip(&want_lines) {
        assert_eq!(g, w, "disabled-obs execution diverged from the pre-obs oracle");
    }
}

/// One execution's evidence: every hit's `(poi, score bits, aggregate)` plus
/// the logical node and leaf access counts it was charged.
type Evidence = (Vec<Vec<(u32, u64, u64)>>, u64, u64);

fn evidence(stats: &AccessStats, run: impl FnOnce() -> Vec<Vec<QueryHit>>) -> Evidence {
    stats.reset();
    let hits = run()
        .iter()
        .map(|hs| hs.iter().map(|h| (h.poi.0, h.score.to_bits(), h.aggregate)).collect())
        .collect();
    (hits, stats.node_accesses(), stats.leaf_node_accesses())
}

/// The executions the fixture predates, run under `obs`: the packed backend,
/// a 64-query collective tile, and a live snapshot read through a sealed
/// (unmerged) overlay.
fn probe_cases(obs: Obs) -> Vec<(&'static str, Evidence)> {
    let dataset = small_dataset();
    let mut index = index_of(&dataset, Grouping::TarIntegral);
    index.set_obs(obs.clone());
    let queries: Vec<KnntaQuery> = Workload::generate(&dataset, 64, IntervalAnchor::Random, 11)
        .queries
        .iter()
        .enumerate()
        .map(|(i, &(point, interval))| {
            KnntaQuery::new(point, interval)
                .with_k([1, 5, 10, 25][i % 4])
                .with_alpha0([0.2, 0.3, 0.5, 0.8][i % 4])
        })
        .collect();
    let packed = index.pack();
    let exec = Executor::new(&index).with_packed(&packed);
    let on_packed = seq(PlanBackend::Packed);
    let mut cases = vec![(
        "packed",
        evidence(index.stats(), || queries.iter().map(|q| exec.execute(q, &on_packed)).collect()),
    )];
    if obs.is_enabled() {
        // Only sequential searches have run: a probe that stops counting
        // (or a driver that stops publishing) breaks this chain.
        let m = obs.metrics_snapshot();
        let counter = |name: &str| m.counter(name).unwrap_or(0);
        let pushes = counter("knnta.core.search.heap_pushes");
        let pops = counter("knnta.core.search.heap_pops");
        let accesses = counter("knnta.core.search.node_accesses");
        assert!(
            pushes >= pops && pops >= accesses && accesses > 0,
            "pushes {pushes} >= pops {pops} >= node accesses {accesses} > 0"
        );
    }
    cases.push((
        "collective tile",
        evidence(index.stats(), || {
            exec.execute_batch(&queries, &seq(PlanBackend::InMemory), BatchOrder::Hilbert)
        }),
    ));
    drop(exec);

    // Late check-ins into already-digested epochs, sealed but not merged:
    // the snapshot reads them through the delta overlay.
    let epochs = dataset.grid.len();
    let live = LiveIndex::new(index, epochs);
    let pois = dataset.snapshot(epochs);
    for i in 0..200usize {
        let epoch = dataset.grid.epoch((i * 7) % epochs);
        live.record(CheckIn::at(pois[(i * 13) % pois.len()].0, epoch.start));
    }
    live.seal_epoch();
    let snap = live.snapshot();
    assert!(!snap.cumulative_deltas().is_empty(), "overlay must be non-empty");
    cases.push((
        "live overlay",
        evidence(snap.index().stats(), || queries.iter().map(|q| snap.query(q)).collect()),
    ));
    cases
}

/// The instrumented paths must *also* reproduce the pre-obs oracle exactly:
/// enabling observability may add spans and counters but can never change a
/// hit, a score bit, or the node-access accounting. The backends and engines
/// the fixture predates are compared enabled-vs-disabled directly.
#[test]
fn enabled_obs_matches_pre_obs_oracle() {
    if std::env::var("KNNTA_REGEN_FIXTURES").is_ok() {
        return; // the disabled-path test owns fixture regeneration
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (regenerate with KNNTA_REGEN_FIXTURES=1)", path.display()));
    let dataset = small_dataset();
    let mut index = index_of(&dataset, Grouping::TarIntegral);
    index.set_obs(knnta::obs::Obs::enabled());
    let dump = dump_with(index);
    let want_lines: Vec<&str> = want.lines().collect();
    let got_lines: Vec<&str> = dump.lines().collect();
    assert_eq!(got_lines.len(), want_lines.len());
    for (g, w) in got_lines.iter().zip(&want_lines) {
        assert_eq!(g, w, "obs-enabled execution diverged from the pre-obs oracle");
    }

    let (off, on) = (probe_cases(Obs::disabled()), probe_cases(Obs::enabled()));
    for ((name, off), (_, on)) in off.iter().zip(&on) {
        assert_eq!(on, off, "{name}: obs-enabled execution diverged from the disabled one");
    }
}
