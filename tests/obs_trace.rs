//! Trace-schema stability and well-formedness of the observability layer.
//!
//! Three contracts pinned here:
//!
//! * **Round-trip**: the `knnta.trace.v1` / `knnta.metrics.v1` JSON emitted
//!   by `--trace-out` / `--metrics-out` parses back (via the in-repo
//!   `knnta-util` JSON parser behind `TraceDoc::parse`) into exactly the
//!   document that was serialized.
//! * **Nesting**: every execution mode — sequential, parallel at every
//!   thread count, paged, collective batch — emits a structurally
//!   well-formed trace: no orphaned spans, children nested inside parents,
//!   events timestamped within their spans.
//! * **Schema stability**: the serialized form of a fixed synthetic trace
//!   is pinned byte-for-byte in `tests/fixtures/trace_schema.golden.json`
//!   (regenerate deliberately with `KNNTA_REGEN_FIXTURES=1`).

mod common;

use common::{index_of, par, seq, small_dataset};
use knnta::core::{
    BatchOrder, Executor, Grouping, PagedNodes, PlanBackend, QueryHit, TarIndex,
};
use knnta::obs::{MetricsDoc, Obs, SpanId, TraceDoc, Tracer};
use knnta::pagestore::BufferPoolConfig;
use knnta::{KnntaQuery, TimeInterval};
use std::path::Path;

const GOLDEN: &str = "tests/fixtures/trace_schema.golden.json";

fn observed_index() -> TarIndex {
    let dataset = small_dataset();
    let mut index = index_of(&dataset, Grouping::TarIntegral);
    index.set_obs(Obs::enabled());
    index
}

/// One query on the arena's parallel frontier.
fn parallel(index: &TarIndex, q: &KnntaQuery, threads: usize) -> Vec<QueryHit> {
    Executor::new(index).execute(q, &par(PlanBackend::InMemory, threads))
}

/// One sequential query through the paged store.
fn on_paged(index: &TarIndex, paged: &PagedNodes, q: &KnntaQuery) -> Vec<QueryHit> {
    Executor::new(index).with_paged(paged).execute(q, &seq(PlanBackend::Paged))
}

/// The default collective batch over the arena.
fn collective(index: &TarIndex, batch: &[KnntaQuery]) -> Vec<Vec<QueryHit>> {
    Executor::new(index).execute_batch(batch, &seq(PlanBackend::InMemory), BatchOrder::Hilbert)
}

fn sample_query(k: usize) -> KnntaQuery {
    KnntaQuery::new([40.0, 55.0], TimeInterval::days(0, 63))
        .with_k(k)
        .with_alpha0(0.4)
}

fn sample_batch() -> Vec<KnntaQuery> {
    vec![
        sample_query(5),
        KnntaQuery::new([10.0, 20.0], TimeInterval::days(7, 28)).with_k(3),
        KnntaQuery::new([80.0, 75.0], TimeInterval::days(14, 63)).with_k(8),
        sample_query(1),
    ]
}

/// Every execution mode emits a well-formed trace, with the expected span
/// vocabulary, at every thread count.
#[test]
fn span_nesting_well_formed_across_modes() {
    // Sequential, in-memory.
    let index = observed_index();
    let _ = index.query(&sample_query(5));
    let trace = index.obs().trace_snapshot();
    trace.validate().expect("sequential trace");
    assert_eq!(trace.spans_named("query").count(), 1);
    assert_eq!(trace.spans_named("search.seq").count(), 1);
    assert!(trace.spans_named("phase.filter").count() >= 1);

    // Parallel, every thread count.
    for threads in [1, 2, 4, 8] {
        let index = observed_index();
        let _ = parallel(&index, &sample_query(10), threads);
        let trace = index.obs().trace_snapshot();
        trace
            .validate()
            .unwrap_or_else(|e| panic!("parallel trace (threads={threads}): {e}"));
        assert_eq!(trace.spans_named("worker").count(), threads);
        let query = trace.spans_named("query").next().expect("query span");
        for w in trace.spans_named("worker") {
            assert_eq!(w.parent, query.id, "threads={threads}");
        }
        assert!(
            trace.events.iter().filter(|e| e.name == "pop").count() >= 1,
            "threads={threads}: pop events missing"
        );
    }

    // Sequential over the paged backend.
    let index = observed_index();
    let paged = index.materialize_paged_nodes(index.config_node_size(), BufferPoolConfig::lru(10));
    let _ = on_paged(&index, &paged, &sample_query(5));
    let trace = index.obs().trace_snapshot();
    trace.validate().expect("paged trace");
    let query = trace.spans_named("query").next().expect("query span");
    assert_eq!(
        query.attr("backend").and_then(|v| v.as_str()),
        Some("paged")
    );

    // Collective batch, in-memory and paged.
    let index = observed_index();
    let _ = collective(&index, &sample_batch());
    let trace = index.obs().trace_snapshot();
    trace.validate().expect("batch trace");
    assert_eq!(trace.spans_named("batch").count(), 1);
    assert!(trace.spans_named("batch.tile").count() >= 1);

    let index = observed_index();
    let paged = index.materialize_paged_nodes(index.config_node_size(), BufferPoolConfig::lru(10));
    let _ = Executor::new(&index).with_paged(&paged).execute_batch(
        &sample_batch(),
        &seq(PlanBackend::Paged),
        BatchOrder::Hilbert,
    );
    let trace = index.obs().trace_snapshot();
    trace.validate().expect("paged batch trace");
    let batch = trace.spans_named("batch").next().expect("batch span");
    assert_eq!(
        batch.attr("backend").and_then(|v| v.as_str()),
        Some("paged")
    );
}

/// The serialized artifacts parse back into exactly the snapshot documents.
#[test]
fn artifacts_round_trip_through_parser() {
    let index = observed_index();
    let paged = index.materialize_paged_nodes(index.config_node_size(), BufferPoolConfig::lru(10));
    let _ = index.query(&sample_query(5));
    let _ = parallel(&index, &sample_query(10), 4);
    let _ = on_paged(&index, &paged, &sample_query(3));
    let _ = collective(&index, &sample_batch());

    let trace = index.obs().trace_snapshot();
    assert!(!trace.spans.is_empty());
    let parsed = TraceDoc::parse(&trace.to_json()).expect("trace JSON parses");
    assert_eq!(parsed, trace, "trace round-trip drifted");

    let metrics = index.obs().metrics_snapshot();
    assert!(!metrics.counters.is_empty());
    let parsed = MetricsDoc::parse(&metrics.to_json()).expect("metrics JSON parses");
    assert_eq!(parsed, metrics, "metrics round-trip drifted");
}

/// The published node-access counters are exactly the oracle accounting —
/// on every backend and thread count.
#[test]
fn metrics_counters_match_access_stats() {
    let index = observed_index();
    let paged = index.materialize_paged_nodes(index.config_node_size(), BufferPoolConfig::lru(10));
    index.stats().reset();
    let _ = index.query(&sample_query(5));
    let seq = index.stats().node_accesses();
    for threads in [2, 4] {
        index.stats().reset();
        let _ = parallel(&index, &sample_query(5), threads);
        assert_eq!(index.stats().node_accesses(), seq, "threads={threads}");
    }
    index.stats().reset();
    let _ = on_paged(&index, &paged, &sample_query(5));
    assert_eq!(index.stats().node_accesses(), seq, "paged");

    let metrics = index.obs().metrics_snapshot();
    let counter = |name: &str| {
        metrics
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    // 4 executions of the same query, each publishing the sequential count.
    assert_eq!(counter("knnta.core.search.node_accesses"), 4 * seq);
    // The paged run's physical I/O went through the buffer counters.
    assert!(
        counter("knnta.pagestore.buffer.lru.hits")
            + counter("knnta.pagestore.buffer.lru.misses")
            > 0
    );
}

/// The `knnta.trace.v1` serialization of a fixed synthetic trace is pinned
/// byte-for-byte.
#[test]
fn trace_schema_golden_file() {
    let t = Tracer::new();
    let q = t.add_span(
        "query",
        SpanId::NONE,
        0,
        1_000_000,
        vec![
            ("mode".to_string(), "seq".into()),
            ("backend".to_string(), "mem".into()),
            ("k".to_string(), 5u64.into()),
            ("alpha0".to_string(), 0.3f64.into()),
        ],
    );
    let s = t.add_span("search.seq", q, 10, 999_000, vec![]);
    t.add_span("phase.filter", s, 10, 600_000, vec![]);
    t.add_span("phase.tia", s, 600_000, 900_000, vec![]);
    t.add_span("phase.io", s, 900_000, 999_000, vec![]);
    let w = t.add_span(
        "worker",
        q,
        10,
        999_000,
        vec![
            ("worker".to_string(), 0u64.into()),
            ("pops".to_string(), 2u64.into()),
            ("steals".to_string(), 1u64.into()),
        ],
    );
    t.add_event(
        w,
        "pop",
        500,
        vec![
            ("key".to_string(), 0.25f64.into()),
            ("stolen".to_string(), true.into()),
            ("expanded".to_string(), true.into()),
            ("is_leaf".to_string(), false.into()),
            ("counted".to_string(), true.into()),
        ],
    );
    let doc = t.snapshot();
    doc.validate().expect("synthetic trace is well-formed");
    let json = doc.to_json();

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var("KNNTA_REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &json).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (regenerate with KNNTA_REGEN_FIXTURES=1)",
            path.display()
        )
    });
    assert_eq!(
        json, want,
        "knnta.trace.v1 serialization drifted from the golden file \
         (schema changes must be deliberate: bump the schema id and \
         regenerate)"
    );
}
