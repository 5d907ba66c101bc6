//! Golden-fixture pins of the two metrics wire formats.
//!
//! `tests/fixtures/snapshot_schema.golden.json` is the byte-exact JSON
//! serialisation of a fully deterministic telemetry snapshot
//! (`knnta.snapshot.v1`), and `tests/fixtures/metrics_schema.golden.json`
//! the same for a metrics artifact (`knnta.metrics.v1`). Any change to
//! either schema — field names, ordering, quantile encoding, counter shape —
//! shows up here as a diff, forcing a deliberate schema-version bump instead
//! of silent drift that would break external `slo` / `top` / `report`
//! consumers.
//!
//! Regenerate after an *intentional* schema change with:
//!
//! ```text
//! KNNTA_BLESS=1 cargo test --test snapshot_schema
//! ```

use knnta::obs::{MetricsDoc, Obs, Registry, SnapshotDoc};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/snapshot_schema.golden.json"
);

const METRICS_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/metrics_schema.golden.json"
);

fn blessing() -> bool {
    std::env::var("KNNTA_BLESS").map_or(false, |v| v != "0" && !v.is_empty())
}

/// Writes `json` to `path` under `KNNTA_BLESS=1`, otherwise asserts it
/// equals the pinned fixture byte for byte.
fn check_golden(path: &str, json: &str, schema: &str) {
    if blessing() {
        std::fs::write(path, json).expect("write golden fixture");
        eprintln!("blessed {path} ({} bytes)", json.len());
        return;
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing {path} ({e}); regenerate with KNNTA_BLESS=1"));
    assert_eq!(
        json, golden,
        "{schema} drifted from the pinned fixture; if the schema change is \
         intentional, bump the version and re-bless with KNNTA_BLESS=1"
    );
}

/// A deterministic snapshot touching every document feature: counters with
/// window/lifetime divergence, gauges, one histogram with in-window and
/// rotated-out samples, an overflow-bucket sample, and a nonzero tick.
fn golden_snapshot() -> SnapshotDoc {
    let windows = Registry::new(3);
    let answered = windows.counter("golden.answered");
    let flushes = windows.counter("golden.flushes");
    let depth = windows.gauge("golden.depth");
    let hist = windows.histogram("golden.latency_us", &[100, 1_000, 10_000]);

    // Tick 0: these histogram samples rotate out of the 3-slot window once
    // the clock reaches tick 3; the counter keeps them in `lifetime`.
    answered.add(5);
    hist.record(50);
    hist.record(50);
    windows.advance(); // tick 1
    windows.advance(); // tick 2
    windows.advance(); // tick 3 — tick-0 slot reused, early samples gone
    answered.add(7);
    flushes.inc();
    depth.set(4);
    hist.record(100); // exactly on an inclusive bound
    hist.record(999);
    hist.record(2_500);
    hist.record(123_456); // overflow bucket
    windows.snapshot()
}

#[test]
fn snapshot_json_matches_the_golden_fixture() {
    let snap = golden_snapshot();
    snap.validate().expect("golden snapshot must be valid");

    // Schema invariants, independent of the fixture bytes.
    assert_eq!(snap.schema, knnta::obs::SNAPSHOT_SCHEMA);
    assert_eq!(snap.tick, 3);
    let c = snap.counter("golden.answered").expect("counter present");
    assert_eq!((c.window, c.lifetime), (7, 12), "window forgets, lifetime keeps");
    let h = snap.histogram("golden.latency_us").expect("histogram present");
    assert_eq!(h.count, 4, "rotated-out samples never count");
    assert_eq!(h.max, 123_456);
    assert_eq!(h.buckets.len(), h.bounds.len() + 1, "trailing overflow bucket");

    let json = snap.to_json();
    let parsed = SnapshotDoc::parse(&json).expect("round-trip parse");
    parsed.validate().expect("round-trip stays valid");
    assert_eq!(parsed.to_json(), json, "serialisation is a fixed point");
    check_golden(GOLDEN_PATH, &json, "knnta.snapshot.v1");
}

/// A deterministic metrics artifact touching every document feature:
/// counters registered out of name order (and one never bumped), a
/// set and an adjusted (negative) gauge, a histogram with on-bound and
/// overflow samples, and a histogram with no samples.
fn golden_metrics() -> MetricsDoc {
    let obs = Obs::enabled();
    obs.counter("golden.pops").add(12);
    obs.counter("golden.answered").add(5);
    obs.counter("golden.answered").inc();
    obs.counter("golden.idle");
    obs.gauge("golden.depth").set(4);
    obs.gauge("golden.delta").add(-3);
    let hist = obs.histogram("golden.fetch_ns", &[100, 1_000, 10_000]);
    for v in [50, 100, 999, 2_500, 123_456] {
        hist.record(v);
    }
    obs.histogram("golden.empty_ns", &[10]);
    obs.metrics_snapshot()
}

#[test]
fn metrics_json_matches_the_golden_fixture() {
    let doc = golden_metrics();
    doc.validate().expect("golden metrics must be valid");

    assert_eq!(doc.schema, knnta::obs::METRICS_SCHEMA);
    assert_eq!(doc.counter("golden.answered"), Some(6));
    assert_eq!(doc.counter("golden.idle"), Some(0));
    let names: Vec<&str> = doc.counters.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["golden.answered", "golden.idle", "golden.pops"], "sorted by name");

    let json = doc.to_json();
    let parsed = MetricsDoc::parse(&json).expect("round-trip parse");
    parsed.validate().expect("round-trip stays valid");
    assert_eq!(parsed, doc);
    assert_eq!(parsed.to_json(), json, "serialisation is a fixed point");
    check_golden(METRICS_GOLDEN_PATH, &json, "knnta.metrics.v1");
}
