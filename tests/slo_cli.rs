//! End-to-end pin of the telemetry tooling exit codes: `serve --stats-out`
//! must emit a readable snapshot, `knnta slo` must exit 0 when the window
//! quantiles hold the bounds and non-zero when they don't, and `knnta top` /
//! `knnta report --check` must accept the emitted artifacts.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

fn knnta() -> Command {
    Command::new(env!("CARGO_BIN_EXE_knnta"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("knnta-slo-test-{}-{name}", std::process::id()));
    p
}

/// One shared `serve` run: every test below reads the same artifacts.
fn artifacts() -> &'static (PathBuf, PathBuf, PathBuf) {
    static ARTIFACTS: OnceLock<(PathBuf, PathBuf, PathBuf)> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let snap = tmp("snapshot.json");
        let tail = tmp("tail.json");
        let trace = tmp("trace.json");
        let out = knnta()
            .args(["serve", "--dataset", "GS", "--scale", "0.004", "--seed", "11"])
            .args(["--shards", "2", "--workers", "1", "--queries", "160"])
            .args(["--rate", "4000", "--max-batch", "8"])
            .args(["--stats-out", snap.to_str().unwrap()])
            .args(["--stats-interval-ms", "20"])
            .args(["--tail-out", tail.to_str().unwrap()])
            .args(["--trace-out", trace.to_str().unwrap()])
            .output()
            .expect("run serve");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("window:"), "serve must report window quantiles: {text}");
        assert!(text.contains("tail:"), "serve must report tail capture: {text}");
        (snap, tail, trace)
    })
}

#[test]
fn slo_passes_generous_bounds_with_exit_zero() {
    let (snap, _, _) = artifacts();
    // 120 s bounds: any functioning run holds them.
    let out = knnta()
        .args(["slo", "--snapshot", snap.to_str().unwrap()])
        .args(["--p50-us", "120000000", "--p95-us", "120000000", "--p99-us", "120000000"])
        .output()
        .expect("run slo");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{text}{}", String::from_utf8_lossy(&out.stderr));
    assert!(text.contains("all bounds hold"), "{text}");
}

#[test]
fn slo_flags_violations_with_nonzero_exit() {
    let (snap, _, _) = artifacts();
    // A 1 µs p99 bound is unsatisfiable: submit-to-answer latency includes
    // at least one admission flush delay.
    let out = knnta()
        .args(["slo", "--snapshot", snap.to_str().unwrap(), "--p99-us", "1"])
        .output()
        .expect("run slo");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("VIOLATION"), "{text}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("violated"),
        "stderr names the failure"
    );
}

#[test]
fn slo_rejects_unusable_requests() {
    let (snap, _, _) = artifacts();
    // No bounds at all.
    let out = knnta()
        .args(["slo", "--snapshot", snap.to_str().unwrap()])
        .output()
        .expect("run slo");
    assert_eq!(out.status.code(), Some(1));
    // Unknown histogram.
    let out = knnta()
        .args(["slo", "--snapshot", snap.to_str().unwrap()])
        .args(["--hist", "no.such.metric", "--p95-us", "1000"])
        .output()
        .expect("run slo");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no.such.metric"));
}

#[test]
fn top_renders_the_emitted_snapshot() {
    let (snap, _, _) = artifacts();
    let out = knnta()
        .args(["top", snap.to_str().unwrap()])
        .output()
        .expect("run top");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("knnta.snapshot.v1"), "{text}");
    assert!(text.contains("knnta.service.window.e2e_us"), "{text}");
    assert!(text.contains("counters:"), "{text}");
    assert!(text.contains("gauges:"), "{text}");
}

#[test]
fn report_groups_live_service_spans() {
    let (_, _, trace) = artifacts();
    let out = knnta()
        .args(["report", trace.to_str().unwrap(), "--check"])
        .output()
        .expect("run report");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("service phases:"), "{text}");
    for phase in ["admit", "tile", "scatter", "merge"] {
        assert!(text.contains(phase), "missing phase `{phase}`: {text}");
    }
    assert!(text.contains("scatter by shard:"), "{text}");
    assert!(text.contains("execs"), "{text}");
}

#[test]
fn report_accepts_the_tail_trace() {
    let (_, tail, _) = artifacts();
    let out = knnta()
        .args(["report", tail.to_str().unwrap(), "--check"])
        .output()
        .expect("run report");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("per-query segments:"), "{text}");
    assert!(text.contains("scatter by shard:"), "{text}");
}
