//! A wall-clock micro-benchmark runner (replaces `criterion`).
//!
//! A suite is a [`Harness`]; benches are grouped ([`Harness::group`]) and
//! measured through a criterion-like closure surface
//! (`group.bench("id", |b| b.iter(|| work()))`). Each bench is warmed up,
//! calibrated to a target sample duration, then timed for a fixed number of
//! samples; the per-iteration median, p95, mean and min are reported.
//!
//! [`Harness::finish`] prints an aligned table and writes
//! **`BENCH_<suite>.json`** so the performance trajectory of this repository
//! is machine-readable PR over PR. The JSON schema is documented in
//! `CHANGES.md`; every field is flat and stable:
//!
//! ```json
//! {
//!   "suite": "substrates",
//!   "samples": 10,
//!   "results": [
//!     {"group": "mvbt", "bench": "insert_10k", "iters_per_sample": 3,
//!      "samples": 10, "median_ns": 123, "p95_ns": 130, "mean_ns": 124.5,
//!      "min_ns": 120}
//!   ]
//! }
//! ```
//!
//! A bench may also attach observability counter deltas via
//! [`Bencher::counters`] (e.g. node accesses or pool hit counts from a
//! `knnta-obs` metrics snapshot); they are serialized as an extra
//! `"counters": {"<name>": <u64>, ...}` member on that result only, so
//! reports without counters are byte-identical to the original schema.
//!
//! Environment knobs:
//!
//! * `KNNTA_BENCH_DIR` — directory for the JSON file (default: current
//!   directory, which under `cargo bench` is the crate root).
//! * `KNNTA_BENCH_FAST=1` — smoke mode: 3 samples, ~2 ms per sample, for
//!   CI gates that only verify the runner works end to end.
//! * `KNNTA_BENCH_SAMPLES` — override the per-group sample count.
//! * `KNNTA_BENCH_TARGET_MS` — override the target sample duration in
//!   milliseconds (works in fast mode too; the verify planner gate sets it
//!   so short benches average many iterations per noisy container sample).

use crate::json::escape_string as json_str;
use std::fmt::Display;
use std::fs;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Group name (one group per figure family / subsystem).
    pub group: String,
    /// Bench id within the group.
    pub bench: String,
    /// Iterations timed per sample.
    pub iters_per_sample: u64,
    /// Number of samples taken.
    pub samples: usize,
    /// Median wall-clock nanoseconds per iteration.
    pub median_ns: u64,
    /// 95th-percentile wall-clock nanoseconds per iteration.
    pub p95_ns: u64,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Minimum wall-clock nanoseconds per iteration.
    pub min_ns: u64,
    /// Optional observability counter deltas attached by the bench body
    /// (empty for ordinary timing-only benches).
    pub counters: Vec<(String, u64)>,
}

fn fast_mode() -> bool {
    std::env::var("KNNTA_BENCH_FAST").map_or(false, |v| v != "0" && !v.is_empty())
}

/// A benchmark suite; owns the results and writes `BENCH_<suite>.json`.
pub struct Harness {
    suite: String,
    results: Vec<BenchResult>,
    default_samples: usize,
    target_sample: Duration,
}

impl Harness {
    /// A suite named `suite` (the JSON file is `BENCH_<suite>.json`).
    pub fn new(suite: &str) -> Self {
        let fast = fast_mode();
        let default_samples = std::env::var("KNNTA_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if fast { 3 } else { 10 });
        Harness {
            suite: suite.to_string(),
            results: Vec::new(),
            default_samples,
            // KNNTA_BENCH_TARGET_MS widens samples even in fast mode: the
            // verify planner gate uses it so short benches average many
            // iterations per sample instead of timing a single noisy call.
            target_sample: std::env::var("KNNTA_BENCH_TARGET_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .map(Duration::from_millis)
                .unwrap_or(if fast {
                    Duration::from_millis(2)
                } else {
                    Duration::from_millis(25)
                }),
        }
    }

    /// Opens a named group; benches registered on it share a sample count.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        let samples = self.default_samples;
        Group {
            harness: self,
            name: name.to_string(),
            samples,
        }
    }

    /// Opens a group whose benches are sampled **round-robin**: round `j`
    /// times one sample of every registered bench before round `j+1`
    /// starts, instead of exhausting each bench in turn. Time-correlated
    /// machine noise (a bursty neighbor, a thermal dip) then lands on every
    /// bench of the affected rounds alike, so *ratios* between the benches'
    /// percentiles stay stable even when absolute numbers wobble. Use it
    /// for gated A-vs-B comparisons (`bench_diff --within --assert-le`);
    /// plain [`Harness::group`] remains right for independent measurements.
    pub fn interleaved_group<'b>(&mut self, name: &str) -> InterleavedGroup<'_, 'b> {
        let samples = self.default_samples;
        InterleavedGroup {
            harness: self,
            name: name.to_string(),
            samples,
            benches: Vec::new(),
        }
    }

    /// A group-less single bench (criterion's `bench_function`).
    pub fn bench_function(&mut self, id: impl Display, f: impl FnMut(&mut Bencher)) {
        let mut g = self.group("default");
        g.bench(id, f);
    }

    /// Prints the result table and writes `BENCH_<suite>.json`; returns the
    /// JSON path.
    pub fn finish(self) -> io::Result<PathBuf> {
        let dir = std::env::var("KNNTA_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        fs::create_dir_all(&dir)?;
        let path = Path::new(&dir).join(format!("BENCH_{}.json", self.suite));
        fs::write(&path, self.to_json())?;
        println!();
        println!(
            "{:<24} {:<28} {:>12} {:>12} {:>12}",
            "group", "bench", "median_ns", "p95_ns", "min_ns"
        );
        for r in &self.results {
            println!(
                "{:<24} {:<28} {:>12} {:>12} {:>12}",
                r.group, r.bench, r.median_ns, r.p95_ns, r.min_ns
            );
        }
        println!("\nwrote {}", path.display());
        Ok(path)
    }

    /// The JSON document `finish` writes.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"suite\": {},\n", json_str(&self.suite)));
        out.push_str(&format!("  \"samples\": {},\n", self.default_samples));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let mut counters = String::new();
            if !r.counters.is_empty() {
                counters.push_str(", \"counters\": {");
                for (j, (name, v)) in r.counters.iter().enumerate() {
                    if j > 0 {
                        counters.push_str(", ");
                    }
                    counters.push_str(&format!("{}: {}", json_str(name), v));
                }
                counters.push('}');
            }
            out.push_str(&format!(
                "    {{\"group\": {}, \"bench\": {}, \"iters_per_sample\": {}, \
                 \"samples\": {}, \"median_ns\": {}, \"p95_ns\": {}, \
                 \"mean_ns\": {:.1}, \"min_ns\": {}{}}}{}\n",
                json_str(&r.group),
                json_str(&r.bench),
                r.iters_per_sample,
                r.samples,
                r.median_ns,
                r.p95_ns,
                r.mean_ns,
                r.min_ns,
                counters,
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Completed results so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

/// A `BENCH_<suite>.json` document parsed back from disk (the bench-diff
/// tool's input).
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The suite name.
    pub suite: String,
    /// Every measured bench in file order.
    pub results: Vec<BenchResult>,
}

impl BenchReport {
    /// Looks up a bench by `(group, bench)` id.
    pub fn find(&self, group: &str, bench: &str) -> Option<&BenchResult> {
        self.results
            .iter()
            .find(|r| r.group == group && r.bench == bench)
    }
}

/// The p95 comparison of one bench present in both runs.
#[derive(Debug, Clone)]
pub struct BenchDelta {
    /// Group name.
    pub group: String,
    /// Bench id within the group.
    pub bench: String,
    /// p95 ns/iter in the old run.
    pub old_p95_ns: u64,
    /// p95 ns/iter in the new run.
    pub new_p95_ns: u64,
    /// Relative change `new/old − 1` (positive = slower).
    pub change: f64,
}

impl BenchDelta {
    /// Whether the new run is slower than the noise threshold allows
    /// (`threshold = 0.25` flags anything more than 25 % over the old p95).
    pub fn is_regression(&self, threshold: f64) -> bool {
        self.change > threshold
    }
}

/// Parses a `BENCH_<suite>.json` document produced by [`Harness::finish`].
///
/// Accepts any flat JSON matching the documented schema (unknown keys are
/// ignored; missing numeric fields default to zero), so reports from older
/// revisions of the runner stay comparable. Built on
/// [`crate::json::JsonValue`], the same parser that reads trace and metrics
/// artifacts.
pub fn parse_report(json: &str) -> Result<BenchReport, String> {
    let doc = crate::json::JsonValue::parse(json)?;
    let suite = doc
        .get("suite")
        .and_then(crate::json::JsonValue::as_str)
        .ok_or("missing \"suite\" field")?
        .to_string();
    let mut results = Vec::new();
    for obj in doc
        .get("results")
        .and_then(crate::json::JsonValue::as_arr)
        .unwrap_or(&[])
    {
        results.push(parse_result_object(obj)?);
    }
    Ok(BenchReport { suite, results })
}

fn parse_result_object(obj: &crate::json::JsonValue) -> Result<BenchResult, String> {
    let string = |key: &str| {
        obj.get(key)
            .and_then(crate::json::JsonValue::as_str)
            .unwrap_or("")
            .to_string()
    };
    let num = |key: &str| obj.get(key).and_then(crate::json::JsonValue::as_f64).unwrap_or(0.0);
    let mut counters = Vec::new();
    if let Some(members) = obj.get("counters").and_then(crate::json::JsonValue::as_obj) {
        for (name, v) in members {
            counters.push((
                name.clone(),
                v.as_u64()
                    .ok_or_else(|| format!("counter {name} not a number"))?,
            ));
        }
    }
    let r = BenchResult {
        group: string("group"),
        bench: string("bench"),
        iters_per_sample: num("iters_per_sample") as u64,
        samples: num("samples") as usize,
        median_ns: num("median_ns") as u64,
        p95_ns: num("p95_ns") as u64,
        mean_ns: num("mean_ns"),
        min_ns: num("min_ns") as u64,
        counters,
    };
    if r.group.is_empty() && r.bench.is_empty() {
        return Err("result object without group/bench".to_string());
    }
    Ok(r)
}

/// Compares two reports bench-by-bench on p95.
///
/// Returns the deltas for every `(group, bench)` present in both runs (in
/// the new run's order) and human-readable notes for benches present in
/// only one of them — a silent disappearance must not read as "no
/// regression". Filter the deltas with [`BenchDelta::is_regression`].
pub fn diff_reports(old: &BenchReport, new: &BenchReport) -> (Vec<BenchDelta>, Vec<String>) {
    let mut deltas = Vec::new();
    let mut notes = Vec::new();
    for n in &new.results {
        match old.find(&n.group, &n.bench) {
            Some(o) => {
                let old_p95 = o.p95_ns.max(1);
                deltas.push(BenchDelta {
                    group: n.group.clone(),
                    bench: n.bench.clone(),
                    old_p95_ns: o.p95_ns,
                    new_p95_ns: n.p95_ns,
                    change: n.p95_ns as f64 / old_p95 as f64 - 1.0,
                });
            }
            None => notes.push(format!("{}/{} only in new run", n.group, n.bench)),
        }
    }
    for o in &old.results {
        if new.find(&o.group, &o.bench).is_none() {
            notes.push(format!("{}/{} only in old run", o.group, o.bench));
        }
    }
    (deltas, notes)
}

/// A named group of benches sharing a sample count.
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    samples: usize,
}

impl Group<'_> {
    /// Sets the sample count for subsequent benches in this group (ignored
    /// in fast mode, which caps everything at 3).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        if !fast_mode() && std::env::var("KNNTA_BENCH_SAMPLES").is_err() {
            self.samples = n.max(2);
        }
        self
    }

    /// Measures one bench: `f` receives a [`Bencher`] and must call
    /// [`Bencher::iter`] (or [`Bencher::iter_batched`]) exactly once.
    pub fn bench(&mut self, id: impl Display, mut f: impl FnMut(&mut Bencher)) {
        let mut b = Bencher {
            samples: self.samples,
            target_sample: self.harness.target_sample,
            measured: None,
            counters: Vec::new(),
        };
        f(&mut b);
        let (iters, per_iter_ns) = b
            .measured
            .unwrap_or_else(|| panic!("bench '{}' never called iter()", id));
        self.harness.results.push(result_of(
            &self.name,
            &id.to_string(),
            iters,
            per_iter_ns,
            b.counters,
        ));
    }

    /// No-op, for criterion-style symmetry.
    pub fn finish(self) {}
}

/// Summarizes raw per-iteration timings into a [`BenchResult`].
fn result_of(
    group: &str,
    bench: &str,
    iters: u64,
    mut per_iter_ns: Vec<u64>,
    counters: Vec<(String, u64)>,
) -> BenchResult {
    per_iter_ns.sort_unstable();
    let n = per_iter_ns.len();
    BenchResult {
        group: group.to_string(),
        bench: bench.to_string(),
        iters_per_sample: iters,
        samples: n,
        median_ns: per_iter_ns[n / 2],
        p95_ns: per_iter_ns[((n as f64 * 0.95).ceil() as usize).clamp(1, n) - 1],
        mean_ns: per_iter_ns.iter().sum::<u64>() as f64 / n as f64,
        min_ns: per_iter_ns[0],
        counters,
    }
}

/// A group measured round-robin; see [`Harness::interleaved_group`].
///
/// Benches are registered as plain closures (one *iteration* of work, as
/// the body passed to [`Bencher::iter`] would be) and measured only when
/// [`InterleavedGroup::finish`] runs: warmup and per-bench iteration
/// calibration first, then `samples` rounds, each timing every bench once
/// in registration order.
pub struct InterleavedGroup<'h, 'b> {
    harness: &'h mut Harness,
    name: String,
    samples: usize,
    benches: Vec<(String, Box<dyn FnMut() + 'b>)>,
}

impl<'h, 'b> InterleavedGroup<'h, 'b> {
    /// Sets the round count (ignored in fast mode and under
    /// `KNNTA_BENCH_SAMPLES`, exactly like [`Group::sample_size`]).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        if !fast_mode() && std::env::var("KNNTA_BENCH_SAMPLES").is_err() {
            self.samples = n.max(2);
        }
        self
    }

    /// Registers one bench; `f` is a single iteration of the workload.
    pub fn bench(&mut self, id: impl Display, f: impl FnMut() + 'b) {
        self.benches.push((id.to_string(), Box::new(f)));
    }

    /// Runs the round-robin measurement and records one [`BenchResult`]
    /// per registered bench.
    pub fn finish(mut self) {
        let target = self.harness.target_sample;
        // Warmup + calibration per bench, mirroring `Bencher::iter`.
        let mut iters = Vec::with_capacity(self.benches.len());
        for (_, f) in &mut self.benches {
            f();
            let t0 = Instant::now();
            f();
            let once = t0.elapsed().max(Duration::from_nanos(1));
            iters.push((target.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64);
        }
        let mut per_bench: Vec<Vec<u64>> = self
            .benches
            .iter()
            .map(|_| Vec::with_capacity(self.samples))
            .collect();
        for _ in 0..self.samples {
            for (i, (_, f)) in self.benches.iter_mut().enumerate() {
                let t0 = Instant::now();
                for _ in 0..iters[i] {
                    f();
                }
                per_bench[i].push((t0.elapsed().as_nanos() as u64) / iters[i]);
            }
        }
        for ((id, _), (iters, samples)) in
            self.benches.iter().zip(iters.into_iter().zip(per_bench))
        {
            self.harness
                .results
                .push(result_of(&self.name, id, iters, samples, Vec::new()));
        }
    }
}

/// Drives the measurement of a single bench.
pub struct Bencher {
    samples: usize,
    target_sample: Duration,
    /// `(iters_per_sample, per-iteration ns for each sample)`
    measured: Option<(u64, Vec<u64>)>,
    counters: Vec<(String, u64)>,
}

impl Bencher {
    /// Attaches observability counter deltas to this bench's result (e.g.
    /// `obs.metrics_snapshot().counters` from a `knnta-obs` handle).
    /// Replaces any previously attached set.
    pub fn counters(&mut self, counters: Vec<(String, u64)>) {
        self.counters = counters;
    }

    /// Times `f`, calibrating iterations per sample to the target sample
    /// duration.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Warmup + calibration: one untimed run, then estimate cost.
        black_box(f());
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (self.target_sample.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let mut samples = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples.push((t0.elapsed().as_nanos() as u64) / iters);
        }
        self.measured = Some((iters, samples));
    }

    /// Times `routine` on fresh inputs from `setup`; setup cost is excluded
    /// from the timing. One routine call per sample (criterion's
    /// `iter_batched` with a large batch).
    pub fn iter_batched<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        // Warmup.
        black_box(routine(setup()));
        let mut samples = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            samples.push(t0.elapsed().as_nanos() as u64);
        }
        self.measured = Some((1, samples));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_serialises() {
        let mut h = Harness::new("unit_smoke");
        let mut g = h.group("math");
        g.sample_size(3);
        // A sequential LCG chain: LLVM closed-forms `(0..n).sum()` to a
        // sub-nanosecond routine whose per-iteration median floors to 0.
        let mix = |rounds: u64| {
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            for _ in 0..rounds {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
            }
            x
        };
        g.bench("sum_1k", |b| b.iter(|| mix(1_000)));
        g.bench("sum_10k", |b| b.iter(|| mix(10_000)));
        drop(g);
        assert_eq!(h.results().len(), 2);
        for r in h.results() {
            assert!(r.median_ns > 0);
            assert!(r.p95_ns >= r.median_ns);
            assert!(r.min_ns <= r.median_ns);
        }
        let json = h.to_json();
        assert!(json.contains("\"suite\": \"unit_smoke\""));
        assert!(json.contains("\"bench\": \"sum_1k\""));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count()
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn iter_batched_times_routine_only() {
        let mut h = Harness::new("unit_batched");
        let mut g = h.group("g");
        g.sample_size(2);
        g.bench("consume_vec", |b| {
            b.iter_batched(|| vec![1u8; 4096], |v| v.iter().map(|&x| x as u64).sum::<u64>())
        });
        drop(g);
        assert_eq!(h.results()[0].iters_per_sample, 1);
    }

    #[test]
    fn interleaved_group_samples_round_robin() {
        let mut h = Harness::new("unit_interleaved");
        // Records the bench label per call, compressing consecutive
        // repeats so each timed block (and warmup pair) collapses to one
        // entry; round-robin then shows as strict a/b alternation.
        let order = std::cell::RefCell::new(Vec::<&'static str>::new());
        let push = |tag: &'static str| {
            let mut o = order.borrow_mut();
            if o.last() != Some(&tag) {
                o.push(tag);
            }
        };
        let mut g = h.interleaved_group("ig");
        g.sample_size(2);
        g.bench("a", || push("a"));
        g.bench("b", || push("b"));
        g.finish();
        // Warmup visits a then b once; each of the 2 rounds visits a then b.
        assert_eq!(*order.borrow(), ["a", "b", "a", "b", "a", "b"]);
        assert_eq!(h.results().len(), 2);
        for (r, id) in h.results().iter().zip(["a", "b"]) {
            assert_eq!(r.group, "ig");
            assert_eq!(r.bench, id);
            assert_eq!(r.samples, 2);
            assert!(r.p95_ns >= r.median_ns);
            assert!(r.min_ns <= r.median_ns);
        }
    }

    #[test]
    fn json_escapes_quotes() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn parse_round_trips_the_writer() {
        let mut h = Harness::new("rt");
        let mut g = h.group("grp");
        g.sample_size(2);
        g.bench("fast \"quoted\"", |b| b.iter(|| 1 + 1));
        drop(g);
        let report = parse_report(&h.to_json()).expect("parse");
        assert_eq!(report.suite, "rt");
        assert_eq!(report.results.len(), 1);
        let r = &report.results[0];
        let w = &h.results()[0];
        assert_eq!(r.group, "grp");
        assert_eq!(r.bench, "fast \"quoted\"");
        assert_eq!(r.p95_ns, w.p95_ns);
        assert_eq!(r.median_ns, w.median_ns);
        assert_eq!(r.min_ns, w.min_ns);
        assert_eq!(r.samples, w.samples);
    }

    #[test]
    fn counters_round_trip_and_stay_optional() {
        let mut h = Harness::new("ctr");
        let mut g = h.group("grp");
        g.sample_size(2);
        g.bench("plain", |b| b.iter(|| 1 + 1));
        g.bench("counted", |b| {
            b.iter(|| 1 + 1);
            b.counters(vec![
                ("knnta.core.search.node_accesses".to_string(), 42),
                ("knnta.pagestore.buffer.lru.hits".to_string(), 7),
            ]);
        });
        drop(g);
        let json = h.to_json();
        // The counter-less result keeps the original schema exactly.
        assert_eq!(json.matches("\"counters\"").count(), 1);
        let report = parse_report(&json).expect("parse");
        assert!(report.find("grp", "plain").unwrap().counters.is_empty());
        assert_eq!(
            report.find("grp", "counted").unwrap().counters,
            vec![
                ("knnta.core.search.node_accesses".to_string(), 42),
                ("knnta.pagestore.buffer.lru.hits".to_string(), 7),
            ]
        );
    }

    #[test]
    fn parse_ignores_unknown_keys() {
        let json = r#"{
          "suite": "s", "samples": 3, "host": {"os": "linux", "cores": [1, 2]},
          "results": [
            {"group": "g", "bench": "b", "p95_ns": 200, "median_ns": 150,
             "extra": "ignored", "flag": true}
          ]
        }"#;
        let report = parse_report(json).expect("parse");
        assert_eq!(report.results[0].p95_ns, 200);
        assert_eq!(report.results[0].median_ns, 150);
        assert_eq!(report.results[0].min_ns, 0, "missing fields default");
        assert!(parse_report("{\"results\": []}").is_err(), "suite required");
    }

    #[test]
    fn diff_flags_p95_regressions() {
        let mk = |p95: u64| {
            format!(
                "{{\"suite\": \"s\", \"results\": [\
                 {{\"group\": \"g\", \"bench\": \"steady\", \"p95_ns\": 100}},\
                 {{\"group\": \"g\", \"bench\": \"hot\", \"p95_ns\": {p95}}}]}}"
            )
        };
        let old = parse_report(&mk(100)).unwrap();
        let new = parse_report(&mk(200)).unwrap();
        let (deltas, notes) = diff_reports(&old, &new);
        assert!(notes.is_empty());
        assert_eq!(deltas.len(), 2);
        let hot = deltas.iter().find(|d| d.bench == "hot").unwrap();
        assert!((hot.change - 1.0).abs() < 1e-12);
        assert!(hot.is_regression(0.25));
        let steady = deltas.iter().find(|d| d.bench == "steady").unwrap();
        assert!(!steady.is_regression(0.25));
    }

    #[test]
    fn diff_notes_missing_benches() {
        let old = parse_report(
            "{\"suite\": \"s\", \"results\": [{\"group\": \"g\", \"bench\": \"gone\", \"p95_ns\": 5}]}",
        )
        .unwrap();
        let new = parse_report(
            "{\"suite\": \"s\", \"results\": [{\"group\": \"g\", \"bench\": \"born\", \"p95_ns\": 5}]}",
        )
        .unwrap();
        let (deltas, notes) = diff_reports(&old, &new);
        assert!(deltas.is_empty());
        assert_eq!(notes.len(), 2);
        assert!(notes.iter().any(|n| n.contains("only in new run")));
        assert!(notes.iter().any(|n| n.contains("only in old run")));
    }

    /// Pins graceful degradation on *asymmetric suites*: when one run
    /// carries a whole bench group the other lacks (a fresh report with a
    /// newly added group diffed against an old baseline), the diff must
    /// still produce deltas for every common bench and one note per
    /// one-sided bench — never a panic, and never a silent drop.
    #[test]
    fn diff_survives_asymmetric_suites() {
        let old = parse_report(
            "{\"suite\": \"s\", \"results\": [\
             {\"group\": \"query_latency\", \"bench\": \"10\", \"p95_ns\": 100}]}",
        )
        .unwrap();
        let new = parse_report(
            "{\"suite\": \"s\", \"results\": [\
             {\"group\": \"query_latency\", \"bench\": \"10\", \"p95_ns\": 110},\
             {\"group\": \"planner\", \"bench\": \"planned/10\", \"p95_ns\": 90},\
             {\"group\": \"planner\", \"bench\": \"mem_seq/10\", \"p95_ns\": 95}]}",
        )
        .unwrap();
        let (deltas, notes) = diff_reports(&old, &new);
        assert_eq!(deltas.len(), 1, "common benches still diff");
        assert_eq!((deltas[0].old_p95_ns, deltas[0].new_p95_ns), (100, 110));
        assert_eq!(notes.len(), 2, "one note per one-sided bench");
        assert!(notes.iter().all(|n| n.contains("only in new run")));
        // And the mirror image — old baseline has the extra group.
        let (deltas, notes) = diff_reports(&new, &old);
        assert_eq!(deltas.len(), 1);
        assert_eq!(notes.len(), 2);
        assert!(notes.iter().all(|n| n.contains("only in old run")));
    }
}
