//! `perf` — the layered kNNTA benchmark.
//!
//! One workload per process:
//!
//! ```text
//! perf --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! checks answers against the scan oracle, prints every metric by name with
//! its unit on stderr, and prints one JSON object as the last line of
//! stdout. `--trace 0` gives the end-to-end metrics (tracing off);
//! `--trace 1` repeats the workload with `Obs::enabled()` and the
//! benchmark's own span recorder on and gives the per-layer metrics.
//! `--self-check` is the A/A mode. See `perfbench/README.md`.

mod check;
mod engine;
mod inputs;
mod live;
mod report;
mod serve;
mod spans;
mod stats;

use inputs::RunCfg;
use knnta_util::json::JsonValue;
use report::{Ledger, END_TO_END, WORKLOADS};
use std::process::{Command, ExitCode};

const DEFAULT_SEED: u64 = 20_260_704;

fn run_workload(name: &str, cfg: &RunCfg) -> Option<Ledger> {
    Some(match name {
        "serve_hot" => serve::run(serve::Kind::Hot, cfg),
        "serve_heavy" => serve::run(serve::Kind::Heavy, cfg),
        "engine_single" => engine::run(cfg),
        "live_mixed" => live::run(cfg),
        _ => return None,
    })
}

struct Args {
    workload: Option<String>,
    cfg: RunCfg,
    self_check: bool,
    spread: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        cfg: RunCfg {
            seed: DEFAULT_SEED,
            seconds: 10.0,
            traced: false,
            quick: false,
            trace_out: None,
        },
        self_check: false,
        spread: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                args.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.cfg.seconds = s;
            }
            "--trace" => {
                args.cfg.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--traced" => args.cfg.traced = true,
            "--trace-out" => args.cfg.trace_out = Some(value()?.into()),
            "--quick" => args.cfg.quick = true,
            "--self-check" => args.self_check = true,
            "--spread" => args.spread = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.cfg.quick {
        args.cfg.seconds = args.cfg.seconds.min(1.5);
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            eprintln!(
                "usage: perf --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] | --self-check | --spread",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.self_check {
        return self_check(args.cfg.seconds);
    }
    if args.spread {
        return spread(args.workload.as_deref(), args.cfg.seed, args.cfg.seconds);
    }
    let Some(name) = args.workload else {
        eprintln!(
            "perf: --workload is required (one of {})",
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let before = report::cpu_ticks();
    let Some(mut ledger) = run_workload(&name, &args.cfg) else {
        eprintln!(
            "perf: unknown workload {name} (one of {})",
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if let (Some((all0, stolen0)), Some((all1, stolen1))) = (before, report::cpu_ticks()) {
        ledger.note(format!(
            "host: the hypervisor took {:.1}% of the CPU time during this run",
            100.0 * (stolen1 - stolen0) as f64 / (all1 - all0).max(1) as f64
        ));
    }
    if let Err(e) = ledger.finish(args.cfg.traced) {
        eprint!("{}", ledger.render(&name, args.cfg.seed, args.cfg.traced));
        eprintln!("perf: {e}");
        return ExitCode::FAILURE;
    }
    eprint!("{}", ledger.render(&name, args.cfg.seed, args.cfg.traced));
    println!("{}", ledger.to_json());
    ExitCode::SUCCESS
}

/// One child run's end-to-end metrics, or why there are none.
fn child(workload: &str, seed: u64, seconds: f64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!("exit {:?}\n{stderr}", out.status.code()));
    }
    if stderr.contains("INVALID") {
        return Err(format!("a phase is invalid\n{stderr}"));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = JsonValue::parse(stdout.lines().last().unwrap_or(""))?;
    if doc.get("correct").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!("answers are not correct\n{stderr}"));
    }
    let metrics = doc
        .get("metrics")
        .and_then(JsonValue::as_obj)
        .ok_or("no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

/// A/A: every workload twice on one seed and once on the next, each in its
/// own process (peak RSS is per process). Fails if a same-seed pair
/// disagrees by more than the metric's bound.
fn self_check(seconds: f64) -> ExitCode {
    let mut ok = true;
    for workload in WORKLOADS {
        let runs: Vec<_> = [DEFAULT_SEED, DEFAULT_SEED, DEFAULT_SEED + 1]
            .iter()
            .map(|&seed| child(workload, seed, seconds))
            .collect();
        let runs: Vec<Vec<(String, f64)>> = match runs.into_iter().collect() {
            Ok(r) => r,
            Err(e) => {
                println!("{workload}: FAILED: {e}");
                ok = false;
                continue;
            }
        };
        println!("{workload}");
        println!(
            "  {:<22} {:>14} {:>14} {:>8} {:>6}  {:>14}",
            "metric", "run 1", "run 2", "ratio", "bound", "other seed"
        );
        for spec in END_TO_END {
            let get = |r: &Vec<(String, f64)>| {
                r.iter()
                    .find(|(k, _)| k == spec.name)
                    .map_or(f64::NAN, |m| m.1)
            };
            let (a, b, c) = (get(&runs[0]), get(&runs[1]), get(&runs[2]));
            let ratio = b / a;
            let bound = spec.bound.unwrap_or(0.0);
            let worse = ratio.max(1.0 / ratio) - 1.0;
            let verdict = if worse <= bound { "" } else { "  DISAGREE" };
            ok &= worse <= bound;
            println!(
                "  {:<22} {a:>14.4} {b:>14.4} {ratio:>8.4} {bound:>6.2}  {c:>14.4}{verdict}",
                spec.name
            );
        }
    }
    if ok {
        println!("self-check: every same-seed pair agrees within its bound");
        ExitCode::SUCCESS
    } else {
        println!("self-check: FAILED");
        ExitCode::FAILURE
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method).
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The acceptance procedure for the benchmark itself: each workload (or
/// the one named) on ten seeds, and for each end-to-end metric the distance
/// between the first and third quartile as a share of the median, beside
/// the metric's bound. Fails if a spread other than `setup_s`'s exceeds its
/// bound; the aim is a third of the bound.
fn spread(only: Option<&str>, first_seed: u64, seconds: f64) -> ExitCode {
    let mut ok = true;
    for workload in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o == **w)) {
        let runs: Result<Vec<_>, _> = (0..10)
            .map(|i| child(workload, first_seed + i, seconds))
            .collect();
        let runs = match runs {
            Ok(r) => r,
            Err(e) => {
                println!("{workload}: FAILED: {e}");
                ok = false;
                continue;
            }
        };
        println!("{workload}");
        println!(
            "  {:<22} {:>14} {:>9} {:>6}  values",
            "metric", "median", "spread", "bound"
        );
        for spec in END_TO_END {
            let mut v: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.iter().find(|(k, _)| k == spec.name).map(|m| m.1))
                .collect();
            let shown: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            v.sort_by(f64::total_cmp);
            let (q1, q3) = quartiles(&v);
            let median = stats::percentile(&v, 0.5);
            let share = (q3 - q1) / median;
            let bound = spec.bound.unwrap_or(0.0);
            let verdict = if share <= bound / 3.0 {
                ""
            } else if share <= bound || spec.name == "setup_s" {
                "  above a third of the bound"
            } else {
                ok = false;
                "  ABOVE THE BOUND"
            };
            println!(
                "  {:<22} {median:>14.4} {share:>9.4} {bound:>6.2}  {}{verdict}",
                spec.name,
                shown.join(" ")
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::PER_LAYER;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), (1.25, 7.0));
    }

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        JsonValue::parse(&text).expect("BENCHMARK.json parses")
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(JsonValue::as_str)
                        .expect("unit")
                        .to_string(),
                    m.get("better")
                        .and_then(JsonValue::as_str)
                        .expect("better")
                        .to_string(),
                    m.get("bound").and_then(JsonValue::as_f64),
                )
            })
            .collect()
    }

    /// `BENCHMARK.json` and the binary's catalogue declare the same
    /// workloads and metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = benchmark_json();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let got = declared(&doc, key);
            let want: Vec<_> = specs
                .iter()
                .map(|s| {
                    (
                        s.name.to_string(),
                        s.unit.to_string(),
                        s.better.as_str().to_string(),
                        s.bound,
                    )
                })
                .collect();
            assert_eq!(got, want, "{key}");
            assert!(got.iter().all(|m| well_formed(&m.0)), "{key} names");
        }
        assert!(workloads.iter().all(|w| well_formed(w)));
        let paths = doc.get("paths").and_then(JsonValue::as_arr).expect("paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("perfbench"));
    }

    /// Every workload emits, on `--quick`, exactly the metrics the file
    /// declares: all end-to-end ones untraced, all per-layer ones traced.
    #[test]
    fn quick_runs_emit_exactly_the_declared_metrics() {
        let doc = benchmark_json();
        for workload in WORKLOADS {
            for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let cfg = RunCfg {
                    seed: DEFAULT_SEED,
                    seconds: 1.5,
                    traced,
                    quick: true,
                    trace_out: None,
                };
                let mut ledger = run_workload(workload, &cfg).expect("known workload");
                ledger
                    .finish(traced)
                    .unwrap_or_else(|e| panic!("{workload} {key}: {e}"));
                assert_eq!(ledger.failed(), 0, "{workload} {key}: failed operations");
                assert!(ledger.attempted() > 0);
                let line = ledger.to_json();
                let out = JsonValue::parse(&line).expect("result line parses");
                let emitted: Vec<&str> = out
                    .get("metrics")
                    .and_then(JsonValue::as_obj)
                    .expect("metrics")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                let mut want: Vec<String> = declared(&doc, key).into_iter().map(|m| m.0).collect();
                let mut got: Vec<String> = emitted.iter().map(|s| s.to_string()).collect();
                want.sort();
                got.sort();
                assert_eq!(got, want, "{workload} {key}");
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload serve_hot --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_hot"));
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.traced), (7, 3.0, true));
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }
}
