//! End-to-end tests of the `knnta` command-line tool: generate → build →
//! stats/query/mwa/skyline, plus error handling.

mod common;

use std::path::PathBuf;
use std::process::Command;

fn knnta() -> Command {
    Command::new(env!("CARGO_BIN_EXE_knnta"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("knnta-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn full_pipeline() {
    let csv = tmp("venues.csv");
    let idx = tmp("city.idx");

    // generate
    let out = knnta()
        .args(["generate", "--dataset", "GS", "--scale", "0.003", "--seed", "5"])
        .args(["--out", csv.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let body = std::fs::read_to_string(&csv).unwrap();
    assert!(body.starts_with("id,x,y,epoch,count"));
    assert!(body.lines().count() > 100);

    // build
    let out = knnta()
        .args(["build", "--input", csv.to_str().unwrap()])
        .args(["--out", idx.to_str().unwrap(), "--grouping", "tar"])
        .output()
        .expect("run build");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(idx.exists());

    // stats
    let out = knnta()
        .args(["stats", "--index", idx.to_str().unwrap()])
        .output()
        .expect("run stats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("grouping:   TAR-tree"), "{text}");
    assert!(text.contains("epochs:"), "{text}");

    // query
    let out = knnta()
        .args(["query", "--index", idx.to_str().unwrap()])
        .args(["--x", "50", "--y", "50", "--from-day", "0", "--to-day", "180"])
        .args(["--k", "5", "--alpha0", "0.3"])
        .output()
        .expect("run query");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().count() >= 6, "5 hits + header: {text}");

    // The reference every other query configuration must match byte for
    // byte: hits, order and node-access count.
    let sequential = knnta()
        .args(["query", "--index", idx.to_str().unwrap()])
        .args(["--x", "50", "--y", "50", "--from-day", "0", "--to-day", "180"])
        .args(["--k", "25", "--alpha0", "0.3"])
        .output()
        .expect("run sequential query");
    assert!(sequential.status.success());

    // query --threads is gone (one query is one single-threaded traversal):
    // it is an unknown option now, rejected by name.
    let out = knnta()
        .args(["query", "--index", idx.to_str().unwrap()])
        .args(["--x", "50", "--y", "50", "--from-day", "0", "--to-day", "180"])
        .args(["--threads", "2"])
        .output()
        .expect("run query with --threads");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads"));

    // query --paged: answering from paged node storage must print
    // byte-identical hits.
    let out = knnta()
        .args(["query", "--index", idx.to_str().unwrap()])
        .args(["--x", "50", "--y", "50", "--from-day", "0", "--to-day", "180"])
        .args(["--k", "25", "--alpha0", "0.3"])
        .args(["--paged", "--buffer-slots", "6"])
        .output()
        .expect("run paged query");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&sequential.stdout),
        "--paged diverged"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("paged: 6 slots"), "{err}");
    assert!(err.contains("hit rate"), "{err}");

    // query --packed: the packed serving image must print byte-identical
    // hits.
    let out = knnta()
        .args(["query", "--index", idx.to_str().unwrap()])
        .args(["--x", "50", "--y", "50", "--from-day", "0", "--to-day", "180"])
        .args(["--k", "25", "--alpha0", "0.3"])
        .args(["--packed"])
        .output()
        .expect("run packed query");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&sequential.stdout),
        "--packed diverged"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("packed:"), "{err}");

    // --packed and --paged are mutually exclusive.
    let out = knnta()
        .args(["query", "--index", idx.to_str().unwrap()])
        .args(["--x", "50", "--y", "50", "--from-day", "0", "--to-day", "180"])
        .args(["--packed", "--paged"])
        .output()
        .expect("run packed+paged query");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));

    // --buffer-slots only makes sense with --paged.
    let out = knnta()
        .args(["query", "--index", idx.to_str().unwrap()])
        .args(["--x", "50", "--y", "50", "--from-day", "0", "--to-day", "180"])
        .args(["--buffer-slots", "6"])
        .output()
        .expect("run buffer-slots-without-paged query");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--paged"));

    // --policy is gone (every buffer pool is LRU): it is an unknown option
    // now, rejected by name.
    let out = knnta()
        .args(["query", "--index", idx.to_str().unwrap()])
        .args(["--x", "50", "--y", "50", "--from-day", "0", "--to-day", "180"])
        .args(["--paged", "--policy", "clock"])
        .output()
        .expect("run query with --policy");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--policy"));

    // mwa
    let out = knnta()
        .args(["mwa", "--index", idx.to_str().unwrap()])
        .args(["--x", "50", "--y", "50", "--from-day", "0", "--to-day", "180"])
        .args(["--k", "3", "--alpha0", "0.5"])
        .output()
        .expect("run mwa");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("alpha0") || text.contains("no weight change"), "{text}");

    // skyline
    let out = knnta()
        .args(["skyline", "--index", idx.to_str().unwrap()])
        .args(["--x", "50", "--y", "50", "--from-day", "0", "--to-day", "180"])
        .output()
        .expect("run skyline");
    assert!(out.status.success());

    // skyline into a pipe nobody reads any more (`knnta skyline … | head`
    // once head has exited): a quiet exit 0, not a BrokenPipe panic.
    let (reader, writer) = std::io::pipe().expect("create pipe");
    drop(reader);
    let out = knnta()
        .args(["skyline", "--index", idx.to_str().unwrap()])
        .args(["--x", "50", "--y", "50", "--from-day", "0", "--to-day", "180"])
        .stdout(writer)
        .output()
        .expect("run skyline into a closed pipe");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    let _ = std::fs::remove_file(csv);
    let _ = std::fs::remove_file(idx);
}

#[test]
fn helpful_errors() {
    // No command.
    let out = knnta().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("commands:"));

    // Unknown command.
    let out = knnta().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());

    // Missing required options.
    let out = knnta().args(["query", "--x", "1"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--index"));

    // Bad dataset.
    let out = knnta()
        .args(["generate", "--dataset", "MARS", "--out", "/tmp/x"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset"));

    // Nonexistent index file.
    let out = knnta()
        .args(["stats", "--index", "/definitely/not/here.idx"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Bad alpha0.
    let csv = tmp("venues2.csv");
    let idx = tmp("city2.idx");
    knnta()
        .args(["generate", "--dataset", "LA", "--scale", "0.002", "--out"])
        .arg(csv.to_str().unwrap())
        .output()
        .unwrap();
    knnta()
        .args(["build", "--input", csv.to_str().unwrap(), "--out"])
        .arg(idx.to_str().unwrap())
        .output()
        .unwrap();
    let out = knnta()
        .args(["query", "--index", idx.to_str().unwrap()])
        .args(["--x", "0", "--y", "0", "--from-day", "0", "--to-day", "7"])
        .args(["--alpha0", "1.5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("alpha0"));
    let bad_argument = out.status.code();

    // A non-finite query point is a bad argument like any other, not a
    // panic inside the index.
    for (x, y, named) in [("nan", "5", "--x"), ("5", "inf", "--y"), ("-inf", "nan", "--x")] {
        let out = knnta()
            .args(["query", "--index", idx.to_str().unwrap()])
            .args(["--x", x, "--y", y, "--from-day", "0", "--to-day", "7"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), bad_argument, "{stderr}");
        assert!(stderr.contains(&format!("{named} must be finite")), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }

    // Numbers a library assert or an overflow would reject are one-line
    // errors, exit 1: a dataset scale outside (0, 1], an epoch shorter than
    // a day, a day whose timestamp overflows (option or batch CSV field).
    let queries = tmp("queries2.csv");
    std::fs::write(&queries, "5,5,-9223372036854775808,0\n").unwrap();
    let index = idx.to_str().unwrap();
    let point = ["--x", "5", "--y", "5", "--from-day", "0"];
    for (args, needle) in [
        (&["generate", "--dataset", "GS", "--scale", "0"][..], "--scale must lie in"),
        (&["generate", "--dataset", "GS", "--scale", "-1"], "--scale must lie in"),
        (&["generate", "--dataset", "GS", "--scale", "nan"], "--scale must lie in"),
        (&["generate", "--dataset", "GS", "--epoch-days", "0"], "--epoch-days must lie in"),
        (&["query", "--index", index, "--to-day", "200000000000000"], "--to-day: day"),
        (&["batch", "--index", index, "--queries", queries.to_str().unwrap()], ":1: day"),
    ] {
        let mut cmd = knnta();
        cmd.args(args);
        if args[0] == "generate" {
            cmd.args(["--out", tmp("never.csv").to_str().unwrap()]);
        } else if args[0] == "query" {
            cmd.args(point);
        }
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end().lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(csv);
    let _ = std::fs::remove_file(idx);
    let _ = std::fs::remove_file(queries);
}

#[test]
fn bench_diff_flags_regressions_and_exits_nonzero() {
    let bench_diff = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_bench_diff"))
            .args(args)
            .output()
            .expect("run bench_diff")
    };
    let report = |p95_a: u64, p95_b: u64| {
        format!(
            "{{\"suite\": \"queries\", \"samples\": 10, \"results\": [\n\
             {{\"group\": \"parallel_single\", \"bench\": \"sequential\", \"p95_ns\": {p95_a}}},\n\
             {{\"group\": \"parallel_single\", \"bench\": \"threads/4\", \"p95_ns\": {p95_b}}}]}}\n"
        )
    };
    let old = tmp("bench-old.json");
    let new = tmp("bench-new.json");
    std::fs::write(&old, report(1000, 1000)).unwrap();

    // Within noise: exit 0.
    std::fs::write(&new, report(1100, 900)).unwrap();
    let out = bench_diff(&[old.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 regression(s)"));

    // A 2x p95 regression: exit 1 and name the bench.
    std::fs::write(&new, report(1000, 2000)).unwrap();
    let out = bench_diff(&[old.to_str().unwrap(), new.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("REGRESSION"), "{text}");
    assert!(text.contains("threads/4"), "{text}");

    // A loose threshold lets the same diff pass.
    let out = bench_diff(&[
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--threshold",
        "1.5",
    ]);
    assert!(out.status.success());

    // Usage and parse errors: exit 2.
    assert_eq!(bench_diff(&[]).status.code(), Some(2));
    let garbage = tmp("bench-garbage.json");
    std::fs::write(&garbage, "not json").unwrap();
    let out = bench_diff(&[garbage.to_str().unwrap(), new.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));

    for f in [&old, &new, &garbage] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn batch_command_is_mode_invariant() {
    let csv = tmp("venues4.csv");
    let idx = tmp("city4.idx");
    let queries = tmp("batch-queries.csv");
    let out = knnta()
        .args(["generate", "--dataset", "GS", "--scale", "0.003", "--seed", "5"])
        .args(["--out", csv.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = knnta()
        .args(["build", "--input", csv.to_str().unwrap()])
        .args(["--out", idx.to_str().unwrap(), "--grouping", "tar"])
        .output()
        .expect("run build");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Header + comment + defaults (k, alpha0 omitted) + a duplicate + k=0.
    std::fs::write(
        &queries,
        "x,y,from_day,to_day,k,alpha0\n\
         # near the centre, recent month\n\
         50,50,150,180,5,0.3\n\
         50,50,150,180,5,0.3\n\
         10,80,0,180\n\
         70,20,60,120,0\n\
         30,30,0,30,3,0.7\n",
    )
    .unwrap();

    // The collective scheme must print byte-identical per-query results in
    // every configuration — orderings, paged and packed storage — and match
    // the one-at-a-time reference.
    let reference = knnta()
        .args(["batch", "--index", idx.to_str().unwrap()])
        .args(["--queries", queries.to_str().unwrap(), "--individual"])
        .output()
        .expect("run individual batch");
    assert!(
        reference.status.success(),
        "{}",
        String::from_utf8_lossy(&reference.stderr)
    );
    let want = String::from_utf8_lossy(&reference.stdout);
    assert!(want.contains("query 0: 5 hit(s)"), "{want}");
    assert!(want.contains("query 3: 0 hit(s)"), "{want}");
    let variants: [&[&str]; 3] = [
        &[],
        &["--batch-order", "hilbert"],
        &["--batch-order", "input"],
    ];
    for extra in variants {
        let out = knnta()
            .args(["batch", "--index", idx.to_str().unwrap()])
            .args(["--queries", queries.to_str().unwrap()])
            .args(extra)
            .output()
            .expect("run collective batch");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            want,
            "collective {extra:?} diverged from individual"
        );
    }
    let out = knnta()
        .args(["batch", "--index", idx.to_str().unwrap()])
        .args(["--queries", queries.to_str().unwrap()])
        .args(["--paged", "--buffer-slots", "6"])
        .output()
        .expect("run paged batch");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        want,
        "--paged batch diverged"
    );
    let out = knnta()
        .args(["batch", "--index", idx.to_str().unwrap()])
        .args(["--queries", queries.to_str().unwrap()])
        .args(["--packed"])
        .output()
        .expect("run packed batch");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        want,
        "--packed batch diverged"
    );

    // Unknown orderings are rejected.
    let out = knnta()
        .args(["batch", "--index", idx.to_str().unwrap()])
        .args(["--queries", queries.to_str().unwrap()])
        .args(["--batch-order", "zorder"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--batch-order"));

    // Options the sub-command does not read — a removed flag, a typo — are
    // usage errors naming the option, never silently ignored.
    for (extra, named) in [
        (&["--no-agg-cache"][..], "--no-agg-cache"),
        (&["--batch-ordr", "input"][..], "--batch-ordr"),
    ] {
        let out = knnta()
            .args(["batch", "--index", idx.to_str().unwrap()])
            .args(["--queries", queries.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{extra:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown option {named}")), "{stderr}");
    }

    // Malformed rows are rejected with the offending line.
    let bad = tmp("batch-bad.csv");
    std::fs::write(&bad, "50,50,180,150\n").unwrap();
    let out = knnta()
        .args(["batch", "--index", idx.to_str().unwrap()])
        .args(["--queries", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("from_day"));
    std::fs::write(&bad, "50,50,0,30,5,1.5\n").unwrap();
    let out = knnta()
        .args(["batch", "--index", idx.to_str().unwrap()])
        .args(["--queries", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("alpha0"));
    let bad_row = out.status.code();
    // A non-finite coordinate is a bad field on its line, not a panic.
    for row in ["50,50,0,30\nnan,50,0,30\n", "50,50,0,30\n50,inf,0,30,5\n"] {
        std::fs::write(&bad, row).unwrap();
        let out = knnta()
            .args(["batch", "--index", idx.to_str().unwrap()])
            .args(["--queries", bad.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), bad_row, "{stderr}");
        assert!(stderr.contains(":2: bad field"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }

    for f in [&csv, &idx, &queries, &bad] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn bench_diff_within_gates_batch_invariants() {
    let bench_diff = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_bench_diff"))
            .args(args)
            .output()
            .expect("run bench_diff")
    };
    let report = |hilbert: u64, individual: u64| {
        format!(
            "{{\"suite\": \"enhancements\", \"samples\": 10, \"results\": [\n\
             {{\"group\": \"batch\", \"bench\": \"collective_hilbert/1000\", \"median_ns\": {hilbert}}},\n\
             {{\"group\": \"batch\", \"bench\": \"individual/1000\", \"median_ns\": {individual}}}]}}\n"
        )
    };
    let path = tmp("bench-within.json");
    let assert_le = [
        "--assert-le",
        "batch/collective_hilbert/1000",
        "batch/individual/1000",
    ];

    // Collective faster than individual: the gate passes.
    std::fs::write(&path, report(800, 1000)).unwrap();
    let out = bench_diff(&[&["--within", path.to_str().unwrap()], &assert_le[..]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));

    // Collective slower beyond the slack: exit 1.
    std::fs::write(&path, report(1500, 1000)).unwrap();
    let out = bench_diff(&[&["--within", path.to_str().unwrap()], &assert_le[..]].concat());
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("VIOLATED"));

    // A looser slack lets the same report pass.
    let out = bench_diff(
        &[
            &["--within", path.to_str().unwrap()],
            &assert_le[..],
            &["--slack", "0.6"],
        ]
        .concat(),
    );
    assert!(out.status.success());

    // Missing benches and missing --assert-le: exit 2.
    let out = bench_diff(&[
        "--within",
        path.to_str().unwrap(),
        "--assert-le",
        "batch/nonexistent",
        "batch/individual/1000",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let out = bench_diff(&["--within", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_file(path);
}

#[test]
fn build_rejects_too_small_epoch_count() {
    let csv = tmp("venues3.csv");
    std::fs::write(&csv, "id,x,y,epoch,count\n0,1.0,1.0,5,3\n1,2.0,2.0,-1,0\n").unwrap();
    let idx = tmp("city3.idx");
    let out = knnta()
        .args(["build", "--input", csv.to_str().unwrap()])
        .args(["--out", idx.to_str().unwrap(), "--epochs", "3"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("too small"));
    let _ = std::fs::remove_file(csv);
}

#[test]
fn build_rejects_numbers_the_index_cannot_hold() {
    let csv = tmp("venues5.csv");
    std::fs::write(&csv, "id,x,y,epoch,count\n0,1.0,1.0,5,3\n1,2.0,2.0,-1,0\n").unwrap();
    let idx = tmp("city5.idx");
    for (args, needle) in [
        (&["--node-size", "8"][..], "--node-size: node size 8 too small"),
        (&["--epoch-days", "0"], "--epoch-days must lie in"),
        (&["--epoch-days", "-3"], "--epoch-days must lie in"),
        (&["--epochs", "100000000000"], "an index holds at most"),
        (&["--epochs", "1000", "--epoch-days", "100000000000000"], "the grid would end past day"),
    ] {
        let out = knnta()
            .args(["build", "--input", csv.to_str().unwrap()])
            .args(["--out", idx.to_str().unwrap()])
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end().lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
    assert!(!idx.exists(), "a rejected build writes no file");
    let _ = std::fs::remove_file(csv);
}

#[test]
fn build_rejects_sparse_ids_and_non_finite_positions() {
    let csv = tmp("venues-bad.csv");
    let idx = tmp("city-bad.idx");
    for (rows, needle) in [
        (
            "0,1.0,1.0,0,3\n4294967280,2.0,2.0,0,1\n",
            "venue id 4294967280",
        ),
        ("0,1.0,1.0,0,3\n1,nan,2.0,0,1\n", "bad field `nan`"),
        ("0,1.0,inf,0,3\n", "bad field `inf`"),
        (
            "0,1.0,1.0,-5,3\n1,2.0,2.0,0,4\n",
            "venue 0: 3 check-ins in negative epoch -5",
        ),
        (
            "0,1.0,1.0,0,18446744073709551615\n0,1.0,1.0,0,2\n",
            "venue 0: the check-ins of epoch 0 sum past u64::MAX",
        ),
        (
            "0,1.0,1.0,0,9223372036854775808\n1,2.0,2.0,1,9223372036854775808\n",
            "over all venues sum past u64::MAX",
        ),
    ] {
        std::fs::write(&csv, format!("id,x,y,epoch,count\n{rows}")).unwrap();
        let out = knnta()
            .args(["build", "--input", csv.to_str().unwrap()])
            .args(["--out", idx.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{needle}: {stderr}");
        assert!(stderr.contains(needle), "{needle}: {stderr}");
    }
    let _ = std::fs::remove_file(csv);
    let _ = std::fs::remove_file(idx);
}

#[test]
fn forged_index_files_are_rejected_without_a_panic() {
    let csv = tmp("forged-venues.csv");
    let idx = tmp("forged-city.idx");
    knnta()
        .args(["generate", "--dataset", "GW", "--scale", "0.002", "--out"])
        .arg(csv.to_str().unwrap())
        .output()
        .unwrap();
    let out = knnta()
        .args(["build", "--input", csv.to_str().unwrap(), "--out"])
        .arg(idx.to_str().unwrap())
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let full = std::fs::read(&idx).unwrap();

    let forged = tmp("forged.idx");
    for (name, bytes, field) in common::forged_index_files(&full) {
        std::fs::write(&forged, bytes).unwrap();
        let out = knnta()
            .args(["stats", "--index", forged.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        // A panic exits 101 and an allocation abort dies by signal (no code).
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert_eq!(stderr.trim_end().lines().count(), 1, "{name}: {stderr}");
        assert!(stderr.contains(field), "{name}: {stderr}");
    }
    let _ = std::fs::remove_file(csv);
    let _ = std::fs::remove_file(idx);
    let _ = std::fs::remove_file(forged);
}
