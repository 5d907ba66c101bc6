#!/usr/bin/env bash
# Tier-1 verify gate (see ROADMAP.md): hermetic release build + full test
# suite, strictly offline. The workspace has no external dependencies, so
# this must succeed from a clean checkout with an empty cargo registry.
#
# Opt-in soak lane: KNNTA_SOAK=1 ./scripts/verify.sh additionally re-runs
# the rtree / mvbt / core property harnesses at KNNTA_PROP_CASES=10000
# (override the case count by exporting KNNTA_PROP_CASES yourself), the
# backend and collective-batch differential oracles at their soak case
# counts, the snapshot-equivalence oracle (concurrent live
# ingestion vs frozen single-threaded replay) with many randomized
# writer/reader schedules, and the planner differential oracle (planned
# execution vs the in-memory, packed and paged backends forced in turn,
# bit-identical). The default
# fast path is unchanged and stays within the tier-1 budget.
# (`./scripts/soak.sh` wraps this lane for nightly cron, archiving failing
# seeds to soak_failures/.)
#
# Docs lane (always on): `cargo doc --no-deps` must be warning-clean
# (RUSTDOCFLAGS="-D warnings"), and the packed-image golden fixture
# (docs/FORMAT.md, tests/fixtures/packed_v2.golden) must match the writer
# byte-for-byte.
#
# Benchmark lane (always on): the traversal-work ledger
# (tests/fixtures/work_ledger.golden.txt) must be unchanged, the direct
# packer must reproduce build-then-pack byte for byte (tests/direct_pack.rs),
# crates/service must not name the pointer tree (shards are packed straight
# from their POIs) nor regrow the shard rebuild/retry path (a shard is
# immutable, so a worker panic fails only its own tile) nor run a shard's
# tile through `Executor::query` / `query_batch` (every shard execution goes
# through `query_tile`, which answers the tile one query at a time, each
# under its flush's bound for that query, so the shards answering one query
# prune against one shared f(p_k); the collective engine shares fetches,
# which saves no work on a packed shard), crates/obs must not
# regrow a second metrics registry or histogram core (a lifetime counter is a
# window that never rotates), the query surface must not regrow (at most seven
# `pub fn query*` in crates/core/src — `query` on TarIndex / SnapshotView /
# Executor / ScanBaseline, `Executor::query_batch`, `Executor::query_tile`,
# `query_with_disk_tias`; a forced configuration is a QueryPlan through
# `Executor::execute` / `execute_batch`), crates/core/src/{live,storage}.rs
# must not regrow a per-POI delta map `HashMap<PoiId, AggregateSeries>` (the
# overlay is slot-indexed cumulative columns; the work ledger's `overlay
# seq` row gates the read side), crates/core/src must not regrow a shared
# node-view enum (`NodeView` / `EntryIter` / `AggRef` / `ScopeBackend`,
# `struct EntryRef`) nor a string backend label `fn kind(` (each node source
# hands out its own view type, so every engine compiles per backend with no
# per-entry match), intra-query parallel search must not come back
# (`parallel_bfs` / `ExecMode` / `PlanMode::Parallel` / the
# `knnta.core.frontier.*` metrics: one query is one single-threaded
# traversal, the work-stealing one lost at every k), the buffer pool must not
# regrow a replacement-policy layer nor the packed image its page round trip
# (`PolicyKind` / `ReplacementPolicy` / `ClockPolicy` / `TwoQPolicy` /
# `make_policy` / `PackedPages` / `save_to_disk` / `load_from_disk` /
# `materialize_disk_tias_with`: every pool is the paper's LRU, and an image
# travels as one `to_bytes` buffer), the second index-file format must not
# come back (`KNNTAv1` / `save_to_vec` / `load_from_slice` / `persist::`:
# the packed image is the one index file, written by `knnta build` and read
# by every `--index` through `FrozenIndex::from_bytes`), and the stand-alone
# benchmark program (perfbench/, what BENCHMARK.json runs) must still build against
# the workspace crates and pass its own tests — the only guard that a
# deletion under crates/ did not break it.
#
# Opt-in bench-diff lane: KNNTA_BENCH_DIFF=<baseline_dir> runs the bench
# suites in smoke mode and fails tier-1 if any p95 regresses by more than
# 25% against the baseline's BENCH_*.json files (via the bench_diff binary),
# then gates the packed serving tier: packed/TAR-tree/{k} must beat
# query_latency/TAR-tree/{k} on median AND p95 (bench_diff --within
# --metric both, zero slack), and gates the cost-model planner:
# planner/planned/{k} p95 must stay within 1.15x of every fixed
# configuration (mem_seq / packed_seq / paged_seq), i.e. within 1.15x of
# the best one, measured on a dedicated 21-sample re-run of the queries
# suite.
#
# Opt-in service lane: KNNTA_SERVICE_CHECK=1 drives `knnta serve` (the
# async sharded query service) with a short seeded open-loop client,
# validates its admit/tile/scatter/merge trace via `knnta report --check`,
# and re-runs the service fault-injection suite and differential oracle
# under the soak wrapper (5x the default randomized cases).
#
# Opt-in observability lane: KNNTA_OBS_CHECK=1 runs a traced query + batch
# through the knnta CLI, validates both JSON artifacts against the
# knnta.trace.v1 / knnta.metrics.v1 schemas (failing on orphaned spans via
# `knnta report --check`), and gates the disabled-mode overhead:
# median(obs_overhead/disabled) <= median(obs_overhead/baseline) * 1.05
# in BENCH_queries.json via `bench_diff --within`.
#
# Opt-in SLO lane: KNNTA_SLO_CHECK=1 runs a seeded `knnta serve` that
# streams knnta.snapshot.v1 telemetry snapshots (--stats-out) and the
# sampled tail traces (--tail-out), checks the window quantiles against
# generous bounds with `knnta slo` (non-zero exit on violation), renders
# the snapshot via `knnta top`, validates the tail trace with
# `knnta report --check`, and gates the cost of the always-on window
# telemetry: median(service_obs/qps/telemetry_on) <=
# median(service_obs/qps/telemetry_off) * 1.05 in BENCH_service.json.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --workspace --offline

echo "== docs: rustdoc warning-clean + packed-format golden fixture =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace
cargo test -q --offline --test format_golden

echo "== benchmark: work ledger unchanged + direct pack + one query surface + perfbench builds and passes =="
cargo test -q --offline --test work_ledger
cargo test -q --offline --test direct_pack
if grep -rq TarIndex crates/service/src; then
    echo "crates/service/src names TarIndex: shards must stay image + metadata" >&2
    exit 1
fi
if grep -rqE 'rebuild|retry|generation' crates/service/src; then
    echo "crates/service/src regrew shard rebuild/retry: a worker panic fails only its own tile" >&2
    exit 1
fi
if grep -rnE '\.query(_batch)?\(' crates/service/src; then
    echo "crates/service/src runs a shard outside Executor::query_tile: every shard execution prunes against its flush's shared bounds" >&2
    exit 1
fi
if grep -rqE 'LiveWindows|MetricsRegistry|WindowHistogram|WindowCounter' crates/obs/src ||
    [ "$(grep -rhoE 'struct [A-Za-z]*HistCore' crates/obs/src | wc -l)" -gt 1 ]; then
    echo "crates/obs/src regrew a second metrics registry: every metric is one ring of epoch cells" >&2
    exit 1
fi
if [ "$(grep -rn 'pub fn query' crates/core/src | wc -l)" -gt 7 ] ||
    grep -rn 'SnapshotBackend\|query_parallel_on\|query_batch_collective' crates src examples tests; then
    echo "the query surface regrew: force a configuration with a QueryPlan through Executor" >&2
    exit 1
fi
if grep -n 'HashMap<PoiId, AggregateSeries>' crates/core/src/live.rs crates/core/src/storage.rs; then
    echo "the live overlay regrew a per-POI delta map: sealed deltas are slot-indexed cumulative columns" >&2
    exit 1
fi
if grep -rnE 'enum (NodeView|EntryIter|AggRef|ScopeBackend)|struct EntryRef|fn kind\(' crates/core/src; then
    echo "crates/core/src regrew a shared node-view enum: each NodeSource hands out its own View" >&2
    exit 1
fi
if grep -rnE 'parallel_bfs|ExecMode|PlanMode::Parallel|knnta\.core\.frontier\.' crates src tests examples; then
    echo "intra-query parallel search regrew: one query is one single-threaded traversal (DESIGN.md §8)" >&2
    exit 1
fi
if grep -rnE 'PolicyKind|ReplacementPolicy|ClockPolicy|TwoQPolicy|make_policy|PackedPages|save_to_disk|load_from_disk|materialize_disk_tias_with' crates src tests examples; then
    echo "a buffer replacement-policy layer or the packed page round trip regrew: every pool is LRU, an image is one to_bytes buffer" >&2
    exit 1
fi
if grep -rnE 'KNNTAv1|save_to_vec|load_from_slice|persist::' crates src tests examples; then
    echo "a second index-file format regrew: the packed image is the one index file (FrozenIndex::to_bytes / from_bytes)" >&2
    exit 1
fi
cargo test --release --offline --manifest-path perfbench/Cargo.toml

if [ "${KNNTA_SOAK:-0}" != "0" ] && [ -n "${KNNTA_SOAK:-}" ]; then
    export KNNTA_PROP_CASES="${KNNTA_PROP_CASES:-10000}"
    echo "== soak: property harnesses at KNNTA_PROP_CASES=${KNNTA_PROP_CASES} =="
    cargo test -q --release --offline -p rtree
    cargo test -q --release --offline -p mvbt
    cargo test -q --release --offline -p knnta-core
    echo "== soak: workspace properties + differential oracles =="
    cargo test -q --release --offline --test proptests
    cargo test -q --release --offline --test oracle_equivalence
    cargo test -q --release --offline --test batch_oracle
    echo "== soak: snapshot-equivalence oracle (randomized writer/reader schedules) =="
    cargo test -q --release --offline --test snapshot_oracle
    echo "== soak: planner differential oracle (planned vs every forced config) =="
    cargo test -q --release --offline --test planner_oracle
    echo "== soak: service oracle + fault suite (5x cases, sharded vs unsharded) =="
    # Each randomized case starts a whole service (threads + shard trees),
    # so the case count is 5x the in-repo default rather than the global
    # KNNTA_PROP_CASES soak figure; the deterministic sweeps scale their
    # query streams via KNNTA_SOAK themselves.
    KNNTA_PROP_CASES=30 cargo test -q --release --offline --test service_oracle
    # Tile membership depends on thread timing (admission flushes at once
    # while a worker is free), so one pass could hide a race: run 20.
    for _ in $(seq 20); do
        cargo test -q --release --offline --test service_faults
    done
fi

if [ -n "${KNNTA_BENCH_DIFF:-}" ]; then
    baseline="${KNNTA_BENCH_DIFF}"
    if [ ! -d "$baseline" ]; then
        echo "KNNTA_BENCH_DIFF: '$baseline' is not a directory" >&2
        exit 2
    fi
    fresh="$(mktemp -d)"
    trap 'rm -rf "$fresh"' EXIT
    echo "== bench-diff: smoke bench run vs ${baseline} (fail on >25% p95 regressions) =="
    KNNTA_BENCH_FAST=1 KNNTA_BENCH_DIR="$fresh" cargo bench --offline -p knnta-bench
    compared=0
    for base in "$baseline"/BENCH_*.json; do
        [ -e "$base" ] || continue
        name="$(basename "$base")"
        if [ -f "$fresh/$name" ]; then
            compared=$((compared + 1))
            cargo run -q --release --offline --bin bench_diff -- \
                "$base" "$fresh/$name" --threshold 0.25
        else
            echo "bench-diff: baseline $name has no fresh counterpart (skipped)"
        fi
    done
    if [ "$compared" = 0 ]; then
        echo "KNNTA_BENCH_DIFF: no comparable BENCH_*.json in $baseline" >&2
        exit 2
    fi
    echo "== bench-diff: collective-batch gap gate (hilbert <= individual + slack) =="
    cargo run -q --release --offline --bin bench_diff -- \
        --within "$fresh/BENCH_enhancements.json" \
        --assert-le batch/collective_hilbert/1000 batch/individual/1000 \
        --slack 0.25
    echo "== bench-diff: packed serving-tier gate (beats pointer-based on median + p95) =="
    for k in 1 10 100; do
        cargo run -q --release --offline --bin bench_diff -- \
            --within "$fresh/BENCH_queries.json" \
            --assert-le "packed/TAR-tree/$k" "query_latency/TAR-tree/$k" \
            --slack 0.0 --metric both
    done
    echo "== bench-diff: planner gate (planned p95 <= 1.15x every fixed config) =="
    # Being within 1.15x of *every* fixed configuration implies being within
    # 1.15x of the best one (the ISSUE acceptance bound). The smoke run above
    # takes 3 samples of ~1 iteration each, where p95 is just the max of
    # three noisy timings; re-run the queries suite at 21 samples with a
    # 25 ms sample target so each sample averages many iterations and p95 is
    # the 2nd-largest (one bad container sample cannot flip the gate).
    plandir="$(mktemp -d)"
    trap 'rm -rf "$fresh" "$plandir"' EXIT
    KNNTA_BENCH_FAST=1 KNNTA_BENCH_SAMPLES=21 KNNTA_BENCH_TARGET_MS=25 \
        KNNTA_BENCH_DIR="$plandir" \
        cargo bench --offline -p knnta-bench --bench queries
    for k in 1 10 100; do
        for cfg in mem_seq packed_seq paged_seq; do
            cargo run -q --release --offline --bin bench_diff -- \
                --within "$plandir/BENCH_queries.json" \
                --assert-le "planner/planned/$k" "planner/$cfg/$k" \
                --slack 0.15 --metric p95
        done
    done
    echo "== bench-diff: live-ingestion throughput floor (>= 1M check-ins/sec at 8 shards) =="
    # One iteration records 200k check-ins (see benches/ingestion.rs), so a
    # 200ms median ceiling is exactly the 1M check-ins/sec floor.
    cargo run -q --release --offline --bin bench_diff -- \
        --within "$fresh/BENCH_ingestion.json" \
        --assert-max ingestion/checkins/shards8 200000000
    echo "== bench-diff: service scaling gate (8 shards >= 2x the qps of 1 shard) =="
    # Both benches push the same 256-query burst, so "shards1 takes >= 2x
    # as long per iteration" is "shards8 sustains >= 2x the queries/sec at
    # equal offered work". The gate needs real parallel hardware: on fewer
    # than 8 cores the shard workers serialize onto the same CPUs and the
    # ratio physically cannot hold, so it is skipped (the ratio is still
    # printed for the record).
    cores="$(nproc 2>/dev/null || echo 1)"
    if [ "$cores" -ge 8 ]; then
        cargo run -q --release --offline --bin bench_diff -- \
            --within "$fresh/BENCH_service.json" \
            --assert-ratio-ge service/qps/shards1 service/qps/shards8 2.0
    else
        echo "service scaling gate skipped: $cores core(s) < 8 (ratio for the record:)"
        cargo run -q --release --offline --bin bench_diff -- \
            --within "$fresh/BENCH_service.json" \
            --assert-ratio-ge service/qps/shards1 service/qps/shards8 2.0 || true
    fi
fi

if [ "${KNNTA_OBS_CHECK:-0}" != "0" ] && [ -n "${KNNTA_OBS_CHECK:-}" ]; then
    obsdir="$(mktemp -d)"
    # (re-traps to also cover $fresh if the bench-diff lane ran above)
    trap 'rm -rf "$obsdir" "${fresh:-}" "${plandir:-}"' EXIT
    knnta="target/release/knnta"
    echo "== obs-check: traced query + batch, schema validation =="
    "$knnta" generate --dataset GS --out "$obsdir/gs.csv" --scale 0.004 --seed 20260704
    "$knnta" build --input "$obsdir/gs.csv" --out "$obsdir/gs.idx"
    "$knnta" query --index "$obsdir/gs.idx" --x 40 --y 55 --from-day 0 --to-day 63 \
        --k 5 --paged \
        --trace-out "$obsdir/query_trace.json" --metrics-out "$obsdir/query_metrics.json"
    printf '40,55,0,63,5\n10,20,7,28,3\n80,75,14,63,8\n' > "$obsdir/batch.csv"
    "$knnta" batch --index "$obsdir/gs.idx" --queries "$obsdir/batch.csv" \
        --trace-out "$obsdir/batch_trace.json" --metrics-out "$obsdir/batch_metrics.json"
    # --check fails on orphaned spans, escaped child intervals, or events
    # outside their span; the artifact writer already validated at emit time,
    # so this also proves the files round-trip through the parser.
    "$knnta" report "$obsdir/query_trace.json" --metrics "$obsdir/query_metrics.json" --check
    "$knnta" report "$obsdir/batch_trace.json" --metrics "$obsdir/batch_metrics.json" --check
    echo "== obs-check: disabled-mode overhead gate (<= baseline * 1.05) =="
    KNNTA_BENCH_FAST=1 KNNTA_BENCH_SAMPLES=21 KNNTA_BENCH_DIR="$obsdir" \
        cargo bench --offline -p knnta-bench --bench queries
    cargo run -q --release --offline --bin bench_diff -- \
        --within "$obsdir/BENCH_queries.json" \
        --assert-le obs_overhead/disabled obs_overhead/baseline \
        --slack 0.05
fi

if [ "${KNNTA_SERVICE_CHECK:-0}" != "0" ] && [ -n "${KNNTA_SERVICE_CHECK:-}" ]; then
    svcdir="$(mktemp -d)"
    trap 'rm -rf "$svcdir" "${obsdir:-}" "${fresh:-}" "${plandir:-}"' EXIT
    knnta="target/release/knnta"
    echo "== service-check: knnta serve under the seeded open-loop client =="
    # A short seeded run of the full service (streaming admission, 4 engine
    # shards x 2 workers, scatter-gather merge) with tracing on; report
    # --check validates the admit/tile/scatter/merge span structure and
    # fails on orphaned spans.
    "$knnta" serve --dataset GS --scale 0.004 --seed 20260704 \
        --shards 4 --workers 2 --max-batch 32 --max-delay-us 200 \
        --queries 400 --rate 4000 \
        --trace-out "$svcdir/serve_trace.json" --metrics-out "$svcdir/serve_metrics.json"
    "$knnta" report "$svcdir/serve_trace.json" --metrics "$svcdir/serve_metrics.json" --check
    echo "== service-check: fault-injection suite under the soak wrapper =="
    KNNTA_SOAK=1 cargo test -q --release --offline --test service_faults
    KNNTA_SOAK=1 KNNTA_PROP_CASES=30 cargo test -q --release --offline --test service_oracle
fi

if [ "${KNNTA_SLO_CHECK:-0}" != "0" ] && [ -n "${KNNTA_SLO_CHECK:-}" ]; then
    slodir="$(mktemp -d)"
    trap 'rm -rf "$slodir" "${svcdir:-}" "${obsdir:-}" "${fresh:-}" "${plandir:-}"' EXIT
    knnta="target/release/knnta"
    echo "== slo-check: seeded serve streaming telemetry snapshots =="
    "$knnta" serve --dataset GS --scale 0.004 --seed 20260704 \
        --shards 4 --workers 2 --max-batch 32 --max-delay-us 200 \
        --queries 400 --rate 4000 \
        --stats-out "$slodir/snapshot.json" --stats-interval-ms 50 \
        --tail-out "$slodir/tail.json"
    echo "== slo-check: window quantiles vs generous bounds (gate exit code) =="
    # 30 s bounds: far above anything a healthy run produces, so a failure
    # here means the telemetry itself (not the machine) is broken. The
    # violation path's non-zero exit is pinned by tests/slo_cli.rs.
    "$knnta" slo --snapshot "$slodir/snapshot.json" \
        --p95-us 30000000 --p99-us 30000000
    echo "== slo-check: snapshot rendering + tail-trace structure =="
    "$knnta" top "$slodir/snapshot.json"
    "$knnta" report "$slodir/tail.json" --check
    echo "== slo-check: always-on telemetry overhead gate (<= off * 1.05) =="
    KNNTA_BENCH_FAST=1 KNNTA_BENCH_SAMPLES=21 KNNTA_BENCH_DIR="$slodir" \
        cargo bench --offline -p knnta-bench --bench service
    cargo run -q --release --offline --bin bench_diff -- \
        --within "$slodir/BENCH_service.json" \
        --assert-le service_obs/qps/telemetry_on service_obs/qps/telemetry_off \
        --slack 0.05
fi
