//! `engine_single`: no service, one thread — what a library user and the
//! paper's §8 (CPU time, node accesses per query) see.
//!
//! The untraced run builds and packs the index, then answers the §8 query
//! distribution one query at a time through the planner. The traced run
//! adds forced-plan phases per backend, a 64-query collective tile phase,
//! direct-call micro-phases for the small layers, and a planned phase under
//! `Obs::enabled()`. Single-threaded, so its counts repeat exactly.

use crate::check::{mismatches, Sampler};
use crate::inputs::{hot_stream, uniform_stream, Data, RunCfg};
use crate::report::{peak_rss_mb, Ledger};
use crate::spans::{Recorder, SpanRef};
use crate::stats::{
    mean, percentile_of, slice_median, sliced_percentile, sliced_rate, Sample, SLICES,
};
use knnta_core::{
    merge_ranked, partition_pois, Executor, IndexConfig, KnntaQuery, Obs, PackedTarTree,
    PlanBackend, PlanMode, Poi, QueryHit, QueryPlan, ScanBaseline, TarIndex,
};
use pagestore::BufferPoolConfig;
use std::hint::black_box;
use std::time::Instant;
use tempora::AggregateSeries;

const K: usize = 10;
/// Queries of the fixed-length passes that produce the exact counts.
const COUNT_QUERIES: usize = 2_000;
const TILE: usize = 64;
/// Oracle-checked answers kept per phase.
const CHECK_CAP: usize = 768;

fn build(data: &Data, pois: &[(Poi, AggregateSeries)]) -> (TarIndex, PackedTarTree, f64, f64) {
    let t = Instant::now();
    let index = TarIndex::build(
        IndexConfig::default(),
        data.lbsn.grid.clone(),
        data.bounds,
        pois.iter().cloned(),
    );
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let packed = index.pack();
    (index, packed, build_s, t.elapsed().as_secs_f64())
}

/// A closed loop of one: `answer` one query after another for `seconds`,
/// each timed call → return. Returns the samples (placed at their
/// completion time) and the oracle sample.
fn one_at_a_time(
    stream: &[KnntaQuery],
    first: usize,
    seconds: f64,
    mut sampler: Sampler<Vec<QueryHit>>,
    mut answer: impl FnMut(usize, &KnntaQuery) -> Vec<QueryHit>,
) -> (Vec<Sample>, Vec<(usize, Vec<QueryHit>)>) {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut i = 0usize;
    loop {
        let q = &stream[(first + i) % stream.len()];
        let t = Instant::now();
        let hits = answer(i, q);
        let end = Instant::now();
        let at_s = (end - start).as_secs_f64();
        samples.push(Sample {
            at_s,
            us: (end - t).as_secs_f64() * 1e6,
        });
        if sampler.wants(i) {
            sampler.keep((first + i) % stream.len(), hits);
        }
        i += 1;
        if at_s >= seconds {
            return (samples, sampler.into_kept());
        }
    }
}

fn book(
    name: &str,
    attempted: usize,
    kept: &[(usize, Vec<QueryHit>)],
    stream: &[KnntaQuery],
    oracle: &ScanBaseline,
    ledger: &mut Ledger,
) {
    let wrong = mismatches(
        oracle,
        kept.iter().map(|(i, hits)| (&stream[*i], hits.as_slice())),
    );
    ledger.ops(name, attempted as u64, wrong);
}

pub fn run(cfg: &RunCfg) -> Ledger {
    let data = Data::generate("GW", 0.02, 7, cfg);
    let pois = data.pois();
    let stream = uniform_stream(&data, 1 << 15, K, cfg.seed);
    let mut ledger = Ledger::default();
    if cfg.traced {
        traced(cfg, &data, &pois, &stream, &mut ledger);
    } else {
        untraced(cfg, &data, &pois, &stream, &mut ledger);
    }
    ledger
}

fn untraced(
    cfg: &RunCfg,
    data: &Data,
    pois: &[(Poi, AggregateSeries)],
    stream: &[KnntaQuery],
    ledger: &mut Ledger,
) {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..3 {
        drop(built.take());
        let (index, packed, build_s, pack_s) = build(data, pois);
        setups.push(build_s + pack_s);
        built = Some((index, packed));
    }
    let (index, packed) = built.expect("built above");
    ledger.set_sliced("setup_s", slice_median(&setups));
    ledger.set(
        "image_bytes_per_poi",
        packed.byte_len() as f64 / pois.len() as f64,
    );

    let mut exec = Executor::new(&index).with_packed(&packed);
    let warm = COUNT_QUERIES.min(stream.len());
    for q in &stream[..warm] {
        black_box(exec.query(q));
    }
    // `--quick` is small enough to check every answer of the planned phase.
    let sampler = if cfg.quick {
        Sampler::all()
    } else {
        Sampler::new(cfg.seed, CHECK_CAP)
    };
    let (samples, kept) = one_at_a_time(stream, warm, cfg.seconds, sampler, |_, q| exec.query(q));
    ledger.set_sliced(
        "p50_us",
        sliced_percentile(&samples, cfg.seconds, SLICES, 0.50),
    );
    ledger.set_sliced(
        "p95_us",
        sliced_percentile(&samples, cfg.seconds, SLICES, 0.95),
    );
    ledger.set_sliced("peak_qps", sliced_rate(&samples, cfg.seconds, SLICES));

    let oracle = ScanBaseline::build(data.lbsn.grid.clone(), data.bounds, pois.iter().cloned());
    book(
        "planned, one at a time",
        samples.len(),
        &kept,
        stream,
        &oracle,
        ledger,
    );
    ledger.set("peak_rss_mb", peak_rss_mb());
}

/// The planner's plan for `q` with the backend overridden, and run
/// sequentially so the cost is the single-thread kernel's.
fn forced_plan(exec: &mut Executor<'_>, q: &KnntaQuery, backend: PlanBackend) -> QueryPlan {
    let mut plan = exec.plan(q);
    plan.backend = backend;
    plan.mode = PlanMode::Sequential;
    plan
}

/// A fixed-length pass: `queries` once each under a forced plan. The exact
/// counts come from the counters around such passes, not from the timed
/// loops, so they do not depend on how far a phase got.
fn count_pass(exec: &mut Executor<'_>, queries: &[KnntaQuery], backend: PlanBackend) {
    let plan = forced_plan(exec, &queries[0], backend);
    for q in queries {
        black_box(exec.execute(q, &plan));
    }
}

/// A forced-plan phase: plan, override the backend, execute; each half
/// timed. Returns the median execute time in ns.
fn forced(
    name: &str,
    exec: &mut Executor<'_>,
    stream: &[KnntaQuery],
    backend: PlanBackend,
    k: usize,
    seconds: f64,
    ledger: &mut Ledger,
) -> f64 {
    let (mut plan_ns, mut exec_ns) = (Vec::new(), Vec::new());
    let (samples, _) = one_at_a_time(stream, 0, seconds, Sampler::new(0, 1), |_, q| {
        let q = q.with_k(k);
        let t = Instant::now();
        let plan = forced_plan(exec, &q, backend);
        let mid = Instant::now();
        let hits = exec.execute(&q, &plan);
        let end = Instant::now();
        plan_ns.push((mid - t).as_nanos() as f64);
        exec_ns.push((end - mid).as_nanos() as f64);
        hits
    });
    let total = mean(&samples.iter().map(|s| s.us * 1e3).collect::<Vec<_>>());
    let (plan, execute) = (mean(&plan_ns), mean(&exec_ns));
    ledger.note(format!(
        "residual {name}: mean query {total:.0} ns = plan {plan:.0} + execute {execute:.0} + residual {:.0}  ({} queries)",
        total - plan - execute,
        samples.len()
    ));
    percentile_of(&mut exec_ns, 0.5)
}

fn traced(
    cfg: &RunCfg,
    data: &Data,
    pois: &[(Poi, AggregateSeries)],
    stream: &[KnntaQuery],
    ledger: &mut Ledger,
) {
    let s = cfg.seconds;
    ledger.set("lbsn.generate_s", data.generate_s);
    let (mut index, packed, build_s, pack_s) = build(data, pois);
    ledger.set("index.build_s", build_s);
    ledger.set("packed.pack_ms", pack_s * 1e3);
    ledger.set(
        "packed.bytes_per_poi",
        packed.byte_len() as f64 / pois.len() as f64,
    );
    let count_qs = &stream[..COUNT_QUERIES.min(stream.len())];
    let n = count_qs.len() as f64;

    // core.storage + pagestore: a pool holding a tenth of the pages, so the
    // working set is larger than the cache (packed and in-memory fit).
    let page_size = index.config_node_size();
    let pages = index
        .materialize_paged_nodes(page_size, BufferPoolConfig::lru(1))
        .page_count();
    let t = Instant::now();
    let paged =
        index.materialize_paged_nodes(page_size, BufferPoolConfig::lru((pages / 10).max(1)));
    ledger.set("paged.materialize_ms", t.elapsed().as_secs_f64() * 1e3);

    let mut exec = Executor::new(&index)
        .with_packed(&packed)
        .with_paged(&paged);
    for q in count_qs {
        black_box(exec.query(q));
    }

    // Planned phase, untraced: the reference for the tracing overhead.
    let (plain, plain_kept) = one_at_a_time(
        stream,
        count_qs.len(),
        0.15 * s,
        Sampler::new(cfg.seed, CHECK_CAP),
        |_, q| exec.query(q),
    );
    let plain_qps = sliced_rate(&plain, 0.15 * s, SLICES).median;

    for (metric, name, backend, k) in [
        ("packed.k1_ns", "packed k=1", PlanBackend::Packed, 1),
        ("packed.k10_ns", "packed k=10", PlanBackend::Packed, 10),
        ("packed.k100_ns", "packed k=100", PlanBackend::Packed, 100),
        ("index.k10_ns", "in-memory k=10", PlanBackend::InMemory, 10),
        ("paged.k10_ns", "paged k=10", PlanBackend::Paged, 10),
    ] {
        let ns = forced(name, &mut exec, stream, backend, k, 0.07 * s, ledger);
        ledger.set(metric, ns);
    }

    // Exact counts: fixed-length passes over the same queries.
    let before = index.stats().snapshot();
    count_pass(&mut exec, count_qs, PlanBackend::InMemory);
    let mem = index.stats().snapshot().since(before);
    ledger.set(
        "index.node_accesses_per_query",
        mem.node_accesses as f64 / n,
    );
    ledger.set(
        "index.leaf_accesses_per_query",
        mem.leaf_node_accesses as f64 / n,
    );
    paged.cool_down();
    count_pass(&mut exec, count_qs, PlanBackend::Paged);
    let io = paged.io_snapshot();
    ledger.set("paged.page_reads_per_query", io.page_reads as f64 / n);
    ledger.set(
        "paged.hit_share",
        100.0 * io.buffer_hits as f64 / (io.buffer_hits + io.buffer_misses).max(1) as f64,
    );

    // core.plan: the planner's choice, its fixed tax, and its estimate
    // against the measured node accesses.
    let (mut ratios, mut packed_plans) = (Vec::new(), 0usize);
    for q in count_qs {
        let plan = exec.plan(q);
        packed_plans += usize::from(plan.backend == PlanBackend::Packed);
        let before = index.stats().snapshot().node_accesses;
        black_box(exec.execute(q, &plan));
        let measured = index.stats().snapshot().node_accesses - before;
        if plan.model_node_accesses > 0.0 {
            ratios.push(measured as f64 / plan.model_node_accesses);
        }
    }
    ledger.set("plan.calibration_ratio", percentile_of(&mut ratios, 0.5));
    ledger.set("plan.packed_share", 100.0 * packed_plans as f64 / n);
    let t = Instant::now();
    for _ in 0..10 {
        for q in count_qs {
            black_box(exec.plan(black_box(q)));
        }
    }
    ledger.set("plan.plan_ns", t.elapsed().as_nanos() as f64 / (10.0 * n));

    // core.collective: 64-query tiles of the hot stream, against the same
    // queries answered one by one.
    let hot = hot_stream(data, TILE * 256, K, cfg.seed);
    let tile_s = 0.07 * s;
    let (start, mut tiles) = (Instant::now(), 0usize);
    while start.elapsed().as_secs_f64() < tile_s {
        let at = (tiles * TILE) % hot.len();
        black_box(exec.query_batch(&hot[at..at + TILE]));
        tiles += 1;
    }
    ledger.set(
        "collective.tile64_ns_per_query",
        start.elapsed().as_nanos() as f64 / (tiles * TILE) as f64,
    );
    let count_tiles = &hot[..(COUNT_QUERIES / TILE * TILE).min(hot.len())];
    let before = index.stats().snapshot().node_accesses;
    for tile in count_tiles.chunks(TILE) {
        black_box(exec.query_batch(tile));
    }
    let together = index.stats().snapshot().node_accesses - before;
    let before = index.stats().snapshot().node_accesses;
    for q in count_tiles {
        black_box(exec.query(q));
    }
    let alone = index.stats().snapshot().node_accesses - before;
    ledger.set(
        "collective.node_accesses_per_query",
        together as f64 / count_tiles.len() as f64,
    );
    ledger.set(
        "collective.sharing_ratio",
        alone as f64 / together.max(1) as f64,
    );

    // The small layers, called directly.
    let answers: Vec<Vec<QueryHit>> = count_qs.iter().map(|q| exec.query(q)).collect();
    let halves: Vec<[Vec<QueryHit>; 2]> = answers
        .iter()
        .map(|hits| {
            let (a, b): (Vec<_>, Vec<_>) = hits.iter().enumerate().partition(|(i, _)| i % 2 == 0);
            [
                a.into_iter().map(|(_, h)| *h).collect(),
                b.into_iter().map(|(_, h)| *h).collect(),
            ]
        })
        .collect();
    let t = Instant::now();
    for lists in &halves {
        black_box(merge_ranked(black_box(lists), K));
    }
    ledger.set("shard.merge_ranked_ns", t.elapsed().as_nanos() as f64 / n);
    let positions: Vec<Poi> = pois.iter().map(|(p, _)| *p).collect();
    let t = Instant::now();
    black_box(partition_pois(&positions, &data.bounds, 2));
    ledger.set("shard.partition_ms", t.elapsed().as_secs_f64() * 1e3);
    let grid = &data.lbsn.grid;
    let t = Instant::now();
    let mut calls = 0u64;
    for (i, q) in count_qs.iter().enumerate() {
        for (_, series) in pois.iter().skip(i % 7).step_by(97) {
            black_box(series.aggregate_over(grid, black_box(q.interval)));
            calls += 1;
        }
    }
    ledger.set(
        "tempora.aggregate_over_ns",
        t.elapsed().as_nanos() as f64 / calls.max(1) as f64,
    );
    let (mut to_ms, mut from_ms) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let bytes = packed.to_bytes();
        to_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        black_box(PackedTarTree::from_bytes(&bytes).expect("own image parses"));
        from_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    ledger.set_sliced("packed.to_bytes_ms", slice_median(&to_ms));
    ledger.set_sliced("packed.from_bytes_ms", slice_median(&from_ms));

    // The planned phase again under Obs::enabled(), with the benchmark's
    // spans around plan and execute: counters for the layers below the
    // executor, and the tracing overhead.
    drop(exec);
    drop(paged);
    let obs = Obs::enabled();
    index.set_obs(obs.clone());
    let mut exec = Executor::new(&index).with_packed(&packed);
    let counter = |name: &str| obs.metrics_snapshot().counter(name).unwrap_or(0);
    // A packed image counts its node reads only on instrumented paths; the
    // in-memory walk is the one whose frontier and TIA scans the program
    // counts (the packed walk reports neither).
    let fetches0 = packed.fetches();
    count_pass(&mut exec, count_qs, PlanBackend::Packed);
    ledger.set(
        "packed.fetches_per_query",
        (packed.fetches() - fetches0) as f64 / n,
    );
    let counters0 = (
        counter("knnta.core.search.heap_pushes"),
        counter("knnta.core.search.heap_pops"),
        counter("knnta.tempora.series.epochs_scanned"),
    );
    count_pass(&mut exec, count_qs, PlanBackend::InMemory);
    ledger.set(
        "frontier.heap_pushes_per_query",
        (counter("knnta.core.search.heap_pushes") - counters0.0) as f64 / n,
    );
    ledger.set(
        "frontier.heap_pops_per_query",
        (counter("knnta.core.search.heap_pops") - counters0.1) as f64 / n,
    );
    ledger.set(
        "tempora.epochs_scanned_per_query",
        (counter("knnta.tempora.series.epochs_scanned") - counters0.2) as f64 / n,
    );
    let (hits0, misses0) = (
        counter("knnta.core.agg_cache.hits"),
        counter("knnta.core.agg_cache.misses"),
    );
    for tile in count_tiles.chunks(TILE) {
        black_box(exec.query_batch(tile));
    }
    let (hits, misses) = (
        counter("knnta.core.agg_cache.hits") - hits0,
        counter("knnta.core.agg_cache.misses") - misses0,
    );
    ledger.set(
        "agg_cache.hit_share",
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
    );

    let mut rec = Recorder::new(true, Instant::now());
    let first = count_qs.len() + plain.len();
    let (spanned, spanned_kept) = one_at_a_time(
        stream,
        first,
        0.15 * s,
        Sampler::new(cfg.seed, CHECK_CAP),
        |i, q| {
            let t0 = Instant::now();
            let root = rec.add("engine.query", i as u64, SpanRef::NONE, t0, t0);
            let plan = rec.time("engine.plan", i as u64, root, || exec.plan(q));
            let hits = rec.time("engine.execute", i as u64, root, || exec.execute(q, &plan));
            rec.close(root, Instant::now());
            hits
        },
    );
    let spanned_qps = sliced_rate(&spanned, 0.15 * s, SLICES).median;
    ledger.set(
        "trace.overhead_share",
        100.0 * (1.0 - spanned_qps / plain_qps.max(f64::MIN_POSITIVE)),
    );

    let oracle = ScanBaseline::build(data.lbsn.grid.clone(), data.bounds, pois.iter().cloned());
    book(
        "planned, untraced",
        plain.len(),
        &plain_kept,
        stream,
        &oracle,
        ledger,
    );
    book(
        "planned, traced",
        spanned.len(),
        &spanned_kept,
        stream,
        &oracle,
        ledger,
    );
    rec.report(cfg.trace_out.as_deref(), ledger);
}
