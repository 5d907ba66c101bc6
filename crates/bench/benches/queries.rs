//! Micro-benchmarks for kNNTA query processing: one benchmark group per
//! figure family (8–12), measuring wall-clock query latency per grouping
//! strategy (the CPU-time axis of the paper's plots).

use knnta_bench::{load, BenchConfig};
use knnta_core::{Executor, Grouping, IndexConfig, PlanBackend, QueryPlan};
use knnta_util::bench::Harness;
use std::hint::black_box;

fn bench_config() -> BenchConfig {
    BenchConfig {
        scale: 0.01,
        queries: 64,
        ..Default::default()
    }
}

/// Figures 8–9: query latency per grouping strategy and k.
fn grouping_and_k(h: &mut Harness) {
    let config = bench_config();
    let data = load(&lbsn::gw(), &config);
    let baseline = data.baseline();
    let mut group = h.group("query_latency");
    for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
        let index = data.index(grouping);
        for k in [1usize, 10, 100] {
            let queries = data.queries(config.queries, k, 0.3, config.seed);
            group.bench(format!("{grouping}/{k}"), |b| {
                b.iter(|| {
                    for q in &queries {
                        black_box(index.query(q));
                    }
                })
            });
        }
    }
    for k in [1usize, 10, 100] {
        let queries = data.queries(config.queries, k, 0.3, config.seed);
        group.bench(format!("baseline-scan/{k}"), |b| {
            b.iter(|| {
                for q in &queries {
                    black_box(baseline.query(q));
                }
            })
        });
    }
    group.finish();
}

/// Figure 10: latency against the weight α0 (TAR-tree only; the repro
/// binary covers the full comparison).
fn alpha_sweep(h: &mut Harness) {
    let config = bench_config();
    let data = load(&lbsn::gs(), &config);
    let index = data.index(Grouping::TarIntegral);
    let mut group = h.group("alpha0");
    for alpha0 in [0.1, 0.5, 0.9] {
        let queries = data.queries(config.queries, 10, alpha0, config.seed);
        group.bench(format!("{alpha0}"), |b| {
            b.iter(|| {
                for q in &queries {
                    black_box(index.query(q));
                }
            })
        });
    }
    group.finish();
}

/// Figure 12: latency against the node size.
fn node_size_sweep(h: &mut Harness) {
    let config = bench_config();
    let data = load(&lbsn::gs(), &config);
    let mut group = h.group("node_size");
    for node_size in [512usize, 1024, 4096] {
        let index = data.index_with(IndexConfig {
            grouping: Grouping::TarIntegral,
            node_size,
            forced_reinsert: true,
        });
        let queries = data.queries(config.queries, 10, 0.3, config.seed);
        group.bench(format!("{node_size}"), |b| {
            b.iter(|| {
                for q in &queries {
                    black_box(index.query(q));
                }
            })
        });
    }
    group.finish();
}

/// Packed immutable serving tier (DESIGN.md §12): the same workload as
/// `query_latency`, answered from the Hilbert-packed single-buffer image.
/// The `KNNTA_BENCH_DIFF` lane of `scripts/verify.sh` gates
/// `packed/TAR-tree/{k}` against `query_latency/TAR-tree/{k}` on median
/// *and* p95 via `bench_diff --within --metric both`: the packed tier has
/// to actually beat the pointer-based tree, or it has no reason to exist.
fn packed(h: &mut Harness) {
    let config = bench_config();
    let data = load(&lbsn::gw(), &config);
    let index = data.index(Grouping::TarIntegral);
    let packed = index.pack();
    let mut exec = Executor::new(&index).with_packed(&packed);
    let mut group = h.group("packed");
    for k in [1usize, 10, 100] {
        let queries = data.queries(config.queries, k, 0.3, config.seed);
        let plan = QueryPlan {
            backend: PlanBackend::Packed,
            ..exec.plan(&queries[0])
        };
        group.bench(format!("TAR-tree/{k}"), |b| {
            b.iter(|| {
                for q in &queries {
                    black_box(exec.execute(q, &plan));
                }
            })
        });
    }
    group.finish();
}

/// Cost-model planner (DESIGN.md §14): the planned execution against each
/// fixed configuration it chooses among, on the `query_latency` workload.
/// The `KNNTA_BENCH_DIFF` lane of `scripts/verify.sh` gates
/// `planner/planned/{k}` against every `planner/{cfg}/{k}` at p95 with 15%
/// slack: being within 1.15× of *every* fixed configuration implies being
/// within 1.15× of the best one, so a planner that picks a bad
/// configuration — or spends too long deciding — fails the build. The
/// planned numbers include the full planning cost: stats refresh, cost
/// estimation, and the calibration feedback after every query.
fn planner(h: &mut Harness) {
    let config = bench_config();
    let data = load(&lbsn::gw(), &config);
    let index = data.index(Grouping::TarIntegral);
    let packed = index.pack();
    let paged = index.materialize_paged_nodes(
        index.config_node_size(),
        pagestore::BufferPoolConfig::new(10, pagestore::PolicyKind::Lru),
    );
    const KS: [usize; 3] = [1, 10, 100];
    let queries_by_k: Vec<_> = KS
        .iter()
        .map(|&k| data.queries(config.queries, k, 0.3, config.seed))
        .collect();
    let attached = || Executor::new(&index).with_packed(&packed).with_paged(&paged);
    let mut execs: Vec<_> = KS.iter().map(|_| attached()).collect();
    // The fixed configurations: forced plans through an executor of their
    // own (`planned` holds its executor mutably for the feedback).
    let fixed = attached();
    // Interleaved (round-robin) sampling: planned and the fixed configs
    // share every round's machine state, so the gated p95 *ratios* stay
    // stable against bursty container noise.
    let (index, fixed) = (&index, &fixed);
    let mut group = h.interleaved_group("planner");
    for ((&k, queries), exec) in KS.iter().zip(&queries_by_k).zip(execs.iter_mut()) {
        // One plan outside the timed region: the stats extraction and
        // power-law fit are per-content-epoch costs, not per-query ones,
        // and a single cold sample would otherwise dominate the p95 the
        // gate reads.
        let plan = exec.plan(&queries[0]);
        let forced = |backend| QueryPlan { backend, ..plan };
        let (on_paged, on_packed) = (forced(PlanBackend::Paged), forced(PlanBackend::Packed));
        group.bench(format!("paged_seq/{k}"), move || {
            for q in queries {
                black_box(fixed.execute(q, &on_paged));
            }
        });
        group.bench(format!("mem_seq/{k}"), move || {
            for q in queries {
                black_box(index.query(q));
            }
        });
        group.bench(format!("packed_seq/{k}"), move || {
            for q in queries {
                black_box(fixed.execute(q, &on_packed));
            }
        });
        group.bench(format!("planned/{k}"), move || {
            for q in queries {
                black_box(exec.query(q));
            }
        });
    }
    group.finish();
}

/// Observability overhead guard: the same query mix on three indexes —
/// untouched (obs never set), obs explicitly disabled, and obs fully
/// enabled. The `KNNTA_OBS_CHECK` verify lane asserts
/// `median(disabled) <= median(baseline) * 1.05` via `bench_diff --within`,
/// pinning the disabled-mode cost to one branch per instrumentation site.
fn obs_overhead(h: &mut Harness) {
    let config = bench_config();
    let data = load(&lbsn::gs(), &config);
    let queries = data.queries(config.queries, 10, 0.3, config.seed);
    let mut group = h.group("obs_overhead");
    let baseline = data.index(Grouping::TarIntegral);
    group.bench("baseline", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(baseline.query(q));
            }
        })
    });
    let mut disabled = data.index(Grouping::TarIntegral);
    disabled.set_obs(knnta_core::Obs::disabled());
    group.bench("disabled", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(disabled.query(q));
            }
        })
    });
    let mut enabled = data.index(Grouping::TarIntegral);
    enabled.set_obs(knnta_core::Obs::enabled());
    group.bench("enabled", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(enabled.query(q));
            }
        });
        b.counters(enabled.obs().metrics_snapshot().counters);
    });
    group.finish();
}

/// Check-in digestion throughput (Section 4.2 maintenance).
fn ingest(h: &mut Harness) {
    let config = bench_config();
    let data = load(&lbsn::gs(), &config);
    let mut group = h.group("ingest_epoch");
    group.sample_size(20);
    let updates: Vec<(tempora::PoiId, u64)> = data
        .snapshot
        .iter()
        .step_by(7)
        .map(|(id, _, _)| (*id, 3u64))
        .collect();
    group.bench("batch", |b| {
        b.iter_batched(
            || data.index(Grouping::TarIntegral),
            |mut index| {
                index.ingest_epoch(black_box(0), black_box(&updates));
                index
            },
        )
    });
    group.finish();
}

fn main() {
    let mut h = Harness::new("queries");
    grouping_and_k(&mut h);
    packed(&mut h);
    planner(&mut h);
    alpha_sweep(&mut h);
    node_size_sweep(&mut h);
    obs_overhead(&mut h);
    ingest(&mut h);
    h.finish().expect("write BENCH_queries.json");
}
