//! Micro-benchmarks for the Section 7 enhancements (Figures 13–16) and
//! the cost model / power-law machinery (Table 2, Figures 6–7).

use knnta_bench::{aggregates_over, load, BenchConfig};
use knnta_core::{BatchOrder, Executor, Grouping, KnntaQuery, PlanBackend, QueryPlan};
use knnta_util::bench::Harness;
use std::hint::black_box;

fn bench_config() -> BenchConfig {
    BenchConfig {
        scale: 0.01,
        queries: 16,
        ..Default::default()
    }
}

/// Figures 13–14: minimum weight adjustment, pruning vs enumerating.
fn mwa(h: &mut Harness) {
    let config = bench_config();
    let data = load(&lbsn::gs(), &config);
    let index = data.index(Grouping::TarIntegral);
    let mut group = h.group("mwa");
    group.sample_size(10);
    for k in [10usize, 100] {
        let queries = data.queries(4, k, 0.3, config.seed);
        group.bench(format!("pruning/{k}"), |b| {
            b.iter(|| {
                for q in &queries {
                    black_box(index.mwa_pruning(q));
                }
            })
        });
        group.bench(format!("enumerating/{k}"), |b| {
            b.iter(|| {
                for q in &queries {
                    black_box(index.mwa_enumerating(q));
                }
            })
        });
    }
    group.finish();
}

/// Figures 15–16: collective vs individual batch processing. The
/// `collective_hilbert` series is the full scheme; `collective_naive` tiles
/// the batch in input order to isolate the Hilbert ordering's contribution.
fn collective(h: &mut Harness) {
    let config = bench_config();
    let data = load(&lbsn::gs(), &config);
    let index = data.index(Grouping::TarIntegral);
    let mut group = h.group("batch");
    group.sample_size(10);
    for count in [100usize, 1000] {
        let queries: Vec<KnntaQuery> = data
            .workload(count, config.seed)
            .with_interval_types(10)
            .queries
            .iter()
            .map(|&(p, iv)| KnntaQuery::new(p, iv).with_k(10).with_alpha0(0.3))
            .collect();
        // The arena under the fixed 64-query tile, so the two orders differ
        // in nothing but the order.
        let mut exec = Executor::new(&index);
        let plan = QueryPlan {
            backend: PlanBackend::InMemory,
            tile: 64,
            ..exec.plan_batch(&queries)
        };
        for (name, order) in [
            ("collective_hilbert", BatchOrder::Hilbert),
            ("collective_naive", BatchOrder::Input),
        ] {
            group.bench(format!("{name}/{count}"), |b| {
                b.iter(|| black_box(exec.execute_batch(&queries, &plan, order)))
            });
        }
        group.bench(format!("individual/{count}"), |b| {
            b.iter(|| black_box(queries.iter().map(|q| index.query(q)).collect::<Vec<_>>()))
        });
    }
    group.finish();
}

/// Table 2 machinery: CSN power-law fitting.
fn powerlaw_fit(h: &mut Harness) {
    let config = bench_config();
    let data = load(&lbsn::gs(), &config);
    let totals = data.dataset.totals();
    h.bench_function("powerlaw_fit", |b| {
        b.iter(|| black_box(lbsn::fit_power_law(black_box(&totals), 50)))
    });
}

/// Figures 6–7 machinery: the cost model estimate.
fn cost_model(h: &mut Harness) {
    let config = bench_config();
    let data = load(&lbsn::gs(), &config);
    let baseline = data.baseline();
    let tc = data.dataset.grid.tc();
    let interval = tempora::TimeInterval::new(tc - 64 * tempora::Timestamp::DAY, tc);
    let aggs = aggregates_over(&baseline, interval);
    h.bench_function("cost_model_estimate", |b| {
        b.iter(|| {
            let model = costmodel::CostModel::from_aggregates(
                black_box(&aggs),
                0.3,
                10,
                costmodel::effective_fanout(36),
            )
            .expect("model");
            black_box(model.estimate())
        })
    });
}

fn main() {
    let mut h = Harness::new("enhancements");
    mwa(&mut h);
    collective(&mut h);
    powerlaw_fit(&mut h);
    cost_model(&mut h);
    h.finish().expect("write BENCH_enhancements.json");
}
