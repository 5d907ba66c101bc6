//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run -p knnta-bench --release --bin repro -- all
//! cargo run -p knnta-bench --release --bin repro -- table2 fig9 fig13 \
//!     [--scale 0.05] [--queries 500] [--seed 7] [--dataset GW,GS] [--boot 50]
//! ```
//!
//! Each experiment prints the same rows/series the paper reports; see
//! EXPERIMENTS.md for the recorded paper-vs-measured comparison.

use costmodel::{effective_fanout, estimate_support_area, CostModel};
use knnta_bench::{
    aggregates_over, fmt, load, measure_baseline, measure_index, BenchConfig, BenchData, Table,
};
use knnta_core::{
    BatchOrder, Executor, Grouping, IndexConfig, KnntaQuery, PlanBackend, QueryPlan,
};
use lbsn::DatasetSpec;
use knnta_util::rng::StdRng;
use std::time::Instant;
use tempora::{TimeInterval, Timestamp};

const ALL_EXPERIMENTS: &[&str] = &[
    "table2", "table4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "fig16", "ablation",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiments: Vec<String> = Vec::new();
    let mut config = BenchConfig::default();
    let mut datasets = vec!["GW".to_string(), "GS".to_string()];

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                config.scale = args[i].parse().expect("--scale takes a float");
            }
            "--queries" => {
                i += 1;
                config.queries = args[i].parse().expect("--queries takes a count");
            }
            "--seed" => {
                i += 1;
                config.seed = args[i].parse().expect("--seed takes an integer");
            }
            "--boot" => {
                i += 1;
                config.bootstrap = args[i].parse().expect("--boot takes a count");
            }
            "--dataset" => {
                i += 1;
                datasets = args[i].split(',').map(|s| s.to_uppercase()).collect();
            }
            "all" => experiments.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            exp if ALL_EXPERIMENTS.contains(&exp) => experiments.push(exp.to_string()),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("experiments: {}", ALL_EXPERIMENTS.join(" "));
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if experiments.is_empty() {
        eprintln!("usage: repro <experiment|all> [...options]");
        eprintln!("experiments: {}", ALL_EXPERIMENTS.join(" "));
        std::process::exit(2);
    }

    let specs: Vec<DatasetSpec> = datasets
        .iter()
        .map(|name| lbsn::spec_by_name(name).unwrap_or_else(|| panic!("unknown dataset {name}")))
        .collect();

    for exp in &experiments {
        let t0 = Instant::now();
        match exp.as_str() {
            "table2" => table2(&config),
            "table4" => table4(&config),
            "fig6" => {
                for spec in &specs {
                    fig6(spec, &config);
                }
            }
            "fig7" => {
                for spec in &specs {
                    fig7(spec, &config);
                }
            }
            "fig8" => {
                for spec in &specs {
                    fig8(spec, &config);
                }
            }
            "fig9" => {
                for spec in &specs {
                    fig9(spec, &config);
                }
            }
            "fig10" => {
                for spec in &specs {
                    fig10(spec, &config);
                }
            }
            "fig11" => {
                for spec in &specs {
                    fig11(spec, &config);
                }
            }
            "fig12" => {
                for spec in &specs {
                    fig12(spec, &config);
                }
            }
            "fig13" => {
                for spec in &specs {
                    fig13(spec, &config);
                }
            }
            "fig14" => {
                for spec in &specs {
                    fig14(spec, &config);
                }
            }
            "fig15" => {
                for spec in &specs {
                    fig15(spec, &config);
                }
            }
            "fig16" => {
                for spec in &specs {
                    fig16(spec, &config);
                }
            }
            "ablation" => {
                for spec in &specs {
                    ablation(spec, &config);
                }
            }
            _ => unreachable!(),
        }
        eprintln!("[{exp} took {:.1?}]\n", t0.elapsed());
    }
}

/// Table 2: power-law fitting of the aggregate data.
fn table2(config: &BenchConfig) {
    println!("== Table 2: power-law fitting (CSN method) on the synthetic datasets ==");
    println!("(paper values: NYC β̂=3.20 x̂min=31 p=0.68 | LA 3.07/16/0.18 | GW 2.82/85/0.29 | GS 2.19/59/0.21)\n");
    let mut table = Table::new(&["data", "n", "beta_hat", "xmin_hat", "p-value"]);
    let mut rng = StdRng::seed_from_u64(config.seed);
    for spec in lbsn::all_specs() {
        let data = load(&spec, config);
        let totals = data.dataset.totals();
        let fit = lbsn::fit_power_law(&totals, 50).expect("fit");
        let p = lbsn::goodness_of_fit(&totals, &fit, config.bootstrap, &mut rng);
        table.row(vec![
            spec.name.into(),
            totals.len().to_string(),
            format!("{:.2}", fit.beta),
            fit.xmin.to_string(),
            format!("{p:.2}"),
        ]);
    }
    table.print();
}

/// Table 4: dataset statistics (scaled).
fn table4(config: &BenchConfig) {
    println!("== Table 4: datasets (scaled synthetic reproduction) ==\n");
    let mut table = Table::new(&[
        "name", "scale", "locations", "check-ins", "days", "epochs", "paper locations", "paper check-ins",
    ]);
    for spec in lbsn::all_specs() {
        let data = load(&spec, config);
        table.row(vec![
            spec.name.into(),
            format!("{:.3}", config.scale_for(&spec)),
            data.dataset.len().to_string(),
            data.dataset.total_checkins().to_string(),
            spec.days.to_string(),
            data.dataset.grid.len().to_string(),
            spec.locations.to_string(),
            spec.checkins.to_string(),
        ]);
    }
    table.print();
}

/// The cost-model estimate for a mixed-interval workload: per interval
/// length, fit the aggregates and estimate, then average weighted by the
/// workload's frequency of that length.
fn model_estimates(
    data: &BenchData,
    queries: &[KnntaQuery],
    alpha0: f64,
    k: usize,
    support: f64,
) -> (f64, f64) {
    use std::collections::HashMap;
    let baseline = data.baseline();
    let fanout = effective_fanout(rtree::RTreeParams::for_node_size(1024, 3).max_entries);
    let mut by_len: HashMap<i64, usize> = HashMap::new();
    for q in queries {
        *by_len.entry(q.interval.duration()).or_insert(0) += 1;
    }
    let (mut fpk_sum, mut na_sum, mut weight) = (0.0, 0.0, 0usize);
    for (len, count) in by_len {
        let tc = data.dataset.grid.tc();
        let iv = TimeInterval::new(tc - len, tc);
        let aggs = aggregates_over(&baseline, iv);
        if let Some(model) = CostModel::from_aggregates(&aggs, alpha0, k, fanout) {
            let est = model.with_support_area(support).estimate();
            fpk_sum += est.fpk * count as f64;
            na_sum += est.node_accesses * count as f64;
            weight += count;
        }
        // Intervals too short to cover an epoch have no layers; the
        // measured side also has f(pk) ≈ α1 there. Skip them, as the
        // paper's analysis does (it assumes a populated power law).
    }
    if weight == 0 {
        (0.0, 0.0)
    } else {
        (fpk_sum / weight as f64, na_sum / weight as f64)
    }
}

/// Figure 6: cost-analysis validation by varying k.
fn fig6(spec: &DatasetSpec, config: &BenchConfig) {
    println!("== Figure 6: cost analysis validation, varying k ({}) ==\n", spec.name);
    let data = load(spec, config);
    let index = data.index(Grouping::TarIntegral);
    let support = estimate_support_area(&data.dataset.positions, data.dataset.bounds);
    let mut table = Table::new(&[
        "k",
        "f(pk) measured",
        "f(pk) estimated",
        "leaf NA measured",
        "leaf NA estimated",
    ]);
    for k in [1usize, 5, 10, 50, 100] {
        let queries = data.queries(config.queries, k, 0.3, config.seed + k as u64);
        let m = measure_index(&index, &queries);
        let (est_fpk, est_na) = model_estimates(&data, &queries, 0.3, k, support);
        table.row(vec![
            k.to_string(),
            fmt(m.fpk),
            fmt(est_fpk),
            fmt(m.leaf_accesses),
            fmt(est_na),
        ]);
    }
    table.print();
}

/// Figure 7: cost-analysis validation by varying α0.
fn fig7(spec: &DatasetSpec, config: &BenchConfig) {
    println!("== Figure 7: cost analysis validation, varying α0 ({}) ==\n", spec.name);
    let data = load(spec, config);
    let index = data.index(Grouping::TarIntegral);
    let support = estimate_support_area(&data.dataset.positions, data.dataset.bounds);
    let mut table = Table::new(&[
        "alpha0",
        "f(pk) measured",
        "f(pk) estimated",
        "leaf NA measured",
        "leaf NA estimated",
    ]);
    for alpha0 in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let queries = data.queries(config.queries, 10, alpha0, config.seed + 71);
        let m = measure_index(&index, &queries);
        let (est_fpk, est_na) = model_estimates(&data, &queries, alpha0, 10, support);
        table.row(vec![
            format!("{alpha0:.1}"),
            fmt(m.fpk),
            fmt(est_fpk),
            fmt(m.leaf_accesses),
            fmt(est_na),
        ]);
    }
    table.print();
}

/// Runs the four approaches over one query set.
fn compare_approaches(
    data: &BenchData,
    indexes: &[(&str, &knnta_core::TarIndex)],
    queries: &[KnntaQuery],
    table: &mut Table,
    label: String,
) {
    let baseline = data.baseline();
    let mb = measure_baseline(&baseline, queries);
    let mut cells = vec![label, fmt(mb.cpu_ms)];
    let mut nas = Vec::new();
    for (_, index) in indexes {
        let m = measure_index(index, queries);
        cells.push(fmt(m.cpu_ms));
        nas.push(fmt(m.node_accesses));
    }
    cells.extend(nas);
    table.row(cells);
}

fn approaches_header() -> [&'static str; 8] {
    [
        "x",
        "baseline ms",
        "IND-agg ms",
        "IND-spa ms",
        "TAR ms",
        "IND-agg NA",
        "IND-spa NA",
        "TAR NA",
    ]
}

/// Figure 8: growth of the LBSN (snapshots at 20%..100% of time).
fn fig8(spec: &DatasetSpec, config: &BenchConfig) {
    println!("== Figure 8: LBSN growth, snapshots of the time span ({}) ==\n", spec.name);
    let data = load(spec, config);
    let mut table = Table::new(&approaches_header());
    for pct in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let agg = data.index_at_fraction(Grouping::IndAgg, pct);
        let spa = data.index_at_fraction(Grouping::IndSpa, pct);
        let tar = data.index_at_fraction(Grouping::TarIntegral, pct);
        // Queries whose intervals lie inside the snapshot's time prefix.
        let tc_days = (data.dataset.grid.tc().days() as f64 * pct) as i64;
        let queries: Vec<KnntaQuery> = data
            .queries(config.queries, 10, 0.3, config.seed + (pct * 10.0) as u64)
            .into_iter()
            .map(|mut q| {
                let len = q.interval.duration().min(tc_days * Timestamp::DAY);
                let end = Timestamp::from_days(tc_days);
                q.interval = TimeInterval::new(end - len, end);
                q
            })
            .collect();
        let indexes = [("IND-agg", &agg), ("IND-spa", &spa), ("TAR", &tar)];
        compare_approaches(&data, &indexes, &queries, &mut table, format!("{:.0}%", pct * 100.0));
    }
    table.print();
}

/// Figure 9: varying k.
fn fig9(spec: &DatasetSpec, config: &BenchConfig) {
    println!("== Figure 9: varying k ({}) ==\n", spec.name);
    let data = load(spec, config);
    let agg = data.index(Grouping::IndAgg);
    let spa = data.index(Grouping::IndSpa);
    let tar = data.index(Grouping::TarIntegral);
    let indexes = [("IND-agg", &agg), ("IND-spa", &spa), ("TAR", &tar)];
    let mut table = Table::new(&approaches_header());
    for k in [1usize, 5, 10, 50, 100] {
        let queries = data.queries(config.queries, k, 0.3, config.seed + 900 + k as u64);
        compare_approaches(&data, &indexes, &queries, &mut table, format!("k={k}"));
    }
    table.print();
}

/// Figure 10: varying α0.
fn fig10(spec: &DatasetSpec, config: &BenchConfig) {
    println!("== Figure 10: varying α0 ({}) ==\n", spec.name);
    let data = load(spec, config);
    let agg = data.index(Grouping::IndAgg);
    let spa = data.index(Grouping::IndSpa);
    let tar = data.index(Grouping::TarIntegral);
    let indexes = [("IND-agg", &agg), ("IND-spa", &spa), ("TAR", &tar)];
    let mut table = Table::new(&approaches_header());
    for alpha0 in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let queries = data.queries(config.queries, 10, alpha0, config.seed + 1000);
        compare_approaches(&data, &indexes, &queries, &mut table, format!("a0={alpha0:.1}"));
    }
    table.print();
}

/// Figure 11: varying the epoch length (regenerates the dataset per length).
fn fig11(spec: &DatasetSpec, config: &BenchConfig) {
    println!("== Figure 11: varying the epoch length ({}) ==\n", spec.name);
    let mut table = Table::new(&approaches_header());
    for epoch_days in [1i64, 3, 7, 14, 28] {
        let cfg = BenchConfig {
            epoch_days,
            ..*config
        };
        let data = load(spec, &cfg);
        let agg = data.index(Grouping::IndAgg);
        let spa = data.index(Grouping::IndSpa);
        let tar = data.index(Grouping::TarIntegral);
        let indexes = [("IND-agg", &agg), ("IND-spa", &spa), ("TAR", &tar)];
        let queries = data.queries(config.queries, 10, 0.3, config.seed + 1100);
        compare_approaches(&data, &indexes, &queries, &mut table, format!("{epoch_days}d"));
    }
    table.print();
}

/// Figure 12: varying the R-tree node size.
fn fig12(spec: &DatasetSpec, config: &BenchConfig) {
    println!("== Figure 12: varying the node size ({}) ==\n", spec.name);
    let data = load(spec, config);
    let mut table = Table::new(&approaches_header());
    for node_size in [512usize, 1024, 2048, 4096, 8192] {
        let mk = |grouping| {
            data.index_with(IndexConfig {
                grouping,
                node_size,
                forced_reinsert: true,
            })
        };
        let agg = mk(Grouping::IndAgg);
        let spa = mk(Grouping::IndSpa);
        let tar = mk(Grouping::TarIntegral);
        let indexes = [("IND-agg", &agg), ("IND-spa", &spa), ("TAR", &tar)];
        let queries = data.queries(config.queries, 10, 0.3, config.seed + 1200);
        compare_approaches(&data, &indexes, &queries, &mut table, format!("{node_size}B"));
    }
    table.print();
}

/// Figure 13: MWA algorithms, varying k.
fn fig13(spec: &DatasetSpec, config: &BenchConfig) {
    println!("== Figure 13: computing the MWA, varying k ({}) ==\n", spec.name);
    let data = load(spec, config);
    let index = data.index(Grouping::TarIntegral);
    let mut table = Table::new(&[
        "k",
        "enumerating ms",
        "pruning ms",
        "enumerating NA",
        "pruning NA",
    ]);
    // The enumerating baseline is O(k · full traversals): keep the query
    // count small, exactly like the paper's trimmed MWA workload.
    let n_queries = (config.queries / 20).clamp(5, 25);
    for k in [10usize, 50, 100, 500, 1000] {
        let queries = data.queries(n_queries, k, 0.3, config.seed + 1300 + k as u64);
        index.stats().reset();
        let t0 = Instant::now();
        for q in &queries {
            let _ = index.mwa_enumerating(q);
        }
        let enum_ms = t0.elapsed().as_secs_f64() * 1e3 / queries.len() as f64;
        let enum_na = index.stats().node_accesses() as f64 / queries.len() as f64;
        index.stats().reset();
        let t0 = Instant::now();
        for q in &queries {
            let _ = index.mwa_pruning(q);
        }
        let prune_ms = t0.elapsed().as_secs_f64() * 1e3 / queries.len() as f64;
        let prune_na = index.stats().node_accesses() as f64 / queries.len() as f64;
        table.row(vec![
            k.to_string(),
            fmt(enum_ms),
            fmt(prune_ms),
            fmt(enum_na),
            fmt(prune_na),
        ]);
    }
    table.print();
}

/// Figure 14: MWA algorithms, varying α0.
fn fig14(spec: &DatasetSpec, config: &BenchConfig) {
    println!("== Figure 14: computing the MWA, varying α0 ({}) ==\n", spec.name);
    let data = load(spec, config);
    let index = data.index(Grouping::TarIntegral);
    let mut table = Table::new(&[
        "alpha0",
        "enumerating ms",
        "pruning ms",
        "enumerating NA",
        "pruning NA",
    ]);
    let n_queries = (config.queries / 10).clamp(5, 50);
    for alpha0 in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let queries = data.queries(n_queries, 10, alpha0, config.seed + 1400);
        index.stats().reset();
        let t0 = Instant::now();
        for q in &queries {
            let _ = index.mwa_enumerating(q);
        }
        let enum_ms = t0.elapsed().as_secs_f64() * 1e3 / queries.len() as f64;
        let enum_na = index.stats().node_accesses() as f64 / queries.len() as f64;
        index.stats().reset();
        let t0 = Instant::now();
        for q in &queries {
            let _ = index.mwa_pruning(q);
        }
        let prune_ms = t0.elapsed().as_secs_f64() * 1e3 / queries.len() as f64;
        let prune_na = index.stats().node_accesses() as f64 / queries.len() as f64;
        table.row(vec![
            format!("{alpha0:.1}"),
            fmt(enum_ms),
            fmt(prune_ms),
            fmt(enum_na),
            fmt(prune_na),
        ]);
    }
    table.print();
}

/// The collective scheme as Figures 15–16 run it: the arena, 64-query tiles
/// (the planner would size the tile to the batch).
fn section_7_2_plan(exec: &mut Executor<'_>, queries: &[KnntaQuery]) -> QueryPlan {
    QueryPlan {
        backend: PlanBackend::InMemory,
        tile: 64,
        ..exec.plan_batch(queries)
    }
}

/// Figure 15: collective processing, varying the number of queries.
fn fig15(spec: &DatasetSpec, config: &BenchConfig) {
    println!("== Figure 15: collective processing, varying #queries ({}) ==\n", spec.name);
    let data = load(spec, config);
    let index = data.index(Grouping::TarIntegral);
    let mut table = Table::new(&[
        "queries",
        "individual ms",
        "collective ms",
        "individual NA",
        "collective NA",
    ]);
    let mut exec = Executor::new(&index);
    // 10 interval types, as users pick from a few presets (Section 7.2).
    let base = data.workload(10_000, config.seed + 1500).with_interval_types(10);
    for count in [100usize, 500, 1000, 5000, 10_000] {
        let queries: Vec<KnntaQuery> = base.queries[..count]
            .iter()
            .map(|&(p, iv)| KnntaQuery::new(p, iv).with_k(10).with_alpha0(0.3))
            .collect();
        index.stats().reset();
        let t0 = Instant::now();
        for q in &queries {
            let _ = index.query(q);
        }
        let ind_ms = t0.elapsed().as_secs_f64() * 1e3 / count as f64;
        let ind_na = index.stats().node_accesses() as f64 / count as f64;
        let plan = section_7_2_plan(&mut exec, &queries);
        index.stats().reset();
        let t0 = Instant::now();
        let _ = exec.execute_batch(&queries, &plan, BatchOrder::Hilbert);
        let col_ms = t0.elapsed().as_secs_f64() * 1e3 / count as f64;
        let col_na = index.stats().node_accesses() as f64 / count as f64;
        table.row(vec![
            count.to_string(),
            fmt(ind_ms),
            fmt(col_ms),
            fmt(ind_na),
            fmt(col_na),
        ]);
    }
    table.print();
}

/// Figure 16: collective processing, varying the number of query types.
fn fig16(spec: &DatasetSpec, config: &BenchConfig) {
    println!("== Figure 16: collective processing, varying #query types ({}) ==\n", spec.name);
    let data = load(spec, config);
    let index = data.index(Grouping::TarIntegral);
    let mut table = Table::new(&[
        "types",
        "individual ms",
        "collective ms",
        "individual NA",
        "collective NA",
    ]);
    let mut exec = Executor::new(&index);
    let base = data.workload(1000, config.seed + 1600);
    for types in [1usize, 5, 10, 50, 100] {
        let queries: Vec<KnntaQuery> = base
            .with_interval_types(types)
            .queries
            .iter()
            .map(|&(p, iv)| KnntaQuery::new(p, iv).with_k(10).with_alpha0(0.3))
            .collect();
        index.stats().reset();
        let t0 = Instant::now();
        for q in &queries {
            let _ = index.query(q);
        }
        let ind_ms = t0.elapsed().as_secs_f64() * 1e3 / queries.len() as f64;
        let ind_na = index.stats().node_accesses() as f64 / queries.len() as f64;
        let plan = section_7_2_plan(&mut exec, &queries);
        index.stats().reset();
        let t0 = Instant::now();
        let _ = exec.execute_batch(&queries, &plan, BatchOrder::Hilbert);
        let col_ms = t0.elapsed().as_secs_f64() * 1e3 / queries.len() as f64;
        let col_na = index.stats().node_accesses() as f64 / queries.len() as f64;
        table.row(vec![
            types.to_string(),
            fmt(ind_ms),
            fmt(col_ms),
            fmt(ind_na),
            fmt(col_na),
        ]);
    }
    table.print();
}

/// Ablations beyond the paper's figures: forced reinsertion on/off, and the
/// disk-resident (MVBT) TIA backend with its real page I/O, per epoch
/// length.
fn ablation(spec: &DatasetSpec, config: &BenchConfig) {
    println!("== Ablation: forced reinsert & disk-TIA I/O ({}) ==\n", spec.name);

    // Forced reinsertion on/off (TAR-tree).
    let data = load(spec, config);
    let mut table = Table::new(&["reinsert", "nodes", "TAR ms", "TAR NA"]);
    for (label, reinsert) in [("on", true), ("off", false)] {
        let index = data.index_with(IndexConfig {
            grouping: Grouping::TarIntegral,
            node_size: 1024,
            forced_reinsert: reinsert,
        });
        let queries = data.queries(config.queries, 10, 0.3, config.seed + 1700);
        let m = measure_index(&index, &queries);
        table.row(vec![
            label.into(),
            index.node_count().to_string(),
            fmt(m.cpu_ms),
            fmt(m.node_accesses),
        ]);
    }
    table.print();
    println!();

    // Disk-TIA backend: MVBT pages behind a 10-slot LRU buffer per TIA
    // (the paper's storage setup), varying the epoch length.
    let mut table = Table::new(&[
        "epoch", "mem ms", "disk ms", "TIA pages", "page reads/q", "buffer hit rate",
    ]);
    for epoch_days in [3i64, 7, 14] {
        let cfg = BenchConfig { epoch_days, ..*config };
        let data = load(spec, &cfg);
        let index = data.index(Grouping::TarIntegral);
        let tias = index.materialize_disk_tias(1024, 10);
        let queries = data.queries(config.queries.min(100), 10, 0.3, config.seed + 1800);
        let m_mem = measure_index(&index, &queries);
        tias.cool_down(); // cold cache: measure real page I/O
        let t0 = Instant::now();
        for q in &queries {
            let _ = index.query_with_disk_tias(q, &tias);
        }
        let disk_ms = t0.elapsed().as_secs_f64() * 1e3 / queries.len() as f64;
        let io = tias.io_snapshot();
        let hits = io.buffer_hits as f64;
        let total = (io.buffer_hits + io.buffer_misses).max(1) as f64;
        table.row(vec![
            format!("{epoch_days}d"),
            fmt(m_mem.cpu_ms),
            fmt(disk_ms),
            tias.page_count().to_string(),
            fmt(io.page_reads as f64 / queries.len() as f64),
            format!("{:.1}%", 100.0 * hits / total),
        ]);
    }
    table.print();
}
