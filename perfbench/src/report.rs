//! The metric catalogue, the per-run ledger, and the two output forms: a
//! table for people on stderr and one JSON object as the last line of
//! stdout for whatever drives the benchmark.
//!
//! `BENCHMARK.json` at the repository root declares the same names; the
//! test in `main.rs` keeps the two in step.

use crate::stats::Sliced;
use std::fmt::Write as _;

/// Names of the four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["serve_hot", "serve_heavy", "engine_single", "live_mixed"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen before a change is a regression;
/// per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees. Every workload reports every one of
/// these from an untraced run; what each means per workload is in
/// `perfbench/README.md`.
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("p50_us", "us", Better::Lower, 0.20),
    e2e("p95_us", "us", Better::Lower, 0.25),
    e2e("peak_qps", "1/s", Better::Higher, 0.20),
    e2e("image_bytes_per_poi", "B", Better::Lower, 0.02),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// Single-layer diagnostics from the traced run. A workload that does not
/// exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[Spec] = &[
    // service: admission, queue, scatter, merge (telemetry snapshot deltas)
    lo("service.lo.admit_mean_us", "us"),
    lo("service.lo.queue_mean_us", "us"),
    lo("service.lo.scatter_mean_us", "us"),
    lo("service.lo.merge_mean_us", "us"),
    lo("service.hi.admit_mean_us", "us"),
    lo("service.hi.queue_mean_us", "us"),
    lo("service.hi.scatter_mean_us", "us"),
    lo("service.hi.merge_mean_us", "us"),
    lo("service.hi.admit_p95_us", "us"),
    lo("service.hi.queue_p95_us", "us"),
    lo("service.hi.scatter_p95_us", "us"),
    lo("service.hi.merge_p95_us", "us"),
    hi("service.batch_mean", "count"),
    hi("service.flush_full_share", "%"),
    lo("service.imbalance_x1000", "count"),
    lo("service.retries", "count"),
    lo("service.failures", "count"),
    lo("service.start_s", "s"),
    lo("service.residual_share", "%"),
    // core.shard
    lo("shard.partition_ms", "ms"),
    lo("shard.merge_ranked_ns", "ns"),
    // core.plan
    lo("plan.plan_ns", "ns"),
    lo("plan.calibration_ratio", "ratio"),
    hi("plan.packed_share", "%"),
    // core.packed + rtree.packed
    lo("packed.k1_ns", "ns"),
    lo("packed.k10_ns", "ns"),
    lo("packed.k100_ns", "ns"),
    lo("packed.fetches_per_query", "count"),
    lo("packed.pack_ms", "ms"),
    lo("packed.to_bytes_ms", "ms"),
    lo("packed.from_bytes_ms", "ms"),
    lo("packed.bytes_per_poi", "B"),
    // core.index
    lo("index.k10_ns", "ns"),
    lo("index.node_accesses_per_query", "count"),
    lo("index.leaf_accesses_per_query", "count"),
    lo("index.build_s", "s"),
    // core.storage + pagestore
    lo("paged.k10_ns", "ns"),
    lo("paged.page_reads_per_query", "count"),
    hi("paged.hit_share", "%"),
    lo("paged.materialize_ms", "ms"),
    // core.collective + core.agg_cache
    lo("collective.tile64_ns_per_query", "ns"),
    lo("collective.node_accesses_per_query", "count"),
    hi("collective.sharing_ratio", "ratio"),
    hi("agg_cache.hit_share", "%"),
    // core.frontier
    lo("frontier.heap_pushes_per_query", "count"),
    lo("frontier.heap_pops_per_query", "count"),
    // tempora
    lo("tempora.aggregate_over_ns", "ns"),
    lo("tempora.epochs_scanned_per_query", "count"),
    // core.live
    hi("live.ingest_per_s", "1/s"),
    lo("live.record_ns", "ns"),
    lo("live.seal_p50_us", "us"),
    lo("live.seal_max_us", "us"),
    lo("live.merge_p50_ms", "ms"),
    lo("live.snapshot_ns", "ns"),
    lo("live.query_merged_p50_us", "us"),
    lo("live.query_overlay_p50_us", "us"),
    lo("live.query_p50_us", "us"),
    lo("live.write_stall_p99_us", "us"),
    lo("live.dropped", "count"),
    // offline replay of served tiles through the public layer functions
    lo("replay.exec_us_per_query", "us"),
    lo("replay.merge_us_per_query", "us"),
    // the benchmark's own client: validity, not performance
    lo("client.lo_p50_us", "us"),
    lo("client.lo_p95_us", "us"),
    lo("client.hi_p50_us", "us"),
    lo("client.hi_p95_us", "us"),
    lo("client.hi_p99_us", "us"),
    lo("client.lo_late_p99_us", "us"),
    lo("client.hi_late_p99_us", "us"),
    hi("client.lo_achieved_qps", "1/s"),
    hi("client.hi_achieved_qps", "1/s"),
    lo("client.backlog_end", "count"),
    lo("lbsn.generate_s", "s"),
    lo("trace.overhead_share", "%"),
];

pub fn spec_of(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// Operations of one phase: attempted, and failed (a ticket that panicked
/// or timed out, a dropped event, or an answer that differs from the
/// oracle).
#[derive(Debug, Clone)]
pub struct PhaseOps {
    pub phase: String,
    pub attempted: u64,
    pub failed: u64,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Ledger {
    values: Vec<(&'static str, Sliced)>,
    pub phases: Vec<PhaseOps>,
    /// Phases whose load generator could not hold its schedule; their
    /// numbers are printed but flagged.
    pub invalid: Vec<String>,
    /// Free-form lines for the printed report (residual accounting, the
    /// where-the-time-goes table).
    pub notes: Vec<String>,
}

impl Ledger {
    /// Records a declared metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue or is recorded twice — both
    /// are bugs in the benchmark, not outcomes of a run.
    pub fn set_sliced(&mut self, name: &str, v: Sliced) {
        let spec = spec_of(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.values.push((spec.name, v));
    }

    pub fn set(&mut self, name: &str, v: f64) {
        self.set_sliced(name, Sliced::exact(v));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.median)
    }

    pub fn ops(&mut self, phase: &str, attempted: u64, failed: u64) {
        self.phases.push(PhaseOps {
            phase: phase.to_string(),
            attempted,
            failed,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// Names recorded so far, in recording order.
    #[cfg(test)]
    pub fn names(&self) -> Vec<&'static str> {
        self.values.iter().map(|(n, _)| *n).collect()
    }

    /// Closes the ledger for output. An untraced run must have produced
    /// every end-to-end metric (an error otherwise); a traced run reports
    /// every per-layer metric, 0 for the layers the workload does not
    /// exercise.
    pub fn finish(&mut self, traced: bool) -> Result<(), String> {
        if traced {
            for spec in PER_LAYER {
                if self.get(spec.name).is_none() {
                    self.values.push((spec.name, Sliced::exact(0.0)));
                }
            }
            self.values
                .retain(|(n, _)| PER_LAYER.iter().any(|s| s.name == *n));
        } else {
            for spec in END_TO_END {
                match self.get(spec.name) {
                    Some(v) if v.is_finite() && v > 0.0 => {}
                    other => return Err(format!("end-to-end metric {} is {other:?}", spec.name)),
                }
            }
            self.values
                .retain(|(n, _)| END_TO_END.iter().any(|s| s.name == *n));
        }
        Ok(())
    }

    /// The table for people.
    pub fn render(&self, workload: &str, seed: u64, traced: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {workload}  seed {seed}  {}",
            if traced {
                "traced (per-layer)"
            } else {
                "untraced (end-to-end)"
            }
        );
        for (name, v) in &self.values {
            let (unit, better) = spec_of(name).map_or(("", ""), |s| (s.unit, s.better.as_str()));
            let _ = write!(out, "  {name:<38} {:>14.4} {unit:<5} {better:<6}", v.median);
            if v.min != v.max {
                let _ = write!(out, " (slices {:.4} .. {:.4})", v.min, v.max);
            }
            out.push('\n');
        }
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  ops {:<34} attempted {:>9}  failed {}",
                p.phase, p.attempted, p.failed
            );
        }
        for line in &self.invalid {
            let _ = writeln!(out, "  INVALID {line}");
        }
        for line in &self.notes {
            let _ = writeln!(out, "  {line}");
        }
        out
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let failed = self.failed();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            failed == 0,
            self.attempted().max(1),
            failed
        );
        for (i, (name, v)) in self.values.iter().enumerate() {
            let unit = spec_of(name).map_or("", |s| s.unit);
            let value = if v.median.is_finite() { v.median } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// `(all, stolen)` CPU ticks of the machine since boot, from `/proc/stat`.
/// The share stolen during a run says how much of the box the hypervisor
/// gave to someone else — the one disturbance no slicing can remove.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().take(8).sum(), *fields.get(7)?))
}

/// `VmHWM` of this process in MB (0 where `/proc` is not available).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(END_TO_END
            .iter()
            .any(|s| s.name == "setup_s" && s.unit == "s"));
        assert!(END_TO_END
            .iter()
            .all(|s| s.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.len() <= 128 && PER_LAYER.iter().all(|s| s.bound.is_none()));
    }

    #[test]
    fn ledger_round_trips_through_json() {
        let mut l = Ledger::default();
        for s in END_TO_END {
            l.set(s.name, 1.5);
        }
        l.ops("phase", 10, 0);
        l.finish(false).unwrap();
        let doc = knnta_util::json::JsonValue::parse(&l.to_json()).unwrap();
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(10));
        let m = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(
            m[0].1.get("value").unwrap().as_f64(),
            Some(1.5),
            "value survives"
        );
    }

    #[test]
    fn untraced_ledger_rejects_a_missing_or_zero_metric() {
        let mut l = Ledger::default();
        l.set("setup_s", 1.0);
        assert!(l.finish(false).is_err());
        let mut l = Ledger::default();
        for s in END_TO_END {
            l.set(s.name, 0.0);
        }
        assert!(l.finish(false).is_err());
    }

    #[test]
    fn traced_ledger_fills_unexercised_layers_with_zero() {
        let mut l = Ledger::default();
        l.set("live.dropped", 0.0);
        l.set("setup_s", 1.0);
        l.finish(true).unwrap();
        assert_eq!(l.names().len(), PER_LAYER.len());
        assert!(l.get("setup_s").is_none());
    }
}
