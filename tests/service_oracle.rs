//! Service-level differential oracle (`DESIGN.md` §15).
//!
//! Whatever the service does between `submit` and answer — streaming
//! admission into Hilbert locality tiles, work-conserving flushes, POI
//! partitioning across engine shards, per-shard planner-driven execution,
//! scatter-gather merge — each response must be **bit-identical** to the
//! unsharded, one-at-a-time execution of the same query on a single
//! [`TarIndex`] built from the same POI snapshot. Sharding and batching
//! are allowed to change *when* and *where* work happens, never *which*
//! answer comes back.
//!
//! Two layers:
//!
//! * a deterministic sweep over the full configuration grid — shard
//!   counts {1, 2, 4, 8} × worker counts × flush policies (singleton
//!   flushes, mixed, gated big tiles) — on the power-law client stream;
//! * a randomized property (`knnta_util::prop`) drawing the service
//!   configuration *and* the query stream, so failures print a
//!   `KNNTA_PROP_SEED=…` replay line.

mod common;

use common::{small_dataset, Gate};
use knnta::core::{IndexConfig, Obs, QueryHit, TarIndex};
use knnta::service::client::{powerlaw_queries, ClientConfig};
use knnta::service::{FaultHook, Service, ServiceConfig, W_FLUSHES};
use knnta::{AggregateSeries, EpochGrid, KnntaQuery, Poi, TimeInterval, Timestamp};
use rtree::Rect;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Bitwise identity key: no float tolerance anywhere.
fn key(hits: &[QueryHit]) -> Vec<(u32, u64, u64)> {
    hits.iter()
        .map(|h| (h.poi.0, h.score.to_bits(), h.aggregate))
        .collect()
}

fn soak() -> bool {
    std::env::var("KNNTA_SOAK").map_or(false, |v| v != "0" && !v.is_empty())
}

/// The shared fixture: one dataset snapshot, the unsharded reference tree
/// built from it, and the deterministic power-law query stream.
struct Fixture {
    grid: EpochGrid,
    bounds: Rect<2>,
    pois: Vec<(Poi, AggregateSeries)>,
    reference: TarIndex,
    stream: Vec<KnntaQuery>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let dataset = small_dataset();
        let grid = dataset.grid.clone();
        let bounds = Rect::new(dataset.bounds.0, dataset.bounds.1);
        // The service and the reference must serve the *same* POI set, so
        // both are built from one snapshot (not via `common::index_of`,
        // which consumes the snapshot internally).
        let pois: Vec<(Poi, AggregateSeries)> = dataset
            .snapshot(grid.len())
            .into_iter()
            .map(|(id, pos, series)| (Poi { id, pos }, series))
            .collect();
        let mut reference = TarIndex::build(
            IndexConfig::default(),
            grid.clone(),
            bounds,
            pois.iter().cloned(),
        );
        reference.set_obs(Obs::disabled());
        let stream = powerlaw_queries(
            &dataset,
            &ClientConfig {
                queries: if soak() { 120 } else { 24 },
                ..ClientConfig::default()
            },
        );
        Fixture {
            grid,
            bounds,
            pois,
            reference,
            stream,
        }
    })
}

fn start(fix: &Fixture, config: ServiceConfig) -> Service {
    Service::start(
        config,
        fix.grid.clone(),
        fix.bounds,
        fix.pois.clone(),
        Obs::disabled(),
    )
}

/// Submits `queries` to `service`, then opens `gate` if one parks the
/// service's flushes, and asserts every answer is bit-identical to the
/// reference tree's one-at-a-time execution.
fn assert_oracle(
    fix: &Fixture,
    service: &Service,
    queries: &[KnntaQuery],
    gate: Option<&Gate>,
    label: &str,
) {
    let tickets: Vec<_> = queries.iter().map(|q| service.submit(*q)).collect();
    if let Some(gate) = gate {
        gate.open();
    }
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait();
        let want = fix.reference.query(&queries[i]);
        assert_eq!(
            key(&got),
            key(&want),
            "{label}: query {i} diverged from the unsharded reference",
        );
    }
}

/// The full deterministic grid: shard counts {1, 2, 4, 8} × worker counts
/// {1, 2} × three flush policies — singleton flushes (`max_batch = 1`, the
/// pure scatter path), a mixed policy where admission flushes at once while
/// a worker is free and otherwise on whichever of size or deadline trips
/// first, and a big-tile policy. Admission flushes the first query alone
/// when the pipeline is idle, so the big-tile policy parks every flush on a
/// [`Gate`] until the whole stream is submitted: the first `workers`
/// flushes leave with whatever was queued, and the rest of the stream is
/// held as one Hilbert-ordered tile until a flush drains. The telemetry's
/// flush count proves the stream went out in at most `workers + 1` tiles.
#[test]
fn sharded_service_matches_unsharded_reference_across_grid() {
    let fix = fixture();
    let big_tile = fix.stream.len();
    let flush_policies: [(usize, Duration); 3] = [
        (1, Duration::ZERO),
        (8, Duration::from_micros(200)),
        (big_tile, Duration::from_secs(1)),
    ];
    for shards in [1usize, 2, 4, 8] {
        for workers in [1usize, 2] {
            for (max_batch, max_delay) in flush_policies {
                let gate = (max_batch == big_tile).then(|| Arc::new(Gate::default()));
                let mut config = ServiceConfig {
                    shards,
                    workers,
                    max_batch,
                    max_delay,
                    ..ServiceConfig::default()
                };
                if let Some(gate) = &gate {
                    let gate = gate.clone();
                    let hook: FaultHook = Arc::new(move |_shard, _flush| gate.hold());
                    config = config.with_fault_hook(hook);
                }
                let service = start(fix, config);
                let label = format!(
                    "shards={shards} workers={workers} max_batch={max_batch} \
                     max_delay={max_delay:?}"
                );
                assert_oracle(fix, &service, &fix.stream, gate.as_deref(), &label);
                if gate.is_some() {
                    let flushes = service
                        .telemetry()
                        .snapshot()
                        .counter(W_FLUSHES)
                        .map_or(0, |w| w.lifetime);
                    assert!(
                        flushes <= workers as u64 + 1,
                        "{label}: {} queries went out in {flushes} flushes",
                        fix.stream.len(),
                    );
                }
            }
        }
    }
}

/// Shutdown mid-stream still answers everything already submitted: the
/// admission loop drains its queue before closing the shard channels, so
/// no accepted query is dropped — and the answers still match the oracle.
#[test]
fn shutdown_drains_accepted_queries() {
    let fix = fixture();
    let mut service = start(
        fix,
        ServiceConfig {
            shards: 4,
            workers: 2,
            max_batch: 16,
            max_delay: Duration::from_millis(5),
            ..ServiceConfig::default()
        },
    );
    let queries = &fix.stream[..fix.stream.len().min(16)];
    let tickets: Vec<_> = queries.iter().map(|q| service.submit(*q)).collect();
    service.shutdown();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait();
        let want = fix.reference.query(&queries[i]);
        assert_eq!(key(&got), key(&want), "drained query {i} diverged");
    }
}

/// Randomized configurations *and* query streams. Failures print the
/// harness's `KNNTA_PROP_SEED=…` replay line. The soak lane in
/// `scripts/verify.sh` runs this at 5× the default case count via
/// `KNNTA_PROP_CASES`.
#[test]
fn random_service_configs_match_unsharded_reference() {
    let fix = fixture();
    knnta::util::prop::check("service_oracle_random_configs", 6, |g| {
        let config = ServiceConfig {
            shards: g.usize_in(1..9),
            workers: g.usize_in(1..4),
            max_batch: g.usize_in(1..17),
            max_delay: Duration::from_micros(g.u64_in(0..1000)),
            ..ServiceConfig::default()
        };
        let label = format!(
            "random shards={} workers={} max_batch={} max_delay={:?}",
            config.shards, config.workers, config.max_batch, config.max_delay
        );
        let tc = fix.grid.tc();
        let queries = g.vec(4, 24, |g| {
            // Queries anywhere in data space (not only at POI positions),
            // any power-of-two recent interval, any k regime.
            let point = [
                g.f64_in(fix.bounds.min[0]..fix.bounds.max[0]),
                g.f64_in(fix.bounds.min[1]..fix.bounds.max[1]),
            ];
            let len = (1i64 << g.u32_in(0..10)) * Timestamp::DAY;
            KnntaQuery::new(point, TimeInterval::new(tc - len, tc))
                .with_k(*g.pick(&[1usize, 3, 10, 50]))
                .with_alpha0(g.f64_in(0.0..1.0))
        });
        let service = start(fix, config);
        assert_oracle(fix, &service, &queries, None, &label);
    });
}
