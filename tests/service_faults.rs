//! Fault-injection suite for the query service (`DESIGN.md` §15).
//!
//! A [`FaultHook`] fires inside the shard worker's panic boundary at the
//! start of every execution, so these tests can kill a shard mid-query on
//! demand and assert the service's failure contract:
//!
//! * a caught panic rebuilds the shard and retries the task — answers
//!   after a retry are still bit-identical to the unsharded reference;
//! * retries are bounded (`retry_limit`) and cut short by the flush
//!   `deadline`;
//! * when retries are exhausted the original panic payload is re-raised
//!   through the ticket via `resume_unwind` — failure is loud, not a
//!   wrong answer;
//! * in-flight tickets **never hang**: every path (success, retry,
//!   failure, shutdown) resolves them;
//! * shutdown drains everything already accepted, and late submissions
//!   fail with an explicit shutdown panic.

mod common;

use common::tiny_dataset;
use knnta::core::{IndexConfig, Obs, QueryHit, TarIndex};
use knnta::service::{
    FaultHook, Service, ServiceConfig, M_FAILURES, M_REBUILDS, M_RETRIES,
};
use knnta::{KnntaQuery, TimeInterval, Timestamp};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Bitwise identity key, as in the service oracle.
fn key(hits: &[QueryHit]) -> Vec<(u32, u64, u64)> {
    hits.iter()
        .map(|h| (h.poi.0, h.score.to_bits(), h.aggregate))
        .collect()
}

/// A handful of deterministic queries over the tiny dataset.
fn queries(grid: &knnta::EpochGrid) -> Vec<KnntaQuery> {
    let tc = grid.tc();
    (0..8)
        .map(|i| {
            let x = (i % 4) as f64 * 25.0 + 5.0;
            let y = (i / 4) as f64 * 40.0 + 10.0;
            let len = (1i64 << (i % 4)) * 7 * Timestamp::DAY;
            KnntaQuery::new([x, y], TimeInterval::new(tc - len, tc)).with_k(1 + i)
        })
        .collect()
}

fn service_with(config: ServiceConfig) -> (Service, TarIndex, Vec<KnntaQuery>) {
    let (grid, bounds, pois) = tiny_dataset();
    let mut reference = TarIndex::build(
        IndexConfig::default(),
        grid.clone(),
        bounds,
        pois.iter().cloned(),
    );
    reference.set_obs(Obs::disabled());
    let qs = queries(&grid);
    let service = Service::start(config, grid, bounds, pois, Obs::enabled());
    (service, reference, qs)
}

/// A worker panic mid-query is caught, the shard is rebuilt, and the task
/// retried on the new generation — the answers still match the unsharded
/// reference bit-for-bit, and the retry/rebuild counters record it.
#[test]
fn panic_mid_query_is_retried_on_rebuilt_shard() {
    let injected = Arc::new(AtomicUsize::new(0));
    let max_attempt = Arc::new(AtomicUsize::new(0));
    let hook: FaultHook = {
        let injected = injected.clone();
        let max_attempt = max_attempt.clone();
        Arc::new(move |shard, _flush, attempt| {
            max_attempt.fetch_max(attempt, Ordering::SeqCst);
            if shard == 0 && attempt == 0 {
                injected.fetch_add(1, Ordering::SeqCst);
                panic!("injected fault: shard 0 dies on first attempt");
            }
        })
    };
    let (service, reference, qs) = service_with(
        ServiceConfig {
            shards: 2,
            workers: 1,
            max_batch: 4,
            max_delay: Duration::from_micros(500),
            ..ServiceConfig::default()
        }
        .with_fault_hook(hook),
    );
    let first = service.shard_images();
    assert!(first.iter().all(|(generation, _)| *generation == 1));
    let tickets: Vec<_> = qs.iter().map(|q| service.submit(*q)).collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait();
        assert_eq!(
            key(&got),
            key(&reference.query(&qs[i])),
            "query {i} diverged after a mid-query fault + retry",
        );
    }
    assert!(injected.load(Ordering::SeqCst) >= 1, "hook never fired");
    // The rebuilt shard is a re-pack of the same POIs: a later generation,
    // the very same bytes.
    let rebuilt = service.shard_images();
    assert!(rebuilt[0].0 > 1, "shard 0 was never rebuilt");
    assert_eq!(rebuilt[1].0, 1, "shard 1 never panicked");
    for ((_, was), (_, now)) in first.iter().zip(&rebuilt) {
        assert!(was == now, "a shard image changed across generations");
    }
    assert_eq!(
        max_attempt.load(Ordering::SeqCst),
        1,
        "every retry should succeed on its first rebuilt-shard attempt",
    );
    let metrics = service.obs().metrics_snapshot();
    let retries = metrics.counter(M_RETRIES).unwrap_or(0);
    let rebuilds = metrics.counter(M_REBUILDS).unwrap_or(0);
    assert!(retries >= 1, "no retry was recorded");
    assert_eq!(retries, rebuilds, "each retry runs on a rebuilt shard");
    assert_eq!(metrics.counter(M_FAILURES).unwrap_or(0), 0);
}

/// A custom panic payload: proves `resume_unwind` re-raises the worker's
/// *original* payload object, not a stringified copy.
struct InjectedFault {
    flush: u64,
}

/// When a shard panics more times than `retry_limit`, the original panic
/// payload is propagated via `resume_unwind` through one ticket of the
/// flush (the first in Hilbert order), the remaining tickets get the
/// panic message — and the service keeps answering later flushes.
#[test]
fn exhausted_retries_propagate_the_panic_and_service_recovers() {
    let doomed_flush = Arc::new(AtomicU64::new(0));
    let hook: FaultHook = {
        let doomed = doomed_flush.clone();
        Arc::new(move |_shard, flush, _attempt| {
            // The first flush ever seen is doomed on every attempt.
            let _ = doomed.compare_exchange(0, flush, Ordering::SeqCst, Ordering::SeqCst);
            if doomed.load(Ordering::SeqCst) == flush {
                std::panic::panic_any(InjectedFault { flush });
            }
        })
    };
    let (service, reference, qs) = service_with(
        ServiceConfig {
            shards: 1,
            workers: 1,
            max_batch: 2,
            max_delay: Duration::from_secs(1),
            retry_limit: 1,
            ..ServiceConfig::default()
        }
        .with_fault_hook(hook),
    );
    // Two queries → one flush of two entries (max_batch = 2). Which
    // ticket gets the original payload depends on the Hilbert order of
    // the flush, so assert over the pair.
    let t0 = service.submit(qs[0]);
    let t1 = service.submit(qs[1]);
    let payloads: Vec<_> = [t0, t1]
        .into_iter()
        .map(|t| {
            catch_unwind(AssertUnwindSafe(|| t.wait()))
                .expect_err("every ticket of the doomed flush must fail")
        })
        .collect();
    let originals = payloads
        .iter()
        .filter(|p| p.downcast_ref::<InjectedFault>().is_some())
        .count();
    assert_eq!(
        originals, 1,
        "exactly one ticket resumes the original panic payload",
    );
    let fault = payloads
        .iter()
        .find_map(|p| p.downcast_ref::<InjectedFault>())
        .expect("original payload present");
    assert_eq!(fault.flush, doomed_flush.load(Ordering::SeqCst));
    assert!(
        payloads.iter().any(|p| p
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("shard worker panicked"))),
        "the other ticket carries the panic message",
    );
    // Later flushes (different flush id → hook no longer fires) recover.
    let got = service.submit(qs[2]).wait();
    assert_eq!(
        key(&got),
        key(&reference.query(&qs[2])),
        "service must keep answering after a failed flush",
    );
    let metrics = service.obs().metrics_snapshot();
    assert_eq!(metrics.counter(M_RETRIES).unwrap_or(0), 1, "retry_limit = 1");
    assert_eq!(metrics.counter(M_FAILURES).unwrap_or(0), 1);
}

/// A zero deadline forbids retries entirely: the first caught panic is
/// already past the deadline, so it propagates without a rebuild cycle.
#[test]
fn deadline_expiry_cuts_retries_short() {
    let hook: FaultHook = Arc::new(|_, _, attempt| {
        assert_eq!(attempt, 0, "an expired flush must never be retried");
        panic!("injected fault: dies past deadline");
    });
    let (service, _reference, qs) = service_with(
        ServiceConfig {
            shards: 1,
            max_batch: 1,
            retry_limit: 100,
            deadline: Duration::ZERO,
            ..ServiceConfig::default()
        }
        .with_fault_hook(hook),
    );
    let ticket = service.submit(qs[0]);
    let payload = catch_unwind(AssertUnwindSafe(|| ticket.wait()))
        .expect_err("expired flush must fail");
    assert!(payload
        .downcast_ref::<&str>()
        .is_some_and(|m| m.contains("dies past deadline")));
    let metrics = service.obs().metrics_snapshot();
    assert_eq!(metrics.counter(M_RETRIES).unwrap_or(0), 0);
    assert_eq!(metrics.counter(M_FAILURES).unwrap_or(0), 1);
}

/// Under constant first-attempt faults on every shard, every in-flight
/// ticket still resolves within the deadline — none hang. `wait_timeout`
/// bounds the wait so a hang fails the test instead of wedging it.
#[test]
fn in_flight_queries_never_hang_under_faults() {
    let hook: FaultHook = Arc::new(|_shard, _flush, attempt| {
        if attempt == 0 {
            panic!("injected fault: first attempt always dies");
        }
    });
    let (service, reference, qs) = service_with(
        ServiceConfig {
            shards: 4,
            workers: 2,
            max_batch: 3,
            max_delay: Duration::from_micros(200),
            ..ServiceConfig::default()
        }
        .with_fault_hook(hook),
    );
    let tickets: Vec<_> = qs.iter().map(|q| service.submit(*q)).collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        match ticket.wait_timeout(Duration::from_secs(60)) {
            Ok((got, _latency)) => {
                assert_eq!(key(&got), key(&reference.query(&qs[i])), "query {i}")
            }
            Err(_) => panic!("ticket {i} hung for 60s under fault injection"),
        }
    }
}

/// Shutdown drains the accepted queue (every pre-shutdown ticket gets its
/// answer) and submissions after shutdown fail with the explicit shutdown
/// panic instead of hanging.
#[test]
fn shutdown_drains_queue_and_late_submissions_fail_loudly() {
    let (mut service, reference, qs) = service_with(ServiceConfig {
        shards: 2,
        max_batch: 4,
        max_delay: Duration::from_millis(2),
        ..ServiceConfig::default()
    });
    let tickets: Vec<_> = qs.iter().map(|q| service.submit(*q)).collect();
    service.shutdown();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait();
        assert_eq!(
            key(&got),
            key(&reference.query(&qs[i])),
            "query {i} accepted before shutdown must still be answered",
        );
    }
    let late = service.submit(qs[0]);
    let payload = catch_unwind(AssertUnwindSafe(|| late.wait()))
        .expect_err("post-shutdown submission must fail");
    assert!(payload
        .downcast_ref::<&str>()
        .is_some_and(|m| m.contains("shut down")));
}
