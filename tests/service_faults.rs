//! Fault-injection suite for the query service (`DESIGN.md` §15).
//!
//! A [`FaultHook`] fires inside the shard worker's panic boundary at the
//! start of every execution, so these tests can kill a shard mid-query on
//! demand and assert the service's failure contract:
//!
//! * a caught panic fails exactly the tickets of the tile that hit it —
//!   every other ticket is answered bit-identically to the unsharded
//!   reference;
//! * the failure is loud, not a wrong answer: one ticket of the tile
//!   re-raises the original panic payload via `resume_unwind`, the rest
//!   carry its message;
//! * the worker keeps serving the same image: later tiles are answered;
//! * a real poison query (a non-finite point) fails its own ticket the
//!   same way;
//! * every failed ticket is counted once, so `submitted = answered +
//!   failures` at quiescence;
//! * in-flight tickets **never hang**: every path (success, failure,
//!   shutdown) resolves them;
//! * shutdown drains everything already accepted, and late submissions
//!   fail with an explicit shutdown panic.

mod common;

use common::{tiny_dataset, Gate};
use knnta::core::{IndexConfig, Obs, QueryHit, TarIndex};
use knnta::service::telemetry::W_FAILURES;
use knnta::service::{FaultHook, Service, ServiceConfig, Ticket, W_ANSWERED, W_SUBMITTED};
use knnta::{KnntaQuery, TimeInterval, Timestamp};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// The text of a panic payload (`panic!` with or without format arguments).
fn message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string payload>")
}

/// Waits for a ticket that must fail; a ticket still unresolved after a
/// minute fails the test instead of wedging it.
fn expect_failure(ticket: Ticket, what: &str) -> Box<dyn Any + Send> {
    match catch_unwind(AssertUnwindSafe(|| ticket.wait_timeout(Duration::from_secs(60)))) {
        Err(payload) => payload,
        Ok(Ok(_)) => panic!("{what}: answered, but its tile panicked"),
        Ok(Err(_)) => panic!("{what}: hung for 60s"),
    }
}

/// `submitted = answered + failures` on the telemetry window lifetimes,
/// with the failures counted per ticket.
fn assert_conserved(service: &Service, answered: u64, failed: u64) {
    let snap = service.telemetry().snapshot();
    let c = |name| snap.counter(name).map_or(0, |w| w.lifetime);
    assert_eq!(c(W_ANSWERED), answered);
    assert_eq!(c(W_FAILURES), failed);
    assert_eq!(c(W_SUBMITTED), c(W_ANSWERED) + c(W_FAILURES));
}

/// A panic on one shard for one flush fails exactly that flush's tickets;
/// every ticket of the later flushes is answered bit-identically by the
/// same workers on the same images.
#[test]
fn panic_fails_only_its_own_tile() {
    let hook: FaultHook = Arc::new(|shard, flush| {
        if shard == 0 && flush == 1 {
            panic!("injected fault: shard 0 dies on flush 1");
        }
    });
    // The pipeline is idle at the first submission, so flush 1 leaves with
    // whatever admission found queued when it woke: 1 to `max_batch`
    // queries, decided by thread timing. Admission is FIFO, so those are a
    // prefix of the submissions, and the assertions follow that prefix.
    let (service, reference, qs) = service_with(
        ServiceConfig {
            shards: 2,
            workers: 1,
            max_batch: 4,
            max_delay: Duration::from_secs(5),
            ..ServiceConfig::default()
        }
        .with_fault_hook(hook),
    );
    let tickets: Vec<_> = qs.iter().map(|q| service.submit(*q)).collect();
    let mut failed = 0;
    let mut originals = 0;
    for (i, ticket) in tickets.into_iter().enumerate() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            ticket.wait_timeout(Duration::from_secs(60))
        }));
        match outcome {
            Err(payload) => {
                assert_eq!(i, failed, "query {i} failed after an answered one");
                assert!(message(&*payload).contains("shard 0 dies on flush 1"));
                originals += payload.downcast_ref::<&str>().is_some() as usize;
                failed += 1;
            }
            Ok(Ok((got, _))) => {
                assert_eq!(key(&got), key(&reference.query(&qs[i])), "query {i}")
            }
            Ok(Err(_)) => panic!("query {i} hung for 60s"),
        }
    }
    assert!(
        (1..=4).contains(&failed),
        "flush 1 failed {failed} tickets; it holds 1 to max_batch"
    );
    assert_eq!(originals, 1, "exactly one ticket resumes the original payload");
    assert_conserved(&service, (qs.len() - failed) as u64, failed as u64);
}

/// A custom panic payload: proves `resume_unwind` re-raises the worker's
/// *original* payload object, not a stringified copy.
struct InjectedFault {
    flush: u64,
}

/// A panicking tile propagates the original panic payload via
/// `resume_unwind` through one of its tickets (the first in Hilbert order),
/// the remaining tickets get the panic message — and the service keeps
/// answering later flushes.
#[test]
fn panic_payload_reaches_one_ticket_and_service_recovers() {
    const DOOMED: u64 = 2;
    let gate = Arc::new(Gate::default());
    let hook: FaultHook = {
        let gate = gate.clone();
        Arc::new(move |_shard, flush| match flush {
            1 => gate.hold(),
            DOOMED => std::panic::panic_any(InjectedFault { flush }),
            _ => {}
        })
    };
    let (service, reference, qs) = service_with(
        ServiceConfig {
            shards: 1,
            workers: 1,
            max_batch: 2,
            max_delay: Duration::from_secs(1),
            ..ServiceConfig::default()
        }
        .with_fault_hook(hook),
    );
    // Flush 1 is a lone plug query parked on the gate. With the only
    // worker busy, admission holds the next two submissions until
    // `max_batch = 2` and flushes exactly them as the doomed flush 2: both
    // are queued ahead of flush 1's drained notice. Which ticket gets the
    // original payload depends on the Hilbert order of the flush, so
    // assert over the pair.
    let plug = service.submit(qs[3]);
    gate.wait_held();
    let t0 = service.submit(qs[0]);
    let t1 = service.submit(qs[1]);
    gate.open();
    let got = plug.wait();
    assert_eq!(key(&got), key(&reference.query(&qs[3])), "the plug query");
    let payloads: Vec<_> = [t0, t1]
        .into_iter()
        .map(|t| expect_failure(t, "doomed flush"))
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
    assert_eq!(fault.flush, DOOMED);
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
    assert_conserved(&service, 2, 2);
}

/// A real poison query, not an injected one: a non-finite point reaches
/// the engine's finiteness assertion on every shard. It fails its own
/// ticket with that message, without hanging, and the next valid query is
/// answered bit-identically.
#[test]
fn poison_query_fails_its_own_ticket() {
    let (service, reference, qs) = service_with(ServiceConfig {
        shards: 2,
        max_batch: 1,
        ..ServiceConfig::default()
    });
    let poison = KnntaQuery::new([f64::NAN, 10.0], qs[0].interval).with_k(3);
    let payload = expect_failure(service.submit(poison), "poison query");
    assert!(
        message(&*payload).contains("query point must be finite"),
        "unexpected failure: {}",
        message(&*payload),
    );
    let got = service.submit(qs[0]).wait();
    assert_eq!(key(&got), key(&reference.query(&qs[0])));
    assert_conserved(&service, 1, 1);
}

/// While a hook panics on every flush, every in-flight ticket still
/// resolves — none hang (`wait_timeout` bounds the wait so a hang fails the
/// test instead of wedging it). Once the fault clears, the same service
/// answers correctly.
#[test]
fn in_flight_queries_never_hang_under_faults() {
    let faulty = Arc::new(AtomicBool::new(true));
    let hook: FaultHook = {
        let faulty = faulty.clone();
        Arc::new(move |_shard, _flush| {
            if faulty.load(Ordering::SeqCst) {
                panic!("injected fault: every flush dies");
            }
        })
    };
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
        let payload = expect_failure(ticket, &format!("query {i}"));
        assert!(message(&*payload).contains("every flush dies"));
    }
    faulty.store(false, Ordering::SeqCst);
    let tickets: Vec<_> = qs.iter().map(|q| service.submit(*q)).collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        match ticket.wait_timeout(Duration::from_secs(60)) {
            Ok((got, _latency)) => {
                assert_eq!(key(&got), key(&reference.query(&qs[i])), "query {i}")
            }
            Err(_) => panic!("ticket {i} hung for 60s after the fault cleared"),
        }
    }
    assert_conserved(&service, qs.len() as u64, qs.len() as u64);
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
