//! # knnta-service — the async sharded query service
//!
//! A server loop in front of the kNNTA engine, turning continuously
//! arriving queries into Hilbert-ordered tiles that a fleet of engine
//! shards answers under one bound per query — with zero dependencies beyond
//! the workspace: the executor is [`knnta_util::pool::ThreadPool`] over
//! [`knnta_util::chan`] channels, no external async runtime.
//!
//! ## Pipeline
//!
//! ```text
//! submit() ──► admission ──► shard 0 workers ─┐
//!              (tile by     shard 1 workers ──┼──► merger ──► Ticket
//!               Hilbert,         ...          │      │
//!               flush when  shard N-1 workers ┘      │
//!               idle, or at                          │
//!               a ceiling) ◄──── drained ────────────┘
//! ```
//!
//! * **Admission** is work-conserving with ceilings. While fewer flushes
//!   are in flight than each shard has workers, it takes whatever is
//!   already queued (up to `max_batch`) and flushes at once. Otherwise the
//!   tile grows until a flush drains (the merger's notice), the tile
//!   reaches `max_batch`, or its oldest query has waited `max_delay`. Each
//!   flush is ordered along the 3-D Hilbert curve
//!   ([`knnta_core::BatchOrder::Hilbert`]), so every shard answers nearby
//!   queries back to back while their subtrees are still in cache. A tile
//!   amortises channel hops and merge bookkeeping; it shares no search
//!   work, because on a packed image a shared node fetch saves none.
//! * **Shards**: the POI set is partitioned across `shards` engine shards
//!   by [`knnta_core::partition_pois`] (contiguous Hilbert runs). Every
//!   shard is a [`knnta_core::FrozenIndex`] — a packed image plus metadata,
//!   bulk-built straight from the shard's POIs **with the global grid and
//!   global bounds**, no R\*-tree — and executes through a
//!   [`knnta_core::Executor`]
//!   (cost-model planner + EWMA calibration, per shard) seeded with the
//!   **global root-max** series ([`knnta_core::Executor::with_root_max`])
//!   so per-shard scores are bit-identical to the unsharded tree's. Each
//!   flush carries one [`knnta_core::SharedBound`] per query, and every
//!   shard runs its tile through [`knnta_core::Executor::query_tile`], one
//!   query at a time against its bound: a shard prunes with the k-th score
//!   any shard has found, so it stops about where one search over all the
//!   POIs would.
//! * **Merge**: per-shard lists (each possibly shorter than k) are merged by
//!   [`knnta_core::merge_ranked`] under the global `(score, PoiId)` total
//!   order. `tests/service_oracle.rs` is the differential proof that the
//!   whole pipeline is bit-identical to one-at-a-time unsharded execution.
//! * **Faults**: a shard worker panic is caught at the execution boundary
//!   and fails exactly the tickets of the tile that hit it, each counted
//!   once ([`telemetry::W_FAILURES`]): one ticket resumes the original panic payload
//!   through [`Ticket::wait`] via `resume_unwind`, the rest get its
//!   message. A shard image is immutable and the kernel deterministic, so
//!   running the tile again could only panic again: the worker keeps
//!   serving the same image with the same executor. In-flight queries never
//!   hang: every code path either answers the ticket or drops its response
//!   slot, which wakes the waiter with an error.
//!
//! Per-phase spans (`admit`, `tile`, `scatter`, `merge`) flow into the
//! attached [`Obs`] handle, so `knnta report` breaks service latency down
//! by phase. See DESIGN.md §15.
//!
//! Independently of the opt-in [`Obs`] tracing, every service carries an
//! always-on [`ServiceTelemetry`] ([`telemetry`]): the service's event
//! counters, sliding-window latency histograms with per-segment attribution
//! (admit / queue / scatter / merge), per-shard health gauges, and a
//! bounded tail-trace sampler —
//! snapshotted to the stable `knnta.snapshot.v1` schema for
//! `knnta serve --stats-out`, `knnta top`, and `knnta slo`. See
//! DESIGN.md §16.

#![warn(missing_docs)]

pub mod client;
pub mod telemetry;

pub use telemetry::{
    ServiceTelemetry, TelemetryConfig, G_IMBALANCE_X1000, G_TAIL_THRESHOLD_US, W_ADMIT_US,
    W_ANSWERED, W_E2E_US, W_FLUSHES, W_MERGE_US, W_QUEUE_US, W_SCATTER_US, W_SUBMITTED,
    W_TAIL_KEPT,
};

use knnta_core::{
    merge_ranked, partition_pois, BatchOrder, Executor, FrozenIndex, IndexConfig, KnntaQuery, Obs,
    Poi, QueryHit, SharedBound,
};
use knnta_obs::SpanId;
use knnta_util::chan::{self, OneshotReceiver, OneshotSender, Receiver, RecvError, Sender};
use knnta_util::pool::ThreadPool;
use rtree::Rect;
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempora::{AggregateSeries, EpochGrid};

/// Test-only fault injection: called with `(shard, flush id)` at the start
/// of every shard execution, inside the panic boundary — panic here to
/// simulate a shard worker dying mid-query.
pub type FaultHook = Arc<dyn Fn(usize, u64) + Send + Sync>;

/// Tuning knobs for a [`Service`].
#[derive(Clone)]
pub struct ServiceConfig {
    /// Engine shards the POI set is partitioned across (clamped to the POI
    /// count at startup).
    pub shards: usize,
    /// Worker threads per shard — also the pipeline's capacity: admission
    /// flushes at once while fewer flushes than this are in flight.
    pub workers: usize,
    /// Otherwise admission flushes when this many queries are waiting…
    pub max_batch: usize,
    /// …or when the oldest waiting query has been held this long.
    pub max_delay: Duration,
    /// Test-only fault injection, normally `None`; set via
    /// [`ServiceConfig::with_fault_hook`].
    pub fault_hook: Option<FaultHook>,
    /// Always-on serving telemetry knobs (see [`telemetry`]).
    pub telemetry: TelemetryConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 1,
            workers: 1,
            max_batch: 64,
            max_delay: Duration::from_micros(200),
            fault_hook: None,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// Installs a [`FaultHook`] (tests only; see the type's docs).
    pub fn with_fault_hook(mut self, hook: FaultHook) -> Self {
        self.fault_hook = Some(hook);
        self
    }
}

/// A failed shard task: the panic message plus (for the first ticket it is
/// delivered to) the original panic payload.
struct Failure {
    message: String,
    payload: Option<Box<dyn Any + Send>>,
}

impl Failure {
    fn from_payload(payload: Box<dyn Any + Send>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "shard worker panicked".to_string()
        };
        Failure {
            message,
            payload: Some(payload),
        }
    }
}

/// What the merger sends back through a ticket's response slot.
struct Response {
    result: Result<Vec<QueryHit>, Failure>,
    completed: Instant,
}

impl Response {
    /// The hits and the latency since `submitted`, or the shard worker's
    /// panic resumed on the waiting thread.
    fn resolve(self, submitted: Instant) -> (Vec<QueryHit>, Duration) {
        let latency = self.completed.saturating_duration_since(submitted);
        match self.result {
            Ok(hits) => (hits, latency),
            Err(Failure {
                payload: Some(payload),
                ..
            }) => resume_unwind(payload),
            Err(Failure { message, .. }) => resume_unwind(Box::new(message)),
        }
    }
}

/// A pending answer for one submitted query.
pub struct Ticket {
    rx: OneshotReceiver<Response>,
    submitted: Instant,
}

impl Ticket {
    /// Blocks for the answer.
    ///
    /// # Panics
    ///
    /// Resumes the shard worker's panic (`std::panic::resume_unwind`) if
    /// the query's tile panicked on a shard, and panics with a shutdown
    /// message if the service stopped before answering — a ticket never
    /// hangs.
    pub fn wait(self) -> Vec<QueryHit> {
        self.wait_timed().0
    }

    /// [`Ticket::wait`], also returning the submit-to-answer latency.
    pub fn wait_timed(self) -> (Vec<QueryHit>, Duration) {
        match self.rx.recv() {
            Ok(resp) => resp.resolve(self.submitted),
            Err(_) => panic!("query service shut down before answering"),
        }
    }

    /// Waits up to `timeout`; returns the ticket back on timeout so the
    /// caller can keep waiting (used by the fault tests to prove tickets
    /// never hang).
    pub fn wait_timeout(self, timeout: Duration) -> Result<(Vec<QueryHit>, Duration), Ticket> {
        match self.rx.recv_timeout_ref(timeout) {
            Ok(resp) => Ok(resp.resolve(self.submitted)),
            Err(RecvError::Timeout) => Err(self),
            Err(RecvError::Closed) => panic!("query service shut down before answering"),
        }
    }
}

/// One submitted query travelling through admission → merger.
struct Entry {
    query: KnntaQuery,
    reply: OneshotSender<Response>,
    submitted: Instant,
}

/// What admission receives: a submitted query, or the merger's notice that
/// a flush has drained (every shard of it reported, answered or failed).
enum Admit {
    Query(Entry),
    Drained,
}

/// One shard execution: a flushed tile, in Hilbert order, and one `f(p_k)`
/// bound per query that every shard of the flush prunes against.
struct Task {
    flush: u64,
    queries: Arc<Vec<KnntaQuery>>,
    bounds: Arc<[SharedBound]>,
}

enum MergeMsg {
    Manifest {
        flush: u64,
        entries: Vec<Entry>,
        shards: usize,
        /// When admission dispatched the flush (the admit/queue boundary).
        flushed_at: Instant,
    },
    ShardDone {
        flush: u64,
        shard: usize,
        outcome: Result<Vec<Vec<QueryHit>>, Failure>,
        /// Wall time of the execution on this shard.
        exec_ns: u64,
        /// When this shard finished (the queue/merge boundary is the max
        /// over shards).
        finished: Instant,
    },
}

/// One engine shard: the packed serving image of its POIs, built once at
/// start with the *global* grid and bounds and never replaced.
struct Shard {
    id: usize,
    frozen: FrozenIndex,
}

/// The running service: submission front door plus the admission, shard
/// worker, and merger threads behind it. Dropping the service shuts it
/// down (draining the queue first).
pub struct Service {
    submit_tx: Sender<Admit>,
    obs: Obs,
    shards: Vec<Arc<Shard>>,
    telemetry: Arc<ServiceTelemetry>,
    pools: Vec<ThreadPool>,
}

impl Service {
    /// Partitions `pois` into shards, packs every shard's serving image
    /// (the POIs are dropped once packed), and starts the admission /
    /// worker / merger threads.
    ///
    /// The global `grid` and `bounds` are shared by every shard tree, and
    /// the global root-max series (the per-epoch max over all POI series —
    /// identical to the unsharded tree's root-max) is the `gmax`
    /// normaliser of every shard execution; both are what makes sharded
    /// answers bit-identical to the unsharded tree's.
    ///
    /// # Panics
    ///
    /// Panics if `pois` is empty.
    pub fn start(
        config: ServiceConfig,
        grid: EpochGrid,
        bounds: Rect<2>,
        pois: Vec<(Poi, AggregateSeries)>,
        obs: Obs,
    ) -> Service {
        assert!(!pois.is_empty(), "service needs at least one POI");
        let shards_n = config.shards.max(1).min(pois.len());
        let workers_n = config.workers.max(1);
        let config = Arc::new(ServiceConfig {
            shards: shards_n,
            workers: workers_n,
            max_batch: config.max_batch.max(1),
            ..config
        });

        let root_max = Arc::new(AggregateSeries::max_of(pois.iter().map(|(_, s)| s)));
        let positions: Vec<Poi> = pois.iter().map(|(p, _)| *p).collect();
        let parts = partition_pois(&positions, &bounds, shards_n);

        let mut pois: Vec<Option<(Poi, AggregateSeries)>> = pois.into_iter().map(Some).collect();
        let shards: Vec<Arc<Shard>> = parts
            .iter()
            .enumerate()
            .map(|(id, part)| {
                let shard_pois: Vec<(Poi, AggregateSeries)> = part
                    .iter()
                    .map(|&i| pois[i].take().expect("a partition holds each POI once"))
                    .collect();
                let mut frozen =
                    FrozenIndex::build(IndexConfig::default(), grid.clone(), bounds, &shard_pois);
                frozen.set_obs(obs.clone());
                Arc::new(Shard { id, frozen })
            })
            .collect();

        let telemetry = ServiceTelemetry::new(&config.telemetry, shards_n);

        let (submit_tx, submit_rx) = chan::channel::<Admit>();
        let (merge_tx, merge_rx) = chan::channel::<MergeMsg>();
        let shard_channels: Vec<(Sender<Task>, Receiver<Task>)> =
            (0..shards_n).map(|_| chan::channel::<Task>()).collect();

        // Admission orders each flush with a shard's metadata (same global
        // grid and bounds as the unsharded tree, so the same Hilbert
        // ordering).
        let order_shard = shards[0].clone();

        let admit_pool = ThreadPool::new("knnta-admit", 1);
        {
            let shard_txs: Vec<Sender<Task>> =
                shard_channels.iter().map(|(tx, _)| tx.clone()).collect();
            let merge_tx = merge_tx.clone();
            let config = config.clone();
            let obs = obs.clone();
            let telemetry = telemetry.clone();
            let queued = admit_pool.execute(move || {
                admission_loop(
                    &submit_rx, &shard_txs, &merge_tx, &order_shard, &config, &obs, &telemetry,
                );
                for tx in &shard_txs {
                    tx.close();
                }
            });
            assert!(queued.is_ok(), "admission pool accepts its loop");
        }

        let worker_pool = ThreadPool::new("knnta-shard", shards_n * workers_n);
        for shard in &shards {
            for _ in 0..workers_n {
                let shard = shard.clone();
                let rx = shard_channels[shard.id].1.clone();
                let merge_tx = merge_tx.clone();
                let root_max = root_max.clone();
                let config = config.clone();
                let obs = obs.clone();
                let telemetry = telemetry.clone();
                let queued = worker_pool.execute(move || {
                    worker_loop(&shard, &rx, &merge_tx, &root_max, &config, &obs, &telemetry);
                });
                assert!(queued.is_ok(), "worker pool accepts its loops");
            }
        }
        drop(merge_tx); // merger exits once admission + all workers are done

        let merge_pool = ThreadPool::new("knnta-merge", 1);
        {
            // The merger's drained notices keep the submit channel open
            // past the last `Service` handle; `shutdown` closes it.
            let drained_tx = submit_tx.clone();
            let obs = obs.clone();
            let telemetry = telemetry.clone();
            let queued =
                merge_pool.execute(move || merger_loop(&merge_rx, &drained_tx, &obs, &telemetry));
            assert!(queued.is_ok(), "merge pool accepts its loop");
        }

        Service {
            submit_tx,
            obs,
            shards,
            telemetry,
            // Join order at shutdown: admission (drains + closes shard
            // queues) → workers (drain + drop their merge senders) →
            // merger (drains, answers everything outstanding).
            pools: vec![admit_pool, worker_pool, merge_pool],
        }
    }

    /// Enqueues a query; the returned [`Ticket`] resolves to its answer.
    /// After [`Service::shutdown`] the ticket resolves to the shutdown
    /// panic instead of hanging.
    pub fn submit(&self, query: KnntaQuery) -> Ticket {
        let (tx, rx) = chan::oneshot::<Response>();
        let submitted = Instant::now();
        let entry = Entry {
            query,
            reply: tx,
            submitted,
        };
        if self.submit_tx.send(Admit::Query(entry)).is_ok() {
            self.telemetry.submitted.inc();
        }
        Ticket { rx, submitted }
    }

    /// The always-on live telemetry (window snapshots, tail traces).
    pub fn telemetry(&self) -> &Arc<ServiceTelemetry> {
        &self.telemetry
    }

    /// Number of engine shards actually running (after clamping to the POI
    /// count).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The observability handle every phase reports into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Stops accepting queries, drains everything in flight, and joins
    /// every service thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.submit_tx.close();
        for pool in &mut self.pools {
            pool.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Admission's decision for the tile it holds.
#[derive(Debug, PartialEq)]
enum Next {
    /// Flush the held tile now.
    Flush,
    /// Keep holding: re-decide on the next message, or after this long
    /// (`None` while nothing is held, so there is no deadline).
    Wait(Option<Duration>),
}

/// The admission rule, work-conserving with ceilings. Every flush occupies
/// one worker on every shard, so while fewer than `config.workers` flushes
/// are in flight a held tile flushes at once. Otherwise it is held until a
/// flush drains (the caller re-decides with one fewer in flight), it
/// reaches `max_batch`, or its oldest query has waited `max_delay`.
fn admit_next(held: usize, oldest_age: Duration, in_flight: usize, config: &ServiceConfig) -> Next {
    if held == 0 {
        Next::Wait(None)
    } else if in_flight < config.workers
        || held >= config.max_batch
        || oldest_age >= config.max_delay
    {
        Next::Flush
    } else {
        Next::Wait(Some(config.max_delay - oldest_age))
    }
}

/// Admission: hold submissions in a tile until [`admit_next`] flushes it,
/// order it along the Hilbert curve, scatter it to every shard.
fn admission_loop(
    submit_rx: &Receiver<Admit>,
    shard_txs: &[Sender<Task>],
    merge_tx: &Sender<MergeMsg>,
    order_shard: &Shard,
    config: &ServiceConfig,
    obs: &Obs,
    telemetry: &ServiceTelemetry,
) {
    let mut flush_id = 0u64;
    let mut in_flight = 0usize;
    let mut held: Vec<Entry> = Vec::new();
    let mut admit_span = None;
    loop {
        let oldest_age = held
            .first()
            .map_or(Duration::ZERO, |e| e.submitted.elapsed());
        let received = match admit_next(held.len(), oldest_age, in_flight, config) {
            Next::Flush => None,
            Next::Wait(None) => Some(submit_rx.recv()),
            Next::Wait(Some(deadline)) => Some(submit_rx.recv_timeout(deadline)),
        };
        match received {
            Some(Ok(Admit::Query(entry))) => {
                admit_span.get_or_insert_with(|| obs.span("admit", SpanId::NONE));
                held.push(entry);
                continue;
            }
            Some(Ok(Admit::Drained)) => {
                in_flight -= 1;
                continue;
            }
            // The oldest query's deadline passed: re-decide.
            Some(Err(RecvError::Timeout)) => continue,
            // Closed and drained: every entry was flushed.
            Some(Err(RecvError::Closed)) if held.is_empty() => return,
            // Closed: flush what is held, then the next receive returns.
            Some(Err(RecvError::Closed)) | None => {}
        }
        // Take what is already queued, without blocking, up to the ceiling.
        while held.len() < config.max_batch {
            match submit_rx.try_recv() {
                Ok(Admit::Query(entry)) => held.push(entry),
                Ok(Admit::Drained) => in_flight -= 1,
                Err(_) => break,
            }
        }
        let batch = std::mem::take(&mut held);
        let filled = batch.len() >= config.max_batch;
        let admit_span = admit_span.take().expect("a held tile has an admit span");
        flush_id += 1;
        admit_span.set_attrs(vec![
            ("flush".into(), flush_id.into()),
            ("batch".into(), batch.len().into()),
            ("filled".into(), filled.into()),
        ]);
        drop(admit_span);
        // The admission clock: flush counting drives window rotation — no
        // wall-clock reads, deterministic under seeded test streams.
        telemetry.on_flush(flush_id, filled);

        let tile_span = obs.span("tile", SpanId::NONE);
        let queries: Vec<KnntaQuery> = batch.iter().map(|e| e.query).collect();
        let order = order_shard.frozen.batch_order(&queries, BatchOrder::Hilbert);
        let mut slots: Vec<Option<Entry>> = batch.into_iter().map(Some).collect();
        let entries: Vec<Entry> = order
            .iter()
            .map(|&i| slots[i].take().expect("batch_order is a permutation"))
            .collect();
        let ordered = Arc::new(entries.iter().map(|e| e.query).collect::<Vec<_>>());
        let bounds: Arc<[SharedBound]> = ordered.iter().map(|_| SharedBound::new()).collect();
        tile_span.set_attrs(vec![
            ("flush".into(), flush_id.into()),
            ("batch".into(), entries.len().into()),
        ]);

        // Manifest first: its queue position precedes every shard result
        // (workers can only respond to tasks sent after it), so the merger
        // always sees the manifest before the first ShardDone.
        let manifest_sent = merge_tx
            .send(MergeMsg::Manifest {
                flush: flush_id,
                entries,
                shards: shard_txs.len(),
                flushed_at: Instant::now(),
            })
            .is_ok();
        if manifest_sent {
            in_flight += 1;
            for tx in shard_txs {
                let _ = tx.send(Task {
                    flush: flush_id,
                    queries: ordered.clone(),
                    bounds: bounds.clone(),
                });
            }
        }
        drop(tile_span);
    }
}

/// One shard worker: drain tasks, execute through the planner-driven
/// executor under the flush's shared bounds, report to the merger. A caught
/// panic becomes this tile's failure; the executor stays valid (calibration
/// feeds back only after a successful execution) and serves the next task.
fn worker_loop(
    shard: &Shard,
    rx: &Receiver<Task>,
    merge_tx: &Sender<MergeMsg>,
    root_max: &AggregateSeries,
    config: &ServiceConfig,
    obs: &Obs,
    telemetry: &ServiceTelemetry,
) {
    let mut exec = Executor::frozen(&shard.frozen)
        .with_root_max(root_max)
        .with_windows(telemetry.windows());
    while let Ok(task) = rx.recv() {
        telemetry.set_queue_depth(shard.id, rx.len());
        let exec_start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = &config.fault_hook {
                hook(shard.id, task.flush);
            }
            let span = obs.span("scatter", SpanId::NONE);
            span.set_attrs(vec![
                ("flush".into(), task.flush.into()),
                ("shard".into(), shard.id.into()),
                ("batch".into(), task.queries.len().into()),
            ]);
            exec.query_tile(&task.queries, &task.bounds)
        }));
        let _ = merge_tx.send(MergeMsg::ShardDone {
            flush: task.flush,
            shard: shard.id,
            outcome: outcome.map_err(Failure::from_payload),
            exec_ns: exec_start.elapsed().as_nanos() as u64,
            finished: Instant::now(),
        });
    }
}

/// Merger: gather per-shard results per flush, tell admission the flush
/// drained, merge under the global total order, answer every ticket.
fn merger_loop(
    rx: &Receiver<MergeMsg>,
    drained_tx: &Sender<Admit>,
    obs: &Obs,
    telemetry: &ServiceTelemetry,
) {
    struct Pending {
        entries: Vec<Entry>,
        flushed_at: Instant,
        results: Vec<Option<Result<Vec<Vec<QueryHit>>, Failure>>>,
        // Per-shard (exec_ns, finished), same indexing as results.
        execs: Vec<Option<(u64, Instant)>>,
    }
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            MergeMsg::Manifest {
                flush,
                entries,
                shards,
                flushed_at,
            } => {
                pending.insert(
                    flush,
                    Pending {
                        entries,
                        flushed_at,
                        results: (0..shards).map(|_| None).collect(),
                        execs: (0..shards).map(|_| None).collect(),
                    },
                );
            }
            MergeMsg::ShardDone {
                flush,
                shard,
                outcome,
                exec_ns,
                finished,
            } => {
                let slot = pending
                    .get_mut(&flush)
                    .expect("manifest always precedes shard results");
                slot.results[shard] = Some(outcome);
                slot.execs[shard] = Some((exec_ns, finished));
                if !slot.results.iter().all(Option::is_some) {
                    continue;
                }
                let done = pending.remove(&flush).expect("present above");
                // Every shard of this flush has freed its worker. After
                // shutdown the channel is closed and admission needs no
                // notice.
                let _ = drained_tx.send(Admit::Drained);
                // Per-shard attribution for this flush: scatter is the
                // slowest shard execution; queueing is whatever of the
                // post-flush wall time the executions themselves don't
                // explain.
                let execs: Vec<(u64, Instant)> = done
                    .execs
                    .iter()
                    .map(|e| e.expect("all shards reported"))
                    .collect();
                let execs_us: Vec<u64> = execs.iter().map(|&(ns, _)| ns / 1_000).collect();
                telemetry.record_flush_execs(&execs_us);
                let scatter_us = execs_us.iter().copied().max().unwrap_or(0);
                let last_finish = execs
                    .iter()
                    .map(|&(_, finished)| finished)
                    .max()
                    .unwrap_or(done.flushed_at);
                let queue_us = (last_finish
                    .saturating_duration_since(done.flushed_at)
                    .as_micros() as u64)
                    .saturating_sub(scatter_us);
                let span = obs.span("merge", SpanId::NONE);
                span.set_attrs(vec![
                    ("flush".into(), flush.into()),
                    ("batch".into(), done.entries.len().into()),
                    ("shards".into(), done.results.len().into()),
                ]);
                let mut lists = Vec::with_capacity(done.results.len());
                let mut failure: Option<Failure> = None;
                for outcome in done.results.into_iter().flatten() {
                    match outcome {
                        Ok(list) => lists.push(list),
                        Err(f) => {
                            // Keep the first failure's payload; later ones
                            // carry the same panic.
                            failure.get_or_insert(f);
                        }
                    }
                }
                match failure {
                    None => {
                        for (i, entry) in done.entries.into_iter().enumerate() {
                            let per_shard: Vec<Vec<QueryHit>> =
                                lists.iter().map(|l| l[i].clone()).collect();
                            let hits = merge_ranked(&per_shard, entry.query.k);
                            let completed = Instant::now();
                            let total_us = completed
                                .saturating_duration_since(entry.submitted)
                                .as_micros() as u64;
                            let admit_us = done
                                .flushed_at
                                .saturating_duration_since(entry.submitted)
                                .as_micros() as u64;
                            // Merge picks up the remainder so the four
                            // segments always sum to the end-to-end time.
                            let merge_us = total_us
                                .saturating_sub(admit_us + queue_us + scatter_us);
                            telemetry.record_query(
                                flush,
                                entry.query.k,
                                total_us,
                                admit_us,
                                queue_us,
                                scatter_us,
                                merge_us,
                                &execs_us,
                            );
                            let _ = entry.reply.send(Response {
                                result: Ok(hits),
                                completed,
                            });
                        }
                    }
                    Some(mut f) => {
                        // Every ticket of the tile fails, counted once
                        // each; the first gets the original payload, the
                        // rest its message.
                        for entry in done.entries {
                            telemetry.on_failure();
                            let _ = entry.reply.send(Response {
                                result: Err(Failure {
                                    message: f.message.clone(),
                                    payload: f.payload.take(),
                                }),
                                completed: Instant::now(),
                            });
                        }
                    }
                }
            }
        }
    }
    // Channel closed: admission and every worker are done, so nothing can
    // still be pending — but if a flush somehow is, dropping it closes its
    // response slots and wakes the waiters with an error instead of a hang.
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    fn config(workers: usize, max_batch: usize, max_delay: Duration) -> ServiceConfig {
        ServiceConfig {
            workers,
            max_batch,
            max_delay,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn idle_pipeline_flushes_on_first_arrival() {
        let cfg = config(2, 64, us(200));
        assert_eq!(admit_next(0, us(0), 0, &cfg), Next::Wait(None));
        assert_eq!(admit_next(1, us(0), 0, &cfg), Next::Flush);
        // One flush in flight still leaves a worker per shard free.
        assert_eq!(admit_next(1, us(0), 1, &cfg), Next::Flush);
    }

    #[test]
    fn busy_pipeline_holds_until_drained_full_or_due() {
        let cfg = config(1, 4, us(200));
        assert_eq!(admit_next(0, us(0), 1, &cfg), Next::Wait(None));
        assert_eq!(admit_next(1, us(50), 1, &cfg), Next::Wait(Some(us(150))));
        assert_eq!(admit_next(3, us(199), 1, &cfg), Next::Wait(Some(us(1))));
        // A drained notice frees the pipeline.
        assert_eq!(admit_next(1, us(50), 0, &cfg), Next::Flush);
        // Both ceilings hold however many flushes are in flight.
        assert_eq!(admit_next(4, us(0), 1, &cfg), Next::Flush);
        assert_eq!(admit_next(1, us(200), 1, &cfg), Next::Flush);
        assert_eq!(admit_next(4, us(0), 5, &cfg), Next::Flush);
        assert_eq!(admit_next(1, us(300), 5, &cfg), Next::Flush);
    }

    /// One flushed tile of [`simulate`]: the virtual time of the flush and
    /// the arrival time of each member.
    struct Tile {
        at: u64,
        members: Vec<u64>,
    }

    /// Drives [`admit_next`] the way `admission_loop` does, on a virtual
    /// clock in µs: `arrivals` (ascending) are submissions, and every flush
    /// sends its drained notice `exec_us` after dispatch. One message is
    /// delivered per decision; a flush first takes every arrival already
    /// due, up to `max_batch`. A sound rule makes at most four steps per
    /// arrival (its delivery, and per non-empty flush: the flush, its
    /// drained notice, one deadline), so a rule that stalls fails here.
    fn simulate(arrivals: &[u64], exec_us: u64, cfg: &ServiceConfig) -> Vec<Tile> {
        let (mut now, mut next) = (0u64, 0usize);
        let mut held: Vec<u64> = Vec::new();
        let mut drains: Vec<u64> = Vec::new();
        let mut tiles = Vec::new();
        let arrived = |next: usize, now: u64| arrivals.get(next).is_some_and(|&a| a <= now);
        for _ in 0..=4 * arrivals.len() {
            let age = held.first().map_or(0, |&t| now - t);
            match admit_next(held.len(), us(age), drains.len(), cfg) {
                Next::Flush => {
                    while held.len() < cfg.max_batch && arrived(next, now) {
                        held.push(arrivals[next]);
                        next += 1;
                    }
                    tiles.push(Tile {
                        at: now,
                        members: std::mem::take(&mut held),
                    });
                    drains.push(now + exec_us);
                }
                Next::Wait(deadline) => {
                    let due = [
                        arrivals.get(next).copied(),
                        drains.iter().copied().min(),
                        deadline.map(|d| now + d.as_micros() as u64),
                    ];
                    let Some(t) = due.into_iter().flatten().min() else {
                        return tiles;
                    };
                    now = now.max(t);
                    if let Some(i) = drains.iter().position(|&d| d <= now) {
                        drains.swap_remove(i);
                    } else if arrived(next, now) {
                        held.push(arrivals[next]);
                        next += 1;
                    }
                }
            }
        }
        panic!("admission stalled: more than four steps per arrival");
    }

    /// On virtual time, over random arrival streams and pipelines: every
    /// query lands in exactly one tile in submission order, no tile exceeds
    /// `max_batch`, no query is held past `max_delay`, and a query that
    /// finds the pipeline idle and nothing held flushes the instant it
    /// arrives.
    #[test]
    fn virtual_time_tiles_respect_both_ceilings() {
        knnta_util::prop::check("service_admission_virtual_time", 200, |g| {
            let cfg = config(
                g.usize_in(1..4),
                g.usize_in(1..17),
                us(g.u64_in(0..400)),
            );
            let exec_us = g.u64_in(0..600);
            let mut t = 0u64;
            let arrivals = g.vec(1, 200, |g| {
                t += g.u64_in(0..60);
                t
            });
            let tiles = simulate(&arrivals, exec_us, &cfg);
            let served: Vec<u64> = tiles.iter().flat_map(|t| t.members.clone()).collect();
            assert_eq!(served, arrivals, "every query in one tile, FIFO");
            let max_delay = cfg.max_delay.as_micros() as u64;
            for tile in &tiles {
                assert!((1..=cfg.max_batch).contains(&tile.members.len()));
                assert!(tile.at - tile.members[0] <= max_delay, "held past max_delay");
            }
            // With no flush ever in flight at an arrival, nothing waits.
            let cfg_idle = config(arrivals.len(), cfg.max_batch, cfg.max_delay);
            for tile in simulate(&arrivals, exec_us, &cfg_idle) {
                assert_eq!(tile.at, tile.members[0], "an idle pipeline waited");
            }
        });
    }
}
