//! # knnta-service — the async sharded query service
//!
//! A server loop in front of the kNNTA engine, turning continuously
//! arriving queries into the locality-tiled collective executions the
//! batch scheme (Section 7.2) makes fast — with zero dependencies beyond
//! the workspace: the executor is [`knnta_util::pool::ThreadPool`] over
//! [`knnta_util::chan`] channels, no external async runtime.
//!
//! ## Pipeline
//!
//! ```text
//! submit() ──► admission ──► shard 0 workers ─┐
//!              (tile by     shard 1 workers ──┼──► merger ──► Ticket
//!               Hilbert,         ...          │
//!               flush on    shard N-1 workers ┘
//!               size or
//!               deadline)
//! ```
//!
//! * **Admission** accumulates in-flight queries into a batch and flushes
//!   when the batch reaches `max_batch` queries or the oldest query has
//!   waited `max_delay` (deadline-or-size). Each flush is ordered along
//!   the 3-D Hilbert curve ([`knnta_core::BatchOrder::Hilbert`]) so the
//!   collective execution inside every shard walks a locality tile — the
//!   streaming generalisation of the static batches of PR 4.
//! * **Shards**: the POI set is partitioned across `shards` engine shards
//!   by [`knnta_core::partition_pois`] (contiguous Hilbert runs). Every
//!   shard is a [`knnta_core::FrozenIndex`] — a packed image plus metadata,
//!   bulk-built straight from the shard's POIs **with the global grid and
//!   global bounds**, no R\*-tree — and executes through a
//!   [`knnta_core::Executor`]
//!   (cost-model planner + EWMA calibration, per shard) seeded with the
//!   **global root-max** series ([`knnta_core::Executor::with_root_max`])
//!   so per-shard scores are bit-identical to the unsharded tree's.
//! * **Merge**: per-shard top-k lists are merged by
//!   [`knnta_core::merge_ranked`] under the global `(score, PoiId)` total
//!   order. `tests/service_oracle.rs` is the differential proof that the
//!   whole pipeline is bit-identical to one-at-a-time unsharded execution.
//! * **Faults**: a shard worker panic is caught at the execution boundary
//!   and fails exactly the tickets of the tile that hit it, each counted
//!   once ([`telemetry::W_FAILURES`]): one ticket resumes the original panic payload
//!   through [`Ticket::wait`] via `resume_unwind` (the workspace's
//!   parallel-search convention), the rest get its message. A shard image
//!   is immutable and the kernel deterministic, so running the tile again
//!   could only panic again: the worker keeps serving the same image with
//!   the same executor. In-flight queries never hang: every code path
//!   either answers the ticket or drops its response slot, which wakes the
//!   waiter with an error.
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
    Poi, QueryHit,
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
    /// Worker threads per shard.
    pub workers: usize,
    /// Admission flushes when this many queries are waiting…
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

/// One shard execution: a flushed tile, in Hilbert order.
struct Task {
    flush: u64,
    queries: Arc<Vec<KnntaQuery>>,
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
    submit_tx: Sender<Entry>,
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

        let (submit_tx, submit_rx) = chan::channel::<Entry>();
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
            let obs = obs.clone();
            let telemetry = telemetry.clone();
            let queued = merge_pool.execute(move || merger_loop(&merge_rx, &obs, &telemetry));
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
        if self.submit_tx.send(entry).is_ok() {
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

/// Admission: accumulate submissions into a tile, flush on size or
/// deadline, order along the Hilbert curve, scatter to every shard.
fn admission_loop(
    submit_rx: &Receiver<Entry>,
    shard_txs: &[Sender<Task>],
    merge_tx: &Sender<MergeMsg>,
    order_shard: &Shard,
    config: &ServiceConfig,
    obs: &Obs,
    telemetry: &ServiceTelemetry,
) {
    let mut flush_id = 0u64;
    loop {
        let first = match submit_rx.recv() {
            Ok(entry) => entry,
            Err(_) => return, // closed and drained: every entry was flushed
        };
        let admit_span = obs.span("admit", SpanId::NONE);
        let batch_started = Instant::now();
        let mut batch = vec![first];
        let mut filled = true;
        while batch.len() < config.max_batch {
            let elapsed = batch_started.elapsed();
            if elapsed >= config.max_delay {
                filled = false;
                break;
            }
            match submit_rx.recv_timeout(config.max_delay - elapsed) {
                Ok(entry) => batch.push(entry),
                Err(RecvError::Timeout) => {
                    filled = false;
                    break;
                }
                // Closed: flush what we have, then the next recv() exits.
                Err(RecvError::Closed) => {
                    filled = false;
                    break;
                }
            }
        }
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
            for tx in shard_txs {
                let _ = tx.send(Task {
                    flush: flush_id,
                    queries: ordered.clone(),
                });
            }
        }
        drop(tile_span);
    }
}

/// One shard worker: drain tasks, execute through the planner-driven
/// executor, report to the merger. A caught panic becomes this tile's
/// failure; the executor stays valid (calibration feeds back only after a
/// successful execution) and serves the next task.
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
            if task.queries.len() == 1 {
                vec![exec.query(&task.queries[0])]
            } else {
                exec.query_batch(&task.queries)
            }
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

/// Merger: gather per-shard results per flush, merge under the global
/// total order, answer every ticket.
fn merger_loop(rx: &Receiver<MergeMsg>, obs: &Obs, telemetry: &ServiceTelemetry) {
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
