//! A fixed-size thread pool over [`crate::chan`] (replaces `rayon`/`tokio`
//! for the query service's long-running loops).
//!
//! A [`ThreadPool`] owns its workers for the lifetime of a service: jobs
//! are `'static` closures pushed onto an MPMC queue, workers drain it until
//! shutdown, and
//! [`ThreadPool::join`] drains remaining jobs before the workers exit —
//! matching the service contract that accepted work is never dropped.
//!
//! A worker that panics does **not** take the pool down: the panic is caught
//! at the job boundary and recorded; [`ThreadPool::take_panic`] hands the
//! first payload back so a supervisor can decide to resume it. Job closures
//! that need panic *propagation* (the service's shard executions) wrap their
//! own `catch_unwind` and ship the payload through a response channel
//! instead.

use crate::chan::{self, Receiver, Sender};
use crate::sync::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A panic payload captured from a pool worker.
pub type PanicPayload = Box<dyn Any + Send + 'static>;

/// A fixed set of worker threads draining a shared job queue.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    panics: Arc<Mutex<Vec<PanicPayload>>>,
}

impl ThreadPool {
    /// Spawns `threads` workers (at least one) named `<name>-<i>`.
    pub fn new(name: &str, threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = chan::channel::<Job>();
        let panics: Arc<Mutex<Vec<PanicPayload>>> = Arc::new(Mutex::new(Vec::new()));
        let workers = (0..threads)
            .map(|i| {
                let rx: Receiver<Job> = rx.clone();
                let panics = panics.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                                panics.lock().push(payload);
                            }
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            sender: Some(tx),
            workers,
            panics,
        }
    }

    /// Enqueues a job. Returns `Err` (with the job) after [`ThreadPool::join`].
    pub fn execute<F>(&self, job: F) -> Result<(), Job>
    where
        F: FnOnce() + Send + 'static,
    {
        match &self.sender {
            Some(tx) => tx.send(Box::new(job)),
            None => Err(Box::new(job)),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Closes the queue and waits for the workers to drain every queued job.
    pub fn join(&mut self) {
        if let Some(tx) = self.sender.take() {
            tx.close();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Removes and returns the earliest captured worker panic, if any.
    pub fn take_panic(&self) -> Option<PanicPayload> {
        let mut panics = self.panics.lock();
        if panics.is_empty() {
            None
        } else {
            Some(panics.remove(0))
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_jobs_on_all_workers_and_drains_on_join() {
        let count = Arc::new(AtomicUsize::new(0));
        let mut pool = ThreadPool::new("t", 4);
        for _ in 0..100 {
            let count = count.clone();
            assert!(pool
                .execute(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                })
                .is_ok());
        }
        pool.join();
        assert_eq!(count.load(Ordering::Relaxed), 100);
        assert!(pool.execute(|| {}).is_err());
    }

    #[test]
    fn worker_panic_is_captured_and_pool_survives() {
        let mut pool = ThreadPool::new("t", 2);
        assert!(pool.execute(|| panic!("boom")).is_ok());
        let done = Arc::new(AtomicUsize::new(0));
        {
            let done = done.clone();
            assert!(pool
                .execute(move || {
                    done.fetch_add(1, Ordering::Relaxed);
                })
                .is_ok());
        }
        pool.join();
        assert_eq!(done.load(Ordering::Relaxed), 1);
        let payload = pool.take_panic().expect("panic captured");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom");
        assert!(pool.take_panic().is_none());
    }
}
