//! Persistent I/O worker pool shared across engine operations.
//!
//! The paper's engine keeps "a fixed thread pool for I/O" rather than
//! spawning threads per checkpoint: upload of staged files, split-part
//! uploads and chunked ranged reads are all *leaf jobs* submitted to one
//! per-`Checkpointer` pool sized by `io_threads`. Submitting from multiple
//! phases concurrently is what buys the overlap — a save's uploads and a
//! load's fetches interleave on the same workers without per-call
//! thread-spawn latency.
//!
//! Discipline: only leaf I/O closures run on the pool. Orchestration (a
//! save's finalize thread, the load-path communication receiver) stays on
//! dedicated threads, and a job must never submit further jobs and wait
//! for them — with `io_threads = 1` that would deadlock. Span parenting
//! across workers uses the usual `enter_context` pattern *inside* the job
//! closure (each job captures the `SpanContext` of the phase that enqueued
//! it).

use crate::{BcpError, Result};
use bcp_monitor::sync::lock;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of named I/O worker threads fed by one channel whose
/// receiver they share behind a mutex. Workers exit when the pool (and thus
/// the channel's send side) drops.
pub struct IoPool {
    tx: Sender<Job>,
    threads: usize,
}

impl IoPool {
    /// Spawn `threads` workers (at least one), named `bcp-io-{i}`.
    pub fn new(threads: usize) -> Arc<IoPool> {
        let threads = threads.max(1);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        for i in 0..threads {
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("bcp-io-{i}"))
                .spawn(move || loop {
                    // Its own statement: the guard drops before the job
                    // runs, so the other workers can take the next one.
                    let Ok(job) = lock(&rx).recv() else { return };
                    job();
                })
                .expect("spawn I/O pool worker");
        }
        Arc::new(IoPool { tx, threads })
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Submit one job; its result is delivered as `(index, result)` on
    /// `done`. A panicking job is converted into an `Err` so waiters never
    /// hang on a lost completion.
    pub fn submit<T, F>(&self, done: Sender<(usize, Result<T>)>, index: usize, job: F)
    where
        T: Send + 'static,
        F: FnOnce() -> Result<T> + Send + 'static,
    {
        self.tx
            .send(Box::new(move || {
                let out = catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|_| {
                    Err(BcpError::Corrupt("I/O pool job panicked".to_string()))
                });
                // Receiver may have given up (error path); dropping the
                // result is fine then.
                let _ = done.send((index, out));
            }))
            .expect("I/O pool workers alive while pool handle exists");
    }

    /// Run `jobs` concurrently on the pool and return their results in
    /// submission order. Blocks the calling thread (never call from inside
    /// a pool job).
    pub fn run_batch<T>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> Result<T> + Send + 'static>>,
    ) -> Vec<Result<T>>
    where
        T: Send + 'static,
    {
        let n = jobs.len();
        let (done_tx, done_rx) = channel();
        for (i, job) in jobs.into_iter().enumerate() {
            self.submit(done_tx.clone(), i, job);
        }
        drop(done_tx);
        let mut out: Vec<Option<Result<T>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            match done_rx.recv() {
                Ok((i, r)) => out[i] = Some(r),
                Err(_) => break,
            }
        }
        out.into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    Err(BcpError::Corrupt("I/O pool dropped a job result".to_string()))
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_batch_preserves_submission_order() {
        let pool = IoPool::new(4);
        let jobs: Vec<Box<dyn FnOnce() -> Result<usize> + Send>> = (0..32usize)
            .map(|i| {
                Box::new(move || {
                    if i % 3 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    Ok(i * 10)
                }) as Box<dyn FnOnce() -> Result<usize> + Send>
            })
            .collect();
        let results = pool.run_batch(jobs);
        for (i, r) in results.into_iter().enumerate() {
            assert_eq!(r.unwrap(), i * 10);
        }
    }

    #[test]
    fn jobs_actually_run_concurrently() {
        let pool = IoPool::new(4);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Box<dyn FnOnce() -> Result<()> + Send>> = (0..8)
            .map(|_| {
                let running = running.clone();
                let peak = peak.clone();
                Box::new(move || {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    running.fetch_sub(1, Ordering::SeqCst);
                    Ok(())
                }) as Box<dyn FnOnce() -> Result<()> + Send>
            })
            .collect();
        for r in pool.run_batch(jobs) {
            r.unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) > 1, "expected overlap across workers");
    }

    #[test]
    fn panicking_job_yields_error_not_hang() {
        let pool = IoPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> Result<u32> + Send>> =
            vec![Box::new(|| Ok(1)), Box::new(|| panic!("boom")), Box::new(|| Ok(3))];
        let results = pool.run_batch(jobs);
        assert_eq!(results[0].as_ref().unwrap(), &1);
        assert!(results[1].is_err());
        assert_eq!(results[2].as_ref().unwrap(), &3);
    }

    #[test]
    fn single_threaded_pool_still_completes() {
        let pool = IoPool::new(0); // clamped to 1
        assert_eq!(pool.threads(), 1);
        let jobs: Vec<Box<dyn FnOnce() -> Result<u8> + Send>> =
            vec![Box::new(|| Ok(7)), Box::new(|| Ok(8))];
        let results = pool.run_batch(jobs);
        assert_eq!(results.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>(), vec![7, 8]);
    }
}
