//! A persistent pool of fetcher threads for ranged retrieval.
//!
//! A [`FetcherPool`] is created once per store site and reused for every
//! chunk read against that site ([`crate::fetch`]): range-read tasks go down
//! a channel, a fixed set of workers executes them, and the submitting thread
//! collects the filled buffers through its own completion channel — no spawn
//! and join per retrieval, thousands of times per run.
//!
//! Tasks must never block on *other pool tasks* (ours are leaf range reads,
//! which only block on storage), so a bounded pool can be shared by any
//! number of concurrent fetchers without deadlock — excess tasks just
//! queue.

use crossbeam::channel::{unbounded, Sender};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of threads executing boxed fetch tasks.
///
/// Dropping the pool closes the task channel and joins every worker, so a
/// pool can never outlive its owner with tasks still running.
pub struct FetcherPool {
    tx: Option<Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
}

impl FetcherPool {
    /// Spawn a pool of `threads` workers (at least one).
    #[must_use]
    pub fn new(threads: usize) -> FetcherPool {
        let threads = threads.max(1);
        let (tx, rx) = unbounded::<Task>();
        let workers = (0..threads)
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("fetcher-{i}"))
                    .spawn(move || {
                        // Channel closed (pool dropped) ends the worker; a
                        // task that panics (a store's read) does not, or the
                        // pool would shrink for good and `execute` panic once
                        // the last worker is gone. The unwind drops what the
                        // task captured — its completion sender, which is
                        // how the submitting fetch learns.
                        while let Ok(task) = rx.recv() {
                            let _ = catch_unwind(AssertUnwindSafe(task));
                        }
                    })
                    .expect("spawn fetcher thread")
            })
            .collect();
        FetcherPool { tx: Some(tx), workers }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submit a task for execution on some pool worker.
    pub fn execute(&self, task: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool channel open while not dropped")
            .send(Box::new(task))
            .expect("fetcher workers alive while pool not dropped");
    }
}

impl Drop for FetcherPool {
    fn drop(&mut self) {
        // Close the channel so workers drain the queue and exit.
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for FetcherPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FetcherPool").field("threads", &self.workers.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_every_submitted_task() {
        let pool = FetcherPool::new(4);
        let done = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = unbounded();
        for _ in 0..100 {
            let done = done.clone();
            let tx = tx.clone();
            pool.execute(move || {
                done.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..100 {
            rx.recv().unwrap();
        }
        assert_eq!(done.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn drop_joins_after_draining_the_queue() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = FetcherPool::new(2);
            for _ in 0..50 {
                let done = done.clone();
                pool.execute(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // drop: queue drained, workers joined
        assert_eq!(done.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn zero_threads_is_clamped_to_one() {
        assert_eq!(FetcherPool::new(0).threads(), 1);
    }
}
