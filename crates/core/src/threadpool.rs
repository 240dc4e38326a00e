//! The per-mount I/O engine: a fixed set of workers behind one job queue.
//!
//! Both the write-buffering and the prefetching protocols "work with thread
//! pools to implement concurrent communication to the remote nodes"
//! (paper §3.2.2). One [`IoEngine`] per mount runs the write-buffer
//! drains and the prefetch window jobs of every open file — the thread
//! count is fixed per mount (`MemFsConfig::io_threads`), no matter how
//! many files are open. The engine does *not* spread a batched call over
//! the servers: each job makes its `set_many` / `get_many` call and the
//! pool's submit window keeps every server busy from that one thread.
//!
//! Jobs are fire-and-forget. Nothing waits *on the engine*: a
//! `WriteBuffer` or `StripeReader` that needs a job's result waits on its
//! own condvar, and no job submits a job it then waits for, so a plain
//! queue cannot wedge however few workers it has.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct EngineState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

/// Queue + signalling shared by workers and submitters.
struct EngineShared {
    state: Mutex<EngineState>,
    /// Woken on new work and on shutdown.
    cv: Condvar,
}

impl EngineShared {
    /// One worker: pop and run jobs until shutdown finds the queue empty
    /// (a non-empty queue is always drained first).
    fn work(&self) {
        let mut state = self.state.lock();
        loop {
            if let Some(job) = state.queue.pop_front() {
                drop(state);
                job();
                state = self.state.lock();
            } else if state.shutdown {
                return;
            } else {
                self.cv.wait(&mut state);
            }
        }
    }
}

/// A fixed-size shared worker pool.
///
/// Dropping the engine drains the remaining queue (a mount being dropped
/// must not lose buffered stripes) and joins the workers.
pub struct IoEngine {
    shared: Arc<EngineShared>,
    workers: Vec<JoinHandle<()>>,
}

impl IoEngine {
    /// Spawn `size` workers named `name-<i>`.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize, name: &str) -> Self {
        assert!(size > 0, "io engine needs at least one worker");
        let shared = Arc::new(EngineShared {
            state: Mutex::new(EngineState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let workers = (0..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || shared.work())
                    .expect("spawn engine worker")
            })
            .collect();
        IoEngine { shared, workers }
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Queue a job. Jobs are accepted even while the engine is shutting
    /// down; the drop-side drain runs them.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.shared.state.lock().queue.push_back(Box::new(job));
        self.shared.cv.notify_one();
    }
}

impl Drop for IoEngine {
    fn drop(&mut self) {
        self.shared.state.lock().shutdown = true;
        self.shared.cv.notify_all();
        // The last Arc to a pool riding this engine can be dropped *by a
        // queued job*, i.e. on one of our own workers: joining ourselves
        // would deadlock, so that one thread is detached instead (it still
        // drains and exits on its own; there is no caller left to wait).
        let me = std::thread::current().id();
        for w in self.workers.drain(..) {
            if w.thread().id() != me {
                let _ = w.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_all_jobs() {
        let engine = IoEngine::new(4, "test");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            engine.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(engine); // waits for completion
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn jobs_run_concurrently() {
        use std::sync::{Condvar, Mutex};
        let engine = IoEngine::new(2, "conc");
        let rendezvous = Arc::new((Mutex::new(0usize), Condvar::new()));
        // Two jobs that each wait for the other: only completes if the
        // engine really runs two jobs in parallel.
        for _ in 0..2 {
            let r = Arc::clone(&rendezvous);
            engine.execute(move || {
                let (lock, cv) = &*r;
                let mut n = lock.lock().unwrap();
                *n += 1;
                cv.notify_all();
                while *n < 2 {
                    n = cv.wait(n).unwrap();
                }
            });
        }
        drop(engine);
        assert_eq!(*rendezvous.0.lock().unwrap(), 2);
    }

    #[test]
    fn drop_drains_queue() {
        let engine = IoEngine::new(1, "drain");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            engine.execute(move || {
                std::thread::yield_now();
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(engine);
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        IoEngine::new(0, "bad");
    }
}
