//! The per-mount I/O engine: one bounded worker pool for background jobs.
//!
//! Both the write-buffering and the prefetching protocols "work with thread
//! pools to implement concurrent communication to the remote nodes"
//! (paper §3.2.2). One [`IoEngine`] per mount runs the write-buffer
//! drains, the prefetch window jobs and the batched unlink rounds of
//! every open file — the thread count is fixed per mount
//! (`MemFsConfig::io_threads`), no matter how many files are open. The
//! engine does *not* spread a batched call over the servers: each job
//! makes its `set_many` / `get_many` / `delete_many` call and the pool's
//! submit window keeps every server busy from that one thread.
//!
//! A caller that waits on a [`TaskGroup`] (an unlink waiting on its
//! delete rounds) may find every worker busy with other files' drains
//! and prefetches, its own jobs still queued behind them. The group
//! therefore **helps while waiting**: a thread blocked on a group pops
//! queued engine jobs and runs them itself until its group completes.
//! Any waiter makes global progress, so a single worker — or even zero
//! free workers, or a job that itself waits on a group — cannot wedge
//! the engine.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct EngineState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

/// Queue + signalling shared by workers, submitters, and helping waiters.
struct EngineShared {
    state: Mutex<EngineState>,
    /// Woken on new work, on shutdown, and on task-group completion (the
    /// helping wait blocks on the same condvar as the workers, so a
    /// group finishing must be able to wake it).
    cv: Condvar,
}

impl EngineShared {
    /// Pop-or-wait loop shared by workers and helping waiters. Returns
    /// `None` when `stop` says to give up (worker shutdown / group done).
    fn next_job(&self, stop: impl Fn(&EngineState) -> bool) -> Option<Job> {
        let mut state = self.state.lock();
        loop {
            if let Some(job) = state.queue.pop_front() {
                return Some(job);
            }
            if stop(&state) {
                return None;
            }
            self.cv.wait(&mut state);
        }
    }
}

/// A fixed-size shared worker pool with deadlock-free nested waiting.
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
                    .spawn(move || {
                        // Shutdown with an empty queue is the exit signal;
                        // a non-empty queue is always drained first.
                        while let Some(job) = shared.next_job(|state| state.shutdown) {
                            job();
                        }
                    })
                    .expect("spawn engine worker")
            })
            .collect();
        IoEngine { shared, workers }
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Queue a job. Jobs submitted from inside other jobs (nested fan-out)
    /// are accepted even while the engine is shutting down; the drop-side
    /// drain runs them.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        let mut state = self.shared.state.lock();
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.cv.notify_one();
    }

    /// A completion group for `n` jobs about to be submitted. Each job
    /// calls [`TaskGroup::done`]; the submitter calls [`TaskGroup::wait`],
    /// which runs queued engine jobs while it waits.
    pub fn group(&self, n: usize) -> Arc<TaskGroup> {
        Arc::new(TaskGroup {
            remaining: AtomicUsize::new(n),
            shared: Arc::clone(&self.shared),
        })
    }
}

impl Drop for IoEngine {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
        }
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

/// Completion rendezvous for a batch of engine jobs.
///
/// An unlink queues all but one of a wave's delete rounds on the engine,
/// runs the last itself, then waits here for the rest. Unlike a plain
/// waitgroup, [`TaskGroup::wait`] *helps*: while its jobs are still
/// queued it pops and runs engine jobs (its own or anyone's), so a
/// waiter never idles behind other files' jobs and a job that itself
/// waits on a group cannot wedge a small pool.
pub struct TaskGroup {
    remaining: AtomicUsize,
    shared: Arc<EngineShared>,
}

impl TaskGroup {
    /// Record one completion.
    pub fn done(&self) {
        let prev = self.remaining.fetch_sub(1, Ordering::AcqRel);
        assert!(prev > 0, "more done() calls than group size");
        if prev == 1 {
            // Lock-then-notify so a waiter that just checked the counter
            // under the lock cannot miss the wakeup.
            drop(self.shared.state.lock());
            self.shared.cv.notify_all();
        }
    }

    /// Whether every expected completion has been recorded.
    pub fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// Block until the group completes, running queued engine jobs while
    /// waiting (the deadlock-freedom guarantee for nested submissions).
    pub fn wait(&self) {
        while !self.is_done() {
            match self.shared.next_job(|_| self.is_done()) {
                Some(job) => job(),
                None => return,
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

    #[test]
    fn task_group_blocks_until_all_done() {
        let engine = IoEngine::new(4, "wg");
        let tg = engine.group(8);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let tg = Arc::clone(&tg);
            let c = Arc::clone(&counter);
            engine.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
                tg.done();
            });
        }
        tg.wait();
        // wait() returning proves every job ran, before the engine drops.
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn task_group_of_zero_never_blocks() {
        let engine = IoEngine::new(1, "zero");
        engine.group(0).wait();
    }

    #[test]
    fn nested_groups_on_one_worker_cannot_deadlock() {
        // A single-worker engine runs an outer job that submits two inner
        // jobs and waits for them. A non-helping pool would deadlock: the
        // only worker is inside the outer job. The helping wait runs the
        // inner jobs on the blocked thread itself.
        let engine = Arc::new(IoEngine::new(1, "nested"));
        let outer = engine.group(1);
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let engine = Arc::clone(&engine);
            let outer = Arc::clone(&outer);
            let hits = Arc::clone(&hits);
            engine.clone().execute(move || {
                let inner = engine.group(2);
                for _ in 0..2 {
                    let inner = Arc::clone(&inner);
                    let hits = Arc::clone(&hits);
                    engine.execute(move || {
                        hits.fetch_add(1, Ordering::SeqCst);
                        inner.done();
                    });
                }
                inner.wait();
                outer.done();
            });
        }
        outer.wait();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn waiters_help_even_with_all_workers_blocked() {
        // Two workers, both occupied by outer jobs that each wait on an
        // inner job; the inner jobs are queued behind them. Progress
        // requires the blocked outer jobs to help.
        let engine = Arc::new(IoEngine::new(2, "helpers"));
        let all = engine.group(2);
        for _ in 0..2 {
            let engine = Arc::clone(&engine);
            let all = Arc::clone(&all);
            engine.clone().execute(move || {
                let inner = engine.group(1);
                {
                    let inner = Arc::clone(&inner);
                    engine.execute(move || inner.done());
                }
                inner.wait();
                all.done();
            });
        }
        all.wait();
    }
}
