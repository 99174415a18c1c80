//! A shared work-stealing worker pool for intra-batch parallelism.
//!
//! A [`WorkerPool`] parallelizes maintenance *within* a round: the
//! independent `(clause, delta-position)` splits of a semi-naive round
//! (propagation, and with it Extended DRed's `P_OUT` unfolding and
//! rederivation; one driver in [`tp`][crate::tp] runs them all) are
//! tasks that only read a frozen pre-round view.
//!
//! Design, in the order it matters:
//!
//! - **Deterministic merge.** [`WorkerPool::run`] takes a `Vec` of
//!   closures and returns their results *in submission order*,
//!   whichever worker ran each one. The round driver submits a round's
//!   splits in plan order and merges the results in that order, exactly
//!   as its inline executor merges its own outputs once every split has
//!   run — pooled views and counters stay identical to inline (see
//!   [`tp`][crate::tp] for why the tasks are independent in the first
//!   place).
//! - **Work stealing.** Each worker owns a deque; submission deals
//!   tasks round-robin. A worker that drains its own queue pops from
//!   the other queues (a *steal*, counted in
//!   [`PoolMetrics::steals_total`]) before sleeping, so one long task
//!   never strands the rest of the batch behind it. The submitting
//!   thread assists too: while waiting for results it executes queued
//!   tasks itself, which keeps a 1-worker pool deadlock-free and makes
//!   `run` useful even on a machine with a single core.
//! - **Panic containment.** Every task runs under `catch_unwind`; the
//!   payload comes back to the submitting thread as that task's `Err`
//!   result (see [`WorkerPool::run`]'s contract). The round driver
//!   converts it into
//!   [`FixpointError::WorkerPanic`][crate::tp::FixpointError] — an
//!   error, not a re-panic — so a writer that submitted a doomed round
//!   rolls back through the service's ordinary error path with its
//!   mutex unpoisoned, while the pool's workers survive to serve the
//!   next batch.
//! - **No unsafe.** The crate forbids `unsafe`; workers are plain
//!   long-lived `std::thread`s and tasks are `'static` boxed closures
//!   that own (`Arc`-clone) everything they touch.
//! - **Poison-proof.** The pool's own queue, lull and hook mutexes
//!   recover from poison instead of `expect`ing on it
//!   ([`mmv_obs::sync`]): infrastructure that exists to contain panics
//!   must not itself panic on the evidence of one, and every critical
//!   section under those guards is a plain `VecDeque` push/pop, an empty
//!   wait slot or a hook call that is *expected* to panic in tests —
//!   none can leave torn state. A `run` against a poisoned pool
//!   degrades to the submitting thread draining the queues
//!   sequentially — slower, never stuck, never unwinding into the
//!   writer.
//!
//! The pool is metric-instrumented ([`PoolMetrics`]: tasks executed,
//! steals, busy workers) and carries the same test-only fault hook
//! discipline as the service: [`WorkerPool::set_fault_hook`] installs a
//! callback fired before each task, so a hook that panics exercises
//! exactly the mid-task worker panic the containment exists for.

use mmv_obs::sync::{lock_clean, wait_timeout_clean};
use mmv_obs::{Counter, Gauge, MetricsRegistry};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A queued unit of work: owns everything it touches, reports through
/// the channel it captured.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Test-only hook fired (under the containment boundary) before each
/// task, with the task's submission index.
pub type PoolFaultHook = Box<dyn FnMut(usize) + Send>;

/// Detached instruments for one pool, registered into the service's
/// [`MetricsRegistry`] like every other subsystem's.
#[derive(Clone, Debug, Default)]
pub struct PoolMetrics {
    /// Tasks executed (by workers and by assisting submitters).
    pub tasks_total: Counter,
    /// Cross-queue pops by workers that drained their own queue.
    pub steals_total: Counter,
    /// Workers currently executing a task (submitter assists are not
    /// counted — they are busy by definition).
    pub workers_busy: Gauge,
}

impl PoolMetrics {
    /// Registers the pool instruments under their `mmv_pool_` names.
    pub fn register_into(&self, registry: &MetricsRegistry) {
        registry.register_counter(
            "mmv_pool_tasks_total",
            "Worker-pool tasks executed",
            &[],
            &self.tasks_total,
        );
        registry.register_counter(
            "mmv_pool_steals_total",
            "Worker-pool cross-queue steals",
            &[],
            &self.steals_total,
        );
        registry.register_gauge(
            "mmv_pool_workers_busy",
            "Worker-pool workers currently executing a task",
            &[],
            &self.workers_busy,
        );
    }
}

/// Shared pool state: the per-worker queues and the coordination
/// primitives around them.
struct Inner {
    /// One deque per worker; submitters deal round-robin, workers pop
    /// their own first and steal from the rest.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Wakes sleeping workers on submission and shutdown.
    signal: Condvar,
    /// The mutex `signal` waits on (guards nothing but the wait).
    lull: Mutex<()>,
    /// Set once, at drop: workers drain and exit.
    shutdown: AtomicBool,
    /// Round-robin dealing cursor.
    next: AtomicUsize,
    metrics: PoolMetrics,
    /// Fast path: skip the hook mutex when no hook is installed.
    fault_armed: AtomicBool,
    fault: Mutex<Option<PoolFaultHook>>,
}

impl Inner {
    /// Pops a job: own queue first (for `home`), then every other
    /// queue. A cross-queue pop by a worker is a steal.
    fn pop(&self, home: usize, count_steals: bool) -> Option<Job> {
        let n = self.queues.len();
        for i in 0..n {
            let q = (home + i) % n;
            let job = lock_clean(&self.queues[q]).pop_front();
            if let Some(job) = job {
                if count_steals && q != home {
                    self.metrics.steals_total.inc();
                }
                return Some(job);
            }
        }
        None
    }

    /// Fires the fault hook, if armed, with the task's index. The hook
    /// runs under its mutex and is *expected* to panic in tests, so the
    /// lock recovers from poison instead of propagating it.
    fn fire_fault(&self, index: usize) {
        // order: pairs with set_fault_hook's Release so the armed hook is visible
        if self.fault_armed.load(Ordering::Acquire) {
            if let Some(hook) = lock_clean(&self.fault).as_mut() {
                hook(index);
            }
        }
    }
}

/// The long-lived worker loop: pop (stealing if needed), run, sleep.
fn worker_loop(inner: Arc<Inner>, home: usize) {
    loop {
        if let Some(job) = inner.pop(home, true) {
            inner.metrics.workers_busy.inc();
            job();
            inner.metrics.workers_busy.dec();
            continue;
        }
        // order: pairs with Drop's Release store; queue mutexes order the task handoffs
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Timed wait: a notify can race the queue check, so never sleep
        // unbounded. 1ms keeps the idle pool cheap and the wake latency
        // invisible next to a fixpoint round.
        let guard = lock_clean(&inner.lull);
        drop(wait_timeout_clean(
            &inner.signal,
            guard,
            Duration::from_millis(1),
        ));
    }
}

/// A fixed-size work-stealing thread pool.
/// See the [module docs][self] for the design; the one API that matters
/// is [`WorkerPool::run`].
pub struct WorkerPool {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            signal: Condvar::new(),
            lull: Mutex::new(()),
            shutdown: AtomicBool::new(false),
            next: AtomicUsize::new(0),
            metrics: PoolMetrics::default(),
            fault_armed: AtomicBool::new(false),
            fault: Mutex::new(None),
        });
        let workers = (0..threads)
            .map(|home| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mmv-pool-{home}"))
                    .spawn(move || worker_loop(inner, home))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { inner, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// The pool's detached instruments (clone-cheap handles).
    pub fn metrics(&self) -> &PoolMetrics {
        &self.inner.metrics
    }

    /// Installs (or clears) a test-only hook fired before each task
    /// with the task's submission index. A hook that panics exercises
    /// the worker-panic containment path end to end.
    pub fn set_fault_hook(&self, hook: Option<PoolFaultHook>) {
        self.inner
            .fault_armed
            .store(hook.is_some(), Ordering::Release); // order: publishes the armed flag to workers' Acquire fast-path check
        *lock_clean(&self.inner.fault) = hook;
    }

    /// Runs `tasks` to completion and returns their results in
    /// submission order. The submitting thread assists (executes queued
    /// tasks while waiting), so this never deadlocks and degrades
    /// gracefully to sequential on a busy or single-worker pool.
    ///
    /// Each result is a [`std::thread::Result`]: a task that panicked
    /// yields `Err(payload)` instead of tearing down its worker. The
    /// caller decides what a panic means; the round driver turns
    /// the first one (in submission order) into
    /// [`FixpointError::WorkerPanic`][crate::tp::FixpointError], which
    /// fails the batch through the service's ordinary rollback path
    /// without poisoning the submitting writer's mutex.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<std::thread::Result<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = tasks.len();
        let mut out: Vec<Option<std::thread::Result<T>>> = Vec::new();
        out.resize_with(n, || None);
        if n == 0 {
            return Vec::new();
        }
        let (tx, rx) = channel::<(usize, std::thread::Result<T>)>();
        for (index, task) in tasks.into_iter().enumerate() {
            let job = self.package(index, task, tx.clone());
            let slot = self.inner.next.fetch_add(1, Ordering::Relaxed) % self.inner.queues.len(); // order: round-robin distribution counter; fairness only, nothing to order
            lock_clean(&self.inner.queues[slot]).push_back(job);
        }
        drop(tx);
        self.inner.signal.notify_all();
        let mut received = 0;
        while received < n {
            if let Ok((index, result)) = rx.try_recv() {
                out[index] = Some(result);
                received += 1;
                continue;
            }
            // Assist: run a queued task (ours or another submitter's)
            // instead of idling. Steals by the submitter are not
            // counted — the steal metric isolates worker-side balance.
            if let Some(job) = self.inner.pop(0, false) {
                job();
                continue;
            }
            match rx.recv_timeout(Duration::from_millis(1)) {
                Ok((index, result)) => {
                    out[index] = Some(result);
                    received += 1;
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("every job owns a sender until it reports")
                }
            }
        }
        out.into_iter()
            .map(|r| r.expect("all results received"))
            .collect()
    }

    /// Boxes one task with its containment boundary and result channel.
    fn package<T, F>(
        &self,
        index: usize,
        task: F,
        tx: Sender<(usize, std::thread::Result<T>)>,
    ) -> Job
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let inner = Arc::clone(&self.inner);
        Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                inner.fire_fault(index);
                task()
            }));
            inner.metrics.tasks_total.inc();
            // The receiver can be gone only if the submitter itself
            // panicked out of `run`; the result is then moot.
            let _ = tx.send((index, result));
        })
    }
}

/// The human-readable form of a captured panic payload: `&str` and
/// `String` payloads verbatim (the overwhelmingly common case —
/// `panic!` with a message), a placeholder otherwise.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release); // order: pairs with workers' Acquire shutdown check; joins do the final sync
        self.inner.signal.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<_> = (0..64)
            .map(|i| {
                move || {
                    if i % 7 == 0 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    i * 2
                }
            })
            .collect();
        let results = pool.run(tasks);
        let values: Vec<i32> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(pool.metrics().tasks_total.get(), 64);
    }

    #[test]
    fn single_worker_pool_cannot_deadlock() {
        let pool = WorkerPool::new(1);
        let results = pool.run((0..16).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(results.len(), 16);
        assert!(results.into_iter().all(|r| r.is_ok()));
    }

    #[test]
    fn a_panicking_task_is_contained_and_indexed() {
        let pool = WorkerPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("task 3 dies");
                    }
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let results = pool.run(tasks);
        for (i, r) in results.into_iter().enumerate() {
            if i == 3 {
                assert!(r.is_err(), "task 3 panicked");
            } else {
                assert_eq!(r.unwrap(), i);
            }
        }
        // The pool survived: a follow-up batch runs clean.
        let again = pool.run(vec![|| 41usize, || 1]);
        assert_eq!(again.into_iter().map(|r| r.unwrap()).sum::<usize>(), 42);
    }

    #[test]
    fn fault_hook_panics_surface_as_task_errors() {
        let pool = WorkerPool::new(2);
        pool.set_fault_hook(Some(Box::new(|index| {
            if index == 1 {
                panic!("injected fault");
            }
        })));
        let results = pool.run(vec![|| 0usize, || 1, || 2]);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        pool.set_fault_hook(None);
        let clean = pool.run(vec![|| 7usize]);
        assert_eq!(clean[0].as_ref().copied().unwrap(), 7);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "poisons the pool locks on purpose"
    )]
    fn poisoned_queue_and_lull_locks_degrade_to_draining() {
        let pool = WorkerPool::new(2);
        // Poison a queue mutex and the lull mutex by panicking while
        // holding their guards — the only way these can ever poison,
        // since no user code runs under them in production.
        let inner = Arc::clone(&pool.inner);
        let poisoner = std::thread::spawn(move || {
            let _q = inner.queues[0].lock().unwrap();
            let _l = inner.lull.try_lock();
            panic!("poison the pool locks");
        });
        // (Not `is_poisoned()`: an idle worker's next pop may already
        // have recovered the queue lock by the time we look.)
        assert!(poisoner.join().is_err(), "died holding both guards");
        // The pool still runs every task to completion: submission,
        // worker pops, and the caller-assist drain all recover the
        // locks instead of panicking the submitting writer.
        let results = pool.run((0..32).map(|i| move || i * 3).collect::<Vec<_>>());
        let values: Vec<i32> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, (0..32).map(|i| i * 3).collect::<Vec<_>>());
        assert!(!pool.inner.queues[0].is_poisoned(), "poison cleared");
        // And panic containment still works on the recovered pool.
        let mixed = pool.run(vec![
            Box::new(|| 1usize) as Box<dyn FnOnce() -> usize + Send>,
            Box::new(|| panic!("still contained")),
        ]);
        assert!(mixed[0].is_ok() && mixed[1].is_err());
    }

    #[test]
    fn metrics_register_and_render() {
        let pool = WorkerPool::new(2);
        let _ = pool.run((0..4).map(|i| move || i).collect::<Vec<_>>());
        let reg = MetricsRegistry::new();
        pool.metrics().register_into(&reg);
        let text = reg.render_prometheus();
        assert!(text.contains("mmv_pool_tasks_total 4"), "{text}");
        assert!(text.contains("mmv_pool_steals_total"), "{text}");
        assert!(text.contains("mmv_pool_workers_busy"), "{text}");
        mmv_obs::validate_prometheus(&text).unwrap();
    }
}
