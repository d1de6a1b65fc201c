//! A process-wide worker pool for batched shard execution.
//!
//! `run_batched` used to spawn fresh `std::thread::scope` workers on
//! every call; repeated batched runs (sweeps, accuracy harnesses)
//! therefore paid thread creation per batch. The pool keeps finished
//! workers parked on a shared channel and grows only when a job is
//! submitted while no worker is idle, so steady-state batched execution
//! reuses the same OS threads across calls.
//!
//! Jobs are opaque `FnOnce` closures that own all their data; results
//! travel back on per-job channels owned by the submitter. A job that
//! panics is contained by the worker loop (the submitter's channel
//! simply drops), so one poisoned shard cannot take the pool down; and a
//! job the pool cannot take — no thread can be spawned for it — runs on
//! the submitting thread instead of panicking it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, SendError, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Runaway guard: more concurrent shards than this queue up behind the
/// existing workers instead of spawning new threads.
const MAX_WORKERS: usize = 256;

struct Pool {
    tx: Mutex<Sender<Job>>,
    rx: Arc<Mutex<Receiver<Job>>>,
    idle: AtomicUsize,
    spawned: AtomicUsize,
    pending: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let (tx, rx) = channel();
        Pool {
            tx: Mutex::new(tx),
            rx: Arc::new(Mutex::new(rx)),
            idle: AtomicUsize::new(0),
            spawned: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
        }
    })
}

/// Enqueue a job, spawning a new worker whenever fewer workers are
/// idle than jobs are pending (and the pool is under its cap).
///
/// The comparison must be against the *pending* count, not "is anyone
/// idle": two jobs submitted back to back can both observe the same
/// lone idle worker, and if only one worker exists the second job
/// waits until the first finishes. Counting pending jobs errs toward
/// spawning a worker that ends up parked — harmless — and never
/// under-provisions below the cap. The pool runs shard jobs and nothing
/// else: a job that blocks indefinitely holds one of [`MAX_WORKERS`]
/// workers, and past the cap every later shard queues behind it.
pub(crate) fn submit(job: Job) {
    let p = pool();
    let pending = p.pending.fetch_add(1, Ordering::AcqRel) + 1;
    if p.idle.load(Ordering::Acquire) < pending && p.spawned.load(Ordering::Acquire) < MAX_WORKERS {
        p.spawned.fetch_add(1, Ordering::AcqRel);
        let rx = Arc::clone(&p.rx);
        let spawned = std::thread::Builder::new()
            .name("c4cam-shard-worker".into())
            .spawn(move || worker_loop(&rx));
        if spawned.is_err() {
            // No thread to be had (the process is out of them): the
            // caller runs its own job rather than queue it behind
            // workers that may not exist.
            p.spawned.fetch_sub(1, Ordering::AcqRel);
            return run_here(job);
        }
    }
    // Both locks guard a single channel call, which cannot panic, so a
    // poisoned lock still guards a sound channel.
    let sent =
        p.tx.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .send(job);
    // The receiver lives in the same static as the sender: a send cannot
    // fail, and if it did the job would still run.
    if let Err(SendError(job)) = sent {
        run_here(job);
    }
}

/// Run a job that never reached the queue on the submitting thread.
fn run_here(job: Job) {
    pool().pending.fetch_sub(1, Ordering::AcqRel);
    drop(catch_unwind(AssertUnwindSafe(job)));
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        let p = pool();
        p.idle.fetch_add(1, Ordering::AcqRel);
        let job = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        p.idle.fetch_sub(1, Ordering::AcqRel);
        match job {
            // Shard jobs catch their own panics; this outer guard keeps
            // the worker (and the `spawned` accounting) alive even if a
            // job leaks one.
            Ok(job) => {
                p.pending.fetch_sub(1, Ordering::AcqRel);
                drop(catch_unwind(AssertUnwindSafe(job)));
            }
            Err(_) => return,
        }
    }
}

/// Number of pool workers spawned so far in this process — observable
/// so tests can prove batched runs reuse threads instead of spawning
/// per call.
#[cfg(test)]
pub(crate) fn pooled_workers() -> usize {
    pool().spawned.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel as mpsc_channel;
    use std::sync::{Condvar, Mutex as StdMutex};
    use std::time::Duration;

    /// Regression: jobs submitted while a worker *looks* idle must all
    /// get workers even if every one of them blocks. The old
    /// `idle == 0` spawn heuristic let two quick submissions both
    /// observe the same lone idle worker, stranding one job in the
    /// queue behind the other.
    #[test]
    fn concurrent_blocking_jobs_all_get_workers() {
        // Run a trivial job and give its worker time to park, so the
        // pool has a nonzero idle count when the blocking jobs arrive.
        let (warm_tx, warm_rx) = mpsc_channel();
        submit(Box::new(move || {
            let _ = warm_tx.send(());
        }));
        warm_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("warmup job ran");
        std::thread::sleep(Duration::from_millis(50));

        const N: usize = 4;
        let gate = Arc::new((StdMutex::new(0usize), Condvar::new()));
        let (done_tx, done_rx) = mpsc_channel();
        for _ in 0..N {
            let gate = Arc::clone(&gate);
            let done = done_tx.clone();
            submit(Box::new(move || {
                let (count, cv) = &*gate;
                let mut n = count.lock().expect("gate lock");
                *n += 1;
                cv.notify_all();
                // Block until every job holds a worker; an
                // under-provisioned pool times out with *n < N.
                while *n < N {
                    let (guard, timeout) = cv
                        .wait_timeout(n, Duration::from_secs(30))
                        .expect("gate wait");
                    n = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
                let _ = done.send(*n);
            }));
        }
        for _ in 0..N {
            let seen = done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("a blocking job stranded in the pool queue");
            assert_eq!(seen, N, "not every blocking job got its own worker");
        }
    }
}
