//! Admission control: a bounded queue that coalesces concurrent
//! requests into device batches.
//!
//! Requests for the same [`PlanKey`] that are pending together are
//! merged into one device execution (the compiled plan runs a fixed
//! query capacity per call, so filling it amortizes the per-batch
//! setup across requests). The dispatcher waits for work, never for a
//! clock: the moment it is idle and anything is pending it takes the
//! key whose head request is oldest and launches as much of that queue
//! as fits the plan's capacity. Batches therefore form from what
//! queued while the previous batch executed — one request on an idle
//! server runs alone and at once, a busy server fills its batches. The
//! queue is bounded: submissions past [`AdmissionConfig::queue_depth`]
//! are rejected immediately with [`AdmitError::Overloaded`] instead of
//! hanging, so overload degrades into fast structured errors.
//!
//! Determinism contract: the query loop of a compiled plan computes
//! every query row independently, so a coalesced batch produces
//! bit-identical predictions to running each request's rows alone —
//! regardless of batch size or arrival interleaving. The service
//! test-suite pins this per backend.

use crate::protocol::{bounded, PlanKey};
use crate::BatchRunner;
use c4cam_telemetry::{cat, ArgValue, Telemetry};
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// The backpressure knob.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Maximum pending requests across all keys; submissions beyond
    /// this are rejected with [`AdmitError::Overloaded`].
    pub queue_depth: usize,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig { queue_depth: 256 }
    }
}

/// Why a submission was rejected (all rejections are immediate —
/// admission never blocks the submitter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The bounded queue is full.
    Overloaded {
        /// The configured depth that was exceeded.
        depth: usize,
    },
    /// The request alone exceeds the plan's batch capacity.
    TooLarge {
        /// Rows in the request.
        rows: usize,
        /// The plan's compiled batch capacity.
        capacity: usize,
    },
    /// The server is draining; no new work is admitted.
    ShuttingDown,
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::Overloaded { depth } => {
                write!(f, "admission queue full (depth {depth})")
            }
            AdmitError::TooLarge { rows, capacity } => write!(
                f,
                "request has {rows} rows but the compiled batch capacity is {capacity}"
            ),
            AdmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// The per-request slice of a coalesced batch result.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSlice {
    /// Predicted stored-row index per requested row.
    pub predictions: Vec<usize>,
    /// Predicted class per requested row.
    pub classes: Vec<usize>,
    /// Total query rows in the coalesced batch.
    pub batch_rows: usize,
    /// Requests coalesced into the batch.
    pub batch_requests: usize,
    /// Simulated device latency per query, ns.
    pub sim_latency_ns_per_query: f64,
    /// Simulated device energy per query, pJ.
    pub sim_energy_pj_per_query: f64,
}

/// Completion channel for one admitted request.
pub type BatchTicket = Receiver<Result<BatchSlice, String>>;

struct Pending {
    rows: Vec<usize>,
    /// Arrival number across all keys: the smaller, the older.
    seq: u64,
    tx: Sender<Result<BatchSlice, String>>,
}

struct KeyQueue {
    key: PlanKey,
    runner: Arc<dyn BatchRunner>,
    q: VecDeque<Pending>,
}

#[derive(Default)]
struct State {
    /// One queue per key with anything pending; never an empty one.
    queues: Vec<KeyQueue>,
    pending: usize,
    submitted: u64,
    draining: bool,
    batches: u64,
    batched_rows: u64,
    max_batch_requests: u64,
}

/// The admission controller: [`Admission::submit`] from any number of
/// connection handlers, one [`Admission::dispatch_loop`] thread
/// draining it.
pub struct Admission {
    cfg: AdmissionConfig,
    state: Mutex<State>,
    work: Condvar,
}

impl Admission {
    /// Controller with the given knobs.
    pub fn new(cfg: AdmissionConfig) -> Admission {
        Admission {
            cfg,
            state: Mutex::new(State::default()),
            work: Condvar::new(),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// The state, whether or not a thread panicked while holding it:
    /// it is queues and counters that every critical section below
    /// leaves consistent at each step, and no plan code runs under the
    /// lock, so a poisoned guard holds valid data.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue one request for `key` on `runner`. Returns a ticket the
    /// caller blocks on for its slice of the coalesced batch.
    ///
    /// # Errors
    /// Immediate structured rejection — never a hang: the queue is
    /// full, the request exceeds the batch capacity, or the server is
    /// draining.
    pub fn submit(
        &self,
        key: &PlanKey,
        runner: Arc<dyn BatchRunner>,
        rows: Vec<usize>,
    ) -> Result<BatchTicket, AdmitError> {
        let capacity = runner.capacity();
        if rows.len() > capacity {
            return Err(AdmitError::TooLarge {
                rows: rows.len(),
                capacity,
            });
        }
        let mut st = self.lock();
        if st.draining {
            return Err(AdmitError::ShuttingDown);
        }
        if st.pending >= self.cfg.queue_depth {
            return Err(AdmitError::Overloaded {
                depth: self.cfg.queue_depth,
            });
        }
        let (tx, rx) = channel();
        let pending = Pending {
            rows,
            seq: st.submitted,
            tx,
        };
        st.submitted += 1;
        match st.queues.iter_mut().find(|kq| kq.key == *key) {
            Some(kq) => kq.q.push_back(pending),
            None => st.queues.push(KeyQueue {
                key: key.clone(),
                runner,
                q: VecDeque::from([pending]),
            }),
        }
        st.pending += 1;
        drop(st);
        self.work.notify_all();
        Ok(rx)
    }

    /// Stop admitting work and wake the dispatcher so it drains the
    /// queue and returns.
    pub fn drain(&self) {
        self.lock().draining = true;
        self.work.notify_all();
    }

    /// Batching statistics so far:
    /// `(batches, coalesced rows, max requests in one batch)`.
    pub fn batch_stats(&self) -> (u64, u64, u64) {
        let st = self.lock();
        (st.batches, st.batched_rows, st.max_batch_requests)
    }

    /// Requests currently queued (for tests and the `stats` command).
    pub fn pending(&self) -> usize {
        self.lock().pending
    }

    /// Run batches until [`Admission::drain`] is called and the queue
    /// is empty. Call from a dedicated thread; record one
    /// [`cat::BATCH`] span per coalesced batch on `telemetry`.
    pub fn dispatch_loop(&self, telemetry: &Telemetry) {
        let mut batch_no: u64 = 0;
        while let Some(batch) = self.next_batch() {
            batch_no += 1;
            self.execute(batch, batch_no, telemetry);
        }
    }

    /// Dispatch exactly one batch if any work is pending (test hook:
    /// lets interleaving tests step the batcher deterministically).
    /// Returns whether a batch ran.
    pub fn dispatch_one(&self, telemetry: &Telemetry) -> bool {
        if self.pending() == 0 {
            return false;
        }
        match self.next_batch() {
            Some(batch) => {
                let n = self.batch_stats().0 + 1;
                self.execute(batch, n, telemetry);
                true
            }
            None => false,
        }
    }

    /// Wait until anything is pending, then take the next batch: the
    /// oldest-headed key's coalescable prefix, whatever its size. The
    /// caller is the dispatcher and it is idle, so launching now costs
    /// no request anything; whoever arrives while this batch runs
    /// forms the next one. Returns `None` when draining completes.
    fn next_batch(&self) -> Option<Batch> {
        let mut st = self.lock();
        loop {
            let oldest = st
                .queues
                .iter()
                .enumerate()
                .filter_map(|(i, kq)| Some((kq.q.front()?.seq, i)))
                .min();
            let Some((_, ki)) = oldest else {
                if st.draining {
                    return None;
                }
                st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let kq = &mut st.queues[ki];
            let capacity = kq.runner.capacity();
            let mut rows = 0usize;
            let take =
                kq.q.iter()
                    .take_while(|p| {
                        rows += p.rows.len();
                        rows <= capacity
                    })
                    .count();
            let batch = Batch {
                key: kq.key.clone(),
                runner: Arc::clone(&kq.runner),
                requests: kq.q.drain(..take).collect(),
            };
            if kq.q.is_empty() {
                // Drop the empty per-key queue so an evicted or
                // one-off key doesn't pin its runner forever.
                st.queues.remove(ki);
            }
            st.pending -= take;
            return Some(batch);
        }
    }

    /// Execute a batch outside the lock and fan results back out.
    fn execute(&self, batch: Batch, batch_no: u64, telemetry: &Telemetry) {
        let rows: Vec<usize> = batch
            .requests
            .iter()
            .flat_map(|p| p.rows.iter().copied())
            .collect();
        let n_requests = batch.requests.len();
        let mut span = telemetry.span(format!("batch-{batch_no}"), cat::BATCH);
        span.arg("key", ArgValue::Str(batch.key.to_string()));
        span.arg("requests", ArgValue::Int(n_requests as i64));
        span.arg("rows", ArgValue::Int(rows.len() as i64));
        span.arg("capacity", ArgValue::Int(batch.runner.capacity() as i64));
        // A panic in the plan must fail this batch, not the only
        // dispatcher thread (every later request would wait on a thread
        // that no longer exists). Resuming after it is sound: a runner
        // is `&self` over immutable compiled-plan data and builds its
        // working state per call, so an unwound call leaves nothing
        // half-updated for the next one to observe.
        let result = catch_unwind(AssertUnwindSafe(|| batch.runner.run_rows(&rows)))
            .unwrap_or_else(|panic| Err(format!("plan panicked: {}", panic_text(&*panic))));
        drop(span);
        {
            let mut st = self.lock();
            st.batches += 1;
            st.batched_rows += rows.len() as u64;
            st.max_batch_requests = st.max_batch_requests.max(n_requests as u64);
        }
        match result {
            Ok(out) => {
                let mut offset = 0usize;
                for p in batch.requests {
                    let n = p.rows.len();
                    let slice = BatchSlice {
                        predictions: out.predictions[offset..offset + n].to_vec(),
                        classes: out.classes[offset..offset + n].to_vec(),
                        batch_rows: rows.len(),
                        batch_requests: n_requests,
                        sim_latency_ns_per_query: out.sim_latency_ns_per_query,
                        sim_energy_pj_per_query: out.sim_energy_pj_per_query,
                    };
                    offset += n;
                    // A requester that gave up (disconnected) just
                    // drops its receiver; ignore the send error.
                    let _ = p.tx.send(Ok(slice));
                }
            }
            Err(e) => {
                for p in batch.requests {
                    let _ = p.tx.send(Err(e.clone()));
                }
            }
        }
    }
}

/// A panic payload's message, cut like any other text echoed to a
/// client.
fn panic_text(panic: &(dyn Any + Send)) -> String {
    let text = panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str));
    bounded(text.unwrap_or("(no message)"))
}

struct Batch {
    key: PlanKey,
    runner: Arc<dyn BatchRunner>,
    requests: Vec<Pending>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RowsOutcome;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Predictions are `row * 10`, classes `row % 3` — enough structure
    /// to catch slicing bugs.
    struct StubRunner {
        capacity: usize,
        calls: AtomicUsize,
    }

    impl BatchRunner for StubRunner {
        fn capacity(&self) -> usize {
            self.capacity
        }
        fn pool_size(&self) -> usize {
            1000
        }
        fn run_rows(&self, rows: &[usize]) -> Result<RowsOutcome, String> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            Ok(RowsOutcome {
                predictions: rows.iter().map(|r| r * 10).collect(),
                classes: rows.iter().map(|r| r % 3).collect(),
                sim_latency_ns_per_query: 5.0,
                sim_energy_pj_per_query: 2.0,
            })
        }
    }

    fn key() -> PlanKey {
        PlanKey {
            task: "hdc".into(),
            bits: 2,
            subarray: 32,
            backend: "tape".into(),
        }
    }

    fn admission(depth: usize) -> Admission {
        Admission::new(AdmissionConfig { queue_depth: depth })
    }

    /// Every row predicted as itself.
    fn echo(rows: &[usize]) -> RowsOutcome {
        RowsOutcome {
            predictions: rows.to_vec(),
            classes: rows.to_vec(),
            sim_latency_ns_per_query: 5.0,
            sim_energy_pj_per_query: 2.0,
        }
    }

    /// Blocks in `run_rows` until the test allows the batch through;
    /// reports each batch's rows as it starts. Interleavings are forced
    /// by these two channels, never by a sleep.
    struct GatedRunner {
        started: Mutex<Sender<Vec<usize>>>,
        gate: Mutex<Receiver<()>>,
    }

    impl BatchRunner for GatedRunner {
        fn capacity(&self) -> usize {
            8
        }
        fn pool_size(&self) -> usize {
            1000
        }
        fn run_rows(&self, rows: &[usize]) -> Result<RowsOutcome, String> {
            self.started.lock().unwrap().send(rows.to_vec()).unwrap();
            self.gate.lock().unwrap().recv().unwrap();
            Ok(echo(rows))
        }
    }

    /// A reply that does not come is a failure, not a hung test run.
    const PATIENCE: Duration = Duration::from_secs(20);

    #[test]
    fn concurrent_submissions_coalesce_into_one_batch() {
        let adm = admission(16);
        let runner = Arc::new(StubRunner {
            capacity: 8,
            calls: AtomicUsize::new(0),
        });
        let t1 = adm
            .submit(
                &key(),
                Arc::clone(&runner) as Arc<dyn BatchRunner>,
                vec![1, 2],
            )
            .unwrap();
        let t2 = adm
            .submit(&key(), Arc::clone(&runner) as Arc<dyn BatchRunner>, vec![3])
            .unwrap();
        assert!(adm.dispatch_one(&Telemetry::disabled()));
        let a = t1.recv().unwrap().unwrap();
        let b = t2.recv().unwrap().unwrap();
        assert_eq!(a.predictions, [10, 20]);
        assert_eq!(b.predictions, [30]);
        assert_eq!(a.classes, [1, 2]);
        assert_eq!(b.classes, [0]);
        assert_eq!(a.batch_requests, 2);
        assert_eq!(a.batch_rows, 3);
        assert_eq!(runner.calls.load(Ordering::SeqCst), 1, "one device call");
        assert_eq!(adm.batch_stats().0, 1);
    }

    #[test]
    fn batches_split_at_capacity() {
        let adm = admission(16);
        let runner = Arc::new(StubRunner {
            capacity: 4,
            calls: AtomicUsize::new(0),
        });
        let tickets: Vec<_> = (0..3)
            .map(|i| {
                adm.submit(
                    &key(),
                    Arc::clone(&runner) as Arc<dyn BatchRunner>,
                    vec![i * 2, i * 2 + 1],
                )
                .unwrap()
            })
            .collect();
        // 3 × 2 rows at capacity 4 → a full 2-request batch, then one.
        assert!(adm.dispatch_one(&Telemetry::disabled()));
        assert!(adm.dispatch_one(&Telemetry::disabled()));
        for (i, t) in tickets.into_iter().enumerate() {
            let s = t.recv().unwrap().unwrap();
            assert_eq!(s.predictions, [i * 20, i * 20 + 10]);
        }
        assert_eq!(runner.calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn overloaded_and_too_large_reject_immediately() {
        let adm = admission(2);
        let runner = Arc::new(StubRunner {
            capacity: 4,
            calls: AtomicUsize::new(0),
        });
        let _t1 = adm
            .submit(&key(), Arc::clone(&runner) as Arc<dyn BatchRunner>, vec![0])
            .unwrap();
        let _t2 = adm
            .submit(&key(), Arc::clone(&runner) as Arc<dyn BatchRunner>, vec![1])
            .unwrap();
        let e = adm
            .submit(&key(), Arc::clone(&runner) as Arc<dyn BatchRunner>, vec![2])
            .unwrap_err();
        assert_eq!(e, AdmitError::Overloaded { depth: 2 });
        let e = adm
            .submit(
                &key(),
                Arc::clone(&runner) as Arc<dyn BatchRunner>,
                vec![0; 5],
            )
            .unwrap_err();
        assert_eq!(
            e,
            AdmitError::TooLarge {
                rows: 5,
                capacity: 4
            }
        );
        assert_eq!(adm.pending(), 2, "rejections leave the queue untouched");
    }

    #[test]
    fn drain_stops_admission_and_ends_the_loop() {
        let adm = Arc::new(admission(16));
        let runner = Arc::new(StubRunner {
            capacity: 8,
            calls: AtomicUsize::new(0),
        });
        let ticket = adm
            .submit(&key(), Arc::clone(&runner) as Arc<dyn BatchRunner>, vec![7])
            .unwrap();
        adm.drain();
        let e = adm
            .submit(&key(), Arc::clone(&runner) as Arc<dyn BatchRunner>, vec![8])
            .unwrap_err();
        assert_eq!(e, AdmitError::ShuttingDown);
        // The loop drains the queued request, then returns.
        let loop_adm = Arc::clone(&adm);
        let h = std::thread::spawn(move || loop_adm.dispatch_loop(&Telemetry::disabled()));
        let s = ticket.recv().unwrap().unwrap();
        assert_eq!(s.predictions, [70]);
        h.join().unwrap();
    }

    #[test]
    fn an_idle_dispatcher_launches_at_once_and_batches_form_while_it_is_busy() {
        let adm = Arc::new(admission(16));
        let (started_tx, started) = channel();
        let (gate, gate_rx) = channel();
        let runner: Arc<dyn BatchRunner> = Arc::new(GatedRunner {
            started: Mutex::new(started_tx),
            gate: Mutex::new(gate_rx),
        });
        let loop_adm = Arc::clone(&adm);
        let h = std::thread::spawn(move || loop_adm.dispatch_loop(&Telemetry::disabled()));

        // Far below capacity and nothing else queued: A runs alone, now.
        let a = adm.submit(&key(), Arc::clone(&runner), vec![1]).unwrap();
        assert_eq!(started.recv_timeout(PATIENCE).unwrap(), [1]);
        // B and C arrive while A holds the device: they are the next batch.
        let b = adm.submit(&key(), Arc::clone(&runner), vec![2]).unwrap();
        let c = adm.submit(&key(), Arc::clone(&runner), vec![3]).unwrap();
        gate.send(()).unwrap();
        assert_eq!(a.recv_timeout(PATIENCE).unwrap().unwrap().batch_requests, 1);
        assert_eq!(started.recv_timeout(PATIENCE).unwrap(), [2, 3]);
        // D queues behind the running [B, C]; drain must still answer it.
        let d = adm.submit(&key(), Arc::clone(&runner), vec![4]).unwrap();
        adm.drain();
        gate.send(()).unwrap();
        gate.send(()).unwrap();
        let (b, c) = (
            b.recv_timeout(PATIENCE).unwrap().unwrap(),
            c.recv_timeout(PATIENCE).unwrap().unwrap(),
        );
        assert_eq!((b.predictions, c.predictions), (vec![2], vec![3]));
        assert_eq!((b.batch_requests, c.batch_rows), (2, 2));
        assert_eq!(d.recv_timeout(PATIENCE).unwrap().unwrap().predictions, [4]);
        h.join().unwrap();
        assert_eq!(adm.batch_stats(), (3, 4, 2));
    }

    #[test]
    fn a_panicking_batch_fails_its_requests_and_the_dispatcher_keeps_serving() {
        struct PanicsOnRow13;
        impl BatchRunner for PanicsOnRow13 {
            fn capacity(&self) -> usize {
                8
            }
            fn pool_size(&self) -> usize {
                1000
            }
            fn run_rows(&self, rows: &[usize]) -> Result<RowsOutcome, String> {
                assert!(!rows.contains(&13), "row 13 {}", "x".repeat(200));
                Ok(echo(rows))
            }
        }
        let adm = Arc::new(admission(16));
        let runner: Arc<dyn BatchRunner> = Arc::new(PanicsOnRow13);
        let loop_adm = Arc::clone(&adm);
        let h = std::thread::spawn(move || loop_adm.dispatch_loop(&Telemetry::disabled()));
        let bad = adm.submit(&key(), Arc::clone(&runner), vec![13]).unwrap();
        let e = bad.recv_timeout(PATIENCE).unwrap().unwrap_err();
        assert_eq!(e, format!("plan panicked: row 13 {}…", "x".repeat(57)));
        // The same dispatcher answers the next request.
        let good = adm.submit(&key(), Arc::clone(&runner), vec![7]).unwrap();
        let s = good
            .recv_timeout(PATIENCE)
            .expect("the dispatcher survived the panic")
            .unwrap();
        assert_eq!(s.predictions, [7]);
        adm.drain();
        h.join().unwrap();
        assert_eq!(adm.batch_stats().0, 2);
    }

    #[test]
    fn execution_failure_fans_out_to_every_request() {
        struct FailingRunner;
        impl BatchRunner for FailingRunner {
            fn capacity(&self) -> usize {
                8
            }
            fn pool_size(&self) -> usize {
                8
            }
            fn run_rows(&self, _rows: &[usize]) -> Result<RowsOutcome, String> {
                Err("device on fire".into())
            }
        }
        let adm = admission(16);
        let runner: Arc<dyn BatchRunner> = Arc::new(FailingRunner);
        let t1 = adm.submit(&key(), Arc::clone(&runner), vec![0]).unwrap();
        let t2 = adm.submit(&key(), Arc::clone(&runner), vec![1]).unwrap();
        assert!(adm.dispatch_one(&Telemetry::disabled()));
        assert!(t1.recv().unwrap().unwrap_err().contains("on fire"));
        assert!(t2.recv().unwrap().unwrap_err().contains("on fire"));
    }
}
