//! Batched parallel execution: shard the query loop across worker
//! threads, each with its own [`CamMachine`] clone, then merge results
//! and statistics deterministically.
//!
//! ## Protocol
//!
//! 1. Run the tape up to the query loop (setup: allocation +
//!    programming) on the caller's machine.
//! 2. Split the loop's iteration space into `threads` contiguous shards.
//!    Each worker gets a frozen snapshot of the slot file and a
//!    `clone()` + `reset_stats()` fork of the machine, and runs its
//!    iterations exactly as the sequential VM would.
//! 3. Merge, in shard order: every changed buffer element is copied back
//!    (iterations write disjoint accumulator rows — guaranteed by the
//!    compiler's query-loop conditions — so this reproduces the
//!    sequential result bit-for-bit), and on a charging machine each
//!    shard's cost delta is folded into the caller's machine with
//!    [`CamMachine::absorb_delta`].
//! 4. Run the rest of the tape (final reduce + return) on the caller's
//!    machine.
//!
//! Outputs are bit-identical to the sequential engines. On a
//! [`CamMachine::functional`] machine — the fault-free, untraced runs
//! the HAL prices from their schedule — there are no statistics to
//! merge, and the reported ones are the sequential run's exactly. A
//! charging machine (faults or telemetry) reports deterministic
//! statistics (merge order is shard order, independent of thread
//! scheduling), equal to the sequential run up to floating-point
//! summation ordering in latency/energy totals; operation counts are
//! exact.
//!
//! Threads shard queries and nothing else. A tape with no detected query
//! loop, or whose loop has fewer than two iterations, has nothing to
//! shard: it runs the sequential schedule whatever `threads` says, and
//! outputs and statistics equal [`Tape::run`] exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;

use crate::compile::Tape;
use crate::error::{EngineError, ShardPanic};
use crate::frozen::{freeze, thaw, Frozen};
use crate::isa::QueryLoop;
use crate::pool;
use crate::vm::{returned, TapeVm};
use c4cam_camsim::{CamMachine, ExecStats};
use c4cam_faults::{RetryPolicy, ShardChaos};
use c4cam_runtime::Value;
use c4cam_telemetry::{cat, ArgValue, Telemetry};

type BResult<T> = Result<T, EngineError>;

/// What one worker shard reports back.
struct ShardOut {
    /// Cost delta of this shard's iterations.
    stats: ExecStats,
    /// Final contents of every slot that held a buffer at fork time.
    buffers: Vec<(usize, c4cam_tensor::Tensor)>,
}

impl Tape {
    /// Execute the tape with the query loop sharded across `threads`
    /// worker threads (see the module docs for the protocol).
    ///
    /// Falls back to the sequential [`Tape::run`] when no query loop was
    /// detected, `threads <= 1`, or the loop has fewer than two
    /// iterations.
    ///
    /// # Errors
    /// Propagates compile-surface and runtime failures; a panicking
    /// worker surfaces as an error.
    pub fn run_batched(
        &self,
        machine: &mut CamMachine,
        args: &[Value],
        threads: usize,
    ) -> BResult<Vec<Value>> {
        self.run_batched_resilient(
            machine,
            args,
            threads,
            &Telemetry::default(),
            &RetryPolicy::default(),
            None,
        )
    }

    /// [`Tape::run_batched`] with a telemetry handle, an explicit
    /// [`RetryPolicy`] for panicked or timed-out shard workers, and an
    /// optional [`ShardChaos`] fault injector for testing the retry
    /// path end to end.
    ///
    /// While the recorder is enabled, the main lane records sampled
    /// per-op `cat::OP` spans and each worker shard records a
    /// `cat::SHARD` span on lane `1 + shard`. Outputs and device
    /// statistics are unaffected.
    ///
    /// A worker that panics (or exceeds `retry.attempt_timeout`) is
    /// retried up to `retry.max_retries` times on a fresh machine
    /// clone; when retries are exhausted the shard runs sequentially on
    /// the calling thread if `retry.fallback_sequential`, otherwise the
    /// run fails with a structured [`ShardPanic`] on the error. Real
    /// execution errors (bad shapes, device budget) propagate
    /// immediately without retry. Outputs remain bit-identical to the
    /// sequential run on every successful path.
    ///
    /// # Errors
    /// Propagates compile-surface and runtime failures; a shard that
    /// exhausts its retries without a sequential fallback surfaces as
    /// an [`EngineError`] carrying a [`ShardPanic`].
    pub fn run_batched_resilient(
        &self,
        machine: &mut CamMachine,
        args: &[Value],
        threads: usize,
        telemetry: &Telemetry,
        retry: &RetryPolicy,
        chaos: Option<ShardChaos>,
    ) -> BResult<Vec<Value>> {
        let mut vm = TapeVm::new(self, args)?;
        vm.set_telemetry(telemetry.clone());
        let ql = match self.query_loop() {
            Some(ql) if threads > 1 => ql,
            _ => return returned(vm.exec(machine, 0, usize::MAX)?),
        };
        // Phase 1: setup.
        if vm.exec(machine, 0, ql.enter)?.is_some() {
            return Err(EngineError::new("function returned before the query loop"));
        }
        let (lb, ub, step) = vm.loop_bounds(ql.enter)?;
        if step <= 0 {
            return Err(EngineError::new("loop step must be positive"));
        }
        let iters: Vec<i64> = (lb..ub).step_by(step as usize).collect();
        if iters.len() < 2 {
            // Nothing to shard across: carry on sequentially.
            return returned(vm.exec(machine, ql.enter, usize::MAX)?);
        }

        // Phase 2: fork and run shards on the pooled workers.
        let shard_count = threads.min(iters.len());
        let snapshot: Arc<Vec<Frozen>> = Arc::new(vm.slots().iter().map(freeze).collect());
        let chunk = iters.len().div_ceil(shard_count);
        let chunks: Vec<Vec<i64>> = iters.chunks(chunk).map(<[i64]>::to_vec).collect();
        let shard_outs = run_shards(
            self, machine, &snapshot, &chunks, ql, telemetry, retry, chaos,
        )?;

        // Phase 3: deterministic merge, in shard order. A functional
        // machine's cost comes from the schedule: it has none to fold.
        for out in &shard_outs {
            if machine.charges() {
                machine.absorb_delta(&out.stats);
            }
            for &(slot, ref tensor) in &out.buffers {
                let Frozen::Buffer(base) = &snapshot[slot] else {
                    // The slot was (re)defined inside the loop body; its
                    // post-loop value is dead.
                    continue;
                };
                let Value::Buffer(main) = &vm.slots()[slot] else {
                    continue;
                };
                let mut main = main.borrow_mut();
                let dst = main.data_mut();
                for (e, (&new, &old)) in tensor.data().iter().zip(base.data()).enumerate() {
                    if new.to_bits() != old.to_bits() {
                        dst[e] = new;
                    }
                }
            }
        }

        // Phase 4: epilogue (reduce + return), skipping the loop.
        returned(vm.exec(machine, ql.exit, usize::MAX)?)
    }
}

/// One shard's iterations, exactly as the scoped-thread version ran
/// them: thaw the snapshot, execute the chunk, collect buffers + stats.
fn run_one_shard(
    tape: &Tape,
    shard_machine: &mut CamMachine,
    snapshot: &[Frozen],
    chunk: &[i64],
    ql: QueryLoop,
    telemetry: &Telemetry,
    shard: usize,
) -> BResult<ShardOut> {
    let lane = shard as u32 + 1;
    let start_ns = telemetry.now_ns();
    let slots: Vec<Value> = snapshot.iter().map(thaw).collect();
    let mut vm = TapeVm::with_slots(&tape.0, slots);
    vm.set_telemetry_lane(telemetry.clone(), lane);
    vm.exec_iterations(shard_machine, ql.enter, ql.next, ql.iv, chunk)?;
    if telemetry.enabled() {
        let end_ns = telemetry.now_ns();
        telemetry.record_span(
            format!("shard-{shard}"),
            cat::SHARD,
            lane,
            start_ns,
            end_ns.saturating_sub(start_ns),
            vec![("iterations", ArgValue::Int(chunk.len() as i64))],
        );
    }
    let buffers = vm
        .slots()
        .iter()
        .enumerate()
        .filter_map(|(i, v)| match v {
            Value::Buffer(b) => Some((i, b.borrow().clone())),
            _ => None,
        })
        .collect();
    Ok(ShardOut {
        stats: shard_machine.stats(),
        buffers,
    })
}

/// Best-effort text from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[allow(clippy::too_many_arguments)]
fn run_shards(
    tape: &Tape,
    machine: &CamMachine,
    snapshot: &Arc<Vec<Frozen>>,
    chunks: &[Vec<i64>],
    ql: QueryLoop,
    telemetry: &Telemetry,
    retry: &RetryPolicy,
    chaos: Option<ShardChaos>,
) -> BResult<Vec<ShardOut>> {
    // Launch one pooled job per shard; each job owns its data (shared
    // tape + snapshot, a machine clone, its chunk) so a panicking or
    // abandoned worker can never corrupt the caller's state.
    let launch = |shard: usize, attempt: u32| -> Receiver<Result<BResult<ShardOut>, String>> {
        let (tx, rx) = channel();
        let tape = tape.clone();
        let snapshot = Arc::clone(snapshot);
        let chunk = chunks[shard].clone();
        let mut shard_machine = machine.clone();
        shard_machine.reset_stats();
        let telemetry = telemetry.clone();
        pool::submit(Box::new(move || {
            let out = catch_unwind(AssertUnwindSafe(|| {
                if let Some(c) = chaos {
                    if c.shard == shard && attempt < c.fail_attempts {
                        panic!("chaos: injected shard {shard} failure (attempt {attempt})");
                    }
                }
                run_one_shard(
                    &tape,
                    &mut shard_machine,
                    &snapshot,
                    &chunk,
                    ql,
                    &telemetry,
                    shard,
                )
            }))
            .map_err(|p| panic_message(p.as_ref()));
            // The submitter may have timed out and dropped the receiver.
            let _ = tx.send(out);
        }));
        rx
    };

    let first: Vec<Receiver<_>> = (0..chunks.len()).map(|s| launch(s, 0)).collect();
    let mut outs = Vec::with_capacity(chunks.len());
    for (shard, mut rx) in first.into_iter().enumerate() {
        let mut attempt = 0u32;
        let out = loop {
            let received = match retry.attempt_timeout {
                Some(t) => rx
                    .recv_timeout(t)
                    .map_err(|_| format!("shard {shard} exceeded its {t:?} attempt timeout")),
                None => rx
                    .recv()
                    .map_err(|_| format!("shard {shard} worker died without reporting")),
            };
            match received.and_then(|r| r) {
                // A real execution error is deterministic: retrying
                // cannot help, so it propagates immediately.
                Ok(Ok(out)) => break out,
                Ok(Err(e)) => return Err(e),
                Err(payload) => {
                    if attempt < retry.max_retries {
                        attempt += 1;
                        rx = launch(shard, attempt);
                    } else if retry.fallback_sequential {
                        // Degraded mode: run the shard on the calling
                        // thread (no chaos — it models crashy workers).
                        let mut shard_machine = machine.clone();
                        shard_machine.reset_stats();
                        break run_one_shard(
                            tape,
                            &mut shard_machine,
                            snapshot,
                            &chunks[shard],
                            ql,
                            telemetry,
                            shard,
                        )?;
                    } else {
                        return Err(EngineError::from_shard_panic(ShardPanic {
                            shard,
                            attempts: attempt + 1,
                            payload,
                        }));
                    }
                }
            }
        };
        outs.push(out);
    }
    Ok(outs)
}
