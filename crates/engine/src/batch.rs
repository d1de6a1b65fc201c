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
//! shard: it runs on this thread whatever `threads` says, and outputs
//! (and a charging machine's statistics) equal [`Tape::run`] exactly.
//!
//! ## Query order
//!
//! On a functional machine with telemetry off, a tape whose query body
//! [`Tape::blocked`] allows runs the body in blocked order — each
//! instruction once over every query of the run, or of the shard —
//! instead of once per query (`TapeVm::exec_blocked`). A charging
//! machine keeps the per-query order, as do [`Tape::run`] and
//! [`Tape::run_traced`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::channel;
use std::sync::Arc;

use crate::compile::Tape;
use crate::error::EngineError;
use crate::frozen::{freeze, thaw, Frozen};
use crate::isa::QueryLoop;
use crate::pool;
use crate::vm::{returned, TapeVm};
use c4cam_camsim::{CamMachine, ExecStats};
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
    /// Runs on this thread, as [`Tape::run`] does, when no query loop
    /// was detected, `threads <= 1`, or the loop has fewer than two
    /// iterations; in blocked order (module docs) when the machine and
    /// the tape allow it.
    ///
    /// While the recorder is enabled, the main lane records sampled
    /// per-op `cat::OP` spans and each worker shard records a
    /// `cat::SHARD` span on lane `1 + shard`. Outputs and device
    /// statistics are unaffected.
    ///
    /// # Errors
    /// Propagates compile-surface and runtime failures. A shard whose
    /// worker panics fails the run with an error naming the shard and
    /// carrying the panic payload; nothing is retried.
    pub fn run_batched(
        &self,
        machine: &mut CamMachine,
        args: &[Value],
        threads: usize,
        telemetry: &Telemetry,
    ) -> BResult<Vec<Value>> {
        let mut vm = TapeVm::new(self, args)?;
        vm.set_telemetry(telemetry.clone());
        let blocked = self.runs_blocked(machine, telemetry);
        let ql = match self.query_loop() {
            Some(ql) if threads > 1 || blocked => ql,
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
        if threads <= 1 || iters.len() < 2 {
            // Nothing to shard across: carry on on this thread.
            if !blocked {
                return returned(vm.exec(machine, ql.enter, usize::MAX)?);
            }
            vm.exec_blocked(machine, ql, &iters)?;
            return returned(vm.exec(machine, ql.exit, usize::MAX)?);
        }

        // Phase 2: fork and run shards on the pooled workers.
        let shard_count = threads.min(iters.len());
        let snapshot: Arc<Vec<Frozen>> = Arc::new(vm.slots().iter().map(freeze).collect());
        let chunk = iters.len().div_ceil(shard_count);
        let chunks: Vec<Vec<i64>> = iters.chunks(chunk).map(<[i64]>::to_vec).collect();
        let shard_outs = run_shards(self, machine, &snapshot, chunks, ql, telemetry)?;

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

impl Tape {
    /// Where the query order is chosen. A device that charges nothing,
    /// with no telemetry (and `run_batched` never traces), takes the
    /// blocked order when the tape allows it: each body instruction
    /// over all queries, with the per-query order's outputs bit for
    /// bit. A charging device keeps the per-query order, as do
    /// `Tape::run`, traces and the `walk` oracle: its `f64` latency and
    /// energy sums depend on the order searches are charged in.
    fn runs_blocked(&self, machine: &CamMachine, telemetry: &Telemetry) -> bool {
        self.blocked().is_ok() && !machine.charges() && !telemetry.enabled()
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
    #[cfg(test)]
    if shard == 1 && panic_hook::panics_in_shard_one(tape) {
        panic!("injected failure");
    }
    let lane = shard as u32 + 1;
    let start_ns = telemetry.now_ns();
    let slots: Vec<Value> = snapshot.iter().map(thaw).collect();
    let mut vm = TapeVm::with_slots(&tape.0, slots);
    vm.set_telemetry_lane(telemetry.clone(), lane);
    if tape.runs_blocked(shard_machine, telemetry) {
        vm.exec_blocked(shard_machine, ql, chunk)?;
    } else {
        vm.exec_iterations(shard_machine, ql.enter, ql.next, ql.iv, chunk)?;
    }
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

/// Launch one pooled job per shard and receive from each once. Each
/// job owns its data (shared tape + snapshot, a machine clone, its
/// chunk), so a panicking worker can never corrupt the caller's state:
/// its panic becomes the run's error.
fn run_shards(
    tape: &Tape,
    machine: &CamMachine,
    snapshot: &Arc<Vec<Frozen>>,
    chunks: Vec<Vec<i64>>,
    ql: QueryLoop,
    telemetry: &Telemetry,
) -> BResult<Vec<ShardOut>> {
    let receivers: Vec<_> = chunks
        .into_iter()
        .enumerate()
        .map(|(shard, chunk)| {
            let (tx, rx) = channel();
            let tape = tape.clone();
            let snapshot = Arc::clone(snapshot);
            let mut shard_machine = machine.clone();
            shard_machine.reset_stats();
            let telemetry = telemetry.clone();
            pool::submit(Box::new(move || {
                let out = catch_unwind(AssertUnwindSafe(|| {
                    run_one_shard(
                        &tape,
                        &mut shard_machine,
                        &snapshot,
                        &chunk,
                        ql,
                        &telemetry,
                        shard,
                    )
                }));
                // The submitter drops its receivers once a shard fails.
                let _ = tx.send(out.map_err(|p| panic_message(p.as_ref())));
            }));
            rx
        })
        .collect();
    receivers
        .into_iter()
        .enumerate()
        .map(|(shard, rx)| match rx.recv() {
            Ok(Ok(out)) => out,
            Ok(Err(payload)) => Err(EngineError::new(format!(
                "shard {shard} panicked: {payload}"
            ))),
            Err(_) => Err(EngineError::new(format!(
                "shard {shard} worker died without reporting"
            ))),
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod panic_hook {
    use super::Tape;
    use std::sync::{Arc, Mutex, PoisonError};

    /// Tapes, by the address of their shared data, whose shard 1
    /// panics on every batched run.
    static PANICKING: Mutex<Vec<usize>> = Mutex::new(Vec::new());

    fn key(tape: &Tape) -> usize {
        Arc::as_ptr(&tape.0) as usize
    }

    fn panicking() -> std::sync::MutexGuard<'static, Vec<usize>> {
        PANICKING.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// While alive, shard 1 of every batched run of one tape panics.
    /// Other tapes, and so tests running at the same time, are
    /// unaffected. Drop it before the tape, so that no later tape
    /// reuses the address.
    pub(crate) struct PanicInShardOne(usize);

    impl PanicInShardOne {
        pub(crate) fn new(tape: &Tape) -> PanicInShardOne {
            panicking().push(key(tape));
            PanicInShardOne(key(tape))
        }
    }

    impl Drop for PanicInShardOne {
        fn drop(&mut self) {
            panicking().retain(|&k| k != self.0);
        }
    }

    pub(super) fn panics_in_shard_one(tape: &Tape) -> bool {
        panicking().contains(&key(tape))
    }
}
