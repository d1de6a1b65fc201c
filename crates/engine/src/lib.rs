//! # c4cam-engine — flat CAM-ISA tape compiler and execution engine
//!
//! The paper's point is that CAM workloads become a small, regular
//! instruction stream once lowering is done. This crate grows the final
//! stage of that stack: it compiles a fully lowered cam-level
//! [`Module`](c4cam_ir::Module) into a flat instruction tape — a
//! `Vec<Inst>` over a compact CAM-ISA with pre-resolved search specs,
//! declared shapes, and dense value slots — plus a register-machine VM
//! that executes the tape against a
//! [`CamMachine`](c4cam_camsim::CamMachine) without ever re-walking IR
//! trees, string-matching op names, or hashing value ids.
//!
//! Two execution modes:
//!
//! * [`Tape::run`] — single-threaded. Drives the machine in exactly the
//!   tree-walking interpreter's call order, so outputs **and**
//!   energy/latency statistics are bit-identical to
//!   [`c4cam_runtime::Executor`] (the walker is kept as the reference
//!   oracle).
//! * [`Tape::run_batched`] — sharded. The compiler detects the
//!   sequential query loop whose iterations are independent (they
//!   scatter into disjoint accumulator rows keyed by the induction
//!   variable); the batch executor runs contiguous iteration shards on
//!   pooled worker threads, each with its own machine clone, and merges
//!   buffers deterministically. Outputs stay bit-identical. On a
//!   charging machine the per-shard
//!   [`ExecStats`](c4cam_camsim::ExecStats) are merged too, and
//!   latency/energy totals agree with the sequential run up to float
//!   summation order. (The HAL's `tape` backend runs fault-free,
//!   untraced executions on a functional machine and reports
//!   [`Tape::price_as_written`] — the sequential run's statistics to the
//!   bit, at any thread count.) Threads shard
//!   queries and nothing else: with no detected query loop, or fewer
//!   than two iterations, this runs on one thread. On such a
//!   functional machine a specialised query body runs in blocked
//!   order ([`Tape::blocked`]): each fused search once over all of the
//!   run's queries, one device call per subarray. Every accumulator
//!   element receives its additions in the same order, so outputs stay
//!   bit-identical; charging runs keep the per-query order.
//!
//! [`Tape::run_traced`] is `run` with an observer attached: it records
//! a [`Trace`] of every device-relevant operation, and
//! [`Trace::replay`] is the reference implementation that tests and the
//! benchmark compare the VM against. It is not a third engine.
//!
//! ## The tape is the schedule
//!
//! [`Tape::compile`] runs three passes over the freshly compiled tape:
//! constant operands fuse into immediates, single-writer constants are
//! stripped into a preload table, and — because the mapped query nest's
//! bounds, guards and index arithmetic are all fixed by the mapping —
//! the body of the query loop is **partially evaluated** into a
//! straight line of timing-scope ops and one fused search → read →
//! merge instruction per subarray ([`isa::Inst::SearchMerge`]). Device
//! call order and scope order are preserved by construction, so
//! outputs, statistics and traces stay bit-identical to the walker; the
//! pass is all-or-nothing, and [`Tape::specialised`] says whether it
//! applied or why not ([`Unspecialised`]). Every compiled tape then
//! passes [`Tape::verify`] (machine-parseable `TAPE_E…` codes), and
//! `impl Display for Tape` is its stable disassembly (`c4cam compile
//! --emit tape`).
//!
//! ## Example
//!
//! ```
//! use c4cam_arch::ArchSpec;
//! use c4cam_camsim::CamMachine;
//! use c4cam_core::{dialects::torch, pipeline::C4camPipeline};
//! use c4cam_engine::Tape;
//! use c4cam_ir::Module;
//! use c4cam_runtime::Value;
//! use c4cam_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = Module::new();
//! torch::build_hdc_dot(&mut m, 1, 2, 8, 1);
//! let spec = ArchSpec::builder().subarray(16, 16).hierarchy(2, 2, 2).build()?;
//! let compiled = C4camPipeline::new(spec.clone()).compile(m)?;
//!
//! let tape = Tape::compile(&compiled.module, "forward")?;
//! let mut machine = CamMachine::new(&spec);
//! let stored = Tensor::from_vec(vec![2, 8], vec![1.0; 16])?;
//! let query = Tensor::from_vec(vec![1, 8], vec![1.0; 8])?;
//! let out = tape.run(&mut machine, &[Value::Tensor(query), Value::Tensor(stored)])?;
//! assert_eq!(out.len(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod batch;
mod compile;
mod disasm;
mod error;
mod frozen;
pub mod isa;
mod opt;
mod pool;
mod price;
mod specialize;
#[cfg(test)]
mod testing;
pub mod trace;
mod verify;
mod vm;

pub use compile::{Tape, Unblocked, Unspecialised};
pub use error::EngineError;
pub use isa::{Inst, QueryLoop};
pub use price::{Priced, Schedule, Unpriced};
pub use trace::{Trace, TraceOp};
pub use vm::TapeVm;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{looped_hdc, lowered_hdc, query_nest};
    use c4cam_arch::{ArchSpec, Optimization};
    use c4cam_camsim::CamMachine;
    use c4cam_core::dialects::{cim, torch};
    use c4cam_core::pipeline::C4camPipeline;
    use c4cam_ir::builder::OpBuilder;
    use c4cam_ir::Module;
    use c4cam_runtime::{Executor, Value};
    use c4cam_telemetry::Telemetry;
    use c4cam_tensor::Tensor;

    fn spec(n: usize, opt: Optimization) -> ArchSpec {
        ArchSpec::builder()
            .subarray(n, n)
            .hierarchy(2, 2, 4)
            .optimization(opt)
            .build()
            .unwrap()
    }

    fn hdc_inputs(nq: usize, classes: usize, dims: usize) -> (Tensor, Tensor) {
        let mut stored = Vec::with_capacity(classes * dims);
        for c in 0..classes {
            for d in 0..dims {
                stored.push(f32::from(u8::from((d + c) % 3 == 0)));
            }
        }
        let mut queries = Vec::with_capacity(nq * dims);
        for q in 0..nq {
            for d in 0..dims {
                let base = u8::from((d + (q % classes)).is_multiple_of(3));
                let flip = u8::from(d % 31 == q);
                queries.push(f32::from(base ^ flip));
            }
        }
        (
            Tensor::from_vec(vec![classes, dims], stored).unwrap(),
            Tensor::from_vec(vec![nq, dims], queries).unwrap(),
        )
    }

    fn assert_outputs_equal(a: &[Value], b: &[Value], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: result arity");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.snapshot_tensor().unwrap().data(),
                y.snapshot_tensor().unwrap().data(),
                "{what}: result {i} diverged"
            );
        }
    }

    #[test]
    fn tape_matches_walker_bit_for_bit_including_stats() {
        for opt in [
            Optimization::Base,
            Optimization::Power,
            Optimization::Density,
            Optimization::PowerDensity,
        ] {
            let mut m = Module::new();
            torch::build_hdc_dot_with(&mut m, 3, 5, 200, 1, true);
            let (stored, queries) = hdc_inputs(3, 5, 200);
            let args = [Value::Tensor(queries), Value::Tensor(stored)];
            let s = spec(16, opt);
            let compiled = C4camPipeline::new(s.clone()).compile(m).unwrap();

            let mut walk_machine = CamMachine::new(&s);
            let walk_out = Executor::with_machine(&compiled.module, &mut walk_machine)
                .run("forward", &args)
                .unwrap();

            let tape = Tape::compile(&compiled.module, "forward").unwrap();
            let mut tape_machine = CamMachine::new(&s);
            let tape_out = tape.run(&mut tape_machine, &args).unwrap();

            assert_outputs_equal(&walk_out, &tape_out, &format!("{opt:?}"));
            assert_eq!(
                walk_machine.stats(),
                tape_machine.stats(),
                "stats diverged under {opt:?}"
            );
            assert_eq!(walk_machine.phases(), tape_machine.phases());
        }
    }

    #[test]
    fn batched_execution_matches_sequential_outputs() {
        let mut m = Module::new();
        cim::build_similarity_kernel(&mut m, "knn", "eucl", 40, 96, 8, 2, false);
        let mut stored = Vec::new();
        for p in 0..40 {
            for d in 0..96 {
                stored.push(f32::from(u8::from((d * 5 + p * 11) % 7 < 3)));
            }
        }
        let stored = Tensor::from_vec(vec![40, 96], stored).unwrap();
        let queries = stored.slice2d(4, 0, 8, 96).unwrap();
        let args = [Value::Tensor(stored), Value::Tensor(queries)];
        let s = spec(16, Optimization::Base);
        let compiled = C4camPipeline::new(s.clone()).compile(m).unwrap();
        let tape = Tape::compile(&compiled.module, "knn").unwrap();
        assert!(tape.query_loop().is_some());

        let mut seq_machine = CamMachine::new(&s);
        let seq_out = tape.run(&mut seq_machine, &args).unwrap();
        for threads in [2, 3, 8] {
            let mut par_machine = CamMachine::new(&s);
            let par_out = tape
                .run_batched(&mut par_machine, &args, threads, &Telemetry::default())
                .unwrap();
            assert_outputs_equal(&seq_out, &par_out, &format!("threads={threads}"));
            let seq = seq_machine.stats();
            let par = par_machine.stats();
            assert_eq!(seq.search_ops, par.search_ops);
            assert_eq!(seq.read_ops, par.read_ops);
            assert_eq!(seq.merge_ops, par.merge_ops);
            assert_eq!(seq.write_ops, par.write_ops);
            assert!(
                (seq.latency_ns - par.latency_ns).abs() <= 1e-6 * seq.latency_ns.abs(),
                "latency diverged: {} vs {}",
                seq.latency_ns,
                par.latency_ns
            );
            assert!(
                (seq.total_energy_fj() - par.total_energy_fj()).abs()
                    <= 1e-6 * seq.total_energy_fj(),
                "energy diverged"
            );
        }
    }

    /// Threads shard queries and nothing else: a plan with one query,
    /// or with no detected query loop, runs the sequential schedule
    /// whatever `threads` says — outputs, statistics and phases equal.
    #[test]
    fn threads_never_change_a_plan_they_cannot_shard() {
        let s = spec(16, Optimization::Base);
        let compile = |m: Module| C4camPipeline::new(s.clone()).compile(m).unwrap().module;

        let mut m = Module::new();
        torch::build_hdc_dot_with(&mut m, 1, 6, 512, 1, true);
        let (stored, queries) = hdc_inputs(1, 6, 512);
        let hdc = (
            compile(m),
            "forward",
            [Value::Tensor(queries), Value::Tensor(stored)],
            true,
        );

        // Euclidean retrieval across multiple row groups and column
        // chunks: subarray groups accumulate into shared score elements.
        let mut m = Module::new();
        cim::build_similarity_kernel(&mut m, "knn", "eucl", 50, 96, 1, 2, false);
        let stored: Vec<f32> = (0..50 * 96)
            .map(|i| (((i % 96) * 5 + (i / 96) * 11) % 7) as f32 * 0.25)
            .collect();
        let stored = Tensor::from_vec(vec![50, 96], stored).unwrap();
        let queries = stored.slice2d(10, 0, 1, 96).unwrap();
        let knn = (
            compile(m),
            "knn",
            [Value::Tensor(stored), Value::Tensor(queries)],
            true,
        );

        // Two queries, but a phase marker in the query body: the
        // compiler detects no query loop.
        let mut m = lowered_hdc(2);
        let head = query_nest(&m, "forward").head;
        OpBuilder::before(&mut m, head).op("cam.phase_marker", &[], &[], vec![]);
        let (stored, queries) = hdc_inputs(2, 4, 64);
        let args = [Value::Tensor(queries), Value::Tensor(stored)];
        let no_loop = (m, "forward", args, false);

        for (module, func, args, has_query_loop) in [hdc, knn, no_loop] {
            let tape = Tape::compile(&module, func).unwrap();
            assert_eq!(tape.query_loop().is_some(), has_query_loop, "{func}");
            let mut seq_machine = CamMachine::new(&s);
            let seq_out = tape.run(&mut seq_machine, &args).unwrap();
            for threads in [2, 3, 8] {
                let mut par_machine = CamMachine::new(&s);
                let par_out = tape
                    .run_batched(&mut par_machine, &args, threads, &Telemetry::default())
                    .unwrap();
                assert_outputs_equal(&seq_out, &par_out, &format!("{func} threads={threads}"));
                assert_eq!(seq_machine.stats(), par_machine.stats(), "{func}");
                assert_eq!(seq_machine.phases(), par_machine.phases(), "{func}");
            }
        }
    }

    /// The schedule does not depend on the query loop's own bounds: a
    /// trip count known only at run time specialises all the same, and
    /// still shards.
    #[test]
    fn a_run_time_query_bound_still_specialises() {
        let mut m = lowered_hdc(3);
        let query_loop = query_nest(&m, "forward").query_loop;
        let mut b = OpBuilder::before(&mut m, query_loop);
        let (one, two, ty) = (b.const_index(1), b.const_index(2), b.module().index_ty());
        let sum = b.op("arith.addi", &[one, two], &[ty], vec![]);
        let ub = m.result(sum, 0);
        m.set_operand(query_loop, 1, ub);
        let (stored, queries) = hdc_inputs(3, 4, 64);
        let args = [Value::Tensor(queries), Value::Tensor(stored)];
        let s = spec(16, Optimization::Base);

        let tape = Tape::compile(&m, "forward").unwrap();
        assert_eq!(tape.specialised(), Ok(()));
        let mut walk_machine = CamMachine::new(&s);
        let walk_out = Executor::with_machine(&m, &mut walk_machine)
            .run("forward", &args)
            .unwrap();
        let mut tape_machine = CamMachine::new(&s);
        let tape_out = tape.run(&mut tape_machine, &args).unwrap();
        assert_outputs_equal(&walk_out, &tape_out, "run-time bound");
        assert_eq!(walk_machine.stats(), tape_machine.stats());
        let sharded = tape
            .run_batched(&mut CamMachine::new(&s), &args, 2, &Telemetry::default())
            .unwrap();
        assert_outputs_equal(&walk_out, &sharded, "run-time bound, sharded");
    }

    #[test]
    fn batched_with_one_thread_falls_back_to_sequential() {
        let mut m = Module::new();
        torch::build_hdc_dot_with(&mut m, 2, 4, 64, 1, true);
        let (stored, queries) = hdc_inputs(2, 4, 64);
        let args = [Value::Tensor(queries), Value::Tensor(stored)];
        let s = spec(16, Optimization::Base);
        let compiled = C4camPipeline::new(s.clone()).compile(m).unwrap();
        let tape = Tape::compile(&compiled.module, "forward").unwrap();

        let mut a = CamMachine::new(&s);
        let out_a = tape.run(&mut a, &args).unwrap();
        let mut b = CamMachine::new(&s);
        let out_b = tape
            .run_batched(&mut b, &args, 1, &Telemetry::default())
            .unwrap();
        assert_outputs_equal(&out_a, &out_b, "threads=1");
        assert_eq!(a.stats(), b.stats());
    }

    fn knn_tape_and_args() -> (Tape, [Value; 2], ArchSpec) {
        let mut m = Module::new();
        cim::build_similarity_kernel(&mut m, "knn", "eucl", 40, 96, 8, 2, false);
        let mut stored = Vec::new();
        for p in 0..40 {
            for d in 0..96 {
                stored.push(f32::from(u8::from((d * 5 + p * 11) % 7 < 3)));
            }
        }
        let stored = Tensor::from_vec(vec![40, 96], stored).unwrap();
        let queries = stored.slice2d(4, 0, 8, 96).unwrap();
        let args = [Value::Tensor(stored), Value::Tensor(queries)];
        let s = spec(16, Optimization::Base);
        let compiled = C4camPipeline::new(s.clone()).compile(m).unwrap();
        let tape = Tape::compile(&compiled.module, "knn").unwrap();
        (tape, args, s)
    }

    #[test]
    fn a_panicking_shard_fails_the_run_and_the_pool_survives() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (tape, args, s) = knn_tape_and_args();
        let seq_out = tape.run(&mut CamMachine::new(&s), &args).unwrap();
        let batched =
            || tape.run_batched(&mut CamMachine::new(&s), &args, 4, &Telemetry::default());

        let hook = batch::panic_hook::PanicInShardOne::new(&tape);
        let run = catch_unwind(AssertUnwindSafe(batched)).expect("no panic escapes to the caller");
        let err = run.expect_err("a panicking shard fails the run");
        assert!(
            err.message.contains("shard 1 panicked: injected failure"),
            "{err}"
        );
        drop(hook);

        let out = batched().expect("the pool survives a shard panic");
        assert_outputs_equal(&seq_out, &out, "after a shard panic");
    }

    #[test]
    fn worker_pool_is_reused_across_batched_runs() {
        let (tape, args, s) = knn_tape_and_args();
        // Warm the pool with one batched run, then prove later runs
        // reuse the parked workers instead of spawning per batch.
        let mut m0 = CamMachine::new(&s);
        tape.run_batched(&mut m0, &args, 4, &Telemetry::default())
            .unwrap();
        let warm = pool::pooled_workers();
        assert!(warm >= 1, "batched run must use the pool");
        for _ in 0..5 {
            let mut m = CamMachine::new(&s);
            tape.run_batched(&mut m, &args, 4, &Telemetry::default())
                .unwrap();
        }
        let after = pool::pooled_workers();
        // Concurrent tests share the pool, so allow some slack — but 5
        // runs x 4 shards would need 20 fresh threads without reuse.
        assert!(
            after <= warm + 8,
            "pool grew from {warm} to {after} workers across 5 batched runs"
        );
    }

    #[test]
    fn carried_loop_with_swapping_yield_matches_walker() {
        // The yield permutes its carries: the writeback must behave as a
        // parallel move (the walker rebinds all yielded values at once).
        use c4cam_core::dialects::scf;
        use c4cam_ir::builder::{build_func, OpBuilder};
        let mut m = Module::new();
        let idx = m.index_ty();
        let (_, entry) = build_func(&mut m, "f", &[], &[idx, idx]);
        let mut b = OpBuilder::at_end(&mut m, entry);
        let c0 = b.const_index(0);
        let c5 = b.const_index(5);
        let c1 = b.const_index(1);
        let ca = b.const_index(3);
        let cb = b.const_index(7);
        let (loop_op, body, _iv, carried) = scf::build_for_iter(&mut b, c0, c5, c1, &[ca, cb]);
        scf::end_body(&mut m, body, &[carried[1], carried[0]]); // swap
        let r0 = m.result(loop_op, 0);
        let r1 = m.result(loop_op, 1);
        let mut b = OpBuilder::at_end(&mut m, entry);
        b.op("func.return", &[r0, r1], &[], vec![]);

        let walk = Executor::new(&m).run("f", &[]).unwrap();
        let tape = Tape::compile(&m, "f").unwrap();
        let mut machine = CamMachine::new(&ArchSpec::default());
        let out = tape.run(&mut machine, &[]).unwrap();
        assert_eq!(walk[0].as_int(), out[0].as_int());
        assert_eq!(walk[1].as_int(), out[1].as_int());
        // 5 swaps of (3, 7) → (7, 3).
        assert_eq!(out[0].as_int(), Some(7));
        assert_eq!(out[1].as_int(), Some(3));
    }

    #[test]
    fn malformed_loop_result_arity_is_an_error_not_a_panic() {
        use c4cam_ir::builder::{build_func, OpBuilder};
        let mut m = Module::new();
        let idx = m.index_ty();
        let (_, entry) = build_func(&mut m, "f", &[], &[]);
        let mut b = OpBuilder::at_end(&mut m, entry);
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        // One result but zero iter-args: structurally invalid.
        let bad = b.op_with_regions("scf.for", &[c0, c1, c1], &[idx], vec![], 1);
        let body = m.add_block(bad, 0, &[idx]);
        let y = m.create_op("scf.yield", &[], &[], vec![], 0);
        m.push_op(body, y);
        let mut b = OpBuilder::at_end(&mut m, entry);
        b.op("func.return", &[], &[], vec![]);
        let e = Tape::compile(&m, "f").unwrap_err();
        assert!(e.message.contains("mismatch"), "{e}");
    }

    #[test]
    fn argument_arity_is_checked() {
        let mut m = Module::new();
        torch::build_hdc_dot(&mut m, 1, 2, 16, 1);
        let s = spec(16, Optimization::Base);
        let compiled = C4camPipeline::new(s.clone()).compile(m).unwrap();
        let tape = Tape::compile(&compiled.module, "forward").unwrap();
        let mut machine = CamMachine::new(&s);
        let e = tape.run(&mut machine, &[]).unwrap_err();
        assert!(e.message.contains("arguments"), "{e}");
    }

    #[test]
    fn traced_hdc_run_replays_bit_identically() {
        let mut m = Module::new();
        torch::build_hdc_dot_with(&mut m, 3, 5, 200, 1, true);
        let (stored, queries) = hdc_inputs(3, 5, 200);
        let args = [Value::Tensor(queries), Value::Tensor(stored)];
        let s = spec(16, Optimization::Power);
        let compiled = C4camPipeline::new(s.clone()).compile(m).unwrap();
        let tape = Tape::compile(&compiled.module, "forward").unwrap();

        let mut rec_machine = CamMachine::new(&s);
        let (tape_out, trace) = tape.run_traced(&mut rec_machine, &args).unwrap();
        assert!(!trace.is_empty());

        // Replay on a fresh machine: outputs, stats, and phases all
        // bit-identical.
        let mut replay_machine = CamMachine::new(&s);
        let replay_out = trace.replay(&mut replay_machine).unwrap();
        assert_outputs_equal(&tape_out, &replay_out, "trace replay");
        assert_eq!(rec_machine.stats(), replay_machine.stats());
        assert_eq!(rec_machine.phases(), replay_machine.phases());

        // The recording run itself matches an untraced run bit-for-bit.
        let mut plain_machine = CamMachine::new(&s);
        let plain_out = tape.run(&mut plain_machine, &args).unwrap();
        assert_outputs_equal(&plain_out, &tape_out, "traced vs plain");
        assert_eq!(plain_machine.stats(), rec_machine.stats());
    }

    #[test]
    fn traced_knn_run_replays_bit_identically() {
        let mut m = Module::new();
        cim::build_similarity_kernel(&mut m, "knn", "eucl", 40, 96, 8, 2, false);
        let mut stored = Vec::new();
        for p in 0..40 {
            for d in 0..96 {
                stored.push(f32::from(u8::from((d * 5 + p * 11) % 7 < 3)));
            }
        }
        let stored = Tensor::from_vec(vec![40, 96], stored).unwrap();
        let queries = stored.slice2d(4, 0, 8, 96).unwrap();
        let args = [Value::Tensor(stored), Value::Tensor(queries)];
        let s = spec(16, Optimization::Base);
        let compiled = C4camPipeline::new(s.clone()).compile(m).unwrap();
        let tape = Tape::compile(&compiled.module, "knn").unwrap();

        let mut rec_machine = CamMachine::new(&s);
        let (tape_out, trace) = tape.run_traced(&mut rec_machine, &args).unwrap();
        let mut replay_machine = CamMachine::new(&s);
        let replay_out = trace.replay(&mut replay_machine).unwrap();
        assert_outputs_equal(&tape_out, &replay_out, "knn trace replay");
        assert_eq!(rec_machine.stats(), replay_machine.stats());
    }

    #[test]
    fn runtime_errors_carry_op_context() {
        // A module whose search runs against an unallocated machine
        // can't happen through the pipeline; instead provoke a runtime
        // failure by handing a non-tensor argument.
        let mut m = Module::new();
        torch::build_hdc_dot(&mut m, 1, 2, 16, 1);
        let s = spec(16, Optimization::Base);
        let compiled = C4camPipeline::new(s.clone()).compile(m).unwrap();
        let tape = Tape::compile(&compiled.module, "forward").unwrap();
        let mut machine = CamMachine::new(&s);
        let e = tape
            .run(&mut machine, &[Value::Int(1), Value::Int(2)])
            .unwrap_err();
        assert!(e.op.is_some(), "op context attached: {e}");
        assert!(e.op_name.is_some(), "{e}");
    }

    /// A merge that fails at run time is blamed on the
    /// `cam.merge_partial_subarray`, whether its triple was fused into a
    /// `SearchMerge` or left in the loops, and on the op the walker
    /// blames; and in the blocked order (a functional machine, at one
    /// and two threads) on the same op with the same message.
    #[test]
    fn a_failing_merge_is_attributed_to_the_merge_op_fused_or_not() {
        for looped in [false, true] {
            let mut m = if looped {
                looped_hdc(2)
            } else {
                lowered_hdc(2)
            };
            let func = m.lookup_symbol("forward").unwrap();
            let merges: Vec<_> = m
                .walk(func)
                .into_iter()
                .filter(|&op| m.op(op).name == "cam.merge_partial_subarray")
                .collect();
            assert!(!merges.is_empty());
            for &merge in &merges {
                // Far outside the accumulator's 4 columns.
                let offset = OpBuilder::before(&mut m, merge).const_index(1000);
                m.set_operand(merge, 5, offset);
            }
            let (stored, queries) = hdc_inputs(2, 4, 64);
            let args = [Value::Tensor(queries), Value::Tensor(stored)];
            let s = spec(16, Optimization::Base);

            let tape = Tape::compile(&m, "forward").unwrap();
            assert_eq!(tape.specialised().is_ok(), !looped);
            let e = tape.run(&mut CamMachine::new(&s), &args).unwrap_err();
            assert!(e.message.contains("outside accumulator width"), "{e}");
            assert_eq!(e.op_name.as_deref(), Some("cam.merge_partial_subarray"));

            let walk = Executor::with_machine(&m, &mut CamMachine::new(&s))
                .run("forward", &args)
                .unwrap_err();
            assert_eq!(walk.message, e.message);
            assert_eq!((&walk.op, &walk.op_name), (&e.op, &e.op_name));
            assert!(merges.contains(&e.op.unwrap()));

            for threads in [1, 2] {
                let tl = Telemetry::default();
                let mut functional = CamMachine::functional(&s);
                let blocked = tape
                    .run_batched(&mut functional, &args, threads, &tl)
                    .unwrap_err();
                assert_eq!(blocked.message, e.message, "{threads} threads");
                assert_eq!((blocked.op, blocked.op_name), (e.op, e.op_name.clone()));
            }
        }
    }
}
