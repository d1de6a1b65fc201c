//! The layer waterfall, measured from outside: one experiment's compile
//! and run, each issued again through successively lower public entry
//! points and timed as spans.
//!
//! ```text
//! driver.compile ⊃ workloads.build_module + workloads.inputs + core.place
//!                + core.pipeline + hal.plan_compile ⊃ engine.tape_compile
//! driver.run ⊃ hal.execute ⊃ engine.tape_run
//!            ⊃ camsim.machine_new + camsim.write + camsim.search
//! engine.trace_replay   (beside the chain, see below)
//! ```
//!
//! Every lower level re-does the same device work, so each level's
//! statistics are held equal to the top one's: a decomposition that
//! measured different work would be a failed operation, not a number.
//!
//! `Trace::replay` issues the identical device-op sequence without the
//! VM, but it is not a level of the chain: the replayer keeps its
//! values in a hash map and clones tensors per merge, so on
//! dispatch-bound work it is *slower* than the VM it was meant to
//! undercut (12.6 vs 10.4 ms on `hdc-dispatch`). It is reported beside
//! the chain as a second implementation of the same sequence.

use crate::harness::{same_predictions, Tally};
use crate::spans::SpanLog;
use c4cam::arch::ArchSpec;
use c4cam::camsim::{
    ArrayId, BankId, CamMachine, ExecStats, MatId, RowSelection, SearchScratch, SearchSpec,
    Subarray, SubarrayId,
};
use c4cam::compiler::mapping::{place, MappingProblem};
use c4cam::compiler::pipeline::C4camPipeline;
use c4cam::driver::{CompiledExperiment, Experiment, RunOutcome};
use c4cam::engine::{Tape, Trace, TraceOp};
use c4cam::hal::{BackendRegistry, ExecOptions, SharedPlan};
use c4cam::runtime::Value;
use c4cam::workloads::{ArgOrder, Workload};
use std::time::Instant;

/// `(round, op)` of the operation a span belongs to.
pub type Ids = (u32, u64);

/// The backend every workload runs on.
pub const BACKEND: &str = "tape";

/// What the compile phase produced, piece by piece.
pub struct Lowered {
    /// The driver's own artifact (`Experiment::compile`).
    pub compiled: CompiledExperiment,
    /// The HAL plan compiled here from the lowered module.
    pub plan: SharedPlan,
    /// The tape compiled here from the lowered module.
    pub tape: Tape,
    /// Kernel arguments in the workload's declared order.
    pub args: Vec<Value>,
    /// The architecture compiled for.
    pub spec: ArchSpec,
    /// Queries per execution.
    pub queries: usize,
    /// Passes the pipeline ran.
    pub passes: usize,
    /// Ops in the module after lowering.
    pub ir_ops: usize,
}

fn sequential() -> ExecOptions {
    ExecOptions::sequential().with_threads(1)
}

/// Compile `workload` for `spec` through the driver, then again piece
/// by piece, recording a span per piece.
///
/// # Errors
/// Any stage's failure, as text.
pub fn compile_decomposed(
    log: &mut SpanLog,
    parent: Option<usize>,
    ids: Ids,
    workload: &dyn Workload,
    spec: &ArchSpec,
) -> Result<Lowered, String> {
    let (top, compiled) = log.time("driver.compile", parent, ids, || {
        Experiment::new(workload)
            .arch(spec.clone())
            .backend(BACKEND)
            .threads(1)
            .compile()
    });
    let compiled = compiled.map_err(|e| e.to_string())?;
    let top = Some(top);

    let (_, built) = log.time("workloads.build_module", top, ids, || {
        workload.build_module(spec)
    });
    let (_, inputs) = log.time("workloads.inputs", top, ids, || workload.inputs(spec));
    let (_, placed) = log.time("core.place", top, ids, || {
        place(
            spec,
            &MappingProblem {
                stored_rows: workload.stored_rows(),
                feature_dims: workload.dims(),
                queries: workload.query_count(),
            },
        )
    });
    placed.map_err(|e| e.to_string())?;
    let (_, kernel) = log.time("core.pipeline", top, ids, || {
        C4camPipeline::new(spec.clone()).compile(built.module)
    });
    let kernel = kernel.map_err(|e| e.to_string())?;
    let backend = BackendRegistry::global()
        .get(BACKEND)
        .map_err(|e| e.to_string())?;
    let (plan_span, plan) = log.time("hal.plan_compile", top, ids, || {
        backend.compile_shared(&kernel.module, built.func, spec)
    });
    let plan = plan.map_err(|e| e.to_string())?;
    let (_, tape) = log.time("engine.tape_compile", Some(plan_span), ids, || {
        Tape::compile(&kernel.module, built.func)
    });
    let tape = tape.map_err(|e| e.to_string())?;

    let (queries, stored) = (Value::Tensor(inputs.queries), Value::Tensor(inputs.stored));
    let args = match built.arg_order {
        ArgOrder::QueriesThenStored => vec![queries, stored],
        ArgOrder::StoredThenQueries => vec![stored, queries],
    };
    Ok(Lowered {
        compiled,
        plan,
        tape,
        args,
        spec: spec.clone(),
        queries: workload.query_count(),
        passes: kernel.timings.len(),
        ir_ops: kernel.module.walk_all().len(),
    })
}

/// The device-op sequence of one execution, recorded once with
/// `Tape::run_traced` and indexed by kind so the searches can be issued
/// directly, without the VM or the replayer in between.
pub struct DeviceOps {
    trace: Trace,
    allocs: Vec<usize>,
    writes: Vec<usize>,
    searches: Vec<(usize, SearchSpec)>,
}

impl DeviceOps {
    /// Record the ops `lowered` issues in one execution.
    ///
    /// # Errors
    /// Engine failures, as text.
    pub fn record(lowered: &Lowered) -> Result<DeviceOps, String> {
        let mut scratch = CamMachine::new(&lowered.spec);
        let (_, trace) = lowered
            .tape
            .run_traced(&mut scratch, &lowered.args)
            .map_err(|e| e.to_string())?;
        let (mut allocs, mut writes, mut searches) = (Vec::new(), Vec::new(), Vec::new());
        for (i, op) in trace.ops.iter().enumerate() {
            match op {
                TraceOp::AllocBank
                | TraceOp::AllocMat { .. }
                | TraceOp::AllocArray { .. }
                | TraceOp::AllocSubarray { .. } => allocs.push(i),
                TraceOp::Write { .. } => writes.push(i),
                TraceOp::Search {
                    kind,
                    metric,
                    selection,
                    threshold,
                    share,
                    ..
                } => {
                    let mut spec = SearchSpec::new(*kind, *metric);
                    if let Some((start, len)) = *selection {
                        spec = spec.with_selection(RowSelection::Window { start, len });
                    }
                    if let Some(t) = *threshold {
                        spec = spec.with_threshold(t);
                    }
                    if let Some(s) = *share {
                        spec = spec.with_broadcast_share(s);
                    }
                    searches.push((i, spec));
                }
                _ => {}
            }
        }
        Ok(DeviceOps {
            trace,
            allocs,
            writes,
            searches,
        })
    }

    /// Device ops in one execution (allocations, writes, searches,
    /// reads, merges, scopes, the final reduction).
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Construct a machine and allocate the recorded hierarchy.
    fn machine(&self, spec: &ArchSpec) -> Result<(CamMachine, Vec<SubarrayId>), String> {
        let mut m = CamMachine::new(spec);
        let (mut banks, mut mats, mut arrays, mut subs) = (
            Vec::<BankId>::new(),
            Vec::<MatId>::new(),
            Vec::<ArrayId>::new(),
            Vec::new(),
        );
        for &i in &self.allocs {
            match self.trace.ops[i] {
                TraceOp::AllocBank => banks.push(m.alloc_bank().map_err(|e| e.message)?),
                TraceOp::AllocMat { bank } => {
                    mats.push(m.alloc_mat(banks[bank]).map_err(|e| e.message)?);
                }
                TraceOp::AllocArray { mat } => {
                    arrays.push(m.alloc_array(mats[mat]).map_err(|e| e.message)?);
                }
                TraceOp::AllocSubarray { array } => {
                    subs.push(m.alloc_subarray(arrays[array]).map_err(|e| e.message)?);
                }
                _ => unreachable!("allocs indexes allocation ops only"),
            }
        }
        Ok((m, subs))
    }

    fn write_all(&self, m: &mut CamMachine, subs: &[SubarrayId]) -> Result<(), String> {
        for &i in &self.writes {
            let TraceOp::Write { sub, row_off, rows } = &self.trace.ops[i] else {
                unreachable!("writes indexes write ops only")
            };
            m.write_rows(subs[*sub], *row_off, rows)
                .map_err(|e| e.message)?;
        }
        Ok(())
    }

    /// Issue every recorded search; returns the rows that took part,
    /// summed over the searches.
    fn search_all(&self, m: &mut CamMachine, subs: &[SubarrayId]) -> Result<u64, String> {
        let mut active_rows = 0u64;
        for &(i, spec) in &self.searches {
            let TraceOp::Search { sub, query, .. } = &self.trace.ops[i] else {
                unreachable!("searches indexes search ops only")
            };
            let result = m.search(subs[*sub], query, spec).map_err(|e| e.message)?;
            active_rows += result.rows.len() as u64;
        }
        Ok(active_rows)
    }

    /// Seconds per `Subarray::search` on one subarray of this geometry:
    /// the first searched subarray's rows and the first query against
    /// it, `calls` times.
    ///
    /// # Errors
    /// A trace without searches, or a simulator failure.
    pub fn subarray_search_secs(&self, spec: &ArchSpec, calls: usize) -> Result<f64, String> {
        let &(first, search) = self.searches.first().ok_or("the trace has no search")?;
        let TraceOp::Search {
            sub: target, query, ..
        } = &self.trace.ops[first]
        else {
            unreachable!("searches indexes search ops only")
        };
        let mut subarray = Subarray::new(spec.rows_per_subarray, spec.cols_per_subarray);
        for &i in &self.writes {
            if let TraceOp::Write { sub, row_off, rows } = &self.trace.ops[i] {
                if sub == target {
                    subarray.write_rows(*row_off, rows, spec.bits_per_cell)?;
                }
            }
        }
        let mut scratch = SearchScratch::default();
        let t = Instant::now();
        for _ in 0..calls {
            let r = subarray.search(
                std::hint::black_box(query),
                search.kind,
                search.metric,
                search.selection,
                search.threshold,
                None,
                &mut scratch,
            )?;
            std::hint::black_box(r.distances.len());
        }
        Ok(t.elapsed().as_secs_f64() / calls as f64)
    }
}

/// What one decomposed run established besides its spans.
pub struct RunFacts {
    /// The top-level outcome (`CompiledExperiment::run`).
    pub outcome: RunOutcome,
    /// Rows that took part in the directly issued searches, summed.
    pub active_rows: u64,
}

/// Top-1 predictions of raw kernel outputs, as the driver extracts them.
fn top1(outputs: &[Value], queries: usize) -> Result<Vec<usize>, String> {
    let indices = outputs
        .get(1)
        .and_then(Value::as_tensor)
        .ok_or("kernel returned no indices")?;
    Ok((0..queries)
        .map(|q| indices.data()[q * indices.len() / queries] as usize)
        .collect())
}

fn same_stats(level: &str, got: &ExecStats, want: &ExecStats) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{level} simulated different work than driver.run: {} vs {}",
            got.to_json(),
            want.to_json()
        ))
    }
}

/// Run `lowered` once through the driver, then again through each lower
/// entry point, recording a span per level. Each level's predictions
/// and statistics are held against the driver's as one operation on
/// `tally`.
///
/// # Errors
/// Any level's failure, as text.
pub fn run_decomposed(
    log: &mut SpanLog,
    parent: Option<usize>,
    ids: Ids,
    lowered: &Lowered,
    dev: &DeviceOps,
    tally: &mut Tally,
) -> Result<RunFacts, String> {
    let (run, outcome) = log.time("driver.run", parent, ids, || lowered.compiled.run());
    let outcome = outcome.map_err(|e| e.to_string())?;
    let nq = lowered.queries;

    let opts = sequential();
    let (exec, execution) = log.time("hal.execute", Some(run), ids, || {
        lowered.plan.execute(&lowered.args, &opts)
    });
    let execution = execution.map_err(|e| e.to_string())?;

    // Each level drops its machine inside its span, as `Plan::execute`
    // does: a machine kept alive would push the next level's planes onto
    // fresh pages and charge it the page faults.
    let (tape_run, ran) = log.time("engine.tape_run", Some(exec), ids, || {
        let mut m = CamMachine::new(&lowered.spec);
        lowered
            .tape
            .run(&mut m, &lowered.args)
            .map(|out| (out, m.stats()))
    });
    let (tape_out, tape_stats) = ran.map_err(|e| e.to_string())?;

    let (_, replayed) = log.time("engine.trace_replay", parent, ids, || {
        let mut m = CamMachine::new(&lowered.spec);
        dev.trace.replay(&mut m).map(|out| (out, m.stats()))
    });
    let (replay_out, replay_stats) = replayed.map_err(|e| e.to_string())?;

    let leaf = Some(tape_run);
    let (_, built) = log.time("camsim.machine_new", leaf, ids, || {
        dev.machine(&lowered.spec)
    });
    let (mut machine, subs) = built?;
    let (_, wrote) = log.time("camsim.write", leaf, ids, || {
        dev.write_all(&mut machine, &subs)
    });
    wrote?;
    let (_, searched) = log.time("camsim.search", leaf, ids, || {
        dev.search_all(&mut machine, &subs)
    });
    let active_rows = searched?;

    let direct = machine.stats();
    drop(machine);
    tally.record(
        same_predictions(&top1(&execution.outputs, nq)?, &outcome.predictions)
            .and_then(|()| same_predictions(&top1(&tape_out, nq)?, &outcome.predictions))
            .and_then(|()| same_predictions(&top1(&replay_out, nq)?, &outcome.predictions))
            .and_then(|()| same_stats("hal.execute", &execution.stats, &outcome.total))
            .and_then(|()| same_stats("engine.tape_run", &tape_stats, &outcome.total))
            .and_then(|()| {
                same_stats("engine.trace_replay", &replay_stats, &outcome.total)
            })
            .and_then(|()| {
                let same = direct.search_ops == outcome.total.search_ops
                    && direct.searched_words == outcome.total.searched_words
                    && direct.write_ops == outcome.total.write_ops;
                same.then_some(()).ok_or_else(|| {
                    format!(
                        "direct issue did {} searches / {} words / {} writes, driver.run {} / {} / {}",
                        direct.search_ops,
                        direct.searched_words,
                        direct.write_ops,
                        outcome.total.search_ops,
                        outcome.total.searched_words,
                        outcome.total.write_ops
                    )
                })
            }),
    );
    Ok(RunFacts {
        outcome,
        active_rows,
    })
}

/// Plane bytes the recorded searches sweep, computed from plane sizes
/// (not measured): per participating row, the packed value and care
/// `u64` planes on a 1-bit array, the `u8` level and care planes
/// otherwise.
pub fn plane_bytes(spec: &ArchSpec, active_rows: u64) -> u64 {
    let cols = spec.cols_per_subarray as u64;
    let per_row = if spec.bits_per_cell == 1 {
        2 * 8 * cols.div_ceil(64)
    } else {
        2 * cols
    };
    active_rows * per_row
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4cam::arch::Optimization;
    use c4cam::driver::paper_arch;
    use c4cam::workloads::HdcWorkload;

    #[test]
    fn every_level_does_the_same_work_and_the_spans_nest_as_documented() {
        let w = HdcWorkload {
            classes: 4,
            dims: 64,
            queries: 6,
            flip_rate: 0.1,
            seed: 3,
        };
        let spec = paper_arch(16, Optimization::Base, 1);
        let mut log = SpanLog::new();
        let lowered = compile_decomposed(&mut log, None, (0, 0), &w, &spec).unwrap();
        assert_eq!(lowered.passes, 3);
        assert!(lowered.ir_ops > 0 && !lowered.tape.is_empty());
        let dev = DeviceOps::record(&lowered).unwrap();
        let mut tally = Tally::default();
        let facts = run_decomposed(&mut log, None, (0, 1), &lowered, &dev, &mut tally).unwrap();
        assert_eq!(
            (tally.attempted, tally.failed),
            (1, 0),
            "{:?}",
            tally.first_failure
        );
        assert_eq!(facts.outcome.predictions.len(), 6);
        // 64 dims over 16 columns = 4 subarrays × 6 queries, 4 rows each.
        assert_eq!(facts.outcome.total.search_ops, 24);
        assert_eq!(facts.active_rows, 24 * 4);
        assert_eq!(plane_bytes(&spec, facts.active_rows), 24 * 4 * 16);
        assert!(dev.subarray_search_secs(&spec, 10).unwrap() > 0.0);

        let parent_of = |name: &str| {
            let s = log.spans().iter().find(|s| s.name == name).expect(name);
            s.parent.map(|p| log.spans()[p].name)
        };
        assert_eq!(parent_of("driver.compile"), None);
        assert_eq!(parent_of("core.pipeline"), Some("driver.compile"));
        assert_eq!(parent_of("engine.tape_compile"), Some("hal.plan_compile"));
        assert_eq!(parent_of("hal.execute"), Some("driver.run"));
        assert_eq!(parent_of("engine.tape_run"), Some("hal.execute"));
        assert_eq!(parent_of("engine.trace_replay"), None);
        for leaf in ["camsim.machine_new", "camsim.write", "camsim.search"] {
            assert_eq!(parent_of(leaf), Some("engine.tape_run"));
        }
    }

    #[test]
    fn plane_bytes_follow_the_cell_width() {
        let tcam = paper_arch(128, Optimization::Base, 1);
        assert_eq!(plane_bytes(&tcam, 10), 10 * 2 * 8 * 2);
        let mcam = paper_arch(128, Optimization::Base, 2);
        assert_eq!(plane_bytes(&mcam, 10), 10 * 2 * 128);
    }
}
