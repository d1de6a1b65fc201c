//! The two library scan workloads: one compiled experiment, executed
//! over and over (`CompiledExperiment::run`).
//!
//! * `knn-scan` — 1024 patterns × 4096 features on 128 × 128 2-bit MCAM
//!   subarrays: ~8 MB of level/care planes, four times a core's L2,
//!   swept once per query. Plane kernels and `Subarray::search` do two
//!   thirds of the work (the README lists the sizes tried to raise it).
//! * `hdc-dispatch` — 8 × 256 prototypes on 16 × 16 TCAM subarrays:
//!   cache-resident planes and 16 tiny searches per query, so tape-VM
//!   dispatch, tensor slicing, `CamMachine` bookkeeping and result
//!   assembly dominate.

use super::{
    fill_bench, fill_compile_layers, fill_end_to_end, fill_run_layers, finish, write_trace, Counts,
};
use crate::estimator::{best_round_median, collect};
use crate::expected::{self, pin_stats, Pinned};
use crate::harness::{
    anchor_ms, measure_ops, measure_setup, same_predictions, timed_round, warm_op_secs, InputHash,
    Opts, Tally, MIN_SAMPLES, MIN_TRACED_SAMPLES,
};
use crate::layers::{compile_decomposed, run_decomposed, DeviceOps, BACKEND};
use crate::metrics::Report;
use crate::spans::{unattributed, SpanLog};
use c4cam::arch::{ArchSpec, Optimization};
use c4cam::driver::{build_arch, paper_arch, CompiledExperiment, Experiment, RunOutcome};
use c4cam::telemetry::{CollectingRecorder, Telemetry};
use c4cam::workloads::{nearest_rows_cpu, HdcModel, HdcWorkload, KnnWorkload, Workload};
use std::sync::Arc;

/// One scan workload at one seed: the program's inputs and the
/// reference its outputs are held against.
pub struct ScanCase {
    name: &'static str,
    workload: Box<dyn Workload>,
    spec: ArchSpec,
    /// Cold set-ups per set-up round.
    setup_reps: usize,
    /// Whether the traced pass also times the operation with a
    /// recording `Telemetry` (`telemetry.on_overhead_ratio`).
    probes_telemetry: bool,
    /// CPU-reference prediction per query, computed without the compiler.
    reference: Vec<usize>,
    /// Fingerprint of the generated stored and query tensors.
    pub input_hash: u64,
}

/// `knn-scan` at `seed`.
pub fn knn(seed: u64) -> ScanCase {
    let workload = KnnWorkload {
        patterns: 1024,
        dims: 4096,
        queries: 256,
        k: 5,
        noise: 0.2,
        seed,
    };
    let spec = paper_arch(128, Optimization::Base, 2);
    let inputs = workload.inputs(&spec);
    ScanCase {
        name: "knn-scan",
        spec,
        // One set-up is ~1 s here (CPU labels dominate input generation).
        setup_reps: 1,
        probes_telemetry: false,
        reference: nearest_rows_cpu(&inputs.stored, &inputs.queries),
        input_hash: InputHash::new()
            .tensor(&inputs.stored)
            .tensor(&inputs.queries)
            .finish(),
        workload: Box::new(workload),
    }
}

/// `hdc-dispatch` at `seed`.
pub fn hdc(seed: u64) -> ScanCase {
    let workload = HdcWorkload {
        classes: 8,
        dims: 256,
        queries: 1024,
        flip_rate: 0.1,
        seed,
    };
    let spec = build_arch((16, 16), (2, 2, 4), Optimization::Base, 1)
        .expect("valid hdc-dispatch architecture");
    let inputs = workload.inputs(&spec);
    let model = HdcModel::random(workload.classes, workload.dims, spec.bits_per_cell, seed);
    ScanCase {
        name: "hdc-dispatch",
        spec,
        setup_reps: 5,
        // The dispatch-bound workload is where per-op spans cost most.
        probes_telemetry: true,
        reference: model.predict_cpu(&inputs.queries),
        input_hash: InputHash::new()
            .tensor(&inputs.stored)
            .tensor(&inputs.queries)
            .finish(),
        workload: Box::new(workload),
    }
}

impl ScanCase {
    fn queries(&self) -> f64 {
        self.workload.query_count() as f64
    }

    /// One cold set-up: `Experiment::compile` (input generation, parse,
    /// place, compile) and the first verified execution.
    fn setup(&self, tally: &mut Tally) -> Result<(CompiledExperiment, RunOutcome), String> {
        let compiled = Experiment::new(self.workload.as_ref())
            .arch(self.spec.clone())
            .backend(BACKEND)
            .threads(1)
            .compile()
            .map_err(|e| e.to_string())?;
        let outcome = compiled.run().map_err(|e| e.to_string())?;
        tally.record(self.verify(&outcome));
        Ok((compiled, outcome))
    }

    fn verify(&self, outcome: &RunOutcome) -> Result<(), String> {
        same_predictions(&outcome.predictions, &self.reference)
    }

    /// One steady-state operation and its verdict.
    fn op(&self, compiled: &CompiledExperiment) -> Result<(), String> {
        let outcome = compiled.run().map_err(|e| e.to_string())?;
        self.verify(&outcome)
    }

    fn pinned(outcome: &RunOutcome) -> Pinned {
        let mut pinned = Pinned::new();
        pin_stats(&mut pinned, "setup", &outcome.setup);
        pin_stats(&mut pinned, "query_phase", &outcome.query_phase);
        pinned
    }
}

/// Run the scan workload `case` builds.
///
/// # Errors
/// A compile or execution failure (nothing to measure).
pub fn run(case: fn(u64) -> ScanCase, opts: &Opts) -> Result<Report, String> {
    let case = case(opts.seed);
    let mut tally = Tally::default();
    let report = if opts.trace {
        traced(&case, opts, &mut tally)?
    } else {
        untraced(&case, opts, &mut tally)?
    };
    Ok(finish(report, tally, case.input_hash))
}

fn untraced(case: &ScanCase, opts: &Opts, tally: &mut Tally) -> Result<Report, String> {
    let plan = opts.plan();
    let mut last = None;
    let mut broken = None;
    let reps = if opts.quick { 1 } else { case.setup_reps };
    let setup = measure_setup(plan, reps, || match case.setup(tally) {
        Ok(artifacts) => last = Some(artifacts),
        Err(e) => broken = Some(e),
    });
    if let Some(e) = broken {
        return Err(format!("{}: set-up failed: {e}", case.name));
    }
    let (compiled, first) = last.expect("at least one set-up ran");
    expected::check(case.name, &ScanCase::pinned(&first), opts, tally);

    let op_secs = warm_op_secs(opts.warm_secs(), || tally.record(case.op(&compiled)));
    let n = opts.ops_per_round(op_secs, MIN_SAMPLES);
    let (steady, _) = measure_ops(
        plan,
        n,
        case.queries(),
        || case.op(&compiled),
        |verdict| tally.record(verdict),
    );

    let mut report = Report::default();
    fill_end_to_end(&mut report, &setup, &steady);
    report.set(
        "sim_latency_us_per_query",
        first.latency_per_query_ns() / 1e3,
    );
    report.set("sim_energy_nj_per_query", first.energy_per_query_pj() / 1e3);
    report.note("ops_per_round", n.to_string());
    Ok(report)
}

fn traced(case: &ScanCase, opts: &Opts, tally: &mut Tally) -> Result<Report, String> {
    let plan = opts.plan();
    let anchor = anchor_ms(plan);
    let mut log = SpanLog::new();
    let mut op_id = 0u64;
    let mut next_op = || {
        op_id += 1;
        op_id
    };

    // Compile, piece by piece, in rounds of cold repetitions like setup_s.
    let reps = if opts.quick { 1 } else { case.setup_reps };
    let mut lowered = None;
    for round in 0..plan.rounds as u32 {
        for _ in 0..reps {
            let ids = (round, next_op());
            lowered = Some(compile_decomposed(
                &mut log,
                None,
                ids,
                case.workload.as_ref(),
                &case.spec,
            )?);
        }
    }
    let lowered = lowered.expect("at least one compile round ran");
    let dev = DeviceOps::record(&lowered)?;

    // Each round measures the untraced operation (the reference the
    // waterfall is reconciled against) and then the same run through
    // every level, back to back, so both see the same phase of the host.
    let op_secs = warm_op_secs(opts.warm_secs(), || {
        tally.record(case.op(&lowered.compiled));
    });
    let n = opts.ops_per_round(op_secs, MIN_TRACED_SAMPLES);
    // A traced operation issues the work once per level (~5× the
    // operation); where that outlasts the round, two per round still
    // give every level fourteen samples to take its floor from.
    let traced_n = opts.ops_per_round(op_secs * 5.0, 2);
    let mut samples = Vec::new();
    let mut facts = None;
    let mut broken = None;
    let mut round = 0u32;
    let reference = collect(plan, || {
        let (summary, s) = timed_round(
            n,
            case.queries(),
            || case.op(&lowered.compiled),
            |verdict| tally.record(verdict),
        );
        samples.extend(s);
        for _ in 0..traced_n {
            let ids = (round, next_op());
            match run_decomposed(&mut log, None, ids, &lowered, &dev, tally) {
                Ok(f) => {
                    tally.record(case.verify(&f.outcome));
                    facts = Some(f);
                }
                Err(e) => broken = Some(e),
            }
        }
        round += 1;
        summary
    });
    if let Some(e) = broken {
        return Err(format!("{}: traced run failed: {e}", case.name));
    }
    let facts = facts.expect("at least one traced round ran");

    let subarray_rounds: Vec<Vec<f64>> = (0..plan.rounds)
        .map(|_| {
            (0..MIN_SAMPLES)
                .map(|_| dev.subarray_search_secs(&case.spec, 2000))
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()?;

    let mut report = Report::default();
    fill_bench(&mut report, &reference, &samples, anchor);
    fill_compile_layers(&mut report, &log);
    let attributed = fill_run_layers(&mut report, &log);
    Counts::of(&lowered, &dev, &facts).fill(&mut report);
    report.set(
        "camsim.subarray_search_ns",
        best_round_median(&subarray_rounds) * 1e9,
    );
    let op_ms = reference.best_latency_s() * 1e3;
    report.set("bench.unattributed_ms", unattributed(op_ms, &[attributed]));
    report.set(
        "bench.trace_overhead_ratio",
        report.get("driver.run_ms") / op_ms,
    );
    if case.probes_telemetry {
        // Each operation records into a fresh recorder (an operation
        // logs ~40 k events; keeping a round's worth would measure the
        // allocator instead), so the ratio includes cloning the plan
        // handle and dropping the events. A recorded operation costs
        // about three plain ones; a third as many fill the round.
        let (on, _) = measure_ops(
            plan,
            n.div_ceil(3),
            case.queries(),
            || {
                let recorder = Arc::new(CollectingRecorder::new());
                let compiled = lowered
                    .compiled
                    .clone()
                    .with_telemetry(Telemetry::new(recorder));
                case.op(&compiled)
            },
            |verdict| tally.record(verdict),
        );
        report.set(
            "telemetry.on_overhead_ratio",
            on.best_latency_s() / reference.best_latency_s(),
        );
    }
    report.note("op_p50_ms", format!("{op_ms}"));
    report.note("ops_per_round", n.to_string());
    report.note("traced_ops_per_round", traced_n.to_string());
    write_trace(&mut report, case.name, &log);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::DEFAULT_SEED;

    #[test]
    fn the_seed_decides_the_inputs_and_nothing_else_does() {
        let a = hdc(DEFAULT_SEED);
        let b = hdc(DEFAULT_SEED);
        let c = hdc(DEFAULT_SEED + 1);
        assert_eq!(a.input_hash, b.input_hash);
        assert_eq!(a.reference, b.reference);
        assert_ne!(a.input_hash, c.input_hash);
    }

    #[test]
    fn exact_metrics_repeat_for_a_seed_and_hold_the_pinned_values() {
        let quick = Opts {
            seed: DEFAULT_SEED,
            seconds: 1.0,
            trace: false,
            quick: true,
            bless: false,
        };
        let a = run(hdc, &quick).unwrap();
        let b = run(hdc, &quick).unwrap();
        assert_eq!(a.failed, 0, "{:?}", a.info);
        for m in ["sim_latency_us_per_query", "sim_energy_nj_per_query"] {
            assert!(a.get(m) > 0.0);
            assert_eq!(a.get(m).to_bits(), b.get(m).to_bits(), "{m}");
        }
        // The simulated cost model depends on the geometry, not on the
        // data: another seed simulates the same device time.
        let other = run(
            hdc,
            &Opts {
                seed: DEFAULT_SEED + 1,
                ..quick
            },
        )
        .unwrap();
        assert_eq!(other.failed, 0, "{:?}", other.info);
        assert!(
            other.attempted < a.attempted,
            "no pinned check off the default seed"
        );
    }
}
