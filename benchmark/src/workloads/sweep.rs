//! `dse-sweep` — the paper's headline use (Fig. 8/9): one full
//! `SweepPlan::run` pass over 5 subarray sizes × 4 optimisations × 2
//! cell widths = 40 grid points of the paper's HDC setting with 4
//! queries. The same layers as the scans, used the other way round: 40
//! parse/place/compile pipelines, 40 machine constructions and full
//! programmings against 4 queries each — a search gain bought with
//! slower writes, slower compile or a costlier `CamMachine::new` shows
//! here as a loss.

use super::{
    fill_bench, fill_compile_layers, fill_end_to_end, fill_run_layers, finish, write_trace, Counts,
};
use crate::estimator::collect;
use crate::expected::{self, Pinned};
use crate::harness::{
    anchor_ms, measure_ops, measure_setup, same_predictions, timed_round, warm_op_secs, InputHash,
    Opts, Tally, MIN_SAMPLES, MIN_TRACED_SAMPLES,
};
use crate::layers::{compile_decomposed, run_decomposed, DeviceOps, BACKEND};
use crate::metrics::Report;
use crate::spans::{unattributed, SpanLog};
use c4cam::arch::ArchSpec;
use c4cam::driver::{build_arch, Experiment, RunOutcome};
use c4cam::sweep::{GridPoint, SweepOutcome, SweepPlan};
use c4cam::workloads::{HdcModel, HdcWorkload};
use std::collections::BTreeMap;

/// Hierarchy fan-outs `SweepPlan` uses unless told otherwise.
const HIERARCHY: (usize, usize, usize) = (4, 4, 8);
const SIZES: [usize; 5] = [16, 32, 64, 128, 256];
const BITS: [u32; 2] = [1, 2];
/// Grid points of one pass: sizes × the four optimisations × bits.
const POINTS: usize = SIZES.len() * 4 * BITS.len();

/// The sweep's workload at one seed and the CPU reference per cell
/// width (HDC hypervectors are generated at the array's level count).
pub struct SweepCase {
    workload: HdcWorkload,
    reference: BTreeMap<u32, Vec<usize>>,
    /// Fingerprint of the generated tensors at both cell widths.
    pub input_hash: u64,
}

impl SweepCase {
    /// The case at `seed`.
    pub fn new(seed: u64) -> SweepCase {
        let workload = HdcWorkload {
            seed,
            ..HdcWorkload::paper(4)
        };
        let mut hash = InputHash::new();
        let mut reference = BTreeMap::new();
        for bits in BITS {
            let model = HdcModel::random(workload.classes, workload.dims, bits, seed);
            let (queries, _) = model.queries(workload.queries, workload.flip_rate, seed);
            hash = hash.tensor(model.class_hvs()).tensor(&queries);
            reference.insert(bits, model.predict_cpu(&queries));
        }
        SweepCase {
            workload,
            reference,
            input_hash: hash.finish(),
        }
    }

    fn plan(&self) -> SweepPlan<'_> {
        SweepPlan::new(&self.workload)
            .square_subarrays(SIZES)
            .bits(BITS)
            .backends([BACKEND])
            .threads(1)
    }

    fn spec(gp: &GridPoint) -> Result<ArchSpec, String> {
        build_arch(gp.subarray, HIERARCHY, gp.optimization, gp.bits_per_cell)
            .map_err(|e| format!("grid point [{gp}]: {e}"))
    }

    fn experiment(&self, spec: &ArchSpec) -> Experiment<'_> {
        Experiment::new(&self.workload)
            .arch(spec.clone())
            .backend(BACKEND)
            .threads(1)
    }

    fn verify_point(&self, gp: &GridPoint, outcome: &RunOutcome) -> Result<(), String> {
        same_predictions(&outcome.predictions, &self.reference[&gp.bits_per_cell])
            .map_err(|e| format!("grid point [{gp}]: {e}"))
    }

    fn verify(&self, outcome: &SweepOutcome) -> Result<(), String> {
        if outcome.points.len() != POINTS {
            return Err(format!(
                "{} grid points, expected {POINTS}",
                outcome.points.len()
            ));
        }
        outcome
            .points
            .iter()
            .try_for_each(|p| self.verify_point(&p.grid, &p.outcome))
    }

    /// One cold set-up: plan construction, grid expansion, and the first
    /// grid point compiled and verified.
    fn setup(&self, tally: &mut Tally) -> Result<(), String> {
        let grid = self.plan().grid().map_err(|e| e.to_string())?;
        let first = &grid[0];
        let compiled = self
            .experiment(&SweepCase::spec(first)?)
            .compile()
            .map_err(|e| e.to_string())?;
        let outcome = compiled.run().map_err(|e| e.to_string())?;
        tally.record(self.verify_point(first, &outcome));
        Ok(())
    }

    /// One steady-state operation: a full pass, verified point by point.
    fn op(&self) -> Result<SweepOutcome, String> {
        self.plan().run().map_err(|e| e.to_string())
    }
}

/// Geometric mean of `f` over the grid points.
fn geomean(outcome: &SweepOutcome, f: impl Fn(&RunOutcome) -> f64) -> f64 {
    let log_sum: f64 = outcome.points.iter().map(|p| f(&p.outcome).ln()).sum();
    (log_sum / outcome.points.len() as f64).exp()
}

fn pinned(outcome: &SweepOutcome) -> Pinned {
    let mut pinned = Pinned::new();
    let (mut searches, mut words, mut writes) = (0u64, 0u64, 0u64);
    for (i, p) in outcome.points.iter().enumerate() {
        let o = &p.outcome;
        pinned.insert(
            format!("p{i:02}.latency_ns_per_query"),
            o.latency_per_query_ns(),
        );
        pinned.insert(
            format!("p{i:02}.energy_pj_per_query"),
            o.energy_per_query_pj(),
        );
        searches += o.total.search_ops;
        words += o.total.searched_words;
        writes += o.total.write_ops;
    }
    pinned.insert("total.search_ops".into(), searches as f64);
    pinned.insert("total.searched_words".into(), words as f64);
    pinned.insert("total.write_ops".into(), writes as f64);
    pinned
}

/// Run `dse-sweep`.
///
/// # Errors
/// A compile or execution failure (nothing to measure).
pub fn run(opts: &Opts) -> Result<Report, String> {
    let case = SweepCase::new(opts.seed);
    let mut tally = Tally::default();
    let report = if opts.trace {
        traced(&case, opts, &mut tally)?
    } else {
        untraced(&case, opts, &mut tally)?
    };
    Ok(finish(report, tally, case.input_hash))
}

fn untraced(case: &SweepCase, opts: &Opts, tally: &mut Tally) -> Result<Report, String> {
    let mut broken = None;
    let reps = if opts.quick { 1 } else { 5 };
    let setup = measure_setup(opts.plan(), reps, || {
        if let Err(e) = case.setup(tally) {
            broken = Some(e);
        }
    });
    if let Some(e) = broken {
        return Err(format!("dse-sweep: set-up failed: {e}"));
    }
    let first = case.op()?;
    expected::check("dse-sweep", &pinned(&first), opts, tally);
    let op_secs = warm_op_secs(opts.warm_secs(), || {
        tally.record(case.op().and_then(|o| case.verify(&o)));
    });
    let n = opts.ops_per_round(op_secs, MIN_SAMPLES);
    let (steady, _) = measure_ops(
        opts.plan(),
        n,
        POINTS as f64,
        || case.op(),
        |pass| tally.record(pass.and_then(|o| case.verify(&o))),
    );

    let mut report = Report::default();
    fill_end_to_end(&mut report, &setup, &steady);
    report.set(
        "sim_latency_us_per_query",
        geomean(&first, RunOutcome::latency_per_query_ns) / 1e3,
    );
    report.set(
        "sim_energy_nj_per_query",
        geomean(&first, RunOutcome::energy_per_query_pj) / 1e3,
    );
    Ok(report)
}

/// One traced pass: the pass itself, then each grid point on its own,
/// then each point's compile and run piece by piece. Returns the
/// pass's exact counts, summed over the grid.
fn traced_op(
    case: &SweepCase,
    grid: &[GridPoint],
    devices: &mut [Option<DeviceOps>],
    log: &mut SpanLog,
    ids: (u32, u64),
    tally: &mut Tally,
) -> Result<Counts, String> {
    let (pass, outcome) = log.time("sweep.pass", None, ids, || case.op());
    tally.record(outcome.and_then(|o| case.verify(&o)));
    let mut counts: Option<Counts> = None;
    for (gp, device) in grid.iter().zip(devices) {
        let spec = SweepCase::spec(gp)?;
        let (point, outcome) = log.time("sweep.point", Some(pass), ids, || {
            case.experiment(&spec).run()
        });
        let outcome = outcome.map_err(|e| e.to_string())?;
        tally.record(case.verify_point(gp, &outcome));
        let lowered = compile_decomposed(log, Some(point), ids, &case.workload, &spec)?;
        if device.is_none() {
            *device = Some(DeviceOps::record(&lowered)?);
        }
        let dev = device.as_ref().expect("recorded just above");
        let facts = run_decomposed(log, Some(point), ids, &lowered, dev, tally)?;
        let c = Counts::of(&lowered, dev, &facts);
        match &mut counts {
            Some(total) => total.add(&c),
            None => counts = Some(c),
        }
    }
    counts.ok_or_else(|| "empty grid".to_string())
}

fn traced(case: &SweepCase, opts: &Opts, tally: &mut Tally) -> Result<Report, String> {
    let plan = opts.plan();
    let anchor = anchor_ms(plan);
    let grid = case.plan().grid().map_err(|e| e.to_string())?;
    let mut devices: Vec<Option<DeviceOps>> = grid.iter().map(|_| None).collect();
    // A discarded traced pass first: it records every grid point's
    // device ops, so the heap has settled before round 0.
    traced_op(
        case,
        &grid,
        &mut devices,
        &mut SpanLog::new(),
        (0, 0),
        tally,
    )?;
    let mut log = SpanLog::new();

    // Each round measures the untraced pass (the reference) and then
    // the traced one, back to back, so both see the same host phase.
    let op_secs = warm_op_secs(opts.warm_secs(), || {
        tally.record(case.op().and_then(|o| case.verify(&o)));
    });
    let n = opts.ops_per_round(op_secs, MIN_TRACED_SAMPLES);
    // A traced pass costs ~5 plain ones; one per round where that
    // outlasts the round.
    let traced_n = opts.ops_per_round(op_secs * 5.0, 1);
    let mut samples = Vec::new();
    let mut counts = None;
    let mut broken = None;
    let (mut round, mut op_id) = (0u32, 0u64);
    let reference = collect(plan, || {
        let (summary, s) = timed_round(
            n,
            POINTS as f64,
            || case.op(),
            |pass| tally.record(pass.and_then(|o| case.verify(&o))),
        );
        samples.extend(s);
        for _ in 0..traced_n {
            op_id += 1;
            match traced_op(case, &grid, &mut devices, &mut log, (round, op_id), tally) {
                Ok(c) => counts = Some(c),
                Err(e) => broken = Some(e),
            }
        }
        round += 1;
        summary
    });
    if let Some(e) = broken {
        return Err(format!("dse-sweep: traced pass failed: {e}"));
    }
    let op_secs = reference.best_latency_s();

    let mut report = Report::default();
    fill_bench(&mut report, &reference, &samples, anchor);
    fill_compile_layers(&mut report, &log);
    let run_attributed = fill_run_layers(&mut report, &log);
    counts
        .expect("at least one traced pass ran")
        .fill(&mut report);
    let pass_ms = log.best_ms("sweep.pass");
    let self_ms = (pass_ms - log.best_ms("sweep.point")).max(0.0);
    let compile_ms = report.get("driver.compile_ms");
    report.set("sweep.point_p50_ms", log.best_each_ms("sweep.point"));
    report.set("sweep.compile_share", compile_ms / pass_ms);
    report.set("sweep.self_ms", self_ms);
    let op_ms = op_secs * 1e3;
    report.set(
        "bench.unattributed_ms",
        unattributed(op_ms, &[self_ms, compile_ms, run_attributed]),
    );
    report.set("bench.trace_overhead_ratio", pass_ms / op_ms);
    report.note("op_p50_ms", format!("{op_ms}"));
    report.note("traced_ops_per_round", traced_n.to_string());
    write_trace(&mut report, "dse-sweep", &log);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::DEFAULT_SEED;

    #[test]
    fn the_grid_is_forty_points_and_the_seed_decides_the_inputs() {
        let a = SweepCase::new(DEFAULT_SEED);
        assert_eq!(a.plan().grid().unwrap().len(), POINTS);
        assert_eq!(POINTS, 40);
        assert_eq!(a.input_hash, SweepCase::new(DEFAULT_SEED).input_hash);
        assert_ne!(a.input_hash, SweepCase::new(DEFAULT_SEED + 1).input_hash);
    }
}
