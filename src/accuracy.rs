//! App-level accuracy evaluation on real datasets (paper Fig. 7,
//! Table 2): run CAM inference through the unchanged [`Experiment`]
//! pipeline, run the CPU reference classifier on the same quantized
//! data, and report both accuracies plus their row-level agreement
//! alongside the simulator's latency/energy numbers.
//!
//! The agreement column is the load-bearing one: the device executes
//! the same argmin reduction over the same integer level grid as
//! [`DatasetWorkload::predict_cpu`], so agreement is expected to be
//! exactly `1.0` — any accuracy delta between CAM and CPU would be a
//! simulation bug, not a hardware property. Accuracy deltas across
//! `bits_per_cell` are real: they measure what quantization costs.
//!
//! The `c4cam accuracy` subcommand is a thin wrapper over
//! [`evaluate`] + [`AccuracyReport`].

use crate::driver::{DriverError, Experiment, RunOutcome};
use c4cam_arch::ArchSpec;
use c4cam_camsim::ExecStats;
use c4cam_datasets::{DatasetTask, DatasetWorkload};
use c4cam_hal::FaultConfig;
use c4cam_telemetry::json::{self, Field};
use c4cam_telemetry::{cat, Telemetry};
use c4cam_workloads::Workload;
use std::fmt::Write as _;

/// Fault-injection knobs for one accuracy evaluation: the seeded rate
/// model plus the resilience levers the `c4cam accuracy` subcommand
/// exposes (`--fault-rate`, `--fault-seed`, `--spare-rows`, `--vote`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultKnobs {
    /// Headline fault rate: stuck-at faults split evenly between
    /// stuck-0 and stuck-1, drift and transient mismatches both at
    /// this rate (see [`c4cam_hal::FaultModel::with_rate`]).
    pub rate: f64,
    /// Seed for the deterministic fault-site hash streams.
    pub seed: u64,
    /// Spare rows reserved per subarray for stuck-row remapping.
    pub spare_rows: usize,
    /// k-modular redundant-search voting factor (1 = voting off).
    pub vote: usize,
}

impl FaultKnobs {
    /// Knobs for `rate` and `seed` with every resilience lever off.
    pub fn new(rate: f64, seed: u64) -> FaultKnobs {
        FaultKnobs {
            rate,
            seed,
            spare_rows: 0,
            vote: 1,
        }
    }

    /// The [`FaultConfig`] these knobs describe.
    pub fn config(&self) -> FaultConfig {
        let mut cfg = FaultConfig::with_rate(self.rate, self.seed);
        cfg.resilience.spare_rows = self.spare_rows;
        cfg.resilience.vote = self.vote.max(1);
        cfg
    }
}

/// One evaluated configuration: a dataset workload on one
/// architecture, with CAM and CPU-reference results side by side.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Workload name (`dataset-hdc` / `dataset-knn`).
    pub task: String,
    /// Dataset display name.
    pub dataset: String,
    /// Stored rows (prototypes or training samples).
    pub stored_rows: usize,
    /// Queries executed.
    pub queries: usize,
    /// Feature dimensionality.
    pub dims: usize,
    /// Classes in the dataset.
    pub classes: usize,
    /// Cell width the data was quantized to.
    pub bits_per_cell: u32,
    /// Execution backend name (a [`c4cam_hal::BackendRegistry`] key).
    pub engine: String,
    /// Worker threads.
    pub threads: usize,
    /// CAM classification accuracy against ground-truth classes.
    pub cam_accuracy: f64,
    /// CPU reference classifier accuracy against the same truth.
    pub cpu_accuracy: f64,
    /// Fraction of queries where CAM and CPU retrieve the same row.
    pub agreement: f64,
    /// Headline fault rate the run was evaluated under (0 = no
    /// injection).
    pub fault_rate: f64,
    /// Seed of the fault-site hash streams (0 when faults are off).
    pub fault_seed: u64,
    /// The full experiment outcome (stats, placement, predictions).
    pub outcome: RunOutcome,
}

impl AccuracyRow {
    /// Query-phase latency per query, ns.
    pub fn latency_per_query_ns(&self) -> f64 {
        self.outcome.latency_per_query_ns()
    }

    /// Query-phase energy per query, pJ.
    pub fn energy_per_query_pj(&self) -> f64 {
        self.outcome.energy_per_query_pj()
    }

    /// Query-phase statistics.
    pub fn query_phase(&self) -> &ExecStats {
        &self.outcome.query_phase
    }

    /// Stuck/drifted fault sites materialized while programming the
    /// device (run total — they accrue in the setup phase, not the
    /// query phase).
    pub fn fault_cells(&self) -> u64 {
        self.outcome.total.fault_cells
    }

    /// Transient per-search mismatches injected during queries.
    pub fn fault_transients(&self) -> u64 {
        self.outcome.total.fault_transients
    }

    /// Logical rows remapped onto spare rows.
    pub fn rows_remapped(&self) -> u64 {
        self.outcome.total.rows_remapped
    }
}

/// Evaluate `workload` on `spec`: CAM inference via the experiment
/// pipeline vs. the CPU reference classifier on identical quantized
/// inputs.
///
/// # Errors
/// Propagates the experiment's [`DriverError`] (config, place,
/// compile, or exec stage).
pub fn evaluate(
    workload: &DatasetWorkload,
    spec: &ArchSpec,
    engine: &str,
    threads: usize,
) -> Result<AccuracyRow, DriverError> {
    evaluate_faulty(workload, spec, engine, threads, None, &Telemetry::default())
}

/// [`evaluate`] under seeded fault injection and with a telemetry
/// handle: `faults` (when present) configures the device fault model
/// and resilience levers through [`Experiment::faults`], and the
/// resulting row carries the fault rate/seed plus the injected-fault
/// counters; `None` is byte-for-byte the fault-free evaluation. The
/// experiment's phase/op spans are recorded under a `grid` span naming
/// the evaluated configuration (`<task>/<bits>b/<engine>`).
///
/// # Errors
/// Propagates the experiment's [`DriverError`] (config, place,
/// compile, or exec stage).
pub fn evaluate_faulty(
    workload: &DatasetWorkload,
    spec: &ArchSpec,
    engine: &str,
    threads: usize,
    faults: Option<&FaultKnobs>,
    telemetry: &Telemetry,
) -> Result<AccuracyRow, DriverError> {
    let _span = telemetry.span(
        format!("{}/{}b/{}", workload.name(), spec.bits_per_cell, engine),
        cat::GRID,
    );
    let mut experiment = Experiment::new(workload)
        .arch(spec.clone())
        .backend(engine)
        .threads(threads)
        .telemetry(telemetry.clone());
    if let Some(knobs) = faults {
        experiment = experiment.faults(knobs.config());
    }
    let outcome = experiment.run()?;
    // For the kNN task the experiment's ground-truth labels *are* the
    // CPU reference (nearest stored row), so the O(queries × rows ×
    // dims) argmin the run already performed is reused instead of
    // recomputed; the HDC task's labels are the real class labels, so
    // its (classes-row, cheap) reference runs here.
    let cpu_rows = match workload.task() {
        DatasetTask::Knn => outcome.labels.clone(),
        DatasetTask::Hdc => workload.predict_cpu(spec),
    };
    Ok(AccuracyRow {
        task: workload.name().to_string(),
        dataset: workload.dataset().name().to_string(),
        stored_rows: workload.stored_rows(),
        queries: workload.query_count(),
        dims: workload.dims(),
        classes: workload.dataset().classes(),
        bits_per_cell: spec.bits_per_cell,
        engine: engine.to_string(),
        threads,
        cam_accuracy: workload.class_accuracy(&outcome.predictions),
        cpu_accuracy: workload.class_accuracy(&cpu_rows),
        agreement: outcome.prediction_agreement(&cpu_rows),
        fault_rate: faults.map_or(0.0, |k| k.rate),
        fault_seed: faults.map_or(0, |k| k.seed),
        outcome,
    })
}

/// A Fig. 7-style accuracy report: one row per evaluated
/// configuration (typically one per `bits_per_cell`).
#[derive(Debug, Clone)]
pub struct AccuracyReport {
    /// Evaluated configurations, in evaluation order.
    pub rows: Vec<AccuracyRow>,
}

/// One report column: its name and its value in a row.
type Column = (&'static str, fn(&AccuracyRow) -> Field<'_>);

/// The CSV/JSON report's columns, each listed once; the CSV header
/// (greppable by CI) is their names. Fault columns were appended after
/// the original energy column so positional consumers (`cut -d, -f12`
/// on agreement) keep working.
const COLUMNS: [Column; 19] = [
    ("task", |r| Field::Str(&r.task)),
    ("dataset", |r| Field::Str(&r.dataset)),
    ("stored_rows", |r| Field::U64(r.stored_rows as u64)),
    ("queries", |r| Field::U64(r.queries as u64)),
    ("dims", |r| Field::U64(r.dims as u64)),
    ("classes", |r| Field::U64(r.classes as u64)),
    ("bits_per_cell", |r| Field::U64(r.bits_per_cell.into())),
    ("engine", |r| Field::Str(&r.engine)),
    ("threads", |r| Field::U64(r.threads as u64)),
    ("cam_accuracy", |r| Field::F64(r.cam_accuracy)),
    ("cpu_accuracy", |r| Field::F64(r.cpu_accuracy)),
    ("agreement", |r| Field::F64(r.agreement)),
    ("latency_per_query_ns", |r| {
        Field::F64(r.latency_per_query_ns())
    }),
    ("energy_per_query_pj", |r| {
        Field::F64(r.energy_per_query_pj())
    }),
    ("fault_rate", |r| Field::F64(r.fault_rate)),
    ("fault_seed", |r| Field::U64(r.fault_seed)),
    ("fault_cells", |r| Field::U64(r.fault_cells())),
    ("fault_transients", |r| Field::U64(r.fault_transients())),
    ("rows_remapped", |r| Field::U64(r.rows_remapped())),
];

impl AccuracyReport {
    /// Render as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:<12} {:>6} {:>7} {:>5} {:>4} {:>7} {:>9} {:>9} {:>9} {:>13} {:>12} {:>10} {:>11} {:>6}",
            "task",
            "dataset",
            "stored",
            "queries",
            "bits",
            "eng",
            "threads",
            "cam acc",
            "cpu acc",
            "agree",
            "lat/query ns",
            "E/query pJ",
            "fault rate",
            "fault cells",
            "remap"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<12} {:<12} {:>6} {:>7} {:>5} {:>4} {:>7} {:>9.4} {:>9.4} {:>9.4} {:>13.2} {:>12.2} {:>10.4} {:>11} {:>6}",
                r.task,
                r.dataset,
                r.stored_rows,
                r.queries,
                r.bits_per_cell,
                r.engine,
                r.threads,
                r.cam_accuracy,
                r.cpu_accuracy,
                r.agreement,
                r.latency_per_query_ns(),
                r.energy_per_query_pj(),
                r.fault_rate,
                r.fault_cells(),
                r.rows_remapped()
            );
        }
        out
    }

    /// Render as CSV with the stable header of `COLUMNS`.
    pub fn to_csv(&self) -> String {
        let mut out = json::csv_line(COLUMNS.map(|(name, _)| Field::Str(name)));
        for r in &self.rows {
            out.push_str(&json::csv_line(COLUMNS.map(|(_, value)| value(r))));
        }
        out
    }

    /// Render as JSON (each row carries its `COLUMNS` and embeds its
    /// query phase via [`ExecStats::to_json`]).
    pub fn to_json(&self) -> String {
        json::object(|doc| {
            doc.array("rows", |rows| {
                for r in &self.rows {
                    rows.object(|o| {
                        for (name, value) in COLUMNS {
                            o.put(name, value(r));
                        }
                        o.raw("query_phase", &r.query_phase().to_json());
                    });
                }
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::build_arch;
    use c4cam_arch::Optimization;
    use c4cam_datasets::{mini_mnist, DatasetTask};

    fn fixture(task: DatasetTask, limit: usize) -> DatasetWorkload {
        DatasetWorkload::new(mini_mnist::dataset(), task, Some(limit)).unwrap()
    }

    #[test]
    fn cam_agrees_exactly_with_the_cpu_reference() {
        for task in [DatasetTask::Hdc, DatasetTask::Knn] {
            let w = fixture(task, 16);
            let spec = build_arch((32, 32), (4, 4, 8), Optimization::Base, 1).unwrap();
            let row = evaluate(&w, &spec, "tape", 1).unwrap();
            assert_eq!(row.agreement, 1.0, "{task:?}: CAM must equal CPU");
            assert_eq!(row.cam_accuracy, row.cpu_accuracy, "{task:?}");
            assert!(row.latency_per_query_ns() > 0.0);
            assert!(row.energy_per_query_pj() > 0.0);
        }
    }

    #[test]
    fn every_registered_backend_reports_identical_accuracy() {
        // The accuracy harness runs through the backend HAL, so every
        // registered backend must classify identically — the numbers
        // that differ per backend are latency/energy, not accuracy.
        let w = fixture(DatasetTask::Hdc, 8);
        let spec = build_arch((32, 32), (4, 4, 8), Optimization::Base, 1).unwrap();
        let oracle = evaluate(&w, &spec, "walk", 1).unwrap();
        for backend in crate::hal::BackendRegistry::global().all() {
            let row = evaluate(&w, &spec, backend.name(), 1).unwrap();
            assert_eq!(row.engine, backend.name());
            assert_eq!(row.cam_accuracy, oracle.cam_accuracy, "{}", backend.name());
            assert_eq!(row.cpu_accuracy, oracle.cpu_accuracy, "{}", backend.name());
            assert_eq!(row.agreement, 1.0, "{}", backend.name());
        }
    }

    #[test]
    fn unknown_engine_is_an_error_listing_the_registry() {
        let w = fixture(DatasetTask::Hdc, 4);
        let spec = build_arch((32, 32), (4, 4, 8), Optimization::Base, 1).unwrap();
        let err = evaluate(&w, &spec, "jit", 1).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown engine 'jit'"), "{msg}");
    }

    #[test]
    fn report_renders_all_three_formats() {
        let w = fixture(DatasetTask::Hdc, 8);
        let spec = build_arch((32, 32), (4, 4, 8), Optimization::Base, 2).unwrap();
        let report = AccuracyReport {
            rows: vec![evaluate(&w, &spec, "tape", 1).unwrap()],
        };
        let table = report.to_table();
        assert!(table.contains("dataset-hdc"), "{table}");
        assert!(table.contains("cam acc"), "{table}");
        let csv = report.to_csv();
        assert_eq!(
            csv.lines().next().unwrap(),
            "task,dataset,stored_rows,queries,dims,classes,bits_per_cell,engine,threads,\
             cam_accuracy,cpu_accuracy,agreement,latency_per_query_ns,energy_per_query_pj,\
             fault_rate,fault_seed,fault_cells,fault_transients,rows_remapped"
        );
        assert_eq!(csv.lines().count(), 2, "{csv}");
        let row = csv.lines().nth(1).unwrap();
        assert!(
            row.starts_with("dataset-hdc,mini-mnist,10,8,64,10,2,tape,1,"),
            "{row}"
        );
        let json = report.to_json();
        assert!(
            json.starts_with("{\"rows\":[{\"task\":\"dataset-hdc\""),
            "{json}"
        );
        assert!(json.contains("\"query_phase\":{"), "{json}");
        assert!(json.ends_with("}]}"), "{json}");
    }

    #[test]
    fn report_strings_are_escaped() {
        let w = fixture(DatasetTask::Hdc, 4);
        let spec = build_arch((32, 32), (4, 4, 8), Optimization::Base, 1).unwrap();
        let mut row = evaluate(&w, &spec, "tape", 1).unwrap();
        row.dataset = "a,b\"c\\d\te.csv".to_string();
        let report = AccuracyReport { rows: vec![row] };
        let json = report.to_json();
        assert!(json.contains(r#""dataset":"a,b\"c\\d\te.csv","#), "{json}");
        let csv = report.to_csv();
        let cells = csv.lines().nth(1).unwrap();
        assert!(
            cells.starts_with("dataset-hdc,a_b_c\\d\te.csv,10,4,"),
            "{cells}"
        );
    }

    #[test]
    fn fault_rate_zero_is_byte_identical_to_the_fault_free_path() {
        // The acceptance bar: installing the fault hooks at rate 0 must
        // not perturb a single bit of output or stats.
        let w = fixture(DatasetTask::Hdc, 8);
        let spec = build_arch((32, 32), (4, 4, 8), Optimization::Base, 2).unwrap();
        let clean = evaluate(&w, &spec, "tape", 1).unwrap();
        let zero = evaluate_faulty(
            &w,
            &spec,
            "tape",
            1,
            Some(&FaultKnobs::new(0.0, 7)),
            &Telemetry::default(),
        )
        .unwrap();
        assert_eq!(zero.outcome.predictions, clean.outcome.predictions);
        assert_eq!(zero.outcome.total, clean.outcome.total);
        assert_eq!(zero.cam_accuracy.to_bits(), clean.cam_accuracy.to_bits());
        assert_eq!((zero.fault_cells(), zero.fault_transients()), (0, 0));
        assert_eq!(zero.rows_remapped(), 0);
        // The only CSV difference is the appended fault columns.
        let row = AccuracyReport { rows: vec![zero] }.to_csv();
        let row = row.lines().nth(1).unwrap().to_string();
        assert!(row.ends_with(",0,7,0,0,0"), "{row}");
    }

    #[test]
    fn seeded_faults_are_reproducible_and_backend_agnostic() {
        // Same knobs, same seed: byte-identical reports across repeated
        // runs, and identical predictions/fault counters across every
        // backend (walk oracle, tape) and thread count.
        let w = fixture(DatasetTask::Hdc, 8);
        let spec = build_arch((32, 32), (4, 4, 8), Optimization::Base, 2).unwrap();
        let knobs = FaultKnobs {
            rate: 0.05,
            seed: 9,
            spare_rows: 2,
            vote: 1,
        };
        let run = |engine: &str, threads: usize| {
            evaluate_faulty(
                &w,
                &spec,
                engine,
                threads,
                Some(&knobs),
                &Telemetry::default(),
            )
            .unwrap()
        };
        let first = run("tape", 1);
        assert!(first.fault_cells() > 0, "rate 0.05 must materialize faults");
        assert_eq!((first.fault_rate, first.fault_seed), (0.05, 9));
        let again = run("tape", 1);
        assert_eq!(
            AccuracyReport {
                rows: vec![first.clone()]
            }
            .to_csv(),
            AccuracyReport { rows: vec![again] }.to_csv(),
            "seeded fault runs must be byte-reproducible"
        );
        for (engine, threads) in [("walk", 1), ("tape", 4)] {
            let other = run(engine, threads);
            assert_eq!(
                other.outcome.predictions, first.outcome.predictions,
                "{engine}/{threads}"
            );
            assert_eq!(
                (
                    other.fault_cells(),
                    other.fault_transients(),
                    other.rows_remapped()
                ),
                (
                    first.fault_cells(),
                    first.fault_transients(),
                    first.rows_remapped()
                ),
                "{engine}/{threads}"
            );
        }
    }

    #[test]
    fn accuracy_is_monotone_from_1_bit_to_4_bits_on_the_fixture() {
        // More cell levels = finer prototypes; on the byte-domain
        // fixture the CPU/CAM accuracy must not degrade when moving
        // from the 1-bit threshold to the 4-bit grid.
        let w = fixture(DatasetTask::Hdc, 32);
        let acc = |bits: u32| {
            let spec = build_arch((32, 32), (4, 4, 8), Optimization::Base, bits).unwrap();
            evaluate(&w, &spec, "tape", 1).unwrap().cam_accuracy
        };
        let (one, four) = (acc(1), acc(4));
        assert!(four >= one, "4-bit {four} vs 1-bit {one}");
    }
}
