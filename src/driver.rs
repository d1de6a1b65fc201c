//! High-level experiment driver: compile a workload for an architecture,
//! execute it on the simulated CAM machine, and collect phase-separated
//! statistics. Shared by the examples, the integration tests, every
//! table/figure bench, and the `c4cam sweep` design-space runner.
//!
//! The central type is the [`Experiment`] builder: one composable
//! configuration surface over any [`Workload`] implementation —
//!
//! ```no_run
//! use c4cam::driver::{paper_arch, Experiment};
//! use c4cam::arch::Optimization;
//! use c4cam::workloads::HdcWorkload;
//!
//! let hdc = HdcWorkload::paper(16);
//! let out = Experiment::new(&hdc)
//!     .arch(paper_arch(32, Optimization::Base, 1))
//!     .backend("tape")
//!     .threads(4)
//!     .run()
//!     .unwrap();
//! println!("{:.2} ns/query", out.latency_per_query_ns());
//! ```
//!
//! Execution goes through the backend HAL
//! ([`c4cam_hal::BackendRegistry`]): the experiment names a backend
//! (`walk`, `tape`, or anything registered), the driver resolves it,
//! checks its declared thread support against the requested knobs, and
//! runs the compiled plan.

use c4cam_arch::tech::TechnologyModel;
use c4cam_arch::{ArchSpec, CamKind, Optimization};
use c4cam_camsim::ExecStats;
use c4cam_core::mapping::{place, MappingProblem, Placement};
use c4cam_core::passes::cim_partition::find_similarity_kernels;
use c4cam_core::pipeline::{C4camPipeline, CompiledKernel};
use c4cam_hal::{Backend, BackendRegistry, ExecOptions, FaultConfig, Priced, SharedPlan, Unpriced};
use c4cam_ir::print::print_module;
use c4cam_runtime::Value;
use c4cam_telemetry::{cat, log as tlog, ArgValue, Phase, Telemetry};
use c4cam_tensor::Tensor;
use c4cam_workloads::{accuracy, ArgOrder, Workload, WorkloadInputs, WorkloadModule};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Error of parsing a keyword-valued option (`--engine`, `--emit`,
/// `--format`, …): carries the offending input and the accepted
/// keyword list so every subcommand reports the same way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKeywordError {
    /// What was being parsed (e.g. `"engine"`).
    pub what: &'static str,
    /// The rejected input.
    pub given: String,
    /// Accepted keywords.
    pub expected: &'static [&'static str],
}

impl ParseKeywordError {
    /// Construct a keyword-parse error.
    pub fn new(
        what: &'static str,
        given: impl Into<String>,
        expected: &'static [&'static str],
    ) -> ParseKeywordError {
        ParseKeywordError {
            what,
            given: given.into(),
            expected,
        }
    }
}

impl fmt::Display for ParseKeywordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {} '{}' (expected {})",
            self.what,
            self.given,
            self.expected.join("|")
        )
    }
}

impl Error for ParseKeywordError {}

/// Boxed driver-failure cause.
pub type DriverCause = Box<dyn Error + Send + Sync + 'static>;

/// Driver failure, tagged with the stage that produced it so sweep
/// reports can say *where* a grid point died. The underlying cause is
/// preserved and reachable through [`Error::source`].
#[derive(Debug)]
pub enum DriverError {
    /// Invalid experiment or sweep configuration (caught up front,
    /// before any compilation).
    Config(String),
    /// The mapping pass rejected the problem geometry.
    Place(DriverCause),
    /// Pipeline compilation (or tape compilation) failed.
    Compile(DriverCause),
    /// Simulator execution failed.
    Exec(DriverCause),
}

impl DriverError {
    /// The stage this error originated in.
    pub fn stage(&self) -> &'static str {
        match self {
            DriverError::Config(_) => "config",
            DriverError::Place(_) => "place",
            DriverError::Compile(_) => "compile",
            DriverError::Exec(_) => "exec",
        }
    }

    /// Wrap this error with the sweep grid point it occurred at,
    /// keeping the stage variant and the source chain.
    pub fn at_grid_point(self, point: impl fmt::Display) -> DriverError {
        let wrap = |source: DriverCause, point: String| -> DriverCause {
            Box::new(GridPointError { point, source })
        };
        match self {
            DriverError::Config(msg) => DriverError::Config(format!("grid point [{point}]: {msg}")),
            DriverError::Place(e) => DriverError::Place(wrap(e, point.to_string())),
            DriverError::Compile(e) => DriverError::Compile(wrap(e, point.to_string())),
            DriverError::Exec(e) => DriverError::Exec(wrap(e, point.to_string())),
        }
    }
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Config(msg) => write!(f, "driver error [config]: {msg}"),
            DriverError::Place(e) => write!(f, "driver error [place]: {e}"),
            DriverError::Compile(e) => write!(f, "driver error [compile]: {e}"),
            DriverError::Exec(e) => write!(f, "driver error [exec]: {e}"),
        }
    }
}

impl Error for DriverError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DriverError::Config(_) => None,
            DriverError::Place(e) | DriverError::Compile(e) | DriverError::Exec(e) => {
                Some(e.as_ref())
            }
        }
    }
}

/// A driver failure annotated with the sweep grid point it occurred at.
#[derive(Debug)]
struct GridPointError {
    point: String,
    source: DriverCause,
}

impl fmt::Display for GridPointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "grid point [{}]: {}", self.point, self.source)
    }
}

impl Error for GridPointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(self.source.as_ref())
    }
}

/// Outcome of one compiled-and-simulated experiment run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Cumulative statistics of the full execution (setup + queries).
    pub total: ExecStats,
    /// Statistics of the setup phase alone (allocation + programming).
    pub setup: ExecStats,
    /// Statistics of the query phase alone (`total − setup`).
    pub query_phase: ExecStats,
    /// Predicted stored-row index per query (top-1).
    pub predictions: Vec<usize>,
    /// Ground-truth labels.
    pub labels: Vec<usize>,
    /// Placement chosen by the mapping pass.
    pub placement: Placement,
    /// Number of queries executed.
    pub queries: usize,
}

impl RunOutcome {
    /// Classification accuracy against the ground truth.
    pub fn accuracy(&self) -> f64 {
        accuracy(&self.predictions, &self.labels)
    }

    /// Fraction of queries whose prediction equals `reference`
    /// position-for-position (`1.0` = exact agreement). Used by
    /// `c4cam accuracy` to pin CAM predictions against the CPU
    /// reference classifier.
    ///
    /// # Panics
    /// Panics if `reference` does not have one entry per query.
    pub fn prediction_agreement(&self, reference: &[usize]) -> f64 {
        accuracy(&self.predictions, reference)
    }

    /// Query-phase latency per query, ns.
    pub fn latency_per_query_ns(&self) -> f64 {
        self.query_phase.latency_ns / self.queries.max(1) as f64
    }

    /// Query-phase energy per query, pJ.
    pub fn energy_per_query_pj(&self) -> f64 {
        self.query_phase.energy_pj() / self.queries.max(1) as f64
    }

    /// Workload queries classified per simulated second of device time
    /// (the application-level throughput; the device-level broadcast
    /// rate is [`ExecStats::queries_per_second`]).
    ///
    /// Returns 0 for zero-latency query phases.
    pub fn workload_queries_per_second(&self) -> f64 {
        if self.query_phase.latency_ns <= 0.0 {
            return 0.0;
        }
        self.queries as f64 / (self.query_phase.latency_ns * 1e-9)
    }
}

/// Build an architecture from subarray geometry, hierarchy fan-outs
/// (mats/bank, arrays/mat, subarrays/array), optimization and cell
/// width, with the CAM kind following the cell width (>1 bit = MCAM).
/// The single source of that rule for [`paper_arch`] and the sweep
/// grid.
///
/// # Errors
/// Propagates spec validation failures (e.g. out-of-range cell
/// widths).
pub fn build_arch(
    subarray: (usize, usize),
    hierarchy: (usize, usize, usize),
    optimization: Optimization,
    bits: u32,
) -> Result<ArchSpec, c4cam_arch::SpecError> {
    ArchSpec::builder()
        .subarray(subarray.0, subarray.1)
        .hierarchy(hierarchy.0, hierarchy.1, hierarchy.2)
        .cam_kind(if bits > 1 {
            CamKind::Mcam
        } else {
            CamKind::Tcam
        })
        .bits_per_cell(bits)
        .optimization(optimization)
        .build()
}

/// Build the square-subarray architecture used throughout §IV
/// (4 mats/bank, 4 arrays/mat, 8 subarrays/array, auto banks).
pub fn paper_arch(n: usize, optimization: Optimization, bits: u32) -> ArchSpec {
    build_arch((n, n), (4, 4, 8), optimization, bits).expect("valid paper architecture")
}

/// One configured experiment: a [`Workload`] bound to an architecture,
/// technology, backend, and execution knobs. Construct with
/// [`Experiment::new`], chain the setters, then [`Experiment::run`].
///
/// `run` borrows the builder, so one configuration can be re-run (the
/// simulator is deterministic: identical results) or cheaply
/// re-derived per grid point by the sweep runner.
#[derive(Clone)]
pub struct Experiment<'w> {
    workload: &'w dyn Workload,
    spec: ArchSpec,
    tech: Option<TechnologyModel>,
    backend: String,
    threads: usize,
    wta_window: Option<u32>,
    telemetry: Telemetry,
    faults: Option<FaultConfig>,
}

impl fmt::Debug for Experiment<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Experiment")
            .field("workload", &self.workload.name())
            .field("spec", &self.spec)
            .field("tech", &self.tech.as_ref().map(|t| t.name.as_str()))
            .field("backend", &self.backend)
            .field("threads", &self.threads)
            .field("wta_window", &self.wta_window)
            .field("telemetry", &self.telemetry)
            .field("faults", &self.faults)
            .finish()
    }
}

impl<'w> Experiment<'w> {
    /// Start configuring an experiment on `workload`, with the paper's
    /// default architecture ([`ArchSpec::default`]), the default
    /// technology, the `tape` backend, and one thread.
    pub fn new(workload: &'w dyn Workload) -> Experiment<'w> {
        Experiment {
            workload,
            spec: ArchSpec::default(),
            tech: None,
            backend: "tape".to_string(),
            threads: 1,
            wta_window: None,
            telemetry: Telemetry::default(),
            faults: None,
        }
    }

    /// Compile for `spec` (the paper's retargetability claim: change
    /// only the architecture, never the application).
    pub fn arch(mut self, spec: ArchSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Simulate on an explicit technology model instead of the spec's
    /// default.
    pub fn tech(mut self, tech: TechnologyModel) -> Self {
        self.tech = Some(tech);
        self
    }

    /// Select the execution backend by registry name (`walk`, `tape`,
    /// ...). Unknown names surface as a [`DriverError::Config`] listing
    /// the registered backends when the experiment runs.
    pub fn backend(mut self, backend: impl Into<String>) -> Self {
        self.backend = backend.into();
        self
    }

    /// Worker threads for backends with thread support (`1` =
    /// sequential). With more than one thread the batch executor shards
    /// the query loop across pooled workers; a plan of fewer than two
    /// queries runs sequentially at any count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Winner-take-all sensing window: best-match distances saturate at
    /// this mismatch count (paper \[19\]). `None` = unbounded sensing.
    pub fn wta_window(mut self, window: Option<u32>) -> Self {
        self.wta_window = window;
        self
    }

    /// Attach a telemetry handle: while its recorder is enabled, `run`
    /// records `Parse`/`Place`/`Compile`/`Execute` phase spans plus the
    /// backend's per-op and per-shard child spans and post-run
    /// simulator counters. The disabled default records nothing.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Inject seeded device faults (stuck-at cells, sensing drift,
    /// transient mismatches) with the configured resilience mechanisms
    /// (spare rows, redundant-search voting). `spare_rows > 0` reserves
    /// that many physical rows per subarray: placement and compilation
    /// see a subarray derated by the reserve, and rows whose stuck-cell
    /// count crosses the threshold are remapped onto the spares.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The configured architecture.
    pub fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// The architecture placement and compilation actually target:
    /// [`Experiment::spec`] with `rows_per_subarray` derated by the
    /// fault model's spare-row reserve.
    ///
    /// # Errors
    /// [`DriverError::Config`] when the reserve leaves no data rows.
    pub(crate) fn effective_spec(&self) -> Result<ArchSpec, DriverError> {
        let mut spec = self.spec.clone();
        if let Some(cfg) = &self.faults {
            let spare = cfg.resilience.spare_rows;
            if spare >= spec.rows_per_subarray {
                return Err(DriverError::Config(format!(
                    "spare_rows ({spare}) must leave at least one data row \
                     per subarray (rows_per_subarray = {})",
                    spec.rows_per_subarray
                )));
            }
            spec.rows_per_subarray -= spare;
        }
        Ok(spec)
    }

    /// The placement problem the workload poses.
    pub(crate) fn problem(&self) -> MappingProblem {
        MappingProblem {
            stored_rows: self.workload.stored_rows(),
            feature_dims: self.workload.dims(),
            queries: self.workload.query_count(),
        }
    }

    /// Compile, place, and execute on a fresh machine; collect
    /// phase-separated statistics.
    ///
    /// Equivalent to [`Experiment::compile`] followed by
    /// [`CompiledExperiment::run`] — call those separately to pay the
    /// Parse/Place/Compile phases once and execute many times.
    ///
    /// # Errors
    /// [`DriverError::Config`] for invalid knob combinations (checked
    /// up front), otherwise the failing stage's error.
    pub fn run(&self) -> Result<RunOutcome, DriverError> {
        self.compile()?.run()
    }

    /// Run the Parse/Place/Compile phases once and return a reusable
    /// [`CompiledExperiment`]: an owned, `Send + Sync` artifact that
    /// executes the compiled plan any number of times without
    /// recompiling. This is the entry point the resident server's plan
    /// cache builds on.
    ///
    /// # Errors
    /// [`DriverError::Config`] for invalid knob combinations (checked
    /// up front), otherwise the failing stage's error.
    pub fn compile(&self) -> Result<CompiledExperiment, DriverError> {
        self.compile_from(|spec| {
            let mut span = self.telemetry.phase(Phase::Parse);
            span.arg("workload", ArgValue::Str(self.workload.name().to_string()));
            span.arg("queries", ArgValue::Int(self.workload.query_count() as i64));
            let built = self.workload.build_module(spec);
            Ok((Front::Built(built), Arc::new(self.workload.inputs(spec))))
        })
    }

    /// Check the knobs, take the module and inputs from `front` (asked
    /// with the spec this point compiles for), place, then lower the
    /// rest of the way and compile the backend's plan — unless `front`
    /// already hands over the plan. A design-space sweep compiles its
    /// points this way from what they share.
    pub(crate) fn compile_from(
        &self,
        front: impl FnOnce(&ArchSpec) -> Result<(Front, Arc<WorkloadInputs>), DriverError>,
    ) -> Result<CompiledExperiment, DriverError> {
        if self.threads == 0 {
            return Err(DriverError::Config(
                "threads must be >= 1 (got 0)".to_string(),
            ));
        }
        let backend = BackendRegistry::global()
            .get(&self.backend)
            .map_err(|e| DriverError::Config(e.message))?;
        if self.threads > 1 && !backend.supports_threads() {
            return Err(DriverError::Config(format!(
                "the {} backend is single-threaded (got threads = {})",
                backend.name(),
                self.threads
            )));
        }
        let nq = self.workload.query_count();
        for (what, n) in [
            ("queries", nq),
            ("stored rows", self.workload.stored_rows()),
            ("dims", self.workload.dims()),
        ] {
            if n == 0 {
                return Err(DriverError::Config(format!(
                    "workload '{}' has no {what}",
                    self.workload.name()
                )));
            }
        }
        tlog::debug(format_args!(
            "experiment: workload '{}' on backend '{}' ({} queries)",
            self.workload.name(),
            self.backend,
            nq
        ));
        // Placement, compilation, and the simulated machine all target
        // the spec derated by the spare-row reserve: spares are real
        // physical rows, but no data row maps onto them.
        let spec = self.effective_spec()?;
        // Module and input materialisation are pure functions of
        // workload × spec, so taking them ahead of placement keeps the
        // phase spans chronological.
        let (front, inputs) = front(&spec)?;
        let placement = {
            let _span = self.telemetry.phase(Phase::Place);
            place(&spec, &self.problem()).map_err(|e| DriverError::Place(Box::new(e)))?
        };
        // Compile: pipeline lowering, then the backend's plan.
        let (plan, arg_order) = {
            let mut span = self.telemetry.phase(Phase::Compile);
            span.arg("backend", ArgValue::Str(self.backend.clone()));
            let (planned, how) = match front {
                Front::Planned(plan, arg_order) => ((plan, arg_order), "shared"),
                Front::Built(built) => {
                    let fused = Fused::lower(built, &spec)?;
                    (self.plan(backend, fused, &spec)?, "compiled")
                }
                Front::Fused(fused) => (self.plan(backend, fused, &spec)?, "compiled"),
            };
            span.arg("plan", ArgValue::Str(how.to_string()));
            planned
        };
        Ok(CompiledExperiment {
            plan,
            placement,
            inputs,
            arg_order,
            queries: nq,
            backend: self.backend.clone(),
            threads: self.threads,
            wta_window: self.wta_window,
            tech: self.tech.clone(),
            telemetry: self.telemetry.clone(),
            faults: self.faults.clone(),
        })
    }

    /// Lower `fused` through the per-spec pass and compile `backend`'s
    /// plan from it, each in its own stage span.
    fn plan(
        &self,
        backend: &dyn Backend,
        fused: Fused,
        spec: &ArchSpec,
    ) -> Result<(SharedPlan, ArgOrder), DriverError> {
        let compiled = {
            let _span = self.telemetry.span("cam-map", cat::STAGE);
            C4camPipeline::new(spec.clone())
                .lower_suffix(fused.kernel)
                .map_err(|e| DriverError::Compile(Box::new(e)))?
        };
        let _span = self.telemetry.span(backend.name(), cat::STAGE);
        let plan = backend
            .compile_shared(&compiled.module, fused.func, spec)
            .map_err(|e| DriverError::Compile(Box::new(e)))?;
        Ok((plan, fused.arg_order))
    }
}

/// A workload's module lowered through the pipeline's geometry-free
/// prefix, with what the backend needs to call its entry function.
#[derive(Clone)]
pub(crate) struct Fused {
    kernel: CompiledKernel,
    func: &'static str,
    arg_order: ArgOrder,
}

impl Fused {
    /// Lower `built` through [`C4camPipeline::lower_prefix`].
    ///
    /// # Errors
    /// [`DriverError::Compile`] if the module fails verification or a
    /// prefix pass.
    pub(crate) fn lower(built: WorkloadModule, spec: &ArchSpec) -> Result<Fused, DriverError> {
        let kernel = C4camPipeline::new(spec.clone())
            .lower_prefix(built.module)
            .map_err(|e| DriverError::Compile(Box::new(e)))?;
        Ok(Fused {
            kernel,
            func: built.func,
            arg_order: built.arg_order,
        })
    }

    /// How the backend calls the module's entry function.
    pub(crate) fn arg_order(&self) -> ArgOrder {
        self.arg_order
    }

    /// Everything a plan compiled from this module reads of it: its
    /// text, entry function and argument order. Equal identities with
    /// equal [`c4cam_core::passes::cam_map::MapKey`]s lower to the same
    /// plan.
    pub(crate) fn identity(&self) -> (String, &'static str, ArgOrder) {
        (print_module(&self.kernel.module), self.func, self.arg_order)
    }

    /// Whether `cam-map` places `problem` for every kernel it will map
    /// here, so that the key of `problem` is all it reads of a spec.
    pub(crate) fn maps_only(&self, problem: &MappingProblem) -> bool {
        let kernels = find_similarity_kernels(&self.kernel.module);
        !kernels.is_empty() && kernels.iter().all(|k| k.problem() == *problem)
    }
}

/// How far the module has come when the Compile phase opens.
pub(crate) enum Front {
    /// As the workload built it.
    Built(WorkloadModule),
    /// Already through the prefix.
    Fused(Fused),
    /// Already a plan for this point's spec, and how to call it.
    Planned(SharedPlan, ArgOrder),
}

/// A compiled, placed, ready-to-execute experiment: the product of
/// [`Experiment::compile`]. Owns the backend plan (behind a
/// [`SharedPlan`]), the placement, and the workload's materialised
/// inputs, so it has no borrow of the originating workload and is
/// `Send + Sync` — a resident service can cache one per
/// `(workload, ArchSpec, backend)` key and execute it from any thread.
///
/// Every execution pays only the Execute phase: Parse/Place/Compile
/// happened once in [`Experiment::compile`].
#[derive(Clone)]
pub struct CompiledExperiment {
    plan: SharedPlan,
    placement: Placement,
    inputs: Arc<WorkloadInputs>,
    arg_order: ArgOrder,
    queries: usize,
    backend: String,
    threads: usize,
    wta_window: Option<u32>,
    tech: Option<TechnologyModel>,
    telemetry: Telemetry,
    faults: Option<FaultConfig>,
}

impl fmt::Debug for CompiledExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledExperiment")
            .field("backend", &self.backend)
            .field("queries", &self.queries)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl CompiledExperiment {
    /// The query count the plan was compiled for (the tape bakes the
    /// query-loop trip count in, so every execution runs exactly this
    /// many queries).
    pub fn query_count(&self) -> usize {
        self.queries
    }

    /// Per-query feature dimensionality the plan expects.
    pub fn dims(&self) -> usize {
        self.inputs.queries.shape().get(1).copied().unwrap_or(0)
    }

    /// The placement chosen by the mapping pass.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The compiled plan.
    pub(crate) fn plan(&self) -> &SharedPlan {
        &self.plan
    }

    /// Swap the telemetry handle for subsequent executions (e.g. to
    /// give each service request its own recorder).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> CompiledExperiment {
        self.telemetry = telemetry;
        self
    }

    /// Host bytes of the workload's input tensors, each distinct
    /// storage once ([`WorkloadInputs::input_bytes`]).
    pub fn input_bytes(&self) -> usize {
        self.inputs.input_bytes()
    }

    /// Execute the compiled plan against the workload's own inputs.
    ///
    /// # Errors
    /// [`DriverError::Exec`] on simulator failure.
    pub fn run(&self) -> Result<RunOutcome, DriverError> {
        self.execute(
            self.inputs.queries.clone(),
            self.inputs.labels.clone(),
            None,
        )
    }

    /// [`CompiledExperiment::run`], its Execute span naming the sweep
    /// grid `point` it ran (a `point` argument).
    pub(crate) fn run_at(&self, point: &dyn fmt::Display) -> Result<RunOutcome, DriverError> {
        let (queries, labels) = (self.inputs.queries.clone(), self.inputs.labels.clone());
        self.execute(queries, labels, Some(point))
    }

    /// Execute the compiled plan against caller-supplied query rows
    /// (the dynamic-batching entry point: the service pads a coalesced
    /// batch to the compiled capacity and substitutes it here).
    ///
    /// The returned outcome has no ground-truth labels, so
    /// [`RunOutcome::accuracy`] is not meaningful on it (the caller
    /// compares predictions directly).
    ///
    /// # Errors
    /// [`DriverError::Config`] when `queries` does not match the
    /// compiled shape; [`DriverError::Exec`] on simulator failure.
    pub fn run_with_queries(&self, queries: Tensor) -> Result<RunOutcome, DriverError> {
        let expected = self.inputs.queries.shape();
        if queries.shape() != expected {
            return Err(DriverError::Config(format!(
                "query tensor shape {:?} does not match the compiled shape {:?} \
                 (the plan bakes the query count in; pad the batch to capacity)",
                queries.shape(),
                expected
            )));
        }
        self.execute(queries, Vec::new(), None)
    }

    /// The statistics a sequential run of the compiled plan would
    /// report if its query loop ran `queries` times — priced from the
    /// schedule ([`c4cam_hal::Plan::price`]) without executing, exact at
    /// any count: the per-query schedule does not depend on the loop
    /// bound, so a plan compiled for 16 queries quotes the paper's
    /// 10 000-query figures to the bit.
    ///
    /// # Errors
    /// Why the plan cannot be priced: a backend with no static
    /// schedule, an installed fault model, or a run that would fail.
    pub fn cost(&self, queries: usize) -> Result<Priced, Unpriced> {
        let (stored, qs) = (self.inputs.stored.shape(), self.inputs.queries.shape());
        let [first, second] = self.in_arg_order(qs, stored);
        self.plan
            .price(&[first, second], &self.exec_options(), queries)
    }

    /// The outcome of a run of this plan that reports the statistics
    /// `cost` and answered `predictions`.
    pub(crate) fn outcome_at(&self, cost: &Priced, predictions: Vec<usize>) -> RunOutcome {
        RunOutcome {
            total: cost.total.clone(),
            setup: cost.setup(),
            query_phase: cost.query_phase(),
            predictions,
            labels: self.inputs.labels.clone(),
            placement: self.placement,
            queries: self.queries,
        }
    }

    /// `queries` and `stored` in the order the workload declares for
    /// its kernel's arguments — no shape heuristics (those are
    /// ambiguous when queries == stored rows).
    fn in_arg_order<T>(&self, queries: T, stored: T) -> [T; 2] {
        match self.arg_order {
            ArgOrder::QueriesThenStored => [queries, stored],
            ArgOrder::StoredThenQueries => [stored, queries],
        }
    }

    fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            threads: self.threads,
            wta_window: self.wta_window,
            tech: self.tech.clone(),
            telemetry: self.telemetry.clone(),
            faults: self.faults.clone(),
        }
    }

    fn execute(
        &self,
        queries: Tensor,
        labels: Vec<usize>,
        point: Option<&dyn fmt::Display>,
    ) -> Result<RunOutcome, DriverError> {
        let nq = self.queries;
        let stored = self.inputs.stored.clone();
        let args = self.in_arg_order(Value::Tensor(queries), Value::Tensor(stored));
        let opts = self.exec_options();
        let execution = {
            let mut span = self.telemetry.phase(Phase::Execute);
            span.arg("backend", ArgValue::Str(self.backend.clone()));
            span.arg("threads", ArgValue::Int(self.threads as i64));
            if let Some(point) = point {
                span.arg("point", ArgValue::Str(point.to_string()));
            }
            self.plan
                .execute(&args, &opts)
                .map_err(|e| DriverError::Exec(Box::new(e)))?
        };
        if self.telemetry.enabled() {
            let s = &execution.stats;
            self.telemetry.counter("sim.latency_ns", s.latency_ns);
            self.telemetry.counter("sim.energy_fj", s.total_energy_fj());
            self.telemetry
                .counter("sim.search_ops", s.search_ops as f64);
            self.telemetry
                .counter("sim.searched_words", s.searched_words as f64);
            self.telemetry
                .counter("sim.heap_bytes", execution.heap_bytes as f64);
            if self.faults.is_some() {
                self.telemetry
                    .counter("sim.fault_cells", s.fault_cells as f64);
                self.telemetry
                    .counter("sim.fault_transients", s.fault_transients as f64);
                self.telemetry
                    .counter("sim.rows_remapped", s.rows_remapped as f64);
            }
        }
        tlog::debug(format_args!(
            "experiment done: {} search ops, {:.3} ms simulated",
            execution.stats.search_ops,
            execution.stats.latency_ms()
        ));
        let indices = execution
            .outputs
            .get(1)
            .and_then(Value::as_tensor)
            .ok_or_else(|| DriverError::Exec("kernel returned no indices".to_string().into()))?;
        let predictions: Vec<usize> = (0..nq)
            .map(|q| indices.data()[q * indices.len() / nq.max(1)] as usize)
            .collect();
        let total = execution.stats.clone();
        let setup = execution
            .phase("setup-complete")
            .cloned()
            .unwrap_or_default();
        let query_phase = total.delta(&setup);
        Ok(RunOutcome {
            total,
            setup,
            query_phase,
            predictions,
            labels,
            placement: self.placement,
            queries: nq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4cam_workloads::{HdcWorkload, KnnWorkload};

    fn small_hdc() -> HdcWorkload {
        HdcWorkload {
            classes: 4,
            dims: 256,
            queries: 8,
            flip_rate: 0.05,
            seed: 1,
        }
    }

    #[test]
    fn hdc_experiment_runs_and_classifies() {
        let hdc = small_hdc();
        let out = Experiment::new(&hdc)
            .arch(paper_arch(32, Optimization::Base, 1))
            .run()
            .unwrap();
        assert_eq!(out.predictions.len(), 8);
        assert!(out.accuracy() > 0.9, "accuracy {}", out.accuracy());
        assert!(out.query_phase.latency_ns > 0.0);
        assert!(out.workload_queries_per_second() > 0.0);
        assert!(out.query_phase.searched_words > 0);
        assert!(out.setup.write_ops > 0);
        assert_eq!(out.query_phase.write_ops, 0, "no writes after setup");
        assert!(out.latency_per_query_ns() > 0.0);
    }

    #[test]
    fn knn_experiment_matches_cpu_nearest() {
        let knn = KnnWorkload {
            patterns: 48,
            dims: 64,
            queries: 6,
            k: 1,
            noise: 0.1,
            seed: 3,
        };
        let spec = ArchSpec::builder()
            .subarray(16, 16)
            .hierarchy(2, 2, 4)
            .build()
            .unwrap();
        let out = Experiment::new(&knn).arch(spec).run().unwrap();
        assert_eq!(out.accuracy(), 1.0, "CAM top-1 must equal CPU top-1");
    }

    #[test]
    fn dtree_experiment_matches_cpu_nearest_path() {
        let dtree = c4cam_workloads::DtreeWorkload::new(8, 3, 4, 5, 77);
        let spec = ArchSpec::builder()
            .subarray(16, 16)
            .hierarchy(2, 2, 4)
            .bits_per_cell(2)
            .cam_kind(CamKind::Mcam)
            .build()
            .unwrap();
        let out = Experiment::new(&dtree).arch(spec).run().unwrap();
        assert_eq!(out.accuracy(), 1.0, "CAM nearest path must equal CPU");
    }

    #[test]
    fn hdc_arg_order_is_correct_when_queries_equal_classes() {
        // Regression: the pre-Experiment driver bound kernel arguments
        // by a shape heuristic that was ambiguous when the query count
        // equalled the stored-row count, transposing the similarity
        // matrix. The workload now declares its argument order, so the
        // device must reproduce the CPU dot-argmax reference even at
        // queries == classes with heavy noise (where labels no longer
        // coincide with q % classes).
        let hdc = HdcWorkload {
            classes: 4,
            dims: 128,
            queries: 4,
            flip_rate: 0.9,
            seed: 11,
        };
        let spec = paper_arch(16, Optimization::Base, 1);
        let out = Experiment::new(&hdc).arch(spec.clone()).run().unwrap();
        let inputs = hdc.inputs(&spec);
        let cpu: Vec<usize> = (0..4)
            .map(|q| {
                let qr = inputs.queries.row(q).unwrap();
                let dot = |c: usize| -> f64 {
                    inputs
                        .stored
                        .row(c)
                        .unwrap()
                        .iter()
                        .zip(qr)
                        .map(|(&s, &x)| f64::from(s) * f64::from(x))
                        .sum()
                };
                // First-index-wins argmax, matching the device's top-1.
                let mut best = 0usize;
                for c in 1..4 {
                    if dot(c) > dot(best) {
                        best = c;
                    }
                }
                best
            })
            .collect();
        assert_eq!(out.predictions, cpu, "device must match CPU dot-argmax");
    }

    #[test]
    fn every_registered_backend_agrees_with_the_walk_oracle() {
        let hdc = HdcWorkload {
            classes: 4,
            dims: 128,
            queries: 6,
            flip_rate: 0.05,
            seed: 9,
        };
        let exp = Experiment::new(&hdc).arch(paper_arch(16, Optimization::Base, 1));
        let walk = exp.clone().backend("walk").run().unwrap();
        for backend in BackendRegistry::global().all() {
            let out = exp.clone().backend(backend.name()).run().unwrap();
            assert_eq!(out.predictions, walk.predictions, "{}", backend.name());
            assert_eq!(out.total, walk.total, "{} total", backend.name());
            assert_eq!(out.setup, walk.setup, "{} setup", backend.name());
            assert_eq!(
                out.query_phase,
                walk.query_phase,
                "{} query phase",
                backend.name()
            );
        }
    }

    #[test]
    fn default_backend_is_the_tape_engine() {
        let hdc = small_hdc();
        let exp = Experiment::new(&hdc).arch(paper_arch(32, Optimization::Base, 1));
        let default = exp.clone().run().unwrap();
        let tape = exp.backend("tape").run().unwrap();
        assert_eq!(default.predictions, tape.predictions);
        assert_eq!(default.total, tape.total);
        assert_eq!(default.query_phase, tape.query_phase);
    }

    #[test]
    fn threaded_experiment_reproduces_sequential_outputs() {
        let hdc = small_hdc();
        let exp = Experiment::new(&hdc).arch(paper_arch(32, Optimization::Base, 1));
        let seq = exp.clone().run().unwrap();
        let par = exp.threads(4).run().unwrap();
        assert_eq!(seq.predictions, par.predictions);
        assert_eq!(seq.total, par.total);
        assert_eq!(seq.setup, par.setup);
        assert_eq!(seq.query_phase, par.query_phase);
    }

    #[test]
    fn zero_threads_is_a_config_error() {
        let hdc = small_hdc();
        let e = Experiment::new(&hdc).threads(0).run().unwrap_err();
        assert!(matches!(e, DriverError::Config(_)), "{e}");
        assert_eq!(e.stage(), "config");
        assert!(e.source().is_none());
    }

    #[test]
    fn threads_on_a_single_threaded_backend_are_a_config_error() {
        let hdc = small_hdc();
        let e = Experiment::new(&hdc)
            .backend("walk")
            .threads(2)
            .run()
            .unwrap_err();
        assert!(matches!(e, DriverError::Config(_)), "{e}");
        assert!(e.to_string().contains("walk"), "{e}");
    }

    #[test]
    fn unknown_backend_is_a_config_error_listing_registered_names() {
        let hdc = small_hdc();
        // `simd` and `trace` are retired names: they fail like any unknown one, never alias.
        for name in ["jit", "simd", "trace"] {
            let e = Experiment::new(&hdc).backend(name).run().unwrap_err();
            assert!(matches!(e, DriverError::Config(_)), "{e}");
            let want = format!("unknown engine '{name}' (registered backends: tape, walk)");
            assert!(e.to_string().contains(&want), "{e}");
        }
    }

    #[test]
    fn place_failure_preserves_source_and_stage() {
        let hdc = small_hdc();
        // A fixed bank count far too small for the problem.
        let spec = ArchSpec::builder()
            .subarray(16, 16)
            .hierarchy(1, 1, 1)
            .banks(1)
            .build()
            .unwrap();
        let big = HdcWorkload {
            classes: 512,
            dims: 4096,
            ..hdc
        };
        let e = Experiment::new(&big).arch(spec).run().unwrap_err();
        assert_eq!(e.stage(), "place", "{e}");
        assert!(e.source().is_some(), "cause must be preserved");
        let wrapped = e.at_grid_point("16x16/latency/default/1b");
        assert_eq!(wrapped.stage(), "place", "variant preserved");
        assert!(
            wrapped.to_string().contains("grid point [16x16"),
            "{wrapped}"
        );
        // The original cause is still on the chain.
        assert!(wrapped.source().unwrap().source().is_some());
    }

    #[test]
    fn zero_sized_workloads_are_a_config_error() {
        for (hdc, what) in [
            (
                HdcWorkload {
                    classes: 0,
                    ..small_hdc()
                },
                "stored rows",
            ),
            (
                HdcWorkload {
                    dims: 0,
                    ..small_hdc()
                },
                "dims",
            ),
        ] {
            let e = Experiment::new(&hdc).compile().unwrap_err();
            assert!(matches!(e, DriverError::Config(_)), "{e}");
            let expected = format!("'hdc' has no {what}");
            assert!(e.to_string().contains(&expected), "{e}");
        }
    }

    #[test]
    fn power_config_increases_latency_not_energy() {
        let hdc = HdcWorkload {
            classes: 8,
            dims: 1024,
            queries: 4,
            flip_rate: 0.0,
            seed: 5,
        };
        let base = Experiment::new(&hdc)
            .arch(paper_arch(32, Optimization::Base, 1))
            .run()
            .unwrap();
        let power = Experiment::new(&hdc)
            .arch(paper_arch(32, Optimization::Power, 1))
            .run()
            .unwrap();
        assert!(
            power.query_phase.latency_ns > base.query_phase.latency_ns * 1.5,
            "power config must serialize subarrays"
        );
        assert!(power.query_phase.power_w() < base.query_phase.power_w());
        assert_eq!(base.predictions, power.predictions);
    }
}
